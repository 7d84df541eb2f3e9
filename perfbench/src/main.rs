//! The repo benchmark. One workload per invocation:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_diurnal|serve_dense|fleet_day|all \
//!     --seed N --seconds N --trace 0|1 [--threads N]
//! ```
//!
//! Every input is generated from `--seed` before any timed span. With
//! `--trace 0` the run reports the end-to-end metrics; with `--trace 1`
//! it runs the workload untraced and traced, checks both gave the same
//! outputs, and reports the per-layer split. Each metric is printed as
//! `name value unit (n=samples)`; the last stdout line is one JSON
//! object `{"correct","attempted","failed","metrics"}`. See README.md.

mod fleet_day;
mod heldout;
mod probe;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

use yala_core::Engine;

use crate::probe::{ProfileLayers, RefineLayer};
use crate::stats::{Digest, Outcome};

/// The seed every daemon and every trained bank is built with: the
/// system under test is the same on every run, and `--seed` varies only
/// the workload's inputs.
pub const MODEL_SEED: u64 = 42;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 3] = ["serve_diurnal", "serve_dense", "fleet_day"];

/// End-to-end metrics with their units: every `--trace 0` run reports
/// each of them.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("place_p50_ms", "ms"),
    ("place_p99_ms", "ms"),
    ("serve_capacity_rps", "1/s"),
    ("admit_rate", "ratio"),
    ("day_s", "s"),
    ("predict_mape_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics with their units: every `--trace 1` run reports
/// each of them; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 64] = [
    ("serve.requests", "count"),
    ("serve.errors", "count"),
    ("serve.place.ms_p50", "ms"),
    ("serve.place.ms_p99", "ms"),
    ("serve.query.ms_p50", "ms"),
    ("serve.query.ms_p99", "ms"),
    ("serve.drift.ms_p50", "ms"),
    ("serve.drift.ms_p99", "ms"),
    ("serve.fault.ms_p50", "ms"),
    ("serve.fault.ms_p99", "ms"),
    ("serve.absorb.ms_p50", "ms"),
    ("serve.absorb.ms_p99", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.place.self_ms_p50", "ms"),
    ("profile.lookups", "count"),
    ("profile.hits", "count"),
    ("profile.misses", "count"),
    ("profile.hit_ratio", "ratio"),
    ("profile.miss_ms_p50", "ms"),
    ("profile.miss_ms_p99", "ms"),
    ("profile.busy_s", "s"),
    ("traffic.flows_synthesized", "count"),
    ("traffic.pktgen_busy_s", "s"),
    ("nf.flows_warmed", "count"),
    ("nf.warm_busy_s", "s"),
    ("nf.packets_replayed", "count"),
    ("nf.replay_busy_s", "s"),
    ("rxp.regex_replays", "count"),
    ("rxp.regex_replay_busy_s", "s"),
    ("sim.solo_calls", "count"),
    ("sim.solo_busy_s", "s"),
    ("sim.corun_calls", "count"),
    ("sim.corun_busy_s", "s"),
    ("predict.calls", "count"),
    ("predict.busy_s", "s"),
    ("predict.calls_per_arrival", "ratio"),
    ("reevaluate.calls", "count"),
    ("refine.passes", "count"),
    ("refine.observations", "count"),
    ("refine.busy_s", "s"),
    ("refine.s_p50", "s"),
    ("fleet.gen_s", "s"),
    ("fleet.build_s", "s"),
    ("fleet.events", "count"),
    ("fleet.arrival_busy_s", "s"),
    ("fleet.arrival_us_p50", "us"),
    ("fleet.arrival_us_p99", "us"),
    ("fleet.departure_busy_s", "s"),
    ("fleet.audit_busy_s", "s"),
    ("fleet.audit_s_p50", "s"),
    ("fleet.rejected", "count"),
    ("fleet.migrations", "count"),
    ("fleet.sla_violation_rate", "ratio"),
    ("fleet.nic_minutes", "nic-min"),
    ("wire.parse_us_p50", "us"),
    ("journal.events", "count"),
    ("journal.bytes", "bytes"),
    ("journal.dropped", "count"),
    ("journal.encode_s", "s"),
    ("replay.verify_s", "s"),
    ("gen.late_ms_max", "ms"),
    ("gen.backlog_end", "count"),
    ("trace.overhead_frac", "ratio"),
    ("mem.peak_rss_mb", "MB"),
];

/// A traced run's per-layer values, keyed by [`PER_LAYER`] names.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Sets a layer metric. Panics on a name outside [`PER_LAYER`]: a
    /// typo here is a bug in the benchmark.
    pub fn set(&mut self, name: &str, value: f64) {
        let (key, _) = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.
        self.0.insert(key, value + 0.0);
    }

    /// The profiling layers: cache lookups against probed misses.
    pub fn profile(&mut self, lookups: u64, p: &ProfileLayers) {
        let misses = p.miss_s.len() as u64;
        let miss_ms = stats::sorted(p.miss_s.iter().map(|s| 1e3 * s).collect());
        self.set("profile.lookups", lookups as f64);
        self.set("profile.hits", lookups.saturating_sub(misses) as f64);
        self.set("profile.misses", misses as f64);
        self.set(
            "profile.hit_ratio",
            lookups.saturating_sub(misses) as f64 / lookups.max(1) as f64,
        );
        self.set("profile.miss_ms_p50", stats::median(&miss_ms));
        self.set("profile.miss_ms_p99", stats::tail_or_max(&miss_ms));
        self.set("profile.busy_s", p.miss_s.iter().sum());
        self.set("traffic.flows_synthesized", p.flows_synthesized as f64);
        self.set("traffic.pktgen_busy_s", p.pktgen_s);
        self.set("nf.flows_warmed", p.flows_warmed as f64);
        self.set("nf.warm_busy_s", p.warm_s);
        self.set("nf.packets_replayed", p.packets_replayed as f64);
        self.set("nf.replay_busy_s", p.replay_s);
        self.set("rxp.regex_replays", p.regex_replays as f64);
        self.set("rxp.regex_replay_busy_s", p.regex_replay_s);
        self.set("sim.solo_calls", p.solo_calls as f64);
        self.set("sim.solo_busy_s", p.solo_s);
    }

    /// The online-refinement layer.
    pub fn refine(&mut self, r: &RefineLayer) {
        self.set("refine.passes", r.pass_s.len() as f64);
        self.set("refine.observations", r.observations as f64);
        self.set("refine.busy_s", r.busy_s());
        self.set(
            "refine.s_p50",
            stats::median(&stats::sorted(r.pass_s.clone())),
        );
    }

    /// Copies every per-layer metric into `out`, 0 where unset.
    pub fn fill(&self, out: &mut Outcome) {
        for (name, unit) in PER_LAYER {
            out.set(name, self.0.get(name).copied().unwrap_or(0.0), unit, 1);
        }
    }
}

/// Compares `digest` with the one an earlier run of this same binary
/// recorded for the same inputs, or records it. Outputs are a pure
/// function of the inputs, so a mismatch means nondeterminism.
pub fn memo_digest(out: &mut Outcome, workload: &str, seed: u64, seconds: f64, digest: Digest) {
    let mut exe = Digest::default();
    match std::env::current_exe().and_then(std::fs::read) {
        Ok(bytes) => exe.line(&bytes),
        Err(e) => {
            eprintln!("  digest memo skipped: {e}");
            return;
        }
    }
    let dir = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into()))
        .join("perfbench-digests");
    let path = dir.join(format!("{}-{workload}-{seed}-{seconds}", exe.hex()));
    match std::fs::read_to_string(&path) {
        Ok(seen) => out.check(seen == digest.hex(), || {
            format!(
                "output digest {} != {seen} from an earlier run",
                digest.hex()
            )
        }),
        Err(_) => {
            if let Err(e) =
                std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, digest.hex()))
            {
                eprintln!("  could not record digest at {}: {e}", path.display());
            }
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    threads: Option<usize>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut threads) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                if value != "all" && !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value}; one of {WORKLOADS:?} or all"
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| bad(&e))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: need 0 < seconds <= 600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: need 0 or 1")),
                })
            }
            "--threads" => {
                let n = value.parse::<usize>().map_err(|e| bad(&e))?;
                if n == 0 {
                    return Err("--threads must be positive".into());
                }
                threads = Some(n);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        threads,
    })
}

/// The engine a workload runs on: `--threads` if given, else the
/// machine's parallelism for the serving workloads and one thread for the
/// fleet day. A day's online refinement is a chain of parallel refits,
/// each as slow as the slower of two shared cores, and on two engine
/// threads the day's timings spread by a quarter or more across ten
/// seeds; the serving workloads profile on both cores and queue less
/// for it.
fn engine_for(name: &str, args: &Args) -> Engine {
    match (args.threads, name) {
        (Some(n), _) => Engine::with_threads(n),
        (None, "fleet_day") => Engine::sequential(),
        (None, _) => Engine::auto(),
    }
}

fn run_workload(name: &str, args: &Args) -> Outcome {
    let engine = &engine_for(name, args);
    eprintln!("perfbench: {name} on {} engine threads", engine.threads());
    let mut out = match name {
        "serve_diurnal" => serve::run(
            serve::Shape::Diurnal,
            args.seed,
            args.seconds,
            args.trace,
            engine,
        ),
        "serve_dense" => serve::run(
            serve::Shape::Dense,
            args.seed,
            args.seconds,
            args.trace,
            engine,
        ),
        "fleet_day" => fleet_day::run(args.seed, args.seconds, args.trace, engine),
        _ => unreachable!("workload names are validated at parse time"),
    };
    let rss = stats::peak_rss_mb();
    out.check(rss.is_some(), || "peak resident memory unavailable".into());
    let rss = rss.unwrap_or(0.0);
    if args.trace {
        out.set("mem.peak_rss_mb", rss, "MB", 1);
    } else {
        out.set("peak_rss_mb", rss, "MB", 1);
    }
    out
}

/// Prints `out`'s metrics (names prefixed by `prefix`), appends their
/// JSON members, and returns whether the run was correct.
fn report(prefix: &str, out: &Outcome, names: &[(&str, &str)], members: &mut Vec<String>) -> bool {
    let mut correct = out.problems.is_empty() && out.failed == 0;
    for p in &out.problems {
        eprintln!("  CHECK FAILED: {p}");
    }
    for (name, unit) in names {
        let m = out.metrics.get(name);
        let value = m.map_or(f64::NAN, |m| m.value);
        if !value.is_finite() {
            eprintln!("  CHECK FAILED: metric {name} is missing or not finite");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        let samples = m.map_or(0, |m| m.samples);
        println!("{prefix}{name} {value} {unit} (n={samples})");
        members.push(format!(
            "\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{prefix}failed_frac {} ratio (n={})",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
    correct
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let workloads: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut members = Vec::new();
    for &w in &workloads {
        let out = run_workload(w, &args);
        let prefix = if workloads.len() > 1 {
            format!("{w}.")
        } else {
            String::new()
        };
        correct &= report(&prefix, &out, names, &mut members);
        attempted += out.attempted;
        failed += out.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        members.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fleet_day --seed 3 --seconds 20 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("fleet_day", 3, 20.0, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload all --seed 1 --seconds 0").is_err());
        assert!(args("--workload all --seed x --seconds 1").is_err());
        assert!(args("--workload all --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--seed 1 --seconds 1").is_err());
    }

    /// `BENCHMARK.json` at the repo root names exactly the workloads and
    /// metrics this program reports.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let section = |key: &str| -> Vec<String> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        assert_eq!(section("workloads"), WORKLOADS);
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        assert_eq!(section("end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(section("per_layer"), layers);
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }
}
