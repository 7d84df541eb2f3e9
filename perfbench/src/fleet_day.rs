//! The `fleet_day` workload: a batch day of templated traffic run by the
//! yala-online contention-aware policy (QoS on, audits every 30 min),
//! ending in the report and the JSONL journal. Templates make the
//! profile cache mostly hit, so online refinement and the audits it
//! rides on dominate the day.

use std::collections::HashSet;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use yala_core::{Engine, ModelBank, ObservationBuffer, ProfileCache, QosClass, TrainConfig};
use yala_fleet::{
    verify_against, Diagnoser, FleetConfig, FleetPolicy, FleetSim, FleetTrace, NfRecord,
    OnlineRefine, Processed, ProfiledTrace, TrafficModel, MS_PER_S,
};
use yala_placement::{Placed, PlacementPredictor, YalaPredictor};
use yala_sim::{NicModelId, NicSpec};
use yala_telemetry::Telemetry;
use yala_traffic::TrafficProfile;

use crate::heldout::{CoRuns, HeldOut};
use crate::probe::{ProfileLayers, RefineLayer};
use crate::serve::{spread, KINDS};
use crate::stats::{self, Digest, Outcome};
use crate::Layers;

/// Bank trainings per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Days run per pass at least, whatever `--seconds` says.
const MIN_DAYS: usize = 4;

/// Arrivals per day: one a minute over the 12-hour day.
const ARRIVALS: u32 = 720;

/// Steps of the SLA and QoS series: the fractional parts of √2 and √3.
const SQRT2_FRACT: f64 = 0.414_213_562_373_095;
const SQRT3_FRACT: f64 = 0.732_050_807_568_877;

/// The scenario: a 12-hour day on a 40-NIC BF-2 fleet whose tenants run
/// one of 16 traffic templates. `seed` drives only the trace.
pub fn day_config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::small(seed);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 40)];
    cfg.duration_s = 12 * 3_600;
    cfg.mean_lifetime_s = 2.0 * 3_600.0;
    cfg.audit_period_s = 1_800;
    cfg.kinds = KINDS.to_vec();
    cfg.guaranteed_fraction = 0.7;
    // Constant traffic per tenant: profiles key onto template buckets.
    cfg.drift = false;
    cfg.traffic_model = TrafficModel::Templates {
        count: 16,
        jitter: cfg.reprofile_threshold / 4.0,
    };
    cfg
}

/// The day's trace. The template catalog is the operator's and fixed
/// (drawn from [`crate::MODEL_SEED`]); the seed picks the tenants. Like
/// the diurnal day, the cost drivers are stratified: arrivals one per
/// minute slot, kinds in rotation, every template used equally often in
/// a seeded order, lifetimes from a golden-ratio series of exponential
/// quantiles, SLAs and QoS classes from two more low-discrepancy series
/// (steps incommensurate with the golden ratio's, so the three do not
/// move in lockstep). Jitter and in-slot offsets are random.
pub fn day_trace(seed: u64) -> FleetTrace {
    let cfg = day_config(seed);
    let catalog = day_config(crate::MODEL_SEED).traffic_templates();
    let TrafficModel::Templates { jitter, .. } = cfg.traffic_model else {
        unreachable!("the day is templated")
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDA7_0000);
    let (u_life, u_sla, u_qos, k0): (f64, f64, f64, u32) =
        (rng.gen(), rng.gen(), rng.gen(), rng.gen_range(0..4));
    let (sla_lo, sla_hi) = cfg.sla_drop_range;
    let slot_ms = (cfg.duration_s * MS_PER_S) as f64 / ARRIVALS as f64;
    let mut order: Vec<usize> = (0..catalog.len()).collect();
    let records = (0..ARRIVALS)
        .map(|i| {
            let pos = i as usize % catalog.len();
            if pos == 0 {
                order.shuffle(&mut rng);
            }
            let t = catalog[order[pos]];
            let mut wiggle = |v: f64| v + rng.gen_range(-jitter..=jitter) * v.abs().max(1.0);
            let traffic = TrafficProfile::new(
                wiggle(t.flow_count as f64).round() as u32,
                wiggle(t.packet_size as f64).round() as u32,
                wiggle(t.mtbr),
            );
            let arrival_ms = ((i as f64 + rng.gen::<f64>()) * slot_ms) as u64;
            let life_s = -(1.0 - spread(u_life, i)).ln() * cfg.mean_lifetime_s;
            NfRecord {
                id: i,
                kind: KINDS[((i + k0) % 4) as usize],
                arrival_ms,
                departure_ms: arrival_ms + (life_s.max(60.0) * 1e3) as u64,
                start: traffic,
                end: traffic,
                sla_drop: sla_lo + (sla_hi - sla_lo) * (u_sla + i as f64 * SQRT2_FRACT).fract(),
                qos: if (u_qos + i as f64 * SQRT3_FRACT).fract() < cfg.guaranteed_fraction {
                    QosClass::Guaranteed
                } else {
                    QosClass::BestEffort
                },
            }
        })
        .collect();
    FleetTrace::from_records(cfg, records).expect("valid templated day")
}

/// The counting wrapper: delegates to a [`YalaPredictor`] and times
/// every call, so a traced day can attribute the predictor and refine
/// layers without touching the program.
struct Counting<'p> {
    inner: &'p mut YalaPredictor,
    predict_calls: u64,
    predict_s: f64,
    reevaluate_calls: u64,
    refine: RefineLayer,
}

impl PlacementPredictor for Counting<'_> {
    fn predict(&mut self, model: NicModelId, target: usize, residents: &[Placed]) -> f64 {
        let t = Instant::now();
        let v = self.inner.predict(model, target, residents);
        self.predict_s += t.elapsed().as_secs_f64();
        self.predict_calls += 1;
        v
    }

    // The trait's default body, counted: `YalaPredictor` keeps it.
    fn reevaluate(&mut self, model: NicModelId, residents: &[Placed]) -> Vec<usize> {
        self.reevaluate_calls += 1;
        (0..residents.len())
            .filter(|&i| self.predict(model, i, residents) < residents[i].sla_floor(model))
            .collect()
    }

    fn absorb(&mut self, buffer: &ObservationBuffer, engine: &Engine) -> usize {
        let t = Instant::now();
        let n = self.inner.absorb(buffer, engine);
        self.refine.record(t.elapsed().as_secs_f64(), n);
        n
    }
}

/// One day's timings, outputs and (when traced) layer counters.
struct Day {
    day_s: f64,
    build_s: f64,
    arrival_s: Vec<f64>,
    departure_s: f64,
    audit_s: Vec<f64>,
    events: u64,
    encode_s: f64,
    verify_s: f64,
    verified: Result<(), String>,
    digest: Digest,
    arrivals: u64,
    rejected: u64,
    migrations: u64,
    violation_rate: f64,
    nic_minutes: f64,
    journal_events: u64,
    journal_bytes: u64,
    journal_dropped: u64,
    mape: (f64, u64),
    cache: yala_core::profile_cache::CacheStats,
    /// Distinct (kind, measured traffic) snapshots: the misses to probe.
    measured: Vec<Placed>,
    predict_calls: u64,
    predict_s: f64,
    reevaluate_calls: u64,
    refine: RefineLayer,
}

/// Runs one day from the generated trace: build, event loop, report and
/// journal are timed as `day_s`; verification and the held-out check
/// are not.
fn run_day(
    trace: &FleetTrace,
    bank: &ModelBank<yala_core::YalaModel>,
    held: &HeldOut,
    traced: bool,
    engine: &Engine,
) -> Day {
    let trace = trace.clone();
    let mut predictor = YalaPredictor::new(bank);
    let mut counting = None;
    let mut tel = Telemetry::enabled();
    let cache = ProfileCache::new();
    let mut arrival_s = Vec::new();
    let (mut departure_s, mut audit_s, mut events) = (0.0, Vec::new(), 0u64);

    let t_day = Instant::now();
    let profiled = ProfiledTrace::build_cached_with_observed(trace, engine, &cache, &mut tel);
    let build_s = t_day.elapsed().as_secs_f64();
    let judge: &mut dyn PlacementPredictor = if traced {
        counting.insert(Counting {
            inner: &mut predictor,
            predict_calls: 0,
            predict_s: 0.0,
            reevaluate_calls: 0,
            refine: RefineLayer::default(),
        })
    } else {
        &mut predictor
    };
    let policy = FleetPolicy::ContentionAware {
        predictor: judge,
        diagnoser: Diagnoser::Yala(bank),
        online: Some(OnlineRefine::default()),
        qos_aware: true,
    };
    let mut sim = FleetSim::new(&profiled, policy, "yala-online");
    loop {
        let t = Instant::now();
        let Some(step) = sim.step(engine, &mut tel) else {
            break;
        };
        let s = t.elapsed().as_secs_f64();
        events += 1;
        match step {
            Processed::Arrival(_) => arrival_s.push(s),
            Processed::Departure(_) => departure_s += s,
            Processed::Audit(_) => audit_s.push(s),
            Processed::Fault(_) => {}
        }
    }
    let report = sim.into_report();
    let t = Instant::now();
    let sink = tel.sink().expect("telemetry enabled");
    let jsonl = sink.journal.to_jsonl();
    let encode_s = t.elapsed().as_secs_f64();
    let report_json = report.to_json();
    let day_s = t_day.elapsed().as_secs_f64();

    let t = Instant::now();
    let verified = verify_against(&report, &sink.journal).map(|_| ());
    let verify_s = t.elapsed().as_secs_f64();
    let mut digest = Digest::default();
    digest.line(report_json.as_bytes());
    digest.line(jsonl.as_bytes());
    let mut seen = HashSet::new();
    let measured = profiled
        .timelines
        .iter()
        .flat_map(|tl| tl.snapshots.iter().map(|(_, p)| p))
        .filter(|p| {
            let t = p.arrival.traffic;
            seen.insert((
                p.arrival.kind,
                t.flow_count,
                t.packet_size,
                t.mtbr.to_bits(),
            ))
        })
        .cloned()
        .collect();
    let (predict_calls, predict_s, reevaluate_calls, refine) = match counting {
        Some(c) => (c.predict_calls, c.predict_s, c.reevaluate_calls, c.refine),
        None => (0, 0.0, 0, RefineLayer::default()),
    };
    let mape = held.mape_pct(&mut predictor);
    Day {
        day_s,
        build_s,
        arrival_s,
        departure_s,
        audit_s,
        events,
        encode_s,
        verify_s,
        verified,
        digest,
        arrivals: report.total_arrivals as u64,
        rejected: report.rejected as u64,
        migrations: report.migrations as u64,
        violation_rate: report.violation_rate(),
        nic_minutes: report.nic_minutes,
        journal_events: sink.journal.len() as u64,
        journal_bytes: jsonl.len() as u64,
        journal_dropped: sink.journal.dropped(),
        mape,
        cache: cache.stats(),
        measured,
        predict_calls,
        predict_s,
        reevaluate_calls,
        refine,
    }
}

/// Runs days until `seconds` have passed (at least [`MIN_DAYS`]).
fn run_days(
    trace: &FleetTrace,
    bank: &ModelBank<yala_core::YalaModel>,
    held: &HeldOut,
    traced: bool,
    seconds: f64,
    engine: &Engine,
) -> Vec<Day> {
    let t = Instant::now();
    let mut days = Vec::new();
    while days.len() < MIN_DAYS || t.elapsed().as_secs_f64() < seconds {
        days.push(run_day(trace, bank, held, traced, engine));
    }
    days
}

/// Checks every day verified and every day produced the same report,
/// journal and held-out score as the first.
fn check_days(out: &mut Outcome, days: &[Day], reference: &Day) {
    for (i, d) in days.iter().enumerate() {
        if let Err(e) = &d.verified {
            out.problems
                .push(format!("day {i}: journal replay diverged: {e}"));
        }
        out.check(d.digest == reference.digest, || {
            format!(
                "day {i}: report digest {} != {}",
                d.digest.hex(),
                reference.digest.hex()
            )
        });
        out.check(d.mape == reference.mape, || {
            format!("day {i}: held-out score changed")
        });
        out.attempted += d.events;
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool, engine: &Engine) -> Outcome {
    let t = Instant::now();
    let trace = day_trace(seed);
    let gen_s = t.elapsed().as_secs_f64();
    let cfg = trace.config.clone();
    let train = TrainConfig {
        seed: crate::MODEL_SEED,
        ..TrainConfig::default()
    };
    let mut setups = Vec::new();
    let mut bank = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        bank = Some(ModelBank::train_yala(
            &cfg.specs(),
            cfg.noise_sigma,
            &cfg.kinds,
            &train,
            engine,
        ));
        setups.push(t.elapsed().as_secs_f64());
    }
    let bank = bank.expect("trained at least once");
    let mut coruns = CoRuns::default();
    let held = HeldOut::build(&cfg, &mut coruns);

    let mut out = Outcome::default();
    let plain = run_days(&trace, &bank, &held, false, seconds, engine);
    let first = &plain[0];
    check_days(&mut out, &plain, first);
    out.check(first.arrivals == trace.records.len() as u64, || {
        format!(
            "report counts {} arrivals of {}",
            first.arrivals,
            trace.records.len()
        )
    });
    eprintln!(
        "fleet_day: {} NICs, {} arrivals, {} events, {} days, digest {}",
        cfg.nics(),
        first.arrivals,
        first.events,
        plain.len(),
        first.digest.hex()
    );
    let day_s = stats::fastest(plain.iter().map(|d| d.day_s));
    if !traced {
        // Every day makes the same decisions; each one's latency is the
        // fastest of its repeats, which drops the stalls a busy host
        // puts into some days and not others.
        let arrivals_ms = stats::sorted(
            (0..first.arrival_s.len())
                .map(|i| stats::fastest(plain.iter().map(|d| 1e3 * d.arrival_s[i])))
                .collect(),
        );
        let n = arrivals_ms.len() as u64;
        out.set(
            "setup_s",
            stats::median(&stats::sorted(setups)),
            "s",
            SETUPS as u64,
        );
        out.set("place_p50_ms", stats::median(&arrivals_ms), "ms", n);
        match stats::tail(&arrivals_ms) {
            Some((v, _)) => out.set("place_p99_ms", v, "ms", n),
            None => out
                .problems
                .push(format!("{n} arrivals: too few for a tail")),
        }
        out.set(
            "serve_capacity_rps",
            first.events as f64 / day_s,
            "1/s",
            first.events,
        );
        out.set(
            "admit_rate",
            (first.arrivals - first.rejected) as f64 / first.arrivals as f64,
            "ratio",
            first.arrivals,
        );
        out.set("day_s", day_s, "s", plain.len() as u64);
        out.set("predict_mape_pct", first.mape.0, "%", first.mape.1);
        eprintln!(
            "  sla_violation_rate {} nic_minutes {} (deterministic)",
            first.violation_rate, first.nic_minutes
        );
        crate::memo_digest(&mut out, "fleet_day", seed, 0.0, first.digest);
        return out;
    }

    // Traced: the counting wrapper must leave every output unchanged.
    let traced_days = run_days(&trace, &bank, &held, true, seconds, engine);
    check_days(&mut out, &traced_days, first);
    let d = &traced_days[0];
    let traced_s = stats::fastest(traced_days.iter().map(|d| d.day_s));
    let mut layers = Layers::default();
    layers.set("trace.overhead_frac", traced_s / day_s - 1.0);
    layers.set("fleet.gen_s", gen_s);
    layers.set("fleet.build_s", d.build_s);
    layers.set("fleet.events", d.events as f64);
    let arrival_us = stats::sorted(d.arrival_s.iter().map(|s| 1e6 * s).collect());
    layers.set("fleet.arrival_busy_s", d.arrival_s.iter().sum());
    layers.set("fleet.arrival_us_p50", stats::median(&arrival_us));
    layers.set("fleet.arrival_us_p99", stats::tail_or_max(&arrival_us));
    layers.set("fleet.departure_busy_s", d.departure_s);
    layers.set("fleet.audit_busy_s", d.audit_s.iter().sum());
    layers.set(
        "fleet.audit_s_p50",
        stats::median(&stats::sorted(d.audit_s.clone())),
    );
    layers.set("fleet.rejected", d.rejected as f64);
    layers.set("fleet.migrations", d.migrations as f64);
    layers.set("fleet.sla_violation_rate", d.violation_rate);
    layers.set("fleet.nic_minutes", d.nic_minutes);
    layers.set("predict.calls", d.predict_calls as f64);
    layers.set("predict.busy_s", d.predict_s);
    layers.set(
        "predict.calls_per_arrival",
        d.predict_calls as f64 / d.arrivals as f64,
    );
    layers.set("reevaluate.calls", d.reevaluate_calls as f64);
    layers.refine(&d.refine);
    layers.set("journal.events", d.journal_events as f64);
    layers.set("journal.bytes", d.journal_bytes as f64);
    layers.set("journal.dropped", d.journal_dropped as f64);
    layers.set("journal.encode_s", d.encode_s);
    layers.set("replay.verify_s", d.verify_s);
    layers.set("sim.corun_calls", coruns.calls as f64);
    layers.set("sim.corun_busy_s", coruns.busy_s);
    // Re-measure each distinct snapshot through the layer probe; the
    // cache's own counters give lookups and hits.
    let mut probe = ProfileLayers::default();
    for p in &d.measured {
        let t = p.arrival.traffic;
        let key_seed = seed ^ ((t.flow_count as u64) << 20) ^ t.mtbr.to_bits();
        probe.probe(&cfg.specs(), cfg.noise_sigma, p.arrival.kind, t, key_seed);
    }
    out.check(probe.miss_s.len() as u64 == d.cache.misses, || {
        format!(
            "{} distinct snapshots but {} cache misses",
            probe.miss_s.len(),
            d.cache.misses
        )
    });
    layers.profile(d.cache.lookups, &probe);
    layers.fill(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_trace_is_a_pure_function_of_the_seed() {
        let fingerprint = |t: &FleetTrace| -> Vec<String> {
            t.records.iter().map(|r| format!("{r:?}")).collect()
        };
        let a = day_trace(5);
        assert_eq!(fingerprint(&a), fingerprint(&day_trace(5)));
        assert_ne!(fingerprint(&a), fingerprint(&day_trace(6)));
        assert_eq!(a.records.len(), ARRIVALS as usize);
        // The template catalog is fixed: every seed's tenants land on
        // the same 16 templates, modulo in-bucket jitter.
        let catalog = day_config(crate::MODEL_SEED).traffic_templates();
        for r in &day_trace(7).records {
            let near = |t: &TrafficProfile| t.relative_change(&r.start) <= 0.025 + 0.01;
            assert!(catalog.iter().any(near), "{:?} is off-catalog", r.start);
        }
    }
}
