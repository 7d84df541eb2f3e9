//! The serving workloads: an in-process [`ServeLoop`] fed a seeded wire
//! stream open-loop, each request timed from when it was due.
//!
//! * `serve_diurnal` — yala-online on 24 BF-2 NICs, the wire form of
//!   [`FleetTrace::diurnal`] days (place, query, drift, depart, fault
//!   fail/recover, observe, absorb). Flows span 1k–128k, so every
//!   profile lookup misses: profiling dominates.
//! * `serve_dense` — frozen yala on 400 BF-2 NICs held near full by
//!   churn (each place paired with a departure). Flows are 1k–4k, so a
//!   miss is cheap and the candidate scan plus predictor calls dominate.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use yala_core::{Engine, ModelBank, QosClass, TrainConfig};
use yala_fleet::{FaultKind, FaultPlan, FleetConfig, FleetTrace, NfRecord, MS_PER_S};
use yala_nf::NfKind;
use yala_placement::YalaPredictor;
use yala_serve::ServeLoop;
use yala_sim::NicSpec;
use yala_telemetry::journal::FieldValue;
use yala_telemetry::parse_line;
use yala_traffic::TrafficProfile;

use crate::heldout::HeldOut;
use crate::probe::{ProfileLayers, RefineLayer};
use crate::stats::{self, Digest, Outcome};
use crate::Layers;

/// NF kinds both serving workloads draw from.
pub const KINDS: [NfKind; 4] = [NfKind::FlowStats, NfKind::Acl, NfKind::Nat, NfKind::Nids];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// A run whose queue holds more than this many due requests when the
/// last one falls due has a growing backlog and is marked incorrect.
const BACKLOG_LIMIT: usize = 10;

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Diurnal,
    Dense,
}

impl Shape {
    pub fn name(self) -> &'static str {
        match self {
            Shape::Diurnal => "serve_diurnal",
            Shape::Dense => "serve_dense",
        }
    }

    fn policy(self) -> &'static str {
        match self {
            Shape::Diurnal => "yala-online",
            Shape::Dense => "yala",
        }
    }
}

/// Wire operations the streams send.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Op {
    Place,
    Query,
    Drift,
    Depart,
    Fault,
    Observe,
    Absorb,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Place => "place",
            Op::Query => "query",
            Op::Drift => "drift",
            Op::Depart => "depart",
            Op::Fault => "fault",
            Op::Observe => "observe",
            Op::Absorb => "absorb",
        }
    }
}

/// A request that profiles: the key fields of the daemon's exact-mode
/// profile cache (kind, traffic, per-instance workload seed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Profiled {
    kind: NfKind,
    traffic: TrafficProfile,
    seed: u64,
}

/// One scheduled wire request.
#[derive(Debug, Clone)]
pub struct Msg {
    /// When the request is due, seconds after the timed window opens.
    pub at_s: f64,
    pub op: Op,
    /// Instance id (place/drift/depart), NIC (fault), else 0.
    pub id: u32,
    pub profiled: Option<Profiled>,
    pub line: String,
}

impl Msg {
    fn new(op: Op, id: u32, profiled: Option<Profiled>, line: String) -> Self {
        Self {
            at_s: 0.0,
            op,
            id,
            profiled,
            line,
        }
    }
}

/// A workload's full input: the daemon config and its request stream.
pub struct Stream {
    pub cfg: FleetConfig,
    /// Requests sent back to back before the timed window (fleet fill).
    pub prefill: Vec<Msg>,
    /// Requests sent open-loop at their due times.
    pub timed: Vec<Msg>,
}

fn place_msg(id: u32, cfg_seed: u64, r: &NfRecord) -> Msg {
    let t = r.start;
    Msg::new(
        Op::Place,
        id,
        Some(Profiled {
            kind: r.kind,
            traffic: t,
            seed: cfg_seed.wrapping_add(id as u64),
        }),
        format!(
            "{{\"op\":\"place\",\"id\":{id},\"kind\":\"{}\",\"qos\":\"{}\",\"flows\":{},\
             \"psize\":{},\"mtbr\":{},\"sla_drop\":{}}}",
            r.kind.name(),
            r.qos.name(),
            t.flow_count,
            t.packet_size,
            t.mtbr,
            r.sla_drop
        ),
    )
}

fn depart_msg(id: u32) -> Msg {
    Msg::new(
        Op::Depart,
        id,
        None,
        format!("{{\"op\":\"depart\",\"id\":{id}}}"),
    )
}

/// Tenants per diurnal day and the day's compressed wall length: a day
/// averages ~20 requests per second against the ~130 per busy second the
/// daemon serves on a 2-vCPU x86 VM, so even the 1.8x diurnal peak keeps
/// it under a third busy. At 180 tenants a day, waits behind large
/// profiles set much of the median and it spread by a fifth across seeds.
const DIURNAL_RECORDS_PER_DAY: u32 = 120;
const DIURNAL_DAY_S: f64 = 20.0;

/// The simulated hour of the nightly absorb pass: the daemon refits on
/// the day's audit observations once, in the quiet evening, as operators
/// schedule maintenance, so the refit stall lands off-peak.
const ABSORB_HOUR: u64 = 23;

/// The `i`-th term of a golden-ratio series of fractions in [0, 1)
/// started at `u0`: low-discrepancy, so any window of it covers the
/// interval evenly.
pub fn spread(u0: f64, i: u32) -> f64 {
    (u0 + i as f64 * 0.618_033_988_749_895).fract()
}

/// The day fraction by which a share `x` of the day's arrivals has come,
/// under [`FleetTrace::diurnal`]'s intensity `0.2 + 1.6 sin²(πf)`, whose
/// integral is `f - 0.4 sin(2πf) / π`.
fn diurnal_time(x: f64) -> f64 {
    let cum = |f: f64| f - 0.4 * (2.0 * std::f64::consts::PI * f).sin() / std::f64::consts::PI;
    let (mut lo, mut hi) = (0.0, 1.0);
    for _ in 0..50 {
        let mid = 0.5 * (lo + hi);
        if cum(mid) < x {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    lo
}

/// One diurnal day of tenants: [`DIURNAL_RECORDS_PER_DAY`] arrivals at
/// stratified quantiles of the diurnal intensity, kinds in rotation, and
/// flow counts and lifetimes from seeded golden-ratio series. Packet
/// sizes, match rates, SLAs and QoS are drawn at random. Stratifying the
/// cost drivers keeps a run's few hundred misses from moving its medians
/// by which seed happened to draw the large flows or the busy morning.
fn diurnal_records(cfg: &FleetConfig, seed: u64, first_id: u32) -> Vec<NfRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (u_start, u_end, u_life): (f64, f64, f64) = (rng.gen(), rng.gen(), rng.gen());
    let k0: u32 = rng.gen_range(0..4);
    let day_ms = (cfg.duration_s * MS_PER_S) as f64;
    let flows = |u: f64, i: u32| 1_000 + (spread(u, i) * 127_000.0) as u32;
    (0..DIURNAL_RECORDS_PER_DAY)
        .map(|i| {
            let g = first_id + i;
            let x = (i as f64 + rng.gen::<f64>()) / DIURNAL_RECORDS_PER_DAY as f64;
            let arrival_ms = (diurnal_time(x) * day_ms) as u64;
            let life_s = -(1.0 - spread(u_life, g)).ln() * cfg.mean_lifetime_s;
            let mut traffic = |u: f64| {
                let t = TrafficProfile::random(&mut rng, cfg.max_flows);
                TrafficProfile::new(flows(u, g), t.packet_size, t.mtbr)
            };
            let (start, end) = (traffic(u_start), traffic(u_end));
            NfRecord {
                id: i,
                kind: KINDS[((g + k0) % 4) as usize],
                arrival_ms,
                departure_ms: arrival_ms + (life_s.max(60.0) * 1e3) as u64,
                start,
                end,
                sla_drop: rng.gen_range(cfg.sla_drop_range.0..cfg.sla_drop_range.1),
                qos: if rng.gen::<f64>() < cfg.guaranteed_fraction {
                    QosClass::Guaranteed
                } else {
                    QosClass::BestEffort
                },
            }
        })
        .collect()
}

/// `serve_diurnal`'s stream: consecutive diurnal days (one per
/// `DIURNAL_DAY_S` of run), each a fresh seeded trace, cut at `seconds`.
pub fn diurnal_stream(seed: u64, seconds: f64) -> Stream {
    let mut cfg = FleetConfig::small(crate::MODEL_SEED);
    cfg.portfolio = vec![(NicSpec::bluefield2(), 24)];
    cfg.duration_s = 24 * 3_600;
    cfg.mean_lifetime_s = 3.0 * 3_600.0;
    cfg.kinds = KINDS.to_vec();
    cfg.guaranteed_fraction = 0.7;
    cfg.faults = FaultPlan {
        mtbf_s: 24.0 * 86_400.0 / 3.0,
        mean_repair_s: 2.0 * 3_600.0,
        ..FaultPlan::none()
    };
    let day_ms = (cfg.duration_s * MS_PER_S) as f64;
    let days = (seconds / DIURNAL_DAY_S).ceil().max(1.0) as u64;
    let mut timed: Vec<(u64, Msg)> = Vec::new();
    for day in 0..days {
        let mut day_cfg = cfg.clone();
        day_cfg.seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(day);
        let first_id = day as u32 * DIURNAL_RECORDS_PER_DAY;
        let mut records = diurnal_records(&day_cfg, day_cfg.seed, first_id);
        records.sort_by_key(|r| r.arrival_ms);
        for (i, r) in records.iter_mut().enumerate() {
            r.id = i as u32;
        }
        let trace = FleetTrace::from_records(day_cfg, records).expect("valid diurnal day");
        let base_ms = day * cfg.duration_s * MS_PER_S;
        let mut push = |t_ms: u64, m: Msg| timed.push((base_ms + t_ms, m));
        for r in &trace.records {
            let id = first_id + r.id;
            push(r.arrival_ms, place_msg(id, cfg.seed, r));
            // One operator "would this fit" probe per four arrivals.
            if id.is_multiple_of(4) {
                let t = r.start;
                push(
                    r.arrival_ms,
                    Msg::new(
                        Op::Query,
                        0,
                        Some(Profiled {
                            kind: r.kind,
                            traffic: t,
                            seed: cfg.seed.wrapping_add(u32::MAX as u64),
                        }),
                        format!(
                            "{{\"op\":\"query\",\"kind\":\"{}\",\"flows\":{},\"psize\":{},\
                             \"mtbr\":{},\"sla_drop\":{}}}",
                            r.kind.name(),
                            t.flow_count,
                            t.packet_size,
                            t.mtbr,
                            r.sla_drop
                        ),
                    ),
                );
            }
            // Tenants living two hours or more drift at mid-life and
            // report one audit observation an hour in, echoing their
            // traffic with a deterministic measured-throughput dent.
            let life = r.departure_ms - r.arrival_ms;
            if life >= 2 * 3_600 * MS_PER_S {
                let mid = r.arrival_ms + life / 2;
                let t = r.traffic_at(mid);
                push(
                    mid,
                    Msg::new(
                        Op::Drift,
                        id,
                        Some(Profiled {
                            kind: r.kind,
                            traffic: t,
                            seed: cfg.seed.wrapping_add(id as u64),
                        }),
                        format!(
                            "{{\"op\":\"drift\",\"id\":{id},\"flows\":{},\"psize\":{},\
                             \"mtbr\":{}}}",
                            t.flow_count, t.packet_size, t.mtbr
                        ),
                    ),
                );
                let at = r.arrival_ms + 3_600 * MS_PER_S;
                let t = r.traffic_at(at);
                let solo = 1.0e7;
                let measured = solo * (1.0 - 0.3 * (id % 4) as f64 / 4.0);
                push(
                    at,
                    Msg::new(
                        Op::Observe,
                        0,
                        None,
                        format!(
                            "{{\"op\":\"observe\",\"model\":\"bluefield2\",\"kind\":\"{}\",\
                             \"flows\":{},\"psize\":{},\"mtbr\":{},\"ipc\":1.1,\"irt\":9.0e8,\
                             \"l2crd\":1.0e7,\"l2cwr\":2.0e6,\"memrd\":3.0e6,\"memwr\":1.0e6,\
                             \"wss\":5.0e7,\"press\":\"\",\"solo\":{solo},\"measured\":{measured}}}",
                            r.kind.name(),
                            t.flow_count,
                            t.packet_size,
                            t.mtbr,
                        ),
                    ),
                );
            }
            push(r.departure_ms, depart_msg(id));
        }
        for f in &trace.faults {
            let kind = match f.kind {
                FaultKind::Fail => "fail",
                FaultKind::Recover => "recover",
                FaultKind::DrainStart | FaultKind::DrainEnd => continue,
            };
            push(
                f.t_ms,
                Msg::new(
                    Op::Fault,
                    f.nic as u32,
                    None,
                    format!("{{\"op\":\"fault\",\"nic\":{},\"kind\":\"{kind}\"}}", f.nic),
                ),
            );
        }
        push(
            ABSORB_HOUR * 3_600 * MS_PER_S,
            Msg::new(Op::Absorb, 0, None, "{\"op\":\"absorb\"}".to_string()),
        );
    }
    // Stable sort keeps each record's place before its query.
    timed.sort_by_key(|(t, _)| *t);
    let timed = timed
        .into_iter()
        .map(|(t_ms, mut m)| {
            m.at_s = t_ms as f64 / day_ms * DIURNAL_DAY_S;
            m
        })
        .filter(|m| m.at_s < seconds)
        .collect();
    Stream {
        cfg,
        prefill: Vec::new(),
        timed,
    }
}

/// The dense fleet, the tenants placed before timing starts, and the
/// churn rate (requests per second, a departure and a place per step).
const DENSE_NICS: usize = 400;
const DENSE_PREFILL: usize = 1_280;
const DENSE_RATE: f64 = 200.0;

/// `serve_dense`'s stream: a prefill that packs the fleet, then churn at
/// [`DENSE_RATE`]: each step departs a random live tenant and places a
/// new one, so occupancy stays level.
pub fn dense_stream(seed: u64, seconds: f64) -> Stream {
    let mut cfg = FleetConfig::small(crate::MODEL_SEED);
    cfg.portfolio = vec![(NicSpec::bluefield2(), DENSE_NICS)];
    cfg.kinds = KINDS.to_vec();
    cfg.max_flows = 4_000;
    cfg.guaranteed_fraction = 0.7;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD3E5_E000);
    let mut record = |id: u32| NfRecord {
        id,
        kind: *KINDS.choose(&mut rng).expect("kinds"),
        arrival_ms: 0,
        departure_ms: 1,
        start: TrafficProfile::random(&mut rng, cfg.max_flows),
        end: TrafficProfile::random(&mut rng, cfg.max_flows),
        sla_drop: rng.gen_range(cfg.sla_drop_range.0..cfg.sla_drop_range.1),
        qos: if rng.gen::<f64>() < cfg.guaranteed_fraction {
            QosClass::Guaranteed
        } else {
            QosClass::BestEffort
        },
    };
    let prefill: Vec<Msg> = (0..DENSE_PREFILL as u32)
        .map(|id| place_msg(id, cfg.seed, &record(id)))
        .collect();
    let steps = (seconds * DENSE_RATE / 2.0).ceil() as u32;
    let mut live: Vec<u32> = (0..DENSE_PREFILL as u32).collect();
    let mut pick = StdRng::seed_from_u64(seed ^ 0xC4A2_0000);
    let mut timed = Vec::with_capacity(2 * steps as usize);
    let gap = 1.0 / DENSE_RATE;
    for s in 0..steps {
        let at = 2.0 * s as f64 * gap;
        let slot = pick.gen_range(0..live.len());
        let mut depart = depart_msg(live[slot]);
        depart.at_s = at;
        timed.push(depart);
        let id = DENSE_PREFILL as u32 + s;
        let mut place = place_msg(id, cfg.seed, &record(id));
        place.at_s = at + gap;
        timed.push(place);
        live[slot] = id;
    }
    Stream {
        cfg,
        prefill,
        timed,
    }
}

/// Reply accounting: tallies decisions from replies and classifies
/// `ok:false` replies as expected (a tenant that was rejected or shed
/// no longer exists) or failed.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub expected_errors: u64,
    pub admissions: u64,
    pub rejections: u64,
    pub departures: u64,
    pub queries: u64,
    pub observations: u64,
    pub absorb_passes: u64,
    pub absorbed: u64,
    pub evictions: u64,
    pub sheds: u64,
    /// Admitted and not departed, as far as the replies tell.
    live: HashSet<u32>,
    /// Rejected or (claimed as) shed: gone from the daemon.
    gone: HashSet<u32>,
    /// Sheds reported by fault replies not yet matched to a tenant.
    unclaimed_sheds: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: &Msg, reply: &str) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(format!("{} -> {reply}", msg.line));
        }
    }

    /// Accounts one request's reply; `nics` bounds NIC indices. Returns
    /// whether the reply was `ok:true` and consistent.
    pub fn account(&mut self, msg: &Msg, reply: &str, nics: usize) -> bool {
        self.attempted += 1;
        let Some(ev) = parse_line(reply) else {
            self.fail(msg, reply);
            return false;
        };
        let ok = matches!(ev.get("ok"), Some(FieldValue::Bool(true)));
        let nic_ok = |n: Option<i64>| matches!(n, Some(n) if (-1..nics as i64).contains(&n));
        if !ok {
            let expected = reply.contains("no instance")
                && matches!(msg.op, Op::Depart | Op::Drift)
                && (self.gone.contains(&msg.id)
                    || (self.unclaimed_sheds > 0 && self.live.contains(&msg.id)));
            if expected {
                if self.live.remove(&msg.id) {
                    self.unclaimed_sheds -= 1;
                    self.gone.insert(msg.id);
                }
                self.expected_errors += 1;
            } else {
                self.fail(msg, reply);
            }
            return false;
        }
        let good = match msg.op {
            Op::Place => match ev.int("nic") {
                Some(-1) => {
                    self.rejections += 1;
                    self.gone.insert(msg.id);
                    true
                }
                n if nic_ok(n) => {
                    self.admissions += 1;
                    self.live.insert(msg.id);
                    true
                }
                _ => false,
            },
            Op::Query => {
                self.queries += 1;
                nic_ok(ev.int("nic"))
            }
            Op::Drift => nic_ok(ev.int("nic")),
            Op::Depart => {
                self.departures += 1;
                self.live.remove(&msg.id) && nic_ok(ev.int("nic"))
            }
            Op::Fault => {
                let shed = ev.int("shed").unwrap_or(0).max(0) as u64;
                self.evictions += ev.int("evicted").unwrap_or(0).max(0) as u64;
                self.sheds += shed;
                self.unclaimed_sheds += shed;
                true
            }
            Op::Observe => {
                self.observations += 1;
                true
            }
            Op::Absorb => {
                let n = ev.int("absorbed").unwrap_or(-1);
                if n > 0 {
                    self.absorb_passes += 1;
                    self.absorbed += n as u64;
                }
                n >= 0
            }
        };
        if !good {
            self.fail(msg, reply);
        }
        good
    }

    /// Compares the daemon's final `stats` reply with the tallies.
    pub fn check_stats(&self, stats: &str) -> Vec<String> {
        let Some(ev) = parse_line(stats) else {
            return vec![format!("unparseable stats reply {stats}")];
        };
        let active = self.live.len() as u64 - self.unclaimed_sheds;
        [
            ("admissions", self.admissions),
            ("rejections", self.rejections),
            ("departures", self.departures),
            ("queries", self.queries),
            ("observations", self.observations),
            ("absorb_passes", self.absorb_passes),
            ("absorbed", self.absorbed),
            ("evictions", self.evictions),
            ("sheds", self.sheds),
            ("active", active),
        ]
        .into_iter()
        .filter(|&(key, want)| ev.int(key) != Some(want as i64))
        .map(|(key, want)| format!("stats {key} = {:?}, replies say {want}", ev.int(key)))
        .collect()
    }
}

/// One served request: its op, whether it succeeded, and its due,
/// start and end times (seconds from the timed window's start).
#[derive(Debug, Clone, Copy)]
struct Span {
    op: Op,
    ok: bool,
    /// An absorb whose reply reports a refit.
    refit: bool,
    due: f64,
    start: f64,
    end: f64,
}

/// What one pass over the stream produced.
struct Pass {
    spans: Vec<Span>,
    /// `ok` per prefill request, in order.
    prefill_ok: Vec<bool>,
    prefill_s: f64,
    digest: Digest,
    tally: Tally,
    stats_problems: Vec<String>,
}

impl Pass {
    fn busy_s(&self) -> f64 {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }

    /// Sorted latencies of `op` in ms: from the due time, or service
    /// time only.
    fn ms(&self, op: Op, from_due: bool) -> Vec<f64> {
        stats::sorted(
            self.spans
                .iter()
                .filter(|s| s.op == op)
                .map(|s| 1e3 * (s.end - if from_due { s.due } else { s.start }))
                .collect(),
        )
    }

    /// Requests still queued when the last request fell due.
    fn backlog_end(&self) -> usize {
        let last_due = self.spans.last().map_or(0.0, |s| s.due);
        self.spans.iter().filter(|s| s.start > last_due).count()
    }

    /// Largest delay between a request's due time and its start while
    /// the daemon was idle: the generator's own lateness.
    fn late_ms_max(&self) -> f64 {
        let mut prev_end = f64::NEG_INFINITY;
        let mut late: f64 = 0.0;
        for s in &self.spans {
            if prev_end <= s.due {
                late = late.max(s.start - s.due);
            }
            prev_end = s.end;
        }
        1e3 * late
    }
}

/// Serves one request, turning a panic into a failed reply.
fn serve_one(daemon: &mut ServeLoop, line: &str, engine: &Engine) -> String {
    catch_unwind(AssertUnwindSafe(|| daemon.handle_line(line, engine)))
        .unwrap_or_else(|_| "<panicked>".to_string())
}

/// Spins until `due` seconds after `t0`. A sleeping thread on a shared
/// host can wake milliseconds late, and that lateness would land in the
/// latency of a request the daemon was idle for.
fn wait_until(t0: Instant, due: f64) {
    while t0.elapsed().as_secs_f64() < due {
        std::hint::spin_loop();
    }
}

/// Drives the stream through `daemon`: prefill back to back, then the
/// timed requests open-loop, then a final `stats`.
fn run_pass(daemon: &mut ServeLoop, engine: &Engine, stream: &Stream) -> Pass {
    let nics = stream.cfg.nics();
    let mut tally = Tally::default();
    let mut digest = Digest::default();
    let mut prefill_ok = Vec::with_capacity(stream.prefill.len());
    let t = Instant::now();
    for m in &stream.prefill {
        let reply = serve_one(daemon, &m.line, engine);
        digest.line(reply.as_bytes());
        prefill_ok.push(tally.account(m, &reply, nics));
    }
    let prefill_s = t.elapsed().as_secs_f64();
    let mut spans = Vec::with_capacity(stream.timed.len());
    let t0 = Instant::now();
    for m in &stream.timed {
        wait_until(t0, m.at_s);
        let start = t0.elapsed().as_secs_f64();
        let reply = serve_one(daemon, &m.line, engine);
        let end = t0.elapsed().as_secs_f64();
        digest.line(reply.as_bytes());
        let passes = tally.absorb_passes;
        let ok = tally.account(m, &reply, nics);
        spans.push(Span {
            op: m.op,
            ok,
            refit: tally.absorb_passes > passes,
            due: m.at_s,
            start,
            end,
        });
    }
    let stats = serve_one(daemon, "{\"op\":\"stats\"}", engine);
    digest.line(stats.as_bytes());
    tally.attempted += 1;
    let stats_problems = tally.check_stats(&stats);
    Pass {
        spans,
        prefill_ok,
        prefill_s,
        digest,
        tally,
        stats_problems,
    }
}

/// Builds the daemon [`SETUPS`] times (at least `keep`); returns the
/// median build time and the last `keep` daemons.
fn setup(cfg: &FleetConfig, policy: &str, engine: &Engine, keep: usize) -> (f64, Vec<ServeLoop>) {
    let mut times = Vec::new();
    let mut built = Vec::new();
    for _ in 0..SETUPS.max(keep) {
        let t = Instant::now();
        let daemon = ServeLoop::new(cfg, policy, engine).expect("serve loop builds");
        times.push(t.elapsed().as_secs_f64());
        built.push(daemon);
        if built.len() > keep {
            built.remove(0);
        }
    }
    (stats::median(&stats::sorted(times)), built)
}

/// Runs a serving workload and reports its end-to-end metrics (or, with
/// `traced`, its per-layer metrics).
pub fn run(shape: Shape, seed: u64, seconds: f64, traced: bool, engine: &Engine) -> Outcome {
    let t = Instant::now();
    let stream = match shape {
        Shape::Diurnal => diurnal_stream(seed, seconds),
        Shape::Dense => dense_stream(seed, seconds),
    };
    let gen_s = t.elapsed().as_secs_f64();
    let (setup_s, mut daemons) = setup(&stream.cfg, shape.policy(), engine, 1 + traced as usize);
    let mut out = Outcome::default();
    let first = run_pass(&mut daemons[0], engine, &stream);
    check_pass(&mut out, &first);
    out.attempted = first.tally.attempted;
    out.failed = first.tally.failed;
    eprintln!(
        "{}: {} NICs, policy {}, {} prefill requests in {:.2} s, {} timed at {:.0} req/s, \
         digest {}",
        shape.name(),
        stream.cfg.nics(),
        shape.policy(),
        stream.prefill.len(),
        first.prefill_s,
        stream.timed.len(),
        stream.timed.len() as f64 / seconds,
        first.digest.hex()
    );
    if !traced {
        let places = first.ms(Op::Place, true);
        let n = places.len() as u64;
        let placed = first.tally.admissions + first.tally.rejections;
        out.set("setup_s", setup_s, "s", SETUPS as u64);
        out.set("place_p50_ms", stats::median(&places), "ms", n);
        match stats::tail(&places) {
            Some((v, q)) => {
                eprintln!("  place tail reported at p{:.2} of {n} samples", 100.0 * q);
                out.set("place_p99_ms", v, "ms", n);
            }
            None => out
                .problems
                .push(format!("{n} place samples: too few for a tail")),
        }
        let busy = first.busy_s();
        let served = first.spans.len() as u64;
        out.set("serve_capacity_rps", served as f64 / busy, "1/s", served);
        out.set(
            "admit_rate",
            first.tally.admissions as f64 / placed.max(1) as f64,
            "ratio",
            placed,
        );
        out.set("day_s", busy, "s", served);
        // The daemon's bank is private; train the identical one (same
        // portfolio, kinds and seed) to score it on the held-out set.
        let bank = ModelBank::train_yala(
            &stream.cfg.specs(),
            stream.cfg.noise_sigma,
            &stream.cfg.kinds,
            &TrainConfig {
                seed: stream.cfg.seed,
                ..TrainConfig::default()
            },
            engine,
        );
        let held = HeldOut::build(&stream.cfg, &mut Default::default());
        let (mape, cases) = held.mape_pct(&mut YalaPredictor::new(&bank));
        out.set("predict_mape_pct", mape, "%", cases);
        crate::memo_digest(&mut out, shape.name(), seed, seconds, first.digest);
        return out;
    }

    // Traced: a second pass on a fresh daemon must reply byte for byte
    // the same; its spans and the layer probe give the split.
    let second = run_pass(&mut daemons[1], engine, &stream);
    check_pass(&mut out, &second);
    out.check(second.digest == first.digest, || {
        format!(
            "traced replies {} differ from untraced {}",
            second.digest.hex(),
            first.digest.hex()
        )
    });
    out.attempted += second.tally.attempted;
    out.failed += second.tally.failed;
    let mut layers = Layers::default();
    layers.set(
        "trace.overhead_frac",
        second.busy_s() / first.busy_s() - 1.0,
    );
    layers.set("fleet.gen_s", gen_s);
    trace_layers(&mut layers, &stream, &second);
    layers.fill(&mut out);
    out
}

fn check_pass(out: &mut Outcome, pass: &Pass) {
    out.problems.extend(pass.tally.failures.iter().cloned());
    out.problems.extend(pass.stats_problems.iter().cloned());
    let backlog = pass.backlog_end();
    out.check(backlog <= BACKLOG_LIMIT, || {
        format!("backlog grew: {backlog} requests queued at the last due time")
    });
}

/// The serving run's per-layer split: per-op service times from the
/// traced pass, and the profiling layers re-measured by the probe for
/// every lookup that missed the daemon's exact-keyed cache.
fn trace_layers(layers: &mut Layers, stream: &Stream, pass: &Pass) {
    let t = &pass.tally;
    layers.set("serve.requests", t.attempted as f64);
    layers.set("serve.errors", (t.failed + t.expected_errors) as f64);
    for op in [Op::Place, Op::Query, Op::Drift, Op::Fault, Op::Absorb] {
        let ms = pass.ms(op, false);
        layers.set(&format!("serve.{}.ms_p50", op.name()), stats::median(&ms));
        layers.set(
            &format!("serve.{}.ms_p99", op.name()),
            stats::tail_or_max(&ms),
        );
    }
    let waits = stats::sorted(
        pass.spans
            .iter()
            .map(|s| 1e3 * (s.start - s.due).max(0.0))
            .collect(),
    );
    layers.set("serve.queue_wait_ms_p99", stats::tail_or_max(&waits));
    layers.set("gen.late_ms_max", pass.late_ms_max());
    layers.set("gen.backlog_end", pass.backlog_end() as f64);

    let mut refine = RefineLayer::default();
    for s in pass.spans.iter().filter(|s| s.refit) {
        refine.pass_s.push(s.end - s.start);
    }
    refine.observations = t.absorbed;
    layers.refine(&refine);

    // Probe every successful profiling request in stream order against
    // a shadow of the daemon's exact-keyed cache.
    let specs = stream.cfg.specs();
    let mut probe = ProfileLayers::default();
    let mut seen = HashSet::new();
    let mut lookups = 0u64;
    let mut self_ms = Vec::new();
    let mut parse_us = Vec::new();
    let oks = pass
        .prefill_ok
        .iter()
        .copied()
        .chain(pass.spans.iter().map(|s| s.ok));
    let services = std::iter::repeat_n(None, stream.prefill.len())
        .chain(pass.spans.iter().map(|s| Some(s.end - s.start)));
    let msgs = stream.prefill.iter().chain(&stream.timed);
    for ((m, ok), service) in msgs.zip(oks).zip(services) {
        let t = Instant::now();
        std::hint::black_box(parse_line(&m.line));
        parse_us.push(1e6 * t.elapsed().as_secs_f64());
        let (Some(p), true) = (m.profiled, ok) else {
            continue;
        };
        lookups += 1;
        let key = (
            p.kind,
            p.traffic.flow_count,
            p.traffic.packet_size,
            p.traffic.mtbr.to_bits(),
            p.seed,
        );
        let miss_s = if seen.insert(key) {
            probe.probe(&specs, stream.cfg.noise_sigma, p.kind, p.traffic, p.seed);
            *probe.miss_s.last().expect("probe recorded a miss")
        } else {
            0.0
        };
        if let (Op::Place, Some(service)) = (m.op, service) {
            self_ms.push(1e3 * (service - miss_s).max(0.0));
        }
    }
    layers.set(
        "serve.place.self_ms_p50",
        stats::median(&stats::sorted(self_ms)),
    );
    layers.set("wire.parse_us_p50", stats::median(&stats::sorted(parse_us)));
    layers.profile(lookups, &probe);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn count_ops(msgs: &[Msg]) -> BTreeMap<Op, usize> {
        let mut by = BTreeMap::new();
        for m in msgs {
            *by.entry(m.op).or_insert(0) += 1;
        }
        by
    }

    fn lines(s: &Stream) -> Vec<(String, u64)> {
        s.prefill
            .iter()
            .chain(&s.timed)
            .map(|m| (m.line.clone(), m.at_s.to_bits()))
            .collect()
    }

    #[test]
    fn streams_are_pure_functions_of_the_seed() {
        for gen in [diurnal_stream, dense_stream] {
            let a = gen(7, 4.0);
            let b = gen(7, 4.0);
            assert_eq!(lines(&a), lines(&b));
            assert_eq!(a.cfg.seed, b.cfg.seed);
            assert_ne!(lines(&a), lines(&gen(8, 4.0)), "seeds must matter");
        }
    }

    #[test]
    fn diurnal_stream_carries_every_op_and_stays_in_the_window() {
        let s = diurnal_stream(3, 2.0 * DIURNAL_DAY_S);
        let ops = count_ops(&s.timed);
        for op in [
            Op::Place,
            Op::Query,
            Op::Drift,
            Op::Depart,
            Op::Observe,
            Op::Absorb,
        ] {
            assert!(
                ops.get(&op).copied().unwrap_or(0) > 0,
                "{op:?} missing: {ops:?}"
            );
        }
        assert!(s.timed.iter().all(|m| m.at_s < 2.0 * DIURNAL_DAY_S));
        assert!(s.timed.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        let flows: Vec<u32> = s
            .timed
            .iter()
            .filter(|m| m.op == Op::Place)
            .map(|m| m.profiled.expect("places profile").traffic.flow_count)
            .collect();
        assert!(flows.iter().all(|f| (1_000..=128_000).contains(f)));
    }

    #[test]
    fn dense_stream_keeps_occupancy_level() {
        let s = dense_stream(5, 1.0);
        let ops = count_ops(&s.timed);
        assert_eq!(ops[&Op::Place], ops[&Op::Depart]);
        assert_eq!(s.prefill.len(), DENSE_PREFILL);
        assert!(s
            .timed
            .iter()
            .all(|m| m.profiled.is_none_or(|p| p.traffic.flow_count <= 4_000)));
    }

    fn msg(op: Op, id: u32) -> Msg {
        Msg::new(
            op,
            id,
            None,
            format!("{{\"op\":\"{}\",\"id\":{id}}}", op.name()),
        )
    }

    fn place_reply(id: u32, nic: i64) -> String {
        format!("{{\"ok\":true,\"op\":\"place\",\"id\":{id},\"nic\":{nic}}}")
    }

    fn missing(id: u32) -> String {
        format!("{{\"ok\":false,\"error\":\"no instance {id}\"}}")
    }

    #[test]
    fn expected_errors_are_not_failures() {
        let mut t = Tally::default();
        // A rejected tenant's depart and drift fail by protocol.
        assert!(t.account(&msg(Op::Place, 1), &place_reply(1, -1), 4));
        assert!(!t.account(&msg(Op::Drift, 1), &missing(1), 4));
        assert!(!t.account(&msg(Op::Depart, 1), &missing(1), 4));
        assert_eq!((t.failed, t.expected_errors), (0, 2));
        // A shed tenant's depart is expected once per reported shed.
        assert!(t.account(&msg(Op::Place, 2), &place_reply(2, 0), 4));
        assert!(t.account(&msg(Op::Place, 3), &place_reply(3, 0), 4));
        let fault = "{\"ok\":true,\"op\":\"fault\",\"nic\":0,\"kind\":\"fail\",\
                     \"evicted\":2,\"replaced\":1,\"shed\":1}";
        assert!(t.account(&msg(Op::Fault, 0), fault, 4));
        assert!(!t.account(&msg(Op::Depart, 2), &missing(2), 4));
        assert_eq!((t.failed, t.expected_errors), (0, 3));
        // With no shed left to claim, a missing live tenant is a failure.
        assert!(!t.account(&msg(Op::Depart, 3), &missing(3), 4));
        assert_eq!(t.failed, 1);
        // So are unknown ids, other errors, out-of-range NICs and panics.
        assert!(!t.account(&msg(Op::Depart, 99), &missing(99), 4));
        assert!(!t.account(&msg(Op::Place, 4), "{\"ok\":false,\"error\":\"boom\"}", 4));
        assert!(!t.account(&msg(Op::Place, 5), &place_reply(5, 9), 4));
        assert!(!t.account(&msg(Op::Query, 0), "<panicked>", 4));
        assert_eq!(t.failed, 5);
        assert_eq!(t.attempted, 12);
    }

    #[test]
    fn stats_check_matches_tallies() {
        let mut t = Tally::default();
        t.account(&msg(Op::Place, 1), &place_reply(1, 0), 2);
        t.account(&msg(Op::Place, 2), &place_reply(2, -1), 2);
        let good = "{\"ok\":true,\"op\":\"stats\",\"admissions\":1,\"rejections\":1,\
                    \"departures\":0,\"queries\":0,\"observations\":0,\"absorb_passes\":0,\
                    \"absorbed\":0,\"evictions\":0,\"sheds\":0,\"active\":1,\"nics_up\":2,\
                    \"pending\":0}";
        assert!(t.check_stats(good).is_empty());
        let bad = good.replace("\"admissions\":1", "\"admissions\":2");
        assert_eq!(t.check_stats(&bad).len(), 1);
    }
}
