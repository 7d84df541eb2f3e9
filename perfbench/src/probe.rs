//! The layer probe: re-runs one profile measurement with a span around
//! each layer's public entry point, so a traced run can say where a
//! cache miss spends its time without instrumenting the program.
//!
//! `measure_entry` is the one body every profile miss runs (packet
//! synthesis → NF table warm-up → sampled packet replay → a simulator
//! solo run per NIC model). The probe times `measure_entry` whole, then
//! repeats its layers one by one on fresh state: [`PacketGenerator::new`]
//! (traffic), [`yala_nf::NetworkFunction::warm`] and the batched replay
//! (nf, or rxp for regex kinds), and [`yala_sim::Simulator::solo`] (sim).

use std::time::Instant;

use yala_nf::cost::CostTracker;
use yala_nf::runtime::{DEFAULT_BATCH_PACKETS, DEFAULT_SAMPLE_PACKETS};
use yala_nf::NfKind;
use yala_placement::{measure_entry, sims_for_key};
use yala_sim::NicSpec;
use yala_traffic::{PacketBatch, PacketGenerator, TrafficProfile};

/// Busy time and work counts of the profiling layers, summed over every
/// probed measurement.
#[derive(Debug, Default, Clone)]
pub struct ProfileLayers {
    /// Whole-miss durations (`measure_entry`), seconds, one per miss.
    pub miss_s: Vec<f64>,
    pub flows_synthesized: u64,
    pub pktgen_s: f64,
    pub flows_warmed: u64,
    pub warm_s: f64,
    pub packets_replayed: u64,
    pub replay_s: f64,
    pub regex_replays: u64,
    pub regex_replay_s: f64,
    pub solo_calls: u64,
    pub solo_s: f64,
}

impl ProfileLayers {
    /// Probes one miss: `kind` at `traffic`, measured on fresh per-model
    /// simulators of `specs` seeded from `seed`, exactly as a keyed
    /// cache miss measures it.
    pub fn probe(
        &mut self,
        specs: &[NicSpec],
        noise_sigma: f64,
        kind: NfKind,
        traffic: TrafficProfile,
        seed: u64,
    ) {
        let mut sims = sims_for_key(specs, kind, noise_sigma, seed);
        let t = Instant::now();
        let entry = measure_entry(&mut sims, kind, traffic, seed);
        self.miss_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let mut gen = PacketGenerator::new(traffic, seed);
        self.pktgen_s += t.elapsed().as_secs_f64();
        self.flows_synthesized += gen.flows().len() as u64;

        let mut nf = kind.build();
        let t = Instant::now();
        nf.warm(gen.flows());
        self.warm_s += t.elapsed().as_secs_f64();
        self.flows_warmed += gen.flows().len() as u64;

        let mut batch = PacketBatch::new();
        let mut cost = CostTracker::new();
        let t = Instant::now();
        let mut remaining = DEFAULT_SAMPLE_PACKETS;
        while remaining > 0 {
            let n = remaining.min(DEFAULT_BATCH_PACKETS);
            gen.fill_batch(&mut batch, n);
            cost.reset();
            std::hint::black_box(nf.process_batch(&batch, &mut cost));
            remaining -= n;
        }
        let replay = t.elapsed().as_secs_f64();
        self.replay_s += replay;
        self.packets_replayed += DEFAULT_SAMPLE_PACKETS as u64;
        if kind.uses_regex() {
            self.regex_replays += 1;
            self.regex_replay_s += replay;
        }

        let mut sims = sims_for_key(specs, kind, noise_sigma, seed);
        for (_, sim) in &mut sims {
            let t = Instant::now();
            std::hint::black_box(sim.solo(&entry.workload));
            self.solo_s += t.elapsed().as_secs_f64();
            self.solo_calls += 1;
        }
    }
}

/// Spans of the online-refinement layer (`core` bank refine + `ml`
/// re-fits), one per absorb call that did any work.
#[derive(Debug, Default, Clone)]
pub struct RefineLayer {
    pub pass_s: Vec<f64>,
    pub observations: u64,
}

impl RefineLayer {
    /// Records one absorb call that took `secs` and absorbed `n`.
    pub fn record(&mut self, secs: f64, n: usize) {
        if n > 0 {
            self.pass_s.push(secs);
            self.observations += n as u64;
        }
    }

    pub fn busy_s(&self) -> f64 {
        self.pass_s.iter().sum()
    }
}
