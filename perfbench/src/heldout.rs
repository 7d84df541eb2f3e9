//! The held-out accuracy check behind `predict_mape_pct`: a fixed set of
//! 2–4-NF co-locations on one BF-2 NIC, with ground truth from
//! [`yala_sim::Simulator::co_run`]. Its traffic comes from its own seed,
//! not the training seed nor any workload seed, so every run of every
//! workload scores its bank on the same cases.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use yala_core::engine::simulator_for;
use yala_core::QosClass;
use yala_fleet::FleetConfig;
use yala_placement::{prepare_on, sims_for_key, Arrival, Placed, PlacementPredictor};
use yala_sim::{NicModelId, NicSpec};
use yala_traffic::TrafficProfile;

/// Co-locations in the held-out set.
const CASES: usize = 32;

/// Largest flow count a held-out tenant draws.
const MAX_FLOWS: u32 = 64_000;

/// The held-out set's own seed.
const HELDOUT_SEED: u64 = 0x4E1D_0B7A;

/// Spans of the benchmark's own ground-truth co-runs.
#[derive(Debug, Default, Clone, Copy)]
pub struct CoRuns {
    pub calls: u64,
    pub busy_s: f64,
}

/// The held-out co-locations with their measured throughputs.
pub struct HeldOut {
    model: NicModelId,
    cases: Vec<(Vec<Placed>, Vec<f64>)>,
}

impl HeldOut {
    /// Draws and measures the set for `cfg`'s NF kinds.
    pub fn build(cfg: &FleetConfig, coruns: &mut CoRuns) -> Self {
        let spec = NicSpec::bluefield2();
        let mut rng = StdRng::seed_from_u64(HELDOUT_SEED);
        let mut cases = Vec::with_capacity(CASES);
        for c in 0..CASES {
            let n = rng.gen_range(2..=4);
            let placed: Vec<Placed> = (0..n)
                .map(|i| {
                    let kind = *cfg.kinds.choose(&mut rng).expect("kinds");
                    let traffic = TrafficProfile::random(&mut rng, MAX_FLOWS);
                    let nf_seed: u64 = rng.gen();
                    let arrival = Arrival {
                        kind,
                        traffic,
                        sla_drop: 0.1,
                        qos: QosClass::Guaranteed,
                    };
                    let mut sims =
                        sims_for_key(std::slice::from_ref(&spec), kind, cfg.noise_sigma, nf_seed);
                    let mut p = prepare_on(&mut sims, arrival, nf_seed);
                    p.workload.name = format!("held{c}-{i}");
                    p
                })
                .collect();
            let workloads: Vec<_> = placed.iter().map(|p| p.workload.clone()).collect();
            let mut sim = simulator_for(&spec, cfg.noise_sigma, rng.gen());
            let t = Instant::now();
            let report = sim.co_run(&workloads);
            coruns.busy_s += t.elapsed().as_secs_f64();
            coruns.calls += 1;
            let truth = report.outcomes.iter().map(|o| o.throughput_pps).collect();
            cases.push((placed, truth));
        }
        Self {
            model: spec.model(),
            cases,
        }
    }

    /// Mean absolute percentage error of `predictor` over every tenant
    /// of every case, and the number of predictions behind it.
    pub fn mape_pct(&self, predictor: &mut dyn PlacementPredictor) -> (f64, u64) {
        let mut sum = 0.0;
        let mut n = 0u64;
        for (placed, truth) in &self.cases {
            for (i, &t) in truth.iter().enumerate() {
                let p = predictor.predict(self.model, i, placed);
                sum += ((p - t) / t).abs();
                n += 1;
            }
        }
        (100.0 * sum / n as f64, n)
    }
}
