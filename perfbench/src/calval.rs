//! `calibrate-validate`: the paper's flow for a new device. Quick-calibrate
//! the three paper devices, run the analysis track on the DLRM paper
//! configs, then predict, uncached, a held-out validation set and compare
//! each prediction with the `gpusim` execution-engine oracle.

use std::time::{Duration, Instant};

use dlperf_core::pipeline::Pipeline;
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::Graph;
use dlperf_models::zoo;

use crate::gen::{self, ANALYSIS_BATCH, VALIDATION_CV, VALIDATION_DLRM};
use crate::ledger::Ledger;
use crate::report::Outcome;
use crate::setup::{bring_up, oracle, short_name, Accuracy, Truth};
use crate::util::{gmean_pct, rel_err, Samples};

/// Uncached predictions of each validation configuration per cycle; the
/// configuration's sample is their median.
const PREDICT_REPS: usize = 5;

/// The workload's fixed inputs for one seed.
pub struct Inputs {
    pub analysis: Vec<Graph>,
    /// `(is_dlrm, graph)` per validation configuration.
    pub validation: Vec<(bool, Graph)>,
    pub held_out_share: f64,
}

pub fn inputs(seed: u64, ledger: &Ledger) -> Inputs {
    let _s = ledger.span("models");
    let analysis: Vec<Graph> = VALIDATION_DLRM
        .iter()
        .map(|m| zoo::build(m, ANALYSIS_BATCH).expect("catalog model builds"))
        .collect();
    let set = gen::validation_set(seed);
    let held_out = set
        .iter()
        .filter(|(m, b)| !(VALIDATION_DLRM.contains(m) && *b == ANALYSIS_BATCH))
        .count();
    let validation = set
        .iter()
        .map(|(m, b)| {
            (
                !VALIDATION_CV.contains(m),
                zoo::build(m, *b).expect("catalog model builds"),
            )
        })
        .collect();
    Inputs {
        analysis,
        validation,
        held_out_share: held_out as f64 / set.len() as f64,
    }
}

/// Oracle truths per `(device, validation graph)`, measured once.
pub fn truths(inputs: &Inputs, ledger: &Ledger, outcome: &mut Outcome) -> Vec<Vec<Option<Truth>>> {
    DeviceSpec::paper_devices()
        .iter()
        .map(|d| {
            inputs
                .validation
                .iter()
                .map(|(_, g)| {
                    let t = oracle(d, g, ledger);
                    outcome.check(t.is_some(), || {
                        format!("oracle failed on {} / {}", g.name, d.name)
                    });
                    t
                })
                .collect()
        })
        .collect()
}

/// Everything the cycles of one window measured.
#[derive(Debug, Default)]
pub struct Cycles {
    /// Whole bring-up (calibrate + analyze, all devices) per cycle, in s.
    pub setup_s: Vec<f64>,
    /// One device's bring-up, in ms.
    pub bring_up: Samples,
    pub calibrate_ms: Vec<(String, f64)>,
    pub analyze_ms: Vec<f64>,
    /// One uncached validation prediction (median of its repeats), in ms.
    pub predict: Samples,
    pub outcome: Outcome,
    /// DLRM accuracy of the first cycle.
    pub accuracy: Accuracy,
    /// E2E geomean error (percent) on the Fig. 10 models.
    pub cv_err_pct: f64,
    /// Pipelines of the last cycle.
    pub pipelines: Vec<Pipeline>,
    bits: Vec<(u64, u64)>,
}

impl Cycles {
    /// Validation predictions per second at the median prediction time.
    pub fn predictions_per_s(&self) -> f64 {
        1e3 / self.predict.p50()
    }
}

/// Runs bring-up + validation cycles until `budget` elapses (at least
/// `min_cycles`). Every cycle must reproduce the first one bit for bit.
pub fn window(
    inputs: &Inputs,
    truths: &[Vec<Option<Truth>>],
    budget: Duration,
    min_cycles: usize,
    ledger: &Ledger,
) -> Cycles {
    let mut c = Cycles::default();
    let t0 = Instant::now();
    while c.setup_s.len() < min_cycles || t0.elapsed() < budget {
        let first = c.setup_s.is_empty();
        let t_cycle = Instant::now();
        let mut pipelines = Vec::new();
        for d in DeviceSpec::paper_devices() {
            let t = Instant::now();
            let b = bring_up(&d, &inputs.analysis, ledger);
            c.bring_up.push_since(t);
            c.calibrate_ms.push((short_name(&d), b.calibrate_ms));
            c.analyze_ms.push(b.analyze_ms);
            pipelines.push(b.pipeline);
        }
        c.setup_s.push(t_cycle.elapsed().as_secs_f64());
        let mut bits = Vec::new();
        let mut cv_errs = Vec::new();
        for (p, row) in pipelines.iter().zip(truths) {
            for ((is_dlrm, g), truth) in inputs.validation.iter().zip(row) {
                let mut reps = Samples::default();
                let mut shared = None;
                for _ in 0..PREDICT_REPS {
                    let t = Instant::now();
                    shared = Some({
                        let _s = ledger.span("core");
                        p.predict(g)
                    });
                    reps.push_since(t);
                }
                c.predict.0.push(reps.p50());
                let shared = shared.expect("at least one prediction");
                let Ok(shared) = shared else {
                    c.outcome
                        .fail(format!("{} did not lower on {}", g.name, p.device().name));
                    continue;
                };
                bits.push((shared.e2e_us.to_bits(), shared.active_us.to_bits()));
                let (true, Some(truth)) = (first, truth) else {
                    continue;
                };
                if *is_dlrm {
                    let scored = c.accuracy.score(p, g, *truth, ledger);
                    c.outcome
                        .check(scored, || format!("{} did not lower", g.name));
                } else {
                    cv_errs.push(rel_err(shared.e2e_us, truth.e2e_us));
                }
            }
        }
        if first {
            c.bits = bits;
            c.cv_err_pct = gmean_pct(&cv_errs);
            c.accuracy.check(&mut c.outcome);
        } else {
            c.outcome.check(bits == c.bits, || {
                "a repeated calibrate-validate cycle changed a prediction".into()
            });
        }
        c.pipelines = pipelines;
    }
    c
}
