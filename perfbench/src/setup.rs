//! Device bring-up (calibration + analysis track) and accuracy scoring
//! against the `gpusim` execution-engine oracle, shared by every workload.

use std::time::Instant;

use dlperf_core::pipeline::Pipeline;
use dlperf_gpusim::{DeviceSpec, Gpu, KernelSpec, MemcpyKind};
use dlperf_graph::Graph;
use dlperf_kernels::{CalibrationEffort, ErrorStats, ModelRegistry};
use dlperf_trace::engine::ExecutionEngine;

use crate::ledger::Ledger;
use crate::report::Outcome;
use crate::util::{gmean_pct, ms_since, rel_err};

/// Calibration effort of every workload: the default of the `dlperf` CLI
/// and of the `dlperf-serve` daemon.
pub const EFFORT: CalibrationEffort = CalibrationEffort::Quick;
pub const EFFORT_NAME: &str = "quick";
/// Calibration and analysis seeds are fixed: they are part of the program
/// under test, not of the workload's inputs.
pub const CALIBRATION_SEED: u64 = 4242;
pub const ANALYSIS_SEED: u64 = 1234;
pub const ANALYSIS_ITERS: usize = 10;
/// Iterations the oracle averages per configuration, and its seed. Both
/// are fixed, as in `tests/accuracy.rs`, so accuracy repeats exactly and
/// any change in it is the program's.
pub const ORACLE_ITERS: usize = 12;
pub const ORACLE_SEED: u64 = 77;
/// E2E geomean threshold pinned by `tests/accuracy.rs`, applied to every
/// end-to-end accuracy metric.
pub const E2E_GEOMEAN_THRESHOLD_PCT: f64 = 8.0;

/// Short, metric-name-safe device names.
pub fn short_name(device: &DeviceSpec) -> String {
    device
        .name
        .to_lowercase()
        .replace("tesla ", "")
        .replace(' ', "")
}

/// One calibrated device and the time its bring-up took.
pub struct BroughtUp {
    pub pipeline: Pipeline,
    pub calibrate_ms: f64,
    pub analyze_ms: f64,
}

/// Quick-calibrates `device` and runs the analysis track on `workloads`.
pub fn bring_up(device: &DeviceSpec, workloads: &[Graph], ledger: &Ledger) -> BroughtUp {
    let t0 = Instant::now();
    let registry = {
        let _s = ledger.span("kernels");
        ModelRegistry::calibrate(device, EFFORT, CALIBRATION_SEED)
    };
    let calibrate_ms = ms_since(t0);
    let t1 = Instant::now();
    let pipeline = {
        let _s = ledger.span("core");
        Pipeline::analyze_with_registry(device, workloads, registry, ANALYSIS_ITERS, ANALYSIS_SEED)
    };
    BroughtUp {
        pipeline,
        calibrate_ms,
        analyze_ms: ms_since(t1),
    }
}

/// The oracle's answer for one configuration.
#[derive(Debug, Clone, Copy)]
pub struct Truth {
    pub e2e_us: f64,
    pub active_us: f64,
}

/// Measures `graph` on the simulated device: the mean E2E and active time
/// over [`ORACLE_ITERS`] unprofiled iterations.
pub fn oracle(device: &DeviceSpec, graph: &Graph, ledger: &Ledger) -> Option<Truth> {
    let _s = ledger.span("gpusim");
    let mut engine = ExecutionEngine::new(device.clone(), ORACLE_SEED);
    engine.set_profiling(false);
    let runs = engine.run_iterations(graph, ORACLE_ITERS).ok()?;
    let n = runs.len() as f64;
    Some(Truth {
        e2e_us: runs.iter().map(|r| r.e2e_us).sum::<f64>() / n,
        active_us: runs.iter().map(|r| r.active_us()).sum::<f64>() / n,
    })
}

/// Relative errors of one workload's predictions against the oracle.
#[derive(Debug, Clone, Default)]
pub struct Accuracy {
    pub active: Vec<f64>,
    pub e2e: Vec<f64>,
    pub shared: Vec<f64>,
}

impl Accuracy {
    /// Prices `graph` uncached with individual and shared overheads and
    /// scores both against `truth`; false when the graph does not lower.
    pub fn score(
        &mut self,
        pipeline: &Pipeline,
        graph: &Graph,
        truth: Truth,
        ledger: &Ledger,
    ) -> bool {
        let _s = ledger.span("core");
        let (Ok(individual), Ok(shared)) =
            (pipeline.predict_individual(graph), pipeline.predict(graph))
        else {
            return false;
        };
        self.active
            .push(rel_err(individual.active_us, truth.active_us));
        self.e2e.push(rel_err(individual.e2e_us, truth.e2e_us));
        self.shared.push(rel_err(shared.e2e_us, truth.e2e_us));
        true
    }

    pub fn gmeans(&self) -> (f64, f64, f64) {
        (
            gmean_pct(&self.active),
            gmean_pct(&self.e2e),
            gmean_pct(&self.shared),
        )
    }

    /// Counts each geomean against the pinned threshold.
    pub fn check(&self, outcome: &mut Outcome) {
        let (a, e, s) = self.gmeans();
        for (name, v) in [("active", a), ("e2e", e), ("e2e_shared", s)] {
            outcome.check(v < E2E_GEOMEAN_THRESHOLD_PCT, || {
                format!("{name} geomean error {v:.2}% over {E2E_GEOMEAN_THRESHOLD_PCT}%")
            });
        }
    }
}

/// Off-grid kernel shapes per family with the GMAE threshold (fraction)
/// `tests/accuracy.rs` pins for it.
pub fn family_zoo() -> Vec<(&'static str, f64, Vec<KernelSpec>)> {
    vec![
        (
            "GEMM",
            0.15,
            vec![
                KernelSpec::gemm(96, 192, 384),
                KernelSpec::gemm(640, 320, 160),
                KernelSpec::gemm(1100, 1100, 1100),
                KernelSpec::Gemm {
                    m: 48,
                    n: 2000,
                    k: 72,
                    batch: 1,
                },
                KernelSpec::Gemm {
                    m: 384,
                    n: 384,
                    k: 384,
                    batch: 12,
                },
                KernelSpec::gemm(3000, 750, 96),
            ],
        ),
        (
            "EL-F",
            0.05,
            vec![
                KernelSpec::embedding_forward(384, 120_000, 6, 24, 48),
                KernelSpec::embedding_forward(1536, 900_000, 10, 80, 64),
                KernelSpec::embedding_forward(96, 40_000, 3, 16, 32),
                KernelSpec::embedding_forward(768, 300_000, 12, 48, 96),
            ],
        ),
        (
            "EL-B",
            0.02,
            vec![
                KernelSpec::embedding_backward(384, 120_000, 6, 24, 48),
                KernelSpec::embedding_backward(1536, 900_000, 10, 80, 64),
                KernelSpec::embedding_backward(768, 300_000, 12, 48, 96),
            ],
        ),
        (
            "memcpy",
            0.06,
            vec![
                KernelSpec::memcpy_d2d(48 * 1024),
                KernelSpec::memcpy_d2d(7 * 1024 * 1024),
                KernelSpec::memcpy_h2d(640 * 1024),
                KernelSpec::Memcpy {
                    bytes: 3 * 1024 * 1024,
                    kind: MemcpyKind::DeviceToHost,
                },
            ],
        ),
        (
            "elementwise",
            0.06,
            vec![
                KernelSpec::Elementwise {
                    elems: 96_000,
                    flops_per_elem: 1.0,
                    bytes_per_elem: 8.0,
                },
                KernelSpec::Elementwise {
                    elems: 1_500_000,
                    flops_per_elem: 2.0,
                    bytes_per_elem: 12.0,
                },
                KernelSpec::Elementwise {
                    elems: 24_000_000,
                    flops_per_elem: 4.0,
                    bytes_per_elem: 8.0,
                },
            ],
        ),
        (
            "shuffle",
            0.06,
            vec![
                KernelSpec::Concat { bytes: 900 * 1024 },
                KernelSpec::Transpose {
                    batch: 384,
                    rows: 24,
                    cols: 48,
                },
                KernelSpec::TrilForward { batch: 1536, n: 27 },
                KernelSpec::TrilBackward { batch: 1536, n: 27 },
            ],
        ),
    ]
}

/// Per-family GMAE (percent) of `registry` against the noiseless oracle,
/// each checked against its pinned threshold.
pub fn family_gmae(
    registry: &ModelRegistry,
    outcome: &mut Outcome,
    ledger: &Ledger,
) -> Vec<(&'static str, f64)> {
    let gpu = Gpu::noiseless(registry.device().clone());
    let mut out = Vec::new();
    for (name, threshold, specs) in family_zoo() {
        let pred: Vec<f64> = {
            let _s = ledger.span("kernels");
            specs
                .iter()
                .map(|k| registry.try_predict(k).unwrap_or(f64::NAN))
                .collect()
        };
        let actual: Vec<f64> = {
            let _s = ledger.span("gpusim");
            specs.iter().map(|k| gpu.kernel_time_noiseless(k)).collect()
        };
        match ErrorStats::try_from_pairs(&pred, &actual) {
            Ok(stats) => {
                outcome.check(stats.gmae < threshold, || {
                    format!("{name} GMAE {:.3} over pinned {threshold}", stats.gmae)
                });
                out.push((name, stats.gmae * 100.0));
            }
            Err(e) => outcome.fail(format!("{name} GMAE not computable: {e}")),
        }
    }
    out
}

/// Scores `graphs` on every `(device, pipeline)` pair against the oracle.
pub fn score_all(
    pipelines: &[Pipeline],
    graphs: &[Graph],
    outcome: &mut Outcome,
    ledger: &Ledger,
) -> Accuracy {
    let mut acc = Accuracy::default();
    for p in pipelines {
        for g in graphs {
            match oracle(p.device(), g, ledger) {
                Some(truth) => {
                    let scored = acc.score(p, g, truth, ledger);
                    outcome.check(scored, || {
                        format!("{} on {} did not lower", g.name, p.device().name)
                    });
                }
                None => outcome.fail(format!("oracle failed on {} / {}", g.name, p.device().name)),
            }
        }
    }
    acc.check(outcome);
    acc
}
