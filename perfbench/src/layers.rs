//! The traced run's layer probe: the same calls into each crate's public
//! functions on every workload, on that workload's calibrated pipelines,
//! timed from outside and wrapped in ledger spans.

use std::hint::black_box;
use std::time::Instant;

use dlperf_core::pipeline::Pipeline;
use dlperf_core::{
    prepare_graph, GraphMutation, IncrementalPredictor, ScenarioMatrix, SweepEngine,
};
use dlperf_distrib::{
    enumerate_matrix, sweep_shardings, CommModel, DistributedPredictor, ParallelismStrategy,
};
use dlperf_gpusim::{CollectiveKind, CollectiveSpec};
use dlperf_graph::{lower, OpKind};
use dlperf_kernels::mlbased::MlKernelModel;
use dlperf_kernels::{microbench, Microbenchmark};
use dlperf_models::{zoo, DlrmConfig};
use dlperf_nn::TrainConfig;
use dlperf_runtime::CancellationToken;
use dlperf_trace::engine::ExecutionEngine;
use dlperf_trace::OverheadStats;

use crate::gen::{VALIDATION_CV, VALIDATION_DLRM};
use crate::ledger::Ledger;
use crate::report::{Metrics, Outcome};
use crate::setup::{
    family_gmae, oracle, short_name, ANALYSIS_ITERS, ANALYSIS_SEED, CALIBRATION_SEED,
};
use crate::util::{gmean_pct, median, ms_since, rel_err, Samples};
use crate::whatif;

/// What the probe runs on.
pub struct ProbeInputs<'a> {
    /// The workload's pipelines; must include V100 and P100.
    pub pipelines: &'a [Pipeline],
    /// Set-up timings the workload measured, per device short name.
    pub calibrate_ms: &'a [(String, f64)],
    pub analyze_ms: &'a [f64],
}

fn pipeline<'a>(pipelines: &'a [Pipeline], short: &str) -> &'a Pipeline {
    pipelines
        .iter()
        .find(|p| short_name(p.device()) == short)
        .expect("probe device present")
}

fn us_p50(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut s = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        f();
        s.0.push(ms_since(t) * 1e3);
    }
    s.p50()
}

/// Runs every layer probe and records its metrics.
pub fn probe(inp: &ProbeInputs<'_>, ledger: &Ledger, outcome: &mut Outcome, m: &mut Metrics) {
    let v100 = pipeline(inp.pipelines, "v100");
    let registry = v100.predictor().registry();
    let device = v100.device().clone();
    let base = {
        let _s = ledger.span("models");
        whatif::base_graph()
    };

    // models
    let build_ms = us_p50(3, || {
        let _s = ledger.span("models");
        for name in VALIDATION_DLRM {
            black_box(zoo::build(name, 1024).expect("catalog model builds"));
        }
    }) / 1e3;
    m.set("models.build_ms", build_ms, "ms");

    // graph
    let (replace, hoist) = whatif::legal_single_ops(&base, v100);
    let mutations = [
        GraphMutation::FuseEmbeddingBags,
        GraphMutation::HoistAll,
        GraphMutation::ReplaceOp {
            node: replace[replace.len() / 2],
            op: OpKind::Sigmoid,
        },
        GraphMutation::HoistNode(hoist[hoist.len() / 2]),
    ];
    let mut mutate = Samples::default();
    for _ in 0..5 {
        for mu in &mutations {
            let t = Instant::now();
            let ok = {
                let _s = ledger.span("graph");
                prepare_graph(&base, std::slice::from_ref(mu)).is_ok()
            };
            mutate.0.push(ms_since(t) * 1e3);
            outcome.check(ok, || format!("probe mutation {mu} failed"));
        }
    }
    m.set("graph.mutate_us_p50", mutate.p50(), "us");

    // kernels
    let specs: Vec<_> = base
        .nodes()
        .iter()
        .flat_map(|n| lower::try_kernels(&base, n).expect("probe graph lowers"))
        .collect();
    let infer = us_p50(20, || {
        let _s = ledger.span("kernels");
        black_box(registry.predict_batch_with_confidence(&specs));
    });
    m.set(
        "kernels.infer_us_per_spec",
        infer / specs.len() as f64,
        "us",
    );
    for short in ["v100", "p100"] {
        let ms: Vec<f64> = inp
            .calibrate_ms
            .iter()
            .filter(|(d, _)| d == short)
            .map(|(_, ms)| *ms)
            .collect();
        m.set(format!("kernels.calibrate_ms.{short}"), median(&ms), "ms");
    }
    let t = Instant::now();
    let samples = {
        let _s = ledger.span("kernels");
        Microbenchmark::new(&device, CALIBRATION_SEED, 15)
            .measure(&microbench::gemm_specs(260, CALIBRATION_SEED ^ 2))
    };
    m.set("kernels.microbench_ms", ms_since(t), "ms");
    let t = Instant::now();
    {
        let _s = ledger.span("nn");
        let cfg = TrainConfig {
            epochs: 120,
            width: 48,
            hidden_layers: 3,
            ..TrainConfig::default()
        };
        black_box(MlKernelModel::train(&samples, &cfg, CALIBRATION_SEED ^ 2));
    }
    m.set("nn.train_ms", ms_since(t), "ms");
    for (family, gmae_pct) in family_gmae(registry, outcome, ledger) {
        m.set(format!("kernels.gmae_pct.{family}"), gmae_pct, "%");
    }

    // core: single walks
    let cold = us_p50(10, || {
        let _s = ledger.span("core");
        black_box(v100.predict(&base).expect("probe graph lowers"));
    });
    m.set("core.walk_cold_us_p50", cold, "us");
    let cache = dlperf_kernels::MemoCache::new();
    let _ = v100.predict_memoized(&base, &cache);
    let warm = us_p50(30, || {
        let _s = ledger.span("core");
        black_box(
            v100.predict_memoized(&base, &cache)
                .expect("probe graph lowers"),
        );
    });
    m.set("core.walk_warm_us_p50", warm, "us");

    // core: incremental re-prediction against the full walk
    match IncrementalPredictor::new(v100.predictor().clone(), base.clone()) {
        Ok(inc) => {
            let mut lat = Samples::default();
            let (mut reused, mut recomputed, mut spliced, mut fallbacks) =
                (0usize, 0usize, 0usize, 0usize);
            let picks = replace
                .iter()
                .step_by((replace.len() / 8).max(1))
                .map(|&p| GraphMutation::ReplaceOp {
                    node: p,
                    op: OpKind::Sigmoid,
                });
            let hoists = hoist.iter().take(4).map(|&p| GraphMutation::HoistNode(p));
            for mu in picks.chain(hoists) {
                let g = prepare_graph(&base, std::slice::from_ref(&mu)).expect("legal single op");
                let t = Instant::now();
                let got = {
                    let _s = ledger.span("core");
                    inc.repredict(&g, None)
                };
                lat.0.push(ms_since(t) * 1e3);
                let full = v100.predict(&g);
                match (got, full) {
                    (Ok((p, st)), Ok(f)) => {
                        reused += st.prefix + st.suffix;
                        recomputed += st.recomputed;
                        spliced += usize::from(st.spliced);
                        fallbacks += usize::from(st.full_fallback);
                        outcome.check(
                            p.e2e_us.to_bits() == f.e2e_us.to_bits()
                                && p.active_us.to_bits() == f.active_us.to_bits(),
                            || format!("incremental {mu} differs from the full walk"),
                        );
                    }
                    _ => outcome.fail(format!("incremental probe {mu} failed")),
                }
            }
            m.set("core.incremental_us_p50", lat.p50(), "us");
            m.set("core.incremental.reused_nodes", reused as f64, "count");
            m.set(
                "core.incremental.recomputed_nodes",
                recomputed as f64,
                "count",
            );
            m.set("core.incremental.spliced", spliced as f64, "count");
            m.set("core.incremental.fallbacks", fallbacks as f64, "count");
        }
        Err(e) => outcome.fail(format!("incremental baseline failed: {e}")),
    }

    // core + nn: sweep thread scaling and arena reuse
    let mut matrix = ScenarioMatrix::new();
    for (i, p) in inp.pipelines.iter().enumerate() {
        matrix = matrix.device(short_name(p.device()), i);
    }
    let list = matrix
        .batches(&[256, 1024, 4096])
        .variant("base", vec![])
        .variant("fused", vec![GraphMutation::FuseEmbeddingBags])
        .variant("hoisted", vec![GraphMutation::HoistAll])
        .build();
    let (mut t1, mut t2) = (Vec::new(), Vec::new());
    let mut hit_rate = 0.0;
    let mut prints = Vec::new();
    for _ in 0..3 {
        for (threads, times) in [(1usize, &mut t1), (whatif::threads(), &mut t2)] {
            let t = Instant::now();
            let out = {
                let _s = ledger.span("core");
                SweepEngine::new(inp.pipelines.to_vec())
                    .with_threads_exact(threads)
                    .run(&base, &list)
            };
            times.push(ms_since(t));
            outcome.check(out.completed() == list.len(), || {
                "probe sweep left scenarios unpriced".into()
            });
            prints.push(whatif::sweep_fingerprint(&out));
            if threads > 1 {
                hit_rate = out.cache.map_or(0.0, |c| c.hit_rate());
            }
        }
    }
    outcome.check(prints.windows(2).all(|w| w[0] == w[1]), || {
        "probe sweep differs across thread counts".into()
    });
    let (t1, t2) = (median(&t1), median(&t2));
    m.set("core.sweep.t1_ms", t1, "ms");
    m.set("core.sweep.t2_ms", t2, "ms");
    m.set(
        "core.sweep.parallel_efficiency_t2",
        t1 / t2 / whatif::threads() as f64,
        "ratio",
    );
    m.set("core.sweep.cache_hit_rate", hit_rate, "ratio");
    let engine = SweepEngine::new(inp.pipelines.to_vec()).with_threads_exact(1);
    let mut misses = Vec::new();
    for _ in 0..3 {
        let _s = ledger.span("core");
        engine.run(&base, &list);
        misses.push(engine.scratch_stats().misses);
    }
    m.set(
        "nn.arena_misses_steady",
        (misses[2] - misses[1]) as f64,
        "count",
    );

    // core: search
    let start = (512u64, vec![256u64, 2048]);
    let mut reports = Vec::new();
    for threads in [1, whatif::threads()] {
        let t = Instant::now();
        let r = {
            let _s = ledger.span("core");
            whatif::run_search(inp.pipelines, &base, &start, threads, true)
        };
        m.set(
            format!("core.search.t{}_ms", if threads == 1 { 1 } else { 2 }),
            ms_since(t),
            "ms",
        );
        reports.push(r);
    }
    match (&reports[0], &reports[1]) {
        (Some(a), Some(b)) => {
            outcome.check(
                whatif::search_fingerprint(a) == whatif::search_fingerprint(b),
                || "probe search differs across thread counts".into(),
            );
            m.set("core.search.evals", b.evals as f64, "count");
            m.set("core.search.prunes", b.prunes as f64, "count");
            m.set(
                "core.search.incremental_frac",
                b.incremental_frac(),
                "ratio",
            );
        }
        _ => outcome.fail("probe search failed"),
    }
    m.set("core.analyze_ms", median(inp.analyze_ms), "ms");

    // distrib
    let config = DlrmConfig::default_config(1024);
    let predictor = DistributedPredictor::new(v100.predictor().clone(), device.clone());
    let scenarios = enumerate_matrix(
        config.rows_per_table.len(),
        &crate::gen::RECOMMEND_WORLDS,
        &[ParallelismStrategy::Hybrid],
        &["auto"],
        &device,
    );
    let token = CancellationToken::new();
    let shard_us = us_p50(5, || {
        let _s = ledger.span("distrib");
        let out = sweep_shardings(&predictor, &config, &scenarios, 1, &token);
        black_box(out.best());
    });
    m.set("distrib.shardings_ms_p50", shard_us / 1e3, "ms");
    let comm = CommModel::for_device(&device, 4);
    const COMM_EVALS: u64 = 20_000;
    let t = Instant::now();
    {
        let _s = ledger.span("distrib");
        let kinds = [
            CollectiveKind::AllReduce,
            CollectiveKind::AllToAll,
            CollectiveKind::AllGather,
        ];
        let mut acc = 0.0;
        for i in 0..COMM_EVALS {
            let spec = CollectiveSpec {
                kind: kinds[(i % 3) as usize],
                bytes_per_rank: 1024 << (i % 16),
                world: 4,
            };
            acc += comm.collective_time(black_box(&spec));
        }
        black_box(acc);
    }
    m.set(
        "distrib.comm_eval_ns",
        ms_since(t) * 1e6 / COMM_EVALS as f64,
        "ns",
    );

    // trace
    let t = Instant::now();
    let runs = {
        let _s = ledger.span("trace");
        ExecutionEngine::new(device.clone(), ANALYSIS_SEED).run_iterations(&base, ANALYSIS_ITERS)
    };
    m.set("trace.profile_ms", ms_since(t), "ms");
    match runs {
        Ok(runs) => {
            let traces: Vec<_> = runs.into_iter().map(|r| r.trace).collect();
            let t = Instant::now();
            {
                let _s = ledger.span("trace");
                black_box(OverheadStats::extract(&traces, true));
            }
            m.set("trace.overheads_extract_ms", ms_since(t), "ms");
        }
        Err(e) => outcome.fail(format!("probe profile failed: {e}")),
    }

    // gpusim: oracle cost and Fig. 10 accuracy on the V100 pipeline
    let oracle_ms = us_p50(3, || {
        black_box(oracle(&device, &base, ledger));
    }) / 1e3;
    m.set("gpusim.oracle_ms", oracle_ms, "ms");
    let mut cv = Vec::new();
    for name in VALIDATION_CV {
        let g = zoo::build(name, 64).expect("catalog model builds");
        match (oracle(&device, &g, ledger), v100.predict(&g)) {
            (Some(truth), Ok(p)) => cv.push(rel_err(p.e2e_us, truth.e2e_us)),
            _ => outcome.fail(format!("{name} could not be validated")),
        }
    }
    m.set("gpusim.cv_err_gmean_pct", gmean_pct(&cv), "%");
}
