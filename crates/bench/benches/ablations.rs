//! **Ablations** — design-choice studies called out in DESIGN.md, beyond
//! the paper's headline tables:
//!
//! 1. Overhead-database granularity: per-op (individual), per-op (shared),
//!    type-level means.
//! 2. T4 policy: the paper's fixed approximation vs measured per-op means.
//! 3. Kernel launch-point modeling: `cpu + T4/2` (Algorithm 1) vs `cpu`
//!    vs `cpu + T4`.
//! 4. Embedding-lookup model choice inside the E2E prediction: plain vs
//!    hit-rate-enhanced.
//! 5. Host-accessory-op modeling: how the dispatcher-swarm density changes
//!    utilization.

use std::sync::Arc;

use dlperf_bench::{effort, header, measure_graph, measure_iters};
use dlperf_core::pipeline::Pipeline;
use dlperf_core::{E2ePredictor, OverheadGranularity, T4Policy};
use dlperf_gpusim::{DeviceSpec, KernelFamily};
use dlperf_kernels::heuristic::{EmbeddingModel, EmbeddingModelKind};
use dlperf_models::DlrmConfig;
use dlperf_trace::engine::ExecutionEngine;

fn err_pct(pred: f64, measured: f64) -> f64 {
    (pred - measured) / measured * 100.0
}

fn main() {
    header("Ablations: overhead granularity, T4 policy, launch point, EL model");
    let device = DeviceSpec::v100();
    let batch = 1024;
    let graphs: Vec<_> = DlrmConfig::paper_configs(batch).iter().map(|c| c.build()).collect();
    let pipeline = Pipeline::analyze(&device, &graphs, effort(), measure_iters(), 71);

    let measured: Vec<f64> = graphs.iter().map(|g| measure_graph(&device, g, 72).0).collect();

    // --- 1. Overhead granularity. ---
    println!("\n[1] overhead-database granularity (signed E2E error per workload):");
    println!("{:26} {:>14} {:>14} {:>14}", "variant", graphs[0].name, graphs[1].name, graphs[2].name);
    let variants: Vec<(&str, Vec<f64>)> = vec![
        (
            "individual per-op",
            graphs.iter().map(|g| pipeline.predict_individual(g).unwrap().e2e_us).collect(),
        ),
        (
            "shared per-op",
            graphs.iter().map(|g| pipeline.predict(g).unwrap().e2e_us).collect(),
        ),
        (
            "shared type-level",
            graphs
                .iter()
                .map(|g| {
                    pipeline
                        .predictor()
                        .clone()
                        .with_granularity(OverheadGranularity::TypeOnly)
                        .predict(g)
                        .unwrap()
                        .e2e_us
                })
                .collect(),
        ),
    ];
    for (name, preds) in variants {
        print!("{name:26}");
        for (p, m) in preds.iter().zip(&measured) {
            print!(" {:>+13.2}%", err_pct(*p, *m));
        }
        println!();
    }

    // --- 2. T4 policy. ---
    println!("\n[2] T4 policy (signed E2E error, DLRM_default):");
    for (name, policy) in [
        ("fixed 12 us (paper-style)", T4Policy::Fixed(12.0)),
        ("fixed 10 us (paper value)", T4Policy::Fixed(10.0)),
        ("measured per-op means", T4Policy::Measured),
    ] {
        let p = pipeline
            .predictor()
            .clone()
            .with_t4_policy(policy)
            .predict(&graphs[0])
            .unwrap();
        println!("  {name:28} {:+.2}%", err_pct(p.e2e_us, measured[0]));
    }

    // --- 3. Launch-point factor. ---
    println!("\n[3] kernel launch point cpu + f x T4 (signed E2E error, DLRM_default):");
    for f in [0.0, 0.5, 1.0] {
        let p = pipeline
            .predictor()
            .clone()
            .with_launch_factor(f)
            .predict(&graphs[0])
            .unwrap();
        println!("  f = {f:3.1}  {:+.2}%", err_pct(p.e2e_us, measured[0]));
    }

    // --- 4. EL model choice inside the active-time prediction. ---
    // Evaluated on a small-table DLRM variant (8k-row tables), where the
    // plain DRAM-only model overestimates the L2-resident lookups; on the
    // paper configs' million-row tables the two models coincide.
    println!("\n[4] embedding-lookup model, lookup-dominated small-table DLRM, active-time error:");
    // Small L2-resident tables with heavy pooling (L = 100) and tiny MLPs:
    // the embedding kernels dominate the active time, so the EL model
    // choice is visible end-to-end (on the paper configs' million-row
    // tables both models coincide, as Table IV's L columns show).
    let small_tables = DlrmConfig {
        rows_per_table: vec![1_000; 8],
        lookups_per_table: 100,
        bottom_mlp: vec![64, 64],
        top_mlp: vec![64, 1],
        embedding_dim: 64,
        ..DlrmConfig::default_config(batch)
    }
    .build();
    let (_, small_active) = measure_graph(&device, &small_tables, 74);
    for (name, kind) in [
        ("plain (DRAM only)", EmbeddingModelKind::Plain),
        ("enhanced (hit rate)", EmbeddingModelKind::Enhanced),
    ] {
        let mut registry = pipeline.predictor().registry().clone();
        registry.insert(
            KernelFamily::EmbeddingForward,
            Arc::new(EmbeddingModel::new(&device, kind)),
        );
        registry.insert(
            KernelFamily::EmbeddingBackward,
            Arc::new(EmbeddingModel::new(&device, kind)),
        );
        let pred = E2ePredictor::new(registry, dlperf_trace::OverheadStats::from_json(
            &pipeline.shared_overheads_json(),
        )
        .expect("valid db"))
        .predict(&small_tables)
        .unwrap()
        .active_us;
        println!("  {name:22} {:+.2}%", err_pct(pred, small_active));
    }

    // --- 5. Host-accessory density. ---
    println!("\n[5] dispatcher-swarm density vs measured utilization (DLRM_default):");
    for accessories in [0usize, 2, 4] {
        let g = DlrmConfig { host_accessory_ops: accessories, ..DlrmConfig::default_config(batch) }
            .build();
        let mut engine = ExecutionEngine::new(device.clone(), 73);
        engine.set_profiling(false);
        let run = engine.run(&g).unwrap();
        println!(
            "  {accessories} accessory ops/device-op: e2e {:>8.0} us, utilization {:>5.1}%",
            run.e2e_us,
            run.utilization() * 100.0
        );
    }
}
