//! Model-system co-design tools (§V-A): answer the paper's what-if
//! questions by transforming the execution graph and re-predicting —
//! "without actually running the computation on GPUs".

use dlperf_graph::lower::LowerError;
use dlperf_graph::transform::{fuse_embedding_bags, resize_batch, FusionReport, TransformError};
use dlperf_graph::Graph;
use dlperf_gpusim::KernelSpec;
use dlperf_kernels::ModelRegistry;

use crate::pipeline::Pipeline;
use crate::predictor::Prediction;

/// Errors raised by co-design evaluations.
#[derive(Debug)]
pub enum CodesignError {
    /// The graph transformation failed.
    Transform(TransformError),
    /// The transformed graph failed to lower.
    Lower(LowerError),
}

impl std::fmt::Display for CodesignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodesignError::Transform(e) => write!(f, "transform failed: {e}"),
            CodesignError::Lower(e) => write!(f, "lowering failed: {e}"),
        }
    }
}

impl std::error::Error for CodesignError {}

impl From<TransformError> for CodesignError {
    fn from(e: TransformError) -> Self {
        CodesignError::Transform(e)
    }
}

impl From<LowerError> for CodesignError {
    fn from(e: LowerError) -> Self {
        CodesignError::Lower(e)
    }
}

/// Question 1 of the paper's introduction: how does changing the batch size
/// impact performance? Resizes a captured graph to each batch and
/// re-predicts.
///
/// # Errors
/// Fails if the graph carries no batch annotation or fails to lower.
pub fn batch_size_sweep(
    pipeline: &Pipeline,
    graph: &Graph,
    batches: &[u64],
) -> Result<Vec<(u64, Prediction)>, CodesignError> {
    let mut out = Vec::with_capacity(batches.len());
    for &b in batches {
        let mut g = graph.clone();
        resize_batch(&mut g, b)?;
        out.push((b, pipeline.predict(&g)?));
    }
    Ok(out)
}

/// Question 2: how much performance can be gained with new GPUs? Prices the
/// same graph on several calibrated pipelines.
///
/// # Errors
/// Fails if the graph fails to lower on any pipeline.
pub fn device_whatif(
    pipelines: &[Pipeline],
    graph: &Graph,
) -> Result<Vec<(String, Prediction)>, CodesignError> {
    pipelines
        .iter()
        .map(|p| Ok((p.device().name.clone(), p.predict(graph)?)))
        .collect()
}

/// Result of the Fig. 11 op-fusion what-if.
#[derive(Debug, Clone)]
pub struct FusionOutcome {
    /// Prediction for the original graph (separate embedding bags).
    pub before: Prediction,
    /// Prediction after fusing into one batched embedding op.
    pub after: Prediction,
    /// What the fusion rewrote.
    pub report: FusionReport,
}

impl FusionOutcome {
    /// Predicted speedup factor.
    pub fn speedup(&self) -> f64 {
        self.before.e2e_us / self.after.e2e_us
    }
}

/// Question 3: can op fusion improve performance? Applies the
/// embedding-bag → batched-embedding fusion and compares predictions.
///
/// # Errors
/// Fails if the graph has nothing to fuse or fails to lower.
pub fn fusion_whatif(pipeline: &Pipeline, graph: &Graph) -> Result<FusionOutcome, CodesignError> {
    let before = pipeline.predict(graph)?;
    let mut fused = graph.clone();
    let report = fuse_embedding_bags(&mut fused)?;
    let after = pipeline.predict(&fused)?;
    Ok(FusionOutcome { before, after, report })
}

// ---------------------------------------------------------------------------
// Question 4: embedding-table sharding load balance (multi-GPU data layout).
// ---------------------------------------------------------------------------

/// Greedy longest-processing-time assignment of tables (by row count) to
/// `shards` devices. Returns `assignment[table] = shard`.
///
/// # Panics
/// Panics if `shards` is zero or `tables` is empty.
pub fn greedy_lpt(tables: &[u64], shards: usize) -> Vec<usize> {
    assert!(shards > 0 && !tables.is_empty(), "need tables and at least one shard");
    let mut order: Vec<usize> = (0..tables.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(tables[i]));
    let mut load = vec![0u64; shards];
    let mut assignment = vec![0usize; tables.len()];
    for i in order {
        let (shard, _) = load.iter().enumerate().min_by_key(|(_, &l)| l).expect("non-empty");
        assignment[i] = shard;
        load[shard] += tables[i];
    }
    assignment
}

/// Round-robin assignment (the naive baseline).
///
/// # Panics
/// Panics if `shards` is zero.
pub fn round_robin(tables: &[u64], shards: usize) -> Vec<usize> {
    assert!(shards > 0, "need at least one shard");
    (0..tables.len()).map(|i| i % shards).collect()
}

/// Model-driven LPT: balances tables by their *predicted kernel time*
/// (forward + backward) rather than raw row count. This is the paper's
/// load-balancing use case: per-warp lookup traffic is dominated by `B·L·D`
/// regardless of table size, so balancing by rows (as [`greedy_lpt`] does)
/// can be badly off; balancing by predicted time cannot.
///
/// # Panics
/// Panics if `shards` is zero or `tables` is empty.
pub fn greedy_by_predicted_cost(
    registry: &ModelRegistry,
    tables: &[u64],
    shards: usize,
    batch: u64,
    lookups: u64,
    dim: u64,
) -> Vec<usize> {
    assert!(shards > 0 && !tables.is_empty(), "need tables and at least one shard");
    let cost = |rows: u64| {
        let fwd = KernelSpec::embedding_forward(batch, rows, 1, lookups, dim);
        let bwd = KernelSpec::embedding_backward(batch, rows, 1, lookups, dim);
        registry.try_predict(&fwd).expect("registry covers embedding kernels")
            + registry.try_predict(&bwd).expect("registry covers embedding kernels")
    };
    let costs: Vec<f64> = tables.iter().map(|&r| cost(r)).collect();
    let mut order: Vec<usize> = (0..tables.len()).collect();
    order.sort_by(|&a, &b| costs[b].total_cmp(&costs[a]));
    let mut load = vec![0.0f64; shards];
    let mut assignment = vec![0usize; tables.len()];
    for i in order {
        let shard = load
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(s, _)| s)
            .expect("non-empty");
        assignment[i] = shard;
        load[shard] += costs[i];
    }
    assignment
}

/// Predicted per-device embedding time (forward + backward, µs) under an
/// assignment, using the calibrated embedding kernel models. Devices with
/// no tables cost zero.
///
/// # Panics
/// Panics if the assignment length differs from the table count or refers
/// to a shard out of range.
pub fn shard_costs(
    registry: &ModelRegistry,
    tables: &[u64],
    assignment: &[usize],
    shards: usize,
    batch: u64,
    lookups: u64,
    dim: u64,
) -> Vec<f64> {
    assert_eq!(tables.len(), assignment.len(), "assignment covers every table");
    assert!(assignment.iter().all(|&s| s < shards), "shard index out of range");
    (0..shards)
        .map(|s| {
            let mine: Vec<u64> = tables
                .iter()
                .zip(assignment)
                .filter(|(_, &a)| a == s)
                .map(|(&t, _)| t)
                .collect();
            if mine.is_empty() {
                return 0.0;
            }
            let t = mine.len() as u64;
            let e_avg = (mine.iter().sum::<u64>() as f64 / t as f64).round().max(1.0) as u64;
            let fwd = KernelSpec::embedding_forward(batch, e_avg, t, lookups, dim);
            let bwd = KernelSpec::embedding_backward(batch, e_avg, t, lookups, dim);
            registry.try_predict(&fwd).expect("registry covers embedding kernels")
                + registry.try_predict(&bwd).expect("registry covers embedding kernels")
        })
        .collect()
}

/// Load imbalance of per-device costs: `max / mean` (1.0 = perfectly
/// balanced).
///
/// # Panics
/// Panics if `costs` is empty or all-zero.
pub fn imbalance(costs: &[f64]) -> f64 {
    assert!(!costs.is_empty(), "no costs to compare");
    let mean = costs.iter().sum::<f64>() / costs.len() as f64;
    assert!(mean > 0.0, "all shards idle");
    costs.iter().copied().fold(0.0f64, f64::max) / mean
}

/// Predicts the effect of *reordering*: hoisting every movable device op as
/// early as its dependencies allow (so its kernels enqueue before later
/// host overheads), and re-predicting. Returns `(before, after)`.
///
/// # Errors
/// Fails if the graph fails to lower.
pub fn reorder_whatif(
    pipeline: &Pipeline,
    graph: &Graph,
) -> Result<(Prediction, Prediction), CodesignError> {
    let before = pipeline.predict(graph)?;
    let mut g = graph.clone();
    dlperf_graph::transform::hoist_all(&mut g);
    let after = pipeline.predict(&g)?;
    Ok((before, after))
}

// ---------------------------------------------------------------------------
// Iterative model tuning (§V-A a): latency-constrained configuration search.
// ---------------------------------------------------------------------------

/// One scored candidate of a latency-constrained search.
#[derive(Debug, Clone)]
pub struct TuningResult<C> {
    /// The candidate configuration.
    pub candidate: C,
    /// Its predicted per-batch time (µs).
    pub predicted_us: f64,
    /// The caller-supplied quality score (higher is better).
    pub score: f64,
}

/// The paper's *iterative model tuning* use case, generalized: evaluate a
/// set of candidate configurations against a latency budget using only the
/// performance model — "without actually running the code" — and return the
/// highest-scoring candidate that fits, plus every scored candidate for
/// inspection. This is exactly the inner loop the paper proposes donating
/// to a network-architecture search.
///
/// `build` maps a candidate to its execution graph; `score` defines model
/// quality (e.g. parameter count, embedding capacity).
///
/// # Errors
/// Propagates lowering failures from candidate graphs.
#[allow(clippy::type_complexity)]
pub fn latency_constrained_search<C: Clone>(
    pipeline: &Pipeline,
    candidates: &[C],
    budget_us: f64,
    build: impl Fn(&C) -> Graph,
    score: impl Fn(&C) -> f64,
) -> Result<(Option<TuningResult<C>>, Vec<TuningResult<C>>), CodesignError> {
    let mut scored = Vec::with_capacity(candidates.len());
    for c in candidates {
        let graph = build(c);
        let predicted_us = pipeline.predict(&graph)?.e2e_us;
        scored.push(TuningResult { candidate: c.clone(), predicted_us, score: score(c) });
    }
    let best = scored
        .iter()
        .filter(|r| r.predicted_us <= budget_us)
        .max_by(|a, b| a.score.total_cmp(&b.score))
        .cloned();
    Ok((best, scored))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::criteo::KAGGLE_TABLE_ROWS;
    use dlperf_models::DlrmConfig;

    fn quick_pipeline() -> (Pipeline, Graph) {
        let g = DlrmConfig {
            rows_per_table: vec![50_000; 4],
            ..DlrmConfig::default_config(256)
        }
        .build();
        let pipe =
            Pipeline::analyze(&DeviceSpec::v100(), std::slice::from_ref(&g), CalibrationEffort::Quick, 8, 17);
        (pipe, g)
    }

    #[test]
    fn batch_sweep_is_monotone_in_e2e() {
        let (pipe, g) = quick_pipeline();
        let sweep = batch_size_sweep(&pipe, &g, &[128, 512, 2048]).unwrap();
        assert_eq!(sweep.len(), 3);
        assert!(sweep[0].1.e2e_us < sweep[2].1.e2e_us);
        // Utilization grows with batch size (the Fig. 9 trend).
        assert!(sweep[2].1.utilization() > sweep[0].1.utilization());
    }

    #[test]
    fn fusion_predicts_speedup_for_bag_heavy_graph() {
        let (pipe, _) = quick_pipeline();
        let unfused = DlrmConfig {
            rows_per_table: vec![50_000; 16],
            embedding_dim: 64,
            bottom_mlp: vec![64, 64],
            top_mlp: vec![64, 1],
            ..DlrmConfig::default_config(256)
        }
        .with_batched_embedding(false)
        .build();
        let outcome = fusion_whatif(&pipe, &unfused).unwrap();
        assert_eq!(outcome.report.forward_bags_fused, 16);
        assert!(
            outcome.speedup() > 1.05,
            "fusion should pay off on 16 bags, got {:.3}",
            outcome.speedup()
        );
    }

    #[test]
    fn cost_driven_sharding_beats_naive_schemes_on_criteo() {
        // The §V-A load-balancing use case: balancing by predicted kernel
        // time beats both balancing by raw row count and round-robin.
        let (pipe, _) = quick_pipeline();
        let registry = pipe.predictor().registry();
        let tables = KAGGLE_TABLE_ROWS;
        let eval = |a: &[usize]| imbalance(&shard_costs(registry, &tables, a, 4, 2048, 1, 32));
        let by_cost = eval(&greedy_by_predicted_cost(registry, &tables, 4, 2048, 1, 32));
        let by_rows = eval(&greedy_lpt(&tables, 4));
        let rr = eval(&round_robin(&tables, 4));
        assert!(
            by_cost <= rr && by_cost <= by_rows,
            "cost-driven {by_cost:.3} vs rows-LPT {by_rows:.3} vs round-robin {rr:.3}"
        );
    }

    #[test]
    fn lpt_assignment_is_a_partition() {
        let a = greedy_lpt(&KAGGLE_TABLE_ROWS, 8);
        assert_eq!(a.len(), 26);
        assert!(a.iter().all(|&s| s < 8));
        // Each shard gets at least one table (26 tables over 8 shards).
        for s in 0..8 {
            assert!(a.contains(&s), "shard {s} left empty");
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        round_robin(&[1, 2], 0);
    }

    #[test]
    fn tuning_picks_largest_model_within_budget() {
        let (pipe, base) = quick_pipeline();
        // Candidates: embedding dims (larger = higher quality, slower).
        let candidates = [16u64, 32, 64, 128];
        let build = |&d: &u64| {
            DlrmConfig {
                embedding_dim: d,
                bottom_mlp: vec![512, 512, d],
                rows_per_table: vec![50_000; 4],
                ..DlrmConfig::default_config(256)
            }
            .build()
        };
        let baseline = pipe.predict(&base).unwrap().e2e_us;
        let (best, all) =
            latency_constrained_search(&pipe, &candidates, baseline, build, |&d| d as f64)
                .unwrap();
        assert_eq!(all.len(), 4);
        assert!(all.iter().all(|r| r.predicted_us > 0.0));
        let best = best.expect("some candidate fits the baseline budget");
        // The winner is the largest dim that still fits.
        for r in &all {
            if r.predicted_us <= baseline {
                assert!(best.score >= r.score);
            }
        }
    }

    #[test]
    fn tuning_reports_none_when_budget_impossible() {
        let (pipe, _) = quick_pipeline();
        let build = |&d: &u64| {
            DlrmConfig {
                embedding_dim: d,
                bottom_mlp: vec![512, 512, d],
                rows_per_table: vec![50_000; 4],
                ..DlrmConfig::default_config(256)
            }
            .build()
        };
        let (best, all) =
            latency_constrained_search(&pipe, &[32u64, 64], 1.0, build, |&d| d as f64).unwrap();
        assert!(best.is_none());
        assert_eq!(all.len(), 2);
    }
}
