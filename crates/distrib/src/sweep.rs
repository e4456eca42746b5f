//! Sharding-plan sweeps: the distributed counterpart of
//! [`dlperf_core::sweep`].
//!
//! Enumerates candidate `(strategy, world size, topology, sharding plan)`
//! scenarios for a DLRM config and prices them all on
//! [`dlperf_core::sweep::par_map`] — the same work-distributing,
//! cancellation-aware primitive the single-GPU engine uses. Each cell goes
//! through the crate's one job pricer (the one the search's
//! [`crate::DistribAxis`] uses): build the job, resolve its topology, walk
//! every rank's segments through one shared [`MemoCache`]. Data-parallel
//! MLP segments are identical across ranks and plans, so the cache hit
//! rate across a plan sweep is high, and the parallel sweep stays bitwise
//! identical to the sequential one (pure evaluations, index-slotted
//! results).
//!
//! Scenario enumeration is *total*: a cell whose plan cannot be
//! constructed (or whose topology name is unknown) is emitted as a
//! labeled degraded cell and priced into a degraded result — never
//! silently dropped — so outcome lengths are stable functions of the
//! requested axes.

use dlperf_core::sweep::par_map;
use dlperf_gpusim::DeviceSpec;
use dlperf_kernels::{MemoCache, MemoCacheStats};
use dlperf_models::DlrmConfig;
use dlperf_runtime::CancellationToken;

use crate::builder::ParallelismStrategy;
use crate::plan::ShardingPlan;
use crate::predictor::{DistributedPrediction, DistributedPredictor};
use crate::topology::Topology;

/// One cell of a sharding sweep: a parallelism strategy, a candidate plan
/// (or the reason it could not be built), and optionally a pinned
/// topology.
#[derive(Debug, Clone)]
pub struct ShardingScenario {
    /// Display label, e.g. `"w4/round_robin"` or
    /// `"ib2x2/hybrid/w4/block"`.
    pub label: String,
    /// The candidate plan, or why constructing it failed (the cell is
    /// then priced as a degraded result instead of vanishing).
    pub plan: Result<ShardingPlan, String>,
    /// How the job is parallelized.
    pub strategy: ParallelismStrategy,
    /// The interconnect to price collectives on; `None` derives one from
    /// the predictor's device class.
    pub topology: Option<Topology>,
}

/// The outcome of one sharding scenario.
#[derive(Debug, Clone)]
pub struct ShardingResult {
    /// The scenario's label.
    pub label: String,
    /// The prediction, when the job built and priced successfully.
    pub prediction: Option<DistributedPrediction>,
    /// The failure, when it did not.
    pub error: Option<String>,
    /// Set when the cell was priced in a degraded mode (unknown topology
    /// modeled conservatively) rather than exactly as requested.
    pub degraded: Option<String>,
}

/// Enumerates candidate plans for `tables` embedding tables at each world
/// size: round-robin, block-contiguous, and a deliberately skewed
/// all-on-rank-0 straggler (the load-imbalance reference point of §V-B).
/// Order is deterministic: world sizes as given, plans in the order above.
/// Every world contributes exactly three cells — a plan that cannot be
/// built (zero tables, say) becomes a degraded cell, and at world 1 the
/// "skewed" plan is the trivial plan, labeled as such.
pub fn enumerate_plans(tables: usize, worlds: &[usize]) -> Vec<ShardingScenario> {
    let mut out = Vec::new();
    push_cells(&mut out, tables, worlds, "", ParallelismStrategy::Hybrid, |_| None);
    out
}

/// Enumerates the full `(topology × strategy × world × plan)` matrix:
/// every topology name is resolved per world via
/// [`Topology::from_name`] (unknown names resolve to conservatively
/// degraded topologies, never to missing cells), crossed with every
/// strategy and the three candidate plans of [`enumerate_plans`]. Labels
/// read `"{topology}/{strategy}/w{world}/{plan}"`. Order is
/// deterministic: topologies, then strategies, then worlds, then plans.
pub fn enumerate_matrix(
    tables: usize,
    worlds: &[usize],
    strategies: &[ParallelismStrategy],
    topologies: &[&str],
    device: &DeviceSpec,
) -> Vec<ShardingScenario> {
    let mut out = Vec::new();
    for &name in topologies {
        for &strategy in strategies {
            push_cells(&mut out, tables, worlds, &format!("{name}/{strategy}/"), strategy, |w| {
                Some(Topology::from_name(name, device, w))
            });
        }
    }
    out
}

/// Appends the three candidate cells of each world in `worlds`, labeled
/// `"{prefix}w{world}/{plan}"`, run under `strategy` on `topology(world)`.
fn push_cells(
    out: &mut Vec<ShardingScenario>,
    tables: usize,
    worlds: &[usize],
    prefix: &str,
    strategy: ParallelismStrategy,
    topology: impl Fn(usize) -> Option<Topology>,
) {
    for &w in worlds {
        let block: Vec<usize> = (0..tables).map(|t| t * w / tables.max(1)).collect();
        let plans = [
            ("round_robin", Ok(ShardingPlan::round_robin(tables, w))),
            ("block", ShardingPlan::new(block, w)),
            ("skewed0", ShardingPlan::new(vec![0; tables], w)),
        ];
        let topology = topology(w);
        for (name, plan) in plans {
            out.push(ShardingScenario {
                label: format!("{prefix}w{w}/{name}"),
                plan: plan.map_err(|e| e.to_string()),
                strategy,
                topology: topology.clone(),
            });
        }
    }
}

/// What a sharding sweep produced.
#[derive(Debug, Clone)]
pub struct ShardingSweepOutcome {
    /// One slot per scenario, in input order; `None` only under
    /// cancellation.
    pub results: Vec<Option<ShardingResult>>,
    /// Cache counters after the sweep.
    pub cache: MemoCacheStats,
}

impl ShardingSweepOutcome {
    /// The completed result with the lowest predicted E2E time.
    pub fn best(&self) -> Option<&ShardingResult> {
        self.results
            .iter()
            .flatten()
            .filter(|r| r.prediction.is_some())
            .min_by(|a, b| {
                let ta = a.prediction.as_ref().map(|p| p.e2e_us).unwrap_or(f64::INFINITY);
                let tb = b.prediction.as_ref().map(|p| p.e2e_us).unwrap_or(f64::INFINITY);
                ta.partial_cmp(&tb).expect("predictions are finite")
            })
    }
}

/// Prices every scenario on `threads` workers, sharing one memo cache.
/// Results are bitwise identical at any thread count: every cell is a
/// pure function of `(predictor, config, scenario)`, and memo hits return
/// the bits a miss would compute.
pub fn sweep_shardings(
    predictor: &DistributedPredictor,
    config: &DlrmConfig,
    scenarios: &[ShardingScenario],
    threads: usize,
    token: &CancellationToken,
) -> ShardingSweepOutcome {
    let cache = MemoCache::new();
    let results = par_map(threads, token, scenarios, |_, s| {
        let priced = s.plan.as_ref().map(|plan| {
            let topology = s.topology.as_ref();
            predictor.price(config.clone(), plan.clone(), s.strategy, topology, &cache)
        });
        let (prediction, error, degraded) = match priced {
            Err(reason) => (None, Some(format!("degraded: {reason}")), Some(reason.clone())),
            Ok(Err(e)) => (None, Some(e), None),
            Ok(Ok(p)) => {
                (Some(p), None, s.topology.as_ref().and_then(|t| t.degraded().map(str::to_string)))
            }
        };
        ShardingResult { label: s.label.clone(), prediction, error, degraded }
    });
    ShardingSweepOutcome { results, cache: cache.stats() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DistributedDlrm;
    use dlperf_core::pipeline::Pipeline;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_kernels::CalibrationEffort;

    fn predictor(cfg: &DlrmConfig) -> DistributedPredictor {
        let job =
            DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(cfg.rows_per_table.len(), 2))
                .unwrap();
        let segs = job.segments(0).to_vec();
        let device = DeviceSpec::v100();
        let pipe = Pipeline::analyze(&device, &segs, CalibrationEffort::Quick, 6, 17);
        DistributedPredictor::new(pipe.predictor().clone(), device)
    }

    #[test]
    fn enumeration_is_deterministic_and_covers_worlds() {
        let a = enumerate_plans(8, &[1, 2, 4]);
        let b = enumerate_plans(8, &[1, 2, 4]);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(
                x.plan.as_ref().unwrap().assignment(),
                y.plan.as_ref().unwrap().assignment()
            );
        }
        // Exactly three cells per world, every world, no silent drops.
        assert_eq!(a.len(), 3 * 3);
    }

    #[test]
    fn outcome_lengths_are_stable_even_for_unbuildable_cells() {
        // Zero tables: block and skewed plans cannot be built, but the
        // cells (and their results) still exist, labeled degraded.
        let cells = enumerate_plans(0, &[1, 2]);
        assert_eq!(cells.len(), 6);
        let degraded: Vec<&ShardingScenario> =
            cells.iter().filter(|c| c.plan.is_err()).collect();
        assert!(!degraded.is_empty(), "empty plans must surface as degraded cells");

        let cfg = DlrmConfig::default_config(512);
        let pred = predictor(&cfg);
        let token = CancellationToken::new();
        let out = sweep_shardings(&pred, &cfg, &cells, 1, &token);
        assert_eq!(out.results.len(), cells.len(), "one result slot per cell, always");
        for (cell, res) in cells.iter().zip(&out.results) {
            let res = res.as_ref().unwrap();
            if cell.plan.is_err() {
                assert!(res.error.as_deref().unwrap().starts_with("degraded:"));
                assert!(res.degraded.is_some());
            }
        }
    }

    #[test]
    fn matrix_crosses_topology_strategy_world_and_plan() {
        let device = DeviceSpec::v100();
        let strategies = [ParallelismStrategy::Hybrid, ParallelismStrategy::DataParallel];
        let cells = enumerate_matrix(8, &[2, 4], &strategies, &["auto", "ib2x2"], &device);
        assert_eq!(cells.len(), 2 * 2 * 2 * 3);
        assert!(cells.iter().all(|c| c.topology.is_some()));
        let labels: std::collections::BTreeSet<&str> =
            cells.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), cells.len(), "labels must be unique");
        assert!(labels.contains("ib2x2/dp/w4/block"), "{labels:?}");
        // ib2x2 pinned to world 4 resolves cleanly; at world 2 it cannot
        // (2x2 needs 4 ranks) and the topology degrades instead of lying.
        let mismatched = cells
            .iter()
            .find(|c| c.label == "ib2x2/hybrid/w2/round_robin")
            .unwrap();
        assert!(mismatched.topology.as_ref().unwrap().degraded().is_some());
    }

    #[test]
    fn parallel_sweep_matches_sequential_bitwise_and_hits_cache() {
        let cfg = DlrmConfig::default_config(512);
        let pred = predictor(&cfg);
        let scenarios = enumerate_plans(cfg.rows_per_table.len(), &[2, 4]);
        let token = CancellationToken::new();
        let seq = sweep_shardings(&pred, &cfg, &scenarios, 1, &token);
        let par = sweep_shardings(&pred, &cfg, &scenarios, 4, &token);
        let bits = |o: &ShardingSweepOutcome| -> Vec<Option<u64>> {
            o.results
                .iter()
                .map(|r| {
                    r.as_ref()
                        .and_then(|r| r.prediction.as_ref())
                        .map(|p| p.e2e_us.to_bits())
                })
                .collect()
        };
        assert_eq!(bits(&seq), bits(&par));
        assert!(seq.cache.hits > 0, "DP segments repeat across plans: {}", seq.cache);
        // The sweep should prefer a balanced plan over the straggler.
        let best = seq.best().unwrap();
        assert!(!best.label.contains("skewed"), "picked {}", best.label);
    }
}
