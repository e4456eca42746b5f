//! The one what-if evaluator behind [`SweepEngine`] and
//! [`OptimizationSearch`].
//!
//! A what-if is a `(device, mutations)` pair: which calibrated pipeline
//! prices which rewrite of a shared base graph. Both the sweep and the
//! search price candidates through [`Evaluator::price`], so they share the
//! reuse machinery and cannot drift apart:
//!
//! * one [`MemoCache`] per device for kernel-model queries;
//! * a [`PreparedStore`], so each mutation list is transformed (and its
//!   graph index built) once per base graph;
//! * one checkpointed [`IncrementalPredictor`] baseline per device, so a
//!   candidate re-prices only its dirty frontier;
//! * a pool of [`WalkScratch`]es, one checked out per worker.
//!
//! Every piece of reuse is invisible in the bits: a memo hit equals a
//! model evaluation, preparation is a pure function of `(base,
//! mutations)`, and incremental re-prediction equals a full walk. A
//! *fresh* price skips the store and the baselines — a new transform
//! plus a full walk, uncached when `cache` is off — and is the bitwise
//! reference the reuse is checked against.
//!
//! [`SweepEngine`]: crate::sweep::SweepEngine
//! [`OptimizationSearch`]: crate::search::OptimizationSearch

use std::borrow::Cow;
use std::sync::{Arc, Mutex};

use dlperf_graph::lower::LowerError;
use dlperf_graph::Graph;
use dlperf_kernels::{MemoCache, MemoCacheStats};
use dlperf_nn::ArenaStats;

use crate::incremental::{IncrementalPredictor, IncrementalStats};
use crate::pipeline::Pipeline;
use crate::predictor::{uncancelled, Prediction, WalkScratch};
use crate::sweep::{
    prepare_graph, GraphMutation, MutationError, PreparedStore, DEFAULT_MEMO_CAPACITY,
};

/// A prepared graph, or why its mutation list failed to apply.
pub(crate) type PreparedGraph = Arc<Result<Graph, MutationError>>;

/// One priced what-if.
pub(crate) struct Priced {
    /// The candidate's prepared graph (shared with the store unless the
    /// price was fresh).
    pub(crate) graph: PreparedGraph,
    /// Its prediction, bitwise identical to a full walk of `graph`.
    pub(crate) prediction: Prediction,
    /// Set exactly when a device baseline served the prediction.
    pub(crate) incremental: Option<IncrementalStats>,
}

/// Per-device caches, prepared graphs, incremental baselines and scratch
/// pool over a list of calibrated pipelines. See the module docs.
pub(crate) struct Evaluator<'a> {
    pipelines: Cow<'a, [Pipeline]>,
    caches: Vec<MemoCache>,
    prepared: PreparedStore,
    baselines: Mutex<Vec<Option<Arc<IncrementalPredictor>>>>,
    pool: Mutex<Vec<WalkScratch>>,
    /// Answer kernel queries from the per-device memo caches.
    pub(crate) cache: bool,
    /// Price shared (non-fresh) what-ifs through a device's baseline when
    /// one has been built.
    pub(crate) incremental: bool,
}

impl<'a> Evaluator<'a> {
    /// An evaluator over `pipelines` (indexed by device) with caching and
    /// incremental re-prediction on and every cache empty.
    pub(crate) fn new(pipelines: Cow<'a, [Pipeline]>) -> Self {
        let n = pipelines.len();
        Evaluator {
            caches: (0..n).map(|_| MemoCache::with_capacity(DEFAULT_MEMO_CAPACITY)).collect(),
            prepared: PreparedStore::new(),
            baselines: Mutex::new(vec![None; n]),
            pool: Mutex::new(Vec::new()),
            cache: true,
            incremental: true,
            pipelines,
        }
    }

    /// The calibrated pipelines, indexed by device.
    pub(crate) fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// Binds the prepared graphs and baselines to `base`, dropping both if
    /// they were built for another base graph. Call before pricing.
    pub(crate) fn rebase(&self, base: &Graph) {
        if self.prepared.rebase(&base.index()) {
            self.baselines.lock().expect("baselines poisoned").fill(None);
        }
    }

    /// The prepared graph for `mutations`, transformed on first request
    /// and shared from the store afterwards.
    pub(crate) fn graph(&self, base: &Graph, mutations: &[GraphMutation]) -> PreparedGraph {
        self.prepared.get_or_prepare(base, mutations)
    }

    /// The checkpointed baseline walk of `base` on `device`, built on first
    /// request and kept until the base changes.
    ///
    /// # Errors
    /// Returns a [`LowerError`] if the base graph fails to lower there.
    pub(crate) fn baseline(
        &self,
        base: &Graph,
        device: usize,
    ) -> Result<Arc<IncrementalPredictor>, LowerError> {
        if let Some(b) = &self.baselines.lock().expect("baselines poisoned")[device] {
            return Ok(b.clone());
        }
        let predictor = self.pipelines[device].predictor().clone();
        let built = Arc::new(match self.memo(device) {
            Some(cache) => IncrementalPredictor::with_cache(predictor, base.clone(), cache)?,
            None => IncrementalPredictor::new(predictor, base.clone())?,
        });
        self.baselines.lock().expect("baselines poisoned")[device] = Some(built.clone());
        Ok(built)
    }

    /// Prices `mutations` of `base` on `device` — the one pricing call.
    ///
    /// A shared price takes the graph from the store and goes through the
    /// device's baseline when incremental re-prediction is on and one was
    /// built. A `fresh` price transforms `base` anew and walks the whole
    /// graph. The bits are the same either way.
    ///
    /// # Errors
    /// A rendered reason when the device is out of range, a mutation fails
    /// to apply, or the prepared graph fails to lower.
    pub(crate) fn price(
        &self,
        base: &Graph,
        device: usize,
        mutations: &[GraphMutation],
        fresh: bool,
        scratch: &mut WalkScratch,
    ) -> Result<Priced, String> {
        let Some(pipeline) = self.pipelines.get(device) else {
            return Err(format!(
                "device index {device} out of range ({} pipelines)",
                self.pipelines.len()
            ));
        };
        let (graph, baseline) = if fresh {
            (Arc::new(prepare_graph(base, mutations)), None)
        } else {
            let baseline = if self.incremental {
                self.baselines.lock().expect("baselines poisoned")[device].clone()
            } else {
                None
            };
            (self.graph(base, mutations), baseline)
        };
        let g = graph.as_ref().as_ref().map_err(|e| e.to_string())?;
        let cache = self.memo(device);
        let (prediction, incremental) = match baseline {
            Some(b) => b.repredict_scratch(g, cache, scratch).map(|(p, s)| (p, Some(s))),
            None => uncancelled(pipeline.predictor().walk(g, cache, None, scratch))
                .map(|p| (p, None)),
        }
        .map_err(|e| format!("lowering failed: {e}"))?;
        Ok(Priced { graph, prediction, incremental })
    }

    /// Checks a walk scratch out of the pool for one worker.
    pub(crate) fn scratch(&self) -> PooledScratch<'_> {
        let scratch = self.pool.lock().expect("scratch pool poisoned").pop().unwrap_or_default();
        PooledScratch { pool: &self.pool, scratch: Some(scratch) }
    }

    /// Merged counters of the per-device memo caches.
    pub(crate) fn cache_stats(&self) -> MemoCacheStats {
        let all: Vec<MemoCacheStats> = self.caches.iter().map(|c| c.stats()).collect();
        MemoCacheStats::merged(&all)
    }

    /// Arena reuse counters summed over the parked scratches.
    pub(crate) fn scratch_stats(&self) -> ArenaStats {
        let pool = self.pool.lock().expect("scratch pool poisoned");
        let mut agg = ArenaStats::default();
        for s in pool.iter() {
            let st = s.arena_stats();
            agg.takes += st.takes;
            agg.misses += st.misses;
            agg.high_water_f64s += st.high_water_f64s;
            agg.pooled += st.pooled;
        }
        agg
    }

    fn memo(&self, device: usize) -> Option<&MemoCache> {
        self.cache.then(|| &self.caches[device])
    }
}

/// A [`WalkScratch`] checked out of an evaluator's pool, returned on drop
/// so worker panics and early exits cannot leak grown capacity.
pub(crate) struct PooledScratch<'a> {
    pool: &'a Mutex<Vec<WalkScratch>>,
    scratch: Option<WalkScratch>,
}

impl PooledScratch<'_> {
    pub(crate) fn get(&mut self) -> &mut WalkScratch {
        self.scratch.as_mut().expect("scratch present until drop")
    }
}

impl Drop for PooledScratch<'_> {
    fn drop(&mut self) {
        if let Some(s) = self.scratch.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(s);
            }
        }
    }
}
