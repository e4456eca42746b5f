//! The what-if sweep engine: Algorithm 1 run *many* times, in parallel.
//!
//! The paper's value is not one prediction but a matrix of them — batch
//! sizes × devices × graph mutations (§V-A) — and serving such sweeps
//! fast is the production workload this crate targets. [`SweepEngine`]
//! fans a [`Scenario`] list across worker threads (a scoped
//! pool pulling indices from a shared claim counter, so fast workers
//! steal whatever slow workers have not started), honors a runtime
//! [`CancellationToken`] between scenarios, and can run under a
//! [`Supervisor`] with chunked checkpoints for kill/resume.
//!
//! Each scenario is priced by the crate's one what-if evaluator — the
//! same code the optimization search prices its candidates with. It
//! answers kernel-model queries from one [`dlperf_kernels::MemoCache`]
//! per calibrated pipeline, *prepares graphs once* (scenarios with the
//! same mutation list, e.g. the same `hoisted` variant priced on three
//! devices, share one transformed graph), and re-prices each scenario's
//! dirty frontier against a per-device baseline walk. All of it persists
//! across runs of the same engine on the same base graph (detected by
//! graph-index identity), so steady-state re-sweeps skip the transform,
//! the structural signature pass and the baseline walks entirely. With
//! caching off, and in supervised runs, each scenario is instead a fresh
//! transform plus a full walk — the reference all that reuse is checked
//! against.
//!
//! **Determinism contract:** every scenario evaluation is a pure function
//! of `(pipeline, base graph, scenario)`; results are written to the slot
//! of the scenario's *input index*, never in completion order; cache hits
//! are bitwise identical to model evaluations (see
//! [`dlperf_kernels::memo`]); and graph preparation is a deterministic
//! pure function of `(base, mutations)`, so sharing its output is
//! invisible. Consequently the parallel sweep is bitwise identical to the
//! sequential one at any thread count, cache on or off — `tests/sweep.rs`
//! pins that property.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dlperf_graph::transform::{
    fuse_embedding_bags, hoist_all, hoist_earliest, replace_op, resize_batch, TransformError,
};
use dlperf_graph::{Graph, NodeId, OpKind};
use dlperf_kernels::MemoCacheStats;
use dlperf_runtime::{
    CancellationToken, JobContext, JobError, ResumableJob, RunReport, StepOutcome, Supervisor,
    SupervisorError,
};
use serde::{Deserialize, Serialize};

use dlperf_nn::ArenaStats;

use crate::evaluator::Evaluator;
use crate::incremental::IncrementalStats;
use crate::pipeline::Pipeline;
use crate::predictor::{Prediction, WalkScratch};

/// A graph rewrite applied before pricing a scenario.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GraphMutation {
    /// Resize the captured graph to this batch size.
    ResizeBatch(u64),
    /// Fuse per-table embedding bags into one batched lookup (Fig. 11).
    FuseEmbeddingBags,
    /// Hoist every movable op as early as its dependencies allow.
    HoistAll,
    /// Hoist one node (by position) as early as its dependencies allow;
    /// an immovable node is left in place, out-of-range is an error.
    HoistNode(usize),
    /// Replace the operator of the node at this position, keeping its
    /// tensors — the canonical single-op what-if (e.g. an activation swap).
    ReplaceOp {
        /// Position of the node to rewrite.
        node: usize,
        /// The operator to substitute.
        op: OpKind,
    },
}

impl std::fmt::Display for GraphMutation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphMutation::ResizeBatch(b) => write!(f, "resize batch to {b}"),
            GraphMutation::FuseEmbeddingBags => write!(f, "fuse embedding bags"),
            GraphMutation::HoistAll => write!(f, "hoist all movable ops"),
            GraphMutation::HoistNode(i) => write!(f, "hoist node {i}"),
            GraphMutation::ReplaceOp { node, op } => {
                write!(f, "replace op at node {node} with {op:?}")
            }
        }
    }
}

/// Why preparing a mutated graph failed — the typed replacement for the
/// stringly `Result<Graph, String>` that used to flow through
/// [`prepare_graph`], the [`PreparedStore`], and the serve model registry.
/// The failing mutation rides along so rankers and servers can say *which*
/// rewrite was rejected, not just why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MutationError {
    /// A transform rejected the graph: its precondition failed, it found
    /// nothing to do, or it would have violated a data dependency.
    Transform {
        /// The mutation whose transform failed.
        mutation: GraphMutation,
        /// The transform-layer diagnosis.
        source: TransformError,
    },
}

impl MutationError {
    /// The mutation that failed.
    pub fn mutation(&self) -> &GraphMutation {
        match self {
            MutationError::Transform { mutation, .. } => mutation,
        }
    }

    /// The underlying transform error.
    pub fn source(&self) -> &TransformError {
        match self {
            MutationError::Transform { source, .. } => source,
        }
    }
}

impl std::fmt::Display for MutationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MutationError::Transform { mutation, source } => {
                // Keeps the historical "transform failed: …" prefix that
                // downstream error strings (and tests) key on.
                write!(f, "transform failed: {source} (while applying: {mutation})")
            }
        }
    }
}

impl std::error::Error for MutationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MutationError::Transform { source, .. } => Some(source),
        }
    }
}

/// One cell of a what-if matrix: which pipeline prices which mutated
/// graph. `device` indexes into the engine's pipeline list.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable label, unique within a sweep by construction of
    /// [`ScenarioMatrix`] (free-form when built by hand).
    pub label: String,
    /// Index of the pipeline (= calibrated device) that prices this cell.
    pub device: usize,
    /// Rewrites applied to the base graph, in order.
    pub mutations: Vec<GraphMutation>,
}

impl Scenario {
    /// A scenario pricing the unmodified base graph on `device`.
    pub fn new(label: impl Into<String>, device: usize) -> Self {
        Scenario { label: label.into(), device, mutations: Vec::new() }
    }

    /// Adds a mutation (builder style).
    pub fn with(mut self, m: GraphMutation) -> Self {
        self.mutations.push(m);
        self
    }
}

/// Cross-product builder for scenario lists: devices × batches ×
/// named graph variants, enumerated in a deterministic order
/// (device-major, then batch, then variant).
#[derive(Debug, Clone, Default)]
pub struct ScenarioMatrix {
    devices: Vec<(String, usize)>,
    batches: Vec<u64>,
    variants: Vec<(String, Vec<GraphMutation>)>,
}

impl ScenarioMatrix {
    /// An empty matrix. With no explicit axes, `build` yields nothing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a device axis entry: a display name plus the pipeline index.
    pub fn device(mut self, name: impl Into<String>, index: usize) -> Self {
        self.devices.push((name.into(), index));
        self
    }

    /// Adds batch-size axis entries (each becomes a `ResizeBatch`).
    pub fn batches(mut self, batches: &[u64]) -> Self {
        self.batches.extend_from_slice(batches);
        self
    }

    /// Adds a named graph-variant axis entry.
    pub fn variant(mut self, name: impl Into<String>, mutations: Vec<GraphMutation>) -> Self {
        self.variants.push((name.into(), mutations));
        self
    }

    /// Enumerates the full cross product.
    pub fn build(&self) -> Vec<Scenario> {
        let variants: &[(String, Vec<GraphMutation>)] = if self.variants.is_empty() {
            &[(String::from("base"), Vec::new())]
        } else {
            &self.variants
        };
        let batches: &[u64] = if self.batches.is_empty() { &[0] } else { &self.batches };
        let mut out = Vec::new();
        for (dev_name, dev) in &self.devices {
            for &b in batches {
                for (var_name, muts) in variants {
                    let mut mutations = Vec::new();
                    let mut label = dev_name.clone();
                    if b != 0 {
                        mutations.push(GraphMutation::ResizeBatch(b));
                        label.push_str(&format!("/b{b}"));
                    }
                    mutations.extend(muts.iter().cloned());
                    label.push_str(&format!("/{var_name}"));
                    out.push(Scenario { label, device: *dev, mutations });
                }
            }
        }
        out
    }
}

/// The outcome of one scenario. Errors (failed transforms, lowering
/// failures) are captured as strings rather than aborting the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    /// The scenario's label.
    pub label: String,
    /// The prediction, when the scenario priced successfully.
    pub prediction: Option<Prediction>,
    /// The failure, when it did not.
    pub error: Option<String>,
}

impl ScenarioResult {
    /// The prediction, panicking with the recorded error if the scenario
    /// failed — convenient in tests and examples that expect clean runs.
    pub fn expect_prediction(&self) -> &Prediction {
        match &self.prediction {
            Some(p) => p,
            None => panic!(
                "scenario `{}` failed: {}",
                self.label,
                self.error.as_deref().unwrap_or("unknown")
            ),
        }
    }
}

/// What a sweep run produced.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// One slot per input scenario, in input order. `None` only when the
    /// sweep was cancelled before that scenario ran.
    pub results: Vec<Option<ScenarioResult>>,
    /// Whether cancellation cut the sweep short.
    pub cancelled: bool,
    /// Threads used (the *effective* count after the available-parallelism
    /// cap, not the requested one).
    pub threads: usize,
    /// Wall-clock time of the run (milliseconds).
    pub wall_ms: f64,
    /// Merged cache counters at the end of the run (`None` with caching
    /// disabled). Counters accumulate across runs of the same engine.
    pub cache: Option<MemoCacheStats>,
    /// Aggregate incremental re-prediction accounting (`None` when the
    /// incremental path was off or no scenario went through it). Kept out
    /// of [`ScenarioResult`] on purpose: results stay byte-identical on
    /// disk whether or not the incremental fast path served them.
    pub incremental: Option<IncrementalSummary>,
}

/// Aggregate accounting of the incremental fast path over one sweep run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalSummary {
    /// Scenarios priced via [`crate::IncrementalPredictor::repredict`].
    pub scenarios: usize,
    /// Nodes whose state/costs were reused from a baseline (prefix+suffix).
    pub reused_nodes: usize,
    /// Dirty nodes re-lowered and re-priced.
    pub recomputed_nodes: usize,
    /// Scenarios whose suffix walk was skipped by a proven bitwise splice.
    pub spliced: usize,
    /// Scenarios that degenerated to a full walk (nothing reusable).
    pub full_fallbacks: usize,
}

impl IncrementalSummary {
    /// Folds one re-prediction's stats into the aggregate.
    pub fn absorb(&mut self, s: &IncrementalStats) {
        self.scenarios += 1;
        self.reused_nodes += s.prefix + s.suffix;
        self.recomputed_nodes += s.recomputed;
        self.spliced += usize::from(s.spliced);
        self.full_fallbacks += usize::from(s.full_fallback);
    }
}

/// Process-wide sweep counters, shared by every engine instance (sweeps
/// are a program-level activity; per-run accounting stays in
/// [`SweepOutcome`]).
struct SweepCounters {
    _group: Arc<dlperf_obs::CounterGroup>,
    runs: dlperf_obs::CounterHandle,
    scenarios: dlperf_obs::CounterHandle,
    errors: dlperf_obs::CounterHandle,
    cancelled: dlperf_obs::CounterHandle,
}

fn sweep_counters() -> &'static SweepCounters {
    static G: std::sync::OnceLock<SweepCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register(
            "core.sweep",
            &["runs", "scenarios", "errors", "cancelled"],
        );
        SweepCounters {
            runs: group.handle("runs"),
            scenarios: group.handle("scenarios"),
            errors: group.handle("errors"),
            cancelled: group.handle("cancelled"),
            _group: group,
        }
    })
}

impl SweepOutcome {
    /// Number of scenarios that actually ran.
    pub fn completed(&self) -> usize {
        self.results.iter().filter(|r| r.is_some()).count()
    }

    /// All results of a *complete* run, in input order.
    ///
    /// # Panics
    /// Panics if the sweep was cancelled before finishing.
    pub fn expect_complete(&self) -> Vec<&ScenarioResult> {
        self.results
            .iter()
            .map(|r| r.as_ref().expect("sweep was cancelled before completion"))
            .collect()
    }
}

/// The engine's execution primitive, re-exported from `dlperf-runtime` so
/// existing callers (`dlperf-distrib`, ingestion, search) keep their paths.
pub use dlperf_runtime::{par_map, par_map_with};

/// Applies a mutation list to a base graph — a deterministic pure
/// function of `(base, mutations)`, which is what makes sharing its
/// output across scenarios (and across the serve/offline boundary)
/// invisible to results.
///
/// # Errors
/// [`MutationError`] identifying the first transform that failed and why.
pub fn prepare_graph(base: &Graph, mutations: &[GraphMutation]) -> Result<Graph, MutationError> {
    let _span = dlperf_obs::span("sweep.prepare", dlperf_obs::SpanKind::Phase);
    let mut g = base.clone();
    for m in mutations {
        let r = match m {
            GraphMutation::ResizeBatch(b) => resize_batch(&mut g, *b).map(|_| ()),
            GraphMutation::FuseEmbeddingBags => fuse_embedding_bags(&mut g).map(|_| ()),
            GraphMutation::HoistAll => {
                hoist_all(&mut g);
                Ok(())
            }
            GraphMutation::HoistNode(i) => {
                if *i >= g.node_count() {
                    Err(TransformError::Precondition(format!(
                        "node position {i} out of range ({} nodes)",
                        g.node_count()
                    )))
                } else {
                    let id = g.nodes()[*i].id;
                    // An immovable node is a no-op, like HoistAll.
                    let _ = hoist_earliest(&mut g, id);
                    Ok(())
                }
            }
            GraphMutation::ReplaceOp { node, op } => {
                replace_op(&mut g, NodeId(*node), *op, format!("replaced:{op:?}"))
            }
        };
        if let Err(e) = r {
            return Err(MutationError::Transform { mutation: m.clone(), source: e });
        }
    }
    Ok(g)
}

/// Point-in-time counters of a [`PreparedStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PreparedStoreStats {
    /// Prepared graphs currently stored.
    pub graphs: usize,
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Graphs dropped by the LRU-by-epoch capacity cap.
    pub evictions: u64,
}

/// A prepared graph (or the preparation error) plus the epoch stamp of
/// its last access.
type StampedGraph = (Arc<Result<Graph, MutationError>>, u64);

#[derive(Debug, Default)]
struct PreparedInner {
    base: Option<Arc<dlperf_graph::GraphIndex>>,
    /// Each prepared graph carries its last-access epoch stamp for LRU
    /// eviction under the capacity cap.
    graphs: HashMap<Vec<GraphMutation>, StampedGraph>,
    epoch: u64,
}

/// Prepared graphs shared across runs and server workers, valid for a
/// single base graph. The base is identified by its cached
/// [`dlperf_graph::GraphIndex`] `Arc`: any structural mutation of the
/// base drops that cache (see `Graph::index`), so a changed pointer means
/// a changed base and clears the store. Holding the `Arc` keeps its
/// address from being reused by a later allocation. Everything stored is a
/// deterministic pure function of `(base, mutations)`, so reuse is
/// invisible in results.
///
/// Like [`dlperf_kernels::MemoCache`], the store can be capped
/// ([`PreparedStore::with_capacity`]): once `capacity` graphs are held,
/// inserting a new mutation list evicts the least-recently-accessed one.
/// Eviction changes only what gets re-prepared, never what a prepared
/// graph contains.
#[derive(Debug)]
pub struct PreparedStore {
    inner: Mutex<PreparedInner>,
    capacity: Option<usize>,
    obs: Arc<dlperf_obs::CounterGroup>,
    hits: dlperf_obs::CounterHandle,
    misses: dlperf_obs::CounterHandle,
    evictions: dlperf_obs::CounterHandle,
}

impl Default for PreparedStore {
    fn default() -> Self {
        Self::new()
    }
}

impl PreparedStore {
    /// An empty, unbounded store.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// An empty store holding at most `capacity` prepared graphs.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "prepared-store capacity must be positive");
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        let obs =
            dlperf_obs::CounterGroup::register("core.prepared", &["hits", "misses", "evictions"]);
        let hits = obs.handle("hits");
        let misses = obs.handle("misses");
        let evictions = obs.handle("evictions");
        PreparedStore {
            inner: Mutex::new(PreparedInner::default()),
            capacity,
            obs,
            hits,
            misses,
            evictions,
        }
    }

    /// The configured graph cap (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// This store's recorder counter group.
    pub fn counters(&self) -> &Arc<dlperf_obs::CounterGroup> {
        &self.obs
    }

    /// Clears the store unless it was built for `base_index`'s graph;
    /// returns whether it was cleared (re-bound to a new base).
    pub fn rebase(&self, base_index: &Arc<dlperf_graph::GraphIndex>) -> bool {
        let mut inner = self.inner.lock().expect("prepared store poisoned");
        let changed = inner.base.as_ref().is_none_or(|a| !Arc::ptr_eq(a, base_index));
        if changed {
            inner.base = Some(base_index.clone());
            inner.graphs.clear();
        }
        changed
    }

    /// The prepared graph for `mutations` of `base`: the stored one when
    /// present, otherwise prepared now (outside the lock) and stored. The
    /// store must be bound to `base` ([`PreparedStore::rebase`]).
    pub fn get_or_prepare(
        &self,
        base: &Graph,
        mutations: &[GraphMutation],
    ) -> Arc<Result<Graph, MutationError>> {
        match self.get(mutations) {
            Some(g) => g,
            None => self.insert(mutations.to_vec(), Arc::new(prepare_graph(base, mutations))),
        }
    }

    /// The prepared graph for `mutations`, refreshing its LRU stamp.
    pub fn get(&self, mutations: &[GraphMutation]) -> Option<Arc<Result<Graph, MutationError>>> {
        let mut inner = self.inner.lock().expect("prepared store poisoned");
        inner.epoch += 1;
        let stamp = inner.epoch;
        match inner.graphs.get_mut(mutations) {
            Some(entry) => {
                entry.1 = stamp;
                self.hits.incr();
                Some(entry.0.clone())
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Stores a prepared graph, evicting the least-recently-accessed one
    /// first when a *new* mutation list would exceed the cap. Returns the
    /// stored `Arc` (the existing one if another worker raced the insert —
    /// both hold the identical pure-function result).
    pub fn insert(
        &self,
        mutations: Vec<GraphMutation>,
        graph: Arc<Result<Graph, MutationError>>,
    ) -> Arc<Result<Graph, MutationError>> {
        let mut inner = self.inner.lock().expect("prepared store poisoned");
        inner.epoch += 1;
        let stamp = inner.epoch;
        if let Some(entry) = inner.graphs.get_mut(&mutations) {
            entry.1 = stamp;
            return entry.0.clone();
        }
        if self.capacity.is_some_and(|cap| inner.graphs.len() >= cap) {
            if let Some(victim) =
                inner.graphs.iter().min_by_key(|(_, &(_, e))| e).map(|(k, _)| k.clone())
            {
                inner.graphs.remove(&victim);
                self.evictions.incr();
            }
        }
        inner.graphs.insert(mutations, (graph.clone(), stamp));
        graph
    }

    /// Current counters and occupancy.
    pub fn stats(&self) -> PreparedStoreStats {
        let inner = self.inner.lock().expect("prepared store poisoned");
        PreparedStoreStats {
            graphs: inner.graphs.len(),
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }
}

/// Default hard cap on each per-pipeline memo cache. Generous — a sweep
/// over thousands of scenarios stays far below it — but it turns the
/// engine's steady-state memory from "proportional to distinct queries
/// ever seen" into a constant, which is what a long-lived service needs.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 20;

/// The parallel what-if sweep engine. See the module docs.
pub struct SweepEngine {
    /// Prices every scenario; owns the pipelines, caches, prepared graphs,
    /// baselines and the scratch pool. The pool persists across runs,
    /// which is what makes *steady-state* sweeps (the serve workload: same
    /// engine, run after run) allocation-free on the pricing hot path —
    /// capacity grown in run N serves run N+1.
    eval: Evaluator<'static>,
    threads: usize,
    token: CancellationToken,
    /// Scenarios evaluated per supervised checkpoint step.
    chunk: usize,
}

impl SweepEngine {
    /// Wraps calibrated pipelines (one per candidate device). Thread count
    /// defaults to the machine's available parallelism; caching and the
    /// incremental path are on, with each per-pipeline memo cache capped
    /// at [`DEFAULT_MEMO_CAPACITY`].
    ///
    /// # Panics
    /// Panics if `pipelines` is empty.
    pub fn new(pipelines: Vec<Pipeline>) -> Self {
        assert!(!pipelines.is_empty(), "sweep engine needs at least one pipeline");
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        SweepEngine {
            eval: Evaluator::new(Cow::Owned(pipelines)),
            threads,
            token: CancellationToken::new(),
            chunk: 16,
        }
    }

    /// Sets the worker-thread count (builder style). 1 = sequential.
    ///
    /// The effective count is capped at the machine's available
    /// parallelism: scenario pricing is CPU-bound, so oversubscribing a
    /// small host makes the sweep *slower* (context-switch and cache churn
    /// on the shared memo cache), not faster. Use
    /// [`SweepEngine::with_threads_exact`] to bypass the cap — e.g. in
    /// determinism tests, where scheduling chaos is the point.
    pub fn with_threads(mut self, threads: usize) -> Self {
        let cap = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        self.threads = threads.clamp(1, cap);
        self
    }

    /// Sets the worker-thread count with no available-parallelism cap
    /// (builder style). 1 = sequential.
    pub fn with_threads_exact(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Enables or disables the incremental fast path (builder style; on by
    /// default). When on, cached runs checkpoint one baseline walk per
    /// referenced device and price each scenario by dirty-frontier
    /// re-prediction — bitwise identical to the full walk, so this toggle
    /// changes speed and [`SweepOutcome::incremental`] accounting only.
    pub fn with_incremental(mut self, on: bool) -> Self {
        self.eval.incremental = on;
        self
    }

    /// Enables or disables caching (builder style; on by default): the
    /// kernel-model memo caches, prepared-graph sharing and the incremental
    /// path. Off, every scenario re-runs its transforms and walks the whole
    /// graph with every kernel priced afresh — the bitwise reference.
    pub fn with_cache(mut self, on: bool) -> Self {
        self.eval.cache = on;
        self
    }

    /// Installs a cancellation token shared with a supervisor/watchdog
    /// (builder style).
    pub fn with_cancellation(mut self, token: CancellationToken) -> Self {
        self.token = token;
        self
    }

    /// Sets the scenarios-per-checkpoint granularity of supervised runs
    /// (builder style).
    ///
    /// # Panics
    /// Panics if `chunk` is zero.
    pub fn with_chunk(mut self, chunk: usize) -> Self {
        assert!(chunk > 0, "checkpoint chunk must be positive");
        self.chunk = chunk;
        self
    }

    /// The calibrated pipelines, indexable by `Scenario::device`.
    pub fn pipelines(&self) -> &[Pipeline] {
        self.eval.pipelines()
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Aggregate arena reuse stats over the engine's parked scratches —
    /// the observable zero-allocation proof: across steady-state runs
    /// `takes` keeps climbing while `misses` stays flat, meaning every
    /// buffer checkout on the pricing hot path was served from pooled
    /// capacity. (`high_water_f64s` and `pooled` are summed across
    /// scratches.)
    pub fn scratch_stats(&self) -> ArenaStats {
        self.eval.scratch_stats()
    }

    /// Merged cache counters across all per-device caches.
    pub fn cache_stats(&self) -> MemoCacheStats {
        self.eval.cache_stats()
    }

    /// Binds the evaluator to `base` and, when the incremental path is on,
    /// checkpoints one baseline walk per device the scenario list
    /// references (kept across runs on the same base). A device whose base
    /// graph fails to lower gets no baseline; its scenarios fall back to
    /// the full walk — same bits either way.
    fn bind(&self, base: &Graph, scenarios: &[Scenario]) {
        self.eval.rebase(base);
        if !self.eval.incremental || self.token.is_cancelled() {
            return;
        }
        for d in 0..self.pipelines().len() {
            if scenarios.iter().any(|s| s.device == d) {
                let _ = self.eval.baseline(base, d);
            }
        }
    }

    /// Prices one scenario through the evaluator — `fresh` for the
    /// cache-off and supervised paths, shared otherwise. Failures (bad
    /// device index, failed transform, lowering error) become the result's
    /// error string rather than aborting the sweep. The stats are `Some`
    /// exactly when the incremental path served the prediction.
    fn price(
        &self,
        base: &Graph,
        s: &Scenario,
        fresh: bool,
        scratch: &mut WalkScratch,
    ) -> (ScenarioResult, Option<IncrementalStats>) {
        let _span =
            dlperf_obs::span_with(dlperf_obs::SpanKind::Work, || format!("scenario:{}", s.label));
        let counters = sweep_counters();
        counters.scenarios.incr();
        let label = s.label.clone();
        match self.eval.price(base, s.device, &s.mutations, fresh, scratch) {
            Ok(p) => {
                let result = ScenarioResult { label, prediction: Some(p.prediction), error: None };
                (result, p.incremental)
            }
            Err(e) => {
                counters.errors.incr();
                (ScenarioResult { label, prediction: None, error: Some(e) }, None)
            }
        }
    }

    /// Runs the sweep on the configured thread count.
    pub fn run(&self, base: &Graph, scenarios: &[Scenario]) -> SweepOutcome {
        self.run_on(self.threads, base, scenarios)
    }

    /// Runs the sweep strictly sequentially (the bitwise reference path).
    pub fn run_sequential(&self, base: &Graph, scenarios: &[Scenario]) -> SweepOutcome {
        self.run_on(1, base, scenarios)
    }

    fn run_on(&self, threads: usize, base: &Graph, scenarios: &[Scenario]) -> SweepOutcome {
        let _span = dlperf_obs::span("sweep.run", dlperf_obs::SpanKind::Phase);
        sweep_counters().runs.incr();
        let start = Instant::now();
        // Cached runs share prepared graphs and baselines; cache-off runs
        // price every scenario fresh.
        let fresh = !self.eval.cache;
        if !fresh {
            self.bind(base, scenarios);
            // Prepare each distinct mutation list once, in parallel,
            // before pricing: one worker transforms each list, so a run's
            // work does not depend on how the workers interleave.
            let mut seen = HashSet::new();
            let lists: Vec<&[GraphMutation]> = scenarios
                .iter()
                .map(|s| s.mutations.as_slice())
                .filter(|m| seen.insert(*m))
                .collect();
            par_map(threads, &self.token, &lists, |_, m| drop(self.eval.graph(base, m)));
        }
        // Each worker reuses one pooled scratch across all the scenarios
        // it claims.
        let priced = par_map_with(
            threads,
            &self.token,
            scenarios,
            || self.eval.scratch(),
            |scratch, _, s| self.price(base, s, fresh, scratch.get()),
        );
        let mut summary = IncrementalSummary::default();
        for stats in priced.iter().flatten().filter_map(|(_, stats)| stats.as_ref()) {
            summary.absorb(stats);
        }
        let results: Vec<Option<ScenarioResult>> =
            priced.into_iter().map(|slot| slot.map(|(result, _)| result)).collect();
        let cancelled = results.iter().any(|r| r.is_none());
        if cancelled {
            sweep_counters().cancelled.incr();
        }
        SweepOutcome {
            results,
            cancelled,
            threads,
            wall_ms: start.elapsed().as_secs_f64() * 1e3,
            cache: self.eval.cache.then(|| self.cache_stats()),
            incremental: (summary.scenarios > 0).then_some(summary),
        }
    }

    /// Runs the sweep under a [`Supervisor`]: scenarios are evaluated in
    /// chunks of [`SweepEngine::with_chunk`] size, each chunk one
    /// checkpointable step, so a killed sweep resumes from its last
    /// snapshot and still produces bitwise-identical results (every
    /// evaluation is a fresh transform plus a full walk, a pure function;
    /// see the module docs).
    pub fn run_supervised(
        &self,
        base: &Graph,
        scenarios: &[Scenario],
        supervisor: &mut Supervisor,
    ) -> (Result<Vec<ScenarioResult>, SupervisorError>, RunReport) {
        let job = SweepJob { engine: self, base, scenarios };
        let (result, report) = supervisor.run(&job);
        (result.map(|state| state.results), report)
    }
}

impl std::fmt::Debug for SweepEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepEngine")
            .field("pipelines", &self.pipelines().len())
            .field("threads", &self.threads)
            .field("use_cache", &self.eval.cache)
            .field("chunk", &self.chunk)
            .finish()
    }
}

/// Resumable progress of a supervised sweep.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SweepState {
    /// Results of the scenarios evaluated so far, in input order.
    results: Vec<ScenarioResult>,
}

/// A sweep packaged as a [`ResumableJob`]: step `i` always evaluates the
/// `i`-th chunk of the scenario list, independent of earlier steps.
struct SweepJob<'a> {
    engine: &'a SweepEngine,
    base: &'a Graph,
    scenarios: &'a [Scenario],
}

impl ResumableJob for SweepJob<'_> {
    type State = SweepState;
    type Output = SweepState;

    fn name(&self) -> &str {
        "core.sweep"
    }

    fn initial_state(&self) -> SweepState {
        SweepState::default()
    }

    fn step(&self, state: &mut SweepState, ctx: &JobContext) -> Result<StepOutcome, JobError> {
        ctx.check_cancelled()?;
        let done = state.results.len();
        let chunk =
            &self.scenarios[done..(done + self.engine.chunk).min(self.scenarios.len())];
        let results = par_map_with(
            self.engine.threads,
            &self.engine.token,
            chunk,
            || self.engine.eval.scratch(),
            |scratch, _, s| self.engine.price(self.base, s, true, scratch.get()).0,
        );
        for r in results {
            match r {
                Some(r) => state.results.push(r),
                None => return Err(JobError::Cancelled),
            }
        }
        if state.results.len() < self.scenarios.len() {
            Ok(StepOutcome::Continue)
        } else {
            Ok(StepOutcome::Done)
        }
    }

    fn finish(&self, state: SweepState) -> SweepState {
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;
    use dlperf_runtime::SupervisorConfig;

    fn engine() -> (SweepEngine, Graph) {
        let g = DlrmConfig {
            rows_per_table: vec![50_000; 4],
            ..DlrmConfig::default_config(256)
        }
        .build();
        let pipe = Pipeline::analyze(
            &DeviceSpec::v100(),
            std::slice::from_ref(&g),
            CalibrationEffort::Quick,
            6,
            21,
        );
        (SweepEngine::new(vec![pipe]), g)
    }

    fn bits(o: &SweepOutcome) -> Vec<(String, Option<u64>)> {
        o.expect_complete()
            .iter()
            .map(|r| (r.label.clone(), r.prediction.as_ref().map(|p| p.e2e_us.to_bits())))
            .collect()
    }

    #[test]
    fn matrix_enumerates_cross_product_deterministically() {
        let m = ScenarioMatrix::new()
            .device("V100", 0)
            .device("P100", 1)
            .batches(&[128, 256])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll]);
        let scenarios = m.build();
        assert_eq!(scenarios.len(), 8);
        assert_eq!(scenarios[0].label, "V100/b128/base");
        assert_eq!(scenarios[7].label, "P100/b256/hoisted");
        assert_eq!(scenarios, m.build(), "enumeration is deterministic");
        let json = serde_json::to_string(&scenarios[0]).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        assert_eq!(back, scenarios[0]);
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        let (eng, g) = engine();
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[128, 256, 512])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll])
            .build();
        let seq = eng.run_sequential(&g, &scenarios);
        let par = eng.with_threads_exact(4).run(&g, &scenarios);
        assert_eq!(bits(&seq), bits(&par));
    }

    #[test]
    fn with_threads_caps_at_available_parallelism() {
        let (eng, _) = engine();
        let cap = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        assert_eq!(eng.with_threads(4096).threads(), cap);
        let (eng, _) = engine();
        assert_eq!(eng.with_threads_exact(4096).threads(), 4096);
    }

    #[test]
    fn incremental_on_off_bitwise_identical_with_summary() {
        let (eng, g) = engine();
        let mut scenarios = vec![Scenario::new("base", 0)];
        for i in 0..4 {
            scenarios.push(
                Scenario::new(format!("swap{i}"), 0).with(GraphMutation::ReplaceOp {
                    node: g.node_count() / 2 + i,
                    op: OpKind::Sigmoid,
                }),
            );
        }
        let on = eng.run_sequential(&g, &scenarios);
        let summary = on.incremental.expect("incremental path on by default");
        assert!(summary.scenarios >= 1 && summary.scenarios <= scenarios.len());
        assert!(summary.reused_nodes > summary.recomputed_nodes);
        assert!(summary.spliced >= 1, "the unmutated scenario must splice: {summary:?}");

        let off = eng.with_incremental(false).run_sequential(&g, &scenarios);
        assert!(off.incremental.is_none());
        assert_eq!(bits(&on), bits(&off));
    }

    #[test]
    fn scratch_pool_reuses_capacity_across_runs_without_changing_bits() {
        // Cache off so every run actually performs batched inference (the
        // arena consumer); a warm memo cache would answer run 2 entirely
        // from hits and leave the arena untouched.
        let (eng, g) = engine();
        let eng = eng.with_cache(false);
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[128, 256])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll])
            .build();
        let first = eng.run_sequential(&g, &scenarios);
        let warm = eng.scratch_stats();
        assert!(warm.takes > 0, "pricing must go through the pooled scratches");
        assert!(warm.pooled > 0, "arena buffers must be parked between runs");

        // Steady state: the same sweep re-run on the warmed engine serves
        // every buffer checkout from pooled capacity and prices the same
        // bits.
        let second = eng.run_sequential(&g, &scenarios);
        let steady = eng.scratch_stats();
        assert_eq!(bits(&first), bits(&second));
        assert!(steady.takes > warm.takes);
        assert_eq!(steady.misses, warm.misses, "steady-state sweep must not allocate: {steady:?}");
    }

    #[test]
    fn replace_and_hoist_mutations_price_and_bad_positions_error() {
        let (eng, g) = engine();
        let scenarios = vec![
            Scenario::new("swap", 0)
                .with(GraphMutation::ReplaceOp { node: g.node_count() / 2, op: OpKind::Sigmoid }),
            Scenario::new("hoist-one", 0).with(GraphMutation::HoistNode(g.node_count() - 2)),
            Scenario::new("hoist-oob", 0).with(GraphMutation::HoistNode(g.node_count() + 7)),
            Scenario::new("swap-oob", 0)
                .with(GraphMutation::ReplaceOp { node: g.node_count() + 7, op: OpKind::Relu }),
        ];
        let out = eng.run(&g, &scenarios);
        let rs = out.expect_complete();
        assert!(rs[0].prediction.is_some(), "{:?}", rs[0].error);
        assert!(rs[1].prediction.is_some(), "{:?}", rs[1].error);
        assert!(rs[2].error.as_deref().unwrap().contains("out of range"));
        assert!(rs[3].error.is_some());
    }

    #[test]
    fn cache_on_off_equivalent_and_counts_hits() {
        let (eng, g) = engine();
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[256, 512])
            .variant("base", vec![])
            .variant("hoisted", vec![GraphMutation::HoistAll])
            .build();
        let cached = eng.run(&g, &scenarios);
        let stats = cached.cache.expect("cache enabled");
        assert!(stats.hits > 0, "hoisted variant shares every kernel: {stats}");
        let uncached = eng.with_cache(false).run(&g, &scenarios);
        assert!(uncached.cache.is_none());
        assert_eq!(bits(&cached), bits(&uncached));
    }

    #[test]
    fn bad_scenarios_record_errors_not_panics() {
        let (eng, g) = engine();
        let scenarios = vec![
            Scenario::new("ok", 0),
            Scenario::new("bad-device", 7),
            Scenario::new("bad-resize", 0).with(GraphMutation::ResizeBatch(0)),
        ];
        let out = eng.run(&g, &scenarios);
        let rs = out.expect_complete();
        assert!(rs[0].prediction.is_some());
        assert!(rs[1].error.as_deref().unwrap().contains("out of range"));
        assert!(rs[2].error.is_some());
    }

    #[test]
    fn cancelled_token_short_circuits() {
        let (eng, g) = engine();
        let token = CancellationToken::new();
        token.cancel();
        let eng = eng.with_cancellation(token);
        let scenarios =
            ScenarioMatrix::new().device("V100", 0).batches(&[128, 256]).build();
        let out = eng.run(&g, &scenarios);
        assert!(out.cancelled);
        assert_eq!(out.completed(), 0);
    }

    #[test]
    fn supervised_sweep_matches_direct_run() {
        let (eng, g) = engine();
        let scenarios = ScenarioMatrix::new()
            .device("V100", 0)
            .batches(&[128, 256, 512])
            .variant("base", vec![])
            .build();
        let direct = eng.run(&g, &scenarios);
        let eng2 = eng.with_chunk(2);
        let mut sup = Supervisor::new(SupervisorConfig::default());
        let (res, report) = eng2.run_supervised(&g, &scenarios, &mut sup);
        let supervised = res.expect("supervised sweep completes");
        assert_eq!(report.steps_completed, 2, "3 scenarios over chunk=2");
        let direct_bits: Vec<Option<u64>> = direct
            .expect_complete()
            .iter()
            .map(|r| r.prediction.as_ref().map(|p| p.e2e_us.to_bits()))
            .collect();
        let sup_bits: Vec<Option<u64>> = supervised
            .iter()
            .map(|r| r.prediction.as_ref().map(|p| p.e2e_us.to_bits()))
            .collect();
        assert_eq!(direct_bits, sup_bits);
    }
}
