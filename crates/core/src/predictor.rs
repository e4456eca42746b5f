//! Algorithm 1: the critical-path E2E training-time predictor.
//!
//! For every op the predictor adds T1 (and T2 when the op launches kernels)
//! to the CPU clock; each kernel then starts at
//! `max(gpu_time + gap, cpu_time + T4/2, dependencies)` — so host overheads
//! that are not hidden behind running kernels become predicted device idle
//! time — and its predicted duration advances the GPU clock while T4/T5
//! advance the CPU clock. T3 closes the op. The predicted per-batch time is
//! `max(cpu_time, gpu_time)` at the end of the graph.
//!
//! Two generalizations over the paper's listing: multiple GPU clocks (one
//! per stream, honouring the *parallelize* transformation) and tensor-level
//! data dependencies (from the execution graph), both of which degenerate
//! to Algorithm 1 on single-stream graphs.

use dlperf_graph::lower::{self, LowerError};
use dlperf_graph::{Graph, Node, TensorId};
use dlperf_gpusim::KernelSpec;
use dlperf_kernels::{Confidence, MemoCache, MemoScratch, ModelRegistry};
use dlperf_nn::arena::ScratchArena;
use dlperf_nn::ArenaStats;
use dlperf_runtime::CancellationToken;
use dlperf_trace::{OverheadStats, OverheadType};
use serde::{Deserialize, Serialize};

/// Why a cancellable prediction did not produce a value.
#[derive(Debug)]
pub enum PredictError {
    /// The graph failed to lower (malformed shapes).
    Lower(LowerError),
    /// The walk observed its [`CancellationToken`] mid-flight — deadline
    /// expired or shutdown requested — and stopped within one op step.
    Cancelled,
}

impl std::fmt::Display for PredictError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PredictError::Lower(e) => write!(f, "lowering failed: {e}"),
            PredictError::Cancelled => write!(f, "prediction cancelled before completion"),
        }
    }
}

impl std::error::Error for PredictError {}

impl From<LowerError> for PredictError {
    fn from(e: LowerError) -> Self {
        PredictError::Lower(e)
    }
}

/// Process-wide walk counters: how many Algorithm-1 walks ran and how many
/// nodes they stepped. Accumulated locally per walk (one atomic add each),
/// so the per-node hot loop carries no instrumentation.
struct WalkCounters {
    _group: std::sync::Arc<dlperf_obs::CounterGroup>,
    walks: dlperf_obs::CounterHandle,
    nodes: dlperf_obs::CounterHandle,
}

fn walk_counters() -> &'static WalkCounters {
    static G: std::sync::OnceLock<WalkCounters> = std::sync::OnceLock::new();
    G.get_or_init(|| {
        let group = dlperf_obs::CounterGroup::register("core.walk", &["walks", "nodes"]);
        let walks = group.handle("walks");
        let nodes = group.handle("nodes");
        WalkCounters { _group: group, walks, nodes }
    })
}

/// How T4 (CUDA runtime call time) is priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum T4Policy {
    /// A fixed approximation for all runtime functions; the paper uses
    /// 10 µs on its platforms.
    Fixed(f64),
    /// The measured per-op mean from the overhead database.
    Measured,
}

/// Which granularity of the overhead database to read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadGranularity {
    /// Per-(op type, overhead type) means — the paper's `E2E` setting.
    PerOp,
    /// Type-level means only — the coarsest ablation (one number per Tn).
    TypeOnly,
}

/// Output of one prediction.
///
/// Serializable so sweep checkpoints and golden snapshots can carry
/// predictions verbatim (every field round-trips bitwise through the
/// vendored JSON layer).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Prediction {
    /// Predicted E2E per-batch training time (µs).
    pub e2e_us: f64,
    /// Predicted GPU active time: the sum of predicted kernel times (µs).
    pub active_us: f64,
    /// Final CPU clock (µs).
    pub cpu_us: f64,
    /// Final GPU clock (max across streams, µs).
    pub gpu_us: f64,
    /// Kernels priced by the degraded datasheet-roofline fallback because
    /// no calibrated model was registered for their family. Zero means the
    /// whole prediction is calibrated; non-zero predictions should be
    /// treated as best-effort estimates.
    pub degraded_kernels: usize,
}

impl Prediction {
    /// Predicted GPU utilization.
    pub fn utilization(&self) -> f64 {
        if self.e2e_us > 0.0 {
            (self.active_us / self.e2e_us).min(1.0)
        } else {
            0.0
        }
    }

    /// Whether every kernel was priced by a calibrated model.
    pub fn is_fully_calibrated(&self) -> bool {
        self.degraded_kernels == 0
    }
}

/// The E2E predictor: kernel models + overhead database + policies.
#[derive(Debug, Clone)]
pub struct E2ePredictor {
    registry: ModelRegistry,
    overheads: OverheadStats,
    t4_policy: T4Policy,
    granularity: OverheadGranularity,
    /// Device-side gap between dependent kernels (the paper's `+1` in
    /// Algorithm 1 line 11); 0 by default.
    kernel_gap_us: f64,
    /// Fraction of T4 after which a launched kernel may start on the device
    /// (Algorithm 1 uses `cpu_time + T4/2`, i.e. 0.5).
    launch_factor: f64,
}

impl E2ePredictor {
    /// Creates a predictor with the paper's defaults: per-op overheads and
    /// a fixed T4 approximation.
    pub fn new(registry: ModelRegistry, overheads: OverheadStats) -> Self {
        E2ePredictor {
            registry,
            overheads,
            t4_policy: T4Policy::Fixed(12.0),
            granularity: OverheadGranularity::PerOp,
            kernel_gap_us: 0.0,
            launch_factor: 0.5,
        }
    }

    /// Sets the T4 policy (builder style).
    pub fn with_t4_policy(mut self, policy: T4Policy) -> Self {
        self.t4_policy = policy;
        self
    }

    /// Sets the overhead-database granularity (builder style).
    pub fn with_granularity(mut self, granularity: OverheadGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Sets the inter-kernel device gap (builder style).
    pub fn with_kernel_gap(mut self, gap_us: f64) -> Self {
        self.kernel_gap_us = gap_us;
        self
    }

    /// Sets the launch-point factor: a kernel may start at
    /// `cpu_time + factor x T4` (builder style; Algorithm 1 uses 0.5).
    pub fn with_launch_factor(mut self, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&factor), "launch factor must be in [0, 1]");
        self.launch_factor = factor;
        self
    }

    /// Replaces the overhead database (e.g. swapping individual for shared).
    pub fn set_overheads(&mut self, overheads: OverheadStats) {
        self.overheads = overheads;
    }

    /// The kernel-model registry.
    pub fn registry(&self) -> &ModelRegistry {
        &self.registry
    }

    /// The overhead database this predictor reads — lets callers build a
    /// sibling predictor (e.g. a degraded roofline twin on the same
    /// device) from the same analysis products.
    pub fn overheads(&self) -> &OverheadStats {
        &self.overheads
    }

    fn overhead(&self, op_key: &str, ty: OverheadType) -> f64 {
        match self.granularity {
            OverheadGranularity::PerOp => self.overheads.mean_us(op_key, ty),
            OverheadGranularity::TypeOnly => {
                self.overheads.type_stat(ty).map(|s| s.mean_us).unwrap_or(0.0)
            }
        }
    }

    fn t4(&self, op_key: &str) -> f64 {
        match self.t4_policy {
            T4Policy::Fixed(v) => v,
            T4Policy::Measured => self.overhead(op_key, OverheadType::T4),
        }
    }

    /// The inter-kernel device gap (for the incremental walk).
    pub(crate) fn kernel_gap(&self) -> f64 {
        self.kernel_gap_us
    }

    /// The launch-point factor (for the incremental walk).
    pub(crate) fn launch(&self) -> f64 {
        self.launch_factor
    }

    /// Predicts the per-batch training time of `graph` (Algorithm 1): the
    /// [`E2ePredictor::walk`] on a fresh scratch, uncached.
    ///
    /// # Errors
    /// Returns a [`LowerError`] if an op's tensor shapes are inconsistent.
    pub fn predict(&self, graph: &Graph) -> Result<Prediction, LowerError> {
        uncancelled(self.walk(graph, None, None, &mut WalkScratch::new()))
    }

    /// Like [`E2ePredictor::predict`], but answering kernel-model queries
    /// from `cache` when possible (see [`MemoCache`] for why a hit is
    /// bitwise identical to a model evaluation). The cache must be
    /// dedicated to this predictor's registry.
    ///
    /// # Errors
    /// Returns a [`LowerError`] on malformed graphs.
    pub fn predict_memoized(
        &self,
        graph: &Graph,
        cache: &MemoCache,
    ) -> Result<Prediction, LowerError> {
        uncancelled(self.walk(graph, Some(cache), None, &mut WalkScratch::new()))
    }

    /// The Algorithm 1 walk — the one function that prices a whole graph.
    /// It runs in two phases: lower every node and price all kernels in one
    /// batched call (through `cache` when given), then step the CPU and GPU
    /// clocks node by node.
    ///
    /// Every intermediate lives in `scratch`, so once its buffers reach
    /// their high-water mark, further walks of graphs no larger allocate
    /// nothing. `token` is checked once per node in both phases: a deadline
    /// or shutdown is observed within one op step and surfaces as
    /// [`PredictError::Cancelled`]. A walk that completes is bitwise
    /// identical whatever the cache, token or scratch history — the checks
    /// read, never write, the walk state.
    ///
    /// # Errors
    /// [`PredictError::Lower`] on malformed graphs,
    /// [`PredictError::Cancelled`] when the token fired first.
    pub fn walk(
        &self,
        graph: &Graph,
        cache: Option<&MemoCache>,
        token: Option<&CancellationToken>,
        scratch: &mut WalkScratch,
    ) -> Result<Prediction, PredictError> {
        let _span = dlperf_obs::span("walk", dlperf_obs::SpanKind::Work);
        self.stage(graph, 0..graph.node_count(), cache, token, scratch)?;
        self.step_staged(graph, token, scratch)?;
        let counters = walk_counters();
        counters.walks.incr();
        counters.nodes.add(graph.node_count() as u64);
        Ok(scratch.state.finish())
    }

    /// The walk's first phase, shared with the incremental predictor:
    /// lowers the nodes at positions `nodes` of `graph` and stages their
    /// kernel specs, per-node ranges and overheads in `scratch`, then
    /// prices every staged kernel in **one** evaluator call. Seeing the
    /// concatenated kernel list (in node order) lets the registry batch
    /// per-family MLP inference and memo-cache traffic instead of going
    /// kernel by kernel.
    pub(crate) fn stage(
        &self,
        graph: &Graph,
        nodes: std::ops::Range<usize>,
        cache: Option<&MemoCache>,
        token: Option<&CancellationToken>,
        scratch: &mut WalkScratch,
    ) -> Result<(), PredictError> {
        scratch.specs.clear();
        scratch.ranges.clear();
        scratch.oh.clear();
        scratch.values.clear();
        for node in &graph.nodes()[nodes] {
            if token.is_some_and(|t| t.is_cancelled()) {
                return Err(PredictError::Cancelled);
            }
            let start = scratch.specs.len();
            scratch.specs.extend(lower::try_kernels(graph, node)?);
            scratch.ranges.push(start..scratch.specs.len());
            scratch.oh.push(self.overheads_of(node.op.overhead_key()));
        }
        match cache {
            Some(cache) => self.registry.predict_batch_memoized_into(
                cache,
                &scratch.specs,
                &mut scratch.memo,
                &mut scratch.arena,
                &mut scratch.values,
            ),
            None => self.registry.predict_batch_with_confidence_into(
                &scratch.specs,
                &mut scratch.arena,
                &mut scratch.values,
            ),
        }
        Ok(())
    }

    /// The walk's second phase: steps fresh clocks over every node of
    /// `graph` from the costs [`E2ePredictor::stage`] left in `scratch`.
    fn step_staged(
        &self,
        graph: &Graph,
        token: Option<&CancellationToken>,
        scratch: &mut WalkScratch,
    ) -> Result<(), PredictError> {
        scratch.state.reset();
        for ((node, r), oh) in graph.nodes().iter().zip(&scratch.ranges).zip(&scratch.oh) {
            if token.is_some_and(|t| t.is_cancelled()) {
                return Err(PredictError::Cancelled);
            }
            scratch.state.step_parts(
                node,
                oh,
                &scratch.values[r.clone()],
                self.kernel_gap_us,
                self.launch_factor,
            );
        }
        Ok(())
    }

    /// The five launch overheads of one op key. Pure in `op_key` given the
    /// predictor's frozen overhead database and policies — two
    /// structurally identical nodes get bitwise identical overheads, the
    /// property incremental re-prediction's prefix/suffix reuse rests on.
    pub(crate) fn overheads_of(&self, op_key: &str) -> Overheads {
        Overheads {
            t1: self.overhead(op_key, OverheadType::T1),
            t2: self.overhead(op_key, OverheadType::T2),
            t3: self.overhead(op_key, OverheadType::T3),
            t4: self.t4(op_key),
            t5: self.overhead(op_key, OverheadType::T5),
        }
    }
}

/// Narrows the result of a walk run without a token to its only possible
/// failure.
pub(crate) fn uncancelled<T>(r: Result<T, PredictError>) -> Result<T, LowerError> {
    r.map_err(|e| match e {
        PredictError::Lower(e) => e,
        PredictError::Cancelled => unreachable!("no cancellation token supplied"),
    })
}

/// The five launch overheads of one node, `Copy` so scratch paths can
/// stage them in a flat reusable vec with no per-node allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Overheads {
    pub(crate) t1: f64,
    pub(crate) t2: f64,
    pub(crate) t3: f64,
    pub(crate) t4: f64,
    pub(crate) t5: f64,
}

/// Reusable scratch for repeated Algorithm-1 walks: every container a walk
/// touches, kept at high-water capacity across calls. One scratch serves
/// one walk at a time (methods take `&mut`); a sweep worker owns one and
/// reuses it for every scenario it prices, which is what makes the
/// steady-state sweep hot path allocation-free. Dropping a scratch simply
/// frees the buffers — there is no state that must be flushed.
#[derive(Debug, Default)]
pub struct WalkScratch {
    /// Concatenated kernel specs of the whole graph, in node order.
    pub(crate) specs: Vec<KernelSpec>,
    /// Per-node span into `specs` / `values`.
    pub(crate) ranges: Vec<std::ops::Range<usize>>,
    /// Predicted `(time, confidence)` per kernel, parallel to `specs`.
    pub(crate) values: Vec<(f64, Confidence)>,
    /// Per-node launch overheads, parallel to `ranges`.
    pub(crate) oh: Vec<Overheads>,
    /// The walk clocks, reset (not reallocated) per prediction.
    pub(crate) state: WalkState,
    /// Second state used by incremental splice-back verification.
    pub(crate) base_state: WalkState,
    /// Memo-cache probe staging (keys, slots, dedup tables).
    pub(crate) memo: MemoScratch,
    /// Arena backing the MLP forward buffers and feature matrices.
    pub(crate) arena: ScratchArena,
}

impl WalkScratch {
    /// An empty scratch; buffers grow to their high-water mark on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocation counters of the backing arena — the observable proof of
    /// buffer reuse: across steady-state walks `takes` climbs while
    /// `misses` stays flat.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }
}

/// "No readiness recorded" sentinel for the dense tensor-ready table.
/// Never a legitimate readiness value (those are finite, non-negative
/// clock times), and absorbed bitwise-neutrally by the `max` folds below:
/// `max(x, -inf) == x` and the fold still starts at `0.0`.
pub(crate) const NOT_READY: f64 = f64::NEG_INFINITY;

/// The mutable clock state of an Algorithm 1 walk. [`WalkState::step_parts`]
/// is the *only* place the stepping arithmetic exists; the walk and the
/// incremental predictor both drive it, which is what makes incremental
/// re-prediction bitwise identical to a fresh walk by construction.
///
/// The containers are deliberately flat — a linear-scanned vec for the
/// handful of streams and a [`TensorId`]-indexed table for readiness —
/// because the walk and the incremental predictor's state replay are
/// container-bound, not float-bound, and hashing dominated both. Container
/// choice cannot affect results: every fold over them (`dep_ready`,
/// [`WalkState::finish`]) is a `max`, which is order-independent for the
/// finite non-negative values stored here.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct WalkState {
    pub(crate) cpu: f64,
    /// Per-stream GPU clock, keyed by stream id, in first-touch order.
    pub(crate) streams: Vec<(usize, f64)>,
    /// Readiness time per tensor, indexed by [`TensorId`]; [`NOT_READY`]
    /// where no producer has run.
    pub(crate) tensor_ready: Vec<f64>,
    pub(crate) active: f64,
    pub(crate) degraded: usize,
}

impl WalkState {
    /// Returns the state to the fresh-walk initial value while keeping the
    /// stream and tensor-ready container capacities, so a reused state
    /// walks subsequent graphs without reallocating. A reset state is
    /// indistinguishable from a default state to every reader: the
    /// tensor table is emptied, not zeroed, and `set_ready` re-grows it
    /// with [`NOT_READY`] exactly as a fresh walk would.
    pub(crate) fn reset(&mut self) {
        self.cpu = 0.0;
        self.streams.clear();
        self.tensor_ready.clear();
        self.active = 0.0;
        self.degraded = 0;
    }

    /// Sets a stream's clock, creating the slot on first touch.
    pub(crate) fn set_stream(&mut self, stream: usize, clock: f64) {
        match self.streams.iter_mut().find(|(s, _)| *s == stream) {
            Some(slot) => slot.1 = clock,
            None => self.streams.push((stream, clock)),
        }
    }

    /// The clock of `stream`, if any kernel has launched on it.
    pub(crate) fn stream_clock(&self, stream: usize) -> Option<f64> {
        self.streams.iter().find(|&&(s, _)| s == stream).map(|&(_, c)| c)
    }

    /// Records the readiness time of one tensor.
    pub(crate) fn set_ready(&mut self, t: TensorId, ready: f64) {
        if t.0 >= self.tensor_ready.len() {
            self.tensor_ready.resize(t.0 + 1, NOT_READY);
        }
        self.tensor_ready[t.0] = ready;
    }

    /// The recorded readiness bits of one tensor, `None` if unwritten.
    pub(crate) fn ready_bits(&self, t: TensorId) -> Option<u64> {
        self.tensor_ready
            .get(t.0)
            .map(|v| v.to_bits())
            .filter(|&b| b != NOT_READY.to_bits())
    }

    /// Advances the clocks over one node, given its overheads and the
    /// predicted `(time, confidence)` of each kernel it launches, in launch
    /// order. The float operation sequence is frozen: any reordering (even
    /// an algebraically neutral one) changes low bits and breaks the
    /// determinism contract pinned by the golden snapshots.
    pub(crate) fn step_parts(
        &mut self,
        node: &Node,
        oh: &Overheads,
        kernels: &[(f64, Confidence)],
        gap_us: f64,
        launch_factor: f64,
    ) {
        self.cpu += oh.t1;

        let dep_ready = node
            .inputs
            .iter()
            .map(|t| self.tensor_ready.get(t.0).copied().unwrap_or(NOT_READY))
            .fold(0.0f64, |a, b| a.max(b));

        let mut last_end: Option<f64> = None;
        if kernels.is_empty() {
            self.cpu += oh.t5;
        } else {
            self.cpu += oh.t2;
            let n = kernels.len();
            let si = match self.streams.iter().position(|&(s, _)| s == node.stream) {
                Some(i) => i,
                None => {
                    self.streams.push((node.stream, 0.0));
                    self.streams.len() - 1
                }
            };
            for (i, &(t_k, conf)) in kernels.iter().enumerate() {
                // Degraded fallback instead of a panic when a family
                // has no calibrated model; counted, not fatal.
                if conf == Confidence::Degraded {
                    self.degraded += 1;
                }
                self.active += t_k;
                let gpu = &mut self.streams[si].1;
                let start = (*gpu + gap_us).max(self.cpu + launch_factor * oh.t4).max(dep_ready);
                *gpu = start + t_k;
                last_end = Some(start + t_k);
                self.cpu += oh.t4;
                if i + 1 < n {
                    self.cpu += oh.t5;
                }
            }
            self.cpu += oh.t3;
        }

        let ready = last_end.unwrap_or(self.cpu);
        for &out in &node.outputs {
            self.set_ready(out, ready);
        }
    }

    /// Folds the final clock state into a [`Prediction`].
    pub(crate) fn finish(&self) -> Prediction {
        let gpu = self.streams.iter().fold(0.0f64, |a, &(_, b)| a.max(b));
        Prediction {
            e2e_us: self.cpu.max(gpu),
            active_us: self.active,
            cpu_us: self.cpu,
            gpu_us: gpu,
            degraded_kernels: self.degraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlperf_gpusim::DeviceSpec;
    use dlperf_kernels::CalibrationEffort;
    use dlperf_models::DlrmConfig;
    use dlperf_trace::engine::ExecutionEngine;
    use dlperf_trace::Trace;

    fn setup(batch: u64) -> (Graph, E2ePredictor, f64, f64) {
        let g = DlrmConfig {
            rows_per_table: vec![100_000; 4],
            ..DlrmConfig::default_config(batch)
        }
        .build();
        let dev = DeviceSpec::v100();
        let mut engine = ExecutionEngine::new(dev.clone(), 51);
        let runs = engine.run_iterations(&g, 30).unwrap();
        let measured = runs.iter().map(|r| r.e2e_us).sum::<f64>() / runs.len() as f64;
        let measured_active =
            runs.iter().map(|r| r.active_us()).sum::<f64>() / runs.len() as f64;
        let traces: Vec<Trace> = runs.into_iter().map(|r| r.trace).collect();
        let overheads = OverheadStats::extract(&traces, true);
        let registry = ModelRegistry::calibrate(&dev, CalibrationEffort::Quick, 9);
        (g, E2ePredictor::new(registry, overheads), measured, measured_active)
    }

    #[test]
    fn e2e_prediction_within_paper_band() {
        let (g, pred, measured, _) = setup(512);
        let p = pred.predict(&g).unwrap();
        let err = ((p.e2e_us - measured) / measured).abs();
        assert!(
            err < 0.25,
            "E2E error {:.1}% (pred {} vs measured {})",
            err * 100.0,
            p.e2e_us,
            measured
        );
    }

    #[test]
    fn active_prediction_within_band() {
        let (g, pred, _, measured_active) = setup(512);
        let active = pred.predict(&g).unwrap().active_us;
        let err = ((active - measured_active) / measured_active).abs();
        assert!(
            err < 0.25,
            "active error {:.1}% (pred {active} vs measured {measured_active})",
            err * 100.0
        );
    }

    #[test]
    fn active_time_is_the_scalar_kernel_sum_bitwise() {
        // The `kernel_only` contract: predicted GPU active time is the sum,
        // from 0.0 in launch order, of each kernel's scalar prediction.
        let (g, pred, _, _) = setup(256);
        let mut scalar = 0.0;
        for node in g.nodes() {
            for k in lower::try_kernels(&g, node).unwrap() {
                scalar += pred.registry().predict_with_confidence(&k).0;
            }
        }
        assert_eq!(pred.predict(&g).unwrap().active_us.to_bits(), scalar.to_bits());
    }

    #[test]
    fn kernel_only_underestimates_low_utilization_workloads() {
        // The Fig. 9 message: at small batch (low utilization) kernel_only
        // is far below the measured E2E time while the full model is close.
        let (g, pred, measured, _) = setup(128);
        let p = pred.predict(&g).unwrap();
        let kernel_only = p.active_us;
        let e2e_err = ((p.e2e_us - measured) / measured).abs();
        let ko_err = ((kernel_only - measured) / measured).abs();
        assert!(
            ko_err > 2.0 * e2e_err,
            "kernel_only err {:.1}% should far exceed E2E err {:.1}%",
            ko_err * 100.0,
            e2e_err * 100.0
        );
    }

    #[test]
    fn prediction_is_deterministic() {
        let (g, pred, _, _) = setup(256);
        assert_eq!(pred.predict(&g).unwrap(), pred.predict(&g).unwrap());
    }

    #[test]
    fn e2e_never_below_components() {
        let (g, pred, _, _) = setup(256);
        let p = pred.predict(&g).unwrap();
        assert!(p.e2e_us >= p.cpu_us.max(p.gpu_us) - 1e-9);
        assert!(p.gpu_us >= p.active_us - 1e-6, "gpu clock includes idle");
        assert!(p.utilization() > 0.0 && p.utilization() <= 1.0);
    }

    #[test]
    fn type_only_granularity_changes_prediction() {
        let (g, pred, _, _) = setup(256);
        let per_op = pred.predict(&g).unwrap().e2e_us;
        let coarse = pred
            .clone()
            .with_granularity(OverheadGranularity::TypeOnly)
            .predict(&g)
            .unwrap()
            .e2e_us;
        assert_ne!(per_op, coarse);
        // Both should still be the same order of magnitude.
        assert!((per_op / coarse - 1.0).abs() < 0.5);
    }

    #[test]
    fn walk_matches_predict_bitwise_across_cache_token_and_scratch() {
        let (_, pred, _, _) = setup(256);
        let dlrm = dlperf_models::zoo::build("dlrm-default", 256).unwrap();
        let cv = dlperf_models::zoo::build("resnet50", 16).unwrap();
        let live = CancellationToken::new();
        let cancelled = CancellationToken::new();
        cancelled.cancel();
        for g in [&dlrm, &cv] {
            let want = pred.predict(g).unwrap();
            let warm = MemoCache::new();
            pred.predict_memoized(g, &warm).unwrap();
            let mut reused = WalkScratch::new();
            for cache in ["none", "cold", "warm"] {
                for token in [None, Some(&live), Some(&cancelled)] {
                    for fresh in [true, false] {
                        let cold = MemoCache::new();
                        let cache_arg = match cache {
                            "none" => None,
                            "cold" => Some(&cold),
                            _ => Some(&warm),
                        };
                        let mut own = WalkScratch::new();
                        let scratch = if fresh { &mut own } else { &mut reused };
                        let case =
                            format!("{} cache={cache} token={token:?} fresh={fresh}", g.name);
                        match (pred.walk(g, cache_arg, token, scratch), token) {
                            (Err(PredictError::Cancelled), Some(t)) if t.is_cancelled() => {}
                            (Ok(p), t) if !t.is_some_and(|t| t.is_cancelled()) => {
                                assert_eq!(p.e2e_us.to_bits(), want.e2e_us.to_bits(), "{case}");
                                assert_eq!(p, want, "{case}");
                            }
                            (other, _) => panic!("{case}: unexpected {other:?}"),
                        }
                    }
                }
            }
        }

        // Steady state: repeated walks of the same graph serve every
        // buffer checkout from pooled capacity — misses stay flat. Walk
        // uncached so batched inference (the arena consumer) actually
        // runs every iteration; a warm memo cache would skip it entirely.
        let mut scratch = WalkScratch::new();
        let first = pred.walk(&dlrm, None, None, &mut scratch).unwrap();
        let misses = scratch.arena_stats().misses;
        let takes = scratch.arena_stats().takes;
        for _ in 0..5 {
            assert_eq!(pred.walk(&dlrm, None, None, &mut scratch).unwrap(), first);
        }
        let after = scratch.arena_stats();
        assert_eq!(after.misses, misses, "steady-state walks must not allocate: {after:?}");
        assert!(after.takes > takes, "walks must actually go through the arena");
        assert!(after.high_water_f64s > 0);
    }

    #[test]
    fn token_fired_mid_walk_is_observed_within_one_step() {
        // Cancel between the walk's two phases — after lowering and
        // pricing, before the first clock step — and require the typed
        // error before any node is stepped.
        let (g, pred, _, _) = setup(256);
        let token = CancellationToken::new();
        let mut scratch = WalkScratch::new();
        pred.stage(&g, 0..g.node_count(), None, Some(&token), &mut scratch).unwrap();
        token.cancel();
        match pred.step_staged(&g, Some(&token), &mut scratch) {
            Err(PredictError::Cancelled) => {}
            other => panic!("expected Cancelled, got {other:?}"),
        }
        assert_eq!(scratch.state, WalkState::default(), "no node may be stepped");
    }

    #[test]
    fn measured_t4_policy_close_to_fixed() {
        let (g, pred, _, _) = setup(256);
        let fixed = pred.predict(&g).unwrap().e2e_us;
        let measured = pred
            .clone()
            .with_t4_policy(T4Policy::Measured)
            .predict(&g)
            .unwrap()
            .e2e_us;
        assert!((fixed / measured - 1.0).abs() < 0.2);
    }
}
