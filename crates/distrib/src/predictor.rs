//! The distributed E2E predictor: Algorithm 1 per compute segment, the
//! analytic collective model per communication phase, barriers in between.
//!
//! Like the single-GPU predictor it never executes anything — sharding
//! plans, world sizes, and interconnects can be compared from graphs alone.
//!
//! Every job is priced by one rank × segment loop: `predict`,
//! `predict_memoized`, and the crate-private job pricer that sharding
//! sweeps and the search's multi-GPU axis share all end in it. Each
//! segment is a plain (memoized) walk. There are no per-segment
//! incremental baselines: across a sharding sweep, checkpointing them
//! cost more than the splices saved (DESIGN.md §15).

use dlperf_core::predictor::E2ePredictor;
use dlperf_faults::{FaultInjector, FaultPlan};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::lower::LowerError;
use dlperf_kernels::MemoCache;
use dlperf_models::DlrmConfig;

use crate::builder::{DistributedDlrm, ParallelismStrategy};
use crate::comms::CommModel;
use crate::plan::ShardingPlan;
use crate::topology::Topology;

/// Predicted timeline of one distributed iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributedPrediction {
    /// Predicted E2E iteration time (µs).
    pub e2e_us: f64,
    /// Predicted per-segment compute time (max over ranks, µs).
    pub segment_us: [f64; 4],
    /// Predicted per-collective time (µs).
    pub comm_us: [f64; 3],
    /// Communication the overlap window hid under the next compute
    /// segment (µs); already subtracted from `e2e_us`. Zero unless the
    /// predictor was given an overlap fraction.
    pub overlap_hidden_us: f64,
}

impl DistributedPrediction {
    /// Predicted fraction of the iteration spent communicating.
    pub fn comm_share(&self) -> f64 {
        self.comm_us.iter().sum::<f64>() / self.e2e_us
    }
}

/// Distributed predictor: a single-GPU predictor plus the cluster's
/// interconnect topology (derived from the device class unless pinned).
#[derive(Debug, Clone)]
pub struct DistributedPredictor {
    predictor: E2ePredictor,
    device: DeviceSpec,
    topology: Option<Topology>,
    overlap_frac: f64,
}

impl DistributedPredictor {
    /// Wraps a calibrated single-GPU predictor for `device`.
    pub fn new(predictor: E2ePredictor, device: DeviceSpec) -> Self {
        DistributedPredictor { predictor, device, topology: None, overlap_frac: 0.0 }
    }

    /// Pins the predictor to an explicit topology (builder style). A job
    /// whose world does not match falls back to the derived device
    /// topology — degraded, not wrong.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Sets the compute–communication overlap window (builder style):
    /// collective `Cᵢ` may hide under up to `frac` of the following
    /// compute segment `Sᵢ₊₁` (prefetch-style pipelining). The default 0
    /// models the fully synchronous timeline the cluster engine measures.
    ///
    /// # Panics
    /// Panics if `frac` is outside `[0, 1]`.
    pub fn with_overlap(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "overlap fraction must be in [0, 1], got {frac}");
        self.overlap_frac = frac;
        self
    }

    /// The underlying single-GPU predictor.
    pub fn single_gpu(&self) -> &E2ePredictor {
        &self.predictor
    }

    /// The topology `job`-sized collectives will be priced on.
    pub fn topology_for(&self, world: usize) -> Topology {
        resolve(self.topology.as_ref(), &self.device, world)
    }

    /// Predicts one distributed iteration of `job`.
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict(&self, job: &DistributedDlrm) -> Result<DistributedPrediction, LowerError> {
        self.predict_inner(job, None, self.topology_for(job.world()))
    }

    /// Like [`DistributedPredictor::predict`], answering kernel-model
    /// queries from `cache`. Across the ranks of one job most segments
    /// share kernel shapes (data parallelism makes the MLP segments
    /// identical), so even a single prediction hits heavily; across a
    /// sharding sweep the hit rate compounds. Bitwise identical to the
    /// uncached path (see [`dlperf_kernels::memo`]).
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict_memoized(
        &self,
        job: &DistributedDlrm,
        cache: &MemoCache,
    ) -> Result<DistributedPrediction, LowerError> {
        self.predict_inner(job, Some(cache), self.topology_for(job.world()))
    }

    /// Builds the `(config, plan, strategy)` job and prices it through
    /// `cache`, with collectives on `topology` (the predictor's own when
    /// `None`) — the one pricing call behind sharding sweeps and the
    /// search's multi-GPU axis. Errors are rendered for the caller's
    /// report: `invalid plan: …` or `lowering failed: …`.
    pub(crate) fn price(
        &self,
        config: DlrmConfig,
        plan: ShardingPlan,
        strategy: ParallelismStrategy,
        topology: Option<&Topology>,
        cache: &MemoCache,
    ) -> Result<DistributedPrediction, String> {
        let job = DistributedDlrm::new(config, plan)
            .map_err(|e| format!("invalid plan: {e}"))?
            .with_strategy(strategy);
        let topology = resolve(topology.or(self.topology.as_ref()), &self.device, job.world());
        self.predict_inner(&job, Some(cache), topology).map_err(|e| format!("lowering failed: {e}"))
    }

    /// The one rank × segment loop: Algorithm 1 per compute segment (max
    /// over ranks), then the collective phases folded into the timeline.
    /// Collectives are priced by the α–β model on `topology`; the
    /// pipeline bubble inflates compute; the overlap window (if any)
    /// hides each collective under a slice of the next segment.
    fn predict_inner(
        &self,
        job: &DistributedDlrm,
        cache: Option<&MemoCache>,
        topology: Topology,
    ) -> Result<DistributedPrediction, LowerError> {
        let _span = dlperf_obs::span("distrib.predict", dlperf_obs::SpanKind::Phase);
        let mut segment_us = [0.0f64; 4];
        for rank in 0..job.world() {
            for (i, seg) in job.segments(rank).iter().enumerate() {
                let _seg_span = dlperf_obs::span_with(dlperf_obs::SpanKind::Work, || {
                    format!("segment:S{}/r{rank}", i + 1)
                });
                let p = match cache {
                    Some(c) => self.predictor.predict_memoized(seg, c)?,
                    None => self.predictor.predict(seg)?,
                };
                segment_us[i] = segment_us[i].max(p.e2e_us);
            }
        }
        let inflation = job.compute_inflation();
        for s in &mut segment_us {
            *s *= inflation;
        }
        let model = CommModel::new(topology);
        let mut comm_us = [0.0f64; 3];
        for (c, spec) in comm_us.iter_mut().zip(&job.collectives()) {
            *c = model.collective_time(spec);
        }
        let mut overlap_hidden_us = 0.0;
        if self.overlap_frac > 0.0 {
            for (i, c) in comm_us.iter().enumerate() {
                overlap_hidden_us += c.min(self.overlap_frac * segment_us[i + 1]);
            }
        }
        Ok(DistributedPrediction {
            e2e_us: segment_us.iter().sum::<f64>() + comm_us.iter().sum::<f64>()
                - overlap_hidden_us,
            segment_us,
            comm_us,
            overlap_hidden_us,
        })
    }

    /// Like [`DistributedPredictor::predict`], then deterministically
    /// degrades the communication phases under `plan`'s link faults
    /// (iteration-0 sites, matching the engine's first iteration):
    /// each degraded collective is repriced on the bandwidth-derated
    /// topology and reported by name. The returned notes are empty when
    /// the plan leaves the wires alone.
    ///
    /// # Errors
    /// Propagates lowering errors from malformed segment graphs.
    pub fn predict_with_faults(
        &self,
        job: &DistributedDlrm,
        plan: &FaultPlan,
    ) -> Result<(DistributedPrediction, Vec<String>), LowerError> {
        let mut p = self.predict(job)?;
        let inj = FaultInjector::new(plan.clone());
        let topology = self.topology_for(job.world());
        let mut notes = Vec::new();
        for (idx, spec) in job.collectives().iter().enumerate() {
            if spec.world <= 1 || spec.bytes_per_rank == 0 {
                continue;
            }
            if let Some(factor) = inj.link_degradation(0, idx) {
                let degraded =
                    CommModel::new(topology.scaled_bandwidth(factor)).collective_time(spec);
                p.e2e_us += degraded - p.comm_us[idx];
                p.comm_us[idx] = degraded;
                crate::comms::record_link_fault();
                notes.push(format!(
                    "C{} {} link degraded ×{factor:.2} bandwidth",
                    idx + 1,
                    spec.kind
                ));
            }
        }
        Ok((p, notes))
    }
}

/// `pinned` when it spans `world` ranks, else the topology derived from
/// `device`'s class.
fn resolve(pinned: Option<&Topology>, device: &DeviceSpec, world: usize) -> Topology {
    match pinned {
        Some(t) if t.world() == world => t.clone(),
        _ => Topology::for_device(device, world),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::MultiGpuEngine;
    use dlperf_core::pipeline::Pipeline;
    use dlperf_kernels::CalibrationEffort;

    fn setup(world: usize, batch: u64) -> (DistributedDlrm, DistributedPredictor) {
        let cfg = DlrmConfig::default_config(batch);
        let plan = ShardingPlan::round_robin(cfg.rows_per_table.len(), world);
        let job = DistributedDlrm::new(cfg, plan).unwrap();
        // Calibrate on the rank-0 segments so the overhead DB covers the ops.
        let segs = job.segments(0).to_vec();
        let device = DeviceSpec::v100();
        let pipe = Pipeline::analyze(&device, &segs, CalibrationEffort::Quick, 12, 5);
        (job, DistributedPredictor::new(pipe.predictor().clone(), device))
    }

    #[test]
    fn prediction_tracks_simulated_cluster() {
        let (job, pred) = setup(4, 2048);
        let p = pred.predict(&job).unwrap();
        let mut engine = MultiGpuEngine::new(DeviceSpec::v100(), 9);
        let measured = engine.measure_e2e(&job, 8).unwrap();
        let err = ((p.e2e_us - measured) / measured).abs();
        assert!(
            err < 0.25,
            "distributed error {:.1}% (pred {} vs measured {measured})",
            err * 100.0,
            p.e2e_us
        );
    }

    #[test]
    fn scaling_helps_compute_but_adds_comm() {
        let (job1, pred) = setup(1, 2048);
        let (job4, _) = setup(4, 2048);
        let p1 = pred.predict(&job1).unwrap();
        let p4 = pred.predict(&job4).unwrap();
        assert_eq!(p1.comm_us, [0.0; 3]);
        assert!(p4.comm_us.iter().sum::<f64>() > 0.0);
        // Per-rank compute shrinks with world size.
        assert!(p4.segment_us[1] < p1.segment_us[1], "S2 should shrink with DP");
    }

    #[test]
    fn predictor_ranks_sharding_plans_like_the_engine() {
        let cfg = DlrmConfig::default_config(1024);
        let balanced =
            DistributedDlrm::new(cfg.clone(), ShardingPlan::round_robin(8, 4)).unwrap();
        let skewed = DistributedDlrm::new(
            cfg,
            ShardingPlan::new(vec![0, 0, 0, 0, 0, 1, 2, 3], 4).unwrap(),
        )
        .unwrap();
        let (_, pred) = setup(4, 1024);
        let pb = pred.predict(&balanced).unwrap().e2e_us;
        let ps = pred.predict(&skewed).unwrap().e2e_us;
        assert!(ps > pb, "skewed plan predicted faster ({ps}) than balanced ({pb})");

        let mut engine = MultiGpuEngine::new(DeviceSpec::v100(), 13);
        let mb = engine.measure_e2e(&balanced, 5).unwrap();
        let ms = engine.measure_e2e(&skewed, 5).unwrap();
        assert!(ms > mb, "engine disagrees: skewed {ms} vs balanced {mb}");
    }
}
