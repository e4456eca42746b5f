//! # dlperf-kernels
//!
//! Kernel performance models for the dominating kernels of DLRM training,
//! following the paper's two-pronged approach (§III-B):
//!
//! * **Heuristic models** for kernels whose implementation is accessible or
//!   trivial: the batched embedding-lookup forward/backward models (plain
//!   DRAM-traffic and L2-hit-rate-enhanced variants) and roofline models for
//!   element-wise / concat / memcpy kernels, with the "corrected peak
//!   bandwidth" calibrated from microbenchmark data.
//! * **ML-based models** for opaque kernels (cuBLAS GEMM, JIT-generated
//!   transpose, tril forward/backward, cuDNN conv): MLP regressors trained
//!   on microbenchmark sweeps with log-preprocessed features.
//!
//! [`microbench`] generates the sweeps against the simulated GPU;
//! [`registry::ModelRegistry`] assembles one model per kernel family —
//! shared across all ops that call that family, which is the paper's
//! microbenchmark-cost-saving insight — and [`error`] computes the GMAE /
//! mean / std statistics of Table IV.
//!
//! Calibrating a device measures every sweep sequentially (the simulated
//! GPU's noise is one sequential RNG stream) and then trains the ML
//! families in parallel (training dominates the cost, and each family's
//! fit is independent); see [`registry::ModelRegistry::calibrate_bundle`].
//!
//! ## Example
//!
//! ```
//! use dlperf_gpusim::{DeviceSpec, KernelSpec};
//! use dlperf_kernels::registry::{CalibrationEffort, ModelRegistry};
//!
//! let registry = ModelRegistry::calibrate(&DeviceSpec::v100(), CalibrationEffort::Quick, 7);
//! let t = registry.try_predict(&KernelSpec::gemm(1024, 1024, 1024)).unwrap();
//! assert!(t > 0.0);
//! ```

pub mod error;
pub mod heuristic;
pub mod memo;
pub mod microbench;
pub mod mlbased;
pub mod persist;
pub mod registry;
pub mod scaled;

pub use error::{ErrorStats, ErrorStatsError};
pub use memo::{CachePadded, MemoCache, MemoCacheStats, MemoKey, MemoScratch};
pub use microbench::{MicrobenchHarness, MicrobenchJob, Microbenchmark, Sample};
pub use persist::RegistryBundle;
pub use registry::{
    CalibrationEffort, Confidence, KernelPerfModel, MissingModelError, ModelRegistry,
};
pub use scaled::ScaledModel;
