//! Co-design graph transformations (§V-A of the paper).
//!
//! The paper's execution graph is "easily mutable": users apply *insert*,
//! *remove*, *replace*, *resize*, *fuse*, and *parallelize* transformations
//! and re-predict, without ever launching a training job. Each submodule
//! implements one of those mutations; all of them preserve graph validity
//! (checked by [`crate::Graph::validate`]) or fail with a
//! [`TransformError`].

pub mod fuse;
pub mod legality;
pub mod parallelize;
pub mod reorder;
pub mod resize;
pub mod surgery;

pub use fuse::{fuse_embedding_bags, FusionReport};
pub use legality::{
    can_fuse_embedding_bags, can_hoist, can_replace_op, can_resize_batch, hoistable_nodes,
};
pub use parallelize::{independent_groups, parallelize};
pub use reorder::{hoist_all, hoist_earliest, move_node};
pub use resize::resize_batch;
pub use surgery::{insert_after, remove_node_rewire, replace_op};

/// Errors raised by graph transformations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransformError {
    /// The transformation found nothing applicable in the graph.
    NothingToTransform(String),
    /// The graph does not satisfy a structural precondition.
    Precondition(String),
    /// The transformation would create a data-dependency violation.
    DependencyViolation(String),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::NothingToTransform(s) => write!(f, "nothing to transform: {s}"),
            TransformError::Precondition(s) => write!(f, "precondition failed: {s}"),
            TransformError::DependencyViolation(s) => write!(f, "dependency violation: {s}"),
        }
    }
}

impl std::error::Error for TransformError {}
