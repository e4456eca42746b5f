//! The *reorder* transformation: move an op earlier or later in execution
//! order without violating data dependencies.
//!
//! Eager execution order determines when each op's kernels are *enqueued*;
//! hoisting an independent, device-heavy op (e.g. the embedding lookup)
//! ahead of host-heavy ops lets its kernels overlap their overheads. The
//! paper lists reordering among the optimizations its execution graph can
//! evaluate ("operator fusion, reordering, and parallelization").

use crate::graph::{validate_nodes, Graph, Node, NodeId};
use crate::transform::TransformError;

/// Moves the node at `from` so that it executes at position `to` (indices
/// into the current execution order), shifting everything in between.
///
/// # Errors
/// * [`TransformError::Precondition`] if either index is out of range;
/// * [`TransformError::DependencyViolation`] if the move would execute a
///   consumer before its producer.
pub fn move_node(graph: &mut Graph, from: NodeId, to: usize) -> Result<(), TransformError> {
    let n = graph.node_count();
    if from.0 >= n || to >= n {
        return Err(TransformError::Precondition(format!(
            "positions out of range: from {} to {to} with {n} nodes",
            from.0
        )));
    }
    if from.0 == to {
        return Ok(());
    }
    let mut nodes: Vec<Node> = graph.nodes().to_vec();
    let moved = nodes.remove(from.0);
    nodes.insert(to, moved);
    // Check the candidate order before installing it: a rejected move
    // never touches the graph, so there is nothing to roll back.
    validate_nodes(graph.tensor_count(), &nodes)
        .map_err(|e| TransformError::DependencyViolation(e.to_string()))?;
    graph.set_nodes(nodes);
    Ok(())
}

/// Hoists `node` as early as its data dependencies allow, returning its new
/// position.
///
/// # Errors
/// [`TransformError::Precondition`] if the node does not exist.
pub fn hoist_earliest(graph: &mut Graph, node: NodeId) -> Result<usize, TransformError> {
    if node.0 >= graph.node_count() {
        return Err(TransformError::Precondition(format!("no such node {}", node.0)));
    }
    // Earliest legal slot: right after the last producer of any input.
    let preds = graph.predecessors(node);
    let earliest = preds.iter().map(|p| p.0 + 1).max().unwrap_or(0);
    if earliest < node.0 {
        move_node(graph, node, earliest)?;
    }
    Ok(earliest.min(node.0))
}

/// Hoists every node as early as its data dependencies allow, in
/// execution order: the same result as calling [`hoist_earliest`] on the
/// node at each position `0..n` in turn, computed in one pass.
///
/// After step `i` the first `i + 1` positions hold a reordering of the
/// original first `i + 1` nodes, and the relative order of two nodes never
/// changes once both are placed. So the per-node loop amounts to inserting
/// node `i` right after its latest-placed producer (or at the front), which
/// is exactly what this does, against a producer table and a position per
/// node instead of a producer scan, a graph clone and a validation per
/// move. Cost is O(N + E + D): nodes, edges and the number of node pairs
/// the reorder swaps. The node list is installed once, and only if
/// something moved.
///
/// A graph the loop could reject moves on (one that fails
/// [`Graph::validate`]), whose node ids are not their positions, or that
/// holds nodes without a uid (the first move assigns those) takes the
/// per-node loop itself, so the result is identical there too.
pub fn hoist_all(graph: &mut Graph) {
    let nodes = graph.nodes();
    let plain = nodes.iter().enumerate().all(|(i, n)| n.id.0 == i && n.uid != 0);
    if !plain || graph.validate().is_err() {
        for i in 0..graph.node_count() {
            let id = graph.nodes()[i].id;
            let _ = hoist_earliest(graph, id);
        }
        return;
    }
    // In a valid graph every producer of node `i` sits in the placed prefix.
    let producer = graph.producer_table();
    let mut order: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut pos = vec![0usize; nodes.len()];
    for (i, n) in nodes.iter().enumerate() {
        let earliest = n
            .inputs
            .iter()
            .filter_map(|t| producer.get(t.0).copied().flatten())
            .map(|p| pos[p.0] + 1)
            .max()
            .unwrap_or(0);
        order.insert(earliest, i);
        for (k, &j) in order.iter().enumerate().skip(earliest) {
            pos[j] = k;
        }
    }
    if order.iter().enumerate().any(|(k, &j)| k != j) {
        let reordered = order.iter().map(|&j| nodes[j].clone()).collect();
        graph.set_nodes(reordered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use crate::tensor::TensorMeta;

    /// in0 -> a -> b; in1 -> c (independent); c placed last.
    fn graph() -> (Graph, Vec<NodeId>) {
        let mut g = Graph::new("reorder");
        let in0 = g.add_tensor(TensorMeta::activation(&[8]));
        let a = g.add_tensor(TensorMeta::activation(&[8]));
        let b = g.add_tensor(TensorMeta::activation(&[8]));
        let in1 = g.add_tensor(TensorMeta::activation(&[8]));
        let c = g.add_tensor(TensorMeta::activation(&[8]));
        let n0 = g.add_op(OpKind::Relu, vec![in0], vec![a]);
        let n1 = g.add_op(OpKind::Relu, vec![a], vec![b]);
        let n2 = g.add_op(OpKind::Sigmoid, vec![in1], vec![c]);
        (g, vec![n0, n1, n2])
    }

    #[test]
    fn independent_node_hoists_to_front() {
        let (mut g, ids) = graph();
        let pos = hoist_earliest(&mut g, ids[2]).unwrap();
        assert_eq!(pos, 0);
        assert_eq!(g.nodes()[0].op, OpKind::Sigmoid);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn dependent_move_rejected_and_rolled_back() {
        let (mut g, ids) = graph();
        let before = g.to_json();
        // Moving n1 (consumer of a) before n0 (producer) must fail...
        let r = move_node(&mut g, ids[1], 0);
        assert!(matches!(r, Err(TransformError::DependencyViolation(_))));
        // ...and leave the graph untouched: order, ids, uids and next_uid.
        assert_eq!(g.to_json(), before);
    }

    #[test]
    fn hoist_respects_producers() {
        let (mut g, ids) = graph();
        // n1 depends on n0: earliest slot is 1 (its current position).
        let pos = hoist_earliest(&mut g, ids[1]).unwrap();
        assert_eq!(pos, 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut g, _) = graph();
        assert!(matches!(
            move_node(&mut g, NodeId(99), 0),
            Err(TransformError::Precondition(_))
        ));
    }

    #[test]
    fn noop_move_is_ok() {
        let (mut g, ids) = graph();
        move_node(&mut g, ids[1], 1).unwrap();
        assert!(g.validate().is_ok());
    }
}
