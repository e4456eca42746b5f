//! The one-pass reorder transforms against their per-node definitions.
//!
//! `hoist_all` must produce byte-identical `to_json()` (node order, ids,
//! uids, `next_uid`) to calling `hoist_earliest` on each position in turn,
//! `hoistable_nodes` must equal the `can_hoist` filter, and `move_node`
//! must match a clone-install-validate-rollback reference, on random DAGs
//! in random valid orders, on graphs that fail validation, and on the
//! model zoo.

use dlperf_graph::transform::{
    can_hoist, fuse_embedding_bags, hoist_all, hoistable_nodes, move_node, resize_batch,
};
use dlperf_graph::{Graph, NodeId, OpKind, TensorId, TensorMeta};
use dlperf_models::{zoo, DlrmConfig};
use proptest::prelude::*;

/// `move_node` as defined by install-then-validate: apply the move, and
/// restore a full clone of the graph if validation fails.
fn move_node_reference(g: &mut Graph, from: usize, to: usize) -> bool {
    if from == to {
        return true;
    }
    let mut nodes = g.nodes().to_vec();
    let moved = nodes.remove(from);
    nodes.insert(to, moved);
    let old = g.clone();
    g.set_nodes(nodes);
    if g.validate().is_err() {
        *g = old;
        return false;
    }
    true
}

/// `hoist_earliest` over the reference move: right after the last
/// producer of any input, found by the linear `predecessors` scan.
fn hoist_earliest_reference(g: &mut Graph, node: NodeId) {
    let earliest = g.predecessors(node).iter().map(|p| p.0 + 1).max().unwrap_or(0);
    if earliest < node.0 {
        move_node_reference(g, node.0, earliest);
    }
}

/// The per-node hoist loop `hoist_all` replaces.
fn hoist_all_reference(g: &mut Graph) {
    for i in 0..g.node_count() {
        let id = g.nodes()[i].id;
        hoist_earliest_reference(g, id);
    }
}

fn assert_hoist_all_matches(g: &Graph) {
    let mut fast = g.clone();
    let mut reference = g.clone();
    hoist_all(&mut fast);
    hoist_all_reference(&mut reference);
    assert_eq!(fast.to_json(), reference.to_json(), "hoist_all diverged on {}", g.name);
    assert_eq!(fast.index().signatures(), reference.index().signatures());
}

fn assert_hoistable_matches(g: &Graph) {
    let filtered: Vec<usize> = (0..g.node_count()).filter(|&i| can_hoist(g, i)).collect();
    assert_eq!(hoistable_nodes(g), filtered, "hoistable_nodes diverged on {}", g.name);
}

/// A random DAG in a random valid order. Node `k` of the DAG reads up to
/// three tensors drawn from the external inputs and the outputs of DAG
/// nodes before it, and writes one or two fresh tensors; `picks` drives
/// both the wiring and a random topological order, installed with
/// `set_nodes` so ids, positions and uids disagree.
fn random_dag(externals: usize, nodes: usize, picks: &[u32]) -> Graph {
    let mut next = picks.iter().cycle().copied();
    let mut pick = |bound: usize| next.next().expect("cycle") as usize % bound;
    let mut g = Graph::new("random-dag");
    let mut available: Vec<TensorId> =
        (0..externals).map(|_| g.add_tensor(TensorMeta::activation(&[8]))).collect();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut producer_of: Vec<Option<usize>> = vec![None; externals];
    for k in 0..nodes {
        let mut inputs = Vec::new();
        for _ in 0..pick(4) {
            let t = available[pick(available.len())];
            if !inputs.contains(&t) {
                inputs.push(t);
            }
        }
        let outputs: Vec<TensorId> =
            (0..1 + pick(2)).map(|_| g.add_tensor(TensorMeta::activation(&[8]))).collect();
        deps.push(inputs.iter().filter_map(|t| producer_of[t.0]).collect());
        for &t in &outputs {
            producer_of.push(Some(k));
            available.push(t);
        }
        let op = if inputs.len() > 1 { OpKind::Cat { dim: 0 } } else { OpKind::Relu };
        g.add_op(op, inputs, outputs);
    }
    // A random linear extension: repeatedly place a random ready node.
    let mut placed = vec![false; nodes];
    let mut order = Vec::with_capacity(nodes);
    while order.len() < nodes {
        let ready: Vec<usize> = (0..nodes)
            .filter(|&k| !placed[k] && deps[k].iter().all(|&d| placed[d]))
            .collect();
        let k = ready[pick(ready.len())];
        placed[k] = true;
        order.push(k);
    }
    let reordered = order.iter().map(|&k| g.nodes()[k].clone()).collect();
    g.set_nodes(reordered);
    g
}

/// The ways a graph can fail `validate()` that a hoist loop must still
/// reproduce exactly, applied on top of a random DAG.
#[derive(Debug, Clone, Copy)]
enum Defect {
    /// Shuffle the order without regard to dependencies.
    UseBeforeDef,
    /// A second node also produces an existing node's output.
    MultipleProducers,
    /// A node reads one of its own outputs.
    InPlaceAlias,
}

fn corrupt(mut g: Graph, defect: Defect, picks: &[u32]) -> Graph {
    let n = g.node_count();
    let a = picks[0] as usize % n;
    let b = picks[1] as usize % n;
    match defect {
        Defect::UseBeforeDef => {
            let mut nodes = g.nodes().to_vec();
            for (i, &p) in picks.iter().enumerate().take(n) {
                nodes.swap(i % n, p as usize % n);
            }
            g.set_nodes(nodes);
        }
        Defect::MultipleProducers => {
            let t = g.nodes()[a].outputs[0];
            if a != b {
                g.node_mut(NodeId(b)).expect("in range").outputs.push(t);
            }
        }
        Defect::InPlaceAlias => {
            let t = g.nodes()[a].outputs[0];
            g.node_mut(NodeId(a)).expect("in range").inputs.push(t);
        }
    }
    g
}

fn dag_strategy() -> impl Strategy<Value = Graph> {
    (1usize..5, 1usize..40, proptest::collection::vec(0u32..u32::MAX, 1..64))
        .prop_map(|(externals, nodes, picks)| random_dag(externals, nodes, &picks))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn hoist_all_matches_per_node_loop_on_random_dags(g in dag_strategy()) {
        prop_assert!(g.validate().is_ok());
        assert_hoist_all_matches(&g);
    }

    #[test]
    fn hoist_all_matches_per_node_loop_on_invalid_graphs(
        g in dag_strategy(),
        defect in prop_oneof![
            Just(Defect::UseBeforeDef),
            Just(Defect::MultipleProducers),
            Just(Defect::InPlaceAlias),
        ],
        picks in proptest::collection::vec(0u32..u32::MAX, 2..48),
    ) {
        let g = corrupt(g, defect, &picks);
        assert_hoist_all_matches(&g);
        assert_hoistable_matches(&g);
    }

    #[test]
    fn hoist_all_matches_per_node_loop_without_uids(
        g in dag_strategy(),
        unset in proptest::collection::vec(0u8..2, 1..40),
    ) {
        // Nodes with uid 0 get theirs from the first install, in that
        // install's order.
        let mut g = g;
        for (i, &u) in unset.iter().enumerate().take(g.node_count()) {
            if u == 1 {
                g.node_mut(NodeId(i)).expect("in range").uid = 0;
            }
        }
        assert_hoist_all_matches(&g);
    }

    #[test]
    fn hoistable_nodes_equals_can_hoist_filter(g in dag_strategy()) {
        assert_hoistable_matches(&g);
    }

    #[test]
    fn move_node_matches_install_then_rollback(
        g in dag_strategy(),
        from in 0u32..u32::MAX,
        to in 0u32..u32::MAX,
    ) {
        let n = g.node_count();
        let (from, to) = (from as usize % n, to as usize % n);
        let mut fast = g.clone();
        let mut reference = g.clone();
        let accepted = move_node(&mut fast, NodeId(from), to).is_ok();
        prop_assert_eq!(accepted, move_node_reference(&mut reference, from, to));
        prop_assert_eq!(fast.to_json(), reference.to_json());
        if !accepted {
            prop_assert_eq!(fast.to_json(), g.to_json());
        }
    }
}

/// Every zoo workload, plus the DLRM variants the sweeps and the
/// repository benchmark prepare: the 8-table what-if base, resized, and
/// fused then resized.
fn zoo_graphs() -> Vec<Graph> {
    let mut graphs: Vec<Graph> = zoo::MODEL_NAMES
        .iter()
        .map(|name| zoo::build(name, 256).expect("catalog model builds"))
        .collect();
    let whatif = DlrmConfig {
        rows_per_table: vec![200_000; 8],
        batched_embedding: false,
        ..DlrmConfig::default_config(512)
    }
    .build();
    for batch in [128, 4096] {
        let mut resized = whatif.clone();
        resize_batch(&mut resized, batch).expect("resizes");
        graphs.push(resized.clone());
        fuse_embedding_bags(&mut resized).expect("fuses");
        graphs.push(resized);
    }
    graphs.push(whatif);
    graphs
}

#[test]
fn hoist_all_matches_per_node_loop_on_zoo_graphs() {
    for g in zoo_graphs() {
        assert_hoist_all_matches(&g);
    }
}

#[test]
fn hoistable_nodes_equals_can_hoist_filter_on_zoo_graphs() {
    for g in zoo_graphs() {
        assert_hoistable_matches(&g);
        let mut hoisted = g.clone();
        hoist_all(&mut hoisted);
        assert_hoistable_matches(&hoisted);
    }
}

#[test]
fn rejected_move_leaves_zoo_graph_json_unchanged() {
    for g in zoo_graphs() {
        // The last node consumes something, and its producer runs earlier.
        let last = g.node_count() - 1;
        let mut moved = g.clone();
        let r = move_node(&mut moved, NodeId(last), 0);
        if r.is_err() {
            assert_eq!(moved.to_json(), g.to_json(), "rejected move changed {}", g.name);
        }
    }
}
