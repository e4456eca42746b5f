//! `whatif-sweep`: fresh sweep engines pricing the device × batch ×
//! variant matrix plus a single-op mutation matrix, then optimization
//! searches over graph, batch and device moves.

use std::time::{Duration, Instant};

use dlperf_core::pipeline::Pipeline;
use dlperf_core::{
    prepare_graph, GraphMoves, GraphMutation, NoExtra, OptimizationReport, OptimizationSearch,
    Scenario, ScenarioMatrix, SearchConfig, SweepEngine, SweepOutcome,
};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::{Graph, OpKind};
use dlperf_models::DlrmConfig;

use crate::gen;
use crate::ledger::Ledger;
use crate::report::Outcome;
use crate::setup::{bring_up, short_name};
use crate::util::{nproc, Samples};

/// Sweep and search worker threads (clamped to the host's cores).
pub const THREADS: usize = 2;
/// Searches per round; rounds cycle through the window's search starts.
/// Timed searches run on one thread, as a served Optimize runs them: a
/// 2-thread search stalls whenever the host deschedules either core, which
/// made its p90 swing by 2x between runs on a 2-core virtual machine.
pub const SEARCHES_PER_ROUND: usize = 4;
pub const MAIN_BATCHES: [u64; 6] = [128, 256, 512, 1024, 2048, 4096];
const REPLACE_PER_DEVICE: usize = 16;
const HOIST_PER_DEVICE: usize = 4;

/// Worker threads actually used on this host.
pub fn threads() -> usize {
    THREADS.min(nproc())
}

/// The 8-table, 200k-row DLRM with per-table embedding bags.
pub fn base_graph() -> Graph {
    DlrmConfig {
        rows_per_table: vec![200_000; 8],
        batched_embedding: false,
        ..DlrmConfig::default_config(512)
    }
    .build()
}

/// Node positions where a single `ReplaceOp` / `HoistNode` what-if
/// prepares and prices: the candidates the seed picks from.
pub fn legal_single_ops(base: &Graph, pipeline: &Pipeline) -> (Vec<usize>, Vec<usize>) {
    let prices =
        |m: GraphMutation| prepare_graph(base, &[m]).is_ok_and(|g| pipeline.predict(&g).is_ok());
    let n = base.node_count();
    let replace = (1..n.saturating_sub(1))
        .filter(|&pos| {
            prices(GraphMutation::ReplaceOp {
                node: pos,
                op: OpKind::Sigmoid,
            })
        })
        .collect();
    let hoist = dlperf_graph::transform::legality::hoistable_nodes(base)
        .into_iter()
        .filter(|&pos| prices(GraphMutation::HoistNode(pos)))
        .collect();
    (replace, hoist)
}

/// The round's scenario list: the fixed main matrix, then the seeded
/// single-op matrix.
pub fn scenarios(seed: u64, pipelines: &[Pipeline], base: &Graph) -> (Vec<Scenario>, usize) {
    let mut matrix = ScenarioMatrix::new();
    for (i, p) in pipelines.iter().enumerate() {
        matrix = matrix.device(short_name(p.device()), i);
    }
    let mut list = matrix
        .batches(&MAIN_BATCHES)
        .variant("base", vec![])
        .variant("fused", vec![GraphMutation::FuseEmbeddingBags])
        .variant("hoisted", vec![GraphMutation::HoistAll])
        .build();
    let (replace, hoist) = legal_single_ops(base, &pipelines[0]);
    let mut single = 0;
    for (d, p) in pipelines.iter().enumerate() {
        let name = short_name(p.device());
        list.push(Scenario::new(format!("{name}/base"), d));
        for pos in gen::single_op_positions(seed, 0x5e1 + d as u64, &replace, REPLACE_PER_DEVICE) {
            list.push(Scenario::new(format!("{name}/swap{pos}"), d).with(
                GraphMutation::ReplaceOp {
                    node: pos,
                    op: OpKind::Sigmoid,
                },
            ));
            single += 1;
        }
        for pos in gen::single_op_positions(seed, 0x40157 + d as u64, &hoist, HOIST_PER_DEVICE) {
            list.push(
                Scenario::new(format!("{name}/hoist{pos}"), d).with(GraphMutation::HoistNode(pos)),
            );
            single += 1;
        }
    }
    (list, single)
}

pub fn sweep_fingerprint(o: &SweepOutcome) -> Vec<Option<(u64, u64)>> {
    o.results
        .iter()
        .map(|r| {
            r.as_ref()
                .and_then(|r| r.prediction.as_ref())
                .map(|p| (p.e2e_us.to_bits(), p.active_us.to_bits()))
        })
        .collect()
}

pub fn search_fingerprint(r: &OptimizationReport) -> Vec<(String, u64)> {
    let mut fp = vec![("baseline".to_string(), r.baseline_e2e_us.to_bits())];
    fp.extend(
        r.ranked
            .iter()
            .map(|sc| (sc.description.clone(), sc.e2e_us.to_bits())),
    );
    fp
}

pub fn run_search(
    pipelines: &[Pipeline],
    base: &Graph,
    start: &(u64, Vec<u64>),
    threads: usize,
    use_cache: bool,
) -> Option<OptimizationReport> {
    let graph = prepare_graph(base, &[GraphMutation::ResizeBatch(start.0)]).ok()?;
    OptimizationSearch::<NoExtra>::new(pipelines)
        .with_config(SearchConfig {
            threads,
            use_cache,
            ..SearchConfig::default()
        })
        .with_graph_moves(GraphMoves {
            batches: start.1.clone(),
            ..GraphMoves::default()
        })
        .run(&graph)
        .ok()
}

/// Calibrated pipelines on the three paper devices.
pub struct WhatifSetup {
    pub pipelines: Vec<Pipeline>,
    pub calibrate_ms: Vec<(String, f64)>,
    pub analyze_ms: Vec<f64>,
}

pub fn bring_up_all(base: &Graph, ledger: &Ledger) -> WhatifSetup {
    let mut s = WhatifSetup {
        pipelines: Vec::new(),
        calibrate_ms: Vec::new(),
        analyze_ms: Vec::new(),
    };
    for d in DeviceSpec::paper_devices() {
        let b = bring_up(&d, std::slice::from_ref(base), ledger);
        s.calibrate_ms.push((short_name(&d), b.calibrate_ms));
        s.analyze_ms.push(b.analyze_ms);
        s.pipelines.push(b.pipeline);
    }
    s
}

/// 1-thread, uncached, full-walk references for the sweep and each search;
/// every search start is also run once at [`THREADS`] and must match.
pub struct References {
    pub sweep: Vec<Option<(u64, u64)>>,
    pub searches: Vec<Vec<(String, u64)>>,
}

pub fn references(
    pipelines: &[Pipeline],
    base: &Graph,
    list: &[Scenario],
    starts: &[(u64, Vec<u64>)],
    outcome: &mut Outcome,
) -> References {
    let sweep = sweep_fingerprint(
        &SweepEngine::new(pipelines.to_vec())
            .with_threads_exact(1)
            .with_cache(false)
            .with_incremental(false)
            .run(base, list),
    );
    outcome.check(sweep.iter().all(Option::is_some), || {
        "reference sweep left scenarios unpriced".into()
    });
    let mut searches = Vec::new();
    for s in starts {
        let reference = run_search(pipelines, base, s, 1, false).map(|r| search_fingerprint(&r));
        let parallel =
            run_search(pipelines, base, s, THREADS, true).map(|r| search_fingerprint(&r));
        outcome.check(reference.is_some() && reference == parallel, || {
            format!("2-thread search from {s:?} differs from the 1-thread uncached one")
        });
        searches.push(reference.unwrap_or_default());
    }
    References { sweep, searches }
}

/// Timings of the rounds of one window.
#[derive(Debug, Default)]
pub struct Rounds {
    pub sweep: Samples,
    pub search: Samples,
    pub scenarios_per_round: usize,
    pub outcome: Outcome,
    /// Cache statistics of the last round's engine.
    pub cache_hit_rate: f64,
}

impl Rounds {
    /// Scenarios priced per second by a round of median sweep time.
    pub fn scenarios_per_s(&self) -> f64 {
        self.scenarios_per_round as f64 / (self.sweep.p50() / 1e3)
    }
}

/// Runs rounds until `budget` elapses (at least `min_rounds`).
#[allow(clippy::too_many_arguments)]
pub fn window(
    pipelines: &[Pipeline],
    base: &Graph,
    list: &[Scenario],
    starts: &[(u64, Vec<u64>)],
    refs: &References,
    budget: Duration,
    min_rounds: usize,
    ledger: &Ledger,
) -> Rounds {
    let mut r = Rounds::default();
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < min_rounds || t0.elapsed() < budget {
        rounds += 1;
        let t = Instant::now();
        let out = {
            let _s = ledger.span("core");
            SweepEngine::new(pipelines.to_vec())
                .with_threads(THREADS)
                .run(base, list)
        };
        r.sweep.push_since(t);
        r.scenarios_per_round = list.len();
        r.cache_hit_rate = out.cache.map_or(0.0, |c| c.hit_rate());
        r.outcome.check(sweep_fingerprint(&out) == refs.sweep, || {
            "2-thread incremental sweep differs from the 1-thread uncached full walk".into()
        });
        for k in 0..SEARCHES_PER_ROUND {
            let i = ((rounds - 1) * SEARCHES_PER_ROUND + k) % starts.len();
            let (start, want) = (&starts[i], &refs.searches[i]);
            let t = Instant::now();
            let report = {
                let _s = ledger.span("core");
                run_search(pipelines, base, start, 1, true)
            };
            r.search.push_since(t);
            match report {
                Some(rep) => r.outcome.check(&search_fingerprint(&rep) == want, || {
                    format!("cached search from {start:?} differs from the uncached one")
                }),
                None => r.outcome.fail(format!("search from {start:?} failed")),
            }
        }
    }
    r
}
