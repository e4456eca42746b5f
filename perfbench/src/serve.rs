//! `serve-mixed`: a closed loop of client threads sending wire-form lines
//! to an in-process `Server`, and the served probe other workloads use to
//! measure the serve layer.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dlperf_core::pipeline::Pipeline;
use dlperf_core::{
    prepare_graph, GraphMoves, GraphMutation, NoExtra, OptimizationSearch, PreparedStore,
    SearchConfig,
};
use dlperf_gpusim::DeviceSpec;
use dlperf_graph::Graph;
use dlperf_kernels::MemoCache;
use dlperf_models::zoo;
use dlperf_serve::{Body, OptimizationBody, Request, Response, Server, ServerConfig, StatsBody};

use crate::gen::{self, ReqKind, ServeReq, PREPARED_CAPACITY, SERVE_DEVICES, SERVE_MODELS};
use crate::ledger::Ledger;
use crate::report::{Metrics, Outcome};
use crate::setup::{bring_up, score_all, Accuracy};
use crate::util::{ms_since, Samples};

/// Closed-loop client threads and server workers.
pub const CLIENTS: usize = 2;
pub const WORKERS: usize = 2;
/// Batch the catalog models are built at; requests resize from here.
pub const BASE_BATCH: u64 = 2048;
/// Every n-th Predict answer is checked against the offline walk.
const PREDICT_CHECK_EVERY: usize = 4;
/// Requests generated per client; the loop wraps if a run outlasts them.
const STREAM_LEN: usize = 40_000;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        prepared_capacity: PREPARED_CAPACITY,
        base_batch: BASE_BATCH,
        ..ServerConfig::default()
    }
}

/// The calibrated side of the served workload.
pub struct ServeSetup {
    /// One pipeline per entry of [`SERVE_DEVICES`], in that order.
    pub pipelines: Vec<Pipeline>,
    pub bases: HashMap<String, Graph>,
    pub calibrate_ms: Vec<(String, f64)>,
    pub analyze_ms: Vec<f64>,
}

/// Builds the served models, brings up V100 and P100 with the analysis
/// track on them.
pub fn bring_up_served(ledger: &Ledger) -> ServeSetup {
    let mut bases = HashMap::new();
    for name in SERVE_MODELS {
        let g = {
            let _s = ledger.span("models");
            zoo::build(name, BASE_BATCH).expect("catalog model builds")
        };
        bases.insert(name.to_string(), g);
    }
    let analysis: Vec<Graph> = SERVE_MODELS.iter().map(|m| bases[*m].clone()).collect();
    let mut out = ServeSetup {
        pipelines: Vec::new(),
        bases,
        calibrate_ms: Vec::new(),
        analyze_ms: Vec::new(),
    };
    for d in SERVE_DEVICES {
        let device = DeviceSpec::by_name(d).expect("known device");
        let b = bring_up(&device, &analysis, ledger);
        out.calibrate_ms.push((d.to_string(), b.calibrate_ms));
        out.analyze_ms.push(b.analyze_ms);
        out.pipelines.push(b.pipeline);
    }
    out
}

pub fn start_server(setup: &ServeSetup, ledger: &Ledger) -> Server {
    let _s = ledger.span("serve");
    Server::start(
        setup.pipelines.clone(),
        &SERVE_MODELS,
        server_config(),
        None,
    )
    .expect("server starts")
}

/// The benchmark's own caches the traced run replays requests on.
struct Replay<'a> {
    setup: &'a ServeSetup,
    stores: HashMap<String, PreparedStore>,
    caches: Vec<MemoCache>,
}

impl<'a> Replay<'a> {
    fn new(setup: &'a ServeSetup) -> Self {
        let stores = setup
            .bases
            .iter()
            .map(|(name, base)| {
                let store = PreparedStore::with_capacity(PREPARED_CAPACITY);
                store.rebase(&base.index());
                (name.clone(), store)
            })
            .collect();
        let caches = setup
            .pipelines
            .iter()
            .map(|_| MemoCache::with_capacity(server_config().memo_capacity))
            .collect();
        Replay {
            setup,
            stores,
            caches,
        }
    }
}

/// Replayed per-layer timings, in microseconds.
#[derive(Debug, Default)]
struct ReplayTimes {
    parse: Samples,
    encode: Samples,
    resize: Samples,
    overhead: Samples,
}

/// What one client saw.
#[derive(Debug, Default)]
struct ClientLog {
    lat: [Samples; 3],
    outcome: Outcome,
    predicts: Vec<((String, u64, String), u64, u64)>,
    optimizes: Vec<(usize, Vec<(String, u64)>)>,
    lookups: u64,
    replay: ReplayTimes,
}

/// The merged result of one served window.
#[derive(Debug, Default)]
pub struct Served {
    pub predict: Samples,
    pub recommend: Samples,
    pub optimize: Samples,
    pub completed: u64,
    pub elapsed_s: f64,
    pub outcome: Outcome,
    predicts: Vec<((String, u64, String), u64, u64)>,
    optimizes: Vec<(usize, Vec<(String, u64)>)>,
    pub lookups: u64,
    replay: ReplayTimes,
}

fn kind_index(k: ReqKind) -> usize {
    match k {
        ReqKind::Predict => 0,
        ReqKind::Recommend => 1,
        ReqKind::Optimize => 2,
    }
}

fn fingerprint(o: &OptimizationBody) -> Vec<(String, u64)> {
    let mut fp = vec![("baseline".to_string(), o.baseline_e2e_us.to_bits())];
    fp.extend(
        o.ranked
            .iter()
            .map(|e| (e.description.clone(), e.e2e_us.to_bits())),
    );
    fp
}

/// Sends `stream` (client `c` takes every `CLIENTS`-th request starting at
/// `c`) until `budget` elapses or `max_requests` have been sent. With
/// `traced`, each request is replayed through the layer functions on the
/// benchmark's own caches after its answer arrives.
pub fn window(
    server: &Server,
    setup: &ServeSetup,
    stream: &[ServeReq],
    budget: Duration,
    max_requests: usize,
    ledger: &Ledger,
) -> Served {
    let replay = ledger.enabled().then(|| Replay::new(setup));
    let t0 = Instant::now();
    let logs: Vec<ClientLog> = {
        let _s = ledger.span("bench");
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let replay = replay.as_ref();
                    scope.spawn(move || {
                        client(server, stream, c, t0, budget, max_requests, replay, ledger)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        })
    };
    let mut served = Served {
        elapsed_s: t0.elapsed().as_secs_f64(),
        ..Served::default()
    };
    for log in logs {
        let [p, r, o] = log.lat;
        served.predict.0.extend(p.0);
        served.recommend.0.extend(r.0);
        served.optimize.0.extend(o.0);
        served.outcome.absorb(log.outcome);
        served.predicts.extend(log.predicts);
        served.optimizes.extend(log.optimizes);
        served.lookups += log.lookups;
        served.replay.parse.0.extend(log.replay.parse.0);
        served.replay.encode.0.extend(log.replay.encode.0);
        served.replay.resize.0.extend(log.replay.resize.0);
        served.replay.overhead.0.extend(log.replay.overhead.0);
    }
    served.completed =
        (served.predict.len() + served.recommend.len() + served.optimize.len()) as u64;
    served
}

#[allow(clippy::too_many_arguments)]
fn client(
    server: &Server,
    stream: &[ServeReq],
    c: usize,
    t0: Instant,
    budget: Duration,
    max_requests: usize,
    replay: Option<&Replay<'_>>,
    ledger: &Ledger,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut predicts_seen = 0usize;
    let mut i = c;
    let mut sent = 0usize;
    while t0.elapsed() < budget && sent < max_requests.div_ceil(CLIENTS) {
        let idx = i % stream.len();
        let req = &stream[idx];
        i += CLIENTS;
        sent += 1;
        let started = Instant::now();
        let line = {
            let _s = ledger.span("serve");
            server.submit_json(&req.line)
        };
        let latency_ms = ms_since(started);
        log.lat[kind_index(req.kind)].0.push(latency_ms);
        log.lookups += req.lookups;
        let resp: Response = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(e) => {
                log.outcome.fail(format!("unparseable response: {e}"));
                continue;
            }
        };
        if resp.id != idx as u64 + 1 {
            log.outcome.fail("response id mismatch");
            continue;
        }
        match (req.kind, &resp.body) {
            (ReqKind::Predict, Body::Prediction(p)) => {
                if p.confidence != "calibrated" {
                    log.outcome.fail("degraded answer");
                    continue;
                }
                if predicts_seen.is_multiple_of(PREDICT_CHECK_EVERY) {
                    let key = req.predict.clone().expect("predict key");
                    log.predicts
                        .push((key, p.e2e_us.to_bits(), p.active_us.to_bits()));
                }
                predicts_seen += 1;
                log.outcome.ok();
            }
            (ReqKind::Recommend, Body::Recommendation(r)) => {
                log.outcome
                    .check(r.recommended.is_some(), || "empty recommendation".into());
            }
            (ReqKind::Optimize, Body::Optimization(o)) => {
                log.optimizes.push((idx, fingerprint(o)));
                log.outcome.ok();
            }
            (_, Body::Error(e)) => log.outcome.fail(format!("{} {}", e.code, e.kind)),
            _ => log.outcome.fail("unexpected response body"),
        }
        if let Some(replay) = replay {
            replay_one(replay, req, &resp, latency_ms, &mut log.replay, ledger);
        }
    }
    log
}

/// Replays one answered request through parse, prepare, walk and encode.
fn replay_one(
    replay: &Replay<'_>,
    req: &ServeReq,
    resp: &Response,
    latency_ms: f64,
    times: &mut ReplayTimes,
    ledger: &Ledger,
) {
    let _root = ledger.span("bench");
    let t = Instant::now();
    let parsed: Request = {
        let _s = ledger.span("serve");
        serde_json::from_str(&req.line).expect("generated line parses")
    };
    let parse_us = ms_since(t) * 1e3;
    times.parse.0.push(parse_us);
    let mut layered_us = parse_us;
    if let (Some((model, batch, device)), dlperf_serve::Op::Predict(_)) = (&req.predict, &parsed.op)
    {
        let store = &replay.stores[model];
        let muts = vec![GraphMutation::ResizeBatch(*batch)];
        let t = Instant::now();
        let graph = match store.get(&muts) {
            Some(g) => g,
            None => {
                let built = {
                    let _s = ledger.span("graph");
                    Arc::new(prepare_graph(&replay.setup.bases[model], &muts))
                };
                times.resize.0.push(ms_since(t) * 1e3);
                store.insert(muts, built)
            }
        };
        layered_us += ms_since(t) * 1e3;
        let d = SERVE_DEVICES
            .iter()
            .position(|x| x == device)
            .expect("served device");
        let t = Instant::now();
        if let Ok(g) = graph.as_ref() {
            let _s = ledger.span("core");
            let _ = replay.setup.pipelines[d].predict_memoized(g, &replay.caches[d]);
        }
        layered_us += ms_since(t) * 1e3;
    }
    let t = Instant::now();
    {
        let _s = ledger.span("serve");
        let _ = serde_json::to_string(resp);
    }
    let encode_us = ms_since(t) * 1e3;
    times.encode.0.push(encode_us);
    layered_us += encode_us;
    if req.kind == ReqKind::Predict {
        times.overhead.0.push(latency_ms * 1e3 - layered_us);
    }
}

/// Re-derives sampled answers offline: Predict against `predict_memoized`
/// on a fresh cache, Optimize against the offline search.
pub fn check_offline(
    setup: &ServeSetup,
    stream: &[ServeReq],
    served: &Served,
    outcome: &mut Outcome,
    ledger: &Ledger,
) {
    let mut offline: BTreeMap<(String, u64, String), (u64, u64)> = BTreeMap::new();
    for (key, e2e, active) in &served.predicts {
        let want = offline.entry(key.clone()).or_insert_with(|| {
            let (model, batch, device) = key;
            let d = SERVE_DEVICES
                .iter()
                .position(|x| x == device)
                .expect("served device");
            let g = prepare_graph(&setup.bases[model], &[GraphMutation::ResizeBatch(*batch)])
                .expect("served batches prepare");
            let _s = ledger.span("core");
            let p = setup.pipelines[d]
                .predict_memoized(&g, &MemoCache::new())
                .expect("served graphs lower");
            (p.e2e_us.to_bits(), p.active_us.to_bits())
        });
        outcome.check(*want == (*e2e, *active), || {
            format!("served Predict {key:?} differs from the offline walk")
        });
    }
    // The server prices Optimize on its devices sorted by name.
    let mut by_name: Vec<&Pipeline> = setup.pipelines.iter().collect();
    by_name.sort_by(|a, b| a.device().name.cmp(&b.device().name));
    let sorted: Vec<Pipeline> = by_name.into_iter().cloned().collect();
    let mut searched: HashMap<String, Vec<(String, u64)>> = HashMap::new();
    for (idx, fp) in &served.optimizes {
        let q = stream[*idx].optimize.as_ref().expect("optimize query");
        let key = format!("{}/{}/{:?}", q.model, q.batch, q.batches);
        let want = searched.entry(key).or_insert_with(|| {
            let base = prepare_graph(
                &setup.bases[&q.model],
                &[GraphMutation::ResizeBatch(q.batch)],
            )
            .expect("optimize baselines prepare");
            let _s = ledger.span("core");
            let report = OptimizationSearch::<NoExtra>::new(&sorted)
                .with_config(SearchConfig {
                    max_depth: q.max_depth.unwrap_or(2),
                    top_k: q.top_k.unwrap_or(10),
                    ..SearchConfig::default()
                })
                .with_graph_moves(GraphMoves {
                    batches: q.batches.clone().unwrap_or_default(),
                    ..GraphMoves::default()
                })
                .run(&base)
                .expect("offline search runs");
            let mut fp = vec![("baseline".to_string(), report.baseline_e2e_us.to_bits())];
            fp.extend(
                report
                    .ranked
                    .iter()
                    .map(|sc| (sc.description.clone(), sc.e2e_us.to_bits())),
            );
            fp
        });
        outcome.check(want == fp, || {
            format!("served Optimize #{idx} differs from the offline search")
        });
    }
}

/// Oracle accuracy of the served pipelines on the served models at three
/// fixed batch sizes.
pub fn accuracy(setup: &ServeSetup, outcome: &mut Outcome, ledger: &Ledger) -> Accuracy {
    let graphs: Vec<Graph> = SERVE_MODELS
        .iter()
        .flat_map(|m| {
            [512u64, 1024, 2048].map(|b| {
                prepare_graph(&setup.bases[*m], &[GraphMutation::ResizeBatch(b)])
                    .expect("fixed batches prepare")
            })
        })
        .collect();
    score_all(&setup.pipelines, &graphs, outcome, ledger)
}

/// Failure counters from `Op::Stats`.
pub fn stats_failures(stats: &StatsBody) -> u64 {
    stats.shed_queue
        + stats.shed_latency
        + stats.deadline_expired
        + stats.panics
        + stats.degraded_answers
        + stats.rejected
}

/// Share of prepared-graph lookups the server's store answered, derived
/// from its entries and evictions (every miss inserts once) over the
/// `lookups` sent since the server started.
pub fn prepared_hit_rate(stats: &StatsBody, lookups: u64) -> f64 {
    let inserts = stats.prepared_entries + stats.prepared_evictions;
    1.0 - (inserts as f64 / lookups.max(1) as f64).min(1.0)
}

pub fn memo_hit_rate(stats: &StatsBody) -> f64 {
    stats.memo_hits as f64 / (stats.memo_hits + stats.memo_misses).max(1) as f64
}

/// The serve-layer per-layer metrics of one served window; `lookups`
/// counts prepared-graph lookups since the server started.
pub fn layer_metrics(served: &Served, stats: &StatsBody, lookups: u64, m: &mut Metrics) {
    let r = &served.replay;
    m.set("serve.overhead_us_p50", r.overhead.p50(), "us");
    m.set("serve.api.parse_us_p50", r.parse.p50(), "us");
    m.set("serve.api.encode_us_p50", r.encode.p50(), "us");
    m.set("graph.resize_us_p50", r.resize.p50(), "us");
    m.set("serve.predict_p50_ms", served.predict.p50(), "ms");
    m.set("serve.predict_p99_ms", served.predict.tail(0.99).0, "ms");
    m.set("serve.recommend_p50_ms", served.recommend.p50(), "ms");
    m.set(
        "serve.recommend_p95_ms",
        served.recommend.tail(0.95).0,
        "ms",
    );
    m.set("serve.optimize_p50_ms", served.optimize.p50(), "ms");
    m.set("serve.optimize_p90_ms", served.optimize.tail(0.90).0, "ms");
    m.set(
        "serve.shed",
        (stats.shed_queue + stats.shed_latency) as f64,
        "count",
    );
    m.set(
        "serve.deadline_expired",
        stats.deadline_expired as f64,
        "count",
    );
    m.set("serve.panics", stats.panics as f64, "count");
    m.set(
        "serve.degraded_answers",
        stats.degraded_answers as f64,
        "count",
    );
    m.set("serve.breaker_trips", stats.breaker_trips as f64, "count");
    m.set("serve.rejected", stats.rejected as f64, "count");
    m.set(
        "serve.prepared_hit_rate",
        prepared_hit_rate(stats, lookups),
        "ratio",
    );
    m.set("kernels.memo_hit_rate", memo_hit_rate(stats), "ratio");
    m.set("kernels.memo_entries", stats.memo_entries as f64, "count");
    m.set(
        "kernels.memo_evictions",
        stats.memo_evictions as f64,
        "count",
    );
}

/// The generated stream for `seed`.
pub fn stream(seed: u64) -> Vec<ServeReq> {
    gen::serve_stream(seed, STREAM_LEN)
}
