//! The repository benchmark: three workloads over the dlperf stack, run
//! from one process, their outputs checked, every metric printed by name
//! with its unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-mixed --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics of a traced run of the
//! same workload. The last line of standard output is one JSON object
//! with the keys `correct`, `attempted`, `failed` and `metrics`. See
//! `README.md` beside this file.

mod calval;
mod gen;
mod layers;
mod ledger;
mod report;
mod serve;
mod setup;
mod util;
mod whatif;

use std::time::{Duration, Instant};

use dlperf_core::pipeline::Pipeline;
use dlperf_gpusim::DeviceSpec;
use dlperf_models::zoo;

use crate::ledger::{Ledger, LAYERS};
use crate::report::{Context, Metrics, Outcome};
use crate::setup::{family_gmae, short_name, Accuracy, EFFORT_NAME};
use crate::util::{median, ms_since, nproc, peak_rss_mib, Samples};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Calibrate-validate cycles per untraced run, at least.
const CALVAL_CYCLES: usize = 3;
/// Requests the warm-up sends before the served window is timed.
const SERVE_WARMUP: usize = 300;
/// Requests of the served probe in workloads that do not serve.
const SERVE_PROBE_REQUESTS: usize = 240;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10u64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(bad)?,
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| format!("--trace: {e}"))? != 0,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let mut m = Metrics::default();
    let mut outcome = Outcome::default();
    let mut ctx = Context::default();
    ctx.put_str("workload", &args.workload);
    ctx.put("seed", args.seed);
    ctx.put("seconds", args.seconds);
    ctx.put("trace", u8::from(args.trace));
    ctx.put("nproc", nproc());
    ctx.put_str("effort", EFFORT_NAME);
    let budget = Duration::from_secs(args.seconds);
    type Workload = fn(u64, Duration, bool, &mut Metrics, &mut Outcome, &mut Context);
    let run: Workload = match args.workload.as_str() {
        "serve-mixed" => serve_mixed,
        "whatif-sweep" => whatif_sweep,
        "calibrate-validate" => calibrate_validate,
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    run(
        args.seed,
        budget,
        args.trace,
        &mut m,
        &mut outcome,
        &mut ctx,
    );
    if args.trace {
        m.set("failed_frac", 1.0 - outcome.ok_frac(), "ratio");
    }
    if !report::emit(&m, &outcome, &ctx) {
        std::process::exit(1);
    }
}

/// What every workload reports end to end.
struct EndToEnd<'a> {
    setup_s: &'a [f64],
    throughput_per_s: f64,
    fast: &'a Samples,
    fast_tail_q: f64,
    heavy: &'a Samples,
    accuracy: &'a Accuracy,
}

fn end_to_end(e: &EndToEnd<'_>, outcome: &Outcome, m: &mut Metrics, ctx: &mut Context) {
    let (tail, tail_q) = e.fast.tail(e.fast_tail_q);
    let (active, e2e, shared) = e.accuracy.gmeans();
    m.set("setup_s", median(e.setup_s), "s");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    m.set("ok_frac", outcome.ok_frac(), "ratio");
    m.set("throughput_per_s", e.throughput_per_s, "1/s");
    m.set("p50_ms", e.fast.p50(), "ms");
    m.set("tail_ms", tail, "ms");
    m.set("heavy_p50_ms", e.heavy.p50(), "ms");
    m.set("active_err_gmean_pct", active, "%");
    m.set("e2e_err_gmean_pct", e2e, "%");
    m.set("e2e_err_shared_gmean_pct", shared, "%");
    ctx.put("setup_samples", e.setup_s.len());
    ctx.put("fast_samples", e.fast.len());
    ctx.put("tail_quantile", format!("{tail_q:.4}"));
    ctx.put("heavy_samples", e.heavy.len());
    ctx.put("accuracy_samples", e.accuracy.e2e.len());
}

/// Folds the ledger and records the per-layer ledger metrics.
fn ledger_metrics(ledger: &Ledger, traced_wall_ms: f64, overhead_pct: f64, m: &mut Metrics) {
    let fold = ledger.fold(traced_wall_ms);
    for layer in LAYERS {
        m.set(format!("ledger.self_ms.{layer}"), fold.self_ms[layer], "ms");
    }
    m.set("ledger.unattributed_frac", fold.unattributed_frac, "ratio");
    m.set("trace_overhead_pct", overhead_pct, "%");
}

/// Serve-layer metrics for workloads that do not serve: a short served
/// probe over their own V100 and P100 pipelines.
fn serve_probe(
    seed: u64,
    pipelines: &[Pipeline],
    ledger: &Ledger,
    outcome: &mut Outcome,
    m: &mut Metrics,
) {
    let pick = |short: &str| {
        pipelines
            .iter()
            .find(|p| short_name(p.device()) == short)
            .expect("device present")
            .clone()
    };
    let setup = serve::ServeSetup {
        pipelines: gen::SERVE_DEVICES.iter().map(|d| pick(d)).collect(),
        bases: gen::SERVE_MODELS
            .iter()
            .map(|n| {
                (
                    n.to_string(),
                    zoo::build(n, serve::BASE_BATCH).expect("catalog model builds"),
                )
            })
            .collect(),
        calibrate_ms: Vec::new(),
        analyze_ms: Vec::new(),
    };
    let server = serve::start_server(&setup, ledger);
    let stream = serve::stream(seed);
    let served = serve::window(
        &server,
        &setup,
        &stream,
        Duration::from_secs(30),
        SERVE_PROBE_REQUESTS,
        ledger,
    );
    serve::layer_metrics(&served, &server.stats(), served.lookups, m);
    outcome.absorb(served.outcome);
}

fn serve_mixed(
    seed: u64,
    budget: Duration,
    trace: bool,
    m: &mut Metrics,
    outcome: &mut Outcome,
    ctx: &mut Context,
) {
    ctx.put("clients", serve::CLIENTS);
    ctx.put("workers", serve::WORKERS);
    ctx.put("prepared_capacity", gen::PREPARED_CAPACITY);
    ctx.put("batch_pool", gen::serve_batch_pool().len());
    let off = Ledger::new(false);
    let ledger = Ledger::new(trace);
    let stream = serve::stream(seed);
    let t_all = Instant::now();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let setup = serve::bring_up_served(&ledger);
        let server = serve::start_server(&setup, &ledger);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some((setup, server));
    }
    let (setup, server) = last.expect("set up at least once");
    let warm = {
        let _s = ledger.span("bench");
        serve::window(&server, &setup, &stream, budget, SERVE_WARMUP, &off)
    };
    outcome.absorb(warm.outcome);
    let mut lookups = warm.lookups;
    if !trace {
        let served = serve::window(&server, &setup, &stream, budget, usize::MAX, &off);
        lookups += served.lookups;
        let stats = server.stats();
        outcome.check(serve::stats_failures(&stats) == 0, || {
            format!("server counted failures: {stats:?}")
        });
        serve::check_offline(&setup, &stream, &served, outcome, &off);
        let acc = serve::accuracy(&setup, outcome, &off);
        family_gmae(setup.pipelines[0].predictor().registry(), outcome, &off);
        ctx.put("predict_samples", served.predict.len());
        ctx.put("recommend_samples", served.recommend.len());
        ctx.put("optimize_samples", served.optimize.len());
        ctx.put(
            "prepared_hit_share",
            format!("{:.4}", serve::prepared_hit_rate(&stats, lookups)),
        );
        ctx.put(
            "memo_hit_share",
            format!("{:.4}", serve::memo_hit_rate(&stats)),
        );
        let e = EndToEnd {
            setup_s: &setup_s,
            throughput_per_s: served.completed as f64 / served.elapsed_s,
            fast: &served.predict,
            fast_tail_q: 0.95,
            heavy: &served.recommend,
            accuracy: &acc,
        };
        outcome.absorb(served.outcome);
        end_to_end(&e, outcome, m, ctx);
        return;
    }
    let half = budget / 2;
    let t_u = Instant::now();
    let untraced = serve::window(&server, &setup, &stream, half, usize::MAX, &off);
    let untraced_ms = ms_since(t_u);
    let traced = serve::window(&server, &setup, &stream, half, usize::MAX, &ledger);
    lookups += untraced.lookups + traced.lookups;
    serve::layer_metrics(&traced, &server.stats(), lookups, m);
    {
        let _s = ledger.span("bench");
        serve::check_offline(&setup, &stream, &traced, outcome, &ledger);
    }
    let inputs = layers::ProbeInputs {
        pipelines: &setup.pipelines,
        calibrate_ms: &setup.calibrate_ms,
        analyze_ms: &setup.analyze_ms,
    };
    layers::probe(&inputs, &ledger, outcome, m);
    let rate = |s: &serve::Served| s.completed as f64 / s.elapsed_s;
    let overhead = (rate(&untraced) / rate(&traced) - 1.0) * 100.0;
    outcome.absorb(untraced.outcome);
    outcome.absorb(traced.outcome);
    ledger_metrics(&ledger, ms_since(t_all) - untraced_ms, overhead, m);
}

fn whatif_sweep(
    seed: u64,
    budget: Duration,
    trace: bool,
    m: &mut Metrics,
    outcome: &mut Outcome,
    ctx: &mut Context,
) {
    ctx.put("threads", whatif::threads());
    ctx.put("searches_per_round", whatif::SEARCHES_PER_ROUND);
    let off = Ledger::new(false);
    let ledger = Ledger::new(trace);
    let base = whatif::base_graph();
    let t_all = Instant::now();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..if trace { 1 } else { SETUP_REPS } {
        let t = Instant::now();
        let s = whatif::bring_up_all(&base, &ledger);
        setup_s.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    let setup = last.expect("set up at least once");
    let pipelines = &setup.pipelines;
    let (list, single) = whatif::scenarios(seed, pipelines, &base);
    let starts = gen::search_starts(seed);
    let refs = {
        let _s = ledger.span("bench");
        whatif::references(pipelines, &base, &list, &starts, outcome)
    };
    ctx.put("scenarios", list.len());
    ctx.put(
        "single_op_share",
        format!("{:.4}", single as f64 / list.len() as f64),
    );
    if !trace {
        let rounds = whatif::window(pipelines, &base, &list, &starts, &refs, budget, 3, &off);
        let graphs: Vec<_> = [256u64, 1024, 4096]
            .iter()
            .map(|&b| {
                dlperf_core::prepare_graph(&base, &[dlperf_core::GraphMutation::ResizeBatch(b)])
                    .expect("fixed batches prepare")
            })
            .collect();
        let acc = setup::score_all(pipelines, &graphs, outcome, &off);
        family_gmae(pipelines[0].predictor().registry(), outcome, &off);
        ctx.put("rounds", rounds.sweep.len());
        ctx.put(
            "sweep_cache_hit_rate",
            format!("{:.4}", rounds.cache_hit_rate),
        );
        let e = EndToEnd {
            setup_s: &setup_s,
            throughput_per_s: rounds.scenarios_per_s(),
            fast: &rounds.search,
            fast_tail_q: 0.90,
            heavy: &rounds.sweep,
            accuracy: &acc,
        };
        outcome.absorb(rounds.outcome);
        end_to_end(&e, outcome, m, ctx);
        return;
    }
    let half = budget / 2;
    let t_u = Instant::now();
    let untraced = whatif::window(pipelines, &base, &list, &starts, &refs, half, 1, &off);
    let untraced_ms = ms_since(t_u);
    let traced = whatif::window(pipelines, &base, &list, &starts, &refs, half, 1, &ledger);
    let inputs = layers::ProbeInputs {
        pipelines,
        calibrate_ms: &setup.calibrate_ms,
        analyze_ms: &setup.analyze_ms,
    };
    layers::probe(&inputs, &ledger, outcome, m);
    serve_probe(seed, pipelines, &ledger, outcome, m);
    let overhead = (untraced.scenarios_per_s() / traced.scenarios_per_s() - 1.0) * 100.0;
    outcome.absorb(untraced.outcome);
    outcome.absorb(traced.outcome);
    ledger_metrics(&ledger, ms_since(t_all) - untraced_ms, overhead, m);
}

fn calibrate_validate(
    seed: u64,
    budget: Duration,
    trace: bool,
    m: &mut Metrics,
    outcome: &mut Outcome,
    ctx: &mut Context,
) {
    ctx.put("devices", DeviceSpec::paper_devices().len());
    let off = Ledger::new(false);
    let ledger = Ledger::new(trace);
    let t_all = Instant::now();
    let inputs = calval::inputs(seed, &ledger);
    ctx.put("validation_configs", inputs.validation.len());
    ctx.put("held_out_share", format!("{:.4}", inputs.held_out_share));
    let truths = {
        let _s = ledger.span("bench");
        calval::truths(&inputs, &ledger, outcome)
    };
    if !trace {
        let cycles = calval::window(&inputs, &truths, budget, CALVAL_CYCLES, &off);
        family_gmae(cycles.pipelines[0].predictor().registry(), outcome, &off);
        ctx.put("cycles", cycles.setup_s.len());
        ctx.put("cv_err_gmean_pct", format!("{:.3}", cycles.cv_err_pct));
        let e = EndToEnd {
            setup_s: &cycles.setup_s,
            throughput_per_s: cycles.predictions_per_s(),
            fast: &cycles.predict,
            fast_tail_q: 0.90,
            heavy: &cycles.bring_up,
            accuracy: &cycles.accuracy,
        };
        outcome.absorb(cycles.outcome);
        end_to_end(&e, outcome, m, ctx);
        return;
    }
    let half = budget / 2;
    let t_u = Instant::now();
    let untraced = calval::window(&inputs, &truths, half, 1, &off);
    let untraced_ms = ms_since(t_u);
    let traced = calval::window(&inputs, &truths, half, 1, &ledger);
    let inputs = layers::ProbeInputs {
        pipelines: &traced.pipelines,
        calibrate_ms: &traced.calibrate_ms,
        analyze_ms: &traced.analyze_ms,
    };
    layers::probe(&inputs, &ledger, outcome, m);
    serve_probe(seed, &traced.pipelines, &ledger, outcome, m);
    let overhead = (traced.bring_up.p50() / untraced.bring_up.p50() - 1.0) * 100.0;
    outcome.absorb(untraced.outcome);
    outcome.absorb(traced.outcome);
    ledger_metrics(&ledger, ms_since(t_all) - untraced_ms, overhead, m);
}
