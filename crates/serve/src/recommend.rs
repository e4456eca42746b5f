//! The objective-driven configuration recommender.
//!
//! Turns a device catalog plus latency/memory bounds into a ranked list of
//! `(device, batch, sharding)` configurations, each with a reasoning
//! string saying *why* it ranks where it does and each rejection saying
//! *why not*. Prices come from the same bounded caches and cancellable
//! walks as `Op::Predict`, so a recommendation is exactly as deterministic
//! as the predictions it is built from.

use dlperf_core::predictor::PredictError;
use dlperf_core::WalkScratch;
use dlperf_distrib::{enumerate_matrix, sweep_shardings, DistributedPredictor, ParallelismStrategy};
use dlperf_graph::memory;
use dlperf_models::zoo;
use dlperf_runtime::CancellationToken;

use crate::api::{
    Body, ConfigChoice, ErrorCode, Objective, RecommendQuery, RecommendationBody, RejectedConfig,
};
use crate::server::Shared;

/// Default batch ladder when the query names none.
const DEFAULT_BATCHES: [u64; 5] = [256, 512, 1024, 2048, 4096];

/// Runs one recommendation query. Always returns a body: a
/// [`RecommendationBody`] on success, a typed error for unknown names or
/// an expired deadline.
pub(crate) fn run(shared: &Shared, q: &RecommendQuery, token: &CancellationToken) -> Body {
    let Some(entry) = shared.models.get(&q.model) else {
        return Body::error(ErrorCode::NotFound, format!("unknown model `{}`", q.model));
    };
    let engines = match shared.devices(&q.devices) {
        Ok(engines) => engines,
        Err(unknown) => return Body::error(ErrorCode::NotFound, unknown),
    };
    let batches: &[u64] = if q.batches.is_empty() { &DEFAULT_BATCHES } else { &q.batches };

    // The multi-GPU axes resolve up front: strategy names are a closed
    // vocabulary (unknown ones are a typed error, like unknown devices),
    // while topology names always resolve — unknown ones price on the
    // most conservative shape and surface as degraded candidates.
    let mut strategies: Vec<ParallelismStrategy> = Vec::new();
    for name in q.strategies.as_deref().unwrap_or_default() {
        match ParallelismStrategy::from_name(name) {
            Some(s) if !strategies.contains(&s) => strategies.push(s),
            Some(_) => {}
            None => {
                return Body::error(
                    ErrorCode::NotFound,
                    format!("unknown parallelism strategy `{name}`"),
                );
            }
        }
    }
    if strategies.is_empty() {
        strategies.push(ParallelismStrategy::Hybrid);
    }
    let requested_topologies = q.topologies.as_deref().unwrap_or_default();
    let topology_names: Vec<&str> = if requested_topologies.is_empty() {
        vec!["auto"]
    } else {
        requested_topologies.iter().map(String::as_str).collect()
    };

    let mut ranked: Vec<ConfigChoice> = Vec::new();
    let mut rejected: Vec<RejectedConfig> = Vec::new();

    for engine in engines {
        let device = engine.pipeline.device().clone();
        let device_name = &device.name;
        for &batch in batches {
            if token.is_cancelled() {
                return Body::error(ErrorCode::DeadlineExceeded, "deadline expired mid-search");
            }
            if batch == 0 || batch > (1 << 24) {
                rejected.push(RejectedConfig {
                    device: device_name.clone(),
                    batch,
                    reason: "batch out of range [1, 2^24]".into(),
                });
                continue;
            }
            let graph = entry.graph(batch);
            let g = match graph.as_ref() {
                Ok(g) => g,
                Err(e) => {
                    rejected.push(RejectedConfig {
                        device: device_name.clone(),
                        batch,
                        reason: format!("graph preparation failed: {e}"),
                    });
                    continue;
                }
            };
            let report = memory::estimate(g);
            if !report.fits(device.memory_bytes, 0.1) {
                rejected.push(RejectedConfig {
                    device: device_name.clone(),
                    batch,
                    reason: format!(
                        "needs {:.1} GiB, device has {:.1} GiB (10% reserved)",
                        report.peak_bytes() as f64 / (1u64 << 30) as f64,
                        device.memory_bytes as f64 / (1u64 << 30) as f64
                    ),
                });
                continue;
            }
            let scratch = &mut WalkScratch::new();
            match engine.pipeline.predictor().walk(g, Some(&engine.cache), Some(token), scratch) {
                Ok(p) => {
                    push_candidate(
                        &mut ranked,
                        &mut rejected,
                        q,
                        device_name,
                        batch,
                        None,
                        p.e2e_us,
                    );
                }
                Err(PredictError::Cancelled) => {
                    return Body::error(
                        ErrorCode::DeadlineExceeded,
                        "deadline expired mid-search",
                    );
                }
                Err(PredictError::Lower(e)) => {
                    rejected.push(RejectedConfig {
                        device: device_name.clone(),
                        batch,
                        reason: format!("lowering failed: {e}"),
                    });
                }
            }

            // The multi-GPU axis, for DLRM models when world sizes were
            // asked for.
            if !q.world_sizes.is_empty() {
                if let Some(config) = zoo::dlrm_config(&q.model, batch) {
                    let predictor = DistributedPredictor::new(
                        engine.pipeline.predictor().clone(),
                        device.clone(),
                    );
                    let scenarios = enumerate_matrix(
                        config.rows_per_table.len(),
                        &q.world_sizes,
                        &strategies,
                        &topology_names,
                        &device,
                    );
                    let outcome =
                        sweep_shardings(&predictor, &config, &scenarios, 1, token);
                    if token.is_cancelled() {
                        return Body::error(
                            ErrorCode::DeadlineExceeded,
                            "deadline expired mid-search",
                        );
                    }
                    for result in outcome.results.iter().flatten() {
                        // A degraded cell still ranks, but says so.
                        let label = match &result.degraded {
                            Some(d) => format!("{} (degraded: {d})", result.label),
                            None => result.label.clone(),
                        };
                        match (&result.prediction, &result.error) {
                            (Some(p), _) => push_candidate(
                                &mut ranked,
                                &mut rejected,
                                q,
                                device_name,
                                batch,
                                Some(label),
                                p.e2e_us,
                            ),
                            (None, Some(e)) => rejected.push(RejectedConfig {
                                device: device_name.clone(),
                                batch,
                                reason: format!("sharding {}: {e}", result.label),
                            }),
                            (None, None) => {}
                        }
                    }
                }
            }
        }
    }

    sort_ranked(&mut ranked, q.objective);
    for (position, choice) in ranked.iter_mut().enumerate() {
        choice.reasoning = format!("rank {}: {}", position + 1, choice.reasoning);
    }
    let recommended = ranked.first().cloned();
    Body::Recommendation(RecommendationBody { recommended, ranked, rejected })
}

#[allow(clippy::too_many_arguments)]
fn push_candidate(
    ranked: &mut Vec<ConfigChoice>,
    rejected: &mut Vec<RejectedConfig>,
    q: &RecommendQuery,
    device: &str,
    batch: u64,
    sharding: Option<String>,
    e2e_us: f64,
) {
    let latency_ms = e2e_us / 1000.0;
    let samples_per_sec = if e2e_us > 0.0 { batch as f64 * 1e6 / e2e_us } else { 0.0 };
    let config_label = match &sharding {
        Some(s) => format!("batch {batch} on {device} sharded {s}"),
        None => format!("batch {batch} on {device}"),
    };
    if let Some(bound) = q.max_latency_ms {
        if latency_ms > bound {
            rejected.push(RejectedConfig {
                device: device.to_string(),
                batch,
                reason: format!(
                    "{config_label}: predicted {latency_ms:.2} ms exceeds the {bound:.2} ms bound"
                ),
            });
            return;
        }
    }
    let bound_note = match q.max_latency_ms {
        Some(bound) => format!(", within the {bound:.2} ms bound"),
        None => String::new(),
    };
    ranked.push(ConfigChoice {
        device: device.to_string(),
        batch,
        sharding,
        e2e_us,
        samples_per_sec,
        reasoning: format!(
            "{config_label} predicts {latency_ms:.2} ms/batch ({samples_per_sec:.0} samples/s){bound_note}"
        ),
    });
}

/// Deterministic objective ordering with a stable `(device, batch,
/// sharding)` tie-break, so equal predictions rank identically run-to-run.
fn sort_ranked(ranked: &mut [ConfigChoice], objective: Objective) {
    ranked.sort_by(|a, b| {
        let primary = match objective {
            Objective::Latency => {
                a.e2e_us.partial_cmp(&b.e2e_us).unwrap_or(std::cmp::Ordering::Equal)
            }
            Objective::Throughput => b
                .samples_per_sec
                .partial_cmp(&a.samples_per_sec)
                .unwrap_or(std::cmp::Ordering::Equal),
        };
        primary
            .then_with(|| a.device.cmp(&b.device))
            .then_with(|| a.batch.cmp(&b.batch))
            .then_with(|| a.sharding.cmp(&b.sharding))
    });
}
