//! Workload input generators. Every generator is a pure function of the
//! seed: the same seed gives the same request stream, scenario list and
//! validation set; the program under test only ever sees the results.

use dlperf_serve::{Objective, Op, OptimizeQuery, PredictQuery, RecommendQuery, Request};

use crate::util::{Rng, Zipf};

/// Models and devices the served workload's server holds.
pub const SERVE_MODELS: [&str; 2] = ["dlrm-default", "dlrm-mlperf"];
pub const SERVE_DEVICES: [&str; 2] = ["v100", "p100"];
/// Per-model prepared-graph capacity of the served workload's server.
pub const PREPARED_CAPACITY: usize = 12;
/// Zipf exponent of the Predict key draw.
pub const ZIPF_S: f64 = 1.0;

/// Batch sizes a served Predict may ask for: four times the per-model
/// prepared-graph capacity, so the store has to evict.
pub fn serve_batch_pool() -> Vec<u64> {
    (0..PREPARED_CAPACITY as u64 * 4)
        .map(|i| 256 + 64 * i)
        .collect()
}

/// Baseline batches of served Optimize requests.
pub const OPTIMIZE_BATCHES: [u64; 3] = [512, 1024, 2048];
/// Batch-move targets of served Optimize requests (two fixed options).
pub const OPTIMIZE_MOVES: [[u64; 2]; 2] = [[256, 4096], [1024, 3072]];
/// World sizes of served Recommend requests.
pub const RECOMMEND_WORLDS: [usize; 2] = [2, 4];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    Predict,
    Recommend,
    Optimize,
}

/// One generated served request: its wire line plus what the checker needs.
#[derive(Debug, Clone)]
pub struct ServeReq {
    pub kind: ReqKind,
    pub line: String,
    /// `(model, batch, device)` of a Predict.
    pub predict: Option<(String, u64, String)>,
    /// The query of an Optimize, for the offline re-run.
    pub optimize: Option<OptimizeQuery>,
    /// Prepared-graph lookups the request makes in the server's store.
    pub lookups: u64,
}

/// One block of the served mix: 44 Predict, 4 Recommend (3 on
/// `dlrm-default`, 1 on `dlrm-mlperf`) and 2 Optimize (one per model) in
/// 50 requests — 88% / 8% / 4%. Fixed shares per block keep the mix the
/// same across seeds; the seed orders each block and draws every key.
///
/// A Recommend prices one batch size (on both devices, with the sharding
/// axis). With two clients, a Predict that arrives while the other client
/// holds a core with a Recommend or Optimize skips the server's watchdog
/// sleep and finishes several times faster; keeping those requests near a
/// quarter of the served time keeps the Predict median on one side of
/// that split.
const BLOCK: [(ReqKind, Option<usize>); 6] = [
    (ReqKind::Recommend, Some(0)),
    (ReqKind::Recommend, Some(0)),
    (ReqKind::Recommend, Some(0)),
    (ReqKind::Recommend, Some(1)),
    (ReqKind::Optimize, Some(0)),
    (ReqKind::Optimize, Some(1)),
];
const BLOCK_LEN: usize = 50;

/// The served request stream. Predict keys are Zipf-skewed over a seeded
/// ranking of the batch pool, per model.
pub fn serve_stream(seed: u64, n: usize) -> Vec<ServeReq> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let pool = serve_batch_pool();
    let rankings: Vec<Vec<u64>> = SERVE_MODELS
        .iter()
        .map(|_| {
            let mut r = pool.clone();
            rng.shuffle(&mut r);
            r
        })
        .collect();
    let zipf = Zipf::new(pool.len(), ZIPF_S);
    let mut out = Vec::with_capacity(n);
    let mut block: Vec<(ReqKind, Option<usize>)> = Vec::new();
    for i in 0..n {
        if block.is_empty() {
            block = BLOCK.to_vec();
            block.resize(BLOCK_LEN, (ReqKind::Predict, None));
            rng.shuffle(&mut block);
        }
        let (kind, model_index) = block.pop().expect("refilled above");
        let id = i as u64 + 1;
        let m = model_index.unwrap_or_else(|| rng.below(SERVE_MODELS.len()));
        let model = SERVE_MODELS[m].to_string();
        let (op, predict, optimize, lookups) = match kind {
            ReqKind::Predict => {
                let batch = rankings[m][zipf.sample(&mut rng)];
                let device = SERVE_DEVICES[rng.below(SERVE_DEVICES.len())].to_string();
                let q = PredictQuery {
                    model: model.clone(),
                    batch,
                    device: device.clone(),
                    deadline_ms: None,
                };
                (Op::Predict(q), Some((model, batch, device)), None, 1)
            }
            ReqKind::Recommend => {
                let batches = vec![rankings[m][zipf.sample(&mut rng)]];
                let objective = if rng.below(2) == 0 {
                    Objective::Latency
                } else {
                    Objective::Throughput
                };
                let lookups = (batches.len() * SERVE_DEVICES.len()) as u64;
                let q = RecommendQuery {
                    model,
                    batches,
                    devices: Vec::new(),
                    max_latency_ms: None,
                    world_sizes: RECOMMEND_WORLDS.to_vec(),
                    strategies: None,
                    topologies: None,
                    objective,
                    deadline_ms: None,
                };
                (Op::Recommend(q), None, None, lookups)
            }
            ReqKind::Optimize => {
                let q = OptimizeQuery {
                    model,
                    batch: OPTIMIZE_BATCHES[rng.below(OPTIMIZE_BATCHES.len())],
                    devices: None,
                    batches: Some(OPTIMIZE_MOVES[rng.below(OPTIMIZE_MOVES.len())].to_vec()),
                    beam_width: None,
                    max_depth: Some(2),
                    top_k: Some(5),
                    deadline_ms: None,
                };
                (Op::Optimize(q.clone()), None, Some(q), 1)
            }
        };
        let line = serde_json::to_string(&Request { id, op }).expect("requests serialize");
        out.push(ServeReq {
            kind,
            line,
            predict,
            optimize,
            lookups,
        });
    }
    out
}

/// The single-op what-if positions: `k` distinct picks from `candidates`.
pub fn single_op_positions(seed: u64, salt: u64, candidates: &[usize], k: usize) -> Vec<usize> {
    Rng::new(seed ^ salt).pick(candidates, k)
}

/// Search starts of one what-if window: every `(baseline batch, pair of
/// batch-move targets)` combination, in seeded order. Rounds cycle
/// through them, so every window prices the same mix of searches.
pub fn search_starts(seed: u64) -> Vec<(u64, Vec<u64>)> {
    let targets = [128u64, 256, 512, 1024, 2048, 4096];
    let mut out: Vec<(u64, Vec<u64>)> = [256u64, 512, 1024, 2048]
        .iter()
        .flat_map(|&b| {
            (0..targets.len()).flat_map(move |i| {
                (i + 1..targets.len()).map(move |j| (b, vec![targets[i], targets[j]]))
            })
        })
        .collect();
    Rng::new(seed ^ 0x5ea7c4).shuffle(&mut out);
    out
}

/// Batch the calibrate-validate analysis track profiles each DLRM config at.
pub const ANALYSIS_BATCH: u64 = 1024;
pub const VALIDATION_DLRM: [&str; 3] = ["dlrm-default", "dlrm-mlperf", "dlrm-ddp"];
pub const VALIDATION_CV: [&str; 3] = ["resnet50", "inception", "transformer"];

/// The held-out validation set: every DLRM paper config at every pooled
/// batch size the analysis did not profile, and every Fig. 10 model at
/// every pooled batch size, in seeded order.
pub fn validation_set(seed: u64) -> Vec<(&'static str, u64)> {
    let mut rng = Rng::new(seed ^ 0x7a11d);
    let dlrm_pool = [64u64, 128, 256, 512, 2048, 4096];
    let cv_pool = [16u64, 32, 64, 128];
    let mut out: Vec<(&'static str, u64)> = VALIDATION_DLRM
        .iter()
        .flat_map(|&m| dlrm_pool.iter().map(move |&b| (m, b)))
        .chain(
            VALIDATION_CV
                .iter()
                .flat_map(|&m| cv_pool.iter().map(move |&b| (m, b))),
        )
        .collect();
    rng.shuffle(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64) -> Vec<String> {
        serve_stream(seed, 400)
            .into_iter()
            .map(|r| r.line)
            .collect()
    }

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        assert_eq!(lines(11), lines(11));
        assert_ne!(lines(11), lines(12));
        assert_eq!(search_starts(5), search_starts(5));
        assert_ne!(search_starts(5), search_starts(6));
        assert_eq!(search_starts(5).len(), 60);
        assert_eq!(validation_set(9), validation_set(9));
        assert_ne!(validation_set(9), validation_set(10));
        let cands: Vec<usize> = (0..100).collect();
        assert_eq!(
            single_op_positions(3, 1, &cands, 16),
            single_op_positions(3, 1, &cands, 16)
        );
        assert_ne!(
            single_op_positions(3, 1, &cands, 16),
            single_op_positions(4, 1, &cands, 16)
        );
    }

    #[test]
    fn serve_mix_matches_its_shares_and_round_trips() {
        let stream = serve_stream(1, 5000);
        let share =
            |k: ReqKind| stream.iter().filter(|r| r.kind == k).count() as f64 / stream.len() as f64;
        assert_eq!(share(ReqKind::Predict), 0.88);
        assert_eq!(share(ReqKind::Recommend), 0.08);
        assert_eq!(share(ReqKind::Optimize), 0.04);
        for r in stream.iter().take(50) {
            let back: Request = serde_json::from_str(&r.line).expect("parses");
            assert_eq!(serde_json::to_string(&back).expect("encodes"), r.line);
        }
    }

    #[test]
    fn validation_set_is_held_out_from_analysis() {
        for seed in 0..20 {
            let set = validation_set(seed);
            assert_eq!(set.len(), 30);
            assert!(set
                .iter()
                .all(|(name, b)| !(VALIDATION_DLRM.contains(name) && *b == ANALYSIS_BATCH)));
        }
    }
}
