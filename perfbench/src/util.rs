//! Small shared pieces: the seeded generator, percentile rules, host facts.

use std::time::Instant;

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// input stream on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }

    /// `k` distinct items of `pool`, in draw order.
    pub fn pick<T: Clone>(&mut self, pool: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..pool.len()).collect();
        self.shuffle(&mut idx);
        idx.into_iter().take(k).map(|i| pool[i].clone()).collect()
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// Latency samples of one operation class, in milliseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push_since(&mut self, t0: Instant) {
        self.0.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The median (upper median for even counts); 0 when empty.
    pub fn p50(&self) -> f64 {
        let v = self.sorted();
        v.get(v.len() / 2).copied().unwrap_or(0.0)
    }

    /// The `q`-quantile, lowered when needed so that at least ten samples
    /// lie beyond it: with `n` samples the rank never exceeds `n - 11`.
    /// Returns the value and the quantile actually reported.
    pub fn tail(&self, q: f64) -> (f64, f64) {
        let v = self.sorted();
        let n = v.len();
        if n == 0 {
            return (0.0, 0.0);
        }
        let wanted = ((q * n as f64).ceil() as usize).saturating_sub(1);
        let rank = wanted.min(n.saturating_sub(11));
        (v[rank], (rank + 1) as f64 / n as f64)
    }
}

/// Median of a few repeated measurements (upper median).
pub fn median(values: &[f64]) -> f64 {
    Samples(values.to_vec()).p50()
}

/// Geometric mean of relative errors, in percent; each error is floored
/// at 1e-6 so an exact hit cannot send the mean to zero.
pub fn gmean_pct(errs: &[f64]) -> f64 {
    if errs.is_empty() {
        return 0.0;
    }
    let logs: f64 = errs.iter().map(|e| e.abs().max(1e-6).ln()).sum();
    (logs / errs.len() as f64).exp() * 100.0
}

/// Relative error of `pred` against `actual`.
pub fn rel_err(pred: f64, actual: f64) -> f64 {
    ((pred - actual) / actual).abs()
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(8), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.tail(0.90), (90.0, 0.90));
        // p99 of 100 samples would leave one beyond it: lowered to rank 89.
        assert_eq!(s.tail(0.99), (90.0, 0.90));
        assert_eq!(s.p50(), 51.0);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(40, 1.1);
        let mut rng = Rng::new(3);
        let mut counts = [0usize; 40];
        for _ in 0..4000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[39]);
    }
}
