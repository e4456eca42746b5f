//! Property tests for the lane-reduction accumulation contract.
//!
//! The pinned numeric contract of every dot product in this crate (and
//! therefore of training, inference, and the persisted-model envelope) is
//! the W=4 lane reduction: lane `l` accumulates elements `k ≡ l (mod 4)`
//! in ascending `k`, exact-zero *left* operands are skipped per lane, and
//! the four partials reduce in the fixed tree `(a0+a1) + (a2+a3)`. These
//! tests pin the SIMD-friendly kernel to the scalar emulation bit for bit
//! across the shapes that historically break such contracts: remainder
//! tails of every residue, zeros landing on every lane, non-finite
//! right-hand operands under a zero left, and empty inputs.
//!
//! Two strategies are pinned: the single-output [`lane_dot`] and the
//! register-blocked four-output [`lane_dot4`] that every matrix product
//! runs (directly, through `Matrix::matmul`, and through `InferencePlan`),
//! over output counts of every residue mod 4 so both the blocked columns
//! and the `lane_dot` tail columns are covered.

use dlperf_nn::matrix::{lane_dot4, Matrix};
use dlperf_nn::{lane_dot, lane_dot_reference, Mlp, LANES};
use proptest::prelude::*;

/// A deterministic fill with planted exact zeros (about one in four),
/// from a seed.
fn filler(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        match (s >> 60) & 3 {
            0 => 0.0,
            _ => ((s >> 11) as f64 / (1u64 << 53) as f64) * 8.0 - 4.0,
        }
    }
}

/// Non-finite values that a true zero-skip must never let into a sum.
const POISON: [f64; 3] = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];

/// Checks `a × b` through `Matrix::matmul` element by element against the
/// scalar emulation.
fn assert_matmul_matches_reference(a: &Matrix, b: &Matrix) {
    let c = a.matmul(b);
    let bt = b.transpose();
    assert_eq!((c.rows(), c.cols()), (a.rows(), b.cols()));
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            assert_eq!(
                c.at(i, j).to_bits(),
                lane_dot_reference(a.row(i), bt.row(j)).to_bits(),
                "matmul element ({i}, {j}) of {}x{} × {}x{} broke the lane contract",
                a.rows(), a.cols(), b.rows(), b.cols()
            );
        }
    }
}

/// Checks a one-hidden-layer MLP's `InferencePlan` forward against the
/// scalar emulation composed by hand: hidden `h_j = max(ref(x, w1[:, j]) +
/// b1_j, 0)`, output `ref(h, w2[:, 0]) + b2`.
fn assert_plan_matches_reference(mlp: &mut Mlp, x: &Matrix) {
    let layers = mlp.layers_mut();
    let (w1t, b1) = (layers[0].w.transpose(), layers[0].b.clone());
    let (w2t, b2) = (layers[1].w.transpose(), layers[1].b[0]);
    let got = mlp.plan().predict(x);
    for (r, got) in got.iter().enumerate() {
        let hidden: Vec<f64> = (0..w1t.rows())
            .map(|j| (lane_dot_reference(x.row(r), w1t.row(j)) + b1[j]).max(0.0))
            .collect();
        let want = lane_dot_reference(&hidden, w2t.row(0)) + b2;
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "plan row {r} ({} inputs, {} hidden) broke the lane contract",
            x.cols(), w1t.rows()
        );
    }
}

/// Values that include exact zeros often enough to exercise the skip on
/// every lane, alongside ordinary magnitudes.
fn element() -> impl Strategy<Value = f64> {
    prop_oneof![-10.0f64..10.0, Just(0.0f64), Just(-0.0f64)]
}

fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
    (0..=max_len).prop_flat_map(|k| {
        (
            proptest::collection::vec(element(), k),
            proptest::collection::vec(-10.0f64..10.0, k),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The batched kernel and the scalar lane emulation agree bitwise on
    /// every length — chunked bodies and remainder tails of all residues
    /// mod W.
    #[test]
    fn lane_dot_matches_reference_bitwise((x, w) in vec_pair(41)) {
        prop_assert_eq!(
            lane_dot(&x, &w).to_bits(),
            lane_dot_reference(&x, &w).to_bits(),
            "lane kernel diverged from scalar emulation at k={}", x.len()
        );
    }

    /// The register-blocked kernel is four independent `lane_dot`s: each
    /// output matches the scalar emulation bitwise on every length.
    #[test]
    fn lane_dot4_matches_reference_per_output_bitwise(
        (x, w0) in vec_pair(41),
        seed in 0u64..u64::MAX,
    ) {
        let mut next = filler(seed);
        let ws: Vec<Vec<f64>> = std::iter::once(w0)
            .chain((0..3).map(|_| (0..x.len()).map(|_| next()).collect()))
            .collect();
        let got = lane_dot4(&x, [&ws[0], &ws[1], &ws[2], &ws[3]]);
        for (o, w) in ws.iter().enumerate() {
            prop_assert_eq!(
                got[o].to_bits(),
                lane_dot_reference(&x, w).to_bits(),
                "blocked output {} diverged from scalar emulation at k={}", o, x.len()
            );
        }
    }

    /// Zero-skip is a *true* skip on every lane: with an exact-zero left
    /// operand, the right operand never enters the arithmetic — even when
    /// it is inf or NaN, which `acc + 0.0 * w` would poison.
    #[test]
    fn zero_left_skips_nonfinite_right_on_every_lane(
        (x, mut w) in vec_pair(4 * LANES + 3),
        poison in proptest::collection::vec(
            prop_oneof![Just(f64::INFINITY), Just(f64::NEG_INFINITY), Just(f64::NAN)],
            0..8,
        ),
    ) {
        let clean = lane_dot(&x, &w);
        let zero_positions: Vec<usize> =
            (0..x.len()).filter(|&i| x[i] == 0.0).collect();
        for (j, p) in poison.into_iter().enumerate() {
            if let Some(&i) = zero_positions.get(j) {
                w[i] = p;
            }
        }
        prop_assert_eq!(
            lane_dot(&x, &w).to_bits(),
            clean.to_bits(),
            "a zero-skipped slot leaked its right operand into the sum"
        );
        prop_assert_eq!(lane_dot(&x, &w).to_bits(), lane_dot_reference(&x, &w).to_bits());
    }

    /// Remainder elements keep their lane assignment: padding both vectors
    /// with `(0.0, finite)` pairs up to the next multiple of W changes
    /// nothing — the pad slots are skipped in whatever lane they fall.
    #[test]
    fn zero_padding_to_full_width_is_invisible((x, w) in vec_pair(33), pad_w in -10.0f64..10.0) {
        let base = lane_dot(&x, &w);
        let (mut xp, mut wp) = (x, w);
        while !xp.len().is_multiple_of(LANES) {
            xp.push(0.0);
            wp.push(pad_w);
        }
        prop_assert_eq!(lane_dot(&xp, &wp).to_bits(), base.to_bits());
    }

    /// The batched matmul is *defined* as the lane contract applied per
    /// output element: it matches an element-by-element `lane_dot` over
    /// transposed stripes bitwise, for every shape including empty batches
    /// (zero rows).
    #[test]
    fn matmul_is_lane_dot_per_element_bitwise(
        (m, k, n) in (0usize..5, 1usize..9, 1usize..10),
        seed in 0u64..u64::MAX,
    ) {
        let mut next = filler(seed);
        let a = Matrix::from_fn(m, k, |_, _| next());
        let b = Matrix::from_fn(k, n, |_, _| next());
        let c = a.matmul(&b);
        prop_assert_eq!(c.rows(), m);
        prop_assert_eq!(c.cols(), n);
        let bt = b.transpose();
        for i in 0..m {
            for j in 0..n {
                prop_assert_eq!(
                    c.at(i, j).to_bits(),
                    lane_dot(a.row(i), bt.row(j)).to_bits(),
                    "element ({}, {}) broke the lane contract", i, j
                );
                prop_assert_eq!(
                    c.at(i, j).to_bits(),
                    lane_dot_reference(a.row(i), bt.row(j)).to_bits()
                );
            }
        }
    }
}

#[test]
fn empty_inputs_are_exactly_zero() {
    assert_eq!(lane_dot(&[], &[]).to_bits(), 0.0f64.to_bits());
    assert_eq!(lane_dot_reference(&[], &[]).to_bits(), 0.0f64.to_bits());
    let empty = Matrix::zeros(0, 3).matmul(&Matrix::zeros(3, 2));
    assert_eq!((empty.rows(), empty.cols()), (0, 2));
}

/// Exhaustive over the blocking edges: output counts 1–9 (every residue
/// mod 4 on the column axis, so blocked passes, tail columns and both
/// together), inner lengths 0–9 (every residue mod 4 on the k axis), and
/// for each lane an exact zero planted on that lane in every chunk with an
/// inf/NaN right operand beneath it — through `Matrix::matmul` and through
/// `InferencePlan`.
#[test]
fn blocked_kernel_matches_reference_on_every_residue_and_zero_lane() {
    for n in 1..=9usize {
        for k in 0..=9usize {
            for zero_lane in 0..LANES {
                let mut next = filler((n * 100 + k * 10 + zero_lane) as u64);
                let a = Matrix::from_fn(3, k, |_, c| if c % LANES == zero_lane { 0.0 } else { next() });
                let b = Matrix::from_fn(k, n, |r, c| {
                    if r % LANES == zero_lane { POISON[(r + c) % POISON.len()] } else { next() }
                });
                assert_matmul_matches_reference(&a, &b);
                let c = a.matmul(&b);
                assert!(
                    c.as_slice().iter().all(|v| v.is_finite()),
                    "a zero-skipped slot leaked a non-finite right operand (k={k}, n={n})"
                );

                if k == 0 {
                    continue; // an MLP needs at least one input feature
                }
                let mut mlp = Mlp::new(k, 1, n, (n * k) as u64);
                for r in (zero_lane..k).step_by(LANES) {
                    for c in 0..n {
                        *mlp.layers_mut()[0].w.at_mut(r, c) = POISON[(r + c) % POISON.len()];
                    }
                }
                assert_plan_matches_reference(&mut mlp, &a);
                let y = mlp.plan().predict(&a);
                assert!(y.iter().all(|v| v.is_finite()), "plan leaked a poisoned weight (k={k}, n={n})");
            }
        }
    }
}

/// The blocked kernel on dense random operands (no zero discipline) at
/// awkward magnitudes, where any reassociation shows in the low bits.
#[test]
fn blocked_kernel_matches_reference_on_dense_operands() {
    for n in 1..=9usize {
        for k in [1usize, 4, 5, 7, 8, 13, 48] {
            let a = Matrix::from_fn(5, k, |r, c| (1.0 + r as f64) * 10f64.powi((c % 7) as i32 - 3) + 0.1);
            let b = Matrix::from_fn(k, n, |r, c| (r as f64 - 1.7) * 3f64.powi((c % 5) as i32) + 1e-9);
            assert_matmul_matches_reference(&a, &b);
            let mut mlp = Mlp::new(k, 1, n, (7 * n + k) as u64);
            assert_plan_matches_reference(&mut mlp, &a);
        }
    }
}
