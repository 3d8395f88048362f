//! Matrix multiplication kernels.
//!
//! Three implementations of the paper's task: a naive triple loop (the
//! honest Python-equivalent), a register-tiled i-k-j kernel, and the same
//! tiled body run over row panels. The tiled body is written once and
//! compiled three ways (AVX-512, AVX2 and the baseline target); each call
//! picks the widest tier the CPU reports. Wrapping `i64` addition is
//! associative and commutative mod 2⁶⁴, so every loop order and every tier
//! yields exactly the naive kernel's bits: the determinism contract holds
//! with no tolerance, on any host. Property tests pin the algebra, and the
//! calibration harness measures the real runtime to parameterize the
//! simulator's compute model.

use rayon::prelude::*;

use crate::matrix::Matrix;

/// Which kernel to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Kernel {
    /// Triple nested loop, row-major (closest to the paper's NumPy-free
    /// baseline semantics).
    Naive,
    /// Register-tiled i-k-j: four output rows are updated at a time, each
    /// by one broadcast element of A times one streamed row of B, compiled
    /// for the widest vector ISA the CPU reports.
    #[default]
    Blocked,
    /// The `Blocked` body run over row panels of the output.
    Parallel,
}

/// Output rows per panel of [`Kernel::Parallel`].
const PANEL_ROWS: usize = 32;

/// Multiply `a × b` with the chosen kernel.
///
/// # Panics
/// Panics when the inner dimensions disagree.
pub fn matmul(a: &Matrix, b: &Matrix, kernel: Kernel) -> Matrix {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimension mismatch: {}x{} × {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    match kernel {
        Kernel::Naive => naive(a, b),
        Kernel::Blocked => blocked(a, b),
        Kernel::Parallel => parallel(a, b),
    }
}

fn naive(a: &Matrix, b: &Matrix) -> Matrix {
    let (n, k, m) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(n, m);
    for i in 0..n {
        for j in 0..m {
            let mut acc = 0i64;
            for l in 0..k {
                acc = acc.wrapping_add(a.get(i, l).wrapping_mul(b.get(l, j)));
            }
            out.set(i, j, acc);
        }
    }
    out
}

fn blocked(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    accumulate(
        a.as_slice(),
        b.as_slice(),
        out.data_mut(),
        a.cols(),
        b.cols(),
    );
    out
}

fn parallel(a: &Matrix, b: &Matrix) -> Matrix {
    let (k, m) = (a.cols(), b.cols());
    let mut out = Matrix::zeros(a.rows(), m);
    if m == 0 {
        return out;
    }
    out.data_mut()
        .par_chunks_mut(PANEL_ROWS * m)
        .enumerate()
        .for_each(|(p, panel)| {
            let first = p * PANEL_ROWS * k;
            let rows = panel.len() / m;
            accumulate(
                &a.as_slice()[first..first + rows * k],
                b.as_slice(),
                panel,
                k,
                m,
            );
        });
    out
}

/// Add `a × b` into `out`, where `b` is `k × m` and `a` and `out` hold the
/// same number of rows (`k` and `m` wide), with the widest tier the CPU
/// reports.
fn accumulate(a: &[i64], b: &[i64], out: &mut [i64], k: usize, m: usize) {
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if has_avx512() {
            // SAFETY: `has_avx512` checks with `is_x86_feature_detected!`
            // every feature `tier_avx512` is compiled for.
            return unsafe { tier_avx512(a, b, out, k, m) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: the `is_x86_feature_detected!("avx2")` check above
            // confirms the one feature `tier_avx2` is compiled for.
            return unsafe { tier_avx2(a, b, out, k, m) };
        }
    }
    tier_baseline(a, b, out, k, m);
}

/// Does the CPU report every feature [`tier_avx512`] is compiled for?
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
        && is_x86_feature_detected!("avx2")
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx512f,avx512dq,avx512vl,avx2")]
unsafe fn tier_avx512(a: &[i64], b: &[i64], out: &mut [i64], k: usize, m: usize) {
    tiled(a, b, out, k, m);
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn tier_avx2(a: &[i64], b: &[i64], out: &mut [i64], k: usize, m: usize) {
    tiled(a, b, out, k, m);
}

fn tier_baseline(a: &[i64], b: &[i64], out: &mut [i64], k: usize, m: usize) {
    tiled(a, b, out, k, m);
}

/// The one kernel body, inlined into each tier so each compiles it for its
/// own ISA. For every quad of output rows and every `l`, the four elements
/// `a[i..i + 4][l]` are broadcast against row `l` of B and added into the
/// four rows; the quad's rows (4·m values) stay in L1 while B streams past.
/// Rows left over after the last quad take the same path one at a time.
#[inline(always)]
fn tiled(a: &[i64], b: &[i64], out: &mut [i64], k: usize, m: usize) {
    if k == 0 || m == 0 {
        return;
    }
    let mut a_quads = a.chunks_exact(4 * k);
    let mut out_quads = out.chunks_exact_mut(4 * m);
    for (aq, oq) in (&mut a_quads).zip(&mut out_quads) {
        let (a0, rest) = aq.split_at(k);
        let (a1, rest) = rest.split_at(k);
        let (a2, a3) = rest.split_at(k);
        let (o0, rest) = oq.split_at_mut(m);
        let (o1, rest) = rest.split_at_mut(m);
        let (o2, o3) = rest.split_at_mut(m);
        for (l, brow) in b.chunks_exact(m).enumerate() {
            let (x0, x1, x2, x3) = (a0[l], a1[l], a2[l], a3[l]);
            let rows = o0.iter_mut().zip(o1.iter_mut()).zip(o2.iter_mut());
            for (((c0, c1), c2), (c3, &y)) in rows.zip(o3.iter_mut().zip(brow)) {
                *c0 = c0.wrapping_add(x0.wrapping_mul(y));
                *c1 = c1.wrapping_add(x1.wrapping_mul(y));
                *c2 = c2.wrapping_add(x2.wrapping_mul(y));
                *c3 = c3.wrapping_add(x3.wrapping_mul(y));
            }
        }
    }
    let a_rest = a_quads.remainder().chunks_exact(k);
    for (arow, orow) in a_rest.zip(out_quads.into_remainder().chunks_exact_mut(m)) {
        for (&x, brow) in arow.iter().zip(b.chunks_exact(m)) {
            for (c, &y) in orow.iter_mut().zip(brow) {
                *c = c.wrapping_add(x.wrapping_mul(y));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use swf_simcore::DetRng;

    /// A compiled tier of the tiled body, called directly.
    type Tier = fn(&[i64], &[i64], &mut [i64], usize, usize);

    /// Every tier the running CPU can execute; the baseline always.
    fn tiers() -> Vec<(&'static str, Tier)> {
        let mut tiers: Vec<(&'static str, Tier)> = vec![("baseline", tier_baseline)];
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            if is_x86_feature_detected!("avx2") {
                // SAFETY: only reachable after the CPU reported avx2.
                tiers.push(("avx2", |a, b, o, k, m| unsafe { tier_avx2(a, b, o, k, m) }));
            }
            if has_avx512() {
                // SAFETY: only reachable after `has_avx512` confirmed
                // every feature the tier is compiled for.
                tiers.push(("avx512", |a, b, o, k, m| unsafe {
                    tier_avx512(a, b, o, k, m)
                }));
            }
        }
        tiers
    }

    fn run_tier(tier: Tier, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        tier(
            a.as_slice(),
            b.as_slice(),
            out.data_mut(),
            a.cols(),
            b.cols(),
        );
        out
    }

    /// Every tier and every public kernel equals `Kernel::Naive`, bit for bit.
    fn assert_all_match_naive(a: &Matrix, b: &Matrix) {
        let want = matmul(a, b, Kernel::Naive);
        let shape = (a.rows(), a.cols(), b.cols());
        for (name, tier) in tiers() {
            assert_eq!(run_tier(tier, a, b), want, "tier {name}, n×k×m {shape:?}");
        }
        assert_eq!(matmul(a, b, Kernel::Blocked), want, "Blocked {shape:?}");
        assert_eq!(matmul(a, b, Kernel::Parallel), want, "Parallel {shape:?}");
    }

    fn full_range(r: usize, c: usize, seed: u64, stream: &str) -> Matrix {
        let mut rng = DetRng::new(seed, stream);
        Matrix::random(r, c, &mut rng, i64::MIN, i64::MAX)
    }

    fn random_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = DetRng::new(seed, "mm");
        Matrix::random(r, c, &mut rng, -100, 100)
    }

    #[test]
    fn kernels_agree() {
        let a = random_matrix(17, 23, 1);
        let b = random_matrix(23, 11, 2);
        let naive = matmul(&a, &b, Kernel::Naive);
        assert_eq!(naive, matmul(&a, &b, Kernel::Blocked));
        assert_eq!(naive, matmul(&a, &b, Kernel::Parallel));
    }

    #[test]
    fn every_tier_matches_naive_on_remainder_shapes() {
        const DIMS: [usize; 8] = [1, 2, 3, 4, 5, 7, 9, 17];
        for n in DIMS {
            for k in DIMS {
                for m in DIMS {
                    let seed = (n * 10_000 + k * 100 + m) as u64;
                    assert_all_match_naive(
                        &full_range(n, k, seed, "a"),
                        &full_range(k, m, seed, "b"),
                    );
                }
            }
        }
    }

    #[test]
    fn every_tier_matches_naive_on_rectangular_and_panel_shapes() {
        // Row counts around the quad and the `Parallel` panel boundaries.
        for (n, k, m) in [
            (31, 5, 7),
            (32, 3, 9),
            (33, 17, 2),
            (65, 4, 5),
            (6, 40, 1),
            (1, 3, 70),
        ] {
            assert_all_match_naive(&full_range(n, k, 7, "a"), &full_range(k, m, 7, "b"));
        }
    }

    #[test]
    fn every_tier_matches_naive_at_paper_scale() {
        let n = Matrix::PAPER_DIM;
        let mut rng = DetRng::new(350, "paper");
        let a = Matrix::paper_random(&mut rng);
        let b = Matrix::paper_random(&mut rng);
        assert_all_match_naive(&a, &b);
        assert_all_match_naive(&full_range(n, n, 350, "a"), &full_range(n, n, 350, "b"));
        assert_all_match_naive(&full_range(n, 9, 351, "a"), &full_range(9, n, 351, "b"));
    }

    #[test]
    fn every_tier_wraps_like_naive_at_the_extremes() {
        let pattern = [i64::MIN, i64::MAX, -1, 1, i64::MIN + 1, i64::MAX - 1, 0];
        let extreme = |r: usize, c: usize, shift: usize| {
            let data = (0..r * c)
                .map(|i| pattern[(i * 3 + shift) % pattern.len()])
                .collect();
            Matrix::from_vec(r, c, data)
        };
        for (n, k, m) in [(5, 9, 7), (8, 8, 8), (13, 3, 17)] {
            assert_all_match_naive(&extreme(n, k, 0), &extreme(k, m, 2));
        }
        let min = Matrix::from_vec(4, 4, vec![i64::MIN; 16]);
        let max = Matrix::from_vec(4, 4, vec![i64::MAX; 16]);
        assert_all_match_naive(&min, &max);
        assert_all_match_naive(&max, &max);
    }

    #[test]
    fn every_tier_matches_naive_over_a_ten_step_chain() {
        let (n, k) = (9, 9);
        let steps: Vec<Matrix> = (0..10).map(|s| full_range(k, k, s, "step")).collect();
        let start = full_range(n, k, 99, "start");
        let chain = |mul: &dyn Fn(&Matrix, &Matrix) -> Matrix| {
            steps.iter().fold(start.clone(), |acc, b| mul(&acc, b))
        };
        let want = chain(&|a, b| matmul(a, b, Kernel::Naive));
        for (name, tier) in tiers() {
            assert_eq!(chain(&|a, b| run_tier(tier, a, b)), want, "tier {name}");
        }
        assert_eq!(chain(&|a, b| matmul(a, b, Kernel::Blocked)), want);
        assert_eq!(chain(&|a, b| matmul(a, b, Kernel::Parallel)), want);
    }

    #[test]
    fn empty_dimensions_give_zero_products() {
        for (n, k, m) in [(0, 3, 4), (3, 0, 4), (3, 4, 0), (0, 0, 0)] {
            let a = full_range(n, k, 1, "a");
            let b = full_range(k, m, 1, "b");
            assert_eq!(matmul(&a, &b, Kernel::Naive), Matrix::zeros(n, m));
            assert_all_match_naive(&a, &b);
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = random_matrix(9, 9, 3);
        let i = Matrix::identity(9);
        assert_eq!(matmul(&a, &i, Kernel::Blocked), a);
        assert_eq!(matmul(&i, &a, Kernel::Blocked), a);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b, Kernel::Naive);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1, 2, 3, 4]);
        let b = Matrix::from_vec(2, 2, vec![5, 6, 7, 8]);
        let c = matmul(&a, &b, Kernel::Naive);
        assert_eq!(c.as_slice(), &[19, 22, 43, 50]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// (AB)ᵀ = BᵀAᵀ for all kernels, over the whole wrapping domain.
        #[test]
        fn transpose_antihomomorphism(seed in 0u64..1000, n in 1usize..40, k in 1usize..40, m in 1usize..40) {
            let a = full_range(n, k, seed, "a");
            let b = full_range(k, m, seed, "b");
            for kernel in [Kernel::Naive, Kernel::Blocked, Kernel::Parallel] {
                let ab_t = matmul(&a, &b, kernel).transpose();
                let bt_at = matmul(&b.transpose(), &a.transpose(), kernel);
                prop_assert_eq!(ab_t, bt_at);
            }
        }

        /// A(B+C) = AB + AC (distributivity) mod 2⁶⁴.
        #[test]
        fn distributive_over_addition(seed in 0u64..1000, n in 1usize..24) {
            let a = full_range(n, n, seed, "a");
            let b = full_range(n, n, seed, "b");
            let c = full_range(n, n, seed, "c");
            let add = |x: &Matrix, y: &Matrix| {
                let sum = x.as_slice().iter().zip(y.as_slice()).map(|(p, q)| p.wrapping_add(*q));
                Matrix::from_vec(n, n, sum.collect())
            };
            for kernel in [Kernel::Naive, Kernel::Blocked, Kernel::Parallel] {
                let left = matmul(&a, &add(&b, &c), kernel);
                let right = add(&matmul(&a, &b, kernel), &matmul(&a, &c, kernel));
                prop_assert_eq!(left, right);
            }
        }

        /// Every tier and kernel agrees with the naive one on random shapes
        /// with full-range entries, where nearly every sum wraps.
        #[test]
        fn kernels_agree_prop(seed in 0u64..1000, n in 1usize..70, k in 1usize..40, m in 1usize..40) {
            let a = full_range(n, k, seed, "ka");
            let b = full_range(k, m, seed, "kb");
            let x = matmul(&a, &b, Kernel::Naive);
            for (_, tier) in tiers() {
                prop_assert_eq!(&x, &run_tier(tier, &a, &b));
            }
            prop_assert_eq!(&x, &matmul(&a, &b, Kernel::Blocked));
            prop_assert_eq!(&x, &matmul(&a, &b, Kernel::Parallel));
        }
    }
}
