//! Property-based tests for the linear-algebra substrate.

use haqjsk_linalg::{
    available_simd_paths, batch_symmetric_eigenvalues, hungarian, set_simd_path, symmetric_eigen,
    symmetric_eigenvalues, BatchEigenWorkspace, EigenWorkspace, Matrix, MAX_BATCH_LANES,
};
use proptest::prelude::*;

/// Restores the process-global SIMD override when dropped, so a failing
/// assertion inside a forced-path test cannot leak a forced path into the
/// other tests of this binary.
struct SimdOverrideGuard;

impl Drop for SimdOverrideGuard {
    fn drop(&mut self) {
        set_simd_path(None).expect("clearing the SIMD override never fails");
    }
}

/// The pre-blocking reference product: plain i-k-j loop, no row blocks.
fn matmul_unblocked(a: &Matrix, b: &Matrix) -> Matrix {
    let (rows, inner, cols) = (a.rows(), a.cols(), b.cols());
    assert_eq!(inner, b.rows());
    let mut out = Matrix::zeros(rows, cols);
    for i in 0..rows {
        for k in 0..inner {
            let v = a[(i, k)];
            if v == 0.0 {
                continue;
            }
            for j in 0..cols {
                out[(i, j)] += v * b[(k, j)];
            }
        }
    }
    out
}

/// Strategy producing small random symmetric matrices.
fn symmetric_matrix(max_n: usize) -> impl Strategy<Value = Matrix> {
    (2..=max_n).prop_flat_map(|n| {
        proptest::collection::vec(-5.0..5.0_f64, n * n).prop_map(move |data| {
            let raw = Matrix::from_vec(n, n, data).unwrap();
            raw.symmetrize().unwrap()
        })
    })
}

/// One lane of a full chunk, shaped like the kernel's mixtures: a
/// diagonal matrix (its QL sweep never rotates), a dense one, or a
/// rank-deficient trace-1 PSD matrix `Σ_r w_r v_r v_rᵀ / trace` on a random
/// support, whose rows off the support stay exactly zero.
fn full_chunk_lane(n: usize, k: usize, seed: u64) -> Matrix {
    let mut state = seed.wrapping_add(k as u64);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    };
    match seed
        .wrapping_add(k as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        >> 62
    {
        0 => Matrix::from_diag(
            &(0..n)
                .map(|_| (4.0 * next()).round() / 8.0)
                .collect::<Vec<_>>(),
        ),
        1 => {
            let mut m = Matrix::zeros(n, n);
            for i in 0..n {
                for j in i..n {
                    let v = next();
                    m[(i, j)] = v;
                    m[(j, i)] = v;
                }
            }
            m
        }
        _ => {
            let support: Vec<bool> = (0..n).map(|_| next() > -0.4).collect();
            let mut m = Matrix::zeros(n, n);
            for r in 0..1 + k % n {
                let v: Vec<f64> = (0..n)
                    .map(|i| if support[i] { next() } else { 0.0 })
                    .collect();
                let w = 1.0 + r as f64;
                for i in 0..n {
                    for j in 0..n {
                        m[(i, j)] += w * v[i] * v[j];
                    }
                }
            }
            let trace = m.trace();
            if trace > 0.0 {
                m.scale(1.0 / trace)
            } else {
                m
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The eigendecomposition must reconstruct the original matrix.
    #[test]
    fn eigen_reconstruction(m in symmetric_matrix(8)) {
        let eig = symmetric_eigen(&m).unwrap();
        let rec = eig.reconstruct();
        prop_assert!((&rec - &m).max_abs() < 1e-7);
    }

    /// Eigenvectors form an orthonormal basis.
    #[test]
    fn eigenvectors_orthonormal(m in symmetric_matrix(8)) {
        let eig = symmetric_eigen(&m).unwrap();
        let q = &eig.eigenvectors;
        let qtq = q.transpose().matmul(q).unwrap();
        prop_assert!((&qtq - &Matrix::identity(m.rows())).max_abs() < 1e-8);
    }

    /// The sum of eigenvalues equals the trace; eigenvalues come out sorted.
    #[test]
    fn eigenvalues_trace_and_order(m in symmetric_matrix(8)) {
        let eig = symmetric_eigen(&m).unwrap();
        let sum: f64 = eig.eigenvalues.iter().sum();
        prop_assert!((sum - m.trace()).abs() < 1e-8);
        for w in eig.eigenvalues.windows(2) {
            prop_assert!(w[0] <= w[1] + 1e-12);
        }
    }

    /// The values-only eigen driver is bit-identical to the eigenvalues of
    /// the full decomposition: the eigenvector operations it skips never
    /// feed back into the `d`/`e` recurrences.
    #[test]
    fn values_only_eigenvalues_bit_equal_full(m in symmetric_matrix(10)) {
        let full = symmetric_eigen(&m).unwrap().eigenvalues;
        let values = symmetric_eigenvalues(&m).unwrap();
        let mut ws = EigenWorkspace::new();
        let ws_values = ws.eigenvalues(&m).unwrap();
        prop_assert_eq!(
            full.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            values.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        prop_assert_eq!(
            values.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            ws_values.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// The lane-parallel SoA batch solver is bit-identical to the scalar
    /// values-only driver on every matrix of the batch, across mixed batch
    /// sizes and mixed dimension classes — including dimension classes of
    /// one matrix, which take the scalar straggler fallback.
    #[test]
    fn batched_eigenvalues_bit_equal_scalar(
        dims in proptest::collection::vec(1usize..11, 1..19),
        seed in 0u64..u64::MAX,
    ) {
        let mats: Vec<Matrix> = dims
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                // Deterministic fill; occasional exact-zero rows exercise
                // the masked Householder path.
                let mut state = seed.wrapping_add(k as u64);
                let mut next = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                };
                let mut m = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in i..n {
                        let v = next();
                        m[(i, j)] = v;
                        m[(j, i)] = v;
                    }
                }
                if n > 2 && k % 3 == 0 {
                    let z = k % n;
                    for t in 0..n {
                        m[(z, t)] = 0.0;
                        m[(t, z)] = 0.0;
                    }
                }
                m
            })
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let batch = batch_symmetric_eigenvalues(&refs).unwrap();
        let mut ws = BatchEigenWorkspace::new();
        let ws_batch = ws.eigenvalues(&refs).unwrap();
        for (k, m) in mats.iter().enumerate() {
            let scalar = symmetric_eigenvalues(m).unwrap();
            prop_assert_eq!(
                batch[k].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "matrix {} of dim {}", k, m.rows()
            );
            prop_assert_eq!(
                ws_batch[k].iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                scalar.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                "workspace path, matrix {}", k
            );
        }
    }

    /// Every compiled SIMD path produces eigenvalues bit-identical to the
    /// scalar values-only driver, across mixed batch sizes, mixed dimension
    /// classes and straggler chunks narrower than the vector width. One
    /// more class of `MAX_BATCH_LANES` to `2·MAX_BATCH_LANES + 3` lanes
    /// shaped like the kernel's mixtures ([`full_chunk_lane`]) fills whole
    /// chunks on every path (paired blocks) and mostly leaves a part chunk
    /// (single blocks and tails). The scalar reference is computed first
    /// (path-independent), then each available ISA is forced via the
    /// process-global override and compared bit for bit.
    #[test]
    fn forced_simd_paths_bit_equal_scalar(
        dims in proptest::collection::vec(1usize..11, 1..40),
        full_dim in 2usize..17,
        full in MAX_BATCH_LANES..(2 * MAX_BATCH_LANES + 4),
        seed in 0u64..u64::MAX,
    ) {
        let mats: Vec<Matrix> = dims
            .iter()
            .enumerate()
            .map(|(k, &n)| {
                // Same deterministic fill as the scalar batch property,
                // including occasional exact-zero rows for the masked
                // Householder skip path.
                let mut state = seed.wrapping_add(k as u64);
                let mut next = move || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                };
                let mut m = Matrix::zeros(n, n);
                for i in 0..n {
                    for j in i..n {
                        let v = next();
                        m[(i, j)] = v;
                        m[(j, i)] = v;
                    }
                }
                if n > 2 && k % 3 == 0 {
                    let z = k % n;
                    for t in 0..n {
                        m[(z, t)] = 0.0;
                        m[(t, z)] = 0.0;
                    }
                }
                m
            })
            .chain((0..full).map(|k| full_chunk_lane(full_dim, k, seed)))
            .collect();
        let refs: Vec<&Matrix> = mats.iter().collect();
        let scalar: Vec<Vec<u64>> = mats
            .iter()
            .map(|m| {
                symmetric_eigenvalues(m)
                    .unwrap()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect()
            })
            .collect();
        let _guard = SimdOverrideGuard;
        for path in available_simd_paths() {
            set_simd_path(Some(path)).unwrap();
            let forced = batch_symmetric_eigenvalues(&refs).unwrap();
            for (k, values) in forced.iter().enumerate() {
                prop_assert_eq!(
                    values.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    scalar[k].clone(),
                    "path {} drifted on matrix {} of dim {}",
                    path.label(),
                    k,
                    mats[k].rows()
                );
            }
        }
    }

    /// The cache-blocked matmul is exactly the naive (unblocked i-k-j)
    /// product: blocking changes the traversal, not the arithmetic.
    #[test]
    fn blocked_matmul_equals_naive_product_exactly(
        rows in 1usize..24,
        inner in 1usize..24,
        cols in 1usize..24,
        seed in 0u64..u64::MAX,
    ) {
        // Deterministic fill from the seed, with a sprinkling of exact
        // zeros so the zero-skip path is exercised.
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
            if state % 7 == 0 { 0.0 } else { v }
        };
        let a = Matrix::from_fn(rows, inner, |_, _| next());
        let b = Matrix::from_fn(inner, cols, |_, _| next());
        let blocked = a.matmul(&b).unwrap();
        let naive = matmul_unblocked(&a, &b);
        prop_assert_eq!(blocked, naive);
    }

    /// Matrix multiplication is associative on conformable random inputs.
    #[test]
    fn matmul_associative(
        a in proptest::collection::vec(-3.0..3.0_f64, 12),
        b in proptest::collection::vec(-3.0..3.0_f64, 12),
        c in proptest::collection::vec(-3.0..3.0_f64, 9),
    ) {
        let ma = Matrix::from_vec(3, 4, a).unwrap();
        let mb = Matrix::from_vec(4, 3, b).unwrap();
        let mc = Matrix::from_vec(3, 3, c).unwrap();
        let left = ma.matmul(&mb).unwrap().matmul(&mc).unwrap();
        let right = ma.matmul(&mb.matmul(&mc).unwrap()).unwrap();
        prop_assert!((&left - &right).max_abs() < 1e-9);
    }

    /// Transpose reverses multiplication order: (AB)^T = B^T A^T.
    #[test]
    fn transpose_of_product(
        a in proptest::collection::vec(-3.0..3.0_f64, 12),
        b in proptest::collection::vec(-3.0..3.0_f64, 12),
    ) {
        let ma = Matrix::from_vec(3, 4, a).unwrap();
        let mb = Matrix::from_vec(4, 3, b).unwrap();
        let lhs = ma.matmul(&mb).unwrap().transpose();
        let rhs = mb.transpose().matmul(&ma.transpose()).unwrap();
        prop_assert!((&lhs - &rhs).max_abs() < 1e-10);
    }

    /// Hungarian result is a valid permutation and never beats a greedy
    /// lower bound of per-row minima.
    #[test]
    fn hungarian_is_valid_and_bounded(
        n in 1usize..6,
        raw in proptest::collection::vec(0.0..10.0_f64, 36),
    ) {
        let cost: Vec<f64> = raw.into_iter().take(n * n).collect();
        prop_assume!(cost.len() == n * n);
        let (assignment, total) = hungarian(&cost, n);
        // Valid permutation.
        let mut seen = vec![false; n];
        for &j in &assignment {
            prop_assert!(j < n);
            prop_assert!(!seen[j]);
            seen[j] = true;
        }
        // Lower bound: sum of row minima.
        let lower: f64 = (0..n)
            .map(|i| cost[i * n..(i + 1) * n].iter().copied().fold(f64::INFINITY, f64::min))
            .sum();
        prop_assert!(total >= lower - 1e-9);
        // Upper bound: identity assignment.
        let upper: f64 = (0..n).map(|i| cost[i * n + i]).sum();
        prop_assert!(total <= upper + 1e-9);
    }

    /// Permuting rows/columns of a symmetric matrix preserves its spectrum.
    #[test]
    fn permutation_preserves_spectrum(m in symmetric_matrix(7), seed in 0u64..1000) {
        let n = m.rows();
        // Build a deterministic permutation from the seed.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed.wrapping_add(1);
        for i in (1..n).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let pm = m.permute_symmetric(&perm).unwrap();
        let e1 = symmetric_eigen(&m).unwrap().eigenvalues;
        let e2 = symmetric_eigen(&pm).unwrap().eigenvalues;
        for (a, b) in e1.iter().zip(e2.iter()) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }
}
