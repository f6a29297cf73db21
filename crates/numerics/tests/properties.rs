//! Property tests for the numerical kernels.

use darksil_numerics::ode::LinearOde;
use darksil_numerics::{
    fit_least_squares, polynomial_fit, solve_spd_factored, CgOptions, DenseMatrix, SolveStage,
    TripletMatrix,
};
use proptest::prelude::*;

/// A random strictly diagonally dominant matrix — always non-singular,
/// and SPD when built symmetrically.
fn diag_dominant(entries: &[f64], n: usize) -> DenseMatrix {
    let mut a = DenseMatrix::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        let mut row_sum = 0.0;
        for j in 0..n {
            if i != j {
                let v = entries[k % entries.len()];
                k += 1;
                a[(i, j)] = v;
                row_sum += v.abs();
            }
        }
        a[(i, i)] = row_sum + 1.0;
    }
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lu_solve_has_small_residual(
        entries in prop::collection::vec(-2.0_f64..2.0, 30),
        rhs in prop::collection::vec(-10.0_f64..10.0, 6),
    ) {
        let a = diag_dominant(&entries, 6);
        let x = a.solve(&rhs).unwrap();
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&rhs) {
            prop_assert!((ri - bi).abs() < 1e-8, "{ri} vs {bi}");
        }
    }

    #[test]
    fn determinant_of_product_scaled_identity(scale in 0.1_f64..10.0) {
        let n = 4;
        let mut a = DenseMatrix::identity(n);
        for i in 0..n {
            a[(i, i)] = scale;
        }
        let det = a.lu().unwrap().determinant();
        prop_assert!((det - scale.powi(n as i32)).abs() < 1e-9 * scale.powi(n as i32));
    }

    #[test]
    fn csr_mul_matches_dense(
        coords in prop::collection::vec((0_usize..8, 0_usize..8, -3.0_f64..3.0), 1..40),
        x in prop::collection::vec(-5.0_f64..5.0, 8),
    ) {
        let mut t = TripletMatrix::new(8, 8);
        for &(r, c, v) in &coords {
            t.add(r, c, v);
        }
        let a = t.to_csr();
        let sparse = a.mul_vec(&x);
        let dense = a.to_dense().mul_vec(&x);
        for (s, d) in sparse.iter().zip(&dense) {
            prop_assert!((s - d).abs() < 1e-10);
        }
    }

    #[test]
    fn triplet_duplicates_accumulate(
        r in 0_usize..4,
        c in 0_usize..4,
        values in prop::collection::vec(-5.0_f64..5.0, 1..10),
    ) {
        let mut t = TripletMatrix::new(4, 4);
        for &v in &values {
            t.add(r, c, v);
        }
        let expect: f64 = values.iter().filter(|v| **v != 0.0).sum();
        prop_assert!((t.to_csr().get(r, c) - expect).abs() < 1e-12);
    }

    #[test]
    fn cg_solves_random_spd_networks(
        conductances in prop::collection::vec(0.05_f64..5.0, 9),
        grounds in prop::collection::vec(0.01_f64..1.0, 2),
        rhs in prop::collection::vec(-3.0_f64..3.0, 10),
    ) {
        let n = 10;
        let mut t = TripletMatrix::new(n, n);
        for (i, &g) in conductances.iter().enumerate() {
            t.stamp_conductance(i, i + 1, g);
        }
        t.stamp_to_reference(0, grounds[0]);
        t.stamp_to_reference(n - 1, grounds[1]);
        let a = t.to_csr();
        let (x, diag) = solve_spd_factored(None, &a, &rhs, &CgOptions::default()).unwrap();
        prop_assert_eq!(diag.stage, SolveStage::Cg);
        let r = a.mul_vec(&x);
        for (ri, bi) in r.iter().zip(&rhs) {
            prop_assert!((ri - bi).abs() < 1e-6);
        }
    }

    #[test]
    fn polynomial_fit_recovers_exact_lines(
        c0 in -10.0_f64..10.0,
        c1 in -10.0_f64..10.0,
    ) {
        let x: Vec<f64> = (0..8).map(|i| i as f64 * 0.5 - 2.0).collect();
        let y: Vec<f64> = x.iter().map(|v| c0 + c1 * v).collect();
        let c = polynomial_fit(&x, &y, 1).unwrap();
        prop_assert!((c[0] - c0).abs() < 1e-8);
        prop_assert!((c[1] - c1).abs() < 1e-8);
    }

    #[test]
    fn least_squares_residual_is_orthogonal_to_columns(
        y in prop::collection::vec(-5.0_f64..5.0, 6),
    ) {
        // Design: [1, x, x²] over fixed abscissae.
        let x: Vec<f64> = (0..6).map(|i| i as f64).collect();
        let mut design = DenseMatrix::zeros(6, 3);
        for (i, &xi) in x.iter().enumerate() {
            design[(i, 0)] = 1.0;
            design[(i, 1)] = xi;
            design[(i, 2)] = xi * xi;
        }
        let c = fit_least_squares(&design, &y).unwrap();
        let fitted = design.mul_vec(&c);
        let residual: Vec<f64> = y.iter().zip(&fitted).map(|(a, b)| a - b).collect();
        // Normal equations ⇒ Aᵀ·r = 0.
        let atr = design.transpose().mul_vec(&residual);
        for v in atr {
            prop_assert!(v.abs() < 1e-6, "residual not orthogonal: {v}");
        }
    }

    #[test]
    fn backward_euler_steady_state_is_fixed_point(
        g in 0.1_f64..10.0,
        cap in 0.1_f64..10.0,
        p in 0.0_f64..10.0,
        dt in 0.001_f64..1.0,
    ) {
        let mut t = TripletMatrix::new(1, 1);
        t.stamp_to_reference(0, g);
        let sys = LinearOde::new(t.to_csr(), vec![cap]).unwrap();
        let mut stepper = sys.backward_euler(dt).unwrap();
        let x_star = p / g;
        let mut next = [x_star];
        stepper.step(&mut next, &[p]).unwrap();
        prop_assert!((next[0] - x_star).abs() < 1e-8 * (1.0 + x_star));
    }
}

// Properties of the fallback chain (`solve_spd_factored` without
// factors): whatever the conductance topology and however starved the
// CG stage is, it still delivers an accurate solution — it just reports
// the fallbacks it needed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A healthy SPD system is solved accurately regardless of the
    /// random conductances.
    #[test]
    fn robust_solver_is_accurate_on_random_spd(
        edges in prop::collection::vec(0.1_f64..10.0, 19),
        grounds in prop::collection::vec(0.5_f64..5.0, 20),
        rhs in prop::collection::vec(-10.0_f64..10.0, 20),
    ) {
        let n = 20;
        let mut t = TripletMatrix::new(n, n);
        for (i, &g) in edges.iter().enumerate() {
            t.stamp_conductance(i, i + 1, g);
        }
        for (i, &g) in grounds.iter().enumerate() {
            t.stamp_to_reference(i, g);
        }
        let a = t.to_csr();
        let (x, diag) = solve_spd_factored(None, &a, &rhs, &CgOptions::default())
            .expect("healthy SPD system must solve");
        let residual: f64 = a
            .mul_vec(&x)
            .iter()
            .zip(&rhs)
            .map(|(ax, b)| (ax - b) * (ax - b))
            .sum::<f64>()
            .sqrt();
        let scale = 1.0 + rhs.iter().map(|b| b * b).sum::<f64>().sqrt();
        prop_assert!(residual < 1e-5 * scale, "residual {residual} via {:?}", diag.stage);
    }

    /// Starving CG of iterations never loses the answer: the chain
    /// falls back (restarted CG, then dense LU) and the final solution
    /// is still accurate.
    #[test]
    fn starved_cg_still_solves_via_fallbacks(
        edges in prop::collection::vec(0.1_f64..10.0, 19),
        rhs in prop::collection::vec(-10.0_f64..10.0, 20),
        cap in 1_usize..4,
    ) {
        let n = 20;
        let mut t = TripletMatrix::new(n, n);
        for (i, &g) in edges.iter().enumerate() {
            t.stamp_conductance(i, i + 1, g);
        }
        for i in 0..n {
            t.stamp_to_reference(i, 1.0);
        }
        let a = t.to_csr();
        let options = CgOptions {
            max_iterations: cap,
            ..CgOptions::default()
        };
        let (x, diag) = solve_spd_factored(None, &a, &rhs, &options)
            .expect("fallback chain must rescue a starved CG");
        let residual: f64 = a
            .mul_vec(&x)
            .iter()
            .zip(&rhs)
            .map(|(ax, b)| (ax - b) * (ax - b))
            .sum::<f64>()
            .sqrt();
        let scale = 1.0 + rhs.iter().map(|b| b * b).sum::<f64>().sqrt();
        prop_assert!(residual < 1e-4 * scale, "residual {residual} via {:?}", diag.stage);
        prop_assert!(x.iter().all(|v| v.is_finite()));
    }
}

/// Builds a random `w×h` RC-grid conductance matrix — the exact sparsity
/// shape of a floorplan's thermal network.
fn random_rc_grid(
    w: usize,
    h: usize,
    edges: &[f64],
    grounds: &[f64],
) -> darksil_numerics::CsrMatrix {
    let n = w * h;
    let mut t = TripletMatrix::new(n, n);
    let mut k = 0;
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                t.stamp_conductance(i, i + 1, edges[k % edges.len()]);
                k += 1;
            }
            if y + 1 < h {
                t.stamp_conductance(i, i + w, edges[k % edges.len()]);
                k += 1;
            }
            t.stamp_to_reference(i, grounds[i % grounds.len()]);
        }
    }
    t.to_csr()
}

fn residual_of(a: &darksil_numerics::CsrMatrix, x: &[f64], b: &[f64]) -> f64 {
    a.mul_vec(x)
        .iter()
        .zip(b)
        .map(|(ax, bi)| (ax - bi) * (ax - bi))
        .sum::<f64>()
        .sqrt()
}

// Properties of the factor-cached fast path: a direct LDLᵀ solve must
// agree with the iterative chain.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The factored path and the chain (`None` factors) agree to
    /// tolerance on random SPD RC grids.
    #[test]
    fn factored_path_agrees_with_robust_chain(
        w in 2_usize..7,
        h in 2_usize..7,
        edges in prop::collection::vec(0.1_f64..10.0, 8),
        grounds in prop::collection::vec(0.05_f64..2.0, 8),
        loads in prop::collection::vec(-10.0_f64..10.0, 8),
    ) {
        use darksil_numerics::factor_spd;
        let a = random_rc_grid(w, h, &edges, &grounds);
        let n = w * h;
        let b: Vec<f64> = (0..n).map(|i| loads[i % loads.len()]).collect();
        let factors = factor_spd(&a).expect("RC grids are SPD");
        let x = factors.solve(&b).expect("factored solve succeeds");
        let (x_chain, _) = solve_spd_factored(None, &a, &b, &CgOptions::default())
            .expect("robust chain solves");
        let scale = 1.0 + b.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assert!(residual_of(&a, &x, &b) < 1e-8 * scale);
        for (xf, xc) in x.iter().zip(&x_chain) {
            prop_assert!((xf - xc).abs() < 1e-5 * scale, "{xf} vs {xc}");
        }
    }
}
