//! Jacobi-preconditioned conjugate gradient for SPD systems — the first
//! stage of the fallback chain behind [`crate::solve_spd_factored`].

use crate::{axpy, dot, norm2, CsrMatrix, NumericsError};

/// Options of a [`crate::solve_spd_factored`] solve: the residual
/// tolerance the factored result and CG are held to, and CG's
/// iteration cap.
#[derive(Debug, Clone, PartialEq)]
pub struct CgOptions {
    /// Relative residual tolerance: converged when
    /// `‖b − A·x‖ ≤ tol · ‖b‖`.
    pub tolerance: f64,
    /// Hard iteration cap (defaults to `10 · n` at solve time when zero).
    pub max_iterations: usize,
}

impl Default for CgOptions {
    fn default() -> Self {
        Self {
            tolerance: 1.0e-10,
            max_iterations: 0,
        }
    }
}

/// Diagnostic information from a CG run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CgOutcome {
    /// Iterations consumed.
    pub(crate) iterations: usize,
    /// Final absolute residual norm.
    pub(crate) residual: f64,
}

/// Best-effort CG: runs the iteration from `x0` (or zero) and returns
/// the final iterate even when the tolerance was not met (third tuple
/// element is `false` then).
///
/// The Jacobi (diagonal) preconditioner is always on: thermal
/// conductance matrices have widely varying diagonals (die vs heat-sink
/// nodes), where it helps substantially. The robust solver chain hands a
/// stalled iterate to the next fallback stage as a warm start instead of
/// discarding the work.
///
/// # Errors
///
/// Returns [`NumericsError::DimensionMismatch`] for incompatible shapes
/// and [`NumericsError::Cancelled`] when the current run context's
/// deadline trips; convergence failure is reported through the flag,
/// not an error.
pub(crate) fn conjugate_gradient_best_effort(
    a: &CsrMatrix,
    b: &[f64],
    x0: Option<&[f64]>,
    options: &CgOptions,
) -> Result<(Vec<f64>, CgOutcome, bool), NumericsError> {
    let n = a.rows();
    if a.cols() != n {
        return Err(NumericsError::DimensionMismatch {
            context: format!("CG requires a square matrix, got {}×{}", a.rows(), a.cols()),
        });
    }
    if b.len() != n {
        return Err(NumericsError::DimensionMismatch {
            context: format!("rhs has {} rows, matrix has {n}", b.len()),
        });
    }

    let max_iter = if options.max_iterations == 0 {
        10 * n.max(10)
    } else {
        options.max_iterations
    };

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return Ok((
            vec![0.0; n],
            CgOutcome {
                iterations: 0,
                residual: 0.0,
            },
            true,
        ));
    }
    let target = options.tolerance * b_norm;

    // Jacobi preconditioner M⁻¹ = diag(A)⁻¹.
    let inv_diag: Vec<f64> = a
        .diagonal()
        .iter()
        .map(|&d| if d.abs() > 0.0 { 1.0 / d } else { 1.0 })
        .collect();
    let apply_precond = |r: &[f64], z: &mut Vec<f64>| {
        z.clear();
        z.extend(r.iter().zip(&inv_diag).map(|(ri, mi)| ri * mi));
    };

    let (mut x, mut r) = match x0 {
        Some(start) => {
            if start.len() != n {
                return Err(NumericsError::DimensionMismatch {
                    context: format!("warm start has {} rows, matrix has {n}", start.len()),
                });
            }
            let ax = a.mul_vec(start);
            let r: Vec<f64> = b.iter().zip(&ax).map(|(bi, axi)| bi - axi).collect();
            (start.to_vec(), r)
        }
        None => (vec![0.0; n], b.to_vec()),
    };
    let initial_res = norm2(&r);
    if initial_res <= target {
        return Ok((
            x,
            CgOutcome {
                iterations: 0,
                residual: initial_res,
            },
            true,
        ));
    }
    let mut z = Vec::with_capacity(n);
    apply_precond(&r, &mut z);
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    for iter in 1..=max_iter {
        // Cancellation point: a supervised job's deadline (or explicit
        // cancel) stops a runaway solve here instead of wedging the
        // worker. Unsupervised callers run under an unbounded context,
        // where the poll always passes.
        if let Err(e) = darksil_robust::check_deadline("cg iteration") {
            return Err(NumericsError::Cancelled {
                context: format!("{} after {} iterations", e.message(), iter - 1),
            });
        }
        a.mul_vec_into(&p, &mut ap);
        let p_ap = dot(&p, &ap);
        if p_ap <= 0.0 {
            // Not SPD (or breakdown): stop and hand back the last good
            // iterate with the unconverged flag set.
            return Ok((
                x,
                CgOutcome {
                    iterations: iter,
                    residual: norm2(&r),
                },
                false,
            ));
        }
        let alpha = rz / p_ap;
        axpy(alpha, &p, &mut x);
        axpy(-alpha, &ap, &mut r);

        let res = norm2(&r);
        if res <= target {
            return Ok((
                x,
                CgOutcome {
                    iterations: iter,
                    residual: res,
                },
                true,
            ));
        }

        apply_precond(&r, &mut z);
        let rz_next = dot(&r, &z);
        let beta = rz_next / rz;
        rz = rz_next;
        for (pi, zi) in p.iter_mut().zip(&z) {
            *pi = zi + beta * *pi;
        }
    }

    let residual = norm2(&r);
    Ok((
        x,
        CgOutcome {
            iterations: max_iter,
            residual,
        },
        false,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

    /// 1-D Laplacian with a Dirichlet-like anchor — SPD.
    fn laplacian(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n - 1 {
            t.stamp_conductance(i, i + 1, 1.0);
        }
        t.stamp_to_reference(0, 1.0);
        t.to_csr()
    }

    fn cg(a: &CsrMatrix, b: &[f64], options: &CgOptions) -> (Vec<f64>, CgOutcome, bool) {
        conjugate_gradient_best_effort(a, b, None, options).expect("shapes match")
    }

    #[test]
    fn solves_small_spd_system() {
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, 4.0);
        t.add(0, 1, 1.0);
        t.add(1, 0, 1.0);
        t.add(1, 1, 3.0);
        let a = t.to_csr();
        let (x, _, converged) = cg(&a, &[1.0, 2.0], &CgOptions::default());
        assert!(converged);
        let r = a.mul_vec(&x);
        assert!((r[0] - 1.0).abs() < 1e-8);
        assert!((r[1] - 2.0).abs() < 1e-8);
    }

    #[test]
    fn matches_dense_lu_on_laplacian() {
        let n = 40;
        let a = laplacian(n);
        let b: Vec<f64> = (0..n).map(|i| ((i * 13) % 5) as f64 + 0.5).collect();
        let (x_cg, _, converged) = cg(&a, &b, &CgOptions::default());
        assert!(converged);
        let x_lu = a.to_dense().solve(&b).expect("solve succeeds");
        for (c, l) in x_cg.iter().zip(&x_lu) {
            assert!((c - l).abs() < 1e-6, "cg {c} vs lu {l}");
        }
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = laplacian(5);
        let (x, outcome, converged) = cg(&a, &[0.0; 5], &CgOptions::default());
        assert!(converged);
        assert_eq!(x, vec![0.0; 5]);
        assert_eq!(outcome.iterations, 0);
    }

    #[test]
    fn iteration_cap_is_honoured() {
        let a = laplacian(100);
        let b = vec![1.0; 100];
        let (_, outcome, converged) = cg(
            &a,
            &b,
            &CgOptions {
                tolerance: 1.0e-14,
                max_iterations: 2,
            },
        );
        assert!(!converged);
        assert_eq!(outcome.iterations, 2);
    }

    #[test]
    fn a_tripped_deadline_cancels_the_iteration() {
        let a = laplacian(100);
        let b = vec![1.0; 100];
        let ctx = darksil_robust::RunContext::with_token(
            darksil_robust::CancellationToken::with_deadline(std::time::Duration::from_millis(0)),
        );
        let err = darksil_robust::scoped(&ctx, || {
            conjugate_gradient_best_effort(&a, &b, None, &CgOptions::default())
        })
        .expect_err("expired deadline stops the solve");
        assert!(matches!(err, NumericsError::Cancelled { .. }), "{err:?}");
        // Outside the scope the same solve completes normally.
        assert!(
            cg(&a, &b, &CgOptions::default()).2,
            "unsupervised solve converges"
        );
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let a = laplacian(4);
        assert!(matches!(
            conjugate_gradient_best_effort(&a, &[1.0; 3], None, &CgOptions::default()),
            Err(NumericsError::DimensionMismatch { .. })
        ));
    }
}
