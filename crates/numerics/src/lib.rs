//! Numerical kernels for the `darksil` workspace.
//!
//! The thermal substrate (`darksil-thermal`) needs to solve moderately
//! large sparse symmetric-positive-definite systems (steady state) and to
//! integrate stiff linear ODEs (transient turbo-boost simulations), and
//! the power crate fits Eq. (1) of the paper to sampled data. Rather than
//! pull in a linear-algebra dependency, this crate provides exactly the
//! kernels needed, organised around **one solve path**.
//!
//! # Factor once, solve many
//!
//! The RC conductance topology is fixed per floorplan — across a sweep,
//! a leakage fixed point, or a placement-optimisation loop only the
//! power right-hand side changes. [`factor_spd`] pays for a
//! fill-reducing ordering and symbolic analysis **once**, returning
//! reusable [`SpdFactors`] whose [`solve`](SpdFactors::solve) is a pure
//! sparse substitution. [`FactorCache`] keys factors by content digest
//! (bounded, thread-safe).
//!
//! # One substitution kernel, one or two lanes
//!
//! [`SpdFactors::substitute`] is the kernel behind every factored solve:
//! it works in place on a vector already in the factor's permuted order,
//! for one right-hand side or for two interleaved per node. Every lane
//! performs exactly the operations, in exactly the order, of a one-lane
//! solve, so each result is bit-identical however it was computed.
//! [`solve`](SpdFactors::solve) is the one-lane form. The backward-Euler
//! stepper ([`ode::BackwardEuler`]) fuses the permutation into building
//! its right-hand side and writing the state back, reuses its work
//! buffer across steps, and steps two states sharing one matrix through
//! the two-lane form ([`ode::BackwardEuler::step_pair`]): both states
//! then share every load of the factor, which is what a substitution
//! bound by memory latency rather than arithmetic is short of.
//!
//! # One solve that can fall back
//!
//! [`solve_spd_factored`] is the only solve entry point with a fallback:
//! it substitutes through the caller's factors and residual-checks the
//! result. When the matrix is unfactorable (`None` factors) or the
//! factored solution drifts, it escalates through Jacobi-preconditioned
//! CG (seeded from the drifted iterate), restarted CG and finally dense
//! LU ([`DenseMatrix`], [`LuFactors`]), so callers always get a finite
//! answer or a typed error, and [`SolveDiagnostics`] name the stage
//! that produced it. The backward-Euler stepper falls back through the
//! same chain.
//!
//! Supporting kernels: [`CsrMatrix`] / [`TripletMatrix`] sparse
//! storage, [`ode`] backward-Euler / RK4 steppers for
//! `C·dx/dt = b − G·x`, and [`fit_least_squares`] linear least squares.
//!
//! # Examples
//!
//! Factor once, solve many — the fig8 hot-path shape:
//!
//! ```
//! use darksil_numerics::{factor_spd, TripletMatrix};
//!
//! // A 1-D RC chain: fixed topology, varying power inputs.
//! let n = 16;
//! let mut t = TripletMatrix::new(n, n);
//! for i in 0..n - 1 {
//!     t.stamp_conductance(i, i + 1, 2.0);
//! }
//! for i in 0..n {
//!     t.stamp_to_reference(i, 0.5);
//! }
//! let g = t.to_csr();
//!
//! // Ordering + symbolic analysis + numeric factorisation: once.
//! let factors = factor_spd(&g)?;
//!
//! // Every subsequent right-hand side is a cheap substitution.
//! for k in 0..4 {
//!     let b: Vec<f64> = (0..n).map(|i| ((i + k) % 3) as f64).collect();
//!     let x = factors.solve(&b)?;
//!     let r = g.mul_vec(&x);
//!     assert!(r.iter().zip(&b).all(|(ri, bi)| (ri - bi).abs() < 1e-9));
//! }
//! # Ok::<(), darksil_numerics::NumericsError>(())
//! ```
//!
//! A one-off system without factors goes straight to the chain:
//!
//! ```
//! use darksil_numerics::{solve_spd_factored, CgOptions, SolveStage, TripletMatrix};
//!
//! // A tiny SPD system: [[4,1],[1,3]] x = [1,2]
//! let mut t = TripletMatrix::new(2, 2);
//! t.add(0, 0, 4.0);
//! t.add(0, 1, 1.0);
//! t.add(1, 0, 1.0);
//! t.add(1, 1, 3.0);
//! let a = t.to_csr();
//! let (x, diag) = solve_spd_factored(None, &a, &[1.0, 2.0], &CgOptions::default())?;
//! assert_eq!(diag.stage, SolveStage::Cg);
//! assert!((a.mul_vec(&x)[0] - 1.0).abs() < 1e-8);
//! # Ok::<(), darksil_numerics::NumericsError>(())
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod cg;
mod dense;
mod error;
pub mod factor;
mod lstsq;
pub mod ode;
pub mod robust;
mod sparse;

pub use cg::CgOptions;
pub use dense::{DenseMatrix, LuFactors};
pub use error::NumericsError;
pub use factor::{
    factor_cache_stats, factor_spd, solve_spd_factored, FactorCache, FactorCacheStats, SpdFactors,
};
pub use lstsq::{fit_least_squares, polynomial_fit};
pub use robust::{SolveDiagnostics, SolveStage};
pub use sparse::{CsrMatrix, TripletMatrix};

/// Euclidean norm of a vector.
#[must_use]
pub fn norm2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Dot product of two equal-length vectors.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// `y ← y + alpha·x` (BLAS `axpy`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_and_dot() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn axpy_updates_in_place() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[1.0, 2.0], &mut y);
        assert_eq!(y, vec![3.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_rejects_mismatched_lengths() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
