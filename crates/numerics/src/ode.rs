//! Integrators for the linear ODE system `C·dx/dt = b − G·x`.
//!
//! This is exactly the form of a thermal RC network: `C` is the diagonal
//! heat-capacity matrix, `G` the conductance matrix, `b` the injected
//! power (plus ambient coupling). The system is stiff — die nodes have
//! millisecond time constants while the heat sink's is tens of seconds —
//! so the default stepper is backward Euler (A-stable). An explicit RK4
//! stepper is provided for accuracy cross-checks at small steps.

use std::sync::{Arc, OnceLock};

use crate::factor::{FactorCache, SpdFactors};
use crate::{solve_spd_factored, CgOptions, CsrMatrix, NumericsError, TripletMatrix};

/// A linear first-order system `C·dx/dt = b − G·x` with diagonal `C`.
#[derive(Debug, Clone)]
pub struct LinearOde {
    g: CsrMatrix,
    capacitance: Vec<f64>,
}

impl LinearOde {
    /// Creates the system from a conductance matrix and per-node
    /// capacitances.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `capacitance`
    /// does not match the matrix dimension or `G` is not square, and a
    /// mismatch error if any capacitance is non-positive.
    pub fn new(g: CsrMatrix, capacitance: Vec<f64>) -> Result<Self, NumericsError> {
        if g.rows() != g.cols() {
            return Err(NumericsError::DimensionMismatch {
                context: format!("G must be square, got {}×{}", g.rows(), g.cols()),
            });
        }
        if capacitance.len() != g.rows() {
            return Err(NumericsError::DimensionMismatch {
                context: format!(
                    "capacitance has {} entries, G has {} rows",
                    capacitance.len(),
                    g.rows()
                ),
            });
        }
        if capacitance.iter().any(|&c| c <= 0.0) {
            return Err(NumericsError::DimensionMismatch {
                context: "all node capacitances must be positive".into(),
            });
        }
        Ok(Self { g, capacitance })
    }

    /// Dimension of the system.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.capacitance.len()
    }

    /// Borrow of the conductance matrix.
    #[must_use]
    pub fn conductance(&self) -> &CsrMatrix {
        &self.g
    }

    /// Evaluates `dx/dt = C⁻¹·(b − G·x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `b` have the wrong length.
    #[must_use]
    pub fn derivative(&self, x: &[f64], b: &[f64]) -> Vec<f64> {
        let mut gx = self.g.mul_vec(x);
        for ((gxi, bi), ci) in gx.iter_mut().zip(b).zip(&self.capacitance) {
            *gxi = (bi - *gxi) / ci;
        }
        gx
    }

    /// Builds a [`BackwardEuler`] stepper with step `dt`.
    ///
    /// The implicit system `(C/dt + G)·x⁺ = C/dt·x + b` is assembled once;
    /// every step is then a single SPD solve.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::DimensionMismatch`] if `dt` is not
    /// positive.
    pub fn backward_euler(&self, dt: f64) -> Result<BackwardEuler, NumericsError> {
        if dt <= 0.0 || !dt.is_finite() {
            return Err(NumericsError::DimensionMismatch {
                context: format!("step size must be positive and finite, got {dt}"),
            });
        }
        let n = self.dimension();
        let mut t = TripletMatrix::new(n, n);
        for (row, col, v) in self.g.iter() {
            t.add(row, col, v);
        }
        for (i, &c) in self.capacitance.iter().enumerate() {
            t.add(i, i, c / dt);
        }
        Ok(BackwardEuler {
            system: t.to_csr(),
            c_over_dt: self.capacitance.iter().map(|c| c / dt).collect(),
            dt,
            factors: OnceLock::new(),
        })
    }

    /// Takes one explicit RK4 step of size `dt` from `x` under constant
    /// input `b`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `b` have the wrong length.
    #[must_use]
    pub fn rk4_step(&self, x: &[f64], b: &[f64], dt: f64) -> Vec<f64> {
        let k1 = self.derivative(x, b);
        let x2: Vec<f64> = x.iter().zip(&k1).map(|(xi, k)| xi + 0.5 * dt * k).collect();
        let k2 = self.derivative(&x2, b);
        let x3: Vec<f64> = x.iter().zip(&k2).map(|(xi, k)| xi + 0.5 * dt * k).collect();
        let k3 = self.derivative(&x3, b);
        let x4: Vec<f64> = x.iter().zip(&k3).map(|(xi, k)| xi + dt * k).collect();
        let k4 = self.derivative(&x4, b);
        x.iter()
            .enumerate()
            .map(|(i, xi)| xi + dt / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]))
            .collect()
    }
}

/// Pre-assembled backward-Euler stepper for a [`LinearOde`].
///
/// The implicit matrix `(C/dt + G)` is fixed for the stepper's lifetime,
/// so the first [`BackwardEuler::step`] factors it through the global
/// [`FactorCache`]; every subsequent step is a sparse substitution. When
/// the matrix cannot be factored, or a substitution comes out
/// non-finite, the step falls back to [`solve_spd_factored`]'s
/// CG → restarted-CG → dense-LU chain, exactly like a steady-state solve.
#[derive(Debug, Clone)]
pub struct BackwardEuler {
    system: CsrMatrix,
    c_over_dt: Vec<f64>,
    dt: f64,
    /// Lazily-resolved cached factors: `None` inside means the matrix was
    /// tried and is not factorable (every step takes the fallback chain).
    factors: OnceLock<Option<Arc<SpdFactors>>>,
}

impl BackwardEuler {
    /// The step size this stepper was assembled for.
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advances the state by one step under constant input `b`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the fallback chain (see
    /// [`solve_spd_factored`]).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `b` have the wrong length.
    pub fn step(&self, x: &[f64], b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        assert_eq!(x.len(), self.c_over_dt.len(), "state dimension mismatch");
        assert_eq!(b.len(), self.c_over_dt.len(), "input dimension mismatch");
        let rhs: Vec<f64> = x
            .iter()
            .zip(&self.c_over_dt)
            .zip(b)
            .map(|((xi, ci), bi)| ci * xi + bi)
            .collect();
        let factors = self
            .factors
            .get_or_init(|| FactorCache::global().get_or_factor(&self.system));
        if let Some(factors) = factors {
            let x_next = factors.solve(&rhs)?;
            if x_next.iter().all(|v| v.is_finite()) {
                return Ok(x_next);
            }
        }
        solve_spd_factored(None, &self.system, &rhs, &CgOptions::default()).map(|(x, _)| x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single RC node: C·dT/dt = P − g·T, analytic solution
    /// `T(t) = P/g · (1 − e^{−g t / C})` from `T(0) = 0`.
    fn single_node(g: f64) -> LinearOde {
        let mut t = TripletMatrix::new(1, 1);
        t.stamp_to_reference(0, g);
        LinearOde::new(t.to_csr(), vec![2.0]).expect("numerics succeed")
    }

    #[test]
    fn backward_euler_converges_to_steady_state() {
        let sys = single_node(0.5);
        let stepper = sys.backward_euler(0.1).expect("numerics succeed");
        let mut x = vec![0.0];
        for _ in 0..2000 {
            x = stepper.step(&x, &[3.0]).expect("solve succeeds");
        }
        // Steady state: T = P/g = 6.0.
        assert!((x[0] - 6.0).abs() < 1e-6, "got {}", x[0]);
    }

    #[test]
    fn rk4_matches_analytic_solution() {
        let sys = single_node(0.5);
        let dt = 0.01;
        let mut x = vec![0.0];
        let steps = 100; // t = 1.0
        for _ in 0..steps {
            x = sys.rk4_step(&x, &[3.0], dt);
        }
        let analytic = 6.0 * (1.0 - (-0.5 * 1.0 / 2.0_f64).exp());
        assert!((x[0] - analytic).abs() < 1e-8, "{} vs {analytic}", x[0]);
    }

    #[test]
    fn backward_euler_is_stable_on_stiff_system() {
        // Two nodes with time constants differing by 1e4; take steps far
        // larger than the fast time constant — explicit methods would
        // blow up, BE must remain bounded.
        let mut t = TripletMatrix::new(2, 2);
        t.stamp_conductance(0, 1, 1.0);
        t.stamp_to_reference(0, 100.0);
        t.stamp_to_reference(1, 0.01);
        let sys = LinearOde::new(t.to_csr(), vec![1.0e-4, 10.0]).expect("numerics succeed");
        let stepper = sys.backward_euler(1.0).expect("numerics succeed");
        let mut x = vec![50.0, 50.0];
        for _ in 0..100 {
            x = stepper.step(&x, &[1.0, 1.0]).expect("solve succeeds");
            assert!(x.iter().all(|v| v.is_finite() && v.abs() < 1.0e6));
        }
    }

    #[test]
    fn rk4_and_be_agree_at_small_steps() {
        let mut t = TripletMatrix::new(3, 3);
        t.stamp_conductance(0, 1, 2.0);
        t.stamp_conductance(1, 2, 1.0);
        t.stamp_to_reference(2, 0.5);
        let sys = LinearOde::new(t.to_csr(), vec![1.0, 1.0, 1.0]).expect("numerics succeed");
        let dt = 1.0e-3;
        let stepper = sys.backward_euler(dt).expect("numerics succeed");
        let b = [1.0, 0.0, 0.5];
        let mut x_be = vec![0.0; 3];
        let mut x_rk = vec![0.0; 3];
        for _ in 0..1000 {
            x_be = stepper.step(&x_be, &b).expect("solve succeeds");
            x_rk = sys.rk4_step(&x_rk, &b, dt);
        }
        for (a, b) in x_be.iter().zip(&x_rk) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn unfactorable_step_is_rescued_by_the_fallback_chain() {
        // G = −2·I, C = 1, dt = 1 ⇒ C/dt + G = −I: factor_spd declines a
        // negative pivot and CG breaks down on the first iteration, so
        // only the chain's dense-LU stage can take the step, to −(x + b).
        let mut t = TripletMatrix::new(2, 2);
        t.add(0, 0, -2.0);
        t.add(1, 1, -2.0);
        let sys = LinearOde::new(t.to_csr(), vec![1.0, 1.0]).expect("numerics succeed");
        let stepper = sys.backward_euler(1.0).expect("numerics succeed");
        let next = stepper
            .step(&[1.0, -3.0], &[0.5, 2.0])
            .expect("dense LU takes the step");
        assert!((next[0] + 1.5).abs() < 1e-12, "{}", next[0]);
        assert!((next[1] - 1.0).abs() < 1e-12, "{}", next[1]);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let sys = single_node(1.0);
        assert!(sys.backward_euler(0.0).is_err());
        assert!(sys.backward_euler(-1.0).is_err());
        assert!(sys.backward_euler(f64::NAN).is_err());

        let mut t = TripletMatrix::new(1, 1);
        t.stamp_to_reference(0, 1.0);
        assert!(LinearOde::new(t.to_csr(), vec![0.0]).is_err());
        let mut t2 = TripletMatrix::new(1, 1);
        t2.stamp_to_reference(0, 1.0);
        assert!(LinearOde::new(t2.to_csr(), vec![1.0, 2.0]).is_err());
    }

    #[test]
    fn derivative_is_zero_at_steady_state() {
        let sys = single_node(0.5);
        let d = sys.derivative(&[6.0], &[3.0]);
        assert!(d[0].abs() < 1e-12);
    }
}
