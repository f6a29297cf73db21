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
use crate::{solve_spd_factored, CgOptions, CsrMatrix, NumericsError};

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
    /// The implicit system `(C/dt + G)·x⁺ = C/dt·x + b` is assembled once,
    /// by adding `C/dt` into the diagonal slots of `G`; every step is then
    /// a single SPD solve.
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
        let c_over_dt: Vec<f64> = self.capacitance.iter().map(|c| c / dt).collect();
        Ok(BackwardEuler {
            system: self.g.plus_diagonal(&c_over_dt),
            c_over_dt,
            dt,
            factors: OnceLock::new(),
            work: Vec::new(),
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
/// so its first step factors it through the global [`FactorCache`];
/// every later step is an in-place sparse substitution into a buffer
/// the stepper reuses, with the factor's permutation applied while the
/// right-hand side is built and undone while the state is written
/// back. When the matrix cannot be factored, or a substitution comes
/// out non-finite, the step falls back to [`solve_spd_factored`]'s
/// CG → restarted-CG → dense-LU chain, exactly like a steady-state solve.
#[derive(Debug, Clone)]
pub struct BackwardEuler {
    system: CsrMatrix,
    c_over_dt: Vec<f64>,
    dt: f64,
    /// Lazily-resolved cached factors: `None` inside means the matrix was
    /// tried and is not factorable (every step takes the fallback chain).
    factors: OnceLock<Option<Arc<SpdFactors>>>,
    /// Right-hand sides in factor order, one or two lanes per node.
    work: Vec<f64>,
}

impl BackwardEuler {
    /// The step size this stepper was assembled for.
    #[must_use]
    pub fn dt(&self) -> f64 {
        self.dt
    }

    /// Advances the state `x` in place by one step under constant input
    /// `b`.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the fallback chain (see
    /// [`solve_spd_factored`]); `x` is then left unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `b` have the wrong length.
    pub fn step(&mut self, x: &mut [f64], b: &[f64]) -> Result<(), NumericsError> {
        assert_eq!(x.len(), self.c_over_dt.len(), "state dimension mismatch");
        assert_eq!(b.len(), self.c_over_dt.len(), "input dimension mismatch");
        let factors = self
            .factors
            .get_or_init(|| FactorCache::global().get_or_factor(&self.system));
        if let Some(factors) = factors {
            if substitute_states(factors, &mut self.work, [&self.c_over_dt], [&*x], [b]) == [true] {
                write_lane::<1>(factors.permutation(), &self.work, 0, x);
                return Ok(());
            }
        }
        let next = self.fall_back(x, b)?;
        x.copy_from_slice(&next);
        Ok(())
    }

    /// Advances two states in place by one step each, every state under
    /// its own input and stepper, with the same result bit for bit as
    /// two [`BackwardEuler::step`] calls. When both steppers hold the
    /// same cached factors (one matrix, hence one model and step size),
    /// both states go through one two-lane substitution; otherwise, or
    /// for a lane whose substitution comes out non-finite, each state
    /// takes its own one-state step.
    ///
    /// # Errors
    ///
    /// Propagates solver failures from the fallback chain; neither
    /// state then moves, whichever step failed.
    ///
    /// # Panics
    ///
    /// Panics if a state or input does not match its stepper's
    /// dimension.
    pub fn step_pair(
        steppers: [&mut Self; 2],
        x: [&mut [f64]; 2],
        b: [&[f64]; 2],
    ) -> Result<(), NumericsError> {
        let [first, second] = steppers;
        let [x0, x1] = x;
        let [b0, b1] = b;
        for (s, (x, b)) in [(&*first, (&*x0, b0)), (&*second, (&*x1, b1))] {
            assert_eq!(x.len(), s.c_over_dt.len(), "state dimension mismatch");
            assert_eq!(b.len(), s.c_over_dt.len(), "input dimension mismatch");
        }
        let f0 = first
            .factors
            .get_or_init(|| FactorCache::global().get_or_factor(&first.system));
        let f1 = second
            .factors
            .get_or_init(|| FactorCache::global().get_or_factor(&second.system));
        let factors = match (f0, f1) {
            (Some(a), Some(b)) if Arc::ptr_eq(a, b) => a,
            _ => {
                // The first state steps in a copy until the second step
                // has succeeded too.
                let mut next = x0.to_vec();
                first.step(&mut next, b0)?;
                second.step(x1, b1)?;
                x0.copy_from_slice(&next);
                return Ok(());
            }
        };
        let finite = substitute_states(
            factors,
            &mut first.work,
            [&first.c_over_dt, &second.c_over_dt],
            [&*x0, &*x1],
            [b0, b1],
        );
        // Rescue every non-finite lane before any lane is written back,
        // so that a failed rescue leaves both states as they were.
        let rescued = [
            (!finite[0]).then(|| first.fall_back(x0, b0)).transpose()?,
            (!finite[1]).then(|| second.fall_back(x1, b1)).transpose()?,
        ];
        for (lane, (x, rescued)) in [x0, x1].into_iter().zip(rescued).enumerate() {
            match rescued {
                Some(next) => x.copy_from_slice(&next),
                None => write_lane::<2>(factors.permutation(), &first.work, lane, x),
            }
        }
        Ok(())
    }

    /// Solves the step from `x` through the fallback chain on the
    /// original system and returns the next state.
    fn fall_back(&self, x: &[f64], b: &[f64]) -> Result<Vec<f64>, NumericsError> {
        let rhs: Vec<f64> = x
            .iter()
            .zip(&self.c_over_dt)
            .zip(b)
            .map(|((xi, ci), bi)| ci * xi + bi)
            .collect();
        let (next, _) = solve_spd_factored(None, &self.system, &rhs, &CgOptions::default())?;
        Ok(next)
    }
}

/// One backward-Euler substitution for `L` states: builds each state's
/// `C/dt·x + b` in factor order into `work`, lanes interleaved per node,
/// and substitutes in place. Returns which lanes came out finite; no
/// state is written (see [`write_lane`]).
fn substitute_states<const L: usize>(
    factors: &SpdFactors,
    work: &mut Vec<f64>,
    c_over_dt: [&[f64]; L],
    x: [&[f64]; L],
    b: [&[f64]; L],
) -> [bool; L] {
    work.clear();
    for &p in factors.permutation() {
        for k in 0..L {
            work.push(c_over_dt[k][p] * x[k][p] + b[k][p]);
        }
    }
    factors.substitute::<L>(work);
    let mut finite = [true; L];
    for node in work.chunks_exact(L) {
        for k in 0..L {
            finite[k] &= node[k].is_finite();
        }
    }
    finite
}

/// Writes lane `lane` of an `L`-lane substitution in `work` back into
/// the state `x` through the factor permutation `perm`.
fn write_lane<const L: usize>(perm: &[usize], work: &[f64], lane: usize, x: &mut [f64]) {
    for (&p, node) in perm.iter().zip(work.chunks_exact(L)) {
        x[p] = node[lane];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TripletMatrix;

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
        let mut stepper = sys.backward_euler(0.1).expect("numerics succeed");
        let mut x = vec![0.0];
        for _ in 0..2000 {
            stepper.step(&mut x, &[3.0]).expect("solve succeeds");
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
        let mut stepper = sys.backward_euler(1.0).expect("numerics succeed");
        let mut x = vec![50.0, 50.0];
        for _ in 0..100 {
            stepper.step(&mut x, &[1.0, 1.0]).expect("solve succeeds");
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
        let mut stepper = sys.backward_euler(dt).expect("numerics succeed");
        let b = [1.0, 0.0, 0.5];
        let mut x_be = vec![0.0; 3];
        let mut x_rk = vec![0.0; 3];
        for _ in 0..1000 {
            stepper.step(&mut x_be, &b).expect("solve succeeds");
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
        let mut stepper = sys.backward_euler(1.0).expect("numerics succeed");
        let mut next = [1.0, -3.0];
        stepper
            .step(&mut next, &[0.5, 2.0])
            .expect("dense LU takes the step");
        assert!((next[0] + 1.5).abs() < 1e-12, "{}", next[0]);
        assert!((next[1] - 1.0).abs() < 1e-12, "{}", next[1]);
        // A pair of unfactorable steppers takes the same rescue per lane.
        let mut other = stepper.clone();
        let mut pair = [[1.0, -3.0], [2.0, 0.0]];
        let [p0, p1] = &mut pair;
        BackwardEuler::step_pair(
            [&mut stepper, &mut other],
            [p0, p1],
            [&[0.5, 2.0], &[1.0, 1.0]],
        )
        .expect("dense LU takes both steps");
        assert_eq!(pair[0], next);
        assert!((pair[1][0] + 3.0).abs() < 1e-12 && (pair[1][1] + 1.0).abs() < 1e-12);
        // The second lane cannot be rescued from a NaN input: the pair
        // fails and the first state, already stepped, stays put too.
        let before = pair;
        let [p0, p1] = &mut pair;
        assert!(BackwardEuler::step_pair(
            [&mut stepper, &mut other],
            [p0, p1],
            [&[0.5, 2.0], &[f64::NAN, 1.0]],
        )
        .is_err());
        assert_eq!(pair, before);
    }

    #[test]
    fn direct_assembly_matches_triplet_assembly_bit_for_bit() {
        // Node 0's diagonal cancels to an explicit zero and node 2 has
        // no diagonal in G, so only its capacitance supplies one.
        let mut t = TripletMatrix::new(3, 3);
        t.stamp_conductance(0, 1, 2.0);
        t.add(0, 0, -2.0);
        t.add(1, 2, 0.25);
        t.add(2, 1, 0.25);
        t.stamp_to_reference(1, 0.125);
        let awkward = t.to_csr();
        assert!(awkward.iter().any(|(r, c, v)| r == c && v == 0.0));
        let mut t = TripletMatrix::new(40, 40);
        for i in 0..39 {
            t.stamp_conductance(i, i + 1, 1.0 + i as f64 * 0.1);
        }
        for i in (0..40).step_by(3) {
            t.stamp_to_reference(i, 0.3);
        }
        let chain = t.to_csr();
        let chain_caps: Vec<f64> = (0..40).map(|i| 0.5 + f64::from(i) * 0.01).collect();
        // 1e-300 / 1e300 underflows to an exact zero capacitance term.
        for (g, caps, dt) in [
            (&awkward, vec![1.0, 2.0, 3.0], 1.0e-3),
            (&awkward, vec![0.7, 1.0e-300, 4.0], 1.0e300),
            (&chain, chain_caps, 2.0e-3),
        ] {
            let stepper = LinearOde::new(g.clone(), caps.clone())
                .expect("valid system")
                .backward_euler(dt)
                .expect("valid step");
            let mut t = TripletMatrix::new(g.rows(), g.cols());
            for (row, col, v) in g.iter() {
                t.add(row, col, v);
            }
            for (i, &c) in caps.iter().enumerate() {
                t.add(i, i, c / dt);
            }
            let bits = |m: &CsrMatrix| -> Vec<(usize, usize, u64)> {
                m.iter().map(|(r, c, v)| (r, c, v.to_bits())).collect()
            };
            assert_eq!(
                bits(&stepper.system),
                bits(&t.to_csr()),
                "caps {caps:?}, dt {dt}"
            );
        }
    }

    #[test]
    fn paired_step_equals_two_single_steps() {
        let mut t = TripletMatrix::new(30, 30);
        for i in 0..29 {
            t.stamp_conductance(i, i + 1, 1.5);
            if i + 7 < 30 {
                t.stamp_conductance(i, i + 7, 0.25);
            }
        }
        for i in 0..30 {
            t.stamp_to_reference(i, 0.05);
        }
        let caps: Vec<f64> = (0..30).map(|i| 1.0 + f64::from(i % 4)).collect();
        let sys = LinearOde::new(t.to_csr(), caps).expect("valid system");
        let (mut a, mut b) = (
            sys.backward_euler(0.01).expect("valid step"),
            sys.backward_euler(0.01).expect("valid step"),
        );
        let (mut single_a, mut single_b) = (a.clone(), b.clone());
        let mut xa: Vec<f64> = (0..30).map(|i| 40.0 + f64::from(i)).collect();
        let mut xb = vec![45.0; 30];
        let (mut ya, mut yb) = (xa.clone(), xb.clone());
        for k in 0..50 {
            let ba: Vec<f64> = (0..30).map(|i| f64::from((i * k) % 5)).collect();
            let bb: Vec<f64> = (0..30)
                .map(|i| if i % 3 == 0 { 0.0 } else { 2.0 })
                .collect();
            BackwardEuler::step_pair([&mut a, &mut b], [&mut xa, &mut xb], [&ba, &bb])
                .expect("pair steps");
            single_a.step(&mut ya, &ba).expect("steps");
            single_b.step(&mut yb, &bb).expect("steps");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&xa), bits(&ya), "lane 0 at step {k}");
            assert_eq!(bits(&xb), bits(&yb), "lane 1 at step {k}");
        }
        // A NaN input fails its lane's rescue; the other lane's finite
        // substitution is not written back either.
        let finite = vec![1.0; 30];
        let mut poisoned = finite.clone();
        poisoned[17] = f64::NAN;
        for inputs in [[&finite[..], &poisoned[..]], [&poisoned[..], &finite[..]]] {
            assert!(
                BackwardEuler::step_pair([&mut a, &mut b], [&mut xa, &mut xb], inputs).is_err()
            );
            assert_eq!((&xa, &xb), (&ya, &yb));
        }
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
