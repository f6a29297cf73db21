//! Per-core process variation.
//!
//! The dark-silicon management work the paper builds on (DaSim,
//! DATE'15; Hayat, DAC'15) is *variability-aware*: manufactured cores
//! differ in leakage (strongly, log-normally) and in maximum stable
//! frequency (mildly). Dark silicon turns this into an opportunity —
//! with spare cores available, management can prefer the efficient ones
//! and leave leaky or slow cores dark.
//!
//! [`VariationModel`] describes the statistical spread;
//! [`VariationMap`] is one sampled chip (deterministic per seed). The
//! leakage factors are mean-one log-normal (`exp(N(0,σ) − σ²/2)`) so a
//! varied chip has the same *expected* leakage as the nominal model;
//! frequency factors are `min(1, 1 + N(0, σ_f))` clamped to a floor —
//! a core can only be as fast as the nominal design or slower.

use darksil_robust::SplitMix64;

use crate::PowerError;

/// Lowest admissible per-core frequency factor: even the slowest
/// manufactured core reaches 70 % of nominal.
const MIN_FREQUENCY_FACTOR: f64 = 0.7;

/// Statistical description of within-die variation.
///
/// # Examples
///
/// ```
/// use darksil_power::VariationModel;
///
/// let chip = VariationModel::typical(42).generate(100);
/// // Mean-one leakage factors with real spread.
/// assert!((chip.mean_leakage() - 1.0).abs() < 0.1);
/// let quietest = chip.cores_by_leakage()[0];
/// assert!(chip.leakage_factor(quietest) < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    leakage_sigma: f64,
    frequency_sigma: f64,
    seed: u64,
}

impl VariationModel {
    /// Builds a variation model.
    ///
    /// # Errors
    ///
    /// Returns [`PowerError::InvalidParameter`] for negative or
    /// non-finite sigmas.
    pub fn new(leakage_sigma: f64, frequency_sigma: f64, seed: u64) -> Result<Self, PowerError> {
        for (name, value) in [
            ("leakage_sigma", leakage_sigma),
            ("frequency_sigma", frequency_sigma),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(PowerError::InvalidParameter { name, value });
            }
        }
        Ok(Self {
            leakage_sigma,
            frequency_sigma,
            seed,
        })
    }

    /// Typical FinFET-node spread: σ = 0.25 on log-leakage (≈ ±60 %
    /// core-to-core swings) and σ = 3 % on frequency.
    #[must_use]
    pub fn typical(seed: u64) -> Self {
        Self {
            leakage_sigma: 0.25,
            frequency_sigma: 0.03,
            seed,
        }
    }

    /// Samples one chip of `cores` cores.
    #[must_use]
    pub fn generate(&self, cores: usize) -> VariationMap {
        let mut rng = SplitMix64::new(self.seed);
        let mut leakage = Vec::with_capacity(cores);
        let mut frequency = Vec::with_capacity(cores);
        // Mean-one log-normal: E[exp(N(0,σ))] = exp(σ²/2).
        let bias = self.leakage_sigma * self.leakage_sigma / 2.0;
        for _ in 0..cores {
            let zl = rng.next_normal();
            leakage.push((self.leakage_sigma * zl - bias).exp());
            let zf = rng.next_normal();
            let f = (1.0 + self.frequency_sigma * zf).min(1.0);
            frequency.push(f.max(MIN_FREQUENCY_FACTOR));
        }
        VariationMap { leakage, frequency }
    }
}

/// One sampled chip: per-core leakage and frequency factors.
#[derive(Debug, Clone, PartialEq)]
pub struct VariationMap {
    leakage: Vec<f64>,
    frequency: Vec<f64>,
}

impl VariationMap {
    /// A variation-free chip (all factors 1).
    #[must_use]
    pub fn uniform(cores: usize) -> Self {
        Self {
            leakage: vec![1.0; cores],
            frequency: vec![1.0; cores],
        }
    }

    /// Number of cores covered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.leakage.len()
    }

    /// Whether the map covers no cores.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.leakage.is_empty()
    }

    /// Leakage multiplier of core `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn leakage_factor(&self, i: usize) -> f64 {
        self.leakage[i]
    }

    /// Maximum-frequency factor of core `i` (≤ 1).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn frequency_factor(&self, i: usize) -> f64 {
        self.frequency[i]
    }

    /// All leakage factors.
    #[must_use]
    pub fn leakage_factors(&self) -> &[f64] {
        &self.leakage
    }

    /// Mean leakage factor (≈ 1 by construction).
    #[must_use]
    pub fn mean_leakage(&self) -> f64 {
        if self.leakage.is_empty() {
            return 1.0;
        }
        self.leakage.iter().sum::<f64>() / self.leakage.len() as f64
    }

    /// Core indices sorted by ascending leakage — the order a
    /// variability-aware manager prefers to light cores in.
    #[must_use]
    pub fn cores_by_leakage(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.leakage.len()).collect();
        idx.sort_by(|&a, &b| self.leakage[a].total_cmp(&self.leakage[b]).then(a.cmp(&b)));
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let m = VariationModel::typical(42);
        let a = m.generate(100);
        let b = m.generate(100);
        assert_eq!(a, b);
        let c = VariationModel::typical(43).generate(100);
        assert_ne!(a, c);
    }

    #[test]
    fn leakage_factors_are_mean_one_and_positive() {
        let map = VariationModel::typical(7).generate(10_000);
        assert!(map.leakage_factors().iter().all(|&f| f > 0.0));
        let mean = map.mean_leakage();
        assert!((mean - 1.0).abs() < 0.02, "mean {mean}");
        // And there is real spread.
        let max = map.leakage_factors().iter().copied().fold(0.0, f64::max);
        let min = map.leakage_factors().iter().copied().fold(9.0, f64::min);
        assert!(max / min > 1.5, "spread {max}/{min}");
    }

    #[test]
    fn frequency_factors_are_clamped() {
        let map = VariationModel::new(0.0, 0.2, 11)
            .expect("test value")
            .generate(5_000);
        for i in 0..map.len() {
            let f = map.frequency_factor(i);
            assert!((MIN_FREQUENCY_FACTOR..=1.0).contains(&f), "factor {f}");
        }
    }

    #[test]
    fn uniform_map_is_all_ones() {
        let map = VariationMap::uniform(16);
        assert_eq!(map.len(), 16);
        assert!(!map.is_empty());
        for i in 0..16 {
            assert_eq!(map.leakage_factor(i), 1.0);
            assert_eq!(map.frequency_factor(i), 1.0);
        }
        assert_eq!(map.mean_leakage(), 1.0);
    }

    #[test]
    fn leakage_ordering_is_ascending() {
        let map = VariationModel::typical(3).generate(64);
        let order = map.cores_by_leakage();
        assert_eq!(order.len(), 64);
        for w in order.windows(2) {
            assert!(map.leakage_factor(w[0]) <= map.leakage_factor(w[1]));
        }
    }

    #[test]
    fn zero_sigma_collapses_to_uniform() {
        let map = VariationModel::new(0.0, 0.0, 9)
            .expect("test value")
            .generate(32);
        for i in 0..32 {
            assert!((map.leakage_factor(i) - 1.0).abs() < 1e-12);
            assert_eq!(map.frequency_factor(i), 1.0);
        }
    }

    #[test]
    fn invalid_sigmas_rejected() {
        assert!(VariationModel::new(-0.1, 0.0, 1).is_err());
        assert!(VariationModel::new(0.1, f64::NAN, 1).is_err());
    }
}
