//! The workspace's one deterministic PRNG.

/// SplitMix64: fast, dependency-free, and statistically adequate for
/// fault scheduling, process-variation maps and Monte-Carlo draws (not
/// cryptography).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
    /// Second half of the last Box–Muller pair, for [`Self::next_normal`].
    cached: Option<f64>,
}

impl SplitMix64 {
    /// Seeds the generator.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed,
            cached: None,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    #[allow(clippy::cast_precision_loss)]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1_u64 << 53) as f64
    }

    /// Uniform in `[0, bound)`; returns 0 for `bound == 0`.
    #[allow(clippy::cast_possible_truncation)]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// A roughly standard-normal sample (sum of 12 uniforms, shifted) —
    /// plenty for sensor-noise injection.
    pub fn next_gaussian(&mut self) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            acc += self.next_f64();
        }
        acc - 6.0
    }

    /// An exact standard-normal sample (Box–Muller on uniforms in
    /// (0, 1], pair-cached: every second call returns the other half of
    /// the previous pair).
    #[allow(clippy::cast_precision_loss)]
    pub fn next_normal(&mut self) -> f64 {
        if let Some(z) = self.cached.take() {
            return z;
        }
        let mut unit = || ((self.next_u64() >> 11) as f64 + 1.0) / (1_u64 << 53) as f64;
        let u1 = unit();
        let u2 = unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.cached = Some(r * theta.sin());
        r * theta.cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_a_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..5).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..5).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = SplitMix64::new(43);
        assert_ne!(a[0], r.next_u64());
    }

    #[test]
    fn uniform_and_gaussian_are_sane() {
        let mut r = SplitMix64::new(7);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 1000.0 - 0.5).abs() < 0.05);
        let g: f64 = (0..1000).map(|_| r.next_gaussian()).sum::<f64>() / 1000.0;
        assert!(g.abs() < 0.2);
    }

    #[test]
    fn normals_are_roughly_standard() {
        let mut r = SplitMix64::new(42);
        let n = 10_000;
        let draws: Vec<f64> = (0..n).map(|_| r.next_normal()).collect();
        let mean = draws.iter().sum::<f64>() / f64::from(n);
        let var = draws.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / f64::from(n);
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.08, "var {var}");
    }
}
