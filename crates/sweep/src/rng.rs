//! The sweep's Monte-Carlo RNG: the workspace SplitMix64 keyed per
//! `(seed, point_index, draw_index)`, sampled with its Box–Muller
//! normal.
//!
//! Keying a fresh generator per evaluation — rather than streaming one
//! generator across the plan — is what lets any single point/draw be
//! regenerated in isolation: a resume, a cache-miss recompute, or a
//! reproducer never needs to replay the draws that came before it.

use darksil_robust::SplitMix64;

/// Golden-ratio constant folding the point index into the seed.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Second mixing constant folding the draw index into the seed, so
/// `(point, draw)` and `(draw, point)` never collide.
const DRAW_MIX: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// The generator for Monte-Carlo cell `(point_index, draw_index)` of a
/// sweep seeded with `seed`.
#[must_use]
pub fn cell_rng(seed: u64, point_index: usize, draw_index: usize) -> SplitMix64 {
    SplitMix64::new(
        seed ^ (point_index as u64).wrapping_mul(GOLDEN)
            ^ (draw_index as u64).wrapping_mul(DRAW_MIX),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_are_independent_and_reproducible() {
        let mut a = cell_rng(7, 3, 2);
        let mut b = cell_rng(7, 3, 2);
        assert_eq!(a.next_u64(), b.next_u64());

        // Regenerating cell (3, 2) needs no other cell's history.
        let direct: Vec<u64> = {
            let mut rng = cell_rng(7, 3, 2);
            (0..4).map(|_| rng.next_u64()).collect()
        };
        let mut again = cell_rng(7, 3, 2);
        let replay: Vec<u64> = (0..4).map(|_| again.next_u64()).collect();
        assert_eq!(direct, replay);
    }

    #[test]
    fn point_and_draw_indices_do_not_commute() {
        let mut a = cell_rng(0, 1, 2);
        let mut b = cell_rng(0, 2, 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
