//! Shared building blocks for the synthetic application generators.
//!
//! The generators reproduce each application's *communication structure*
//! (which MPI calls, in which order, with which inter-call gaps and
//! message sizes, and how all of that changes under strong scaling), not
//! its numerics. Three model families are shared:
//!
//! * **Strong-scaling laws** — compute gaps shrink as `(ref_n/n)^α` with
//!   a per-application exponent (α < 1 captures the serial fractions and
//!   load imbalance that keep real gaps from shrinking linearly);
//!   message sizes follow surface laws `(ref_n/n)^(2/3)` for 3-D halo
//!   exchanges.
//! * **Jitter** — compute gaps carry multiplicative lognormal noise plus
//!   a persistent per-rank imbalance factor, which is what makes
//!   collective wait times grow with scale during replay.
//! * **Process grids** — ring and square-grid neighbourhoods.

use ibp_simcore::{DetRng, SimDuration};
use ibp_trace::Rank;

/// How the problem grows with the process count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scaling {
    /// Fixed total problem: per-rank compute and messages shrink with
    /// the process count (the paper's evaluation mode).
    #[default]
    Strong,
    /// Fixed per-rank problem: compute gaps and message sizes stay at
    /// their reference values regardless of scale; only the O(n)
    /// collective costs grow. The paper's §VI conjecture is that the
    /// mechanism "would benefit more in weak scaling runs".
    Weak,
}

impl Scaling {
    /// The process count to feed into per-rank scaling laws: the real
    /// one under strong scaling, the reference count under weak scaling.
    pub fn effective_n(self, nprocs: u32, ref_n: u32) -> u32 {
        match self {
            Scaling::Strong => nprocs,
            Scaling::Weak => ref_n,
        }
    }
}

/// Strong-scaling value: `base × (ref_n / n)^alpha`.
pub fn strong_scale(base: f64, ref_n: u32, n: u32, alpha: f64) -> f64 {
    base * (f64::from(ref_n) / f64::from(n)).powf(alpha)
}

/// 3-D halo surface law for message bytes: `base × (ref_n/n)^(2/3)`,
/// floored at 64 bytes (headers never vanish).
pub fn halo_bytes(base: f64, ref_n: u32, n: u32) -> u64 {
    strong_scale(base, ref_n, n, 2.0 / 3.0).max(64.0) as u64
}

/// A compute-gap model: a strong-scaled base duration with lognormal
/// jitter and a per-rank persistent imbalance factor.
#[derive(Debug, Clone, Copy)]
pub struct GapModel {
    /// Gap at the reference process count, in µs.
    pub base_us: f64,
    /// Reference process count the base is calibrated at.
    pub ref_n: u32,
    /// Strong-scaling exponent.
    pub alpha: f64,
    /// Log-space jitter standard deviation per draw.
    pub sigma: f64,
}

impl GapModel {
    /// Mean gap at `n` processes, in µs.
    pub fn mean_us(&self, n: u32) -> f64 {
        strong_scale(self.base_us, self.ref_n, n, self.alpha)
    }

    /// Draw one gap for a rank with persistent imbalance `rank_factor`.
    pub fn draw(&self, n: u32, rank_factor: f64, rng: &mut DetRng) -> SimDuration {
        let us = self.mean_us(n) * rank_factor * rng.lognormal_jitter(self.sigma);
        SimDuration::from_us_f64(us.max(0.0))
    }
}

/// Persistent per-rank imbalance factors: each rank computes a little
/// faster or slower than the mean, consistently for the whole run.
pub fn rank_imbalance(nprocs: u32, spread: f64, rng: &mut DetRng) -> Vec<f64> {
    (0..nprocs)
        .map(|_| (1.0 + spread * rng.normal_std()).max(0.5))
        .collect()
}

/// Integer square root if `n` is a perfect square.
pub fn square_side(n: u32) -> Option<u32> {
    let s = (f64::from(n)).sqrt().round() as u32;
    (s * s == n).then_some(s)
}

/// Neighbours of `rank` on a `side × side` torus grid:
/// `[east, west, north, south]`.
pub fn grid_neighbors(rank: Rank, side: u32) -> [Rank; 4] {
    let (x, y) = (rank % side, rank / side);
    let east = y * side + (x + 1) % side;
    let west = y * side + (x + side - 1) % side;
    let north = ((y + 1) % side) * side + x;
    let south = ((y + side - 1) % side) * side + x;
    [east, west, north, south]
}

/// Tiny intra-gram gap (µs scale), jittered; always below any legal GT
/// (`< 20 µs`) so it never splits a gram.
pub fn intra_gram_gap(rng: &mut DetRng) -> SimDuration {
    SimDuration::from_us_f64(rng.uniform_range(0.5, 8.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strong_scale_identity_at_ref() {
        assert!((strong_scale(100.0, 8, 8, 0.7) - 100.0).abs() < 1e-12);
    }

    #[test]
    fn strong_scale_decreases_with_n() {
        let a = strong_scale(100.0, 8, 16, 0.7);
        let b = strong_scale(100.0, 8, 128, 0.7);
        assert!(a < 100.0 && b < a);
        // alpha = 1 halves per doubling.
        assert!((strong_scale(100.0, 8, 16, 1.0) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn halo_bytes_floor() {
        assert_eq!(halo_bytes(100.0, 8, 1_000_000), 64);
        assert_eq!(halo_bytes(1_500_000.0, 8, 8), 1_500_000);
    }

    #[test]
    fn gap_model_draws_are_positive_and_near_mean() {
        let m = GapModel {
            base_us: 500.0,
            ref_n: 8,
            alpha: 0.7,
            sigma: 0.05,
        };
        let mut rng = DetRng::seed_from_u64(1);
        let mut sum = 0.0;
        let k = 2000;
        for _ in 0..k {
            let d = m.draw(64, 1.0, &mut rng);
            assert!(d > SimDuration::ZERO);
            sum += d.as_us_f64();
        }
        let mean = sum / f64::from(k);
        let expect = m.mean_us(64);
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "mean {mean} vs {expect}"
        );
    }

    #[test]
    fn rank_imbalance_is_persistent_and_positive() {
        let mut rng = DetRng::seed_from_u64(2);
        let f = rank_imbalance(64, 0.03, &mut rng);
        assert_eq!(f.len(), 64);
        assert!(f.iter().all(|&x| x >= 0.5));
        let mean: f64 = f.iter().sum::<f64>() / 64.0;
        assert!((mean - 1.0).abs() < 0.05);
    }

    #[test]
    fn square_side_detects_squares() {
        assert_eq!(square_side(9), Some(3));
        assert_eq!(square_side(100), Some(10));
        assert_eq!(square_side(8), None);
    }

    #[test]
    fn grid_neighbors_wrap_torus() {
        // 3×3 grid, rank 0 at (0,0).
        assert_eq!(grid_neighbors(0, 3), [1, 2, 3, 6]);
        // rank 8 at (2,2).
        assert_eq!(grid_neighbors(8, 3), [6, 7, 2, 5]);
    }

    #[test]
    fn intra_gram_gap_below_min_gt() {
        let mut rng = DetRng::seed_from_u64(3);
        for _ in 0..500 {
            assert!(intra_gram_gap(&mut rng) < SimDuration::from_us(20));
        }
    }
}
