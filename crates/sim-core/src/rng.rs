//! Deterministic random number generation for simulations.
//!
//! Every stochastic component in the workspace (workload jitter, random
//! routing, failure injection) draws from a [`DetRng`] seeded explicitly.
//! `DetRng` wraps a counter-free, platform-independent generator
//! ([`rand::rngs::StdRng`], ChaCha-based) and adds the distributions the
//! workload models need: uniform ranges, normal and lognormal jitter, and
//! stream splitting so independent subsystems can derive uncorrelated
//! generators from one experiment seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The SplitMix64 increment.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output function.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of [`DetRng::split_from`]'s stream: the SplitMix64
/// finalizer over (fresh draw ^ label).
#[inline]
fn split_seed(base: u64, label: u64) -> u64 {
    mix64(base.wrapping_add(GOLDEN) ^ label.wrapping_mul(0xBF58_476D_1CE4_E5B9))
}

/// A deterministic, splittable random number generator.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent generator for a named sub-stream.
    ///
    /// Mixing the label into the seed (SplitMix64 finalizer) gives streams
    /// that are uncorrelated in practice and — crucially — *stable*: adding
    /// a new consumer of randomness does not perturb existing streams.
    pub fn split(&self, label: u64) -> DetRng {
        DetRng::split_from(self.clone().next_u64(), label)
    }

    /// [`DetRng::split`] with the parent's draw precomputed: `base` is
    /// `parent.clone().next_u64()`, so `split_from(base, label)` equals
    /// `parent.split(label)`. A consumer that splits one parent many
    /// times (one stream per message) draws `base` once.
    pub fn split_from(base: u64, label: u64) -> DetRng {
        DetRng::seed_from_u64(split_seed(base, label))
    }

    /// `split_from(base, label).index(n)`, without building the stream:
    /// the generator's first output needs only two of its four seed
    /// words. For consumers that draw once per stream (a message's
    /// route). Mirrors the vendored `StdRng` (xoshiro256++ seeded by
    /// SplitMix64, Lemire's multiply-shift range mapping); a unit test
    /// pins the equality.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn split_index(base: u64, label: u64, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        let seed = split_seed(base, label);
        let s0 = mix64(seed.wrapping_add(GOLDEN));
        let s3 = mix64(seed.wrapping_add(GOLDEN.wrapping_mul(4)));
        let first = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        ((u128::from(first) * n as u128) >> 64) as usize
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi`.
    #[inline]
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range: empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p
    }

    /// Standard normal draw (Box–Muller; one value per call, the pair's
    /// second value is discarded to keep the call stateless).
    pub fn normal_std(&mut self) -> f64 {
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Lognormal multiplicative jitter with median 1 and the given sigma
    /// (log-space standard deviation). `sigma = 0` returns exactly 1.
    ///
    /// This is the jitter model for compute-phase durations: real
    /// iteration times are right-skewed — occasionally much longer, never
    /// negative — which a lognormal captures and a normal does not.
    pub fn lognormal_jitter(&mut self, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return 1.0;
        }
        (sigma * self.normal_std()).exp()
    }

    /// Raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_stable_and_distinct() {
        let root = DetRng::seed_from_u64(7);
        let mut s1a = root.split(1);
        let mut s1b = root.split(1);
        let mut s2 = root.split(2);
        let x = s1a.next_u64();
        assert_eq!(x, s1b.next_u64(), "same label must give same stream");
        assert_ne!(x, s2.next_u64(), "different labels must differ");
    }

    #[test]
    fn split_streams_are_pinned() {
        // First two draws of `root.split(label)`. Every routed or
        // fault-injected replay derives its streams this way, so moving
        // them would move every committed result.
        let pins: [(u64, [u64; 2]); 4] = [
            (0, [0x1a0f_e7b9_757a_984a, 0x1421_63d1_ecc0_4c6b]),
            (1, [0x0bef_df68_7c3c_c1c6, 0x2207_aa19_6907_0712]),
            (0xFAB, [0x9967_9ef7_fbc1_31c7, 0x0692_888b_4f46_451a]),
            (u64::MAX, [0xb118_c56f_0624_9d30, 0x6db6_300e_d9b8_b747]),
        ];
        let root = DetRng::seed_from_u64(0xFAB);
        let base = root.clone().next_u64();
        for (label, want) in pins {
            let mut a = root.split(label);
            let mut b = DetRng::split_from(base, label);
            for w in want {
                assert_eq!(a.next_u64(), w, "split({label:#x})");
                assert_eq!(b.next_u64(), w, "split_from(base, {label:#x})");
            }
        }
    }

    #[test]
    fn split_index_is_the_split_streams_first_index() {
        let mut inputs = DetRng::seed_from_u64(0x5EED);
        for i in 0..100_000 {
            let (base, label) = (inputs.next_u64(), inputs.next_u64());
            // Small ranges (a top-switch draw) and the full width.
            let n = match i % 4 {
                0 => usize::MAX,
                1 => (inputs.next_u64() as usize).max(1),
                _ => 1 + inputs.index(64),
            };
            assert_eq!(
                DetRng::split_index(base, label, n),
                DetRng::split_from(base, label).index(n),
                "base {base:#x} label {label:#x} n {n}"
            );
        }
    }

    #[test]
    fn uniform_in_bounds() {
        let mut r = DetRng::seed_from_u64(3);
        for _ in 0..1000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            let v = r.uniform_range(5.0, 6.0);
            assert!((5.0..6.0).contains(&v));
        }
    }

    #[test]
    fn index_in_bounds() {
        let mut r = DetRng::seed_from_u64(4);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.index(10)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all indices should be reachable");
    }

    #[test]
    fn normal_moments_roughly_correct() {
        let mut r = DetRng::seed_from_u64(5);
        let n = 20_000;
        let draws: Vec<f64> = (0..n).map(|_| r.normal_std()).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.075, "var {var}");
    }

    #[test]
    fn lognormal_jitter_median_near_one() {
        let mut r = DetRng::seed_from_u64(6);
        let mut draws: Vec<f64> = (0..10_001).map(|_| r.lognormal_jitter(0.3)).collect();
        draws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = draws[draws.len() / 2];
        assert!((median - 1.0).abs() < 0.05, "median {median}");
        assert!(draws.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn lognormal_jitter_zero_sigma_is_identity() {
        let mut r = DetRng::seed_from_u64(7);
        assert_eq!(r.lognormal_jitter(0.0), 1.0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed_from_u64(8);
        assert!((0..100).all(|_| !r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0 + f64::EPSILON)));
    }
}
