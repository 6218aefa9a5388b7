//! Small deterministic pseudo-random number generator.
//!
//! The simulation engine itself is deterministic; randomness is only used by
//! workload generators and test inputs. [`DetRng`] is the workspace's one
//! PRNG: the `workloads` generators (`MachineMix`, and through it
//! `ClusterMix`, and the synthetic Intrepid-like trace) draw from its
//! samplers, and the vendored `proptest` stand-in draws its cases from it.
//! A self-contained SplitMix64/xoshiro generator keeps the workspace free
//! of third-party RNG crates while guaranteeing identical streams across
//! platforms.

/// A deterministic 64-bit PRNG (xoshiro256++ seeded via SplitMix64).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `[lo, hi)`. Returns `lo` if the range is empty or
    /// inverted.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "DetRng::below requires n > 0");
        // Multiply-shift rejection-free mapping; bias is < 2^-64 * n which is
        // negligible for simulation workloads.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Samples an exponential distribution with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64(); // avoid ln(0)
        -mean * u.ln()
    }

    /// Samples a standard normal via the Box-Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Samples an index according to the given non-negative weights.
    /// Panics if the weights are empty or sum to zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(
            total > 0.0 && !weights.is_empty(),
            "weighted_index requires positive total weight"
        );
        let mut x = self.next_f64() * total;
        for (i, &w) in weights.iter().enumerate() {
            if x < w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = DetRng::new(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(11);
        for _ in 0..10_000 {
            assert!(r.below(17) < 17);
        }
    }

    #[test]
    fn uniform_handles_degenerate_range() {
        let mut r = DetRng::new(3);
        assert_eq!(r.uniform(5.0, 5.0), 5.0);
        assert_eq!(r.uniform(5.0, 4.0), 5.0);
        let x = r.uniform(2.0, 3.0);
        assert!((2.0..3.0).contains(&x));
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut r = DetRng::new(99);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.exponential(4.0)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean was {mean}");
    }

    #[test]
    fn weighted_index_follows_weights() {
        let mut r = DetRng::new(5);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[r.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "ratio was {ratio}");
    }

    #[test]
    #[should_panic]
    fn below_zero_panics() {
        DetRng::new(0).below(0);
    }
}
