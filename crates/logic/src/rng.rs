//! A small, deterministic pseudo-random number generator.
//!
//! The workspace is intentionally dependency-free, so the few places that
//! need randomness (random benchmark generation, simulation patterns,
//! signature-based equivalence detection) share this xoshiro256** generator
//! seeded through splitmix64. It is *not* cryptographically secure; it only
//! needs to be fast, well distributed and fully reproducible from a `u64`
//! seed.

/// A seeded xoshiro256** pseudo-random number generator.
///
/// # Example
///
/// ```
/// use mch_logic::Prng;
///
/// let mut a = Prng::seed_from_u64(42);
/// let mut b = Prng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// assert!(a.gen_range(0..10) < 10);
/// ```
#[derive(Clone, Debug)]
pub struct Prng {
    state: [u64; 4],
}

impl Prng {
    /// Creates a generator whose stream is fully determined by `seed`.
    pub fn seed_from_u64(seed: u64) -> Self {
        // Expand the seed with splitmix64 so that similar seeds produce
        // unrelated initial states.
        let mut s = seed;
        let mut next = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        Prng {
            state: [next(), next(), next(), next()],
        }
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s1 << 17;
        let mut n = [s0, s1, s2, s3];
        n[2] ^= n[0];
        n[3] ^= n[1];
        n[1] ^= n[2];
        n[0] ^= n[3];
        n[2] ^= t;
        n[3] = n[3].rotate_left(45);
        self.state = n;
        result
    }

    /// A uniformly distributed value in `range` (which must be non-empty).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(
            range.start < range.end,
            "gen_range requires a non-empty range"
        );
        let span = (range.end - range.start) as u64;
        // Multiply-shift rejection-free mapping; bias is negligible for the
        // small spans used here (< 2^32).
        let hi = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        range.start + hi as usize
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_streams() {
        let mut a = Prng::seed_from_u64(7);
        let mut b = Prng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed_from_u64(1);
        let mut b = Prng::seed_from_u64(2);
        assert_ne!(
            (0..4).map(|_| a.next_u64()).collect::<Vec<_>>(),
            (0..4).map(|_| b.next_u64()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut rng = Prng::seed_from_u64(3);
        for _ in 0..1000 {
            let v = rng.gen_range(5..17);
            assert!((5..17).contains(&v));
        }
    }

    #[test]
    fn bool_probability_roughly_matches() {
        let mut rng = Prng::seed_from_u64(4);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits}");
    }
}
