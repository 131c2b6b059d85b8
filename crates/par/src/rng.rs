//! Splittable, reproducible random number generation.
//!
//! Experiments must be replayable: the same `(seed, task)` pair always
//! produces the same stream, independent of how tasks were scheduled onto
//! threads. We use the standard construction: a SplitMix64 finaliser maps
//! `(seed, task_index)` to the 256-bit state of a Xoshiro256++ generator.
//! Both algorithms are public domain (Blackman & Vigna); implementing them
//! here keeps the dependency set to the sanctioned list and makes the
//! streams stable across `rand` versions.

use rand::{Error, RngCore, SeedableRng};

/// SplitMix64: a tiny, high-quality 64-bit PRNG mainly used to *seed*
/// other generators. One `u64` of state, one output per step.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a SplitMix64 stream from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit output. (Named `next` after the reference C API; this
    /// type deliberately does not implement `Iterator`.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Xoshiro256++ — fast, 256-bit-state general purpose PRNG.
///
/// Implements [`RngCore`] and [`SeedableRng`], so it plugs into every
/// `rand` distribution. Never produces the all-zero state (seeding routes
/// through SplitMix64).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds deterministically from a single `u64` via SplitMix64.
    pub fn from_u64(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let s = [sm.next(), sm.next(), sm.next(), sm.next()];
        Xoshiro256pp { s }
    }

    #[inline]
    fn step(&mut self) -> u64 {
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
}

impl RngCore for Xoshiro256pp {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        (self.step() >> 32) as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.step()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.step().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.step().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

impl SeedableRng for Xoshiro256pp {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut s = [0u64; 4];
        for (i, chunk) in seed.chunks_exact(8).enumerate() {
            s[i] = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        if s == [0, 0, 0, 0] {
            // All-zero is a fixed point of xoshiro; remap through SplitMix64.
            return Xoshiro256pp::from_u64(0);
        }
        Xoshiro256pp { s }
    }

    fn seed_from_u64(state: u64) -> Self {
        Xoshiro256pp::from_u64(state)
    }
}

/// Canonical experiment RNG from a single seed.
pub fn seeded_rng(seed: u64) -> Xoshiro256pp {
    Xoshiro256pp::from_u64(seed)
}

/// Independent RNG for task `task` of the experiment seeded with `seed`.
///
/// Mixes the task index through SplitMix64 so neighbouring tasks get
/// unrelated streams; deterministic regardless of thread scheduling.
pub fn task_rng(seed: u64, task: u64) -> Xoshiro256pp {
    let mut sm =
        SplitMix64::new(seed ^ 0x6A09_E667_F3BC_C909u64.wrapping_mul(task.wrapping_add(1)));
    // Burn a few outputs so close (seed, task) pairs decorrelate further.
    let a = sm.next();
    let b = sm.next();
    Xoshiro256pp::from_u64(a ^ b.rotate_left(17))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 (from the public-domain C code).
        let mut sm = SplitMix64::new(1234567);
        let v: Vec<u64> = (0..3).map(|_| sm.next()).collect();
        assert_eq!(v[0], 6457827717110365317);
        assert_eq!(v[1], 3203168211198807973);
        assert_eq!(v[2], 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1);
        let mut b = seeded_rng(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn task_rngs_are_independent_and_stable() {
        let mut t0 = task_rng(7, 0);
        let mut t1 = task_rng(7, 1);
        assert_ne!(t0.next_u64(), t1.next_u64());
        let mut t0b = task_rng(7, 0);
        let mut t0c = task_rng(7, 0);
        for _ in 0..32 {
            assert_eq!(t0b.next_u64(), t0c.next_u64());
        }
    }

    #[test]
    fn fill_bytes_handles_remainders() {
        let mut rng = seeded_rng(3);
        for len in [0usize, 1, 7, 8, 9, 15, 16, 33] {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0), "len={len} all zero");
            }
        }
    }

    #[test]
    fn try_fill_bytes_never_fails() {
        let mut rng = seeded_rng(3);
        let mut buf = [0u8; 13];
        assert!(rng.try_fill_bytes(&mut buf).is_ok());
    }

    #[test]
    fn from_seed_zero_is_remapped() {
        let z = Xoshiro256pp::from_seed([0u8; 32]);
        let mut z2 = z.clone();
        // Must not be stuck at zero.
        assert_ne!(z2.next_u64(), 0u64.wrapping_add(z2.next_u64()));
        let mut outs = std::collections::HashSet::new();
        let mut z3 = z;
        for _ in 0..16 {
            outs.insert(z3.next_u64());
        }
        assert!(outs.len() > 10);
    }

    #[test]
    fn seed_from_u64_matches_from_u64() {
        let mut a = Xoshiro256pp::seed_from_u64(99);
        let mut b = Xoshiro256pp::from_u64(99);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn works_with_rand_distributions() {
        let mut rng = seeded_rng(11);
        let x: f64 = rng.gen();
        assert!((0.0..1.0).contains(&x));
        let k = rng.gen_range(0..10usize);
        assert!(k < 10);
        // Uniformity smoke test over gen_range.
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[rng.gen_range(0..4usize)] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "counts={counts:?}");
        }
    }
}
