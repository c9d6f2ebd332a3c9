//! Offline stand-in for `rand` 0.8 (no registry in the benchmark
//! sandbox): the subset this repository calls, over SplitMix64. Seeded
//! streams differ from the published crate's ChaCha12 `StdRng`, so
//! trajectories are only comparable between builds that use this stub.

use std::ops::Range;

pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `gen_range` can draw uniformly from a half-open range.
pub trait SampleUniform: Sized {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<$t>) -> $t {
                assert!(range.start < range.end, "gen_range: empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Multiply-shift keeps the draw inside `span` with bias
                // below 2^-64 per value.
                let offset = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (range.start as i128 + offset) as $t
            }
        }
    )*};
}
uniform_int!(u32, u64, usize, i32);

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

impl SampleUniform for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "gen_range: empty range");
        range.start + unit_f64(rng) * (range.end - range.start)
    }
}

pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p out of [0, 1]");
        unit_f64(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// SplitMix64 (Steele, Lea & Flood 2014).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        /// Fisher–Yates.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..i + 1));
            }
        }
    }
}

pub mod prelude {
    pub use super::rngs::StdRng;
    pub use super::seq::SliceRandom;
    pub use super::{Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn same_seed_same_stream_and_ranges_hold() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = a.gen_range(3u32..17);
            assert_eq!(x, b.gen_range(3u32..17));
            assert!((3..17).contains(&x));
            let f: f64 = a.gen_range(0.0..1.0);
            assert!((0.0..1.0).contains(&f));
            b.gen_range(0.0..1.0);
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<u32> = (0..100).collect();
        v.shuffle(&mut StdRng::seed_from_u64(1));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
