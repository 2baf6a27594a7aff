//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no network access, so this workspace vendors
//! the *subset* of rand 0.8's API that the MEmCom reproduction uses:
//!
//! * [`RngCore`] / [`Rng`] with `gen`, `gen_range`, `gen_bool`, `fill_bytes`
//! * [`SeedableRng`] with `from_seed` / `seed_from_u64`
//! * [`rngs::StdRng`] — here a xoshiro256++ generator (high-quality,
//!   deterministic, *not* the upstream ChaCha12, so streams differ from
//!   upstream rand — every experiment in this repo seeds through this crate,
//!   so results remain self-consistent)
//! * [`seq::SliceRandom`] with `shuffle` / `choose`
//!
//! Everything is deterministic given a seed; nothing touches OS entropy.

pub mod rngs;
pub mod seq;

/// Low-level generator interface: a source of uniform random words.
pub trait RngCore {
    /// Next uniform 32-bit word.
    fn next_u32(&mut self) -> u32;
    /// Next uniform 64-bit word.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let last = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&last[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> RngCore for Box<R> {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// User-facing extension methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Samples a value from the "standard" distribution of `T`
    /// (uniform over `[0, 1)` for floats, uniform over all values for
    /// integers and `bool`).
    #[inline]
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    /// Samples uniformly from `range` (half-open or inclusive).
    #[inline]
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: SampleUniform,
        R: SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is not in `[0, 1]`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool probability out of range: {p}"
        );
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Types samplable from the standard distribution (see [`Rng::gen`]).
pub trait StandardSample: Sized {
    /// Draws one standard-distributed value.
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f32 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 24 mantissa bits → uniform on [0, 1).
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for f64 {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 mantissa bits → uniform on [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for bool {
    #[inline]
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

macro_rules! standard_int {
    ($($t:ty),*) => {$(
        impl StandardSample for $t {
            #[inline]
            fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types with a uniform-range sampler (see [`Rng::gen_range`]).
pub trait SampleUniform: Sized + Copy + PartialOrd {
    /// Uniform draw from `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
    /// Uniform draw from `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: empty range");
                let span = (high as i128 - low as i128) as u128;
                let r = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (low as i128 + r) as $t
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "gen_range: empty inclusive range");
                let span = (high as i128 - low as i128) as u128 + 1;
                let r = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (low as i128 + r) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! uniform_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low < high, "gen_range: empty range");
                let u = <$t as StandardSample>::sample_standard(rng);
                let v = low + u * (high - low);
                // Floating-point rounding can land exactly on `high`; fold
                // that measure-zero edge back into the range.
                if v < high { v } else { low }
            }
            #[inline]
            fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self {
                assert!(low <= high, "gen_range: empty inclusive range");
                let u = <$t as StandardSample>::sample_standard(rng);
                low + u * (high - low)
            }
        }
    )*};
}
uniform_float!(f32, f64);

/// Range types accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_inclusive(*self.start(), *self.end(), rng)
    }
}

/// Seedable generators, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Raw seed type.
    type Seed: Default + AsMut<[u8]>;

    /// Constructs from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed via SplitMix64 (deterministic).
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut sm = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            let word = splitmix64(&mut sm).to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&word[..n]);
        }
        Self::from_seed(seed)
    }
}

pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(8);
        assert_ne!(StdRng::seed_from_u64(7).next_u64(), c.next_u64());
    }

    #[test]
    fn float_ranges_in_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let x: f64 = rng.gen();
            assert!((0.0..1.0).contains(&x));
            let y: f32 = rng.gen_range(f32::EPSILON..1.0);
            assert!((f32::EPSILON..1.0).contains(&y));
            let z = rng.gen_range(-2.5f64..7.5);
            assert!((-2.5..7.5).contains(&z));
        }
    }

    #[test]
    fn int_ranges_in_bounds_and_cover() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            let v = rng.gen_range(10usize..15);
            assert!((10..15).contains(&v));
            seen[v - 10] = true;
            let w = rng.gen_range(-3i64..=3);
            assert!((-3..=3).contains(&w));
        }
        assert!(
            seen.iter().all(|&s| s),
            "all 5 values should appear in 1000 draws"
        );
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<usize> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn works_through_unsized_refs() {
        fn draw<R: Rng + ?Sized>(rng: &mut R) -> f32 {
            rng.gen()
        }
        let mut rng = StdRng::seed_from_u64(4);
        let dynamic: &mut dyn RngCore = &mut rng;
        assert!((0.0..1.0).contains(&draw(dynamic)));
    }

    #[test]
    fn fill_bytes_covers_remainder() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gen_bool_extremes() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(!rng.gen_bool(0.0));
        assert!(rng.gen_bool(1.0));
    }
}
