//! Deterministic hash functions used by the hashing-based compressors.
//!
//! The paper's techniques need two kinds of index mapping:
//!
//! * the plain modulo `i mod m` ("naive hashing", MEmCom's `U` index, the
//!   remainder part of quotient–remainder), and
//! * independent seeded hash functions for double hashing, where the whole
//!   point (Zhang et al., 2020) is that two *different* functions collide
//!   on different id pairs.
//!
//! The seeded function is a SplitMix64 finalizer — a measured-good avalanche
//! mixer that is trivially reproducible across platforms, keeping every
//! experiment deterministic from its seed.

/// Plain modulo bucketing, `i mod m`.
///
/// With frequency-sorted ids (the paper sorts ids by frequency, Algorithm
/// 2), the `m` most popular entities land in distinct buckets — a property
/// several experiments rely on.
///
/// # Panics
///
/// Panics if `m == 0` — a configuration bug, not a data condition.
#[inline]
pub fn mod_hash(id: usize, m: usize) -> usize {
    assert!(m > 0, "hash size must be positive");
    id % m
}

/// A seeded universal-style hash onto `[0, m)`.
///
/// Distinct seeds give (empirically) independent bucketings, which is what
/// double hashing requires.
///
/// # Panics
///
/// Panics if `m == 0`.
#[inline]
pub fn seeded_hash(id: usize, m: usize, seed: u64) -> usize {
    assert!(m > 0, "hash size must be positive");
    (splitmix64((id as u64).wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))) % m as u64)
        as usize
}

/// SplitMix64 finalizer: full-avalanche 64-bit mixing.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which table row an id reads: the one definition of "id → row", held
/// per table by a [`Recipe`](crate::recipe::Recipe).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RowMap {
    /// `id` — one row per entity (uncompressed, reduced dim).
    Identity,
    /// `id mod m` — naive hashing, MEmCom's shared table.
    Mod(usize),
    /// `min(id, keep)` — truncate-rare: ids are frequency-sorted, the
    /// first `keep` own a row and row `keep` is the shared OOV row.
    Clamp(usize),
    /// [`seeded_hash`] onto `m` rows — each half of double hashing, the
    /// Weinberger one-hot bucket.
    Seeded {
        /// Row count of the hashed table.
        m: usize,
        /// Hash seed; distinct seeds give independent bucketings.
        seed: u64,
    },
    /// `id / m` — the quotient table of quotient–remainder, beside a
    /// `Mod(m)` remainder table.
    Div(usize),
}

impl RowMap {
    /// The row `id` reads.
    ///
    /// # Panics
    ///
    /// Panics on a zero modulus or divisor.
    #[inline]
    pub fn row(self, id: usize) -> usize {
        match self {
            RowMap::Identity => id,
            RowMap::Mod(m) => mod_hash(id, m),
            RowMap::Clamp(keep) => id.min(keep),
            RowMap::Seeded { m, seed } => seeded_hash(id, m, seed),
            RowMap::Div(m) => id / m,
        }
    }

    /// How many rows the ids `0..vocab` can read — the row count of the
    /// table behind this map — or `None` for a zero modulus or divisor.
    pub fn rows(self, vocab: usize) -> Option<usize> {
        match self {
            RowMap::Identity => Some(vocab),
            RowMap::Mod(m) | RowMap::Seeded { m, .. } => (m > 0).then_some(m),
            RowMap::Clamp(keep) => keep.checked_add(1),
            RowMap::Div(m) => (m > 0).then(|| vocab.div_ceil(m)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn mod_hash_basics() {
        assert_eq!(mod_hash(0, 10), 0);
        assert_eq!(mod_hash(25, 10), 5);
        assert_eq!(mod_hash(9, 10), 9);
    }

    #[test]
    #[should_panic(expected = "hash size")]
    fn mod_hash_zero_m_panics() {
        let _ = mod_hash(1, 0);
    }

    #[test]
    fn mod_hash_head_ids_unique() {
        // Frequency-sorted property: ids 0..m land in distinct buckets.
        let m = 100;
        let buckets: HashSet<usize> = (0..m).map(|i| mod_hash(i, m)).collect();
        assert_eq!(buckets.len(), m);
    }

    #[test]
    fn row_maps_stay_inside_the_row_count_they_report() {
        let vocab = 45;
        for map in [
            RowMap::Identity,
            RowMap::Mod(10),
            RowMap::Clamp(10),
            RowMap::Seeded { m: 7, seed: 3 },
            RowMap::Div(10),
        ] {
            let rows = map.rows(vocab).unwrap();
            let top = (0..vocab).map(|id| map.row(id)).max().unwrap();
            assert!(top < rows, "{map:?}: row {top} of {rows}");
            if !matches!(map, RowMap::Seeded { .. }) {
                assert_eq!(top + 1, rows, "{map:?} leaves rows unused");
            }
        }
        assert_eq!(RowMap::Div(10).rows(vocab), Some(5));
        assert_eq!(RowMap::Mod(0).rows(vocab), None);
        assert_eq!(RowMap::Div(0).rows(vocab), None);
        assert_eq!(RowMap::Clamp(usize::MAX).rows(vocab), None);
    }

    #[test]
    fn seeded_hash_in_range_and_deterministic() {
        for id in 0..1000 {
            let h = seeded_hash(id, 37, 12345);
            assert!(h < 37);
            assert_eq!(h, seeded_hash(id, 37, 12345));
        }
    }

    #[test]
    fn different_seeds_give_different_bucketings() {
        let m = 64;
        let a: Vec<usize> = (0..10_000).map(|i| seeded_hash(i, m, 1)).collect();
        let b: Vec<usize> = (0..10_000).map(|i| seeded_hash(i, m, 2)).collect();
        let agree = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        // Independent hashing agrees with probability ≈ 1/m.
        let expect = 10_000.0 / m as f64;
        assert!(
            (agree as f64) < expect * 2.0,
            "seeds too correlated: {agree} agreements vs expected {expect}"
        );
    }

    #[test]
    fn seeded_hash_spreads_uniformly() {
        let m = 16;
        let mut counts = vec![0usize; m];
        for id in 0..16_000 {
            counts[seeded_hash(id, m, 99)] += 1;
        }
        // Each bucket should hold ~1000; allow ±20%.
        for (b, &c) in counts.iter().enumerate() {
            assert!((800..1200).contains(&c), "bucket {b} has {c}");
        }
    }

    #[test]
    fn splitmix64_known_vector() {
        // Reference value from the SplitMix64 definition (seed 0 → first output).
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
    }

    proptest! {
        #[test]
        fn prop_hashes_in_range(id in 0usize..1_000_000, m in 1usize..10_000, seed in 0u64..100) {
            prop_assert!(mod_hash(id, m) < m);
            prop_assert!(seeded_hash(id, m, seed) < m);
        }

        #[test]
        fn prop_mod_hash_periodic(id in 0usize..100_000, m in 1usize..1000) {
            prop_assert_eq!(mod_hash(id, m), mod_hash(id + m, m));
        }
    }
}
