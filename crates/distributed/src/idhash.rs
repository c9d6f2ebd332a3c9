//! The hasher of the crate's integer-keyed maps.
//!
//! Every key that goes through it is an id the program numbered itself —
//! level-vertex ids (dense per level), module ids (the same ids), module
//! slots, ranks — never an input string, so the flood protection SipHash
//! buys is protection against nobody, at 20–30 ns a lookup on the
//! per-record paths. One multiply–xorshift step per word instead: the
//! multiply spreads a dense id over the high bits, the shift brings them
//! back down to the bits the table indexes with.
//!
//! Spell the type out as `HashMap<K, V, IdBuild>` (no alias): spmd-lint R2
//! recognizes a hash container by the name at its declaration.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply–xorshift hasher for integer ids.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

/// `BuildHasher` of the crate's id-keyed `HashMap`s and `HashSet`s.
pub type IdBuild = BuildHasherDefault<IdHasher>;

impl Hasher for IdHasher {
    #[inline]
    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }

    /// Not reached by integer keys; kept correct for any other `Hash`.
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn dense_and_strided_ids_spread_over_the_table() {
        // hashbrown indexes with the low bits and tags with the top seven:
        // both must vary over the key shapes the crate uses — consecutive
        // ids, and one residue class mod p.
        for stride in [1u64, 4, 7, 256] {
            let (mut low_bits, mut top_bits) = (HashSet::new(), HashSet::new());
            for i in 0..4096u64 {
                let mut h = IdHasher::default();
                h.write_u64(i * stride);
                low_bits.insert(h.finish() & 0xfff);
                top_bits.insert(h.finish() >> 57);
            }
            assert!(
                low_bits.len() > 2400,
                "stride {stride}: {} low buckets",
                low_bits.len()
            );
            assert_eq!(top_bits.len(), 128, "stride {stride}");
        }
    }

    #[test]
    fn maps_and_tuple_keyed_sets_behave() {
        let mut by_id: HashMap<u32, u32, IdBuild> = HashMap::default();
        let mut sent_pairs: HashSet<(usize, u32), IdBuild> = HashSet::default();
        for i in 0..1000u32 {
            by_id.insert(i * 3, i);
            assert!(sent_pairs.insert((i as usize % 4, i)));
        }
        assert!((0..1000u32).all(|i| by_id[&(i * 3)] == i));
        assert!(!sent_pairs.insert((3, 999)) && sent_pairs.insert((2, 999)));
    }
}
