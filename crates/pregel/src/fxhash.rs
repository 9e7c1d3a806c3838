//! A small, fast, non-cryptographic hasher (the FxHash algorithm used by the
//! Rust compiler) for partitioning vertices and building inboxes.
//!
//! Vertex IDs in the assembler are 64-bit integers that the paper chose
//! precisely because "Pregel heavily checks vertex IDs for message delivery,
//! and integer IDs benefit from efficient word-level instructions"
//! (Section IV-A). The default SipHash hasher of `std::collections::HashMap`
//! would dominate the runtime of message grouping, so this module provides the
//! classic Fx multiply-rotate hasher instead. It is not DoS-resistant, which
//! is irrelevant here: keys are internally generated k-mer encodings.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The FxHash hasher state.
#[derive(Default, Clone, Copy)]
// ppa_lint: allow(test-only-pub) named by the public `FxHashMap`/`FxHashSet` aliases
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// `BuildHasher` for [`FxHasher`], usable as the `S` parameter of `HashMap`.
// ppa_lint: allow(test-only-pub) the `S` of the public `FxHashMap`/`FxHashSet` aliases
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the Fx hasher.
///
/// The alias definition is the one place the std map is allowed to appear:
/// it *is* the replacement the rule points everyone at.
// ppa_lint: allow(no-siphash-hot-path)
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with the Fx hasher (the alias definition, as above).
// ppa_lint: allow(no-siphash-hot-path)
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

/// Hashes a single value with the Fx hasher; used for worker partitioning.
#[inline]
pub fn hash_one<T: std::hash::Hash>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash_one(&42u64), hash_one(&42u64));
        assert_ne!(hash_one(&42u64), hash_one(&43u64));
    }

    #[test]
    fn hashmap_works() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m[&1], "one");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn hashes_strings_and_bytes() {
        assert_eq!(hash_one(&"hello"), hash_one(&"hello"));
        assert_ne!(hash_one(&"hello"), hash_one(&"hellp"));
        // Mixed-length byte slices exercise the remainder path.
        assert_ne!(
            hash_one(&[1u8, 2, 3].as_slice()),
            hash_one(&[1u8, 2].as_slice())
        );
    }

    #[test]
    fn distribution_is_reasonable() {
        // Partitioning by hash % workers should not collapse onto one worker.
        let workers = 8usize;
        let mut counts = vec![0usize; workers];
        for id in 0u64..8000 {
            counts[(hash_one(&id) % workers as u64) as usize] += 1;
        }
        for c in counts {
            assert!(c > 500, "partition badly skewed: {c}");
        }
    }
}
