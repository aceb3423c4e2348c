//! Deterministic, non-cryptographic hashing: a fast hasher for
//! integer-keyed interior hash maps, and [`fnv1a`], the checksum every
//! persisted artifact uses.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of nanoseconds
//! per small key, which dominates per-event work in hot import loops whose
//! keys are trusted integers (ids the importer itself assigned). This is
//! an FxHash-style multiply-xor hasher: 1-2 ns per word, identical on
//! every platform and run, so swapping it in never perturbs any
//! determinism gate (no map iteration order is ever observable in
//! output — callers only get/insert).

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (derived from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// FxHash-style word-at-a-time hasher. Not DoS-resistant — use only for
/// keys an attacker cannot choose (internal dense ids, addresses already
/// validated by the importer).
#[derive(Default)]
pub struct FastHasher {
    state: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// FNV-1a 64-bit over a byte string; the checksum primitive of the cached
/// archives, matrix artifacts and corpus store (fast, dependency-free, and
/// stable across platforms — it guards against *staleness*, not
/// adversaries).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `HashMap` with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_std_maps() {
        let mut m: FastMap<(u32, u32), u32> = FastMap::default();
        for i in 0..1000u32 {
            m.insert((i, i.wrapping_mul(3)), i);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, i.wrapping_mul(3))), Some(&i));
        }
        assert_eq!(m.get(&(7, 0)), None);
    }

    #[test]
    fn hashing_is_deterministic() {
        let h = |v: u64| {
            let mut h = FastHasher::default();
            h.write_u64(v);
            h.finish()
        };
        assert_eq!(h(42), h(42));
        assert_ne!(h(42), h(43));
        // Pinned value: the hash must be identical across runs/platforms.
        assert_eq!(h(0), 0);
        assert_ne!(h(1), 0);
    }

    #[test]
    fn byte_stream_equals_word_stream() {
        let mut a = FastHasher::default();
        a.write(&7u64.to_le_bytes());
        let mut b = FastHasher::default();
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());
    }
}
