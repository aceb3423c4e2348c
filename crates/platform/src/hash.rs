//! Deterministic, non-cryptographic hashing: a fast hasher for
//! integer-keyed interior hash maps, [`checksum`], the word-at-a-time
//! checksum every cache frame and content key uses, and [`fnv1a`], kept
//! for the values an older build persisted and for short fingerprints.
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
            self.add(tail_word(rest));
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

/// FNV-1a 64-bit over a byte string. At one multiply per byte it is too
/// slow for bulk data, which [`checksum`] hashes; it is the hash where a
/// value an older build wrote must still match (the corpus intent
/// journal's completion witness, the `--cache-dir` archive file name)
/// and for the short canonical strings the filter, derive and group
/// fingerprints hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Odd 64-bit multipliers (the primes of xxHash64).
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// One lane step: xor in the word (itself multiplied by an odd
/// constant), multiply by an odd constant, rotate. For a fixed word every
/// operation is a bijection of the lane, and for a fixed lane the step is
/// injective in the word, so a lane that sees one different word ends
/// different. Premultiplying the word keeps a flipped top bit from
/// surviving the lane multiply as a lone bit that a second flip one block
/// later could cancel.
#[inline(always)]
fn lane_step(lane: u64, word: u64) -> u64 {
    (lane ^ word.wrapping_mul(P2))
        .wrapping_mul(P1)
        .rotate_left(31)
}

/// A word of up to 8 bytes, little-endian, zero-padded. `#[inline]`
/// because `FastHasher::write` inlines into other crates.
#[inline]
fn tail_word(bytes: &[u8]) -> u64 {
    let mut w = [0u8; 8];
    w[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(w)
}

/// The checksum of every cache frame's payload and the content key of
/// every trace and corpus member: fast, dependency-free, stable across
/// platforms, and a guard against staleness and damage, not against
/// adversaries.
///
/// Little-endian u64 word `i` (the last one zero-padded) goes to lane
/// `i % 4`; the four lanes are independent, so they run in parallel at
/// close to memory speed. The length and the lanes are then folded, each
/// through a step that is a bijection in the value folded in, and a
/// final bijective mix spreads every bit. So two inputs of equal length
/// that differ in a single word, and in particular in a single bit,
/// never share a checksum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1, P2, P3, P4];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        let block: &[u8; 32] = block.try_into().unwrap();
        let word = |i: usize| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap());
        lanes = [
            lane_step(lanes[0], word(0)),
            lane_step(lanes[1], word(1)),
            lane_step(lanes[2], word(2)),
            lane_step(lanes[3], word(3)),
        ];
    }
    for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(8)) {
        *lane = lane_step(*lane, tail_word(word));
    }
    let mut h = (bytes.len() as u64).wrapping_mul(P3);
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(P1).rotate_left(27);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// `HashMap` with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// `HashSet` with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{self, vec_of};
    use crate::prop_assert;
    use crate::rng::Rng;

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

    /// The published FNV-1a 64 test vectors: the intent journal's
    /// completion witness must match what an older build wrote.
    #[test]
    fn fnv1a_matches_the_published_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    /// A deterministic byte pattern for the known-answer values.
    fn pattern(n: usize) -> Vec<u8> {
        (0..n)
            .map(|i| (i as u32).wrapping_mul(2_654_435_761).rotate_right(13) as u8)
            .collect()
    }

    /// Every on-disk key and frame checksum is a [`checksum`] value, so
    /// any change to it must be deliberate (and bump every frame
    /// version). The lengths cover the empty input, a partial word, one
    /// word, one byte short of a block, one block, one word into the
    /// tail, and two blocks.
    #[test]
    fn checksum_known_answers() {
        let known = [
            (0, 0x9d93_98c5_b86b_2133),
            (1, 0xdc3e_2e50_37c2_4093),
            (7, 0xf189_496e_e9c0_8bfc),
            (8, 0xec54_adab_6fc0_4472),
            (31, 0x4801_68ef_d877_03cb),
            (32, 0xf7d3_5ec6_cf7e_9d45),
            (33, 0xef84_fb6a_45b8_25e2),
            (64, 0x7269_b3e6_d42a_7d75),
            (1 << 20, 0x50ac_a9c1_c318_487f),
        ];
        for (len, want) in known {
            assert_eq!(checksum(&pattern(len)), want, "length {len}");
        }
    }

    /// The detection contract the artifact frame relies on: over buffers
    /// of 0-1,024 bytes, flipping any one bit, or replacing any one
    /// aligned 8-byte word (the last one may be partial), changes the
    /// checksum.
    #[test]
    fn checksum_detects_every_single_word_change() {
        let gen = |rng: &mut Rng| vec_of(rng, 0..1025, |r| r.next_u64() as u8);
        prop::check("checksum_detects_every_single_word_change", gen, |bytes| {
            let sum = checksum(bytes);
            let mut bad = bytes.clone();
            for i in 0..bad.len() {
                for bit in 0..8 {
                    bad[i] ^= 1 << bit;
                    prop_assert!(checksum(&bad) != sum, "bit {bit} of byte {i} flipped");
                    bad[i] ^= 1 << bit;
                }
            }
            let mut rng = Rng::seed_from_u64(sum);
            for start in (0..bad.len()).step_by(8) {
                let word = &mut bad[start..(start + 8).min(bytes.len())];
                let old = word.to_vec();
                while word == old.as_slice() {
                    word.iter_mut().for_each(|b| *b = rng.next_u64() as u8);
                }
                prop_assert!(checksum(&bad) != sum, "word at byte {start} replaced");
                bad[start..start + old.len()].copy_from_slice(&old);
            }
            Ok(())
        });
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
