//! Deterministic, non-cryptographic hashing: a fast hasher for
//! integer-keyed interior hash maps, [`checksum`], the word-at-a-time
//! checksum every cache frame and content key uses (with [`Checksum`], its
//! state over input that arrives in pieces, and [`HashingReader`], which
//! hashes a stream as it is read), and [`fnv1a`], kept for the values an
//! older build persisted and for short fingerprints.
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
use std::io::{self, Read};

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
///
/// This is [`Checksum`] fed `bytes` in one piece, through the same block
/// loop and finalization, without first copying the bytes after the last
/// block into the state.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [P1, P2, P3, P4];
    let rest = absorb_blocks(&mut lanes, bytes);
    finalize(lanes, rest, bytes.len() as u64)
}

/// The running state of [`checksum`] over input that arrives in pieces:
/// after [`Checksum::update`] with each piece in order,
/// [`Checksum::finish`] is the `checksum` of their concatenation, however
/// it was split.
#[derive(Debug)]
pub struct Checksum {
    lanes: [u64; 4],
    /// The bytes after the last whole 32-byte block seen so far.
    tail: [u8; 32],
    tail_len: usize,
    len: u64,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// The state before any input.
    pub fn new() -> Self {
        Self {
            lanes: [P1, P2, P3, P4],
            tail: [0; 32],
            tail_len: 0,
            len: 0,
        }
    }

    /// Feeds the next piece of the input.
    #[inline]
    pub fn update(&mut self, mut bytes: &[u8]) {
        self.len = self.len.wrapping_add(bytes.len() as u64);
        if self.tail_len > 0 {
            let take = bytes.len().min(32 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&bytes[..take]);
            self.tail_len += take;
            bytes = &bytes[take..];
            if self.tail_len < 32 {
                return;
            }
            let block = self.tail;
            absorb_blocks(&mut self.lanes, &block);
            self.tail_len = 0;
        }
        let rest = absorb_blocks(&mut self.lanes, bytes);
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The checksum of everything fed so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        finalize(self.lanes, &self.tail[..self.tail_len], self.len)
    }
}

/// Runs every whole 32-byte block of `bytes` through the lanes (word `i`
/// of a block to lane `i`) and returns the bytes after the last one: the
/// one block loop of [`checksum`].
#[inline]
fn absorb_blocks<'a>(lanes: &mut [u64; 4], bytes: &'a [u8]) -> &'a [u8] {
    let mut l = *lanes;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        let block: &[u8; 32] = block.try_into().unwrap();
        let word = |i: usize| u64::from_le_bytes(block[8 * i..8 * i + 8].try_into().unwrap());
        l = [
            lane_step(l[0], word(0)),
            lane_step(l[1], word(1)),
            lane_step(l[2], word(2)),
            lane_step(l[3], word(3)),
        ];
    }
    *lanes = l;
    blocks.remainder()
}

/// Runs `tail`, the bytes after the last whole block, through the lanes
/// (its word `i` to lane `i`), then folds in the input's length `len` and
/// the lanes: the one finalization of [`checksum`].
#[inline]
fn finalize(mut lanes: [u64; 4], tail: &[u8], len: u64) -> u64 {
    for (lane, word) in lanes.iter_mut().zip(tail.chunks(8)) {
        *lane = lane_step(*lane, tail_word(word));
    }
    let mut h = len.wrapping_mul(P3);
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(P1).rotate_left(27);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// A reader that feeds every byte read through it to a [`Checksum`], so a
/// consumer that decodes a stream and the key of the bytes it decoded
/// come from one read.
#[derive(Debug)]
pub struct HashingReader<R> {
    inner: R,
    sum: Checksum,
}

impl<R: Read> HashingReader<R> {
    /// Wraps `inner`; nothing is read yet.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            sum: Checksum::new(),
        }
    }

    /// Reads `inner` to its end and returns the [`checksum`] of every byte
    /// it yielded, through this reader and here.
    pub fn finish(mut self) -> io::Result<u64> {
        let mut buf = vec![0u8; 64 * 1024];
        loop {
            match self.read(&mut buf) {
                Ok(0) => return Ok(self.sum.finish()),
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.sum.update(&buf[..n]);
        Ok(n)
    }
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

    /// Feeding the input in pieces gives the one-shot value however it is
    /// cut: at every pair of cut points (so with empty pieces, and pieces
    /// that are not multiples of 8 or 32 bytes) over lengths around the
    /// word and block sizes, and one byte at a time.
    #[test]
    fn checksum_state_matches_one_shot_under_every_split() {
        for len in [0, 1, 5, 7, 8, 9, 31, 32, 33, 40, 63, 64, 65, 97] {
            let bytes = pattern(len);
            let want = checksum(&bytes);
            for a in 0..=len {
                for b in a..=len {
                    let mut sum = Checksum::new();
                    sum.update(&bytes[..a]);
                    sum.update(&bytes[a..b]);
                    sum.update(&bytes[b..]);
                    assert_eq!(sum.finish(), want, "length {len}, cut at {a} and {b}");
                }
            }
            let mut sum = Checksum::new();
            for byte in &bytes {
                sum.update(&[]);
                sum.update(std::slice::from_ref(byte));
            }
            assert_eq!(sum.finish(), want, "length {len}, one byte at a time");
        }
    }

    /// A source that yields at most `cap` bytes per read.
    struct Trickle<'a> {
        bytes: &'a [u8],
        cap: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = buf.len().min(self.cap).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    /// The reader's key is the one-shot checksum of its whole input,
    /// whatever its consumer read before [`HashingReader::finish`] drained
    /// the rest, and however short the source's reads are (1 byte
    /// included).
    #[test]
    fn hashing_reader_keys_every_byte_read() {
        let gen = |rng: &mut Rng| {
            let bytes = vec_of(rng, 0..3000, |r| r.next_u64() as u8);
            (
                bytes,
                rng.gen_range(1..80usize),
                rng.gen_range(0..3000usize),
            )
        };
        prop::check(
            "hashing_reader_keys_every_byte_read",
            gen,
            |(bytes, cap, head)| {
                let source = Trickle {
                    bytes,
                    cap: (*cap).max(1),
                };
                let mut reader = HashingReader::new(source);
                let mut consumed = vec![0; (*head).min(bytes.len())];
                reader
                    .read_exact(&mut consumed)
                    .map_err(|e| e.to_string())?;
                prop_assert!(
                    consumed == bytes[..consumed.len()],
                    "bytes pass through unchanged"
                );
                let key = reader.finish().map_err(|e| e.to_string())?;
                prop_assert!(key == checksum(bytes), "key of {} bytes", bytes.len());
                Ok(())
            },
        );
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
