//! One checksummed frame for every cache file.
//!
//! ```text
//! magic     [u8; 8]  — names the format
//! version   u32      — bumped on any payload layout or checksum change
//! keys      u64 × n  — what the artifact was derived from (trace
//!                      checksum, filter and config fingerprints, ...)
//! checksum  u64      — hash::checksum over every byte after the header
//! payload   ...
//! ```
//!
//! [`open`] hands back the payload only when the magic, the version and
//! every key match and the checksum verifies, so a stale, foreign, torn
//! or bit-rotted file is a clean miss before a single payload byte is
//! parsed. All integers are little-endian. [`Writer`] and [`Reader`] are
//! the one cursor pair binary payloads are built and parsed with; every
//! length a [`Reader`] accepts is bounded by the bytes left, so a payload
//! that passes the checksum but is still malformed fails, never panics or
//! over-allocates.

use crate::hash::checksum;

/// Frame header length for `n_keys` keys.
fn header_len(n_keys: usize) -> usize {
    8 + 4 + 8 * n_keys + 8
}

/// Builds one framed artifact: the header first, then the payload.
pub struct Writer {
    buf: Vec<u8>,
    header: usize,
}

impl Writer {
    /// Starts a frame, reserving `capacity` payload bytes.
    pub fn new(magic: &[u8; 8], version: u32, keys: &[u64], capacity: usize) -> Self {
        let header = header_len(keys.len());
        let mut w = Writer {
            buf: Vec::with_capacity(header + capacity),
            header,
        };
        w.bytes(magic);
        w.u32(version);
        for &k in keys {
            w.u64(k);
        }
        w.u64(0); // checksum slot, filled by `seal`
        w
    }
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    /// A length prefix (u64).
    #[inline]
    pub fn len(&mut self, n: usize) {
        self.u64(n as u64);
    }
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }
    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.len(s.len());
        self.bytes(s.as_bytes());
    }
    /// Fills in the payload checksum and returns the finished artifact.
    pub fn seal(mut self) -> Vec<u8> {
        let sum = checksum(&self.buf[self.header..]);
        self.buf[self.header - 8..self.header].copy_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Frames an already-encoded payload.
pub fn seal(magic: &[u8; 8], version: u32, keys: &[u64], payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::new(magic, version, keys, payload.len());
    w.bytes(payload);
    w.seal()
}

/// The payload of a frame written with this magic, version and keys, or
/// `None` on any mismatch, a short header, or a failed checksum.
pub fn open<'a>(bytes: &'a [u8], magic: &[u8; 8], version: u32, keys: &[u64]) -> Option<&'a [u8]> {
    let mut r = Reader::new(bytes);
    if r.take(8)? != magic || r.u32()? != version {
        return None;
    }
    for &k in keys {
        if r.u64()? != k {
            return None;
        }
    }
    let sum = r.u64()?;
    (checksum(r.buf) == sum).then_some(r.buf)
}

/// Bounds-checked cursor over a payload; every read returns `None` once
/// the bytes run out.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `payload` (usually what [`open`] returned).
    pub fn new(payload: &'a [u8]) -> Self {
        Reader { buf: payload }
    }
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.buf.len() < n {
            return None;
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Some(head)
    }
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    /// A length prefix of items at least `per_item` bytes each: a count
    /// the remaining bytes cannot back is rejected before any allocation.
    #[inline]
    pub fn len(&mut self, per_item: usize) -> Option<usize> {
        let n = usize::try_from(self.u64()?).ok()?;
        if n.checked_mul(per_item.max(1))? > self.buf.len() {
            return None;
        }
        Some(n)
    }
    /// A length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Option<String> {
        let n = self.len(1)?;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }
    /// True once every payload byte is consumed; a parser that finishes
    /// with bytes left over has read a corrupt payload.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prop::{self, vec_of};
    use crate::{prop_assert, prop_assert_eq};

    /// The frame is the whole clean-miss invariant: a sealed payload
    /// opens, and a single-bit flip at any offset, a truncation at any
    /// offset, one trailing byte, or any key or the version off by one is
    /// a miss.
    #[test]
    fn frame_detects_every_single_fault() {
        let gen = |rng: &mut crate::rng::Rng| {
            (
                rng.next_u64(),
                rng.next_u32(),
                vec_of(rng, 0..5, |r| r.next_u64()),
                vec_of(rng, 0..513, |r| r.next_u64() as u8),
            )
        };
        prop::check("frame_detects_every_single_fault", gen, |input| {
            let (magic, version, keys, payload) = input;
            let magic = magic.to_le_bytes();
            let framed = seal(&magic, *version, keys, payload);
            prop_assert_eq!(framed.len(), header_len(keys.len()) + payload.len());
            prop_assert_eq!(
                open(&framed, &magic, *version, keys),
                Some(payload.as_slice())
            );
            for i in 0..framed.len() {
                for bit in 0..8 {
                    let mut bad = framed.clone();
                    bad[i] ^= 1 << bit;
                    prop_assert!(
                        open(&bad, &magic, *version, keys).is_none(),
                        "bit {bit} of byte {i} flipped"
                    );
                }
                prop_assert!(
                    open(&framed[..i], &magic, *version, keys).is_none(),
                    "truncated at {i}"
                );
            }
            let mut longer = framed.clone();
            longer.push(0);
            prop_assert!(open(&longer, &magic, *version, keys).is_none());
            for v in [version.wrapping_add(1), version.wrapping_sub(1)] {
                prop_assert!(open(&framed, &magic, v, keys).is_none());
            }
            for j in 0..keys.len() {
                for k in [keys[j].wrapping_add(1), keys[j].wrapping_sub(1)] {
                    let mut other = keys.clone();
                    other[j] = k;
                    prop_assert!(open(&framed, &magic, *version, &other).is_none());
                }
            }
            Ok(())
        });
    }

    #[test]
    fn reader_rejects_lengths_the_payload_cannot_back() {
        let mut w = Writer::new(b"TESTFRM\0", 1, &[], 0);
        w.len(3);
        w.u32(7);
        w.str("ok");
        let framed = w.seal();
        let mut r = Reader::new(open(&framed, b"TESTFRM\0", 1, &[]).unwrap());
        assert_eq!(r.len(5), None, "3 items of 5 bytes need 15, 14 are left");
        let mut r = Reader::new(open(&framed, b"TESTFRM\0", 1, &[]).unwrap());
        assert_eq!(r.len(1), Some(3));
        assert_eq!(r.u32(), Some(7));
        assert_eq!(r.str().as_deref(), Some("ok"));
        assert!(r.is_empty());
        assert_eq!(r.u8(), None);
    }
}
