//! The `LDOC1` binary trace container: the one trace encoding.
//!
//! The paper's tracing phase writes one binary event log from the VM and
//! post-processing exports CSV tables for the MariaDB import (Sec. 6).
//! Here the log is a self-describing container with LEB128-style varints;
//! the table export is [`crate::db::TraceDb::export_csv_tables`], which
//! escapes its fields with [`write_csv_field`].

use crate::event::{
    AccessKind, AcquireMode, ContextKind, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc,
    Trace, TraceEvent, TraceMeta,
};
use crate::ids::{AllocId, DataTypeId, FnId, Interner, Sym, TaskId};
use std::fmt;
use std::io::{self, Read, Write};

/// Magic bytes identifying a LockDoc binary trace.
pub const MAGIC: &[u8; 5] = b"LDOC1";

/// Errors produced while encoding or decoding a trace.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input does not start with [`MAGIC`].
    BadMagic,
    /// An unknown tag byte was encountered.
    BadTag(u8),
    /// A varint exceeded its maximum width: 64 bits, or 32 for a `u32`
    /// field.
    VarintOverflow,
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// A trace to be encoded has a timestamp older than its predecessor;
    /// the delta codec cannot represent time travel.
    NonMonotonic {
        /// Index of the offending event.
        event_index: usize,
        /// Its timestamp.
        ts: u64,
        /// The (larger) timestamp of the preceding event.
        prev_ts: u64,
    },
    /// A count field (string/type/member/function/task table sizes, event
    /// count) does not fit in `usize` on this target. On 32-bit hosts a
    /// >4G count used to wrap silently; it now fails typed.
    CountOverflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic => write!(f, "not a LockDoc trace (bad magic)"),
            CodecError::BadTag(t) => write!(f, "unknown tag byte 0x{t:02x}"),
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string payload"),
            CodecError::NonMonotonic {
                event_index,
                ts,
                prev_ts,
            } => write!(
                f,
                "non-monotonic timestamp at event {event_index}: {ts} after {prev_ts}"
            ),
            CodecError::CountOverflow => {
                write!(f, "count does not fit in usize on this target")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// Result alias for codec operations.
pub type Result<T> = std::result::Result<T, CodecError>;

pub(crate) fn write_varint<W: Write>(w: &mut W, mut v: u64) -> Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            w.write_all(&[byte])?;
            return Ok(());
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        let byte = buf[0];
        if shift >= 64 {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Reads a table/event count, rejecting values that do not fit in `usize`
/// on the current target instead of truncating them with `as`.
fn read_count<R: Read>(r: &mut R) -> Result<usize> {
    usize::try_from(read_varint(r)?).map_err(|_| CodecError::CountOverflow)
}

/// Reads a varint into a `u32` field (symbols, ids, sizes, offsets, line
/// numbers), rejecting wider values instead of truncating them with `as`.
fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    u32::try_from(read_varint(r)?).map_err(|_| CodecError::VarintOverflow)
}

fn write_str<W: Write>(w: &mut W, s: &str) -> Result<()> {
    write_varint(w, s.len() as u64)?;
    w.write_all(s.as_bytes())?;
    Ok(())
}

fn read_str<R: Read>(r: &mut R) -> Result<String> {
    let len = read_varint(r)?;
    // Guard against corrupted length prefixes: grow the buffer as bytes
    // actually arrive instead of pre-allocating an attacker-chosen size.
    let mut buf = Vec::new();
    let n = r.take(len).read_to_end(&mut buf)?;
    if n as u64 != len {
        return Err(CodecError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "truncated string payload",
        )));
    }
    String::from_utf8(buf).map_err(|_| CodecError::BadUtf8)
}

fn write_bool<W: Write>(w: &mut W, b: bool) -> Result<()> {
    w.write_all(&[u8::from(b)])?;
    Ok(())
}

fn read_bool<R: Read>(r: &mut R) -> Result<bool> {
    let mut buf = [0u8; 1];
    r.read_exact(&mut buf)?;
    Ok(buf[0] != 0)
}

fn write_loc<W: Write>(w: &mut W, loc: SourceLoc) -> Result<()> {
    write_varint(w, u64::from(loc.file.0))?;
    write_varint(w, u64::from(loc.line))?;
    Ok(())
}

fn read_loc<R: Read>(r: &mut R) -> Result<SourceLoc> {
    let file = Sym(read_u32(r)?);
    let line = read_u32(r)?;
    Ok(SourceLoc { file, line })
}

pub(crate) fn write_meta<W: Write>(w: &mut W, meta: &TraceMeta) -> Result<()> {
    write_varint(w, meta.strings.len() as u64)?;
    for (_, s) in meta.strings.iter() {
        write_str(w, s)?;
    }
    write_varint(w, meta.data_types.len() as u64)?;
    for dt in &meta.data_types {
        write_str(w, &dt.name)?;
        write_varint(w, u64::from(dt.size))?;
        write_varint(w, dt.members.len() as u64)?;
        for m in &dt.members {
            write_str(w, &m.name)?;
            write_varint(w, u64::from(m.offset))?;
            write_varint(w, u64::from(m.size))?;
            write_bool(w, m.atomic)?;
            write_bool(w, m.is_lock)?;
        }
    }
    write_varint(w, meta.functions.len() as u64)?;
    for f in &meta.functions {
        write_str(w, f)?;
    }
    write_varint(w, meta.tasks.len() as u64)?;
    for t in &meta.tasks {
        write_str(w, t)?;
    }
    Ok(())
}

/// Default refill granularity of [`ChunkedDecoder`]; also the compaction
/// threshold for its consumed prefix.
const DEFAULT_CHUNK: usize = 64 * 1024;

/// Whether a decode failure only means "ran off the end of the currently
/// buffered bytes" — the chunked decoder refills and retries on these.
/// Within buffered data every `read_exact`/`take` exhaustion maps to
/// `ErrorKind::UnexpectedEof`, so the check is exact.
fn is_buffer_eof(e: &CodecError) -> bool {
    matches!(e, CodecError::Io(io) if io.kind() == io::ErrorKind::UnexpectedEof)
}

/// Incremental decoder over any [`Read`] source.
///
/// Bytes are pulled in `chunk`-sized refills and parsed out of an internal
/// buffer. A parse that runs off the buffered end is retried after a
/// refill, so every parser sees exactly the bytes a whole-slice decode
/// would — the chunked and slice paths are behaviorally identical,
/// including on corrupted input (the salvage resync scan probes the same
/// offsets with the same outcomes). The consumed prefix is dropped as
/// decoding goes, the resync scan drops what lies below its next probe,
/// and counting the rest of the input drops what it counts, so peak
/// memory is bounded by the largest single record (or resync probe) plus
/// one chunk rather than the file size, even over a damaged tail.
struct ChunkedDecoder<R> {
    src: R,
    chunk: usize,
    buf: Vec<u8>,
    /// Consumed prefix of `buf`.
    pos: usize,
    /// Absolute input offset of `buf[0]`.
    base: u64,
    /// The source reported end-of-input.
    eof: bool,
}

impl<R: Read> ChunkedDecoder<R> {
    fn new(src: R, chunk: usize) -> Self {
        Self {
            src,
            chunk: chunk.max(1),
            buf: Vec::new(),
            pos: 0,
            base: 0,
            eof: false,
        }
    }

    /// Pulls up to one more chunk from the source (sets `eof` on an empty
    /// read). The bytes land in the buffer's spare capacity, which
    /// `read_to_end` lends the source without zero-filling it first.
    fn fill(&mut self) -> Result<()> {
        let old = self.buf.len();
        self.buf.reserve(self.chunk);
        match (&mut self.src)
            .take(self.chunk as u64)
            .read_to_end(&mut self.buf)
        {
            Ok(0) => self.eof = true,
            Ok(_) => {}
            Err(e) => {
                self.buf.truncate(old);
                return Err(e.into());
            }
        }
        Ok(())
    }

    /// Drops the consumed prefix once it exceeds one chunk.
    fn maybe_compact(&mut self) {
        if self.pos >= self.chunk {
            self.buf.drain(..self.pos);
            self.base += self.pos as u64;
            self.pos = 0;
        }
    }

    /// Drops the buffered bytes below index `at`, which nothing reads
    /// again; offsets stay absolute.
    fn discard(&mut self, at: usize) {
        self.buf.drain(..at);
        self.base += at as u64;
        self.pos = self.pos.saturating_sub(at);
    }

    /// Absolute input offset of the next unconsumed byte.
    fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    /// Runs a slice parser over the buffered tail, refilling and retrying
    /// when it runs out of buffered bytes before the true end of input.
    fn decode<T>(&mut self, mut f: impl FnMut(&mut &[u8]) -> Result<T>) -> Result<T> {
        loop {
            let mut s = &self.buf[self.pos..];
            let before = s.len();
            match f(&mut s) {
                Ok(v) => {
                    self.pos += before - s.len();
                    return Ok(v);
                }
                Err(e) if !self.eof && is_buffer_eof(&e) => self.fill()?,
                Err(e) => return Err(e),
            }
        }
    }

    /// Whether any unconsumed input remains (refills as needed to know).
    fn has_data(&mut self) -> Result<bool> {
        while self.pos == self.buf.len() && !self.eof {
            self.fill()?;
        }
        Ok(self.pos < self.buf.len())
    }

    /// Consumes the source to its end and returns how many bytes were
    /// left past the current position. Counted bytes are dropped at once,
    /// so a long tail costs one chunk of memory.
    fn count_remaining(&mut self) -> Result<u64> {
        let start = self.offset();
        loop {
            let len = self.buf.len();
            self.discard(len);
            if self.eof {
                return Ok(self.base - start);
            }
            self.fill()?;
        }
    }
}

fn read_magic(r: &mut &[u8]) -> Result<()> {
    let mut magic = [0u8; 5];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    Ok(())
}

/// Decodes the metadata tables piecewise, so a refill mid-table retries
/// only the item that straddled the chunk boundary.
fn read_meta<R: Read>(d: &mut ChunkedDecoder<R>) -> Result<TraceMeta> {
    let mut strings = Interner::new();
    let nstr = d.decode(|r| read_count(r))?;
    for _ in 0..nstr {
        let s = d.decode(|r| read_str(r))?;
        strings.intern(&s);
        d.maybe_compact();
    }
    let ndt = d.decode(|r| read_count(r))?;
    let mut data_types = Vec::with_capacity(ndt.min(1 << 12));
    for _ in 0..ndt {
        let name = d.decode(|r| read_str(r))?;
        let size = d.decode(|r| read_u32(r))?;
        let nmem = d.decode(|r| read_count(r))?;
        let mut members = Vec::with_capacity(nmem.min(1 << 12));
        for _ in 0..nmem {
            members.push(d.decode(|r| {
                Ok(MemberDef {
                    name: read_str(r)?,
                    offset: read_u32(r)?,
                    size: read_u32(r)?,
                    atomic: read_bool(r)?,
                    is_lock: read_bool(r)?,
                })
            })?);
            d.maybe_compact();
        }
        data_types.push(DataTypeDef {
            name,
            size,
            members,
        });
    }
    let nfn = d.decode(|r| read_count(r))?;
    let mut functions = Vec::with_capacity(nfn.min(1 << 12));
    for _ in 0..nfn {
        functions.push(d.decode(|r| read_str(r))?);
        d.maybe_compact();
    }
    let ntask = d.decode(|r| read_count(r))?;
    let mut tasks = Vec::with_capacity(ntask.min(1 << 12));
    for _ in 0..ntask {
        tasks.push(d.decode(|r| read_str(r))?);
        d.maybe_compact();
    }
    Ok(TraceMeta {
        strings,
        data_types,
        functions,
        tasks,
    })
}

const TAG_LOCK_INIT: u8 = 1;
const TAG_ALLOC: u8 = 2;
const TAG_FREE: u8 = 3;
const TAG_ACQUIRE: u8 = 4;
const TAG_RELEASE: u8 = 5;
const TAG_ACCESS: u8 = 6;
const TAG_FN_ENTER: u8 = 7;
const TAG_FN_EXIT: u8 = 8;
const TAG_TASK_SWITCH: u8 = 9;
const TAG_CTX_ENTER: u8 = 10;
const TAG_CTX_EXIT: u8 = 11;

pub(crate) fn write_event<W: Write>(w: &mut W, e: &Event) -> Result<()> {
    match e {
        Event::LockInit {
            addr,
            name,
            flavor,
            is_static,
        } => {
            w.write_all(&[TAG_LOCK_INIT])?;
            write_varint(w, *addr)?;
            write_varint(w, u64::from(name.0))?;
            w.write_all(&[flavor.tag()])?;
            write_bool(w, *is_static)?;
        }
        Event::Alloc {
            id,
            addr,
            size,
            data_type,
            subclass,
        } => {
            w.write_all(&[TAG_ALLOC])?;
            write_varint(w, id.0)?;
            write_varint(w, *addr)?;
            write_varint(w, u64::from(*size))?;
            write_varint(w, u64::from(data_type.0))?;
            match subclass {
                Some(s) => {
                    write_bool(w, true)?;
                    write_varint(w, u64::from(s.0))?;
                }
                None => write_bool(w, false)?,
            }
        }
        Event::Free { id } => {
            w.write_all(&[TAG_FREE])?;
            write_varint(w, id.0)?;
        }
        Event::LockAcquire { addr, mode, loc } => {
            w.write_all(&[TAG_ACQUIRE])?;
            write_varint(w, *addr)?;
            write_bool(w, matches!(mode, AcquireMode::Exclusive))?;
            write_loc(w, *loc)?;
        }
        Event::LockRelease { addr, loc } => {
            w.write_all(&[TAG_RELEASE])?;
            write_varint(w, *addr)?;
            write_loc(w, *loc)?;
        }
        Event::MemAccess {
            kind,
            addr,
            size,
            loc,
            atomic,
        } => {
            w.write_all(&[TAG_ACCESS])?;
            write_bool(w, matches!(kind, AccessKind::Write))?;
            write_varint(w, *addr)?;
            w.write_all(&[*size])?;
            write_loc(w, *loc)?;
            write_bool(w, *atomic)?;
        }
        Event::FnEnter { func } => {
            w.write_all(&[TAG_FN_ENTER])?;
            write_varint(w, u64::from(func.0))?;
        }
        Event::FnExit { func } => {
            w.write_all(&[TAG_FN_EXIT])?;
            write_varint(w, u64::from(func.0))?;
        }
        Event::TaskSwitch { task } => {
            w.write_all(&[TAG_TASK_SWITCH])?;
            write_varint(w, u64::from(task.0))?;
        }
        Event::ContextEnter { kind } => {
            w.write_all(&[TAG_CTX_ENTER, kind.tag()])?;
        }
        Event::ContextExit { kind } => {
            w.write_all(&[TAG_CTX_EXIT, kind.tag()])?;
        }
    }
    Ok(())
}

fn read_event<R: Read>(r: &mut R) -> Result<Event> {
    let mut tag = [0u8; 1];
    r.read_exact(&mut tag)?;
    Ok(match tag[0] {
        TAG_LOCK_INIT => {
            let addr = read_varint(r)?;
            let name = Sym(read_u32(r)?);
            let mut fl = [0u8; 1];
            r.read_exact(&mut fl)?;
            let flavor = LockFlavor::from_tag(fl[0]).ok_or(CodecError::BadTag(fl[0]))?;
            let is_static = read_bool(r)?;
            Event::LockInit {
                addr,
                name,
                flavor,
                is_static,
            }
        }
        TAG_ALLOC => {
            let id = AllocId(read_varint(r)?);
            let addr = read_varint(r)?;
            let size = read_u32(r)?;
            let data_type = DataTypeId(read_u32(r)?);
            let subclass = if read_bool(r)? {
                Some(Sym(read_u32(r)?))
            } else {
                None
            };
            Event::Alloc {
                id,
                addr,
                size,
                data_type,
                subclass,
            }
        }
        TAG_FREE => Event::Free {
            id: AllocId(read_varint(r)?),
        },
        TAG_ACQUIRE => {
            let addr = read_varint(r)?;
            let mode = if read_bool(r)? {
                AcquireMode::Exclusive
            } else {
                AcquireMode::Shared
            };
            let loc = read_loc(r)?;
            Event::LockAcquire { addr, mode, loc }
        }
        TAG_RELEASE => {
            let addr = read_varint(r)?;
            let loc = read_loc(r)?;
            Event::LockRelease { addr, loc }
        }
        TAG_ACCESS => {
            let kind = if read_bool(r)? {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            let addr = read_varint(r)?;
            let mut sz = [0u8; 1];
            r.read_exact(&mut sz)?;
            let loc = read_loc(r)?;
            let atomic = read_bool(r)?;
            Event::MemAccess {
                kind,
                addr,
                size: sz[0],
                loc,
                atomic,
            }
        }
        TAG_FN_ENTER => Event::FnEnter {
            func: FnId(read_u32(r)?),
        },
        TAG_FN_EXIT => Event::FnExit {
            func: FnId(read_u32(r)?),
        },
        TAG_TASK_SWITCH => Event::TaskSwitch {
            task: TaskId(read_u32(r)?),
        },
        TAG_CTX_ENTER => {
            let mut k = [0u8; 1];
            r.read_exact(&mut k)?;
            Event::ContextEnter {
                kind: ContextKind::from_tag(k[0]).ok_or(CodecError::BadTag(k[0]))?,
            }
        }
        TAG_CTX_EXIT => {
            let mut k = [0u8; 1];
            r.read_exact(&mut k)?;
            Event::ContextExit {
                kind: ContextKind::from_tag(k[0]).ok_or(CodecError::BadTag(k[0]))?,
            }
        }
        other => return Err(CodecError::BadTag(other)),
    })
}

/// Serializes a trace to the binary `LDOC1` container.
///
/// # Examples
///
/// ```
/// use lockdoc_trace::codec::{write_trace, read_trace};
/// use lockdoc_trace::event::Trace;
///
/// let trace = Trace::new();
/// let mut buf = Vec::new();
/// write_trace(&trace, &mut buf).unwrap();
/// let back = read_trace(&mut buf.as_slice()).unwrap();
/// assert_eq!(trace, back);
/// ```
pub fn write_trace<W: Write>(trace: &Trace, w: &mut W) -> Result<()> {
    w.write_all(MAGIC)?;
    write_meta(w, &trace.meta)?;
    write_varint(w, trace.events.len() as u64)?;
    let mut last_ts = 0u64;
    for (i, te) in trace.events.iter().enumerate() {
        // Delta-encode timestamps. Traces built through `Trace::push` are
        // monotonic, but traces can also be assembled by hand — time
        // travel must fail typed, not overflow the delta.
        let delta = te.ts.checked_sub(last_ts).ok_or(CodecError::NonMonotonic {
            event_index: i,
            ts: te.ts,
            prev_ts: last_ts,
        })?;
        write_varint(w, delta)?;
        last_ts = te.ts;
        write_event(w, &te.event)?;
    }
    Ok(())
}

/// What a [`TraceReader`] does when an event record fails to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecodePolicy {
    /// Yield the error and stop.
    Strict,
    /// Skip to the next offset where a whole record decodes, note the
    /// failure in the reader's [`SalvageReport`], and go on. Input that
    /// ends before the announced event count ends the stream instead of
    /// failing it.
    Salvage,
}

/// Streaming `LDOC1` reader: decodes the header eagerly and then yields
/// events one at a time, holding at most one chunk of input in memory.
///
/// This is the one decode loop for `LDOC1`: the streaming import and
/// screening pass ([`crate::db::ingest`]), [`read_trace`] and
/// [`read_trace_salvage`] all run it. By default a
/// record that fails to decode ends the stream with its error; the salvage
/// policy resyncs past it instead. Decoding is byte-equivalent to decoding
/// from a whole in-memory slice at any chunk size, under either policy.
///
/// The reader may pull bytes from the source past the end of the
/// container (it refills in whole chunks); don't interleave other reads
/// on the same source.
pub struct TraceReader<R: Read> {
    d: ChunkedDecoder<R>,
    meta: std::sync::Arc<TraceMeta>,
    policy: DecodePolicy,
    expected: usize,
    read: usize,
    ts: u64,
    /// Set once an error was yielded or the input ran out.
    done: bool,
    /// The failures the salvage policy skipped; empty under the strict one.
    report: SalvageReport,
}

impl<R: Read> TraceReader<R> {
    /// Opens a container and decodes its header (magic + metadata tables +
    /// event count). Fails with the same errors [`read_trace`] would.
    pub fn new(src: R) -> Result<Self> {
        Self::with_chunk_size(src, DEFAULT_CHUNK)
    }

    /// As [`TraceReader::new`] with an explicit refill granularity
    /// (clamped to at least 1; mainly for boundary-straddling tests).
    pub fn with_chunk_size(src: R, chunk: usize) -> Result<Self> {
        let mut d = ChunkedDecoder::new(src, chunk);
        d.decode(read_magic)?;
        let meta = read_meta(&mut d)?;
        let expected = d.decode(|r| read_count(r))?;
        Ok(Self {
            d,
            meta: std::sync::Arc::new(meta),
            policy: DecodePolicy::Strict,
            expected,
            read: 0,
            ts: 0,
            done: false,
            report: SalvageReport::default(),
        })
    }

    /// Sets what happens when an event record fails to decode.
    pub(crate) fn with_policy(mut self, policy: DecodePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The decoded metadata tables (shared, not copied).
    pub fn meta(&self) -> &std::sync::Arc<TraceMeta> {
        &self.meta
    }

    /// Event count announced by the container header.
    pub fn expected_events(&self) -> usize {
        self.expected
    }

    /// Decodes the next event, or `None` once the announced count is
    /// reached. After an error the reader is fused and yields `None`.
    #[allow(clippy::should_implement_trait)]
    pub fn next_event(&mut self) -> Option<Result<TraceEvent>> {
        while !self.done && self.read < self.expected {
            match self.d.decode(read_record) {
                Ok((delta, event)) => {
                    self.read += 1;
                    // Saturate rather than wrap: an adversarial delta must not
                    // trip the debug overflow check, and a saturated stream
                    // stays monotone.
                    self.ts = self.ts.saturating_add(delta);
                    self.d.maybe_compact();
                    return Some(Ok(TraceEvent { ts: self.ts, event }));
                }
                Err(e) => {
                    if let Err(e) = self.on_bad_record(e) {
                        self.done = true;
                        return Some(Err(e));
                    }
                }
            }
        }
        None
    }

    /// Applies the policy to the record at the current offset, which failed
    /// to decode with `error`. Strict passes the error on. Salvage ends the
    /// stream at the end of input; otherwise it records the failure and
    /// moves to the first later offset where a whole record decodes — the
    /// best guess for the next record boundary — or to the end of input
    /// when none does. Kept out of `next_event` so the per-record path is
    /// as short as a plain decode loop.
    #[cold]
    fn on_bad_record(&mut self, error: CodecError) -> Result<()> {
        if self.policy == DecodePolicy::Strict {
            return Err(error);
        }
        let d = &mut self.d;
        if !d.has_data()? {
            self.report.truncated = true;
            self.done = true;
            return Ok(());
        }
        let start = d.offset();
        // A probe that runs off the *true* end of input fails its offset;
        // one that merely runs off the buffered bytes is retried with more
        // data, so every chunk size probes the same offsets.
        let mut off = d.pos + 1;
        let resumed_at = 'scan: loop {
            while off < d.buf.len() {
                match read_record(&mut &d.buf[off..]) {
                    Ok(_) => break 'scan Some(d.base + off as u64),
                    Err(e) if !d.eof && is_buffer_eof(&e) => break,
                    Err(_) => off += 1,
                }
            }
            if d.eof {
                break None;
            }
            // Every offset below the next probe has failed: drop it.
            d.discard(off);
            off = 0;
            d.fill()?;
        };
        let report = &mut self.report;
        report.failures += 1;
        if report.diags.len() < MAX_SALVAGE_DIAGS {
            report.diags.push(SalvageDiag {
                event_index: self.read as u64,
                offset: start,
                error: error.to_string(),
                resumed_at,
            });
        }
        match resumed_at {
            Some(at) => {
                report.bytes_skipped += at - start;
                d.pos = (at - d.base) as usize;
            }
            None => {
                // No later record decodes; everything from the failure
                // point on was skipped.
                d.count_remaining()?;
                report.bytes_skipped += d.offset() - start;
                report.truncated = true;
                self.done = true;
            }
        }
        Ok(())
    }

    /// Completes the [`SalvageReport`] once `next_event` has returned
    /// `None`: the announced and recovered event counts, and the bytes
    /// left past the last record (read to the end of the source).
    pub(crate) fn finish(mut self) -> Result<SalvageReport> {
        self.report.expected_events = self.expected as u64;
        self.report.recovered_events = self.read as u64;
        self.report.trailing_bytes = self.d.count_remaining()?;
        Ok(self.report)
    }
}

/// Runs `reader` to its end, materializing the events it yields.
fn read_to_end<R: Read>(mut reader: TraceReader<R>) -> Result<(Trace, TraceReader<R>)> {
    // Pre-allocate conservatively; a corrupted count must not OOM us.
    let mut events = Vec::with_capacity(reader.expected_events().min(1 << 16));
    while let Some(ev) = reader.next_event() {
        events.push(ev?);
    }
    let meta = std::sync::Arc::clone(reader.meta());
    Ok((Trace { meta, events }, reader))
}

/// Deserializes a trace from the binary `LDOC1` container.
///
/// Decodes through the chunked [`TraceReader`], so arbitrarily large
/// containers never buffer more than one chunk of undecoded input (the
/// decoded events still materialize in memory; use [`TraceReader`]
/// directly to avoid even that).
pub fn read_trace<R: Read>(r: &mut R) -> Result<Trace> {
    Ok(read_to_end(TraceReader::new(r)?)?.0)
}

/// One decode failure skipped by [`read_trace_salvage`].
#[derive(Debug, Clone, PartialEq)]
pub struct SalvageDiag {
    /// Index the failed record would have had in the recovered stream.
    pub event_index: u64,
    /// Byte offset (from the start of the container) where decoding failed.
    pub offset: u64,
    /// The decode error, rendered.
    pub error: String,
    /// Byte offset where a full record decoded again, or `None` when the
    /// rest of the input held no further decodable record.
    pub resumed_at: Option<u64>,
}

/// Structured diagnostics produced alongside the partial trace by
/// [`read_trace_salvage`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SalvageReport {
    /// Event count announced by the container header.
    pub expected_events: u64,
    /// Events actually recovered.
    pub recovered_events: u64,
    /// Bytes skipped while hunting for the next decodable record.
    pub bytes_skipped: u64,
    /// Bytes left over after the announced event count was satisfied.
    pub trailing_bytes: u64,
    /// The input ended before the announced event count was reached.
    pub truncated: bool,
    /// Total number of decode failures (exact even when `diags` is capped).
    pub failures: u64,
    /// Per-failure diagnostics, capped at [`MAX_SALVAGE_DIAGS`] entries.
    pub diags: Vec<SalvageDiag>,
}

impl SalvageReport {
    /// True when the stream decoded with no anomalies at all — the
    /// recovered trace is then bit-for-bit what [`read_trace`] returns.
    pub fn is_clean(&self) -> bool {
        self.failures == 0 && !self.truncated && self.trailing_bytes == 0
    }
}

/// Cap on stored [`SalvageReport::diags`] entries; the `failures` counter
/// keeps counting past the cap.
pub const MAX_SALVAGE_DIAGS: usize = 64;

/// Reads one event record (delta varint + tagged event payload).
fn read_record(r: &mut &[u8]) -> Result<(u64, Event)> {
    let delta = read_varint(r)?;
    let event = read_event(r)?;
    Ok((delta, event))
}

/// Best-effort decoder for damaged `LDOC1` containers: a [`TraceReader`]
/// under the salvage policy, run to the end.
///
/// The header (magic, metadata tables, event count) is all-or-nothing: the
/// metadata is the symbol table every event refers to, so a trace whose
/// header does not decode is unreadable and this returns the same error
/// [`read_trace`] would. The event stream, however, is salvaged record by
/// record: on a decode failure the reader scans forward byte by byte until
/// a whole record decodes again, notes what it skipped in the
/// [`SalvageReport`], and keeps going. On a clean input the recovered
/// trace is exactly the [`read_trace`] result and
/// [`SalvageReport::is_clean`] holds — salvage never perturbs good data.
pub fn read_trace_salvage(bytes: &[u8]) -> Result<(Trace, SalvageReport)> {
    let reader = TraceReader::new(bytes)?.with_policy(DecodePolicy::Salvage);
    let (trace, reader) = read_to_end(reader)?;
    Ok((trace, reader.finish()?))
}

/// Appends one CSV field to `out`, escaped per RFC 4180: fields containing
/// a comma, a double quote, or a line break are wrapped in double quotes
/// with inner quotes doubled. Everything else passes through unchanged, so
/// numeric columns stay byte-identical.
pub fn write_csv_field(out: &mut String, s: &str) {
    if s.contains(['"', ',', '\n', '\r']) {
        out.push('"');
        for c in s.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
    } else {
        out.push_str(s);
    }
}

/// Parses RFC-4180 CSV text into rows of unescaped fields: the test oracle
/// for [`write_csv_field`]. Quoted fields may contain commas, doubled
/// quotes, and line breaks; `\r\n`, `\n` and a lone `\r` terminate
/// records. The final record needs no trailing newline.
#[cfg(test)]
pub(crate) fn parse_csv(text: &str) -> std::result::Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    // A record boundary only exists after at least one field character,
    // separator, or quote — so a trailing newline adds no empty record.
    let mut pending = false;
    while let Some(c) = chars.next() {
        match c {
            '"' => {
                if !field.is_empty() {
                    return Err("quote inside unquoted field".to_owned());
                }
                pending = true;
                loop {
                    match chars.next() {
                        None => return Err("unterminated quoted field".to_owned()),
                        Some('"') => match chars.peek() {
                            Some('"') => {
                                chars.next();
                                field.push('"');
                            }
                            _ => break,
                        },
                        Some(inner) => field.push(inner),
                    }
                }
                match chars.peek() {
                    None | Some(',') | Some('\n') | Some('\r') => {}
                    Some(_) => return Err("data after closing quote".to_owned()),
                }
            }
            ',' => {
                row.push(std::mem::take(&mut field));
                pending = true;
            }
            '\n' | '\r' => {
                if c == '\r' && chars.peek() == Some(&'\n') {
                    chars.next();
                }
                if pending || !field.is_empty() {
                    row.push(std::mem::take(&mut field));
                    rows.push(std::mem::take(&mut row));
                }
                pending = false;
            }
            other => {
                field.push(other);
                pending = true;
            }
        }
    }
    if pending || !field.is_empty() {
        row.push(field);
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DataTypeDef, MemberDef};

    fn sample_trace() -> Trace {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("fs/inode.c");
        let name = tr.meta_mut().strings.intern("i_lock");
        let sub = tr.meta_mut().strings.intern("ext4");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "inode".into(),
            size: 64,
            members: vec![MemberDef {
                name: "i_state".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let f = tr.meta_mut().add_function("iget_locked");
        let t = tr.meta_mut().add_task("fsstress");
        tr.push(
            0,
            Event::LockInit {
                addr: 0x2000,
                name,
                flavor: LockFlavor::Spinlock,
                is_static: false,
            },
        );
        tr.push(
            1,
            Event::Alloc {
                id: AllocId(7),
                addr: 0x1000,
                size: 64,
                data_type: dt,
                subclass: Some(sub),
            },
        );
        tr.push(2, Event::TaskSwitch { task: t });
        tr.push(3, Event::FnEnter { func: f });
        tr.push(
            4,
            Event::LockAcquire {
                addr: 0x2000,
                mode: AcquireMode::Exclusive,
                loc: SourceLoc::new(file, 42),
            },
        );
        tr.push(
            5,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1004,
                size: 4,
                loc: SourceLoc::new(file, 43),
                atomic: false,
            },
        );
        tr.push(
            6,
            Event::LockRelease {
                addr: 0x2000,
                loc: SourceLoc::new(file, 44),
            },
        );
        tr.push(7, Event::FnExit { func: f });
        tr.push(
            8,
            Event::ContextEnter {
                kind: ContextKind::Hardirq,
            },
        );
        tr.push(
            9,
            Event::ContextExit {
                kind: ContextKind::Hardirq,
            },
        );
        tr.push(10, Event::Free { id: AllocId(7) });
        tr
    }

    #[test]
    fn binary_round_trip() {
        let tr = sample_trace();
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        let back = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(tr, back);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&mut &b"NOPE!"[..]).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic));
    }

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_is_an_io_error() {
        let tr = sample_trace();
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)));
    }

    fn csv_field(s: &str) -> String {
        let mut out = String::new();
        write_csv_field(&mut out, s);
        out
    }

    #[test]
    fn csv_field_escapes_rfc4180() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
        assert_eq!(csv_field(""), "");
    }

    #[test]
    fn parse_csv_handles_quotes_commas_newlines() {
        let rows = parse_csv("a,\"b,c\",\"d\"\"e\",\"f\ng\"\nh,,\n").unwrap();
        assert_eq!(
            rows,
            vec![
                vec!["a".to_owned(), "b,c".into(), "d\"e".into(), "f\ng".into()],
                vec!["h".to_owned(), String::new(), String::new()],
            ]
        );
        // CRLF record separators and a missing trailing newline.
        let rows = parse_csv("a,b\r\nc,d").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1], vec!["c".to_owned(), "d".into()]);
        // Malformed inputs are rejected, not mangled.
        assert!(parse_csv("ab\"c,d").is_err());
        assert!(parse_csv("\"unterminated").is_err());
        assert!(parse_csv("\"ab\"c").is_err());
    }

    /// Any list of arbitrary strings — commas, quotes, newlines and all —
    /// must survive escape → join → parse unchanged.
    #[test]
    fn prop_csv_fields_round_trip() {
        use lockdoc_platform::prop::{check_with, vec_of, Config};
        use lockdoc_platform::rng::Rng;
        let nasty = |r: &mut Rng| -> String {
            vec_of(r, 0..12, |r| match r.gen_range(0u64..6) {
                0 => ',',
                1 => '"',
                2 => '\n',
                3 => '\r',
                _ => r.gen_range(0x20u8..0x7f) as char,
            })
            .into_iter()
            .collect()
        };
        let cfg = Config {
            cases: 200,
            ..Config::default()
        };
        check_with(
            &cfg,
            "prop_csv_fields_round_trip",
            |r| vec_of(r, 1..8, nasty),
            |fields: &Vec<String>| {
                let line: String = fields
                    .iter()
                    .map(|f| csv_field(f))
                    .collect::<Vec<_>>()
                    .join(",");
                let rows = parse_csv(&line)?;
                // A record of all-empty fields vanishes only when the line
                // itself is empty; otherwise exactly one record comes back.
                if line.is_empty() {
                    lockdoc_platform::prop_assert!(
                        rows.is_empty() || rows == vec![vec![String::new()]]
                    );
                    return Ok(());
                }
                lockdoc_platform::prop_assert_eq!(rows.len(), 1, "one record expected");
                lockdoc_platform::prop_assert_eq!(&rows[0], fields);
                Ok(())
            },
        );
    }

    /// A string length prefix claiming far more bytes than the input holds
    /// must fail with a bounded-allocation EOF error, never an OOM. This
    /// pins the `read_str` grow-as-bytes-arrive guard.
    #[test]
    fn huge_string_length_prefix_fails_without_alloc() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        // Meta: one string whose length prefix claims ~2^48 bytes.
        write_varint(&mut buf, 1).unwrap();
        write_varint(&mut buf, 1 << 48).unwrap();
        buf.extend_from_slice(b"tiny");
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)), "got {err}");
    }

    /// An event-count header claiming billions of events must fail on the
    /// missing records, never pre-allocate the claimed capacity. This pins
    /// the `read_trace` capped `with_capacity` guard.
    #[test]
    fn huge_event_count_fails_without_alloc() {
        let mut buf = Vec::new();
        write_trace(&Trace::new(), &mut buf).unwrap();
        // Replace the trailing zero event count with an enormous one.
        assert_eq!(buf.pop(), Some(0));
        write_varint(&mut buf, u64::MAX).unwrap();
        let err = read_trace(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Io(_)), "got {err}");
    }

    /// An 11-byte varint (more than 64 bits of payload) is an overflow,
    /// not a wrap-around.
    #[test]
    fn overlong_varint_is_rejected() {
        let buf = [0xffu8; 11];
        let err = read_varint(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::VarintOverflow));
    }

    /// A varint wider than its `u32` field fails typed instead of being
    /// truncated: an `FnEnter` naming function 2^32 + 1 must not decode as
    /// the valid `FnId(1)`, and salvage must not call that container
    /// clean. Every other `u32` field, in events, locations and the
    /// metadata tables, fails the same way.
    #[test]
    fn u32_fields_reject_wider_varints() {
        let big = (1u64 << 32) + 1;
        let varints = |vs: &[u64]| -> Vec<u8> {
            let mut b = Vec::new();
            for &v in vs {
                write_varint(&mut b, v).unwrap();
            }
            b
        };
        let mut tr = Trace::new();
        tr.meta_mut().add_function("f0");
        tr.meta_mut().add_function("f1");
        let mut header = Vec::new();
        write_trace(&tr, &mut header).unwrap();
        assert_eq!(header.pop(), Some(0));
        write_varint(&mut header, 1).unwrap();
        let records = [
            [vec![TAG_FN_ENTER], varints(&[big])].concat(),
            [vec![TAG_FN_EXIT], varints(&[big])].concat(),
            [vec![TAG_TASK_SWITCH], varints(&[big])].concat(),
            [vec![TAG_LOCK_INIT], varints(&[0, big]), vec![0, 0]].concat(),
            [vec![TAG_ALLOC], varints(&[1, 0, big, 0]), vec![0]].concat(),
            [vec![TAG_ALLOC], varints(&[1, 0, 8, big]), vec![0]].concat(),
            [
                vec![TAG_ALLOC],
                varints(&[1, 0, 8, 0]),
                vec![1],
                varints(&[big]),
            ]
            .concat(),
            [vec![TAG_RELEASE], varints(&[0, big, 1])].concat(),
            [vec![TAG_RELEASE], varints(&[0, 0, big])].concat(),
        ];
        for record in records {
            let buf = [header.clone(), vec![0], record].concat();
            let err = read_trace(&mut buf.as_slice()).unwrap_err();
            assert!(matches!(err, CodecError::VarintOverflow), "{buf:?}: {err}");
            let (_, report) = read_trace_salvage(&buf).unwrap();
            assert!(!report.is_clean(), "{buf:?}");
            assert_eq!(report.diags[0].offset, header.len() as u64);
            assert_eq!(report.diags[0].error, "varint overflow");
        }
        // A data type whose size, member offset or member size overflows.
        for fields in [[big, 0, 0], [8, big, 0], [8, 0, big]] {
            let mut buf = MAGIC.to_vec();
            buf.extend(varints(&[0, 1]));
            write_str(&mut buf, "t").unwrap();
            buf.extend(varints(&[fields[0], 1]));
            write_str(&mut buf, "m").unwrap();
            buf.extend(varints(&fields[1..]));
            buf.extend([0, 0]);
            buf.extend(varints(&[0, 0, 0]));
            assert!(
                matches!(
                    read_trace(&mut buf.as_slice()),
                    Err(CodecError::VarintOverflow)
                ),
                "{fields:?}"
            );
        }
    }

    /// Adversarial timestamp deltas that sum past `u64::MAX` saturate
    /// instead of tripping the debug overflow check.
    #[test]
    fn adversarial_ts_deltas_saturate() {
        let mut buf = Vec::new();
        write_trace(&Trace::new(), &mut buf).unwrap();
        assert_eq!(buf.pop(), Some(0));
        write_varint(&mut buf, 2).unwrap();
        write_varint(&mut buf, u64::MAX).unwrap();
        buf.push(TAG_FREE);
        write_varint(&mut buf, 1).unwrap();
        write_varint(&mut buf, u64::MAX).unwrap();
        buf.push(TAG_FREE);
        write_varint(&mut buf, 2).unwrap();
        let tr = read_trace(&mut buf.as_slice()).unwrap();
        assert_eq!(tr.events.len(), 2);
        assert_eq!(tr.events[0].ts, u64::MAX);
        assert_eq!(tr.events[1].ts, u64::MAX);
    }

    /// Encoding a hand-assembled trace with a timestamp regression fails
    /// typed; the delta codec cannot represent it.
    #[test]
    fn write_trace_rejects_time_travel() {
        let tr = Trace {
            meta: std::sync::Arc::new(TraceMeta::default()),
            events: vec![
                TraceEvent {
                    ts: 5,
                    event: Event::Free { id: AllocId(1) },
                },
                TraceEvent {
                    ts: 4,
                    event: Event::Free { id: AllocId(2) },
                },
            ],
        };
        let err = write_trace(&tr, &mut Vec::new()).unwrap_err();
        assert!(matches!(
            err,
            CodecError::NonMonotonic {
                event_index: 1,
                ts: 4,
                prev_ts: 5
            }
        ));
    }

    /// More `parse_csv` edge cases pinned: lone CR record separators,
    /// quoted CRLF payloads, and empty-field-only records.
    #[test]
    fn parse_csv_edge_cases() {
        // Lone '\r' terminates a record just like '\n'.
        let rows = parse_csv("a,b\rc,d").unwrap();
        assert_eq!(rows.len(), 2);
        // A quoted field may contain CRLF verbatim.
        let rows = parse_csv("\"a\r\nb\",c").unwrap();
        assert_eq!(rows, vec![vec!["a\r\nb".to_owned(), "c".into()]]);
        // Records of empty fields survive.
        let rows = parse_csv(",,\n").unwrap();
        assert_eq!(
            rows,
            vec![vec![String::new(), String::new(), String::new()]]
        );
        // An empty quoted field followed by EOF.
        let rows = parse_csv("\"\"").unwrap();
        assert_eq!(rows, vec![vec![String::new()]]);
        // A quote opening mid-field is rejected even at the very end.
        assert!(parse_csv("x\"").is_err());
    }

    /// Salvage on a clean container recovers the identical trace with a
    /// clean report — byte-identity for good data.
    #[test]
    fn salvage_is_identity_on_clean_input() {
        let tr = sample_trace();
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        let (back, report) = read_trace_salvage(&buf).unwrap();
        assert_eq!(back, tr);
        assert!(report.is_clean(), "{report:?}");
        assert_eq!(report.recovered_events, tr.len() as u64);
        // Re-encoding the salvaged trace reproduces the original bytes.
        let mut again = Vec::new();
        write_trace(&back, &mut again).unwrap();
        assert_eq!(again, buf);
    }

    /// A bad tag mid-stream is skipped with a diagnostic and decoding
    /// resumes at the next decodable record.
    #[test]
    fn salvage_resyncs_past_a_smashed_record() {
        let tr = sample_trace();
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        // Find the byte offset of each record so we can smash one exactly.
        let mut clean = Vec::new();
        clean.extend_from_slice(MAGIC);
        write_meta(&mut clean, &tr.meta).unwrap();
        write_varint(&mut clean, tr.events.len() as u64).unwrap();
        let smash_at = clean.len() + 1; // tag byte of record 0 (delta is 1 byte)
        buf[smash_at] = 0xff; // not a valid event tag
        let (back, report) = read_trace_salvage(&buf).unwrap();
        assert!(!report.is_clean());
        assert!(report.failures >= 1);
        assert_eq!(report.diags[0].event_index, 0);
        assert_eq!(report.diags[0].offset, smash_at as u64 - 1);
        assert!(report.diags[0].error.contains("0xff"));
        assert!(report.diags[0].resumed_at.is_some());
        assert!(report.bytes_skipped >= 1);
        // Later records were recovered.
        assert!(!back.events.is_empty());
        assert!(back.events.len() < tr.events.len() + 1);
    }

    /// Truncation mid-record keeps the intact prefix and reports the cut.
    #[test]
    fn salvage_recovers_prefix_of_truncated_trace() {
        let tr = sample_trace();
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let (back, report) = read_trace_salvage(&buf).unwrap();
        assert!(report.truncated);
        assert!(!report.is_clean());
        assert_eq!(back.events.len(), tr.events.len() - 1);
        assert_eq!(back.events[..], tr.events[..tr.events.len() - 1]);
    }

    /// `read_count` rejects counts wider than `usize` instead of
    /// truncating them; on 64-bit targets `usize` == `u64` so overflow is
    /// unreachable and this pins the in-range path plus the error's
    /// rendering.
    #[test]
    fn count_overflow_is_typed() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 12345).unwrap();
        assert_eq!(read_count(&mut buf.as_slice()).unwrap(), 12345);
        assert_eq!(
            CodecError::CountOverflow.to_string(),
            "count does not fit in usize on this target"
        );
    }

    /// On 32-bit targets a count above `u32::MAX` must fail typed, not
    /// wrap (the pre-fix `as usize` silently truncated it).
    #[cfg(target_pointer_width = "32")]
    #[test]
    fn count_overflow_fires_on_32_bit() {
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::from(u32::MAX) + 1).unwrap();
        assert!(matches!(
            read_count(&mut buf.as_slice()).unwrap_err(),
            CodecError::CountOverflow
        ));
    }

    /// Chunked decode is byte-equivalent to whole-slice decode at every
    /// chunk size, including chunk=1 where every record straddles a
    /// refill boundary.
    #[test]
    fn chunked_read_matches_slice_read_at_any_chunk_size() {
        let tr = sample_trace();
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        for chunk in [1usize, 2, 3, 7, 64, buf.len(), buf.len() * 2] {
            let mut reader = TraceReader::with_chunk_size(buf.as_slice(), chunk).unwrap();
            assert_eq!(reader.expected_events(), tr.len());
            let mut events = Vec::new();
            while let Some(ev) = reader.next_event() {
                events.push(ev.unwrap());
            }
            assert_eq!(events, tr.events, "chunk={chunk}");
            assert_eq!(**reader.meta(), *tr.meta, "chunk={chunk}");
        }
    }

    /// Salvage across a smashed record is identical when the resync scan
    /// has to straddle refill boundaries: every chunk size yields the
    /// same trace, the same diagnostics, and the same byte offsets
    /// (truncation and trailing bytes included) as the whole-slice path.
    #[test]
    fn salvage_resync_is_identical_across_chunk_boundaries() {
        let tr = sample_trace();
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        let mut clean = Vec::new();
        clean.extend_from_slice(MAGIC);
        write_meta(&mut clean, &tr.meta).unwrap();
        write_varint(&mut clean, tr.events.len() as u64).unwrap();
        let smash_at = clean.len() + 1; // tag byte of record 0
        buf[smash_at] = 0xff;
        // The smashed container, also cut mid-record and with trailing bytes.
        let inputs = [
            buf.clone(),
            buf[..buf.len() - 3].to_vec(),
            [buf.as_slice(), &[0xff, 0x00, 0x07]].concat(),
        ];
        for input in inputs {
            let (want_tr, want_report) = read_trace_salvage(&input).unwrap();
            assert!(!want_report.is_clean());
            for chunk in [1usize, 2, 3, smash_at, input.len()] {
                let reader = TraceReader::with_chunk_size(input.as_slice(), chunk)
                    .unwrap()
                    .with_policy(DecodePolicy::Salvage);
                let (got_tr, reader) = read_to_end(reader).unwrap();
                let got_report = reader.finish().unwrap();
                assert_eq!(got_tr, want_tr, "len={} chunk={chunk}", input.len());
                assert_eq!(got_report, want_report, "len={} chunk={chunk}", input.len());
            }
        }
    }

    /// A damaged tail is never buffered whole: after a complete trace
    /// (counted as trailing bytes) or after a cut with no later resync
    /// point (skipped by the scan), 1 MiB of 0xFF bytes passes through a
    /// decoder that holds a few chunks at most, and the report equals the
    /// whole-slice one.
    #[test]
    fn salvage_buffers_a_bounded_window_of_a_damaged_tail() {
        // Enough events that half the container lies past the header.
        let mut tr = sample_trace();
        let events = tr.events.clone();
        let span = events.last().unwrap().ts + 1;
        for round in 1..64 {
            for e in &events {
                tr.push(e.ts + round * span, e.event.clone());
            }
        }
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        let tail = vec![0xffu8; 1 << 20];
        let chunk = 256;
        for input in [
            [buf.as_slice(), &tail].concat(),
            [&buf[..buf.len() / 2], &tail].concat(),
        ] {
            let (want_tr, want_report) = read_trace_salvage(&input).unwrap();
            assert!(!want_report.is_clean());
            let open = || {
                TraceReader::with_chunk_size(input.as_slice(), chunk)
                    .unwrap()
                    .with_policy(DecodePolicy::Salvage)
            };
            let (got_tr, reader) = read_to_end(open()).unwrap();
            assert_eq!(got_tr, want_tr);
            assert_eq!(reader.finish().unwrap(), want_report);
            // The same run again, stopped where `finish` counts the tail,
            // to look at the buffer once the whole input has gone through.
            let (_, mut reader) = read_to_end(open()).unwrap();
            assert_eq!(
                reader.d.count_remaining().unwrap(),
                want_report.trailing_bytes
            );
            let capacity = reader.d.buf.capacity();
            assert!(
                capacity <= 4 * chunk,
                "decoder buffered {capacity} bytes of a {}-byte input",
                input.len()
            );
        }
    }

    /// A header that does not decode is fatal for salvage too: metadata is
    /// the symbol table everything else refers to.
    #[test]
    fn salvage_rejects_unreadable_header() {
        assert!(matches!(
            read_trace_salvage(b"NOPE!whatever").unwrap_err(),
            CodecError::BadMagic
        ));
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, 3).unwrap(); // claims 3 strings, has none
        assert!(read_trace_salvage(&buf).is_err());
    }
}
