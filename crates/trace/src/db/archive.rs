//! Cached-archive format for imported traces.
//!
//! Importing is linear but not free: decode + pre-pass + replay touch
//! every event. When the same trace is analyzed repeatedly (every CLI
//! subcommand re-imports), that work is pure waste — the resulting
//! [`TraceDb`] is a deterministic function of `(trace bytes, filter
//! config)`. This module persists the imported store in a flat, columnar,
//! little-endian layout so re-opening a trace is a sequential read of the
//! final tables instead of a re-decode.
//!
//! ## Format (`LDARCH1\0`, version [`FORMAT_VERSION`])
//!
//! A [`lockdoc_platform::artifact`] frame keyed by `[trace_sum,
//! filter_fp]` — [`lockdoc_platform::hash::checksum`] over the source
//! container bytes and [`filter_fingerprint`] (FNV-1a over the
//! canonicalized filter config) — whose payload is the sections
//! allocations, locks, txns, accesses, stacks, stats.
//!
//! Every column is a length-prefixed contiguous array of fixed-width
//! little-endian values — the layout an `mmap`-based loader could hand to
//! the query layer directly (this loader copies into owned `Vec`s, since
//! the workspace forbids `unsafe`; the sequential-slab layout is what
//! makes the read cheap either way). `Option`s in the *cold* row tables
//! (allocations, locks) are an explicit presence byte. The access slab
//! holds [`AccessTable`]'s nine columns and no sentinel: `ts` (u64),
//! `kind` (u8), the allocation row (u32), `member` (u32), `size` (u8),
//! the location file and line (u32 each), the transaction row (u32) and
//! the stack id (u32) — 34 bytes per access. The writer pre-sizes its
//! buffer at ~48 B per access, which covers the access slab plus the
//! transaction, held-lock and allocation rows a ksim trace adds per
//! access.
//!
//! ## Invalidation
//!
//! The archive does not store [`TraceMeta`] — the loader takes it from
//! the source container's header (a [`crate::codec::TraceReader`] decodes
//! the header without touching the event stream). That makes the source
//! trace file the single source of truth: a cache hit requires
//!
//! the frame to open: magic and `version` match this build's writer,
//! `trace_sum` matches the *current* container bytes (so an
//! overwritten/truncated/regenerated trace misses), `filter_fp` matches
//! the *current* filter config (so changing blacklists invalidates), and
//! the payload checksum verifies (so a torn write or disk rot misses
//! *before* any section is parsed).
//!
//! Any mismatch — or any structural inconsistency while reading — returns
//! `None` and the caller falls back to a fresh import (and typically
//! rewrites the archive under the same file name); an archive of an
//! older version, say a version-2 one with its 13-column access rows, is
//! such a miss. The reader additionally cross-checks every id against the
//! tables and `meta` it actually loaded, so even a checksum collision
//! cannot yield out-of-range references downstream:
//!
//! * allocation ids strictly ascend, as [`TraceDb::allocation`]'s binary
//!   search needs, and a lock's owner is found by that search;
//! * every access's allocation row, transaction row and stack id lie
//!   inside their tables, its location file is an interned string, and
//!   its member lies inside its allocation's type;
//! * every transaction flow is a known task, `Irq(0)` or `Irq(1)`, since
//!   an access's context is derived from its transaction's flow
//!   ([`FlowKey::context`]).
//!
//! A stale or corrupt cache can therefore cost a
//! re-import, never a wrong answer: `archive_roundtrip_is_identity` and
//! the CLI's `--cache-dir` gate in `scripts/verify.sh` check the loaded
//! store is byte-identical (`PartialEq` over every table and counter) to
//! a fresh import.

use crate::db::columns::{AccessTable, StackTable, TxnTable};
use crate::db::import::ImportStats;
use crate::db::schema::{Allocation, FlowKey, HeldLock, LockInstance};
use crate::db::TraceDb;
use crate::event::{AccessKind, AcquireMode, LockFlavor, SourceLoc, TraceMeta};
use crate::filter::FilterConfig;
use crate::ids::{AllocId, DataTypeId, FnId, LockId, StackId, Sym, TaskId};
use lockdoc_platform::artifact::{self, Reader, Writer};
use lockdoc_platform::hash::fnv1a;
use std::collections::HashMap;
use std::sync::Arc;

/// Archive container magic.
pub const ARCHIVE_MAGIC: [u8; 8] = *b"LDARCH1\0";

/// Bumped whenever the column layout, section order, frame checksum, or
/// the store import builds from the same trace changes. An archive
/// written by any other version is a cache miss. Version 4: a plain
/// import skips a malformed event instead of replaying it, so a version-3
/// archive of a malformed trace holds a store import no longer builds.
pub const FORMAT_VERSION: u32 = 4;

/// Deterministic fingerprint of a filter configuration.
///
/// Set/map iteration order is unspecified, so the entries are sorted
/// before hashing; two configs fingerprint equal iff they filter
/// identically.
pub fn filter_fingerprint(config: &FilterConfig) -> u64 {
    let mut canon = String::new();
    let mut members: Vec<_> = config.member_blacklist.iter().collect();
    members.sort();
    for (ty, member) in members {
        canon.push_str("m:");
        canon.push_str(ty);
        canon.push('.');
        canon.push_str(member);
        canon.push('\n');
    }
    let mut types: Vec<_> = config.init_teardown.iter().collect();
    types.sort_by_key(|(ty, _)| ty.as_str());
    for (ty, funcs) in types {
        let mut funcs: Vec<_> = funcs.iter().collect();
        funcs.sort();
        for f in funcs {
            canon.push_str("i:");
            canon.push_str(ty);
            canon.push('/');
            canon.push_str(f);
            canon.push('\n');
        }
    }
    let mut globals: Vec<_> = config.global_fn_blacklist.iter().collect();
    globals.sort();
    for f in globals {
        canon.push_str("g:");
        canon.push_str(f);
        canon.push('\n');
    }
    canon.push_str(if config.drop_atomic_accesses {
        "a1"
    } else {
        "a0"
    });
    canon.push_str(if config.drop_atomic_members {
        "t1"
    } else {
        "t0"
    });
    fnv1a(canon.as_bytes())
}

fn write_flow(w: &mut Writer, f: FlowKey) {
    match f {
        FlowKey::Task(t) => {
            w.u8(0);
            w.u32(t.0);
        }
        FlowKey::Irq(i) => {
            w.u8(1);
            w.u32(u32::from(i));
        }
    }
}

fn read_flow(r: &mut Reader) -> Option<FlowKey> {
    match r.u8()? {
        0 => Some(FlowKey::Task(TaskId(r.u32()?))),
        1 => Some(FlowKey::Irq(u8::try_from(r.u32()?).ok()?)),
        _ => None,
    }
}

/// Reads `n` values of one fixed-width column; `n` was bounded by the
/// section's length prefix, so the reservation is backed by payload bytes.
fn column<'a, T>(
    r: &mut Reader<'a>,
    n: usize,
    read: impl Fn(&mut Reader<'a>) -> Option<T>,
) -> Option<Vec<T>> {
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(read(r)?);
    }
    Some(v)
}

/// Serializes an imported store (minus its [`TraceMeta`], which lives in
/// the source container) for the `(trace checksum, filter fingerprint)`
/// cache key.
pub fn write_archive(db: &TraceDb, trace_checksum: u64, filter_fp: u64) -> Vec<u8> {
    // Rough pre-size: the access table dominates at ~48 B/row (see the
    // module docs).
    let mut w = Writer::new(
        &ARCHIVE_MAGIC,
        FORMAT_VERSION,
        &[trace_checksum, filter_fp],
        256 + db.accesses.len() * 48,
    );

    // Allocations (cold row table; Options get presence bytes).
    w.len(db.allocations.len());
    for a in &db.allocations {
        w.u64(a.id.0);
        w.u64(a.addr);
        w.u32(a.size);
        w.u32(a.data_type.0);
        match a.subclass {
            Some(s) => {
                w.u8(1);
                w.u32(s.0);
            }
            None => w.u8(0),
        }
        w.u64(a.alloc_ts);
        match a.free_ts {
            Some(t) => {
                w.u8(1);
                w.u64(t);
            }
            None => w.u8(0),
        }
    }

    // Locks (cold row table).
    w.len(db.locks.len());
    for l in &db.locks {
        w.u32(l.id.0);
        w.u64(l.addr);
        w.u32(l.name.0);
        w.u8(l.flavor.tag());
        w.u8(u8::from(l.is_static));
        match l.embedded_in {
            Some((alloc, off)) => {
                w.u8(1);
                w.u64(alloc.0);
                w.u32(off);
            }
            None => w.u8(0),
        }
    }

    // Transactions: columns + held-lock arena.
    w.len(db.txns.len());
    for i in 0..db.txns.len() {
        write_flow(&mut w, db.txns.flow[i]);
    }
    for &t in &db.txns.start_ts {
        w.u64(t);
    }
    for &t in &db.txns.end_ts {
        w.u64(t);
    }
    for &(start, count) in &db.txns.lock_spans {
        w.u32(start);
        w.u32(count);
    }
    w.len(db.txns.locks.len());
    for h in &db.txns.locks {
        w.u32(h.lock.0);
        w.u8(match h.mode {
            AcquireMode::Shared => 0,
            AcquireMode::Exclusive => 1,
        });
        w.u32(h.acquired_at.file.0);
        w.u32(h.acquired_at.line);
        w.u64(h.acquired_ts);
    }

    // Accesses: one slab per column; allocation and transaction by row.
    let t = &db.accesses;
    w.len(t.len());
    for &v in &t.ts {
        w.u64(v);
    }
    for &k in &t.kind {
        w.u8(match k {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
        });
    }
    for &v in &t.alloc {
        w.u32(v);
    }
    for &v in &t.member {
        w.u32(v);
    }
    w.bytes(&t.size);
    for &v in &t.loc_file {
        w.u32(v.0);
    }
    for &v in &t.loc_line {
        w.u32(v);
    }
    for &v in &t.txn {
        w.u32(v);
    }
    for &v in &t.stack {
        w.u32(v.0);
    }

    // Stacks: spans + frame arena.
    w.len(db.stacks.len());
    for &(start, count) in &db.stacks.spans {
        w.u32(start);
        w.u32(count);
    }
    w.len(db.stacks.frames.len());
    for &f in &db.stacks.frames {
        w.u32(f.0);
    }

    // Stats: fixed counters, then the drop map sorted by reason name.
    let st = &db.stats;
    for v in [
        st.events,
        st.accesses_seen,
        st.accesses_imported,
        st.unresolved,
        st.unmatched_releases,
        st.unknown_lock_acquires,
        st.txns,
        st.locks,
        st.static_locks,
        st.embedded_locks,
        st.allocs,
        st.frees,
        st.stacks,
        st.invalid_events,
    ] {
        w.u64(v);
    }
    let mut filtered: Vec<_> = st.filtered.iter().collect();
    filtered.sort();
    w.len(filtered.len());
    for (name, &n) in filtered {
        w.str(name);
        w.u64(n);
    }

    w.seal()
}

/// Deserializes an archive previously produced by [`write_archive`].
///
/// Returns `None` — *reimport* — unless the magic, format version, trace
/// checksum, and filter fingerprint all match and every section parses
/// cleanly. `meta` is the header of the source container the checksum was
/// computed over.
pub fn read_archive(
    bytes: &[u8],
    trace_checksum: u64,
    filter_fp: u64,
    meta: Arc<TraceMeta>,
) -> Option<TraceDb> {
    let mut r = Reader::new(artifact::open(
        bytes,
        &ARCHIVE_MAGIC,
        FORMAT_VERSION,
        &[trace_checksum, filter_fp],
    )?);

    let n_allocs = r.len(30)?;
    let mut allocations = Vec::with_capacity(n_allocs);
    for _ in 0..n_allocs {
        let id = AllocId(r.u64()?);
        let addr = r.u64()?;
        let size = r.u32()?;
        let data_type = DataTypeId(r.u32()?);
        let subclass = match r.u8()? {
            0 => None,
            1 => Some(Sym(r.u32()?)),
            _ => return None,
        };
        let alloc_ts = r.u64()?;
        let free_ts = match r.u8()? {
            0 => None,
            1 => Some(r.u64()?),
            _ => return None,
        };
        allocations.push(Allocation {
            id,
            addr,
            size,
            data_type,
            subclass,
            alloc_ts,
            free_ts,
        });
    }

    let n_locks = r.len(19)?;
    let mut locks = Vec::with_capacity(n_locks);
    for _ in 0..n_locks {
        let id = LockId(r.u32()?);
        let addr = r.u64()?;
        let name = Sym(r.u32()?);
        let flavor = LockFlavor::from_tag(r.u8()?)?;
        let is_static = match r.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let embedded_in = match r.u8()? {
            0 => None,
            1 => Some((AllocId(r.u64()?), r.u32()?)),
            _ => return None,
        };
        locks.push(LockInstance {
            id,
            addr,
            name,
            flavor,
            is_static,
            embedded_in,
        });
    }

    let n_txns = r.len(25)?;
    let span = |r: &mut Reader| Some((r.u32()?, r.u32()?));
    let mut txns = TxnTable {
        flow: column(&mut r, n_txns, read_flow)?,
        start_ts: column(&mut r, n_txns, Reader::u64)?,
        end_ts: column(&mut r, n_txns, Reader::u64)?,
        lock_spans: column(&mut r, n_txns, span)?,
        locks: Vec::new(),
    };
    let n_held = r.len(21)?;
    txns.locks = column(&mut r, n_held, |r| {
        let lock = LockId(r.u32()?);
        let mode = match r.u8()? {
            0 => AcquireMode::Shared,
            1 => AcquireMode::Exclusive,
            _ => return None,
        };
        Some(HeldLock {
            lock,
            mode,
            acquired_at: SourceLoc::new(Sym(r.u32()?), r.u32()?),
            acquired_ts: r.u64()?,
        })
    })?;
    // Every span must lie inside the arena.
    for &(start, count) in &txns.lock_spans {
        let end = (start as usize).checked_add(count as usize)?;
        if end > txns.locks.len() {
            return None;
        }
    }

    let n_acc = r.len(34)?;
    let accesses = AccessTable {
        ts: column(&mut r, n_acc, Reader::u64)?,
        kind: column(&mut r, n_acc, |r| match r.u8()? {
            0 => Some(AccessKind::Read),
            1 => Some(AccessKind::Write),
            _ => None,
        })?,
        alloc: column(&mut r, n_acc, Reader::u32)?,
        member: column(&mut r, n_acc, Reader::u32)?,
        size: r.take(n_acc)?.to_vec(),
        loc_file: column(&mut r, n_acc, |r| r.u32().map(Sym))?,
        loc_line: column(&mut r, n_acc, Reader::u32)?,
        txn: column(&mut r, n_acc, Reader::u32)?,
        stack: column(&mut r, n_acc, |r| r.u32().map(StackId))?,
    };

    let n_stacks = r.len(8)?;
    let spans = column(&mut r, n_stacks, span)?;
    let n_frames = r.len(4)?;
    let stacks = StackTable {
        spans,
        frames: column(&mut r, n_frames, |r| r.u32().map(FnId))?,
    };
    for &(start, count) in &stacks.spans {
        let end = (start as usize).checked_add(count as usize)?;
        if end > stacks.frames.len() {
            return None;
        }
    }

    let mut stats = ImportStats {
        events: r.u64()?,
        accesses_seen: r.u64()?,
        accesses_imported: r.u64()?,
        unresolved: r.u64()?,
        unmatched_releases: r.u64()?,
        unknown_lock_acquires: r.u64()?,
        txns: r.u64()?,
        locks: r.u64()?,
        static_locks: r.u64()?,
        embedded_locks: r.u64()?,
        allocs: r.u64()?,
        frees: r.u64()?,
        stacks: r.u64()?,
        invalid_events: r.u64()?,
        filtered: HashMap::new(),
    };
    let n_filtered = r.len(9)?;
    stats.filtered.reserve(n_filtered);
    for _ in 0..n_filtered {
        let name = r.str()?;
        let n = r.u64()?;
        stats.filtered.insert(name, n);
    }

    if !r.is_empty() {
        return None; // trailing garbage: treat as corrupt
    }

    // Referential integrity against the loaded tables and the *current*
    // meta: even a checksum collision must not produce a dangling or
    // out-of-range id that a downstream pass would trip over.
    use crate::db::import::{valid_dt, valid_fn, valid_sym, valid_task};
    // Ids strictly ascend, as `TraceDb::allocation`'s binary search needs.
    if allocations.windows(2).any(|w| w[0].id >= w[1].id) {
        return None;
    }
    for a in &allocations {
        if !valid_dt(&meta, a.data_type) || !a.subclass.is_none_or(|s| valid_sym(&meta, s)) {
            return None;
        }
    }
    let known_alloc = |id: AllocId| allocations.binary_search_by_key(&id, |a| a.id).is_ok();
    for l in &locks {
        if !valid_sym(&meta, l.name) || !l.embedded_in.is_none_or(|(id, _)| known_alloc(id)) {
            return None;
        }
    }
    let n_lock_rows = locks.len() as u32;
    for h in &txns.locks {
        if h.lock.0 >= n_lock_rows || !valid_sym(&meta, h.acquired_at.file) {
            return None;
        }
    }
    // Only softirq and hardirq flows exist: an access's context is read
    // off its transaction's flow.
    let valid_flow = |f: &FlowKey| match *f {
        FlowKey::Task(t) => valid_task(&meta, t),
        FlowKey::Irq(n) => n <= 1,
    };
    if !txns.flow.iter().all(valid_flow) || !stacks.frames.iter().all(|&f| valid_fn(&meta, f)) {
        return None;
    }
    // Per allocation row, its type's member count.
    let members: Vec<u32> = allocations
        .iter()
        .map(|a| meta.data_types[a.data_type.index()].members.len() as u32)
        .collect();
    let (n_txn_rows, n_stack_rows) = (txns.len() as u64, stacks.len() as u32);
    let t = &accesses;
    for i in 0..t.len() {
        let ok = members
            .get(t.alloc[i] as usize)
            .is_some_and(|&n| t.member[i] < n)
            && u64::from(t.txn[i]) < n_txn_rows
            && t.stack[i].0 < n_stack_rows
            && valid_sym(&meta, t.loc_file[i]);
        if !ok {
            return None;
        }
    }

    Some(TraceDb {
        meta,
        allocations,
        locks,
        txns,
        accesses,
        stacks,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::import;
    use crate::event::{DataTypeDef, Event, MemberDef, Trace};
    use crate::filter::FilterConfig;

    /// A small but representative store: two locks (one embedded), nested
    /// transactions, a softirq flow, a subclassed allocation, a freed
    /// allocation, and deduplicated stacks.
    fn sample_db() -> TraceDb {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("clock.c");
        let g_lock = tr.meta_mut().strings.intern("g_lock");
        let i_lock = tr.meta_mut().strings.intern("i_lock");
        let sub = tr.meta_mut().strings.intern("ext4");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "clock".into(),
            size: 16,
            members: vec![
                MemberDef {
                    name: "seconds".into(),
                    offset: 0,
                    size: 4,
                    atomic: false,
                    is_lock: false,
                },
                MemberDef {
                    name: "minutes".into(),
                    offset: 4,
                    size: 4,
                    atomic: false,
                    is_lock: false,
                },
            ],
        });
        let tick = tr.meta_mut().add_function("tick");
        let irq_fn = tr.meta_mut().add_function("irq_tick");
        let task = tr.meta_mut().add_task("ticker");
        let loc = crate::event::SourceLoc::new(file, 7);

        let mut ts = 0u64;
        let mut t = |tr: &mut Trace, e: Event| {
            ts += 1;
            tr.push(ts, e);
        };
        t(&mut tr, Event::TaskSwitch { task });
        t(
            &mut tr,
            Event::LockInit {
                addr: 0x100,
                name: g_lock,
                flavor: crate::event::LockFlavor::Spinlock,
                is_static: true,
            },
        );
        t(
            &mut tr,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 16,
                data_type: dt,
                subclass: Some(sub),
            },
        );
        t(
            &mut tr,
            Event::LockInit {
                addr: 0x1008,
                name: i_lock,
                flavor: crate::event::LockFlavor::Mutex,
                is_static: false,
            },
        );
        t(&mut tr, Event::FnEnter { func: tick });
        t(
            &mut tr,
            Event::LockAcquire {
                addr: 0x100,
                mode: crate::event::AcquireMode::Exclusive,
                loc,
            },
        );
        t(
            &mut tr,
            Event::MemAccess {
                kind: crate::event::AccessKind::Write,
                addr: 0x1000,
                size: 4,
                loc,
                atomic: false,
            },
        );
        t(
            &mut tr,
            Event::LockAcquire {
                addr: 0x1008,
                mode: crate::event::AcquireMode::Shared,
                loc,
            },
        );
        t(
            &mut tr,
            Event::MemAccess {
                kind: crate::event::AccessKind::Read,
                addr: 0x1004,
                size: 4,
                loc,
                atomic: false,
            },
        );
        t(&mut tr, Event::LockRelease { addr: 0x1008, loc });
        t(&mut tr, Event::LockRelease { addr: 0x100, loc });
        // Softirq flow with its own stack.
        t(
            &mut tr,
            Event::ContextEnter {
                kind: crate::event::ContextKind::Softirq,
            },
        );
        t(&mut tr, Event::FnEnter { func: irq_fn });
        t(
            &mut tr,
            Event::MemAccess {
                kind: crate::event::AccessKind::Write,
                addr: 0x1004,
                size: 4,
                loc,
                atomic: false,
            },
        );
        t(&mut tr, Event::FnExit { func: irq_fn });
        t(
            &mut tr,
            Event::ContextExit {
                kind: crate::event::ContextKind::Softirq,
            },
        );
        // Lock-free access (empty-set txn), then free the allocation.
        t(
            &mut tr,
            Event::MemAccess {
                kind: crate::event::AccessKind::Read,
                addr: 0x1000,
                size: 4,
                loc,
                atomic: false,
            },
        );
        t(&mut tr, Event::Free { id: AllocId(1) });
        t(&mut tr, Event::FnExit { func: tick });
        import(&tr, &FilterConfig::with_defaults(), 1)
    }

    #[test]
    fn archive_roundtrip_is_identity() {
        let db = sample_db();
        let bytes = write_archive(&db, 0xabcd, 0x1234);
        let back =
            read_archive(&bytes, 0xabcd, 0x1234, Arc::clone(&db.meta)).expect("roundtrip must hit");
        assert_eq!(db, back);
    }

    /// A validly sealed archive whose allocation rows are out of id order
    /// is a miss: `TraceDb::allocation` finds ids by binary search.
    #[test]
    fn unsorted_allocation_ids_are_a_miss() {
        let mut db = sample_db();
        let mut second = db.allocations[0].clone();
        second.id = AllocId(2);
        second.addr = 0x2000;
        db.allocations.push(second);
        let meta = || Arc::clone(&db.meta);
        let sorted = write_archive(&db, 0xabcd, 0x1234);
        assert_eq!(
            read_archive(&sorted, 0xabcd, 0x1234, meta()).as_ref(),
            Some(&db)
        );
        let mut swapped = db.clone();
        swapped.allocations.swap(0, 1);
        let resealed = write_archive(&swapped, 0xabcd, 0x1234);
        assert!(read_archive(&resealed, 0xabcd, 0x1234, meta()).is_none());
    }

    /// A validly sealed archive whose access or transaction rows point
    /// outside the tables they name is a miss: the passes index those
    /// tables by row, and an access's context is read off its
    /// transaction's flow.
    #[test]
    fn out_of_range_row_references_are_misses() {
        type Corrupt = fn(&mut TraceDb);
        let db = sample_db();
        let cases: [(&str, Corrupt); 5] = [
            ("allocation row", |db| {
                db.accesses.alloc[0] = db.allocations.len() as u32;
            }),
            ("transaction row", |db| {
                db.accesses.txn[0] = db.txns.len() as u32;
            }),
            ("member", |db| {
                let dt = db.allocations[db.accesses.alloc[0] as usize].data_type;
                db.accesses.member[0] = db.data_type(dt).members.len() as u32;
            }),
            ("transaction flow", |db| db.txns.flow[0] = FlowKey::Irq(2)),
            ("stack", |db| {
                db.accesses.stack[0] = StackId(db.stacks.len() as u32);
            }),
        ];
        for (what, corrupt) in cases {
            let mut bad = db.clone();
            corrupt(&mut bad);
            let resealed = write_archive(&bad, 0xabcd, 0x1234);
            let back = read_archive(&resealed, 0xabcd, 0x1234, Arc::clone(&db.meta));
            assert!(back.is_none(), "{what} out of range must miss");
        }
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let db = sample_db();
        let bytes = write_archive(&db, 0xabcd, 0x1234);
        assert!(read_archive(&bytes, 0xabce, 0x1234, Arc::clone(&db.meta)).is_none());
        assert!(read_archive(&bytes, 0xabcd, 0x1235, Arc::clone(&db.meta)).is_none());
    }

    #[test]
    fn filter_fingerprint_is_order_insensitive_and_content_sensitive() {
        let mut a = FilterConfig::with_defaults();
        a.global_fn_blacklist.insert("atomic_inc".into());
        a.global_fn_blacklist.insert("atomic_dec".into());
        let mut b = FilterConfig::with_defaults();
        b.global_fn_blacklist.insert("atomic_dec".into());
        b.global_fn_blacklist.insert("atomic_inc".into());
        assert_eq!(filter_fingerprint(&a), filter_fingerprint(&b));
        b.global_fn_blacklist.insert("memcpy".into());
        assert_ne!(filter_fingerprint(&a), filter_fingerprint(&b));
        let mut c = FilterConfig::with_defaults();
        c.drop_atomic_members = false;
        assert_ne!(
            filter_fingerprint(&FilterConfig::with_defaults()),
            filter_fingerprint(&c)
        );
    }
}
