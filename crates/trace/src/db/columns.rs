//! Columnar (struct-of-arrays) storage for the hot [`TraceDb`] tables.
//!
//! The row types in [`super::schema`] remain the query-facing value types
//! ([`TraceDb::access`] joins an access row into one), but the big tables — accesses, transactions, stack traces — are stored
//! as parallel column vectors with arena-backed variable-length payloads
//! (held-lock lists, stack frames). This buys three things:
//!
//! * **import speed** — pushing a row is a handful of `Vec` pushes with no
//!   per-row heap allocation; variable-length data appends to one shared
//!   arena instead of allocating a `Vec` per row;
//! * **memory density** — no per-row `Vec` headers, no padding between
//!   heterogeneous fields, and no column that another table already
//!   holds: an access names its allocation and transaction by row, so
//!   type, subclass, flow and context are joined in, not copied;
//! * **a flat cached-archive format** — every column serializes as a
//!   fixed-stride little-endian array, so re-opening an imported trace is
//!   a sequential read straight into the column vectors (see
//!   [`super::archive`]).
//!
//! Row ids are implicit: row `i` of [`AccessTable`] *is* access id `i`,
//! row `i` of [`TxnTable`] is `TxnId(i)`. Arena layout is deterministic
//! because the importer only ever appends rows in id order, so structural
//! equality of two tables is exactly row-wise equality.
//!
//! [`TraceDb`]: super::TraceDb
//! [`TraceDb::access`]: super::TraceDb::access

use crate::db::schema::{FlowKey, HeldLock, Txn};
use crate::event::AccessKind;
use crate::ids::{FnId, StackId, Sym, Timestamp, TxnId};

/// The central access table (paper's `accesses`), one column per field
/// that import cannot derive.
///
/// There is no id column: an access's id is its row index. `alloc` is a
/// row of [`super::TraceDb::allocations`] and `txn` a row of
/// [`TxnTable`], so the table alone cannot build an
/// [`super::schema::Access`]: [`super::TraceDb::access`] joins the row
/// with its allocation and transaction. Hot loops read single columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessTable {
    pub(crate) ts: Vec<Timestamp>,
    pub(crate) kind: Vec<AccessKind>,
    pub(crate) alloc: Vec<u32>,
    pub(crate) member: Vec<u32>,
    pub(crate) size: Vec<u8>,
    pub(crate) loc_file: Vec<Sym>,
    pub(crate) loc_line: Vec<u32>,
    pub(crate) txn: Vec<u32>,
    pub(crate) stack: Vec<StackId>,
}

impl AccessTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The allocation row of access `i`: an index into
    /// [`super::TraceDb::allocations`].
    ///
    /// # Panics
    /// If `i` is out of bounds, as every per-column read does.
    #[inline]
    pub fn alloc_row(&self, i: usize) -> u32 {
        self.alloc[i]
    }

    /// The member index of access `i` within its allocation's type.
    #[inline]
    pub fn member(&self, i: usize) -> u32 {
        self.member[i]
    }

    /// Whether access `i` read or wrote.
    #[inline]
    pub fn kind(&self, i: usize) -> AccessKind {
        self.kind[i]
    }

    /// The transaction of access `i`.
    #[inline]
    pub fn txn(&self, i: usize) -> TxnId {
        TxnId(u64::from(self.txn[i]))
    }
}

/// A read-only view of one transaction row, field-compatible with
/// [`Txn`] so `db.txn(id).locks` call sites compile unchanged against the
/// columnar store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnView<'a> {
    /// Dense store id (the row index).
    pub id: TxnId,
    /// The control flow the transaction belongs to.
    pub flow: FlowKey,
    /// Held locks in acquisition order (a slice of the shared arena).
    pub locks: &'a [HeldLock],
    /// First event time inside the span.
    pub start_ts: Timestamp,
    /// Last event time inside the span.
    pub end_ts: Timestamp,
}

impl TxnView<'_> {
    /// Materializes an owned [`Txn`] row value.
    pub fn to_owned(&self) -> Txn {
        Txn {
            id: self.id,
            flow: self.flow,
            locks: self.locks.to_vec(),
            start_ts: self.start_ts,
            end_ts: self.end_ts,
        }
    }
}

/// The transaction table (paper's `txns` plus its held-lock join table):
/// fixed-width columns per transaction, with each row's held-lock list a
/// contiguous slice of one shared [`HeldLock`] arena.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TxnTable {
    pub(crate) flow: Vec<FlowKey>,
    pub(crate) start_ts: Vec<Timestamp>,
    pub(crate) end_ts: Vec<Timestamp>,
    /// `(arena offset, count)` per row. Spans are appended in id order, so
    /// offsets are non-decreasing and the arena layout is a pure function
    /// of the row sequence.
    pub(crate) lock_spans: Vec<(u32, u32)>,
    pub(crate) locks: Vec<HeldLock>,
}

impl TxnTable {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.flow.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.flow.is_empty()
    }

    /// Appends a transaction, copying its held locks into the arena, and
    /// returns its dense id.
    pub fn push(
        &mut self,
        flow: FlowKey,
        start_ts: Timestamp,
        end_ts: Timestamp,
        locks: impl IntoIterator<Item = HeldLock>,
    ) -> TxnId {
        let id = TxnId(self.len() as u64);
        let start = self.locks.len();
        self.locks.extend(locks);
        let count = self.locks.len() - start;
        self.lock_spans.push((start as u32, count as u32));
        self.flow.push(flow);
        self.start_ts.push(start_ts);
        self.end_ts.push(end_ts);
        id
    }

    /// The control flow of transaction `id`, which is the flow of every
    /// access in it.
    ///
    /// # Panics
    /// If `id` is out of bounds.
    #[inline]
    pub fn flow(&self, id: TxnId) -> FlowKey {
        self.flow[id.index()]
    }

    /// Extends a still-open transaction's span to cover `ts`.
    pub fn bump_end_ts(&mut self, id: TxnId, ts: Timestamp) {
        let e = &mut self.end_ts[id.0 as usize];
        *e = (*e).max(ts);
    }

    /// Row `i` as a view.
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub fn get(&self, i: usize) -> TxnView<'_> {
        let (start, count) = self.lock_spans[i];
        TxnView {
            id: TxnId(i as u64),
            flow: self.flow[i],
            locks: &self.locks[start as usize..(start + count) as usize],
            start_ts: self.start_ts[i],
            end_ts: self.end_ts[i],
        }
    }

    /// The last row, if any.
    pub fn last(&self) -> Option<TxnView<'_>> {
        self.len().checked_sub(1).map(|i| self.get(i))
    }

    /// Iterates over all rows in id order.
    pub fn iter(&self) -> impl Iterator<Item = TxnView<'_>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Deduplicated stack traces (paper's `stack_traces`): every trace's
/// frames are a contiguous slice of one shared frame arena, addressed by a
/// `(offset, count)` span per stack id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StackTable {
    /// `(arena offset, count)` per stack id, appended in id order.
    pub(crate) spans: Vec<(u32, u32)>,
    pub(crate) frames: Vec<FnId>,
}

impl StackTable {
    /// Number of distinct stacks.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Appends a stack, copying `frames` into the arena, and returns its
    /// dense id.
    pub fn push(&mut self, frames: &[FnId]) -> StackId {
        let id = StackId(self.len() as u32);
        let start = self.frames.len();
        self.frames.extend_from_slice(frames);
        self.spans.push((start as u32, frames.len() as u32));
        id
    }

    /// The frames of stack `id`, outermost to innermost.
    ///
    /// # Panics
    /// If `id` is out of bounds.
    pub fn frames(&self, id: StackId) -> &[FnId] {
        let (start, count) = self.spans[id.index()];
        &self.frames[start as usize..(start + count) as usize]
    }

    /// Iterates over all stacks' frame slices in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[FnId]> {
        (0..self.len()).map(|i| self.frames(StackId(i as u32)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AcquireMode, SourceLoc};
    use crate::ids::{LockId, TaskId};

    #[test]
    fn txn_table_arena_slices() {
        let mut t = TxnTable::default();
        let h = |l: u32| HeldLock {
            lock: LockId(l),
            mode: AcquireMode::Exclusive,
            acquired_at: SourceLoc::new(Sym(0), 1),
            acquired_ts: 5,
        };
        let id0 = t.push(FlowKey::Task(TaskId(0)), 1, 2, [h(1)]);
        let id1 = t.push(FlowKey::Irq(0), 3, 3, [h(2), h(3)]);
        let id2 = t.push(FlowKey::Task(TaskId(1)), 4, 4, []);
        assert_eq!((id0, id1, id2), (TxnId(0), TxnId(1), TxnId(2)));
        assert_eq!(t.get(0).locks, &[h(1)]);
        assert_eq!(t.get(1).locks, &[h(2), h(3)]);
        assert!(t.get(2).locks.is_empty());
        t.bump_end_ts(TxnId(1), 9);
        assert_eq!(t.get(1).end_ts, 9);
        t.bump_end_ts(TxnId(1), 7); // never shrinks
        assert_eq!(t.get(1).end_ts, 9);
        assert_eq!(t.last().unwrap().id, TxnId(2));
        assert_eq!(t.flow(TxnId(1)), FlowKey::Irq(0));
    }

    #[test]
    fn stack_table_dedup_by_caller_is_positional() {
        let mut t = StackTable::default();
        let s0 = t.push(&[FnId(1), FnId(2)]);
        let s1 = t.push(&[]);
        let s2 = t.push(&[FnId(2)]);
        assert_eq!((s0, s1, s2), (StackId(0), StackId(1), StackId(2)));
        assert_eq!(t.frames(StackId(0)), &[FnId(1), FnId(2)]);
        assert_eq!(t.frames(StackId(1)), &[] as &[FnId]);
        assert_eq!(t.frames(StackId(2)), &[FnId(2)]);
        assert_eq!(t.iter().count(), 3);
    }
}
