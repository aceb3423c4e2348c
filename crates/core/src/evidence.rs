//! The shared evidence index: the `accesses ⋈ txns ⋈ locks` join every
//! analysis pass asks, answered once per [`TraceDb`].
//!
//! The paper's derivator (Sec. 5.4), checker and violation finder
//! (Sec. 5.5) are all queries over the same join, which LockDoc's MariaDB
//! answers from its indexes. [`EvidenceIndex::build`] materializes that
//! join in one pass over the access table plus one loop over observation
//! groups, and every pass — [`crate::derive`], [`crate::checker`],
//! [`crate::violation`], [`crate::race`] and
//! [`crate::corpus::build_trace_matrix`] — reads only the index:
//!
//! * **Rows.** Each observation group's access row ids, ascending.
//! * **Lock table.** Every lock descriptor any lock instance can resolve
//!   to, sorted and deduplicated, so a descriptor's id is its rank:
//!   *id order equals [`LockDescriptor`]'s `Ord`*. Every lock instance's
//!   id is precomputed — one id for a global or pseudo lock, an
//!   `ES`/`EO` pair plus the owner allocation for an embedded lock — so
//!   resolving a held lock relative to the accessed object is a compare
//!   and a load, never a string build.
//! * **Units.** Per group, the [`AccessMatrix`] and each
//!   `(txn, alloc)` unit's held-lock sequence as interned descriptor ids
//!   (first-acquisition order, deduplicated exactly like
//!   [`crate::lockset::resolve_txn_locks`]). Sequence ids are assigned in
//!   lexicographic order of their id slices, which by the id-order
//!   invariant is the order of the resolved descriptor sequences.
//! * **Observations.** Per `(group, member, kind)`, the aggregated
//!   [`Observation`] list after write-over-read folding, sorted by lock
//!   sequence — exactly [`crate::hypothesis::observations_for`].
//!
//! Descriptors are materialized only for output: observation lists,
//! violation examples and race witnesses.

use crate::corpus::{GroupMatrix, MemberObs, TraceMatrix};
use crate::hypothesis::Observation;
use crate::lockset::LockDescriptor;
use crate::matrix::{AccessMatrix, CellCounts, MemberMatrix, Unit};
use lockdoc_platform::hash::FastMap;
use lockdoc_trace::db::{LockInstance, TraceDb};
use lockdoc_trace::event::{AccessKind, LockFlavor};
use lockdoc_trace::ids::{AllocId, DataTypeId, Sym};
use std::collections::BTreeMap;

/// Interned lock descriptor: an index into [`EvidenceIndex::locks`].
pub type DescId = u32;

/// Interned held-lock sequence of one group: an index into
/// [`GroupEvidence::seq`].
pub type SeqId = u32;

/// An observation group: `(data type, subclass)`.
pub type GroupKey = (DataTypeId, Option<Sym>);

/// `row_seqs` marker for an access outside any transaction.
const NO_UNIT: SeqId = SeqId::MAX;

/// The descriptor ids one lock instance resolves to.
#[derive(Debug, Clone, Copy)]
struct LockIds {
    /// The id when the accessed allocation owns the lock (`ES`), or the
    /// only id of a global or pseudo lock.
    same: DescId,
    /// The id relative to any other allocation (`EO`).
    other: DescId,
    /// The allocation embedding the lock, if any.
    owner: Option<AllocId>,
}

/// The evidence of one observation group `(data type, subclass)`.
#[derive(Debug, Clone)]
pub struct GroupEvidence {
    /// The group key.
    pub key: GroupKey,
    /// Display name, e.g. `inode:ext4`.
    pub name: String,
    /// Access row ids of the group, ascending.
    rows: Vec<u32>,
    /// Per row (parallel to `rows`): the sequence of its unit, or
    /// [`NO_UNIT`] for an access outside any transaction.
    row_seqs: Vec<SeqId>,
    /// `(offset, len)` of each interned sequence in `seq_locks`.
    seq_spans: Vec<(u32, u32)>,
    /// Arena of interned sequences.
    seq_locks: Vec<DescId>,
    /// The group's access matrix (paper Tab. 1).
    pub matrix: AccessMatrix,
    /// Aggregated observations per observed member, ascending.
    pub members: Vec<MemberObs>,
}

impl GroupEvidence {
    /// The group's access row ids, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The held-lock sequence id of the unit of the `pos`-th row of
    /// [`Self::rows`]; `None` when that access lies outside any
    /// transaction.
    pub fn row_seq(&self, pos: usize) -> Option<SeqId> {
        Some(self.row_seqs[pos]).filter(|&s| s != NO_UNIT)
    }

    /// Number of distinct held-lock sequences in the group.
    pub fn seq_count(&self) -> usize {
        self.seq_spans.len()
    }

    /// An interned held-lock sequence, in first-acquisition order.
    pub fn seq(&self, id: SeqId) -> &[DescId] {
        let (start, len) = self.seq_spans[id as usize];
        &self.seq_locks[start as usize..(start + len) as usize]
    }

    /// The aggregated observations of one member, if observed.
    pub fn member(&self, member: u32) -> Option<&MemberObs> {
        self.members
            .binary_search_by_key(&member, |m| m.member)
            .ok()
            .map(|i| &self.members[i])
    }
}

/// One index per [`TraceDb`]; see the module docs.
#[derive(Debug)]
pub struct EvidenceIndex<'db> {
    db: &'db TraceDb,
    locks: Vec<LockDescriptor>,
    groups: Vec<GroupEvidence>,
}

impl<'db> EvidenceIndex<'db> {
    /// Builds the index: one pass over the access table splits rows by
    /// group, then each group resolves its units and takes its rows.
    pub fn build(db: &'db TraceDb) -> Self {
        let (locks, lock_ids) = lock_table(db);
        let mut slot: FastMap<GroupKey, usize> = FastMap::default();
        let mut split: Vec<(GroupKey, Vec<u32>)> = Vec::new();
        for (row, a) in db.accesses.iter().enumerate() {
            let key = (a.data_type, a.subclass);
            let i = *slot.entry(key).or_insert_with(|| {
                split.push((key, Vec::new()));
                split.len() - 1
            });
            split[i]
                .1
                .push(u32::try_from(row).expect("access row ids fit in u32"));
        }
        split.sort_unstable_by_key(|(key, _)| *key);
        let groups = split
            .into_iter()
            .map(|(key, rows)| build_group(db, &lock_ids, &locks, key, rows))
            .collect();
        Self { db, locks, groups }
    }

    /// The indexed database.
    pub fn db(&self) -> &'db TraceDb {
        self.db
    }

    /// The interned lock table, sorted: a descriptor's id is its index.
    pub fn locks(&self) -> &[LockDescriptor] {
        &self.locks
    }

    /// The id of a descriptor, if any lock of the trace resolves to it.
    pub fn lock_id(&self, lock: &LockDescriptor) -> Option<DescId> {
        self.locks.binary_search(lock).ok().map(|i| i as DescId)
    }

    /// Materializes a sequence of descriptor ids.
    pub fn materialize(&self, ids: &[DescId]) -> Vec<LockDescriptor> {
        ids.iter()
            .map(|&id| self.locks[id as usize].clone())
            .collect()
    }

    /// Every observation group with at least one access, in
    /// [`TraceDb::observation_groups`] order.
    pub fn groups(&self) -> &[GroupEvidence] {
        &self.groups
    }

    /// The evidence of one observation group, if it has any access.
    pub fn group(&self, key: GroupKey) -> Option<&GroupEvidence> {
        self.groups
            .binary_search_by_key(&key, |g| g.key)
            .ok()
            .map(|i| &self.groups[i])
    }

    /// The per-trace derivation cache ([`crate::corpus`]): every group's
    /// observation lists, keyed by names.
    pub fn trace_matrix(&self) -> TraceMatrix {
        TraceMatrix {
            groups: self
                .groups
                .iter()
                .map(|g| GroupMatrix {
                    type_name: self.db.type_name(g.key.0).to_owned(),
                    subclass: g.key.1.map(|s| self.db.sym(s).to_owned()),
                    members: g.members.clone(),
                })
                .collect(),
        }
    }
}

/// The descriptor a lock instance resolves to, and for an embedded lock
/// its owner allocation and the descriptor relative to any other object
/// (mirrors [`crate::lockset::resolve_descriptor`]).
fn classify(
    db: &TraceDb,
    lock: &LockInstance,
) -> (LockDescriptor, Option<(AllocId, LockDescriptor)>) {
    let pseudo = match lock.flavor {
        LockFlavor::Rcu => Some("rcu"),
        LockFlavor::Softirq => Some("softirq"),
        LockFlavor::Hardirq => Some("hardirq"),
        _ => None,
    };
    if let Some(name) = pseudo {
        return (LockDescriptor::pseudo(name), None);
    }
    let Some((owner, offset)) = lock.embedded_in else {
        return (LockDescriptor::global(db.sym(lock.name)), None);
    };
    let alloc = db
        .allocation(owner)
        .expect("embedded lock references a known allocation");
    let def = db.data_type(alloc.data_type);
    let member = match def.member_at(offset) {
        Some(i) => def.members[i].name.as_str(),
        None => db.sym(lock.name),
    };
    (
        LockDescriptor::es(member, &def.name),
        Some((owner, LockDescriptor::eo(member, &def.name))),
    )
}

/// The sorted descriptor table and every lock instance's ids in it.
fn lock_table(db: &TraceDb) -> (Vec<LockDescriptor>, Vec<LockIds>) {
    let classified: Vec<_> = db.locks.iter().map(|l| classify(db, l)).collect();
    let mut table: Vec<LockDescriptor> = classified
        .iter()
        .flat_map(|(same, other)| std::iter::once(same).chain(other.as_ref().map(|(_, d)| d)))
        .cloned()
        .collect();
    table.sort_unstable();
    table.dedup();
    let id = |d: &LockDescriptor| table.binary_search(d).expect("descriptor is tabled") as DescId;
    let ids = classified
        .iter()
        .map(|(same, other)| LockIds {
            same: id(same),
            other: id(other.as_ref().map_or(same, |(_, d)| d)),
            owner: other.as_ref().map(|(owner, _)| *owner),
        })
        .collect();
    (table, ids)
}

/// Resolves one group over its access rows: interns every unit's
/// held-lock sequence, folds the access matrix, and aggregates the
/// observation lists.
fn build_group(
    db: &TraceDb,
    lock_ids: &[LockIds],
    locks: &[LockDescriptor],
    key: GroupKey,
    rows: Vec<u32>,
) -> GroupEvidence {
    let mut units: FastMap<Unit, SeqId> = FastMap::default();
    let mut interned: FastMap<Vec<DescId>, SeqId> = FastMap::default();
    let mut seqs: Vec<Vec<DescId>> = Vec::new();
    let mut row_seqs: Vec<SeqId> = Vec::with_capacity(rows.len());
    // (member, unit, is-write, sequence) of every access in a transaction.
    let mut touches: Vec<(u32, Unit, bool, SeqId)> = Vec::with_capacity(rows.len());
    let mut held_ids: Vec<DescId> = Vec::new();
    for &row in &rows {
        let a = db.accesses.get(row as usize);
        let Some(txn) = a.txn else {
            row_seqs.push(NO_UNIT);
            continue;
        };
        let seq = *units.entry((txn, a.alloc)).or_insert_with(|| {
            held_ids.clear();
            for held in db.txn(txn).locks {
                let ids = lock_ids[held.lock.index()];
                let id = if ids.owner == Some(a.alloc) {
                    ids.same
                } else {
                    ids.other
                };
                if !held_ids.contains(&id) {
                    held_ids.push(id);
                }
            }
            match interned.get(held_ids.as_slice()) {
                Some(&s) => s,
                None => {
                    let s = seqs.len() as SeqId;
                    interned.insert(held_ids.clone(), s);
                    seqs.push(held_ids.clone());
                    s
                }
            }
        });
        row_seqs.push(seq);
        touches.push((a.member, (txn, a.alloc), a.kind == AccessKind::Write, seq));
    }

    // Renumber sequences in lexicographic order of their id slices — by
    // the id-order invariant, the order of the descriptor sequences.
    let mut order: Vec<SeqId> = (0..seqs.len() as SeqId).collect();
    order.sort_unstable_by(|&x, &y| seqs[x as usize].cmp(&seqs[y as usize]));
    let mut rank = vec![0 as SeqId; seqs.len()];
    for (r, &old) in order.iter().enumerate() {
        rank[old as usize] = r as SeqId;
    }
    for s in row_seqs.iter_mut().filter(|s| **s != NO_UNIT) {
        *s = rank[*s as usize];
    }
    let mut seq_spans = Vec::with_capacity(seqs.len());
    let mut seq_locks = Vec::new();
    for &old in &order {
        let seq = &seqs[old as usize];
        seq_spans.push((seq_locks.len() as u32, seq.len() as u32));
        seq_locks.extend_from_slice(seq);
    }

    // Fold the touches into cells, member by member and unit by unit:
    // sorted cells bulk-build dense B-trees, and each cell's
    // write-over-read kind counts its unit's sequence once.
    touches.sort_unstable();
    let observations = |ids: &mut Vec<SeqId>| -> Vec<Observation> {
        ids.sort_unstable();
        ids.chunk_by(|x, y| x == y)
            .map(|run| Observation {
                locks: seqs[order[run[0] as usize] as usize]
                    .iter()
                    .map(|&id| locks[id as usize].clone())
                    .collect(),
                count: run.len() as u64,
            })
            .collect()
    };
    let mut matrix = AccessMatrix {
        data_type: key.0,
        subclass: key.1,
        members: BTreeMap::new(),
    };
    let mut members = Vec::new();
    for member_touches in touches.chunk_by(|x, y| x.0 == y.0) {
        let member = member_touches[0].0;
        let (mut read, mut write) = (Vec::new(), Vec::new());
        let cells = member_touches
            .chunk_by(|x, y| x.1 == y.1)
            .map(|cell| {
                let writes = cell.iter().filter(|t| t.2).count() as u64;
                let counts = CellCounts {
                    reads: cell.len() as u64 - writes,
                    writes,
                };
                let seq = rank[cell[0].3 as usize];
                match counts.wor_kind() {
                    Some(AccessKind::Write) => write.push(seq),
                    _ => read.push(seq),
                }
                (cell[0].1, counts)
            })
            .collect();
        matrix.members.insert(member, MemberMatrix { cells });
        members.push(MemberObs {
            member,
            member_name: db.member_name(key.0, member).to_owned(),
            read: observations(&mut read),
            write: observations(&mut write),
        });
    }

    GroupEvidence {
        key,
        name: db.group_name(key),
        rows,
        row_seqs,
        seq_spans,
        seq_locks,
        matrix,
        members,
    }
}
