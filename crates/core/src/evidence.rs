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
//! * **Rows.** Each observation group's access row ids, ascending. An
//!   access's group is its allocation's, so the split maps each
//!   allocation row to its group once, at the allocation's first access,
//!   and every other row costs an array load.
//! * **Lock table.** Every lock descriptor any lock instance can resolve
//!   to, sorted and deduplicated, so a descriptor's id is its rank:
//!   *id order equals [`LockDescriptor`]'s `Ord`*. Every lock instance's
//!   id is precomputed — one id for a global or pseudo lock, an
//!   `ES`/`EO` pair plus the owner allocation for an embedded lock — so
//!   resolving a held lock relative to the accessed object is a compare
//!   and a load, never a string build.
//! * **Units.** Per row, the held-lock sequence of its `(txn, alloc)`
//!   unit as interned descriptor ids (first-acquisition order,
//!   deduplicated exactly like [`crate::lockset::resolve_txn_locks`]).
//!   Every access lies in a transaction, so every row has a unit.
//!   Sequence ids are assigned in lexicographic order of their id slices,
//!   which by the id-order invariant is the order of the resolved
//!   descriptor sequences. A row finds its unit through a memo indexed by
//!   its [`lockdoc_trace::ids::TxnId`] — the unit of the transaction's
//!   previous access in the group — or, on a miss, a map keyed by the
//!   transaction and allocation rows, so only the first access of a unit
//!   resolves held locks.
//! * **Write-over-read bits.** Per row, whether it is a read whose unit
//!   also writes the member — the one question the violation scan asks
//!   of the paper's access matrix ([`crate::matrix::AccessMatrix`], which
//!   the index does not keep).
//! * **Observations.** Per `(group, member, kind)`, the aggregated
//!   [`Observation`] list after write-over-read folding, sorted by lock
//!   sequence — exactly [`crate::hypothesis::observations_for`].
//!
//! The build reads only the access table's allocation, transaction,
//! member and kind columns. Descriptors are materialized only for output:
//! observation lists, violation examples and race witnesses.

use crate::corpus::{GroupMatrix, MemberObs, TraceMatrix};
use crate::hypothesis::Observation;
use crate::lockset::LockDescriptor;
use lockdoc_platform::hash::FastMap;
use lockdoc_trace::db::{LockInstance, TraceDb};
use lockdoc_trace::event::{AccessKind, LockFlavor};
use lockdoc_trace::ids::{DataTypeId, Sym};

/// Interned lock descriptor: an index into [`EvidenceIndex::locks`].
pub type DescId = u32;

/// Interned held-lock sequence of one group: an index into
/// [`GroupEvidence::seq`].
pub type SeqId = u32;

/// An observation group: `(data type, subclass)`.
pub type GroupKey = (DataTypeId, Option<Sym>);

/// The descriptor ids one lock instance resolves to.
#[derive(Debug, Clone, Copy)]
struct LockIds {
    /// The id when the accessed allocation owns the lock (`ES`), or the
    /// only id of a global or pseudo lock.
    same: DescId,
    /// The id relative to any other allocation (`EO`).
    other: DescId,
    /// The row of the allocation embedding the lock, if any.
    owner: Option<u32>,
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
    /// Per row (parallel to `rows`): the sequence of its unit.
    row_seqs: Vec<SeqId>,
    /// Per row (parallel to `rows`): whether it is a read that
    /// write-over-read folding covers.
    row_wor: Vec<bool>,
    /// `(offset, len)` of each interned sequence in `seq_locks`.
    seq_spans: Vec<(u32, u32)>,
    /// Arena of interned sequences.
    seq_locks: Vec<DescId>,
    /// Aggregated observations per observed member, ascending.
    pub members: Vec<MemberObs>,
}

impl GroupEvidence {
    /// The group's access row ids, ascending.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// The held-lock sequence id of the unit of the `pos`-th row of
    /// [`Self::rows`].
    pub fn row_seq(&self, pos: usize) -> SeqId {
        self.row_seqs[pos]
    }

    /// Whether the `pos`-th row of [`Self::rows`] is a read whose unit
    /// also writes the member: write-over-read folding (paper Sec. 4.2)
    /// counts that unit as a write, so the read rule does not govern it.
    pub fn row_wor(&self, pos: usize) -> bool {
        self.row_wor[pos]
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
    /// Builds the index: one pass over the access table's allocation
    /// column splits rows by group, then each group resolves its units and
    /// takes its rows.
    pub fn build(db: &'db TraceDb) -> Self {
        let (locks, lock_ids) = lock_table(db);
        let mut slot: FastMap<GroupKey, u32> = FastMap::default();
        let mut split: Vec<(GroupKey, Vec<u32>)> = Vec::new();
        // Per allocation row: its group's slot in `split`, set at the
        // allocation's first access.
        let mut alloc_slot = vec![NO_SLOT; db.allocations.len()];
        for row in 0..db.accesses.len() {
            let alloc = db.accesses.alloc_row(row) as usize;
            if alloc_slot[alloc] == NO_SLOT {
                let a = &db.allocations[alloc];
                let key = (a.data_type, a.subclass);
                alloc_slot[alloc] = *slot.entry(key).or_insert_with(|| {
                    split.push((key, Vec::new()));
                    split.len() as u32 - 1
                });
            }
            split[alloc_slot[alloc] as usize]
                .1
                .push(u32::try_from(row).expect("access row ids fit in u32"));
        }
        split.sort_unstable_by_key(|(key, _)| *key);
        let mut scratch = Scratch {
            unit_heads: vec![NO_SLOT; db.txns.len()],
            read: Vec::new(),
            write: Vec::new(),
        };
        let groups = split
            .into_iter()
            .map(|(key, rows)| build_group(db, &lock_ids, &locks, key, rows, &mut scratch))
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
/// its owner's allocation row and the descriptor relative to any other
/// object (mirrors [`crate::lockset::resolve_descriptor`]).
fn classify(db: &TraceDb, lock: &LockInstance) -> (LockDescriptor, Option<(u32, LockDescriptor)>) {
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
    let row = db
        .allocation_row(owner)
        .expect("embedded lock references a known allocation");
    let def = db.data_type(db.allocations[row].data_type);
    let member = match def.member_at(offset) {
        Some(i) => def.members[i].name.as_str(),
        None => db.sym(lock.name),
    };
    (
        LockDescriptor::es(member, &def.name),
        Some((row as u32, LockDescriptor::eo(member, &def.name))),
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

/// One observation unit `(txn, alloc)` of the group being built, by
/// transaction and allocation row.
struct UnitSlot {
    txn: usize,
    alloc: u32,
    /// The unit's held-lock sequence, in first-seen numbering.
    seq: SeqId,
}

/// `unit_heads` and allocation-slot marker: none yet.
const NO_SLOT: u32 = u32::MAX;

/// Tables indexed by a dense id of the trace, shared by every group and
/// left clear between groups, so a group costs time in its own rows, not
/// in the trace's transaction or member counts.
struct Scratch {
    /// The unit memo: per transaction, the unit its latest access in the
    /// group being built resolved to, or [`NO_SLOT`].
    unit_heads: Vec<u32>,
    /// Per member: the sequences of the group's read cells.
    read: Vec<Vec<SeqId>>,
    /// Per member: the sequences of the group's write cells.
    write: Vec<Vec<SeqId>>,
}

/// Resolves one group over its access rows: interns every unit's
/// held-lock sequence, folds each unit's accesses member by member into
/// write-over-read cells, and aggregates the observation lists.
///
/// A row finds its unit through the memo: consecutive accesses of a
/// transaction overwhelmingly target the same object, so such an access
/// takes the head with one load and a compare; any other asks the map
/// keyed by transaction and allocation row. Only the first access of a
/// unit resolves held locks.
fn build_group(
    db: &TraceDb,
    lock_ids: &[LockIds],
    locks: &[LockDescriptor],
    key: GroupKey,
    rows: Vec<u32>,
    scratch: &mut Scratch,
) -> GroupEvidence {
    let unit_heads = &mut scratch.unit_heads;
    let mut units: Vec<UnitSlot> = Vec::new();
    let mut unit_of: FastMap<(usize, u32), u32> = FastMap::default();
    let mut interned: FastMap<Vec<DescId>, SeqId> = FastMap::default();
    let mut seqs: Vec<Vec<DescId>> = Vec::new();
    // Per row: its unit, member and kind.
    let mut row_units: Vec<u32> = Vec::with_capacity(rows.len());
    let mut row_members: Vec<u32> = Vec::with_capacity(rows.len());
    let mut row_writes: Vec<bool> = Vec::with_capacity(rows.len());
    let mut held_ids: Vec<DescId> = Vec::new();
    let accesses = &db.accesses;
    for &row in &rows {
        let row = row as usize;
        row_members.push(accesses.member(row));
        row_writes.push(accesses.kind(row) == AccessKind::Write);
        let txn = accesses.txn(row).index();
        let alloc = accesses.alloc_row(row);
        let head = unit_heads[txn];
        let unit = if head != NO_SLOT && units[head as usize].alloc == alloc {
            head
        } else {
            *unit_of.entry((txn, alloc)).or_insert_with(|| {
                held_ids.clear();
                for held in db.txns.get(txn).locks {
                    let ids = lock_ids[held.lock.index()];
                    let id = if ids.owner == Some(alloc) {
                        ids.same
                    } else {
                        ids.other
                    };
                    if !held_ids.contains(&id) {
                        held_ids.push(id);
                    }
                }
                let seq = match interned.get(held_ids.as_slice()) {
                    Some(&s) => s,
                    None => {
                        let s = seqs.len() as SeqId;
                        interned.insert(held_ids.clone(), s);
                        seqs.push(held_ids.clone());
                        s
                    }
                };
                units.push(UnitSlot { txn, alloc, seq });
                u32::try_from(units.len() - 1).expect("unit ids fit in u32")
            })
        };
        unit_heads[txn] = unit;
        row_units.push(unit);
    }
    for unit in &units {
        unit_heads[unit.txn] = NO_SLOT;
    }

    // Renumber sequences in lexicographic order of their id slices — by
    // the id-order invariant, the order of the descriptor sequences.
    let mut order: Vec<SeqId> = (0..seqs.len() as SeqId).collect();
    order.sort_unstable_by(|&x, &y| seqs[x as usize].cmp(&seqs[y as usize]));
    let mut rank = vec![0 as SeqId; seqs.len()];
    for (r, &old) in order.iter().enumerate() {
        rank[old as usize] = r as SeqId;
    }
    let row_seqs = row_units
        .iter()
        .map(|&u| rank[units[u as usize].seq as usize])
        .collect();
    let mut seq_spans = Vec::with_capacity(seqs.len());
    let mut seq_locks = Vec::new();
    for &old in &order {
        let seq = &seqs[old as usize];
        seq_spans.push((seq_locks.len() as u32, seq.len() as u32));
        seq_locks.extend_from_slice(seq);
    }

    // Bucket the rows by unit — unit ids are dense, so a counting sort —
    // each bucket in row order.
    let mut bucket_start = vec![0u32; units.len() + 1];
    for &u in &row_units {
        bucket_start[u as usize + 1] += 1;
    }
    for i in 1..bucket_start.len() {
        bucket_start[i] += bucket_start[i - 1];
    }
    let mut fill = bucket_start.clone();
    let mut by_unit = vec![0u32; bucket_start[units.len()] as usize];
    for (pos, &u) in row_units.iter().enumerate() {
        by_unit[fill[u as usize] as usize] = pos as u32;
        fill[u as usize] += 1;
    }

    // Fold each unit's rows into cells, one per member: a cell with a
    // write counts its unit's sequence once as a write observation and
    // marks its reads write-over-read; any other cell counts it once as a
    // read observation.
    let n_members = db.data_type(key.0).members.len();
    if scratch.read.len() < n_members {
        scratch.read.resize_with(n_members, Vec::new);
        scratch.write.resize_with(n_members, Vec::new);
    }
    let (read, write) = (&mut scratch.read, &mut scratch.write);
    let mut observed: Vec<u32> = Vec::new();
    let mut row_wor = vec![false; rows.len()];
    let mut cell_keys: Vec<u64> = Vec::new();
    for (u, unit) in units.iter().enumerate() {
        let bucket = &by_unit[bucket_start[u] as usize..bucket_start[u + 1] as usize];
        // (member, row position) packed, so sorting groups the cells.
        cell_keys.clear();
        cell_keys.extend(
            bucket
                .iter()
                .map(|&pos| u64::from(row_members[pos as usize]) << 32 | u64::from(pos)),
        );
        cell_keys.sort_unstable();
        let seq = rank[unit.seq as usize];
        for cell in cell_keys.chunk_by(|x, y| x >> 32 == y >> 32) {
            let member = (cell[0] >> 32) as usize;
            if read[member].is_empty() && write[member].is_empty() {
                observed.push(member as u32);
            }
            let positions = cell.iter().map(|&k| k as u32 as usize);
            if positions.clone().any(|pos| row_writes[pos]) {
                write[member].push(seq);
                for pos in positions.filter(|&pos| !row_writes[pos]) {
                    row_wor[pos] = true;
                }
            } else {
                read[member].push(seq);
            }
        }
    }

    let observations = |mut ids: Vec<SeqId>| -> Vec<Observation> {
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
    observed.sort_unstable();
    let members = observed
        .into_iter()
        .map(|member| MemberObs {
            member,
            member_name: db.member_name(key.0, member).to_owned(),
            read: observations(std::mem::take(&mut read[member as usize])),
            write: observations(std::mem::take(&mut write[member as usize])),
        })
        .collect();

    GroupEvidence {
        key,
        name: db.group_name(key),
        rows,
        row_seqs,
        row_wor,
        seq_spans,
        seq_locks,
        members,
    }
}
