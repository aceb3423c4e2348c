//! Trace-based lockset (Eraser-style) race detection.
//!
//! The paper's rule-violation finder (Sec. 5.5) reports accesses that
//! contradict the *mined* rules; whether such an access can actually
//! race is triaged by hand (Sec. 6.4 discusses the false-positive
//! classes). This module automates that triage with the classic Eraser
//! lockset algorithm refined by the flow/context structure the importer
//! already reconstructs:
//!
//! * Per member, the **candidate lockset** is the intersection of the
//!   effective locksets of all its accesses. If it ends up empty and at
//!   least one access was a write, no single lock protected the member.
//! * **Exclusion contexts are pseudo-locks.** IRQ-disabled sections
//!   already appear in the trace as the `softirq`/`hardirq` pseudo-lock
//!   acquisitions ([`LockDescriptor::Pseudo`]), so bottom-half mutual
//!   exclusion falls out of the ordinary intersection. Single-core
//!   *flow* exclusion — two accesses of the same flow can never race
//!   with each other — is encoded the same way: every access implicitly
//!   holds the pseudo-lock of its [`FlowKey`], so members touched by a
//!   single flow keep a non-empty candidate set and are never reported.
//!   Flow pseudo-locks never coincide with real locks, so the effective
//!   intersection is empty exactly when the real locksets' intersection
//!   is empty and at least two flows touched the member; the detector
//!   tests that directly instead of materializing a pseudo-lock per
//!   access. Flows are keyed by identity, not name: two tasks both named
//!   `kworker` are two flows.
//! * A reported candidate carries a **witness pair**: two concrete
//!   accesses from different flows, at least one a write, whose real
//!   locksets are disjoint — everything a developer needs (kind,
//!   context, held locks, source location, stack) to judge the report.
//!   Members whose intersection is empty only collectively (pairwise
//!   lock-sharing, no witness pair) are counted but not reported; see
//!   DESIGN.md §5.4.
//!
//! Real locksets are the sorted descriptor-id sets of the units' interned
//! sequences in the shared [`crate::evidence::EvidenceIndex`], so
//! intersection and disjointness are merges over small integer slices;
//! descriptors are materialized only for witnesses. Like `violation.rs`,
//! the scan visits one observation group after another; a row finds its
//! member's state through a slot table indexed by member.

use crate::evidence::{DescId, EvidenceIndex, GroupEvidence};
use crate::lockset::LockDescriptor;
use lockdoc_platform::hash::{FastMap, FastSet};
use lockdoc_trace::db::{Access, FlowKey, TraceDb};
use lockdoc_trace::event::{AccessKind, ContextKind, SourceLoc};
use lockdoc_trace::ids::{DataTypeId, StackId, Sym};

/// One side of a race witness pair: a fully resolved access.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceAccess {
    /// Access kind.
    pub kind: AccessKind,
    /// Execution context of the access.
    pub context: ContextKind,
    /// Flow name (task name, or `softirq`/`hardirq`).
    pub flow: String,
    /// Real locks held at the access, in acquisition order.
    pub held: Vec<LockDescriptor>,
    /// Source location.
    pub loc: SourceLoc,
    /// Stack trace id (resolve via [`TraceDb::format_stack`]).
    pub stack: StackId,
    /// Row id of the access.
    pub access_id: u64,
}

impl RaceAccess {
    /// True if this side is a write holding no locks at all.
    pub fn is_lock_free_write(&self) -> bool {
        self.kind == AccessKind::Write && self.held.is_empty()
    }
}

/// A counterexample pair: two accesses that can interleave unprotected.
#[derive(Debug, Clone, PartialEq)]
pub struct RacePair {
    /// Earlier access (by trace order).
    pub first: RaceAccess,
    /// Later access.
    pub second: RaceAccess,
}

impl RacePair {
    /// True if either side ran in an interrupt-like context.
    pub fn irq_side(&self) -> bool {
        self.first.context != ContextKind::Task || self.second.context != ContextKind::Task
    }

    /// True if either side is a lock-free write.
    pub fn has_lock_free_write(&self) -> bool {
        self.first.is_lock_free_write() || self.second.is_lock_free_write()
    }
}

/// One racy member: empty candidate lockset plus a concrete witness.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceCandidate {
    /// Observation group name, e.g. `inode:ext4`.
    pub group_name: String,
    /// Member index in the type layout.
    pub member: u32,
    /// Member name (denormalized for reporting).
    pub member_name: String,
    /// Total accesses of the member in this group.
    pub accesses: u64,
    /// Write accesses among them.
    pub writes: u64,
    /// Distinct flows that touched the member.
    pub flows: u64,
    /// The witness pair.
    pub witness: RacePair,
}

/// Race-detection summary for one observation group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRaces {
    /// Group name.
    pub group_name: String,
    /// The data type.
    pub data_type: DataTypeId,
    /// Subclass discriminator.
    pub subclass: Option<Sym>,
    /// Members with at least one access in this group.
    pub members_checked: u64,
    /// Members whose candidate lockset emptied out collectively but for
    /// which no pairwise-disjoint witness pair exists (not reported as
    /// candidates; kept for transparency, see DESIGN.md §5.4).
    pub pairless: u64,
    /// Racy members with witness pairs, ordered by member index.
    pub candidates: Vec<RaceCandidate>,
}

/// The full race report, one entry per observation group.
#[derive(Debug, Clone, PartialEq)]
pub struct RaceReport {
    /// Per-group results in deterministic group order.
    pub groups: Vec<GroupRaces>,
}

impl RaceReport {
    /// Total number of reported race candidates.
    pub fn candidate_count(&self) -> usize {
        self.groups.iter().map(|g| g.candidates.len()).sum()
    }

    /// Total pairless tally across groups: members whose candidate
    /// lockset emptied collectively but that lack a pairwise-disjoint
    /// witness pair. Dark signal for the workload fuzzer (DESIGN §5.5):
    /// a mix that produces a concrete witness converts a pairless entry
    /// into a reported candidate.
    pub fn pairless_total(&self) -> u64 {
        self.groups.iter().map(|g| g.pairless).sum()
    }

    /// Finds a candidate by group name and member name.
    pub fn candidate(&self, group_name: &str, member_name: &str) -> Option<&RaceCandidate> {
        self.groups
            .iter()
            .filter(|g| g.group_name == group_name)
            .flat_map(|g| &g.candidates)
            .find(|c| c.member_name == member_name)
    }

    /// Renders the human-readable report.
    pub fn render(&self, db: &TraceDb) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let members: u64 = self.groups.iter().map(|g| g.members_checked).sum();
        let pairless: u64 = self.groups.iter().map(|g| g.pairless).sum();
        let _ = writeln!(
            out,
            "race detector: {} groups, {} members checked, {} race candidates, {} pairless",
            self.groups.len(),
            members,
            self.candidate_count(),
            pairless
        );
        for group in &self.groups {
            for c in &group.candidates {
                let _ = writeln!(
                    out,
                    "RACE {}.{}: {} accesses ({} writes) across {} flows, candidate lockset empty",
                    c.group_name, c.member_name, c.accesses, c.writes, c.flows
                );
                for side in [&c.witness.first, &c.witness.second] {
                    let _ = writeln!(
                        out,
                        "  - {} at {} [flow {}, {} context, {}] in {}",
                        side.kind,
                        db.format_loc(side.loc),
                        side.flow,
                        side.context,
                        crate::lockset::format_sequence(&side.held),
                        db.format_stack(side.stack)
                    );
                }
            }
        }
        out
    }
}

/// Display name of a flow: the task name, or the IRQ context name.
pub fn flow_name(db: &TraceDb, flow: FlowKey) -> String {
    match flow {
        FlowKey::Task(t) => db
            .meta
            .tasks
            .get(t.index())
            .cloned()
            .unwrap_or_else(|| format!("task{}", t.index())),
        FlowKey::Irq(0) => "softirq".to_owned(),
        FlowKey::Irq(_) => "hardirq".to_owned(),
    }
}

/// Runs the race detector over the trace.
pub fn find_races(db: &TraceDb) -> RaceReport {
    find_races_in(&EvidenceIndex::build(db))
}

/// [`find_races`]; `_jobs` is unused, as in [`crate::derive::derive_par`].
pub fn find_races_par(db: &TraceDb, _jobs: usize) -> RaceReport {
    find_races(db)
}

/// Runs the race detector over an evidence index, one observation group
/// after another.
pub fn find_races_in(index: &EvidenceIndex<'_>) -> RaceReport {
    let mut member_slots = Vec::new();
    RaceReport {
        groups: index
            .groups()
            .iter()
            .map(|g| scan_group(index, g, &mut member_slots))
            .collect(),
    }
}

/// The earliest access of one distinct `(flow, is-write, real lockset)`
/// combination: a witness-pair candidate.
struct Rep<'s> {
    access: Access,
    /// The access's unit sequence (`None` outside any transaction).
    seq: Option<u32>,
    /// The real lockset: sorted descriptor ids.
    locks: &'s [DescId],
}

impl Rep<'_> {
    fn write(&self) -> bool {
        self.access.kind == AccessKind::Write
    }
}

/// Running per-member state.
#[derive(Default)]
struct MemberState<'s> {
    accesses: u64,
    writes: u64,
    flows: FastSet<FlowKey>,
    /// Intersection of the real locksets; `None` until the first access.
    candidate: Option<Vec<DescId>>,
    /// Representative keys seen: `(flow, is-write, lockset id)`.
    seen: FastSet<(FlowKey, bool, u32)>,
    reps: Vec<Rep<'s>>,
}

/// `member_slots` marker: the member has no state in the group.
const NO_MEMBER: u32 = u32::MAX;

/// Scans one observation group. `member_slots` is indexed by member and
/// shared by every group: the group points each member it sees at that
/// member's state and sets the slot back to [`NO_MEMBER`] before it
/// returns, so a group costs time in its rows, not in its type's member
/// count.
fn scan_group(
    index: &EvidenceIndex<'_>,
    group: &GroupEvidence,
    member_slots: &mut Vec<u32>,
) -> GroupRaces {
    let db = index.db();
    // Real locksets as sorted id sets, interned: `sets[set_of[seq]]`;
    // set 0 is the empty set of accesses outside any transaction.
    let mut sets: Vec<Vec<DescId>> = vec![Vec::new()];
    let mut set_ids: FastMap<Vec<DescId>, u32> = FastMap::default();
    set_ids.insert(Vec::new(), 0);
    let set_of: Vec<u32> = (0..group.seq_count() as u32)
        .map(|seq| {
            let mut set = group.seq(seq).to_vec();
            set.sort_unstable();
            *set_ids.entry(set.clone()).or_insert_with(|| {
                sets.push(set);
                sets.len() as u32 - 1
            })
        })
        .collect();

    // The state of every member the group accesses, in first-access order.
    let mut members: Vec<(u32, MemberState)> = Vec::new();
    let n_members = db.data_type(group.key.0).members.len();
    if member_slots.len() < n_members {
        member_slots.resize(n_members, NO_MEMBER);
    }
    for (pos, &row) in group.rows().iter().enumerate() {
        let access = db.accesses.get(row as usize);
        let seq = group.row_seq(pos);
        let set_id = seq.map_or(0, |s| set_of[s as usize]);
        let locks = sets[set_id as usize].as_slice();
        let slot = &mut member_slots[access.member as usize];
        if *slot == NO_MEMBER {
            *slot = members.len() as u32;
            members.push((access.member, MemberState::default()));
        }
        let state = &mut members[*slot as usize].1;
        state.accesses += 1;
        let write = access.kind == AccessKind::Write;
        if write {
            state.writes += 1;
        }
        state.flows.insert(access.flow);
        match &mut state.candidate {
            None => state.candidate = Some(locks.to_vec()),
            Some(cur) => cur.retain(|l| locks.binary_search(l).is_ok()),
        }
        // Representative bookkeeping for witness-pair selection: keep the
        // earliest access per (flow, write, real lockset) combination.
        if state.seen.insert((access.flow, write, set_id)) {
            state.reps.push(Rep { access, seq, locks });
        }
    }

    for &(member, _) in &members {
        member_slots[member as usize] = NO_MEMBER;
    }
    members.sort_unstable_by_key(|&(member, _)| member);

    let mut out = GroupRaces {
        group_name: group.name.clone(),
        data_type: group.key.0,
        subclass: group.key.1,
        members_checked: members.len() as u64,
        pairless: 0,
        candidates: Vec::new(),
    };
    for &(member, ref state) in &members {
        // Empty effective intersection: no real lock in common, and no
        // single flow pseudo-lock held by every access.
        let empty =
            state.candidate.as_ref().is_some_and(|c| c.is_empty()) && state.flows.len() >= 2;
        if !empty || state.writes == 0 {
            continue;
        }
        match best_pair(&state.reps) {
            Some((first, second)) => out.candidates.push(RaceCandidate {
                group_name: group.name.clone(),
                member,
                member_name: db.member_name(group.key.0, member).to_owned(),
                accesses: state.accesses,
                writes: state.writes,
                flows: state.flows.len() as u64,
                witness: RacePair {
                    first: race_access(index, group, first),
                    second: race_access(index, group, second),
                },
            }),
            None => out.pairless += 1,
        }
    }
    out
}

/// Materializes one witness side.
fn race_access(index: &EvidenceIndex<'_>, group: &GroupEvidence, rep: &Rep<'_>) -> RaceAccess {
    let a = &rep.access;
    RaceAccess {
        kind: a.kind,
        context: a.context,
        flow: flow_name(index.db(), a.flow),
        held: rep
            .seq
            .map_or_else(Vec::new, |s| index.materialize(group.seq(s))),
        loc: a.loc,
        stack: a.stack,
        access_id: a.id,
    }
}

/// Whether two sorted id sets share an element.
fn intersects(a: &[DescId], b: &[DescId]) -> bool {
    a.iter().any(|id| b.binary_search(id).is_ok())
}

/// Picks the most damning conflicting pair among the representatives:
/// maximize (lock-free write sides, write sides, task-context sides),
/// breaking ties toward the earliest access ids. Preferring task/task
/// pairs keeps single-core IRQ exclusion caveats out of the primary
/// witness whenever a cleaner pair exists.
fn best_pair<'r, 's>(reps: &'r [Rep<'s>]) -> Option<(&'r Rep<'s>, &'r Rep<'s>)> {
    type PairKey = (u32, u32, u32, std::cmp::Reverse<(u64, u64)>);
    let mut best: Option<(PairKey, &Rep, &Rep)> = None;
    for (i, a) in reps.iter().enumerate() {
        for b in &reps[i + 1..] {
            if a.access.flow == b.access.flow || (!a.write() && !b.write()) {
                continue;
            }
            if intersects(a.locks, b.locks) {
                continue;
            }
            let (first, second) = if a.access.id <= b.access.id {
                (a, b)
            } else {
                (b, a)
            };
            let sides = [first, second];
            let key: PairKey = (
                sides
                    .iter()
                    .filter(|r| r.write() && r.locks.is_empty())
                    .count() as u32,
                sides.iter().filter(|r| r.write()).count() as u32,
                sides
                    .iter()
                    .filter(|r| r.access.context == ContextKind::Task)
                    .count() as u32,
                std::cmp::Reverse((first.access.id, second.access.id)),
            );
            if best.as_ref().is_none_or(|(k, _, _)| key > *k) {
                best = Some((key, first, second));
            }
        }
    }
    best.map(|(_, first, second)| (first, second))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;

    #[test]
    fn clean_clock_trace_has_no_candidates() {
        // The correct clock workload always holds sec_lock/min_lock.
        let db = clock_db(600, 0);
        let report = find_races(&db);
        assert_eq!(report.candidate_count(), 0);
    }

    #[test]
    fn single_flow_trace_is_excluded_by_flow_pseudo_lock() {
        // The buggy run drops the locks entirely for some iterations, but
        // a single task can never race with itself: the flow pseudo-lock
        // keeps the candidate set non-empty.
        let db = clock_db(1000, 5);
        let report = find_races(&db);
        assert_eq!(
            report.candidate_count(),
            0,
            "single-flow accesses must never race"
        );
        assert!(report.groups.iter().all(|g| g.pairless == 0));
    }

    #[test]
    fn parallel_scan_matches_serial_exactly() {
        let db = clock_db(2000, 3);
        let serial = find_races(&db);
        for jobs in [2, 4, 8] {
            assert_eq!(find_races_par(&db, jobs), serial, "jobs = {jobs}");
        }
    }

    /// One member: a task named `names[0]` writes it under `guard`, then
    /// a task named `names[1]` — the same task when `names` has one
    /// entry — writes it with no locks.
    fn guarded_then_lock_free(names: &[&str]) -> TraceDb {
        use lockdoc_trace::event::{AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, Trace};
        use lockdoc_trace::filter::FilterConfig;
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("x.c");
        let guard = tr.meta_mut().strings.intern("guard");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 8,
            members: vec![MemberDef {
                name: "v".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let t0 = tr.meta_mut().add_task(names[0]);
        let t1 = match names.get(1) {
            Some(name) => tr.meta_mut().add_task(name),
            None => t0,
        };
        let loc = |l| SourceLoc::new(file, l);
        let mut ts = 0;
        let mut push = |tr: &mut Trace, e| {
            ts += 1;
            tr.push(ts, e);
        };
        push(
            &mut tr,
            Event::LockInit {
                addr: 0x10,
                name: guard,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
        push(
            &mut tr,
            Event::Alloc {
                id: lockdoc_trace::ids::AllocId(1),
                addr: 0x1000,
                size: 8,
                data_type: dt,
                subclass: None,
            },
        );
        push(&mut tr, Event::TaskSwitch { task: t0 });
        push(
            &mut tr,
            Event::LockAcquire {
                addr: 0x10,
                mode: AcquireMode::Exclusive,
                loc: loc(1),
            },
        );
        push(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc: loc(2),
                atomic: false,
            },
        );
        push(
            &mut tr,
            Event::LockRelease {
                addr: 0x10,
                loc: loc(3),
            },
        );
        push(&mut tr, Event::TaskSwitch { task: t1 });
        push(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc: loc(4),
                atomic: false,
            },
        );
        lockdoc_trace::db::import(&tr, &FilterConfig::with_defaults(), 1)
    }

    /// The candidate lockset empties out and the witness pair must
    /// include the lock-free write.
    #[test]
    fn cross_task_lock_free_write_is_reported_with_witness() {
        let db = guarded_then_lock_free(&["alpha", "beta"]);
        let report = find_races(&db);
        assert_eq!(report.candidate_count(), 1);
        let c = report.candidate("obj", "v").expect("obj.v candidate");
        assert_eq!(c.writes, 2);
        assert_eq!(c.flows, 2);
        let pair = &c.witness;
        assert!(pair.has_lock_free_write());
        assert!(!pair.irq_side());
        let lock_free: Vec<_> = [&pair.first, &pair.second]
            .into_iter()
            .filter(|s| s.is_lock_free_write())
            .collect();
        assert_eq!(lock_free.len(), 1);
        assert_eq!(lock_free[0].flow, "beta");
        assert_eq!(lock_free[0].loc.line, 4);
    }

    /// Single-core flow exclusion: one task's accesses never race, even
    /// when their real locksets share no lock.
    #[test]
    fn one_flow_never_races_with_itself() {
        let report = find_races(&guarded_then_lock_free(&["alpha"]));
        assert_eq!(report.candidate_count(), 0);
        assert_eq!(report.pairless_total(), 0);
    }

    /// Regression: flow exclusion is keyed by flow identity, not by task
    /// name. Two distinct tasks that share a name (`kworker` is common in
    /// kernel traces) are two flows, so the lock-free write still races.
    #[test]
    fn same_named_tasks_are_distinct_flows() {
        let db = guarded_then_lock_free(&["kworker", "kworker"]);
        let report = find_races(&db);
        assert_eq!(report.candidate_count(), 1);
        let c = report.candidate("obj", "v").expect("obj.v candidate");
        assert_eq!(c.flows, 2);
        let pair = &c.witness;
        assert!(pair.has_lock_free_write());
        assert_eq!(pair.first.flow, "kworker");
        assert_eq!(pair.second.flow, "kworker");
    }
}
