//! The rule-violation finder (paper Sec. 5.5, evaluated in Sec. 7.5):
//! locates memory accesses that contradict the mined locking rules and
//! reports everything a developer needs to investigate — member, required
//! locks, actually held locks, source location, and stack trace.
//!
//! The scan reads the shared [`crate::evidence::EvidenceIndex`]: each
//! access's held locks are its unit's interned descriptor-id sequence,
//! and write-over-read folding reads the row's bit. A row finds its rule
//! in a slot table indexed by `(member, kind)`, and compliance compares
//! id slices. The scan reads the member and kind columns of each row and
//! joins a full access row only for a violating one; descriptors are
//! materialized only for the example events.

use crate::derive::{GroupRules, MinedRules};
use crate::evidence::{DescId, EvidenceIndex};
use crate::hypothesis::complies;
use crate::lockset::LockDescriptor;
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::{AccessKind, ContextKind, SourceLoc};
use lockdoc_trace::ids::StackId;
use std::collections::{BTreeMap, BTreeSet};

/// One rule-violating memory access.
#[derive(Debug, Clone, PartialEq)]
pub struct ViolationEvent {
    /// Observation group, e.g. `inode:ext4`.
    pub group_name: String,
    /// Violated member.
    pub member_name: String,
    /// Access kind.
    pub kind: AccessKind,
    /// The locks the mined rule requires.
    pub required: Vec<LockDescriptor>,
    /// The locks actually held (in acquisition order).
    pub held: Vec<LockDescriptor>,
    /// Source location of the access.
    pub loc: SourceLoc,
    /// Stack trace id (resolve via [`TraceDb::format_stack`]).
    pub stack: StackId,
    /// Row id of the offending access.
    pub access_id: u64,
}

/// Per-member, per-kind violation tallies (consumed by the consistency
/// lint, [`crate::lint`], to join violations with race reports).
#[derive(Debug, Clone, PartialEq)]
pub struct MemberViolationCounts {
    /// Member name.
    pub member_name: String,
    /// Access kind of the violated rule.
    pub kind: AccessKind,
    /// Violating events of this member/kind.
    pub events: u64,
    /// How many of them ran in an interrupt-like context.
    pub irq_events: u64,
}

/// Violation summary for one observation group (one row of paper Tab. 7).
#[derive(Debug, Clone, PartialEq)]
pub struct GroupViolations {
    /// Group name.
    pub group_name: String,
    /// Total violating access events.
    pub events: u64,
    /// Distinct members involved.
    pub members: BTreeSet<String>,
    /// Distinct contexts: `(source location, stack trace)` pairs.
    pub contexts: BTreeSet<(SourceLoc, StackId)>,
    /// Per-member, per-kind tallies, ordered by member name then kind.
    pub per_member: Vec<MemberViolationCounts>,
    /// Example events (capped by the `max_examples` argument).
    pub examples: Vec<ViolationEvent>,
}

impl GroupViolations {
    /// Number of distinct contexts.
    pub fn context_count(&self) -> usize {
        self.contexts.len()
    }
}

/// Scans the trace for accesses violating the mined rules.
///
/// Only rules that require locks can be violated; the scan checks every
/// access of a ruled member/kind for order-preserving compliance
/// (paper Sec. 5.4) and collects per-group summaries. `max_examples`
/// bounds the number of fully materialized example events per group.
pub fn find_violations(
    db: &TraceDb,
    mined: &MinedRules,
    max_examples: usize,
) -> Vec<GroupViolations> {
    find_violations_in(&EvidenceIndex::build(db), mined, max_examples)
}

/// [`find_violations`]; `_jobs` is unused, as in
/// [`crate::derive::derive_par`].
pub fn find_violations_par(
    db: &TraceDb,
    mined: &MinedRules,
    max_examples: usize,
    _jobs: usize,
) -> Vec<GroupViolations> {
    find_violations(db, mined, max_examples)
}

/// Scans an evidence index for accesses violating the mined rules, one
/// mined group after another. Mined groups the index does not know
/// (rules mined from another trace) scan no accesses.
pub fn find_violations_in(
    index: &EvidenceIndex<'_>,
    mined: &MinedRules,
    max_examples: usize,
) -> Vec<GroupViolations> {
    let mut slots = Vec::new();
    mined
        .groups
        .iter()
        .map(|group_rules| scan_group(index, group_rules, max_examples, &mut slots))
        .collect()
}

/// A lock-requiring rule: the winner's locks, and their interned ids —
/// `None` when some required lock never occurs in the trace, so no access
/// can comply.
struct Required<'a> {
    /// The rule's `(member, kind)` slot.
    slot: usize,
    locks: &'a Vec<LockDescriptor>,
    ids: Option<Vec<DescId>>,
}

/// `slots` marker for a `(member, kind)` without a lock-requiring rule.
const NO_RULE: u32 = u32::MAX;

/// The dense slot of a `(member, kind)` pair.
fn slot(member: u32, kind: AccessKind) -> usize {
    member as usize * 2 + usize::from(kind == AccessKind::Write)
}

/// Scans one observation group for accesses violating its mined rules.
///
/// `slots` is indexed by [`slot`] and shared by every group: the group
/// points the slots of its rules at them and sets them back to
/// [`NO_RULE`] before it returns, so a group costs time in its rows and
/// rules, not in its type's member count.
fn scan_group(
    index: &EvidenceIndex<'_>,
    group_rules: &GroupRules,
    max_examples: usize,
    slots: &mut Vec<u32>,
) -> GroupViolations {
    let db = index.db();
    let mut gv = GroupViolations {
        group_name: group_rules.group_name.clone(),
        events: 0,
        members: BTreeSet::new(),
        contexts: BTreeSet::new(),
        per_member: Vec::new(),
        examples: Vec::new(),
    };
    let Some(group) = index.group((group_rules.data_type, group_rules.subclass)) else {
        return gv;
    };
    // The rules with locks, each in the slot of its (member, kind).
    let mut required: Vec<Required> = Vec::new();
    for r in &group_rules.rules {
        let locks = &r.winner.hypothesis.locks;
        if locks.is_empty() {
            continue;
        }
        let i = slot(r.member, r.kind);
        if i >= slots.len() {
            slots.resize(i + 1, NO_RULE);
        }
        slots[i] = required.len() as u32;
        let ids = locks.iter().map(|l| index.lock_id(l)).collect();
        required.push(Required {
            slot: i,
            locks,
            ids,
        });
    }
    if required.is_empty() {
        return gv;
    }
    let mut tallies: BTreeMap<(&str, AccessKind), (u64, u64)> = BTreeMap::new();
    for (pos, &row) in group.rows().iter().enumerate() {
        let row = row as usize;
        let rule = slots
            .get(slot(db.accesses.member(row), db.accesses.kind(row)))
            .map_or(NO_RULE, |&r| r);
        if rule == NO_RULE {
            continue;
        }
        // Write-over-read folding (paper Sec. 4.2) applies to the scan as
        // well: a read inside a unit that also writes the member is
        // covered by the write rule (checked via the unit's writes), so
        // it must not be reported against the read rule.
        if group.row_wor(pos) {
            continue;
        }
        let req = &required[rule as usize];
        let held = group.seq(group.row_seq(pos));
        if req.ids.as_ref().is_some_and(|ids| complies(held, ids)) {
            continue;
        }
        let access = db.access(row);
        gv.events += 1;
        let member_name = db.member_name(access.data_type, access.member);
        let tally = tallies.entry((member_name, access.kind)).or_default();
        tally.0 += 1;
        if access.context != ContextKind::Task {
            tally.1 += 1;
        }
        gv.contexts.insert((access.loc, access.stack));
        if gv.examples.len() < max_examples {
            gv.examples.push(ViolationEvent {
                group_name: gv.group_name.clone(),
                member_name: member_name.to_owned(),
                kind: access.kind,
                required: req.locks.clone(),
                held: index.materialize(held),
                loc: access.loc,
                stack: access.stack,
                access_id: access.id,
            });
        }
    }
    for req in &required {
        slots[req.slot] = NO_RULE;
    }
    gv.members = tallies.keys().map(|(name, _)| (*name).to_owned()).collect();
    gv.per_member = tallies
        .into_iter()
        .map(
            |((member_name, kind), (events, irq_events))| MemberViolationCounts {
                member_name: member_name.to_owned(),
                kind,
                events,
                irq_events,
            },
        )
        .collect();
    gv
}

/// Total number of violating events across all groups.
pub fn total_events(violations: &[GroupViolations]) -> u64 {
    violations.iter().map(|v| v.events).sum()
}

/// Total number of distinct contexts across all groups.
pub fn total_contexts(violations: &[GroupViolations]) -> usize {
    violations.iter().map(|v| v.context_count()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;
    use crate::derive::{derive, DeriveConfig};

    #[test]
    fn finds_the_injected_clock_bug() {
        let db = clock_db(1000, 1);
        let mined = derive(&db, &DeriveConfig::default());
        let violations = find_violations(&db, &mined, 10);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        // The faulty run writes minutes without min_lock. The read of
        // minutes in the same transaction carries no read rule (it was
        // folded into the write unit), so exactly one event is flagged.
        assert_eq!(v.events, 1);
        assert!(v.members.contains("minutes"));
        let ex = &v.examples[0];
        assert_eq!(ex.required.len(), 2);
        assert_eq!(ex.held.len(), 1);
        assert_eq!(db.format_stack(ex.stack), "clock_tick_buggy");
    }

    #[test]
    fn clean_trace_has_no_violations() {
        let db = clock_db(600, 0);
        let mined = derive(&db, &DeriveConfig::default());
        let violations = find_violations(&db, &mined, 10);
        assert_eq!(total_events(&violations), 0);
        assert_eq!(total_contexts(&violations), 0);
    }

    #[test]
    fn parallel_scan_matches_serial_exactly() {
        let db = clock_db(2000, 3);
        let mined = derive(&db, &DeriveConfig::default());
        let serial = find_violations(&db, &mined, 5);
        for jobs in [2, 4, 8] {
            assert_eq!(
                find_violations_par(&db, &mined, 5, jobs),
                serial,
                "jobs = {jobs}"
            );
        }
    }

    #[test]
    fn example_cap_limits_materialized_events() {
        // 10000 iterations -> 166 correct roll-overs; 5 faulty runs keep the
        // two-lock rule above the 0.9 threshold (sr = 166/171) while
        // producing 5 violations.
        let db = clock_db(10_000, 5);
        let mined = derive(&db, &DeriveConfig::default());
        let violations = find_violations(&db, &mined, 3);
        let v = &violations[0];
        assert_eq!(v.events, 5);
        assert_eq!(v.examples.len(), 3);
    }
}
