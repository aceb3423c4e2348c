//! The locking-rule derivator (paper Sec. 5.4): end-to-end rule mining over
//! an imported trace.
//!
//! For every observation group `(data type, subclass)` and every observed
//! member, the derivator takes the aggregated observations per access kind
//! (after write-over-read folding), enumerates hypotheses, and selects a
//! winner per the configured strategy.
//!
//! The observations come from the shared
//! [`crate::evidence::EvidenceIndex`], which resolves every observation
//! unit's held locks once for all passes; [`derive`] builds the index and
//! [`derive_in`] mines an existing one, group after group. The same
//! per-group miner runs over merged per-trace observations in
//! [`crate::corpus::derive_corpus`] and [`derive_pooled`].

use crate::corpus::{merge_members, MemberObs};
use crate::evidence::{EvidenceIndex, GroupKey};
use crate::hypothesis::{enumerate, Hypothesis};
use crate::select::{select, SelectionConfig, Winner};
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::AccessKind;
use lockdoc_trace::ids::{DataTypeId, Sym};
use std::collections::BTreeMap;

/// Derivation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeriveConfig {
    /// Winner-selection parameters (threshold `t_ac` and strategy).
    pub selection: SelectionConfig,
    /// Cut-off threshold `t_co`: hypotheses below this relative support are
    /// omitted from reports (they are still considered during selection).
    pub cutoff: f64,
    /// Minimum number of observation units required to emit a rule at all;
    /// members observed fewer times produce no rule (paper: members never
    /// triggered by the benchmark are reported as "not observed").
    pub min_units: u64,
}

impl Default for DeriveConfig {
    fn default() -> Self {
        Self {
            selection: SelectionConfig::default(),
            cutoff: 0.05,
            min_units: 1,
        }
    }
}

impl DeriveConfig {
    /// LockDoc defaults with a custom accept threshold.
    pub fn with_threshold(t_ac: f64) -> Self {
        Self {
            selection: SelectionConfig::with_threshold(t_ac),
            ..Self::default()
        }
    }
}

/// The mined rule for one `(member, access kind)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedRule {
    /// Member index in the type layout.
    pub member: u32,
    /// Member name (denormalized for reporting).
    pub member_name: String,
    /// Access kind.
    pub kind: AccessKind,
    /// Number of observation units (the `sr` denominator).
    pub total_units: u64,
    /// The selected winning hypothesis.
    pub winner: Winner,
    /// All hypotheses with relative support at or above the cut-off,
    /// sorted by descending support.
    pub hypotheses: Vec<Hypothesis>,
}

/// All mined rules of one observation group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupRules {
    /// The data type.
    pub data_type: DataTypeId,
    /// Subclass discriminator.
    pub subclass: Option<Sym>,
    /// Display name, e.g. `inode:ext4`.
    pub group_name: String,
    /// Rules per observed member and kind, ordered by member then kind.
    pub rules: Vec<MinedRule>,
    /// Sum over this group's hypothesis sets of the observation units whose
    /// held-lock sequence exceeded the enumeration cap (see
    /// [`crate::hypothesis::MAX_SEQ_LEN`]): their evidence is kept in full,
    /// but hypotheses longer than the cap were not enumerated for them.
    pub truncated_units: u64,
}

impl GroupRules {
    /// Finds the rule for a member name and access kind.
    pub fn rule_for(&self, member_name: &str, kind: AccessKind) -> Option<&MinedRule> {
        self.rules
            .iter()
            .find(|r| r.member_name == member_name && r.kind == kind)
    }

    /// Count of rules whose winner is "no lock needed".
    pub fn no_lock_count(&self, kind: AccessKind) -> usize {
        self.rules
            .iter()
            .filter(|r| r.kind == kind && r.winner.is_no_lock())
            .count()
    }

    /// Count of rules for an access kind.
    pub fn rule_count(&self, kind: AccessKind) -> usize {
        self.rules.iter().filter(|r| r.kind == kind).count()
    }

    /// Distinct members with at least one mined rule. Rules are ordered
    /// by member, so counting ascents is enough.
    pub fn observed_member_count(&self) -> usize {
        let mut count = 0;
        let mut last = None;
        for rule in &self.rules {
            if last != Some(rule.member) {
                count += 1;
                last = Some(rule.member);
            }
        }
        count
    }
}

/// The full result of a derivation run.
#[derive(Debug, Clone, PartialEq)]
pub struct MinedRules {
    /// Per-group rule sets, in deterministic group order.
    pub groups: Vec<GroupRules>,
    /// The configuration used.
    pub config: DeriveConfig,
}

impl MinedRules {
    /// Finds a group by display name (e.g. `inode:ext4`).
    pub fn group(&self, name: &str) -> Option<&GroupRules> {
        self.groups.iter().find(|g| g.group_name == name)
    }

    /// Total number of mined rules across all groups.
    pub fn rule_count(&self) -> usize {
        self.groups.iter().map(|g| g.rules.len()).sum()
    }

    /// Distinct members with at least one mined rule, summed over groups.
    pub fn observed_member_count(&self) -> usize {
        self.groups
            .iter()
            .map(GroupRules::observed_member_count)
            .sum()
    }

    /// Rule-relevant members declared by the observed groups' type
    /// layouts (lock and atomic members are excluded: the import filter
    /// drops their accesses, so they can never be observed). The
    /// difference to [`Self::observed_member_count`] is the
    /// zero-observation count the fuzzing feedback signal minimizes.
    pub fn declared_member_count(&self, db: &TraceDb) -> usize {
        self.groups
            .iter()
            .map(|g| {
                db.data_type(g.data_type)
                    .members
                    .iter()
                    .filter(|m| !m.is_lock && !m.atomic)
                    .count()
            })
            .sum()
    }
}

/// Mines one group's rules from its members' aggregated observations:
/// members ascending, `Read` then `Write`, the `min_units` gate before
/// anything counts, truncation units summed only for emitted rules.
pub(crate) fn mine_group(
    key: GroupKey,
    group_name: String,
    members: &[MemberObs],
    config: &DeriveConfig,
) -> GroupRules {
    let mut rules = Vec::new();
    let mut truncated_units = 0u64;
    for m in members {
        for kind in [AccessKind::Read, AccessKind::Write] {
            let obs = m.observations(kind);
            let total: u64 = obs.iter().map(|o| o.count).sum();
            if total < config.min_units || total == 0 {
                continue;
            }
            let set = enumerate(m.member, kind, obs);
            truncated_units += set.truncated;
            let winner =
                select(&set, &config.selection).expect("enumerated sets always have a winner");
            let hypotheses = set
                .hypotheses
                .iter()
                .filter(|h| h.sr >= config.cutoff)
                .cloned()
                .collect();
            rules.push(MinedRule {
                member: m.member,
                member_name: m.member_name.clone(),
                kind,
                total_units: set.total,
                winner,
                hypotheses,
            });
        }
    }
    GroupRules {
        data_type: key.0,
        subclass: key.1,
        group_name,
        rules,
        truncated_units,
    }
}

/// Derives type-wide rules with all subclasses pooled (one group per data
/// type). This is the granularity the Linux documentation speaks at; the
/// subclassing ablation experiment compares it with [`derive`]. An
/// allocation belongs to exactly one subclass, so no observation unit
/// spans groups and a type's pooled observations are its groups' lists
/// summed per lock sequence.
pub fn derive_pooled(db: &TraceDb, config: &DeriveConfig) -> MinedRules {
    let index = EvidenceIndex::build(db);
    let mut by_type: BTreeMap<DataTypeId, Vec<&[MemberObs]>> = BTreeMap::new();
    for g in index.groups() {
        by_type.entry(g.key.0).or_default().push(&g.members);
    }
    let groups = by_type
        .into_iter()
        .map(|(dtid, lists)| {
            let members = merge_members(lists);
            let name = db.type_name(dtid).to_owned();
            mine_group((dtid, None), name, &members, config)
        })
        .collect();
    MinedRules {
        groups,
        config: *config,
    }
}

/// Derives rules for every observation group in the database: builds the
/// evidence index and mines it.
pub fn derive(db: &TraceDb, config: &DeriveConfig) -> MinedRules {
    derive_in(&EvidenceIndex::build(db), config)
}

/// [`derive`]; `_jobs` is unused, as in [`lockdoc_trace::db::import`]:
/// derivation is serial at any worker count (DESIGN.md §5.10).
pub fn derive_par(db: &TraceDb, config: &DeriveConfig, _jobs: usize) -> MinedRules {
    derive(db, config)
}

/// Derives rules for every group of an evidence index, one group after
/// another.
pub fn derive_in(index: &EvidenceIndex<'_>, config: &DeriveConfig) -> MinedRules {
    let groups = index
        .groups()
        .iter()
        .map(|g| mine_group(g.key, g.name.clone(), &g.members, config))
        .collect();
    MinedRules {
        groups,
        config: *config,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;
    use crate::lockset::LockDescriptor;

    /// End-to-end on the paper's clock example (Fig. 4): 1000 iterations,
    /// one buggy variant without `min_lock`.
    #[test]
    fn derives_clock_rules_end_to_end() {
        let db = clock_db(1000, 1);
        let mined = derive(&db, &DeriveConfig::default());
        let group = mined.group("clock").expect("clock group exists");

        let min_w = group
            .rule_for("minutes", AccessKind::Write)
            .expect("minutes write rule");
        assert_eq!(min_w.total_units, 17, "16 correct + 1 faulty txn");
        assert_eq!(
            min_w.winner.hypothesis.locks,
            vec![
                LockDescriptor::global("sec_lock"),
                LockDescriptor::global("min_lock")
            ]
        );
        assert_eq!(min_w.winner.hypothesis.sa, 16);

        let sec_w = group
            .rule_for("seconds", AccessKind::Write)
            .expect("seconds write rule");
        assert_eq!(
            sec_w.winner.hypothesis.locks,
            vec![LockDescriptor::global("sec_lock")]
        );
        assert!((sec_w.winner.hypothesis.sr - 1.0).abs() < 1e-9);
    }

    #[test]
    fn min_units_suppresses_sparse_members() {
        let db = clock_db(1000, 1);
        let config = DeriveConfig {
            min_units: 100,
            ..DeriveConfig::default()
        };
        let mined = derive(&db, &config);
        let group = mined.group("clock").unwrap();
        // minutes is only written 17 times -> suppressed.
        assert!(group.rule_for("minutes", AccessKind::Write).is_none());
        // seconds is written ~1017 times -> kept.
        assert!(group.rule_for("seconds", AccessKind::Write).is_some());
    }

    /// `derive_par` must be output-identical to the serial path at any
    /// worker count.
    #[test]
    fn parallel_derivation_matches_serial_exactly() {
        let db = clock_db(500, 2);
        let config = DeriveConfig::default();
        let serial = derive(&db, &config);
        for jobs in [2, 3, 4, 8, 32] {
            assert_eq!(derive_par(&db, &config, jobs), serial, "jobs = {jobs}");
        }
    }

    /// Without subclasses every data type is one group, so pooling
    /// changes nothing.
    #[test]
    fn pooling_without_subclasses_is_the_identity() {
        let db = clock_db(500, 2);
        let config = DeriveConfig::default();
        assert_eq!(derive_pooled(&db, &config), derive(&db, &config));
    }

    #[test]
    fn cutoff_trims_reported_hypotheses() {
        let db = clock_db(1000, 1);
        let config = DeriveConfig {
            cutoff: 0.99,
            ..DeriveConfig::default()
        };
        let mined = derive(&db, &config);
        let rule = mined
            .group("clock")
            .unwrap()
            .rule_for("minutes", AccessKind::Write)
            .unwrap();
        // Only hypotheses with sr >= 0.99 survive in the report list.
        assert!(rule.hypotheses.iter().all(|h| h.sr >= 0.99));
        // But the winner (sr = 94.1 %) was still selected before trimming.
        assert_eq!(rule.winner.hypothesis.locks.len(), 2);
    }
}
