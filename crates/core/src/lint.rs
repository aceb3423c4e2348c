//! Cross-pass consistency lint: joins the rule-violation finder, the
//! race detector, the documented-rule checker and the lock-order graph
//! into one ranked finding list.
//!
//! The paper triages its 52 rule-violation findings by hand (Sec. 6.4
//! discusses which ones turn out to be benign). This lint automates the
//! triage by *cross-referencing* the independent passes:
//!
//! * a mined-rule violation whose member also has an **empty candidate
//!   lockset** (see [`crate::race`]) and violating **write** accesses is
//!   promoted to `CONFIRMED` — nothing protected the member and a writer
//!   contradicted the dominant rule;
//! * a violation whose race witness (or whose violating accesses) sit
//!   inside an **exclusion context** (IRQ pseudo-locks, single-core flow
//!   exclusion) is `DOWNGRADED`, mirroring the paper's false-positive
//!   classes;
//! * a race candidate without any mined-rule violation stays `PROBABLE`
//!   (the miner itself picked a no-lock rule, so nothing was violated,
//!   but cross-flow lockless writes remain worth a look);
//! * a violation whose member keeps a non-empty candidate lockset is
//!   `SUSPECT` (some lock was always held — possibly the *wrong* one);
//! * documented rules whose lock sequence contradicts the **dominant
//!   observed acquisition order** are flagged separately, since they
//!   would introduce an inversion if followed literally.
//!
//! [`lint_passes`] runs the whole sequence — check, violations, races,
//! order, lint — over one shared [`crate::evidence::EvidenceIndex`], each
//! pass one loop on the calling thread; `lockdoc lint`, `xcheck --trace`
//! and `serve` all go through it.

use crate::checker::{check_rules_in, CheckedRule, Verdict};
use crate::derive::MinedRules;
use crate::evidence::EvidenceIndex;
use crate::lockset::LockDescriptor;
use crate::order::{LockClass, OrderGraph};
use crate::race::{find_races_in, RacePair, RaceReport};
use crate::rulespec::RuleSpec;
use crate::violation::{find_violations_in, GroupViolations};
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::AccessKind;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Confidence ranking of a lint finding, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rule violation + empty candidate lockset + violating writes.
    Confirmed,
    /// Empty candidate lockset with a write witness, but no (write)
    /// rule violation to pin it on.
    Probable,
    /// Rule violation, but the member keeps a non-empty candidate
    /// lockset (or never leaves one flow) — likely benign or wrong-lock.
    Suspect,
    /// Evidence exists but sits inside an exclusion context (IRQ
    /// pseudo-lock / single-core serialization).
    Downgraded,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Confirmed => "CONFIRMED",
            Severity::Probable => "PROBABLE",
            Severity::Suspect => "SUSPECT",
            Severity::Downgraded => "DOWNGRADED",
        })
    }
}

/// One member-level lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct LintFinding {
    /// Observation group, e.g. `inode:ext4`.
    pub group_name: String,
    /// Member name.
    pub member_name: String,
    /// Confidence ranking.
    pub severity: Severity,
    /// Human-readable one-line justification.
    pub rationale: String,
    /// Mined-rule violating events on the member (all kinds).
    pub violations: u64,
    /// Violating write events among them.
    pub write_violations: u64,
    /// Violating events that ran in an interrupt-like context.
    pub irq_violations: u64,
    /// Whether the race detector reported an empty candidate lockset.
    pub racy: bool,
    /// The race witness pair, when one exists.
    pub witness: Option<RacePair>,
    /// Verdict of the matching documented rule, when one was checked.
    pub doc_verdict: Option<Verdict>,
    /// Deviating sites the static outlier pass reported for this member
    /// (0 when no static evidence was supplied).
    pub static_outliers: u64,
}

/// Per-member evidence from the static outlier analysis (`locksrc`),
/// decoupled from its concrete report type so `lockdoc-core` stays free
/// of a source-analysis dependency; the CLI converts.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticMemberEvidence {
    /// Struct type name (matched against the group's data type).
    pub type_name: String,
    /// Member name.
    pub member_name: String,
    /// Deviating access sites the static pass found.
    pub outliers: u64,
    /// Support ratio of the majority pattern backing them.
    pub confidence: f64,
}

/// The static pass's evidence, as a fourth lint input besides the
/// miner, the checker and the race detector.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StaticEvidence {
    /// Flagged members, any order.
    pub members: Vec<StaticMemberEvidence>,
}

impl StaticEvidence {
    /// Outlier count for a `(type, member)`, 0 when not flagged.
    pub fn outliers_for(&self, type_name: &str, member_name: &str) -> u64 {
        self.members
            .iter()
            .filter(|m| m.type_name == type_name && m.member_name == member_name)
            .map(|m| m.outliers)
            .sum()
    }
}

/// A documented rule whose lock order contradicts the dominant observed
/// acquisition order.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderConflict {
    /// Display form of the documented rule.
    pub rule: String,
    /// Documented earlier lock class.
    pub held_first: String,
    /// Documented later lock class.
    pub held_second: String,
    /// Observed acquisitions in the documented direction.
    pub documented_count: u64,
    /// Observed acquisitions in the opposite (dominant) direction.
    pub dominant_count: u64,
}

/// The full lint report.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// Member findings, most severe first (then group/member order).
    pub findings: Vec<LintFinding>,
    /// Documented rules contradicting the dominant lock order.
    pub order_conflicts: Vec<OrderConflict>,
    /// Observation groups examined.
    pub groups_checked: u64,
}

impl LintReport {
    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// Finds a finding by group and member name.
    pub fn finding(&self, group_name: &str, member_name: &str) -> Option<&LintFinding> {
        self.findings
            .iter()
            .find(|f| f.group_name == group_name && f.member_name == member_name)
    }

    /// Renders the human-readable report.
    pub fn render(&self, db: &TraceDb) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "consistency lint: {} findings ({} confirmed, {} probable, {} suspect, {} downgraded), {} doc-order conflicts",
            self.findings.len(),
            self.count(Severity::Confirmed),
            self.count(Severity::Probable),
            self.count(Severity::Suspect),
            self.count(Severity::Downgraded),
            self.order_conflicts.len()
        );
        for f in &self.findings {
            let statics = if f.static_outliers > 0 {
                format!(", {} static outliers", f.static_outliers)
            } else {
                String::new()
            };
            let _ = writeln!(
                out,
                "{} {}.{}: {} ({} violations, {} writes, {} in irq{statics})",
                f.severity,
                f.group_name,
                f.member_name,
                f.rationale,
                f.violations,
                f.write_violations,
                f.irq_violations
            );
            if let Some(w) = &f.witness {
                for side in [&w.first, &w.second] {
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
            if let Some(v) = &f.doc_verdict {
                let _ = writeln!(out, "  documented rule verdict: {v}");
            }
        }
        for c in &self.order_conflicts {
            let _ = writeln!(
                out,
                "DOC-ORDER: rule '{}' orders {} before {}, but the dominant observed order is the opposite ({}x vs {}x)",
                c.rule, c.held_first, c.held_second, c.dominant_count, c.documented_count
            );
        }
        out
    }
}

/// Everything the lint joins; each input comes from its own pass so
/// callers can share already-computed results (and their jobs setting).
#[derive(Debug, Clone, Copy)]
pub struct LintInputs<'a> {
    /// Mined rules ([`crate::derive`]).
    pub mined: &'a MinedRules,
    /// Documented-rule check results ([`crate::checker`]).
    pub checked: &'a [CheckedRule],
    /// Rule violations ([`crate::violation`]).
    pub violations: &'a [GroupViolations],
    /// Race-detector report ([`crate::race`]).
    pub races: &'a RaceReport,
    /// Lock-order graph ([`crate::order`]).
    pub order: &'a OrderGraph,
    /// Optional static-analysis evidence ([`StaticEvidence`]); members
    /// it flags corroborate dynamic findings (a SUSPECT with static
    /// outliers is promoted to PROBABLE).
    pub statics: Option<&'a StaticEvidence>,
}

/// Every pass the lint joins, and the lint report itself, computed over
/// one evidence index by [`lint_passes`].
#[derive(Debug, Clone, PartialEq)]
pub struct LintPasses {
    /// Documented-rule check results.
    pub checked: Vec<CheckedRule>,
    /// Rule violations, with up to three examples per group (the lint
    /// reads only the tallies).
    pub violations: Vec<GroupViolations>,
    /// Race-detector report.
    pub races: RaceReport,
    /// Lock-order graph.
    pub order: OrderGraph,
    /// The joined, ranked findings.
    pub report: LintReport,
}

/// Violation examples [`lint_passes`] materializes per group.
const LINT_MAX_EXAMPLES: usize = 3;

/// Runs the pass sequence the lint joins — documented-rule check →
/// violations → races → lock order → lint — over one evidence index.
/// `mined` may be derived from the same index or come from elsewhere
/// (corpus-wide rules); `documented` are the rules to check.
pub fn lint_passes(
    index: &EvidenceIndex<'_>,
    mined: &MinedRules,
    documented: &[RuleSpec],
    statics: Option<&StaticEvidence>,
) -> LintPasses {
    let db = index.db();
    let checked = check_rules_in(index, documented);
    let violations = find_violations_in(index, mined, LINT_MAX_EXAMPLES);
    let races = find_races_in(index);
    let order = OrderGraph::build(db);
    let report = lint(
        db,
        &LintInputs {
            mined,
            checked: &checked,
            violations: &violations,
            races: &races,
            order: &order,
            statics,
        },
        1,
    );
    LintPasses {
        checked,
        violations,
        races,
        order,
        report,
    }
}

/// Order-graph class name of a lock descriptor (matches
/// [`crate::order::lock_class`] naming).
fn descriptor_class(desc: &LockDescriptor) -> LockClass {
    let name = match desc {
        LockDescriptor::Global { name } | LockDescriptor::Pseudo { name } => name.clone(),
        LockDescriptor::EmbeddedSame { member, type_name }
        | LockDescriptor::EmbeddedOther { member, type_name } => {
            format!("{member} in {type_name}")
        }
    };
    LockClass { name }
}

/// Runs the consistency lint, one observation group after another;
/// `_jobs` is unused, as in [`crate::derive::derive_par`].
pub fn lint(db: &TraceDb, inputs: &LintInputs<'_>, _jobs: usize) -> LintReport {
    let viol_by_group: HashMap<&str, &GroupViolations> = inputs
        .violations
        .iter()
        .map(|g| (g.group_name.as_str(), g))
        .collect();

    let mut findings: Vec<LintFinding> = Vec::new();
    for group in &inputs.races.groups {
        let viol = viol_by_group.get(group.group_name.as_str());
        // Members with evidence from either pass, in name order.
        let mut names: BTreeSet<&str> = group
            .candidates
            .iter()
            .map(|c| c.member_name.as_str())
            .collect();
        if let Some(v) = viol {
            names.extend(v.per_member.iter().map(|m| m.member_name.as_str()));
        }
        for member_name in names {
            let (mut violations, mut write_violations, mut irq_violations) = (0u64, 0u64, 0u64);
            if let Some(v) = viol {
                for m in v.per_member.iter().filter(|m| m.member_name == member_name) {
                    violations += m.events;
                    irq_violations += m.irq_events;
                    if m.kind == AccessKind::Write {
                        write_violations += m.events;
                    }
                }
            }
            let candidate = group
                .candidates
                .iter()
                .find(|c| c.member_name == member_name);
            let racy = candidate.is_some();
            let witness = candidate.map(|c| c.witness.clone());
            let irq_witness = witness.as_ref().is_some_and(|w| w.irq_side());

            let (severity, rationale) = match (racy, violations > 0) {
                (true, true) if irq_witness => (
                    Severity::Downgraded,
                    "rule violation with empty candidate lockset, but the witness pair \
                     overlaps an IRQ exclusion context"
                        .to_owned(),
                ),
                (true, true) if write_violations > 0 => (
                    Severity::Confirmed,
                    "mined rule violated by writes and no lock (or exclusion context) \
                     ever protected the member"
                        .to_owned(),
                ),
                (true, true) => (
                    Severity::Probable,
                    "read-side rule violations and an empty candidate lockset".to_owned(),
                ),
                (true, false) if irq_witness => (
                    Severity::Downgraded,
                    "empty candidate lockset, but the witness pair overlaps an IRQ \
                     exclusion context"
                        .to_owned(),
                ),
                (true, false) => (
                    Severity::Probable,
                    "empty candidate lockset with a cross-flow write, but the mined \
                     rule itself requires no lock"
                        .to_owned(),
                ),
                (false, true) if irq_violations == violations => (
                    Severity::Downgraded,
                    "rule violations occur only in interrupt context (single-core \
                     exclusion applies)"
                        .to_owned(),
                ),
                (false, true) => (
                    Severity::Suspect,
                    "rule violated, but the member keeps a non-empty candidate \
                     lockset or never leaves one flow"
                        .to_owned(),
                ),
                (false, false) => continue,
            };

            let type_name = db.type_name(group.data_type);
            let static_outliers = inputs
                .statics
                .map_or(0, |s| s.outliers_for(type_name, member_name));
            // The static pass independently blames the member from
            // source: a wrong-lock SUSPECT stops looking benign.
            let (severity, rationale) = if severity == Severity::Suspect && static_outliers > 0 {
                (
                    Severity::Probable,
                    format!("{rationale}; corroborated by the static outlier pass"),
                )
            } else {
                (severity, rationale)
            };
            let subclass = group.subclass.map(|s| db.sym(s).to_owned());
            let doc_verdict = inputs
                .checked
                .iter()
                .filter(|c| {
                    c.rule.type_name == type_name
                        && c.rule.member == member_name
                        && (c.rule.subclass.is_none() || c.rule.subclass == subclass)
                })
                .map(|c| c.verdict)
                .min_by_key(|v| match v {
                    Verdict::Incorrect => 0,
                    Verdict::Ambivalent => 1,
                    Verdict::Correct => 2,
                    Verdict::NotObserved => 3,
                });

            findings.push(LintFinding {
                group_name: group.group_name.clone(),
                member_name: member_name.to_owned(),
                severity,
                rationale,
                violations,
                write_violations,
                irq_violations,
                racy,
                witness,
                doc_verdict,
                static_outliers,
            });
        }
    }
    findings.sort_by_key(|f| f.severity); // stable: keeps group/member order

    LintReport {
        findings,
        order_conflicts: order_conflicts(inputs.checked, inputs.order),
        groups_checked: inputs.races.groups.len() as u64,
    }
}

/// Flags documented rules whose consecutive lock pairs are dominated by
/// the opposite observed acquisition order.
fn order_conflicts(checked: &[CheckedRule], order: &OrderGraph) -> Vec<OrderConflict> {
    let mut out = Vec::new();
    for c in checked {
        for pair in c.rule.locks.windows(2) {
            let a = descriptor_class(&pair[0]);
            let b = descriptor_class(&pair[1]);
            if a == b {
                continue;
            }
            let documented = order
                .edges
                .get(&(a.clone(), b.clone()))
                .map_or(0, |e| e.count);
            let dominant = order
                .edges
                .get(&(b.clone(), a.clone()))
                .map_or(0, |e| e.count);
            if dominant > documented {
                out.push(OrderConflict {
                    rule: c.rule.to_string(),
                    held_first: a.name,
                    held_second: b.name,
                    documented_count: documented,
                    dominant_count: dominant,
                });
            }
        }
    }
    out.sort_by(|x, y| {
        y.dominant_count
            .cmp(&x.dominant_count)
            .then_with(|| x.rule.cmp(&y.rule))
            .then_with(|| x.held_first.cmp(&y.held_first))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::check_rules;
    use crate::clock::clock_db;
    use crate::derive::{derive, DeriveConfig};
    use crate::docgen::generate_rulespec;
    use crate::order::OrderEdge;
    use crate::race::find_races;
    use crate::rulespec::parse_rules;
    use crate::violation::find_violations;

    fn run_lint(db: &lockdoc_trace::db::TraceDb, jobs: usize) -> LintReport {
        let mined = derive(db, &DeriveConfig::default());
        let spec: String = mined.groups.iter().map(generate_rulespec).collect();
        let rules = parse_rules(&spec).expect("generated spec parses");
        let checked = check_rules(db, &rules);
        let violations = find_violations(db, &mined, 3);
        let races = find_races(db);
        let order = OrderGraph::build(db);
        lint(
            db,
            &LintInputs {
                mined: &mined,
                checked: &checked,
                violations: &violations,
                races: &races,
                order: &order,
                statics: None,
            },
            jobs,
        )
    }

    fn run_lint_with_statics(
        db: &lockdoc_trace::db::TraceDb,
        statics: &StaticEvidence,
    ) -> LintReport {
        let mined = derive(db, &DeriveConfig::default());
        let spec: String = mined.groups.iter().map(generate_rulespec).collect();
        let rules = parse_rules(&spec).expect("generated spec parses");
        let checked = check_rules(db, &rules);
        let violations = find_violations(db, &mined, 3);
        let races = find_races(db);
        let order = OrderGraph::build(db);
        lint(
            db,
            &LintInputs {
                mined: &mined,
                checked: &checked,
                violations: &violations,
                races: &races,
                order: &order,
                statics: Some(statics),
            },
            1,
        )
    }

    #[test]
    fn clean_trace_yields_no_findings() {
        let db = clock_db(600, 0);
        let report = run_lint(&db, 1);
        assert!(report.findings.is_empty());
        assert!(report.order_conflicts.is_empty());
    }

    #[test]
    fn single_flow_violation_ranks_suspect_not_confirmed() {
        // The clock bug violates the mined rule, but everything runs in
        // one flow: the race detector's flow pseudo-lock keeps the
        // candidate lockset non-empty, so the lint must not confirm.
        let db = clock_db(1000, 1);
        let report = run_lint(&db, 1);
        let f = report.finding("clock", "minutes").expect("minutes finding");
        assert_eq!(f.severity, Severity::Suspect);
        assert_eq!(f.violations, 1);
        assert!(!f.racy);
        assert!(f.witness.is_none());
        assert!(f.doc_verdict.is_some());
        assert_eq!(report.count(Severity::Confirmed), 0);
    }

    #[test]
    fn static_evidence_promotes_suspect_to_probable() {
        // Same trace as the suspect test; the static pass independently
        // blaming clock.minutes lifts the finding one tier.
        let db = clock_db(1000, 1);
        let statics = StaticEvidence {
            members: vec![StaticMemberEvidence {
                type_name: "clock".to_owned(),
                member_name: "minutes".to_owned(),
                outliers: 2,
                confidence: 0.9,
            }],
        };
        let report = run_lint_with_statics(&db, &statics);
        let f = report.finding("clock", "minutes").expect("minutes finding");
        assert_eq!(f.severity, Severity::Probable);
        assert_eq!(f.static_outliers, 2);
        assert!(f.rationale.contains("static outlier pass"));
        // Unrelated static evidence changes nothing.
        let unrelated = StaticEvidence {
            members: vec![StaticMemberEvidence {
                type_name: "inode".to_owned(),
                member_name: "i_state".to_owned(),
                outliers: 1,
                confidence: 0.9,
            }],
        };
        let report = run_lint_with_statics(&db, &unrelated);
        let f = report.finding("clock", "minutes").expect("minutes finding");
        assert_eq!(f.severity, Severity::Suspect);
        assert_eq!(f.static_outliers, 0);
    }

    #[test]
    fn lint_is_jobs_invariant() {
        let db = clock_db(2000, 3);
        let serial = run_lint(&db, 1);
        for jobs in [2, 4, 8] {
            assert_eq!(run_lint(&db, jobs), serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn documented_order_contradicting_dominant_order_is_flagged() {
        use lockdoc_trace::event::SourceLoc;
        use lockdoc_trace::ids::Sym;
        let class = |n: &str| LockClass { name: n.to_owned() };
        let mut order = OrderGraph::default();
        // Observed: b -> a 40 times, a -> b twice.
        for (from, to, count) in [("lock_b", "lock_a", 40u64), ("lock_a", "lock_b", 2)] {
            order.edges.insert(
                (class(from), class(to)),
                OrderEdge {
                    from: class(from),
                    to: class(to),
                    count,
                    witness: SourceLoc::new(Sym(0), 1),
                },
            );
        }
        // Documented: a before b.
        let rules = parse_rules("obj.v:w = lock_a -> lock_b\n").unwrap();
        let checked: Vec<CheckedRule> = rules
            .into_iter()
            .map(|rule| CheckedRule {
                rule,
                sa: 1,
                total: 1,
                sr: 1.0,
                verdict: Verdict::Correct,
            })
            .collect();
        let conflicts = order_conflicts(&checked, &order);
        assert_eq!(conflicts.len(), 1);
        let c = &conflicts[0];
        assert_eq!(c.held_first, "lock_a");
        assert_eq!(c.held_second, "lock_b");
        assert_eq!(c.documented_count, 2);
        assert_eq!(c.dominant_count, 40);
    }
}
