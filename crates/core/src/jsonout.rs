//! JSON projections of the analysis outputs (`--json` in the CLI).
//!
//! Replaces the former `serde` derives with explicit
//! [`ToJson`]/[`FromJson`] impls from `lockdoc_platform`. Serialization is
//! loss-free for everything the CLI emits: mined rules, checked rules,
//! violation reports, and rule diffs. Field order is fixed, so output is
//! byte-stable run to run.

use crate::checker::{CheckedRule, TypeCheckSummary, Verdict};
use crate::corpus::{CorpusGroupEntry, CorpusRulesCache};
use crate::derive::{DeriveConfig, GroupRules, MinedRule, MinedRules};
use crate::feedback::AnalysisSignal;
use crate::hypothesis::{Hypothesis, HypothesisSet, Observation};
use crate::lint::{
    LintFinding, LintReport, OrderConflict, Severity, StaticEvidence, StaticMemberEvidence,
};
use crate::lockset::LockDescriptor;
use crate::order::{Inversion, LockClass, OrderEdge, OrderGraph};
use crate::race::{GroupRaces, RaceAccess, RaceCandidate, RacePair, RaceReport};
use crate::rulediff::{ChangedRule, RuleDiff};
use crate::rulespec::RuleSpec;
use crate::select::{SelectionConfig, Strategy, Winner};
use crate::violation::{GroupViolations, MemberViolationCounts, ViolationEvent};
use lockdoc_platform::json::{decode_field, field, FromJson, Json, JsonError, ToJson};

macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::obj(vec![$((stringify!($field), self.$field.to_json())),+])
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                Ok(Self {
                    $($field: decode_field(v, stringify!($field))?),+
                })
            }
        }
    };
}

macro_rules! json_unit_enum {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                let s = match self {
                    $($ty::$variant => $name),+
                };
                Json::Str(s.to_owned())
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                match v.as_str() {
                    $(Some($name) => Ok($ty::$variant),)+
                    Some(other) => Err(JsonError::new(format!(
                        "unknown {} variant '{other}'",
                        stringify!($ty)
                    ))),
                    None => Err(JsonError::new(concat!(
                        "expected string for ",
                        stringify!($ty)
                    ))),
                }
            }
        }
    };
}

json_unit_enum!(Strategy {
    LockDoc => "lockdoc",
    NaiveMax => "naive_max",
    NaiveMaxLockPreferred => "naive_max_lock_preferred",
});

json_unit_enum!(Verdict {
    Correct => "correct",
    Ambivalent => "ambivalent",
    Incorrect => "incorrect",
    NotObserved => "not_observed",
});

impl ToJson for LockDescriptor {
    fn to_json(&self) -> Json {
        match self {
            LockDescriptor::Global { name } => Json::obj(vec![
                ("scope", Json::Str("global".to_owned())),
                ("name", name.to_json()),
            ]),
            LockDescriptor::EmbeddedSame { member, type_name } => Json::obj(vec![
                ("scope", Json::Str("embedded_same".to_owned())),
                ("member", member.to_json()),
                ("type_name", type_name.to_json()),
            ]),
            LockDescriptor::EmbeddedOther { member, type_name } => Json::obj(vec![
                ("scope", Json::Str("embedded_other".to_owned())),
                ("member", member.to_json()),
                ("type_name", type_name.to_json()),
            ]),
            LockDescriptor::Pseudo { name } => Json::obj(vec![
                ("scope", Json::Str("pseudo".to_owned())),
                ("name", name.to_json()),
            ]),
        }
    }
}

impl FromJson for LockDescriptor {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let scope = field(v, "scope")?
            .as_str()
            .ok_or_else(|| JsonError::new("lock 'scope' must be a string"))?;
        match scope {
            "global" => Ok(LockDescriptor::Global {
                name: decode_field(v, "name")?,
            }),
            "embedded_same" => Ok(LockDescriptor::EmbeddedSame {
                member: decode_field(v, "member")?,
                type_name: decode_field(v, "type_name")?,
            }),
            "embedded_other" => Ok(LockDescriptor::EmbeddedOther {
                member: decode_field(v, "member")?,
                type_name: decode_field(v, "type_name")?,
            }),
            "pseudo" => Ok(LockDescriptor::Pseudo {
                name: decode_field(v, "name")?,
            }),
            other => Err(JsonError::new(format!("unknown lock scope '{other}'"))),
        }
    }
}

json_struct!(SelectionConfig {
    accept_threshold,
    strategy
});
json_struct!(DeriveConfig {
    selection,
    cutoff,
    min_units
});
json_struct!(Observation { locks, count });
json_struct!(Hypothesis { locks, sa, sr });
json_struct!(HypothesisSet {
    member,
    kind,
    total,
    truncated,
    hypotheses
});
json_struct!(Winner {
    hypothesis,
    candidates,
    threshold
});
json_struct!(MinedRule {
    member,
    member_name,
    kind,
    total_units,
    winner,
    hypotheses
});
json_struct!(GroupRules {
    data_type,
    subclass,
    group_name,
    rules,
    truncated_units
});
json_struct!(MinedRules { groups, config });
json_struct!(CorpusGroupEntry { fingerprint, rules });
json_struct!(CorpusRulesCache { entries });
json_struct!(RuleSpec {
    type_name,
    subclass,
    member,
    kind,
    locks
});
json_struct!(CheckedRule {
    rule,
    sa,
    total,
    sr,
    verdict
});
json_struct!(TypeCheckSummary {
    type_name,
    rules,
    not_observed,
    observed,
    pct_correct,
    pct_ambivalent,
    pct_incorrect
});
json_struct!(ViolationEvent {
    group_name,
    member_name,
    kind,
    required,
    held,
    loc,
    stack,
    access_id
});
json_struct!(MemberViolationCounts {
    member_name,
    kind,
    events,
    irq_events
});
json_struct!(GroupViolations {
    group_name,
    events,
    members,
    contexts,
    per_member,
    examples
});
json_struct!(ChangedRule { key, old, new });
json_struct!(RuleDiff {
    added,
    removed,
    changed,
    unchanged
});

// --- race detector + lint + order graph --------------------------------------

json_unit_enum!(Severity {
    Confirmed => "confirmed",
    Probable => "probable",
    Suspect => "suspect",
    Downgraded => "downgraded",
});

json_struct!(RaceAccess {
    kind,
    context,
    flow,
    held,
    loc,
    stack,
    access_id
});
json_struct!(RacePair { first, second });
json_struct!(RaceCandidate {
    group_name,
    member,
    member_name,
    accesses,
    writes,
    flows,
    witness
});
json_struct!(GroupRaces {
    group_name,
    data_type,
    subclass,
    members_checked,
    pairless,
    candidates
});
json_struct!(RaceReport { groups });

json_struct!(LintFinding {
    group_name,
    member_name,
    severity,
    rationale,
    violations,
    write_violations,
    irq_violations,
    racy,
    witness,
    doc_verdict,
    static_outliers
});
json_struct!(StaticMemberEvidence {
    type_name,
    member_name,
    outliers,
    confidence
});
json_struct!(StaticEvidence { members });
json_struct!(OrderConflict {
    rule,
    held_first,
    held_second,
    documented_count,
    dominant_count
});
json_struct!(LintReport {
    findings,
    order_conflicts,
    groups_checked
});

// The analysis half of the fuzzing feedback signal (DESIGN §5.5); the
// combined campaign reports serialize in `ksim::fuzz` (ksim depends on
// this crate, so the orphan rule forces the split).
json_struct!(AnalysisSignal {
    members_total,
    observed_members,
    zero_observation_members,
    lock_combos,
    race_candidates,
    pairless
});

impl ToJson for LockClass {
    fn to_json(&self) -> Json {
        self.name.to_json()
    }
}

impl FromJson for LockClass {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(LockClass {
            name: String::from_json(v)?,
        })
    }
}

json_struct!(OrderEdge {
    from,
    to,
    count,
    witness
});
json_struct!(Inversion { forward, backward });

impl ToJson for OrderGraph {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "edges",
                Json::Arr(self.edges.values().map(ToJson::to_json).collect()),
            ),
            (
                "inversions",
                Json::Arr(self.inversions().iter().map(ToJson::to_json).collect()),
            ),
            (
                "cycles",
                Json::Arr(self.cycles().iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for OrderGraph {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let edges: Vec<OrderEdge> = decode_field(v, "edges")?;
        let mut graph = OrderGraph::default();
        for edge in edges {
            graph
                .edges
                .insert((edge.from.clone(), edge.to.clone()), edge);
        }
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdoc_platform::json::{from_str, parse};

    fn sample_mined() -> MinedRules {
        let hyp = Hypothesis {
            locks: vec![
                LockDescriptor::global("sec_lock"),
                LockDescriptor::es("i_lock", "inode"),
            ],
            sa: 99,
            sr: 0.99,
        };
        MinedRules {
            groups: vec![GroupRules {
                data_type: lockdoc_trace::ids::DataTypeId(0),
                subclass: Some(lockdoc_trace::ids::Sym(3)),
                group_name: "inode:ext4".into(),
                rules: vec![MinedRule {
                    member: 2,
                    member_name: "i_state".into(),
                    kind: lockdoc_trace::event::AccessKind::Write,
                    total_units: 100,
                    winner: Winner {
                        hypothesis: hyp.clone(),
                        candidates: 2,
                        threshold: 0.9,
                    },
                    hypotheses: vec![hyp],
                }],
                truncated_units: 0,
            }],
            config: DeriveConfig::default(),
        }
    }

    #[test]
    fn mined_rules_round_trip() {
        let mined = sample_mined();
        let text = mined.to_json().pretty();
        let back: MinedRules = from_str(&text).unwrap();
        assert_eq!(back, mined);
        // The CLI contract: a top-level "groups" array.
        let v = parse(&text).unwrap();
        assert!(v.get("groups").is_some_and(|g| g.is_array()));
    }

    #[test]
    fn lock_descriptor_variants_round_trip() {
        for lock in [
            LockDescriptor::global("inode_hash_lock"),
            LockDescriptor::es("i_lock", "inode"),
            LockDescriptor::eo("list_lock", "backing_dev_info"),
            LockDescriptor::Pseudo { name: "rcu".into() },
        ] {
            let text = lock.to_json().compact();
            let back: LockDescriptor = from_str(&text).unwrap();
            assert_eq!(back, lock);
        }
        assert!(from_str::<LockDescriptor>(r#"{"scope":"warp"}"#).is_err());
    }

    #[test]
    fn checked_rule_and_diff_round_trip() {
        let checked = CheckedRule {
            rule: RuleSpec {
                type_name: "inode".into(),
                subclass: None,
                member: "i_state".into(),
                kind: lockdoc_trace::event::AccessKind::Read,
                locks: vec![LockDescriptor::es("i_lock", "inode")],
            },
            sa: 5,
            total: 10,
            sr: 0.5,
            verdict: Verdict::Ambivalent,
        };
        let back: CheckedRule = from_str(&checked.to_json().compact()).unwrap();
        assert_eq!(back, checked);

        let diff = RuleDiff {
            added: vec![(
                ("inode:ext4".into(), "i_state".into(), "w".into()),
                "i_lock".into(),
            )],
            removed: vec![],
            changed: vec![ChangedRule {
                key: ("clock".into(), "minutes".into(), "w".into()),
                old: ("sec_lock".into(), 0.9),
                new: ("sec_lock -> min_lock".into(), 0.99),
            }],
            unchanged: 7,
        };
        let back: RuleDiff = from_str(&diff.to_json().pretty()).unwrap();
        assert_eq!(back, diff);
    }

    #[test]
    fn violations_round_trip() {
        use lockdoc_trace::event::SourceLoc;
        use lockdoc_trace::ids::{StackId, Sym};
        use std::collections::BTreeSet;

        let ev = ViolationEvent {
            group_name: "inode:ext4".into(),
            member_name: "i_state".into(),
            kind: lockdoc_trace::event::AccessKind::Write,
            required: vec![LockDescriptor::es("i_lock", "inode")],
            held: vec![],
            loc: SourceLoc::new(Sym(1), 120),
            stack: StackId(4),
            access_id: 77,
        };
        let mut members = BTreeSet::new();
        members.insert("i_state".to_owned());
        let mut contexts = BTreeSet::new();
        contexts.insert((SourceLoc::new(Sym(1), 120), StackId(4)));
        let group = GroupViolations {
            group_name: "inode:ext4".into(),
            events: 1,
            members,
            contexts,
            per_member: vec![MemberViolationCounts {
                member_name: "i_state".into(),
                kind: lockdoc_trace::event::AccessKind::Write,
                events: 1,
                irq_events: 0,
            }],
            examples: vec![ev],
        };
        let back: GroupViolations = from_str(&group.to_json().pretty()).unwrap();
        assert_eq!(back, group);
    }

    #[test]
    fn race_report_round_trips() {
        use lockdoc_trace::event::{AccessKind, ContextKind, SourceLoc};
        use lockdoc_trace::ids::{DataTypeId, StackId, Sym};

        let side = |kind, line, flow: &str| RaceAccess {
            kind,
            context: ContextKind::Task,
            flow: flow.into(),
            held: vec![LockDescriptor::es("i_lock", "inode")],
            loc: SourceLoc::new(Sym(1), line),
            stack: StackId(9),
            access_id: u64::from(line),
        };
        let report = RaceReport {
            groups: vec![GroupRaces {
                group_name: "inode:ext4".into(),
                data_type: DataTypeId(0),
                subclass: Some(Sym(3)),
                members_checked: 7,
                pairless: 1,
                candidates: vec![RaceCandidate {
                    group_name: "inode:ext4".into(),
                    member: 2,
                    member_name: "i_state".into(),
                    accesses: 12,
                    writes: 5,
                    flows: 3,
                    witness: RacePair {
                        first: side(AccessKind::Write, 100, "alpha"),
                        second: side(AccessKind::Read, 200, "beta"),
                    },
                }],
            }],
        };
        let back: RaceReport = from_str(&report.to_json().pretty()).unwrap();
        assert_eq!(back, report);
        let v = parse(&report.to_json().pretty()).unwrap();
        assert!(v.get("groups").is_some_and(|g| g.is_array()));
    }

    #[test]
    fn lint_report_round_trips() {
        use lockdoc_trace::event::{AccessKind, ContextKind, SourceLoc};
        use lockdoc_trace::ids::{StackId, Sym};

        let report = LintReport {
            findings: vec![LintFinding {
                group_name: "inode:ext4".into(),
                member_name: "i_state".into(),
                severity: Severity::Confirmed,
                rationale: "because".into(),
                violations: 4,
                write_violations: 2,
                irq_violations: 0,
                racy: true,
                witness: Some(RacePair {
                    first: RaceAccess {
                        kind: AccessKind::Write,
                        context: ContextKind::Task,
                        flow: "alpha".into(),
                        held: vec![],
                        loc: SourceLoc::new(Sym(1), 10),
                        stack: StackId(2),
                        access_id: 1,
                    },
                    second: RaceAccess {
                        kind: AccessKind::Write,
                        context: ContextKind::Softirq,
                        flow: "softirq".into(),
                        held: vec![LockDescriptor::pseudo("softirq")],
                        loc: SourceLoc::new(Sym(1), 20),
                        stack: StackId(3),
                        access_id: 2,
                    },
                }),
                doc_verdict: Some(Verdict::Ambivalent),
                static_outliers: 3,
            }],
            order_conflicts: vec![OrderConflict {
                rule: "inode.i_state:w = a -> b".into(),
                held_first: "a".into(),
                held_second: "b".into(),
                documented_count: 2,
                dominant_count: 40,
            }],
            groups_checked: 9,
        };
        let back: LintReport = from_str(&report.to_json().pretty()).unwrap();
        assert_eq!(back, report);
        assert_eq!(Severity::Confirmed.to_json().compact(), "\"confirmed\"");
    }

    #[test]
    fn order_graph_round_trips_edges() {
        use lockdoc_trace::event::SourceLoc;
        use lockdoc_trace::ids::Sym;
        let class = |n: &str| LockClass { name: n.to_owned() };
        let mut graph = OrderGraph::default();
        for (from, to, count) in [("a", "b", 5u64), ("b", "a", 1)] {
            graph.edges.insert(
                (class(from), class(to)),
                OrderEdge {
                    from: class(from),
                    to: class(to),
                    count,
                    witness: SourceLoc::new(Sym(0), 7),
                },
            );
        }
        let text = graph.to_json().pretty();
        let back: OrderGraph = from_str(&text).unwrap();
        assert_eq!(back, graph);
        // The projection also carries the derived diagnostics.
        let v = parse(&text).unwrap();
        assert!(v.get("inversions").is_some_and(|g| g.is_array()));
        assert!(v.get("cycles").is_some_and(|g| g.is_array()));
    }

    #[test]
    fn analysis_signal_round_trips() {
        let sig = AnalysisSignal {
            members_total: 40,
            observed_members: 31,
            zero_observation_members: 9,
            lock_combos: vec!["a -> b".into(), "b -> c".into()],
            race_candidates: 2,
            pairless: 1,
        };
        let text = sig.to_json().pretty();
        let back: AnalysisSignal = from_str(&text).unwrap();
        assert_eq!(back, sig);
        let v = parse(&text).unwrap();
        assert!(v.get("lock_combos").is_some_and(|c| c.is_array()));
    }

    #[test]
    fn strategy_and_verdict_strings_are_stable() {
        assert_eq!(Strategy::LockDoc.to_json().compact(), "\"lockdoc\"");
        assert_eq!(Verdict::NotObserved.to_json().compact(), "\"not_observed\"");
        assert!(from_str::<Strategy>("\"bogus\"").is_err());
    }
}
