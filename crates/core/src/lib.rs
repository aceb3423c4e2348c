//! # LockDoc core: trace-based derivation of locking rules
//!
//! This crate implements the contribution of *LockDoc: Trace-Based Analysis
//! of Locking in the Linux Kernel* (EuroSys 2019): given an execution trace
//! of a lock-based system (imported into a [`lockdoc_trace::TraceDb`]), it
//!
//! 1. groups memory accesses into **transactions** and folds them into
//!    per-member access matrices with write-over-read semantics
//!    ([`matrix`], paper Sec. 4.2),
//! 2. enumerates **locking-rule hypotheses** and computes their absolute
//!    and relative support ([`hypothesis`], Sec. 4.3/5.4),
//! 3. **selects** the most likely rule per member and access kind
//!    ([`mod@select`], Sec. 4.3),
//! 4. **checks** existing documented rules against the trace
//!    ([`checker`], Sec. 7.3),
//! 5. **generates documentation** from the mined rules ([`docgen`],
//!    Sec. 7.4 / Fig. 8), and
//! 6. **finds rule violations** — potential locking bugs — with full
//!    context ([`violation`], Sec. 7.5),
//! 7. runs an Eraser-style **lockset race detector** over the same trace,
//!    with IRQ and single-core flow exclusion encoded as pseudo-locks
//!    ([`race`]), and
//! 8. **cross-checks all passes** against each other, ranking findings by
//!    confidence and flagging documented rules that contradict the
//!    dominant observed lock order ([`lint`]).
//!
//! Passes 1–7 read one shared [`evidence::EvidenceIndex`]: the
//! `accesses ⋈ txns ⋈ locks` join resolved once per trace, with lock
//! descriptors interned as ids.
//!
//! # Examples
//!
//! Derive the rules of the paper's clock example (Fig. 4) and catch the
//! injected bug:
//!
//! ```
//! use lockdoc_core::clock::clock_db;
//! use lockdoc_core::derive::{derive, DeriveConfig};
//! use lockdoc_core::violation::find_violations;
//! use lockdoc_trace::event::AccessKind;
//!
//! let db = clock_db(1000, 1); // 1000 correct runs, 1 faulty
//! let mined = derive(&db, &DeriveConfig::default());
//! let rule = mined.group("clock").unwrap()
//!     .rule_for("minutes", AccessKind::Write).unwrap();
//! assert_eq!(rule.winner.hypothesis.describe(), "sec_lock -> min_lock");
//!
//! let violations = find_violations(&db, &mined, 10);
//! assert_eq!(violations[0].events, 1); // the forgotten min_lock
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod clock;
pub mod corpus;
pub mod derive;
pub mod docgen;
pub mod evidence;
pub mod feedback;
pub mod hypothesis;
pub mod jsonout;
pub mod lint;
pub mod lockset;
pub mod matrix;
pub mod order;
pub mod race;
pub mod rulediff;
pub mod rulespec;
pub mod select;
pub mod violation;

pub use checker::{check_rules, summarize, CheckedRule, Verdict};
pub use corpus::{
    build_trace_matrix, derive_corpus, read_matrix_artifact, write_matrix_artifact, CorpusDerive,
    CorpusRulesCache, CorpusTrace, TraceMatrix,
};
pub use derive::{derive, derive_pooled, DeriveConfig, GroupRules, MinedRule, MinedRules};
pub use docgen::{generate_doc, generate_rulespec};
pub use evidence::EvidenceIndex;
pub use feedback::AnalysisSignal;
pub use hypothesis::{complies, enumerate, Hypothesis, HypothesisSet, Observation};
pub use lint::{lint, LintFinding, LintInputs, LintReport, OrderConflict, Severity};
pub use lockset::LockDescriptor;
pub use order::{Inversion, LockClass, OrderEdge, OrderGraph};
pub use race::{find_races, GroupRaces, RaceAccess, RaceCandidate, RacePair, RaceReport};
pub use rulediff::{diff_rules, RuleDiff};
pub use rulespec::{parse_rule, parse_rules, RuleSpec};
pub use select::{select, SelectionConfig, Strategy, Winner};
pub use violation::{find_violations, GroupViolations, ViolationEvent};
