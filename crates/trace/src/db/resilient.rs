//! Resilient, quarantining trace import.
//!
//! The importer checks every event against its own replay state before
//! replaying it and classifies each malformed one into a
//! [`QuarantineClass`]. [`crate::db::import`] skips a malformed event and
//! counts it in [`crate::db::ImportStats::invalid_events`]. This module is
//! the path that reports *what* was dropped, for untrusted traces —
//! archived files, foreign tools, salvaged streams — and the caller picks
//! the policy:
//!
//! * [`ImportPolicy::Strict`] — the first malformed event aborts the
//!   import with a typed [`ImportError`] naming its class and event index.
//! * [`ImportPolicy::Lenient`] — malformed events are dropped
//!   (quarantined), their exact indices and classes are reported in the
//!   [`ImportReport`], and the remaining events are imported normally.
//!   An error budget ([`ResilientConfig::max_bad_frac`]) bounds how much
//!   quarantining is acceptable before the trace is rejected wholesale.
//!
//! The checks run inside the same pass as decoding and import
//! ([`crate::db::ingest`]), so resilience costs no extra pass over the
//! trace. Every policy keeps the same tables as a plain import: on a clean
//! trace nothing is quarantined and the resulting [`TraceDb`] is
//! structurally identical to the plain import's, and on a malformed one
//! only the counters differ — never a different answer.

use crate::db::import::Importer;
use crate::db::TraceDb;
use crate::event::Trace;
use crate::filter::FilterConfig;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// The kinds of malformed events the detector quarantines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QuarantineClass {
    /// An event timestamp older than its predecessor's.
    TimestampRegression,
    /// An event referencing a string, type, function, or task id the
    /// trace's metadata tables do not contain.
    DanglingMeta,
    /// An `Alloc` reusing a live allocation id.
    DuplicateAllocId,
    /// An `Alloc` overlapping a live allocation's address range (or
    /// wrapping the address space).
    OverlappingAlloc,
    /// A `Free` of an allocation id never allocated.
    DanglingFree,
    /// A `Free` of an allocation id already freed.
    DoubleFree,
    /// A `LockRelease` of a registered lock the releasing control flow
    /// does not hold.
    UnbalancedRelease,
    /// A `ContextEnter` of the task context: context events enter
    /// interrupt contexts, and a task is entered by `TaskSwitch`.
    TaskContext,
}

impl QuarantineClass {
    /// Stable snake_case name used in reports and JSON output.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineClass::TimestampRegression => "timestamp_regression",
            QuarantineClass::DanglingMeta => "dangling_meta",
            QuarantineClass::DuplicateAllocId => "duplicate_alloc_id",
            QuarantineClass::OverlappingAlloc => "overlapping_alloc",
            QuarantineClass::DanglingFree => "dangling_free",
            QuarantineClass::DoubleFree => "double_free",
            QuarantineClass::UnbalancedRelease => "unbalanced_release",
            QuarantineClass::TaskContext => "task_context",
        }
    }
}

impl fmt::Display for QuarantineClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One quarantined event: where it was, what was wrong with it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineEntry {
    /// Index of the event in the input trace's event stream.
    pub event_index: u64,
    /// Why it was quarantined.
    pub class: QuarantineClass,
    /// Human-readable specifics (ids, addresses, timestamps involved).
    pub detail: String,
}

/// The outcome report accompanying a lenient import.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ImportReport {
    /// Total events in the input trace.
    pub events: u64,
    /// Fraction of events quarantined (`0.0` for a clean trace).
    pub bad_frac: f64,
    /// Quarantined events in event-index order (at most one entry per
    /// event: the first failed check wins, in the order the replay would
    /// have mishandled the event).
    pub quarantined: Vec<QuarantineEntry>,
}

impl ImportReport {
    /// True when nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Per-class quarantine counters, sorted by class.
    pub fn counts(&self) -> BTreeMap<QuarantineClass, u64> {
        let mut m = BTreeMap::new();
        for q in &self.quarantined {
            *m.entry(q.class).or_insert(0) += 1;
        }
        m
    }

    /// The report over `events` events of which `quarantined` were
    /// dropped.
    pub(crate) fn new(events: u64, quarantined: Vec<QuarantineEntry>) -> Self {
        let bad_frac = if events == 0 {
            0.0
        } else {
            quarantined.len() as f64 / events as f64
        };
        Self {
            events,
            bad_frac,
            quarantined,
        }
    }
}

/// What to do when the quarantine checks find a malformed event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportPolicy {
    /// Refuse the trace on the first malformed event.
    Strict,
    /// Drop malformed events and report them, subject to the error budget.
    Lenient,
}

/// Policy plus error budget for [`import_resilient`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResilientConfig {
    /// Strict or lenient handling of malformed events.
    pub policy: ImportPolicy,
    /// Lenient only: maximum tolerated `quarantined / events` fraction;
    /// exceeding it aborts with [`ImportError::BudgetExceeded`].
    pub max_bad_frac: f64,
}

impl ResilientConfig {
    /// Strict policy: any malformed event is fatal.
    pub fn strict() -> Self {
        Self {
            policy: ImportPolicy::Strict,
            max_bad_frac: 0.0,
        }
    }

    /// Lenient policy with the given error budget.
    pub fn lenient(max_bad_frac: f64) -> Self {
        Self {
            policy: ImportPolicy::Lenient,
            max_bad_frac,
        }
    }

    /// Whether this policy accepts a trace with `report`'s quarantine:
    /// strict refuses the first entry, lenient refuses a quarantined
    /// fraction over its budget, and a clean report always passes.
    pub fn verdict(&self, report: &ImportReport) -> Result<(), ImportError> {
        let Some(first) = report.quarantined.first() else {
            return Ok(());
        };
        match self.policy {
            ImportPolicy::Strict => Err(ImportError::Corrupt {
                class: first.class,
                event_index: first.event_index,
                detail: first.detail.clone(),
            }),
            ImportPolicy::Lenient if report.bad_frac > self.max_bad_frac => {
                Err(ImportError::BudgetExceeded {
                    quarantined: report.quarantined.len() as u64,
                    events: report.events,
                    max_bad_frac: self.max_bad_frac,
                })
            }
            ImportPolicy::Lenient => Ok(()),
        }
    }
}

impl Default for ResilientConfig {
    /// Lenient with a 5% error budget — tolerant enough for real archive
    /// damage, tight enough that a majority-garbage trace is refused.
    fn default() -> Self {
        Self::lenient(0.05)
    }
}

/// Why a resilient import refused a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum ImportError {
    /// Strict policy: the first malformed event, by class and position.
    Corrupt {
        /// Quarantine class of the offending event.
        class: QuarantineClass,
        /// Its index in the event stream.
        event_index: u64,
        /// Human-readable specifics.
        detail: String,
    },
    /// Lenient policy: more events were quarantined than the error budget
    /// allows.
    BudgetExceeded {
        /// Number of quarantined events.
        quarantined: u64,
        /// Total events in the trace.
        events: u64,
        /// The configured budget that was exceeded.
        max_bad_frac: f64,
    },
}

impl fmt::Display for ImportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ImportError::Corrupt {
                class,
                event_index,
                detail,
            } => write!(
                f,
                "corrupt trace: {class} at event {event_index} ({detail})"
            ),
            ImportError::BudgetExceeded {
                quarantined,
                events,
                max_bad_frac,
            } => write!(
                f,
                "error budget exceeded: {quarantined} of {events} events quarantined \
                 (max_bad_frac {max_bad_frac})"
            ),
        }
    }
}

impl std::error::Error for ImportError {}

/// Imports `trace` with malformed-event detection and quarantining.
///
/// Strict policy: returns [`ImportError::Corrupt`] naming the class and
/// event index of the first malformed event. Lenient policy: quarantines
/// malformed events, imports every other event, and returns the
/// [`TraceDb`] together with the [`ImportReport`] — unless the quarantined
/// fraction exceeds [`ResilientConfig::max_bad_frac`], which returns
/// [`ImportError::BudgetExceeded`].
///
/// A clean trace yields a `TraceDb` identical to `import(trace, config,
/// jobs)` and an empty report. `_jobs` is unused, as in
/// [`crate::db::import`]. [`crate::db::ingest`] does the same straight off
/// a trace reader.
pub fn import_resilient(
    trace: &Trace,
    config: &FilterConfig,
    _jobs: usize,
    rcfg: &ResilientConfig,
) -> Result<(TraceDb, ImportReport), ImportError> {
    let mut imp = Importer::new(&trace.meta, config, Some(rcfg.policy), true);
    for te in &trace.events {
        imp.feed(te.ts, &te.event);
    }
    let report = imp.take_report();
    rcfg.verdict(&report)?;
    Ok((imp.finish(Arc::clone(&trace.meta)), report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::import;
    use crate::event::{
        AccessKind, AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc,
    };
    use crate::ids::{AllocId, Sym};

    fn cfg() -> FilterConfig {
        FilterConfig::with_defaults()
    }

    /// A small clean trace with one alloc/free pair, one balanced lock
    /// section, and a couple of accesses.
    fn clean_trace() -> Trace {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("fs/inode.c");
        let lname = tr.meta_mut().strings.intern("i_lock");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "inode".into(),
            size: 64,
            members: vec![MemberDef {
                name: "i_state".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let f = tr.meta_mut().add_function("iget_locked");
        let task = tr.meta_mut().add_task("fsstress");
        tr.push(0, Event::TaskSwitch { task });
        tr.push(
            1,
            Event::LockInit {
                addr: 0x2000,
                name: lname,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
        tr.push(
            2,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 64,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(3, Event::FnEnter { func: f });
        tr.push(
            4,
            Event::LockAcquire {
                addr: 0x2000,
                mode: AcquireMode::Exclusive,
                loc: SourceLoc::new(file, 10),
            },
        );
        tr.push(
            5,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc: SourceLoc::new(file, 11),
                atomic: false,
            },
        );
        tr.push(
            6,
            Event::LockRelease {
                addr: 0x2000,
                loc: SourceLoc::new(file, 12),
            },
        );
        tr.push(7, Event::FnExit { func: f });
        tr.push(8, Event::Free { id: AllocId(1) });
        tr
    }

    #[test]
    fn clean_trace_matches_fast_path() {
        let tr = clean_trace();
        let fast = import(&tr, &cfg(), 1);
        let (db, report) = import_resilient(&tr, &cfg(), 1, &ResilientConfig::default()).unwrap();
        assert!(report.is_clean());
        assert_eq!(report.events, tr.len() as u64);
        let (_, wide) = import_resilient(&tr, &cfg(), 1, &ResilientConfig::lenient(1.0)).unwrap();
        assert_eq!(report, wide);
        assert_eq!(db, fast);
        let (strict, _) = import_resilient(&tr, &cfg(), 1, &ResilientConfig::strict()).unwrap();
        assert_eq!(strict, fast);
    }

    /// A double free of id 1 *after* its address was reused by id 2 is
    /// refused by every path, so id 2 stays live and its later access
    /// resolves: a plain import skips and counts the second free, and the
    /// resilient path quarantines it.
    #[test]
    fn double_free_is_quarantined_not_absorbed() {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("a.c");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 16,
            members: vec![MemberDef {
                name: "m".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let task = tr.meta_mut().add_task("t0");
        tr.push(0, Event::TaskSwitch { task });
        tr.push(
            1,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 16,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(2, Event::Free { id: AllocId(1) });
        // Address reuse by a different allocation.
        tr.push(
            3,
            Event::Alloc {
                id: AllocId(2),
                addr: 0x1000,
                size: 16,
                data_type: dt,
                subclass: None,
            },
        );
        // Malformed second free of id 1: replayed, it would deactivate
        // id 2 here.
        tr.push(4, Event::Free { id: AllocId(1) });
        tr.push(
            5,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1000,
                size: 8,
                loc: SourceLoc::new(file, 1),
                atomic: false,
            },
        );

        // Plain import: the bogus free is skipped and counted, and the
        // access after it resolves.
        let plain = import(&tr, &cfg(), 1);
        assert_eq!(plain.stats.invalid_events, 1);
        assert_eq!(plain.stats.unresolved, 0);
        assert_eq!(plain.stats.accesses_imported, 1);

        // Strict: typed refusal naming class and index.
        let err = import_resilient(&tr, &cfg(), 1, &ResilientConfig::strict()).unwrap_err();
        assert_eq!(
            err,
            ImportError::Corrupt {
                class: QuarantineClass::DoubleFree,
                event_index: 4,
                detail: "alloc id 1 already freed".into(),
            }
        );

        // Lenient: the second free is quarantined, id 2 stays live, the
        // access resolves. (The budget is wide open: one bad event in a
        // six-event trace is 17% — far past the default 5%.)
        let (db, report) =
            import_resilient(&tr, &cfg(), 1, &ResilientConfig::lenient(1.0)).unwrap();
        assert_eq!(
            report
                .quarantined
                .iter()
                .map(|q| (q.class, q.event_index))
                .collect::<Vec<_>>(),
            vec![(QuarantineClass::DoubleFree, 4)]
        );
        assert_eq!(db.stats.unresolved, 0);
        assert_eq!(db.stats.accesses_imported, 1);
        assert_eq!(db.access(0).alloc, AllocId(2));
        assert_eq!(db.allocations, plain.allocations);
        assert_eq!(db.accesses, plain.accesses);
    }

    #[test]
    fn budget_gates_lenient_imports() {
        let mut tr = clean_trace();
        let n = tr.events.len() as u64;
        // Two dangling frees on top of a clean trace.
        let last_ts = tr.events.last().unwrap().ts;
        tr.push(last_ts, Event::Free { id: AllocId(900) });
        tr.push(last_ts, Event::Free { id: AllocId(901) });
        let err = import_resilient(&tr, &cfg(), 1, &ResilientConfig::lenient(0.05)).unwrap_err();
        assert_eq!(
            err,
            ImportError::BudgetExceeded {
                quarantined: 2,
                events: n + 2,
                max_bad_frac: 0.05,
            }
        );
        let (_, report) = import_resilient(&tr, &cfg(), 1, &ResilientConfig::lenient(0.5)).unwrap();
        assert_eq!(report.quarantined.len(), 2);
        assert!(report.bad_frac > 0.0);
    }

    #[test]
    fn timestamp_regression_is_dropped_without_dragging_successors() {
        let base = clean_trace();
        let mut events = base.events.clone();
        // Event 5 (the MemAccess) regresses below event 4's timestamp.
        events[5].ts = 2;
        let tr = Trace {
            meta: base.meta.clone(),
            events,
        };
        let (db, report) =
            import_resilient(&tr, &cfg(), 1, &ResilientConfig::lenient(1.0)).unwrap();
        assert_eq!(
            report
                .quarantined
                .iter()
                .map(|q| (q.class, q.event_index))
                .collect::<Vec<_>>(),
            vec![(QuarantineClass::TimestampRegression, 5)]
        );
        // Only the regressed access was lost; the release at event 6 still
        // balances.
        assert_eq!(db.stats.unmatched_releases, 0);
        assert_eq!(db.stats.accesses_imported, 0);
    }

    #[test]
    fn detector_reports_in_event_order() {
        let mut tr = clean_trace();
        let last_ts = tr.events.last().unwrap().ts;
        tr.push(last_ts, Event::Free { id: AllocId(900) });
        tr.push(
            last_ts,
            Event::LockRelease {
                addr: 0x2000,
                loc: SourceLoc::new(Sym(0), 99),
            },
        );
        let n = tr.events.len() as u64;
        let (_, report) = import_resilient(&tr, &cfg(), 1, &ResilientConfig::lenient(1.0)).unwrap();
        assert_eq!(
            report
                .quarantined
                .iter()
                .map(|q| (q.class, q.event_index))
                .collect::<Vec<_>>(),
            vec![
                (QuarantineClass::DanglingFree, n - 2),
                (QuarantineClass::UnbalancedRelease, n - 1),
            ]
        );
    }

    /// An unbalanced release is quarantined but still moves the timestamp
    /// high-water mark, so a later event older than it is a regression.
    #[test]
    fn unbalanced_release_advances_the_high_water_mark() {
        let mut tr = clean_trace();
        let last_ts = tr.events.last().unwrap().ts;
        let loc = SourceLoc::new(Sym(0), 99);
        tr.push(last_ts + 10, Event::LockRelease { addr: 0x2000, loc });
        tr.push(
            last_ts + 10,
            Event::LockAcquire {
                addr: 0x2000,
                mode: AcquireMode::Exclusive,
                loc,
            },
        );
        // `Trace::push` refuses time travel; rewind the acquire directly.
        tr.events.last_mut().unwrap().ts = last_ts + 5;
        let n = tr.events.len() as u64;
        let (_, report) = import_resilient(&tr, &cfg(), 1, &ResilientConfig::lenient(1.0)).unwrap();
        assert_eq!(
            report
                .quarantined
                .iter()
                .map(|q| (q.class, q.event_index))
                .collect::<Vec<_>>(),
            vec![
                (QuarantineClass::UnbalancedRelease, n - 2),
                (QuarantineClass::TimestampRegression, n - 1),
            ]
        );
        assert_eq!(
            report.quarantined[1].detail,
            format!("ts {} after high-water mark {}", last_ts + 5, last_ts + 10)
        );
    }
}
