//! Differential corruption-oracle suite: `lockdoc_trace::corrupt` injects
//! labelled corruption into generated traces and the resilient pipeline
//! must observe *exactly* what the oracle says — strict mode refuses with
//! the precise class and event index, lenient mode's quarantine report
//! matches the injected oracle entry-for-entry (as do the import-free
//! `quarantine_report` and corpus screening), salvage recovers the exact
//! intact prefix of a truncated container, and a clean trace pushed
//! through the resilient path is byte-identical to the fast path.
//!
//! Property tests run on the in-tree `lockdoc_platform::prop` harness.
//! A failing property prints its run seed; reproduce with
//! `LOCKDOC_PROP_SEED=<seed> cargo test -q <test-name>`. CI soak runs
//! raise `LOCKDOC_PROP_CASES` (see `scripts/verify.sh`).

use lockdoc_platform::prop;
use lockdoc_platform::rng::Rng;
use lockdoc_platform::{prop_assert, prop_assert_eq};
use lockdoc_trace::codec::{read_trace, read_trace_salvage, write_trace};
use lockdoc_trace::corpus::screen_trace;
use lockdoc_trace::corrupt::{inject, CorruptionClass, Oracle};
use lockdoc_trace::db::{
    import, import_resilient, quarantine_report, ImportError, ImportReport, ResilientConfig,
    TraceDb,
};
use lockdoc_trace::event::{
    AccessKind, AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc, Trace,
};
use lockdoc_trace::filter::FilterConfig;
use lockdoc_trace::ids::AllocId;

fn cfg() -> FilterConfig {
    FilterConfig::with_defaults()
}

/// Generates a clean trace that is *guaranteed* to contain at least one
/// injection site for every event-level corruption class: each object is
/// allocated at a fresh disjoint address (droppable alloc / effective
/// free), accessed under a registered spinlock (timestamp-regression
/// sites), and released with a held-count of one (emptying release); the
/// gaps between objects are quiet boundaries for unbalanced-lock
/// insertion.
fn gen_trace(seed: u64) -> Trace {
    let mut rng = Rng::seed_from_u64(seed);
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("gen.c");
    let lname = tr.meta_mut().strings.intern("obj_lock");
    let dt = tr.meta_mut().add_data_type(DataTypeDef {
        name: "obj".into(),
        size: 64,
        members: vec![MemberDef {
            name: "field".into(),
            offset: 0,
            size: 8,
            atomic: false,
            is_lock: false,
        }],
    });
    let task = tr.meta_mut().add_task("gen/0");
    let mut ts = 1u64;
    let mut push = |tr: &mut Trace, ev: Event| {
        let t = ts;
        ts += 1;
        tr.push(t, ev);
    };
    push(&mut tr, Event::TaskSwitch { task });
    // The lock lives far below every allocation range, so no allocation
    // is ever "tainted" by a LockInit inside it.
    push(
        &mut tr,
        Event::LockInit {
            addr: 0x10,
            name: lname,
            flavor: LockFlavor::Spinlock,
            is_static: true,
        },
    );
    let objects = rng.gen_range(1u64..4);
    for i in 0..objects {
        let addr = 0x1000 + i * 0x100;
        push(
            &mut tr,
            Event::Alloc {
                id: AllocId(i + 1),
                addr,
                size: 64,
                data_type: dt,
                subclass: None,
            },
        );
        push(
            &mut tr,
            Event::LockAcquire {
                addr: 0x10,
                mode: AcquireMode::Exclusive,
                loc: SourceLoc::new(file, 10 + i as u32),
            },
        );
        for a in 0..rng.gen_range(1u64..4) {
            push(
                &mut tr,
                Event::MemAccess {
                    kind: if rng.gen_bool(0.5) {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    },
                    addr,
                    size: 8,
                    loc: SourceLoc::new(file, 100 + a as u32),
                    atomic: false,
                },
            );
        }
        push(
            &mut tr,
            Event::LockRelease {
                addr: 0x10,
                loc: SourceLoc::new(file, 20 + i as u32),
            },
        );
        push(&mut tr, Event::Free { id: AllocId(i + 1) });
    }
    tr
}

/// Lenient import with a wide-open budget, as quarantine-report oracle
/// checks require (one bad event in a tiny trace exceeds any real budget).
fn lenient(trace: &Trace) -> (TraceDb, ImportReport) {
    import_resilient(trace, &cfg(), 1, &ResilientConfig::lenient(1.0)).expect("lenient")
}

/// A report's entries as `(class name, event index)` pairs.
fn entries(report: &ImportReport) -> Vec<(String, u64)> {
    report
        .quarantined
        .iter()
        .map(|q| (q.class.name().to_owned(), q.event_index))
        .collect()
}

/// The tentpole property: for every event-level corruption class, strict
/// mode refuses with the oracle's first entry, lenient mode's quarantine
/// report equals the oracle exactly, the import-free `quarantine_report`
/// equals the lenient report, and corpus screening's sanitized trace
/// imports to the lenient database.
#[test]
fn event_level_oracles_are_exact() {
    prop::check(
        "event_level_oracles_are_exact",
        |rng| (rng.next_u64(), rng.gen_range(0u8..6)),
        |&(seed, class_idx)| {
            let class = CorruptionClass::EVENT_LEVEL[class_idx as usize];
            let base = gen_trace(seed);
            let inj = inject(&base, class, seed ^ 0x5eed)
                .ok_or_else(|| format!("no injection site for {class}"))?;
            let corrupted = inj.trace.as_ref().expect("event-level trace");
            let Oracle::Quarantine(expected) = &inj.oracle else {
                return Err(format!("{class}: unexpected oracle {:?}", inj.oracle));
            };
            let expected: Vec<(String, u64)> = expected
                .iter()
                .map(|&(c, i)| (c.name().to_owned(), i))
                .collect();

            // Strict: typed refusal naming the first injected defect.
            let err = import_resilient(corrupted, &cfg(), 1, &ResilientConfig::strict())
                .err()
                .ok_or_else(|| format!("{class}: strict import accepted corruption"))?;
            match &err {
                ImportError::Corrupt {
                    class: got_class,
                    event_index,
                    ..
                } => {
                    prop_assert_eq!(
                        (got_class.name().to_owned(), *event_index),
                        expected[0].clone(),
                        "strict diagnosis != oracle for {}",
                        class
                    );
                }
                other => return Err(format!("{class}: unexpected error {other}")),
            }

            // Lenient: the quarantine report IS the oracle.
            let (db, report) = lenient(corrupted);
            prop_assert_eq!(
                &entries(&report),
                &expected,
                "lenient report != oracle for {}",
                class
            );
            prop_assert_eq!(
                &quarantine_report(corrupted),
                &report,
                "quarantine_report != lenient report for {}",
                class
            );

            // Screening: the same report, and a sanitized trace that the
            // fast importer turns into the lenient database. The delta
            // codec cannot encode time travel, so that class has no
            // container to screen.
            let mut bytes = Vec::new();
            if write_trace(corrupted, &mut bytes).is_err() {
                prop_assert_eq!(class, CorruptionClass::TimestampRegression);
                return Ok(());
            }
            let (screened, screen) = screen_trace(&bytes, &cfg(), 1);
            let screened = screened.ok_or_else(|| format!("{class}: screening lost the trace"))?;
            prop_assert_eq!(
                screen.import.as_ref(),
                Some(&report),
                "screen report for {}",
                class
            );
            prop_assert!(
                import(&screened, &cfg(), 1) == db,
                "screened trace does not import to the lenient database for {}",
                class
            );
            Ok(())
        },
    );
}

/// A clean trace through the resilient path is indistinguishable from the
/// fast path — same database, clean report, and the salvage reader
/// reproduces the container byte-for-byte.
#[test]
fn clean_traces_pass_through_unchanged() {
    prop::check(
        "clean_traces_pass_through_unchanged",
        |rng| rng.next_u64(),
        |&seed| {
            let base = gen_trace(seed);
            let fast = import(&base, &cfg(), 1);
            let (db, report) = import_resilient(&base, &cfg(), 1, &ResilientConfig::default())
                .map_err(|e| e.to_string())?;
            prop_assert!(report.is_clean(), "clean trace quarantined: {:?}", report);
            prop_assert!(db == fast, "resilient db != fast db");
            let (strict, _) = import_resilient(&base, &cfg(), 1, &ResilientConfig::strict())
                .map_err(|e| e.to_string())?;
            prop_assert!(strict == fast, "strict db != fast db");
            let mut bytes = Vec::new();
            write_trace(&base, &mut bytes).map_err(|e| e.to_string())?;
            let (salvaged, sreport) = read_trace_salvage(&bytes).map_err(|e| e.to_string())?;
            prop_assert!(
                sreport.is_clean(),
                "clean container diagnosed: {:?}",
                sreport
            );
            let mut reencoded = Vec::new();
            write_trace(&salvaged, &mut reencoded).map_err(|e| e.to_string())?;
            prop_assert!(reencoded == bytes, "salvage round-trip not byte-identical");
            Ok(())
        },
    );
}

/// Mid-record truncation: the strict reader refuses, salvage recovers the
/// exact intact prefix and diagnoses the first failure at the cut record's
/// byte offset.
#[test]
fn truncation_recovers_exact_prefix() {
    prop::check(
        "truncation_recovers_exact_prefix",
        |rng| rng.next_u64(),
        |&seed| {
            let base = gen_trace(seed);
            let inj = inject(&base, CorruptionClass::TruncateTail, seed ^ 0xc07)
                .ok_or("no truncation site")?;
            let bytes = inj.bytes.as_ref().expect("byte-level artifact");
            let Oracle::Truncated {
                intact_events,
                cut_record_offset,
            } = inj.oracle
            else {
                return Err(format!("unexpected oracle {:?}", inj.oracle));
            };
            prop_assert!(
                read_trace(&mut bytes.as_slice()).is_err(),
                "strict read accepted a truncated container"
            );
            let (salvaged, report) = read_trace_salvage(bytes).map_err(|e| e.to_string())?;
            prop_assert!(report.failures >= 1, "no failure diagnosed");
            prop_assert!(
                salvaged.events.len() >= intact_events,
                "salvage lost intact records"
            );
            prop_assert!(
                salvaged.events[..intact_events] == base.events[..intact_events],
                "recovered prefix differs from the original"
            );
            let first = report.diags.first().ok_or("no diagnostics")?;
            prop_assert_eq!(first.event_index, intact_events as u64);
            prop_assert_eq!(first.offset, cut_record_offset as u64);
            Ok(())
        },
    );
}

/// Metadata bit flips never panic, hang, or over-allocate: both readers
/// return a typed result.
#[test]
fn metadata_bitflips_never_panic() {
    prop::check(
        "metadata_bitflips_never_panic",
        |rng| rng.next_u64(),
        |&seed| {
            let base = gen_trace(seed);
            let inj = inject(&base, CorruptionClass::LengthPrefixBitFlip, seed ^ 0xb17)
                .ok_or("no bitflip site")?;
            let bytes = inj.bytes.as_ref().expect("byte-level artifact");
            let strict = read_trace(&mut bytes.as_slice());
            let salvage = read_trace_salvage(bytes);
            // A lucky flip may still decode; whatever decodes must import
            // without panicking.
            if let Ok(trace) = &strict {
                let _ = import_resilient(trace, &cfg(), 1, &ResilientConfig::lenient(1.0));
            }
            if let Ok((trace, _)) = &salvage {
                let _ = import_resilient(trace, &cfg(), 1, &ResilientConfig::lenient(1.0));
            }
            Ok(())
        },
    );
}

/// The error budget is a hard gate: a corrupted trace passes with a wide
/// budget and is refused with a zero budget, with exact accounting.
#[test]
fn budget_gates_are_exact() {
    prop::check(
        "budget_gates_are_exact",
        |rng| rng.next_u64(),
        |&seed| {
            let base = gen_trace(seed);
            let inj = inject(&base, CorruptionClass::DoubleFree, seed ^ 0xbad9e7)
                .ok_or("no double-free site")?;
            let corrupted = inj.trace.as_ref().expect("event-level trace");
            let err = import_resilient(corrupted, &cfg(), 1, &ResilientConfig::lenient(0.0))
                .err()
                .ok_or("zero budget accepted corruption")?;
            match err {
                ImportError::BudgetExceeded {
                    quarantined,
                    events,
                    ..
                } => {
                    prop_assert_eq!(quarantined, 1);
                    prop_assert_eq!(events, corrupted.events.len() as u64);
                }
                other => return Err(format!("unexpected error {other}")),
            }
            let (_, report) =
                import_resilient(corrupted, &cfg(), 1, &ResilientConfig::lenient(1.0))
                    .map_err(|e| e.to_string())?;
            prop_assert_eq!(report.quarantined.len(), 1);
            Ok(())
        },
    );
}

/// Quarantine reports survive the JSON interchange format losslessly.
#[test]
fn quarantine_reports_round_trip_through_json() {
    prop::check(
        "quarantine_reports_round_trip_through_json",
        |rng| (rng.next_u64(), rng.gen_range(0u8..6)),
        |&(seed, class_idx)| {
            let class = CorruptionClass::EVENT_LEVEL[class_idx as usize];
            let base = gen_trace(seed);
            let inj = inject(&base, class, seed ^ 0x150)
                .ok_or_else(|| format!("no injection site for {class}"))?;
            let corrupted = inj.trace.as_ref().expect("event-level trace");
            let (_, report) =
                import_resilient(corrupted, &cfg(), 1, &ResilientConfig::lenient(1.0))
                    .map_err(|e| e.to_string())?;
            let text = lockdoc_platform::json::to_string_pretty(&report);
            let back: lockdoc_trace::db::ImportReport =
                lockdoc_platform::json::from_str(&text).map_err(|e| e.to_string())?;
            prop_assert_eq!(back, report, "ImportReport JSON round-trip");
            Ok(())
        },
    );
}

/// Pinned end-to-end case: every class injected into one canonical trace,
/// exercised through both readers and both policies. This is the
/// deterministic fast check the property suite generalizes.
#[test]
fn every_class_end_to_end_on_canonical_trace() {
    let base = gen_trace(0x10cd0c);
    for class in CorruptionClass::ALL {
        let inj = inject(&base, class, 7).unwrap_or_else(|| panic!("no site for {class}"));
        match &inj.oracle {
            Oracle::Quarantine(expected) => {
                let corrupted = inj.trace.as_ref().expect("trace");
                let strict = import_resilient(corrupted, &cfg(), 1, &ResilientConfig::strict());
                assert!(strict.is_err(), "{class}");
                let got = entries(&lenient(corrupted).1);
                let want: Vec<(String, u64)> = expected
                    .iter()
                    .map(|&(c, i)| (c.name().to_owned(), i))
                    .collect();
                assert_eq!(got, want, "{class}");
            }
            Oracle::Truncated { intact_events, .. } => {
                let bytes = inj.bytes.as_ref().expect("bytes");
                assert!(read_trace(&mut bytes.as_slice()).is_err(), "{class}");
                let (salvaged, report) = read_trace_salvage(bytes).expect("salvage");
                assert!(report.failures >= 1, "{class}");
                assert_eq!(
                    &salvaged.events[..*intact_events],
                    &base.events[..*intact_events],
                    "{class}"
                );
            }
            Oracle::MetaDamage { .. } => {
                let bytes = inj.bytes.as_ref().expect("bytes");
                let _ = read_trace(&mut bytes.as_slice());
                let _ = read_trace_salvage(bytes);
            }
        }
    }
}
