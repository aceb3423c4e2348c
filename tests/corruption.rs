//! Differential corruption-oracle suite: `lockdoc_trace::corrupt` injects
//! labelled corruption into generated traces and the resilient pipeline
//! must observe *exactly* what the oracle says — strict mode refuses with
//! the precise class and event index, lenient mode's quarantine report
//! matches the injected oracle entry-for-entry (as does corpus
//! screening), salvage recovers the exact
//! intact prefix of a truncated container, and a clean trace pushed
//! through the resilient path is byte-identical to the fast path. The
//! single streaming pass (quarantine checks folded into the importer) is
//! checked against the two-pass reference it replaced: salvage decoding,
//! the separate detector in [`reference`], then import of the kept events.
//! A bounded-exhaustive property feeds every short event sequence over a
//! small alphabet ([`tiny_alphabet`]) through every ingest entry point,
//! and pins that a plain import keeps the tables a lenient one keeps.
//!
//! Property tests run on the in-tree `lockdoc_platform::prop` harness.
//! A failing property prints its run seed; reproduce with
//! `LOCKDOC_PROP_SEED=<seed> cargo test -q <test-name>`. CI soak runs
//! raise `LOCKDOC_PROP_CASES` (see `scripts/verify.sh`).

use lockdoc_platform::prop;
use lockdoc_platform::rng::Rng;
use lockdoc_platform::{prop_assert, prop_assert_eq};
use lockdoc_trace::codec::{read_trace, read_trace_salvage, write_trace, TraceReader};
use lockdoc_trace::corpus::{screen, screen_trace, Health};
use lockdoc_trace::corrupt::{inject, CorruptionClass, Oracle};
use lockdoc_trace::db::{
    import, import_resilient, import_stream, ingest, ImportError, ImportPolicy, ImportReport,
    ImportStats, IngestOptions, ResilientConfig, TraceDb,
};
use lockdoc_trace::event::{
    AccessKind, AcquireMode, ContextKind, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc,
    Trace, TraceEvent, TraceMeta,
};
use lockdoc_trace::filter::FilterConfig;
use lockdoc_trace::ids::{AllocId, DataTypeId, FnId, Sym, TaskId};
use std::sync::Arc;

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
/// report equals the oracle exactly, and corpus screening gives the same
/// report and a sanitized trace that imports to the lenient database.
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

/// The quarantine detector as a separate forward pass over a materialized
/// trace, with its own maps — the design the importer's folded checks
/// replaced, kept verbatim as their reference.
mod reference {
    use lockdoc_trace::db::{FlowKey, QuarantineClass, QuarantineEntry};
    use lockdoc_trace::event::{ContextKind, Event, SourceLoc, Trace, TraceMeta};
    use lockdoc_trace::ids::{Addr, AllocId, DataTypeId, FnId, LockId, Sym, TaskId};
    use std::collections::{BTreeMap, HashMap};

    fn valid_sym(meta: &TraceMeta, sym: Sym) -> bool {
        sym.index() < meta.strings.len()
    }

    fn valid_fn(meta: &TraceMeta, f: FnId) -> bool {
        f.index() < meta.functions.len()
    }

    fn valid_task(meta: &TraceMeta, t: TaskId) -> bool {
        t.index() < meta.tasks.len()
    }

    fn valid_dt(meta: &TraceMeta, dt: DataTypeId) -> bool {
        dt.index() < meta.data_types.len()
    }

    fn valid_loc(meta: &TraceMeta, loc: &SourceLoc) -> bool {
        valid_sym(meta, loc.file)
    }

    /// Detects malformed events in one serial pass, mirroring the fast
    /// importer's per-event check order so strict mode names exactly the event
    /// the fast path would have mishandled first. Global state (allocation
    /// table, lock registry, task and context routing) and each flow's held
    /// locks are replayed side by side, so entries come out in event-index
    /// order with at most one per event.
    pub fn detect(trace: &Trace) -> Vec<QuarantineEntry> {
        let meta = &trace.meta;
        let mut entries: Vec<QuarantineEntry> = Vec::new();

        let mut max_ts = 0u64;
        // Allocation table: addr + size + freed flag per ever-seen id.
        struct AllocInfo {
            addr: Addr,
            size: u32,
            freed: bool,
        }
        let mut allocs: HashMap<AllocId, AllocInfo> = HashMap::new();
        let mut active_allocs: BTreeMap<Addr, AllocId> = BTreeMap::new();
        // Registered locks by address (latest registration wins, like the
        // fast importer's `active_locks`).
        let mut active_locks: HashMap<Addr, (LockId, bool)> = HashMap::new();
        let mut n_locks = 0u32;
        let mut current_task = TaskId(0);
        let mut ctx_stack: Vec<ContextKind> = Vec::new();
        // Held locks per control flow, with reentrancy counts, in acquisition
        // order (the fast importer's `FlowState::held`).
        let mut held: HashMap<FlowKey, Vec<(LockId, u32)>> = HashMap::new();

        macro_rules! quarantine {
            ($idx:expr, $class:expr, $($fmt:tt)*) => {{
                entries.push(QuarantineEntry {
                    event_index: $idx,
                    class: $class,
                    detail: format!($($fmt)*),
                });
                continue;
            }};
        }

        for (i, te) in trace.events.iter().enumerate() {
            let idx = i as u64;
            // Timestamps first: an event that travels back in time is dropped
            // before any of its effects register, and the high-water mark only
            // advances on kept events so one regressed event cannot drag a
            // healthy successor into quarantine with it.
            if te.ts < max_ts {
                quarantine!(
                    idx,
                    QuarantineClass::TimestampRegression,
                    "ts {} after high-water mark {}",
                    te.ts,
                    max_ts
                );
            }
            match &te.event {
                Event::LockInit {
                    addr, name, flavor, ..
                } => {
                    if !valid_sym(meta, *name) {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingMeta,
                            "lock name string #{} (table has {})",
                            name.0,
                            meta.strings.len()
                        );
                    }
                    active_locks.insert(*addr, (LockId(n_locks), flavor.reentrant()));
                    n_locks += 1;
                }
                Event::Alloc {
                    id,
                    addr,
                    size,
                    data_type,
                    subclass,
                } => {
                    if !valid_dt(meta, *data_type) {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingMeta,
                            "data type #{} (table has {})",
                            data_type.0,
                            meta.data_types.len()
                        );
                    }
                    if let Some(s) = subclass {
                        if !valid_sym(meta, *s) {
                            quarantine!(
                                idx,
                                QuarantineClass::DanglingMeta,
                                "subclass string #{} (table has {})",
                                s.0,
                                meta.strings.len()
                            );
                        }
                    }
                    if allocs.contains_key(id) {
                        quarantine!(
                            idx,
                            QuarantineClass::DuplicateAllocId,
                            "alloc id {} already in use",
                            id.0
                        );
                    }
                    let Some(end) = addr.checked_add(u64::from(*size)) else {
                        quarantine!(
                            idx,
                            QuarantineClass::OverlappingAlloc,
                            "range {:#x}+{} wraps the address space",
                            addr,
                            size
                        );
                    };
                    let overlaps = active_allocs
                        .range(..end)
                        .next_back()
                        .map(|(&prev_addr, &prev_id)| {
                            let prev = &allocs[&prev_id];
                            (*addr >= prev_addr
                                && *addr < prev_addr.saturating_add(u64::from(prev.size)))
                                || (*addr..end).contains(&prev_addr)
                        })
                        .unwrap_or(false);
                    if overlaps {
                        quarantine!(
                            idx,
                            QuarantineClass::OverlappingAlloc,
                            "range {:#x}+{} overlaps a live allocation",
                            addr,
                            size
                        );
                    }
                    allocs.insert(
                        *id,
                        AllocInfo {
                            addr: *addr,
                            size: *size,
                            freed: false,
                        },
                    );
                    active_allocs.insert(*addr, *id);
                }
                Event::Free { id } => match allocs.get_mut(id) {
                    None => {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingFree,
                            "free of alloc id {} never allocated",
                            id.0
                        );
                    }
                    Some(info) if info.freed => {
                        // Defined double-free semantics: the second free is
                        // quarantined here instead of reaching the fast
                        // importer, where it would deactivate whatever
                        // allocation happens to occupy the address now.
                        quarantine!(
                            idx,
                            QuarantineClass::DoubleFree,
                            "alloc id {} already freed",
                            id.0
                        );
                    }
                    Some(info) => {
                        info.freed = true;
                        let (addr, size) = (info.addr, info.size);
                        active_allocs.remove(&addr);
                        active_locks.retain(|&a, _| {
                            !(a >= addr && a < addr.saturating_add(u64::from(size)))
                        });
                    }
                },
                Event::LockAcquire { addr, loc, .. } => {
                    if !valid_loc(meta, loc) {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingMeta,
                            "acquire loc file string #{} (table has {})",
                            loc.file.0,
                            meta.strings.len()
                        );
                    }
                    // Acquires of unregistered addresses are tolerated (the
                    // fast path counts them in `unknown_lock_acquires`); only
                    // registered locks take part in the balance check.
                    if let Some(&(lock, reentrant)) = active_locks.get(addr) {
                        let stack = held.entry(flow_key(&ctx_stack, current_task)).or_default();
                        match stack.iter_mut().find(|(l, _)| *l == lock) {
                            Some(entry) if reentrant => entry.1 += 1,
                            _ => stack.push((lock, 1)),
                        }
                    }
                }
                Event::LockRelease { addr, loc } => {
                    if !valid_loc(meta, loc) {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingMeta,
                            "release loc file string #{} (table has {})",
                            loc.file.0,
                            meta.strings.len()
                        );
                    }
                    // Releases of unregistered addresses are tolerated like
                    // the fast path's `unmatched_releases` counter: with no
                    // registration there is no flow to balance against.
                    if let Some(&(lock, _)) = active_locks.get(addr) {
                        let stack = held.entry(flow_key(&ctx_stack, current_task)).or_default();
                        // Most recent acquisition first, as the fast importer
                        // matches. An unmatched release is quarantined without
                        // `continue`: it still advances the high-water mark.
                        match stack.iter().rposition(|(l, _)| *l == lock) {
                            Some(pos) if stack[pos].1 > 1 => stack[pos].1 -= 1,
                            Some(pos) => {
                                stack.remove(pos);
                            }
                            None => entries.push(QuarantineEntry {
                                event_index: idx,
                                class: QuarantineClass::UnbalancedRelease,
                                detail: format!("release of lock {addr:#x} not held by this flow"),
                            }),
                        }
                    }
                }
                Event::MemAccess { loc, .. } => {
                    if !valid_loc(meta, loc) {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingMeta,
                            "access loc file string #{} (table has {})",
                            loc.file.0,
                            meta.strings.len()
                        );
                    }
                }
                Event::FnEnter { func } => {
                    if !valid_fn(meta, *func) {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingMeta,
                            "function #{} (table has {})",
                            func.0,
                            meta.functions.len()
                        );
                    }
                }
                Event::FnExit { .. } => {}
                Event::TaskSwitch { task } => {
                    if !valid_task(meta, *task) {
                        quarantine!(
                            idx,
                            QuarantineClass::DanglingMeta,
                            "task #{} (table has {})",
                            task.0,
                            meta.tasks.len()
                        );
                    }
                    current_task = *task;
                }
                Event::ContextEnter {
                    kind: ContextKind::Task,
                } => {
                    quarantine!(
                        idx,
                        QuarantineClass::TaskContext,
                        "context enter of the task context"
                    );
                }
                Event::ContextEnter { kind } => ctx_stack.push(*kind),
                Event::ContextExit { kind } => {
                    if ctx_stack.last() == Some(kind) {
                        ctx_stack.pop();
                    }
                }
            }
            max_ts = te.ts;
        }
        entries
    }

    fn flow_key(ctx_stack: &[ContextKind], current_task: TaskId) -> FlowKey {
        match ctx_stack.last() {
            Some(kind) => FlowKey::irq(*kind),
            None => FlowKey::Task(current_task),
        }
    }
}

/// The two-pass reference on a materialized trace: [`reference::detect`],
/// then the kept events imported by the fast importer.
fn two_pass_import(mut trace: Trace) -> (Trace, ImportReport, TraceDb) {
    let quarantined = reference::detect(&trace);
    let events = trace.events.len() as u64;
    let report = ImportReport {
        events,
        bad_frac: if events == 0 {
            0.0
        } else {
            quarantined.len() as f64 / events as f64
        },
        quarantined,
    };
    let dropped: std::collections::BTreeSet<u64> =
        report.quarantined.iter().map(|q| q.event_index).collect();
    let mut index = 0u64;
    trace.events.retain(|_| {
        index += 1;
        !dropped.contains(&(index - 1))
    });
    let db = import(&trace, &cfg(), 1);
    (trace, report, db)
}

/// A corrupted container for the single-pass differential: a byte-level
/// injection, an event-level one, two or three stacked event-level ones,
/// or one to three random byte writes into the clean container.
fn corrupted_container(seed: u64, kind: u8) -> Option<Vec<u8>> {
    let base = gen_trace(seed);
    let mut rng = Rng::seed_from_u64(seed ^ 0x51_9e1e);
    let encode = |trace: &Trace| {
        let mut bytes = Vec::new();
        write_trace(trace, &mut bytes).ok().map(|_| bytes)
    };
    match kind {
        0 => {
            let class = *rng.choose(&CorruptionClass::BYTE_LEVEL)?;
            inject(&base, class, rng.next_u64())?.bytes
        }
        1 | 2 => {
            let layers = if kind == 1 { 1 } else { rng.gen_range(2u8..4) };
            // The delta codec cannot encode time travel, so regressed
            // timestamps have no container.
            let classes: Vec<CorruptionClass> = CorruptionClass::EVENT_LEVEL
                .into_iter()
                .filter(|&c| c != CorruptionClass::TimestampRegression)
                .collect();
            let mut trace = base;
            for _ in 0..layers {
                let class = *rng.choose(&classes)?;
                if let Some(inj) = inject(&trace, class, rng.next_u64()) {
                    trace = inj.trace?;
                }
            }
            encode(&trace)
        }
        _ => {
            let mut bytes = encode(&base)?;
            for _ in 0..rng.gen_range(1u8..4) {
                let at = rng.gen_range(0..bytes.len());
                bytes[at] = rng.next_u32() as u8;
            }
            Some(bytes)
        }
    }
}

/// The streaming entry point — salvage decoding straight into the
/// importer's folded quarantine checks — gives the same store, reports,
/// health and sanitized trace as the two-pass reference (salvage decode,
/// [`reference::detect`], retain, import); table-free screening gives the
/// same report; and the strict and budgeted lenient policies reach the
/// same verdicts, with a strict decode failure winning over a malformed
/// event.
#[test]
fn single_pass_matches_two_pass_reference() {
    prop::check(
        "single_pass_matches_two_pass_reference",
        |rng| (rng.next_u64(), rng.gen_range(0u8..4)),
        |&(seed, kind)| {
            let Some(bytes) = corrupted_container(seed, kind) else {
                return Ok(());
            };
            let bytes = bytes.as_slice();
            let full = screen(bytes, &cfg(), true, false);
            let table_free = screen(bytes, &cfg(), false, false);
            let (sanitized, screen_report) = screen_trace(bytes, &cfg(), 1);
            let (salvaged, salvage) = match read_trace_salvage(bytes) {
                Ok(ok) => ok,
                Err(e) => {
                    prop_assert!(full.is_err() && table_free.is_err(), "{e}: screened");
                    prop_assert_eq!(screen_report.health, Health::Unreadable);
                    return Ok(());
                }
            };
            let (kept, report, db) = two_pass_import(salvaged);
            let health = if salvage.is_clean() && report.is_clean() {
                Health::Healthy
            } else {
                Health::Degraded
            };
            let full = full.map_err(|e| format!("full pass failed: {e}"))?;
            prop_assert!(full.db.as_ref() == Some(&db), "store differs");
            prop_assert_eq!(&full.report, &report);
            prop_assert_eq!(&full.salvage, &salvage);
            prop_assert_eq!(Health::of(&full.salvage, &full.report), health);
            let table_free = table_free.map_err(|e| format!("table-free pass failed: {e}"))?;
            prop_assert!(table_free.db.is_none(), "table-free pass built a store");
            prop_assert_eq!(&table_free.report, &report);
            prop_assert_eq!(screen_report.health, health);
            prop_assert!(sanitized.as_ref() == Some(&kept), "sanitized trace differs");

            // Budgeted lenient: refused exactly when the reference's
            // quarantined fraction exceeds the budget.
            let budget = ResilientConfig::lenient(0.05);
            let want = if !report.is_clean() && report.bad_frac > budget.max_bad_frac {
                Err(ImportError::BudgetExceeded {
                    quarantined: report.quarantined.len() as u64,
                    events: report.events,
                    max_bad_frac: budget.max_bad_frac,
                })
            } else {
                Ok(db.clone())
            };
            prop_assert_eq!(run_ingest(bytes, budget), want.map_err(|e| e.to_string()));

            // Strict: the whole container must decode before the first
            // malformed event is refused.
            let want = match read_trace(&mut &bytes[..]) {
                Err(e) => Err(e.to_string()),
                Ok(trace) => match reference::detect(&trace).first() {
                    Some(q) => Err(ImportError::Corrupt {
                        class: q.class,
                        event_index: q.event_index,
                        detail: q.detail.clone(),
                    }
                    .to_string()),
                    None => Ok(import(&trace, &cfg(), 1)),
                },
            };
            prop_assert_eq!(run_ingest(bytes, ResilientConfig::strict()), want);
            Ok(())
        },
    );
}

/// [`ingest`] into a store under `rcfg`'s policy, then its verdict, as
/// `import --lenient`/`--strict` run them; errors rendered.
fn run_ingest(bytes: &[u8], rcfg: ResilientConfig) -> Result<TraceDb, String> {
    let reader = TraceReader::new(bytes).map_err(|e| e.to_string())?;
    let opts = IngestOptions {
        policy: rcfg.policy,
        tables: true,
        keep_events: false,
    };
    let ing = ingest(reader, &cfg(), opts).map_err(|e| e.to_string())?;
    rcfg.verdict(&ing.report).map_err(|e| e.to_string())?;
    Ok(ing.db.expect("tables"))
}

/// Rewrites up to four fields of one random event to small values, so
/// that timestamps regress, ids collide, ranges overlap or wrap, locks go
/// unheld and references dangle — often several at once, which pins the
/// order of the checks.
fn scramble(rng: &mut Rng, trace: &mut Trace) {
    // Half the picks go to an `Alloc`, which carries five of the checks.
    let allocs: Vec<usize> = (0..trace.events.len())
        .filter(|&i| matches!(trace.events[i].event, Event::Alloc { .. }))
        .collect();
    let at = match rng.choose(&allocs) {
        Some(&i) if rng.gen_bool(0.5) => i,
        _ => rng.gen_range(0..trace.events.len()),
    };
    for _ in 0..rng.gen_range(1u8..5) {
        let small = rng.gen_range(0u32..4);
        let te = &mut trace.events[at];
        match (&mut te.event, rng.gen_range(0u8..6)) {
            (_, 0) => te.ts = rng.gen_range(0..te.ts.max(1)),
            (Event::Alloc { id, .. }, 1) => *id = AllocId(u64::from(small)),
            (Event::Alloc { addr, .. }, 2) => {
                *addr = *rng.choose(&[0x1000, 0x1020, u64::MAX - 8]).unwrap()
            }
            (Event::Alloc { size, .. }, 3) => *size = *rng.choose(&[0, 64, u32::MAX]).unwrap(),
            (Event::Alloc { data_type, .. }, 4) => *data_type = DataTypeId(small),
            (Event::Alloc { subclass, .. }, _) => *subclass = Some(Sym(small)),
            (Event::Free { id }, _) => *id = AllocId(u64::from(small)),
            (Event::LockInit { name, .. }, _) => *name = Sym(small),
            (Event::LockAcquire { addr, .. } | Event::LockRelease { addr, .. }, 1 | 2) => {
                *addr = *rng.choose(&[0x10, 0x20, 0x1000]).unwrap()
            }
            (Event::LockAcquire { loc, .. } | Event::LockRelease { loc, .. }, _) => {
                loc.file = Sym(small)
            }
            (Event::MemAccess { loc, .. }, _) => loc.file = Sym(small),
            (Event::FnEnter { func }, _) => *func = FnId(small),
            (Event::TaskSwitch { task }, _) => *task = TaskId(small),
            _ => {}
        }
    }
}

/// The folded checks over an in-memory trace — where timestamp
/// regressions, which no container can hold, do occur — equal the
/// reference detector, and the lenient store equals the fast import of
/// the kept events. Stacked injections are followed by [`scramble`]d
/// events. An event failing two checks at once is rare and each case is
/// tiny, so this property runs eight times the configured case count.
#[test]
fn folded_checks_match_reference_detector() {
    let mut cfg = prop::Config::from_env();
    cfg.cases = cfg.cases.saturating_mul(8);
    prop::check_with(
        &cfg,
        "folded_checks_match_reference_detector",
        |rng| (rng.next_u64(), rng.gen_range(1u8..4)),
        |&(seed, layers)| {
            let mut rng = Rng::seed_from_u64(seed);
            let mut trace = gen_trace(seed);
            for _ in 0..layers {
                let class = *rng.choose(&CorruptionClass::EVENT_LEVEL).unwrap();
                if let Some(inj) = inject(&trace, class, rng.next_u64()) {
                    trace = inj.trace.expect("event-level trace");
                }
            }
            for _ in 0..rng.gen_range(0u8..6) {
                scramble(&mut rng, &mut trace);
            }
            let (_, report, db) = two_pass_import(trace.clone());
            let (lenient_db, lenient_report) = lenient(&trace);
            prop_assert_eq!(&lenient_report, &report);
            prop_assert!(lenient_db == db, "lenient store differs");
            Ok(())
        },
    );
}

/// Metadata of the exhaustive property's traces: two strings (a file and
/// a lock name), one data type with a plain and a lock member, one
/// function and two tasks. Id 2 is one past the string and task tables,
/// id 1 one past the type and function tables.
fn tiny_meta() -> TraceMeta {
    let mut meta = TraceMeta::default();
    meta.strings.intern("tiny.c");
    meta.strings.intern("tiny_lock");
    let member = |name: &str, offset, is_lock| MemberDef {
        name: name.into(),
        offset,
        size: 8,
        atomic: false,
        is_lock,
    };
    meta.add_data_type(DataTypeDef {
        name: "tiny".into(),
        size: 16,
        members: vec![member("field", 0, false), member("lock", 8, true)],
    });
    meta.add_function("tiny_fn");
    meta.add_task("t0");
    meta.add_task("t1");
    meta
}

/// The exhaustive property's alphabet over [`tiny_meta`]: every `Event`
/// variant, every `LockFlavor`, `AcquireMode`, `AccessKind` and
/// `ContextKind` tag, a reference one past each metadata table, and the
/// allocations, frees and lock addresses that make the checks of
/// [`reference::detect`] fire: allocation 0 embeds lock `EMBEDDED`, every
/// other lock registers `GLOBAL`.
fn tiny_alphabet() -> Vec<Event> {
    const EMBEDDED: u64 = 0x108;
    const GLOBAL: u64 = 0x900;
    let ok = SourceLoc::new(Sym(0), 1);
    let dangling_loc = SourceLoc::new(Sym(2), 1);
    let alloc = |id, addr, data_type, subclass| Event::Alloc {
        id: AllocId(id),
        addr,
        size: 16,
        data_type: DataTypeId(data_type),
        subclass,
    };
    let mut alphabet = vec![
        alloc(0, 0x100, 0, Some(Sym(1))),
        alloc(1, EMBEDDED, 0, None),      // overlaps allocation 0
        alloc(1, u64::MAX - 7, 0, None),  // wraps the address space
        alloc(1, 0x200, 1, Some(Sym(2))), // dangling type and subclass
        alloc(2, 0x200, 0, Some(Sym(2))), // dangling subclass
        Event::Free { id: AllocId(0) },
        Event::Free { id: AllocId(3) }, // never allocated
    ];
    for (i, flavor) in [
        LockFlavor::Spinlock,
        LockFlavor::Rwlock,
        LockFlavor::Mutex,
        LockFlavor::Semaphore,
        LockFlavor::RwSemaphore,
        LockFlavor::Seqlock,
        LockFlavor::Rcu,
        LockFlavor::Softirq,
        LockFlavor::Hardirq,
    ]
    .into_iter()
    .enumerate()
    {
        alphabet.push(Event::LockInit {
            addr: if i == 0 { EMBEDDED } else { GLOBAL },
            // The last flavor's name is dangling.
            name: Sym(if i == 8 { 2 } else { 1 }),
            flavor,
            is_static: i != 0,
        });
    }
    for (addr, mode, loc) in [
        (GLOBAL, AcquireMode::Shared, ok),
        (EMBEDDED, AcquireMode::Exclusive, ok),
        (GLOBAL, AcquireMode::Exclusive, dangling_loc),
    ] {
        alphabet.push(Event::LockAcquire { addr, mode, loc });
    }
    for (addr, loc) in [(GLOBAL, ok), (EMBEDDED, ok), (GLOBAL, dangling_loc)] {
        alphabet.push(Event::LockRelease { addr, loc });
    }
    for (kind, addr, loc, atomic) in [
        (AccessKind::Read, 0x100, ok, false),
        (AccessKind::Write, 0x100, ok, false),
        (AccessKind::Read, 0x10c, ok, true),
        (AccessKind::Write, 0x100, dangling_loc, false),
    ] {
        let size = 4;
        alphabet.push(Event::MemAccess {
            kind,
            addr,
            size,
            loc,
            atomic,
        });
    }
    alphabet.extend([
        Event::FnEnter { func: FnId(0) },
        Event::FnEnter { func: FnId(1) },
        Event::FnExit { func: FnId(0) },
        Event::TaskSwitch { task: TaskId(1) },
        Event::TaskSwitch { task: TaskId(2) },
    ]);
    for kind in [
        ContextKind::Task,
        ContextKind::Softirq,
        ContextKind::Hardirq,
    ] {
        alphabet.push(Event::ContextEnter { kind });
        alphabet.push(Event::ContextExit { kind });
    }
    alphabet
}

/// Calls `f` on every sequence of `0..=k` letters of an alphabet of
/// `letters` letters, shorter sequences first.
fn for_each_sequence(letters: usize, k: usize, mut f: impl FnMut(&[usize])) {
    for len in 0..=k {
        let mut seq = vec![0; len];
        'seqs: loop {
            f(&seq);
            for digit in seq.iter_mut().rev() {
                *digit += 1;
                if *digit < letters {
                    continue 'seqs;
                }
                *digit = 0;
            }
            break;
        }
    }
}

/// `db` with its `stats` zeroed, so that two stores compare by their
/// tables alone: a plain import counts the malformed events a policy
/// quarantines, and counts every fed event.
fn tables(db: &TraceDb) -> TraceDb {
    let stats = ImportStats::default();
    TraceDb {
        stats,
        ..db.clone()
    }
}

/// One trace through every ingest entry point: `import`, `import_stream`
/// of its encoding, and `ingest` under the lenient and the strict policy.
/// Each must return; the streamed store equals the imported one, the
/// lenient run equals the two-pass reference (report and store), the
/// imported store holds the lenient store's tables, and the strict run
/// stops at the reference's first entry.
fn ingest_every_way(trace: &Trace) {
    let mut bytes = Vec::new();
    write_trace(trace, &mut bytes).expect("a monotonic trace encodes");
    // Small refills make records straddle chunk boundaries, and keep a
    // debug build from zeroing a default 64 KiB chunk per reader.
    let reader = || TraceReader::with_chunk_size(bytes.as_slice(), 16).expect("header decodes");
    let db = import(trace, &cfg(), 1);
    let streamed = import_stream(reader(), &cfg(), 1).expect("a clean container imports");
    assert_eq!(
        streamed, db,
        "import_stream != import on {:?}",
        trace.events
    );
    let ingest_under = |policy| {
        let opts = IngestOptions {
            policy,
            tables: true,
            keep_events: false,
        };
        ingest(reader(), &cfg(), opts).expect("a clean container ingests")
    };
    let (_, want, kept) = two_pass_import(trace.clone());
    let lenient = ingest_under(ImportPolicy::Lenient);
    assert_eq!(lenient.report, want, "lenient report on {:?}", trace.events);
    assert_eq!(
        tables(&db),
        tables(&kept),
        "plain import's tables != lenient's on {:?}",
        trace.events
    );
    assert_eq!(
        lenient.db,
        Some(kept),
        "lenient store on {:?}",
        trace.events
    );
    let strict = ingest_under(ImportPolicy::Strict);
    let first = &want.quarantined[..want.quarantined.len().min(1)];
    assert_eq!(
        strict.report.quarantined, first,
        "strict on {:?}",
        trace.events
    );
}

/// Runs [`ingest_every_way`] on every sequence of at most `k` events over
/// [`tiny_alphabet`], timestamped 1, 2, 3, ...
fn ingest_is_total_up_to(k: usize) {
    let meta = Arc::new(tiny_meta());
    let alphabet = tiny_alphabet();
    for_each_sequence(alphabet.len(), k, |seq| {
        let events = seq
            .iter()
            .enumerate()
            .map(|(i, &letter)| TraceEvent {
                ts: i as u64 + 1,
                event: alphabet[letter].clone(),
            })
            .collect();
        let meta = Arc::clone(&meta);
        ingest_every_way(&Trace { meta, events });
    });
}

/// Bounded-exhaustive ingest property: every sequence of up to three
/// events over an alphabet that holds every event variant and enum tag
/// and a dangling id per metadata table. Among them, the one-letter trace
/// holding the `Alloc` that wraps the address space and `[Alloc 0,
/// Free 0, Free 0]` each hold a malformed event that, replayed, would
/// change the plain import's tables.
#[test]
fn ingest_is_total_over_short_sequences() {
    ingest_is_total_up_to(3);
}

/// The same property over every sequence of up to four events (a soak:
/// about two million sequences; CI's soak step runs it in release).
#[test]
#[ignore]
fn ingest_is_total_over_four_event_sequences() {
    ingest_is_total_up_to(4);
}
