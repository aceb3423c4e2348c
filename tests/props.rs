//! Property-based tests of the core invariants, on the in-tree
//! `lockdoc_platform::prop` harness:
//!
//! * codec round-trips arbitrary event streams,
//! * transaction reconstruction matches a reference interpreter,
//! * hypothesis support is anti-monotone under sequence extension,
//! * the selected winner always satisfies the selection contract,
//! * rule-notation printing and parsing are inverses,
//! * the write-over-read fold is idempotent and consistent,
//! * the shared evidence index agrees with the paper-level functions.
//!
//! A failing property prints its run seed; reproduce with
//! `LOCKDOC_PROP_SEED=<seed> cargo test -q <test-name>`.

use lockdoc_core::derive::{derive_in, derive_par, DeriveConfig};
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::hypothesis::{complies, enumerate, observations_for, Observation};
use lockdoc_core::lint::lint_passes;
use lockdoc_core::lockset::{resolve_txn_locks, LockDescriptor};
use lockdoc_core::matrix::AccessMatrix;
use lockdoc_core::order::{lock_class, OrderEdge, OrderGraph};
use lockdoc_core::rulespec::{parse_rule, parse_rules, RuleSpec};
use lockdoc_core::select::{select, SelectionConfig};
use lockdoc_platform::prop::{self, vec_of, Shrink};
use lockdoc_platform::rng::Rng;
use lockdoc_platform::{prop_assert, prop_assert_eq};
use lockdoc_trace::codec::{read_trace, write_trace, TraceReader};
use lockdoc_trace::corrupt::{inject, CorruptionClass};
use lockdoc_trace::db::{
    filter_fingerprint, import, import_resilient, import_stream, read_archive, write_archive,
    ResilientConfig, TraceDb,
};
use lockdoc_trace::event::{
    AccessKind, AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc, Trace,
};
use lockdoc_trace::filter::FilterConfig;
use lockdoc_trace::ids::{AllocId, TaskId};

/// A tiny abstract program: operations on two locks and one object with
/// two members, from which both a trace and a reference lock-state
/// interpretation are produced.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Op {
    Lock(u8),
    Unlock(u8),
    Access(u8, bool), // member, is_write
}

fn op_gen(rng: &mut Rng) -> Op {
    match rng.gen_range(0u8..3) {
        0 => Op::Lock(rng.gen_range(0u8..2)),
        1 => Op::Unlock(rng.gen_range(0u8..2)),
        _ => Op::Access(rng.gen_range(0u8..2), rng.gen_bool(0.5)),
    }
}

impl Shrink for Op {
    fn shrink(&self) -> Vec<Self> {
        match *self {
            Op::Lock(0) => vec![],
            Op::Lock(_) => vec![Op::Lock(0)],
            Op::Unlock(l) => vec![Op::Lock(l)],
            Op::Access(m, w) => {
                let mut out = vec![Op::Lock(0)];
                if w {
                    out.push(Op::Access(m, false));
                }
                if m > 0 {
                    out.push(Op::Access(0, w));
                }
                out
            }
        }
    }
}

fn ops_gen(len_max: usize) -> impl Fn(&mut Rng) -> Vec<Op> {
    move |rng| vec_of(rng, 0..len_max, op_gen)
}

/// Builds a well-formed trace from an op list: unlocks of unheld locks and
/// double locks are dropped (the generator sanitizes rather than rejects).
fn build_trace(ops: &[Op]) -> (Trace, Vec<(u8, bool, Vec<u8>)>) {
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("prop.c");
    let la = tr.meta_mut().strings.intern("lock_a");
    let lb = tr.meta_mut().strings.intern("lock_b");
    let dt = tr.meta_mut().add_data_type(DataTypeDef {
        name: "obj".into(),
        size: 16,
        members: vec![
            MemberDef {
                name: "m0".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            },
            MemberDef {
                name: "m1".into(),
                offset: 8,
                size: 8,
                atomic: false,
                is_lock: false,
            },
        ],
    });
    tr.meta_mut().add_task("t");
    let loc = SourceLoc::new(file, 1);
    let mut ts = 0u64;
    let mut push = |tr: &mut Trace, e: Event| {
        ts += 1;
        tr.push(ts, e);
    };
    push(&mut tr, Event::TaskSwitch { task: TaskId(0) });
    for (addr, name) in [(0x100u64, la), (0x200, lb)] {
        push(
            &mut tr,
            Event::LockInit {
                addr,
                name,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
    }
    push(
        &mut tr,
        Event::Alloc {
            id: AllocId(1),
            addr: 0x1000,
            size: 16,
            data_type: dt,
            subclass: None,
        },
    );

    // Reference interpretation: expected (member, is_write, held locks).
    let mut held: Vec<u8> = Vec::new();
    let mut expected = Vec::new();
    for op in ops {
        match *op {
            Op::Lock(l) => {
                if !held.contains(&l) {
                    held.push(l);
                    push(
                        &mut tr,
                        Event::LockAcquire {
                            addr: 0x100 + 0x100 * u64::from(l),
                            mode: AcquireMode::Exclusive,
                            loc,
                        },
                    );
                }
            }
            Op::Unlock(l) => {
                if let Some(p) = held.iter().position(|&h| h == l) {
                    held.remove(p);
                    push(
                        &mut tr,
                        Event::LockRelease {
                            addr: 0x100 + 0x100 * u64::from(l),
                            loc,
                        },
                    );
                }
            }
            Op::Access(m, w) => {
                push(
                    &mut tr,
                    Event::MemAccess {
                        kind: if w {
                            AccessKind::Write
                        } else {
                            AccessKind::Read
                        },
                        addr: 0x1000 + 8 * u64::from(m),
                        size: 8,
                        loc,
                        atomic: false,
                    },
                );
                expected.push((m, w, held.clone()));
            }
        }
    }
    (tr, expected)
}

/// Turns generated `(lock id)` sequences into deduplicated observations.
fn observations_from(seqs: &[Vec<u8>], counts: &[u64]) -> Vec<Observation> {
    seqs.iter()
        .zip(counts)
        .map(|(seq, &count)| {
            // Deduplicate within a sequence (held sets are sets).
            let mut locks: Vec<LockDescriptor> = Vec::new();
            for &l in seq {
                let d = LockDescriptor::global(&format!("L{l}"));
                if !locks.contains(&d) {
                    locks.push(d);
                }
            }
            Observation { locks, count }
        })
        .collect()
}

/// The importer's transaction reconstruction agrees with the reference
/// interpreter for every access.
#[test]
fn txn_reconstruction_matches_reference() {
    prop::check(
        "txn_reconstruction_matches_reference",
        ops_gen(120),
        |ops| {
            let (trace, expected) = build_trace(ops);
            let db = import(&trace, &FilterConfig::with_defaults(), 1);
            prop_assert_eq!(db.accesses.len(), expected.len());
            for (access, (m, w, held)) in db.iter_accesses().zip(&expected) {
                prop_assert_eq!(access.member, u32::from(*m));
                prop_assert_eq!(access.kind == AccessKind::Write, *w);
                let txn = db.txn(access.txn);
                let got: Vec<u64> = txn.locks.iter().map(|h| db.lock(h.lock).addr).collect();
                let want: Vec<u64> = held.iter().map(|&l| 0x100 + 0x100 * u64::from(l)).collect();
                prop_assert_eq!(got, want, "held-lock order must be acquisition order");
            }
            Ok(())
        },
    );
}

/// Binary codec round trip for arbitrary generated traces.
#[test]
fn codec_round_trips() {
    prop::check("codec_round_trips", ops_gen(150), |ops| {
        let (trace, _) = build_trace(ops);
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("encode");
        let back = read_trace(&mut buf.as_slice()).expect("decode");
        prop_assert_eq!(trace, back);
        Ok(())
    });
}

/// Hypothesis support never increases when a lock is appended (support
/// anti-monotonicity), and `sa <= total` always holds.
#[test]
fn support_is_antimonotone() {
    let gen = |rng: &mut Rng| {
        let seqs = vec_of(rng, 1..12, |r| vec_of(r, 0..5, |r| r.gen_range(0u8..5)));
        let counts = vec_of(rng, 12..13, |r| r.gen_range(1u64..50));
        (seqs, counts)
    };
    prop::check("support_is_antimonotone", gen, |(seqs, counts)| {
        let observations = observations_from(seqs, counts);
        if observations.is_empty() {
            return Ok(());
        }
        let set = enumerate(0, AccessKind::Write, &observations);
        let total: u64 = observations.iter().map(|o| o.count).sum();
        prop_assert_eq!(set.total, total);
        for h in &set.hypotheses {
            prop_assert!(h.sa <= set.total);
            // Dropping the last lock can only gain support.
            if h.locks.len() > 1 {
                let shorter = &h.locks[..h.locks.len() - 1];
                if let Some(sh) = set.support_of(shorter) {
                    prop_assert!(sh.sa >= h.sa);
                }
            }
        }
        Ok(())
    });
}

/// The winner obeys the selection contract: its support is above the
/// threshold and no candidate has strictly lower support (nor equal
/// support with more locks).
#[test]
fn winner_satisfies_contract() {
    let gen = |rng: &mut Rng| {
        let seqs = vec_of(rng, 1..10, |r| vec_of(r, 0..4, |r| r.gen_range(0u8..4)));
        let counts = vec_of(rng, 10..11, |r| r.gen_range(1u64..40));
        let threshold = rng.gen_range_f64(0.5..1.0);
        (seqs, counts, threshold)
    };
    prop::check(
        "winner_satisfies_contract",
        gen,
        |(seqs, counts, threshold)| {
            let observations = observations_from(seqs, counts);
            if observations.is_empty() {
                return Ok(());
            }
            let threshold = threshold.clamp(0.0, 1.0);
            let set = enumerate(0, AccessKind::Write, &observations);
            let cfg = SelectionConfig::with_threshold(threshold);
            let w = select(&set, &cfg).expect("enumerated sets always select");
            prop_assert!(w.hypothesis.sr + 1e-12 >= threshold);
            for h in &set.hypotheses {
                if h.sr + 1e-12 >= threshold {
                    prop_assert!(
                        h.sa > w.hypothesis.sa
                            || (h.sa == w.hypothesis.sa
                                && h.locks.len() <= w.hypothesis.locks.len()),
                        "candidate {:?} beats winner {:?}",
                        h,
                        w.hypothesis
                    );
                }
            }
            // Every observation that complies with the winner also complies
            // with each of its prefixes (sanity of the subsequence semantics).
            for obs in &observations {
                if complies(&obs.locks, &w.hypothesis.locks) {
                    for cut in 0..w.hypothesis.locks.len() {
                        prop_assert!(complies(&obs.locks, &w.hypothesis.locks[..cut]));
                    }
                }
            }
            Ok(())
        },
    );
}

/// Sharded derivation is output-invariant in the worker count: for any
/// generated trace, `derive_par` at jobs ∈ {2, 3, 5, 8} mines exactly the
/// rules of the serial jobs=1 path (fewer cases than the other
/// properties — each case runs the derivator five times).
#[test]
fn derive_is_jobs_invariant() {
    let cfg = prop::Config {
        cases: 24,
        ..prop::Config::from_env()
    };
    prop::check_with(&cfg, "derive_is_jobs_invariant", ops_gen(200), |ops| {
        let (trace, _) = build_trace(ops);
        let db = import(&trace, &FilterConfig::with_defaults(), 1);
        let dcfg = DeriveConfig::default();
        let serial = derive_par(&db, &dcfg, 1);
        for jobs in [2usize, 3, 5, 8] {
            prop_assert_eq!(
                &serial,
                &derive_par(&db, &dcfg, jobs),
                "derive output differs at jobs = {}",
                jobs
            );
        }
        Ok(())
    });
}

/// The evidence index every analysis pass reads agrees with the direct
/// transcriptions of the paper's definitions, on random ksim seeds, on
/// `--racy` traces, on event-level corruptions imported leniently, and
/// on random multi-flow traces whose two same-named static locks make
/// held sequences deduplicate (fewer cases — most run the simulator):
///
/// * the descriptor table is strictly sorted, so id order equals
///   `LockDescriptor`'s `Ord`;
/// * groups and their rows are `observation_groups` / `group_accesses`;
/// * every unit's materialized sequence is `resolve_txn_locks` of that
///   unit, and no unit spans two groups;
/// * every row's write-over-read bit is set exactly when the row is a
///   read and its unit's cell in `AccessMatrix::build` has writes, and
///   every observation list is the uncached `observations_for`.
#[test]
fn evidence_index_matches_paper_definitions() {
    // Most cases run the simulator, so tier-1 runs 16 of them; an explicit
    // LOCKDOC_PROP_CASES (the CI soak step) sets the count instead.
    let cfg = match std::env::var("LOCKDOC_PROP_CASES") {
        Ok(_) => prop::Config::from_env(),
        Err(_) => prop::Config {
            cases: 16,
            ..prop::Config::from_env()
        },
    };
    let gen = |rng: &mut Rng| (rng.gen_range(0u64..1 << 48), rng.gen_range(0u8..4));
    prop::check_with(
        &cfg,
        "evidence_index_matches_paper_definitions",
        gen,
        |&(seed, variant)| {
            if variant == 3 {
                let ops = vec_of(&mut Rng::seed_from_u64(seed), 0..250, flow_op_gen);
                let db = import(
                    &build_multiflow_trace(&ops),
                    &FilterConfig::with_defaults(),
                    1,
                );
                return check_evidence_index(&db);
            }
            let plan = match variant {
                1 => ksim::rules::racy_fault_plan(),
                _ => ksim::rules::default_fault_plan(),
            };
            let mut machine = ksim::subsys::Machine::boot(
                ksim::config::SimConfig::with_seed(seed).with_faults(plan),
            );
            machine.run_mix(600);
            let trace = machine.finish();
            let filter = ksim::rules::filter_config();
            let db = if variant == 2 {
                let class = CorruptionClass::EVENT_LEVEL[(seed % 6) as usize];
                let Some(corrupted) = inject(&trace, class, seed).and_then(|inj| inj.trace) else {
                    return Ok(()); // no injection site in this trace
                };
                import_resilient(&corrupted, &filter, 1, &ResilientConfig::lenient(1.0))
                    .map_err(|e| format!("lenient import of {class}: {e}"))?
                    .0
            } else {
                import(&trace, &filter, 1)
            };
            check_evidence_index(&db)
        },
    );
}

fn check_evidence_index(db: &TraceDb) -> Result<(), String> {
    let index = EvidenceIndex::build(db);
    prop_assert!(
        index.locks().windows(2).all(|w| w[0] < w[1]),
        "descriptor table is not strictly sorted"
    );
    let keys: Vec<_> = index.groups().iter().map(|g| g.key).collect();
    prop_assert_eq!(keys, db.observation_groups());
    let mut unit_group = std::collections::HashMap::new();
    for g in index.groups() {
        let want_rows: Vec<u32> = db.group_accesses(g.key).map(|a| a.id as u32).collect();
        prop_assert_eq!(g.rows(), want_rows.as_slice(), "rows of {}", g.name);
        for (pos, &row) in g.rows().iter().enumerate() {
            let a = db.access(row as usize);
            let (txn, seq) = (a.txn, g.row_seq(pos));
            let unit_owner = unit_group.entry((txn, a.alloc)).or_insert(g.key);
            prop_assert!(
                *unit_owner == g.key,
                "unit {:?} spans groups",
                (txn, a.alloc)
            );
            let lock_ids: Vec<_> = db.txn(txn).locks.iter().map(|h| h.lock).collect();
            prop_assert_eq!(
                index.materialize(g.seq(seq)),
                resolve_txn_locks(db, a.alloc, &lock_ids),
                "sequence of unit {:?}",
                (txn, a.alloc)
            );
        }
        // The write-over-read bit is the violation scan's one question of
        // the paper's access matrix: is this read's cell also written?
        let matrix = AccessMatrix::build(db, g.key);
        for (pos, &row) in g.rows().iter().enumerate() {
            let a = db.access(row as usize);
            let written = matrix
                .member(a.member)
                .and_then(|m| m.cells.get(&(a.txn, a.alloc)))
                .is_some_and(|c| c.writes > 0);
            prop_assert_eq!(
                g.row_wor(pos),
                a.kind == AccessKind::Read && written,
                "write-over-read bit of row {}",
                row
            );
        }
        prop_assert_eq!(g.members.len(), matrix.members.len());
        for (&member, mm) in &matrix.members {
            let mo = g
                .member(member)
                .ok_or_else(|| format!("member {member} missing"))?;
            prop_assert_eq!(&mo.read, &observations_for(db, mm, AccessKind::Read));
            prop_assert_eq!(&mo.write, &observations_for(db, mm, AccessKind::Write));
        }
    }
    Ok(())
}

/// One step of the multi-flow trace generator behind
/// [`import_stream_matches_import`] and the archive and evidence-index
/// properties: unlike [`Op`] it exercises task switches, interrupt
/// contexts, allocation churn (including adversarial double frees and
/// overlapping allocs), function frames, and lock ops on both static and
/// unknown addresses — every per-flow decision the importer makes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowOp {
    Switch(u8),
    IrqEnter(bool), // true = hardirq
    IrqExit(bool),
    Lock(u8),
    Unlock(u8),
    Alloc(u8),            // slot 0..3
    Free(u8),             // slot (may double-free)
    Access(u8, u8, bool), // slot, member 0..1, is_write
    FnEnter(u8),
    FnExit(u8),
}

impl Shrink for FlowOp {}

fn flow_op_gen(rng: &mut Rng) -> FlowOp {
    match rng.gen_range(0u8..10) {
        0 => FlowOp::Switch(rng.gen_range(0u8..3)),
        1 => FlowOp::IrqEnter(rng.gen_bool(0.5)),
        2 => FlowOp::IrqExit(rng.gen_bool(0.5)),
        3 => FlowOp::Lock(rng.gen_range(0u8..2)),
        4 => FlowOp::Unlock(rng.gen_range(0u8..2)),
        5 => FlowOp::Alloc(rng.gen_range(0u8..3)),
        6 => FlowOp::Free(rng.gen_range(0u8..3)),
        7 => FlowOp::FnEnter(rng.gen_range(0u8..3)),
        8 => FlowOp::FnExit(rng.gen_range(0u8..3)),
        _ => FlowOp::Access(
            rng.gen_range(0u8..3),
            rng.gen_range(0u8..2),
            rng.gen_bool(0.5),
        ),
    }
}

/// Builds a trace from flow ops *without* sanitizing: the importer must
/// treat malformed input (double frees, unbalanced contexts, unknown-lock
/// releases) identically on the serial and parallel paths.
fn build_multiflow_trace(ops: &[FlowOp]) -> Trace {
    use lockdoc_trace::event::ContextKind;
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("flow.c");
    let lname = tr.meta_mut().strings.intern("lk");
    let dt = tr.meta_mut().add_data_type(DataTypeDef {
        name: "obj".into(),
        size: 16,
        members: vec![
            MemberDef {
                name: "m0".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            },
            MemberDef {
                name: "m1".into(),
                offset: 8,
                size: 8,
                atomic: false,
                is_lock: false,
            },
        ],
    });
    for t in 0..3 {
        tr.meta_mut().add_task(&format!("t{t}"));
    }
    for f in 0..3 {
        tr.meta_mut().add_function(&format!("f{f}"));
    }
    let loc = SourceLoc::new(file, 7);
    let mut ts = 0u64;
    let mut push = |tr: &mut Trace, e: Event| {
        ts += 1;
        tr.push(ts, e);
    };
    push(&mut tr, Event::TaskSwitch { task: TaskId(0) });
    for l in 0..2u64 {
        push(
            &mut tr,
            Event::LockInit {
                addr: 0x100 + 0x100 * l,
                name: lname,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
    }
    let mut next_alloc = 1u64;
    for op in ops {
        let ctx = |h: bool| {
            if h {
                ContextKind::Hardirq
            } else {
                ContextKind::Softirq
            }
        };
        let e = match *op {
            FlowOp::Switch(t) => Event::TaskSwitch {
                task: TaskId(u32::from(t)),
            },
            FlowOp::IrqEnter(h) => Event::ContextEnter { kind: ctx(h) },
            FlowOp::IrqExit(h) => Event::ContextExit { kind: ctx(h) },
            FlowOp::Lock(l) => Event::LockAcquire {
                addr: 0x100 + 0x100 * u64::from(l),
                mode: AcquireMode::Exclusive,
                loc,
            },
            FlowOp::Unlock(l) => Event::LockRelease {
                addr: 0x100 + 0x100 * u64::from(l),
                loc,
            },
            FlowOp::Alloc(s) => {
                let id = AllocId(next_alloc);
                next_alloc += 1;
                Event::Alloc {
                    id,
                    addr: 0x1000 + 0x100 * u64::from(s),
                    size: 16,
                    data_type: dt,
                    subclass: None,
                }
            }
            // Adversarial: frees by the *first* id that targeted the slot;
            // repeat frees of the same slot become double frees.
            FlowOp::Free(s) => Event::Free {
                id: AllocId(u64::from(s) + 1),
            },
            FlowOp::Access(s, m, w) => Event::MemAccess {
                kind: if w {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                addr: 0x1000 + 0x100 * u64::from(s) + 8 * u64::from(m),
                size: 8,
                loc,
                atomic: false,
            },
            FlowOp::FnEnter(f) => Event::FnEnter {
                func: lockdoc_trace::ids::FnId(u32::from(f)),
            },
            FlowOp::FnExit(f) => Event::FnExit {
                func: lockdoc_trace::ids::FnId(u32::from(f)),
            },
        };
        push(&mut tr, e);
    }
    tr
}

/// Streaming import equals materialized import: driving the importer
/// straight off a chunked `TraceReader` (with a tiny chunk size, so
/// records straddle chunk boundaries constantly) produces the same
/// database as decoding the full event vector first.
#[test]
fn import_stream_matches_import() {
    let cfg = prop::Config {
        cases: 30,
        ..prop::Config::from_env()
    };
    let gen = |rng: &mut Rng| vec_of(rng, 0..250, flow_op_gen);
    prop::check_with(&cfg, "import_stream_matches_import", gen, |ops| {
        let trace = build_multiflow_trace(ops);
        let mut bytes = Vec::new();
        write_trace(&trace, &mut bytes).expect("encode");
        let reader = TraceReader::with_chunk_size(bytes.as_slice(), 7).expect("header");
        let streamed = import_stream(reader, &FilterConfig::with_defaults(), 1)
            .expect("clean container streams");
        prop_assert_eq!(
            &import(&trace, &FilterConfig::with_defaults(), 1),
            &streamed,
            "streamed import differs"
        );
        Ok(())
    });
}

/// The cached-archive codec is an identity on imported stores: for
/// arbitrary multi-flow traces, write → read under the same cache key
/// reproduces the database exactly, and a wrong key misses.
#[test]
fn archive_round_trips_imported_stores() {
    let cfg = prop::Config {
        cases: 30,
        ..prop::Config::from_env()
    };
    let gen = |rng: &mut Rng| vec_of(rng, 0..250, flow_op_gen);
    prop::check_with(&cfg, "archive_round_trips_imported_stores", gen, |ops| {
        let trace = build_multiflow_trace(ops);
        let config = FilterConfig::with_defaults();
        let db = import(&trace, &config, 1);
        let fp = filter_fingerprint(&config);
        let bytes = write_archive(&db, 0xfeed, fp);
        let back = read_archive(&bytes, 0xfeed, fp, std::sync::Arc::clone(&db.meta));
        prop_assert_eq!(&Some(db), &back, "archive roundtrip must be exact");
        prop_assert!(
            read_archive(&bytes, 0xbeef, fp, {
                let db = back.as_ref().expect("hit");
                std::sync::Arc::clone(&db.meta)
            })
            .is_none(),
            "a wrong trace checksum must miss"
        );
        Ok(())
    });
}

/// An archive payload damaged and then resealed, so the frame's checksum
/// passes, reads as a clean miss or as a store the analyses can run on;
/// it never panics.
#[test]
fn resealed_archive_payloads_never_panic() {
    use lockdoc_platform::artifact;
    use lockdoc_trace::db::archive::{ARCHIVE_MAGIC, FORMAT_VERSION};
    let gen = |rng: &mut Rng| {
        let ops = vec_of(rng, 0..120, flow_op_gen);
        let edits = vec_of(rng, 1..4, |r| (r.next_u64(), r.gen_range(1u8..255)));
        (ops, edits)
    };
    prop::check(
        "resealed_archive_payloads_never_panic",
        gen,
        |(ops, edits)| {
            let config = FilterConfig::with_defaults();
            let db = import(&build_multiflow_trace(ops), &config, 1);
            let keys = [0xfeed, filter_fingerprint(&config)];
            let bytes = write_archive(&db, keys[0], keys[1]);
            let mut payload = artifact::open(&bytes, &ARCHIVE_MAGIC, FORMAT_VERSION, &keys)
                .expect("fresh archive opens")
                .to_vec();
            for &(at, mask) in edits {
                let i = (at % payload.len() as u64) as usize;
                payload[i] ^= mask;
            }
            let resealed = artifact::seal(&ARCHIVE_MAGIC, FORMAT_VERSION, &keys, &payload);
            // The passes index the loaded tables by row: whatever loads
            // must derive, check, scan for violations and races, build the
            // order graph, lint (`lint_passes` runs all of these) and
            // export without a panic.
            if let Some(back) = read_archive(&resealed, keys[0], keys[1], db.meta.clone()) {
                let index = EvidenceIndex::build(&back);
                let mined = derive_in(&index, &DeriveConfig::default());
                lint_passes(&index, &mined, &[], None);
                back.export_csv_tables();
            }
            Ok(())
        },
    );
}

/// Sharded workload generation is reproducible and jobs-invariant: the
/// same (seed, shards) pair yields a byte-identical trace and fault
/// oracle at any worker count (fewer cases — each runs the simulator
/// three times).
#[test]
fn run_mix_is_seed_jobs_reproducible() {
    let cfg = prop::Config {
        cases: 8,
        ..prop::Config::from_env()
    };
    let gen = |rng: &mut Rng| {
        (
            rng.gen_range(0u64..1 << 48),
            rng.gen_range(1u64..5), // shards
        )
    };
    prop::check_with(
        &cfg,
        "run_mix_is_seed_jobs_reproducible",
        gen,
        |&(seed, shards)| {
            let scfg = ksim::config::SimConfig::with_seed(seed);
            let a = ksim::parallel::run_mix_sharded(&scfg, None, 60, shards, 1)
                .map_err(|e| format!("generation failed: {e}"))?;
            for jobs in [2usize, 4] {
                let b = ksim::parallel::run_mix_sharded(&scfg, None, 60, shards, jobs)
                    .map_err(|e| format!("generation failed: {e}"))?;
                prop_assert_eq!(&a.trace, &b.trace, "trace differs at jobs = {}", jobs);
                prop_assert_eq!(
                    &a.fault_log.injected,
                    &b.fault_log.injected,
                    "fault oracle differs at jobs = {}",
                    jobs
                );
            }
            Ok(())
        },
    );
}

/// Rule notation: display then parse is the identity.
#[test]
fn rulespec_round_trips() {
    let gen = |rng: &mut Rng| {
        let type_idx = rng.gen_range(0usize..3);
        let member_idx = rng.gen_range(0usize..4);
        let is_write = rng.gen_bool(0.5);
        let lock_kinds = vec_of(rng, 0..3, |r| r.gen_range(0u8..4));
        (type_idx, member_idx, is_write, lock_kinds)
    };
    prop::check(
        "rulespec_round_trips",
        gen,
        |(type_idx, member_idx, is_write, lock_kinds)| {
            let types = ["inode", "journal_t", "dentry"];
            let members = ["i_state", "j_flags", "d_hash", "some_member"];
            let type_idx = type_idx % types.len();
            let member_idx = member_idx % members.len();
            let locks: Vec<LockDescriptor> = lock_kinds
                .iter()
                .enumerate()
                .map(|(i, &k)| match k {
                    0 => LockDescriptor::global(&format!("glock_{i}")),
                    1 => LockDescriptor::es(&format!("mem{i}"), types[type_idx]),
                    2 => LockDescriptor::eo(&format!("mem{i}"), "other_type"),
                    _ => LockDescriptor::rcu(),
                })
                .collect();
            let rule = RuleSpec {
                type_name: types[type_idx].to_owned(),
                subclass: None,
                member: members[member_idx].to_owned(),
                kind: if *is_write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                locks,
            };
            let printed = rule.to_string();
            let reparsed = parse_rule(&printed)
                .expect("parses")
                .expect("not a comment");
            prop_assert_eq!(rule, reparsed);
            Ok(())
        },
    );
}

/// Matrix invariants: WoR classification is a partition of the folded
/// matrix, and totals equal the raw access counts per member.
#[test]
fn matrix_wor_partitions_units() {
    prop::check("matrix_wor_partitions_units", ops_gen(150), |ops| {
        let (trace, expected) = build_trace(ops);
        let db = import(&trace, &FilterConfig::with_defaults(), 1);
        let group = match db.observation_groups().first() {
            Some(&g) => g,
            None => return Ok(()), // no accesses generated
        };
        let matrix = AccessMatrix::build(&db, group);
        let mut total_reads = 0u64;
        let mut total_writes = 0u64;
        for (member, mm) in &matrix.members {
            let (r, w) = mm.totals();
            total_reads += r;
            total_writes += w;
            let read_units = mm.relevant_units(AccessKind::Read);
            let write_units = mm.relevant_units(AccessKind::Write);
            // WoR: a unit is read XOR write, never both.
            for u in &read_units {
                prop_assert!(
                    !write_units.contains(u),
                    "member {member}: unit in both classes"
                );
            }
            prop_assert_eq!(read_units.len() + write_units.len(), mm.cells.len());
            // Folded never exceeds observed; overrides are bounded.
            for c in mm.cells.values() {
                prop_assert!(u64::from(c.folded_read()) <= c.reads.max(1));
            }
            prop_assert!(mm.wor_overrides() <= mm.cells.len() as u64);
        }
        let raw_reads = expected.iter().filter(|(_, w, _)| !*w).count() as u64;
        let raw_writes = expected.iter().filter(|(_, w, _)| *w).count() as u64;
        prop_assert_eq!(total_reads, raw_reads);
        prop_assert_eq!(total_writes, raw_writes);
        Ok(())
    });
}

/// The order graph by its definition: every transaction in order, every
/// held lock against each later acquisition, both classes named by
/// `lock_class`, same-class pairs skipped; an edge counts its pairs and
/// keeps the first one's acquisition site as its witness.
fn reference_order_graph(db: &TraceDb) -> OrderGraph {
    let mut graph = OrderGraph::default();
    for txn in db.txns.iter() {
        let locks = txn.locks;
        for j in 1..locks.len() {
            let to = lock_class(db, locks[j].lock);
            for held in &locks[..j] {
                let from = lock_class(db, held.lock);
                if from == to {
                    continue;
                }
                graph
                    .edges
                    .entry((from.clone(), to.clone()))
                    .and_modify(|e| e.count += 1)
                    .or_insert(OrderEdge {
                        from,
                        to: to.clone(),
                        count: 1,
                        witness: locks[j].acquired_at,
                    });
            }
        }
    }
    graph
}

/// Order-graph invariants: the graph equals the per-pair reference
/// (classes, counts and first witnesses), edge counts are bounded by lock
/// pairs in transactions, and inversions are symmetric findings.
#[test]
fn order_graph_invariants() {
    prop::check("order_graph_invariants", ops_gen(150), |ops| {
        let (trace, _) = build_trace(ops);
        let db = import(&trace, &FilterConfig::with_defaults(), 1);
        let graph = OrderGraph::build(&db);
        prop_assert!(
            graph == reference_order_graph(&db),
            "order graph differs from the per-pair reference"
        );
        // An edge requires at least one txn with >= 2 locks.
        let multi = db.txns.iter().filter(|t| t.locks.len() >= 2).count();
        if multi == 0 {
            prop_assert!(graph.edges.is_empty());
        }
        for ((a, b), e) in &graph.edges {
            prop_assert!(a != b, "same-class edges are excluded");
            prop_assert_eq!(&e.from, a);
            prop_assert_eq!(&e.to, b);
            prop_assert!(e.count >= 1);
        }
        // Each inversion corresponds to both directed edges existing.
        for inv in graph.inversions() {
            let f = (inv.forward.from.clone(), inv.forward.to.clone());
            let r = (inv.forward.to.clone(), inv.forward.from.clone());
            prop_assert!(graph.edges.contains_key(&f));
            prop_assert!(graph.edges.contains_key(&r));
            prop_assert!(inv.forward.count >= inv.backward.count);
        }
        Ok(())
    });
}

/// In-situ / ex-post lock-order parity: every warning the runtime
/// `ksim::lockdep` validator raises during a simulation corresponds to an
/// inversion the ex-post `OrderGraph` finds in the recorded trace of the
/// same run. Both analyses name classes identically (globals by name,
/// embedded locks as `member in type`), so the warning's unordered class
/// pair must appear among the graph's inversion pairs (fewer cases —
/// each runs the full simulator).
#[test]
fn lockdep_warnings_are_order_graph_inversions() {
    let cfg = prop::Config {
        cases: 12,
        ..prop::Config::from_env()
    };
    let gen = |rng: &mut Rng| rng.gen_range(0u64..1 << 48);
    let warnings_seen = std::cell::Cell::new(0usize);
    prop::check_with(
        &cfg,
        "lockdep_warnings_are_order_graph_inversions",
        gen,
        |&seed| {
            let scfg = ksim::config::SimConfig::with_seed(seed)
                .with_faults(ksim::rules::default_fault_plan());
            let mut machine = ksim::subsys::Machine::boot(scfg);
            machine.run_mix(900);
            let warnings = machine.k.lockdep.warnings.clone();
            let trace = machine.finish();
            let db = import(&trace, &ksim::rules::filter_config(), 1);
            let graph = OrderGraph::build(&db);
            prop_assert!(
                graph == reference_order_graph(&db),
                "order graph differs from the per-pair reference (seed {})",
                seed
            );
            let inversion_pairs: Vec<(String, String)> = graph
                .inversions()
                .iter()
                .map(|inv| {
                    let mut pair = [inv.forward.from.name.clone(), inv.forward.to.name.clone()];
                    pair.sort();
                    let [a, b] = pair;
                    (a, b)
                })
                .collect();
            warnings_seen.set(warnings_seen.get() + warnings.len());
            for w in &warnings {
                let mut pair = [w.held_class.clone(), w.acquired_class.clone()];
                pair.sort();
                let [a, b] = pair;
                prop_assert!(
                    inversion_pairs.contains(&(a.clone(), b.clone())),
                    "lockdep warned about {} <-> {} but the ex-post graph has \
                     inversions {:?} (seed {})",
                    a,
                    b,
                    inversion_pairs,
                    seed
                );
            }
            Ok(())
        },
    );
    // Non-vacuity: the default fault plan injects an order inversion, so
    // the runs above must actually have exercised the property.
    assert!(
        warnings_seen.get() > 0,
        "no lockdep warnings across any case — the parity property ran vacuously"
    );
}

/// Parsing a multi-line rule file equals parsing its lines separately.
#[test]
fn parse_rules_is_linewise() {
    prop::check(
        "parse_rules_is_linewise",
        |rng| rng.gen_range(1usize..6),
        |&n| {
            let lines: Vec<String> = (0..n)
                .map(|i| format!("inode.member{i}:w = ES(i_lock in inode)"))
                .collect();
            let text = lines.join("\n");
            let bulk = parse_rules(&text).expect("bulk parses");
            prop_assert_eq!(bulk.len(), n);
            for (i, rule) in bulk.iter().enumerate() {
                let single = parse_rule(&lines[i]).unwrap().unwrap();
                prop_assert_eq!(rule, &single);
            }
            Ok(())
        },
    );
}
