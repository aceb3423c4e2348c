//! Robustness tests: corrupted or hostile inputs must produce errors, not
//! panics, and the importer must tolerate anomalous event streams the way
//! the paper's tooling tolerates real-kernel oddities (unmatched unlocks,
//! unknown locks, accesses to untracked memory).
//!
//! Property tests run on the in-tree `lockdoc_platform::prop` harness.
//! A failing property prints its run seed; reproduce with
//! `LOCKDOC_PROP_SEED=<seed> cargo test -q <test-name>`.

use lockdoc_core::clock::clock_trace;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_platform::prop::{self, ascii_garbage, vec_of};
use lockdoc_trace::codec::{read_trace, write_trace, CodecError};
use lockdoc_trace::db::import;
use lockdoc_trace::event::{AccessKind, AcquireMode, Event, LockFlavor, SourceLoc, Trace};
use lockdoc_trace::filter::FilterConfig;
use lockdoc_trace::ids::{AllocId, TaskId};

/// Decoding arbitrary bytes never panics; it either errors or yields a
/// valid trace.
#[test]
fn decoder_handles_garbage() {
    prop::check(
        "decoder_handles_garbage",
        |rng| vec_of(rng, 0..512, |r| r.next_u32() as u8),
        |bytes| {
            let _ = read_trace(&mut bytes.as_slice());
            Ok(())
        },
    );
}

/// Single-byte corruption of a valid container never panics. Shared by the
/// property runner and the pinned regression case below.
fn bitflip_property(pos_frac: f64, value: u8) -> Result<(), String> {
    let trace = clock_trace(5, 0);
    let mut buf = Vec::new();
    write_trace(&trace, &mut buf).expect("encode");
    let pos = ((buf.len() - 1) as f64 * pos_frac.clamp(0.0, 1.0)) as usize;
    buf[pos] = value;
    match read_trace(&mut buf.as_slice()) {
        Ok(decoded) => {
            // A lucky corruption may still decode; the result must at
            // least be structurally importable.
            let _ = import(&decoded, &FilterConfig::with_defaults(), 1);
        }
        Err(
            CodecError::Io(_)
            | CodecError::BadMagic
            | CodecError::BadTag(_)
            | CodecError::VarintOverflow
            | CodecError::BadUtf8
            | CodecError::NonMonotonic { .. }
            | CodecError::CountOverflow,
        ) => {}
    }
    Ok(())
}

#[test]
fn decoder_handles_bitflips() {
    prop::check(
        "decoder_handles_bitflips",
        |rng| {
            let pos_frac = rng.f64_unit();
            let value = rng.next_u32() as u8;
            (pos_frac, value)
        },
        |&(pos_frac, value)| bitflip_property(pos_frac, value),
    );
}

/// Pinned shrunk case from the former proptest regression file
/// (`tests/robustness.proptest-regressions`): corruption near offset 36%
/// with byte value 1 once tripped a decoder panic.
#[test]
fn regression_decoder_handles_bitflips_shrunk_case() {
    bitflip_property(0.3613634433190813, 1).unwrap();
}

/// Rule parsing never panics on arbitrary printable input.
#[test]
fn rule_parser_handles_garbage() {
    prop::check(
        "rule_parser_handles_garbage",
        |rng| ascii_garbage(rng, 0..300),
        |text| {
            let _ = parse_rules(text);
            Ok(())
        },
    );
}

/// Releases without acquires, accesses outside any allocation, and
/// double-frees in the *event stream* are counted, not fatal; a `Free`
/// deactivates the locks of its range and no others.
#[test]
fn importer_tolerates_anomalous_streams() {
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("weird.c");
    let name = tr.meta_mut().strings.intern("l");
    tr.meta_mut().add_task("t");
    let loc = SourceLoc::new(file, 1);
    tr.push(1, Event::TaskSwitch { task: TaskId(0) });
    tr.push(
        2,
        Event::LockInit {
            addr: 0x10,
            name,
            flavor: LockFlavor::Spinlock,
            is_static: true,
        },
    );
    // Release before any acquire.
    tr.push(3, Event::LockRelease { addr: 0x10, loc });
    // Acquire of an unregistered lock address.
    tr.push(
        4,
        Event::LockAcquire {
            addr: 0xdead,
            mode: AcquireMode::Exclusive,
            loc,
        },
    );
    // Access to memory no allocation covers.
    tr.push(
        5,
        Event::MemAccess {
            kind: AccessKind::Write,
            addr: 0xbeef,
            size: 4,
            loc,
            atomic: false,
        },
    );
    // Free of an unknown allocation id is the only fatal condition we
    // accept from the tracer side, so don't emit it here.
    let db = import(&tr, &FilterConfig::with_defaults(), 1);
    assert_eq!(db.stats.unmatched_releases, 1);
    assert_eq!(db.stats.unknown_lock_acquires, 1);
    assert_eq!(db.stats.unresolved, 1);
    assert_eq!(db.accesses.len(), 0);
    free_deactivates_exactly_the_locks_in_its_range();
}

/// A `Free` of `[addr, addr + size)` deactivates every lock registered
/// inside that range, whether it was registered inside the allocation or
/// before the allocation existed, and none at `addr + size`; a
/// re-allocation at the same address registers fresh instances.
fn free_deactivates_exactly_the_locks_in_its_range() {
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("free.c");
    let name = tr.meta_mut().strings.intern("l");
    let dt = tr
        .meta_mut()
        .add_data_type(lockdoc_trace::event::DataTypeDef {
            name: "obj".into(),
            size: 0x40,
            members: vec![lockdoc_trace::event::MemberDef {
                name: "v".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
    tr.meta_mut().add_task("t");
    let loc = SourceLoc::new(file, 1);
    let init = |addr| Event::LockInit {
        addr,
        name,
        flavor: LockFlavor::Spinlock,
        is_static: false,
    };
    let alloc = |id| Event::Alloc {
        id: AllocId(id),
        addr: 0x1000,
        size: 0x40,
        data_type: dt,
        subclass: None,
    };
    let acquire = |addr| Event::LockAcquire {
        addr,
        mode: AcquireMode::Exclusive,
        loc,
    };
    let events = [
        Event::TaskSwitch { task: TaskId(0) },
        init(0x1010), // inside the range, before the allocation exists
        alloc(1),
        init(0x1008), // inside the allocation
        init(0x1040), // exactly at addr + size
        Event::Free { id: AllocId(1) },
        acquire(0x1008),
        acquire(0x1010),
        acquire(0x1040),
        Event::LockRelease { addr: 0x1040, loc },
        alloc(2),
        init(0x1008),
        acquire(0x1008),
        Event::MemAccess {
            kind: AccessKind::Write,
            addr: 0x1000,
            size: 8,
            loc,
            atomic: false,
        },
        Event::LockRelease { addr: 0x1008, loc },
    ];
    for (ts, e) in events.into_iter().enumerate() {
        tr.push(ts as u64 + 1, e);
    }
    let db = import(&tr, &FilterConfig::with_defaults(), 1);
    // The two locks inside the freed range are gone; the one at its end
    // is still registered, so its acquire and release balance.
    assert_eq!(db.stats.unknown_lock_acquires, 2);
    assert_eq!(db.stats.unmatched_releases, 0);
    // The re-allocation's lock is a fresh instance embedded in it, and
    // the access's transaction holds that instance.
    assert_eq!(db.locks.len(), 4);
    let fresh = &db.locks[3];
    assert_eq!(fresh.addr, 0x1008);
    assert_eq!(fresh.embedded_in, Some((AllocId(2), 8)));
    assert_eq!(db.accesses.len(), 1);
    let txn = db.access(0).txn;
    let held: Vec<_> = db.txn(txn).locks.iter().map(|h| h.lock).collect();
    assert_eq!(held, vec![fresh.id]);
}

/// A lock release from a different flow than the acquirer is counted as
/// unmatched (per-flow lock state, paper's transaction model).
#[test]
fn cross_task_release_is_unmatched() {
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("x.c");
    let name = tr.meta_mut().strings.intern("l");
    tr.meta_mut().add_task("t0");
    tr.meta_mut().add_task("t1");
    let loc = SourceLoc::new(file, 1);
    tr.push(
        1,
        Event::LockInit {
            addr: 0x10,
            name,
            flavor: LockFlavor::Mutex,
            is_static: true,
        },
    );
    tr.push(2, Event::TaskSwitch { task: TaskId(0) });
    tr.push(
        3,
        Event::LockAcquire {
            addr: 0x10,
            mode: AcquireMode::Exclusive,
            loc,
        },
    );
    tr.push(4, Event::TaskSwitch { task: TaskId(1) });
    tr.push(5, Event::LockRelease { addr: 0x10, loc });
    let db = import(&tr, &FilterConfig::with_defaults(), 1);
    assert_eq!(db.stats.unmatched_releases, 1);
}

/// An allocation that is never freed still resolves accesses (live at
/// trace end, like long-lived kernel objects).
#[test]
fn unfreed_allocations_remain_resolvable() {
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("x.c");
    let dt = tr
        .meta_mut()
        .add_data_type(lockdoc_trace::event::DataTypeDef {
            name: "obj".into(),
            size: 8,
            members: vec![lockdoc_trace::event::MemberDef {
                name: "v".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
    tr.meta_mut().add_task("t");
    tr.push(1, Event::TaskSwitch { task: TaskId(0) });
    tr.push(
        2,
        Event::Alloc {
            id: AllocId(7),
            addr: 0x1000,
            size: 8,
            data_type: dt,
            subclass: None,
        },
    );
    tr.push(
        3,
        Event::MemAccess {
            kind: AccessKind::Read,
            addr: 0x1000,
            size: 8,
            loc: SourceLoc::new(file, 9),
            atomic: false,
        },
    );
    let db = import(&tr, &FilterConfig::with_defaults(), 1);
    assert_eq!(db.accesses.len(), 1);
    let alloc = db.allocation(AllocId(7)).expect("alloc recorded");
    assert_eq!(alloc.free_ts, None);
}

/// A trace shaped to make per-group or per-transaction work blow up if it
/// scales with anything but the rows: a type with many members, each
/// mined to a lock rule; thousands of distinct held-lock sequences in one
/// group; a thousand subclass groups of that wide type; and one
/// transaction that touches twenty thousand objects of one group, each
/// twice and interleaved. The evidence index, the violation scan and the
/// race scan must still agree with the paper's definitions, computed here
/// straight from the access table.
#[test]
fn wide_types_and_long_transactions_stay_exact() {
    use lockdoc_core::derive::{derive, DeriveConfig};
    use lockdoc_core::lockset::resolve_txn_locks;
    use lockdoc_core::matrix::AccessMatrix;
    use lockdoc_core::{complies, find_races, find_violations, EvidenceIndex, LockDescriptor};
    use lockdoc_trace::event::{DataTypeDef, MemberDef};

    const MEMBERS: u32 = 1_000;
    const UNITS_PER_MEMBER: u32 = 20;
    const SUBCLASSES: u64 = 1_000;
    const LONG_OBJECTS: u64 = 20_000;
    const VIOLATIONS: u32 = 50;

    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("wide.c");
    let loc = SourceLoc::new(file, 1);
    let dt = tr.meta_mut().add_data_type(DataTypeDef {
        name: "wide".into(),
        size: 8 * MEMBERS,
        members: (0..MEMBERS)
            .map(|i| MemberDef {
                name: format!("m{i}"),
                offset: 8 * i,
                size: 8,
                atomic: false,
                is_lock: false,
            })
            .collect(),
    });
    tr.meta_mut().add_task("t");
    // A common lock every rule requires, and pair locks whose ordered
    // pairs make every unit's held-lock sequence distinct.
    let pair_locks = 150u64;
    let common = 0x10;
    let pair = |i: u64| 0x100 + 0x10 * i;
    let mut events = vec![Event::TaskSwitch { task: TaskId(0) }];
    for (addr, name) in std::iter::once((common, "common".to_owned()))
        .chain((0..pair_locks).map(|i| (pair(i), format!("p{i}"))))
    {
        let name = tr.meta_mut().strings.intern(&name);
        events.push(Event::LockInit {
            addr,
            name,
            flavor: LockFlavor::Spinlock,
            is_static: true,
        });
    }
    let acquire = |addr| Event::LockAcquire {
        addr,
        mode: AcquireMode::Exclusive,
        loc,
    };
    let release = |addr| Event::LockRelease { addr, loc };
    let access = |kind, addr| Event::MemAccess {
        kind,
        addr,
        size: 8,
        loc,
        atomic: false,
    };
    let size = 8 * MEMBERS;
    let base = 0x100_0000u64;
    let object = |i: u64| base + i * u64::from(size);
    let mut next_id = 0u64;
    let mut alloc = |events: &mut Vec<Event>, addr, subclass| {
        events.push(Event::Alloc {
            id: AllocId(next_id),
            addr,
            size,
            data_type: dt,
            subclass,
        });
        next_id += 1;
    };

    // Many rules, many sequences: every member of one object is written
    // under the common lock plus a distinct pair, then a few members once
    // under a lone pair lock.
    alloc(&mut events, object(0), None);
    let pairs = (0..pair_locks)
        .flat_map(|a| (0..pair_locks).map(move |b| (a, b)))
        .filter(|(a, b)| a != b);
    for (i, (a, b)) in pairs
        .take((MEMBERS * UNITS_PER_MEMBER) as usize)
        .enumerate()
    {
        let member = i as u64 % u64::from(MEMBERS);
        events.extend([
            acquire(common),
            acquire(pair(a)),
            acquire(pair(b)),
            access(AccessKind::Write, object(0) + 8 * member),
            release(pair(b)),
            release(pair(a)),
            release(common),
        ]);
    }
    for v in 0..VIOLATIONS {
        let member = u64::from(v * (MEMBERS / VIOLATIONS));
        events.extend([
            acquire(pair(0)),
            access(AccessKind::Write, object(0) + 8 * member),
            release(pair(0)),
        ]);
    }

    // Many groups of the wide type: one subclass per object, each written
    // once at its last member.
    for s in 0..SUBCLASSES {
        let addr = object(1 + s);
        let subclass = Some(tr.meta_mut().strings.intern(&format!("s{s}")));
        alloc(&mut events, addr, subclass);
        events.extend([
            acquire(common),
            access(AccessKind::Write, addr + 8 * u64::from(MEMBERS - 1)),
            release(common),
        ]);
    }

    // One long transaction: write member 0 of every object of a run, then
    // read it back in the same order, so every second touch switches
    // objects.
    let first = 1 + SUBCLASSES;
    for i in first..first + LONG_OBJECTS {
        alloc(&mut events, object(i), None);
    }
    events.push(acquire(common));
    for kind in [AccessKind::Write, AccessKind::Read] {
        for i in first..first + LONG_OBJECTS {
            events.push(access(kind, object(i)));
        }
    }
    events.push(release(common));
    for (ts, e) in events.into_iter().enumerate() {
        tr.push(ts as u64 + 1, e);
    }

    let db = import(&tr, &FilterConfig::with_defaults(), 1);
    let index = EvidenceIndex::build(&db);
    assert_eq!(index.groups().len() as u64, 1 + SUBCLASSES);
    let wide = index.group((dt, None)).expect("the unsubclassed group");
    assert_eq!(wide.members.len() as u32, MEMBERS);
    assert!(wide.seq_count() as u32 > MEMBERS * UNITS_PER_MEMBER);

    // The index against the paper's definitions, for the wide group and
    // a few subclass groups (each reference scan reads the whole access
    // table): each row's unit sequence, its write-over-read bit and every
    // observation list.
    for g in index.groups().iter().take(4) {
        let matrix = AccessMatrix::build(&db, g.key);
        for (pos, &row) in g.rows().iter().enumerate() {
            let a = db.access(row as usize);
            let txn = a.txn;
            let held: Vec<_> = db.txn(txn).locks.iter().map(|h| h.lock).collect();
            assert_eq!(
                index.materialize(g.seq(g.row_seq(pos))),
                resolve_txn_locks(&db, a.alloc, &held)
            );
            let written = matrix.members[&a.member].cells[&(txn, a.alloc)].writes > 0;
            assert_eq!(g.row_wor(pos), a.kind == AccessKind::Read && written);
        }
        assert_eq!(g.members.len(), matrix.members.len());
        for (&member, mm) in &matrix.members {
            let mo = g.member(member).expect("member observed");
            let observations = |kind| lockdoc_core::hypothesis::observations_for(&db, mm, kind);
            assert_eq!(mo.read, observations(AccessKind::Read));
            assert_eq!(mo.write, observations(AccessKind::Write));
        }
    }
    // The long transaction is twenty thousand write units under the
    // common lock, its reads folded into them.
    let m0 = wide.member(0).expect("member 0 observed");
    let common_only = m0
        .write
        .iter()
        .find(|o| o.locks == [LockDescriptor::global("common")])
        .expect("the long transaction's units");
    assert_eq!(common_only.count, LONG_OBJECTS);
    assert!(m0.read.is_empty());

    // Every member carries a lock rule; the scan finds exactly the
    // injected violations, all in the wide group, where it agrees with a
    // direct scan of the rows.
    let mined = derive(&db, &DeriveConfig::default());
    let violations = find_violations(&db, &mined, 3);
    let mut rules = 0u64;
    let mut direct = 0u64;
    for g in &mined.groups {
        if g.subclass.is_some() {
            rules += g
                .rules
                .iter()
                .filter(|r| !r.winner.hypothesis.locks.is_empty())
                .count() as u64;
            continue;
        }
        let ruled: std::collections::HashMap<_, _> = g
            .rules
            .iter()
            .filter(|r| !r.winner.hypothesis.locks.is_empty())
            .map(|r| ((r.member, r.kind), &r.winner.hypothesis.locks))
            .collect();
        rules += ruled.len() as u64;
        let matrix = AccessMatrix::build(&db, (g.data_type, g.subclass));
        for a in db.group_accesses((g.data_type, g.subclass)) {
            let Some(required) = ruled.get(&(a.member, a.kind)) else {
                continue;
            };
            let txn = a.txn;
            if a.kind == AccessKind::Read
                && matrix.members[&a.member].cells[&(txn, a.alloc)].writes > 0
            {
                continue;
            }
            let held: Vec<_> = db.txn(txn).locks.iter().map(|h| h.lock).collect();
            let held = resolve_txn_locks(&db, a.alloc, &held);
            direct += u64::from(!complies(&held, required));
        }
    }
    assert!(rules >= u64::from(MEMBERS) + SUBCLASSES);
    let found: u64 = violations.iter().map(|v| v.events).sum();
    assert_eq!(found, u64::from(VIOLATIONS));
    assert_eq!(found, direct);

    // One task: no races, and every group checks exactly the members it
    // accessed.
    let races = find_races(&db);
    assert_eq!(races.groups.len() as u64, 1 + SUBCLASSES);
    for g in &races.groups {
        assert!(g.candidates.is_empty());
        let expected = if g.subclass.is_none() { MEMBERS } else { 1 };
        assert_eq!(g.members_checked, u64::from(expected));
    }
}

/// `objects` allocations of one type, each embedding the spinlock that
/// guards one write, taken under a static mutex; the i-th allocation gets
/// id `id(i)`.
fn embedded_lock_trace(objects: u64, id: impl Fn(u64) -> u64) -> Trace {
    use lockdoc_trace::event::{DataTypeDef, MemberDef};
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("obj.c");
    let g_lock = tr.meta_mut().strings.intern("g_lock");
    let obj_lock = tr.meta_mut().strings.intern("obj_lock");
    let member = |name: &str, offset, is_lock| MemberDef {
        name: name.into(),
        offset,
        size: 8,
        atomic: false,
        is_lock,
    };
    let dt = tr.meta_mut().add_data_type(DataTypeDef {
        name: "obj".into(),
        size: 0x40,
        members: vec![member("lock", 0, true), member("v", 8, false)],
    });
    tr.meta_mut().add_task("t");
    let loc = SourceLoc::new(file, 1);
    let acquire = |addr| Event::LockAcquire {
        addr,
        mode: AcquireMode::Exclusive,
        loc,
    };
    let mut events = vec![
        Event::TaskSwitch { task: TaskId(0) },
        Event::LockInit {
            addr: 0x10,
            name: g_lock,
            flavor: LockFlavor::Mutex,
            is_static: true,
        },
    ];
    for i in 0..objects {
        let addr = 0x10000 + i * 0x40;
        events.extend([
            Event::Alloc {
                id: AllocId(id(i)),
                addr,
                size: 0x40,
                data_type: dt,
                subclass: None,
            },
            Event::LockInit {
                addr,
                name: obj_lock,
                flavor: LockFlavor::Spinlock,
                is_static: false,
            },
            acquire(0x10),
            acquire(addr),
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: addr + 8,
                size: 8,
                loc,
                atomic: false,
            },
            Event::LockRelease { addr, loc },
            Event::LockRelease { addr: 0x10, loc },
        ]);
    }
    for (ts, e) in events.into_iter().enumerate() {
        tr.push(ts as u64 + 1, e);
    }
    tr
}

/// Allocation ids that descend in event order are looked up like
/// ascending ones: the store sorts its allocations by id, each access's
/// allocation row follows the sort, and the evidence index, the order
/// graph and the lint report equal those of the ascending twin.
#[test]
fn descending_allocation_ids_match_their_ascending_twin() {
    use lockdoc_core::derive::{derive_in, DeriveConfig};
    use lockdoc_core::lint::lint_passes;
    use lockdoc_core::{EvidenceIndex, OrderGraph};

    const OBJECTS: u64 = 500;
    let filter = FilterConfig::with_defaults();
    let asc = import(&embedded_lock_trace(OBJECTS, |i| i + 1), &filter, 1);
    let desc = import(&embedded_lock_trace(OBJECTS, |i| OBJECTS - i), &filter, 1);
    assert_eq!(desc.accesses.len() as u64, OBJECTS);
    assert!(desc.allocations.windows(2).all(|w| w[0].id < w[1].id));
    for id in 1..=OBJECTS {
        assert_eq!(
            desc.allocation(AllocId(id)).map(|a| a.id),
            Some(AllocId(id))
        );
    }
    // The i-th access touched the i-th allocated object, id OBJECTS - i.
    for (i, a) in desc.iter_accesses().enumerate() {
        assert_eq!(a.alloc, AllocId(OBJECTS - i as u64));
    }
    let (asc_index, desc_index) = (EvidenceIndex::build(&asc), EvidenceIndex::build(&desc));
    assert_eq!(asc_index.trace_matrix(), desc_index.trace_matrix());
    let order = OrderGraph::build(&asc);
    assert!(!order.edges.is_empty());
    assert_eq!(order, OrderGraph::build(&desc));
    let lint_of = |db, index| {
        let mined = derive_in(index, &DeriveConfig::default());
        lint_passes(index, &mined, &[], None).report.render(db)
    };
    assert_eq!(lint_of(&asc, &asc_index), lint_of(&desc, &desc_index));
}
