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
/// double-frees in the *event stream* are counted, not fatal.
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
