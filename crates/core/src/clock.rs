//! The paper's running example (Sec. 4.1, Fig. 4): a shared "time" data
//! structure with `seconds` protected by `sec_lock` and `minutes` protected
//! by `sec_lock -> min_lock`.
//!
//! [`clock_trace`] synthesizes the exact trace the paper reasons about —
//! `iterations` correct executions of the clock counter plus `faulty`
//! executions of a buggy variant that forgets `min_lock` when rolling
//! minutes over — and is used by the Tab. 1 / Tab. 2 experiments, the unit
//! tests, and the `clock_counter` example.

use lockdoc_trace::db::{import, TraceDb};
use lockdoc_trace::event::{
    AccessKind, AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc, Trace,
};
use lockdoc_trace::filter::FilterConfig;

/// Addresses used by the synthetic clock trace.
const SEC_LOCK_ADDR: u64 = 0x100;
const MIN_LOCK_ADDR: u64 = 0x200;
const CLOCK_ADDR: u64 = 0x1000;

/// Builds the clock-counter trace.
///
/// Every 60th iteration rolls `seconds` over and increments `minutes`
/// under `sec_lock -> min_lock` (transaction *b* in the paper's Fig. 4).
/// Each of the `faulty` executions appended afterwards starts at
/// `seconds == 59` and performs the roll-over *without* acquiring
/// `min_lock` — the race-prone bug of Sec. 4.1.
///
/// # Examples
///
/// ```
/// use lockdoc_core::clock::clock_trace;
///
/// let trace = clock_trace(1000, 1);
/// assert!(trace.summary().mem_accesses > 3000);
/// ```
pub fn clock_trace(iterations: u64, faulty: u64) -> Trace {
    let mut tr = Trace::new();
    let file = tr.meta_mut().strings.intern("clock.c");
    let sec_lock = tr.meta_mut().strings.intern("sec_lock");
    let min_lock = tr.meta_mut().strings.intern("min_lock");
    let dt = tr.meta_mut().add_data_type(DataTypeDef {
        name: "clock".into(),
        size: 8,
        members: vec![
            MemberDef {
                name: "seconds".into(),
                offset: 0,
                size: 4,
                atomic: false,
                is_lock: false,
            },
            MemberDef {
                name: "minutes".into(),
                offset: 4,
                size: 4,
                atomic: false,
                is_lock: false,
            },
        ],
    });
    let tick = tr.meta_mut().add_function("clock_tick");
    let tick_buggy = tr.meta_mut().add_function("clock_tick_buggy");
    let task = tr.meta_mut().add_task("timekeeper");

    let mut ts = 0u64;
    let mut push = |tr: &mut Trace, e: Event| {
        ts += 1;
        tr.push(ts, e);
    };
    let loc = |line: u32| SourceLoc::new(file, line);

    push(&mut tr, Event::TaskSwitch { task });
    push(
        &mut tr,
        Event::LockInit {
            addr: SEC_LOCK_ADDR,
            name: sec_lock,
            flavor: LockFlavor::Spinlock,
            is_static: true,
        },
    );
    push(
        &mut tr,
        Event::LockInit {
            addr: MIN_LOCK_ADDR,
            name: min_lock,
            flavor: LockFlavor::Spinlock,
            is_static: true,
        },
    );
    push(
        &mut tr,
        Event::Alloc {
            id: lockdoc_trace::ids::AllocId(1),
            addr: CLOCK_ADDR,
            size: 8,
            data_type: dt,
            subclass: None,
        },
    );

    let access = |kind: AccessKind, offset: u64, line: u32| Event::MemAccess {
        kind,
        addr: CLOCK_ADDR + offset,
        size: 4,
        loc: loc(line),
        atomic: false,
    };

    // One execution of the Fig. 4 code with `take_min_lock` controlling
    // whether transaction b acquires min_lock (the bug skips it).
    let mut seconds = 0u32;
    let mut run_once = |tr: &mut Trace, func, take_min_lock: bool, seconds: &mut u32| {
        push(tr, Event::FnEnter { func });
        push(
            tr,
            Event::LockAcquire {
                addr: SEC_LOCK_ADDR,
                mode: AcquireMode::Exclusive,
                loc: loc(1),
            },
        );
        // seconds = seconds + 1;
        push(tr, access(AccessKind::Read, 0, 2));
        push(tr, access(AccessKind::Write, 0, 2));
        *seconds += 1;
        // if (seconds == 60)
        push(tr, access(AccessKind::Read, 0, 3));
        if *seconds == 60 {
            if take_min_lock {
                push(
                    tr,
                    Event::LockAcquire {
                        addr: MIN_LOCK_ADDR,
                        mode: AcquireMode::Exclusive,
                        loc: loc(4),
                    },
                );
            }
            // seconds = 0;
            push(tr, access(AccessKind::Write, 0, 5));
            *seconds = 0;
            // minutes = minutes + 1;
            push(tr, access(AccessKind::Read, 4, 6));
            push(tr, access(AccessKind::Write, 4, 6));
            if take_min_lock {
                push(
                    tr,
                    Event::LockRelease {
                        addr: MIN_LOCK_ADDR,
                        loc: loc(7),
                    },
                );
            }
        }
        push(
            tr,
            Event::LockRelease {
                addr: SEC_LOCK_ADDR,
                loc: loc(9),
            },
        );
        push(tr, Event::FnExit { func });
    };

    for _ in 0..iterations {
        run_once(&mut tr, tick, true, &mut seconds);
    }
    for _ in 0..faulty {
        // Force the faulty execution to hit the minute roll-over.
        seconds = 59;
        run_once(&mut tr, tick_buggy, false, &mut seconds);
    }
    tr
}

/// Imports the clock trace with default filters.
pub fn clock_db(iterations: u64, faulty: u64) -> TraceDb {
    import(
        &clock_trace(iterations, faulty),
        &FilterConfig::with_defaults(),
        1,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minute_rollover_count_matches_paper() {
        // 1000 iterations -> 16 roll-overs (1000/60), plus 1 faulty.
        let db = clock_db(1000, 1);
        let minute_writes = db
            .iter_accesses()
            .filter(|a| a.kind == AccessKind::Write && a.member == 1)
            .count();
        assert_eq!(minute_writes, 17);
    }

    #[test]
    fn one_iteration_produces_tab1_counts() {
        // A single roll-over execution: start the counter at 59 via 60
        // iterations and inspect the last two transactions.
        let db = clock_db(60, 0);
        // The roll-over iteration ends inside transaction b (no accesses
        // happen between releasing min_lock and sec_lock, so no trailing
        // txn-a span is materialized): the last txn holds both locks, the
        // one before it is transaction a with sec_lock only.
        let b = db.txns.last().expect("txns exist");
        assert_eq!(b.locks.len(), 2);
        let a = db.txns.get(db.txns.len() - 2);
        assert_eq!(a.locks.len(), 1);
    }

    #[test]
    fn faulty_run_holds_only_sec_lock() {
        let db = clock_db(0, 1);
        // All accesses of the single faulty run sit in one txn with one lock.
        assert!(db.iter_accesses().all(|a| db.txn(a.txn).locks.len() == 1));
    }
}
