//! Deterministic, seeded corruption injection for traces, with labelled
//! oracles — the adversarial twin of `ksim::faults`.
//!
//! `ksim` taught this codebase the pattern: never inject a deviation
//! without recording exactly what was injected and where, so recovery can
//! be *scored* rather than eyeballed. [`inject`] applies one
//! [`CorruptionClass`] to a well-formed trace and returns an [`Injection`]
//! carrying the corrupted artifact (an event-level [`Trace`], an encoded
//! byte container, or both) plus the [`Oracle`] stating what the resilient
//! pipeline must observe:
//!
//! * semantic classes (dropped/duplicated events, timestamp regressions,
//!   dangling alloc ids, double frees, unbalanced lock ops) carry the
//!   exact `(QuarantineClass, event index)` entries that
//!   `db::resilient::import_resilient` must report — no more, no fewer;
//! * byte-level classes (mid-record truncation, length-prefix bit flips)
//!   carry the byte position of the damage and, for truncation, the exact
//!   intact-prefix length `codec::read_trace_salvage` must recover.
//!
//! Injection sites are chosen by replaying the trace with the same state
//! model the detector uses, so a candidate site is one where the injected
//! anomaly is observable in isolation — e.g. a `DoubleFree` is only
//! planted after a free that actually freed something, and a
//! `DuplicateEvent` only duplicates a release that emptied its held-lock
//! entry (duplicating a reentrant release would merely decrement a count
//! and prove nothing). All choices are driven by the `seed`; equal seeds
//! produce equal injections.

use crate::codec::{write_event, write_meta, write_trace, write_varint, MAGIC};
use crate::db::resilient::QuarantineClass;
use crate::event::{ContextKind, Event, SourceLoc, Trace, TraceEvent};
use crate::ids::{Addr, AllocId, LockId, TaskId};
use lockdoc_platform::rng::Rng;
use std::collections::{BTreeMap, HashMap};

/// The corruption classes [`inject`] can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CorruptionClass {
    /// Cut the encoded container mid-record.
    TruncateTail,
    /// Flip one bit inside the encoded metadata region (where length
    /// prefixes live).
    LengthPrefixBitFlip,
    /// Remove an `Alloc` event, leaving its later `Free` dangling.
    DropEvent,
    /// Duplicate a `LockRelease`, unbalancing its flow.
    DuplicateEvent,
    /// Rewind one event's timestamp below the running maximum.
    TimestampRegression,
    /// Insert a `Free` of an allocation id that never existed.
    DanglingAllocId,
    /// Insert a second `Free` of an already-freed allocation.
    DoubleFree,
    /// Insert a `LockRelease` of a registered lock the flow does not hold.
    UnbalancedLock,
}

impl CorruptionClass {
    /// Every class, in a stable order.
    pub const ALL: [CorruptionClass; 8] = [
        CorruptionClass::TruncateTail,
        CorruptionClass::LengthPrefixBitFlip,
        CorruptionClass::DropEvent,
        CorruptionClass::DuplicateEvent,
        CorruptionClass::TimestampRegression,
        CorruptionClass::DanglingAllocId,
        CorruptionClass::DoubleFree,
        CorruptionClass::UnbalancedLock,
    ];

    /// The classes whose oracle is an exact quarantine expectation.
    pub const EVENT_LEVEL: [CorruptionClass; 6] = [
        CorruptionClass::DropEvent,
        CorruptionClass::DuplicateEvent,
        CorruptionClass::TimestampRegression,
        CorruptionClass::DanglingAllocId,
        CorruptionClass::DoubleFree,
        CorruptionClass::UnbalancedLock,
    ];

    /// The classes that damage the encoded byte container.
    pub const BYTE_LEVEL: [CorruptionClass; 2] = [
        CorruptionClass::TruncateTail,
        CorruptionClass::LengthPrefixBitFlip,
    ];

    /// Stable snake_case name.
    pub fn name(self) -> &'static str {
        match self {
            CorruptionClass::TruncateTail => "truncate_tail",
            CorruptionClass::LengthPrefixBitFlip => "length_prefix_bit_flip",
            CorruptionClass::DropEvent => "drop_event",
            CorruptionClass::DuplicateEvent => "duplicate_event",
            CorruptionClass::TimestampRegression => "timestamp_regression",
            CorruptionClass::DanglingAllocId => "dangling_alloc_id",
            CorruptionClass::DoubleFree => "double_free",
            CorruptionClass::UnbalancedLock => "unbalanced_lock",
        }
    }
}

impl std::fmt::Display for CorruptionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What the resilient pipeline must observe for one injection.
#[derive(Debug, Clone, PartialEq)]
pub enum Oracle {
    /// Exact quarantine expectation: `import_resilient` in lenient mode
    /// must report precisely these `(class, event index)` pairs, and
    /// strict mode must refuse with the first of them.
    Quarantine(Vec<(QuarantineClass, u64)>),
    /// Mid-record truncation: `read_trace` must fail; `read_trace_salvage`
    /// must recover exactly the first `intact_events` events unchanged and
    /// diagnose the first failure at byte `cut_record_offset`.
    Truncated {
        /// Number of whole records before the cut.
        intact_events: usize,
        /// Byte offset of the record the cut landed in.
        cut_record_offset: usize,
    },
    /// Metadata bit flip: decoding must fail typed or succeed — never
    /// panic, never hang, never over-allocate.
    MetaDamage {
        /// Byte offset of the flipped bit.
        offset: usize,
        /// The flipped bit mask.
        bit: u8,
    },
}

/// One injected corruption: the corrupted artifact plus its oracle.
#[derive(Debug, Clone)]
pub struct Injection {
    /// The class that was injected.
    pub class: CorruptionClass,
    /// Corrupted event-level trace (`None` for byte-level classes).
    pub trace: Option<Trace>,
    /// Corrupted encoded container. `None` for
    /// [`CorruptionClass::TimestampRegression`]: the delta codec cannot
    /// represent time travel, which is exactly why that class exists only
    /// at the event level (programmatic construction).
    pub bytes: Option<Vec<u8>>,
    /// What recovery must observe.
    pub oracle: Oracle,
}

/// Candidate injection sites discovered by replaying the trace with the
/// detector's state model.
#[derive(Debug, Default)]
struct Sites {
    /// `(event index, alloc id)` of frees that freed a live allocation.
    effective_frees: Vec<(usize, u64)>,
    /// `(alloc event index, free event index)` pairs safe to orphan: the
    /// allocation is freed later, no lock was ever registered inside its
    /// range, and the range is never re-allocated.
    droppable_allocs: Vec<(usize, usize)>,
    /// `(event index, running max before it)` of accesses whose timestamp
    /// can rewind without side effects beyond the quarantine itself.
    ts_regressions: Vec<(usize, u64)>,
    /// Releases that empty their held-lock entry (count 1 → gone); a
    /// duplicate right after is observably unmatched.
    emptying_releases: Vec<usize>,
    /// Boundaries `p` (insert before event `p`, or at the end for
    /// `p == len`) where the current flow holds no lock but at least one
    /// lock is registered — an inserted release there is unbalanced.
    quiet_boundaries: Vec<usize>,
    /// Largest allocation id ever seen (fresh ids start above it).
    max_alloc_id: u64,
}

/// Replay state shared by the site scan and the boundary re-scan.
#[derive(Debug)]
struct Replay {
    allocs: HashMap<AllocId, (Addr, u32, bool)>,
    active_allocs: BTreeMap<Addr, AllocId>,
    active_locks: BTreeMap<Addr, (LockId, bool)>,
    n_locks: u32,
    current_task: TaskId,
    ctx_stack: Vec<ContextKind>,
    held: HashMap<FlowId, Vec<(LockId, u32)>>,
}

impl Default for Replay {
    fn default() -> Self {
        Replay {
            allocs: HashMap::new(),
            active_allocs: BTreeMap::new(),
            active_locks: BTreeMap::new(),
            n_locks: 0,
            current_task: TaskId(0),
            ctx_stack: Vec::new(),
            held: HashMap::new(),
        }
    }
}

/// Flow identity for the replay (equivalent to `db::schema::FlowKey`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FlowId {
    Task(TaskId),
    Irq(u8),
}

impl Replay {
    fn flow(&self) -> FlowId {
        match self.ctx_stack.last() {
            Some(ContextKind::Softirq) => FlowId::Irq(0),
            Some(ContextKind::Hardirq) => FlowId::Irq(1),
            _ => FlowId::Task(self.current_task),
        }
    }

    /// Applies one event's state effects, returning which candidate kind
    /// (if any) this event represents. Mirrors the detector: events a
    /// clean trace should not contain are simply not candidates.
    fn step(&mut self, ev: &Event) -> Option<Candidate> {
        match ev {
            Event::LockInit { addr, flavor, .. } => {
                self.active_locks
                    .insert(*addr, (LockId(self.n_locks), flavor.reentrant()));
                self.n_locks += 1;
                Some(Candidate::LockInit { addr: *addr })
            }
            Event::Alloc { id, addr, size, .. } => {
                if self.allocs.contains_key(id) {
                    return None;
                }
                self.allocs.insert(*id, (*addr, *size, false));
                self.active_allocs.insert(*addr, *id);
                Some(Candidate::Alloc)
            }
            Event::Free { id } => match self.allocs.get_mut(id) {
                Some(info) if !info.2 => {
                    info.2 = true;
                    let (addr, size) = (info.0, info.1);
                    self.active_allocs.remove(&addr);
                    let end = addr.saturating_add(u64::from(size));
                    self.active_locks.retain(|&a, _| !(a >= addr && a < end));
                    Some(Candidate::EffectiveFree { id: id.0 })
                }
                _ => None,
            },
            Event::LockAcquire { addr, .. } => {
                let &(lock, reentrant) = self.active_locks.get(addr)?;
                let flow = self.flow();
                let held = self.held.entry(flow).or_default();
                if reentrant {
                    if let Some(e) = held.iter_mut().find(|(l, _)| *l == lock) {
                        e.1 += 1;
                        return None;
                    }
                }
                held.push((lock, 1));
                None
            }
            Event::LockRelease { addr, .. } => {
                let &(lock, _) = self.active_locks.get(addr)?;
                let flow = self.flow();
                let held = self.held.entry(flow).or_default();
                let pos = held.iter().rposition(|(l, _)| *l == lock)?;
                if held[pos].1 > 1 {
                    held[pos].1 -= 1;
                    None
                } else {
                    held.remove(pos);
                    Some(Candidate::EmptyingRelease)
                }
            }
            Event::MemAccess { .. } => Some(Candidate::Access),
            Event::TaskSwitch { task } => {
                self.current_task = *task;
                None
            }
            Event::ContextEnter { kind } => {
                self.ctx_stack.push(*kind);
                None
            }
            Event::ContextExit { kind } => {
                if self.ctx_stack.last() == Some(kind) {
                    self.ctx_stack.pop();
                }
                None
            }
            _ => None,
        }
    }

    /// Whether the current flow holds no lock while locks are registered.
    fn is_quiet(&self) -> bool {
        !self.active_locks.is_empty()
            && self
                .held
                .get(&self.flow())
                .map(|h| h.is_empty())
                .unwrap_or(true)
    }
}

enum Candidate {
    LockInit { addr: Addr },
    Alloc,
    EffectiveFree { id: u64 },
    EmptyingRelease,
    Access,
}

/// Scans the trace once, collecting every candidate site per class.
fn scan(trace: &Trace) -> Sites {
    let mut sites = Sites::default();
    let mut rp = Replay::default();
    let mut max_ts = 0u64;
    // Range bookkeeping for DropEvent safety: (addr, end, alloc event
    // index, free event index, tainted).
    struct RangeInfo {
        addr: Addr,
        end: Addr,
        alloc_idx: usize,
        free_idx: Option<usize>,
        tainted: bool,
    }
    let mut ranges: Vec<RangeInfo> = Vec::new();
    let mut range_of: HashMap<u64, usize> = HashMap::new();

    for (i, te) in trace.events.iter().enumerate() {
        if rp.is_quiet() {
            sites.quiet_boundaries.push(i);
        }
        if let Event::Alloc { id, addr, size, .. } = &te.event {
            sites.max_alloc_id = sites.max_alloc_id.max(id.0);
            let end = addr.saturating_add(u64::from(*size));
            for r in &mut ranges {
                if *addr < r.end && r.addr < end {
                    r.tainted = true;
                }
            }
            if let std::collections::hash_map::Entry::Vacant(slot) = range_of.entry(id.0) {
                slot.insert(ranges.len());
                ranges.push(RangeInfo {
                    addr: *addr,
                    end,
                    alloc_idx: i,
                    free_idx: None,
                    tainted: false,
                });
            }
        }
        match rp.step(&te.event) {
            Some(Candidate::LockInit { addr }) => {
                for r in &mut ranges {
                    if addr >= r.addr && addr < r.end {
                        r.tainted = true;
                    }
                }
            }
            Some(Candidate::Alloc) => {}
            Some(Candidate::EffectiveFree { id }) => {
                sites.effective_frees.push((i, id));
                if let Some(&ri) = range_of.get(&id) {
                    if ranges[ri].free_idx.is_none() {
                        ranges[ri].free_idx = Some(i);
                    }
                }
            }
            Some(Candidate::EmptyingRelease) => sites.emptying_releases.push(i),
            Some(Candidate::Access) if max_ts >= 1 => {
                sites.ts_regressions.push((i, max_ts));
            }
            Some(Candidate::Access) => {}
            None => {}
        }
        max_ts = max_ts.max(te.ts);
    }
    if rp.is_quiet() {
        sites.quiet_boundaries.push(trace.events.len());
    }
    sites.droppable_allocs = ranges
        .iter()
        .filter(|r| !r.tainted)
        .filter_map(|r| r.free_idx.map(|f| (r.alloc_idx, f)))
        .collect();
    sites
}

/// Replays the trace up to boundary `p` and returns the registered lock
/// addresses at that point, in address order.
fn active_lock_addrs_at(trace: &Trace, p: usize) -> Vec<Addr> {
    let mut rp = Replay::default();
    for te in trace.events.iter().take(p) {
        rp.step(&te.event);
    }
    rp.active_locks.keys().copied().collect()
}

/// Timestamp for an event inserted at boundary `p` that keeps the stream
/// monotonic: the predecessor's timestamp (or the first event's for
/// `p == 0`).
fn insert_ts(trace: &Trace, p: usize) -> u64 {
    if p == 0 {
        trace.events.first().map(|e| e.ts).unwrap_or(0)
    } else {
        trace.events[p - 1].ts
    }
}

fn insert_event(trace: &Trace, p: usize, event: Event) -> Trace {
    let mut events = Vec::with_capacity(trace.events.len() + 1);
    events.extend_from_slice(&trace.events[..p]);
    events.push(TraceEvent {
        ts: insert_ts(trace, p),
        event,
    });
    events.extend_from_slice(&trace.events[p..]);
    Trace {
        meta: trace.meta.clone(),
        events,
    }
}

fn encode(trace: &Trace) -> Option<Vec<u8>> {
    let mut buf = Vec::new();
    write_trace(trace, &mut buf).ok()?;
    Some(buf)
}

/// Injects one corruption of `class` into `trace`, driven by `seed`.
///
/// Returns `None` when the trace offers no safe injection site for the
/// class (e.g. `DoubleFree` on a trace with no effective free) or when the
/// base trace itself cannot be encoded. Equal `(trace, class, seed)`
/// inputs produce identical injections.
pub fn inject(trace: &Trace, class: CorruptionClass, seed: u64) -> Option<Injection> {
    let mut rng = Rng::seed_from_u64(seed);
    let sites = scan(trace);
    match class {
        CorruptionClass::TruncateTail => {
            // Encode with per-record offsets so the cut provably lands
            // strictly inside record `k`.
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            write_meta(&mut buf, &trace.meta).ok()?;
            write_varint(&mut buf, trace.events.len() as u64).ok()?;
            let mut offsets = Vec::with_capacity(trace.events.len());
            let mut last_ts = 0u64;
            for te in &trace.events {
                offsets.push(buf.len());
                write_varint(&mut buf, te.ts.checked_sub(last_ts)?).ok()?;
                last_ts = te.ts;
                write_event(&mut buf, &te.event).ok()?;
            }
            if offsets.is_empty() {
                return None;
            }
            let k = rng.gen_range(0..offsets.len());
            let end_k = offsets.get(k + 1).copied().unwrap_or(buf.len());
            let cut = rng.gen_range(offsets[k] + 1..end_k);
            buf.truncate(cut);
            Some(Injection {
                class,
                trace: None,
                bytes: Some(buf),
                oracle: Oracle::Truncated {
                    intact_events: k,
                    cut_record_offset: offsets[k],
                },
            })
        }
        CorruptionClass::LengthPrefixBitFlip => {
            let mut meta_buf = Vec::new();
            write_meta(&mut meta_buf, &trace.meta).ok()?;
            let bytes = encode(trace)?;
            // Bias half the draws onto the very first varint (the string
            // count), the highest-leverage length prefix in the container.
            let offset = if rng.gen_bool(0.5) {
                MAGIC.len()
            } else {
                MAGIC.len() + rng.gen_range(0..meta_buf.len())
            };
            let bit = 1u8 << rng.gen_range(0u32..8);
            let mut damaged = bytes;
            damaged[offset] ^= bit;
            Some(Injection {
                class,
                trace: None,
                bytes: Some(damaged),
                oracle: Oracle::MetaDamage { offset, bit },
            })
        }
        CorruptionClass::DropEvent => {
            let &(alloc_idx, free_idx) = rng.choose(&sites.droppable_allocs)?;
            let mut events = trace.events.clone();
            events.remove(alloc_idx);
            let corrupted = Trace {
                meta: trace.meta.clone(),
                events,
            };
            // The orphaned free sits one position earlier now.
            let oracle =
                Oracle::Quarantine(vec![(QuarantineClass::DanglingFree, (free_idx - 1) as u64)]);
            let bytes = encode(&corrupted);
            Some(Injection {
                class,
                trace: Some(corrupted),
                bytes,
                oracle,
            })
        }
        CorruptionClass::DuplicateEvent => {
            let &idx = rng.choose(&sites.emptying_releases)?;
            let corrupted = insert_event(trace, idx + 1, trace.events[idx].event.clone());
            let oracle =
                Oracle::Quarantine(vec![(QuarantineClass::UnbalancedRelease, (idx + 1) as u64)]);
            let bytes = encode(&corrupted);
            Some(Injection {
                class,
                trace: Some(corrupted),
                bytes,
                oracle,
            })
        }
        CorruptionClass::TimestampRegression => {
            let &(idx, max_before) = rng.choose(&sites.ts_regressions)?;
            let mut events = trace.events.clone();
            events[idx].ts = rng.gen_range(0..max_before);
            let corrupted = Trace {
                meta: trace.meta.clone(),
                events,
            };
            let oracle =
                Oracle::Quarantine(vec![(QuarantineClass::TimestampRegression, idx as u64)]);
            // No `bytes`: the delta codec cannot represent time travel
            // (write_trace refuses with CodecError::NonMonotonic).
            Some(Injection {
                class,
                trace: Some(corrupted),
                bytes: None,
                oracle,
            })
        }
        CorruptionClass::DanglingAllocId => {
            let p = rng.gen_range(0..trace.events.len() + 1);
            let fresh = sites.max_alloc_id + 1 + rng.gen_range(0u64..1000);
            let corrupted = insert_event(trace, p, Event::Free { id: AllocId(fresh) });
            let oracle = Oracle::Quarantine(vec![(QuarantineClass::DanglingFree, p as u64)]);
            let bytes = encode(&corrupted);
            Some(Injection {
                class,
                trace: Some(corrupted),
                bytes,
                oracle,
            })
        }
        CorruptionClass::DoubleFree => {
            let &(idx, id) = rng.choose(&sites.effective_frees)?;
            let corrupted = insert_event(trace, idx + 1, Event::Free { id: AllocId(id) });
            let oracle = Oracle::Quarantine(vec![(QuarantineClass::DoubleFree, (idx + 1) as u64)]);
            let bytes = encode(&corrupted);
            Some(Injection {
                class,
                trace: Some(corrupted),
                bytes,
                oracle,
            })
        }
        CorruptionClass::UnbalancedLock => {
            let &p = rng.choose(&sites.quiet_boundaries)?;
            let addrs = active_lock_addrs_at(trace, p);
            let &addr = rng.choose(&addrs)?;
            // The release needs a valid source location; intern a marker
            // file into the (cloned) metadata. Appending to the interner
            // never invalidates existing symbols.
            let mut corrupted = insert_event(trace, p, Event::Free { id: AllocId(0) });
            let file = corrupted.meta_mut().strings.intern("corrupt.c");
            corrupted.events[p].event = Event::LockRelease {
                addr,
                loc: SourceLoc::new(file, 4242),
            };
            let oracle = Oracle::Quarantine(vec![(QuarantineClass::UnbalancedRelease, p as u64)]);
            let bytes = encode(&corrupted);
            Some(Injection {
                class,
                trace: Some(corrupted),
                bytes,
                oracle,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AccessKind, AcquireMode, DataTypeDef, LockFlavor, MemberDef};

    fn base() -> Trace {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("gen.c");
        let lname = tr.meta_mut().strings.intern("l0");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 32,
            members: vec![MemberDef {
                name: "m0".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let task = tr.meta_mut().add_task("t0");
        tr.push(1, Event::TaskSwitch { task });
        tr.push(
            2,
            Event::LockInit {
                addr: 0x100,
                name: lname,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
        tr.push(
            3,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 32,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(
            4,
            Event::LockAcquire {
                addr: 0x100,
                mode: AcquireMode::Exclusive,
                loc: SourceLoc::new(file, 1),
            },
        );
        tr.push(
            5,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc: SourceLoc::new(file, 2),
                atomic: false,
            },
        );
        tr.push(
            6,
            Event::LockRelease {
                addr: 0x100,
                loc: SourceLoc::new(file, 3),
            },
        );
        tr.push(7, Event::Free { id: AllocId(1) });
        tr
    }

    #[test]
    fn every_class_finds_a_site_in_the_canonical_base() {
        for class in CorruptionClass::ALL {
            assert!(
                inject(&base(), class, 7).is_some(),
                "no site for {class} in the canonical base trace"
            );
        }
    }

    #[test]
    fn injection_is_seed_deterministic() {
        for class in CorruptionClass::ALL {
            let a = inject(&base(), class, 42).unwrap();
            let b = inject(&base(), class, 42).unwrap();
            assert_eq!(a.oracle, b.oracle, "{class}");
            assert_eq!(a.bytes, b.bytes, "{class}");
            assert_eq!(a.trace, b.trace, "{class}");
        }
    }

    #[test]
    fn sites_respect_safety_restrictions() {
        let sites = scan(&base());
        // The only alloc is freed, untouched by LockInit, never reused.
        assert_eq!(sites.droppable_allocs, vec![(2, 6)]);
        assert_eq!(sites.effective_frees, vec![(6, 1)]);
        // The balanced release empties its held entry.
        assert_eq!(sites.emptying_releases, vec![5]);
        // Quiet boundaries exist only where the lock is registered and
        // not held: before events 3 and 4, and after the release.
        assert_eq!(sites.quiet_boundaries, vec![2, 3, 6, 7]);
        assert_eq!(sites.max_alloc_id, 1);
    }

    #[test]
    fn reentrant_release_is_not_a_duplicate_site() {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("r.c");
        let rcu = tr.meta_mut().strings.intern("rcu");
        tr.meta_mut().add_task("t0");
        let loc = SourceLoc::new(file, 1);
        tr.push(0, Event::TaskSwitch { task: TaskId(0) });
        tr.push(
            1,
            Event::LockInit {
                addr: 0x10,
                name: rcu,
                flavor: LockFlavor::Rcu,
                is_static: true,
            },
        );
        tr.push(
            2,
            Event::LockAcquire {
                addr: 0x10,
                mode: AcquireMode::Shared,
                loc,
            },
        );
        tr.push(
            3,
            Event::LockAcquire {
                addr: 0x10,
                mode: AcquireMode::Shared,
                loc,
            },
        );
        tr.push(4, Event::LockRelease { addr: 0x10, loc }); // count 2 -> 1
        tr.push(5, Event::LockRelease { addr: 0x10, loc }); // count 1 -> gone
        let sites = scan(&tr);
        // Only the emptying release (event 5) is a candidate: duplicating
        // event 4 would merely decrement the count, observably nothing.
        assert_eq!(sites.emptying_releases, vec![5]);
    }
}
