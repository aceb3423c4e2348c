//! The trace event model: everything the instrumented target system emits.
//!
//! This mirrors the events LockDoc records from its instrumented Linux kernel
//! running under Fail*/Bochs (paper Sec. 5.2/6): dynamic memory
//! (de)allocations, lock acquisitions/releases, read/write accesses to
//! observed allocations, and enough control-flow context (function
//! enter/exit, task switches, irq entry/exit) to reconstruct stack traces and
//! per-control-flow lock state ex post.

use crate::ids::{Addr, AllocId, DataTypeId, FnId, Sym, TaskId, Timestamp};
use std::fmt;

/// A source-code location (interned file plus line number).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SourceLoc {
    /// Interned file path, e.g. `fs/inode.c`.
    pub file: Sym,
    /// 1-based line number.
    pub line: u32,
}

impl SourceLoc {
    /// Creates a new source location.
    pub fn new(file: Sym, line: u32) -> Self {
        Self { file, line }
    }
}

/// The kind of synchronization primitive a lock instance belongs to.
///
/// These are the primitives LockDoc instruments in Linux (paper Sec. 7.1):
/// `spinlock_t`, `rwlock_t`, `semaphore`, `rw_semaphore`, `mutex` and RCU,
/// plus the synthetic `softirq`/`hardirq` pseudo-locks recorded for
/// bottom-half / interrupt-disabled regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockFlavor {
    /// A busy-waiting `spinlock_t`.
    Spinlock,
    /// A reader/writer spinlock (`rwlock_t`).
    Rwlock,
    /// A blocking `struct mutex`.
    Mutex,
    /// A counting `struct semaphore` used as a binary lock.
    Semaphore,
    /// A blocking reader/writer semaphore (`rw_semaphore`).
    RwSemaphore,
    /// A sequence lock (`seqlock_t`).
    Seqlock,
    /// An RCU read-side critical section (global, reentrant).
    Rcu,
    /// Synthetic pseudo-lock: bottom halves disabled (`local_bh_disable`).
    Softirq,
    /// Synthetic pseudo-lock: interrupts disabled (`local_irq_disable`).
    Hardirq,
}

impl LockFlavor {
    /// Whether acquisitions of this flavor may nest on the same instance
    /// (only RCU read-side sections and the pseudo-locks are reentrant).
    pub fn reentrant(self) -> bool {
        matches!(
            self,
            LockFlavor::Rcu | LockFlavor::Softirq | LockFlavor::Hardirq
        )
    }

    /// Whether the flavor distinguishes shared (reader) from exclusive
    /// (writer) acquisitions.
    pub fn has_reader_side(self) -> bool {
        matches!(
            self,
            LockFlavor::Rwlock | LockFlavor::RwSemaphore | LockFlavor::Seqlock
        )
    }

    /// Short lowercase name as used in reports, e.g. `spinlock_t`.
    pub fn c_name(self) -> &'static str {
        match self {
            LockFlavor::Spinlock => "spinlock_t",
            LockFlavor::Rwlock => "rwlock_t",
            LockFlavor::Mutex => "mutex",
            LockFlavor::Semaphore => "semaphore",
            LockFlavor::RwSemaphore => "rw_semaphore",
            LockFlavor::Seqlock => "seqlock_t",
            LockFlavor::Rcu => "rcu",
            LockFlavor::Softirq => "softirq",
            LockFlavor::Hardirq => "hardirq",
        }
    }

    /// The flavor's byte in the LDOC1 trace format and the LDARCH1
    /// archive; both formats depend on these values never changing.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            LockFlavor::Spinlock => 0,
            LockFlavor::Rwlock => 1,
            LockFlavor::Mutex => 2,
            LockFlavor::Semaphore => 3,
            LockFlavor::RwSemaphore => 4,
            LockFlavor::Seqlock => 5,
            LockFlavor::Rcu => 6,
            LockFlavor::Softirq => 7,
            LockFlavor::Hardirq => 8,
        }
    }

    /// The flavor with this [`LockFlavor::tag`], if any.
    #[inline]
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => LockFlavor::Spinlock,
            1 => LockFlavor::Rwlock,
            2 => LockFlavor::Mutex,
            3 => LockFlavor::Semaphore,
            4 => LockFlavor::RwSemaphore,
            5 => LockFlavor::Seqlock,
            6 => LockFlavor::Rcu,
            7 => LockFlavor::Softirq,
            8 => LockFlavor::Hardirq,
            _ => return None,
        })
    }
}

impl fmt::Display for LockFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.c_name())
    }
}

/// Whether a lock was taken for shared (read) or exclusive (write) access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcquireMode {
    /// Shared / reader side.
    Shared,
    /// Exclusive / writer side.
    Exclusive,
}

/// The kind of a memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AccessKind {
    /// A read access.
    Read,
    /// A write access.
    Write,
}

impl AccessKind {
    /// One-letter tag used in reports (`r` / `w`).
    pub fn tag(self) -> &'static str {
        match self {
            AccessKind::Read => "r",
            AccessKind::Write => "w",
        }
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// The execution context a control flow runs in (paper Sec. 2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ContextKind {
    /// Ordinary task (process/kthread) context.
    Task,
    /// Bottom half (softirq) context.
    Softirq,
    /// First-level interrupt handler context.
    Hardirq,
}

impl ContextKind {
    /// The context's byte in the LDOC1 trace format and the LDARCH1
    /// archive; both formats depend on these values never changing.
    #[inline]
    pub fn tag(self) -> u8 {
        match self {
            ContextKind::Task => 0,
            ContextKind::Softirq => 1,
            ContextKind::Hardirq => 2,
        }
    }

    /// The context with this [`ContextKind::tag`], if any.
    #[inline]
    pub fn from_tag(tag: u8) -> Option<Self> {
        Some(match tag {
            0 => ContextKind::Task,
            1 => ContextKind::Softirq,
            2 => ContextKind::Hardirq,
            _ => return None,
        })
    }
}

impl fmt::Display for ContextKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ContextKind::Task => "task",
            ContextKind::Softirq => "softirq",
            ContextKind::Hardirq => "hardirq",
        };
        f.write_str(s)
    }
}

/// A single trace event, stamped with a simulated-time [`Timestamp`] in
/// [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Registration of a lock instance (embedded lock addresses resolve to
    /// their containing allocation at import time; global locks carry an
    /// interned name).
    LockInit {
        /// Address identifying the lock instance from here on.
        addr: Addr,
        /// Interned variable name of the lock (e.g. `i_lock`).
        name: Sym,
        /// Primitive kind.
        flavor: LockFlavor,
        /// Whether the instance is statically allocated (a global lock).
        is_static: bool,
    },
    /// A dynamic allocation of an observed data structure.
    Alloc {
        /// Fresh allocation id.
        id: AllocId,
        /// Start address.
        addr: Addr,
        /// Size in bytes.
        size: u32,
        /// The allocated data type.
        data_type: DataTypeId,
        /// Optional subclass discriminator (e.g. the backing filesystem of
        /// an inode), mirroring paper Sec. 5.3 item 1.
        subclass: Option<Sym>,
    },
    /// Deallocation of a previously observed allocation.
    Free {
        /// The allocation being destroyed.
        id: AllocId,
    },
    /// A lock acquisition completed.
    LockAcquire {
        /// Lock instance address.
        addr: Addr,
        /// Shared or exclusive side.
        mode: AcquireMode,
        /// Source location of the call.
        loc: SourceLoc,
    },
    /// A lock release.
    LockRelease {
        /// Lock instance address.
        addr: Addr,
        /// Source location of the call.
        loc: SourceLoc,
    },
    /// A read or write of memory inside an observed allocation.
    MemAccess {
        /// Read or write.
        kind: AccessKind,
        /// Accessed address.
        addr: Addr,
        /// Access width in bytes.
        size: u8,
        /// Source location of the access.
        loc: SourceLoc,
        /// Whether the access was performed through an atomic accessor
        /// (`atomic_read()`-style); such accesses are filtered later
        /// (paper Sec. 5.3 item 3).
        atomic: bool,
    },
    /// Function entry (for stack-trace reconstruction).
    FnEnter {
        /// The entered function.
        func: FnId,
    },
    /// Function exit.
    FnExit {
        /// The exited function (must match the enter on top of the shadow
        /// stack).
        func: FnId,
    },
    /// The scheduler switched to another task.
    TaskSwitch {
        /// The task now running.
        task: TaskId,
    },
    /// An interrupt-like context preempted the current control flow.
    ContextEnter {
        /// Softirq or hardirq.
        kind: ContextKind,
    },
    /// The interrupt-like context finished; execution resumes underneath.
    ContextExit {
        /// Must match the most recent unmatched [`Event::ContextEnter`].
        kind: ContextKind,
    },
}

/// An [`Event`] paired with its simulated timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Simulated monotonic time.
    pub ts: Timestamp,
    /// The payload.
    pub event: Event,
}

/// Layout description of one member of an observed data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberDef {
    /// Member name, e.g. `i_state` (union members are pre-unrolled to
    /// distinct names/offsets, paper Sec. 7.1).
    pub name: String,
    /// Byte offset within the struct.
    pub offset: u32,
    /// Size in bytes.
    pub size: u32,
    /// Whether the member is an `atomic_t`-like type (filtered, Sec. 5.3).
    pub atomic: bool,
    /// Whether the member is itself a lock variable (filtered, Sec. 5.3).
    pub is_lock: bool,
}

/// Layout description of an observed data type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataTypeDef {
    /// Type name, e.g. `inode`.
    pub name: String,
    /// Total size in bytes.
    pub size: u32,
    /// Member layout, sorted by offset, non-overlapping.
    pub members: Vec<MemberDef>,
}

impl DataTypeDef {
    /// Resolves a byte offset to the index of the containing member.
    pub fn member_at(&self, offset: u32) -> Option<usize> {
        // Members are sorted by offset; binary search for the candidate.
        let idx = match self.members.binary_search_by_key(&offset, |m| m.offset) {
            Ok(i) => i,
            Err(0) => return None,
            Err(i) => i - 1,
        };
        let m = &self.members[idx];
        (offset >= m.offset && offset < m.offset + m.size).then_some(idx)
    }

    /// Looks up a member index by name.
    pub fn member_named(&self, name: &str) -> Option<usize> {
        self.members.iter().position(|m| m.name == name)
    }
}

/// Static metadata accompanying an event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceMeta {
    /// Interner for all symbols referenced from events.
    pub strings: crate::ids::Interner,
    /// Observed data types, indexed by [`DataTypeId`].
    pub data_types: Vec<DataTypeDef>,
    /// Function names, indexed by [`FnId`].
    pub functions: Vec<String>,
    /// Task names, indexed by [`TaskId`].
    pub tasks: Vec<String>,
}

impl TraceMeta {
    /// Registers a data type, returning its id.
    pub fn add_data_type(&mut self, def: DataTypeDef) -> DataTypeId {
        let id = DataTypeId(self.data_types.len() as u32);
        self.data_types.push(def);
        id
    }

    /// Registers a function name, returning its id.
    pub fn add_function(&mut self, name: &str) -> FnId {
        let id = FnId(self.functions.len() as u32);
        self.functions.push(name.to_owned());
        id
    }

    /// Registers a task name, returning its id.
    pub fn add_task(&mut self, name: &str) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(name.to_owned());
        id
    }

    /// Looks up a data type by name.
    pub fn data_type_named(&self, name: &str) -> Option<DataTypeId> {
        self.data_types
            .iter()
            .position(|d| d.name == name)
            .map(|i| DataTypeId(i as u32))
    }
}

/// A complete trace: metadata plus the timestamped event stream.
///
/// The metadata lives behind an [`Arc`] so that derived artifacts
/// (`TraceDb`, sanitized re-imports, shard merges) share one table
/// instead of deep-copying the interner and type/function/task lists
/// once per consumer. Builders mutate it through [`Trace::meta_mut`],
/// which is a plain field access while the trace is unshared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Static metadata (interner, type layouts, function/task names).
    pub meta: std::sync::Arc<TraceMeta>,
    /// Events ordered by timestamp.
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mutable access to the metadata tables.
    ///
    /// Clones the metadata first if it is currently shared (copy-on-write);
    /// during trace construction the refcount is 1 and this is free.
    pub fn meta_mut(&mut self) -> &mut TraceMeta {
        std::sync::Arc::make_mut(&mut self.meta)
    }

    /// Appends an event with the given timestamp.
    ///
    /// # Panics
    ///
    /// Panics if `ts` is older than the last recorded event (traces are
    /// strictly ordered by time).
    pub fn push(&mut self, ts: Timestamp, event: Event) {
        if let Some(last) = self.events.last() {
            assert!(
                ts >= last.ts,
                "trace timestamps must be monotonic: {} < {}",
                ts,
                last.ts
            );
        }
        self.events.push(TraceEvent { ts, event });
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts events by coarse category `(allocs, frees, lock_ops, accesses)`.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary::default();
        for e in &self.events {
            match &e.event {
                Event::Alloc { .. } => s.allocs += 1,
                Event::Free { .. } => s.frees += 1,
                Event::LockAcquire { .. } | Event::LockRelease { .. } => s.lock_ops += 1,
                Event::MemAccess { .. } => s.mem_accesses += 1,
                Event::LockInit { .. } => s.lock_inits += 1,
                _ => s.other += 1,
            }
        }
        s.total = self.events.len();
        s
    }
}

/// Coarse counts over a trace (paper Sec. 7.2 reports these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total number of events.
    pub total: usize,
    /// Allocation events.
    pub allocs: usize,
    /// Deallocation events.
    pub frees: usize,
    /// Lock acquire + release events.
    pub lock_ops: usize,
    /// Memory access events.
    pub mem_accesses: usize,
    /// Lock registrations.
    pub lock_inits: usize,
    /// Control-flow bookkeeping events.
    pub other: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_type() -> DataTypeDef {
        DataTypeDef {
            name: "toy".into(),
            size: 16,
            members: vec![
                MemberDef {
                    name: "a".into(),
                    offset: 0,
                    size: 4,
                    atomic: false,
                    is_lock: false,
                },
                MemberDef {
                    name: "pad_gap".into(),
                    offset: 8,
                    size: 4,
                    atomic: false,
                    is_lock: false,
                },
            ],
        }
    }

    #[test]
    fn member_at_resolves_offsets() {
        let t = toy_type();
        assert_eq!(t.member_at(0), Some(0));
        assert_eq!(t.member_at(3), Some(0));
        assert_eq!(t.member_at(4), None); // hole between members
        assert_eq!(t.member_at(8), Some(1));
        assert_eq!(t.member_at(11), Some(1));
        assert_eq!(t.member_at(12), None);
        assert_eq!(t.member_at(100), None);
    }

    #[test]
    fn trace_push_enforces_monotonic_time() {
        let mut tr = Trace::new();
        tr.push(1, Event::FnEnter { func: FnId(0) });
        tr.push(1, Event::FnExit { func: FnId(0) });
        tr.push(5, Event::TaskSwitch { task: TaskId(0) });
        assert_eq!(tr.len(), 3);
    }

    #[test]
    #[should_panic(expected = "monotonic")]
    fn trace_push_rejects_time_travel() {
        let mut tr = Trace::new();
        tr.push(5, Event::FnEnter { func: FnId(0) });
        tr.push(4, Event::FnExit { func: FnId(0) });
    }

    #[test]
    fn summary_counts_categories() {
        let mut tr = Trace::new();
        let dt = tr.meta_mut().add_data_type(toy_type());
        tr.push(
            0,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 16,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(
            1,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1000,
                size: 4,
                loc: SourceLoc::new(Sym(0), 1),
                atomic: false,
            },
        );
        tr.push(2, Event::Free { id: AllocId(1) });
        let s = tr.summary();
        assert_eq!(s.allocs, 1);
        assert_eq!(s.frees, 1);
        assert_eq!(s.mem_accesses, 1);
        assert_eq!(s.total, 3);
    }

    #[test]
    fn lock_flavor_properties() {
        assert!(LockFlavor::Rcu.reentrant());
        assert!(!LockFlavor::Spinlock.reentrant());
        assert!(LockFlavor::RwSemaphore.has_reader_side());
        assert!(!LockFlavor::Mutex.has_reader_side());
        assert_eq!(LockFlavor::Spinlock.c_name(), "spinlock_t");
    }
}
