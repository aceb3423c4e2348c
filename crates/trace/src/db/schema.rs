//! Row types of the relational trace store, mirroring the paper's Fig. 6
//! database schema: `accesses`, `allocations`, `data_types` (+ member
//! layouts), `locks`, `txns` (+ held-lock join), `stack_traces`, and
//! `subclasses`.

use crate::event::{AccessKind, AcquireMode, ContextKind, LockFlavor, SourceLoc};
use crate::ids::{Addr, AllocId, DataTypeId, LockId, StackId, Sym, TaskId, Timestamp, TxnId};

/// One observed allocation of a traced data structure (paper table
/// `allocations`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allocation {
    /// Stable id from the trace.
    pub id: AllocId,
    /// Start address.
    pub addr: Addr,
    /// Size in bytes.
    pub size: u32,
    /// The allocated type.
    pub data_type: DataTypeId,
    /// Subclass discriminator, e.g. the filesystem backing an inode
    /// (paper table `subclasses`).
    pub subclass: Option<Sym>,
    /// Allocation time.
    pub alloc_ts: Timestamp,
    /// Deallocation time, if observed.
    pub free_ts: Option<Timestamp>,
}

impl Allocation {
    /// Whether `addr` lies inside this allocation. The range end saturates
    /// so a hostile `addr + size` wrapping the address space cannot panic.
    pub fn contains(&self, addr: Addr) -> bool {
        addr >= self.addr && addr < self.addr.saturating_add(u64::from(self.size))
    }
}

/// One lock instance (paper table `locks`). A lock is either statically
/// allocated (a global like `inode_hash_lock`) or embedded in an observed
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockInstance {
    /// Dense store id.
    pub id: LockId,
    /// The lock variable's address.
    pub addr: Addr,
    /// Interned variable name (e.g. `i_lock`).
    pub name: Sym,
    /// Primitive kind.
    pub flavor: LockFlavor,
    /// Whether the lock is statically allocated.
    pub is_static: bool,
    /// For embedded locks: the containing allocation and the byte offset of
    /// the lock within it (paper: "each lock may be embedded in an
    /// allocation").
    pub embedded_in: Option<(AllocId, u32)>,
}

/// One lock held by a transaction, in acquisition order (join table between
/// `txns` and `locks` in the paper's schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeldLock {
    /// The held lock.
    pub lock: LockId,
    /// Reader or writer side.
    pub mode: AcquireMode,
    /// Where the acquisition happened.
    pub acquired_at: SourceLoc,
    /// When the acquisition happened.
    pub acquired_ts: Timestamp,
}

/// A transaction: a maximal span of one control flow during which the set of
/// held locks is constant (paper Sec. 4.2, table `txns`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Txn {
    /// Dense store id.
    pub id: TxnId,
    /// The control flow the transaction belongs to.
    pub flow: FlowKey,
    /// Held locks in acquisition order.
    pub locks: Vec<HeldLock>,
    /// First event time inside the span.
    pub start_ts: Timestamp,
    /// Last event time inside the span.
    pub end_ts: Timestamp,
}

/// Identifies a control flow: an ordinary task, or an interrupt-like context
/// (which has its own lock state, since it preempts tasks on the single
/// simulated CPU rather than sharing their critical sections).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FlowKey {
    /// An ordinary task.
    Task(TaskId),
    /// A softirq/hardirq context (one flow per kind; they are serialized on
    /// the single simulated CPU).
    Irq(u8),
}

impl FlowKey {
    /// Flow key for an interrupt-like context kind.
    pub fn irq(kind: ContextKind) -> Self {
        match kind {
            ContextKind::Task => unreachable!("task context is keyed by TaskId"),
            ContextKind::Softirq => FlowKey::Irq(0),
            ContextKind::Hardirq => FlowKey::Irq(1),
        }
    }
}

/// One memory access (the central `accesses` table of the paper's schema).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Dense row id (position in the access table).
    pub id: u64,
    /// Event timestamp.
    pub ts: Timestamp,
    /// Read or write.
    pub kind: AccessKind,
    /// Accessed allocation.
    pub alloc: AllocId,
    /// The type of the accessed allocation (denormalized for query speed).
    pub data_type: DataTypeId,
    /// Subclass of the accessed allocation (denormalized).
    pub subclass: Option<Sym>,
    /// Index of the accessed member within the type layout.
    pub member: u32,
    /// Access width in bytes.
    pub size: u8,
    /// Source location of the access.
    pub loc: SourceLoc,
    /// Enclosing transaction, if any lock was held.
    pub txn: Option<TxnId>,
    /// Call stack at the time of the access.
    pub stack: StackId,
    /// The control flow that performed the access.
    pub flow: FlowKey,
    /// Execution context kind.
    pub context: ContextKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_contains_checks_range() {
        let a = Allocation {
            id: AllocId(1),
            addr: 0x1000,
            size: 0x40,
            data_type: DataTypeId(0),
            subclass: None,
            alloc_ts: 0,
            free_ts: None,
        };
        assert!(a.contains(0x1000));
        assert!(a.contains(0x103f));
        assert!(!a.contains(0x1040));
        assert!(!a.contains(0xfff));
    }

    #[test]
    fn flow_key_for_irq_kinds() {
        assert_eq!(FlowKey::irq(ContextKind::Softirq), FlowKey::Irq(0));
        assert_eq!(FlowKey::irq(ContextKind::Hardirq), FlowKey::Irq(1));
    }
}
