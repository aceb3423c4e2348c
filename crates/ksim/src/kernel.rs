//! The simulated kernel core: address space, lock registry, execution
//! contexts, and the instrumentation API that subsystem code programs
//! against.
//!
//! This plays the role of the paper's instrumented Linux-under-Bochs
//! (Sec. 5.2/6): every allocation, lock operation, and member access of the
//! traced data types is emitted into a [`Trace`]. The simulation is
//! single-core and deterministic: control flows (tasks, softirqs, hardirqs)
//! interleave at operation boundaries and explicit interrupt points, never
//! mid-instruction.

use crate::config::SimConfig;
use crate::coverage::Coverage;
use crate::faults::{FaultLog, InjectedFault};
use crate::lockdep::Lockdep;
use crate::types::{TypeSpec, ALL_TYPES};
use lockdoc_platform::rng::Rng;
use lockdoc_trace::event::{
    AccessKind, AcquireMode, ContextKind, Event, LockFlavor, SourceLoc, Trace,
};
use lockdoc_trace::ids::{AllocId, DataTypeId, FnId, Sym, TaskId};
use std::collections::HashMap;

/// Handle to a traced object (its allocation id).
pub type Obj = AllocId;

/// Names a lock for acquire/release calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lock {
    /// A statically allocated global lock, e.g. `Lock::Global("inode_hash_lock")`.
    Global(&'static str),
    /// A lock embedded in a traced object, e.g. `Lock::Of(inode, "i_lock")`.
    Of(Obj, &'static str),
    /// The global RCU read-side pseudo-lock.
    Rcu,
}

#[derive(Debug, Clone)]
struct ObjInfo {
    addr: u64,
    type_name: &'static str,
    data_type: DataTypeId,
    live: bool,
}

#[derive(Debug, Clone, Copy)]
struct GlobalLock {
    addr: u64,
    flavor: LockFlavor,
}

/// Per-control-flow simulator state (shadow of what the importer will
/// reconstruct; used for sanity checks and fault bookkeeping).
#[derive(Debug, Default, Clone)]
struct FlowShadow {
    /// Held lock addresses with reentrancy counts.
    held: Vec<(u64, LockFlavor, u32)>,
    /// Shadow function stack: (fn id, file sym).
    fn_stack: Vec<(FnId, Sym)>,
}

/// The simulated kernel.
pub struct Kernel {
    /// Run configuration.
    pub cfg: SimConfig,
    trace: Trace,
    ts: u64,
    rng: Rng,
    next_addr: u64,
    next_alloc: u64,
    type_ids: HashMap<&'static str, DataTypeId>,
    type_specs: HashMap<&'static str, &'static TypeSpec>,
    /// (type, member name) -> (offset, size, atomic).
    member_layout: HashMap<(DataTypeId, &'static str), (u32, u32, bool)>,
    objects: HashMap<Obj, ObjInfo>,
    global_locks: HashMap<&'static str, GlobalLock>,
    files: HashMap<&'static str, Sym>,
    fns: HashMap<&'static str, FnId>,
    tasks: Vec<TaskId>,
    cur_task: usize,
    /// Interrupt-nesting stack (empty = task context).
    ctx_stack: Vec<ContextKind>,
    /// Shadow lock/call-stack state per task plus one slot per irq kind.
    task_flows: Vec<FlowShadow>,
    irq_flows: [FlowShadow; 2],
    /// Coverage collection.
    pub coverage: Coverage,
    /// Log of injected faults (the violation oracle).
    pub fault_log: FaultLog,
    /// Class name per lock address (for the lockdep validator).
    lock_classes: HashMap<u64, String>,
    /// The in-situ lock-order validator.
    pub lockdep: Lockdep,
}

impl Kernel {
    /// Boots a kernel: registers all traced types and the worker tasks.
    pub fn new(cfg: SimConfig) -> Self {
        let mut trace = Trace::new();
        let mut type_ids = HashMap::new();
        let mut type_specs = HashMap::new();
        let mut member_layout = HashMap::new();
        for spec in ALL_TYPES {
            let id = trace.meta_mut().add_data_type(spec.to_def());
            type_ids.insert(spec.name, id);
            type_specs.insert(spec.name, *spec);
            let (defs, _) = spec.layout();
            for (i, d) in defs.iter().enumerate() {
                member_layout.insert((id, spec.members[i].name), (d.offset, d.size, d.atomic));
            }
        }
        let ntasks = cfg.tasks.max(1);
        let mut tasks = Vec::new();
        let mut task_flows = Vec::new();
        for i in 0..ntasks {
            let name = match cfg.shard {
                Some(j) => format!("worker-{i}.s{j}"),
                None => format!("worker-{i}"),
            };
            tasks.push(trace.meta_mut().add_task(&name));
            task_flows.push(FlowShadow::default());
        }
        let seed = cfg.seed;
        // Disjoint per-shard address windows (1 TiB each) so shard traces
        // can be concatenated without address collisions.
        let addr_base = 0xffff_8800_0000_0000u64 + cfg.shard.unwrap_or(0) * (1u64 << 40);
        let mut k = Self {
            cfg,
            trace,
            ts: 0,
            rng: Rng::seed_from_u64(seed),
            next_addr: addr_base,
            next_alloc: 1,
            type_ids,
            type_specs,
            member_layout,
            objects: HashMap::new(),
            global_locks: HashMap::new(),
            files: HashMap::new(),
            fns: HashMap::new(),
            tasks,
            cur_task: 0,
            ctx_stack: Vec::new(),
            task_flows,
            irq_flows: [FlowShadow::default(), FlowShadow::default()],
            coverage: Coverage::new(),
            fault_log: FaultLog::default(),
            lock_classes: HashMap::new(),
            lockdep: Lockdep::new(),
        };
        k.emit(Event::TaskSwitch { task: k.tasks[0] });
        // The RCU pseudo-lock is one global, reentrant instance.
        k.register_global_lock("rcu", LockFlavor::Rcu);
        k
    }

    /// Finishes the run and returns the recorded trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Access to the trace built so far (for inspection in tests).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The deterministic RNG (for workloads and subsystems).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Current simulated time.
    pub fn now(&self) -> u64 {
        self.ts
    }

    fn emit(&mut self, e: Event) {
        self.ts += 1;
        self.trace.push(self.ts, e);
    }

    fn flow(&mut self) -> &mut FlowShadow {
        match self.ctx_stack.last() {
            Some(ContextKind::Softirq) => &mut self.irq_flows[0],
            Some(ContextKind::Hardirq) => &mut self.irq_flows[1],
            _ => &mut self.task_flows[self.cur_task],
        }
    }

    /// Interns a source file name.
    pub fn file(&mut self, name: &'static str) -> Sym {
        if let Some(&s) = self.files.get(name) {
            return s;
        }
        let s = self.trace.meta_mut().strings.intern(name);
        self.files.insert(name, s);
        s
    }

    fn loc(&mut self, line: u32) -> SourceLoc {
        let file = self
            .flow_file()
            .unwrap_or_else(|| self.file("fs/unknown.c"));
        SourceLoc::new(file, line)
    }

    fn flow_file(&mut self) -> Option<Sym> {
        match self.ctx_stack.last() {
            Some(ContextKind::Softirq) => self.irq_flows[0].fn_stack.last().map(|&(_, f)| f),
            Some(ContextKind::Hardirq) => self.irq_flows[1].fn_stack.last().map(|&(_, f)| f),
            _ => self.task_flows[self.cur_task]
                .fn_stack
                .last()
                .map(|&(_, f)| f),
        }
    }

    /// Registers a statically allocated global lock.
    pub fn register_global_lock(&mut self, name: &'static str, flavor: LockFlavor) -> u64 {
        if let Some(l) = self.global_locks.get(name) {
            return l.addr;
        }
        let addr = self.next_addr;
        self.next_addr += 64;
        let sym = self.trace.meta_mut().strings.intern(name);
        self.emit(Event::LockInit {
            addr,
            name: sym,
            flavor,
            is_static: true,
        });
        self.global_locks.insert(name, GlobalLock { addr, flavor });
        self.lock_classes.insert(addr, name.to_owned());
        addr
    }

    /// Allocates a traced object and registers its embedded locks.
    ///
    /// # Panics
    ///
    /// Panics if `type_name` was not registered at boot.
    pub fn alloc(&mut self, type_name: &'static str, subclass: Option<&str>) -> Obj {
        let data_type = *self
            .type_ids
            .get(type_name)
            .unwrap_or_else(|| panic!("unknown data type `{type_name}`"));
        let spec = self.type_specs[type_name];
        let def = spec.to_def();
        let addr = self.next_addr;
        self.next_addr += u64::from(def.size) + 64;
        let id = AllocId(self.next_alloc);
        self.next_alloc += 1;
        let subclass_sym = subclass.map(|s| self.trace.meta_mut().strings.intern(s));
        self.emit(Event::Alloc {
            id,
            addr,
            size: def.size,
            data_type,
            subclass: subclass_sym,
        });
        for (idx, offset, flavor) in spec.lock_members() {
            let name = spec.members[idx].name;
            let sym = self.trace.meta_mut().strings.intern(name);
            self.emit(Event::LockInit {
                addr: addr + u64::from(offset),
                name: sym,
                flavor,
                is_static: false,
            });
            self.lock_classes
                .insert(addr + u64::from(offset), format!("{name} in {type_name}"));
        }
        self.objects.insert(
            id,
            ObjInfo {
                addr,
                type_name,
                data_type,
                live: true,
            },
        );
        id
    }

    /// Frees a traced object.
    ///
    /// # Panics
    ///
    /// Panics on double free or unknown object.
    pub fn free(&mut self, obj: Obj) {
        let info = self.objects.get_mut(&obj).expect("free of unknown object");
        assert!(info.live, "double free of {obj:?}");
        info.live = false;
        self.emit(Event::Free { id: obj });
    }

    /// Whether an object is currently live.
    pub fn is_live(&self, obj: Obj) -> bool {
        self.objects.get(&obj).map(|o| o.live).unwrap_or(false)
    }

    fn lock_addr(&mut self, lock: Lock) -> (u64, LockFlavor) {
        match lock {
            Lock::Global(name) => {
                let gl = *self
                    .global_locks
                    .get(name)
                    .unwrap_or_else(|| panic!("unregistered global lock `{name}`"));
                (gl.addr, gl.flavor)
            }
            Lock::Of(obj, member) => {
                let info = self.objects.get(&obj).expect("lock of unknown object");
                assert!(info.live, "lock of freed object {obj:?}");
                let spec = self.type_specs[info.type_name];
                let lm = spec
                    .lock_members()
                    .into_iter()
                    .find(|&(i, _, _)| spec.members[i].name == member)
                    .unwrap_or_else(|| {
                        panic!("`{member}` is not a lock member of {}", info.type_name)
                    });
                (info.addr + u64::from(lm.1), lm.2)
            }
            Lock::Rcu => {
                let gl = self.global_locks["rcu"];
                (gl.addr, gl.flavor)
            }
        }
    }

    /// Acquires a lock in the current control flow.
    ///
    /// # Panics
    ///
    /// Panics on recursive acquisition of a non-reentrant lock — that is a
    /// bug in the simulated subsystem code, not in the analysed system.
    pub fn acquire(&mut self, lock: Lock, mode: AcquireMode, line: u32) {
        let (addr, flavor) = self.lock_addr(lock);
        let loc = self.loc(line);
        // lockdep: validate class order against everything already held by
        // this flow before mutating the shadow state.
        let held_addrs: Vec<u64> = self.flow().held.iter().map(|h| h.0).collect();
        let held_classes: Vec<String> = held_addrs
            .iter()
            .filter_map(|a| self.lock_classes.get(a).cloned())
            .collect();
        if let Some(class) = self.lock_classes.get(&addr).cloned() {
            self.lockdep.on_acquire(&held_classes, &class, loc);
        }
        let flow = self.flow();
        if let Some(entry) = flow.held.iter_mut().find(|h| h.0 == addr) {
            assert!(
                flavor.reentrant(),
                "recursive acquisition of non-reentrant lock {lock:?}"
            );
            entry.2 += 1;
        } else {
            flow.held.push((addr, flavor, 1));
        }
        self.emit(Event::LockAcquire { addr, mode, loc });
    }

    /// Acquires a lock exclusively (writer side).
    pub fn lock(&mut self, lock: Lock, line: u32) {
        self.acquire(lock, AcquireMode::Exclusive, line);
    }

    /// Acquires a lock shared (reader side).
    pub fn lock_shared(&mut self, lock: Lock, line: u32) {
        self.acquire(lock, AcquireMode::Shared, line);
    }

    /// Releases a lock held by the current control flow.
    ///
    /// # Panics
    ///
    /// Panics if the lock is not held — a bug in the simulated code.
    pub fn unlock(&mut self, lock: Lock, line: u32) {
        let (addr, _) = self.lock_addr(lock);
        let loc = self.loc(line);
        let flow = self.flow();
        let pos = flow
            .held
            .iter()
            .rposition(|h| h.0 == addr)
            .unwrap_or_else(|| panic!("release of unheld lock {lock:?}"));
        if flow.held[pos].2 > 1 {
            flow.held[pos].2 -= 1;
        } else {
            flow.held.remove(pos);
        }
        self.emit(Event::LockRelease { addr, loc });
    }

    /// Whether the current flow holds `lock`.
    pub fn holds(&mut self, lock: Lock) -> bool {
        let (addr, _) = self.lock_addr(lock);
        self.flow().held.iter().any(|h| h.0 == addr)
    }

    fn member_access(
        &mut self,
        obj: Obj,
        member: &'static str,
        kind: AccessKind,
        line: u32,
        atomic: bool,
    ) {
        let info = self.objects.get(&obj).expect("access to unknown object");
        assert!(info.live, "use after free of {obj:?} member {member}");
        let key = (info.data_type, member);
        let addr_base = info.addr;
        let type_name = info.type_name;
        let (offset, size, member_atomic) = *self
            .member_layout
            .get(&key)
            .unwrap_or_else(|| panic!("unknown member `{member}` of {type_name}"));
        let loc = self.loc(line);
        self.emit(Event::MemAccess {
            kind,
            addr: addr_base + u64::from(offset),
            size: size.min(255) as u8,
            loc,
            atomic: atomic || member_atomic,
        });
    }

    /// Emits a read of `obj.member`.
    pub fn read(&mut self, obj: Obj, member: &'static str, line: u32) {
        self.member_access(obj, member, AccessKind::Read, line, false);
    }

    /// Emits a write of `obj.member`.
    pub fn write(&mut self, obj: Obj, member: &'static str, line: u32) {
        self.member_access(obj, member, AccessKind::Write, line, false);
    }

    /// Emits a read-modify-write (`x++` style): one read then one write.
    pub fn rmw(&mut self, obj: Obj, member: &'static str, line: u32) {
        self.read(obj, member, line);
        self.write(obj, member, line);
    }

    /// Emits an atomic accessor access (filtered at import, Sec. 5.3).
    pub fn atomic_access(&mut self, obj: Obj, member: &'static str, kind: AccessKind, line: u32) {
        self.member_access(obj, member, kind, line, true);
    }

    /// Runs `body` inside function `name` (declared in `file`), maintaining
    /// the shadow call stack, the `FnEnter`/`FnExit` events, and coverage.
    pub fn in_fn<R>(
        &mut self,
        name: &'static str,
        file: &'static str,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let func = match self.fns.get(name) {
            Some(&f) => f,
            None => {
                let f = self.trace.meta_mut().add_function(name);
                self.fns.insert(name, f);
                f
            }
        };
        let file_sym = self.file(file);
        self.coverage.hit(name);
        self.emit(Event::FnEnter { func });
        self.flow().fn_stack.push((func, file_sym));
        let r = body(self);
        self.flow().fn_stack.pop();
        self.emit(Event::FnExit { func });
        r
    }

    /// Switches the scheduler to worker task `i` (modulo the task count).
    pub fn switch_task(&mut self, i: usize) {
        assert!(
            self.ctx_stack.is_empty(),
            "task switch inside interrupt context"
        );
        let idx = i % self.tasks.len();
        if idx != self.cur_task {
            self.cur_task = idx;
            self.emit(Event::TaskSwitch {
                task: self.tasks[idx],
            });
        }
    }

    /// Index of the currently running task.
    pub fn current_task(&self) -> usize {
        self.cur_task
    }

    /// Name of the currently running task.
    pub fn current_task_name(&self) -> String {
        self.trace.meta.tasks[self.tasks[self.cur_task].index()].clone()
    }

    /// Runs `body` in an interrupt-like context nested on the current flow.
    ///
    /// The synthetic `softirq`/`hardirq` pseudo-lock is acquired for the
    /// span, as the paper records for bottom-half/irq-disabled regions.
    pub fn in_irq<R>(&mut self, kind: ContextKind, body: impl FnOnce(&mut Self) -> R) -> R {
        assert!(kind != ContextKind::Task);
        let pseudo = match kind {
            ContextKind::Softirq => "softirq",
            ContextKind::Hardirq => "hardirq",
            ContextKind::Task => unreachable!(),
        };
        let flavor = match kind {
            ContextKind::Softirq => LockFlavor::Softirq,
            ContextKind::Hardirq => LockFlavor::Hardirq,
            ContextKind::Task => unreachable!(),
        };
        self.register_global_lock(pseudo, flavor);
        self.emit(Event::ContextEnter { kind });
        self.ctx_stack.push(kind);
        self.acquire(Lock::Global(pseudo), AcquireMode::Exclusive, 1);
        let r = body(self);
        self.unlock(Lock::Global(pseudo), 2);
        self.ctx_stack.pop();
        self.emit(Event::ContextExit { kind });
        r
    }

    /// Whether the current control flow is in interrupt context.
    pub fn in_interrupt(&self) -> bool {
        !self.ctx_stack.is_empty()
    }

    /// Draws a fault-injection decision for `site`; returns `true` when the
    /// faulty path must be taken, and logs it for the oracle.
    pub fn should_inject(&mut self, site: &str) -> bool {
        let Some(spec) = self.cfg.fault_plan.spec(site) else {
            return false;
        };
        if self.rng.gen_bool(spec.rate.clamp(0.0, 1.0)) {
            let record = InjectedFault {
                site: site.to_owned(),
                ts: self.ts,
                task: self.current_task_name(),
            };
            self.fault_log.injected.push(record);
            true
        } else {
            false
        }
    }

    /// Bernoulli draw from the simulation RNG.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.rng.gen_bool(p.clamp(0.0, 1.0))
    }

    /// Uniform draw in `0..n`.
    pub fn pick(&mut self, n: usize) -> usize {
        assert!(n > 0);
        self.rng.gen_range(0..n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel() -> Kernel {
        Kernel::new(SimConfig::with_seed(42).without_irqs())
    }

    #[test]
    fn alloc_registers_embedded_locks() {
        let mut k = kernel();
        let inode = k.alloc("inode", Some("ext4"));
        assert!(k.is_live(inode));
        let summary = k.trace().summary();
        // rcu + i_lock + i_rwsem registered.
        assert_eq!(summary.lock_inits, 3);
        assert_eq!(summary.allocs, 1);
    }

    #[test]
    fn lock_unlock_round_trip() {
        let mut k = kernel();
        let inode = k.alloc("inode", Some("ext4"));
        k.in_fn("test_fn", "fs/test.c", |k| {
            k.lock(Lock::Of(inode, "i_lock"), 10);
            assert!(k.holds(Lock::Of(inode, "i_lock")));
            k.write(inode, "i_state", 11);
            k.unlock(Lock::Of(inode, "i_lock"), 12);
            assert!(!k.holds(Lock::Of(inode, "i_lock")));
        });
        assert_eq!(k.trace().summary().lock_ops, 2);
    }

    #[test]
    #[should_panic(expected = "recursive acquisition")]
    fn double_spinlock_acquire_panics() {
        let mut k = kernel();
        let inode = k.alloc("inode", None);
        k.lock(Lock::Of(inode, "i_lock"), 1);
        k.lock(Lock::Of(inode, "i_lock"), 2);
    }

    #[test]
    fn rcu_is_reentrant() {
        let mut k = kernel();
        k.lock_shared(Lock::Rcu, 1);
        k.lock_shared(Lock::Rcu, 2);
        k.unlock(Lock::Rcu, 3);
        assert!(k.holds(Lock::Rcu));
        k.unlock(Lock::Rcu, 4);
        assert!(!k.holds(Lock::Rcu));
    }

    #[test]
    #[should_panic(expected = "use after free")]
    fn access_after_free_panics() {
        let mut k = kernel();
        let inode = k.alloc("inode", None);
        k.free(inode);
        k.read(inode, "i_state", 1);
    }

    #[test]
    fn irq_context_has_its_own_lock_state() {
        let mut k = kernel();
        let inode = k.alloc("inode", Some("ext4"));
        k.lock(Lock::Of(inode, "i_lock"), 1);
        k.in_irq(ContextKind::Hardirq, |k| {
            // The irq flow does not hold the task's i_lock.
            assert!(!k.holds(Lock::Of(inode, "i_lock")));
            assert!(k.in_interrupt());
        });
        assert!(k.holds(Lock::Of(inode, "i_lock")));
        k.unlock(Lock::Of(inode, "i_lock"), 2);
    }

    #[test]
    fn task_switch_emits_event_only_on_change() {
        let mut k = kernel();
        let before = k.trace().len();
        k.switch_task(0); // already current
        assert_eq!(k.trace().len(), before);
        k.switch_task(1);
        assert_eq!(k.trace().len(), before + 1);
    }

    #[test]
    fn fault_injection_honours_plan_and_logs() {
        let plan = crate::faults::FaultPlan::none().enable("site_a", 1.0);
        let mut k = Kernel::new(SimConfig::with_seed(1).without_irqs().with_faults(plan));
        assert!(k.should_inject("site_a"));
        assert!(!k.should_inject("unknown_site"));
        assert_eq!(k.fault_log.count("site_a"), 1);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let build = || {
            let mut k = Kernel::new(SimConfig::with_seed(7).without_irqs());
            let inode = k.alloc("inode", Some("tmpfs"));
            for i in 0..10 {
                if k.chance(0.5) {
                    k.lock(Lock::Of(inode, "i_lock"), i);
                    k.write(inode, "i_state", i);
                    k.unlock(Lock::Of(inode, "i_lock"), i);
                }
            }
            k.into_trace()
        };
        assert_eq!(build(), build());
    }
}
