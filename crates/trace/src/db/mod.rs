//! The relational trace store (paper Fig. 6) and its query API.
//!
//! The paper loads post-processed traces into MariaDB; we keep the same
//! logical schema in an embedded, in-memory store. All LockDoc analyses
//! (rule derivation, checking, violation finding) run against [`TraceDb`].

pub mod archive;
pub mod columns;
pub mod csv;
pub mod import;
pub mod resilient;
pub mod schema;

pub use archive::{filter_fingerprint, read_archive, write_archive};
pub use columns::{AccessTable, StackTable, TxnTable, TxnView};
pub use csv::CsvTable;
pub use import::{import, import_stream, ingest, ImportStats, IngestOptions, Ingested};
/// Re-exported at its old path, where the benchmark crate imports it.
pub use lockdoc_platform::hash::fnv1a;
pub use resilient::{
    import_resilient, ImportError, ImportPolicy, ImportReport, QuarantineClass, QuarantineEntry,
    ResilientConfig,
};
pub use schema::{Access, Allocation, FlowKey, HeldLock, LockInstance, Txn};

use crate::event::{DataTypeDef, SourceLoc, TraceMeta};
use crate::ids::{DataTypeId, FnId, LockId, StackId, Sym, TxnId};
use std::collections::BTreeSet;

/// The imported, queryable form of a trace.
///
/// Equality is structural over every table and counter; the identity
/// contracts of the import paths (streamed, resilient on a clean trace,
/// reloaded from an archive) are stated in terms of it.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceDb {
    /// Static metadata shared with the source trace (no deep copy: the
    /// interner and type/function/task tables are refcounted).
    pub meta: std::sync::Arc<TraceMeta>,
    /// All observed allocations (live and freed), sorted by their unique
    /// id.
    pub allocations: Vec<Allocation>,
    /// All registered lock instances.
    pub locks: Vec<LockInstance>,
    /// All materialized transactions (columnar; held-lock lists live in a
    /// shared arena).
    pub txns: TxnTable,
    /// The central access table (columnar struct-of-arrays); each row
    /// names its allocation and transaction by row. [`TraceDb::access`]
    /// joins a row into an [`Access`] value.
    pub accesses: AccessTable,
    /// Deduplicated stack traces (columnar; frames live in a shared
    /// arena).
    pub stacks: StackTable,
    /// Import statistics.
    pub stats: ImportStats,
}

impl TraceDb {
    /// Resolves an interned symbol.
    pub fn sym(&self, s: Sym) -> &str {
        self.meta.strings.resolve(s)
    }

    /// The layout definition of a data type.
    pub fn data_type(&self, id: DataTypeId) -> &DataTypeDef {
        &self.meta.data_types[id.index()]
    }

    /// The name of a data type.
    pub fn type_name(&self, id: DataTypeId) -> &str {
        &self.data_type(id).name
    }

    /// The name of a member of a data type.
    pub fn member_name(&self, id: DataTypeId, member: u32) -> &str {
        &self.data_type(id).members[member as usize].name
    }

    /// The name of a function.
    pub fn fn_name(&self, f: FnId) -> &str {
        &self.meta.functions[f.index()]
    }

    /// A transaction by id.
    pub fn txn(&self, id: TxnId) -> TxnView<'_> {
        self.txns.get(id.0 as usize)
    }

    /// A lock instance by id.
    pub fn lock(&self, id: LockId) -> &LockInstance {
        &self.locks[id.index()]
    }

    /// The frames of a stack trace by id, outermost to innermost.
    pub fn stack(&self, id: StackId) -> &[FnId] {
        self.stacks.frames(id)
    }

    /// The row of an allocation in [`TraceDb::allocations`] by id: one
    /// binary search, since the table is sorted by id (ids are assigned
    /// by the tracer and may be sparse).
    pub fn allocation_row(&self, id: crate::ids::AllocId) -> Option<usize> {
        self.allocations.binary_search_by_key(&id, |a| a.id).ok()
    }

    /// An allocation by id (see [`TraceDb::allocation_row`]).
    pub fn allocation(&self, id: crate::ids::AllocId) -> Option<&Allocation> {
        self.allocation_row(id).map(|i| &self.allocations[i])
    }

    /// Access `i` as an [`Access`] row value: the access table's row
    /// joined with its allocation (id, type, subclass) and its
    /// transaction (flow, and the flow's context).
    ///
    /// # Panics
    /// If `i` is out of bounds.
    pub fn access(&self, i: usize) -> Access {
        let t = &self.accesses;
        let alloc = &self.allocations[t.alloc[i] as usize];
        let txn = t.txn(i);
        let flow = self.txns.flow(txn);
        Access {
            id: i as u64,
            ts: t.ts[i],
            kind: t.kind[i],
            alloc: alloc.id,
            data_type: alloc.data_type,
            subclass: alloc.subclass,
            member: t.member[i],
            size: t.size[i],
            loc: SourceLoc::new(t.loc_file[i], t.loc_line[i]),
            txn,
            stack: t.stack[i],
            flow,
            context: flow.context(),
        }
    }

    /// Iterates over all accesses as [`Access`] values in id order.
    pub fn iter_accesses(&self) -> impl Iterator<Item = Access> + '_ {
        (0..self.accesses.len()).map(|i| self.access(i))
    }

    /// All distinct observation groups `(data type, subclass)` that have at
    /// least one imported access, in deterministic order.
    ///
    /// Subclassed types (paper Sec. 5.3: `struct inode` per filesystem) are
    /// derived per subclass; unsubclassed types form a single group with
    /// `subclass = None`.
    pub fn observation_groups(&self) -> Vec<(DataTypeId, Option<Sym>)> {
        let set: BTreeSet<(DataTypeId, Option<Sym>)> = self
            .iter_accesses()
            .map(|a| (a.data_type, a.subclass))
            .collect();
        set.into_iter().collect()
    }

    /// Human-readable name of an observation group, e.g. `inode:ext4`.
    pub fn group_name(&self, group: (DataTypeId, Option<Sym>)) -> String {
        match group.1 {
            Some(sub) => format!("{}:{}", self.type_name(group.0), self.sym(sub)),
            None => self.type_name(group.0).to_owned(),
        }
    }

    /// Iterates over accesses belonging to one observation group.
    ///
    /// Rows are joined by value ([`TraceDb::access`]; [`Access`] is
    /// `Copy`).
    pub fn group_accesses(
        &self,
        group: (DataTypeId, Option<Sym>),
    ) -> impl Iterator<Item = Access> + '_ {
        self.iter_accesses()
            .filter(move |a| a.data_type == group.0 && a.subclass == group.1)
    }

    /// Renders a stack trace as `outer -> ... -> inner`.
    pub fn format_stack(&self, id: StackId) -> String {
        let frames = self.stack(id);
        let mut out = String::new();
        for (i, f) in frames.iter().enumerate() {
            if i > 0 {
                out.push_str(" -> ");
            }
            out.push_str(self.fn_name(*f));
        }
        if out.is_empty() {
            out.push_str("<empty>");
        }
        out
    }

    /// Renders a source location as `file:line`.
    pub fn format_loc(&self, loc: crate::event::SourceLoc) -> String {
        format!("{}:{}", self.sym(loc.file), loc.line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{
        AccessKind, AcquireMode, ContextKind, Event, LockFlavor, MemberDef, SourceLoc, Trace,
    };
    use crate::filter::FilterConfig;
    use crate::ids::{AllocId, TaskId};

    /// Builds a small trace exercising nesting, reentrancy, contexts and
    /// filtering, roughly following the paper's Fig. 4 clock example.
    fn build_trace() -> Trace {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("clock.c");
        let sec_lock = tr.meta_mut().strings.intern("sec_lock");
        let min_lock = tr.meta_mut().strings.intern("min_lock");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "clock".into(),
            size: 24,
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
                MemberDef {
                    name: "refcount".into(),
                    offset: 8,
                    size: 4,
                    atomic: true,
                    is_lock: false,
                },
            ],
        });
        let init_fn = tr.meta_mut().add_function("clock_init");
        let tick_fn = tr.meta_mut().add_function("clock_tick");
        let task = tr.meta_mut().add_task("ticker");

        let loc = |line| SourceLoc::new(file, line);
        let mut ts = 0u64;
        let mut t = |tr: &mut Trace, e: Event| {
            ts += 1;
            tr.push(ts, e);
        };

        t(&mut tr, Event::TaskSwitch { task });
        t(
            &mut tr,
            Event::LockInit {
                addr: 0x100,
                name: sec_lock,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
        t(
            &mut tr,
            Event::LockInit {
                addr: 0x200,
                name: min_lock,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
        t(
            &mut tr,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 24,
                data_type: dt,
                subclass: None,
            },
        );
        // Init-context write (should be filtered).
        t(&mut tr, Event::FnEnter { func: init_fn });
        t(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 4,
                loc: loc(5),
                atomic: false,
            },
        );
        t(&mut tr, Event::FnExit { func: init_fn });

        // Nested critical sections: sec_lock -> min_lock.
        t(&mut tr, Event::FnEnter { func: tick_fn });
        t(
            &mut tr,
            Event::LockAcquire {
                addr: 0x100,
                mode: AcquireMode::Exclusive,
                loc: loc(10),
            },
        );
        t(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 4,
                loc: loc(11),
                atomic: false,
            },
        );
        t(
            &mut tr,
            Event::LockAcquire {
                addr: 0x200,
                mode: AcquireMode::Exclusive,
                loc: loc(12),
            },
        );
        t(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1004,
                size: 4,
                loc: loc(13),
                atomic: false,
            },
        );
        t(
            &mut tr,
            Event::LockRelease {
                addr: 0x200,
                loc: loc(14),
            },
        );
        // Back in the outer transaction.
        t(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1000,
                size: 4,
                loc: loc(15),
                atomic: false,
            },
        );
        t(
            &mut tr,
            Event::LockRelease {
                addr: 0x100,
                loc: loc(16),
            },
        );
        // Atomic access (filtered).
        t(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1008,
                size: 4,
                loc: loc(17),
                atomic: true,
            },
        );
        // Lock-free read outside any txn.
        t(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1004,
                size: 4,
                loc: loc(18),
                atomic: false,
            },
        );
        t(&mut tr, Event::FnExit { func: tick_fn });
        t(&mut tr, Event::Free { id: AllocId(1) });
        tr
    }

    fn config() -> FilterConfig {
        let mut cfg = FilterConfig::with_defaults();
        cfg.add_init_teardown("clock", "clock_init");
        cfg
    }

    #[test]
    fn import_builds_transactions_with_nesting() {
        let db = import(&build_trace(), &config(), 1);
        // Four materialized txns: [sec], [sec,min], [sec] again, and the
        // empty-set span of the final lock-free read.
        assert_eq!(db.txns.len(), 4);
        assert_eq!(db.txns.get(0).locks.len(), 1);
        assert_eq!(db.txns.get(1).locks.len(), 2);
        assert_eq!(db.txns.get(2).locks.len(), 1);
        assert_eq!(db.txns.get(3).locks.len(), 0);
        // Acquisition order in the nested txn is sec_lock -> min_lock.
        let names: Vec<&str> = db
            .txns
            .get(1)
            .locks
            .iter()
            .map(|h| db.sym(db.lock(h.lock).name))
            .collect();
        assert_eq!(names, vec!["sec_lock", "min_lock"]);
    }

    #[test]
    fn import_applies_filters() {
        let db = import(&build_trace(), &config(), 1);
        // 6 accesses seen; init write, atomic member read filtered; 4 left.
        assert_eq!(db.stats.accesses_seen, 6);
        assert_eq!(db.stats.accesses_imported, 4);
        assert_eq!(db.stats.total_filtered(), 2);
    }

    #[test]
    fn accesses_are_assigned_to_innermost_txn() {
        let db = import(&build_trace(), &config(), 1);
        let member_of = |a: &Access| db.member_name(a.data_type, a.member).to_owned();
        let seconds: Vec<Access> = db
            .iter_accesses()
            .filter(|a| member_of(a) == "seconds")
            .collect();
        assert_eq!(seconds.len(), 2);
        assert_eq!(seconds[0].txn, TxnId(0));
        assert_eq!(seconds[1].txn, TxnId(2));
        let minutes: Vec<Access> = db
            .iter_accesses()
            .filter(|a| member_of(a) == "minutes")
            .collect();
        assert_eq!(minutes.len(), 2);
        assert_eq!(minutes[0].txn, TxnId(1));
        // The lock-free read gets an empty-set transaction of its own.
        let free_txn = db.txn(minutes[1].txn);
        assert!(free_txn.locks.is_empty());
    }

    /// `TraceDb::access` joins each narrow access row with its
    /// allocation and transaction: id, type and subclass come from the
    /// allocation row (which the id sort moved), flow from the
    /// transaction and context from the flow.
    #[test]
    fn access_joins_allocation_and_transaction_rows() {
        use crate::event::AccessKind::{Read, Write};
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("j.c");
        let lock = tr.meta_mut().strings.intern("l");
        let sub = tr.meta_mut().strings.intern("ext4");
        let member = |name: &str, offset| MemberDef {
            name: name.into(),
            offset,
            size: 4,
            atomic: false,
            is_lock: false,
        };
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 8,
            members: vec![member("a", 0), member("b", 4)],
        });
        let task = tr.meta_mut().add_task("t");
        let loc = |line| SourceLoc::new(file, line);
        let access = |kind, addr, line| Event::MemAccess {
            kind,
            addr,
            size: 4,
            loc: loc(line),
            atomic: false,
        };
        let (softirq, hardirq) = (ContextKind::Softirq, ContextKind::Hardirq);
        let events = [
            Event::TaskSwitch { task },
            Event::LockInit {
                addr: 0x10,
                name: lock,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
            // Ids descend in event order, so sorting by id moves rows.
            Event::Alloc {
                id: AllocId(9),
                addr: 0x1000,
                size: 8,
                data_type: dt,
                subclass: Some(sub),
            },
            Event::Alloc {
                id: AllocId(4),
                addr: 0x2000,
                size: 8,
                data_type: dt,
                subclass: None,
            },
            Event::LockAcquire {
                addr: 0x10,
                mode: AcquireMode::Exclusive,
                loc: loc(1),
            },
            access(Write, 0x1004, 2),
            Event::ContextEnter { kind: softirq },
            access(Read, 0x2000, 3),
            Event::ContextEnter { kind: hardirq },
            access(Write, 0x1000, 4),
            Event::ContextExit { kind: hardirq },
            Event::ContextExit { kind: softirq },
            Event::LockRelease {
                addr: 0x10,
                loc: loc(5),
            },
            access(Read, 0x2004, 6),
        ];
        for (ts, e) in events.into_iter().enumerate() {
            tr.push(ts as u64, e);
        }
        let db = import(&tr, &FilterConfig::with_defaults(), 1);
        let ids: Vec<AllocId> = db.allocations.iter().map(|a| a.id).collect();
        assert_eq!(ids, [AllocId(4), AllocId(9)]);
        let (task_flow, task_ctx) = (FlowKey::Task(task), ContextKind::Task);
        let want = [
            (5, Write, 9, Some(sub), 1, 2, 0, task_flow, task_ctx),
            (7, Read, 4, None, 0, 3, 1, FlowKey::Irq(0), softirq),
            (9, Write, 9, Some(sub), 0, 4, 2, FlowKey::Irq(1), hardirq),
            (13, Read, 4, None, 1, 6, 3, task_flow, task_ctx),
        ];
        assert_eq!(db.accesses.len(), want.len());
        for (i, (ts, kind, alloc, subclass, member, line, txn, flow, context)) in
            want.into_iter().enumerate()
        {
            let expected = Access {
                id: i as u64,
                ts,
                kind,
                alloc: AllocId(alloc),
                data_type: dt,
                subclass,
                member,
                size: 4,
                loc: loc(line),
                txn: TxnId(txn),
                stack: StackId(0),
                flow,
                context,
            };
            assert_eq!(db.access(i), expected, "access {i}");
            assert_eq!(db.accesses.alloc_row(i), u32::from(alloc == 9));
            assert_eq!(db.txns.flow(db.accesses.txn(i)), flow);
        }
        assert_eq!(db.iter_accesses().count(), 4);
        assert_eq!(db.observation_groups(), [(dt, None), (dt, Some(sub))]);
        let subclassed: Vec<u64> = db.group_accesses((dt, Some(sub))).map(|a| a.id).collect();
        assert_eq!(subclassed, [0, 2]);
    }

    #[test]
    fn observation_groups_and_names() {
        let db = import(&build_trace(), &config(), 1);
        let groups = db.observation_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(db.group_name(groups[0]), "clock");
        assert_eq!(db.group_accesses(groups[0]).count(), 4);
    }

    #[test]
    fn stacks_are_deduplicated() {
        let db = import(&build_trace(), &config(), 1);
        // All imported accesses happen inside clock_tick.
        assert_eq!(db.stacks.len(), 1);
        assert_eq!(db.format_stack(StackId(0)), "clock_tick");
    }

    #[test]
    fn csv_export_emits_all_tables() {
        let db = import(&build_trace(), &config(), 1);
        let tables = db.export_csv_tables();
        let names: Vec<&str> = tables.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["allocations", "locks", "txns", "accesses"]);
        for (_, csv) in &tables {
            assert!(csv.lines().count() >= 2, "table must have header + rows");
        }
    }

    #[test]
    fn irq_context_gets_its_own_flow() {
        let mut tr = build_trace();
        let file = tr.meta_mut().strings.intern("irq.c");
        let dt = DataTypeId(0);
        let last_ts = tr.events.last().unwrap().ts;
        // Re-allocate, then touch the object from hardirq context with no
        // locks held by the irq flow.
        tr.push(
            last_ts + 1,
            Event::Alloc {
                id: AllocId(2),
                addr: 0x2000,
                size: 24,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(
            last_ts + 2,
            Event::LockAcquire {
                addr: 0x100,
                mode: AcquireMode::Exclusive,
                loc: SourceLoc::new(file, 1),
            },
        );
        tr.push(
            last_ts + 3,
            Event::ContextEnter {
                kind: ContextKind::Hardirq,
            },
        );
        tr.push(
            last_ts + 4,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x2000,
                size: 4,
                loc: SourceLoc::new(file, 2),
                atomic: false,
            },
        );
        tr.push(
            last_ts + 5,
            Event::ContextExit {
                kind: ContextKind::Hardirq,
            },
        );
        tr.push(
            last_ts + 6,
            Event::LockRelease {
                addr: 0x100,
                loc: SourceLoc::new(file, 3),
            },
        );
        let db = import(&tr, &config(), 1);
        let irq_access = db
            .iter_accesses()
            .find(|a| a.context == ContextKind::Hardirq)
            .expect("irq access imported");
        // The task's sec_lock does not leak into the irq flow: the irq
        // access lands in an empty-set transaction.
        assert!(db.txn(irq_access.txn).locks.is_empty());
        assert_eq!(irq_access.flow, FlowKey::Irq(1));
    }

    #[test]
    fn unmatched_release_is_counted_not_fatal() {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("x.c");
        let name = tr.meta_mut().strings.intern("l");
        tr.meta_mut().add_task("t");
        tr.push(
            0,
            Event::LockInit {
                addr: 0x10,
                name,
                flavor: LockFlavor::Mutex,
                is_static: true,
            },
        );
        tr.push(1, Event::TaskSwitch { task: TaskId(0) });
        tr.push(
            2,
            Event::LockRelease {
                addr: 0x10,
                loc: SourceLoc::new(file, 1),
            },
        );
        let db = import(&tr, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.unmatched_releases, 1);
    }

    #[test]
    fn rcu_reentrancy_keeps_single_held_entry() {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("rcu.c");
        let rcu = tr.meta_mut().strings.intern("rcu");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 8,
            members: vec![MemberDef {
                name: "val".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        tr.meta_mut().add_task("t");
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
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 8,
                data_type: dt,
                subclass: None,
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
        tr.push(
            4,
            Event::LockAcquire {
                addr: 0x10,
                mode: AcquireMode::Shared,
                loc,
            },
        );
        tr.push(
            5,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1000,
                size: 8,
                loc,
                atomic: false,
            },
        );
        tr.push(6, Event::LockRelease { addr: 0x10, loc });
        tr.push(
            7,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1000,
                size: 8,
                loc,
                atomic: false,
            },
        );
        tr.push(8, Event::LockRelease { addr: 0x10, loc });
        let db = import(&tr, &FilterConfig::with_defaults(), 1);
        // One txn spanning both accesses: the nested rcu_read_lock does not
        // change the held set.
        assert_eq!(db.txns.len(), 1);
        assert_eq!(db.txns.get(0).locks.len(), 1);
        assert_eq!(db.accesses.len(), 2);
        assert!(db.iter_accesses().all(|a| a.txn == TxnId(0)));
        assert_eq!(db.stats.unmatched_releases, 0);
    }

    #[test]
    fn reused_address_resolves_per_allocation_across_flows() {
        // A free/realloc at a reused address, a softirq access to the new
        // allocation, and an access after its free.
        let mut tr = build_trace();
        let file = tr.meta_mut().strings.intern("irq.c");
        let dt = DataTypeId(0);
        let base = tr.events.last().unwrap().ts;
        tr.push(
            base + 1,
            Event::Alloc {
                id: AllocId(2),
                addr: 0x1000, // same address as the freed AllocId(1)
                size: 24,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(
            base + 2,
            Event::ContextEnter {
                kind: ContextKind::Softirq,
            },
        );
        tr.push(
            base + 3,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 4,
                loc: SourceLoc::new(file, 2),
                atomic: false,
            },
        );
        tr.push(
            base + 4,
            Event::ContextExit {
                kind: ContextKind::Softirq,
            },
        );
        tr.push(base + 5, Event::Free { id: AllocId(2) });
        // Access after the free: unresolved.
        tr.push(
            base + 6,
            Event::MemAccess {
                kind: AccessKind::Read,
                addr: 0x1000,
                size: 4,
                loc: SourceLoc::new(file, 3),
                atomic: false,
            },
        );
        let db = import(&tr, &config(), 1);
        assert_eq!(db.stats.accesses_seen, 8);
        assert_eq!(db.stats.accesses_imported, 5);
        assert_eq!(db.stats.unresolved, 1);
        assert_eq!(db.stats.allocs, 2);
        assert_eq!(db.stats.frees, 2);
        assert_eq!(db.allocations.len(), 2);
        assert!(db.allocations.iter().all(|a| a.free_ts.is_some()));
        // The softirq access is the fifth row: it resolves to the new
        // allocation, in its own flow, in a fresh empty-set txn, under the
        // softirq flow's empty stack.
        assert_eq!(db.txns.len(), 5);
        assert_eq!(db.stacks.len(), 2);
        let irq = db.access(4);
        assert_eq!(irq.alloc, AllocId(2));
        assert_eq!(irq.flow, FlowKey::Irq(0));
        assert_eq!(irq.context, ContextKind::Softirq);
        assert_eq!(irq.txn, TxnId(4));
        assert!(db.txn(TxnId(4)).locks.is_empty());
        assert_eq!(db.format_stack(irq.stack), "<empty>");
        assert_eq!(
            db.iter_accesses()
                .filter(|a| a.flow == FlowKey::Irq(0))
                .count(),
            1
        );
    }

    #[test]
    fn csv_export_format_is_stable() {
        // Pins the row format of every table (the golden pipeline file
        // pins whole tables by checksum).
        let db = import(&build_trace(), &config(), 1);
        let tables = db.export_csv_tables();
        let alloc_rows: Vec<&str> = tables[0].1.lines().collect();
        assert_eq!(
            alloc_rows[0],
            "id,addr,size,data_type,subclass,alloc_ts,free_ts"
        );
        assert_eq!(alloc_rows[1], "1,0x1000,24,clock,,4,19");
        let lock_rows: Vec<&str> = tables[1].1.lines().collect();
        assert_eq!(lock_rows[1], "0,0x100,sec_lock,spinlock_t,true,,");
        let txn_rows: Vec<&str> = tables[2].1.lines().collect();
        assert_eq!(txn_rows[1], "0,Task(TaskId(0)),10,11,sec_lock");
        assert_eq!(txn_rows[2], "1,Task(TaskId(0)),12,13,sec_lock|min_lock");
        let acc_rows: Vec<&str> = tables[3].1.lines().collect();
        assert_eq!(acc_rows[1], "0,10,w,1,clock,,seconds,4,clock.c:11,0,0");
    }

    /// Type, subclass, member, lock and file names full of commas, quotes,
    /// CRs and LFs survive `export_csv_tables`: every table parses back
    /// with its header's column count on every row, and each name comes
    /// back as the exact original string, also inside a held-lock list
    /// whose first name needs no quoting.
    #[test]
    fn prop_csv_trace_round_trips_nasty_meta() {
        use crate::codec::parse_csv;
        use lockdoc_platform::prop::{check_with, Config};
        use lockdoc_platform::rng::Rng;
        use lockdoc_platform::{prop_assert, prop_assert_eq};
        let nasty_name = |r: &mut Rng, tag: &str| -> String {
            let mut s = String::from(tag);
            for _ in 0..r.gen_range(1usize..6) {
                s.push(match r.gen_range(0u64..6) {
                    0 => ',',
                    1 => '"',
                    2 => '\n',
                    3 => '\r',
                    _ => r.gen_range(b'a'..b'{') as char,
                });
            }
            s
        };
        let cfg = Config {
            cases: 40,
            ..Config::default()
        };
        check_with(
            &cfg,
            "prop_csv_trace_round_trips_nasty_meta",
            |r| {
                ["type:", "subclass:", "member:", "lock:", "file:"]
                    .iter()
                    .map(|tag| nasty_name(r, tag))
                    .collect::<Vec<_>>()
            },
            |names: &Vec<String>| {
                // Shrinking may drop names; only the full set is a case.
                let [ty, subclass, member, lock, file] = names.as_slice() else {
                    return Ok(());
                };
                let mut tr = Trace::new();
                let file_sym = tr.meta_mut().strings.intern(file);
                let lock_sym = tr.meta_mut().strings.intern(lock);
                let plain_sym = tr.meta_mut().strings.intern("plain_lock");
                let sub_sym = tr.meta_mut().strings.intern(subclass);
                let dt = tr.meta_mut().add_data_type(DataTypeDef {
                    name: ty.clone(),
                    size: 8,
                    members: vec![MemberDef {
                        name: member.clone(),
                        offset: 0,
                        size: 8,
                        atomic: false,
                        is_lock: false,
                    }],
                });
                let task = tr.meta_mut().add_task("task");
                let loc = SourceLoc::new(file_sym, 7);
                let events = [
                    Event::TaskSwitch { task },
                    Event::LockInit {
                        addr: 0x100,
                        name: lock_sym,
                        flavor: LockFlavor::Spinlock,
                        is_static: true,
                    },
                    Event::LockInit {
                        addr: 0x200,
                        name: plain_sym,
                        flavor: LockFlavor::Spinlock,
                        is_static: true,
                    },
                    Event::Alloc {
                        id: AllocId(1),
                        addr: 0x1000,
                        size: 8,
                        data_type: dt,
                        subclass: Some(sub_sym),
                    },
                    Event::LockAcquire {
                        addr: 0x200,
                        mode: AcquireMode::Exclusive,
                        loc,
                    },
                    Event::LockAcquire {
                        addr: 0x100,
                        mode: AcquireMode::Exclusive,
                        loc,
                    },
                    Event::MemAccess {
                        kind: AccessKind::Write,
                        addr: 0x1000,
                        size: 8,
                        loc,
                        atomic: false,
                    },
                    Event::LockRelease { addr: 0x100, loc },
                    Event::LockRelease { addr: 0x200, loc },
                    Event::Free { id: AllocId(1) },
                ];
                for (ts, e) in events.into_iter().enumerate() {
                    tr.push(ts as u64, e);
                }
                let db = import(&tr, &FilterConfig::default(), 1);
                let mut tables = std::collections::BTreeMap::new();
                for (name, csv) in db.export_csv_tables() {
                    let rows = parse_csv(&csv)?;
                    let lines = if name == "locks" { 3 } else { 2 };
                    prop_assert_eq!(rows.len(), lines, "{name}: header plus its rows");
                    prop_assert!(
                        rows.iter().all(|row| row.len() == rows[0].len()),
                        "{name}: every row has the header's width: {rows:?}"
                    );
                    tables.insert(name, rows);
                }
                let cell = |table: &str, column: &str| -> &str {
                    let rows = &tables[table];
                    let i = rows[0].iter().position(|h| h == column).expect(column);
                    &rows[1][i]
                };
                let loc_text = format!("{file}:7");
                prop_assert_eq!(cell("allocations", "data_type"), ty.as_str());
                prop_assert_eq!(cell("allocations", "subclass"), subclass.as_str());
                prop_assert_eq!(cell("locks", "name"), lock.as_str());
                prop_assert_eq!(cell("txns", "locks"), format!("plain_lock|{lock}"));
                prop_assert_eq!(cell("accesses", "data_type"), ty.as_str());
                prop_assert_eq!(cell("accesses", "subclass"), subclass.as_str());
                prop_assert_eq!(cell("accesses", "member"), member.as_str());
                prop_assert_eq!(cell("accesses", "loc"), loc_text.as_str());
                Ok(())
            },
        );
    }
}
