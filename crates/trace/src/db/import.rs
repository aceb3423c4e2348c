//! Trace import: replays the raw event stream into the relational store,
//! reconstructing control-flow state, transactions, and stack traces, and
//! applying the Sec. 5.3 filters.
//!
//! Import is one serial pass of [`Importer`] over the event stream.
//! Transactions and shadow stacks are per control flow (task, softirq,
//! hardirq), so the importer keeps one [`FlowState`] per flow key and
//! switches between them on `TaskSwitch`/`ContextEnter`/`ContextExit`.
//! DESIGN.md, "Import is serial", records why there is no parallel path.
//!
//! The importer is built for steady-state zero allocation per event:
//!
//! * control flows live in a `Vec` with the current flow's index cached
//!   across events (recomputed only on `TaskSwitch`/`ContextEnter`/
//!   `ContextExit`), so no hash lookup happens per access;
//! * shadow stacks are interned incrementally in a trie
//!   ([`StackInterner`]) keyed by `(parent node, function)` — `FnEnter`
//!   is one small-map probe, an access reads a single cached node id, and
//!   the frames are copied into the shared stack arena exactly once, at
//!   the first access that references a new stack;
//! * filter drops are counted in a fixed array indexed by
//!   [`FilterReason::index`] and only converted to the name-keyed stats
//!   map when the run finishes;
//! * allocation resolution keeps a one-entry cache of the last hit row,
//!   invalidated on `Free`, because consecutive accesses overwhelmingly
//!   target the same object.
//!
//! Nor does an access hash anything: the live-allocation index yields
//! allocation rows, and the filters are tables indexed by function and
//! `(type, member)` id. The lock registry is sorted by address, so a
//! `Free` finds the locks inside its range without scanning it whole.
//!
//! The same importer screens untrusted traces. Each event is checked
//! against the importer's own replay state — timestamp high-water mark,
//! metadata tables, allocation index and live ranges, lock registry, each
//! flow's held locks — by the one pass that replays it, before its first
//! effect, so a malformed event reaches no table. Under a quarantine policy
//! (strict or lenient, [`crate::db::resilient`]) it is recorded as a
//! [`QuarantineEntry`]; without one it is skipped and counted. Either way
//! the tables are the same. In table-free mode the importer keeps only
//! that replay state and builds no access, transaction or stack table,
//! which is all screening needs.
//!
//! [`ingest`] drives a [`crate::codec::TraceReader`] straight into the
//! importer, so decoding, screening and import are one streaming pass and
//! the event vector is never materialized unless the caller asks for the
//! sanitized trace. [`import`], [`import_stream`] and
//! [`crate::db::import_resilient`] are wrappers over the same importer.

use crate::codec::{CodecError, DecodePolicy, SalvageReport, TraceReader};
use crate::db::columns::{AccessTable, StackTable, TxnTable};
use crate::db::resilient::{ImportPolicy, ImportReport, QuarantineClass, QuarantineEntry};
use crate::db::schema::{Allocation, FlowKey, HeldLock, LockInstance};
use crate::db::TraceDb;
use crate::event::{
    AccessKind, AcquireMode, ContextKind, Event, SourceLoc, Trace, TraceEvent, TraceMeta,
};
use crate::filter::{FilterConfig, FilterReason};
use crate::ids::{Addr, AllocId, DataTypeId, FnId, LockId, StackId, Sym, TaskId, Timestamp, TxnId};
use lockdoc_platform::hash::FastMap;
use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::sync::Arc;

/// Counters describing an import run (reported like paper Sec. 7.2).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ImportStats {
    /// Events fed: every one without a quarantine policy, only the kept
    /// ones under one.
    pub events: u64,
    /// Memory-access events seen.
    pub accesses_seen: u64,
    /// Accesses surviving all filters.
    pub accesses_imported: u64,
    /// Accesses dropped, by reason.
    pub filtered: HashMap<String, u64>,
    /// Accesses that hit untracked memory or a layout hole.
    pub unresolved: u64,
    /// Lock releases without a matching acquisition: of an unregistered
    /// address, or, without a quarantine policy, of a registered lock the
    /// releasing flow does not hold.
    pub unmatched_releases: u64,
    /// Acquisitions of unregistered lock addresses.
    pub unknown_lock_acquires: u64,
    /// Transactions materialized.
    pub txns: u64,
    /// Registered lock instances.
    pub locks: u64,
    /// ... of which statically allocated.
    pub static_locks: u64,
    /// ... of which embedded in observed allocations.
    pub embedded_locks: u64,
    /// Allocation events.
    pub allocs: u64,
    /// Frees of live allocations. A free of an id never allocated or
    /// already freed is malformed and changes nothing.
    pub frees: u64,
    /// Distinct stack traces recorded.
    pub stacks: u64,
    /// Malformed events skipped without a quarantine policy: every
    /// quarantine class but an unbalanced release, which counts in
    /// `unmatched_releases`. Possible in corrupted or foreign traces; a
    /// well-formed tracer emits none. Under a policy they are quarantined
    /// instead and this stays zero.
    pub invalid_events: u64,
}

impl ImportStats {
    /// Total number of filtered accesses across all reasons.
    pub fn total_filtered(&self) -> u64 {
        self.filtered.values().sum()
    }
}

/// Dense per-reason drop counters for the hot path. Flattened into the
/// name-keyed [`ImportStats::filtered`] map once per run; only non-zero
/// reasons get an entry, matching what incremental insertion produced.
#[derive(Debug, Clone, Copy, Default)]
struct DropCounters([u64; FilterReason::ALL.len()]);

impl DropCounters {
    #[inline]
    fn bump(&mut self, reason: FilterReason) {
        self.0[reason.index()] += 1;
    }

    fn add_to(&self, map: &mut HashMap<String, u64>) {
        for (i, &n) in self.0.iter().enumerate() {
            if n > 0 {
                *map.entry(format!("{:?}", FilterReason::ALL[i]))
                    .or_insert(0) += n;
            }
        }
    }
}

/// Per-control-flow replay state.
#[derive(Debug, Default)]
struct FlowState {
    /// Currently held locks in acquisition order (with reentrancy counts).
    held: Vec<HeldEntry>,
    /// The open transaction for the current held set, if materialized.
    open_txn: Option<TxnId>,
    /// Shadow call stack.
    fn_stack: Vec<FnId>,
    /// Interner node at each `fn_stack` depth (parallel vector); the node
    /// for the current stack is the last entry, or [`ROOT_NODE`] when
    /// empty.
    node_stack: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct HeldEntry {
    lock: LockId,
    mode: AcquireMode,
    loc: SourceLoc,
    ts: Timestamp,
    count: u32,
}

/// The trie node representing the empty stack.
const ROOT_NODE: u32 = 0;

/// Incremental stack interner.
///
/// Shadow stacks form a trie: each node is reached from its parent by one
/// `(parent node, function)` edge, so a node is in bijection with the frame
/// vector spelled by its path from the root. Maintaining the current node
/// alongside the shadow stack makes `FnEnter` one small-map probe and lets
/// an access identify its stack by reading a single cached id — no
/// whole-vector hashing, no speculative clones. Dense [`StackId`]s are
/// assigned lazily at the first access that references a node, which is
/// exactly the order the old `HashMap<Vec<FnId>, StackId>` index assigned
/// them, so the emitted table is identical.
struct StackInterner {
    children: FastMap<(u32, FnId), u32>,
    /// Dense id per node (`u32::MAX` = not yet referenced by an access).
    assigned: Vec<u32>,
}

impl StackInterner {
    fn new() -> Self {
        Self {
            children: FastMap::default(),
            assigned: vec![u32::MAX],
        }
    }

    #[inline]
    fn child(&mut self, parent: u32, func: FnId) -> u32 {
        let next = self.assigned.len() as u32;
        let assigned = &mut self.assigned;
        *self.children.entry((parent, func)).or_insert_with(|| {
            assigned.push(u32::MAX);
            next
        })
    }
}

/// Name-based filter configuration resolved against one trace's metadata,
/// so the per-access hot path only indexes tables by id.
struct ResolvedFilters {
    /// Per function: accesses with it innermost are ignored.
    global_fn_blacklist: Vec<bool>,
    /// Per data type: its init/teardown functions (a handful at most).
    init_teardown: Vec<Vec<FnId>>,
    /// Per data type, per member: blacklisted.
    member_blacklist: Vec<Vec<bool>>,
}

impl ResolvedFilters {
    fn resolve(meta: &TraceMeta, config: &FilterConfig) -> Self {
        let fn_by_name: HashMap<&str, FnId> = meta
            .functions
            .iter()
            .enumerate()
            .map(|(i, n)| (n.as_str(), FnId(i as u32)))
            .collect();
        let mut global_fn_blacklist = vec![false; meta.functions.len()];
        for n in &config.global_fn_blacklist {
            if let Some(f) = fn_by_name.get(n.as_str()) {
                global_fn_blacklist[f.index()] = true;
            }
        }
        let init_teardown = meta
            .data_types
            .iter()
            .map(|dt| {
                config
                    .init_teardown
                    .get(&dt.name)
                    .into_iter()
                    .flatten()
                    .filter_map(|n| fn_by_name.get(n.as_str()).copied())
                    .collect()
            })
            .collect();
        let member_blacklist = meta
            .data_types
            .iter()
            .map(|dt| {
                dt.members
                    .iter()
                    .map(|m| config.member_blacklisted(&dt.name, &m.name))
                    .collect()
            })
            .collect();
        Self {
            global_fn_blacklist,
            init_teardown,
            member_blacklist,
        }
    }
}

/// Replays `trace` into a [`TraceDb`], applying `config`. A malformed
/// event is skipped and counted (see [`ImportStats::invalid_events`]), so
/// the tables are the ones a lenient [`crate::db::import_resilient`] keeps.
///
/// `_jobs` is unused: import is one serial pass at any worker count. The
/// argument stays so existing callers keep compiling.
pub fn import(trace: &Trace, config: &FilterConfig, _jobs: usize) -> TraceDb {
    let mut imp = Importer::new(&trace.meta, config, None, true);
    for te in &trace.events {
        imp.feed(te.ts, &te.event);
    }
    imp.finish(Arc::clone(&trace.meta))
}

/// Replays events straight off a [`TraceReader`] without materializing the
/// event vector; equivalent to `read_trace` followed by [`import`] but with
/// decode and replay interleaved chunk by chunk, so peak memory stays
/// proportional to the output tables, not the input stream. This is
/// [`ingest`] without a quarantine policy.
///
/// `_jobs` is unused, as in [`import`].
pub fn import_stream<R: Read>(
    mut reader: TraceReader<R>,
    config: &FilterConfig,
    _jobs: usize,
) -> Result<TraceDb, CodecError> {
    let meta = Arc::clone(reader.meta());
    let mut imp = Importer::new(&meta, config, None, true);
    drive(&mut reader, &mut imp, None)?;
    Ok(imp.finish(Arc::clone(&meta)))
}

/// What one [`ingest`] run checks and builds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IngestOptions {
    /// The quarantine policy: strict decodes strictly and stops importing
    /// at the first malformed event; lenient salvages the container and
    /// quarantines every malformed event. [`ingest`] refuses nothing: the
    /// caller passes [`Ingested::report`] to
    /// [`crate::db::ResilientConfig::verdict`].
    pub policy: ImportPolicy,
    /// Build the access, transaction and stack tables. Without them the
    /// importer keeps only its replay state and no [`TraceDb`] comes back
    /// (table-free screening).
    pub tables: bool,
    /// Collect the kept events: the sanitized trace.
    pub keep_events: bool,
}

/// What one [`ingest`] run produced.
#[derive(Debug)]
pub struct Ingested {
    /// The decoded metadata tables.
    pub meta: Arc<TraceMeta>,
    /// The imported store; `None` in table-free mode.
    pub db: Option<TraceDb>,
    /// The kept events with the metadata, when
    /// [`IngestOptions::keep_events`] asked for them.
    pub trace: Option<Trace>,
    /// What the decoder skipped; only salvage decoding skips records, but
    /// trailing bytes are counted under either decode policy.
    pub salvage: SalvageReport,
    /// What the quarantine checks dropped.
    pub report: ImportReport,
}

/// Decodes, screens and imports one trace in a single streaming pass:
/// each event comes off `reader` (switched to salvage decoding under a
/// lenient policy), is checked against the importer's replay state, and is
/// replayed or quarantined before the next one is decoded. The strict
/// policy stops importing at the first malformed event but keeps decoding
/// to the end, so a later decode failure is still the error returned, ahead
/// of the refusal the caller's verdict gives; the lenient policy's budget
/// is checked by that verdict once the stream has ended.
///
/// `ingest` followed by [`crate::db::ResilientConfig::verdict`] gives the
/// result [`crate::codec::read_trace_salvage`] (or `read_trace` under
/// strict) followed by [`crate::db::import_resilient`] would give, without
/// holding the event vector. [`import_stream`] is the same loop without a
/// policy.
pub fn ingest<R: Read>(
    mut reader: TraceReader<R>,
    filter: &FilterConfig,
    opts: IngestOptions,
) -> Result<Ingested, CodecError> {
    if opts.policy == ImportPolicy::Lenient {
        reader = reader.with_policy(DecodePolicy::Salvage);
    }
    let meta = Arc::clone(reader.meta());
    let mut imp = Importer::new(&meta, filter, Some(opts.policy), opts.tables);
    let mut kept = opts.keep_events.then(Vec::new);
    drive(&mut reader, &mut imp, kept.as_mut())?;
    let salvage = reader.finish()?;
    let report = imp.take_report();
    let db = opts.tables.then(|| imp.finish(Arc::clone(&meta)));
    let trace = kept.map(|events| Trace {
        meta: Arc::clone(&meta),
        events,
    });
    Ok(Ingested {
        meta,
        db,
        trace,
        salvage,
        report,
    })
}

/// The one ingest loop: decode the next event, feed it, and keep it when
/// asked and the importer kept it, until the reader ends.
fn drive<R: Read>(
    reader: &mut TraceReader<R>,
    imp: &mut Importer<'_>,
    mut kept: Option<&mut Vec<TraceEvent>>,
) -> Result<(), CodecError> {
    while let Some(ev) = reader.next_event() {
        let te = ev?;
        if imp.feed(te.ts, &te.event) {
            if let Some(kept) = kept.as_mut() {
                kept.push(te);
            }
        }
    }
    Ok(())
}

pub(crate) fn valid_sym(meta: &TraceMeta, sym: Sym) -> bool {
    sym.index() < meta.strings.len()
}

pub(crate) fn valid_fn(meta: &TraceMeta, f: FnId) -> bool {
    f.index() < meta.functions.len()
}

pub(crate) fn valid_task(meta: &TraceMeta, t: TaskId) -> bool {
    t.index() < meta.tasks.len()
}

pub(crate) fn valid_dt(meta: &TraceMeta, dt: DataTypeId) -> bool {
    dt.index() < meta.data_types.len()
}

pub(crate) fn valid_loc(meta: &TraceMeta, loc: &SourceLoc) -> bool {
    valid_sym(meta, loc.file)
}

/// The serial importer: per-event replay state plus the tables it fills.
pub(crate) struct Importer<'a> {
    meta: &'a TraceMeta,
    config: &'a FilterConfig,
    stats: ImportStats,
    drops: DropCounters,

    allocations: Vec<Allocation>,
    alloc_index: FastMap<AllocId, usize>,
    /// Live allocations by start address: their rows in `allocations`.
    active_allocs: BTreeMap<Addr, u32>,
    /// Row of the most recently resolved live allocation; consecutive
    /// accesses overwhelmingly hit the same object. Invalidated on `Free`.
    alloc_cache: Option<u32>,

    locks: Vec<LockInstance>,
    /// Registered lock instances by address, sorted: a `Free` finds the
    /// locks inside its range without scanning the whole registry.
    active_locks: BTreeMap<Addr, LockId>,

    txns: TxnTable,
    accesses: AccessTable,

    stacks: StackTable,
    interner: StackInterner,

    flows: Vec<FlowState>,
    flow_ids: FastMap<FlowKey, u32>,
    current_task: TaskId,
    ctx_stack: Vec<ContextKind>,
    /// Cached flow routing, recomputed only when a `TaskSwitch` or context
    /// event changes it — the per-access path does no hashing at all.
    cur_key: FlowKey,
    cur_flow: usize,

    filters: ResolvedFilters,

    /// Quarantine policy; `None` counts malformed events instead.
    policy: Option<ImportPolicy>,
    /// Build the access, transaction and stack tables.
    tables: bool,
    /// Events fed, kept or not: the next event's index.
    fed: u64,
    /// Timestamp high-water mark of the kept events.
    max_ts: Timestamp,
    /// Malformed events, in event-index order.
    quarantined: Vec<QuarantineEntry>,
}

impl<'a> Importer<'a> {
    pub(crate) fn new(
        meta: &'a TraceMeta,
        config: &'a FilterConfig,
        policy: Option<ImportPolicy>,
        tables: bool,
    ) -> Self {
        let cur_key = FlowKey::Task(TaskId(0));
        let mut flow_ids = FastMap::default();
        flow_ids.insert(cur_key, 0u32);
        Self {
            meta,
            config,
            stats: ImportStats::default(),
            drops: DropCounters::default(),
            allocations: Vec::new(),
            alloc_index: FastMap::default(),
            active_allocs: BTreeMap::new(),
            alloc_cache: None,
            locks: Vec::new(),
            active_locks: BTreeMap::new(),
            txns: TxnTable::default(),
            accesses: AccessTable::default(),
            stacks: StackTable::default(),
            interner: StackInterner::new(),
            flows: vec![FlowState::default()],
            flow_ids,
            current_task: TaskId(0),
            ctx_stack: Vec::new(),
            cur_key,
            cur_flow: 0,
            filters: ResolvedFilters::resolve(meta, config),
            policy,
            tables,
            fed: 0,
            max_ts: 0,
            quarantined: Vec::new(),
        }
    }

    /// The quarantine report of the events fed so far.
    pub(crate) fn take_report(&mut self) -> ImportReport {
        ImportReport::new(self.fed, std::mem::take(&mut self.quarantined))
    }

    pub(crate) fn finish(mut self, meta: Arc<TraceMeta>) -> TraceDb {
        self.drops.add_to(&mut self.stats.filtered);
        self.stats.txns = self.txns.len() as u64;
        self.stats.locks = self.locks.len() as u64;
        self.stats.static_locks = self.locks.iter().filter(|l| l.is_static).count() as u64;
        self.stats.embedded_locks = self
            .locks
            .iter()
            .filter(|l| l.embedded_in.is_some())
            .count() as u64;
        self.stats.stacks = self.stacks.len() as u64;
        // Rows were appended in event order; `TraceDb::allocation` looks
        // ids up by binary search. Ids are unique: a reused one is dropped.
        // Sorting moves rows, so the access table's allocation rows follow
        // them; a ksim trace allocates in id order and skips this.
        if self.allocations.windows(2).any(|w| w[0].id > w[1].id) {
            let mut order: Vec<u32> = (0..self.allocations.len() as u32).collect();
            order.sort_unstable_by_key(|&row| self.allocations[row as usize].id);
            let mut new_row = vec![0u32; order.len()];
            for (new, &old) in order.iter().enumerate() {
                new_row[old as usize] = new as u32;
            }
            for row in &mut self.accesses.alloc {
                *row = new_row[*row as usize];
            }
            self.allocations.sort_unstable_by_key(|a| a.id);
        }
        TraceDb {
            meta,
            allocations: self.allocations,
            locks: self.locks,
            txns: self.txns,
            accesses: self.accesses,
            stacks: self.stacks,
            stats: self.stats,
        }
    }

    /// Re-derives the cached flow routing after a task or context change.
    fn refresh_flow(&mut self) {
        self.cur_key = match self.ctx_stack.last() {
            Some(kind) => FlowKey::irq(*kind),
            None => FlowKey::Task(self.current_task),
        };
        self.cur_flow = match self.flow_ids.get(&self.cur_key) {
            Some(&i) => i as usize,
            None => {
                let i = self.flows.len();
                self.flows.push(FlowState::default());
                self.flow_ids.insert(self.cur_key, i as u32);
                i
            }
        };
    }

    /// Resolves `addr` to the row of the live allocation containing it.
    /// Live allocations never overlap (overlapping `Alloc`s are dropped),
    /// so the containing allocation is unique and a one-entry cache is
    /// sound as long as `Free` invalidates it.
    fn resolve_alloc(&mut self, addr: Addr) -> Option<u32> {
        if let Some(row) = self.alloc_cache {
            if self.allocations[row as usize].contains(addr) {
                return Some(row);
            }
        }
        let (_, &row) = self.active_allocs.range(..=addr).next_back()?;
        if self.allocations[row as usize].contains(addr) {
            self.alloc_cache = Some(row);
            Some(row)
        } else {
            None
        }
    }

    /// Whether `[addr, end)` overlaps a live allocation. Live allocations
    /// never overlap one another, so only the last one starting below `end`
    /// can.
    fn overlaps_live(&self, addr: Addr, end: Addr) -> bool {
        self.active_allocs
            .range(..end)
            .next_back()
            .map(|(_, &prev)| {
                let prev = &self.allocations[prev as usize];
                prev.contains(addr) || (addr..end).contains(&prev.addr)
            })
            .unwrap_or(false)
    }

    fn close_open_txn(&mut self, ts: Timestamp) {
        if let Some(txn_id) = self.flows[self.cur_flow].open_txn.take() {
            self.txns.bump_end_ts(txn_id, ts);
        }
    }

    /// Feeds one event and returns whether it was kept. A malformed event
    /// reaches no table: under a policy it is recorded, and under the
    /// strict policy nothing is kept after the first; without one it is
    /// counted, an unbalanced release in `unmatched_releases` and any
    /// other in `invalid_events`.
    pub(crate) fn feed(&mut self, ts: Timestamp, event: &Event) -> bool {
        let event_index = self.fed;
        self.fed += 1;
        if self.policy == Some(ImportPolicy::Strict) && !self.quarantined.is_empty() {
            return false;
        }
        let Err((class, detail)) = self.apply(ts, event) else {
            self.max_ts = ts;
            self.stats.events += 1;
            return true;
        };
        // An unbalanced release still happened at its time, so it moves the
        // high-water mark; every other class is dropped before any of its
        // effects register.
        if class == QuarantineClass::UnbalancedRelease {
            self.max_ts = ts;
        }
        if self.policy.is_some() {
            self.quarantined.push(QuarantineEntry {
                event_index,
                class,
                detail,
            });
        } else {
            self.stats.events += 1;
            match class {
                QuarantineClass::UnbalancedRelease => self.stats.unmatched_releases += 1,
                _ => self.stats.invalid_events += 1,
            }
        }
        false
    }

    /// Checks one event against the replay state and replays it into the
    /// state and, unless table-free, the tables. Every check of an event
    /// runs before its first effect, so a malformed one changes nothing and
    /// comes back as its quarantine class and detail. The first failed
    /// check wins: the timestamp, then metadata references, the allocation
    /// table, free validity, lock balance and the entered context — the
    /// order in which a replay would mishandle the event. Anomalies
    /// tolerated by design (unregistered lock addresses, fn-exit and
    /// context-exit mismatches, unresolved accesses) are counters.
    fn apply(&mut self, ts: Timestamp, event: &Event) -> Result<(), (QuarantineClass, String)> {
        use QuarantineClass::*;
        // Timestamps first: the high-water mark only advances on kept
        // events, so one regressed event cannot drag a healthy successor
        // into quarantine with it.
        if ts < self.max_ts {
            let detail = format!("ts {} after high-water mark {}", ts, self.max_ts);
            return Err((TimestampRegression, detail));
        }
        let meta = self.meta;
        let dangling = |detail: String| Err((DanglingMeta, detail));
        match event {
            Event::LockInit {
                addr,
                name,
                flavor,
                is_static,
            } => {
                if !valid_sym(meta, *name) {
                    let strings = meta.strings.len();
                    return dangling(format!(
                        "lock name string #{} (table has {strings})",
                        name.0
                    ));
                }
                let embedded_in = self.resolve_alloc(*addr).map(|row| {
                    let alloc = &self.allocations[row as usize];
                    (alloc.id, (*addr - alloc.addr) as u32)
                });
                let id = LockId(self.locks.len() as u32);
                self.locks.push(LockInstance {
                    id,
                    addr: *addr,
                    name: *name,
                    flavor: *flavor,
                    is_static: *is_static,
                    embedded_in,
                });
                self.active_locks.insert(*addr, id);
            }
            Event::Alloc {
                id,
                addr,
                size,
                data_type,
                subclass,
            } => {
                if !valid_dt(meta, *data_type) {
                    let types = meta.data_types.len();
                    return dangling(format!("data type #{} (table has {types})", data_type.0));
                }
                if let Some(s) = subclass.filter(|s| !valid_sym(meta, *s)) {
                    let strings = meta.strings.len();
                    return dangling(format!("subclass string #{} (table has {strings})", s.0));
                }
                if self.alloc_index.contains_key(id) {
                    let detail = format!("alloc id {} already in use", id.0);
                    return Err((DuplicateAllocId, detail));
                }
                // Overlap with a live allocation indicates a broken or
                // hostile tracer; resolving accesses in the overlap would be
                // ambiguous.
                let Some(end) = addr.checked_add(u64::from(*size)) else {
                    let detail = format!("range {addr:#x}+{size} wraps the address space");
                    return Err((OverlappingAlloc, detail));
                };
                if self.overlaps_live(*addr, end) {
                    let detail = format!("range {addr:#x}+{size} overlaps a live allocation");
                    return Err((OverlappingAlloc, detail));
                }
                self.stats.allocs += 1;
                let idx = self.allocations.len();
                self.allocations.push(Allocation {
                    id: *id,
                    addr: *addr,
                    size: *size,
                    data_type: *data_type,
                    subclass: *subclass,
                    alloc_ts: ts,
                    free_ts: None,
                });
                self.alloc_index.insert(*id, idx);
                self.active_allocs.insert(
                    *addr,
                    u32::try_from(idx).expect("allocation rows fit in u32"),
                );
            }
            // A second free is refused instead of deactivating whatever
            // allocation occupies the address now.
            Event::Free { id } => {
                let Some(&idx) = self.alloc_index.get(id) else {
                    let detail = format!("free of alloc id {} never allocated", id.0);
                    return Err((DanglingFree, detail));
                };
                let alloc = &mut self.allocations[idx];
                if alloc.free_ts.is_some() {
                    return Err((DoubleFree, format!("alloc id {} already freed", id.0)));
                }
                alloc.free_ts = Some(ts);
                let (addr, end) = (alloc.addr, alloc.addr.saturating_add(u64::from(alloc.size)));
                self.stats.frees += 1;
                self.active_allocs.remove(&addr);
                self.alloc_cache = None;
                // Deactivate embedded lock addresses so a later reallocation
                // at the same address registers fresh instances.
                while let Some((&a, _)) = self.active_locks.range(addr..end).next() {
                    self.active_locks.remove(&a);
                }
            }
            Event::LockAcquire { addr, mode, loc } => {
                if !valid_loc(meta, loc) {
                    return dangling(format!(
                        "acquire loc file string #{} (table has {})",
                        loc.file.0,
                        meta.strings.len()
                    ));
                }
                let Some(&lock_id) = self.active_locks.get(addr) else {
                    self.stats.unknown_lock_acquires += 1;
                    return Ok(());
                };
                let flavor = self.locks[lock_id.index()].flavor;
                let flow = &mut self.flows[self.cur_flow];
                if flavor.reentrant() {
                    if let Some(entry) = flow.held.iter_mut().find(|h| h.lock == lock_id) {
                        entry.count += 1;
                        return Ok(());
                    }
                }
                flow.held.push(HeldEntry {
                    lock: lock_id,
                    mode: *mode,
                    loc: *loc,
                    ts,
                    count: 1,
                });
                self.close_open_txn(ts);
            }
            Event::LockRelease { addr, loc } => {
                if !valid_loc(meta, loc) {
                    return dangling(format!(
                        "release loc file string #{} (table has {})",
                        loc.file.0,
                        meta.strings.len()
                    ));
                }
                // A release of an unregistered address is tolerated: with no
                // registration there is no flow to balance against.
                let Some(&lock_id) = self.active_locks.get(addr) else {
                    self.stats.unmatched_releases += 1;
                    return Ok(());
                };
                let flow = &mut self.flows[self.cur_flow];
                // Search from the most recent acquisition backwards.
                let Some(pos) = flow.held.iter().rposition(|h| h.lock == lock_id) else {
                    let detail = format!("release of lock {addr:#x} not held by this flow");
                    return Err((UnbalancedRelease, detail));
                };
                if flow.held[pos].count > 1 {
                    flow.held[pos].count -= 1;
                    return Ok(());
                }
                flow.held.remove(pos);
                self.close_open_txn(ts);
            }
            Event::MemAccess {
                kind,
                addr,
                size,
                loc,
                atomic,
            } => {
                if !valid_loc(meta, loc) {
                    return dangling(format!(
                        "access loc file string #{} (table has {})",
                        loc.file.0,
                        meta.strings.len()
                    ));
                }
                self.stats.accesses_seen += 1;
                if self.tables {
                    self.handle_access(ts, *kind, *addr, *size, *loc, *atomic);
                }
            }
            Event::FnEnter { func } => {
                if !valid_fn(meta, *func) {
                    let functions = meta.functions.len();
                    return dangling(format!("function #{} (table has {functions})", func.0));
                }
                if self.tables {
                    let flow = &mut self.flows[self.cur_flow];
                    let parent = flow.node_stack.last().copied().unwrap_or(ROOT_NODE);
                    let node = self.interner.child(parent, *func);
                    flow.fn_stack.push(*func);
                    flow.node_stack.push(node);
                }
            }
            Event::FnExit { func } => {
                let flow = &mut self.flows[self.cur_flow];
                // Tolerate mismatches: pop to the matching frame if present.
                if let Some(pos) = flow.fn_stack.iter().rposition(|f| f == func) {
                    flow.fn_stack.truncate(pos);
                    flow.node_stack.truncate(pos);
                }
            }
            Event::TaskSwitch { task } => {
                if !valid_task(meta, *task) {
                    return dangling(format!("task #{} (table has {})", task.0, meta.tasks.len()));
                }
                self.current_task = *task;
                self.refresh_flow();
            }
            // Only interrupt contexts have a flow of their own: a task is
            // entered by `TaskSwitch`.
            Event::ContextEnter {
                kind: ContextKind::Task,
            } => return Err((TaskContext, "context enter of the task context".into())),
            Event::ContextEnter { kind } => {
                self.ctx_stack.push(*kind);
                self.refresh_flow();
            }
            Event::ContextExit { kind } => {
                if self.ctx_stack.last() == Some(kind) {
                    self.ctx_stack.pop();
                    self.refresh_flow();
                }
            }
        }
        Ok(())
    }

    fn handle_access(
        &mut self,
        ts: Timestamp,
        kind: AccessKind,
        addr: Addr,
        size: u8,
        loc: SourceLoc,
        atomic: bool,
    ) {
        let meta = self.meta;
        let Some(row) = self.resolve_alloc(addr) else {
            self.stats.unresolved += 1;
            return;
        };
        let alloc = &self.allocations[row as usize];
        let data_type = alloc.data_type;
        let offset = (addr - alloc.addr) as u32;
        let def = &meta.data_types[data_type.index()];
        let Some(member_idx) = def.member_at(offset) else {
            self.stats.unresolved += 1;
            return;
        };
        let member = &def.members[member_idx];

        // Filters (paper Sec. 5.3).
        if self.config.drop_atomic_accesses && atomic {
            self.drops.bump(FilterReason::AtomicAccess);
            return;
        }
        if self.config.drop_atomic_members && (member.atomic || member.is_lock) {
            self.drops.bump(FilterReason::AtomicOrLockMember);
            return;
        }
        if self.filters.member_blacklist[data_type.index()][member_idx] {
            self.drops.bump(FilterReason::BlacklistedMember);
            return;
        }
        let flow_key = self.cur_key;
        let flow = &mut self.flows[self.cur_flow];
        if let Some(&innermost) = flow.fn_stack.last() {
            if self.filters.global_fn_blacklist[innermost.index()] {
                self.drops.bump(FilterReason::IgnoredFunction);
                return;
            }
        }
        let funcs = &self.filters.init_teardown[data_type.index()];
        if !funcs.is_empty() && flow.fn_stack.iter().any(|f| funcs.contains(f)) {
            self.drops.bump(FilterReason::InitTeardownContext);
            return;
        }

        // Materialize the transaction for the current held set on demand.
        // Lock-free spans are represented as transactions with an empty lock
        // list, so that every access has a well-defined observation unit for
        // support counting (the paper keeps such accesses outside the `txns`
        // table and special-cases them; an empty-set transaction is the
        // equivalent uniform representation). The transaction is the
        // flow's own, so the access's flow and context are its.
        let txn = match flow.open_txn {
            Some(id) => {
                self.txns.bump_end_ts(id, ts);
                id
            }
            None => {
                let id = self.txns.push(
                    flow_key,
                    ts,
                    ts,
                    flow.held.iter().map(|h| HeldLock {
                        lock: h.lock,
                        mode: h.mode,
                        acquired_at: h.loc,
                        acquired_ts: h.ts,
                    }),
                );
                flow.open_txn = Some(id);
                id
            }
        };

        // The current stack is identified by its trie node; the frame slice
        // is copied into the arena only the first time an access references
        // it (no owned `Vec` is ever built).
        let node = flow.node_stack.last().copied().unwrap_or(ROOT_NODE) as usize;
        let assigned = self.interner.assigned[node];
        let stack = if assigned == u32::MAX {
            let id = self.stacks.push(&flow.fn_stack);
            self.interner.assigned[node] = id.0;
            id
        } else {
            StackId(assigned)
        };

        // Transactions are materialized only at an access, so their rows
        // fit in u32 whenever the access rows do.
        let t = &mut self.accesses;
        t.ts.push(ts);
        t.kind.push(kind);
        t.alloc.push(row);
        t.member.push(member_idx as u32);
        t.size.push(size);
        t.loc_file.push(loc.file);
        t.loc_line.push(loc.line);
        t.txn
            .push(u32::try_from(txn.0).expect("transaction rows fit in u32"));
        t.stack.push(stack);
        self.stats.accesses_imported += 1;
    }
}
