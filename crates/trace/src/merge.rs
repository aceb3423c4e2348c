//! Concatenation of traces into one well-formed trace, in two settings:
//! - [`concat_traces`] stitches the shards of the sharded ksim workload
//!   runner, which record on their own `Machine`s at disjoint address
//!   bases;
//! - [`CorpusMerge`] folds independently recorded corpus members, one at
//!   a time, into the merged corpus trace that `corpus export` writes and
//!   `serve` analyzes.
//!
//! Both append every part through one per-event rewrite, so each part
//! keeps its events in order but gets
//! - its metadata unioned into the merged trace (strings by value, data
//!   types / functions / tasks by name, [`union_meta`]),
//! - its timestamps rebased so simulated time keeps increasing across the
//!   part boundary,
//! - its allocation ids densely renumbered so ids stay unique and strictly
//!   increasing across parts (keeping `TraceDb::allocation`'s binary
//!   search valid),
//! - its addresses moved by a constant shift.
//!
//! [`concat_traces`] shifts nothing: the caller must hand in parts with
//! disjoint address ranges (ksim derives a per-shard address base from the
//! shard index), and it rejects overlapping parts — an allocation from one
//! shard still live at its trace's end would otherwise swallow or
//! invalidate same-address allocations of later shards. [`CorpusMerge`]
//! shifts each member into its own address window instead, because every
//! recorder starts at the same default address base.

use crate::event::{ContextKind, DataTypeDef, Event, SourceLoc, Trace, TraceEvent, TraceMeta};
use crate::ids::{Addr, AllocId, DataTypeId, FnId, Sym, TaskId};
use std::collections::HashMap;
use std::fmt;

/// Why [`concat_traces`] or [`CorpusMerge::push`] refused to merge.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// Two parts touch overlapping address ranges; allocation resolution
    /// after the merge would be silently corrupted.
    AddressOverlap {
        /// Index of the earlier offending part.
        first: usize,
        /// Index of the later offending part.
        second: usize,
        /// Address range `[min, max)` of the earlier part.
        first_range: (Addr, Addr),
        /// Address range `[min, max)` of the later part.
        second_range: (Addr, Addr),
    },
    /// Two parts define the same data type name with different layouts.
    ConflictingLayout {
        /// Name of the data type with divergent definitions.
        type_name: String,
    },
    /// A part's own event stream travels back in time; rebasing cannot
    /// repair it and the merged trace would violate the `Trace` invariant.
    NonMonotonic {
        /// Index of the offending part.
        part: usize,
        /// Index of the first event whose timestamp regresses.
        event_index: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::AddressOverlap {
                first,
                second,
                first_range,
                second_range,
            } => write!(
                f,
                "traces {first} and {second} overlap in address space \
                 ([{:#x}, {:#x}) vs [{:#x}, {:#x})); record shards with \
                 disjoint address bases",
                first_range.0, first_range.1, second_range.0, second_range.1
            ),
            MergeError::ConflictingLayout { type_name } => write!(
                f,
                "conflicting layouts for data type `{type_name}` across traces"
            ),
            MergeError::NonMonotonic { part, event_index } => write!(
                f,
                "trace {part} is not time-ordered: event {event_index} \
                 travels back in time"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Sentinel for ids that were already dangling in a source part; they must
/// stay dangling in the merged trace (the importer counts them as invalid
/// events) instead of aliasing a real entry of the merged metadata.
const INVALID: u32 = u32::MAX;

/// Id remappings of one part's metadata into a union metadata table, as
/// produced by [`union_meta`]: index a part-local id's `index()` into the
/// matching vector to get the merged id.
#[derive(Debug, Clone, Default)]
pub struct MetaMaps {
    /// Part string `Sym` → merged `Sym`, indexed by part symbol index.
    pub syms: Vec<Sym>,
    /// Part `DataTypeId` → merged `DataTypeId`.
    pub data_types: Vec<DataTypeId>,
    /// Part `FnId` → merged `FnId`.
    pub functions: Vec<FnId>,
    /// Part `TaskId` → merged `TaskId`.
    pub tasks: Vec<TaskId>,
}

/// Unions one part's metadata into `out` — strings by value, data types /
/// functions / tasks by name — returning the part→merged id maps.
///
/// This is *the* metadata-union rule: every merge applies it part by part
/// while rewriting events, and the corpus layer applies it to trace
/// headers alone to predict the merged trace's metadata without touching a
/// single event. Both must agree byte for byte, which is why they share
/// this function. Two parts defining the same data-type name with
/// different layouts cannot be merged meaningfully and are rejected.
pub fn union_meta(out: &mut TraceMeta, part: &TraceMeta) -> Result<MetaMaps, MergeError> {
    let syms: Vec<Sym> = part
        .strings
        .strings()
        .iter()
        .map(|s| out.strings.intern(s))
        .collect();
    let mut data_types: Vec<DataTypeId> = Vec::with_capacity(part.data_types.len());
    for dt in &part.data_types {
        match out.data_type_named(&dt.name) {
            Some(existing) => {
                let have: &DataTypeDef = &out.data_types[existing.index()];
                if have != dt {
                    return Err(MergeError::ConflictingLayout {
                        type_name: dt.name.clone(),
                    });
                }
                data_types.push(existing);
            }
            None => data_types.push(out.add_data_type(dt.clone())),
        }
    }
    let functions: Vec<FnId> = part
        .functions
        .iter()
        .map(|name| {
            out.functions
                .iter()
                .position(|f| f == name)
                .map(|i| FnId(i as u32))
                .unwrap_or_else(|| out.add_function(name))
        })
        .collect();
    let tasks: Vec<TaskId> = part
        .tasks
        .iter()
        .map(|name| {
            out.tasks
                .iter()
                .position(|t| t == name)
                .map(|i| TaskId(i as u32))
                .unwrap_or_else(|| out.add_task(name))
        })
        .collect();
    Ok(MetaMaps {
        syms,
        data_types,
        functions,
        tasks,
    })
}

/// The address range `[min, max)` touched by one part's events.
#[derive(Clone, Copy)]
struct AddrRange {
    min: Addr,
    max: Addr,
}

impl AddrRange {
    fn overlaps(&self, other: &AddrRange) -> bool {
        self.min < other.max && other.min < self.max
    }
}

fn addr_range(part: &Trace) -> Option<AddrRange> {
    let mut range: Option<AddrRange> = None;
    let mut extend = |lo: Addr, hi: Addr| {
        let r = range.get_or_insert(AddrRange { min: lo, max: hi });
        r.min = r.min.min(lo);
        r.max = r.max.max(hi);
    };
    for te in &part.events {
        match &te.event {
            Event::Alloc { addr, size, .. } => extend(*addr, addr.saturating_add(u64::from(*size))),
            Event::LockInit { addr, .. }
            | Event::LockAcquire { addr, .. }
            | Event::LockRelease { addr, .. }
            | Event::MemAccess { addr, .. } => extend(*addr, addr.saturating_add(1)),
            _ => {}
        }
    }
    range
}

/// Validates one part's own time order: `Trace::push` asserts
/// monotonicity, so a regressing part must be a typed error before its
/// events are appended, not a panic mid-merge.
fn check_time_order(part: usize, events: &[TraceEvent]) -> Result<(), MergeError> {
    match events.windows(2).position(|w| w[1].ts < w[0].ts) {
        Some(wi) => Err(MergeError::NonMonotonic {
            part,
            event_index: wi + 1,
        }),
        None => Ok(()),
    }
}

/// The merged id of part-local id `index` under `map`; an id that was
/// already dangling stays dangling.
fn remap<T: Copy>(map: &[T], index: usize, dangling: T) -> T {
    map.get(index).copied().unwrap_or(dangling)
}

/// The merged trace so far, the time base the next part is rebased onto,
/// and the number of allocation ids handed out.
#[derive(Default)]
struct Merger {
    out: Trace,
    ts_base: u64,
    allocs: u64,
}

impl Merger {
    /// Appends one time-ordered part through the one per-event rewrite of
    /// every merge (see the module docs); `shift` moves its addresses.
    fn append(
        &mut self,
        meta: &TraceMeta,
        events: impl IntoIterator<Item = TraceEvent>,
        shift: impl Fn(Addr) -> Addr,
    ) -> Result<(), MergeError> {
        let maps = union_meta(self.out.meta_mut(), meta)?;
        let sym = |s: Sym| remap(&maps.syms, s.index(), Sym(INVALID));
        // Alloc ids are renumbered densely in first-appearance order; a
        // `Free` of a never-allocated id also claims a fresh id, keeping it
        // dangling in the merged trace as well.
        let mut alloc_ids: HashMap<AllocId, AllocId> = HashMap::new();
        let allocs = &mut self.allocs;
        let mut alloc = |id: AllocId| {
            *alloc_ids.entry(id).or_insert_with(|| {
                *allocs += 1;
                AllocId(*allocs)
            })
        };
        let mut last_ts = 0;
        for TraceEvent { ts, mut event } in events {
            match &mut event {
                Event::LockInit { addr, name, .. } => {
                    *addr = shift(*addr);
                    *name = sym(*name);
                }
                Event::Alloc {
                    id,
                    addr,
                    data_type,
                    subclass,
                    ..
                } => {
                    *id = alloc(*id);
                    *addr = shift(*addr);
                    *data_type = remap(&maps.data_types, data_type.index(), DataTypeId(INVALID));
                    *subclass = subclass.map(sym);
                }
                Event::Free { id } => *id = alloc(*id),
                Event::LockAcquire { addr, loc, .. }
                | Event::LockRelease { addr, loc }
                | Event::MemAccess { addr, loc, .. } => {
                    *addr = shift(*addr);
                    loc.file = sym(loc.file);
                }
                Event::FnEnter { func } | Event::FnExit { func } => {
                    *func = remap(&maps.functions, func.index(), FnId(INVALID));
                }
                Event::TaskSwitch { task } => {
                    *task = remap(&maps.tasks, task.index(), TaskId(INVALID));
                }
                Event::ContextEnter { .. } | Event::ContextExit { .. } => {}
            }
            // Saturating: rebased time near u64::MAX clamps instead of
            // panicking; monotonicity is preserved either way.
            self.out.push(self.ts_base.saturating_add(ts), event);
            last_ts = ts;
        }
        self.ts_base = self.ts_base.saturating_add(last_ts);
        Ok(())
    }
}

/// Concatenates `parts` into one trace (see the module docs for the
/// remapping rules). Parts must occupy pairwise disjoint address ranges;
/// overlapping parts are rejected with a descriptive error.
pub fn concat_traces(parts: Vec<Trace>) -> Result<Trace, MergeError> {
    for (pi, part) in parts.iter().enumerate() {
        check_time_order(pi, &part.events)?;
    }

    // Reject address collisions up front: they would silently corrupt
    // allocation resolution after the merge.
    let ranges: Vec<Option<AddrRange>> = parts.iter().map(addr_range).collect();
    for i in 0..ranges.len() {
        for j in i + 1..ranges.len() {
            if let (Some(a), Some(b)) = (&ranges[i], &ranges[j]) {
                if a.overlaps(b) {
                    return Err(MergeError::AddressOverlap {
                        first: i,
                        second: j,
                        first_range: (a.min, a.max),
                        second_range: (b.min, b.max),
                    });
                }
            }
        }
    }

    let mut merger = Merger::default();
    for Trace { meta, events } in parts {
        merger.append(&meta, events, |addr| addr)?;
    }
    Ok(merger.out)
}

/// Renames every task of part `part_idx` to `"{name}.t{part_idx}"`.
///
/// Independently recorded traces reuse the same task names (a recorder's
/// worker threads are `worker-0`, `worker-1`, … in every run), and
/// [`union_meta`] merges tasks by name — so without the rename, one
/// part's tasks would continue the *flows* of a previous part's
/// same-named tasks across the merge boundary. The importer keeps an
/// open lock-free transaction per flow that only a lock operation in
/// that flow closes, so a continued flow can silently absorb the next
/// part's first lock-free accesses into the previous part's transaction.
/// Per-part task names make every task flow part-fresh.
fn isolate_part_tasks(meta: &mut TraceMeta, part_idx: usize) {
    for name in &mut meta.tasks {
        *name = format!("{name}.t{part_idx}");
    }
}

/// Folds *independently recorded* corpus members into one trace, one
/// member at a time. Per-trace analysis results merge exactly into
/// whole-corpus results only if no importer flow spans a member
/// boundary, so on top of the rewrite every merge does,
/// [`CorpusMerge::push`]
/// - renames the member's tasks to `"{name}.t{i}"` (see
///   [`isolate_part_tasks`]);
/// - writes the member's initial task switch: the importer starts every
///   trace in task 0 and recorders leave that switch implicit, so without
///   it the member's leading events would run in the previous member's
///   flow;
/// - ends what the previous member left open in the interrupt flows,
///   which the importer keys by context kind alone, so every member
///   shares them ([`irq_exits`]): a member cut short inside an interrupt
///   handler (a truncated container, say) would otherwise run the next
///   member's events in that handler's flow, with its locks held;
/// - shifts the member's addresses into the next free window, laid out
///   left to right from each member's minimum address with a one-page
///   gap. The shift is a pure function of the members in order, and
///   analysis results are offset-invariant: a constant shift keeps every
///   within-member address relationship (allocation containment,
///   embedded-lock offsets), and addresses never appear in output.
#[derive(Default)]
pub struct CorpusMerge {
    merger: Merger,
    /// End of the last member's address window.
    window_end: Addr,
    /// Members folded so far.
    parts: usize,
    /// What ends the last member's open interrupt work, in merged ids.
    irq_exits: Vec<Event>,
}

impl CorpusMerge {
    /// Folds the next member in. After an error the merge is incomplete
    /// and should be dropped.
    pub fn push(&mut self, part: Trace) -> Result<(), MergeError> {
        const GUARD: Addr = 0x1000;
        let i = self.parts;
        check_time_order(i, &part.events)?;
        let (from, to) = match addr_range(&part) {
            Some(range) => {
                let to = self.window_end.saturating_add(GUARD);
                self.window_end = to.saturating_add(range.max.saturating_sub(range.min));
                (range.min, to)
            }
            None => (0, 0), // no addresses, nothing to shift
        };
        let mut meta = TraceMeta::clone(&part.meta);
        isolate_part_tasks(&mut meta, i);
        // Equal timestamps are fine: monotonicity is non-strict.
        let initial_task = part
            .events
            .first()
            .filter(|_| !meta.tasks.is_empty())
            .map(|first| TraceEvent {
                ts: first.ts,
                event: Event::TaskSwitch { task: TaskId(0) },
            });
        let ts_end = self.merger.ts_base;
        for event in self.irq_exits.drain(..) {
            self.merger.out.push(ts_end, event);
        }
        let start = self.merger.out.events.len();
        let events = initial_task.into_iter().chain(part.events);
        let shift = |addr: Addr| to.saturating_add(addr.saturating_sub(from));
        self.merger.append(&meta, events, shift)?;
        self.irq_exits = irq_exits(&self.merger.out.events[start..]);
        self.parts += 1;
        Ok(())
    }

    /// Members folded so far.
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The merged trace. The last member's ends stay as they are: nothing
    /// follows them.
    pub fn finish(self) -> Trace {
        self.merger.out
    }
}

/// The events that end what `events` leave open in the interrupt flows:
/// for each interrupt context still entered, innermost first, a release
/// of every lock its flow still holds and an exit from every function it
/// has not left, newest first, then the context's exit. A flow whose
/// handler exited holding a lock or inside a function (a damaged release
/// record that salvage skipped, say) is entered once more to be unwound
/// the same way. Locks and frames are followed as the importer follows
/// them: a release undoes the latest acquisition of its address, a
/// function exit unwinds to its frame.
fn irq_exits(events: &[TraceEvent]) -> Vec<Event> {
    let mut entered: Vec<ContextKind> = Vec::new();
    // Held locks and open frames per interrupt flow, indexed by context tag.
    let mut held: [Vec<(Addr, SourceLoc)>; 3] = Default::default();
    let mut frames: [Vec<FnId>; 3] = Default::default();
    for te in events {
        let flow = entered.last().map(|k| usize::from(k.tag()));
        match (&te.event, flow) {
            (Event::ContextEnter { kind }, _) => entered.push(*kind),
            (Event::ContextExit { kind }, _) if entered.last() == Some(kind) => {
                entered.pop();
            }
            (Event::LockAcquire { addr, loc, .. }, Some(f)) => held[f].push((*addr, *loc)),
            (Event::LockRelease { addr, .. }, Some(f)) => {
                if let Some(pos) = held[f].iter().rposition(|h| h.0 == *addr) {
                    held[f].remove(pos);
                }
            }
            (Event::FnEnter { func }, Some(f)) => frames[f].push(*func),
            (Event::FnExit { func }, Some(f)) => {
                if let Some(pos) = frames[f].iter().rposition(|g| g == func) {
                    frames[f].truncate(pos);
                }
            }
            _ => {}
        }
    }
    let exited: Vec<ContextKind> = [ContextKind::Softirq, ContextKind::Hardirq]
        .into_iter()
        .filter(|k| {
            let f = usize::from(k.tag());
            let open = !held[f].is_empty() || !frames[f].is_empty();
            open && !entered.contains(k)
        })
        .collect();
    let unwind = entered.iter().rev().map(|&k| (k, false));
    let mut exits = Vec::new();
    for (kind, reenter) in unwind.chain(exited.into_iter().map(|k| (k, true))) {
        if reenter {
            exits.push(Event::ContextEnter { kind });
        }
        let f = usize::from(kind.tag());
        let releases = held[f].drain(..).rev();
        exits.extend(releases.map(|(addr, loc)| Event::LockRelease { addr, loc }));
        exits.extend(frames[f].drain(..).rev().map(|func| Event::FnExit { func }));
        exits.push(Event::ContextExit { kind });
    }
    exits
}

/// Predicts the metadata of a [`CorpusMerge`] of traces with these
/// metadata tables, in this order — no events needed. The corpus layer
/// uses this to map cached per-trace results onto merged ids without
/// re-decoding any trace; the merge and this function must agree byte
/// for byte (they share [`union_meta`] and [`isolate_part_tasks`]).
pub fn corpus_meta(metas: &[TraceMeta]) -> Result<TraceMeta, MergeError> {
    let mut out = TraceMeta::default();
    for (i, meta) in metas.iter().enumerate() {
        let mut part = meta.clone();
        isolate_part_tasks(&mut part, i);
        union_meta(&mut out, &part)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::import;
    use crate::event::{AccessKind, LockFlavor, MemberDef};
    use crate::filter::FilterConfig;

    /// Folds `parts` in order through one [`CorpusMerge`].
    fn corpus_merge(parts: Vec<Trace>) -> Result<Trace, MergeError> {
        let mut merge = CorpusMerge::default();
        for part in parts {
            merge.push(part)?;
        }
        Ok(merge.finish())
    }

    fn alloc_addrs(tr: &Trace) -> Vec<Addr> {
        tr.events
            .iter()
            .filter_map(|e| match e.event {
                Event::Alloc { addr, .. } => Some(addr),
                _ => None,
            })
            .collect()
    }

    fn toy_type() -> DataTypeDef {
        DataTypeDef {
            name: "obj".into(),
            size: 8,
            members: vec![MemberDef {
                name: "val".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        }
    }

    fn part(base_addr: Addr, task: &str) -> Trace {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("obj.c");
        let dt = tr.meta_mut().add_data_type(toy_type());
        let t = tr.meta_mut().add_task(task);
        let f = tr.meta_mut().add_function("touch");
        tr.push(1, Event::TaskSwitch { task: t });
        tr.push(
            2,
            Event::Alloc {
                id: AllocId(1),
                addr: base_addr,
                size: 8,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(3, Event::FnEnter { func: f });
        tr.push(
            4,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: base_addr,
                size: 8,
                loc: SourceLoc::new(file, 1),
                atomic: false,
            },
        );
        tr.push(5, Event::FnExit { func: f });
        tr.push(6, Event::Free { id: AllocId(1) });
        tr
    }

    #[test]
    fn concat_rebases_timestamps_and_alloc_ids() {
        let merged = concat_traces(vec![part(0x1000, "a"), part(0x2000, "b")]).unwrap();
        assert_eq!(merged.events.len(), 12);
        // Timestamps keep increasing across the boundary.
        let ts: Vec<u64> = merged.events.iter().map(|e| e.ts).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(ts[6], 6 + 1);
        // Both allocations survive with distinct dense ids.
        let ids: Vec<AllocId> = merged
            .events
            .iter()
            .filter_map(|e| match e.event {
                Event::Alloc { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(ids, vec![AllocId(1), AllocId(2)]);
        // Shared metadata is unioned by name, per-part tasks are kept.
        assert_eq!(merged.meta.data_types.len(), 1);
        assert_eq!(merged.meta.functions, vec!["touch".to_owned()]);
        assert_eq!(merged.meta.tasks, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn concat_output_imports_cleanly() {
        let merged = concat_traces(vec![part(0x1000, "a"), part(0x2000, "b")]).unwrap();
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.invalid_events, 0);
        assert_eq!(db.allocations.len(), 2);
        assert_eq!(db.accesses.len(), 2);
        assert_eq!(db.stats.unresolved, 0);
    }

    #[test]
    fn concat_rejects_overlapping_address_ranges() {
        let err = concat_traces(vec![part(0x1000, "a"), part(0x1004, "b")]).unwrap_err();
        assert!(
            matches!(
                err,
                MergeError::AddressOverlap {
                    first: 0,
                    second: 1,
                    ..
                }
            ),
            "{err}"
        );
        assert!(err.to_string().contains("overlap"), "{err}");
    }

    #[test]
    fn concat_rejects_conflicting_type_layouts() {
        let a = part(0x1000, "a");
        let mut b = part(0x2000, "b");
        b.meta_mut().data_types[0].size = 16;
        let err = concat_traces(vec![a, b]).unwrap_err();
        assert_eq!(
            err,
            MergeError::ConflictingLayout {
                type_name: "obj".into()
            }
        );
        assert!(err.to_string().contains("conflicting layouts"), "{err}");
    }

    #[test]
    fn concat_rejects_time_travelling_parts() {
        let good = part(0x1000, "a");
        // Build a regressing part via a struct literal: `Trace::push`
        // asserts monotonicity, which is exactly what a hostile or buggy
        // recorder bypasses.
        let mut bad = part(0x2000, "b");
        bad.events[3].ts = 1; // was 4, after event 2 at ts 3
        let bad = Trace {
            meta: bad.meta.clone(),
            events: bad.events,
        };
        let err = concat_traces(vec![good, bad]).unwrap_err();
        assert_eq!(
            err,
            MergeError::NonMonotonic {
                part: 1,
                event_index: 3
            }
        );
    }

    #[test]
    fn corpus_merge_accepts_overlapping_parts() {
        // Identical address bases — plain concat refuses, the corpus merge
        // shifts the second part into its own window.
        let a = part(0x1000, "a");
        let b = part(0x1000, "b");
        assert!(concat_traces(vec![a.clone(), b.clone()]).is_err());
        let merged = corpus_merge(vec![a, b]).unwrap();
        assert_eq!(alloc_addrs(&merged), vec![0x1000, 0x1000 + 8 + 0x1000]);
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.invalid_events, 0);
        assert_eq!(db.allocations.len(), 2);
        assert_eq!(db.accesses.len(), 2);
        assert_eq!(db.stats.unresolved, 0);
    }

    #[test]
    fn corpus_merge_is_deterministic_and_rebases_like_concat() {
        let parts = || vec![part(0x1000, "a"), part(0x1000, "b"), part(0x4000, "c")];
        let m1 = corpus_merge(parts()).unwrap();
        let m2 = corpus_merge(parts()).unwrap();
        assert_eq!(m1, m2, "the corpus merge is a pure function of the parts");
        // Time and allocation ids continue across parts exactly as under
        // plain concatenation; each part gains one leading task switch.
        let plain = concat_traces(vec![part(0x1000, "a"), part(0x2000, "b")]).unwrap();
        let merged = corpus_merge(vec![part(0x1000, "a"), part(0x2000, "b")]).unwrap();
        assert_eq!(merged.events.len(), plain.events.len() + 2);
        let ts = |tr: &Trace| tr.events.iter().map(|e| e.ts).collect::<Vec<u64>>();
        let mut expect = ts(&plain);
        expect.insert(6, expect[6]);
        expect.insert(0, expect[0]);
        assert_eq!(ts(&merged), expect);
    }

    #[test]
    fn corpus_merge_isolates_task_flows() {
        // Same-named tasks merge into one flow under plain concat: the
        // first part's still-open lock-free transaction absorbs the second
        // part's access.
        let bridged = concat_traces(vec![part(0x1000, "worker"), part(0x2000, "worker")]).unwrap();
        let db = import(&bridged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.access(0).txn, db.access(1).txn);
        // The corpus merge renames tasks per part, keeping each part's
        // flows (and thus transactions) to itself.
        let merged = corpus_merge(vec![part(0x1000, "worker"), part(0x1000, "worker")]).unwrap();
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.invalid_events, 0);
        assert_ne!(db.access(0).txn, db.access(1).txn);
        assert_eq!(
            merged.meta.tasks,
            vec!["worker.t0".to_owned(), "worker.t1".to_owned()]
        );
    }

    #[test]
    fn corpus_merge_materializes_implicit_initial_task() {
        // Recorders leave the initial task switch implicit when execution
        // starts on task 0; the corpus merge must inject it or the part's
        // leading events run in the previous part's flow.
        let implicit = |task: &str| {
            let mut tr = part(0x1000, task);
            tr.events.remove(0); // drop the explicit TaskSwitch
            tr
        };
        let merged = corpus_merge(vec![implicit("worker"), implicit("worker")]).unwrap();
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.invalid_events, 0);
        assert_ne!(db.access(0).txn, db.access(1).txn);
    }

    #[test]
    fn corpus_merge_refuses_what_concat_refuses() {
        let mut b = part(0x1000, "b");
        b.meta_mut().data_types[0].size = 16;
        assert_eq!(
            corpus_merge(vec![part(0x1000, "a"), b]).unwrap_err(),
            MergeError::ConflictingLayout {
                type_name: "obj".into()
            }
        );
        let mut bad = part(0x1000, "b");
        bad.events[3].ts = 1;
        let bad = Trace {
            meta: bad.meta.clone(),
            events: bad.events,
        };
        assert_eq!(
            corpus_merge(vec![part(0x1000, "a"), bad]).unwrap_err(),
            MergeError::NonMonotonic {
                part: 1,
                event_index: 3
            }
        );
    }

    #[test]
    fn corpus_meta_predicts_merged_metadata() {
        let parts = || {
            vec![
                part(0x1000, "worker"),
                part(0x1000, "worker"),
                part(0x4000, "other"),
            ]
        };
        let merged = corpus_merge(parts()).unwrap();
        let metas: Vec<TraceMeta> = parts().iter().map(|p| (*p.meta).clone()).collect();
        let predicted = corpus_meta(&metas).unwrap();
        assert_eq!(*merged.meta, predicted);
    }

    #[test]
    fn union_meta_maps_ids_by_name() {
        let a = part(0x1000, "a");
        let b = part(0x2000, "b");
        let mut meta = TraceMeta::default();
        let ma = union_meta(&mut meta, &a.meta).unwrap();
        let mb = union_meta(&mut meta, &b.meta).unwrap();
        // Shared entities land on the same merged ids; per-part tasks don't.
        assert_eq!(ma.data_types, mb.data_types);
        assert_eq!(ma.functions, mb.functions);
        assert_ne!(ma.tasks, mb.tasks);
        assert_eq!(meta.tasks, vec!["a".to_owned(), "b".to_owned()]);
        // Conflicting layouts are refused.
        let mut c = part(0x3000, "c");
        c.meta_mut().data_types[0].size = 16;
        assert!(matches!(
            union_meta(&mut meta, &c.meta),
            Err(MergeError::ConflictingLayout { .. })
        ));
    }

    #[test]
    fn concat_keeps_dangling_ids_dangling() {
        let mut tr = Trace::new();
        tr.meta_mut().add_task("t");
        tr.push(1, Event::Free { id: AllocId(77) });
        tr.push(
            2,
            Event::LockInit {
                addr: 0x10,
                name: Sym(99), // dangling symbol
                flavor: LockFlavor::Mutex,
                is_static: true,
            },
        );
        let merged = concat_traces(vec![tr]).unwrap();
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        // The dangling LockInit stays invalid; the unknown free is counted
        // but registers nothing.
        assert_eq!(db.stats.invalid_events, 1);
        assert_eq!(db.stats.frees, 1);
        assert_eq!(db.allocations.len(), 0);
    }
}
