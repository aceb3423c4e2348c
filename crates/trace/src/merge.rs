//! Concatenation of independently recorded traces into one well-formed
//! trace, used by the sharded ksim workload runner: every shard records on
//! its own `Machine`, and the shards' traces are stitched together here.
//!
//! Each part keeps its events in order but gets
//! - its metadata unioned into the merged trace (strings by value, data
//!   types / functions / tasks by name),
//! - its timestamps rebased so simulated time keeps increasing across the
//!   shard boundary,
//! - its allocation ids densely renumbered so ids stay unique and strictly
//!   increasing across parts (keeping `TraceDb::allocation`'s binary
//!   search valid).
//!
//! Addresses are **not** rewritten: the caller must hand in parts with
//! disjoint address ranges (ksim derives a per-shard address base from the
//! shard index), and [`concat_traces`] rejects overlapping parts — an
//! allocation from one shard still live at its trace's end would otherwise
//! swallow or invalidate same-address allocations of later shards.

use crate::event::{DataTypeDef, Event, SourceLoc, Trace, TraceMeta};
use crate::ids::{Addr, AllocId, DataTypeId, FnId, Sym, TaskId};
use std::collections::HashMap;
use std::fmt;

/// Why [`concat_traces`] refused to merge its inputs.
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
/// This is *the* metadata-union rule: [`concat_traces`] applies it part by
/// part while rewriting events, and the corpus layer applies it to trace
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

/// Concatenates `parts` into one trace (see the module docs for the
/// remapping rules). Parts must occupy pairwise disjoint address ranges;
/// overlapping parts are rejected with a descriptive error.
pub fn concat_traces(parts: Vec<Trace>) -> Result<Trace, MergeError> {
    // Validate part-local time order up front: `Trace::push` asserts
    // monotonicity, so a regressing part must be a typed error here, not a
    // panic mid-merge.
    for (pi, part) in parts.iter().enumerate() {
        if let Some(wi) = part.events.windows(2).position(|w| w[1].ts < w[0].ts) {
            return Err(MergeError::NonMonotonic {
                part: pi,
                event_index: wi + 1,
            });
        }
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

    let mut out = Trace::new();
    let mut ts_base = 0u64;
    let mut next_alloc = 1u64;

    for part in parts {
        // --- Metadata union -------------------------------------------------
        let maps = union_meta(out.meta_mut(), &part.meta)?;

        let map_sym = |s: Sym| maps.syms.get(s.index()).copied().unwrap_or(Sym(INVALID));
        let map_dt = |d: DataTypeId| {
            maps.data_types
                .get(d.index())
                .copied()
                .unwrap_or(DataTypeId(INVALID))
        };
        let map_fn = |f: FnId| {
            maps.functions
                .get(f.index())
                .copied()
                .unwrap_or(FnId(INVALID))
        };
        let map_task = |t: TaskId| {
            maps.tasks
                .get(t.index())
                .copied()
                .unwrap_or(TaskId(INVALID))
        };
        let map_loc = |l: SourceLoc| SourceLoc::new(map_sym(l.file), l.line);

        // --- Event stream ---------------------------------------------------
        // Alloc ids are renumbered densely in first-appearance order; a
        // `Free` of a never-allocated id also claims a fresh id, keeping it
        // dangling in the merged trace as well.
        let mut alloc_map: HashMap<AllocId, AllocId> = HashMap::new();
        let mut map_alloc = |id: AllocId| {
            *alloc_map.entry(id).or_insert_with(|| {
                let fresh = AllocId(next_alloc);
                next_alloc += 1;
                fresh
            })
        };
        let part_last_ts = part.events.last().map(|e| e.ts).unwrap_or(0);
        for te in part.events {
            let ev = match te.event {
                Event::LockInit {
                    addr,
                    name,
                    flavor,
                    is_static,
                } => Event::LockInit {
                    addr,
                    name: map_sym(name),
                    flavor,
                    is_static,
                },
                Event::Alloc {
                    id,
                    addr,
                    size,
                    data_type,
                    subclass,
                } => Event::Alloc {
                    id: map_alloc(id),
                    addr,
                    size,
                    data_type: map_dt(data_type),
                    subclass: subclass.map(map_sym),
                },
                Event::Free { id } => Event::Free { id: map_alloc(id) },
                Event::LockAcquire { addr, mode, loc } => Event::LockAcquire {
                    addr,
                    mode,
                    loc: map_loc(loc),
                },
                Event::LockRelease { addr, loc } => Event::LockRelease {
                    addr,
                    loc: map_loc(loc),
                },
                Event::MemAccess {
                    kind,
                    addr,
                    size,
                    loc,
                    atomic,
                } => Event::MemAccess {
                    kind,
                    addr,
                    size,
                    loc: map_loc(loc),
                    atomic,
                },
                Event::FnEnter { func } => Event::FnEnter { func: map_fn(func) },
                Event::FnExit { func } => Event::FnExit { func: map_fn(func) },
                Event::TaskSwitch { task } => Event::TaskSwitch {
                    task: map_task(task),
                },
                Event::ContextEnter { kind } => Event::ContextEnter { kind },
                Event::ContextExit { kind } => Event::ContextExit { kind },
            };
            // Saturating: rebased time near u64::MAX clamps instead of
            // panicking; monotonicity is preserved either way.
            out.push(ts_base.saturating_add(te.ts), ev);
        }
        ts_base = ts_base.saturating_add(part_last_ts);
    }
    Ok(out)
}

/// Shifts each part's addresses into pairwise disjoint windows, so parts
/// that collide in address space can be concatenated: independently
/// recorded corpus traces all start at the recorder's default address
/// base, and [`concat_traces`] would reject them.
///
/// Every part is normalized to its own minimum address, then the windows
/// are laid out left to right with a one-page guard gap. The shift is a
/// pure function of the parts' contents in order, so the merged trace is
/// deterministic; descriptors and all analysis results are
/// offset-invariant because a constant shift preserves every within-part
/// address relationship (allocation containment, embedded-lock offsets)
/// and addresses never appear in analysis output.
fn rebase_parts(parts: Vec<Trace>) -> Vec<Trace> {
    const GUARD: Addr = 0x1000;
    let mut next_base: Addr = GUARD;
    parts
        .into_iter()
        .map(|part| {
            let Some(range) = addr_range(&part) else {
                return part; // no addresses, nothing to shift
            };
            let base = next_base;
            let width = range.max.saturating_sub(range.min);
            next_base = next_base.saturating_add(width).saturating_add(GUARD);
            let shift = |a: Addr| base.saturating_add(a.saturating_sub(range.min));
            let events = part
                .events
                .iter()
                .map(|te| {
                    let event = match te.event.clone() {
                        Event::Alloc {
                            id,
                            addr,
                            size,
                            data_type,
                            subclass,
                        } => Event::Alloc {
                            id,
                            addr: shift(addr),
                            size,
                            data_type,
                            subclass,
                        },
                        Event::LockInit {
                            addr,
                            name,
                            flavor,
                            is_static,
                        } => Event::LockInit {
                            addr: shift(addr),
                            name,
                            flavor,
                            is_static,
                        },
                        Event::LockAcquire { addr, mode, loc } => Event::LockAcquire {
                            addr: shift(addr),
                            mode,
                            loc,
                        },
                        Event::LockRelease { addr, loc } => Event::LockRelease {
                            addr: shift(addr),
                            loc,
                        },
                        Event::MemAccess {
                            kind,
                            addr,
                            size,
                            loc,
                            atomic,
                        } => Event::MemAccess {
                            kind,
                            addr: shift(addr),
                            size,
                            loc,
                            atomic,
                        },
                        other => other,
                    };
                    crate::event::TraceEvent { ts: te.ts, event }
                })
                .collect();
            Trace {
                meta: part.meta,
                events,
            }
        })
        .collect()
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

/// [`concat_traces`] for *independently recorded* corpus traces, with
/// their addresses rebased ([`rebase_parts`]) and the per-part flow
/// isolation the corpus derivation layer depends on: per-trace analysis
/// results merge exactly into whole-corpus results only if no importer
/// flow spans a part boundary.
///
/// On top of address rebasing this
/// - renames each part's tasks to `"{name}.t{i}"` (see
///   [`isolate_part_tasks`]), and
/// - materializes each part's initial task: the importer starts every
///   trace in task 0, and recorders leave that first switch implicit, so
///   a leading `TaskSwitch` to task 0 is injected (at the part's first
///   timestamp) for every part that declares tasks. Without it, a part's
///   leading events would run in whatever flow the previous part ended
///   in.
///
/// Interrupt flows need no such isolation here, but they do constrain
/// the inputs: parts must be *quiescent* at their ends (all locks
/// released, contexts exited, function stacks unwound) for the merged
/// trace to be equivalent to the parts analyzed separately.
pub fn concat_traces_corpus(parts: Vec<Trace>) -> Result<Trace, MergeError> {
    let prepared: Vec<Trace> = rebase_parts(parts)
        .into_iter()
        .enumerate()
        .map(|(i, mut part)| {
            isolate_part_tasks(part.meta_mut(), i);
            if !part.meta.tasks.is_empty() {
                if let Some(first_ts) = part.events.first().map(|e| e.ts) {
                    // Equal timestamps are fine: monotonicity is non-strict.
                    part.events.insert(
                        0,
                        crate::event::TraceEvent {
                            ts: first_ts,
                            event: Event::TaskSwitch { task: TaskId(0) },
                        },
                    );
                }
            }
            part
        })
        .collect();
    concat_traces(prepared)
}

/// Predicts the metadata of [`concat_traces_corpus`]'s output from the
/// parts' metadata alone — no events needed. The corpus layer uses this
/// to map cached per-trace results onto merged ids without re-decoding
/// any trace; [`concat_traces_corpus`] and this function must agree byte
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

    /// Address rebasing alone, without the corpus flow isolation.
    fn concat_traces_rebased(parts: Vec<Trace>) -> Result<Trace, MergeError> {
        concat_traces(rebase_parts(parts))
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
    fn rebased_concat_accepts_overlapping_parts() {
        // Identical address bases — plain concat refuses, rebased merges.
        let a = part(0x1000, "a");
        let b = part(0x1000, "b");
        assert!(concat_traces(vec![a.clone(), b.clone()]).is_err());
        let merged = concat_traces_rebased(vec![a, b]).unwrap();
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.invalid_events, 0);
        assert_eq!(db.allocations.len(), 2);
        assert_eq!(db.accesses.len(), 2);
        assert_eq!(db.stats.unresolved, 0);
    }

    #[test]
    fn rebased_concat_is_deterministic_and_meta_matches_union() {
        let parts = || vec![part(0x1000, "a"), part(0x1000, "b"), part(0x4000, "c")];
        let m1 = concat_traces_rebased(parts()).unwrap();
        let m2 = concat_traces_rebased(parts()).unwrap();
        assert_eq!(m1, m2, "rebased merge is a pure function of the parts");
        // The merged metadata is predictable from headers alone via
        // union_meta — the corpus layer depends on this equivalence.
        let mut meta = TraceMeta::default();
        for p in parts() {
            union_meta(&mut meta, &p.meta).unwrap();
        }
        assert_eq!(*m1.meta, meta);
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
    fn corpus_concat_isolates_task_flows() {
        let parts = || vec![part(0x1000, "worker"), part(0x1000, "worker")];
        // Same-named tasks merge into one flow under plain rebased concat:
        // the first part's still-open lock-free transaction absorbs the
        // second part's access.
        let bridged = concat_traces_rebased(parts()).unwrap();
        let db = import(&bridged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.accesses.get(0).txn, db.accesses.get(1).txn);
        // Corpus concat renames tasks per part, keeping each part's flows
        // (and thus transactions) to itself.
        let merged = concat_traces_corpus(parts()).unwrap();
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.invalid_events, 0);
        assert!(db.accesses.get(0).txn.is_some());
        assert_ne!(db.accesses.get(0).txn, db.accesses.get(1).txn);
        assert_eq!(
            merged.meta.tasks,
            vec!["worker.t0".to_owned(), "worker.t1".to_owned()]
        );
    }

    #[test]
    fn corpus_concat_materializes_implicit_initial_task() {
        // Recorders leave the initial task switch implicit when execution
        // starts on task 0; corpus concat must inject it or the part's
        // leading events run in the previous part's flow.
        let implicit = |task: &str| {
            let mut tr = part(0x1000, task);
            tr.events.remove(0); // drop the explicit TaskSwitch
            tr
        };
        let merged = concat_traces_corpus(vec![implicit("worker"), implicit("worker")]).unwrap();
        let db = import(&merged, &FilterConfig::with_defaults(), 1);
        assert_eq!(db.stats.invalid_events, 0);
        assert!(db.accesses.get(0).txn.is_some());
        assert_ne!(db.accesses.get(0).txn, db.accesses.get(1).txn);
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
        let merged = concat_traces_corpus(parts()).unwrap();
        let metas: Vec<TraceMeta> = parts().iter().map(|p| (*p.meta).clone()).collect();
        let predicted = corpus_meta(&metas).unwrap();
        assert_eq!(*merged.meta, predicted);
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
