//! Corpus-scale incremental derivation: per-trace observation matrices
//! that merge *exactly* into whole-corpus mined rules.
//!
//! The pipeline's unit of evidence is the [`Observation`]: a resolved
//! held-lock descriptor sequence plus the number of observation units
//! exhibiting it. Observation units `(transaction, allocation)` never
//! span traces when a corpus is merged with
//! [`lockdoc_trace::merge::CorpusMerge`] (per-part task-flow
//! isolation), and lock descriptors are address-free — so the corpus-wide
//! observation list of a `(group, member, kind)` triple is simply the
//! per-trace lists merged by summing counts per identical sequence. That
//! makes the [`TraceMatrix`] — all aggregated observations of one trace —
//! a *sufficient statistic* for derivation: [`derive_corpus`] over
//! per-trace matrices is byte-identical to
//! [`crate::derive::derive`] over the merged trace, without ever
//! re-importing unchanged traces.
//!
//! Two cache layers exploit this:
//! - [`write_matrix_artifact`]/[`read_matrix_artifact`] persist a trace's
//!   matrix as a checksummed `LDMATX` sibling file keyed by the raw trace
//!   bytes, the import filter, and the derivation config. Any mismatch —
//!   wrong key, flipped bit, truncation, trailing bytes — is a clean
//!   miss (`None`), never a wrong answer.
//! - [`derive_corpus`] fingerprints every merged group by its
//!   contributing traces (plus config and merged ids) and reuses the
//!   previous run's [`GroupRules`] byte-identically when the fingerprint
//!   matches: adding or dropping one trace re-derives only the groups
//!   that trace touches.

use crate::derive::{mine_group, DeriveConfig, GroupRules, MinedRules};
use crate::evidence::EvidenceIndex;
use crate::hypothesis::Observation;
use crate::lockset::LockDescriptor;
use lockdoc_platform::artifact::{self, Reader, Writer};
use lockdoc_platform::hash::fnv1a;
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::{AccessKind, TraceMeta};
use lockdoc_trace::ids::{DataTypeId, Sym};
use std::collections::BTreeMap;

/// All aggregated observations of one member of one observation group.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberObs {
    /// Member index in the type layout.
    pub member: u32,
    /// Member name (denormalized so merging needs no database).
    pub member_name: String,
    /// Aggregated read observations, sorted by lock sequence.
    pub read: Vec<Observation>,
    /// Aggregated write observations, sorted by lock sequence.
    pub write: Vec<Observation>,
}

impl MemberObs {
    /// The aggregated observation list of one access kind.
    pub fn observations(&self, kind: AccessKind) -> &[Observation] {
        match kind {
            AccessKind::Read => &self.read,
            AccessKind::Write => &self.write,
        }
    }
}

/// One observation group's slice of a [`TraceMatrix`]. Groups are keyed
/// by *names* rather than ids: per-trace ids shift when metadata is
/// unioned across a corpus, names do not.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupMatrix {
    /// Data type name.
    pub type_name: String,
    /// Subclass discriminator, e.g. `ext4` for `inode:ext4`.
    pub subclass: Option<String>,
    /// Per-member observations, ordered by member index. Empty when the
    /// group's accesses all fell outside transactions — the group still
    /// appears so the corpus emits the same (possibly rule-less) group
    /// set as a batch derivation.
    pub members: Vec<MemberObs>,
}

/// The per-trace derivation cache: every observation group's aggregated
/// observations, in the trace's group order. This is the sufficient
/// statistic for rule mining — see the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMatrix {
    /// Observation groups in deterministic (type, subclass) order.
    pub groups: Vec<GroupMatrix>,
}

/// Builds the full observation matrix of one imported trace: the
/// observation lists of its [`EvidenceIndex`]. `_jobs` is unused, as in
/// [`crate::derive::derive_par`].
pub fn build_trace_matrix(db: &TraceDb, _jobs: usize) -> TraceMatrix {
    EvidenceIndex::build(db).trace_matrix()
}

/// Merges member observation lists that share no observation unit —
/// per-trace matrices of one corpus group, or one type's subclass groups
/// — by summing counts per identical lock sequence. The result is the
/// list [`crate::hypothesis::observations_for`] would aggregate over the
/// union of their units: members ascending, each list sorted by lock
/// sequence, the member name taken from its first contributor.
pub(crate) fn merge_members<'a>(
    lists: impl IntoIterator<Item = &'a [MemberObs]>,
) -> Vec<MemberObs> {
    type Counts = BTreeMap<Vec<LockDescriptor>, u64>;
    let mut merged: BTreeMap<u32, (String, Counts, Counts)> = BTreeMap::new();
    for list in lists {
        for mo in list {
            let (_, read, write) = merged
                .entry(mo.member)
                .or_insert_with(|| (mo.member_name.clone(), Counts::new(), Counts::new()));
            for (into, from) in [(read, &mo.read), (write, &mo.write)] {
                for o in from {
                    *into.entry(o.locks.clone()).or_insert(0) += o.count;
                }
            }
        }
    }
    let list = |counts: Counts| {
        counts
            .into_iter()
            .map(|(locks, count)| Observation { locks, count })
            .collect()
    };
    merged
        .into_iter()
        .map(|(member, (member_name, read, write))| MemberObs {
            member,
            member_name,
            read: list(read),
            write: list(write),
        })
        .collect()
}

/// Fingerprint of everything in a [`DeriveConfig`] that can change mined
/// rules. Float parameters hash by exact bit pattern — two configs
/// fingerprint equal iff they derive identically.
pub fn derive_fingerprint(config: &DeriveConfig) -> u64 {
    let canonical = format!(
        "t:{:016x}\ns:{:?}\nc:{:016x}\nm:{}\n",
        config.selection.accept_threshold.to_bits(),
        config.selection.strategy,
        config.cutoff.to_bits(),
        config.min_units
    );
    fnv1a(canonical.as_bytes())
}

/// Magic prefix of a serialized matrix artifact.
const MATRIX_MAGIC: &[u8; 8] = b"LDMATX1\0";
/// Bump on any layout or frame checksum change; readers reject other
/// versions.
const MATRIX_VERSION: u32 = 3;

fn write_lock(w: &mut Writer, l: &LockDescriptor) {
    let (tag, name, type_name) = match l {
        LockDescriptor::Global { name } => (0, name, None),
        LockDescriptor::EmbeddedSame { member, type_name } => (1, member, Some(type_name)),
        LockDescriptor::EmbeddedOther { member, type_name } => (2, member, Some(type_name)),
        LockDescriptor::Pseudo { name } => (3, name, None),
    };
    w.u8(tag);
    w.str(name);
    if let Some(t) = type_name {
        w.str(t);
    }
}

fn read_lock(r: &mut Reader) -> Option<LockDescriptor> {
    Some(match r.u8()? {
        0 => LockDescriptor::Global { name: r.str()? },
        1 => LockDescriptor::EmbeddedSame {
            member: r.str()?,
            type_name: r.str()?,
        },
        2 => LockDescriptor::EmbeddedOther {
            member: r.str()?,
            type_name: r.str()?,
        },
        3 => LockDescriptor::Pseudo { name: r.str()? },
        _ => return None,
    })
}

fn write_obs_list(w: &mut Writer, obs: &[Observation]) {
    w.len(obs.len());
    for o in obs {
        w.len(o.locks.len());
        for l in &o.locks {
            write_lock(w, l);
        }
        w.u64(o.count);
    }
}

fn read_obs_list(r: &mut Reader) -> Option<Vec<Observation>> {
    let n = r.len(16)?; // locks count + unit count
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let n_locks = r.len(9)?; // tag + one length prefix
        let mut locks = Vec::with_capacity(n_locks);
        for _ in 0..n_locks {
            locks.push(read_lock(r)?);
        }
        let count = r.u64()?;
        out.push(Observation { locks, count });
    }
    Some(out)
}

/// Serializes a [`TraceMatrix`] as an `LDMATX` artifact: a
/// [`lockdoc_platform::artifact`] frame keyed by the source trace's byte
/// checksum, the import filter fingerprint, and the derivation-config
/// fingerprint.
pub fn write_matrix_artifact(
    matrix: &TraceMatrix,
    trace_checksum: u64,
    filter_fp: u64,
    derive_fp: u64,
) -> Vec<u8> {
    let keys = [trace_checksum, filter_fp, derive_fp];
    let mut w = Writer::new(MATRIX_MAGIC, MATRIX_VERSION, &keys, 0);
    w.len(matrix.groups.len());
    for g in &matrix.groups {
        w.str(&g.type_name);
        match &g.subclass {
            Some(s) => {
                w.u8(1);
                w.str(s);
            }
            None => w.u8(0),
        }
        w.len(g.members.len());
        for m in &g.members {
            w.u32(m.member);
            w.str(&m.member_name);
            write_obs_list(&mut w, &m.read);
            write_obs_list(&mut w, &m.write);
        }
    }
    w.seal()
}

/// Deserializes an `LDMATX` artifact, returning `None` — a clean cache
/// miss, triggering re-derivation from the trace — on *any* anomaly: a
/// frame that does not open under these keys, out-of-range lengths, bad
/// tags, or trailing bytes.
pub fn read_matrix_artifact(
    bytes: &[u8],
    trace_checksum: u64,
    filter_fp: u64,
    derive_fp: u64,
) -> Option<TraceMatrix> {
    let keys = [trace_checksum, filter_fp, derive_fp];
    let mut r = Reader::new(artifact::open(bytes, MATRIX_MAGIC, MATRIX_VERSION, &keys)?);
    let n_groups = r.len(17)?; // name prefix + subclass flag + member count
    let mut groups = Vec::with_capacity(n_groups);
    for _ in 0..n_groups {
        let type_name = r.str()?;
        let subclass = match r.u8()? {
            0 => None,
            1 => Some(r.str()?),
            _ => return None,
        };
        let n_members = r.len(28)?; // member + name prefix + two list prefixes
        let mut members = Vec::with_capacity(n_members);
        for _ in 0..n_members {
            let member = r.u32()?;
            let member_name = r.str()?;
            let read = read_obs_list(&mut r)?;
            let write = read_obs_list(&mut r)?;
            members.push(MemberObs {
                member,
                member_name,
                read,
                write,
            });
        }
        groups.push(GroupMatrix {
            type_name,
            subclass,
            members,
        });
    }
    r.is_empty().then_some(TraceMatrix { groups })
}

/// One corpus member: a trace's identity (checksum over its raw bytes)
/// plus its observation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusTrace {
    /// The member key ([`lockdoc_trace::corpus::member_key`]) of the
    /// trace file's raw bytes — the identity the matrix artifact and the
    /// group fingerprints are keyed by.
    pub checksum: u64,
    /// The trace's aggregated observations.
    pub matrix: TraceMatrix,
}

/// One cached group result: the rules plus the fingerprint of everything
/// they were derived from.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusGroupEntry {
    /// Fingerprint over the derivation config, the filter fingerprint,
    /// the group's merged ids, and its contributing trace checksums in
    /// corpus order.
    pub fingerprint: u64,
    /// The group's mined rules.
    pub rules: GroupRules,
}

/// The corpus-level rules cache carried between [`derive_corpus`] runs.
/// An entry is reused only when its group fingerprint matches, and that
/// fingerprint already covers the derive config and the import filter.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusRulesCache {
    /// Per-group cached results, in group order.
    pub entries: Vec<CorpusGroupEntry>,
}

/// Result of a corpus derivation: the mined rules, the refreshed cache
/// for the next run, and the reuse accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusDerive {
    /// Corpus-wide mined rules — byte-identical to a batch derivation
    /// over the merged corpus trace.
    pub rules: MinedRules,
    /// Refreshed cache covering every group of this run.
    pub cache: CorpusRulesCache,
    /// Number of observation groups in the corpus.
    pub groups_total: usize,
    /// Groups whose rules were reused from `prev` without re-deriving.
    pub groups_reused: usize,
}

/// Derives corpus-wide rules from per-trace matrices, reusing cached
/// group results where the group fingerprint matches.
///
/// `meta` must be the merged corpus metadata
/// ([`lockdoc_trace::merge::corpus_meta`] over the traces' headers in
/// corpus order) — it maps per-trace group *names* onto merged ids, and
/// fixes the group order to the merged database's
/// `observation_groups()` order. `filter_fp` is the import-filter
/// fingerprint the matrices were built under. `prev` is the cache of a
/// previous run over any corpus; entries are reused only when their
/// fingerprint (config, filter, merged ids, contributing trace
/// checksums) matches exactly, so a stale or foreign cache degrades to
/// a full derivation, never to a wrong answer. Groups are mined one
/// after another; `_jobs` is unused, as in
/// [`crate::derive::derive_par`]. Output is the same with or without
/// reuse.
pub fn derive_corpus(
    traces: &[CorpusTrace],
    meta: &TraceMeta,
    config: &DeriveConfig,
    filter_fp: u64,
    _jobs: usize,
    prev: Option<&CorpusRulesCache>,
) -> CorpusDerive {
    let derive_fp = derive_fingerprint(config);

    // Contributors per merged group key; the BTreeMap reproduces the
    // merged database's observation_groups() order.
    type Contributors<'a> = Vec<(u64, &'a GroupMatrix)>;
    let mut by_group: BTreeMap<(DataTypeId, Option<Sym>), Contributors> = BTreeMap::new();
    for tr in traces {
        for g in &tr.matrix.groups {
            let dtid = meta
                .data_type_named(&g.type_name)
                .expect("corpus meta covers every per-trace data type");
            let subclass = g.subclass.as_deref().map(|s| {
                meta.strings
                    .get(s)
                    .expect("corpus meta covers every per-trace subclass")
            });
            by_group
                .entry((dtid, subclass))
                .or_default()
                .push((tr.checksum, g));
        }
    }

    let mut groups = Vec::with_capacity(by_group.len());
    let mut entries = Vec::with_capacity(by_group.len());
    let mut groups_reused = 0;
    for (key, contributors) in by_group {
        let type_name = &meta.data_types[key.0.index()].name;
        let name = match key.1 {
            Some(s) => format!("{}:{}", type_name, meta.strings.resolve(s)),
            None => type_name.clone(),
        };
        // Merged ids are part of the fingerprint: a corpus change that
        // shifts them (GroupRules carries ids) must re-derive even if the
        // contributing traces are unchanged.
        let mut canonical = format!(
            "g:{name}\nd:{derive_fp:016x}\nf:{filter_fp:016x}\nt:{}\ns:{}\n",
            key.0.index(),
            key.1.map(|s| s.index().to_string()).unwrap_or("-".into()),
        );
        for (checksum, _) in &contributors {
            canonical.push_str(&format!("c:{checksum:016x}\n"));
        }
        let fingerprint = fnv1a(canonical.as_bytes());
        let cached = prev.and_then(|prev| {
            prev.entries
                .iter()
                .find(|e| e.rules.group_name == name && e.fingerprint == fingerprint)
        });
        let rules = match cached {
            Some(entry) => {
                groups_reused += 1;
                entry.rules.clone()
            }
            None => {
                let members = merge_members(contributors.iter().map(|(_, g)| g.members.as_slice()));
                mine_group(key, name, &members, config)
            }
        };
        entries.push(CorpusGroupEntry {
            fingerprint,
            rules: rules.clone(),
        });
        groups.push(rules);
    }

    CorpusDerive {
        groups_total: groups.len(),
        rules: MinedRules {
            groups,
            config: *config,
        },
        cache: CorpusRulesCache { entries },
        groups_reused,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_trace;
    use crate::derive::derive_par;
    use lockdoc_platform::json::{parse, FromJson, ToJson};
    use lockdoc_platform::prop::{self, vec_of};
    use lockdoc_platform::rng::Rng;
    use lockdoc_trace::db::{filter_fingerprint, import};
    use lockdoc_trace::event::{
        AccessKind, AcquireMode, ContextKind, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc,
        Trace, TraceEvent,
    };
    use lockdoc_trace::filter::FilterConfig;
    use lockdoc_trace::ids::{AllocId, FnId};
    use lockdoc_trace::merge::{corpus_meta, CorpusMerge};

    fn import_default(tr: &Trace) -> TraceDb {
        import(tr, &FilterConfig::with_defaults(), 1)
    }

    /// The merged corpus trace of `parts`, folded in order.
    fn merged(parts: Vec<Trace>) -> Trace {
        let mut merge = CorpusMerge::default();
        for part in parts {
            merge.push(part).unwrap();
        }
        merge.finish()
    }

    /// A small quiescent trace over its own data type: `n` locked
    /// read-modify-write rounds on `{type_name}.val` under a global lock.
    fn toy(type_name: &str, n: u64) -> Trace {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("toy.c");
        let lock = tr.meta_mut().strings.intern("toy_lock");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: type_name.into(),
            size: 8,
            members: vec![MemberDef {
                name: "val".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let f = tr.meta_mut().add_function("toy_touch");
        let t = tr.meta_mut().add_task("toy-worker");
        let mut ts = 0u64;
        let mut push = |tr: &mut Trace, e: Event| {
            ts += 1;
            tr.push(ts, e);
        };
        push(&mut tr, Event::TaskSwitch { task: t });
        push(
            &mut tr,
            Event::LockInit {
                addr: 0x100,
                name: lock,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
        );
        push(
            &mut tr,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 8,
                data_type: dt,
                subclass: None,
            },
        );
        for _ in 0..n {
            push(&mut tr, Event::FnEnter { func: f });
            push(
                &mut tr,
                Event::LockAcquire {
                    addr: 0x100,
                    mode: AcquireMode::Exclusive,
                    loc: SourceLoc::new(file, 1),
                },
            );
            push(
                &mut tr,
                Event::MemAccess {
                    kind: AccessKind::Read,
                    addr: 0x1000,
                    size: 8,
                    loc: SourceLoc::new(file, 2),
                    atomic: false,
                },
            );
            push(
                &mut tr,
                Event::MemAccess {
                    kind: AccessKind::Write,
                    addr: 0x1000,
                    size: 8,
                    loc: SourceLoc::new(file, 2),
                    atomic: false,
                },
            );
            push(
                &mut tr,
                Event::LockRelease {
                    addr: 0x100,
                    loc: SourceLoc::new(file, 3),
                },
            );
            push(&mut tr, Event::FnExit { func: f });
        }
        push(&mut tr, Event::Free { id: AllocId(1) });
        tr
    }

    /// Corpus derivation over per-trace matrices must be byte-identical
    /// to batch derivation over the merged trace, at any worker count.
    fn assert_corpus_matches_batch(parts: Vec<Trace>, config: &DeriveConfig) {
        let filter = FilterConfig::with_defaults();
        let filter_fp = filter_fingerprint(&filter);
        let metas: Vec<TraceMeta> = parts.iter().map(|p| (*p.meta).clone()).collect();
        let meta = corpus_meta(&metas).unwrap();
        let traces: Vec<CorpusTrace> = parts
            .iter()
            .enumerate()
            .map(|(i, p)| CorpusTrace {
                checksum: 0x1000 + i as u64,
                matrix: build_trace_matrix(&import_default(p), 1),
            })
            .collect();
        let merged_db = import_default(&merged(parts));
        for jobs in [1usize, 4] {
            let batch = derive_par(&merged_db, config, jobs);
            let corpus = derive_corpus(&traces, &meta, config, filter_fp, jobs, None);
            assert_eq!(corpus.rules, batch, "jobs = {jobs}");
            assert_eq!(corpus.groups_reused, 0);
            assert_eq!(corpus.groups_total, corpus.rules.groups.len());
        }
    }

    #[test]
    fn corpus_derive_matches_batch_on_clock_parts() {
        // Same data type and task names in every part: the hardest case
        // for flow isolation (units must still never merge across parts).
        let parts = vec![clock_trace(180, 1), clock_trace(65, 0), clock_trace(60, 3)];
        assert_corpus_matches_batch(parts, &DeriveConfig::default());
    }

    #[test]
    fn corpus_derive_matches_batch_on_mixed_types() {
        let parts = vec![toy("alpha", 5), clock_trace(70, 1), toy("beta", 4)];
        assert_corpus_matches_batch(parts, &DeriveConfig::with_threshold(0.8));
    }

    /// `toy` cut short inside a hard interrupt handler that is in
    /// `toy_touch` and holds a lock of its own, as a truncated container
    /// leaves it; with `exit`, the handler returns still holding both, as
    /// a skipped release record leaves it.
    fn cut_in_irq(type_name: &str, n: u64, exit: bool) -> Trace {
        let mut tr = toy(type_name, n);
        let file = tr.meta_mut().strings.intern("toy.c");
        let name = tr.meta_mut().strings.intern("irq_lock");
        let ts = tr.events.last().map_or(0, |e| e.ts);
        let tail = [
            Event::LockInit {
                addr: 0x200,
                name,
                flavor: LockFlavor::Spinlock,
                is_static: true,
            },
            Event::ContextEnter {
                kind: ContextKind::Hardirq,
            },
            Event::FnEnter { func: FnId(0) },
            Event::LockAcquire {
                addr: 0x200,
                mode: AcquireMode::Exclusive,
                loc: SourceLoc::new(file, 1),
            },
        ];
        for (i, event) in (1..).zip(tail) {
            tr.push(ts + i, event);
        }
        if exit {
            let kind = ContextKind::Hardirq;
            tr.push(ts + 5, Event::ContextExit { kind });
        }
        tr
    }

    /// `toy` with its rounds run inside a hard interrupt handler.
    fn toy_in_irq(type_name: &str, n: u64) -> Trace {
        let mut tr = toy(type_name, n);
        let kind = ContextKind::Hardirq;
        let free = tr.events.len() - 1;
        let (enter_ts, exit_ts) = (tr.events[3].ts, tr.events[free].ts);
        let exit = Event::ContextExit { kind };
        tr.events.insert(
            free,
            TraceEvent {
                ts: exit_ts,
                event: exit,
            },
        );
        let enter = Event::ContextEnter { kind };
        tr.events.insert(
            3,
            TraceEvent {
                ts: enter_ts,
                event: enter,
            },
        );
        tr
    }

    #[test]
    fn corpus_derive_matches_batch_past_a_member_cut_inside_an_irq() {
        // Interrupt flows are shared by every part of the merged trace:
        // the context and the lock a cut part leaves open there must reach
        // neither the task flows nor the interrupt handlers of the parts
        // after it.
        let parts = vec![
            cut_in_irq("alpha", 3, false),
            clock_trace(70, 1),
            toy_in_irq("beta", 4),
            cut_in_irq("gamma", 2, true),
            toy_in_irq("delta", 3),
            cut_in_irq("epsilon", 2, false),
        ];
        assert_corpus_matches_batch(parts, &DeriveConfig::default());
    }

    #[test]
    fn incremental_reuse_is_byte_identical_and_partial() {
        let filter_fp = filter_fingerprint(&FilterConfig::with_defaults());
        let config = DeriveConfig::default();
        let matrix = |tr: &Trace| build_trace_matrix(&import_default(tr), 1);
        let a = toy("alpha", 5);
        let b = toy("beta", 4);
        let c = toy("beta", 2);
        let corpus_of = |parts: &[&Trace]| -> (Vec<CorpusTrace>, TraceMeta) {
            let metas: Vec<TraceMeta> = parts.iter().map(|p| (*p.meta).clone()).collect();
            let traces = parts
                .iter()
                .enumerate()
                .map(|(i, p)| CorpusTrace {
                    checksum: 0x2000 + i as u64,
                    matrix: matrix(p),
                })
                .collect();
            (traces, corpus_meta(&metas).unwrap())
        };

        let (two, meta2) = corpus_of(&[&a, &b]);
        let full = derive_corpus(&two, &meta2, &config, filter_fp, 1, None);

        // Add one trace touching only `beta`: alpha's rules are reused
        // byte-identically, beta's are re-derived.
        let (three, meta3) = corpus_of(&[&a, &b, &c]);
        let scratch = derive_corpus(&three, &meta3, &config, filter_fp, 1, None);
        for jobs in [1usize, 4] {
            let incr = derive_corpus(&three, &meta3, &config, filter_fp, jobs, Some(&full.cache));
            assert_eq!(incr.rules, scratch.rules, "jobs = {jobs}");
            assert_eq!(incr.cache, scratch.cache, "jobs = {jobs}");
            assert_eq!(incr.groups_total, 2);
            assert_eq!(incr.groups_reused, 1, "alpha untouched by the add");
        }
        // Dropping the added trace reuses alpha again and restores the
        // original corpus result exactly.
        let back = derive_corpus(&two, &meta2, &config, filter_fp, 1, Some(&scratch.cache));
        assert_eq!(back.rules, full.rules);
        assert_eq!(back.groups_reused, 1);
    }

    #[test]
    fn stale_cache_degrades_to_full_derivation() {
        let filter_fp = filter_fingerprint(&FilterConfig::with_defaults());
        let config = DeriveConfig::default();
        let a = toy("alpha", 5);
        let meta = corpus_meta(&[(*a.meta).clone()]).unwrap();
        let traces = vec![CorpusTrace {
            checksum: 7,
            matrix: build_trace_matrix(&import_default(&a), 1),
        }];
        let full = derive_corpus(&traces, &meta, &config, filter_fp, 1, None);
        assert_eq!(full.groups_reused, 0);

        // A cache mined under a different config or filter never matches.
        let other = DeriveConfig::with_threshold(0.5);
        let from_other = derive_corpus(&traces, &meta, &other, filter_fp, 1, Some(&full.cache));
        assert_eq!(from_other.groups_reused, 0);
        let wrong_filter =
            derive_corpus(&traces, &meta, &config, filter_fp ^ 1, 1, Some(&full.cache));
        assert_eq!(wrong_filter.groups_reused, 0);
        // A cache keyed by a different trace checksum never matches.
        let renamed = vec![CorpusTrace {
            checksum: 8,
            ..traces[0].clone()
        }];
        let moved = derive_corpus(&renamed, &meta, &config, filter_fp, 1, Some(&full.cache));
        assert_eq!(moved.groups_reused, 0);
        assert_eq!(moved.rules, full.rules);
    }

    #[test]
    fn derive_fingerprint_tracks_every_config_knob() {
        let base = DeriveConfig::default();
        let fp = derive_fingerprint(&base);
        assert_eq!(fp, derive_fingerprint(&DeriveConfig::default()));
        assert_ne!(fp, derive_fingerprint(&DeriveConfig::with_threshold(0.8)));
        let mut c = base;
        c.cutoff = 0.2;
        assert_ne!(fp, derive_fingerprint(&c));
        let mut c = base;
        c.min_units = 5;
        assert_ne!(fp, derive_fingerprint(&c));
        let mut c = base;
        c.selection.strategy = crate::select::Strategy::NaiveMax;
        assert_ne!(fp, derive_fingerprint(&c));
    }

    #[test]
    fn matrix_artifact_round_trips() {
        let db = import_default(&clock_trace(120, 1));
        let matrix = build_trace_matrix(&db, 1);
        let bytes = write_matrix_artifact(&matrix, 11, 22, 33);
        assert_eq!(read_matrix_artifact(&bytes, 11, 22, 33), Some(matrix));
    }

    #[test]
    fn matrix_key_mismatch_is_a_miss() {
        let db = import_default(&toy("alpha", 3));
        let bytes = write_matrix_artifact(&build_trace_matrix(&db, 1), 11, 22, 33);
        // Wrong trace, wrong filter, wrong derive config.
        assert_eq!(read_matrix_artifact(&bytes, 12, 22, 33), None);
        assert_eq!(read_matrix_artifact(&bytes, 11, 23, 33), None);
        assert_eq!(read_matrix_artifact(&bytes, 11, 22, 34), None);
    }

    /// A payload damaged and then resealed, so the frame's checksum
    /// passes, still parses to a clean miss or some matrix, never a panic.
    #[test]
    fn resealed_matrix_payloads_never_panic() {
        let db = import_default(&merged(vec![clock_trace(90, 1), toy("a", 2)]));
        let keys = [11, 22, 33];
        let bytes = write_matrix_artifact(&build_trace_matrix(&db, 1), 11, 22, 33);
        let payload = artifact::open(&bytes, MATRIX_MAGIC, MATRIX_VERSION, &keys).unwrap();
        let gen = |rng: &mut Rng| {
            vec_of(rng, 1..4, |r| {
                (r.gen_range(0..payload.len()), r.gen_range(1u8..255))
            })
        };
        prop::check("resealed_matrix_payloads_never_panic", gen, |edits| {
            let mut damaged = payload.to_vec();
            for &(at, mask) in edits {
                damaged[at] ^= mask;
            }
            let resealed = artifact::seal(MATRIX_MAGIC, MATRIX_VERSION, &keys, &damaged);
            let _ = read_matrix_artifact(&resealed, 11, 22, 33);
            Ok(())
        });
    }

    #[test]
    fn rules_cache_round_trips_through_json() {
        let filter_fp = filter_fingerprint(&FilterConfig::with_defaults());
        let a = toy("alpha", 5);
        let meta = corpus_meta(&[(*a.meta).clone()]).unwrap();
        let traces = vec![CorpusTrace {
            checksum: u64::MAX, // full-range checksums must survive JSON
            matrix: build_trace_matrix(&import_default(&a), 1),
        }];
        let full = derive_corpus(&traces, &meta, &DeriveConfig::default(), filter_fp, 1, None);
        let text = full.cache.to_json().pretty();
        let decoded = CorpusRulesCache::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, full.cache);
        // The round-tripped cache still reuses byte-identically.
        let again = derive_corpus(
            &traces,
            &meta,
            &DeriveConfig::default(),
            filter_fp,
            1,
            Some(&decoded),
        );
        assert_eq!(again.groups_reused, 1);
        assert_eq!(again.rules, full.rules);
    }
}
