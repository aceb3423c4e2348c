//! Locking-rule hypothesis enumeration and support computation
//! (paper Sec. 4.3 and 5.4).
//!
//! A locking-rule hypothesis is an ordered sequence of
//! [`LockDescriptor`]s. An observation (one observation unit with its
//! resolved held-lock sequence) *supports* a hypothesis iff the hypothesis
//! is an order-preserving subsequence of the observation's lock sequence —
//! extra interleaved locks are permitted, as the paper specifies
//! (`a -> c -> b` complies with the rule `a -> b`).
//!
//! Exhaustively iterating all conceivable lock combinations is infeasible;
//! like the paper, we enumerate all subsequences of the *observed*
//! combinations, which guarantees every hypothesis with `sa >= 1` is
//! produced. An exhaustive permutation mode exists for demonstration
//! purposes (paper Tab. 2 lists a zero-support hypothesis).

use crate::lockset::{format_sequence, resolve_txn_locks, LockDescriptor};
use crate::matrix::MemberMatrix;
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::AccessKind;
use std::collections::BTreeMap;

/// Maximum observed lock-sequence length considered for subsequence
/// enumeration; only the first `MAX_SEQ_LEN` held locks of a longer
/// sequence feed hypothesis enumeration (kernel critical sections hold far
/// fewer locks in practice). The cap applies **only** at enumeration time:
/// observations keep every held lock, so compliance checks (checker,
/// violation finder) never lose evidence. Sets that hit the cap report it
/// via [`HypothesisSet::truncated`].
pub const MAX_SEQ_LEN: usize = 12;

/// One aggregated observation: a distinct held-lock descriptor sequence and
/// how many observation units exhibited it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Resolved held locks in acquisition order (deduplicated descriptors).
    pub locks: Vec<LockDescriptor>,
    /// Number of supporting observation units.
    pub count: u64,
}

/// A candidate locking rule with its support metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Hypothesis {
    /// The hypothesised lock sequence; empty means "no lock needed".
    pub locks: Vec<LockDescriptor>,
    /// Absolute support: number of observation units complying with the rule.
    pub sa: u64,
    /// Relative support: `sa` over the total number of observation units.
    pub sr: f64,
}

impl Hypothesis {
    /// Whether this is the "no lock needed" hypothesis.
    pub fn is_no_lock(&self) -> bool {
        self.locks.is_empty()
    }

    /// Human-readable form, e.g. `sec_lock -> min_lock`.
    pub fn describe(&self) -> String {
        if self.is_no_lock() {
            "no lock needed".to_owned()
        } else {
            format_sequence(&self.locks)
        }
    }
}

/// All hypotheses for one `(member, access kind)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct HypothesisSet {
    /// Member index in the type layout.
    pub member: u32,
    /// Access kind the hypotheses apply to.
    pub kind: AccessKind,
    /// Total number of observation units (the `sr` denominator).
    pub total: u64,
    /// Number of observation units whose held-lock sequence exceeded
    /// [`MAX_SEQ_LEN`] and therefore only contributed its first
    /// `MAX_SEQ_LEN` locks to enumeration. Surfaced in the derivation
    /// report instead of dropping locks silently.
    pub truncated: u64,
    /// Candidate rules, sorted by descending `sa`, then by fewer locks.
    pub hypotheses: Vec<Hypothesis>,
}

impl HypothesisSet {
    /// Looks up the support of a specific lock sequence, if enumerated.
    pub fn support_of(&self, locks: &[LockDescriptor]) -> Option<&Hypothesis> {
        self.hypotheses.iter().find(|h| h.locks == locks)
    }
}

/// Collects the aggregated observations for a member and access kind.
///
/// Each relevant observation unit's transaction lock list is resolved to
/// descriptors relative to the accessed instance and aggregated by sequence.
/// This is the direct, uncached transcription of the paper's definition;
/// the analysis passes read the same lists from
/// [`crate::evidence::EvidenceIndex`], which `tests/props.rs` pins to it.
pub fn observations_for(db: &TraceDb, matrix: &MemberMatrix, kind: AccessKind) -> Vec<Observation> {
    let mut agg: BTreeMap<Vec<LockDescriptor>, u64> = BTreeMap::new();
    for (txn_id, alloc_id) in matrix.relevant_units(kind) {
        let lock_ids: Vec<_> = db.txn(txn_id).locks.iter().map(|h| h.lock).collect();
        *agg.entry(resolve_txn_locks(db, alloc_id, &lock_ids))
            .or_insert(0) += 1;
    }
    agg.into_iter()
        .map(|(locks, count)| Observation { locks, count })
        .collect()
}

/// Enumerates all distinct subsequences of `seq` (excluding the empty one).
fn subsequences(seq: &[LockDescriptor]) -> Vec<Vec<LockDescriptor>> {
    let n = seq.len().min(MAX_SEQ_LEN);
    let mut out = Vec::with_capacity((1usize << n) - 1);
    for mask in 1u32..(1u32 << n) {
        let mut sub = Vec::with_capacity(mask.count_ones() as usize);
        for (i, lock) in seq.iter().enumerate().take(n) {
            if mask & (1 << i) != 0 {
                sub.push(lock.clone());
            }
        }
        out.push(sub);
    }
    out.sort();
    out.dedup();
    out
}

/// Whether `rule` is an order-preserving subsequence of `held`.
///
/// This is the paper's compliance check: all rule locks held, in the rule's
/// relative order, with arbitrary extra locks in between. It applies
/// equally to descriptors and to their interned ids
/// ([`crate::evidence::DescId`]).
pub fn complies<T: PartialEq>(held: &[T], rule: &[T]) -> bool {
    let mut it = held.iter();
    rule.iter().all(|r| it.any(|h| h == r))
}

/// Relative support of a hypothesis over `total` observation units.
///
/// The "no lock" hypothesis over an *empty* observation set is vacuously
/// true (`sr = 1.0`): every one of the zero units complies. This keeps the
/// [`crate::select::select`] contract — enumerated sets always yield a
/// winner — honest even for members with no relevant units. Any non-empty
/// rule over zero units has no supporting evidence and gets `sr = 0.0`.
fn relative_support(sa: u64, total: u64, locks: &[LockDescriptor]) -> f64 {
    if total == 0 {
        if locks.is_empty() {
            1.0
        } else {
            0.0
        }
    } else {
        sa as f64 / total as f64
    }
}

/// Enumerates hypotheses for one member/kind from aggregated observations.
///
/// The "no lock" hypothesis (empty sequence) is always included and is
/// supported by every observation — vacuously with full relative support
/// when there are no observations at all.
pub fn enumerate(member: u32, kind: AccessKind, observations: &[Observation]) -> HypothesisSet {
    let total: u64 = observations.iter().map(|o| o.count).sum();
    let truncated: u64 = observations
        .iter()
        .filter(|o| o.locks.len() > MAX_SEQ_LEN)
        .map(|o| o.count)
        .sum();
    let mut support: BTreeMap<Vec<LockDescriptor>, u64> = BTreeMap::new();
    support.insert(Vec::new(), total);
    for obs in observations {
        for sub in subsequences(&obs.locks) {
            *support.entry(sub).or_insert(0) += obs.count;
        }
    }
    let mut hypotheses: Vec<Hypothesis> = support
        .into_iter()
        .map(|(locks, sa)| Hypothesis {
            sr: relative_support(sa, total, &locks),
            locks,
            sa,
        })
        .collect();
    hypotheses.sort_by(|a, b| {
        b.sa.cmp(&a.sa)
            .then(a.locks.len().cmp(&b.locks.len()))
            .then_with(|| a.locks.cmp(&b.locks))
    });
    HypothesisSet {
        member,
        kind,
        total,
        truncated,
        hypotheses,
    }
}

/// Exhaustive enumeration over *all permutations of all subsets* of the
/// union of observed locks, including zero-support hypotheses — the
/// presentation mode of paper Tab. 2. Only practical for small lock sets.
pub fn enumerate_exhaustive(
    member: u32,
    kind: AccessKind,
    observations: &[Observation],
    max_locks: usize,
) -> HypothesisSet {
    let mut universe: Vec<LockDescriptor> = Vec::new();
    for obs in observations {
        for l in &obs.locks {
            if !universe.contains(l) {
                universe.push(l.clone());
            }
        }
    }
    universe.truncate(max_locks);
    let total: u64 = observations.iter().map(|o| o.count).sum();

    let mut sequences: Vec<Vec<LockDescriptor>> = vec![Vec::new()];
    // Generate all ordered arrangements of all subset sizes.
    let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        for (i, _) in universe.iter().enumerate() {
            if prefix.contains(&i) {
                continue;
            }
            let mut next = prefix.clone();
            next.push(i);
            sequences.push(next.iter().map(|&j| universe[j].clone()).collect());
            frontier.push(next);
        }
    }
    sequences.sort();
    sequences.dedup();

    let mut hypotheses: Vec<Hypothesis> = sequences
        .into_iter()
        .map(|locks| {
            let sa: u64 = observations
                .iter()
                .filter(|o| complies(&o.locks, &locks))
                .map(|o| o.count)
                .sum();
            Hypothesis {
                sr: relative_support(sa, total, &locks),
                locks,
                sa,
            }
        })
        .collect();
    hypotheses.sort_by(|a, b| {
        b.sa.cmp(&a.sa)
            .then(a.locks.len().cmp(&b.locks.len()))
            .then_with(|| a.locks.cmp(&b.locks))
    });
    HypothesisSet {
        member,
        kind,
        total,
        truncated: 0,
        hypotheses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: &str) -> LockDescriptor {
        LockDescriptor::global(n)
    }

    fn obs(locks: &[&str], count: u64) -> Observation {
        Observation {
            locks: locks.iter().map(|n| l(n)).collect(),
            count,
        }
    }

    #[test]
    fn complies_is_subsequence_matching() {
        let held = vec![l("a"), l("c"), l("b")];
        assert!(complies(&held, &[l("a"), l("b")]));
        assert!(complies(&held, &[l("a")]));
        assert!(complies(&held, &[]));
        assert!(!complies(&held, &[l("b"), l("a")]));
        assert!(!complies(&held, &[l("d")]));
    }

    #[test]
    fn subsequences_enumerate_all_nonempty() {
        let seq = vec![l("a"), l("b")];
        let subs = subsequences(&seq);
        assert_eq!(subs.len(), 3); // [a], [b], [a,b]
        assert!(subs.contains(&vec![l("a")]));
        assert!(subs.contains(&vec![l("b")]));
        assert!(subs.contains(&vec![l("a"), l("b")]));
    }

    /// Reproduces the paper's Tab. 2 numbers for the clock example: 16
    /// correct `sec -> min` transactions plus one faulty `sec`-only one.
    #[test]
    fn clock_example_support_values() {
        let observations = vec![obs(&["sec_lock", "min_lock"], 16), obs(&["sec_lock"], 1)];
        let set = enumerate(0, AccessKind::Write, &observations);
        assert_eq!(set.total, 17);
        let sa = |locks: &[LockDescriptor]| set.support_of(locks).unwrap().sa;
        assert_eq!(sa(&[]), 17); // #0 no lock needed
        assert_eq!(sa(&[l("sec_lock")]), 17); // #1
        assert_eq!(sa(&[l("sec_lock"), l("min_lock")]), 16); // #2
        assert_eq!(sa(&[l("min_lock")]), 16); // #3
        let h2 = set.support_of(&[l("sec_lock"), l("min_lock")]).unwrap();
        assert!((h2.sr - 16.0 / 17.0).abs() < 1e-9); // 94.12 %
    }

    #[test]
    fn exhaustive_mode_includes_zero_support_permutations() {
        let observations = vec![obs(&["sec_lock", "min_lock"], 16), obs(&["sec_lock"], 1)];
        let set = enumerate_exhaustive(0, AccessKind::Write, &observations, 4);
        // #4 in Tab. 2: min_lock -> sec_lock with zero support.
        let h4 = set
            .support_of(&[l("min_lock"), l("sec_lock")])
            .expect("permutation enumerated");
        assert_eq!(h4.sa, 0);
        assert_eq!(set.hypotheses.len(), 5); // {}, [s], [m], [s,m], [m,s]
    }

    #[test]
    fn no_lock_hypothesis_always_full_support() {
        let observations = vec![obs(&[], 5), obs(&["a"], 3)];
        let set = enumerate(0, AccessKind::Read, &observations);
        let none = set.support_of(&[]).unwrap();
        assert_eq!(none.sa, 8);
        assert!((none.sr - 1.0).abs() < f64::EPSILON);
        let a = set.support_of(&[l("a")]).unwrap();
        assert_eq!(a.sa, 3);
    }

    #[test]
    fn empty_observations_produce_only_no_lock() {
        let set = enumerate(0, AccessKind::Read, &[]);
        assert_eq!(set.total, 0);
        assert_eq!(set.hypotheses.len(), 1);
        assert!(set.hypotheses[0].is_no_lock());
        // Regression: the no-lock hypothesis is vacuously true over zero
        // units (sr = 1.0, not 0.0), so selection always finds a winner.
        assert!((set.hypotheses[0].sr - 1.0).abs() < f64::EPSILON);
        assert_eq!(set.hypotheses[0].sa, 0);
    }

    #[test]
    fn long_sequences_are_counted_not_silently_dropped() {
        // A 14-lock observation exceeds MAX_SEQ_LEN = 12: enumeration only
        // considers subsequences of the first 12 locks, and the set
        // reports how many units were affected.
        let names: Vec<String> = (0..14).map(|i| format!("l{i:02}")).collect();
        let long: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let observations = vec![obs(&long, 3), obs(&["l00"], 2)];
        let set = enumerate(0, AccessKind::Write, &observations);
        assert_eq!(set.total, 5);
        assert_eq!(set.truncated, 3, "3 units hit the enumeration cap");
        // Locks beyond the cap never appear in any hypothesis …
        assert!(set.support_of(&[l("l13")]).is_none());
        // … but locks inside the cap keep their full support.
        assert_eq!(set.support_of(&[l("l00")]).unwrap().sa, 5);
        assert_eq!(set.support_of(&[l("l11")]).unwrap().sa, 3);
        // Short sets report zero truncation.
        assert_eq!(
            enumerate(0, AccessKind::Read, &[obs(&["a"], 9)]).truncated,
            0
        );
    }

    #[test]
    fn observations_keep_all_held_locks() {
        // Regression for the shared-cache truncation bug: a transaction
        // holding more than MAX_SEQ_LEN locks must surface its complete
        // sequence through observations_for and the evidence index,
        // because the checker and the violation finder judge compliance
        // against it.
        use lockdoc_trace::event::{
            AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc, Trace,
        };
        use lockdoc_trace::filter::FilterConfig;

        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("deep.c");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "deep".into(),
            size: 4,
            members: vec![MemberDef {
                name: "field".into(),
                offset: 0,
                size: 4,
                atomic: false,
                is_lock: false,
            }],
        });
        let task = tr.meta_mut().add_task("nester");
        let mut ts = 0u64;
        let mut push = |tr: &mut Trace, e: Event| {
            ts += 1;
            tr.push(ts, e);
        };
        push(&mut tr, Event::TaskSwitch { task });
        let nlocks = MAX_SEQ_LEN as u64 + 2;
        for i in 0..nlocks {
            let name = tr.meta_mut().strings.intern(&format!("deep_lock_{i:02}"));
            push(
                &mut tr,
                Event::LockInit {
                    addr: 0x100 + i,
                    name,
                    flavor: LockFlavor::Spinlock,
                    is_static: true,
                },
            );
        }
        push(
            &mut tr,
            Event::Alloc {
                id: lockdoc_trace::ids::AllocId(1),
                addr: 0x1000,
                size: 4,
                data_type: dt,
                subclass: None,
            },
        );
        for i in 0..nlocks {
            push(
                &mut tr,
                Event::LockAcquire {
                    addr: 0x100 + i,
                    mode: AcquireMode::Exclusive,
                    loc: SourceLoc::new(file, i as u32 + 1),
                },
            );
        }
        push(
            &mut tr,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 4,
                loc: SourceLoc::new(file, 40),
                atomic: false,
            },
        );
        for i in (0..nlocks).rev() {
            push(
                &mut tr,
                Event::LockRelease {
                    addr: 0x100 + i,
                    loc: SourceLoc::new(file, 50),
                },
            );
        }
        let db = lockdoc_trace::db::import(&tr, &FilterConfig::with_defaults(), 1);
        let matrix = crate::matrix::AccessMatrix::build(&db, (dt, None));
        let mm = matrix.member(0).expect("member observed");
        let observations = observations_for(&db, mm, AccessKind::Write);
        assert_eq!(observations.len(), 1);
        // Every held lock survives in the evidence, directly resolved and
        // indexed alike …
        assert_eq!(observations[0].locks.len(), nlocks as usize);
        let index = crate::evidence::EvidenceIndex::build(&db);
        let indexed = index.group((dt, None)).expect("group indexed");
        assert_eq!(
            indexed.member(0).expect("member indexed").write,
            observations
        );
        // … and a documented rule naming the deepest lock is judged
        // compliant (it was held, even though enumeration caps out).
        let deepest = observations[0].locks.last().unwrap().clone();
        assert!(complies(&observations[0].locks, &[deepest]));
        // Enumeration reports the cap instead of hiding it.
        let set = enumerate(0, AccessKind::Write, &observations);
        assert_eq!(set.truncated, 1);
    }

    #[test]
    fn support_is_monotone_under_subsequence() {
        // Any hypothesis has support <= support of each of its subsequences.
        let observations = vec![
            obs(&["a", "b", "c"], 7),
            obs(&["a", "c"], 3),
            obs(&["b"], 2),
        ];
        let set = enumerate(0, AccessKind::Write, &observations);
        for h in &set.hypotheses {
            for sub in subsequences(&h.locks) {
                if sub.len() < h.locks.len() {
                    let sup = set.support_of(&sub).expect("subsequence enumerated");
                    assert!(
                        sup.sa >= h.sa,
                        "support of {:?} < support of {:?}",
                        sub,
                        h.locks
                    );
                }
            }
        }
    }
}
