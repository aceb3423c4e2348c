//! Deterministic scoped parallel execution on `std::thread::scope` —
//! zero dependencies, no unsafe, no global state.
//!
//! Workers run only at a coarse grain: the shards of a generated trace,
//! the files of the static front end and of `scan`, the candidates of a
//! fuzzing campaign (each one whole pipeline run), and the thresholds of
//! the fig7 sweep. Import and the evidence-index passes are serial, as
//! no trace question ran faster on two workers. The *outputs* must stay
//! byte-identical at any worker count so golden tests and trace diffs
//! remain meaningful. [`par_map`] therefore provides an *ordered* map:
//! results come back in input order regardless of completion order, and
//! `jobs = 1` runs the closure inline on the calling thread (the exact
//! serial path, no pool, no channels).
//!
//! Work distribution is a shared atomic cursor over the input slice, so
//! uneven shards self-balance; each worker accumulates `(index, result)`
//! pairs locally and the merge step restores input order. Panics inside
//! worker closures are propagated to the caller with their original
//! payload.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available, with a serial fallback.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves the worker count for a pipeline run.
///
/// Precedence: an explicit request (e.g. a `--jobs` CLI flag), then the
/// `LOCKDOC_JOBS` environment variable, then the machine's available
/// parallelism. Requests above the core count are clamped to
/// [`available_jobs`]: every stage is output-identical at any worker
/// count, so oversubscribing buys nothing. On a 2-vCPU VM, `lockdoc fuzz
/// --budget 16 --ops 2000` ran 1.59× faster at jobs=2 than at jobs=1,
/// and `xcheck --src` on a 1,000-site tree 1.22× faster; a trace question
/// such as `lint` did not gain and runs serially. Setting
/// `LOCKDOC_JOBS_FORCE=1` disables the clamp — the escape hatch the
/// identity gates and benches use to exercise the true multi-worker code
/// path on any machine. The result is always at least 1; `1` selects the
/// exact serial code path in [`par_map`].
pub fn resolve_jobs(explicit: Option<usize>) -> usize {
    let requested = explicit.map(|n| n.max(1)).or_else(|| {
        let v = std::env::var("LOCKDOC_JOBS").ok()?;
        v.trim().parse::<usize>().ok().filter(|&n| n >= 1)
    });
    let forced = std::env::var("LOCKDOC_JOBS_FORCE").is_ok_and(|v| v.trim() == "1");
    match requested {
        Some(n) if forced => n,
        Some(n) => n.min(available_jobs()).max(1),
        None => available_jobs(),
    }
}

/// Applies `f` to every item and returns the results **in input order**.
///
/// With `jobs <= 1` (or fewer than two items) this is exactly
/// `items.iter().map(f).collect()` on the calling thread. Otherwise up to
/// `min(jobs, items.len())` scoped workers pull indices from a shared
/// atomic cursor, and the results are merged back into input order, so the
/// output is independent of scheduling.
///
/// # Panics
///
/// If `f` panics for any item, the panic payload is re-raised on the
/// calling thread after the remaining workers wind down.
///
/// # Examples
///
/// ```
/// use lockdoc_platform::par::par_map;
///
/// let squares = par_map(4, &[1u64, 2, 3, 4, 5], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = jobs.min(items.len());
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(item)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(part) => indexed.extend(part),
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    debug_assert_eq!(indexed.len(), items.len());
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        // Make later items finish earlier by giving them less work.
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(8, &items, |&x| {
            let spin = (100 - x) * 50;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            std::hint::black_box(acc);
            x * 2
        });
        let want: Vec<u64> = items.iter().map(|x| x * 2).collect();
        assert_eq!(out, want);
    }

    #[test]
    fn serial_and_parallel_agree_for_any_job_count() {
        let items: Vec<u32> = (0..37).collect();
        let serial = par_map(1, &items, |&x| x.wrapping_mul(2654435761));
        for jobs in [2, 3, 4, 7, 16, 64] {
            let parallel = par_map(jobs, &items, |&x| x.wrapping_mul(2654435761));
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_work() {
        assert_eq!(par_map(4, &[] as &[u8], |&x| x), Vec::<u8>::new());
        assert_eq!(par_map(4, &[9u8], |&x| x + 1), vec![10]);
    }

    #[test]
    fn worker_panic_propagates_with_payload() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(4, &items, |&x| {
                if x == 13 {
                    panic!("unlucky shard");
                }
                x
            })
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "unlucky shard");
    }

    /// One test function covers the clamp and its escape hatch: the force
    /// branch mutates process-global env vars, so interleaving it with a
    /// separate clamp test would race.
    #[test]
    fn resolve_jobs_clamps_to_available_cores_unless_forced() {
        let cores = available_jobs();
        assert_eq!(resolve_jobs(Some(3)), 3.min(cores).max(1));
        assert_eq!(resolve_jobs(Some(1)), 1);
        assert_eq!(resolve_jobs(Some(0)), 1, "0 clamps to serial");
        assert_eq!(
            resolve_jobs(Some(cores + 7)),
            cores,
            "oversubscription clamps"
        );
        // Without an explicit request the result is env- or
        // hardware-derived, but always usable and never oversubscribed.
        assert!(resolve_jobs(None) >= 1);
        assert!(resolve_jobs(None) <= cores.max(1));
        // LOCKDOC_JOBS_FORCE=1 lifts the clamp (identity gates rely on
        // exercising the real multi-worker path on 1-core CI boxes).
        std::env::set_var("LOCKDOC_JOBS_FORCE", "1");
        assert_eq!(resolve_jobs(Some(cores + 7)), cores + 7);
        std::env::set_var("LOCKDOC_JOBS_FORCE", "0");
        assert_eq!(resolve_jobs(Some(cores + 7)), cores);
        std::env::remove_var("LOCKDOC_JOBS_FORCE");
    }
}
