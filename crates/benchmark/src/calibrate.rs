//! Host-speed calibration.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes as other tenants come and go, and every workload
//! slows down with them: on the 2-vCPU box of the README, the same `lint`
//! rep took 3.5 s in one run and 2.2 s four minutes later. So a fixed
//! kernel, using the standard library only and no code of this
//! repository, is timed before every set-up and every rep, and end-to-end
//! timings are reported in *reference seconds*: wall seconds ×
//! [`REFERENCE_S`] / kernel seconds, the time on a host where the kernel
//! takes [`REFERENCE_S`]. Raw wall times are reported beside them.
//!
//! Contention slows the workloads by different amounts: `ingest` is
//! mostly serial, `report` and `corpus` keep both threads busy over
//! hundreds of MiB. So the kernel has three phases, each sensitive to a
//! different kind of contention: sort and hash integers on one thread,
//! the same split over [`crate::JOBS`] threads, and build and probe hash
//! maps of a few MiB per thread, where a busy neighbour's cache traffic
//! shows most. Its time is the geometric mean of the three, so each
//! phase's relative slow-down counts the same. On that box no single
//! phase tracked every workload: scaled by the map phase alone, ten
//! `ingest` runs spread by 25% in a period when the unscaled runs spread
//! by 19%, while `report` improved from 34% to 8%. Scaled by the mean
//! of all three, they spread by 17% and 9%, and `corpus` by 16% (28%
//! unscaled).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Kernel time on the reference host (about this box on a quiet
/// period), so reference seconds read close to wall seconds there.
pub const REFERENCE_S: f64 = 0.2;

/// Pseudo-random `u64`s from `seed` (xorshift).
fn numbers(seed: u64) -> impl FnMut() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15 ^ seed.wrapping_mul(0x2545_f491_4f6c_dd1d);
    move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }
}

/// Sorts `items` pseudo-random integers, indexes every fourth in a hash
/// map and probes it with every seventh.
fn sort_and_hash(items: usize, seed: u64) {
    let mut next = numbers(seed);
    let mut v: Vec<u64> = (0..items).map(|_| next()).collect();
    v.sort_unstable();
    let index: HashMap<u64, usize> = v
        .iter()
        .step_by(4)
        .enumerate()
        .map(|(i, k)| (*k, i))
        .collect();
    black_box(
        v.iter()
            .step_by(7)
            .filter(|k| index.contains_key(k))
            .count(),
    );
}

/// Inserts `items` pseudo-random keys into a hash map, then probes it
/// with as many others; three times over.
fn build_and_probe(items: usize, seed: u64) {
    let mut next = numbers(seed);
    let range = 2 * items as u64;
    for _ in 0..3 {
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..items as u64 {
            map.insert(next() % range, i);
        }
        black_box(
            (0..items)
                .filter(|_| map.contains_key(&(next() % range)))
                .count(),
        );
    }
}

/// Wall time of `f` run on each of [`crate::JOBS`] threads at once.
fn on_threads(f: impl Fn(u64) + Sync) -> f64 {
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..crate::JOBS as u64 {
            let f = &f;
            s.spawn(move || f(t));
        }
    });
    start.elapsed().as_secs_f64()
}

/// Runs the kernel's three phases over `items` integers and returns the
/// geometric mean of their wall times.
pub fn kernel(items: usize) -> f64 {
    let start = Instant::now();
    sort_and_hash(items, 0);
    let serial = start.elapsed().as_secs_f64();
    let parallel = on_threads(|t| sort_and_hash(items / crate::JOBS, t + 1));
    let maps = on_threads(|t| build_and_probe(items / (4 * crate::JOBS), t + 1));
    (serial * parallel * maps).cbrt()
}

/// Times the kernel in a fresh process (`exe calibrate --items N`), so
/// its large allocations never shape the allocator state (and peak RSS)
/// of the process being measured.
pub fn in_child(exe: &Path, items: usize) -> Result<f64, String> {
    let out = Command::new(exe)
        .args(["calibrate", "--items", &items.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("start calibration process: {e}"))?;
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .ok()
        .filter(|s: &f64| out.status.success() && *s > 0.0)
        .ok_or_else(|| format!("calibration process failed: {}", out.status))
}
