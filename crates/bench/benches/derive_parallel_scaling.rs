//! Scaling of the sharded derivator across worker counts.
//!
//! Mines rules from a mix-workload trace at `jobs = 1, 2, 4` and reports
//! the speedup over the serial path. The sharded derivator is
//! output-deterministic, so before timing anything the bench asserts the
//! mined rules are identical at every worker count — a scaling number for
//! a wrong answer is worthless.
//!
//! Each timed iteration is one `derive_par` call, which builds the shared
//! evidence index (`lockdoc_core::evidence`: every observation unit's
//! held locks resolved once, as interned descriptor ids) and mines its
//! observation lists; the index build is the parallel part.
//!
//! Results land in `BENCH_derive.json` at the repository root. The
//! `jobs1_before_after` field anchors hot-path changes (currently the
//! evidence index replacing per-pass resolution caches): it compares
//! this tree's serial derivation against the jobs=1 time recorded in the
//! committed report, if one exists.
//!
//! Runs on the in-tree `lockdoc_platform::timing` harness; set
//! `LOCKDOC_BENCH_QUICK=1` for a single-iteration smoke run. Speedup is
//! bounded by the machine's core count (`jobs > cores` cannot help).

use ksim::config::SimConfig;
use ksim::rules;
use ksim::subsys::Machine;
use lockdoc_core::derive::{derive_par, DeriveConfig};
use lockdoc_platform::json::{parse, Json};
use lockdoc_platform::par::available_jobs;
use lockdoc_platform::timing::Bench;

/// The jobs=1 `ns_per_iter` recorded in an earlier `BENCH_derive.json`,
/// if one exists: the before/after anchor for derivation hot-path changes.
fn previous_jobs1_ns(path: &str) -> Option<f64> {
    let report = parse(&std::fs::read_to_string(path).ok()?).ok()?;
    report
        .get("runs")?
        .as_array()?
        .iter()
        .find(|r| r.get("jobs").and_then(Json::as_u64) == Some(1))?
        .get("ns_per_iter")?
        .as_f64()
}

fn main() {
    // Benches force the requested worker counts even on small CI boxes:
    // the identity gate must exercise the true multi-worker path.
    std::env::set_var("LOCKDOC_JOBS_FORCE", "1");
    let quick = std::env::var("LOCKDOC_BENCH_QUICK").is_ok_and(|v| v == "1");
    let ops = if quick { 2_000 } else { 20_000 };
    let mut machine =
        Machine::boot(SimConfig::with_seed(0xBEAC).with_faults(rules::default_fault_plan()));
    machine.run_mix(ops);
    let trace = machine.finish();
    let db = lockdoc_trace::db::import(&trace, &rules::filter_config(), 1);
    let config = DeriveConfig::default();

    // Determinism gate: every worker count must mine identical rules.
    let serial = derive_par(&db, &config, 1);
    for jobs in [2usize, 4, 8] {
        assert_eq!(
            derive_par(&db, &config, jobs),
            serial,
            "derive output differs at jobs = {jobs}"
        );
    }

    let mut b = Bench::from_env();
    let job_counts = [1usize, 2, 4];
    for &jobs in &job_counts {
        b.run(&format!("derive/{}k-ops/jobs-{jobs}", ops / 1000), || {
            derive_par(&db, &config, jobs)
        });
    }
    let results = b.results().to_vec();
    let base = results[0].ns_per_iter();
    let mut json_runs = Vec::new();
    for (i, m) in results.iter().enumerate() {
        println!(
            "bench {:<44} speedup vs jobs-1: {:.2}x",
            m.name,
            base / m.ns_per_iter()
        );
        json_runs.push(Json::obj(vec![
            ("jobs", Json::U64(job_counts[i] as u64)),
            ("ns_per_iter", Json::F64(m.ns_per_iter())),
            ("speedup_vs_serial", Json::F64(base / m.ns_per_iter())),
        ]));
    }

    // Before/after anchor for derivation hot-path changes.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_derive.json");
    let before_after = match previous_jobs1_ns(out) {
        Some(prev) if prev > 0.0 => {
            println!(
                "jobs-1 before/after: {:.2} -> {:.2} ms/derive ({:.2}x)",
                prev / 1e6,
                base / 1e6,
                prev / base
            );
            Json::obj(vec![
                ("previous_ns_per_iter", Json::F64(prev)),
                ("current_ns_per_iter", Json::F64(base)),
                ("improvement_factor", Json::F64(prev / base)),
            ])
        }
        _ => Json::Null,
    };

    let cores = available_jobs();
    let report = Json::obj(vec![
        ("bench", Json::Str("derive_parallel_scaling".into())),
        ("quick", Json::Bool(quick)),
        ("ops", Json::U64(ops)),
        ("available_cores", Json::U64(cores as u64)),
        (
            "identity_gate",
            Json::Str("passed for jobs in {2,4,8}".into()),
        ),
        ("runs", Json::Arr(json_runs)),
        ("jobs1_before_after", before_after),
    ]);
    std::fs::write(out, report.pretty() + "\n").expect("write BENCH_derive.json");
    println!("wrote {out}");
    println!("note: machine reports {cores} available core(s); speedup saturates there");
}
