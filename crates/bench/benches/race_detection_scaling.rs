//! Scaling of the lockset race detector + consistency lint across worker
//! counts.
//!
//! Generates a racy-knob trace (`ksim::rules::racy_fault_plan`, the same
//! workload `lockdoc trace --racy` records), runs `find_races_par` and the
//! full `lint` join at `jobs = 1, 2, 4`, and reports accesses/second plus
//! the speedup over the serial pass. Both passes are output-deterministic,
//! so before timing anything the bench asserts the reports are *equal* at
//! every worker count — a scaling number for a wrong answer is worthless.
//!
//! Results land in `BENCH_race.json` at the repository root, including the
//! machine's available core count: on a single-core container the speedup
//! stays ~1x by construction, so the speedup acceptance check (>= 1.5x at
//! jobs = 4) only arms when four cores are actually available and the
//! bench is not in quick mode.
//!
//! Runs on the in-tree `lockdoc_platform::timing` harness; set
//! `LOCKDOC_BENCH_QUICK=1` for a single-iteration smoke run.

use ksim::config::SimConfig;
use ksim::parallel::run_mix_sharded;
use ksim::rules;
use lockdoc_core::derive::{derive_in, DeriveConfig};
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::lint::lint_passes;
use lockdoc_core::race::find_races_par;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_platform::json::Json;
use lockdoc_platform::par::available_jobs;
use lockdoc_platform::timing::Bench;
use lockdoc_trace::db::{import, TraceDb};

/// One `lockdoc lint` question: every pass over one shared evidence
/// index, as the CLI runs it.
fn lint_once(db: &TraceDb, jobs: usize) -> lockdoc_core::LintReport {
    let index = EvidenceIndex::build(db, jobs);
    let mined = derive_in(&index, &DeriveConfig::default(), jobs);
    let documented = parse_rules(rules::documented_rules()).expect("documented rules parse");
    lint_passes(&index, &mined, &documented, None, jobs).report
}

fn main() {
    let quick = std::env::var("LOCKDOC_BENCH_QUICK").is_ok_and(|v| v == "1");
    let ops = if quick { 400 } else { 10_000 };
    let shards = 4;
    let cfg = SimConfig::with_seed(0x7ace_5eed).with_faults(rules::racy_fault_plan());
    let run = run_mix_sharded(&cfg, None, ops, shards, available_jobs())
        .expect("sharded generation succeeds");
    let db = import(&run.trace, &rules::filter_config(), available_jobs());
    let accesses = db.stats.accesses_imported;
    println!(
        "trace: {} events, {accesses} imported accesses ({ops} ops across {shards} shards, \
         {} injected faults)",
        run.trace.events.len(),
        run.fault_log.total()
    );

    // Determinism gate: every worker count must produce equal reports.
    let races_serial = find_races_par(&db, 1);
    let lint_serial = lint_once(&db, 1);
    for jobs in [2usize, 4, 8] {
        assert_eq!(
            find_races_par(&db, jobs),
            races_serial,
            "race report differs at jobs = {jobs}"
        );
        assert_eq!(
            lint_once(&db, jobs),
            lint_serial,
            "lint report differs at jobs = {jobs}"
        );
    }
    if !quick {
        assert!(
            races_serial.candidate_count() > 0,
            "racy-knob trace must surface at least one race candidate"
        );
    }

    let mut b = Bench::from_env();
    let job_counts = [1usize, 2, 4];
    for &jobs in &job_counts {
        b.run(&format!("races/{accesses}-accesses/jobs-{jobs}"), || {
            find_races_par(&db, jobs)
        });
    }
    for &jobs in &job_counts {
        b.run(&format!("lint/{accesses}-accesses/jobs-{jobs}"), || {
            lint_once(&db, jobs)
        });
    }

    let results = b.results().to_vec();
    let mut sections = Vec::new();
    for (name, offset) in [("races", 0usize), ("lint", job_counts.len())] {
        let base = results[offset].ns_per_iter();
        let mut json_runs = Vec::new();
        for (i, &jobs) in job_counts.iter().enumerate() {
            let m = &results[offset + i];
            let aps = accesses as f64 / (m.ns_per_iter() / 1e9);
            let speedup = base / m.ns_per_iter();
            println!(
                "bench {:<44} {:>12.0} accesses/s, speedup vs jobs-1: {:.2}x",
                m.name, aps, speedup
            );
            json_runs.push(Json::obj(vec![
                ("jobs", Json::U64(jobs as u64)),
                ("ns_per_iter", Json::F64(m.ns_per_iter())),
                ("accesses_per_sec", Json::F64(aps)),
                ("speedup_vs_serial", Json::F64(speedup)),
            ]));
        }
        sections.push((name, Json::Arr(json_runs)));
    }

    let cores = available_jobs();
    let report = Json::obj(vec![
        ("bench", Json::Str("race_detection_scaling".into())),
        ("quick", Json::Bool(quick)),
        ("accesses", Json::U64(accesses)),
        ("shards", Json::U64(shards)),
        ("available_cores", Json::U64(cores as u64)),
        (
            "race_candidates",
            Json::U64(races_serial.candidate_count() as u64),
        ),
        (
            "lint_findings",
            Json::U64(lint_serial.findings.len() as u64),
        ),
        (
            "identity_gate",
            Json::Str("passed for jobs in {2,4,8}".into()),
        ),
        ("races_runs", sections[0].1.clone()),
        ("lint_runs", sections[1].1.clone()),
    ]);
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_race.json");
    std::fs::write(out, report.pretty() + "\n").expect("write BENCH_race.json");
    println!("wrote {out}");

    println!("note: machine reports {cores} available core(s); speedup saturates there");
    if !quick && cores >= 4 {
        let at4 = results[2].ns_per_iter();
        let speedup = results[0].ns_per_iter() / at4;
        assert!(
            speedup >= 1.5,
            "expected >= 1.5x speedup at jobs = 4 on a {cores}-core machine, got {speedup:.2}x"
        );
    }
}
