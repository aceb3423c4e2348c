//! Golden-file end-to-end pipeline test: simulate → encode → import →
//! derive → document → check → violations → races → lint → CSV export,
//! with a fixed seed, and compare the generated report byte-for-byte
//! against a checked-in golden file.
//!
//! When the pipeline's output legitimately changes, regenerate with
//!
//! ```sh
//! LOCKDOC_GOLDEN_REGEN=1 cargo test -q --test golden
//! ```
//!
//! and review the diff of `tests/golden/pipeline_doc.txt` like any other
//! code change.

use ksim::config::SimConfig;
use ksim::parallel::run_mix_sharded;
use ksim::rules;
use ksim::subsys::Machine;
use lockdoc_core::checker::{check_rules_par, summarize, CheckedRule};
use lockdoc_core::derive::{derive_par, DeriveConfig};
use lockdoc_core::docgen::{generate_doc, generate_rulespec};
use lockdoc_core::lint::{lint, LintInputs};
use lockdoc_core::lockset::format_sequence;
use lockdoc_core::order::OrderGraph;
use lockdoc_core::race::find_races_par;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_core::violation::{find_violations_par, GroupViolations};
use lockdoc_platform::hash::checksum;
use lockdoc_trace::codec::write_trace;
use lockdoc_trace::db::{import, TraceDb};
use std::fs;
use std::path::PathBuf;

const GOLDEN_SEED: u64 = 0x601d_5eed;
const GOLDEN_OPS: u64 = 2_000;

/// Runs the full pipeline once — sharded ksim generation, trace encode,
/// import, derivation, documentation — with every parallel phase on
/// `jobs` workers (import is serial): returns the encoded trace bytes and
/// the generated documentation artifact. `shards` is part of the trace
/// content (see `ksim::parallel`); `jobs` must never change a byte of
/// either output.
fn run_pipeline_sharded(shards: u64, jobs: usize) -> (Vec<u8>, String) {
    let cfg = SimConfig::with_seed(GOLDEN_SEED).with_faults(rules::default_fault_plan());
    let run = run_mix_sharded(&cfg, None, GOLDEN_OPS, shards, jobs).expect("generation succeeds");
    let trace = run.trace;

    let mut encoded = Vec::new();
    write_trace(&trace, &mut encoded).expect("encode");

    let db = import(&trace, &rules::filter_config(), jobs);
    let mined = derive_par(&db, &DeriveConfig::default(), jobs);

    let mut doc = String::new();
    doc.push_str(&format!(
        "# golden pipeline artifact (seed 0x{GOLDEN_SEED:x}, {GOLDEN_OPS} ops)\n\n"
    ));
    doc.push_str("## rulespec\n\n");
    for group in &mined.groups {
        doc.push_str(&generate_rulespec(group));
    }
    doc.push_str("\n## documentation\n\n");
    for group in &mined.groups {
        doc.push_str(&generate_doc(group));
        doc.push('\n');
    }

    // Documented-rule check, violation scan, race detection and the
    // cross-pass consistency lint, sharded like every other phase; the
    // golden file pins all four text reports too.
    let documented = parse_rules(rules::documented_rules()).expect("documented rules parse");
    let checked = check_rules_par(&db, &documented, jobs);
    let violations = find_violations_par(&db, &mined, 3, jobs);
    let races = find_races_par(&db, jobs);
    let order = OrderGraph::build_par(&db, jobs);
    let report = lint(
        &db,
        &LintInputs {
            mined: &mined,
            checked: &checked,
            violations: &violations,
            races: &races,
            order: &order,
            statics: None,
        },
        jobs,
    );
    doc.push_str("## check\n\n");
    doc.push_str(&render_checked(&checked));
    doc.push_str("\n## violations\n\n");
    doc.push_str(&render_violations(&db, &violations));
    doc.push_str("\n## races\n\n");
    doc.push_str(&races.render(&db));
    doc.push_str("\n## lint\n\n");
    doc.push_str(&report.render(&db));

    // A small feedback-fuzzing campaign rides on the same golden file:
    // its report is a pure function of the config below, and passing the
    // pipeline's `jobs` through pins the jobs-invariance of the campaign
    // loop alongside every other phase.
    let fuzz_cfg = ksim::fuzz::FuzzConfig {
        seed: GOLDEN_SEED,
        budget: 4,
        ops: 240,
        shards: 1,
        generation: 2,
    };
    let fuzz = ksim::fuzz::run_campaign(&fuzz_cfg, jobs).expect("fuzz campaign runs");
    doc.push_str("\n## fuzz\n\n");
    doc.push_str(&fuzz.render());

    // The CSV export of the imported store: each table's header, row
    // count and checksum pin every byte the formatter writes.
    doc.push_str("\n## csv tables\n\n");
    for (name, csv) in db.export_csv_tables() {
        let header = csv.lines().next().unwrap_or_default();
        doc.push_str(&format!(
            "{name}: {} rows, checksum {:016x}\n  {header}\n",
            csv.lines().count().saturating_sub(1),
            checksum(csv.as_bytes())
        ));
    }
    (encoded, doc)
}

/// The documented-rule check table: every rule with its support and
/// verdict, then the per-type summary rows (paper Tab. 4).
fn render_checked(checked: &[CheckedRule]) -> String {
    let mut out = String::new();
    for c in checked {
        out.push_str(&format!(
            "{:60} sa {:>5} / {:>5}  sr {:6.2}%  {}\n",
            c.rule.to_string(),
            c.sa,
            c.total,
            c.sr * 100.0,
            c.verdict
        ));
    }
    for row in summarize(checked) {
        out.push_str(&format!(
            "{:16} #R={:3} #No={:3} #Ob={:3} ok={:.1}% ~={:.1}% bad={:.1}%\n",
            row.type_name,
            row.rules,
            row.not_observed,
            row.observed,
            row.pct_correct,
            row.pct_ambivalent,
            row.pct_incorrect
        ));
    }
    out
}

/// The violation report: per-group totals and per-member tallies, and
/// every example with its required and actually held lock sequences.
fn render_violations(db: &TraceDb, violations: &[GroupViolations]) -> String {
    let mut out = String::new();
    for v in violations.iter().filter(|v| v.events > 0) {
        out.push_str(&format!(
            "{}: {} events, {} members, {} contexts\n",
            v.group_name,
            v.events,
            v.members.len(),
            v.context_count()
        ));
        for m in &v.per_member {
            out.push_str(&format!(
                "  {}:{} {} events ({} in irq)\n",
                m.member_name, m.kind, m.events, m.irq_events
            ));
        }
        for ex in &v.examples {
            out.push_str(&format!(
                "  #{} {}.{}:{}\n    required: {}\n    held:     {}\n    at {} ({})\n",
                ex.access_id,
                ex.group_name,
                ex.member_name,
                ex.kind,
                format_sequence(&ex.required),
                format_sequence(&ex.held),
                db.format_loc(ex.loc),
                db.format_stack(ex.stack)
            ));
        }
    }
    out
}

fn run_pipeline_jobs(jobs: usize) -> (Vec<u8>, String) {
    run_pipeline_sharded(1, jobs)
}

fn run_pipeline() -> (Vec<u8>, String) {
    run_pipeline_jobs(1)
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/pipeline_doc.txt")
}

/// The end-to-end artifact matches the checked-in golden file exactly.
#[test]
fn golden_pipeline_doc_matches() {
    let (_, doc) = run_pipeline();
    let path = golden_path();
    if std::env::var_os("LOCKDOC_GOLDEN_REGEN").is_some() {
        fs::create_dir_all(path.parent().unwrap()).expect("mkdir golden");
        fs::write(&path, &doc).expect("write golden");
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {}: {e}\nregenerate with LOCKDOC_GOLDEN_REGEN=1 cargo test -q --test golden",
            path.display()
        )
    });
    assert_eq!(
        doc, want,
        "pipeline output drifted from tests/golden/pipeline_doc.txt; if the \
         change is intentional, regenerate with LOCKDOC_GOLDEN_REGEN=1 and \
         review the diff"
    );
}

/// Determinism contract (paper Sec. 4: reproducible traces): identical
/// seeds yield byte-identical encoded traces AND byte-identical derived
/// documentation across independent runs in the same process.
#[test]
fn identical_seeds_yield_byte_identical_pipeline() {
    let (trace_a, doc_a) = run_pipeline();
    let (trace_b, doc_b) = run_pipeline();
    assert_eq!(trace_a, trace_b, "encoded traces differ between runs");
    assert_eq!(doc_a, doc_b, "derived documentation differs between runs");
}

/// Determinism contract of the parallel pipeline: the encoded trace and
/// the generated documentation are byte-identical whether generation and
/// derivation run serially or across a thread pool. The
/// golden file therefore pins the output of every worker count at once.
#[test]
fn parallel_derivation_is_byte_identical_to_serial() {
    let (trace_serial, doc_serial) = run_pipeline_jobs(1);
    let (trace_par, doc_par) = run_pipeline_jobs(4);
    assert_eq!(
        trace_serial, trace_par,
        "trace generated at jobs=4 drifted from the serial output"
    );
    assert_eq!(
        doc_serial, doc_par,
        "documentation derived at jobs=4 drifted from the serial output"
    );
}

/// Same contract with multi-shard generation in the loop: a 4-shard
/// workload run through the full pipeline at jobs=1 and jobs=4 produces
/// byte-identical traces and final documentation — and genuinely
/// different content than the unsharded run (sharding is not a no-op).
#[test]
fn sharded_pipeline_is_jobs_invariant_end_to_end() {
    let (trace_serial, doc_serial) = run_pipeline_sharded(4, 1);
    let (trace_par, doc_par) = run_pipeline_sharded(4, 4);
    assert_eq!(
        trace_serial, trace_par,
        "4-shard trace differs between jobs=1 and jobs=4"
    );
    assert_eq!(
        doc_serial, doc_par,
        "4-shard documentation differs between jobs=1 and jobs=4"
    );
    let (unsharded, _) = run_pipeline_jobs(1);
    assert_ne!(
        trace_serial, unsharded,
        "shard count must be part of the trace content"
    );
}

/// A different seed produces a different trace (the determinism above is
/// not vacuous).
#[test]
fn different_seeds_differ() {
    let (trace_a, _) = run_pipeline();
    let cfg = SimConfig::with_seed(GOLDEN_SEED ^ 1).with_faults(rules::default_fault_plan());
    let mut machine = Machine::boot(cfg);
    machine.run_mix(GOLDEN_OPS);
    let mut other = Vec::new();
    write_trace(&machine.finish(), &mut other).expect("encode");
    assert_ne!(trace_a, other);
}
