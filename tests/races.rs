//! End-to-end acceptance tests for the race detector and the
//! cross-pass consistency lint against the seeded racy-workload knob
//! (`ksim::rules::racy_fault_plan`, `lockdoc trace --racy`).

use ksim::config::SimConfig;
use ksim::rules;
use ksim::subsys::Machine;
use lockdoc_core::checker::check_rules_par;
use lockdoc_core::derive::{derive_par, DeriveConfig};
use lockdoc_core::lint::{lint, LintInputs, Severity};
use lockdoc_core::order::OrderGraph;
use lockdoc_core::race::{find_races_par, RaceReport};
use lockdoc_core::rulespec::parse_rules;
use lockdoc_core::violation::find_violations_par;
use lockdoc_core::LintReport;
use lockdoc_trace::db::{import, TraceDb};

const SEED: u64 = 0x7ace_5eed;
const OPS: u64 = 1_500;

fn racy_db(seed: u64, ops: u64) -> (TraceDb, usize) {
    let cfg = SimConfig::with_seed(seed).with_faults(rules::racy_fault_plan());
    let mut machine = Machine::boot(cfg);
    machine.run_mix(ops);
    let injections = machine.k.fault_log.count("mark_inode_dirty_lockless");
    let trace = machine.finish();
    let db = import(&trace, &rules::filter_config(), 1);
    (db, injections)
}

fn run_lint(db: &TraceDb, jobs: usize) -> (RaceReport, LintReport) {
    let mined = derive_par(db, &DeriveConfig::default(), jobs);
    let documented = parse_rules(rules::documented_rules()).expect("documented rules parse");
    let checked = check_rules_par(db, &documented, jobs);
    let violations = find_violations_par(db, &mined, 3, jobs);
    let races = find_races_par(db, jobs);
    let order = OrderGraph::build_par(db, jobs);
    let report = lint(
        db,
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
    (races, report)
}

/// The acceptance gate: the seeded knob yields at least one CONFIRMED
/// finding whose witness pair pins the injected race site
/// (fs/fs-writeback.c:2152), cross-checked against the fault oracle.
#[test]
fn racy_knob_yields_confirmed_finding_at_injected_site() {
    let (db, injections) = racy_db(SEED, OPS);
    assert!(injections > 0, "knob must fire under this seed");
    let (races, report) = run_lint(&db, 1);

    let candidate = races
        .candidate("inode:ext4", "i_state")
        .or_else(|| races.candidate("inode", "i_state"));
    assert!(candidate.is_some(), "i_state must be a race candidate");

    let confirmed: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.severity == Severity::Confirmed)
        .collect();
    assert!(!confirmed.is_empty(), "at least one CONFIRMED finding");

    let at_site = confirmed.iter().any(|f| {
        f.member_name == "i_state"
            && f.witness.as_ref().is_some_and(|w| {
                [&w.first, &w.second].into_iter().any(|side| {
                    side.loc.line == 2152
                        && db.format_loc(side.loc).starts_with("fs/fs-writeback.c")
                })
            })
    });
    assert!(
        at_site,
        "a CONFIRMED witness pair must include the injected site fs/fs-writeback.c:2152"
    );
}

/// Without the knob the injected `i_state` site never executes, so no
/// finding may reference it: the CONFIRMED result is caused by the
/// injection, not by the workload shape.
#[test]
fn default_plan_has_no_finding_at_injected_site() {
    let cfg = SimConfig::with_seed(SEED);
    let mut machine = Machine::boot(cfg);
    machine.run_mix(OPS);
    assert_eq!(machine.k.fault_log.count("mark_inode_dirty_lockless"), 0);
    let trace = machine.finish();
    let db = import(&trace, &rules::filter_config(), 1);
    let (races, report) = run_lint(&db, 1);
    let touches_site = |w: &lockdoc_core::RacePair| {
        [&w.first, &w.second]
            .into_iter()
            .any(|side| side.loc.line == 2152)
    };
    assert!(!races
        .groups
        .iter()
        .flat_map(|g| &g.candidates)
        .any(|c| touches_site(&c.witness)));
    assert!(!report
        .findings
        .iter()
        .filter_map(|f| f.witness.as_ref())
        .any(touches_site));
}

/// Byte-identical text and JSON reports at jobs = 1 vs 2, 4 and 8 on the
/// racy workload (the acceptance identity gate, exercised below the CLI).
#[test]
fn races_and_lint_are_jobs_invariant() {
    use lockdoc_platform::json::ToJson;
    let (db, _) = racy_db(SEED, OPS);
    let (races1, lint1) = run_lint(&db, 1);
    for jobs in [2, 4, 8] {
        let (races_j, lint_j) = run_lint(&db, jobs);
        assert_eq!(races_j, races1, "race report, jobs = {jobs}");
        assert_eq!(lint_j, lint1, "lint report, jobs = {jobs}");
        assert_eq!(races_j.render(&db), races1.render(&db));
        assert_eq!(lint_j.render(&db), lint1.render(&db));
        assert_eq!(
            races_j.to_json().pretty(),
            races1.to_json().pretty(),
            "race JSON, jobs = {jobs}"
        );
        assert_eq!(
            lint_j.to_json().pretty(),
            lint1.to_json().pretty(),
            "lint JSON, jobs = {jobs}"
        );
    }
}
