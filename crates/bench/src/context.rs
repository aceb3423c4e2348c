//! Shared evaluation context: runs the tracing phase once and carries the
//! imported store plus derived artefacts through all experiments, with
//! per-phase wall-clock timings mirroring the paper's Sec. 7.2 report.

use ksim::config::SimConfig;
use ksim::faults::FaultLog;
use ksim::parallel::run_mix_sharded;
use ksim::rules;
use lockdoc_core::checker::{check_rules_in, CheckedRule};
use lockdoc_core::derive::{derive_in, DeriveConfig, MinedRules};
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_core::violation::{find_violations_in, GroupViolations};
use lockdoc_trace::db::{import, TraceDb};
use lockdoc_trace::event::Trace;
use std::time::{Duration, Instant};

/// Evaluation-run parameters.
#[derive(Debug, Clone, Copy)]
pub struct EvalConfig {
    /// Workload operations to execute.
    pub ops: u64,
    /// Simulation seed.
    pub seed: u64,
    /// Accept threshold `t_ac`.
    pub t_ac: f64,
    /// Whether to enable the default fault plan.
    pub faults: bool,
    /// Worker count for sharded generation and the fig7 threshold sweep;
    /// import and the analyses run serially. Output is identical at any
    /// value.
    pub jobs: usize,
    /// Shards for workload generation. Unlike `jobs` this is part of the
    /// trace *content*: `1` reproduces the historical single-machine run.
    pub shards: u64,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            ops: 20_000,
            seed: 0x10c_d0c,
            t_ac: 0.9,
            faults: true,
            jobs: 1,
            shards: 1,
        }
    }
}

/// Wall-clock timings per pipeline phase (Sec. 7.2).
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Monitoring/tracing (the simulated benchmark run).
    pub tracing: Duration,
    /// Filtering + database import.
    pub import: Duration,
    /// Locking-rule derivation.
    pub derivation: Duration,
    /// Documented-rule checking.
    pub checking: Duration,
    /// Counterexample extraction.
    pub violations: Duration,
}

/// Everything the experiments need, built once.
pub struct EvalContext {
    /// The configuration that produced this context.
    pub config: EvalConfig,
    /// Coverage collector snapshot from the run.
    pub coverage: ksim::coverage::Coverage,
    /// Oracle of injected faults.
    pub fault_log: FaultLog,
    /// The raw trace.
    pub trace: Trace,
    /// The imported store.
    pub db: TraceDb,
    /// Mined rules at `t_ac`.
    pub mined: MinedRules,
    /// Checked documented rules.
    pub checked: Vec<CheckedRule>,
    /// Violations per group.
    pub violations: Vec<GroupViolations>,
    /// Phase timings.
    pub timings: PhaseTimings,
}

impl EvalContext {
    /// Runs the full pipeline once.
    pub fn build(config: EvalConfig) -> Self {
        let mut timings = PhaseTimings::default();

        let t0 = Instant::now();
        let sim = if config.faults {
            SimConfig::with_seed(config.seed).with_faults(rules::default_fault_plan())
        } else {
            SimConfig::with_seed(config.seed)
        };
        let run = run_mix_sharded(&sim, None, config.ops, config.shards, config.jobs)
            .expect("workload generation succeeds");
        let coverage = run.coverage;
        let fault_log = run.fault_log;
        let trace = run.trace;
        timings.tracing = t0.elapsed();

        let t1 = Instant::now();
        let db = import(&trace, &rules::filter_config(), config.jobs);
        timings.import = t1.elapsed();

        // Derivation time includes resolving the evidence index, the join
        // the checker and the violation finder then reuse.
        let t2 = Instant::now();
        let index = EvidenceIndex::build(&db);
        let mined = derive_in(&index, &DeriveConfig::with_threshold(config.t_ac));
        timings.derivation = t2.elapsed();

        let t3 = Instant::now();
        let documented = parse_rules(rules::documented_rules()).expect("rule file parses");
        let checked = check_rules_in(&index, &documented);
        timings.checking = t3.elapsed();

        let t4 = Instant::now();
        let violations = find_violations_in(&index, &mined, 5);
        timings.violations = t4.elapsed();

        Self {
            config,
            coverage,
            fault_log,
            trace,
            db,
            mined,
            checked,
            violations,
            timings,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_with_small_run() {
        let ctx = EvalContext::build(EvalConfig {
            ops: 300,
            ..EvalConfig::default()
        });
        assert!(ctx.db.stats.accesses_imported > 0);
        assert!(ctx.mined.rule_count() > 0);
        assert!(!ctx.checked.is_empty());
        assert_eq!(ctx.violations.len(), ctx.mined.groups.len());
    }
}
