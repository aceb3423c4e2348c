//! Coverage-guided feedback fuzzing of workload mixes (DESIGN.md §5.5).
//!
//! LockDoc's mined rules are only as good as the trace behind them: a
//! member the benchmark never touches derives no rule, a lock pair never
//! nested never reaches the order graph, and a race candidate without a
//! concrete witness pair stays "pairless". The paper's follow-up work
//! ("Improving Linux-Kernel Tests for LockDoc with Feedback-driven
//! Fuzzing") closes this loop: mutate the workload mix, keep mutants that
//! light up dark signal, repeat. This module reproduces that campaign on
//! the ksim substrate.
//!
//! A campaign starts from [`Mix::standard`]'s weights, then runs
//! generations of mutated [`CandidateMix`]es (weight perturbation,
//! workload add/drop/focus, seed reroll) through
//! [`crate::parallel::run_mix_sharded`] and the full analysis pipeline
//! (import → derive → races → order). Each candidate's [`Signal`] is
//! folded into a [`Frontier`]; candidates that contribute anything new
//! join the corpus, everything else is discarded — the corpus is minimal
//! by construction.
//!
//! # Determinism contract
//!
//! A campaign is a pure function of ([`FuzzConfig`], nothing else):
//!
//! * every candidate's RNG is seeded
//!   `derive_seed(derive_seed(campaign_seed, round), slot)`, so mutation
//!   choices depend only on the campaign seed and the candidate's fixed
//!   coordinates, never on timing;
//! * parents are chosen from a corpus *snapshot taken at round start*, so
//!   the lineage cannot depend on which worker finished first;
//! * candidate evaluations run via the ordered
//!   [`lockdoc_platform::par::par_map`] with every inner stage pinned to
//!   `jobs = 1`, and frontier/corpus updates fold sequentially in slot
//!   order afterwards.
//!
//! Consequently `jobs` changes wall-clock time only: reports are
//! byte-identical at any worker count, and `jobs = 1` is the exact serial
//! path (`tests/fuzz.rs` gates this).

use crate::config::SimConfig;
use crate::parallel::run_mix_sharded;
use crate::rules;
use lockdoc_core::derive::{derive_in, DeriveConfig};
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::feedback::AnalysisSignal;
use lockdoc_core::order::OrderGraph;
use lockdoc_core::race::find_races_in;
use lockdoc_platform::json::{decode_field, FromJson, Json, JsonError, ToJson};
use lockdoc_platform::par::par_map;
use lockdoc_platform::rng::{derive_seed, Rng};
use lockdoc_trace::db::import;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// The workload names a candidate mix can draw from, in canonical order
/// (the order [`Mix::standard`] uses). Candidate weights index into this
/// array, so every generated spec string is canonically ordered and
/// duplicate-free by construction.
pub const WORKLOADS: [&str; 6] = [
    "fsstress", "fs_inod", "fs_bench", "pipes", "symlinks", "perms",
];

/// One point in the fuzzer's search space: per-workload weights (0 =
/// absent) plus the simulation seed the candidate runs under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateMix {
    /// Weight per [`WORKLOADS`] entry; 0 drops the workload from the mix.
    pub weights: [u32; 6],
    /// Seed passed to [`SimConfig::with_seed`] for this candidate's run.
    pub sim_seed: u64,
}

impl CandidateMix {
    /// The paper's standard mix under the given simulation seed — the
    /// campaign baseline and root of every mutation lineage.
    pub fn standard(sim_seed: u64) -> Self {
        Self {
            weights: [40, 15, 20, 10, 7, 8],
            sim_seed,
        }
    }

    /// Renders the candidate as a [`Mix::from_spec`] string
    /// (canonically ordered, non-zero entries only).
    pub fn spec(&self) -> String {
        let parts: Vec<String> = WORKLOADS
            .iter()
            .zip(self.weights)
            .filter(|(_, w)| *w > 0)
            .map(|(name, w)| format!("{name}={w}"))
            .collect();
        parts.join(",")
    }

    /// Number of workloads present in the mix.
    fn present(&self) -> usize {
        self.weights.iter().filter(|w| **w > 0).count()
    }
}

/// Campaign parameters. A report is a pure function of this struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzConfig {
    /// Campaign seed: drives both mutation choices and the baseline's
    /// simulation seed.
    pub seed: u64,
    /// Total number of *mutated* candidates to evaluate (the baseline
    /// evaluation is on the house).
    pub budget: u64,
    /// Workload operations per candidate run.
    pub ops: u64,
    /// Shards per candidate run (trace content, same as `--shards`).
    pub shards: u64,
    /// Candidates per generation. Parents are drawn from the corpus as it
    /// stood at the *start* of the generation, so this bounds how far a
    /// lineage can advance per round and is part of trace content (it
    /// changes the search trajectory, unlike `jobs`).
    pub generation: u64,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        Self {
            seed: 0xf022_5eed,
            budget: 16,
            ops: 400,
            shards: 1,
            generation: 4,
        }
    }
}

/// Everything the feedback loop can observe about one candidate run:
/// simulator-side function coverage plus the analysis-side
/// [`AnalysisSignal`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signal {
    /// Sorted names of functions the run executed.
    pub covered_fns: Vec<String>,
    /// Declared function universe (stable across runs: the machine
    /// declares all functions at boot).
    pub total_fns: u64,
    /// Derivation/race/order dimensions.
    pub analysis: AnalysisSignal,
}

/// Integer digest of a [`Signal`] or [`Frontier`] for reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignalSummary {
    /// Distinct functions covered.
    pub covered_fns: u64,
    /// Declared function universe.
    pub total_fns: u64,
    /// Members with no observation at all.
    pub zero_obs_members: u64,
    /// Declared member universe.
    pub members_total: u64,
    /// Distinct nested lock-acquisition pairs.
    pub lock_combos: u64,
    /// Race candidates with a concrete witness pair.
    pub race_candidates: u64,
    /// Collectively-emptied locksets still lacking a witness pair.
    pub pairless: u64,
}

impl Signal {
    fn summary(&self) -> SignalSummary {
        SignalSummary {
            covered_fns: self.covered_fns.len() as u64,
            total_fns: self.total_fns,
            zero_obs_members: self.analysis.zero_observation_members,
            members_total: self.analysis.members_total,
            lock_combos: self.analysis.lock_combos.len() as u64,
            race_candidates: self.analysis.race_candidates,
            pairless: self.analysis.pairless,
        }
    }
}

/// What a candidate added on top of the frontier (all zero = discarded).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Gain {
    /// Functions covered for the first time.
    pub new_fns: u64,
    /// Lock combos witnessed for the first time.
    pub new_combos: u64,
    /// Drop in the zero-observation member minimum.
    pub zero_obs_drop: u64,
    /// Rise in the witnessed race-candidate maximum.
    pub races_up: u64,
    /// Drop in the pairless minimum (at the current race-candidate level).
    pub pairless_drop: u64,
}

impl Gain {
    /// Did the candidate contribute anything new?
    pub fn any(&self) -> bool {
        self.new_fns > 0
            || self.new_combos > 0
            || self.zero_obs_drop > 0
            || self.races_up > 0
            || self.pairless_drop > 0
    }

    /// Human-readable one-liner, e.g. `+3 fns, +1 combos, -1 zero-obs`.
    pub fn describe(&self) -> String {
        let mut parts = Vec::new();
        if self.new_fns > 0 {
            parts.push(format!("+{} fns", self.new_fns));
        }
        if self.new_combos > 0 {
            parts.push(format!("+{} combos", self.new_combos));
        }
        if self.zero_obs_drop > 0 {
            parts.push(format!("-{} zero-obs", self.zero_obs_drop));
        }
        if self.races_up > 0 {
            parts.push(format!("+{} races", self.races_up));
        }
        if self.pairless_drop > 0 {
            parts.push(format!("-{} pairless", self.pairless_drop));
        }
        parts.join(", ")
    }
}

/// The campaign's accumulated knowledge: union sets for coverage-like
/// dimensions, best-so-far scalars for the rest.
#[derive(Debug, Clone)]
pub struct Frontier {
    covered_fns: BTreeSet<String>,
    lock_combos: BTreeSet<String>,
    total_fns: u64,
    members_total: u64,
    zero_obs_members: u64,
    race_candidates: u64,
    pairless: u64,
}

impl Frontier {
    /// Seeds the frontier with the baseline's signal.
    fn from_baseline(s: &Signal) -> Self {
        Self {
            covered_fns: s.covered_fns.iter().cloned().collect(),
            lock_combos: s.analysis.lock_combos.iter().cloned().collect(),
            total_fns: s.total_fns,
            members_total: s.analysis.members_total,
            zero_obs_members: s.analysis.zero_observation_members,
            race_candidates: s.analysis.race_candidates,
            pairless: s.analysis.pairless,
        }
    }

    /// Folds a candidate's signal in, reporting what it contributed.
    ///
    /// The pairless minimum is only credited at the current
    /// race-candidate maximum — an empty-ish trace trivially has zero
    /// pairless members, so "fewer pairless" only counts as progress
    /// while witnessing at least as many races as the best candidate.
    /// When the race maximum rises, the pairless baseline resets to the
    /// new best candidate's value.
    fn absorb(&mut self, s: &Signal) -> Gain {
        let mut gain = Gain::default();
        for f in &s.covered_fns {
            if self.covered_fns.insert(f.clone()) {
                gain.new_fns += 1;
            }
        }
        for c in &s.analysis.lock_combos {
            if self.lock_combos.insert(c.clone()) {
                gain.new_combos += 1;
            }
        }
        self.total_fns = self.total_fns.max(s.total_fns);
        self.members_total = self.members_total.max(s.analysis.members_total);
        if s.analysis.zero_observation_members < self.zero_obs_members {
            gain.zero_obs_drop = self.zero_obs_members - s.analysis.zero_observation_members;
            self.zero_obs_members = s.analysis.zero_observation_members;
        }
        if s.analysis.race_candidates > self.race_candidates {
            gain.races_up = s.analysis.race_candidates - self.race_candidates;
            self.race_candidates = s.analysis.race_candidates;
            self.pairless = s.analysis.pairless;
        } else if s.analysis.race_candidates == self.race_candidates
            && s.analysis.pairless < self.pairless
        {
            gain.pairless_drop = self.pairless - s.analysis.pairless;
            self.pairless = s.analysis.pairless;
        }
        gain
    }

    fn summary(&self) -> SignalSummary {
        SignalSummary {
            covered_fns: self.covered_fns.len() as u64,
            total_fns: self.total_fns,
            zero_obs_members: self.zero_obs_members,
            members_total: self.members_total,
            lock_combos: self.lock_combos.len() as u64,
            race_candidates: self.race_candidates,
            pairless: self.pairless,
        }
    }
}

/// A corpus entry: a candidate that contributed new signal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusEntry {
    /// The candidate's mix spec (canonical form).
    pub spec: String,
    /// The candidate's simulation seed.
    pub sim_seed: u64,
    /// Generation the candidate was evaluated in (0 = baseline).
    pub round: u64,
    /// What it contributed ([`Gain::describe`]; "baseline" for round 0).
    pub gain: String,
    /// The candidate's own signal digest.
    pub summary: SignalSummary,
}

/// Frontier snapshot after each generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrajectoryPoint {
    /// Mutated candidates evaluated so far.
    pub evaluated: u64,
    /// Frontier digest at that point.
    pub frontier: SignalSummary,
}

/// The result of a fuzzing campaign: byte-stable, (seed, budget)-
/// reproducible, and `jobs`-invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzReport {
    /// Campaign seed.
    pub seed: u64,
    /// Mutated candidates evaluated.
    pub budget: u64,
    /// Ops per candidate run.
    pub ops: u64,
    /// Shards per candidate run.
    pub shards: u64,
    /// Generation size.
    pub generation: u64,
    /// Signal of the standard mix under the campaign seed.
    pub baseline: SignalSummary,
    /// Accumulated frontier after the whole campaign.
    pub frontier: SignalSummary,
    /// Dimensions where the frontier beats the baseline (sorted).
    pub improved: Vec<String>,
    /// Minimized corpus: baseline + every contributing candidate.
    pub corpus: Vec<CorpusEntry>,
    /// Frontier digest after each generation.
    pub trajectory: Vec<TrajectoryPoint>,
}

impl FuzzReport {
    /// Did the campaign improve at least one signal dimension over the
    /// standard mix? (The non-vacuity gate in `tests/fuzz.rs`.)
    pub fn improves_baseline(&self) -> bool {
        !self.improved.is_empty()
    }

    /// Renders the deterministic text report (integer-only).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz campaign: seed=0x{:x} budget={} ops={} shards={} generation={}",
            self.seed, self.budget, self.ops, self.shards, self.generation
        );
        let row = |s: &SignalSummary| {
            format!(
                "fns {}/{}, combos {}, zero-obs {}/{}, races {}, pairless {}",
                s.covered_fns,
                s.total_fns,
                s.lock_combos,
                s.zero_obs_members,
                s.members_total,
                s.race_candidates,
                s.pairless
            )
        };
        let _ = writeln!(out, "baseline (standard mix): {}", row(&self.baseline));
        let _ = writeln!(out, "frontier after campaign: {}", row(&self.frontier));
        let improved = if self.improved.is_empty() {
            "none".to_owned()
        } else {
            self.improved.join(", ")
        };
        let _ = writeln!(out, "improved: {improved}");
        let _ = writeln!(out, "corpus ({} entries):", self.corpus.len());
        for e in &self.corpus {
            let _ = writeln!(
                out,
                "  [round {}] {} seed=0x{:x} ({})",
                e.round, e.spec, e.sim_seed, e.gain
            );
        }
        let _ = writeln!(out, "trajectory:");
        for t in &self.trajectory {
            let _ = writeln!(out, "  eval {}: {}", t.evaluated, row(&t.frontier));
        }
        out
    }
}

// JSON projections live here rather than in `core::jsonout` because the
// orphan rule requires the impls next to the types; `core` serializes the
// shared `AnalysisSignal` half.
macro_rules! json_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl ToJson for $ty {
            fn to_json(&self) -> Json {
                Json::obj(vec![$((stringify!($field), self.$field.to_json())),+])
            }
        }
        impl FromJson for $ty {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                Ok(Self {
                    $($field: decode_field(v, stringify!($field))?),+
                })
            }
        }
    };
}

json_struct!(SignalSummary {
    covered_fns,
    total_fns,
    zero_obs_members,
    members_total,
    lock_combos,
    race_candidates,
    pairless,
});
json_struct!(CorpusEntry {
    spec,
    sim_seed,
    round,
    gain,
    summary,
});
json_struct!(TrajectoryPoint {
    evaluated,
    frontier
});
json_struct!(FuzzReport {
    seed,
    budget,
    ops,
    shards,
    generation,
    baseline,
    frontier,
    improved,
    corpus,
    trajectory,
});

/// Runs one candidate through the simulator and the full analysis
/// pipeline on the calling thread: its shards run one after another, and
/// campaign-level parallelism happens across candidates, not inside them.
pub fn evaluate(cand: &CandidateMix, ops: u64, shards: u64) -> Result<Signal, String> {
    let cfg = SimConfig::with_seed(cand.sim_seed);
    let run = run_mix_sharded(&cfg, Some(&cand.spec()), ops, shards, 1)?;
    let db = import(&run.trace, &rules::filter_config(), 1);
    let index = EvidenceIndex::build(&db);
    let mined = derive_in(&index, &DeriveConfig::default());
    let races = find_races_in(&index);
    let order = OrderGraph::build(&db);
    let analysis = AnalysisSignal::compute(&db, &mined, &races, &order);
    Ok(Signal {
        covered_fns: run.coverage.covered_function_names(),
        total_fns: run.coverage.total_fn_count(),
        analysis,
    })
}

/// Derives one mutant from a parent. The five mutation kinds: perturb a
/// weight, add an absent workload, drop one (keeping at least one),
/// reroll the simulation seed, or focus the mix on a single workload.
fn mutate(parent: &CandidateMix, rng: &mut Rng) -> CandidateMix {
    let mut c = parent.clone();
    let present: Vec<usize> = (0..WORKLOADS.len()).filter(|&i| c.weights[i] > 0).collect();
    let absent: Vec<usize> = (0..WORKLOADS.len())
        .filter(|&i| c.weights[i] == 0)
        .collect();
    match rng.gen_range(0u32..5) {
        0 => {
            let &i = rng.choose(&present).expect("mix is never empty");
            c.weights[i] = rng.gen_range(1u32..200);
        }
        1 => match rng.choose(&absent) {
            Some(&i) => c.weights[i] = rng.gen_range(1u32..200),
            None => {
                // Full mix: fall back to a perturbation.
                let &i = rng.choose(&present).expect("mix is never empty");
                c.weights[i] = rng.gen_range(1u32..200);
            }
        },
        2 => {
            if c.present() > 1 {
                let &i = rng.choose(&present).expect("len > 1");
                c.weights[i] = 0;
            } else {
                c.sim_seed = rng.next_u64();
            }
        }
        3 => c.sim_seed = rng.next_u64(),
        _ => {
            let &keep = rng.choose(&present).expect("mix is never empty");
            for i in &present {
                c.weights[*i] = 1;
            }
            c.weights[keep] = rng.gen_range(50u32..200);
        }
    }
    c
}

/// Runs a full campaign. `jobs` parallelizes candidate evaluation within
/// each generation and is wall-clock-only: the report is byte-identical
/// at any worker count.
pub fn run_campaign(cfg: &FuzzConfig, jobs: usize) -> Result<FuzzReport, String> {
    if cfg.budget == 0 {
        return Err("fuzz budget must be >= 1".to_owned());
    }
    if cfg.generation == 0 {
        return Err("fuzz generation size must be >= 1".to_owned());
    }

    let baseline_mix = CandidateMix::standard(cfg.seed);
    let baseline = evaluate(&baseline_mix, cfg.ops, cfg.shards)?;
    let mut frontier = Frontier::from_baseline(&baseline);
    let mut corpus = vec![CorpusEntry {
        spec: baseline_mix.spec(),
        sim_seed: baseline_mix.sim_seed,
        round: 0,
        gain: "baseline".to_owned(),
        summary: baseline.summary(),
    }];
    let mut corpus_mixes = vec![baseline_mix];
    let mut trajectory = Vec::new();

    let mut evaluated = 0u64;
    let mut round = 0u64;
    while evaluated < cfg.budget {
        round += 1;
        let slots = cfg.generation.min(cfg.budget - evaluated);
        // Mutation choices draw only on (campaign seed, round, slot) and
        // the round-start corpus snapshot — nothing timing-dependent.
        let round_seed = derive_seed(cfg.seed, round);
        let candidates: Vec<CandidateMix> = (0..slots)
            .map(|g| {
                let mut rng = Rng::seed_from_u64(derive_seed(round_seed, g));
                let parent = rng.choose(&corpus_mixes).expect("corpus starts non-empty");
                mutate(&parent.clone(), &mut rng)
            })
            .collect();
        let signals: Vec<Result<Signal, String>> =
            par_map(jobs, &candidates, |c| evaluate(c, cfg.ops, cfg.shards));
        for (cand, sig) in candidates.into_iter().zip(signals) {
            let sig = sig?;
            let gain = frontier.absorb(&sig);
            if gain.any() {
                corpus.push(CorpusEntry {
                    spec: cand.spec(),
                    sim_seed: cand.sim_seed,
                    round,
                    gain: gain.describe(),
                    summary: sig.summary(),
                });
                corpus_mixes.push(cand);
            }
        }
        evaluated += slots;
        trajectory.push(TrajectoryPoint {
            evaluated,
            frontier: frontier.summary(),
        });
    }

    let base = baseline.summary();
    let front = frontier.summary();
    let mut improved = Vec::new();
    if front.covered_fns > base.covered_fns {
        improved.push("covered_fns".to_owned());
    }
    if front.lock_combos > base.lock_combos {
        improved.push("lock_combos".to_owned());
    }
    if front.race_candidates > base.race_candidates {
        improved.push("race_candidates".to_owned());
    }
    if front.zero_obs_members < base.zero_obs_members {
        improved.push("zero_observation_members".to_owned());
    }
    if front.pairless < base.pairless {
        improved.push("pairless".to_owned());
    }
    improved.sort();

    Ok(FuzzReport {
        seed: cfg.seed,
        budget: cfg.budget,
        ops: cfg.ops,
        shards: cfg.shards,
        generation: cfg.generation,
        baseline: base,
        frontier: front,
        improved,
        corpus,
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Mix;
    use lockdoc_platform::json::{from_str, to_string_pretty};

    #[test]
    fn candidate_spec_is_canonical_and_parses() {
        let c = CandidateMix::standard(1);
        assert_eq!(
            c.spec(),
            "fsstress=40,fs_inod=15,fs_bench=20,pipes=10,symlinks=7,perms=8"
        );
        assert!(Mix::from_spec(&c.spec()).is_ok());
        let sparse = CandidateMix {
            weights: [0, 0, 3, 0, 9, 0],
            sim_seed: 1,
        };
        assert_eq!(sparse.spec(), "fs_bench=3,symlinks=9");
        assert!(Mix::from_spec(&sparse.spec()).is_ok());
    }

    #[test]
    fn mutants_always_yield_valid_specs() {
        let mut rng = Rng::seed_from_u64(9);
        let mut c = CandidateMix::standard(9);
        for _ in 0..200 {
            c = mutate(&c, &mut rng);
            assert!(c.present() >= 1, "mix never empties");
            assert!(Mix::from_spec(&c.spec()).is_ok(), "spec: {}", c.spec());
        }
    }

    #[test]
    fn frontier_credits_each_dimension_once() {
        let base = Signal {
            covered_fns: vec!["a".into(), "b".into()],
            total_fns: 10,
            analysis: AnalysisSignal {
                members_total: 5,
                observed_members: 3,
                zero_observation_members: 2,
                lock_combos: vec!["x -> y".into()],
                race_candidates: 0,
                pairless: 0,
            },
        };
        let mut f = Frontier::from_baseline(&base);
        // Re-absorbing the baseline contributes nothing.
        assert!(!f.absorb(&base).any());
        let better = Signal {
            covered_fns: vec!["a".into(), "c".into()],
            total_fns: 10,
            analysis: AnalysisSignal {
                members_total: 5,
                observed_members: 4,
                zero_observation_members: 1,
                lock_combos: vec!["x -> y".into(), "y -> z".into()],
                race_candidates: 0,
                pairless: 0,
            },
        };
        let gain = f.absorb(&better);
        assert_eq!(gain.new_fns, 1, "only `c` is new");
        assert_eq!(gain.new_combos, 1, "only `y -> z` is new");
        assert_eq!(gain.zero_obs_drop, 1);
        // Absorbing it again: frontier already has everything.
        assert!(!f.absorb(&better).any());
        assert_eq!(f.summary().covered_fns, 3);
        assert_eq!(f.summary().lock_combos, 2);
    }

    #[test]
    fn pairless_only_counts_at_the_race_maximum() {
        let base = Signal {
            covered_fns: vec![],
            total_fns: 0,
            analysis: AnalysisSignal {
                members_total: 0,
                observed_members: 0,
                zero_observation_members: 0,
                lock_combos: vec![],
                race_candidates: 2,
                pairless: 3,
            },
        };
        let mut f = Frontier::from_baseline(&base);
        // Fewer pairless but also fewer races: the trivial direction, no
        // credit (an empty trace would "win" otherwise).
        let mut s = base.clone();
        s.analysis.race_candidates = 1;
        s.analysis.pairless = 0;
        assert!(!f.absorb(&s).any());
        // Fewer pairless at the same race level: credited.
        s.analysis.race_candidates = 2;
        s.analysis.pairless = 1;
        let g = f.absorb(&s);
        assert_eq!(g.pairless_drop, 2);
        // More races resets the pairless baseline to the new best.
        s.analysis.race_candidates = 4;
        s.analysis.pairless = 5;
        let g = f.absorb(&s);
        assert_eq!(g.races_up, 2);
        assert_eq!(f.summary().pairless, 5);
    }

    #[test]
    fn fuzz_report_round_trips_through_json() {
        let cfg = FuzzConfig {
            budget: 2,
            ops: 120,
            generation: 2,
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg, 1).unwrap();
        let text = to_string_pretty(&report);
        let back: FuzzReport = from_str(&text).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn budget_counts_mutants_and_fills_trajectory() {
        let cfg = FuzzConfig {
            budget: 5,
            ops: 100,
            generation: 2,
            ..FuzzConfig::default()
        };
        let report = run_campaign(&cfg, 2).unwrap();
        // Generations of 2, 2, 1 — the trajectory records each.
        assert_eq!(
            report
                .trajectory
                .iter()
                .map(|t| t.evaluated)
                .collect::<Vec<_>>(),
            vec![2, 4, 5]
        );
        assert_eq!(report.corpus[0].gain, "baseline");
        assert!(!report.corpus.is_empty());
    }

    #[test]
    fn zero_budget_is_rejected() {
        let cfg = FuzzConfig {
            budget: 0,
            ..FuzzConfig::default()
        };
        assert!(run_campaign(&cfg, 1).is_err());
    }
}
