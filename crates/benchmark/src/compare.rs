//! `compare`: a change's runs against a parent's, metric by metric.
//!
//! Each results file is one run; a side's samples of a (workload,
//! metric) are the per-run medians across its files, in file order, so
//! file `i` of the parent and file `i` of the change form pair `i`
//! (run them alternately). The verdict rules:
//!
//! * **worse** — the change's median is worse than the parent's by more
//!   than the metric's bound (any amount for an exact metric);
//! * **unresolved** — not worse, but the parent's interquartile range
//!   exceeds the bound and not every change run beats every parent run;
//! * **better** — at least ten pairs, the change wins at least nine in
//!   ten of them (ties count for neither), and the medians differ by
//!   more than the parent's interquartile range;
//! * **unchanged** — otherwise.
//!
//! With a single file on the parent side, its spread is that run's own
//! rep quartiles.

use crate::metrics::{e2e_def, Better, Results};
use crate::stats::Summary;
use std::collections::BTreeMap;

/// Verdict on one (workload, metric).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain that meets the pair rule.
    Better,
    /// A regression past the bound.
    Worse,
    /// Within the bound, spread resolved, no proven gain.
    Unchanged,
    /// The parent's spread is wider than the bound.
    Unresolved,
    /// The change's runs do not report the metric.
    Missing,
}

impl Verdict {
    /// Lower-case name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// All runs of one side for one (workload, metric).
#[derive(Debug, Clone, Default)]
struct Side {
    values: Vec<f64>,
    /// Quartiles of the first run's own reps (used when there is only
    /// one run).
    first: Option<Summary>,
}

impl Side {
    fn summary(&self) -> Option<Summary> {
        match self.values.len() {
            1 => self.first,
            _ => Summary::of(&self.values),
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Parent summary.
    pub parent: Summary,
    /// Change summary (absent when the change lacks the metric).
    pub change: Option<Summary>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The verdict for one metric, given both sides' per-run values and
/// summaries (see the module docs for the rules).
pub fn verdict(
    better: Better,
    bound: f64,
    parent: (&[f64], Summary),
    change: (&[f64], Summary),
) -> Verdict {
    let beats = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let (p, c) = (parent.1, change.1);
    if bound == 0.0 {
        return if beats(p.value, c.value) {
            Verdict::Worse
        } else if beats(c.value, p.value) {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
    }
    let worse_by = match better {
        Better::Lower => c.value - p.value,
        Better::Higher => p.value - c.value,
    } / p.value.abs();
    if worse_by > bound {
        return Verdict::Worse;
    }
    let all_beat = change
        .0
        .iter()
        .all(|&cv| parent.0.iter().all(|&pv| beats(cv, pv)));
    if p.relative_spread() > bound && !all_beat {
        return Verdict::Unresolved;
    }
    let pairs = parent.0.len().min(change.0.len());
    let wins = parent
        .0
        .iter()
        .zip(change.0)
        .filter(|(&pv, &cv)| beats(cv, pv))
        .count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && (c.value - p.value).abs() > p.q3 - p.q1 {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

/// Per-(workload, metric) samples of one side, in file order.
fn collect(runs: &[Results]) -> BTreeMap<(String, String), Side> {
    let mut out: BTreeMap<(String, String), Side> = BTreeMap::new();
    for run in runs {
        for w in &run.workloads {
            for m in &w.metrics {
                let side = out.entry((w.workload.clone(), m.name.clone())).or_default();
                side.values.push(m.summary.value);
                side.first.get_or_insert(m.summary);
            }
        }
    }
    out
}

/// Compares every (workload, metric) the parent runs report, under the
/// direction and bound of the benchmark's metric table.
pub fn compare(parent: &[Results], change: &[Results]) -> Vec<Row> {
    let change = collect(change);
    collect(parent)
        .into_iter()
        .filter_map(|((workload, metric), p)| {
            let def = e2e_def(&metric)?;
            let ps = p.summary()?;
            let (cs, verdict) = match change.get(&(workload.clone(), metric.clone())) {
                Some(c) => {
                    let cs = c.summary()?;
                    (
                        Some(cs),
                        verdict(def.better, def.bound, (&p.values, ps), (&c.values, cs)),
                    )
                }
                None => (None, Verdict::Missing),
            };
            Some(Row {
                workload,
                metric,
                unit: def.unit.to_owned(),
                parent: ps,
                change: cs,
                verdict,
            })
        })
        .collect()
}

/// Whether any row blocks the change (a regression or a lost metric).
pub fn blocks(rows: &[Row]) -> bool {
    rows.iter()
        .any(|r| matches!(r.verdict, Verdict::Worse | Verdict::Missing))
}

/// Renders the rows as a table.
pub fn render(rows: &[Row]) -> String {
    let side = |s: &Summary| format!("{:.6} [{:.6}, {:.6}] n={}", s.value, s.q1, s.q3, s.n);
    let mut out = format!(
        "{:<8} {:<20} {:<9} {:<44} {:<44} verdict\n",
        "workload", "metric", "unit", "parent median [q1, q3] n", "change median [q1, q3] n"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<8} {:<20} {:<9} {:<44} {:<44} {}\n",
            r.workload,
            r.metric,
            r.unit,
            side(&r.parent),
            r.change.as_ref().map_or("-".to_owned(), side),
            r.verdict.name()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(v: &[f64]) -> (&[f64], Summary) {
        (v, Summary::of(v).unwrap())
    }

    #[test]
    fn verdict_rules() {
        let parent: Vec<f64> = (0..10).map(|i| 1.0 + f64::from(i) * 0.001).collect();
        let same = parent.clone();
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let lower = Better::Lower;
        assert_eq!(
            verdict(lower, 0.1, side(&parent), side(&same)),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(lower, 0.1, side(&parent), side(&slower)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(lower, 0.1, side(&parent), side(&faster)),
            Verdict::Better
        );
        // Too few pairs for a gain.
        assert_eq!(
            verdict(lower, 0.1, side(&parent[..5]), side(&faster[..5])),
            Verdict::Unchanged
        );
        // A parent spread wider than the bound leaves it unresolved...
        let noisy = [1.0, 1.5, 0.7, 1.4, 0.8, 1.3, 0.6, 1.2, 1.1, 0.9];
        let near = [1.02, 1.5, 0.7, 1.4, 0.8, 1.3, 0.6, 1.2, 1.1, 0.9];
        assert_eq!(
            verdict(lower, 0.1, side(&noisy), side(&near)),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        let far = [0.1; 10];
        assert_eq!(
            verdict(lower, 0.1, side(&noisy), side(&far)),
            Verdict::Better
        );
        // Exact metrics: any worsening is a regression.
        assert_eq!(
            verdict(lower, 0.0, side(&[0.0]), side(&[0.01])),
            Verdict::Worse
        );
        assert_eq!(
            verdict(Better::Higher, 0.01, side(&[1.0]), side(&[0.5])),
            Verdict::Worse
        );
    }
}
