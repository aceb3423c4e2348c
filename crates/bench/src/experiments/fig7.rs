//! Fig. 7: fraction of "no lock" winning hypotheses as a function of the
//! acceptance threshold `t_ac`, per data type and access kind.

use crate::context::EvalContext;
use crate::table::Table;
use lockdoc_core::derive::{derive, DeriveConfig};
use lockdoc_platform::par::par_map;
use lockdoc_trace::event::AccessKind;
use std::collections::BTreeMap;

/// The sweep values (paper: 0.7 ..= 1.0).
pub fn thresholds() -> Vec<f64> {
    (0..=12).map(|i| 0.70 + f64::from(i) * 0.025).collect()
}

/// `type name -> (per threshold: (no-lock fraction read, write))`.
pub type SweepData = BTreeMap<String, Vec<(f64, f64)>>;

/// Runs the sweep over the 10 non-inode data types (as in the paper,
/// inode subclasses are excluded for clarity). The sweep points are
/// independent derivations, so they fan out across `ctx.config.jobs`
/// workers; the fold happens in threshold order, so the result is
/// identical at any worker count.
pub fn measure(ctx: &EvalContext) -> SweepData {
    let ths = thresholds();
    let sweeps = par_map(ctx.config.jobs, &ths, |&t_ac| {
        derive(&ctx.db, &DeriveConfig::with_threshold(t_ac))
    });
    let mut data: SweepData = BTreeMap::new();
    for mined in &sweeps {
        for group in &mined.groups {
            if group.group_name.contains(':') {
                continue; // skip inode subclasses
            }
            let frac = |kind: AccessKind| {
                let rules = group.rule_count(kind);
                if rules == 0 {
                    0.0
                } else {
                    group.no_lock_count(kind) as f64 / rules as f64
                }
            };
            data.entry(group.group_name.clone())
                .or_default()
                .push((frac(AccessKind::Read), frac(AccessKind::Write)));
        }
    }
    data
}

/// Renders the sweep as one table per access kind.
pub fn report(ctx: &EvalContext) -> String {
    let data = measure(ctx);
    let ths = thresholds();
    let mut out =
        String::from("Fig. 7 — fraction of \"no lock\" winners vs acceptance threshold:\n");
    for (kind_idx, kind_name) in [(0usize, "read"), (1usize, "write")] {
        let mut header: Vec<String> = vec!["Data Type".to_string()];
        header.extend(ths.iter().map(|t| format!("{t:.2}")));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        for (name, series) in &data {
            let mut row = vec![name.clone()];
            for point in series {
                let v = if kind_idx == 0 { point.0 } else { point.1 };
                row.push(format!("{:.0}", v * 100.0));
            }
            t.row(&row);
        }
        out.push_str(&format!("\n[{kind_name} accesses, % of rules]\n"));
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{EvalConfig, EvalContext};

    #[test]
    fn no_lock_fraction_is_monotone_in_threshold() {
        let ctx = EvalContext::build(EvalConfig {
            ops: 3_000,
            ..EvalConfig::default()
        });
        let data = measure(&ctx);
        assert!(
            data.len() >= 8,
            "ten data types expected, got {}",
            data.len()
        );
        for (name, series) in &data {
            assert_eq!(series.len(), thresholds().len());
            for w in series.windows(2) {
                assert!(
                    w[1].0 >= w[0].0 - 1e-9 && w[1].1 >= w[0].1 - 1e-9,
                    "{name}: raising t_ac can only reject lock hypotheses"
                );
            }
        }
    }

    #[test]
    fn some_types_never_reach_hundred_percent() {
        // Paper: "For some data types the fraction of no-lock rules never
        // reaches 100 %" — strong rules with full support survive t_ac = 1.
        let ctx = EvalContext::build(EvalConfig {
            ops: 3_000,
            ..EvalConfig::default()
        });
        let data = measure(&ctx);
        let survivors = data
            .values()
            .filter(|series| {
                let last = series.last().unwrap();
                last.0 < 1.0 || last.1 < 1.0
            })
            .count();
        assert!(
            survivors > 0,
            "at least one type keeps lock rules at t_ac=1"
        );
    }
}
