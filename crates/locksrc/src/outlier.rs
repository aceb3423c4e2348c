//! Per-(struct, member) outlier mining over the lockset observations.
//!
//! Following the outlier-based static approach (Dossche et al., see
//! PAPERS.md), the analysis assumes most call sites lock correctly: for
//! each `(type, member, access kind)` the *majority* normalized lockset
//! pattern is taken as the intended rule, and access sites whose held
//! set does not cover it become ranked findings. The confidence of a
//! finding is the majority's support ratio — a member locked
//! consistently at 19 of 20 sites makes the 20th site a much stronger
//! finding than an 11-of-20 split would.
//!
//! Mining runs serially, one member group after another: it is a few
//! hundredths of a second even on the benchmark's 1,000-site tree, and
//! sharding it gained nothing at two workers. Every report is JSON
//! round-trippable through the in-tree codec, so `lockdoc xcheck --json`
//! output is loss-free and byte-identical at any `--jobs`.

use crate::ast::{self, AccessKind};
use crate::lockstate::{self, AccessObservation, AnalysisConfig};
use lockdoc_platform::json::{decode_field, FromJson, Json, JsonError, ToJson};
use std::collections::BTreeMap;

/// Tuning for the outlier miner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinerConfig {
    /// Minimum support ratio of the majority pattern; below this no
    /// pattern is trusted and no outliers are reported for the member.
    pub majority_threshold: f64,
    /// Minimum number of observations for a member to be mined at all.
    pub min_observations: u64,
    /// Lockset propagation knobs.
    pub analysis: AnalysisConfig,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            majority_threshold: 0.7,
            min_observations: 3,
            analysis: AnalysisConfig::default(),
        }
    }
}

/// The mined majority pattern for one `(type, member, kind)`.
#[derive(Debug, Clone, PartialEq)]
pub struct MemberPattern {
    /// Struct type name.
    pub type_name: String,
    /// Member name.
    pub member: String,
    /// Access kind, `"r"` or `"w"`.
    pub kind: String,
    /// Majority lockset pattern (sorted, `+`-joined; `(none)` when the
    /// majority holds nothing).
    pub majority: String,
    /// Observations matching (covering) the majority pattern.
    pub support: u64,
    /// Total observations of the member/kind.
    pub total: u64,
    /// `support / total`.
    pub confidence: f64,
    /// Deviating observations.
    pub outliers: u64,
}

/// One deviating access site, in one witness context.
#[derive(Debug, Clone, PartialEq)]
pub struct OutlierFinding {
    /// Struct type name.
    pub type_name: String,
    /// Member name.
    pub member: String,
    /// Access kind, `"r"` or `"w"`.
    pub kind: String,
    /// File containing the deviating access.
    pub file: String,
    /// 1-based line of the deviating access.
    pub line: u32,
    /// The majority pattern the site should have held.
    pub expected: String,
    /// What the site actually held.
    pub observed: String,
    /// Majority support ratio backing the finding.
    pub confidence: f64,
    /// Witness call path (root first) reaching the site unprotected.
    pub path: Vec<String>,
}

/// The full static-analysis report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StaticReport {
    /// Files parsed.
    pub files: u64,
    /// Function definitions found.
    pub functions: u64,
    /// Access observations (site × context).
    pub sites: u64,
    /// Mined member patterns, in (type, member, kind) order.
    pub patterns: Vec<MemberPattern>,
    /// Outlier findings, ranked by confidence (then site order).
    pub findings: Vec<OutlierFinding>,
}

impl StaticReport {
    /// Distinct `(type, member)` pairs with at least one finding.
    pub fn flagged_members(&self) -> Vec<(String, String)> {
        let mut out: Vec<(String, String)> = self
            .findings
            .iter()
            .map(|f| (f.type_name.clone(), f.member.clone()))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Renders the human-readable report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "static lockset analysis: {} files, {} functions, {} observations, \
             {} member patterns, {} outliers ({} members)",
            self.files,
            self.functions,
            self.sites,
            self.patterns.len(),
            self.findings.len(),
            self.flagged_members().len()
        );
        for p in self.patterns.iter().filter(|p| p.outliers > 0) {
            let _ = writeln!(
                out,
                "pattern {}.{}:{} = {} (support {}/{}, confidence {:.2}) — {} outliers",
                p.type_name,
                p.member,
                p.kind,
                p.majority,
                p.support,
                p.total,
                p.confidence,
                p.outliers
            );
        }
        for f in &self.findings {
            let _ = writeln!(
                out,
                "OUTLIER {}.{}:{} at {}:{}: expected {}, saw {} [confidence {:.2}] via {}",
                f.type_name,
                f.member,
                f.kind,
                f.file,
                f.line,
                f.expected,
                f.observed,
                f.confidence,
                f.path.join(" -> ")
            );
        }
        out
    }
}

impl ToJson for MemberPattern {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type_name", self.type_name.to_json()),
            ("member", self.member.to_json()),
            ("kind", self.kind.to_json()),
            ("majority", self.majority.to_json()),
            ("support", self.support.to_json()),
            ("total", self.total.to_json()),
            ("confidence", self.confidence.to_json()),
            ("outliers", self.outliers.to_json()),
        ])
    }
}

impl FromJson for MemberPattern {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(MemberPattern {
            type_name: decode_field(v, "type_name")?,
            member: decode_field(v, "member")?,
            kind: decode_field(v, "kind")?,
            majority: decode_field(v, "majority")?,
            support: decode_field(v, "support")?,
            total: decode_field(v, "total")?,
            confidence: decode_field(v, "confidence")?,
            outliers: decode_field(v, "outliers")?,
        })
    }
}

impl ToJson for OutlierFinding {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("type_name", self.type_name.to_json()),
            ("member", self.member.to_json()),
            ("kind", self.kind.to_json()),
            ("file", self.file.to_json()),
            ("line", u64::from(self.line).to_json()),
            ("expected", self.expected.to_json()),
            ("observed", self.observed.to_json()),
            ("confidence", self.confidence.to_json()),
            ("path", self.path.to_json()),
        ])
    }
}

impl FromJson for OutlierFinding {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let line: u64 = decode_field(v, "line")?;
        Ok(OutlierFinding {
            type_name: decode_field(v, "type_name")?,
            member: decode_field(v, "member")?,
            kind: decode_field(v, "kind")?,
            file: decode_field(v, "file")?,
            line: line as u32,
            expected: decode_field(v, "expected")?,
            observed: decode_field(v, "observed")?,
            confidence: decode_field(v, "confidence")?,
            path: decode_field(v, "path")?,
        })
    }
}

impl ToJson for StaticReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("files", self.files.to_json()),
            ("functions", self.functions.to_json()),
            ("sites", self.sites.to_json()),
            ("patterns", self.patterns.to_json()),
            ("findings", self.findings.to_json()),
        ])
    }
}

impl FromJson for StaticReport {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(StaticReport {
            files: decode_field(v, "files")?,
            functions: decode_field(v, "functions")?,
            sites: decode_field(v, "sites")?,
            patterns: decode_field(v, "patterns")?,
            findings: decode_field(v, "findings")?,
        })
    }
}

/// Canonical pattern string of a normalized lockset.
fn pattern_string(held: &[String]) -> String {
    if held.is_empty() {
        "(none)".to_owned()
    } else {
        held.join(" + ")
    }
}

/// True when `held` covers every lock of the (non-empty) majority.
fn covers(held: &[String], majority: &[String]) -> bool {
    majority.iter().all(|l| held.contains(l))
}

/// Mines majority patterns and outliers from observations, one
/// `(type, member, kind)` group at a time (`_jobs` is unused; the
/// signature keeps it for existing callers).
pub fn mine_outliers(
    observations: &[AccessObservation<'_>],
    cfg: &MinerConfig,
    _jobs: usize,
) -> (Vec<MemberPattern>, Vec<OutlierFinding>) {
    let mut groups: BTreeMap<(&str, &str, AccessKind), Vec<&AccessObservation<'_>>> =
        BTreeMap::new();
    for o in observations {
        groups
            .entry((o.type_name, o.member, o.kind))
            .or_default()
            .push(o);
    }
    let mut patterns = Vec::new();
    let mut findings = Vec::new();
    for (&(type_name, member, kind), obs) in &groups {
        let total = obs.len() as u64;
        if total < cfg.min_observations {
            continue;
        }
        // Count pattern frequencies; tie-break on the lexicographically
        // smaller pattern for determinism.
        let mut counts: BTreeMap<&[String], u64> = BTreeMap::new();
        for o in obs {
            *counts.entry(o.held.as_slice()).or_default() += 1;
        }
        let (majority, support) = counts
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
            .map(|(&p, &c)| (p, c))
            .expect("non-empty group");
        // Support counts every observation covering the majority (a
        // site holding extra locks is not an outlier).
        let covering = obs.iter().filter(|o| covers(&o.held, majority)).count() as u64;
        let confidence = covering as f64 / total as f64;
        if majority.is_empty() || confidence < cfg.majority_threshold {
            let _ = support;
            continue;
        }
        let mut mined: Vec<OutlierFinding> = Vec::new();
        for o in obs.iter().filter(|o| !covers(&o.held, majority)) {
            mined.push(OutlierFinding {
                type_name: type_name.to_owned(),
                member: member.to_owned(),
                kind: kind.to_string(),
                file: o.file.to_owned(),
                line: o.line,
                expected: pattern_string(majority),
                observed: pattern_string(&o.held),
                confidence,
                path: o.path.iter().map(|f| (*f).to_owned()).collect(),
            });
        }
        // One finding per (site, observed pattern): keep the shortest
        // witness path (observations are pre-sorted, so ties break
        // deterministically).
        mined.sort_by(|a, b| {
            (&a.file, a.line, &a.observed, a.path.len(), &a.path).cmp(&(
                &b.file,
                b.line,
                &b.observed,
                b.path.len(),
                &b.path,
            ))
        });
        mined.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.observed == b.observed);
        patterns.push(MemberPattern {
            type_name: type_name.to_owned(),
            member: member.to_owned(),
            kind: kind.to_string(),
            majority: pattern_string(majority),
            support: covering,
            total,
            confidence,
            outliers: mined.len() as u64,
        });
        findings.append(&mut mined);
    }
    // Rank: strongest confidence first, then canonical site order.
    findings.sort_by(|a, b| {
        b.confidence
            .partial_cmp(&a.confidence)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| {
                (&a.type_name, &a.member, &a.kind, &a.file, a.line).cmp(&(
                    &b.type_name,
                    &b.member,
                    &b.kind,
                    &b.file,
                    b.line,
                ))
            })
    });
    (patterns, findings)
}

/// Runs the whole static pipeline — parse, propagate, mine — over a
/// `(path, content)` tree. Byte-identical at any `jobs`.
pub fn analyze_tree(files: &[(String, String)], cfg: &MinerConfig, jobs: usize) -> StaticReport {
    let program = ast::parse_tree(files, jobs);
    let observations = lockstate::collect_observations(&program, &cfg.analysis, jobs);
    let (patterns, findings) = mine_outliers(&observations, cfg, jobs);
    StaticReport {
        files: program.files.len() as u64,
        functions: program.function_count() as u64,
        sites: observations.len() as u64,
        patterns,
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten correctly locked writers and one lockless one.
    fn corpus_with_one_outlier() -> Vec<(String, String)> {
        let mut src = String::new();
        for i in 0..10 {
            src.push_str(&format!(
                "static void set_state_{i}(struct inode *inode)\n{{\n\
                 \tspin_lock(&inode->i_lock);\n\tinode->i_state = {i};\n\
                 \tspin_unlock(&inode->i_lock);\n}}\n"
            ));
        }
        src.push_str(
            "static void set_state_raw(struct inode *inode)\n{\n\tinode->i_state = 99;\n}\n",
        );
        vec![("fs/inode.c".to_owned(), src)]
    }

    #[test]
    fn majority_pattern_wins_and_outlier_is_found() {
        let report = analyze_tree(&corpus_with_one_outlier(), &MinerConfig::default(), 1);
        assert_eq!(report.findings.len(), 1);
        let f = &report.findings[0];
        assert_eq!(f.member, "i_state");
        assert_eq!(f.expected, "ES(i_lock)");
        assert_eq!(f.observed, "(none)");
        assert_eq!(f.path, vec!["set_state_raw"]);
        assert!((f.confidence - 10.0 / 11.0).abs() < 1e-9);
        let p = report
            .patterns
            .iter()
            .find(|p| p.member == "i_state")
            .unwrap();
        assert_eq!(p.support, 10);
        assert_eq!(p.total, 11);
        assert_eq!(p.outliers, 1);
    }

    #[test]
    fn extra_locks_are_not_outliers() {
        let mut files = corpus_with_one_outlier();
        files[0].1.push_str(
            "static void set_state_extra(struct inode *inode)\n{\n\
             \tspin_lock(&inode_hash_lock);\n\tspin_lock(&inode->i_lock);\n\
             \tinode->i_state = 1;\n\
             \tspin_unlock(&inode->i_lock);\n\tspin_unlock(&inode_hash_lock);\n}\n",
        );
        let report = analyze_tree(&files, &MinerConfig::default(), 1);
        assert_eq!(report.findings.len(), 1, "only the lockless site");
        let p = report
            .patterns
            .iter()
            .find(|p| p.member == "i_state")
            .unwrap();
        assert_eq!(p.support, 11, "superset sites count as covering");
    }

    #[test]
    fn low_support_members_are_not_mined() {
        // 50/50 split: no trustworthy majority, no findings.
        let src = "static void a(struct inode *inode)\n{\n\
                   \tspin_lock(&inode->i_lock);\n\tinode->i_size = 1;\n\tspin_unlock(&inode->i_lock);\n}\n\
                   static void b(struct inode *inode)\n{\n\
                   \tspin_lock(&inode->i_lock);\n\tinode->i_size = 2;\n\tspin_unlock(&inode->i_lock);\n}\n\
                   static void c(struct inode *inode)\n{\n\tinode->i_size = 3;\n}\n\
                   static void d(struct inode *inode)\n{\n\tinode->i_size = 4;\n}\n";
        let report = analyze_tree(
            &[("x.c".to_owned(), src.to_owned())],
            &MinerConfig::default(),
            1,
        );
        assert!(report.findings.is_empty());
    }

    #[test]
    fn empty_majority_yields_no_findings() {
        // Most sites hold nothing: nothing to deviate from.
        let src = "static void a(struct inode *inode)\n{\n\tinode->i_ino = 1;\n}\n\
                   static void b(struct inode *inode)\n{\n\tinode->i_ino = 2;\n}\n\
                   static void c(struct inode *inode)\n{\n\tinode->i_ino = 3;\n}\n\
                   static void d(struct inode *inode)\n{\n\
                   \tspin_lock(&inode->i_lock);\n\tinode->i_ino = 4;\n\tspin_unlock(&inode->i_lock);\n}\n";
        let report = analyze_tree(
            &[("y.c".to_owned(), src.to_owned())],
            &MinerConfig::default(),
            1,
        );
        assert!(report.findings.is_empty());
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = analyze_tree(&corpus_with_one_outlier(), &MinerConfig::default(), 1);
        let text = lockdoc_platform::json::to_string_pretty(&report);
        let back: StaticReport = lockdoc_platform::json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn analysis_is_jobs_invariant() {
        let mut files = corpus_with_one_outlier();
        files.push((
            "fs/dentry.c".to_owned(),
            "static void d0(struct dentry *dentry)\n{\n\
             \tspin_lock(&dentry->d_lock);\n\tdentry->d_flags = 1;\n\tspin_unlock(&dentry->d_lock);\n}\n\
             static void d1(struct dentry *dentry)\n{\n\
             \tspin_lock(&dentry->d_lock);\n\tdentry->d_flags = 2;\n\tspin_unlock(&dentry->d_lock);\n}\n\
             static void d2(struct dentry *dentry)\n{\n\
             \tspin_lock(&dentry->d_lock);\n\tdentry->d_flags = 3;\n\tspin_unlock(&dentry->d_lock);\n}\n\
             static void d3(struct dentry *dentry)\n{\n\tdentry->d_flags = 4;\n}\n"
                .to_owned(),
        ));
        let serial = analyze_tree(&files, &MinerConfig::default(), 1);
        for jobs in [2, 4, 8] {
            assert_eq!(analyze_tree(&files, &MinerConfig::default(), jobs), serial);
        }
    }
}
