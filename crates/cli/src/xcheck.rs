//! `lockdoc xcheck`: cross-validation of the static outlier lockset
//! analysis against the dynamic passes.
//!
//! The static side analyzes a C-like source tree — by default the
//! seeded ground-truth tree `ksim::srcgen` renders, which comes with an
//! exact injected-outlier oracle (every planted deviation's
//! `file:line`). The dynamic side is the usual trace pipeline (races,
//! documented-rule checker, mined-rule violations, lint). The join
//! matches findings by `(type, member)` and reports, per dynamic pass,
//! how much of the static report it corroborates (precision: overlap /
//! static members) and how much of the pass the static report covers
//! (recall: overlap / pass members) — the numbers the original paper
//! never had, since it lacked a second, independent oracle.
//!
//! The static front end (parsing and observation collection in
//! `locksrc`) runs on `--jobs` workers and the dynamic passes run
//! serially; the output is byte-identical at any `--jobs` (gated in
//! `scripts/verify.sh`).

use crate::{load_db_from, Args, CliError, Result};
use ksim::rules;
use ksim::srcgen::{render, RenderedCorpus, SrcGenConfig};
use lockdoc_core::checker::Verdict;
use lockdoc_core::derive::{derive_in, DeriveConfig};
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::lint::{lint_passes, LintPasses, StaticEvidence, StaticMemberEvidence};
use lockdoc_core::rulespec::parse_rules;
use lockdoc_platform::json::{Json, ToJson};
use locksrc::{analyze_tree, MinerConfig, StaticReport};
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// Reads one source file as text. Bytes that are not UTF-8 (a Latin-1
/// name in a comment, say) decode to U+FFFD, which leaves every `\n`,
/// and so every line number, in place. A file that cannot be read is an
/// I/O error that names it.
pub fn read_source(path: &Path) -> Result<String> {
    let bytes =
        fs::read(path).map_err(|e| io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    Ok(match String::from_utf8(bytes) {
        Ok(text) => text,
        Err(e) => String::from_utf8_lossy(e.as_bytes()).into_owned(),
    })
}

/// Collects `(relative path, content)` of every `.c`/`.h` file under
/// `root`, sorted by path — the deterministic input order the parser
/// expects. Contents are read with [`read_source`].
pub fn collect_source_files(root: &Path) -> Result<Vec<(String, String)>> {
    if !root.exists() {
        return Err(CliError::Usage(format!(
            "no such directory: {}",
            root.display()
        )));
    }
    let mut out: Vec<(String, String)> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(path) = stack.pop() {
        if path.is_dir() {
            for entry in fs::read_dir(&path)? {
                stack.push(entry?.path());
            }
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("c") | Some("h")
        ) {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, read_source(&path)?));
        }
    }
    out.sort();
    Ok(out)
}

/// Converts a static report into the per-member evidence shape
/// `core::lint` joins on.
pub fn to_static_evidence(report: &StaticReport) -> StaticEvidence {
    let mut members = StaticEvidence::default().members;
    for p in report.patterns.iter().filter(|p| p.outliers > 0) {
        members.push(StaticMemberEvidence {
            type_name: p.type_name.clone(),
            member_name: p.member.clone(),
            outliers: p.outliers,
            confidence: p.confidence,
        });
    }
    StaticEvidence { members }
}

/// `(type, member)` pairs flagged by the static report.
fn static_members(report: &StaticReport) -> BTreeSet<(String, String)> {
    report
        .findings
        .iter()
        .map(|f| (f.type_name.clone(), f.member.clone()))
        .collect()
}

/// The type prefix of an observation group name (`inode:ext4` →
/// `inode`).
fn group_type(group_name: &str) -> &str {
    group_name.split(':').next().unwrap_or(group_name)
}

struct PassJoin {
    name: &'static str,
    flagged: BTreeSet<(String, String)>,
}

fn percent(num: usize, den: usize) -> String {
    if den == 0 {
        "n/a".to_owned()
    } else {
        format!("{:.1}%", 100.0 * num as f64 / den as f64)
    }
}

/// `lockdoc xcheck`.
pub fn cmd_xcheck(args: &Args) -> Result<String> {
    let jobs = args.jobs()?;
    let cfg = MinerConfig::default();

    // Static side: an explicit source tree, or the seeded ground-truth
    // render (which brings the exact oracle along).
    let (files, oracle): (Vec<(String, String)>, Option<RenderedCorpus>) = match args.get("src") {
        Some(dir) => (collect_source_files(Path::new(dir))?, None),
        None => {
            let seed: u64 = args.num("seed", 42u64)?;
            let sites: u32 = args.num("sites-per-rule", 6u32)?;
            let corpus = render(&SrcGenConfig {
                seed,
                sites_per_rule: sites,
            });
            (corpus.files.clone(), Some(corpus))
        }
    };
    let report = analyze_tree(&files, &cfg, jobs);

    // Oracle score, when the source tree was rendered from ground truth.
    let oracle_score = oracle.as_ref().map(|corpus| {
        let planted = corpus.planted_sites();
        let reported: BTreeSet<(String, u32)> = report
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line))
            .collect();
        let matched = planted.intersection(&reported).count();
        (planted.len(), reported.len(), matched)
    });

    // Dynamic side, when a trace is supplied.
    let dynamic = match args.get("trace") {
        Some(path) => {
            let db = load_db_from(path, args)?;
            let t_ac: f64 = args.num("t-ac", 0.9f64)?;
            let parsed = parse_rules(rules::documented_rules())
                .map_err(|e| CliError::Rules(e.to_string()))?;
            let index = EvidenceIndex::build(&db);
            let mined = derive_in(&index, &DeriveConfig::with_threshold(t_ac));
            let statics = to_static_evidence(&report);
            let LintPasses {
                checked,
                violations,
                races,
                report: linted,
                ..
            } = lint_passes(&index, &mined, &parsed, Some(&statics));

            let mut passes: Vec<PassJoin> = Vec::new();
            passes.push(PassJoin {
                name: "races",
                flagged: races
                    .groups
                    .iter()
                    .flat_map(|g| {
                        g.candidates
                            .iter()
                            .map(|c| (group_type(&g.group_name).to_owned(), c.member_name.clone()))
                    })
                    .collect(),
            });
            passes.push(PassJoin {
                name: "checker",
                flagged: checked
                    .iter()
                    .filter(|c| c.verdict == Verdict::Incorrect)
                    .map(|c| (c.rule.type_name.clone(), c.rule.member.clone()))
                    .collect(),
            });
            passes.push(PassJoin {
                name: "violations",
                flagged: violations
                    .iter()
                    .flat_map(|g| {
                        g.per_member
                            .iter()
                            .filter(|m| m.events > 0)
                            .map(|m| (group_type(&g.group_name).to_owned(), m.member_name.clone()))
                    })
                    .collect(),
            });
            passes.push(PassJoin {
                name: "lint",
                flagged: linted
                    .findings
                    .iter()
                    .map(|f| (group_type(&f.group_name).to_owned(), f.member_name.clone()))
                    .collect(),
            });
            Some(passes)
        }
        None => None,
    };

    let statics = static_members(&report);

    if args.has("json") {
        let mut fields = vec![("static", report.to_json())];
        if let Some((planted, reported, matched)) = oracle_score {
            fields.push((
                "oracle",
                Json::obj(vec![
                    ("planted", (planted as u64).to_json()),
                    ("reported", (reported as u64).to_json()),
                    ("matched", (matched as u64).to_json()),
                ]),
            ));
        }
        if let Some(passes) = &dynamic {
            fields.push((
                "passes",
                Json::Arr(
                    passes
                        .iter()
                        .map(|p| {
                            let overlap = p.flagged.intersection(&statics).count();
                            Json::obj(vec![
                                ("pass", p.name.to_json()),
                                ("flagged", (p.flagged.len() as u64).to_json()),
                                ("overlap", (overlap as u64).to_json()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        return Ok(Json::obj(fields).pretty());
    }

    let mut out = report.render();
    if let Some((planted, reported, matched)) = oracle_score {
        out.push_str(&format!(
            "oracle: planted {planted}, reported {reported}, matched {matched} — \
             oracle precision: {}, oracle recall: {}\n",
            percent(matched, reported),
            percent(matched, planted)
        ));
    }
    if let Some(passes) = &dynamic {
        out.push_str(&format!(
            "cross-validation against the dynamic passes ({} static members):\n",
            statics.len()
        ));
        for p in passes {
            let overlap = p.flagged.intersection(&statics).count();
            out.push_str(&format!(
                "  {:<10} {} members flagged, {} overlap — precision {} (overlap/static), \
                 recall {} (overlap/pass)\n",
                p.name,
                p.flagged.len(),
                overlap,
                percent(overlap, statics.len()),
                percent(overlap, p.flagged.len())
            ));
        }
    }
    Ok(out)
}
