//! Answer checks: each takes the CLI's answer text and the oracle and
//! says whether the answer is right, and how many oracle items it
//! recovered.
//!
//! The checks are pure functions of text, so a test can hand them a
//! tampered answer and watch them reject it.

use crate::setup::{rules_section, FiredSite};
use lockdoc_platform::json::{self, Json};
use std::collections::BTreeSet;

/// Outcome of checking one answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// Oracle items the answer recovered.
    pub recovered: usize,
    /// Oracle items the answer was scored against (0 for checks that
    /// compare whole answers rather than count items).
    pub total: usize,
    /// Why the answer is wrong; `None` when it is right.
    pub problem: Option<String>,
}

impl Check {
    fn items(recovered: usize, total: usize, problem: Option<String>) -> Self {
        Check {
            recovered,
            total,
            problem,
        }
    }

    fn whole(problem: Option<String>) -> Self {
        Self::items(0, 0, problem)
    }

    /// Whether the answer passed.
    pub fn ok(&self) -> bool {
        self.problem.is_none()
    }

    /// Both checks on one answer: items add up, the first problem wins.
    pub fn and(self, other: Check) -> Check {
        Check {
            recovered: self.recovered + other.recovered,
            total: self.total + other.total,
            problem: self.problem.or(other.problem),
        }
    }
}

fn parse_json(answer: &str) -> Result<Json, Check> {
    json::parse(answer).map_err(|e| Check::whole(Some(format!("answer is not JSON: {e:?}"))))
}

fn witness_at(finding: &Json, (file, line): (u64, u64)) -> bool {
    ["first", "second"].iter().any(|side| {
        finding
            .get("witness")
            .and_then(|w| w.get(side))
            .and_then(|a| a.get("loc"))
            .is_some_and(|loc| {
                loc.get("file").and_then(Json::as_u64) == Some(file)
                    && loc.get("line").and_then(Json::as_u64) == Some(line)
            })
    })
}

/// `report`: every fired fault site has a CONFIRMED `lint --json`
/// finding on its member, with a witness access at the site's line where
/// the site pins one.
pub fn check_report(answer: &str, fired: &[FiredSite]) -> Check {
    let v = match parse_json(answer) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let findings = v.get("findings").and_then(Json::as_array).unwrap_or(&[]);
    let missing: Vec<&str> = fired
        .iter()
        .filter(|site| {
            !findings.iter().any(|f| {
                f.get("severity").and_then(Json::as_str) == Some("confirmed")
                    && f.get("member_name").and_then(Json::as_str) == Some(site.member.as_str())
                    && site.loc.is_none_or(|loc| witness_at(f, loc))
            })
        })
        .map(|site| site.site.as_str())
        .collect();
    let problem = (!missing.is_empty()).then(|| {
        format!(
            "no CONFIRMED finding for fired fault site(s) {}",
            missing.join(", ")
        )
    });
    Check::items(fired.len() - missing.len(), fired.len(), problem)
}

/// `static`: the `(file, line)` set of the `xcheck --json` findings
/// equals the planted sites exactly.
pub fn check_static(answer: &str, planted: &[(String, u64)]) -> Check {
    let v = match parse_json(answer) {
        Ok(v) => v,
        Err(c) => return c,
    };
    let reported: BTreeSet<(String, u64)> = v
        .get("static")
        .and_then(|s| s.get("findings"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|f| {
            Some((
                f.get("file")?.as_str()?.to_owned(),
                f.get("line")?.as_u64()?,
            ))
        })
        .collect();
    let planted: BTreeSet<(String, u64)> = planted.iter().cloned().collect();
    let recovered = planted.intersection(&reported).count();
    let problem = (reported != planted).then(|| {
        format!(
            "reported {} site(s), {} of {} planted; missed {:?}, spurious {:?}",
            reported.len(),
            recovered,
            planted.len(),
            planted.difference(&reported).take(3).collect::<Vec<_>>(),
            reported.difference(&planted).take(3).collect::<Vec<_>>()
        )
    });
    Check::items(recovered, planted.len(), problem)
}

fn count_after(answer: &str, prefix: &str) -> Option<u64> {
    answer
        .lines()
        .find_map(|l| l.strip_prefix(prefix))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// `ingest` imports: the reported event and access counts equal the
/// generated trace's.
pub fn check_import_counts(answer: &str, events: u64, accesses: u64) -> Check {
    let got = (
        count_after(answer, "events: "),
        count_after(answer, "accesses: "),
    );
    Check::whole((got != (Some(events), Some(accesses))).then(|| {
        format!("import reported (events, accesses) = {got:?}, generated ({events}, {accesses})")
    }))
}

/// An answer that must equal a reference answer byte for byte.
pub fn check_same(what: &str, answer: &str, expected: &str) -> Check {
    Check::whole((answer != expected).then(|| format!("{what} differs from the reference answer")))
}

/// `ingest` lenient import: the quarantine report lists exactly the
/// injected `(class, event index)` pairs.
pub fn check_quarantine(answer: &str, expected: &[(String, u64)]) -> Check {
    let listed: Vec<(String, u64)> = answer
        .lines()
        .filter_map(|l| {
            let rest = l.trim_start().strip_prefix("event ")?;
            let (index, rest) = rest.split_once(": ")?;
            let (class, _) = rest.split_once(": ")?;
            Some((class.to_owned(), index.parse().ok()?))
        })
        .collect();
    let total = answer
        .lines()
        .find_map(|l| l.strip_prefix("quarantined: "))
        .and_then(|rest| rest.split('/').next()?.parse::<usize>().ok());
    let recovered = expected.iter().filter(|e| listed.contains(e)).count();
    let problem = (listed != expected || total != Some(expected.len())).then(|| {
        format!("quarantine report lists {listed:?} (total {total:?}), injected {expected:?}")
    });
    Check::items(recovered, expected.len(), problem)
}

/// `corpus` builds: the rules section equals the expected rules; the
/// expected rule lines found in the answer are the recovered items.
pub fn check_rules(what: &str, answer: &str, expected: &str) -> Check {
    let got = rules_section(answer);
    let lines: BTreeSet<&str> = got.lines().collect();
    let want: Vec<&str> = expected.lines().collect();
    let recovered = want.iter().filter(|l| lines.contains(*l)).count();
    let problem = (got != expected).then(|| format!("{what}: rules differ from the oracle"));
    Check::items(recovered, want.len(), problem)
}

/// `corpus` warm build: every member came from its cached matrix.
pub fn check_all_cached(answer: &str) -> Check {
    Check::whole(
        (!answer
            .lines()
            .any(|l| l.starts_with("matrices: ") && l.ends_with(", 0 rebuilt")))
        .then(|| "warm build rebuilt a matrix".to_owned()),
    )
}

/// `corpus` incremental add: fewer than half of the groups re-derived.
pub fn check_partial_rederive(answer: &str) -> Check {
    let parsed = answer.lines().find_map(|l| {
        let rest = l.strip_prefix("groups: ")?;
        let mut nums = rest
            .split(", ")
            .map(|part| part.split_whitespace().next()?.parse::<u64>().ok());
        Some((nums.next()??, nums.nth(1)??))
    });
    Check::whole(match parsed {
        Some((total, rederived)) if 2 * rederived < total => None,
        Some((total, rederived)) => Some(format!(
            "incremental add re-derived {rederived} of {total} groups"
        )),
        None => Some("answer has no groups line".to_owned()),
    })
}
