//! Input generation: every input and oracle of a workload, from one seed.
//!
//! Setup writes the inputs into the workload's work directory and
//! returns the [`Oracle`] its answers are checked against. The oracle is
//! saved next to the inputs (`oracle.json`) so the measuring child
//! process can read it without regenerating anything.

use crate::{arg, Scale, Workload};
use ksim::config::SimConfig;
use ksim::parallel::run_mix_sharded;
use ksim::rules;
use ksim::srcgen::{render, SrcGenConfig};
use ksim::subsys::FsKind;
use lockdoc_platform::json::{self, Json};
use lockdoc_trace::codec::write_trace;
use lockdoc_trace::corrupt::{inject, CorruptionClass, Oracle as Injected};
use lockdoc_trace::event::Trace;
use std::fs;
use std::path::Path;

/// File names inside a work directory.
pub mod files {
    /// The `report` trace.
    pub const REPORT_TRACE: &str = "report.ldoc";
    /// The `ingest` trace.
    pub const INGEST_TRACE: &str = "ingest.ldoc";
    /// The corrupted copy of the `ingest` trace.
    pub const INGEST_CORRUPT: &str = "ingest-corrupt.ldoc";
    /// The corpus store directory (eight members).
    pub const CORPUS_STORE: &str = "store";
    /// The held-back ninth corpus member. Its name sorts after every
    /// store member: members merge in name order, so a name sorting in
    /// the middle would shift the merge index of every later member and
    /// perturb groups the new trace never touches.
    pub const CORPUS_EXTRA: &str = "m8-pipes.ldoc";
    /// The `static` source tree.
    pub const STATIC_SRC: &str = "src";
    /// The saved oracle.
    pub const ORACLE: &str = "oracle.json";
}

/// Number of members in the `corpus` store before the incremental add.
pub const CORPUS_MEMBERS: u64 = 8;

/// A fault site ksim's fault log says fired, and the lint finding that
/// must report it.
#[derive(Debug, Clone, PartialEq)]
pub struct FiredSite {
    /// ksim fault-site label.
    pub site: String,
    /// The member the site writes without its lock.
    pub member: String,
    /// `(interned file id, line)` one of the witness accesses must sit
    /// at, when the site pins a single line.
    pub loc: Option<(u64, u64)>,
}

/// Ground truth for one workload's answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Oracle {
    /// `report`: the fault sites that fired.
    Report {
        /// Fired sites, in site-name order.
        fired: Vec<FiredSite>,
    },
    /// `ingest`: generated counts, the uncached `order` answer, and the
    /// corruption injector's quarantine expectation.
    Ingest {
        /// Events in the generated trace.
        events: u64,
        /// Memory accesses in the generated trace.
        accesses: u64,
        /// `order` answer without any archive cache.
        order: String,
        /// `(quarantine class, event index)` pairs the lenient import
        /// must report, exactly.
        quarantine: Vec<(String, u64)>,
    },
    /// `corpus`: batch-derived rules of the 8-member corpus, and the
    /// rules of a from-scratch 9-member build.
    Corpus {
        /// `derive` over the exported 8-member merged trace.
        rules8: String,
        /// Rules section of a cold 9-member `corpus build`.
        rules9: String,
    },
    /// `static`: the planted outlier sites.
    Static {
        /// `(file, line)` of every planted deviation, sorted.
        planted: Vec<(String, u64)>,
    },
}

/// The finding a known ksim fault site must produce: the member it races
/// on and, where the site is a single line, that line.
struct FaultSite {
    site: &'static str,
    member: &'static str,
    loc: Option<(&'static str, u64)>,
}

const FAULT_SITES: [FaultSite; 2] = [
    FaultSite {
        site: "mark_inode_dirty_lockless",
        member: "i_state",
        loc: Some(("fs/fs-writeback.c", 2152)),
    },
    FaultSite {
        site: "inode_set_flags_lockless",
        member: "i_flags",
        loc: None,
    },
];

/// The ingest corruption: a second free of a freed allocation, which the
/// lenient importer must quarantine at exactly the injected event.
const INGEST_CORRUPTION: CorruptionClass = CorruptionClass::DoubleFree;

fn simulate(cfg: &SimConfig, mix: Option<&str>, ops: u64) -> Result<ksim::ShardedRun, String> {
    run_mix_sharded(cfg, mix, ops, 1, 1)
}

fn write_ldoc(trace: &Trace, path: &Path) -> Result<(), String> {
    let mut buf = Vec::new();
    write_trace(trace, &mut buf).map_err(|e| format!("encode trace: {e}"))?;
    fs::write(path, buf).map_err(|e| format!("write {}: {e}", path.display()))
}

fn cli(args: &[String]) -> Result<String, String> {
    lockdoc_cli::run(args).map_err(|e| format!("`{}`: {e}", args.join(" ")))
}

/// The rules section of a `derive`/`corpus build` answer (everything
/// from the first group header on).
pub fn rules_section(answer: &str) -> &str {
    answer.find('[').map_or("", |i| &answer[i..])
}

/// Seed of corpus member `i`: distinct per member, all derived from the
/// workload seed.
fn member_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(100).wrapping_add(i)
}

/// Generates the inputs of `w` into `dir` and saves its oracle.
pub fn setup(w: Workload, seed: u64, scale: Scale, dir: &Path) -> Result<Oracle, String> {
    let mut oracle = generate(w, seed, scale, dir)?;
    complete(dir, &mut oracle)?;
    Ok(oracle)
}

/// Generates and writes the inputs of `w` into `dir` — the work
/// `setup_s` times. Returns the oracle with its reference answers
/// (`order`, corpus rules) still empty; [`complete`] fills them in.
pub fn generate(w: Workload, seed: u64, scale: Scale, dir: &Path) -> Result<Oracle, String> {
    let sizes = scale.sizes();
    Ok(match w {
        Workload::Report => {
            let cfg = SimConfig::with_seed(seed).with_faults(rules::racy_fault_plan());
            let run = simulate(&cfg, None, sizes.report_ops)?;
            write_ldoc(&run.trace, &dir.join(files::REPORT_TRACE))?;
            let mut fired = Vec::new();
            for site in run.fault_log.fired_sites() {
                let expected = FAULT_SITES
                    .iter()
                    .find(|f| f.site == site)
                    .ok_or_else(|| format!("fault site `{site}` has no expected finding"))?;
                let loc = match expected.loc {
                    Some((file, line)) => {
                        let sym = run
                            .trace
                            .meta
                            .strings
                            .get(file)
                            .ok_or_else(|| format!("trace never mentions {file}"))?;
                        Some((u64::from(sym.raw()), line))
                    }
                    None => None,
                };
                fired.push(FiredSite {
                    site: site.to_owned(),
                    member: expected.member.to_owned(),
                    loc,
                });
            }
            if fired.is_empty() {
                return Err(format!("seed {seed}: no fault site fired"));
            }
            Oracle::Report { fired }
        }
        Workload::Ingest => {
            let cfg = SimConfig::with_seed(seed).with_faults(rules::default_fault_plan());
            let run = simulate(&cfg, None, sizes.ingest_ops)?;
            let path = dir.join(files::INGEST_TRACE);
            write_ldoc(&run.trace, &path)?;
            let summary = run.trace.summary();
            let injection = inject(&run.trace, INGEST_CORRUPTION, seed)
                .ok_or_else(|| format!("seed {seed}: no site for {INGEST_CORRUPTION}"))?;
            let bytes = injection
                .bytes
                .ok_or_else(|| format!("{INGEST_CORRUPTION} has no byte container"))?;
            fs::write(dir.join(files::INGEST_CORRUPT), bytes)
                .map_err(|e| format!("write corrupt trace: {e}"))?;
            let Injected::Quarantine(expected) = injection.oracle else {
                return Err(format!("{INGEST_CORRUPTION} has no quarantine oracle"));
            };
            Oracle::Ingest {
                events: summary.total as u64,
                accesses: summary.mem_accesses as u64,
                order: String::new(),
                quarantine: expected
                    .into_iter()
                    .map(|(class, index)| (class.name().to_owned(), index))
                    .collect(),
            }
        }
        Workload::Corpus => {
            let store = dir.join(files::CORPUS_STORE);
            fs::create_dir_all(&store).map_err(|e| format!("create store: {e}"))?;
            for i in 0..CORPUS_MEMBERS {
                let cfg = SimConfig::with_seed(member_seed(seed, i))
                    .with_faults(rules::default_fault_plan());
                let run = simulate(&cfg, None, sizes.corpus_ops)?;
                write_ldoc(&run.trace, &store.join(format!("m{i}.ldoc")))?;
            }
            // A pipes-only workload on a pipes-only boot: it observes a
            // few of the corpus groups, so the add re-derives only those.
            let pipefs = FsKind::from_subclass("pipefs").expect("pipefs is a ksim filesystem");
            let cfg = SimConfig::with_seed(member_seed(seed, CORPUS_MEMBERS))
                .with_faults(rules::default_fault_plan())
                .with_mounts(vec![pipefs]);
            let run = simulate(&cfg, Some("pipes=1"), sizes.corpus_ops)?;
            write_ldoc(&run.trace, &dir.join(files::CORPUS_EXTRA))?;
            Oracle::Corpus {
                rules8: String::new(),
                rules9: String::new(),
            }
        }
        Workload::Static => {
            let corpus = render(&SrcGenConfig {
                seed,
                sites_per_rule: sizes.static_sites,
            });
            let root = dir.join(files::STATIC_SRC);
            for (rel, content) in &corpus.files {
                let path = root.join(rel);
                if let Some(parent) = path.parent() {
                    fs::create_dir_all(parent).map_err(|e| format!("create source dir: {e}"))?;
                }
                fs::write(&path, content).map_err(|e| format!("write {rel}: {e}"))?;
            }
            Oracle::Static {
                planted: corpus
                    .planted_sites()
                    .into_iter()
                    .map(|(file, line)| (file, u64::from(line)))
                    .collect(),
            }
        }
    })
}

/// Computes the oracle's reference answers through the CLI (an uncached
/// `order`; the corpus rules) and saves the oracle for the measuring
/// process.
pub fn complete(dir: &Path, oracle: &mut Oracle) -> Result<(), String> {
    match oracle {
        Oracle::Ingest { order, .. } => {
            let trace = arg(&dir.join(files::INGEST_TRACE));
            *order = cli(&argv(&["order", "--trace", &trace, "--jobs", "2"]))?;
        }
        Oracle::Corpus { rules8, rules9 } => (*rules8, *rules9) = corpus_rules(dir)?,
        Oracle::Report { .. } | Oracle::Static { .. } => {}
    }
    fs::write(dir.join(files::ORACLE), oracle.to_json().pretty())
        .map_err(|e| format!("write oracle: {e}"))
}

/// The corpus oracles: a batch `derive` over the exported 8-member
/// corpus (not the corpus pipeline's own matrices and rules cache), and
/// the rules of a cold 9-member build in a scratch store and cache.
fn corpus_rules(dir: &Path) -> Result<(String, String), String> {
    let store = &dir.join(files::CORPUS_STORE);
    let scratch = dir.join("oracle-scratch");
    let merged = scratch.join("merged.ldoc");
    let store9 = scratch.join("store9");
    fs::create_dir_all(&store9).map_err(|e| format!("create scratch store: {e}"))?;
    cli(&argv(&[
        "corpus",
        "export",
        "--dir",
        &arg(store),
        "--cache-dir",
        &arg(&scratch.join("cache8")),
        "--out",
        &arg(&merged),
    ]))?;
    let rules8 = cli(&argv(&["derive", "--trace", &arg(&merged), "--jobs", "1"]))?;
    for entry in fs::read_dir(store).map_err(|e| format!("list store: {e}"))? {
        let path = entry.map_err(|e| format!("list store: {e}"))?.path();
        if let Some(name) = path.file_name() {
            fs::copy(&path, store9.join(name)).map_err(|e| format!("copy member: {e}"))?;
        }
    }
    fs::copy(
        dir.join(files::CORPUS_EXTRA),
        store9.join(files::CORPUS_EXTRA),
    )
    .map_err(|e| format!("copy member: {e}"))?;
    let build9 = cli(&argv(&[
        "corpus",
        "build",
        "--dir",
        &arg(&store9),
        "--cache-dir",
        &arg(&scratch.join("cache9")),
        "--jobs",
        "1",
    ]))?;
    fs::remove_dir_all(&scratch).map_err(|e| format!("remove oracle scratch: {e}"))?;
    Ok((rules8, rules_section(&build9).to_owned()))
}

/// Owned argument vector.
pub(crate) fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

impl Oracle {
    /// Serializes for `oracle.json`.
    pub fn to_json(&self) -> Json {
        let pair = |a: Json, b: u64| Json::Arr(vec![a, Json::U64(b)]);
        match self {
            Oracle::Report { fired } => Json::obj(vec![(
                "fired",
                Json::Arr(
                    fired
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("site", Json::Str(f.site.clone())),
                                ("member", Json::Str(f.member.clone())),
                                (
                                    "loc",
                                    f.loc.map_or(Json::Null, |(file, line)| {
                                        pair(Json::U64(file), line)
                                    }),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )]),
            Oracle::Ingest {
                events,
                accesses,
                order,
                quarantine,
            } => Json::obj(vec![
                ("events", Json::U64(*events)),
                ("accesses", Json::U64(*accesses)),
                ("order", Json::Str(order.clone())),
                (
                    "quarantine",
                    Json::Arr(
                        quarantine
                            .iter()
                            .map(|(c, i)| pair(Json::Str(c.clone()), *i))
                            .collect(),
                    ),
                ),
            ]),
            Oracle::Corpus { rules8, rules9 } => Json::obj(vec![
                ("rules8", Json::Str(rules8.clone())),
                ("rules9", Json::Str(rules9.clone())),
            ]),
            Oracle::Static { planted } => Json::obj(vec![(
                "planted",
                Json::Arr(
                    planted
                        .iter()
                        .map(|(f, l)| pair(Json::Str(f.clone()), *l))
                        .collect(),
                ),
            )]),
        }
    }

    /// Reads the oracle `setup` saved for workload `w` in `dir`.
    pub fn load(w: Workload, dir: &Path) -> Result<Self, String> {
        let text =
            fs::read_to_string(dir.join(files::ORACLE)).map_err(|e| format!("read oracle: {e}"))?;
        let v = json::parse(&text).map_err(|e| format!("parse oracle: {e:?}"))?;
        Self::from_json(w, &v).ok_or_else(|| "malformed oracle".to_owned())
    }

    fn from_json(w: Workload, v: &Json) -> Option<Self> {
        let str_of = |k: &str| v.get(k)?.as_str().map(str::to_owned);
        let pairs = |k: &str| -> Option<Vec<(Json, u64)>> {
            v.get(k)?
                .as_array()?
                .iter()
                .map(|p| {
                    let p = p.as_array()?;
                    Some((p.first()?.clone(), p.get(1)?.as_u64()?))
                })
                .collect()
        };
        let strings = |k: &str| -> Option<Vec<(String, u64)>> {
            pairs(k)?
                .into_iter()
                .map(|(s, n)| Some((s.as_str()?.to_owned(), n)))
                .collect()
        };
        Some(match w {
            Workload::Report => Oracle::Report {
                fired: v
                    .get("fired")?
                    .as_array()?
                    .iter()
                    .map(|f| {
                        let loc = match f.get("loc")? {
                            Json::Null => None,
                            l => {
                                let l = l.as_array()?;
                                Some((l.first()?.as_u64()?, l.get(1)?.as_u64()?))
                            }
                        };
                        Some(FiredSite {
                            site: f.get("site")?.as_str()?.to_owned(),
                            member: f.get("member")?.as_str()?.to_owned(),
                            loc,
                        })
                    })
                    .collect::<Option<_>>()?,
            },
            Workload::Ingest => Oracle::Ingest {
                events: v.get("events")?.as_u64()?,
                accesses: v.get("accesses")?.as_u64()?,
                order: str_of("order")?,
                quarantine: strings("quarantine")?,
            },
            Workload::Corpus => Oracle::Corpus {
                rules8: str_of("rules8")?,
                rules9: str_of("rules9")?,
            },
            Workload::Static => Oracle::Static {
                planted: strings("planted")?,
            },
        })
    }
}
