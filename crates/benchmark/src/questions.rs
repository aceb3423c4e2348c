//! One rep: a client asks a workload's questions through
//! [`lockdoc_cli::run`], one at a time, and checks every answer.
//!
//! A rep is the workload's full question sequence. Only the CLI calls
//! are timed; restoring state between questions (emptying a cache,
//! removing the member a previous rep added) is not.

use crate::oracle::{self, Check};
use crate::setup::{argv, files, Oracle};
use crate::{arg, Workload};
use lockdoc_platform::json::Json;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

/// Failure descriptions kept per run (the rest are only counted).
const MAX_PROBLEMS: usize = 5;

/// Everything one or more reps measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// Samples per metric name: one per rep of each question's wall time
    /// (or throughput), of `rep_s` (the sum of the rep's question times)
    /// and of `peak_rss_mb`; and every kernel time of the run as
    /// `calibration_s`.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Questions asked.
    pub attempted: u64,
    /// Questions whose answer failed its check.
    pub failed: u64,
    /// Oracle items recovered, over all reps.
    pub recovered: u64,
    /// Oracle items scored, over all reps.
    pub items: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
}

impl Measured {
    /// Adds one sample of `metric`.
    pub fn record(&mut self, metric: &str, value: f64) {
        self.samples
            .entry(metric.to_owned())
            .or_default()
            .push(value);
    }

    /// Scores one question's answer (or its CLI error).
    fn score(
        &mut self,
        question: &str,
        answer: &Result<String, String>,
        check: impl FnOnce(&str) -> Check,
    ) {
        let check = match answer {
            Ok(text) => check(text),
            Err(e) => Check {
                recovered: 0,
                total: 0,
                problem: Some(format!("the CLI returned an error: {e}")),
            },
        };
        self.attempted += 1;
        self.recovered += check.recovered as u64;
        self.items += check.total as u64;
        if let Some(problem) = check.problem {
            self.failed += 1;
            if self.problems.len() < MAX_PROBLEMS {
                self.problems.push(format!("{question}: {problem}"));
            }
        }
    }

    /// Folds another measurement (a later rep) into this one.
    pub fn merge(&mut self, other: Measured) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.recovered += other.recovered;
        self.items += other.items;
        let room = MAX_PROBLEMS.saturating_sub(self.problems.len());
        self.problems.extend(other.problems.into_iter().take(room));
    }

    /// Recovered oracle items as a share of those scored.
    pub fn recall(&self) -> f64 {
        if self.items == 0 {
            0.0
        } else {
            self.recovered as f64 / self.items as f64
        }
    }

    /// Serializes for a rep process's report to its parent.
    pub fn to_json(&self) -> Json {
        let samples = self
            .samples
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|x| Json::F64(*x)).collect()),
                )
            })
            .collect();
        Json::obj(vec![
            ("samples", Json::Obj(samples)),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("recovered", Json::U64(self.recovered)),
            ("items", Json::U64(self.items)),
            (
                "problems",
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
        ])
    }

    /// Parses [`Measured::to_json`] output.
    pub fn from_json(v: &Json) -> Option<Self> {
        let samples = v
            .get("samples")?
            .as_object()?
            .iter()
            .map(|(k, xs)| {
                let xs = xs
                    .as_array()?
                    .iter()
                    .map(Json::as_f64)
                    .collect::<Option<_>>()?;
                Some((k.clone(), xs))
            })
            .collect::<Option<_>>()?;
        Some(Measured {
            samples,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            recovered: v.get("recovered")?.as_u64()?,
            items: v.get("items")?.as_u64()?,
            problems: v
                .get("problems")?
                .as_array()?
                .iter()
                .filter_map(|p| p.as_str().map(str::to_owned))
                .collect(),
        })
    }
}

/// One rep in progress: the loop's record plus the rep's question time.
struct Rep<'a> {
    m: &'a mut Measured,
    secs: f64,
}

impl Rep<'_> {
    /// One timed CLI call: the answer (or the error text) and its time.
    fn call(&mut self, args: &[String]) -> (Result<String, String>, f64) {
        let start = Instant::now();
        let answer = lockdoc_cli::run(args).map_err(|e| e.to_string());
        let secs = start.elapsed().as_secs_f64();
        self.secs += secs;
        (answer, secs)
    }

    /// A timed call whose time is recorded under `metric`.
    fn timed(&mut self, metric: &str, args: &[String]) -> Result<String, String> {
        let (answer, secs) = self.call(args);
        self.m.record(metric, secs);
        answer
    }
}

fn remove(path: &Path) -> Result<(), String> {
    let gone = if path.is_dir() {
        fs::remove_dir_all(path)
    } else {
        fs::remove_file(path)
    };
    match gone {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("remove {}: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// Asks one rep of `w`'s questions against the inputs in `dir`.
pub fn rep(w: Workload, dir: &Path, oracle: &Oracle, m: &mut Measured) -> Result<(), String> {
    let jobs = crate::JOBS.to_string();
    let mut r = Rep { m, secs: 0.0 };
    match (w, oracle) {
        (Workload::Report, Oracle::Report { fired }) => {
            let trace = arg(&dir.join(files::REPORT_TRACE));
            let answer = r.timed(
                "report_s",
                &argv(&["lint", "--trace", &trace, "--json", "--jobs", &jobs]),
            );
            r.m.score("lint", &answer, |a| oracle::check_report(a, fired));
        }
        (
            Workload::Ingest,
            Oracle::Ingest {
                events,
                accesses,
                order,
                quarantine,
            },
        ) => {
            let trace = arg(&dir.join(files::INGEST_TRACE));
            let counts = |a: &str| oracle::check_import_counts(a, *events, *accesses);
            let (answer, secs) = r.call(&argv(&["import", "--trace", &trace, "--jobs", &jobs]));
            r.m.record("import_events_per_s", *events as f64 / secs);
            r.m.score("import", &answer, counts);

            let csv = arg(&dir.join("csv"));
            let answer = r.timed(
                "import_csv_s",
                &argv(&[
                    "import",
                    "--trace",
                    &trace,
                    "--csv-dir",
                    &csv,
                    "--jobs",
                    &jobs,
                ]),
            );
            r.m.score("import --csv-dir", &answer, counts);

            let cache = dir.join("archive-cache");
            remove(&cache)?;
            let order_args = argv(&[
                "order",
                "--trace",
                &trace,
                "--cache-dir",
                &arg(&cache),
                "--jobs",
                &jobs,
            ]);
            let answer = r.timed("cache_cold_s", &order_args);
            r.m.score("order (cold cache)", &answer, |a| {
                oracle::check_same("cold-cache order", a, order)
            });
            let answer = r.timed("cache_warm_s", &order_args);
            r.m.score("order (warm cache)", &answer, |a| {
                oracle::check_same("warm-cache order", a, order)
            });

            let corrupt = arg(&dir.join(files::INGEST_CORRUPT));
            let answer = r.timed(
                "lenient_import_s",
                &argv(&["import", "--lenient", "--trace", &corrupt, "--jobs", &jobs]),
            );
            r.m.score("import --lenient", &answer, |a| {
                oracle::check_quarantine(a, quarantine)
            });
        }
        (Workload::Corpus, Oracle::Corpus { rules8, rules9 }) => {
            let store = dir.join(files::CORPUS_STORE);
            let cache = arg(&dir.join("corpus-cache"));
            remove(Path::new(&cache))?;
            remove(&store.join(files::CORPUS_EXTRA))?;
            let store = arg(&store);
            let build = argv(&[
                "corpus",
                "build",
                "--dir",
                &store,
                "--cache-dir",
                &cache,
                "--jobs",
                &jobs,
            ]);
            let answer = r.timed("corpus_cold_s", &build);
            r.m.score("corpus build (cold)", &answer, |a| {
                oracle::check_rules("cold build", a, rules8)
            });
            let answer = r.timed("corpus_warm_s", &build);
            r.m.score("corpus build (warm)", &answer, |a| {
                oracle::check_rules("warm build", a, rules8).and(oracle::check_all_cached(a))
            });
            let extra = arg(&dir.join(files::CORPUS_EXTRA));
            let answer = r.timed(
                "corpus_add_s",
                &argv(&[
                    "corpus",
                    "add",
                    &extra,
                    "--dir",
                    &store,
                    "--cache-dir",
                    &cache,
                    "--jobs",
                    &jobs,
                ]),
            );
            r.m.score("corpus add", &answer, |a| {
                oracle::check_rules("incremental add", a, rules9)
                    .and(oracle::check_partial_rederive(a))
            });
        }
        (Workload::Static, Oracle::Static { planted }) => {
            let src = arg(&dir.join(files::STATIC_SRC));
            let answer = r.timed(
                "static_s",
                &argv(&["xcheck", "--src", &src, "--json", "--jobs", &jobs]),
            );
            r.m.score("xcheck", &answer, |a| oracle::check_static(a, planted));
        }
        _ => return Err(format!("oracle does not belong to workload {}", w.name())),
    }
    let secs = r.secs;
    r.m.record("rep_s", secs);
    Ok(())
}
