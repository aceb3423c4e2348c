//! What the benchmark reports: the end-to-end metric table, the traced
//! per-layer names, and the results-file model `compare` reads back.

use crate::stats::Summary;
use crate::Workload;
use lockdoc_platform::json::Json;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, error rate).
    Lower,
    /// Larger is better (throughput, recall).
    Higher,
}

impl Better {
    /// `"lower"` or `"higher"`.
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: name, unit, direction, and the share of the
/// parent's median by which it may worsen before `compare` calls it a
/// regression (`0` = exact: any worsening is a regression).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Regression bound.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// Every end-to-end metric. Timings are medians over a run's reps, in
/// reference seconds (see [`crate::calibrate`]); `rep_s` is the sum of
/// one rep's question times. The bounds cover the run-to-run spread
/// measured on a shared 2-vCPU box (README): even calibrated, timings
/// there spread by up to 13% across ten seeds, and peak RSS by up to 6%,
/// as the seed changes the input sizes.
pub const E2E: [MetricDef; 15] = [
    def("setup_s", "s", Better::Lower, 0.25),
    def("rep_s", "s", Better::Lower, 0.25),
    def("peak_rss_mb", "MiB", Better::Lower, 0.2),
    def("error_rate", "fraction", Better::Lower, 0.0),
    def("oracle_recall", "fraction", Better::Higher, 0.01),
    def("report_s", "s", Better::Lower, 0.25),
    def("import_events_per_s", "events/s", Better::Higher, 0.25),
    def("import_csv_s", "s", Better::Lower, 0.25),
    def("cache_cold_s", "s", Better::Lower, 0.25),
    def("cache_warm_s", "s", Better::Lower, 0.25),
    def("lenient_import_s", "s", Better::Lower, 0.25),
    def("corpus_cold_s", "s", Better::Lower, 0.25),
    def("corpus_warm_s", "s", Better::Lower, 0.25),
    def("corpus_add_s", "s", Better::Lower, 0.25),
    def("static_s", "s", Better::Lower, 0.25),
];

/// The end-to-end metrics every workload reports, in output order. The
/// question timings that only one workload has follow them.
pub const COMMON_E2E: [&str; 5] = [
    "setup_s",
    "rep_s",
    "peak_rss_mb",
    "error_rate",
    "oracle_recall",
];

/// The subset of [`COMMON_E2E`] in the one-line JSON result that ends
/// `--workload W ... --trace 0`: metrics every workload has and that are
/// never zero.
pub const LINE_E2E: [&str; 4] = ["setup_s", "rep_s", "peak_rss_mb", "oracle_recall"];

/// Per-question metrics of a workload, in question order.
pub fn question_metrics(w: Workload) -> &'static [&'static str] {
    match w {
        Workload::Report => &["report_s"],
        Workload::Ingest => &[
            "import_events_per_s",
            "import_csv_s",
            "cache_cold_s",
            "cache_warm_s",
            "lenient_import_s",
        ],
        Workload::Corpus => &["corpus_cold_s", "corpus_warm_s", "corpus_add_s"],
        Workload::Static => &["static_s"],
    }
}

/// Looks up an end-to-end metric definition.
pub fn e2e_def(name: &str) -> Option<&'static MetricDef> {
    E2E.iter().find(|d| d.name == name)
}

/// Every per-layer metric of the traced run, with its unit. Names
/// without a workload prefix are layers timed on the workload the
/// README maps them to; `<workload>.` names are per-workload.
pub const LAYERS: [(&str, &str); 69] = [
    // ingest
    ("trace.codec.decode_s", "s"),
    ("trace.codec.events", "count"),
    ("trace.db.import_s", "s"),
    ("trace.db.import_s_j1", "s"),
    ("trace.db.accesses_imported", "count"),
    ("trace.db.accesses_filtered", "count"),
    ("trace.db.txns", "count"),
    ("trace.db.stacks", "count"),
    ("trace.db.csv_export_s", "s"),
    ("trace.db.csv_bytes", "bytes"),
    ("trace.db.archive_write_s", "s"),
    ("trace.db.archive_bytes", "bytes"),
    ("platform.vfs.atomic_write_s", "s"),
    ("trace.db.archive_read_s", "s"),
    ("trace.codec.salvage_s", "s"),
    ("trace.db.resilient_s", "s"),
    ("trace.db.quarantined", "count"),
    // report
    ("report.trace.db.import_s", "s"),
    ("core.derive_s", "s"),
    ("core.derive_s_j1", "s"),
    ("core.checker_s", "s"),
    ("core.checker_s_j1", "s"),
    ("core.violation_s", "s"),
    ("core.violation_s_j1", "s"),
    ("core.race_s", "s"),
    ("core.race_s_j1", "s"),
    ("core.order_s", "s"),
    ("core.order_s_j1", "s"),
    ("core.lint_s", "s"),
    ("core.lint_s_j1", "s"),
    ("core.render_s", "s"),
    ("core.derive.groups", "count"),
    ("core.derive.rules", "count"),
    ("core.derive.truncated_units", "count"),
    ("core.checker.rules", "count"),
    ("core.violation.events", "count"),
    ("core.race.candidates", "count"),
    ("core.order.edges", "count"),
    ("core.lint.findings", "count"),
    // corpus
    ("corpus.trace.db.import_s", "s"),
    ("trace.corpus.screen_s", "s"),
    ("trace.corpus.events", "count"),
    ("core.corpus.matrix_build_s", "s"),
    ("core.corpus.matrix_write_s", "s"),
    ("core.corpus.matrix_read_s", "s"),
    ("core.corpus.derive_s", "s"),
    ("core.corpus.groups_total", "count"),
    ("core.corpus.groups_rederived", "count"),
    // static
    ("locksrc.parse_s", "s"),
    ("locksrc.parse_s_j1", "s"),
    ("locksrc.lockstate_s", "s"),
    ("locksrc.lockstate_s_j1", "s"),
    ("locksrc.outlier_s", "s"),
    ("locksrc.outlier_s_j1", "s"),
    ("locksrc.functions", "count"),
    ("locksrc.observations", "count"),
    ("locksrc.findings", "count"),
    // per workload
    ("report.traced_total_s", "s"),
    ("report.unattributed_s", "s"),
    ("report.trace_overhead", "fraction"),
    ("ingest.traced_total_s", "s"),
    ("ingest.unattributed_s", "s"),
    ("ingest.trace_overhead", "fraction"),
    ("corpus.traced_total_s", "s"),
    ("corpus.unattributed_s", "s"),
    ("corpus.trace_overhead", "fraction"),
    ("static.traced_total_s", "s"),
    ("static.unattributed_s", "s"),
    ("static.trace_overhead", "fraction"),
];

/// Unit of a per-layer metric.
pub fn layer_unit(name: &str) -> Option<&'static str> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|(_, u)| *u)
}

/// One reported metric: name and unit plus a summary of its samples.
/// Directions and bounds live in the [`E2E`] table, not in results.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Median and quartiles of the samples.
    pub summary: Summary,
}

impl Metric {
    /// A metric with an explicit unit.
    pub fn new(name: &str, unit: &str, summary: Summary) -> Self {
        Metric {
            name: name.to_owned(),
            unit: unit.to_owned(),
            summary,
        }
    }

    /// An end-to-end metric, with its unit from the table.
    pub fn e2e(name: &str, summary: Summary) -> Self {
        let d = e2e_def(name).expect("end-to-end metric is in the table");
        Self::new(name, d.unit, summary)
    }

    /// A per-layer metric, with its unit from [`LAYERS`].
    pub fn layer(name: &str, summary: Summary) -> Self {
        let unit = layer_unit(name).expect("layer metric is in the table");
        Self::new(name, unit, summary)
    }

    /// The `name unit value q1=.. q3=.. n=..` line, under `prefix`.
    pub fn line(&self, prefix: &str) -> String {
        let s = &self.summary;
        format!(
            "{prefix}{} {} {} q1={} q3={} n={}",
            self.name, self.unit, s.value, s.q1, s.q3, s.n
        )
    }

    fn to_json(&self) -> Json {
        let s = &self.summary;
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("unit", Json::Str(self.unit.clone())),
            ("value", Json::F64(s.value)),
            ("q1", Json::F64(s.q1)),
            ("q3", Json::F64(s.q3)),
            ("n", Json::U64(s.n as u64)),
        ])
    }

    fn from_json(v: &Json) -> Option<Self> {
        let f = |k: &str| v.get(k).and_then(Json::as_f64);
        Some(Metric {
            name: v.get("name")?.as_str()?.to_owned(),
            unit: v.get("unit")?.as_str()?.to_owned(),
            summary: Summary {
                value: f("value")?,
                q1: f("q1")?,
                q3: f("q3")?,
                n: v.get("n")?.as_u64()? as usize,
            },
        })
    }
}

/// The measured outcome of one workload in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Workload name.
    pub workload: String,
    /// Questions asked.
    pub attempted: u64,
    /// Questions whose answer failed its oracle check (or errored).
    pub failed: u64,
    /// End-to-end metrics, common ones first.
    pub metrics: Vec<Metric>,
    /// Raw measurements `compare` does not gate: `rep_wall_s` and
    /// `calibration_s`.
    pub info: Vec<Metric>,
    /// The first few failure descriptions, for the log.
    pub problems: Vec<String>,
}

impl WorkloadResult {
    /// Looks up a metric by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Everything one benchmark invocation measured: the contents of a
/// results file.
#[derive(Debug, Clone, PartialEq)]
pub struct Results {
    /// The input seed.
    pub seed: u64,
    /// Seconds each workload's timed loop ran for.
    pub seconds: f64,
    /// `--jobs` value every question was asked with.
    pub jobs_requested: usize,
    /// What the CLI resolved it to on this machine.
    pub jobs_resolved: usize,
    /// `std::thread::available_parallelism` of this machine.
    pub available_parallelism: usize,
    /// Per-workload end-to-end results (untraced runs).
    pub workloads: Vec<WorkloadResult>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Results {
    /// Serializes to the results-file JSON.
    pub fn to_json(&self) -> Json {
        let workloads = self
            .workloads
            .iter()
            .map(|w| {
                Json::obj(vec![
                    ("workload", Json::Str(w.workload.clone())),
                    ("attempted", Json::U64(w.attempted)),
                    ("failed", Json::U64(w.failed)),
                    (
                        "metrics",
                        Json::Arr(w.metrics.iter().map(Metric::to_json).collect()),
                    ),
                    (
                        "info",
                        Json::Arr(w.info.iter().map(Metric::to_json).collect()),
                    ),
                    (
                        "problems",
                        Json::Arr(w.problems.iter().map(|p| Json::Str(p.clone())).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj(vec![
            ("benchmark", Json::Str("lockdoc-benchmark".to_owned())),
            ("seed", Json::U64(self.seed)),
            ("seconds", Json::F64(self.seconds)),
            ("jobs_requested", Json::U64(self.jobs_requested as u64)),
            ("jobs_resolved", Json::U64(self.jobs_resolved as u64)),
            (
                "available_parallelism",
                Json::U64(self.available_parallelism as u64),
            ),
            ("workloads", Json::Arr(workloads)),
            (
                "layers",
                Json::Arr(self.layers.iter().map(Metric::to_json).collect()),
            ),
        ])
    }

    /// Parses a results file.
    pub fn from_json(v: &Json) -> Option<Self> {
        let metrics = |v: &Json| -> Option<Vec<Metric>> {
            v.as_array()?.iter().map(Metric::from_json).collect()
        };
        let workloads = v
            .get("workloads")?
            .as_array()?
            .iter()
            .map(|w| {
                Some(WorkloadResult {
                    workload: w.get("workload")?.as_str()?.to_owned(),
                    attempted: w.get("attempted")?.as_u64()?,
                    failed: w.get("failed")?.as_u64()?,
                    metrics: metrics(w.get("metrics")?)?,
                    info: metrics(w.get("info")?)?,
                    problems: w
                        .get("problems")?
                        .as_array()?
                        .iter()
                        .filter_map(|p| p.as_str().map(str::to_owned))
                        .collect(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Results {
            seed: v.get("seed")?.as_u64()?,
            seconds: v.get("seconds")?.as_f64()?,
            jobs_requested: v.get("jobs_requested")?.as_u64()? as usize,
            jobs_resolved: v.get("jobs_resolved")?.as_u64()? as usize,
            available_parallelism: v.get("available_parallelism")?.as_u64()? as usize,
            workloads,
            layers: metrics(v.get("layers")?)?,
        })
    }
}

/// The one-line JSON result that ends the `--workload` form: `correct`,
/// `attempted`, `failed`, and the named metrics as `{value, unit}`.
pub fn result_line(attempted: u64, failed: u64, metrics: &[&Metric]) -> String {
    let fields = metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Json::obj(vec![
                    ("value", Json::F64(m.summary.value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", Json::Obj(fields)),
    ])
    .compact()
}
