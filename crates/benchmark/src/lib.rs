//! `lockdoc-benchmark`: one trace-in/report-out benchmark of the LockDoc
//! pipeline.
//!
//! Every input is generated from one seed (ksim traces, a srcgen source
//! tree) into a fresh work directory. Each workload asks its questions
//! through [`lockdoc_cli::run`], the shipped CLI path, one at a time
//! (a closed loop with one client), and checks every answer against an
//! oracle that does not come from the answer's own code path. The
//! untraced run gives the end-to-end metrics; a separate traced run
//! re-enacts each workload as direct calls into the layers' public
//! functions, timed from outside, for the per-layer breakdown.
//!
//! The modules split along that flow: [`setup`] generates inputs and
//! oracles, [`oracle`] holds the pure answer checks, [`questions`] runs
//! the closed loop, [`calibrate`] cancels host-speed drift, [`traced`]
//! the per-layer re-enactment, [`metrics`] names and summarizes what is
//! reported, and [`compare`] gates a change against a parent.

#![forbid(unsafe_code)]

pub mod calibrate;
pub mod compare;
pub mod metrics;
pub mod oracle;
pub mod questions;
pub mod setup;
pub mod stats;
pub mod traced;

use lockdoc_platform::json;
use metrics::{Metric, WorkloadResult};
use questions::Measured;
use stats::Summary;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Worker count every question is asked with (`--jobs 2`): the core
/// count of the box the first numbers were measured on, so it is also
/// the most load the single client can offer.
pub const JOBS: usize = 2;

/// One benchmark workload: a set of generated inputs plus the questions
/// asked of them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// One racy trace; `lint` (the analysis layers do the work).
    Report,
    /// One standard-mix trace plus a corrupted copy; import, CSV export,
    /// cached archives and the resilient importer.
    Ingest,
    /// Nine small traces; cold, warm and incremental corpus builds.
    Corpus,
    /// A srcgen source tree; the static outlier analysis (`xcheck`).
    Static,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Report,
        Workload::Ingest,
        Workload::Corpus,
        Workload::Static,
    ];

    /// Stable name, as used on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Report => "report",
            Workload::Ingest => "ingest",
            Workload::Corpus => "corpus",
            Workload::Static => "static",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. `Full` is the measured configuration; `Smoke` runs the
/// same code paths on inputs small enough for a unit-test budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's numbers are quoted at.
    Full,
    /// Tiny inputs that still exercise every question and oracle.
    Smoke,
}

/// Concrete input sizes of one [`Scale`].
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// ksim operations of the `report` trace.
    pub report_ops: u64,
    /// ksim operations of the `ingest` trace.
    pub ingest_ops: u64,
    /// ksim operations of each `corpus` member.
    pub corpus_ops: u64,
    /// Correctly locked sites per rule in the `static` source tree.
    pub static_sites: u32,
    /// Integers the calibration kernel sorts and hashes.
    pub calibration_items: usize,
}

impl Scale {
    /// The input sizes of this scale.
    pub fn sizes(self) -> Sizes {
        match self {
            Scale::Full => Sizes {
                report_ops: 15_000,
                ingest_ops: 15_000,
                corpus_ops: 4_000,
                static_sites: 1_000,
                calibration_items: 4_000_000,
            },
            Scale::Smoke => Sizes {
                report_ops: 1_500,
                ingest_ops: 400,
                corpus_ops: 120,
                static_sites: 6,
                calibration_items: 20_000,
            },
        }
    }
}

/// Worker count the CLI resolves `--jobs 2` to on this machine.
pub fn resolved_jobs() -> usize {
    lockdoc_platform::par::resolve_jobs(Some(JOBS))
}

/// Peak resident set size of this process in MiB (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// A work directory that is removed, with everything in it, when
/// dropped — also when the run fails half-way.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates a fresh, uniquely named directory under `root`.
    pub fn create(root: &Path, label: &str) -> std::io::Result<Self> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos())
            .unwrap_or(0);
        let path = root.join(format!("{label}-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Empties the directory, keeping it.
    pub fn clear(&self) -> std::io::Result<()> {
        fs::remove_dir_all(&self.path)?;
        fs::create_dir_all(&self.path)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
        // Remove the shared root too once the last run has left it.
        if let Some(root) = self.path.parent() {
            let _ = fs::remove_dir(root);
        }
    }
}

/// Renders a path for a CLI argument list.
pub(crate) fn arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

/// Fewest times a run generates its inputs; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// Set-up keeps repeating until it (with its calibrations) has taken
/// this share of the run's measured seconds, so a set-up of a tenth of
/// a second is still timed over enough repetitions to be steady.
const SETUP_SHARE: f64 = 0.1;

/// Before each rep the closed loop times the calibration kernel until
/// the loop has spent at least this share of its rep time so far on it
/// (and at least once). One kernel sample is about as noisy as one rep,
/// so a run of a few long reps still takes enough samples for a steady
/// median.
const KERNEL_SHARE: f64 = 0.25;

/// Runs one workload untraced. Generates its inputs at least three
/// times (timing each next to a calibration) and computes
/// the oracle's reference answers; then, until `seconds` have passed (at
/// least once), calibrates and runs one rep in a fresh child process
/// (`exe rep ...`), as a CLI user's questions would run. Each rep's peak
/// RSS is therefore its own, and nothing stays warm between reps or
/// workloads. The work directory is removed afterwards.
pub fn run_workload(
    w: Workload,
    seed: u64,
    scale: Scale,
    seconds: f64,
    work_root: &Path,
    exe: &Path,
) -> Result<WorkloadResult, String> {
    let items = scale.sizes().calibration_items;
    let dir = WorkDir::create(work_root, w.name()).map_err(|e| format!("create work dir: {e}"))?;
    let mut m = Measured::default();
    let mut setups = Vec::new();
    let setup_start = Instant::now();
    let mut oracle = loop {
        m.record("calibration_s", calibrate::in_child(exe, items)?);
        let start = Instant::now();
        let oracle = setup::generate(w, seed, scale, dir.path())?;
        setups.push(start.elapsed().as_secs_f64());
        let spent = setup_start.elapsed().as_secs_f64();
        if setups.len() >= SETUP_REPS && spent >= SETUP_SHARE * seconds {
            break oracle;
        }
        dir.clear().map_err(|e| format!("clear work dir: {e}"))?;
    };
    setup::complete(dir.path(), &mut oracle)?;
    let start = Instant::now();
    let (mut kernel_total, mut rep_total) = (0.0, 0.0);
    loop {
        loop {
            let kernel_start = Instant::now();
            m.record("calibration_s", calibrate::in_child(exe, items)?);
            kernel_total += kernel_start.elapsed().as_secs_f64();
            if kernel_total >= KERNEL_SHARE * rep_total {
                break;
            }
        }
        let rep_start = Instant::now();
        let out = Command::new(exe)
            .args(["rep", "--workload", w.name(), "--dir"])
            .arg(dir.path())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("start rep process: {e}"))?;
        let rep = String::from_utf8_lossy(&out.stdout)
            .lines()
            .last()
            .and_then(|l| json::parse(l).ok())
            .and_then(|v| Measured::from_json(&v))
            .filter(|_| out.status.success())
            .ok_or_else(|| format!("rep process for {} failed: {}", w.name(), out.status))?;
        rep_total += rep_start.elapsed().as_secs_f64();
        m.merge(rep);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Ok(workload_result(w, &setups, &m))
}

/// A rep process's body: one rep over the inputs in `dir`, plus this
/// process's peak RSS, reported as one JSON line.
pub fn rep_child(w: Workload, dir: &Path) -> Result<String, String> {
    let oracle = setup::Oracle::load(w, dir)?;
    let mut m = Measured::default();
    questions::rep(w, dir, &oracle, &mut m)?;
    let peak = peak_rss_mib().ok_or("cannot read VmHWM from /proc/self/status")?;
    m.record("peak_rss_mb", peak);
    Ok(m.to_json().compact())
}

/// Summarizes one workload's set-ups and closed loop into its
/// end-to-end metrics (the common ones, then its question timings, all
/// timings in reference seconds) and its raw `rep_wall_s` and
/// `calibration_s`. `setup_walls` are the set-up times; `m` holds the
/// reps and every kernel sample of the run.
fn workload_result(w: Workload, setup_walls: &[f64], m: &Measured) -> WorkloadResult {
    let single = |v: f64| Summary::of(&[v]).expect("one sample");
    let raw = |name: &str| m.samples.get(name).map_or(&[][..], Vec::as_slice);
    // One scale per run, from the median of every kernel sample the run
    // took (set-ups and reps alike): the host's speed barely moves within
    // a run, while one kernel sample is as noisy as one rep, so pairing
    // each rep with its own sample would add that noise to every rep.
    // Times scale by the factor, throughputs by its inverse.
    let k =
        Summary::of(raw("calibration_s")).map_or(f64::NAN, |s| calibrate::REFERENCE_S / s.value);
    let scale_by = |values: &[f64], per_second: bool| {
        let scaled: Vec<f64> = values
            .iter()
            .map(|v| if per_second { v / k } else { v * k })
            .collect();
        Summary::of(&scaled)
    };
    let scaled = |name: &str| {
        let per_second = metrics::e2e_def(name).is_some_and(|d| d.unit.ends_with("/s"));
        scale_by(raw(name), per_second)
    };
    let error_rate = m.failed as f64 / m.attempted.max(1) as f64;
    let mut metrics = Vec::new();
    for name in metrics::COMMON_E2E {
        let summary = match name {
            "setup_s" => scale_by(setup_walls, false),
            "rep_s" => scaled(name),
            "peak_rss_mb" => Summary::of(raw(name)),
            "error_rate" => Some(single(error_rate)),
            "oracle_recall" => Some(single(m.recall())),
            _ => None,
        };
        if let Some(s) = summary {
            metrics.push(Metric::e2e(name, s));
        }
    }
    for name in metrics::question_metrics(w) {
        if let Some(s) = scaled(name) {
            metrics.push(Metric::e2e(name, s));
        }
    }
    let info = [
        ("rep_wall_s", raw("rep_s")),
        ("calibration_s", raw("calibration_s")),
    ]
    .into_iter()
    .filter_map(|(name, v)| Some(Metric::new(name, "s", Summary::of(v)?)))
    .collect();
    WorkloadResult {
        workload: w.name().to_owned(),
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        info,
        problems: m.problems.clone(),
    }
}
