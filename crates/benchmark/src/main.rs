//! `lockdoc-benchmark` command line.
//!
//! ```text
//! lockdoc-benchmark run --seed N [--seconds S] [--traced] [--out FILE]
//! lockdoc-benchmark --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! lockdoc-benchmark compare --parent RUN.json.. --change RUN.json..
//! ```
//!
//! `run` measures every workload (and with `--traced`, the per-layer
//! breakdown too) and writes a results file. The `--workload` form
//! measures one workload, untraced (`--trace 0`) or traced (`--trace 1`),
//! and ends its output with a one-line JSON result. `compare` gates a
//! change's results files against a parent's and exits non-zero on a
//! regression. `--smoke` shrinks every input for tests; `--work-dir`
//! moves the scratch directory (default `.bench_work`).

use lockdoc_benchmark::metrics::{result_line, Results, WorkloadResult, LINE_E2E};
use lockdoc_benchmark::traced::traced_run;
use lockdoc_benchmark::{calibrate, compare};
use lockdoc_benchmark::{rep_child, resolved_jobs, run_workload, Scale, Workload, JOBS};
use lockdoc_cli::Args;
use lockdoc_platform::json;
use std::path::{Path, PathBuf};

/// Default seconds each workload's timed loop runs.
const DEFAULT_SECONDS: f64 = 18.0;

const USAGE: &str = "\
usage:
  lockdoc-benchmark run --seed N [--seconds S] [--traced] [--out FILE]
  lockdoc-benchmark --workload report|ingest|corpus|static --seed N --seconds S --trace 0|1
                    [--out FILE]
  lockdoc-benchmark compare --parent RUN.json.. --change RUN.json..
common flags: --smoke (tiny inputs), --work-dir DIR (default .bench_work)";

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&raw) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("lockdoc-benchmark: {e}");
            std::process::exit(2);
        }
    }
}

fn dispatch(raw: &[String]) -> Result<i32, String> {
    match raw.first().map(String::as_str) {
        Some("run") => cmd_run(&Args::parse(&raw[1..])),
        Some("compare") => cmd_compare(&raw[1..]),
        Some("rep") => cmd_rep(&Args::parse(&raw[1..])),
        Some("calibrate") => {
            let items = Args::parse(&raw[1..])
                .num("items", 0usize)
                .map_err(|e| e.to_string())?;
            println!("{}", calibrate::kernel(items));
            Ok(0)
        }
        Some(_) if raw.iter().any(|a| a == "--workload") => cmd_workload(&Args::parse(raw)),
        _ => Err(USAGE.to_owned()),
    }
}

/// Settings shared by `run` and the `--workload` form.
struct Common {
    seed: u64,
    seconds: f64,
    scale: Scale,
    work_root: PathBuf,
    exe: PathBuf,
}

fn common(args: &Args, default_seconds: Option<f64>) -> Result<Common, String> {
    let num = |name: &str| -> Result<Option<f64>, String> {
        args.get(name)
            .map(|v| v.parse().map_err(|_| format!("invalid --{name}: `{v}`")))
            .transpose()
    };
    let seed = args
        .get("seed")
        .ok_or("--seed N is required")?
        .parse()
        .map_err(|_| "invalid --seed")?;
    let seconds = num("seconds")?
        .or(default_seconds)
        .ok_or("--seconds S is required")?;
    if !seconds.is_finite() || seconds < 0.0 {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(Common {
        seed,
        seconds,
        scale: if args.has("smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        },
        work_root: PathBuf::from(args.get("work-dir").unwrap_or(".bench_work")),
        exe: std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?,
    })
}

fn results(
    c: &Common,
    workloads: Vec<WorkloadResult>,
    layers: Vec<lockdoc_benchmark::metrics::Metric>,
) -> Results {
    Results {
        seed: c.seed,
        seconds: c.seconds,
        jobs_requested: JOBS,
        jobs_resolved: resolved_jobs(),
        available_parallelism: lockdoc_platform::par::available_jobs(),
        workloads,
        layers,
    }
}

fn print_workload(w: &WorkloadResult) {
    for m in w.metrics.iter().chain(&w.info) {
        println!("{}", m.line(&format!("{}/", w.workload)));
    }
    for p in &w.problems {
        println!("{}/FAILED {p}", w.workload);
    }
}

fn jobs_line() {
    println!(
        "jobs: requested {JOBS}, resolved {}, available parallelism {}",
        resolved_jobs(),
        lockdoc_platform::par::available_jobs()
    );
}

fn write_results(path: &Path, r: &Results) -> Result<(), String> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).map_err(|e| format!("create {}: {e}", parent.display()))?;
    }
    std::fs::write(path, r.to_json().pretty())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results: {}", path.display());
    Ok(())
}

/// `run`: every workload untraced, then optionally the traced run.
fn cmd_run(args: &Args) -> Result<i32, String> {
    let c = common(args, Some(DEFAULT_SECONDS))?;
    jobs_line();
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let r = run_workload(w, c.seed, c.scale, c.seconds, &c.work_root, &c.exe)?;
        print_workload(&r);
        workloads.push(r);
    }
    let mut layers = Vec::new();
    let mut failed = workloads.iter().map(|w| w.failed).sum::<u64>();
    if args.has("traced") {
        let t = traced_run(c.seed, c.scale, c.seconds, &c.work_root)?;
        for m in &t.layers {
            println!("{}", m.line(""));
        }
        failed += t.measured.iter().map(|(_, m)| m.failed).sum::<u64>();
        layers = t.layers;
    }
    let out = args.get("out").map_or_else(
        || c.work_root.join(format!("results-seed-{}.json", c.seed)),
        PathBuf::from,
    );
    write_results(&out, &results(&c, workloads, layers))?;
    Ok(i32::from(failed > 0))
}

/// The one-workload form, which `BENCHMARK.json`'s command runs.
fn cmd_workload(args: &Args) -> Result<i32, String> {
    let name = args.get("workload").ok_or("--workload W is required")?;
    let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let c = common(args, None)?;
    jobs_line();
    let (result, line) = match args.get("trace") {
        Some("0") => {
            let r = run_workload(w, c.seed, c.scale, c.seconds, &c.work_root, &c.exe)?;
            print_workload(&r);
            let metrics = LINE_E2E
                .iter()
                .map(|n| {
                    r.metric(n)
                        .ok_or_else(|| format!("{name} did not report {n}"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let line = result_line(r.attempted, r.failed, &metrics);
            (results(&c, vec![r], Vec::new()), line)
        }
        Some("1") => {
            let t = traced_run(c.seed, c.scale, c.seconds, &c.work_root)?;
            for m in &t.layers {
                println!("{}", m.line(""));
            }
            let attempted = t.measured.iter().map(|(_, m)| m.attempted).sum();
            let failed = t.measured.iter().map(|(_, m)| m.failed).sum();
            let line = result_line(attempted, failed, &t.layers.iter().collect::<Vec<_>>());
            (results(&c, Vec::new(), t.layers), line)
        }
        _ => return Err("--trace must be 0 or 1".to_owned()),
    };
    if let Some(out) = args.get("out") {
        write_results(Path::new(out), &result)?;
    }
    println!("{line}");
    Ok(0)
}

/// One rep in its own process, for `run_workload`.
fn cmd_rep(args: &Args) -> Result<i32, String> {
    let name = args.get("workload").ok_or("--workload W is required")?;
    let w = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let dir = args.get("dir").ok_or("--dir DIR is required")?;
    println!("{}", rep_child(w, Path::new(dir))?);
    Ok(0)
}

fn load(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("parse {path}: {e:?}"))?;
    Results::from_json(&v).ok_or_else(|| format!("{path} is not a lockdoc-benchmark results file"))
}

/// `compare --parent A.json.. --change B.json..`.
fn cmd_compare(raw: &[String]) -> Result<i32, String> {
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<Results>> = None;
    for a in raw {
        match a.as_str() {
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => side
                .as_mut()
                .ok_or("results files must follow --parent or --change")?
                .push(load(path)?),
        }
    }
    if parent.is_empty() || change.is_empty() {
        return Err("compare needs --parent RUN.json.. and --change RUN.json..".to_owned());
    }
    let rows = compare::compare(&parent, &change);
    print!("{}", compare::render(&rows));
    Ok(i32::from(compare::blocks(&rows)))
}
