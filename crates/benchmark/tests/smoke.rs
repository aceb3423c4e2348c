//! Smoke test of the benchmark harness at tiny input sizes: every
//! workload untraced and traced, every metric `BENCHMARK.json` names
//! emitted, no failed question; and each oracle check rejecting a
//! tampered answer.

use lockdoc_benchmark::metrics::{e2e_def, LAYERS};
use lockdoc_benchmark::oracle::{check_report, check_rules, check_static};
use lockdoc_benchmark::setup::{files, setup, Oracle};
use lockdoc_benchmark::{Scale, WorkDir, Workload};
use lockdoc_platform::json::{parse, Json};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn work_root(test: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lockdoc-benchmark-{test}"))
}

/// Runs the benchmark binary; returns its stdout after asserting success.
fn bench(args: &[&str], root: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lockdoc-benchmark"))
        .args(args)
        .args(["--smoke", "--seed", "2", "--seconds", "0", "--work-dir"])
        .arg(root)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "{args:?} failed: {}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).expect("valid JSON")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    spec.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_owned())
        .collect()
}

/// The metric names of the one-line JSON result that ends `stdout`.
fn result_line_metrics(stdout: &str) -> (Json, BTreeSet<String>) {
    let line = parse(stdout.lines().last().expect("output")).expect("JSON last line");
    let keys: BTreeSet<String> = line
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    assert_eq!(
        keys,
        ["attempted", "correct", "failed", "metrics"]
            .map(str::to_owned)
            .into(),
        "result line keys"
    );
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{stdout}");
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect();
    (line, metrics)
}

#[test]
fn benchmark_json_matches_the_harness_tables() {
    let spec = benchmark_json();
    for m in spec.get("end_to_end").and_then(Json::as_array).unwrap() {
        let name = m.get("name").and_then(Json::as_str).unwrap();
        let def = e2e_def(name).unwrap_or_else(|| panic!("{name} is not a harness metric"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(def.unit),
            "{name}"
        );
        assert_eq!(
            m.get("better").and_then(Json::as_str),
            Some(def.better.name()),
            "{name}"
        );
        assert_eq!(
            m.get("bound").and_then(Json::as_f64),
            Some(def.bound),
            "{name}"
        );
    }
    let layers: Vec<(String, String)> = spec
        .get("per_layer")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|m| {
            assert_eq!(m.get("better").and_then(Json::as_str), Some("lower"));
            (
                m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
            )
        })
        .collect();
    let table: Vec<(String, String)> = LAYERS
        .iter()
        .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
        .collect();
    assert_eq!(layers, table, "BENCHMARK.json per_layer != metrics::LAYERS");
}

#[test]
fn every_workload_runs_clean_untraced() {
    let spec = benchmark_json();
    let root = work_root("smoke");
    let out = root.join("results.json");
    let stdout = bench(&["run", "--out", out.to_str().unwrap()], &root);
    let lines: BTreeSet<&str> = stdout
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    for w in Workload::ALL {
        for name in names(&spec, "end_to_end") {
            let key = format!("{}/{name}", w.name());
            assert!(lines.contains(key.as_str()), "missing {key}:\n{stdout}");
        }
    }
    let results = parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    for w in results.get("workloads").and_then(Json::as_array).unwrap() {
        assert_eq!(w.get("failed").and_then(Json::as_u64), Some(0), "{stdout}");
        let error_rate = w
            .get("metrics")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("error_rate"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        assert_eq!(error_rate, Some(0.0));
    }
    std::fs::remove_dir_all(&root).ok();

    // The one-workload form, ending in its JSON result line.
    let stdout = bench(&["--workload", "static", "--trace", "0"], &root);
    let (_, metrics) = result_line_metrics(&stdout);
    assert_eq!(metrics, names(&spec, "end_to_end").into_iter().collect());
    assert!(!root.exists(), "work directory left behind");
}

#[test]
fn traced_run_reports_every_layer() {
    let root = work_root("traced");
    let stdout = bench(&["--workload", "report", "--trace", "1"], &root);
    let (_, metrics) = result_line_metrics(&stdout);
    assert_eq!(
        metrics,
        names(&benchmark_json(), "per_layer").into_iter().collect()
    );
    assert!(!root.exists(), "work directory left behind");
}

#[test]
fn oracle_checks_reject_tampered_answers() {
    let root = work_root("oracle");
    let cli = |args: &[&str]| {
        let args: Vec<String> = args.iter().map(|s| (*s).to_owned()).collect();
        lockdoc_cli::run(&args).expect("CLI answers")
    };

    // report: dropping the i_state CONFIRMED finding loses a fired site.
    let dir = WorkDir::create(&root, "report").unwrap();
    let Oracle::Report { fired } = setup(Workload::Report, 2, Scale::Smoke, dir.path()).unwrap()
    else {
        unreachable!()
    };
    assert!(fired.iter().any(|f| f.member == "i_state"));
    let trace = dir.path().join(files::REPORT_TRACE);
    let answer = cli(&["lint", "--trace", trace.to_str().unwrap(), "--json"]);
    assert!(check_report(&answer, &fired).ok());
    let mut v = parse(&answer).unwrap();
    if let Json::Obj(fields) = &mut v {
        for (k, findings) in fields.iter_mut() {
            if let (true, Json::Arr(list)) = (k == "findings", findings) {
                list.retain(|f| {
                    !(f.get("member_name").and_then(Json::as_str) == Some("i_state")
                        && f.get("severity").and_then(Json::as_str) == Some("confirmed"))
                });
            }
        }
    }
    let tampered = check_report(&v.compact(), &fired);
    assert!(!tampered.ok());
    assert!(tampered.recovered < tampered.total);

    // static: moving one planted line breaks the exact site match.
    let dir = WorkDir::create(&root, "static").unwrap();
    let Oracle::Static { mut planted } =
        setup(Workload::Static, 2, Scale::Smoke, dir.path()).unwrap()
    else {
        unreachable!()
    };
    let src = dir.path().join(files::STATIC_SRC);
    let answer = cli(&["xcheck", "--src", src.to_str().unwrap(), "--json"]);
    assert!(check_static(&answer, &planted).ok());
    planted[0].1 += 1;
    assert!(!check_static(&answer, &planted).ok());

    // corpus: a flipped rule text no longer equals the batch oracle.
    let rules = "[inode:ext4]\n  i_state:w = ES(i_lock in inode) (sa 9 / 9 units, sr 100.00%)\n";
    let answer = format!("corpus: 8 trace(s)\ngroups: 1 total, 0 reused, 1 re-derived\n{rules}");
    assert!(check_rules("build", &answer, rules).ok());
    let flipped = answer.replace("i_lock", "i_rwsem");
    assert!(!check_rules("build", &flipped, rules).ok());
    drop(dir);
    std::fs::remove_dir_all(&root).ok();
}
