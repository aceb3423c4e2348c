//! The traced run: each workload's rep re-enacted as direct calls into
//! the layers' public functions, each call timed from outside.
//!
//! There is no instrumentation inside the program; the re-enactment
//! makes the same layer calls, in the same order and on the same inputs,
//! as the CLI commands the untraced rep asks. A layer's reported time is
//! its time in the first question of the rep that calls it (summed over
//! that question's calls, e.g. one per corpus member); later repeats
//! (the second and third import on `ingest`, the warm and incremental
//! derives on `corpus`) count toward the workload's traced total but are
//! not reported again. `*_s_j1` and `trace.codec.decode_s` are extra
//! calls off the rep's path: the same layer at `--jobs 1`, and a bare
//! decode (which every import contains).
//!
//! Per workload, `traced_total_s` is the sum of every layer call on the
//! path, `unattributed_s` the untraced rep median minus that sum (file
//! I/O, hashing, output rendering outside the named layers, CLI glue),
//! and `trace_overhead` how much longer the traced pass took than the
//! untraced rep, as a share of the rep.

use crate::metrics::{Metric, LAYERS};
use crate::questions::{self, Measured};
use crate::setup::{files, setup};
use crate::stats::Summary;
use crate::{Scale, WorkDir, Workload, JOBS};
use ksim::rules;
use lockdoc_cli::xcheck::collect_source_files;
use lockdoc_core::checker::check_rules_par;
use lockdoc_core::corpus::derive_fingerprint;
use lockdoc_core::derive::{derive_par, DeriveConfig};
use lockdoc_core::lint::{lint, LintInputs};
use lockdoc_core::order::OrderGraph;
use lockdoc_core::race::find_races_par;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_core::violation::find_violations_par;
use lockdoc_core::{
    build_trace_matrix, derive_corpus, read_matrix_artifact, write_matrix_artifact, CorpusTrace,
};
use lockdoc_platform::json::to_string_pretty;
use lockdoc_platform::vfs::Vfs;
use lockdoc_trace::codec::{read_trace_salvage, TraceReader};
use lockdoc_trace::corpus::screen_trace;
use lockdoc_trace::db::{
    filter_fingerprint, fnv1a, import, import_resilient, import_stream, read_archive,
    write_archive, ResilientConfig, TraceDb,
};
use lockdoc_trace::event::TraceMeta;
use lockdoc_trace::filter::FilterConfig;
use lockdoc_trace::merge::corpus_meta;
use locksrc::ast::parse_tree;
use locksrc::lockstate::collect_observations;
use locksrc::outlier::mine_outliers;
use locksrc::MinerConfig;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::BufReader;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timings and counts of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    /// Reported layer times and off-path times, by name.
    times: BTreeMap<&'static str, f64>,
    /// Counts read off the layers' return values.
    counts: BTreeMap<&'static str, f64>,
    /// Names reported by an earlier question of the rep.
    earlier: BTreeSet<&'static str>,
    /// Names reported by the current question.
    current: BTreeSet<&'static str>,
    /// Sum of every on-path layer call.
    path_total: f64,
    /// Sum of the off-path calls (excluded from the pass's wall time).
    off_path_total: f64,
}

impl Tracer {
    /// Starts the next question of the rep.
    fn question(&mut self) {
        self.earlier.append(&mut self.current);
    }

    /// Times one on-path layer call.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.path_total += secs;
        if !self.earlier.contains(name) {
            *self.times.entry(name).or_default() += secs;
            self.current.insert(name);
        }
        out
    }

    /// Times an on-path layer call no metric names (it still counts
    /// toward the traced total).
    fn unnamed<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.path_total += start.elapsed().as_secs_f64();
        out
    }

    /// Times an extra call off the rep's path.
    fn off_path<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        *self.times.entry(name).or_default() += secs;
        self.off_path_total += secs;
        out
    }

    fn count(&mut self, name: &'static str, n: usize) {
        self.counts.insert(name, n as f64);
    }
}

fn import_file(path: &Path, filter: &FilterConfig, jobs: usize) -> Result<TraceDb, String> {
    let file = fs::File::open(path).map_err(|e| format!("open {}: {e}", path.display()))?;
    let reader = TraceReader::new(BufReader::new(file)).map_err(|e| format!("decode: {e}"))?;
    import_stream(reader, filter, jobs).map_err(|e| format!("import: {e}"))
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// `lint --trace T --json`.
fn report_pass(dir: &Path, t: &mut Tracer) -> Result<(), String> {
    let filter = rules::filter_config();
    let path = dir.join(files::REPORT_TRACE);
    t.question();
    let db = t.span("report.trace.db.import_s", || {
        import_file(&path, &filter, JOBS)
    })?;
    let cfg = DeriveConfig::with_threshold(0.9);
    let documented =
        parse_rules(rules::documented_rules()).map_err(|e| format!("documented rules: {e}"))?;
    let mined = t.span("core.derive_s", || derive_par(&db, &cfg, JOBS));
    let checked = t.span("core.checker_s", || check_rules_par(&db, &documented, JOBS));
    let violations = t.span("core.violation_s", || {
        find_violations_par(&db, &mined, 3, JOBS)
    });
    let races = t.span("core.race_s", || find_races_par(&db, JOBS));
    let order = t.span("core.order_s", || OrderGraph::build_par(&db, JOBS));
    let inputs = LintInputs {
        mined: &mined,
        checked: &checked,
        violations: &violations,
        races: &races,
        order: &order,
        statics: None,
    };
    let report = t.span("core.lint_s", || lint(&db, &inputs, JOBS));
    t.span("core.render_s", || to_string_pretty(&report));

    t.count("core.derive.groups", mined.groups.len());
    t.count(
        "core.derive.rules",
        mined.groups.iter().map(|g| g.rules.len()).sum(),
    );
    t.count(
        "core.derive.truncated_units",
        mined
            .groups
            .iter()
            .map(|g| g.truncated_units as usize)
            .sum(),
    );
    t.count("core.checker.rules", checked.len());
    t.count(
        "core.violation.events",
        violations.iter().map(|v| v.events as usize).sum(),
    );
    t.count("core.race.candidates", races.candidate_count());
    t.count("core.order.edges", order.edges.len());
    t.count("core.lint.findings", report.findings.len());

    t.off_path("core.derive_s_j1", || derive_par(&db, &cfg, 1));
    t.off_path("core.checker_s_j1", || check_rules_par(&db, &documented, 1));
    t.off_path("core.violation_s_j1", || {
        find_violations_par(&db, &mined, 3, 1)
    });
    t.off_path("core.race_s_j1", || find_races_par(&db, 1));
    t.off_path("core.order_s_j1", || OrderGraph::build_par(&db, 1));
    t.off_path("core.lint_s_j1", || lint(&db, &inputs, 1));
    Ok(())
}

/// `import`; `import --csv-dir`; `order --cache-dir` cold, then warm;
/// `import --lenient` on the corrupt copy.
fn ingest_pass(dir: &Path, t: &mut Tracer) -> Result<(), String> {
    let filter = rules::filter_config();
    let fp = filter_fingerprint(&filter);
    let path = dir.join(files::INGEST_TRACE);

    t.question();
    let db = t.span("trace.db.import_s", || import_file(&path, &filter, JOBS))?;
    t.count(
        "trace.db.accesses_imported",
        db.stats.accesses_imported as usize,
    );
    t.count(
        "trace.db.accesses_filtered",
        db.stats.total_filtered() as usize,
    );
    t.count("trace.db.txns", db.stats.txns as usize);
    t.count("trace.db.stacks", db.stats.stacks as usize);
    drop(db);

    t.question();
    let db = t.span("trace.db.import_s", || import_file(&path, &filter, JOBS))?;
    let tables = t.span("trace.db.csv_export_s", || db.export_csv_tables());
    t.count(
        "trace.db.csv_bytes",
        tables.iter().map(|(_, csv)| csv.len()).sum(),
    );
    drop((db, tables));

    // The cached `order` path: whole-file read and checksum, then import
    // and archive write on a miss, archive read on a hit.
    t.question();
    let bytes = read(&path)?;
    let checksum = fnv1a(&bytes);
    let reader = TraceReader::new(bytes.as_slice()).map_err(|e| format!("decode: {e}"))?;
    let meta: Arc<TraceMeta> = Arc::clone(reader.meta());
    let db = t
        .span("trace.db.import_s", || import_stream(reader, &filter, JOBS))
        .map_err(|e| format!("import: {e}"))?;
    let archive = t.span("trace.db.archive_write_s", || {
        write_archive(&db, checksum, fp)
    });
    t.count("trace.db.archive_bytes", archive.len());
    let archive_path = dir.join("traced.ldarc");
    t.span("platform.vfs.atomic_write_s", || {
        Vfs::real().atomic_write(&archive_path, &archive)
    })
    .map_err(|e| format!("write archive: {e}"))?;
    t.unnamed(|| OrderGraph::build_par(&db, JOBS));
    drop((db, archive));

    t.question();
    let archive = read(&archive_path)?;
    let db = t
        .span("trace.db.archive_read_s", || {
            read_archive(&archive, checksum, fp, meta)
        })
        .ok_or("the archive just written did not load")?;
    t.unnamed(|| OrderGraph::build_par(&db, JOBS));
    drop((db, archive, bytes));

    t.question();
    let corrupt = read(&dir.join(files::INGEST_CORRUPT))?;
    let (trace, _) = t
        .span("trace.codec.salvage_s", || read_trace_salvage(&corrupt))
        .map_err(|e| format!("salvage: {e}"))?;
    let (_, report) = t
        .span("trace.db.resilient_s", || {
            import_resilient(&trace, &filter, JOBS, &ResilientConfig::lenient(0.05))
        })
        .map_err(|e| format!("lenient import: {e}"))?;
    t.count("trace.db.quarantined", report.quarantined.len());

    let events = t.off_path("trace.codec.decode_s", || -> Result<usize, String> {
        let file = fs::File::open(&path).map_err(|e| format!("open trace: {e}"))?;
        let mut reader =
            TraceReader::new(BufReader::new(file)).map_err(|e| format!("decode: {e}"))?;
        let mut n = 0;
        while let Some(ev) = reader.next_event() {
            ev.map_err(|e| format!("decode: {e}"))?;
            n += 1;
        }
        Ok(n)
    })?;
    t.count("trace.codec.events", events);
    t.off_path("trace.db.import_s_j1", || import_file(&path, &filter, 1))?;
    Ok(())
}

/// One corpus member's cold-path products.
struct Member {
    checksum: u64,
    events: usize,
    meta: TraceMeta,
    artifact: Vec<u8>,
    matrix: lockdoc_core::TraceMatrix,
}

/// The `corpus build` cold path for one member: screen, import, build
/// and serialize the matrix.
fn cold_member(
    path: &Path,
    filter: &FilterConfig,
    fps: (u64, u64),
    t: &mut Tracer,
) -> Result<Member, String> {
    let bytes = read(path)?;
    let checksum = fnv1a(&bytes);
    let (trace, _) = t.span("trace.corpus.screen_s", || {
        screen_trace(&bytes, filter, JOBS)
    });
    let trace = trace.ok_or_else(|| format!("{} is unreadable", path.display()))?;
    let db = t.span("corpus.trace.db.import_s", || import(&trace, filter, JOBS));
    let matrix = t.span("core.corpus.matrix_build_s", || {
        build_trace_matrix(&db, JOBS)
    });
    let artifact = t.span("core.corpus.matrix_write_s", || {
        write_matrix_artifact(&matrix, checksum, fps.0, fps.1)
    });
    Ok(Member {
        checksum,
        events: trace.len(),
        meta: (*trace.meta).clone(),
        artifact,
        matrix,
    })
}

/// The warm path: every member's matrix from its artifact.
fn warm_members(
    members: &[Member],
    fps: (u64, u64),
    t: &mut Tracer,
) -> Result<Vec<CorpusTrace>, String> {
    members
        .iter()
        .map(|m| {
            let matrix = t
                .span("core.corpus.matrix_read_s", || {
                    read_matrix_artifact(&m.artifact, m.checksum, fps.0, fps.1)
                })
                .ok_or("a matrix artifact just written did not load")?;
            Ok(CorpusTrace {
                checksum: m.checksum,
                matrix,
            })
        })
        .collect()
}

/// `corpus build` cold, then warm; `corpus add` of the ninth member.
fn corpus_pass(dir: &Path, t: &mut Tracer) -> Result<(), String> {
    let filter = rules::filter_config();
    let cfg = DeriveConfig::with_threshold(0.9);
    let fps = (filter_fingerprint(&filter), derive_fingerprint(&cfg));
    let store = dir.join(files::CORPUS_STORE);
    let mut names: Vec<_> = fs::read_dir(&store)
        .map_err(|e| format!("list store: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "ldoc"))
        .collect();
    names.sort();
    let merged_meta = |members: &[Member]| {
        let metas: Vec<TraceMeta> = members.iter().map(|m| m.meta.clone()).collect();
        corpus_meta(&metas).map_err(|e| format!("corpus merge: {e}"))
    };

    t.question();
    let mut members = names
        .iter()
        .map(|p| cold_member(p, &filter, fps, t))
        .collect::<Result<Vec<_>, _>>()?;
    t.count(
        "trace.corpus.events",
        members.iter().map(|m| m.events).sum(),
    );
    let meta = merged_meta(&members)?;
    let traces: Vec<CorpusTrace> = members
        .iter()
        .map(|m| CorpusTrace {
            checksum: m.checksum,
            matrix: m.matrix.clone(),
        })
        .collect();
    let cold = t.span("core.corpus.derive_s", || {
        derive_corpus(&traces, &meta, &cfg, fps.0, JOBS, None)
    });

    t.question();
    let traces = warm_members(&members, fps, t)?;
    let warm = t.span("core.corpus.derive_s", || {
        derive_corpus(&traces, &meta, &cfg, fps.0, JOBS, Some(&cold.cache))
    });

    t.question();
    members.push(cold_member(
        &dir.join(files::CORPUS_EXTRA),
        &filter,
        fps,
        t,
    )?);
    let meta = merged_meta(&members)?;
    let traces = warm_members(&members, fps, t)?;
    let added = t.span("core.corpus.derive_s", || {
        derive_corpus(&traces, &meta, &cfg, fps.0, JOBS, Some(&warm.cache))
    });
    t.count("core.corpus.groups_total", added.groups_total);
    t.count(
        "core.corpus.groups_rederived",
        added.groups_total - added.groups_reused,
    );
    Ok(())
}

/// `xcheck --src DIR --json`.
fn static_pass(dir: &Path, t: &mut Tracer) -> Result<(), String> {
    let files = collect_source_files(&dir.join(files::STATIC_SRC))
        .map_err(|e| format!("read source tree: {e}"))?;
    let cfg = MinerConfig::default();
    t.question();
    let program = t.span("locksrc.parse_s", || parse_tree(&files, JOBS));
    let observations = t.span("locksrc.lockstate_s", || {
        collect_observations(&program, &cfg.analysis, JOBS)
    });
    let (_, findings) = t.span("locksrc.outlier_s", || {
        mine_outliers(&observations, &cfg, JOBS)
    });
    t.count("locksrc.functions", program.function_count());
    t.count("locksrc.observations", observations.len());
    t.count("locksrc.findings", findings.len());

    t.off_path("locksrc.parse_s_j1", || parse_tree(&files, 1));
    t.off_path("locksrc.lockstate_s_j1", || {
        collect_observations(&program, &cfg.analysis, 1)
    });
    t.off_path("locksrc.outlier_s_j1", || {
        mine_outliers(&observations, &cfg, 1)
    });
    Ok(())
}

/// One traced pass of `w`: the layer metrics, the traced total, and the
/// pass's wall time without its off-path calls.
fn pass(w: Workload, dir: &Path) -> Result<(BTreeMap<&'static str, f64>, f64, f64), String> {
    let mut t = Tracer::default();
    let start = Instant::now();
    match w {
        Workload::Report => report_pass(dir, &mut t),
        Workload::Ingest => ingest_pass(dir, &mut t),
        Workload::Corpus => corpus_pass(dir, &mut t),
        Workload::Static => static_pass(dir, &mut t),
    }?;
    let wall = start.elapsed().as_secs_f64() - t.off_path_total;
    let mut layers = t.times;
    layers.append(&mut t.counts);
    Ok((layers, t.path_total, wall))
}

/// The outcome of a traced run.
#[derive(Debug)]
pub struct TracedRun {
    /// Every metric of [`LAYERS`], in that order.
    pub layers: Vec<Metric>,
    /// The untraced reps asked alongside, per workload (their answers
    /// are checked like any other run's).
    pub measured: Vec<(Workload, Measured)>,
}

/// Traces every workload: for each, generates its inputs, then
/// alternates an untraced rep with a traced pass until its share of
/// `seconds` is used (at least one of each).
pub fn traced_run(
    seed: u64,
    scale: Scale,
    seconds: f64,
    work_root: &Path,
) -> Result<TracedRun, String> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut measured = Vec::new();
    let share = seconds / Workload::ALL.len() as f64;
    for w in Workload::ALL {
        let dir = WorkDir::create(work_root, &format!("traced-{}", w.name()))
            .map_err(|e| format!("create work dir: {e}"))?;
        let oracle = setup(w, seed, scale, dir.path())?;
        let mut m = Measured::default();
        let (mut totals, mut walls) = (Vec::new(), Vec::new());
        let start = Instant::now();
        loop {
            questions::rep(w, dir.path(), &oracle, &mut m)?;
            let (layers, total, wall) = pass(w, dir.path())?;
            for (name, v) in layers {
                samples.entry(name.to_owned()).or_default().push(v);
            }
            totals.push(total);
            walls.push(wall);
            if start.elapsed().as_secs_f64() >= share {
                break;
            }
        }
        let median = |v: &[f64]| Summary::of(v).map_or(0.0, |s| s.value);
        let e2e = median(&m.samples["rep_s"]);
        for (total, wall) in totals.iter().zip(&walls) {
            samples
                .entry(format!("{}.traced_total_s", w.name()))
                .or_default()
                .push(*total);
            samples
                .entry(format!("{}.unattributed_s", w.name()))
                .or_default()
                .push(e2e - total);
            samples
                .entry(format!("{}.trace_overhead", w.name()))
                .or_default()
                .push((wall - e2e) / e2e);
        }
        measured.push((w, m));
    }
    let layers = LAYERS
        .iter()
        .map(|(name, _)| {
            let s = samples
                .remove(*name)
                .and_then(|v| Summary::of(&v))
                .ok_or_else(|| format!("traced run did not measure {name}"))?;
            Ok(Metric::layer(name, s))
        })
        .collect::<Result<Vec<_>, String>>()?;
    if let Some(extra) = samples.keys().next() {
        return Err(format!(
            "traced run measured {extra}, which LAYERS does not list"
        ));
    }
    Ok(TracedRun { layers, measured })
}
