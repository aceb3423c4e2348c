//! Implementation of the `lockdoc` command-line tool.
//!
//! The binary wires the three LockDoc phases (paper Fig. 5) into
//! subcommands:
//!
//! * `lockdoc trace` — run the instrumented simulated kernel and archive
//!   the event trace (`LDOC1` container),
//! * `lockdoc import` — post-process + import a trace, report statistics,
//!   optionally dump the relational tables as CSV,
//! * `lockdoc derive` — mine locking rules,
//! * `lockdoc check` — validate documented rules against a trace,
//! * `lockdoc doc` — generate locking-rule documentation,
//! * `lockdoc violations` — report rule-violating accesses,
//! * `lockdoc races` — Eraser-style lockset race detection with witness
//!   pairs,
//! * `lockdoc lint` — cross-pass consistency lint joining rules,
//!   violations, races, and lock order into ranked findings,
//! * `lockdoc order` — lock-order graph, inversions, cycles,
//! * `lockdoc scan` — count lock-initializer usage in a C source tree
//!   (the Fig. 1 measurement, usable on a real kernel checkout),
//! * `lockdoc corpus` — manage a directory of traces as one analysis
//!   unit with cached per-trace matrices and group-incremental
//!   re-derivation ([`corpus`]),
//! * `lockdoc serve` — concurrent query daemon over a corpus ([`serve`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod serve;
pub mod xcheck;

use ksim::config::SimConfig;
use ksim::parallel::run_mix_sharded;
use ksim::rules;
use lockdoc_core::checker::{check_rules, summarize};
use lockdoc_core::derive::{derive, derive_in, DeriveConfig, MinedRules};
use lockdoc_core::docgen::{generate_doc, generate_rulespec};
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::lint::lint_passes;
use lockdoc_core::order::OrderGraph;
use lockdoc_core::race::find_races;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_core::violation::find_violations_in;
use lockdoc_platform::hash::{fnv1a, HashingReader};
use lockdoc_platform::json::{Json, ToJson};
use lockdoc_platform::par::resolve_jobs;
use lockdoc_trace::codec::{write_trace, SalvageReport, TraceReader};
use lockdoc_trace::corpus::{screen, Health};
use lockdoc_trace::db::{
    filter_fingerprint, import_stream, ingest, read_archive, write_archive, CsvTable, ImportError,
    ImportReport, IngestOptions, ResilientConfig, TraceDb,
};
use lockdoc_trace::event::Trace;
use lockdoc_trace::filter::FilterConfig;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Usage(String),
    /// I/O problem.
    Io(io::Error),
    /// Trace decoding problem.
    Codec(lockdoc_trace::codec::CodecError),
    /// Resilient import refusal (strict corruption or exceeded budget).
    Import(ImportError),
    /// Rule file problem.
    Rules(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Usage(m) => write!(f, "{m}"),
            CliError::Io(e) => write!(f, "i/o error: {e}"),
            CliError::Codec(e) => write!(f, "trace error: {e}"),
            CliError::Import(e) => write!(f, "import error: {e}"),
            CliError::Rules(m) => write!(f, "rule error: {m}"),
        }
    }
}

impl From<io::Error> for CliError {
    fn from(e: io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<lockdoc_trace::codec::CodecError> for CliError {
    fn from(e: lockdoc_trace::codec::CodecError) -> Self {
        CliError::Codec(e)
    }
}

impl From<ImportError> for CliError {
    fn from(e: ImportError) -> Self {
        CliError::Import(e)
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, CliError>;

/// Minimal flag parser: `--key value` pairs plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses raw arguments (flags may appear anywhere).
    pub fn parse(raw: &[String]) -> Self {
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                let value = raw.get(i + 1).filter(|v| !v.starts_with("--")).cloned();
                if value.is_some() {
                    i += 1;
                }
                out.flags.push((name.to_owned(), value));
            } else {
                out.positional.push(a.clone());
            }
            i += 1;
        }
        out
    }

    /// String flag value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether a bare flag is present.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// Numeric flag with default.
    pub fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::Usage(format!("invalid value for --{name}: `{v}`"))),
        }
    }

    /// Worker count for the stages that fork workers (see [`USAGE`]):
    /// `--jobs N`, else the `LOCKDOC_JOBS` environment variable, else
    /// available parallelism. The output is identical at any value.
    pub fn jobs(&self) -> Result<usize> {
        let explicit: Option<usize> = match self.get("jobs") {
            None => None,
            Some(v) => Some(
                v.parse()
                    .map_err(|_| CliError::Usage(format!("invalid value for --jobs: `{v}`")))?,
            ),
        };
        Ok(resolve_jobs(explicit))
    }
}

/// The usage text.
pub const USAGE: &str = "\
lockdoc — trace-based analysis of locking rules

USAGE:
  lockdoc trace      [--ops N] [--seed N] [--no-faults | --racy] [--mix SPEC]
                     [--fs LIST] [--shards N] [--jobs N] --out FILE
  lockdoc import     --trace FILE [--csv-dir DIR]
                     [--lenient | --strict] [--max-bad-frac X]
  lockdoc doctor     TRACE|DIR [--trace FILE] [--json]
  lockdoc derive     --trace FILE [--t-ac X] [--group NAME] [--rulespec | --json]
  lockdoc check      --trace FILE [--rules FILE] [--json]
  lockdoc doc        --trace FILE [--group NAME]
  lockdoc violations --trace FILE [--t-ac X] [--max-examples N] [--json]
  lockdoc races      --trace FILE [--json]
  lockdoc lint       --trace FILE [--rules FILE] [--t-ac X] [--static-src DIR]
                     [--jobs N] [--json]
  lockdoc scan       --dir PATH [--per-file] [--per-release] [--jobs N] [--json]
  lockdoc xcheck     [--trace FILE] [--src DIR | --seed N [--sites-per-rule N]]
                     [--t-ac X] [--jobs N] [--json]
  lockdoc diff       --old FILE --new FILE [--t-ac X] [--json]
  lockdoc order      --trace FILE [--json]
  lockdoc fuzz       [--budget N] [--ops N] [--seed N] [--shards N]
                     [--generation N] [--jobs N] [--json]
  lockdoc corpus     build|status|export|add FILE..|drop NAME.. --dir DIR
                     [--cache-dir DIR] [--t-ac X] [--json]
                     [--rulespec] [--out FILE]
  lockdoc fsck       --dir DIR [--cache-dir DIR] [--repair] [--gc] [--json]
  lockdoc serve      --dir DIR (--once [--input FILE] | [--socket PATH])
                     [--cache-dir DIR] [--t-ac X]
                     [--max-request-bytes N] [--timeout-ms N]
                     [--max-conns N] [--ingest-retries N]

`--jobs N` (or LOCKDOC_JOBS) runs the shards of `trace --shards`, the
static front end of `xcheck` and `lint --static-src`, `scan`'s files and
`fuzz`'s candidates on N workers. Import and every question asked of a
trace or a corpus run serially, as none ran faster on two workers.
Every subcommand accepts the flag, and output is byte-identical at any
worker count. Default: available parallelism.

`--cache-dir DIR` (or LOCKDOC_CACHE_DIR) keeps a columnar archive of the
imported store per trace: commands that read `--trace FILE` load a valid
archive directly instead of re-decoding and re-importing, and rewrite it
after a fresh import. Archives self-invalidate on trace content, filter
config, or format-version changes; a stale or corrupt archive only costs
a re-import, never a wrong answer. `trace --shards N` splits the
workload across N simulated machines (part of the trace *content*, unlike
--jobs: the same --shards value reproduces the same trace on any machine).
`trace --racy` additionally enables the seeded lockless-writer fault site
(a true-positive workload for `races`/`lint`).

`races` reports members whose candidate lockset (Eraser intersection over
flows, IRQ/flow exclusion as pseudo-locks) is empty, each with a concrete
two-access witness pair. `lint` joins that with mined rules, documented-rule
checking, violations, and the lock-order graph into ranked findings
(CONFIRMED / PROBABLE / SUSPECT / DOWNGRADED) plus doc-vs-observed
lock-order conflicts. `lint --static-src DIR` additionally runs the
static outlier lockset analysis over a C-like source tree and uses its
per-member outliers as a fourth evidence source (a SUSPECT finding with
static corroboration is promoted to PROBABLE).

`scan` counts locking-primitive usage per source tree; `--per-release`
breaks the counts down by top-level subdirectory and `--per-file` by
file. `xcheck` cross-validates the static outlier analysis against the
dynamic passes: it analyzes `--src DIR` (or, by default, a seeded
ground-truth tree with an exact injected-outlier oracle, scored as
oracle precision/recall) and, when `--trace FILE` is given, joins the
static findings with races/checker/violations/lint by (type, member),
reporting per-pass precision and recall.

A plain `import`, and every question asked of a trace, skips a
malformed event (a double free, say) and counts it in `invalid_events`
(an unbalanced release in `unmatched_releases`), so it answers from the
tables `import --lenient` keeps. `import --lenient` salvages damaged
containers and quarantines corrupt events, naming each (up to
`--max-bad-frac`, default 0.05); `import --strict` refuses the first
corrupt event with a typed diagnosis. `doctor` reports a trace's health
(salvage + quarantine summary) without importing it.

`fuzz` runs a coverage-guided campaign over workload mixes: --budget
mutated candidates (in rounds of --generation), each running --ops
operations, scored on uncovered functions, zero-observation members,
unseen lock combinations, and pairless race candidates. The report is a
pure function of (--seed, --budget, --ops, --shards, --generation);
--jobs only changes wall-clock time.

`corpus` manages a directory of `.ldoc` traces as one analysis unit:
every member is screened (doctor triage) and summarized into a cached
per-trace observation matrix keyed by trace content + filter + derive
config. `build` merges the cached matrices and derives corpus-level
rules group by group, reusing byte-identically every group whose
contributing traces did not change, so `add`/`drop` of one trace
re-derives only the touched data-type groups. `status` triages without
deriving; `export --out FILE` writes the merged corpus as one trace.
`doctor DIR` prints a per-trace triage line plus a corpus summary.

`fsck` checks the corpus store's crash-consistency invariants: it rolls
an interrupted (journaled) add/drop forward or back, sweeps stray
atomic-write temporaries, quarantines unreadable members into
`.quarantine/`, and with `--gc` removes cache artifacts orphaned by
replaced or dropped members. Without `--repair` it only reports; every
repair is idempotent, so an interrupted fsck is fixed by re-running it.

`serve` answers derive/races/lint/order/status queries over a corpus via
line-delimited JSON (`{\"cmd\": \"derive\"}` per line, one response line
each), concurrently: queries read an immutable snapshot while `add`
ingests build the next snapshot off to the side and swap it in, so
readers never block on ingest. `serve --once` answers a batch of
requests from stdin (or --input FILE) and exits — no socket needed; the
answer texts are byte-identical to the corresponding batch subcommands
run on the merged corpus. The daemon bounds every connection:
`--max-request-bytes` caps one request line (default 65536),
`--timeout-ms` bounds socket reads/writes (default 5000),
`--max-conns` caps concurrent connections — excess clients get a
`server busy (RETRY)` shed response (default 64) — and a panicking
request is isolated to an error response. Transient ingest I/O errors
retry with backoff (`--ingest-retries`, default 2); shutdown drains
in-flight connections before the listener exits.
";

/// The flags [`USAGE`] lists for subcommand `cmd`, read off its synopsis
/// block (a `lockdoc CMD` line plus its indented continuation lines);
/// `None` for a subcommand the synopsis does not list.
fn usage_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let synopsis = USAGE
        .split("USAGE:\n")
        .nth(1)
        .and_then(|rest| rest.split("\n\n").next())
        .unwrap_or_default();
    let mut current = "";
    let mut flags = None;
    for line in synopsis.lines() {
        if let Some(rest) = line.trim_start().strip_prefix("lockdoc ") {
            current = rest.split_whitespace().next().unwrap_or_default();
        }
        if current == cmd {
            flags.get_or_insert_with(Vec::new).extend(
                line.split(|c: char| c.is_whitespace() || "[]()|".contains(c))
                    .filter_map(|word| word.strip_prefix("--")),
            );
        }
    }
    flags
}

/// Whether subcommand `cmd` takes `--flag`: one its [`USAGE`] line lists,
/// `--jobs` on every subcommand, and `--cache-dir` on every one that reads
/// `--trace`. `None` for an unknown subcommand. [`run`] rejects any other
/// flag, so a typo cannot silently select a default.
fn takes_flag(cmd: &str, flag: &str) -> Option<bool> {
    let flags = usage_flags(cmd)?;
    Some(
        flag == "jobs"
            || flags.contains(&flag)
            || (flag == "cache-dir" && flags.contains(&"trace")),
    )
}

fn load_db(args: &Args) -> Result<TraceDb> {
    let path = args
        .get("trace")
        .ok_or_else(|| CliError::Usage("--trace FILE is required".into()))?;
    load_db_from(path, args)
}

/// Loads and imports a trace, streaming the decode straight into the
/// importer (the full event vector is never materialized). With
/// `--cache-dir DIR` (or `LOCKDOC_CACHE_DIR`), a columnar archive of the
/// imported store is kept next to the analysis: a valid archive is loaded
/// directly, a stale/absent one is rewritten after a fresh import.
fn load_db_from(path: &str, args: &Args) -> Result<TraceDb> {
    let config = rules::filter_config();
    let cache_dir = args
        .get("cache-dir")
        .map(str::to_owned)
        .or_else(|| std::env::var("LOCKDOC_CACHE_DIR").ok());
    match cache_dir {
        Some(dir) => load_db_cached(path, Path::new(&dir), &config),
        None => {
            let file = fs::File::open(path)?;
            let reader = TraceReader::new(io::BufReader::new(file))?;
            Ok(import_stream(reader, &config, 1)?)
        }
    }
}

/// Archive location for a trace: keyed by file name for readability plus
/// an FNV-1a hash of the canonical path (the path as given when it cannot
/// be resolved), so same-named traces in different directories cannot
/// collide and every spelling of one trace's path (`t.ldoc`, `./t.ldoc`,
/// an absolute path, a symlink) shares one archive.
fn archive_path(cache_dir: &Path, trace_path: &str) -> std::path::PathBuf {
    let path = fs::canonicalize(trace_path).unwrap_or_else(|_| trace_path.into());
    let name = path.file_name().and_then(|s| s.to_str()).unwrap_or("trace");
    cache_dir.join(format!(
        "{name}.{:016x}.ldarc",
        fnv1a(path.as_os_str().as_encoded_bytes())
    ))
}

/// The archive key is the checksum of the trace bytes read in the same
/// pass as the header whose metadata the store is paired with (a hit) or
/// as the events imported (a miss), so a trace rewritten in the middle
/// of a question can only miss: it is never served another content's
/// store or metadata. Neither path holds the trace file.
fn load_db_cached(
    trace_path: &str,
    cache_dir: &Path,
    config: &lockdoc_trace::filter::FilterConfig,
) -> Result<TraceDb> {
    let fp = filter_fingerprint(config);
    let apath = archive_path(cache_dir, trace_path);
    if let Ok(abytes) = fs::read(&apath) {
        let mut trace = HashingReader::new(fs::File::open(trace_path)?);
        let meta = std::sync::Arc::clone(TraceReader::new(&mut trace)?.meta());
        if let Some(db) = read_archive(&abytes, trace.finish()?, fp, meta) {
            return Ok(db);
        }
    }
    let mut trace = HashingReader::new(fs::File::open(trace_path)?);
    let db = import_stream(TraceReader::new(&mut trace)?, config, 1)?;
    let trace_sum = trace.finish()?;
    // Atomic best-effort write: the rename keeps a crashed run from ever
    // leaving a torn archive under the final name (a torn one would fail
    // validation and merely miss), and failure to cache — including a
    // cache directory that cannot be created — must not fail the run.
    if fs::create_dir_all(cache_dir).is_ok() {
        let _ = lockdoc_platform::vfs::Vfs::real_from_env()
            .atomic_write(&apath, &write_archive(&db, trace_sum, fp));
    }
    Ok(db)
}

/// `lockdoc trace`.
pub fn cmd_trace(args: &Args) -> Result<String> {
    let ops: u64 = args.num("ops", 20_000u64)?;
    let seed: u64 = args.num("seed", 0x10c_d0cu64)?;
    let out = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let shards: u64 = args.num("shards", 1u64)?;
    let jobs = args.jobs()?;
    if args.has("racy") && args.has("no-faults") {
        return Err(CliError::Usage(
            "--racy and --no-faults are mutually exclusive".into(),
        ));
    }
    let mut cfg = SimConfig::with_seed(seed);
    if let Some(spec) = args.get("fs") {
        // Restricted boot: mount only the listed filesystems (the mix
        // must not use any other; see ksim's SimConfig::mounts).
        let mut fss = Vec::new();
        for name in spec.split(',').filter(|n| !n.trim().is_empty()) {
            let fs = ksim::subsys::FsKind::from_subclass(name.trim()).ok_or_else(|| {
                CliError::Usage(format!("unknown filesystem `{}` in --fs", name.trim()))
            })?;
            if !fss.contains(&fs) {
                fss.push(fs);
            }
        }
        if fss.is_empty() {
            return Err(CliError::Usage("--fs needs at least one filesystem".into()));
        }
        cfg = cfg.with_mounts(fss);
    }
    if args.has("racy") {
        cfg = cfg.with_faults(rules::racy_fault_plan());
    } else if !args.has("no-faults") {
        cfg = cfg.with_faults(rules::default_fault_plan());
    }
    let run = run_mix_sharded(&cfg, args.get("mix"), ops, shards, jobs).map_err(CliError::Usage)?;
    let summary = run.trace.summary();
    let mut buf = Vec::new();
    write_trace(&run.trace, &mut buf)?;
    fs::write(out, &buf)?;
    Ok(format!(
        "wrote {out}: {} events ({} accesses, {} lock ops), {} injected faults, \
         {} shard(s), {} bytes",
        summary.total,
        summary.mem_accesses,
        summary.lock_ops,
        run.fault_log.total(),
        run.shards,
        buf.len()
    ))
}

/// Renders the non-clean parts of a salvage report for terminal output.
fn describe_salvage(s: &SalvageReport) -> String {
    let mut line = format!(
        "salvage: {} decode failure(s), {} byte(s) skipped, recovered {}/{} events",
        s.failures, s.bytes_skipped, s.recovered_events, s.expected_events
    );
    if s.truncated {
        line.push_str(", input truncated");
    }
    if s.trailing_bytes > 0 {
        line.push_str(&format!(", {} trailing byte(s)", s.trailing_bytes));
    }
    line.push('\n');
    for d in &s.diags {
        line.push_str(&format!(
            "  record {} at byte {}: {}{}\n",
            d.event_index,
            d.offset,
            d.error,
            match d.resumed_at {
                Some(off) => format!(" (resumed at byte {off})"),
                None => " (no resync point)".to_owned(),
            }
        ));
    }
    line
}

/// Renders the quarantine section of an import report.
fn describe_quarantine(r: &ImportReport) -> String {
    let mut out = format!(
        "quarantined: {}/{} events ({:.2}%)\n",
        r.quarantined.len(),
        r.events,
        r.bad_frac * 100.0
    );
    for (class, n) in r.counts() {
        out.push_str(&format!("  {class}: {n}\n"));
    }
    for q in r.quarantined.iter().take(5) {
        out.push_str(&format!(
            "  event {}: {}: {}\n",
            q.event_index, q.class, q.detail
        ));
    }
    if r.quarantined.len() > 5 {
        out.push_str(&format!("  ... {} more\n", r.quarantined.len() - 5));
    }
    out
}

/// `lockdoc import`.
pub fn cmd_import(args: &Args) -> Result<String> {
    let lenient = args.has("lenient");
    let strict = args.has("strict");
    if lenient && strict {
        return Err(CliError::Usage(
            "--lenient and --strict are mutually exclusive".into(),
        ));
    }
    let max_bad_frac: f64 = args.num("max-bad-frac", 0.05f64)?;
    // The budget is a fraction of the events; NaN would turn the gate off,
    // since no fraction compares greater than it.
    if !(0.0..=1.0).contains(&max_bad_frac) {
        return Err(CliError::Usage(format!(
            "--max-bad-frac must be a number in [0, 1], got `{}`",
            args.get("max-bad-frac").unwrap_or_default()
        )));
    }
    let mut out = String::new();
    let db = if lenient || strict {
        let path = args
            .get("trace")
            .ok_or_else(|| CliError::Usage("--trace FILE is required".into()))?;
        let reader = TraceReader::new(io::BufReader::new(fs::File::open(path)?))?;
        let rcfg = if strict {
            ResilientConfig::strict()
        } else {
            ResilientConfig::lenient(max_bad_frac)
        };
        let opts = IngestOptions {
            policy: rcfg.policy,
            tables: true,
            keep_events: false,
        };
        // Decoding has run to the end before the verdict, so a damaged
        // container is reported ahead of a malformed event.
        let ing = ingest(reader, &rules::filter_config(), opts)?;
        rcfg.verdict(&ing.report)?;
        if lenient && !ing.salvage.is_clean() {
            out.push_str(&describe_salvage(&ing.salvage));
        }
        if !ing.report.is_clean() {
            out.push_str(&describe_quarantine(&ing.report));
        }
        ing.db.expect("ingest builds the tables it was asked for")
    } else {
        load_db(args)?
    };
    let st = &db.stats;
    out.push_str(&format!(
        "events: {}\naccesses: {} seen, {} imported, {} filtered, {} unresolved\n\
         locks: {} ({} static, {} embedded)\ntxns: {}\nstacks: {}\n",
        st.events,
        st.accesses_seen,
        st.accesses_imported,
        st.total_filtered(),
        st.unresolved,
        st.locks,
        st.static_locks,
        st.embedded_locks,
        st.txns,
        st.stacks
    ));
    // Without a policy a malformed event is skipped, not quarantined; say
    // how many were (a policy reports them as quarantine entries above).
    if st.invalid_events > 0 {
        out.push_str(&format!("invalid_events: {}\n", st.invalid_events));
    }
    if let Some(dir) = args.get("csv-dir") {
        fs::create_dir_all(dir)?;
        for table in CsvTable::ALL {
            let path = Path::new(dir).join(format!("{}.csv", table.name()));
            let mut file = io::BufWriter::with_capacity(1 << 16, fs::File::create(&path)?);
            db.write_csv(table, &mut file)?;
            file.flush()?;
            out.push_str(&format!("wrote {}\n", path.display()));
        }
    }
    Ok(out)
}

/// `lockdoc doctor`: trace health report (salvage + quarantine) without
/// running any analysis.
pub fn cmd_doctor(args: &Args) -> Result<String> {
    let path = args
        .positional
        .first()
        .map(String::as_str)
        .or_else(|| args.get("trace"))
        .ok_or_else(|| CliError::Usage("doctor needs a TRACE file or corpus DIR".into()))?;
    if Path::new(path).is_dir() {
        return doctor_dir(path, args);
    }
    let file = io::BufReader::new(fs::File::open(path)?);
    let ing = match screen(file, &FilterConfig::default(), false, false) {
        Ok(ing) => ing,
        Err(e) => {
            // The header (magic, metadata, event count) is the one part
            // salvage cannot work around; report rather than error so
            // `doctor` always renders a diagnosis.
            if args.has("json") {
                let v = Json::Obj(vec![
                    ("verdict".to_owned(), Json::Str("unreadable".to_owned())),
                    ("error".to_owned(), Json::Str(e.to_string())),
                ]);
                return Ok(v.pretty());
            }
            return Ok(format!("{path}: UNREADABLE — {e}\n"));
        }
    };
    let (salvage, report) = (ing.salvage, ing.report);
    let healthy = Health::of(&salvage, &report) == Health::Healthy;
    if args.has("json") {
        let v = Json::Obj(vec![
            (
                "verdict".to_owned(),
                Json::Str(if healthy { "healthy" } else { "degraded" }.to_owned()),
            ),
            ("salvage".to_owned(), salvage.to_json()),
            ("import".to_owned(), report.to_json()),
        ]);
        return Ok(v.pretty());
    }
    let mut out = if healthy {
        format!(
            "{path}: HEALTHY — {} events, 0 quarantined\n",
            report.events
        )
    } else {
        format!("{path}: DEGRADED\n")
    };
    if !salvage.is_clean() {
        out.push_str(&describe_salvage(&salvage));
    }
    if !report.is_clean() {
        out.push_str(&describe_quarantine(&report));
    }
    Ok(out)
}

/// `lockdoc doctor DIR`: triage every `.ldoc` trace in a directory with
/// one verdict line each, plus a corpus health summary.
fn doctor_dir(dir: &str, args: &Args) -> Result<String> {
    let mut names: Vec<String> = fs::read_dir(dir)?
        .filter_map(|e| {
            let path = e.ok()?.path();
            if path.extension().and_then(|x| x.to_str()) == Some("ldoc") {
                path.file_name().and_then(|n| n.to_str()).map(str::to_owned)
            } else {
                None
            }
        })
        .collect();
    names.sort();
    let filter = FilterConfig::default();
    let mut rows = Vec::new();
    for name in &names {
        let file = io::BufReader::new(fs::File::open(Path::new(dir).join(name))?);
        rows.push(match screen(file, &filter, false, false) {
            Ok(ing) => (
                name.clone(),
                Health::of(&ing.salvage, &ing.report),
                ing.report.events,
                ing.report.quarantined.len() as u64,
                None,
            ),
            Err(e) => (name.clone(), Health::Unreadable, 0, 0, Some(e.to_string())),
        });
    }
    let verdicts = || rows.iter().map(|r| r.1);
    if args.has("json") {
        let (healthy, degraded, unreadable) = corpus::health_counts(verdicts());
        let traces: Vec<Json> = rows
            .iter()
            .map(|(name, health, events, quarantined, error)| {
                let mut pairs = vec![
                    ("name", Json::Str(name.clone())),
                    ("verdict", Json::Str(health.name().to_owned())),
                    ("events", Json::U64(*events)),
                    ("quarantined", Json::U64(*quarantined)),
                ];
                if let Some(e) = error {
                    pairs.push(("error", Json::Str(e.clone())));
                }
                Json::obj(pairs)
            })
            .collect();
        let v = Json::obj(vec![
            ("traces", Json::Arr(traces)),
            ("healthy", Json::U64(healthy as u64)),
            ("degraded", Json::U64(degraded as u64)),
            ("unreadable", Json::U64(unreadable as u64)),
        ]);
        return Ok(v.pretty());
    }
    let mut out = String::new();
    for (name, health, events, quarantined, error) in &rows {
        out.push_str(&corpus::render_triage_line(
            name,
            *health,
            *events,
            *quarantined,
            error.as_deref(),
        ));
    }
    out.push_str(&corpus::corpus_summary(verdicts()));
    out.push('\n');
    Ok(out)
}

/// `lockdoc derive`.
pub fn cmd_derive(args: &Args) -> Result<String> {
    let db = load_db(args)?;
    let t_ac: f64 = args.num("t-ac", 0.9f64)?;
    let mut mined = derive(&db, &DeriveConfig::with_threshold(t_ac));
    if let Some(want) = args.get("group") {
        mined.groups.retain(|g| g.group_name == want);
        if mined.groups.is_empty() {
            return Err(CliError::Usage("no matching observation group".into()));
        }
    }
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&mined));
    }
    Ok(render_rules_text(&mined, args.has("rulespec")))
}

/// Renders mined rules in the standard `derive` text format. Shared by
/// `derive`, `corpus build`, and the `serve` query layer so the formats
/// cannot drift apart.
pub fn render_rules_text(mined: &MinedRules, rulespec: bool) -> String {
    let mut out = String::new();
    for group in &mined.groups {
        if rulespec {
            out.push_str(&generate_rulespec(group));
        } else {
            out.push_str(&format!("[{}]\n", group.group_name));
            for rule in &group.rules {
                out.push_str(&format!(
                    "  {}:{} = {} (sa {} / {} units, sr {:.2}%)\n",
                    rule.member_name,
                    rule.kind,
                    rule.winner.hypothesis.describe(),
                    rule.winner.hypothesis.sa,
                    rule.total_units,
                    rule.winner.hypothesis.sr * 100.0
                ));
            }
            if group.truncated_units > 0 {
                out.push_str(&format!(
                    "  ({} observation units exceeded the enumeration cap; \
                     evidence kept, long hypotheses not enumerated)\n",
                    group.truncated_units
                ));
            }
        }
    }
    out
}

/// `lockdoc check`.
pub fn cmd_check(args: &Args) -> Result<String> {
    let db = load_db(args)?;
    let text = match args.get("rules") {
        Some(path) => fs::read_to_string(path)?,
        None => rules::documented_rules().to_owned(),
    };
    let parsed = parse_rules(&text).map_err(|e| CliError::Rules(e.to_string()))?;
    let checked = check_rules(&db, &parsed);
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&checked));
    }
    let mut out = String::new();
    for c in &checked {
        out.push_str(&format!(
            "{:60} sr {:6.2}%  {}\n",
            c.rule.to_string(),
            c.sr * 100.0,
            c.verdict
        ));
    }
    out.push('\n');
    for row in summarize(&checked) {
        out.push_str(&format!(
            "{:16} #R={:3} #No={:3} #Ob={:3} ok={:.1}% ~={:.1}% bad={:.1}%\n",
            row.type_name,
            row.rules,
            row.not_observed,
            row.observed,
            row.pct_correct,
            row.pct_ambivalent,
            row.pct_incorrect
        ));
    }
    Ok(out)
}

/// `lockdoc doc`.
pub fn cmd_doc(args: &Args) -> Result<String> {
    let db = load_db(args)?;
    let mined = derive(&db, &DeriveConfig::default());
    let mut out = String::new();
    for group in &mined.groups {
        if let Some(want) = args.get("group") {
            if group.group_name != want {
                continue;
            }
        }
        out.push_str(&generate_doc(group));
        out.push('\n');
    }
    if out.is_empty() {
        return Err(CliError::Usage("no matching observation group".into()));
    }
    Ok(out)
}

/// `lockdoc violations`.
pub fn cmd_violations(args: &Args) -> Result<String> {
    let db = load_db(args)?;
    let t_ac: f64 = args.num("t-ac", 0.9f64)?;
    let max_examples: usize = args.num("max-examples", 5usize)?;
    let index = EvidenceIndex::build(&db);
    let mined = derive_in(&index, &DeriveConfig::with_threshold(t_ac));
    let violations = find_violations_in(&index, &mined, max_examples);
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&violations));
    }
    let mut out = String::new();
    for v in violations.iter().filter(|v| v.events > 0) {
        out.push_str(&format!(
            "{}: {} events, {} members, {} contexts\n",
            v.group_name,
            v.events,
            v.members.len(),
            v.context_count()
        ));
        for ex in &v.examples {
            out.push_str(&format!(
                "  {}.{}:{}\n    required: {}\n    held:     {}\n    at {} ({})\n",
                ex.group_name,
                ex.member_name,
                ex.kind,
                lockdoc_core::lockset::format_sequence(&ex.required),
                lockdoc_core::lockset::format_sequence(&ex.held),
                db.format_loc(ex.loc),
                db.format_stack(ex.stack)
            ));
        }
    }
    if out.is_empty() {
        out.push_str("no violations found\n");
    }
    Ok(out)
}

/// One aggregate scan line (shared by the total and the breakdowns).
fn scan_counts_line(c: &locksrc::scan::LockUsageCounts) -> String {
    format!(
        "{} spinlock inits, {} mutex inits, {} rwlock inits, \
         {} rwsem inits, {} seqlock inits, {} semaphore inits, {} rcu usages, {} LoC",
        c.spinlock_inits,
        c.mutex_inits,
        c.rwlock_inits,
        c.rwsem_inits,
        c.seqlock_inits,
        c.semaphore_inits,
        c.rcu_usages,
        c.loc
    )
}

/// `lockdoc scan`: walks a directory of C sources, scanning files in
/// parallel (sorted paths, byte-identical at any `--jobs`). `--per-file`
/// breaks the counts down per source file; `--per-release` groups by
/// first path component below `--dir` (the layout of per-release corpus
/// dumps and of `linux-vX.Y/` checkout collections).
pub fn cmd_scan(args: &Args) -> Result<String> {
    let dir = args
        .get("dir")
        .ok_or_else(|| CliError::Usage("--dir PATH is required".into()))?;
    let root = Path::new(dir);
    // Sorted as paths, not as strings: `a/b.c` comes before `a.c`.
    let mut paths = xcheck::source_paths(root)?;
    paths.sort();
    let jobs = args.jobs()?;
    let per_file = lockdoc_platform::par::par_map(jobs, &paths, |path| {
        let src = xcheck::read_source(path)?;
        Ok((
            xcheck::relative_path(root, path),
            locksrc::scan_source(&src),
        ))
    })
    .into_iter()
    .collect::<Result<Vec<(String, locksrc::scan::LockUsageCounts)>>>()?;
    let mut total = locksrc::scan::LockUsageCounts::default();
    for (_, c) in &per_file {
        total.merge(c);
    }
    let files = per_file.len();
    // Per-release rollup: first path component under --dir ("." for
    // files directly inside it).
    let mut per_release: Vec<(String, u64, locksrc::scan::LockUsageCounts)> = Vec::new();
    if args.has("per-release") {
        let mut by_release: std::collections::BTreeMap<String, (u64, _)> =
            std::collections::BTreeMap::new();
        for (rel, c) in &per_file {
            let release = match rel.split_once('/') {
                Some((first, _)) => first.to_owned(),
                None => ".".to_owned(),
            };
            let entry = by_release
                .entry(release)
                .or_insert((0u64, locksrc::scan::LockUsageCounts::default()));
            entry.0 += 1;
            entry.1.merge(c);
        }
        per_release = by_release
            .into_iter()
            .map(|(r, (n, c))| (r, n, c))
            .collect();
    }
    if args.has("json") {
        let mut fields = vec![
            ("files", (files as u64).to_json()),
            ("counts", total.to_json()),
        ];
        if args.has("per-release") {
            fields.push((
                "per_release",
                Json::Arr(
                    per_release
                        .iter()
                        .map(|(r, n, c)| {
                            Json::obj(vec![
                                ("release", r.to_json()),
                                ("files", n.to_json()),
                                ("counts", c.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if args.has("per-file") {
            fields.push((
                "per_file",
                Json::Arr(
                    per_file
                        .iter()
                        .map(|(p, c)| {
                            Json::obj(vec![("path", p.to_json()), ("counts", c.to_json())])
                        })
                        .collect(),
                ),
            ));
        }
        return Ok(Json::obj(fields).pretty());
    }
    let mut out = format!("{files} files: {}", scan_counts_line(&total));
    for (release, n, c) in &per_release {
        out.push_str(&format!(
            "\n  {release}: {n} files, {}",
            scan_counts_line(c)
        ));
    }
    if args.has("per-file") {
        for (p, c) in &per_file {
            out.push_str(&format!("\n  {p}: {}", scan_counts_line(c)));
        }
    }
    Ok(out)
}

/// `lockdoc order`: lock-order graph, inversions and deadlock-potential
/// cycles (ex-post lockdep).
pub fn cmd_order(args: &Args) -> Result<String> {
    let db = load_db(args)?;
    let graph = OrderGraph::build(&db);
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&graph));
    }
    Ok(graph.report(&db))
}

/// `lockdoc races`: Eraser-style lockset race detection with witness
/// pairs.
pub fn cmd_races(args: &Args) -> Result<String> {
    let db = load_db(args)?;
    let races = find_races(&db);
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&races));
    }
    Ok(races.render(&db))
}

/// `lockdoc lint`: cross-pass consistency lint — joins mined rules,
/// documented-rule checking, violations, race candidates, and the
/// lock-order graph into ranked findings. With `--static-src DIR` the
/// static outlier pass over that source tree joins as a fourth
/// evidence source.
pub fn cmd_lint(args: &Args) -> Result<String> {
    let db = load_db(args)?;
    let t_ac: f64 = args.num("t-ac", 0.9f64)?;
    let text = match args.get("rules") {
        Some(path) => fs::read_to_string(path)?,
        None => rules::documented_rules().to_owned(),
    };
    let parsed = parse_rules(&text).map_err(|e| CliError::Rules(e.to_string()))?;
    let statics = match args.get("static-src") {
        Some(dir) => {
            let files = xcheck::collect_source_files(Path::new(dir))?;
            let cfg = locksrc::MinerConfig::default();
            let report = locksrc::analyze_tree(&files, &cfg, args.jobs()?);
            Some(xcheck::to_static_evidence(&report))
        }
        None => None,
    };
    let index = EvidenceIndex::build(&db);
    let mined = derive_in(&index, &DeriveConfig::with_threshold(t_ac));
    let report = lint_passes(&index, &mined, &parsed, statics.as_ref()).report;
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&report));
    }
    Ok(report.render(&db))
}

/// `lockdoc diff`: mined-rule drift between two traces.
pub fn cmd_diff(args: &Args) -> Result<String> {
    let t_ac: f64 = args.num("t-ac", 0.9f64)?;
    let load = |flag: &str| -> Result<MinedRules> {
        let path = args
            .get(flag)
            .ok_or_else(|| CliError::Usage(format!("--{flag} FILE is required")))?;
        let file = fs::File::open(path)?;
        let reader = TraceReader::new(io::BufReader::new(file))?;
        let db = import_stream(reader, &rules::filter_config(), 1)?;
        Ok(derive(&db, &DeriveConfig::with_threshold(t_ac)))
    };
    let old = load("old")?;
    let new = load("new")?;
    let diff = lockdoc_core::rulediff::diff_rules(&old, &new);
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&diff));
    }
    Ok(diff.render())
}

/// `lockdoc fuzz`: coverage-guided feedback fuzzing of workload mixes.
pub fn cmd_fuzz(args: &Args) -> Result<String> {
    let defaults = ksim::fuzz::FuzzConfig::default();
    let cfg = ksim::fuzz::FuzzConfig {
        seed: args.num("seed", defaults.seed)?,
        budget: args.num("budget", defaults.budget)?,
        ops: args.num("ops", defaults.ops)?,
        shards: args.num("shards", defaults.shards)?,
        generation: args.num("generation", defaults.generation)?,
    };
    let report = ksim::fuzz::run_campaign(&cfg, args.jobs()?)
        .map_err(|e| CliError::Usage(format!("fuzz: {e}")))?;
    if args.has("json") {
        return Ok(lockdoc_platform::json::to_string_pretty(&report));
    }
    Ok(report.render())
}

/// Dispatches a full command line (without the binary name).
pub fn run(raw: &[String]) -> Result<String> {
    let Some(cmd) = raw.first() else {
        return Err(CliError::Usage(USAGE.to_owned()));
    };
    let args = Args::parse(&raw[1..]);
    if let Some((flag, _)) = args
        .flags
        .iter()
        .find(|(flag, _)| takes_flag(cmd, flag) == Some(false))
    {
        return Err(CliError::Usage(format!(
            "unknown flag `--{flag}` for `lockdoc {cmd}`"
        )));
    }
    // Every subcommand accepts `--jobs`, so every one rejects a malformed
    // value, also where nothing forks workers.
    args.jobs()?;
    match cmd.as_str() {
        "trace" => cmd_trace(&args),
        "import" => cmd_import(&args),
        "doctor" => cmd_doctor(&args),
        "derive" => cmd_derive(&args),
        "check" => cmd_check(&args),
        "doc" => cmd_doc(&args),
        "violations" => cmd_violations(&args),
        "races" => cmd_races(&args),
        "lint" => cmd_lint(&args),
        "scan" => cmd_scan(&args),
        "xcheck" => xcheck::cmd_xcheck(&args),
        "diff" => cmd_diff(&args),
        "order" => cmd_order(&args),
        "fuzz" => cmd_fuzz(&args),
        "corpus" => corpus::cmd_corpus(&args),
        "fsck" => corpus::cmd_fsck(&args),
        "serve" => serve::cmd_serve(&args),
        "help" | "--help" | "-h" => Ok(USAGE.to_owned()),
        other => Err(CliError::Usage(format!(
            "unknown subcommand `{other}`\n{USAGE}"
        ))),
    }
}

/// Round-trips a [`Trace`] through a temp file (test helper).
pub fn save_trace(trace: &Trace, path: &Path) -> Result<()> {
    let mut buf = Vec::new();
    write_trace(trace, &mut buf)?;
    fs::write(path, buf)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdoc_platform::hash::checksum;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn args_parse_flags_and_positionals() {
        let a = Args::parse(&s(&["--ops", "100", "pos", "--flag", "--out", "f.bin"]));
        assert_eq!(a.get("ops"), Some("100"));
        assert_eq!(a.get("out"), Some("f.bin"));
        assert!(a.has("flag"));
        assert_eq!(a.positional, vec!["pos"]);
        assert_eq!(a.num("ops", 0u64).unwrap(), 100);
        assert!(a.num::<u64>("out", 0).is_err());
    }

    #[test]
    fn unknown_subcommand_reports_usage() {
        let err = run(&s(&["frobnicate"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.to_string().contains("unknown subcommand"));
    }

    #[test]
    fn full_pipeline_through_temp_files() {
        let dir = std::env::temp_dir().join("lockdoc-cli-test");
        fs::create_dir_all(&dir).unwrap();
        let trace_path = dir.join("t.ldoc");
        let out = run(&s(&[
            "trace",
            "--ops",
            "400",
            "--out",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("events"));
        let out = run(&s(&["import", "--trace", trace_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("txns:"));
        let out = run(&s(&[
            "derive",
            "--trace",
            trace_path.to_str().unwrap(),
            "--group",
            "dentry",
        ]))
        .unwrap();
        assert!(out.contains("[dentry]"));
        // The filter is exclusive: no other group may appear.
        assert_eq!(out.matches('[').count(), 1, "only dentry printed:\n{out}");
        let err = run(&s(&[
            "derive",
            "--trace",
            trace_path.to_str().unwrap(),
            "--group",
            "no_such_group",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("no matching observation group"));
        let out = run(&s(&["check", "--trace", trace_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("inode"));
        let out = run(&s(&[
            "doc",
            "--trace",
            trace_path.to_str().unwrap(),
            "--group",
            "inode:ext4",
        ]))
        .unwrap();
        assert!(out.contains("locking rules"));
        let out = run(&s(&["violations", "--trace", trace_path.to_str().unwrap()])).unwrap();
        assert!(!out.is_empty());
        let json = run(&s(&[
            "derive",
            "--trace",
            trace_path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let value = lockdoc_platform::json::parse(&json).expect("valid json");
        assert!(value.get("groups").is_some_and(|g| g.is_array()));
        // diff a trace against itself: empty drift.
        let out = run(&s(&[
            "diff",
            "--old",
            trace_path.to_str().unwrap(),
            "--new",
            trace_path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("0 changed, 0 added, 0 removed"));
        let out = run(&s(&["order", "--trace", trace_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("lock-order graph:"));
        let json = run(&s(&[
            "order",
            "--trace",
            trace_path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let value = lockdoc_platform::json::parse(&json).expect("valid json");
        assert!(value.get("edges").is_some_and(|e| e.is_array()));
        let out = run(&s(&["races", "--trace", trace_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("race detector:"), "{out}");
        let json = run(&s(&[
            "races",
            "--trace",
            trace_path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let value = lockdoc_platform::json::parse(&json).expect("valid json");
        assert!(value.get("groups").is_some_and(|g| g.is_array()));
        let out = run(&s(&["lint", "--trace", trace_path.to_str().unwrap()])).unwrap();
        assert!(out.contains("consistency lint:"), "{out}");
        let json = run(&s(&[
            "lint",
            "--trace",
            trace_path.to_str().unwrap(),
            "--json",
        ]))
        .unwrap();
        let value = lockdoc_platform::json::parse(&json).expect("valid json");
        assert!(value.get("findings").is_some_and(|f| f.is_array()));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jobs_flag_does_not_change_output() {
        let dir = std::env::temp_dir().join("lockdoc-jobs-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.ldoc");
        run(&s(&["trace", "--ops", "400", "--out", p.to_str().unwrap()])).unwrap();
        for cmd in [
            "derive",
            "doc",
            "violations",
            "check",
            "order",
            "races",
            "lint",
        ] {
            let serial = run(&s(&[cmd, "--trace", p.to_str().unwrap(), "--jobs", "1"])).unwrap();
            let parallel = run(&s(&[cmd, "--trace", p.to_str().unwrap(), "--jobs", "4"])).unwrap();
            assert_eq!(serial, parallel, "{cmd} output differs across --jobs");
        }
        assert!(Args::parse(&s(&["--jobs", "zebra"])).jobs().is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_dir_hits_are_byte_identical_to_fresh_imports() {
        let dir = std::env::temp_dir().join("lockdoc-cache-test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.ldoc");
        let cache = dir.join("cache");
        let t = p.to_str().unwrap();
        let c = cache.to_str().unwrap();
        run(&s(&["trace", "--ops", "400", "--out", t])).unwrap();
        for cmd in ["races", "lint", "order"] {
            let fresh = run(&s(&[cmd, "--trace", t, "--jobs", "1"])).unwrap();
            // First cached run writes the archive (miss), second loads it
            // (hit); both must match the uncached output, across jobs.
            let miss = run(&s(&[cmd, "--trace", t, "--jobs", "1", "--cache-dir", c])).unwrap();
            let hit = run(&s(&[cmd, "--trace", t, "--jobs", "4", "--cache-dir", c])).unwrap();
            assert_eq!(fresh, miss, "{cmd}: cache miss output differs");
            assert_eq!(fresh, hit, "{cmd}: cache hit output differs");
        }
        let archives: Vec<_> = fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(archives.len(), 1, "one archive per (path, trace) key");
        // Regenerating the trace (new content) must invalidate the archive:
        // the next cached run still matches a fresh import of the new trace.
        run(&s(&["trace", "--ops", "500", "--seed", "9", "--out", t])).unwrap();
        let fresh = run(&s(&["races", "--trace", t, "--jobs", "1"])).unwrap();
        let cached = run(&s(&[
            "races",
            "--trace",
            t,
            "--jobs",
            "1",
            "--cache-dir",
            c,
        ]))
        .unwrap();
        assert_eq!(fresh, cached, "stale archive must miss, not serve old data");
        // An archive of the previous format version at the same path is a
        // clean miss, and the fresh import rewrites it in place at the
        // current version.
        let apath = &archives[0];
        {
            use lockdoc_platform::artifact;
            use lockdoc_trace::db::archive::{ARCHIVE_MAGIC, FORMAT_VERSION};
            let keys = [
                checksum(&fs::read(t).unwrap()),
                filter_fingerprint(&rules::filter_config()),
            ];
            let current = fs::read(apath).unwrap();
            let payload = artifact::open(&current, &ARCHIVE_MAGIC, FORMAT_VERSION, &keys)
                .expect("the archive opens at the current version")
                .to_vec();
            let older = artifact::seal(&ARCHIVE_MAGIC, FORMAT_VERSION - 1, &keys, &payload);
            fs::write(apath, older).unwrap();
            let args = ["races", "--trace", t, "--jobs", "1", "--cache-dir", c];
            let after_stale = run(&s(&args)).unwrap();
            assert_eq!(fresh, after_stale, "an older-version archive must miss");
            let rewritten = fs::read(apath).unwrap();
            assert!(
                artifact::open(&rewritten, &ARCHIVE_MAGIC, FORMAT_VERSION, &keys).is_some(),
                "the miss rewrites the archive at version {FORMAT_VERSION}"
            );
        }
        // A corrupt archive misses cleanly too.
        let mut bytes = fs::read(apath).unwrap();
        if let Some(b) = bytes.get_mut(40) {
            *b ^= 0xff;
        }
        fs::write(apath, &bytes).unwrap();
        let after_corrupt = run(&s(&[
            "races",
            "--trace",
            t,
            "--jobs",
            "1",
            "--cache-dir",
            c,
        ]))
        .unwrap();
        assert_eq!(fresh, after_corrupt, "corrupt archive must fall back");
        // A cache directory that cannot be created costs the cache, not
        // the run.
        let blocker = dir.join("not-a-dir");
        fs::write(&blocker, b"").unwrap();
        let uncreatable = blocker.join("sub");
        let u = uncreatable.to_str().unwrap();
        let answer = run(&s(&[
            "races",
            "--trace",
            t,
            "--jobs",
            "1",
            "--cache-dir",
            u,
        ]))
        .unwrap();
        assert_eq!(fresh, answer, "an uncreatable --cache-dir must not fail");
        fs::remove_dir_all(&dir).ok();
    }

    /// Backdates `path`'s modification time, so that a rewrite shows.
    fn backdate(path: &Path) -> std::time::SystemTime {
        let old = std::time::UNIX_EPOCH + std::time::Duration::from_secs(1_000_000_000);
        let file = fs::OpenOptions::new().write(true).open(path).unwrap();
        file.set_modified(old).unwrap();
        old
    }

    #[test]
    fn cache_archives_are_keyed_by_content_and_named_by_canonical_path() {
        let dir = std::env::temp_dir().join("lockdoc-cache-key-test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let cache = dir.join("cache");
        let c = cache.to_str().unwrap();
        let plain = dir.join("t.ldoc");
        let dotted = dir.join(".").join("t.ldoc");
        let (t, t2) = (plain.to_str().unwrap(), dotted.to_str().unwrap());
        run(&s(&["trace", "--ops", "400", "--out", t])).unwrap();
        let fresh = run(&s(&["order", "--trace", t])).unwrap();
        let archives = || -> Vec<_> {
            fs::read_dir(&cache)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect()
        };
        // The first spelling misses and writes the archive; the second
        // finds it: one archive, not rewritten.
        let miss = run(&s(&["order", "--trace", t, "--cache-dir", c])).unwrap();
        assert_eq!(fresh, miss);
        let [apath] = archives().try_into().unwrap();
        let old = backdate(&apath);
        let hit = run(&s(&["order", "--trace", t2, "--cache-dir", c])).unwrap();
        assert_eq!(fresh, hit);
        assert_eq!(
            archives(),
            [apath.as_path()],
            "one archive for both spellings"
        );
        let modified = fs::metadata(&apath).unwrap().modified().unwrap();
        assert_eq!(modified, old, "the second spelling hits");
        // The streamed key is the checksum of the whole file, as an older
        // build computed it: the archive is byte-equal to one sealed with
        // that key, and such an archive hits.
        let reader = TraceReader::new(fs::File::open(t).unwrap()).unwrap();
        let config = rules::filter_config();
        let db = import_stream(reader, &config, 1).unwrap();
        let key = checksum(&fs::read(t).unwrap());
        let sealed = write_archive(&db, key, filter_fingerprint(&config));
        assert!(
            fs::read(&apath).unwrap() == sealed,
            "archive keyed by checksum(file)"
        );
        fs::write(&apath, &sealed).unwrap();
        let old = backdate(&apath);
        let hit = run(&s(&["order", "--trace", t, "--cache-dir", c])).unwrap();
        assert_eq!(fresh, hit);
        let modified = fs::metadata(&apath).unwrap().modified().unwrap();
        assert_eq!(modified, old, "an archive sealed with checksum(file) hits");
        fs::remove_dir_all(&dir).ok();
    }

    /// A trace whose type, subclass, member, lock and file names hold
    /// commas, quotes, CRs and LFs: one access under a plain lock and a
    /// nasty one, so the held-lock list is quoted as a whole.
    fn write_nasty_names_trace(path: &Path) {
        use lockdoc_trace::event::{
            AccessKind, AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc,
        };
        use lockdoc_trace::ids::AllocId;
        let mut trace = Trace::new();
        let meta = trace.meta_mut();
        let file = meta.strings.intern("fs/\"odd\",\r\nname.c");
        let plain_lock = meta.strings.intern("plain_lock");
        let nasty_lock = meta.strings.intern("lock,\"b\"\n");
        let subclass = meta.strings.intern("sub\rclass,");
        let data_type = meta.add_data_type(DataTypeDef {
            name: "type \"q\",\n".into(),
            size: 0x40,
            members: vec![MemberDef {
                name: "mem,\"ber\"\r".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let task = meta.add_task("t0");
        let loc = SourceLoc::new(file, 7);
        let lock = |addr, name| Event::LockInit {
            addr,
            name,
            flavor: LockFlavor::Spinlock,
            is_static: true,
        };
        let acquire = |addr| Event::LockAcquire {
            addr,
            mode: AcquireMode::Exclusive,
            loc,
        };
        let events = [
            Event::TaskSwitch { task },
            lock(0x100, plain_lock),
            lock(0x200, nasty_lock),
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 0x40,
                data_type,
                subclass: Some(subclass),
            },
            acquire(0x100),
            acquire(0x200),
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc,
                atomic: false,
            },
            Event::LockRelease { addr: 0x200, loc },
            Event::LockRelease { addr: 0x100, loc },
            Event::Free { id: AllocId(1) },
        ];
        for (ts, event) in events.into_iter().enumerate() {
            trace.push(ts as u64 + 1, event);
        }
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        fs::write(path, buf).unwrap();
    }

    #[test]
    fn csv_dir_streams_the_exported_tables() {
        let dir = std::env::temp_dir().join("lockdoc-csv-dir-test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("nasty.ldoc");
        write_nasty_names_trace(&p);
        let t = p.to_str().unwrap();
        let csv_dir = dir.join("csv");
        let out = run(&s(&[
            "import",
            "--trace",
            t,
            "--csv-dir",
            csv_dir.to_str().unwrap(),
        ]))
        .unwrap();
        // The stats, then one `wrote` line per table in export order.
        let mut want = run(&s(&["import", "--trace", t])).unwrap();
        let reader = TraceReader::new(fs::File::open(&p).unwrap()).unwrap();
        let db = import_stream(reader, &rules::filter_config(), 1).unwrap();
        assert_eq!(db.stats.accesses_imported, 1, "the access is kept");
        for (name, csv) in db.export_csv_tables() {
            let path = csv_dir.join(format!("{name}.csv"));
            want.push_str(&format!("wrote {}\n", path.display()));
            assert!(csv.contains('"'), "{name}: some field is quoted");
            assert_eq!(fs::read_to_string(&path).unwrap(), csv, "{name}.csv");
        }
        assert_eq!(out, want);
        // A `--csv-dir` naming a regular file is an I/O error, not a panic.
        let err = run(&s(&["import", "--trace", t, "--csv-dir", t])).unwrap_err();
        assert!(
            matches!(&err, CliError::Io(e) if e.kind() == io::ErrorKind::AlreadyExists),
            "{err}"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fuzz_subcommand_is_jobs_invariant_and_round_trips_json() {
        let base = s(&["fuzz", "--budget", "2", "--ops", "140", "--seed", "5"]);
        let serial = run(&[base.clone(), s(&["--jobs", "1"])].concat()).unwrap();
        let parallel = run(&[base.clone(), s(&["--jobs", "4"])].concat()).unwrap();
        assert_eq!(serial, parallel, "fuzz output differs across --jobs");
        assert!(
            serial.contains("fuzz campaign: seed=0x5 budget=2"),
            "{serial}"
        );
        assert!(serial.contains("baseline (standard mix):"), "{serial}");
        let json = run(&[base, s(&["--json", "--jobs", "2"])].concat()).unwrap();
        let report: ksim::fuzz::FuzzReport =
            lockdoc_platform::json::from_str(&json).expect("valid fuzz json");
        assert_eq!(report.seed, 5);
        assert_eq!(report.budget, 2);
        assert_eq!(report.corpus[0].gain, "baseline");
        // Bad knobs surface as usage errors, not panics.
        assert!(run(&s(&["fuzz", "--budget", "0"])).is_err());
        assert!(run(&s(&["fuzz", "--budget", "x"])).is_err());
    }

    #[test]
    fn trace_accepts_custom_mix() {
        let dir = std::env::temp_dir().join("lockdoc-mix-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("m.ldoc");
        let out = run(&s(&[
            "trace",
            "--ops",
            "100",
            "--mix",
            "pipes=1,perms=1",
            "--out",
            p.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("events"));
        let err = run(&s(&[
            "trace",
            "--ops",
            "10",
            "--mix",
            "quake=3",
            "--out",
            p.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("unknown workload"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_and_resilient_import_modes() {
        let dir = std::env::temp_dir().join("lockdoc-doctor-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.ldoc");
        run(&s(&[
            "trace",
            "--ops",
            "300",
            "--no-faults",
            "--out",
            p.to_str().unwrap(),
        ]))
        .unwrap();

        // A freshly recorded trace is healthy.
        let out = run(&s(&["doctor", p.to_str().unwrap()])).unwrap();
        assert!(out.contains("HEALTHY"), "{out}");
        let json = run(&s(&["doctor", p.to_str().unwrap(), "--json"])).unwrap();
        let v = lockdoc_platform::json::parse(&json).expect("valid json");
        assert_eq!(v.get("verdict").and_then(Json::as_str), Some("healthy"));
        assert!(v.get("salvage").is_some() && v.get("import").is_some());

        // Clip the tail: strict refuses, lenient salvages the prefix.
        let full = fs::read(&p).unwrap();
        let clipped = dir.join("clipped.ldoc");
        fs::write(&clipped, &full[..full.len() - 1]).unwrap();
        let err = run(&s(&[
            "import",
            "--strict",
            "--trace",
            clipped.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Codec(_)), "{err}");
        let out = run(&s(&[
            "import",
            "--lenient",
            "--trace",
            clipped.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("salvage:"), "{out}");
        assert!(out.contains("input truncated"), "{out}");
        assert!(out.contains("txns:"), "{out}");
        let out = run(&s(&["doctor", clipped.to_str().unwrap()])).unwrap();
        assert!(out.contains("DEGRADED"), "{out}");

        // A file that is not an LDOC1 container at all: doctor diagnoses
        // instead of erroring.
        let garbage = dir.join("garbage.ldoc");
        fs::write(&garbage, b"not a trace").unwrap();
        let out = run(&s(&["doctor", garbage.to_str().unwrap()])).unwrap();
        assert!(out.contains("UNREADABLE"), "{out}");

        // The two policies are mutually exclusive.
        let err = run(&s(&[
            "import",
            "--lenient",
            "--strict",
            "--trace",
            p.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");

        // On a clean trace the resilient paths agree with the fast path.
        let fast = run(&s(&["import", "--trace", p.to_str().unwrap()])).unwrap();
        let lenient = run(&s(&["import", "--lenient", "--trace", p.to_str().unwrap()])).unwrap();
        let strict = run(&s(&["import", "--strict", "--trace", p.to_str().unwrap()])).unwrap();
        assert_eq!(fast, lenient);
        assert_eq!(fast, strict);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_bad_frac_must_be_a_fraction() {
        let dir = std::env::temp_dir().join("lockdoc-max-bad-frac-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.ldoc");
        let t = p.to_str().unwrap();
        run(&s(&["trace", "--ops", "200", "--no-faults", "--out", t])).unwrap();
        for bad in ["nan", "inf", "-0.5", "1.5"] {
            let err = run(&s(&[
                "import",
                "--lenient",
                "--max-bad-frac",
                bad,
                "--trace",
                t,
            ]))
            .unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err}");
            assert!(err.to_string().contains("--max-bad-frac"), "{err}");
        }
        for good in ["0", "1"] {
            run(&s(&[
                "import",
                "--lenient",
                "--max-bad-frac",
                good,
                "--trace",
                t,
            ]))
            .unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let err = run(&s(&["import", "--lenent", "--trace", "missing.ldoc"])).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        let msg = err.to_string();
        assert!(
            msg.contains("--lenent") && msg.contains("lockdoc import"),
            "{msg}"
        );
        // `--cache-dir` goes with `--trace`, not with every subcommand.
        assert!(run(&s(&["scan", "--dir", ".", "--cache-dir", "c"])).is_err());
    }

    /// `--jobs` is checked once in `run`, so a malformed value is a usage
    /// error for every subcommand, also one where nothing forks workers.
    #[test]
    fn malformed_jobs_is_a_usage_error_for_every_subcommand() {
        let cmds: Vec<&str> = USAGE
            .lines()
            .filter_map(|line| line.strip_prefix("  lockdoc "))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        assert_eq!(cmds.len(), 17, "{cmds:?}");
        for cmd in cmds {
            let err = run(&s(&[cmd, "--jobs", "abc"])).unwrap_err();
            assert!(
                matches!(err, CliError::Usage(_)) && err.to_string().contains("--jobs"),
                "{cmd}: {err}"
            );
        }
    }

    /// Every subcommand reads its flags off its USAGE lines, continuation
    /// lines included, and no flag leaks from one subcommand to the next.
    #[test]
    fn every_usage_flag_is_accepted() {
        let cmds = [
            "trace",
            "import",
            "doctor",
            "derive",
            "check",
            "doc",
            "violations",
            "races",
            "lint",
            "scan",
            "xcheck",
            "diff",
            "order",
            "fuzz",
            "corpus",
            "fsck",
            "serve",
        ];
        let listed: usize = cmds
            .iter()
            .map(|cmd| usage_flags(cmd).unwrap_or_else(|| panic!("{cmd}")).len())
            .sum();
        assert!(listed > 50, "parsed only {listed} flags from USAGE");
        for (cmd, flag) in [
            ("trace", "ops"),
            ("trace", "out"),
            ("import", "max-bad-frac"),
            ("import", "jobs"),
            ("doctor", "trace"),
            ("xcheck", "t-ac"),
            ("order", "cache-dir"),
            ("corpus", "out"),
            ("serve", "ingest-retries"),
        ] {
            assert_eq!(takes_flag(cmd, flag), Some(true), "{cmd} --{flag}");
        }
        for (cmd, flag) in [
            ("derive", "lenient"),
            ("trace", "cache-dir"),
            ("doctor", "csv-dir"),
        ] {
            assert_eq!(takes_flag(cmd, flag), Some(false), "{cmd} --{flag}");
        }
        assert_eq!(takes_flag("help", "json"), None);
    }

    /// Strict import decodes the whole container before it reports a
    /// malformed event, so a damaged container is diagnosed as such.
    #[test]
    fn strict_import_reports_a_later_decode_error_first() {
        use lockdoc_trace::corrupt::{inject, CorruptionClass};
        let dir = std::env::temp_dir().join("lockdoc-strict-precedence-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("t.ldoc");
        run(&s(&[
            "trace",
            "--ops",
            "300",
            "--no-faults",
            "--out",
            p.to_str().unwrap(),
        ]))
        .unwrap();
        let clean =
            lockdoc_trace::codec::read_trace(&mut fs::read(&p).unwrap().as_slice()).unwrap();
        let inj = inject(&clean, CorruptionClass::DoubleFree, 3).expect("a double-free site");
        save_trace(inj.trace.as_ref().unwrap(), &p).unwrap();
        let err = run(&s(&["import", "--strict", "--trace", p.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, CliError::Import(_)), "{err}");
        let bytes = fs::read(&p).unwrap();
        fs::write(&p, &bytes[..bytes.len() - 1]).unwrap();
        let err = run(&s(&["import", "--strict", "--trace", p.to_str().unwrap()])).unwrap_err();
        assert_eq!(
            err.to_string(),
            "trace error: i/o error: failed to fill whole buffer"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn doctor_triages_directories() {
        let dir = std::env::temp_dir().join("lockdoc-doctor-dir-test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let good = dir.join("a-good.ldoc");
        run(&s(&[
            "trace",
            "--ops",
            "300",
            "--out",
            good.to_str().unwrap(),
        ]))
        .unwrap();
        let full = fs::read(&good).unwrap();
        fs::write(dir.join("b-clipped.ldoc"), &full[..full.len() - 1]).unwrap();
        fs::write(dir.join("c-garbage.ldoc"), b"not a trace").unwrap();
        fs::write(dir.join("ignored.txt"), b"not a member").unwrap();

        let out = run(&s(&["doctor", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("a-good.ldoc: HEALTHY"), "{out}");
        assert!(out.contains("b-clipped.ldoc: DEGRADED"), "{out}");
        assert!(out.contains("c-garbage.ldoc: UNREADABLE"), "{out}");
        assert!(
            out.contains("corpus: 3 trace(s) — 1 healthy, 1 degraded, 1 unreadable"),
            "{out}"
        );
        let json = run(&s(&["doctor", dir.to_str().unwrap(), "--json"])).unwrap();
        let v = lockdoc_platform::json::parse(&json).expect("valid json");
        assert_eq!(v.get("healthy").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("degraded").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("unreadable").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("traces").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corpus_lifecycle_and_serve_once_match_batch() {
        let base = std::env::temp_dir().join("lockdoc-corpus-cli-test");
        fs::remove_dir_all(&base).ok();
        fs::create_dir_all(&base).unwrap();
        let t1 = base.join("one.ldoc");
        let t2 = base.join("two.ldoc");
        run(&s(&[
            "trace",
            "--ops",
            "300",
            "--seed",
            "1",
            "--out",
            t1.to_str().unwrap(),
        ]))
        .unwrap();
        run(&s(&[
            "trace",
            "--ops",
            "300",
            "--seed",
            "2",
            "--out",
            t2.to_str().unwrap(),
        ]))
        .unwrap();
        // A copy of the first trace with its last byte cut: screening
        // salvages it as degraded, and only its kept events reach the
        // matrix and the merge. The cut drops the trace's last event, the
        // exit from an interrupt handler, and the copy's name sorts before
        // `two.ldoc`, so the merge must end that handler itself before the
        // next member starts.
        let t3 = base.join("three.ldoc");
        let clipped = fs::read(&t1).unwrap();
        fs::write(&t3, &clipped[..clipped.len() - 1]).unwrap();
        let corpus = base.join("corpus");
        let d = corpus.to_str().unwrap();

        // add = copy in + build; the cold build rebuilds every matrix.
        let out = run(&s(&[
            "corpus",
            "add",
            t1.to_str().unwrap(),
            t2.to_str().unwrap(),
            t3.to_str().unwrap(),
            "--dir",
            d,
        ]))
        .unwrap();
        assert!(out.contains("added one.ldoc"), "{out}");
        assert!(
            out.contains("corpus: 3 trace(s) — 2 healthy, 1 degraded"),
            "{out}"
        );
        assert!(out.contains("matrices: 0 cached, 3 rebuilt"), "{out}");

        // Warm rebuild: every matrix cached, every group reused, and the
        // rules section is byte-identical to the cold build.
        let warm = run(&s(&["corpus", "build", "--dir", d])).unwrap();
        assert!(warm.contains("matrices: 3 cached, 0 rebuilt"), "{warm}");
        assert!(warm.contains(", 0 re-derived\n"), "{warm}");
        let rules_of = |text: &str| text[text.find("[").expect("rules section")..].to_owned();
        assert_eq!(rules_of(&out), rules_of(&warm));

        // status triages without deriving.
        let st = run(&s(&["corpus", "status", "--dir", d])).unwrap();
        assert!(st.contains("one.ldoc: HEALTHY"), "{st}");
        assert!(st.contains("three.ldoc: DEGRADED"), "{st}");
        assert!(st.contains("corpus: 3 trace(s)"), "{st}");

        // The corpus rules equal a batch derivation over the exported
        // merged trace — the equivalence the whole pipeline rests on.
        let merged = base.join("merged.ldoc");
        run(&s(&[
            "corpus",
            "export",
            "--dir",
            d,
            "--out",
            merged.to_str().unwrap(),
        ]))
        .unwrap();
        let batch_derive = run(&s(&["derive", "--trace", merged.to_str().unwrap()])).unwrap();
        assert_eq!(rules_of(&warm), batch_derive);

        // serve --once answers byte-identically to the batch subcommands.
        let queries = base.join("queries.jsonl");
        fs::write(
            &queries,
            "{\"cmd\": \"derive\"}\n{\"cmd\": \"races\"}\n{\"cmd\": \"lint\"}\n\
             {\"cmd\": \"order\"}\n{\"cmd\": \"status\"}\n{\"cmd\": \"nope\"}\n\
             {\"cmd\": \"shutdown\"}\n",
        )
        .unwrap();
        let resp = run(&s(&[
            "serve",
            "--dir",
            d,
            "--once",
            "--input",
            queries.to_str().unwrap(),
        ]))
        .unwrap();
        let lines: Vec<Json> = resp
            .lines()
            .map(|l| lockdoc_platform::json::parse(l).expect("response json"))
            .collect();
        assert_eq!(lines.len(), 7);
        let output = |i: usize| lines[i].get("output").and_then(Json::as_str).unwrap();
        assert_eq!(output(0), batch_derive, "serve derive != batch derive");
        let batch_races = run(&s(&["races", "--trace", merged.to_str().unwrap()])).unwrap();
        assert_eq!(output(1), batch_races, "serve races != batch races");
        let batch_lint = run(&s(&["lint", "--trace", merged.to_str().unwrap()])).unwrap();
        assert_eq!(output(2), batch_lint, "serve lint != batch lint");
        let batch_order = run(&s(&["order", "--trace", merged.to_str().unwrap()])).unwrap();
        assert_eq!(output(3), batch_order, "serve order != batch order");
        // status is the corpus summary and the number of derived groups.
        let groups = batch_derive.lines().filter(|l| l.starts_with('[')).count();
        assert_eq!(
            output(4),
            format!("corpus: 3 trace(s) — 2 healthy, 1 degraded, 0 unreadable\ngroups: {groups}\n")
        );
        assert_eq!(lines[5].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(lines[6].get("ok").and_then(Json::as_bool), Some(true));

        // drop rebuilds from the remaining members.
        let out = run(&s(&["corpus", "drop", "two.ldoc", "--dir", d])).unwrap();
        assert!(out.contains("dropped two.ldoc"), "{out}");
        assert!(out.contains("corpus: 2 trace(s)"), "{out}");
        assert!(run(&s(&["corpus", "drop", "two.ldoc", "--dir", d])).is_err());
        assert!(run(&s(&["corpus", "frobnicate", "--dir", d])).is_err());
        fs::remove_dir_all(&base).ok();
    }

    /// Writes a two-event trace: a task switch, then a `ContextEnter` of
    /// the task context.
    fn write_task_context_trace(path: &Path) {
        use lockdoc_trace::event::{ContextKind, Event};
        let mut trace = Trace::new();
        let task = trace.meta_mut().add_task("t0");
        trace.push(1, Event::TaskSwitch { task });
        let kind = ContextKind::Task;
        trace.push(2, Event::ContextEnter { kind });
        save_trace(&trace, path).unwrap();
    }

    /// Writes a 15-event trace whose second `Free` of allocation 1 comes
    /// after allocation 2 took its address and embedded a lock, followed
    /// by three locked writes to allocation 2. Replayed, that free would
    /// deactivate allocation 2 and its lock and leave the writes
    /// unresolved.
    fn write_double_free_trace(path: &Path) {
        use lockdoc_trace::event::{
            AccessKind, AcquireMode, DataTypeDef, Event, LockFlavor, MemberDef, SourceLoc,
        };
        use lockdoc_trace::ids::AllocId;
        let mut trace = Trace::new();
        let meta = trace.meta_mut();
        let file = meta.strings.intern("obj.c");
        let name = meta.strings.intern("lock");
        let member = |name: &str, offset, is_lock| MemberDef {
            name: name.into(),
            offset,
            size: 8,
            atomic: false,
            is_lock,
        };
        let data_type = meta.add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 0x40,
            members: vec![member("v", 0, false), member("lock", 8, true)],
        });
        let task = meta.add_task("t0");
        let alloc = |id| Event::Alloc {
            id: AllocId(id),
            addr: 0x1000,
            size: 0x40,
            data_type,
            subclass: None,
        };
        let mut events = vec![
            Event::TaskSwitch { task },
            alloc(1),
            Event::Free { id: AllocId(1) },
            alloc(2),
            Event::LockInit {
                addr: 0x1008,
                name,
                flavor: LockFlavor::Spinlock,
                is_static: false,
            },
            Event::Free { id: AllocId(1) },
        ];
        for line in 0..3 {
            let loc = SourceLoc::new(file, 10 * line);
            events.extend([
                Event::LockAcquire {
                    addr: 0x1008,
                    mode: AcquireMode::Exclusive,
                    loc,
                },
                Event::MemAccess {
                    kind: AccessKind::Write,
                    addr: 0x1000,
                    size: 8,
                    loc: SourceLoc::new(file, 10 * line + 1),
                    atomic: false,
                },
                Event::LockRelease { addr: 0x1008, loc },
            ]);
        }
        for (ts, event) in events.into_iter().enumerate() {
            trace.push(ts as u64 + 1, event);
        }
        save_trace(&trace, path).unwrap();
    }

    /// A malformed event — a task-kind `ContextEnter`, or a double free
    /// after its address was reused — is skipped without a policy and
    /// quarantined under one, at every entry point that ingests a trace,
    /// and every question is answered from the tables the lenient import
    /// keeps.
    #[test]
    fn task_context_event_is_dropped_at_every_entry_point() {
        let base = std::env::temp_dir().join("lockdoc-task-context-test");
        fs::remove_dir_all(&base).ok();
        fs::create_dir_all(&base).unwrap();
        let bad = base.join("task-context.ldoc");
        write_task_context_trace(&bad);
        let t = bad.to_str().unwrap();

        let plain = run(&s(&["import", "--trace", t])).unwrap();
        assert!(plain.starts_with("events: 2\n"), "{plain}");
        assert!(plain.ends_with("invalid_events: 1\n"), "{plain}");
        // One bad event in two is over the default budget.
        let lenient = run(&s(&["import", "--trace", t, "--lenient"])).unwrap_err();
        assert!(matches!(lenient, CliError::Import(_)), "{lenient}");
        let wide_budget = ["import", "--trace", t, "--lenient", "--max-bad-frac", "1"];
        let wide = run(&s(&wide_budget)).unwrap();
        assert!(wide.contains("task_context"), "{wide}");
        let strict = run(&s(&["import", "--trace", t, "--strict"])).unwrap_err();
        assert!(strict.to_string().contains("task_context"), "{strict}");
        let doctor = run(&s(&["doctor", t])).unwrap();
        assert!(doctor.contains("task_context"), "{doctor}");
        run(&s(&["derive", "--trace", t])).unwrap();

        let double_free = base.join("double-free.ldoc");
        write_double_free_trace(&double_free);
        let t2 = double_free.to_str().unwrap();
        let plain = run(&s(&["import", "--trace", t2])).unwrap();
        let accesses = "accesses: 3 seen, 3 imported, 0 filtered, 0 unresolved\n";
        assert!(plain.contains(accesses), "{plain}");
        assert!(plain.ends_with("invalid_events: 1\n"), "{plain}");
        let wide_budget = ["import", "--trace", t2, "--lenient", "--max-bad-frac", "1"];
        let wide = run(&s(&wide_budget)).unwrap();
        assert!(wide.contains("double_free"), "{wide}");
        let strict = run(&s(&["import", "--trace", t2, "--strict"])).unwrap_err();
        assert!(strict.to_string().contains("double_free"), "{strict}");
        let doctor = run(&s(&["doctor", t2])).unwrap();
        assert!(doctor.contains("double_free"), "{doctor}");
        let derived = run(&s(&["derive", "--trace", t2])).unwrap();
        assert!(derived.contains("v:w = ES(lock in obj)"), "{derived}");
        let screened = lockdoc_trace::corpus::screen(
            fs::File::open(&double_free).unwrap(),
            &FilterConfig::default(),
            false,
            true,
        )
        .unwrap();
        let sanitized = base.join("sanitized.ldoc");
        save_trace(&screened.trace.unwrap(), &sanitized).unwrap();
        let t3 = sanitized.to_str().unwrap();
        assert_eq!(derived, run(&s(&["derive", "--trace", t3])).unwrap());

        let corpus = base.join("corpus");
        let d = corpus.to_str().unwrap();
        let added = run(&s(&["corpus", "add", t, "--dir", d])).unwrap();
        assert!(added.contains("added task-context.ldoc"), "{added}");
        run(&s(&["corpus", "build", "--dir", d])).unwrap();
        let status = run(&s(&["corpus", "status", "--dir", d])).unwrap();
        assert!(status.contains("task-context.ldoc: DEGRADED"), "{status}");
        let fsck = run(&s(&["fsck", "--dir", d])).unwrap();
        assert!(fsck.contains("fsck: clean"), "{fsck}");
        fs::remove_dir_all(&base).ok();
    }

    /// `serve`: an `add` of a trace holding a task-kind `ContextEnter` to
    /// a store with a healthy member answers ok and swaps in a snapshot
    /// with both members.
    #[test]
    fn serve_add_of_a_task_context_trace_keeps_both_members() {
        let base = std::env::temp_dir().join("lockdoc-task-context-serve-test");
        fs::remove_dir_all(&base).ok();
        fs::create_dir_all(&base).unwrap();
        let bad = base.join("task-context.ldoc");
        write_task_context_trace(&bad);
        let good = base.join("good.ldoc");
        let g = good.to_str().unwrap();
        run(&s(&["trace", "--ops", "200", "--out", g])).unwrap();
        let store = base.join("store");
        let d = store.to_str().unwrap();
        run(&s(&["corpus", "add", g, "--dir", d])).unwrap();
        let queries = base.join("queries.jsonl");
        let add = Json::obj(vec![
            ("cmd", "add".to_json()),
            ("path", bad.to_str().unwrap().to_json()),
        ]);
        fs::write(&queries, format!("{add}\n{{\"cmd\": \"status\"}}\n")).unwrap();
        let q = queries.to_str().unwrap();
        let resp = run(&s(&["serve", "--dir", d, "--once", "--input", q])).unwrap();
        let lines: Vec<Json> = resp
            .lines()
            .map(|l| lockdoc_platform::json::parse(l).expect("response json"))
            .collect();
        assert_eq!(lines.len(), 2, "{resp}");
        for line in &lines {
            assert_eq!(line.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        }
        let status = lines[1].get("output").and_then(Json::as_str).unwrap();
        assert!(status.contains("corpus: 2 trace(s)"), "{status}");
        fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn scan_walks_directories() {
        let dir = std::env::temp_dir().join("lockdoc-scan-test");
        fs::create_dir_all(dir.join("sub")).unwrap();
        fs::write(dir.join("a.c"), "spin_lock_init(&x);\n").unwrap();
        fs::write(dir.join("sub/b.h"), "mutex_init(&y);\n").unwrap();
        fs::write(dir.join("ignore.txt"), "spin_lock_init(&z);\n").unwrap();
        let out = run(&s(&["scan", "--dir", dir.to_str().unwrap()])).unwrap();
        assert!(out.contains("2 files"));
        assert!(out.contains("1 spinlock inits"));
        assert!(out.contains("1 mutex inits"));
        let json = run(&s(&["scan", "--dir", dir.to_str().unwrap(), "--json"])).unwrap();
        let v = lockdoc_platform::json::parse(&json).expect("valid json");
        assert_eq!(v.get("files").and_then(Json::as_u64), Some(2));
        assert_eq!(
            v.get("counts")
                .and_then(|c| c.get("spinlock_inits"))
                .and_then(Json::as_u64),
            Some(1)
        );
        fs::remove_dir_all(&dir).ok();

        // `scan` sorts paths and `xcheck` relative path strings, which
        // order `a/b.c` and `a.c` differently; each keeps its order.
        let dir = std::env::temp_dir().join("lockdoc-scan-order-test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(dir.join("a")).unwrap();
        fs::write(dir.join("a.c"), "spin_lock_init(&x);\n").unwrap();
        fs::write(dir.join("a/b.c"), "mutex_init(&y);\n").unwrap();
        let d = dir.to_str().unwrap();
        let out = run(&s(&["scan", "--dir", d, "--per-file"])).unwrap();
        let files: Vec<&str> = out
            .lines()
            .skip(1)
            .filter_map(|l| l.trim_start().split(": ").next())
            .collect();
        assert_eq!(files, ["a/b.c", "a.c"], "{out}");
        let json = run(&s(&["scan", "--dir", d, "--per-file", "--json"])).unwrap();
        let v = lockdoc_platform::json::parse(&json).expect("valid json");
        let per_file: Vec<&str> = v
            .get("per_file")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|f| f.get("path").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(per_file, ["a/b.c", "a.c"]);
        let collected: Vec<String> = xcheck::collect_source_files(&dir)
            .unwrap()
            .into_iter()
            .map(|(rel, _)| rel)
            .collect();
        assert_eq!(collected, ["a.c", "a/b.c"]);
        fs::remove_dir_all(&dir).ok();
    }

    /// A byte that is not UTF-8 (Latin-1 `ö` in a comment) no longer
    /// empties its file: `xcheck --src` still finds both functions and
    /// `scan` counts every line. A `.c` path that cannot be read is an
    /// error that names it, not an empty file.
    #[test]
    fn non_utf8_source_is_decoded_lossily() {
        let dir = std::env::temp_dir().join("lockdoc-latin1-test");
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        let mut src = b"/* Copyright J\xf6rg */\n".to_vec();
        src.extend_from_slice(
            b"static void a(struct inode *inode)\n{\n\tspin_lock(&inode->i_lock);\n\
              \tinode->i_state = 1;\n\tspin_unlock(&inode->i_lock);\n}\n\
              static void b(struct inode *inode)\n{\n\tinode->i_flags = 2;\n}\n",
        );
        fs::write(dir.join("x.c"), &src).unwrap();
        let d = dir.to_str().unwrap();
        let json = run(&s(&["xcheck", "--src", d, "--json"])).unwrap();
        let v = lockdoc_platform::json::parse(&json).expect("valid json");
        let stat = v.get("static").expect("static section");
        assert_eq!(stat.get("functions").and_then(Json::as_u64), Some(2));
        assert_eq!(stat.get("sites").and_then(Json::as_u64), Some(2));
        let out = run(&s(&["scan", "--dir", d])).unwrap();
        assert!(out.contains(" 10 LoC"), "{out}");
        #[cfg(unix)]
        {
            std::os::unix::fs::symlink(dir.join("missing"), dir.join("gone.c")).unwrap();
            for args in [["xcheck", "--src", d], ["scan", "--dir", d]] {
                let err = run(&s(&args)).unwrap_err();
                assert!(matches!(err, CliError::Io(_)), "{err}");
                assert!(err.to_string().contains("gone.c"), "{err}");
            }
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_racy_flag_enables_the_lockless_writer() {
        let dir = std::env::temp_dir().join("lockdoc-racy-test");
        fs::create_dir_all(&dir).unwrap();
        let p = dir.join("r.ldoc");
        let out = run(&s(&[
            "trace",
            "--ops",
            "1500",
            "--seed",
            "2060345069",
            "--racy",
            "--out",
            p.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("events"));
        // The racy workload surfaces at least one race candidate.
        let races = run(&s(&["races", "--trace", p.to_str().unwrap()])).unwrap();
        assert!(races.contains("RACE"), "{races}");
        let lint_out = run(&s(&["lint", "--trace", p.to_str().unwrap()])).unwrap();
        assert!(lint_out.contains("CONFIRMED"), "{lint_out}");
        let err = run(&s(&[
            "trace",
            "--ops",
            "10",
            "--racy",
            "--no-faults",
            "--out",
            p.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        fs::remove_dir_all(&dir).ok();
    }
}
