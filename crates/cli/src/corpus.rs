//! `lockdoc corpus`: manage a directory of traces as one analysis unit.
//!
//! The corpus pipeline caches two artifacts per member trace under the
//! cache directory, each keyed by the member's content checksum (plus,
//! for the matrix, the filter and derive-config fingerprints):
//!
//! * `<name>.<checksum>.screen.json` — the screening verdict (health,
//!   event counts), so `status` and warm rebuilds never re-decode a
//!   container whose content they have already triaged;
//! * `<name>.<checksum>.ldmtx` — the per-trace observation matrix, so a
//!   warm `build` merges cached matrices without touching the event
//!   stream at all.
//!
//! Corpus-level rules are derived group by group from the merged
//! matrices; the rules cache (`corpus.rules.json`, keyed by the derive
//! and filter fingerprints) lets an incremental `add`/`drop` re-derive
//! only the groups whose contributor set actually changed — untouched
//! groups are reused byte-identically. All three are written in the
//! [`lockdoc_platform::artifact`] frame (the two `.json` files carry a
//! JSON payload), so any mismatched, truncated, or damaged file is a
//! clean cache miss: the pipeline falls back to a full decode, never a
//! wrong answer.

use crate::{render_rules_text, Args, CliError, Result};
use ksim::rules;
use lockdoc_core::corpus::derive_fingerprint;
use lockdoc_core::derive::DeriveConfig;
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::{
    derive_corpus, read_matrix_artifact, write_matrix_artifact, CorpusDerive, CorpusRulesCache,
    CorpusTrace, TraceMatrix,
};
use lockdoc_platform::artifact;
use lockdoc_platform::json::{self, FromJson, Json, ToJson};
use lockdoc_trace::codec::{write_trace, TraceReader};
use lockdoc_trace::corpus::{
    fsck as store_fsck, member_key, screen, CorpusStore, FsckOptions, Health,
};
use lockdoc_trace::db::filter_fingerprint;
use lockdoc_trace::event::{Trace, TraceMeta};
use lockdoc_trace::filter::FilterConfig;
use lockdoc_trace::merge::{corpus_meta, CorpusMerge};
use std::fs;
use std::io::{self, Seek};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// File name of the corpus-level rules cache inside the cache directory.
pub const RULES_CACHE_FILE: &str = "corpus.rules.json";

/// Frame magics of the two JSON caches, the screening sidecar and the
/// rules cache, and their shared version, bumped on any payload or frame
/// checksum change.
const SCREEN_MAGIC: &[u8; 8] = b"LDSCRN1\0";
const RULES_MAGIC: &[u8; 8] = b"LDRULES\0";
const JSON_CACHE_VERSION: u32 = 2;

/// Shared knobs of one corpus (or serve) invocation.
///
/// Public so the crash-consistency suite (`tests/crash.rs`) can drive
/// the exact corpus pipeline the CLI runs against an in-memory
/// fault-injecting filesystem.
pub struct CorpusCtx {
    /// The opened store (which owns the filesystem handle all
    /// persistence must go through).
    pub store: CorpusStore,
    /// Rule-derivation configuration.
    pub config: DeriveConfig,
    /// Event filter configuration.
    pub filter: FilterConfig,
    /// Fingerprint of `filter` (cache key component).
    pub filter_fp: u64,
    /// Fingerprint of `config` (cache key component).
    pub derive_fp: u64,
    /// Cache writes that failed this process. Cache persistence stays
    /// best-effort — a failed write only costs the next run a rebuild —
    /// but failures are counted and surfaced in `corpus status` instead
    /// of vanishing.
    pub cache_write_errors: AtomicU64,
}

impl CorpusCtx {
    /// Resolves `--dir`, `--cache-dir` (default `<dir>/.lockdoc-cache`)
    /// and `--t-ac` into an opened store plus fingerprints.
    pub(crate) fn from_args(args: &Args) -> Result<Self> {
        let dir = args
            .get("dir")
            .ok_or_else(|| CliError::Usage("--dir DIR is required".into()))?;
        let cache_dir: PathBuf = match args.get("cache-dir") {
            Some(c) => PathBuf::from(c),
            None => Path::new(dir).join(".lockdoc-cache"),
        };
        let store = CorpusStore::open(Path::new(dir), &cache_dir)?;
        Ok(Self::with_store(store, args.num("t-ac", 0.9f64)?))
    }

    /// Wraps an already-opened store (possibly on an in-memory
    /// [`lockdoc_platform::vfs::Vfs`]) with default analysis knobs.
    pub fn with_store(store: CorpusStore, t_ac: f64) -> Self {
        let config = DeriveConfig::with_threshold(t_ac);
        let filter = rules::filter_config();
        let filter_fp = filter_fingerprint(&filter);
        let derive_fp = derive_fingerprint(&config);
        Self {
            store,
            config,
            filter,
            filter_fp,
            derive_fp,
            cache_write_errors: AtomicU64::new(0),
        }
    }

    /// Best-effort durable cache write: atomic (temp + rename + fsync)
    /// so a cache file is never torn, counting — not propagating —
    /// failures.
    fn write_cache(&self, path: &Path, bytes: &[u8]) {
        if self.store.vfs().atomic_write(path, bytes).is_err() {
            self.cache_write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cache writes that failed so far in this process.
    pub fn cache_write_errors(&self) -> u64 {
        self.cache_write_errors.load(Ordering::Relaxed)
    }

    /// Writes a JSON cache file in its frame.
    fn write_json_cache(&self, path: &Path, magic: &[u8; 8], keys: &[u64], v: &Json) {
        let payload = v.pretty();
        let framed = artifact::seal(magic, JSON_CACHE_VERSION, keys, payload.as_bytes());
        self.write_cache(path, &framed);
    }

    /// The JSON payload of a cache file whose frame opens, else `None`.
    fn read_json_cache(&self, path: &Path, magic: &[u8; 8], keys: &[u64]) -> Option<Json> {
        let bytes = self.store.vfs().read(path).ok()?;
        let payload = artifact::open(&bytes, magic, JSON_CACHE_VERSION, keys)?;
        json::parse(std::str::from_utf8(payload).ok()?).ok()
    }
}

/// One corpus member as the CLI sees it after loading.
pub struct Member {
    /// Member file name.
    pub name: String,
    /// [`member_key`] of the container bytes (artifact cache key).
    pub checksum: u64,
    /// Screening verdict.
    pub health: Health,
    /// Imported event count.
    pub events: u64,
    /// Quarantined event count.
    pub quarantined: u64,
    /// Decode error for unreadable members.
    pub error: Option<String>,
    /// True when the member was served entirely from cached artifacts
    /// (no event decode happened).
    pub cached: bool,
    /// The observation matrix (when requested).
    pub matrix: Option<TraceMatrix>,
    /// The trace metadata (when available).
    pub meta: Option<TraceMeta>,
}

fn write_screen_sidecar(ctx: &CorpusCtx, path: &Path, m: &Member) {
    let mut pairs = vec![
        ("health", Json::Str(m.health.name().to_owned())),
        ("events", Json::U64(m.events)),
        ("quarantined", Json::U64(m.quarantined)),
    ];
    if let Some(e) = &m.error {
        pairs.push(("error", Json::Str(e.clone())));
    }
    // Best-effort: a failed cache write only costs the next run a rescan.
    ctx.write_json_cache(path, SCREEN_MAGIC, &[m.checksum], &Json::obj(pairs));
}

fn read_screen_sidecar(
    ctx: &CorpusCtx,
    path: &Path,
    checksum: u64,
) -> Option<(Health, u64, u64, Option<String>)> {
    let v = ctx.read_json_cache(path, SCREEN_MAGIC, &[checksum])?;
    let health = match v.get("health").and_then(Json::as_str)? {
        "healthy" => Health::Healthy,
        "degraded" => Health::Degraded,
        "unreadable" => Health::Unreadable,
        _ => return None,
    };
    Some((
        health,
        v.get("events").and_then(Json::as_u64)?,
        v.get("quarantined").and_then(Json::as_u64)?,
        v.get("error").and_then(Json::as_str).map(str::to_owned),
    ))
}

fn load_member(ctx: &CorpusCtx, name: &str, need_matrix: bool) -> Result<Member> {
    let bytes = ctx.store.vfs().read(&ctx.store.trace_path(name))?;
    let checksum = member_key(&bytes);
    let scr_path = ctx.store.artifact_path(name, checksum, "screen.json");
    let mtx_path = ctx.store.artifact_path(name, checksum, "ldmtx");
    let mut member = Member {
        name: name.to_owned(),
        checksum,
        health: Health::Unreadable,
        events: 0,
        quarantined: 0,
        error: None,
        cached: false,
        matrix: None,
        meta: None,
    };
    // Warm path: a content-matched screening verdict (and, when needed, a
    // content+config-matched matrix) lets us skip the event decode.
    if let Some((health, events, quarantined, error)) =
        read_screen_sidecar(ctx, &scr_path, checksum)
    {
        member.health = health;
        member.events = events;
        member.quarantined = quarantined;
        member.error = error;
        if health == Health::Unreadable || !need_matrix {
            member.cached = true;
            return Ok(member);
        }
        if let Ok(mbytes) = ctx.store.vfs().read(&mtx_path) {
            if let Some(matrix) =
                read_matrix_artifact(&mbytes, checksum, ctx.filter_fp, ctx.derive_fp)
            {
                // The header decodes on its own for every non-unreadable
                // member; a failure here just falls through to cold.
                if let Ok(reader) = TraceReader::new(bytes.as_slice()) {
                    member.meta = Some((**reader.meta()).clone());
                    member.matrix = Some(matrix);
                    member.cached = true;
                    return Ok(member);
                }
            }
        }
    }
    // Cold path: one streaming pass screens the member (salvage decoding
    // into the quarantine checks) and imports the kept events when the
    // matrix needs the store; then rebuild the cached artifacts for the
    // next run.
    let screened = screen(bytes.as_slice(), &ctx.filter, need_matrix, false);
    let ing = match screened {
        Ok(ing) => {
            member.health = Health::of(&ing.salvage, &ing.report);
            member.events = ing.report.events;
            member.quarantined = ing.report.quarantined.len() as u64;
            Some(ing)
        }
        Err(e) => {
            member.error = Some(e.to_string());
            None
        }
    };
    write_screen_sidecar(ctx, &scr_path, &member);
    let Some(ing) = ing else {
        return Ok(member);
    };
    member.meta = Some((*ing.meta).clone());
    if let Some(db) = ing.db {
        let matrix = EvidenceIndex::build(&db).trace_matrix();
        ctx.write_cache(
            &mtx_path,
            &write_matrix_artifact(&matrix, checksum, ctx.filter_fp, ctx.derive_fp),
        );
        member.matrix = Some(matrix);
    }
    Ok(member)
}

/// Loads every corpus member in corpus (sorted-name) order, with its
/// observation matrix when `need_matrix` asks for it.
pub fn load_corpus(ctx: &CorpusCtx, need_matrix: bool) -> Result<Vec<Member>> {
    ctx.store
        .trace_names()?
        .iter()
        .map(|n| load_member(ctx, n, need_matrix))
        .collect()
}

/// The merged corpus trace, the number of members in it and every
/// member's screening verdict in corpus order: each readable member is
/// screened (its sanitized events collected) and folded into one
/// [`CorpusMerge`] in corpus order before the next member is read, so no
/// member trace outlives its fold. Unreadable members are left out; a
/// corpus with no readable member, or members that cannot be merged, is
/// an error.
pub(crate) fn merged_trace(ctx: &CorpusCtx) -> Result<(Trace, usize, Vec<Health>)> {
    let mut merge = CorpusMerge::default();
    let mut health = Vec::new();
    for name in ctx.store.trace_names()? {
        let bytes = ctx.store.vfs().read(&ctx.store.trace_path(&name))?;
        let Ok(screened) = screen(bytes.as_slice(), &ctx.filter, false, true) else {
            health.push(Health::Unreadable);
            continue;
        };
        health.push(Health::of(&screened.salvage, &screened.report));
        if let Some(trace) = screened.trace {
            merge
                .push(trace)
                .map_err(|e| CliError::Usage(format!("corpus merge: {e}")))?;
        }
    }
    match merge.parts() {
        0 => Err(no_analyzable_traces()),
        parts => Ok((merge.finish(), parts, health)),
    }
}

fn no_analyzable_traces() -> CliError {
    CliError::Usage("corpus has no analyzable traces (add .ldoc files first)".into())
}

/// Merges the members' matrices and derives corpus-level rules,
/// reusing cached group results where the contributor set is unchanged.
/// The refreshed rules cache is persisted for the next run.
pub fn derive_members(ctx: &CorpusCtx, members: &[Member]) -> Result<CorpusDerive> {
    let metas: Vec<TraceMeta> = members.iter().filter_map(|m| m.meta.clone()).collect();
    let meta = corpus_meta(&metas).map_err(|e| CliError::Usage(format!("corpus merge: {e}")))?;
    let traces: Vec<CorpusTrace> = members
        .iter()
        .filter_map(|m| {
            m.matrix.clone().map(|matrix| CorpusTrace {
                checksum: m.checksum,
                matrix,
            })
        })
        .collect();
    let cache_path = ctx.store.corpus_file(RULES_CACHE_FILE);
    let keys = [ctx.derive_fp, ctx.filter_fp];
    let prev = ctx
        .read_json_cache(&cache_path, RULES_MAGIC, &keys)
        .and_then(|v| CorpusRulesCache::from_json(&v).ok());
    let derived = derive_corpus(&traces, &meta, &ctx.config, ctx.filter_fp, 1, prev.as_ref());
    ctx.write_json_cache(&cache_path, RULES_MAGIC, &keys, &derived.cache.to_json());
    Ok(derived)
}

/// How many of `verdicts` are healthy, degraded and unreadable.
pub(crate) fn health_counts(verdicts: impl IntoIterator<Item = Health>) -> (usize, usize, usize) {
    let mut counts = (0, 0, 0);
    for h in verdicts {
        match h {
            Health::Healthy => counts.0 += 1,
            Health::Degraded => counts.1 += 1,
            Health::Unreadable => counts.2 += 1,
        }
    }
    counts
}

/// One-line health summary of a corpus (or `doctor` directory) with
/// these verdicts.
pub(crate) fn corpus_summary(verdicts: impl IntoIterator<Item = Health>) -> String {
    let (h, d, u) = health_counts(verdicts);
    format!(
        "corpus: {} trace(s) — {h} healthy, {d} degraded, {u} unreadable",
        h + d + u
    )
}

fn member_json(m: &Member) -> Json {
    let mut pairs = vec![
        ("name", Json::Str(m.name.clone())),
        ("checksum", Json::Str(format!("{:016x}", m.checksum))),
        ("health", Json::Str(m.health.name().to_owned())),
        ("events", Json::U64(m.events)),
        ("quarantined", Json::U64(m.quarantined)),
        ("cached", Json::Bool(m.cached)),
    ];
    if let Some(e) = &m.error {
        pairs.push(("error", Json::Str(e.clone())));
    }
    Json::obj(pairs)
}

fn build_report(ctx: &CorpusCtx, args: &Args, prefix: String) -> Result<String> {
    let members = load_corpus(ctx, true)?;
    if members.iter().all(|m| m.matrix.is_none()) {
        return Err(no_analyzable_traces());
    }
    let derived = derive_members(ctx, &members)?;
    if args.has("json") {
        let v = Json::obj(vec![
            (
                "members",
                Json::Arr(members.iter().map(member_json).collect()),
            ),
            ("groups_total", Json::U64(derived.groups_total as u64)),
            ("groups_reused", Json::U64(derived.groups_reused as u64)),
            ("rules", derived.rules.to_json()),
        ]);
        return Ok(v.pretty());
    }
    let cached = members.iter().filter(|m| m.cached).count();
    let mut out = prefix;
    out.push_str(&corpus_summary(members.iter().map(|m| m.health)));
    out.push('\n');
    out.push_str(&format!(
        "matrices: {cached} cached, {} rebuilt\n",
        members.len() - cached
    ));
    out.push_str(&format!(
        "groups: {} total, {} reused, {} re-derived\n",
        derived.groups_total,
        derived.groups_reused,
        derived.groups_total - derived.groups_reused
    ));
    out.push_str(&render_rules_text(&derived.rules, args.has("rulespec")));
    Ok(out)
}

fn status_report(ctx: &CorpusCtx, args: &Args) -> Result<String> {
    let members = load_corpus(ctx, false)?;
    if args.has("json") {
        let (h, d, u) = health_counts(members.iter().map(|m| m.health));
        let v = Json::obj(vec![
            (
                "members",
                Json::Arr(members.iter().map(member_json).collect()),
            ),
            ("healthy", Json::U64(h as u64)),
            ("degraded", Json::U64(d as u64)),
            ("unreadable", Json::U64(u as u64)),
            ("cache_write_errors", Json::U64(ctx.cache_write_errors())),
        ]);
        return Ok(v.pretty());
    }
    let mut out = String::new();
    for m in &members {
        out.push_str(&render_triage_line(
            &m.name,
            m.health,
            m.events,
            m.quarantined,
            m.error.as_deref(),
        ));
    }
    out.push_str(&corpus_summary(members.iter().map(|m| m.health)));
    out.push('\n');
    out.push_str(&format!(
        "cache write errors: {}\n",
        ctx.cache_write_errors()
    ));
    Ok(out)
}

/// One `name: VERDICT — detail` triage line (shared with `doctor DIR`).
pub(crate) fn render_triage_line(
    name: &str,
    health: Health,
    events: u64,
    quarantined: u64,
    error: Option<&str>,
) -> String {
    match health {
        Health::Unreadable => format!(
            "{name}: UNREADABLE — {}\n",
            error.unwrap_or("undecodable header")
        ),
        h => format!(
            "{name}: {} — {events} events, {quarantined} quarantined\n",
            h.name().to_uppercase()
        ),
    }
}

fn export_report(ctx: &CorpusCtx, args: &Args) -> Result<String> {
    let out_path = args
        .get("out")
        .ok_or_else(|| CliError::Usage("--out FILE is required".into()))?;
    let (merged, parts, _) = merged_trace(ctx)?;
    let mut out = io::BufWriter::new(fs::File::create(out_path)?);
    write_trace(&merged, &mut out)?;
    let bytes = out
        .into_inner()
        .map_err(io::IntoInnerError::into_error)?
        .stream_position()?;
    Ok(format!(
        "wrote {out_path}: {} events merged from {parts} trace(s), {bytes} bytes\n",
        merged.events.len()
    ))
}

/// `lockdoc corpus`: build | add FILE.. | drop NAME.. | status | export.
pub fn cmd_corpus(args: &Args) -> Result<String> {
    let sub = args.positional.first().map(String::as_str).ok_or_else(|| {
        CliError::Usage(
            "corpus needs a subcommand: build | add FILE.. | drop NAME.. | status | export".into(),
        )
    })?;
    let ctx = CorpusCtx::from_args(args)?;
    match sub {
        "build" => build_report(&ctx, args, String::new()),
        "add" => {
            let files = &args.positional[1..];
            if files.is_empty() {
                return Err(CliError::Usage(
                    "corpus add needs at least one TRACE file".into(),
                ));
            }
            let mut prefix = String::new();
            for f in files {
                let name = ctx.store.add(Path::new(f))?;
                prefix.push_str(&format!("added {name}\n"));
            }
            build_report(&ctx, args, prefix)
        }
        "drop" => {
            let names = &args.positional[1..];
            if names.is_empty() {
                return Err(CliError::Usage(
                    "corpus drop needs at least one member NAME".into(),
                ));
            }
            let mut prefix = String::new();
            for n in names {
                ctx.store.drop_trace(n)?;
                prefix.push_str(&format!("dropped {n}\n"));
            }
            build_report(&ctx, args, prefix)
        }
        "status" => status_report(&ctx, args),
        "export" => export_report(&ctx, args),
        other => Err(CliError::Usage(format!(
            "unknown corpus subcommand `{other}` (expected build | add | drop | status | export)"
        ))),
    }
}

/// `lockdoc fsck`: check — and with `--repair` restore — the corpus
/// store's crash-consistency invariants (see
/// [`lockdoc_trace::corpus::fsck`] for the recovery state machine).
pub fn cmd_fsck(args: &Args) -> Result<String> {
    let ctx = CorpusCtx::from_args(args)?;
    let opts = FsckOptions {
        repair: args.has("repair"),
        gc: args.has("gc"),
    };
    let report = store_fsck(&ctx.store, opts)?;
    if args.has("json") {
        let v = Json::obj(vec![
            (
                "journal",
                match &report.journal_action {
                    Some(a) => Json::Str(a.clone()),
                    None => Json::Null,
                },
            ),
            (
                "stray_tmp",
                Json::Arr(
                    report
                        .stray_tmp
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "quarantined",
                Json::Arr(
                    report
                        .quarantined
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            (
                "orphaned",
                Json::Arr(
                    report
                        .orphaned
                        .iter()
                        .map(|s| Json::Str(s.clone()))
                        .collect(),
                ),
            ),
            ("healthy", Json::U64(report.members.0 as u64)),
            ("degraded", Json::U64(report.members.1 as u64)),
            ("repaired", Json::Bool(report.repaired)),
            ("clean", Json::Bool(report.is_clean())),
        ]);
        return Ok(v.pretty());
    }
    let mut out = String::new();
    match &report.journal_action {
        Some(action) => out.push_str(&format!("journal: {action}\n")),
        None => out.push_str("journal: clean\n"),
    }
    let verb = if report.repaired { "removed" } else { "found" };
    if !report.stray_tmp.is_empty() {
        out.push_str(&format!(
            "stray temporaries: {} {verb} ({})\n",
            report.stray_tmp.len(),
            report.stray_tmp.join(", ")
        ));
    }
    for name in &report.quarantined {
        out.push_str(&format!(
            "{name}: UNREADABLE — {}\n",
            if report.repaired {
                "moved to .quarantine/"
            } else {
                "would quarantine (run with --repair)"
            }
        ));
    }
    if !report.orphaned.is_empty() {
        out.push_str(&format!(
            "orphaned artifacts: {} {verb}\n",
            report.orphaned.len()
        ));
    }
    out.push_str(&format!(
        "members: {} healthy, {} degraded\n",
        report.members.0, report.members.1
    ));
    if report.is_clean() {
        out.push_str("fsck: clean\n");
    } else if report.repaired {
        out.push_str("fsck: repaired\n");
    } else {
        out.push_str("fsck: issues found (re-run with --repair)\n");
    }
    Ok(out)
}
