//! Corpus store: a directory of `.ldoc` traces managed as one analysis
//! unit.
//!
//! The store owns two directories — the corpus directory holding the
//! trace containers, and a cache directory for derived artifacts
//! (columnar import archives, observation-matrix files, the corpus rules
//! cache). Corpus membership *is* the directory listing: `add` copies a
//! container in, `drop_trace` removes one, and every scan sees the
//! members in sorted name order, so the corpus order — which downstream
//! fingerprints and merges depend on — is a pure function of the
//! directory contents.
//!
//! Every member is screened on load in one streaming pass ([`screen`]:
//! salvage decoding fed straight into the importer's quarantine checks,
//! [`crate::db::ingest`]), which also imports the kept events when the
//! caller needs the store and collects them when it needs the trace:
//! - [`Health::Healthy`] — container and event stream are pristine;
//! - [`Health::Degraded`] — damage was salvaged and/or events were
//!   quarantined; what the pass builds is *sanitized* (quarantined events
//!   removed), so every later consumer — per-trace analysis and corpus
//!   merge alike — sees the identical event stream;
//! - [`Health::Unreadable`] — the container header is beyond salvage;
//!   nothing is built and the member is excluded from analysis.
//!
//! # Crash consistency
//!
//! All store mutations go through a [`lockdoc_platform::vfs::Vfs`]
//! handle, installing members with the atomic durable-write protocol
//! (temp file → fsync → rename → parent-directory fsync). `add` and
//! `drop_trace` additionally write a one-record **intent journal**
//! (`corpus.journal`, itself installed atomically) *before* touching the
//! member namespace and clear it after, so an interrupted operation is
//! always recoverable: [`fsck`] reads the journal, decides from the
//! on-disk evidence whether the operation completed (the destination
//! exists with the journaled content checksum), and rolls it forward or
//! back. [`fsck`] also sweeps stray atomic-write temporaries, quarantines
//! members whose containers are beyond salvage, and — under
//! [`FsckOptions::gc`] — removes cache artifacts orphaned by replaced or
//! dropped members. Every repair action is idempotent, so a crash during
//! fsck itself is recovered by running fsck again.

use crate::codec::{CodecError, SalvageReport, TraceReader};
use crate::db::{ingest, ImportPolicy, ImportReport, IngestOptions, Ingested};
use crate::event::Trace;
use crate::filter::FilterConfig;
use lockdoc_platform::hash::{checksum, fnv1a};
use lockdoc_platform::json::{parse as json_parse, Json};
use lockdoc_platform::vfs::{is_tmp_path, tmp_path, Vfs};
use std::io::{self, Read};
use std::path::{Path, PathBuf};

/// Screening verdict for one corpus member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Container and event stream decoded and imported without a single
    /// complaint.
    Healthy,
    /// Some damage was worked around (salvaged decode errors and/or
    /// quarantined events); the sanitized remainder is usable.
    Degraded,
    /// The container header is unusable; the member carries no trace.
    Unreadable,
}

impl Health {
    /// Stable lower-case label (used in reports and JSON).
    pub fn name(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Unreadable => "unreadable",
        }
    }

    /// The verdict on a readable container with these reports.
    pub fn of(salvage: &SalvageReport, report: &ImportReport) -> Self {
        if salvage.is_clean() && report.is_clean() {
            Health::Healthy
        } else {
            Health::Degraded
        }
    }
}

impl std::fmt::Display for Health {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything the screening pass learned about one member.
#[derive(Debug, Clone)]
pub struct ScreenReport {
    /// Overall verdict.
    pub health: Health,
    /// Container-level salvage report (absent when unreadable).
    pub salvage: Option<SalvageReport>,
    /// Event-level quarantine report (absent when unreadable).
    pub import: Option<ImportReport>,
    /// Decode error for unreadable members.
    pub error: Option<String>,
}

impl ScreenReport {
    /// The report on a screening outcome, and the sanitized trace when the
    /// pass collected one.
    fn of(screened: Result<Ingested, CodecError>) -> (Option<Trace>, Self) {
        match screened {
            Ok(ing) => (
                ing.trace,
                ScreenReport {
                    health: Health::of(&ing.salvage, &ing.report),
                    salvage: Some(ing.salvage),
                    import: Some(ing.report),
                    error: None,
                },
            ),
            Err(e) => (
                None,
                ScreenReport {
                    health: Health::Unreadable,
                    salvage: None,
                    import: None,
                    error: Some(e.to_string()),
                },
            ),
        }
    }
}

/// One screened corpus member.
#[derive(Debug, Clone)]
pub struct LoadedTrace {
    /// Member name (the container's file name).
    pub name: String,
    /// [`member_key`] of the container's raw bytes — the key all derived
    /// artifacts of this member are bound to.
    pub checksum: u64,
    /// The screening detail.
    pub screen: ScreenReport,
}

/// The content key of a member container: the key every per-member
/// artifact's file name and frame carry. [`CorpusStore::load`] (and so
/// [`fsck`]'s gc) and every loader that names artifacts must use this
/// one function, or gc would delete live cache files as orphans.
pub fn member_key(container: &[u8]) -> u64 {
    checksum(container)
}

/// Screens one container read from `src` in a single streaming pass:
/// salvage decoding straight into the lenient quarantine checks, with no
/// verdict — screening reports damage, it never refuses over it.
/// `tables` also imports the kept events under `filter`, and
/// `keep_events` also collects them as the sanitized trace; with neither
/// the importer keeps only the replay state the checks read. `Err` means
/// the member is unreadable: its header is beyond salvage, or `src`
/// failed to read.
pub fn screen<R: Read>(
    src: R,
    filter: &FilterConfig,
    tables: bool,
    keep_events: bool,
) -> Result<Ingested, CodecError> {
    let opts = IngestOptions {
        policy: ImportPolicy::Lenient,
        tables,
        keep_events,
    };
    ingest(TraceReader::new(src)?, filter, opts)
}

/// Screens one container held in memory and returns the sanitized trace
/// (quarantined events removed, so all downstream consumers agree on the
/// event stream) with the report: [`screen`] collecting the kept events.
/// Nothing is imported, so `_filter` and `_jobs` are unused; they stay so
/// existing callers keep compiling.
pub fn screen_trace(
    bytes: &[u8],
    _filter: &FilterConfig,
    _jobs: usize,
) -> (Option<Trace>, ScreenReport) {
    ScreenReport::of(screen(bytes, &FilterConfig::default(), false, true))
}

/// File name of the intent journal inside the corpus directory.
pub const JOURNAL_FILE: &str = "corpus.journal";

/// Directory (inside the corpus directory) where fsck quarantines
/// unreadable members.
pub const QUARANTINE_DIR: &str = ".quarantine";

/// A corpus directory plus its artifact cache directory.
#[derive(Debug, Clone)]
pub struct CorpusStore {
    dir: PathBuf,
    cache_dir: PathBuf,
    vfs: Vfs,
}

impl CorpusStore {
    /// Opens (creating if needed) a corpus at `dir` with derived
    /// artifacts under `cache_dir`, on the real filesystem (honoring the
    /// `LOCKDOC_CRASH_POINT` crash fuse — see
    /// [`lockdoc_platform::vfs::Vfs::real_from_env`]).
    pub fn open(dir: &Path, cache_dir: &Path) -> io::Result<Self> {
        Self::open_on(Vfs::real_from_env(), dir, cache_dir)
    }

    /// Opens a corpus on an explicit filesystem handle — the entry point
    /// for crash-injection tests running against an in-memory [`Vfs`].
    pub fn open_on(vfs: Vfs, dir: &Path, cache_dir: &Path) -> io::Result<Self> {
        vfs.create_dir_all(dir)?;
        vfs.create_dir_all(cache_dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            cache_dir: cache_dir.to_path_buf(),
            vfs,
        })
    }

    /// The filesystem handle all store (and caller cache) I/O must use.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The artifact cache directory.
    pub fn cache_dir(&self) -> &Path {
        &self.cache_dir
    }

    /// Member names — all `*.ldoc` file names in the corpus directory —
    /// in sorted order. This order is the corpus order everywhere
    /// (merging, fingerprints, reports).
    pub fn trace_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for path in self.vfs.read_dir(&self.dir)? {
            if path.extension().and_then(|e| e.to_str()) == Some("ldoc") {
                if let Some(name) = path.file_name().and_then(|n| n.to_str()) {
                    names.push(name.to_owned());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Path of a member container.
    pub fn trace_path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Path of a derived artifact for a member, keyed by the member's
    /// *content* checksum: replacing a trace changes the key, so stale
    /// artifacts are never even opened (they are merely orphaned).
    pub fn artifact_path(&self, name: &str, checksum: u64, ext: &str) -> PathBuf {
        self.cache_dir.join(format!("{name}.{checksum:016x}.{ext}"))
    }

    /// Path of a corpus-wide (not per-member) cache file.
    pub fn corpus_file(&self, file_name: &str) -> PathBuf {
        self.cache_dir.join(file_name)
    }

    /// Path of the intent journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join(JOURNAL_FILE)
    }

    /// Writes the intent journal (atomically — the journal itself must
    /// never be torn).
    fn journal_begin(&self, record: &JournalRecord) -> io::Result<()> {
        self.vfs
            .atomic_write(&self.journal_path(), record.render().as_bytes())
    }

    /// Durably clears the intent journal after the operation's final
    /// fsync, committing it.
    fn journal_clear(&self) -> io::Result<()> {
        self.vfs.remove_file(&self.journal_path())?;
        self.vfs.fsync_dir(&self.dir)
    }

    /// Copies a container into the corpus under its own file name,
    /// returning the member name. Refuses to overwrite an existing
    /// member (drop it first) so a corpus cannot change silently.
    ///
    /// The install is crash-safe: an intent journal is committed first,
    /// then the member lands via temp file → fsync → rename →
    /// directory fsync, then the journal is cleared. A crash anywhere
    /// leaves evidence [`fsck`] resolves to exactly the pre-add or
    /// post-add corpus.
    pub fn add(&self, src: &Path) -> io::Result<String> {
        let name = src
            .file_name()
            .and_then(|n| n.to_str())
            .filter(|n| n.ends_with(".ldoc"))
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("not a .ldoc container: {}", src.display()),
                )
            })?
            .to_owned();
        let dst = self.trace_path(&name);
        if self.vfs.exists(&dst) {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!("corpus already contains `{name}`; drop it first"),
            ));
        }
        let bytes = self.vfs.read(src)?;
        self.journal_begin(&JournalRecord {
            op: JournalOp::Add,
            name: name.clone(),
            checksum: fnv1a(&bytes),
            len: bytes.len() as u64,
        })?;
        let tmp = tmp_path(&dst);
        self.vfs.write(&tmp, &bytes)?;
        self.vfs.fsync_file(&tmp)?;
        self.vfs.rename(&tmp, &dst)?;
        self.vfs.fsync_dir(&self.dir)?;
        self.journal_clear()?;
        Ok(name)
    }

    /// Removes a member container from the corpus, journaled the same
    /// way as [`CorpusStore::add`].
    pub fn drop_trace(&self, name: &str) -> io::Result<()> {
        let path = self.trace_path(name);
        if !self.vfs.exists(&path) {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such corpus member: `{name}`"),
            ));
        }
        self.journal_begin(&JournalRecord {
            op: JournalOp::Drop,
            name: name.to_owned(),
            checksum: 0,
            len: 0,
        })?;
        self.vfs.remove_file(&path)?;
        self.vfs.fsync_dir(&self.dir)?;
        self.journal_clear()
    }

    /// Reads and screens one member, building nothing but the report.
    pub fn load(&self, name: &str) -> io::Result<LoadedTrace> {
        let bytes = self.vfs.read(&self.trace_path(name))?;
        let screened = screen(bytes.as_slice(), &FilterConfig::default(), false, false);
        Ok(LoadedTrace {
            name: name.to_owned(),
            checksum: member_key(&bytes),
            screen: ScreenReport::of(screened).1,
        })
    }
}

/// The journaled operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// A member install in flight.
    Add,
    /// A member removal in flight.
    Drop,
}

/// One intent-journal record (the journal holds at most one).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalRecord {
    /// What was in flight.
    pub op: JournalOp,
    /// The member being added or dropped.
    pub name: String,
    /// FNV-1a of the member being installed (adds only) — the
    /// completion witness fsck checks the destination against. It is
    /// FNV-1a, not [`member_key`], because an add interrupted under an
    /// older build must still roll forward, not be removed as torn.
    pub checksum: u64,
    /// Content length of the member being installed (adds only).
    pub len: u64,
}

impl JournalRecord {
    fn render(&self) -> String {
        Json::obj(vec![
            (
                "op",
                Json::Str(match self.op {
                    JournalOp::Add => "add".into(),
                    JournalOp::Drop => "drop".into(),
                }),
            ),
            ("name", Json::Str(self.name.clone())),
            ("checksum", Json::Str(format!("{:016x}", self.checksum))),
            ("len", Json::U64(self.len)),
        ])
        .compact()
    }

    /// Parses a journal file; `None` when the journal is unreadable or
    /// malformed (fsck then discards it — the journal is written
    /// atomically, so a malformed one never describes a live operation).
    pub fn parse(bytes: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(bytes).ok()?;
        let v = json_parse(text).ok()?;
        let op = match v.get("op")?.as_str()? {
            "add" => JournalOp::Add,
            "drop" => JournalOp::Drop,
            _ => return None,
        };
        let name = v.get("name")?.as_str()?.to_owned();
        if !name.ends_with(".ldoc") {
            return None;
        }
        let checksum = u64::from_str_radix(v.get("checksum")?.as_str()?, 16).ok()?;
        let len = v.get("len")?.as_u64()?;
        Some(Self {
            op,
            name,
            checksum,
            len,
        })
    }
}

/// What [`fsck`] may change.
#[derive(Debug, Clone, Copy, Default)]
pub struct FsckOptions {
    /// Apply repairs (journal recovery, temp sweep, quarantine). Without
    /// this, fsck only reports what it *would* do.
    pub repair: bool,
    /// Also garbage-collect cache artifacts orphaned by replaced or
    /// dropped members (requires `repair` to actually delete).
    pub gc: bool,
}

/// What [`fsck`] found (and, under [`FsckOptions::repair`], did).
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Human-readable description of the journal recovery action, if an
    /// interrupted operation was found.
    pub journal_action: Option<String>,
    /// Stray atomic-write temporaries found (removed under repair).
    pub stray_tmp: Vec<String>,
    /// Members screened beyond salvage (moved to the quarantine
    /// directory under repair).
    pub quarantined: Vec<String>,
    /// Cache artifacts not matching any live member (removed under
    /// repair + gc).
    pub orphaned: Vec<String>,
    /// Members screened, by health: (healthy, degraded).
    pub members: (usize, usize),
    /// Whether the actions above were applied (i.e. `repair` was set).
    pub repaired: bool,
}

impl FsckReport {
    /// True when fsck found nothing to do.
    pub fn is_clean(&self) -> bool {
        self.journal_action.is_none()
            && self.stray_tmp.is_empty()
            && self.quarantined.is_empty()
            && self.orphaned.is_empty()
    }
}

/// Checks — and under [`FsckOptions::repair`] restores — the store's
/// crash-consistency invariants. The recovery state machine:
///
/// 1. **Journal recovery.** A present journal means an `add`/`drop` was
///    interrupted. For an add: if the destination exists with the
///    journaled checksum the operation completed — roll *forward* (clear
///    the journal); if the destination is absent it did not — roll
///    *back* (discard the temp, clear the journal); a destination with
///    the wrong checksum (impossible under the fsync ordering, kept as
///    defense in depth) is removed with the journal. For a drop: the
///    intent is authoritative — roll forward by removing the member if
///    it still exists. A malformed journal is discarded.
/// 2. **Temp sweep.** Stray `*.tmp` atomic-write leftovers in the corpus
///    and cache directories are removed.
/// 3. **Screening.** Every member is screened; unreadable ones are moved
///    into `.quarantine/` so they stop shadowing the member namespace
///    (the salvage path already keeps degraded members usable).
/// 4. **GC** (opt-in). Per-member cache artifacts
///    (`<name>.<checksum>.<ext>`) whose (name, checksum) no longer
///    matches a live member are removed; non-member-keyed cache files
///    (e.g. the rules cache, whose frame keys validate it) are kept.
///
/// Every step is idempotent and ordered so that a crash *during* fsck is
/// itself recovered by running fsck again.
pub fn fsck(store: &CorpusStore, opts: FsckOptions) -> io::Result<FsckReport> {
    let vfs = store.vfs().clone();
    let mut report = FsckReport {
        repaired: opts.repair,
        ..FsckReport::default()
    };

    // 1. Journal recovery.
    let jpath = store.journal_path();
    if vfs.exists(&jpath) {
        let record = JournalRecord::parse(&vfs.read(&jpath)?);
        let action = match &record {
            Some(r) if r.op == JournalOp::Add => {
                let dst = store.trace_path(&r.name);
                match vfs.read(&dst) {
                    Ok(bytes) if fnv1a(&bytes) == r.checksum && bytes.len() as u64 == r.len => {
                        format!("rolled forward interrupted add of `{}`", r.name)
                    }
                    Ok(_) => {
                        if opts.repair {
                            vfs.remove_file(&dst)?;
                        }
                        format!("rolled back torn add of `{}` (checksum mismatch)", r.name)
                    }
                    Err(_) => format!("rolled back interrupted add of `{}`", r.name),
                }
            }
            Some(r) => {
                let dst = store.trace_path(&r.name);
                if vfs.exists(&dst) {
                    if opts.repair {
                        vfs.remove_file(&dst)?;
                    }
                    format!("rolled forward interrupted drop of `{}`", r.name)
                } else {
                    format!("completed interrupted drop of `{}`", r.name)
                }
            }
            None => "discarded malformed journal".to_owned(),
        };
        if opts.repair {
            vfs.fsync_dir(store.dir())?;
            vfs.remove_file(&jpath)?;
            vfs.fsync_dir(store.dir())?;
        }
        report.journal_action = Some(action);
    }

    // 2. Stray atomic-write temporaries.
    for dir in [store.dir(), store.cache_dir()] {
        for path in vfs.read_dir(dir)? {
            if is_tmp_path(&path) {
                report.stray_tmp.push(
                    path.file_name()
                        .unwrap_or_default()
                        .to_string_lossy()
                        .into(),
                );
                if opts.repair {
                    vfs.remove_file(&path)?;
                }
            }
        }
    }

    // 3. Screen members; quarantine the unreadable.
    let mut live: Vec<(String, u64)> = Vec::new();
    for name in store.trace_names()? {
        let loaded = store.load(&name)?;
        match loaded.screen.health {
            Health::Unreadable => {
                report.quarantined.push(name.clone());
                if opts.repair {
                    let qdir = store.dir().join(QUARANTINE_DIR);
                    vfs.create_dir_all(&qdir)?;
                    vfs.rename(&store.trace_path(&name), &qdir.join(&name))?;
                    vfs.fsync_dir(store.dir())?;
                    vfs.fsync_dir(&qdir)?;
                }
            }
            Health::Healthy => {
                report.members.0 += 1;
                live.push((name, loaded.checksum));
            }
            Health::Degraded => {
                report.members.1 += 1;
                live.push((name, loaded.checksum));
            }
        }
    }

    // 4. Orphaned per-member cache artifacts.
    if opts.gc {
        for path in vfs.read_dir(store.cache_dir())? {
            let Some(file) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some((name, checksum)) = parse_artifact_name(file) else {
                continue; // corpus-wide cache files are not member-keyed
            };
            if !live.iter().any(|(n, c)| *n == name && *c == checksum) {
                report.orphaned.push(file.to_owned());
                if opts.repair {
                    vfs.remove_file(&path)?;
                }
            }
        }
    }

    Ok(report)
}

/// Splits a per-member artifact file name `<member>.ldoc.<checksum:016x>.<ext>`,
/// where `<ext>` may itself contain dots (`screen.json`), into its member
/// name and checksum; `None` for any other shape.
fn parse_artifact_name(file: &str) -> Option<(String, u64)> {
    file.rmatch_indices(".ldoc.").find_map(|(i, _)| {
        let (name, rest) = file.split_at(i + ".ldoc".len());
        let (hex, _ext) = rest[1..].split_once('.')?;
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        Some((name.to_owned(), u64::from_str_radix(hex, 16).ok()?))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::write_trace;
    use crate::event::{AccessKind, DataTypeDef, Event, MemberDef, SourceLoc};
    use crate::ids::AllocId;
    use std::fs;

    fn toy_trace() -> Trace {
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("t.c");
        let dt = tr.meta_mut().add_data_type(DataTypeDef {
            name: "obj".into(),
            size: 8,
            members: vec![MemberDef {
                name: "val".into(),
                offset: 0,
                size: 8,
                atomic: false,
                is_lock: false,
            }],
        });
        let t = tr.meta_mut().add_task("w");
        tr.push(1, Event::TaskSwitch { task: t });
        tr.push(
            2,
            Event::Alloc {
                id: AllocId(1),
                addr: 0x1000,
                size: 8,
                data_type: dt,
                subclass: None,
            },
        );
        tr.push(
            3,
            Event::MemAccess {
                kind: AccessKind::Write,
                addr: 0x1000,
                size: 8,
                loc: SourceLoc::new(file, 1),
                atomic: false,
            },
        );
        tr.push(4, Event::Free { id: AllocId(1) });
        tr
    }

    fn container() -> Vec<u8> {
        let mut buf = Vec::new();
        write_trace(&toy_trace(), &mut buf).unwrap();
        buf
    }

    #[test]
    fn store_add_list_drop_round_trip() {
        let base = std::env::temp_dir().join("lockdoc-corpus-store-test");
        fs::remove_dir_all(&base).ok();
        let store = CorpusStore::open(&base.join("corpus"), &base.join("cache")).unwrap();
        let src = base.join("b.ldoc");
        fs::write(&src, container()).unwrap();
        let src2 = base.join("a.ldoc");
        fs::write(&src2, container()).unwrap();

        assert_eq!(store.add(&src).unwrap(), "b.ldoc");
        assert_eq!(store.add(&src2).unwrap(), "a.ldoc");
        // Sorted corpus order, independent of add order.
        assert_eq!(store.trace_names().unwrap(), vec!["a.ldoc", "b.ldoc"]);
        // Double-add is refused, not silently overwritten.
        assert!(store.add(&src).is_err());
        // Non-.ldoc sources are refused.
        let other = base.join("x.bin");
        fs::write(&other, b"junk").unwrap();
        assert!(store.add(&other).is_err());

        store.drop_trace("b.ldoc").unwrap();
        assert_eq!(store.trace_names().unwrap(), vec!["a.ldoc"]);
        assert!(store.drop_trace("b.ldoc").is_err());

        // Artifact paths are keyed by name and content checksum.
        let p = store.artifact_path("a.ldoc", 0xabcd, "ldmtx");
        assert!(p
            .to_str()
            .unwrap()
            .ends_with("a.ldoc.000000000000abcd.ldmtx"));
        fs::remove_dir_all(&base).ok();
    }

    /// A store on a fresh in-memory filesystem with the given members
    /// already installed (via the journaled add path).
    fn mem_store(members: &[&str]) -> CorpusStore {
        let vfs = Vfs::mem();
        vfs.create_dir_all(Path::new("/in")).unwrap();
        let store =
            CorpusStore::open_on(vfs.clone(), Path::new("/corpus"), Path::new("/cache")).unwrap();
        for name in members {
            let src = Path::new("/in").join(name);
            vfs.write(&src, &container()).unwrap();
            store.add(&src).unwrap();
        }
        store
    }

    #[test]
    fn fsck_rolls_interrupted_adds_forward_and_back() {
        let opts = FsckOptions {
            repair: true,
            gc: false,
        };

        // Completed add, journal not yet cleared -> roll forward.
        let store = mem_store(&["a.ldoc"]);
        let rec = JournalRecord {
            op: JournalOp::Add,
            name: "a.ldoc".into(),
            checksum: fnv1a(&container()),
            len: container().len() as u64,
        };
        store
            .vfs()
            .atomic_write(&store.journal_path(), rec.render().as_bytes())
            .unwrap();
        let report = fsck(&store, opts).unwrap();
        assert!(report.journal_action.unwrap().contains("rolled forward"));
        assert_eq!(store.trace_names().unwrap(), vec!["a.ldoc"]);

        // Destination never landed -> roll back (journal + stray tmp go).
        let store = mem_store(&[]);
        let rec = JournalRecord {
            op: JournalOp::Add,
            name: "b.ldoc".into(),
            checksum: 1,
            len: 1,
        };
        store
            .vfs()
            .atomic_write(&store.journal_path(), rec.render().as_bytes())
            .unwrap();
        store
            .vfs()
            .write(&tmp_path(&store.trace_path("b.ldoc")), b"partial")
            .unwrap();
        let report = fsck(&store, opts).unwrap();
        assert!(report.journal_action.unwrap().contains("rolled back"));
        assert_eq!(report.stray_tmp, vec!["b.ldoc.tmp"]);
        assert!(store.trace_names().unwrap().is_empty());

        // Destination present with the WRONG checksum -> defensive removal.
        let store = mem_store(&["c.ldoc"]);
        let rec = JournalRecord {
            op: JournalOp::Add,
            name: "c.ldoc".into(),
            checksum: 0xdead,
            len: 4,
        };
        store
            .vfs()
            .atomic_write(&store.journal_path(), rec.render().as_bytes())
            .unwrap();
        let report = fsck(&store, opts).unwrap();
        assert!(report.journal_action.unwrap().contains("torn add"));
        assert!(store.trace_names().unwrap().is_empty());

        // Interrupted drop -> the intent wins; the member is removed.
        let store = mem_store(&["d.ldoc"]);
        let rec = JournalRecord {
            op: JournalOp::Drop,
            name: "d.ldoc".into(),
            checksum: 0,
            len: 0,
        };
        store
            .vfs()
            .atomic_write(&store.journal_path(), rec.render().as_bytes())
            .unwrap();
        let report = fsck(&store, opts).unwrap();
        assert!(report.journal_action.unwrap().contains("drop"));
        assert!(store.trace_names().unwrap().is_empty());

        // Malformed journal -> discarded; fsck is then clean (idempotent).
        let store = mem_store(&["e.ldoc"]);
        store
            .vfs()
            .atomic_write(&store.journal_path(), b"{ not json")
            .unwrap();
        let report = fsck(&store, opts).unwrap();
        assert_eq!(
            report.journal_action.as_deref(),
            Some("discarded malformed journal")
        );
        let again = fsck(&store, opts).unwrap();
        assert!(again.is_clean(), "fsck not idempotent: {again:?}");
        assert_eq!(again.members, (1, 0));
    }

    #[test]
    fn fsck_quarantines_unreadable_and_gcs_orphans() {
        let store = mem_store(&["a.ldoc"]);
        let vfs = store.vfs().clone();

        // An unreadable member (garbage container) and three cache files:
        // a live artifact, an orphaned artifact, and the rules cache.
        vfs.write(&store.trace_path("junk.ldoc"), b"not a trace")
            .unwrap();
        let live_sum = member_key(&container());
        vfs.write(&store.artifact_path("a.ldoc", live_sum, "ldmtx"), b"live")
            .unwrap();
        vfs.write(&store.artifact_path("a.ldoc", 0x1234, "ldmtx"), b"stale")
            .unwrap();
        vfs.write(
            &store.artifact_path("a.ldoc", 0x1234, "screen.json"),
            b"stale",
        )
        .unwrap();
        vfs.write(&store.corpus_file("corpus.rules.json"), b"{}")
            .unwrap();

        // Dry run reports but changes nothing.
        let dry = fsck(
            &store,
            FsckOptions {
                repair: false,
                gc: true,
            },
        )
        .unwrap();
        assert_eq!(dry.quarantined, vec!["junk.ldoc"]);
        assert_eq!(dry.orphaned.len(), 2);
        assert!(!dry.repaired);
        assert_eq!(store.trace_names().unwrap().len(), 2);

        let report = fsck(
            &store,
            FsckOptions {
                repair: true,
                gc: true,
            },
        )
        .unwrap();
        assert_eq!(report.quarantined, vec!["junk.ldoc"]);
        assert_eq!(report.orphaned.len(), 2);
        assert!(report
            .orphaned
            .iter()
            .all(|o| o.contains("0000000000001234")));
        assert_eq!(store.trace_names().unwrap(), vec!["a.ldoc"]);
        assert!(vfs.exists(&store.dir().join(QUARANTINE_DIR).join("junk.ldoc")));
        assert!(vfs.exists(&store.artifact_path("a.ldoc", live_sum, "ldmtx")));
        assert!(!vfs.exists(&store.artifact_path("a.ldoc", 0x1234, "ldmtx")));
        assert!(!vfs.exists(&store.artifact_path("a.ldoc", 0x1234, "screen.json")));
        assert!(vfs.exists(&store.corpus_file("corpus.rules.json")));

        let again = fsck(
            &store,
            FsckOptions {
                repair: true,
                gc: true,
            },
        )
        .unwrap();
        assert!(again.is_clean(), "fsck not idempotent: {again:?}");
    }

    #[test]
    fn journal_records_round_trip_and_reject_garbage() {
        let rec = JournalRecord {
            op: JournalOp::Add,
            name: "x.ldoc".into(),
            checksum: 0xfeed_beef_dead_cafe,
            len: 42,
        };
        assert_eq!(JournalRecord::parse(rec.render().as_bytes()), Some(rec));
        let drop = JournalRecord {
            op: JournalOp::Drop,
            name: "y.ldoc".into(),
            checksum: 0,
            len: 0,
        };
        assert_eq!(JournalRecord::parse(drop.render().as_bytes()), Some(drop));
        assert_eq!(JournalRecord::parse(b"{}"), None);
        assert_eq!(JournalRecord::parse(b"\xff\xfe"), None);
        assert_eq!(
            JournalRecord::parse(br#"{"op":"add","name":"no-suffix","checksum":"0","len":0}"#),
            None
        );
    }

    #[test]
    fn artifact_names_parse_only_member_keyed_files() {
        assert_eq!(
            parse_artifact_name("a.ldoc.000000000000abcd.ldmtx"),
            Some(("a.ldoc".to_owned(), 0xabcd))
        );
        assert_eq!(
            parse_artifact_name("a.ldoc.000000000000abcd.screen.json"),
            Some(("a.ldoc".to_owned(), 0xabcd))
        );
        assert_eq!(parse_artifact_name("corpus.rules.json"), None);
        assert_eq!(parse_artifact_name("a.ldoc.xyz.ldmtx"), None);
        assert_eq!(parse_artifact_name("a.ldoc.0000000000abcd.ldmtx"), None);
    }

    #[test]
    fn screening_grades_healthy_degraded_unreadable() {
        let filter = FilterConfig::with_defaults();
        let good = container();

        let (trace, screen) = screen_trace(&good, &filter, 1);
        assert_eq!(screen.health, Health::Healthy);
        assert_eq!(trace.unwrap().events.len(), 4);

        // Clipping the tail degrades but still yields the salvaged prefix.
        let (trace, screen) = screen_trace(&good[..good.len() - 1], &filter, 1);
        assert_eq!(screen.health, Health::Degraded);
        assert!(screen.salvage.unwrap().truncated);
        assert!(trace.is_some());

        // Garbage is unreadable: no trace, a decode error instead.
        let (trace, screen) = screen_trace(b"not a trace", &filter, 1);
        assert_eq!(screen.health, Health::Unreadable);
        assert!(trace.is_none());
        assert!(screen.error.is_some());
        assert_eq!(screen.health.name(), "unreadable");
    }

    #[test]
    fn screening_sanitizes_quarantined_events() {
        // A structurally valid container whose event stream references a
        // dangling allocation id: the detector quarantines the Free, and
        // the sanitized trace must no longer contain it.
        let mut tr = toy_trace();
        tr.push(5, Event::Free { id: AllocId(99) });
        let mut buf = Vec::new();
        write_trace(&tr, &mut buf).unwrap();
        let (trace, screen) = screen_trace(&buf, &FilterConfig::with_defaults(), 1);
        assert_eq!(screen.health, Health::Degraded);
        let report = screen.import.unwrap();
        assert_eq!(report.quarantined.len(), 1);
        let trace = trace.unwrap();
        assert_eq!(trace.events.len(), 4, "quarantined event stripped");
        // Re-screening the sanitized stream is clean: sanitization is a
        // fixed point, so every consumer sees the same events.
        let mut clean = Vec::new();
        write_trace(&trace, &mut clean).unwrap();
        let (_, screen) = screen_trace(&clean, &FilterConfig::with_defaults(), 1);
        assert_eq!(screen.health, Health::Healthy);
    }
}
