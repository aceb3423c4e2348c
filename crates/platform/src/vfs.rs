//! Filesystem shim with deterministic crash injection.
//!
//! Every persistence path in the workspace that must survive a power cut
//! talks to the filesystem through a [`Vfs`] handle instead of `std::fs`
//! directly. A handle comes in two modes:
//!
//! * **real** ([`Vfs::real`]) — thin forwarding to `std::fs`, plus real
//!   `fsync` on files and (on Unix) parent directories;
//! * **in-memory** ([`Vfs::mem`]) — a deterministic fault-injecting
//!   filesystem model for tests and benches.
//!
//! # The crash model
//!
//! The in-memory mode keeps two views: the **live** view (what reads
//! observe while the process runs) and the **durable** view (what a
//! crash would leave behind). Mutations apply to the live view
//! immediately but land in a *pending* log; only an explicit
//! [`Vfs::fsync_file`] / [`Vfs::fsync_dir`] moves pending operations
//! into the durable view. Every mutating call — `write`, `rename`,
//! `remove_file`, and both fsyncs — is one numbered **injection point**.
//!
//! Arming a handle ([`Vfs::arm`]) resets the point counter and installs
//! a [`CrashPlan`]. When the counter reaches `crash_at`, the in-flight
//! operation does not execute; instead the durable state is *resolved*
//! adversarially under the plan's seed: each pending write independently
//! persists fully, as a torn prefix, or not at all; each pending rename
//! or remove independently applies or not (a rename whose source content
//! never became durable produces the classic zero-length-file hazard);
//! the in-flight operation itself gets the same treatment. This is a
//! deliberate superset of what journaling filesystems allow — code that
//! survives it relies only on fsync-enforced ordering, never on luck.
//! After the crash every call fails until [`Vfs::reboot`], which adopts
//! the resolved durable state as the new live view.
//!
//! With `crash_at: None` an armed handle merely counts injection points,
//! so a harness can first measure a schedule and then enumerate "crash
//! at point k" for every `k` — the exhaustive crash-consistency property
//! in `tests/crash.rs` is built exactly this way.
//!
//! The real mode supports one injection hook for shell-level gates: when
//! the `LOCKDOC_CRASH_POINT` environment variable is set (see
//! [`Vfs::real_from_env`]), the process exits with status 21 at the
//! given injection point, leaving whatever the operating system had
//! durably applied so far — a single real-world crash schedule that
//! `scripts/verify.sh` drives end to end.

use crate::rng::{derive_seed, Rng};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Exit status of a real-mode injected crash (`LOCKDOC_CRASH_POINT`).
pub const CRASH_EXIT_CODE: i32 = 21;

/// Suffix appended to a path to form its atomic-write temporary.
pub const TMP_SUFFIX: &str = ".tmp";

/// Crash schedule for an armed in-memory handle.
#[derive(Debug, Clone, Copy)]
pub struct CrashPlan {
    /// Injection point at which to crash; `None` only counts points.
    pub crash_at: Option<u64>,
    /// Seed for the adversarial resolution of un-fsynced state.
    pub seed: u64,
}

impl CrashPlan {
    /// A plan that counts injection points without ever crashing.
    pub fn count_only() -> Self {
        Self {
            crash_at: None,
            seed: 0,
        }
    }

    /// A plan that crashes at injection point `k`, resolving un-synced
    /// state under `seed`.
    pub fn crash_at(k: u64, seed: u64) -> Self {
        Self {
            crash_at: Some(k),
            seed,
        }
    }
}

/// One mutation applied to the live view but not yet durable.
#[derive(Debug, Clone)]
enum PendingOp {
    Write { path: PathBuf, bytes: Vec<u8> },
    Rename { from: PathBuf, to: PathBuf },
    Remove { path: PathBuf },
}

#[derive(Debug, Default)]
struct MemState {
    /// What reads see while the process lives.
    live: BTreeMap<PathBuf, Vec<u8>>,
    /// What is guaranteed to survive a crash.
    durable: BTreeMap<PathBuf, Vec<u8>>,
    /// Mutations in the live view that a crash may lose or tear.
    pending: Vec<PendingOp>,
    /// Known directories (created eagerly, treated as durable).
    dirs: BTreeSet<PathBuf>,
    plan: Option<CrashPlan>,
    points: u64,
    crashed: bool,
}

fn err_crashed() -> io::Error {
    io::Error::other("vfs crashed (reboot required)")
}

fn err_crash_point(k: u64) -> io::Error {
    io::Error::other(format!("injected crash at vfs point {k}"))
}

impl MemState {
    /// Registers one injection point. Returns an error — and resolves the
    /// crash state — when the armed plan says this point is the crash.
    /// `inflight` is the operation that would have executed here.
    fn point(&mut self, inflight: Option<PendingOp>) -> io::Result<()> {
        if self.crashed {
            return Err(err_crashed());
        }
        let k = self.points;
        self.points += 1;
        if let Some(plan) = self.plan {
            if plan.crash_at == Some(k) {
                self.resolve_crash(plan.seed, k, inflight);
                return Err(err_crash_point(k));
            }
        }
        Ok(())
    }

    /// Adversarially resolves the durable view at a crash: every pending
    /// (un-fsynced) operation independently survives, tears, or vanishes
    /// under the seeded RNG; the in-flight operation gets the same
    /// treatment. Pending order is respected so same-file sequences
    /// cannot be applied backwards.
    fn resolve_crash(&mut self, seed: u64, k: u64, inflight: Option<PendingOp>) {
        let mut rng = Rng::seed_from_u64(derive_seed(seed, k));
        let mut disk = self.durable.clone();
        let pending = std::mem::take(&mut self.pending);
        for op in pending.iter().chain(inflight.iter()) {
            match op {
                PendingOp::Write { path, bytes } => match rng.gen_range(0..3u32) {
                    0 => {} // lost entirely
                    1 => {
                        disk.insert(path.clone(), bytes.clone());
                    }
                    _ => {
                        let n = rng.gen_range(0..bytes.len() + 1);
                        disk.insert(path.clone(), bytes[..n].to_vec());
                    }
                },
                PendingOp::Rename { from, to } => {
                    if rng.gen_bool(0.5) {
                        // A rename whose source content never became
                        // durable leaves a zero-length file behind — the
                        // delayed-allocation hazard.
                        let v = disk.remove(from).unwrap_or_default();
                        disk.insert(to.clone(), v);
                    }
                }
                PendingOp::Remove { path } => {
                    if rng.gen_bool(0.5) {
                        disk.remove(path);
                    }
                }
            }
        }
        self.durable = disk;
        self.live.clear();
        self.crashed = true;
    }

    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(err_crashed())
        } else {
            Ok(())
        }
    }

    fn parent_known(&self, path: &Path) -> io::Result<()> {
        match path.parent() {
            Some(p) if p.as_os_str().is_empty() || self.dirs.contains(p) => Ok(()),
            Some(p) => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such directory: {}", p.display()),
            )),
            None => Ok(()),
        }
    }
}

/// The real-mode crash fuse (`LOCKDOC_CRASH_POINT`).
#[derive(Debug)]
struct Fuse {
    crash_at: u64,
    count: AtomicU64,
}

impl Fuse {
    fn point(&self) {
        let k = self.count.fetch_add(1, Ordering::SeqCst);
        if k == self.crash_at {
            eprintln!("lockdoc: injected crash at vfs point {k} (LOCKDOC_CRASH_POINT)");
            std::process::exit(CRASH_EXIT_CODE);
        }
    }
}

#[derive(Debug, Clone)]
enum Inner {
    Real(Option<Arc<Fuse>>),
    Mem(Arc<Mutex<MemState>>),
}

/// A cloneable filesystem handle; see the module docs for the model.
#[derive(Debug, Clone)]
pub struct Vfs {
    inner: Inner,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::real()
    }
}

impl Vfs {
    /// A handle forwarding to the real filesystem.
    pub fn real() -> Self {
        Self {
            inner: Inner::Real(None),
        }
    }

    /// A real handle that honors the `LOCKDOC_CRASH_POINT` environment
    /// variable: when set to an integer `k`, the process exits with
    /// status [`CRASH_EXIT_CODE`] at mutating operation `k` — the hook
    /// behind the verify.sh crash-recovery gate. Without the variable
    /// this is exactly [`Vfs::real`].
    pub fn real_from_env() -> Self {
        let fuse = std::env::var("LOCKDOC_CRASH_POINT")
            .ok()
            .and_then(|v| v.trim().parse::<u64>().ok())
            .map(|crash_at| {
                Arc::new(Fuse {
                    crash_at,
                    count: AtomicU64::new(0),
                })
            });
        Self {
            inner: Inner::Real(fuse),
        }
    }

    /// A fresh, empty in-memory filesystem (unarmed: no crashes, but
    /// injection points are counted from construction).
    pub fn mem() -> Self {
        Self {
            inner: Inner::Mem(Arc::new(Mutex::new(MemState::default()))),
        }
    }

    fn mem_state(&self) -> Option<&Arc<Mutex<MemState>>> {
        match &self.inner {
            Inner::Mem(m) => Some(m),
            Inner::Real(_) => None,
        }
    }

    fn lock(m: &Arc<Mutex<MemState>>) -> std::sync::MutexGuard<'_, MemState> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Installs a crash plan on an in-memory handle and resets the
    /// injection-point counter to zero. No-op on real handles.
    pub fn arm(&self, plan: CrashPlan) {
        if let Some(m) = self.mem_state() {
            let mut st = Self::lock(m);
            st.plan = Some(plan);
            st.points = 0;
        }
    }

    /// Injection points seen since the last [`Vfs::arm`] (in-memory) or
    /// since construction. Real handles without a fuse report 0.
    pub fn points(&self) -> u64 {
        match &self.inner {
            Inner::Mem(m) => Self::lock(m).points,
            Inner::Real(Some(f)) => f.count.load(Ordering::SeqCst),
            Inner::Real(None) => 0,
        }
    }

    /// True after an injected crash, until [`Vfs::reboot`].
    pub fn crashed(&self) -> bool {
        match self.mem_state() {
            Some(m) => Self::lock(m).crashed,
            None => false,
        }
    }

    /// Recovers an in-memory handle from a crash: the resolved durable
    /// state becomes the live view, the pending log is empty, and the
    /// plan is disarmed. No-op on real handles or when not crashed.
    pub fn reboot(&self) {
        if let Some(m) = self.mem_state() {
            let mut st = Self::lock(m);
            if st.crashed {
                st.live = st.durable.clone();
                st.pending.clear();
                st.crashed = false;
            }
            st.plan = None;
        }
    }

    /// Reads a whole file.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match &self.inner {
            Inner::Real(_) => std::fs::read(path),
            Inner::Mem(m) => {
                let st = Self::lock(m);
                st.check_alive()?;
                st.live.get(path).cloned().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such file: {}", path.display()),
                    )
                })
            }
        }
    }

    /// Writes a whole file (injection point; not durable until fsync).
    pub fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match &self.inner {
            Inner::Real(fuse) => {
                if let Some(f) = fuse {
                    f.point();
                }
                std::fs::write(path, bytes)
            }
            Inner::Mem(m) => {
                let mut st = Self::lock(m);
                st.check_alive()?;
                st.parent_known(path)?;
                st.point(Some(PendingOp::Write {
                    path: path.to_path_buf(),
                    bytes: bytes.to_vec(),
                }))?;
                st.live.insert(path.to_path_buf(), bytes.to_vec());
                st.pending.push(PendingOp::Write {
                    path: path.to_path_buf(),
                    bytes: bytes.to_vec(),
                });
                Ok(())
            }
        }
    }

    /// Renames a file (injection point; not durable until the parent
    /// directory is fsynced).
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match &self.inner {
            Inner::Real(fuse) => {
                if let Some(f) = fuse {
                    f.point();
                }
                std::fs::rename(from, to)
            }
            Inner::Mem(m) => {
                let mut st = Self::lock(m);
                st.check_alive()?;
                if !st.live.contains_key(from) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such file: {}", from.display()),
                    ));
                }
                st.parent_known(to)?;
                st.point(Some(PendingOp::Rename {
                    from: from.to_path_buf(),
                    to: to.to_path_buf(),
                }))?;
                let v = st.live.remove(from).expect("checked above");
                st.live.insert(to.to_path_buf(), v);
                st.pending.push(PendingOp::Rename {
                    from: from.to_path_buf(),
                    to: to.to_path_buf(),
                });
                Ok(())
            }
        }
    }

    /// Removes a file (injection point; not durable until the parent
    /// directory is fsynced).
    pub fn remove_file(&self, path: &Path) -> io::Result<()> {
        match &self.inner {
            Inner::Real(fuse) => {
                if let Some(f) = fuse {
                    f.point();
                }
                std::fs::remove_file(path)
            }
            Inner::Mem(m) => {
                let mut st = Self::lock(m);
                st.check_alive()?;
                if !st.live.contains_key(path) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such file: {}", path.display()),
                    ));
                }
                st.point(Some(PendingOp::Remove {
                    path: path.to_path_buf(),
                }))?;
                st.live.remove(path);
                st.pending.push(PendingOp::Remove {
                    path: path.to_path_buf(),
                });
                Ok(())
            }
        }
    }

    /// Makes the pending writes to `path` durable (injection point).
    pub fn fsync_file(&self, path: &Path) -> io::Result<()> {
        match &self.inner {
            Inner::Real(fuse) => {
                if let Some(f) = fuse {
                    f.point();
                }
                std::fs::File::open(path)?.sync_all()
            }
            Inner::Mem(m) => {
                let mut st = Self::lock(m);
                st.check_alive()?;
                st.point(None)?;
                // Apply pending writes to `path` that precede any pending
                // namespace operation touching it: fsync flushes file
                // content, never directory entries.
                let mut keep = Vec::with_capacity(st.pending.len());
                let mut blocked = false;
                let pending = std::mem::take(&mut st.pending);
                for op in pending {
                    match &op {
                        PendingOp::Write { path: p, bytes } if p == path && !blocked => {
                            st.durable.insert(p.clone(), bytes.clone());
                        }
                        PendingOp::Rename { from, to } if from == path || to == path => {
                            blocked = true;
                            keep.push(op);
                        }
                        PendingOp::Remove { path: p } if p == path => {
                            blocked = true;
                            keep.push(op);
                        }
                        _ => keep.push(op),
                    }
                }
                st.pending = keep;
                Ok(())
            }
        }
    }

    /// Makes the pending renames/removes under directory `dir` durable
    /// (injection point). Best-effort on platforms where directories
    /// cannot be opened for fsync.
    pub fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        match &self.inner {
            Inner::Real(fuse) => {
                if let Some(f) = fuse {
                    f.point();
                }
                if let Ok(d) = std::fs::File::open(dir) {
                    let _ = d.sync_all();
                }
                Ok(())
            }
            Inner::Mem(m) => {
                let mut st = Self::lock(m);
                st.check_alive()?;
                st.point(None)?;
                let in_dir = |p: &Path| p.parent() == Some(dir);
                let pending = std::mem::take(&mut st.pending);
                let mut keep = Vec::with_capacity(pending.len());
                for op in pending {
                    match &op {
                        PendingOp::Rename { from, to } if in_dir(from) || in_dir(to) => {
                            let v = st.durable.remove(from).unwrap_or_default();
                            st.durable.insert(to.clone(), v);
                        }
                        PendingOp::Remove { path } if in_dir(path) => {
                            st.durable.remove(path);
                        }
                        _ => keep.push(op),
                    }
                }
                st.pending = keep;
                Ok(())
            }
        }
    }

    /// Creates a directory and all ancestors (treated as immediately
    /// durable; not an injection point).
    pub fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        match &self.inner {
            Inner::Real(_) => std::fs::create_dir_all(dir),
            Inner::Mem(m) => {
                let mut st = Self::lock(m);
                st.check_alive()?;
                let mut d = dir.to_path_buf();
                loop {
                    st.dirs.insert(d.clone());
                    match d.parent() {
                        Some(p) if !p.as_os_str().is_empty() => d = p.to_path_buf(),
                        _ => break,
                    }
                }
                Ok(())
            }
        }
    }

    /// Lists the regular files directly inside `dir`, as full paths in
    /// sorted order.
    pub fn read_dir(&self, dir: &Path) -> io::Result<Vec<PathBuf>> {
        match &self.inner {
            Inner::Real(_) => {
                let mut out = Vec::new();
                for entry in std::fs::read_dir(dir)? {
                    let path = entry?.path();
                    if path.is_file() {
                        out.push(path);
                    }
                }
                out.sort();
                Ok(out)
            }
            Inner::Mem(m) => {
                let st = Self::lock(m);
                st.check_alive()?;
                if !st.dirs.contains(dir) {
                    return Err(io::Error::new(
                        io::ErrorKind::NotFound,
                        format!("no such directory: {}", dir.display()),
                    ));
                }
                Ok(st
                    .live
                    .keys()
                    .filter(|p| p.parent() == Some(dir))
                    .cloned()
                    .collect())
            }
        }
    }

    /// Whether a file or known directory exists (in the live view).
    pub fn exists(&self, path: &Path) -> bool {
        match &self.inner {
            Inner::Real(_) => path.exists(),
            Inner::Mem(m) => {
                let st = Self::lock(m);
                !st.crashed && (st.live.contains_key(path) || st.dirs.contains(path))
            }
        }
    }

    /// Durably replaces `path` with `bytes`: write to `path + ".tmp"`,
    /// fsync the temp file, rename over `path`, fsync the parent
    /// directory. A crash at any point leaves either the old content,
    /// the new content, or a stray `.tmp` file — never a torn `path`.
    pub fn atomic_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let tmp = tmp_path(path);
        self.write(&tmp, bytes)?;
        self.fsync_file(&tmp)?;
        self.rename(&tmp, path)?;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                self.fsync_dir(parent)?;
            }
        }
        Ok(())
    }

    /// Snapshot of the durable view of an in-memory handle (test/bench
    /// introspection). Empty for real handles.
    pub fn durable_snapshot(&self) -> BTreeMap<PathBuf, Vec<u8>> {
        match self.mem_state() {
            Some(m) => Self::lock(m).durable.clone(),
            None => BTreeMap::new(),
        }
    }
}

/// The atomic-write temporary for `path` (`<path>.tmp`).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(TMP_SUFFIX);
    PathBuf::from(name)
}

/// True when `path` names an atomic-write temporary.
pub fn is_tmp_path(path: &Path) -> bool {
    path.as_os_str()
        .to_str()
        .is_some_and(|s| s.ends_with(TMP_SUFFIX))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn mem_round_trips_and_lists() {
        let vfs = Vfs::mem();
        vfs.create_dir_all(&p("/d/sub")).unwrap();
        vfs.write(&p("/d/b.txt"), b"bee").unwrap();
        vfs.write(&p("/d/a.txt"), b"ay").unwrap();
        vfs.write(&p("/d/sub/c.txt"), b"sea").unwrap();
        assert_eq!(vfs.read(&p("/d/a.txt")).unwrap(), b"ay");
        assert_eq!(
            vfs.read_dir(&p("/d")).unwrap(),
            vec![p("/d/a.txt"), p("/d/b.txt")]
        );
        assert!(vfs.exists(&p("/d/sub")));
        assert!(!vfs.exists(&p("/d/nope.txt")));
        vfs.rename(&p("/d/a.txt"), &p("/d/z.txt")).unwrap();
        vfs.remove_file(&p("/d/b.txt")).unwrap();
        assert_eq!(vfs.read_dir(&p("/d")).unwrap(), vec![p("/d/z.txt")]);
        assert!(vfs.read(&p("/nope")).is_err());
        assert!(vfs.write(&p("/nodir/x"), b"x").is_err());
        assert!(vfs.remove_file(&p("/d/b.txt")).is_err());
        assert!(vfs.rename(&p("/d/gone"), &p("/d/x")).is_err());
    }

    #[test]
    fn unsynced_writes_do_not_survive_a_crash() {
        let vfs = Vfs::mem();
        vfs.create_dir_all(&p("/d")).unwrap();
        vfs.write(&p("/d/old.txt"), b"old").unwrap();
        vfs.fsync_file(&p("/d/old.txt")).unwrap();
        vfs.arm(CrashPlan::count_only());
        // One un-fsynced write, then crash at the next point. Across all
        // seeds the durable outcome must be absent, a prefix, or the full
        // content — never anything else; the fsynced file always survives.
        for seed in 0..32 {
            let v = Vfs::mem();
            v.create_dir_all(&p("/d")).unwrap();
            v.write(&p("/d/old.txt"), b"old").unwrap();
            v.fsync_file(&p("/d/old.txt")).unwrap();
            v.arm(CrashPlan::crash_at(1, seed));
            v.write(&p("/d/new.txt"), b"abcdef").unwrap();
            let err = v.write(&p("/d/other.txt"), b"x").unwrap_err();
            assert!(err.to_string().contains("injected crash"), "{err}");
            assert!(v.crashed());
            assert!(v.read(&p("/d/old.txt")).is_err(), "reads fail pre-reboot");
            v.reboot();
            assert_eq!(v.read(&p("/d/old.txt")).unwrap(), b"old");
            match v.read(&p("/d/new.txt")) {
                Ok(bytes) => assert!(b"abcdef".starts_with(&bytes[..])),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            }
            // `other.txt` was in flight: same prefix-or-absent contract.
            match v.read(&p("/d/other.txt")) {
                Ok(bytes) => assert!(b"x".starts_with(&bytes[..])),
                Err(e) => assert_eq!(e.kind(), io::ErrorKind::NotFound),
            }
        }
    }

    #[test]
    fn atomic_write_is_old_or_new_at_every_crash_point() {
        // Count the schedule once, then crash at every point under
        // several seeds: the destination must hold the old or the new
        // content — never a torn file (stray .tmp files are allowed).
        let dst = p("/d/file.bin");
        let setup = || {
            let v = Vfs::mem();
            v.create_dir_all(&p("/d")).unwrap();
            v.atomic_write(&dst, b"old-content").unwrap();
            v
        };
        let counter = setup();
        counter.arm(CrashPlan::count_only());
        counter.atomic_write(&dst, b"new-content!").unwrap();
        let points = counter.points();
        assert!(points >= 4, "expected ≥4 injection points, got {points}");
        for k in 0..points {
            for seed in 0..8 {
                let v = setup();
                v.arm(CrashPlan::crash_at(k, seed));
                let err = v.atomic_write(&dst, b"new-content!").unwrap_err();
                assert!(err.to_string().contains("injected crash"));
                v.reboot();
                let got = v.read(&dst).unwrap();
                assert!(
                    got == b"old-content" || got == b"new-content!",
                    "crash at {k} seed {seed}: torn destination {got:?}"
                );
            }
        }
        // Without a crash the new content is durable.
        let v = setup();
        v.atomic_write(&dst, b"new-content!").unwrap();
        v.arm(CrashPlan::crash_at(0, 7));
        let _ = v.write(&p("/d/unrelated"), b"x");
        v.reboot();
        assert_eq!(v.read(&dst).unwrap(), b"new-content!");
    }

    #[test]
    fn rename_without_content_fsync_can_leave_a_truncated_file() {
        // The delayed-allocation hazard the atomic-write protocol exists
        // to prevent: write + rename with NO file fsync can produce a
        // destination with empty or partial content after a crash.
        let mut saw_truncated = false;
        for seed in 0..64 {
            let v = Vfs::mem();
            v.create_dir_all(&p("/d")).unwrap();
            v.arm(CrashPlan::crash_at(2, seed));
            v.write(&p("/d/t.tmp"), b"payload").unwrap();
            v.rename(&p("/d/t.tmp"), &p("/d/dst")).unwrap();
            let _ = v.fsync_dir(&p("/d"));
            v.reboot();
            if let Ok(bytes) = v.read(&p("/d/dst")) {
                if bytes.len() < b"payload".len() {
                    saw_truncated = true;
                }
            }
        }
        assert!(
            saw_truncated,
            "adversarial model never produced the truncated-rename hazard"
        );
    }

    #[test]
    fn crash_schedules_are_deterministic() {
        let run = |k: u64, seed: u64| {
            let v = Vfs::mem();
            v.create_dir_all(&p("/d")).unwrap();
            v.arm(CrashPlan::crash_at(k, seed));
            for i in 0..6u32 {
                if v.write(&p(&format!("/d/f{i}")), &[i as u8; 9]).is_err() {
                    break;
                }
            }
            v.reboot();
            v.durable_snapshot()
        };
        for k in 0..6 {
            assert_eq!(run(k, 3), run(k, 3), "crash at {k} not reproducible");
        }
        assert_eq!(run(4, 1), run(4, 1));
    }

    #[test]
    fn tmp_path_helpers() {
        assert_eq!(tmp_path(&p("/a/b.ldoc")), p("/a/b.ldoc.tmp"));
        assert!(is_tmp_path(&p("/a/b.ldoc.tmp")));
        assert!(!is_tmp_path(&p("/a/b.ldoc")));
    }

    #[test]
    fn real_mode_round_trips_through_std_fs() {
        let dir = std::env::temp_dir().join("lockdoc-vfs-real-test");
        std::fs::remove_dir_all(&dir).ok();
        let vfs = Vfs::real();
        vfs.create_dir_all(&dir).unwrap();
        let f = dir.join("x.bin");
        vfs.atomic_write(&f, b"hello").unwrap();
        assert_eq!(vfs.read(&f).unwrap(), b"hello");
        assert!(vfs.exists(&f));
        assert_eq!(vfs.read_dir(&dir).unwrap(), vec![f.clone()]);
        vfs.remove_file(&f).unwrap();
        assert!(!vfs.exists(&f));
        assert_eq!(vfs.points(), 0, "unfused real handles count nothing");
        std::fs::remove_dir_all(&dir).ok();
    }
}
