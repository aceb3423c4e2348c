//! Exhaustive crash-consistency property for the corpus store.
//!
//! The headline robustness claim: for EVERY injection point in an
//! add/add/build/drop schedule — every write, rename, remove, and fsync
//! the pipeline issues — crashing there, rebooting, and running
//! `fsck --repair --gc` leaves the corpus in exactly the state before or
//! after the interrupted operation, never a torn hybrid; and the rules
//! derived from the recovered corpus (through the possibly-stale cache)
//! are byte-identical to a from-scratch derivation over the same
//! members, at `--jobs` 1 and 4.
//!
//! The schedule is first run on an armed-but-counting in-memory
//! filesystem to enumerate its injection points and record the member
//! state between operations; then each point is re-run as a real crash
//! under the adversarial replay model (lost/torn/reordered un-fsynced
//! state — see `lockdoc_platform::vfs`).
//!
//! `LOCKDOC_CRASH_ITERS=N` soaks each crash point under N adversarial
//! seeds (default 1), mirroring the `LOCKDOC_PROPS_ITERS` corruption
//! soak.
//!
//! Two end-to-end checks on the real filesystem guard what recovery
//! keys on: `fsck --gc` keeps every artifact the CLI loader wrote (both
//! name them by the one member key), and a journal written by a build
//! that witnessed adds with FNV-1a still rolls forward.

use lockdoc_cli::corpus::{derive_members, load_corpus, CorpusCtx};
use lockdoc_cli::run;
use lockdoc_platform::json::{parse, Json};
use lockdoc_platform::vfs::{CrashPlan, Vfs};
use lockdoc_trace::corpus::{fsck, CorpusStore, FsckOptions};
use lockdoc_trace::db::fnv1a;
use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::OnceLock;

const SRC_DIR: &str = "/src";
const CORPUS_DIR: &str = "/corpus";
const CACHE_DIR: &str = "/cache";

#[derive(Clone, Copy, Debug)]
enum Op {
    Add(&'static str),
    Drop(&'static str),
    Build,
}

const SCHEDULE: &[Op] = &[
    Op::Add("a.ldoc"),
    Op::Add("b.ldoc"),
    Op::Build,
    Op::Drop("b.ldoc"),
];

/// Generates the two member containers once per test process, through
/// the real CLI (tests run in parallel and share the result).
fn member_bytes() -> Vec<(&'static str, Vec<u8>)> {
    static MEMBERS: OnceLock<Vec<(&'static str, Vec<u8>)>> = OnceLock::new();
    MEMBERS.get_or_init(record_members).clone()
}

fn record_members() -> Vec<(&'static str, Vec<u8>)> {
    let dir = std::env::temp_dir().join("lockdoc-crash-suite-src");
    fs::create_dir_all(&dir).unwrap();
    let mut out = Vec::new();
    for (name, seed, mix) in [("a.ldoc", "71", None), ("b.ldoc", "72", Some("pipes=1"))] {
        let path = dir.join(name);
        let mut argv: Vec<String> = ["trace", "--ops", "200", "--seed", seed, "--out"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        argv.push(path.to_str().unwrap().to_owned());
        if let Some(m) = mix {
            argv.extend(["--mix".to_owned(), m.to_owned()]);
        }
        run(&argv).unwrap();
        out.push((name, fs::read(&path).unwrap()));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

/// A fresh in-memory filesystem with the source containers staged and
/// an empty corpus store opened on it.
fn setup(sources: &[(&'static str, Vec<u8>)]) -> (Vfs, CorpusStore) {
    let vfs = Vfs::mem();
    vfs.create_dir_all(Path::new(SRC_DIR)).unwrap();
    for (name, bytes) in sources {
        vfs.write(&Path::new(SRC_DIR).join(name), bytes).unwrap();
    }
    let store =
        CorpusStore::open_on(vfs.clone(), Path::new(CORPUS_DIR), Path::new(CACHE_DIR)).unwrap();
    (vfs, store)
}

/// Member name -> container bytes, the corpus state a crash must snap to.
fn member_state(store: &CorpusStore) -> BTreeMap<String, Vec<u8>> {
    store
        .trace_names()
        .unwrap()
        .into_iter()
        .map(|n| {
            let bytes = store.vfs().read(&store.trace_path(&n)).unwrap();
            (n, bytes)
        })
        .collect()
}

/// Runs the full corpus pipeline (load + incremental derive) and renders
/// the mined rules — the bytes the determinism contract is stated over.
fn build_rules(store: &CorpusStore, jobs: usize) -> String {
    let ctx = CorpusCtx::with_store(store.clone(), 0.9, jobs);
    let members = load_corpus(&ctx, true).unwrap();
    let derived = derive_members(&ctx, &members).unwrap();
    lockdoc_cli::render_rules_text(&derived.rules, false)
}

/// From-scratch rules over an explicit member set: a brand-new
/// filesystem, members written straight into the corpus directory
/// (membership IS the directory listing), cold caches.
fn scratch_rules(members: &BTreeMap<String, Vec<u8>>, jobs: usize) -> String {
    let vfs = Vfs::mem();
    let store =
        CorpusStore::open_on(vfs.clone(), Path::new(CORPUS_DIR), Path::new(CACHE_DIR)).unwrap();
    for (name, bytes) in members {
        vfs.write(&store.trace_path(name), bytes).unwrap();
    }
    build_rules(&store, jobs)
}

/// Applies one schedule op. Returns Err only for I/O failures — which,
/// under an armed plan, are exactly the injected crash.
fn run_op(store: &CorpusStore, op: Op) -> Result<(), String> {
    match op {
        Op::Add(name) => store
            .add(&Path::new(SRC_DIR).join(name))
            .map(|_| ())
            .map_err(|e| e.to_string()),
        Op::Drop(name) => store.drop_trace(name).map_err(|e| e.to_string()),
        Op::Build => {
            // Cache writes are best-effort (counted, not propagated), so
            // a build can swallow a crash; the caller checks
            // `vfs.crashed()` rather than this result.
            let ctx = CorpusCtx::with_store(store.clone(), 0.9, 1);
            let members = load_corpus(&ctx, true).map_err(|e| e.to_string())?;
            let _ = derive_members(&ctx, &members);
            Ok(())
        }
    }
}

#[test]
fn every_crash_point_recovers_to_pre_or_post_op_state() {
    let sources = member_bytes();
    let seeds: u64 = std::env::var("LOCKDOC_CRASH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);

    // Pass 1: count the schedule's injection points and record the
    // member state before/after every op (states[i] = before op i).
    let (vfs, store) = setup(&sources);
    vfs.arm(CrashPlan::count_only());
    let mut states = vec![member_state(&store)];
    let mut expected_rules: Vec<Option<String>> = vec![None];
    for op in SCHEDULE {
        run_op(&store, *op).unwrap();
        assert!(!vfs.crashed());
        states.push(member_state(&store));
        expected_rules.push(None);
    }
    let total_points = vfs.points();
    assert!(
        total_points >= 30,
        "schedule enumerated only {total_points} injection points"
    );

    // Lazily computed scratch rules per recorded member state.
    let scratch_for = |states: &[BTreeMap<String, Vec<u8>>],
                       cache: &mut Vec<Option<String>>,
                       idx: usize|
     -> Option<String> {
        if states[idx].is_empty() {
            return None;
        }
        if cache[idx].is_none() {
            cache[idx] = Some(scratch_rules(&states[idx], 1));
        }
        cache[idx].clone()
    };

    // Pass 2: crash at every point, under every soak seed.
    for k in 0..total_points {
        for s in 0..seeds {
            let seed = 0xC0FFEE ^ s;
            let (vfs, store) = setup(&sources);
            vfs.arm(CrashPlan::crash_at(k, seed));
            let mut interrupted = None;
            for (i, op) in SCHEDULE.iter().enumerate() {
                let result = run_op(&store, *op);
                if vfs.crashed() {
                    interrupted = Some(i);
                    break;
                }
                result.unwrap_or_else(|e| {
                    panic!("point {k} seed {seed}: op {op:?} failed without a crash: {e}")
                });
            }
            let i = interrupted
                .unwrap_or_else(|| panic!("crash point {k} never fired (schedule shrank?)"));

            vfs.reboot();
            let report = fsck(
                &store,
                FsckOptions {
                    repair: true,
                    gc: true,
                },
            )
            .unwrap();

            // The recovered corpus is exactly the pre-op or post-op
            // member set — never a torn hybrid.
            let after = member_state(&store);
            assert!(
                after == states[i] || after == states[i + 1],
                "crash at point {k} (op {i}: {:?}, seed {seed}) left a torn corpus:\n\
                 members after recovery: {:?}\nfsck: {report:?}",
                SCHEDULE[i],
                after.keys().collect::<Vec<_>>()
            );

            // fsck converged: a second run finds nothing left to repair.
            let again = fsck(
                &store,
                FsckOptions {
                    repair: true,
                    gc: true,
                },
            )
            .unwrap();
            assert!(
                again.is_clean(),
                "point {k} seed {seed}: fsck did not converge: {again:?}"
            );

            // Rules from the recovered store — through whatever cache
            // state survived the crash — equal a from-scratch derivation
            // over the same members, at jobs 1 and 4.
            let idx = if after == states[i] { i } else { i + 1 };
            if let Some(want) = scratch_for(&states, &mut expected_rules, idx) {
                let got1 = build_rules(&store, 1);
                assert_eq!(
                    got1, want,
                    "point {k} seed {seed}: recovered rules (jobs 1) != scratch"
                );
                let got4 = build_rules(&store, 4);
                assert_eq!(
                    got4, want,
                    "point {k} seed {seed}: recovered rules (jobs 4) != scratch"
                );
            }
        }
    }
}

/// A fresh real directory under the system temp dir.
fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn argv(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

/// `fsck --gc` deletes every per-member artifact whose name lacks the
/// key `CorpusStore::load` computes. The CLI loader names artifacts
/// with the same key, so after a build gc finds no orphan and the next
/// build is fully warm. (Were the keys to differ, gc would delete every
/// live cache file and a cold rebuild would still get the rules right,
/// which is why the crash property above cannot notice.)
#[test]
fn fsck_gc_keeps_every_artifact_the_cli_wrote() {
    let base = fresh_dir("lockdoc-crash-suite-gc-keys");
    let corpus = base.join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    for (name, bytes) in member_bytes() {
        fs::write(corpus.join(name), bytes).unwrap();
    }
    let d = corpus.to_str().unwrap();
    let cold = run(&argv(&["corpus", "build", "--dir", d])).unwrap();
    assert!(cold.contains("matrices: 0 cached, 2 rebuilt"), "{cold}");
    let cache = corpus.join(".lockdoc-cache");
    let artifacts = || {
        let mut names: Vec<String> = fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let before = artifacts();
    assert_eq!(before.len(), 5, "2 matrices, 2 sidecars, rules: {before:?}");

    let report = run(&argv(&["fsck", "--dir", d, "--repair", "--gc", "--json"])).unwrap();
    let v = parse(&report).unwrap();
    assert_eq!(v.get("orphaned"), Some(&Json::Arr(Vec::new())), "{report}");
    assert_eq!(v.get("clean"), Some(&Json::Bool(true)), "{report}");
    assert_eq!(artifacts(), before);

    let warm = run(&argv(&["corpus", "build", "--dir", d])).unwrap();
    assert!(warm.contains("matrices: 2 cached, 0 rebuilt"), "{warm}");
    fs::remove_dir_all(&base).ok();
}

/// The intent journal's completion witness is FNV-1a, the hash older
/// builds wrote. A journal in that exact format over a fully written
/// member (an add that crashed after its last fsync) rolls forward and
/// keeps the member; were the witness re-keyed, fsck would remove the
/// member as a torn add.
#[test]
fn journal_from_an_fnv_witnessing_build_rolls_forward() {
    // The published FNV-1a 64 vectors pin the witness function.
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);

    let base = fresh_dir("lockdoc-crash-suite-old-journal");
    let corpus = base.join("corpus");
    fs::create_dir_all(&corpus).unwrap();
    let (name, bytes) = member_bytes().swap_remove(0);
    fs::write(corpus.join(name), &bytes).unwrap();
    let journal = format!(
        r#"{{"op":"add","name":"{name}","checksum":"{:016x}","len":{}}}"#,
        fnv1a(&bytes),
        bytes.len()
    );
    fs::write(corpus.join("corpus.journal"), journal).unwrap();

    let d = corpus.to_str().unwrap();
    let report = run(&argv(&["fsck", "--dir", d, "--repair"])).unwrap();
    assert!(
        report.contains(&format!(
            "journal: rolled forward interrupted add of `{name}`"
        )),
        "{report}"
    );
    assert_eq!(fs::read(corpus.join(name)).unwrap(), bytes);
    assert!(!corpus.join("corpus.journal").exists());
    let again = run(&argv(&["fsck", "--dir", d])).unwrap();
    assert!(again.contains("fsck: clean"), "{again}");
    fs::remove_dir_all(&base).ok();
}
