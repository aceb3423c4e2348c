//! Crash-recovery cost: `lockdoc fsck` on clean and crashed corpora.
//!
//! Builds a 6-member corpus on the deterministic in-memory filesystem
//! (`lockdoc_platform::vfs`), then times three recovery regimes:
//!
//! * **clean scan** — fsck over a healthy warm corpus: the price of the
//!   journal check, tmp sweep, and member screening when nothing is
//!   wrong;
//! * **roll-forward** — a `corpus add` crashed after the member rename
//!   but before the intent journal was cleared; fsck re-validates the
//!   checksum witness and commits the add;
//! * **torn-member repair** — a member truncated mid-write is
//!   quarantined and its orphaned cache artifacts collected, then the
//!   corpus is rebuilt through the stale cache.
//!
//! Before timing anything the bench asserts the recovery identity
//! contract: fsck after a mid-`add` crash yields exactly the pre-op or
//! post-op member set, and the rules derived from the recovered corpus
//! are byte-identical to a from-scratch derivation over the same
//! members — fast recovery to a wrong corpus is worthless. Results land
//! in `BENCH_fsck.json` at the repository root. Set
//! `LOCKDOC_BENCH_QUICK=1` for a single-iteration smoke run.

use lockdoc_cli::corpus::{derive_members, load_corpus, CorpusCtx};
use lockdoc_cli::run;
use lockdoc_platform::json::Json;
use lockdoc_platform::timing::Bench;
use lockdoc_platform::vfs::{CrashPlan, Vfs};
use lockdoc_trace::corpus::{fsck, CorpusStore, FsckOptions};
use std::fs;
use std::path::{Path, PathBuf};

const CORPUS_DIR: &str = "/corpus";
const CACHE_DIR: &str = "/cache";
const MEMBERS: usize = 6;

/// Generates the member containers once, through the real CLI.
fn member_bytes(ops: u64) -> Vec<(String, Vec<u8>)> {
    let dir = std::env::temp_dir().join("lockdoc-bench-fsck-src");
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    let ops_s = ops.to_string();
    let mut out = Vec::new();
    for i in 0..MEMBERS {
        let name = format!("t{i}.ldoc");
        let path = dir.join(&name);
        run(&[
            "trace".to_owned(),
            "--ops".to_owned(),
            ops_s.clone(),
            "--seed".to_owned(),
            (300 + i).to_string(),
            "--out".to_owned(),
            path.to_str().unwrap().to_owned(),
        ])
        .unwrap();
        out.push((name, fs::read(&path).unwrap()));
    }
    fs::remove_dir_all(&dir).ok();
    out
}

/// A fresh in-memory store with `n` members installed durably (written
/// straight into the corpus directory: membership IS the listing).
fn store_with(sources: &[(String, Vec<u8>)], n: usize) -> (Vfs, CorpusStore) {
    let vfs = Vfs::mem();
    let store =
        CorpusStore::open_on(vfs.clone(), Path::new(CORPUS_DIR), Path::new(CACHE_DIR)).unwrap();
    for (name, bytes) in &sources[..n] {
        let path = store.trace_path(name);
        vfs.write(&path, bytes).unwrap();
        // Make the staged members durable: a later injected crash must
        // only threaten the interrupted operation, not the baseline.
        vfs.fsync_file(&path).unwrap();
    }
    vfs.fsync_dir(Path::new(CORPUS_DIR)).unwrap();
    (vfs, store)
}

fn repair_opts() -> FsckOptions {
    FsckOptions {
        repair: true,
        gc: true,
    }
}

fn run_fsck(store: &CorpusStore) -> lockdoc_trace::corpus::FsckReport {
    fsck(store, repair_opts()).unwrap()
}

/// Full pipeline over the store (screen + import + matrix + derive),
/// warming the artifact cache as a side effect; returns rendered rules.
fn build_rules(store: &CorpusStore) -> String {
    let ctx = CorpusCtx::with_store(store.clone(), 0.9, 1);
    let members = load_corpus(&ctx, true).unwrap();
    let derived = derive_members(&ctx, &members).unwrap();
    lockdoc_cli::render_rules_text(&derived.rules, false)
}

/// Stages a store where `corpus add` of the last member crashed at
/// injection point `k` (see the crash-point map in DESIGN.md §5.8),
/// rebooted but not yet repaired — or, with `k = None`, runs the add to
/// completion under a counting plan (to enumerate its injection
/// points). The first n-1 members are durable and their cache is warm.
fn crashed_add(sources: &[(String, Vec<u8>)], k: Option<u64>) -> (Vfs, CorpusStore) {
    let (vfs, store) = store_with(sources, MEMBERS - 1);
    build_rules(&store); // warm cache for the surviving members
    let (name, bytes) = &sources[MEMBERS - 1];
    let src = Path::new("/src").join(name);
    vfs.create_dir_all(Path::new("/src")).unwrap();
    vfs.write(&src, bytes).unwrap();
    vfs.arm(match k {
        Some(k) => CrashPlan::crash_at(k, 0xF5C4),
        None => CrashPlan::count_only(),
    });
    let _ = store.add(&src);
    if let Some(k) = k {
        assert!(vfs.crashed(), "crash point {k} never fired during add");
        vfs.reboot();
    }
    (vfs, store)
}

fn main() {
    std::env::set_var("LOCKDOC_JOBS_FORCE", "1");
    let quick = std::env::var("LOCKDOC_BENCH_QUICK").is_ok_and(|v| v == "1");
    let ops = if quick { 400 } else { 2_500 };
    let sources = member_bytes(ops);

    // Map this add's injection points so the staged crashes land where
    // the regimes claim: the member rename (journal present, dst
    // durable -> roll-forward) and mid member-write (torn tmp).
    let (vfs, store) = crashed_add(&sources, None);
    let points_per_add = vfs.points();
    assert!(
        points_per_add >= 10,
        "corpus add enumerated only {points_per_add} injection points"
    );
    drop((vfs, store));
    let rename_point = 6; // journal(0-3), tmp write(4), fsync(5), rename(6)
    let tmp_write_point = 4;

    // Identity gate: recovery from the mid-add crash yields exactly the
    // pre-op or post-op member set, and rules from the recovered store
    // (through the surviving warm cache) match a from-scratch build.
    for k in [tmp_write_point, rename_point] {
        let (_vfs, store) = crashed_add(&sources, Some(k));
        let report = run_fsck(&store);
        let names = store.trace_names().unwrap();
        let n = names.len();
        assert!(
            n == MEMBERS - 1 || n == MEMBERS,
            "crash at point {k}: recovered to {n} members (want {} or {}); fsck: {report:?}",
            MEMBERS - 1,
            MEMBERS
        );
        let (_svfs, scratch) = store_with(&sources, n);
        assert_eq!(
            build_rules(&store),
            build_rules(&scratch),
            "crash at point {k}: recovered rules differ from scratch over the same members"
        );
    }

    // Timed regimes. Staging the crashed store inside the loop is part
    // of the iteration but cheap (in-memory writes) next to the fsck
    // scan + screen + rebuild being claimed.
    let mut b = Bench::from_env();
    let (_vfs, clean_store) = store_with(&sources, MEMBERS);
    build_rules(&clean_store);
    b.run("fsck/6-members/clean-scan", || run_fsck(&clean_store));
    b.run("fsck/6-members/roll-forward", || {
        let (_vfs, store) = crashed_add(&sources, Some(rename_point));
        run_fsck(&store)
    });
    b.run("fsck/6-members/torn-member+rebuild", || {
        let (vfs, store) = store_with(&sources, MEMBERS);
        build_rules(&store);
        // Destroy the last member's header in place (an unsalvageable
        // torn rewrite), leaving its cache artifacts orphaned.
        let (name, _) = &sources[MEMBERS - 1];
        vfs.write(&store.trace_path(name), b"\0\0\0\0torn beyond salvage")
            .unwrap();
        let report = run_fsck(&store);
        assert_eq!(report.quarantined.len(), 1, "torn member not quarantined");
        build_rules(&store)
    });

    let results = b.results().to_vec();
    for m in &results {
        println!("bench {:<40} {:>10.2} ms", m.name, m.ns_per_iter() / 1e6);
    }

    let run_json = |m: &lockdoc_platform::timing::Measurement| {
        Json::obj(vec![
            ("name", Json::Str(m.name.clone())),
            ("ns_per_iter", Json::F64(m.ns_per_iter())),
        ])
    };
    let out: PathBuf = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fsck.json").into();
    let report = Json::obj(vec![
        ("bench", Json::Str("fsck_recovery".into())),
        ("quick", Json::Bool(quick)),
        ("ops_per_trace", Json::U64(ops)),
        ("members", Json::U64(MEMBERS as u64)),
        ("points_per_add", Json::U64(points_per_add)),
        (
            "identity_gate",
            Json::Str(
                "post-crash fsck yields pre- or post-op member set; recovered rules == scratch"
                    .into(),
            ),
        ),
        ("runs", Json::Arr(results.iter().map(run_json).collect())),
    ]);
    fs::write(&out, report.pretty() + "\n").expect("write BENCH_fsck.json");
    println!("wrote {}", out.display());
}
