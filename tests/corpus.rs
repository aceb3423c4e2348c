//! Corpus-scale incremental derivation, end to end through the CLI:
//!
//! * growing a corpus one trace at a time derives rules byte-identical
//!   to a from-scratch build of the same members, at `--jobs 1` and 4;
//! * incremental adds actually reuse untouched groups (the perf claim
//!   behind the matrix + rules caches), and a narrow trace re-derives
//!   fewer than half of them;
//! * a flipped byte in a cached matrix artifact is a clean miss — the
//!   member is rebuilt and the rules stay correct — and so is a flipped
//!   bit in the rules cache or in a screening sidecar;
//! * `serve --once` answers queries byte-identically to the batch
//!   subcommands on the merged corpus, before and after an ingest, with
//!   a cold or a warm cache, and writes no cache file; `corpus export`
//!   writes the same bytes whatever the cache holds.

use lockdoc_cli::run;
use lockdoc_platform::json::{parse, Json};
use std::fs;
use std::path::{Path, PathBuf};

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Records a trace with the given seed/mix into `path`.
fn record(path: &Path, seed: &str, mix: Option<&str>) {
    let mut argv = s(&[
        "trace",
        "--ops",
        "300",
        "--seed",
        seed,
        "--out",
        path.to_str().unwrap(),
    ]);
    if let Some(m) = mix {
        argv.extend(s(&["--mix", m]));
    }
    run(&argv).unwrap();
}

/// The rules section of a `corpus build` report (everything from the
/// first group header on), stripped of the summary lines whose cache
/// hit/miss counts legitimately differ between cold and warm runs.
fn rules_of(report: &str) -> &str {
    &report[report.find('[').expect("rules section")..]
}

/// Flips the low bit of the last digit of the number after the first
/// `key` in `bytes`, so `"sa": 18` becomes `"sa": 19`.
fn flip_number_after(bytes: &mut [u8], key: &str) {
    let at = bytes
        .windows(key.len())
        .position(|w| w == key.as_bytes())
        .expect("key present")
        + key.len();
    let digits = bytes[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    bytes[at + digits - 1] ^= 0x01;
}

/// Parses `groups: T total, R reused, D re-derived` out of a report.
fn group_counts(report: &str) -> (u64, u64, u64) {
    let line = report
        .lines()
        .find(|l| l.starts_with("groups: "))
        .expect("groups line");
    let nums: Vec<u64> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse().unwrap())
        .collect();
    (nums[0], nums[1], nums[2])
}

#[test]
fn incremental_corpus_growth_matches_scratch_at_any_jobs() {
    let base = fresh_dir("lockdoc-suite-corpus-incremental");
    let seeds = ["11", "12", "13", "14"];
    let mixes = [None, None, Some("perms=1"), Some("pipes=1")];
    let traces: Vec<PathBuf> = seeds
        .iter()
        .zip(mixes)
        .enumerate()
        .map(|(i, (seed, mix))| {
            let p = base.join(format!("t{i}.ldoc"));
            record(&p, seed, mix);
            p
        })
        .collect();

    let inc_dir = base.join("incremental");
    let d = inc_dir.to_str().unwrap();
    let mut last_inc = String::new();
    for (k, trace) in traces.iter().enumerate() {
        // Grow the incremental corpus by one member, on 4 workers.
        let report = run(&s(&[
            "corpus",
            "add",
            trace.to_str().unwrap(),
            "--dir",
            d,
            "--jobs",
            "4",
        ]))
        .unwrap();
        // The add re-derives only the groups the new trace touches: the
        // narrow perms=1 / pipes=1 traces leave the standard mix's other
        // groups untouched, so those must be reused. (A full-mix add may
        // legitimately touch every group.)
        let (total, reused, rederived) = group_counts(&report);
        assert_eq!(total, reused + rederived, "k={k}: {report}");
        if mixes[k].is_some() {
            assert!(
                reused > 0,
                "k={k}: no group reuse on incremental add\n{report}"
            );
        }

        // A from-scratch corpus over the same members (fresh store, fresh
        // caches, serial) must produce byte-identical rules.
        let scratch_dir = base.join(format!("scratch{k}"));
        let sd = scratch_dir.to_str().unwrap();
        let mut argv = s(&["corpus", "add"]);
        argv.extend(traces[..=k].iter().map(|t| t.to_str().unwrap().to_owned()));
        argv.extend(s(&["--dir", sd, "--jobs", "1"]));
        let scratch = run(&argv).unwrap();
        assert_eq!(
            rules_of(&scratch),
            rules_of(&report),
            "k={k}: incremental(jobs 4) != scratch(jobs 1)"
        );
        last_inc = report;
    }

    // Dropping the last member restores the k=3 rules, again with reuse.
    let dropped = run(&s(&[
        "corpus", "drop", "t3.ldoc", "--dir", d, "--jobs", "1",
    ]))
    .unwrap();
    let scratch3 = run(&s(&[
        "corpus",
        "build",
        "--dir",
        base.join("scratch2").to_str().unwrap(),
        "--jobs",
        "4",
    ]))
    .unwrap();
    assert_eq!(rules_of(&dropped), rules_of(&scratch3));
    let (_, reused, _) = group_counts(&dropped);
    assert!(reused > 0, "drop re-derived everything:\n{dropped}");
    assert_ne!(rules_of(&dropped), rules_of(&last_inc));
    fs::remove_dir_all(&base).ok();
}

/// Adding one narrow trace to a warm corpus re-derives fewer than half
/// of its groups: a pipes-only workload on a pipes-only boot touches 5
/// of the standard mix's 21 groups. The member's name sorts last, since
/// members merge in name order and a middle name would shift the merge
/// index of every later member.
#[test]
fn narrow_add_rederives_under_half_the_groups() {
    let base = fresh_dir("lockdoc-suite-corpus-narrow-add");
    let (t0, t1, narrow) = (
        base.join("t0.ldoc"),
        base.join("t1.ldoc"),
        base.join("t2-pipes.ldoc"),
    );
    record(&t0, "41", None);
    record(&t1, "42", None);
    run(&s(&[
        "trace",
        "--ops",
        "300",
        "--seed",
        "43",
        "--mix",
        "pipes=1",
        "--fs",
        "pipefs",
        "--out",
        narrow.to_str().unwrap(),
    ]))
    .unwrap();
    let corpus = base.join("corpus");
    let d = corpus.to_str().unwrap();
    run(&s(&[
        "corpus",
        "add",
        t0.to_str().unwrap(),
        t1.to_str().unwrap(),
        "--dir",
        d,
    ]))
    .unwrap();
    let added = run(&s(&["corpus", "add", narrow.to_str().unwrap(), "--dir", d])).unwrap();
    let (total, _, rederived) = group_counts(&added);
    assert!(
        rederived * 2 < total,
        "a narrow add re-derived {rederived} of {total} groups\n{added}"
    );
    fs::remove_dir_all(&base).ok();
}

#[test]
fn stale_matrix_artifact_is_a_clean_miss() {
    let base = fresh_dir("lockdoc-suite-corpus-stale");
    let t1 = base.join("a.ldoc");
    let t2 = base.join("b.ldoc");
    record(&t1, "21", None);
    record(&t2, "22", Some("perms=1,pipes=1"));
    let corpus = base.join("corpus");
    let d = corpus.to_str().unwrap();
    let cold = run(&s(&[
        "corpus",
        "add",
        t1.to_str().unwrap(),
        t2.to_str().unwrap(),
        "--dir",
        d,
    ]))
    .unwrap();

    // Flip one payload byte in one cached matrix artifact.
    let cache = corpus.join(".lockdoc-cache");
    let mut ldmtx: Vec<PathBuf> = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("ldmtx"))
        .collect();
    ldmtx.sort();
    assert_eq!(ldmtx.len(), 2, "one matrix artifact per member");
    let victim = &ldmtx[0];
    let mut bytes = fs::read(victim).unwrap();
    bytes[60] ^= 0x01; // past the 44-byte header: payload damage
    fs::write(victim, &bytes).unwrap();

    // The damaged artifact must be rebuilt (a miss), the intact one
    // served from cache (a hit) — and the rules must not change.
    let rebuilt = run(&s(&["corpus", "build", "--dir", d])).unwrap();
    assert!(
        rebuilt.contains("matrices: 1 cached, 1 rebuilt"),
        "{rebuilt}"
    );
    assert_eq!(rules_of(&cold), rules_of(&rebuilt));

    // A corrupt rules cache is equally harmless: rules still correct.
    let rules_cache = cache.join("corpus.rules.json");
    fs::write(&rules_cache, b"{ not json").unwrap();
    let after = run(&s(&["corpus", "build", "--dir", d])).unwrap();
    assert_eq!(rules_of(&cold), rules_of(&after));

    // So is one flipped bit in a support count of a well-formed rules
    // cache: no group may be reused with the wrong count.
    let mut bytes = fs::read(&rules_cache).unwrap();
    flip_number_after(&mut bytes, "\"sa\": ");
    fs::write(&rules_cache, &bytes).unwrap();
    let after = run(&s(&["corpus", "build", "--dir", d])).unwrap();
    assert_eq!(rules_of(&cold), rules_of(&after));

    // And one flipped bit in a screening sidecar's event count: `status`
    // answers as if the sidecar were absent.
    let sidecar = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_str().unwrap().ends_with(".screen.json"))
        .min()
        .expect("screening sidecar");
    let status = s(&["corpus", "status", "--dir", d, "--json"]);
    fs::remove_file(&sidecar).unwrap();
    let cold_status = run(&status).unwrap();
    let mut bytes = fs::read(&sidecar).unwrap();
    flip_number_after(&mut bytes, "\"events\": ");
    fs::write(&sidecar, &bytes).unwrap();
    assert_eq!(cold_status, run(&status).unwrap());
    fs::remove_dir_all(&base).ok();
}

#[test]
fn truncated_artifacts_are_clean_misses() {
    use lockdoc_platform::rng::Rng;

    let base = fresh_dir("lockdoc-suite-corpus-truncate");
    let t1 = base.join("a.ldoc");
    let t2 = base.join("b.ldoc");
    record(&t1, "51", None);
    record(&t2, "52", Some("pipes=1"));
    let corpus = base.join("corpus");
    let d = corpus.to_str().unwrap();
    let baseline = run(&s(&[
        "corpus",
        "add",
        t1.to_str().unwrap(),
        t2.to_str().unwrap(),
        "--dir",
        d,
    ]))
    .unwrap();
    let cache = corpus.join(".lockdoc-cache");

    // Deterministic coverage of the interesting offsets plus seeded
    // samples (LOCKDOC_PROP_SEED overrides the sampling seed).
    let seed: u64 = std::env::var("LOCKDOC_PROP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0x7451c0);
    let offsets_of = |len: usize, rng: &mut Rng| -> Vec<usize> {
        let mut offs = vec![0, 1, len / 2, len.saturating_sub(1)];
        for _ in 0..3 {
            offs.push(rng.gen_range(0..len));
        }
        offs.retain(|&o| o < len);
        offs
    };
    let mut rng = Rng::seed_from_u64(seed);

    // A matrix artifact truncated at any offset is a miss: the member is
    // rebuilt and the rules do not change (and never panic).
    let ldmtx: Vec<PathBuf> = fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|x| x.to_str()) == Some("ldmtx"))
        .collect();
    let victim = ldmtx.first().expect("matrix artifact");
    let full = fs::read(victim).unwrap();
    for off in offsets_of(full.len(), &mut rng) {
        fs::write(victim, &full[..off]).unwrap();
        let rebuilt = run(&s(&["corpus", "build", "--dir", d])).unwrap();
        assert!(
            rebuilt.contains("matrices: 1 cached, 1 rebuilt"),
            "ldmtx truncated at {off} was not a clean miss:\n{rebuilt}"
        );
        assert_eq!(
            rules_of(&baseline),
            rules_of(&rebuilt),
            "ldmtx truncated at {off} changed the rules"
        );
    }

    // Same for the corpus rules cache: every group merely re-derives.
    let rules_cache = cache.join("corpus.rules.json");
    let full = fs::read(&rules_cache).unwrap();
    for off in offsets_of(full.len(), &mut rng) {
        fs::write(&rules_cache, &full[..off]).unwrap();
        let rebuilt = run(&s(&["corpus", "build", "--dir", d])).unwrap();
        assert_eq!(
            rules_of(&baseline),
            rules_of(&rebuilt),
            "rules cache truncated at {off} changed the rules"
        );
    }

    // And for the single-trace columnar archive (LDARCH1): a truncated
    // archive re-imports from the container, byte-identically.
    let adir = base.join("archive-cache");
    let races_args = s(&[
        "races",
        "--trace",
        t1.to_str().unwrap(),
        "--cache-dir",
        adir.to_str().unwrap(),
        "--json",
    ]);
    let fresh = run(&races_args).unwrap();
    let archive: PathBuf = fs::read_dir(&adir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().and_then(|x| x.to_str()) == Some("ldarc"))
        .expect("archive written");
    let full = fs::read(&archive).unwrap();
    for off in offsets_of(full.len(), &mut rng) {
        fs::write(&archive, &full[..off]).unwrap();
        let again = run(&races_args).unwrap();
        assert_eq!(
            fresh, again,
            "archive truncated at {off} changed the races output"
        );
    }
    fs::remove_dir_all(&base).ok();
}

#[test]
fn serve_once_matches_batch_and_survives_ingest() {
    let base = fresh_dir("lockdoc-suite-corpus-serve");
    let t1 = base.join("a.ldoc");
    let t2 = base.join("b.ldoc");
    record(&t1, "31", None);
    record(&t2, "32", Some("pipes=1"));
    let corpus = base.join("corpus");
    let d = corpus.to_str().unwrap();
    run(&s(&["corpus", "add", t1.to_str().unwrap(), "--dir", d])).unwrap();

    // Queries before and after an in-session ingest: the snapshot swap
    // must be observable (derive output changes to the 2-member corpus).
    let queries = base.join("q.jsonl");
    fs::write(
        &queries,
        format!(
            "{{\"cmd\": \"derive\"}}\n{{\"cmd\": \"add\", \"path\": \"{}\"}}\n\
             {{\"cmd\": \"derive\"}}\n{{\"cmd\": \"order\"}}\n{{\"cmd\": \"races\"}}\n\
             {{\"cmd\": \"lint\"}}\n{{\"cmd\": \"shutdown\"}}\n",
            t2.to_str().unwrap()
        ),
    )
    .unwrap();
    let session = |cache: Option<&Path>, jobs: &str| {
        let mut argv = s(&[
            "serve",
            "--dir",
            d,
            "--once",
            "--input",
            queries.to_str().unwrap(),
            "--jobs",
            jobs,
        ]);
        if let Some(c) = cache {
            argv.extend(s(&["--cache-dir", c.to_str().unwrap()]));
        }
        run(&argv).unwrap()
    };
    let resp = session(None, "4");
    let lines: Vec<Json> = resp.lines().map(|l| parse(l).expect("json")).collect();
    assert_eq!(lines.len(), 7);
    let output = |i: usize| lines[i].get("output").and_then(Json::as_str).unwrap();
    for (i, line) in lines.iter().enumerate() {
        assert_eq!(
            line.get("ok").and_then(Json::as_bool),
            Some(true),
            "line {i}"
        );
    }
    assert_eq!(output(1), "added b.ldoc");

    // Both derive answers equal batch derivations of the corresponding
    // merged corpora; the post-ingest one covers both members, and so do
    // the post-ingest order, races and lint answers.
    let export = |name: &str, cache: Option<&Path>| {
        let out = base.join(name);
        let mut argv = s(&[
            "corpus",
            "export",
            "--dir",
            d,
            "--out",
            out.to_str().unwrap(),
        ]);
        if let Some(c) = cache {
            argv.extend(s(&["--cache-dir", c.to_str().unwrap()]));
        }
        run(&argv).unwrap();
        out
    };
    let merged2 = export("merged2.ldoc", None);
    let batch = |cmd: &str, jobs: &str| {
        run(&s(&[
            cmd,
            "--trace",
            merged2.to_str().unwrap(),
            "--jobs",
            jobs,
        ]))
        .unwrap()
    };
    assert_eq!(
        output(2),
        batch("derive", "1"),
        "post-ingest serve derive != batch"
    );
    assert_ne!(output(0), output(2), "ingest did not swap the snapshot");
    assert_eq!(output(3), batch("order", "2"), "serve order != batch order");
    assert_eq!(output(4), batch("races", "2"), "serve races != batch races");
    assert_eq!(output(5), batch("lint", "2"), "serve lint != batch lint");

    // The export reads no cache: after a warm build and with a fresh
    // cache it writes the same bytes.
    run(&s(&["corpus", "build", "--dir", d])).unwrap();
    let warm = export("merged2-warm.ldoc", None);
    let fresh = export("merged2-fresh.ldoc", Some(&base.join("cache-export")));
    let bytes = fs::read(&merged2).unwrap();
    assert_eq!(
        fs::read(&warm).unwrap(),
        bytes,
        "export differs after a warm build"
    );
    assert_eq!(
        fs::read(&fresh).unwrap(),
        bytes,
        "export differs with a fresh cache"
    );

    // And the serve answers are jobs- and cache-invariant: replay the
    // whole session, ingest included, against the default cache (now
    // warm for both members) and on one worker against a fresh cache.
    let cache1 = base.join("cache-serial");
    for (cache, jobs) in [(None, "4"), (Some(cache1.as_path()), "1")] {
        run(&s(&["corpus", "drop", "b.ldoc", "--dir", d])).unwrap();
        assert_eq!(
            session(cache, jobs),
            resp,
            "serve differs across --jobs / cache temperature ({cache:?}, jobs {jobs})"
        );
    }

    // Serve answers from one import of the merged trace: with or without
    // an add, it leaves no cache file behind.
    let plain = base.join("q-plain.jsonl");
    fs::write(&plain, "{\"cmd\": \"status\"}\n{\"cmd\": \"shutdown\"}\n").unwrap();
    let cache2 = base.join("cache-plain");
    run(&s(&[
        "serve",
        "--dir",
        d,
        "--once",
        "--input",
        plain.to_str().unwrap(),
        "--cache-dir",
        cache2.to_str().unwrap(),
    ]))
    .unwrap();
    for cache in [&cache1, &cache2] {
        let written: Vec<String> = fs::read_dir(cache)
            .map(|rd| {
                rd.map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                    .filter(|n| {
                        n.ends_with(".ldmtx")
                            || n.ends_with(".screen.json")
                            || n == "corpus.rules.json"
                    })
                    .collect()
            })
            .unwrap_or_default();
        assert!(written.is_empty(), "serve wrote {written:?} into {cache:?}");
    }
    fs::remove_dir_all(&base).ok();
}
