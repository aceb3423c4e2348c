#!/usr/bin/env bash
# Tier-1 verification, hermetic by construction: the build must succeed
# with no network and no registry cache. Run from anywhere.
#
#   scripts/verify.sh
#
# Fails if:
#   * any default-feature dependency would need crates.io (offline build),
#   * the tree is not rustfmt-clean or clippy raises any warning,
#   * any workspace test fails,
#   * a Cargo.toml reintroduces a registry dependency.
set -euo pipefail

cd "$(dirname "$0")/.."

# --- dependency-policy guard -------------------------------------------------
# Every [dependencies]/[dev-dependencies]/[build-dependencies] entry in every
# manifest must be a path dependency (or the section must be empty). A
# version-only entry means a crates.io dependency snuck back in.
fail=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Extract dependency sections and flag entries that carry a bare version
    # requirement without a `path =` key.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies/) }
        in_deps && /^[a-zA-Z0-9_-]+[ \t]*=/ {
            if ($0 !~ /path[ \t]*=/) print FILENAME ": " $0
        }
    ' "$manifest")
    if [ -n "$bad" ]; then
        echo "registry dependency detected (offline policy violation):" >&2
        echo "$bad" >&2
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "see DESIGN.md 'Offline-first dependency policy'" >&2
    exit 1
fi
echo "dependency policy: OK (path-only dependencies)"

# --- style + lints -----------------------------------------------------------
cargo fmt --all -- --check
cargo clippy --offline --workspace --all-targets -- -D warnings
echo "fmt + clippy: OK"

# --- hermetic build + tests --------------------------------------------------
cargo build --release --offline --workspace
cargo test -q --offline --workspace

# --- evidence-index passes determinism gate ----------------------------------
# derive, check, violations, the race detector, the lock-order graph and
# the consistency lint all read one imported store (all but the order
# graph through one shared evidence index) and must be byte-identical at
# any worker count, in both text and JSON renderings. They run serially at
# every --jobs (no trace question gained from workers, DESIGN.md §5.10),
# so this gate now guards against a parallel path coming back without a
# measured win; the commands that still fork workers are xcheck (its
# static front end), fuzz and trace --shards, gated below. Exercised
# through the real CLI on a freshly generated racy-knob trace (quick
# mode: small op count; the same gate runs below the CLI at jobs 1, 2, 4
# and 8 in tests/races.rs::races_and_lint_are_jobs_invariant and
# tests/props.rs::derive_is_jobs_invariant).
LOCKDOC="$(pwd)/target/release/lockdoc"
GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$GATE_DIR"' EXIT
"$LOCKDOC" trace --ops 800 --racy --out "$GATE_DIR/racy.ldoc" > /dev/null
for cmd in derive check violations races lint order; do
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 1 > "$GATE_DIR/$cmd.1.txt"
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 4 > "$GATE_DIR/$cmd.4.txt"
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 1 --json > "$GATE_DIR/$cmd.1.json"
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 4 --json > "$GATE_DIR/$cmd.4.json"
    diff -u "$GATE_DIR/$cmd.1.txt" "$GATE_DIR/$cmd.4.txt" \
        || { echo "$cmd text output differs between --jobs 1 and --jobs 4" >&2; exit 1; }
    diff -u "$GATE_DIR/$cmd.1.json" "$GATE_DIR/$cmd.4.json" \
        || { echo "$cmd JSON output differs between --jobs 1 and --jobs 4" >&2; exit 1; }
done
grep -q "RACE" "$GATE_DIR/races.1.txt" \
    || { echo "racy-knob trace produced no race candidates" >&2; exit 1; }
echo "derive/check/violations/races/lint/order determinism gate: OK (byte-identical at --jobs 1 and 4)"

# --- fuzz campaign determinism gate -------------------------------------------
# A quick coverage-guided fuzzing campaign must be byte-identical at any
# worker count, in both text and JSON renderings; its candidates run on
# --jobs workers (the same gate runs at scale in the
# fuzz_campaign_scaling bench).
for fmt in "" "--json"; do
    # shellcheck disable=SC2086  # $fmt intentionally word-splits
    "$LOCKDOC" fuzz --budget 2 --ops 160 --seed 1 --jobs 1 $fmt > "$GATE_DIR/fuzz.1$fmt.out"
    # shellcheck disable=SC2086
    "$LOCKDOC" fuzz --budget 2 --ops 160 --seed 1 --jobs 4 $fmt > "$GATE_DIR/fuzz.4$fmt.out"
    diff -u "$GATE_DIR/fuzz.1$fmt.out" "$GATE_DIR/fuzz.4$fmt.out" \
        || { echo "fuzz ${fmt:-text} output differs between --jobs 1 and --jobs 4" >&2; exit 1; }
done
grep -q "fuzz campaign:" "$GATE_DIR/fuzz.1.out" \
    || { echo "fuzz smoke campaign produced no report" >&2; exit 1; }
echo "fuzz determinism gate: OK (byte-identical at --jobs 1 and 4)"

# --- cached-archive identity gate ---------------------------------------------
# Re-opening a trace through --cache-dir must be byte-identical to a fresh
# import, at any worker count, and must actually populate the cache
# (DESIGN.md §5.6; unit-level twin: cache_dir_hits_are_byte_identical_to_
# fresh_imports in crates/cli). Every consumer of the evidence index runs
# on the loaded store, whose access rows name allocations and
# transactions by row.
CACHE_DIR="$GATE_DIR/archive-cache"
for cmd in derive violations races lint order; do
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 1 --json \
        > "$GATE_DIR/$cmd.fresh.json"                           # uncached baseline
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 1 --json \
        --cache-dir "$CACHE_DIR" > "$GATE_DIR/$cmd.miss.json"   # cold: import + write
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 1 --json \
        --cache-dir "$CACHE_DIR" > "$GATE_DIR/$cmd.hit1.json"   # warm, serial
    "$LOCKDOC" "$cmd" --trace "$GATE_DIR/racy.ldoc" --jobs 4 --json \
        --cache-dir "$CACHE_DIR" > "$GATE_DIR/$cmd.hit4.json"   # warm, parallel
    for variant in miss hit1 hit4; do
        diff -u "$GATE_DIR/$cmd.fresh.json" "$GATE_DIR/$cmd.$variant.json" \
            || { echo "$cmd --cache-dir ($variant) differs from fresh import" >&2; exit 1; }
    done
done
ls "$CACHE_DIR"/*.ldarc > /dev/null 2>&1 \
    || { echo "--cache-dir produced no .ldarc archive" >&2; exit 1; }
echo "cached-archive identity gate: OK (miss/hit byte-identical at --jobs 1 and 4)"

# --- corpus + serve determinism gate ------------------------------------------
# `corpus build` and `serve --once` must answer byte-identically at any
# worker count and cache temperature (DESIGN.md §5.7); both run serially
# at every --jobs, so the jobs runs guard against a parallel path coming
# back without a measured win. The jobs runs use
# separate cold cache directories so nothing is shared but the members;
# LOCKDOC_JOBS_FORCE=1 keeps the requested worker counts honest on
# single-core CI runners. The third member is a copy of the first with its
# last byte cut, which screening salvages as degraded.
CORPUS_DIR="$GATE_DIR/corpus"
mkdir -p "$CORPUS_DIR"
"$LOCKDOC" trace --ops 400 --seed 41 --out "$GATE_DIR/c1.ldoc" > /dev/null
"$LOCKDOC" trace --ops 400 --seed 42 --mix pipes=1 --fs pipefs \
    --out "$GATE_DIR/c2.ldoc" > /dev/null
head -c -1 "$GATE_DIR/c1.ldoc" > "$GATE_DIR/c3.ldoc"
"$LOCKDOC" corpus add "$GATE_DIR/c1.ldoc" "$GATE_DIR/c2.ldoc" "$GATE_DIR/c3.ldoc" \
    --dir "$CORPUS_DIR" > /dev/null
"$LOCKDOC" corpus status --dir "$CORPUS_DIR" | grep -q "c3.ldoc: DEGRADED" \
    || { echo "corpus screening did not report the clipped member as degraded" >&2; exit 1; }
LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" corpus build --dir "$CORPUS_DIR" \
    --cache-dir "$GATE_DIR/cc1" --jobs 1 > "$GATE_DIR/corpus.1.txt"
LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" corpus build --dir "$CORPUS_DIR" \
    --cache-dir "$GATE_DIR/cc4" --jobs 4 > "$GATE_DIR/corpus.4.txt"
diff -u "$GATE_DIR/corpus.1.txt" "$GATE_DIR/corpus.4.txt" \
    || { echo "corpus build differs between --jobs 1 and --jobs 4" >&2; exit 1; }
# The streaming screen-and-import of a build must agree with the path that
# still materializes the sanitized trace: the rules section of the build
# equals a batch derive over the trace `corpus export` writes.
# The export is encoded straight into its file; the byte count it prints
# must be the file's size.
"$LOCKDOC" corpus export --dir "$CORPUS_DIR" --cache-dir "$GATE_DIR/ce" \
    --out "$GATE_DIR/corpus.merged.ldoc" > "$GATE_DIR/corpus.export.txt"
exported=$(wc -c < "$GATE_DIR/corpus.merged.ldoc" | tr -d ' ')
grep -q ", $exported bytes\$" "$GATE_DIR/corpus.export.txt" \
    || { echo "corpus export printed a byte count other than its file's $exported" >&2; exit 1; }
"$LOCKDOC" derive --trace "$GATE_DIR/corpus.merged.ldoc" --jobs 1 > "$GATE_DIR/corpus.derive.txt"
for jobs in 1 4; do
    sed -n '/^\[/,$p' "$GATE_DIR/corpus.$jobs.txt" | diff -u "$GATE_DIR/corpus.derive.txt" - \
        || { echo "corpus build --jobs $jobs rules differ from derive over the export" >&2; exit 1; }
done
# The export reads no cache: taken over the cache the build warmed, it is
# the same file.
"$LOCKDOC" corpus export --dir "$CORPUS_DIR" --cache-dir "$GATE_DIR/cc1" \
    --out "$GATE_DIR/corpus.merged.warm.ldoc" > /dev/null
cmp "$GATE_DIR/corpus.merged.ldoc" "$GATE_DIR/corpus.merged.warm.ldoc" \
    || { echo "corpus export over a warm cache differs from the cold export" >&2; exit 1; }
printf '{"cmd": "derive"}\n{"cmd": "races"}\n{"cmd": "lint"}\n{"cmd": "order"}\n{"cmd": "status"}\n{"cmd": "shutdown"}\n' \
    > "$GATE_DIR/queries.jsonl"
LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" serve --dir "$CORPUS_DIR" \
    --cache-dir "$GATE_DIR/sc1" --once --input "$GATE_DIR/queries.jsonl" \
    --jobs 1 > "$GATE_DIR/serve.1.txt"
LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" serve --dir "$CORPUS_DIR" \
    --cache-dir "$GATE_DIR/sc4" --once --input "$GATE_DIR/queries.jsonl" \
    --jobs 4 > "$GATE_DIR/serve.4.txt"
diff -u "$GATE_DIR/serve.1.txt" "$GATE_DIR/serve.4.txt" \
    || { echo "serve --once differs between --jobs 1 and --jobs 4" >&2; exit 1; }
# Serve answers from one import of the merged trace and writes no cache.
if ls "$GATE_DIR/sc1" | grep -qE '\.ldmtx$|\.screen\.json$|^corpus\.rules\.json$'; then
    echo "serve --once wrote a corpus cache file into its --cache-dir" >&2; exit 1
fi
LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" serve --dir "$CORPUS_DIR" \
    --cache-dir "$GATE_DIR/cc1" --once --input "$GATE_DIR/queries.jsonl" \
    --jobs 1 > "$GATE_DIR/serve.warm.txt"
diff -u "$GATE_DIR/serve.1.txt" "$GATE_DIR/serve.warm.txt" \
    || { echo "serve --once over a warm cache differs from a cold one" >&2; exit 1; }
grep -q '"ok":true' "$GATE_DIR/serve.1.txt" \
    || { echo "serve --once answered no query" >&2; exit 1; }
echo "corpus/serve determinism gate: OK (byte-identical at --jobs 1 and 4 and over a warm cache, rules == derive over the export, serve writes no cache)"

# --- crash-recovery gate -------------------------------------------------------
# Interrupting `corpus add` at a fixed injection point (the
# LOCKDOC_CRASH_POINT fuse exits with status 21 at mutating vfs
# operation k) must leave a store that `fsck --repair` returns to
# exactly the pre-op or post-op state, with a byte-identical export
# afterwards (DESIGN.md §5.8; exhaustive in-memory twin: tests/crash.rs).
# Point 6 is the member rename — intent journaled but the member not yet
# visible, so fsck rolls the add back; point 8 is the journal cleanup —
# the member is durable, so fsck rolls it forward.
CRASH_DIR="$GATE_DIR/crash-corpus"
REF_DIR="$GATE_DIR/crash-ref"
mkdir -p "$REF_DIR"
"$LOCKDOC" corpus add "$GATE_DIR/c1.ldoc" --dir "$REF_DIR" > /dev/null
"$LOCKDOC" corpus export --dir "$REF_DIR" --out "$GATE_DIR/crash-ref.ldoc" \
    > /dev/null
for point in 6 8; do
    rm -rf "$CRASH_DIR"
    mkdir -p "$CRASH_DIR"
    set +e
    LOCKDOC_CRASH_POINT=$point "$LOCKDOC" corpus add "$GATE_DIR/c1.ldoc" \
        --dir "$CRASH_DIR" > /dev/null 2>&1
    status=$?
    set -e
    [ "$status" -eq 21 ] \
        || { echo "crash fuse at point $point did not fire (exit $status)" >&2; exit 1; }
    "$LOCKDOC" fsck --dir "$CRASH_DIR" --repair --gc > "$GATE_DIR/fsck.$point.txt"
    grep -q "fsck: repaired" "$GATE_DIR/fsck.$point.txt" \
        || { echo "fsck after crash at point $point repaired nothing" >&2; exit 1; }
    "$LOCKDOC" fsck --dir "$CRASH_DIR" > "$GATE_DIR/fsck.$point.again.txt"
    grep -q "fsck: clean" "$GATE_DIR/fsck.$point.again.txt" \
        || { echo "fsck after crash at point $point did not converge" >&2; exit 1; }
    if [ "$point" -eq 6 ]; then
        # Rolled back: the member never became visible; re-adding it must
        # now succeed cleanly.
        "$LOCKDOC" corpus add "$GATE_DIR/c1.ldoc" --dir "$CRASH_DIR" > /dev/null
    fi
    "$LOCKDOC" corpus export --dir "$CRASH_DIR" \
        --out "$GATE_DIR/crash-$point.ldoc" > /dev/null
    cmp "$GATE_DIR/crash-ref.ldoc" "$GATE_DIR/crash-$point.ldoc" \
        || { echo "export after crash at point $point differs from reference" >&2; exit 1; }
done
echo "crash-recovery gate: OK (roll-back and roll-forward both byte-identical)"

# --- static cross-validation determinism gate ----------------------------------
# `lockdoc xcheck` runs the static outlier lockset analysis over the
# seeded ground-truth source tree and joins it with every dynamic pass;
# the whole report must be byte-identical at any worker count and the
# static findings must recover the renderer's injected-outlier oracle
# exactly (the same gates run across seeds and at jobs 1, 2, 4 and 8 in
# tests/static.rs::planted_outliers_are_recovered_exactly_across_seeds
# and tests/static.rs::static_report_is_jobs_invariant). The static front
# end parses and collects observations on --jobs workers; the dynamic
# passes it joins run serially.
LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" xcheck --trace "$GATE_DIR/racy.ldoc" \
    --seed 42 --jobs 1 > "$GATE_DIR/xcheck.1.txt"
LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" xcheck --trace "$GATE_DIR/racy.ldoc" \
    --seed 42 --jobs 4 > "$GATE_DIR/xcheck.4.txt"
diff -u "$GATE_DIR/xcheck.1.txt" "$GATE_DIR/xcheck.4.txt" \
    || { echo "xcheck output differs between --jobs 1 and --jobs 4" >&2; exit 1; }
grep -q "oracle recall: 100" "$GATE_DIR/xcheck.1.txt" \
    || { echo "static pass failed to recover the injected-outlier oracle" >&2; exit 1; }
grep -q "cross-validation against the dynamic passes" "$GATE_DIR/xcheck.1.txt" \
    || { echo "xcheck printed no per-pass precision/recall table" >&2; exit 1; }
echo "static cross-validation gate: OK (oracle recovered, byte-identical at --jobs 1 and 4)"

# --- static source-tree gate ---------------------------------------------------
# The benchmark's static workload reads its tree from disk with
# `xcheck --src`. A two-file tree, one file carrying a Latin-1 byte in a
# comment (decoded as U+FFFD, DESIGN.md §5.9), must give the same report
# at --jobs 1 and 4 and count both files' functions.
SRC_DIR="$GATE_DIR/src-tree"
mkdir -p "$SRC_DIR/fs"
printf '/* Copyright J\xf6rg */\nstatic void set_a(struct inode *inode)\n{\n\tspin_lock(&inode->i_lock);\n\tinode->i_state = 1;\n\tspin_unlock(&inode->i_lock);\n}\n' \
    > "$SRC_DIR/fs/a.c"
printf 'static void set_b(struct inode *inode)\n{\n\tinode->i_state = 2;\n}\n' \
    > "$SRC_DIR/fs/b.c"
for jobs in 1 4; do
    LOCKDOC_JOBS_FORCE=1 "$LOCKDOC" xcheck --src "$SRC_DIR" --json --jobs "$jobs" \
        > "$GATE_DIR/xcheck-src.$jobs.json"
done
diff -u "$GATE_DIR/xcheck-src.1.json" "$GATE_DIR/xcheck-src.4.json" \
    || { echo "xcheck --src differs between --jobs 1 and --jobs 4" >&2; exit 1; }
grep -q '"functions": 2,' "$GATE_DIR/xcheck-src.1.json" \
    || { echo "xcheck --src did not find both functions of the source tree" >&2; exit 1; }
echo "static source-tree gate: OK (a non-UTF-8 file analyzed, byte-identical at --jobs 1 and 4)"

# --- invariant -> test traceability matrix ------------------------------------
scripts/check_traceability.sh

# --- corruption-oracle soak (optional) ---------------------------------------
# LOCKDOC_PROPS_ITERS=N re-runs the corruption differential suite with N
# property cases per test (default CI runs use the harness default). The
# suite injects seeded corruption (lockdoc_trace::corrupt) and checks the
# resilient importer's quarantine reports against the injection oracle.
# It also runs the bounded-exhaustive ingest property over every
# sequence of up to four events, about two million (an ignored test;
# release build), which also checks on each that a plain import keeps
# the tables a lenient one keeps.
if [ -n "${LOCKDOC_PROPS_ITERS:-}" ]; then
    echo "corruption soak: ${LOCKDOC_PROPS_ITERS} cases per property"
    LOCKDOC_PROP_CASES="${LOCKDOC_PROPS_ITERS}" \
        cargo test -q --offline --test corruption
    cargo test -q --offline --release --test corruption -- --ignored \
        ingest_is_total_over_four_event_sequences
    echo "corruption soak: OK"
fi

# --- crash-consistency soak (optional) ----------------------------------------
# LOCKDOC_CRASH_ITERS=N re-runs the exhaustive crash-recovery property
# (tests/crash.rs) with N adversarial replay seeds per injection point
# (default CI runs use 1 seed per point).
if [ -n "${LOCKDOC_CRASH_ITERS:-}" ]; then
    echo "crash soak: ${LOCKDOC_CRASH_ITERS} adversarial seeds per injection point"
    LOCKDOC_CRASH_ITERS="${LOCKDOC_CRASH_ITERS}" \
        cargo test -q --offline --test crash
    echo "crash soak: OK"
fi

echo "verify: OK"
