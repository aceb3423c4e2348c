//! Integration properties of the static outlier lockset analysis
//! (ISSUE 10): the seeded renderer's injected-outlier oracle is
//! recovered exactly, the whole pipeline is byte-identical at any
//! `--jobs`, the corpus-language parser is a printing fixed point
//! with file-order-invariant output, and no source text, however
//! malformed, makes the analysis panic.

use ksim::srcgen::{render, SrcGenConfig};
use lockdoc_platform::prop::{self, vec_of};
use lockdoc_platform::prop_assert;
use lockdoc_platform::rng::Rng;
use locksrc::ast::{parse_tree, print_program};
use locksrc::{analyze_tree, MinerConfig, StaticReport};
use std::collections::BTreeSet;

/// Tentpole acceptance: across a seed sweep, the static pass reports
/// exactly the planted `(file, line)` deviations — 100 % recall (the
/// acceptance bar is ≥ 90 %) and no false positives on the rendered
/// ground truth.
#[test]
fn planted_outliers_are_recovered_exactly_across_seeds() {
    for seed in [1u64, 7, 42, 1234, 99_999] {
        let corpus = render(&SrcGenConfig {
            seed,
            ..SrcGenConfig::default()
        });
        assert!(!corpus.planted.is_empty(), "seed {seed} plants nothing");
        let report = analyze_tree(&corpus.files, &MinerConfig::default(), 2);
        let reported: BTreeSet<(String, u32)> = report
            .findings
            .iter()
            .map(|f| (f.file.clone(), f.line))
            .collect();
        assert_eq!(
            reported,
            corpus.planted_sites(),
            "seed {seed}: static findings must equal the planted oracle"
        );
        // The expected/observed patterns agree with the fault plan too.
        for p in &corpus.planted {
            let f = report
                .findings
                .iter()
                .find(|f| f.file == p.file && f.line == p.line && f.kind == p.kind)
                .unwrap_or_else(|| panic!("seed {seed}: no finding at {}:{}", p.file, p.line));
            assert_eq!(
                f.expected, p.expected,
                "seed {seed} at {}:{}",
                p.file, p.line
            );
            assert_eq!(
                f.observed, p.observed,
                "seed {seed} at {}:{}",
                p.file, p.line
            );
        }
    }
}

/// The full static report — counts, patterns, ranked findings — is
/// byte-identical at `--jobs` 1 vs 4 (JSON text compared, matching the
/// CLI identity gates).
#[test]
fn static_report_is_jobs_invariant() {
    let corpus = render(&SrcGenConfig::default());
    let serial = analyze_tree(&corpus.files, &MinerConfig::default(), 1);
    let serial_json = lockdoc_platform::json::to_string_pretty(&serial);
    for jobs in [2, 4, 8] {
        let par = analyze_tree(&corpus.files, &MinerConfig::default(), jobs);
        assert_eq!(par, serial, "jobs = {jobs}");
        assert_eq!(
            lockdoc_platform::json::to_string_pretty(&par),
            serial_json,
            "jobs = {jobs}"
        );
    }
}

/// Printing a parsed program and re-parsing it reaches a fixed point in
/// one round (line numbers settle after the first print), on both the
/// rendered ground-truth tree and the synthetic release corpora.
#[test]
fn parser_print_parse_is_a_fixed_point_on_generated_corpora() {
    let mut trees: Vec<Vec<(String, String)>> = Vec::new();
    for seed in [3u64, 42] {
        trees.push(
            render(&SrcGenConfig {
                seed,
                ..SrcGenConfig::default()
            })
            .files,
        );
    }
    let spec = locksrc::CorpusSpec::for_release("v3.10").expect("known release");
    trees.push(spec.generate(11).files);

    for files in &trees {
        let canon = print_program(&parse_tree(files, 1));
        let again = print_program(&parse_tree(&canon, 1));
        assert_eq!(again, canon, "print ∘ parse must be a fixed point");
    }
}

/// Parsing is total-order deterministic: shuffling the input file order
/// yields the same canonical program, at any jobs count.
#[test]
fn parse_tree_is_input_order_and_jobs_invariant() {
    let corpus = render(&SrcGenConfig::default());
    let canon = print_program(&parse_tree(&corpus.files, 1));
    let mut reversed = corpus.files.clone();
    reversed.reverse();
    for jobs in [1usize, 4] {
        assert_eq!(print_program(&parse_tree(&reversed, jobs)), canon);
    }
}

/// Planting a deviation never erodes the majority below the mining
/// threshold: every planted member still derives its ground-truth
/// pattern as the majority.
#[test]
fn planted_members_keep_their_majority_pattern() {
    for seed in [5u64, 42, 77] {
        let corpus = render(&SrcGenConfig {
            seed,
            ..SrcGenConfig::default()
        });
        let report = analyze_tree(&corpus.files, &MinerConfig::default(), 2);
        for p in &corpus.planted {
            let pat = report
                .patterns
                .iter()
                .find(|m| m.type_name == p.type_name && m.member == p.member && m.kind == p.kind)
                .unwrap_or_else(|| {
                    panic!("seed {seed}: no pattern for {}.{}", p.type_name, p.member)
                });
            assert_eq!(pat.majority, p.expected, "seed {seed}");
            assert!(pat.confidence >= 0.75, "seed {seed}: {}", pat.confidence);
        }
    }
}

fn analyze_one(src: &str) -> StaticReport {
    let files = [("fs/x.c".to_owned(), src.to_owned())];
    analyze_tree(&files, &MinerConfig::default(), 1)
}

/// Regression: the lexer's two-character operator check sliced the
/// source as `str`, through the `é` after `+`.
#[test]
fn operator_before_a_multibyte_character_does_not_panic() {
    let report = analyze_one("int a = 1 +é;\n");
    assert_eq!((report.files, report.functions), (1, 0));
}

/// Regression: a file that ends right after `spin_lock(` left a
/// two-token statement, which the call classifier sliced as
/// `toks[2..1]`.
#[test]
fn file_ending_inside_a_lock_call_does_not_panic() {
    let report = analyze_one("static void f(struct inode *inode)\n{\n\tspin_lock(");
    assert_eq!((report.files, report.functions), (1, 1));
}

/// Fragments the text generator splices: statement pieces cut at every
/// awkward place, unbalanced delimiters, comment and literal openers,
/// and multi-byte characters next to operator bytes.
const FRAGMENTS: &[&str] = &[
    "static void f(struct inode *inode)\n{\n",
    "spin_lock(",
    "spin_lock(&inode->i_lock);\n",
    "spin_unlock(&inode->i_lock)",
    "mutex_lock(&sb->s_umount",
    "inode->i_state = 1;\n",
    "inode->",
    "->",
    "+=",
    "+",
    "-",
    "=",
    "==",
    "(",
    ")",
    "{",
    "}",
    ";",
    ",",
    "if (",
    "else ",
    "while (x) ",
    "return;",
    "\"",
    "'",
    "\\",
    "/*",
    "*/",
    "//",
    "#define X \\\n",
    "\n#",
    "\n",
    "é",
    "+é",
    "->é",
    "→",
    "中",
    "🦀",
    "\u{0}",
    "\u{feff}",
];

/// One file of hostile text: a mutated `srcgen` file, a `srcgen` file
/// cut off mid-statement, a splice of [`FRAGMENTS`], or random
/// characters drawn from ASCII and beyond.
fn hostile_text(rng: &mut Rng, srcgen: &[(String, String)]) -> String {
    let (_, file) = rng.choose(srcgen).expect("srcgen renders files");
    match rng.gen_range(0u32..4) {
        0 => {
            let mut text: Vec<char> = file.chars().collect();
            for _ in 0..rng.gen_range(1usize..6) {
                let at = rng.gen_range(0..text.len() + 1);
                match rng.gen_range(0u32..4) {
                    0 => text.truncate(at),
                    1 => {
                        let end = (at + rng.gen_range(1usize..64)).min(text.len());
                        text.drain(at..end);
                    }
                    2 => {
                        let frag = rng.choose(FRAGMENTS).expect("fragments");
                        text.splice(at..at, frag.chars());
                    }
                    _ => {
                        let end = (at + rng.gen_range(1usize..64)).min(text.len());
                        let copy: Vec<char> = text[at..end].to_vec();
                        text.splice(at..at, copy);
                    }
                }
            }
            text.into_iter().collect()
        }
        1 => {
            let cuts: Vec<usize> = file
                .match_indices(['(', ',', '=', '>', '{'])
                .map(|(i, _)| i + 1)
                .collect();
            let cut = rng.choose(&cuts).copied().unwrap_or(file.len());
            file[..cut].to_owned()
        }
        2 => vec_of(rng, 0..80, |r| *r.choose(FRAGMENTS).expect("fragments")).concat(),
        _ => vec_of(rng, 0..400, |r| {
            if r.gen_bool(0.2) {
                char::from_u32(r.gen_range(0x80u32..0x2_0000)).unwrap_or('\u{fffd}')
            } else {
                r.gen_range(0x09u8..0x7f) as char
            }
        })
        .into_iter()
        .collect(),
    }
}

/// The static front end is total: whatever text a source tree holds,
/// `analyze_tree` returns a report instead of panicking.
#[test]
fn analysis_never_panics_on_hostile_text() {
    let srcgen = render(&SrcGenConfig::default()).files;
    let gen = |rng: &mut Rng| {
        let n = rng.gen_range(1usize..3);
        (0..n)
            .map(|i| (format!("fs/f{i}.c"), hostile_text(rng, &srcgen)))
            .collect::<Vec<(String, String)>>()
    };
    prop::check("analysis_never_panics_on_hostile_text", gen, |files| {
        let run = std::panic::catch_unwind(|| analyze_tree(files, &MinerConfig::default(), 1));
        prop_assert!(run.is_ok(), "analyze_tree panicked");
        Ok(())
    });
}
