//! Integration properties of the static outlier lockset analysis
//! (ISSUE 10): the seeded renderer's injected-outlier oracle is
//! recovered exactly, the whole pipeline is byte-identical at any
//! `--jobs`, the corpus-language parser is a printing fixed point
//! with file-order-invariant output, and no source text, however
//! malformed, makes the analysis panic. The lockset propagation itself
//! is checked against a path-enumerating reference that shares no code
//! with it.

use ksim::srcgen::{render, SrcGenConfig};
use lockdoc_platform::prop::{self, vec_of};
use lockdoc_platform::prop_assert;
use lockdoc_platform::rng::Rng;
use locksrc::ast::{parse_tree, print_program, AccessKind, Function, LockTarget, Program, Stmt};
use locksrc::lockstate::collect_observations;
use locksrc::{analyze_tree, AnalysisConfig, MinerConfig, StaticReport};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

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

/// Regression: statements nested 100,000 deep, as braces or as `if`s
/// chained without braces, overflowed the parser's stack. Past the
/// nesting bound they are read flat, and the ordinary function beside
/// them is analyzed as usual.
#[test]
fn deep_nesting_does_not_overflow_the_stack() {
    const DEPTH: usize = 100_000;
    let braces = format!(
        "static void braces(struct inode *inode)\n{{\n{}{}\n}}\n",
        "{".repeat(DEPTH),
        "}".repeat(DEPTH)
    );
    let ifs = format!(
        "static void ifs(struct inode *inode)\n{{\n{};\n}}\n",
        "if (inode) ".repeat(DEPTH)
    );
    let ordinary = "static void set_state(struct inode *inode)\n{\n\
                    \tspin_lock(&inode->i_lock);\n\tinode->i_state = 1;\n\
                    \tspin_unlock(&inode->i_lock);\n}\n";
    let files = [
        ("fs/braces.c".to_owned(), braces),
        ("fs/ifs.c".to_owned(), ifs),
        ("fs/inode.c".to_owned(), ordinary.to_owned()),
    ];
    let cfg = MinerConfig {
        min_observations: 1,
        ..MinerConfig::default()
    };
    for jobs in [1, 2] {
        let report = analyze_tree(&files, &cfg, jobs);
        assert_eq!((report.files, report.functions), (3, 3), "jobs {jobs}");
        let state: Vec<_> = report
            .patterns
            .iter()
            .map(|p| {
                (
                    p.type_name.as_str(),
                    p.member.as_str(),
                    p.kind.as_str(),
                    p.total,
                )
            })
            .collect();
        assert_eq!(state, [("inode", "i_state", "w", 1)], "jobs {jobs}");
    }
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

// ---------------------------------------------------------------------
// Path-enumerating reference for the lockset propagation
// ---------------------------------------------------------------------

/// An instance in the reference: where it was bound (the root function,
/// then the call sites that led to the binding call) and which
/// parameter it fills, with its declared type. A parameter bound to a
/// caller's variable reuses the caller's instance instead.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct RefInst<'a> {
    sites: Vec<usize>,
    param: usize,
    type_name: &'a str,
}

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum RefLock<'a> {
    Global(&'a str),
    Embedded(RefInst<'a>, &'a str),
}

/// The locks held on one path.
type RefHeld<'a> = BTreeSet<RefLock<'a>>;

/// One observation, owned, in `AccessObservation` field order: type,
/// member, kind, file, line, held, path.
type Obs = (
    String,
    String,
    AccessKind,
    String,
    u32,
    Vec<String>,
    Vec<String>,
);

/// One function activation: its file, the function names from the root
/// (the call string), the site chain that names fresh instances and
/// keys observations, and the parameter bindings.
struct Frame<'a> {
    file: &'a str,
    names: Vec<&'a str>,
    sites: Vec<usize>,
    env: HashMap<&'a str, RefInst<'a>>,
}

/// What one access site in one context has seen so far.
struct Seen<'a> {
    obs: Obs,
    inst: RefInst<'a>,
    held: Option<RefHeld<'a>>,
}

/// A deliberately slow transcription of what the lockset analysis
/// promises: for every root, every chain of call sites within the
/// call-string bound, and every access, the locks held on *all* paths
/// that reach the access. Paths take both arms of each `if` and each
/// loop body 0, 1 or 2 times per entry (enough for a gen/kill lockset,
/// DESIGN §5.9); known callees are inlined with the same positional
/// argument binding, while recursive, over-bound and unknown calls
/// leave the locks alone. Paths that reach a statement with the same
/// held set are carried once, since nothing after it can tell them
/// apart. No CFG, fixpoint, memo or id is involved.
struct Reference<'a> {
    fns: HashMap<&'a str, (&'a str, &'a Function<'a>)>,
    bound: usize,
    seen: BTreeMap<(Vec<usize>, usize), Seen<'a>>,
}

/// Identity of an AST node, to key call sites and access sites.
fn node_id<T>(node: &T) -> usize {
    node as *const T as usize
}

fn callees_of<'a>(stmts: &[Stmt<'a>], out: &mut Vec<&'a str>) {
    for s in stmts {
        match s {
            Stmt::Call { callee, .. } => out.push(callee),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                callees_of(cond, out);
                callees_of(then_body, out);
                callees_of(else_body, out);
            }
            Stmt::Loop { cond, body, .. } => {
                callees_of(cond, out);
                callees_of(body, out);
            }
            _ => {}
        }
    }
}

impl<'a> Reference<'a> {
    fn lock(&self, target: &LockTarget<'a>, frame: &Frame<'a>) -> Option<RefLock<'a>> {
        match *target {
            LockTarget::Global(name) => Some(RefLock::Global(name)),
            LockTarget::Member { base, member } => frame
                .env
                .get(base)
                .map(|inst| RefLock::Embedded(inst.clone(), member)),
        }
    }

    /// Runs `stmts` from every held set in `paths`, returning the held
    /// sets at the end of every path through them.
    fn exec(
        &mut self,
        stmts: &'a [Stmt<'a>],
        mut paths: BTreeSet<RefHeld<'a>>,
        frame: &Frame<'a>,
    ) -> BTreeSet<RefHeld<'a>> {
        for stmt in stmts {
            match stmt {
                Stmt::Acquire { target, .. } | Stmt::Release { target, .. } => {
                    let Some(lock) = self.lock(target, frame) else {
                        continue;
                    };
                    let acquire = matches!(stmt, Stmt::Acquire { .. });
                    paths = paths
                        .into_iter()
                        .map(|mut held| {
                            if acquire {
                                held.insert(lock.clone());
                            } else {
                                held.remove(&lock);
                            }
                            held
                        })
                        .collect();
                }
                Stmt::Access {
                    base,
                    member,
                    kind,
                    line,
                } => {
                    let Some(inst) = frame.env.get(base).filter(|i| i.type_name != "?") else {
                        continue;
                    };
                    let seen = self
                        .seen
                        .entry((frame.sites.clone(), node_id(stmt)))
                        .or_insert_with(|| Seen {
                            obs: (
                                inst.type_name.to_owned(),
                                (*member).to_owned(),
                                *kind,
                                frame.file.to_owned(),
                                *line,
                                Vec::new(),
                                frame.names.iter().map(|n| (*n).to_owned()).collect(),
                            ),
                            inst: inst.clone(),
                            held: None,
                        });
                    for held in &paths {
                        seen.held = Some(match seen.held.take() {
                            None => held.clone(),
                            Some(all) => all.intersection(held).cloned().collect(),
                        });
                    }
                }
                Stmt::Call { callee, args, .. } => {
                    let Some(&(file, func)) = self.fns.get(callee) else {
                        continue; // not in the program
                    };
                    if frame.names.len() >= self.bound || frame.names.contains(callee) {
                        continue; // over the bound, or recursive
                    }
                    let mut sites = frame.sites.clone();
                    sites.push(node_id(stmt));
                    let mut env = HashMap::new();
                    for (i, p) in func.params.iter().enumerate() {
                        let actual = args.get(i).copied().flatten();
                        let inst = match actual.and_then(|a| frame.env.get(a)) {
                            Some(caller) => caller.clone(),
                            None => RefInst {
                                sites: sites.clone(),
                                param: i,
                                type_name: p.type_name.unwrap_or("?"),
                            },
                        };
                        env.insert(p.name, inst);
                    }
                    let mut names = frame.names.clone();
                    names.push(func.name);
                    let callee_frame = Frame {
                        file,
                        names,
                        sites,
                        env,
                    };
                    paths = self.exec(&func.body, paths, &callee_frame);
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    let tested = self.exec(cond, paths, frame);
                    let mut joined = self.exec(then_body, tested.clone(), frame);
                    joined.extend(self.exec(else_body, tested, frame));
                    paths = joined;
                }
                Stmt::Loop { cond, body, .. } => {
                    let mut exits = BTreeSet::new();
                    let mut at_header = paths;
                    for trips in 0..=2 {
                        let tested = self.exec(cond, at_header, frame);
                        exits.extend(tested.iter().cloned());
                        if trips == 2 {
                            break;
                        }
                        at_header = self.exec(body, tested, frame);
                    }
                    paths = exits;
                }
                Stmt::Other => {}
            }
        }
        paths
    }
}

/// The reference observation multiset, sorted.
fn reference_observations(program: &Program<'_>, bound: usize) -> Vec<Obs> {
    let mut fns = HashMap::new();
    let mut names: Vec<&str> = Vec::new();
    let mut called: HashSet<&str> = HashSet::new();
    for file in &program.files {
        for func in &file.functions {
            if !fns.contains_key(func.name) {
                fns.insert(func.name, (file.path, func));
                names.push(func.name);
            }
            let mut out = Vec::new();
            callees_of(&func.body, &mut out);
            called.extend(out);
        }
    }
    // Roots: first definitions no definition calls, then whatever those
    // do not reach.
    let mut roots: Vec<&str> = names
        .iter()
        .copied()
        .filter(|n| !called.contains(n))
        .collect();
    let mut reachable: HashSet<&str> = HashSet::new();
    let mut todo = roots.clone();
    while let Some(name) = todo.pop() {
        if reachable.insert(name) {
            let mut out = Vec::new();
            callees_of(&fns[name].1.body, &mut out);
            todo.extend(out.into_iter().filter(|c| fns.contains_key(c)));
        }
    }
    roots.extend(names.iter().copied().filter(|n| !reachable.contains(n)));

    let mut reference = Reference {
        fns,
        bound,
        seen: BTreeMap::new(),
    };
    for root in roots {
        let (file, func) = reference.fns[root];
        let sites = vec![node_id(func)];
        let mut env = HashMap::new();
        for (i, p) in func.params.iter().enumerate() {
            let inst = RefInst {
                sites: sites.clone(),
                param: i,
                type_name: p.type_name.unwrap_or("?"),
            };
            env.insert(p.name, inst);
        }
        let frame = Frame {
            file,
            names: vec![func.name],
            sites,
            env,
        };
        reference.exec(&func.body, BTreeSet::from([RefHeld::new()]), &frame);
    }
    let mut out: Vec<Obs> = reference
        .seen
        .into_values()
        .map(|seen| {
            let mut obs = seen.obs;
            let mut held: Vec<String> = seen
                .held
                .unwrap_or_default()
                .iter()
                .map(|l| match l {
                    RefLock::Global(name) => format!("G({name})"),
                    RefLock::Embedded(inst, m) if *inst == seen.inst => format!("ES({m})"),
                    RefLock::Embedded(inst, m) => format!("EO({m} in {})", inst.type_name),
                })
                .collect();
            held.sort();
            held.dedup();
            obs.5 = held;
            obs
        })
        .collect();
    out.sort();
    out
}

/// `collect_observations` as owned, sorted [`Obs`].
fn propagated_observations(program: &Program<'_>, bound: usize, jobs: usize) -> Vec<Obs> {
    let cfg = AnalysisConfig {
        max_call_string: bound,
    };
    let mut out: Vec<Obs> = collect_observations(program, &cfg, jobs)
        .into_iter()
        .map(|o| {
            (
                o.type_name.to_owned(),
                o.member.to_owned(),
                o.kind,
                o.file.to_owned(),
                o.line,
                o.held,
                o.path.iter().map(|n| (*n).to_owned()).collect(),
            )
        })
        .collect();
    out.sort();
    out
}

/// Compares the propagation with the reference on one tree.
fn matches_reference(files: &[(String, String)], bound: usize) -> Result<(), String> {
    let program = parse_tree(files, 1);
    let want = reference_observations(&program, bound);
    let got = propagated_observations(&program, bound, 2);
    if want == got {
        return Ok(());
    }
    let first = want
        .iter()
        .zip(&got)
        .position(|(w, g)| w != g)
        .unwrap_or(want.len().min(got.len()));
    Err(format!(
        "bound {bound}: reference has {} observations, propagation {}; first difference at {first}:\n\
         reference:   {:?}\npropagation: {:?}",
        want.len(),
        got.len(),
        want.get(first),
        got.get(first)
    ))
}

/// The lockset propagation computes exactly the path-enumerating
/// reference's observations on small rendered trees.
#[test]
fn propagation_matches_the_path_reference_on_srcgen_trees() {
    for seed in [1u64, 5, 42] {
        for sites_per_rule in [1u32, 2] {
            let corpus = render(&SrcGenConfig {
                seed,
                sites_per_rule,
            });
            for bound in [2usize, 4] {
                if let Err(e) = matches_reference(&corpus.files, bound) {
                    panic!("seed {seed}, {sites_per_rule} sites per rule: {e}");
                }
            }
        }
    }
}

/// A random program: its files and the call-string bound to analyze it
/// at. Not shrunk: a cut-down text would no longer keep the generator's
/// rule that parameter locks are released where they were taken.
#[derive(Debug, Clone)]
struct RandomProgram {
    files: Vec<(String, String)>,
    bound: usize,
}

impl prop::Shrink for RandomProgram {}

/// What the statement generator may name inside one function.
struct GenScope<'g> {
    me: usize,
    params: &'g [(Option<&'static str>, String)],
    fns: &'g [Vec<(Option<&'static str>, String)>],
}

const LOCK_CALLS: &[(&str, &str)] = &[
    ("spin_lock", "spin_unlock"),
    ("mutex_lock", "mutex_unlock"),
    ("down_write", "up_write"),
];

/// A variable for a member access or a lock operand: usually a
/// parameter, sometimes a name the function does not bind.
fn pick_var(rng: &mut Rng, scope: &GenScope<'_>) -> String {
    match rng.choose(scope.params) {
        Some((_, name)) if !rng.gen_bool(0.1) => name.clone(),
        _ => "q".to_owned(),
    }
}

/// Appends random statements: nested branches and loops, accesses,
/// calls (bound, unbound, wrong arity, recursive, unknown), global
/// locks taken and dropped anywhere, and parameter locks taken only
/// around a block that ends by releasing them, plus stray releases.
/// So a callee never returns holding a lock on an instance its caller
/// cannot name, the one case where the analysis and the paths part
/// ways by design.
fn gen_stmts(rng: &mut Rng, scope: &GenScope<'_>, depth: u32, pad: &str, out: &mut String) {
    for _ in 0..rng.gen_range(1u32..5) {
        let inner = format!("{pad}\t");
        let member = *rng.choose(&["m0", "m1"]).unwrap();
        let lock = *rng.choose(&["l0", "l1"]).unwrap();
        let (acq, rel) = *rng.choose(LOCK_CALLS).unwrap();
        match rng.gen_range(0u32..14) {
            0 => out.push_str(&format!("{pad}{}->{member} = 1;\n", pick_var(rng, scope))),
            1 => out.push_str(&format!("{pad}tmp = {}->{member};\n", pick_var(rng, scope))),
            2 => out.push_str(&format!("{pad}{}->{member} += 2;\n", pick_var(rng, scope))),
            3..=5 => {
                // Mostly forward calls, so chains run deep and a function
                // is reached at several depths; sometimes any function
                // (recursion) or one the program does not define.
                let callee = if scope.me + 1 < scope.fns.len() && rng.gen_bool(0.8) {
                    rng.gen_range(scope.me + 1..scope.fns.len())
                } else {
                    rng.gen_range(0..scope.fns.len() + 1)
                };
                let arity = match scope.fns.get(callee) {
                    Some(params) if !rng.gen_bool(0.1) => params.len(),
                    _ => rng.gen_range(0usize..4),
                };
                let args: Vec<String> = (0..arity)
                    .map(|_| match rng.gen_range(0u32..6) {
                        0 => "0".to_owned(),
                        1 => "zz".to_owned(),
                        2 => format!("{}->{member}", pick_var(rng, scope)),
                        _ => pick_var(rng, scope),
                    })
                    .collect();
                let name = if callee < scope.fns.len() {
                    format!("f{callee}")
                } else {
                    "ext_call".to_owned()
                };
                out.push_str(&format!("{pad}{name}({});\n", args.join(", ")));
            }
            6 if depth > 0 => {
                let cond = if rng.gen_bool(0.5) {
                    format!("{}->{member}", pick_var(rng, scope))
                } else {
                    "c".to_owned()
                };
                out.push_str(&format!("{pad}if ({cond}) {{\n"));
                gen_stmts(rng, scope, depth - 1, &inner, out);
                if rng.gen_bool(0.6) {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    gen_stmts(rng, scope, depth - 1, &inner, out);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            7 if depth > 0 => {
                let var = pick_var(rng, scope);
                let shape = rng.gen_range(0u32..3);
                out.push_str(&match shape {
                    0 => format!("{pad}while ({var}->{member}) {{\n"),
                    1 => format!("{pad}for (i = 0; i < n; i++) {{\n"),
                    _ => format!("{pad}do {{\n"),
                });
                gen_stmts(rng, scope, depth - 1, &inner, out);
                out.push_str(&if shape == 2 {
                    format!("{pad}}} while ({var}->{member});\n")
                } else {
                    format!("{pad}}}\n")
                });
            }
            8 | 9 if depth > 0 => {
                let var = pick_var(rng, scope);
                out.push_str(&format!("{pad}{acq}(&{var}->{lock});\n"));
                gen_stmts(rng, scope, depth - 1, pad, out);
                out.push_str(&format!("{pad}{rel}(&{var}->{lock});\n"));
            }
            10 => out.push_str(&format!("{pad}{rel}(&{}->{lock});\n", pick_var(rng, scope))),
            11 | 12 => out.push_str(&format!("{pad}{acq}(&g{});\n", rng.gen_range(0u32..2))),
            13 => out.push_str(&format!("{pad}{rel}(&g{});\n", rng.gen_range(0u32..2))),
            _ => out.push_str(&format!("{pad}n = n + 1;\n")),
        }
    }
}

/// Renders one function: `static void fK(params)` and a random body.
fn gen_function(rng: &mut Rng, name: &str, scope: &GenScope<'_>, out: &mut String) {
    let params: Vec<String> = scope
        .params
        .iter()
        .map(|(ty, p)| match ty {
            Some(t) => format!("struct {t} *{p}"),
            None => format!("int {p}"),
        })
        .collect();
    let params = if params.is_empty() {
        "void".to_owned()
    } else {
        params.join(", ")
    };
    out.push_str(&format!("static void {name}({params})\n{{\n"));
    gen_stmts(rng, scope, 3, "\t", out);
    out.push_str("}\n\n");
}

/// Three to seven functions over two struct types, calling each other at
/// random (so call chains run deeper than the bound and recursion
/// occurs), analyzed at a random bound; sometimes a second file
/// redefines one of the names, and only the first definition counts.
fn random_program(rng: &mut Rng) -> RandomProgram {
    let fns: Vec<Vec<(Option<&'static str>, String)>> = (0..rng.gen_range(3usize..8))
        .map(|_| {
            (0..rng.gen_range(0usize..4))
                .map(|i| {
                    let ty = *rng
                        .choose(&[Some("inode"), Some("inode"), Some("dentry"), None])
                        .unwrap();
                    (ty, format!("p{i}"))
                })
                .collect()
        })
        .collect();
    let mut a = String::new();
    for (k, params) in fns.iter().enumerate() {
        let scope = GenScope {
            me: k,
            params,
            fns: &fns,
        };
        gen_function(rng, &format!("f{k}"), &scope, &mut a);
    }
    let mut files = vec![("a.c".to_owned(), a)];
    if rng.gen_bool(0.3) {
        let k = rng.gen_range(0..fns.len());
        let mut b = String::new();
        let scope = GenScope {
            me: k,
            params: &fns[k],
            fns: &fns,
        };
        gen_function(rng, &format!("f{k}"), &scope, &mut b);
        files.push(("b.c".to_owned(), b));
    }
    RandomProgram {
        files,
        bound: rng.gen_range(2usize..6),
    }
}

/// The lockset propagation computes exactly the path-enumerating
/// reference's observations on random programs with nested branches
/// and loops, unlocks inside loops, helpers called both locked and
/// unlocked, chains deeper than the bound, recursion and unbound
/// arguments. A memo that ignores the call path goes wrong only when
/// one function is reached at two depths with equal arguments and
/// locks and the bound cuts one of them short, so this property runs
/// four times the configured case count.
#[test]
fn propagation_matches_the_path_reference_on_random_programs() {
    let mut cfg = prop::Config::from_env();
    cfg.cases = cfg.cases.saturating_mul(4);
    prop::check_with(
        &cfg,
        "propagation_matches_the_path_reference_on_random_programs",
        random_program,
        |p| matches_reference(&p.files, p.bound),
    );
}
