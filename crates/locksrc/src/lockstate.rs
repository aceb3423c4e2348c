//! Flow-sensitive, context-sensitive lockset propagation.
//!
//! For every typed member access site the analysis computes the set of
//! locks held on every *realizable* path to it:
//!
//! * **Intra-procedural**: a forward dataflow over the [`crate::cfg`]
//!   basic blocks. The lattice is the powerset of lock values ordered by
//!   ⊇; joins (branch merges, loop headers) intersect, so only locks
//!   held on *all* incoming paths survive — the classic "must-hold"
//!   lockset.
//! * **Inter-procedural**: bounded call-string cloning. Call sites with
//!   a known callee re-analyze the callee body under the caller's
//!   current lockset, with actual arguments bound positionally to the
//!   callee's parameters, up to [`AnalysisConfig::max_call_string`]
//!   frames. The same access site is therefore observed once per
//!   realizable context, each with its own held set and witness call
//!   path — a site under a locked caller and an unlocked caller yields
//!   two distinct observations instead of one merged (and wrong) one.
//!
//! Lock identity is tracked per *instance*: parameters get abstract
//! instance ids at the analysis root and argument binding threads them
//! through calls, so `spin_lock(&a->lock)` in a caller protects
//! `p->member` in the callee exactly when `a` was passed as `p`. At an
//! access the held set is normalized relative to the accessed instance:
//! `ES(lock)` for a lock embedded in the same instance, `EO(lock in T)`
//! for one embedded in another instance, `G(name)` for globals — the
//! same vocabulary the dynamic passes and the rulespec notation use.
//!
//! Analysis roots are the functions never called from inside the
//! program (plus any functions unreachable from those, so no site is
//! silently dropped); chunks of roots are sharded on
//! [`lockdoc_platform::par`] and the observation list is canonically
//! sorted, so output is byte-identical at any worker count.
//!
//! The program is indexed once: one function table holds the first
//! definition of every name, and a single name→id map resolves each
//! call site to a callee id (indexed by the site number
//! [`crate::cfg`] gives it). Root selection, reachability, the
//! recursion check and the call-effect memo key then work on ids. Lock
//! values and observations borrow their names from the parsed program;
//! only the normalized `held` patterns are formatted strings. A
//! function's CFG is built where the function is analysed, not up front
//! for the whole program, so only the CFGs on the current call path are
//! alive at once.

use crate::ast::{AccessKind, Function, LockTarget, Program};
use crate::cfg::{self, Op};
use lockdoc_platform::par::par_map;
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

/// Tuning knobs for the propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Maximum call-string length (frames, including the root). Calls
    /// that would exceed the bound are treated as opaque no-ops; their
    /// sites are still observed from shallower contexts or their own
    /// roots.
    pub max_call_string: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig { max_call_string: 4 }
    }
}

/// One (access site, calling context) observation. Names borrow from
/// the parsed program.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AccessObservation<'a> {
    /// Struct type of the accessed instance.
    pub type_name: &'a str,
    /// Member name.
    pub member: &'a str,
    /// Read or write.
    pub kind: AccessKind,
    /// File containing the access.
    pub file: &'a str,
    /// 1-based line of the access.
    pub line: u32,
    /// Normalized held lockset, sorted (`ES(..)`, `EO(.. in T)`,
    /// `G(..)`).
    pub held: Vec<String>,
    /// Witness call path, root first.
    pub path: Vec<&'a str>,
}

/// An abstract lock value during propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum LockVal<'a> {
    Global(&'a str),
    Embedded { inst: u32, member: &'a str },
}

type LockSet<'a> = BTreeSet<LockVal<'a>>;

/// One entry of the function table: the first definition of a name.
struct FnEntry<'a> {
    file: &'a str,
    func: &'a Function<'a>,
    /// Callee id of each call site, indexed by [`cfg::Op::Call`]'s
    /// `site`; `None` for a callee the program does not define.
    calls: Vec<Option<u32>>,
}

/// Per-root mutable state: instance types and collected observations.
struct RootState<'a> {
    inst_types: Vec<&'a str>,
    obs: Vec<AccessObservation<'a>>,
    /// Memoized call effects: (call path ending in the callee, bound
    /// instances, entry lockset) → exit lockset. Avoids re-running
    /// callee fixpoints during the caller's own fixpoint iteration. The
    /// path is part of the key because the call-string bound (and
    /// recursion cut-off) makes a callee's effect depend on the depth it
    /// is reached at.
    effects: HashMap<EffectKey<'a>, LockSet<'a>>,
}

/// Memo key: (function ids of the call path, callee last; bound
/// instances; entry lockset).
type EffectKey<'a> = (Vec<u32>, Vec<Option<u32>>, LockSet<'a>);

impl<'a> RootState<'a> {
    fn fresh_inst(&mut self, type_name: &'a str) -> u32 {
        self.inst_types.push(type_name);
        (self.inst_types.len() - 1) as u32
    }
}

struct Analyzer<'a> {
    fns: Vec<FnEntry<'a>>,
    cfg: AnalysisConfig,
}

/// One frame's variable environment: name → instance id.
#[derive(Clone)]
struct Env<'a> {
    vars: HashMap<&'a str, u32>,
}

impl<'a> Analyzer<'a> {
    /// Indexes `program` once: the function table (first definition of
    /// each name wins; files are path-sorted, so this is deterministic)
    /// with every call site resolved to a callee id, and the analysis
    /// roots in table order.
    fn index(program: &'a Program<'a>, cfg: AnalysisConfig) -> (Self, Vec<u32>) {
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut fns: Vec<FnEntry<'a>> = Vec::new();
        let mut shadowed: Vec<&Function<'_>> = Vec::new();
        for file in &program.files {
            for func in &file.functions {
                match ids.entry(func.name) {
                    Entry::Vacant(slot) => {
                        slot.insert(fns.len() as u32);
                        fns.push(FnEntry {
                            file: file.path,
                            func,
                            calls: Vec::new(),
                        });
                    }
                    Entry::Occupied(_) => shadowed.push(func),
                }
            }
        }
        for entry in &mut fns {
            cfg::for_each_call(&entry.func.body, &mut |callee| {
                entry.calls.push(ids.get(callee).copied());
            });
        }

        // Roots: functions no definition calls, shadowed ones included.
        let mut called = vec![false; fns.len()];
        for &id in fns.iter().flat_map(|f| &f.calls).flatten() {
            called[id as usize] = true;
        }
        for func in shadowed {
            cfg::for_each_call(&func.body, &mut |callee| {
                if let Some(&id) = ids.get(callee) {
                    called[id as usize] = true;
                }
            });
        }
        let mut roots: Vec<u32> = (0..fns.len() as u32)
            .filter(|&id| !called[id as usize])
            .collect();
        // Functions unreachable from any root (e.g. call cycles among
        // non-roots) become their own roots so their sites are observed.
        let mut reachable = vec![false; fns.len()];
        let mut stack = roots.clone();
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut reachable[id as usize], true) {
                stack.extend(fns[id as usize].calls.iter().flatten());
            }
        }
        roots.extend((0..fns.len() as u32).filter(|&id| !reachable[id as usize]));
        (Analyzer { fns, cfg }, roots)
    }

    fn resolve_lock(&self, target: &LockTarget<'a>, env: &Env<'a>) -> Option<LockVal<'a>> {
        match *target {
            LockTarget::Global(name) => Some(LockVal::Global(name)),
            LockTarget::Member { base, member } => env
                .vars
                .get(base)
                .map(|&inst| LockVal::Embedded { inst, member }),
        }
    }

    /// Binds a call's actual arguments to the callee's parameters.
    /// Unbindable arguments (non-identifiers, unknown variables, arity
    /// mismatches) become fresh opaque instances of the declared type.
    fn bind(
        &self,
        callee: &'a Function<'a>,
        args: &[Option<&'a str>],
        env: &Env<'a>,
        st: &mut RootState<'a>,
    ) -> (Env<'a>, Vec<Option<u32>>) {
        let mut vars = HashMap::new();
        let mut key = Vec::with_capacity(callee.params.len());
        for (i, p) in callee.params.iter().enumerate() {
            let bound = args
                .get(i)
                .copied()
                .flatten()
                .and_then(|name| env.vars.get(name).copied());
            key.push(bound);
            let inst = match bound {
                Some(inst) => inst,
                None => st.fresh_inst(p.type_name.unwrap_or("?")),
            };
            vars.insert(p.name, inst);
        }
        (Env { vars }, key)
    }

    /// Whether a call to `id` from `path` is analysed, rather than
    /// treated as opaque because of the bound or recursion.
    fn descends(&self, id: u32, path: &[u32]) -> bool {
        path.len() < self.cfg.max_call_string && !path.contains(&id)
    }

    /// Computes a call's effect on the lockset (memoized, no
    /// observation recording).
    fn call_effect(
        &self,
        callee: Option<u32>,
        args: &[Option<&'a str>],
        env: &Env<'a>,
        held: &LockSet<'a>,
        path: &[u32],
        st: &mut RootState<'a>,
    ) -> LockSet<'a> {
        let Some(id) = callee else {
            return held.clone(); // extern: assume lock-neutral
        };
        if !self.descends(id, path) {
            return held.clone(); // bound or recursion: opaque
        }
        let (callee_env, key_insts) = self.bind(self.fns[id as usize].func, args, env, st);
        let key = ([path, &[id]].concat(), key_insts, held.clone());
        if let Some(exit) = st.effects.get(&key) {
            return exit.clone();
        }
        let exit = self.run_fn(id, &callee_env, held, &key.0, st, false);
        st.effects.insert(key, exit.clone());
        exit
    }

    /// Runs the intra-procedural fixpoint for function `id` under one
    /// context. When `record` is set, access observations (including
    /// those inside callees) are pushed onto `st.obs`. Returns the
    /// exit lockset.
    fn run_fn(
        &self,
        id: u32,
        env: &Env<'a>,
        entry: &LockSet<'a>,
        path: &[u32],
        st: &mut RootState<'a>,
        record: bool,
    ) -> LockSet<'a> {
        let info = &self.fns[id as usize];
        let graph = cfg::build(info.func);
        let n = graph.blocks.len();
        let mut in_states: Vec<Option<LockSet<'a>>> = vec![None; n];
        in_states[0] = Some(entry.clone());
        // Worklist fixpoint; the lattice only shrinks, so it terminates.
        let mut work: Vec<usize> = vec![0];
        while let Some(b) = work.pop() {
            let Some(state) = in_states[b].clone() else {
                continue;
            };
            let out = self.transfer(info, &graph.blocks[b].ops, state, env, path, st);
            for &succ in &graph.blocks[b].succs {
                let merged = match &in_states[succ] {
                    None => out.clone(),
                    Some(prev) => prev.intersection(&out).cloned().collect(),
                };
                if in_states[succ].as_ref() != Some(&merged) {
                    in_states[succ] = Some(merged);
                    work.push(succ);
                }
            }
        }
        if record {
            for (b, block) in graph.blocks.iter().enumerate() {
                let Some(state) = in_states[b].clone() else {
                    continue;
                };
                self.replay(info, &block.ops, state, env, path, st);
            }
        }
        in_states[graph.exit].clone().unwrap_or_default()
    }

    /// Applies a block's ops to a lockset (no recording).
    fn transfer(
        &self,
        info: &FnEntry<'a>,
        ops: &[Op<'a>],
        mut state: LockSet<'a>,
        env: &Env<'a>,
        path: &[u32],
        st: &mut RootState<'a>,
    ) -> LockSet<'a> {
        for op in ops {
            match op {
                Op::Acquire { target, .. } => {
                    if let Some(l) = self.resolve_lock(target, env) {
                        state.insert(l);
                    }
                }
                Op::Release { target, .. } => {
                    if let Some(l) = self.resolve_lock(target, env) {
                        state.remove(&l);
                    }
                }
                Op::Access { .. } => {}
                Op::Call { site, args, .. } => {
                    state = self.call_effect(info.calls[*site], args, env, &state, path, st);
                }
            }
        }
        state
    }

    /// Re-walks a block with its final in-state, recording access
    /// observations and descending into callees.
    fn replay(
        &self,
        info: &FnEntry<'a>,
        ops: &[Op<'a>],
        mut state: LockSet<'a>,
        env: &Env<'a>,
        path: &[u32],
        st: &mut RootState<'a>,
    ) {
        for op in ops {
            match op {
                Op::Acquire { target, .. } => {
                    if let Some(l) = self.resolve_lock(target, env) {
                        state.insert(l);
                    }
                }
                Op::Release { target, .. } => {
                    if let Some(l) = self.resolve_lock(target, env) {
                        state.remove(&l);
                    }
                }
                Op::Access {
                    base,
                    member,
                    kind,
                    line,
                } => {
                    if let Some(&inst) = env.vars.get(base) {
                        let type_name = st.inst_types[inst as usize];
                        if type_name != "?" {
                            let held = normalize(&state, inst, st);
                            st.obs.push(AccessObservation {
                                type_name,
                                member,
                                kind: *kind,
                                file: info.file,
                                line: *line,
                                held,
                                path: path
                                    .iter()
                                    .map(|&f| self.fns[f as usize].func.name)
                                    .collect(),
                            });
                        }
                    }
                }
                Op::Call { site, args, .. } => {
                    let callee = info.calls[*site];
                    let exit = self.call_effect(callee, args, env, &state, path, st);
                    if let Some(id) = callee.filter(|&id| self.descends(id, path)) {
                        let (callee_env, _) = self.bind(self.fns[id as usize].func, args, env, st);
                        self.run_fn(id, &callee_env, &state, &[path, &[id]].concat(), st, true);
                    }
                    state = exit;
                }
            }
        }
    }

    fn run_root(&self, id: u32) -> Vec<AccessObservation<'a>> {
        let mut st = RootState {
            inst_types: Vec::new(),
            obs: Vec::new(),
            effects: HashMap::new(),
        };
        let params = &self.fns[id as usize].func.params;
        let mut vars = HashMap::new();
        for p in params {
            vars.insert(p.name, st.fresh_inst(p.type_name.unwrap_or("?")));
        }
        self.run_fn(id, &Env { vars }, &LockSet::new(), &[id], &mut st, true);
        st.obs
    }
}

/// Normalizes a lockset relative to the accessed instance.
fn normalize(state: &LockSet<'_>, access_inst: u32, st: &RootState<'_>) -> Vec<String> {
    let mut out: Vec<String> = state
        .iter()
        .map(|l| match l {
            LockVal::Global(name) => format!("G({name})"),
            LockVal::Embedded { inst, member } if *inst == access_inst => format!("ES({member})"),
            LockVal::Embedded { inst, member } => {
                format!("EO({member} in {})", st.inst_types[*inst as usize])
            }
        })
        .collect();
    out.sort();
    out.dedup();
    out
}

/// Computes the held lockset at every typed access site, in every
/// realizable bounded context. Sharded over chunks of analysis roots;
/// the result is canonically sorted and byte-identical at any `jobs`.
/// Observations borrow their names from `program`.
pub fn collect_observations<'a>(
    program: &'a Program<'_>,
    cfg: &AnalysisConfig,
    jobs: usize,
) -> Vec<AccessObservation<'a>> {
    let (analyzer, roots) = Analyzer::index(program, *cfg);
    // Most roots are a few statements long, so they go out in chunks,
    // a few per worker for balance; each chunk sorts its own
    // observations, and the final sort merges the sorted runs.
    let chunk = roots.len().div_ceil(jobs.max(1).saturating_mul(8)).max(1);
    let chunks: Vec<&[u32]> = roots.chunks(chunk).collect();
    let per_chunk = par_map(jobs, &chunks, |ids| {
        let mut obs: Vec<AccessObservation<'a>> =
            ids.iter().flat_map(|&id| analyzer.run_root(id)).collect();
        obs.sort();
        obs
    });
    let mut obs: Vec<AccessObservation<'a>> = per_chunk.into_iter().flatten().collect();
    obs.sort();
    obs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_tree;

    /// Analyzes `src` as one file and hands the observations to `check`.
    fn analyze(src: &str, check: impl FnOnce(&[AccessObservation<'_>])) {
        let files = [("t.c".to_owned(), src.to_owned())];
        let program = parse_tree(&files, 1);
        check(&collect_observations(
            &program,
            &AnalysisConfig::default(),
            1,
        ));
    }

    #[test]
    fn straight_line_lockset_is_tracked() {
        analyze(
            "static void f(struct inode *inode)\n{\n\
             \tspin_lock(&inode->i_lock);\n\tinode->i_state = 1;\n\
             \tspin_unlock(&inode->i_lock);\n\tinode->i_flags = 2;\n}\n",
            |obs| {
                assert_eq!(obs.len(), 2);
                let state = obs.iter().find(|o| o.member == "i_state").unwrap();
                assert_eq!(state.held, vec!["ES(i_lock)"]);
                let flags = obs.iter().find(|o| o.member == "i_flags").unwrap();
                assert!(flags.held.is_empty(), "released before access");
            },
        );
    }

    #[test]
    fn branch_join_intersects() {
        // Lock taken on only one branch: not held at the join.
        analyze(
            "static void f(struct inode *inode, int c)\n{\n\
             \tif (c) {\n\t\tspin_lock(&inode->i_lock);\n\t} else {\n\t\tnop();\n\t}\n\
             \tinode->i_state = 1;\n}\n",
            |obs| {
                let o = obs.iter().find(|o| o.member == "i_state").unwrap();
                assert!(o.held.is_empty());
            },
        );
        // Lock taken on both branches: held at the join.
        analyze(
            "static void f(struct inode *inode, int c)\n{\n\
             \tif (c) {\n\t\tspin_lock(&inode->i_lock);\n\t} else {\n\t\tspin_lock(&inode->i_lock);\n\t}\n\
             \tinode->i_state = 1;\n}\n",
            |obs| {
                let o = obs.iter().find(|o| o.member == "i_state").unwrap();
                assert_eq!(o.held, vec!["ES(i_lock)"]);
            },
        );
    }

    #[test]
    fn loop_body_keeps_enclosing_lock() {
        analyze(
            "static void f(struct inode *inode, int n)\n{\n\
             \tspin_lock(&inode->i_lock);\n\
             \twhile (n) {\n\t\tinode->i_state = n;\n\t}\n\
             \tspin_unlock(&inode->i_lock);\n}\n",
            |obs| {
                let o = obs.iter().find(|o| o.member == "i_state").unwrap();
                assert_eq!(o.held, vec!["ES(i_lock)"]);
            },
        );
    }

    #[test]
    fn lock_released_inside_loop_does_not_survive_the_back_edge() {
        analyze(
            "static void f(struct inode *inode, int n)\n{\n\
             \tspin_lock(&inode->i_lock);\n\
             \twhile (n) {\n\t\tinode->i_state = n;\n\t\tspin_unlock(&inode->i_lock);\n\t}\n}\n",
            |obs| {
                let o = obs.iter().find(|o| o.member == "i_state").unwrap();
                // First iteration holds the lock, later ones do not: the loop
                // header join must drop it.
                assert!(o.held.is_empty());
            },
        );
    }

    #[test]
    fn context_sensitivity_distinguishes_callers() {
        analyze(
            "static void helper(struct inode *inode)\n{\n\tinode->i_state = 1;\n}\n\
             static void locked(struct inode *inode)\n{\n\
             \tspin_lock(&inode->i_lock);\n\thelper(inode);\n\tspin_unlock(&inode->i_lock);\n}\n\
             static void unlocked(struct inode *inode)\n{\n\thelper(inode);\n}\n",
            |obs| {
                assert_eq!(obs.len(), 2, "one observation per context: {obs:?}");
                let locked = obs.iter().find(|o| o.path[0] == "locked").unwrap();
                assert_eq!(locked.held, vec!["ES(i_lock)"]);
                assert_eq!(locked.path, vec!["locked", "helper"]);
                let unlocked = obs.iter().find(|o| o.path[0] == "unlocked").unwrap();
                assert!(unlocked.held.is_empty());
            },
        );
    }

    #[test]
    fn embedded_other_locks_normalize_with_holder_type() {
        analyze(
            "static void f(struct journal_t *journal, struct journal_head *jh)\n{\n\
             \tspin_lock(&journal->j_list_lock);\n\tjh->b_jlist = 1;\n\
             \tspin_unlock(&journal->j_list_lock);\n}\n",
            |obs| {
                let o = obs.iter().find(|o| o.member == "b_jlist").unwrap();
                assert_eq!(o.type_name, "journal_head");
                assert_eq!(o.held, vec!["EO(j_list_lock in journal_t)"]);
            },
        );
    }

    #[test]
    fn call_string_bound_is_respected() {
        // Chain of 5 frames with a bound of 4: the deepest call is
        // opaque, so the access in `leaf` is only seen from its own
        // root-fallback context... which does not exist (leaf is
        // called), so nothing is observed beyond the bound.
        let src = "static void leaf(struct inode *inode)\n{\n\tinode->i_state = 1;\n}\n\
                   static void d3(struct inode *inode)\n{\n\tleaf(inode);\n}\n\
                   static void d2(struct inode *inode)\n{\n\td3(inode);\n}\n\
                   static void d1(struct inode *inode)\n{\n\td2(inode);\n}\n\
                   static void root(struct inode *inode)\n{\n\tspin_lock(&inode->i_lock);\n\td1(inode);\n\tspin_unlock(&inode->i_lock);\n}\n";
        let files = [("t.c".to_owned(), src.to_owned())];
        let program = parse_tree(&files, 1);
        let shallow = collect_observations(&program, &AnalysisConfig { max_call_string: 4 }, 1);
        assert!(shallow.is_empty(), "bound cuts the chain: {shallow:?}");
        let deep = collect_observations(&program, &AnalysisConfig { max_call_string: 8 }, 1);
        assert_eq!(deep.len(), 1);
        assert_eq!(deep[0].held, vec!["ES(i_lock)"]);
        assert_eq!(deep[0].path, vec!["root", "d1", "d2", "d3", "leaf"]);
    }

    #[test]
    fn call_effects_are_memoized_per_call_path() {
        // `mid` is reached from `a` one frame deeper than from `root`,
        // so with a bound of 3 only the direct call reaches `leaf`'s
        // lock: the effect `a` caches for `mid` must not answer for
        // `root`'s own call.
        let src = "static void leaf(void)\n{\n\tspin_lock(&g0);\n}\n\
                   static void mid(void)\n{\n\tleaf();\n}\n\
                   static void a(void)\n{\n\tmid();\n}\n\
                   static void root(struct inode *inode)\n{\n\ta();\n\tmid();\n\tinode->i_state = 1;\n}\n";
        let files = [("t.c".to_owned(), src.to_owned())];
        let program = parse_tree(&files, 1);
        let obs = collect_observations(&program, &AnalysisConfig { max_call_string: 3 }, 1);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].held, vec!["G(g0)"]);
    }

    #[test]
    fn recursion_terminates_and_is_opaque() {
        analyze(
            "static void rec(struct inode *inode, int n)\n{\n\
             \tinode->i_state = n;\n\trec(inode, n);\n}\n",
            |obs| {
                assert_eq!(obs.len(), 1);
            },
        );
    }

    #[test]
    fn observations_are_jobs_invariant() {
        let src = "static void helper(struct inode *inode)\n{\n\tinode->i_state = 1;\n}\n\
                   static void a(struct inode *inode)\n{\n\tspin_lock(&inode->i_lock);\n\thelper(inode);\n\tspin_unlock(&inode->i_lock);\n}\n\
                   static void b(struct inode *inode)\n{\n\thelper(inode);\n}\n\
                   static void c(struct dentry *dentry)\n{\n\tspin_lock(&dentry->d_lock);\n\tdentry->d_flags = 1;\n\tspin_unlock(&dentry->d_lock);\n}\n";
        let files = [("t.c".to_owned(), src.to_owned())];
        let program = parse_tree(&files, 1);
        let serial = collect_observations(&program, &AnalysisConfig::default(), 1);
        for jobs in [2, 4, 8] {
            let par = collect_observations(&program, &AnalysisConfig::default(), jobs);
            assert_eq!(par, serial, "jobs = {jobs}");
        }
    }
}
