//! Control-flow graphs over parsed function bodies.
//!
//! The lockset propagation (see [`crate::lockstate`]) is a classic
//! forward dataflow problem: it needs basic blocks of *linear* lock
//! operations, accesses and calls, with explicit edges for branches and
//! loops so joins can intersect. This module lowers the structured
//! [`crate::ast::Stmt`] tree into that form. Condition accesses execute
//! in the block that evaluates the condition (before the branch /
//! on every loop iteration), matching C evaluation order.
//!
//! Ops borrow from the function they were lowered from. Each call op
//! carries its *site*, the call's index among the function's calls in
//! source order ([`for_each_call`] visits them in the same order), so a
//! caller can resolve every site to a callee once per function instead
//! of looking the callee name up at every visit.

use crate::ast::{AccessKind, Function, LockTarget, Stmt};

/// One linear operation inside a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum Op<'a> {
    /// Lock acquire.
    Acquire {
        /// The lock operand.
        target: LockTarget<'a>,
        /// Source line.
        line: u32,
    },
    /// Lock release.
    Release {
        /// The lock operand.
        target: LockTarget<'a>,
        /// Source line.
        line: u32,
    },
    /// Struct-member access.
    Access {
        /// Instance variable.
        base: &'a str,
        /// Member name.
        member: &'a str,
        /// Read or write.
        kind: AccessKind,
        /// Source line.
        line: u32,
    },
    /// Call site.
    Call {
        /// Index of the call among the function's calls, in source order.
        site: usize,
        /// Callee name.
        callee: &'a str,
        /// Positional arguments (bare identifiers only).
        args: &'a [Option<&'a str>],
        /// Source line.
        line: u32,
    },
}

/// A basic block: linear ops plus successor edges.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BasicBlock<'a> {
    /// Operations in execution order.
    pub ops: Vec<Op<'a>>,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// A function's control-flow graph. Block 0 is the entry; `exit` is a
/// distinguished empty block every terminating path reaches.
#[derive(Debug, Clone, PartialEq)]
pub struct Cfg<'a> {
    /// Basic blocks; index 0 is the entry.
    pub blocks: Vec<BasicBlock<'a>>,
    /// Index of the exit block.
    pub exit: usize,
}

struct Builder<'a> {
    blocks: Vec<BasicBlock<'a>>,
    /// Call sites lowered so far.
    calls: usize,
}

impl<'a> Builder<'a> {
    fn new_block(&mut self) -> usize {
        self.blocks.push(BasicBlock::default());
        self.blocks.len() - 1
    }

    fn edge(&mut self, from: usize, to: usize) {
        self.blocks[from].succs.push(to);
    }

    /// Lowers `stmts` starting in block `cur`; returns the block that
    /// control falls out of.
    fn lower(&mut self, stmts: &'a [Stmt<'a>], mut cur: usize) -> usize {
        for s in stmts {
            match s {
                Stmt::Acquire { target, line, .. } => {
                    self.blocks[cur].ops.push(Op::Acquire {
                        target: *target,
                        line: *line,
                    });
                }
                Stmt::Release { target, line, .. } => {
                    self.blocks[cur].ops.push(Op::Release {
                        target: *target,
                        line: *line,
                    });
                }
                Stmt::Access {
                    base,
                    member,
                    kind,
                    line,
                } => {
                    self.blocks[cur].ops.push(Op::Access {
                        base,
                        member,
                        kind: *kind,
                        line: *line,
                    });
                }
                Stmt::Call { callee, args, line } => {
                    self.blocks[cur].ops.push(Op::Call {
                        site: self.calls,
                        callee,
                        args,
                        line: *line,
                    });
                    self.calls += 1;
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    ..
                } => {
                    cur = self.lower(cond, cur);
                    let then_entry = self.new_block();
                    let else_entry = self.new_block();
                    self.edge(cur, then_entry);
                    self.edge(cur, else_entry);
                    let then_exit = self.lower(then_body, then_entry);
                    let else_exit = self.lower(else_body, else_entry);
                    let join = self.new_block();
                    self.edge(then_exit, join);
                    self.edge(else_exit, join);
                    cur = join;
                }
                Stmt::Loop { cond, body, .. } => {
                    // Dedicated header block: the back edge and the
                    // entry edge meet here, so the loop join intersects
                    // the pre-loop and end-of-body locksets.
                    let header = self.new_block();
                    self.edge(cur, header);
                    let header_end = self.lower(cond, header);
                    let body_entry = self.new_block();
                    let after = self.new_block();
                    self.edge(header_end, body_entry);
                    self.edge(header_end, after);
                    let body_exit = self.lower(body, body_entry);
                    self.edge(body_exit, header);
                    cur = after;
                }
                Stmt::Other => {}
            }
        }
        cur
    }
}

/// Builds the CFG for one function.
pub fn build<'a>(f: &'a Function<'a>) -> Cfg<'a> {
    let mut b = Builder {
        blocks: Vec::new(),
        calls: 0,
    };
    let entry = b.new_block();
    debug_assert_eq!(entry, 0);
    let last = b.lower(&f.body, entry);
    let exit = b.new_block();
    b.edge(last, exit);
    Cfg {
        blocks: b.blocks,
        exit,
    }
}

/// Visits the callee name of every call in `stmts`, in the order
/// [`build`] numbers their sites.
pub fn for_each_call<'a>(stmts: &[Stmt<'a>], f: &mut impl FnMut(&'a str)) {
    for s in stmts {
        match s {
            Stmt::Call { callee, .. } => f(callee),
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                for_each_call(cond, f);
                for_each_call(then_body, f);
                for_each_call(else_body, f);
            }
            Stmt::Loop { cond, body, .. } => {
                for_each_call(cond, f);
                for_each_call(body, f);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::parse_source;

    fn cfg_of(src: &str) -> (crate::ast::Function<'_>, usize) {
        let f = parse_source("t.c", src);
        let n = f.functions.len();
        (f.functions.into_iter().next().unwrap(), n)
    }

    #[test]
    fn straight_line_body_is_one_block_plus_exit() {
        let (f, n) = cfg_of(
            "static void f(struct inode *inode)\n{\n\tspin_lock(&inode->i_lock);\n\tinode->i_state = 1;\n\tspin_unlock(&inode->i_lock);\n}\n",
        );
        assert_eq!(n, 1);
        let cfg = build(&f);
        assert_eq!(cfg.blocks.len(), 2);
        assert_eq!(cfg.blocks[0].ops.len(), 3);
        assert_eq!(cfg.blocks[0].succs, vec![cfg.exit]);
    }

    #[test]
    fn if_else_produces_diamond() {
        let (f, _) = cfg_of(
            "static void f(struct inode *inode, int c)\n{\n\tif (c) {\n\t\tinode->i_state = 1;\n\t} else {\n\t\tinode->i_state = 2;\n\t}\n}\n",
        );
        let cfg = build(&f);
        // entry, then, else, join, exit.
        assert_eq!(cfg.blocks.len(), 5);
        assert_eq!(cfg.blocks[0].succs.len(), 2);
    }

    #[test]
    fn loop_has_back_edge_to_header() {
        let (f, _) = cfg_of(
            "static void f(struct inode *inode, int n)\n{\n\twhile (n) {\n\t\tinode->i_state = n;\n\t}\n}\n",
        );
        let cfg = build(&f);
        // Some block must have an edge back to an earlier block.
        let has_back_edge = cfg
            .blocks
            .iter()
            .enumerate()
            .any(|(i, b)| b.succs.iter().any(|&s| s <= i && s != cfg.exit));
        assert!(has_back_edge);
    }

    #[test]
    fn call_sites_are_numbered_in_for_each_call_order() {
        let (f, _) = cfg_of(
            "static void f(struct inode *inode, int n)\n{\n\ta(inode);\n\
             \tif (n) {\n\t\tb(inode);\n\t} else {\n\t\tc(n);\n\t}\n\
             \twhile (n) {\n\t\td(inode);\n\t\tif (n) {\n\t\t\te();\n\t\t}\n\t}\n\tg();\n}\n",
        );
        let mut by_site: Vec<(usize, &str)> = build(&f)
            .blocks
            .iter()
            .flat_map(|b| &b.ops)
            .filter_map(|op| match op {
                Op::Call { site, callee, .. } => Some((*site, *callee)),
                _ => None,
            })
            .collect();
        by_site.sort();
        let mut walked = Vec::new();
        for_each_call(&f.body, &mut |c| walked.push(c));
        assert_eq!(walked, ["a", "b", "c", "d", "e", "g"]);
        let sites: Vec<usize> = by_site.iter().map(|s| s.0).collect();
        assert_eq!(sites, (0..walked.len()).collect::<Vec<_>>());
        let names: Vec<&str> = by_site.iter().map(|s| s.1).collect();
        assert_eq!(names, walked);
    }
}
