//! Lock-order analysis: a lockdep-style ex-post check on the trace.
//!
//! The paper's locking rules include *order* ("which set of locks in which
//! locking order", Sec. 1), and its related-work discussion contrasts
//! LockDoc with Linux's in-situ `lockdep` validator (Sec. 3.2). This
//! module provides the ex-post counterpart: from the imported trace it
//! builds the **lock-class order graph** — an edge `A -> B` whenever some
//! transaction acquired class `B` while already holding class `A` — and
//! reports cycles, which are potential dead-/livelock hazards
//! (Sec. 2.3: "a wrong order could result in a live- or deadlock").
//!
//! Locks are grouped into *classes* like lockdep does: all `i_lock`
//! instances form one class, global locks are singleton classes. Edges
//! carry witness information (source location, count) so a reported
//! inversion can be tracked to code. [`OrderGraph::build`] names each
//! lock instance's class once and counts edges by class-id pair; class
//! names are materialized only for the finished edges.

use lockdoc_platform::hash::FastMap;
use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::SourceLoc;
use lockdoc_trace::ids::LockId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A lock class: instances that follow the same rules (lockdep's notion).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockClass {
    /// Class name: the variable name for embedded locks (`i_lock in
    /// inode`), the global name otherwise.
    pub name: String,
}

impl fmt::Display for LockClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

/// One directed order edge `from -> to` with witnesses.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderEdge {
    /// Held class.
    pub from: LockClass,
    /// Class acquired while `from` was held.
    pub to: LockClass,
    /// Number of observations.
    pub count: u64,
    /// Source location of one witnessing acquisition.
    pub witness: SourceLoc,
}

/// The order graph plus derived diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OrderGraph {
    /// All edges keyed `(from, to)`.
    pub edges: BTreeMap<(LockClass, LockClass), OrderEdge>,
}

/// A detected order inversion: both `a -> b` and `b -> a` were observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Inversion {
    /// First direction (the more frequent one).
    pub forward: OrderEdge,
    /// Opposite direction (the rarer one — the likely bug).
    pub backward: OrderEdge,
}

/// Resolves the class of a lock instance.
pub fn lock_class(db: &TraceDb, lock: LockId) -> LockClass {
    let li = db.lock(lock);
    let name = match li.embedded_in {
        Some((alloc_id, _)) => {
            let type_name = db
                .allocation(alloc_id)
                .map(|a| db.type_name(a.data_type))
                .unwrap_or("?");
            format!("{} in {}", db.sym(li.name), type_name)
        }
        None => db.sym(li.name).to_owned(),
    };
    LockClass { name }
}

impl OrderGraph {
    /// Builds the order graph from every transaction in the store.
    ///
    /// For a transaction holding `[a, b, c]` in acquisition order, the
    /// edges `a->b`, `a->c` and `b->c` are recorded (each acquisition is
    /// ordered after every lock already held). Same-class pairs (two
    /// `i_lock` instances of different inodes) are skipped: nested
    /// same-class locking needs instance-level rules, which lockdep also
    /// special-cases. An edge's witness is its first observation, in
    /// transaction order.
    ///
    /// Each lock instance's class is resolved once and interned; the
    /// transaction loop counts edges by class-id pair.
    pub fn build(db: &TraceDb) -> Self {
        let instance_classes: Vec<LockClass> = (0..db.locks.len())
            .map(|i| lock_class(db, LockId(i as u32)))
            .collect();
        let mut classes = instance_classes.clone();
        classes.sort_unstable();
        classes.dedup();
        let class_of: Vec<u32> = instance_classes
            .iter()
            .map(|c| classes.binary_search(c).expect("class is interned") as u32)
            .collect();
        // (from, to) class ids -> (count, first witness).
        let mut counts: FastMap<(u32, u32), (u64, SourceLoc)> = FastMap::default();
        for txn in db.txns.iter() {
            let locks = txn.locks;
            for j in 1..locks.len() {
                let to = class_of[locks[j].lock.index()];
                for held in &locks[..j] {
                    let from = class_of[held.lock.index()];
                    if from != to {
                        counts
                            .entry((from, to))
                            .or_insert((0, locks[j].acquired_at))
                            .0 += 1;
                    }
                }
            }
        }
        let edges = counts
            .into_iter()
            .map(|((from, to), (count, witness))| {
                let (from, to) = (&classes[from as usize], &classes[to as usize]);
                let edge = OrderEdge {
                    from: from.clone(),
                    to: to.clone(),
                    count,
                    witness,
                };
                ((from.clone(), to.clone()), edge)
            })
            .collect();
        OrderGraph { edges }
    }

    /// [`OrderGraph::build`]; `_jobs` is unused, as in
    /// [`crate::derive::derive_par`].
    pub fn build_par(db: &TraceDb, _jobs: usize) -> Self {
        Self::build(db)
    }

    /// Number of distinct classes in the graph.
    pub fn class_count(&self) -> usize {
        let mut set = BTreeSet::new();
        for (a, b) in self.edges.keys() {
            set.insert(a.clone());
            set.insert(b.clone());
        }
        set.len()
    }

    /// Direct two-class inversions: pairs observed in both orders.
    pub fn inversions(&self) -> Vec<Inversion> {
        let mut out = Vec::new();
        for ((a, b), fwd) in &self.edges {
            if a >= b {
                continue; // visit each unordered pair once
            }
            if let Some(bwd) = self.edges.get(&(b.clone(), a.clone())) {
                let (forward, backward) = if fwd.count >= bwd.count {
                    (fwd.clone(), bwd.clone())
                } else {
                    (bwd.clone(), fwd.clone())
                };
                out.push(Inversion { forward, backward });
            }
        }
        out.sort_by_key(|inv| std::cmp::Reverse(inv.backward.count));
        out
    }

    /// Deadlock-potential clusters: the strongly connected components of
    /// the class-order graph with more than one node, plus single nodes
    /// carrying a self-edge (Tarjan's algorithm).
    ///
    /// Every pair of classes inside one cluster can be reached from each
    /// other through observed acquisition chains, so a cyclic wait is
    /// constructible — the generalization of the pairwise inversions to
    /// arbitrary-length cycles. `build` never emits self-edges (same-class
    /// nesting is skipped), but hand-assembled graphs can contain them and
    /// a self-edge is a one-node cycle, so it is reported as one.
    pub fn cycles(&self) -> Vec<Vec<LockClass>> {
        // Index the nodes.
        let mut nodes: Vec<LockClass> = Vec::new();
        let mut index_of: BTreeMap<&LockClass, usize> = BTreeMap::new();
        for (a, b) in self.edges.keys() {
            for n in [a, b] {
                if !index_of.contains_key(n) {
                    index_of.insert(n, nodes.len());
                    nodes.push(n.clone());
                }
            }
        }
        let n = nodes.len();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in self.edges.keys() {
            adj[index_of[a]].push(index_of[b]);
        }

        // Iterative Tarjan SCC.
        #[derive(Clone, Copy)]
        struct NodeState {
            index: usize,
            lowlink: usize,
            on_stack: bool,
            visited: bool,
        }
        let mut state = vec![
            NodeState {
                index: 0,
                lowlink: 0,
                on_stack: false,
                visited: false,
            };
            n
        ];
        let mut next_index = 0usize;
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs: Vec<Vec<usize>> = Vec::new();
        // Explicit DFS frames: (node, next child position).
        for start in 0..n {
            if state[start].visited {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&mut (v, ref mut child)) = frames.last_mut() {
                if *child == 0 {
                    state[v].visited = true;
                    state[v].index = next_index;
                    state[v].lowlink = next_index;
                    next_index += 1;
                    stack.push(v);
                    state[v].on_stack = true;
                }
                if *child < adj[v].len() {
                    let w = adj[v][*child];
                    *child += 1;
                    if !state[w].visited {
                        frames.push((w, 0));
                    } else if state[w].on_stack {
                        state[v].lowlink = state[v].lowlink.min(state[w].index);
                    }
                } else {
                    frames.pop();
                    if let Some(&(parent, _)) = frames.last() {
                        let low = state[v].lowlink;
                        state[parent].lowlink = state[parent].lowlink.min(low);
                    }
                    if state[v].lowlink == state[v].index {
                        let mut component = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack underflow");
                            state[w].on_stack = false;
                            component.push(w);
                            if w == v {
                                break;
                            }
                        }
                        let self_loop =
                            component.len() == 1 && adj[component[0]].contains(&component[0]);
                        if component.len() > 1 || self_loop {
                            sccs.push(component);
                        }
                    }
                }
            }
        }
        let mut out: Vec<Vec<LockClass>> = sccs
            .into_iter()
            .map(|mut c| {
                c.sort();
                c.into_iter().map(|i| nodes[i].clone()).collect()
            })
            .collect();
        out.sort();
        out
    }

    /// Renders the canonical order (classes sorted by out-degree minus
    /// in-degree — a heuristic topological ranking) plus the diagnostics.
    pub fn report(&self, db: &TraceDb) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lock-order graph: {} classes, {} edges",
            self.class_count(),
            self.edges.len()
        );
        let inversions = self.inversions();
        if inversions.is_empty() {
            let _ = writeln!(out, "no order inversions observed");
        }
        for inv in &inversions {
            let _ = writeln!(
                out,
                "INVERSION: {} -> {} ({}x) vs {} -> {} ({}x, witness {})",
                inv.forward.from,
                inv.forward.to,
                inv.forward.count,
                inv.backward.from,
                inv.backward.to,
                inv.backward.count,
                db.format_loc(inv.backward.witness)
            );
        }
        for cycle in self.cycles() {
            if cycle.len() > 2 {
                let ring: Vec<String> = cycle.iter().map(|c| c.to_string()).collect();
                let _ = writeln!(out, "CYCLE: {} -> (back)", ring.join(" -> "));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::clock_db;

    #[test]
    fn clock_trace_yields_single_edge_no_inversion() {
        let db = clock_db(1000, 1);
        let graph = OrderGraph::build(&db);
        assert_eq!(graph.edges.len(), 1);
        let edge = graph.edges.values().next().unwrap();
        assert_eq!(edge.from.name, "sec_lock");
        assert_eq!(edge.to.name, "min_lock");
        assert_eq!(edge.count, 16);
        assert!(graph.inversions().is_empty());
        assert!(graph.cycles().is_empty());
    }

    #[test]
    fn inversion_is_detected() {
        // Build a synthetic trace with both orders.
        use lockdoc_trace::event::{AcquireMode, Event, LockFlavor, SourceLoc, Trace};
        use lockdoc_trace::filter::FilterConfig;
        let mut tr = Trace::new();
        let file = tr.meta_mut().strings.intern("x.c");
        let a = tr.meta_mut().strings.intern("lock_a");
        let b = tr.meta_mut().strings.intern("lock_b");
        tr.meta_mut().add_task("t");
        let loc = |l| SourceLoc::new(file, l);
        let mut ts = 0;
        let mut push = |tr: &mut Trace, e| {
            ts += 1;
            tr.push(ts, e);
        };
        for (addr, name) in [(0x10u64, a), (0x20, b)] {
            push(
                &mut tr,
                Event::LockInit {
                    addr,
                    name,
                    flavor: LockFlavor::Spinlock,
                    is_static: true,
                },
            );
        }
        // 5x a->b, 1x b->a.
        for i in 0..6u64 {
            let (first, second) = if i < 5 { (0x10, 0x20) } else { (0x20, 0x10) };
            push(
                &mut tr,
                Event::LockAcquire {
                    addr: first,
                    mode: AcquireMode::Exclusive,
                    loc: loc(1),
                },
            );
            push(
                &mut tr,
                Event::LockAcquire {
                    addr: second,
                    mode: AcquireMode::Exclusive,
                    loc: loc(2),
                },
            );
            push(
                &mut tr,
                Event::LockRelease {
                    addr: second,
                    loc: loc(3),
                },
            );
            push(
                &mut tr,
                Event::LockRelease {
                    addr: first,
                    loc: loc(4),
                },
            );
        }
        // Transactions only materialize at accesses; add one per span.
        // (Rebuild with accesses interleaved.)
        let db = {
            let mut tr2 = Trace::new();
            let file = tr2.meta_mut().strings.intern("x.c");
            let a = tr2.meta_mut().strings.intern("lock_a");
            let b = tr2.meta_mut().strings.intern("lock_b");
            let dt = tr2
                .meta_mut()
                .add_data_type(lockdoc_trace::event::DataTypeDef {
                    name: "obj".into(),
                    size: 8,
                    members: vec![lockdoc_trace::event::MemberDef {
                        name: "v".into(),
                        offset: 0,
                        size: 8,
                        atomic: false,
                        is_lock: false,
                    }],
                });
            tr2.meta_mut().add_task("t");
            let loc = |l| SourceLoc::new(file, l);
            let mut ts = 0;
            let mut push = |tr: &mut Trace, e| {
                ts += 1;
                tr.push(ts, e);
            };
            for (addr, name) in [(0x10u64, a), (0x20, b)] {
                push(
                    &mut tr2,
                    Event::LockInit {
                        addr,
                        name,
                        flavor: LockFlavor::Spinlock,
                        is_static: true,
                    },
                );
            }
            push(
                &mut tr2,
                Event::Alloc {
                    id: lockdoc_trace::ids::AllocId(1),
                    addr: 0x1000,
                    size: 8,
                    data_type: dt,
                    subclass: None,
                },
            );
            for i in 0..6u64 {
                let (first, second) = if i < 5 { (0x10, 0x20) } else { (0x20, 0x10) };
                push(
                    &mut tr2,
                    Event::LockAcquire {
                        addr: first,
                        mode: AcquireMode::Exclusive,
                        loc: loc(1),
                    },
                );
                push(
                    &mut tr2,
                    Event::LockAcquire {
                        addr: second,
                        mode: AcquireMode::Exclusive,
                        loc: loc(2),
                    },
                );
                push(
                    &mut tr2,
                    Event::MemAccess {
                        kind: lockdoc_trace::event::AccessKind::Write,
                        addr: 0x1000,
                        size: 8,
                        loc: loc(3),
                        atomic: false,
                    },
                );
                push(
                    &mut tr2,
                    Event::LockRelease {
                        addr: second,
                        loc: loc(4),
                    },
                );
                push(
                    &mut tr2,
                    Event::LockRelease {
                        addr: first,
                        loc: loc(5),
                    },
                );
            }
            lockdoc_trace::db::import(&tr2, &FilterConfig::with_defaults(), 1)
        };
        let graph = OrderGraph::build(&db);
        let inversions = graph.inversions();
        assert_eq!(inversions.len(), 1);
        let inv = &inversions[0];
        assert_eq!(inv.forward.count, 5);
        assert_eq!(inv.backward.count, 1);
        assert_eq!(inv.forward.from.name, "lock_a");
        // The pair forms one strongly connected component.
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1);
        assert_eq!(cycles[0].len(), 2);
    }

    /// A three-way cycle with no pairwise inversion is invisible to
    /// `inversions()` but caught by the SCC analysis.
    #[test]
    fn tarjan_finds_triangle_cycles() {
        use lockdoc_trace::event::SourceLoc;
        use lockdoc_trace::ids::Sym;
        let mut graph = OrderGraph::default();
        let class = |n: &str| LockClass { name: n.to_owned() };
        let loc = SourceLoc::new(Sym(0), 1);
        for (a, b) in [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d")] {
            graph.edges.insert(
                (class(a), class(b)),
                OrderEdge {
                    from: class(a),
                    to: class(b),
                    count: 1,
                    witness: loc,
                },
            );
        }
        assert!(graph.inversions().is_empty(), "no pairwise inversion");
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1);
        let names: Vec<&str> = cycles[0].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c"], "d is not part of the SCC");
    }

    /// A four-node ring plus a chord: the SCC spans all four nodes.
    #[test]
    fn tarjan_finds_four_node_cycles() {
        use lockdoc_trace::event::SourceLoc;
        use lockdoc_trace::ids::Sym;
        let mut graph = OrderGraph::default();
        let class = |n: &str| LockClass { name: n.to_owned() };
        let loc = SourceLoc::new(Sym(0), 1);
        for (a, b) in [
            ("a", "b"),
            ("b", "c"),
            ("c", "d"),
            ("d", "a"),
            ("b", "d"),
            ("a", "e"),
        ] {
            graph.edges.insert(
                (class(a), class(b)),
                OrderEdge {
                    from: class(a),
                    to: class(b),
                    count: 1,
                    witness: loc,
                },
            );
        }
        assert!(graph.inversions().is_empty(), "no pairwise inversion");
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1);
        let names: Vec<&str> = cycles[0].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "c", "d"], "e is outside the SCC");
    }

    /// A self-edge is a one-node cycle and must be reported; plain
    /// single-node components must not be.
    #[test]
    fn self_edge_forms_single_node_cycle() {
        use lockdoc_trace::event::SourceLoc;
        use lockdoc_trace::ids::Sym;
        let mut graph = OrderGraph::default();
        let class = |n: &str| LockClass { name: n.to_owned() };
        let loc = SourceLoc::new(Sym(0), 1);
        for (a, b) in [("a", "a"), ("a", "b")] {
            graph.edges.insert(
                (class(a), class(b)),
                OrderEdge {
                    from: class(a),
                    to: class(b),
                    count: 1,
                    witness: loc,
                },
            );
        }
        let cycles = graph.cycles();
        assert_eq!(cycles.len(), 1);
        let names: Vec<&str> = cycles[0].iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["a"]);
    }

    #[test]
    fn embedded_locks_form_type_scoped_classes() {
        let db = crate::clock::clock_db(10, 0);
        // The clock example has only global locks; class names are bare.
        let graph = OrderGraph::build(&db);
        for (a, b) in graph.edges.keys() {
            assert!(!a.name.contains(" in "));
            assert!(!b.name.contains(" in "));
        }
    }
}
