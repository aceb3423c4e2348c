//! Access matrices: observed / folded / write-over-read aggregation
//! (paper Sec. 4.2 and Tab. 1).
//!
//! For every data-structure member we aggregate memory accesses per
//! *observation unit* — a `(transaction, object instance)` pair. The paper
//! counts per transaction; we additionally key by the accessed instance
//! because one transaction may touch the same member of several objects
//! (e.g. `__remove_inode_hash()` writing `i_hash` of three inodes, paper
//! Sec. 7.4), and the embedded-lock descriptors differ per instance.
//!
//! Three views are derived (columns of Tab. 1):
//!
//! * **Observed** — raw access counts per unit,
//! * **Folded** — the binary "was accessed at least once" matrix,
//! * **WoR** (write over read) — units containing both reads and writes of
//!   a member count as *write* units only, because write rules are at least
//!   as restrictive as read rules.

use lockdoc_trace::db::TraceDb;
use lockdoc_trace::event::AccessKind;
use lockdoc_trace::ids::{AllocId, DataTypeId, Sym, TxnId};
use std::collections::BTreeMap;

/// An observation unit: one transaction acting on one object instance.
pub type Unit = (TxnId, AllocId);

/// Raw access counts of one member within one unit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Number of read accesses.
    pub reads: u64,
    /// Number of write accesses.
    pub writes: u64,
}

impl CellCounts {
    /// Folded view: was the member read at least once?
    pub fn folded_read(&self) -> bool {
        self.reads > 0
    }

    /// Folded view: was the member written at least once?
    pub fn folded_write(&self) -> bool {
        self.writes > 0
    }

    /// The write-over-read classification of this unit for the member:
    /// `Some(Write)` if any write occurred, `Some(Read)` for pure reads,
    /// `None` if untouched.
    pub fn wor_kind(&self) -> Option<AccessKind> {
        if self.writes > 0 {
            Some(AccessKind::Write)
        } else if self.reads > 0 {
            Some(AccessKind::Read)
        } else {
            None
        }
    }
}

/// Per-member aggregation over all observation units.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemberMatrix {
    /// Counts per unit.
    pub cells: BTreeMap<Unit, CellCounts>,
}

impl MemberMatrix {
    /// Units relevant for deriving the rule of `kind`, after WoR folding:
    /// write rules use all units with a write; read rules use units with
    /// only reads.
    pub fn relevant_units(&self, kind: AccessKind) -> Vec<Unit> {
        self.cells
            .iter()
            .filter(|(_, c)| c.wor_kind() == Some(kind))
            .map(|(&u, _)| u)
            .collect()
    }

    /// Total observed accesses `(reads, writes)`.
    pub fn totals(&self) -> (u64, u64) {
        self.cells
            .values()
            .fold((0, 0), |(r, w), c| (r + c.reads, w + c.writes))
    }

    /// Number of units whose reads were overridden by a write in the same
    /// unit (the `WoR` column of Tab. 1).
    pub fn wor_overrides(&self) -> u64 {
        self.cells
            .values()
            .filter(|c| c.reads > 0 && c.writes > 0)
            .count() as u64
    }
}

/// The access matrix of one observation group `(data type, subclass)`.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessMatrix {
    /// The group this matrix describes.
    pub data_type: DataTypeId,
    /// Subclass discriminator, if the type is subclassed.
    pub subclass: Option<Sym>,
    /// Per-member matrices, keyed by member index in the type layout.
    pub members: BTreeMap<u32, MemberMatrix>,
}

impl AccessMatrix {
    /// Builds the matrix for `group` from the imported trace by scanning
    /// the access table. The analysis passes do not build matrices: they
    /// read the observation lists and per-row write-over-read bits of
    /// [`crate::evidence::EvidenceIndex`], which `tests/props.rs` pins to
    /// this matrix.
    ///
    /// Every imported access carries a transaction id (lock-free spans are
    /// empty-set transactions), so each access maps to exactly one unit.
    pub fn build(db: &TraceDb, group: (DataTypeId, Option<Sym>)) -> Self {
        let mut members: BTreeMap<u32, MemberMatrix> = BTreeMap::new();
        for a in db.group_accesses(group) {
            let cell = members
                .entry(a.member)
                .or_default()
                .cells
                .entry((a.txn, a.alloc))
                .or_default();
            match a.kind {
                AccessKind::Read => cell.reads += 1,
                AccessKind::Write => cell.writes += 1,
            }
        }
        Self {
            data_type: group.0,
            subclass: group.1,
            members,
        }
    }

    /// Member indices with at least one observation.
    pub fn observed_members(&self) -> Vec<u32> {
        self.members.keys().copied().collect()
    }

    /// The matrix of a single member, if observed.
    pub fn member(&self, member: u32) -> Option<&MemberMatrix> {
        self.members.get(&member)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(reads: u64, writes: u64) -> CellCounts {
        CellCounts { reads, writes }
    }

    #[test]
    fn wor_prefers_writes() {
        assert_eq!(cell(2, 0).wor_kind(), Some(AccessKind::Read));
        assert_eq!(cell(0, 1).wor_kind(), Some(AccessKind::Write));
        assert_eq!(cell(3, 1).wor_kind(), Some(AccessKind::Write));
        assert_eq!(cell(0, 0).wor_kind(), None);
    }

    #[test]
    fn folded_views_are_binary() {
        let c = cell(5, 0);
        assert!(c.folded_read());
        assert!(!c.folded_write());
    }

    #[test]
    fn relevant_units_apply_wor() {
        let mut m = MemberMatrix::default();
        let u1 = (TxnId(1), AllocId(1));
        let u2 = (TxnId(2), AllocId(1));
        let u3 = (TxnId(3), AllocId(2));
        m.cells.insert(u1, cell(2, 0)); // pure read
        m.cells.insert(u2, cell(1, 1)); // read+write -> write
        m.cells.insert(u3, cell(0, 3)); // pure write
        assert_eq!(m.relevant_units(AccessKind::Read), vec![u1]);
        assert_eq!(m.relevant_units(AccessKind::Write), vec![u2, u3]);
        assert_eq!(m.wor_overrides(), 1);
        assert_eq!(m.totals(), (3, 4));
    }
}
