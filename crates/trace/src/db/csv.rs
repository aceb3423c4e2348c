//! The CSV tables of the paper's import pipeline (§5, Fig. 6): the
//! post-processed trace, one file per table, that LockDoc loads into
//! MariaDB.
//!
//! One formatter, [`TraceDb::write_csv`], writes each table into any
//! [`io::Write`]: `import --csv-dir` streams it into files, and
//! [`TraceDb::export_csv_tables`] into memory. Names are escaped
//! ([`write_csv_field`]) once per id rather than once per row, and
//! integers are written digit by digit, so a row is a few copies of
//! pre-rendered bytes.

use super::{Allocation, FlowKey, HeldLock, TraceDb};
use crate::codec::write_csv_field;
use std::io::{self, Write};

/// One table of the CSV export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsvTable {
    /// `allocations`: one row per observed allocation.
    Allocations,
    /// `locks`: one row per lock instance.
    Locks,
    /// `txns`: one row per transaction, with its held locks' names.
    Txns,
    /// `accesses`: one row per imported access, joined with its
    /// allocation's type and subclass.
    Accesses,
}

impl CsvTable {
    /// Every table, in export order.
    pub const ALL: [CsvTable; 4] = [
        CsvTable::Allocations,
        CsvTable::Locks,
        CsvTable::Txns,
        CsvTable::Accesses,
    ];

    /// The table's name, which `import --csv-dir` gives its file.
    pub fn name(self) -> &'static str {
        match self {
            CsvTable::Allocations => "allocations",
            CsvTable::Locks => "locks",
            CsvTable::Txns => "txns",
            CsvTable::Accesses => "accesses",
        }
    }

    fn header(self) -> &'static str {
        match self {
            CsvTable::Allocations => "id,addr,size,data_type,subclass,alloc_ts,free_ts\n",
            CsvTable::Locks => "id,addr,name,flavor,is_static,embedded_alloc,embedded_offset\n",
            CsvTable::Txns => "id,flow,start_ts,end_ts,locks\n",
            CsvTable::Accesses => "id,ts,kind,alloc,data_type,subclass,member,size,loc,txn,stack\n",
        }
    }
}

/// A name escaped once, for every row that names it.
struct Field {
    /// The escaped field, quotes included.
    text: Vec<u8>,
    /// Whether `text` is quoted.
    quoted: bool,
}

impl Field {
    fn new(s: &str) -> Self {
        let mut text = Vec::new();
        write_csv_field(&mut text, s);
        // Escaping either copies the name or adds at least two quotes.
        let quoted = text.len() != s.len();
        Self { text, quoted }
    }

    /// The escaped text without its quotes: what this name contributes
    /// to a longer field that is quoted as a whole.
    fn inner(&self) -> &[u8] {
        if self.quoted {
            &self.text[1..self.text.len() - 1]
        } else {
            &self.text
        }
    }
}

impl TraceDb {
    /// Writes `table` as CSV into `out`: its header line, then one line
    /// per row in id order, each passed to `out` in one `write_all` (so a
    /// file sink wants a `BufWriter`).
    ///
    /// Fields holding a comma, a quote or a line break are quoted with
    /// inner quotes doubled (RFC 4180); a location is the one field
    /// `file:line`, and a transaction's held locks the one field of
    /// their names joined by `|`. A flow is written as its `Debug` text
    /// (`Task(TaskId(3))`, `Irq(0)`).
    pub fn write_csv(&self, table: CsvTable, mut out: impl Write) -> io::Result<()> {
        out.write_all(table.header().as_bytes())?;
        let syms: Vec<Field> = self
            .meta
            .strings
            .strings()
            .iter()
            .map(|s| Field::new(s))
            .collect();
        let types: Vec<Field> = self
            .meta
            .data_types
            .iter()
            .map(|dt| Field::new(&dt.name))
            .collect();
        let type_and_subclass = |row: &mut Vec<u8>, a: &Allocation| {
            row.extend_from_slice(&types[a.data_type.index()].text);
            row.push(b',');
            if let Some(s) = a.subclass {
                row.extend_from_slice(&syms[s.index()].text);
            }
            row.push(b',');
        };
        let mut row = Vec::with_capacity(256);
        match table {
            CsvTable::Allocations => {
                for a in &self.allocations {
                    row.clear();
                    push_u64(&mut row, a.id.0);
                    row.push(b',');
                    push_hex(&mut row, a.addr);
                    row.push(b',');
                    push_u64(&mut row, a.size.into());
                    row.push(b',');
                    type_and_subclass(&mut row, a);
                    push_u64(&mut row, a.alloc_ts);
                    row.push(b',');
                    if let Some(t) = a.free_ts {
                        push_u64(&mut row, t);
                    }
                    row.push(b'\n');
                    out.write_all(&row)?;
                }
            }
            CsvTable::Locks => {
                for l in &self.locks {
                    row.clear();
                    push_u64(&mut row, l.id.0.into());
                    row.push(b',');
                    push_hex(&mut row, l.addr);
                    row.push(b',');
                    row.extend_from_slice(&syms[l.name.index()].text);
                    row.push(b',');
                    row.extend_from_slice(l.flavor.c_name().as_bytes());
                    row.extend_from_slice(if l.is_static { b",true," } else { b",false," });
                    if let Some((a, o)) = l.embedded_in {
                        push_u64(&mut row, a.0);
                        row.push(b',');
                        push_u64(&mut row, o.into());
                    } else {
                        row.push(b',');
                    }
                    row.push(b'\n');
                    out.write_all(&row)?;
                }
            }
            CsvTable::Txns => {
                for t in self.txns.iter() {
                    row.clear();
                    push_u64(&mut row, t.id.0);
                    row.push(b',');
                    push_flow(&mut row, t.flow);
                    row.push(b',');
                    push_u64(&mut row, t.start_ts);
                    row.push(b',');
                    push_u64(&mut row, t.end_ts);
                    row.push(b',');
                    // The names joined by `|` are one field, quoted when
                    // any name needs it.
                    let name = |h: &HeldLock| &syms[self.lock(h.lock).name.index()];
                    let quoted = t.locks.iter().any(|h| name(h).quoted);
                    if quoted {
                        row.push(b'"');
                    }
                    for (i, h) in t.locks.iter().enumerate() {
                        if i > 0 {
                            row.push(b'|');
                        }
                        row.extend_from_slice(name(h).inner());
                    }
                    if quoted {
                        row.push(b'"');
                    }
                    row.push(b'\n');
                    out.write_all(&row)?;
                }
            }
            CsvTable::Accesses => {
                // `alloc,data_type,subclass,` once per allocation.
                let mut prefixes = Vec::new();
                let mut prefix_ends = Vec::with_capacity(self.allocations.len() + 1);
                prefix_ends.push(0);
                for a in &self.allocations {
                    push_u64(&mut prefixes, a.id.0);
                    prefixes.push(b',');
                    type_and_subclass(&mut prefixes, a);
                    prefix_ends.push(prefixes.len());
                }
                let members: Vec<Vec<Field>> = self
                    .meta
                    .data_types
                    .iter()
                    .map(|dt| dt.members.iter().map(|m| Field::new(&m.name)).collect())
                    .collect();
                let t = &self.accesses;
                for i in 0..t.len() {
                    row.clear();
                    push_u64(&mut row, i as u64);
                    row.push(b',');
                    push_u64(&mut row, t.ts[i]);
                    row.push(b',');
                    row.extend_from_slice(t.kind[i].tag().as_bytes());
                    row.push(b',');
                    let a = t.alloc[i] as usize;
                    row.extend_from_slice(&prefixes[prefix_ends[a]..prefix_ends[a + 1]]);
                    let data_type = self.allocations[a].data_type.index();
                    row.extend_from_slice(&members[data_type][t.member[i] as usize].text);
                    row.push(b',');
                    push_u64(&mut row, t.size[i].into());
                    row.push(b',');
                    // `file:line` is one field, quoted when the file name
                    // needs it.
                    let file = &syms[t.loc_file[i].index()];
                    if file.quoted {
                        row.push(b'"');
                    }
                    row.extend_from_slice(file.inner());
                    row.push(b':');
                    push_u64(&mut row, t.loc_line[i].into());
                    if file.quoted {
                        row.push(b'"');
                    }
                    row.push(b',');
                    push_u64(&mut row, t.txn[i].into());
                    row.push(b',');
                    push_u64(&mut row, t.stack[i].0.into());
                    row.push(b'\n');
                    out.write_all(&row)?;
                }
            }
        }
        Ok(())
    }

    /// Exports the relational tables as CSV strings keyed by table name,
    /// mirroring the CSV intermediate format of the paper's import
    /// pipeline: [`TraceDb::write_csv`] of every [`CsvTable`] in turn,
    /// each into memory. `import --csv-dir` streams the same bytes into
    /// files instead, without holding a table (`trace.db.csv_export_s` in
    /// the `ingest` benchmark workload measures this in-memory form).
    pub fn export_csv_tables(&self) -> Vec<(String, String)> {
        CsvTable::ALL
            .iter()
            .map(|&table| {
                let mut csv = Vec::new();
                self.write_csv(table, &mut csv)
                    .expect("writing into a Vec cannot fail");
                let csv = String::from_utf8(csv).expect("CSV of UTF-8 names is UTF-8");
                (table.name().to_owned(), csv)
            })
            .collect()
    }
}

/// Appends `v` in decimal.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `v` as `{v:#x}` does: `0x` and lowercase hex digits.
fn push_hex(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 16];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b"0123456789abcdef"[(v & 0xf) as usize];
        v >>= 4;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(b"0x");
    out.extend_from_slice(&digits[at..]);
}

/// Appends `flow` as its `Debug` text.
fn push_flow(out: &mut Vec<u8>, flow: FlowKey) {
    match flow {
        FlowKey::Task(task) => {
            out.extend_from_slice(b"Task(TaskId(");
            push_u64(out, task.0.into());
            out.extend_from_slice(b"))");
        }
        FlowKey::Irq(n) => {
            out.extend_from_slice(b"Irq(");
            push_u64(out, n.into());
            out.push(b')');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::TaskId;

    /// The digit writers render exactly what the `fmt` machinery they
    /// replace did.
    #[test]
    fn integers_and_flows_render_as_fmt_does() {
        for v in [0, 1, 9, 10, 99, 100, 4096, u64::from(u32::MAX), u64::MAX] {
            let mut out = Vec::new();
            push_u64(&mut out, v);
            assert_eq!(out, v.to_string().as_bytes());
            out.clear();
            push_hex(&mut out, v);
            assert_eq!(out, format!("{v:#x}").as_bytes());
        }
        for flow in [
            FlowKey::Task(TaskId(0)),
            FlowKey::Task(TaskId(u32::MAX)),
            FlowKey::Irq(0),
            FlowKey::Irq(1),
            FlowKey::Irq(u8::MAX),
        ] {
            let mut out = Vec::new();
            push_flow(&mut out, flow);
            assert_eq!(out, format!("{flow:?}").as_bytes());
        }
    }
}
