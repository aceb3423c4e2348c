//! Identifier newtypes and the string interner used throughout the trace layer.
//!
//! Every entity in a trace — functions, files, lock classes, data types,
//! allocations, tasks — is referred to by a small integer id. Strings are
//! interned once in the [`Interner`] carried by the trace metadata, which
//! keeps the event stream compact and makes equality checks cheap.

use std::collections::HashMap;
use std::fmt;

macro_rules! id_newtype {
    ($(#[$meta:meta])* $name:ident($inner:ty)) => {
        $(#[$meta])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash,
        )]
        pub struct $name(pub $inner);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}#{}", stringify!($name), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(v: $inner) -> Self {
                Self(v)
            }
        }

        impl $name {
            /// Returns the raw integer value of this id.
            pub fn raw(self) -> $inner {
                self.0
            }

            /// Returns the id as a `usize` index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}

id_newtype!(
    /// An interned string.
    Sym(u32)
);
id_newtype!(
    /// A registered data type (e.g. `inode`).
    DataTypeId(u32)
);
id_newtype!(
    /// A member of a data type, scoped to its [`DataTypeId`].
    MemberId(u32)
);
id_newtype!(
    /// A dynamic or static allocation observed in the trace.
    AllocId(u64)
);
id_newtype!(
    /// A kernel control flow (task). Pseudo-tasks represent irq contexts.
    TaskId(u32)
);
id_newtype!(
    /// An instrumented function.
    FnId(u32)
);
id_newtype!(
    /// A deduplicated call-stack snapshot.
    StackId(u32)
);
id_newtype!(
    /// A lock instance, identified at trace time by its address.
    LockId(u32)
);
id_newtype!(
    /// A transaction: a maximal trace span with a fixed set of held locks.
    TxnId(u64)
);

/// A simulated kernel virtual address.
pub type Addr = u64;

/// A monotonically increasing event timestamp (simulated nanoseconds).
pub type Timestamp = u64;

/// Bidirectional string interner.
///
/// # Examples
///
/// ```
/// use lockdoc_trace::ids::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("i_lock");
/// let b = interner.intern("i_lock");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "i_lock");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Interner {
    strings: Vec<String>,
    index: HashMap<String, Sym>,
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `s`, returning its symbol. Idempotent per string value.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.index.get(s) {
            return sym;
        }
        let sym = Sym(self.strings.len() as u32);
        self.strings.push(s.to_owned());
        self.index.insert(s.to_owned(), sym);
        sym
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was not produced by this interner. Use
    /// [`Interner::try_resolve`] when the symbol comes from untrusted
    /// input (a decoded trace) rather than from this process.
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    /// Resolves a symbol back to its string, returning `None` for symbols
    /// this interner never produced (e.g. dangling ids in a corrupted
    /// trace).
    pub fn try_resolve(&self, sym: Sym) -> Option<&str> {
        self.strings.get(sym.index()).map(String::as_str)
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.index.get(s).copied()
    }

    /// Number of interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Whether the interner is empty.
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Iterates over `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), s.as_str()))
    }

    /// The interned strings in symbol order (the serialized form).
    pub fn strings(&self) -> &[String] {
        &self.strings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        assert_ne!(a, b);
        assert_eq!(i.intern("foo"), a);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_round_trips() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = ["a", "b", "c"].iter().map(|s| i.intern(s)).collect();
        let names: Vec<&str> = syms.iter().map(|&s| i.resolve(s)).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn id_display_and_conversions() {
        let id = DataTypeId::from(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(id.index(), 7);
        assert_eq!(format!("{id}"), "DataTypeId#7");
    }
}
