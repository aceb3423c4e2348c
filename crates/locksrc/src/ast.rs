//! Lexer and parser for the C-like corpus language.
//!
//! The static lockset analysis (DESIGN §5.9) does not need a full C
//! front end: it needs *functions*, *lock/unlock call sites*, and *typed
//! struct-member access sites*, with everything else tolerated and
//! skipped. The parser here is therefore total — any input produces a
//! [`Program`]; constructs it does not understand become [`Stmt::Other`]
//! and never abort the parse. Typing comes from parameter declarations
//! (`struct inode *inode` makes every `inode->member` a typed access),
//! which is exactly how the generated corpora and the rendered
//! ground-truth trees declare their instances.
//!
//! Names are borrowed, not copied: tokens and every AST node hold `&'s
//! str` slices of the source text the caller passed in, so a
//! [`Program<'s>`] lives no longer than that text, and parsing
//! allocates the token vector and the AST's own vectors but no string.
//!
//! Determinism: files are parsed independently (shardable per file) and
//! the resulting [`Program`] orders files by path and functions by
//! source position, so the output is independent of both input file
//! order and worker count.

use lockdoc_platform::par::par_map;
use std::fmt;

/// Read or write side of a member access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AccessKind {
    /// Read access.
    Read,
    /// Write access.
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AccessKind::Read => "r",
            AccessKind::Write => "w",
        })
    }
}

/// The lock operand of an acquire/release call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LockTarget<'s> {
    /// A file- or program-scope lock: `spin_lock(&inode_hash_lock)`.
    Global(&'s str),
    /// A lock embedded in a struct instance: `spin_lock(&inode->i_lock)`.
    Member {
        /// Variable holding the instance (a parameter or local).
        base: &'s str,
        /// Lock member name.
        member: &'s str,
    },
}

/// One parsed statement. Only the lock-relevant shapes are modelled;
/// everything else is [`Stmt::Other`].
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'s> {
    /// Lock acquire (`spin_lock`, `mutex_lock`, `down_write`, …).
    Acquire {
        /// Acquire function name (kept for canonical printing).
        func: &'s str,
        /// The lock operand.
        target: LockTarget<'s>,
        /// 1-based source line.
        line: u32,
    },
    /// Lock release (`spin_unlock`, `mutex_unlock`, `up_write`, …).
    Release {
        /// Release function name.
        func: &'s str,
        /// The lock operand.
        target: LockTarget<'s>,
        /// 1-based source line.
        line: u32,
    },
    /// A struct-member access `base->member`.
    Access {
        /// Variable holding the instance.
        base: &'s str,
        /// Member name.
        member: &'s str,
        /// Read or write.
        kind: AccessKind,
        /// 1-based source line.
        line: u32,
    },
    /// A call to another function in (or outside) the program.
    Call {
        /// Callee name.
        callee: &'s str,
        /// Positional arguments; `Some(name)` for bare identifiers
        /// (bindable to callee parameters), `None` otherwise.
        args: Vec<Option<&'s str>>,
        /// 1-based source line.
        line: u32,
    },
    /// `if` with optional `else`; condition accesses are hoisted into
    /// `cond` (they execute before the branch).
    If {
        /// Member accesses evaluated by the condition.
        cond: Vec<Stmt<'s>>,
        /// Then-branch body.
        then_body: Vec<Stmt<'s>>,
        /// Else-branch body (empty when absent).
        else_body: Vec<Stmt<'s>>,
        /// 1-based source line of the `if`.
        line: u32,
    },
    /// A loop (`while`, `for`, `do`); condition accesses in `cond`.
    Loop {
        /// Member accesses evaluated by the condition.
        cond: Vec<Stmt<'s>>,
        /// Loop body.
        body: Vec<Stmt<'s>>,
        /// 1-based source line of the loop keyword.
        line: u32,
    },
    /// Anything else (declarations, arithmetic, returns, externs).
    Other,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param<'s> {
    /// Struct type name for `struct T *name` parameters, `None` for
    /// scalars (which can never carry member accesses).
    pub type_name: Option<&'s str>,
    /// Parameter name.
    pub name: &'s str,
}

/// One parsed function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function<'s> {
    /// Function name.
    pub name: &'s str,
    /// Parameters in declaration order.
    pub params: Vec<Param<'s>>,
    /// Body statements.
    pub body: Vec<Stmt<'s>>,
    /// 1-based line of the definition.
    pub line: u32,
}

/// One parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceFile<'s> {
    /// File path (as given to the parser).
    pub path: &'s str,
    /// Function definitions in source order.
    pub functions: Vec<Function<'s>>,
}

/// A whole parsed tree, files ordered by path. Borrows every name from
/// the `(path, content)` pairs it was parsed from.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program<'s> {
    /// Parsed files, sorted by path.
    pub files: Vec<SourceFile<'s>>,
}

impl Program<'_> {
    /// Total number of function definitions.
    pub fn function_count(&self) -> usize {
        self.files.iter().map(|f| f.functions.len()).sum()
    }
}

/// Acquire-side lock functions the parser recognizes.
pub const ACQUIRE_FNS: &[&str] = &[
    "spin_lock",
    "spin_lock_irqsave",
    "spin_lock_irq",
    "spin_lock_bh",
    "raw_spin_lock",
    "mutex_lock",
    "mutex_lock_nested",
    "read_lock",
    "write_lock",
    "down_read",
    "down_write",
    "down",
];

/// Release-side lock functions the parser recognizes.
pub const RELEASE_FNS: &[&str] = &[
    "spin_unlock",
    "spin_unlock_irqrestore",
    "spin_unlock_irq",
    "spin_unlock_bh",
    "raw_spin_unlock",
    "mutex_unlock",
    "read_unlock",
    "write_unlock",
    "up_read",
    "up_write",
    "up",
];

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum TokKind<'s> {
    Ident(&'s str),
    Num,
    Str,
    Op(&'static str),
    Char(char),
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Token<'s> {
    kind: TokKind<'s>,
    line: u32,
}

const TWO_CHAR_OPS: &[&str] = &[
    "->", "==", "!=", "<=", ">=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "&&", "||", "<<",
    ">>", "++", "--",
];

/// Tokenizes one file: comments, string/char literals and preprocessor
/// lines are consumed but produce no (or opaque) tokens.
fn lex(src: &str) -> Vec<Token<'_>> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut at_line_start = true;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                at_line_start = true;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'#' if at_line_start => {
                // Preprocessor directive: skip to end of line (handling
                // line continuations).
                while i < bytes.len() && bytes[i] != b'\n' {
                    if bytes[i] == b'\\' && bytes.get(i + 1) == Some(&b'\n') {
                        line += 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                i += 2;
                while i < bytes.len() {
                    if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        i += 2;
                        break;
                    }
                    if bytes[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            b'"' | b'\'' => {
                let quote = c;
                at_line_start = false;
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        i += 2;
                    } else if bytes[i] == quote {
                        i += 1;
                        break;
                    } else {
                        if bytes[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.push(Token {
                    kind: TokKind::Str,
                    line,
                });
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                at_line_start = false;
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Ident(&src[start..i]),
                    line,
                });
            }
            _ if c.is_ascii_digit() => {
                at_line_start = false;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'.' || bytes[i] == b'_')
                {
                    i += 1;
                }
                out.push(Token {
                    kind: TokKind::Num,
                    line,
                });
            }
            _ => {
                at_line_start = false;
                // Compare bytes: `src[i..i + 2]` could end inside a
                // multi-byte character.
                let two = &bytes[i..bytes.len().min(i + 2)];
                if let Some(op) = TWO_CHAR_OPS.iter().find(|o| o.as_bytes() == two) {
                    out.push(Token {
                        kind: TokKind::Op(op),
                        line,
                    });
                    i += 2;
                } else {
                    out.push(Token {
                        kind: TokKind::Char(c as char),
                        line,
                    });
                    i += 1;
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

/// How deep statements may nest (`{`, `if`, `while`, `for`, `do`) before
/// the parser stops building nested statements: past it each statement is
/// read with the flat scan of a simple statement, so neither the parser
/// nor any later walk of the AST recurses deeper. Real kernel code stays
/// far below it; adversarial input (100,000 nested braces) would
/// otherwise overflow the stack.
const MAX_NESTING: usize = 256;

struct Parser<'a, 's> {
    toks: &'a [Token<'s>],
    pos: usize,
    /// Statements being parsed around the current one.
    depth: usize,
}

impl<'a, 's> Parser<'a, 's> {
    fn peek(&self) -> Option<&'a Token<'s>> {
        self.toks.get(self.pos)
    }

    fn is_char(&self, offset: usize, c: char) -> bool {
        matches!(self.toks.get(self.pos + offset), Some(t) if t.kind == TokKind::Char(c))
    }

    fn ident_at(&self, offset: usize) -> Option<&'s str> {
        match self.toks.get(self.pos + offset).map(|t| t.kind) {
            Some(TokKind::Ident(s)) => Some(s),
            _ => None,
        }
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    /// Advances past a balanced `( … )` or `{ … }` starting at the
    /// current token; robust to premature EOF.
    fn skip_balanced(&mut self, open: char, close: char) {
        debug_assert!(self.is_char(0, open));
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.kind {
                TokKind::Char(c) if c == open => depth += 1,
                TokKind::Char(c) if c == close => {
                    depth -= 1;
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                _ => {}
            }
            self.bump();
        }
    }

    /// Collects the token range of a balanced `( … )`, returning the
    /// inner slice.
    fn collect_parens(&mut self) -> &'a [Token<'s>] {
        debug_assert!(self.is_char(0, '('));
        let start = self.pos + 1;
        self.skip_balanced('(', ')');
        let end = self.pos.saturating_sub(1).max(start);
        &self.toks[start..end]
    }

    /// Parses the whole token stream into function definitions.
    fn parse_top(&mut self) -> Vec<Function<'s>> {
        let mut out = Vec::new();
        while self.pos < self.toks.len() {
            if let Some(f) = self.try_function() {
                out.push(f);
            }
        }
        out
    }

    /// Tries to parse a function definition at the current position;
    /// on failure, skips one top-level declaration and returns `None`.
    fn try_function(&mut self) -> Option<Function<'s>> {
        // Scan ahead: a function definition is `… name ( params ) {`.
        let mut j = self.pos;
        while let Some(t) = self.toks.get(j) {
            match &t.kind {
                TokKind::Char(';')
                | TokKind::Char('{')
                | TokKind::Char('(')
                | TokKind::Char('=') => break,
                _ => j += 1,
            }
        }
        let is_fn_header = matches!(self.toks.get(j).map(|t| &t.kind), Some(TokKind::Char('(')))
            && j > self.pos
            && matches!(
                self.toks.get(j - 1).map(|t| &t.kind),
                Some(TokKind::Ident(_))
            );
        if !is_fn_header {
            self.skip_declaration();
            return None;
        }
        let TokKind::Ident(name) = self.toks[j - 1].kind else {
            unreachable!()
        };
        let line = self.toks[j - 1].line;
        self.pos = j;
        let param_toks = self.collect_parens();
        if !self.is_char(0, '{') {
            // Prototype, macro invocation, or initializer — not a body.
            self.skip_declaration();
            return None;
        }
        self.bump(); // '{'
        let body = self.parse_block();
        Some(Function {
            name,
            params: parse_params(param_toks),
            body,
            line,
        })
    }

    /// Skips one non-function top-level declaration (to the next `;`,
    /// skipping balanced braces and parens on the way).
    fn skip_declaration(&mut self) {
        while let Some(t) = self.peek() {
            match t.kind {
                TokKind::Char(';') => {
                    self.bump();
                    return;
                }
                TokKind::Char('{') => self.skip_balanced('{', '}'),
                TokKind::Char('(') => self.skip_balanced('(', ')'),
                _ => self.bump(),
            }
        }
    }

    /// Parses statements until the matching `}` (which is consumed).
    fn parse_block(&mut self) -> Vec<Stmt<'s>> {
        let mut out = Vec::new();
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Char('}') {
                self.bump();
                return out;
            }
            self.parse_stmt(&mut out);
        }
        out
    }

    /// Parses one statement (possibly compound) into `out`; past
    /// [`MAX_NESTING`] every statement is a simple one.
    fn parse_stmt(&mut self, out: &mut Vec<Stmt<'s>>) {
        let Some(first) = self.peek() else { return };
        if self.depth >= MAX_NESTING {
            self.parse_simple(out);
            return;
        }
        self.depth += 1;
        let line = first.line;
        match &first.kind {
            TokKind::Char('{') => {
                self.bump();
                let mut inner = self.parse_block();
                out.append(&mut inner);
            }
            TokKind::Char(';') => self.bump(),
            TokKind::Ident("if") => {
                self.bump();
                let cond = if self.is_char(0, '(') {
                    extract_accesses(self.collect_parens())
                } else {
                    Vec::new()
                };
                let mut then_body = Vec::new();
                self.parse_stmt(&mut then_body);
                let mut else_body = Vec::new();
                if self.ident_at(0) == Some("else") {
                    self.bump();
                    self.parse_stmt(&mut else_body);
                }
                out.push(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                });
            }
            TokKind::Ident("while") => {
                self.bump();
                let cond = if self.is_char(0, '(') {
                    extract_accesses(self.collect_parens())
                } else {
                    Vec::new()
                };
                let mut body = Vec::new();
                self.parse_stmt(&mut body);
                out.push(Stmt::Loop { cond, body, line });
            }
            TokKind::Ident("for") => {
                self.bump();
                let cond = if self.is_char(0, '(') {
                    extract_accesses(self.collect_parens())
                } else {
                    Vec::new()
                };
                let mut body = Vec::new();
                self.parse_stmt(&mut body);
                out.push(Stmt::Loop { cond, body, line });
            }
            TokKind::Ident("do") => {
                self.bump();
                let mut body = Vec::new();
                self.parse_stmt(&mut body);
                let mut cond = Vec::new();
                if self.ident_at(0) == Some("while") {
                    self.bump();
                    if self.is_char(0, '(') {
                        cond = extract_accesses(self.collect_parens());
                    }
                    if self.is_char(0, ';') {
                        self.bump();
                    }
                }
                out.push(Stmt::Loop { cond, body, line });
            }
            _ => self.parse_simple(out),
        }
        self.depth -= 1;
    }

    /// Parses a simple statement: everything up to `;` at bracket depth 0,
    /// found by a flat scan that counts brackets instead of recursing.
    fn parse_simple(&mut self, out: &mut Vec<Stmt<'s>>) {
        let start = self.pos;
        let mut depth = 0i32;
        while let Some(t) = self.peek() {
            match t.kind {
                TokKind::Char('(') | TokKind::Char('{') | TokKind::Char('[') => depth += 1,
                TokKind::Char(')') | TokKind::Char('}') | TokKind::Char(']') => {
                    if depth == 0 && t.kind == TokKind::Char('}') {
                        break; // unterminated statement before block end
                    }
                    depth -= 1;
                }
                TokKind::Char(';') if depth == 0 => break,
                _ => {}
            }
            self.bump();
        }
        let toks = &self.toks[start..self.pos];
        if self.is_char(0, ';') {
            self.bump();
        }
        classify_simple(toks, out);
    }
}

/// Parses a parameter list: `struct T *name` parameters become typed,
/// everything else keeps only its name.
fn parse_params<'s>(toks: &[Token<'s>]) -> Vec<Param<'s>> {
    let mut out = Vec::new();
    for group in split_commas(toks) {
        let idents: Vec<&'s str> = group
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Ident(s) => Some(s),
                _ => None,
            })
            .collect();
        if idents == ["void"] || idents.is_empty() {
            continue;
        }
        let has_star = group.iter().any(|t| t.kind == TokKind::Char('*'));
        let name = *idents.last().unwrap();
        let type_name = if has_star && idents.len() >= 2 && idents[0] == "struct" {
            Some(idents[1])
        } else {
            None
        };
        out.push(Param { type_name, name });
    }
    out
}

/// Splits a token slice on top-level commas.
fn split_commas<'a, 's>(toks: &'a [Token<'s>]) -> Vec<&'a [Token<'s>]> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut start = 0usize;
    for (i, t) in toks.iter().enumerate() {
        match t.kind {
            TokKind::Char('(') | TokKind::Char('{') | TokKind::Char('[') => depth += 1,
            TokKind::Char(')') | TokKind::Char('}') | TokKind::Char(']') => depth -= 1,
            TokKind::Char(',') if depth == 0 => {
                out.push(&toks[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
    out
}

/// True when the token at `i` starts a `base->member` pair whose base is
/// a plain variable (not itself a member chain).
fn member_pair<'s>(toks: &[Token<'s>], i: usize) -> Option<(&'s str, &'s str)> {
    let TokKind::Ident(base) = toks[i].kind else {
        return None;
    };
    if toks.get(i + 1).map(|t| &t.kind) != Some(&TokKind::Op("->")) {
        return None;
    }
    let Some(TokKind::Ident(member)) = toks.get(i + 2).map(|t| t.kind) else {
        return None;
    };
    // Chains (`a->b->c`) have no simple typed base: skip both pairs.
    if i >= 2 && toks[i - 1].kind == TokKind::Op("->") {
        return None;
    }
    if toks.get(i + 3).map(|t| &t.kind) == Some(&TokKind::Op("->")) {
        return None;
    }
    Some((base, member))
}

/// True when the operator token is a (compound) assignment.
fn is_assign_op(kind: &TokKind) -> bool {
    matches!(
        kind,
        TokKind::Char('=')
            | TokKind::Op("+=")
            | TokKind::Op("-=")
            | TokKind::Op("*=")
            | TokKind::Op("/=")
            | TokKind::Op("%=")
            | TokKind::Op("|=")
            | TokKind::Op("&=")
            | TokKind::Op("^=")
            | TokKind::Op("++")
            | TokKind::Op("--")
    )
}

/// Extracts member accesses (as read/write [`Stmt::Access`]) from an
/// expression token slice. A `base->member` directly followed by an
/// assignment operator is a write; everything else is a read. Compound
/// assignments (`+=`, `++`) count as both.
fn extract_accesses<'s>(toks: &[Token<'s>]) -> Vec<Stmt<'s>> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some((base, member)) = member_pair(toks, i) {
            let line = toks[i].line;
            let after = toks.get(i + 3).map(|t| &t.kind);
            let written = after.is_some_and(is_assign_op);
            let compound = written && after != Some(&TokKind::Char('='));
            if written {
                out.push(Stmt::Access {
                    base,
                    member,
                    kind: AccessKind::Write,
                    line,
                });
            }
            if !written || compound {
                out.push(Stmt::Access {
                    base,
                    member,
                    kind: AccessKind::Read,
                    line,
                });
            }
            i += 3;
        } else {
            i += 1;
        }
    }
    out
}

/// Classifies one simple (semicolon-terminated) statement.
fn classify_simple<'s>(toks: &[Token<'s>], out: &mut Vec<Stmt<'s>>) {
    if toks.is_empty() {
        return;
    }
    let line = toks[0].line;
    // Lock acquire/release or plain call: `ident ( … )` spanning the
    // whole statement.
    if let TokKind::Ident(func) = toks[0].kind {
        if toks.get(1).map(|t| &t.kind) == Some(&TokKind::Char('(')) {
            let whole_call = toks.last().map(|t| &t.kind) == Some(&TokKind::Char(')'));
            if whole_call {
                // `(` at 1 and `)` last: at least three tokens.
                let inner = &toks[2..toks.len() - 1];
                let args = split_commas(inner);
                if ACQUIRE_FNS.contains(&func) || RELEASE_FNS.contains(&func) {
                    if let Some(target) = args.first().and_then(|a| parse_lock_target(a)) {
                        out.push(if ACQUIRE_FNS.contains(&func) {
                            Stmt::Acquire { func, target, line }
                        } else {
                            Stmt::Release { func, target, line }
                        });
                        return;
                    }
                    out.push(Stmt::Other);
                    return;
                }
                // Argument expressions may read members.
                let mut reads = extract_accesses(inner);
                out.append(&mut reads);
                out.push(Stmt::Call {
                    callee: func,
                    args: args.iter().map(|a| bare_ident(a)).collect(),
                    line,
                });
                return;
            }
        }
    }
    let mut accesses = extract_accesses(toks);
    if accesses.is_empty() {
        out.push(Stmt::Other);
    } else {
        out.append(&mut accesses);
    }
}

/// Parses a lock operand: `&base->member`, `&name`, or `name`.
fn parse_lock_target<'s>(toks: &[Token<'s>]) -> Option<LockTarget<'s>> {
    let toks = if toks.first().map(|t| &t.kind) == Some(&TokKind::Char('&')) {
        &toks[1..]
    } else {
        toks
    };
    match toks.len() {
        1 => match toks[0].kind {
            TokKind::Ident(name) => Some(LockTarget::Global(name)),
            _ => None,
        },
        3 => member_pair(toks, 0).map(|(base, member)| LockTarget::Member { base, member }),
        _ => None,
    }
}

/// `Some(name)` when the argument is a single bare identifier.
fn bare_ident<'s>(toks: &[Token<'s>]) -> Option<&'s str> {
    match toks {
        [Token {
            kind: TokKind::Ident(s),
            ..
        }] => Some(s),
        _ => None,
    }
}

/// Parses one source file; the result borrows its names from `path`
/// and `src`.
pub fn parse_source<'s>(path: &'s str, src: &'s str) -> SourceFile<'s> {
    let toks = lex(src);
    let mut parser = Parser {
        toks: &toks,
        pos: 0,
        depth: 0,
    };
    SourceFile {
        path,
        functions: parser.parse_top(),
    }
}

/// Parses a whole tree, sharded per file; output is independent of the
/// input file order and of `jobs`, and borrows its names from `files`.
pub fn parse_tree(files: &[(String, String)], jobs: usize) -> Program<'_> {
    let mut sorted: Vec<&(String, String)> = files.iter().collect();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    // Hand out the largest files first, so that a big file picked up
    // last does not leave the other workers idle; results go back into
    // path order.
    let mut order: Vec<usize> = (0..sorted.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(sorted[i].1.len()));
    let mut parsed = par_map(jobs, &order, |&i| {
        let (path, src) = sorted[i];
        (i, parse_source(path, src))
    });
    parsed.sort_by_key(|&(i, _)| i);
    Program {
        files: parsed.into_iter().map(|(_, file)| file).collect(),
    }
}

// ---------------------------------------------------------------------
// Canonical printer (round-trip property support)
// ---------------------------------------------------------------------

/// Renders a program back to canonical C-like source, one string per
/// file. `parse_tree(print_program(p))` reproduces `p` up to line
/// numbers, and printing is a fixed point after one round trip.
pub fn print_program(p: &Program) -> Vec<(String, String)> {
    p.files
        .iter()
        .map(|f| {
            let mut out = String::new();
            for func in &f.functions {
                print_function(func, &mut out);
                out.push('\n');
            }
            (f.path.to_owned(), out)
        })
        .collect()
}

fn print_function(f: &Function, out: &mut String) {
    let params = if f.params.is_empty() {
        "void".to_owned()
    } else {
        f.params
            .iter()
            .map(|p| match &p.type_name {
                Some(t) => format!("struct {t} *{}", p.name),
                None => format!("int {}", p.name),
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str(&format!("static void {}({params})\n{{\n", f.name));
    print_body(&f.body, 1, out);
    out.push_str("}\n");
}

fn print_cond(cond: &[Stmt]) -> String {
    let exprs: Vec<String> = cond
        .iter()
        .filter_map(|s| match s {
            Stmt::Access { base, member, .. } => Some(format!("{base}->{member}")),
            _ => None,
        })
        .collect();
    if exprs.is_empty() {
        "1".to_owned()
    } else {
        exprs.join(" && ")
    }
}

fn print_body(stmts: &[Stmt], depth: usize, out: &mut String) {
    let pad = "\t".repeat(depth);
    for s in stmts {
        match s {
            Stmt::Acquire { func, target, .. } | Stmt::Release { func, target, .. } => {
                let t = match target {
                    LockTarget::Global(name) => format!("&{name}"),
                    LockTarget::Member { base, member } => format!("&{base}->{member}"),
                };
                out.push_str(&format!("{pad}{func}({t});\n"));
            }
            Stmt::Access {
                base, member, kind, ..
            } => match kind {
                AccessKind::Write => out.push_str(&format!("{pad}{base}->{member} = 0;\n")),
                AccessKind::Read => out.push_str(&format!("{pad}tmp = {base}->{member};\n")),
            },
            Stmt::Call { callee, args, .. } => {
                let rendered: Vec<&str> = args.iter().map(|a| a.unwrap_or("0")).collect();
                out.push_str(&format!("{pad}{callee}({});\n", rendered.join(", ")));
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                out.push_str(&format!("{pad}if ({}) {{\n", print_cond(cond)));
                print_body(then_body, depth + 1, out);
                if else_body.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    print_body(else_body, depth + 1, out);
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            Stmt::Loop { cond, body, .. } => {
                out.push_str(&format!("{pad}while ({}) {{\n", print_cond(cond)));
                print_body(body, depth + 1, out);
                out.push_str(&format!("{pad}}}\n"));
            }
            Stmt::Other => out.push_str(&format!("{pad}nop();\n")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
/* generated accessor */
#include <linux/fs.h>

static DEFINE_SPINLOCK(inode_hash_lock);

static void inode_i_state_w_0(struct inode *inode)
{
	spin_lock(&inode->i_lock);
	inode->i_state = 7;
	spin_unlock(&inode->i_lock);
}

static int inode_i_state_r_0(struct inode *inode, int n)
{
	int v;
	spin_lock(&inode_hash_lock);
	while (n > 0) {
		v = inode->i_state;
		n = n - 1;
	}
	spin_unlock(&inode_hash_lock);
	return v;
}
"#;

    #[test]
    fn parses_functions_locks_and_accesses() {
        let f = parse_source("a.c", SAMPLE);
        assert_eq!(f.functions.len(), 2);
        let w = &f.functions[0];
        assert_eq!(w.name, "inode_i_state_w_0");
        assert_eq!(w.params.len(), 1);
        assert_eq!(w.params[0].type_name, Some("inode"));
        assert!(matches!(
            &w.body[0],
            Stmt::Acquire { target: LockTarget::Member { base, member }, .. }
                if *base == "inode" && *member == "i_lock"
        ));
        assert!(matches!(
            &w.body[1],
            Stmt::Access { base, member, kind: AccessKind::Write, .. }
                if *base == "inode" && *member == "i_state"
        ));
        let r = &f.functions[1];
        // `int v;` becomes Stmt::Other, then the acquire.
        assert!(matches!(&r.body[0], Stmt::Other));
        assert!(matches!(
            &r.body[1],
            Stmt::Acquire { target: LockTarget::Global(g), .. } if *g == "inode_hash_lock"
        ));
        let Stmt::Loop { body, .. } = &r.body[2] else {
            panic!("expected loop, got {:?}", r.body[2]);
        };
        assert!(matches!(
            &body[0],
            Stmt::Access { kind: AccessKind::Read, member, .. } if *member == "i_state"
        ));
    }

    #[test]
    fn branch_and_call_statements_parse() {
        let src = "static void f(struct inode *inode, int c)\n{\n\
                   \tif (c) {\n\t\thelper(inode, c);\n\t} else {\n\t\tinode->i_flags = 1;\n\t}\n}\n";
        let f = parse_source("b.c", src);
        let Stmt::If {
            then_body,
            else_body,
            ..
        } = &f.functions[0].body[0]
        else {
            panic!("expected if");
        };
        assert!(matches!(
            &then_body[0],
            Stmt::Call { callee, args, .. }
                if *callee == "helper" && args[0] == Some("inode")
        ));
        assert!(matches!(&else_body[0], Stmt::Access { .. }));
    }

    #[test]
    fn condition_accesses_are_hoisted_as_reads() {
        let src = "static void f(struct inode *inode)\n{\n\tif (inode->i_state) {\n\t\tinode->i_flags = 1;\n\t}\n}\n";
        let f = parse_source("c.c", src);
        let Stmt::If { cond, .. } = &f.functions[0].body[0] else {
            panic!("expected if");
        };
        assert!(matches!(
            &cond[0],
            Stmt::Access { member, kind: AccessKind::Read, .. } if *member == "i_state"
        ));
    }

    #[test]
    fn compound_assignment_counts_as_read_and_write() {
        let src = "static void f(struct inode *inode)\n{\n\tinode->i_bytes += 2;\n}\n";
        let f = parse_source("d.c", src);
        let kinds: Vec<AccessKind> = f.functions[0]
            .body
            .iter()
            .filter_map(|s| match s {
                Stmt::Access { kind, .. } => Some(*kind),
                _ => None,
            })
            .collect();
        assert_eq!(kinds, vec![AccessKind::Write, AccessKind::Read]);
    }

    #[test]
    fn member_chains_and_unknown_constructs_are_tolerated() {
        let src = "struct foo { int x; };\n\
                   static void f(struct inode *inode)\n{\n\
                   \tinode->i_sb->s_flags = 1;\n\
                   \tweird ++ ! syntax\n}\n";
        let f = parse_source("e.c", src);
        assert_eq!(f.functions.len(), 1);
        // The chained access has no typed base and is skipped.
        assert!(!f.functions[0]
            .body
            .iter()
            .any(|s| matches!(s, Stmt::Access { .. })));
    }

    #[test]
    fn parse_tree_sorts_by_path_and_is_order_invariant() {
        let a = ("z.c".to_owned(), SAMPLE.to_owned());
        let b = ("a.c".to_owned(), "static void g(void)\n{\n}\n".to_owned());
        let (ab, ba) = ([a.clone(), b.clone()], [b, a]);
        let p1 = parse_tree(&ab, 1);
        let p2 = parse_tree(&ba, 2);
        assert_eq!(p1, p2);
        assert_eq!(p1.files[0].path, "a.c");
    }

    #[test]
    fn print_parse_round_trips() {
        let files = [("a.c".to_owned(), SAMPLE.to_owned())];
        let p = parse_tree(&files, 1);
        let printed = print_program(&p);
        let p2 = parse_tree(&printed, 1);
        let printed2 = print_program(&p2);
        assert_eq!(printed, printed2, "printing is a fixed point");
        // Structure survives (lines differ, so compare via print).
        assert_eq!(p2.function_count(), p.function_count());
    }
}
