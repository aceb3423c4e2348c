//! `lockdoc serve`: a concurrent query daemon over a trace corpus.
//!
//! The daemon holds one immutable **snapshot** of the corpus: the rules,
//! race, lint, and lock-order reports of the merged corpus trace, all
//! answered from one import of that trace and pre-rendered in exactly the
//! text formats the batch subcommands print (the renderers are shared, so
//! the formats cannot drift). Serve reads and writes no cache file.
//! Queries are line-delimited JSON, one request per line, one response
//! per line:
//!
//! ```text
//! {"cmd": "derive"}            -> {"ok": true, "output": "<derive text>"}
//! {"cmd": "races"}             -> ... races text ...
//! {"cmd": "lint"}              -> ... lint text ...
//! {"cmd": "order"}             -> ... order text ...
//! {"cmd": "status"}            -> corpus health summary + group count
//! {"cmd": "add", "path": "x"}  -> ingest a trace, swap in a new snapshot
//! {"cmd": "shutdown"}          -> stop the daemon
//! ```
//!
//! Concurrency: the snapshot sits behind an `RwLock<Arc<Snapshot>>`.
//! Readers clone the `Arc` and answer from the old snapshot while an
//! `add` (serialized by a separate ingest mutex) builds the next one off
//! to the side and swaps it in — queries never block on ingest. In
//! socket mode each connection gets its own thread; `--once` answers the
//! requests of stdin (or `--input FILE`) and exits, so tests and scripts
//! need no real socket. Both modes run one request loop
//! ([`serve_lines`]), which reads a line at a time and answers it before
//! reading the next.
//!
//! Hostile-client hardening (all knobs overridable on the command line):
//!
//! * `--max-request-bytes` caps one request line; an oversized line gets
//!   an error response and is discarded in bounded chunks, so a client
//!   streaming gigabytes without a newline holds O(cap) memory. Bytes
//!   that are not UTF-8 are decoded lossily, so such a line gets its own
//!   response (usually a parse error) instead of ending the input.
//! * `--timeout-ms` sets per-connection read/write deadlines; a stalled
//!   or half-open connection is closed, which also bounds the shutdown
//!   drain (every worker thread is joined before the listener exits).
//! * `--max-conns` caps concurrent connections; excess clients receive
//!   one `server busy (RETRY)` shed response (`"retry": true`) and are
//!   disconnected instead of queueing unboundedly.
//! * every request is answered under `catch_unwind`, so a panicking
//!   handler costs that request an `internal error` response, never the
//!   daemon.
//! * transient ingest I/O errors retry with exponential backoff
//!   (`--ingest-retries`); permanent refusals (duplicate member, bad
//!   path) fail immediately.

use crate::corpus::{corpus_summary, merged_trace, CorpusCtx};
use crate::{render_rules_text, Args, CliError, Result};
use ksim::rules;
use lockdoc_core::derive::derive_in;
use lockdoc_core::evidence::EvidenceIndex;
use lockdoc_core::lint::lint_passes;
use lockdoc_core::rulespec::parse_rules;
use lockdoc_platform::json::{self, Json};
use lockdoc_trace::db::import;
use std::fs;
use std::io::{self, BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

/// Per-connection / per-request limits (see the module docs).
pub(crate) struct ServeLimits {
    /// Hard cap on one request line, in bytes.
    pub max_request_bytes: usize,
    /// Socket read/write deadline, in milliseconds.
    pub timeout_ms: u64,
    /// Concurrent-connection cap; excess clients are shed.
    pub max_conns: usize,
    /// Retries (with backoff) for transient ingest I/O errors.
    pub ingest_retries: u64,
}

impl ServeLimits {
    fn from_args(args: &Args) -> Result<Self> {
        Ok(Self {
            max_request_bytes: args.num("max-request-bytes", 65_536usize)?,
            timeout_ms: args.num("timeout-ms", 5_000u64)?,
            max_conns: args.num("max-conns", 64usize)?,
            ingest_retries: args.num("ingest-retries", 2u64)?,
        })
    }
}

/// One request line read under the byte cap.
enum ReqLine {
    /// A complete line within the cap (newline stripped).
    Line(String),
    /// The line exceeded the cap; the excess was discarded unbuffered.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line holding at most `cap + O(bufsize)`
/// bytes in memory. An over-cap line is drained chunk by chunk (never
/// buffered) up to its newline so the connection can keep serving.
fn read_bounded_line<R: BufRead>(r: &mut R, cap: usize) -> io::Result<ReqLine> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversized = false;
    loop {
        let chunk = r.fill_buf()?;
        if chunk.is_empty() {
            return Ok(if oversized {
                ReqLine::Oversized
            } else if buf.is_empty() {
                ReqLine::Eof
            } else {
                ReqLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let take = newline.unwrap_or(chunk.len());
        if !oversized {
            if buf.len() + take > cap {
                oversized = true;
                buf = Vec::new(); // release, stay O(1) from here on
            } else {
                buf.extend_from_slice(&chunk[..take]);
            }
        }
        let consumed = newline.map_or(take, |i| i + 1);
        r.consume(consumed);
        if newline.is_some() {
            return Ok(if oversized {
                ReqLine::Oversized
            } else {
                ReqLine::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

/// One immutable, fully-rendered answer set over the corpus.
struct Snapshot {
    status_text: String,
    rules_text: String,
    races_text: String,
    lint_text: String,
    order_text: String,
}

/// Builds a snapshot: fold the members into the merged corpus trace,
/// import it once and answer every query from one evidence index over
/// that store. No cache file is read or written.
fn build_snapshot(ctx: &CorpusCtx) -> Result<Snapshot> {
    let (merged, _, health) = merged_trace(ctx)?;
    let db = import(&merged, &ctx.filter, 1);
    // The passes read the store, not the merged events.
    drop(merged);
    let index = EvidenceIndex::build(&db);
    let mined = derive_in(&index, &ctx.config);
    let parsed =
        parse_rules(rules::documented_rules()).map_err(|e| CliError::Rules(e.to_string()))?;
    let passes = lint_passes(&index, &mined, &parsed, None);
    Ok(Snapshot {
        status_text: format!(
            "{}\ngroups: {}\n",
            corpus_summary(health),
            mined.groups.len()
        ),
        rules_text: render_rules_text(&mined, false),
        races_text: passes.races.render(&db),
        lint_text: passes.report.render(&db),
        order_text: passes.order.report(&db),
    })
}

struct ServeState {
    ctx: CorpusCtx,
    limits: ServeLimits,
    snapshot: RwLock<Arc<Snapshot>>,
    ingest: Mutex<()>,
    shutdown: AtomicBool,
}

impl ServeState {
    fn current(&self) -> Arc<Snapshot> {
        Arc::clone(&self.snapshot.read().unwrap_or_else(|e| e.into_inner()))
    }
}

fn respond_ok(output: String) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("output", Json::Str(output)),
    ])
    .compact()
}

fn respond_err(error: String) -> String {
    Json::obj(vec![("ok", Json::Bool(false)), ("error", Json::Str(error))]).compact()
}

/// The backpressure response an over-limit client receives before being
/// disconnected: `retry: true` tells it to back off and reconnect.
fn respond_shed() -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", Json::Str("server busy (RETRY)".into())),
        ("retry", Json::Bool(true)),
    ])
    .compact()
}

/// An ingest error worth retrying: anything except the store's permanent
/// refusals (duplicate member, missing or non-`.ldoc` source).
fn ingest_transient(e: &io::Error) -> bool {
    !matches!(
        e.kind(),
        io::ErrorKind::AlreadyExists | io::ErrorKind::NotFound | io::ErrorKind::InvalidInput
    )
}

/// Answers one request line with panic isolation: a panicking handler
/// costs this request an `internal error` response, never the daemon or
/// the connection.
fn handle_line_isolated(state: &ServeState, line: &str) -> (bool, String) {
    catch_unwind(AssertUnwindSafe(|| handle_line(state, line))).unwrap_or_else(|_| {
        (
            false,
            respond_err("internal error: request handler panicked".into()),
        )
    })
}

/// Answers one request line; the bool asks the caller to stop serving.
fn handle_line(state: &ServeState, line: &str) -> (bool, String) {
    let req = match json::parse(line) {
        Ok(v) => v,
        Err(e) => return (false, respond_err(format!("bad request: {e}"))),
    };
    let Some(cmd) = req.get("cmd").and_then(Json::as_str) else {
        return (false, respond_err("request needs a `cmd` string".into()));
    };
    match cmd {
        "derive" => (false, respond_ok(state.current().rules_text.clone())),
        "races" => (false, respond_ok(state.current().races_text.clone())),
        "lint" => (false, respond_ok(state.current().lint_text.clone())),
        "order" => (false, respond_ok(state.current().order_text.clone())),
        "status" => (false, respond_ok(state.current().status_text.clone())),
        "add" => {
            let Some(path) = req.get("path").and_then(Json::as_str) else {
                return (false, respond_err("add needs a `path` string".into()));
            };
            // Serialize ingests; queries keep answering from the current
            // snapshot the whole time.
            let _ingest = state.ingest.lock().unwrap_or_else(|e| e.into_inner());
            // Transient I/O errors (a slow filesystem, a contended file)
            // retry with exponential backoff; permanent refusals do not.
            let mut attempt = 0u64;
            let added = loop {
                match state.ctx.store.add(Path::new(path)) {
                    Ok(n) => break n,
                    Err(e) if attempt < state.limits.ingest_retries && ingest_transient(&e) => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(5 << attempt));
                    }
                    Err(e) => return (false, respond_err(e.to_string())),
                }
            };
            match build_snapshot(&state.ctx) {
                Ok(snap) => {
                    *state.snapshot.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(snap);
                    (false, respond_ok(format!("added {added}")))
                }
                Err(e) => {
                    // A trace that breaks the merge must not wedge the
                    // corpus: roll the copy back and keep the old snapshot.
                    let _ = state.ctx.store.drop_trace(&added);
                    (false, respond_err(format!("rejected {added}: {e}")))
                }
            }
        }
        "shutdown" => {
            state.shutdown.store(true, Ordering::SeqCst);
            (true, respond_ok("shutting down".into()))
        }
        // Test-only hook proving per-request panic isolation end to end.
        #[cfg(debug_assertions)]
        "__panic" => panic!("injected panic (debug-only isolation probe)"),
        other => (false, respond_err(format!("unknown cmd `{other}`"))),
    }
}

/// `lockdoc serve`.
pub fn cmd_serve(args: &Args) -> Result<String> {
    let ctx = CorpusCtx::from_args(args)?;
    let state = ServeState {
        snapshot: RwLock::new(Arc::new(build_snapshot(&ctx)?)),
        ctx,
        limits: ServeLimits::from_args(args)?,
        ingest: Mutex::new(()),
        shutdown: AtomicBool::new(false),
    };
    if args.has("once") {
        let mut out = Vec::new();
        match args.get("input") {
            Some(f) => serve_lines(
                &state,
                &mut io::BufReader::new(fs::File::open(f)?),
                &mut out,
            )?,
            None => serve_lines(&state, &mut io::stdin().lock(), &mut out)?,
        }
        return Ok(String::from_utf8_lossy(&out).into_owned());
    }
    serve_socket(args, state)
}

/// The request loop of one connection (or of `--once`'s input): one
/// response line per non-blank request line, until end of input or a
/// `shutdown` request. Lines are read under the byte cap, so the loop
/// holds O(cap) memory whatever the client sends. A read or write error
/// ends the loop and is returned.
fn serve_lines<R: BufRead, W: Write>(
    state: &ServeState,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<()> {
    loop {
        let (stop, resp) = match read_bounded_line(reader, state.limits.max_request_bytes)? {
            ReqLine::Eof => return Ok(()),
            ReqLine::Oversized => (false, respond_err("request too large".into())),
            ReqLine::Line(line) if line.trim().is_empty() => continue,
            ReqLine::Line(line) => handle_line_isolated(state, line.trim()),
        };
        writeln!(writer, "{resp}")?;
        if stop {
            return Ok(());
        }
    }
}

/// RAII occupancy of one connection slot; dropping frees the slot.
struct ConnSlot(Arc<AtomicUsize>);

impl ConnSlot {
    /// Claims a slot unless `max` are already active.
    fn acquire(active: &Arc<AtomicUsize>, max: usize) -> Option<Self> {
        active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < max).then_some(n + 1)
            })
            .ok()
            .map(|_| Self(Arc::clone(active)))
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(unix)]
fn serve_socket(args: &Args, state: ServeState) -> Result<String> {
    use std::io::BufReader;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::PathBuf;

    let sock_path: PathBuf = match args.get("socket") {
        Some(p) => PathBuf::from(p),
        None => state.ctx.store.cache_dir().join("lockdoc.sock"),
    };
    let _ = fs::remove_file(&sock_path);
    let listener = UnixListener::bind(&sock_path)?;
    let state = Arc::new(state);
    let active = Arc::new(AtomicUsize::new(0));
    let mut served = 0usize;
    let mut shed = 0usize;
    let mut handles = Vec::new();
    let timeout = Some(Duration::from_millis(state.limits.timeout_ms.max(1)));
    for conn in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        // Deadlines bound every read and write on the connection — a
        // stalled client times out and is dropped, which also bounds the
        // join-based drain below.
        let _ = stream.set_read_timeout(timeout);
        let _ = stream.set_write_timeout(timeout);
        let Some(slot) = ConnSlot::acquire(&active, state.limits.max_conns) else {
            // Over capacity: shed with one RETRY response, don't queue.
            shed += 1;
            let mut writer = stream;
            let _ = writeln!(writer, "{}", respond_shed());
            continue;
        };
        served += 1;
        let st = Arc::clone(&state);
        let unblock = sock_path.clone();
        handles.push(std::thread::spawn(move || {
            let _slot = slot;
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let mut writer = stream;
            // A read deadline or a dead connection ends the loop like
            // end of input; the client gets no further response.
            let _ = serve_lines(&st, &mut BufReader::new(read_half), &mut writer);
            if st.shutdown.load(Ordering::SeqCst) {
                // Poke the accept loop so it observes the shutdown flag
                // and exits instead of blocking forever.
                let _ = UnixStream::connect(&unblock);
            }
        }));
    }
    // Graceful drain: every in-flight connection finishes (or times out)
    // before the listener exits and the socket file disappears.
    for h in handles {
        let _ = h.join();
    }
    let _ = fs::remove_file(&sock_path);
    Ok(format!("served {served} connection(s), shed {shed}\n"))
}

#[cfg(not(unix))]
fn serve_socket(_args: &Args, _state: ServeState) -> Result<String> {
    Err(CliError::Usage(
        "socket mode needs unix domain sockets; use `serve --once` on this platform".into(),
    ))
}
