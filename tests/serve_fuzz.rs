//! Hostile-client fuzzing of `lockdoc serve`.
//!
//! A real daemon (socket mode, run in a background thread through the
//! public CLI entry point) is attacked with the protocol-level abuse an
//! open socket invites — malformed JSON, an oversized request line, a
//! half-line disconnect, a connection flood past `--max-conns`, a client
//! that stalls past the read deadline, and a (debug-only) request that
//! panics the handler — and must:
//!
//! * answer every well-formed request on a surviving connection,
//! * answer every bad request with exactly one `"ok": false` response,
//! * shed over-limit connections with a `retry: true` response,
//! * keep per-connection memory bounded (the oversized line is larger
//!   than the request cap and is discarded unbuffered),
//! * and afterwards still answer `derive` byte-identical to before the
//!   abuse — the snapshot never regresses.
//!
//! `--once` mode gets the same malformed-input sweep without a socket,
//! plus a line that is not UTF-8.

#![cfg(unix)]

use lockdoc_cli::run;
use lockdoc_platform::json::{parse, Json};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn s(v: &[&str]) -> Vec<String> {
    v.iter().map(|x| x.to_string()).collect()
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(name);
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn record(path: &Path, seed: &str) {
    run(&s(&[
        "trace",
        "--ops",
        "250",
        "--seed",
        seed,
        "--out",
        path.to_str().unwrap(),
    ]))
    .unwrap();
}

/// Connects with a short retry loop (the daemon thread races us to bind).
fn connect(sock: &Path) -> UnixStream {
    for _ in 0..200 {
        if let Ok(st) = UnixStream::connect(sock) {
            return st;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("serve socket never appeared at {}", sock.display());
}

/// Connects honoring backpressure: if the server sheds the connection
/// (`retry: true` — a previous client's slot may not be released yet),
/// backs off and reconnects, as the protocol instructs real clients to.
fn connect_ready(sock: &Path) -> UnixStream {
    for _ in 0..200 {
        let st = connect(sock);
        // A shed response arrives unprompted; probe with a short read.
        st.set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut reader = BufReader::new(st.try_clone().unwrap());
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 && line.contains("retry") => {
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            Ok(0) => {
                // Closed without a response: server mid-drain; retry.
                std::thread::sleep(Duration::from_millis(25));
                continue;
            }
            _ => {
                // Timeout (or anything else): the slot is ours.
                st.set_read_timeout(None).unwrap();
                return st;
            }
        }
    }
    panic!("server kept shedding connections");
}

/// Sends one request line and reads one response line.
fn roundtrip(stream: &mut UnixStream, line: &str) -> Json {
    writeln!(stream, "{line}").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut resp = String::new();
    reader.read_line(&mut resp).unwrap();
    parse(resp.trim()).unwrap_or_else(|e| panic!("unparseable response {resp:?}: {e}"))
}

fn ok_of(v: &Json) -> bool {
    v.get("ok").and_then(Json::as_bool).unwrap()
}

fn output_of(v: &Json) -> String {
    v.get("output").and_then(Json::as_str).unwrap().to_owned()
}

#[test]
fn serve_survives_hostile_clients() {
    let base = fresh_dir("lockdoc-suite-serve-fuzz");
    let t1 = base.join("a.ldoc");
    record(&t1, "61");
    let corpus = base.join("corpus");
    let d = corpus.to_str().unwrap().to_owned();
    run(&s(&["corpus", "add", t1.to_str().unwrap(), "--dir", &d])).unwrap();

    let sock = base.join("fuzz.sock");
    let sock_str = sock.to_str().unwrap().to_owned();
    let daemon = {
        let d = d.clone();
        let sock_str = sock_str.clone();
        std::thread::spawn(move || {
            run(&s(&[
                "serve",
                "--dir",
                &d,
                "--socket",
                &sock_str,
                "--max-request-bytes",
                "4096",
                "--timeout-ms",
                "400",
                "--max-conns",
                "2",
            ]))
            .unwrap()
        })
    };

    // Baseline answer from a clean connection.
    let mut c = connect(&sock);
    let baseline = roundtrip(&mut c, "{\"cmd\": \"derive\"}");
    assert!(ok_of(&baseline), "{baseline:?}");
    let baseline = output_of(&baseline);

    // 1. Malformed JSON: one error response per bad line, connection
    //    keeps serving afterwards.
    for bad in ["{ not json", "[]", "{\"cmd\": 7}", "{\"cmd\": \"nope\"}"] {
        let resp = roundtrip(&mut c, bad);
        assert!(!ok_of(&resp), "bad request accepted: {bad} -> {resp:?}");
        assert!(resp.get("error").is_some());
    }
    assert_eq!(
        output_of(&roundtrip(&mut c, "{\"cmd\": \"derive\"}")),
        baseline
    );

    // 2. Oversized line (64x the cap, no newline until the end): one
    //    "request too large" error, bounded memory, connection survives.
    let huge = format!(
        "{{\"cmd\": \"derive\", \"pad\": \"{}\"}}",
        "x".repeat(256 * 1024)
    );
    let resp = roundtrip(&mut c, &huge);
    assert!(!ok_of(&resp));
    assert!(
        resp.get("error")
            .and_then(Json::as_str)
            .unwrap()
            .contains("too large"),
        "{resp:?}"
    );
    assert_eq!(
        output_of(&roundtrip(&mut c, "{\"cmd\": \"derive\"}")),
        baseline
    );

    // 3. Half-line disconnect: a client that dies mid-request must not
    //    wedge the daemon.
    {
        let mut half = connect(&sock);
        half.write_all(b"{\"cmd\": \"der").unwrap();
        drop(half); // no newline ever arrives
    }

    // 4. Slow client: stalls past --timeout-ms holding a slot; the read
    //    deadline reclaims it. (`c` idles past its own deadline here too,
    //    so after the sleep every slot is demonstrably free again.)
    let idle = connect(&sock);
    std::thread::sleep(Duration::from_millis(700));
    drop(idle);
    drop(c);

    // 5. Connection flood past --max-conns (2): two fresh clients take
    //    both slots, the third gets a single retry:true shed response.
    let a = connect(&sock);
    let b = connect(&sock);
    let flooded = connect(&sock);
    let mut reader = BufReader::new(flooded.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let shed = parse(line.trim()).unwrap();
    assert!(
        !ok_of(&shed),
        "over-limit connection was not shed: {shed:?}"
    );
    assert_eq!(
        shed.get("retry").and_then(Json::as_bool),
        Some(true),
        "{shed:?}"
    );
    drop(flooded);
    drop(b);
    drop(a);

    // 6. Panic isolation (debug builds wire a __panic probe): the
    //    request gets an internal-error response, the daemon lives.
    #[cfg(debug_assertions)]
    {
        let mut p = connect_ready(&sock);
        let resp = roundtrip(&mut p, "{\"cmd\": \"__panic\"}");
        assert!(!ok_of(&resp));
        assert!(
            resp.get("error")
                .and_then(Json::as_str)
                .unwrap()
                .contains("internal error"),
            "{resp:?}"
        );
        assert_eq!(
            output_of(&roundtrip(&mut p, "{\"cmd\": \"derive\"}")),
            baseline
        );
    }

    // After all abuse: a fresh connection still answers byte-identically
    // — the snapshot never regressed.
    let mut fresh = connect_ready(&sock);
    assert_eq!(
        output_of(&roundtrip(&mut fresh, "{\"cmd\": \"derive\"}")),
        baseline
    );
    let status = roundtrip(&mut fresh, "{\"cmd\": \"status\"}");
    assert!(output_of(&status).contains("\ngroups: "), "{status:?}");
    let bye = roundtrip(&mut fresh, "{\"cmd\": \"shutdown\"}");
    assert!(ok_of(&bye));
    drop(fresh);

    let summary = daemon.join().expect("daemon panicked");
    // At least the deliberate flood connection was shed (post-flood
    // connections may race slot release and be shed-then-retried too).
    let shed: u64 = summary
        .trim()
        .rsplit(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("unexpected summary: {summary}"));
    assert!(shed >= 1, "no connection was shed: {summary}");
    fs::remove_dir_all(&base).ok();
}

#[test]
fn serve_once_answers_every_malformed_line() {
    let base = fresh_dir("lockdoc-suite-serve-once-fuzz");
    let t1 = base.join("a.ldoc");
    record(&t1, "62");
    let corpus = base.join("corpus");
    let d = corpus.to_str().unwrap().to_owned();
    run(&s(&["corpus", "add", t1.to_str().unwrap(), "--dir", &d])).unwrap();

    let queries = base.join("q.jsonl");
    let huge = format!("{{\"pad\": \"{}\"}}", "y".repeat(8 * 1024));
    let mut input: Vec<u8> = Vec::new();
    input.extend_from_slice(b"{\"cmd\": \"derive\"}\n");
    input.extend_from_slice(b"{ not json\n");
    input.extend_from_slice(huge.as_bytes());
    input.push(b'\n');
    // Not UTF-8: a bad request of its own, not the end of the batch.
    input.extend_from_slice(b"{\"cmd\": \"st\xffatus\"}\n");
    input.extend_from_slice(b"{\"cmd\": \"status\"}\n");
    input.extend_from_slice(b"{\"cmd\": \"shutdown\"}\n");
    fs::write(&queries, &input).unwrap();

    let resp = run(&s(&[
        "serve",
        "--dir",
        &d,
        "--once",
        "--input",
        queries.to_str().unwrap(),
        "--max-request-bytes",
        "4096",
    ]))
    .unwrap();
    let lines: Vec<Json> = resp.lines().map(|l| parse(l).expect("json")).collect();
    assert_eq!(lines.len(), 6, "one response per request line:\n{resp}");
    let ok = |i: usize| lines[i].get("ok").and_then(Json::as_bool);
    let error = |i: usize| lines[i].get("error").and_then(Json::as_str).unwrap();
    assert_eq!(ok(0), Some(true));
    assert_eq!(ok(1), Some(false));
    assert_eq!(ok(2), Some(false));
    assert!(error(2).contains("too large"), "{:?}", lines[2]);
    assert_eq!(ok(3), Some(false));
    assert!(error(3).contains("unknown cmd"), "{:?}", lines[3]);
    assert_eq!(ok(4), Some(true));
    assert_eq!(ok(5), Some(true));
    fs::remove_dir_all(&base).ok();
}
