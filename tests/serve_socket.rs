//! Serve v2 end-to-end: the concurrent socket server must be
//! observationally identical to sequential `nka batch` — same verdicts
//! and payloads for every request, over any number of connections, any
//! worker-pool size, and across forced worker recycles — and its
//! failure modes must stay contained: backpressure bounds memory under
//! slow readers, a dead client costs only its own connection, and both
//! drain paths (signal → exit 0, arena cap → exit 3) answer everything
//! already read before exiting. The final test drives the real `nka`
//! and `nka-loadgen` binaries over a Unix socket with a real SIGTERM.

use nka_quantum::api::{wire, Session};
use nka_quantum::serve::{ListenAddr, ServeConfig, Server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Command, Stdio};
use std::time::Duration;

const BATCH_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/batch_50.jsonl");
const QPROG_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/qprog_25.jsonl");

/// The mixed corpus (equalities, series, prove, prog_eq, hoare) with
/// the expected stable projection of each response, computed by a
/// sequential warm session — the `nka batch` semantics the server is
/// held to.
fn corpus_with_expected(json: bool) -> Vec<(String, String)> {
    let mut session = Session::new();
    let mut items = Vec::new();
    for path in [BATCH_FILE, QPROG_FILE] {
        let text = std::fs::read_to_string(path).expect("fixture readable");
        for line in text.lines() {
            let rendered = match wire::decode_request(line).expect("fixture lines decode") {
                None => continue,
                Some(query) => {
                    let resp = session.run(&query);
                    if json {
                        wire::encode_response(&query, &resp)
                    } else {
                        wire::encode_response_text(&query, &resp)
                    }
                }
            };
            items.push((line.to_owned(), wire::stable_response_projection(&rendered)));
        }
    }
    assert!(items.len() >= 75, "expected the full mixed corpus");
    items
}

fn bind(cfg: ServeConfig) -> Server {
    Server::bind(cfg, &[ListenAddr::Tcp("127.0.0.1:0".to_owned())]).expect("bind on a free port")
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.tcp_addrs()[0]).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
}

/// Round-trips every corpus item over one connection, asserting each
/// response matches the sequential expectation byte-for-byte (modulo
/// the volatile stats/micros fields).
fn replay_and_diff(stream: TcpStream, items: &[(String, String)], iterations: usize) {
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    for _ in 0..iterations {
        for (request, expected) in items {
            writer
                .write_all(format!("{request}\n").as_bytes())
                .expect("request writes");
            line.clear();
            assert!(
                reader.read_line(&mut line).expect("response reads") > 0,
                "server closed mid-stream"
            );
            assert_eq!(
                &wire::stable_response_projection(&line),
                expected,
                "socket response diverged from sequential batch for {request}"
            );
        }
    }
}

#[test]
fn concurrent_connections_match_sequential_batch() {
    let items = std::sync::Arc::new(corpus_with_expected(true));
    let server = bind(ServeConfig {
        workers: 4,
        json: true,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let stream = connect(&server);
            let items = std::sync::Arc::clone(&items);
            std::thread::spawn(move || replay_and_diff(stream, &items, 2))
        })
        .collect();
    for client in clients {
        client.join().expect("client thread");
    }
    handle.begin_drain(0, "test complete");
    assert_eq!(server.join(), 0, "clean drain after a full mixed load");
    let block = handle.stats_block();
    let expected_queries = 4 * 2 * items.len() as u64;
    assert_eq!(block.queries(), expected_queries);
    let serve = block.serve.expect("serve counters present");
    assert_eq!(serve.connections_opened, 4);
    assert_eq!(serve.dropped_mid_response, 0);
    // The per-op histograms cover the mixed ops, including the quantum
    // workloads.
    use nka_quantum::api::QueryKind;
    for kind in [QueryKind::NkaEq, QueryKind::ProgEq, QueryKind::Hoare] {
        assert!(
            block.ops.op(kind).count() > 0,
            "no latency samples for {kind:?}"
        );
    }
}

#[test]
fn graceful_drain_across_forced_worker_recycle() {
    let items = corpus_with_expected(false);
    let mut cfg = ServeConfig {
        workers: 2,
        json: false,
        ..ServeConfig::default()
    };
    // Recycle each worker's engine every 7 queries — the stream crosses
    // many recycle boundaries and must not change a single verdict.
    cfg.session.recycle_after_queries = Some(7);
    let server = bind(cfg);
    let handle = server.handle();
    replay_and_diff(connect(&server), &items, 2);
    handle.begin_drain(0, "test complete");
    assert_eq!(server.join(), 0, "drain is clean across recycles");
    let serve = handle.stats_block().serve.expect("serve counters");
    let recycles: u64 = serve.worker_recycles.iter().sum();
    assert!(
        recycles >= 2,
        "the load should have forced worker recycles, saw {recycles}"
    );
}

#[test]
fn arena_cap_answers_in_flight_then_exits_3() {
    let server = bind(ServeConfig {
        workers: 1,
        json: true,
        // Any real query interns more than one node, so the very first
        // answer trips the cap and begins the drain.
        max_arena_nodes: Some(1),
        ..ServeConfig::default()
    });
    let stream = connect(&server);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    // Pipeline a burst without reading: everything the server has read
    // when the cap trips must still be answered before it exits.
    for _ in 0..10 {
        writer.write_all(b"p q = p q\n").expect("request writes");
    }
    writer.flush().expect("flush");
    let code = server.join();
    assert_eq!(code, 3, "the arena cap uses the supervisor exit code");
    let mut answered = 0;
    let mut line = String::new();
    while {
        line.clear();
        reader.read_line(&mut line).expect("read until EOF") > 0
    } {
        assert!(
            line.contains("\"verdict\":\"holds\""),
            "in-flight answer corrupted during cap drain: {line}"
        );
        answered += 1;
    }
    assert!(
        answered >= 1,
        "the request that tripped the cap was not answered"
    );
}

#[test]
fn slow_reader_backpressure_bounds_memory() {
    const DEPTH: usize = 4;
    const REQUESTS: usize = 400;
    let server = bind(ServeConfig {
        workers: 1,
        queue_depth: DEPTH,
        json: false, // short response lines: the unread responses must
        // fit in kernel socket buffers while the client stalls
        ..ServeConfig::default()
    });
    let handle = server.handle();
    let stream = connect(&server);
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let writer_stream = stream;
    let writer = std::thread::spawn(move || {
        let mut writer = writer_stream;
        for _ in 0..REQUESTS {
            writer.write_all(b"p = p\n").expect("request writes");
        }
        writer.flush().expect("flush");
    });
    // Stall as a reader while the writer floods. The server must stop
    // reading the socket once the connection's window fills, so its
    // pending count — and the raw lines it buffers — stay bounded.
    std::thread::sleep(Duration::from_millis(600));
    let pending = handle.pending_now();
    assert!(
        pending <= DEPTH + 1,
        "backpressure failed: {pending} pending > window of {DEPTH}"
    );
    // The flood re-asks one interned query, so the process arena must
    // not grow with the request count (`memory_stats` is the same
    // process-wide accounting `--max-arena-nodes` governs).
    let mem = Session::new().memory_stats();
    assert!(
        mem.arena_resident_nodes < 10_000,
        "arena grew under backpressure: {} resident nodes",
        mem.arena_resident_nodes
    );
    // Unstall: every flooded request must still be answered, in order.
    let mut line = String::new();
    for i in 0..REQUESTS {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("response reads") > 0,
            "stream ended after {i} of {REQUESTS} responses"
        );
        assert!(line.contains("⊢NKA"), "answer {i} corrupted: {line}");
    }
    writer.join().expect("writer thread");
    handle.begin_drain(0, "test complete");
    assert_eq!(server.join(), 0);
}

#[test]
fn dead_client_mid_response_only_costs_its_own_connection() {
    let server = bind(ServeConfig {
        workers: 2,
        json: false,
        ..ServeConfig::default()
    });
    let handle = server.handle();
    // Client A floods requests and vanishes without reading a byte —
    // the responses hit a closed socket (EPIPE/ECONNRESET territory).
    {
        let mut a = connect(&server);
        for _ in 0..300 {
            a.write_all(b"p q r = p q r\n").expect("request writes");
        }
        a.flush().expect("flush");
        // Drop: close both halves with responses still in flight.
    }
    // Client B must be completely unaffected, served by the same pool.
    let items = corpus_with_expected(false);
    replay_and_diff(connect(&server), &items[..20], 1);
    handle.begin_drain(0, "test complete");
    assert_eq!(
        server.join(),
        0,
        "a dead client must never take the server down"
    );
}

/// The real binaries, end to end: `nka serve --listen unix:…` under
/// load from `nka-loadgen`, then a real SIGTERM — the supervisor
/// contract (drain, exit 0) over a real process boundary.
#[test]
fn binary_serve_loadgen_sigterm_drain() {
    let sock = std::env::temp_dir().join(format!("nka-serve-e2e-{}.sock", std::process::id()));
    let sock_arg = format!("unix:{}", sock.display());
    let mut server = Command::new(env!("CARGO_BIN_EXE_nka"))
        .args(["--json", "serve", "--listen", &sock_arg, "--workers", "2"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("server spawns");
    // Wait for the listener (it announces on stderr, but polling the
    // socket file is simpler than a partial stderr read).
    for _ in 0..100 {
        if sock.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    assert!(sock.exists(), "server never bound {}", sock.display());

    let loadgen = Command::new(env!("CARGO_BIN_EXE_nka-loadgen"))
        .args([
            "--connect",
            &sock_arg,
            "--connections",
            "4",
            "--iterations",
            "2",
            "--json",
            BATCH_FILE,
            QPROG_FILE,
        ])
        .output()
        .expect("loadgen runs");
    let summary = String::from_utf8_lossy(&loadgen.stdout);
    assert!(
        loadgen.status.success(),
        "loadgen found diffs or failed:\n{summary}{}",
        String::from_utf8_lossy(&loadgen.stderr)
    );
    assert!(summary.contains(" 0 diffs"), "diffs reported: {summary}");
    assert!(summary.contains("p99="), "no latency line: {summary}");

    let kill = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = server.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "SIGTERM must drain to exit 0");
    let mut stderr = String::new();
    server
        .stderr
        .take()
        .expect("piped stderr")
        .read_to_string(&mut stderr)
        .expect("stderr reads");
    assert!(
        stderr.contains("drained: shutdown signal received"),
        "no drain note in server stderr:\n{stderr}"
    );
    assert!(!sock.exists(), "socket file not cleaned up on drain");
}
