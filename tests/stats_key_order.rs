//! Key-order pins for every stats surface rendered from the counter
//! tables: the per-response wire `stats` object, a certificate's
//! `stats` object, and the full `--stats --json` block of the socket
//! server (with its `serve` section). The other stats tests check that
//! keys are *present*; these check the exact ordered key paths, so a
//! reordered counter table or a renamed key breaks the byte-identical
//! output promise loudly. A last test pins the byte encoding of a
//! snapshot's certificate section and its decode → re-encode round trip.

use nka_quantum::api::json::Json;
use nka_quantum::api::{wire, Query, Session};
use nka_quantum::nka::snapshot::{ConfigGuard, Snapshot, SnapshotBuilder};
use nka_quantum::qprog::CertificateStats;
use nka_quantum::serve::{ListenAddr, ServeConfig, Server};
use nka_quantum::wfa::DecideOptions;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Every object key path under `value`, depth first in document order.
/// Arrays are leaves: their lengths and contents vary run to run.
fn key_paths(value: &Json, prefix: &str, out: &mut Vec<String>) {
    if let Json::Obj(fields) = value {
        for (key, child) in fields {
            let path = if prefix.is_empty() {
                key.clone()
            } else {
                format!("{prefix}.{key}")
            };
            out.push(path.clone());
            key_paths(child, &path, out);
        }
    }
}

fn paths_of(value: &Json) -> Vec<String> {
    let mut out = Vec::new();
    key_paths(value, "", &mut out);
    out
}

const ENGINE_KEYS: [&str; 10] = [
    "nka_queries",
    "ka_queries",
    "answer_hits",
    "compile_hits",
    "compile_misses",
    "dfa_hits",
    "dfa_misses",
    "starfree_hits",
    "prefix_hits",
    "fastpath_fallbacks",
];

#[test]
fn wire_response_stats_keys_are_pinned_in_order() {
    let mut session = Session::new();
    let query = Query::nka_eq("(p q)* p", "p (q p)*").unwrap();
    let resp = session.run(&query);
    let line = wire::encode_response(&query, &resp);
    let value = Json::parse(&line).expect("response parses");
    let stats = value.get("stats").expect("stats object");
    assert_eq!(paths_of(stats), ENGINE_KEYS);
}

#[test]
fn certificate_stats_keys_are_pinned_in_order() {
    let mut session = Session::new();
    let query = Query::analyze("qubits 1; abort; h q0", &[] as &[&str]).unwrap();
    let resp = session.run(&query);
    let line = wire::encode_response(&query, &resp);
    let value = Json::parse(&line).expect("response parses");
    let findings = value
        .get("findings")
        .and_then(Json::as_array)
        .expect("findings");
    let cert = findings
        .iter()
        .find_map(|f| f.get("certificate"))
        .expect("a Tier B finding with a certificate");
    assert_eq!(
        paths_of(cert),
        [
            "p",
            "q",
            "expect",
            "rule",
            "stats",
            "stats.starfree_hits",
            "stats.prefix_hits",
            "stats.fastpath_fallbacks",
        ]
    );
}

#[test]
fn serve_stats_block_key_paths_are_pinned_in_order() {
    let server = Server::bind(
        ServeConfig {
            workers: 1,
            json: true,
            ..ServeConfig::default()
        },
        &[ListenAddr::Tcp("127.0.0.1:0".to_owned())],
    )
    .expect("bind on a free port");
    let stream = TcpStream::connect(server.tcp_addrs()[0]).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = String::new();
    for request in [
        r#"{"op":"nka_eq","lhs":"(p q)* p","rhs":"p (q p)*"}"#,
        r#"{"op":"analyze","prog":"qubits 1; abort; h q0"}"#,
        r#"{"op":"optimize","prog":"qubits 1; abort; h q0"}"#,
    ] {
        writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("request writes");
        line.clear();
        assert!(reader.read_line(&mut line).expect("response reads") > 0);
    }
    let handle = server.handle();
    let block = handle.stats_block().to_json();
    drop(writer);
    drop(reader);
    handle.begin_drain(0, "test done");
    assert_eq!(server.join(), 0);

    let mut expected: Vec<String> = ["v", "queries", "elapsed_micros", "qps", "engine"]
        .into_iter()
        .map(str::to_owned)
        .collect();
    expected.extend(ENGINE_KEYS.iter().map(|k| format!("engine.{k}")));
    for key in ["expr", "expr.nodes", "expr.subterms", "expr.interned"] {
        expected.push(key.to_owned());
    }
    expected.push("arena".to_owned());
    for key in [
        "resident_nodes",
        "persistent_nodes",
        "scratch_live",
        "scratch_retired",
        "scratch_epochs",
        "engine_recycles",
    ] {
        expected.push(format!("arena.{key}"));
    }
    expected.push("ops".to_owned());
    for op in ["nka_eq", "analyze", "optimize"] {
        expected.push(format!("ops.{op}"));
        for key in ["count", "mean_ns", "p50_ns", "p99_ns", "p999_ns", "buckets"] {
            expected.push(format!("ops.{op}.{key}"));
        }
    }
    expected.push("analysis".to_owned());
    expected.push("analysis.findings".to_owned());
    for pass in [
        "unused_qubit",
        "unreachable_code",
        "self_inverse_pair",
        "constant_guard",
        "metrics",
        "dead_branch",
        "redundant_fragment",
        "peephole",
    ] {
        expected.push(format!("analysis.findings.{pass}"));
    }
    for key in ["findings_total", "tier_b_decides", "cert_cache_hits"] {
        expected.push(format!("analysis.{key}"));
    }
    expected.push("optimize".to_owned());
    for key in ["queries", "steps_applied", "steps"] {
        expected.push(format!("optimize.{key}"));
    }
    for rule in [
        "dead-branch",
        "branch-fusion",
        "gate-fusion",
        "dead-loop",
        "loop-peeling",
        "double-reset",
        "double-measure",
        "abort-sink",
        "uncompute",
    ] {
        expected.push(format!("optimize.steps.{rule}"));
    }
    for key in [
        "candidates_refuted",
        "fixpoints",
        "budget_bails",
        "cycle_breaks",
        "engine_decides",
        "cert_cache_hits",
    ] {
        expected.push(format!("optimize.{key}"));
    }
    expected.push("snapshot".to_owned());
    for key in [
        "restored_entries",
        "snapshot_hits",
        "cert_snapshot_hits",
        "load_warnings",
        "dumps",
        "dump_failures",
        "age_secs",
    ] {
        expected.push(format!("snapshot.{key}"));
    }
    expected.push("serve".to_owned());
    for key in [
        "connections_opened",
        "connections_closed",
        "pending_now",
        "rejected_overload",
        "rejected_line_bytes",
        "wire_errors",
        "dropped_mid_response",
        "worker_recycles",
        "worker_queries",
    ] {
        expected.push(format!("serve.{key}"));
    }
    assert_eq!(paths_of(&block), expected);
    assert_eq!(block.get("queries").and_then(Json::as_i64), Some(3));
}

#[test]
fn snapshot_certificate_section_bytes_are_pinned_and_round_trip() {
    let guard = ConfigGuard::from_options(&DecideOptions::default());
    let stats = CertificateStats {
        starfree_hits: 1,
        prefix_hits: 2,
        fastpath_fallbacks: 0x0102_0304_0506_0708,
    };
    let created = 1_700_000_000;
    let empty = SnapshotBuilder::new(guard).encode(created);
    let mut builder = SnapshotBuilder::new(guard);
    builder.add_cert("ab", "c", true, stats);
    let bytes = builder.encode(created);

    // Certificates are the last body section: everything before the
    // certificate count is the same as in an empty snapshot (the
    // 20-byte magic/version/checksum prefix aside).
    let section_start = empty.len() - 4;
    assert_eq!(bytes[20..section_start], empty[20..section_start]);
    let section = &bytes[section_start..];
    let mut expected: Vec<u8> = Vec::new();
    expected.extend_from_slice(&1u32.to_le_bytes()); // one entry
    expected.extend_from_slice(&2u32.to_le_bytes());
    expected.extend_from_slice(b"ab");
    expected.extend_from_slice(&1u32.to_le_bytes());
    expected.extend_from_slice(b"c");
    expected.push(1); // holds
    for counter in [1u64, 2, 0x0102_0304_0506_0708] {
        expected.extend_from_slice(&counter.to_le_bytes());
    }
    assert_eq!(section, expected.as_slice());

    // Decode → re-encode reproduces the section byte for byte.
    let loaded = Snapshot::decode(&bytes)
        .expect("snapshot decodes")
        .instantiate();
    assert_eq!(loaded.certs.len(), 1);
    assert_eq!(loaded.certs[0].stats, stats);
    let mut again = SnapshotBuilder::new(loaded.config);
    for cert in &loaded.certs {
        again.add_cert(&cert.p, &cert.q, cert.holds, cert.stats);
    }
    let rebytes = again.encode(loaded.created_unix_secs);
    assert_eq!(&rebytes[section_start..], section);
    assert_eq!(rebytes, bytes);
}
