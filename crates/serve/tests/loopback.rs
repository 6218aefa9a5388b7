//! Loopback integration tests: a real server on an ephemeral port, real
//! TCP clients, full request/response exchanges.
//!
//! The headline property under test is statelessness-as-determinism:
//! the same scenario POSTed from many concurrent clients must come back
//! **byte-identical**, and a `/v1/trace` response must decode and
//! replay bit-for-bit into the `/v1/run` report — for flat and cluster
//! scenarios alike.

use calciom::{AccessPattern, AppConfig, AppId, PfsConfig, Scenario, Trace};
use serve::client;
use serve::json::report_json;
use serve::{start, BufferLog, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

fn boot(config: ServeConfig) -> ServerHandle {
    start(config, Box::new(BufferLog::new())).expect("server boots on an ephemeral port")
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServeConfig::default()
    }
}

fn scenario_text() -> String {
    Scenario::builder(PfsConfig::grid5000_rennes())
        .app(AppConfig::new(
            AppId(0),
            "A",
            336,
            AccessPattern::contiguous(8.0e6),
        ))
        .app(
            AppConfig::new(AppId(1), "B", 48, AccessPattern::contiguous(4.0e6))
                .starting_at_secs(1.0),
        )
        .build()
        .unwrap()
        .to_text()
}

#[test]
fn concurrent_identical_posts_return_byte_identical_bodies() {
    let handle = boot(test_config());
    let addr = handle.addr();
    let body = scenario_text();

    // Six concurrent clients, same scenario. Whatever interleaving of
    // cache hits/misses happens inside, every body must be identical.
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let body = body.clone();
            std::thread::spawn(move || {
                client::post(addr, "/v1/run", body.as_bytes()).expect("exchange completes")
            })
        })
        .collect();
    let replies: Vec<_> = clients
        .into_iter()
        .map(|c| c.join().expect("client thread"))
        .collect();

    for reply in &replies {
        assert_eq!(reply.status, 200, "{}", reply.text());
        assert_eq!(reply.header("content-type"), Some("application/json"));
    }
    let first = &replies[0];
    for reply in &replies[1..] {
        assert_eq!(reply.body, first.body, "bodies must be byte-identical");
        assert_eq!(
            reply.header("etag"),
            first.header("etag"),
            "same input, same strong ETag"
        );
    }
    handle.shutdown();
}

/// A committed 2-machine cluster scenario: one application per machine,
/// both contending for the root's single shared-PFS slot.
const CLUSTER_SCENARIO: &str = include_str!("cluster_2machines.scenario");

#[test]
fn trace_decodes_and_replays_bit_for_bit_to_the_run_report() {
    let handle = boot(test_config());
    let addr = handle.addr();

    // A flat scenario and a cluster one: every POST route serves both.
    for text in [scenario_text(), CLUSTER_SCENARIO.to_string()] {
        let scenario = Scenario::from_text(&text).expect("scenario parses");
        let post = |path: &str| {
            let reply = client::post(addr, path, text.as_bytes()).unwrap();
            assert_eq!(reply.status, 200, "{path}: {}", reply.text());
            reply
        };
        let run = post("/v1/run");
        assert_eq!(run.text(), report_json(&scenario.run().unwrap()));
        post("/v1/timeline");
        post("/v1/batch");

        let trace = post("/v1/trace");
        assert_eq!(
            trace.header("content-type"),
            Some("text/plain; charset=utf-8")
        );
        // Decode the wire trace client-side and replay it: the replayed
        // report serialized the same way must equal the /v1/run body.
        let decoded = Trace::from_text(&trace.text()).expect("wire trace parses");
        let replayed = report_json(&decoded.replay_report());
        assert_eq!(
            run.text(),
            replayed,
            "replayed trace must reproduce the run report bit-for-bit"
        );
    }
    handle.shutdown();
}

#[test]
fn second_identical_post_is_a_cache_hit() {
    let handle = boot(test_config());
    let addr = handle.addr();

    let first = client::post(addr, "/v1/run", scenario_text().as_bytes()).unwrap();
    let second = client::post(addr, "/v1/run", scenario_text().as_bytes()).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.header("x-cache"), Some("miss"));
    assert_eq!(second.header("x-cache"), Some("hit"));
    assert_eq!(second.body, first.body);
    assert_eq!(handle.service().cache().hits(), 1);
    handle.shutdown();
}

#[test]
fn malformed_scenario_is_a_structured_400() {
    let handle = boot(test_config());
    let addr = handle.addr();

    let reply = client::post(addr, "/v1/run", b"this is not a scenario").unwrap();
    assert_eq!(reply.status, 400);
    assert_eq!(reply.header("content-type"), Some("application/json"));
    let text = reply.text();
    assert!(
        text.contains("\"kind\":\"scenario-parse\""),
        "error kind names the typed error: {text}"
    );
    assert!(
        text.contains("\"message\":"),
        "error carries the parser's message: {text}"
    );
    handle.shutdown();
}

#[test]
fn oversized_body_is_rejected_before_reading_the_stream() {
    let config = ServeConfig {
        max_body: 1024,
        ..test_config()
    };
    let handle = boot(config);
    let addr = handle.addr();

    // Declare a body far over the limit but never send it. If the
    // server tried to read the declared bytes first it would block on
    // this socket until its IO timeout; a prompt 413 proves the limit
    // is enforced on the Content-Length header alone.
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(b"POST /v1/run HTTP/1.1\r\nhost: t\r\ncontent-length: 1048576\r\n\r\n")
        .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let head = String::from_utf8_lossy(&raw);
    assert!(
        head.starts_with("HTTP/1.1 413 "),
        "expected 413, got: {head}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "413 must not wait for body bytes that never arrive"
    );
    handle.shutdown();
}

#[test]
fn batch_fans_out_over_shards() {
    let handle = boot(test_config());
    let addr = handle.addr();

    let docs = format!("{}{}", scenario_text(), scenario_text());
    let reply = client::post(addr, "/v1/batch?shards=2", docs.as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.text());
    let text = reply.text();
    assert!(text.contains("\"shards\":2"), "{text}");
    assert_eq!(
        text.matches("\"report\":").count(),
        2,
        "one report per scenario document: {text}"
    );
    handle.shutdown();
}

#[test]
fn policies_endpoint_lists_the_registry() {
    let handle = boot(test_config());
    let reply = client::get(handle.addr(), "/v1/policies").unwrap();
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("srpf"), "{}", reply.text());
    handle.shutdown();
}

#[test]
fn policy_query_param_overrides_the_scenario() {
    let handle = boot(test_config());
    let addr = handle.addr();

    let base = client::post(addr, "/v1/run", scenario_text().as_bytes()).unwrap();
    let srpf = client::post(addr, "/v1/run?policy=srpf", scenario_text().as_bytes()).unwrap();
    assert_eq!(base.status, 200, "{}", base.text());
    assert_eq!(srpf.status, 200, "{}", srpf.text());
    assert!(
        srpf.text().contains("\"policy\":\"srpf\""),
        "{}",
        srpf.text()
    );
    assert_ne!(
        base.body, srpf.body,
        "a policy override must change the report"
    );

    // Percent-encoded specs decode: rr(10s) as rr%2810s%29.
    let rr = client::post(
        addr,
        "/v1/run?policy=rr%2810s%29",
        scenario_text().as_bytes(),
    )
    .unwrap();
    assert_eq!(rr.status, 200, "{}", rr.text());
    assert!(
        rr.text().contains("\"policy\":\"rr(10s)\""),
        "{}",
        rr.text()
    );
    handle.shutdown();
}

#[test]
fn unknown_policy_is_a_structured_422() {
    let handle = boot(test_config());
    let reply = client::post(
        handle.addr(),
        "/v1/run?policy=nonsense",
        scenario_text().as_bytes(),
    )
    .unwrap();
    assert_eq!(reply.status, 422, "{}", reply.text());
    assert!(
        reply.text().contains("\"kind\":\"policy\""),
        "{}",
        reply.text()
    );
    handle.shutdown();
}

#[test]
fn oversized_server_count_is_a_422_and_the_server_keeps_serving() {
    // A 1 KB body asking for 2^32 - 1 storage servers: rejected by
    // validation before anything is sized from it.
    let text = CLUSTER_SCENARIO.replace("num_servers = 12\n", "num_servers = 4294967295\n");
    assert!(text.contains("num_servers = 4294967295\n"));
    let handle = boot(test_config());
    let addr = handle.addr();
    let reply = client::post(addr, "/v1/run", text.as_bytes()).unwrap();
    assert_eq!(reply.status, 422, "{}", reply.text());
    assert!(reply.text().contains("num_servers"), "{}", reply.text());
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_drains_and_joins() {
    let handle = boot(test_config());
    let addr = handle.addr();
    assert_eq!(client::get(addr, "/healthz").unwrap().status, 200);
    handle.shutdown();
    // The listener is gone: new connections are refused (or reset).
    assert!(client::get(addr, "/healthz").is_err());
}
