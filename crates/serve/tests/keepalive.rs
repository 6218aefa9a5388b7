//! Persistent-connection integration tests of the epoll reactor:
//! pipelining order and byte-identity, the requests-per-connection cap,
//! idle and slow-loris timeouts, keep-alive reuse visible in the request
//! log, a machine-scale `/v1/batch` as one response, and graceful
//! shutdown with persistent connections open.

use calciom::{AccessPattern, AppConfig, AppId, PfsConfig, Scenario};
use serve::client::{self, Conn};
use serve::{start, BufferLog, RequestLog, RequestRecord, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 4,
        ..ServeConfig::default()
    }
}

/// Forwards records into a shared buffer so tests can inspect the log
/// of a running server.
struct SharedLog(Arc<BufferLog>);

impl RequestLog for SharedLog {
    fn record(&self, record: &RequestRecord) {
        self.0.record(record);
    }
}

fn boot(config: ServeConfig) -> (ServerHandle, Arc<BufferLog>) {
    let log = Arc::new(BufferLog::new());
    let handle = start(config, Box::new(SharedLog(Arc::clone(&log)))).expect("server boots");
    (handle, log)
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
fn pipelined_responses_are_in_order_and_byte_identical_to_sequential() {
    let (handle, _) = boot(config());
    let addr = handle.addr();
    let scenario = scenario_text();

    // The exchanges, as (method, target, body). A mix of cheap and
    // simulated endpoints so responses complete at different speeds —
    // ordering must hold anyway.
    let exchanges: Vec<(&str, String, Vec<u8>)> = vec![
        ("POST", "/v1/run".into(), scenario.clone().into_bytes()),
        ("GET", "/v1/policies".into(), Vec::new()),
        (
            "POST",
            "/v1/run?policy=srpf".into(),
            scenario.clone().into_bytes(),
        ),
        ("GET", "/healthz".into(), Vec::new()),
        ("POST", "/v1/timeline".into(), scenario.clone().into_bytes()),
    ];

    // Sequential ground truth: one-shot connections.
    let sequential: Vec<_> = exchanges
        .iter()
        .map(|(method, target, body)| {
            client::request(addr, method, target, &[], body).expect("sequential exchange")
        })
        .collect();

    // Pipeline all five onto one connection before reading anything.
    let mut conn = Conn::connect(addr).unwrap();
    for (method, target, body) in &exchanges {
        conn.send(method, target, &[], body)
            .expect("pipelined send");
    }
    for (i, expected) in sequential.iter().enumerate() {
        let reply = conn.recv().expect("pipelined recv");
        assert_eq!(reply.status, expected.status, "response {i}");
        assert_eq!(
            reply.body, expected.body,
            "response {i} must be byte-identical to its sequential twin"
        );
        assert!(!reply.closes(), "keep-alive holds: response {i}");
    }
    handle.shutdown();
}

#[test]
fn request_cap_answers_exactly_cap_requests_then_closes() {
    let (handle, _) = boot(ServeConfig {
        max_requests_per_conn: 3,
        ..config()
    });
    let mut conn = Conn::connect(handle.addr()).unwrap();
    // Burst five pipelined requests past the cap of three.
    for _ in 0..5 {
        conn.send("GET", "/healthz", &[], &[]).unwrap();
    }
    for i in 0..3 {
        let reply = conn.recv().expect("capped responses still arrive");
        assert_eq!(reply.status, 200);
        if i < 2 {
            assert!(!reply.closes(), "response {i} keeps alive");
        } else {
            assert!(
                reply.closes(),
                "the cap-th response must say Connection: close"
            );
        }
    }
    // Requests four and five were never answered: the connection is
    // closed, not serving past the cap.
    assert!(conn.recv().is_err(), "no responses beyond the cap");
    handle.shutdown();
}

#[test]
fn keep_alive_reuse_shows_one_conn_id_in_the_request_log() {
    let (handle, log) = boot(config());
    let addr = handle.addr();

    let mut conn = Conn::connect(addr).unwrap();
    for _ in 0..3 {
        assert_eq!(
            conn.request("GET", "/v1/policies", &[], &[])
                .unwrap()
                .status,
            200
        );
    }
    let other = client::get(addr, "/v1/policies").unwrap();
    assert_eq!(other.status, 200);

    // The server records a request *after* the response bytes go
    // out, so the client can race ahead of the log — poll briefly
    // for the last record instead of asserting instantly.
    let deadline = Instant::now() + Duration::from_secs(5);
    let ids: Vec<Option<u64>> = loop {
        let ids: Vec<Option<u64>> = log
            .records()
            .iter()
            .filter(|r| r.path == "/v1/policies")
            .map(|r| r.conn)
            .collect();
        if ids.len() >= 4 || Instant::now() >= deadline {
            break ids;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(ids.len(), 4, "four logged requests");
    assert!(ids[0].is_some(), "socket requests carry a conn id");
    assert_eq!(ids[0], ids[1], "reused connection, same id");
    assert_eq!(ids[1], ids[2], "reused connection, same id");
    assert_ne!(ids[3], ids[0], "fresh connection, fresh id");
    handle.shutdown();
}

#[test]
fn slow_loris_gets_a_408_without_occupying_a_simulation_worker() {
    // One worker: if the dribbling connection occupied it, the
    // companion request could not complete.
    let (handle, _) = boot(ServeConfig {
        workers: 1,
        header_timeout_ms: 600,
        idle_timeout_ms: 400,
        ..config()
    });
    let addr = handle.addr();

    // The attacker: half a request head, then silence.
    let mut loris = TcpStream::connect(addr).unwrap();
    loris
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    loris.write_all(b"GET /heal").unwrap();

    // The reactor parks the dribbler without a worker: a real request
    // on the single worker completes while the loris still dribbles.
    let started = Instant::now();
    let reply = client::post(addr, "/v1/run", scenario_text().as_bytes()).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "companion request must not wait behind the slow loris"
    );

    // The dribbler itself gets a structured 408 and a close.
    let mut raw = Vec::new();
    loris.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(
        text.starts_with("HTTP/1.1 408 "),
        "expected 408, got: {text}"
    );
    assert!(text.contains("connection: close"), "{text}");
    handle.shutdown();
}

#[test]
fn idle_keep_alive_connections_are_closed_after_the_idle_timeout() {
    let (handle, _) = boot(ServeConfig {
        idle_timeout_ms: 300,
        header_timeout_ms: 600,
        ..config()
    });
    let mut conn = Conn::connect(handle.addr()).unwrap();
    assert_eq!(
        conn.request("GET", "/healthz", &[], &[]).unwrap().status,
        200
    );
    // Sit idle past the timeout: the server closes (EOF), without
    // sending anything — an idle close is not an error response.
    let err = conn.recv().expect_err("server closes the idle connection");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    handle.shutdown();
}

/// A committed 4-application flat scenario.
const FLAT_4APPS: &str = include_str!("flat_4apps.scenario");

#[test]
fn large_batch_is_one_content_length_response_on_a_kept_alive_connection() {
    let (handle, _) = boot(config());
    let mut conn = Conn::connect(handle.addr()).unwrap();
    // 128 documents × 4 applications = 512 applications in one batch.
    let docs = FLAT_4APPS.repeat(128);
    let reply = conn
        .request("POST", "/v1/batch?shards=4", &[], docs.as_bytes())
        .unwrap();
    assert_eq!(reply.status, 200, "{}", reply.text());
    assert_eq!(reply.header("transfer-encoding"), None);
    assert_eq!(
        reply.header("content-length"),
        Some(reply.body.len().to_string().as_str())
    );
    let text = reply.text();
    assert!(text.contains("\"scenarios\":128"), "{text}");
    assert_eq!(text.matches("\"report\":").count(), 128);
    // The connection keeps serving after the large response.
    assert_eq!(
        conn.request("GET", "/healthz", &[], &[]).unwrap().status,
        200,
        "connection usable after a large batch"
    );
    handle.shutdown();
}

#[test]
fn graceful_shutdown_completes_in_flight_and_closes_idle_connections() {
    let (handle, _) = boot(config());
    let addr = handle.addr();

    // An idle keep-alive connection…
    let mut idle = Conn::connect(addr).unwrap();
    assert_eq!(
        idle.request("GET", "/healthz", &[], &[]).unwrap().status,
        200
    );

    // …and a connection with a slow request in flight (a 20-document
    // batch on one shard takes long enough to still be running when
    // the signal lands).
    let docs: String = (0..20).map(|_| scenario_text()).collect();
    let mut busy = Conn::connect(addr).unwrap();
    busy.send("POST", "/v1/batch?shards=1", &[], docs.as_bytes())
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let started = Instant::now();
    let signal = handle.signal();
    signal.trigger();

    // The in-flight batch completes…
    let reply = busy
        .recv()
        .expect("in-flight request completes on shutdown");
    assert_eq!(reply.status, 200, "{}", reply.text());
    // …then its connection closes, as does the idle one, promptly.
    assert!(busy.recv().is_err(), "busy conn closed after reply");
    assert!(idle.recv().is_err(), "idle conn closed promptly");

    handle.join();
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "shutdown must not hang on persistent connections"
    );
}
