//! Throughput benchmark for `calciom-serve`: closed-loop (one
//! connection per request) versus keep-alive (persistent connections,
//! optionally pipelined), side by side.
//!
//! Boots the HTTP service in-process on an ephemeral port, then drives
//! it with POSTs of the same seeded [`MachineMix`] scenario to
//! `/v1/run`. Two phases, both closed-loop in the queueing sense (a
//! client never has more than `--pipeline` requests outstanding):
//!
//! * **closed-loop** — `--clients` threads × `--requests` each, a fresh
//!   TCP connection per request: the pre-keep-alive baseline
//!   (connect → request → response → close).
//! * **keep-alive** — `--connections` threads, each pumping
//!   `--requests` requests through one persistent connection with up to
//!   `--pipeline` outstanding. Reports requests per connection and
//!   cold- (first exchange, including connect) versus warm-connection
//!   latency percentiles.
//!
//! The first phase warms the response cache, so both phases measure the
//! HTTP front end on a cached workload — the protocol overhead, not the
//! simulator. Prints human-readable lines plus a `note: serve-json:
//! {...}` line CI extracts into the `BENCH_serve.json` artifact; the
//! keep-alive object carries `speedup_vs_closed_loop`, which
//! `ci/check_serve_regression.py` gates.
//!
//! `--print-scenario` instead writes the scenario document to stdout —
//! the CI smoke step uses it to produce a request body for `curl`.

use serve::client::{self, Conn};
use serve::{start, BufferLog, ServeConfig};
use std::collections::VecDeque;
use std::fmt;
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workloads::MachineMix;

/// Argument errors for this binary's flag vocabulary (distinct from the
/// figure binaries' `cli::FlagError`).
#[derive(Debug)]
enum ArgError {
    /// A flag that takes a value appeared at the end of the stream.
    MissingValue(&'static str),
    /// A value that should have been a number.
    NotANumber(String),
    /// A flag no entry point knows.
    UnknownFlag(String),
    /// A count flag set to zero.
    ZeroCount,
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::NotANumber(value) => write!(f, "`{value}` is not a number"),
            ArgError::UnknownFlag(flag) => write!(
                f,
                "unknown argument `{flag}` (expected --quick, --clients N, \
                 --requests M, --apps N, --seed S, --keep-alive, --closed-loop, \
                 --connections N, --pipeline D, --print-scenario)"
            ),
            ArgError::ZeroCount => {
                write!(
                    f,
                    "--clients, --requests, --apps, --connections and --pipeline must be positive"
                )
            }
        }
    }
}

impl std::error::Error for ArgError {}

struct Options {
    clients: usize,
    requests: usize,
    apps: usize,
    seed: u64,
    /// Keep-alive connections (defaults to `clients`).
    connections: Option<usize>,
    /// Max outstanding pipelined requests per keep-alive connection.
    pipeline: usize,
    run_closed_loop: bool,
    run_keep_alive: bool,
    print_scenario: bool,
}

impl Options {
    fn parse(args: impl Iterator<Item = String>) -> Result<Options, ArgError> {
        let mut opts = Options {
            clients: 8,
            requests: 100,
            apps: 8,
            seed: 2014,
            connections: None,
            pipeline: 16,
            run_closed_loop: true,
            run_keep_alive: true,
            print_scenario: false,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value = |name: &'static str| args.next().ok_or(ArgError::MissingValue(name));
            match arg.as_str() {
                "--quick" => {
                    opts.clients = 4;
                    opts.requests = 50;
                    opts.apps = 4;
                }
                "--clients" => opts.clients = parse_num(&value("--clients")?)?,
                "--requests" => opts.requests = parse_num(&value("--requests")?)?,
                "--apps" => opts.apps = parse_num(&value("--apps")?)?,
                "--seed" => opts.seed = parse_num(&value("--seed")?)?,
                "--connections" => opts.connections = Some(parse_num(&value("--connections")?)?),
                "--pipeline" => opts.pipeline = parse_num(&value("--pipeline")?)?,
                "--keep-alive" => {
                    opts.run_closed_loop = false;
                    opts.run_keep_alive = true;
                }
                "--closed-loop" => {
                    opts.run_closed_loop = true;
                    opts.run_keep_alive = false;
                }
                "--print-scenario" => opts.print_scenario = true,
                other => return Err(ArgError::UnknownFlag(other.to_string())),
            }
        }
        if opts.clients == 0
            || opts.requests == 0
            || opts.apps == 0
            || opts.pipeline == 0
            || opts.connections == Some(0)
        {
            return Err(ArgError::ZeroCount);
        }
        Ok(opts)
    }
}

fn parse_num<T: std::str::FromStr>(s: &str) -> Result<T, ArgError> {
    s.parse().map_err(|_| ArgError::NotANumber(s.to_string()))
}

fn scenario_text(opts: &Options) -> String {
    let mix = MachineMix {
        apps: opts.apps,
        seed: opts.seed,
        ..MachineMix::default()
    };
    mix.scenario(calciom::Strategy::FcfsSerialize).to_text()
}

fn percentile_us(sorted: &[u128], pct: usize) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * pct / 100;
    sorted[idx]
}

/// One phase's aggregate numbers.
struct Phase {
    total: usize,
    wall_ms: u128,
    rps: f64,
    failures: usize,
}

/// Closed loop: a fresh connection per request.
fn closed_loop_phase(addr: SocketAddr, body: &Arc<String>, opts: &Options) -> (Phase, Vec<u128>) {
    let started = Instant::now();
    let clients: Vec<_> = (0..opts.clients)
        .map(|_| {
            let body = Arc::clone(body);
            let requests = opts.requests;
            std::thread::spawn(move || {
                let mut latencies_us = Vec::with_capacity(requests);
                let mut failures = 0usize;
                let mut reference: Option<Vec<u8>> = None;
                for _ in 0..requests {
                    let sent = Instant::now();
                    match client::post(addr, "/v1/run", body.as_bytes()) {
                        Ok(reply) if reply.status == 200 => {
                            latencies_us.push(sent.elapsed().as_micros());
                            // Every response in the whole run must be
                            // byte-identical — the service's core contract.
                            match &reference {
                                Some(first) if *first != reply.body => failures += 1,
                                Some(_) => {}
                                None => reference = Some(reply.body),
                            }
                        }
                        Ok(_) | Err(_) => failures += 1,
                    }
                }
                (latencies_us, failures)
            })
        })
        .collect();

    let mut latencies_us = Vec::new();
    let mut failures = 0usize;
    for client in clients {
        let (lat, fail) = client.join().expect("client thread");
        latencies_us.extend(lat);
        failures += fail;
    }
    let wall = started.elapsed();
    latencies_us.sort_unstable();
    let total = opts.clients * opts.requests;
    (
        Phase {
            total,
            wall_ms: wall.as_millis(),
            rps: total as f64 / wall.as_secs_f64(),
            failures,
        },
        latencies_us,
    )
}

/// Per-thread keep-alive results.
struct KeepAliveClient {
    cold_us: Vec<u128>,
    warm_us: Vec<u128>,
    connections_used: usize,
    failures: usize,
}

/// One persistent connection pumping `requests` exchanges with up to
/// `depth` outstanding. Reconnects if the server closes (request cap);
/// the first exchange on each connection (including its connect) counts
/// as cold.
fn keep_alive_client(
    addr: SocketAddr,
    body: &str,
    requests: usize,
    depth: usize,
) -> KeepAliveClient {
    let mut result = KeepAliveClient {
        cold_us: Vec::new(),
        warm_us: Vec::new(),
        connections_used: 0,
        failures: 0,
    };
    let mut reference: Option<Vec<u8>> = None;
    let mut completed = 0usize;
    let mut issued;

    'outer: while completed < requests {
        let connect_started = Instant::now();
        let Ok(mut conn) = Conn::connect(addr) else {
            result.failures += requests - completed;
            return result;
        };
        result.connections_used += 1;
        let connect_us = connect_started.elapsed().as_micros();
        let mut fresh = true;
        let mut sent_at: VecDeque<Instant> = VecDeque::new();
        // On a reconnect, requests that were outstanding on the closed
        // connection are re-issued.
        issued = completed;

        loop {
            // Refill in bursts: one buffered write per batch, not one
            // syscall per request (half-window hysteresis keeps the
            // pipe full without a syscall per completion).
            if issued < requests && sent_at.len() <= depth / 2 {
                let batch = depth.saturating_sub(sent_at.len()).min(requests - issued);
                if batch > 0
                    && conn
                        .send_repeated("POST", "/v1/run", &[], body.as_bytes(), batch)
                        .is_ok()
                {
                    let now = Instant::now();
                    for _ in 0..batch {
                        sent_at.push_back(now);
                    }
                    issued += batch;
                }
            }
            if sent_at.is_empty() {
                break 'outer; // everything completed
            }
            match conn.recv() {
                Ok(reply) if reply.status == 200 => {
                    let latency = sent_at
                        .pop_front()
                        .map(|t| t.elapsed().as_micros())
                        .unwrap_or(0);
                    if fresh {
                        result.cold_us.push(latency + connect_us);
                        fresh = false;
                    } else {
                        result.warm_us.push(latency);
                    }
                    completed += 1;
                    let capped = reply.closes();
                    match &reference {
                        Some(first) if *first != reply.body => result.failures += 1,
                        Some(_) => {}
                        None => reference = Some(reply.body),
                    }
                    if capped {
                        continue 'outer; // server capped the connection
                    }
                }
                Ok(_) | Err(_) => {
                    result.failures += 1;
                    continue 'outer; // reconnect and re-issue
                }
            }
        }
    }
    result
}

fn keep_alive_phase(
    addr: SocketAddr,
    body: &Arc<String>,
    opts: &Options,
) -> (Phase, Vec<u128>, Vec<u128>, usize) {
    let connections = opts.connections.unwrap_or(opts.clients);
    let started = Instant::now();
    let clients: Vec<_> = (0..connections)
        .map(|_| {
            let body = Arc::clone(body);
            let requests = opts.requests;
            let depth = opts.pipeline;
            std::thread::spawn(move || keep_alive_client(addr, &body, requests, depth))
        })
        .collect();

    let mut cold_us = Vec::new();
    let mut warm_us = Vec::new();
    let mut connections_used = 0usize;
    let mut failures = 0usize;
    for client in clients {
        let r = client.join().expect("keep-alive client thread");
        cold_us.extend(r.cold_us);
        warm_us.extend(r.warm_us);
        connections_used += r.connections_used;
        failures += r.failures;
    }
    let wall = started.elapsed();
    cold_us.sort_unstable();
    warm_us.sort_unstable();
    let total = connections * opts.requests;
    (
        Phase {
            total,
            wall_ms: wall.as_millis(),
            rps: total as f64 / wall.as_secs_f64(),
            failures,
        },
        cold_us,
        warm_us,
        connections_used,
    )
}

fn main() -> ExitCode {
    let opts = match Options::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("serve-bench: {msg}");
            return ExitCode::from(2);
        }
    };
    let body = Arc::new(scenario_text(&opts));
    if opts.print_scenario {
        print!("{body}");
        return ExitCode::SUCCESS;
    }

    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    };
    let handle = match start(config, Box::new(BufferLog::new())) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("serve-bench: cannot boot server: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = handle.addr();

    println!(
        "serve-bench: MachineMix(apps={}, seed={}) → /v1/run",
        opts.apps, opts.seed
    );

    // Unmeasured warm-up: run the one simulation (the cache miss) and a
    // few exchanges on each path, so both measured phases see the same
    // fully cached workload — this benchmark compares HTTP front-end
    // overhead, not simulator throughput.
    for _ in 0..4 {
        if let Err(e) = client::post(addr, "/v1/run", body.as_bytes()) {
            eprintln!("serve-bench: warm-up request failed: {e}");
            return ExitCode::FAILURE;
        }
    }
    let warm = keep_alive_client(addr, &body, 16, 8);
    if warm.failures > 0 {
        eprintln!("serve-bench: keep-alive warm-up failed");
        return ExitCode::FAILURE;
    }

    let mut failures = 0usize;
    let mut closed: Option<(Phase, Vec<u128>)> = None;
    if opts.run_closed_loop {
        println!(
            "serve-bench: closed loop: {} clients × {} requests, 1 connection/request",
            opts.clients, opts.requests
        );
        let (phase, latencies) = closed_loop_phase(addr, &body, &opts);
        println!(
            "serve-bench: closed loop: {} requests in {:.3} s → {:.0} req/s \
             (p50 = {} µs, p99 = {} µs)",
            phase.total,
            phase.wall_ms as f64 / 1e3,
            phase.rps,
            percentile_us(&latencies, 50),
            percentile_us(&latencies, 99),
        );
        failures += phase.failures;
        closed = Some((phase, latencies));
    }

    let mut keep_alive: Option<(Phase, Vec<u128>, Vec<u128>, usize)> = None;
    if opts.run_keep_alive {
        let connections = opts.connections.unwrap_or(opts.clients);
        println!(
            "serve-bench: keep-alive: {} connections × {} requests, pipeline depth {}",
            connections, opts.requests, opts.pipeline
        );
        let (phase, cold, warm, used) = keep_alive_phase(addr, &body, &opts);
        println!(
            "serve-bench: keep-alive: {} requests in {:.3} s → {:.0} req/s over {} connections \
             ({:.1} reqs/connection)",
            phase.total,
            phase.wall_ms as f64 / 1e3,
            phase.rps,
            used,
            phase.total as f64 / used.max(1) as f64,
        );
        println!(
            "serve-bench: keep-alive: cold p50 = {} µs, cold p99 = {} µs; \
             warm p50 = {} µs, warm p99 = {} µs",
            percentile_us(&cold, 50),
            percentile_us(&cold, 99),
            percentile_us(&warm, 50),
            percentile_us(&warm, 99),
        );
        if let Some((closed_phase, _)) = &closed {
            println!(
                "serve-bench: keep-alive vs closed loop: {:.2}× throughput",
                phase.rps / closed_phase.rps
            );
        }
        failures += phase.failures;
        keep_alive = Some((phase, cold, warm, used));
    }

    let hits = handle.service().cache().hits();
    let misses = handle.service().cache().misses();
    handle.shutdown();

    let total: usize = closed.as_ref().map(|(p, _)| p.total).unwrap_or(0)
        + keep_alive.as_ref().map(|(p, ..)| p.total).unwrap_or(0);
    if failures > 0 || total == 0 {
        eprintln!("serve-bench: {failures} of {total} requests failed");
        return ExitCode::FAILURE;
    }
    println!(
        "serve-bench: response cache {hits} hits / {misses} misses over {} lookups",
        hits + misses
    );

    // The machine-readable record CI archives.
    let mut json = format!(
        "{{\"clients\":{},\"requests_per_client\":{},\"apps\":{},\"seed\":{},\
         \"pipeline\":{}",
        opts.clients, opts.requests, opts.apps, opts.seed, opts.pipeline
    );
    if let Some((phase, latencies)) = &closed {
        json.push_str(&format!(
            ",\"closed_loop\":{{\"total_requests\":{},\"wall_ms\":{},\"rps\":{:.1},\
             \"p50_us\":{},\"p99_us\":{}}}",
            phase.total,
            phase.wall_ms,
            phase.rps,
            percentile_us(latencies, 50),
            percentile_us(latencies, 99),
        ));
    }
    if let Some((phase, cold, warm, used)) = &keep_alive {
        json.push_str(&format!(
            ",\"keep_alive\":{{\"total_requests\":{},\"wall_ms\":{},\"rps\":{:.1},\
             \"connections\":{},\"reqs_per_connection\":{:.1},\
             \"cold_p50_us\":{},\"cold_p99_us\":{},\"warm_p50_us\":{},\"warm_p99_us\":{}",
            phase.total,
            phase.wall_ms,
            phase.rps,
            used,
            phase.total as f64 / (*used).max(1) as f64,
            percentile_us(cold, 50),
            percentile_us(cold, 99),
            percentile_us(warm, 50),
            percentile_us(warm, 99),
        ));
        if let Some((closed_phase, _)) = &closed {
            json.push_str(&format!(
                ",\"speedup_vs_closed_loop\":{:.2}",
                phase.rps / closed_phase.rps
            ));
        }
        json.push('}');
    }
    json.push_str(&format!(
        ",\"cache_hits\":{hits},\"cache_misses\":{misses}}}"
    ));
    println!("note: serve-json: {json}");
    ExitCode::SUCCESS
}
