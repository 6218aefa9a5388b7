//! `benchmark` — the repository benchmark. README.md next to this file
//! has the workloads, the metrics, and why each was chosen.
//!
//! ```text
//! benchmark run (--workload <name> | --all) [--seed N] [--seconds S]
//!               [--trace 0|1] [--record FILE]
//! benchmark compare A.json B.json
//! benchmark pin
//! ```
//!
//! `run` prints every metric by name with its unit, then one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--record` also
//! appends that line, tagged with workload and seed, to FILE; `compare`
//! reads two such files. `pin` prints the digest table `digests.txt`
//! holds.

mod clock;
mod gen;
mod load;
mod ops;
mod probe;
mod stats;

use clock::{ms, timed, Stamp};
use gen::{OpInput, Workload};
use load::{Client, Reply, Server};
use ops::Fnv;
use probe::{probe_op, Service, Spans, Split};
use stats::{json_num, percentile, quartiles, Better, EndToEnd, Json, END_TO_END};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// The default seed; its digests are pinned.
const DEFAULT_SEED: u64 = 1;
/// A second pinned seed, not used while the benchmark was written.
const HELD_OUT_SEED: u64 = 97;
/// Seeds whose per-chunk output digests `digests.txt` pins.
const PINNED_SEEDS: [u64; 2] = [DEFAULT_SEED, HELD_OUT_SEED];
/// `run_seconds` of `BENCHMARK.json`, which its runner passes as
/// `--seconds`: the longest a run measures. An untraced run normally
/// finishes its fixed ops well within it; a traced run probes ops until
/// it passes.
const DEFAULT_SECONDS: u64 = 30;
/// Seeds of the two unmeasured warm-up ops.
const WARM_UP_SEEDS: [u64; 2] = [u64::MAX, u64::MAX - 1];
/// Set-ups per run; `setup_s` is their median. The first starts at
/// process start and the run repeats the set-up after each tenth of its
/// ops: host noise comes in bursts, and a paper-pairs or serve set-up
/// takes a few milliseconds, so set-ups bunched together would read one
/// burst.
const SETUPS: u64 = 11;
/// Pinned output digests: `<workload> <seed> <chunk> <fnv64 hex>`.
const DIGESTS: &str = include_str!("digests.txt");

/// Everything that can stop a run.
#[derive(Debug)]
pub enum BenchError {
    /// Bad command line.
    Usage(String),
    /// Socket or file error.
    Io(std::io::Error),
    /// A generated scenario did not decode.
    Decode(calciom::ScenarioParseError),
    /// The simulation failed.
    Sim(calciom::Error),
    /// An output check failed.
    Invalid(String),
    /// An HTTP exchange failed.
    Http(String),
    /// The server closed the connection before answering.
    Closed,
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(m) => write!(f, "usage: {m}"),
            BenchError::Io(e) => write!(f, "i/o: {e}"),
            BenchError::Decode(e) => write!(f, "scenario decode: {e}"),
            BenchError::Sim(e) => write!(f, "simulation: {e}"),
            BenchError::Invalid(m) => write!(f, "invalid output: {m}"),
            BenchError::Http(m) => write!(f, "http: {m}"),
            BenchError::Closed => write!(f, "http: connection closed"),
        }
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

fn main() -> ExitCode {
    let started = Stamp::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a, started)),
        Some("compare") if args.len() == 3 => compare(Path::new(&args[1]), Path::new(&args[2])),
        Some("pin") => pin(),
        _ => Err(BenchError::Usage(
            "benchmark run (--workload <name> | --all) [--seed N] [--seconds S] \
             [--trace 0|1] [--record FILE] | compare A.json B.json | pin"
                .to_string(),
        )),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `run` arguments.
#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    /// One workload, or `None` for `--all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, BenchError> {
    let usage = |m: &str| BenchError::Usage(m.to_string());
    let mut out = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: None,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| usage(&format!("unknown workload {name:?}")))?,
                );
            }
            "--all" => all = true,
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| usage("--seed takes an integer"))?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|&s| s > 0)
                    .ok_or_else(|| usage("--seconds takes a positive integer"))?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage("--trace takes 0 or 1")),
                }
            }
            "--record" => out.record = Some(PathBuf::from(value()?)),
            other => return Err(usage(&format!("unknown flag {other:?}"))),
        }
    }
    if all == out.workload.is_some() {
        return Err(usage("give exactly one of --workload <name> and --all"));
    }
    Ok(out)
}

fn run(args: &RunArgs, started: Stamp) -> Result<bool, BenchError> {
    let Some(workload) = args.workload else {
        return run_all(args);
    };
    let outcome = match (workload, args.trace) {
        (Workload::ServeUncached, false) => serve_untraced(args, started)?,
        (Workload::ServeUncached, true) => serve_traced(args, started)?,
        (w, false) => inprocess_untraced(w, args, started)?,
        (w, true) => inprocess_traced(w, args, started)?,
    };
    // A printed result is a successful run; its `correct` field carries
    // the verdict on the outputs.
    outcome.print(workload, args)?;
    Ok(true)
}

/// Runs every workload, each in its own child process so that memory is
/// measured per workload.
fn run_all(args: &RunArgs) -> Result<bool, BenchError> {
    let exe = std::env::current_exe()?;
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        if args.trace {
            cmd.args(["--trace", "1"]);
        }
        if let Some(record) = &args.record {
            cmd.arg("--record").arg(record);
        }
        let status = cmd.status()?;
        if !status.success() {
            eprintln!("benchmark: workload {} exited with {status}", w.name());
            ok = false;
        }
    }
    Ok(ok)
}

/// The pinned chunk digests of `(workload, seed)`, if any.
fn pinned(w: Workload, seed: u64) -> Result<Option<Vec<u64>>, BenchError> {
    let mut chunks = Vec::new();
    for line in DIGESTS.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || BenchError::Invalid(format!("digests.txt: malformed line {line:?}"));
        if f.len() != 4 {
            return Err(bad());
        }
        if f[0] != w.name() || f[1].parse::<u64>().map_err(|_| bad())? != seed {
            continue;
        }
        if f[2].parse::<usize>().map_err(|_| bad())? != chunks.len() {
            return Err(bad());
        }
        chunks.push(u64::from_str_radix(f[3], 16).map_err(|_| bad())?);
    }
    Ok((!chunks.is_empty()).then_some(chunks))
}

/// Per-chunk output accounting: ops arrive in index order; a completed
/// chunk whose digest differs from the pinned one fails all its ops.
struct Chunks {
    chunk_ops: u64,
    /// The run's fixed op count.
    planned: u64,
    pinned: Option<Vec<u64>>,
    current: Fnv,
    in_chunk: u64,
    failed_in_chunk: u64,
    attempted: u64,
    failed: u64,
    checked: u64,
    mismatched: u64,
    digests: Vec<u64>,
    first_error: Option<String>,
}

impl Chunks {
    fn new(w: Workload, pinned: Option<Vec<u64>>) -> Chunks {
        Chunks {
            chunk_ops: w.chunk_ops(),
            planned: w.ops(),
            pinned,
            current: Fnv::new(),
            in_chunk: 0,
            failed_in_chunk: 0,
            attempted: 0,
            failed: 0,
            checked: 0,
            mismatched: 0,
            digests: Vec::new(),
            first_error: None,
        }
    }

    fn record(&mut self, out: Result<u64, BenchError>) {
        self.attempted += 1;
        self.in_chunk += 1;
        match out {
            Ok(digest) => self.current.u64(digest),
            Err(e) => {
                self.failed += 1;
                self.failed_in_chunk += 1;
                self.current.u64(0);
                self.first_error.get_or_insert_with(|| e.to_string());
            }
        }
        if self.in_chunk < self.chunk_ops {
            return;
        }
        let digest = self.current.finish();
        let chunk = self.digests.len();
        if let Some(&want) = self.pinned.as_ref().and_then(|p| p.get(chunk)) {
            self.checked += 1;
            if digest != want {
                self.mismatched += 1;
                self.failed += self.in_chunk - self.failed_in_chunk;
            }
        }
        self.digests.push(digest);
        self.current = Fnv::new();
        self.in_chunk = 0;
        self.failed_in_chunk = 0;
    }

    fn notes(&self, seed: u64) -> Vec<String> {
        let mut notes = vec![match &self.pinned {
            Some(_) => format!(
                "digests: seed {seed} is pinned; {} chunks checked, {} mismatched",
                self.checked, self.mismatched
            ),
            None => format!("digests: seed {seed} is not pinned; validity checks only"),
        }];
        if self.attempted < self.planned {
            notes.push(format!(
                "ran {} of {} ops before the --seconds limit",
                self.attempted, self.planned
            ));
        }
        if let Some(e) = &self.first_error {
            notes.push(format!("first failure: {e}"));
        }
        notes
    }
}

/// Room for the per-op latencies (ms) of a run of `w`, allocated before
/// the run so that the client's memory does not depend on the speed of
/// the code under test.
fn latencies(w: Workload) -> Vec<f64> {
    Vec::with_capacity(w.ops() as usize)
}

/// What one run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    /// Printed only, not part of the contract line.
    extra: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Outcome {
    /// The end-to-end metrics of an untraced run: throughput over the
    /// measured wall time (which stops while inputs are generated and
    /// checked), and latency percentiles over every op.
    fn end_to_end(
        chunks: &Chunks,
        seed: u64,
        latency_ms: &mut [f64],
        wall: Duration,
        setups: &mut [Duration],
    ) -> Outcome {
        setups.sort();
        latency_ms.sort_by(f64::total_cmp);
        Outcome {
            attempted: chunks.attempted,
            failed: chunks.failed,
            metrics: vec![
                (
                    "ops_per_s",
                    latency_ms.len() as f64 / wall.as_secs_f64(),
                    "1/s",
                ),
                ("op_p50_ms", percentile(latency_ms, 50.0), "ms"),
                ("op_p90_ms", percentile(latency_ms, 90.0), "ms"),
                ("setup_s", setups[setups.len() / 2].as_secs_f64(), "s"),
                ("peak_rss_mb", peak_rss_mb(), "MB"),
            ],
            extra: vec![
                (
                    "failed_ops_frac",
                    chunks.failed as f64 / chunks.attempted.max(1) as f64,
                    "1",
                ),
                ("measured_s", wall.as_secs_f64(), "s"),
            ],
            notes: chunks.notes(seed),
        }
    }

    fn print(&self, w: Workload, args: &RunArgs) -> Result<(), BenchError> {
        let mode = if args.trace { "traced" } else { "untraced" };
        println!("workload {} seed {} ({mode})", w.name(), args.seed);
        for note in &self.notes {
            println!("note: {note}");
        }
        println!("{:<26} {:>16} count", "ops_attempted", self.attempted);
        println!("{:<26} {:>16} count", "ops_failed", self.failed);
        for (name, value, unit) in self.metrics.iter().chain(&self.extra) {
            println!("{name:<26} {value:>16.4} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        let line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        if let Some(path) = &args.record {
            let mut file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)?;
            writeln!(
                file,
                "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"result\":{line}}}",
                w.name(),
                args.seed,
                args.trace as u8
            )?;
        }
        println!("{line}");
        Ok(())
    }
}

/// `VmHWM` (peak resident set) of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Generates ops `first..first + n`.
fn batch(w: Workload, seed: u64, first: u64, n: u64) -> Vec<OpInput> {
    (first..first + n).map(|i| w.op(seed, i)).collect()
}

/// Whether the run repeats its set-up once `done` ops are done; see
/// [`SETUPS`].
fn setup_due(w: Workload, done: u64) -> bool {
    done % (w.ops() / (SETUPS - 1)) == 0
}

/// The in-process set-up: the warm-up ops and the first batch of inputs.
fn inprocess_setup(w: Workload, seed: u64) -> Result<Vec<OpInput>, BenchError> {
    for warm in WARM_UP_SEEDS {
        ops::run_op(&w.op(warm, 0))?;
    }
    Ok(batch(w, seed, 0, w.batch_ops()))
}

fn inprocess_untraced(w: Workload, args: &RunArgs, started: Stamp) -> Result<Outcome, BenchError> {
    let mut inputs = inprocess_setup(w, args.seed)?;
    let mut setups = vec![started.elapsed()];
    let mut chunks = Chunks::new(w, pinned(w, args.seed)?);
    let mut latency_ms = latencies(w);
    let mut wall = Duration::ZERO;
    let deadline = Duration::from_secs(args.seconds);
    let start = Stamp::now();
    'run: loop {
        let t = Stamp::now();
        for input in &inputs {
            if start.elapsed() >= deadline {
                wall += t.elapsed();
                break 'run;
            }
            let (out, d) = timed(|| ops::run_op(input));
            latency_ms.push(ms(d));
            chunks.record(out);
        }
        wall += t.elapsed();
        if setup_due(w, chunks.attempted) {
            let (again, d) = timed(|| inprocess_setup(w, args.seed));
            again?;
            setups.push(d);
        }
        if chunks.attempted >= w.ops() {
            break;
        }
        inputs = batch(w, args.seed, chunks.attempted, w.batch_ops());
    }
    Ok(Outcome::end_to_end(
        &chunks,
        args.seed,
        &mut latency_ms,
        wall,
        &mut setups,
    ))
}

/// The request target of a service op.
fn target(input: &OpInput) -> String {
    format!("{}{}", input.route.path(), input.query)
}

/// Checks a service response and returns its digest.
fn check_reply(input: &OpInput, reply: Result<Reply, BenchError>) -> Result<u64, BenchError> {
    let reply = reply?;
    if reply.status != 200 {
        return Err(BenchError::Invalid(format!(
            "{} answered {}: {}",
            target(input),
            reply.status,
            String::from_utf8_lossy(&reply.body)
        )));
    }
    ops::check_body(input.route, &reply.body, &input.scenario)?;
    Ok(serve::json::fnv64(&reply.body))
}

/// One client request of the closed loop.
struct Sent {
    index: usize,
    latency: Duration,
    reply: Result<Reply, BenchError>,
}

/// Closed loop: the two keep-alive connections each send their next
/// request when the previous response is complete, until the batch is
/// done or the deadline passes. Returns the exchanges in op order.
fn drive(
    inputs: &[OpInput],
    clients: &mut [Client; 2],
    start: Stamp,
    deadline: Duration,
) -> Result<Vec<Sent>, BenchError> {
    let next = AtomicUsize::new(0);
    let mut sent = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        // The counter publishes no other data.
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        if index >= inputs.len() || start.elapsed() >= deadline {
                            return out;
                        }
                        let input = &inputs[index];
                        let target = target(input);
                        let t = Stamp::now();
                        let reply = client.post(&target, input.text.as_bytes());
                        out.push(Sent {
                            index,
                            latency: t.elapsed(),
                            reply,
                        });
                    }
                })
            })
            .collect();
        let mut all = Vec::new();
        for worker in workers {
            all.extend(
                worker
                    .join()
                    .map_err(|_| BenchError::Http("client thread panicked".to_string()))?,
            );
        }
        Ok::<_, BenchError>(all)
    })?;
    sent.sort_by_key(|s| s.index);
    Ok(sent)
}

/// A booted, warmed-up service ready for the measured load.
struct ServeSetup {
    server: Server,
    clients: [Client; 2],
    /// The first batch of requests.
    inputs: Vec<OpInput>,
}

/// Boots the service, warms it up with one request per connection, and
/// generates the first batch of requests.
fn serve_setup(seed: u64) -> Result<ServeSetup, BenchError> {
    let w = Workload::ServeUncached;
    let server = Server::boot()?;
    let mut clients = [Client::new(server.addr()), Client::new(server.addr())];
    for (client, warm) in clients.iter_mut().zip(WARM_UP_SEEDS) {
        let input = w.op(warm, 0);
        check_reply(&input, client.post(&target(&input), input.text.as_bytes()))?;
    }
    let inputs = batch(w, seed, 0, w.batch_ops());
    Ok(ServeSetup {
        server,
        clients,
        inputs,
    })
}

/// One checked exchange of the serve workload. Neither the request nor
/// the body is kept; the generator can rebuild the request from its
/// index.
struct Exchange {
    index: u64,
    latency: Duration,
    status: u16,
    digest: Result<u64, BenchError>,
}

/// The HTTP half of the serve workload: the run's ops in batches, until
/// they are all sent or `deadline` passes. Each batch's replies are
/// checked once it is done and handed to `each_batch` in op order.
/// Returns the wall time spent inside batches.
fn serve_load(
    seed: u64,
    clients: &mut [Client; 2],
    mut inputs: Vec<OpInput>,
    deadline: Duration,
    mut each_batch: impl FnMut(Vec<Exchange>) -> Result<(), BenchError>,
) -> Result<Duration, BenchError> {
    let w = Workload::ServeUncached;
    let mut sent_ops = 0;
    let mut wall = Duration::ZERO;
    let start = Stamp::now();
    loop {
        let t = Stamp::now();
        let sent = drive(&inputs, clients, start, deadline)?;
        wall += t.elapsed();
        let complete = sent.len() == inputs.len();
        sent_ops += sent.len() as u64;
        each_batch(
            inputs
                .into_iter()
                .zip(sent)
                .map(|(input, s)| Exchange {
                    status: s.reply.as_ref().map_or(0, |r| r.status),
                    digest: check_reply(&input, s.reply),
                    index: input.index,
                    latency: s.latency,
                })
                .collect(),
        )?;
        if !complete || sent_ops >= w.ops() {
            return Ok(wall);
        }
        inputs = batch(w, seed, sent_ops, w.batch_ops());
    }
}

fn serve_untraced(args: &RunArgs, started: Stamp) -> Result<Outcome, BenchError> {
    let w = Workload::ServeUncached;
    let ServeSetup {
        server,
        mut clients,
        inputs,
    } = serve_setup(args.seed)?;
    let mut setups = vec![started.elapsed()];
    server.log.drain(WARM_UP_SEEDS.len());
    let mut chunks = Chunks::new(w, pinned(w, args.seed)?);
    let mut latency_ms = latencies(w);
    let (mut logged, mut hits) = (0, 0);
    let deadline = Duration::from_secs(args.seconds);
    let wall = serve_load(args.seed, &mut clients, inputs, deadline, |exchanges| {
        let n = exchanges.len();
        for e in exchanges {
            latency_ms.push(ms(e.latency));
            chunks.record(e.digest);
        }
        let records = server.log.drain(n);
        logged += records.len();
        hits += records.iter().filter(|l| l.cache_hit).count();
        if setup_due(w, chunks.attempted) {
            let (again, d) = timed(|| serve_setup(args.seed));
            let ServeSetup {
                server, clients, ..
            } = again?;
            setups.push(d);
            drop(clients);
            server.stop();
        }
        Ok(())
    })?;
    server.stop();
    let mut outcome = Outcome::end_to_end(&chunks, args.seed, &mut latency_ms, wall, &mut setups);
    outcome.notes.push(format!(
        "service: {logged} requests logged, {hits} cache hits"
    ));
    Ok(outcome)
}

fn inprocess_traced(w: Workload, args: &RunArgs, started: Stamp) -> Result<Outcome, BenchError> {
    let server = Server::boot()?;
    let mut client = Client::new(server.addr());
    for seed in WARM_UP_SEEDS {
        ops::run_op(&w.op(seed, 0))?;
    }
    let mut spans = Spans::new(started);
    let mut chunks = Chunks::new(w, pinned(w, args.seed)?);
    let mut splits = Vec::new();
    let deadline = Duration::from_secs(args.seconds);
    let start = Stamp::now();
    while chunks.attempted < w.ops() && start.elapsed() < deadline {
        let input = w.op(args.seed, chunks.attempted);
        // The service runs flat scenarios only; cluster ops skip the
        // live request.
        let service = if input.scenario.cluster.is_none() {
            Service::Post {
                client: &mut client,
                log: &server.log,
            }
        } else {
            Service::Skip
        };
        let out = probe_op(&input, service, &mut spans).and_then(|split| {
            let out = probe_verdict(&split);
            splits.push(split);
            out
        });
        chunks.record(out);
    }
    server.stop();
    traced_outcome(w, args, &chunks, &splits, &spans)
}

/// A traced op passes when every exactness check held and the service
/// answered 200.
fn probe_verdict(split: &Split) -> Result<u64, BenchError> {
    let bad = split.mismatches + split.medium.mismatches + split.non200 + split.cache_hits;
    if bad > 0 {
        return Err(BenchError::Invalid(format!(
            "probe: {} exactness mismatches, {} replay mismatches, {} non-200, {} cache hits",
            split.mismatches, split.medium.mismatches, split.non200, split.cache_hits
        )));
    }
    Ok(split.digest)
}

fn serve_traced(args: &RunArgs, started: Stamp) -> Result<Outcome, BenchError> {
    let w = Workload::ServeUncached;
    let ServeSetup {
        server,
        mut clients,
        inputs,
    } = serve_setup(args.seed)?;
    server.log.drain(WARM_UP_SEEDS.len());
    let deadline = Duration::from_secs(args.seconds);
    let start = Stamp::now();
    let mut done = Vec::new();
    serve_load(args.seed, &mut clients, inputs, deadline, |exchanges| {
        done.extend(exchanges);
        Ok(())
    })?;

    // Phase 2: the same requests, stage by stage, in-process, until the
    // deadline.
    let mut spans = Spans::new(started);
    let mut chunks = Chunks::new(w, pinned(w, args.seed)?);
    let mut splits = Vec::new();
    let mut probe_failed = 0;
    let sent = done.len();
    for e in done {
        chunks.record(e.digest);
        if start.elapsed() >= deadline {
            continue;
        }
        let input = w.op(args.seed, e.index);
        let logged = server
            .log
            .take(serve::json::fnv64(input.text.as_bytes()))
            .ok_or_else(|| BenchError::Http("request missing from the log".to_string()))?;
        let served = Service::Served {
            handle: logged.handle,
            latency: e.latency,
            cache_hit: logged.cache_hit,
            status: e.status,
        };
        match probe_op(&input, served, &mut spans) {
            Ok(split) => {
                probe_failed += probe_verdict(&split).is_err() as u64;
                splits.push(split);
            }
            Err(_) => probe_failed += 1,
        }
    }
    server.stop();
    let mut outcome = traced_outcome(w, args, &chunks, &splits, &spans)?;
    outcome.failed += probe_failed;
    outcome.notes.push(format!(
        "{sent} requests over HTTP, {} re-executed stage by stage",
        splits.len()
    ));
    Ok(outcome)
}

/// Per-op means of the per-layer numbers, with the tracing overhead.
fn traced_outcome(
    w: Workload,
    args: &RunArgs,
    chunks: &Chunks,
    splits: &[Split],
    spans: &Spans,
) -> Result<Outcome, BenchError> {
    let path = PathBuf::from(format!(
        "target/benchmark/spans-{}-seed{}.jsonl",
        w.name(),
        args.seed
    ));
    spans.write(&path)?;
    let mut notes = chunks.notes(args.seed);
    notes.push(format!("spans written to {}", path.display()));
    Ok(Outcome {
        attempted: chunks.attempted,
        failed: chunks.failed,
        metrics: layer_metrics(splits),
        extra: Vec::new(),
        notes,
    })
}

/// The per-layer metrics, in report order.
fn layer_metrics(splits: &[Split]) -> Vec<(&'static str, f64, &'static str)> {
    let n = splits.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Split) -> f64| splits.iter().map(f).sum::<f64>();
    let mean = |f: &dyn Fn(&Split) -> f64| sum(f) / n;
    let mean_ms = |f: &dyn Fn(&Split) -> Duration| mean(&|s| ms(f(s)));
    let arbiter =
        |s: &Split| s.visits.time + s.grant_checks.time + s.wake_scans.time + s.ticks.time;
    let medium = |s: &Split| {
        s.medium.next_event.time + s.medium.advance.time + s.medium.poll.time + s.medium.submit.time
    };
    let execute = sum(&|s| ms(s.execute));
    let served: Vec<&Split> = splits.iter().filter(|s| s.service.is_some()).collect();
    let served_mean = |f: &dyn Fn(&Split, Duration, Duration) -> f64| {
        let total: f64 = served
            .iter()
            .filter_map(|s| s.service.map(|(handle, latency)| f(s, handle, latency)))
            .sum();
        total / served.len().max(1) as f64
    };
    vec![
        (
            "pfs.submits",
            mean(&|s| s.medium.submit.calls as f64),
            "count",
        ),
        ("pfs.submit_ms", mean_ms(&|s| s.medium.submit.time), "ms"),
        (
            "pfs.next_event_calls",
            mean(&|s| s.medium.next_event.calls as f64),
            "count",
        ),
        (
            "pfs.next_event_ms",
            mean_ms(&|s| s.medium.next_event.time),
            "ms",
        ),
        (
            "pfs.next_event_pct",
            100.0 * sum(&|s| ms(s.medium.next_event.time)) / execute,
            "%",
        ),
        (
            "pfs.advances",
            mean(&|s| s.medium.advance.calls as f64),
            "count",
        ),
        ("pfs.advance_ms", mean_ms(&|s| s.medium.advance.time), "ms"),
        ("pfs.poll_ms", mean_ms(&|s| s.medium.poll.time), "ms"),
        (
            "pfs.replay_mismatches",
            sum(&|s| s.medium.mismatches as f64),
            "count",
        ),
        ("arbiter.visits", mean(&|s| s.visits.calls as f64), "count"),
        ("arbiter.visit_ms", mean_ms(&|s| s.visits.time), "ms"),
        (
            "arbiter.visit_pct",
            100.0 * sum(&|s| ms(s.visits.time)) / execute,
            "%",
        ),
        (
            "arbiter.grant_checks",
            mean(&|s| s.grant_checks.calls as f64),
            "count",
        ),
        (
            "arbiter.grant_check_ms",
            mean_ms(&|s| s.grant_checks.time),
            "ms",
        ),
        (
            "arbiter.wake_scans",
            mean(&|s| s.wake_scans.calls as f64),
            "count",
        ),
        (
            "arbiter.wake_scan_ms",
            mean_ms(&|s| s.wake_scans.time),
            "ms",
        ),
        (
            "arbiter.woken_per_scan",
            sum(&|s| s.woken as f64) / sum(&|s| s.wake_scans.calls as f64).max(1.0),
            "ratio",
        ),
        ("arbiter.tick_ms", mean_ms(&|s| s.ticks.time), "ms"),
        ("arbiter.messages", mean(&|s| s.messages as f64), "count"),
        ("session.build_ms", mean_ms(&|s| s.build), "ms"),
        ("session.execute_ms", mean_ms(&|s| s.execute), "ms"),
        (
            "session.other_ms",
            mean(&|s| ms(s.execute) - ms(arbiter(s)) - ms(medium(s)) - ms(s.fold)),
            "ms",
        ),
        ("observe.events", mean(&|s| s.events as f64), "count"),
        ("observe.fold_ms", mean_ms(&|s| s.fold), "ms"),
        ("scenario.decode_ms", mean_ms(&|s| s.decode), "ms"),
        ("scenario.canon_ms", mean_ms(&|s| s.canon), "ms"),
        (
            "baseline.sessions",
            mean(&|s| s.baselines.calls as f64),
            "count",
        ),
        ("baseline.alone_ms", mean_ms(&|s| s.baselines.time), "ms"),
        ("http.parse_ms", mean_ms(&|s| s.parse), "ms"),
        ("serve.simulate_ms", mean_ms(&|s| s.simulate), "ms"),
        ("serve.render_ms", mean_ms(&|s| s.render), "ms"),
        ("serve.verify_ms", mean_ms(&|s| s.verify), "ms"),
        ("http.serialize_ms", mean_ms(&|s| s.serialize), "ms"),
        (
            "service.handle_ms",
            served_mean(&|_, handle, _| ms(handle)),
            "ms",
        ),
        (
            "service.wait_ms",
            served_mean(&|_, handle, latency| ms(latency) - ms(handle)),
            "ms",
        ),
        (
            "service.unattributed_ms",
            served_mean(&|s, handle, _| ms(handle) - ms(s.in_handler)),
            "ms",
        ),
        ("service.cache_hits", sum(&|s| s.cache_hits as f64), "count"),
        ("service.non200", sum(&|s| s.non200 as f64), "count"),
        (
            "trace.overhead_pct",
            100.0 * (sum(&|s| ms(s.build + s.execute)) / sum(&|s| ms(s.untraced)) - 1.0),
            "%",
        ),
        ("trace.mismatches", sum(&|s| s.mismatches as f64), "count"),
        ("trace.ops", splits.len() as f64, "count"),
    ]
}

/// `pin`: runs every pinned op of every workload for both pinned seeds
/// and prints the digest table.
fn pin() -> Result<bool, BenchError> {
    println!("# Pinned output digests: <workload> <seed> <chunk> <fnv64>.");
    println!("# Regenerate with `benchmark pin` (see README.md).");
    for w in Workload::ALL {
        for seed in PINNED_SEEDS {
            let mut chunks = Chunks::new(w, None);
            let ops = w.ops();
            if w == Workload::ServeUncached {
                let server = Server::boot()?;
                let mut client = Client::new(server.addr());
                for input in batch(w, seed, 0, ops) {
                    let reply = client.post(&target(&input), input.text.as_bytes());
                    chunks.record(check_reply(&input, reply));
                }
                server.stop();
            } else {
                for i in 0..ops {
                    chunks.record(ops::run_op(&w.op(seed, i)));
                }
            }
            if let Some(e) = chunks.first_error {
                return Err(BenchError::Invalid(format!(
                    "{} seed {seed}: {e}",
                    w.name()
                )));
            }
            for (chunk, digest) in chunks.digests.iter().enumerate() {
                println!("{} {seed} {chunk} {digest:016x}", w.name());
            }
        }
    }
    Ok(true)
}

/// One untraced run read back from a `--record` file.
struct Recorded {
    workload: String,
    metrics: Vec<(String, f64)>,
}

fn read_records(path: &Path) -> Result<Vec<Recorded>, BenchError> {
    let text = std::fs::read_to_string(path)?;
    let mut out = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let bad = || BenchError::Usage(format!("{}: not a benchmark record", path.display()));
        let doc = Json::parse(line).ok_or_else(bad)?;
        if doc.get("trace").and_then(Json::num) != Some(0.0) {
            continue;
        }
        let workload = doc.get("workload").and_then(Json::str).ok_or_else(bad)?;
        let Some(Json::Obj(metrics)) = doc.get("result").and_then(|r| r.get("metrics")) else {
            return Err(bad());
        };
        out.push(Recorded {
            workload: workload.to_string(),
            metrics: metrics
                .iter()
                .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.num()?)))
                .collect(),
        });
    }
    Ok(out)
}

/// The verdict on one metric of one workload, parent `a` against change
/// `b` (runs paired in file order). The metric may worsen by its bound's
/// share of `a`'s median, or by its absolute floor if that is larger; a
/// gain must exceed both `a`'s interquartile range and the floor.
fn verdict(a: &[f64], b: &[f64], metric: &EndToEnd) -> &'static str {
    let (qa1, ma, qa3) = quartiles(a);
    let (qb1, mb, qb3) = quartiles(b);
    let gain = |from: f64, to: f64| match metric.better {
        Better::Higher => to - from,
        Better::Lower => from - to,
    };
    let allowed = (metric.bound * ma.abs()).max(metric.floor);
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| gain(**x, **y) > 0.0)
        .count();
    let margin = (qa3 - qa1).max(metric.floor);
    if pairs > 0 && wins * 10 >= pairs * 9 && gain(ma, mb) > margin {
        return "improved";
    }
    if gain(ma, mb) < -allowed {
        return "worse";
    }
    let spread = (qa3 - qa1).max(qb3 - qb1);
    let all_better = a.iter().all(|x| b.iter().all(|y| gain(*x, *y) > 0.0));
    if spread > allowed && !all_better {
        return "unresolved";
    }
    "unchanged"
}

/// `compare A B`: per workload and end-to-end metric, medians and
/// quartiles of both sets of untraced runs and the verdict.
fn compare(a: &Path, b: &Path) -> Result<bool, BenchError> {
    let (ra, rb) = (read_records(a)?, read_records(b)?);
    let mut ok = true;
    println!(
        "{:<15} {:<12} {:>5} {:>30} {:>30}  verdict",
        "workload", "metric", "runs", "A: q1 / median / q3", "B: q1 / median / q3"
    );
    for w in Workload::ALL {
        for metric in END_TO_END {
            let values = |records: &[Recorded]| -> Vec<f64> {
                records
                    .iter()
                    .filter(|r| r.workload == w.name())
                    .filter_map(|r| {
                        r.metrics
                            .iter()
                            .find(|(name, _)| name == metric.name)
                            .map(|(_, v)| *v)
                    })
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let v = verdict(&va, &vb, &metric);
            ok &= v != "worse";
            let q = |vals: &[f64]| {
                let (q1, m, q3) = quartiles(vals);
                format!("{q1:.4} / {m:.4} / {q3:.4}")
            };
            let floor = if metric.floor > 0.0 {
                format!(", at least {} {}", metric.floor, metric.unit)
            } else {
                String::new()
            };
            println!(
                "{:<15} {:<12} {:>2}/{:<2} {:>30} {:>30}  {v} (bound {}%{floor}; {})",
                w.name(),
                metric.name,
                va.len(),
                vb.len(),
                q(&va),
                q(&vb),
                metric.bound * 100.0,
                metric.unit
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calciom::Scenario;
    use gen::CHUNKS;

    /// Op `index` of `w` cut down to its first `apps` applications.
    fn small(w: Workload, index: u64, apps: usize) -> Scenario {
        let mut g = w.op(7, index).scenario;
        g.apps.truncate(apps);
        Scenario::from_text(&g.text()).expect("generated text decodes")
    }

    /// Small instances of every workload's shapes: rennes interfering and
    /// delay(5s), the cached nancy platform, the four flat coordinated
    /// strategies on the virtual-time medium, the hierarchical tree, and
    /// paper pairs under the registry policies.
    fn instances() -> Vec<Scenario> {
        let mut out = Vec::new();
        for index in 0..4 {
            out.push(small(Workload::Contended, index, 12));
        }
        for index in 0..5 {
            out.push(small(Workload::Coordinated, index, 16));
        }
        for index in [0, 4, 8, 14, 17, 20, 23] {
            out.push(small(Workload::PaperPairs, index, 4));
        }
        out
    }

    #[test]
    fn generator_is_deterministic_and_emits_canonical_text() {
        for w in Workload::ALL {
            let ops = if w == Workload::Coordinated { 5 } else { 24 };
            for index in 0..ops {
                let input = w.op(3, index);
                assert_eq!(input.text, w.op(3, index).text, "{w:?} op {index}");
                assert_ne!(input.text, w.op(4, index).text, "{w:?} op {index}");
                for text in std::iter::once(input.effective_text()).chain(input.alone) {
                    let decoded = Scenario::from_text(&text).expect("decodes");
                    assert_eq!(decoded.to_text(), text, "{w:?} op {index}");
                }
            }
        }
    }

    #[test]
    fn timed_transport_leaves_reports_bit_identical() {
        for scenario in instances() {
            let traced = probe::traced_session(&scenario).expect("traced run");
            assert_eq!(traced.report, scenario.run().expect("run"));
        }
    }

    #[test]
    fn medium_replay_reproduces_every_completion() {
        for scenario in instances() {
            let traced = probe::traced_session(&scenario).expect("traced run");
            let split = probe::replay_medium(&scenario, &traced).expect("replay");
            assert_eq!(split.mismatches, 0, "{}", scenario.policy_label());
            assert!(split.submit.calls > 0 && split.next_event.calls > 0);
        }
    }

    #[test]
    fn fold_replay_equals_the_report() {
        for scenario in instances() {
            let traced = probe::traced_session(&scenario).expect("traced run");
            assert!(probe::replay_fold(&scenario, &traced).1);
        }
    }

    #[test]
    fn every_workload_pins_both_seeds() {
        for w in Workload::ALL {
            for seed in PINNED_SEEDS {
                let chunks = pinned(w, seed).expect("parses").expect("pinned");
                assert_eq!(chunks.len() as u64, CHUNKS, "{w:?} seed {seed}");
            }
            assert!(pinned(w, 2).expect("parses").is_none());
        }
    }

    #[test]
    fn chunks_cover_every_op_of_a_run() {
        for w in Workload::ALL {
            assert_eq!(w.chunk_ops() * CHUNKS, w.ops(), "{w:?}");
            // Set-ups repeat between batches, SETUPS - 1 times a run.
            assert_eq!((w.ops() / (SETUPS - 1)) % w.batch_ops(), 0, "{w:?}");
            let due = (1..=w.ops() / w.batch_ops()).filter(|b| setup_due(w, b * w.batch_ops()));
            assert_eq!(due.count() as u64, SETUPS - 1, "{w:?}");
        }
    }

    #[test]
    fn a_mismatched_chunk_fails_all_its_ops() {
        let mut chunks = Chunks::new(Workload::ServeUncached, Some(vec![0]));
        for i in 0..80 {
            chunks.record(if i == 3 {
                Err(BenchError::Invalid("bad".to_string()))
            } else {
                Ok(i)
            });
        }
        assert_eq!(
            (chunks.attempted, chunks.failed, chunks.mismatched),
            (80, 80, 1)
        );
    }

    #[test]
    fn benchmark_json_lists_the_emitted_metrics() {
        let doc = Json::parse(include_str!("../../../BENCHMARK.json")).expect("parses");
        let names = |key: &str| -> Vec<String> {
            match doc.get(key) {
                Some(Json::Arr(items)) => items
                    .iter()
                    .filter_map(|m| Some(m.get("name")?.str()?.to_string()))
                    .collect(),
                _ => Vec::new(),
            }
        };
        let emitted: Vec<String> = layer_metrics(&[]).iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names("per_layer"), emitted);
        let Some(Json::Arr(e2e)) = doc.get("end_to_end") else {
            panic!("end_to_end missing");
        };
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, want) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::str), Some(want.name));
            assert_eq!(m.get("unit").and_then(Json::str), Some(want.unit));
            assert_eq!(m.get("bound").and_then(Json::num), Some(want.bound));
        }
        let workloads = names("workloads");
        let all: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, all);
        let run_seconds = doc.get("run_seconds").and_then(Json::num);
        assert_eq!(run_seconds, Some(DEFAULT_SECONDS as f64));
    }

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let metric = |better, floor| EndToEnd {
            name: "m",
            unit: "s",
            better,
            bound: 0.1,
            floor,
        };
        let higher = metric(Better::Higher, 0.0);
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        let same: Vec<f64> = a.iter().map(|v| v + 0.05).collect();
        assert_eq!(verdict(&a, &same, &higher), "unchanged");
        let faster: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&a, &faster, &higher), "improved");
        let slower: Vec<f64> = a.iter().map(|v| v * 0.85).collect();
        assert_eq!(verdict(&a, &slower, &higher), "worse");
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 100.0, 95.0, 105.0, 80.0, 120.0, 100.0,
        ];
        assert_eq!(verdict(&a, &noisy, &higher), "unresolved");
        assert_eq!(
            verdict(&a, &slower, &metric(Better::Lower, 0.0)),
            "improved"
        );
        // 20% slower is within an absolute floor of 50 (on a median of
        // 100), and so is the noisy set's spread.
        let lower_floored = metric(Better::Lower, 50.0);
        let longer: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(&a, &longer, &lower_floored), "unchanged");
        assert_eq!(verdict(&a, &noisy, &lower_floored), "unchanged");
        // A gain inside the floor is no gain either.
        assert_eq!(verdict(&a, &slower, &lower_floored), "unchanged");
    }

    #[test]
    fn run_flags_parse() {
        let args = |s: &str| -> Vec<String> { s.split_whitespace().map(String::from).collect() };
        let a = parse_run(&args("--workload contended --seed 5 --seconds 3 --trace 0")).unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Workload::Contended), 5, 3, false)
        );
        assert!(parse_run(&args("--all --trace")).is_err());
        assert!(parse_run(&args("--all --trace 2")).is_err());
        assert!(parse_run(&args("--all --trace 1 --seed 2")).unwrap().trace);
        assert!(parse_run(&args("--seed 2")).is_err());
        assert!(parse_run(&args("--workload nope")).is_err());
        assert!(parse_run(&args("--all --seconds 0")).is_err());
    }
}
