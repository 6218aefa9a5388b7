//! The traced run's probes. Every per-layer number is measured from
//! outside the program, by timing calls into public functions:
//!
//! 1. **Arbiter, in situ.** [`Timed`] wraps the session's coordination
//!    transport, delegates every trait method and times each one.
//! 2. **Medium, by replay.** The traced session records its event stream
//!    and the transport sees every loop iteration; the transfer stream is
//!    then replayed into a fresh `Pfs` exactly as the session loop drives
//!    it, and every completion must match.
//! 3. **Fold, by replay.** The same events are folded by a fresh
//!    `ReportBuilder`, which must reproduce the session's report.
//!
//! Around those, each op's scenario is decoded and canonicalised, run
//! untraced (the reference for the tracing overhead), has its baselines
//! computed, and goes through the service's stages in-process.

use crate::clock::{timed, Stamp};
use crate::gen::{OpInput, Route};
use crate::load::{Client, Log};
use crate::ops;
use crate::BenchError;
use calciom::{
    Arbiter, ClusterTransport, ConfigError, CoordinationTransport, LocalTransport, ReportBuilder,
    Scenario, Session, SessionReport, SimEvent, SimObserver, TimelineAggregator, Trace,
    TraceRecorder,
};
use pfs::{AppId, Pfs, TransferId};
use simcore::time::SimTime;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::time::Duration;

/// Calls into one layer: how many, and the time they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Number of calls.
    pub calls: u64,
    /// Total time inside them.
    pub time: Duration,
}

impl Acc {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.time += d;
    }
}

/// One medium-relevant step of the session loop, in execution order.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// A loop iteration began (the transport's `next_wakeup`).
    Iteration,
    /// The iteration's decision time (the transport's `deliver_due`).
    Now(SimTime),
    /// `Pfs::submit_write` was called (seen as `TransferStarted`).
    Submit {
        app: AppId,
        bytes: f64,
        id: TransferId,
    },
    /// `Pfs::poll_completed` reported a transfer (`TransferCompleted`).
    Done(TransferId),
}

/// What the transport wrapper and the event recorder collect for one
/// session.
#[derive(Debug, Default)]
pub struct Probe {
    visits: Acc,
    grant_checks: Acc,
    wake_scans: Acc,
    woken: u64,
    ticks: Acc,
    steps: Vec<Step>,
}

fn time_into<R>(
    probe: &RefCell<Probe>,
    slot: fn(&mut Probe) -> &mut Acc,
    f: impl FnOnce() -> R,
) -> R {
    let (out, d) = timed(f);
    slot(&mut probe.borrow_mut()).add(d);
    out
}

/// A coordination transport that delegates every call to `T` and times
/// it. Reports are bit-identical to `T`'s (a self-test pins this).
#[derive(Debug, Clone)]
pub struct Timed<T> {
    inner: T,
    probe: Rc<RefCell<Probe>>,
}

impl<T: CoordinationTransport> CoordinationTransport for Timed<T> {
    fn new(arbiter: Arbiter) -> Self {
        Timed {
            inner: T::new(arbiter),
            probe: Rc::default(),
        }
    }

    fn with<R>(&self, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        time_into(&self.probe, |p| &mut p.visits, || self.inner.with(f))
    }

    fn for_scenario(scenario: &Scenario, arbiter: Arbiter) -> Result<Self, ConfigError> {
        Ok(Timed {
            inner: T::for_scenario(scenario, arbiter)?,
            probe: Rc::default(),
        })
    }

    fn with_app<R>(&self, app: AppId, f: impl FnOnce(&mut Arbiter) -> R) -> R {
        time_into(
            &self.probe,
            |p| &mut p.visits,
            || self.inner.with_app(app, f),
        )
    }

    fn is_granted(&self, app: AppId) -> bool {
        time_into(
            &self.probe,
            |p| &mut p.grant_checks,
            || self.inner.is_granted(app),
        )
    }

    fn message_count(&self) -> u64 {
        self.inner.message_count()
    }

    fn resumable(&self, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        let woken = time_into(
            &self.probe,
            |p| &mut p.wake_scans,
            || self.inner.resumable(waiting),
        );
        self.probe.borrow_mut().woken += woken.len() as u64;
        woken
    }

    fn next_wakeup(&self) -> Option<SimTime> {
        self.probe.borrow_mut().steps.push(Step::Iteration);
        time_into(&self.probe, |p| &mut p.ticks, || self.inner.next_wakeup())
    }

    fn deliver_due(&self, now: SimTime, waiting: &BTreeSet<AppId>) -> Vec<AppId> {
        self.probe.borrow_mut().steps.push(Step::Now(now));
        time_into(
            &self.probe,
            |p| &mut p.ticks,
            || self.inner.deliver_due(now, waiting),
        )
    }
}

/// Records the event stream (without progress samples) and the transfer
/// steps the medium replay needs.
struct Recorder {
    probe: Rc<RefCell<Probe>>,
    events: Vec<(SimTime, SimEvent)>,
}

impl SimObserver for Recorder {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.events.push((at, *event));
        match *event {
            SimEvent::TransferStarted {
                app,
                transfer,
                bytes,
            } => self.probe.borrow_mut().steps.push(Step::Submit {
                app,
                bytes,
                id: transfer,
            }),
            SimEvent::TransferCompleted { transfer, .. } => {
                self.probe.borrow_mut().steps.push(Step::Done(transfer))
            }
            _ => {}
        }
    }

    fn wants_progress(&self) -> bool {
        false
    }
}

/// A traced session: its report, the recorded events, and the probe.
pub struct Traced {
    /// The report.
    pub report: SessionReport,
    /// Every event, in emission order.
    pub events: Vec<(SimTime, SimEvent)>,
    probe: Probe,
    /// `Session::with_transport` time.
    pub build: Duration,
    /// `Session::execute_with` time.
    pub execute: Duration,
}

fn traced_on<T: CoordinationTransport>(scenario: &Scenario) -> Result<Traced, BenchError> {
    let (session, build) = timed(|| Session::<Timed<T>>::with_transport(scenario));
    let session = session.map_err(BenchError::Sim)?;
    let probe = Rc::clone(&session.transport().probe);
    let mut recorder = Recorder {
        probe: Rc::clone(&probe),
        events: Vec::new(),
    };
    let (report, execute) = timed(|| session.execute_with(&mut recorder));
    let report = report.map_err(BenchError::Sim)?;
    let probe = std::mem::take(&mut *probe.borrow_mut());
    Ok(Traced {
        report,
        events: recorder.events,
        probe,
        build,
        execute,
    })
}

/// Runs `scenario` through the timed transport: the hierarchical one
/// when it carries a cluster topology, the flat one otherwise (the same
/// dispatch as `Scenario::run`).
pub fn traced_session(scenario: &Scenario) -> Result<Traced, BenchError> {
    if scenario.cluster.is_some() {
        traced_on::<ClusterTransport>(scenario)
    } else {
        traced_on::<LocalTransport>(scenario)
    }
}

/// Medium replay results.
#[derive(Debug, Default, Clone, Copy)]
pub struct MediumSplit {
    /// `submit_write` calls.
    pub submit: Acc,
    /// `next_event_time` calls (the lazy re-solve or the heap peek).
    pub next_event: Acc,
    /// `advance_to` calls.
    pub advance: Acc,
    /// `poll_completed` calls.
    pub poll: Acc,
    /// Completions or transfer ids that differ from the session's.
    pub mismatches: u64,
}

/// Replays a traced session's transfer stream into a fresh `Pfs`, exactly
/// as the session loop drives it: per iteration, peek the next event
/// time, advance to the iteration's decision time, poll completions
/// (which must be the ones the session saw), then submit the writes the
/// handlers issued.
pub fn replay_medium(scenario: &Scenario, traced: &Traced) -> Result<MediumSplit, BenchError> {
    let procs: BTreeMap<AppId, u32> = scenario.apps.iter().map(|a| (a.id, a.procs)).collect();
    let mut pfs = Pfs::with_medium(scenario.pfs.clone(), scenario.medium)
        .map_err(|e| BenchError::Invalid(format!("replay medium: {e}")))?;
    let mut split = MediumSplit::default();
    let steps = &traced.probe.steps;
    let mut i = 0;
    while i < steps.len() {
        // One iteration: everything up to the next `Iteration` marker.
        let end = steps[i + 1..]
            .iter()
            .position(|s| matches!(s, Step::Iteration))
            .map_or(steps.len(), |p| i + 1 + p);
        let iteration = &steps[i..end];
        i = end;
        let Some(now) = iteration.iter().find_map(|s| match s {
            Step::Now(t) => Some(*t),
            _ => None,
        }) else {
            split.mismatches += 1;
            continue;
        };
        let (_, d) = timed(|| pfs.next_event_time());
        split.next_event.add(d);
        if now > pfs.now() {
            let (_, d) = timed(|| pfs.advance_to(now));
            split.advance.add(d);
        }
        let (polled, d) = timed(|| pfs.poll_completed());
        split.poll.add(d);
        let seen: Vec<TransferId> = iteration
            .iter()
            .filter_map(|s| match s {
                Step::Done(id) => Some(*id),
                _ => None,
            })
            .collect();
        if polled != seen {
            split.mismatches += 1;
        }
        for step in iteration {
            if let Step::Submit { app, bytes, id } = *step {
                let procs = procs.get(&app).copied().unwrap_or(1);
                let (got, d) = timed(|| pfs.submit_write(app, bytes, procs));
                split.submit.add(d);
                if got != id {
                    split.mismatches += 1;
                }
            }
        }
    }
    Ok(split)
}

/// Folds the recorded events into a fresh `ReportBuilder`; returns the
/// fold time and whether the result equals the session's report.
pub fn replay_fold(scenario: &Scenario, traced: &Traced) -> (Duration, bool) {
    let (report, d) = timed(|| {
        let mut builder = ReportBuilder::new(scenario);
        for (at, event) in &traced.events {
            builder.on_event(*at, event);
        }
        builder.finish()
    });
    (d, report == traced.report)
}

/// Per-op layer numbers of one traced op.
#[derive(Debug, Default, Clone)]
pub struct Split {
    pub decode: Duration,
    pub canon: Duration,
    pub untraced: Duration,
    pub build: Duration,
    pub execute: Duration,
    pub visits: Acc,
    pub grant_checks: Acc,
    pub wake_scans: Acc,
    pub woken: u64,
    pub ticks: Acc,
    pub messages: u64,
    pub medium: MediumSplit,
    pub events: u64,
    pub fold: Duration,
    pub baselines: Acc,
    pub parse: Duration,
    pub simulate: Duration,
    pub render: Duration,
    pub verify: Duration,
    pub serialize: Duration,
    /// The stages the service's handler runs for this route: decode,
    /// canonicalise, simulate, render, and on `/v1/trace` the verify.
    pub in_handler: Duration,
    /// Service handling time and client latency, when a live request was
    /// made for this op.
    pub service: Option<(Duration, Duration)>,
    pub cache_hits: u64,
    pub non200: u64,
    /// Exactness checks that failed: timed report ≠ untraced report, fold
    /// replay ≠ report, trace round trip ≠ report.
    pub mismatches: u64,
    /// The op's output digest (as the untraced run computes it).
    pub digest: u64,
}

/// Ops whose spans are kept (paper-pairs probes tens of thousands).
const SPAN_OPS: u64 = 200;

/// Wall-clock spans of the traced run, kept in memory and written out
/// as JSON lines when the run ends. A span is
/// `{op, span, parent, layer, start_us, end_us}`; calls too numerous for
/// a span each are one `{op, span, parent, layer, calls, total_us}`
/// record under their parent.
pub struct Spans {
    origin: Stamp,
    next: u64,
    lines: Vec<String>,
}

impl Spans {
    /// A span log whose times count from `origin`.
    pub fn new(origin: Stamp) -> Spans {
        Spans {
            origin,
            next: 0,
            lines: Vec::new(),
        }
    }

    fn us(&self, at: Stamp) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span id for op `op` without recording it yet.
    pub fn open(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    /// Records a finished span.
    pub fn close(&mut self, op: u64, id: u64, parent: u64, layer: &str, start: Stamp) {
        if op >= SPAN_OPS {
            return;
        }
        let line = format!(
            "{{\"op\":{op},\"span\":{id},\"parent\":{parent},\"layer\":\"{layer}\",\
             \"start_us\":{:.1},\"end_us\":{:.1}}}",
            self.us(start),
            self.us(Stamp::now())
        );
        self.lines.push(line);
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<R>(
        &mut self,
        op: u64,
        parent: u64,
        layer: &str,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let id = self.open();
        let start = Stamp::now();
        let out = f();
        let d = start.elapsed();
        self.close(op, id, parent, layer, start);
        (out, d)
    }

    /// Records calls aggregated inside `parent` (too many to keep one
    /// span each): their count and total time.
    pub fn aggregate(&mut self, op: u64, parent: u64, layer: &str, acc: Acc) {
        if op >= SPAN_OPS {
            return;
        }
        let id = self.open();
        self.lines.push(format!(
            "{{\"op\":{op},\"span\":{id},\"parent\":{parent},\"layer\":\"{layer}\",\
             \"calls\":{},\"total_us\":{:.1}}}",
            acc.calls,
            acc.time.as_secs_f64() * 1e6
        ));
    }

    /// Writes every span to `path`, one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> Result<(), BenchError> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text)?;
        Ok(())
    }
}

/// Where a probe learns what the live service did with its op.
pub enum Service<'a> {
    /// Post the op to a running server and read its request log.
    Post {
        /// Keep-alive connection to the server.
        client: &'a mut Client,
        /// The server's request log.
        log: &'a Log,
    },
    /// The op was already served over HTTP.
    Served {
        /// Handling time from the request log.
        handle: Duration,
        /// Client latency, send to full response.
        latency: Duration,
        /// Whether the response cache answered.
        cache_hit: bool,
        /// Response status.
        status: u16,
    },
    /// No service request (the service runs flat scenarios only).
    Skip,
}

/// Runs every probe on one op.
pub fn probe_op(
    input: &OpInput,
    service: Service<'_>,
    spans: &mut Spans,
) -> Result<Split, BenchError> {
    let op = input.index;
    let root = spans.open();
    let root_start = Stamp::now();
    let mut s = Split::default();
    let text = input.effective_text();

    let (scenario, d) = spans.time(op, root, "scenario.decode", || Scenario::from_text(&text));
    s.decode = d;
    let scenario = scenario.map_err(BenchError::Decode)?;
    let (canonical, d) = spans.time(op, root, "scenario.canon", || scenario.to_text());
    s.canon = d;
    if canonical != text {
        s.mismatches += 1;
    }

    // The untraced reference run is the tracing overhead's denominator
    // and, on `/v1/run`, the service's simulate stage. Which of the two
    // runs first alternates between ops, so warm-cache effects cancel.
    let mut untraced = |spans: &mut Spans| {
        let (report, d) = spans.time(op, root, "session.run", || scenario.run());
        s.untraced = d;
        report.map_err(BenchError::Sim)
    };
    let traced = |spans: &mut Spans| {
        let exec_id = spans.open();
        let exec_start = Stamp::now();
        let traced = traced_session(&scenario);
        spans.close(op, exec_id, root, "session.traced", exec_start);
        traced.map(|t| (t, exec_id))
    };
    let (report, (traced, exec_id)) = if op % 2 == 0 {
        (untraced(spans)?, traced(spans)?)
    } else {
        let t = traced(spans)?;
        (untraced(spans)?, t)
    };
    ops::check_report(&report, &input.scenario)?;
    s.build = traced.build;
    s.execute = traced.execute;
    s.visits = traced.probe.visits;
    s.grant_checks = traced.probe.grant_checks;
    s.wake_scans = traced.probe.wake_scans;
    s.woken = traced.probe.woken;
    s.ticks = traced.probe.ticks;
    s.messages = traced.report.coordination_messages;
    s.events = traced.events.len() as u64;
    for (layer, acc) in [
        ("arbiter.visit", s.visits),
        ("arbiter.grant_check", s.grant_checks),
        ("arbiter.wake_scan", s.wake_scans),
        ("arbiter.tick", s.ticks),
    ] {
        spans.aggregate(op, exec_id, layer, acc);
    }
    if traced.report != report {
        s.mismatches += 1;
    }

    let medium_id = spans.open();
    let medium_start = Stamp::now();
    s.medium = replay_medium(&scenario, &traced)?;
    spans.close(op, medium_id, root, "pfs.replay", medium_start);
    for (layer, acc) in [
        ("pfs.next_event", s.medium.next_event),
        ("pfs.advance", s.medium.advance),
        ("pfs.poll", s.medium.poll),
        ("pfs.submit", s.medium.submit),
    ] {
        spans.aggregate(op, medium_id, layer, acc);
    }

    let ((fold, same), _) =
        spans.time(op, root, "observe.fold", || replay_fold(&scenario, &traced));
    s.fold = fold;
    if !same {
        s.mismatches += 1;
    }

    // Baselines: each application alone. Part of the op on paper-pairs;
    // on the other workloads the cost computing their interference
    // factors would add.
    let alone: Vec<String> = if input.alone.is_empty() {
        (0..input.scenario.apps.len())
            .map(|i| input.scenario.alone(i).text())
            .collect()
    } else {
        input.alone.clone()
    };
    let base_id = spans.open();
    let base_start = Stamp::now();
    let mut t_alone = Vec::with_capacity(alone.len());
    for text in &alone {
        let (r, d) = timed(|| ops::decode_run(text));
        s.baselines.add(d);
        t_alone.push(ops::first_io_secs(&r?, 0)?);
    }
    spans.close(op, base_id, root, "baseline", base_start);
    // Only paper-pairs ops include their baselines in the output digest.
    let digested: &[f64] = if input.alone.is_empty() {
        &[]
    } else {
        &t_alone
    };
    s.digest = ops::digest(&report, digested)?;

    stages(input, &scenario, &report, &traced, &mut s, spans, root)?;

    let served = match service {
        Service::Post { client, log } => {
            let target = format!("{}{}", input.route.path(), input.query);
            let ((reply, latency), _) = spans.time(op, root, "service.request", || {
                timed(|| client.post(&target, input.text.as_bytes()))
            });
            let status = reply?.status;
            let logged = log
                .take(serve::json::fnv64(input.text.as_bytes()))
                .ok_or_else(|| BenchError::Http("request missing from the log".to_string()))?;
            Some((logged.handle, latency, logged.cache_hit, status))
        }
        Service::Served {
            handle,
            latency,
            cache_hit,
            status,
        } => Some((handle, latency, cache_hit, status)),
        Service::Skip => None,
    };
    if let Some((handle, latency, cache_hit, status)) = served {
        s.service = Some((handle, latency));
        s.cache_hits += cache_hit as u64;
        s.non200 += (status != 200) as u64;
    }
    spans.close(op, root, 0, "op", root_start);
    Ok(s)
}

/// The traced session's stream as trace text, for the round-trip guard
/// on routes whose own simulate stage records no trace.
fn recorded_trace(scenario: &Scenario, traced: &Traced) -> String {
    let mut recorder = TraceRecorder::for_scenario(scenario);
    for (at, event) in &traced.events {
        recorder.on_event(*at, event);
    }
    recorder.into_trace().to_text()
}

/// The service's request path, re-executed in-process: HTTP parse, the
/// route's simulate and render stages, the trace round-trip guard, and
/// response serialisation.
fn stages(
    input: &OpInput,
    scenario: &Scenario,
    report: &SessionReport,
    traced: &Traced,
    s: &mut Split,
    spans: &mut Spans,
    root: u64,
) -> Result<(), BenchError> {
    let op = input.index;
    let mut wire = format!(
        "POST {}{} HTTP/1.1\r\nhost: benchmark\r\ncontent-length: {}\r\n\r\n",
        input.route.path(),
        input.query,
        input.text.len()
    )
    .into_bytes();
    wire.extend_from_slice(input.text.as_bytes());
    let (parsed, d) = spans.time(op, root, "http.parse", || {
        let mut parser = serve::RequestParser::new(serve::ServeConfig::default().max_body);
        parser.feed(&wire);
        parser.next_request()
    });
    s.parse = d;
    if !matches!(parsed, Ok(Some(_))) {
        return Err(BenchError::Http(
            "request parser rejected the op".to_string(),
        ));
    }

    // The route's simulate and render stages. `/v1/run`'s simulate stage
    // is the untraced run above.
    let (body, trace_text, content_type) = match input.route {
        Route::Run => {
            s.simulate = s.untraced;
            let (body, d) = spans.time(op, root, "serve.render", || {
                serve::json::report_json(report)
            });
            s.render = d;
            (body, recorded_trace(scenario, traced), "application/json")
        }
        Route::Trace => {
            let (trace, d) = spans.time(op, root, "serve.simulate", || {
                let mut recorder = TraceRecorder::for_scenario(scenario);
                Session::new(scenario)
                    .and_then(|session| session.execute_with(&mut recorder))
                    .map(|_| recorder.into_trace())
            });
            s.simulate = d;
            let (text, d) = spans.time(op, root, "serve.render", || trace.map(|t| t.to_text()));
            s.render = d;
            let text = text.map_err(BenchError::Sim)?;
            (text.clone(), text, "text/plain; charset=utf-8")
        }
        Route::Timeline => {
            let (timeline, d) = spans.time(op, root, "serve.simulate", || {
                let mut aggregator = TimelineAggregator::new();
                Session::new(scenario)
                    .and_then(|session| session.execute_with(&mut aggregator))
                    .map(|_| aggregator.finish())
            });
            s.simulate = d;
            let timeline = timeline.map_err(BenchError::Sim)?;
            let (body, d) = spans.time(op, root, "serve.render", || {
                serve::json::timeline_json(&timeline)
            });
            s.render = d;
            (body, recorded_trace(scenario, traced), "application/json")
        }
    };
    let (verified, d) = spans.time(op, root, "serve.verify", || {
        Trace::from_text(&trace_text).map(|t| t.replay_report() == *report)
    });
    s.verify = d;
    if !matches!(verified, Ok(true)) {
        s.mismatches += 1;
    }
    let (_, d) = spans.time(op, root, "http.serialize", || {
        serve::Response::with_body(200, content_type, body.into_bytes())
            .header("etag", "\"0000000000000000\"")
            .serialize(false)
    });
    s.serialize = d;
    s.in_handler = s.decode + s.canon + s.simulate + s.render;
    if input.route == Route::Trace {
        s.in_handler += s.verify;
    }
    Ok(())
}
