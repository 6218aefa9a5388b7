//! The request → response core of the service, socket-free.
//!
//! [`Service::handle_into`] maps one parsed [`Request`] to a sequence of
//! [`ResponsePart`]s pushed into a [`ResponseSink`], and writes one
//! structured log line. Most endpoints emit a single
//! [`ResponsePart::Full`]; a machine-scale `/v1/batch` streams a chunked
//! body as shard results complete. Keeping the core free of sockets
//! means the whole endpoint surface (routing, validation, error mapping,
//! caching, ETags, streaming decisions) is unit-testable without binding
//! a port; the reactor ([`crate::reactor`]) is a pump around it.
//!
//! ## Statelessness and determinism
//!
//! Every response body is a pure function of (endpoint, canonical
//! scenario text, policy spec, shard count). The simulation itself is
//! deterministic, and the JSON/trace renderings iterate `BTreeMap`s —
//! so concurrent identical requests produce byte-identical bodies,
//! strong input-derived ETags are valid, and the response cache can
//! never serve a stale or divergent body. A streamed `/v1/batch` body is
//! byte-identical (after de-chunking) to the materialized rendering by
//! construction — both are assembled from [`crate::json::batch_prelude`]
//! \+ [`crate::json::batch_entry_json`] + [`crate::json::BATCH_EPILOGUE`].
//! Host wall-clock appears only in the request log, never in a body.

use crate::cache::{CachedResponse, ResponseCache};
use crate::config::ServeConfig;
use crate::http::{Request, Response};
use crate::json;
use crate::log::{CacheOutcome, RequestLog, RequestRecord};
use calciom::{
    ConfigError, Error, NullObserver, PolicySpec, Scenario, SimEvent, SimObserver,
    TimelineAggregator, Trace, TraceRecorder,
};
use iobench::{run_scenarios_sharded, run_scenarios_sharded_streamed, BaselineCache};
use simcore::time::SimTime;
use std::time::Instant;

/// Content type of JSON bodies.
const JSON: &str = "application/json";
/// Content type of `calciom-trace v1` bodies.
const TEXT: &str = "text/plain; charset=utf-8";
/// Header line that starts each scenario document in a `/v1/batch` body.
const SCENARIO_HEADER: &str = "calciom-scenario v1";
/// Every route the service knows, with its allowed method — the `405`
/// response's `allow` header comes straight from this table.
const ROUTES: &[(&str, &str)] = &[
    ("GET", "/healthz"),
    ("GET", "/v1/policies"),
    ("POST", "/v1/run"),
    ("POST", "/v1/trace"),
    ("POST", "/v1/timeline"),
    ("POST", "/v1/batch"),
];

/// One piece of a response on its way to the wire.
///
/// The service emits either a single [`ResponsePart::Full`], or a
/// streamed sequence `StreamHead (StreamChunk)* (StreamEnd |
/// StreamAbort)`. Transports own the framing: `Full` is written with
/// `Content-Length`, a stream with `Transfer-Encoding: chunked`
/// ([`Response::serialize_chunked_head`] /
/// [`crate::http::chunk_frame`] / [`crate::http::CHUNK_END`]).
#[derive(Debug)]
pub enum ResponsePart {
    /// A complete response; exactly one exchange.
    Full(Response),
    /// Status + headers of a streamed response. Its `body` is empty;
    /// chunks follow.
    StreamHead(Response),
    /// One span of streamed body bytes (unframed — the transport applies
    /// the chunked coding).
    StreamChunk(Vec<u8>),
    /// The stream completed; the transport writes the terminal chunk.
    StreamEnd,
    /// The stream failed after the head was sent. The carried response
    /// is the error that *would* have been sent (for logs and
    /// materializing sinks); a wire transport can only truncate — close
    /// without the terminal chunk so the client detects the short body.
    StreamAbort(Response),
}

/// Where [`Service::handle_into`] pushes response parts. Implemented by
/// the reactor's completion queue and by [`CollectSink`] for tests and
/// the materialized [`Service::handle`].
pub trait ResponseSink {
    /// Receives the next part, in order.
    fn part(&mut self, part: ResponsePart);
}

/// A [`ResponseSink`] that reassembles whatever was emitted into one
/// materialized [`Response`] — the bridge from the streaming interface
/// back to "one request, one `Response`".
#[derive(Debug, Default)]
pub struct CollectSink {
    full: Option<Response>,
    head: Option<Response>,
    chunks: Vec<u8>,
    aborted: Option<Response>,
}

impl CollectSink {
    /// A fresh sink.
    pub fn new() -> Self {
        CollectSink::default()
    }

    /// The materialized response: the `Full` part if one was emitted, a
    /// completed stream reassembled under its head, or the abort error.
    pub fn into_response(self) -> Response {
        if let Some(error) = self.aborted {
            return error;
        }
        if let Some(full) = self.full {
            return full;
        }
        match self.head {
            Some(mut head) => {
                head.body = self.chunks;
                head
            }
            // The service always emits at least one part; an empty sink
            // means the caller never ran it.
            None => Response::with_body(500, JSON, json::error_json("empty", "no response parts")),
        }
    }
}

impl ResponseSink for CollectSink {
    fn part(&mut self, part: ResponsePart) {
        match part {
            ResponsePart::Full(r) => self.full = Some(r),
            ResponsePart::StreamHead(h) => self.head = Some(h),
            ResponsePart::StreamChunk(c) => self.chunks.extend_from_slice(&c),
            ResponsePart::StreamEnd => {}
            ResponsePart::StreamAbort(e) => self.aborted = Some(e),
        }
    }
}

/// Counts events while forwarding them, so the request log's `events=`
/// column works for any observer.
struct Counting<O> {
    inner: O,
    events: u64,
}

impl<O: SimObserver> Counting<O> {
    fn new(inner: O) -> Self {
        Counting { inner, events: 0 }
    }
}

impl<O: SimObserver> SimObserver for Counting<O> {
    fn on_event(&mut self, at: SimTime, event: &SimEvent) {
        self.events += 1;
        self.inner.on_event(at, event);
    }

    fn wants_progress(&self) -> bool {
        self.inner.wants_progress()
    }
}

/// What the log line needs from one dispatched request.
struct LogMeta {
    status: u16,
    events: u64,
    shards: Option<usize>,
    cache: Option<CacheOutcome>,
}

/// One materialized dispatch: the response plus its log metadata.
struct Handled {
    response: Response,
    events: u64,
    shards: Option<usize>,
    cache: Option<CacheOutcome>,
}

impl Handled {
    fn plain(response: Response) -> Handled {
        Handled {
            response,
            events: 0,
            shards: None,
            cache: None,
        }
    }

    /// Pushes the response into `sink` and returns the log metadata.
    fn emit(self, sink: &mut dyn ResponseSink) -> LogMeta {
        let meta = LogMeta {
            status: self.response.status,
            events: self.events,
            shards: self.shards,
            cache: self.cache,
        };
        sink.part(ResponsePart::Full(self.response));
        meta
    }
}

/// The stateless endpoint surface plus its bounded response cache and
/// request log.
pub struct Service {
    config: ServeConfig,
    cache: ResponseCache,
    log: Box<dyn RequestLog>,
}

impl Service {
    /// A service with the given configuration and log sink.
    pub fn new(config: ServeConfig, log: Box<dyn RequestLog>) -> Self {
        let cache = ResponseCache::with_capacity(config.cache_cap);
        Service { config, cache, log }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// The response cache (exposed for tests and stats).
    pub fn cache(&self) -> &ResponseCache {
        &self.cache
    }

    /// Handles one parsed request, materialized: streamed parts are
    /// reassembled into a single [`Response`]. Logs with no connection
    /// id — the unit-test and direct-call entry point.
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_ctx(None, request)
    }

    /// [`Service::handle`] with the transport's connection id for the
    /// request log.
    pub fn handle_ctx(&self, conn: Option<u64>, request: &Request) -> Response {
        let mut sink = CollectSink::new();
        self.handle_into(conn, request, &mut sink);
        sink.into_response()
    }

    /// Handles one parsed request, pushing response parts into `sink`
    /// as they become available, and logs it. This is the reactor's
    /// entry point — a `/v1/batch` past the streaming threshold emits
    /// chunks while later shards are still simulating.
    pub fn handle_into(&self, conn: Option<u64>, request: &Request, sink: &mut dyn ResponseSink) {
        let started = Instant::now();
        let meta = self.dispatch_into(request, sink);
        self.log.record(&RequestRecord {
            conn,
            method: request.method.clone(),
            path: request.path.clone(),
            scenario_hash: (!request.body.is_empty()).then(|| json::fnv64(&request.body)),
            shards: meta.shards,
            status: meta.status,
            events: meta.events,
            wall: started.elapsed(),
            cache: meta.cache,
        });
    }

    /// Serves the request inline **iff** it carries no scenario: the
    /// no-body routes (`GET /healthz`, `GET /v1/policies`) and routing
    /// errors (404/405). Returns `false` without touching `sink` for the
    /// `POST` routes, whose scenario decode, cache lookup and simulation
    /// all run on a worker.
    ///
    /// This is the epoll reactor's fast path: health checks are answered
    /// on the reactor thread itself instead of queueing behind
    /// simulations, and the reactor never decodes a scenario.
    pub fn handle_fast(
        &self,
        conn: Option<u64>,
        request: &Request,
        sink: &mut dyn ResponseSink,
    ) -> bool {
        if request.method == "POST" && ROUTES.contains(&("POST", request.path.as_str())) {
            return false;
        }
        self.handle_into(conn, request, sink);
        true
    }

    /// Builds and logs the response for a request that could not even be
    /// parsed off the wire (the reactor calls this on
    /// [`crate::http::HttpError`]). Such a response always closes the
    /// connection — the byte stream can no longer be framed.
    pub fn handle_unparsable(&self, conn: Option<u64>, status: u16, message: &str) -> Response {
        let response = Response::with_body(status, JSON, json::error_json("http", message));
        self.log.record(&RequestRecord {
            conn,
            method: "-".to_string(),
            path: "-".to_string(),
            scenario_hash: None,
            shards: None,
            status,
            events: 0,
            wall: std::time::Duration::ZERO,
            cache: None,
        });
        response
    }

    fn dispatch_into(&self, request: &Request, sink: &mut dyn ResponseSink) -> LogMeta {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/v1/batch") => self.batch_into(request, sink),
            _ => self.dispatch(request).emit(sink),
        }
    }

    fn dispatch(&self, request: &Request) -> Handled {
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => Handled::plain(Response::with_body(200, TEXT, "ok\n")),
            ("GET", "/v1/policies") => {
                self.serve_cached(request, "GET /v1/policies".to_string(), None, || {
                    Ok((json::policies_json().into_bytes(), JSON, 0))
                })
            }
            ("POST", "/v1/run") => self.run(request),
            ("POST", "/v1/trace") => self.trace(request),
            ("POST", "/v1/timeline") => self.timeline(request),
            ("POST", "/v1/batch") => {
                // Reached only via the materializing path (handle());
                // dispatch_into routes sockets through batch_into.
                let mut sink = CollectSink::new();
                let meta = self.batch_into(request, &mut sink);
                Handled {
                    response: sink.into_response(),
                    events: meta.events,
                    shards: meta.shards,
                    cache: meta.cache,
                }
            }
            (_, path) => {
                let allowed: Vec<&str> = ROUTES
                    .iter()
                    .filter(|(_, p)| *p == path)
                    .map(|(m, _)| *m)
                    .collect();
                if allowed.is_empty() {
                    Handled::plain(Response::with_body(
                        404,
                        JSON,
                        json::error_json("not-found", &format!("no such endpoint: {path}")),
                    ))
                } else {
                    Handled::plain(
                        Response::with_body(
                            405,
                            JSON,
                            json::error_json(
                                "method-not-allowed",
                                &format!("{path} does not accept {}", request.method),
                            ),
                        )
                        .header("allow", &allowed.join(", ")),
                    )
                }
            }
        }
    }

    /// `POST /v1/run`: scenario text → [`calciom::SessionReport`] JSON.
    fn run(&self, request: &Request) -> Handled {
        let scenario = match self.scenario_from(request) {
            Ok(s) => s,
            Err(response) => return Handled::plain(response),
        };
        let key = cache_key("/v1/run", &scenario, None);
        self.serve_cached(request, key, None, || {
            let mut counter = Counting::new(NullObserver);
            let (report, ..) = scenario
                .run_with(&mut counter)
                .map_err(|e| error_response(&e))?;
            Ok((
                json::report_json(&report).into_bytes(),
                JSON,
                counter.events,
            ))
        })
    }

    /// `POST /v1/trace`: scenario text → replayable `calciom-trace v1`
    /// text, round-trip verified before it is sent.
    fn trace(&self, request: &Request) -> Handled {
        let scenario = match self.scenario_from(request) {
            Ok(s) => s,
            Err(response) => return Handled::plain(response),
        };
        let key = cache_key("/v1/trace", &scenario, None);
        self.serve_cached(request, key, None, || {
            let mut counter = Counting::new(TraceRecorder::for_scenario(&scenario));
            let (report, ..) = scenario
                .run_with(&mut counter)
                .map_err(|e| error_response(&e))?;
            let events = counter.events;
            let text = counter.inner.into_trace().to_text();
            // Round-trip guard: only ship a trace that decodes and replays
            // bit-for-bit to the report this very session produced.
            let verified = Trace::from_text(&text)
                .map(|decoded| decoded.replay_report() == report)
                .unwrap_or(false);
            if !verified {
                return Err(Response::with_body(
                    500,
                    JSON,
                    json::error_json(
                        "trace-roundtrip",
                        "recorded trace failed round-trip verification",
                    ),
                ));
            }
            Ok((text.into_bytes(), TEXT, events))
        })
    }

    /// `POST /v1/timeline`: scenario text → Gantt/bandwidth JSON.
    fn timeline(&self, request: &Request) -> Handled {
        let scenario = match self.scenario_from(request) {
            Ok(s) => s,
            Err(response) => return Handled::plain(response),
        };
        let key = cache_key("/v1/timeline", &scenario, None);
        self.serve_cached(request, key, None, || {
            let mut counter = Counting::new(TimelineAggregator::new());
            scenario
                .run_with(&mut counter)
                .map_err(|e| error_response(&e))?;
            let events = counter.events;
            let timeline = counter.inner.finish();
            Ok((json::timeline_json(&timeline).into_bytes(), JSON, events))
        })
    }

    /// `POST /v1/batch`: several concatenated scenario documents fanned
    /// out over the sharded backend. Past the streaming threshold (or
    /// with `?stream=1`) the body goes out chunked, one entry per
    /// scenario **as shard results complete**, in request order.
    fn batch_into(&self, request: &Request, sink: &mut dyn ResponseSink) -> LogMeta {
        let shards = match self.shard_count(request) {
            Ok(n) => n,
            Err(response) => return Handled::plain(response).emit(sink),
        };
        let emit_err = |response: Response, sink: &mut dyn ResponseSink| {
            Handled {
                response,
                events: 0,
                shards: Some(shards),
                cache: None,
            }
            .emit(sink)
        };
        let body = match body_text(request) {
            Ok(t) => t,
            Err(response) => return emit_err(response, sink),
        };
        let mut scenarios = Vec::new();
        for text in split_scenarios(body) {
            match self.prepare(text, request) {
                Ok(s) => scenarios.push(s),
                Err(response) => return emit_err(response, sink),
            }
        }
        if scenarios.is_empty() {
            return emit_err(
                Response::with_body(
                    400,
                    JSON,
                    json::error_json(
                        "scenario-parse",
                        &format!("batch body contains no {SCENARIO_HEADER:?} document"),
                    ),
                ),
                sink,
            );
        }
        let stream = match self.stream_requested(request, &scenarios) {
            Ok(stream) => stream,
            Err(response) => return emit_err(response, sink),
        };

        let mut key = format!("/v1/batch shards={shards}\n");
        for scenario in &scenarios {
            key.push_str(&scenario.to_text());
        }

        if !stream {
            return self
                .serve_cached(request, key, Some(shards), || {
                    let runs = run_scenarios_sharded(&scenarios, shards, BaselineCache::global())
                        .map_err(|e| error_response(&e))?;
                    // The sharded runner executes unobserved, so no event
                    // count is available for the log (recorded as 0).
                    Ok((json::batch_json(shards, &runs).into_bytes(), JSON, 0))
                })
                .emit(sink);
        }

        // Streaming path. ETag revalidation and cache hits still
        // short-circuit to a materialized response — only a cache miss
        // actually streams.
        let tag = json::etag(&key);
        if let Some(handled) = self.revalidate_or_hit(request, &key, &tag, Some(shards)) {
            return handled.emit(sink);
        }

        // The head goes out lazily, on the first shard result: a
        // configuration error found while validating the scenarios must
        // still produce a proper 4xx/5xx status line, which is only
        // possible while nothing has been sent.
        let mut started = false;
        let mut first = true;
        let mut accumulated: Vec<u8> = Vec::new();
        let result =
            run_scenarios_sharded_streamed(&scenarios, shards, BaselineCache::global(), |run| {
                if !started {
                    started = true;
                    sink.part(ResponsePart::StreamHead(
                        Response::with_body(200, JSON, Vec::new())
                            .header("etag", &tag)
                            .header("x-cache", CacheOutcome::Miss.label()),
                    ));
                    let prelude = json::batch_prelude(shards, scenarios.len());
                    accumulated.extend_from_slice(prelude.as_bytes());
                    sink.part(ResponsePart::StreamChunk(prelude.into_bytes()));
                }
                let mut entry = String::new();
                if !first {
                    entry.push(',');
                }
                first = false;
                entry.push_str(&json::batch_entry_json(&run));
                accumulated.extend_from_slice(entry.as_bytes());
                sink.part(ResponsePart::StreamChunk(entry.into_bytes()));
            });
        match result {
            Ok(()) => {
                accumulated.extend_from_slice(json::BATCH_EPILOGUE.as_bytes());
                sink.part(ResponsePart::StreamChunk(
                    json::BATCH_EPILOGUE.as_bytes().to_vec(),
                ));
                sink.part(ResponsePart::StreamEnd);
                self.cache.insert(
                    &key,
                    CachedResponse {
                        body: accumulated,
                        content_type: JSON,
                        etag: tag,
                        events: 0,
                    },
                );
                LogMeta {
                    status: 200,
                    events: 0,
                    shards: Some(shards),
                    cache: Some(CacheOutcome::Miss),
                }
            }
            Err(e) => {
                let error = error_response(&e);
                let status = error.status;
                if started {
                    // Head already sent: the wire can only truncate.
                    sink.part(ResponsePart::StreamAbort(error));
                } else {
                    sink.part(ResponsePart::Full(error));
                }
                LogMeta {
                    status,
                    events: 0,
                    shards: Some(shards),
                    cache: None,
                }
            }
        }
    }

    /// Whether this `/v1/batch` request streams: `?stream=1/0` wins,
    /// otherwise the batch's total application count against the
    /// configured threshold (0 disables size-triggered streaming).
    fn stream_requested(
        &self,
        request: &Request,
        scenarios: &[Scenario],
    ) -> Result<bool, Response> {
        match query_param_checked(request, "stream")? {
            Some(value) => match value.as_str() {
                "1" | "true" => Ok(true),
                "0" | "false" => Ok(false),
                other => Err(Response::with_body(
                    400,
                    JSON,
                    json::error_json(
                        "bad-request",
                        &format!("stream must be 0 or 1, got {other:?}"),
                    ),
                )),
            },
            None => {
                if self.config.stream_apps == 0 {
                    return Ok(false);
                }
                let total_apps: usize = scenarios.iter().map(|s| s.apps.len()).sum();
                Ok(total_apps >= self.config.stream_apps)
            }
        }
    }

    /// The ETag/If-None-Match/response-cache wrapper every cacheable
    /// endpoint goes through. `compute` returns `(body, content_type,
    /// events)` or a ready error response (errors are never cached).
    fn serve_cached(
        &self,
        request: &Request,
        key: String,
        shards: Option<usize>,
        compute: impl FnOnce() -> Result<(Vec<u8>, &'static str, u64), Response>,
    ) -> Handled {
        let tag = json::etag(&key);
        if let Some(handled) = self.revalidate_or_hit(request, &key, &tag, shards) {
            return handled;
        }
        match compute() {
            Ok((body, content_type, events)) => {
                self.cache.insert(
                    &key,
                    CachedResponse {
                        body: body.clone(),
                        content_type,
                        etag: tag.clone(),
                        events,
                    },
                );
                Handled {
                    response: Response::with_body(200, content_type, body)
                        .header("etag", &tag)
                        .header("x-cache", CacheOutcome::Miss.label()),
                    events,
                    shards,
                    cache: Some(CacheOutcome::Miss),
                }
            }
            Err(response) => Handled {
                response,
                events: 0,
                shards,
                cache: None,
            },
        }
    }

    /// The no-simulation half of [`Service::serve_cached`]: a matching
    /// `If-None-Match` becomes a `304`, a response-cache hit is served
    /// as-is, and anything else is `None` — the caller must compute.
    fn revalidate_or_hit(
        &self,
        request: &Request,
        key: &str,
        tag: &str,
        shards: Option<usize>,
    ) -> Option<Handled> {
        // The ETag is derived from the request's canonical inputs, so a
        // match short-circuits before any simulation work.
        if request.header("if-none-match") == Some(tag) {
            return Some(Handled {
                response: Response {
                    status: 304,
                    headers: vec![("etag".to_string(), tag.to_string())],
                    body: Vec::new(),
                },
                events: 0,
                shards,
                cache: None,
            });
        }
        let hit = self.cache.get(key)?;
        Some(Handled {
            response: Response::with_body(200, hit.content_type, hit.body)
                .header("etag", &hit.etag)
                .header("x-cache", CacheOutcome::Hit.label()),
            events: hit.events,
            shards,
            cache: Some(CacheOutcome::Hit),
        })
    }

    /// Parses the single-scenario body of `/v1/run`-shaped endpoints.
    fn scenario_from(&self, request: &Request) -> Result<Scenario, Response> {
        self.prepare(body_text(request)?, request)
    }

    /// Parses one scenario document, applies the `?policy=` override, and
    /// enforces the horizon limit plus full validation.
    fn prepare(&self, text: &str, request: &Request) -> Result<Scenario, Response> {
        let mut scenario =
            Scenario::from_text(text).map_err(|e| error_response(&Error::Scenario(e)))?;
        if let Some(spec_text) = query_param_checked(request, "policy")? {
            let spec = PolicySpec::from_text(&spec_text)
                .map_err(|e| error_response(&Error::Config(ConfigError::Policy(e))))?;
            scenario.arbitration = Some(spec);
        }
        if scenario.horizon.as_secs() > self.config.max_horizon_secs {
            return Err(Response::with_body(
                422,
                JSON,
                json::error_json(
                    "horizon-limit",
                    &format!(
                        "scenario horizon of {}s exceeds this server's limit of {}s",
                        scenario.horizon.as_secs(),
                        self.config.max_horizon_secs
                    ),
                ),
            ));
        }
        scenario
            .validate()
            .map_err(|e| error_response(&Error::Config(e)))?;
        Ok(scenario)
    }

    /// The `?shards=` override of `/v1/batch` (0 or absent → configured
    /// default).
    fn shard_count(&self, request: &Request) -> Result<usize, Response> {
        match query_param_checked(request, "shards")? {
            None => Ok(self.config.effective_shards()),
            Some(raw) => match raw.parse::<usize>() {
                Ok(0) => Ok(self.config.effective_shards()),
                Ok(n) => Ok(n),
                Err(_) => Err(Response::with_body(
                    400,
                    JSON,
                    json::error_json(
                        "bad-request",
                        &format!("shards must be a non-negative integer, got {raw:?}"),
                    ),
                )),
            },
        }
    }
}

/// The canonical cache/ETag key: endpoint + policy label + the
/// scenario's canonical text (the `BaselineCache` key discipline —
/// `from_text ∘ to_text` has already normalized the request body).
fn cache_key(endpoint: &str, scenario: &Scenario, shards: Option<usize>) -> String {
    let mut key = format!("{endpoint} policy={}\n", scenario.policy_label());
    if let Some(shards) = shards {
        key.push_str(&format!("shards={shards}\n"));
    }
    key.push_str(&scenario.to_text());
    key
}

/// Maps the typed simulator errors onto the wire: parse problems are the
/// client's fault (`400`), a scenario that parses but cannot be built or
/// validated is unprocessable (`422`), and a simulation that fails at
/// runtime is the server's problem (`500`).
fn error_response(error: &Error) -> Response {
    let (status, kind) = match error {
        Error::Scenario(_) => (400, "scenario-parse"),
        Error::Trace(_) => (400, "trace-parse"),
        Error::Info(_) => (400, "info-parse"),
        Error::Config(ConfigError::Policy(_)) => (422, "policy"),
        Error::Config(_) => (422, "config"),
        Error::Session(_) => (500, "session"),
    };
    Response::with_body(status, JSON, json::error_json(kind, &error.to_string()))
}

/// The request body as UTF-8 text.
fn body_text(request: &Request) -> Result<&str, Response> {
    std::str::from_utf8(&request.body).map_err(|_| {
        Response::with_body(
            400,
            JSON,
            json::error_json("bad-request", "request body is not valid UTF-8"),
        )
    })
}

/// Like [`Request::query_param`], but a parameter that is *present* with
/// broken percent-encoding is a `400`, not a silent absence.
fn query_param_checked(request: &Request, name: &str) -> Result<Option<String>, Response> {
    let present = request
        .query
        .split('&')
        .any(|kv| kv == name || kv.starts_with(&format!("{name}=")));
    if !present {
        return Ok(None);
    }
    match request.query_param(name) {
        Some(value) => Ok(Some(value)),
        None => Err(Response::with_body(
            400,
            JSON,
            json::error_json(
                "bad-request",
                &format!("query parameter {name} has broken percent-encoding"),
            ),
        )),
    }
}

/// Splits a `/v1/batch` body into scenario documents: each line equal to
/// the scenario header starts a new document.
fn split_scenarios(body: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = Vec::new();
    let mut offset = 0;
    for line in body.split_inclusive('\n') {
        if line.trim_end_matches(['\r', '\n']) == SCENARIO_HEADER {
            starts.push(offset);
        }
        offset += line.len();
    }
    if starts.is_empty() {
        // No header at all: hand the whole body to the scenario parser so
        // the client gets its precise BadHeader error back.
        return if body.trim().is_empty() {
            Vec::new()
        } else {
            vec![body]
        };
    }
    let mut docs = Vec::with_capacity(starts.len());
    for (i, &start) in starts.iter().enumerate() {
        let end = starts.get(i + 1).copied().unwrap_or(body.len());
        docs.push(&body[start..end]);
    }
    docs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::BufferLog;
    use calciom::{AccessPattern, AppConfig, AppId, PfsConfig};
    use std::collections::BTreeMap;

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

    fn service() -> Service {
        Service::new(ServeConfig::default(), Box::new(BufferLog::new()))
    }

    fn post(path: &str, query: &str, body: impl Into<Vec<u8>>) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.to_string(),
            query: query.to_string(),
            headers: BTreeMap::new(),
            body: body.into(),
        }
    }

    fn get(path: &str) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.to_string(),
            query: String::new(),
            headers: BTreeMap::new(),
            body: Vec::new(),
        }
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let svc = service();
        assert_eq!(svc.handle(&get("/healthz")).status, 200);
        assert_eq!(svc.handle(&get("/nope")).status, 404);
        let wrong_method = svc.handle(&get("/v1/run"));
        assert_eq!(wrong_method.status, 405);
        assert!(wrong_method
            .headers
            .iter()
            .any(|(n, v)| n == "allow" && v == "POST"));
    }

    #[test]
    fn fast_path_serves_only_requests_without_a_scenario() {
        let svc = service();
        for request in [
            get("/healthz"),
            get("/v1/policies"),
            get("/nope"),
            get("/v1/run"),
        ] {
            let mut sink = CollectSink::new();
            assert!(
                svc.handle_fast(None, &request, &mut sink),
                "{}",
                request.path
            );
            assert_ne!(sink.into_response().status, 500);
        }
        // Every POST route goes to a worker, even a request that is
        // already cached or cannot parse: the reactor decodes nothing.
        let body = scenario_text();
        assert_eq!(svc.handle(&post("/v1/run", "", body.clone())).status, 200);
        for request in [post("/v1/run", "", body), post("/v1/trace", "", "garbage")] {
            let mut sink = CollectSink::new();
            assert!(!svc.handle_fast(None, &request, &mut sink));
            assert!(sink.full.is_none() && sink.head.is_none());
        }
    }

    #[test]
    fn run_is_deterministic_and_cached() {
        let svc = service();
        let first = svc.handle(&post("/v1/run", "", scenario_text()));
        let second = svc.handle(&post("/v1/run", "", scenario_text()));
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body, "bodies must be byte-identical");
        let outcome = |r: &Response| {
            r.headers
                .iter()
                .find(|(n, _)| n == "x-cache")
                .map(|(_, v)| v.clone())
        };
        assert_eq!(outcome(&first).as_deref(), Some("miss"));
        assert_eq!(outcome(&second).as_deref(), Some("hit"));
        assert_eq!(svc.cache().hits(), 1);
    }

    #[test]
    fn etag_enables_conditional_requests() {
        let svc = service();
        let first = svc.handle(&post("/v1/run", "", scenario_text()));
        let tag = first
            .headers
            .iter()
            .find(|(n, _)| n == "etag")
            .map(|(_, v)| v.clone())
            .unwrap();
        let mut revalidate = post("/v1/run", "", scenario_text());
        revalidate
            .headers
            .insert("if-none-match".to_string(), tag.clone());
        let response = svc.handle(&revalidate);
        assert_eq!(response.status, 304);
        assert!(response.body.is_empty());
    }

    #[test]
    fn policy_override_changes_the_report() {
        let svc = service();
        let base = svc.handle(&post("/v1/run", "", scenario_text()));
        let fcfs = svc.handle(&post("/v1/run", "policy=fcfs", scenario_text()));
        assert_eq!(fcfs.status, 200);
        assert_ne!(base.body, fcfs.body);
        let text = String::from_utf8(fcfs.body).unwrap();
        assert!(text.contains("\"policy\":\"fcfs\""), "{text}");
    }

    #[test]
    fn malformed_scenario_is_a_structured_400() {
        let svc = service();
        let response = svc.handle(&post("/v1/run", "", "not a scenario"));
        assert_eq!(response.status, 400);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"kind\":\"scenario-parse\""), "{text}");
    }

    #[test]
    fn unknown_policy_is_a_422() {
        let svc = service();
        let response = svc.handle(&post("/v1/run", "policy=wizardry", scenario_text()));
        assert_eq!(response.status, 422);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"kind\":\"policy\""), "{text}");
    }

    #[test]
    fn broken_policy_encoding_is_a_400_not_silence() {
        let svc = service();
        let response = svc.handle(&post("/v1/run", "policy=rr%2", scenario_text()));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn oversized_horizon_is_a_422() {
        let config = ServeConfig {
            max_horizon_secs: 10.0,
            ..ServeConfig::default()
        };
        let svc = Service::new(config, Box::new(BufferLog::new()));
        let response = svc.handle(&post("/v1/run", "", scenario_text()));
        assert_eq!(response.status, 422);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"kind\":\"horizon-limit\""), "{text}");
    }

    #[test]
    fn trace_round_trips_to_the_run_report() {
        let svc = service();
        let run = svc.handle(&post("/v1/run", "", scenario_text()));
        let trace = svc.handle(&post("/v1/trace", "", scenario_text()));
        assert_eq!(trace.status, 200);
        let decoded = Trace::from_text(std::str::from_utf8(&trace.body).unwrap()).unwrap();
        let replayed = json::report_json(&decoded.replay_report());
        assert_eq!(replayed.into_bytes(), run.body);
    }

    #[test]
    fn timeline_reports_intervals() {
        let svc = service();
        let response = svc.handle(&post("/v1/timeline", "", scenario_text()));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"intervals\""));
        assert!(text.contains("\"bandwidth\""));
    }

    #[test]
    fn batch_splits_documents_and_reports_each() {
        let svc = service();
        let body = format!("{}{}", scenario_text(), scenario_text());
        let response = svc.handle(&post("/v1/batch", "shards=2", body));
        assert_eq!(response.status, 200);
        let text = String::from_utf8(response.body).unwrap();
        assert!(text.contains("\"scenarios\":2"), "{text}");
        assert!(text.contains("\"shards\":2"));
        assert!(text.contains("\"alone_secs\""));
    }

    #[test]
    fn batch_with_no_documents_is_a_400() {
        let svc = service();
        let response = svc.handle(&post("/v1/batch", "", "  \n"));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn batch_shard_validation() {
        let svc = service();
        let response = svc.handle(&post("/v1/batch", "shards=many", scenario_text()));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn streamed_batch_parts_reassemble_to_the_materialized_body() {
        let svc = service();
        let body = format!("{}{}", scenario_text(), scenario_text());
        let materialized = svc.handle(&post("/v1/batch", "shards=2&stream=0", body.clone()));
        assert_eq!(materialized.status, 200);

        // Fresh service so the cache is cold — a hit would short-circuit
        // to a Full part instead of streaming.
        let svc = service();
        let mut sink = CollectSink::new();
        svc.handle_into(
            None,
            &post("/v1/batch", "shards=2&stream=1", body),
            &mut sink,
        );
        assert!(sink.full.is_none(), "a cold streamed batch must stream");
        let head = sink.head.as_ref().expect("stream head was emitted");
        assert_eq!(head.status, 200);
        assert!(head
            .headers
            .iter()
            .any(|(n, v)| n == "x-cache" && v == "miss"));
        let streamed = sink.into_response();
        assert_eq!(
            streamed.body, materialized.body,
            "de-chunked stream must be byte-identical to the materialized body"
        );
    }

    #[test]
    fn streamed_batch_is_cached_for_later_hits() {
        let svc = service();
        let body = format!("{}{}", scenario_text(), scenario_text());
        let first = svc.handle(&post("/v1/batch", "shards=2&stream=1", body.clone()));
        assert_eq!(first.status, 200);
        let second = svc.handle(&post("/v1/batch", "shards=2&stream=1", body));
        assert_eq!(second.body, first.body);
        assert!(second
            .headers
            .iter()
            .any(|(n, v)| n == "x-cache" && v == "hit"));
    }

    #[test]
    fn bad_stream_flag_is_a_400() {
        let svc = service();
        let response = svc.handle(&post("/v1/batch", "stream=maybe", scenario_text()));
        assert_eq!(response.status, 400);
    }

    #[test]
    fn stream_threshold_triggers_on_total_apps() {
        let config = ServeConfig {
            stream_apps: 3,
            ..ServeConfig::default()
        };
        let svc = Service::new(config, Box::new(BufferLog::new()));
        // Two documents × two apps = 4 ≥ 3: streams without ?stream=1.
        let body = format!("{}{}", scenario_text(), scenario_text());
        let mut sink = CollectSink::new();
        svc.handle_into(None, &post("/v1/batch", "shards=2", body), &mut sink);
        assert!(
            sink.head.is_some(),
            "past the app threshold the batch must stream"
        );
    }

    #[test]
    fn split_scenarios_finds_document_boundaries() {
        let one = format!("{SCENARIO_HEADER}\na = 1\n");
        let two = format!("{one}{SCENARIO_HEADER}\nb = 2\n");
        assert_eq!(split_scenarios(&two).len(), 2);
        assert_eq!(split_scenarios(&one), vec![one.as_str()]);
        assert_eq!(split_scenarios("junk"), vec!["junk"]);
        assert!(split_scenarios(" \n").is_empty());
    }

    #[test]
    fn policies_listing_is_cacheable() {
        let svc = service();
        let first = svc.handle(&get("/v1/policies"));
        let second = svc.handle(&get("/v1/policies"));
        assert_eq!(first.status, 200);
        assert_eq!(first.body, second.body);
        assert!(String::from_utf8(first.body).unwrap().contains("srpf"));
    }

    #[test]
    fn request_log_lines_have_the_contract_columns() {
        let log = std::sync::Arc::new(BufferLog::new());
        struct Fwd(std::sync::Arc<BufferLog>);
        impl RequestLog for Fwd {
            fn record(&self, r: &RequestRecord) {
                self.0.record(r);
            }
        }
        let svc = Service::new(ServeConfig::default(), Box::new(Fwd(log.clone())));
        svc.handle_ctx(Some(3), &post("/v1/run", "", scenario_text()));
        let records = log.records();
        assert_eq!(records.len(), 1);
        let line = records[0].line();
        assert!(
            line.starts_with("method=POST path=/v1/run scenario="),
            "{line}"
        );
        assert!(line.ends_with("cache=miss conn=3"), "{line}");
        assert!(records[0].events > 0, "run streams simulation events");
        assert_eq!(records[0].cache, Some(CacheOutcome::Miss));
        assert_eq!(records[0].conn, Some(3));
    }
}
