//! `calciom-serve` — a stateless scenario-execution HTTP service over
//! the sharded CALCioM backend.
//!
//! The simulator's plain-text codecs (`calciom-scenario v1`,
//! `calciom-trace v1`, policy specs) *are* the wire format: POST a
//! scenario document, get back a report, a replayable trace, or a
//! timeline. The service keeps no per-client state — every response is
//! a pure function of the request, which the deterministic simulation
//! makes literally true down to the byte. That purity is load-bearing:
//!
//! * concurrent identical requests return **byte-identical bodies**;
//! * responses carry a **strong ETag** hashed from the canonical
//!   scenario text + policy spec (`If-None-Match` revalidation costs no
//!   simulation at all);
//! * a bounded [`ResponseCache`] can memoize
//!   bodies without any invalidation protocol.
//!
//! | Endpoint | Method | Body → Response |
//! |---|---|---|
//! | `/healthz` | GET | — → `ok` |
//! | `/v1/policies` | GET | — → policy registry JSON |
//! | `/v1/run` | POST | scenario text → `SessionReport` JSON |
//! | `/v1/trace` | POST | scenario text → replayable trace text |
//! | `/v1/timeline` | POST | scenario text → Gantt/bandwidth JSON |
//! | `/v1/batch` | POST | concatenated scenarios → sharded reports JSON |
//!
//! `POST` endpoints accept `?policy=<spec>` (percent-encoded policy
//! spec, e.g. `rr%2810s%29`), and `/v1/batch` accepts `?shards=<n>`.
//! Typed simulator errors map to structured JSON error bodies — parse
//! failures are `400`, unbuildable-but-parsable scenarios `422`,
//! runtime simulation failures `500`; the server never panics on a
//! request.
//!
//! Connections are persistent: HTTP/1.1 keep-alive with pipelining, an
//! idle timeout between requests, a slow-loris (header) timeout inside
//! them, and a requests-per-connection cap. Every request gets exactly
//! one `Content-Length` response, whatever its size, so its status is
//! decided before its first byte is sent. One epoll reactor
//! ([`reactor`]) multiplexes every connection, so the crate is Linux
//! only.
//!
//! Everything is built on `std` only (TCP listener, bounded
//! worker-thread pool, hand-rolled HTTP/1.1 subset, raw `epoll` FFI) —
//! the same vendoring philosophy as the rest of the workspace, because
//! the crate registry is unreachable at build time.

pub mod cache;
pub mod client;
pub mod config;
pub mod conn;
pub mod http;
pub mod json;
pub mod log;
pub mod reactor;
pub mod server;
pub mod service;

pub use cache::{CachedResponse, ResponseCache};
pub use client::{Conn, HttpReply};
pub use config::{ServeConfig, ServeConfigError};
pub use http::{HttpError, ParsedRequest, Request, RequestParser, Response};
pub use log::{BufferLog, CacheOutcome, RequestLog, RequestRecord, StderrLog};
pub use server::{start, ServerHandle, ShutdownSignal};
pub use service::Service;
