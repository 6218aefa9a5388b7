//! Per-connection state machine for persistent (keep-alive) HTTP
//! connections.
//!
//! [`Connection`] is transport-free: bytes go in ([`Connection::on_bytes`]),
//! requests ready for dispatch come out ([`Connection::take_dispatch`]),
//! responses come back ([`Connection::on_response`]) and are framed into
//! an outgoing byte buffer the transport drains
//! ([`Connection::writable`] / [`Connection::advance_write`]). The epoll
//! reactor drives one of these per socket; keeping the state machine free
//! of file descriptors makes every lifecycle edge — pipelining order, the
//! requests-per-connection cap, poisoned parses, both timeout kinds,
//! graceful shutdown — testable without a socket.
//!
//! ## Lifecycle
//!
//! ```text
//!             bytes            take_dispatch      on_response(..)
//!  [reading] ───────▶ pending ───────────────▶ in-flight ─────▶ out buffer
//!      │                                            │(close/cap/poison)
//!      │ idle timeout (between requests)            ▼
//!      ├──────────────────────────────────▶ [closing: flush, then drop]
//!      │ header timeout (mid-request) → frame 408, then closing
//!      └ EOF / Connection: close / request cap → drain, then closing
//! ```
//!
//! Exactly **one request is in flight per connection** — that is what
//! keeps pipelined responses in request order without any reordering
//! machinery: the next pending request is dispatched only after the
//! current one's response arrived.

use crate::http::{HttpError, Request, RequestParser, Response};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Which inactivity limit a connection exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// Idle *between* requests past the idle timeout: close quietly (the
    /// normal end of a keep-alive conversation).
    Idle,
    /// Stalled *inside* a request head/body past the header timeout —
    /// the slow-loris signature: answer `408` and close.
    MidRequest,
}

/// A parsed request waiting for a worker, with the close decision its
/// head (or the request cap) implies.
#[derive(Debug)]
struct PendingRequest {
    request: Request,
    close: bool,
}

/// State of one persistent connection (see the module docs).
pub struct Connection {
    id: u64,
    parser: RequestParser,
    pending: VecDeque<PendingRequest>,
    /// `Some(close)` while a request is being handled; the flag is the
    /// `Connection` framing decision for its response.
    in_flight: Option<bool>,
    /// An unparsable-input error response that must wait for the
    /// in-flight response before it can be framed (ordering).
    poisoned: Option<Response>,
    out: Vec<u8>,
    out_pos: usize,
    accepted: usize,
    cap: Option<usize>,
    reads_done: bool,
    closing: bool,
    last_activity: Instant,
}

impl Connection {
    /// A fresh connection: `cap` is the requests-per-connection limit
    /// (`None` = unlimited), `max_body` the request-body cap.
    pub fn new(id: u64, max_body: usize, cap: Option<usize>, now: Instant) -> Self {
        Connection {
            id,
            parser: RequestParser::new(max_body),
            pending: VecDeque::new(),
            in_flight: None,
            poisoned: None,
            out: Vec::new(),
            out_pos: 0,
            accepted: 0,
            cap,
            reads_done: false,
            closing: false,
            last_activity: now,
        }
    }

    /// The server-assigned connection id (the request log's `conn=`
    /// column).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Feeds bytes from the socket and parses out every complete
    /// pipelined request. A request carrying `Connection: close` — or
    /// the one that reaches the cap — is the connection's last: later
    /// bytes are left unread and the read side is done. A parse error
    /// poisons the connection (the caller should build the error
    /// response and [`Connection::poison`] it).
    pub fn on_bytes(&mut self, bytes: &[u8], now: Instant) -> Result<(), HttpError> {
        self.last_activity = now;
        if self.reads_done || self.closing {
            return Ok(());
        }
        self.parser.feed(bytes);
        while !self.reads_done {
            match self.parser.next_request()? {
                Some(parsed) => {
                    self.accepted += 1;
                    let capped = self.cap.is_some_and(|cap| self.accepted >= cap);
                    let close = parsed.close || capped;
                    self.pending.push_back(PendingRequest {
                        request: parsed.request,
                        close,
                    });
                    if close {
                        self.reads_done = true;
                    }
                }
                None => break,
            }
        }
        Ok(())
    }

    /// The peer half-closed (read returned 0): no more requests will
    /// arrive; finish what is queued, then close.
    pub fn eof(&mut self) {
        self.reads_done = true;
    }

    /// Hard-stop the connection: discard all queued work and buffered
    /// output (IO error, forced shutdown, idle-timeout close).
    pub fn abort(&mut self) {
        self.closing = true;
        self.reads_done = true;
        self.pending.clear();
        self.in_flight = None;
        self.poisoned = None;
        self.out.clear();
        self.out_pos = 0;
    }

    /// The byte stream turned unparsable: respond with `error` (after
    /// the in-flight response, if any, to preserve ordering) and close.
    /// Already-parsed pending requests are dropped — the connection is
    /// done either way, and the client learns why.
    pub fn poison(&mut self, error: Response) {
        self.reads_done = true;
        self.pending.clear();
        if self.in_flight.is_some() {
            self.poisoned = Some(error);
        } else {
            self.frame_error(error);
        }
    }

    /// Frames an error response with `Connection: close` and marks the
    /// connection closing (also the `408` path for a mid-request stall).
    pub fn frame_error(&mut self, error: Response) {
        self.out.extend_from_slice(&error.serialize(true));
        self.closing = true;
        self.reads_done = true;
        self.pending.clear();
    }

    /// Pops the next request for dispatch, if none is in flight. The
    /// one-in-flight discipline is what keeps pipelined responses in
    /// request order.
    pub fn take_dispatch(&mut self) -> Option<Request> {
        if self.in_flight.is_some() || self.closing {
            return None;
        }
        let p = self.pending.pop_front()?;
        self.in_flight = Some(p.close);
        Some(p.request)
    }

    /// Returns a request taken by [`Connection::take_dispatch`] that
    /// could not be enqueued (worker queue full) back to the front of
    /// the pending queue.
    pub fn undo_dispatch(&mut self, request: Request) {
        let close = self.in_flight.take().unwrap_or(false);
        self.pending.push_front(PendingRequest { request, close });
    }

    /// Frames the in-flight request's response into the outgoing buffer.
    pub fn on_response(&mut self, response: Response) {
        let close = self.in_flight.take().unwrap_or(true);
        self.out.extend_from_slice(&response.serialize(close));
        if close {
            self.closing = true;
            self.reads_done = true;
            self.pending.clear();
        }
        if let Some(error) = self.poisoned.take() {
            self.frame_error(error);
        }
    }

    /// Whether the transport should keep the read side registered.
    pub fn wants_read(&self) -> bool {
        !self.reads_done && !self.closing
    }

    /// Whether buffered output is waiting for the socket.
    pub fn wants_write(&self) -> bool {
        self.out_pos < self.out.len()
    }

    /// The unwritten output bytes.
    pub fn writable(&self) -> &[u8] {
        &self.out[self.out_pos..]
    }

    /// Records `n` bytes written; recycles the buffer once drained.
    pub fn advance_write(&mut self, n: usize, now: Instant) {
        self.out_pos += n;
        self.last_activity = now;
        if self.out_pos >= self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
    }

    /// Whether a request is being handled right now.
    pub fn is_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Whether the connection sits idle between requests with nothing
    /// queued, in flight, or buffered — safe to drop instantly on
    /// shutdown.
    pub fn is_idle(&self) -> bool {
        self.parser.is_between_requests()
            && self.pending.is_empty()
            && self.in_flight.is_none()
            && self.poisoned.is_none()
            && !self.wants_write()
    }

    /// Which timeout (if any) the connection exceeded at `now`. Never
    /// fires while a request is queued, in flight, or flushing — only
    /// genuine client inactivity counts.
    pub fn timed_out(&self, now: Instant, idle: Duration, header: Duration) -> Option<TimeoutKind> {
        if self.closing
            || self.in_flight.is_some()
            || !self.pending.is_empty()
            || self.wants_write()
        {
            return None;
        }
        let elapsed = now.saturating_duration_since(self.last_activity);
        if self.parser.is_between_requests() {
            (elapsed >= idle).then_some(TimeoutKind::Idle)
        } else {
            (elapsed >= header).then_some(TimeoutKind::MidRequest)
        }
    }

    /// Whether the connection is finished and the transport should close
    /// the socket: everything owed to the client is flushed, and no more
    /// work can arrive.
    pub fn finished(&self) -> bool {
        let flushed = !self.wants_write();
        if self.closing {
            return flushed;
        }
        self.reads_done
            && flushed
            && self.in_flight.is_none()
            && self.pending.is_empty()
            && self.poisoned.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Response;

    fn conn(cap: Option<usize>) -> Connection {
        Connection::new(7, 1024, cap, Instant::now())
    }

    fn ok_response() -> Response {
        Response::with_body(200, "text/plain", "ok\n")
    }

    #[test]
    fn pipelined_requests_dispatch_one_at_a_time_in_order() {
        let mut c = conn(None);
        c.on_bytes(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n",
            Instant::now(),
        )
        .unwrap();
        let first = c.take_dispatch().unwrap();
        assert_eq!(first.path, "/a");
        assert!(c.take_dispatch().is_none(), "one in flight at a time");
        c.on_response(ok_response());
        let second = c.take_dispatch().unwrap();
        assert_eq!(second.path, "/b");
        c.on_response(ok_response());
        let out = String::from_utf8(c.writable().to_vec()).unwrap();
        assert_eq!(out.matches("HTTP/1.1 200").count(), 2);
        assert!(out.contains("connection: keep-alive"));
        assert!(!c.finished(), "keep-alive connection stays open");
    }

    #[test]
    fn request_cap_forces_close_and_drops_the_excess() {
        let mut c = conn(Some(2));
        c.on_bytes(
            b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nGET /c HTTP/1.1\r\n\r\n",
            Instant::now(),
        )
        .unwrap();
        assert!(!c.wants_read(), "reads stop at the cap");
        c.take_dispatch().unwrap();
        c.on_response(ok_response());
        let capped = c.take_dispatch().unwrap();
        assert_eq!(capped.path, "/b");
        c.on_response(ok_response());
        assert!(c.take_dispatch().is_none(), "/c never dispatches");
        let out = String::from_utf8(c.writable().to_vec()).unwrap();
        assert!(out.contains("connection: keep-alive"));
        assert!(out.contains("connection: close"), "cap-th response closes");
        c.advance_write(c.writable().len(), Instant::now());
        assert!(c.finished());
    }

    #[test]
    fn connection_close_header_is_honored() {
        let mut c = conn(None);
        c.on_bytes(
            b"GET /a HTTP/1.1\r\nconnection: close\r\n\r\n",
            Instant::now(),
        )
        .unwrap();
        let r = c.take_dispatch().unwrap();
        assert_eq!(r.path, "/a");
        c.on_response(ok_response());
        assert!(String::from_utf8(c.writable().to_vec())
            .unwrap()
            .contains("connection: close"));
        c.advance_write(c.writable().len(), Instant::now());
        assert!(c.finished());
    }

    #[test]
    fn poison_waits_for_the_in_flight_response() {
        let mut c = conn(None);
        c.on_bytes(b"GET /a HTTP/1.1\r\n\r\n", Instant::now())
            .unwrap();
        c.take_dispatch().unwrap();
        c.poison(Response::with_body(400, "application/json", "{}"));
        assert!(c.writable().is_empty(), "error must not overtake /a");
        c.on_response(ok_response());
        let out = String::from_utf8(c.writable().to_vec()).unwrap();
        let ok_at = out.find("HTTP/1.1 200").unwrap();
        let err_at = out.find("HTTP/1.1 400").unwrap();
        assert!(ok_at < err_at, "in-flight response first, then the error");
        c.advance_write(c.writable().len(), Instant::now());
        assert!(c.finished());
    }

    #[test]
    fn timeouts_distinguish_idle_from_mid_request() {
        let t0 = Instant::now();
        let idle = Duration::from_millis(100);
        let header = Duration::from_millis(300);
        let mut c = Connection::new(1, 1024, None, t0);
        // Between requests: idle timeout applies.
        assert_eq!(
            c.timed_out(t0 + idle, idle, header),
            Some(TimeoutKind::Idle)
        );
        assert_eq!(c.timed_out(t0, idle, header), None);
        // Mid-request (dribbled partial head): header timeout applies.
        c.on_bytes(b"GET /a HT", t0).unwrap();
        assert_eq!(c.timed_out(t0 + idle, idle, header), None);
        assert_eq!(
            c.timed_out(t0 + header, idle, header),
            Some(TimeoutKind::MidRequest)
        );
        // Never while work is queued or in flight.
        c.on_bytes(b"TP/1.1\r\n\r\n", t0).unwrap();
        assert_eq!(c.timed_out(t0 + header, idle, header), None);
        c.take_dispatch().unwrap();
        assert_eq!(c.timed_out(t0 + header, idle, header), None);
    }

    #[test]
    fn undo_dispatch_preserves_order_and_close_flag() {
        let mut c = conn(None);
        c.on_bytes(
            b"GET /a HTTP/1.1\r\nconnection: close\r\n\r\n",
            Instant::now(),
        )
        .unwrap();
        let r = c.take_dispatch().unwrap();
        c.undo_dispatch(r);
        assert!(!c.is_in_flight());
        c.take_dispatch().unwrap();
        c.on_response(ok_response());
        assert!(String::from_utf8(c.writable().to_vec())
            .unwrap()
            .contains("connection: close"));
    }

    #[test]
    fn eof_finishes_after_the_queue_drains() {
        let mut c = conn(None);
        c.on_bytes(b"GET /a HTTP/1.1\r\n\r\n", Instant::now())
            .unwrap();
        c.eof();
        assert!(!c.finished(), "still owes the /a response");
        c.take_dispatch().unwrap();
        c.on_response(ok_response());
        c.advance_write(c.writable().len(), Instant::now());
        assert!(c.finished());
    }
}
