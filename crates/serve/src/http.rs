//! Hand-rolled HTTP/1.1 wire layer: an incremental request parser and a
//! keep-alive-aware response writer.
//!
//! The crate registry is unreachable in this build environment (see
//! `vendor/README.md`), so the wire layer is implemented directly over
//! byte buffers in the same vendoring philosophy: the *minimal* slice of
//! HTTP/1.1 the service needs, written defensively.
//!
//! * [`RequestParser`] is a resumable state machine over a per-connection
//!   buffer: bytes go in via [`RequestParser::feed`] in whatever pieces
//!   the socket delivers them, complete requests come out via
//!   [`RequestParser::next_request`]. One read may yield several
//!   pipelined requests; a partial request is carried across reads. The
//!   head is capped at [`MAX_HEAD_BYTES`]; bodies are capped by the
//!   configured limit *before* any body byte is consumed
//!   ([`HttpError::BodyTooLarge`] → `413`).
//! * Responses carry explicit `Content-Length` + `Connection` framing
//!   ([`Response::serialize`]), so one connection can carry many
//!   exchanges. The server never writes `Transfer-Encoding`.
//!
//! Connection lifetime policy (idle/header timeouts, requests-per-
//! connection cap) lives in [`crate::conn`] and the reactor that drives
//! it ([`crate::reactor`]); this module only parses and frames.

use std::collections::BTreeMap;

/// Cap on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A problem reading or parsing one request. Each variant maps to one
/// response status (see [`HttpError::status`]).
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed mid-exchange.
    Io(std::io::Error),
    /// The request line was not `METHOD target HTTP/1.x`.
    BadRequestLine(String),
    /// A header line had no `:` separator.
    BadHeader(String),
    /// The request line + headers exceeded [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// A body-bearing request had no (or an unparsable) `Content-Length`
    /// (chunked uploads are not supported).
    LengthRequired,
    /// `Content-Length` exceeded the configured body cap. The body was
    /// *not* read.
    BodyTooLarge {
        /// The declared length.
        declared: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The client stalled mid-request past the header timeout (the
    /// slow-loris defense; raised by [`crate::reactor`], not the parser).
    Timeout,
}

impl HttpError {
    /// The response status this error is reported as.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 400,
            HttpError::BadRequestLine(_) | HttpError::BadHeader(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::LengthRequired => 411,
            HttpError::BodyTooLarge { .. } => 413,
            HttpError::Timeout => 408,
        }
    }
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::BadRequestLine(l) => write!(f, "malformed request line {l:?}"),
            HttpError::BadHeader(l) => write!(f, "malformed header line {l:?}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::LengthRequired => {
                write!(
                    f,
                    "request body needs a Content-Length (chunked unsupported)"
                )
            }
            HttpError::BodyTooLarge { declared, limit } => {
                write!(
                    f,
                    "declared body of {declared} bytes exceeds the {limit}-byte limit"
                )
            }
            HttpError::Timeout => write!(f, "client stalled mid-request past the header timeout"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path, without the query string (`/v1/run`).
    pub path: String,
    /// Raw query string after `?` (empty when absent).
    pub query: String,
    /// Headers with lower-cased names; the last occurrence wins.
    pub headers: BTreeMap<String, String>,
    /// The request body (empty for bodiless methods).
    pub body: Vec<u8>,
}

impl Request {
    /// A header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }

    /// The decoded value of one query parameter (`?policy=rr%2810s%29` →
    /// `rr(10s)`), or `None` when the parameter is absent or its
    /// percent-encoding is broken.
    pub fn query_param(&self, name: &str) -> Option<String> {
        self.query
            .split('&')
            .filter(|kv| !kv.is_empty())
            .find_map(|kv| {
                let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
                (k == name).then(|| percent_decode(v))?
            })
    }
}

/// One request as it came off the wire, with the connection decision the
/// head implies: `close` is true when the client sent
/// `Connection: close`, or spoke HTTP/1.0 without asking for keep-alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRequest {
    /// The parsed request.
    pub request: Request,
    /// Whether the connection must close after this exchange.
    pub close: bool,
}

/// Decodes `%XX` escapes and `+` spaces. Returns `None` on a truncated
/// or non-hex escape.
pub fn percent_decode(text: &str) -> Option<String> {
    let bytes = text.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hi = hex_val(*bytes.get(i + 1)?)?;
                let lo = hex_val(*bytes.get(i + 2)?)?;
                out.push(hi * 16 + lo);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Where the parser is inside the current request.
enum ParseState {
    /// Accumulating the request line + headers, waiting for the blank
    /// line.
    Head,
    /// Head parsed; waiting for `remaining` more body bytes.
    Body {
        request: Request,
        close: bool,
        remaining: usize,
    },
}

/// Incremental, resumable HTTP/1.1 request parser over a per-connection
/// buffer.
///
/// Feed it whatever the socket delivers; pull complete requests until it
/// returns `Ok(None)` (needs more bytes). A parse error poisons the
/// connection — the caller must respond with [`HttpError::status`] and
/// close, because the byte stream can no longer be framed.
pub struct RequestParser {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted after each parsed request).
    start: usize,
    state: ParseState,
    max_body: usize,
}

impl RequestParser {
    /// A fresh parser enforcing `max_body` on request bodies.
    pub fn new(max_body: usize) -> Self {
        RequestParser {
            buf: Vec::new(),
            start: 0,
            state: ParseState::Head,
            max_body,
        }
    }

    /// Appends bytes read from the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the parser sits *between* requests (nothing buffered,
    /// nothing partial) — the distinction between the idle timeout and
    /// the header (slow-loris) timeout.
    pub fn is_between_requests(&self) -> bool {
        matches!(self.state, ParseState::Head) && self.buf.len() == self.start
    }

    /// Pulls the next complete request out of the buffer, or `Ok(None)`
    /// when more bytes are needed.
    pub fn next_request(&mut self) -> Result<Option<ParsedRequest>, HttpError> {
        loop {
            match &mut self.state {
                ParseState::Head => {
                    // Tolerate blank lines between pipelined requests
                    // (RFC 9112 §2.2 says to ignore them).
                    while matches!(self.buf.get(self.start), Some(b'\r' | b'\n')) {
                        self.start += 1;
                    }
                    let pending = &self.buf[self.start..];
                    let Some(head_len) = find_head_end(pending) else {
                        if pending.len() > MAX_HEAD_BYTES {
                            return Err(HttpError::HeadTooLarge);
                        }
                        self.compact();
                        return Ok(None);
                    };
                    if head_len > MAX_HEAD_BYTES {
                        return Err(HttpError::HeadTooLarge);
                    }
                    let (request, close) = parse_head(&pending[..head_len])?;
                    self.start += head_len;
                    let remaining = declared_body_len(&request, self.max_body)?;
                    self.state = ParseState::Body {
                        request,
                        close,
                        remaining,
                    };
                }
                ParseState::Body {
                    request,
                    close,
                    remaining,
                } => {
                    let available = self.buf.len() - self.start;
                    if available < *remaining {
                        self.compact();
                        return Ok(None);
                    }
                    let body = self.buf[self.start..self.start + *remaining].to_vec();
                    self.start += *remaining;
                    let mut request = std::mem::replace(
                        request,
                        Request {
                            method: String::new(),
                            path: String::new(),
                            query: String::new(),
                            headers: BTreeMap::new(),
                            body: Vec::new(),
                        },
                    );
                    request.body = body;
                    let close = *close;
                    self.state = ParseState::Head;
                    self.compact();
                    return Ok(Some(ParsedRequest { request, close }));
                }
            }
        }
    }

    /// Drops the consumed prefix so the buffer stays bounded by one
    /// in-progress request, not the connection's lifetime traffic.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

/// Finds the end of the head (one past the blank line), accepting both
/// CRLF and bare-LF line endings.
fn find_head_end(bytes: &[u8]) -> Option<usize> {
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'\n' {
            match bytes.get(i + 1) {
                Some(b'\n') => return Some(i + 2),
                Some(b'\r') if bytes.get(i + 2) == Some(&b'\n') => return Some(i + 3),
                _ => {}
            }
        }
        i += 1;
    }
    None
}

/// Parses the request line + headers; returns the (bodiless) request and
/// the connection-close decision its head implies.
fn parse_head(head: &[u8]) -> Result<(Request, bool), HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::BadRequestLine("<non-UTF-8 head>".to_string()))?;
    let mut lines = text.split('\n').map(|l| l.trim_end_matches('\r'));

    let request_line = lines.next().unwrap_or("").to_string();
    let mut parts = request_line.split_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if v.starts_with("HTTP/1.") => {
            (m.to_ascii_uppercase(), t, v)
        }
        _ => return Err(HttpError::BadRequestLine(request_line)),
    };
    let http_10 = version == "HTTP/1.0";

    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::BadHeader(line.to_string()))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }

    let connection = headers
        .get("connection")
        .map(|v| v.to_ascii_lowercase())
        .unwrap_or_default();
    let close = connection.split(',').any(|t| t.trim() == "close")
        || (http_10 && !connection.split(',').any(|t| t.trim() == "keep-alive"));

    let (raw_path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q.to_string()),
        None => (target, String::new()),
    };
    let path = percent_decode(raw_path).unwrap_or_else(|| raw_path.to_string());

    Ok((
        Request {
            method,
            path,
            query,
            headers,
            body: Vec::new(),
        },
        close,
    ))
}

/// The declared body length a parsed head commits the stream to, checked
/// against the configured cap before a single body byte is consumed.
fn declared_body_len(request: &Request, max_body: usize) -> Result<usize, HttpError> {
    if request.method != "POST" && request.method != "PUT" {
        return Ok(0);
    }
    let declared: usize = request
        .headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or(HttpError::LengthRequired)?;
    if declared > max_body {
        return Err(HttpError::BodyTooLarge {
            declared,
            limit: max_body,
        });
    }
    Ok(declared)
}

/// One response, framed on the way out by [`Response::serialize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (`200`, `404`, …).
    pub status: u16,
    /// Extra headers as `(name, value)` pairs, in emission order.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A response with a body and content type.
    pub fn with_body(status: u16, content_type: &str, body: impl Into<Vec<u8>>) -> Response {
        Response {
            status,
            headers: vec![("content-type".to_string(), content_type.to_string())],
            body: body.into(),
        }
    }

    /// Appends a header.
    pub fn header(mut self, name: &str, value: &str) -> Response {
        self.headers.push((name.to_string(), value.to_string()));
        self
    }

    /// The standard reason phrase of the status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            304 => "Not Modified",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            411 => "Length Required",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            _ => "Response",
        }
    }

    /// Serializes the full response with `Content-Length` framing and the
    /// given `Connection` decision.
    pub fn serialize(&self, close: bool) -> Vec<u8> {
        let mut head = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (name, value) in &self.headers {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        let mut out = head.into_bytes();
        out.extend_from_slice(
            format!(
                "content-length: {}\r\nconnection: {}\r\n\r\n",
                self.body.len(),
                if close { "close" } else { "keep-alive" }
            )
            .as_bytes(),
        );
        out.extend_from_slice(&self.body);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_all(parser: &mut RequestParser) -> Vec<ParsedRequest> {
        let mut out = Vec::new();
        while let Some(parsed) = parser.next_request().expect("parses") {
            out.push(parsed);
        }
        out
    }

    #[test]
    fn percent_decoding_handles_escapes_and_rejects_broken_ones() {
        assert_eq!(percent_decode("rr%2810s%29").as_deref(), Some("rr(10s)"));
        assert_eq!(percent_decode("a+b").as_deref(), Some("a b"));
        assert_eq!(percent_decode("plain").as_deref(), Some("plain"));
        assert_eq!(percent_decode("%2"), None);
        assert_eq!(percent_decode("%zz"), None);
    }

    #[test]
    fn query_params_decode() {
        let req = Request {
            method: "POST".to_string(),
            path: "/v1/run".to_string(),
            query: "policy=rr%2810s%29&shards=4&flag".to_string(),
            headers: BTreeMap::new(),
            body: Vec::new(),
        };
        assert_eq!(req.query_param("policy").as_deref(), Some("rr(10s)"));
        assert_eq!(req.query_param("shards").as_deref(), Some("4"));
        assert_eq!(req.query_param("flag").as_deref(), Some(""));
        assert_eq!(req.query_param("missing"), None);
    }

    #[test]
    fn parses_a_complete_request_in_one_feed() {
        let mut parser = RequestParser::new(1024);
        parser
            .feed(b"POST /v1/run?policy=fcfs HTTP/1.1\r\nhost: t\r\ncontent-length: 4\r\n\r\nbody");
        let parsed = parser.next_request().unwrap().expect("complete");
        assert_eq!(parsed.request.method, "POST");
        assert_eq!(parsed.request.path, "/v1/run");
        assert_eq!(parsed.request.query, "policy=fcfs");
        assert_eq!(parsed.request.body, b"body");
        assert!(!parsed.close, "HTTP/1.1 defaults to keep-alive");
        assert!(parser.next_request().unwrap().is_none());
        assert!(parser.is_between_requests());
    }

    #[test]
    fn resumes_across_arbitrary_byte_boundaries() {
        let wire = b"POST /v1/run HTTP/1.1\r\ncontent-length: 5\r\n\r\nhello";
        for split in 1..wire.len() {
            let mut parser = RequestParser::new(64);
            parser.feed(&wire[..split]);
            let first = parser.next_request().unwrap();
            parser.feed(&wire[split..]);
            let parsed = match first {
                Some(p) => p,
                None => parser.next_request().unwrap().expect("complete after rest"),
            };
            assert_eq!(parsed.request.body, b"hello", "split at {split}");
            assert!(!parser.is_between_requests() || parser.next_request().unwrap().is_none());
        }
    }

    #[test]
    fn pipelined_requests_come_out_in_order() {
        let mut parser = RequestParser::new(64);
        parser.feed(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\nPOST /c HTTP/1.1\r\ncontent-length: 2\r\n\r\nok");
        let parsed = parse_all(&mut parser);
        assert_eq!(
            parsed
                .iter()
                .map(|p| p.request.path.as_str())
                .collect::<Vec<_>>(),
            vec!["/a", "/b", "/c"]
        );
        assert_eq!(parsed[2].request.body, b"ok");
        assert!(parser.is_between_requests());
    }

    #[test]
    fn connection_close_and_http_10_are_detected() {
        let mut parser = RequestParser::new(64);
        parser.feed(b"GET /a HTTP/1.1\r\nconnection: close\r\n\r\n");
        assert!(parser.next_request().unwrap().unwrap().close);

        let mut parser = RequestParser::new(64);
        parser.feed(b"GET /a HTTP/1.0\r\n\r\n");
        assert!(
            parser.next_request().unwrap().unwrap().close,
            "1.0 defaults to close"
        );

        let mut parser = RequestParser::new(64);
        parser.feed(b"GET /a HTTP/1.0\r\nconnection: keep-alive\r\n\r\n");
        assert!(!parser.next_request().unwrap().unwrap().close);
    }

    #[test]
    fn oversized_declared_body_errors_before_body_bytes_arrive() {
        let mut parser = RequestParser::new(16);
        parser.feed(b"POST /v1/run HTTP/1.1\r\ncontent-length: 1048576\r\n\r\n");
        match parser.next_request() {
            Err(HttpError::BodyTooLarge { declared, limit }) => {
                assert_eq!(declared, 1048576);
                assert_eq!(limit, 16);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn post_without_content_length_is_length_required() {
        let mut parser = RequestParser::new(16);
        parser.feed(b"POST /v1/run HTTP/1.1\r\n\r\n");
        assert!(matches!(
            parser.next_request(),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn unbounded_head_is_rejected() {
        let mut parser = RequestParser::new(16);
        parser.feed(b"GET /a HTTP/1.1\r\n");
        let filler = format!("x-junk: {}\r\n", "a".repeat(4096));
        for _ in 0..8 {
            parser.feed(filler.as_bytes());
        }
        assert!(matches!(
            parser.next_request(),
            Err(HttpError::HeadTooLarge)
        ));
    }

    #[test]
    fn responses_serialize_with_length_and_connection_framing() {
        let response = Response::with_body(200, "application/json", "{}").header("etag", "\"abc\"");
        let close = String::from_utf8(response.serialize(true)).unwrap();
        assert!(close.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(close.contains("content-type: application/json\r\n"));
        assert!(close.contains("etag: \"abc\"\r\n"));
        assert!(close.contains("content-length: 2\r\n"));
        assert!(close.contains("connection: close\r\n"));
        assert!(close.ends_with("\r\n\r\n{}"));

        let keep = String::from_utf8(response.serialize(false)).unwrap();
        assert!(keep.contains("connection: keep-alive\r\n"));
    }

    #[test]
    fn http_error_statuses_match_the_contract() {
        assert_eq!(
            HttpError::BodyTooLarge {
                declared: 10,
                limit: 5
            }
            .status(),
            413
        );
        assert_eq!(HttpError::LengthRequired.status(), 411);
        assert_eq!(HttpError::HeadTooLarge.status(), 431);
        assert_eq!(HttpError::BadRequestLine(String::new()).status(), 400);
        assert_eq!(HttpError::Timeout.status(), 408);
    }
}
