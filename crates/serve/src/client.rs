//! A minimal blocking HTTP/1.1 client for the loopback tests.
//!
//! Exactly the counterpart of the server's wire subset, in two shapes:
//!
//! * the one-shot helpers ([`request`], [`get`], [`post`]) send
//!   `Connection: close` and read to EOF — one exchange per connection;
//! * [`Conn`] is a persistent keep-alive connection that frames
//!   responses by `Content-Length`, supports pipelining (send N, then
//!   receive N, in order), and leaves any pipelined remainder buffered
//!   for the next [`Conn::recv`].
//!
//! Not a general HTTP client — just enough to exercise `calciom-serve`
//! without external tooling.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side IO timeout (generous: a batch request simulates).
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpReply {
    /// Status code.
    pub status: u16,
    /// Headers, names lower-cased.
    pub headers: BTreeMap<String, String>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl HttpReply {
    /// A header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.get(name).map(String::as_str)
    }

    /// The body as (lossy) UTF-8 text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// Whether the server asked to close the connection after this
    /// exchange.
    pub fn closes(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.split(',').any(|t| t.trim().eq_ignore_ascii_case("close")))
    }
}

fn encode_request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> Vec<u8> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nhost: {addr}\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    if !body.is_empty() || method == "POST" || method == "PUT" {
        head.push_str(&format!("content-length: {}\r\n", body.len()));
    }
    head.push_str("\r\n");
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body);
    wire
}

/// Performs one request on a fresh connection (`Connection: close`) and
/// reads the full response.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<HttpReply> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
    stream.set_nodelay(true)?;

    let mut all_headers: Vec<(&str, &str)> = vec![("connection", "close")];
    all_headers.extend_from_slice(headers);
    stream.write_all(&encode_request(addr, method, target, &all_headers, body))?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

/// `GET target` on a fresh connection.
pub fn get(addr: SocketAddr, target: &str) -> io::Result<HttpReply> {
    request(addr, "GET", target, &[], &[])
}

/// `POST target` with a body on a fresh connection.
pub fn post(addr: SocketAddr, target: &str, body: &[u8]) -> io::Result<HttpReply> {
    request(addr, "POST", target, &[], body)
}

/// A persistent keep-alive connection.
pub struct Conn {
    addr: SocketAddr,
    stream: TcpStream,
    /// Bytes read past the previous response (pipelined replies).
    buf: Vec<u8>,
    /// Consumed prefix of `buf` — a cursor, so draining a pipelined
    /// burst is O(burst) instead of a memmove per response.
    start: usize,
}

impl Conn {
    /// Connects, ready for any number of exchanges.
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
        stream.set_write_timeout(Some(CLIENT_TIMEOUT))?;
        // Requests are small and sent one `write` each when pipelining;
        // without this, Nagle + delayed ACK serializes them at ~40 ms.
        stream.set_nodelay(true)?;
        Ok(Conn {
            addr,
            stream,
            buf: Vec::new(),
            start: 0,
        })
    }

    /// Sends one request without waiting for its response — call
    /// repeatedly to pipeline, then [`Conn::recv`] once per send, in
    /// order.
    pub fn send(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<()> {
        let wire = encode_request(self.addr, method, target, headers, body);
        self.stream.write_all(&wire)?;
        self.stream.flush()
    }

    /// Reads the next complete response, framed by `Content-Length`;
    /// surplus pipelined bytes stay buffered.
    pub fn recv(&mut self) -> io::Result<HttpReply> {
        let head_end = loop {
            if let Some(pos) = find_blank_line(&self.buf[self.start..]) {
                break self.start + pos;
            }
            self.fill()?;
        };
        let (status, headers) = parse_head(&self.buf[self.start..head_end])?;

        let body_start = head_end + 4;
        let declared: usize = headers
            .get("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        while self.buf.len() < body_start + declared {
            self.fill()?;
        }
        let body = self.buf[body_start..body_start + declared].to_vec();
        self.start = body_start + declared;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(HttpReply {
            status,
            headers,
            body,
        })
    }

    /// One full exchange on the persistent connection.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<HttpReply> {
        self.send(method, target, headers, body)?;
        self.recv()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

fn bad(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

fn find_blank_line(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn parse_head(head: &[u8]) -> io::Result<(u16, BTreeMap<String, String>)> {
    let head = std::str::from_utf8(head).map_err(|_| bad("response head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response head"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = BTreeMap::new();
    for line in lines {
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed response header"))?;
        headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
    }
    Ok((status, headers))
}

fn parse_reply(raw: &[u8]) -> io::Result<HttpReply> {
    let split = find_blank_line(raw).ok_or_else(|| bad("response has no header/body separator"))?;
    let (status, headers) = parse_head(&raw[..split])?;
    let mut body = raw[split + 4..].to_vec();
    if let Some(declared) = headers.get("content-length").and_then(|v| v.parse().ok()) {
        if body.len() < declared {
            return Err(bad("response body shorter than content-length"));
        }
        body.truncate(declared);
    }
    Ok(HttpReply {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_reply() {
        let raw = b"HTTP/1.1 200 OK\r\ncontent-type: text/plain\r\ncontent-length: 3\r\n\r\nok\n";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("content-type"), Some("text/plain"));
        assert_eq!(reply.body, b"ok\n");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_reply(b"not http").is_err());
        assert!(parse_reply(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn close_detection_handles_token_lists() {
        let raw = b"HTTP/1.1 200 OK\r\nconnection: keep-alive\r\ncontent-length: 0\r\n\r\n";
        assert!(!parse_reply(raw).unwrap().closes());
        let raw = b"HTTP/1.1 200 OK\r\nconnection: Close\r\ncontent-length: 0\r\n\r\n";
        assert!(parse_reply(raw).unwrap().closes());
    }
}
