//! The service side: `calciom-serve` booted in-process on an ephemeral
//! port, a benchmark-owned request log, and a minimal keep-alive client.
//!
//! The client is the benchmark's own (not `serve::client`), so the load
//! generator stays fixed while the service crate changes.

use crate::clock::Stamp;
use crate::BenchError;
use serve::{RequestLog, RequestRecord, ServeConfig, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the benchmark keeps of one request-log line.
#[derive(Debug, Clone, Copy)]
pub struct Logged {
    /// FNV-64 of the request body (the log's scenario hash).
    pub body_hash: Option<u64>,
    /// Whether the response cache answered.
    pub cache_hit: bool,
    /// Server-side handling time.
    pub handle: Duration,
}

/// The request-log sink: collects every record in memory.
#[derive(Debug, Default)]
pub struct Log(Mutex<Vec<Logged>>);

/// How long to wait for a log line: the service writes it after the
/// response is on the wire, so it can trail the client's read.
const LOG_WAIT: Duration = Duration::from_secs(5);

impl Log {
    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Logged>> {
        // A poisoned lock only means a request thread panicked mid-push;
        // the vector itself is still valid.
        self.0.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Removes and returns the record of the request whose body hashes
    /// to `body_hash`, waiting for it to be logged.
    pub fn take(&self, body_hash: u64) -> Option<Logged> {
        let start = Stamp::now();
        loop {
            {
                let mut records = self.lock();
                if let Some(i) = records.iter().position(|l| l.body_hash == Some(body_hash)) {
                    return Some(records.swap_remove(i));
                }
            }
            if start.elapsed() > LOG_WAIT {
                return None;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
    }

    /// Waits until at least `n` records are in, then takes them all.
    pub fn drain(&self, n: usize) -> Vec<Logged> {
        let start = Stamp::now();
        while self.lock().len() < n && start.elapsed() < LOG_WAIT {
            std::thread::sleep(Duration::from_micros(50));
        }
        std::mem::take(&mut *self.lock())
    }
}

struct Sink(Arc<Log>);

impl RequestLog for Sink {
    fn record(&self, record: &RequestRecord) {
        let logged = Logged {
            body_hash: record.scenario_hash,
            cache_hit: record.cache == Some(serve::CacheOutcome::Hit),
            handle: record.wall,
        };
        self.0.lock().push(logged);
    }
}

/// A running service with its request log.
pub struct Server {
    handle: ServerHandle,
    /// Every request the service logged.
    pub log: Arc<Log>,
}

impl Server {
    /// Boots the service with its default configuration on an ephemeral
    /// loopback port.
    pub fn boot() -> Result<Server, BenchError> {
        let log = Arc::new(Log::default());
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let handle = serve::start(config, Box::new(Sink(Arc::clone(&log))))?;
        Ok(Server { handle, log })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Graceful shutdown; returns once every server thread has ended.
    pub fn stop(self) {
        self.handle.shutdown();
    }
}

/// One response.
#[derive(Debug, Clone)]
pub struct Reply {
    /// Status code.
    pub status: u16,
    /// Body bytes.
    pub body: Vec<u8>,
}

/// A keep-alive HTTP/1.1 connection that reconnects when the server
/// closes it (the service caps requests per connection).
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
}

/// Client socket timeout: far above any op, so a stall fails loudly.
const TIMEOUT: Duration = Duration::from_secs(60);

impl Client {
    /// A client for `addr`; connects lazily.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(1 << 16),
        }
    }

    fn stream(&mut self) -> Result<&mut TcpStream, BenchError> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            stream.set_write_timeout(Some(TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.stream = Some(stream);
        }
        self.stream
            .as_mut()
            .ok_or_else(|| BenchError::Http("no connection".to_string()))
    }

    /// `POST target` with `body`; waits for the whole response.
    pub fn post(&mut self, target: &str, body: &[u8]) -> Result<Reply, BenchError> {
        let mut wire = format!(
            "POST {target} HTTP/1.1\r\nhost: benchmark\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        match self.exchange(&wire) {
            Ok(reply) => Ok(reply),
            // The server may have closed an idle keep-alive connection
            // just before this request; retry once on a fresh one.
            Err(BenchError::Closed) => {
                self.stream = None;
                self.exchange(&wire)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn exchange(&mut self, wire: &[u8]) -> Result<Reply, BenchError> {
        self.buf.clear();
        let stream = self.stream()?;
        if stream.write_all(wire).is_err() {
            return Err(BenchError::Closed);
        }
        let mut chunk = [0u8; 1 << 16];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos + 4;
            }
            let n = self.read(&mut chunk)?;
            if n == 0 {
                return Err(if self.buf.is_empty() {
                    BenchError::Closed
                } else {
                    BenchError::Http("connection closed inside a response head".to_string())
                });
            }
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_ascii_lowercase();
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| BenchError::Http("malformed status line".to_string()))?;
        let header = |name: &str| {
            head.lines()
                .find_map(|l| l.strip_prefix(name).map(|v| v.trim().to_string()))
        };
        let length: usize = header("content-length:")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| BenchError::Http("response without content-length".to_string()))?;
        let closes = header("connection:").is_some_and(|v| v == "close");
        while self.buf.len() < head_end + length {
            if self.read(&mut chunk)? == 0 {
                return Err(BenchError::Http(
                    "connection closed inside a body".to_string(),
                ));
            }
        }
        let body = self.buf[head_end..head_end + length].to_vec();
        if closes {
            self.stream = None;
        }
        Ok(Reply { status, body })
    }

    fn read(&mut self, chunk: &mut [u8]) -> Result<usize, BenchError> {
        let stream = self.stream()?;
        let n = stream.read(chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }
}
