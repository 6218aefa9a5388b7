//! The TCP front end: bind, start the epoll reactor ([`crate::reactor`])
//! and its worker pool, and shut them down gracefully.
//!
//! Shutdown is a signal pipe in the dependency-free sense: a
//! [`ShutdownSignal`] sets the stop flag and opens one loopback
//! connection to the listener, waking it. In-flight requests complete,
//! idle keep-alive connections close promptly, and
//! [`ServerHandle::join`] reaps every thread.

use crate::config::ServeConfig;
use crate::log::RequestLog;
use crate::service::Service;
use iobench::BaselineCache;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A cloneable trigger for graceful shutdown, detachable from the
/// handle so a watcher thread (or a test) can stop the server while
/// another thread blocks in [`ServerHandle::join`].
#[derive(Clone)]
pub struct ShutdownSignal {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl ShutdownSignal {
    /// Requests shutdown: raises the stop flag, then opens (and
    /// immediately drops) one loopback connection to wake the listener.
    pub fn trigger(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running server: the bound address, the shared [`Service`], and the
/// threads to reap.
pub struct ServerHandle {
    addr: SocketAddr,
    service: Arc<Service>,
    signal: ShutdownSignal,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address actually bound (resolves `…:0` ephemeral binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service (cache stats, config).
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// A detachable shutdown trigger.
    pub fn signal(&self) -> ShutdownSignal {
        self.signal.clone()
    }

    /// Blocks until the server has shut down (someone must
    /// [`ShutdownSignal::trigger`] it), then reaps every thread.
    pub fn join(mut self) {
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }

    /// Graceful shutdown: trigger + join.
    pub fn shutdown(self) {
        self.signal.trigger();
        self.join();
    }
}

/// Binds `config.addr` and starts the reactor and its worker threads.
///
/// Also installs `config.cache_cap` as the capacity of the process-wide
/// [`BaselineCache`], so a long-running server bounds *both* memo layers
/// (response bodies here, `T_alone` baselines there).
pub fn start(config: ServeConfig, log: Box<dyn RequestLog>) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    BaselineCache::global().set_capacity(config.cache_cap);
    let service = Arc::new(Service::new(config, log));
    let stop = Arc::new(AtomicBool::new(false));
    let threads = crate::reactor::spawn(listener, Arc::clone(&service), Arc::clone(&stop))?;
    Ok(ServerHandle {
        addr,
        service,
        signal: ShutdownSignal { addr, stop },
        threads,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::log::BufferLog;

    fn test_config() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..ServeConfig::default()
        }
    }

    #[test]
    fn epoll_mode_boots_serves_healthz_and_shuts_down() {
        let handle = start(test_config(), Box::new(BufferLog::new())).unwrap();
        let reply = client::get(handle.addr(), "/healthz").unwrap();
        assert_eq!(reply.status, 200);
        assert_eq!(reply.body, b"ok\n");
        handle.shutdown();
    }

    #[test]
    fn shutdown_signal_works_from_another_thread() {
        let handle = start(test_config(), Box::new(BufferLog::new())).unwrap();
        let signal = handle.signal();
        let trigger = std::thread::spawn(move || signal.trigger());
        handle.join();
        trigger.join().unwrap();
    }
}
