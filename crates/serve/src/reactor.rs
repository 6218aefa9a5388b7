//! Readiness-driven front end: one reactor thread multiplexing every
//! connection over `epoll`, with simulation work on the bounded worker
//! pool. This is the service's only front end, so the crate is Linux
//! only.
//!
//! ## Why raw FFI
//!
//! The crate registry is unreachable in this build environment (see
//! `vendor/README.md`), so there is no `mio`/`libc` to lean on. The
//! reactor declares the five syscalls it needs directly
//! (`epoll_create1`, `epoll_ctl`, `epoll_wait`, `eventfd`, `fcntl` —
//! plus `read`/`write`/`close` for the eventfd): they are part of the
//! stable Linux syscall ABI, the surface is tiny, and every call site is
//! wrapped in a safe helper that turns `-1` into `io::Error`. The only
//! layout subtlety is `sys::EpollEvent`: on x86-64 the kernel's
//! `struct epoll_event` is **packed** (no padding before the 64-bit data
//! word), hence the `cfg_attr(target_arch = "x86_64", repr(packed))`.
//!
//! ## Threading model
//!
//! * **Reactor thread** — owns the epoll instance, the listener, and
//!   every [`Connection`]. It accepts, reads, parses, frames, writes,
//!   enforces timeouts, and *never* simulates: requests are handed to
//!   the worker pool over a bounded channel with `try_send`, so a full
//!   pool back-pressures into the per-connection pending queues (and
//!   ultimately the requests-per-connection cap + socket buffers)
//!   instead of blocking the event loop. This is also the slow-loris
//!   defense in structural form: a dribbling client costs one
//!   [`Connection`] and a timer scan, never a worker thread.
//! * **Worker threads** — run [`Service::handle_into`], pushing
//!   [`ResponsePart`]s onto the completion queue and waking the reactor
//!   through the eventfd after each part, so streamed `/v1/batch`
//!   chunks go out while later shards are still simulating.
//!
//! Tokens: epoll `data` is `0` for the listener, `1` for the eventfd,
//! and the connection id (always ≥ 2) otherwise.
//!
//! ## Shutdown
//!
//! [`crate::server::ShutdownSignal::trigger`] raises the stop flag and
//! pokes the listener with a loopback connect; the ≤100 ms epoll tick
//! bounds how late the flag is observed either way. The reactor then
//! stops accepting, drops idle connections immediately, lets in-flight
//! and pending requests drain (with a hard deadline), and exits —
//! dropping the job sender, which terminates the worker pool.

use crate::conn::{Connection, TimeoutKind};
use crate::http::HttpError;
use crate::service::{ResponsePart, ResponseSink, Service};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::c_int;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Raw Linux syscall surface (see the module docs for the rationale).
mod sys {
    use std::os::raw::{c_int, c_void};

    /// Mirror of the kernel's `struct epoll_event`. Packed on x86-64 —
    /// that is the kernel ABI there, not an optimization.
    #[derive(Clone, Copy)]
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    pub struct EpollEvent {
        pub events: u32,
        pub data: u64,
    }

    extern "C" {
        pub fn epoll_create1(flags: c_int) -> c_int;
        pub fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        pub fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        pub fn eventfd(initval: u32, flags: c_int) -> c_int;
        pub fn fcntl(fd: c_int, cmd: c_int, arg: c_int) -> c_int;
        pub fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        pub fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        pub fn close(fd: c_int) -> c_int;
    }

    pub const EPOLL_CLOEXEC: c_int = 0o2000000;
    pub const EPOLL_CTL_ADD: c_int = 1;
    pub const EPOLL_CTL_DEL: c_int = 2;
    pub const EPOLL_CTL_MOD: c_int = 3;
    pub const EPOLLIN: u32 = 0x1;
    pub const EPOLLOUT: u32 = 0x4;
    pub const EPOLLERR: u32 = 0x8;
    pub const EPOLLHUP: u32 = 0x10;
    pub const EPOLLRDHUP: u32 = 0x2000;
    pub const EFD_NONBLOCK: c_int = 0o4000;
    pub const F_GETFL: c_int = 3;
    pub const F_SETFL: c_int = 4;
    pub const O_NONBLOCK: c_int = 0o4000;
}

/// Epoll token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Epoll token of the completion-queue eventfd.
const TOKEN_WAKE: u64 = 1;
/// Upper bound on one `epoll_wait` harvest.
const MAX_EVENTS: usize = 256;
/// Event-loop tick: bounds timeout-scan and stop-flag latency.
const TICK_MS: c_int = 100;
/// Hard deadline for draining in-flight work after a shutdown request.
const FORCE_QUIT: Duration = Duration::from_secs(10);
/// Read chunk size per `read` call on a ready socket.
const READ_CHUNK: usize = 16 * 1024;

fn os_err() -> io::Error {
    io::Error::last_os_error()
}

/// Marks a file descriptor non-blocking via `fcntl` (`O_NONBLOCK`).
fn set_nonblocking(fd: c_int) -> io::Result<()> {
    let flags = unsafe { sys::fcntl(fd, sys::F_GETFL, 0) };
    if flags < 0 {
        return Err(os_err());
    }
    if unsafe { sys::fcntl(fd, sys::F_SETFL, flags | sys::O_NONBLOCK) } < 0 {
        return Err(os_err());
    }
    Ok(())
}

/// Owned `eventfd` used as the wake pipe of the completion queue.
/// Closed on drop; sharing is via `Arc`, so the fd can never be reused
/// while a worker still holds a handle.
struct EventFd(c_int);

impl EventFd {
    fn new() -> io::Result<EventFd> {
        let fd = unsafe { sys::eventfd(0, sys::EFD_NONBLOCK) };
        if fd < 0 {
            return Err(os_err());
        }
        Ok(EventFd(fd))
    }

    /// Adds 1 to the counter, waking an `epoll_wait` on the fd. Failure
    /// is ignorable: the reactor drains the queue on every tick anyway.
    fn wake(&self) {
        let one: u64 = 1;
        let _ = unsafe { sys::write(self.0, (&one as *const u64).cast(), 8) };
    }

    /// Resets the counter so the level-triggered readiness clears.
    fn drain(&self) {
        let mut buf: u64 = 0;
        let _ = unsafe { sys::read(self.0, (&mut buf as *mut u64).cast(), 8) };
    }
}

impl Drop for EventFd {
    fn drop(&mut self) {
        let _ = unsafe { sys::close(self.0) };
    }
}

/// Owned epoll instance.
struct Epoll(c_int);

impl Epoll {
    fn new() -> io::Result<Epoll> {
        let fd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(os_err());
        }
        Ok(Epoll(fd))
    }

    fn ctl(&self, op: c_int, fd: c_int, events: u32, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events,
            data: token,
        };
        let ptr = if op == sys::EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut sys::EpollEvent
        };
        if unsafe { sys::epoll_ctl(self.0, op, fd, ptr) } < 0 {
            return Err(os_err());
        }
        Ok(())
    }

    /// Waits up to `timeout_ms`; returns the ready prefix of `events`.
    fn wait(&self, events: &mut [sys::EpollEvent], timeout_ms: c_int) -> usize {
        let n = unsafe {
            sys::epoll_wait(
                self.0,
                events.as_mut_ptr(),
                events.len() as c_int,
                timeout_ms,
            )
        };
        // EINTR (or any error) harvests nothing; the next tick retries.
        if n < 0 {
            0
        } else {
            n as usize
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        let _ = unsafe { sys::close(self.0) };
    }
}

/// One request handed to the worker pool.
struct Job {
    conn: u64,
    request: crate::http::Request,
}

/// One response part on its way back from a worker.
struct Completion {
    conn: u64,
    part: ResponsePart,
}

/// The worker-side [`ResponseSink`]: parts go onto the shared queue and
/// the reactor is woken per part, so streamed chunks reach the wire
/// while the worker is still simulating later shards.
struct QueueSink {
    conn: u64,
    queue: Arc<Mutex<VecDeque<Completion>>>,
    wake: Arc<EventFd>,
}

impl ResponseSink for QueueSink {
    fn part(&mut self, part: ResponsePart) {
        self.queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push_back(Completion {
                conn: self.conn,
                part,
            });
        self.wake.wake();
    }
}

/// Applies response parts straight to the connection's output buffer —
/// the sink behind the reactor-thread fast path, where no completion
/// queue hop is needed.
struct ConnSink<'a>(&'a mut Connection);

impl ResponseSink for ConnSink<'_> {
    fn part(&mut self, part: ResponsePart) {
        self.0.on_part(part);
    }
}

fn worker_loop(
    rx: &Mutex<Receiver<Job>>,
    service: &Service,
    queue: &Arc<Mutex<VecDeque<Completion>>>,
    wake: &Arc<EventFd>,
) {
    loop {
        let job = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
        match job {
            Ok(job) => {
                let mut sink = QueueSink {
                    conn: job.conn,
                    queue: Arc::clone(queue),
                    wake: Arc::clone(wake),
                };
                service.handle_into(Some(job.conn), &job.request, &mut sink);
            }
            Err(_) => break,
        }
    }
}

/// One registered connection: the socket, its state machine, and the
/// epoll interest mask currently installed.
struct Slot {
    stream: TcpStream,
    state: Connection,
    mask: u32,
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    accepting: bool,
    wake: Arc<EventFd>,
    queue: Arc<Mutex<VecDeque<Completion>>>,
    job_tx: SyncSender<Job>,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    /// The id the next accepted connection gets (the request log's
    /// `conn=` column and its epoll token).
    next_id: u64,
    /// Connections by id. `BTreeMap` — the serve crate bans hash
    /// collections (simlint R1) so iteration stays deterministic.
    conns: BTreeMap<u64, Slot>,
    stopping: bool,
}

/// Spawns the reactor thread and its worker pool over an already-bound
/// listener. Returns every thread handle (reactor first) for
/// [`crate::server::ServerHandle::join`] to reap.
pub fn spawn(
    listener: TcpListener,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
) -> io::Result<Vec<JoinHandle<()>>> {
    let epoll = Epoll::new()?;
    let wake = Arc::new(EventFd::new()?);
    set_nonblocking(listener.as_raw_fd())?;
    epoll.ctl(
        sys::EPOLL_CTL_ADD,
        listener.as_raw_fd(),
        sys::EPOLLIN,
        TOKEN_LISTENER,
    )?;
    epoll.ctl(sys::EPOLL_CTL_ADD, wake.0, sys::EPOLLIN, TOKEN_WAKE)?;

    let workers = service.config().effective_workers();
    let (job_tx, job_rx) = std::sync::mpsc::sync_channel::<Job>(workers.saturating_mul(2).max(1));
    let job_rx = Arc::new(Mutex::new(job_rx));
    let queue: Arc<Mutex<VecDeque<Completion>>> = Arc::new(Mutex::new(VecDeque::new()));

    let mut handles = Vec::with_capacity(workers + 1);
    let reactor = Reactor {
        epoll,
        listener,
        accepting: true,
        wake: Arc::clone(&wake),
        queue: Arc::clone(&queue),
        job_tx,
        service: Arc::clone(&service),
        stop,
        next_id: TOKEN_WAKE + 1,
        conns: BTreeMap::new(),
        stopping: false,
    };
    handles.push(std::thread::spawn(move || reactor_loop(reactor)));
    for _ in 0..workers {
        let job_rx = Arc::clone(&job_rx);
        let service = Arc::clone(&service);
        let queue = Arc::clone(&queue);
        let wake = Arc::clone(&wake);
        handles.push(std::thread::spawn(move || {
            worker_loop(&job_rx, &service, &queue, &wake)
        }));
    }
    Ok(handles)
}

fn reactor_loop(mut r: Reactor) {
    let mut events = [sys::EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
    let mut force_quit: Option<Instant> = None;
    loop {
        let n = r.epoll.wait(&mut events, TICK_MS);
        let now = Instant::now();

        if r.stop.load(Ordering::Acquire) && !r.stopping {
            r.begin_shutdown();
            force_quit = Some(now + FORCE_QUIT);
        }

        for ev in events.iter().take(n) {
            // Copy out of the (possibly packed) struct before use.
            let token = ev.data;
            let revents = ev.events;
            match token {
                TOKEN_LISTENER => r.accept_ready(now),
                TOKEN_WAKE => r.wake.drain(),
                id => r.conn_ready(id, revents, now),
            }
        }

        r.drain_completions();
        r.dispatch_all();
        if !r.stopping {
            r.scan_timeouts(now);
        }
        r.flush_and_reap(now);

        if r.stopping && (r.conns.is_empty() || force_quit.is_some_and(|d| now >= d)) {
            break;
        }
    }
    // Dropping the Reactor drops job_tx → the worker pool drains and
    // exits; remaining sockets close with their Slots.
}

impl Reactor {
    fn begin_shutdown(&mut self) {
        self.stopping = true;
        if self.accepting {
            let _ = self.epoll.ctl(
                sys::EPOLL_CTL_DEL,
                self.listener.as_raw_fd(),
                0,
                TOKEN_LISTENER,
            );
            self.accepting = false;
        }
        for slot in self.conns.values_mut() {
            if slot.state.is_idle() {
                // Idle keep-alive connections close promptly…
                slot.state.abort();
            } else {
                // …while in-flight and pipelined work drains first.
                slot.state.eof();
            }
        }
    }

    fn accept_ready(&mut self, now: Instant) {
        while self.accepting {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if self.stop.load(Ordering::Acquire) {
                        // The shutdown wake-up connection (or a client
                        // racing it): refuse politely by closing.
                        continue;
                    }
                    if set_nonblocking(stream.as_raw_fd()).is_err() {
                        continue;
                    }
                    // Responses are flushed as they complete; Nagle would
                    // hold small ones back against pipelined clients.
                    let _ = stream.set_nodelay(true);
                    let id = self.next_id;
                    self.next_id += 1;
                    let mask = sys::EPOLLIN | sys::EPOLLRDHUP;
                    if self
                        .epoll
                        .ctl(sys::EPOLL_CTL_ADD, stream.as_raw_fd(), mask, id)
                        .is_err()
                    {
                        continue;
                    }
                    let config = self.service.config();
                    let state = Connection::new(id, config.max_body, config.request_cap(), now);
                    self.conns.insert(
                        id,
                        Slot {
                            stream,
                            state,
                            mask,
                        },
                    );
                    if self.conns.len() >= config.max_conns {
                        // At the connection cap: stop accepting so the
                        // flood queues in the OS listen backlog instead
                        // of growing process state. Re-registered as
                        // connections close.
                        let _ = self.epoll.ctl(
                            sys::EPOLL_CTL_DEL,
                            self.listener.as_raw_fd(),
                            0,
                            TOKEN_LISTENER,
                        );
                        self.accepting = false;
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // A failed accept (peer reset mid-handshake) is the
                // peer's problem, not a reason to stop serving.
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, id: u64, revents: u32, now: Instant) {
        let Some(slot) = self.conns.get_mut(&id) else {
            return;
        };
        if revents & sys::EPOLLERR != 0 {
            slot.state.abort();
            return;
        }
        if revents & (sys::EPOLLIN | sys::EPOLLRDHUP | sys::EPOLLHUP) != 0 {
            read_ready(slot, &self.service, now);
        }
        if revents & sys::EPOLLOUT != 0 {
            write_ready(slot, now);
        }
    }

    fn drain_completions(&mut self) {
        loop {
            let next = self
                .queue
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .pop_front();
            let Some(completion) = next else { break };
            // A completion for a connection that died mid-request is
            // simply dropped — the work was already logged.
            if let Some(slot) = self.conns.get_mut(&completion.conn) {
                slot.state.on_part(completion.part);
            }
        }
    }

    /// Offers every dispatchable request first to the service's
    /// no-scenario fast path (health checks, the policy listing and
    /// routing errors, served inline right on this thread), then to the
    /// worker pool. `try_send` keeps the reactor thread
    /// non-blocking: when the pool is saturated the request stays
    /// pending on its connection and is re-offered on the next tick (a
    /// completion implies a freed worker).
    fn dispatch_all(&mut self) {
        for (&id, slot) in self.conns.iter_mut() {
            while let Some(request) = slot.state.take_dispatch() {
                let mut fast = ConnSink(&mut slot.state);
                if self.service.handle_fast(Some(id), &request, &mut fast) {
                    continue; // served inline; the next pipelined
                              // request (if any) is now dispatchable
                }
                match self.job_tx.try_send(Job { conn: id, request }) {
                    Ok(()) => {}
                    Err(TrySendError::Full(job)) => slot.state.undo_dispatch(job.request),
                    Err(TrySendError::Disconnected(_)) => slot.state.abort(),
                }
                break; // one in-flight per connection
            }
        }
    }

    fn scan_timeouts(&mut self, now: Instant) {
        let idle = self.service.config().idle_timeout();
        let header = self.service.config().header_timeout();
        for (&id, slot) in self.conns.iter_mut() {
            match slot.state.timed_out(now, idle, header) {
                None => {}
                Some(TimeoutKind::Idle) => slot.state.abort(),
                Some(TimeoutKind::MidRequest) => {
                    let e = HttpError::Timeout;
                    let response =
                        self.service
                            .handle_unparsable(Some(id), e.status(), &e.to_string());
                    slot.state.frame_error(response);
                }
            }
        }
    }

    /// Flushes pending output opportunistically, reconciles each
    /// connection's epoll interest mask, and reaps finished connections.
    fn flush_and_reap(&mut self, now: Instant) {
        let mut done: Vec<u64> = Vec::new();
        for (&id, slot) in self.conns.iter_mut() {
            if slot.state.wants_write() {
                write_ready(slot, now);
            }
            if slot.state.finished() {
                done.push(id);
                continue;
            }
            let mut mask = 0;
            if slot.state.wants_read() {
                mask |= sys::EPOLLIN | sys::EPOLLRDHUP;
            }
            if slot.state.wants_write() {
                mask |= sys::EPOLLOUT;
            }
            if mask != slot.mask
                && self
                    .epoll
                    .ctl(sys::EPOLL_CTL_MOD, slot.stream.as_raw_fd(), mask, id)
                    .is_ok()
            {
                slot.mask = mask;
            }
        }
        for id in done {
            if let Some(slot) = self.conns.remove(&id) {
                let _ = self
                    .epoll
                    .ctl(sys::EPOLL_CTL_DEL, slot.stream.as_raw_fd(), 0, id);
                // Dropping the Slot closes the socket.
            }
        }
        if !self.accepting
            && !self.stopping
            && self.conns.len() < self.service.config().max_conns
            && self
                .epoll
                .ctl(
                    sys::EPOLL_CTL_ADD,
                    self.listener.as_raw_fd(),
                    sys::EPOLLIN,
                    TOKEN_LISTENER,
                )
                .is_ok()
        {
            self.accepting = true;
        }
    }
}

/// Drains a readable socket into the connection's parser.
fn read_ready(slot: &mut Slot, service: &Service, now: Instant) {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match (&slot.stream).read(&mut buf) {
            Ok(0) => {
                slot.state.eof();
                break;
            }
            Ok(n) => {
                if let Err(e) = slot.state.on_bytes(&buf[..n], now) {
                    let response = service.handle_unparsable(
                        Some(slot.state.id()),
                        e.status(),
                        &e.to_string(),
                    );
                    slot.state.poison(response);
                    break;
                }
                if !slot.state.wants_read() {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                slot.state.abort();
                break;
            }
        }
    }
}

/// Writes as much buffered output as the socket accepts.
fn write_ready(slot: &mut Slot, now: Instant) {
    while slot.state.wants_write() {
        match (&slot.stream).write(slot.state.writable()) {
            Ok(0) => {
                slot.state.abort();
                break;
            }
            Ok(n) => slot.state.advance_write(n, now),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                slot.state.abort();
                break;
            }
        }
    }
}
