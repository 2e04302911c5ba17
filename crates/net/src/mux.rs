//! The readiness-multiplexed server — the *run loop* third of the
//! poller / run-loop / dispatch seam.
//!
//! A [`TcpServer`] runs a small pool of worker threads. Each worker
//! owns its own [`crate::poll::Poller`] and its own set of
//! connections — shared-nothing, so there is no cross-worker locking
//! on the hot path. Worker 0 additionally owns the (nonblocking)
//! listener and distributes accepted sockets round-robin: a handoff
//! pushes the socket onto the target worker's injection queue and
//! writes one byte down its wake pipe, which the target's poller
//! observes like any other readiness.
//!
//! The run loop is deliberately ignorant of wire formats: it asks the
//! poller *what* is ready and asks each connection's state machine
//! (the private `conn` module's `MuxConn`) to *make progress*, then
//! re-arms interest with whatever the connection wants next. Protocol
//! work happens entirely inside the state machine (which itself
//! delegates to `dpgrid_serve::wire`) — so a future async-runtime
//! backend replaces this file, not the connection or protocol logic.
//!
//! Shutdown: a flag plus one wake byte per worker. Workers finish the
//! pass in flight (a dispatched frame always gets its response
//! attempt), then drop their connections — peers observe the close.
//! The bounded poll timeout is only a backstop against a lost wake.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use dpgrid_serve::{QueryService, TransportStats};

use crate::conn::{ConnState, MuxConn};
use crate::counters::{Instrumented, TransportCounters};
use crate::error::Result;
use crate::poll::{default_poller, Interest, PollEvent, Poller};

/// Poll-wait backstop: how long a lost wake can delay shutdown.
const WAIT_BACKSTOP: Duration = Duration::from_millis(100);

/// Token of a worker's wake pipe.
const WAKE_TOKEN: usize = 0;
/// Token of the listener (worker 0 only).
const LISTENER_TOKEN: usize = 1;
/// First connection token; connection `i` lives at `CONN_BASE + i`.
const CONN_BASE: usize = 2;

/// What worker 0 shares with every worker to hand off connections.
struct WorkerShared {
    /// Accepted sockets waiting to be adopted by this worker.
    injected: Mutex<Vec<TcpStream>>,
    /// Write end of the worker's wake pipe.
    wake_tx: UnixStream,
}

/// A running TCP query server.
///
/// Dropping the handle shuts the server down gracefully: the listener
/// stops accepting, every frame already dispatched gets its response
/// attempt, connections close, and every worker thread is joined. Use
/// [`TcpServer::shutdown`] to do the same explicitly.
#[derive(Debug)]
pub struct TcpServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    workers: Vec<JoinHandle<()>>,
    wakes: Vec<UnixStream>,
    counters: Arc<TransportCounters>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 for an ephemeral port — the bound
    /// address is [`TcpServer::local_addr`]) and serves `service` over
    /// a default-sized worker pool (available parallelism, capped at 8).
    pub fn bind<S>(service: Arc<S>, addr: impl ToSocketAddrs) -> Result<TcpServer>
    where
        S: QueryService + 'static,
    {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 8);
        TcpServer::bind_with_workers(service, addr, workers)
    }

    /// Binds `addr` and serves `service` over exactly `workers` event
    /// loops (at least one).
    pub fn bind_with_workers<S>(
        service: Arc<S>,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> Result<TcpServer>
    where
        S: QueryService + 'static,
    {
        let worker_count = workers.max(1);
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(TransportCounters::default());
        let service = Arc::new(Instrumented::new(service, Arc::clone(&counters)));

        let mut shared = Vec::with_capacity(worker_count);
        let mut wake_rxs = Vec::with_capacity(worker_count);
        let mut wakes = Vec::with_capacity(worker_count);
        for _ in 0..worker_count {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            wakes.push(tx.try_clone()?);
            shared.push(Arc::new(WorkerShared {
                injected: Mutex::new(Vec::new()),
                wake_tx: tx,
            }));
            wake_rxs.push(rx);
        }
        let shared: Arc<[Arc<WorkerShared>]> = shared.into();

        let mut handles = Vec::with_capacity(worker_count);
        for (me, wake_rx) in wake_rxs.into_iter().enumerate() {
            let mut worker = Worker {
                poller: default_poller()?,
                wake_rx,
                listener: if me == 0 {
                    Some(listener.try_clone()?)
                } else {
                    None
                },
                conns: Vec::new(),
                free: Vec::new(),
                me,
                next_rr: 0,
                shared: Arc::clone(&shared),
                service: Arc::clone(&service),
                shutdown: Arc::clone(&shutdown),
                counters: Arc::clone(&counters),
            };
            handles.push(std::thread::spawn(move || worker.run()));
        }
        drop(listener);

        Ok(TcpServer {
            addr,
            shutdown,
            workers: handles,
            wakes,
            counters,
        })
    }

    /// The address the server actually listens on (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Response frames served since start (all connections).
    pub fn frames_served(&self) -> u64 {
        self.counters.responses.load(Ordering::Relaxed)
    }

    /// A snapshot of this server's socket-level counters — the same
    /// numbers the wire `Stats` response reports in
    /// [`dpgrid_serve::EngineStats::transport`].
    pub fn transport_stats(&self) -> TransportStats {
        self.counters.snapshot()
    }

    /// Stops accepting, closes every connection, joins the workers.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        if self.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        for wake in &self.wakes {
            let _ = wake.write_one();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// One-byte nonblocking wake write; a full pipe already wakes.
trait WakeWrite {
    fn write_one(&self) -> io::Result<()>;
}

impl WakeWrite for UnixStream {
    fn write_one(&self) -> io::Result<()> {
        use io::Write;
        let mut s: &UnixStream = self;
        match s.write(&[1]) {
            Ok(_) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// One event-loop worker: poller, wake pipe, connection slab, and —
/// on worker 0 — the listener.
struct Worker<S: QueryService + 'static> {
    poller: Box<dyn Poller>,
    wake_rx: UnixStream,
    listener: Option<TcpListener>,
    /// Connection slab: token `CONN_BASE + i` maps to `conns[i]`.
    conns: Vec<Option<MuxConn>>,
    /// Free slab slots.
    free: Vec<usize>,
    me: usize,
    /// Round-robin cursor for connection handoff (worker 0 only).
    next_rr: usize,
    shared: Arc<[Arc<WorkerShared>]>,
    service: Arc<Instrumented<S>>,
    shutdown: Arc<AtomicBool>,
    counters: Arc<TransportCounters>,
}

impl<S: QueryService + 'static> Worker<S> {
    fn run(&mut self) {
        let _ = self
            .poller
            .register(self.wake_rx.as_raw_fd(), WAKE_TOKEN, Interest::READ);
        if let Some(listener) = &self.listener {
            let _ = self
                .poller
                .register(listener.as_raw_fd(), LISTENER_TOKEN, Interest::READ);
        }
        let mut events: Vec<PollEvent> = Vec::new();
        while !self.shutdown.load(Ordering::Acquire) {
            events.clear();
            if self.poller.wait(&mut events, Some(WAIT_BACKSTOP)).is_err() {
                // A broken poller cannot serve; bail rather than spin.
                break;
            }
            if self.shutdown.load(Ordering::Acquire) {
                break;
            }
            self.adopt_injected();
            for event in &events {
                match event.token {
                    WAKE_TOKEN => self.drain_wake(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => self.conn_ready(token - CONN_BASE),
                }
            }
        }
        // Dropping the slab closes every socket (peers observe EOF or
        // a reset); dropping the listener frees the port.
        for slot in self.conns.drain(..) {
            if slot.is_some() {
                self.counters.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Adopts handed-off connections into this worker's slab.
    fn adopt_injected(&mut self) {
        let injected = {
            let mut queue = self.shared[self.me]
                .injected
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *queue)
        };
        for stream in injected {
            self.add_conn(stream);
        }
    }

    fn drain_wake(&mut self) {
        use io::Read;
        let mut sink = [0u8; 64];
        while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n > 0) {}
    }

    /// Accepts until the listener would block, distributing sockets
    /// round-robin over the pool.
    fn accept_ready(&mut self) {
        loop {
            let listener = self.listener.as_ref().expect("only the owner gets events");
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    self.counters.active.fetch_add(1, Ordering::Relaxed);
                    let target = self.next_rr % self.shared.len();
                    self.next_rr = self.next_rr.wrapping_add(1);
                    if target == self.me {
                        self.add_conn(stream);
                    } else {
                        self.shared[target]
                            .injected
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .push(stream);
                        let _ = self.shared[target].wake_tx.write_one();
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    // Transient accept failure (EMFILE under a flood,
                    // ECONNABORTED): back off briefly instead of
                    // busy-spinning a level-triggered listener.
                    std::thread::sleep(Duration::from_millis(20));
                    return;
                }
            }
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        let conn = MuxConn::new(stream);
        let idx = match self.free.pop() {
            Some(idx) => {
                self.conns[idx] = Some(conn);
                idx
            }
            None => {
                self.conns.push(Some(conn));
                self.conns.len() - 1
            }
        };
        let conn = self.conns[idx].as_ref().expect("just stored");
        if self
            .poller
            .register(conn.stream().as_raw_fd(), CONN_BASE + idx, conn.interest())
            .is_err()
        {
            self.conns[idx] = None;
            self.free.push(idx);
            self.counters.active.fetch_sub(1, Ordering::Relaxed);
        }
        // Level-triggered pollers re-report anything already pending,
        // so a socket that arrived with bytes in flight wakes us on
        // the next wait — no eager pump needed.
    }

    /// Lets one connection make progress, then re-arms (or reaps) it.
    fn conn_ready(&mut self, idx: usize) {
        let Some(conn) = self.conns.get_mut(idx).and_then(Option::as_mut) else {
            return; // already reaped this pass
        };
        let before = conn.interest();
        match conn.on_ready(&*self.service, &self.counters) {
            ConnState::Closed => {
                let conn = self.conns[idx].take().expect("checked above");
                let _ = self.poller.deregister(conn.stream().as_raw_fd());
                self.free.push(idx);
                self.counters.active.fetch_sub(1, Ordering::Relaxed);
                // Dropping `conn` closes the socket.
            }
            ConnState::Open(interest) => {
                if interest != before {
                    let fd = conn.stream().as_raw_fd();
                    let _ = self.poller.reregister(fd, CONN_BASE + idx, interest);
                }
            }
        }
    }
}
