//! A small reconnecting pool of [`TcpClient`] connections to one
//! server.
//!
//! [`TcpClient`] is deliberately not `Sync` (one in-flight train per
//! connection), but a sharded router fans sub-batches out from many
//! threads at once. [`TcpClientPool`] bridges the two: callers borrow
//! a connection for one call ([`TcpClientPool::with_client`]), idle
//! connections are parked for reuse up to a cap, and a connection
//! that surfaces a transport error is simply dropped — the next
//! checkout dials a fresh one, on top of each client's own one-shot
//! reconnect. No health-check thread and no per-connection protocol
//! state: the pool's only invariant is "parked connections answered
//! their last call".

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

use crate::client::{TcpClient, DEFAULT_IO_TIMEOUT};
use crate::error::Result;

/// Default cap on parked idle connections per pool.
pub const DEFAULT_MAX_IDLE: usize = 4;

/// A checkout/checkin pool of blocking connections to one address.
#[derive(Debug)]
pub struct TcpClientPool {
    addr: SocketAddr,
    idle: Mutex<Vec<TcpClient>>,
    max_idle: usize,
    io_timeout: Option<Duration>,
}

impl TcpClientPool {
    /// Creates a pool dialing `addr`, verifying reachability with one
    /// pinged connection (parked for reuse). When `addr` resolves to
    /// several addresses the first that connects wins. Every pooled
    /// connection is a [`TcpClient`] speaking binary frames.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let mut client = TcpClient::connect(addr)?;
        client.ping()?;
        let pool = TcpClientPool {
            addr: client.peer_addr(),
            idle: Mutex::new(Vec::new()),
            max_idle: DEFAULT_MAX_IDLE,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
        };
        pool.check_in(client);
        Ok(pool)
    }

    /// Caps the number of parked idle connections (≥ 1). Excess
    /// connections returned at checkin are closed instead of parked;
    /// checkout never blocks on the cap — it dials a new connection
    /// whenever the pool is empty.
    #[must_use]
    pub fn with_max_idle(mut self, max_idle: usize) -> Self {
        self.max_idle = max_idle.max(1);
        self
    }

    /// Bounds each pooled connection's blocking reads/writes (`None`
    /// waits forever) — the pool-level handle on
    /// [`TcpClient::with_io_timeout`], reachable from `RemoteShard`
    /// via `RemoteShard::with_pool`. Raise it when a backend's slowest
    /// legitimate response (a cold compile of a huge surface behind a
    /// big scattered batch) exceeds the 30 s default. Parked
    /// connections are dropped so every future checkout carries the
    /// new bound.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.io_timeout = timeout;
        self.lock().clear();
        self
    }

    /// The concrete address this pool dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of connections currently parked.
    pub fn idle_connections(&self) -> usize {
        self.lock().len()
    }

    /// Runs `f` with a pooled connection: checks one out (dialing if
    /// none is parked), and returns it to the pool only while it still
    /// holds its connection. A [`TcpClient`] drops its connection on
    /// every transport or framing error and keeps it through typed
    /// server errors and frames refused before sending, so the pool
    /// never parks a stream in an unknown state.
    pub fn with_client<T>(&self, f: impl FnOnce(&mut TcpClient) -> Result<T>) -> Result<T> {
        let mut client = match self.lock().pop() {
            Some(client) => client,
            None => TcpClient::connect(self.addr)?.with_io_timeout(self.io_timeout)?,
        };
        let result = f(&mut client);
        if client.is_connected() {
            self.check_in(client);
        }
        result
    }

    fn check_in(&self, client: TcpClient) {
        let mut idle = self.lock();
        if idle.len() < self.max_idle {
            idle.push(client);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<TcpClient>> {
        self.idle
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}
