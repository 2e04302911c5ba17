//! A shard on the far side of a TCP connection.
//!
//! [`RemoteShard`] implements [`dpgrid_serve::QueryService`] and
//! [`dpgrid_serve::shard::Shard`] over a [`TcpClientPool`], so a
//! [`dpgrid_serve::ShardRouter`] mixes in-process engines and engines
//! on other hosts transparently: the router scatter–gathers, each
//! remote sub-batch travels as pipelined binary frames on one pooled
//! connection, and the answers come back as the same typed results an
//! in-process shard produces.
//!
//! # Error mapping
//!
//! Per-query wire errors map back onto the typed [`ServeError`]s the
//! engine itself raises, so callers match one enum whether the shard
//! was local or remote — a remote `Overloaded` even keeps the
//! server's in-flight/limit counters (they travel structured in the
//! wire error's `overload` field). One honest loss of fidelity:
//! unexpected codes (`Internal`, `MalformedRequest`, …) collapse into
//! [`ServeError::Unavailable`]. A *transport* failure — the host is
//! unreachable, the pool's dial failed, the peer broke off a train or
//! answered bytes that are not binary frames — fails the whole
//! sub-batch with
//! [`ServeError::Unavailable`], which the router isolates to exactly
//! the requests routed here.

use std::net::{SocketAddr, ToSocketAddrs};

use dpgrid_serve::shard::Shard;
use dpgrid_serve::{
    EngineStats, QueryRequest, QueryResponse, QueryService, ServeError, WindowAnswer, WindowQuery,
};

use crate::error::{wire_to_serve, NetError, Result};
use crate::pool::TcpClientPool;

/// A [`Shard`] served by a remote `TcpServer`, reached through a
/// reconnecting connection pool.
#[derive(Debug)]
pub struct RemoteShard {
    pool: TcpClientPool,
    /// How the shard names itself in errors: the dialed address.
    label: String,
}

impl RemoteShard {
    /// Dials `addr` (verifying reachability with a ping) and wraps it
    /// as a routable shard.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        Ok(RemoteShard::with_pool(TcpClientPool::connect(addr)?))
    }

    /// Wraps an existing pool (e.g. one with a custom idle cap).
    pub fn with_pool(pool: TcpClientPool) -> Self {
        let label = pool.addr().to_string();
        RemoteShard { pool, label }
    }

    /// The remote address this shard dials.
    pub fn addr(&self) -> SocketAddr {
        self.pool.addr()
    }

    /// The connection pool (for idle-cap tuning or diagnostics).
    pub fn pool(&self) -> &TcpClientPool {
        &self.pool
    }

    /// The whole-sub-batch failure for an unreachable host.
    fn unavailable(&self, reason: &impl std::fmt::Display) -> ServeError {
        ServeError::Unavailable {
            shard: self.label.clone(),
            reason: reason.to_string(),
        }
    }
}

impl QueryService for RemoteShard {
    /// One pipelined round trip on a pooled connection: every request
    /// travels as its own id-correlated binary frame, written in one
    /// burst so the socket stays busy while the server answers.
    /// Transport failure fails every request in the
    /// sub-batch with [`ServeError::Unavailable`]; per-query failures
    /// come back typed, exactly as a local shard isolates them.
    fn answer_batch(&self, requests: &[QueryRequest]) -> Vec<dpgrid_serve::Result<QueryResponse>> {
        if requests.is_empty() {
            return Vec::new();
        }
        match self
            .pool
            .with_client(|client| client.query_pipelined(requests))
        {
            Ok(outcomes) => outcomes
                .into_iter()
                .zip(requests)
                .map(|(outcome, request)| {
                    outcome.map_err(|e| wire_to_serve(e, &self.label, &request.release_key))
                })
                .collect(),
            Err(e) => {
                let reason = e.to_string();
                requests
                    .iter()
                    .map(|_| {
                        Err(ServeError::Unavailable {
                            shard: self.label.clone(),
                            reason: reason.clone(),
                        })
                    })
                    .collect()
            }
        }
    }

    /// The remote engine's counters; an unreachable host reports
    /// zeroes (the router's own per-shard `routed`/`failed` counters
    /// stay exact regardless).
    fn stats(&self) -> EngineStats {
        self.pool
            .with_client(|client| client.stats())
            .unwrap_or_else(|_| EngineStats::zeroed())
    }

    /// The remote's advertised keys; empty when unreachable.
    fn keys(&self) -> Vec<String> {
        self.pool
            .with_client(|client| client.keys())
            .unwrap_or_default()
    }

    /// One native `Window` frame — the server resolves the covering
    /// epochs and sums them in a single round trip, instead of the
    /// default resolution (a `Keys` round trip followed by a batch),
    /// which pays per-epoch work across the wire.
    fn window(&self, query: &WindowQuery) -> dpgrid_serve::Result<WindowAnswer> {
        let sent = self.pool.with_client(|client| {
            client.window(
                &query.keyspace,
                query.range.start,
                query.range.end,
                &query.rects,
            )
        });
        match sent {
            Ok(answer) => Ok(answer),
            Err(NetError::Server(e)) => {
                // Attribute UnknownKey to the window's own epoch key
                // (the same label the in-process resolver uses for an
                // uncovered range).
                let key = dpgrid_core::epoch_key(&query.keyspace, query.range);
                Err(wire_to_serve(e, &self.label, &key))
            }
            Err(e) => Err(self.unavailable(&e)),
        }
    }
}

impl Shard for RemoteShard {}
