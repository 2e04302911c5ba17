//! Client-side report fan-out over the rendezvous placement.
//!
//! [`ReportRouter`] is the write-path twin of [`crate::RemoteShard`]:
//! where the read side scatters *queries* to the shards that hold
//! their releases, this scatters *LDP report batches* to the shards
//! that will eventually **serve** the epochs they feed. Placement is
//! the same `dpgrid_core::rendezvous_route` over shard names, applied
//! to the epoch key the collector's seal will publish under
//! (`{keyspace}@epoch:{epoch}`, via `dpgrid_core::epoch_key`) — so a
//! deployment whose publishing side uses a `dpgrid_core::ShardedSink`
//! with the same names aggregates every epoch's reports on exactly the
//! node its sealed release will live on. No cross-shard merge step
//! exists or is needed; the names are the whole contract.
//!
//! Per-shard sub-batches travel as pipelined binary `Report` frames on
//! one pooled connection ([`crate::TcpClient::submit_reports`]), and —
//! because report submission mutates collector state — are **never
//! resent** on a stale connection: a shard whose connection dies
//! mid-submit fails exactly its own slice of the batch with
//! [`ServeError::Unavailable`], and the caller decides whether
//! re-submitting could double-count.

use std::net::ToSocketAddrs;

use dpgrid_core::{epoch_key, rendezvous_route, EpochRange};
use dpgrid_serve::{ReportAck, ReportBatch, ServeError};

use crate::error::{wire_to_serve, Result};
use crate::pool::TcpClientPool;

/// Fans report batches out to the shard that owns each batch's epoch
/// key under rendezvous placement — see the module docs above.
#[derive(Debug)]
pub struct ReportRouter {
    shards: Vec<(String, TcpClientPool)>,
}

impl ReportRouter {
    /// A router over `shards` (name, pool) pairs. The names must match
    /// the serving tier's shard names — they are what placement hashes.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is empty, for the same reason
    /// `dpgrid_core::ShardedSink::new` does: a zero-shard router could
    /// only drop reports on the floor.
    pub fn new(shards: Vec<(String, TcpClientPool)>) -> Self {
        assert!(
            !shards.is_empty(),
            "ReportRouter requires at least one shard; submitting into a zero-shard router \
             would silently discard reports"
        );
        ReportRouter { shards }
    }

    /// Dials every `(name, addr)` pair (verifying reachability) and
    /// wraps the pools as a router. Fails on the first unreachable
    /// shard — a router that silently starts without one of its shards
    /// would misplace every key that shard owns.
    pub fn connect<A: ToSocketAddrs>(
        shards: impl IntoIterator<Item = (String, A)>,
    ) -> Result<Self> {
        let mut pools = Vec::new();
        for (name, addr) in shards {
            pools.push((name, TcpClientPool::connect(addr)?));
        }
        Ok(ReportRouter::new(pools))
    }

    /// The shard names, in construction order.
    pub fn shard_names(&self) -> Vec<&str> {
        self.shards.iter().map(|(name, _)| name.as_str()).collect()
    }

    /// The release key `(keyspace, epoch)`'s sealed release will
    /// publish under — the string placement hashes on both the
    /// publishing and the ingestion side. `None` for epoch `u64::MAX`,
    /// which has no epoch key.
    pub fn placement_key(keyspace: &str, epoch: u64) -> Option<String> {
        let range = EpochRange::new(epoch, epoch.checked_add(1)?)?;
        Some(epoch_key(keyspace, range))
    }

    /// Name of the shard that owns `(keyspace, epoch)` — always agrees
    /// with a `dpgrid_core::ShardedSink` over the same names. `None`
    /// where [`ReportRouter::placement_key`] is.
    pub fn route(&self, keyspace: &str, epoch: u64) -> Option<&str> {
        let key = Self::placement_key(keyspace, epoch)?;
        let i = rendezvous_route(&self.shard_names(), &key).expect("router has at least one shard");
        Some(self.shards[i].0.as_str())
    }

    /// Scatters `batches` to their owning shards and gathers the acks
    /// back **in input order**. Each shard's sub-batch travels as one
    /// pipelined burst; within it, typed collector rejections (sealed
    /// epoch, ε mismatch, a read-only peer's `MalformedRequest`) fail
    /// only their own slot, mapped onto the same [`ServeError`]s an
    /// in-process collector raises. A batch at epoch `u64::MAX` has no
    /// placement key and fails its slot with
    /// [`ServeError::InvalidQuery`] without being sent. A shard that
    /// cannot be reached —
    /// or whose connection dies mid-submit (never retried; see the
    /// module docs) — fails exactly the batches routed to it
    /// with [`ServeError::Unavailable`]; the other shards' slices are
    /// unaffected.
    pub fn submit_reports(
        &self,
        batches: &[ReportBatch],
    ) -> Vec<std::result::Result<ReportAck, ServeError>> {
        let names = self.shard_names();
        let mut per_shard: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut out: Vec<Option<std::result::Result<ReportAck, ServeError>>> =
            (0..batches.len()).map(|_| None).collect();
        for (i, batch) in batches.iter().enumerate() {
            let Some(key) = Self::placement_key(&batch.keyspace, batch.epoch) else {
                out[i] = Some(Err(ServeError::InvalidQuery(format!(
                    "epoch {} has no epoch key to place the batch under",
                    batch.epoch
                ))));
                continue;
            };
            let s = rendezvous_route(&names, &key).expect("router has at least one shard");
            per_shard[s].push(i);
        }

        for (s, indices) in per_shard.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let (name, pool) = &self.shards[s];
            let sub: Vec<&ReportBatch> = indices.iter().map(|&i| &batches[i]).collect();
            match pool.with_client(|client| client.submit_reports(&sub)) {
                Ok(outcomes) => {
                    for (&i, outcome) in indices.iter().zip(outcomes) {
                        out[i] =
                            Some(outcome.map_err(|e| wire_to_serve(e, name, &batches[i].keyspace)));
                    }
                }
                Err(e) => {
                    let reason = e.to_string();
                    for &i in indices {
                        out[i] = Some(Err(ServeError::Unavailable {
                            shard: name.clone(),
                            reason: reason.clone(),
                        }));
                    }
                }
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every batch was failed or routed to exactly one shard"))
            .collect()
    }
}
