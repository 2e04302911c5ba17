//! TCP transport for the dpgrid serving API.
//!
//! This crate is the network layer over
//! [`dpgrid_serve::QueryService`]: a std-only TCP server
//! ([`TcpServer`] — a small pool of readiness-multiplexed event loops
//! with graceful shutdown), a blocking client ([`TcpClient`], which
//! sends every call as one pipelined train of binary frames and
//! redials once), a reconnecting
//! connection pool ([`TcpClientPool`]), the remote leg of the sharded
//! serving tier ([`RemoteShard`]) and the write-path fan-out for LDP
//! report ingestion ([`ReportRouter`]) — all speaking the versioned
//! wire protocol defined in [`dpgrid_serve::wire`]. The server speaks
//! both of its codecs; the client side speaks binary v2 only, reached
//! by one JSON `Hello` per connection. It deliberately uses no async
//! runtime and no external networking dependencies — everything is
//! `std::net` + `std::thread` plus a thin readiness shim over the
//! platform's `epoll`/`poll(2)`, consistent with the workspace's
//! vendored-stubs constraint, and the protocol layer is shared so an
//! async transport can later reuse it unchanged.
//!
//! # Transport architecture
//!
//! The server side is split along three seams, each swappable without
//! touching the others:
//!
//! * **Poller** ([`poll`] module): "which registered file descriptors
//!   are ready for what" and nothing else. A small trait (`register` /
//!   `reregister` / `deregister` / `wait`) with two implementations —
//!   `epoll(7)` on Linux, portable `poll(2)` elsewhere — selected at
//!   runtime, level-triggered in both cases. The poller knows nothing
//!   about connections, protocols, or threads.
//! * **Run loop** (the private `mux` module, home of [`TcpServer`]):
//!   ownership and scheduling. A small shared-nothing worker pool —
//!   each worker owns one poller, one slab of connections, and one
//!   wake pipe; worker 0 also owns the
//!   (nonblocking) listener and hands accepted sockets round-robin to
//!   its peers through an injection queue plus a wake byte. No
//!   connection is ever touched by two threads, so connection state
//!   needs no locks. The run loop knows nothing about frame formats.
//! * **Dispatch** (the private `conn` module): one nonblocking state
//!   machine per connection — handshake (JSON until a `Hello` negotiates v2),
//!   partial-frame reassembly for both codecs, the frame caps,
//!   protocol dispatch through the `dpgrid_serve::wire` entry points,
//!   and a write queue drained with vectored writes.
//!
//! A future async-runtime backend is a third implementation of the
//! middle seam: it would replace the worker pool and poller with an
//! executor and reuse the per-connection state machines and the
//! protocol layer unchanged.
//!
//! **Backpressure** is two-layered. The engine's admission control is
//! global: an overloaded engine sheds work with typed `Overloaded`
//! frames regardless of transport. The server adds a per-connection
//! layer: each connection's outbound queue has a 1 MiB
//! soft high-water mark, and a connection whose client stops reading
//! its responses is *paused* — its buffered input stops being
//! dispatched and its read interest is dropped, so the kernel receive
//! window fills and the sender stalls at its own socket. Writing
//! resumes as the queue drains below the low-water mark. A paused or
//! slow connection therefore costs one bounded buffer, never unbounded
//! server memory, and never blocks a worker thread (stalls are visible
//! as `read_stalls`/`write_stalls` in [`dpgrid_serve::TransportStats`],
//! which every `Stats` response carries).
//!
//! An idle connection costs one poller registration and no thread, so
//! one server holds thousands of mostly-idle connections at ~zero
//! per-tick cost; [`TcpServer::bind_with_workers`] pins the pool size.
//!
//! # Deployment topologies
//!
//! Every box below is the same binary; what changes is which
//! [`dpgrid_serve::QueryService`] the [`TcpServer`] is bound to.
//!
//! * **Single node** — one [`dpgrid_serve::QueryEngine`] behind one
//!   [`TcpServer`]. Clients connect directly; scaling is vertical
//!   (cores, catalog memory budget). This is `examples/net_roundtrip`.
//! * **Front-door router** — one node binds its `TcpServer` to a
//!   [`dpgrid_serve::ShardRouter`] whose shards are [`RemoteShard`]s
//!   dialing N backend nodes (each a plain single node). Clients speak
//!   to the front door exactly as to a single node — the router *is* a
//!   `QueryService` — while mixed-key batches scatter over the
//!   backends and reassemble in order. Placement is deterministic
//!   rendezvous hashing over shard names
//!   (`dpgrid_core::rendezvous_route`), the same function the
//!   publishing side uses via `dpgrid_core::ShardedSink`, so a
//!   release published to "shard-b" is always routed to "shard-b".
//! * **Mixed local/remote** — the router holds some shards in-process
//!   ([`dpgrid_serve::LocalShard`]) and some remote. This is the
//!   migration path: start with every shard local on one host, then
//!   move hot shards to their own hosts by swapping `LocalShard` for
//!   [`RemoteShard`] under the *same name* — no key moves, because
//!   placement follows names, not transports. This is
//!   `examples/sharded_serving`.
//! * **LDP ingestion front door** — a backend node binds its server to
//!   a `dpgrid_ldp::CollectingService` wrapping its engine, so the
//!   same connections that answer queries absorb `Report` frames into
//!   a per-epoch collector; sealed epochs publish straight into the
//!   engine it wraps. With several such backends, a [`ReportRouter`]
//!   on the client side scatters each batch to the shard that owns its
//!   epoch key under the *same* rendezvous placement the read side
//!   uses — reports for an epoch aggregate on the node that will serve
//!   its sealed release, with no cross-shard merge. This is
//!   `examples/ldp_ingestion`.
//!
//! Failure semantics across all three: a dead backend fails only the
//! requests routed to it (typed `Internal`/`Unavailable`), an
//! overloaded backend sheds its sub-batch with `Overloaded`, and
//! clients/pools redial stale connections once before surfacing
//! errors.
//!
//! # Frame formats
//!
//! Two codecs share one request/response vocabulary (the types in
//! [`dpgrid_serve::wire`]); which one a connection speaks is decided
//! once, at connect time (see *Versioning and the handshake* below).
//!
//! ## JSON v1 (the bootstrap codec)
//!
//! One frame per line, newline-delimited (`\n`; a trailing `\r` is
//! tolerated). Each line is a single JSON object:
//!
//! * request: `{"protocol_version": 1, "id": 7, "body": …}` — see
//!   [`dpgrid_serve::wire::WireRequest`]. `id` is a client-chosen
//!   correlation id echoed in the response (keep it within the JSON
//!   safe-integer range `0 ..= 2⁵³` — JSON numbers are doubles, so
//!   larger ids round in transit); `body` is externally
//!   tagged, one of
//!   `{"Query": {"release_key": "…", "rects": [{"x0":…,"y0":…,"x1":…,"y1":…}, …]}}`,
//!   `{"Batch": [query, …]}`, `"Stats"`, `"Keys"`, `"Ping"`,
//!   `{"Hello": {"max_version": …}}` (negotiation, below),
//!   `{"Window": {"keyspace": "…", "epoch_start": …, "epoch_end": …,
//!   "rects": […]}}` (sliding-window sum over epoch releases, below)
//!   or `{"Report": {"keyspace": "…", "epoch": …, "epsilon": …,
//!   "cells": …, "oracle": "grr"|"oue", …}}` (an LDP report batch for
//!   the write path, below; OUE bit words travel as one lowercase hex
//!   string — JSON numbers are only exact to 2^53, the words use all
//!   64 bits).
//! * response: `{"protocol_version": 1, "id": 7, "body": …}` — see
//!   [`dpgrid_serve::wire::WireResponse`]; `body` is one of
//!   `{"Answers": …}`, `{"Batch": […]}`, `{"Stats": …}`,
//!   `{"Keys": […]}`, `"Pong"`, `{"Hello": {"version": …}}`,
//!   `{"Window": {"keyspace": "…", "covered": [{"start": …, "end": …},
//!   …], "answers": […]}}`,
//!   `{"Report": {"keyspace": "…", "epoch": …, "accepted": …,
//!   "epoch_total": …}}` or
//!   `{"Error": {"code": "…", "message": "…"}}`.
//!
//! JSON string escaping guarantees a frame never contains a raw
//! newline, so framing cannot desynchronise on content. Blank lines
//! are ignored (usable as keep-alives). A request line, its newline
//! included, is capped at 16 MiB
//! ([`dpgrid_serve::wire::MAX_FRAME_BYTES`] = 16 777 216 bytes): a
//! connection whose next newline is not within that many bytes is
//! answered with a typed `MalformedRequest` error and closed, so a
//! newline-free stream cannot grow server memory unboundedly. A frame
//! that is not valid UTF-8 also gets a typed `MalformedRequest` reply
//! (the connection stays open).
//!
//! ## Binary v2 (the fast codec)
//!
//! Length-prefixed binary frames ([`dpgrid_serve::wire::binary`]): a
//! fixed 16-byte little-endian header followed by `payload_len` bytes
//! of payload —
//!
//! | bytes   | field        | value                                        |
//! |---------|--------------|----------------------------------------------|
//! | 0–1     | magic        | `0xD6 0xB2` (can never begin a JSON frame)   |
//! | 2       | version      | `2`                                          |
//! | 3       | frame type   | requests `0x01..=0x07`, responses `0x81..=0x88` |
//! | 4–11    | id           | `u64` LE — full range, no `2⁵³` ceiling      |
//! | 12–15   | payload len  | `u32` LE, capped at 16 MiB − 16 B            |
//!
//! Payloads carry rectangles and answers as raw `f64` arrays (no text
//! round-trip — the dominant cost of v1 at serving batch sizes) and
//! strings as length-prefixed UTF-8; both sides encode into reusable
//! per-connection buffers, and the server writes header + payload with
//! one vectored write. The server answers each connection's frames in
//! arrival order, so a client may **pipeline**: write N id-correlated
//! request frames in one burst, then read the N responses in order.
//! [`TcpClient`] sends every call that way, as one train of one or more
//! frames ([`TcpClient::query_pipelined`], used by [`RemoteShard`] for
//! every scattered sub-batch; [`TcpClient::submit_reports`] on the write
//! path). The `Batch` request kind stays in both codecs for raw-line
//! and hand-built peers, but no client sends it. Since one connection's
//! frames are answered one after another, parallelism over TCP comes
//! from several connections ([`TcpClientPool`], [`RemoteShard`]), not
//! from one many-request frame. Malformed *payloads* under intact
//! framing get typed `MalformedRequest` replies and the connection
//! survives; anything that destroys byte framing — wrong magic, an
//! over-cap length prefix, a truncated frame — is answered typed and
//! the connection closed, exactly as v1 treats its 16 MiB flood guard.
//! NaN/infinite coordinates travel bit-exactly in v2 (unlike JSON's
//! `null` detour) and are rejected by the same boundary validation, so
//! codec choice never changes what reaches an engine.
//!
//! # Temporal keys and window queries
//!
//! Streaming ingestion (`dpgrid-stream`) publishes one release per
//! time epoch under the key grammar of `dpgrid_core::temporal`:
//! `{keyspace}@epoch:{i}` for a fine epoch, `{keyspace}@epoch:{s}-{e}`
//! for a compacted half-open tier. These are ordinary release keys —
//! they travel through `Query`/`Batch`/`Keys` unchanged, place on
//! shards by the same rendezvous hash, and `Keys` enumerates every
//! epoch of a keyspace. The `Window` request kind (JSON `{"Window":…}`
//! / binary `0x06`) asks the server to resolve and sum the surfaces
//! covering an epoch range in one round trip: [`TcpClient::window`] on
//! the client side, `dpgrid_serve::answer_window` behind any server.
//!
//! # The write path: LDP report ingestion
//!
//! The `Report` request kind (JSON `{"Report":…}` / binary `0x07`) is
//! the protocol's only
//! *mutating* request: a batch of locally-perturbed frequency-oracle
//! reports (`dpgrid_mech::Grr` cell indices or `dpgrid_mech::Oue`
//! packed bit rows) bound for the server's `dpgrid_ldp` collector,
//! acknowledged with running totals. [`TcpClient::submit_report`]
//! sends one batch; [`TcpClient::submit_reports`] pipelines many as
//! id-correlated binary frames in a single write — the ingestion fast
//! path. Because the request mutates collector state, neither is ever
//! resent on a stale connection (unlike every read-path call): the
//! error surfaces and the caller decides whether re-submitting could
//! double-count. A read-only server has no collector and answers
//! `MalformedRequest`.
//!
//! Releases sealed from LDP reports carry
//! `dpgrid_core::TrustModel::Local` in their metadata: the server
//! never held raw points, but each estimate is far noisier than the
//! central-model releases the read path usually serves, and its ε is
//! per user per epoch. The serving tier treats both identically;
//! consumers that care can tell them apart by the metadata.
//!
//! # Error codes
//!
//! Failures carry a stable machine-readable
//! [`dpgrid_serve::wire::ErrorCode`]:
//!
//! | code                 | meaning                                    | client action |
//! |----------------------|--------------------------------------------|---------------|
//! | `UnknownKey`         | release key not in the catalog             | fix the key / wait for publish |
//! | `InvalidQuery`       | NaN/infinite/inverted rectangle            | fix the query |
//! | `Overloaded`         | admission control shed the request         | back off, retry |
//! | `MalformedRequest`   | frame did not parse as this protocol       | fix the client |
//! | `UnsupportedVersion` | `protocol_version` mismatch                | upgrade one side |
//! | `Internal`           | server-side failure                        | report / retry |
//!
//! # Versioning and the handshake
//!
//! Every connection starts in JSON v1, the codec a script or `nc` can
//! speak by hand; the server answers such raw-line peers for as long
//! as they stay on it. [`TcpClient`] instead sends one JSON
//! `Hello {max_version: 2}` frame (id 0) as its first message, and the
//! server replies `Hello {version: min(client_max, server_max)}`. When
//! that lands on 2 the **same connection** switches to binary frames —
//! both directions, no reconnect. The client speaks binary v2 only: an
//! ack of any other version, or an error reply to the offer (what a
//! JSON-only peer sends for the unknown kind), fails the dial with a
//! typed [`NetError::Protocol`]. The handshake lives and dies with the
//! connection — a reconnecting client ([`TcpClient`]'s one-shot
//! redial, every pool checkout) repeats it, so a replaced server is
//! never sent binary frames it has not acked.
//!
//! Within one codec, `protocol_version` (JSON:
//! [`dpgrid_serve::wire::PROTOCOL_VERSION`] = 1, binary:
//! [`dpgrid_serve::wire::binary::PROTOCOL_VERSION`] = 2) bumps on any
//! incompatible change; both peers reject other versions with
//! `UnsupportedVersion` rather than guessing. The
//! [`dpgrid_serve::wire::ErrorCode`] table is shared by both codecs:
//! JSON spells the *names*, binary carries one stable byte per code
//! ([`dpgrid_serve::wire::binary::code_byte`]) — both append-only,
//! never changing meaning.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dpgrid_core::{Method, Pipeline};
//! use dpgrid_geo::generators::PaperDataset;
//! use dpgrid_geo::Rect;
//! use dpgrid_net::{TcpClient, TcpServer};
//! use dpgrid_serve::{Catalog, QueryEngine};
//!
//! // Publish a release and serve it.
//! let data = PaperDataset::Storage.generate_n(1, 2_000).unwrap();
//! let mut catalog = Catalog::new();
//! Pipeline::new(&data)
//!     .epsilon(1.0)
//!     .method(Method::ug(16))
//!     .seed(7)
//!     .publish_into(&mut catalog, "storage")
//!     .unwrap();
//! let engine = Arc::new(QueryEngine::new(catalog));
//! let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
//!
//! // Query it over loopback.
//! let mut client = TcpClient::connect(server.local_addr()).unwrap();
//! let q = Rect::new(-100.0, 30.0, -90.0, 40.0).unwrap();
//! let response = client.query("storage", &[q]).unwrap();
//! assert_eq!(response.answers.len(), 1);
//! server.shutdown();
//! ```

// Unsafe is denied crate-wide and allowed back in exactly one place:
// the FFI shim at the bottom of `poll.rs` that binds the libc
// readiness syscalls std links but does not expose.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod conn;
mod counters;
mod error;
mod ingest;
mod mux;
pub mod poll;
mod pool;
mod remote;

pub use client::{TcpClient, CONNECT_TIMEOUT, DEFAULT_IO_TIMEOUT};
pub use error::{NetError, Result};
pub use ingest::ReportRouter;
pub use mux::TcpServer;
pub use pool::{TcpClientPool, DEFAULT_MAX_IDLE};
pub use remote::RemoteShard;

#[cfg(test)]
mod tests {
    use super::*;
    use dpgrid_core::{Method, Pipeline};
    use dpgrid_geo::generators::PaperDataset;
    use dpgrid_geo::Rect;
    use dpgrid_serve::wire::{ErrorCode, RequestBody, ResponseBody, WireRequest, WireResponse};
    use dpgrid_serve::{Catalog, QueryEngine, QueryRequest};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    fn engine(keys: &[(&str, u64)]) -> QueryEngine {
        let ds = PaperDataset::Storage.generate_n(21, 1_500).unwrap();
        let mut catalog = Catalog::new();
        for (key, seed) in keys {
            Pipeline::new(&ds)
                .method(Method::ug(8))
                .seed(*seed)
                .publish_into(&mut catalog, *key)
                .unwrap();
        }
        QueryEngine::new(catalog)
    }

    /// Sends `body` as one raw JSON line on `json` and reads the reply
    /// line — the server's JSON codec as a script or `nc` speaks it,
    /// with no `Hello`.
    fn json_line(json: &mut BufReader<TcpStream>, id: u64, body: RequestBody) -> ResponseBody {
        let frame = WireRequest::new(id, body).encode();
        json.get_mut().write_all(frame.as_bytes()).unwrap();
        json.get_mut().write_all(b"\n").unwrap();
        let mut line = String::new();
        json.read_line(&mut line).unwrap();
        let response = WireResponse::decode(line.trim_end()).unwrap();
        assert_eq!(response.id, id);
        response.body
    }

    #[test]
    fn roundtrip_query_stats_ping_over_loopback() {
        let engine = Arc::new(engine(&[("a", 1), ("b", 2)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();

        client.ping().unwrap();
        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        let remote = client.query("a", &[q]).unwrap();
        let local = engine.answer(&QueryRequest::new("a", vec![q])).unwrap();
        assert_eq!(remote.answers, local.answers);
        assert_eq!(remote.version, 1);

        let outcomes = client
            .query_pipelined(&[
                QueryRequest::new("b", vec![q]),
                QueryRequest::new("nope", vec![q]),
            ])
            .unwrap();
        assert!(outcomes[0].is_ok());
        assert!(matches!(&outcomes[1], Err(e) if e.code == ErrorCode::UnknownKey));

        let stats = client.stats().unwrap();
        assert!(stats.requests >= 3);
        assert_eq!(stats.catalog.releases, 2);
        assert!(server.frames_served() >= 4);
        server.shutdown();
    }

    #[test]
    fn server_shuts_down_with_idle_connections_open() {
        let engine = Arc::new(engine(&[("a", 1)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        // Two idle connections that never send a byte must not block
        // the graceful shutdown.
        let _idle1 = TcpClient::connect(server.local_addr()).unwrap();
        let _idle2 = TcpClient::connect(server.local_addr()).unwrap();
        server.shutdown();
    }

    #[test]
    fn unattributed_server_errors_surface_typed_not_as_id_mismatch() {
        // A server that cannot attribute a frame replies under id 0
        // (e.g. the frame-cap rejection); the client must surface the
        // typed error, not a confusing id-mismatch protocol error.
        // Simulated with a one-shot fake server that acks the
        // handshake, then answers the first binary frame that way.
        use dpgrid_serve::wire::{binary, hello_ack, WireError};
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut peer = BufReader::new(stream);
            let mut offer = String::new();
            peer.read_line(&mut offer).unwrap();
            let mut out = hello_ack(0, binary::PROTOCOL_VERSION).encode().into_bytes();
            out.push(b'\n');
            peer.get_mut().write_all(&out).unwrap();
            let mut ping = [0u8; binary::HEADER_BYTES];
            peer.read_exact(&mut ping).unwrap();
            let reject = WireResponse::error(
                0,
                WireError::new(ErrorCode::MalformedRequest, "frame exceeds the cap"),
            );
            binary::encode_response(&reject, &mut out).unwrap();
            peer.get_mut().write_all(&out).unwrap();
            // Hold the connection until the client hangs up.
            let _ = peer.read(&mut [0u8; 1]);
        });
        let mut client = TcpClient::connect(addr).unwrap();
        match client.ping() {
            Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::MalformedRequest),
            other => panic!("expected typed server error, got {other:?}"),
        }
        drop(client);
        fake.join().unwrap();
    }

    #[test]
    fn unattributed_errors_in_a_longer_train_drop_the_connection() {
        // In a train of three, an error under id 0 belongs to no frame:
        // the lockstep is lost, so the call fails as a protocol error
        // and the next call redials (the fake sees a second `Hello`)
        // instead of reading the train's stray replies.
        use dpgrid_serve::wire::{binary, hello_ack, WireError};
        use std::io::Read;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let fake = std::thread::spawn(move || {
            let mut hellos = 0;
            let mut open = Vec::new();
            for reply in [None, Some(ResponseBody::Pong)] {
                let (stream, _) = listener.accept().unwrap();
                let mut peer = BufReader::new(stream);
                let mut offer = String::new();
                peer.read_line(&mut offer).unwrap();
                let offer = WireRequest::decode(offer.trim_end()).unwrap();
                assert!(matches!(offer.body, RequestBody::Hello(_)), "{offer:?}");
                hellos += 1;
                let mut out = hello_ack(0, binary::PROTOCOL_VERSION).encode().into_bytes();
                out.push(b'\n');
                peer.get_mut().write_all(&out).unwrap();
                // Read the first frame only; answer it under id 0 on
                // the first connection, in lockstep on the second.
                let mut head = [0u8; binary::HEADER_BYTES];
                peer.read_exact(&mut head).unwrap();
                let header = binary::decode_header(&head).unwrap();
                peer.read_exact(&mut vec![0u8; header.payload_len]).unwrap();
                let response = match reply {
                    None => WireResponse::error(
                        0,
                        WireError::new(ErrorCode::MalformedRequest, "frame exceeds the cap"),
                    ),
                    Some(body) => WireResponse::new(header.id, body),
                };
                binary::encode_response(&response, &mut out).unwrap();
                peer.get_mut().write_all(&out).unwrap();
                open.push(peer);
            }
            // Hold both connections until the client hangs up.
            let _ = open[1].read(&mut [0u8; 1]);
            hellos
        });
        let mut client = TcpClient::connect(addr).unwrap();
        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        let train = [
            QueryRequest::new("a", vec![q]),
            QueryRequest::new("b", vec![q]),
            QueryRequest::new("c", vec![q]),
        ];
        match client.query_pipelined(&train) {
            Err(NetError::Protocol(why)) => assert!(why.contains("under id 0"), "{why}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
        assert!(!client.is_connected());
        client.ping().unwrap();
        drop(client);
        assert_eq!(fake.join().unwrap(), 2);
    }

    #[test]
    fn stats_reconcile_out_of_band_compiles_into_the_budget() {
        // Compiling through the with_catalog escape hatch on an
        // otherwise idle engine must show up (and be bounded) on the
        // very next stats read — not only after future query traffic.
        use dpgrid_geo::Synopsis as _;
        let engine = Arc::new(engine(&[("a", 1), ("b", 2)]));
        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        engine.with_catalog(|catalog| {
            for key in ["a", "b"] {
                catalog.release(key).unwrap().answer(&q);
            }
        });
        let stats = dpgrid_serve::QueryService::stats(&*engine);
        assert!(stats.catalog.resident_bytes > 0, "sweep accounted bytes");
        assert_eq!(stats.catalog.warm, 2);
        assert!(stats.catalog.resident_bytes <= stats.catalog.budget_bytes);
    }

    #[test]
    fn disconnect_is_reported_when_no_server_comes_back() {
        let engine = Arc::new(engine(&[("a", 1)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        client.ping().unwrap();
        server.shutdown();
        // The next call fails with a transport error, not a hang: the
        // one-shot reconnect finds nothing listening.
        let err = client.ping().unwrap_err();
        assert!(matches!(err, NetError::Disconnected | NetError::Io(_)));
        assert!(!client.is_connected());
    }

    #[test]
    fn client_reconnects_once_across_a_server_restart() {
        let engine = Arc::new(engine(&[("a", 1)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let mut client = TcpClient::connect(addr).unwrap();
        client.ping().unwrap();
        server.shutdown();
        // Kill-and-restart on the same (previously ephemeral) port: the
        // stranded client's next call hits a dead connection, redials
        // once, and succeeds — no rebuild, no error surfaced.
        let server = TcpServer::bind(Arc::clone(&engine), addr).unwrap();
        client.ping().unwrap();
        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        let remote = client.query("a", &[q]).unwrap();
        let local = engine.answer(&QueryRequest::new("a", vec![q])).unwrap();
        assert_eq!(remote.answers, local.answers);
        assert!(client.is_connected());

        // A restart *while disconnected* also heals lazily: kill,
        // surface one error, restart, next call redials.
        server.shutdown();
        assert!(client.ping().is_err());
        let server = TcpServer::bind(Arc::clone(&engine), addr).unwrap();
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn window_queries_travel_over_both_codecs() {
        use dpgrid_core::{epoch_key, EpochRange};
        let keys: Vec<String> = (0..3)
            .map(|e| epoch_key("taxi", EpochRange::single(e)))
            .collect();
        let engine = Arc::new(engine(&[
            (keys[0].as_str(), 1),
            (keys[1].as_str(), 2),
            (keys[2].as_str(), 3),
        ]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        let expected: f64 = (1..3)
            .map(|e| {
                engine
                    .answer(&QueryRequest::new(keys[e].clone(), vec![q]))
                    .unwrap()
                    .answers[0]
            })
            .sum();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        let answer = client.window("taxi", 1, 3, &[q]).unwrap();
        assert_eq!(answer.keyspace, "taxi");
        assert_eq!(
            answer.covered,
            vec![EpochRange::single(1), EpochRange::single(2)]
        );
        assert!((answer.answers[0] - expected).abs() <= 1e-9 * (1.0 + expected.abs()));
        // Uncovered windows come back as typed UnknownKey errors.
        match client.window("taxi", 10, 12, &[q]) {
            Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::UnknownKey),
            other => panic!("expected UnknownKey, got {other:?}"),
        }

        // The same windows as raw JSON lines answer identically.
        let window = |epoch_start, epoch_end| {
            RequestBody::Window(dpgrid_serve::wire::WireWindow {
                keyspace: "taxi".into(),
                epoch_start,
                epoch_end,
                rects: vec![(&q).into()],
            })
        };
        let mut json = BufReader::new(TcpStream::connect(server.local_addr()).unwrap());
        match json_line(&mut json, 1, window(1, 3)) {
            ResponseBody::Window(w) => assert_eq!(w.into_answer().unwrap(), answer),
            other => panic!("expected a window answer, got {other:?}"),
        }
        match json_line(&mut json, 2, window(10, 12)) {
            ResponseBody::Error(e) => assert_eq!(e.code, ErrorCode::UnknownKey),
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        server.shutdown();
    }

    /// Answers like its engine, but every reply (query or window) is
    /// one answer short.
    struct DropsOneAnswer(QueryEngine);

    impl dpgrid_serve::QueryService for DropsOneAnswer {
        fn answer_batch(
            &self,
            requests: &[QueryRequest],
        ) -> Vec<dpgrid_serve::Result<dpgrid_serve::QueryResponse>> {
            let mut responses = self.0.answer_batch(requests);
            for response in responses.iter_mut().flatten() {
                response.answers.pop();
            }
            responses
        }

        fn stats(&self) -> dpgrid_serve::EngineStats {
            self.0.stats()
        }

        fn keys(&self) -> Vec<String> {
            self.0.keys()
        }

        fn window(
            &self,
            query: &dpgrid_serve::WindowQuery,
        ) -> dpgrid_serve::Result<dpgrid_serve::WindowAnswer> {
            let mut answer = dpgrid_serve::resolve_window_via_keys(&self.0, query)?;
            answer.answers.pop();
            Ok(answer)
        }
    }

    #[test]
    fn replies_missing_an_answer_fail_typed() {
        use dpgrid_core::{epoch_key, EpochRange};
        let key = epoch_key("taxi", EpochRange::single(0));
        let service = Arc::new(DropsOneAnswer(engine(&[(key.as_str(), 1)])));
        let server = TcpServer::bind(service, "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        let rects = [q, q];
        let short =
            |e: NetError| matches!(&e, NetError::Protocol(m) if m == "2 rects got 1 answers");
        assert!(short(client.query(&key, &rects).unwrap_err()));
        assert!(short(client.window("taxi", 0, 1, &rects).unwrap_err()));
        let requests = [QueryRequest::new(key.clone(), rects.to_vec())];
        assert!(short(client.query_pipelined(&requests).unwrap_err()));
        // A one-rect query comes back empty, also typed.
        assert!(matches!(
            client.query(&key, &[q]),
            Err(NetError::Protocol(m)) if m == "1 rects got 0 answers"
        ));
        server.shutdown();
    }

    fn collecting(keyspace: &str) -> Arc<dpgrid_ldp::CollectingService<dpgrid_serve::QueryEngine>> {
        use dpgrid_ldp::{CollectingService, CollectorConfig, ReportCollector};
        use dpgrid_mech::BudgetSchedule;
        let config = CollectorConfig::new(
            keyspace,
            dpgrid_geo::Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap(),
            8,
            8,
            BudgetSchedule::uniform(1.0, 4).unwrap(),
        )
        .unwrap();
        Arc::new(CollectingService::new(
            QueryEngine::new(Catalog::new()),
            ReportCollector::new(config).unwrap(),
        ))
    }

    fn grr_batch(
        keyspace: &str,
        epoch: u64,
        epsilon: f64,
        reports: Vec<u32>,
    ) -> dpgrid_serve::ReportBatch {
        dpgrid_serve::ReportBatch {
            keyspace: keyspace.into(),
            epoch,
            epsilon,
            cells: 64,
            payload: dpgrid_serve::ReportPayload::Grr(reports),
        }
    }

    #[test]
    fn report_batches_travel_both_codecs_and_seal_into_served_releases() {
        let service = collecting("taxi");
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let eps = service.with_collector(|c| c.open_epsilon().unwrap());

        // Binary: one ack, then a pipelined train whose future-epoch
        // batch fails only its own slot.
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        let ack = client
            .submit_report(&grr_batch("taxi", 0, eps, vec![9, 9, 9]))
            .unwrap();
        assert_eq!(ack.accepted, 3);
        let outcomes = client
            .submit_reports(&[
                grr_batch("taxi", 0, eps, vec![1, 2]),
                grr_batch("taxi", 5, eps, vec![1]), // future epoch
                grr_batch("taxi", 0, eps, vec![3]),
            ])
            .unwrap();
        assert!(outcomes[0].is_ok());
        assert!(matches!(&outcomes[1], Err(e) if e.code == ErrorCode::InvalidQuery));
        assert!(outcomes[2].is_ok());

        // The same batches as raw JSON lines: the same acks, the same
        // typed rejection, the connection intact throughout.
        let mut json = BufReader::new(TcpStream::connect(server.local_addr()).unwrap());
        for (id, (epoch, reports)) in [
            (0, vec![9, 9, 9]),
            (0, vec![1, 2]),
            (5, vec![1]),
            (0, vec![3]),
        ]
        .into_iter()
        .enumerate()
        {
            let accepted = reports.len() as u64;
            let batch = grr_batch("taxi", epoch, eps, reports);
            let body = RequestBody::Report(dpgrid_serve::wire::WireReportBatch::from_batch(&batch));
            match json_line(&mut json, id as u64, body) {
                ResponseBody::Report(ack) if epoch == 0 => assert_eq!(ack.accepted, accepted),
                ResponseBody::Error(e) if epoch == 5 => assert_eq!(e.code, ErrorCode::InvalidQuery),
                other => panic!("batch {id}: unexpected {other:?}"),
            }
        }
        // Both codecs fed one collector: (3 + 2 + 1) reports × 2.
        assert_eq!(service.with_collector(|c| c.open_reports()), 12);

        // The transport counted exactly the acknowledged reports (the
        // rejected future epoch counts nothing), under both codecs.
        let stats = client.stats().unwrap();
        assert_eq!(stats.transport.unwrap().reports_accepted, 12);
        match json_line(&mut json, 9, RequestBody::Stats) {
            ResponseBody::Stats(s) => assert_eq!(s.transport.unwrap().reports_accepted, 12),
            other => panic!("expected stats, got {other:?}"),
        }

        // Sealing turns the epoch into an ordinary served release.
        service.publish_open_epoch(&mut service.inner()).unwrap();
        assert_eq!(client.keys().unwrap(), vec!["taxi@epoch:0".to_string()]);
        server.shutdown();
    }

    #[test]
    fn report_trains_are_not_resent_across_a_server_restart() {
        let service = collecting("taxi");
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let eps = service.with_collector(|c| c.open_epsilon().unwrap());
        let mut client = TcpClient::connect(addr).unwrap();
        client
            .submit_reports(&[grr_batch("taxi", 0, eps, vec![1])])
            .unwrap();
        server.shutdown();

        // Restart on the same port with a fresh collector. The stranded
        // train dies with the old connection and is not resent: the
        // server may or may not have applied a written report, so only
        // the caller can decide to submit again.
        let fresh = collecting("taxi");
        let server = TcpServer::bind(Arc::clone(&fresh), addr).unwrap();
        let train = [
            grr_batch("taxi", 0, eps, vec![2, 3]),
            grr_batch("taxi", 0, eps, vec![4]),
        ];
        assert!(client.submit_reports(&train).is_err());
        assert!(!client.is_connected());
        assert_eq!(fresh.with_collector(|c| c.open_reports()), 0);

        // The next call redials once, and its reports count once.
        let acks = client.submit_reports(&train).unwrap();
        assert!(acks.iter().all(|ack| ack.is_ok()), "{acks:?}");
        assert_eq!(fresh.with_collector(|c| c.open_reports()), 3);
        assert_eq!(server.transport_stats().accepted, 1);
        server.shutdown();
    }

    #[test]
    fn read_only_servers_reject_reports_typed() {
        let engine = Arc::new(engine(&[("a", 1)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        match client.submit_report(&grr_batch("taxi", 0, 1.0, vec![1])) {
            Err(NetError::Server(e)) => assert_eq!(e.code, ErrorCode::MalformedRequest),
            other => panic!("expected MalformedRequest, got {other:?}"),
        }
        // Pipelined slots degrade typed too, connection intact.
        let outcomes = client
            .submit_reports(&[
                grr_batch("taxi", 0, 1.0, vec![1]),
                grr_batch("taxi", 0, 1.0, vec![2]),
            ])
            .unwrap();
        for outcome in &outcomes {
            assert!(matches!(outcome, Err(e) if e.code == ErrorCode::MalformedRequest));
        }
        client.ping().unwrap();
        server.shutdown();
    }

    #[test]
    fn report_router_aggregates_on_the_shard_that_serves_the_epoch() {
        use dpgrid_core::{Release, ShardedSink};
        use dpgrid_serve::ServeError;
        let names = ["alpha".to_string(), "beta".to_string()];
        // One keyspace owned by each shard, found via the shared
        // placement function — nothing in the test hardcodes the hash.
        let owned_by = |shard: &str| {
            (0u32..)
                .map(|i| format!("ks{i}"))
                .find(|ks| {
                    let key = ReportRouter::placement_key(ks, 0).unwrap();
                    names[dpgrid_core::rendezvous_route(&names, &key).unwrap()] == *shard
                })
                .unwrap()
        };
        let ks_a = owned_by("alpha");
        let ks_b = owned_by("beta");

        let svc_a = collecting(&ks_a);
        let svc_b = collecting(&ks_b);
        let server_a = TcpServer::bind(Arc::clone(&svc_a), "127.0.0.1:0").unwrap();
        let server_b = TcpServer::bind(Arc::clone(&svc_b), "127.0.0.1:0").unwrap();
        let router = ReportRouter::connect([
            ("alpha".to_string(), server_a.local_addr()),
            ("beta".to_string(), server_b.local_addr()),
        ])
        .unwrap();
        assert_eq!(router.route(&ks_a, 0), Some("alpha"));
        assert_eq!(router.route(&ks_b, 0), Some("beta"));

        let eps = svc_a.with_collector(|c| c.open_epsilon().unwrap());
        let outcomes = router.submit_reports(&[
            grr_batch(&ks_a, 0, eps, vec![1, 2]),
            grr_batch(&ks_b, 0, eps, vec![3]),
            grr_batch(&ks_a, 0, eps, vec![4, 5, 6]),
        ]);
        assert!(outcomes.iter().all(|o| o.is_ok()));
        assert_eq!(svc_a.with_collector(|c| c.open_reports()), 5);
        assert_eq!(svc_b.with_collector(|c| c.open_reports()), 1);

        // Ingestion placement agrees with the publishing side's
        // ShardedSink over the same names — the seal of an ingested
        // epoch lands where the read router will look for it.
        let sink: ShardedSink<Vec<(String, Release)>> =
            ShardedSink::new(names.iter().map(|n| (n.clone(), Vec::new())).collect());
        for ks in [&ks_a, &ks_b] {
            assert_eq!(
                sink.route(&ReportRouter::placement_key(ks, 0).unwrap()),
                router.route(ks, 0)
            );
        }

        // A dead shard fails exactly its own slice of the batch.
        server_b.shutdown();
        let outcomes = router.submit_reports(&[
            grr_batch(&ks_a, 0, eps, vec![7]),
            grr_batch(&ks_b, 0, eps, vec![8]),
        ]);
        assert!(outcomes[0].is_ok());
        assert!(
            matches!(&outcomes[1], Err(ServeError::Unavailable { shard, .. }) if shard == "beta")
        );
        server_a.shutdown();
    }

    #[test]
    fn report_router_fails_only_the_slot_at_the_last_epoch() {
        use dpgrid_serve::ServeError;
        let service = collecting("taxi");
        let server = TcpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        let router = ReportRouter::connect([("solo".to_string(), server.local_addr())]).unwrap();
        let eps = service.with_collector(|c| c.open_epsilon().unwrap());
        // Epoch u64::MAX has no epoch key, so it has no placement: its
        // slot fails typed and the rest of the batch still routes.
        let outcomes = router.submit_reports(&[
            grr_batch("taxi", 0, eps, vec![1]),
            grr_batch("taxi", u64::MAX, eps, vec![2]),
            grr_batch("taxi", 0, eps, vec![3, 4]),
        ]);
        assert!(matches!(&outcomes[1], Err(ServeError::InvalidQuery(_))));
        assert_eq!(outcomes[0].as_ref().unwrap().accepted, 1);
        assert_eq!(outcomes[2].as_ref().unwrap().epoch_total, 3);
        assert_eq!(service.with_collector(|c| c.open_reports()), 3);
        assert_eq!(ReportRouter::placement_key("taxi", u64::MAX), None);
        assert_eq!(router.route("taxi", u64::MAX), None);
        server.shutdown();
    }

    #[test]
    fn keys_travel_over_the_wire() {
        let engine = Arc::new(engine(&[("b", 2), ("a", 1)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let mut client = TcpClient::connect(server.local_addr()).unwrap();
        assert_eq!(client.keys().unwrap(), vec!["a", "b"]);
        server.shutdown();
    }

    #[test]
    fn pool_reuses_parked_connections_and_survives_restart() {
        let engine = Arc::new(engine(&[("a", 1)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let pool = TcpClientPool::connect(addr).unwrap().with_max_idle(2);
        assert_eq!(pool.addr(), addr);
        // The verification connection was parked; a call reuses it.
        assert_eq!(pool.idle_connections(), 1);
        pool.with_client(|c| c.ping()).unwrap();
        assert_eq!(pool.idle_connections(), 1);
        // Concurrent checkouts dial extra connections, parked up to
        // the cap afterwards.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| pool.with_client(|c| c.ping()).unwrap());
            }
        });
        assert!(pool.idle_connections() <= 2);
        // Restart: parked connections are stale; each client's
        // one-shot reconnect heals them transparently.
        server.shutdown();
        let server = TcpServer::bind(Arc::clone(&engine), addr).unwrap();
        pool.with_client(|c| c.ping()).unwrap();
        server.shutdown();
    }

    #[test]
    fn remote_overload_recovers_the_servers_counters() {
        use dpgrid_serve::{QueryService, ServeError};
        let engine = Arc::new(engine(&[("a", 1)]).with_admission_limit(2));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let shard = RemoteShard::connect(server.local_addr()).unwrap();
        let rects: Vec<Rect> = (0..3)
            .map(|i| Rect::new(-120.0 + i as f64, 20.0, -90.0, 40.0).unwrap())
            .collect();
        // 3 rects against a budget of 2: shed remotely, and the typed
        // error carries the server's counters, not zeroed placeholders.
        let result = shard
            .answer_batch(&[QueryRequest::new("a", rects)])
            .remove(0);
        match result {
            Err(ServeError::Overloaded {
                inflight_rects,
                limit,
            }) => {
                assert_eq!(inflight_rects, 0);
                assert_eq!(limit, 2);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn remote_shard_serves_and_degrades_typed() {
        use dpgrid_serve::shard::Shard;
        use dpgrid_serve::{QueryService, ServeError};
        let engine = Arc::new(engine(&[("a", 1), ("b", 2)]));
        let server = TcpServer::bind(Arc::clone(&engine), "127.0.0.1:0").unwrap();
        let shard = RemoteShard::connect(server.local_addr()).unwrap();
        assert_eq!(shard.addr(), server.local_addr());
        assert_eq!(QueryService::keys(&shard), vec!["a", "b"]);
        assert!(shard.contains_key("a"));
        assert!(!shard.contains_key("zz"));

        let q = Rect::new(-120.0, 20.0, -90.0, 40.0).unwrap();
        let results = shard.answer_batch(&[
            QueryRequest::new("a", vec![q]),
            QueryRequest::new("missing", vec![q]),
        ]);
        let local = engine.answer(&QueryRequest::new("a", vec![q])).unwrap();
        assert_eq!(results[0].as_ref().unwrap().answers, local.answers);
        assert!(matches!(
            results[1],
            Err(ServeError::UnknownRelease(ref k)) if k == "missing"
        ));
        assert_eq!(
            QueryService::stats(&shard).requests,
            engine.stats().requests
        );

        // Server gone: the whole sub-batch fails Unavailable, stats
        // and keys degrade to zero/empty instead of panicking.
        server.shutdown();
        let results = shard.answer_batch(&[QueryRequest::new("a", vec![q])]);
        assert!(matches!(
            results[0],
            Err(ServeError::Unavailable { ref shard, .. }) if !shard.is_empty()
        ));
        assert_eq!(
            QueryService::stats(&shard),
            dpgrid_serve::EngineStats::zeroed()
        );
        assert!(QueryService::keys(&shard).is_empty());
    }
}
