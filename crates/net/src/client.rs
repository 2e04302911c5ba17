//! The blocking client: one TCP connection speaking the binary wire
//! protocol.
//!
//! Every call a [`TcpClient`] makes is one *train* of binary frames:
//! it encodes its request frames (one for [`TcpClient::query`], one
//! per request for [`TcpClient::query_pipelined`] and
//! [`TcpClient::submit_reports`]) back to back into one buffer, each
//! under its own id, ships them in a single write, then reads the
//! replies in lockstep. The server answers a connection's frames in
//! arrival order, so reply `i` answers frame `i`. The train's rules:
//!
//! * Every frame is encoded into a buffer the client owns before a
//!   connection is touched or dialed, so a frame the encoder refuses
//!   (past the payload cap) fails the call with nothing sent, and the
//!   connection stays.
//! * An error reply under frame `i`'s own id fills slot `i`; the drain
//!   goes on and the connection stays.
//! * An error under another id (the server reports a frame it could
//!   not attribute under id 0) belongs to the frame when the train
//!   holds one. In a longer train it means the lockstep is lost: the
//!   call fails with [`NetError::Protocol`] and the connection is
//!   dropped, never reused desynchronised. So does any other reply
//!   under a wrong id.
//! * A reply that does not hold one answer per rect sent fails typed.
//!
//! Binary frames name their codec by their first bytes, so the client
//! writes its first frame straight after the dial: no handshake, and no
//! protocol state outlives a connection.
//!
//! The client is deliberately not `Sync` — open one client per thread
//! (or pool clients with [`crate::TcpClientPool`]); the server side is
//! built for many cheap connections.
//!
//! # Reconnection
//!
//! The client remembers the address it connected to and, when a call
//! finds the connection *stale* — broken pipe, reset, or EOF where a
//! response was due, the signature of a server restart or an idle
//! timeout — it redials and resends the same encoded train **once**
//! before surfacing a [`NetError`]. One resend is safe because the
//! read-path requests are all idempotent (queries, windows, stats,
//! keys, ping); it is capped at one so a dead server fails fast
//! instead of retry-looping. The write path is the deliberate
//! exception: `Report` batches mutate collector state, so
//! [`TcpClient::submit_report`] and [`TcpClient::submit_reports`]
//! never resend — a connection that dies mid-submit surfaces the error
//! and lets the caller decide whether re-submitting could
//! double-count. A client that has surfaced an error reconnects lazily
//! on its next call, so long-lived clients ride out server restarts
//! without being rebuilt.

use std::borrow::Borrow;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use dpgrid_geo::Rect;
use dpgrid_serve::wire::{
    binary, RequestBody, ResponseBody, WireError, WireRect, WireRequest, WireResponse, WireWindow,
};
use dpgrid_serve::{
    EngineStats, QueryRequest, QueryResponse, ReportAck, ReportBatch, WindowAnswer,
};

use std::time::Duration;

use crate::error::{NetError, Result};

/// How long a dial may block before it fails — a silently dropping
/// host (no RST) must not hang callers for the OS default of minutes.
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// Default bound on one response wait (and one blocking write). A hung
/// server surfaces a timeout error instead of stalling the caller —
/// and with it every router batch scattered through this connection.
/// Generous: the slowest legitimate responses (a cold compile of a
/// huge surface behind a multi-thousand-rect batch) finish well under
/// it. Tune or disable per client with [`TcpClient::with_io_timeout`].
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Per-slot outcomes of a train: a typed server error isolates to its
/// own frame.
type Slots<T> = Vec<std::result::Result<T, WireError>>;

/// Whether a train may go out again on a fresh connection when the
/// first one turns out stale.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Resend {
    /// Idempotent reads: redial and resend once.
    Once,
    /// Reports mutate collector state: never resent.
    Never,
}

/// One live connection: a stream read through a buffer and written
/// directly, plus the reusable buffer replies are decoded from
/// (cleared, never shrunk — steady-state decoding allocates only the
/// values it returns).
#[derive(Debug)]
struct Conn {
    stream: BufReader<TcpStream>,
    /// Inbound payload bytes of the reply being decoded.
    in_buf: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr, io_timeout: Option<Duration>) -> Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        Ok(Conn {
            stream: BufReader::new(stream),
            in_buf: Vec::new(),
        })
    }

    /// Writes `train`, the `n` encoded frames under ids
    /// `first_id..first_id + n`, and reads its `n` replies in lockstep,
    /// by the rules in the module docs. `accept(i, body)` turns the
    /// non-error reply to frame `i` into its result.
    fn exchange<T>(
        &mut self,
        train: &[u8],
        first_id: u64,
        n: usize,
        accept: &mut impl FnMut(usize, ResponseBody) -> Result<T>,
    ) -> Result<Slots<T>> {
        self.stream.get_mut().write_all(train)?;
        let mut slots = Vec::with_capacity(n);
        for i in 0..n {
            let id = first_id + i as u64;
            let reply = self.read_reply()?;
            match reply.body {
                ResponseBody::Error(e) if reply.id == id || n == 1 => slots.push(Err(e)),
                body if reply.id == id => slots.push(Ok(accept(i, body)?)),
                body => {
                    return Err(NetError::Protocol(format!(
                        "frame {id} of a {n}-frame train got a reply under id {}: {body:?}",
                        reply.id
                    )))
                }
            }
        }
        Ok(slots)
    }

    /// Reads one binary reply frame (header, then exactly the declared
    /// payload) into the reusable inbound buffer.
    fn read_reply(&mut self) -> Result<WireResponse> {
        let mut header_buf = [0u8; binary::HEADER_BYTES];
        self.stream.read_exact(&mut header_buf)?;
        let header =
            binary::decode_header(&header_buf).map_err(|e| NetError::Protocol(e.to_string()))?;
        self.in_buf.clear();
        self.in_buf.resize(header.payload_len, 0);
        self.stream.read_exact(&mut self.in_buf)?;
        binary::decode_response(&header, &self.in_buf)
            .map_err(|e| NetError::Protocol(e.to_string()))
    }
}

/// A blocking binary-v2 connection to a [`crate::TcpServer`] (or
/// anything else that answers binary frames), with one-shot
/// reconnection on stale connections and bounded waits (see
/// [`CONNECT_TIMEOUT`] / [`DEFAULT_IO_TIMEOUT`]).
#[derive(Debug)]
pub struct TcpClient {
    peer: SocketAddr,
    conn: Option<Conn>,
    io_timeout: Option<Duration>,
    next_id: u64,
    /// The frames of the call in flight, encoded before any connection
    /// is touched and kept for its one resend (cleared, never shrunk —
    /// steady-state encoding allocates nothing).
    out_buf: Vec<u8>,
}

impl TcpClient {
    /// Dials `addr`; nothing is written until the first call. When
    /// `addr` resolves to several addresses the first that connects
    /// wins, and that concrete address is what reconnection later
    /// dials.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let io_timeout = Some(DEFAULT_IO_TIMEOUT);
        let mut last_err: Option<NetError> = None;
        for candidate in addr.to_socket_addrs()? {
            match Conn::open(candidate, io_timeout) {
                Ok(conn) => {
                    return Ok(TcpClient {
                        peer: candidate,
                        conn: Some(conn),
                        io_timeout,
                        next_id: 1,
                        out_buf: Vec::new(),
                    })
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ))
        }))
    }

    /// Bounds each blocking read/write (`None` waits forever, the
    /// pre-timeout behaviour). A wait that exceeds the bound surfaces
    /// a timeout [`NetError::Io`] and poisons the connection — it is
    /// *not* retried, since the server may be alive but slow and a
    /// retry would just wait again.
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> Result<Self> {
        self.io_timeout = timeout;
        if let Some(conn) = &self.conn {
            let stream = conn.stream.get_ref();
            stream.set_read_timeout(timeout)?;
            stream.set_write_timeout(timeout)?;
        }
        Ok(self)
    }

    /// The concrete peer address this client dials (and redials).
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Whether a connection is currently open (a client that surfaced
    /// a transport error holds none until its next call reconnects).
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// The protocol the current connection speaks:
    /// [`binary::PROTOCOL_VERSION`] (2) while one is held, `None`
    /// otherwise.
    pub fn protocol_version(&self) -> Option<u32> {
        self.conn.as_ref().map(|_| binary::PROTOCOL_VERSION)
    }

    /// Round-trips a liveness check.
    pub fn ping(&mut self) -> Result<()> {
        match self.call(RequestBody::Ping)? {
            ResponseBody::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetches the server's engine counters.
    pub fn stats(&mut self) -> Result<EngineStats> {
        match self.call(RequestBody::Stats)? {
            ResponseBody::Stats(stats) => Ok(stats),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// Fetches the server's advertised release keys (sorted).
    pub fn keys(&mut self) -> Result<Vec<String>> {
        match self.call(RequestBody::Keys)? {
            ResponseBody::Keys(keys) => Ok(keys),
            other => Err(unexpected("Keys", &other)),
        }
    }

    /// Answers `rects` against the release under `key`. Server-side
    /// failures (unknown key, invalid rect, overload) come back as
    /// [`NetError::Server`] with a stable error code; a request too
    /// large for one frame fails with [`NetError::Protocol`] before
    /// any byte of it is sent.
    pub fn query(&mut self, key: &str, rects: &[Rect]) -> Result<QueryResponse> {
        only(self.train(
            1,
            Resend::Once,
            |_, id, out| binary::append_query(id, key, rects, out),
            |_, body| answers(rects.len(), body),
        )?)
    }

    /// Answers a sliding-window query: the server sums `keyspace`'s
    /// released epoch surfaces over the half-open epoch range
    /// `[epoch_start, epoch_end)` for each rectangle — see
    /// [`dpgrid_serve::window`] for the coverage contract. The answer
    /// reports exactly which epoch ranges were summed (compacted
    /// tiers widen coverage visibly). A window touching no retained
    /// epoch fails with an `UnknownKey` wire error naming the missing
    /// range.
    pub fn window(
        &mut self,
        keyspace: &str,
        epoch_start: u64,
        epoch_end: u64,
        rects: &[Rect],
    ) -> Result<WindowAnswer> {
        let window = WireWindow {
            keyspace: keyspace.to_string(),
            epoch_start,
            epoch_end,
            rects: rects.iter().map(WireRect::from).collect(),
        };
        match self.call(RequestBody::Window(window))? {
            ResponseBody::Window(answers) => {
                one_answer_per_rect(rects.len(), answers.answers.len())?;
                answers
                    .into_answer()
                    .map_err(|e| NetError::Protocol(e.to_string()))
            }
            other => Err(unexpected("Window", &other)),
        }
    }

    /// Submits one batch of locally-perturbed reports to the server's
    /// collector and blocks for the ack: a train of one
    /// [`TcpClient::submit_reports`]. Typed collector rejections
    /// (sealed epoch, ε mismatch, overflow) come back as
    /// [`NetError::Server`]; a read-only server, which has no
    /// collector, answers `MalformedRequest`.
    ///
    /// Unlike the read-path calls this is **never resent**: a report
    /// batch mutates collector state, and a connection that dies after
    /// the frame was written may or may not have been applied. The
    /// error is surfaced (and the connection poisoned) so the caller —
    /// who knows whether their reports are deduplicable — decides
    /// whether to re-submit.
    pub fn submit_report(&mut self, batch: &ReportBatch) -> Result<ReportAck> {
        only(self.submit_reports(std::slice::from_ref(batch))?)
    }

    /// Submits several report batches as one train, one Report frame
    /// per batch, each encoded straight from its typed batch: all
    /// frames ship in a single write, then the acks are drained in
    /// order, so the socket stays busy instead of ping-ponging per
    /// batch — this is the ingestion fast path. Per-batch rejections
    /// are isolated in the inner results; the outer `Result` is the
    /// transport.
    ///
    /// Like [`TcpClient::submit_report`] this is never resent on a
    /// stale connection — see there for why. On a transport error the
    /// caller learns nothing about *which* of the in-flight batches
    /// were applied; keep batches per-epoch-idempotent (or count on
    /// the ack's `epoch_total`) if that matters.
    pub fn submit_reports<B: Borrow<ReportBatch>>(
        &mut self,
        batches: &[B],
    ) -> Result<Vec<std::result::Result<ReportAck, WireError>>> {
        if batches.is_empty() {
            return Ok(Vec::new());
        }
        self.train(
            batches.len(),
            Resend::Never,
            |i, id, out| binary::append_report(id, batches[i].borrow(), out),
            |_, body| match body {
                ResponseBody::Report(ack) => Ok(ack.into_ack()),
                other => Err(unexpected("Report", &other)),
            },
        )
    }

    /// Answers several requests (possibly across releases) as one
    /// train, one Query frame per request: all frames are encoded into
    /// one buffer and shipped in a single write, then the replies are
    /// drained in order — the socket stays busy instead of
    /// ping-ponging per request, which is what keeps a shard router's
    /// scatter leg fed. The outer `Result` is the transport; each
    /// inner result is that request's own outcome, failures isolated
    /// as in [`dpgrid_serve::QueryEngine::answer_batch`].
    ///
    /// The stale-connection resend covers the whole train: the same
    /// frames, ids included, go out on the fresh connection, and reads
    /// are idempotent.
    pub fn query_pipelined(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<std::result::Result<QueryResponse, WireError>>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        self.train(
            requests.len(),
            Resend::Once,
            |i, id, out| {
                binary::append_query(id, &requests[i].release_key, &requests[i].rects, out)
            },
            |i, body| answers(requests[i].rects.len(), body),
        )
    }

    /// Sends one idempotent read frame as a train of one and returns
    /// its reply.
    fn call(&mut self, body: RequestBody) -> Result<ResponseBody> {
        let mut request = WireRequest::new(0, body);
        only(self.train(
            1,
            Resend::Once,
            |_, id, out| {
                request.id = id;
                binary::append_request(&request, out)
            },
            |_, body| Ok(body),
        )?)
    }

    /// Sends a train of `n` frames under the next `n` ids and drains
    /// its replies, by the rules in the module docs. `encode(i, id,
    /// out)` appends frame `i`; `accept(i, body)` turns the non-error
    /// reply to frame `i` into its result. Every frame is encoded into
    /// the client's own buffer first, so a refused frame fails the call
    /// before a connection is touched or dialed. A stale connection is
    /// redialed and the same bytes sent once more when `resend` allows.
    fn train<T>(
        &mut self,
        n: usize,
        resend: Resend,
        mut encode: impl FnMut(usize, u64, &mut Vec<u8>) -> std::result::Result<(), WireError>,
        mut accept: impl FnMut(usize, ResponseBody) -> Result<T>,
    ) -> Result<Slots<T>> {
        let first_id = self.next_id;
        self.next_id += n as u64;
        self.out_buf.clear();
        for i in 0..n {
            encode(i, first_id + i as u64, &mut self.out_buf)
                .map_err(|e| NetError::Protocol(e.to_string()))?;
        }
        match self.exchange(first_id, n, &mut accept) {
            Err(e) if resend == Resend::Once && is_stale_connection(&e) => {
                self.exchange(first_id, n, &mut accept)
            }
            result => result,
        }
    }

    /// Exchanges the encoded train on the held connection, dialing one
    /// when none is held. The connection is kept only when the
    /// exchange succeeds: a transport or framing error may leave it
    /// desynchronised, so it must not serve the next call.
    fn exchange<T>(
        &mut self,
        first_id: u64,
        n: usize,
        accept: &mut impl FnMut(usize, ResponseBody) -> Result<T>,
    ) -> Result<Slots<T>> {
        let mut conn = match self.conn.take() {
            Some(conn) => conn,
            None => Conn::open(self.peer, self.io_timeout)?,
        };
        let slots = conn.exchange(&self.out_buf, first_id, n, accept)?;
        self.conn = Some(conn);
        Ok(slots)
    }
}

/// Whether an error means "the connection died under us" — the cases a
/// single redial-and-resend can fix (server restart, idle reap), as
/// opposed to a live server actively answering with an error.
fn is_stale_connection(e: &NetError) -> bool {
    match e {
        NetError::Io(io) => matches!(
            io.kind(),
            std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::NotConnected
                | std::io::ErrorKind::UnexpectedEof
        ),
        NetError::Protocol(_) | NetError::Server(_) => false,
    }
}

/// The outcome of a train of one: its slot, a server error typed.
fn only<T>(mut slots: Slots<T>) -> Result<T> {
    slots
        .pop()
        .expect("a train of one fills one slot")
        .map_err(NetError::Server)
}

/// The response an `Answers` reply to a query of `rects` rects carries.
fn answers(rects: usize, body: ResponseBody) -> Result<QueryResponse> {
    match body {
        ResponseBody::Answers(answers) => {
            one_answer_per_rect(rects, answers.answers.len())?;
            Ok(answers.into_response())
        }
        other => Err(unexpected("Answers", &other)),
    }
}

/// Fails a reply that does not hold exactly one answer per rect sent:
/// callers zip answers with their rects (a window router sums them per
/// rect), so a short reply would silently drop the last rects.
fn one_answer_per_rect(rects: usize, answers: usize) -> Result<()> {
    if answers == rects {
        return Ok(());
    }
    Err(NetError::Protocol(format!(
        "{rects} rects got {answers} answers"
    )))
}

fn unexpected(wanted: &str, got: &ResponseBody) -> NetError {
    NetError::Protocol(format!("expected {wanted} response, got {got:?}"))
}
