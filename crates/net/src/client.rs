//! The blocking client: one TCP connection speaking the binary wire
//! protocol.
//!
//! A [`TcpClient`] issues one request frame at a time and blocks for
//! the matching response (ids are checked, so a desynchronised
//! connection fails loudly instead of mismatching answers) — or
//! pipelines many id-correlated frames before draining their
//! responses ([`TcpClient::query_pipelined`]). It is deliberately not
//! `Sync` — open one client per thread (or pool clients with
//! [`crate::TcpClientPool`]); the server side is built for many cheap
//! connections.
//!
//! # The handshake
//!
//! Every connection starts in JSON v1, so the client's first frame is
//! a JSON `Hello` offering [`binary::PROTOCOL_VERSION`]; the server's
//! ack switches the connection to binary framing. The client speaks
//! nothing else. A server that acks another version, or answers the
//! offer with an error (a JSON-only peer rejects the unknown request
//! kind), fails the dial with [`NetError::Protocol`] carrying the
//! server's answer. The handshake belongs to the *connection*, not the
//! client: every redial repeats it, so a client never writes binary
//! frames at a restarted peer that has not acked them.
//!
//! # Reconnection
//!
//! The client remembers the address it connected to and, when a call
//! finds the connection *stale* — broken pipe, reset, or EOF where a
//! response was due, the signature of a server restart or an idle
//! timeout — it reconnects (repeating the handshake) and resends that
//! frame **once** before surfacing a [`NetError`]. One retry is safe
//! because the read-path requests are all idempotent (queries, stats,
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
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};

use dpgrid_geo::Rect;
use dpgrid_serve::wire::{
    binary, HelloOffer, RequestBody, ResponseBody, WireError, WireQuery, WireRect, WireReportBatch,
    WireRequest, WireResponse, WireWindow,
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

/// The request id the `Hello` handshake travels under.
/// Connection-level, never allocated to an application request (those
/// start at 1).
const HELLO_ID: u64 = 0;

/// One live connection: buffered reader/writer halves of a stream
/// that has acked the binary codec, and the reusable buffers binary
/// framing encodes into (cleared, never shrunk — steady-state encoding
/// allocates nothing).
#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Outbound frame bytes (payload of one frame, or many whole
    /// frames when pipelining).
    out_buf: Vec<u8>,
    /// Inbound payload bytes of the response being decoded.
    in_buf: Vec<u8>,
    /// Scratch for converting `Rect`s to wire rects without a fresh
    /// allocation per pipelined frame.
    rect_scratch: Vec<WireRect>,
}

impl Conn {
    fn open(addr: SocketAddr, io_timeout: Option<Duration>) -> Result<Self> {
        let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(io_timeout)?;
        stream.set_write_timeout(io_timeout)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            out_buf: Vec::new(),
            in_buf: Vec::new(),
            rect_scratch: Vec::new(),
        };
        conn.handshake()?;
        Ok(conn)
    }

    /// Offers the binary codec in a JSON `Hello` and requires the
    /// server to ack exactly that version; anything else fails typed.
    fn handshake(&mut self) -> Result<()> {
        let offer = WireRequest::new(
            HELLO_ID,
            RequestBody::Hello(HelloOffer {
                max_version: binary::PROTOCOL_VERSION,
            }),
        );
        match self.roundtrip_json(&offer.encode())?.body {
            ResponseBody::Hello(ack) if ack.version == binary::PROTOCOL_VERSION => Ok(()),
            ResponseBody::Hello(ack) => Err(NetError::Protocol(format!(
                "server acked protocol {}, this client speaks only binary v{}",
                ack.version,
                binary::PROTOCOL_VERSION
            ))),
            ResponseBody::Error(e) => Err(NetError::Protocol(format!(
                "server refused the binary v{} handshake: {e}",
                binary::PROTOCOL_VERSION
            ))),
            other => Err(unexpected("Hello", &other)),
        }
    }

    /// One binary frame exchange.
    fn exchange(&mut self, body: &RequestBody, id: u64) -> Result<ResponseBody> {
        let response = self.roundtrip_binary(body, id)?;
        // Typed server errors win over the id check: a frame the
        // server could not attribute (oversized, unparseable) is
        // reported under id 0, and this path is strictly
        // request-response, so any error frame belongs to the
        // in-flight request.
        match response.body {
            ResponseBody::Error(e) => Err(NetError::Server(e)),
            body if response.id == id => Ok(body),
            _ => Err(NetError::Protocol(format!(
                "response id {} does not match request id {id}",
                response.id
            ))),
        }
    }

    /// Writes one JSON line and reads the response line — the
    /// handshake's codec.
    fn roundtrip_json(&mut self, frame: &str) -> Result<WireResponse> {
        self.writer.write_all(frame.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;

        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(NetError::Disconnected);
        }
        WireResponse::decode(line.trim_end_matches(['\r', '\n']))
            .map_err(|e| NetError::Protocol(e.error.to_string()))
    }

    /// Writes one binary frame and reads the binary response.
    fn roundtrip_binary(&mut self, body: &RequestBody, id: u64) -> Result<WireResponse> {
        let frame_type = binary::encode_request_payload(body, &mut self.out_buf)
            .map_err(|e| NetError::Protocol(e.to_string()))?;
        let header = binary::encode_header(frame_type, id, self.out_buf.len());
        self.writer.write_all(&header)?;
        self.writer.write_all(&self.out_buf)?;
        self.writer.flush()?;
        self.read_binary_response()
    }

    /// Reads one binary response frame (header, then exactly the
    /// declared payload) into the reusable inbound buffer.
    fn read_binary_response(&mut self) -> Result<WireResponse> {
        let mut header_buf = [0u8; binary::HEADER_BYTES];
        self.reader.read_exact(&mut header_buf)?;
        let header =
            binary::decode_header(&header_buf).map_err(|e| NetError::Protocol(e.to_string()))?;
        self.in_buf.clear();
        self.in_buf.resize(header.payload_len, 0);
        self.reader.read_exact(&mut self.in_buf)?;
        binary::decode_response(&header, &self.in_buf)
            .map_err(|e| NetError::Protocol(e.to_string()))
    }

    /// Encodes all `requests` as id-correlated Query frames into one
    /// buffer, ships them with a single write, then drains the
    /// responses in order. Sound because the server answers each
    /// connection's frames sequentially, in arrival order — response
    /// `i` is always the answer to frame `i`.
    fn pipeline_binary(
        &mut self,
        requests: &[QueryRequest],
        first_id: u64,
    ) -> Result<Vec<std::result::Result<QueryResponse, WireError>>> {
        self.out_buf.clear();
        for (i, request) in requests.iter().enumerate() {
            self.rect_scratch.clear();
            self.rect_scratch
                .extend(request.rects.iter().map(WireRect::from));
            binary::append_query(
                first_id + i as u64,
                &request.release_key,
                &self.rect_scratch,
                &mut self.out_buf,
            )
            .map_err(|e| NetError::Protocol(e.to_string()))?;
        }
        self.writer.get_mut().write_all(&self.out_buf)?;

        let mut results = Vec::with_capacity(requests.len());
        for (i, request) in requests.iter().enumerate() {
            let expect = first_id + i as u64;
            let response = self.read_binary_response()?;
            match response.body {
                // A per-frame failure under the frame's own id fails
                // only its slot; the drain continues in lockstep.
                ResponseBody::Error(e) if response.id == expect => results.push(Err(e)),
                // An error the server could not attribute (id 0 or
                // otherwise off-sequence) means the lockstep is gone:
                // fail the whole call as a framing problem so the
                // connection is poisoned, not reused desynchronised.
                ResponseBody::Error(e) => {
                    return Err(NetError::Protocol(format!(
                        "pipelined frame {expect} got server error under id {}: {e}",
                        response.id
                    )));
                }
                ResponseBody::Answers(a) if response.id == expect => {
                    one_answer_per_rect(request.rects.len(), a.answers.len())?;
                    results.push(Ok(a.into_response()));
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "pipelined frame {expect} got {other:?} under id {}",
                        response.id
                    )));
                }
            }
        }
        Ok(results)
    }

    /// Encodes all `batches` as id-correlated Report frames, ships
    /// them in one write, then drains the acks in order — the same
    /// lockstep contract as [`Conn::pipeline_binary`]. Encoding is
    /// all-or-nothing *before* the write: a batch the binary codec
    /// refuses (unknown oracle string) fails the call with zero bytes
    /// sent, so nothing is half-applied.
    fn pipeline_reports<B: Borrow<ReportBatch>>(
        &mut self,
        batches: &[B],
        first_id: u64,
    ) -> Result<Vec<std::result::Result<ReportAck, WireError>>> {
        self.out_buf.clear();
        for (i, batch) in batches.iter().enumerate() {
            let wire = WireReportBatch::from_batch(batch.borrow());
            binary::append_report(first_id + i as u64, &wire, &mut self.out_buf)
                .map_err(|e| NetError::Protocol(e.to_string()))?;
        }
        self.writer.get_mut().write_all(&self.out_buf)?;

        let mut results = Vec::with_capacity(batches.len());
        for i in 0..batches.len() {
            let expect = first_id + i as u64;
            let response = self.read_binary_response()?;
            match response.body {
                // A rejected batch (sealed epoch, ε mismatch, a
                // read-only server's `MalformedRequest`) fails only its
                // slot; the drain continues in lockstep.
                ResponseBody::Error(e) if response.id == expect => results.push(Err(e)),
                ResponseBody::Error(e) => {
                    return Err(NetError::Protocol(format!(
                        "pipelined report {expect} got server error under id {}: {e}",
                        response.id
                    )));
                }
                ResponseBody::Report(ack) if response.id == expect => {
                    results.push(Ok(ack.into_ack()));
                }
                other => {
                    return Err(NetError::Protocol(format!(
                        "pipelined report {expect} got {other:?} under id {}",
                        response.id
                    )));
                }
            }
        }
        Ok(results)
    }
}

/// A blocking binary-v2 connection to a [`crate::TcpServer`] (or
/// anything else that acks the binary codec), with one-shot
/// reconnection on stale connections and bounded waits (see
/// [`CONNECT_TIMEOUT`] / [`DEFAULT_IO_TIMEOUT`]).
#[derive(Debug)]
pub struct TcpClient {
    peer: SocketAddr,
    conn: Option<Conn>,
    io_timeout: Option<Duration>,
    next_id: u64,
}

impl TcpClient {
    /// Connects to `addr` and completes the binary handshake; a peer
    /// that does not ack binary v2 fails with [`NetError::Protocol`].
    /// When `addr` resolves to several addresses the first that
    /// connects wins, and that concrete address is what reconnection
    /// later dials.
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
            let stream = conn.reader.get_ref();
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
        let query = WireQuery {
            release_key: key.to_string(),
            rects: rects.iter().map(WireRect::from).collect(),
        };
        match self.call(RequestBody::Query(query))? {
            ResponseBody::Answers(answers) => {
                one_answer_per_rect(rects.len(), answers.answers.len())?;
                Ok(answers.into_response())
            }
            other => Err(unexpected("Answers", &other)),
        }
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
    /// collector and blocks for the ack. Typed collector rejections
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
        let body = RequestBody::Report(WireReportBatch::from_batch(batch));
        let id = self.take_ids(1);
        match self.with_conn(|conn| conn.exchange(&body, id))? {
            ResponseBody::Report(ack) => Ok(ack.into_ack()),
            other => Err(unexpected("Report", &other)),
        }
    }

    /// Submits several report batches by **pipelining** one Report
    /// frame per batch: all frames ship in a single write, then the
    /// acks are drained in order, so the socket stays busy instead of
    /// ping-ponging per batch — this is the ingestion fast path.
    /// Per-batch rejections are isolated in the inner results; the
    /// outer `Result` is the transport.
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
        let first_id = self.take_ids(batches.len());
        self.with_conn(|conn| conn.pipeline_reports(batches, first_id))
    }

    /// Answers several requests (possibly across releases) in one
    /// round trip. The outer `Result` is the transport; each inner
    /// result is that query's own outcome, failures isolated exactly
    /// as in [`dpgrid_serve::QueryEngine::answer_batch`].
    pub fn query_batch(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<std::result::Result<QueryResponse, WireError>>> {
        let queries = requests.iter().map(WireQuery::from_request).collect();
        match self.call(RequestBody::Batch(queries))? {
            ResponseBody::Batch(outcomes) => {
                if outcomes.len() != requests.len() {
                    return Err(NetError::Protocol(format!(
                        "batch of {} queries got {} outcomes",
                        requests.len(),
                        outcomes.len()
                    )));
                }
                outcomes
                    .into_iter()
                    .zip(requests)
                    .map(|(outcome, request)| match outcome {
                        dpgrid_serve::wire::WireOutcome::Answered(a) => {
                            one_answer_per_rect(request.rects.len(), a.answers.len())?;
                            Ok(Ok(a.into_response()))
                        }
                        dpgrid_serve::wire::WireOutcome::Failed(e) => Ok(Err(e)),
                    })
                    .collect()
            }
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// Answers several requests by **pipelining** one Query frame per
    /// request: all frames are encoded into one buffer and shipped in
    /// a single write, then the responses are drained in order — the
    /// socket stays busy instead of ping-ponging per request, which
    /// is what keeps a shard router's scatter leg fed. Failures are
    /// isolated per request exactly as in [`TcpClient::query_batch`].
    ///
    /// The stale-connection retry covers the whole pipeline: ids are
    /// re-issued on the fresh connection, and reads are idempotent.
    pub fn query_pipelined(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<Vec<std::result::Result<QueryResponse, WireError>>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        let first_id = self.take_ids(requests.len());
        self.with_retry(|conn| conn.pipeline_binary(requests, first_id))
    }

    /// Sends one idempotent read frame and blocks for its response,
    /// with the stale-connection resend of [`TcpClient::with_retry`].
    fn call(&mut self, body: RequestBody) -> Result<ResponseBody> {
        let id = self.take_ids(1);
        self.with_retry(|conn| conn.exchange(&body, id))
    }

    /// Reserves `n` consecutive request ids, returning the first.
    fn take_ids(&mut self, n: usize) -> u64 {
        let first = self.next_id;
        self.next_id += n as u64;
        first
    }

    /// [`TcpClient::with_conn`], but a *stale* connection (the server
    /// went away between calls: broken pipe, reset, EOF in place of a
    /// response) is redialed — repeating the handshake — and `f` rerun
    /// exactly once. Only idempotent reads come through here (mutating
    /// `Report` frames use [`TcpClient::with_conn`] directly), so the
    /// retry cannot double-apply anything.
    fn with_retry<T>(&mut self, mut f: impl FnMut(&mut Conn) -> Result<T>) -> Result<T> {
        match self.with_conn(&mut f) {
            Err(e) if is_stale_connection(&e) => self.with_conn(f),
            result => result,
        }
    }

    /// Runs `f` once on the current connection, dialing a fresh one
    /// when none is held (no bytes of the request have been written
    /// yet, so that dial risks nothing). Transport and framing errors
    /// poison the connection — a desynchronised stream must not serve
    /// the next call — while typed server errors leave it healthy.
    fn with_conn<T>(&mut self, f: impl FnOnce(&mut Conn) -> Result<T>) -> Result<T> {
        if self.conn.is_none() {
            self.conn = Some(Conn::open(self.peer, self.io_timeout)?);
        }
        let result = f(self.conn.as_mut().expect("connection just ensured"));
        if matches!(result, Err(ref e) if !matches!(e, NetError::Server(_))) {
            self.conn = None;
        }
        result
    }
}

/// Whether an error means "the connection died under us" — the cases a
/// single redial-and-resend can fix (server restart, idle reap), as
/// opposed to a live server actively answering with an error.
fn is_stale_connection(e: &NetError) -> bool {
    match e {
        NetError::Disconnected => true,
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
