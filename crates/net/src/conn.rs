//! The nonblocking per-connection state machine — the *dispatch*
//! third of the poller / run-loop / dispatch seam.
//!
//! One [`MuxConn`] owns everything a connection is: its socket, a
//! reassembly buffer for partially-read frames, and a bounded outbound
//! queue of encoded responses. It keeps no codec state: each frame
//! names its codec by its first bytes and is answered in it, so one
//! connection may mix JSON v1 lines and binary v2 frames freely. It
//! never blocks: the run loop calls [`MuxConn::on_ready`] with the
//! socket's readiness and gets back what the connection wants to wait
//! for next.
//!
//! # Wire behavior
//!
//! The contract, pinned by the unit tests below and the acceptance
//! suites, holds however a peer's bytes are split across reads:
//!
//! * A frame opening with [`binary::MAGIC`] is a binary frame; any
//!   other byte opens a JSON line (a JSON text begins with an ASCII
//!   byte, the magic does not). A lone first magic byte waits for the
//!   next byte before the codec is decided.
//! * JSON frames that are not UTF-8, or do not parse, are answered
//!   with a typed `MalformedRequest` and the connection survives;
//!   blank lines are tolerated as keep-alives.
//! * A JSON line may be at most [`wire::MAX_FRAME_BYTES`]
//!   (16 777 216) bytes long, its newline included. A connection
//!   whose next newline is not within that many bytes is answered
//!   `MalformedRequest` ("frame exceeds 16777216 bytes") under id 0
//!   and closes; bytes past the cap are never searched, so the
//!   reassembly buffer stays bounded.
//! * A binary header that loses byte framing (foreign version,
//!   over-cap length prefix) is answered typed under id 0 and the
//!   connection closes — without ever buffering the claimed payload.
//!   A payload that decodes badly under intact framing fails only its
//!   own frame.
//! * EOF inside a frame is answered before closing: a JSON final
//!   frame missing its newline is served; a binary frame cut
//!   mid-header/mid-payload gets the matching typed error.
//!
//! # Backpressure
//!
//! Responses queue in per-connection buffers written with vectored,
//! `WouldBlock`-aware writes. When the queue crosses
//! [`HIGH_WATER`], the connection **pauses**: buffered input stops
//! being dispatched and read interest is dropped, so the kernel's
//! receive window fills and the client's sends stall — and no new
//! requests from this connection reach the engine (whose admission
//! control guards global overload; the pause guards per-connection
//! memory). Dispatch resumes once the queue drains to [`LOW_WATER`].
//! The pause is a *soft* bound: an in-progress response is always
//! queued whole, so the queue peaks below `HIGH_WATER` plus one
//! maximum frame.

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;

use dpgrid_serve::wire::{self, binary};
use dpgrid_serve::QueryService;

use crate::counters::TransportCounters;
use crate::poll::Interest;

/// Pause dispatching a connection's input once this many unsent
/// response bytes are queued.
pub(crate) const HIGH_WATER: usize = 1 << 20;

/// Resume once the queue drains below this.
pub(crate) const LOW_WATER: usize = HIGH_WATER / 2;

/// One read syscall's worth of input.
const READ_CHUNK: usize = 64 * 1024;

/// Gather at most this many queued frames per write syscall.
const MAX_IOVECS: usize = 16;

/// Keep at most this many drained frame buffers for reuse.
const SPARE_BUFFERS: usize = 8;

const MAX_FRAME_BYTES: usize = wire::MAX_FRAME_BYTES;

/// What a connection wants from the poller after an [`on_ready`]
/// pass, or that it is finished.
///
/// [`on_ready`]: MuxConn::on_ready
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ConnState {
    /// Keep watching with this interest.
    Open(Interest),
    /// Deregister, drop, close.
    Closed,
}

/// One multiplexed connection's complete state.
pub(crate) struct MuxConn {
    stream: TcpStream,
    /// Unconsumed input: complete frames not yet served and at most
    /// one partial frame under reassembly, in arrival order.
    in_buf: Vec<u8>,
    /// Where the newline scan of a partial JSON line resumes — bytes
    /// before this are known newline-free, so a slowloris connection
    /// costs one scan per byte, not one scan of the whole frame per
    /// byte.
    scan_from: usize,
    /// Encoded, unsent response frames, oldest first.
    out: VecDeque<Vec<u8>>,
    /// How much of `out.front()` is already written.
    front_written: usize,
    /// Total unsent bytes across `out`.
    out_bytes: usize,
    /// Drained frame buffers kept for reuse (capacity recycling).
    spare: Vec<Vec<u8>>,
    /// Dispatch is paused: the outbound queue crossed [`HIGH_WATER`].
    paused: bool,
    /// The peer half-closed; no more input will arrive.
    peer_eof: bool,
    /// Flush what is queued, then close.
    closing: bool,
}

enum ReadOutcome {
    Data,
    WouldBlock,
    Eof,
}

impl MuxConn {
    /// Wraps an accepted socket. The caller has already made it
    /// nonblocking and disabled Nagle.
    pub(crate) fn new(stream: TcpStream) -> Self {
        MuxConn {
            stream,
            in_buf: Vec::new(),
            scan_from: 0,
            out: VecDeque::new(),
            front_written: 0,
            out_bytes: 0,
            spare: Vec::new(),
            paused: false,
            peer_eof: false,
            closing: false,
        }
    }

    pub(crate) fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// The interest this connection currently needs (used at
    /// registration time and compared against after every pass).
    pub(crate) fn interest(&self) -> Interest {
        Interest {
            read: !self.closing && !self.paused && !self.peer_eof,
            write: self.out_bytes > 0,
        }
    }

    /// One readiness pass: flush what the socket will take, read what
    /// it has, dispatch every complete frame, repeat until nothing
    /// can make progress. Returns what to wait for next.
    pub(crate) fn on_ready<S: QueryService + ?Sized>(
        &mut self,
        service: &S,
        counters: &TransportCounters,
    ) -> ConnState {
        if self.pump(service, counters).is_err() {
            return ConnState::Closed;
        }
        if self.closing && self.out_bytes == 0 {
            return ConnState::Closed;
        }
        ConnState::Open(self.interest())
    }

    /// The progress loop. `Err(())` means the connection died at the
    /// transport level (reset, unexpected write failure) and should be
    /// dropped without ceremony.
    fn pump<S: QueryService + ?Sized>(
        &mut self,
        service: &S,
        counters: &TransportCounters,
    ) -> Result<(), ()> {
        loop {
            self.flush(counters)?;
            if self.paused && self.out_bytes <= LOW_WATER {
                self.paused = false;
            }
            if self.closing || self.paused {
                return Ok(());
            }
            self.process_input(service, counters);
            if self.closing || self.paused {
                // Re-enter: flush the newly queued responses, and on
                // a drain-below-low-water resume buffered input — a
                // client that already sent everything gets no more
                // readiness events to finish the job for us.
                continue;
            }
            if self.peer_eof {
                self.finish_eof(service, counters);
                continue;
            }
            match self.read_some(counters)? {
                ReadOutcome::Data => continue,
                ReadOutcome::Eof => {
                    self.peer_eof = true;
                    continue;
                }
                ReadOutcome::WouldBlock => {
                    self.flush(counters)?;
                    if self.paused && self.out_bytes <= LOW_WATER {
                        self.paused = false;
                        continue;
                    }
                    return Ok(());
                }
            }
        }
    }

    // --- socket I/O --------------------------------------------------

    /// One nonblocking read into the reassembly buffer.
    fn read_some(&mut self, counters: &TransportCounters) -> Result<ReadOutcome, ()> {
        let old_len = self.in_buf.len();
        self.in_buf.resize(old_len + READ_CHUNK, 0);
        loop {
            match (&self.stream).read(&mut self.in_buf[old_len..]) {
                Ok(0) => {
                    self.in_buf.truncate(old_len);
                    return Ok(ReadOutcome::Eof);
                }
                Ok(n) => {
                    self.in_buf.truncate(old_len + n);
                    counters.add(&counters.bytes_in, n as u64);
                    return Ok(ReadOutcome::Data);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.in_buf.truncate(old_len);
                    return Ok(ReadOutcome::WouldBlock);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.in_buf.truncate(old_len);
                    return Err(());
                }
            }
        }
    }

    /// Writes queued frames with gathered, `WouldBlock`-aware vectored
    /// writes until the queue drains or the socket refuses more.
    fn flush(&mut self, counters: &TransportCounters) -> Result<(), ()> {
        while self.out_bytes > 0 {
            let mut iovecs: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_IOVECS.min(self.out.len()));
            for (i, frame) in self.out.iter().take(MAX_IOVECS).enumerate() {
                let start = if i == 0 { self.front_written } else { 0 };
                iovecs.push(IoSlice::new(&frame[start..]));
            }
            match (&self.stream).write_vectored(&iovecs) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    counters.add(&counters.bytes_out, n as u64);
                    self.consume_out(n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    counters.add(&counters.write_stalls, 1);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(()),
            }
        }
        Ok(())
    }

    /// Accounts `n` written bytes, recycling fully-sent frames.
    fn consume_out(&mut self, mut n: usize) {
        self.out_bytes -= n;
        while n > 0 {
            let front_len = self.out.front().expect("bytes imply frames").len();
            let remaining = front_len - self.front_written;
            if n < remaining {
                self.front_written += n;
                return;
            }
            n -= remaining;
            self.front_written = 0;
            let mut done = self.out.pop_front().expect("checked nonempty");
            if self.spare.len() < SPARE_BUFFERS {
                done.clear();
                self.spare.push(done);
            }
        }
    }

    // --- frame processing --------------------------------------------

    /// Dispatches every complete frame already in `in_buf`, each in
    /// the codec its first bytes name, stopping on a partial frame, a
    /// pause, or a close.
    fn process_input<S: QueryService + ?Sized>(
        &mut self,
        service: &S,
        counters: &TransportCounters,
    ) {
        while !self.paused && !self.closing && !self.in_buf.is_empty() {
            let served = if opens_binary(&self.in_buf) {
                self.serve_binary_frame(service, counters)
            } else {
                self.serve_json_line(service, counters)
            };
            if !served {
                return;
            }
        }
    }

    /// Serves the JSON line at the head of `in_buf`; `false` while its
    /// newline has not arrived.
    fn serve_json_line<S: QueryService + ?Sized>(
        &mut self,
        service: &S,
        counters: &TransportCounters,
    ) -> bool {
        // Only the first MAX_FRAME_BYTES bytes may hold the newline:
        // one read can carry a line across the cap.
        let capped = self.in_buf.len().min(MAX_FRAME_BYTES);
        let Some(nl) = self.in_buf[self.scan_from..capped]
            .iter()
            .position(|&b| b == b'\n')
            .map(|i| self.scan_from + i)
        else {
            self.scan_from = capped;
            if self.in_buf.len() >= MAX_FRAME_BYTES {
                // A newline-free stream must not grow this buffer
                // unboundedly.
                let cap = wire::WireError::new(
                    wire::ErrorCode::MalformedRequest,
                    format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                );
                self.respond_json(&wire::WireResponse::error(0, cap), counters);
                self.close_after_flush();
            }
            return false;
        };
        let line: Vec<u8> = self.in_buf.drain(..=nl).collect();
        self.scan_from = 0;
        self.handle_json_frame(&line, service, counters);
        true
    }

    /// Serves the binary frame at the head of `in_buf`; `false` while
    /// it is incomplete, or when its header loses byte framing.
    fn serve_binary_frame<S: QueryService + ?Sized>(
        &mut self,
        service: &S,
        counters: &TransportCounters,
    ) -> bool {
        let Some(header_bytes) = self.in_buf.first_chunk::<{ binary::HEADER_BYTES }>() else {
            return false;
        };
        let header = match binary::decode_header(header_bytes) {
            Ok(header) => header,
            Err(e) => {
                // Byte framing is lost (foreign version, over-cap
                // length): typed reject under id 0, close — and never
                // buffer the claimed payload.
                self.respond_binary(&wire::WireResponse::error(0, e), counters);
                self.close_after_flush();
                return false;
            }
        };
        let total = binary::HEADER_BYTES + header.payload_len;
        if self.in_buf.len() < total {
            return false;
        }
        let response =
            match binary::decode_request(&header, &self.in_buf[binary::HEADER_BYTES..total]) {
                Ok(request) => {
                    counters.add(&counters.frames_decoded, 1);
                    wire::dispatch(service, request.id, request.body)
                }
                // Framing held; only this frame fails.
                Err(e) => wire::WireResponse::error(header.id, e),
            };
        counters.count_report_ack(&response);
        self.in_buf.drain(..total);
        self.respond_binary(&response, counters);
        true
    }

    /// One raw JSON line: UTF-8 check, blank-line tolerance, protocol
    /// dispatch.
    fn handle_json_frame<S: QueryService + ?Sized>(
        &mut self,
        raw: &[u8],
        service: &S,
        counters: &TransportCounters,
    ) {
        let Ok(frame) = std::str::from_utf8(raw) else {
            self.respond_json(
                &wire::WireResponse::error(
                    0,
                    wire::WireError::new(
                        wire::ErrorCode::MalformedRequest,
                        "frame is not valid UTF-8",
                    ),
                ),
                counters,
            );
            return;
        };
        let frame = frame.trim_end_matches(['\r', '\n']);
        if frame.is_empty() {
            return;
        }
        let response = match wire::WireRequest::decode(frame) {
            Ok(request) => {
                counters.add(&counters.frames_decoded, 1);
                wire::dispatch(service, request.id, request.body)
            }
            Err(e) => wire::WireResponse::error(e.id, e.error),
        };
        counters.count_report_ack(&response);
        self.respond_json(&response, counters);
    }

    /// The peer will send nothing more: answer the frame cut short by
    /// the close, if any, then close after the flush.
    fn finish_eof<S: QueryService + ?Sized>(&mut self, service: &S, counters: &TransportCounters) {
        self.closing = true;
        // Complete frames were served before EOF was processed, so
        // whatever remains is one truncated frame.
        let rest = std::mem::take(&mut self.in_buf);
        self.scan_from = 0;
        if rest.is_empty() {
            return;
        }
        if !opens_binary(&rest) {
            // A final JSON line missing only its newline is served.
            self.handle_json_frame(&rest, service, counters);
            return;
        }
        let response = match rest.first_chunk::<{ binary::HEADER_BYTES }>() {
            None => wire::WireResponse::error(
                0,
                wire::WireError::new(
                    wire::ErrorCode::MalformedRequest,
                    "connection closed mid-header",
                ),
            ),
            Some(header_bytes) => match binary::decode_header(header_bytes) {
                Ok(header) => wire::WireResponse::error(
                    header.id,
                    wire::WireError::new(
                        wire::ErrorCode::MalformedRequest,
                        "connection closed mid-payload",
                    ),
                ),
                Err(e) => wire::WireResponse::error(0, e),
            },
        };
        self.respond_binary(&response, counters);
    }

    // --- response queueing -------------------------------------------

    fn take_buffer(&mut self) -> Vec<u8> {
        self.spare.pop().unwrap_or_default()
    }

    fn respond_json(&mut self, response: &wire::WireResponse, counters: &TransportCounters) {
        let mut frame = self.take_buffer();
        frame.extend_from_slice(response.encode().as_bytes());
        frame.push(b'\n');
        self.enqueue(frame, counters);
    }

    fn respond_binary(&mut self, response: &wire::WireResponse, counters: &TransportCounters) {
        let mut frame = self.take_buffer();
        if binary::encode_response(response, &mut frame).is_err() {
            // The response itself exceeds the frame cap: answerable
            // but not shippable, which is the server's problem.
            let oversized = wire::WireResponse::error(
                response.id,
                wire::WireError::new(
                    wire::ErrorCode::Internal,
                    "response exceeds the frame byte cap; split the batch",
                ),
            );
            binary::encode_response(&oversized, &mut frame)
                .expect("error frames are far below the frame cap");
        }
        self.enqueue(frame, counters);
    }

    /// Queues one encoded response (counted before any byte moves, so
    /// totals are visible by the time a client reads the response) and
    /// applies the high-water pause.
    fn enqueue(&mut self, frame: Vec<u8>, counters: &TransportCounters) {
        counters.add(&counters.responses, 1);
        self.out_bytes += frame.len();
        self.out.push_back(frame);
        if self.out_bytes >= HIGH_WATER && !self.paused && !self.closing {
            self.paused = true;
            counters.add(&counters.read_stalls, 1);
        }
    }

    /// Flags the connection to close once its queue flushes, after a
    /// typed rejection that lost the peer's framing.
    fn close_after_flush(&mut self) {
        self.closing = true;
        // Closing overrides backpressure: drain and go.
        self.paused = false;
    }
}

/// Whether `buf`, the head of a frame, opens a binary frame: it starts
/// with [`binary::MAGIC`], or is so far only a prefix of it (a lone
/// first magic byte, whose codec the next byte decides).
fn opens_binary(buf: &[u8]) -> bool {
    binary::MAGIC.starts_with(&buf[..buf.len().min(binary::MAGIC.len())])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    use dpgrid_core::{epoch_key, EpochRange, Method, Pipeline, Release};
    use dpgrid_geo::generators::PaperDataset;
    use dpgrid_geo::Domain;
    use dpgrid_ldp::{CollectingService, CollectorConfig, ReportCollector};
    use dpgrid_mech::BudgetSchedule;
    use dpgrid_serve::wire::{
        RequestBody, ResponseBody, WireQuery, WireRect, WireReportBatch, WireRequest, WireResponse,
        WireWindow,
    };
    use dpgrid_serve::{Catalog, QueryEngine, ReportBatch, ReportPayload};

    /// A server-side connection and its client over loopback.
    fn loopback_pair() -> (MuxConn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (MuxConn::new(server), client)
    }

    fn ping_line() -> Vec<u8> {
        let mut line = WireRequest::new(1, RequestBody::Ping).encode().into_bytes();
        line.push(b'\n');
        line
    }

    fn answered(counters: &TransportCounters) -> bool {
        counters.responses.load(Ordering::Relaxed) > 0
    }

    /// Runs readiness passes, as the run loop would, until `done`
    /// holds or the connection closes. Returns whether it closed.
    fn pump_until<S: QueryService + ?Sized>(
        conn: &mut MuxConn,
        service: &S,
        counters: &TransportCounters,
        done: impl Fn(&MuxConn) -> bool,
    ) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if conn.on_ready(service, counters) == ConnState::Closed {
                return true;
            }
            if done(conn) {
                return false;
            }
            assert!(Instant::now() < deadline, "connection stopped progressing");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Writes `bytes` from the client while the connection reads them,
    /// until `done` holds or the connection closes.
    fn feed(
        conn: &mut MuxConn,
        client: &TcpStream,
        counters: &TransportCounters,
        bytes: &[u8],
        done: impl Fn(&MuxConn) -> bool,
    ) -> bool {
        let engine = QueryEngine::new(Catalog::new());
        std::thread::scope(|scope| {
            let mut writer = client.try_clone().unwrap();
            scope.spawn(move || writer.write_all(bytes).unwrap());
            pump_until(conn, &engine, counters, done)
        })
    }

    fn read_response(client: &TcpStream) -> WireResponse {
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).unwrap();
        WireResponse::decode(line.trim_end()).unwrap()
    }

    #[test]
    fn newline_arriving_past_the_json_cap_is_rejected() {
        let (mut conn, client) = loopback_pair();
        let counters = TransportCounters::default();
        let padding = vec![b' '; MAX_FRAME_BYTES - 10];
        let closed = feed(&mut conn, &client, &counters, &padding, |c| {
            c.in_buf.len() == padding.len()
        });
        assert!(!closed, "a line under the cap must stay open");

        // One write carries the line's newline across the cap.
        (&client).write_all(&ping_line()).unwrap();
        let engine = QueryEngine::new(Catalog::new());
        let closed = pump_until(&mut conn, &engine, &counters, |_| answered(&counters));
        match read_response(&client).body {
            ResponseBody::Error(e) => {
                assert_eq!(e.code, wire::ErrorCode::MalformedRequest);
                assert_eq!(e.message, format!("frame exceeds {MAX_FRAME_BYTES} bytes"));
            }
            other => panic!("expected the frame-cap reject, got {other:?}"),
        }
        assert!(closed, "an over-cap line closes the connection");
        drop(conn);
        let mut rest = Vec::new();
        assert_eq!((&client).read_to_end(&mut rest).unwrap(), 0);
    }

    #[test]
    fn json_line_of_exactly_the_cap_is_served() {
        let (mut conn, client) = loopback_pair();
        let counters = TransportCounters::default();
        let ping = ping_line();
        let mut line = vec![b' '; MAX_FRAME_BYTES - ping.len()];
        line.extend_from_slice(&ping);
        assert_eq!(line.len(), MAX_FRAME_BYTES);
        let closed = feed(&mut conn, &client, &counters, &line, |_| {
            answered(&counters)
        });
        assert!(!closed);
        assert_eq!(read_response(&client).body, ResponseBody::Pong);
    }

    /// Serves one connection whose peer sends `writes` in order, each
    /// only once the server has read every byte before it, and then
    /// half-closes. Returns every reply byte the peer received.
    fn serve_writes<'a, S: QueryService + ?Sized>(
        service: &S,
        writes: impl IntoIterator<Item = &'a [u8]>,
    ) -> Vec<u8> {
        let (mut conn, mut client) = loopback_pair();
        let counters = TransportCounters::default();
        let mut sent = 0;
        for bytes in writes {
            client.write_all(bytes).unwrap();
            sent += bytes.len() as u64;
            let read_all = |_: &MuxConn| counters.bytes_in.load(Ordering::Relaxed) == sent;
            assert!(!pump_until(&mut conn, service, &counters, read_all));
        }
        client.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(pump_until(&mut conn, service, &counters, |_| false));
        drop(conn);
        let mut replies = Vec::new();
        client.read_to_end(&mut replies).unwrap();
        replies
    }

    /// Splits a reply stream into its frames, each decoded in the codec
    /// its first bytes name (`true` = binary).
    fn decode_replies(mut bytes: &[u8]) -> Vec<(bool, WireResponse)> {
        let mut replies = Vec::new();
        while !bytes.is_empty() {
            if bytes.starts_with(&binary::MAGIC) {
                let header = binary::decode_header(bytes.first_chunk().unwrap()).unwrap();
                let end = binary::HEADER_BYTES + header.payload_len;
                let payload = &bytes[binary::HEADER_BYTES..end];
                replies.push((true, binary::decode_response(&header, payload).unwrap()));
                bytes = &bytes[end..];
            } else {
                let nl = bytes.iter().position(|&b| b == b'\n').unwrap();
                let line = std::str::from_utf8(&bytes[..nl]).unwrap();
                replies.push((false, WireResponse::decode(line).unwrap()));
                bytes = &bytes[nl + 1..];
            }
        }
        replies
    }

    /// One release `a` and two epochs of keyspace `taxi`.
    fn releases() -> Vec<(String, Release)> {
        let data = PaperDataset::Storage.generate_n(5, 1_000).unwrap();
        let keys = [
            "a".to_string(),
            epoch_key("taxi", EpochRange::single(0)),
            epoch_key("taxi", EpochRange::single(1)),
        ];
        (1..)
            .zip(keys)
            .map(|(seed, key)| {
                let release = Pipeline::new(&data)
                    .method(Method::ug(8))
                    .seed(seed)
                    .publish()
                    .unwrap();
                (key, release)
            })
            .collect()
    }

    /// A collecting service over `releases` in a fresh catalog, with an
    /// 8 × 8 collector for keyspace `ldp`: every run starts from the
    /// same state, so its replies repeat byte for byte.
    fn fresh_service(releases: &[(String, Release)]) -> CollectingService<QueryEngine> {
        let mut catalog = Catalog::new();
        for (key, release) in releases {
            catalog.insert(key.clone(), release.clone());
        }
        let config = CollectorConfig::new(
            "ldp",
            Domain::from_corners(0.0, 0.0, 8.0, 8.0).unwrap(),
            8,
            8,
            BudgetSchedule::uniform(1.0, 4).unwrap(),
        )
        .unwrap();
        CollectingService::new(
            QueryEngine::new(catalog),
            ReportCollector::new(config).unwrap(),
        )
    }

    /// Every request kind in both codecs, a query for a missing key in
    /// each, and a blank line after a binary frame. Returns the train
    /// and, per reply, its codec (`true` = binary) and id.
    fn mixed_train(epsilon: f64) -> (Vec<u8>, Vec<(bool, u64)>) {
        let rect = WireRect {
            x0: -120.0,
            y0: 20.0,
            x1: -90.0,
            y1: 40.0,
        };
        let query = |key: &str| {
            RequestBody::Query(WireQuery {
                release_key: key.into(),
                rects: vec![rect, rect],
            })
        };
        let window = || {
            RequestBody::Window(WireWindow {
                keyspace: "taxi".into(),
                epoch_start: 0,
                epoch_end: 2,
                rects: vec![rect],
            })
        };
        let report = |payload| {
            RequestBody::Report(WireReportBatch::from_batch(&ReportBatch {
                keyspace: "ldp".into(),
                epoch: 0,
                epsilon,
                cells: 64,
                payload,
            }))
        };
        let frames = [
            Some((false, query("a"))),
            Some((true, query("a"))),
            None,
            Some((true, window())),
            Some((false, window())),
            Some((false, report(ReportPayload::Grr(vec![1, 2, 63])))),
            Some((
                true,
                report(ReportPayload::Oue {
                    count: 2,
                    bits: vec![1 << 5, u64::MAX],
                }),
            )),
            Some((true, RequestBody::Keys)),
            Some((false, RequestBody::Keys)),
            Some((false, RequestBody::Ping)),
            Some((true, RequestBody::Ping)),
            Some((true, query("missing"))),
            Some((false, query("missing"))),
            Some((false, RequestBody::Stats)),
            Some((true, RequestBody::Stats)),
        ];
        let mut train = Vec::new();
        let mut expected = Vec::new();
        for frame in frames {
            let Some((is_binary, body)) = frame else {
                train.push(b'\n');
                continue;
            };
            let request = WireRequest::new(expected.len() as u64 + 1, body);
            if is_binary {
                binary::append_request(&request, &mut train).unwrap();
            } else {
                train.extend_from_slice(request.encode().as_bytes());
                train.push(b'\n');
            }
            expected.push((is_binary, request.id));
        }
        (train, expected)
    }

    #[test]
    fn mixed_train_reassembles_identically_however_it_is_split() {
        let releases = releases();
        let epsilon = fresh_service(&releases).with_collector(|c| c.open_epsilon().unwrap());
        let (train, expected) = mixed_train(epsilon);
        let whole = serve_writes(&fresh_service(&releases), [&train[..]]);

        // Every frame is answered once, in order, in its own codec.
        let replies = decode_replies(&whole);
        let codec_and_id: Vec<(bool, u64)> = replies.iter().map(|(b, r)| (*b, r.id)).collect();
        assert_eq!(codec_and_id, expected);
        for pair in replies.chunks(2) {
            let [(_, json_or_first), (_, second)] = pair else {
                panic!("replies come in pairs");
            };
            match (&json_or_first.body, &second.body) {
                (ResponseBody::Answers(a), ResponseBody::Answers(b)) => {
                    assert_eq!(a.answers, b.answers)
                }
                (ResponseBody::Window(a), ResponseBody::Window(b)) => assert_eq!(a, b),
                (ResponseBody::Report(a), ResponseBody::Report(b)) => {
                    assert_eq!((a.accepted, b.accepted), (3, 2))
                }
                (ResponseBody::Keys(a), ResponseBody::Keys(b)) => assert_eq!(a, b),
                (ResponseBody::Pong, ResponseBody::Pong) => {}
                (ResponseBody::Error(a), ResponseBody::Error(b)) => {
                    assert_eq!(a.code, wire::ErrorCode::UnknownKey);
                    assert_eq!(a, b);
                }
                (ResponseBody::Stats(a), ResponseBody::Stats(b)) => {
                    assert_eq!(a, b)
                }
                other => panic!("mismatched replies {other:?}"),
            }
        }

        // The same bytes, split into two writes at every boundary and
        // then one byte per write, get the same reply bytes.
        for cut in 1..train.len() {
            let split = serve_writes(&fresh_service(&releases), [&train[..cut], &train[cut..]]);
            assert!(split == whole, "split at byte {cut} of {}", train.len());
        }
        let dribbled = serve_writes(&fresh_service(&releases), train.chunks(1));
        assert!(dribbled == whole, "one byte per write");
    }

    #[test]
    fn eof_inside_a_frame_is_answered_in_its_codec() {
        let engine = QueryEngine::new(Catalog::new());
        // A JSON line cut before its newline is served.
        let ping = WireRequest::new(7, RequestBody::Ping);
        let replies = decode_replies(&serve_writes(&engine, [ping.encode().as_bytes()]));
        assert_eq!(replies, [(false, WireResponse::new(7, ResponseBody::Pong))]);

        // A binary frame cut short fails typed, in binary: under id 0
        // inside the header (a lone first magic byte included), under
        // the header's id inside the payload.
        let query = WireRequest::new(
            9,
            RequestBody::Query(WireQuery {
                release_key: "k".into(),
                rects: Vec::new(),
            }),
        );
        let mut frame = Vec::new();
        binary::append_request(&query, &mut frame).unwrap();
        for cut in [
            1,
            2,
            binary::HEADER_BYTES - 1,
            binary::HEADER_BYTES,
            frame.len() - 1,
        ] {
            let (id, why) = if cut < binary::HEADER_BYTES {
                (0, "connection closed mid-header")
            } else {
                (9, "connection closed mid-payload")
            };
            let replies = decode_replies(&serve_writes(&engine, [&frame[..cut]]));
            let mut error = WireResponse::error(
                id,
                wire::WireError::new(wire::ErrorCode::MalformedRequest, why),
            );
            error.protocol_version = binary::PROTOCOL_VERSION;
            assert_eq!(replies, [(true, error)], "cut at {cut}");
        }
    }
}
