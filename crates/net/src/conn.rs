//! The nonblocking per-connection state machine — the *dispatch*
//! third of the poller / run-loop / dispatch seam.
//!
//! One [`MuxConn`] owns everything a connection is: its socket, the
//! codec it has negotiated (every connection starts in JSON v1 and
//! may upgrade to binary v2 via `Hello`), a reassembly buffer for
//! partially-read frames, and a bounded outbound queue of encoded
//! responses. It never blocks: the run loop calls
//! [`MuxConn::on_ready`] with the socket's readiness and gets back
//! what the connection wants to wait for next.
//!
//! # Wire behavior
//!
//! The contract, pinned by the unit tests below and the acceptance
//! suites, holds however a peer's bytes are split across reads:
//!
//! * JSON frames that are not UTF-8, or do not parse, are answered
//!   with a typed `MalformedRequest` and the connection survives;
//!   blank lines are tolerated as keep-alives.
//! * A JSON line may be at most [`wire::MAX_FRAME_BYTES`]
//!   (16 777 216) bytes long, its newline included. A connection
//!   whose next newline is not within that many bytes is answered
//!   `MalformedRequest` ("frame exceeds 16777216 bytes") under id 0
//!   and closes; bytes past the cap are never searched, so the
//!   reassembly buffer stays bounded.
//! * A binary header that loses byte framing (bad magic, foreign
//!   version, over-cap length prefix) is answered typed under id 0
//!   and the connection closes — without ever buffering the claimed
//!   payload. A payload that decodes badly under intact framing fails
//!   only its own frame.
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

/// Which codec the connection currently speaks.
enum Codec {
    Json,
    Binary,
}

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
    codec: Codec,
    /// Unconsumed input: partial frames under reassembly (and, right
    /// after an upgrade, binary frames an optimistic client sent
    /// before reading the `Hello` ack).
    in_buf: Vec<u8>,
    /// Where the next newline scan resumes (JSON mode) — bytes before
    /// this are known newline-free, so a slowloris connection costs
    /// one scan per byte, not one scan of the whole frame per byte.
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
            codec: Codec::Json,
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
            self.process_input(service, counters)?;
            if self.closing || self.paused {
                // Re-enter: flush the newly queued responses, and on
                // a drain-below-low-water resume buffered input — a
                // client that already sent everything gets no more
                // readiness events to finish the job for us.
                continue;
            }
            if self.peer_eof {
                self.finish_eof(service, counters)?;
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

    /// Dispatches every complete frame already in `in_buf`, stopping
    /// on a partial frame, a pause, or a close.
    fn process_input<S: QueryService + ?Sized>(
        &mut self,
        service: &S,
        counters: &TransportCounters,
    ) -> Result<(), ()> {
        loop {
            if self.paused || self.closing {
                return Ok(());
            }
            match self.codec {
                Codec::Json => {
                    // Only the first MAX_FRAME_BYTES bytes may hold the
                    // newline: one read can carry a line across the cap.
                    let capped = self.in_buf.len().min(MAX_FRAME_BYTES);
                    let Some(nl) = self.in_buf[self.scan_from..capped]
                        .iter()
                        .position(|&b| b == b'\n')
                        .map(|i| self.scan_from + i)
                    else {
                        self.scan_from = capped;
                        if self.in_buf.len() >= MAX_FRAME_BYTES {
                            // A newline-free stream must not grow this
                            // buffer unboundedly.
                            self.reject_and_close(
                                wire::WireResponse::error(
                                    0,
                                    wire::WireError::new(
                                        wire::ErrorCode::MalformedRequest,
                                        format!("frame exceeds {MAX_FRAME_BYTES} bytes"),
                                    ),
                                ),
                                counters,
                            );
                        }
                        return Ok(());
                    };
                    let line: Vec<u8> = self.in_buf.drain(..=nl).collect();
                    self.scan_from = 0;
                    self.handle_json_frame(&line, service, counters);
                }
                Codec::Binary => {
                    if self.in_buf.len() < binary::HEADER_BYTES {
                        return Ok(());
                    }
                    let header_bytes: &[u8; binary::HEADER_BYTES] = self.in_buf
                        [..binary::HEADER_BYTES]
                        .try_into()
                        .expect("length checked");
                    let header = match binary::decode_header(header_bytes) {
                        Ok(header) => header,
                        Err(e) => {
                            // Byte framing is lost (bad magic, foreign
                            // version, over-cap length): typed reject
                            // under id 0, close — and never buffer the
                            // claimed payload.
                            self.reject_and_close(wire::WireResponse::error(0, e), counters);
                            return Ok(());
                        }
                    };
                    let total = binary::HEADER_BYTES + header.payload_len;
                    if self.in_buf.len() < total {
                        return Ok(());
                    }
                    let response = match binary::decode_request(
                        &header,
                        &self.in_buf[binary::HEADER_BYTES..total],
                    ) {
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
                }
            }
        }
    }

    /// One raw JSON line: UTF-8 check, blank-line tolerance, `Hello`
    /// interception (this transport *can* switch framing), protocol
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
            Ok(wire::WireRequest {
                id,
                body: wire::RequestBody::Hello(offer),
                ..
            }) => {
                let version = wire::negotiate(offer.max_version, binary::PROTOCOL_VERSION);
                self.respond_json(&wire::hello_ack(id, version), counters);
                if version == binary::PROTOCOL_VERSION {
                    // The rest of `in_buf` (frames an optimistic client
                    // pipelined behind its offer) now parses as binary.
                    self.codec = Codec::Binary;
                    self.scan_from = 0;
                }
                return;
            }
            Ok(request) => {
                counters.add(&counters.frames_decoded, 1);
                wire::dispatch(service, request.id, request.body)
            }
            Err(e) => wire::WireResponse::error(e.id, e.error),
        };
        counters.count_report_ack(&response);
        self.respond_json(&response, counters);
    }

    /// The peer will send nothing more: answer any frame cut short by
    /// the close, then close after the flush.
    fn finish_eof<S: QueryService + ?Sized>(
        &mut self,
        service: &S,
        counters: &TransportCounters,
    ) -> Result<(), ()> {
        match self.codec {
            Codec::Json => {
                if !self.in_buf.is_empty() {
                    // A final frame missing only its newline is
                    // answered before closing. (An upgrade on the
                    // final frame is moot — the peer already closed.)
                    let line = std::mem::take(&mut self.in_buf);
                    self.scan_from = 0;
                    self.handle_json_frame(&line, service, counters);
                }
            }
            Codec::Binary => {
                if !self.in_buf.is_empty() {
                    // Complete frames were consumed before EOF was
                    // processed, so whatever remains is truncated.
                    let response = if self.in_buf.len() < binary::HEADER_BYTES {
                        wire::WireResponse::error(
                            0,
                            wire::WireError::new(
                                wire::ErrorCode::MalformedRequest,
                                "connection closed mid-header",
                            ),
                        )
                    } else {
                        let header_bytes: &[u8; binary::HEADER_BYTES] = self.in_buf
                            [..binary::HEADER_BYTES]
                            .try_into()
                            .expect("length checked");
                        match binary::decode_header(header_bytes) {
                            Ok(header) => wire::WireResponse::error(
                                header.id,
                                wire::WireError::new(
                                    wire::ErrorCode::MalformedRequest,
                                    "connection closed mid-payload",
                                ),
                            ),
                            Err(e) => wire::WireResponse::error(0, e),
                        }
                    };
                    self.in_buf.clear();
                    self.respond_binary(&response, counters);
                }
            }
        }
        self.closing = true;
        Ok(())
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

    /// Queues a typed rejection and flags the connection to close once
    /// the queue flushes.
    fn reject_and_close(&mut self, response: wire::WireResponse, counters: &TransportCounters) {
        match self.codec {
            Codec::Json => self.respond_json(&response, counters),
            Codec::Binary => self.respond_binary(&response, counters),
        }
        self.closing = true;
        // Closing overrides backpressure: drain and go.
        self.paused = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;
    use std::time::{Duration, Instant};

    use dpgrid_serve::{Catalog, QueryEngine};

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
        let mut line = wire::WireRequest::new(1, wire::RequestBody::Ping)
            .encode()
            .into_bytes();
        line.push(b'\n');
        line
    }

    fn answered(counters: &TransportCounters) -> bool {
        counters.responses.load(Ordering::Relaxed) > 0
    }

    /// Runs readiness passes, as the run loop would, until `done`
    /// holds or the connection closes. Returns whether it closed.
    fn pump_until(
        conn: &mut MuxConn,
        counters: &TransportCounters,
        done: impl Fn(&MuxConn) -> bool,
    ) -> bool {
        let engine = QueryEngine::new(Catalog::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if conn.on_ready(&engine, counters) == ConnState::Closed {
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
        std::thread::scope(|scope| {
            let mut writer = client.try_clone().unwrap();
            scope.spawn(move || writer.write_all(bytes).unwrap());
            pump_until(conn, counters, done)
        })
    }

    fn read_response(client: &TcpStream) -> wire::WireResponse {
        let mut line = String::new();
        BufReader::new(client).read_line(&mut line).unwrap();
        wire::WireResponse::decode(line.trim_end()).unwrap()
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
        let closed = pump_until(&mut conn, &counters, |_| answered(&counters));
        match read_response(&client).body {
            wire::ResponseBody::Error(e) => {
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
        assert_eq!(read_response(&client).body, wire::ResponseBody::Pong);
    }
}
