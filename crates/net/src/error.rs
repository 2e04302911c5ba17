//! Error type of the TCP transport.

use std::fmt;

use dpgrid_serve::wire::{ErrorCode, OverloadInfo, WireError};
use dpgrid_serve::ServeError;

/// Everything that can go wrong on the network path.
#[derive(Debug)]
pub enum NetError {
    /// The underlying socket failed (connect, read, write, bind).
    Io(std::io::Error),
    /// The peer sent bytes this protocol cannot understand: an
    /// unparseable frame, a response whose id does not match the
    /// request, or an unexpected response kind.
    Protocol(String),
    /// The server answered with a typed wire error; branch on
    /// [`WireError::code`] (e.g. `Overloaded` means back off and
    /// retry, `UnknownKey` means the release is not published).
    Server(WireError),
    /// The connection closed while a response was pending.
    Disconnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Protocol(why) => write!(f, "protocol violation: {why}"),
            NetError::Server(e) => write!(f, "server error: {e}"),
            NetError::Disconnected => write!(f, "connection closed mid-request"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Server(e) => Some(e),
            NetError::Protocol(_) | NetError::Disconnected => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// Convenience alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;

/// Maps one per-request wire error back onto the typed error an
/// in-process engine or collector raises — the inverse of
/// [`WireError::from_serve`], used by both the read path
/// ([`crate::RemoteShard`]) and the write path
/// ([`crate::ReportRouter`]). An `UnknownKey` is attributed to `key`.
/// One honest loss of fidelity: codes the caller cannot act on
/// (`Internal`, `MalformedRequest` — e.g. a read-only peer refusing
/// reports — and `UnsupportedVersion`) collapse into
/// [`ServeError::Unavailable`] naming `shard`.
pub(crate) fn wire_to_serve(e: WireError, shard: &str, key: &str) -> ServeError {
    match e.code {
        ErrorCode::UnknownKey => ServeError::UnknownRelease(key.to_string()),
        ErrorCode::InvalidQuery => ServeError::InvalidQuery(e.message),
        // The server sends its counters structured in the `overload`
        // field; an error without them reads as zeroes.
        ErrorCode::Overloaded => {
            let info = e.overload.unwrap_or(OverloadInfo {
                inflight_rects: 0,
                limit: 0,
            });
            ServeError::Overloaded {
                inflight_rects: info.inflight_rects,
                limit: info.limit,
            }
        }
        ErrorCode::MalformedRequest | ErrorCode::UnsupportedVersion | ErrorCode::Internal => {
            ServeError::Unavailable {
                shard: shard.to_string(),
                reason: e.to_string(),
            }
        }
    }
}
