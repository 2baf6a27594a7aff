//! Typed protocol errors and the client-side error type.
//!
//! [`ErrorCode`] is the wire-level vocabulary: every
//! [`ServeError`] a lookup can produce maps
//! onto one code via [`error_response_for`], so a *remote* client gets
//! the same overload semantics an in-process caller does —
//! [`ErrorCode::Overloaded`] carries the server's `retry_after` hint in
//! nanoseconds, and [`ErrorCode::DeadlineExceeded`] distinguishes
//! deadline drops from admission sheds. Before this crate those hints
//! died at the process boundary.

use std::time::Duration;

use memcom_serve::ServeError;

use crate::wire::{ErrorResponse, WireError};

/// The wire-level error vocabulary (`u16` on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ErrorCode {
    /// Shed at admission ([`ServeError::Overloaded`]); the response's
    /// `retry_after` is the server's suggested backoff.
    Overloaded = 1,
    /// Dropped at dequeue past its end-to-end deadline
    /// ([`ServeError::DeadlineExceeded`]).
    DeadlineExceeded = 2,
    /// No model with the requested name is registered
    /// ([`ServeError::ModelNotFound`]).
    ModelNotFound = 3,
    /// An id is outside the served vocabulary
    /// ([`ServeError::IdOutOfVocab`]).
    IdOutOfVocab = 4,
    /// The server is draining and no longer admits requests
    /// ([`ServeError::ShuttingDown`], and the server's own drain path).
    ShuttingDown = 5,
    /// The request frame violated the protocol (truncated body, bad
    /// UTF-8 model name, oversized length prefix, trailing bytes).
    Malformed = 6,
    /// The frame used an unknown protocol version or kind.
    Unsupported = 7,
    /// A server-side failure that is a bug or misconfiguration, not a
    /// load condition ([`ServeError::BatchPanicked`] and friends).
    Internal = 8,
}

impl ErrorCode {
    /// The wire representation.
    pub fn as_u16(self) -> u16 {
        self as u16
    }

    /// Parses the wire representation.
    pub fn from_u16(raw: u16) -> Option<Self> {
        Some(match raw {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::ModelNotFound,
            4 => ErrorCode::IdOutOfVocab,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Malformed,
            7 => ErrorCode::Unsupported,
            8 => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// Stable lower-snake name (exporter label, log lines).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ModelNotFound => "model_not_found",
            ErrorCode::IdOutOfVocab => "id_out_of_vocab",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Malformed => "malformed",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Maps a serving failure onto its typed wire error, preserving the
/// `retry_after` hint of [`ServeError::Overloaded`] so remote clients
/// can pace themselves exactly like in-process ones.
pub fn error_response_for(request_id: u64, err: &ServeError) -> ErrorResponse {
    let (code, retry_after) = match err {
        ServeError::Overloaded { retry_after, .. } => (ErrorCode::Overloaded, *retry_after),
        ServeError::DeadlineExceeded { .. } => (ErrorCode::DeadlineExceeded, Duration::ZERO),
        ServeError::ModelNotFound { .. } => (ErrorCode::ModelNotFound, Duration::ZERO),
        ServeError::IdOutOfVocab { .. } => (ErrorCode::IdOutOfVocab, Duration::ZERO),
        ServeError::ShuttingDown => (ErrorCode::ShuttingDown, Duration::ZERO),
        _ => (ErrorCode::Internal, Duration::ZERO),
    };
    ErrorResponse {
        request_id,
        code,
        retry_after,
        message: err.to_string(),
    }
}

/// Everything a [`NetClient`](crate::NetClient) call can fail with.
#[derive(Debug)]
pub enum NetError {
    /// A local I/O failure (connect, read, write).
    Io(std::io::Error),
    /// The peer violated the wire protocol.
    Protocol(WireError),
    /// The server answered with a typed error frame.
    Remote {
        /// The typed error.
        code: ErrorCode,
        /// Suggested backoff (non-zero only for
        /// [`ErrorCode::Overloaded`]).
        retry_after: Duration,
        /// The server's human-readable detail.
        message: String,
    },
    /// A degenerate load-run configuration (zero clients, bad rates, …),
    /// as rejected by [`memcom_serve::drive`].
    BadConfig(String),
    /// The connection closed with this request still pending — the
    /// request may or may not have been served; nothing was received
    /// for it.
    ConnectionClosed,
    /// The client was closed locally before or during this call.
    ClientClosed,
}

impl NetError {
    /// The typed error code, for [`NetError::Remote`] outcomes.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            NetError::Remote { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// The server's backoff hint, when this is an overload rejection.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            NetError::Remote {
                code: ErrorCode::Overloaded,
                retry_after,
                ..
            } => Some(*retry_after),
            _ => None,
        }
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "i/o error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Remote {
                code,
                retry_after,
                message,
            } => {
                write!(f, "server error [{code}]: {message}")?;
                if !retry_after.is_zero() {
                    write!(f, " (retry in {retry_after:?})")?;
                }
                Ok(())
            }
            NetError::BadConfig(context) => write!(f, "bad config: {context}"),
            NetError::ConnectionClosed => write!(f, "connection closed with the request pending"),
            NetError::ClientClosed => write!(f, "client already closed"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

/// The only serve-tier error raised *locally* in this crate (remote ones
/// arrive as [`NetError::Remote`]) is the load driver refusing a config.
impl From<ServeError> for NetError {
    fn from(e: ServeError) -> Self {
        NetError::BadConfig(match e {
            ServeError::BadConfig { context } => context,
            other => other.to_string(),
        })
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Protocol(e)
    }
}

/// Convenience alias used throughout this crate.
pub type Result<T> = std::result::Result<T, NetError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_roundtrip() {
        for code in [
            ErrorCode::Overloaded,
            ErrorCode::DeadlineExceeded,
            ErrorCode::ModelNotFound,
            ErrorCode::IdOutOfVocab,
            ErrorCode::ShuttingDown,
            ErrorCode::Malformed,
            ErrorCode::Unsupported,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_u16(code.as_u16()), Some(code));
        }
        assert_eq!(ErrorCode::from_u16(0), None);
        assert_eq!(ErrorCode::from_u16(999), None);
    }

    #[test]
    fn serve_errors_map_with_hints_preserved() {
        let shed = ServeError::Overloaded {
            waited: Duration::from_micros(200),
            retry_after: Duration::from_millis(4),
        };
        let resp = error_response_for(7, &shed);
        assert_eq!(resp.code, ErrorCode::Overloaded);
        assert_eq!(resp.retry_after, Duration::from_millis(4));
        assert_eq!(resp.request_id, 7);

        let expired = ServeError::DeadlineExceeded {
            queued: Duration::from_millis(30),
            deadline: Duration::from_millis(25),
        };
        assert_eq!(
            error_response_for(1, &expired).code,
            ErrorCode::DeadlineExceeded
        );
        assert_eq!(
            error_response_for(1, &ServeError::ShuttingDown).code,
            ErrorCode::ShuttingDown
        );
        assert_eq!(
            error_response_for(1, &ServeError::BatchPanicked).code,
            ErrorCode::Internal
        );
    }
}
