//! The length-framed binary wire protocol.
//!
//! Every message travels as one **frame**:
//!
//! ```text
//! [u32 LE payload length][payload]
//! payload = [u8 version][u8 kind][u64 LE request id][body]
//! ```
//!
//! The request id is chosen by the client and echoed verbatim in the
//! response, which is what makes **pipelining** work: a client may have
//! any number of requests in flight on one connection and match answers
//! by id. Connection-level errors the server cannot attribute to a
//! request (an unknown protocol version, an oversized length prefix)
//! are reported with request id [`CONNECTION_REQUEST_ID`] and followed
//! by a clean close.
//!
//! # Frame layout, per kind
//!
//! All integers are little-endian. Offsets below are relative to the
//! start of the *payload* (after the 4-byte length prefix); every
//! payload opens with the fixed [`HEADER_LEN`]-byte header.
//!
//! Common header (all kinds):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0 | 1 | protocol version ([`PROTOCOL_VERSION`]) |
//! | 1 | 1 | frame kind |
//! | 2 | 8 | request id (`u64`) |
//!
//! [`KIND_LOOKUP`] `= 1` (client → server) — batch row lookup. Body:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 10 | 1 | dtype hint (`0` = none, then [`Dtype`] codes 1–5: f32, f16, int8, int4, int2) |
//! | 11 | 8 | deadline in nanoseconds (`0` = no deadline) |
//! | 19 | 2 | model-name length `m` (≤ [`MAX_MODEL_LEN`]) |
//! | 21 | m | model name (UTF-8) |
//! | 21+m | 4 | id count `n` |
//! | 25+m | 8·n | ids (`u64` each) |
//!
//! [`KIND_ROWS`] `= 2` (server → client) — the response slab for both
//! lookups (`rows = n ids`, `dim` = embedding width, values in request
//! order) and scores (`rows = 1`, `dim` = the backend's output width).
//! Body:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 10 | 4 | row count |
//! | 14 | 4 | row dimensionality `dim` |
//! | 18 | 4·rows·dim | row-major `f32` values |
//!
//! [`KIND_ERROR`] `= 3` (server → client) — a typed rejection. Body:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 10 | 2 | error code ([`ErrorCode`] as `u16`, catalog below) |
//! | 12 | 8 | `retry_after` hint in nanoseconds (non-zero only for `overloaded`) |
//! | 20 | 4 | message length `k` |
//! | 24 | k | human-readable message (UTF-8) |
//!
//! [`KIND_SCORE`] `= 4` (client → server) — full-model scoring: the N
//! ids are gathered as embedding rows and pushed through the model's
//! registered inference backend
//! ([`InferBackend`](memcom_serve::InferBackend)) server-side; the
//! response is a [`KIND_ROWS`] frame carrying one row of K scores.
//! Body: **identical to [`KIND_LOOKUP`]** (dtype hint, deadline, model,
//! ids) — only the kind byte distinguishes a lookup from a score, so a
//! lookup-speaking implementation gains scoring by switching one byte.
//!
//! # Error-code catalog
//!
//! | code | name | meaning |
//! |-----:|------|---------|
//! | 1 | `overloaded` | shed at admission; `retry_after` carries the server's backoff hint |
//! | 2 | `deadline_exceeded` | dropped at dequeue past its end-to-end deadline |
//! | 3 | `model_not_found` | no model registered under the requested name |
//! | 4 | `id_out_of_vocab` | an id is outside the served vocabulary |
//! | 5 | `shutting_down` | the server is draining and no longer admits requests |
//! | 6 | `malformed` | the frame violated the protocol (truncated, trailing bytes, bad UTF-8, oversized prefix) |
//! | 7 | `unsupported` | unknown protocol version or frame kind |
//! | 8 | `internal` | a server-side bug or misconfiguration, not a load condition |
//!
//! # Version and compatibility rules
//!
//! * The version byte is checked **first**; a frame with an unknown
//!   version is answered `unsupported` at [`CONNECTION_REQUEST_ID`] and
//!   the connection closes — nothing after an untrusted version byte is
//!   interpreted.
//! * Within a version, field order and widths never change, and new
//!   fields are never inserted; extension happens by **adding kinds**.
//!   A server that does not know a kind answers `unsupported` with the
//!   request id echoed and keeps the connection — so a new-kind client
//!   degrades per-request against an old server (this is exactly how
//!   [`KIND_SCORE`] rolls out over version-1 framing).
//! * Responses never introduce kinds the client did not trigger: a
//!   request is answered by [`KIND_ROWS`] or [`KIND_ERROR`], nothing
//!   else.
//!
//! Decoding is strict: unknown versions or kinds, truncated bodies,
//! trailing bytes, oversized model names, and invalid dtype codes are
//! all [`WireError`]s — the server answers them with a typed error
//! frame (or closes, when the stream itself can no longer be trusted)
//! and **never panics** on hostile input; `tests/wire_prop.rs` drives
//! the decoder through exactly these corruptions.
//!
//! The id and row slabs are the bulk of a frame (a 1024-row reply at
//! dim 64 is 256 KB). Each crosses the codec in one pass: the encoders
//! append a slab with one exact-length `extend`, and the decoder
//! bounds-checks a slab once and reads it in place ([`decode_payload`]
//! then copies it into its `Vec` in one exact-length pass).

use std::io::Read;
use std::time::Duration;

use memcom_serve::Dtype;

use crate::error::ErrorCode;

/// Protocol version this crate speaks.
pub const PROTOCOL_VERSION: u8 = 1;

/// Request id used for connection-level error frames that answer no
/// particular request (bad version, oversized frame).
pub const CONNECTION_REQUEST_ID: u64 = 0;

/// Frame kind: batch-lookup request (client → server).
pub const KIND_LOOKUP: u8 = 1;
/// Frame kind: row-slab response (server → client).
pub const KIND_ROWS: u8 = 2;
/// Frame kind: typed-error response (server → client).
pub const KIND_ERROR: u8 = 3;
/// Frame kind: full-model score request (client → server). Same body
/// layout as [`KIND_LOOKUP`]; answered with a [`KIND_ROWS`] frame of
/// one row holding the backend's K output scores.
pub const KIND_SCORE: u8 = 4;

/// Default cap on one frame's payload length. A length prefix above the
/// configured cap is a protocol violation answered with
/// [`ErrorCode::Malformed`] and a close — it is never allocated.
pub const DEFAULT_MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Longest accepted model name on the wire, in bytes.
pub const MAX_MODEL_LEN: usize = 1024;

/// Fixed bytes before the body: version, kind, request id.
pub const HEADER_LEN: usize = 1 + 1 + 8;

/// What strict decoding can reject. Every variant is an answerable
/// condition, not a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The version byte is not [`PROTOCOL_VERSION`]. The rest of the
    /// stream cannot be trusted; the peer answers at
    /// [`CONNECTION_REQUEST_ID`] and closes.
    UnknownVersion(u8),
    /// The kind byte names no known message.
    UnknownKind(u8),
    /// The body ended before the field being read.
    Truncated(&'static str),
    /// Bytes remained after the last field — the declared length and
    /// the body disagree.
    TrailingBytes(usize),
    /// The model-name length exceeds [`MAX_MODEL_LEN`].
    ModelTooLong(usize),
    /// The model name is not valid UTF-8.
    BadModelUtf8,
    /// The dtype-hint byte names no known dtype.
    BadDtype(u8),
    /// The error-code field names no known [`ErrorCode`].
    BadErrorCode(u16),
    /// The frame's length prefix exceeds the configured cap; reported
    /// by [`FrameReader::read_frame`], never allocated.
    Oversized {
        /// The declared payload length.
        declared: u32,
        /// The configured cap.
        max: u32,
    },
    /// The message being **encoded** would not fit one frame — its
    /// payload exceeds [`DEFAULT_MAX_FRAME_LEN`] or a length field's
    /// integer width. Reported before any bytes are written, where the
    /// old encoders silently truncated counts with `as u32`/`as u16`
    /// and produced a self-consistent frame carrying the wrong data.
    TooLarge {
        /// The payload size the message would need.
        payload: u64,
        /// The frame cap it exceeds.
        max: u32,
    },
    /// A row slab whose geometry is inconsistent: `dim == 0` with
    /// non-empty data, or a data length that is not a multiple of
    /// `dim`. The old encoder hid both as a "0 rows" frame.
    BadSlab {
        /// The flat data length.
        len: usize,
        /// The claimed row dimensionality.
        dim: u32,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownVersion(v) => write!(f, "unknown protocol version {v}"),
            WireError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Truncated(field) => write!(f, "frame truncated at {field}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last field"),
            WireError::ModelTooLong(n) => {
                write!(f, "model name of {n} bytes exceeds {MAX_MODEL_LEN}")
            }
            WireError::BadModelUtf8 => write!(f, "model name is not valid UTF-8"),
            WireError::BadDtype(b) => write!(f, "unknown dtype code {b}"),
            WireError::BadErrorCode(c) => write!(f, "unknown error code {c}"),
            WireError::Oversized { declared, max } => {
                write!(
                    f,
                    "length prefix {declared} exceeds the {max}-byte frame cap"
                )
            }
            WireError::TooLarge { payload, max } => {
                write!(
                    f,
                    "message needs a {payload}-byte payload, over the {max}-byte frame cap"
                )
            }
            WireError::BadSlab { len, dim } => {
                write!(f, "row slab of {len} values is not rows of dim {dim}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A batch-lookup request.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupRequest {
    /// Client-chosen id echoed in the response (pipelining key).
    pub request_id: u64,
    /// Registered model name on the server's router.
    pub model: String,
    /// Ids to look up, in response row order.
    pub ids: Vec<u64>,
    /// Advisory storage-dtype hint (`None` = no preference). Rows are
    /// served as f32 either way today; the field reserves negotiation
    /// room for wire-level quantized row encodings.
    pub dtype_hint: Option<Dtype>,
    /// Per-request end-to-end deadline, mapped onto the server's
    /// [`AdmissionPolicy::Shed`](memcom_serve::AdmissionPolicy::Shed)
    /// deadline check (tightest of this and the server's own deadline
    /// wins; ignored under blocking admission). `None` = no deadline.
    pub deadline: Option<Duration>,
}

/// A full-model score request: the ids are gathered as embedding rows
/// server-side and pushed through the model's registered inference
/// backend; the response is one row of K scores. Its body is a
/// [`LookupRequest`]'s — on the wire only the kind byte differs.
pub type ScoreRequest = LookupRequest;

/// A row-slab response: `data.len() / dim` rows of `dim` f32 values in
/// request order.
#[derive(Debug, Clone, PartialEq)]
pub struct RowsResponse {
    /// Echoed request id.
    pub request_id: u64,
    /// Row dimensionality.
    pub dim: u32,
    /// Row-major f32 values, `rows * dim` long.
    pub data: Vec<f32>,
}

/// A typed-error response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorResponse {
    /// Echoed request id ([`CONNECTION_REQUEST_ID`] for
    /// connection-level errors).
    pub request_id: u64,
    /// The typed error.
    pub code: ErrorCode,
    /// Suggested client backoff; non-zero only for
    /// [`ErrorCode::Overloaded`].
    pub retry_after: Duration,
    /// Human-readable detail.
    pub message: String,
}

/// Any decoded message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A batch-lookup request.
    Lookup(LookupRequest),
    /// A full-model score request: a lookup's body under the score kind.
    Score(LookupRequest),
    /// A row-slab response.
    Rows(RowsResponse),
    /// A typed-error response.
    Error(ErrorResponse),
}

fn dtype_code(dtype: Option<Dtype>) -> u8 {
    match dtype {
        None => 0,
        Some(Dtype::F32) => 1,
        Some(Dtype::F16) => 2,
        Some(Dtype::Int8) => 3,
        Some(Dtype::Int4) => 4,
        Some(Dtype::Int2) => 5,
    }
}

fn dtype_from_code(code: u8) -> Result<Option<Dtype>, WireError> {
    Ok(match code {
        0 => None,
        1 => Some(Dtype::F32),
        2 => Some(Dtype::F16),
        3 => Some(Dtype::Int8),
        4 => Some(Dtype::Int4),
        5 => Some(Dtype::Int2),
        other => return Err(WireError::BadDtype(other)),
    })
}

fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Appends the frame header (length placeholder + version + kind + id)
/// and returns the index where the length must be patched.
fn begin_frame(out: &mut Vec<u8>, kind: u8, request_id: u64) -> usize {
    let len_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    out.push(PROTOCOL_VERSION);
    out.push(kind);
    out.extend_from_slice(&request_id.to_le_bytes());
    len_at
}

/// Patches the length prefix once the payload is complete. On failure
/// (a payload the length field cannot express, or a `len_at` that does
/// not point at a header this function wrote) everything appended since
/// `len_at` is rolled back so `out` never holds a half-built frame.
fn end_frame(out: &mut Vec<u8>, len_at: usize) -> Result<(), WireError> {
    let payload = out.len().saturating_sub(len_at + 4);
    let Ok(payload_len) = u32::try_from(payload) else {
        out.truncate(len_at);
        return Err(WireError::TooLarge {
            payload: payload as u64,
            max: DEFAULT_MAX_FRAME_LEN,
        });
    };
    match out.get_mut(len_at..len_at + 4) {
        Some(slot) => {
            slot.copy_from_slice(&payload_len.to_le_bytes());
            Ok(())
        }
        None => {
            out.truncate(len_at);
            Err(WireError::Truncated("length slot"))
        }
    }
}

/// Encodes a lookup request as one complete frame appended to `out`.
///
/// # Errors
///
/// [`WireError::ModelTooLong`] when the model name exceeds
/// [`MAX_MODEL_LEN`] and [`WireError::TooLarge`] when the id list would
/// not fit one [`DEFAULT_MAX_FRAME_LEN`] frame. Validation happens
/// **before** any byte is written — on error `out` is untouched, where
/// the old signature silently wrapped the id count through `as u32` and
/// shipped a frame claiming the wrong ids.
pub fn encode_lookup(req: &LookupRequest, out: &mut Vec<u8>) -> Result<(), WireError> {
    encode_request(
        KIND_LOOKUP,
        req.request_id,
        &req.model,
        &req.ids,
        req.dtype_hint,
        req.deadline,
        out,
    )
}

/// Encodes a score request as one complete frame appended to `out`.
///
/// # Errors
///
/// Same validation as [`encode_lookup`] — the two kinds share one body
/// layout: [`WireError::ModelTooLong`] past [`MAX_MODEL_LEN`],
/// [`WireError::TooLarge`] past the frame cap, `out` untouched on
/// error.
pub fn encode_score(req: &ScoreRequest, out: &mut Vec<u8>) -> Result<(), WireError> {
    encode_request(
        KIND_SCORE,
        req.request_id,
        &req.model,
        &req.ids,
        req.dtype_hint,
        req.deadline,
        out,
    )
}

/// The shared lookup/score request-body encoder (the kinds differ only
/// in their kind byte); the client's send path calls it with borrowed
/// fields.
pub(crate) fn encode_request(
    kind: u8,
    request_id: u64,
    model: &str,
    ids: &[u64],
    dtype_hint: Option<Dtype>,
    deadline: Option<Duration>,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let model = model.as_bytes();
    if model.len() > MAX_MODEL_LEN {
        return Err(WireError::ModelTooLong(model.len()));
    }
    let payload = HEADER_LEN as u64 + 1 + 8 + 2 + model.len() as u64 + 4 + 8 * ids.len() as u64;
    if payload > DEFAULT_MAX_FRAME_LEN as u64 {
        return Err(WireError::TooLarge {
            payload,
            max: DEFAULT_MAX_FRAME_LEN,
        });
    }
    let model_len = u16::try_from(model.len()).map_err(|_| WireError::ModelTooLong(model.len()))?;
    let n_ids = u32::try_from(ids.len()).map_err(|_| WireError::TooLarge {
        payload,
        max: DEFAULT_MAX_FRAME_LEN,
    })?;
    let len_at = begin_frame(out, kind, request_id);
    out.push(dtype_code(dtype_hint));
    out.extend_from_slice(&deadline.map_or(0, duration_to_nanos).to_le_bytes());
    out.extend_from_slice(&model_len.to_le_bytes());
    out.extend_from_slice(model);
    out.extend_from_slice(&n_ids.to_le_bytes());
    put_slab(out, ids, u64::to_le_bytes);
    end_frame(out, len_at)
}

/// Appends a slab of values to `out`, each as its little-endian bytes,
/// in one pass. A flat-map over fixed-size arrays has an exact length,
/// so `extend` reserves once and copies with no per-value capacity
/// check — on little-endian targets a straight vectorized copy.
fn put_slab<T: Copy, const N: usize>(
    out: &mut Vec<u8>,
    values: &[T],
    to_le: impl Fn(T) -> [u8; N],
) {
    out.extend(values.iter().flat_map(|&v| to_le(v)));
}

/// Encodes a row-slab response as one complete frame appended to `out`.
///
/// # Errors
///
/// [`WireError::BadSlab`] when `data.len()` is not `rows × dim`
/// (including `dim == 0` with non-empty data, which the old encoder
/// shipped as a lying "0 rows" frame) and [`WireError::TooLarge`] when
/// the slab would not fit one [`DEFAULT_MAX_FRAME_LEN`] frame. On error
/// `out` is untouched.
pub fn encode_rows(
    request_id: u64,
    dim: u32,
    data: &[f32],
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    if (dim == 0 && !data.is_empty()) || (dim > 0 && !data.len().is_multiple_of(dim as usize)) {
        return Err(WireError::BadSlab {
            len: data.len(),
            dim,
        });
    }
    let rows = if dim == 0 {
        0
    } else {
        data.len() / dim as usize
    };
    let payload = HEADER_LEN as u64 + 4 + 4 + 4 * data.len() as u64;
    if payload > DEFAULT_MAX_FRAME_LEN as u64 || rows > u32::MAX as usize {
        return Err(WireError::TooLarge {
            payload,
            max: DEFAULT_MAX_FRAME_LEN,
        });
    }
    let rows = u32::try_from(rows).map_err(|_| WireError::TooLarge {
        payload,
        max: DEFAULT_MAX_FRAME_LEN,
    })?;
    let len_at = begin_frame(out, KIND_ROWS, request_id);
    out.extend_from_slice(&rows.to_le_bytes());
    out.extend_from_slice(&dim.to_le_bytes());
    put_slab(out, data, f32::to_le_bytes);
    end_frame(out, len_at)
}

/// Encodes a typed-error response as one complete frame appended to
/// `out`.
///
/// # Errors
///
/// [`WireError::TooLarge`] when the message would not fit one
/// [`DEFAULT_MAX_FRAME_LEN`] frame; `out` is untouched on error. Server
/// reply paths that must always produce *some* frame use
/// [`encode_error_lossy`] instead.
pub fn encode_error(
    request_id: u64,
    code: ErrorCode,
    retry_after: Duration,
    message: &str,
    out: &mut Vec<u8>,
) -> Result<(), WireError> {
    let msg = message.as_bytes();
    let payload = HEADER_LEN as u64 + 2 + 8 + 4 + msg.len() as u64;
    if payload > DEFAULT_MAX_FRAME_LEN as u64 {
        return Err(WireError::TooLarge {
            payload,
            max: DEFAULT_MAX_FRAME_LEN,
        });
    }
    let msg_len = u32::try_from(msg.len()).map_err(|_| WireError::TooLarge {
        payload,
        max: DEFAULT_MAX_FRAME_LEN,
    })?;
    let len_at = begin_frame(out, KIND_ERROR, request_id);
    out.extend_from_slice(&code.as_u16().to_le_bytes());
    out.extend_from_slice(&duration_to_nanos(retry_after).to_le_bytes());
    out.extend_from_slice(&msg_len.to_le_bytes());
    out.extend_from_slice(msg);
    end_frame(out, len_at)
}

/// Longest error message [`encode_error_lossy`] can carry.
const MAX_ERROR_MSG_LEN: usize = DEFAULT_MAX_FRAME_LEN as usize - HEADER_LEN - 2 - 8 - 4;

/// Infallible [`encode_error`] for server reply paths: an error frame
/// must always go out, so an oversized message is truncated (at a UTF-8
/// character boundary) rather than refused.
pub fn encode_error_lossy(
    request_id: u64,
    code: ErrorCode,
    retry_after: Duration,
    message: &str,
    out: &mut Vec<u8>,
) {
    let mut end = message.len().min(MAX_ERROR_MSG_LEN);
    while end > 0 && !message.is_char_boundary(end) {
        end -= 1;
    }
    let truncated = message.get(..end).unwrap_or("");
    let base = out.len();
    if encode_error(request_id, code, retry_after, truncated, out).is_err() {
        // The truncated message provably fits the cap; if the strict
        // encoder still refuses, ship an empty-message error frame
        // (fixed 24-byte payload, always encodable) rather than panic.
        out.truncate(base);
        let _ = encode_error(request_id, code, retry_after, "", out);
    }
}

/// A strict little-endian cursor over one payload.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, field: &'static str) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated(field))?;
        let s = self
            .buf
            .get(self.at..end)
            .ok_or(WireError::Truncated(field))?;
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, field: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, field)?[0])
    }

    fn u16(&mut self, field: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, field)?;
        let b = b.try_into().map_err(|_| WireError::Truncated(field))?;
        Ok(u16::from_le_bytes(b))
    }

    fn u32(&mut self, field: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, field)?;
        let b = b.try_into().map_err(|_| WireError::Truncated(field))?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self, field: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, field)?;
        let b = b.try_into().map_err(|_| WireError::Truncated(field))?;
        Ok(u64::from_le_bytes(b))
    }

    /// Takes a slab of `n` values of `N` bytes with one bounds check. A
    /// count the payload cannot hold is a truncation, found before
    /// anything is allocated for it.
    fn slab<const N: usize>(
        &mut self,
        n: usize,
        field: &'static str,
    ) -> Result<&'a [[u8; N]], WireError> {
        let len = n.checked_mul(N).ok_or(WireError::Truncated(field))?;
        Ok(self.take(len, field)?.as_chunks::<N>().0)
    }

    fn finish(self) -> Result<(), WireError> {
        let left = self.buf.len() - self.at;
        if left != 0 {
            return Err(WireError::TrailingBytes(left));
        }
        Ok(())
    }
}

/// A lookup or score request decoded in place: the model name and the
/// ids borrow the payload, so the server reads a request without
/// allocating and copies its ids once, into the buffer it submits.
pub(crate) struct RequestRef<'a> {
    pub(crate) request_id: u64,
    pub(crate) model: &'a str,
    ids: &'a [[u8; 8]],
    dtype_hint: Option<Dtype>,
    pub(crate) deadline: Option<Duration>,
}

impl<'a> RequestRef<'a> {
    /// The ids, in request order.
    pub(crate) fn ids(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        self.ids.iter().map(|&b| u64::from_le_bytes(b))
    }

    fn owned(self) -> LookupRequest {
        LookupRequest {
            request_id: self.request_id,
            model: self.model.to_string(),
            ids: self.ids().collect(),
            dtype_hint: self.dtype_hint,
            deadline: self.deadline,
        }
    }
}

/// One payload decoded in place by [`decode_frame`]: names and slabs
/// borrow the payload. [`decode_payload`] is this plus one copy of each
/// into the owned [`Message`].
pub(crate) enum Frame<'a> {
    Lookup(RequestRef<'a>),
    Score(RequestRef<'a>),
    Rows {
        request_id: u64,
        dim: u32,
        data: &'a [[u8; 4]],
    },
    Error(ErrorResponse),
}

/// Decodes one payload (everything after the length prefix) in place,
/// rejecting every malformation with a [`WireError`].
pub(crate) fn decode_frame(payload: &[u8]) -> Result<Frame<'_>, WireError> {
    let mut c = Cursor {
        buf: payload,
        at: 0,
    };
    let version = c.u8("version")?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::UnknownVersion(version));
    }
    let kind = c.u8("kind")?;
    let request_id = c.u64("request id")?;
    let frame = match kind {
        KIND_LOOKUP | KIND_SCORE => {
            let dtype_hint = dtype_from_code(c.u8("dtype hint")?)?;
            let deadline_nanos = c.u64("deadline")?;
            let model_len = c.u16("model length")? as usize;
            if model_len > MAX_MODEL_LEN {
                return Err(WireError::ModelTooLong(model_len));
            }
            let model = std::str::from_utf8(c.take(model_len, "model name")?)
                .map_err(|_| WireError::BadModelUtf8)?;
            let n_ids = c.u32("id count")? as usize;
            let req = RequestRef {
                request_id,
                model,
                ids: c.slab(n_ids, "id")?,
                dtype_hint,
                deadline: (deadline_nanos != 0).then(|| Duration::from_nanos(deadline_nanos)),
            };
            if kind == KIND_LOOKUP {
                Frame::Lookup(req)
            } else {
                Frame::Score(req)
            }
        }
        KIND_ROWS => {
            let rows = c.u32("row count")? as usize;
            let dim = c.u32("dim")?;
            let values = rows
                .checked_mul(dim as usize)
                .ok_or(WireError::Truncated("row data"))?;
            Frame::Rows {
                request_id,
                dim,
                data: c.slab(values, "row data")?,
            }
        }
        KIND_ERROR => {
            let raw = c.u16("error code")?;
            let code = ErrorCode::from_u16(raw).ok_or(WireError::BadErrorCode(raw))?;
            let retry_after = Duration::from_nanos(c.u64("retry after")?);
            let msg_len = c.u32("message length")? as usize;
            let message = String::from_utf8_lossy(c.take(msg_len, "message")?).into_owned();
            Frame::Error(ErrorResponse {
                request_id,
                code,
                retry_after,
                message,
            })
        }
        other => return Err(WireError::UnknownKind(other)),
    };
    c.finish()?;
    Ok(frame)
}

/// Decodes one payload (everything after the length prefix) into a
/// [`Message`], rejecting every malformation with a [`WireError`].
pub fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    Ok(match decode_frame(payload)? {
        Frame::Lookup(req) => Message::Lookup(req.owned()),
        Frame::Score(req) => Message::Score(req.owned()),
        // An exact-length map over the slab: one pass, one allocation.
        Frame::Rows {
            request_id,
            dim,
            data,
        } => Message::Rows(RowsResponse {
            request_id,
            dim,
            data: data.iter().map(|&b| f32::from_le_bytes(b)).collect(),
        }),
        Frame::Error(err) => Message::Error(err),
    })
}

/// What one [`FrameReader::read_frame`] call observed.
#[derive(Debug, PartialEq, Eq)]
pub enum ReadEvent {
    /// A complete frame arrived; its payload is at
    /// [`FrameReader::payload`].
    Frame,
    /// The peer closed the stream at a frame boundary (or mid-frame —
    /// either way there is nothing left to answer).
    Eof,
    /// The read timed out (`WouldBlock`/`TimedOut`) before a complete
    /// frame arrived; partial progress is retained for the next call.
    TimedOut,
}

/// Incremental frame reader: accumulates the 4-byte length prefix and
/// then the payload across partial reads, surviving read timeouts
/// mid-frame (the server's drain poll depends on that), and rejects
/// oversized length prefixes **before** allocating.
#[derive(Debug)]
pub struct FrameReader {
    max_frame_len: u32,
    header: [u8; 4],
    header_filled: usize,
    payload: Vec<u8>,
    payload_filled: usize,
    /// `Some(n)` once the header is complete and `n` payload bytes are
    /// expected.
    expecting: Option<usize>,
}

impl FrameReader {
    /// A reader enforcing `max_frame_len` as the payload-length cap.
    pub fn new(max_frame_len: u32) -> Self {
        FrameReader {
            max_frame_len,
            header: [0; 4],
            header_filled: 0,
            payload: Vec::new(),
            payload_filled: 0,
            expecting: None,
        }
    }

    /// The last complete frame's payload (valid after
    /// [`ReadEvent::Frame`], until the next `read_frame` call).
    pub fn payload(&self) -> &[u8] {
        self.payload.get(..self.payload_filled).unwrap_or(&[])
    }

    /// Advances toward the next frame. Timeouts and `Interrupted` are
    /// surfaced as [`ReadEvent::TimedOut`] with all partial progress
    /// kept; an oversized length prefix is a [`WireError::Oversized`];
    /// other I/O failures propagate.
    ///
    /// # Errors
    ///
    /// `Err(Ok(WireError))`-style nesting is avoided by flattening: the
    /// error type is [`FrameError`].
    pub fn read_frame(&mut self, r: &mut impl Read) -> Result<ReadEvent, FrameError> {
        let want = match self.expecting {
            Some(want) => want,
            None => {
                match self.fill_header(r)? {
                    ReadEvent::Frame => {} // header complete; fall through
                    other => return Ok(other),
                }
                let declared = u32::from_le_bytes(self.header);
                if declared > self.max_frame_len {
                    return Err(FrameError::Wire(WireError::Oversized {
                        declared,
                        max: self.max_frame_len,
                    }));
                }
                let want = declared as usize;
                self.expecting = Some(want);
                self.payload.resize(want, 0);
                self.payload_filled = 0;
                want
            }
        };
        while self.payload_filled < want {
            // `payload` was resized to exactly `want`, so the slice is
            // always there; if the invariant ever broke, stop reading
            // instead of panicking mid-connection.
            let Some(dst) = self.payload.get_mut(self.payload_filled..want) else {
                break;
            };
            match r.read(dst) {
                Ok(0) => return Ok(ReadEvent::Eof),
                Ok(n) => self.payload_filled += n,
                Err(e) => return Self::map_timeout(e),
            }
        }
        // Frame complete: reset header state for the next one.
        self.header_filled = 0;
        self.expecting = None;
        Ok(ReadEvent::Frame)
    }

    /// Reads header bytes; `Frame` here means "header complete".
    fn fill_header(&mut self, r: &mut impl Read) -> Result<ReadEvent, FrameError> {
        while self.header_filled < 4 {
            // `header_filled < 4` keeps the range inside the 4-byte
            // array; degrade to "header complete" on a broken invariant
            // rather than panic.
            let Some(dst) = self.header.get_mut(self.header_filled..) else {
                break;
            };
            match r.read(dst) {
                Ok(0) => return Ok(ReadEvent::Eof),
                Ok(n) => self.header_filled += n,
                Err(e) => return Self::map_timeout(e),
            }
        }
        Ok(ReadEvent::Frame)
    }

    fn map_timeout(e: std::io::Error) -> Result<ReadEvent, FrameError> {
        match e.kind() {
            std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::Interrupted => Ok(ReadEvent::TimedOut),
            _ => Err(FrameError::Io(e)),
        }
    }
}

/// Why [`FrameReader::read_frame`] failed.
#[derive(Debug)]
pub enum FrameError {
    /// A non-timeout I/O failure.
    Io(std::io::Error),
    /// A protocol violation detectable at the framing layer (today:
    /// [`WireError::Oversized`]).
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::Wire(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_of(req: &LookupRequest) -> Vec<u8> {
        let mut out = Vec::new();
        encode_lookup(req, &mut out).expect("encodes");
        out
    }

    #[test]
    fn lookup_roundtrip() {
        let req = LookupRequest {
            request_id: 42,
            model: "country/us".into(),
            ids: vec![0, 7, u64::MAX],
            dtype_hint: Some(Dtype::Int8),
            deadline: Some(Duration::from_millis(25)),
        };
        let bytes = frame_of(&req);
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_LEN);
        let mut src = &bytes[..];
        assert_eq!(reader.read_frame(&mut src).unwrap(), ReadEvent::Frame);
        assert_eq!(
            decode_payload(reader.payload()).unwrap(),
            Message::Lookup(req)
        );
        assert_eq!(reader.read_frame(&mut src).unwrap(), ReadEvent::Eof);
    }

    #[test]
    fn score_roundtrip_differs_from_lookup_by_one_byte() {
        let req = ScoreRequest {
            request_id: 17,
            model: "scorer".into(),
            ids: vec![3, 1, 4, 1, 5],
            dtype_hint: Some(Dtype::F32),
            deadline: Some(Duration::from_millis(10)),
        };
        let mut frame = Vec::new();
        encode_score(&req, &mut frame).expect("encodes");
        assert_eq!(
            decode_payload(&frame[4..]).unwrap(),
            Message::Score(req.clone())
        );
        // Same body layout as a lookup: flipping the kind byte back
        // yields the equivalent LookupRequest.
        frame[4 + 1] = KIND_LOOKUP;
        let Message::Lookup(as_lookup) = decode_payload(&frame[4..]).unwrap() else {
            panic!("expected lookup after kind flip");
        };
        assert_eq!(
            (as_lookup.model, as_lookup.ids, as_lookup.deadline),
            (req.model, req.ids, req.deadline)
        );
    }

    #[test]
    fn rows_and_error_roundtrip() {
        let mut out = Vec::new();
        encode_rows(9, 2, &[1.0, 2.0, 3.0, 4.0], &mut out).expect("encodes");
        encode_error(
            10,
            ErrorCode::Overloaded,
            Duration::from_micros(500),
            "try later",
            &mut out,
        )
        .expect("encodes");
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_LEN);
        let mut src = &out[..];
        assert_eq!(reader.read_frame(&mut src).unwrap(), ReadEvent::Frame);
        let Message::Rows(rows) = decode_payload(reader.payload()).unwrap() else {
            panic!("expected rows");
        };
        assert_eq!((rows.request_id, rows.dim), (9, 2));
        assert_eq!(rows.data, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(reader.read_frame(&mut src).unwrap(), ReadEvent::Frame);
        let Message::Error(err) = decode_payload(reader.payload()).unwrap() else {
            panic!("expected error");
        };
        assert_eq!(err.code, ErrorCode::Overloaded);
        assert_eq!(err.retry_after, Duration::from_micros(500));
        assert_eq!(err.message, "try later");
    }

    #[test]
    fn oversized_prefix_is_rejected_before_allocation() {
        let mut reader = FrameReader::new(64);
        let bytes = 1_000_000u32.to_le_bytes();
        let mut src = &bytes[..];
        match reader.read_frame(&mut src) {
            Err(FrameError::Wire(WireError::Oversized { declared, max })) => {
                assert_eq!((declared, max), (1_000_000, 64));
            }
            other => panic!("expected oversized, got {other:?}"),
        }
    }

    #[test]
    fn partial_reads_accumulate() {
        let req = LookupRequest {
            request_id: 1,
            model: "m".into(),
            ids: vec![5],
            dtype_hint: None,
            deadline: None,
        };
        let bytes = frame_of(&req);

        /// Yields one byte per read and times out between bytes, like a
        /// slow socket under a read timeout.
        struct Trickle<'a> {
            data: &'a [u8],
            at: usize,
            give: bool,
        }
        impl Read for Trickle<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if !self.give || self.at == self.data.len() {
                    self.give = true;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.give = false;
                buf[0] = self.data[self.at];
                self.at += 1;
                Ok(1)
            }
        }

        let mut src = Trickle {
            data: &bytes,
            at: 0,
            give: true,
        };
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME_LEN);
        let mut timeouts = 0;
        loop {
            match reader.read_frame(&mut src).unwrap() {
                ReadEvent::Frame => break,
                ReadEvent::TimedOut => timeouts += 1,
                ReadEvent::Eof => panic!("trickle never closes"),
            }
        }
        assert!(timeouts > 0, "partial progress must survive timeouts");
        assert_eq!(
            decode_payload(reader.payload()).unwrap(),
            Message::Lookup(req)
        );
    }

    #[test]
    fn strict_decode_rejects_malformations() {
        let req = LookupRequest {
            request_id: 3,
            model: "m".into(),
            ids: vec![1, 2],
            dtype_hint: None,
            deadline: None,
        };
        let mut frame = frame_of(&req);
        let payload = frame.split_off(4);

        // Unknown version.
        let mut bad = payload.clone();
        bad[0] = 99;
        assert_eq!(decode_payload(&bad), Err(WireError::UnknownVersion(99)));
        // Unknown kind.
        let mut bad = payload.clone();
        bad[1] = 99;
        assert_eq!(decode_payload(&bad), Err(WireError::UnknownKind(99)));
        // Truncation at every split point.
        for cut in 0..payload.len() {
            assert!(
                matches!(
                    decode_payload(&payload[..cut]),
                    Err(WireError::Truncated(_) | WireError::UnknownVersion(_))
                ),
                "cut at {cut}"
            );
        }
        // Trailing garbage.
        let mut bad = payload.clone();
        bad.push(0);
        assert_eq!(decode_payload(&bad), Err(WireError::TrailingBytes(1)));
        // Bad dtype code.
        let mut bad = payload.clone();
        bad[HEADER_LEN] = 200;
        assert_eq!(decode_payload(&bad), Err(WireError::BadDtype(200)));
    }

    #[test]
    fn encode_lookup_refuses_untransmittable_requests() {
        let mut out = vec![0xAAu8; 3];
        // A model name past MAX_MODEL_LEN used to have its length
        // silently wrapped through `as u16`.
        let req = LookupRequest {
            request_id: 1,
            model: "m".repeat(70_000),
            ids: vec![1],
            dtype_hint: None,
            deadline: None,
        };
        assert_eq!(
            encode_lookup(&req, &mut out),
            Err(WireError::ModelTooLong(70_000))
        );
        // An id batch past the frame cap used to ship with a wrapped
        // count.
        let req = LookupRequest {
            request_id: 1,
            model: "m".into(),
            ids: vec![0; 2_000_000], // 16 MB of ids > 8 MiB cap
            dtype_hint: None,
            deadline: None,
        };
        assert!(matches!(
            encode_lookup(&req, &mut out),
            Err(WireError::TooLarge { .. })
        ));
        // On error the output buffer is untouched — no half frame.
        assert_eq!(out, vec![0xAA; 3]);
    }

    #[test]
    fn encode_rows_refuses_inconsistent_slabs() {
        let mut out = Vec::new();
        // dim 0 with data used to encode as a lying "0 rows" frame.
        assert_eq!(
            encode_rows(1, 0, &[1.0, 2.0], &mut out),
            Err(WireError::BadSlab { len: 2, dim: 0 })
        );
        // A length that is not rows × dim.
        assert_eq!(
            encode_rows(1, 3, &[1.0, 2.0], &mut out),
            Err(WireError::BadSlab { len: 2, dim: 3 })
        );
        assert!(out.is_empty(), "no bytes written on error");
        // dim 0 with no data is a legitimate empty slab.
        encode_rows(1, 0, &[], &mut out).expect("empty slab encodes");
        let Message::Rows(rows) = decode_payload(&out[4..]).unwrap() else {
            panic!("expected rows");
        };
        assert_eq!((rows.dim, rows.data.len()), (0, 0));
    }

    #[test]
    fn encode_error_lossy_truncates_at_char_boundaries() {
        // A message past the frame cap is refused by the strict encoder…
        let huge = "é".repeat(DEFAULT_MAX_FRAME_LEN as usize); // 2 bytes/char
        let mut out = Vec::new();
        assert!(matches!(
            encode_error(7, ErrorCode::Internal, Duration::ZERO, &huge, &mut out),
            Err(WireError::TooLarge { .. })
        ));
        assert!(out.is_empty());
        // …while the lossy encoder always produces a decodable frame,
        // cut at a UTF-8 boundary (MAX_ERROR_MSG_LEN is odd, so a naive
        // byte cut would split an 'é').
        encode_error_lossy(7, ErrorCode::Internal, Duration::ZERO, &huge, &mut out);
        let Message::Error(err) = decode_payload(&out[4..]).unwrap() else {
            panic!("expected error");
        };
        assert_eq!(err.request_id, 7);
        assert!(err.message.len() <= MAX_ERROR_MSG_LEN);
        assert!(err.message.chars().all(|c| c == 'é'), "no mangled tail");
        // Small messages pass through verbatim.
        let mut out = Vec::new();
        encode_error_lossy(8, ErrorCode::Overloaded, Duration::ZERO, "shed", &mut out);
        let Message::Error(err) = decode_payload(&out[4..]).unwrap() else {
            panic!("expected error");
        };
        assert_eq!(err.message, "shed");
    }

    /// The slab codecs write each value's little-endian bytes in order —
    /// the layout the per-value encoders wrote — and carry every bit:
    /// NaN payloads, signed zeros, subnormals, infinities, `u64::MAX`.
    #[test]
    fn slabs_keep_the_per_value_layout_and_every_bit() {
        let data = [
            f32::from_bits(0x7fc0_1234),
            -0.0,
            f32::from_bits(1),
            f32::NEG_INFINITY,
            f32::MAX,
            1.5,
        ];
        let mut want = Vec::new();
        for v in data {
            want.extend_from_slice(&v.to_le_bytes());
        }
        let mut frame = Vec::new();
        encode_rows(5, 3, &data, &mut frame).expect("encodes");
        assert_eq!(frame[4 + HEADER_LEN + 8..], want[..]);
        let Message::Rows(rows) = decode_payload(&frame[4..]).unwrap() else {
            panic!("expected rows");
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows.data), bits(&data));

        let req = LookupRequest {
            request_id: 2,
            model: "m".into(),
            ids: vec![0, u64::MAX, 0x0102_0304_0506_0708, 1],
            dtype_hint: None,
            deadline: None,
        };
        let mut want = Vec::new();
        for id in &req.ids {
            want.extend_from_slice(&id.to_le_bytes());
        }
        let frame = frame_of(&req);
        assert_eq!(frame[frame.len() - want.len()..], want[..]);
        assert_eq!(decode_payload(&frame[4..]).unwrap(), Message::Lookup(req));
    }

    /// The server's decode borrows: the model name and the ids point
    /// into the payload, so reading a request copies nothing.
    #[test]
    fn a_request_decodes_in_place() {
        let req = LookupRequest {
            request_id: 4,
            model: "in-place".into(),
            ids: vec![9, 8, 7],
            dtype_hint: Some(Dtype::F16),
            deadline: Some(Duration::from_micros(3)),
        };
        let frame = frame_of(&req);
        let payload = &frame[4..];
        let Ok(Frame::Lookup(got)) = decode_frame(payload) else {
            panic!("expected a lookup");
        };
        let inside = payload.as_ptr_range();
        assert!(inside.contains(&got.model.as_ptr()));
        assert!(inside.contains(&got.ids.as_ptr().cast::<u8>()));
        assert_eq!(got.owned(), req);
    }

    /// A slab count the payload cannot hold is a typed truncation found
    /// before allocation, including counts whose byte length overflows.
    #[test]
    fn hostile_slab_counts_are_truncations() {
        let header = |kind: u8| {
            let mut p = vec![PROTOCOL_VERSION, kind];
            p.extend_from_slice(&7u64.to_le_bytes());
            p
        };
        // u32::MAX rows of u32::MAX values: the byte length overflows.
        let mut rows = header(KIND_ROWS);
        rows.extend_from_slice(&u32::MAX.to_le_bytes());
        rows.extend_from_slice(&u32::MAX.to_le_bytes());
        rows.extend_from_slice(&[0; 8]);
        assert_eq!(decode_payload(&rows), Err(WireError::Truncated("row data")));
        // u32::MAX ids with two present.
        let mut ids = header(KIND_SCORE);
        ids.push(0);
        ids.extend_from_slice(&0u64.to_le_bytes());
        ids.extend_from_slice(&1u16.to_le_bytes());
        ids.push(b'm');
        ids.extend_from_slice(&u32::MAX.to_le_bytes());
        ids.extend_from_slice(&[0; 16]);
        assert_eq!(decode_payload(&ids), Err(WireError::Truncated("id")));
    }

    #[test]
    fn zero_deadline_means_none() {
        let req = LookupRequest {
            request_id: 1,
            model: "m".into(),
            ids: vec![0],
            dtype_hint: None,
            deadline: None,
        };
        let frame = frame_of(&req);
        let Message::Lookup(decoded) = decode_payload(&frame[4..]).unwrap() else {
            panic!("expected lookup");
        };
        assert_eq!(decoded.deadline, None);
    }
}
