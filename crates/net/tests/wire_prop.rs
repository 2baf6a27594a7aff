//! Property tests over the wire protocol: roundtrips for every valid
//! message shape, and hostile inputs — truncated frames, oversized
//! length prefixes, unknown versions/kinds, garbage model bytes, raw
//! fuzz — which must always produce a typed error (or a clean
//! incremental parse), never a panic and never an allocation driven by
//! an attacker-controlled length.

use std::time::Duration;

use memcom_net::wire::{
    decode_payload, encode_error, encode_lookup, encode_rows, FrameError, FrameReader,
    LookupRequest, Message, ReadEvent, WireError, HEADER_LEN, KIND_LOOKUP, KIND_SCORE,
    PROTOCOL_VERSION,
};
use memcom_net::{ErrorCode, NetClientConfig, NetServerConfig};
use memcom_serve::Dtype;
use proptest::prelude::*;

fn dtype_from(raw: u8) -> Option<Dtype> {
    match raw % 6 {
        1 => Some(Dtype::F32),
        2 => Some(Dtype::F16),
        3 => Some(Dtype::Int8),
        4 => Some(Dtype::Int4),
        5 => Some(Dtype::Int2),
        _ => None,
    }
}

proptest! {
    // Every lookup request survives encode → frame-read → decode
    // bit for bit, including the dtype hint and deadline edge cases.
    #[test]
    fn lookup_roundtrips(
        request_id in 0u64..u64::MAX,
        model_bytes in proptest::collection::vec(97u8..123, 0..48),
        ids in proptest::collection::vec(0u64..1_000_000, 0..64),
        dtype_raw in 0u8..6,
        deadline_nanos in 0u64..5_000_000_000,
    ) {
        let req = LookupRequest {
            request_id,
            model: String::from_utf8(model_bytes).unwrap(),
            ids,
            dtype_hint: dtype_from(dtype_raw),
            deadline: (deadline_nanos > 0).then(|| Duration::from_nanos(deadline_nanos)),
        };
        let mut frame = Vec::new();
        encode_lookup(&req, &mut frame).expect("encodes");
        let mut reader = FrameReader::new(1 << 20);
        let mut cursor: &[u8] = &frame;
        prop_assert!(matches!(reader.read_frame(&mut cursor), Ok(ReadEvent::Frame)));
        match decode_payload(reader.payload()) {
            Ok(Message::Lookup(back)) => prop_assert_eq!(back, req),
            other => panic!("expected a lookup, got {other:?}"),
        }
    }

    // Rows and error responses roundtrip likewise; error codes and
    // retry-after hints survive exactly.
    #[test]
    fn responses_roundtrip(
        request_id in 1u64..u64::MAX,
        dim in 1u32..16,
        rows in 0u32..8,
        code_raw in 1u16..9,
        retry_nanos in 0u64..10_000_000_000,
        msg_bytes in proptest::collection::vec(32u8..127, 0..64),
    ) {
        let data: Vec<f32> = (0..dim * rows).map(|i| i as f32 * 0.5 - 3.0).collect();
        let mut frame = Vec::new();
        encode_rows(request_id, dim, &data, &mut frame).expect("encodes");
        match decode_payload(&frame[4..]) {
            Ok(Message::Rows(r)) => {
                prop_assert_eq!(r.request_id, request_id);
                prop_assert_eq!(r.dim, dim);
                prop_assert_eq!(r.data, data);
            }
            other => panic!("expected rows, got {other:?}"),
        }

        let code = ErrorCode::from_u16(code_raw).unwrap();
        let retry = Duration::from_nanos(retry_nanos);
        let message = String::from_utf8(msg_bytes).unwrap();
        let mut frame = Vec::new();
        encode_error(request_id, code, retry, &message, &mut frame).expect("encodes");
        match decode_payload(&frame[4..]) {
            Ok(Message::Error(e)) => {
                prop_assert_eq!(e.request_id, request_id);
                prop_assert_eq!(e.code, code);
                prop_assert_eq!(e.retry_after, retry);
                prop_assert_eq!(e.message, message);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    // Any strict prefix of a valid payload is a typed decode error —
    // truncation can never panic or be silently accepted.
    #[test]
    fn truncations_are_typed_errors(
        ids in proptest::collection::vec(0u64..1_000, 1..32),
        cut_seed in 0usize..10_000,
    ) {
        let req = LookupRequest {
            request_id: 7,
            model: "default".to_string(),
            ids,
            dtype_hint: Some(Dtype::Int8),
            deadline: Some(Duration::from_millis(25)),
        };
        let mut frame = Vec::new();
        encode_lookup(&req, &mut frame).expect("encodes");
        let payload = &frame[4..];
        let cut = cut_seed % payload.len();
        prop_assert!(decode_payload(&payload[..cut]).is_err());
    }

    // Unknown protocol versions and frame kinds are typed rejections.
    // Every kind byte is tried, and half the cases run at the current
    // version, where the kind decides.
    #[test]
    fn unknown_versions_and_kinds_are_rejected(
        version in prop_oneof![PROTOCOL_VERSION..=PROTOCOL_VERSION, 0u8..=255],
        request_id in 0u64..1_000,
    ) {
        for kind in 0u8..=255 {
            let mut payload = vec![version, kind];
            payload.extend_from_slice(&request_id.to_le_bytes());
            let decoded = decode_payload(&payload);
            if version != PROTOCOL_VERSION {
                prop_assert!(matches!(decoded, Err(WireError::UnknownVersion(v)) if v == version));
            } else if !(KIND_LOOKUP..=KIND_SCORE).contains(&kind) {
                prop_assert!(matches!(decoded, Err(WireError::UnknownKind(k)) if k == kind));
            } else {
                // A bare header with a known kind is a truncated body.
                prop_assert!(matches!(decoded, Err(WireError::Truncated(_))));
            }
        }
    }

    // Garbage model bytes: invalid UTF-8 is a typed error, and a model
    // length prefix pointing past the payload is a typed truncation.
    #[test]
    fn garbage_model_names_are_rejected(
        model_bytes in proptest::collection::vec(0u8..=255, 1..64),
        lie in 0u16..2_000,
    ) {
        let mut payload = vec![PROTOCOL_VERSION, 1u8];
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(0); // no dtype hint
        payload.extend_from_slice(&0u64.to_le_bytes()); // no deadline
        let mut lying = payload.clone();
        lying.extend_from_slice(&(model_bytes.len() as u16 + lie).to_le_bytes());
        lying.extend_from_slice(&model_bytes);
        // Claimed model length exceeds what's present: typed error
        // (truncated, or model-too-long when the lie is huge).
        if lie > 0 {
            prop_assert!(decode_payload(&lying).is_err());
        }
        payload.extend_from_slice(&(model_bytes.len() as u16).to_le_bytes());
        payload.extend_from_slice(&model_bytes);
        payload.extend_from_slice(&0u32.to_le_bytes()); // zero ids
        match decode_payload(&payload) {
            Ok(Message::Lookup(req)) => {
                // Accepted iff the bytes were valid UTF-8.
                prop_assert_eq!(req.model.as_bytes(), &model_bytes[..]);
            }
            Err(_) => prop_assert!(String::from_utf8(model_bytes).is_err()),
            Ok(other) => panic!("expected a lookup, got {other:?}"),
        }
    }

    // Raw fuzz against the frame reader: random bytes in random chunk
    // sizes never panic, and a length prefix beyond the cap is
    // rejected before any allocation.
    #[test]
    fn frame_reader_survives_fuzz(
        bytes in proptest::collection::vec(0u8..=255, 0..256),
        max_frame in 1u32..64,
    ) {
        let mut reader = FrameReader::new(max_frame);
        let mut cursor: &[u8] = &bytes;
        loop {
            match reader.read_frame(&mut cursor) {
                Ok(ReadEvent::Frame) => {
                    // Frames under the cap may appear; their payloads
                    // must decode to a message or a typed error.
                    let _ = decode_payload(reader.payload());
                }
                Ok(ReadEvent::Eof) | Ok(ReadEvent::TimedOut) => break,
                Err(FrameError::Wire(WireError::Oversized { declared, max })) => {
                    prop_assert!(declared > max);
                    break;
                }
                Err(_) => break,
            }
        }
    }
}

// Not a property, but pinned here with the wire suite: the declared
// header length matches the encoder's layout.
#[test]
fn header_len_matches_layout() {
    let mut frame = Vec::new();
    encode_error(1, ErrorCode::Internal, Duration::ZERO, "", &mut frame).expect("encodes");
    // 4-byte length prefix + header + (code u16 + retry u64 + msg len u32).
    assert_eq!(frame.len(), 4 + HEADER_LEN + 2 + 8 + 4);
    let _ = (NetClientConfig::default(), NetServerConfig::default());
}
