//! A model file is input from outside the program: whatever its bytes,
//! `OnDeviceModel::parse` returns a typed error or a model the engine
//! can index — it never panics, overflows or asks the allocator for
//! memory the file cannot back.

use memcom_ondevice::{InferenceSession, OnDeviceError, OnDeviceModel};

/// The manifest of a bias-free MEmCom file taking 2 ids.
fn header(vocab: u64, hash_size: u64, emb_dim: u32, n_ops: u32) -> Vec<u8> {
    let mut buf = b"MEMC".to_vec();
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.push(2);
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&vocab.to_le_bytes());
    buf.extend_from_slice(&hash_size.to_le_bytes());
    buf.extend_from_slice(&emb_dim.to_le_bytes());
    buf.extend_from_slice(&n_ops.to_le_bytes());
    buf
}

/// Appends an f32 table header claiming `rows × cols`, then `values`
/// payload values (0.5 each) — the two need not agree.
fn table(buf: &mut Vec<u8>, (rows, cols): (u64, u64), values: u64) {
    buf.push(0);
    buf.extend_from_slice(&rows.to_le_bytes());
    buf.extend_from_slice(&cols.to_le_bytes());
    buf.extend_from_slice(&1.0f32.to_le_bytes());
    for _ in 0..values {
        buf.extend_from_slice(&0.5f32.to_le_bytes());
    }
}

/// A manifest, the head `average pool → dense 2 → 1` (its kernel stored
/// as `weight`), then a `shared` and a `multiplier` table — every
/// payload as long as its table header claims.
fn model(
    (vocab, hash_size, emb_dim): (u64, u64, u32),
    weight: (u64, u64),
    shared: (u64, u64),
    multiplier: (u64, u64),
) -> Vec<u8> {
    let mut buf = header(vocab, hash_size, emb_dim, 2);
    buf.extend_from_slice(&[0, 3]);
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes());
    for shape in [weight, (1, 1), shared, multiplier] {
        table(&mut buf, shape, shape.0 * shape.1);
    }
    buf
}

/// 6 ids hashed into 3 shared rows of width 2.
const MANIFEST: (u64, u64, u32) = (6, 3, 2);

fn valid() -> Vec<u8> {
    model(MANIFEST, (2, 1), (3, 2), (6, 1))
}

fn assert_bad_format(bytes: Vec<u8>, case: &str) {
    match OnDeviceModel::parse(bytes) {
        Err(OnDeviceError::BadFormat { .. }) => {}
        other => panic!("{case}: expected BadFormat, got {other:?}"),
    }
}

#[test]
fn the_well_formed_baseline_parses_and_runs() {
    let session = InferenceSession::new(OnDeviceModel::parse(valid()).unwrap());
    let (logits, stats) = session.run(&[1, 5]).unwrap();
    // Rows of 0.5 scaled by 0.5, mean-pooled: 0.25 · 0.5 + 0.25 · 0.5 + 0.5.
    assert_eq!(logits, vec![0.75]);
    assert!(stats.work.cold_bytes > 0);
}

#[test]
fn sizes_the_file_cannot_back_are_rejected_before_any_allocation() {
    assert_bad_format(header(6, 3, 2, u32::MAX), "n_ops = u32::MAX, empty body");

    // rows · row_bytes overflows usize.
    let mut bytes = header(6, 1 << 62, 16, 0);
    table(&mut bytes, (1 << 62, 16), 4);
    assert_bad_format(bytes, "rows * row_bytes overflow");

    // The product fits, but the reader's offset plus it does not.
    let vocab = (1 << 62) - 1;
    let mut bytes = header(vocab, 3, 2, 0);
    table(&mut bytes, (3, 2), 6);
    table(&mut bytes, (vocab, 1), 4);
    assert_bad_format(bytes, "offset + payload_len overflow");
}

#[test]
fn tables_that_disagree_with_the_manifest_are_rejected() {
    for (case, manifest, weight, shared, multiplier) in [
        ("shared cols < emb_dim", MANIFEST, (2, 1), (3, 1), (6, 1)),
        ("shared cols > emb_dim", MANIFEST, (2, 1), (3, 4), (6, 1)),
        ("shared rows != hash_size", MANIFEST, (2, 1), (4, 2), (6, 1)),
        ("multiplier cols != 1", MANIFEST, (2, 1), (3, 2), (6, 2)),
        ("multiplier rows != vocab", MANIFEST, (2, 1), (3, 2), (5, 1)),
        ("dense cols != out_dim", MANIFEST, (2, 2), (3, 2), (6, 1)),
        ("zero-width shared", (6, 3, 0), (2, 1), (3, 0), (6, 1)),
        ("zero-row shared", (6, 0, 2), (2, 1), (0, 2), (6, 1)),
    ] {
        assert_bad_format(model(manifest, weight, shared, multiplier), case);
    }
}

#[test]
fn truncated_and_trailing_bytes_are_typed_errors() {
    let bytes = valid();
    for cut in 0..bytes.len() {
        assert_bad_format(bytes[..cut].to_vec(), &format!("prefix of {cut} bytes"));
    }
    let mut extended = bytes;
    extended.push(0);
    assert_bad_format(extended, "one trailing byte");
}

#[test]
fn no_single_byte_corruption_panics_the_parser_or_the_engine() {
    let bytes = valid();
    for at in 0..bytes.len() {
        for value in [0x00, 0x01, 0x7f, 0x80, 0xff] {
            let mut corrupt = bytes.clone();
            corrupt[at] = value;
            // Either outcome is fine; reaching the next iteration is the
            // assertion. What parses must also load and run (or refuse
            // the ids) without panicking.
            if let Ok(model) = OnDeviceModel::parse(corrupt) {
                let _ = InferenceSession::new(model).run(&[1, 5]);
            }
        }
    }
}
