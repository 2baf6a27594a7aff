//! A model file is input from outside the program: whatever its bytes,
//! `OnDeviceModel::parse` returns a typed error or a model the engine
//! can index — it never panics, overflows or asks the allocator for
//! memory the file cannot back.

use memcom_ondevice::{InferenceSession, OnDeviceError, OnDeviceModel};

/// Row-map header tags (`Seeded` and `Div` are followed by a `u64`).
const IDENTITY: u8 = 0;
const MOD: u8 = 1;
const CLAMP: u8 = 2;
const SEEDED: u8 = 3;
const DIV: u8 = 4;
/// Combine header tags.
const ROW: u8 = 0;
const SCALE_MUL: u8 = 1;
const MUL: u8 = 3;
const CONCAT: u8 = 4;
const PROJECT: u8 = 5;

/// A v2 manifest taking 2 ids: `recipe` is the combine tag, the map
/// count and the maps, byte for byte.
fn header_with(vocab: u64, emb_dim: u32, recipe: &[u8], n_ops: u32) -> Vec<u8> {
    let mut buf = b"MEMC".to_vec();
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&vocab.to_le_bytes());
    buf.extend_from_slice(&emb_dim.to_le_bytes());
    buf.extend_from_slice(recipe);
    buf.extend_from_slice(&n_ops.to_le_bytes());
    buf
}

/// The manifest of a bias-free MEmCom file taking 2 ids.
fn header(vocab: u64, emb_dim: u32, n_ops: u32) -> Vec<u8> {
    header_with(vocab, emb_dim, &[SCALE_MUL, 2, MOD, IDENTITY], n_ops)
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
    (vocab, emb_dim): (u64, u32),
    weight: (u64, u64),
    shared: (u64, u64),
    multiplier: (u64, u64),
) -> Vec<u8> {
    let mut buf = header(vocab, emb_dim, 2);
    head_and_tables(&mut buf, weight, &[shared, multiplier]);
    buf
}

/// The head `average pool → dense 2 → 1` (kernel stored as `weight`),
/// then the embedding tables, payloads as long as their headers claim.
fn head_and_tables(buf: &mut Vec<u8>, weight: (u64, u64), embedding: &[(u64, u64)]) {
    buf.extend_from_slice(&[0, 3]);
    buf.extend_from_slice(&2u32.to_le_bytes());
    buf.extend_from_slice(&1u32.to_le_bytes());
    for &shape in [weight, (1, 1)].iter().chain(embedding) {
        table(buf, shape, shape.0 * shape.1);
    }
}

/// A 6-id, width-2 file whose embedding stage is `recipe` over `tables`.
fn recipe_model(recipe: &[u8], tables: &[(u64, u64)]) -> Vec<u8> {
    let mut buf = header_with(6, 2, recipe, 2);
    head_and_tables(&mut buf, (2, 1), tables);
    buf
}

/// 6 ids of width 2 (hashed into the 3 rows the shared table has).
const MANIFEST: (u64, u32) = (6, 2);

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
    assert_bad_format(header(6, 2, u32::MAX), "n_ops = u32::MAX, empty body");

    // rows · row_bytes overflows usize.
    let mut bytes = header(6, 16, 0);
    table(&mut bytes, (1 << 62, 16), 4);
    assert_bad_format(bytes, "rows * row_bytes overflow");

    // The product fits, but the reader's offset plus it does not.
    let vocab = (1 << 62) - 1;
    let mut bytes = header(vocab, 2, 0);
    table(&mut bytes, (3, 2), 6);
    table(&mut bytes, (vocab, 1), 4);
    assert_bad_format(bytes, "offset + payload_len overflow");
}

#[test]
fn tables_that_disagree_with_the_manifest_are_rejected() {
    for (case, manifest, weight, shared, multiplier) in [
        ("shared cols < emb_dim", MANIFEST, (2, 1), (3, 1), (6, 1)),
        ("shared cols > emb_dim", MANIFEST, (2, 1), (3, 4), (6, 1)),
        ("multiplier cols != 1", MANIFEST, (2, 1), (3, 2), (6, 2)),
        ("multiplier rows != vocab", MANIFEST, (2, 1), (3, 2), (5, 1)),
        ("dense cols != out_dim", MANIFEST, (2, 2), (3, 2), (6, 1)),
        ("zero-width shared", (6, 0), (2, 1), (3, 0), (6, 1)),
        (
            "zero-row shared (a zero modulus)",
            MANIFEST,
            (2, 1),
            (0, 2),
            (6, 1),
        ),
    ] {
        assert_bad_format(model(manifest, weight, shared, multiplier), case);
    }
}

/// v1 named its hash size in the header, so "shared rows != hash_size"
/// was a case above; in v2 a hashed map's modulus *is* its table's row
/// count and the disagreements a file can state are the ones below.
#[test]
fn recipes_that_disagree_with_their_tables_are_rejected() {
    let seed = 7u64.to_le_bytes();
    let div = |m: u64| [&[MUL, 2, MOD, DIV][..], &m.to_le_bytes()].concat();
    for (case, recipe, tables) in [
        ("unknown combine", vec![7, 1, IDENTITY], vec![(6, 2)]),
        ("unknown row map", vec![ROW, 1, 5], vec![(6, 2)]),
        ("no maps at all", vec![ROW, 0], vec![]),
        (
            "row with two maps",
            vec![ROW, 2, MOD, MOD],
            vec![(3, 2), (3, 2)],
        ),
        (
            "scale-mul with one map",
            vec![SCALE_MUL, 1, MOD],
            vec![(3, 2)],
        ),
        (
            "more maps than tables",
            vec![CONCAT, 2, MOD, MOD],
            vec![(3, 1)],
        ),
        (
            "fewer maps than tables",
            vec![ROW, 1, MOD],
            vec![(3, 2), (3, 2)],
        ),
        (
            "identity rows != vocab",
            vec![ROW, 1, IDENTITY],
            vec![(5, 2)],
        ),
        ("zero divisor", div(0), vec![(3, 2), (2, 2)]),
        (
            "quotient rows != ceil(vocab / m)",
            div(4),
            vec![(4, 2), (3, 2)],
        ),
        (
            "mul halves of different width",
            div(3),
            vec![(3, 2), (2, 1)],
        ),
        (
            "concat parts do not divide emb_dim",
            [&[CONCAT, 3, MOD, MOD, SEEDED], &seed[..]].concat(),
            vec![(3, 1), (3, 1), (3, 1)],
        ),
        (
            "concat part wider than emb_dim / k",
            vec![CONCAT, 2, MOD, MOD],
            vec![(3, 2), (3, 2)],
        ),
        (
            "seeded map without its seed",
            vec![ROW, 1, SEEDED],
            vec![(3, 2)],
        ),
        (
            "projection rows != code width",
            vec![PROJECT, 1, IDENTITY],
            vec![(6, 3), (2, 2)],
        ),
        (
            "projection cols != emb_dim",
            vec![PROJECT, 1, IDENTITY],
            vec![(6, 3), (3, 1)],
        ),
        (
            "projection table missing",
            vec![PROJECT, 1, IDENTITY],
            vec![(6, 3)],
        ),
    ] {
        assert_bad_format(recipe_model(&recipe, &tables), case);
    }
}

/// The same helpers build files that do parse — each general recipe
/// shape once — so the rejections above are about the mismatch, not the
/// helper.
#[test]
fn well_formed_general_recipes_parse_and_run() {
    let seed = 7u64.to_le_bytes();
    let three = 3u64.to_le_bytes();
    for (case, recipe, tables) in [
        ("clamp", vec![ROW, 1, CLAMP], vec![(4, 2)]),
        (
            "quotient-remainder",
            [&[MUL, 2, MOD, DIV], &three[..]].concat(),
            vec![(3, 2), (2, 2)],
        ),
        (
            "seeded concat",
            [&[CONCAT, 2, MOD, SEEDED], &seed[..]].concat(),
            vec![(3, 1), (5, 1)],
        ),
        (
            "projection",
            vec![PROJECT, 1, IDENTITY],
            vec![(6, 3), (3, 2)],
        ),
    ] {
        let model = OnDeviceModel::parse(recipe_model(&recipe, &tables))
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let (logits, _) = InferenceSession::new(model).run(&[1, 5]).unwrap();
        assert!(logits[0].is_finite(), "{case}");
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
