//! SIMD ≡ scalar, bit for bit.
//!
//! Property tests driving every dispatched kernel against the scalar
//! reference in `memcom_ondevice::simd::scalar` over arbitrary bit
//! patterns (NaNs with payloads, infinities, subnormals, negative
//! zero), every dtype, dims 1..257 (covering every vector-width tail),
//! and deliberately unaligned inputs. Equality is `to_bits()` — the
//! kernels promise bit-identical output, not "close enough": serving
//! correctness tests compare rows exactly, and a CI leg re-runs this
//! suite with `MEMCOM_FORCE_SCALAR=1` so both sides of the contract are
//! exercised.

use memcom_core::{MemCom, MemComConfig};
use memcom_nn::{Dense, Sequential};
use memcom_ondevice::compute::WorkCounts;
use memcom_ondevice::format::{HeadOp, OnDeviceModel};
use memcom_ondevice::quant::{f16_bits_to_f32, quantize_row, Dtype};
use memcom_ondevice::{simd, HeadScratch, InferenceSession};
use memcom_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Kernel rows the engine hands the dense tile kernel at once (its
/// private `DENSE_TILE_ROWS`).
const DENSE_TILE_ROWS: usize = 32;

/// Asserts two f32 slices are bit-identical.
fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}]: {g} ({:#010x}) vs {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Asserts a dense-tile result matches the scalar reference:
/// bit-identical, except that where the reference is a NaN any NaN will
/// do (which payload a multiply or add propagates depends on operand
/// order).
fn assert_dense_eq(got: &[f32], want: &[f32], what: &str) {
    let one_nan = |v: &[f32]| -> Vec<f32> {
        let canonical = |x: &f32| if x.is_nan() { f32::NAN } else { *x };
        v.iter().map(canonical).collect()
    };
    assert_bits_eq(&one_nan(got), &one_nan(want), what);
}

/// Copies `bytes` into a buffer at offset 1 and returns the buffer, so
/// the slice handed to the kernel is guaranteed misaligned relative to
/// any vector width.
fn misalign(bytes: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(bytes.len() + 1);
    buf.push(0xA5);
    buf.extend_from_slice(bytes);
    buf
}

proptest! {
    // f32 copy: arbitrary bit patterns (incl. NaN payloads) survive
    // verbatim through both the aligned and misaligned entry.
    #[test]
    fn copy_f32_matches_scalar(words in proptest::collection::vec(0u32..=u32::MAX, 1..257)) {
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        let dim = words.len();
        let mut got = vec![0f32; dim];
        let mut want = vec![0f32; dim];
        simd::copy_f32(&bytes, &mut got);
        simd::scalar::copy_f32(&bytes, &mut want);
        assert_bits_eq(&got, &want, "copy_f32");
        let shifted = misalign(&bytes);
        simd::copy_f32(&shifted[1..], &mut got);
        assert_bits_eq(&got, &want, "copy_f32 misaligned");
    }

    // f16 decode: every one of the 2^16 half patterns is reachable here
    // (sign × exponent × mantissa), including sNaN payloads the
    // hardware F16C path would quiet — which is exactly why the kernel
    // does integer bit manipulation instead.
    #[test]
    fn decode_f16_matches_scalar(halves in proptest::collection::vec(0u16..=u16::MAX, 1..257)) {
        let bytes: Vec<u8> = halves.iter().flat_map(|h| h.to_le_bytes()).collect();
        let dim = halves.len();
        let mut got = vec![0f32; dim];
        let mut want = vec![0f32; dim];
        simd::decode_f16(&bytes, &mut got);
        simd::scalar::decode_f16(&bytes, &mut want);
        assert_bits_eq(&got, &want, "decode_f16");
        // Cross-check the scalar reference itself against the library
        // decoder on one lane.
        assert_eq!(want[0].to_bits(), f16_bits_to_f32(halves[0]).to_bits());
        let shifted = misalign(&bytes);
        simd::decode_f16(&shifted[1..], &mut got);
        assert_bits_eq(&got, &want, "decode_f16 misaligned");
    }

    // int8 dequant: all 256 code values × arbitrary scales (incl. inf
    // and tiny subnormal scales — the kernel multiplies whatever it is
    // given; scale hygiene lives in quantize_row).
    #[test]
    fn dequant_i8_matches_scalar(
        codes in proptest::collection::vec(0u8..=u8::MAX, 1..257),
        scale_bits in 0u32..=u32::MAX,
    ) {
        let scale = f32::from_bits(scale_bits);
        let dim = codes.len();
        let mut got = vec![0f32; dim];
        let mut want = vec![0f32; dim];
        simd::dequant_i8(&codes, scale, &mut got);
        simd::scalar::dequant_i8(&codes, scale, &mut want);
        assert_bits_eq(&got, &want, "dequant_i8");
        let shifted = misalign(&codes);
        simd::dequant_i8(&shifted[1..], scale, &mut got);
        assert_bits_eq(&got, &want, "dequant_i8 misaligned");
    }

    // int4: nibble order (low nibble = even element) must agree between
    // the 16-lane unpack and the scalar loop, at every odd/even tail.
    #[test]
    fn dequant_i4_matches_scalar(
        packed in proptest::collection::vec(0u8..=u8::MAX, 1..129),
        dim_offset in 0usize..2,
        scale in -8f32..8.0,
    ) {
        let dim = (packed.len() * 2 - dim_offset).max(1);
        let mut got = vec![0f32; dim];
        let mut want = vec![0f32; dim];
        simd::dequant_i4(&packed, scale, &mut got);
        simd::scalar::dequant_i4(&packed, scale, &mut want);
        assert_bits_eq(&got, &want, "dequant_i4");
        let shifted = misalign(&packed);
        simd::dequant_i4(&shifted[1..], scale, &mut got);
        assert_bits_eq(&got, &want, "dequant_i4 misaligned");
    }

    // int2 (scalar-only dispatch today, but the contract is the same).
    #[test]
    fn dequant_i2_matches_scalar(
        packed in proptest::collection::vec(0u8..=u8::MAX, 1..65),
        dim_offset in 0usize..4,
        scale in -8f32..8.0,
    ) {
        let dim = (packed.len() * 4 - dim_offset).max(1);
        let mut got = vec![0f32; dim];
        let mut want = vec![0f32; dim];
        simd::dequant_i2(&packed, scale, &mut got);
        simd::scalar::dequant_i2(&packed, scale, &mut want);
        assert_bits_eq(&got, &want, "dequant_i2");
    }

    // Dense tile: per output, every row's multiply then add in row
    // order, then the bias, never fused — over arbitrary bit patterns
    // (subnormals, ±0, ±inf, NaNs) in the inputs, the weights, the
    // accumulators and the bias, and over tame values that expose any
    // reordering, from decoded rows and straight from misaligned page
    // bytes, at any tile height and width.
    #[test]
    fn dense_tile_matches_scalar(
        height in 1usize..=DENSE_TILE_ROWS,
        width in 1usize..=200,
        seed in 0u64..=u64::MAX,
        with_bias in proptest::bool::ANY,
        hostile in proptest::bool::ANY,
    ) {
        let tile = Tile::new(height, width, seed, with_bias, hostile);
        tile.check(&format!("{height}x{width}"));
    }

    // End-to-end: a quantize → dispatch-decode round trip equals the
    // quantize → scalar-decode round trip for every lossy dtype, even
    // when the source row is hostile (non-finite values included).
    #[test]
    fn quantized_roundtrip_decodes_identically(
        words in proptest::collection::vec(0u32..=u32::MAX, 1..257),
        dtype_idx in 0usize..4,
    ) {
        let dtype = [Dtype::F16, Dtype::Int8, Dtype::Int4, Dtype::Int2][dtype_idx];
        let row: Vec<f32> = words.iter().map(|&b| f32::from_bits(b)).collect();
        let mut payload = vec![0u8; dtype.row_bytes(row.len())];
        let scale = quantize_row(&row, dtype, &mut payload);
        let mut got = vec![0f32; row.len()];
        let mut want = vec![0f32; row.len()];
        match dtype {
            Dtype::F16 => {
                simd::decode_f16(&payload, &mut got);
                simd::scalar::decode_f16(&payload, &mut want);
            }
            Dtype::Int8 => {
                simd::dequant_i8(&payload, scale, &mut got);
                simd::scalar::dequant_i8(&payload, scale, &mut want);
            }
            Dtype::Int4 => {
                simd::dequant_i4(&payload, scale, &mut got);
                simd::scalar::dequant_i4(&payload, scale, &mut want);
            }
            Dtype::Int2 => {
                simd::dequant_i2(&payload, scale, &mut got);
                simd::scalar::dequant_i2(&payload, scale, &mut want);
            }
            Dtype::F32 => unreachable!(),
        }
        assert_bits_eq(&got, &want, "roundtrip");
    }
}

#[test]
fn active_kernel_honors_the_force_scalar_env() {
    // The dispatcher latches once per process, so this test states the
    // whole ladder for whichever leg it runs in: forced (the
    // MEMCOM_FORCE_SCALAR CI leg) → Scalar; otherwise Avx2 exactly when
    // the CPU reports it; otherwise Scalar.
    let forced = std::env::var("MEMCOM_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    #[cfg(target_arch = "x86_64")]
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2 = false;
    let want = if !forced && avx2 {
        simd::Kernel::Avx2
    } else {
        simd::Kernel::Scalar
    };
    assert_eq!(simd::active_kernel(), want);
}

/// An `f32` bit pattern weighted towards the classes a uniform draw
/// almost never hits: anything (NaN payloads included), ±subnormals,
/// ±0, ±inf.
fn hostile_f32(rng: &mut StdRng) -> f32 {
    let bits = match rng.gen_range(0..7u32) {
        0 => rng.gen::<u32>(),
        1 => rng.gen_range(0u32..=0x007F_FFFF),
        2 => rng.gen_range(0x8000_0000u32..=0x807F_FFFF),
        3 => 0x0000_0000,
        4 => 0x8000_0000,
        5 => 0x7F80_0000,
        _ => 0xFF80_0000,
    };
    f32::from_bits(bits)
}

/// One dense tile's operands: `height` inputs and kernel rows of
/// `width` weights, the accumulators it starts from and an optional
/// bias, all hostile bit patterns.
struct Tile {
    xs: Vec<f32>,
    rows: Vec<Vec<f32>>,
    acc: Vec<f32>,
    bias: Option<Vec<f32>>,
}

impl Tile {
    /// Hostile bit patterns when `hostile`; otherwise finite values in
    /// ±1, where no term dominates a sum, so any change of operation
    /// order moves bits.
    fn new(height: usize, width: usize, seed: u64, with_bias: bool, hostile: bool) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let value = |rng: &mut StdRng| match hostile {
            true => hostile_f32(rng),
            false => rng.gen_range(-1.0f32..1.0),
        };
        let mut values = |n: usize| (0..n).map(|_| value(&mut rng)).collect::<Vec<_>>();
        Tile {
            xs: values(height),
            rows: (0..height).map(|_| values(width)).collect(),
            acc: values(width),
            bias: with_bias.then(|| values(width)),
        }
    }

    /// The dispatched kernel over decoded rows and over misaligned page
    /// bytes equals the scalar reference, which itself reads page bytes
    /// as it reads decoded rows — NaN payloads excepted everywhere, the
    /// reference's two instances included: which operand's payload an
    /// add propagates is codegen's choice on either tier.
    fn check(&self, what: &str) {
        let bias = self.bias.as_deref();
        let decoded: Vec<&[f32]> = self.rows.iter().map(Vec::as_slice).collect();
        let mut want = self.acc.clone();
        simd::scalar::dense_tile(&self.xs, &decoded, bias, &mut want);

        // Each row at its own offset past a 16-byte boundary.
        let pages: Vec<Vec<u8>> = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let mut page = vec![0xA5; i % 16];
                page.extend(row.iter().flat_map(|w| w.to_le_bytes()));
                page
            })
            .collect();
        let stored: Vec<&[u8]> = pages
            .iter()
            .enumerate()
            .map(|(i, p)| &p[i % 16..])
            .collect();
        let mut got = self.acc.clone();
        simd::scalar::dense_tile(&self.xs, &stored, bias, &mut got);
        assert_dense_eq(&got, &want, &format!("scalar dense_tile from bytes {what}"));

        got.copy_from_slice(&self.acc);
        simd::dense_tile(&self.xs, &decoded, bias, &mut got);
        assert_dense_eq(&got, &want, &format!("dense_tile {what}"));
        got.copy_from_slice(&self.acc);
        simd::dense_tile(&self.xs, &stored, bias, &mut got);
        assert_dense_eq(&got, &want, &format!("dense_tile from bytes {what}"));
    }
}

#[test]
fn dense_tile_matches_scalar_at_every_height_and_block_edge() {
    // Widths around the AVX2 tier's blocks: below one 8-lane register,
    // at and past one and eight registers (64 columns), and tails of
    // every length after a full block.
    let widths = [
        1, 3, 7, 8, 9, 15, 16, 63, 64, 65, 71, 72, 127, 128, 129, 135,
    ];
    for height in 1..=DENSE_TILE_ROWS {
        for (k, &width) in widths.iter().enumerate() {
            let seed = (height * 1000 + width) as u64;
            for hostile in [true, false] {
                let tile = Tile::new(height, width, seed, k % 2 == 0, hostile);
                tile.check(&format!("{height}x{width}, hostile {hostile}"));
            }
        }
    }
}

#[test]
fn every_head_dtype_runs_the_scalar_reference_through_forward_head() {
    // Two tiles (32 + 9 kernel rows), a column count past one
    // `DENSE_CHUNK_COLS` chunk (2048) with a register tail, a non-zero
    // bias: `forward_head` equals the scalar kernel run row at a time
    // over the rows the session decodes, then the bias.
    let (in_dim, out_dim) = (DENSE_TILE_ROWS + 9, 2048 + 77);
    let mut rng = StdRng::seed_from_u64(45);
    let emb = MemCom::new(MemComConfig::new(20, in_dim, 4), &mut rng).unwrap();
    let mut layer = Dense::new(in_dim, out_dim, &mut rng);
    let bias: Vec<f32> = (0..out_dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let bias = Tensor::from_vec(bias, &[out_dim]).unwrap();
    layer.set_weights(layer.weight().clone(), bias).unwrap();
    let mut head = Sequential::new();
    head.push(layer);
    let x: Vec<f32> = (0..in_dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
    for dtype in [
        Dtype::F32,
        Dtype::F16,
        Dtype::Int8,
        Dtype::Int4,
        Dtype::Int2,
    ] {
        let bytes = OnDeviceModel::serialize(&emb, &head, 1, dtype).unwrap();
        let session = InferenceSession::new(OnDeviceModel::parse(bytes).unwrap());
        let HeadOp::Dense { weight, bias, .. } = &session.model().head_ops[0] else {
            panic!("the head is one dense layer");
        };
        let mut rows = vec![vec![0f32; out_dim]; in_dim];
        for (i, row) in rows.iter_mut().enumerate() {
            session.read_row_into(weight, i, row).unwrap();
        }
        let mut b = vec![0f32; out_dim];
        session.read_row_into(bias, 0, &mut b).unwrap();
        let rows: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let mut want = vec![0f32; out_dim];
        simd::scalar::dense_tile(&x, &rows, Some(&b), &mut want);

        // Twice: consecutive calls sweep the column chunks in opposite
        // directions.
        let mut scratch = HeadScratch::new();
        for sweep in ["forward", "backward"] {
            scratch.input(1, in_dim).copy_from_slice(&x);
            let mut got = Vec::new();
            session
                .forward_head(1, &mut scratch, &mut got, &mut WorkCounts::default())
                .unwrap();
            assert_bits_eq(&got, &want, &format!("forward_head at {dtype:?}, {sweep}"));
        }
    }
}
