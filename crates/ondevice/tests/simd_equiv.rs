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

use memcom_ondevice::quant::{f16_bits_to_f32, quantize_row, Dtype};
use memcom_ondevice::simd;
use proptest::prelude::*;

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

/// Asserts an AXPY result matches the scalar reference: bit-identical,
/// except that where the reference is a NaN any NaN will do (which
/// payload a multiply or add propagates depends on operand order).
fn assert_axpy_eq(got: &[f32], want: &[f32], what: &str) {
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

/// `f32` bit patterns weighted towards the classes a uniform draw
/// almost never hits: anything, ±subnormals, ±0, ±inf.
fn f32_bits() -> impl Strategy<Value = u32> {
    prop_oneof![
        0u32..=u32::MAX,
        0x0000_0000u32..=0x007F_FFFF,
        0x8000_0000u32..=0x807F_FFFF,
        0x0000_0000u32..=0x0000_0000,
        0x8000_0000u32..=0x8000_0000,
        0x7F80_0000u32..=0x7F80_0000,
        0xFF80_0000u32..=0xFF80_0000,
    ]
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

    // AXPY: multiply then add, never fused, over arbitrary bit patterns
    // (subnormals, ±0, ±inf, NaNs) in the scale, the weights and the
    // accumulator — from a decoded row and straight from misaligned
    // page bytes.
    #[test]
    fn axpy_matches_scalar(
        lanes in proptest::collection::vec((f32_bits(), f32_bits()), 1..257),
        x_bits in f32_bits(),
    ) {
        let x = f32::from_bits(x_bits);
        let w: Vec<f32> = lanes.iter().map(|&(w, _)| f32::from_bits(w)).collect();
        let acc: Vec<f32> = lanes.iter().map(|&(_, a)| f32::from_bits(a)).collect();
        let bytes: Vec<u8> = w.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut want = acc.clone();
        simd::scalar::axpy(x, &w, &mut want);
        let mut from_bytes = acc.clone();
        simd::scalar::axpy_le_bytes(x, &bytes, &mut from_bytes);
        assert_axpy_eq(&from_bytes, &want, "scalar axpy_le_bytes");

        let mut got = acc.clone();
        simd::axpy(x, &w, &mut got);
        assert_axpy_eq(&got, &want, "axpy");
        got.copy_from_slice(&acc);
        simd::axpy_le_bytes(x, &bytes, &mut got);
        assert_axpy_eq(&got, &want, "axpy_le_bytes");
        got.copy_from_slice(&acc);
        simd::axpy_le_bytes(x, &misalign(&bytes)[1..], &mut got);
        assert_axpy_eq(&got, &want, "axpy_le_bytes misaligned");
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
