//! Post-training linear quantization (§A.2 / Figure 4).
//!
//! The paper quantizes trained MEmCom models with CoreML's `linear` mode
//! and sweeps 32 → 16 → 8 → 4 → 2 bits. This module implements the same
//! scheme: symmetric per-tensor linear quantization for integer widths and
//! IEEE-754 half precision for 16 bits.

use crate::{OnDeviceError, Result};

/// Storage type of a serialized table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// 32-bit IEEE float (no quantization).
    F32,
    /// 16-bit IEEE half.
    F16,
    /// Symmetric linear 8-bit integer.
    Int8,
    /// Symmetric linear 4-bit integer (two values per byte).
    Int4,
    /// Symmetric linear 2-bit integer (four values per byte).
    Int2,
}

impl Dtype {
    /// Bits per stored element.
    pub fn bits(self) -> usize {
        match self {
            Dtype::F32 => 32,
            Dtype::F16 => 16,
            Dtype::Int8 => 8,
            Dtype::Int4 => 4,
            Dtype::Int2 => 2,
        }
    }

    /// Bytes per row of `cols` elements (each row starts byte-aligned).
    pub fn row_bytes(self, cols: usize) -> usize {
        (cols * self.bits()).div_ceil(8)
    }

    /// Bytes of per-row metadata when rows are stored with an
    /// *independent* per-row scale (the serving store's layout): integer
    /// dtypes prepend their `f32` scale, float dtypes need none.
    pub fn scale_prefix_bytes(self) -> usize {
        match self {
            Dtype::F32 | Dtype::F16 => 0,
            Dtype::Int8 | Dtype::Int4 | Dtype::Int2 => 4,
        }
    }

    /// Bytes per stored row in the per-row-scale layout
    /// ([`Dtype::scale_prefix_bytes`] + [`Dtype::row_bytes`]).
    pub fn stored_row_bytes(self, cols: usize) -> usize {
        self.scale_prefix_bytes() + self.row_bytes(cols)
    }

    /// Wire tag for the format.
    pub fn tag(self) -> u8 {
        match self {
            Dtype::F32 => 0,
            Dtype::F16 => 1,
            Dtype::Int8 => 2,
            Dtype::Int4 => 3,
            Dtype::Int2 => 4,
        }
    }

    /// Parses a wire tag.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::BadFormat`] for unknown tags.
    pub fn from_tag(tag: u8) -> Result<Self> {
        Ok(match tag {
            0 => Dtype::F32,
            1 => Dtype::F16,
            2 => Dtype::Int8,
            3 => Dtype::Int4,
            4 => Dtype::Int2,
            _ => {
                return Err(OnDeviceError::BadFormat {
                    context: format!("unknown dtype tag {tag}"),
                })
            }
        })
    }

    /// The dtype the paper's Figure 4 uses for a given bit width.
    ///
    /// # Errors
    ///
    /// Returns [`OnDeviceError::Unsupported`] for widths outside
    /// {32, 16, 8, 4, 2}.
    pub fn for_bits(bits: usize) -> Result<Self> {
        Ok(match bits {
            32 => Dtype::F32,
            16 => Dtype::F16,
            8 => Dtype::Int8,
            4 => Dtype::Int4,
            2 => Dtype::Int2,
            _ => {
                return Err(OnDeviceError::Unsupported {
                    context: format!("no {bits}-bit quantization mode"),
                })
            }
        })
    }
}

/// Converts an `f32` to IEEE-754 half-precision bits (round-to-nearest).
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let frac = bits & 0x007F_FFFF;
    if exp == 0xFF {
        // Inf / NaN.
        return sign | 0x7C00 | if frac != 0 { 0x0200 } else { 0 };
    }
    let unbiased = exp - 127;
    if unbiased > 15 {
        return sign | 0x7C00; // overflow → inf
    }
    if unbiased >= -14 {
        // Normal half.
        let half_exp = ((unbiased + 15) as u16) << 10;
        let half_frac = (frac >> 13) as u16;
        // Round to nearest even on the dropped bits.
        let round = (frac >> 12) & 1;
        let mut out = sign | half_exp | half_frac;
        if round == 1 {
            out = out.wrapping_add(1);
        }
        return out;
    }
    if unbiased >= -24 {
        // Subnormal half: frac_half = mantissa24 · 2^(unbiased+1).
        let shift = (-unbiased - 1) as u32; // 14..=23
        let mantissa24 = frac | 0x0080_0000;
        let mantissa = mantissa24 >> shift;
        let round = (mantissa24 >> (shift - 1)) & 1;
        let mut out = sign | mantissa as u16;
        if round == 1 {
            out = out.wrapping_add(1);
        }
        return out;
    }
    sign // underflow → signed zero
}

/// Converts IEEE-754 half-precision bits back to `f32`.
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let frac = (h & 0x03FF) as u32;
    let bits = match (exp, frac) {
        (0, 0) => sign,
        (0, f) => {
            // Subnormal: value = f · 2⁻²⁴. Normalize f into 1.m form; k
            // left-shifts put the implicit bit at 0x400, giving
            // value = (1 + m/1024) · 2^(−14−k), i.e. exp32 = 113 − k.
            let mut k = 0i32;
            let mut f = f;
            while f & 0x0400 == 0 {
                f <<= 1;
                k += 1;
            }
            let exp32 = (113 - k) as u32;
            sign | (exp32 << 23) | ((f & 0x03FF) << 13)
        }
        (0x1F, 0) => sign | 0x7F80_0000,
        (0x1F, f) => sign | 0x7F80_0000 | (f << 13),
        (e, f) => sign | ((e + 127 - 15) << 23) | (f << 13),
    };
    f32::from_bits(bits)
}

/// The symmetric linear quantization scale for a source whose *finite*
/// magnitudes are bounded by `max_abs` (callers sanitize via
/// [`finite_max_abs`]): one step maps `max_abs` onto the dtype's
/// positive integer range. `1.0` for float dtypes, and for an all-zero
/// source (which encodes and decodes exactly at any scale).
///
/// The step is clamped to at least `f32::MIN_POSITIVE`: a subnormal
/// `max_abs` otherwise lets the division underflow to a zero (or
/// subnormal) scale, turning `x / scale` in [`quantize_value`] into
/// inf/NaN and certifying a zero-width error bound for a nonzero row.
/// With the clamp such rows encode to all-zero codes whose
/// `scale * 0.5` bound honestly covers them.
fn linear_scale(max_abs: f32, dtype: Dtype) -> f32 {
    match dtype {
        Dtype::F32 | Dtype::F16 => 1.0,
        Dtype::Int8 | Dtype::Int4 | Dtype::Int2 => {
            debug_assert!(max_abs.is_finite(), "sanitize max_abs before scaling");
            let qmax = ((1usize << (dtype.bits() - 1)) - 1) as f32;
            if max_abs == 0.0 {
                1.0
            } else {
                (max_abs / qmax).max(f32::MIN_POSITIVE)
            }
        }
    }
}

/// Largest *finite* magnitude in `row`, plus whether any non-finite
/// value (NaN or ±inf) was present. This is the `max_abs` every scale
/// and error-bound computation uses: an infinity must widen the scale
/// to infinity (encoding every finite value to 0 with a lying bound)
/// exactly never, and NaN must not poison the fold.
///
/// The fold is an integer max over `bits & 0x7fff_ffff`, the magnitude's
/// bit pattern, of the finite values (those patterns below the
/// exponent-all-ones `0x7f80_0000`), which the compiler vectorizes. It
/// returns the same bits a float `max(|x|)` fold would: non-negative
/// finite floats, subnormals and `+0.0` included, order exactly as their
/// bit patterns do, and `−0.0` masks to `+0.0`.
pub(crate) fn finite_max_abs(row: &[f32]) -> (f32, bool) {
    let mut max_bits = 0u32;
    let mut any_non_finite = false;
    for &x in row {
        let bits = x.to_bits() & 0x7fff_ffff;
        let finite = bits < 0x7f80_0000;
        max_bits = max_bits.max(if finite { bits } else { 0 });
        any_non_finite |= !finite;
    }
    (f32::from_bits(max_bits), any_non_finite)
}

/// The value a lossy encoding stores in place of `x`: NaN becomes 0
/// (it carries no magnitude to preserve), ±inf clamps to the row's
/// largest finite magnitude with the infinity's sign. Finite values
/// pass through untouched. The certified row bound then covers the
/// error relative to this sanitized row.
fn sanitize_non_finite(x: f32, max_abs: f32) -> f32 {
    if x.is_finite() {
        x
    } else if x.is_nan() {
        0.0
    } else {
        max_abs.copysign(x)
    }
}

/// Worst-case absolute reconstruction error of one value quantized to
/// `dtype` at linear `scale`, where `max_abs` bounds the source
/// magnitudes. Integer dtypes err by at most half a step; f16 rounds to
/// 11 significand bits (relative error `2⁻¹¹`, bounded absolutely at
/// `max_abs`, plus the `2⁻²⁴` subnormal granularity); f32 is exact —
/// and so is an all-zero source at any dtype, which certifies 0 rather
/// than half of the fallback scale (a zeroed padding row must not poison
/// a whole store's bound).
///
/// Values beyond f16's finite range (±65504) saturate to infinity and
/// are *not* covered by the f16 bound.
pub fn dequant_error_bound(dtype: Dtype, scale: f32, max_abs: f32) -> f32 {
    if max_abs == 0.0 {
        return 0.0;
    }
    match dtype {
        Dtype::F32 => 0.0,
        Dtype::F16 => max_abs * (1.0 / 1024.0) + 6e-8,
        Dtype::Int8 | Dtype::Int4 | Dtype::Int2 => scale * 0.5,
    }
}

/// Quantizes one row independently of its table — the per-row-scale
/// layout the serving store uses — returning the row's linear scale
/// (`1.0` for float dtypes). It is the one-row case of the encoder a
/// model file's tables go through, with the same sanitize rule: NaN → 0
/// and ±inf → the row's signed largest finite magnitude before a lossy
/// encoding, so the scale is finite and [`dequant_error_bound`] at the
/// row's finite `max_abs` certifies the sanitized row; F32 stays a
/// verbatim bit-exact passthrough.
///
/// # Panics
///
/// Panics on a mis-sized `out` — a caller sizing bug.
pub fn quantize_row(row: &[f32], dtype: Dtype, out: &mut [u8]) -> f32 {
    quantize_rows(row, 1, row.len(), dtype, out).0
}

/// Quantizes `src`, `rows` rows of `cols` values, under one linear scale
/// taken over all of them, returning that scale (`1.0` for float
/// dtypes) and the finite `max_abs` of `src` it was taken over, the one
/// [`dequant_error_bound`] certifies at (`0.0` for F32, which scans no
/// max and certifies no error at any). A model file stores each table this way (one scale per
/// table, format v2); [`quantize_row`] is the single-row case. `out`
/// holds the rows back to back, each [`Dtype::row_bytes`]`(cols)` long
/// and byte-aligned; it is zeroed before the packed encodings OR into
/// place.
///
/// Non-finite inputs are sanitized before any lossy encoding (NaN → 0,
/// ±inf → the largest finite magnitude of `src`, signed): the returned
/// scale is always finite, and [`dequant_error_bound`] at the finite
/// `max_abs` certifies the error *relative to the sanitized values*. The
/// F32 dtype stays a verbatim bit-exact passthrough: fp32 rows pack with
/// no padding, so the whole table is copied as little-endian bytes in
/// one pass, with no max scan, zero fill or per-row loop, and the scale
/// is `1.0`. Integer codes round as [`quantize_value`] describes.
///
/// # Panics
///
/// Panics when `src` or `out` is mis-sized — a caller sizing bug.
pub(crate) fn quantize_rows(
    src: &[f32],
    rows: usize,
    cols: usize,
    dtype: Dtype,
    out: &mut [u8],
) -> (f32, f32) {
    let row_bytes = dtype.row_bytes(cols);
    assert!(
        src.len() == rows * cols && out.len() == rows * row_bytes,
        "payload buffer must hold row_bytes per row"
    );
    if dtype == Dtype::F32 {
        encode_row(src, dtype, 1.0, out, |x| x);
        return (1.0, 0.0);
    }
    out.fill(0);
    let (max_abs, any_non_finite) = finite_max_abs(src);
    let scale = linear_scale(max_abs, dtype);
    for r in 0..rows {
        let row = &src[r * cols..(r + 1) * cols];
        let out = &mut out[r * row_bytes..(r + 1) * row_bytes];
        if any_non_finite {
            encode_row(row, dtype, scale, out, |x| sanitize_non_finite(x, max_abs));
        } else {
            encode_row(row, dtype, scale, out, |x| x);
        }
    }
    (scale, max_abs)
}

/// Encodes one row of f32s into the packed representation. `out` must be
/// [`Dtype::row_bytes`]`(row.len())` long and zeroed (the sub-byte
/// encodings OR into place — [`quantize_rows`] is the entry point and
/// zeroes the buffer itself). `map` is applied ahead of every lossy
/// encoding — the sanitization hook for non-finite inputs. The F32 arm
/// deliberately bypasses `map`: exact storage needs no sanitizing, and
/// F32 stores must stay bit-identical to their source.
fn encode_row(row: &[f32], dtype: Dtype, scale: f32, out: &mut [u8], map: impl Fn(f32) -> f32) {
    match dtype {
        Dtype::F32 => {
            for (bytes, &x) in out.chunks_exact_mut(4).zip(row) {
                bytes.copy_from_slice(&x.to_le_bytes());
            }
        }
        Dtype::F16 => {
            for (i, &x) in row.iter().enumerate() {
                out[i * 2..(i + 1) * 2].copy_from_slice(&f32_to_f16_bits(map(x)).to_le_bytes());
            }
        }
        Dtype::Int8 => {
            for (i, &x) in row.iter().enumerate() {
                out[i] = quantize_value(map(x), scale, 8) as u8;
            }
        }
        Dtype::Int4 => {
            for (i, &x) in row.iter().enumerate() {
                let q = (quantize_value(map(x), scale, 4) as u8) & 0x0F;
                if i % 2 == 0 {
                    out[i / 2] |= q;
                } else {
                    out[i / 2] |= q << 4;
                }
            }
        }
        Dtype::Int2 => {
            for (i, &x) in row.iter().enumerate() {
                let q = (quantize_value(map(x), scale, 2) as u8) & 0x03;
                out[i / 4] |= q << ((i % 4) * 2);
            }
        }
    }
}

/// Decodes one packed row directly into `out` (`out.len()` columns) —
/// the zero-allocation primitive every dequantizing hot path shares: the
/// on-device engine decodes activations in place and the serving store
/// decodes rows straight into the caller's batch slab.
///
/// Dispatches to the runtime-selected [`crate::simd`] kernel; the
/// scalar fallback produces bit-identical output (see that module's
/// exactness contract).
///
/// # Panics
///
/// Panics when `bytes` is shorter than
/// [`Dtype::row_bytes`]`(out.len())`.
pub fn decode_row_into(bytes: &[u8], dtype: Dtype, scale: f32, out: &mut [f32]) {
    match dtype {
        Dtype::F32 => crate::simd::copy_f32(bytes, out),
        Dtype::F16 => crate::simd::decode_f16(bytes, out),
        Dtype::Int8 => crate::simd::dequant_i8(bytes, scale, out),
        Dtype::Int4 => crate::simd::dequant_i4(bytes, scale, out),
        Dtype::Int2 => crate::simd::dequant_i2(bytes, scale, out),
    }
}

/// The `bits`-wide code of `x` at linear `scale`: `x / scale` rounded to
/// the nearest integer, halves away from zero, and clamped to
/// `±qmax = ±(2^(bits−1) − 1)`; NaN codes to 0. This is exactly
/// `(x / scale).round().clamp(-qmax, qmax) as i8`, without the libm
/// `roundf` call that keeps an encode loop scalar: the quotient is
/// clamped first (the codes in range are the same either way, since
/// `qmax` is an integer), truncated toward zero, and moved one step away
/// from zero when the part truncated is at least ½ in magnitude. The
/// clamped quotient is at most 127 in magnitude, far below 2²³, so the
/// truncation is exact and so is the subtraction that yields the
/// fraction (the two operands are within a factor of two, or the
/// truncation is 0). A NaN quotient survives the clamp and truncates to
/// 0, with a NaN fraction that moves it nowhere.
pub(crate) fn quantize_value(x: f32, scale: f32, bits: usize) -> i8 {
    let qmax = ((1usize << (bits - 1)) - 1) as f32;
    let q = (x / scale).clamp(-qmax, qmax);
    let whole = q as i32;
    let frac = q - whole as f32;
    (whole + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)) as i8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// `src` quantized as a model file stores a table of `cols`-wide rows
    /// ([`quantize_rows`]), then decoded row by row as the file's column
    /// reads it (`tables.rs`): the decoded values, the table's scale and
    /// the bound the table certifies.
    fn file_round_trip(src: &[f32], cols: usize, dtype: Dtype) -> (Vec<f32>, f32, f32) {
        let (rows, row_bytes) = (src.len() / cols, dtype.row_bytes(cols));
        let mut data = vec![0u8; rows * row_bytes];
        let (scale, _) = quantize_rows(src, rows, cols, dtype, &mut data);
        let mut out = vec![f32::NAN; src.len()];
        for (bytes, row) in data.chunks_exact(row_bytes).zip(out.chunks_exact_mut(cols)) {
            decode_row_into(bytes, dtype, scale, row);
        }
        let bound = dequant_error_bound(dtype, scale, finite_max_abs(src).0);
        (out, scale, bound)
    }

    #[test]
    fn f16_round_trip_exact_values() {
        for x in [0.0f32, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0] {
            assert_eq!(f16_bits_to_f32(f32_to_f16_bits(x)), x, "{x}");
        }
    }

    #[test]
    fn f16_special_values() {
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::INFINITY)),
            f32::INFINITY
        );
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(f32::NEG_INFINITY)),
            f32::NEG_INFINITY
        );
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Overflow saturates to infinity.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e20)), f32::INFINITY);
        // Tiny values flush toward zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-20)), 0.0);
    }

    #[test]
    fn f16_subnormals_survive() {
        let x = 6e-5f32; // near the subnormal boundary (min normal ≈ 6.1e-5)
        let rt = f16_bits_to_f32(f32_to_f16_bits(x));
        assert!((rt - x).abs() / x < 0.01, "{x} -> {rt}");
        let sub = 1e-6f32; // deep subnormal
        let rt = f16_bits_to_f32(f32_to_f16_bits(sub));
        assert!((rt - sub).abs() < 1e-7, "{sub} -> {rt}");
    }

    #[test]
    fn dtype_sizing() {
        assert_eq!(Dtype::F32.row_bytes(3), 12);
        assert_eq!(Dtype::F16.row_bytes(3), 6);
        assert_eq!(Dtype::Int8.row_bytes(3), 3);
        assert_eq!(Dtype::Int4.row_bytes(3), 2);
        assert_eq!(Dtype::Int2.row_bytes(3), 1);
        assert_eq!(Dtype::Int2.row_bytes(5), 2);
        for d in [
            Dtype::F32,
            Dtype::F16,
            Dtype::Int8,
            Dtype::Int4,
            Dtype::Int2,
        ] {
            assert_eq!(Dtype::from_tag(d.tag()).unwrap(), d);
        }
        assert!(Dtype::from_tag(9).is_err());
        assert_eq!(Dtype::for_bits(8).unwrap(), Dtype::Int8);
        assert!(Dtype::for_bits(3).is_err());
    }

    #[test]
    fn int8_round_trip_error_bounded() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) / 10.0).collect();
        let (deq, _, bound) = file_round_trip(&data, 10, Dtype::Int8);
        let bound = bound + 1e-6;
        for (a, b) in data.iter().zip(&deq) {
            assert!((a - b).abs() <= bound, "{a} vs {b} (bound {bound})");
        }
    }

    #[test]
    fn lower_precision_is_lossier() {
        let data: Vec<f32> = (0..256).map(|i| ((i as f32) * 0.37).sin()).collect();
        let err = |d: Dtype| {
            let (deq, _, _) = file_round_trip(&data, 16, d);
            data.iter()
                .zip(&deq)
                .map(|(a, b)| (a - b).abs())
                .fold(0f32, f32::max)
        };
        let (e16, e8, e4, e2) = (
            err(Dtype::F16),
            err(Dtype::Int8),
            err(Dtype::Int4),
            err(Dtype::Int2),
        );
        assert!(e16 < e8, "f16 {e16} vs int8 {e8}");
        assert!(e8 < e4, "int8 {e8} vs int4 {e4}");
        assert!(e4 < e2, "int4 {e4} vs int2 {e2}");
    }

    #[test]
    fn zero_tensor_quantizes_cleanly() {
        for dtype in [Dtype::Int8, Dtype::Int4, Dtype::Int2] {
            let (deq, _, _) = file_round_trip(&[0.0; 16], 4, dtype);
            assert!(deq.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn zero_rows_certify_zero_error() {
        // A zeroed row (padding_idx rows in trained tables) round-trips
        // exactly at any dtype, so its bound is 0 — it must not poison a
        // store-wide max with the fallback scale's half-step.
        for dtype in [Dtype::F16, Dtype::Int8, Dtype::Int4, Dtype::Int2] {
            let mut payload = vec![0xFFu8; dtype.row_bytes(6)];
            let scale = quantize_row(&[0.0; 6], dtype, &mut payload);
            assert_eq!(dequant_error_bound(dtype, scale, 0.0), 0.0, "{dtype:?}");
            let mut out = vec![f32::NAN; 6];
            decode_row_into(&payload, dtype, scale, &mut out);
            assert_eq!(out, vec![0.0; 6], "{dtype:?} (stale buffer bits cleared)");
        }
        // The table-level bound degenerates to 0 for an all-zero tensor
        // too, and a mixed table still reports a positive bound.
        let (_, _, zeros_bound) = file_round_trip(&[0.0; 6], 3, Dtype::Int8);
        assert_eq!(zeros_bound, 0.0);
        let mixed = [0.0, 0.0, 0.0, 1.0, -2.0, 0.5];
        let (_, _, bound) = file_round_trip(&mixed, 3, Dtype::Int8);
        assert!(bound > 0.0);
        assert!(bound < 0.01);
    }

    #[test]
    fn non_finite_rows_sanitize_with_honest_bound() {
        // Regression: ±inf used to drive max_abs (and thus the scale) to
        // infinity, encoding every finite value to 0 while the advertised
        // bound claimed near-exactness; NaN slid through the f32::max
        // fold unnoticed.
        let row = [1.0f32, f32::INFINITY, f32::NEG_INFINITY, f32::NAN, -2.5];
        for dtype in [Dtype::F16, Dtype::Int8, Dtype::Int4, Dtype::Int2] {
            let mut payload = vec![0u8; dtype.row_bytes(row.len())];
            let scale = quantize_row(&row, dtype, &mut payload);
            assert!(scale.is_finite(), "{dtype:?} scale {scale}");
            let mut out = vec![f32::NAN; row.len()];
            decode_row_into(&payload, dtype, scale, &mut out);
            assert!(
                out.iter().all(|x| x.is_finite()),
                "{dtype:?} decoded {out:?}"
            );
            let bound = dequant_error_bound(dtype, scale, 2.5) * (1.0 + 1e-5) + 1e-6;
            // Finite values decode within the certified bound…
            assert!((out[0] - 1.0).abs() <= bound, "{dtype:?} {out:?}");
            assert!((out[4] + 2.5).abs() <= bound, "{dtype:?} {out:?}");
            // …NaN lands at 0, ±inf at the signed finite row max.
            assert!(out[3].abs() <= bound, "{dtype:?} NaN → {}", out[3]);
            assert!((out[1] - 2.5).abs() <= bound, "{dtype:?} +inf → {}", out[1]);
            assert!((out[2] + 2.5).abs() <= bound, "{dtype:?} -inf → {}", out[2]);
        }
        // F32 stays a verbatim bit-exact passthrough — no sanitizing.
        let mut payload = vec![0u8; Dtype::F32.row_bytes(row.len())];
        quantize_row(&row, Dtype::F32, &mut payload);
        let mut out = vec![0f32; row.len()];
        decode_row_into(&payload, Dtype::F32, 1.0, &mut out);
        assert_eq!(out[1], f32::INFINITY);
        assert_eq!(out[2], f32::NEG_INFINITY);
        assert!(out[3].is_nan());
    }

    #[test]
    fn subnormal_max_abs_clamps_scale_and_stays_honest() {
        // Regression: a subnormal max_abs underflowed linear_scale to 0,
        // making x / scale inf (→ saturated codes) while the certified
        // bound collapsed to scale · 0.5 = 0 — a lie. The clamp keeps
        // the scale a normal float whose half-step covers the row.
        let tiny = f32::from_bits(1); // smallest positive subnormal
        let row = [tiny, -tiny, 0.0];
        for dtype in [Dtype::Int8, Dtype::Int4, Dtype::Int2] {
            let mut payload = vec![0u8; dtype.row_bytes(row.len())];
            let scale = quantize_row(&row, dtype, &mut payload);
            assert!(
                scale.is_finite() && scale >= f32::MIN_POSITIVE,
                "{dtype:?} scale {scale:e}"
            );
            let mut out = vec![f32::NAN; row.len()];
            decode_row_into(&payload, dtype, scale, &mut out);
            let bound = dequant_error_bound(dtype, scale, tiny);
            assert!(bound > 0.0, "{dtype:?}");
            for (a, b) in row.iter().zip(&out) {
                assert!((a - b).abs() <= bound, "{dtype:?} {a:e} vs {b:e}");
            }
        }
    }

    #[test]
    fn the_rounding_rule_is_round_then_clamp_on_every_probed_input() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let mut inputs = vec![
            0.0,
            -0.0,
            f32::from_bits(1),
            -f32::from_bits(1),
            f32::from_bits(0x007f_ffff),
            -f32::from_bits(0x007f_ffff),
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        for payload in [
            0x7fc0_0000u32,
            0x7f80_0001,
            0x7fbf_ffff,
            0x7fff_ffff,
            0x7fd2_3456,
        ] {
            inputs.extend([
                f32::from_bits(payload),
                f32::from_bits(payload | 0x8000_0000),
            ]);
        }
        // Every half-integer boundary in and just past the widest code
        // range (−128.5 ..= 128.5), ±64 ulps.
        for k in -129..=128 {
            let half = (k as f32 + 0.5).to_bits() as i64;
            inputs.extend((-64..=64).map(|ulps| f32::from_bits((half + ulps) as u32)));
        }
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let random = (0..1 << 20).map(|_| f32::from_bits(rng.gen::<u32>()));
        inputs.extend(random);
        for bits in [8, 4, 2] {
            let qmax = ((1usize << (bits - 1)) - 1) as f32;
            for &x in &inputs {
                let want = x.round().clamp(-qmax, qmax) as i8;
                let got = quantize_value(x, 1.0, bits);
                assert_eq!(got, want, "{bits} bits: {x:e} ({:#010x})", x.to_bits());
            }
        }
    }

    proptest! {
        #[test]
        fn prop_f16_round_trip_relative_error(x in -60000.0f32..60000.0) {
            let rt = f16_bits_to_f32(f32_to_f16_bits(x));
            let denom = x.abs().max(1e-3);
            prop_assert!((rt - x).abs() / denom < 1e-3, "{} -> {}", x, rt);
        }

        #[test]
        fn prop_int_quant_error_bounded(
            vals in proptest::collection::vec(-10.0f32..10.0, 4..64),
            bits in prop_oneof![Just(8usize), Just(4), Just(2)]
        ) {
            let (deq, scale, _) = file_round_trip(&vals, vals.len(), Dtype::for_bits(bits).unwrap());
            let bound = scale * 0.5 + 1e-5;
            for (a, b) in vals.iter().zip(&deq) {
                prop_assert!((a - b).abs() <= bound, "{} vs {} bound {}", a, b, bound);
            }
        }

        #[test]
        fn prop_table_round_trip_within_certified_bound(
            vals in proptest::collection::vec(-4000.0f32..4000.0, 4..96),
            dtype in prop_oneof![
                Just(Dtype::F16),
                Just(Dtype::Int8),
                Just(Dtype::Int4),
            ]
        ) {
            // The bound the table *advertises* must hold, not just the
            // internal half-step formula: this is what serving-layer
            // certification relies on. (F16's bound is relative to the
            // table's max_abs, so the range stays well inside f16's
            // finite ±65504.)
            let (deq, _, bound) = file_round_trip(&vals, vals.len(), dtype);
            let bound = bound * (1.0 + 1e-5) + 1e-6;
            for (a, b) in vals.iter().zip(&deq) {
                prop_assert!(
                    (a - b).abs() <= bound,
                    "{:?}: {} vs {} bound {}", dtype, a, b, bound
                );
            }
        }

        #[test]
        fn prop_row_quantize_round_trip_within_bound(
            vals in proptest::collection::vec(-1000.0f32..1000.0, 1..64),
            dtype in prop_oneof![
                Just(Dtype::F32),
                Just(Dtype::F16),
                Just(Dtype::Int8),
                Just(Dtype::Int4),
                Just(Dtype::Int2),
            ]
        ) {
            // The per-row-scale primitives the serving store is built on:
            // quantize_row → decode_row_into round-trips within the
            // per-row dequant_error_bound.
            let mut payload = vec![0u8; dtype.row_bytes(vals.len())];
            let scale = quantize_row(&vals, dtype, &mut payload);
            let mut out = vec![f32::NAN; vals.len()];
            decode_row_into(&payload, dtype, scale, &mut out);
            let max_abs = vals.iter().fold(0f32, |m, &x| m.max(x.abs()));
            let bound =
                dequant_error_bound(dtype, scale, max_abs) * (1.0 + 1e-5) + 1e-6;
            for (a, b) in vals.iter().zip(&out) {
                prop_assert!(
                    (a - b).abs() <= bound,
                    "{:?}: {} vs {} bound {} scale {}", dtype, a, b, bound, scale
                );
            }
        }

        #[test]
        fn prop_f16_encode_total_for_all_f32_bit_patterns(
            bits in prop_oneof![
                // Subnormal f32s (the paper sweep never hits these, the
                // converter still must not panic or mangle them).
                0u32..0x0080_0000u32,
                // Around f16's exponent range boundaries, inf and NaN.
                0x7F00_0000u32..0x7FFF_FFFFu32,
                // Everything else.
                0u32..u32::MAX,
            ]
        ) {
            for bits in [bits, bits | 0x8000_0000] {
                let x = f32::from_bits(bits);
                let h = f32_to_f16_bits(x); // must not panic
                let back = f16_bits_to_f32(h); // must not panic
                if x.is_nan() {
                    prop_assert!(back.is_nan(), "NaN must stay NaN");
                } else if x.is_infinite() {
                    prop_assert_eq!(back, x, "inf must stay signed inf");
                } else {
                    prop_assert!(!back.is_nan(), "finite {} decoded to NaN", x);
                    prop_assert_eq!(
                        back.is_sign_negative(),
                        x.is_sign_negative(),
                        "sign of {} lost", x
                    );
                }
            }
        }

        #[test]
        fn prop_quantize_row_total_for_arbitrary_bit_patterns(
            bits in proptest::collection::vec(0u32..=u32::MAX, 1..40),
            dtype in prop_oneof![
                Just(Dtype::F32),
                Just(Dtype::F16),
                Just(Dtype::Int8),
                Just(Dtype::Int4),
                Just(Dtype::Int2),
            ]
        ) {
            // Totality over every f32 bit pattern — NaNs of all
            // payloads, infinities, subnormals: the scale stays finite,
            // lossy decodes stay finite, and the certified bound holds
            // against the sanitized row.
            let vals: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
            let mut payload = vec![0u8; dtype.row_bytes(vals.len())];
            let scale = quantize_row(&vals, dtype, &mut payload);
            prop_assert!(scale.is_finite(), "{:?} scale {}", dtype, scale);
            let mut out = vec![0f32; vals.len()];
            decode_row_into(&payload, dtype, scale, &mut out);
            if dtype == Dtype::F32 {
                // Verbatim passthrough.
                for (a, b) in vals.iter().zip(&out) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            } else {
                let (max_abs, _) = finite_max_abs(&vals);
                let bound =
                    dequant_error_bound(dtype, scale, max_abs) * (1.0 + 1e-5) + 1e-6;
                for (a, b) in vals.iter().zip(&out) {
                    let target = sanitize_non_finite(*a, max_abs);
                    if dtype == Dtype::F16 && target.abs() > 65504.0 {
                        continue; // documented f16 saturation caveat
                    }
                    prop_assert!(
                        (target - b).abs() <= bound,
                        "{:?}: {} (sanitized {}) vs {} bound {}", dtype, a, target, b, bound
                    );
                }
            }
        }

        #[test]
        fn prop_f16_decode_encode_is_identity(h in 0u16..=u16::MAX) {
            // Every half bit pattern decodes without panicking, and every
            // non-NaN pattern (subnormals, ±0, ±inf included) re-encodes
            // to exactly itself — f16 → f32 is exact, so the round trip
            // is lossless.
            let x = f16_bits_to_f32(h);
            if x.is_nan() {
                let r = f32_to_f16_bits(x);
                prop_assert!(f16_bits_to_f32(r).is_nan());
            } else {
                prop_assert_eq!(f32_to_f16_bits(x), h, "{:#06x} -> {} lost", h, x);
            }
        }
    }
}
