//! Runtime-dispatched SIMD kernels: row decode and the dense head's
//! tile kernel, plus the cache-line [`prefetch`] hint the embedding read
//! loop issues ahead of its rows.
//!
//! Every row read in the serving store and every embedding gather in
//! the on-device engine funnels through
//! [`decode_row_into`](crate::quant::decode_row_into), and every dense
//! layer of the head
//! ([`InferenceSession::forward_head`](crate::InferenceSession::forward_head))
//! accumulates through [`dense_tile`], over fp32 kernel rows in their
//! pages or quantized rows decoded once per tile; this module is the
//! vector back end underneath both. There are two tiers, selected once
//! per process by [`active_kernel`]: AVX2 on an `x86_64` CPU that
//! reports it, and the scalar reference everywhere else (an `x86_64`
//! without AVX2 included — the reference is compiled at that target's
//! SSE2 baseline).
//!
//! **Bit-exactness is a hard contract**: for any input — including
//! NaNs with arbitrary payloads, infinities, subnormals and signed
//! zeros — the AVX2 decode kernels produce bit-identical `f32` output
//! to [`scalar`]. That is why the f16 decoder is pure integer SIMD
//! replicating [`f16_bits_to_f32`] branchlessly (hardware `F16C` would
//! quiet signaling-NaN payloads).
//!
//! The tile kernel adds `x[i] * w[i][c]` to each accumulator `acc[c]`
//! for every kernel row `i` of a tile in ascending `i`, then the bias,
//! each term as one IEEE multiply rounded to `f32`, then one add —
//! never fused, on either tier. The scalar reference is the
//! row-at-a-time loop; the AVX2 tier holds a block of 64 accumulators
//! in registers across the whole tile instead, so each weight is loaded
//! once and each accumulator loaded and stored once per tile, but every
//! output sees the same operations in the same order. So every result
//! that is not a NaN (subnormals, signed zeros and infinities included)
//! is bit-identical to [`scalar`]. Where the scalar result is a NaN the
//! vector result is a NaN too, but its *payload* is not part of the
//! contract: which operand's payload an x86 multiply or add propagates
//! depends on the operand order the compiler picked, and no decoded
//! model weight is a NaN.
//!
//! The `simd_equiv` proptest suite compares the dispatched kernels
//! with [`scalar`] across all dtypes, dims, alignments and non-finite
//! inputs, so a tier stays in this module only while a CI leg runs it:
//! the default leg dispatches to AVX2 (every CI runner has it), the
//! forced leg below to the reference.
//!
//! # Forcing the scalar reference
//!
//! The `MEMCOM_FORCE_SCALAR` environment variable (any value other
//! than empty or `0`, read once at first use) pins the dispatcher to
//! [`Kernel::Scalar`] — how the reference, the path every non-AVX2
//! target takes, runs on an AVX2 host. CI runs the whole workspace's
//! tests both ways.

use std::sync::OnceLock;

use crate::quant::f16_bits_to_f32;

/// The kernel tier the dispatcher selected for this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// Portable scalar reference (mandatory fallback, forced-scalar
    /// override, and every target without AVX2).
    Scalar,
    /// 256-bit AVX2, detected at runtime via
    /// `is_x86_feature_detected!`.
    Avx2,
}

impl Kernel {
    /// Stable lower-snake name (log lines, bench labels, README).
    pub fn as_str(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for Kernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The kernel tier every dispatching entry point in this module uses,
/// detected once per process (CPU features do not change under us, and
/// the forced-scalar override is meant as a process-wide pin, so the
/// first call wins).
pub fn active_kernel() -> Kernel {
    static ACTIVE: OnceLock<Kernel> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

fn detect() -> Kernel {
    if force_scalar_env() {
        return Kernel::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Kernel::Avx2;
    }
    Kernel::Scalar
}

fn force_scalar_env() -> bool {
    match std::env::var("MEMCOM_FORCE_SCALAR") {
        Ok(v) => !(v.is_empty() || v == "0"),
        Err(_) => false,
    }
}

/// Copies `out.len()` little-endian `f32`s out of `bytes` (the F32
/// stored-row layout). Bit-exact for every pattern including NaNs.
///
/// # Panics
///
/// Panics when `bytes` holds fewer than `4 * out.len()` bytes.
pub fn copy_f32(bytes: &[u8], out: &mut [f32]) {
    assert!(bytes.len() >= out.len() * 4, "short f32 row");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified at runtime by active_kernel(); the
        // assert above covers the kernel's whole-slice access.
        Kernel::Avx2 => unsafe { x86::copy_f32_avx2(bytes, out) },
        _ => scalar::copy_f32(bytes, out),
    }
}

/// Decodes `out.len()` little-endian IEEE-754 half-precision values
/// from `bytes`, bit-identical to
/// [`f16_bits_to_f32`] (signaling-NaN
/// payloads survive).
///
/// # Panics
///
/// Panics when `bytes` holds fewer than `2 * out.len()` bytes.
pub fn decode_f16(bytes: &[u8], out: &mut [f32]) {
    assert!(bytes.len() >= out.len() * 2, "short f16 row");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified at runtime by active_kernel(); the
        // assert above covers the kernel's whole-slice access.
        Kernel::Avx2 => unsafe { x86::decode_f16_avx2(bytes, out) },
        _ => scalar::decode_f16(bytes, out),
    }
}

/// Dequantizes `out.len()` int8 codes: widen to `f32`, multiply by the
/// row `scale`.
///
/// # Panics
///
/// Panics when `bytes` holds fewer than `out.len()` bytes.
pub fn dequant_i8(bytes: &[u8], scale: f32, out: &mut [f32]) {
    assert!(bytes.len() >= out.len(), "short int8 row");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified at runtime by active_kernel(); the
        // assert above covers the kernel's whole-slice access.
        Kernel::Avx2 => unsafe { x86::dequant_i8_avx2(bytes, scale, out) },
        _ => scalar::dequant_i8(bytes, scale, out),
    }
}

/// Dequantizes `out.len()` int4 codes (two per byte, even index in the
/// low nibble): unpack, sign-extend, widen, multiply by `scale`.
///
/// # Panics
///
/// Panics when `bytes` holds fewer than `out.len().div_ceil(2)` bytes.
pub fn dequant_i4(bytes: &[u8], scale: f32, out: &mut [f32]) {
    assert!(bytes.len() >= out.len().div_ceil(2), "short int4 row");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified at runtime by active_kernel(); the
        // assert above covers the kernel's whole-slice access.
        Kernel::Avx2 => unsafe { x86::dequant_i4_avx2(bytes, scale, out) },
        _ => scalar::dequant_i4(bytes, scale, out),
    }
}

/// Dequantizes `out.len()` int2 codes (four per byte). Stays scalar on
/// every tier: at serving dims the 2-bit unpack is load-bound and the
/// shuffle tax outweighs the arithmetic.
///
/// # Panics
///
/// Panics when `bytes` holds fewer than `out.len().div_ceil(4)` bytes.
pub fn dequant_i2(bytes: &[u8], scale: f32, out: &mut [f32]) {
    assert!(bytes.len() >= out.len().div_ceil(4), "short int2 row");
    scalar::dequant_i2(bytes, scale, out);
}

/// A row of dense-kernel weights the tile kernel ([`dense_tile`])
/// reads: decoded `f32`s (`[f32]`), or `f32`s still in the F32
/// stored-row layout (`[u8]`: little-endian, in a page slice at any
/// alignment), so an fp32 kernel row is never copied out of its page.
/// Sealed: these two are the only rows.
pub trait WeightRow: sealed::Row {}

impl WeightRow for [f32] {}
impl WeightRow for [u8] {}

mod sealed {
    /// What the kernels read of a [`WeightRow`](super::WeightRow).
    pub trait Row {
        /// Weights in the row.
        fn width(&self) -> usize;
        /// The weights, in column order.
        fn weights(&self) -> impl Iterator<Item = f32> + '_;
        /// The first weight's address. Only the AVX2 tier reads through
        /// it — `width()` unaligned `f32`s in native byte order, which
        /// on `x86_64` is the little-endian stored order.
        fn as_f32_ptr(&self) -> *const f32;
    }

    impl Row for [f32] {
        fn width(&self) -> usize {
            self.len()
        }
        fn weights(&self) -> impl Iterator<Item = f32> + '_ {
            self.iter().copied()
        }
        fn as_f32_ptr(&self) -> *const f32 {
            self.as_ptr()
        }
    }

    impl Row for [u8] {
        fn width(&self) -> usize {
            self.len() / 4
        }
        fn weights(&self) -> impl Iterator<Item = f32> + '_ {
            let le = |c: &[u8]| f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
            self.chunks_exact(4).map(le)
        }
        fn as_f32_ptr(&self) -> *const f32 {
            self.as_ptr().cast()
        }
    }
}

/// The dense head's tile kernel. For every column `c < acc.len()` it
/// adds `xs[i] * rows[i][c]` for each kernel row `i` of the tile in
/// ascending `i` — one IEEE multiply rounded to `f32`, then one add,
/// never fused — and then, when `bias` is given, `bias[c]`. The AVX2
/// tier keeps a block of accumulators in registers across the whole
/// tile, so it loads and stores each accumulator once per call and
/// each weight once; every output still sees exactly the reference's
/// operation order (see the module docs for the NaN-payload caveat).
///
/// # Panics
///
/// Panics when `rows` and `xs` differ in length, or a row or the bias
/// holds fewer than `acc.len()` values.
pub fn dense_tile<W: WeightRow + ?Sized>(
    xs: &[f32],
    rows: &[&W],
    bias: Option<&[f32]>,
    acc: &mut [f32],
) {
    assert_eq!(rows.len(), xs.len(), "one kernel row per input");
    assert!(
        rows.iter().all(|r| r.width() >= acc.len()),
        "short kernel row"
    );
    assert!(bias.is_none_or(|b| b.len() >= acc.len()), "short bias row");
    match active_kernel() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: AVX2 verified at runtime by active_kernel(); the
        // asserts above put `acc.len()` readable f32s behind every row
        // pointer and the bias, the kernel reads them unaligned, and
        // x86_64 is little-endian, so native f32 reads of page bytes
        // are the stored values.
        Kernel::Avx2 => unsafe { x86::dense_tile_avx2(xs, rows, bias, acc) },
        _ => scalar::dense_tile(xs, rows, bias, acc),
    }
}

/// Bytes per cache line on every target this crate tunes for.
const CACHE_LINE: usize = 64;

/// Hints the CPU to load every cache line `bytes` covers into L1, so a
/// read issued shortly after finds its data instead of waiting on
/// memory. The row reads of one batch are independent, so hinting rows
/// ahead of the read overlaps their cache misses.
///
/// A hint reads nothing and cannot fault: it changes no value and no
/// counter. It is `_mm_prefetch` with `_MM_HINT_T0` on `x86_64` (SSE,
/// part of the baseline, so on both kernel tiers) and a no-op on every
/// other target and under Miri.
#[inline]
pub fn prefetch(bytes: &[u8]) {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let start = bytes.as_ptr();
        let mut offset = 0;
        while offset < bytes.len() {
            // SAFETY: SSE is part of the x86_64 baseline, and a prefetch
            // only hints the cache: it dereferences nothing, so no
            // address can fault. `offset < bytes.len()` keeps the
            // pointer inside the slice anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(start.wrapping_add(offset).cast()) };
            // On to the first byte of the next line.
            offset += CACHE_LINE - (start as usize + offset) % CACHE_LINE;
        }
    }
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let _ = bytes;
}

/// The portable scalar reference kernels — the semantics every vector
/// tier must reproduce bit-for-bit, and the mandatory fallback for
/// loop tails, non-`x86_64` targets and the forced-scalar override.
pub mod scalar {
    use super::{f16_bits_to_f32, WeightRow};

    /// Scalar [`copy_f32`](super::copy_f32).
    pub fn copy_f32(bytes: &[u8], out: &mut [f32]) {
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *o = f32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        }
    }

    /// Scalar [`decode_f16`](super::decode_f16).
    pub fn decode_f16(bytes: &[u8], out: &mut [f32]) {
        for (o, c) in out.iter_mut().zip(bytes.chunks_exact(2)) {
            *o = f16_bits_to_f32(u16::from_le_bytes(c.try_into().expect("2-byte chunk")));
        }
    }

    /// Scalar [`dequant_i8`](super::dequant_i8).
    pub fn dequant_i8(bytes: &[u8], scale: f32, out: &mut [f32]) {
        for (o, &b) in out.iter_mut().zip(bytes.iter()) {
            *o = (b as i8) as f32 * scale;
        }
    }

    /// Scalar [`dequant_i4`](super::dequant_i4). Indexing is relative
    /// to the slice start, so callers handing over a loop tail must
    /// split at an even element index to preserve nibble parity.
    pub fn dequant_i4(bytes: &[u8], scale: f32, out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            let nib = if i % 2 == 0 {
                bytes[i / 2] & 0x0F
            } else {
                bytes[i / 2] >> 4
            };
            *o = sign_extend(nib, 4) as f32 * scale;
        }
    }

    /// Scalar [`dequant_i2`](super::dequant_i2) (element indexing
    /// relative to the slice start; tails must split at a multiple of
    /// four elements).
    pub fn dequant_i2(bytes: &[u8], scale: f32, out: &mut [f32]) {
        for (i, o) in out.iter_mut().enumerate() {
            let q = (bytes[i / 4] >> ((i % 4) * 2)) & 0x03;
            *o = sign_extend(q, 2) as f32 * scale;
        }
    }

    /// Scalar [`dense_tile`](super::dense_tile): the row-at-a-time
    /// loop — each kernel row's multiply-then-add over every column,
    /// then the bias — whose per-output operation order every tier
    /// must reproduce.
    pub fn dense_tile<W: WeightRow + ?Sized>(
        xs: &[f32],
        rows: &[&W],
        bias: Option<&[f32]>,
        acc: &mut [f32],
    ) {
        for (&x, row) in xs.iter().zip(rows) {
            for (a, w) in acc.iter_mut().zip(row.weights()) {
                *a += x * w;
            }
        }
        if let Some(bias) = bias {
            for (a, &b) in acc.iter_mut().zip(bias) {
                *a += b;
            }
        }
    }

    pub(super) fn sign_extend(raw: u8, bits: usize) -> i8 {
        let shift = 8 - bits;
        ((raw << shift) as i8) >> shift
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The AVX2 tier. Every function carries the safety contract "the
    //! caller verified the slice bounds the public wrapper asserts, and
    //! the CPU supports AVX2" —
    //! [`active_kernel`](super::active_kernel) guarantees the latter.
    //!
    //! All loads and stores are the unaligned variants: rows live at
    //! arbitrary offsets inside pages (int dtypes carry a 4-byte scale
    //! prefix, int4 rows can start mid-byte-pair, page starts are
    //! `Vec<u8>` allocations).

    use std::arch::x86_64::*;

    use super::{scalar, WeightRow};

    /// `2⁻²⁴`, the value of one f16 subnormal mantissa unit. The
    /// product `f as f32 * 2⁻²⁴` is exact (power-of-two scaling of an
    /// integer ≤ 1023), reproducing the scalar normalization loop's
    /// bits without a loop.
    const F16_SUBNORMAL_UNIT: f32 = 1.0 / 16777216.0;

    // ------------------------------------------------------------------
    // f32 copy
    // ------------------------------------------------------------------

    // SAFETY: caller must have verified AVX2 and that `bytes` holds at
    // least `4 * out.len()` bytes (the public wrapper asserts it);
    // unaligned loads/stores stay inside those bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn copy_f32_avx2(bytes: &[u8], out: &mut [f32]) {
        let n = out.len();
        let mut i = 0usize;
        while i + 8 <= n {
            let v = _mm256_loadu_ps(bytes.as_ptr().add(i * 4) as *const f32);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), v);
            i += 8;
        }
        scalar::copy_f32(&bytes[i * 4..], &mut out[i..]);
    }

    // ------------------------------------------------------------------
    // int8
    // ------------------------------------------------------------------

    // SAFETY: caller must have verified AVX2 and that `bytes` holds at
    // least `out.len()` codes (the public wrapper asserts it); each
    // 8-lane step reads 8 bytes and writes 8 f32s inside those bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dequant_i8_avx2(bytes: &[u8], scale: f32, out: &mut [f32]) {
        let n = out.len();
        let vs = _mm256_set1_ps(scale);
        let mut i = 0usize;
        while i + 8 <= n {
            let q = _mm_loadl_epi64(bytes.as_ptr().add(i) as *const __m128i);
            let f = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(f, vs));
            i += 8;
        }
        scalar::dequant_i8(&bytes[i..], scale, &mut out[i..]);
    }

    // ------------------------------------------------------------------
    // int4
    // ------------------------------------------------------------------

    /// Unpacks 8 packed bytes (low half of `packed`) into 16 nibble
    /// codes in element order and sign-extends each 4-bit field via
    /// `(n ^ 8) - 8` byte arithmetic.
    // SAFETY: caller must have verified AVX2; pure register arithmetic,
    // no memory access.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn unpack16_i4(packed: __m128i) -> __m128i {
        let mask = _mm_set1_epi8(0x0F);
        let lo = _mm_and_si128(packed, mask);
        let hi = _mm_and_si128(_mm_srli_epi16::<4>(packed), mask);
        let inter = _mm_unpacklo_epi8(lo, hi);
        let bias = _mm_set1_epi8(8);
        _mm_sub_epi8(_mm_xor_si128(inter, bias), bias)
    }

    // SAFETY: caller must have verified AVX2 and that `bytes` holds at
    // least `out.len().div_ceil(2)` packed bytes (the public wrapper
    // asserts it); each 16-lane step reads 8 bytes and writes 16 f32s.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dequant_i4_avx2(bytes: &[u8], scale: f32, out: &mut [f32]) {
        let n = out.len();
        let vs = _mm256_set1_ps(scale);
        let mut i = 0usize;
        while i + 16 <= n {
            let packed = _mm_loadl_epi64(bytes.as_ptr().add(i / 2) as *const __m128i);
            let signed = unpack16_i4(packed);
            let f0 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(signed));
            let f1 = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(_mm_srli_si128::<8>(signed)));
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_mul_ps(f0, vs));
            _mm256_storeu_ps(out.as_mut_ptr().add(i + 8), _mm256_mul_ps(f1, vs));
            i += 16;
        }
        // i is a multiple of 16, so the tail starts on an even element
        // and the scalar nibble parity lines up.
        scalar::dequant_i4(&bytes[i / 2..], scale, &mut out[i..]);
    }

    // ------------------------------------------------------------------
    // f16 decode (pure integer — never F16C, which quiets sNaNs)
    // ------------------------------------------------------------------

    // SAFETY: caller must have verified AVX2 and that `bytes` holds at
    // least `2 * out.len()` bytes (the public wrapper asserts it); each
    // 8-lane step reads 16 bytes and writes 8 f32s inside those bounds.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn decode_f16_avx2(bytes: &[u8], out: &mut [f32]) {
        let n = out.len();
        let mut i = 0usize;
        while i + 8 <= n {
            // 8 halves, zero-extended to u32 lanes.
            let h = _mm_loadu_si128(bytes.as_ptr().add(i * 2) as *const __m128i);
            let w = _mm256_cvtepu16_epi32(h);
            let sign = _mm256_slli_epi32::<16>(_mm256_and_si256(w, _mm256_set1_epi32(0x8000)));
            let e = _mm256_and_si256(_mm256_srli_epi32::<10>(w), _mm256_set1_epi32(0x1F));
            let f = _mm256_and_si256(w, _mm256_set1_epi32(0x3FF));
            let f13 = _mm256_slli_epi32::<13>(f);
            // Normal: exp32 = e + (127 - 15); fraction widened 13 bits.
            let normal = _mm256_add_epi32(
                _mm256_slli_epi32::<23>(_mm256_add_epi32(e, _mm256_set1_epi32(112))),
                f13,
            );
            // Inf/NaN keep the (shifted) payload, preserving sNaN bits.
            let infnan = _mm256_or_si256(_mm256_set1_epi32(0x7F80_0000), f13);
            // Subnormal: value is exactly f · 2⁻²⁴.
            let sub = _mm256_castps_si256(_mm256_mul_ps(
                _mm256_cvtepi32_ps(f),
                _mm256_set1_ps(F16_SUBNORMAL_UNIT),
            ));
            let is_inf = _mm256_cmpeq_epi32(e, _mm256_set1_epi32(0x1F));
            let is_sub = _mm256_cmpeq_epi32(e, _mm256_setzero_si256());
            let bits = _mm256_blendv_epi8(_mm256_blendv_epi8(normal, infnan, is_inf), sub, is_sub);
            let bits = _mm256_or_si256(bits, sign);
            _mm256_storeu_ps(out.as_mut_ptr().add(i), _mm256_castsi256_ps(bits));
            i += 8;
        }
        scalar::decode_f16(&bytes[i * 2..], &mut out[i..]);
    }

    // ------------------------------------------------------------------
    // Dense tile (mul then add — never FMA, which would round once)
    // ------------------------------------------------------------------

    /// Accumulator registers in the main column block: 8 × 8 = 64
    /// columns, leaving the other half of the 16 ymm registers for the
    /// broadcast input and the products.
    const BLOCK_REGS: usize = 8;

    // SAFETY: caller must have verified AVX2 and that every row and the
    // bias hold `acc.len()` readable f32s (the public wrapper asserts
    // it); rows need no alignment — loads are the unaligned variant and
    // the tail uses `read_unaligned`. Every access stays below column
    // `acc.len()`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn dense_tile_avx2<W: WeightRow + ?Sized>(
        xs: &[f32],
        rows: &[&W],
        bias: Option<&[f32]>,
        acc: &mut [f32],
    ) {
        let n = acc.len();
        let mut c = 0usize;
        while c + 8 * BLOCK_REGS <= n {
            block::<BLOCK_REGS, W>(xs, rows, bias, acc, c);
            c += 8 * BLOCK_REGS;
        }
        while c + 8 <= n {
            block::<1, W>(xs, rows, bias, acc, c);
            c += 8;
        }
        for c in c..n {
            let mut a = acc[c];
            for (&x, row) in xs.iter().zip(rows) {
                a += x * row.as_f32_ptr().add(c).read_unaligned();
            }
            if let Some(bias) = bias {
                a += bias[c];
            }
            acc[c] = a;
        }
    }

    /// Columns `c..c + 8 * REGS`: load their accumulators into `REGS`
    /// registers, add every row's products in row order, then the bias,
    /// and store them once.
    // SAFETY: as `dense_tile_avx2`, with `c + 8 * REGS <= acc.len()`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block<const REGS: usize, W: WeightRow + ?Sized>(
        xs: &[f32],
        rows: &[&W],
        bias: Option<&[f32]>,
        acc: &mut [f32],
        c: usize,
    ) {
        let a = acc.as_mut_ptr().add(c);
        let mut v = [_mm256_setzero_ps(); REGS];
        for (j, v) in v.iter_mut().enumerate() {
            *v = _mm256_loadu_ps(a.add(8 * j));
        }
        for (&x, row) in xs.iter().zip(rows) {
            let vx = _mm256_set1_ps(x);
            let w = row.as_f32_ptr().add(c);
            for (j, v) in v.iter_mut().enumerate() {
                *v = _mm256_add_ps(*v, _mm256_mul_ps(vx, _mm256_loadu_ps(w.add(8 * j))));
            }
        }
        if let Some(bias) = bias {
            let b = bias.as_ptr().add(c);
            for (j, v) in v.iter_mut().enumerate() {
                *v = _mm256_add_ps(*v, _mm256_loadu_ps(b.add(8 * j)));
            }
        }
        for (j, v) in v.iter().enumerate() {
            _mm256_storeu_ps(a.add(8 * j), *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_names_are_stable() {
        assert_eq!(Kernel::Scalar.as_str(), "scalar");
        assert_eq!(Kernel::Avx2.to_string(), "avx2");
    }

    #[test]
    fn dispatch_matches_scalar_on_a_smoke_row() {
        // The exhaustive bit-identity property lives in the
        // `simd_equiv` proptest suite; this is a fast in-crate sanity
        // check that the dispatcher itself is wired to real kernels.
        let codes: Vec<u8> = (0..37u8).map(|i| i.wrapping_mul(97)).collect();
        let mut simd_out = vec![f32::NAN; 37];
        let mut scalar_out = vec![f32::NAN; 37];
        dequant_i8(&codes, 0.03125, &mut simd_out);
        scalar::dequant_i8(&codes, 0.03125, &mut scalar_out);
        assert_eq!(simd_out, scalar_out);

        let mut simd_out = vec![f32::NAN; 37];
        let mut scalar_out = vec![f32::NAN; 37];
        dequant_i4(&codes[..19], 0.25, &mut simd_out);
        scalar::dequant_i4(&codes[..19], 0.25, &mut scalar_out);
        assert_eq!(simd_out, scalar_out);
    }
}
