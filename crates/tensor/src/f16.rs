//! IEEE-754 half-precision bit conversions: the encoder the F16 row
//! codec writes with and the decoder its SIMD kernel
//! ([`decode_f16`](crate::simd::decode_f16)) replicates bit for bit.

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
