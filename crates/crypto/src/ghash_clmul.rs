//! GHASH on PCLMULQDQ: the hardware arm of [`crate::gcm::AesGcm`]'s tag.
//!
//! One of the two modules allowed `unsafe` (the other is
//! [`crate::aes_ni`]). The entry points are safe: each takes a [`Cpu`],
//! which only [`Cpu::detect`] constructs after `is_x86_feature_detected!`
//! confirmed AES-NI, PCLMULQDQ and SSSE3.
//!
//! Field elements stay in GCM's reflected domain throughout: a block is
//! byte-swapped on load (so the register holds `u128::from_be_bytes`, the
//! representation [`crate::gcm`] uses), and a product is the 256-bit
//! carry-less product shifted left by one bit, then folded with
//! x¹²⁸ = 1 + x + x² + x⁷, the shift-based reduction of Gueron and
//! Kounavis, "Intel Carry-Less Multiplication Instruction and its Usage
//! for Computing the GCM Mode". No bit reversal is needed. Four blocks at a time are
//! aggregated against H⁴…H¹ and reduced once.

use crate::aes_ni::{load, store};
use crate::Cpu;
use core::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_or_si128, _mm_set_epi64x, _mm_set_epi8, _mm_shuffle_epi8,
    _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128, _mm_xor_si128,
};

/// Blocks aggregated per reduction.
const AGG: usize = 4;

/// GHASH of `aad` and `ct` under `h`, including the closing length block
/// `len_block`: the value the tag XORs with `E_K(J0)`.
pub(crate) fn ghash(_cpu: Cpu, h: u128, aad: &[u8], ct: &[u8], len_block: u128) -> u128 {
    // SAFETY: `_cpu` proves `Cpu::detect` saw "pclmulqdq" and "ssse3" via
    // `is_x86_feature_detected!`, the features the callee enables.
    unsafe { ghash_clmul(h, aad, ct, len_block) }
}

#[inline]
#[target_feature(enable = "sse2")]
fn from_u128(v: u128) -> __m128i {
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}

#[inline]
fn to_u128(v: __m128i) -> u128 {
    let mut bytes = [0u8; 16];
    store(&mut bytes, v);
    u128::from_le_bytes(bytes)
}

/// Loads a block as the field element `u128::from_be_bytes(block)`.
#[inline]
#[target_feature(enable = "ssse3")]
fn load_be(block: &[u8; 16]) -> __m128i {
    let reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    _mm_shuffle_epi8(load(block), reverse)
}

/// The 256-bit carry-less product `a·b` as (low, high) halves.
#[inline]
#[target_feature(enable = "pclmulqdq")]
fn clmul256(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128::<0x00>(a, b);
    let hi = _mm_clmulepi64_si128::<0x11>(a, b);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    (
        _mm_xor_si128(lo, _mm_slli_si128::<8>(mid)),
        _mm_xor_si128(hi, _mm_srli_si128::<8>(mid)),
    )
}

/// Shifts the 256-bit product `(lo, hi)` left by one bit, which moves it
/// from the reflected 255-bit product into the field's reflected layout,
/// and reduces it modulo x¹²⁸ + x⁷ + x² + x + 1.
#[inline]
#[target_feature(enable = "sse2")]
fn reduce(lo: __m128i, hi: __m128i) -> __m128i {
    // Shift left by one: each 32-bit lane's carry moves to the next lane
    // up, and lo's top carry moves into hi.
    let lo_carry = _mm_srli_epi32::<31>(lo);
    let hi_carry = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(lo_carry));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(hi_carry)),
        _mm_srli_si128::<12>(lo_carry),
    );
    // First fold: the x⁷, x² and x terms of the low half's overflow.
    let a = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let spill = _mm_srli_si128::<4>(a);
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(a));
    // Second fold, then add the reduced low half into the high half.
    let b = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), spill),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, b))
}

#[inline]
#[target_feature(enable = "pclmulqdq")]
fn gfmul(a: __m128i, b: __m128i) -> __m128i {
    let (lo, hi) = clmul256(a, b);
    reduce(lo, hi)
}

/// Absorbs `data` (zero-padded to whole blocks) into `acc`. `powers` is
/// `[H⁴, H³, H², H¹]`, or `None` when the caller judged the input too
/// short to pay for computing them.
#[inline]
#[target_feature(enable = "pclmulqdq,ssse3")]
fn absorb(mut acc: __m128i, h: __m128i, powers: Option<&[__m128i; AGG]>, data: &[u8]) -> __m128i {
    let (blocks, tail) = data.as_chunks::<16>();
    let mut rest = blocks;
    if let Some(powers) = powers {
        let mut groups = blocks.chunks_exact(AGG);
        for group in &mut groups {
            // (acc + X1)·H⁴ + X2·H³ + X3·H² + X4·H, reduced once.
            let (mut lo, mut hi) = clmul256(_mm_xor_si128(acc, load_be(&group[0])), powers[0]);
            for (block, power) in group[1..].iter().zip(&powers[1..]) {
                let (l, u) = clmul256(load_be(block), *power);
                lo = _mm_xor_si128(lo, l);
                hi = _mm_xor_si128(hi, u);
            }
            acc = reduce(lo, hi);
        }
        rest = groups.remainder();
    }
    for block in rest {
        acc = gfmul(_mm_xor_si128(acc, load_be(block)), h);
    }
    if !tail.is_empty() {
        let mut buf = [0u8; 16];
        buf[..tail.len()].copy_from_slice(tail);
        acc = gfmul(_mm_xor_si128(acc, load_be(&buf)), h);
    }
    acc
}

#[target_feature(enable = "pclmulqdq,ssse3")]
fn ghash_clmul(h: u128, aad: &[u8], ct: &[u8], len_block: u128) -> u128 {
    let h1 = from_u128(h);
    // The powers cost three multiplies, paid only when a group of four
    // blocks can use them.
    let powers = (aad.len().max(ct.len()) >= 16 * AGG).then(|| {
        let h2 = gfmul(h1, h1);
        let h3 = gfmul(h2, h1);
        [gfmul(h3, h1), h3, h2, h1]
    });
    let acc = absorb(from_u128(0), h1, powers.as_ref(), aad);
    let acc = absorb(acc, h1, powers.as_ref(), ct);
    to_u128(gfmul(_mm_xor_si128(acc, from_u128(len_block)), h1))
}
