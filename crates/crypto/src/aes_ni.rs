//! AES-128 on AES-NI: the hardware arm of [`crate::aes::Aes128`] and the
//! CTR keystream of [`crate::gcm::AesGcm`].
//!
//! One of the two modules allowed `unsafe` (the other is
//! [`crate::ghash_clmul`]). The entry points are safe: each takes a
//! [`Cpu`], which only [`Cpu::detect`] constructs after
//! `is_x86_feature_detected!` confirmed AES-NI, PCLMULQDQ and SSSE3, and
//! that proof is what the `unsafe` calls into `#[target_feature]` code rest
//! on. The whole-buffer loops run inside the featured functions so the
//! rounds inline; nothing re-checks the CPU per block.

use crate::Cpu;
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set_epi32,
    _mm_storeu_si128, _mm_xor_si128,
};

/// Round keys as the table form keeps them: one big-endian word per column.
type RoundKeys = [[u32; 4]; 11];

/// Blocks kept in flight by the CTR loop, enough to hide `aesenc` latency.
const LANES: usize = 8;

/// Encrypts one block.
pub(crate) fn encrypt_block(_cpu: Cpu, rk: &RoundKeys, block: &mut [u8; 16]) {
    // SAFETY: `_cpu` proves `Cpu::detect` saw "aes" via
    // `is_x86_feature_detected!`, the only feature the callee enables.
    unsafe { encrypt_block_ni(rk, block) }
}

/// XORs the CTR keystream for `nonce`, starting at block counter `ctr0`,
/// into `data`.
pub(crate) fn ctr_xor(_cpu: Cpu, rk: &RoundKeys, nonce: &[u8; 12], ctr0: u32, data: &mut [u8]) {
    // SAFETY: `_cpu` proves `Cpu::detect` saw "aes" via
    // `is_x86_feature_detected!`, the only feature the callee enables.
    unsafe { ctr_xor_ni(rk, nonce, ctr0, data) }
}

/// Loads 16 bytes into a register (SSE2, part of the x86-64 baseline).
#[inline]
pub(crate) fn load(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes and `loadu` has no alignment
    // requirement; SSE2 is always present on x86-64.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Stores a register into 16 bytes (SSE2, part of the x86-64 baseline).
#[inline]
pub(crate) fn store(bytes: &mut [u8; 16], v: __m128i) {
    // SAFETY: `bytes` is 16 writable bytes and `storeu` has no alignment
    // requirement; SSE2 is always present on x86-64.
    unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast(), v) }
}

/// The round keys in AES-NI's operand order (FIPS-197 byte order):
/// `_mm_set_epi32` puts its last argument in bytes 0..4, little-endian,
/// so each big-endian column word goes in byte-swapped.
#[inline]
#[target_feature(enable = "sse2")]
fn load_keys(rk: &RoundKeys) -> [__m128i; 11] {
    rk.map(|[c0, c1, c2, c3]| {
        _mm_set_epi32(
            c3.swap_bytes() as i32,
            c2.swap_bytes() as i32,
            c1.swap_bytes() as i32,
            c0.swap_bytes() as i32,
        )
    })
}

/// The counter block `nonce || be32(ctr)`; `n` is the nonce as three
/// little-endian words, matching [`load_keys`]'s lane order.
#[inline]
#[target_feature(enable = "sse2")]
fn counter_block(n: [i32; 3], ctr: u32) -> __m128i {
    _mm_set_epi32(ctr.swap_bytes() as i32, n[2], n[1], n[0])
}

#[inline]
#[target_feature(enable = "aes")]
fn encrypt(keys: &[__m128i; 11], block: __m128i) -> __m128i {
    let mut b = _mm_xor_si128(block, keys[0]);
    for k in &keys[1..10] {
        b = _mm_aesenc_si128(b, *k);
    }
    _mm_aesenclast_si128(b, keys[10])
}

#[target_feature(enable = "aes")]
fn encrypt_block_ni(rk: &RoundKeys, block: &mut [u8; 16]) {
    let out = encrypt(&load_keys(rk), load(block));
    store(block, out);
}

#[target_feature(enable = "aes")]
fn ctr_xor_ni(rk: &RoundKeys, nonce: &[u8; 12], ctr0: u32, data: &mut [u8]) {
    let keys = load_keys(rk);
    let word = |i: usize| i32::from_le_bytes([nonce[i], nonce[i + 1], nonce[i + 2], nonce[i + 3]]);
    let n = [word(0), word(4), word(8)];
    let mut ctr = ctr0;
    let (blocks, tail) = data.as_chunks_mut::<16>();
    let mut groups = blocks.chunks_exact_mut(LANES);
    for group in &mut groups {
        let mut lanes = [keys[0]; LANES];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = _mm_xor_si128(counter_block(n, ctr.wrapping_add(i as u32)), keys[0]);
        }
        for k in &keys[1..10] {
            for lane in lanes.iter_mut() {
                *lane = _mm_aesenc_si128(*lane, *k);
            }
        }
        for (block, lane) in group.iter_mut().zip(lanes) {
            let keystream = _mm_aesenclast_si128(lane, keys[10]);
            store(block, _mm_xor_si128(load(block), keystream));
        }
        ctr = ctr.wrapping_add(LANES as u32);
    }
    for block in groups.into_remainder() {
        let keystream = encrypt(&keys, counter_block(n, ctr));
        store(block, _mm_xor_si128(load(block), keystream));
        ctr = ctr.wrapping_add(1);
    }
    if !tail.is_empty() {
        let mut buf = [0u8; 16];
        buf[..tail.len()].copy_from_slice(tail);
        let keystream = encrypt(&keys, counter_block(n, ctr));
        let out = _mm_xor_si128(load(&buf), keystream);
        store(&mut buf, out);
        tail.copy_from_slice(&buf[..tail.len()]);
    }
}
