//! Three-way differential test of the AES-128-GCM backends: hardware
//! (AES-NI + PCLMULQDQ), table (T-table AES, Shoup GHASH) and reference
//! (byte-wise AES, bit-wise GHASH) must agree byte for byte on every
//! input, reject every tampered input, and each pass the known-answer
//! vectors on its own.
//!
//! Each backend is reached through the per-backend `*_with` entry points,
//! never through the process-wide `set_reference_impl` flag, which the
//! parallel test threads would race on. On a CPU without the hardware
//! features the hardware arm is skipped with a note.

use ne_crypto::aes::Aes128;
use ne_crypto::gcm::{AesGcm, TAG_LEN};
use ne_crypto::{Backend, Cpu, OpenError};
use proptest::prelude::*;

/// Every backend this CPU can run, hardware first.
fn backends() -> Vec<Backend> {
    let mut all = Vec::new();
    match Cpu::detect() {
        Some(cpu) => all.push(Backend::Hardware(cpu)),
        None => eprintln!("skipping the hardware arm: CPU lacks aes/pclmulqdq/ssse3"),
    }
    all.extend([Backend::Table, Backend::Reference]);
    all
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn array<const N: usize>(s: &str) -> [u8; N] {
    unhex(s).try_into().unwrap()
}

#[test]
fn aes_known_answers_on_every_backend() {
    // FIPS-197 Appendix B, then NIST AESAVS (all-zero key and block).
    let cases = [
        (
            "2b7e151628aed2a6abf7158809cf4f3c",
            "3243f6a8885a308d313198a2e0370734",
            "3925841d02dc09fbdc118597196a0b32",
        ),
        (
            "00000000000000000000000000000000",
            "00000000000000000000000000000000",
            "66e94bd4ef8a2c3b884cfa59ca342b2e",
        ),
    ];
    for backend in backends() {
        for (key, pt, ct) in cases {
            let mut block = array::<16>(pt);
            Aes128::new(&array(key)).encrypt_block_with(backend, &mut block);
            assert_eq!(block, array::<16>(ct), "{} key {key}", backend.name());
        }
    }
}

#[test]
fn gcm_known_answers_on_every_backend() {
    // NIST GCM test cases 1, 2 and 4: (key, nonce, plaintext, aad,
    // ciphertext || tag).
    let cases = [
        (
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "",
            "",
            "58e2fccefa7e3061367f1d57a4e7455a",
        ),
        (
            "00000000000000000000000000000000",
            "000000000000000000000000",
            "00000000000000000000000000000000",
            "",
            "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf",
        ),
        (
            "feffe9928665731c6d6a8f9467308308",
            "cafebabefacedbaddecaf888",
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091\
             5bc94fbc3221a5db94fae95ae7121a47",
        ),
    ];
    for backend in backends() {
        for (key, nonce, pt, aad, sealed) in cases {
            let cipher = AesGcm::new(&array(key));
            let (nonce, pt, aad) = (array::<12>(nonce), unhex(pt), unhex(aad));
            let out = cipher.seal_with(backend, &nonce, &pt, &aad);
            assert_eq!(out, unhex(sealed), "{} seal, key {key}", backend.name());
            let opened = cipher.open_with(backend, &nonce, &out, &aad);
            assert_eq!(opened, Ok(pt), "{} open, key {key}", backend.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every backend seals a random message to the same bytes and opens
    /// the others' output. The message is an unaligned sub-slice (start
    /// offset 1..15) of 0..=4096 bytes, so the hardware loads never see a
    /// 16-byte-aligned buffer by accident.
    #[test]
    fn backends_agree_on_seal_and_open(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        buf in prop::collection::vec(any::<u8>(), 4096 + 16..4096 + 17),
        offset in 1usize..16,
        len in 0usize..4097,
        aad in prop::collection::vec(any::<u8>(), 0..65),
    ) {
        let cipher = AesGcm::new(&key);
        let pt = &buf[offset..offset + len];
        let all = backends();
        let sealed: Vec<Vec<u8>> = all.iter().map(|&b| cipher.seal_with(b, &nonce, pt, &aad)).collect();
        for (b, s) in all.iter().zip(&sealed) {
            prop_assert_eq!(s, &sealed[0], "{} vs {}", b.name(), all[0].name());
        }
        // Open an unaligned copy, on every backend.
        let mut shifted = vec![0u8; offset];
        shifted.extend_from_slice(&sealed[0]);
        for &b in &all {
            let opened = cipher.open_with(b, &nonce, &shifted[offset..], &aad);
            prop_assert_eq!(opened.as_deref(), Ok(pt), "{} open", b.name());
        }
    }

    /// Flipping one random byte of the ciphertext, the tag or the AAD
    /// makes `open` fail on every backend.
    #[test]
    fn every_backend_rejects_a_flipped_byte(
        key in prop::array::uniform16(any::<u8>()),
        nonce in prop::array::uniform12(any::<u8>()),
        pt in prop::collection::vec(any::<u8>(), 0..600),
        aad in prop::collection::vec(any::<u8>(), 0..65),
        target in 0usize..3,
        at in any::<prop::sample::Index>(),
        flip in 0u8..255,
    ) {
        let flip = flip + 1;
        let cipher = AesGcm::new(&key);
        let mut sealed = cipher.seal(&nonce, &pt, &aad);
        let mut aad = aad;
        match target {
            0 if !pt.is_empty() => sealed[at.index(pt.len())] ^= flip,
            2 if !aad.is_empty() => {
                let i = at.index(aad.len());
                aad[i] ^= flip;
            }
            _ => {
                let i = pt.len() + at.index(TAG_LEN);
                sealed[i] ^= flip;
            }
        }
        for b in backends() {
            prop_assert_eq!(cipher.open_with(b, &nonce, &sealed, &aad), Err(OpenError), "{}", b.name());
        }
    }
}

#[test]
fn default_backend_is_the_fastest_available() {
    let expected = if Cpu::detect().is_some() {
        "aesni+pclmulqdq"
    } else {
        "table"
    };
    // Other tests in this binary never flip `set_reference_impl`, so the
    // default backend is stable here.
    assert_eq!(ne_crypto::backend(), expected);
    assert_eq!(Backend::current().name(), expected);
}
