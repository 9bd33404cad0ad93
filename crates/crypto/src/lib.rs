#![warn(missing_docs)]
// `unsafe` is confined to the two hardware modules (AES-NI rounds and
// PCLMULQDQ GHASH), which opt back in one at a time; every block there
// carries a `// SAFETY:` line naming the CPU-feature check it relies on.
#![deny(
    unsafe_code,
    unsafe_op_in_unsafe_fn,
    clippy::undocumented_unsafe_blocks
)]

//! From-scratch cryptographic substrate for the Nested Enclave reproduction.
//!
//! The SGX architecture relies on a handful of cryptographic primitives:
//!
//! * **SHA-256** — enclave measurement (`MRENCLAVE`), author identity
//!   (`MRSIGNER`), and report MACs are all built from keyed hashing.
//! * **HMAC-SHA-256** — report MACs for local attestation.
//! * **AES-128-GCM** — the authenticated encryption the paper's baseline uses
//!   for enclave-to-enclave communication through untrusted memory
//!   (Fig. 11 `GCM` series), and what sealed data uses.
//!
//! Everything here is implemented from scratch so the workspace has no
//! external crypto dependencies, and almost all of it is safe Rust. The one
//! exception is the hardware backend for AES-128-GCM: `core::arch` AES-NI
//! rounds and PCLMULQDQ GHASH, chosen at run time when the CPU reports
//! those features. Intrinsic calls and raw 16-byte loads need `unsafe`, so
//! the crate denies `unsafe_code` and only the two hardware modules (one
//! per primitive) allow it. The simulator's *cost model*, not the host
//! speed of this code, drives the paper's performance figures, so the
//! backend changes wall-clock time only, never an output.
//!
//! Three backends compute AES and GHASH, all to the same bytes:
//!
//! * **hardware** (`"aesni+pclmulqdq"`) — the default where
//!   `is_x86_feature_detected!` finds AES-NI, PCLMULQDQ and SSSE3;
//! * **table** (`"table"`) — the portable T-table AES rounds and Shoup
//!   8-bit GHASH tables, the default everywhere else;
//! * **reference** (`"reference"`) — the byte-wise FIPS-197 rounds and the
//!   bit-wise GF(2¹²⁸) multiply the others were derived from, forced by
//!   [`set_reference_impl`].
//!
//! [`backend`] names the one in use.
//!
//! # Example
//!
//! ```
//! use ne_crypto::{sha256, gcm::AesGcm};
//!
//! let digest = sha256::digest(b"enclave image");
//! assert_eq!(digest.len(), 32);
//!
//! let key = [0u8; 16];
//! let cipher = AesGcm::new(&key);
//! let nonce = [1u8; 12];
//! let sealed = cipher.seal(&nonce, b"secret", b"aad");
//! let opened = cipher.open(&nonce, &sealed, b"aad").unwrap();
//! assert_eq!(opened, b"secret");
//! ```

pub mod aes;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod aes_ni;
pub mod ct;
pub mod gcm;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ghash_clmul;
pub mod hmac;
pub mod kdf;
pub mod sha256;

pub use gcm::{AesGcm, OpenError};
pub use sha256::{digest as sha256_digest, Sha256};

use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

static REFERENCE_IMPL: AtomicBool = AtomicBool::new(false);

/// Switches AES/GHASH between the fastest backend this CPU supports
/// (default: hardware AES-NI + PCLMULQDQ where detected, the portable
/// T-table/Shoup-table code elsewhere) and the byte-and-bit-wise reference
/// implementation both were derived from. All three compute the identical
/// functions — the per-crate tests check each against the others and
/// against the NIST/FIPS known-answer vectors — so the flag changes
/// wall-clock speed only, never output. The wall-clock harness
/// (`ne-wallclock`) uses it to measure what the fast forms buy on real
/// serving runs.
pub fn set_reference_impl(on: bool) {
    // Relaxed: the flag publishes no other data; either backend is correct.
    REFERENCE_IMPL.store(on, Ordering::Relaxed);
}

/// True when [`set_reference_impl`] selected the reference implementation.
pub fn reference_impl() -> bool {
    REFERENCE_IMPL.load(Ordering::Relaxed)
}

/// The name of the backend AES-128-GCM runs on right now:
/// `"aesni+pclmulqdq"`, `"table"` or `"reference"`.
pub fn backend() -> &'static str {
    Backend::current().name()
}

/// Proof that the running CPU has AES-NI, PCLMULQDQ and SSSE3. The field
/// is private and [`Cpu::detect`] is the only constructor, so holding a
/// `Cpu` is what licenses the hardware modules' `unsafe` calls.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cpu(());

/// Cached result of [`Cpu::detect`]: 0 = not probed yet, 1 = absent,
/// 2 = present.
static CPU_FEATURES: AtomicU8 = AtomicU8::new(0);

impl Cpu {
    /// Probes the CPU once per process; later calls read the cached
    /// answer.
    pub fn detect() -> Option<Cpu> {
        // Relaxed: the cached byte publishes no other data, and a racing
        // first probe only repeats the same answer.
        let state = match CPU_FEATURES.load(Ordering::Relaxed) {
            0 => {
                let state = if probe() { 2 } else { 1 };
                CPU_FEATURES.store(state, Ordering::Relaxed);
                state
            }
            s => s,
        };
        (state == 2).then_some(Cpu(()))
    }
}

#[cfg(target_arch = "x86_64")]
fn probe() -> bool {
    std::arch::is_x86_feature_detected!("aes")
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("ssse3")
}

#[cfg(not(target_arch = "x86_64"))]
fn probe() -> bool {
    false
}

/// One implementation of the AES and GHASH primitives. Every entry point
/// picks [`Backend::current`] once per call; tests reach a specific one
/// through the `*_with` methods instead of flipping the process-wide
/// [`set_reference_impl`] flag, which parallel test threads would race on.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// AES-NI rounds and PCLMULQDQ GHASH (x86-64 only).
    Hardware(Cpu),
    /// T-table AES rounds and Shoup 8-bit GHASH tables.
    Table,
    /// Byte-wise FIPS-197 rounds and the bit-wise GF(2¹²⁸) multiply.
    Reference,
}

impl Backend {
    /// The backend the default entry points use: reference when forced,
    /// else hardware when the CPU has it, else table.
    pub fn current() -> Backend {
        if reference_impl() {
            Backend::Reference
        } else {
            Cpu::detect().map_or(Backend::Table, Backend::Hardware)
        }
    }

    /// Stable name, as [`backend`] reports it.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Hardware(_) => "aesni+pclmulqdq",
            Backend::Table => "table",
            Backend::Reference => "reference",
        }
    }
}

/// A 256-bit digest, the unit of enclave measurement in SGX.
pub type Digest32 = [u8; 32];
