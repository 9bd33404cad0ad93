#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Root package of the Nested Enclave reproduction workspace: the
//! examples and cross-crate integration tests live here, re-exporting
//! the two crates they exercise most. Start at `README.md` for the map
//! of the workspace, `ARCHITECTURE.md` for how the crates fit together
//! (§8 covers the `ne-cluster` shard layer), and `EXPERIMENTS.md` for
//! regenerating every table and figure.

pub use ne_core;
pub use ne_sgx;
