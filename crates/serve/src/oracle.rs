//! The in-process oracle: the same scenario a [`crate::FrontDoor`]
//! serves, run through [`ne_cluster::Cluster::run`] with no socket
//! anywhere. Byte-for-byte, its three exports are what the wire run must
//! produce — the headline invariant of this crate, asserted by the
//! `wire_oracle` integration test and CI's `serve-smoke` job.

use crate::server::{build_cluster, finish_outcome, ServeConfig, ServeOutcome};

/// Runs the scenario in-process and returns the exports a conforming
/// wire run must match byte for byte. Only the scenario fields of `cfg`
/// matter; the wire knobs (timeouts, TLS) have no in-process analogue —
/// which is the point: TLS on the wire must not change a single exported
/// byte.
///
/// # Errors
///
/// Cluster build failures, malformed chaos specs, or broken end-of-run
/// invariants.
pub fn run_oracle(cfg: &ServeConfig) -> Result<ServeOutcome, String> {
    let mut cluster = build_cluster(cfg)?;
    let out = cluster.run(&cfg.run_scenario())?;
    finish_outcome(&cluster, out, cfg)
}
