//! The simulated plane of one session: figures that depend only on the
//! seed and the model, never on the host. They are read from the
//! program's own `ne-metrics/v2` export and reply stream, so a host-only
//! optimisation must leave every one of them, and the session
//! fingerprint, bit-identical.

use ne_bench::json::{self, Value};

/// Cycle categories of the `ne-metrics/v2` breakdown, in export order.
pub const CATEGORIES: [&str; 8] = [
    "transition",
    "tlb_walk",
    "validation",
    "mee_crypto",
    "paging",
    "lifecycle",
    "memory",
    "app_compute",
];

/// Transition counters of `stats` that count boundary crossings
/// (switchless ocalls excluded, as in `Stats::total_transitions`).
const TRANSITIONS: [&str; 6] = [
    "ecalls", "ocalls", "n_ecalls", "n_ocalls", "aexes", "eresumes",
];

/// Deterministic outputs of one measured window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimPlane {
    /// Completed requests.
    pub completed: u64,
    /// Simulated cycles summed over cores.
    pub total_cycles: u64,
    /// Per-request simulated latency (`Completion::latency`), ascending.
    pub latencies: Vec<u64>,
    /// Cycles per category, summed over cores, in [`CATEGORIES`] order.
    pub breakdown: [u64; 8],
    /// TLB misses.
    pub tlb_misses: u64,
    /// LLC hits.
    pub llc_hits: u64,
    /// LLC misses.
    pub llc_misses: u64,
    /// MEE lines decrypted plus encrypted.
    pub mee_lines: u64,
    /// Enclave boundary crossings.
    pub transitions: u64,
    /// SHA-256 over the session's exports and reply stream.
    pub fingerprint: [u8; 32],
}

fn field(v: &Value, path: &[&str]) -> Result<u64, String> {
    let mut cur = v;
    for key in path {
        cur = cur
            .get(key)
            .ok_or_else(|| format!("metrics export lacks {}", path.join(".")))?;
    }
    cur.as_u64()
        .ok_or_else(|| format!("metrics export field {} is not a count", path.join(".")))
}

impl SimPlane {
    /// Reads the plane from an `ne-metrics/v2` export plus the session's
    /// reply latencies and fingerprint.
    ///
    /// # Errors
    ///
    /// A malformed or incomplete export.
    pub fn from_export(
        metrics_json: &str,
        mut latencies: Vec<u64>,
        completed: u64,
        fingerprint: [u8; 32],
    ) -> Result<SimPlane, String> {
        let v = json::parse(metrics_json)?;
        let mut breakdown = [0u64; 8];
        for core in v
            .get("cores")
            .and_then(Value::as_array)
            .ok_or("metrics export lacks cores")?
        {
            for (slot, cat) in breakdown.iter_mut().zip(CATEGORIES) {
                *slot += field(core, &["breakdown", cat])?;
            }
        }
        let mut transitions = 0;
        for name in TRANSITIONS {
            transitions += field(&v, &["stats", name])?;
        }
        latencies.sort_unstable();
        Ok(SimPlane {
            completed,
            total_cycles: field(&v, &["total_cycles"])?,
            latencies,
            breakdown,
            tlb_misses: field(&v, &["stats", "tlb_misses"])?,
            llc_hits: field(&v, &["llc", "hits"])?,
            llc_misses: field(&v, &["llc", "misses"])?,
            mee_lines: field(&v, &["mee", "lines_decrypted"])?
                + field(&v, &["mee", "lines_encrypted"])?,
            transitions,
            fingerprint,
        })
    }

    fn per_req(&self, x: u64) -> f64 {
        x as f64 / self.completed.max(1) as f64
    }

    /// `total_cycles / completed`.
    pub fn cycles_per_req(&self) -> f64 {
        self.per_req(self.total_cycles)
    }

    /// Nearest-rank latency percentile in thousands of cycles.
    pub fn latency_kcycles(&self, q: f64) -> f64 {
        crate::stats::percentile(
            &self.latencies.iter().map(|&l| l as f64).collect::<Vec<_>>(),
            q,
        ) / 1e3
    }

    /// The `sgx.*` and `core.*` per-layer counts, per completed request.
    pub fn layer_metrics(&self, out: &mut crate::layers::Metrics) {
        for (cat, &cycles) in CATEGORIES.iter().zip(&self.breakdown) {
            out.set(&format!("sgx.cycles_per_req.{cat}"), self.per_req(cycles));
        }
        out.set("sgx.tlb_misses_per_req", self.per_req(self.tlb_misses));
        out.set(
            "sgx.llc_miss_ratio",
            self.llc_misses as f64 / (self.llc_hits + self.llc_misses).max(1) as f64,
        );
        out.set("sgx.mee_lines_per_req", self.per_req(self.mee_lines));
        out.set("core.transitions_per_req", self.per_req(self.transitions));
    }
}
