//! The layer trace: span accumulators the benchmark wraps around its own
//! calls into each crate, the per-layer metric names, and the
//! reconciliation table that sums the layers back to the untraced wall
//! time.

use std::collections::BTreeMap;
use std::time::Duration;

/// Every per-layer metric the traced run prints, with its unit. A layer a
/// workload does not exercise reads 0 (its table row shows 0 calls).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("host.build_ms", "ms"),
    ("host.warmup_ms", "ms"),
    ("svm.train_ms", "ms"),
    ("crypto.sha256_ms", "ms"),
    ("tls.record_us", "us"),
    ("db.query_us", "us"),
    ("svm.predict_us", "us"),
    ("host.step_us.echo", "us"),
    ("host.step_us.db", "us"),
    ("host.step_us.svm", "us"),
    ("sgx.step_other_us.echo", "us"),
    ("sgx.step_other_us.db", "us"),
    ("sgx.step_other_us.svm", "us"),
    ("host.submit_us", "us"),
    ("host.rejected_n", "count"),
    ("host.shed_n", "count"),
    ("host.step_idle_n", "count"),
    ("host.step_useful_ratio", "ratio"),
    ("obs.poll_us", "us"),
    ("obs.windows_n", "count"),
    ("serve.rtt_us", "us"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_decode_us", "us"),
    ("serve.frontdoor_ms", "ms"),
    ("serve.oracle_ms", "ms"),
    ("serve.wire_overhead_ms", "ms"),
    ("export.metrics_json_ms", "ms"),
    ("export.timeline_ms", "ms"),
    ("sgx.cycles_per_req.transition", "cycles"),
    ("sgx.cycles_per_req.tlb_walk", "cycles"),
    ("sgx.cycles_per_req.validation", "cycles"),
    ("sgx.cycles_per_req.mee_crypto", "cycles"),
    ("sgx.cycles_per_req.paging", "cycles"),
    ("sgx.cycles_per_req.lifecycle", "cycles"),
    ("sgx.cycles_per_req.memory", "cycles"),
    ("sgx.cycles_per_req.app_compute", "cycles"),
    ("sgx.tlb_misses_per_req", "count"),
    ("sgx.llc_miss_ratio", "ratio"),
    ("sgx.mee_lines_per_req", "count"),
    ("core.transitions_per_req", "count"),
    ("bench.unattributed_ms.serve", "ms"),
    ("bench.unattributed_ms.setup", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Per-layer metric values by name.
#[derive(Debug, Clone, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets (or overwrites) one metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// One metric, 0 when never set.
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Overwrites this map's entries with `other`'s.
    pub fn extend(&mut self, other: Metrics) {
        self.0.extend(other.0);
    }

    /// Per-name mean over several sessions' metrics.
    pub fn mean(all: &[Metrics]) -> Metrics {
        let mut out = BTreeMap::new();
        for m in all {
            for (k, v) in &m.0 {
                *out.entry(k.clone()).or_insert(0.0) += v / all.len() as f64;
            }
        }
        Metrics(out)
    }
}

/// Calls and busy time of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    /// Spans recorded.
    pub calls: u64,
    /// Total span time in nanoseconds.
    pub ns: u64,
}

impl Acc {
    /// Records one span.
    pub fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.ns += d.as_nanos() as u64;
    }

    /// Total in milliseconds.
    pub fn ms(&self) -> f64 {
        self.ns as f64 / 1e6
    }

    /// Mean span in microseconds (0 with no calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / 1e3 / self.calls as f64
        }
    }
}

/// One row of a reconciliation table.
#[derive(Debug, Clone)]
pub struct Row {
    /// Layer name.
    pub name: String,
    /// Calls in the session.
    pub calls: f64,
    /// Self time in milliseconds.
    pub ms: f64,
}

impl Row {
    /// A row for one span.
    pub fn span(name: &str, d: Duration) -> Row {
        Row {
            name: name.to_string(),
            calls: 1.0,
            ms: d.as_secs_f64() * 1e3,
        }
    }

    /// A row from an accumulator.
    pub fn of(name: &str, acc: Acc) -> Row {
        Row {
            name: name.to_string(),
            calls: acc.calls as f64,
            ms: acc.ms(),
        }
    }
}

/// One phase (setup or serve) of the traced run, as a per-session mean:
/// measured self-time rows, the traced wall they came from, and the
/// untraced wall they must reconcile with.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Measured rows, in display order.
    pub rows: Vec<Row>,
    /// Mean traced wall per session, ms.
    pub traced_ms: f64,
    /// Mean untraced wall per session, ms.
    pub untraced_ms: f64,
}

impl Phase {
    /// Averages row-aligned tables from several traced sessions.
    pub fn mean(sessions: &[Vec<Row>], traced_ms: f64, untraced_ms: f64) -> Phase {
        let n = sessions.len().max(1) as f64;
        let mut rows: Vec<Row> = sessions.first().cloned().unwrap_or_default();
        for r in &mut rows {
            r.calls = 0.0;
            r.ms = 0.0;
        }
        for s in sessions {
            for (dst, src) in rows.iter_mut().zip(s) {
                dst.calls += src.calls / n;
                dst.ms += src.ms / n;
            }
        }
        Phase {
            rows,
            traced_ms,
            untraced_ms,
        }
    }

    /// Traced wall not covered by any measured row.
    pub fn unattributed_ms(&self) -> f64 {
        self.traced_ms - self.rows.iter().map(|r| r.ms).sum::<f64>()
    }

    /// Untraced minus traced wall: what the spans themselves cost
    /// (negative when tracing slowed the phase down).
    pub fn tracing_ms(&self) -> f64 {
        self.untraced_ms - self.traced_ms
    }

    /// Renders the table; its rows, `unattributed` and `tracing` sum to
    /// the untraced wall time on the last line.
    pub fn render(&self, title: &str) -> String {
        let mut out = format!(
            "{title} (mean per session)\n  {:<28} {:>10} {:>12} {:>11} {:>7}\n",
            "layer", "calls", "total_ms", "mean_us", "share"
        );
        let line = |name: &str, calls: Option<f64>, ms: f64| {
            let share = 100.0 * ms / self.untraced_ms.max(1e-9);
            match calls {
                Some(c) if c > 0.0 => format!(
                    "  {name:<28} {c:>10.1} {ms:>12.3} {:>11.3} {share:>6.1}%\n",
                    ms * 1e3 / c
                ),
                Some(c) => format!(
                    "  {name:<28} {c:>10.1} {ms:>12.3} {:>11} {share:>6.1}%\n",
                    "-"
                ),
                None => format!(
                    "  {name:<28} {:>10} {ms:>12.3} {:>11} {share:>6.1}%\n",
                    "", ""
                ),
            }
        };
        for r in &self.rows {
            out.push_str(&line(&r.name, Some(r.calls), r.ms));
        }
        out.push_str(&line("unattributed", None, self.unattributed_ms()));
        out.push_str(&line("tracing (untraced-traced)", None, self.tracing_ms()));
        out.push_str(&line("= untraced wall", None, self.untraced_ms));
        out
    }
}
