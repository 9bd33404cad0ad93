//! `nebench` — the repository's serving benchmark.
//!
//! ```text
//! nebench --workload <mix-closed|dbsvm-open|wire-closed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! A run generates every input from the seed, then repeats one fixed
//! session (build, provisioning warmup, measured serving loop, checks)
//! until `--seconds` have passed. The first session warms the process up
//! and only its checks count; the host-plane figures come from the rest.
//! With `--trace 0` the last line of standard output is a JSON object
//! carrying every end-to-end metric; with `--trace 1`, sessions alternate
//! untraced and traced, and the JSON carries every per-layer metric.
//! Any failed check prints `"correct": false` and exits 1. See
//! `README.md` beside this file for the workloads and how to read the
//! layer table.

mod inproc;
mod inputs;
mod layers;
mod replay;
mod sim;
mod stats;
mod wire;

use std::process::ExitCode;
use std::time::Instant;

use ne_host::{ServiceKind, TenantSpec};

use inputs::{Arrivals, Inputs};
use layers::{Metrics, Phase, Row, PER_LAYER};
use sim::SimPlane;

/// Every end-to-end metric, with its unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("serve_rps", "1/s"),
    ("req_host_us_p50", "us"),
    ("req_host_us_p99", "us"),
    ("setup_s", "s"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("peak_rss_mb", "MiB"),
    ("sim_latency_kcycles_p50", "kcycles"),
    ("sim_latency_kcycles_p99", "kcycles"),
    ("sim_cycles_per_req", "cycles"),
];

/// One session's measurements and checked outputs.
pub struct Session {
    /// Build + attestation + provisioning warmup, up to the first
    /// measured request.
    pub setup_s: f64,
    /// The measured serving phase.
    pub serve_s: f64,
    /// Host time per completed request.
    pub req_host_us: Vec<f64>,
    /// Measured requests offered.
    pub offered: u64,
    /// Admission rejects plus sheds.
    pub failed: u64,
    /// The simulated plane.
    pub sim: SimPlane,
    /// Layer spans and metrics, for a traced session.
    pub trace: Option<SessionTrace>,
}

/// What a traced session adds.
pub struct SessionTrace {
    /// Setup-phase rows.
    pub setup: Vec<Row>,
    /// Serve-phase rows.
    pub serve: Vec<Row>,
    /// Per-layer metrics measured in this session.
    pub metrics: Metrics,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    MixClosed,
    DbsvmOpen,
    WireClosed,
}

impl Workload {
    const ALL: [Workload; 3] = [
        Workload::MixClosed,
        Workload::DbsvmOpen,
        Workload::WireClosed,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::MixClosed => "mix-closed",
            Workload::DbsvmOpen => "dbsvm-open",
            Workload::WireClosed => "wire-closed",
        }
    }

    /// Why the workload exists (also recorded in `BENCHMARK.json`).
    fn why(self) -> &'static str {
        match self {
            Workload::MixClosed => {
                "the historic closed-loop serving shape, where native service compute, \
                 above all echo AES-GCM, sets the host-time tail"
            }
            Workload::DbsvmOpen => {
                "open-loop Poisson arrivals with no AES-GCM on the path: simulator stepping \
                 dominates, and only here do queues, stealing and the obs sampler run"
            }
            Workload::WireClosed => {
                "the only workload through the ne-serve frame codec and loopback sockets, \
                 pricing the wire against the in-process oracle"
            }
        }
    }

    /// Tenants and their services.
    fn specs(self) -> Vec<TenantSpec> {
        let (tenants, services): (usize, &[ServiceKind]) = match self {
            Workload::MixClosed => (4, &ServiceKind::ALL),
            Workload::DbsvmOpen => (4, &[ServiceKind::Db, ServiceKind::SvmInfer]),
            Workload::WireClosed => (1, &[ServiceKind::TlsEcho, ServiceKind::Db]),
        };
        // The priorities and names ne-serve's scenario uses, so the wire
        // topology is the one the front door builds.
        (0..tenants)
            .map(|i| {
                TenantSpec::new(
                    &format!("tenant{i}"),
                    (tenants - i) as u8,
                    services.to_vec(),
                )
            })
            .collect()
    }

    /// Rounds of requests in one session: one request per client per
    /// round, or the arrival weight per round in the open loop.
    fn rounds(self) -> usize {
        match self {
            Workload::MixClosed => 3000,
            Workload::DbsvmOpen => 2000,
            Workload::WireClosed => 4000,
        }
    }

    /// The open-loop arrival process. Db clients arrive twice as often as
    /// svm clients: at an even split the median request would sit on the
    /// boundary between the two kinds' step times, and a few requests
    /// either way would swing `req_host_us_p50` between them.
    fn arrivals(self) -> Option<Arrivals> {
        (self == Workload::DbsvmOpen).then_some(Arrivals {
            mean_gap: 150_000.0,
            weight: |kind| if kind == ServiceKind::Db { 2 } else { 1 },
        })
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
    })
}

/// Peak resident memory of this process, MiB (Linux `VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything a run produced.
struct Run {
    sessions: Vec<Session>,
    /// Peak resident memory after the warm-up and two measured sessions.
    peak_rss: f64,
    /// Wire only: the layers of an in-process twin session.
    twin: Option<Metrics>,
}

/// Repeats the workload's session until the time budget is spent, and
/// checks that every repeat produced the same simulated plane.
fn run(args: &Args) -> Result<Run, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w.specs(), w.rounds(), args.seed, w.arrivals());
    let start = Instant::now();
    let oracle = match w {
        Workload::WireClosed => Some(wire::oracle(&inputs)?.0),
        _ => None,
    };
    // Warm-up session, then (traced) untraced/traced pairs.
    let min = if args.trace { 5 } else { 3 };
    let mut sessions: Vec<Session> = Vec::new();
    let mut peak_rss = 0.0;
    while sessions.len() < min || start.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && sessions.len() % 2 == 1;
        let s = match &oracle {
            Some(o) => wire::session(&inputs, o, traced)?,
            None => inproc::session(&inputs, traced, w == Workload::DbsvmOpen)?,
        };
        if sessions
            .first()
            .is_some_and(|first: &Session| first.sim != s.sim)
        {
            return Err(format!(
                "session {} diverged from session 0 in its simulated plane or reply digest",
                sessions.len()
            ));
        }
        sessions.push(s);
        // Read once the warm-up and two measured sessions are done, so
        // the figure does not grow with however many sessions fit.
        if sessions.len() == 3 {
            peak_rss = peak_rss_mb()?;
        }
    }
    // The wire's layers below the socket are timed on an in-process twin
    // of the same scenario.
    let twin = match (&oracle, args.trace) {
        (Some(_), true) => inproc::session(&inputs, true, false)?
            .trace
            .map(|t| t.metrics),
        _ => None,
    };
    Ok(Run {
        sessions,
        peak_rss,
        twin,
    })
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (n, s) = v.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    s / n.max(1) as f64
}

/// End-to-end metrics over the measured untraced sessions, each with its
/// per-session values (for the within-run spread). Neighbours on a shared
/// host speed whole stretches of sessions up, or stall them. A speed-up
/// moves rates and medians most, so those figures take the slower quartile
/// of their per-session values (the upper quartile of a time, the lower of
/// a rate), which moves only when three quarters of a run's sessions were
/// sped up. A stall inflates a session's p99 many times over, so the p99
/// takes the faster quartile, which moves only when three quarters of the
/// sessions stalled.
fn end_to_end(measured: &[&Session], peak_rss: f64) -> Vec<(f64, Vec<f64>)> {
    let sim = &measured[0].sim;
    let per = |q: f64, f: &dyn Fn(&Session) -> f64| {
        let v: Vec<f64> = measured.iter().map(|s| f(s)).collect();
        (stats::percentile(&stats::sorted(&v), q), v)
    };
    let (slow_time, slow_rate, fast_time) = (0.75, 0.25, 0.25);
    let pct = |q: f64| move |s: &Session| stats::percentile(&stats::sorted(&s.req_host_us), q);
    let konst = |v: f64| (v, vec![v; measured.len()]);
    vec![
        per(slow_rate, &|s| s.sim.completed as f64 / s.serve_s),
        per(slow_time, &pct(0.50)),
        per(fast_time, &pct(0.99)),
        per(slow_time, &|s| s.setup_s),
        per(slow_rate, &|s| s.sim.total_cycles as f64 / s.serve_s / 1e6),
        konst(peak_rss),
        konst(sim.latency_kcycles(0.50)),
        konst(sim.latency_kcycles(0.99)),
        konst(sim.cycles_per_req()),
    ]
}

/// Per-layer metrics and the two reconciliation tables.
fn per_layer(run: &Run) -> (Metrics, Phase, Phase) {
    let measured = &run.sessions[1..];
    let traced: Vec<&SessionTrace> = measured.iter().filter_map(|s| s.trace.as_ref()).collect();
    let untraced: Vec<&Session> = measured.iter().filter(|s| s.trace.is_none()).collect();
    let traced_s: Vec<&Session> = measured.iter().filter(|s| s.trace.is_some()).collect();
    let wall = |v: &[&Session], f: fn(&Session) -> f64| mean(v.iter().map(|s| f(s) * 1e3));
    let setup = Phase::mean(
        &traced.iter().map(|t| t.setup.clone()).collect::<Vec<_>>(),
        wall(&traced_s, |s| s.setup_s),
        wall(&untraced, |s| s.setup_s),
    );
    let serve = Phase::mean(
        &traced.iter().map(|t| t.serve.clone()).collect::<Vec<_>>(),
        wall(&traced_s, |s| s.serve_s),
        wall(&untraced, |s| s.serve_s),
    );
    // The wire's own spans overlay its in-process twin's layers.
    let mut m = run.twin.clone().unwrap_or_default();
    m.extend(Metrics::mean(
        &traced.iter().map(|t| t.metrics.clone()).collect::<Vec<_>>(),
    ));
    run.sessions[0].sim.layer_metrics(&mut m);
    m.set("bench.unattributed_ms.serve", serve.unattributed_ms());
    m.set("bench.unattributed_ms.setup", setup.unattributed_ms());
    m.set(
        "bench.trace_overhead_pct",
        100.0 * (serve.traced_ms / serve.untraced_ms - 1.0),
    );
    (m, setup, serve)
}

fn json_metrics(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        attempted.max(1)
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nebench: {e}");
            eprintln!(
                "usage: nebench --workload <mix-closed|dbsvm-open|wire-closed> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    println!(
        "nebench {} seed={} trace={}",
        w.name(),
        args.seed,
        args.trace as u8
    );
    println!("why: {}", w.why());
    println!(
        "host: {} x{} (available_parallelism)",
        cpu_model(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let run = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("nebench: CHECK FAILED: {e}");
            println!("{}", result_line(false, 1, 0, "{}"));
            return ExitCode::from(1);
        }
    };
    let attempted: u64 = run.sessions.iter().map(|s| s.offered).sum();
    let failed: u64 = run.sessions.iter().map(|s| s.failed).sum();
    let measured: Vec<&Session> = run.sessions[1..]
        .iter()
        .filter(|s| s.trace.is_none())
        .collect();
    println!(
        "sessions: {} (1 warm-up, {} untraced, {} traced), {} requests per session",
        run.sessions.len(),
        measured.len(),
        run.sessions.iter().filter(|s| s.trace.is_some()).count(),
        run.sessions[0].sim.completed
    );
    println!(
        "failed_share: {:.6} ({failed} of {attempted} offered: admission rejects + sheds; \
         every reply passed its check)",
        failed as f64 / attempted.max(1) as f64
    );
    let values: Vec<(&str, &str, f64)> = if args.trace {
        let (m, setup, serve) = per_layer(&run);
        print!("{}", setup.render("setup phase"));
        print!("{}", serve.render("serve phase"));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, m.get(name)))
            .collect()
    } else {
        let e2e = end_to_end(&measured, run.peak_rss);
        let samples: usize = measured.iter().map(|s| s.req_host_us.len()).sum();
        println!(
            "  {:<26} {:>16} {:<10} {:>14}",
            "metric", "value", "unit", "spread(IQR/med)"
        );
        for (&(name, unit), (v, per)) in END_TO_END.iter().zip(&e2e) {
            println!(
                "  {name:<26} {v:>16.4} {unit:<10} {:>14.4}",
                stats::iqr_share(per)
            );
        }
        println!(
            "  (host figures: a quartile over {} sessions; req_host_us over {samples} requests)",
            measured.len()
        );
        END_TO_END
            .iter()
            .zip(&e2e)
            .map(|(&(name, unit), (v, _))| (name, unit, *v))
            .collect()
    };
    println!(
        "{}",
        result_line(true, attempted, failed, &json_metrics(&values))
    );
    ExitCode::SUCCESS
}
