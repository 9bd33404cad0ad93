//! Wall-clock harness for the simulator's hot paths.
//!
//! Runs each scenario twice — once on the optimized pipelines (the
//! default) and once with every optimization swapped for its naive
//! reference form (`HwConfig::reference_path` for the memory pipeline,
//! [`ne_crypto::set_reference_impl`] for the crypto primitives) — and
//! reports host wall-clock for both. The two runs must be
//! architecturally indistinguishable: the harness hard-fails if cycle
//! totals or the full metrics exports differ by a byte, so a speedup
//! here is evidence of faster simulation, never of changed simulation.
//!
//! Scenarios:
//!
//! * `closed-loop` — the multi-tenant hosting server under think-time-
//!   free closed-loop load (the `ne-load` shape, one `Cluster::run` on a
//!   one-shard cluster): crypto-heavy services, scheduling, admission
//!   control.
//! * `echo` — the nested SSL echo server (the Fig. 7 shape): bulk
//!   record traffic through two enclave levels.
//!
//! With `--shards N` (N > 1) a third scenario runs: `shard-scale`, the
//! same closed-loop load driven through the `ne-cluster` shard layer at
//! one shard and at N shards (one OS thread per shard). The two shard
//! counts must produce byte-identical `ne-tenants/v1` per-tenant exports
//! — the shard-count-invariance oracle — and the table reports the
//! N-shard wall time in the "Optimized" column against the one-shard
//! wall time in "Reference", so the speedup column is the parallel
//! scaling factor. `--min-shard-speedup <x>` gates on it, but only on
//! hosts with at least 4 CPUs (`std::thread::available_parallelism`);
//! on smaller machines the gate is skipped with a note, since threads
//! cannot beat one core with CPU-bound work.
//!
//! Flags: `--requests <n>` / `--messages <n>` scale the scenarios,
//! `--repeat <n>` takes the best of n timings per path (default 1),
//! `--full` is a bigger preset, `--min-speedup <x>` exits nonzero if
//! any scenario's speedup lands below `x` (for local verification;
//! wall-clock on shared CI runners is too noisy to gate on),
//! `--shards <n>` / `--min-shard-speedup <x>` as above, and
//! `--bench-out <path>` writes an `ne-bench/v1` document whose leaves
//! are the deterministic cycle totals plus the (noisy) wall times and
//! the optimized/reference ratio — compare a `--shards 4` run against
//! `results/baselines/BENCH_wallclock.json` (the one wall-clock
//! baseline: closed-loop, echo and shard-scale rows) with
//! `ne-bench-compare --advisory` and a generous threshold.
//!
//! `--timeline-out <path>` runs the closed-loop scenario once more on
//! each path with an `ne-obs` sampler attached and writes the
//! `ne-obs/v1` windowed timeline — after hard-failing unless the
//! optimized and reference timelines are byte-identical, extending the
//! differential oracle to the observability plane.

use std::time::Instant;

use ne_bench::report::{
    banner, bench_out_path, f2, flag_str, flag_u64, timeline_out_path, Table, BENCH_SCHEMA,
};
use ne_cluster::{drive, Cluster, ClusterConfig, RunOutput, Scenario};
use ne_host::ServiceKind;
use ne_obs::SamplerConfig;
use ne_tls::echo::{run_echo, EchoConfig};

const TENANTS: usize = 4;
const SEED: u64 = 7;

/// One scenario's paired measurement; `total_cycles` is the first timed
/// run's (see [`measure`]).
struct Measurement {
    label: &'static str,
    wall_ms_opt: f64,
    wall_ms_ref: f64,
    total_cycles: u64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.wall_ms_ref / self.wall_ms_opt.max(1e-9)
    }
}

/// One run's architectural outputs: total cycles, the metrics export,
/// and the `ne-tenants/v1` export (empty where there is none).
type Outputs = (u64, String, String);

/// Times `run` on two `(column, arg)` legs, in order, best of `repeat`
/// each; column 0 is "Optimized", column 1 "Reference". `exports`
/// extracts each run's outputs outside the timed region. Every run's
/// per-tenant export must match the first run's, and its cycle total and
/// metrics export must match the first run of the same leg — or of
/// either leg when `legs_agree` (the optimized-vs-reference oracle).
/// The reported cycle total is the first run's.
fn measure<A: Copy + PartialEq + std::fmt::Debug, T>(
    label: &'static str,
    repeat: usize,
    legs: [(usize, A); 2],
    legs_agree: bool,
    run: impl Fn(A) -> T,
    exports: impl Fn(T) -> Outputs,
) -> Measurement {
    let mut best = [f64::INFINITY; 2];
    let mut outputs: Vec<(A, Outputs)> = Vec::new();
    for (column, arg) in legs {
        for _ in 0..repeat {
            let start = Instant::now();
            let done = run(arg);
            best[column] = best[column].min(start.elapsed().as_secs_f64() * 1e3);
            outputs.push((arg, exports(done)));
        }
    }
    let (_, (cycles0, _, tenants0)) = &outputs[0];
    for (arg, (cycles, metrics, tenants)) in &outputs[1..] {
        assert_eq!(
            tenants0, tenants,
            "{label}: per-tenant export diverged ({arg:?})"
        );
        let (_, (c, m, _)) = outputs
            .iter()
            .find(|(a, _)| legs_agree || a == arg)
            .expect("a first run");
        assert_eq!(c, cycles, "{label}: cycle totals diverged ({arg:?})");
        assert_eq!(m, metrics, "{label}: metrics exports diverged ({arg:?})");
    }
    Measurement {
        label,
        wall_ms_opt: best[0],
        wall_ms_ref: best[1],
        total_cycles: *cycles0,
    }
}

/// Runs `f` with the crypto primitives on their reference (`true`) or
/// optimized forms, restoring the optimized ones afterwards.
fn on_crypto_path<T>(reference: bool, f: impl FnOnce() -> T) -> T {
    ne_crypto::set_reference_impl(reference);
    let out = f();
    ne_crypto::set_reference_impl(false);
    out
}

/// The `ne-load` closed-loop shape on a fresh cluster of `shards`
/// shards: every (tenant, service) client keeps exactly one request in
/// flight until its quota is served. `obs` attaches the `ne-obs`
/// sampler, which only reads, so the simulated run is byte-identical
/// either way.
fn closed_loop(
    requests: usize,
    shards: usize,
    reference: bool,
    obs: Option<SamplerConfig>,
) -> (Cluster, RunOutput) {
    let mut cfg = ClusterConfig::new(
        drive::standard_specs(TENANTS, ServiceKind::ALL.len()),
        shards,
    );
    cfg.host.seed = SEED;
    cfg.host.hw.reference_path = reference;
    let mut cluster = Cluster::build(cfg).expect("cluster build");
    let out = cluster
        .run(&Scenario {
            obs,
            ..Scenario::closed(requests)
        })
        .expect("cluster closed loop");
    (cluster, out)
}

/// A closed-loop cluster's outputs, merged metrics identity-checked.
fn cluster_outputs(cluster: Cluster) -> Outputs {
    let m = cluster.merged_metrics().expect("metrics merge");
    m.check().expect("merged metrics identities");
    (m.total_cycles, m.to_json(), cluster.tenants_export())
}

/// The Fig. 7 shape: nested SSL echo, bulk records through two levels.
fn echo(messages: usize, reference: bool) -> Outputs {
    let run = run_echo(&EchoConfig {
        chunk_size: 4096,
        num_messages: messages,
        nested: true,
        trace: false,
        reference,
    })
    .expect("echo run");
    (
        run.metrics.total_cycles,
        run.metrics.to_json(),
        String::new(),
    )
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let requests = flag_u64("--requests").unwrap_or(if full { 1024 } else { 256 }) as usize;
    let messages = flag_u64("--messages").unwrap_or(if full { 1_000 } else { 200 }) as usize;
    let repeat = flag_u64("--repeat").unwrap_or(1).max(1) as usize;
    let min_speedup = flag_str("--min-speedup").map(|s| {
        s.parse::<f64>()
            .unwrap_or_else(|e| panic!("--min-speedup {s}: {e}"))
    });
    let shards = flag_u64("--shards").unwrap_or(1).max(1) as usize;
    let min_shard_speedup = flag_str("--min-shard-speedup").map(|s| {
        s.parse::<f64>()
            .unwrap_or_else(|e| panic!("--min-shard-speedup {s}: {e}"))
    });
    // On stderr, so the byte-compared stdout and exports stay the same on
    // every CPU.
    eprintln!("crypto backend: {}", ne_crypto::backend());
    banner(&format!(
        "Wall-clock: optimized vs reference paths \
         ({requests} req/client closed loop, {messages} echo messages, best of {repeat}{})",
        if shards > 1 {
            format!(", shard-scale at {shards} shards")
        } else {
            String::new()
        }
    ));
    let paths = [(0, false), (1, true)];
    let mut runs = vec![
        measure(
            "closed-loop",
            repeat,
            paths,
            true,
            |r| on_crypto_path(r, || closed_loop(requests, 1, r, None).0),
            cluster_outputs,
        ),
        measure(
            "echo",
            repeat,
            paths,
            true,
            |r| on_crypto_path(r, || echo(messages, r)),
            |out| out,
        ),
    ];
    if shards > 1 {
        // The one-shard runs fill the "Reference" column, so the speedup
        // column reads as the parallel scaling factor; only the
        // per-tenant export is invariant across shard counts (cycles
        // shift with the machine split).
        runs.push(measure(
            "shard-scale",
            repeat,
            [(1, 1), (0, shards)],
            false,
            |n| closed_loop(requests, n, false, None).0,
            cluster_outputs,
        ));
    }
    let mut t = Table::new(&[
        "Scenario",
        "Optimized ms",
        "Reference ms",
        "Speedup",
        "Total cycles",
    ]);
    for m in &runs {
        t.row(&[
            m.label.to_string(),
            f2(m.wall_ms_opt),
            f2(m.wall_ms_ref),
            format!("{}x", f2(m.speedup())),
            m.total_cycles.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nBoth paths produced byte-identical metrics exports; the speedup\n\
         is pure wall-clock. Cycle totals are deterministic; wall times\n\
         are host-dependent (compare advisory, with a generous threshold)."
    );
    if shards > 1 {
        println!(
            "shard-scale row: \"Optimized\" is the {shards}-shard run, \"Reference\" the\n\
             one-shard run; per-tenant exports were byte-identical at both counts\n\
             (the shard-count-invariance oracle). Host has {} CPU(s).",
            available_cpus()
        );
    }
    if let Some(path) = bench_out_path() {
        std::fs::write(&path, bench_json(&runs))
            .unwrap_or_else(|e| panic!("cannot write bench baseline to {}: {e}", path.display()));
        println!(
            "\nbench baseline: wrote {} run(s) to {}",
            runs.len(),
            path.display()
        );
    }
    if let Some(path) = timeline_out_path() {
        // One more closed-loop run per path, sampled: the timelines must
        // be byte-identical — the differential oracle extended to the
        // observability plane (window boundaries, SLO verdicts, event
        // attribution all ride on architectural state only).
        let timeline = |reference: bool| {
            let (_, out) = closed_loop(requests, 1, reference, Some(SamplerConfig::default()));
            ne_obs::to_jsonl(
                &out.timeline.expect("sampled run yields a timeline"),
                "ne-wallclock-closed-loop",
            )
        };
        let opt = timeline(false);
        let reference = on_crypto_path(true, || timeline(true));
        assert_eq!(
            opt, reference,
            "timeline export diverged between optimized and reference paths"
        );
        std::fs::write(&path, &opt)
            .unwrap_or_else(|e| panic!("cannot write timeline export to {}: {e}", path.display()));
        println!(
            "timeline export: optimized and reference paths byte-identical; wrote {}",
            path.display()
        );
    }
    if let Some(min) = min_speedup {
        // shard-scale has its own gate (--min-shard-speedup) with a CPU
        // precondition, so it is excluded from the optimized-vs-reference
        // one.
        for m in runs.iter().filter(|m| m.label != "shard-scale") {
            if m.speedup() < min {
                eprintln!(
                    "FAIL: {} speedup {:.2}x below required {min:.2}x",
                    m.label,
                    m.speedup()
                );
                std::process::exit(1);
            }
        }
        println!("\nok: every scenario at or above {min:.2}x");
    }
    if let Some(min) = min_shard_speedup {
        let m = runs
            .iter()
            .find(|m| m.label == "shard-scale")
            .unwrap_or_else(|| panic!("--min-shard-speedup needs --shards > 1"));
        let cpus = available_cpus();
        if cpus < 4 {
            // One thread per shard cannot beat one core with CPU-bound
            // work; the acceptance bar ("≥2x on a ≥4-core machine") only
            // applies where the hardware can express it.
            println!(
                "\nskip: --min-shard-speedup {min:.2}x not enforced on a \
                 {cpus}-CPU host (needs >= 4); measured {:.2}x",
                m.speedup()
            );
        } else if m.speedup() < min {
            eprintln!(
                "FAIL: shard-scale speedup {:.2}x below required {min:.2}x on a {cpus}-CPU host",
                m.speedup()
            );
            std::process::exit(1);
        } else {
            println!("\nok: shard-scale at or above {min:.2}x on a {cpus}-CPU host");
        }
    }
}

/// CPUs visible to this process, 1 when undeterminable.
fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Hand-rolled `ne-bench/v1` document. Higher is worse for every leaf:
/// cycles (deterministic), wall milliseconds (noisy), and the
/// optimized-over-reference wall ratio in permille (the regression
/// signal — it grows when the optimized path loses its lead).
fn bench_json(runs: &[Measurement]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
    out.push_str("  \"experiment\": \"wallclock\",\n");
    out.push_str("  \"runs\": [\n");
    for (i, m) in runs.iter().enumerate() {
        let permille = (1000.0 * m.wall_ms_opt / m.wall_ms_ref.max(1e-9)).round();
        out.push_str("    {\n");
        out.push_str(&format!("      \"label\": \"{}\",\n", m.label));
        out.push_str(&format!("      \"total_cycles\": {},\n", m.total_cycles));
        out.push_str(&format!(
            "      \"wall_ms_optimized\": {:.0},\n",
            m.wall_ms_opt.max(1.0).round()
        ));
        out.push_str(&format!(
            "      \"wall_ms_reference\": {:.0},\n",
            m.wall_ms_ref.max(1.0).round()
        ));
        out.push_str(&format!("      \"opt_over_ref_permille\": {permille}\n"));
        out.push_str("    }");
        out.push_str(if i + 1 < runs.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}
