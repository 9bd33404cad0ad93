//! Short runs of the benchmark binary: every name in `BENCHMARK.json` is
//! printed with its unit, the traced tables reconcile, seeded runs repeat
//! the simulated plane exactly, and bad arguments fail without a result.

use std::path::Path;
use std::process::Command;

use ne_bench::json::{self, Value};

const WORKLOADS: [&str; 3] = ["mix-closed", "dbsvm-open", "wire-closed"];

fn spec() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` list.
fn names(spec: &Value, list: &str) -> Vec<(String, String)> {
    spec.get(list)
        .and_then(Value::as_array)
        .expect("list present")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns its stdout and the parsed result line.
fn run(workload: &str, seed: u64, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_nebench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result = json::parse(last).expect("result line is JSON");
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    (stdout, result)
}

/// The result's metrics as `(name, unit, value)`, in printed order.
fn metrics(result: &Value) -> Vec<(String, String, f64)> {
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(k, v)| {
            let unit = v.get("unit").and_then(Value::as_str).expect("unit");
            let value = v.get("value").and_then(Value::as_f64).expect("value");
            (k.clone(), unit.to_string(), value)
        })
        .collect()
}

/// Total-ms column of one table line (rows with a call count carry two
/// more columns than the remainder rows).
fn total_ms(line: &str) -> f64 {
    let cols: Vec<&str> = line.split_whitespace().collect();
    let remainder = ["unattributed", "tracing", "="].contains(&cols[0]);
    let at = if remainder {
        cols.len() - 2
    } else {
        cols.len() - 3
    };
    cols[at].parse().expect("numeric total_ms")
}

/// Checks one rendered phase table: its rows sum to the untraced wall.
/// Returns the wall and the `unattributed` row.
fn check_phase(stdout: &str, title: &str) -> (f64, f64) {
    let lines: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.starts_with(title))
        .skip(2)
        .take_while(|l| l.starts_with("  "))
        .collect();
    let wall_line = lines.last().expect("table has a total line");
    assert!(
        wall_line.trim_start().starts_with("= untraced wall"),
        "{wall_line}"
    );
    let wall = total_ms(wall_line);
    let sum: f64 = lines[..lines.len() - 1].iter().map(|l| total_ms(l)).sum();
    assert!(
        (sum - wall).abs() < 0.001 * lines.len() as f64,
        "{title}: rows sum to {sum} ms, untraced wall is {wall} ms"
    );
    let unattributed = lines
        .iter()
        .find(|l| l.trim_start().starts_with("unattributed"))
        .map(|l| total_ms(l))
        .expect("unattributed row");
    (wall, unattributed)
}

#[test]
fn every_name_is_printed_and_the_trace_reconciles() {
    let spec = spec();
    let workloads: Vec<String> = names(&spec, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = names(&spec, "end_to_end");
    let layers = names(&spec, "per_layer");
    for w in WORKLOADS {
        let (_, result) = run(w, 3, false);
        let got: Vec<(String, String)> = metrics(&result)
            .into_iter()
            .map(|(n, u, v)| {
                assert!(v.is_finite() && v > 0.0, "{w}: {n} = {v}");
                (n, u)
            })
            .collect();
        assert_eq!(got, e2e, "{w}: end-to-end metrics");
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));

        let (stdout, result) = run(w, 3, true);
        let got: Vec<(String, String)> = metrics(&result)
            .into_iter()
            .map(|(n, u, v)| {
                assert!(v.is_finite(), "{w}: {n} = {v}");
                (n, u)
            })
            .collect();
        assert_eq!(got, layers, "{w}: per-layer metrics");
        check_phase(&stdout, "setup phase");
        // The serve phase's remainder must stay under 5% of it.
        let (wall, unattributed) = check_phase(&stdout, "serve phase");
        assert!(
            unattributed.abs() < 0.05 * wall,
            "{w}: unattributed {unattributed} of {wall} ms"
        );
        let reported = metrics(&result)
            .into_iter()
            .find(|(n, ..)| n == "bench.unattributed_ms.serve")
            .map(|(.., v)| v)
            .expect("serve remainder");
        assert!(
            (reported - unattributed).abs() < 0.001,
            "{w}: {reported} vs {unattributed}"
        );
    }
}

#[test]
fn seeded_runs_repeat_the_simulated_plane() {
    let sim = |r: &Value| -> Vec<(String, f64)> {
        metrics(r)
            .into_iter()
            .filter(|(n, ..)| n.starts_with("sim_latency") || n == "sim_cycles_per_req")
            .map(|(n, _, v)| (n, v))
            .collect()
    };
    for w in WORKLOADS {
        let (_, a) = run(w, 9, false);
        let (_, b) = run(w, 9, false);
        assert_eq!(sim(&a).len(), 3);
        assert_eq!(
            sim(&a),
            sim(&b),
            "{w}: sim plane differs between seeded runs"
        );
        let (_, c) = run(w, 10, false);
        assert_ne!(sim(&a), sim(&c), "{w}: the seed does not reach the inputs");
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec![
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec!["--workload", "mix-closed", "--seed", "1", "--seconds", "1"],
        vec![
            "--workload",
            "mix-closed",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_nebench"))
            .args(&args)
            .output()
            .expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
