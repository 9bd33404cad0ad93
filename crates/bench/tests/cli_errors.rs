//! Malformed scenario specs on the `ne-load` command line are usage
//! errors: one `error: …` line on stderr and exit status 2 — never a
//! panic or a backtrace.

use std::process::Command;

fn assert_usage_error(args: &[&str]) {
    let out = Command::new(env!("CARGO_BIN_EXE_ne-load"))
        .args(args)
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("spawn ne-load");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr was\n{stderr}");
    assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
    let errors: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("error: "))
        .collect();
    assert_eq!(
        errors.len(),
        1,
        "{args:?}: want one error line, got\n{stderr}"
    );
}

#[test]
fn unknown_chaos_kind_is_a_usage_error() {
    assert_usage_error(&["--chaos", "bogus"]);
}

#[test]
fn zero_chaos_period_is_a_usage_error() {
    assert_usage_error(&["--chaos", "aex:0"]);
}

#[test]
fn unknown_mode_is_a_usage_error() {
    assert_usage_error(&["--mode", "sideways"]);
}

#[test]
fn out_of_range_migrate_tenant_is_a_usage_error() {
    assert_usage_error(&["--migrate", "9@planned"]);
}
