//! `tridentctl`'s option parser refuses what it does not take.

use std::process::Command;

/// `run --profile` folded a live profile that the report never showed;
/// `--profile-out FILE` is the way to profile a run from the CLI. The
/// parser refuses the bare flag before anything runs.
#[test]
fn run_refuses_the_bare_profile_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_tridentctl"))
        .args([
            "run",
            "--workload",
            "GUPS",
            "--policy",
            "Trident",
            "--scale",
            "256",
            "--samples",
            "8000",
            "--profile",
        ])
        .output()
        .expect("the tridentctl binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("unrecognized argument \"--profile\""),
        "{stderr}"
    );
    assert!(stderr.contains("[--profile-out FILE]"), "{stderr}");
}

/// `run --trace N` sized a ring whose events `JobResult` never carried;
/// `--trace-out FILE` is the way to trace a run from the CLI. The parser
/// refuses the flag before anything runs.
#[test]
fn run_refuses_the_trace_ring_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_tridentctl"))
        .args([
            "run",
            "--workload",
            "GUPS",
            "--policy",
            "Trident",
            "--scale",
            "256",
            "--samples",
            "8000",
            "--trace",
            "64",
        ])
        .output()
        .expect("the tridentctl binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("unrecognized argument \"--trace\""),
        "{stderr}"
    );
    assert!(stderr.contains("[--trace-out FILE]"), "{stderr}");
    assert!(!stderr.contains("[--trace N]"), "{stderr}");
}

/// The `pv_exchange` injection site went with the hypervisor-side
/// exchange, the only code that consulted it. The parser refuses a rule
/// naming it, and names the value, before anything runs.
#[test]
fn run_refuses_the_removed_pv_exchange_site() {
    let out = Command::new(env!("CARGO_BIN_EXE_tridentctl"))
        .args([
            "run",
            "--workload",
            "GUPS",
            "--policy",
            "Trident",
            "--scale",
            "256",
            "--samples",
            "8000",
            "--fault",
            "pv_exchange:5",
        ])
        .output()
        .expect("the tridentctl binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("--fault \"pv_exchange:5\" is invalid"),
        "{stderr}"
    );
}
