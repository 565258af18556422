//! Each `serve` mode takes only its own flags: a flag of another mode is
//! an unknown-flag error, not silently ignored. An unknown `--scheme` or
//! `--seek-policy` value is a one-line error too.

use std::process::{Command, Output};

fn tapesim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tapesim"))
        .args(args)
        .output()
        .expect("tapesim runs")
}

/// `args` exits 1 with one stderr line that starts with `prefix`, and
/// prints no report.
fn assert_one_line_error(args: &[&str], prefix: &str) {
    let out = tapesim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with(prefix), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn serve_rejects_the_flags_of_other_modes() {
    let campaign = [
        "serve",
        "--campaign",
        "--smoke",
        "--requests",
        "20",
        "--scheme",
        "pbp",
        "--policy",
        "batch",
    ];
    for (flag, value) in [
        ("--intensity", "5"),
        ("--chaos-seed", "9"),
        ("--fault-seed", "3"),
    ] {
        let mut args = campaign.to_vec();
        args.extend([flag, value]);
        assert_one_line_error(&args, &format!("error: unknown flag {flag}; valid flags: "));
    }

    let single = ["serve", "-w", "w.json", "-p", "p.json", "--request", "0"];
    for (flag, value) in [
        ("--rate", Some("3")),
        ("--shards", Some("9")),
        ("--intensity", Some("4")),
        ("--scheme", Some("pbp")),
        ("--requests", Some("20")),
        ("--smoke", None),
        ("--json", None),
    ] {
        let mut args = single.to_vec();
        args.push(flag);
        args.extend(value);
        assert_one_line_error(&args, &format!("error: unknown flag {flag}; valid flags: "));
    }
}

#[test]
fn serve_chaos_keeps_its_fault_flags() {
    let out = tapesim(&[
        "serve",
        "--chaos",
        "--smoke",
        "--requests",
        "300",
        "--scheme",
        "pbp",
        "--policy",
        "batch",
        "--intensity",
        "0.5",
        "--fault-seed",
        "3",
        "--chaos-seed",
        "9",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout.contains("fault seed 3 ×0.5, chaos seed 9"),
        "{stdout}"
    );
}

#[test]
fn unknown_scheme_is_a_one_line_error() {
    assert_one_line_error(
        &["place", "-w", "w.json", "--scheme", "bogus", "-o", "p.json"],
        "error: unknown scheme 'bogus' (parallel-batch | object-prob | cluster-prob)",
    );
    assert_one_line_error(
        &["sched", "--smoke", "--scheme", "bogus"],
        "error: unknown scheme 'bogus' (all | parallel-batch | object-prob | cluster-prob)",
    );
}

#[test]
fn unknown_seek_policy_is_a_one_line_error() {
    assert_one_line_error(
        &["sched", "--smoke", "--seek-policy", "auto"],
        "error: flag --seek-policy: expected greedy|exact|approx, got 'auto'",
    );
}
