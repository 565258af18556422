//! Every command that serves a number of requests rejects a count of 0 up
//! front, with a one-line error naming the flag and exit code 1. Before,
//! such runs printed `NaN` percentiles, and a full `serve --campaign`
//! ran every cell before failing to serialise them.

use std::process::{Command, Output};

fn tapesim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tapesim"))
        .args(args)
        .output()
        .expect("tapesim runs")
}

fn assert_rejected(args: &[&str], flag: &str) {
    let out = tapesim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
    assert_eq!(
        stderr.trim_end(),
        format!("error: flag --{flag}: expected at least 1 request, got 0"),
        "{args:?}"
    );
    assert!(out.stdout.is_empty(), "{args:?} printed a report");
}

#[test]
fn zero_request_counts_are_one_line_errors() {
    let dir = std::env::temp_dir();
    let w = dir.join(format!(
        "tapesim-zero-requests-{}-w.json",
        std::process::id()
    ));
    let p = dir.join(format!(
        "tapesim-zero-requests-{}-p.json",
        std::process::id()
    ));
    let (w_arg, p_arg) = (w.to_str().unwrap(), p.to_str().unwrap());
    let gen = tapesim(&[
        "generate",
        "--objects",
        "300",
        "--requests",
        "5",
        "--min-objects",
        "5",
        "--max-objects",
        "10",
        "-o",
        w_arg,
    ]);
    assert!(gen.status.success(), "{gen:?}");
    let place = tapesim(&["place", "-w", w_arg, "-o", p_arg]);
    assert!(place.status.success(), "{place:?}");

    for cmd in ["simulate", "audit"] {
        assert_rejected(
            &[cmd, "-w", w_arg, "-p", p_arg, "--samples", "0"],
            "samples",
        );
    }
    for cmd in ["sched", "faults", "report"] {
        assert_rejected(&[cmd, "--smoke", "--samples", "0"], "samples");
    }
    assert_rejected(
        &["sched", "-w", w_arg, "--samples", "0", "--no-audit"],
        "samples",
    );
    for mode in ["--campaign", "--chaos"] {
        assert_rejected(&["serve", mode, "--smoke", "--requests", "0"], "requests");
    }
    // The full campaign used to run every cell before failing.
    assert_rejected(&["serve", "--campaign", "--requests", "0"], "requests");

    // One request is a valid run.
    let one = tapesim(&["sched", "--smoke", "--samples", "1"]);
    assert!(one.status.success(), "{one:?}");
    let _ = std::fs::remove_file(&w);
    let _ = std::fs::remove_file(&p);
}
