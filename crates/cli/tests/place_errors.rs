//! `tapesim place` rejects a switch-drive count outside `1 ..= d−1` and a
//! malformed workload file with a one-line error and exit code 1, never a
//! panic, and places an empty workload under every scheme.

use std::path::PathBuf;
use std::process::{Command, Output};

fn tapesim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tapesim"))
        .args(args)
        .output()
        .expect("tapesim runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "tapesim-place-errors-{}-{name}",
        std::process::id()
    ))
}

#[test]
fn out_of_range_m_is_a_one_line_error() {
    let w = tmp("w.json");
    let p = tmp("p.json");
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

    // The default system has d = 8 drives per library.
    for m in ["0", "8", "9"] {
        let out = tapesim(&["place", "-w", w_arg, "--m", m, "-o", p_arg]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--m {m}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!(
                "error: parallel batch placement failed: \
                 m must satisfy 1 <= m <= d-1 (got m={m}, d=8)"
            ),
            "--m {m}"
        );
    }

    let ok = tapesim(&["place", "-w", w_arg, "--m", "4", "-o", p_arg]);
    assert!(ok.status.success(), "{ok:?}");
    let _ = std::fs::remove_file(&w);
    let _ = std::fs::remove_file(&p);
}

/// Writes `json` as a workload file and places it under `scheme`.
fn place_json(name: &str, json: &str, scheme: &str) -> Output {
    let w = tmp(&format!("{name}.json"));
    let p = tmp(&format!("{name}-{scheme}-p.json"));
    std::fs::write(&w, json).expect("workload file written");
    let out = tapesim(&[
        "place",
        "-w",
        w.to_str().unwrap(),
        "--scheme",
        scheme,
        "-o",
        p.to_str().unwrap(),
    ]);
    let _ = std::fs::remove_file(&w);
    let _ = std::fs::remove_file(&p);
    out
}

#[test]
fn malformed_workloads_are_one_line_errors() {
    let cases = [
        (
            "dangling",
            r#"{"objects":[{"id":0,"size":1000},{"id":1,"size":1000}],
                "requests":[{"rank":0,"probability":1.0,"objects":[0,7]}]}"#,
            "error: json error: request 0 references unknown object O7",
        ),
        (
            "non-dense",
            r#"{"objects":[{"id":0,"size":1000},{"id":7,"size":1000}],
                "requests":[{"rank":0,"probability":1.0,"objects":[0]}]}"#,
            "error: json error: object ids must be dense: position 1 holds O7",
        ),
    ];
    for (name, json, expected) in cases {
        for scheme in ["pbp", "opp", "cpp"] {
            let out = place_json(name, json, scheme);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {scheme}: {stderr}");
            assert_eq!(stderr.trim_end(), expected, "{name} {scheme}");
        }
    }
}

#[test]
fn empty_workload_places_under_every_scheme() {
    for scheme in ["pbp", "opp", "cpp"] {
        let out = place_json("empty", r#"{"objects":[],"requests":[]}"#, scheme);
        assert!(out.status.success(), "{scheme}: {out:?}");
    }
}
