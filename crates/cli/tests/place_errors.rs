//! `tapesim place` rejects a switch-drive count outside `1 ..= d−1` with a
//! one-line error and exit code 1, never a panic.

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
