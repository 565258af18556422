//! `tapesim place` rejects a switch-drive count outside `1 ..= d−1` and a
//! malformed workload file with a one-line error and exit code 1, never a
//! panic, and places an empty workload under every scheme. `simulate`,
//! `serve` and `audit` reject the same `--m` on a placement with pinned
//! tapes, where the batch switch policy uses it. Request probabilities
//! nothing can be sampled from are malformed too, and every command that
//! draws requests rejects a workload with none. An object larger than a
//! cartridge fails every scheme with one error naming it.

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

#[test]
fn commands_reading_a_placement_reject_out_of_range_m() {
    let w = tmp("m-w.json");
    let pbp = tmp("m-pbp.json");
    let opp = tmp("m-opp.json");
    let (w_arg, pbp_arg, opp_arg) = (
        w.to_str().unwrap(),
        pbp.to_str().unwrap(),
        opp.to_str().unwrap(),
    );
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
    for (scheme, out) in [("pbp", pbp_arg), ("opp", opp_arg)] {
        let placed = tapesim(&["place", "-w", w_arg, "--scheme", scheme, "-o", out]);
        assert!(placed.status.success(), "{placed:?}");
    }

    let run = |cmd: &str, placement: &str, m: &str| {
        let mut args = vec![cmd, "-w", w_arg, "-p", placement, "--m", m];
        if cmd != "serve" {
            args.extend(["--samples", "3"]);
        }
        tapesim(&args)
    };
    for cmd in ["simulate", "serve", "audit"] {
        // PBP pins tapes, so the batch policy runs with m of the d = 8
        // drives per library switching.
        for m in ["0", "8", "9"] {
            let out = run(cmd, pbp_arg, m);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} --m {m}: {stderr}");
            assert_eq!(
                stderr.trim_end(),
                format!("error: m must satisfy 1 <= m <= d-1 (got m={m}, d=8)"),
                "{cmd} --m {m}"
            );
        }
        let ok = run(cmd, pbp_arg, "7");
        assert!(ok.status.success(), "{cmd} --m 7: {ok:?}");
        // OPP pins nothing: every drive switches and `--m` is unused.
        let unused = run(cmd, opp_arg, "0");
        assert!(unused.status.success(), "{cmd} opp --m 0: {unused:?}");
    }
    for f in [&w, &pbp, &opp] {
        let _ = std::fs::remove_file(f);
    }
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

/// A three-object workload whose requests `0, 1, …` carry the given
/// probabilities, written as JSON numbers.
fn probabilities(list: &str) -> String {
    let requests: Vec<String> = list
        .split(", ")
        .enumerate()
        .map(|(rank, p)| format!(r#"{{"rank":{rank},"probability":{p},"objects":[{rank}]}}"#))
        .collect();
    format!(
        r#"{{"objects":[{{"id":0,"size":1000}},{{"id":1,"size":1000}},{{"id":2,"size":1000}}],
            "requests":[{}]}}"#,
        requests.join(",")
    )
}

/// Runs `simulate` over `json` as the workload, against a valid placement
/// of a valid three-object workload.
fn simulate_json(name: &str, json: &str) -> Output {
    let valid = tmp(&format!("{name}-valid.json"));
    let placement = tmp(&format!("{name}-valid-p.json"));
    let w = tmp(&format!("{name}-sim.json"));
    std::fs::write(&valid, probabilities("1")).expect("workload file written");
    std::fs::write(&w, json).expect("workload file written");
    let (valid_arg, p_arg) = (valid.to_str().unwrap(), placement.to_str().unwrap());
    let placed = tapesim(&["place", "-w", valid_arg, "-o", p_arg]);
    assert!(placed.status.success(), "{placed:?}");
    let w_arg = w.to_str().unwrap();
    let out = tapesim(&["simulate", "-w", w_arg, "-p", p_arg, "--samples", "5"]);
    for f in [&valid, &placement, &w] {
        let _ = std::fs::remove_file(f);
    }
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
        (
            "negative-probability",
            &probabilities("-0.5, 1.5"),
            "error: json error: request 0 has probability -0.5: \
             expected a finite number >= 0",
        ),
        (
            "infinite-probability",
            &probabilities("1e999"),
            "error: json error: request 0 has probability inf: \
             expected a finite number >= 0",
        ),
        (
            "zero-mass",
            &probabilities("0, 0"),
            "error: json error: request probabilities sum to 0: \
             expected a positive finite total",
        ),
    ];
    for (name, json, expected) in cases {
        let out = simulate_json(name, json);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name} simulate: {stderr}");
        assert_eq!(stderr.trim_end(), expected, "{name} simulate");
        for scheme in ["pbp", "opp", "cpp"] {
            let out = place_json(name, json, scheme);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{name} {scheme}: {stderr}");
            assert_eq!(stderr.trim_end(), expected, "{name} {scheme}");
        }
    }
}

/// Objects are never split across tapes, so an object larger than a
/// cartridge fails every scheme with the same error naming it.
#[test]
fn an_object_larger_than_a_cartridge_is_a_one_line_error() {
    // Object 1 is 1 PB; the default cartridge holds 400 GB.
    let json = r#"{"objects":[{"id":0,"size":1000},{"id":1,"size":1000000000000000}],
        "requests":[{"rank":0,"probability":1.0,"objects":[0,1]}]}"#;
    for (scheme, label) in [
        ("pbp", "parallel batch"),
        ("opp", "object probability"),
        ("cpp", "cluster probability"),
    ] {
        let out = place_json("oversized", json, scheme);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{scheme}: {stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!(
                "error: {label} placement failed: object O1 (1000.00 TB) \
                 is larger than a tape cartridge (400.00 GB)"
            ),
            "{scheme}"
        );
    }
}

#[test]
fn empty_workload_places_under_every_scheme() {
    for scheme in ["pbp", "opp", "cpp"] {
        let out = place_json("empty", r#"{"objects":[],"requests":[]}"#, scheme);
        assert!(out.status.success(), "{scheme}: {out:?}");
    }
}

#[test]
fn commands_drawing_requests_reject_a_workload_without_any() {
    let empty = r#"{"objects":[{"id":0,"size":1000}],"requests":[]}"#;
    let expected = "error: workload has no requests to sample";
    let out = simulate_json("no-requests", empty);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "simulate: {stderr}");
    assert_eq!(stderr.trim_end(), expected, "simulate");

    let w = tmp("no-requests.json");
    let p = tmp("no-requests-p.json");
    let (w_arg, p_arg) = (w.to_str().unwrap(), p.to_str().unwrap());
    std::fs::write(&w, empty).expect("workload file written");
    let placed = tapesim(&["place", "-w", w_arg, "-o", p_arg]);
    assert!(placed.status.success(), "{placed:?}");
    let runs: [&[&str]; 6] = [
        &["audit", "-w", w_arg, "-p", p_arg, "--samples", "5"],
        &["sched", "-w", w_arg, "--samples", "5"],
        &["faults", "-w", w_arg, "--samples", "5"],
        &["report", "-w", w_arg, "--samples", "5"],
        &["serve", "--campaign", "--smoke", "-w", w_arg],
        &["serve", "--chaos", "--smoke", "-w", w_arg],
    ];
    for args in runs {
        let out = tapesim(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr.trim_end(), expected, "{args:?}");
    }
    for f in [&w, &p] {
        let _ = std::fs::remove_file(f);
    }
}
