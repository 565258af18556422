//! The scheduled commands have one run path: no environment variable
//! and no flag picks a gear or a thread count. `serve` runs `--shards`
//! shard threads (one per library by default) whatever
//! `TAPESIM_PARALLEL` and `TAPESIM_THREADS` say, and `--parallel` and
//! `--threads` are unknown flags.

use std::process::{Command, Output};

fn tapesim(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tapesim"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("tapesim runs")
}

/// The `--json` report without its wall-clock fields: what must replay
/// bit for bit.
fn virtual_time(args: &[&str], env: &[(&str, &str)]) -> String {
    let out = tapesim(args, env);
    assert!(out.status.success(), "{args:?} {env:?}: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.contains("\"wall_s\"") && !l.contains("\"requests_per_sec\""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn serve_ignores_the_parallel_environment() {
    let env = [("TAPESIM_PARALLEL", "1"), ("TAPESIM_THREADS", "1")];
    for args in [
        &[
            "serve",
            "--campaign",
            "--smoke",
            "--requests",
            "60",
            "--rate",
            "30",
            "--scheme",
            "pbp",
            "--policy",
            "batch",
            "--json",
        ][..],
        &[
            "serve",
            "--chaos",
            "--smoke",
            "--requests",
            "300",
            "--scheme",
            "pbp",
            "--policy",
            "batch",
            "--json",
        ][..],
    ] {
        let plain = virtual_time(args, &[]);
        assert!(plain.contains("\"shards\": 3"), "{args:?}: {plain}");
        assert_eq!(virtual_time(args, &env), plain, "{args:?}");
    }
}

#[test]
fn parallel_flags_are_unknown() {
    for (flag, value) in [("--parallel", "on"), ("--threads", "2")] {
        let out = tapesim(&["sched", "--smoke", flag, value], &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: unknown flag {flag}; valid flags: ")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} printed a report");
    }
}
