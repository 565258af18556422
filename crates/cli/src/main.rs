//! `tapesim` — command-line front end for the parallel tape storage
//! library.
//!
//! ```text
//! tapesim generate --objects 30000 --requests 300 --alpha 0.3 -o workload.json
//! tapesim place    -w workload.json --scheme parallel-batch --m 4 -o placement.json
//! tapesim simulate -w workload.json -p placement.json --samples 200
//! tapesim serve    -w workload.json -p placement.json --request 0
//! tapesim serve    --campaign --smoke
//! tapesim serve    --chaos --smoke
//! tapesim audit    -w workload.json -p placement.json --samples 200
//! tapesim inspect  -p placement.json
//! ```

use tapesim_cli::args::Args;
use tapesim_cli::commands;

const USAGE: &str = "\
tapesim — object placement in parallel tape storage systems (ICPP'06 reproduction)

USAGE: tapesim <command> [flags]

COMMANDS:
  generate   synthesise a workload (§6 settings by default)
               --objects N --requests N --min-objects N --max-objects N
               --alpha A --avg-object-mb MB --seed S -o FILE
  place      compute a placement
               -w WORKLOAD --scheme parallel-batch|object-prob|cluster-prob
               --m M --libraries N --tapes T -o FILE
  simulate   serve a popularity-sampled request stream
               -w WORKLOAD -p PLACEMENT --samples N --seed S --m M [--json]
               [--seek-policy greedy|exact|approx]  (in-tape service
               order: greedy sweep, exact LTSP DP or ratio-2 approx;
               default greedy)
  serve      serve one pre-defined request and show the decomposition
               -w WORKLOAD -p PLACEMENT --request RANK --m M [--trace]
             or, with --campaign, run the long-running sharded service
             under a sustained load campaign (per-library scheduler
             actors, bounded ingestion, periodic metric snapshots,
             audited; writes BENCH_serve.json unless --smoke)
               --campaign [--requests N] [--rate PER_HOUR] [--seed S]
               [--shards N] [--scheme all|pbp|opp|cpp]
               [--policy all|fcfs|batch|sltf] [--m M] [--max-batch N]
               [--channel-bound N] [--snapshot-every N]
               (--shards: shard threads, default one per library;
               --policy fcfs gates each shard: one request in service
               per shard)
               [--seek-policy greedy|exact|approx] [--smoke]
               [--check] [--json]
             or, with --chaos, run the campaign supervised under a
             nonzero hardware fault plan plus seeded shard kills and
             stalls: dead shards restart from checkpoint replay, a
             health ladder sheds at admission when overloaded, and
             every request is accounted (served + lost + shed +
             rejected; writes BENCH_serve_faults.json unless --smoke)
               --chaos [--chaos-seed S] [--fault-seed S] [--intensity X]
               [plus all --campaign flags] [--smoke] [--check] [--json]
  audit      replay a sampled stream with tracing on and check the DES
             invariants (drive/robot exclusivity, mount pairing, ...)
               -w WORKLOAD -p PLACEMENT --samples N --seed S --m M
  sched      run the request scheduler over a Poisson arrival stream
             (fcfs admits one request at a time through a FIFO gate;
             batch and sltf admit every arrival; all drives serve
             concurrently), sweeping placement schemes x policies,
             audited by default
               -w WORKLOAD --scheme all|pbp|opp|cpp --policy all|fcfs|batch|sltf
               --rate PER_HOUR --samples N --seed S --m M --max-batch N
               [--smoke] [--json] [--no-audit]
               [--seek-policy greedy|exact|approx]
  faults     rerun the scheduler sweep under a seeded fault plan (drive
             failures, robot jams, media bad spots) with retry, replica
             failover and availability metrics; always audited
               -w WORKLOAD --scheme all|pbp|opp|cpp --policy all|fcfs|batch|sltf
               --rate PER_HOUR --samples N --seed S --fault-seed S
               --intensity X --mtbf-hours H --jams-per-hour R
               --spots-per-tape R --replicate-gb GB [--smoke] [--json]
               [--seek-policy greedy|exact|approx]
  report     explain a run at resource granularity: per-drive/per-arm span
             time budgets (seek/rewind/transfer/load/unload/exchange/idle/
             failed, summing to the makespan), job-phase means, robot-
             exchange overlap ratios and a signed run manifest per scheme
               -w WORKLOAD --scheme all|pbp|opp|cpp --policy all|fcfs|batch|sltf
               --rate PER_HOUR --samples N --seed S --m M --max-batch N
               [--smoke] [--json]
  inspect    summarise a placement (batches, per-tape fill map)
               -p PLACEMENT
  help       show this message
";

/// Value flags of `serve --chaos`. `serve --campaign` takes all but the
/// last three, which only a chaos run injects with.
const CHAOS_FLAGS: &[&str] = &[
    "workload",
    "m",
    "scheme",
    "policy",
    "rate",
    "requests",
    "seed",
    "shards",
    "max-batch",
    "channel-bound",
    "snapshot-every",
    "libraries",
    "tapes",
    "seek-policy",
    "fault-seed",
    "intensity",
    "chaos-seed",
];

/// The value and presence flags `serve` takes in the mode `argv` selects:
/// one request, `--campaign` or `--chaos`. A flag of another mode is
/// unknown, never silently ignored.
fn serve_flags(argv: &[String]) -> (&'static [&'static str], &'static [&'static str]) {
    let given = |flag: &str| {
        argv.iter()
            .any(|a| a.starts_with('-') && a.trim_start_matches('-') == flag)
    };
    if given("chaos") {
        (
            CHAOS_FLAGS,
            &["chaos", "campaign", "smoke", "check", "json"],
        )
    } else if given("campaign") {
        (
            &CHAOS_FLAGS[..CHAOS_FLAGS.len() - 3],
            &["campaign", "smoke", "check", "json"],
        )
    } else {
        (
            &["workload", "placement", "m", "request", "seek-policy"],
            &["trace"],
        )
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first().map(String::as_str) else {
        eprint!("{USAGE}");
        std::process::exit(2);
    };
    let rest = &argv[1..];
    let result = match command {
        "generate" => Args::parse(
            rest,
            &[
                "objects",
                "requests",
                "min-objects",
                "max-objects",
                "alpha",
                "avg-object-mb",
                "seed",
                "out",
            ],
            &[],
        )
        .map_err(Into::into)
        .and_then(|a| commands::generate(&a)),
        "place" => Args::parse(
            rest,
            &["workload", "scheme", "m", "libraries", "tapes", "out"],
            &[],
        )
        .map_err(Into::into)
        .and_then(|a| commands::place(&a)),
        "simulate" => Args::parse(
            rest,
            &[
                "workload",
                "placement",
                "m",
                "samples",
                "seed",
                "seek-policy",
            ],
            &["json"],
        )
        .map_err(Into::into)
        .and_then(|a| commands::simulate(&a)),
        "serve" => {
            let (values, bools) = serve_flags(rest);
            Args::parse(rest, values, bools)
                .map_err(Into::into)
                .and_then(|a| commands::serve(&a))
        }
        "audit" => Args::parse(
            rest,
            &["workload", "placement", "m", "samples", "seed"],
            &[],
        )
        .map_err(Into::into)
        .and_then(|a| commands::audit(&a)),
        "sched" => Args::parse(
            rest,
            &[
                "workload",
                "scheme",
                "policy",
                "rate",
                "samples",
                "seed",
                "m",
                "max-batch",
                "libraries",
                "tapes",
                "seek-policy",
            ],
            &["json", "smoke", "no-audit"],
        )
        .map_err(Into::into)
        .and_then(|a| commands::sched(&a)),
        "faults" => Args::parse(
            rest,
            &[
                "workload",
                "scheme",
                "policy",
                "rate",
                "samples",
                "seed",
                "m",
                "max-batch",
                "libraries",
                "tapes",
                "fault-seed",
                "intensity",
                "mtbf-hours",
                "jams-per-hour",
                "spots-per-tape",
                "replicate-gb",
                "seek-policy",
            ],
            &["json", "smoke"],
        )
        .map_err(Into::into)
        .and_then(|a| commands::faults(&a)),
        "report" => Args::parse(
            rest,
            &[
                "workload",
                "scheme",
                "policy",
                "rate",
                "samples",
                "seed",
                "m",
                "max-batch",
                "libraries",
                "tapes",
            ],
            &["json", "smoke"],
        )
        .map_err(Into::into)
        .and_then(|a| commands::report(&a)),
        "inspect" => Args::parse(rest, &["placement"], &[])
            .map_err(Into::into)
            .and_then(|a| commands::inspect(&a)),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return;
        }
        other => {
            eprintln!("unknown command '{other}'\n");
            eprint!("{USAGE}");
            std::process::exit(2);
        }
    };
    match result {
        Ok(report) => println!("{report}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
