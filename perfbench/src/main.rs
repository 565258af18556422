//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-figure|campaign|campaign-faults> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! The demand is drawn from `--seed`. An untraced run (`--trace 0`)
//! reports the end-to-end metrics: the modelled system's results in
//! virtual time and the simulator's own cost in host time. A traced run
//! (`--trace 1`) wraps each call into a layer crate in a span and reports
//! the per-layer breakdown instead. Outputs are checked; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`, and any failed check exits non-zero.
//! `perfbench/README.md` says why each workload exists and which
//! end-to-end metric each layer metric should move.

mod campaign;
mod layers;
mod paper;
mod spans;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// One reported metric: value, unit, and how many samples it summarises.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one run hands back for printing.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Simulated requests the run attempted.
    pub attempted: u64,
    /// Attempted requests the program failed to carry out (refused
    /// submissions). A request the modelled hardware loses is a result,
    /// counted by `success_rate`, not a failure of the program.
    pub failed: u64,
    /// Failed output checks, one line each.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed check when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Parsed command line.
pub struct Run {
    pub seed: u64,
    /// How long the serving phase measures.
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// An independent seed for one input stream of this run: the same
    /// `--seed` always yields the same inputs.
    pub fn seed_for(&self, stream: u64) -> u64 {
        // SplitMix64 finaliser over the seed and the stream tag.
        let mut z = self.seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Distinct demand streams per run. Serving unit `i` serves stream
/// `i % CYCLE`; the virtual metrics pool the first `CYCLE` units, so they
/// are a pure function of the seed however many units the time allows.
pub const CYCLE: usize = 20;

/// Runs serving units until the run has measured for `run.seconds` and
/// each of the [`CYCLE`] streams has been served once; returns how many
/// units ran. `unit(i)` serves stream `i % CYCLE` and returns a digest of
/// its simulated results, which must repeat exactly whenever that stream
/// comes round again.
pub fn repeat_units(
    run: &Run,
    mut unit: impl FnMut(usize) -> Result<u64, String>,
) -> Result<usize, String> {
    let start = Instant::now();
    let mut digests = Vec::with_capacity(CYCLE);
    let mut i = 0;
    while i < CYCLE || start.elapsed().as_secs_f64() < run.seconds {
        let digest = unit(i)?;
        match digests.get(i % CYCLE) {
            None => digests.push(digest),
            Some(&first) if first != digest => {
                return Err(format!(
                    "serving unit {i} produced digest {digest:#018x}, \
                     unit {} of the same stream produced {first:#018x}",
                    i % CYCLE
                ))
            }
            Some(_) => {}
        }
        i += 1;
    }
    Ok(i)
}

/// FNV-1a over the bits of simulated results, so two builds can show
/// that their virtual-time statistics are identical.
pub fn digest(values: &[f64], counts: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(8 * (values.len() + counts.len()));
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    for c in counts {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    tapesim_obs::fnv1a64(&bytes)
}

/// Peak resident memory of this process, MB, from `/proc/self/status`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The commit being measured, read from `.git` without running git;
/// `unknown` in an exported checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(&format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|refs| {
            refs.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where a traced run writes its spans: under the build directory.
fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(dir)
        .join("perfbench")
        .join(format!("spans-{workload}-{seed}.json"))
}

fn parse() -> Result<(String, Run), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    let run = Run {
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    };
    Ok((workload, run))
}

fn run() -> Result<bool, String> {
    let (workload, run) = parse()?;
    let mut tracer = spans::Tracer::new(run.trace);
    let outcome = match workload.as_str() {
        "paper-figure" => paper::run(&run, &mut tracer)?,
        "campaign" => campaign::run(&run, &mut tracer, false)?,
        "campaign-faults" => campaign::run(&run, &mut tracer, true)?,
        other => {
            return Err(format!(
                "unknown workload '{other}' (paper-figure | campaign | campaign-faults)"
            ))
        }
    };

    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench {workload}: seed {} seconds {} trace {} available_parallelism {threads} commit {}",
        run.seed,
        run.seconds,
        u8::from(run.trace),
        commit()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    if run.trace {
        let path = spans_path(&workload, run.seed);
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("  spans written to {}", path.display());
    }
    for m in &outcome.metrics {
        println!(
            "  {:<34} {:>18.6} {:<6} ({} samples)",
            m.name, m.value, m.unit, m.samples
        );
    }
    for f in &outcome.failures {
        eprintln!("perfbench: check failed: {f}");
    }
    let mut correct = outcome.failures.is_empty();
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            eprintln!("perfbench: metric {} is not finite", m.name);
            correct = false;
        }
    }

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(correct)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
