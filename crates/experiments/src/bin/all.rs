//! Regenerates the paper's artifacts (Table 1, Figures 5–9, extensions)
//! under `results/` and prints their reports: every artifact by default,
//! or just the ids given (`all --quick fig6 ext_tail`). Pass `--quick`
//! for shrunken instances.

use std::time::Instant;
use tapesim_experiments::figures;
use tapesim_experiments::harness::results_dir;

fn main() {
    let settings = figures::settings_from_args();
    let ids: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    let drivers = figures::select(&ids).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });
    let dir = results_dir();
    for (id, run) in drivers {
        let t = Instant::now();
        let report = run(&settings, &dir).expect("write results");
        println!("{report}");
        eprintln!("[{id} done in {:.1?}]", t.elapsed());
    }
    if ids.is_empty() {
        println!("All artifacts written to {}", dir.display());
    }
}
