//! Table 1 — tape drive / library specifications.
//!
//! Echoes the configuration constants the whole evaluation runs on, from
//! the spec presets, so the reproduced table always reflects the code.

use crate::settings::ExperimentSettings;
use std::path::Path;
use tapesim_analysis::Table;
use tapesim_model::specs::paper_table1;

/// Builds the table.
pub fn run() -> Table {
    let sys = paper_table1();
    let d = sys.library.drive;
    let r = sys.library.robot;
    let mut t = Table::new(&["parameter", "value"]);
    let mut row = |k: &str, v: String| t.push_row(vec![k.to_string(), v]);
    row(
        "Average cell to drive time",
        format!("{:.1}s", r.cell_to_drive_time),
    );
    row(
        "Tape load and thread to ready",
        format!("{:.0}s", d.load_time),
    );
    row("Data transfer rate, native", format!("{}", d.native_rate));
    row(
        "Maximum/average rewind time",
        format!(
            "{:.0}/{:.0}s",
            d.full_pass_time,
            d.rewind_time(
                tapesim_model::Bytes(sys.library.tape.capacity.get() / 2),
                sys.library.tape.capacity
            )
        ),
    );
    row("Unload time", format!("{:.0}s", d.unload_time));
    row(
        "Average file access time (first file)",
        // Load + average half-pass seek under the linear model.
        format!(
            "{:.0}s (linear model; paper quotes 72s)",
            d.load_time
                + d.position_time(
                    tapesim_model::Bytes::ZERO,
                    tapesim_model::Bytes(sys.library.tape.capacity.get() / 2),
                    sys.library.tape.capacity
                )
        ),
    );
    row(
        "Number of tapes per library",
        format!("{}", sys.library.tapes),
    );
    row("Tape capacity", format!("{}", sys.library.tape.capacity));
    row("Tape drives per library", format!("{}", sys.library.drives));
    row("Number of tape libraries", format!("{}", sys.libraries));
    t
}

/// Writes the table to `<dir>/table1.md` and returns the report. The
/// table echoes constants, so `settings` are unused.
pub fn save(_settings: &ExperimentSettings, dir: &Path) -> std::io::Result<String> {
    let report = format!(
        "## table1 — Tape drive/library specifications\n\n{}",
        run().to_markdown()
    );
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("table1.md"), &report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echoes_every_table1_constant() {
        let md = run().to_markdown();
        for needle in [
            "7.6s",
            "19s",
            "80.0 MB/s",
            "98/49s",
            "80",
            "400.00 GB",
            "8",
            "3",
        ] {
            assert!(md.contains(needle), "missing {needle} in:\n{md}");
        }
    }
}
