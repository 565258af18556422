//! One driver per paper artifact, and [`DRIVERS`], the table the `all`
//! binary runs them from.
//!
//! Every figure driver takes an [`ExperimentSettings`] base (so tests and
//! benchmarks can run shrunken instances via [`quick_settings`]) and
//! returns an [`tapesim_analysis::ExperimentResult`].

pub mod ext_ablation;
pub mod ext_faults;
pub mod ext_online;
pub mod ext_queue;
pub mod ext_replication;
pub mod ext_robots;
pub mod ext_scale;
pub mod ext_sched;
pub mod ext_seek;
pub mod ext_striping;
pub mod ext_tail;
pub mod ext_technology;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod table1;

use crate::harness::render_and_save;
use crate::settings::ExperimentSettings;
use std::path::Path;
use tapesim_model::{Bytes, SystemConfig};
use tapesim_workload::{ObjectSizeSpec, RequestSpec, Workload, WorkloadSpec};

/// A shrunken instance for tests, quick looks (`--quick`) and Criterion
/// benches: ~10× cheaper than the paper's instance with the same
/// qualitative behaviour.
///
/// What shrinks is the *request set* (the cost driver — co-access edges
/// grow with `requests × objects_per_request²`) and the sample count.
/// Object sizes and the object-to-mounted-capacity ratio stay paper-like:
/// the figures' shapes depend on the workload (here ≈52 TB) dwarfing the
/// `n×d` startup-mounted tapes (9.6 TB) and on objects being small
/// relative to a cartridge; a byte-shrunken instance would degenerate
/// into the all-mounted regime where no scheme ever exchanges a tape.
/// 150 requests keep the *requested* working set (≈16 TB) well above
/// mounted capacity, so tape switching — the object of study — occurs.
pub fn quick_settings() -> ExperimentSettings {
    ExperimentSettings {
        samples: 50,
        workload: WorkloadSpec {
            objects: 30_000,
            sizes: ObjectSizeSpec::default().calibrated(Bytes::mb(1704)),
            requests: RequestSpec {
                count: 150,
                min_objects: 60,
                max_objects: 90,
                count_shape: 1.0,
                alpha: 0.3,
            },
            seed: WorkloadSpec::default().seed,
        },
        ..ExperimentSettings::default()
    }
}

/// Cartridge cells per library needed to hold `workload` at 85% fill
/// across `libraries` libraries of `system`'s cartridges (plus slack).
/// Cell count has no performance effect beyond capacity — drives and
/// robots are per-library.
pub fn cells_needed(workload: &Workload, system: &SystemConfig, libraries: u16) -> u16 {
    let total = workload.total_bytes().get() as f64;
    let ct = system.library.tape.capacity.get() as f64;
    let cells = (total / (ct * 0.85)).ceil() as u32;
    (cells / libraries.max(1) as u32 + 8).min(u16::MAX as u32) as u16
}

/// Settings picked by the common `--quick` CLI flag.
pub fn settings_from_args() -> ExperimentSettings {
    if std::env::args().any(|a| a == "--quick") {
        quick_settings()
    } else {
        ExperimentSettings::default()
    }
}

/// Regenerates one artifact under a results directory and returns the
/// report printed for it.
pub type Driver = fn(&ExperimentSettings, &Path) -> std::io::Result<String>;

/// The [`DRIVERS`] entry of figure module `$m`: id `"$m"`, saving
/// `$m::run`'s result.
macro_rules! figure {
    ($m:ident) => {
        (stringify!($m), |s, dir| render_and_save(&$m::run(s), dir))
    };
}

/// Every artifact by id, in the order `all` regenerates them: Table 1,
/// Figures 5–9, then the extensions.
pub const DRIVERS: [(&str, Driver); 18] = [
    ("table1", table1::save),
    figure!(fig5),
    figure!(fig6),
    figure!(fig7),
    figure!(fig8),
    figure!(fig9),
    figure!(ext_technology),
    figure!(ext_scale),
    figure!(ext_ablation),
    figure!(ext_striping),
    figure!(ext_online),
    figure!(ext_queue),
    figure!(ext_sched),
    figure!(ext_seek),
    figure!(ext_robots),
    figure!(ext_tail),
    figure!(ext_replication),
    figure!(ext_faults),
];

/// The drivers `ids` name, in the order given; every driver when `ids`
/// is empty. An unknown id is an error naming the valid ones.
pub fn select(ids: &[String]) -> Result<Vec<(&'static str, Driver)>, String> {
    if ids.is_empty() {
        return Ok(DRIVERS.to_vec());
    }
    ids.iter()
        .map(|id| {
            DRIVERS
                .into_iter()
                .find(|(known, _)| known == id)
                .ok_or_else(|| {
                    let valid: Vec<&str> = DRIVERS.iter().map(|d| d.0).collect();
                    format!("unknown figure id '{id}'; valid ids: {}", valid.join(", "))
                })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The table lists each driver module of this directory exactly once.
    #[test]
    fn driver_ids_are_unique_and_cover_every_module() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/figures");
        let mut modules: Vec<String> = std::fs::read_dir(dir)
            .expect("figures directory")
            .map(|e| e.expect("entry").path())
            .filter_map(|p| Some(p.file_stem()?.to_str()?.to_string()))
            .filter(|m| m != "mod")
            .collect();
        modules.sort();
        let mut ids: Vec<String> = DRIVERS.iter().map(|d| d.0.to_string()).collect();
        ids.sort();
        assert_eq!(ids, modules);
        ids.dedup();
        assert_eq!(ids.len(), DRIVERS.len(), "duplicate driver id");
    }

    #[test]
    fn select_keeps_the_given_order_and_rejects_unknown_ids() {
        let all = select(&[]).expect("every driver");
        assert_eq!(all.len(), DRIVERS.len());
        assert_eq!(all[0].0, "table1");

        let picked = select(&["fig9".to_string(), "fig5".to_string()]).expect("known ids");
        assert_eq!(
            picked.iter().map(|d| d.0).collect::<Vec<_>>(),
            ["fig9", "fig5"]
        );

        let err = select(&["fig6".to_string(), "fig10".to_string()]).expect_err("fig10 is unknown");
        assert!(
            err.starts_with("unknown figure id 'fig10'; valid ids: "),
            "{err}"
        );
        for (id, _) in DRIVERS {
            assert!(err.contains(id), "{err} does not name {id}");
        }
    }
}
