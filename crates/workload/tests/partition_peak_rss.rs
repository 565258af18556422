//! Peak memory of the §6 co-access partition.
//!
//! The one test sits in a binary of its own, so it runs in its own
//! process and the process's high-water mark (`VmHWM`) is this
//! clustering's. Filling the linkage maps row by row from the requests
//! into 12-byte entries peaks at ~117 MB (~115 MB before folds left dead
//! keys in the maps); building the CSR graph first and filling 16-byte
//! entries from it peaked at ~198 MB.
#![cfg(target_os = "linux")]

use tapesim_workload::WorkloadSpec;

/// Ceiling on the clustering process's peak resident set, in MB.
const PEAK_MB: f64 = 150.0;

/// `VmHWM` of this process in MB (1 MB = 1024 kB).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse().ok())
        .expect("a VmHWM line in kB");
    kb / 1024.0
}

#[test]
fn paper_partition_peaks_under_150_mb() {
    let w = WorkloadSpec::default().generate();
    assert_eq!(w.co_access_clusters().len(), 9120);
    let peak = peak_rss_mb();
    assert!(
        peak <= PEAK_MB,
        "clustering the §6 workload peaked at {peak:.1} MB, above {PEAK_MB} MB"
    );
}
