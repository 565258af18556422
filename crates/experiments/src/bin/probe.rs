//! Timing/shape probe: one full-scale evaluation per scheme with stage
//! timings. Useful when sizing sweeps for a machine.

use std::time::Instant;
use tapesim_experiments::evaluate;
use tapesim_placement::Scheme;

fn main() {
    let settings = tapesim_experiments::figures::settings_from_args();
    let system = settings.system();
    let t0 = Instant::now();
    let workload = settings.generate_workload();
    println!(
        "workload: {} objects, {} requests, avg request {:.1} GB, total {:.1} TB [{:.2?}]",
        workload.objects().len(),
        workload.requests().len(),
        workload.avg_request_bytes().as_gb(),
        workload.total_bytes().as_gb() / 1000.0,
        t0.elapsed()
    );
    for scheme in Scheme::ALL {
        let t = Instant::now();
        let run = evaluate(&settings, &system, &workload, scheme);
        println!(
            "{:<22} bandwidth {:>8.1} MB/s  response {:>8.1} s  switch {:>7.1} s  seek {:>6.1} s  transfer {:>8.1} s  switches/req {:>5.1}  [{:.2?}]",
            scheme.label(),
            run.avg_bandwidth_mbs(),
            run.avg_response(),
            run.avg_switch(),
            run.avg_seek(),
            run.avg_transfer(),
            run.avg_switches(),
            t.elapsed()
        );
    }
}
