//! Engine benches, see `benches/`: `perf` (events/sec of every DES
//! engine, `BENCH_perf.json`) and `faults` (degraded-mode throughput,
//! `BENCH_faults.json`). Both are plain `main` programs.
