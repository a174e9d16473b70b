//! Benchmark-only crate: see the `benches/` directory.
//!
//! * `table1` — regenerates the paper's Table 1 (typechecking time,
//!   baseline vs P4BID);
//! * `scaling` — checking time vs program size (ablation);
//! * `lattice_size` — checking time vs lattice size (ablation);
//! * `interp` — interpreter and NI-harness throughput (substrate).
//!
//! The service paths (`batch`, `serve`, `topo --watch`, `fuzz`) are
//! measured end to end by the `perfbench/` package instead; its
//! recorded results are `BENCH_perfbench.json` in the repository root.

#![forbid(unsafe_code)]
