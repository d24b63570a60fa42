//! # mirage-bench
//!
//! Shared experiment logic for the benchmark harness. Every table and
//! figure of the paper has a bench target (`crates/bench/benches/`)
//! that prints the reproduced rows by calling into this crate and then
//! times the underlying computation with Criterion.
//!
//! | Paper artifact | Bench target |
//! |----------------|--------------|
//! | Fig. 1(b) | `fig1_converter_energy` |
//! | Fig. 5(a) | `fig5a_accuracy_sweep` |
//! | Fig. 5(b) | `fig5b_energy_per_mac` |
//! | Fig. 6(a,b) | `fig6_utilization` |
//! | Fig. 7(a,b) | `fig7_dataflow_latency` |
//! | Fig. 8 | `fig8_iso_comparison` |
//! | Fig. 9 | `fig9_breakdown` |
//! | Table I | `table1_accuracy` |
//! | Table II | `table2_mac_units` |
//! | Table III | `table3_inference` |
//! | §VI-E study | `fige_variation` |
//! | Design-choice ablations | `ablations` |
//! | Parallel/prepared perf trajectory | `parallel_speedup` (`BENCH_parallel.json`) |
//! | Packed-kernel perf trajectory | `kernel_microbench` (`BENCH_kernels.json`) |
//! | Compiled-model serving trajectory | `serving_bench` (`BENCH_serving.json`) |

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unused_must_use)]

pub mod counting;
pub mod cpu;
pub mod experiments;
pub mod json;
pub mod paired;
pub mod stats;
pub mod table;

pub use counting::{CountingEngine, GemmCounters};
pub use cpu::CpuReport;
pub use json::{write_summary, JsonField};
pub use paired::{paired_speedup, paired_speedup_threaded, PairedSpeedup};
pub use stats::{percentile, percentile_sorted};
pub use table::print_table;
