//! The Mirage reproduction's benchmark: three workloads against the
//! public APIs of `mirage-core`, `mirage-nn` and `mirage-tensor`, every
//! output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --describe
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! instrumentation; with `--trace 1` it is the traced run, which reports
//! the per-layer metrics and writes its spans to `perfbench/traces/`.
//! The last line of standard output is the JSON result; the process
//! exits non-zero when any output check fails. `--describe` prints the
//! frozen workload configurations and this host's `CpuReport`.

mod loadgen;
mod probes;
mod report;
mod serving;
mod timed;
mod trace;
mod training;

use mirage_bench::CpuReport;
use mirage_core::serve::BatchMode;
use report::Outcome;
use serving::{Datapath, ServeSpec};
use std::process::ExitCode;

/// BFP serving: prepared GEMMs and stacked dynamic batches, no residue
/// arithmetic.
const SERVE_BFP: ServeSpec = ServeSpec {
    name: "serve-bfp-ff768",
    hidden: 768,
    datapath: Datapath::Bfp,
    batch_mode: BatchMode::Stack,
    rate_per_s: 120.0,
    setup_reps: 5,
};

/// RRNS-protected RNS-BFP serving under residue faults, per-item.
const SERVE_RRNS: ServeSpec = ServeSpec {
    name: "serve-rrns-faults",
    hidden: 96,
    datapath: Datapath::ProtectedRns,
    batch_mode: BatchMode::PerItem,
    rate_per_s: 75.0,
    setup_reps: 41,
};

/// End-to-end metrics every untraced run reports, in order.
const END_TO_END: &[&str] = &[
    "p50_ms",
    "slo_attain",
    "saturation_rps",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics every traced run reports, in order.
const PER_LAYER: &[&str] = &[
    "loadgen.lag_p99_ms",
    "serve.queue_wait_p50_ms",
    "serve.queue_wait_p99_ms",
    "serve.service_p50_ms",
    "serve.batch_mean",
    "serve.deadline_flush_frac",
    "plan.gemm_frac",
    "gemm.prepared_calls",
    "gemm.raw_calls",
    "gemm.us_per_call_p50",
    "gemm.gmac_per_s",
    "gemm.bytes_per_call",
    "parallel.workers",
    "parallel.busy_frac",
    "bfp.quantize_ns_per_elem",
    "rns.forward_ns_per_elem",
    "rns.reverse_ns_per_value",
    "faults.injected",
    "faults.detected",
    "faults.corrected",
    "faults.uncorrectable",
    "faults.correct_ratio",
    "rrns.correct_us_per_call",
    "train.forward_ms",
    "train.backward_ms",
    "train.optim_ms",
    "arch.modeled_ms",
    "trace.p50_ms",
    "trace.untraced_p50_ms",
    "trace.overhead_frac",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn run(args: &Args) -> Result<Outcome, Box<dyn std::error::Error>> {
    match args.workload.as_str() {
        "serve-bfp-ff768" => serving::run(&SERVE_BFP, args.seed, args.seconds, args.trace),
        "serve-rrns-faults" => serving::run(&SERVE_RRNS, args.seed, args.seconds, args.trace),
        training::NAME => training::run(args.seed, args.seconds, args.trace),
        other => Err(format!("unknown workload {other}").into()),
    }
}

/// The metric names a run must report.
fn expected(trace: bool) -> Vec<&'static str> {
    if trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    }
}

/// The frozen workload configurations and this host, as JSON.
fn describe() -> String {
    format!(
        "{{\"cpu\": {},\n \"workloads\": [\n  {},\n  {},\n  {}\n ]}}",
        CpuReport::detect().to_json_object(),
        SERVE_BFP.describe(),
        SERVE_RRNS.describe(),
        training::describe()
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--describe") {
        println!("{}", describe());
        return ExitCode::SUCCESS;
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
    if names != expected(args.trace) {
        eprintln!("perfbench: metric set mismatch: {names:?}");
        return ExitCode::FAILURE;
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} is not finite", m.name);
        return ExitCode::FAILURE;
    }
    for m in &outcome.metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for v in &outcome.violations {
        eprintln!("perfbench: correctness violation: {v}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
