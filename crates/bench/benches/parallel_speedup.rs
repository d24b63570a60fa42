//! Serial vs row-banded parallel GEMM — and unprepared vs prepared
//! weights: the perf-trajectory bench for the multi-threaded execution
//! layer.
//!
//! The first table runs a 256×256×256 GEMM through the exact FP32 and
//! Mirage BFP engines, serially and on `ParallelGemm::auto`, plus the
//! single-request prepared BFP feed-forward shape 1×768×3072. Outputs
//! are asserted bit-identical, then both sides are timed as
//! order-balanced back-to-back pairs (`mirage_bench::paired_speedup`).
//! The driver plans its own worker count per call
//! (`ParallelGemm::planned_workers`): one row band per worker, clamped
//! to the host's cores, to the problem's work quanta and to its rows.
//! So on a ≥ 4-core host expect ≥ 2× at 256³, on a 1-core container
//! ≈ 1×, and at one row ≈ 1× everywhere (the single-row call takes the
//! serial path and spawns no thread).
//!
//! The second table measures **weight preparation**: `prepare` +
//! repeated `gemm_prepared` against re-quantizing B on every call.
//! Prepared results are asserted bit-identical to the unprepared path
//! for the BFP, RNS-BFP and exact engines; the speedup shows that
//! weight quantization no longer scales with call count or band count.
//!
//! Rows whose parallel side spawns workers are timed with
//! `paired_speedup_threaded`: the caller parks on the join, which the
//! clean-round filter of `paired_speedup` would count as a preemption
//! in every round. The `workers` column says which rows those are.
//!
//! `MIRAGE_THREADS` overrides the worker count.

use criterion::Criterion;
use mirage_bench::{
    paired_speedup, paired_speedup_threaded, print_table, write_summary, JsonField, PairedSpeedup,
};
use mirage_bfp::BfpConfig;
use mirage_tensor::engines::{BfpEngine, ExactEngine, RnsBfpEngine};
use mirage_tensor::parallel::ParallelGemm;
use mirage_tensor::{GemmEngine, Tensor};
use rand::SeedableRng;
use std::hint::black_box;

const M: usize = 256;
const K: usize = 256;
const N: usize = 256;

/// Repeated calls against one weight per prepared-table measurement.
const CALLS: usize = 8;

/// One measured row of either table.
struct Row {
    table: &'static str,
    engine: &'static str,
    workload: String,
    workers: usize,
    r: PairedSpeedup,
}

impl Row {
    fn cells(&self) -> Vec<String> {
        vec![
            self.engine.into(),
            self.workload.clone(),
            self.workers.to_string(),
            format!("{:.3}", self.r.baseline_s * 1e3),
            format!("{:.3}", self.r.candidate_s * 1e3),
            format!("{:.2}x", self.r.speedup),
            self.r.kept.to_string(),
        ]
    }

    fn json(&self) -> Vec<JsonField> {
        vec![
            JsonField::Str("table", self.table.to_string()),
            JsonField::Str("engine", self.engine.to_string()),
            JsonField::Str("workload", self.workload.clone()),
            JsonField::Num("workers", self.workers as f64),
            JsonField::Num("baseline_ms", self.r.baseline_s * 1e3),
            JsonField::Num("new_ms", self.r.candidate_s * 1e3),
            JsonField::Num("speedup", self.r.speedup),
            JsonField::Num("pairs_kept", self.r.kept as f64),
        ]
    }
}

/// Serial `engine` vs `ParallelGemm::auto(engine)` on `a · b`, both
/// through the prepared primitive when `prepared`, else through `gemm`;
/// asserts bit-identity, then times the pair.
fn parallel_row<E: GemmEngine + Clone>(
    engine: &'static str,
    serial: E,
    (a, b): (&Tensor, &Tensor),
    prepared: bool,
    rounds: usize,
) -> Row {
    let parallel = ParallelGemm::auto(serial.clone());
    let weight = serial.prepare(b).unwrap();
    let run = |e: &dyn GemmEngine| {
        if prepared {
            e.gemm_prepared(black_box(a), &weight).unwrap()
        } else {
            e.gemm(black_box(a), black_box(b)).unwrap()
        }
    };
    assert_eq!(
        run(&serial).data(),
        run(&parallel).data(),
        "{engine}: parallel outputs diverged"
    );
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    let reps = (M * K * N / (m * k * n)).clamp(1, 16);
    let workers = parallel.planned_workers(m, k, n);
    let r = paired(
        workers,
        rounds,
        reps,
        || {
            black_box(run(&parallel));
        },
        || {
            black_box(run(&serial));
        },
    );
    Row {
        table: "parallel",
        engine,
        workload: format!("{m}x{k}x{n}{}", if prepared { " prepared" } else { "" }),
        workers,
        r,
    }
}

/// The paired estimator for a pair whose threaded side runs `workers`
/// workers (see the module docs).
fn paired(
    workers: usize,
    rounds: usize,
    reps: usize,
    candidate: impl FnMut(),
    baseline: impl FnMut(),
) -> PairedSpeedup {
    if workers > 1 {
        paired_speedup_threaded(rounds, reps, candidate, baseline)
    } else {
        paired_speedup(rounds, reps, candidate, baseline)
    }
}

/// `CALLS` repeated unprepared GEMMs vs one `prepare` plus `CALLS`
/// prepared GEMMs for one engine (running `workers` workers at this
/// shape), asserting bit-identity first.
fn prepared_row<E: GemmEngine>(
    engine_label: &'static str,
    (engine, workers): (&E, usize),
    a: &Tensor,
    b: &Tensor,
    rounds: usize,
) -> Row {
    let prepared = engine.prepare(b).unwrap();
    assert_eq!(
        engine.gemm(a, b).unwrap().data(),
        engine.gemm_prepared(a, &prepared).unwrap().data(),
        "{engine_label}: prepared path diverged from unprepared"
    );
    let r = paired(
        workers,
        rounds,
        1,
        || {
            let p = engine.prepare(black_box(b)).unwrap(); // one-time cost
            for _ in 0..CALLS {
                black_box(engine.gemm_prepared(black_box(a), &p).unwrap());
            }
        },
        || {
            for _ in 0..CALLS {
                black_box(engine.gemm(black_box(a), black_box(b)).unwrap());
            }
        },
    );
    let (m, k, n) = (a.shape()[0], a.shape()[1], b.shape()[1]);
    Row {
        table: "prepared",
        engine: engine_label,
        workload: format!("{CALLS}x {m}x{k}x{n}"),
        workers,
        r,
    }
}

fn print_rows(title: &str, baseline: &str, candidate: &str, rows: &[Row]) {
    let cells: Vec<Vec<String>> = rows.iter().map(Row::cells).collect();
    print_table(
        title,
        &[
            "engine",
            "workload",
            "workers",
            baseline,
            candidate,
            "speedup",
            "pairs kept",
        ],
        &cells,
    );
}

fn main() {
    // `--test` runs the smoke mode CI uses: every bit-identity assert
    // still executes, timing collapses to two rounds, and neither the
    // JSON summary nor the criterion pass runs.
    let smoke = std::env::args().any(|a| a == "--test");
    let rounds = if smoke { 2 } else { 30 };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let a = Tensor::randn(&[M, K], 1.0, &mut rng);
    let b = Tensor::randn(&[K, N], 1.0, &mut rng);
    let serial_bfp = BfpEngine::new(BfpConfig::mirage_default());

    // A lone request against a transformer feed-forward weight: one row
    // gives one band, so the driver must stay on the serial path.
    let x_row = Tensor::randn(&[1, 768], 1.0, &mut rng);
    let w_ff = Tensor::randn(&[768, 3072], 0.05, &mut rng);
    let rows = [
        parallel_row("fp32", ExactEngine, (&a, &b), false, rounds),
        parallel_row("mirage-bfp", serial_bfp, (&a, &b), false, rounds),
        parallel_row("mirage-bfp", serial_bfp, (&x_row, &w_ff), true, rounds),
    ];
    print_rows(
        "Parallel GEMM speedup — serial vs ParallelGemm::auto",
        "serial (ms)",
        "parallel (ms)",
        &rows,
    );
    println!("\nExpected shape: ≥ 2x at 256³ on ≥ 4 physical cores, ≈ 1x on one");
    println!("core, and ≈ 1x for the single-row call on any host (no thread spawns).");
    println!(
        "Host parallelism here: {:?}.",
        std::thread::available_parallelism()
    );

    // ── Prepared weights: quantize B once, reuse everywhere ──────────
    //
    // Serving loops issue many GEMMs against the same static weight.
    // Unprepared, every call re-quantizes B; prepared, only the
    // activations touch the quantizer. Serving-shaped activations: a
    // handful of request rows against a big static weight, the regime
    // where B-side quantization dominates the unprepared cost (paper
    // Table III: inference at batch 1–128).
    let a_serve = Tensor::randn(&[8, K], 1.0, &mut rng);
    // The RNS path also pre-converts weight residues; it is slower per
    // MAC, so it runs a smaller shape.
    let rns = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
    let a_small = Tensor::randn(&[8, 64], 1.0, &mut rng);
    let b_small = Tensor::randn(&[64, 64], 1.0, &mut rng);
    let parallel_bfp = ParallelGemm::auto(serial_bfp);
    let serve_workers = parallel_bfp.planned_workers(8, K, N);
    let prep_rows = [
        prepared_row("fp32", (&ExactEngine, 1), &a_serve, &b, rounds),
        prepared_row("mirage-bfp", (&serial_bfp, 1), &a_serve, &b, rounds),
        prepared_row(
            "mirage-bfp (parallel)",
            (&parallel_bfp, serve_workers),
            &a_serve,
            &b,
            rounds,
        ),
        prepared_row("mirage-rns-bfp", (&rns, 1), &a_small, &b_small, rounds),
    ];
    print_rows(
        &format!("Prepared-weight speedup — {CALLS} calls per measurement"),
        "unprepared (ms)",
        "prepared (ms)",
        &prep_rows,
    );
    println!("\nPrepared results are asserted bit-identical; the gain is the");
    println!("B-side quantization (and RNS forward conversion) moving out of");
    println!("the per-call / per-band path into a one-time prepare.");

    if smoke {
        println!("\n--test smoke mode: all bit-identity asserts ran; timing/JSON skipped.");
        return;
    }
    let json: Vec<Vec<JsonField>> = rows.iter().chain(&prep_rows).map(Row::json).collect();
    write_summary(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json"),
        "parallel_speedup",
        &json,
    );

    let mut c = Criterion::default().sample_size(10).configure_from_args();
    let prepared_b = serial_bfp.prepare(&b).unwrap();
    c.bench_function("parallel/serial_bfp_256", |bch| {
        bch.iter(|| serial_bfp.gemm(black_box(&a), black_box(&b)).unwrap())
    });
    c.bench_function("parallel/banded_bfp_256", |bch| {
        bch.iter(|| parallel_bfp.gemm(black_box(&a), black_box(&b)).unwrap())
    });
    c.bench_function("prepared/serial_bfp_256", |bch| {
        bch.iter(|| {
            serial_bfp
                .gemm_prepared(black_box(&a), black_box(&prepared_b))
                .unwrap()
        })
    });
    c.bench_function("prepared/banded_bfp_256", |bch| {
        bch.iter(|| {
            parallel_bfp
                .gemm_prepared(black_box(&a), black_box(&prepared_b))
                .unwrap()
        })
    });
    c.final_summary();
}
