//! Serial vs tiled-parallel GEMM — and unprepared vs prepared weights:
//! the perf-trajectory bench for the multi-threaded execution layer.
//!
//! Runs a 256×256×256 GEMM (and a batched-inference workload) through
//! the exact FP32 and Mirage BFP engines, serially and on
//! `ParallelGemm`, asserting bit-identical outputs and reporting the
//! wall-clock speedup. The bench uses the library's auto configuration:
//! `planned_workers` clamps the pool to the host's core count and to
//! the problem's work quanta, so on a ≥ 4-core host expect ≥ 2× and on
//! a 1-core container expect ≈ 1× — never the sub-1× oversubscription
//! regressions the pinned-4-worker version of this bench recorded.
//!
//! The second table measures **weight preparation**: `prepare` +
//! repeated `gemm_prepared` against re-quantizing B on every call. Prepared results are asserted
//! bit-identical to the unprepared path for the BFP, RNS-BFP and exact
//! engines; the speedup shows that weight quantization no longer scales
//! with call count, band count, or batch size.
//!
//! `MIRAGE_THREADS` overrides the worker count.

use criterion::Criterion;
use mirage_bench::{print_table, write_summary, JsonField};
use mirage_bfp::BfpConfig;
use mirage_core::Mirage;
use mirage_tensor::engines::{BfpEngine, ExactEngine, RnsBfpEngine};
use mirage_tensor::parallel::{ParallelGemm, TileConfig};
use mirage_tensor::{GemmEngine, Tensor};
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

const M: usize = 256;
const K: usize = 256;
const N: usize = 256;

/// Best-of-`reps` wall clock for one invocation of `f`.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Converts a printed table's rows into JSON fields for the
/// machine-readable summary (columns: engine, workload, baseline ms,
/// new ms, speedup, bit-identical).
fn rows_to_json(table: &str, rows: &[Vec<String>]) -> Vec<Vec<JsonField>> {
    rows.iter()
        .map(|row| {
            vec![
                JsonField::Str("table", table.to_string()),
                JsonField::Str("engine", row[0].clone()),
                JsonField::Str("workload", row[1].clone()),
                JsonField::Num("baseline_ms", row[2].parse().unwrap_or(f64::NAN)),
                JsonField::Num("new_ms", row[3].parse().unwrap_or(f64::NAN)),
                JsonField::Num(
                    "speedup",
                    row[4].trim_end_matches('x').parse().unwrap_or(f64::NAN),
                ),
            ]
        })
        .collect()
}

fn main() {
    // `--test` runs the smoke mode CI uses: every bit-identity assert
    // still executes, timing loops collapse to one rep, and neither the
    // JSON summary nor the criterion pass runs.
    let smoke = std::env::args().any(|a| a == "--test");
    let reps = |n: usize| if smoke { 1 } else { n };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2024);
    let a = Tensor::randn(&[M, K], 1.0, &mut rng);
    let b = Tensor::randn(&[K, N], 1.0, &mut rng);

    // Auto configuration: the driver plans its own worker count per
    // call (host-core and work-quantum clamped), so the bench measures
    // what a library user actually gets.
    let config = TileConfig::auto();
    let threads = ParallelGemm::new(ExactEngine, config).planned_workers(M, K, N);

    let mut rows = Vec::new();

    {
        let serial = ExactEngine;
        let parallel = ParallelGemm::new(ExactEngine, config);
        let c_serial = serial.gemm(&a, &b).unwrap();
        let c_parallel = parallel.gemm(&a, &b).unwrap();
        assert_eq!(c_serial.data(), c_parallel.data(), "fp32 outputs diverged");
        let t_serial = best_of(reps(5), || {
            black_box(serial.gemm(black_box(&a), black_box(&b)).unwrap());
        });
        let t_parallel = best_of(reps(5), || {
            black_box(parallel.gemm(black_box(&a), black_box(&b)).unwrap());
        });
        rows.push(vec![
            "fp32".into(),
            format!("{M}x{K}x{N}"),
            format!("{:.2}", ms(t_serial)),
            format!("{:.2}", ms(t_parallel)),
            format!("{:.2}x", t_serial.as_secs_f64() / t_parallel.as_secs_f64()),
            "yes".into(),
        ]);
    }

    let serial_bfp = BfpEngine::new(BfpConfig::mirage_default());
    {
        let serial = serial_bfp;
        let parallel = ParallelGemm::new(serial, config);
        let c_serial = serial.gemm(&a, &b).unwrap();
        let c_parallel = parallel.gemm(&a, &b).unwrap();
        assert_eq!(
            c_serial.data(),
            c_parallel.data(),
            "mirage-bfp outputs diverged"
        );
        let t_serial = best_of(reps(3), || {
            black_box(serial.gemm(black_box(&a), black_box(&b)).unwrap());
        });
        let t_parallel = best_of(reps(3), || {
            black_box(parallel.gemm(black_box(&a), black_box(&b)).unwrap());
        });
        rows.push(vec![
            "mirage-bfp".into(),
            format!("{M}x{K}x{N}"),
            format!("{:.2}", ms(t_serial)),
            format!("{:.2}", ms(t_parallel)),
            format!("{:.2}x", t_serial.as_secs_f64() / t_parallel.as_secs_f64()),
            "yes".into(),
        ]);
    }

    // Batched inference: 16 activation matrices against one weight,
    // serial loop vs one amortized thread scope.
    let mirage = Mirage::paper_default();
    let batch_engine = mirage.parallel_gemm_engine();
    let weight = Tensor::randn(&[K, N], 1.0, &mut rng);
    let batch: Vec<Tensor> = (0..16)
        .map(|_| Tensor::randn(&[64, K], 1.0, &mut rng))
        .collect();
    {
        let serial_engine = mirage.gemm_engine();
        let serial_batch: Vec<Tensor> = batch
            .iter()
            .map(|x| serial_engine.gemm(x, &weight).unwrap())
            .collect();
        let batched = batch_engine.gemm_batch(&batch, &weight).unwrap();
        for (s, p) in serial_batch.iter().zip(&batched) {
            assert_eq!(s.data(), p.data(), "batched inference diverged");
        }
        let t_serial = best_of(reps(3), || {
            for x in &batch {
                black_box(serial_engine.gemm(black_box(x), &weight).unwrap());
            }
        });
        let t_batched = best_of(reps(3), || {
            black_box(batch_engine.gemm_batch(black_box(&batch), &weight).unwrap());
        });
        rows.push(vec![
            "mirage-bfp (batch 16)".into(),
            format!("16x 64x{K}x{N}"),
            format!("{:.2}", ms(t_serial)),
            format!("{:.2}", ms(t_batched)),
            format!("{:.2}x", t_serial.as_secs_f64() / t_batched.as_secs_f64()),
            "yes".into(),
        ]);
    }

    print_table(
        &format!("Parallel GEMM speedup — {threads} worker threads"),
        &[
            "engine",
            "shape",
            "serial (ms)",
            "parallel (ms)",
            "speedup",
            "bit-identical",
        ],
        &rows,
    );
    println!("\nExpected shape: ≥ 2x on ≥ 4 physical cores (near-linear for fp32;");
    println!("the BFP engine is quantization-bound and scales slightly sublinearly).");
    println!(
        "Host parallelism here: {:?}.",
        std::thread::available_parallelism()
    );

    // ── Prepared weights: quantize B once, reuse everywhere ──────────
    //
    // Serving loops issue many GEMMs against the same static weight.
    // Unprepared, every call (and under the tiled driver, every row
    // band) re-quantizes B; prepared, only the activations touch the
    // quantizer. `CALLS` models repeated requests against one layer.
    const CALLS: usize = 8;
    let mut prep_rows = Vec::new();

    /// Times `CALLS` repeated unprepared vs prepared GEMMs for one
    /// engine, asserting bit-identity, and pushes a table row.
    fn prepared_row<E: GemmEngine>(
        rows: &mut Vec<Vec<String>>,
        label: &str,
        engine: &E,
        a: &Tensor,
        b: &Tensor,
        reps: usize,
    ) {
        let prepared = engine.prepare(b).unwrap();
        let unprepared_out = engine.gemm(a, b).unwrap();
        let prepared_out = engine.gemm_prepared(a, &prepared).unwrap();
        assert_eq!(
            unprepared_out.data(),
            prepared_out.data(),
            "{label}: prepared path diverged from unprepared"
        );
        let t_unprepared = best_of(reps, || {
            for _ in 0..CALLS {
                black_box(engine.gemm(black_box(a), black_box(b)).unwrap());
            }
        });
        let t_prepared = best_of(reps, || {
            let p = engine.prepare(black_box(b)).unwrap(); // one-time cost
            for _ in 0..CALLS {
                black_box(engine.gemm_prepared(black_box(a), &p).unwrap());
            }
        });
        let (m, k) = (a.shape()[0], a.shape()[1]);
        let n = b.shape()[1];
        rows.push(vec![
            label.into(),
            format!("{CALLS}x {m}x{k}x{n}"),
            format!("{:.2}", ms(t_unprepared)),
            format!("{:.2}", ms(t_prepared)),
            format!(
                "{:.2}x",
                t_unprepared.as_secs_f64() / t_prepared.as_secs_f64()
            ),
            "yes".into(),
        ]);
    }

    // Serving-shaped activations: a handful of request rows against a
    // big static weight, the regime where B-side quantization dominates
    // the unprepared cost (paper Table III: inference at batch 1–128).
    let a_serve = Tensor::randn(&[8, K], 1.0, &mut rng);
    prepared_row(&mut prep_rows, "fp32", &ExactEngine, &a_serve, &b, reps(3));
    prepared_row(
        &mut prep_rows,
        "mirage-bfp",
        &serial_bfp,
        &a_serve,
        &b,
        reps(3),
    );
    prepared_row(
        &mut prep_rows,
        "mirage-bfp (tiled)",
        &ParallelGemm::new(serial_bfp, config),
        &a_serve,
        &b,
        reps(3),
    );
    {
        // The RNS path also pre-converts weight residues; it is slower
        // per MAC, so measure a smaller shape.
        let rns = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
        let a_small = Tensor::randn(&[8, 64], 1.0, &mut rng);
        let b_small = Tensor::randn(&[64, 64], 1.0, &mut rng);
        prepared_row(
            &mut prep_rows,
            "mirage-rns-bfp",
            &rns,
            &a_small,
            &b_small,
            reps(2),
        );
    }
    print_table(
        &format!("Prepared-weight speedup — {CALLS} calls per measurement"),
        &[
            "engine",
            "workload",
            "unprepared (ms)",
            "prepared (ms)",
            "speedup",
            "bit-identical",
        ],
        &prep_rows,
    );
    println!("\nPrepared results are asserted bit-identical; the gain is the");
    println!("B-side quantization (and RNS forward conversion) moving out of");
    println!("the per-call / per-band / per-item path into a one-time prepare.");

    if smoke {
        println!("\n--test smoke mode: all bit-identity asserts ran; timing/JSON skipped.");
        return;
    }
    let mut json = rows_to_json("parallel", &rows);
    json.extend(rows_to_json("prepared", &prep_rows));
    write_summary(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json"),
        "parallel_speedup",
        &json,
    );

    let mut c = Criterion::default().sample_size(10).configure_from_args();
    let parallel_bfp = ParallelGemm::new(serial_bfp, config);
    let prepared_b = serial_bfp.prepare(&b).unwrap();
    c.bench_function("parallel/serial_bfp_256", |bch| {
        bch.iter(|| serial_bfp.gemm(black_box(&a), black_box(&b)).unwrap())
    });
    c.bench_function("parallel/tiled_bfp_256", |bch| {
        bch.iter(|| parallel_bfp.gemm(black_box(&a), black_box(&b)).unwrap())
    });
    c.bench_function("parallel/infer_batch_16", |bch| {
        bch.iter(|| batch_engine.gemm_batch(black_box(&batch), &weight).unwrap())
    });
    c.bench_function("prepared/serial_bfp_256", |bch| {
        bch.iter(|| {
            serial_bfp
                .gemm_prepared(black_box(&a), black_box(&prepared_b))
                .unwrap()
        })
    });
    c.bench_function("prepared/tiled_bfp_256", |bch| {
        bch.iter(|| {
            parallel_bfp
                .gemm_prepared(black_box(&a), black_box(&prepared_b))
                .unwrap()
        })
    });
    c.final_summary();
}
