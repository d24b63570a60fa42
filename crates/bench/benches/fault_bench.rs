//! Fault-injected serving — the SLA sweep for RRNS protection.
//!
//! One `ModelServer` over the Transformer feed-forward proxy on the
//! RNS-BFP datapath is driven by concurrent clients while a seeded
//! [`FaultInjector`] corrupts the arithmetic, at a sweep of injected
//! error rates, in two arms:
//!
//! - **unprotected** — [`FaultyEngine`]`<RnsBfpEngine>`: faults land in
//!   the f32 GEMM outputs (per-value mantissa flips plus rare glitches)
//!   and are *delivered* — the serving layer counts them in the
//!   [`RequestStats`] fault accounting but cannot repair them.
//! - **protected** — [`ProtectedRnsBfpEngine`] with the same injector:
//!   faults land in the residue channels (the natural fault site of the
//!   RNS datapath, §VI-E) where the redundant residues detect them;
//!   single-channel errors are corrected back to the exact clean bits
//!   and anything beyond that is refused as a typed `Uncorrectable`.
//!
//! The two fault models sit at different points of the datapath (output
//! word vs residue word) but share the per-drawn-value rate, so the
//! sweep compares what each arm *delivers* under the same fault
//! pressure: the unprotected arm trades accuracy (clean-response
//! fraction falls, relative error rises), the protected arm trades
//! availability (a small refusal rate) while delivered answers stay
//! bit-identical to the clean reference — except for the classic RRNS
//! escape, where two flips land in the *same* reverse conversion and
//! masquerade as a correctable single-channel error. Such a
//! mis-correction is delivered, but it is never *silent*: it always
//! leaves a correction event in the fault accounting (asserted per
//! response) and the sweep reports the observed escape count per cell.
//!
//! At rate 0 both arms are asserted bit-identical to the clean
//! per-request forward with **zero** PRNG draws, and the protected /
//! unprotected p50 ratio is reported as the protection overhead.
//!
//! `--test` (smoke) mode runs a reduced sweep with all the asserts;
//! full runs write `BENCH_faults.json`.

use mirage_bench::{percentile_sorted, print_table, write_summary, JsonField};
use mirage_core::serve::{BatchMode, ModelServer, ServeError, ServerConfig};
use mirage_core::Mirage;
use mirage_models::serving::transformer_ff_proxy;
use mirage_nn::Engines;
use mirage_tensor::faults::{FaultConfig, FaultInjector, FaultyEngine};
use mirage_tensor::Tensor;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A serving-zoo shape small enough to sweep quickly: hidden width, FF
/// blocks, classifier classes.
const HIDDEN: usize = 96;
const BLOCKS: usize = 2;
const CLASSES: usize = 10;
/// Distinct single-row requests cycled by the clients.
const POOL: usize = 16;
/// The two smallest primes above the paper's special set, as the
/// redundant RRNS channels.
const REDUNDANT: [u64; 2] = [37, 41];

/// One (arm, rate) cell of the sweep.
struct CellResult {
    requests: usize,
    ok: u64,
    refused: u64,
    clean: u64,
    sum_rel_err: f64,
    wall: Duration,
    latencies_ms: Vec<f64>,
    injected: u64,
    detected: u64,
    corrected: u64,
    uncorrectable: u64,
    draws: u64,
}

/// Relative L2 error of `got` against `want` (0 when identical).
fn rel_l2(got: &[f32], want: &[f32]) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for (g, w) in got.iter().zip(want) {
        num += (f64::from(*g) - f64::from(*w)).powi(2);
        den += f64::from(*w).powi(2);
    }
    if den == 0.0 {
        if num == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (num / den).sqrt()
    }
}

/// Compiles the proxy model on `engines` and returns it with the
/// per-request clean expectations (run on `clean_engines`).
fn build(
    engines: &Engines,
    clean_engines: &Engines,
) -> (Arc<mirage_nn::CompiledNetwork>, Vec<(Tensor, Tensor)>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(9700);
    let mut net = transformer_ff_proxy(HIDDEN, BLOCKS, CLASSES, &mut rng);
    let model = Arc::new(net.compile(engines).expect("proxy model compiles"));
    let pool: Vec<(Tensor, Tensor)> = (0..POOL)
        .map(|_| {
            let x = Tensor::randn(&[1, HIDDEN], 1.0, &mut rng);
            let y = net.forward(&x, clean_engines).expect("clean eager forward");
            (x, y)
        })
        .collect();
    (model, pool)
}

/// Drives `threads` clients of `per_thread` requests each through one
/// server over the faulty `model`, asserting the arm's delivery
/// contract per response, and returns the cell's measurements.
fn drive(
    model: &Arc<mirage_nn::CompiledNetwork>,
    pool: &[(Tensor, Tensor)],
    injector: &Arc<FaultInjector>,
    protected: bool,
    threads: usize,
    per_thread: usize,
) -> CellResult {
    let config = ServerConfig::default()
        .with_max_batch(8)
        .with_max_delay(Duration::from_micros(500))
        .with_batch_mode(BatchMode::Stack)
        .with_queue_capacity(4096);
    let server = ModelServer::new(Arc::clone(model), config).expect("server starts");
    let t0 = Instant::now();
    let per_client: Vec<(Vec<f64>, u64, u64, u64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let server = &server;
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(per_thread);
                    let (mut ok, mut refused, mut clean) = (0u64, 0u64, 0u64);
                    let mut sum_rel_err = 0.0f64;
                    for round in 0..per_thread {
                        let (x, expected) = &pool[(t * 5 + round) % pool.len()];
                        let sent = Instant::now();
                        let outcome = server.infer(x.clone());
                        lat.push(sent.elapsed().as_secs_f64() * 1e3);
                        match outcome {
                            Ok(response) => {
                                ok += 1;
                                if response.output.data() == expected.data() {
                                    clean += 1;
                                } else if protected {
                                    // A multi-flip masquerade: delivered,
                                    // but never silent — the decode that
                                    // mis-corrected recorded a correction
                                    // event on this request's flush.
                                    assert!(
                                        response.stats.faults.corrected > 0,
                                        "thread {t} round {round}: protected deviation \
                                         with no correction event on record — \
                                         SILENT corruption"
                                    );
                                    sum_rel_err += rel_l2(response.output.data(), expected.data());
                                } else {
                                    assert!(
                                        response.stats.faults.injected > 0,
                                        "thread {t} round {round}: corrupted response \
                                         with no injected fault on record"
                                    );
                                    sum_rel_err += rel_l2(response.output.data(), expected.data());
                                }
                            }
                            Err(ServeError::Uncorrectable { .. }) => {
                                assert!(protected, "only RRNS protection refuses");
                                refused += 1;
                            }
                            Err(other) => panic!("unexpected serve error: {other:?}"),
                        }
                    }
                    (lat, ok, refused, clean, sum_rel_err)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = t0.elapsed();
    let stats = server.stats();
    server.join();

    let mut latencies_ms = Vec::new();
    let (mut ok, mut refused, mut clean) = (0u64, 0u64, 0u64);
    let mut sum_rel_err = 0.0f64;
    for (lat, o, r, c, e) in per_client {
        latencies_ms.extend(lat);
        ok += o;
        refused += r;
        clean += c;
        sum_rel_err += e;
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let requests = threads * per_thread;
    assert_eq!(stats.completed, ok, "completed/ok accounting mismatch");
    assert_eq!(stats.failed, refused, "failed/refused accounting mismatch");
    assert_eq!(ok + refused, requests as u64, "requests lost under faults");
    CellResult {
        requests,
        ok,
        refused,
        clean,
        sum_rel_err,
        wall,
        latencies_ms,
        injected: stats.faults.injected,
        detected: stats.faults.detected,
        corrected: stats.faults.corrected,
        uncorrectable: stats.faults.uncorrectable,
        draws: injector.draws(),
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let mirage = Mirage::paper_default();
    let rns = mirage.rns_gemm_engine().expect("paper moduli");
    let protected_engine = mirage
        .protected_rns_gemm_engine(&REDUNDANT)
        .expect("redundant moduli");
    let clean_unprotected = Engines::uniform(rns.clone());
    let clean_protected = Engines::uniform(protected_engine.clone());

    let rates: &[f64] = if smoke {
        &[0.0, 1e-2]
    } else {
        &[0.0, 1e-4, 1e-3, 1e-2]
    };
    let (threads, per_thread) = if smoke { (2, 6) } else { (4, 40) };

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut p50_clean_by_arm = [0.0f64; 2];
    for (ai, arm) in ["unprotected", "protected"].into_iter().enumerate() {
        for &rate in rates {
            // A fresh seeded injector per cell: the sweep is replayable
            // point by point.
            let config = if ai == 0 {
                FaultConfig::disabled(9800)
                    .with_mantissa_flip_rate(rate)
                    .with_request_glitch_rate(rate)
            } else {
                FaultConfig::disabled(9800).with_residue_flip_rate(rate)
            };
            let injector = Arc::new(FaultInjector::new(config));
            let (engines, clean) = if ai == 0 {
                (
                    Engines::uniform(FaultyEngine::new(rns.clone(), Arc::clone(&injector))),
                    &clean_unprotected,
                )
            } else {
                (
                    Engines::uniform(
                        protected_engine
                            .clone()
                            .with_injector(Arc::clone(&injector)),
                    ),
                    &clean_protected,
                )
            };
            let (model, pool) = build(&engines, clean);
            let r = drive(&model, &pool, &injector, ai == 1, threads, per_thread);

            if rate == 0.0 {
                assert_eq!(r.clean, r.requests as u64, "{arm}: rate 0 must be clean");
                assert_eq!(r.draws, 0, "{arm}: rate 0 must consume no PRNG draws");
                p50_clean_by_arm[ai] = percentile_sorted(&r.latencies_ms, 50.0);
            }
            let throughput = r.requests as f64 / r.wall.as_secs_f64();
            let p50 = percentile_sorted(&r.latencies_ms, 50.0);
            let p99 = percentile_sorted(&r.latencies_ms, 99.0);
            let clean_frac = r.clean as f64 / r.requests as f64;
            // For the protected arm this is the RRNS escape count
            // (multi-flip masquerades); for the unprotected arm it is
            // every corruption that reached a client.
            let corrupted_delivered = r.ok - r.clean;
            let mean_rel_err = if corrupted_delivered > 0 {
                r.sum_rel_err / corrupted_delivered as f64
            } else {
                0.0
            };
            let correction_rate = if r.detected > 0 {
                r.corrected as f64 / r.detected as f64
            } else {
                1.0
            };
            rows.push(vec![
                arm.into(),
                format!("{rate:.0e}"),
                format!("{}", r.requests),
                format!("{:.3}", clean_frac),
                format!("{corrupted_delivered}"),
                format!("{}", r.refused),
                format!("{mean_rel_err:.2e}"),
                format!("{}", r.injected),
                format!("{}/{}", r.corrected, r.detected),
                format!("{p50:.2}"),
                format!("{p99:.2}"),
            ]);
            json.push(vec![
                JsonField::Str("arm", arm.to_string()),
                JsonField::Num("error_rate", rate),
                JsonField::Num("requests", r.requests as f64),
                JsonField::Num("ok", r.ok as f64),
                JsonField::Num("refused", r.refused as f64),
                JsonField::Num("clean_fraction", clean_frac),
                JsonField::Num("delivered_corrupt", corrupted_delivered as f64),
                JsonField::Num("mean_rel_err_delivered", mean_rel_err),
                JsonField::Num("injected", r.injected as f64),
                JsonField::Num("detected", r.detected as f64),
                JsonField::Num("corrected", r.corrected as f64),
                JsonField::Num("uncorrectable", r.uncorrectable as f64),
                JsonField::Num("correction_rate", correction_rate),
                JsonField::Num("throughput_rps", throughput),
                JsonField::Num("p50_ms", p50),
                JsonField::Num("p99_ms", p99),
            ]);
        }
    }

    print_table(
        "Fault-injected serving — RRNS protection vs unprotected RNS-BFP",
        &[
            "arm",
            "rate",
            "requests",
            "clean frac",
            "delivered corrupt",
            "refused",
            "rel err",
            "injected",
            "corrected/detected",
            "p50 (ms)",
            "p99 (ms)",
        ],
        &rows,
    );
    let overhead = p50_clean_by_arm[1] / p50_clean_by_arm[0];
    println!("\nRRNS protection overhead at rate 0: p50 {:.2}x", overhead);
    println!("(5 residue channels instead of 3, plus the redundancy check");
    println!("per reverse conversion — the paper's §VI-E trade.)");
    println!("\nEvery deviation from the clean forward is asserted to leave a");
    println!("trace in the fault accounting — an injected count (unprotected)");
    println!("or a correction event (protected multi-flip escapes). Refusals");
    println!("are the typed Uncorrectable error — nothing is silent.");

    if smoke {
        println!("\n--test smoke mode: reduced sweep; JSON skipped.");
        return;
    }
    json.push(vec![
        JsonField::Str("arm", "overhead".to_string()),
        JsonField::Num("protection_overhead_p50", overhead),
        JsonField::Num("p50_unprotected_clean_ms", p50_clean_by_arm[0]),
        JsonField::Num("p50_protected_clean_ms", p50_clean_by_arm[1]),
    ]);
    write_summary(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_faults.json"),
        "fault_bench",
        &json,
    );
}
