//! The fault-injection contract: corruptions are accounted, corrected,
//! or surfaced as typed errors — **never silent**.
//!
//! This suite drives the whole serving grid — exact / BFP / RNS-BFP
//! arithmetic wrapped in [`FaultyEngine`], plus the RRNS-protected
//! engine — through [`ModelServer`] in both batch modes and on both a
//! dense and a tensor-sharded placement, under a deterministic seeded
//! [`FaultInjector`]:
//!
//! - **Rate zero** is free: every response is bit-identical to the lone
//!   eager forward and the injector consumes *zero* PRNG draws.
//! - **Rate > 0, unprotected**: any response that deviates from the
//!   clean reference carries `faults.injected > 0` in its
//!   [`RequestStats`] — corruption may pass through, but it is always
//!   visible in the accounting.
//! - **Rate > 0, protected**: every `Ok` response is bit-identical to
//!   the clean reference (the corruption was corrected), and every
//!   failure is the typed [`ServeError::Uncorrectable`] — no third
//!   outcome exists.
//! - **Aborted stacked flushes count**: a stacked run refused as
//!   uncorrectable is an execution too — the server's fault totals equal
//!   the injector's delta even when stacked runs abort into per-item
//!   re-runs.
//! - **Threaded protection**: the protected engine under a 2-worker
//!   [`ParallelGemm`] with narrow column tiles keeps both promises, and
//!   the per-request fault accounting adds up to exactly what the
//!   shared injector saw.

use mirage::models::small::small_mlp;
use mirage::nn::{Engines, Sequential};
use mirage::tensor::engines::ExactEngine;
use mirage::tensor::{ParallelGemm, Tensor, TileConfig};
use mirage::{
    BatchMode, FaultConfig, FaultCounts, FaultInjector, FaultyEngine, Mirage, ModelServer,
    RequestStats, ServeError, ServerConfig, ShardPlan, ShardSpec,
};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// The redundant moduli used throughout: the two smallest primes above
/// the paper's special set `{31, 32, 33}`.
const REDUNDANT: [u64; 2] = [37, 41];

/// The unprotected arithmetic paths of the grid.
const UNPROTECTED: [&str; 3] = ["fp32", "bfp", "rns-bfp"];

/// An engine stack whose GEMM outputs flow through `injector`.
fn faulty_stack(mirage: &Mirage, name: &str, injector: &Arc<FaultInjector>) -> Engines {
    match name {
        "fp32" => Engines::uniform(FaultyEngine::new(ExactEngine, Arc::clone(injector))),
        "bfp" => Engines::uniform(FaultyEngine::new(
            mirage.gemm_engine(),
            Arc::clone(injector),
        )),
        "rns-bfp" => Engines::uniform(FaultyEngine::new(
            mirage.rns_gemm_engine().expect("paper moduli"),
            Arc::clone(injector),
        )),
        "rns-bfp-protected" => Engines::uniform(
            mirage
                .protected_rns_gemm_engine(&REDUNDANT)
                .expect("redundant moduli")
                .with_injector(Arc::clone(injector)),
        ),
        other => unreachable!("unknown stack {other}"),
    }
}

/// The matching clean stack — same arithmetic, no injector — used to
/// compute the eager per-request ground truth.
fn clean_stack(mirage: &Mirage, name: &str) -> Engines {
    match name {
        "fp32" => Engines::uniform(ExactEngine),
        "bfp" => Engines::uniform(mirage.gemm_engine()),
        "rns-bfp" => Engines::uniform(mirage.rns_gemm_engine().expect("paper moduli")),
        "rns-bfp-protected" => Engines::uniform(
            mirage
                .protected_rns_gemm_engine(&REDUNDANT)
                .expect("redundant moduli"),
        ),
        other => unreachable!("unknown stack {other}"),
    }
}

/// A faulty compiled model, its tensor-sharded re-placement, and the
/// clean eager expectations every served response is judged against.
struct Fixture {
    dense: Arc<mirage::CompiledNetwork>,
    sharded: Arc<mirage::CompiledNetwork>,
    pool: Vec<(Tensor, Tensor)>,
}

fn fixture(faulty: &Engines, clean: &Engines, seed: u64) -> Fixture {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut net: Sequential = small_mlp(32, 16, 4, &mut rng);
    let dense = net.compile(faulty).expect("mlp compiles");
    let sharded = Arc::new(
        ShardPlan::new(&dense, &ShardSpec::tensor(2))
            .expect("placement is valid")
            .into_network(),
    );
    let pool: Vec<(Tensor, Tensor)> = (0..12)
        .map(|_| {
            let x = Tensor::randn(&[1, 32], 1.0, &mut rng);
            let y = net.forward(&x, clean).expect("clean eager forward");
            (x, y)
        })
        .collect();
    Fixture {
        dense: Arc::new(dense),
        sharded,
        pool,
    }
}

fn server_config(mode: BatchMode) -> ServerConfig {
    ServerConfig::default()
        .with_max_batch(8)
        .with_max_delay(Duration::from_micros(200))
        .with_batch_mode(mode)
}

/// Submits the whole pool concurrently (so flushes genuinely batch) and
/// returns each request's outcome alongside its expected clean output.
#[allow(clippy::type_complexity)]
fn serve_pool(
    server: &ModelServer,
    pool: &[(Tensor, Tensor)],
) -> Vec<(Result<(Tensor, RequestStats), ServeError>, Tensor)> {
    let pending: Vec<_> = pool
        .iter()
        .map(|(x, expected)| (server.submit(x.clone()).expect("admitted"), expected))
        .collect();
    pending
        .into_iter()
        .map(|(p, expected)| {
            let outcome = p.wait().map(|r| (r.output, r.stats));
            (outcome, expected.clone())
        })
        .collect()
}

#[test]
fn zero_rate_faults_are_bit_identical_and_draw_free_across_the_grid() {
    let mirage = Mirage::paper_default();
    for name in ["fp32", "bfp", "rns-bfp", "rns-bfp-protected"] {
        let injector = Arc::new(FaultInjector::new(FaultConfig::disabled(9000)));
        let fx = fixture(
            &faulty_stack(&mirage, name, &injector),
            &clean_stack(&mirage, name),
            9100,
        );
        for (placement, network) in [("dense", &fx.dense), ("tensor2", &fx.sharded)] {
            for mode in [BatchMode::PerItem, BatchMode::Stack] {
                let server =
                    ModelServer::new(Arc::clone(network), server_config(mode)).expect("starts");
                for (outcome, expected) in serve_pool(&server, &fx.pool) {
                    let (output, stats) = outcome.expect("zero-rate request served");
                    assert_eq!(
                        output.data(),
                        expected.data(),
                        "{name}/{placement}/{mode:?}: zero-rate serving must be \
                         bit-identical to the clean eager forward"
                    );
                    assert!(stats.faults.is_zero(), "{name}/{placement}/{mode:?}");
                }
                let stats = server.stats();
                assert_eq!(stats.failed, 0, "{name}/{placement}/{mode:?}");
                assert!(stats.faults.is_zero(), "{name}/{placement}/{mode:?}");
                server.join();
            }
        }
        assert_eq!(
            injector.draws(),
            0,
            "{name}: a disabled injector must consume no PRNG draws"
        );
    }
}

#[test]
fn unprotected_corruption_is_always_visible_in_the_accounting() {
    let mirage = Mirage::paper_default();
    for (gi, name) in UNPROTECTED.into_iter().enumerate() {
        for (placement, shard) in [("dense", false), ("tensor2", true)] {
            for mode in [BatchMode::PerItem, BatchMode::Stack] {
                let injector = Arc::new(FaultInjector::new(
                    FaultConfig::disabled(9200 + gi as u64).with_mantissa_flip_rate(0.1),
                ));
                let fx = fixture(
                    &faulty_stack(&mirage, name, &injector),
                    &clean_stack(&mirage, name),
                    9300,
                );
                let network = if shard { &fx.sharded } else { &fx.dense };
                let server =
                    ModelServer::new(Arc::clone(network), server_config(mode)).expect("starts");
                let mut corrupted = 0u32;
                for (outcome, expected) in serve_pool(&server, &fx.pool) {
                    // Unprotected engines never fail on corruption —
                    // they return the corrupted bits *and the count*.
                    let (output, stats) = outcome.expect("unprotected requests never error");
                    if output.data() != expected.data() {
                        corrupted += 1;
                        assert!(
                            stats.faults.injected > 0,
                            "{name}/{placement}/{mode:?}: a response deviated from the \
                             clean reference with no injected fault on record — \
                             SILENT corruption"
                        );
                    }
                    // Unprotected paths have no detector.
                    assert_eq!(stats.faults.detected, 0);
                    assert_eq!(stats.faults.uncorrectable, 0);
                }
                let stats = server.stats();
                assert_eq!(stats.failed, 0, "{name}/{placement}/{mode:?}");
                assert_eq!(stats.completed, fx.pool.len() as u64);
                assert!(
                    stats.faults.injected > 0,
                    "{name}/{placement}/{mode:?}: rate 0.1 over the pool must inject"
                );
                assert!(
                    corrupted > 0,
                    "{name}/{placement}/{mode:?}: injected faults must surface in outputs"
                );
                server.join();
            }
        }
    }
}

#[test]
fn protected_serving_corrects_or_refuses_but_never_lies() {
    let mirage = Mirage::paper_default();
    for (placement, shard) in [("dense", false), ("tensor2", true)] {
        for mode in [BatchMode::PerItem, BatchMode::Stack] {
            // Low rate: flips land mostly one-per-decode and must be
            // corrected back to the exact clean bits. Scan seeds so the
            // "at least one correction happened" assertion is not a
            // coin toss on a single stream.
            let mut corrected_total = 0u64;
            for seed in 0..4u64 {
                let injector = Arc::new(FaultInjector::new(
                    FaultConfig::disabled(9400 + seed).with_residue_flip_rate(0.004),
                ));
                let fx = fixture(
                    &faulty_stack(&mirage, "rns-bfp-protected", &injector),
                    &clean_stack(&mirage, "rns-bfp-protected"),
                    9500,
                );
                let network = if shard { &fx.sharded } else { &fx.dense };
                let server =
                    ModelServer::new(Arc::clone(network), server_config(mode)).expect("starts");
                let mut failed = 0u64;
                for (outcome, expected) in serve_pool(&server, &fx.pool) {
                    match outcome {
                        Ok((output, _)) => assert_eq!(
                            output.data(),
                            expected.data(),
                            "{placement}/{mode:?} seed {seed}: an Ok response under \
                             protection must be bit-identical — correction is exact"
                        ),
                        Err(ServeError::Uncorrectable { .. }) => failed += 1,
                        Err(other) => {
                            panic!("{placement}/{mode:?}: unexpected error {other:?}")
                        }
                    }
                }
                let stats = server.stats();
                assert_eq!(stats.failed, failed, "{placement}/{mode:?} seed {seed}");
                assert_eq!(
                    stats.completed + stats.failed,
                    fx.pool.len() as u64,
                    "{placement}/{mode:?} seed {seed}"
                );
                corrected_total += stats.faults.corrected;
                server.join();
            }
            assert!(
                corrected_total > 0,
                "{placement}/{mode:?}: the low-rate sweep must correct at least once"
            );

            // Heavy rate: multi-channel corruption per decode must be
            // *refused* — the typed Uncorrectable error, never a wrong
            // answer delivered as Ok.
            let injector = Arc::new(FaultInjector::new(
                FaultConfig::disabled(9600).with_residue_flip_rate(0.25),
            ));
            let fx = fixture(
                &faulty_stack(&mirage, "rns-bfp-protected", &injector),
                &clean_stack(&mirage, "rns-bfp-protected"),
                9500,
            );
            let network = if shard { &fx.sharded } else { &fx.dense };
            let server =
                ModelServer::new(Arc::clone(network), server_config(mode)).expect("starts");
            let mut failed = 0u64;
            for (outcome, expected) in serve_pool(&server, &fx.pool) {
                match outcome {
                    Ok((output, _)) => assert_eq!(
                        output.data(),
                        expected.data(),
                        "{placement}/{mode:?}: heavy corruption may only pass if corrected"
                    ),
                    Err(ServeError::Uncorrectable {
                        detected,
                        corrected,
                    }) => {
                        failed += 1;
                        assert!(detected > corrected, "{placement}/{mode:?}");
                    }
                    Err(other) => panic!("{placement}/{mode:?}: unexpected error {other:?}"),
                }
            }
            assert!(
                failed > 0,
                "{placement}/{mode:?}: rate 0.25 must overwhelm single-error correction"
            );
            let stats = server.stats();
            assert_eq!(stats.failed, failed);
            assert!(stats.faults.uncorrectable > 0);

            // The server survives the storm: disarm the injector and
            // the very next request is served bit-identically.
            injector.set_residue_flip_rate(0.0);
            let (x, expected) = &fx.pool[0];
            let response = server.infer(x.clone()).expect("served after the storm");
            assert_eq!(
                response.output.data(),
                expected.data(),
                "{placement}/{mode:?}: disarmed server must return to clean bits"
            );
            server.join();
        }
    }
}

/// The injector's counts since `before`.
fn counts_since(injector: &FaultInjector, before: FaultCounts) -> FaultCounts {
    let after = injector.counts();
    FaultCounts {
        injected: after.injected - before.injected,
        detected: after.detected - before.detected,
        corrected: after.corrected - before.corrected,
        uncorrectable: after.uncorrectable - before.uncorrectable,
    }
}

#[test]
fn aborted_stacked_flushes_count_toward_server_totals() {
    // At these rates stacked runs of the protected MLP hit an
    // uncorrectable group and fall back to per-item re-runs; the
    // aborted run's own flips and detections must still reach
    // `ServerStats.faults`.
    let mirage = Mirage::paper_default();
    for (placement, shard) in [("dense", false), ("tensor2", true)] {
        for (seed, rate) in [(9900u64, 0.06), (9901, 0.25)] {
            let injector = Arc::new(FaultInjector::new(
                FaultConfig::disabled(seed).with_residue_flip_rate(rate),
            ));
            let fx = fixture(
                &faulty_stack(&mirage, "rns-bfp-protected", &injector),
                &clean_stack(&mirage, "rns-bfp-protected"),
                9500,
            );
            let network = if shard { &fx.sharded } else { &fx.dense };
            let before = injector.counts();
            let server = ModelServer::new(Arc::clone(network), server_config(BatchMode::Stack))
                .expect("starts");
            for (outcome, expected) in serve_pool(&server, &fx.pool) {
                match outcome {
                    Ok((output, _)) => assert_eq!(output.data(), expected.data()),
                    Err(ServeError::Uncorrectable { .. }) => {}
                    Err(other) => panic!("{placement} rate {rate}: unexpected error {other:?}"),
                }
            }
            let stats = server.stats();
            server.join();
            let delta = counts_since(&injector, before);
            assert!(
                stats.max_batch_seen > 1 && delta.uncorrectable > 0,
                "{placement} rate {rate}: the run must stack and hit uncorrectable groups"
            );
            assert_eq!(
                stats.faults, delta,
                "{placement} rate {rate}: server totals vs injector"
            );
        }
    }
}

#[test]
fn threaded_protected_serving_accounts_for_every_flip() {
    // A 256-wide layer at batch 1 is big enough for two workers, and
    // 32-column tiles give every worker several protected calls, each
    // planning the flips of its own tile.
    let mirage = Mirage::paper_default();
    let tiles = TileConfig {
        tile_m: 0,
        tile_n: 32,
        threads: 2,
    };
    let clean = clean_stack(&mirage, "rns-bfp-protected");
    let mut corrected_total = 0u64;
    for seed in 0..3u64 {
        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(9700 + seed).with_residue_flip_rate(1e-4),
        ));
        let parallel = ParallelGemm::new(
            mirage
                .protected_rns_gemm_engine(&REDUNDANT)
                .expect("redundant moduli")
                .with_injector(Arc::clone(&injector)),
            tiles,
        );
        let workers = parallel.planned_workers(1, 256, 256);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9800);
        let mut net: Sequential = small_mlp(256, 256, 10, &mut rng);
        let model = Arc::new(
            net.compile(&Engines::uniform(parallel))
                .expect("mlp compiles"),
        );
        let pool: Vec<(Tensor, Tensor)> = (0..12)
            .map(|_| {
                let x = Tensor::randn(&[1, 256], 1.0, &mut rng);
                let y = net.forward(&x, &clean).expect("clean eager forward");
                (x, y)
            })
            .collect();
        let before = injector.counts();
        let server = ModelServer::new(model, server_config(BatchMode::PerItem)).expect("starts");
        let mut summed = FaultCounts::ZERO;
        let mut failed = 0u64;
        for (outcome, expected) in serve_pool(&server, &pool) {
            match outcome {
                Ok((output, stats)) => {
                    assert_eq!(
                        output.data(),
                        expected.data(),
                        "seed {seed}, {workers} workers: an Ok response under protection \
                         must be bit-identical"
                    );
                    summed.accumulate(stats.faults);
                }
                // Every detection ends corrected or uncorrectable.
                Err(ServeError::Uncorrectable {
                    detected,
                    corrected,
                }) => {
                    failed += 1;
                    summed.accumulate(FaultCounts {
                        injected: 0,
                        detected,
                        corrected,
                        uncorrectable: detected - corrected,
                    });
                }
                Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
            }
        }
        let stats = server.stats();
        server.join();
        let delta = counts_since(&injector, before);
        assert_eq!(stats.failed, failed, "seed {seed}");
        assert_eq!(
            stats.faults, delta,
            "seed {seed}: server totals vs injector"
        );
        // A refused request reports no injected count of its own.
        if failed == 0 {
            assert_eq!(summed, delta, "seed {seed}: per-request sums vs injector");
        } else {
            assert!(summed.injected <= delta.injected, "seed {seed}");
            assert_eq!(
                (summed.detected, summed.corrected, summed.uncorrectable),
                (delta.detected, delta.corrected, delta.uncorrectable),
                "seed {seed}"
            );
        }
        corrected_total += delta.corrected;
    }
    assert!(
        corrected_total > 0,
        "the threaded sweep must correct at least one flip"
    );
}
