//! Determinism regression: the tiled multi-threaded GEMM driver must be
//! **bit-identical** to serial execution for the deterministic engines
//! (exact FP32, BFP, RNS-BFP), across ragged shapes, tile geometries and
//! thread counts. This is the contract that lets training and the figure
//! benches run on the parallel path by default without perturbing any
//! paper-accuracy number.
//!
//! The prepared-weight path carries the same contract: `prepare` +
//! `gemm_prepared` must be bit-identical to plain `gemm` — serially and
//! under every tiling — and degenerate (zero-dimension) shapes must
//! produce well-formed empty/zero results through every path.

use mirage_bfp::{BfpBlock, BfpConfig};
use mirage_rns::convert::{CrtConverter, ReverseConverter};
use mirage_rns::residue;
use mirage_tensor::engines::{BfpEngine, ExactEngine, RnsBfpEngine};
use mirage_tensor::parallel::{ParallelGemm, TileConfig};
use mirage_tensor::{GemmEngine, Tensor};
use rand::SeedableRng;

fn pair(seed: u64, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (
        Tensor::randn(&[m, k], 1.0, &mut rng),
        Tensor::randn(&[k, n], 1.0, &mut rng),
    )
}

/// Shapes with ragged band/tile tails, all above the serial-fallback
/// threshold so the threaded path really executes.
const SHAPES: [(usize, usize, usize); 4] =
    [(48, 48, 48), (65, 33, 37), (40, 100, 23), (128, 17, 64)];

/// Tile geometries exercising row bands only, row+column tiles, and the
/// auto heuristic, at 2 and 4 workers.
fn configs() -> Vec<TileConfig> {
    let mut configs = Vec::new();
    for threads in [2, 4] {
        configs.push(TileConfig {
            tile_m: 8,
            tile_n: 0,
            threads,
        });
        configs.push(TileConfig {
            tile_m: 7,
            tile_n: 13,
            threads,
        });
        configs.push(TileConfig::auto().with_threads(threads));
    }
    configs
}

fn assert_parallel_matches_serial<E: GemmEngine + Clone>(engine: E, seed: u64) {
    for (m, k, n) in SHAPES {
        let (a, b) = pair(seed ^ (m as u64) << 8 ^ n as u64, m, k, n);
        let serial = engine.gemm(&a, &b).unwrap();
        for config in configs() {
            let parallel = ParallelGemm::new(engine.clone(), config)
                .gemm(&a, &b)
                .unwrap();
            assert_eq!(
                parallel.data(),
                serial.data(),
                "{} diverged on {m}x{k}x{n} with {config:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn exact_engine_parallel_is_bit_identical() {
    assert_parallel_matches_serial(ExactEngine, 1);
}

#[test]
fn bfp_engine_parallel_is_bit_identical() {
    assert_parallel_matches_serial(BfpEngine::new(BfpConfig::mirage_default()), 2);
}

#[test]
fn rns_bfp_engine_parallel_is_bit_identical() {
    let engine = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
    assert_parallel_matches_serial(engine, 3);
}

#[test]
fn parallel_runs_are_reproducible_across_invocations() {
    // Same inputs, same config, two independent scoped-thread fan-outs:
    // scheduling must not leak into results.
    let (a, b) = pair(4, 64, 64, 64);
    let engine = ParallelGemm::new(
        BfpEngine::new(BfpConfig::mirage_default()),
        TileConfig::auto().with_threads(4),
    );
    let first = engine.gemm(&a, &b).unwrap();
    let second = engine.gemm(&a, &b).unwrap();
    assert_eq!(first.data(), second.data());
}

/// The prepared-path analogue of `assert_parallel_matches_serial`: one
/// preparation reused across every tile geometry and thread count must
/// reproduce the serial unprepared result bit-exactly — serially, under
/// the threaded driver, and through the driver-level `prepare`.
fn assert_prepared_matches_unprepared<E: GemmEngine + Clone>(engine: E, seed: u64) {
    for (m, k, n) in SHAPES {
        let (a, b) = pair(seed ^ (m as u64) << 8 ^ n as u64, m, k, n);
        let serial = engine.gemm(&a, &b).unwrap();
        let prepared = engine.prepare(&b).unwrap();
        assert_eq!(
            engine.gemm_prepared(&a, &prepared).unwrap().data(),
            serial.data(),
            "{} serial prepared path diverged on {m}x{k}x{n}",
            engine.name()
        );
        for config in configs() {
            let driver = ParallelGemm::new(engine.clone(), config);
            assert_eq!(
                driver.gemm_prepared(&a, &prepared).unwrap().data(),
                serial.data(),
                "{} prepared diverged on {m}x{k}x{n} with {config:?}",
                engine.name()
            );
            // The driver's own prepare delegates to the engine's.
            let driver_prepared = driver.prepare(&b).unwrap();
            assert_eq!(
                driver.gemm_prepared(&a, &driver_prepared).unwrap().data(),
                serial.data(),
                "{} driver-prepared diverged on {m}x{k}x{n} with {config:?}",
                engine.name()
            );
        }
    }
}

#[test]
fn exact_engine_prepared_is_bit_identical() {
    assert_prepared_matches_unprepared(ExactEngine, 11);
}

#[test]
fn bfp_engine_prepared_is_bit_identical() {
    assert_prepared_matches_unprepared(BfpEngine::new(BfpConfig::mirage_default()), 12);
}

#[test]
fn rns_bfp_engine_prepared_is_bit_identical() {
    let engine = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
    assert_prepared_matches_unprepared(engine, 13);
}

/// Zero-dimension GEMMs must return well-formed empty (or all-zero)
/// results through the serial engines, the threaded driver, and the
/// prepared paths — never panic on empty bands or tiles.
fn assert_empty_shapes_are_well_formed<E: GemmEngine + Clone>(engine: E) {
    // (200, 0, 200) clears MIN_PARALLEL_WORK (k is clamped to 1 in the
    // work estimate), so the threaded fan-out itself sees k = 0.
    for (m, k, n) in [(0, 8, 4), (4, 0, 8), (8, 4, 0), (0, 0, 0), (200, 0, 200)] {
        let a = Tensor::zeros(&[m, k]);
        let b = Tensor::zeros(&[k, n]);
        let serial = engine.gemm(&a, &b).unwrap();
        assert_eq!(serial.shape(), &[m, n], "{} {m}x{k}x{n}", engine.name());
        assert!(
            serial.data().iter().all(|&v| v == 0.0),
            "{} {m}x{k}x{n} produced non-zero output from zero inputs",
            engine.name()
        );
        let prepared = engine.prepare(&b).unwrap();
        assert_eq!(
            engine.gemm_prepared(&a, &prepared).unwrap().data(),
            serial.data()
        );
        for config in [
            TileConfig::auto().with_threads(4),
            TileConfig {
                tile_m: 3,
                tile_n: 5,
                threads: 4,
            },
        ] {
            let driver = ParallelGemm::new(engine.clone(), config);
            assert_eq!(
                driver.gemm(&a, &b).unwrap().data(),
                serial.data(),
                "{} {m}x{k}x{n} {config:?}",
                engine.name()
            );
            assert_eq!(
                driver.gemm_prepared(&a, &prepared).unwrap().data(),
                serial.data()
            );
            // Batched: empty batch, and a batch of empty items.
            assert!(driver.gemm_batch(&[], &b).unwrap().is_empty());
            let batch = driver.gemm_batch(std::slice::from_ref(&a), &b).unwrap();
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0].shape(), &[m, n]);
        }
    }
}

#[test]
fn exact_engine_handles_empty_shapes() {
    assert_empty_shapes_are_well_formed(ExactEngine);
}

#[test]
fn bfp_engine_handles_empty_shapes() {
    assert_empty_shapes_are_well_formed(BfpEngine::new(BfpConfig::mirage_default()));
}

#[test]
fn rns_bfp_engine_handles_empty_shapes() {
    let engine = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
    assert_empty_shapes_are_well_formed(engine);
}

/// The legacy block-path BFP GEMM: the reference implementation the
/// packed flat kernels must reproduce bit-for-bit.
fn legacy_bfp_gemm(a: &Tensor, b: &Tensor, config: BfpConfig) -> Tensor {
    let (m, n) = (a.shape()[0], b.shape()[1]);
    let a_rows = BfpEngine::quantize_rows(a, config);
    let b_cols = BfpEngine::quantize_cols(b, config).unwrap();
    let mut out = vec![0.0f32; m * n];
    for (i, arow) in a_rows.iter().enumerate() {
        for (j, bcol) in b_cols.iter().enumerate() {
            let mut acc = 0.0f32;
            for (ga, gb) in arow.iter().zip(bcol) {
                acc += ga.dot(gb).unwrap().to_f32();
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// The legacy per-group RNS GEMM: `BfpBlock` chains forward-converted
/// group by group, validated CRT reverse conversion, `exp2`
/// recombination — the pre-packed implementation kept as the oracle.
fn legacy_rns_gemm(a: &Tensor, b: &Tensor, engine: &RnsBfpEngine) -> Tensor {
    let (m, n) = (a.shape()[0], b.shape()[1]);
    let moduli = engine.moduli().moduli();
    let converter = CrtConverter::new(engine.moduli());
    type Converted = Vec<Vec<(i32, Vec<Vec<u64>>)>>;
    let convert = |blocks: Vec<Vec<BfpBlock>>| -> Converted {
        blocks
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .map(|block| {
                        let wide = block.mantissas_i64();
                        (
                            block.scale_exp(),
                            moduli
                                .iter()
                                .map(|&md| residue::reduce_signed(&wide, md))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect()
    };
    let a_rows = convert(BfpEngine::quantize_rows(a, engine.config()));
    let b_cols = convert(BfpEngine::quantize_cols(b, engine.config()).unwrap());
    let mut out = vec![0.0f32; m * n];
    for (i, arow) in a_rows.iter().enumerate() {
        for (j, bcol) in b_cols.iter().enumerate() {
            let mut acc = 0.0f32;
            for ((ea, ga), (eb, gb)) in arow.iter().zip(bcol) {
                let residues: Vec<u64> = moduli
                    .iter()
                    .enumerate()
                    .map(|(c, &md)| residue::dot_product(&ga[c], &gb[c], md).unwrap())
                    .collect();
                let integer = converter.to_signed(&residues).unwrap() as f64;
                acc += (integer * ((ea + eb) as f64).exp2()) as f32;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// Packed == legacy across the full serving grid: every combination of
/// {serial, parallel} × {unprepared, prepared} × {single, batched}
/// must reproduce the legacy block-path result bit-exactly, on ragged
/// tails (`k % g != 0`) and zero-dimension shapes alike.
fn assert_packed_matches_legacy_everywhere<E: GemmEngine + Clone>(
    engine: E,
    legacy: impl Fn(&Tensor, &Tensor) -> Tensor,
    seed: u64,
) {
    // SHAPES has ragged band/tile tails; add explicit ragged-k (k % 16
    // != 0) and zero-dimension cases.
    let grid = SHAPES
        .iter()
        .copied()
        .chain([(7, 19, 9), (0, 16, 4), (4, 0, 8), (8, 4, 0)]);
    for (m, k, n) in grid {
        let (a, b) = pair(
            seed ^ (m as u64) << 16 ^ (k as u64) << 8 ^ n as u64,
            m,
            k,
            n,
        );
        let want = legacy(&a, &b);
        assert_eq!(
            engine.gemm(&a, &b).unwrap().data(),
            want.data(),
            "{} serial diverged from legacy on {m}x{k}x{n}",
            engine.name()
        );
        let prepared = engine.prepare(&b).unwrap();
        assert_eq!(
            engine.gemm_prepared(&a, &prepared).unwrap().data(),
            want.data(),
            "{} prepared diverged from legacy on {m}x{k}x{n}",
            engine.name()
        );
        for config in [
            TileConfig::auto().with_threads(4),
            TileConfig {
                tile_m: 7,
                tile_n: 13,
                threads: 4,
            },
        ] {
            let driver = ParallelGemm::new(engine.clone(), config);
            assert_eq!(
                driver.gemm(&a, &b).unwrap().data(),
                want.data(),
                "{} parallel diverged from legacy on {m}x{k}x{n} {config:?}",
                engine.name()
            );
            assert_eq!(
                driver.gemm_prepared(&a, &prepared).unwrap().data(),
                want.data(),
                "{} parallel+prepared diverged on {m}x{k}x{n} {config:?}",
                engine.name()
            );
            let batch = driver.gemm_batch(&[a.clone(), a.clone()], &b).unwrap();
            let batch_prepared = driver
                .gemm_batch_prepared(&[a.clone(), a.clone()], &prepared)
                .unwrap();
            for item in batch.iter().chain(&batch_prepared) {
                assert_eq!(
                    item.data(),
                    want.data(),
                    "{} batched diverged on {m}x{k}x{n} {config:?}",
                    engine.name()
                );
            }
        }
    }
}

#[test]
fn bfp_packed_kernels_match_legacy_blocks_everywhere() {
    let config = BfpConfig::mirage_default();
    assert_packed_matches_legacy_everywhere(
        BfpEngine::new(config),
        |a, b| legacy_bfp_gemm(a, b, config),
        21,
    );
}

#[test]
fn rns_bfp_packed_kernels_match_legacy_groups_everywhere() {
    let engine = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
    let oracle = engine.clone();
    assert_packed_matches_legacy_everywhere(engine, |a, b| legacy_rns_gemm(a, b, &oracle), 22);
}

#[test]
fn batched_prepared_path_is_bit_identical_per_item() {
    let engine = BfpEngine::new(BfpConfig::mirage_default());
    let parallel = ParallelGemm::new(engine, TileConfig::auto().with_threads(4));
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let b = Tensor::randn(&[48, 16], 1.0, &mut rng);
    let prepared = engine.prepare(&b).unwrap();
    let inputs: Vec<Tensor> = (0..8)
        .map(|_| Tensor::randn(&[12, 48], 1.0, &mut rng))
        .collect();
    // Two batches against one preparation: the cross-call reuse pattern.
    for _ in 0..2 {
        let batch = parallel.gemm_batch_prepared(&inputs, &prepared).unwrap();
        for (input, got) in inputs.iter().zip(&batch) {
            assert_eq!(got.data(), engine.gemm(input, &b).unwrap().data());
        }
    }
    assert!(parallel
        .gemm_batch_prepared(&[], &prepared)
        .unwrap()
        .is_empty());
}

#[test]
fn batched_path_is_bit_identical_per_item() {
    let engine = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
    let parallel = ParallelGemm::new(engine.clone(), TileConfig::auto().with_threads(4));
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let b = Tensor::randn(&[48, 16], 1.0, &mut rng);
    let inputs: Vec<Tensor> = (0..8)
        .map(|_| Tensor::randn(&[12, 48], 1.0, &mut rng))
        .collect();
    let batch = parallel.gemm_batch(&inputs, &b).unwrap();
    for (input, got) in inputs.iter().zip(&batch) {
        assert_eq!(got.data(), engine.gemm(input, &b).unwrap().data());
    }
}
