//! Compiled-model serving: the bit-identity grid and concurrency
//! contract.
//!
//! `CompiledNetwork::run{,_batch}` must equal the eager
//! `Sequential::forward` **to the last bit** across every arithmetic
//! (exact / BFP / RNS-BFP / photonic), serial × parallel worker
//! counts, batch sizes {1, 7, 128}, and from any number of
//! concurrent threads sharing one compiled model — compilation is a
//! caching transformation, never a numerical one. A call-counting
//! engine additionally proves the cache claim itself: after compile,
//! serving runs zero weight-side quantization.

use mirage::models::small::{small_cnn, small_mlp, tiny_attention_classifier};
use mirage::nn::{Engines, NnError};
use mirage::tensor::engines::ExactEngine;
use mirage::tensor::parallel::TileConfig;
use mirage::tensor::{ActivationScratch, Tensor};
use mirage::Mirage;
use mirage_bench::CountingEngine;
use rand::SeedableRng;

/// Every (engine, driver) stack of the grid: the four arithmetic paths,
/// each serial and under the row-banded driver at 2 and 4 threads.
fn engine_stacks(mirage: &Mirage) -> Vec<(String, Engines)> {
    let tilings: [(&str, Option<TileConfig>); 3] = [
        ("serial", None),
        ("par-auto4", Some(TileConfig::auto().with_threads(4))),
        ("par-auto2", Some(TileConfig::auto().with_threads(2))),
    ];
    let mut stacks = Vec::new();
    for (tname, config) in tilings {
        let bases: Vec<(&str, Engines)> = vec![
            ("fp32", Engines::uniform(ExactEngine)),
            ("bfp", Engines::uniform(mirage.gemm_engine())),
            (
                "rns-bfp",
                Engines::uniform(mirage.rns_gemm_engine().expect("paper moduli")),
            ),
            ("photonic", Engines::uniform(mirage.photonic_gemm_engine())),
        ];
        for (ename, engines) in bases {
            let engines = match config {
                Some(c) => engines.parallelized(c),
                None => engines,
            };
            stacks.push((format!("{ename}/{tname}"), engines));
        }
    }
    stacks
}

#[test]
fn mlp_grid_is_bit_identical_across_engines_tiles_and_batches() {
    let mirage = Mirage::paper_default();
    for (name, engines) in engine_stacks(&mirage) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7001);
        let mut net = small_mlp(32, 16, 4, &mut rng);
        let compiled = net.compile(&engines).expect("mlp compiles");
        let mut scratch = ActivationScratch::new();
        for batch in [1usize, 7, 128] {
            let x = Tensor::randn(&[batch, 32], 1.0, &mut rng);
            let eager = net.forward(&x, &engines).unwrap();
            assert_eq!(
                compiled.run(&x).unwrap().data(),
                eager.data(),
                "{name} batch {batch}"
            );
            assert_eq!(
                compiled.run_with(&x, &mut scratch).unwrap().data(),
                eager.data(),
                "{name} scratch batch {batch}"
            );
        }
        let inputs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[5, 32], 1.0, &mut rng))
            .collect();
        for (i, (x, y)) in inputs
            .iter()
            .zip(compiled.run_batch(&inputs).unwrap())
            .enumerate()
        {
            assert_eq!(
                y.data(),
                net.forward(x, &engines).unwrap().data(),
                "{name} batch item {i}"
            );
        }
    }
}

#[test]
fn cnn_with_pooling_is_bit_identical_when_compiled() {
    let mirage = Mirage::paper_default();
    let stacks = [
        ("fp32", Engines::uniform(ExactEngine)),
        ("bfp", Engines::uniform(mirage.gemm_engine())),
        (
            "bfp-par",
            Engines::uniform(mirage.gemm_engine()).parallelized(TileConfig::auto().with_threads(4)),
        ),
    ];
    for (name, engines) in stacks {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7002);
        let mut net = small_cnn(8, 4, &mut rng);
        let compiled = net.compile(&engines).expect("cnn compiles");
        for batch in [1usize, 3] {
            let x = Tensor::randn(&[batch, 1, 8, 8], 1.0, &mut rng);
            let eager = net.forward(&x, &engines).unwrap();
            assert_eq!(
                compiled.run(&x).unwrap().data(),
                eager.data(),
                "{name} batch {batch}"
            );
        }
    }
}

#[test]
fn attention_classifier_is_bit_identical_when_compiled() {
    let mirage = Mirage::paper_default();
    let stacks = [
        ("fp32", Engines::uniform(ExactEngine)),
        ("bfp", Engines::uniform(mirage.gemm_engine())),
    ];
    for (name, engines) in stacks {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7003);
        let mut net = tiny_attention_classifier(4, 6, 8, 2, 3, &mut rng);
        let compiled = net.compile(&engines).expect("attention stack compiles");
        for batch in [1usize, 5] {
            let x = Tensor::randn(&[batch * 4, 6], 1.0, &mut rng);
            let eager = net.forward(&x, &engines).unwrap();
            assert_eq!(
                compiled.run(&x).unwrap().data(),
                eager.data(),
                "{name} batch {batch}"
            );
        }
    }
}

#[test]
fn concurrent_threads_serve_one_compiled_model_bit_identically() {
    let mirage = Mirage::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7004);
    let mut net = small_mlp(32, 16, 4, &mut rng);
    let engines = mirage.training_engines();
    let compiled = mirage.compile(&net).expect("mlp compiles");
    let requests: Vec<Tensor> = (0..4)
        .map(|_| Tensor::randn(&[7, 32], 1.0, &mut rng))
        .collect();
    let expected: Vec<Tensor> = requests
        .iter()
        .map(|x| net.forward(x, &engines).unwrap())
        .collect();
    // No mutex is held during a GEMM: every thread serves from &compiled
    // with only its own scratch as mutable state.
    std::thread::scope(|s| {
        for t in 0..4 {
            let (compiled, requests, expected) = (&compiled, &requests, &expected);
            s.spawn(move || {
                let mut scratch = ActivationScratch::new();
                for round in 0..8 {
                    let i = (t + round) % requests.len();
                    let y = compiled.run_with(&requests[i], &mut scratch).unwrap();
                    assert_eq!(y.data(), expected[i].data(), "thread {t} round {round}");
                }
            });
        }
    });
}

#[test]
fn compiled_serving_runs_zero_weight_side_quantization() {
    let mirage = Mirage::paper_default();
    let (engine, counters) = CountingEngine::new(mirage.gemm_engine());
    let engines = Engines::uniform(engine).parallelized(TileConfig::auto().with_threads(2));
    let mut rng = rand::rngs::StdRng::seed_from_u64(7005);
    let mut net = small_mlp(32, 16, 4, &mut rng);
    let compiled = net.compile(&engines).expect("mlp compiles");
    let frozen = counters.weight_side_work();
    assert!(frozen > 0, "compile should have prepared the weights");

    let x = Tensor::randn(&[7, 32], 1.0, &mut rng);
    let mut scratch = ActivationScratch::new();
    for _ in 0..10 {
        compiled.run_with(&x, &mut scratch).unwrap();
    }
    compiled
        .run_batch(&[x.clone(), x.clone(), x.clone()])
        .unwrap();
    assert_eq!(
        counters.weight_side_work(),
        frozen,
        "compiled serving must never re-run weight-side quantization"
    );
    assert!(counters.prepared_gemms() > 0);

    // Contrast: one eager forward pays weight-side work again.
    net.forward(&x, &engines).unwrap();
    assert!(
        counters.weight_side_work() > frozen,
        "eager forward should re-run weight-side work per request"
    );
}

#[test]
fn training_mode_layers_reject_compilation_with_named_layer() {
    let mirage = Mirage::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(7006);
    let mut net = mirage::nn::Sequential::new();
    net.push(mirage::nn::layers::Dense::new(8, 8, &mut rng));
    net.push(mirage::nn::layers::Dropout::new(0.3, 5));
    match mirage.compile(&net) {
        Err(NnError::NotCompilable { layer, reason }) => {
            assert_eq!(layer, "dropout");
            assert!(reason.contains("set_training(false)"), "{reason}");
        }
        other => panic!("expected NotCompilable, got {other:?}"),
    }
}
