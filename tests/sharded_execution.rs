//! Shard-aware execution: the bit-identity grid and degenerate-shard
//! audit.
//!
//! A [`ShardPlan`] re-places a compiled model across K simulated
//! accelerator instances — tensor-parallel column shards sliced from
//! the one shared weight preparation, and/or a pipeline split with
//! micro-batching. Placement is a caching/layout transformation, never
//! a numerical one: for every engine whose arithmetic is tile-invariant
//! (exact / BFP / RNS-BFP), every K, and every pipeline shape, the
//! sharded plan must equal the unsharded compiled plan and the eager
//! forward **to the last bit**. Engines that are *not* tile-invariant
//! (the analog fixed-point path quantizes off whole-matrix scales) must
//! fall back to replication — still bit-identical, never silently
//! resliced. Degenerate placements (K = 1, K > columns, zero-width
//! shards, more stages than steps, empty batches) must return
//! well-formed results, not panics.

use mirage::models::serving::transformer_ff_proxy;
use mirage::models::small::{small_mlp, tiny_attention_classifier};
use mirage::nn::Engines;
use mirage::tensor::engines::ExactEngine;
use mirage::tensor::parallel::TileConfig;
use mirage::tensor::Tensor;
use mirage::{Mirage, ShardPlan, ShardSpec};
use rand::SeedableRng;

/// The tile-invariant engine stacks of the grid: exact / BFP / RNS-BFP,
/// serial and under the row-banded parallel driver (sharding composes
/// with intra-shard row bands).
fn shardable_stacks(mirage: &Mirage) -> Vec<(String, Engines)> {
    let tilings: [(&str, Option<TileConfig>); 2] = [
        ("serial", None),
        ("par-auto4", Some(TileConfig::auto().with_threads(4))),
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

/// Every placement shape of the grid: pure tensor-parallel K ∈ {1,2,4},
/// pure pipeline, and both composed.
fn placements() -> Vec<(String, ShardSpec)> {
    let mut specs: Vec<(String, ShardSpec)> = Vec::new();
    for k in [1usize, 2, 4] {
        specs.push((format!("tensor{k}"), ShardSpec::tensor(k)));
    }
    specs.push(("pipe2x2".into(), ShardSpec::pipeline(2, 2)));
    specs.push(("pipe3x1".into(), ShardSpec::pipeline(3, 1)));
    for k in [2usize, 4] {
        specs.push((
            format!("tensor{k}+pipe2x2"),
            ShardSpec::tensor(k).with_pipeline(2, 2),
        ));
    }
    specs
}

#[test]
fn mlp_shard_grid_is_bit_identical_across_engines_and_placements() {
    let mirage = Mirage::paper_default();
    for (ename, engines) in shardable_stacks(&mirage) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8001);
        let mut net = small_mlp(32, 16, 4, &mut rng);
        let compiled = net.compile(&engines).expect("mlp compiles");
        let x = Tensor::randn(&[7, 32], 1.0, &mut rng);
        let eager = net.forward(&x, &engines).unwrap();
        assert_eq!(compiled.run(&x).unwrap().data(), eager.data(), "{ename}");
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::randn(&[3, 32], 1.0, &mut rng))
            .collect();
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|x| net.forward(x, &engines).unwrap())
            .collect();
        for (pname, spec) in placements() {
            let plan = ShardPlan::new(&compiled, &spec).expect("placement is valid");
            assert_eq!(
                plan.run(&x).unwrap().data(),
                eager.data(),
                "{ename}/{pname} single"
            );
            for (i, (y, e)) in plan
                .run_batch(&inputs)
                .unwrap()
                .iter()
                .zip(&expected)
                .enumerate()
            {
                assert_eq!(y.data(), e.data(), "{ename}/{pname} batch item {i}");
            }
        }
    }
}

#[test]
fn transformer_proxy_shards_bit_identically_with_deep_pipeline() {
    let mirage = Mirage::paper_default();
    for (ename, engines) in shardable_stacks(&mirage) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8002);
        let mut net = transformer_ff_proxy(16, 2, 5, &mut rng);
        let compiled = net.compile(&engines).expect("ff proxy compiles");
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::randn(&[2, 16], 1.0, &mut rng))
            .collect();
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|x| net.forward(x, &engines).unwrap())
            .collect();
        // Deep pipeline (4 stages over 9 steps) on top of 4-way tensor
        // sharding, micro-batch 2 over 6 requests.
        let spec = ShardSpec::tensor(4).with_pipeline(4, 2);
        let plan = ShardPlan::new(&compiled, &spec).expect("placement is valid");
        assert!(plan.sharded_steps() > 0, "{ename}: dense layers shard");
        for (i, (y, e)) in plan
            .run_batch(&inputs)
            .unwrap()
            .iter()
            .zip(&expected)
            .enumerate()
        {
            assert_eq!(y.data(), e.data(), "{ename} item {i}");
        }
        // The pipeline genuinely overlaps micro-batches: with M = 3
        // chunks over S = 4 stages the GPipe schedule takes M + S − 1
        // rounds and keeps more than one chunk in flight.
        let network = plan.into_network();
        let (outs, trace) = network.run_batch_traced(&inputs).unwrap();
        assert_eq!(outs.len(), inputs.len());
        assert_eq!(trace.stages, 4, "{ename}");
        assert_eq!(trace.rounds, 3 + 4 - 1, "{ename}");
        assert!(trace.max_in_flight() > 1, "{ename}");
    }
}

#[test]
fn attention_heads_shard_bit_identically() {
    let mirage = Mirage::paper_default();
    for (ename, engines) in shardable_stacks(&mirage) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8003);
        let mut net = tiny_attention_classifier(4, 6, 8, 4, 3, &mut rng);
        let compiled = net.compile(&engines).expect("attention compiles");
        let x = Tensor::randn(&[5 * 4, 6], 1.0, &mut rng);
        let eager = net.forward(&x, &engines).unwrap();
        for k in [1usize, 2, 4] {
            let plan = ShardPlan::new(&compiled, &ShardSpec::tensor(k)).unwrap();
            // Attention shards as two stages (heads, then the output
            // projection) plus the dense layers around it.
            assert!(plan.sharded_steps() >= 2, "{ename} k={k}");
            assert_eq!(plan.run(&x).unwrap().data(), eager.data(), "{ename} k={k}");
        }
    }
}

#[test]
fn degenerate_placements_are_well_formed() {
    let mirage = Mirage::paper_default();
    for (ename, engines) in shardable_stacks(&mirage) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(8004);
        // Output widths 5 and 3: K = 16 leaves most shards zero-width.
        let mut net = small_mlp(6, 5, 3, &mut rng);
        let compiled = net.compile(&engines).expect("mlp compiles");
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        let eager = net.forward(&x, &engines).unwrap();

        // K = 1 is the identity placement.
        let plan = ShardPlan::new(&compiled, &ShardSpec::tensor(1)).unwrap();
        assert_eq!(plan.run(&x).unwrap().data(), eager.data(), "{ename} k=1");

        // K far beyond every layer's column count: the surplus shards
        // own zero columns and contribute empty tiles, not panics.
        let plan = ShardPlan::new(&compiled, &ShardSpec::tensor(16)).unwrap();
        assert_eq!(plan.run(&x).unwrap().data(), eager.data(), "{ename} k=16");

        // More pipeline stages than plan steps: the surplus stages are
        // empty pass-throughs.
        let plan = ShardPlan::new(&compiled, &ShardSpec::tensor(16).with_pipeline(9, 2)).unwrap();
        let inputs = vec![x.clone(), x.clone(), x.clone()];
        for y in plan.run_batch(&inputs).unwrap() {
            assert_eq!(y.data(), eager.data(), "{ename} 9 stages");
        }

        // Empty batches drain cleanly through the pipeline schedule.
        assert!(plan.run_batch(&[]).unwrap().is_empty(), "{ename} empty");

        // Zero rows is a well-formed (if pointless) request.
        let empty = Tensor::zeros(&[0, 6]);
        let y = plan.run(&empty).unwrap();
        assert_eq!(y.shape(), &[0, 3], "{ename} zero-row");
    }

    // Zero anywhere in the spec is a configuration error, not a panic.
    let mut rng = rand::rngs::StdRng::seed_from_u64(8005);
    let net = small_mlp(6, 5, 3, &mut rng);
    let engines = Engines::uniform(ExactEngine);
    let compiled = net.compile(&engines).unwrap();
    for bad in [
        ShardSpec::tensor(0),
        ShardSpec::pipeline(0, 1),
        ShardSpec::pipeline(1, 0),
    ] {
        assert!(ShardPlan::new(&compiled, &bad).is_err());
    }
}

#[test]
fn non_tile_invariant_engines_replicate_instead_of_slicing() {
    // The analog fixed-point engine derives its DAC scales from
    // whole-matrix maxima, so column slices would change its
    // quantization grid. The shard layer must refuse to slice it —
    // every step replicates — and the plan stays bit-identical to the
    // unsharded path. (The simulated photonic engine, by contrast, IS
    // tile-invariant and shards; the grid above covers it implicitly
    // through the RNS-BFP arithmetic it shares.)
    use mirage::tensor::engines::AnalogFxpEngine;
    let engines = Engines::uniform(AnalogFxpEngine::new(8, 10, 16));
    let mut rng = rand::rngs::StdRng::seed_from_u64(8006);
    let mut net = small_mlp(16, 8, 4, &mut rng);
    let compiled = net.compile(&engines).expect("analog mlp compiles");
    let x = Tensor::randn(&[5, 16], 1.0, &mut rng);
    let eager = net.forward(&x, &engines).unwrap();
    let plan = ShardPlan::new(&compiled, &ShardSpec::tensor(4)).unwrap();
    assert_eq!(plan.sharded_steps(), 0, "analog steps must not slice");
    assert!(plan.replicated_steps() > 0);
    assert_eq!(plan.run(&x).unwrap().data(), eager.data());

    // The photonic engine advertises tile invariance, so it does shard
    // — and stays bit-exact when it does.
    let mirage = Mirage::paper_default();
    let engines = Engines::uniform(mirage.photonic_gemm_engine());
    let mut net = small_mlp(16, 8, 4, &mut rng);
    let compiled = net.compile(&engines).expect("photonic mlp compiles");
    let eager = net.forward(&x, &engines).unwrap();
    let plan = ShardPlan::new(&compiled, &ShardSpec::tensor(4)).unwrap();
    assert!(plan.sharded_steps() > 0, "photonic shards");
    assert_eq!(plan.run(&x).unwrap().data(), eager.data());
}

#[test]
fn sharded_plans_serve_through_the_accelerator_and_server_unchanged() {
    let mirage = Mirage::paper_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(8007);
    let mut net = small_mlp(32, 16, 4, &mut rng);
    let engines = mirage.training_engines();
    let spec = ShardSpec::tensor(3).with_pipeline(2, 2);
    let sharded = mirage
        .compile_sharded(&net, &spec)
        .expect("sharded compile");
    let x = Tensor::randn(&[7, 32], 1.0, &mut rng);
    let eager = net.forward(&x, &engines).unwrap();
    assert_eq!(sharded.run(&x).unwrap().data(), eager.data());

    // The online server routes through the sharded plan with no special
    // casing: a ShardPlan *is* a CompiledNetwork.
    let session = mirage.model_session();
    session
        .load_sharded("mlp", &net, &spec)
        .expect("session shards");
    let server = session
        .server(
            "mlp",
            mirage::ServerConfig {
                max_batch: 4,
                max_delay: std::time::Duration::from_millis(1),
                ..mirage::ServerConfig::default()
            },
        )
        .expect("server starts");
    let pending: Vec<_> = (0..8)
        .map(|_| server.submit(x.clone()).expect("submit"))
        .collect();
    for p in pending {
        let response = p.wait().expect("response");
        assert_eq!(response.output.data(), eager.data());
    }
    server.shutdown();
}
