//! SIMD == scalar bit-identity, property-tested at the engine level.
//!
//! The explicit SIMD kernels (`mirage_bfp::simd`, `mirage_rns::simd`)
//! promise results bit-identical to the scalar packed kernels — not
//! approximately equal, *element-exact* — across every shape they
//! accept and every shape they decline (where the scalar path runs on
//! both sides anyway). These properties drive the engines through
//! [`SimdPolicy`]: `Off` is the scalar oracle, `Auto` is the kernel
//! under test, so the comparison covers the dispatch layer and
//! the ragged-tail stitching as well as the lane arithmetic.
//!
//! Shapes deliberately include k not a multiple of any lane width,
//! group sizes g ∈ {8, 16, 32, 64}, mantissas at all three panel lane
//! widths (`i8` for bm ≤ 7, the SIMD kernel's operands; `i16`; `i32`),
//! and zero-dimension edges. The fused RNS-BFP pipeline is additionally
//! driven with operands scaled across 2^±100 and with a moduli set
//! whose residues are too wide for its `u8` panels.

use mirage_bfp::{BfpConfig, SimdPolicy};
use mirage_rns::convert::CrtConverter;
use mirage_rns::simd::Crt3Lanes;
use mirage_rns::ModuliSet;
use mirage_tensor::engines::{BfpEngine, Epilogue, RnsBfpEngine};
use mirage_tensor::{GemmEngine, Tensor};
use proptest::prelude::*;

/// Deterministic pseudo-random operands from one seed, any shape.
fn operands(m: usize, k: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
    let mut state = seed | 1;
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        ((state >> 40) as f32 / 8388608.0) - 1.0
    };
    let a = Tensor::from_vec((0..m * k).map(|_| next()).collect(), &[m, k]).unwrap();
    let b = Tensor::from_vec((0..k * n).map(|_| next()).collect(), &[k, n]).unwrap();
    (a, b)
}

/// Shape strategy: ragged everywhere — m and n straddle the 8/4-column
/// block widths, k straddles the 16-lane vectors and the group size.
fn shapes() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..20, 1usize..80, 1usize..20, any::<u64>())
}

/// Compares one engine's output across SIMD policies, bit-exactly, on
/// both the plain and the prepared path.
fn assert_policies_bit_identical<E, F>(make: F, a: &Tensor, b: &Tensor) -> Result<(), TestCaseError>
where
    E: GemmEngine,
    F: Fn(SimdPolicy) -> E,
{
    let scalar = make(SimdPolicy::Off);
    let reference = scalar.gemm(a, b).unwrap();
    let ref_bits: Vec<u32> = reference.data().iter().map(|v| v.to_bits()).collect();
    let policy = SimdPolicy::Auto;
    let engine = make(policy);
    let direct = engine.gemm(a, b).unwrap();
    let bits: Vec<u32> = direct.data().iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(&bits, &ref_bits, "direct path, {:?}", policy);

    let prepared = engine.prepare(b).unwrap();
    let mut out = Vec::new();
    engine.gemm_prepared_into(a, &prepared, &mut out).unwrap();
    let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(&bits, &ref_bits, "prepared path, {:?}", policy);

    // Fused-epilogue path: engines may fold bias/ReLU into the
    // kernel's output store (the BFP engine does); the result must
    // equal the scalar reference followed by a separate
    // `Epilogue::apply` pass, bit-exactly, for every tail combo.
    let (m, n) = (a.shape()[0], b.shape()[1]);
    let bias: Vec<f32> = (0..n)
        .map(|j| (j as f32) * 0.37 - 0.11 * n as f32)
        .collect();
    for (with_bias, with_relu) in [(true, false), (false, true), (true, true)] {
        let mut epilogue = Epilogue::none();
        if with_bias {
            epilogue = epilogue.with_bias(&bias);
        }
        if with_relu {
            epilogue = epilogue.with_relu();
        }
        let mut fused = Vec::new();
        engine
            .gemm_prepared_epilogue_into(a, &prepared, &epilogue, &mut fused)
            .unwrap();
        let mut post = reference.data().to_vec();
        epilogue.apply(&mut post, m, n).unwrap();
        let fused_bits: Vec<u32> = fused.iter().map(|v| v.to_bits()).collect();
        let post_bits: Vec<u32> = post.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(
            &fused_bits,
            &post_bits,
            "fused epilogue path, {:?}, bias={} relu={}",
            policy,
            with_bias,
            with_relu
        );
    }
    Ok(())
}

proptest! {
    /// BFP engine: the SIMD policy matches the scalar oracle
    /// bit-exactly across ragged shapes, all supported group sizes, and
    /// mantissa widths at every panel lane width (`i8` panels run the
    /// AVX2 kernel, wider ones the scalar kernel on both sides).
    #[test]
    fn bfp_simd_policies_are_bit_identical(
        (m, k, n, seed) in shapes(),
        g_pick in 0usize..4,
        bm in 2u32..=16,
    ) {
        let g = [8, 16, 32, 64][g_pick];
        let config = BfpConfig::new(bm, g).unwrap();
        let (a, b) = operands(m, k, n, seed);
        assert_policies_bit_identical(
            |policy| BfpEngine::new(config).with_simd_policy(policy),
            &a,
            &b,
        )?;
    }

    /// RNS-BFP engine: the three-channel residue dots match the scalar
    /// CRT path bit-exactly under every policy.
    #[test]
    fn rns_bfp_simd_policies_are_bit_identical(
        (m, k, n, seed) in shapes(),
        g_pick in 0usize..4,
        bm in 2u32..=8,
    ) {
        let g = [8, 16, 32, 64][g_pick];
        let config = BfpConfig::new(bm, g).unwrap();
        let (a, b) = operands(m, k, n, seed);
        assert_policies_bit_identical(
            |policy| {
                RnsBfpEngine::with_min_special_set(config)
                    .unwrap()
                    .with_simd_policy(policy)
            },
            &a,
            &b,
        )?;
    }
}

/// `operands` with `a` scaled by `2^sa` and `b` by `2^sb` — exact
/// power-of-two scalings, so the quantized mantissas are unchanged and
/// only the group exponents move. Scales across `2^±100` push the
/// recombined products into `f32` subnormals, overflow to infinity,
/// and exact rounding ties.
fn scaled_operands(m: usize, k: usize, n: usize, seed: u64, sa: i32, sb: i32) -> (Tensor, Tensor) {
    let (a, b) = operands(m, k, n, seed);
    let scale = |t: Tensor, e: i32| {
        let shape = t.shape().to_vec();
        let f = 2f32.powi(e);
        Tensor::from_vec(t.data().iter().map(|v| v * f).collect(), &shape).unwrap()
    };
    (scale(a, sa), scale(b, sb))
}

/// Asserts the RNS-BFP engine under every SIMD policy matches the
/// scalar oracle *and* the scalar BFP engine bit for bit.
fn assert_rns_matches_scalar_bfp(
    config: BfpConfig,
    moduli: Option<&[u64]>,
    a: &Tensor,
    b: &Tensor,
) -> Result<(), TestCaseError> {
    let make = |policy| {
        match moduli {
            Some(set) => RnsBfpEngine::new(config, ModuliSet::new(set).unwrap()).unwrap(),
            None => RnsBfpEngine::with_min_special_set(config).unwrap(),
        }
        .with_simd_policy(policy)
    };
    assert_policies_bit_identical(make, a, b)?;
    let bfp = BfpEngine::new(config).with_simd_policy(SimdPolicy::Off);
    let want: Vec<u32> = bfp
        .gemm(a, b)
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let got: Vec<u32> = make(SimdPolicy::Auto)
        .gemm(a, b)
        .unwrap()
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    prop_assert_eq!(got, want, "RNS-BFP (auto) vs scalar BFP");
    Ok(())
}

/// Shapes for the fused 8-column pipeline: n straddles the block width
/// (full blocks, ragged tails, and both), k spans one to several
/// groups with padding.
fn fused_shapes() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (1usize..6, 1usize..100, 5usize..20, any::<u64>())
}

proptest! {
    /// The fused AVX2 group pipeline (dots, integer CRT, recombination)
    /// at g ∈ {16, 32} with operands scaled across 2^±100: every
    /// policy equals the scalar RNS path and the scalar BFP engine,
    /// bit for bit, including subnormal, infinite and tied products.
    #[test]
    fn rns_bfp_fused_pipeline_is_exact_across_extreme_scales(
        (m, k, n, seed) in fused_shapes(),
        g_pick in 0usize..2,
        bm in 2u32..=8,
        sa in -100i32..=100,
        sb in -100i32..=100,
    ) {
        let config = BfpConfig::new(bm, [16, 32][g_pick]).unwrap();
        let (a, b) = scaled_operands(m, k, n, seed, sa, sb);
        assert_rns_matches_scalar_bfp(config, None, &a, &b)?;
    }

    /// A 3-modulus co-prime set with moduli above 128, so no `u8`
    /// residue panels: it gets no AVX2 lanes, and the AVX2 policy's
    /// scalar-CRT fallback stays bit-identical.
    #[test]
    fn rns_bfp_sets_failing_the_lane_bound_fall_back_exactly(
        (m, k, n, seed) in fused_shapes(),
        g_pick in 0usize..2,
        bm in 2u32..=8,
        sa in -100i32..=100,
    ) {
        const WIDE: [u64; 3] = [1021, 1023, 1024];
        let g = [16, 32][g_pick];
        let set = ModuliSet::new(&WIDE).unwrap();
        let crt = CrtConverter::new(&set);
        let constants = crt.small_constants().expect("M < 2^31");
        prop_assert!(Crt3Lanes::new(set.moduli(), &constants, g).is_none());
        let config = BfpConfig::new(bm, g).unwrap();
        let (a, b) = scaled_operands(m, k, n, seed, sa, 0);
        assert_rns_matches_scalar_bfp(config, Some(&WIDE), &a, &b)?;
    }
}

#[test]
fn zero_dimension_edges_are_bit_identical() {
    // m = 0, n = 0, and k = 0 each produce well-formed (empty or
    // all-zero) outputs identically under every policy.
    let config = BfpConfig::mirage_default();
    for (m, k, n) in [(0, 16, 8), (4, 16, 0), (4, 0, 8), (0, 0, 0)] {
        let (a, b) = operands(m, k, n, 7);
        let scalar = BfpEngine::new(config)
            .with_simd_policy(SimdPolicy::Off)
            .gemm(&a, &b)
            .unwrap();
        let out = BfpEngine::new(config).gemm(&a, &b).unwrap();
        assert_eq!(out.shape(), &[m, n], "{m}x{k}x{n}");
        assert_eq!(out.data(), scalar.data(), "{m}x{k}x{n}");
    }
}
