//! RRNS-protected RNS-BFP GEMM: redundant residues end-to-end.
//!
//! The paper's fault-tolerance claim (§VI-E) is that carrying redundant
//! residue channels alongside the base set lets the accelerator detect
//! and *correct* analog residue errors, so accuracy keeps depending only
//! on `(bm, g)`. This engine is that claim on the serving path: every
//! group dot product is computed over the **full** base + redundant
//! moduli set, checked for consistency, majority-logic corrected when a
//! single channel is corrupted, and aborted with a typed error when
//! correction is impossible — never a panic, never a silently wrong
//! output.
//!
//! ## Protection lifecycle (per GEMM call)
//!
//! The engine owns no GEMM loop: it runs
//! [`RnsBfpEngine`](super::RnsBfpEngine)'s kernel with a monomorphized
//! RRNS parameter, over planes converted across the full base +
//! redundant set.
//!
//! 1. **Plan.** With an injector armed, the call's residue flips are
//!    planned once ([`FaultInjector::residue_fault_plan`]): one atomic
//!    reservation covering every (row, column, group, channel) word in
//!    canonical order, so the kernel meets the same faults at the same
//!    words whatever order it visits them in.
//! 2. **Checked lanes.** On AVX2, with every channel in `u8` residue
//!    panels, each (row, 8-column panel) block runs fused
//!    (`mirage_rns::simd::CheckedLanes`): the unprotected engine's base
//!    pipeline — channel dots with the CRT weights folded in, one
//!    reduction mod `M` — with the block's planned deltas added (as
//!    `δ·wᵢ` on a base channel, raw on a redundant channel's explicit
//!    dot), and a lane-wise check that the value sits inside the
//!    legitimate range `|v| <= ψ` *and* every redundant channel agrees
//!    with it ([`RedundantRns::is_consistent`]).
//! 3. **Scalar checked decode.** Each inconsistent lane's column — or
//!    every column, without AVX2 lanes — reruns with the same flips
//!    applied, group by group. A mismatch is **detected**; drop-one
//!    [`RedundantRns::correct`] runs majority-logic decoding. A located
//!    single-channel error is **corrected** exactly and the GEMM
//!    proceeds; anything else is **uncorrectable** and the whole call
//!    returns [`RnsError::Uncorrectable`](mirage_rns::RnsError::Uncorrectable)
//!    as a [`TensorError`].
//!
//! The check accepts a residue vector iff [`RedundantRns::detect`]
//! would call it legitimate (CRT uniqueness: a full-set vector agreeing
//! with some `|v| <= ψ` on every channel *is* that value's encoding), so
//! the hot loop never pays a full 5-channel CRT for clean data.
//!
//! ## Zero-fault bit-identity
//!
//! With no injector (or all rates zero), the check always passes, and
//! the value it passes through is produced by the *same* base-set
//! planes, group dots, trusted CRT and recombination as
//! [`RnsBfpEngine`](super::RnsBfpEngine) — so this engine is
//! bit-identical to the unprotected RNS path and therefore to
//! [`BfpEngine`](super::BfpEngine) (the paper's §IV-B equivalence), at
//! the cost of the redundant channels' dots. Tests pin all three ways.
//!
//! ## Accounting semantics
//!
//! `injected` counts individual channel flips, as the kernel applies
//! them; `detected`, `corrected`
//! and `uncorrectable` count *group results* (one group dot may absorb
//! several flips). Events are recorded on the armed [`FaultInjector`]'s
//! lifetime totals and attributed to the open
//! [`FaultScope`](crate::faults::FaultScope), which the serving front
//! end maps into per-request and server-wide stats.

use super::rns_bfp::{Checked, PackedRnsMatrix};
use super::{gemm_dims, Epilogue, GemmEngine, PreparedRhs, RnsBfpEngine};
use crate::faults::FaultInjector;
use crate::{Result, Tensor, TensorError};
use mirage_bfp::BfpConfig;
use mirage_rns::{ModuliSet, RedundantRns};
use std::sync::Arc;

/// Prepared B-side state: columns quantized and forward-converted over
/// the **full** (base + redundant) moduli set. Column tiles are windows
/// of the [`PreparedRhs`] holding it, as for the unprotected engine.
#[derive(Debug)]
struct PreparedProtectedCols {
    config: BfpConfig,
    full: ModuliSet,
    packed: PackedRnsMatrix,
}

/// The RRNS-protected Mirage numerical path: BFP mantissae → forward
/// conversion over base **and** redundant channels → per-modulus dots →
/// redundancy-checked reverse conversion with single-error correction →
/// FP32 accumulation. See the [module docs](self) for the protection
/// lifecycle and the bit-identity contract.
///
/// ```
/// use mirage_tensor::engines::{ProtectedRnsBfpEngine, RnsBfpEngine};
/// use mirage_tensor::{GemmEngine, Tensor};
/// use mirage_bfp::BfpConfig;
///
/// let cfg = BfpConfig::mirage_default();
/// let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg)?;
/// // Base {31, 32, 33} plus redundant primes {37, 41}.
/// assert_eq!(protected.rrns().base_len(), 3);
/// assert_eq!(protected.rrns().redundant_len(), 2);
///
/// // Clean execution is bit-identical to the unprotected RNS path.
/// let a = Tensor::full(&[2, 16], 0.75);
/// let b = Tensor::full(&[16, 2], -1.25);
/// let unprotected = RnsBfpEngine::with_min_special_set(cfg)?;
/// assert_eq!(
///     protected.gemm(&a, &b)?.data(),
///     unprotected.gemm(&a, &b)?.data(),
/// );
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ProtectedRnsBfpEngine {
    /// The base-set engine whose kernel runs the protected GEMM.
    base: RnsBfpEngine,
    rrns: RedundantRns,
    injector: Option<Arc<FaultInjector>>,
}

impl ProtectedRnsBfpEngine {
    /// Creates a protected engine from an explicit base set and
    /// redundant moduli.
    ///
    /// # Errors
    ///
    /// - [`TensorError::InvalidGeometry`] if the **base** set violates
    ///   Eq. 13 for the BFP configuration (redundant moduli do not
    ///   extend the legitimate range).
    /// - [`TensorError::Rns`] if base + redundant moduli are not
    ///   pairwise co-prime.
    pub fn new(config: BfpConfig, base: ModuliSet, redundant: &[u64]) -> Result<Self> {
        let base_values: Vec<u64> = base.moduli().iter().map(|m| m.value()).collect();
        let base = RnsBfpEngine::new(config, base)?;
        let rrns = RedundantRns::new(&base_values, redundant).map_err(TensorError::Rns)?;
        Ok(ProtectedRnsBfpEngine {
            base,
            rrns,
            injector: None,
        })
    }

    /// Creates a protected engine over the smallest special base set
    /// `{2^k-1, 2^k, 2^k+1}` satisfying Eq. 13 (the paper's
    /// moduli-selection rule), plus the two smallest primes above
    /// `2^k+1` as redundant channels — primes larger than every base
    /// modulus are co-prime with the whole set by construction, and two
    /// redundant channels are what single-error *correction* needs
    /// (§VI-E).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] when no `k <= 20`
    /// suffices.
    pub fn with_min_special_set(config: BfpConfig) -> Result<Self> {
        let k = ModuliSet::min_special_k(config.mantissa_bits(), config.group_size()).ok_or_else(
            || {
                TensorError::InvalidGeometry(format!(
                    "no special moduli set supports bm={}, g={}",
                    config.mantissa_bits(),
                    config.group_size()
                ))
            },
        )?;
        let base = ModuliSet::special_set(k).map_err(TensorError::Rns)?;
        let redundant = first_primes_above((1u64 << k) + 1, 2);
        Self::new(config, base, &redundant)
    }

    /// Arms a fault injector: every group dot's residue channels become
    /// corruptible, planned per call by
    /// [`FaultInjector::residue_fault_plan`]. Without an injector the
    /// engine still *checks* every group (the protection machinery is
    /// always on) but nothing ever fires.
    #[must_use]
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The BFP operating point.
    pub fn config(&self) -> BfpConfig {
        self.base.config()
    }

    /// The redundant residue system (base + redundant moduli).
    pub fn rrns(&self) -> &RedundantRns {
        &self.rrns
    }

    /// The armed fault injector, if any.
    pub fn injector(&self) -> Option<&Arc<FaultInjector>> {
        self.injector.as_ref()
    }

    /// Channel-count overhead of protection: full set size over base
    /// set size (e.g. `5/3 ≈ 1.67` for the paper's default point) — the
    /// hardware cost model of §VI-E, and roughly the extra integer work
    /// per group dot.
    pub fn channel_overhead(&self) -> f64 {
        self.rrns.full_set().len() as f64 / self.rrns.base_len() as f64
    }

    /// The shared kernel's protection parameter for one call.
    fn checked(&self) -> Checked<'_> {
        Checked {
            rrns: &self.rrns,
            injector: self.injector.as_deref(),
        }
    }
}

/// The `count` smallest primes strictly greater than `floor` (trial
/// division — redundant moduli are small).
fn first_primes_above(floor: u64, count: usize) -> Vec<u64> {
    let mut primes = Vec::with_capacity(count);
    let mut candidate = floor.saturating_add(1);
    while primes.len() < count {
        if is_prime(candidate) {
            primes.push(candidate);
        }
        candidate += 1;
    }
    primes
}

fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2u64;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

impl GemmEngine for ProtectedRnsBfpEngine {
    fn name(&self) -> &'static str {
        "mirage-rns-bfp-protected"
    }

    /// `true` for the clean path: same BFP grouping as
    /// [`BfpEngine`](super::BfpEngine), exact integer arithmetic per
    /// group, so tiles concatenate bit-identically and
    /// `DenseStep::shard` accepts protected plans.
    /// With an injector armed, *where* corruptions land depends on the
    /// partition (each call plans the words of its own tile) — but every
    /// corruption is still detected, corrected, or surfaced regardless
    /// of tiling, which is the invariant protection promises.
    fn tile_invariant(&self) -> bool {
        true
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (_m, _k, n) = gemm_dims(a, b)?;
        let cols = PackedRnsMatrix::pack_cols(b, self.config(), self.rrns.full_set())?;
        let mut out = Vec::new();
        let m = self
            .base
            .gemm_with_packed_into(a, &cols, 0, n, &mut out, &self.checked())?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Quantizes and forward-converts the columns of `B` once over the
    /// full base + redundant set: repeated inference pays neither the
    /// quantizer nor the forward converter for the weights, redundant
    /// channels included.
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        let packed = PackedRnsMatrix::pack_cols(b, self.config(), self.rrns.full_set())?;
        PreparedRhs::new(
            self.name(),
            b,
            Arc::new(PreparedProtectedCols {
                config: self.config(),
                full: self.rrns.full_set().clone(),
                packed,
            }),
        )
    }

    /// Reuses pre-converted weight planes: the protected kernel writes
    /// straight into the caller's buffer, and the epilogue runs only
    /// once every group has decoded (an uncorrectable group returns its
    /// typed error first). Preparations from other engines, other
    /// operating points or another RRNS full set are
    /// [`TensorError::ForeignPreparation`].
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let (_m, _k, n) = b.dims(a)?;
        let state = b.state_for(self.name(), |state: &PreparedProtectedCols| {
            state.config == self.config() && state.full == *self.rrns.full_set()
        })?;
        let m = self.base.gemm_with_packed_into(
            a,
            &state.packed,
            b.col_start(),
            n,
            out,
            &self.checked(),
        )?;
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::BfpEngine;
    use crate::engines::RnsBfpEngine;
    use crate::faults::{FaultConfig, FaultScope};
    use mirage_bfp::SimdPolicy;
    use mirage_rns::RnsError;
    use rand::SeedableRng;

    fn cfg() -> BfpConfig {
        BfpConfig::mirage_default()
    }

    fn operands(seed: u64, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let a = Tensor::randn(&[m, k], 1.0, &mut rng);
        let b = Tensor::randn(&[k, n], 1.0, &mut rng);
        (a, b)
    }

    #[test]
    fn default_redundant_moduli_are_the_two_primes_above_the_base() {
        let engine = ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let values: Vec<u64> = engine
            .rrns()
            .full_set()
            .moduli()
            .iter()
            .map(|m| m.value())
            .collect();
        assert_eq!(values, [31, 32, 33, 37, 41]);
        assert!((engine.channel_overhead() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn clean_path_is_bit_identical_to_unprotected_rns_and_bfp() {
        let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let unprotected = RnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let bfp = BfpEngine::new(cfg());
        for (seed, m, k, n) in [(50, 4, 24, 5), (51, 1, 16, 1), (52, 7, 40, 9)] {
            let (a, b) = operands(seed, m, k, n);
            let y = protected.gemm(&a, &b).unwrap();
            assert_eq!(y.data(), unprotected.gemm(&a, &b).unwrap().data());
            assert_eq!(y.data(), bfp.gemm(&a, &b).unwrap().data());
        }
    }

    #[test]
    fn clean_path_is_bit_identical_with_a_zero_rate_injector_armed() {
        let injector = Arc::new(FaultInjector::new(FaultConfig::disabled(9)));
        let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg())
            .unwrap()
            .with_injector(Arc::clone(&injector));
        let unprotected = RnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let (a, b) = operands(53, 5, 32, 6);
        assert_eq!(
            protected.gemm(&a, &b).unwrap().data(),
            unprotected.gemm(&a, &b).unwrap().data()
        );
        assert_eq!(injector.draws(), 0, "zero rates must consume no draws");
        assert!(injector.counts().is_zero());
    }

    #[test]
    fn prepared_paths_match_the_direct_path_bitwise() {
        let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let (a, b) = operands(54, 6, 48, 8);
        let direct = protected.gemm(&a, &b).unwrap();
        let prepared = protected.prepare(&b).unwrap();
        assert_eq!(
            protected.gemm_prepared(&a, &prepared).unwrap().data(),
            direct.data()
        );
        let mut out = Vec::new();
        assert_eq!(
            protected
                .gemm_prepared_into(&a, &prepared, &mut out)
                .unwrap(),
            (6, 8)
        );
        assert_eq!(out, direct.data());
        let mut fused = Vec::new();
        let bias = [0.5f32, -0.25, 1.0, 0.0, -2.0, 0.125, 0.75, -1.0];
        let epilogue = Epilogue::none().with_bias(&bias).with_relu();
        protected
            .gemm_prepared_epilogue_into(&a, &prepared, &epilogue, &mut fused)
            .unwrap();
        let mut expected = direct.data().to_vec();
        epilogue.apply(&mut expected, 6, 8).unwrap();
        assert_eq!(fused, expected);
    }

    #[test]
    fn column_windows_share_the_residue_planes() {
        crate::engines::prepared::check_column_windows(
            &ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap(),
        );
    }

    #[test]
    fn eq13_violations_are_rejected_for_the_base_set() {
        // {7, 8, 9} cannot hold a bm=4, g=16 dot product.
        let tiny = ModuliSet::special_set(3).unwrap();
        assert!(matches!(
            ProtectedRnsBfpEngine::new(cfg(), tiny, &[37, 41]),
            Err(TensorError::InvalidGeometry(_))
        ));
        // Non-co-prime redundant moduli are rejected by the RRNS.
        let base = ModuliSet::special_set(5).unwrap();
        assert!(ProtectedRnsBfpEngine::new(cfg(), base, &[62]).is_err());
    }

    #[test]
    fn injected_single_flips_are_corrected_back_to_the_clean_result() {
        let (a, b) = operands(56, 4, 32, 4);
        let clean = ProtectedRnsBfpEngine::with_min_special_set(cfg())
            .unwrap()
            .gemm(&a, &b)
            .unwrap();
        // A low per-channel rate makes two flips in one 5-channel group
        // unlikely; scan seeds for a run where every corrupted group had
        // exactly one bad channel and was therefore corrected exactly.
        let mut corrected_run_seen = false;
        for seed in 0..6u64 {
            let injector = Arc::new(FaultInjector::new(
                FaultConfig::disabled(seed).with_residue_flip_rate(0.01),
            ));
            let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg())
                .unwrap()
                .with_injector(Arc::clone(&injector));
            let scope = FaultScope::begin();
            let result = protected.gemm(&a, &b);
            let counts = scope.finish();
            assert_eq!(counts, injector.counts());
            match result {
                Ok(y) => {
                    assert_eq!(
                        y.data(),
                        clean.data(),
                        "corrected output must be bit-identical (seed {seed})"
                    );
                    assert_eq!(counts.uncorrectable, 0);
                    assert_eq!(counts.detected, counts.corrected);
                    if counts.injected > 0 {
                        assert!(counts.corrected > 0, "flips must be detected (seed {seed})");
                        corrected_run_seen = true;
                    }
                }
                Err(TensorError::Rns(RnsError::Uncorrectable)) => {
                    assert!(counts.uncorrectable > 0);
                }
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(
            corrected_run_seen,
            "at least one seed in 0..6 should inject and correct"
        );
    }

    /// The protection semantics before the fault plan and the lanes: a
    /// canonical-order (row, column, group, channel) loop drawing each
    /// flip from [`FaultInjector::corrupt_residue`] as it goes.
    fn per_word_stream_gemm(
        engine: &ProtectedRnsBfpEngine,
        injector: &FaultInjector,
        a: &Tensor,
        b: &Tensor,
    ) -> Result<Vec<f32>> {
        let full = engine.rrns.full_set();
        let a_rns = PackedRnsMatrix::pack_rows(a, cfg(), full).unwrap();
        let cols = PackedRnsMatrix::pack_cols(b, cfg(), full).unwrap();
        let base = mirage_rns::convert::CrtConverter::new(engine.base.moduli());
        let checked = Checked {
            rrns: &engine.rrns,
            injector: Some(injector),
        };
        let (m, n) = (a.shape()[0], b.shape()[1]);
        let mut out = vec![0.0f32; m * n];
        let mut residues = vec![0u64; full.len()];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for gi in 0..a_rns.groups {
                    let (a_off, b_off) = (a_rns.group_offset(i, gi), cols.group_offset(j, gi));
                    for (c, &modulus) in full.moduli().iter().enumerate() {
                        let r =
                            a_rns.planes[c].panel_dots(a_off, &cols.planes[c], b_off, 4, modulus)
                                [j % 8];
                        residues[c] = injector.corrupt_residue(r, modulus.value()).unwrap_or(r);
                    }
                    let integer = checked.decode(&base, &residues)? as f64;
                    let pa2 = mirage_bfp::pow2(a_rns.scale_exp(i, gi));
                    acc += (integer * (pa2 * mirage_bfp::pow2(cols.scale_exp(j, gi)))) as f32;
                }
                out[i * n + j] = acc;
            }
        }
        Ok(out)
    }

    #[test]
    fn planned_faults_land_where_the_per_word_stream_put_them() {
        // Every kernel path — AVX2 checked lanes with the scalar decode
        // on masked blocks, and the all-scalar checked path — meets the
        // same flips at the same words as the per-word stream: same
        // output bits, same counts, same draws.
        let (a, b) = operands(58, 5, 48, 21);
        let clean = ProtectedRnsBfpEngine::with_min_special_set(cfg())
            .unwrap()
            .gemm(&a, &b)
            .unwrap();
        let mut corrected = 0;
        for seed in 0..8u64 {
            let config = FaultConfig::disabled(seed).with_residue_flip_rate(0.002);
            let reference = FaultInjector::new(config);
            let want = per_word_stream_gemm(
                &ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap(),
                &reference,
                &a,
                &b,
            );
            let Ok(want) = want else {
                continue; // fault sites match only up to an uncorrectable call
            };
            assert_eq!(want, clean.data(), "seed {seed}");
            corrected += reference.counts().corrected;
            for simd in [SimdPolicy::Auto, SimdPolicy::Off] {
                let injector = Arc::new(FaultInjector::new(config));
                let mut engine = ProtectedRnsBfpEngine::with_min_special_set(cfg())
                    .unwrap()
                    .with_injector(Arc::clone(&injector));
                engine.base = engine.base.with_simd_policy(simd);
                let prepared = engine.prepare(&b).unwrap();
                let got = engine.gemm_prepared(&a, &prepared).unwrap();
                assert_eq!(got.data(), clean.data(), "seed {seed}, {simd:?}");
                assert_eq!(
                    injector.counts(),
                    reference.counts(),
                    "seed {seed}, {simd:?}"
                );
                assert_eq!(injector.draws(), reference.draws(), "seed {seed}, {simd:?}");
            }
        }
        assert!(corrected > 0, "the sweep must correct at least one flip");
    }

    #[test]
    fn ragged_column_tails_run_the_lanes_bit_identically() {
        // n mod 8 != 0: the final column block runs the lanes over a
        // zero-padded copy of its live columns. Every output bit — and,
        // protected, every fault count and draw — must match the
        // scalar kernel's.
        let bits = |r: Result<Tensor>| r.map(|t| t.data().iter().map(|v| v.to_bits()).collect());
        let mut injected = 0;
        for n in 1..=17 {
            let (a, b) = operands(60 + n as u64, 3, 40, n);
            let unprotected = |simd| {
                RnsBfpEngine::with_min_special_set(cfg())
                    .unwrap()
                    .with_simd_policy(simd)
            };
            let want: Result<Vec<u32>> = bits(unprotected(SimdPolicy::Off).gemm(&a, &b));
            let lanes = unprotected(SimdPolicy::Auto);
            assert_eq!(bits(lanes.gemm(&a, &b)), want, "n = {n}");
            let prepared = lanes.prepare(&b).unwrap();
            assert_eq!(bits(lanes.gemm_prepared(&a, &prepared)), want, "n = {n}");
            for rate in [0.0, 0.01] {
                let run = |simd| {
                    let injector = Arc::new(FaultInjector::new(
                        FaultConfig::disabled(n as u64).with_residue_flip_rate(rate),
                    ));
                    let mut engine = ProtectedRnsBfpEngine::with_min_special_set(cfg())
                        .unwrap()
                        .with_injector(Arc::clone(&injector));
                    engine.base = engine.base.with_simd_policy(simd);
                    let out: Result<Vec<u32>> = bits(engine.gemm(&a, &b));
                    (out, injector.counts(), injector.draws())
                };
                let (scalar, lanes) = (run(SimdPolicy::Off), run(SimdPolicy::Auto));
                assert_eq!(lanes, scalar, "n = {n}, rate {rate}");
                injected += lanes.1.injected;
                if rate == 0.0 {
                    assert_eq!(lanes.0, want, "n = {n}");
                }
            }
        }
        assert!(injected > 0, "the armed runs must flip tail-block residues");
    }

    #[test]
    fn windows_starting_inside_a_panel_meet_the_same_flips_as_the_scalar_kernel() {
        // A column window whose first column sits inside an 8-column
        // panel: the lanes stage the window's flips at the live lanes
        // only, so every output bit, fault count and draw must match
        // the scalar kernel's.
        let (a, b) = operands(64, 3, 40, 21);
        let mut injected = 0;
        for (c0, width) in [(3, 13), (5, 2), (9, 11), (1, 20)] {
            for seed in 0..3u64 {
                let run = |simd| {
                    let injector = Arc::new(FaultInjector::new(
                        FaultConfig::disabled(seed).with_residue_flip_rate(0.01),
                    ));
                    let mut engine = ProtectedRnsBfpEngine::with_min_special_set(cfg())
                        .unwrap()
                        .with_injector(Arc::clone(&injector));
                    engine.base = engine.base.with_simd_policy(simd);
                    let tile = engine.prepare(&b).unwrap().cols(c0, width).unwrap();
                    let out = engine.gemm_prepared(&a, &tile).map(|t| t.data().to_vec());
                    (out, injector.counts(), injector.draws())
                };
                let (scalar, lanes) = (run(SimdPolicy::Off), run(SimdPolicy::Auto));
                assert_eq!(lanes, scalar, "window ({c0}, {width}), seed {seed}");
                injected += lanes.1.injected;
            }
        }
        assert!(injected > 0, "the armed runs must flip windowed residues");
    }

    #[test]
    fn heavy_corruption_is_surfaced_as_a_typed_error_never_silent() {
        let (a, b) = operands(57, 3, 32, 3);
        let clean = ProtectedRnsBfpEngine::with_min_special_set(cfg())
            .unwrap()
            .gemm(&a, &b)
            .unwrap();
        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(2).with_residue_flip_rate(0.5),
        ));
        let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg())
            .unwrap()
            .with_injector(Arc::clone(&injector));
        match protected.gemm(&a, &b) {
            Err(TensorError::Rns(RnsError::Uncorrectable)) => {
                assert!(injector.counts().uncorrectable > 0);
            }
            Ok(y) => {
                // Statistically implausible at rate 0.5, but if every
                // group was correctable the output must still be exact.
                assert_eq!(y.data(), clean.data());
            }
            Err(other) => panic!("unexpected error {other}"),
        }
        assert!(injector.counts().injected > 0);
        assert!(injector.counts().detected > 0);
    }
}
