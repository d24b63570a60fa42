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
//! ## Protection lifecycle (per group dot)
//!
//! 1. One modular dot per channel over the packed residue planes —
//!    identical arithmetic to [`RnsBfpEngine`](super::RnsBfpEngine), just more channels.
//! 2. Fault injection (when an injector is armed): each channel's
//!    residue may be flipped per [`FaultInjector::corrupt_residue`].
//! 3. Fast consistency check: reverse-convert the **base** channels
//!    with the trusted CRT (the same arithmetic the unprotected engine
//!    trusts blindly), then require the value to sit inside the
//!    legitimate range `|v| <= ψ` *and* every redundant channel to agree
//!    with it. Clean groups pay only `r` extra modular reductions here.
//! 4. On mismatch, the corruption is **detected**; slow-path
//!    [`RedundantRns::correct`] runs drop-one majority-logic decoding.
//!    A located single-channel error is **corrected** exactly and the
//!    GEMM proceeds; anything else is **uncorrectable** and the whole
//!    call returns [`RnsError::Uncorrectable`] as a [`TensorError`].
//!
//! The fast check accepts a residue vector iff [`RedundantRns::detect`]
//! would call it legitimate (CRT uniqueness: a full-set vector agreeing
//! with some `|v| <= ψ` on every channel *is* that value's encoding), so
//! the hot loop never pays a full 5-channel CRT for clean data.
//!
//! ## Zero-fault bit-identity
//!
//! With no injector (or all rates zero), step 3 always passes, and the
//! value it passes through is produced by the *same* base-set planes,
//! group dots, and trusted CRT as [`RnsBfpEngine`](super::RnsBfpEngine) — so this engine is
//! bit-identical to the unprotected RNS path and therefore to
//! [`BfpEngine`] (the paper's §IV-B equivalence), at the cost of the
//! redundant channels' dots. Tests pin all three ways.
//!
//! ## Accounting semantics
//!
//! `injected` counts individual channel flips; `detected`, `corrected`
//! and `uncorrectable` count *group results* (one group dot may absorb
//! several flips). Events are recorded on the armed [`FaultInjector`]'s
//! lifetime totals and attributed to the open
//! [`FaultScope`](crate::faults::FaultScope), which the serving front
//! end maps into per-request and server-wide stats.

use super::bfp::BfpEngine;
use super::rns_bfp::PackedRnsMatrix;
use super::{gemm_dims, gemm_raw_into, Epilogue, GemmEngine, PreparedRhs};
use crate::faults::FaultInjector;
use crate::{Result, Tensor, TensorError};
use mirage_bfp::{pow2, BfpConfig};
use mirage_rns::convert::{CrtConverter, ReverseConverter};
use mirage_rns::{ModuliSet, RedundantRns, RnsError};
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
    config: BfpConfig,
    rrns: RedundantRns,
    /// Trusted CRT over the base channels only — the fast clean path.
    base_converter: CrtConverter,
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
        if !base.supports_dot_product(config.mantissa_bits(), config.group_size()) {
            return Err(TensorError::InvalidGeometry(format!(
                "moduli set {base} cannot hold a bm={}, g={} dot product (Eq. 13)",
                config.mantissa_bits(),
                config.group_size()
            )));
        }
        let base_values: Vec<u64> = base.moduli().iter().map(|m| m.value()).collect();
        let rrns = RedundantRns::new(&base_values, redundant).map_err(TensorError::Rns)?;
        let base_converter = CrtConverter::new(&base);
        Ok(ProtectedRnsBfpEngine {
            config,
            rrns,
            base_converter,
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
    /// corruptible per [`FaultInjector::corrupt_residue`]. Without an
    /// injector the engine still *checks* every group (the protection
    /// machinery is always on) but nothing ever fires.
    #[must_use]
    pub fn with_injector(mut self, injector: Arc<FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// The BFP operating point.
    pub fn config(&self) -> BfpConfig {
        self.config
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

    /// Packs and forward-converts the columns of `B` over the full set.
    fn pack_cols(&self, b: &Tensor) -> Result<PackedRnsMatrix> {
        Ok(PackedRnsMatrix::from_packed(
            &BfpEngine::pack_cols_wide(b, self.config)?,
            self.rrns.full_set(),
        ))
    }

    /// Fast clean-path check: `value` (decoded from the base channels)
    /// is legitimate and every redundant channel agrees with it. By CRT
    /// uniqueness this accepts exactly the vectors
    /// [`RedundantRns::detect`] calls clean.
    fn redundant_consistent(&self, value: i128, residues: &[u64]) -> bool {
        if value.unsigned_abs() > self.rrns.psi() {
            // A corrupted base can decode just outside [-ψ, ψ] (e.g. to
            // -(ψ+1) when the base product is even); the range check
            // closes that edge before the channel comparisons.
            return false;
        }
        let moduli = self.rrns.full_set().moduli();
        moduli
            .iter()
            .enumerate()
            .skip(self.rrns.base_len())
            .all(|(channel, m)| m.reduce_i128(value) == residues[channel])
    }

    /// Redundancy-checked reverse conversion of one group's residues:
    /// returns the (possibly corrected) signed dot product, or
    /// [`RnsError::Uncorrectable`] when no single-channel correction
    /// explains the vector.
    fn decode(&self, residues: &[u64]) -> Result<i128> {
        let value = self
            .base_converter
            .to_signed_trusted(&residues[..self.rrns.base_len()]);
        if self.redundant_consistent(value, residues) {
            return Ok(value);
        }
        if let Some(injector) = self.injector.as_deref() {
            injector.record_detected();
        }
        match self.rrns.correct(residues) {
            Ok(corrected) => {
                if let Some(injector) = self.injector.as_deref() {
                    injector.record_corrected();
                }
                Ok(corrected.value)
            }
            Err(RnsError::Uncorrectable) => {
                if let Some(injector) = self.injector.as_deref() {
                    injector.record_uncorrectable();
                }
                Err(TensorError::Rns(RnsError::Uncorrectable))
            }
            Err(other) => Err(TensorError::Rns(other)),
        }
    }

    /// The shared protected kernel: mirrors the unprotected generic RNS
    /// kernel exactly — same loop order (rows → columns → ascending
    /// groups), same accumulation expression — with the redundancy
    /// check spliced between the modular dots and the scale
    /// recombination. Returns `m`.
    fn gemm_with_packed_into(
        &self,
        a: &Tensor,
        cols: &PackedRnsMatrix,
        col_start: usize,
        n: usize,
        out: &mut Vec<f32>,
    ) -> Result<usize> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        if cols.k != k {
            return Err(TensorError::DimMismatch {
                left: k,
                right: cols.k,
            });
        }
        debug_assert!(col_start + n <= cols.rows, "column range out of bounds");
        let full = self.rrns.full_set();
        let moduli = full.moduli();
        let a_rns = PackedRnsMatrix::from_packed(&BfpEngine::pack_rows_wide(a, self.config), full);

        out.clear();
        out.resize(m * n, 0.0);
        let g = a_rns.g;
        let injector = self.injector.as_deref();
        // Per-group residue scratch, hoisted out of every loop. Unlike
        // `rns_generic` this kernel also packs `A` and sizes `out`, so
        // it is deliberately NOT marked `no_alloc`.
        let mut residues = vec![0u64; moduli.len()];
        for i in 0..m {
            for j in 0..n {
                let col = col_start + j;
                let mut acc = 0.0f32;
                for gi in 0..a_rns.groups_per_row {
                    let a_off = a_rns.group_offset(i, gi);
                    let b_off = cols.group_offset(col, gi);
                    // The modular dots of Fig. 2 steps 5-6, over base
                    // and redundant channels alike (§VI-E: redundancy
                    // rides the same datapath).
                    // mirage-lint: region(int_kernel)
                    for (channel, &modulus) in moduli.iter().enumerate() {
                        residues[channel] = a_rns.planes[channel].group_dot(
                            a_off,
                            &cols.planes[channel],
                            b_off,
                            g,
                            modulus,
                        );
                    }
                    if let Some(injector) = injector {
                        for (channel, &modulus) in moduli.iter().enumerate() {
                            if let Some(corrupted) =
                                injector.corrupt_residue(residues[channel], modulus.value())
                            {
                                residues[channel] = corrupted;
                            }
                        }
                    }
                    // Checked reverse conversion (steps 7 + §VI-E), then
                    // exponent recombination (step 8) — identical
                    // accumulation to the unprotected kernel.
                    // mirage-lint: allow(float_ok) -- CRT output is bounded by Eq. 13 (< 2^52), so the i128 -> f64 conversion is lossless
                    let integer = self.decode(&residues)? as f64;
                    // mirage-lint: end_region(int_kernel)
                    let scale_exp = a_rns.scale_exp(i, gi) + cols.scale_exp(col, gi);
                    acc += (integer * pow2(scale_exp)) as f32;
                }
                out[i * n + j] = acc;
            }
        }
        Ok(m)
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

    /// `true` for the clean path: same BFP grouping as [`BfpEngine`],
    /// exact integer arithmetic per group, so tiles concatenate
    /// bit-identically and `DenseStep::shard` accepts protected plans.
    /// With an injector armed, *where* corruptions land depends on the
    /// partition (draws are consumed in execution order) — but every
    /// corruption is still detected, corrected, or surfaced regardless
    /// of tiling, which is the invariant protection promises.
    fn tile_invariant(&self) -> bool {
        true
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (_m, _k, n) = gemm_dims(a, b)?;
        let cols = self.pack_cols(b)?;
        let mut out = Vec::new();
        let m = self.gemm_with_packed_into(a, &cols, 0, n, &mut out)?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Quantizes and forward-converts the columns of `B` once over the
    /// full base + redundant set: repeated inference pays neither the
    /// quantizer nor the forward converter for the weights, redundant
    /// channels included.
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        let prepared = PreparedRhs::from_raw(self.name(), b)?;
        let packed = self.pack_cols(b)?;
        Ok(prepared.with_state(Arc::new(PreparedProtectedCols {
            config: self.config,
            full: self.rrns.full_set().clone(),
            packed,
        })))
    }

    /// Reuses pre-converted weight planes: the protected kernel writes
    /// straight into the caller's buffer, and the epilogue runs only
    /// once every group has decoded (an uncorrectable group returns its
    /// typed error first). Falls back to
    /// [`ProtectedRnsBfpEngine::gemm`] on foreign preparations.
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        match b.state_for::<PreparedProtectedCols>(self.name()) {
            Some(state) if state.config == self.config && state.full == *self.rrns.full_set() => {
                let (_m, _k, n) = gemm_dims(a, b.raw())?;
                let m = self.gemm_with_packed_into(a, &state.packed, b.col_start(), n, out)?;
                epilogue.apply(out, m, n)?;
                Ok((m, n))
            }
            _ => gemm_raw_into(self, a, b, epilogue, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::RnsBfpEngine;
    use crate::faults::{FaultConfig, FaultScope};
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
        let cfg3 = BfpConfig::new(3, 16).unwrap();
        crate::engines::prepared::check_column_windows(
            &ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap(),
            &ProtectedRnsBfpEngine::with_min_special_set(cfg3).unwrap(),
        );
    }

    #[test]
    fn foreign_preparations_fall_back_to_the_full_gemm() {
        let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let unprotected = RnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let (a, b) = operands(55, 3, 16, 4);
        let foreign = unprotected.prepare(&b).unwrap();
        let y = protected.gemm_prepared(&a, &foreign).unwrap();
        assert_eq!(y.data(), protected.gemm(&a, &b).unwrap().data());
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

    #[test]
    fn decode_agrees_with_rrns_detect_on_corrupted_vectors() {
        let protected = ProtectedRnsBfpEngine::with_min_special_set(cfg()).unwrap();
        let rrns = protected.rrns();
        let moduli: Vec<u64> = rrns.full_set().moduli().iter().map(|m| m.value()).collect();
        for value in [-16367i128, -4242, -1, 0, 1, 900, 16367] {
            let clean = rrns.encode(value).unwrap();
            assert_eq!(protected.decode(&clean).unwrap(), value);
            for channel in 0..moduli.len() {
                for delta in [1u64, moduli[channel] - 1] {
                    let mut corrupted = clean.clone();
                    corrupted[channel] = (corrupted[channel] + delta) % moduli[channel];
                    assert!(rrns.detect(&corrupted).unwrap());
                    // Single-channel corruption: decode must recover the
                    // original value exactly.
                    assert_eq!(
                        protected.decode(&corrupted).unwrap(),
                        value,
                        "value {value}, channel {channel}, delta {delta}"
                    );
                }
            }
        }
    }
}
