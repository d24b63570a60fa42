//! BFP GEMM routed bit-exactly through RNS residues.

use super::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::faults::{FaultInjector, ResidueFault};
use crate::{Result, Tensor, TensorError};
#[cfg(test)]
use mirage_bfp::PackedBfpMatrix;
use mirage_bfp::{pow2, BfpConfig, GroupSink, SimdPolicy, SimdTier};
use mirage_rns::convert::{CrtConverter, ReverseConverter};
use mirage_rns::{simd as rns_simd, ModuliSet, Modulus, RedundantRns, ResiduePlane, RnsError};
use std::iter::Peekable;
use std::slice;
use std::sync::Arc;

/// A packed matrix forward-converted into the RNS domain: one flat
/// residue **plane** per modulus channel covering every group of every
/// row (the `rows × padded_k` geometry of a [`PackedBfpMatrix`],
/// padding lanes holding residue 0), plus the flat per-group scale
/// exponents. A channel's group dot is one [`ResiduePlane::group_dot`]
/// over two plane slices — no per-element `Residue` construction, no
/// per-group heap objects, and the narrowest exact lane width the
/// modulus permits.
///
/// Built in **one pass** from the operand's stored layout:
/// [`PackedRnsMatrix::pack_rows`] (the A side) and
/// [`PackedRnsMatrix::pack_cols`] (the B side, no transpose) quantize
/// each group and convert it into every channel plane while its
/// mantissae are still in registers, so no `i32` mantissa buffer is
/// ever materialized. Conversion is the branch-free
/// [`ResiduePlane::write_run`] lane whenever the operating point keeps
/// every mantissa below the modulus (`max_mantissa < m`, e.g. `bm = 4`
/// against `{31, 32, 33}`), the exact reduction otherwise.
#[derive(Debug)]
pub(crate) struct PackedRnsMatrix {
    pub(crate) rows: usize,
    pub(crate) k: usize,
    pub(crate) groups_per_row: usize,
    pub(crate) g: usize,
    /// One [`ResiduePlane`] per modulus channel.
    pub(crate) planes: Vec<ResiduePlane>,
    /// `rows * groups_per_row` shared scale exponents.
    pub(crate) scale_exps: Vec<i32>,
}

/// The [`GroupSink`] that forward-converts each finished group into
/// every channel plane (Fig. 2 step 2).
struct PlaneSink<'a> {
    g: usize,
    max_mantissa: u64,
    moduli: &'a [Modulus],
    planes: &'a mut [ResiduePlane],
    scale_exps: &'a mut [i32],
}

impl GroupSink for PlaneSink<'_> {
    #[inline(always)]
    fn put(&mut self, index: usize, lanes: &[i32], scale_exp: i32) {
        for (plane, &modulus) in self.planes.iter_mut().zip(self.moduli) {
            plane.write_run(index * self.g, lanes, modulus, self.max_mantissa);
        }
        self.scale_exps[index] = scale_exp;
    }
}

impl PackedRnsMatrix {
    /// Quantizes the rows of `a` (groups along each row) and converts
    /// them into `moduli`'s planes in one pass.
    pub(crate) fn pack_rows(a: &Tensor, config: BfpConfig, moduli: &ModuliSet) -> Result<Self> {
        let (rows, k) = (a.shape()[0], a.shape()[1]);
        Self::pack(rows, k, config, moduli, |sink| {
            mirage_bfp::pack_rows(a.data(), rows, k, config, sink)
        })
    }

    /// Quantizes the columns of `b` (groups down each column, one
    /// packed row per column) and converts them into `moduli`'s planes
    /// in one pass over `b`'s row-major storage — the B side shared by
    /// the RNS-BFP and protected engines' `gemm` and `prepare`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `b` is rank-2.
    pub(crate) fn pack_cols(b: &Tensor, config: BfpConfig, moduli: &ModuliSet) -> Result<Self> {
        b.require_rank(2)?;
        let (k, n) = (b.shape()[0], b.shape()[1]);
        Self::pack(n, k, config, moduli, |sink| {
            mirage_bfp::pack_cols(b.data(), k, n, config, sink)
        })
    }

    /// Sizes the planes for `rows` packed rows of reduction length `k`
    /// and lets `fill` run a packer into them.
    fn pack(
        rows: usize,
        k: usize,
        config: BfpConfig,
        moduli: &ModuliSet,
        fill: impl FnOnce(&mut PlaneSink<'_>) -> mirage_bfp::Result<()>,
    ) -> Result<Self> {
        let g = config.group_size();
        let groups_per_row = k.div_ceil(g);
        let lanes = rows * groups_per_row * g;
        let mut planes: Vec<ResiduePlane> = moduli
            .moduli()
            .iter()
            .map(|&modulus| ResiduePlane::zeroed(lanes, modulus, g))
            .collect();
        let mut scale_exps = vec![0; rows * groups_per_row];
        fill(&mut PlaneSink {
            g,
            max_mantissa: config.max_mantissa().unsigned_abs(),
            moduli: moduli.moduli(),
            planes: &mut planes,
            scale_exps: &mut scale_exps,
        })?;
        Ok(PackedRnsMatrix {
            rows,
            k,
            groups_per_row,
            g,
            planes,
            scale_exps,
        })
    }

    /// The packing this type replaced, kept as the oracle for the
    /// one-pass packers: a packed mantissa buffer reduced channel by
    /// channel through [`mirage_rns::Modulus::reduce_i128`].
    #[cfg(test)]
    pub(crate) fn from_packed(packed: &PackedBfpMatrix, moduli: &ModuliSet) -> Self {
        let g = packed.config().group_size();
        let planes = moduli
            .moduli()
            .iter()
            .map(|&modulus| {
                let mut plane = ResiduePlane::zeroed(packed.mantissas().len(), modulus, g);
                plane.write_run(0, packed.mantissas(), modulus, u64::MAX);
                plane
            })
            .collect();
        PackedRnsMatrix {
            rows: packed.rows(),
            k: packed.k(),
            groups_per_row: packed.groups_per_row(),
            g,
            planes,
            scale_exps: packed.scale_exps().to_vec(),
        }
    }

    /// Flat offset of group `gi` of `row` within every channel plane.
    pub(crate) fn group_offset(&self, row: usize, gi: usize) -> usize {
        (row * self.groups_per_row + gi) * self.g
    }

    /// The shared scale exponent of group `gi` of `row`.
    pub(crate) fn scale_exp(&self, row: usize, gi: usize) -> i32 {
        self.scale_exps[row * self.groups_per_row + gi]
    }
}

/// Prepared B-side state: the columns of `B` quantized and pushed
/// through forward conversion into packed residue planes, tagged with
/// the operating point and moduli set that produced them. Column tiles
/// are windows of the [`PreparedRhs`] holding it.
#[derive(Debug)]
struct PreparedRnsCols {
    config: BfpConfig,
    moduli: ModuliSet,
    packed: PackedRnsMatrix,
}

/// Per-call scratch of the blocked 3-channel kernel, allocated by the
/// caller so the kernel itself never allocates: `pa2` holds `pow2` of
/// every A-side group exponent (`m × groups_per_row`), `pb2` one column
/// block's B-side factors for the fused AVX2 routines
/// (`groups_per_row × 8`, restaged per block). The protected kernel
/// adds `deltas`, one block's planned fault deltas in the
/// [`rns_simd::CheckedLanes`] table layout (zero outside a faulted
/// block), and `residues`, one group's channel residues. `tail` holds
/// the zero-padded 8-column copy of a ragged final block's B planes
/// (`channels × 8 × stride`, empty when `n` is a multiple of 8).
struct BlockScratch {
    pa2: Vec<f64>,
    pb2: Vec<f64>,
    deltas: Vec<u32>,
    residues: Vec<u64>,
    tail: Vec<u16>,
}

impl BlockScratch {
    /// Stages Fig. 2 step 8's B-side factors for the `jw` columns
    /// starting at `first_col`: once per block instead of once per
    /// (row, group, column).
    fn stage_block(&mut self, cols: &PackedRnsMatrix, first_col: usize, jw: usize) {
        for gi in 0..cols.groups_per_row {
            for jj in 0..jw {
                self.pb2[gi * rns_simd::BLOCK + jj] = pow2(cols.scale_exp(first_col + jj, gi));
            }
        }
    }
}

/// The lane-table slot of a block's canonical word `word`: the block
/// starting at word `first` holds `groups · channels` words per column,
/// and [`rns_simd::CheckedLanes`] reads the delta of column `jj`,
/// group `gi`, channel `c` at `(gi · channels + c) · 8 + jj`.
fn delta_slot(word: u64, (first, groups, channels): (u64, usize, usize)) -> usize {
    let local = (word - first) as usize;
    let per_column = groups * channels;
    (local % per_column) * rns_simd::BLOCK + local / per_column
}

/// Stages a block's planned flips into the all-zero delta table and
/// returns it, or `None` for a fault-free block.
fn stage_deltas<'t>(
    table: &'t mut [u32],
    faults: &[ResidueFault],
    layout: (u64, usize, usize),
) -> Option<&'t [u32]> {
    if faults.is_empty() {
        return None;
    }
    for fault in faults {
        // `CheckedLanes` admits only moduli below 2¹⁵, so `delta < m`
        // fits a lane.
        table[delta_slot(fault.word, layout)] = fault.delta as u32;
    }
    Some(table)
}

/// Restores the zeros [`stage_deltas`] overwrote.
fn clear_deltas(table: &mut [u32], faults: &[ResidueFault], layout: (u64, usize, usize)) {
    for fault in faults {
        table[delta_slot(fault.word, layout)] = 0;
    }
}

/// The shared kernel's protection, resolved at compile time: `()` is
/// the unprotected kernel, and [`Checked`] adds redundant channels, the
/// consistency check and the call's fault plan. The unprotected
/// instantiation's `checked()` is a constant `None`, so its protected
/// branches compile away.
pub(crate) trait Protection {
    /// The redundancy to check, if any.
    fn checked(&self) -> Option<&Checked<'_>>;
}

impl Protection for () {
    #[inline(always)]
    fn checked(&self) -> Option<&Checked<'_>> {
        None
    }
}

impl Protection for Checked<'_> {
    #[inline(always)]
    fn checked(&self) -> Option<&Checked<'_>> {
        Some(self)
    }
}

/// RRNS protection for one GEMM call: the redundant residue system
/// whose full set both operands were converted over (base channels
/// first), and the injector that plans the call's residue flips.
pub(crate) struct Checked<'a> {
    pub(crate) rrns: &'a RedundantRns,
    pub(crate) injector: Option<&'a FaultInjector>,
}

impl Checked<'_> {
    /// The call's residue flips over `words` canonical words (empty
    /// without an armed injector).
    fn plan(&self, words: usize) -> Vec<ResidueFault> {
        self.injector.map_or_else(Vec::new, |injector| {
            injector.residue_fault_plan(words as u64, self.rrns.full_set().moduli())
        })
    }

    /// Counts the flips the kernel is about to apply.
    fn note_injected(&self, count: usize) {
        if let Some(injector) = self.injector {
            injector.note_injected(count as u64);
        }
    }

    /// One group's residues over every channel, with its planned flips
    /// applied: `faults` is consumed in canonical word order, and
    /// `word` is the canonical index of the group's first channel.
    // mirage-lint: region(int_kernel)
    #[allow(clippy::too_many_arguments)]
    fn group_residues(
        &self,
        a_rns: &PackedRnsMatrix,
        cols: &PackedRnsMatrix,
        a_off: usize,
        b_off: usize,
        faults: &mut Peekable<slice::Iter<'_, ResidueFault>>,
        word: u64,
        residues: &mut [u64],
    ) {
        let moduli = self.rrns.full_set().moduli();
        let channels = moduli.iter().zip(&a_rns.planes).zip(&cols.planes);
        for (c, ((&modulus, a), b)) in channels.enumerate() {
            let mut r = a.group_dot(a_off, b, b_off, a_rns.g, modulus);
            if let Some(fault) = faults.next_if(|f| f.word == word + c as u64) {
                r = (r + fault.delta) % modulus.value();
            }
            residues[c] = r;
        }
    }
    // mirage-lint: end_region(int_kernel)

    /// Redundancy-checked reverse conversion of one group's residues:
    /// the base channels' trusted CRT when every redundant channel
    /// agrees ([`RedundantRns::is_consistent`]), otherwise a detection
    /// and drop-one majority-logic [`RedundantRns::correct`] — the
    /// corrected value, or [`RnsError::Uncorrectable`] when no
    /// single-channel correction explains the vector.
    pub(crate) fn decode(&self, base: &CrtConverter, residues: &[u64]) -> Result<i128> {
        let value = base.to_signed_trusted(&residues[..self.rrns.base_len()]);
        if self.rrns.is_consistent(value, residues) {
            return Ok(value);
        }
        if let Some(injector) = self.injector {
            injector.record_detected();
        }
        match self.rrns.correct(residues) {
            Ok(corrected) => {
                if let Some(injector) = self.injector {
                    injector.record_corrected();
                }
                Ok(corrected.value)
            }
            Err(RnsError::Uncorrectable) => {
                if let Some(injector) = self.injector {
                    injector.record_uncorrectable();
                }
                Err(TensorError::Rns(RnsError::Uncorrectable))
            }
            Err(other) => Err(TensorError::Rns(other)),
        }
    }

    /// The scalar checked path of one output element, row `i` × column
    /// `col`: every group decoded through [`Checked::decode`] with the
    /// element's planned flips applied. `first` is the canonical index
    /// of its first word. Same recombination chain as the fused lanes,
    /// so a corrected element is bit-identical to a clean one.
    #[allow(clippy::too_many_arguments)]
    fn column_sum(
        &self,
        base: &CrtConverter,
        a_rns: &PackedRnsMatrix,
        cols: &PackedRnsMatrix,
        (i, col): (usize, usize),
        row_pa2: &[f64],
        (faults, first): (&[ResidueFault], u64),
        residues: &mut [u64],
    ) -> Result<f32> {
        let mut faults = faults.iter().peekable();
        let mut acc = 0.0f32;
        for (gi, &pa) in row_pa2.iter().enumerate() {
            let (a_off, b_off) = (a_rns.group_offset(i, gi), cols.group_offset(col, gi));
            let word = first + (gi * residues.len()) as u64;
            self.group_residues(a_rns, cols, a_off, b_off, &mut faults, word, residues);
            let integer = self.decode(base, residues)? as f64;
            let pb2 = pow2(cols.scale_exp(col, gi));
            acc += (integer * (pa * pb2)) as f32;
        }
        Ok(acc)
    }
}

/// The planned flips of canonical words `first..end`.
fn planned_in(plan: &[ResidueFault], first: u64, end: u64) -> &[ResidueFault] {
    let plan = &plan[plan.partition_point(|f| f.word < first)..];
    &plan[..plan.partition_point(|f| f.word < end)]
}

/// The full Mirage numerical path: BFP mantissae → forward conversion →
/// per-modulus modular dot products → reverse conversion → FP32
/// accumulation (paper Fig. 2, steps 2–9).
///
/// Because the moduli set satisfies Eq. 13 for the configured `(bm, g)`,
/// this engine is **bit-identical** to [`BfpEngine`](super::BfpEngine)
/// — which is the paper's central claim ("the DNN accuracy is
/// determined by the chosen bm and g and is independent of the exact
/// values of the moduli", §IV-B). The equivalence is enforced by tests.
///
/// Tile-invariant like [`BfpEngine`](super::BfpEngine): the residue
/// round trip is exact integer arithmetic per group, so
/// [`crate::parallel::ParallelGemm`] fans this engine across threads
/// bit-identically.
///
/// ```
/// use mirage_tensor::{Tensor, GemmEngine, engines::RnsBfpEngine};
/// use mirage_bfp::BfpConfig;
///
/// let engine = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default())?;
/// assert_eq!(engine.moduli().special_k(), Some(5)); // {31, 32, 33}
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RnsBfpEngine {
    config: BfpConfig,
    moduli: ModuliSet,
    converter: CrtConverter,
    simd: SimdPolicy,
}

impl RnsBfpEngine {
    /// Creates an engine from an explicit moduli set.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidGeometry`] if the set violates
    /// Eq. 13 for the BFP configuration — RNS results would wrap and the
    /// engine would silently corrupt dot products.
    pub fn new(config: BfpConfig, moduli: ModuliSet) -> Result<Self> {
        if !moduli.supports_dot_product(config.mantissa_bits(), config.group_size()) {
            return Err(TensorError::InvalidGeometry(format!(
                "moduli set {moduli} cannot hold a bm={}, g={} dot product (Eq. 13)",
                config.mantissa_bits(),
                config.group_size()
            )));
        }
        let converter = CrtConverter::new(&moduli);
        Ok(RnsBfpEngine {
            config,
            moduli,
            converter,
            simd: SimdPolicy::default(),
        })
    }

    /// Returns a copy with the given per-instance SIMD policy (see
    /// [`super::BfpEngine::with_simd_policy`] — the same narrowing
    /// semantics against the process-wide `MIRAGE_SIMD` knob, and the
    /// same bit-identity guarantee across tiers).
    pub fn with_simd_policy(mut self, simd: SimdPolicy) -> Self {
        self.simd = simd;
        self
    }

    /// This instance's SIMD policy.
    pub fn simd_policy(&self) -> SimdPolicy {
        self.simd
    }

    /// Creates an engine using the smallest special set `{2^k-1, 2^k,
    /// 2^k+1}` that satisfies Eq. 13 — the paper's moduli-selection rule.
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
        let moduli = ModuliSet::special_set(k).map_err(TensorError::Rns)?;
        Self::new(config, moduli)
    }

    /// The BFP operating point.
    pub fn config(&self) -> BfpConfig {
        self.config
    }

    /// The moduli set in use.
    pub fn moduli(&self) -> &ModuliSet {
        &self.moduli
    }

    /// The shared flat GEMM kernel: quantizes and forward-converts the
    /// rows of `A` into packed residue planes, then dots them against an
    /// already-converted column range of `B`, writing into a caller
    /// buffer. Every step below the quantizer is exact integer
    /// arithmetic, so pre-converting either side cannot change a single
    /// bit. Shapes are validated once up front; the per-group work is
    /// one slice dot per modulus channel, one trusted CRT reverse
    /// conversion, and one power-of-two scale — nothing in the loop
    /// allocates. Returns `m`.
    ///
    /// With [`Checked`] protection both operands carry the full base +
    /// redundant set (base channels first), the call's residue flips
    /// are planned once up front, and every group is checked: see
    /// [`super::ProtectedRnsBfpEngine`]'s protection lifecycle.
    pub(crate) fn gemm_with_packed_into<P: Protection>(
        &self,
        a: &Tensor,
        cols: &PackedRnsMatrix,
        col_start: usize,
        n: usize,
        out: &mut Vec<f32>,
        protection: &P,
    ) -> Result<usize> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        if cols.k != k {
            return Err(TensorError::DimMismatch {
                left: k,
                right: cols.k,
            });
        }
        debug_assert!(col_start + n <= cols.rows, "column range out of bounds");
        let set = protection
            .checked()
            .map_or(&self.moduli, |checked| checked.rrns.full_set());
        if cols.planes.len() != set.len() {
            return Err(TensorError::InvalidGeometry(format!(
                "prepared columns carry {} residue channels, the kernel needs {}",
                cols.planes.len(),
                set.len()
            )));
        }
        // Quantize + forward-convert each activation group once, not
        // once per output column.
        let a_rns = PackedRnsMatrix::pack_rows(a, self.config, set)?;
        let groups = a_rns.groups_per_row;
        // One reservation of fault draws for every residue word of the
        // call, in canonical order (see `FaultInjector::residue_fault_plan`).
        let plan = protection
            .checked()
            .map_or_else(Vec::new, |checked| checked.plan(m * n * groups * set.len()));

        out.clear();
        out.resize(m * n, 0.0);
        // The paper's 3-modulus special sets get a monomorphized kernel
        // (fixed channel count, and a constant group length for the
        // common `g`); everything else takes the generic loop. All
        // variants accumulate groups in ascending order per output
        // element, so results are bit-identical across dispatches.
        match (self.moduli.len(), a_rns.g) {
            (3, g @ (16 | 32)) => {
                // The blocked kernel's scratch, sized here so the kernel
                // itself stays allocation-free.
                let table = groups * set.len() * rns_simd::BLOCK;
                let mut scratch = BlockScratch {
                    pa2: a_rns.scale_exps.iter().map(|&e| pow2(e)).collect(),
                    pb2: vec![0.0; groups * rns_simd::BLOCK],
                    deltas: vec![
                        0;
                        if protection.checked().is_some() {
                            table
                        } else {
                            0
                        }
                    ],
                    residues: vec![0; set.len()],
                    tail: vec![
                        0;
                        if n.is_multiple_of(rns_simd::BLOCK) {
                            0
                        } else {
                            table * g
                        }
                    ],
                };
                let dims = (m, n);
                if g == 16 {
                    self.rns_blocks::<16, P>(
                        &a_rns,
                        cols,
                        col_start,
                        dims,
                        &mut scratch,
                        out,
                        protection,
                        &plan,
                    )
                } else {
                    self.rns_blocks::<32, P>(
                        &a_rns,
                        cols,
                        col_start,
                        dims,
                        &mut scratch,
                        out,
                        protection,
                        &plan,
                    )
                }
            }
            _ => self.rns_generic(&a_rns, cols, col_start, (m, n), out, protection, &plan),
        }?;
        Ok(m)
    }

    /// The blocked 3-channel kernel: `JW` output columns per
    /// sweep, each with its own dot → CRT → scale chain, so the long
    /// per-group latency chains of neighbouring columns overlap. When
    /// every plane took the narrow `u16` tier and the CRT has fused
    /// `u64` constants (the paper's operating points), the whole group
    /// pipeline is inlined over raw slices — no per-dot tier dispatch,
    /// no per-group converter call — and on AVX2 it runs as one fused
    /// vector routine per 8-column block ([`rns_simd::Crt3Lanes`]).
    ///
    /// The protected instantiation runs the same blocks over every
    /// channel: on AVX2 through [`rns_simd::CheckedLanes`], with the
    /// block's planned flips staged as lane deltas; each inconsistent
    /// lane's column (every column, without lanes) reruns through the
    /// scalar [`Checked`] decode with the same flips applied.
    // mirage-lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn rns_blocks<const G: usize, P: Protection>(
        &self,
        a_rns: &PackedRnsMatrix,
        cols: &PackedRnsMatrix,
        col_start: usize,
        (m, n): (usize, usize),
        scratch: &mut BlockScratch,
        out: &mut [f32],
        protection: &P,
        plan: &[ResidueFault],
    ) -> Result<()> {
        const JW: usize = rns_simd::BLOCK;
        let groups = a_rns.groups_per_row;
        let moduli = self.moduli.moduli();
        let (m0, m1, m2) = (moduli[0], moduli[1], moduli[2]);
        let (p0, p1, p2) = (&a_rns.planes[0], &a_rns.planes[1], &a_rns.planes[2]);
        let (q0, q1, q2) = (&cols.planes[0], &cols.planes[1], &cols.planes[2]);
        if let (Some(a0), Some(a1), Some(a2), Some(b0), Some(b1), Some(b2), Some(crt)) = (
            p0.as_u16(),
            p1.as_u16(),
            p2.as_u16(),
            q0.as_u16(),
            q1.as_u16(),
            q2.as_u16(),
            self.converter.small_constants(),
        ) {
            let (w0, w1, w2) = (crt.wi[0], crt.wi[1], crt.wi[2]);
            // One `u16` group dot, reduced divide-free. Pure integer by
            // contract — this is the arithmetic an MMVMU performs.
            // mirage-lint: region(int_kernel)
            #[inline(always)]
            fn dot<const G: usize>(a: &[u16], off_a: usize, b: &[u16], off_b: usize) -> u64 {
                let mut acc = 0u32;
                for (&x, &w) in a[off_a..off_a + G].iter().zip(&b[off_b..off_b + G]) {
                    acc += u32::from(x) * u32::from(w);
                }
                u64::from(acc)
            }
            // Fig. 2 step 7: the fused small-range CRT (identical
            // arithmetic to `to_signed_trusted`, constants hoisted) for
            // the scalar dot path.
            let crt_signed = |d0: u64, d1: u64, d2: u64| -> i64 {
                let r0 = m0.fast_rem(d0);
                let r1 = m1.fast_rem(d1);
                let r2 = m2.fast_rem(d2);
                let s = crt.m.fast_rem(r0 * w0) + crt.m.fast_rem(r1 * w1) + crt.m.fast_rem(r2 * w2);
                let v = crt.m.fast_rem(s);
                if v > crt.psi {
                    v as i64 - crt.m.value() as i64
                } else {
                    v as i64
                }
            };
            // mirage-lint: end_region(int_kernel)
            // On AVX2 the whole group pipeline — channel dots, Barrett
            // reductions, CRT, signed adjust and scale recombination —
            // runs fused in vector registers, 8 columns at a time, when
            // this moduli set passes the 32-bit lane bound (checked here,
            // once per GEMM; see `mirage_rns::simd`). Declined shapes run
            // the scalar dot — the same integers and the same
            // recombination chain either way.
            let tier = mirage_bfp::simd::resolve_tier(self.simd);
            let fused = if tier == SimdTier::Avx2 && protection.checked().is_none() {
                rns_simd::Crt3Lanes::new(moduli, &crt, G)
            } else {
                None
            };
            // The protected lanes need every channel, base and
            // redundant, in the `u16` tier.
            let channels = a_rns.planes.len();
            let mut a16: [&[u16]; rns_simd::CHANNELS + rns_simd::MAX_REDUNDANT] =
                Default::default();
            let mut b16 = a16;
            let checked_lanes = match protection.checked() {
                Some(checked) if tier == SimdTier::Avx2 && channels <= a16.len() => {
                    let mut all_u16 = true;
                    for (c, (a, b)) in a_rns.planes.iter().zip(&cols.planes).enumerate() {
                        match (a.as_u16(), b.as_u16()) {
                            (Some(a), Some(b)) => (a16[c], b16[c]) = (a, b),
                            _ => all_u16 = false,
                        }
                    }
                    let full = checked.rrns.full_set().moduli();
                    all_u16
                        .then(|| rns_simd::CheckedLanes::new(full, &crt, G))
                        .flatten()
                }
                _ => None,
            };
            let stride = groups * cols.g;
            let lanes_ready = fused.is_some() || checked_lanes.is_some();
            let base_planes = [b0, b1, b2];
            let mut acc = [0.0f32; JW];
            let mut lane_out = [0.0f32; JW];
            for j0 in (0..n).step_by(JW) {
                let jw = (n - j0).min(JW);
                if lanes_ready {
                    scratch.stage_block(cols, col_start + j0, jw);
                }
                let b_base = cols.group_offset(col_start + j0, 0);
                // The lanes' view of this block's B planes. A ragged
                // final block runs the lanes too, over a zero-padded
                // 8-column copy of its live columns: a dead lane dots
                // to zero in every channel (consistent, never flagged)
                // and is never stored.
                let (mut lane_b, mut lane_b16, mut lane_b_base) = (base_planes, b16, b_base);
                if lanes_ready && jw < JW && stride > 0 {
                    let live = if checked_lanes.is_some() {
                        &b16[..channels]
                    } else {
                        &base_planes[..]
                    };
                    let block = JW * stride;
                    for (c, plane) in live.iter().enumerate() {
                        let staged = &mut scratch.tail[c * block..c * block + jw * stride];
                        staged.copy_from_slice(&plane[b_base..b_base + jw * stride]);
                    }
                    for (view, staged) in lane_b16.iter_mut().zip(scratch.tail.chunks_exact(block))
                    {
                        *view = staged;
                    }
                    lane_b = [lane_b16[0], lane_b16[1], lane_b16[2]];
                    lane_b_base = 0;
                }
                for i in 0..m {
                    let row_pa2 = &scratch.pa2[i * groups..(i + 1) * groups];
                    let dst = &mut out[i * n + j0..i * n + j0 + jw];
                    if let Some(checked) = protection.checked() {
                        // A (row, block) is one contiguous run of
                        // canonical words, so its flips are one slice
                        // of the sorted plan.
                        let per_column = (groups * channels) as u64;
                        let first = (i * n + j0) as u64 * per_column;
                        let faults = planned_in(plan, first, first + jw as u64 * per_column);
                        checked.note_injected(faults.len());
                        // Columns the lanes cannot vouch for: all of them
                        // without lanes, else the inconsistent lanes.
                        let mut rerun = (1u32 << jw) - 1;
                        if let Some(lanes) = &checked_lanes {
                            let layout = (first, groups, channels);
                            let table = stage_deltas(&mut scratch.deltas, faults, layout);
                            let mask = lanes.block8::<G>(
                                &a16[..channels],
                                a_rns.group_offset(i, 0),
                                &lane_b16[..channels],
                                lane_b_base,
                                stride,
                                row_pa2,
                                &scratch.pb2,
                                table,
                                &mut lane_out,
                            );
                            if table.is_some() {
                                clear_deltas(&mut scratch.deltas, faults, layout);
                            }
                            if let Some(mask) = mask {
                                dst.copy_from_slice(&lane_out[..jw]);
                                rerun &= mask;
                            }
                        }
                        while rerun != 0 {
                            let jj = rerun.trailing_zeros() as usize;
                            rerun &= rerun - 1;
                            let col_first = first + jj as u64 * per_column;
                            dst[jj] = checked.column_sum(
                                &self.converter,
                                a_rns,
                                cols,
                                (i, col_start + j0 + jj),
                                row_pa2,
                                (
                                    planned_in(faults, col_first, col_first + per_column),
                                    col_first,
                                ),
                                &mut scratch.residues,
                            )?;
                        }
                        continue;
                    }
                    if let Some(lanes) = &fused {
                        let a_off = a_rns.group_offset(i, 0);
                        if lanes.block8::<G>(
                            [a0, a1, a2],
                            a_off,
                            lane_b,
                            lane_b_base,
                            stride,
                            row_pa2,
                            &scratch.pb2,
                            &mut lane_out,
                        ) {
                            dst.copy_from_slice(&lane_out[..jw]);
                            continue;
                        }
                    }
                    acc[..jw].fill(0.0);
                    for (gi, &pa) in row_pa2.iter().enumerate() {
                        let a_off = a_rns.group_offset(i, gi);
                        for (jj, slot) in acc[..jw].iter_mut().enumerate() {
                            let col = col_start + j0 + jj;
                            let b_off = cols.group_offset(col, gi);
                            // Fig. 2 steps 5-7: one modular dot per
                            // channel, then the fused CRT — exact
                            // integers up to the recombination.
                            let integer = crt_signed(
                                dot::<G>(a0, a_off, b0, b_off),
                                dot::<G>(a1, a_off, b1, b_off),
                                dot::<G>(a2, a_off, b2, b_off),
                            );
                            // Fig. 2 step 8, exponent recombination.
                            let pb2 = pow2(cols.scale_exp(col, gi));
                            *slot += (integer as f64 * (pa * pb2)) as f32;
                        }
                    }
                    dst.copy_from_slice(&acc[..jw]);
                }
            }
            return Ok(());
        }
        if protection.checked().is_some() {
            // Wide-tier planes: the canonical-order checked loop.
            return self.rns_generic(a_rns, cols, col_start, (m, n), out, protection, plan);
        }
        let mut acc = [0.0f32; JW];
        for j0 in (0..n).step_by(JW) {
            let jw = (n - j0).min(JW);
            for i in 0..m {
                acc[..jw].fill(0.0);
                for gi in 0..a_rns.groups_per_row {
                    let a_off = a_rns.group_offset(i, gi);
                    let ae = a_rns.scale_exp(i, gi);
                    let pa2 = pow2(ae);
                    for (jj, slot) in acc[..jw].iter_mut().enumerate() {
                        let col = col_start + j0 + jj;
                        let b_off = cols.group_offset(col, gi);
                        // Fig. 2 steps 5-6: one modular dot per channel…
                        // mirage-lint: region(int_kernel)
                        let residues = [
                            p0.group_dot_fixed::<G>(a_off, q0, b_off, m0),
                            p1.group_dot_fixed::<G>(a_off, q1, b_off, m1),
                            p2.group_dot_fixed::<G>(a_off, q2, b_off, m2),
                        ];
                        // …step 7 reverse conversion, step 8 exponent
                        // recombination (pow2(ae)·pow2(be) is the exact
                        // power of two 2^(ae+be); see the BFP kernel).
                        // mirage-lint: allow(float_ok) -- CRT output is bounded by Eq. 13 (< 2^52), so the i64 -> f64 conversion is lossless
                        let integer = self.converter.to_signed_trusted(&residues) as f64;
                        // mirage-lint: end_region(int_kernel)
                        let pb2 = pow2(cols.scale_exp(col, gi));
                        *slot += (integer * (pa2 * pb2)) as f32;
                    }
                }
                for (jj, &v) in acc[..jw].iter().enumerate() {
                    out[i * n + j0 + jj] = v;
                }
            }
        }
        Ok(())
    }

    /// The fully generic kernel: any channel count, any group size.
    /// Visits words in canonical order, so the protected instantiation
    /// consumes its plan front to back.
    // mirage-lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn rns_generic<P: Protection>(
        &self,
        a_rns: &PackedRnsMatrix,
        cols: &PackedRnsMatrix,
        col_start: usize,
        (m, n): (usize, usize),
        out: &mut [f32],
        protection: &P,
        plan: &[ResidueFault],
    ) -> Result<()> {
        let moduli = self.moduli.moduli();
        let g = a_rns.g;
        let channels = a_rns.planes.len();
        // Per-group CRT scratch, hoisted out of every loop.
        // mirage-lint: allow(alloc_ok) -- one CRT scratch vector per GEMM call, hoisted out of all three loops
        let mut residues_out = vec![0u64; channels];
        let mut faults = plan.iter().peekable();
        let mut word = 0u64;
        for i in 0..m {
            for j in 0..n {
                let col = col_start + j;
                let mut acc = 0.0f32;
                for gi in 0..a_rns.groups_per_row {
                    let a_off = a_rns.group_offset(i, gi);
                    let b_off = cols.group_offset(col, gi);
                    let integer = if let Some(checked) = protection.checked() {
                        let pending = faults.len();
                        checked.group_residues(
                            a_rns,
                            cols,
                            a_off,
                            b_off,
                            &mut faults,
                            word,
                            &mut residues_out,
                        );
                        checked.note_injected(pending - faults.len());
                        word += channels as u64;
                        checked.decode(&self.converter, &residues_out)? as f64
                    } else {
                        // The modular dot products the MMVMUs compute
                        // (Fig. 2 steps 5-6), one per modulus channel.
                        // mirage-lint: region(int_kernel)
                        for (channel, &modulus) in moduli.iter().enumerate() {
                            residues_out[channel] = a_rns.planes[channel].group_dot(
                                a_off,
                                &cols.planes[channel],
                                b_off,
                                g,
                                modulus,
                            );
                        }
                        // mirage-lint: end_region(int_kernel)
                        // Reverse conversion (Fig. 2 step 7).
                        self.converter.to_signed_trusted(&residues_out) as f64
                    };
                    // Exponent recombination (step 8).
                    let scale_exp = a_rns.scale_exp(i, gi) + cols.scale_exp(col, gi);
                    acc += (integer * pow2(scale_exp)) as f32;
                }
                out[i * n + j] = acc;
            }
        }
        Ok(())
    }
}

impl GemmEngine for RnsBfpEngine {
    fn name(&self) -> &'static str {
        "mirage-rns-bfp"
    }

    /// `true`: same per-row/per-column BFP grouping as
    /// [`BfpEngine`](super::BfpEngine); the residue round trip is exact
    /// integer arithmetic per group.
    fn tile_invariant(&self) -> bool {
        true
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (_m, _k, n) = gemm_dims(a, b)?;
        // Forward conversion of the B side (in hardware: shift-based,
        // per §IV-B); the A side converts inside the shared kernel.
        let cols = PackedRnsMatrix::pack_cols(b, self.config, &self.moduli)?;
        let mut out = Vec::new();
        let m = self.gemm_with_packed_into(a, &cols, 0, n, &mut out, &())?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Quantizes **and** forward-converts the columns of `B` once: the
    /// prepared state holds packed residue planes, so repeated inference
    /// pays neither the quantizer nor the forward converter for the
    /// weights.
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        let packed = PackedRnsMatrix::pack_cols(b, self.config, &self.moduli)?;
        PreparedRhs::new(
            self.name(),
            b,
            Arc::new(PreparedRnsCols {
                config: self.config,
                moduli: self.moduli.clone(),
                packed,
            }),
        )
    }

    /// Reuses pre-converted weight residue planes, writing straight into
    /// the caller's buffer, then applies the epilogue in one pass.
    /// Preparations from other engines, other operating points or other
    /// moduli sets are [`TensorError::ForeignPreparation`].
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let (_m, _k, n) = b.dims(a)?;
        let state = b.state_for(self.name(), |state: &PreparedRnsCols| {
            state.config == self.config && state.moduli == self.moduli
        })?;
        let m = self.gemm_with_packed_into(a, &state.packed, b.col_start(), n, out, &())?;
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::BfpEngine;
    use mirage_bfp::{BfpBlock, RoundingMode};
    use mirage_rns::residue;
    use rand::SeedableRng;

    /// The legacy per-group heap-object RNS GEMM, kept in tests as the
    /// oracle: `BfpBlock` chains, per-group `Vec<Vec<u64>>` residues,
    /// validated CRT reverse conversion, `exp2` recombination. (A
    /// sibling copy in `tests/parallel_determinism.rs` pins the same
    /// oracle across the parallel × prepared × batch grid — keep them
    /// in sync; the oracle is frozen legacy semantics.)
    fn legacy_rns_gemm(a: &Tensor, b: &Tensor, engine: &RnsBfpEngine) -> Tensor {
        let (m, n) = (a.shape()[0], b.shape()[1]);
        let moduli = engine.moduli().moduli();
        let converter = CrtConverter::new(engine.moduli());
        let convert = |blocks: Vec<Vec<BfpBlock>>| -> Vec<Vec<(i32, Vec<Vec<u64>>)>> {
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

    /// A `k × n` matrix whose groups (along either dimension) cover
    /// every quantizer branch: ordinary values, NaN/±∞ lanes, all-zero
    /// stretches and subnormal-only stretches.
    fn mixed_matrix(k: usize, n: usize, seed: u64) -> Tensor {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let plain = Tensor::randn(&[k, n], 1.0, &mut rng);
        let tiny = f32::from_bits(5);
        let data = (0..k * n)
            .map(|i| {
                let (r, j) = (i / n, i % n);
                match (j / 3 + r / 8) % 9 {
                    0 if (r + j) % 7 == 2 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][r % 3],
                    1 => 0.0,
                    2 => tiny * (1 + i % 5) as f32 * if i % 2 == 0 { 1.0 } else { -1.0 },
                    _ => plain.data()[i],
                }
            })
            .collect();
        Tensor::from_vec(data, &[k, n]).unwrap()
    }

    /// A plane's tier and widened residues.
    fn plane_words(plane: &ResiduePlane) -> (usize, Vec<u64>) {
        match (plane.as_u16(), plane.as_u32(), plane.as_u64()) {
            (Some(p), _, _) => (16, p.iter().map(|&r| u64::from(r)).collect()),
            (_, Some(p), _) => (32, p.iter().map(|&r| u64::from(r)).collect()),
            (_, _, Some(p)) => (64, p.to_vec()),
            _ => unreachable!("a plane has exactly one tier"),
        }
    }

    fn assert_same_packing(got: &PackedRnsMatrix, want: &PackedRnsMatrix, what: &str) {
        assert_eq!(
            (got.rows, got.k, got.groups_per_row, got.g),
            (want.rows, want.k, want.groups_per_row, want.g),
            "{what}"
        );
        assert_eq!(got.scale_exps, want.scale_exps, "{what}");
        assert_eq!(got.planes.len(), want.planes.len(), "{what}");
        for (c, (p, q)) in got.planes.iter().zip(&want.planes).enumerate() {
            assert_eq!(plane_words(p), plane_words(q), "{what}, channel {c}");
        }
    }

    #[test]
    fn one_pass_packers_match_the_transpose_oracle() {
        // The oracle is the packing the one-pass packers replaced:
        // `transpose2d`, the row quantizer into an `i32` buffer, then a
        // `reduce_i128` pass per channel (`from_packed`). Planes, scale
        // exponents and the BFP engine's `i32`/`i16` buffers must all
        // be bit-identical, including on channels the branch-free
        // conversion cannot take (bm = 6 against 63; bm = 4 against
        // {11, 13, 16, 9}).
        let sets = [
            ModuliSet::special_set(5).unwrap(),
            ModuliSet::special_set(6).unwrap(),
            ModuliSet::new(&[11, 13, 16, 9]).unwrap(),
        ];
        let mut fallback_seen = false;
        for mode in [RoundingMode::Truncate, RoundingMode::RoundNearest] {
            for bm in [4u32, 5, 6] {
                for g in [8usize, 16, 32] {
                    let config = BfpConfig::new(bm, g).unwrap().with_rounding(mode);
                    for set in sets.iter() {
                        if !set.supports_dot_product(bm, g) {
                            continue;
                        }
                        fallback_seen |= set
                            .moduli()
                            .iter()
                            .any(|m| config.max_mantissa() as u64 >= m.value());
                        for (k, n) in [(g, 8), (2 * g + 3, 13), (g - 1, 1), (5 * g, 17)] {
                            let b = mixed_matrix(k, n, (bm as usize * 100 + g + k * n) as u64);
                            let bt = b.transpose2d().unwrap();
                            let oracle =
                                PackedBfpMatrix::quantize_rows(bt.data(), n, k, config).unwrap();
                            let what = format!("{k}x{n} {config} {mode:?} over {set}");
                            assert_eq!(BfpEngine::pack_cols(&b, config).unwrap(), oracle, "{what}");
                            assert_same_packing(
                                &PackedRnsMatrix::pack_cols(&b, config, set).unwrap(),
                                &PackedRnsMatrix::from_packed(&oracle, set),
                                &format!("cols {what}"),
                            );
                            let rows =
                                PackedBfpMatrix::quantize_rows(b.data(), k, n, config).unwrap();
                            assert_same_packing(
                                &PackedRnsMatrix::pack_rows(&b, config, set).unwrap(),
                                &PackedRnsMatrix::from_packed(&rows, set),
                                &format!("rows {what}"),
                            );
                        }
                    }
                }
            }
        }
        assert!(
            fallback_seen,
            "the grid must exercise the reduce_i128 fallback"
        );
    }

    #[test]
    fn flat_kernel_is_bit_identical_to_legacy_groups() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let cfg = BfpConfig::mirage_default();
        for engine in [
            RnsBfpEngine::with_min_special_set(cfg).unwrap(),
            RnsBfpEngine::new(cfg, ModuliSet::new(&[11, 13, 16, 9]).unwrap()).unwrap(),
        ] {
            for (m, k, n) in [(1, 1, 1), (3, 19, 5), (5, 33, 7), (4, 64, 9)] {
                let a = Tensor::randn(&[m, k], 1.0, &mut rng);
                let b = Tensor::randn(&[k, n], 1.0, &mut rng);
                let flat = engine.gemm(&a, &b).unwrap();
                let legacy = legacy_rns_gemm(&a, &b, &engine);
                assert_eq!(flat.data(), legacy.data(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn column_windows_share_the_residue_planes() {
        let cfg = BfpConfig::mirage_default();
        crate::engines::prepared::check_column_windows(
            &RnsBfpEngine::with_min_special_set(cfg).unwrap(),
        );
    }

    #[test]
    fn bit_identical_to_plain_bfp() {
        // The paper's core claim: RNS adds zero numerical error.
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let cfg = BfpConfig::mirage_default();
        let rns = RnsBfpEngine::with_min_special_set(cfg).unwrap();
        let bfp = BfpEngine::new(cfg);
        for (m, k, n) in [(4, 16, 4), (3, 50, 7), (8, 128, 8)] {
            let a = Tensor::randn(&[m, k], 1.0, &mut rng);
            let b = Tensor::randn(&[k, n], 1.0, &mut rng);
            let c_rns = rns.gemm(&a, &b).unwrap();
            let c_bfp = bfp.gemm(&a, &b).unwrap();
            assert_eq!(c_rns.data(), c_bfp.data(), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn bit_identical_with_arbitrary_coprime_set() {
        // Accuracy is independent of the moduli values (§IV-B).
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let cfg = BfpConfig::new(4, 16).unwrap();
        let moduli = ModuliSet::new(&[11, 13, 16, 9]).unwrap(); // M = 20592 > 2*3600
        let rns = RnsBfpEngine::new(cfg, moduli).unwrap();
        let a = Tensor::randn(&[5, 32], 1.0, &mut rng);
        let b = Tensor::randn(&[32, 5], 1.0, &mut rng);
        let c_rns = rns.gemm(&a, &b).unwrap();
        let c_bfp = BfpEngine::new(cfg).gemm(&a, &b).unwrap();
        assert_eq!(c_rns.data(), c_bfp.data());
    }

    #[test]
    fn selects_paper_k_values() {
        // kmin = 4 for bm=3, 5 for bm=4, 6 for bm=5 (§VI-A1, at g=16).
        for (bm, expected_k) in [(3, 4), (4, 5), (5, 6)] {
            let cfg = BfpConfig::new(bm, 16).unwrap();
            let e = RnsBfpEngine::with_min_special_set(cfg).unwrap();
            assert_eq!(e.moduli().special_k(), Some(expected_k), "bm = {bm}");
        }
    }

    #[test]
    fn prepared_residues_are_bit_identical() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        let cfg = BfpConfig::mirage_default();
        let rns = RnsBfpEngine::with_min_special_set(cfg).unwrap();
        let b = Tensor::randn(&[40, 6], 1.0, &mut rng);
        let prepared = rns.prepare(&b).unwrap();
        for _ in 0..2 {
            let a = Tensor::randn(&[5, 40], 1.0, &mut rng);
            assert_eq!(
                rns.gemm_prepared(&a, &prepared).unwrap().data(),
                rns.gemm(&a, &b).unwrap().data()
            );
        }
    }

    #[test]
    fn decode_agrees_with_rrns_detect_on_corrupted_vectors() {
        let base = ModuliSet::special_set(5).unwrap();
        let rrns = RedundantRns::new(&[31, 32, 33], &[37, 41]).unwrap();
        let converter = CrtConverter::new(&base);
        let checked = Checked {
            rrns: &rrns,
            injector: None,
        };
        let moduli: Vec<u64> = rrns.full_set().moduli().iter().map(|m| m.value()).collect();
        for value in [-16367i128, -4242, -1, 0, 1, 900, 16367] {
            let clean = rrns.encode(value).unwrap();
            assert_eq!(checked.decode(&converter, &clean).unwrap(), value);
            for channel in 0..moduli.len() {
                for delta in [1u64, moduli[channel] - 1] {
                    let mut corrupted = clean.clone();
                    corrupted[channel] = (corrupted[channel] + delta) % moduli[channel];
                    assert!(rrns.detect(&corrupted).unwrap());
                    // Single-channel corruption: decode must recover the
                    // original value exactly.
                    assert_eq!(
                        checked.decode(&converter, &corrupted).unwrap(),
                        value,
                        "value {value}, channel {channel}, delta {delta}"
                    );
                }
            }
        }
    }

    #[test]
    fn delta_slots_follow_the_checked_lane_table_layout() {
        let (first, groups, channels) = (1000u64, 3usize, 5usize);
        let mut seen = vec![false; groups * channels * rns_simd::BLOCK];
        for jj in 0..rns_simd::BLOCK {
            for gi in 0..groups {
                for c in 0..channels {
                    let word = first + ((jj * groups + gi) * channels + c) as u64;
                    let slot = delta_slot(word, (first, groups, channels));
                    assert_eq!(slot, (gi * channels + c) * rns_simd::BLOCK + jj);
                    seen[slot] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s), "the block's words cover the table");
    }

    #[test]
    fn rejects_undersized_moduli() {
        let cfg = BfpConfig::new(5, 64).unwrap();
        let too_small = ModuliSet::special_set(4).unwrap();
        assert!(matches!(
            RnsBfpEngine::new(cfg, too_small),
            Err(TensorError::InvalidGeometry(_))
        ));
    }
}
