//! BFP GEMM routed bit-exactly through RNS residues.

use super::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::faults::{FaultInjector, ResidueFault};
use crate::{Result, Tensor, TensorError};
#[cfg(test)]
use mirage_bfp::PackedBfpMatrix;
use mirage_bfp::{pow2, BfpConfig, GroupSink, SimdPolicy, SimdTier};
use mirage_rns::convert::{CrtConverter, ReverseConverter};
use mirage_rns::planes::{PANEL, QUAD};
use mirage_rns::simd::{self as rns_simd, CheckedLanes, Crt3Lanes};
use mirage_rns::{ModuliSet, Modulus, RedundantRns, ResiduePlane, RnsError};
use std::sync::Arc;

/// Most channels the AVX2 blocks read: three base plus two redundant.
const LANE_CHANNELS: usize = rns_simd::CHANNELS + rns_simd::MAX_REDUNDANT;

/// The two operand layouts of the panel geometry (see
/// [`mirage_rns::planes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// `A`: each row's groups back to back at the padded stride.
    Rows,
    /// `B`: the columns cut into k-interleaved 8-column panels.
    Panels,
}

/// A GEMM operand forward-converted into the RNS domain: one flat
/// residue **plane** per modulus channel in the BFP panel geometry of
/// `mirage_bfp::BfpPanels` (groups padded to 4-lane quads, padding
/// lanes holding residue 0), plus the group scale exponents. `A` is
/// packed row-major ([`PackedRnsMatrix::pack_rows`]); `B`'s columns are
/// packed as 8-column panels ([`PackedRnsMatrix::pack_cols`]), scale
/// exponents per (panel, group) as 8 `i32`s. Every plane takes the
/// narrowest exact lane width its modulus permits: `u8` for `m ≤ 128`,
/// the lanes the AVX2 kernel reads.
///
/// Built in **one pass** from the operand's stored layout: the packers
/// quantize each group and convert it into every channel plane while
/// its mantissae are still in registers, so no `i32` mantissa buffer is
/// ever materialized and `B` is never transposed. Conversion is the
/// branch-free [`ResiduePlane::write_quads`] lane whenever the
/// operating point keeps every mantissa below the modulus
/// (`max_mantissa < m`, e.g. `bm = 4` against `{31, 32, 33}`), the
/// exact reduction otherwise.
#[derive(Debug)]
pub(crate) struct PackedRnsMatrix {
    /// Packed rows: `A`'s rows or `B`'s columns.
    pub(crate) rows: usize,
    pub(crate) k: usize,
    pub(crate) groups: usize,
    /// Quads per padded group: `⌈g / 4⌉`.
    pub(crate) quads: usize,
    layout: Layout,
    /// One [`ResiduePlane`] per modulus channel.
    pub(crate) planes: Vec<ResiduePlane>,
    /// One shared scale exponent per group (dead panel lanes hold 0).
    pub(crate) scale_exps: Vec<i32>,
}

/// The [`GroupSink`] that forward-converts each finished group into
/// every channel plane at its place in the layout (Fig. 2 step 2).
struct PlaneSink<'a> {
    layout: Layout,
    groups: usize,
    stride: usize,
    max_mantissa: u64,
    moduli: &'a [Modulus],
    planes: &'a mut [ResiduePlane],
    scale_exps: &'a mut [i32],
}

impl GroupSink for PlaneSink<'_> {
    #[inline(always)]
    fn put(&mut self, index: usize, lanes: &[i32], scale_exp: i32) {
        let (at, slot, quad_stride) = match self.layout {
            Layout::Rows => (index * self.stride, index, QUAD),
            Layout::Panels => {
                let (j, gi) = (index / self.groups, index % self.groups);
                let block = j / PANEL * self.groups + gi;
                let lane = j % PANEL;
                (
                    block * self.stride * PANEL + lane * QUAD,
                    block * PANEL + lane,
                    QUAD * PANEL,
                )
            }
        };
        for (plane, &modulus) in self.planes.iter_mut().zip(self.moduli) {
            plane.write_quads(at, quad_stride, lanes, modulus, self.max_mantissa);
        }
        // The AVX2 kernel builds 2^scale_exp from the exponent bits,
        // which is exact in the normal f64 range.
        debug_assert!((-1022..=1023).contains(&scale_exp));
        self.scale_exps[slot] = scale_exp;
    }
}

impl PackedRnsMatrix {
    /// Quantizes the rows of `a` (groups along each row) and converts
    /// them into `moduli`'s planes in one pass: the `A` side.
    pub(crate) fn pack_rows(a: &Tensor, config: BfpConfig, moduli: &ModuliSet) -> Result<Self> {
        let (rows, k) = (a.shape()[0], a.shape()[1]);
        Self::pack(Layout::Rows, rows, k, config, moduli, |sink| {
            mirage_bfp::pack_rows(a.data(), rows, k, config, sink)
        })
    }

    /// Quantizes the columns of `b` (groups down each column) and
    /// converts them into `moduli`'s panels in one pass over `b`'s
    /// row-major storage — the `B` side shared by the RNS-BFP and
    /// protected engines' `gemm` and `prepare`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `b` is rank-2.
    pub(crate) fn pack_cols(b: &Tensor, config: BfpConfig, moduli: &ModuliSet) -> Result<Self> {
        b.require_rank(2)?;
        let (k, n) = (b.shape()[0], b.shape()[1]);
        Self::pack(Layout::Panels, n, k, config, moduli, |sink| {
            mirage_bfp::pack_cols(b.data(), k, n, config, sink)
        })
    }

    /// Sizes the planes for `rows` packed rows of reduction length `k`
    /// in `layout` and lets `fill` run a packer into them.
    fn pack(
        layout: Layout,
        rows: usize,
        k: usize,
        config: BfpConfig,
        moduli: &ModuliSet,
        fill: impl FnOnce(&mut PlaneSink<'_>) -> mirage_bfp::Result<()>,
    ) -> Result<Self> {
        let mut packed = Self::zeroed(layout, rows, k, config, moduli);
        fill(&mut PlaneSink {
            layout,
            groups: packed.groups,
            stride: packed.quads * QUAD,
            max_mantissa: config.max_mantissa().unsigned_abs(),
            moduli: moduli.moduli(),
            planes: &mut packed.planes,
            scale_exps: &mut packed.scale_exps,
        })?;
        Ok(packed)
    }

    /// All-zero planes and scale exponents for `rows` packed rows of
    /// reduction length `k` in `layout` (a ragged last panel included).
    fn zeroed(
        layout: Layout,
        rows: usize,
        k: usize,
        config: BfpConfig,
        moduli: &ModuliSet,
    ) -> Self {
        let g = config.group_size();
        let (groups, quads) = (k.div_ceil(g), g.div_ceil(QUAD));
        let slots = match layout {
            Layout::Rows => rows,
            Layout::Panels => rows.div_ceil(PANEL) * PANEL,
        } * groups;
        PackedRnsMatrix {
            rows,
            k,
            groups,
            quads,
            layout,
            planes: moduli
                .moduli()
                .iter()
                .map(|&modulus| ResiduePlane::zeroed(slots * quads * QUAD, modulus, g))
                .collect(),
            scale_exps: vec![0; slots],
        }
    }

    /// The packing the one-pass packers replaced, kept as their oracle:
    /// a packed mantissa buffer (`rows` along `k`, as
    /// [`PackedBfpMatrix::quantize_rows`] lays it out) reduced lane by
    /// lane through [`mirage_rns::Modulus::reduce_i128`] and placed by
    /// the layout's index arithmetic.
    #[cfg(test)]
    fn from_packed(packed: &PackedBfpMatrix, moduli: &ModuliSet, layout: Layout) -> Self {
        let (rows, k) = (packed.rows(), packed.k());
        let mut out = Self::zeroed(layout, rows, k, packed.config(), moduli);
        let quad_stride = match layout {
            Layout::Rows => QUAD,
            Layout::Panels => QUAD * PANEL,
        };
        for r in 0..rows {
            for gi in 0..out.groups {
                let at = match layout {
                    Layout::Rows => out.group_offset(r, gi),
                    Layout::Panels => out.group_offset(r, gi) + r % PANEL * QUAD,
                };
                let lanes = packed.group_mantissas(r, gi);
                for (plane, &m) in out.planes.iter_mut().zip(moduli.moduli()) {
                    for (t, &v) in lanes.iter().enumerate() {
                        // One lane per run, through the exact reduction.
                        let lane = at + t / QUAD * quad_stride + t % QUAD;
                        plane.write_run(lane, &[v], m, u64::MAX);
                    }
                }
                let slot = out.exp_slot(r, gi);
                out.scale_exps[slot] = packed.group_scale_exp(r, gi);
            }
        }
        out
    }

    /// Lanes per packed row group (`A`) or per panel group (`B`).
    fn group_lanes(&self) -> usize {
        match self.layout {
            Layout::Rows => self.quads * QUAD,
            Layout::Panels => self.quads * QUAD * PANEL,
        }
    }

    /// Flat offset of group `gi` of packed row `row` within every
    /// channel plane: of the row's own group (`A`), or of the group of
    /// the panel holding column `row` (`B`, where the column's quad `q`
    /// sits `row % 8 · 4 + q · 32` lanes on).
    pub(crate) fn group_offset(&self, row: usize, gi: usize) -> usize {
        match self.layout {
            Layout::Rows => (row * self.groups + gi) * self.group_lanes(),
            Layout::Panels => (row / PANEL * self.groups + gi) * self.group_lanes(),
        }
    }

    /// Index of the scale exponent of group `gi` of packed row `row`.
    fn exp_slot(&self, row: usize, gi: usize) -> usize {
        match self.layout {
            Layout::Rows => row * self.groups + gi,
            Layout::Panels => (row / PANEL * self.groups + gi) * PANEL + row % PANEL,
        }
    }

    /// The shared scale exponent of group `gi` of packed row `row`.
    pub(crate) fn scale_exp(&self, row: usize, gi: usize) -> i32 {
        self.scale_exps[self.exp_slot(row, gi)]
    }

    /// Packed row `row` (`A`) or panel `row` (`B`) of every plane, as
    /// `u8` lanes, with its scale exponents — the operands of one AVX2
    /// block — or `None` unless every plane is `u8` and at most
    /// [`LANE_CHANNELS`] are.
    fn u8_block(&self, row: usize) -> Option<([&[u8]; LANE_CHANNELS], &[i32])> {
        let mut lanes: [&[u8]; LANE_CHANNELS] = Default::default();
        if self.planes.len() > LANE_CHANNELS {
            return None;
        }
        let span = self.groups * self.group_lanes();
        for (view, plane) in lanes.iter_mut().zip(&self.planes) {
            *view = plane.as_u8()?.get(row * span..(row + 1) * span)?;
        }
        let exps = match self.layout {
            Layout::Rows => self.groups,
            Layout::Panels => self.groups * PANEL,
        };
        Some((lanes, self.scale_exps.get(row * exps..(row + 1) * exps)?))
    }
}

/// Prepared B-side state: the columns of `B` quantized and pushed
/// through forward conversion into residue panels, tagged with the
/// operating point and moduli set that produced them. Column tiles are
/// windows of the [`PreparedRhs`] holding it.
#[derive(Debug)]
struct PreparedRnsCols {
    config: BfpConfig,
    moduli: ModuliSet,
    packed: PackedRnsMatrix,
}

/// The live lanes of panel `p` inside the output window `col_start ..
/// col_start + n`: `(first, end)` lanes, and the window column of the
/// first live lane.
fn live_lanes(p: usize, col_start: usize, n: usize) -> (usize, usize, usize) {
    let first_col = p * PANEL;
    let lo = col_start.saturating_sub(first_col);
    let hi = (col_start + n - first_col).min(PANEL);
    (lo, hi, first_col + lo - col_start)
}

/// Where one block's canonical words land in the
/// [`rns_simd::CheckedLanes`] delta table: the block's live lanes start
/// at lane `lo`, whose first word is `first`, and each column holds
/// `groups · channels` words.
#[derive(Debug, Clone, Copy)]
struct DeltaLayout {
    first: u64,
    groups: usize,
    channels: usize,
    lo: usize,
}

/// The lane-table slot of a block's canonical word `word`: the delta
/// of lane `jj`, group `gi`, channel `c` sits at `(gi · channels + c) ·
/// 8 + jj`.
fn delta_slot(word: u64, layout: DeltaLayout) -> usize {
    let local = (word - layout.first) as usize;
    let per_column = layout.groups * layout.channels;
    (local % per_column) * PANEL + layout.lo + local / per_column
}

/// Stages a block's planned flips into the all-zero delta table and
/// returns it, or `None` for a fault-free block.
fn stage_deltas<'t>(
    table: &'t mut [u32],
    faults: &[ResidueFault],
    layout: DeltaLayout,
) -> Option<&'t [u32]> {
    if faults.is_empty() {
        return None;
    }
    for fault in faults {
        // `CheckedLanes` admits only moduli up to 128, so `delta < m`
        // fits a lane.
        table[delta_slot(fault.word, layout)] = fault.delta as u32;
    }
    Some(table)
}

/// Restores the zeros [`stage_deltas`] overwrote.
fn clear_deltas(table: &mut [u32], faults: &[ResidueFault], layout: DeltaLayout) {
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

    /// One output element, row `i` × column `col`, through the scalar
    /// panel kernel ([`scalar_panel`]) and [`Checked::decode`], with the
    /// element's planned flips applied: `faults` are its flips in
    /// canonical word order, and `first` is the canonical index of its
    /// first word.
    #[allow(clippy::too_many_arguments)]
    fn checked_sum(
        &self,
        base: &CrtConverter,
        a_rns: &PackedRnsMatrix,
        cols: &PackedRnsMatrix,
        (i, col): (usize, usize),
        (faults, first): (&[ResidueFault], u64),
        residues: &mut [u64],
    ) -> Result<f32> {
        let mut faults = faults.iter().peekable();
        let moduli = self.rrns.full_set().moduli();
        let channels = moduli.len() as u64;
        let lane = col % PANEL;
        let mut sum = [0.0f32];
        let decode = |gi: usize, residues: &mut [u64]| {
            let word = first + gi as u64 * channels;
            for (c, (r, m)) in residues.iter_mut().zip(moduli).enumerate() {
                if let Some(fault) = faults.next_if(|f| f.word == word + c as u64) {
                    *r = (*r + fault.delta) % m.value();
                }
            }
            self.decode(base, residues)
        };
        let block = (i, col / PANEL);
        scalar_panel(
            a_rns,
            cols,
            block,
            (lane, lane + 1),
            moduli,
            residues,
            decode,
            &mut sum,
        )?;
        Ok(sum[0])
    }
}

/// Lanes `lo .. hi` of one block, row `i` × panel `p`, through the scalar
/// panel kernel — the oracle of the AVX2 blocks — into `dst`: per
/// group, one exact modular dot per channel and column
/// ([`ResiduePlane::panel_dots`]), `decode` on each lane's residues in
/// ascending lane order, and the `(int as f64 · (pow2(ae) · pow2(be)))
/// as f32` recombination, groups in ascending order per lane.
/// `residues` holds `8 · channels` words.
// mirage-lint: no_alloc
#[allow(clippy::too_many_arguments)]
fn scalar_panel(
    a_rns: &PackedRnsMatrix,
    cols: &PackedRnsMatrix,
    (i, p): (usize, usize),
    (lo, hi): (usize, usize),
    moduli: &[Modulus],
    residues: &mut [u64],
    mut decode: impl FnMut(usize, &mut [u64]) -> Result<i128>,
    dst: &mut [f32],
) -> Result<()> {
    let channels = moduli.len();
    let mut acc = [0.0f32; PANEL];
    for gi in 0..a_rns.groups {
        let (a_off, b_off) = (a_rns.group_offset(i, gi), cols.group_offset(p * PANEL, gi));
        // Fig. 2 steps 5-6: one modular dot per channel and column.
        // mirage-lint: region(int_kernel)
        let planes = moduli.iter().zip(&a_rns.planes).zip(&cols.planes);
        for (c, ((&modulus, a), b)) in planes.enumerate() {
            let dots = a.panel_dots(a_off, b, b_off, a_rns.quads, modulus);
            for lane in lo..hi {
                residues[lane * channels + c] = dots[lane];
            }
        }
        // mirage-lint: end_region(int_kernel)
        let pa = pow2(a_rns.scale_exp(i, gi));
        for lane in lo..hi {
            // Step 7 reverse conversion, step 8 exponent recombination
            // (pow2(ae)·pow2(be) is the exact power of two 2^(ae+be)).
            // The CRT output is bounded by Eq. 13 (< 2^52), so the i128
            // -> f64 conversion is lossless.
            let lane_residues = &mut residues[lane * channels..(lane + 1) * channels];
            let integer = decode(gi, lane_residues)? as f64;
            let scale = pa * pow2(cols.scale_exp(p * PANEL + lane, gi));
            acc[lane] += (integer * scale) as f32;
        }
    }
    dst.copy_from_slice(&acc[lo..hi]);
    Ok(())
}

/// The planned flips of canonical words `first..end`.
fn planned_in(plan: &[ResidueFault], first: u64, end: u64) -> &[ResidueFault] {
    let plan = &plan[plan.partition_point(|f| f.word < first)..];
    &plan[..plan.partition_point(|f| f.word < end)]
}

/// The AVX2 blocks a GEMM runs, chosen once per call.
enum Lanes {
    /// The unprotected 3-channel block.
    Plain(Crt3Lanes),
    /// The RRNS-checked block over base and redundant channels.
    Checked(CheckedLanes),
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

    /// The shared GEMM kernel: quantizes and forward-converts the rows
    /// of `A` into residue planes, then dots them against the `col_start
    /// .. col_start + n` window of already-converted `B` panels, writing
    /// into a caller buffer. Every step below the quantizer is exact
    /// integer arithmetic, so pre-converting either side cannot change
    /// a single bit. Returns `m`.
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
        if col_start + n > cols.rows || cols.layout != Layout::Panels {
            return Err(TensorError::InvalidGeometry(format!(
                "columns {col_start}..{} outside {} prepared column panels",
                col_start + n,
                cols.rows
            )));
        }
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
        // One reservation of fault draws for every residue word of the
        // call, in canonical order (see `FaultInjector::residue_fault_plan`).
        let plan = protection.checked().map_or_else(Vec::new, |checked| {
            checked.plan(m * n * a_rns.groups * set.len())
        });
        // The AVX2 blocks, when this CPU, policy, moduli set and group
        // size admit them (their exactness bounds are checked here, once
        // per GEMM; see `mirage_rns::simd`).
        let g = self.config.group_size();
        let lanes = match (
            mirage_bfp::simd::resolve_tier(self.simd),
            self.converter.small_constants(),
        ) {
            (SimdTier::Avx2, Some(crt)) => match protection.checked() {
                None => Crt3Lanes::new(set.moduli(), &crt, g).map(Lanes::Plain),
                Some(_) => CheckedLanes::new(set.moduli(), &crt, g).map(Lanes::Checked),
            },
            _ => None,
        };
        let mut scratch = Scratch {
            residues: vec![0; set.len() * PANEL],
            deltas: match (protection.checked(), &lanes) {
                (Some(_), Some(_)) => vec![0; a_rns.groups * set.len() * PANEL],
                _ => Vec::new(),
            },
        };
        out.clear();
        out.resize(m * n, 0.0);
        self.panel_gemm(
            &a_rns,
            cols,
            (col_start, n),
            lanes.as_ref(),
            &mut scratch,
            out,
            protection,
            &plan,
        )?;
        Ok(m)
    }

    /// The panel loop: for each panel of the window, every row of `A`
    /// against its 8 columns. On AVX2 `u8` planes a block is one
    /// [`Crt3Lanes::block`] (unprotected) or [`CheckedLanes::block`]
    /// (protected, with the block's planned flips staged as lane
    /// deltas, each inconsistent lane's column rerun through
    /// [`Checked::checked_sum`]). Everything else runs the scalar panel
    /// kernel [`scalar_panel`] — per column when protected — which
    /// accumulates the same integers through the same recombination
    /// chain.
    // mirage-lint: no_alloc
    #[allow(clippy::too_many_arguments)]
    fn panel_gemm<P: Protection>(
        &self,
        a_rns: &PackedRnsMatrix,
        cols: &PackedRnsMatrix,
        (col_start, n): (usize, usize),
        lanes: Option<&Lanes>,
        scratch: &mut Scratch,
        out: &mut [f32],
        protection: &P,
        plan: &[ResidueFault],
    ) -> Result<()> {
        let (m, groups) = (a_rns.rows, a_rns.groups);
        let channels = a_rns.planes.len();
        let per_column = groups * channels;
        let moduli = self.moduli.moduli();
        let mut lane_out = [0.0f32; PANEL];
        for p in col_start / PANEL..(col_start + n).div_ceil(PANEL) {
            let (lo, hi, first_col) = live_lanes(p, col_start, n);
            let live = (1u32 << hi) - (1u32 << lo);
            let panel = lanes.and_then(|_| cols.u8_block(p));
            for i in 0..m {
                let row = panel.and_then(|_| a_rns.u8_block(i));
                let block = panel.zip(row);
                let dst = &mut out[i * n + first_col..i * n + first_col + hi - lo];
                if let Some(checked) = protection.checked() {
                    // A (row, panel) is one contiguous run of canonical
                    // words, so its flips are one slice of the sorted
                    // plan.
                    let first = ((i * n + first_col) * per_column) as u64;
                    let end = first + ((hi - lo) * per_column) as u64;
                    let faults = planned_in(plan, first, end);
                    checked.note_injected(faults.len());
                    // Columns the lanes cannot vouch for: all of them
                    // without lanes, else the inconsistent lanes.
                    let mut rerun = live;
                    if let (Some(Lanes::Checked(lanes)), Some(((b, b_exps), (a, a_exps)))) =
                        (lanes, block)
                    {
                        let layout = DeltaLayout {
                            first,
                            groups,
                            channels,
                            lo,
                        };
                        let table = stage_deltas(&mut scratch.deltas, faults, layout);
                        let mask = lanes.block(
                            &a[..channels],
                            &b[..channels],
                            a_exps,
                            b_exps,
                            table,
                            &mut lane_out,
                        );
                        if table.is_some() {
                            clear_deltas(&mut scratch.deltas, faults, layout);
                        }
                        if let Some(mask) = mask {
                            dst.copy_from_slice(&lane_out[lo..hi]);
                            rerun &= mask;
                        }
                    }
                    while rerun != 0 {
                        let lane = rerun.trailing_zeros() as usize;
                        rerun &= rerun - 1;
                        let col_first = first + ((lane - lo) * per_column) as u64;
                        let col_end = col_first + per_column as u64;
                        dst[lane - lo] = checked.checked_sum(
                            &self.converter,
                            a_rns,
                            cols,
                            (i, p * PANEL + lane),
                            (planned_in(faults, col_first, col_end), col_first),
                            &mut scratch.residues,
                        )?;
                    }
                    continue;
                }
                if let (Some(Lanes::Plain(lanes)), Some(((b, b_exps), (a, a_exps)))) =
                    (lanes, block)
                {
                    let (a, b) = ([a[0], a[1], a[2]], [b[0], b[1], b[2]]);
                    if lanes.block(a, b, a_exps, b_exps, &mut lane_out) {
                        dst.copy_from_slice(&lane_out[lo..hi]);
                        continue;
                    }
                }
                let decode = |_, r: &mut [u64]| Ok(self.converter.to_signed_trusted(r));
                let residues = &mut scratch.residues;
                scalar_panel(a_rns, cols, (i, p), (lo, hi), moduli, residues, decode, dst)?;
            }
        }
        Ok(())
    }
}

/// Per-call scratch of [`RnsBfpEngine::panel_gemm`], allocated by the
/// caller so the loop itself never allocates: `residues` holds one
/// group's channel residues per lane for the scalar panel kernel, and
/// `deltas` one block's planned fault deltas in the [`CheckedLanes`]
/// table layout (all zero outside a faulted block; empty without
/// checked lanes).
struct Scratch {
    residues: Vec<u64>,
    deltas: Vec<u32>,
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
        let tier = match plane {
            ResiduePlane::U8(_) => 8,
            ResiduePlane::U16(_) => 16,
            ResiduePlane::U32(_) => 32,
            ResiduePlane::U64(_) => 64,
        };
        (tier, (0..plane.len()).map(|i| plane.get(i)).collect())
    }

    fn assert_same_packing(got: &PackedRnsMatrix, want: &PackedRnsMatrix, what: &str) {
        assert_eq!(
            (got.rows, got.k, got.groups, got.quads, got.layout),
            (want.rows, want.k, want.groups, want.quads, want.layout),
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
                                &PackedRnsMatrix::from_packed(&oracle, set, Layout::Panels),
                                &format!("cols {what}"),
                            );
                            let rows =
                                PackedBfpMatrix::quantize_rows(b.data(), k, n, config).unwrap();
                            assert_same_packing(
                                &PackedRnsMatrix::pack_rows(&b, config, set).unwrap(),
                                &PackedRnsMatrix::from_packed(&rows, set, Layout::Rows),
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
        // A block whose live lanes start at `lo` (a window starting
        // inside the panel): lane `lo + jj` holds the `jj`-th column's
        // words.
        for lo in [0usize, 3] {
            let (first, groups, channels) = (1000u64, 3usize, 5usize);
            let layout = DeltaLayout {
                first,
                groups,
                channels,
                lo,
            };
            let mut seen = vec![false; groups * channels * PANEL];
            for jj in 0..PANEL - lo {
                for gi in 0..groups {
                    for c in 0..channels {
                        let word = first + ((jj * groups + gi) * channels + c) as u64;
                        let slot = delta_slot(word, layout);
                        assert_eq!(slot, (gi * channels + c) * PANEL + lo + jj);
                        seen[slot] = true;
                    }
                }
            }
            let covered = seen.iter().filter(|&&s| s).count();
            assert_eq!(
                covered,
                groups * channels * (PANEL - lo),
                "the live lanes' words"
            );
        }
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
