//! Narrow BFP GEMM operands: k-interleaved column panels for `B`, a
//! narrow row buffer for `A`, and the scalar panel kernel.
//!
//! Every BFP GEMM reads `B` as one [`BfpPanels`] and `A` as one
//! [`NarrowRows`]. Both store each mantissa at the narrowest lane width
//! the operating point allows ([`LaneWidth`]): `i8` for `bm ≤ 7` (the
//! paper's `bm = 4` design point), `i16` for `bm ≤ 15`, `i32` above.
//!
//! ## Panel layout
//!
//! `B`'s columns are cut into panels of 8. Within a panel each group of
//! `g` mantissas per column is padded to `quads · 4` lanes and stored
//! k-quad by k-quad, each quad holding 4 consecutive k-lanes of all 8
//! columns:
//!
//! ```text
//! panel p, group gi:  [ quad 0: c0 k0..3 | c1 k0..3 | … | c7 k0..3 ]
//!                     [ quad 1: c0 k4..7 | c1 k4..7 | … | c7 k4..7 ]
//!                     …
//! scale exponents:    (panel, group) → 8 × i32, one per column
//! ```
//!
//! At `i8` one quad is one 32-byte load: 4 k-lanes × 8 columns, so each
//! column's dot lands in its own vector lane with no horizontal
//! reduction (see [`crate::simd`]). Zero padding is exact: padded
//! k-lanes and the dead columns of a ragged last panel hold mantissa 0
//! and scale exponent 0, and contribute nothing to any live dot.
//!
//! `A` is packed row-major at the same width and the same padded group
//! stride, so row `i`'s quad `q` of group `gi` lines up with every
//! column's quad `q`.
//!
//! Both are built in one pass by [`crate::pack_cols`] /
//! [`crate::pack_rows`] through a [`GroupSink`]: no `i32` staging
//! buffer, no transpose.
//!
//! ## The scalar panel kernel
//!
//! [`crate::simd::gemm_panels_into`] runs the AVX2 kernel on `i8`
//! panels and this module's scalar kernel everywhere else. The scalar
//! kernel is the oracle: per output element it sums each group's exact
//! integer dot, scales it by `pow2(ae) · pow2(be)` in `f64`, rounds to
//! `f32` and accumulates groups in ascending order — the chain of
//! [`crate::PackedBfpMatrix::dot_rows`].

use crate::math::pow2;
use crate::packed::{pack_cols, pack_rows, GroupSink};
use crate::simd::GemmTail;
use crate::{BfpConfig, BfpError, Result};
use std::ops::{Add, AddAssign, Mul};

/// Columns per panel: one 256-bit register of `i32`/`f32` lanes.
pub const PANEL: usize = 8;

/// Consecutive k-lanes per column in one interleaved quad.
pub const QUAD: usize = 4;

/// The storage width of a narrow operand's mantissa lanes, chosen from
/// the operating point's largest mantissa magnitude.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWidth {
    /// `i8` lanes: `bm ≤ 7`, so every mantissa lies in `[−127, 127]`.
    I8,
    /// `i16` lanes: `bm ≤ 15`.
    I16,
    /// `i32` lanes: every other operating point.
    I32,
}

impl LaneWidth {
    /// The narrowest width that holds every mantissa of `config`.
    pub fn for_config(config: BfpConfig) -> Self {
        let max = config.max_mantissa();
        if max <= i64::from(i8::MAX) {
            LaneWidth::I8
        } else if max <= i64::from(i16::MAX) {
            LaneWidth::I16
        } else {
            LaneWidth::I32
        }
    }
}

/// One mantissa lane type of a narrow operand.
pub(crate) trait Lane: Copy + Default + Into<i32> + Into<i64> {
    /// `v` at this width; exact because [`LaneWidth::for_config`] only
    /// picks a width that holds every mantissa.
    fn narrow(v: i32) -> Self;
}

impl Lane for i8 {
    #[inline(always)]
    fn narrow(v: i32) -> Self {
        v as i8
    }
}

impl Lane for i16 {
    #[inline(always)]
    fn narrow(v: i32) -> Self {
        v as i16
    }
}

impl Lane for i32 {
    #[inline(always)]
    fn narrow(v: i32) -> Self {
        v
    }
}

/// Mantissa lanes stored at one [`LaneWidth`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Lanes {
    I8(Vec<i8>),
    I16(Vec<i16>),
    I32(Vec<i32>),
}

/// Evaluates `$body` with `$v` bound to the lane vector, whatever its
/// width.
macro_rules! with_lanes {
    ($lanes:expr, $v:ident => $body:expr) => {
        match $lanes {
            Lanes::I8($v) => $body,
            Lanes::I16($v) => $body,
            Lanes::I32($v) => $body,
        }
    };
}

impl Lanes {
    /// `len` zeroed lanes at the width `config` needs.
    fn zeroed(config: BfpConfig, len: usize) -> Self {
        match LaneWidth::for_config(config) {
            LaneWidth::I8 => Lanes::I8(vec![0; len]),
            LaneWidth::I16 => Lanes::I16(vec![0; len]),
            LaneWidth::I32 => Lanes::I32(vec![0; len]),
        }
    }
}

/// Quads per padded group: `ceil(g / 4)`.
fn quads_for(config: BfpConfig) -> usize {
    config.group_size().div_ceil(QUAD)
}

/// The columns of a row-major `k × n` matrix `B`, BFP-quantized along
/// `k` and stored as k-interleaved 8-column panels at the narrowest
/// [`LaneWidth`] — the one representation of a prepared BFP weight
/// (see the module docs for the layout).
///
/// Quantization is bit-identical to
/// [`crate::PackedBfpMatrix::quantize_cols`]: the same one-pass column
/// packer produces every group, and only where its lanes land differs.
///
/// ```
/// use mirage_bfp::{BfpConfig, BfpPanels, LaneWidth, PackedBfpMatrix};
///
/// let cfg = BfpConfig::mirage_default();
/// assert_eq!(LaneWidth::for_config(cfg), LaneWidth::I8); // bm = 4
/// let b = [0.5f32, -1.0, 0.25, 2.0, -0.75, 1.5]; // 2 × 3
/// let panels = BfpPanels::pack_cols(&b, 2, 3, cfg)?;
/// let cols = PackedBfpMatrix::quantize_cols(&b, 2, 3, cfg)?;
/// for j in 0..3 {
///     assert_eq!(panels.mantissa(0, j), cols.group_mantissas(j, 0)[0]);
///     assert_eq!(panels.mantissa(1, j), cols.group_mantissas(j, 0)[1]);
///     assert_eq!(panels.scale_exp(j, 0), cols.group_scale_exp(j, 0));
/// }
/// # Ok::<(), mirage_bfp::BfpError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BfpPanels {
    k: usize,
    n: usize,
    pub(crate) groups: usize,
    pub(crate) quads: usize,
    config: BfpConfig,
    /// `panels · groups · quads · 32` lanes.
    pub(crate) lanes: Lanes,
    /// `panels · groups · 8` shared scale exponents.
    pub(crate) scale_exps: Vec<i32>,
}

impl BfpPanels {
    /// Quantizes the `n` columns of a row-major `k × n` matrix into
    /// panels, in one pass over its stored layout.
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless `data.len() == k * n`.
    pub fn pack_cols(data: &[f32], k: usize, n: usize, config: BfpConfig) -> Result<Self> {
        if data.len() != k * n {
            return Err(BfpError::LengthMismatch {
                left: data.len(),
                right: k * n,
            });
        }
        let (groups, quads) = (k.div_ceil(config.group_size()), quads_for(config));
        let block = groups * PANEL;
        let panels = n.div_ceil(PANEL);
        let mut lanes = Lanes::zeroed(config, panels * block * quads * QUAD);
        let mut scale_exps = vec![0; panels * block];
        let exps = &mut scale_exps;
        with_lanes!(&mut lanes, v => {
            let sink = &mut PanelSink { lanes: v, exps, groups, quads };
            pack_cols(data, k, n, config, sink)
        })?;
        Ok(BfpPanels {
            k,
            n,
            groups,
            quads,
            config,
            lanes,
            scale_exps,
        })
    }

    /// Reduction length `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of columns `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The configuration the columns were quantized with.
    pub fn config(&self) -> BfpConfig {
        self.config
    }

    /// The quantized mantissa at row `r` (along `k`) of column `j`.
    pub fn mantissa(&self, r: usize, j: usize) -> i32 {
        let g = self.config.group_size();
        let (gi, l) = (r / g, r % g);
        let block = (j / PANEL * self.groups + gi) * self.quads * QUAD * PANEL;
        let at = block + (l / QUAD * PANEL + j % PANEL) * QUAD + l % QUAD;
        let m: i64 = with_lanes!(&self.lanes, v => v[at].into());
        m as i32
    }

    /// The shared scale exponent of group `gi` of column `j`.
    pub fn scale_exp(&self, j: usize, gi: usize) -> i32 {
        self.scale_exps[(j / PANEL * self.groups + gi) * PANEL + j % PANEL]
    }
}

/// The rows of a row-major `rows × k` matrix `A`, BFP-quantized along
/// `k` at the narrowest [`LaneWidth`], each group padded to the panel
/// quad stride: the A side of every BFP GEMM. Reusable — a serving
/// thread re-packs each call's activations into the same buffers.
#[derive(Debug, Clone)]
pub struct NarrowRows {
    rows: usize,
    k: usize,
    groups: usize,
    quads: usize,
    config: BfpConfig,
    /// `rows · groups · quads · 4` lanes, row-major.
    pub(crate) lanes: Lanes,
    /// `rows · groups` shared scale exponents.
    pub(crate) scale_exps: Vec<i32>,
}

impl NarrowRows {
    /// An empty buffer for `config`, ready for [`NarrowRows::pack_into`].
    pub fn empty(config: BfpConfig) -> Self {
        NarrowRows {
            rows: 0,
            k: 0,
            groups: 0,
            quads: quads_for(config),
            config,
            lanes: Lanes::zeroed(config, 0),
            scale_exps: Vec::new(),
        }
    }

    /// Quantizes `rows` rows of `k` elements into this buffer, reusing
    /// its allocation. Every lane, padding included, is overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless
    /// `data.len() == rows * k`.
    // mirage-lint: no_alloc
    pub fn pack_into(&mut self, data: &[f32], rows: usize, k: usize) -> Result<()> {
        if data.len() != rows * k {
            return Err(BfpError::LengthMismatch {
                left: data.len(),
                right: rows * k,
            });
        }
        let groups = k.div_ceil(self.config.group_size());
        (self.rows, self.k, self.groups) = (rows, k, groups);
        let len = rows * groups * self.quads * QUAD;
        with_lanes!(&mut self.lanes, v => v.resize(len, 0));
        self.scale_exps.resize(rows * groups, 0);
        let (stride, exps, config) = (self.quads * QUAD, &mut self.scale_exps, self.config);
        with_lanes!(&mut self.lanes, v => {
            let sink = &mut RowSink { stride, lanes: v, exps };
            pack_rows(data, rows, k, config, sink)
        })
    }

    /// Number of packed rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The configuration the rows were quantized with.
    pub fn config(&self) -> BfpConfig {
        self.config
    }
}

/// The [`GroupSink`] writing column groups into panel order.
struct PanelSink<'a, T> {
    lanes: &'a mut [T],
    exps: &'a mut [i32],
    groups: usize,
    quads: usize,
}

impl<T: Lane> GroupSink for PanelSink<'_, T> {
    #[inline(always)]
    fn put(&mut self, index: usize, lanes: &[i32], scale_exp: i32) {
        let (j, gi) = (index / self.groups, index % self.groups);
        let slot = (j / PANEL * self.groups + gi) * PANEL;
        let column = slot * self.quads * QUAD + j % PANEL * QUAD;
        // The panel was allocated zeroed, so a partial last quad's
        // padding lanes are already 0.
        for (q, quad) in lanes.chunks(QUAD).enumerate() {
            let dst = &mut self.lanes[column + q * PANEL * QUAD..][..quad.len()];
            for (d, &v) in dst.iter_mut().zip(quad) {
                *d = T::narrow(v);
            }
        }
        // The AVX2 kernel builds 2^scale_exp from the exponent bits,
        // which is exact in the normal f64 range (both sinks).
        debug_assert!((-1022..=1023).contains(&scale_exp));
        self.exps[slot + j % PANEL] = scale_exp;
    }
}

/// The [`GroupSink`] writing row groups at the padded quad stride.
struct RowSink<'a, T> {
    stride: usize,
    lanes: &'a mut [T],
    exps: &'a mut [i32],
}

impl<T: Lane> GroupSink for RowSink<'_, T> {
    #[inline(always)]
    fn put(&mut self, index: usize, lanes: &[i32], scale_exp: i32) {
        let dst = &mut self.lanes[index * self.stride..(index + 1) * self.stride];
        let (head, pad) = dst.split_at_mut(lanes.len());
        for (d, &v) in head.iter_mut().zip(lanes) {
            *d = T::narrow(v);
        }
        pad.fill(T::default());
        debug_assert!((-1022..=1023).contains(&scale_exp));
        self.exps[index] = scale_exp;
    }
}

/// Checks that `a` against the `col_start .. col_start + n` window of
/// `b` is a well-formed GEMM writing `out`, with an optional bias of
/// length `n`.
pub(crate) fn check_shapes(
    a: &NarrowRows,
    b: &BfpPanels,
    col_start: usize,
    n: usize,
    tail: &GemmTail<'_>,
) -> Result<()> {
    let mismatch = |left, right| Err(BfpError::LengthMismatch { left, right });
    if a.config != b.config {
        return mismatch(a.config.group_size(), b.config.group_size());
    }
    if a.k != b.k {
        return mismatch(a.k, b.k);
    }
    if col_start + n > b.n {
        return mismatch(col_start + n, b.n);
    }
    match tail.bias {
        Some(bias) if bias.len() != n => mismatch(bias.len(), n),
        _ => Ok(()),
    }
}

/// The live lanes of panel `p` inside the output window
/// `col_start .. col_start + n`: `(first, end)` lanes, and the output
/// column of lane 0 (negative when the window starts inside the panel).
#[inline(always)]
pub(crate) fn live_lanes(p: usize, col_start: usize, n: usize) -> (usize, usize, isize) {
    let first_col = p * PANEL;
    let lo = col_start.saturating_sub(first_col);
    let hi = (col_start + n - first_col).min(PANEL);
    (lo, hi, first_col as isize - col_start as isize)
}

/// The scalar panel kernel (see the module docs): `out` is `a.rows() ×
/// n`, shapes validated by [`check_shapes`].
pub(crate) fn gemm_scalar(
    a: &NarrowRows,
    b: &BfpPanels,
    col_start: usize,
    n: usize,
    tail: GemmTail<'_>,
    out: &mut [f32],
) {
    match (&a.lanes, &b.lanes) {
        (Lanes::I8(al), Lanes::I8(bl)) => scalar_lanes(a, al, b, bl, col_start, n, tail, out),
        (Lanes::I16(al), Lanes::I16(bl)) => scalar_lanes(a, al, b, bl, col_start, n, tail, out),
        (Lanes::I32(al), Lanes::I32(bl)) => scalar_lanes(a, al, b, bl, col_start, n, tail, out),
        // Equal configurations (checked) pick equal widths.
        _ => debug_assert!(false, "operand lane widths differ"),
    }
}

/// [`gemm_scalar`] at one lane type: per row and panel, all 8 column
/// dots of each group, then the recombination of the live lanes.
// mirage-lint: no_alloc
#[allow(clippy::too_many_arguments)]
fn scalar_lanes<T: Lane>(
    a: &NarrowRows,
    al: &[T],
    b: &BfpPanels,
    bl: &[T],
    col_start: usize,
    n: usize,
    tail: GemmTail<'_>,
    out: &mut [f32],
) {
    let (groups, stride) = (a.groups, a.quads * QUAD);
    let block = stride * PANEL;
    let max = a.config.max_mantissa() as u128;
    let fits_i32 = stride as u128 * max * max <= i32::MAX as u128;
    let (first, end) = (col_start / PANEL, (col_start + n).div_ceil(PANEL));
    for i in 0..a.rows {
        let a_row = &al[i * groups * stride..(i + 1) * groups * stride];
        let a_exps = &a.scale_exps[i * groups..(i + 1) * groups];
        for p in first..end {
            let mut acc = [0.0f32; PANEL];
            for (gi, &ae) in a_exps.iter().enumerate() {
                let a_g = &a_row[gi * stride..(gi + 1) * stride];
                let b_g = &bl[(p * groups + gi) * block..][..block];
                let b_exps = &b.scale_exps[(p * groups + gi) * PANEL..][..PANEL];
                if fits_i32 {
                    recombine(&mut acc, panel_dots::<T, i32>(a_g, b_g), ae, b_exps);
                } else {
                    recombine(&mut acc, panel_dots::<T, i64>(a_g, b_g), ae, b_exps);
                }
            }
            let (lo, hi, j0) = live_lanes(p, col_start, n);
            for (c, &v) in acc.iter().enumerate().take(hi).skip(lo) {
                let j = (j0 + c as isize) as usize;
                out[i * n + j] = tail.fold(v, j);
            }
        }
    }
}

/// An exact integer group dot, as the `f64` the recombination scales.
trait Dot: Copy + Default + Add<Output = Self> + AddAssign + Mul<Output = Self> {
    fn to_f64(self) -> f64;
}

impl Dot for i32 {
    #[inline(always)]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
}

impl Dot for i64 {
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
}

/// Folds one group's 8 column dots into the panel's accumulators: the
/// `(dot as f64 · (pow2(ae) · pow2(be))) as f32` chain of every BFP
/// kernel, in the caller's ascending group order.
#[inline(always)]
fn recombine<A: Dot>(acc: &mut [f32; PANEL], ints: [A; PANEL], ae: i32, b_exps: &[i32]) {
    let pa2 = pow2(ae);
    for ((slot, int), &be) in acc.iter_mut().zip(ints).zip(b_exps) {
        *slot += (int.to_f64() * (pa2 * pow2(be))) as f32;
    }
}

/// The 8 exact column dots of one panel group: lanewise products of
/// each quad with the row's quad, accumulated in `A`, then each
/// column's 4 lanes summed. Every partial sum is a subset-sum of one
/// column's products, so `A = i32` is exact whenever the padded group's
/// worst case fits it; otherwise `A = i64`.
// mirage-lint: region(int_kernel)
#[inline(always)]
fn panel_dots<T: Copy + Into<A>, A: Dot>(a_g: &[T], b_g: &[T]) -> [A; PANEL] {
    let mut lanes = [A::default(); QUAD * PANEL];
    for (a_q, b_q) in a_g.chunks_exact(QUAD).zip(b_g.chunks_exact(QUAD * PANEL)) {
        let a_q: [A; QUAD] = std::array::from_fn(|t| a_q[t].into());
        let a_lanes: [A; QUAD * PANEL] = std::array::from_fn(|l| a_q[l % QUAD]);
        for ((slot, &x), &w) in lanes.iter_mut().zip(&a_lanes).zip(b_q) {
            *slot += x * w.into();
        }
    }
    std::array::from_fn(|c| {
        let column = &lanes[c * QUAD..(c + 1) * QUAD];
        (column[0] + column[1]) + (column[2] + column[3])
    })
}
// mirage-lint: end_region(int_kernel)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedBfpMatrix;

    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (((state >> 40) as f32 / 8388608.0) - 1.0) * 4.0
            })
            .collect()
    }

    #[test]
    fn widths_follow_the_mantissa_range() {
        for (bm, width) in [
            (1, LaneWidth::I8),
            (7, LaneWidth::I8),
            (8, LaneWidth::I16),
            (15, LaneWidth::I16),
            (16, LaneWidth::I32),
            (23, LaneWidth::I32),
        ] {
            assert_eq!(
                LaneWidth::for_config(BfpConfig::new(bm, 16).unwrap()),
                width
            );
        }
    }

    #[test]
    fn panels_hold_the_column_packer_groups() {
        for (bm, g) in [(4u32, 16usize), (7, 5), (8, 4), (15, 32), (20, 3)] {
            let config = BfpConfig::new(bm, g).unwrap();
            for (k, n) in [(1, 1), (19, 9), (33, 17), (0, 3), (7, 0)] {
                let data = values(k * n, (k * 7 + n) as u64);
                let panels = BfpPanels::pack_cols(&data, k, n, config).unwrap();
                let cols = PackedBfpMatrix::quantize_cols(&data, k, n, config).unwrap();
                for j in 0..n {
                    for r in 0..k {
                        assert_eq!(
                            panels.mantissa(r, j),
                            cols.group_mantissas(j, r / g)[r % g],
                            "{config} {k}x{n} ({r}, {j})"
                        );
                    }
                    for gi in 0..k.div_ceil(g) {
                        assert_eq!(panels.scale_exp(j, gi), cols.group_scale_exp(j, gi));
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_rows_overwrite_stale_padding_on_reuse() {
        let config = BfpConfig::new(4, 6).unwrap(); // 2 quads, 2 padding lanes
        let mut rows = NarrowRows::empty(config);
        rows.pack_into(&values(3 * 13, 1), 3, 13).unwrap();
        rows.pack_into(&[0.0; 2 * 7], 2, 7).unwrap();
        let Lanes::I8(lanes) = &rows.lanes else {
            panic!("bm = 4 packs i8 lanes");
        };
        assert_eq!(lanes.len(), 2 * 2 * 8);
        assert!(lanes.iter().all(|&v| v == 0));
        assert!(rows.scale_exps.iter().all(|&e| e == 0));
    }

    #[test]
    fn a_prepared_weight_is_one_byte_per_lane_at_the_paper_point() {
        let config = BfpConfig::mirage_default();
        let (k, n) = (64, 32);
        let panels = BfpPanels::pack_cols(&values(k * n, 3), k, n, config).unwrap();
        // k·n i8 mantissas plus one i32 exponent per (column, group),
        // and nothing else.
        let Lanes::I8(lanes) = &panels.lanes else {
            panic!("bm = 4 packs i8 lanes");
        };
        assert_eq!((lanes.len(), panels.scale_exps.len()), (k * n, n * k / 16));
    }
}
