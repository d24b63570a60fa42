//! Packed BFP matrices: the flat `i32` reference layout, and the
//! one-pass packers every BFP operand layout is built by.
//!
//! [`crate::BfpBlock`] is the *reference* representation — one heap
//! object per group, convenient for tests and device models, but a
//! `Vec<Vec<BfpBlock>>` of them pointer-chases on every group dot. A
//! [`PackedBfpMatrix`] stores the same quantization in two contiguous
//! buffers — the layout the [`PackedBfpMatrix::dot_rows`] oracle and
//! the device models read (BFP GEMMs read the narrow panels of
//! [`crate::BfpPanels`]):
//!
//! ```text
//! mantissas  (rows × groups_per_row × g) i32, row-major
//!   row 0: [ g0 ........ | g1 ........ | g_last ...0 0 0 ]
//!   row 1: [ g0 ........ | g1 ........ | g_last ...0 0 0 ]
//!                                         ^^^^^ tail zero-padding
//! scale_exps (rows × groups_per_row) i32
//! ```
//!
//! Every group occupies **exactly `g` lanes**; a ragged tail group
//! (`k % g != 0`) is padded with zero mantissae. Padding is exact: a
//! padded lane contributes `0 · w = 0` to the integer dot and zeros
//! never participate in the shared-exponent scan, so every packed group
//! dot is **bit-identical** to [`crate::BfpBlock::dot`] on the unpadded
//! group — the property the proptests pin against the block path.
//!
//! ## One-pass packers
//!
//! [`pack_rows`] and [`pack_cols`] quantize a row-major `f32` matrix
//! group by group and hand each finished group to a [`GroupSink`]: the
//! packed buffers of a [`PackedBfpMatrix`], or any other operand layout
//! (the BFP panels narrow each group into panel order; the RNS engines
//! convert each group straight into residue planes).
//! [`pack_cols`] groups along the *columns* of the stored matrix — the
//! B-side layout of every GEMM — reading `g` rows × 8 columns at a time
//! with lanewise shared exponents, so no transposed copy of the matrix
//! is ever built.

use crate::block::{exponent_of, sanitize};
use crate::config::{BfpConfig, RoundingMode};
use crate::math::pow2;
use crate::{BfpError, Result};

/// The biased-exponent field of an `f32`: all ones marks a non-finite
/// value, zero a zero or subnormal.
const EXP_FIELD: u32 = 0x7f80_0000;

/// Columns per block of the column packer: one 256-bit register of
/// `f32` lanes per row of the block.
const COL_BLOCK: usize = 8;

/// The consumer of a one-pass packer ([`pack_rows`], [`pack_cols`]).
///
/// The packer calls [`GroupSink::put`] exactly once per group, with
/// the group's `g` mantissa lanes — a ragged tail group zero-padded —
/// and its shared scale exponent, bit-identical to what
/// [`PackedBfpMatrix::quantize_rows`] stores for that group.
pub trait GroupSink {
    /// Receives group `index` in packed order (`row * groups_per_row +
    /// gi`, where a [`pack_cols`] "row" is a column of the input).
    fn put(&mut self, index: usize, lanes: &[i32], scale_exp: i32);
}

/// A matrix quantized row-by-row into BFP groups, stored flat.
///
/// Rows run along the reduction dimension: packing the rows of `A`
/// ([`PackedBfpMatrix::quantize_rows`]) or the columns of `B`
/// ([`PackedBfpMatrix::quantize_cols`], no transpose) groups exactly
/// like [`crate::BfpBlock`] chunking each row or column, so the layout
/// serves both GEMM operands.
///
/// ```
/// use mirage_bfp::{BfpBlock, BfpConfig, PackedBfpMatrix};
///
/// let cfg = BfpConfig::new(4, 4)?;
/// let data = [1.0, 0.5, -0.25, 0.0, 2.0, 0.125]; // 2 rows, k = 3
/// let packed = PackedBfpMatrix::quantize_rows(&data, 2, 3, cfg)?;
/// // Groups are padded to g = 4 lanes; values match the block path.
/// let block = BfpBlock::quantize(&data[..3], cfg);
/// assert_eq!(&packed.group_mantissas(0, 0)[..3], block.mantissas());
/// assert_eq!(packed.group_mantissas(0, 0)[3], 0); // exact zero padding
/// assert_eq!(packed.group_scale_exp(0, 0), block.scale_exp());
/// // The same data read as a 3 × 2 matrix and packed by columns.
/// let cols = PackedBfpMatrix::quantize_cols(&data, 3, 2, cfg)?;
/// let col0 = BfpBlock::quantize(&[1.0, -0.25, 2.0], cfg);
/// assert_eq!(&cols.group_mantissas(0, 0)[..3], col0.mantissas());
/// # Ok::<(), mirage_bfp::BfpError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedBfpMatrix {
    rows: usize,
    k: usize,
    groups_per_row: usize,
    config: BfpConfig,
    /// `rows * groups_per_row * g` mantissae, tail groups zero-padded.
    mantissas: Vec<i32>,
    /// `rows * groups_per_row` shared scale exponents.
    scale_exps: Vec<i32>,
}

impl PackedBfpMatrix {
    /// An empty matrix (0 × 0) ready to be filled by
    /// [`PackedBfpMatrix::quantize_rows_into`] — the reusable scratch
    /// for serving loops that quantize a new activation matrix per call.
    pub fn empty(config: BfpConfig) -> Self {
        PackedBfpMatrix {
            rows: 0,
            k: 0,
            groups_per_row: 0,
            config,
            mantissas: Vec::new(),
            scale_exps: Vec::new(),
        }
    }

    /// Quantizes `rows` rows of `k` elements each (row-major `data`)
    /// into a freshly allocated packed matrix.
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless
    /// `data.len() == rows * k`.
    pub fn quantize_rows(data: &[f32], rows: usize, k: usize, config: BfpConfig) -> Result<Self> {
        let mut packed = Self::empty(config);
        packed.quantize_rows_into(data, rows, k)?;
        Ok(packed)
    }

    /// Quantizes the `n` columns of a row-major `k × n` matrix, groups
    /// running down each column, into a freshly allocated packed matrix
    /// with one packed row per column — the B side of a GEMM, read in
    /// one pass from its stored layout ([`pack_cols`]). Bit-identical
    /// to [`PackedBfpMatrix::quantize_rows`] on the transposed matrix.
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless
    /// `data.len() == k * n`.
    pub fn quantize_cols(data: &[f32], k: usize, n: usize, config: BfpConfig) -> Result<Self> {
        let mut packed = Self::empty(config);
        check_len(data, k, n)?;
        packed.reset(n, k);
        pack_cols(data, k, n, config, &mut packed.sink())?;
        Ok(packed)
    }

    /// Re-quantizes into this matrix's existing buffers.
    ///
    /// Zero heap allocation once the buffers have grown to the steady
    /// state: the mantissa and exponent vectors are `resize`d in place,
    /// and the quantizer itself never allocates per group — there is no
    /// `sanitized` staging copy (non-finite inputs are remapped on the
    /// fly, and an all-finite group takes a branch-free fast path) and
    /// no per-group `Vec` like the [`crate::BfpBlock`] path builds.
    ///
    /// # Errors
    ///
    /// Returns [`BfpError::LengthMismatch`] unless
    /// `data.len() == rows * k`.
    // mirage-lint: no_alloc
    pub fn quantize_rows_into(&mut self, data: &[f32], rows: usize, k: usize) -> Result<()> {
        check_len(data, rows, k)?;
        self.reset(rows, k);
        pack_rows(data, rows, k, self.config, &mut self.sink())
    }

    /// Sizes the buffers for `rows` packed rows of reduction length `k`
    /// (contents are overwritten group by group by the packer).
    fn reset(&mut self, rows: usize, k: usize) {
        let g = self.config.group_size();
        let groups_per_row = k.div_ceil(g);
        self.rows = rows;
        self.k = k;
        self.groups_per_row = groups_per_row;
        self.mantissas.resize(rows * groups_per_row * g, 0);
        self.scale_exps.resize(rows * groups_per_row, 0);
    }

    /// The sink writing packed groups into this matrix's buffers.
    fn sink(&mut self) -> BufferSink<'_> {
        BufferSink {
            g: self.config.group_size(),
            mantissas: &mut self.mantissas,
            scale_exps: &mut self.scale_exps,
        }
    }

    /// Number of quantized rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Logical reduction length `k` (unpadded row width).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Groups per row, `ceil(k / g)`.
    pub fn groups_per_row(&self) -> usize {
        self.groups_per_row
    }

    /// Padded row width, `groups_per_row * g`.
    pub fn padded_k(&self) -> usize {
        self.groups_per_row * self.config.group_size()
    }

    /// The configuration the rows were quantized with.
    pub fn config(&self) -> BfpConfig {
        self.config
    }

    /// The whole flat mantissa buffer (`rows * padded_k`, row-major).
    pub fn mantissas(&self) -> &[i32] {
        &self.mantissas
    }

    /// The whole flat scale-exponent buffer (`rows * groups_per_row`).
    pub fn scale_exps(&self) -> &[i32] {
        &self.scale_exps
    }

    /// One padded row of mantissae (`padded_k` lanes).
    pub fn row_mantissas(&self, row: usize) -> &[i32] {
        let w = self.padded_k();
        &self.mantissas[row * w..(row + 1) * w]
    }

    /// One row's scale exponents (`groups_per_row` entries).
    pub fn row_scale_exps(&self, row: usize) -> &[i32] {
        &self.scale_exps[row * self.groups_per_row..(row + 1) * self.groups_per_row]
    }

    /// The `g` (padded) mantissa lanes of group `gi` of `row`.
    pub fn group_mantissas(&self, row: usize, gi: usize) -> &[i32] {
        let g = self.config.group_size();
        let base = (row * self.groups_per_row + gi) * g;
        &self.mantissas[base..base + g]
    }

    /// The unpadded length of group `gi`: `g` except for a ragged tail.
    pub fn group_len(&self, gi: usize) -> usize {
        let g = self.config.group_size();
        (self.k - gi * g).min(g)
    }

    /// The shared scale exponent of group `gi` of `row`.
    pub fn group_scale_exp(&self, row: usize, gi: usize) -> i32 {
        self.scale_exps[row * self.groups_per_row + gi]
    }

    /// Whether every group dot between `self` and `other` fits an `i32`
    /// accumulator: `g · max_mantissa(self) · max_mantissa(other) <=
    /// i32::MAX`. True for every realistic operating point (the paper's
    /// `bm = 4`, `g = 16` peaks at 3600), letting kernels run the
    /// vectorizer-friendly [`group_dot_i32`] instead of widening every
    /// product to `i64`. Both paths produce the same exact integer.
    pub fn dot_fits_i32(&self, other: &PackedBfpMatrix) -> bool {
        let bound = self.config.max_mantissa() as u128
            * other.config.max_mantissa() as u128
            * self.config.group_size() as u128;
        bound <= i32::MAX as u128
    }

    /// The BFP dot product of row `i` of `self` with row `j` of `other`,
    /// accumulated group-by-group in FP32 — the flat-kernel equivalent
    /// of chaining [`crate::BfpBlock::dot`] + `to_f32()` over the rows'
    /// groups, **bit-identical** to that path by the padding invariant.
    ///
    /// The inner loop is a straight-line integer dot over two `&[i32]`
    /// slices (`i32 × i32 → i64` accumulate) with no bounds decisions
    /// left — shape agreement is debug-asserted, callers validate once
    /// per GEMM.
    pub fn dot_rows(&self, i: usize, other: &PackedBfpMatrix, j: usize) -> f32 {
        debug_assert_eq!(self.k, other.k, "packed operand k mismatch");
        debug_assert_eq!(
            self.config.group_size(),
            other.config.group_size(),
            "packed operand group-size mismatch"
        );
        let g = self.config.group_size();
        let fits_i32 = self.dot_fits_i32(other);
        let a_row = self.row_mantissas(i);
        let b_row = other.row_mantissas(j);
        let a_exps = self.row_scale_exps(i);
        let b_exps = other.row_scale_exps(j);
        let mut acc = 0.0f32;
        for gi in 0..self.groups_per_row {
            let base = gi * g;
            let (a_g, b_g) = (&a_row[base..base + g], &b_row[base..base + g]);
            let integer = if fits_i32 {
                group_dot_i32(a_g, b_g)
            } else {
                group_dot(a_g, b_g)
            };
            acc += (integer as f64 * pow2(a_exps[gi] + b_exps[gi])) as f32;
        }
        acc
    }
}

/// The [`GroupSink`] behind [`PackedBfpMatrix`]: each group's lanes
/// land in the `i32` buffer.
struct BufferSink<'a> {
    g: usize,
    mantissas: &'a mut [i32],
    scale_exps: &'a mut [i32],
}

impl GroupSink for BufferSink<'_> {
    #[inline(always)]
    fn put(&mut self, index: usize, lanes: &[i32], scale_exp: i32) {
        let base = index * self.g;
        self.mantissas[base..base + self.g].copy_from_slice(lanes);
        self.scale_exps[index] = scale_exp;
    }
}

/// Checks that `data` holds a `rows × cols` matrix.
fn check_len(data: &[f32], rows: usize, cols: usize) -> Result<()> {
    if data.len() != rows * cols {
        return Err(BfpError::LengthMismatch {
            left: data.len(),
            right: rows * cols,
        });
    }
    Ok(())
}

/// Quantizes `rows` rows of `k` elements each (row-major `data`),
/// groups running along each row, handing every group to `sink` in
/// packed order.
///
/// # Errors
///
/// Returns [`BfpError::LengthMismatch`] unless `data.len() == rows * k`.
pub fn pack_rows<S: GroupSink + ?Sized>(
    data: &[f32],
    rows: usize,
    k: usize,
    config: BfpConfig,
    sink: &mut S,
) -> Result<()> {
    check_len(data, rows, k)?;
    let quant = GroupQuantizer::new(config);
    // Monomorphize the common group sizes: with a compile-time group
    // length the shared-exponent scan and the mantissa pass both
    // unroll and vectorize.
    match config.group_size() {
        8 => rows_with(quant, data, rows, k, &mut [0; 8], sink),
        16 => rows_with(quant, data, rows, k, &mut [0; 16], sink),
        32 => rows_with(quant, data, rows, k, &mut [0; 32], sink),
        64 => rows_with(quant, data, rows, k, &mut [0; 64], sink),
        g => rows_with(quant, data, rows, k, &mut vec![0; g], sink),
    }
    Ok(())
}

/// The row packer's loop over one lane buffer of `g` lanes (a constant
/// length once inlined into [`pack_rows`]'s dispatch): full groups get
/// constant-length slices (unrolled scans), only the ragged tail is
/// dynamic.
#[inline(always)]
fn rows_with<S: GroupSink + ?Sized>(
    quant: GroupQuantizer,
    data: &[f32],
    rows: usize,
    k: usize,
    lanes: &mut [i32],
    sink: &mut S,
) {
    let g = lanes.len();
    let (full, groups) = (k / g, k.div_ceil(g));
    for r in 0..rows {
        let row = &data[r * k..(r + 1) * k];
        for gi in 0..full {
            let exp = quant.quantize_group(&row[gi * g..gi * g + g], lanes);
            sink.put(r * groups + gi, lanes, exp);
        }
        if full < groups {
            let exp = quant.quantize_group(&row[full * g..], lanes);
            sink.put(r * groups + full, lanes, exp);
        }
    }
}

/// Quantizes the `n` columns of a row-major `k × n` matrix, groups
/// running down each column, handing every group to `sink` in packed
/// order (column `j`'s group `gi` is index `j * ceil(k / g) + gi`).
///
/// One pass over the stored layout, no transposed copy: the packer
/// reads one group of `g` rows × 8 columns at a time into a small stack
/// tile, scanning the 8 shared exponents lanewise as it goes, then runs
/// the branch-free mantissa lanes down each column's run and emits it.
/// Groups holding a non-finite value, or only zeros and subnormals, run
/// the row quantizer's exact per-group path instead. Every group is
/// bit-identical to [`pack_rows`] on the transposed matrix.
///
/// # Errors
///
/// Returns [`BfpError::LengthMismatch`] unless `data.len() == k * n`.
pub fn pack_cols<S: GroupSink + ?Sized>(
    data: &[f32],
    k: usize,
    n: usize,
    config: BfpConfig,
    sink: &mut S,
) -> Result<()> {
    check_len(data, k, n)?;
    let quant = GroupQuantizer::new(config);
    match config.group_size() {
        8 => cols_with::<8, S>(quant, data, k, n, sink),
        16 => cols_with::<16, S>(quant, data, k, n, sink),
        32 => cols_with::<32, S>(quant, data, k, n, sink),
        64 => cols_with::<64, S>(quant, data, k, n, sink),
        g => {
            // Exotic group sizes: one column at a time through the
            // row quantizer's group path.
            let groups = k.div_ceil(g);
            let (mut column, mut lanes) = (vec![0.0f32; g], vec![0i32; g]);
            for j in 0..n {
                for gi in 0..groups {
                    let len = (k - gi * g).min(g);
                    for (r, slot) in column[..len].iter_mut().enumerate() {
                        *slot = data[(gi * g + r) * n + j];
                    }
                    let exp = quant.quantize_group(&column[..len], &mut lanes);
                    sink.put(j * groups + gi, &lanes, exp);
                }
            }
        }
    }
    Ok(())
}

/// The column packer at a compile-time group size: full 8-column
/// blocks first, then the ragged column tail one column at a time.
/// Group-major order, so each block's reads stream along `g` whole
/// rows of the stored matrix.
#[inline(always)]
fn cols_with<const G: usize, S: GroupSink + ?Sized>(
    quant: GroupQuantizer,
    data: &[f32],
    k: usize,
    n: usize,
    sink: &mut S,
) {
    let groups = k.div_ceil(G);
    let full = n - n % COL_BLOCK;
    for gi in 0..groups {
        let len = (k - gi * G).min(G);
        for j0 in (0..full).step_by(COL_BLOCK) {
            col_block::<G, COL_BLOCK, S>(quant, data, n, (gi, len, groups), j0, sink);
        }
        for j in full..n {
            col_block::<G, 1, S>(quant, data, n, (gi, len, groups), j, sink);
        }
    }
}

/// One `len × W` block of the column packer: rows `gi * G ..+ len` of
/// columns `j0 ..+ W`, each column's run emitted as group `gi`.
///
/// One sweep over the block's rows gathers each column's run into a
/// small stack tile and takes the shared-exponent scan lanewise (the
/// max biased-exponent field per column, see
/// [`GroupQuantizer::quantize_group`]); each all-finite column with a
/// normal maximum then runs the branch-free mantissa lanes, and the
/// rest take the exact per-group path.
#[inline(always)]
fn col_block<const G: usize, const W: usize, S: GroupSink + ?Sized>(
    quant: GroupQuantizer,
    data: &[f32],
    n: usize,
    (gi, len, groups): (usize, usize, usize),
    j0: usize,
    sink: &mut S,
) {
    let mut tile = [[0.0f32; G]; W];
    let mut max_field = [0u32; W];
    let rows = data[gi * G * n..].chunks(n).take(len);
    for (r, row) in rows.enumerate() {
        for (w, &v) in row[j0..j0 + W].iter().enumerate() {
            tile[w][r] = v;
            max_field[w] = max_field[w].max(v.to_bits() & EXP_FIELD);
        }
    }
    let mut run = [0i32; G];
    for (w, column) in tile.iter().enumerate() {
        let exp = if max_field[w] != 0 && max_field[w] != EXP_FIELD {
            // Rows past a ragged tail hold +0.0, whose lane is 0.
            let exp = quant.fast_scale_exp(max_field[w]);
            for (lane, &v) in run.iter_mut().zip(column) {
                *lane = quant.lane_mantissa(v, exp);
            }
            exp
        } else {
            quant.quantize_group(&column[..len], &mut run)
        };
        sink.put((j0 + w) * groups + gi, &run, exp);
    }
}

/// The per-group quantization constants, grouped so the packers take
/// one argument.
#[derive(Clone, Copy)]
struct GroupQuantizer {
    bm: i32,
    limit: f64,
    limit_u64: u64,
    rounding: RoundingMode,
}

impl GroupQuantizer {
    fn new(config: BfpConfig) -> Self {
        GroupQuantizer {
            bm: config.mantissa_bits() as i32,
            limit: config.max_mantissa() as f64,
            limit_u64: config.max_mantissa() as u64,
            rounding: config.rounding(),
        }
    }

    /// The shared scale exponent of an all-finite group whose maximum
    /// biased-exponent field is `max_field` (nonzero).
    #[inline(always)]
    fn fast_scale_exp(self, max_field: u32) -> i32 {
        ((max_field >> 23) as i32 - 127) - self.bm + 1
    }

    /// One lane of the all-finite fast path: the mantissa of `v` at
    /// `scale_exp`, as exact integer arithmetic. For a finite `v =
    /// ±mant24 · 2^(e-23)`, the legacy `trunc(f64(v) · 2^-scale_exp)`
    /// (every step of which is exact — f32→f64 is lossless, and scaling
    /// by a power of two only moves the exponent) equals `±(mant24 >>
    /// (scale_exp + 23 - e))`, and `round` equals the half-added shift
    /// (ties away from zero in both). The shift is >= 24 - bm >= 1
    /// because the shared exponent is the group max; shifts past 63 are
    /// clamped (the result is 0 either way). Branchless, so a pass of
    /// lanes vectorizes.
    #[inline(always)]
    fn lane_mantissa(self, v: f32, scale_exp: i32) -> i32 {
        let bits = v.to_bits();
        let abs = bits & 0x7fff_ffff;
        let raw = (abs >> 23) as i32;
        // Subnormals have no implicit bit and a fixed exponent.
        let mant24 = u64::from(if raw > 0 {
            (abs & 0x7f_ffff) | 0x80_0000
        } else {
            abs
        });
        let e = if raw > 0 { raw - 127 } else { -126 };
        let shift = (scale_exp + 23 - e).clamp(1, 63) as u32;
        let add = if self.rounding == RoundingMode::RoundNearest {
            1u64 << (shift - 1)
        } else {
            0
        };
        let mag = ((mant24 + add) >> shift).min(self.limit_u64);
        if bits >> 31 == 1 {
            -(mag as i32)
        } else {
            mag as i32
        }
    }

    /// Quantizes one group into all of `lanes` (`chunk.len()` mantissae,
    /// then zero padding) and returns the shared exponent.
    /// Bit-identical to [`crate::BfpBlock::quantize`]: same sanitize
    /// mapping, same shared-exponent rule, same `f64` scaling — minus
    /// the per-group heap objects.
    #[inline(always)]
    fn quantize_group(self, chunk: &[f32], lanes: &mut [i32]) -> i32 {
        lanes[chunk.len()..].fill(0);
        // Shared-exponent scan: the max over the raw biased exponent
        // field is the max over `exponent_of` whenever any element is
        // normal (zeros and subnormals both carry a zero field, and
        // every subnormal exponent lies below every normal one), and it
        // is two vector ops per lane. An all-ones maximum means a
        // non-finite element.
        let mut max_field = 0u32;
        for &v in chunk {
            max_field = max_field.max(v.to_bits() & EXP_FIELD);
        }
        if max_field != 0 && max_field != EXP_FIELD {
            // The all-finite fast path (the overwhelmingly common case):
            // branchless per lane, so it vectorizes.
            let scale_exp = self.fast_scale_exp(max_field);
            for (lane, &v) in lanes.iter_mut().zip(chunk) {
                *lane = self.lane_mantissa(v, scale_exp);
            }
            return scale_exp;
        }
        // Groups of only zeros/subnormals, or holding a non-finite
        // value: the block quantizer's `sanitize` mapping and `f64`
        // scaling, element by element, with no staging copy — both
        // pinned against the block quantizer by the packed-vs-block
        // proptests.
        let max_exp = chunk
            .iter()
            .map(|&v| sanitize(v))
            .filter(|&v| v != 0.0)
            .map(exponent_of)
            .max();
        let Some(e_shared) = max_exp else {
            // All-zero group: scale_exp = 0, mantissae 0.
            lanes.fill(0);
            return 0;
        };
        let scale_exp = e_shared - self.bm + 1;
        let scale = pow2(-scale_exp);
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            let scaled = f64::from(sanitize(v)) * scale;
            let q = match self.rounding {
                RoundingMode::Truncate => scaled.trunc(),
                RoundingMode::RoundNearest => scaled.round(),
            };
            *lane = q.clamp(-self.limit, self.limit) as i32;
        }
        scale_exp
    }
}

// The two group-dot kernels below are the innermost loops of the
// `dot_rows` oracle: pure integer multiply-accumulate over quantized
// mantissae. Any floating point here would silently break the exact
// BFP arithmetic (paper §IV-B), so the region is machine-checked.
// mirage-lint: region(int_kernel)

/// Exact integer dot of two equal-length mantissa slices with an `i64`
/// accumulator — the general path, safe for every operating point.
// mirage-lint: no_alloc
#[inline]
pub fn group_dot(a: &[i32], b: &[i32]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i64;
    for (&x, &w) in a.iter().zip(b) {
        acc += i64::from(x) * i64::from(w);
    }
    acc
}

/// [`group_dot`] with an `i32` accumulator: exact **iff** the group's
/// worst-case magnitude fits (`g · max_a · max_b <= i32::MAX`, see
/// [`PackedBfpMatrix::dot_fits_i32`]) — the caller's contract. Narrower
/// arithmetic lets the autovectorizer keep twice as many lanes per
/// register, which is most of the flat kernel's speedup.
// mirage-lint: no_alloc
#[inline]
pub fn group_dot_i32(a: &[i32], b: &[i32]) -> i64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0i32;
    for (&x, &w) in a.iter().zip(b) {
        acc += x * w;
    }
    i64::from(acc)
}

// mirage-lint: end_region(int_kernel)

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BfpBlock;

    fn cfg(bm: u32, g: usize) -> BfpConfig {
        BfpConfig::new(bm, g).unwrap()
    }

    /// Deterministic pseudo-random values, occasionally non-finite.
    fn values(n: usize, seed: u64, specials: bool) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((state >> 40) as f32 / 8388608.0) - 1.0;
                if specials {
                    match state % 17 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        2 => f32::NEG_INFINITY,
                        3 => 0.0,
                        _ => v * 1e3,
                    }
                } else {
                    v
                }
            })
            .collect()
    }

    /// Packed groups must match the block path exactly: same mantissae
    /// on the unpadded lanes, zeros on the padding, same exponent.
    fn assert_matches_blocks(data: &[f32], rows: usize, k: usize, config: BfpConfig) {
        let packed = PackedBfpMatrix::quantize_rows(data, rows, k, config).unwrap();
        let g = config.group_size();
        assert_eq!(packed.groups_per_row(), k.div_ceil(g));
        for r in 0..rows {
            let row = &data[r * k..(r + 1) * k];
            for (gi, chunk) in row.chunks(g).enumerate() {
                let block = BfpBlock::quantize(chunk, config);
                let lanes = packed.group_mantissas(r, gi);
                assert_eq!(
                    &lanes[..chunk.len()],
                    block.mantissas(),
                    "row {r} group {gi}"
                );
                assert!(
                    lanes[chunk.len()..].iter().all(|&m| m == 0),
                    "row {r} group {gi}: nonzero padding"
                );
                assert_eq!(
                    packed.group_scale_exp(r, gi),
                    block.scale_exp(),
                    "row {r} group {gi}"
                );
                assert_eq!(packed.group_len(gi), chunk.len());
            }
        }
    }

    #[test]
    fn matches_block_quantizer_on_aligned_and_ragged_shapes() {
        for (rows, k, g) in [(1, 16, 16), (3, 19, 16), (4, 7, 4), (2, 1, 8), (5, 48, 16)] {
            let data = values(rows * k, (rows * 1000 + k) as u64, false);
            assert_matches_blocks(&data, rows, k, cfg(4, g));
            assert_matches_blocks(&data, rows, k, cfg(8, g));
        }
    }

    #[test]
    fn matches_block_quantizer_with_non_finite_inputs() {
        for (rows, k, g) in [(2, 20, 16), (3, 5, 4)] {
            let data = values(rows * k, 99, true);
            assert_matches_blocks(&data, rows, k, cfg(4, g));
        }
    }

    #[test]
    fn subnormal_and_signed_zero_lanes_match_blocks() {
        // The integer mantissa pass has special cases for subnormals
        // (no implicit bit, fixed exponent) and signed zeros; pin all
        // of them against the f64 block path, in both rounding modes
        // and in groups with and without a normal maximum.
        let tiny = f32::from_bits(1);
        let big_sub = f32::from_bits(0x007f_ffff);
        let cases: Vec<Vec<f32>> = vec![
            vec![tiny, 1.0, -0.0, 0.5],
            vec![tiny, -big_sub, 0.0, tiny * 2.0],
            vec![-1.5, big_sub, f32::MIN_POSITIVE, -0.0],
            vec![0.0, -0.0, 0.0, 0.0],
            vec![f32::MAX, tiny, -f32::MAX, 1e-38],
            vec![1.0 + f32::EPSILON, -1.0 - f32::EPSILON, 0.75, 0.25],
        ];
        for vals in &cases {
            for mode in [RoundingMode::Truncate, RoundingMode::RoundNearest] {
                for bm in [1u32, 4, 8, 15, 23] {
                    let config = cfg(bm, 4).with_rounding(mode);
                    assert_matches_blocks(vals, 1, 4, config);
                }
            }
        }
    }

    #[test]
    fn round_nearest_mode_matches_blocks() {
        let config = cfg(4, 8).with_rounding(RoundingMode::RoundNearest);
        let data = values(3 * 13, 7, false);
        assert_matches_blocks(&data, 3, 13, config);
    }

    #[test]
    fn dot_rows_matches_block_dot_chain() {
        let config = cfg(4, 16);
        for k in [1usize, 15, 16, 17, 33, 64] {
            let a = values(2 * k, 11 + k as u64, false);
            let b = values(3 * k, 23 + k as u64, false);
            let pa = PackedBfpMatrix::quantize_rows(&a, 2, k, config).unwrap();
            let pb = PackedBfpMatrix::quantize_rows(&b, 3, k, config).unwrap();
            for i in 0..2 {
                for j in 0..3 {
                    let mut want = 0.0f32;
                    for (ca, cb) in a[i * k..(i + 1) * k]
                        .chunks(16)
                        .zip(b[j * k..(j + 1) * k].chunks(16))
                    {
                        let ba = BfpBlock::quantize(ca, config);
                        let bb = BfpBlock::quantize(cb, config);
                        want += ba.dot(&bb).unwrap().to_f32();
                    }
                    let got = pa.dot_rows(i, &pb, j);
                    assert_eq!(got.to_bits(), want.to_bits(), "k = {k}, ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn reuse_does_not_reallocate_at_steady_state() {
        let config = cfg(4, 16);
        let data = values(8 * 50, 3, false);
        let mut scratch = PackedBfpMatrix::empty(config);
        scratch.quantize_rows_into(&data, 8, 50).unwrap();
        let mantissa_ptr = scratch.mantissas().as_ptr();
        let exps_ptr = scratch.scale_exps().as_ptr();
        for seed in 0..4 {
            let next = values(8 * 50, seed, false);
            scratch.quantize_rows_into(&next, 8, 50).unwrap();
            assert_eq!(scratch.mantissas().as_ptr(), mantissa_ptr);
            assert_eq!(scratch.scale_exps().as_ptr(), exps_ptr);
        }
        // Shrinking shapes reuse the buffers too.
        scratch.quantize_rows_into(&data[..4 * 50], 4, 50).unwrap();
        assert_eq!(scratch.mantissas().as_ptr(), mantissa_ptr);
        assert_eq!(scratch.rows(), 4);
    }

    #[test]
    fn stale_state_is_fully_overwritten_on_reuse() {
        let config = cfg(4, 16);
        let mut scratch = PackedBfpMatrix::empty(config);
        scratch
            .quantize_rows_into(&values(4 * 33, 5, false), 4, 33)
            .unwrap();
        // Refill with an all-zero matrix: every mantissa and exponent
        // from the previous call must be cleared, including padding.
        scratch.quantize_rows_into(&[0.0; 2 * 20], 2, 20).unwrap();
        assert!(scratch.mantissas().iter().all(|&m| m == 0));
        assert!(scratch.scale_exps().iter().all(|&e| e == 0));
    }

    #[test]
    fn zero_dimension_matrices_are_well_formed() {
        let config = cfg(4, 16);
        let empty_rows = PackedBfpMatrix::quantize_rows(&[], 0, 16, config).unwrap();
        assert_eq!((empty_rows.rows(), empty_rows.groups_per_row()), (0, 1));
        let empty_k = PackedBfpMatrix::quantize_rows(&[], 3, 0, config).unwrap();
        assert_eq!((empty_k.rows(), empty_k.groups_per_row()), (3, 0));
        assert_eq!(empty_k.padded_k(), 0);
        // A k = 0 dot accumulates nothing.
        assert_eq!(empty_k.dot_rows(0, &empty_k, 1), 0.0);
    }

    #[test]
    fn length_mismatch_is_rejected() {
        let err = PackedBfpMatrix::quantize_rows(&[1.0; 5], 2, 3, cfg(4, 4)).unwrap_err();
        assert_eq!(err, BfpError::LengthMismatch { left: 5, right: 6 });
        let err = PackedBfpMatrix::quantize_cols(&[1.0; 5], 2, 3, cfg(4, 4)).unwrap_err();
        assert_eq!(err, BfpError::LengthMismatch { left: 5, right: 6 });
    }

    /// Row-major `k × n` data transposed to `n × k`.
    fn transposed(data: &[f32], k: usize, n: usize) -> Vec<f32> {
        (0..n * k).map(|i| data[(i % k) * n + i / k]).collect()
    }

    /// A `k × n` matrix whose groups cover every quantizer branch:
    /// ordinary values, NaN/±∞ lanes, all-zero groups and groups of
    /// only subnormals (column `j`'s group `gi` picks its kind).
    fn mixed_matrix(k: usize, n: usize, g: usize, seed: u64) -> Vec<f32> {
        let plain = values(k * n, seed, false);
        let tiny = f32::from_bits(3);
        (0..k * n)
            .map(|i| {
                let (r, j) = (i / n, i % n);
                match (j + 3 * (r / g)) % 7 {
                    0 if r % 5 == 1 => [f32::NAN, f32::INFINITY, f32::NEG_INFINITY][r % 3],
                    1 => 0.0,
                    2 => tiny * (r as f32 + 1.0) * if r % 2 == 0 { -1.0 } else { 1.0 },
                    _ => plain[i] * 1e2,
                }
            })
            .collect()
    }

    #[test]
    fn column_packer_matches_row_packer_on_the_transpose() {
        for mode in [RoundingMode::Truncate, RoundingMode::RoundNearest] {
            for (bm, g) in [(4u32, 16usize), (5, 8), (6, 32), (4, 64), (3, 4), (20, 16)] {
                let config = cfg(bm, g).with_rounding(mode);
                for (k, n) in [(1, 1), (16, 8), (33, 9), (64, 17), (7, 23), (40, 0), (0, 5)] {
                    let data = mixed_matrix(k, n, g, (k * 31 + n) as u64);
                    let want =
                        PackedBfpMatrix::quantize_rows(&transposed(&data, k, n), n, k, config)
                            .unwrap();
                    let got = PackedBfpMatrix::quantize_cols(&data, k, n, config).unwrap();
                    assert_eq!(got, want, "{k}x{n} {config} {mode:?}");
                }
            }
        }
    }
}
