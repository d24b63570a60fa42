//! The explicit SIMD kernel of every BFP GEMM: one register-blocked
//! AVX2 kernel over `i8` column panels ([`crate::BfpPanels`]).
//!
//! The scalar panel kernel in [`crate::panels`] is the semantic oracle;
//! [`gemm_panels_into`] runs this module's AVX2 kernel on `i8` panels
//! (every `bm ≤ 7` operating point, the paper's `bm = 4` included) and
//! the scalar kernel everywhere else. The AVX2 kernel is
//! **bit-identical** to the scalar one by construction:
//!
//! - **Products are exact.** `pmaddubsw` multiplies an unsigned byte by
//!   a signed byte. The kernel feeds it `|a|` and `sign(b, a)` (`b`
//!   negated where `a < 0`, zeroed where `a = 0`), so each product is
//!   `|a| · sign(a) · b = a · b`. `i8` lanes hold `bm ≤ 7` mantissas,
//!   so `|a|, |b| ≤ 127`: `|a|` fits the unsigned operand, `−b` never
//!   overflows, and each `pmaddubsw` pair sum is at most `2 · 127² =
//!   32258 < 2¹⁵`, so it never saturates.
//! - **Group sums are exact.** Each 16-bit lane adds its pair sums over
//!   the group's quads in `i16` only when the whole group fits,
//!   `2 · quads · max² ≤ i16::MAX` ([`i16_group_sums_fit`], checked once
//!   per GEMM — `g/2 · max_a · max_b` for `g` a multiple of 4); then one
//!   `pmaddwd(·, 1)` per group widens adjacent lanes into the column's
//!   `i32` dot. Otherwise every quad's pair sums widen at once. Integer
//!   addition is associative, so any lane order yields the same exact
//!   integer as the scalar loop.
//! - **One column per lane.** A 32-byte panel quad holds 4 k-lanes of 8
//!   columns, so after the widening each column's dot sits in its own
//!   `i32` lane — no horizontal reduction.
//! - **Same recombination.** Per column, `(dot as f64) · (pow2(ae) ·
//!   pow2(be))` rounded to `f32` (`vcvtpd2ps` rounds to nearest-even,
//!   like `as f32`), accumulated in ascending group order. `pow2(be)`
//!   is assembled from the exponent bits; every quantizer scale
//!   exponent lies in `[−171, 127]`, inside the normal `f64` range where
//!   that is exactly [`crate::pow2`]. Every product is an exact `f64`
//!   (an integer below 2³¹ times a power of two in `[2⁻³⁴², 2²⁵⁴]`), so
//!   the only rounding is the one to `f32`, the same as the scalar's.
//!
//! Each register block covers up to 4 rows × one 8-column panel: one
//! `B` load serves every row of the block.
//!
//! ## Dispatch
//!
//! Three levels gate the vector path, every one falling back to the
//! scalar kernel:
//!
//! 1. **Compile time** — non-x86_64 targets compile only the scalar
//!    kernel.
//! 2. **Run time** — `is_x86_feature_detected!("avx2")`.
//! 3. **Environment** — `MIRAGE_SIMD=off` forces scalar (the CI smoke
//!    runs use it to keep the fallback exercised), `auto`/unset detects.
//!
//! Engines additionally carry a per-instance [`SimdPolicy`] so tests
//! and benches can diff tiers in-process (the environment knob is
//! read once per process).
//!
//! ## Safety
//!
//! This is one of the two modules in the workspace allowed to use
//! `unsafe` (machine-enforced by `mirage-lint`'s unsafe-confined rule):
//! `#[target_feature]` kernels and unaligned vector loads/stores need
//! it. Every `unsafe` is preceded by a `// SAFETY:` argument; all
//! bounds are validated once at the safe entry point.
#![allow(unsafe_code)]

use crate::panels::{check_shapes, gemm_scalar, BfpPanels, NarrowRows, QUAD};
use crate::{BfpConfig, Result};
use std::sync::OnceLock;

/// The environment variable gating SIMD dispatch workspace-wide.
///
/// Values: `off`/`0`/`false`/`scalar` force the scalar kernels,
/// `avx2`/`auto` (and unset) detect the best tier at runtime. The
/// retired `sse2` value and unknown values warn and behave like `auto`.
pub const SIMD_ENV: &str = "MIRAGE_SIMD";

/// Instruction-set tier the dispatcher resolved, ordered by width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdTier {
    /// Scalar fallback — always available, the bit-identity oracle.
    Scalar,
    /// 256-bit kernels (runtime-detected).
    Avx2,
}

impl SimdTier {
    /// Stable label for bench reports and logs.
    pub fn label(self) -> &'static str {
        match self {
            SimdTier::Scalar => "scalar",
            SimdTier::Avx2 => "avx2",
        }
    }
}

/// Per-engine-instance SIMD policy, combined with the process-wide
/// environment tier by [`resolve_tier`]. The effective tier is the
/// *minimum* of the two, so neither an instance nor the environment can
/// escalate past what the other allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use the best tier the environment and CPU allow (default).
    #[default]
    Auto,
    /// Force this instance scalar — the oracle side of every
    /// SIMD-vs-scalar bit-identity assertion.
    Off,
}

/// The tier cap a `MIRAGE_SIMD` value asks for, plus a warning for
/// values that are not understood (detection proceeds either way).
fn parse_env(value: &str) -> (SimdTier, Option<String>) {
    match value.trim().to_ascii_lowercase().as_str() {
        "off" | "0" | "false" | "scalar" => (SimdTier::Scalar, None),
        "avx2" | "auto" | "" => (SimdTier::Avx2, None),
        "sse2" => (
            SimdTier::Avx2,
            Some(format!(
                "mirage-bfp: {SIMD_ENV}=sse2 names a removed tier (want off|avx2|auto); \
                 detecting"
            )),
        ),
        other => (
            SimdTier::Avx2,
            Some(format!(
                "mirage-bfp: ignoring unparsable {SIMD_ENV}={other:?} (want off|avx2|auto); \
                 detecting"
            )),
        ),
    }
}

/// The process-wide tier from `MIRAGE_SIMD` + CPU detection, cached.
fn env_tier() -> SimdTier {
    static TIER: OnceLock<SimdTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        let cap = match std::env::var(SIMD_ENV) {
            Ok(v) => {
                let (cap, warning) = parse_env(&v);
                if let Some(warning) = warning {
                    eprintln!("{warning}");
                }
                cap
            }
            Err(_) => SimdTier::Avx2,
        };
        cap.min(detected_tier())
    })
}

/// The widest tier this CPU supports.
fn detected_tier() -> SimdTier {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdTier::Avx2;
        }
    }
    SimdTier::Scalar
}

/// Resolves an instance policy against the process-wide environment
/// tier: the effective tier is the narrower of the two.
pub fn resolve_tier(policy: SimdPolicy) -> SimdTier {
    match policy {
        SimdPolicy::Off => SimdTier::Scalar,
        SimdPolicy::Auto => env_tier(),
    }
}

/// Whether the resolved default policy runs any vector tier.
pub fn simd_enabled() -> bool {
    resolve_tier(SimdPolicy::Auto) != SimdTier::Scalar
}

/// The elementwise tail a GEMM kernel may fold into its output write:
/// an optional per-output-column bias and an optional trailing ReLU.
///
/// Kernels apply the tail to the accumulator **registers** right before
/// the store — `acc + bias[j]`, then `max(acc, 0.0)` — so a fused tail
/// costs zero extra passes over the output. This is bit-identical to a
/// separate post-pass computing the same `(v + b).max(0.0)` chain over
/// the stored values, because an `f32` store/load round trip is exact
/// and the add/max operands are identical lane by lane.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmTail<'a> {
    /// Per-output-column bias (length must equal the GEMM's `n`).
    pub bias: Option<&'a [f32]>,
    /// Apply `v.max(0.0)` after the bias add.
    pub relu: bool,
}

impl GemmTail<'_> {
    /// The empty tail: kernels write raw GEMM outputs.
    pub fn none() -> Self {
        Self::default()
    }

    /// Whether the tail performs any work.
    pub fn is_empty(&self) -> bool {
        self.bias.is_none() && !self.relu
    }

    /// Applies the tail to one scalar accumulator at output column `j`
    /// — the exact chain every kernel (scalar or vector) must fold in.
    #[inline(always)]
    pub fn fold(&self, acc: f32, j: usize) -> f32 {
        let mut v = acc;
        if let Some(bias) = self.bias {
            v += bias.get(j).copied().unwrap_or(0.0);
        }
        if self.relu {
            v = v.max(0.0);
        }
        v
    }
}

/// Whether a group's `pmaddubsw` pair sums can accumulate in `i16`
/// lanes: every 16-bit lane adds two products per quad, so the bound is
/// `2 · quads · max_mantissa² ≤ i16::MAX`. True at the paper's `bm = 4`
/// for every `g ≤ 288`; false at `bm = 7` from `g = 5` on, where the
/// kernel widens after every quad instead.
pub fn i16_group_sums_fit(config: BfpConfig) -> bool {
    let quads = config.group_size().div_ceil(QUAD) as u128;
    let max = config.max_mantissa() as u128;
    2 * quads * max * max <= i16::MAX as u128
}

/// The BFP GEMM over narrow operands: the rows of `a` against the
/// `col_start .. col_start + n` column window of the panels `b`,
/// writing the `a.rows() × n` result into `out` with the fused `tail`.
///
/// `i8` panels at [`SimdTier::Avx2`] run the register-blocked AVX2
/// kernel; everything else runs the scalar panel kernel. Both are
/// bit-identical (see the module docs).
///
/// # Errors
///
/// [`crate::BfpError::LengthMismatch`] when the operands were quantized
/// at different configurations or reduction lengths, the window leaves
/// `b`, or a bias is not `n` long.
// mirage-lint: no_alloc
pub fn gemm_panels_into(
    tier: SimdTier,
    a: &NarrowRows,
    b: &BfpPanels,
    col_start: usize,
    n: usize,
    tail: GemmTail<'_>,
    out: &mut Vec<f32>,
) -> Result<()> {
    check_shapes(a, b, col_start, n, &tail)?;
    out.clear();
    out.resize(a.rows() * n, 0.0);
    #[cfg(target_arch = "x86_64")]
    if tier == SimdTier::Avx2 && std::arch::is_x86_feature_detected!("avx2") {
        if let Some(ops) = x86::Operands::new(a, b) {
            let window = (col_start, n);
            // SAFETY: AVX2 is verified present on this CPU immediately
            // above; `check_shapes` validated equal configurations and
            // reduction lengths, a window inside `b` and a bias of `n`
            // lanes, `Operands::new` validated the lane and exponent
            // buffer lengths, and `out` holds `rows · n` lanes.
            unsafe {
                if i16_group_sums_fit(a.config()) {
                    x86::gemm_avx2::<false>(&ops, window, tail, out);
                } else {
                    x86::gemm_avx2::<true>(&ops, window, tail, out);
                }
            }
            return Ok(());
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    gemm_scalar(a, b, col_start, n, tail, out);
    Ok(())
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::GemmTail;
    use crate::panels::{live_lanes, BfpPanels, Lanes, NarrowRows, PANEL, QUAD};
    use core::arch::x86_64::*;

    /// Rows per register block.
    const ROWS: usize = 4;

    /// The validated `i8` buffers and geometry of one GEMM.
    pub(super) struct Operands<'a> {
        a: &'a [i8],
        a_exps: &'a [i32],
        b: &'a [i8],
        b_exps: &'a [i32],
        rows: usize,
        groups: usize,
        quads: usize,
    }

    impl<'a> Operands<'a> {
        /// The operands' `i8` lanes, or `None` for wider panels. The
        /// shapes must already agree (`check_shapes`); this checks the
        /// buffer lengths every kernel access relies on.
        pub(super) fn new(a: &'a NarrowRows, b: &'a BfpPanels) -> Option<Self> {
            let (Lanes::I8(al), Lanes::I8(bl)) = (&a.lanes, &b.lanes) else {
                return None;
            };
            let (rows, groups, quads) = (a.rows(), b.groups, b.quads);
            let row_lanes = groups * quads * QUAD;
            let panels = b.n().div_ceil(PANEL);
            let fits = al.len() == rows * row_lanes
                && a.scale_exps.len() == rows * groups
                && bl.len() == panels * row_lanes * PANEL
                && b.scale_exps.len() == panels * groups * PANEL;
            fits.then_some(Operands {
                a: al,
                a_exps: &a.scale_exps,
                b: bl,
                b_exps: &b.scale_exps,
                rows,
                groups,
                quads,
            })
        }
    }

    /// The panel GEMM: for each panel of the window, row blocks of up
    /// to [`ROWS`] rows, each a register-resident 8-column accumulator
    /// per row. `WIDEN` widens every quad's pair sums to `i32` at once
    /// (when [`super::i16_group_sums_fit`] fails).
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `ops` must come from
    /// [`Operands::new`] on operands that passed `check_shapes` for
    /// this window and tail, and `out` must hold `ops.rows · n` lanes.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gemm_avx2<const WIDEN: bool>(
        ops: &Operands<'_>,
        (col_start, n): (usize, usize),
        tail: GemmTail<'_>,
        out: &mut [f32],
    ) {
        for p in col_start / PANEL..(col_start + n).div_ceil(PANEL) {
            let (lo, hi, j0) = live_lanes(p, col_start, n);
            // The panel's bias lanes (dead lanes are never stored).
            let mut bias = [0.0f32; PANEL];
            if let Some(b) = tail.bias {
                for (c, slot) in bias.iter_mut().enumerate().take(hi).skip(lo) {
                    *slot = b[(j0 + c as isize) as usize];
                }
            }
            let store = Store {
                tail,
                // SAFETY: `bias` is a local array of 8 `f32`s.
                bias: unsafe { _mm256_loadu_ps(bias.as_ptr()) },
                lanes: (lo, hi),
                j0,
                n,
            };
            let mut i = 0;
            while i + ROWS <= ops.rows {
                // SAFETY: rows `i .. i + 4` exist and panel `p` lies in
                // the validated window (this function's contract).
                unsafe { store.rows(block::<ROWS, WIDEN>(ops, p, i), i, out) };
                i += ROWS;
            }
            // SAFETY: as above, for the 1–3 remaining rows.
            unsafe {
                match ops.rows - i {
                    3 => store.rows(block::<3, WIDEN>(ops, p, i), i, out),
                    2 => store.rows(block::<2, WIDEN>(ops, p, i), i, out),
                    1 => store.rows(block::<1, WIDEN>(ops, p, i), i, out),
                    _ => {}
                }
            }
        }
    }

    /// One register block: rows `i0 .. i0 + R` against panel `p`, all
    /// groups, returning each row's 8 recombined column accumulators.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, rows `i0 .. i0 + R` must exist and panel
    /// `p` must be a panel of `ops.b` (see [`gemm_avx2`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn block<const R: usize, const WIDEN: bool>(
        ops: &Operands<'_>,
        p: usize,
        i0: usize,
    ) -> [__m256; R] {
        let (groups, quads) = (ops.groups, ops.quads);
        let stride = quads * QUAD;
        let ones = _mm256_set1_epi16(1);
        let exp_bias = _mm256_set1_epi64x(1023);
        let mut acc = [_mm256_setzero_ps(); R];
        for gi in 0..groups {
            let slot = p * groups + gi;
            let b_g = slot * stride * PANEL;
            debug_assert!(b_g + stride * PANEL <= ops.b.len());
            let mut dots = [_mm256_setzero_si256(); R];
            // Exact integer column dots (module docs).
            // mirage-lint: region(int_kernel)
            for q in 0..quads {
                // SAFETY: panel `p`'s group `gi` spans `stride · 8`
                // lanes inside `ops.b` (checked lengths, debug-asserted
                // above), and quad `q < quads` is 32 of them.
                let bv = unsafe { _mm256_loadu_si256(ops.b.as_ptr().add(b_g + q * 32).cast()) };
                for (r, d) in dots.iter_mut().enumerate() {
                    let a_q = ((i0 + r) * groups + gi) * stride + q * QUAD;
                    debug_assert!(a_q + QUAD <= ops.a.len());
                    // SAFETY: row `i0 + r`'s group `gi` spans `stride`
                    // lanes inside `ops.a` (checked lengths), so its
                    // quad `q` is 4 readable bytes.
                    let quad = unsafe { ops.a.as_ptr().add(a_q).cast::<i32>().read_unaligned() };
                    let av = _mm256_set1_epi32(quad);
                    let pairs = _mm256_maddubs_epi16(_mm256_abs_epi8(av), _mm256_sign_epi8(bv, av));
                    *d = if WIDEN {
                        _mm256_add_epi32(*d, _mm256_madd_epi16(pairs, ones))
                    } else {
                        _mm256_add_epi16(*d, pairs)
                    };
                }
            }
            if !WIDEN {
                for d in &mut dots {
                    *d = _mm256_madd_epi16(*d, ones);
                }
            }
            // mirage-lint: end_region(int_kernel)
            // 2^be per column from the exponent bits (normal range).
            // SAFETY: panel `p`'s group `gi` has 8 exponents in
            // `ops.b_exps` (checked lengths).
            let e = unsafe { _mm256_loadu_si256(ops.b_exps.as_ptr().add(slot * PANEL).cast()) };
            let pow2_lanes = |e: __m128i| {
                _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
                    _mm256_cvtepi32_epi64(e),
                    exp_bias,
                )))
            };
            let pb_lo = pow2_lanes(_mm256_castsi256_si128(e));
            let pb_hi = pow2_lanes(_mm256_extracti128_si256::<1>(e));
            for (r, (slot, d)) in acc.iter_mut().zip(dots).enumerate() {
                let ae = i64::from(ops.a_exps[(i0 + r) * groups + gi]);
                let pa = _mm256_castsi256_pd(_mm256_set1_epi64x((ae + 1023) << 52));
                let lo = _mm256_cvtpd_ps(_mm256_mul_pd(
                    _mm256_cvtepi32_pd(_mm256_castsi256_si128(d)),
                    _mm256_mul_pd(pa, pb_lo),
                ));
                let hi = _mm256_cvtpd_ps(_mm256_mul_pd(
                    _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(d)),
                    _mm256_mul_pd(pa, pb_hi),
                ));
                *slot = _mm256_add_ps(*slot, _mm256_set_m128(hi, lo));
            }
        }
        acc
    }

    /// Where one panel's accumulators land: the fused tail, the live
    /// lanes `lo .. hi`, and the output column of lane 0.
    struct Store<'a> {
        tail: GemmTail<'a>,
        bias: __m256,
        lanes: (usize, usize),
        j0: isize,
        n: usize,
    }

    impl Store<'_> {
        /// Applies the tail to each row's accumulators and stores the
        /// live lanes of rows `i0 .. i0 + R`.
        ///
        /// # Safety
        ///
        /// AVX2 must be available, `out` must hold `n` lanes for every
        /// row `i0 + r`, and the live lanes must map inside `0 .. n`.
        #[inline]
        #[target_feature(enable = "avx2")]
        unsafe fn rows<const R: usize>(&self, acc: [__m256; R], i0: usize, out: &mut [f32]) {
            let (lo, hi) = self.lanes;
            for (r, mut v) in acc.into_iter().enumerate() {
                // Same `(v + b).max(0.0)` chain as `GemmTail::fold`,
                // lane-wise on the registers.
                if self.tail.bias.is_some() {
                    v = _mm256_add_ps(v, self.bias);
                }
                if self.tail.relu {
                    v = _mm256_max_ps(v, _mm256_setzero_ps());
                }
                let row = (i0 + r) * self.n;
                if lo == 0 && hi == PANEL {
                    debug_assert!(row + self.j0 as usize + PANEL <= out.len());
                    // SAFETY: a whole-panel window has `j0 ≥ 0` and
                    // `j0 + 8 ≤ n`, so the store stays inside this row.
                    unsafe { _mm256_storeu_ps(out.as_mut_ptr().add(row + self.j0 as usize), v) };
                } else {
                    let mut lanes = [0.0f32; PANEL];
                    // SAFETY: `lanes` is a local array of 8 `f32`s.
                    unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
                    let first = row + (self.j0 + lo as isize) as usize;
                    out[first..first + hi - lo].copy_from_slice(&lanes[lo..hi]);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackedBfpMatrix;

    /// Deterministic pseudo-random values spread over a few binades.
    fn values(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let v = ((state >> 40) as f32 / 8388608.0) - 1.0;
                v * [1.0, 8.0, 0.03125][(state % 3) as usize]
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// One GEMM through the panel entry point at `tier`.
    #[allow(clippy::too_many_arguments)]
    fn panel_gemm(
        tier: SimdTier,
        config: BfpConfig,
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        (c0, width): (usize, usize),
        tail: GemmTail<'_>,
    ) -> Vec<f32> {
        let mut rows = NarrowRows::empty(config);
        rows.pack_into(a, m, k).unwrap();
        let panels = BfpPanels::pack_cols(b, k, n, config).unwrap();
        let mut out = vec![f32::NAN; 3];
        gemm_panels_into(tier, &rows, &panels, c0, width, tail, &mut out).unwrap();
        out
    }

    /// The `dot_rows` oracle over `i32` packed operands, tail folded.
    fn oracle(
        config: BfpConfig,
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
        (c0, width): (usize, usize),
        tail: GemmTail<'_>,
    ) -> Vec<f32> {
        let pa = PackedBfpMatrix::quantize_rows(a, m, k, config).unwrap();
        let pb = PackedBfpMatrix::quantize_cols(b, k, n, config).unwrap();
        (0..m * width)
            .map(|x| {
                let (i, j) = (x / width, x % width);
                tail.fold(pa.dot_rows(i, &pb, c0 + j), j)
            })
            .collect()
    }

    /// AVX2 against the scalar panel kernel, and the scalar panel kernel
    /// against `dot_rows`, bit for bit: every lane width, group sizes
    /// around the quad and panel widths, every row-block remainder,
    /// ragged `n`, windows starting inside a panel, and fused tails
    /// whose bias holds NaN and ±∞.
    #[test]
    fn panel_kernels_match_dot_rows_across_the_grid() {
        let (k, n) = (37, 21);
        let bias: Vec<f32> = (0..n)
            .map(|j| match j % 7 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                _ => j as f32 * 0.3 - 2.0,
            })
            .collect();
        for bm in [1u32, 4, 7, 8, 15, 16] {
            for g in [4usize, 8, 16, 32, 64] {
                let config = BfpConfig::new(bm, g).unwrap();
                for m in 1..=9 {
                    let a = values(m * k, (bm as u64) << 8 | m as u64);
                    let b = values(k * n, (g as u64) << 8 | bm as u64);
                    for window in [(0, n), (3, 13), (9, 1), (8, 13), (13, 8), (5, 0)] {
                        let width = window.1;
                        for (with_bias, relu) in
                            [(false, false), (true, false), (false, true), (true, true)]
                        {
                            let tail = GemmTail {
                                bias: with_bias.then_some(&bias[..width]),
                                relu,
                            };
                            let shape = (m, k, n);
                            let want = oracle(config, &a, &b, shape, window, tail);
                            let scalar =
                                panel_gemm(SimdTier::Scalar, config, &a, &b, shape, window, tail);
                            let what = format!(
                                "{config} m={m} window={window:?} bias={with_bias} relu={relu}"
                            );
                            assert_eq!(bits(&scalar), bits(&want), "scalar vs dot_rows: {what}");
                            let vector =
                                panel_gemm(detected_tier(), config, &a, &b, shape, window, tail);
                            assert_eq!(bits(&vector), bits(&scalar), "avx2 vs scalar: {what}");
                        }
                    }
                }
            }
        }
    }

    /// Every sign pattern of a ±127 quad against every sign pattern of
    /// a ±127 column quad at `bm = 7`: the `pmaddubsw` pair sums reach
    /// ±32258, the largest they can be.
    #[test]
    fn every_saturation_edge_quad_is_exact_at_bm_7() {
        let config = BfpConfig::new(7, 4).unwrap();
        assert!(
            i16_group_sums_fit(config),
            "g = 4 is the last i16 group at bm = 7"
        );
        let sign = |pattern: usize, t: usize| if pattern >> t & 1 == 1 { -127.0 } else { 127.0 };
        // 16 rows × 16 columns, k = 4: row i is pattern i, column j is
        // pattern j, so the GEMM covers all 256 quad pairs.
        let a: Vec<f32> = (0..16 * 4).map(|x| sign(x / 4, x % 4)).collect();
        let b: Vec<f32> = (0..4 * 16).map(|x| sign(x % 16, x / 16)).collect();
        let shape = (16, 4, 16);
        let got = panel_gemm(
            detected_tier(),
            config,
            &a,
            &b,
            shape,
            (0, 16),
            GemmTail::none(),
        );
        for i in 0..16 {
            for j in 0..16 {
                let exact: f32 = (0..4).map(|t| sign(i, t) * sign(j, t)).sum();
                assert_eq!(got[i * 16 + j], exact, "patterns ({i}, {j})");
            }
        }
        let scalar = panel_gemm(
            SimdTier::Scalar,
            config,
            &a,
            &b,
            shape,
            (0, 16),
            GemmTail::none(),
        );
        assert_eq!(bits(&got), bits(&scalar));
    }

    /// All-maximum groups on both sides of the `i16` accumulation bound:
    /// the last `g` that accumulates in `i16` and the first that must
    /// widen after every quad, at several mantissa widths.
    #[test]
    fn group_sums_straddling_the_i16_bound_stay_exact() {
        for (bm, last_fit) in [(4u32, 288usize), (5, 68), (6, 16), (7, 4)] {
            for (g, fits) in [(last_fit, true), (last_fit + 4, false)] {
                let config = BfpConfig::new(bm, g).unwrap();
                assert_eq!(i16_group_sums_fit(config), fits, "bm={bm} g={g}");
                let max = config.max_mantissa() as f32;
                let (m, k, n) = (5, 2 * g, 11);
                let a: Vec<f32> = (0..m * k)
                    .map(|x| if x % 5 == 0 { -max } else { max })
                    .collect();
                let b = vec![max; k * n];
                let window = (0, n);
                let got = panel_gemm(
                    detected_tier(),
                    config,
                    &a,
                    &b,
                    (m, k, n),
                    window,
                    GemmTail::none(),
                );
                let want = oracle(config, &a, &b, (m, k, n), window, GemmTail::none());
                assert_eq!(bits(&got), bits(&want), "bm={bm} g={g}");
            }
        }
    }

    #[test]
    fn mismatched_operands_are_rejected() {
        let config = BfpConfig::mirage_default();
        let mut rows = NarrowRows::empty(config);
        rows.pack_into(&values(2 * 16, 1), 2, 16).unwrap();
        let panels = BfpPanels::pack_cols(&values(16 * 9, 2), 16, 9, config).unwrap();
        let short = values(3, 3);
        let mut out = Vec::new();
        let tier = detected_tier();
        // Window past the last column, a bias of the wrong length, and
        // operands of another configuration or reduction length.
        assert!(gemm_panels_into(tier, &rows, &panels, 4, 6, GemmTail::none(), &mut out).is_err());
        let tail = GemmTail {
            bias: Some(&short),
            relu: false,
        };
        assert!(gemm_panels_into(tier, &rows, &panels, 0, 9, tail, &mut out).is_err());
        let other =
            BfpPanels::pack_cols(&values(16 * 9, 2), 16, 9, BfpConfig::new(4, 8).unwrap()).unwrap();
        assert!(gemm_panels_into(tier, &rows, &other, 0, 9, GemmTail::none(), &mut out).is_err());
        let longer = BfpPanels::pack_cols(&values(17 * 9, 2), 17, 9, config).unwrap();
        assert!(gemm_panels_into(tier, &rows, &longer, 0, 9, GemmTail::none(), &mut out).is_err());
    }

    #[test]
    fn zero_dimension_gemms_are_well_formed() {
        let config = BfpConfig::mirage_default();
        for tier in [SimdTier::Scalar, detected_tier()] {
            // k = 0: every dot is zero.
            let out = panel_gemm(tier, config, &[], &[], (3, 0, 5), (0, 5), GemmTail::none());
            assert_eq!(out, vec![0.0; 15]);
            // m = 0 and n = 0: empty outputs.
            assert!(panel_gemm(
                tier,
                config,
                &[],
                &values(16 * 4, 1),
                (0, 16, 4),
                (0, 4),
                GemmTail::none()
            )
            .is_empty());
            assert!(panel_gemm(
                tier,
                config,
                &values(32, 1),
                &[],
                (2, 16, 0),
                (0, 0),
                GemmTail::none()
            )
            .is_empty());
        }
    }

    #[test]
    fn policy_resolution_is_monotone_and_stale_values_detect() {
        assert_eq!(resolve_tier(SimdPolicy::Off), SimdTier::Scalar);
        assert!(resolve_tier(SimdPolicy::Auto) <= detected_tier());
        assert_eq!(parse_env("off"), (SimdTier::Scalar, None));
        assert_eq!(parse_env(" AUTO "), (SimdTier::Avx2, None));
        // The retired SSE2 tier warns and detects instead of panicking.
        let (cap, warning) = parse_env("sse2");
        assert_eq!(cap, SimdTier::Avx2);
        assert!(warning.is_some_and(|w| w.contains("removed")));
        assert!(parse_env("avx512").1.is_some());
        // The labels are stable bench-report vocabulary.
        assert_eq!(SimdTier::Scalar.label(), "scalar");
        assert_eq!(SimdTier::Avx2.label(), "avx2");
    }
}
