//! Explicit SIMD kernels for the RNS-BFP group pipeline.
//!
//! The RNS-BFP GEMM's hot loop computes, per activation group, one
//! small dot product *per residue channel* over the contiguous `u16`
//! planes of a packed matrix (the `U16` storage tier is chosen only
//! when `(m − 1)² · g ≤ u32::MAX`, so a plain `u32` accumulator never
//! overflows), reverse-converts the three channel residues with the
//! small-range CRT, and folds the signed integer into an `f32`
//! accumulator at the group's power-of-two scale. This module
//! vectorizes that pipeline with `pmaddwd`, the same instruction the
//! BFP mantissa kernels use.
//!
//! ## Channel dots
//!
//! - **Residues fit `i16`.** The `U16` tier bound with `g ≥ 8` forces
//!   `m − 1 ≤ ⌊√(u32::MAX / 8)⌋ = 23170 < 32768`, so every residue is
//!   a non-negative `i16` and `pmaddwd`'s signed products equal the
//!   unsigned ones.
//! - **Pairwise sums fit `i32`.** `2 · (m − 1)² ≤ 2 · 23170² < 2³¹`.
//! - **Lane accumulation is exact mod 2³².** `add_epi32` wraps mod
//!   2³², which is bit-identical to `u32` wrapping arithmetic, and the
//!   true column sum is ≤ `u32::MAX` by the tier bound — so the final
//!   lane bits *are* the exact `u32` dot, the same value the scalar
//!   `u32` accumulator produces.
//!
//! ## Fused reduction and CRT ([`Crt3Lanes`])
//!
//! On AVX2 the whole group pipeline stays in 32-bit integer lanes, 8
//! output columns per register:
//!
//! - **Channel reduction.** `d mod m` by multiply-high Barrett with
//!   `μ = ⌊2³² / m⌋`: `q = ⌊d·μ / 2³²⌋` undershoots `⌊d/m⌋` by at most
//!   one for every `d < 2³²` (the deficit is `d·(2³² mod m) / (m·2³²)
//!   < 1`), so `d − q·m < 2m` and one conditional subtraction (an
//!   unsigned `min(r, r − m)`) finishes it. `_mm256_mul_epu32` forms
//!   the 64-bit products on the even and odd lanes separately.
//! - **Small-range CRT.** `s = Σ rᵢ·wᵢ` with `rᵢ < mᵢ` and the fused
//!   weights `wᵢ = |Tᵢ·Mᵢ|_M`. [`Crt3Lanes::new`] admits a moduli set
//!   only when `Σ (mᵢ − 1)·wᵢ < 2³²`, so every product and the sum are
//!   exact `u32` lanes; `v = s mod M` is one more Barrett step, and
//!   `M < 2³¹` keeps the signed adjust `v > ψ ⇒ v − M` inside `i32`.
//!   `v` is the unique residue of the same sum the scalar
//!   `to_signed_trusted` reduces term by term, so the integers agree.
//!   Sets that fail the bound (large dynamic ranges) get no lanes and
//!   the caller runs its scalar CRT.
//! - **Scale recombination.** The same `(int as f64) · (pa2 · pb2)`
//!   chain as the scalar kernel, four `f64` lanes at a time, rounded to
//!   `f32` by `vcvtpd2ps` (nearest-even, exactly like `as f32`) and
//!   added into an 8-lane `f32` accumulator in ascending group order.
//!
//! Lane constants are derived per GEMM from the converter's
//! [`SmallCrtConstants`]; nothing is precomputed at construction.
//!
//! ## Safety
//!
//! This is one of the two modules in the workspace allowed to use
//! `unsafe` (machine-enforced by `mirage-lint`'s unsafe-confined rule).
//! Every `unsafe` is preceded by a `// SAFETY:` argument; all bounds
//! are validated once at the safe entry points, and a [`Crt3Lanes`]
//! value exists only on a CPU that reported AVX2 when it was built.
#![allow(unsafe_code)]

use crate::convert::SmallCrtConstants;
use crate::Modulus;

/// Residue channels per call — the paper's special set `{2^k − 1, 2^k,
/// 2^k + 1}` is always three channels.
pub const CHANNELS: usize = 3;

/// Output columns per fused block (one 256-bit register of `u32`/`f32`).
pub const BLOCK: usize = 8;

/// Whether the 256-bit residue kernels can run on this CPU.
fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the 128-bit residue kernels can run on this CPU.
pub fn dot4_available() -> bool {
    cfg!(target_arch = "x86_64")
}

/// The 128-bit channel dots: three channels × **4 consecutive
/// columns** per call (column `c`'s group starting at
/// `b_base + c * stride`), writing `out[channel][column]`. SSE2 is
/// baseline on x86_64, so on that arch this only declines for shape
/// reasons (`g` not a positive multiple of 8, short slices).
pub fn dot4x3_u16(
    a: [&[u16]; CHANNELS],
    a_off: usize,
    b: [&[u16]; CHANNELS],
    b_base: usize,
    stride: usize,
    g: usize,
    out: &mut [[u32; 4]; CHANNELS],
) -> bool {
    if g == 0 || !g.is_multiple_of(8) {
        return false;
    }
    for c in 0..CHANNELS {
        if a[c].len() < a_off + g || b[c].len() < b_base + 3 * stride + g {
            return false;
        }
    }
    #[cfg(target_arch = "x86_64")]
    {
        for c in 0..CHANNELS {
            // SAFETY: SSE2 is a baseline feature of the x86_64 ABI,
            // and the slice bounds for this channel are verified above.
            out[c] = unsafe { x86::dot4_u16_sse2(a[c], a_off, b[c], b_base, stride, g) };
        }
        true
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Per-GEMM lane constants of the fused AVX2 group pipeline for one
/// 3-modulus set and group size: Barrett reciprocals of the channel
/// moduli and of `M`, the fused CRT weights, and `ψ`, all as `u32`.
///
/// Built by [`Crt3Lanes::new`], which performs the whole exactness
/// check once (see the module docs); [`Crt3Lanes::block8`] then runs
/// without re-checking the CPU or the arithmetic bounds.
#[derive(Debug, Clone, Copy)]
pub struct Crt3Lanes {
    g: usize,
    moduli: [u32; CHANNELS],
    magic: [u32; CHANNELS],
    weights: [u32; CHANNELS],
    range: u32,
    range_magic: u32,
    psi: u32,
}

/// `⌊2³² / m⌋` for `2 ≤ m < 2³²`: the Barrett reciprocal of the
/// 32-bit lanes (at most `2³¹`, so it fits a `u32`).
fn barrett_u32(m: u64) -> u32 {
    ((1u64 << 32) / m) as u32
}

impl Crt3Lanes {
    /// Derives the lane constants for `moduli` (three channels) at
    /// group size `g` from the converter's small-range constants.
    ///
    /// Returns `None` — the caller keeps its scalar reduction and CRT —
    /// unless AVX2 is available, `g` is a positive multiple of 16, every
    /// channel is in the `u16` dot tier (`(m − 1)² · g ≤ u32::MAX` with
    /// `m − 1 ≤ i16::MAX`), `M < 2³¹`, and `Σ (mᵢ − 1) · wᵢ < 2³²`.
    pub fn new(moduli: &[Modulus], crt: &SmallCrtConstants<'_>, g: usize) -> Option<Self> {
        if moduli.len() != CHANNELS || crt.wi.len() != CHANNELS {
            return None;
        }
        if g == 0 || !g.is_multiple_of(16) {
            return None;
        }
        let range = crt.m.value();
        if range >= 1 << 31 || crt.psi >= range {
            return None;
        }
        let mut worst_sum = 0u128;
        let mut lanes = Crt3Lanes {
            g,
            moduli: [0; CHANNELS],
            magic: [0; CHANNELS],
            weights: [0; CHANNELS],
            range: range as u32,
            range_magic: barrett_u32(range),
            psi: crt.psi as u32,
        };
        for (c, (m, &w)) in moduli.iter().zip(crt.wi).enumerate() {
            let top = u128::from(m.value() - 1);
            if top > i16::MAX as u128 || top * top * g as u128 > u128::from(u32::MAX) {
                return None;
            }
            worst_sum += top * u128::from(w);
            lanes.moduli[c] = m.value() as u32;
            lanes.magic[c] = barrett_u32(m.value());
            lanes.weights[c] = w as u32;
        }
        if worst_sum > u128::from(u32::MAX) || !avx2_available() {
            return None;
        }
        Some(lanes)
    }

    /// One fused block: the output row segment of **8 consecutive
    /// columns** against one `a` row, over every group. Group `gi` of
    /// the row starts at `a_off + gi * G` in each channel plane of `a`;
    /// group `gi` of column `c` at `b_base + c * stride + gi * G` in
    /// each plane of `b`. `pa2[gi]` is the row's power-of-two group
    /// scale and `pb2[gi * 8 + c]` column `c`'s, so `pa2.len()` is the
    /// group count. Writes `Σ_gi ((crt(dots) as f64 · (pa2 · pb2)) as
    /// f32)` per column into `out[..8]`, groups in ascending order.
    ///
    /// Returns `false` — leaving `out` untouched — when `G` is not the
    /// group size these lanes were built for, `out` is not 8 long, or
    /// any slice is too short; the caller then runs its scalar loop.
    #[allow(clippy::too_many_arguments)]
    pub fn block8<const G: usize>(
        &self,
        a: [&[u16]; CHANNELS],
        a_off: usize,
        b: [&[u16]; CHANNELS],
        b_base: usize,
        stride: usize,
        pa2: &[f64],
        pb2: &[f64],
        out: &mut [f32],
    ) -> bool {
        let groups = pa2.len();
        let Some(span) = groups.checked_mul(G) else {
            return false;
        };
        let a_end = a_off.checked_add(span);
        let b_end = stride
            .checked_mul(BLOCK - 1)
            .and_then(|s| s.checked_add(b_base))
            .and_then(|s| s.checked_add(span));
        let (Some(a_end), Some(b_end)) = (a_end, b_end) else {
            return false;
        };
        if G != self.g
            || out.len() != BLOCK
            || pb2.len() < groups * BLOCK
            || a.iter().any(|p| p.len() < a_end)
            || b.iter().any(|p| p.len() < b_end)
        {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: a `Crt3Lanes` exists only where AVX2 was detected
            // (`new`), `G` is a positive multiple of 16 (`new` checked
            // `self.g`), and every slice bound the kernel reads is
            // verified above.
            unsafe { x86::block8_avx2::<G>(self, a, a_off, b, b_base, stride, pa2, pb2, out) };
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The integer half of the pipeline on its own: channel dots in,
    /// signed CRT integers out (for the exactness tests).
    #[cfg(test)]
    fn crt8(&self, dots: &[[u32; BLOCK]; CHANNELS]) -> [i32; BLOCK] {
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` proves AVX2; the kernel reads only its
            // arguments.
            unsafe { x86::crt8_avx2_array(self, dots) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("Crt3Lanes is never built off x86_64")
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Crt3Lanes, BLOCK, CHANNELS};
    use core::arch::x86_64::*;

    /// [`Crt3Lanes`] broadcast into registers once per block.
    struct Consts {
        moduli: [__m256i; CHANNELS],
        magic: [__m256i; CHANNELS],
        weights: [__m256i; CHANNELS],
        range: __m256i,
        range_magic: __m256i,
        psi: __m256i,
    }

    // mirage-lint: region(int_kernel)
    impl Consts {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(lanes: &Crt3Lanes) -> Self {
            let mut k = Consts {
                moduli: [_mm256_setzero_si256(); CHANNELS],
                magic: [_mm256_setzero_si256(); CHANNELS],
                weights: [_mm256_setzero_si256(); CHANNELS],
                range: _mm256_set1_epi32(lanes.range as i32),
                range_magic: _mm256_set1_epi32(lanes.range_magic as i32),
                psi: _mm256_set1_epi32(lanes.psi as i32),
            };
            for c in 0..CHANNELS {
                k.moduli[c] = _mm256_set1_epi32(lanes.moduli[c] as i32);
                k.magic[c] = _mm256_set1_epi32(lanes.magic[c] as i32);
                k.weights[c] = _mm256_set1_epi32(lanes.weights[c] as i32);
            }
            k
        }
    }

    /// `x mod m` in every `u32` lane by multiply-high Barrett with
    /// `magic = ⌊2³² / m⌋` (exact for all lanes; see the module docs).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn rem8(x: __m256i, m: __m256i, magic: __m256i) -> __m256i {
        // ⌊x·magic / 2³²⌋: even lanes from one widening multiply, odd
        // lanes from a second on the lanes shifted down into place.
        let even = _mm256_srli_epi64::<32>(_mm256_mul_epu32(x, magic));
        let odd = _mm256_mul_epu32(_mm256_srli_epi64::<32>(x), magic);
        let q = _mm256_blend_epi32::<0b1010_1010>(even, odd);
        let r = _mm256_sub_epi32(x, _mm256_mullo_epi32(q, m));
        // r < 2m: `r − m` wraps above `r` exactly when `r < m`.
        _mm256_min_epu32(r, _mm256_sub_epi32(r, m))
    }

    /// Fig. 2 step 7 for 8 columns: per-channel reduction, the fused
    /// small-range CRT, and the signed adjust — `i32` lanes out.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn crt8(k: &Consts, dots: [__m256i; CHANNELS]) -> __m256i {
        let mut s = _mm256_setzero_si256();
        for (c, &d) in dots.iter().enumerate() {
            let r = rem8(d, k.moduli[c], k.magic[c]);
            s = _mm256_add_epi32(s, _mm256_mullo_epi32(r, k.weights[c]));
        }
        let v = rem8(s, k.range, k.range_magic);
        let negative = _mm256_cmpgt_epi32(v, k.psi);
        _mm256_sub_epi32(v, _mm256_and_si256(negative, k.range))
    }

    /// One channel, 8 columns: `vpmaddwd` dots plus a horizontal-add
    /// tree folding the 8 partial vectors into one `[dot0..dot7]`
    /// vector, all arithmetic wrapping mod 2³² (≡ exact `u32` under the
    /// tier bound; see the module docs).
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `a[a_off..a_off + G]` and
    /// `b[b_base + c * stride ..][..G]` for `c < 8` must be in bounds;
    /// `G` must be a positive multiple of 16.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dots8<const G: usize>(
        a: &[u16],
        a_off: usize,
        b: &[u16],
        b_base: usize,
        stride: usize,
    ) -> __m256i {
        let mut v = [_mm256_setzero_si256(); BLOCK];
        for t in (0..G).step_by(16) {
            debug_assert!(a_off + t + 16 <= a.len());
            // SAFETY: caller guarantees `a_off + G <= a.len()`.
            let av = unsafe { _mm256_loadu_si256(a.as_ptr().add(a_off + t).cast()) };
            for (c, slot) in v.iter_mut().enumerate() {
                let off = b_base + c * stride + t;
                debug_assert!(off + 16 <= b.len());
                // SAFETY: caller guarantees the column group is in
                // bounds (debug-checked above).
                let bv = unsafe { _mm256_loadu_si256(b.as_ptr().add(off).cast()) };
                *slot = _mm256_add_epi32(*slot, _mm256_madd_epi16(av, bv));
            }
        }
        // hadd tree: [v0(0..3) v1(0..3) v2(0..3) v3(0..3) | v0(4..7) ..]
        let a01 = _mm256_hadd_epi32(v[0], v[1]);
        let a23 = _mm256_hadd_epi32(v[2], v[3]);
        let a45 = _mm256_hadd_epi32(v[4], v[5]);
        let a67 = _mm256_hadd_epi32(v[6], v[7]);
        let b0123 = _mm256_hadd_epi32(a01, a23);
        let b4567 = _mm256_hadd_epi32(a45, a67);
        _mm256_add_epi32(
            _mm256_permute2x128_si256::<0x20>(b0123, b4567),
            _mm256_permute2x128_si256::<0x31>(b0123, b4567),
        )
    }
    // mirage-lint: end_region(int_kernel)

    /// The fused block behind [`Crt3Lanes::block8`]: per group, the
    /// three channel dots, the integer CRT, and the scale
    /// recombination, with the 8 column accumulators held in one
    /// register across all groups.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `G` must be a positive multiple of 16,
    /// and the bounds checked by [`Crt3Lanes::block8`] must hold.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block8_avx2<const G: usize>(
        lanes: &Crt3Lanes,
        a: [&[u16]; CHANNELS],
        a_off: usize,
        b: [&[u16]; CHANNELS],
        b_base: usize,
        stride: usize,
        pa2: &[f64],
        pb2: &[f64],
        out: &mut [f32],
    ) {
        let k = Consts::load(lanes);
        let mut acc = _mm256_setzero_ps();
        for (gi, &pa) in pa2.iter().enumerate() {
            let off = gi * G;
            // SAFETY: the caller verified every channel's row span and
            // column-block span, which contain this group.
            let dots = unsafe {
                [
                    dots8::<G>(a[0], a_off + off, b[0], b_base + off, stride),
                    dots8::<G>(a[1], a_off + off, b[1], b_base + off, stride),
                    dots8::<G>(a[2], a_off + off, b[2], b_base + off, stride),
                ]
            };
            let ints = crt8(&k, dots);
            // Fig. 2 step 8, exponent recombination: the scalar
            // kernel's `(int as f64) * (pa2 * pb2)` chain, rounded to
            // nearest-even by `vcvtpd2ps` exactly like `as f32`.
            let pa = _mm256_set1_pd(pa);
            debug_assert!(gi * BLOCK + BLOCK <= pb2.len());
            // SAFETY: `pb2` holds at least `groups * 8` doubles and
            // `gi < groups`, so both 4-lane loads are in range.
            let (pb_lo, pb_hi) = unsafe {
                (
                    _mm256_loadu_pd(pb2.as_ptr().add(gi * BLOCK)),
                    _mm256_loadu_pd(pb2.as_ptr().add(gi * BLOCK + 4)),
                )
            };
            let lo = _mm256_cvtpd_ps(_mm256_mul_pd(
                _mm256_cvtepi32_pd(_mm256_castsi256_si128(ints)),
                _mm256_mul_pd(pa, pb_lo),
            ));
            let hi = _mm256_cvtpd_ps(_mm256_mul_pd(
                _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(ints)),
                _mm256_mul_pd(pa, pb_hi),
            ));
            acc = _mm256_add_ps(acc, _mm256_set_m128(hi, lo));
        }
        // SAFETY: the caller verified `out.len() == 8`.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
    }

    /// [`crt8`] over plain arrays (the exactness tests' entry).
    ///
    /// # Safety
    ///
    /// AVX2 must be available.
    #[cfg(test)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn crt8_avx2_array(
        lanes: &Crt3Lanes,
        dots: &[[u32; BLOCK]; CHANNELS],
    ) -> [i32; BLOCK] {
        let mut vectors = [_mm256_setzero_si256(); CHANNELS];
        for (v, d) in vectors.iter_mut().zip(dots) {
            // SAFETY: each row is exactly 8 × 4 bytes.
            *v = unsafe { _mm256_loadu_si256(d.as_ptr().cast()) };
        }
        let ints = crt8(&Consts::load(lanes), vectors);
        let mut out = [0i32; BLOCK];
        // SAFETY: `out` is exactly 8 × 4 bytes.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), ints) };
        out
    }

    /// One channel, 4 columns: `pmaddwd` dots plus an unpack-transpose
    /// reduction (SSE2 has no `phaddd`).
    ///
    /// # Safety
    ///
    /// `a[a_off..a_off + g]` and `b[b_base + c * stride ..][..g]` for
    /// `c < 4` must be in bounds; `g` must be a positive multiple of 8.
    // mirage-lint: region(int_kernel)
    #[inline]
    #[target_feature(enable = "sse2")]
    pub(super) unsafe fn dot4_u16_sse2(
        a: &[u16],
        a_off: usize,
        b: &[u16],
        b_base: usize,
        stride: usize,
        g: usize,
    ) -> [u32; 4] {
        let mut v = [_mm_setzero_si128(); 4];
        for t in (0..g).step_by(8) {
            // SAFETY: caller guarantees `a_off + g <= a.len()`.
            let av = unsafe { _mm_loadu_si128(a.as_ptr().add(a_off + t).cast()) };
            for (c, slot) in v.iter_mut().enumerate() {
                let off = b_base + c * stride + t;
                debug_assert!(off + 8 <= b.len());
                // SAFETY: caller guarantees the column group is in
                // bounds (debug-checked above).
                let bv = unsafe { _mm_loadu_si128(b.as_ptr().add(off).cast()) };
                *slot = _mm_add_epi32(*slot, _mm_madd_epi16(av, bv));
            }
        }
        let t0 = _mm_unpacklo_epi32(v[0], v[1]);
        let t1 = _mm_unpackhi_epi32(v[0], v[1]);
        let t2 = _mm_unpacklo_epi32(v[2], v[3]);
        let t3 = _mm_unpackhi_epi32(v[2], v[3]);
        let u0 = _mm_unpacklo_epi64(t0, t2);
        let u1 = _mm_unpackhi_epi64(t0, t2);
        let u2 = _mm_unpacklo_epi64(t1, t3);
        let u3 = _mm_unpackhi_epi64(t1, t3);
        let sums = _mm_add_epi32(_mm_add_epi32(u0, u1), _mm_add_epi32(u2, u3));
        let mut out = [0u32; 4];
        // SAFETY: `out` is 4 × 4 bytes, exactly one 128-bit store.
        unsafe { _mm_storeu_si128(out.as_mut_ptr().cast(), sums) };
        out
    }
    // mirage-lint: end_region(int_kernel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{CrtConverter, ReverseConverter};
    use crate::ModuliSet;

    fn residues(n: usize, m: u64, seed: u64) -> Vec<u16> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 33) % m) as u16
            })
            .collect()
    }

    fn scalar_dot(a: &[u16], a_off: usize, b: &[u16], b_off: usize, g: usize) -> u32 {
        let mut acc = 0u32;
        for t in 0..g {
            acc = acc.wrapping_add(u32::from(a[a_off + t]).wrapping_mul(u32::from(b[b_off + t])));
        }
        acc
    }

    /// The lanes for `moduli` at group size `g`, plus their converter.
    fn lanes(moduli: &[u64], g: usize) -> (Option<Crt3Lanes>, CrtConverter) {
        let conv = CrtConverter::new(&ModuliSet::new(moduli).unwrap());
        let crt = conv.small_constants().expect("small dynamic range");
        (Crt3Lanes::new(conv.set().moduli(), &crt, g), conv)
    }

    #[test]
    fn sse2_dots_match_scalar_u32_exactly() {
        // Paper-scale moduli (k = 5: {31, 32, 33}) and the largest
        // modulus the U16 tier admits at g = 16.
        for (m, g) in [(33u64, 16usize), (65, 32), (16384, 16), (33, 8)] {
            let stride = g * 2; // column groups interleaved with padding
            let a: [Vec<u16>; CHANNELS] = [
                residues(g * 3, m, 1),
                residues(g * 3, m - 1, 2),
                residues(g * 3, m + 1, 3),
            ];
            let b: [Vec<u16>; CHANNELS] = [
                residues(stride * 4, m, 4),
                residues(stride * 4, m - 1, 5),
                residues(stride * 4, m + 1, 6),
            ];
            let ar: [&[u16]; CHANNELS] = [&a[0], &a[1], &a[2]];
            let br: [&[u16]; CHANNELS] = [&b[0], &b[1], &b[2]];
            let a_off = g; // exercise a nonzero group offset
            if dot4_available() {
                let mut got = [[0u32; 4]; CHANNELS];
                assert!(dot4x3_u16(ar, a_off, br, 0, stride, g, &mut got));
                for c in 0..CHANNELS {
                    for (j, &lane) in got[c].iter().enumerate() {
                        assert_eq!(
                            lane,
                            scalar_dot(&a[c], a_off, &b[c], j * stride, g),
                            "sse2 m={m} g={g} channel {c} column {j}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn near_wraparound_sse2_sums_stay_exact() {
        // 16 products of 16383² ≈ 0.99 · u32::MAX: the largest column
        // sum the U16 tier can produce at g = 16 — one step from
        // wrapping, still exact.
        let g = 16;
        let a = vec![16383u16; g];
        let b = vec![16383u16; g * 4];
        let ar: [&[u16]; CHANNELS] = [&a, &a, &a];
        let br: [&[u16]; CHANNELS] = [&b, &b, &b];
        let want = scalar_dot(&a, 0, &b, 0, g);
        assert_eq!(want, 16383u32 * 16383 * 16);
        if dot4_available() {
            let mut got = [[0u32; 4]; CHANNELS];
            assert!(dot4x3_u16(ar, 0, br, 0, g, g, &mut got));
            assert!(got.iter().all(|ch| ch.iter().all(|&v| v == want)));
        }
    }

    #[test]
    fn crt_lanes_match_to_signed_trusted_on_every_residue_triple() {
        for (moduli, g) in [([31u64, 32, 33], 16usize), ([63, 64, 65], 32)] {
            let (Some(lanes), conv) = lanes(&moduli, g) else {
                assert!(!avx2_available(), "{moduli:?} must admit the fused lanes");
                continue;
            };
            let triples = moduli.iter().product::<u64>();
            let mut dots = [[0u32; BLOCK]; CHANNELS];
            let mut want = [0i32; BLOCK];
            for t in 0..triples {
                let lane = (t % BLOCK as u64) as usize;
                let r = [
                    t % moduli[0],
                    (t / moduli[0]) % moduli[1],
                    t / (moduli[0] * moduli[1]),
                ];
                for c in 0..CHANNELS {
                    dots[c][lane] = r[c] as u32;
                }
                want[lane] = conv.to_signed_trusted(&r) as i32;
                if lane == BLOCK - 1 || t == triples - 1 {
                    let got = lanes.crt8(&dots);
                    let used = lane + 1;
                    assert_eq!(
                        got[..used],
                        want[..used],
                        "{moduli:?} triples ending at {t}"
                    );
                }
            }
        }
    }

    #[test]
    fn crt_lanes_reduce_unreduced_dots_up_to_the_u32_limit() {
        // Raw channel dots at and around the U16-tier maximum
        // `(m − 1)² · g`, plus the u32 extremes the Barrett step must
        // also cover.
        for (moduli, g) in [
            ([31u64, 32, 33], 16usize),
            ([31, 32, 33], 32),
            ([63, 64, 65], 32),
        ] {
            let (Some(lanes), conv) = lanes(&moduli, g) else {
                continue;
            };
            let mut probes = vec![0u64, 1, u64::from(u32::MAX), u64::from(u32::MAX) - 1];
            for &m in &moduli {
                let tier_max = (m - 1) * (m - 1) * g as u64;
                for d in 0..3 {
                    probes.extend([tier_max - d, m * (tier_max / m) + d, m - d]);
                }
            }
            probes.retain(|&p| p <= u64::from(u32::MAX));
            for chunk in probes.chunks(BLOCK) {
                for rot in 0..CHANNELS {
                    let mut dots = [[0u32; BLOCK]; CHANNELS];
                    let mut want = [0i32; BLOCK];
                    for lane in 0..chunk.len() {
                        // Rotate which channel gets which probe so every
                        // modulus sees every value.
                        let d: [u64; CHANNELS] =
                            [0, 1, 2].map(|c| chunk[(lane + c + rot) % chunk.len()]);
                        let r: Vec<u64> = d.iter().zip(&moduli).map(|(&d, &m)| d % m).collect();
                        for c in 0..CHANNELS {
                            dots[c][lane] = d[c] as u32;
                        }
                        want[lane] = conv.to_signed_trusted(&r) as i32;
                    }
                    let got = lanes.crt8(&dots);
                    assert_eq!(got[..chunk.len()], want[..chunk.len()], "{moduli:?} g={g}");
                }
            }
        }
    }

    #[test]
    fn fused_block_matches_the_scalar_pipeline() {
        for (moduli, g, groups) in [
            ([31u64, 32, 33], 16usize, 5usize),
            ([31, 32, 33], 32, 3),
            ([63, 64, 65], 32, 2),
        ] {
            let (Some(lanes), conv) = lanes(&moduli, g) else {
                continue;
            };
            let stride = groups * g + g; // column groups interleaved with padding
            let a: Vec<Vec<u16>> = (0..CHANNELS)
                .map(|c| residues(groups * g * 2, moduli[c], c as u64 + 1))
                .collect();
            let b: Vec<Vec<u16>> = (0..CHANNELS)
                .map(|c| residues(stride * BLOCK, moduli[c], c as u64 + 7))
                .collect();
            let ar = [&a[0][..], &a[1], &a[2]];
            let br = [&b[0][..], &b[1], &b[2]];
            // Scales spanning overflow, subnormals and exact ties.
            let pa2: Vec<f64> = (0..groups)
                .map(|gi| 2f64.powi(gi as i32 * 97 - 160))
                .collect();
            let pb2: Vec<f64> = (0..groups * BLOCK)
                .map(|i| 2f64.powi((i as i32 % 11) * 13 - 40))
                .collect();
            let a_off = groups * g; // the second row
            let mut got = [0.0f32; BLOCK];
            assert!(
                lanes.block8::<16>(ar, a_off, br, 0, stride, &pa2, &pb2, &mut got) == (g == 16)
            );
            if g == 32 {
                assert!(lanes.block8::<32>(ar, a_off, br, 0, stride, &pa2, &pb2, &mut got));
            }
            for (col, &lane) in got.iter().enumerate() {
                let mut want = 0.0f32;
                for (gi, &pa) in pa2.iter().enumerate() {
                    let r: Vec<u64> = (0..CHANNELS)
                        .map(|c| {
                            let d =
                                scalar_dot(&a[c], a_off + gi * g, &b[c], col * stride + gi * g, g);
                            u64::from(d) % moduli[c]
                        })
                        .collect();
                    let integer = conv.to_signed_trusted(&r) as f64;
                    want += (integer * (pa * pb2[gi * BLOCK + col])) as f32;
                }
                assert_eq!(
                    lane.to_bits(),
                    want.to_bits(),
                    "{moduli:?} g={g} column {col}"
                );
            }
        }
    }

    #[test]
    fn lane_bound_admits_paper_sets_and_rejects_wide_ranges() {
        // {1021, 1023, 1024}: u16-tier channels and M < 2^31, but the
        // fused weights are ~2^30, so Σ (mᵢ − 1)·wᵢ overflows u32.
        assert!(lanes(&[1021, 1023, 1024], 16).0.is_none());
        // Group sizes off the 16-lane grid never get lanes.
        assert!(lanes(&[31, 32, 33], 8).0.is_none());
        if avx2_available() {
            for k in 4..=7u64 {
                let set = [(1 << k) - 1, 1 << k, (1 << k) + 1];
                assert!(lanes(&set, 16).0.is_some(), "k = {k}");
            }
        }
    }

    #[test]
    fn bad_shapes_decline() {
        let a = vec![1u16; 8];
        let ar: [&[u16]; CHANNELS] = [&a, &a, &a];
        let mut out4 = [[0u32; 4]; CHANNELS];
        // g = 0 and short slices decline.
        assert!(!dot4x3_u16(ar, 0, ar, 0, 8, 0, &mut out4));
        assert!(!dot4x3_u16(ar, 4, ar, 0, 8, 8, &mut out4));
        assert!(!dot4x3_u16(ar, 0, ar, 0, 8, 12, &mut out4));
        if let (Some(lanes), _) = lanes(&[31, 32, 33], 16) {
            let b = vec![1u16; 16 * 8];
            let br: [&[u16]; CHANNELS] = [&b, &b, &b];
            let a16 = vec![1u16; 16];
            let a16r: [&[u16]; CHANNELS] = [&a16, &a16, &a16];
            let mut out = [0.0f32; BLOCK];
            let pb2 = [1.0f64; BLOCK];
            // The in-bounds call succeeds…
            assert!(lanes.block8::<16>(a16r, 0, br, 0, 16, &[1.0], &pb2, &mut out));
            assert_eq!(out, [16.0; BLOCK]);
            // …short `a`, short `b`, short `pb2`, a wrong `G` and a
            // wrong `out` width all decline.
            assert!(!lanes.block8::<16>(ar, 0, br, 0, 16, &[1.0], &pb2, &mut out));
            assert!(!lanes.block8::<16>(a16r, 0, br, 0, 17, &[1.0], &pb2, &mut out));
            assert!(!lanes.block8::<16>(a16r, 0, br, 0, 16, &[1.0], &pb2[..7], &mut out));
            assert!(!lanes.block8::<32>(a16r, 0, br, 0, 16, &[1.0], &pb2, &mut out));
            assert!(!lanes.block8::<16>(a16r, 0, br, 0, 16, &[1.0], &pb2, &mut out[..4]));
        }
    }
}
