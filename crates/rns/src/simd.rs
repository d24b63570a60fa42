//! Explicit SIMD kernels for the RNS-BFP group pipeline.
//!
//! The RNS-BFP GEMM's hot loop computes, per activation group, one
//! small dot product *per residue channel* over the contiguous `u16`
//! planes of a packed matrix (the `U16` storage tier is chosen only
//! when `(m − 1)² · g ≤ u32::MAX`, so a plain `u32` accumulator never
//! overflows), reverse-converts the three channel residues with the
//! small-range CRT, and folds the signed integer into an `f32`
//! accumulator at the group's power-of-two scale. This module
//! vectorizes that pipeline with `pmaddwd`, the instruction the BFP
//! panel kernel widens its group sums with.
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
//! ## Checked lanes for redundant channels ([`CheckedLanes`])
//!
//! The RRNS-protected GEMM carries one or two redundant channels `r`
//! beside the base three. [`CheckedLanes`] runs the same pipeline over
//! all of them and adds, per group and lane:
//!
//! - **Fault deltas.** A planned residue flip adds `δ ∈ [1, m)` to the
//!   raw channel dot before the Barrett step; `(d + δ) mod m` equals
//!   the flipped residue `((d mod m) + δ) mod m`. The constructor
//!   checks `(m − 1)² · g + (m − 1) ≤ u32::MAX` on every channel, so
//!   the sum stays an exact `u32` lane.
//! - **Consistency.** The base CRT gives `v ∈ [−(ψ+1), ψ]`. The lane is
//!   consistent iff `v ≥ −ψ` and, for every redundant `r`,
//!   `(v + Kᵣ) mod r == dotᵣ mod r`, where `Kᵣ` is the least multiple
//!   of `r` at or above `ψ + 1` (so `v + Kᵣ ≥ 0` and `≡ v`). By CRT
//!   uniqueness this is exactly the scalar check a protected engine
//!   runs before deciding to correct
//!   ([`RedundantRns::is_consistent`](crate::RedundantRns::is_consistent)).
//!
//! The block returns a mask of inconsistent lanes; the caller reruns
//! just those columns through its scalar correcting decoder.
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

/// Most redundant channels a [`CheckedLanes`] carries — two are what
/// single-error correction needs.
pub const MAX_REDUNDANT: usize = 2;

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
        let Some((a_end, b_end)) = block_ends::<G>(groups, a_off, b_base, stride) else {
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

/// [`Crt3Lanes`] plus one or two redundant channels checked in lanes
/// (see the module docs): the fused block of the RRNS-protected GEMM.
///
/// Built by [`CheckedLanes::new`], which performs every bound check of
/// [`Crt3Lanes::new`] plus the fault-delta headroom on all channels.
#[derive(Debug, Clone, Copy)]
pub struct CheckedLanes {
    base: Crt3Lanes,
    redundant: usize,
    moduli: [u32; MAX_REDUNDANT],
    magic: [u32; MAX_REDUNDANT],
    /// `Kᵣ`: the least multiple of `r` at or above `ψ + 1`.
    offset: [u32; MAX_REDUNDANT],
}

impl CheckedLanes {
    /// Derives the lanes for `moduli` — the three base channels followed
    /// by one or two redundant ones — at group size `g`, from the
    /// **base** set's small-range CRT constants.
    ///
    /// Returns `None` (the caller keeps its scalar checked decode) when
    /// [`Crt3Lanes::new`] declines the base set, the redundant count is
    /// not 1 or 2, or any channel fails `m − 1 ≤ i16::MAX` and
    /// `(m − 1)² · g + (m − 1) ≤ u32::MAX`.
    pub fn new(moduli: &[Modulus], crt: &SmallCrtConstants<'_>, g: usize) -> Option<Self> {
        let (base, redundant) = moduli.split_at_checked(CHANNELS)?;
        if redundant.is_empty() || redundant.len() > MAX_REDUNDANT {
            return None;
        }
        for m in moduli {
            let top = u128::from(m.value() - 1);
            if top > i16::MAX as u128 || top * top * g as u128 + top > u128::from(u32::MAX) {
                return None;
            }
        }
        let mut lanes = CheckedLanes {
            base: Crt3Lanes::new(base, crt, g)?,
            redundant: redundant.len(),
            moduli: [1; MAX_REDUNDANT],
            magic: [0; MAX_REDUNDANT],
            offset: [0; MAX_REDUNDANT],
        };
        for (c, m) in redundant.iter().enumerate() {
            let r = m.value();
            lanes.moduli[c] = r as u32;
            lanes.magic[c] = barrett_u32(r);
            // ψ < 2³⁰ (`Crt3Lanes::new` bounds M < 2³¹), so Kᵣ < 2³¹ and
            // `v + Kᵣ ≤ ψ + Kᵣ` fits a lane.
            lanes.offset[c] = (crt.psi / r + 1) as u32 * r as u32;
        }
        Some(lanes)
    }

    /// Total channels per group: three base plus the redundant ones.
    fn channels(&self) -> usize {
        CHANNELS + self.redundant
    }

    /// One checked block: [`Crt3Lanes::block8`] over every channel
    /// plane in `a` and `b` (base first, then redundant), with each
    /// `deltas[(gi · channels + c) · 8 + lane]` added to that raw
    /// channel dot when `deltas` is given. Writes the 8 column sums
    /// into `out` and returns the mask of lanes whose group results
    /// failed the consistency check in any group (bit `lane`); the
    /// sums of masked lanes are meaningless.
    ///
    /// Returns `None` — leaving `out` untouched — on a wrong `G`, plane
    /// count, `out` width or short slice; the caller then runs its
    /// scalar checked loop.
    #[allow(clippy::too_many_arguments)]
    pub fn block8<const G: usize>(
        &self,
        a: &[&[u16]],
        a_off: usize,
        b: &[&[u16]],
        b_base: usize,
        stride: usize,
        pa2: &[f64],
        pb2: &[f64],
        deltas: Option<&[u32]>,
        out: &mut [f32],
    ) -> Option<u32> {
        let channels = self.channels();
        let (a_end, b_end) = block_ends::<G>(pa2.len(), a_off, b_base, stride)?;
        let table = pa2.len().checked_mul(channels * BLOCK)?;
        if G != self.base.g
            || a.len() != channels
            || b.len() != channels
            || out.len() != BLOCK
            || pb2.len() < pa2.len() * BLOCK
            || deltas.is_some_and(|d| d.len() < table)
            || a.iter().any(|p| p.len() < a_end)
            || b.iter().any(|p| p.len() < b_end)
        {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: a `CheckedLanes` exists only where AVX2 was
            // detected (`Crt3Lanes::new`), `G` is a positive multiple of
            // 16, the plane counts match `channels`, and every slice
            // bound the kernel reads is verified above.
            let mask = unsafe {
                match (self.redundant, deltas) {
                    (1, None) => x86::checked_block8_avx2::<G, 1, false>(
                        self,
                        a,
                        a_off,
                        b,
                        b_base,
                        stride,
                        pa2,
                        pb2,
                        &[],
                        out,
                    ),
                    (1, Some(d)) => x86::checked_block8_avx2::<G, 1, true>(
                        self, a, a_off, b, b_base, stride, pa2, pb2, d, out,
                    ),
                    (_, None) => x86::checked_block8_avx2::<G, 2, false>(
                        self,
                        a,
                        a_off,
                        b,
                        b_base,
                        stride,
                        pa2,
                        pb2,
                        &[],
                        out,
                    ),
                    (_, Some(d)) => x86::checked_block8_avx2::<G, 2, true>(
                        self, a, a_off, b, b_base, stride, pa2, pb2, d, out,
                    ),
                }
            };
            Some(mask)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            None
        }
    }

    /// The integer half on its own: raw channel dots in (base then
    /// redundant), signed base-CRT integers and the inconsistency mask
    /// out (for the exactness tests).
    #[cfg(test)]
    fn check8(&self, dots: &[[u32; BLOCK]]) -> ([i32; BLOCK], u32) {
        assert_eq!(dots.len(), self.channels());
        #[cfg(target_arch = "x86_64")]
        {
            // SAFETY: `self` proves AVX2; the kernel reads only its
            // arguments.
            unsafe { x86::check8_avx2_array(self, dots) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            unreachable!("CheckedLanes is never built off x86_64")
        }
    }
}

/// The exclusive ends of one block's `a` row span and `b` column-block
/// span, or `None` on overflow.
fn block_ends<const G: usize>(
    groups: usize,
    a_off: usize,
    b_base: usize,
    stride: usize,
) -> Option<(usize, usize)> {
    let span = groups.checked_mul(G)?;
    let a_end = a_off.checked_add(span)?;
    let b_end = stride
        .checked_mul(BLOCK - 1)?
        .checked_add(b_base)?
        .checked_add(span)?;
    Some((a_end, b_end))
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{CheckedLanes, Crt3Lanes, BLOCK, CHANNELS, MAX_REDUNDANT};
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

    /// [`CheckedLanes`]' redundant-channel constants, in registers.
    struct CheckConsts {
        /// `−(ψ + 1)`: a lane is in range iff `v > floor`.
        floor: __m256i,
        moduli: [__m256i; MAX_REDUNDANT],
        magic: [__m256i; MAX_REDUNDANT],
        offset: [__m256i; MAX_REDUNDANT],
    }

    impl CheckConsts {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(lanes: &CheckedLanes) -> Self {
            let mut k = CheckConsts {
                floor: _mm256_set1_epi32(-(lanes.base.psi as i32) - 1),
                moduli: [_mm256_setzero_si256(); MAX_REDUNDANT],
                magic: [_mm256_setzero_si256(); MAX_REDUNDANT],
                offset: [_mm256_setzero_si256(); MAX_REDUNDANT],
            };
            for r in 0..MAX_REDUNDANT {
                k.moduli[r] = _mm256_set1_epi32(lanes.moduli[r] as i32);
                k.magic[r] = _mm256_set1_epi32(lanes.magic[r] as i32);
                k.offset[r] = _mm256_set1_epi32(lanes.offset[r] as i32);
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

    /// The consistency check of [`CheckedLanes`] for the first `R`
    /// redundant channels: all-ones in every lane where `v < −ψ` or some
    /// redundant dot disagrees with `v` (see the module docs).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn inconsistent8<const R: usize>(
        k: &CheckConsts,
        v: __m256i,
        redundant: &[__m256i; R],
    ) -> __m256i {
        let mut good = _mm256_cmpgt_epi32(v, k.floor);
        for (r, &d) in redundant.iter().enumerate() {
            let want = rem8(_mm256_add_epi32(v, k.offset[r]), k.moduli[r], k.magic[r]);
            let got = rem8(d, k.moduli[r], k.magic[r]);
            good = _mm256_and_si256(good, _mm256_cmpeq_epi32(want, got));
        }
        _mm256_andnot_si256(good, _mm256_set1_epi32(-1))
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
            debug_assert!(gi * BLOCK + BLOCK <= pb2.len());
            // SAFETY: `pb2` holds at least `groups * 8` doubles and
            // `gi < groups`.
            acc = unsafe { recombine8(acc, ints, pa, pb2.as_ptr().add(gi * BLOCK)) };
        }
        // SAFETY: the caller verified `out.len() == 8`.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
    }

    /// Fig. 2 step 8, exponent recombination: the scalar kernel's
    /// `(int as f64) * (pa2 * pb2)` chain, rounded to nearest-even by
    /// `vcvtpd2ps` exactly like `as f32`, added to `acc`.
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `pb` must point at 8 readable doubles
    /// (the group's column scales).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn recombine8(acc: __m256, ints: __m256i, pa: f64, pb: *const f64) -> __m256 {
        let pa = _mm256_set1_pd(pa);
        // SAFETY: the caller guarantees 8 doubles at `pb`.
        let (pb_lo, pb_hi) = unsafe { (_mm256_loadu_pd(pb), _mm256_loadu_pd(pb.add(4))) };
        let lo = _mm256_cvtpd_ps(_mm256_mul_pd(
            _mm256_cvtepi32_pd(_mm256_castsi256_si128(ints)),
            _mm256_mul_pd(pa, pb_lo),
        ));
        let hi = _mm256_cvtpd_ps(_mm256_mul_pd(
            _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(ints)),
            _mm256_mul_pd(pa, pb_hi),
        ));
        _mm256_add_ps(acc, _mm256_set_m128(hi, lo))
    }

    /// The checked block behind [`CheckedLanes::block8`]: per group, the
    /// `3 + R` channel dots, the planned deltas (when `FAULTY`), the
    /// base CRT, the lane consistency check and the scale
    /// recombination. Returns the inconsistent-lane mask.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `G` must be a positive multiple of 16,
    /// `R` must equal `lanes.redundant`, and the bounds checked by
    /// [`CheckedLanes::block8`] must hold (`deltas` included when
    /// `FAULTY`).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn checked_block8_avx2<const G: usize, const R: usize, const FAULTY: bool>(
        lanes: &CheckedLanes,
        a: &[&[u16]],
        a_off: usize,
        b: &[&[u16]],
        b_base: usize,
        stride: usize,
        pa2: &[f64],
        pb2: &[f64],
        deltas: &[u32],
        out: &mut [f32],
    ) -> u32 {
        let k = Consts::load(&lanes.base);
        let check = CheckConsts::load(lanes);
        let channels = CHANNELS + R;
        let mut acc = _mm256_setzero_ps();
        let mut bad = _mm256_setzero_si256();
        for (gi, &pa) in pa2.iter().enumerate() {
            let off = gi * G;
            let mut base = [_mm256_setzero_si256(); CHANNELS];
            let mut redundant = [_mm256_setzero_si256(); R];
            for (c, d) in base.iter_mut().chain(redundant.iter_mut()).enumerate() {
                // SAFETY: the caller verified every channel's row span
                // and column-block span, which contain this group.
                *d = unsafe { dots8::<G>(a[c], a_off + off, b[c], b_base + off, stride) };
            }
            if FAULTY {
                let table = &deltas[gi * channels * BLOCK..(gi + 1) * channels * BLOCK];
                for (c, d) in base.iter_mut().chain(redundant.iter_mut()).enumerate() {
                    // SAFETY: `table` holds `channels` rows of 8 `u32`.
                    let delta = unsafe { _mm256_loadu_si256(table.as_ptr().add(c * BLOCK).cast()) };
                    *d = _mm256_add_epi32(*d, delta);
                }
            }
            let ints = crt8(&k, base);
            bad = _mm256_or_si256(bad, inconsistent8::<R>(&check, ints, &redundant));
            debug_assert!(gi * BLOCK + BLOCK <= pb2.len());
            // SAFETY: `pb2` holds at least `groups * 8` doubles and
            // `gi < groups`.
            acc = unsafe { recombine8(acc, ints, pa, pb2.as_ptr().add(gi * BLOCK)) };
        }
        // SAFETY: the caller verified `out.len() == 8`.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
        _mm256_movemask_ps(_mm256_castsi256_ps(bad)) as u32
    }

    /// [`crt8`] plus [`inconsistent8`] over plain arrays (the exactness
    /// tests' entry).
    ///
    /// # Safety
    ///
    /// AVX2 must be available and `dots.len() == lanes.channels()`.
    #[cfg(test)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn check8_avx2_array(
        lanes: &CheckedLanes,
        dots: &[[u32; BLOCK]],
    ) -> ([i32; BLOCK], u32) {
        let mut v = [_mm256_setzero_si256(); CHANNELS + MAX_REDUNDANT];
        for (v, d) in v.iter_mut().zip(dots) {
            // SAFETY: each row is exactly 8 × 4 bytes.
            *v = unsafe { _mm256_loadu_si256(d.as_ptr().cast()) };
        }
        let ints = crt8(&Consts::load(&lanes.base), [v[0], v[1], v[2]]);
        let check = CheckConsts::load(lanes);
        let bad = if lanes.redundant == 1 {
            inconsistent8::<1>(&check, ints, &[v[3]])
        } else {
            inconsistent8::<2>(&check, ints, &[v[3], v[4]])
        };
        let mut out = [0i32; BLOCK];
        // SAFETY: `out` is exactly 8 × 4 bytes.
        unsafe { _mm256_storeu_si256(out.as_mut_ptr().cast(), ints) };
        (out, _mm256_movemask_ps(_mm256_castsi256_ps(bad)) as u32)
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
        for (moduli, redundant, g, groups) in [
            ([31u64, 32, 33], [37u64, 41], 16usize, 5usize),
            ([31, 32, 33], [37, 41], 32, 3),
            ([63, 64, 65], [67, 71], 32, 2),
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
            // The checked lanes, fault-free: planes of signed mantissas
            // reduced into all five channels are a codeword, so the mask
            // stays clear and the sums are bit-identical to the base
            // lanes over the same three base planes.
            if let (Some(checked), _, _) = checked(&moduli, &redundant, g) {
                let mantissas = |n: usize, seed: u64| -> Vec<i64> {
                    residues(n, 31, seed)
                        .iter()
                        .map(|&x| x as i64 - 15)
                        .collect()
                };
                let plane = |values: &[i64], m: u64| -> Vec<u16> {
                    values
                        .iter()
                        .map(|&v| v.rem_euclid(m as i64) as u16)
                        .collect()
                };
                let (ma, mb) = (mantissas(groups * g * 2, 3), mantissas(stride * BLOCK, 9));
                let full: Vec<u64> = moduli.iter().chain(&redundant).copied().collect();
                let ca: Vec<Vec<u16>> = full.iter().map(|&m| plane(&ma, m)).collect();
                let cb: Vec<Vec<u16>> = full.iter().map(|&m| plane(&mb, m)).collect();
                let ca: Vec<&[u16]> = ca.iter().map(|p| &p[..]).collect();
                let cb: Vec<&[u16]> = cb.iter().map(|p| &p[..]).collect();
                let (base_a, base_b) = ([ca[0], ca[1], ca[2]], [cb[0], cb[1], cb[2]]);
                let (mut want, mut sums) = ([0.0f32; BLOCK], [0.0f32; BLOCK]);
                let mask = if g == 16 {
                    assert!(
                        lanes.block8::<16>(base_a, a_off, base_b, 0, stride, &pa2, &pb2, &mut want)
                    );
                    checked.block8::<16>(&ca, a_off, &cb, 0, stride, &pa2, &pb2, None, &mut sums)
                } else {
                    assert!(
                        lanes.block8::<32>(base_a, a_off, base_b, 0, stride, &pa2, &pb2, &mut want)
                    );
                    checked.block8::<32>(&ca, a_off, &cb, 0, stride, &pa2, &pb2, None, &mut sums)
                };
                assert_eq!(mask, Some(0), "{moduli:?} g={g}: clean data must pass");
                assert_eq!(
                    sums.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "{moduli:?} g={g}"
                );
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

    /// The checked lanes for `base` plus `redundant`, the base
    /// converter and the RRNS whose verdict the lanes must reproduce.
    fn checked(
        base: &[u64],
        redundant: &[u64],
        g: usize,
    ) -> (Option<CheckedLanes>, CrtConverter, crate::RedundantRns) {
        let conv = CrtConverter::new(&ModuliSet::new(base).unwrap());
        let rrns = crate::RedundantRns::new(base, redundant).unwrap();
        let crt = conv.small_constants().expect("small dynamic range");
        let lanes = CheckedLanes::new(rrns.full_set().moduli(), &crt, g);
        (lanes, conv, rrns)
    }

    #[test]
    fn checked_lanes_match_the_scalar_consistency_verdict_exhaustively() {
        // Every base triple of {31, 32, 33}, paired with every residue
        // of one redundant channel while the other stays consistent with
        // the base value, for each redundant channel in turn.
        let (base, redundant) = ([31u64, 32, 33], [37u64, 41]);
        let (Some(lanes), conv, rrns) = checked(&base, &redundant, 16) else {
            assert!(!avx2_available(), "the paper set must admit checked lanes");
            return;
        };
        let triples = base.iter().product::<u64>();
        let mut cases = 0u64;
        let mut flagged = 0u64;
        for (free, &r_free) in redundant.iter().enumerate() {
            let mut dots = vec![[0u32; BLOCK]; 5];
            let mut want = [(0i32, false); BLOCK];
            let mut lane = 0;
            for t in 0..triples {
                let r = [t % 31, (t / 31) % 32, t / (31 * 32)];
                let v = conv.to_signed_trusted(&r);
                let mut residues = [r[0], r[1], r[2], 0, 0];
                for (c, &m) in redundant.iter().enumerate() {
                    residues[CHANNELS + c] = v.rem_euclid(i128::from(m)) as u64;
                }
                for rho in 0..r_free {
                    residues[CHANNELS + free] = rho;
                    for (c, &x) in residues.iter().enumerate() {
                        dots[c][lane] = x as u32;
                    }
                    want[lane] = (v as i32, !rrns.is_consistent(v, &residues));
                    lane += 1;
                    let last = t == triples - 1 && rho == r_free - 1;
                    if lane == BLOCK || last {
                        let (ints, mask) = lanes.check8(&dots);
                        for (l, &(value, bad)) in want[..lane].iter().enumerate() {
                            assert_eq!(ints[l], value, "triple {t}");
                            assert_eq!(mask >> l & 1 == 1, bad, "triple {t}, residue {rho}");
                            flagged += u64::from(bad);
                        }
                        cases += lane as u64;
                        lane = 0;
                    }
                }
            }
        }
        assert_eq!(cases, triples * (37 + 41));
        assert!(flagged > 0 && flagged < cases);
    }

    #[test]
    fn checked_lanes_reject_the_out_of_range_edge() {
        // M = 32736 is even, so the base CRT reaches -(ψ+1) = -16368:
        // out of range even with both redundant channels agreeing.
        let (Some(lanes), conv, rrns) = checked(&[31, 32, 33], &[37, 41], 16) else {
            return;
        };
        let psi = rrns.psi() as i128;
        let mut dots = vec![[0u32; BLOCK]; 5];
        for (lane, value) in [-(psi + 1), -psi, psi, 0].into_iter().enumerate() {
            for (c, m) in rrns.full_set().moduli().iter().enumerate() {
                dots[c][lane] = m.reduce_i128(value) as u32;
            }
        }
        let (ints, mask) = lanes.check8(&dots);
        assert_eq!(ints[..4], [-(psi as i32) - 1, -(psi as i32), psi as i32, 0]);
        assert_eq!(mask & 0b1111, 0b0001, "only -(ψ+1) is flagged");
        let r: Vec<u64> = (0..CHANNELS).map(|c| u64::from(dots[c][0])).collect();
        assert_eq!(conv.to_signed_trusted(&r), -(psi + 1));
    }

    #[test]
    fn checked_block_applies_deltas_at_the_u16_tier_maximum_dot() {
        // Every plane holds m − 1, so every raw channel dot is the tier
        // maximum (m − 1)² · g; a delta of m − 1 then pushes it to the
        // `(m − 1)² · g + (m − 1)` bound the constructor admits.
        const G: usize = 16;
        let (base, redundant) = ([31u64, 32, 33], [37u64, 41]);
        let (Some(lanes), conv, rrns) = checked(&base, &redundant, G) else {
            return;
        };
        let moduli: Vec<u64> = base.iter().chain(&redundant).copied().collect();
        let a: Vec<Vec<u16>> = moduli.iter().map(|&m| vec![(m - 1) as u16; G]).collect();
        let b: Vec<Vec<u16>> = moduli
            .iter()
            .map(|&m| vec![(m - 1) as u16; G * BLOCK])
            .collect();
        let ar: Vec<&[u16]> = a.iter().map(|p| &p[..]).collect();
        let br: Vec<&[u16]> = b.iter().map(|p| &p[..]).collect();
        let pb2 = [1.0f64; BLOCK];
        let mut clean = [0.0f32; BLOCK];
        let mask = lanes.block8::<G>(&ar, 0, &br, 0, G, &[1.0], &pb2, None, &mut clean);
        assert_eq!(mask, Some(0));
        // Lane `c` gets channel `c`'s delta m − 1; lanes 5..8 stay clean.
        let mut deltas = vec![0u32; moduli.len() * BLOCK];
        for (c, &m) in moduli.iter().enumerate() {
            deltas[c * BLOCK + c] = (m - 1) as u32;
        }
        let mut out = [0.0f32; BLOCK];
        let mask = lanes
            .block8::<G>(&ar, 0, &br, 0, G, &[1.0], &pb2, Some(&deltas), &mut out)
            .unwrap();
        for lane in 0..BLOCK {
            let residues: Vec<u64> = moduli
                .iter()
                .enumerate()
                .map(|(c, &m)| {
                    let dot = (m - 1) * (m - 1) * G as u64;
                    let delta = u64::from(deltas[c * BLOCK + lane]);
                    (dot % m + delta) % m
                })
                .collect();
            let v = conv.to_signed_trusted(&residues[..CHANNELS]);
            assert_eq!(
                mask >> lane & 1 == 1,
                !rrns.is_consistent(v, &residues),
                "lane {lane}"
            );
            if lane >= moduli.len() {
                assert_eq!(out[lane].to_bits(), clean[lane].to_bits(), "lane {lane}");
            }
        }
        assert_eq!(
            mask, 0b1_1111,
            "a single flipped channel is always detected"
        );
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
        if let (Some(lanes), _, _) = checked(&[31, 32, 33], &[37, 41], 16) {
            let b = vec![1u16; 16 * 8];
            let a16 = [1u16; 16];
            let (a5, b5) = ([&a16[..]; 5], [&b[..]; 5]);
            let pb2 = [1.0f64; BLOCK];
            let mut out = [0.0f32; BLOCK];
            let deltas = [0u32; 5 * BLOCK];
            let ok = lanes.block8::<16>(&a5, 0, &b5, 0, 16, &[1.0], &pb2, Some(&deltas), &mut out);
            assert_eq!(ok, Some(0), "every channel dot is 16, a consistent value");
            assert_eq!(out, [16.0; BLOCK]);
            // A missing plane, a short delta table and a wrong `G` decline.
            assert!(lanes
                .block8::<16>(&a5[..4], 0, &b5, 0, 16, &[1.0], &pb2, None, &mut out)
                .is_none());
            assert!(lanes
                .block8::<16>(
                    &a5,
                    0,
                    &b5,
                    0,
                    16,
                    &[1.0],
                    &pb2,
                    Some(&deltas[1..]),
                    &mut out
                )
                .is_none());
            assert!(lanes
                .block8::<32>(&a5, 0, &b5, 0, 16, &[1.0], &pb2, None, &mut out)
                .is_none());
        }
        // Three redundant channels, or none, get no checked lanes.
        assert!(checked(&[31, 32, 33], &[37, 41, 43], 16).0.is_none());
    }
}
