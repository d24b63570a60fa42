//! The explicit AVX2 kernel of the RNS-BFP group pipeline, over `u8`
//! residue panels.
//!
//! The RNS-BFP GEMM computes, per activation group and output column,
//! one small dot product *per residue channel*, reverse-converts the
//! channel residues with the small-range CRT, and folds the signed
//! integer into an `f32` accumulator at the group's power-of-two scale.
//! When every modulus is at most 128 ([`crate::planes::U8_MAX_MODULUS`])
//! both operands store their residues as `u8` in the BFP panel geometry
//! (see [`crate::planes`]): `A` row-major at the padded group stride,
//! `B` as k-interleaved 8-column panels. One 32-byte load of a panel
//! quad holds 4 k-lanes of 8 columns, so every column's dot lands in its
//! own vector lane, with no horizontal reduction. The scalar panel
//! kernel of the GEMM engine is the oracle; this kernel is bit-identical
//! to it by the arguments below.
//!
//! ## Channel dots
//!
//! Per channel and quad, `pmaddubsw(a, b)` multiplies the broadcast `A`
//! quad (unsigned bytes) by the panel quad (signed bytes). Residues are
//! at most 127, so they are valid on both sides, every product is
//! exact, and each 16-bit pair sum is at most `2 · 127² = 32258 < 2¹⁵`:
//! it never saturates.
//!
//! ## Folding the CRT weights into the widening (fused mode)
//!
//! The small-range CRT of residues `rᵢ = dᵢ mod mᵢ` is `v = (Σ rᵢ · wᵢ)
//! mod M` with the fused weights `wᵢ = |Tᵢ · Mᵢ|_M`, then `v − M` when
//! `v > ψ`. Each `wᵢ` is a multiple of `Mᵢ = M / mᵢ`, so `mᵢ · wᵢ ≡ 0
//! (mod M)` and `dᵢ · wᵢ ≡ (dᵢ mod mᵢ) · wᵢ (mod M)` for the *raw* dot
//! `dᵢ`. The per-channel reductions are therefore unnecessary: `v = (Σ
//! dᵢ · wᵢ) mod M` is the same unique residue the scalar
//! `to_signed_trusted` reduces term by term, so after the signed adjust
//! both are the same integer in `[−ψ − 1, ψ]`. The kernel computes it
//! with one Barrett step instead of four:
//!
//! - each channel's pair sums accumulate over the group's quads in
//!   `i16` lanes, exact while `2 · quads · (m − 1)² ≤ i16::MAX`
//!   (`(g/2)(m − 1)²` for `g` a multiple of 4);
//! - one `pmaddwd` against the broadcast weight `wᵢ` (not `1`) widens
//!   each column's two `i16` halves into `dᵢ · wᵢ` in its own `i32`
//!   lane, exact while `wᵢ ≤ i16::MAX`;
//! - the channel products add in `i32`: [`Crt3Lanes::new`] admits the
//!   fused mode only when `Σᵢ (g · (mᵢ − 1)² + (mᵢ − 1)) · wᵢ < 2³¹`,
//!   which also leaves room for a fault delta per channel;
//! - `v = s mod M` by one multiply-high Barrett step with `μ = ⌊2³² /
//!   M⌋`: `q = ⌊s·μ / 2³²⌋` undershoots `⌊s/M⌋` by at most one for every
//!   `s < 2³²`, so one conditional subtraction finishes it.
//!
//! The paper's `{31, 32, 33}` at `g ∈ {16, 32}` passes all three bounds
//! (at `g = 32` the weighted sum is about 2.02 · 10⁹ < 2³¹).
//!
//! ## Wide mode
//!
//! Sets that fail a fused bound — `{63, 64, 65}`, whose `M > 2¹⁵` gives
//! weights above `i16::MAX` and whose `(g/2)(m − 1)²` reaches 2¹⁵ at `g
//! = 16` — widen every quad's pair sums with `pmaddwd(·, 1)` into exact
//! `i32` dots (bounded by `g · (m − 1)² + (m − 1) ≤ i32::MAX`), reduce
//! each channel by one Barrett step, and form `Σ rᵢ · wᵢ` (admitted
//! while `Σ (mᵢ − 1) · wᵢ < 2³²`) before the final reduction mod `M`.
//! `M < 2³¹` keeps the signed adjust inside `i32` in both modes.
//!
//! ## Scale recombination
//!
//! The scalar kernel's `(int as f64) · (pow2(ae) · pow2(be))` chain,
//! four `f64` lanes at a time, with `pow2` assembled from the exponent
//! bits (every quantizer scale exponent lies in the normal `f64`
//! range), rounded to `f32` by `vcvtpd2ps` (nearest-even, exactly like
//! `as f32`) and added into an 8-lane `f32` accumulator in ascending
//! group order.
//!
//! ## Checked lanes for redundant channels ([`CheckedLanes`])
//!
//! The RRNS-protected GEMM carries one or two redundant channels `r`
//! beside the base three. [`CheckedLanes`] runs the same base pipeline
//! and adds, per group and lane:
//!
//! - **Fault deltas.** A planned residue flip adds `δ ∈ [1, m)` to a
//!   channel. On a base channel in fused mode it adds `δ · wᵢ` to the
//!   weighted sum, since `(dᵢ + δ) · wᵢ ≡ ((dᵢ mod mᵢ + δ) mod mᵢ) · wᵢ`;
//!   in wide mode, and on a redundant channel, it adds `δ` to the raw
//!   dot before that channel's Barrett step, and `(d + δ) mod m` is the
//!   flipped residue. The bounds above include this headroom.
//! - **Consistency.** Redundant channels keep their explicit dot and
//!   reduction. The base CRT gives `v ∈ [−(ψ+1), ψ]`; the lane is
//!   consistent iff `v ≥ −ψ` and, for every redundant `r`, `(v + Kᵣ) mod
//!   r == dotᵣ mod r`, where `Kᵣ` is the least multiple of `r` at or
//!   above `ψ + 1` (so `v + Kᵣ ≥ 0` and `≡ v`). By CRT uniqueness this is
//!   exactly the scalar check a protected engine runs before deciding
//!   to correct
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
//! are validated at the safe entry points, and a [`Crt3Lanes`] value
//! exists only on a CPU that reported AVX2 when it was built.
#![allow(unsafe_code)]

use crate::convert::SmallCrtConstants;
use crate::planes::{PANEL, QUAD, U8_MAX_MODULUS};
use crate::Modulus;

/// Base residue channels per call — the paper's special set `{2^k − 1,
/// 2^k, 2^k + 1}` is always three channels.
pub const CHANNELS: usize = 3;

/// Most redundant channels a [`CheckedLanes`] carries — two are what
/// single-error correction needs.
pub const MAX_REDUNDANT: usize = 2;

/// Most channels one block reads: the base three plus the redundant.
const MAX_CHANNELS: usize = CHANNELS + MAX_REDUNDANT;

/// Whether the 256-bit residue kernel can run on this CPU.
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

/// `⌊2³² / m⌋` for `2 ≤ m < 2³²`: the Barrett reciprocal of the
/// 32-bit lanes (at most `2³¹`, so it fits a `u32`).
fn barrett_u32(m: u64) -> u32 {
    ((1u64 << 32) / m) as u32
}

/// Whether one channel's `pmaddubsw` pair sums can accumulate over a
/// whole group in `i16` lanes: each 16-bit lane adds two products per
/// quad, so the bound is `2 · quads · (m − 1)² ≤ i16::MAX`.
fn i16_group_sums_fit(m: &Modulus, quads: usize) -> bool {
    let top = u128::from(m.value() - 1);
    2 * quads as u128 * top * top <= i16::MAX as u128
}

/// Per-GEMM lane constants of the AVX2 group pipeline for one 3-modulus
/// set and group size: the group's quad count, whether the CRT weights
/// fold into the widening (the fused mode, see the module docs),
/// Barrett reciprocals of the channel moduli and of `M`, the fused CRT
/// weights, and `ψ`, all as `u32`.
///
/// Built by [`Crt3Lanes::new`], which performs the whole exactness
/// check once; [`Crt3Lanes::block`] then runs without re-checking the
/// CPU or the arithmetic bounds.
#[derive(Debug, Clone, Copy)]
pub struct Crt3Lanes {
    quads: usize,
    fused: bool,
    moduli: [u32; CHANNELS],
    magic: [u32; CHANNELS],
    weights: [u32; CHANNELS],
    range: u32,
    range_magic: u32,
    psi: u32,
}

impl Crt3Lanes {
    /// Derives the lane constants for `moduli` (three channels) at
    /// group size `g` from the converter's small-range constants.
    ///
    /// Returns `None` — the caller keeps its scalar panel kernel —
    /// unless AVX2 is available, every modulus is at most 128 (`u8`
    /// planes), `M < 2³¹`, every widened dot fits `i32`, and `Σ (mᵢ −
    /// 1) · wᵢ < 2³²`. The fused mode is chosen when the `i16`
    /// group-sum, `wᵢ ≤ i16::MAX` and `2³¹` bounds also hold.
    pub fn new(moduli: &[Modulus], crt: &SmallCrtConstants<'_>, g: usize) -> Option<Self> {
        Self::for_channels(moduli, moduli, crt, g)
    }

    /// [`Crt3Lanes::new`] for the `base` channels of a block that reads
    /// every channel of `all`: the `u8`, `i32` and `i16` bounds must
    /// hold on each of them.
    fn for_channels(
        base: &[Modulus],
        all: &[Modulus],
        crt: &SmallCrtConstants<'_>,
        g: usize,
    ) -> Option<Self> {
        if base.len() != CHANNELS || crt.wi.len() != CHANNELS || g == 0 {
            return None;
        }
        let range = crt.m.value();
        if range >= 1 << 31 || crt.psi >= range {
            return None;
        }
        let top = |m: &Modulus| u128::from(m.value() - 1);
        // The largest raw dot plus fault delta of a channel.
        let dot_max = |m: &Modulus| g as u128 * top(m) * top(m) + top(m);
        if all
            .iter()
            .any(|m| m.value() > U8_MAX_MODULUS || dot_max(m) > i32::MAX as u128)
        {
            return None;
        }
        let quads = g.div_ceil(QUAD);
        let mut lanes = Crt3Lanes {
            quads,
            fused: all.iter().all(|m| i16_group_sums_fit(m, quads)),
            moduli: [0; CHANNELS],
            magic: [0; CHANNELS],
            weights: [0; CHANNELS],
            range: range as u32,
            range_magic: barrett_u32(range),
            psi: crt.psi as u32,
        };
        let (mut fused_sum, mut reduced_sum) = (0u128, 0u128);
        for (c, (m, &w)) in base.iter().zip(crt.wi).enumerate() {
            fused_sum += dot_max(m) * u128::from(w);
            reduced_sum += top(m) * u128::from(w);
            lanes.fused &= w <= i16::MAX as u64;
            lanes.moduli[c] = m.value() as u32;
            lanes.magic[c] = barrett_u32(m.value());
            lanes.weights[c] = w as u32;
        }
        lanes.fused &= fused_sum <= i32::MAX as u128;
        if reduced_sum > u128::from(u32::MAX) || !avx2_available() {
            return None;
        }
        Some(lanes)
    }

    /// One block: the 8 columns of one `B` panel against one `A` row,
    /// over every group. `a[c]` is the row's lanes in channel `c`
    /// (`groups · quads · 4`, groups at the padded stride), `b[c]` the
    /// panel's (`groups · quads · 32`, see [`crate::planes`]), `a_exps`
    /// the row's group scale exponents (so `a_exps.len()` is the group
    /// count) and `b_exps` the panel's, 8 per group. Writes `Σ_gi
    /// ((crt(dots) as f64 · (pow2(ae) · pow2(be))) as f32)` per column
    /// into `out`, groups in ascending order.
    ///
    /// Returns `false` — leaving `out` untouched — when any slice is too
    /// short for that geometry; the caller then runs its scalar loop.
    pub fn block(
        &self,
        a: [&[u8]; CHANNELS],
        b: [&[u8]; CHANNELS],
        a_exps: &[i32],
        b_exps: &[i32],
        out: &mut [f32; PANEL],
    ) -> bool {
        if !self.fits(&a, &b, a_exps, b_exps) {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let ops = x86::Block {
                a: &a,
                b: &b,
                a_exps,
                b_exps,
                deltas: &[],
            };
            // SAFETY: a `Crt3Lanes` exists only where AVX2 was detected
            // (`new`), `fits` verified every slice bound the kernel
            // reads, and no deltas are read without redundant channels.
            unsafe {
                if self.fused {
                    x86::block_avx2::<0, true, false>(self, &Redundant::NONE, &ops, out);
                } else {
                    x86::block_avx2::<0, false, false>(self, &Redundant::NONE, &ops, out);
                }
            }
            true
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// Whether the operand slices hold the block geometry the kernel
    /// reads (see [`Crt3Lanes::block`]).
    fn fits(&self, a: &[&[u8]], b: &[&[u8]], a_exps: &[i32], b_exps: &[i32]) -> bool {
        let groups = a_exps.len();
        let Some(row) = groups.checked_mul(self.quads * QUAD) else {
            return false;
        };
        a.iter().all(|p| p.len() >= row)
            && b.iter().all(|p| p.len() / PANEL >= row)
            && b_exps.len() / PANEL >= groups
    }
}

/// The redundant channels' constants of a [`CheckedLanes`] (moduli 1
/// and zeros past the redundant count).
#[derive(Debug, Clone, Copy)]
struct Redundant {
    moduli: [u32; MAX_REDUNDANT],
    magic: [u32; MAX_REDUNDANT],
    /// `Kᵣ`: the least multiple of `r` at or above `ψ + 1`.
    offset: [u32; MAX_REDUNDANT],
}

impl Redundant {
    /// No redundant channels: the unprotected block.
    const NONE: Redundant = Redundant {
        moduli: [1; MAX_REDUNDANT],
        magic: [0; MAX_REDUNDANT],
        offset: [0; MAX_REDUNDANT],
    };
}

/// [`Crt3Lanes`] plus one or two redundant channels checked in lanes
/// (see the module docs): the block of the RRNS-protected GEMM.
///
/// Built by [`CheckedLanes::new`], which performs every bound check of
/// [`Crt3Lanes::new`] on all channels, base and redundant.
#[derive(Debug, Clone, Copy)]
pub struct CheckedLanes {
    base: Crt3Lanes,
    redundant: usize,
    constants: Redundant,
}

impl CheckedLanes {
    /// Derives the lanes for `moduli` — the three base channels followed
    /// by one or two redundant ones — at group size `g`, from the
    /// **base** set's small-range CRT constants.
    ///
    /// Returns `None` (the caller keeps its scalar checked decode) when
    /// the redundant count is not 1 or 2 or the bounds of
    /// [`Crt3Lanes::new`] fail on any channel; the `i16` group-sum
    /// bound decides the fused mode over every channel.
    pub fn new(moduli: &[Modulus], crt: &SmallCrtConstants<'_>, g: usize) -> Option<Self> {
        let (base, redundant) = moduli.split_at_checked(CHANNELS)?;
        if redundant.is_empty() || redundant.len() > MAX_REDUNDANT {
            return None;
        }
        let mut lanes = CheckedLanes {
            base: Crt3Lanes::for_channels(base, moduli, crt, g)?,
            redundant: redundant.len(),
            constants: Redundant::NONE,
        };
        for (c, m) in redundant.iter().enumerate() {
            let r = m.value();
            lanes.constants.moduli[c] = r as u32;
            lanes.constants.magic[c] = barrett_u32(r);
            // ψ < 2³⁰ (M < 2³¹), so Kᵣ < 2³¹ and `v + Kᵣ ≤ ψ + Kᵣ`
            // fits a lane.
            lanes.constants.offset[c] = (crt.psi / r + 1) as u32 * r as u32;
        }
        Some(lanes)
    }

    /// Total channels per group: three base plus the redundant ones.
    fn channels(&self) -> usize {
        CHANNELS + self.redundant
    }

    /// One checked block: [`Crt3Lanes::block`] over every channel plane
    /// in `a` and `b` (base first, then redundant), with each
    /// `deltas[(gi · channels + c) · 8 + lane]` added to that channel
    /// when `deltas` is given. Writes the 8 column sums into `out` and
    /// returns the mask of lanes whose group results failed the
    /// consistency check in any group (bit `lane`); the sums of masked
    /// lanes are meaningless.
    ///
    /// Returns `None` — leaving `out` untouched — on a wrong plane
    /// count or a short slice; the caller then runs its scalar checked
    /// loop.
    pub fn block(
        &self,
        a: &[&[u8]],
        b: &[&[u8]],
        a_exps: &[i32],
        b_exps: &[i32],
        deltas: Option<&[u32]>,
        out: &mut [f32; PANEL],
    ) -> Option<u32> {
        let channels = self.channels();
        let table = a_exps.len().checked_mul(channels * PANEL)?;
        if a.len() != channels
            || b.len() != channels
            || deltas.is_some_and(|d| d.len() < table)
            || !self.base.fits(a, b, a_exps, b_exps)
        {
            return None;
        }
        #[cfg(target_arch = "x86_64")]
        {
            let ops = x86::Block {
                a,
                b,
                a_exps,
                b_exps,
                deltas: deltas.unwrap_or_default(),
            };
            let (lanes, red) = (&self.base, &self.constants);
            // SAFETY: a `CheckedLanes` exists only where AVX2 was
            // detected (`Crt3Lanes::for_channels`), the plane counts
            // match `R`, and every slice bound the kernel reads —
            // including the delta table when `FAULTY` — is verified
            // above.
            let mask = unsafe {
                match (self.redundant, deltas.is_some(), lanes.fused) {
                    (1, false, true) => x86::block_avx2::<1, true, false>(lanes, red, &ops, out),
                    (1, false, false) => x86::block_avx2::<1, false, false>(lanes, red, &ops, out),
                    (1, true, true) => x86::block_avx2::<1, true, true>(lanes, red, &ops, out),
                    (1, true, false) => x86::block_avx2::<1, false, true>(lanes, red, &ops, out),
                    (_, false, true) => x86::block_avx2::<2, true, false>(lanes, red, &ops, out),
                    (_, false, false) => x86::block_avx2::<2, false, false>(lanes, red, &ops, out),
                    (_, true, true) => x86::block_avx2::<2, true, true>(lanes, red, &ops, out),
                    (_, true, false) => x86::block_avx2::<2, false, true>(lanes, red, &ops, out),
                }
            };
            Some(mask)
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            None
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{Crt3Lanes, Redundant, CHANNELS, MAX_CHANNELS, MAX_REDUNDANT, PANEL, QUAD};
    use core::arch::x86_64::*;

    /// One block's operands, validated by the safe entry points.
    pub(super) struct Block<'s, 'p> {
        pub(super) a: &'s [&'p [u8]],
        pub(super) b: &'s [&'p [u8]],
        pub(super) a_exps: &'s [i32],
        pub(super) b_exps: &'s [i32],
        pub(super) deltas: &'s [u32],
    }

    /// [`Crt3Lanes`] and the redundant constants, broadcast into
    /// registers once per block.
    struct Consts {
        moduli: [__m256i; CHANNELS],
        magic: [__m256i; CHANNELS],
        /// The weights as `i32` lanes (for `mullo`) and as `i16` lanes
        /// (for the fused `pmaddwd`).
        weights: [__m256i; CHANNELS],
        weights16: [__m256i; CHANNELS],
        range: __m256i,
        range_magic: __m256i,
        psi: __m256i,
        /// `−(ψ + 1)`: a lane is in range iff `v > floor`.
        floor: __m256i,
        red_moduli: [__m256i; MAX_REDUNDANT],
        red_magic: [__m256i; MAX_REDUNDANT],
        red_offset: [__m256i; MAX_REDUNDANT],
    }

    // mirage-lint: region(int_kernel)
    impl Consts {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(lanes: &Crt3Lanes, red: &Redundant) -> Self {
            let set = |v: u32| _mm256_set1_epi32(v as i32);
            Consts {
                moduli: lanes.moduli.map(set),
                magic: lanes.magic.map(set),
                weights: lanes.weights.map(set),
                // Only read in the fused mode, where wᵢ ≤ i16::MAX.
                weights16: lanes.weights.map(|w| _mm256_set1_epi16(w as i16)),
                range: set(lanes.range),
                range_magic: set(lanes.range_magic),
                psi: set(lanes.psi),
                floor: _mm256_set1_epi32(-(lanes.psi as i32) - 1),
                red_moduli: red.moduli.map(set),
                red_magic: red.magic.map(set),
                red_offset: red.offset.map(set),
            }
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

    /// Fig. 2 step 7 for 8 columns from the base channels' group sums
    /// (plus deltas when `FAULTY`): the CRT folded into the widening
    /// (`FUSED`) or reduced channel by channel, one reduction mod `M`,
    /// and the signed adjust — `i32` lanes out.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn crt8<const FUSED: bool, const FAULTY: bool>(
        k: &Consts,
        sums: &[__m256i; MAX_CHANNELS],
        deltas: &[__m256i; MAX_CHANNELS],
    ) -> __m256i {
        let mut s = _mm256_setzero_si256();
        for c in 0..CHANNELS {
            if FUSED {
                // dᵢ · wᵢ per column: each column's two i16 halves times
                // the i16 weight, added into its own i32 lane.
                s = _mm256_add_epi32(s, _mm256_madd_epi16(sums[c], k.weights16[c]));
                if FAULTY {
                    s = _mm256_add_epi32(s, _mm256_mullo_epi32(deltas[c], k.weights[c]));
                }
            } else {
                let d = if FAULTY {
                    _mm256_add_epi32(sums[c], deltas[c])
                } else {
                    sums[c]
                };
                let r = rem8(d, k.moduli[c], k.magic[c]);
                s = _mm256_add_epi32(s, _mm256_mullo_epi32(r, k.weights[c]));
            }
        }
        let v = rem8(s, k.range, k.range_magic);
        let negative = _mm256_cmpgt_epi32(v, k.psi);
        _mm256_sub_epi32(v, _mm256_and_si256(negative, k.range))
    }

    /// The consistency check of [`super::CheckedLanes`] for `R`
    /// redundant channels: all-ones in every lane where `v < −ψ` or
    /// some redundant dot (raw, deltas added) disagrees with `v` (see
    /// the module docs).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn inconsistent8<const R: usize>(k: &Consts, v: __m256i, dots: &[__m256i; R]) -> __m256i {
        let mut good = _mm256_cmpgt_epi32(v, k.floor);
        for (r, &d) in dots.iter().enumerate() {
            let (m, magic) = (k.red_moduli[r], k.red_magic[r]);
            let want = rem8(_mm256_add_epi32(v, k.red_offset[r]), m, magic);
            let got = rem8(d, m, magic);
            good = _mm256_and_si256(good, _mm256_cmpeq_epi32(want, got));
        }
        _mm256_andnot_si256(good, _mm256_set1_epi32(-1))
    }
    // mirage-lint: end_region(int_kernel)

    /// The block behind [`Crt3Lanes::block`] (`R = 0`) and
    /// [`super::CheckedLanes::block`]: per group, the `3 + R` channel
    /// sums, the planned deltas (when `FAULTY`), the base CRT, the lane
    /// consistency check (when `R > 0`) and the scale recombination,
    /// with the 8 column accumulators held in one register across all
    /// groups. Returns the inconsistent-lane mask (0 when `R = 0`).
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `lanes` must come from
    /// [`Crt3Lanes::for_channels`] over every channel of `ops` (so
    /// `FUSED` may equal `lanes.fused` only), `ops` must hold `3 + R`
    /// planes per side passing [`Crt3Lanes::fits`], and `ops.deltas`
    /// must hold `groups · (3 + R) · 8` entries when `FAULTY`.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_avx2<const R: usize, const FUSED: bool, const FAULTY: bool>(
        lanes: &Crt3Lanes,
        red: &Redundant,
        ops: &Block<'_, '_>,
        out: &mut [f32; PANEL],
    ) -> u32 {
        let channels = CHANNELS + R;
        let k = Consts::load(lanes, red);
        let ones = _mm256_set1_epi16(1);
        let exp_bias = _mm256_set1_epi64x(1023);
        let (quads, stride) = (lanes.quads, lanes.quads * QUAD);
        let mut a_ptr = [core::ptr::null::<u8>(); MAX_CHANNELS];
        let mut b_ptr = a_ptr;
        for c in 0..channels {
            (a_ptr[c], b_ptr[c]) = (ops.a[c].as_ptr(), ops.b[c].as_ptr());
        }
        let mut acc = _mm256_setzero_ps();
        let mut bad = _mm256_setzero_si256();
        for (gi, &ae) in ops.a_exps.iter().enumerate() {
            let (a_g, b_g) = (gi * stride, gi * stride * PANEL);
            let mut sums = [_mm256_setzero_si256(); MAX_CHANNELS];
            // Exact channel dots (module docs): i16 group sums when
            // `FUSED`, else i32 sums widened every quad.
            // mirage-lint: region(int_kernel)
            for q in 0..quads {
                for c in 0..channels {
                    // SAFETY: row group `gi` spans `stride` lanes of
                    // channel `c` inside `a` and panel group `gi` spans
                    // `stride · 8` inside `b` (`fits`), so quad `q` is 4
                    // readable bytes of `a` and 32 of `b`.
                    let (quad, bv) = unsafe {
                        (
                            a_ptr[c].add(a_g + q * QUAD).cast::<i32>().read_unaligned(),
                            _mm256_loadu_si256(b_ptr[c].add(b_g + q * QUAD * PANEL).cast()),
                        )
                    };
                    let pairs = _mm256_maddubs_epi16(_mm256_set1_epi32(quad), bv);
                    sums[c] = if FUSED {
                        _mm256_add_epi16(sums[c], pairs)
                    } else {
                        _mm256_add_epi32(sums[c], _mm256_madd_epi16(pairs, ones))
                    };
                }
            }
            let mut deltas = [_mm256_setzero_si256(); MAX_CHANNELS];
            if FAULTY {
                let table = gi * channels * PANEL;
                for (c, d) in deltas.iter_mut().enumerate().take(channels) {
                    debug_assert!(table + (c + 1) * PANEL <= ops.deltas.len());
                    // SAFETY: `FAULTY` blocks carry `groups · channels`
                    // rows of 8 `u32` deltas (the caller's contract).
                    *d = unsafe {
                        _mm256_loadu_si256(ops.deltas.as_ptr().add(table + c * PANEL).cast())
                    };
                }
            }
            let ints = crt8::<FUSED, FAULTY>(&k, &sums, &deltas);
            if R > 0 {
                let mut dots = [_mm256_setzero_si256(); R];
                for (r, d) in dots.iter_mut().enumerate() {
                    let c = CHANNELS + r;
                    *d = if FUSED {
                        _mm256_madd_epi16(sums[c], ones)
                    } else {
                        sums[c]
                    };
                    if FAULTY {
                        *d = _mm256_add_epi32(*d, deltas[c]);
                    }
                }
                bad = _mm256_or_si256(bad, inconsistent8::<R>(&k, ints, &dots));
            }
            // mirage-lint: end_region(int_kernel)
            // Fig. 2 step 8, exponent recombination: 2^ae and 2^be per
            // column from the exponent bits (normal range).
            // SAFETY: the panel's group `gi` has 8 exponents (`fits`).
            let e = unsafe { _mm256_loadu_si256(ops.b_exps.as_ptr().add(gi * PANEL).cast()) };
            let pow2_lanes = |e: __m128i| {
                _mm256_castsi256_pd(_mm256_slli_epi64::<52>(_mm256_add_epi64(
                    _mm256_cvtepi32_epi64(e),
                    exp_bias,
                )))
            };
            let pa = _mm256_castsi256_pd(_mm256_set1_epi64x((i64::from(ae) + 1023) << 52));
            let lo = _mm256_cvtpd_ps(_mm256_mul_pd(
                _mm256_cvtepi32_pd(_mm256_castsi256_si128(ints)),
                _mm256_mul_pd(pa, pow2_lanes(_mm256_castsi256_si128(e))),
            ));
            let hi = _mm256_cvtpd_ps(_mm256_mul_pd(
                _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(ints)),
                _mm256_mul_pd(pa, pow2_lanes(_mm256_extracti128_si256::<1>(e))),
            ));
            acc = _mm256_add_ps(acc, _mm256_set_m128(hi, lo));
        }
        // SAFETY: `out` is exactly 8 `f32`s.
        unsafe { _mm256_storeu_ps(out.as_mut_ptr(), acc) };
        _mm256_movemask_ps(_mm256_castsi256_ps(bad)) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convert::{CrtConverter, ReverseConverter};
    use crate::{ModuliSet, RedundantRns};

    /// `2^e` for a normal-range exponent (the scalar kernel's `pow2`).
    fn pow2(e: i32) -> f64 {
        f64::from_bits(((e + 1023) as u64) << 52)
    }

    /// One block's inputs before packing: per channel, one `A` row of
    /// `groups · g` residues and 8 `B` columns of as many.
    struct Case {
        g: usize,
        a: Vec<Vec<u8>>,
        b: Vec<[Vec<u8>; PANEL]>,
        a_exps: Vec<i32>,
        b_exps: Vec<i32>,
    }

    impl Case {
        /// A one-group case with every residue given lane by lane.
        fn filled(g: usize, channels: usize, a: impl Fn(usize, usize) -> u8) -> Self {
            Case {
                g,
                a: (0..channels)
                    .map(|c| (0..g).map(|t| a(c, t)).collect())
                    .collect(),
                b: (0..channels)
                    .map(|_| std::array::from_fn(|_| vec![0; g]))
                    .collect(),
                a_exps: vec![0],
                b_exps: vec![0; PANEL],
            }
        }

        fn groups(&self) -> usize {
            self.a_exps.len()
        }

        /// The operands in the panel geometry (see [`crate::planes`]).
        fn packed(&self) -> Packed {
            let (g, groups) = (self.g, self.groups());
            let stride = g.div_ceil(QUAD) * QUAD;
            let a = self
                .a
                .iter()
                .map(|row| {
                    let mut lanes = vec![0u8; groups * stride];
                    for (gi, group) in row.chunks(g).enumerate() {
                        lanes[gi * stride..gi * stride + g].copy_from_slice(group);
                    }
                    lanes
                })
                .collect();
            let b = self
                .b
                .iter()
                .map(|cols| {
                    let mut lanes = vec![0u8; groups * stride * PANEL];
                    for (col, column) in cols.iter().enumerate() {
                        for (x, &r) in column.iter().enumerate() {
                            let (gi, t) = (x / g, x % g);
                            let q = t / QUAD;
                            lanes[(gi * stride + q * QUAD) * PANEL + col * QUAD + t % QUAD] = r;
                        }
                    }
                    lanes
                })
                .collect();
            Packed {
                a,
                b,
                a_exps: self.a_exps.clone(),
                b_exps: self.b_exps.clone(),
            }
        }

        /// The raw dot of channel `c`, group `gi`, column `col`.
        fn dot(&self, c: usize, gi: usize, col: usize) -> u64 {
            let span = gi * self.g..(gi + 1) * self.g;
            self.a[c][span.clone()]
                .iter()
                .zip(&self.b[c][col][span])
                .map(|(&x, &w)| u64::from(x) * u64::from(w))
                .sum()
        }

        /// The scalar pipeline: per column, each group's channel
        /// residues (deltas added) through `decode`, recombined in
        /// ascending group order.
        fn scalar(
            &self,
            moduli: &[u64],
            deltas: Option<&[u32]>,
            mut decode: impl FnMut(&[u64]) -> i128,
        ) -> [f32; PANEL] {
            let channels = moduli.len();
            std::array::from_fn(|col| {
                let mut acc = 0.0f32;
                for gi in 0..self.groups() {
                    let residues: Vec<u64> = (0..channels)
                        .map(|c| {
                            let delta = deltas
                                .map_or(0, |d| u64::from(d[(gi * channels + c) * PANEL + col]));
                            (self.dot(c, gi, col) + delta) % moduli[c]
                        })
                        .collect();
                    let integer = decode(&residues) as f64;
                    let scale = pow2(self.a_exps[gi]) * pow2(self.b_exps[gi * PANEL + col]);
                    acc += (integer * scale) as f32;
                }
                acc
            })
        }

        fn run(&self, lanes: &Crt3Lanes) -> [f32; PANEL] {
            self.packed().run(lanes)
        }

        fn run_checked(&self, lanes: &CheckedLanes, deltas: Option<&[u32]>) -> ([f32; PANEL], u32) {
            self.packed().run_checked(lanes, deltas)
        }
    }

    /// One block's operands in the panel geometry, with their scale
    /// exponents.
    struct Packed {
        a: Vec<Vec<u8>>,
        b: Vec<Vec<u8>>,
        a_exps: Vec<i32>,
        b_exps: Vec<i32>,
    }

    impl Packed {
        /// The unprotected block over the first three channels.
        fn run(&self, lanes: &Crt3Lanes) -> [f32; PANEL] {
            let (a, b) = (&self.a, &self.b);
            let mut out = [f32::NAN; PANEL];
            assert!(lanes.block(
                [&a[0], &a[1], &a[2]],
                [&b[0], &b[1], &b[2]],
                &self.a_exps,
                &self.b_exps,
                &mut out
            ));
            out
        }

        /// The checked block over every channel.
        fn run_checked(&self, lanes: &CheckedLanes, deltas: Option<&[u32]>) -> ([f32; PANEL], u32) {
            let a: Vec<&[u8]> = self.a.iter().map(|p| &p[..]).collect();
            let b: Vec<&[u8]> = self.b.iter().map(|p| &p[..]).collect();
            let mut out = [f32::NAN; PANEL];
            let mask = lanes
                .block(&a, &b, &self.a_exps, &self.b_exps, deltas, &mut out)
                .expect("the block's shapes are valid");
            (out, mask)
        }
    }

    fn bits(v: [f32; PANEL]) -> [u32; PANEL] {
        v.map(f32::to_bits)
    }

    fn values(moduli: &[u64]) -> Vec<Modulus> {
        moduli.iter().map(|&m| Modulus::new(m).unwrap()).collect()
    }

    /// The unprotected lanes for `moduli` at group size `g`, plus their
    /// converter.
    fn lanes(moduli: &[u64], g: usize) -> (Option<Crt3Lanes>, CrtConverter) {
        let conv = CrtConverter::new(&ModuliSet::new(moduli).unwrap());
        let crt = conv.small_constants().expect("small dynamic range");
        (Crt3Lanes::new(conv.set().moduli(), &crt, g), conv)
    }

    /// The checked lanes for `base` plus `redundant`, the base
    /// converter and the RRNS whose verdict the lanes must reproduce.
    fn checked(
        base: &[u64],
        redundant: &[u64],
        g: usize,
    ) -> (Option<CheckedLanes>, CrtConverter, RedundantRns) {
        let conv = CrtConverter::new(&ModuliSet::new(base).unwrap());
        let rrns = RedundantRns::new(base, redundant).unwrap();
        let crt = conv.small_constants().expect("small dynamic range");
        let lanes = CheckedLanes::new(rrns.full_set().moduli(), &crt, g);
        (lanes, conv, rrns)
    }

    /// Runs `check` over residue vectors of `N` channels, 8 lanes per
    /// block: lane `l` of a one-group block dots the one-hot `A` group
    /// (1 at k-lane 0 of every channel) against column `l`, whose
    /// k-lane 0 holds the residues, so every channel dot *is* the given
    /// residue.
    fn one_hot_blocks<const N: usize>(
        vectors: impl Iterator<Item = [u64; N]>,
        mut check: impl FnMut(&Packed, &[[u64; N]]),
    ) {
        let mut packed = Case::filled(16, N, |_, t| u8::from(t == 0)).packed();
        let mut batch = Vec::with_capacity(PANEL);
        let mut flush = |packed: &mut Packed, batch: &mut Vec<[u64; N]>| {
            for col in 0..PANEL {
                for c in 0..N {
                    // Column `col`'s k-lane 0 in the panel.
                    packed.b[c][col * QUAD] = batch.get(col).map_or(0, |r| r[c] as u8);
                }
            }
            check(packed, batch);
            batch.clear();
        };
        for v in vectors {
            batch.push(v);
            if batch.len() == PANEL {
                flush(&mut packed, &mut batch);
            }
        }
        if !batch.is_empty() {
            flush(&mut packed, &mut batch);
        }
    }

    #[test]
    fn crt_lanes_match_to_signed_trusted_on_every_residue_triple() {
        // Both modes: {31, 32, 33} folds the weights, {63, 64, 65}
        // reduces every channel.
        for (moduli, fused) in [([31u64, 32, 33], true), ([63, 64, 65], false)] {
            let (Some(lanes), conv) = lanes(&moduli, 16) else {
                assert!(!avx2_available(), "{moduli:?} must admit the lanes");
                continue;
            };
            assert_eq!(lanes.fused, fused, "{moduli:?}");
            let triples = (0..moduli.iter().product::<u64>()).map(|t| {
                [
                    t % moduli[0],
                    (t / moduli[0]) % moduli[1],
                    t / (moduli[0] * moduli[1]),
                ]
            });
            one_hot_blocks(triples, |packed, batch| {
                let got = packed.run(&lanes);
                for (col, r) in batch.iter().enumerate() {
                    let want = conv.to_signed_trusted(r) as f32;
                    assert_eq!(got[col], want, "{moduli:?} residues {r:?}");
                }
            });
        }
    }

    #[test]
    fn all_maximum_residues_are_exact_at_every_admitted_point() {
        // Residue m − 1 against m − 1 in every lane of every channel,
        // base and redundant: every raw dot is its maximum g·(m − 1)²,
        // and since m − 1 ≡ −1 on every channel the vector is the
        // codeword of g, so the checked lanes must pass it.
        for (base, redundant) in [([31u64, 32, 33], [37u64, 41]), ([63, 64, 65], [37, 41])] {
            for g in [16usize, 32] {
                let full: Vec<u64> = base.iter().chain(&redundant).copied().collect();
                let mut case = Case::filled(g, full.len(), |c, _| (full[c] - 1) as u8);
                for (c, cols) in case.b.iter_mut().enumerate() {
                    cols.iter_mut()
                        .for_each(|col| col.fill((full[c] - 1) as u8));
                }
                let (Some(plain), conv) = lanes(&base, g) else {
                    assert!(!avx2_available());
                    continue;
                };
                let want = case.scalar(&base, None, |r| conv.to_signed_trusted(r));
                assert_eq!(want, [g as f32; PANEL], "{base:?} g={g}");
                assert_eq!(bits(case.run(&plain)), bits(want), "{base:?} g={g}");
                let (Some(lanes), _, rrns) = checked(&base, &redundant, g) else {
                    panic!("{base:?} + {redundant:?} g={g} must admit checked lanes");
                };
                let (sums, mask) = case.run_checked(&lanes, None);
                let residues: Vec<u64> = full
                    .iter()
                    .enumerate()
                    .map(|(c, &m)| case.dot(c, 0, 0) % m)
                    .collect();
                assert!(rrns.is_consistent(g as i128, &residues));
                assert_eq!(mask, 0, "{base:?} g={g}");
                assert_eq!(bits(sums), bits(want), "{base:?} g={g}");
            }
        }
    }

    #[test]
    fn all_maximum_groups_straddle_the_i16_and_fused_weight_bounds() {
        // {31, 32, 33}: the weighted bound Σ (g(m−1)² + (m−1))·w < 2³¹
        // holds up to g = 34 and fails from g = 35. {5, 7, 9}: the i16
        // group-sum bound 2·quads·8² ≤ i16::MAX holds up to 255 quads
        // (g = 1020) and fails at 256 (g = 1024). Each side of each
        // bound, at the all-maximum dot, must equal the scalar CRT.
        for (moduli, g, fused) in [
            ([31u64, 32, 33], 34usize, true),
            ([31, 32, 33], 35, false),
            ([5, 7, 9], 1020, true),
            ([5, 7, 9], 1024, false),
        ] {
            let (Some(lanes), conv) = lanes(&moduli, g) else {
                assert!(!avx2_available());
                continue;
            };
            // One lane per column lowered, so the columns differ.
            let mut case = Case::filled(g, CHANNELS, |c, _| (moduli[c] - 1) as u8);
            for (c, cols) in case.b.iter_mut().enumerate() {
                for (col, column) in cols.iter_mut().enumerate() {
                    column.fill((moduli[c] - 1) as u8);
                    column[col % g] = (moduli[c] - 1 - (col as u64 % moduli[c])) as u8;
                }
            }
            let want = case.scalar(&moduli, None, |r| conv.to_signed_trusted(r));
            assert_eq!(bits(case.run(&lanes)), bits(want), "{moduli:?} g={g}");
            assert_eq!(lanes.fused, fused, "{moduli:?} g={g}");
        }
    }

    #[test]
    fn fused_block_matches_the_scalar_pipeline() {
        // Pseudo-random residues over several groups, ragged group sizes
        // (padded quads), and scales spanning overflow, subnormals and
        // exact ties; fault-free checked lanes over the same base planes
        // must give the same bits.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % m
        };
        for (base, redundant, g, groups) in [
            ([31u64, 32, 33], [37u64, 41], 16usize, 5usize),
            ([31, 32, 33], [37, 41], 32, 3),
            ([31, 32, 33], [37, 41], 5, 4),
            ([31, 32, 33], [37, 41], 34, 2),
            ([63, 64, 65], [67, 71], 32, 2),
            ([63, 64, 65], [67, 71], 16, 3),
        ] {
            let (Some(plain), conv) = lanes(&base, g) else {
                continue;
            };
            let full: Vec<u64> = base.iter().chain(&redundant).copied().collect();
            // Codewords: signed mantissas reduced into every channel.
            let mantissas: Vec<i64> = (0..groups * g * (1 + PANEL))
                .map(|_| next(31) as i64 - 15)
                .collect();
            let residue = |v: i64, m: u64| v.rem_euclid(m as i64) as u8;
            let mut case = Case::filled(g, full.len(), |_, _| 0);
            case.a_exps = (0..groups).map(|gi| gi as i32 * 97 - 160).collect();
            case.b_exps = (0..groups * PANEL)
                .map(|i| (i as i32 % 11) * 13 - 40)
                .collect();
            let span = groups * g;
            for (c, &m) in full.iter().enumerate() {
                case.a[c] = mantissas[..span].iter().map(|&v| residue(v, m)).collect();
                for col in 0..PANEL {
                    let column = &mantissas[span * (col + 1)..span * (col + 2)];
                    case.b[c][col] = column.iter().map(|&v| residue(v, m)).collect();
                }
            }
            let want = case.scalar(&base, None, |r| conv.to_signed_trusted(r));
            let what = format!("{base:?} g={g}");
            assert_eq!(bits(case.run(&plain)), bits(want), "{what}");
            let (Some(checked), _, _) = checked(&base, &redundant, g) else {
                panic!("{what}: checked lanes");
            };
            let (sums, mask) = case.run_checked(&checked, None);
            assert_eq!(mask, 0, "{what}: clean codewords must pass");
            assert_eq!(bits(sums), bits(want), "{what}");
        }
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
        let (mut cases, mut flagged) = (0u64, 0u64);
        for (free, &r_free) in redundant.iter().enumerate() {
            let vectors = (0..triples).flat_map(|t| {
                let r = [t % 31, (t / 31) % 32, t / (31 * 32)];
                let v = conv.to_signed_trusted(&r);
                (0..r_free).map(move |rho| {
                    let mut residues = [r[0], r[1], r[2], 0, 0];
                    for (c, &m) in redundant.iter().enumerate() {
                        residues[CHANNELS + c] = v.rem_euclid(i128::from(m)) as u64;
                    }
                    residues[CHANNELS + free] = rho;
                    residues
                })
            });
            one_hot_blocks(vectors, |packed, batch| {
                let (sums, mask) = packed.run_checked(&lanes, None);
                for (l, residues) in batch.iter().enumerate() {
                    let v = conv.to_signed_trusted(&residues[..CHANNELS]);
                    let bad = !rrns.is_consistent(v, residues);
                    assert_eq!(mask >> l & 1 == 1, bad, "residues {residues:?}");
                    if !bad {
                        assert_eq!(sums[l], v as f32, "residues {residues:?}");
                    }
                    flagged += u64::from(bad);
                }
                cases += batch.len() as u64;
            });
        }
        assert_eq!(cases, triples * (37 + 41));
        assert!(flagged > 0 && flagged < cases);
    }

    #[test]
    fn checked_lanes_reject_the_out_of_range_edge() {
        // M = 32736 is even, so the base CRT reaches -(ψ+1) = -16368:
        // out of range even with both redundant channels agreeing.
        let (Some(lanes), _, rrns) = checked(&[31, 32, 33], &[37, 41], 16) else {
            return;
        };
        let psi = rrns.psi() as i128;
        let values = [-(psi + 1), -psi, psi, 0];
        let moduli = rrns.full_set().moduli();
        let vectors = values.map(|value| {
            let residues: [u64; 5] = std::array::from_fn(|c| moduli[c].reduce_i128(value));
            residues
        });
        one_hot_blocks(vectors.into_iter(), |packed, _| {
            let (sums, mask) = packed.run_checked(&lanes, None);
            assert_eq!(sums[..4], values.map(|v| v as f32));
            assert_eq!(mask & 0b1111, 0b0001, "only -(ψ+1) is flagged");
        });
    }

    #[test]
    fn checked_block_applies_deltas_at_the_maximum_dot() {
        // Every plane holds m − 1, so every raw channel dot is its
        // maximum g·(m − 1)²; a delta of m − 1 then pushes it to the
        // `g·(m − 1)² + (m − 1)` headroom the constructor admits — in
        // the fused mode as `δ·w` on the weighted sum, in the wide mode
        // on the raw dot.
        for (base, redundant, g) in [
            ([31u64, 32, 33], [37u64, 41], 16usize),
            ([31, 32, 33], [37, 41], 32),
            ([31, 32, 33], [37, 41], 34),
            ([63, 64, 65], [37, 41], 16),
            ([63, 64, 65], [37, 41], 32),
        ] {
            let (Some(lanes), conv, rrns) = checked(&base, &redundant, g) else {
                continue;
            };
            let full: Vec<u64> = base.iter().chain(&redundant).copied().collect();
            let mut case = Case::filled(g, full.len(), |c, _| (full[c] - 1) as u8);
            for (c, cols) in case.b.iter_mut().enumerate() {
                cols.iter_mut()
                    .for_each(|col| col.fill((full[c] - 1) as u8));
            }
            let (clean, mask) = case.run_checked(&lanes, None);
            assert_eq!(mask, 0);
            // Lane `c` gets channel `c`'s delta m − 1; lanes 5..8 stay
            // clean.
            let mut deltas = vec![0u32; full.len() * PANEL];
            for (c, &m) in full.iter().enumerate() {
                deltas[c * PANEL + c] = (m - 1) as u32;
            }
            let (out, mask) = case.run_checked(&lanes, Some(&deltas));
            let scalar = case.scalar(&full, Some(&deltas), |r| {
                conv.to_signed_trusted(&r[..CHANNELS])
            });
            for lane in 0..PANEL {
                let residues: Vec<u64> = (0..full.len())
                    .map(|c| (case.dot(c, 0, lane) + u64::from(deltas[c * PANEL + lane])) % full[c])
                    .collect();
                let v = conv.to_signed_trusted(&residues[..CHANNELS]);
                let what = format!("{base:?} g={g} lane {lane}");
                assert_eq!(
                    mask >> lane & 1 == 1,
                    !rrns.is_consistent(v, &residues),
                    "{what}"
                );
                if lane < CHANNELS {
                    // The flipped base residue reaches the CRT exactly.
                    assert_eq!(out[lane].to_bits(), scalar[lane].to_bits(), "{what}");
                }
                if lane >= full.len() {
                    assert_eq!(out[lane].to_bits(), clean[lane].to_bits(), "{what}");
                }
            }
            assert_eq!(
                mask, 0b1_1111,
                "a single flipped channel is always detected"
            );
        }
    }

    #[test]
    fn lane_bounds_admit_u8_sets_and_reject_the_rest() {
        // Moduli above 128 have no u8 planes: {1021, 1023, 1024}, and
        // the k = 7 special set {127, 128, 129}.
        assert!(lanes(&[1021, 1023, 1024], 16).0.is_none());
        assert!(lanes(&[127, 128, 129], 16).0.is_none());
        assert!(checked(&[31, 32, 33], &[37, 131], 16).0.is_none());
        if avx2_available() {
            for (k, g, fused) in [
                (4u64, 16usize, true),
                (5, 8, true),
                (5, 16, true),
                (5, 32, true),
                (5, 64, false),
                (6, 16, false),
                (6, 32, false),
            ] {
                let set = [(1 << k) - 1, 1 << k, (1 << k) + 1];
                let got = lanes(&set, g).0.map(|l| l.fused);
                assert_eq!(got, Some(fused), "k = {k}, g = {g}");
            }
            // The checked fused mode needs the redundant channels' i16
            // group sums too: 2·4·126² overflows at g = 16.
            let (Some(lanes), _, _) = checked(&[31, 32, 33], &[37, 127], 16) else {
                panic!("u8 redundant channels admit checked lanes");
            };
            assert!(!lanes.base.fused);
        }
    }

    #[test]
    fn bad_shapes_decline() {
        let case = Case::filled(16, 5, |_, t| t as u8);
        let Packed { a, b, .. } = case.packed();
        let mut out = [0.0f32; PANEL];
        if let (Some(lanes), _) = lanes(&[31, 32, 33], 16) {
            assert_eq!(case.run(&lanes), [0.0; PANEL]);
            // A short `a`, `b` or `b_exps` declines.
            let short = &a[0][..15];
            let (ar, br) = ([&a[0][..], &a[1], &a[2]], [&b[0][..], &b[1], &b[2]]);
            assert!(!lanes.block([short, &a[1], &a[2]], br, &[0], &[0; 8], &mut out));
            let short = &b[1][..16 * PANEL - 1];
            assert!(!lanes.block(ar, [&b[0], short, &b[2]], &[0], &[0; 8], &mut out));
            assert!(!lanes.block(ar, br, &[0], &[0; 7], &mut out));
            assert!(!lanes.block(ar, br, &[0, 0], &[0; 16], &mut out));
        }
        if let (Some(lanes), _, _) = checked(&[31, 32, 33], &[37, 41], 16) {
            let a: Vec<&[u8]> = a.iter().map(|p| &p[..]).collect();
            let b: Vec<&[u8]> = b.iter().map(|p| &p[..]).collect();
            let deltas = [0u32; 5 * PANEL];
            let ok = lanes.block(&a, &b, &[0], &[0; 8], Some(&deltas), &mut out);
            assert_eq!(ok, Some(0), "every channel dot is 0, a consistent value");
            // A missing plane and a short delta table decline.
            assert!(lanes
                .block(&a[..4], &b, &[0], &[0; 8], None, &mut out)
                .is_none());
            assert!(lanes
                .block(&a, &b, &[0], &[0; 8], Some(&deltas[1..]), &mut out)
                .is_none());
        }
        // Three redundant channels, or none, get no checked lanes.
        assert!(checked(&[31, 32, 33], &[37, 41, 43], 16).0.is_none());
        let conv = CrtConverter::new(&ModuliSet::new(&[31, 32, 33]).unwrap());
        let crt = conv.small_constants().unwrap();
        assert!(CheckedLanes::new(&values(&[31, 32, 33]), &crt, 16).is_none());
    }
}
