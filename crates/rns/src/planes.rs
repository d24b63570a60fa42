//! Packed residue planes: flat per-channel operand layouts.
//!
//! A GEMM engine routing BFP groups through the RNS used to hold one
//! `Vec<u64>` per group per channel — thousands of small heap objects
//! walked in the innermost loop. A [`ResiduePlane`] stores a whole
//! matrix's residues for **one modulus channel** in a single contiguous
//! buffer, and picks the narrowest lane width the modulus permits:
//!
//! - `U8` when `m ≤ 128`, so every residue is at most 127 — the paper's
//!   special sets up to `k = 6` (`{63, 64, 65}`) and their redundant
//!   primes. These are the lanes the AVX2 kernel reads
//!   ([`crate::simd`]): a residue ≤ 127 is a valid operand on both sides
//!   of `pmaddubsw`.
//! - `U16` when residues fit `u16` and a whole group dot fits `u32`.
//! - `U32` when residues fit `u32` and a group dot fits `u64` — every
//!   special set the workspace supports (`k <= 20`).
//! - `U64` otherwise — the fully general fallback, dotted with lazy
//!   `u128` reduction.
//!
//! All widths compute the same exact `|Σ x_j · w_j|_m`; the tier choice
//! is a function of `(modulus, group_len)` only, so two planes built
//! for the same channel always share a width.
//!
//! ## Panel geometry
//!
//! GEMM operands use the layout of `mirage_bfp::BfpPanels`: each group
//! of `g` residues is padded to `quads = ⌈g / 4⌉` quads of [`QUAD`]
//! lanes. The `A` side stores each row's groups back to back at that
//! padded stride. The `B` side cuts its columns into panels of
//! [`PANEL`], and within a panel stores each group quad by quad, every
//! quad holding 4 consecutive k-lanes of all 8 columns, so column `c`'s
//! quad `q` of a panel group starts at `c · 4 + q · 32`.
//! [`ResiduePlane::write_quads`] fills either layout one group at a
//! time, and [`ResiduePlane::panel_dots`] dots a row group against every
//! column of a panel group. Padding lanes hold residue 0 and add nothing.

use crate::modulus::Modulus;

/// Columns per `B` panel: one 256-bit register of `i32`/`f32` lanes.
pub const PANEL: usize = 8;

/// Consecutive k-lanes per column in one panel quad.
pub const QUAD: usize = 4;

/// The largest modulus stored in `U8` lanes: its residues are at most
/// 127, a non-negative `i8`.
pub const U8_MAX_MODULUS: u64 = 128;

/// One modulus channel's residues for a whole packed matrix, in the
/// narrowest exact lane width (see module docs).
#[derive(Debug, Clone)]
pub enum ResiduePlane {
    /// Residues ≤ 127 (`m ≤ 128`) with `u32`-safe group dots.
    U8(Vec<u8>),
    /// Residues < 2^16 with `u32`-safe group dots.
    U16(Vec<u16>),
    /// Residues < 2^32 with `u64`-safe group dots.
    U32(Vec<u32>),
    /// The general fallback.
    U64(Vec<u64>),
}

impl ResiduePlane {
    /// Forward-converts a flat signed-mantissa buffer (Fig. 2 step 2)
    /// into this channel's residue plane, choosing the lane width from
    /// `modulus` and the group length the dots will run over.
    ///
    /// One scan finds the largest magnitude; when every value lies
    /// strictly inside `(−m, m)` — every BFP operating point whose
    /// `max_mantissa < m`, such as `bm = 4` against `{31, 32, 33}` —
    /// conversion is one branch-free conditional add per lane (see
    /// [`ResiduePlane::write_quads`]). Wider values take the exact
    /// [`Modulus::reduce_i128`] path. Both give the same residues.
    pub fn convert_i32(values: &[i32], modulus: Modulus, group_len: usize) -> Self {
        let max_abs = values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        let mut plane = Self::zeroed(values.len(), modulus, group_len);
        plane.write_run(0, values, modulus, u64::from(max_abs));
        plane
    }

    /// A plane of `len` zero residues in the lane width `(modulus,
    /// group_len)` selects — the width [`ResiduePlane::convert_i32`]
    /// picks — ready to be filled group by group with
    /// [`ResiduePlane::write_quads`].
    pub fn zeroed(len: usize, modulus: Modulus, group_len: usize) -> Self {
        let m = modulus.value();
        let worst = u128::from(m - 1) * u128::from(m - 1) * group_len.max(1) as u128;
        if m <= U8_MAX_MODULUS && worst <= u128::from(u32::MAX) {
            ResiduePlane::U8(vec![0; len])
        } else if m <= 1 << 16 && worst <= u128::from(u32::MAX) {
            ResiduePlane::U16(vec![0; len])
        } else if m <= 1 << 32 && worst <= u128::from(u64::MAX) {
            ResiduePlane::U32(vec![0; len])
        } else {
            ResiduePlane::U64(vec![0; len])
        }
    }

    /// Forward-converts `values` into residues `offset..offset +
    /// values.len()` of this plane: [`ResiduePlane::write_quads`] with
    /// the quads back to back.
    ///
    /// # Panics
    ///
    /// Panics if the run ends past the plane.
    #[inline]
    pub fn write_run(&mut self, offset: usize, values: &[i32], modulus: Modulus, max_abs: u64) {
        self.write_quads(offset, QUAD, values, modulus, max_abs);
    }

    /// Forward-converts `values` quad by quad: quad `q` (values `4q ..
    /// 4q + 4`, the last one possibly short) lands at residue `offset +
    /// q · quad_stride`. A stride of [`QUAD`] is one contiguous run (a
    /// row group); a stride of `QUAD · PANEL` scatters one column group
    /// into its panel (see the module docs).
    ///
    /// `max_abs` must bound `|v|` for every value (the caller's
    /// contract, debug-asserted). When `max_abs < m` each lane is `v +
    /// (m & (v >> 31))`: a non-negative `v` is already its residue and a
    /// negative one needs exactly one `+ m` — no division, no branch, so
    /// the loop vectorizes. Otherwise every lane reduces through
    /// [`Modulus::reduce_i128`].
    ///
    /// # Panics
    ///
    /// Panics if a quad ends past the plane.
    #[inline]
    pub fn write_quads(
        &mut self,
        offset: usize,
        quad_stride: usize,
        values: &[i32],
        modulus: Modulus,
        max_abs: u64,
    ) {
        debug_assert!(
            values
                .iter()
                .all(|v| u64::from(v.unsigned_abs()) <= max_abs),
            "a value exceeds the stated bound {max_abs}"
        );
        let m = modulus.value();
        let bounded = max_abs < m;
        let reduce = |v: i32| modulus.reduce_i128(i128::from(v));
        // The U8 and U16 tiers have m <= 2^16, so `v + m` fits i32; the
        // U32 tier has m <= 2^32, so it fits i64.
        let lift32 = |v: i32| v + (m as i32 & (v >> 31));
        let lift64 = |v: i32| {
            let v = i64::from(v);
            v + (m as i64 & (v >> 63))
        };
        macro_rules! store {
            ($plane:expr, $lane:ty, $lift:expr) => {
                if bounded {
                    scatter($plane, offset, quad_stride, values, |v| $lift(v) as $lane)
                } else {
                    scatter($plane, offset, quad_stride, values, |v| reduce(v) as $lane)
                }
            };
        }
        match self {
            ResiduePlane::U8(plane) => store!(plane, u8, lift32),
            ResiduePlane::U16(plane) => store!(plane, u16, lift32),
            ResiduePlane::U32(plane) => store!(plane, u32, lift64),
            ResiduePlane::U64(plane) => scatter(plane, offset, quad_stride, values, reduce),
        }
    }

    /// Number of residues in the plane.
    pub fn len(&self) -> usize {
        match self {
            ResiduePlane::U8(v) => v.len(),
            ResiduePlane::U16(v) => v.len(),
            ResiduePlane::U32(v) => v.len(),
            ResiduePlane::U64(v) => v.len(),
        }
    }

    /// Whether the plane is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw `u8` lanes, when this plane took the narrowest tier —
    /// the AVX2 kernel's operands.
    pub fn as_u8(&self) -> Option<&[u8]> {
        match self {
            ResiduePlane::U8(v) => Some(v),
            _ => None,
        }
    }

    /// The residue at `index`, widened (for tests and cross-checks).
    pub fn get(&self, index: usize) -> u64 {
        match self {
            ResiduePlane::U8(v) => u64::from(v[index]),
            ResiduePlane::U16(v) => u64::from(v[index]),
            ResiduePlane::U32(v) => u64::from(v[index]),
            ResiduePlane::U64(v) => v[index],
        }
    }

    /// One panel group of MDPU dots (paper Eq. 12) in the panel
    /// geometry (see the module docs): the `quads · 4` residues of a row
    /// group starting at `a_off` in `self`, against each of the 8
    /// columns of one group of the panel plane `panels` starting at
    /// `b_off` (column `c`'s quad `q` at `b_off + c · 4 + q · 32`), each
    /// reduced mod `modulus`. Equivalent to
    /// [`crate::residue::dot_product`] on the gathered residues.
    ///
    /// The group must not hold more non-padding lanes than the
    /// `group_len` the planes were converted with: the lane width was
    /// chosen so such a dot cannot overflow its accumulator.
    ///
    /// # Panics
    ///
    /// Panics if the planes have different widths — planes dotted
    /// against each other must come from the same `(modulus,
    /// group_len)`, which fixes the tier — or a lane lies outside them.
    #[inline]
    pub fn panel_dots(
        &self,
        a_off: usize,
        panels: &ResiduePlane,
        b_off: usize,
        quads: usize,
        modulus: Modulus,
    ) -> [u64; PANEL] {
        let rem = |d: u64| modulus.fast_rem(d);
        // The U8/U16 tiers bound a group dot by u32 and U32 by u64;
        // U64 reduces lazily in u128.
        match (self, panels) {
            (ResiduePlane::U8(a), ResiduePlane::U8(b)) => {
                panel_sums(a, a_off, b, b_off, quads, u32::from).map(|d| rem(d.into()))
            }
            (ResiduePlane::U16(a), ResiduePlane::U16(b)) => {
                panel_sums(a, a_off, b, b_off, quads, u32::from).map(|d| rem(d.into()))
            }
            (ResiduePlane::U32(a), ResiduePlane::U32(b)) => {
                panel_sums(a, a_off, b, b_off, quads, u64::from).map(rem)
            }
            (ResiduePlane::U64(a), ResiduePlane::U64(b)) => {
                let m = u128::from(modulus.value());
                let a = &a[a_off..a_off + quads * QUAD];
                std::array::from_fn(|c| {
                    let mut acc = 0u128;
                    for (q, a_q) in a.chunks_exact(QUAD).enumerate() {
                        let b_q = &b[b_off + (q * PANEL + c) * QUAD..][..QUAD];
                        for (&x, &w) in a_q.iter().zip(b_q) {
                            acc += u128::from(x) * u128::from(w);
                            // Keep the accumulator well below overflow.
                            if acc >= m << 64 {
                                acc %= m;
                            }
                        }
                    }
                    (acc % m) as u64
                })
            }
            _ => panic!("residue planes of mismatched widths dotted together"),
        }
    }
}

/// Writes `values` quad by quad at `offset + q · quad_stride`, each lane
/// through `conv`. A strided write converts up to [`SCATTER_TILE`]
/// lanes at a time into a stack tile (one contiguous loop, which
/// vectorizes) and then moves each quad as one small copy.
#[inline(always)]
fn scatter<T: Copy + Default>(
    plane: &mut [T],
    offset: usize,
    quad_stride: usize,
    values: &[i32],
    conv: impl Fn(i32) -> T,
) {
    if quad_stride == QUAD {
        for (d, &v) in plane[offset..offset + values.len()].iter_mut().zip(values) {
            *d = conv(v);
        }
        return;
    }
    let mut tile = [T::default(); SCATTER_TILE];
    let mut at = offset;
    for chunk in values.chunks(SCATTER_TILE) {
        for (d, &v) in tile.iter_mut().zip(chunk) {
            *d = conv(v);
        }
        let quads = tile[..chunk.len()].chunks_exact(QUAD);
        let tail = quads.remainder();
        for quad in quads {
            plane[at..at + QUAD].copy_from_slice(quad);
            at += quad_stride;
        }
        if !tail.is_empty() {
            plane[at..at + tail.len()].copy_from_slice(tail);
            at += quad_stride;
        }
    }
}

/// Lanes [`scatter`] converts per tile: a whole group at `g ≤ 64`.
const SCATTER_TILE: usize = 64;

/// The 8 exact column dots of one panel group in the accumulator `A`:
/// lanewise products of each panel quad with the row's quad, then each
/// column's 4 lanes summed (wrapping is impossible under the caller's
/// tier bound).
// mirage-lint: region(int_kernel)
#[inline(always)]
fn panel_sums<T: Copy, A>(
    a: &[T],
    a_off: usize,
    b: &[T],
    b_off: usize,
    quads: usize,
    widen: impl Fn(T) -> A,
) -> [A; PANEL]
where
    A: Copy + Default + std::ops::Add<Output = A> + std::ops::Mul<Output = A>,
{
    let a = &a[a_off..a_off + quads * QUAD];
    let b = &b[b_off..b_off + quads * QUAD * PANEL];
    let mut lanes = [A::default(); QUAD * PANEL];
    for (a_q, b_q) in a.chunks_exact(QUAD).zip(b.chunks_exact(QUAD * PANEL)) {
        let a_q: [A; QUAD] = std::array::from_fn(|t| widen(a_q[t]));
        let a_lanes: [A; QUAD * PANEL] = std::array::from_fn(|l| a_q[l % QUAD]);
        for ((slot, &x), &w) in lanes.iter_mut().zip(&a_lanes).zip(b_q) {
            *slot = *slot + x * widen(w);
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
    use crate::{residue, ModuliSet};

    fn mantissas(n: usize, seed: i32) -> Vec<i32> {
        (0..n as i32).map(|i| (i * 7 + seed) % 31 - 15).collect()
    }

    /// `values` (one column, groups of `g`) written into lane `col` of a
    /// one-panel plane, as the `B` side packs it.
    fn panel_column(values: &[i32], g: usize, col: usize, modulus: Modulus) -> ResiduePlane {
        let stride = g.div_ceil(QUAD) * QUAD;
        let groups = values.len().div_ceil(g);
        let mut plane = ResiduePlane::zeroed(groups * stride * PANEL, modulus, g);
        for (gi, group) in values.chunks(g).enumerate() {
            let at = gi * stride * PANEL + col * QUAD;
            plane.write_quads(at, QUAD * PANEL, group, modulus, u64::MAX);
        }
        plane
    }

    #[test]
    fn width_tiers_follow_modulus_and_group() {
        let vals = mantissas(32, 1);
        for (m, g, tier) in [
            (33u64, 16usize, 8),
            (128, 16, 8),
            (129, 16, 16),
            ((1 << 20) + 1, 16, 32),
            (1 << 40, 1 << 20, 64),
        ] {
            let plane = ResiduePlane::convert_i32(&vals, Modulus::new(m).unwrap(), g);
            let got = match plane {
                ResiduePlane::U8(_) => 8,
                ResiduePlane::U16(_) => 16,
                ResiduePlane::U32(_) => 32,
                ResiduePlane::U64(_) => 64,
            };
            assert_eq!(got, tier, "m = {m}, g = {g}");
        }
    }

    #[test]
    fn conversion_matches_reduce_signed() {
        let vals = mantissas(48, 5);
        for m in [31u64, 33, 128, 129, (1 << 13) - 1, (1 << 20) + 1, 1 << 40] {
            let modulus = Modulus::new(m).unwrap();
            let plane = ResiduePlane::convert_i32(&vals, modulus, 16);
            let wide: Vec<i64> = vals.iter().map(|&v| i64::from(v)).collect();
            let want = residue::reduce_signed(&wide, modulus);
            assert_eq!(plane.len(), vals.len());
            for (i, &w) in want.iter().enumerate() {
                assert_eq!(plane.get(i), w, "m = {m}, index {i}");
            }
        }
    }

    #[test]
    fn every_mantissa_converts_like_reduce_i128() {
        // Exhaustive over [-max, max] for each channel of the paper's
        // special sets, their redundant primes, the U8 edge and the U32
        // tier: the bound passed to `write_run` selects the branch-free
        // lanes (max < m) or the reduce fallback (max >= m), and
        // `convert_i32` picks the same way from the values.
        for m in [
            31u64,
            32,
            33,
            37,
            41,
            63,
            64,
            65,
            127,
            128,
            129,
            (1 << 20) + 1,
        ] {
            let modulus = Modulus::new(m).unwrap();
            for max in [
                1i32,
                15,
                31,
                63,
                (m - 1) as i32,
                m as i32,
                m as i32 + 1,
                255,
            ] {
                let values: Vec<i32> = (-max..=max).collect();
                let want: Vec<u64> = values
                    .iter()
                    .map(|&v| modulus.reduce_i128(i128::from(v)))
                    .collect();
                let converted = ResiduePlane::convert_i32(&values, modulus, 16);
                let mut written = ResiduePlane::zeroed(values.len() + 3, modulus, 16);
                written.write_run(3, &values, modulus, max as u64);
                for (i, &w) in want.iter().enumerate() {
                    assert_eq!(converted.get(i), w, "m = {m}, v = {}", values[i]);
                    assert_eq!(written.get(i + 3), w, "m = {m}, v = {}", values[i]);
                }
                assert_eq!(written.get(0), 0, "residues before the run stay zero");
                // The panel scatter: quad q of the run lands 32 lanes on.
                let quads = values.len().div_ceil(QUAD);
                let mut panel = ResiduePlane::zeroed(quads * QUAD * PANEL, modulus, 16);
                panel.write_quads(1, QUAD * PANEL, &values, modulus, max as u64);
                for (i, &w) in want.iter().enumerate() {
                    let at = 1 + i / QUAD * QUAD * PANEL + i % QUAD;
                    assert_eq!(panel.get(at), w, "m = {m}, v = {}", values[i]);
                }
                let written = (0..panel.len()).filter(|&i| panel.get(i) != 0).count();
                assert_eq!(written, want.iter().filter(|&&w| w != 0).count());
            }
        }
    }

    #[test]
    fn panel_dots_match_generic_dot_product_across_tiers() {
        let xs = mantissas(64, 3);
        let ws = mantissas(64, 11);
        for m in [31u64, 33, 128, 4099, (1 << 20) + 1, 1 << 40] {
            let modulus = Modulus::new(m).unwrap();
            for g in [1usize, 5, 16, 64] {
                let stride = g.div_ceil(QUAD) * QUAD;
                let quads = stride / QUAD;
                let groups = 64 / g;
                let mut row = ResiduePlane::zeroed(groups * stride, modulus, g);
                for (gi, group) in xs[..groups * g].chunks(g).enumerate() {
                    row.write_run(gi * stride, group, modulus, u64::MAX);
                }
                for col in [0, 3, PANEL - 1] {
                    let panel = panel_column(&ws[..groups * g], g, col, modulus);
                    for gi in 0..groups {
                        let reduce = |v: &[i32]| -> Vec<u64> {
                            v.iter().map(|&v| modulus.reduce_i128(v.into())).collect()
                        };
                        let span = gi * g..gi * g + g;
                        let want = residue::dot_product(
                            &reduce(&xs[span.clone()]),
                            &reduce(&ws[span]),
                            modulus,
                        )
                        .unwrap();
                        let b_off = gi * stride * PANEL;
                        let dots = row.panel_dots(gi * stride, &panel, b_off, quads, modulus);
                        assert_eq!(dots[col], want, "m = {m}, g = {g}, col = {col}, group {gi}");
                        let mut others = dots.iter().enumerate().filter(|&(c, _)| c != col);
                        assert!(others.all(|(_, &d)| d == 0), "empty columns dot to 0");
                    }
                }
            }
        }
    }

    #[test]
    fn full_rns_round_trip_through_planes() {
        // Planes plus the CRT: a bm=4, g=16 dot survives losslessly.
        use crate::convert::{CrtConverter, ReverseConverter};
        let set = ModuliSet::special_set(5).unwrap();
        let conv = CrtConverter::new(&set);
        let xs = mantissas(16, 2);
        let ws = mantissas(16, 9);
        let expected: i64 = xs.iter().zip(&ws).map(|(&a, &b)| i64::from(a * b)).sum();
        let residues: Vec<u64> = set
            .moduli()
            .iter()
            .map(|&m| {
                let panel = panel_column(&ws, 16, 5, m);
                ResiduePlane::convert_i32(&xs, m, 16).panel_dots(0, &panel, 0, 4, m)[5]
            })
            .collect();
        assert_eq!(conv.to_signed_trusted(&residues), i128::from(expected));
    }

    #[test]
    #[should_panic(expected = "mismatched widths")]
    fn mismatched_widths_panic() {
        let vals = mantissas(16, 0);
        let a = ResiduePlane::convert_i32(&vals, Modulus::new(33).unwrap(), 16);
        let b = ResiduePlane::convert_i32(&[0; 16 * PANEL], Modulus::new(1 << 40).unwrap(), 16);
        a.panel_dots(0, &b, 0, 4, Modulus::new(33).unwrap());
    }
}
