//! Packed residue planes: flat per-channel operand layouts.
//!
//! A GEMM engine routing BFP groups through the RNS used to hold one
//! `Vec<u64>` per group per channel — thousands of small heap objects
//! walked in the innermost loop. A [`ResiduePlane`] stores a whole
//! matrix's residues for **one modulus channel** in a single contiguous
//! buffer (mirroring the flat mantissa layout it was converted from),
//! and picks the narrowest lane width the modulus permits:
//!
//! - `U16` when residues fit `u16` and a whole group dot fits `u32` —
//!   the paper's special sets up to `k = 7` at `g = 16`; SIMD-friendly.
//! - `U32` when residues fit `u32` and a group dot fits `u64` — every
//!   special set the workspace supports (`k <= 20`).
//! - `U64` otherwise — the fully general fallback, dotted by
//!   [`crate::residue::dot_product_trusted`].
//!
//! All widths compute the same exact `|Σ x_j · w_j|_m`; the tier choice
//! is a function of `(modulus, group_len)` only, so two planes built
//! for the same channel always share a width.

use crate::modulus::Modulus;
use crate::residue;

/// One modulus channel's residues for a whole packed matrix, in the
/// narrowest exact lane width (see module docs).
#[derive(Debug, Clone)]
pub enum ResiduePlane {
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
    /// [`ResiduePlane::write_run`]). Wider values take the exact
    /// [`Modulus::reduce_i128`] path. Both give the same residues.
    pub fn convert_i32(values: &[i32], modulus: Modulus, group_len: usize) -> Self {
        let max_abs = values.iter().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        let mut plane = Self::zeroed(values.len(), modulus, group_len);
        plane.write_run(0, values, modulus, u64::from(max_abs));
        plane
    }

    /// A plane of `len` zero residues in the lane width `(modulus,
    /// group_len)` selects — the width [`ResiduePlane::convert_i32`]
    /// picks — ready to be filled run by run with
    /// [`ResiduePlane::write_run`].
    pub fn zeroed(len: usize, modulus: Modulus, group_len: usize) -> Self {
        let m = modulus.value();
        let worst = u128::from(m - 1) * u128::from(m - 1) * group_len.max(1) as u128;
        if m <= 1 << 16 && worst <= u128::from(u32::MAX) {
            ResiduePlane::U16(vec![0; len])
        } else if m <= 1 << 32 && worst <= u128::from(u64::MAX) {
            ResiduePlane::U32(vec![0; len])
        } else {
            ResiduePlane::U64(vec![0; len])
        }
    }

    /// Forward-converts `values` into residues `offset..offset +
    /// values.len()` of this plane.
    ///
    /// `max_abs` must bound `|v|` for every value (the caller's
    /// contract, debug-asserted). When `max_abs < m` each
    /// lane is `v + (m & (v >> 31))`: a non-negative `v` is already its
    /// residue and a negative one needs exactly one `+ m` — no division,
    /// no branch, so the loop vectorizes. Otherwise every lane reduces
    /// through [`Modulus::reduce_i128`].
    ///
    /// # Panics
    ///
    /// Panics if the run ends past the plane.
    #[inline]
    pub fn write_run(&mut self, offset: usize, values: &[i32], modulus: Modulus, max_abs: u64) {
        debug_assert!(
            values
                .iter()
                .all(|v| u64::from(v.unsigned_abs()) <= max_abs),
            "a value exceeds the stated bound {max_abs}"
        );
        let m = modulus.value();
        let bounded = max_abs < m;
        let reduce = |v: i32| modulus.reduce_i128(i128::from(v));
        let end = offset + values.len();
        match self {
            ResiduePlane::U16(plane) => {
                let dst = &mut plane[offset..end];
                if bounded {
                    // The U16 tier has m <= 2^16, so `v + m` fits i32.
                    let m = m as i32;
                    for (d, &v) in dst.iter_mut().zip(values) {
                        *d = (v + (m & (v >> 31))) as u16;
                    }
                } else {
                    for (d, &v) in dst.iter_mut().zip(values) {
                        *d = reduce(v) as u16;
                    }
                }
            }
            ResiduePlane::U32(plane) => {
                let dst = &mut plane[offset..end];
                if bounded {
                    // The U32 tier has m <= 2^32, so `v + m` fits i64.
                    let m = m as i64;
                    for (d, &v) in dst.iter_mut().zip(values) {
                        let v = i64::from(v);
                        *d = (v + (m & (v >> 63))) as u32;
                    }
                } else {
                    for (d, &v) in dst.iter_mut().zip(values) {
                        *d = reduce(v) as u32;
                    }
                }
            }
            ResiduePlane::U64(plane) => {
                for (d, &v) in plane[offset..end].iter_mut().zip(values) {
                    *d = reduce(v);
                }
            }
        }
    }

    /// Number of residues in the plane.
    pub fn len(&self) -> usize {
        match self {
            ResiduePlane::U16(v) => v.len(),
            ResiduePlane::U32(v) => v.len(),
            ResiduePlane::U64(v) => v.len(),
        }
    }

    /// Whether the plane is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The raw `u16` lanes, when this plane took the narrowest tier.
    /// GEMM kernels that specialize the whole loop nest (fixed channel
    /// count, fixed group size) extract the slices once instead of
    /// dispatching on the tier per group dot.
    pub fn as_u16(&self) -> Option<&[u16]> {
        match self {
            ResiduePlane::U16(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `u32` lanes, when this plane took the middle tier.
    pub fn as_u32(&self) -> Option<&[u32]> {
        match self {
            ResiduePlane::U32(v) => Some(v),
            _ => None,
        }
    }

    /// The raw `u64` lanes, when this plane took the general tier.
    pub fn as_u64(&self) -> Option<&[u64]> {
        match self {
            ResiduePlane::U64(v) => Some(v),
            _ => None,
        }
    }

    /// The residue at `index`, widened (for tests and cross-checks).
    pub fn get(&self, index: usize) -> u64 {
        match self {
            ResiduePlane::U16(v) => u64::from(v[index]),
            ResiduePlane::U32(v) => u64::from(v[index]),
            ResiduePlane::U64(v) => v[index],
        }
    }

    /// The modular dot product of `len` residues starting at `a_off` in
    /// `self` with `len` residues starting at `b_off` in `other` — one
    /// MDPU group dot (paper Eq. 12) over two plane slices, with no
    /// per-element residue objects. Equivalent to
    /// [`crate::residue::dot_product`] on the widened slices (the `U64`
    /// tier literally is that call).
    ///
    /// `len` must not exceed the `group_len` the planes were converted
    /// with: the lane width was chosen so a `group_len`-long dot cannot
    /// overflow its accumulator, and a longer sweep would wrap silently
    /// on the narrow tiers. Debug builds assert the bound.
    ///
    /// # Panics
    ///
    /// Panics if the planes have different widths — planes dotted
    /// against each other must come from [`ResiduePlane::convert_i32`]
    /// with the same `(modulus, group_len)`, which fixes the tier.
    #[inline]
    pub fn group_dot(
        &self,
        a_off: usize,
        other: &ResiduePlane,
        b_off: usize,
        len: usize,
        modulus: Modulus,
    ) -> u64 {
        self.dot_impl(a_off, other, b_off, len, modulus)
    }

    /// [`ResiduePlane::group_dot`] with the group length fixed at
    /// compile time: the inner multiply-accumulate gets a constant trip
    /// count, which is worth >2x on short groups (GEMM kernels dispatch
    /// the common `g` values here).
    #[inline]
    pub fn group_dot_fixed<const LEN: usize>(
        &self,
        a_off: usize,
        other: &ResiduePlane,
        b_off: usize,
        modulus: Modulus,
    ) -> u64 {
        self.dot_impl(a_off, other, b_off, LEN, modulus)
    }

    #[inline(always)]
    fn dot_impl(
        &self,
        a_off: usize,
        other: &ResiduePlane,
        b_off: usize,
        len: usize,
        modulus: Modulus,
    ) -> u64 {
        // The tier invariant the caller owes us: a `len`-long dot of
        // residues below `m` fits this tier's accumulator.
        debug_assert!(
            {
                let worst = u128::from(modulus.value() - 1).pow(2) * u128::from(len.max(1) as u64);
                match self {
                    ResiduePlane::U16(_) => worst <= u128::from(u32::MAX),
                    ResiduePlane::U32(_) => worst <= u128::from(u64::MAX),
                    ResiduePlane::U64(_) => true,
                }
            },
            "group dot of len {len} would overflow this plane's accumulator tier"
        );
        match (self, other) {
            (ResiduePlane::U16(a), ResiduePlane::U16(b)) => {
                let mut acc = 0u32;
                for (&x, &w) in a[a_off..a_off + len].iter().zip(&b[b_off..b_off + len]) {
                    acc += u32::from(x) * u32::from(w);
                }
                modulus.fast_rem(u64::from(acc))
            }
            (ResiduePlane::U32(a), ResiduePlane::U32(b)) => {
                let mut acc = 0u64;
                for (&x, &w) in a[a_off..a_off + len].iter().zip(&b[b_off..b_off + len]) {
                    acc += u64::from(x) * u64::from(w);
                }
                modulus.fast_rem(acc)
            }
            (ResiduePlane::U64(a), ResiduePlane::U64(b)) => residue::dot_product_trusted(
                &a[a_off..a_off + len],
                &b[b_off..b_off + len],
                modulus,
            ),
            _ => panic!("residue planes of mismatched widths dotted together"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModuliSet;

    fn mantissas(n: usize, seed: i32) -> Vec<i32> {
        (0..n as i32).map(|i| (i * 7 + seed) % 31 - 15).collect()
    }

    #[test]
    fn width_tiers_follow_modulus_and_group() {
        let vals = mantissas(32, 1);
        let m33 = Modulus::new(33).unwrap();
        assert!(matches!(
            ResiduePlane::convert_i32(&vals, m33, 16),
            ResiduePlane::U16(_)
        ));
        // 65² · 16 > u32::MAX is false… but 2^20 moduli overflow u32 dots.
        let big = Modulus::new((1 << 20) + 1).unwrap();
        assert!(matches!(
            ResiduePlane::convert_i32(&vals, big, 16),
            ResiduePlane::U32(_)
        ));
        let huge = Modulus::new(1 << 40).unwrap();
        assert!(matches!(
            ResiduePlane::convert_i32(&vals, huge, 1 << 20),
            ResiduePlane::U64(_)
        ));
    }

    #[test]
    fn conversion_matches_reduce_signed() {
        let vals = mantissas(48, 5);
        for m in [31u64, 33, (1 << 13) - 1, (1 << 20) + 1, 1 << 40] {
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
        // special sets, their redundant primes, and the U32 tier: the
        // bound passed to `write_run` selects the branch-free lanes
        // (max < m) or the reduce fallback (max >= m), and
        // `convert_i32` picks the same way from the values.
        for m in [31u64, 32, 33, 37, 41, 63, 64, 65, (1 << 20) + 1] {
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
            }
        }
    }

    #[test]
    fn group_dots_match_generic_dot_product_across_tiers() {
        let xs = mantissas(64, 3);
        let ws = mantissas(64, 11);
        for m in [31u64, 33, 4099, (1 << 20) + 1, 1 << 40] {
            let modulus = Modulus::new(m).unwrap();
            for g in [1usize, 5, 16, 64] {
                let px = ResiduePlane::convert_i32(&xs, modulus, g);
                let pw = ResiduePlane::convert_i32(&ws, modulus, g);
                for off in (0..=(64 - g)).step_by(g.max(7)) {
                    let wx: Vec<u64> = (off..off + g).map(|i| px.get(i)).collect();
                    let ww: Vec<u64> = (off..off + g).map(|i| pw.get(i)).collect();
                    let want = residue::dot_product(&wx, &ww, modulus).unwrap();
                    assert_eq!(
                        px.group_dot(off, &pw, off, g, modulus),
                        want,
                        "m = {m}, g = {g}, off = {off}"
                    );
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
                ResiduePlane::convert_i32(&xs, m, 16).group_dot(
                    0,
                    &ResiduePlane::convert_i32(&ws, m, 16),
                    0,
                    16,
                    m,
                )
            })
            .collect();
        assert_eq!(conv.to_signed_trusted(&residues), i128::from(expected));
    }

    #[test]
    #[should_panic(expected = "mismatched widths")]
    fn mismatched_widths_panic() {
        let vals = mantissas(16, 0);
        let a = ResiduePlane::convert_i32(&vals, Modulus::new(33).unwrap(), 16);
        let b = ResiduePlane::convert_i32(&vals, Modulus::new(1 << 40).unwrap(), 16);
        a.group_dot(0, &b, 0, 16, Modulus::new(33).unwrap());
    }
}
