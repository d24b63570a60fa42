//! Forward (binary → RNS) and reverse (RNS → binary) conversion.
//!
//! The paper (§IV-B) stresses that conversion cost depends heavily on the
//! moduli set: for arbitrary co-prime sets the CRT reverse conversion is
//! expensive, while the special set `{2^k-1, 2^k, 2^k+1}` reduces both
//! directions to shifts and small adds (Hiasat, JCSC 2019; Wang et al.,
//! IEEE TSP 2002). Both paths are implemented here:
//!
//! - [`CrtConverter`] — the general path, with precomputed CRT constants.
//! - [`SpecialSetConverter`] — the bit-manipulation forward path and a
//!   mixed-radix reverse path whose per-step operands never exceed one
//!   modulus, mirroring the adder-based hardware converter.
//!
//! Both are verified against each other by unit and property tests.

use crate::moduli_set::ModuliSet;
use crate::modulus::Modulus;
use crate::{Result, RnsError};

/// Converts binary integers into residue vectors.
///
/// Implementors must produce, for each modulus `m_i` of [`Self::set`], the
/// residue `|v|_{m_i}` in `[0, m_i)`.
pub trait ForwardConverter {
    /// The moduli set this converter targets.
    fn set(&self) -> &ModuliSet;

    /// Converts a signed integer to its residue vector.
    ///
    /// Values outside the dynamic range wrap modulo `M`; range checking is
    /// the caller's job (Mirage guarantees it via Eq. 13 before any GEMM).
    fn to_residues(&self, v: i128) -> Vec<u64>;
}

/// Converts residue vectors back into binary integers.
pub trait ReverseConverter {
    /// The moduli set this converter targets.
    fn set(&self) -> &ModuliSet;

    /// Reconstructs the canonical value in `[0, M)`.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::LengthMismatch`] if `residues.len()` does not
    /// match the set size, or [`RnsError::UnreducedResidue`] when a residue
    /// is out of range.
    fn to_unsigned(&self, residues: &[u64]) -> Result<u128>;

    /// Reconstructs the symmetric signed value in `[-ψ, ψ]`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::to_unsigned`].
    fn to_signed(&self, residues: &[u64]) -> Result<i128> {
        let v = self.to_unsigned(residues)?;
        let set = self.set();
        Ok(if v > set.psi() {
            v as i128 - set.dynamic_range() as i128
        } else {
            v as i128
        })
    }

    /// [`Self::to_signed`] without per-call validation: the no-alloc
    /// hot-path entry for GEMM kernels that assemble the residue vector
    /// themselves (one [`crate::residue::dot_product`] per channel), so
    /// the operands are reduced and correctly sized by construction.
    /// Converters with precomputed constants override this with a path
    /// that skips validation entirely; results are always identical to
    /// [`Self::to_signed`] on valid input.
    ///
    /// # Panics
    ///
    /// Panics if the residues would be rejected by [`Self::to_signed`]
    /// (wrong count or unreduced values) — a caller bug by contract.
    fn to_signed_trusted(&self, residues: &[u64]) -> i128 {
        self.to_signed(residues)
            .expect("to_signed_trusted caller guarantees reduced residues")
    }
}

fn validate(residues: &[u64], set: &ModuliSet) -> Result<()> {
    if residues.len() != set.len() {
        return Err(RnsError::LengthMismatch {
            left: residues.len(),
            right: set.len(),
        });
    }
    for (&r, m) in residues.iter().zip(set.moduli()) {
        if r >= m.value() {
            return Err(RnsError::UnreducedResidue {
                value: r,
                modulus: m.value(),
            });
        }
    }
    Ok(())
}

/// General-purpose converter using precomputed CRT constants.
///
/// Forward conversion is a plain modulo per modulus; reverse conversion is
/// `X = | Σ_i x_i · T_i · M_i |_M` (paper Eq. 5) with `M_i = M / m_i` and
/// `T_i = M_i^{-1} mod m_i` computed once at construction.
///
/// ```
/// use mirage_rns::{ModuliSet, convert::{CrtConverter, ForwardConverter, ReverseConverter}};
///
/// let set = ModuliSet::new(&[5, 7, 9, 11])?;
/// let conv = CrtConverter::new(&set);
/// let r = conv.to_residues(-1234);
/// assert_eq!(conv.to_signed(&r)?, -1234);
/// # Ok::<(), mirage_rns::RnsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CrtConverter {
    set: ModuliSet,
    /// Per-modulus `M_i = M / m_i`.
    big_mi: Vec<u128>,
    /// Per-modulus `T_i = M_i^{-1} mod m_i`.
    ti: Vec<u64>,
    /// `u64` specialization when the whole dynamic range fits 31 bits —
    /// every Mirage-sized moduli set does — so the per-group reverse
    /// conversion in GEMM kernels runs without any `u128` arithmetic.
    small: Option<SmallCrt>,
}

/// Precomputed `u64` constants for small dynamic ranges (`M < 2^31`):
/// residues and the fused weights `w_i = |T_i · M_i|_M` both fit 31
/// bits, so `x_i · w_i` fits a `u64` with room for the channel sum.
#[derive(Debug, Clone)]
struct SmallCrt {
    m: Modulus,
    psi: u64,
    wi: Vec<u64>,
}

/// The fused small-range CRT constants (see [`CrtConverter::small_constants`]):
/// reconstruction is `v = | Σ_i x_i · wi[i] |_M` with every term in `u64`,
/// then `v - M` when `v > psi` for the signed value.
#[derive(Debug, Clone, Copy)]
pub struct SmallCrtConstants<'a> {
    /// The dynamic range `M`, as a modulus (for divide-free reduction).
    pub m: Modulus,
    /// The positive half-range `ψ`.
    pub psi: u64,
    /// Per-channel fused weights `|T_i · M_i|_M`.
    pub wi: &'a [u64],
}

impl CrtConverter {
    /// The moduli set this converter targets.
    ///
    /// Inherent method mirroring the trait accessors so call sites need no
    /// disambiguation between [`ForwardConverter`] and [`ReverseConverter`].
    pub fn set(&self) -> &ModuliSet {
        &self.set
    }

    /// The fused `u64` constants when the dynamic range fits 31 bits —
    /// specialized GEMM kernels inline the whole reverse conversion
    /// from these instead of calling [`ReverseConverter::to_signed_trusted`]
    /// per group (identical arithmetic, hoisted loads).
    pub fn small_constants(&self) -> Option<SmallCrtConstants<'_>> {
        self.small.as_ref().map(|s| SmallCrtConstants {
            m: s.m,
            psi: s.psi,
            wi: &s.wi,
        })
    }

    /// Builds a converter for `set`, precomputing `M_i`, `T_i` and (for
    /// small dynamic ranges) the fused `u64` weights `|T_i · M_i|_M`.
    pub fn new(set: &ModuliSet) -> Self {
        let big_m = set.dynamic_range();
        let mut big_mi = Vec::with_capacity(set.len());
        let mut ti = Vec::with_capacity(set.len());
        for m in set.moduli() {
            let mi = big_m / u128::from(m.value());
            let mi_mod = m.reduce_u128(mi);
            let t = m
                .inverse(mi_mod)
                .expect("M_i invertible for co-prime moduli");
            big_mi.push(mi);
            ti.push(t);
        }
        let small = if big_m < (1 << 31) {
            Some(SmallCrt {
                m: Modulus::new(big_m as u64).expect("dynamic range >= 2"),
                psi: set.psi() as u64,
                wi: big_mi
                    .iter()
                    .zip(&ti)
                    .map(|(&mi, &t)| (u128::from(t) * mi % big_m) as u64)
                    .collect(),
            })
        } else {
            None
        };
        CrtConverter {
            set: set.clone(),
            big_mi,
            ti,
            small,
        }
    }

    /// [`ReverseConverter::to_unsigned`] of `residues` with channel
    /// `skip` left out, reading them in place: the drop-one
    /// reconstruction of RRNS correction, which must not copy the
    /// vector. The caller has validated `residues` over the set with
    /// channel `skip` included (debug-asserted here).
    pub(crate) fn to_unsigned_without(&self, residues: &[u64], skip: usize) -> u128 {
        let kept = || {
            let all = residues.iter().enumerate();
            all.filter(move |&(c, _)| c != skip).map(|(_, &r)| r)
        };
        debug_assert_eq!(residues.len(), self.set.len() + 1);
        debug_assert!(kept().zip(self.set.moduli()).all(|(r, m)| r < m.value()));
        self.reconstruct(kept())
    }

    /// The CRT reconstruction sum on pre-validated residues, choosing
    /// the fused `u64` specialization when the range permits. Both paths
    /// compute the same `| Σ_i x_i · T_i · M_i |_M` exactly.
    fn reconstruct(&self, residues: impl IntoIterator<Item = u64>) -> u128 {
        if let Some(small) = &self.small {
            // Every term is < 2^62 (residue < m_i <= M < 2^31 and
            // w_i < M < 2^31) and reduced below 2^31 before summing, so
            // the channel sum cannot overflow a u64.
            let mut acc: u64 = 0;
            for (r, &w) in residues.into_iter().zip(&small.wi) {
                acc += small.m.fast_rem(r * w);
            }
            return u128::from(small.m.fast_rem(acc));
        }
        let big_m = self.set.dynamic_range();
        let mut acc: u128 = 0;
        for ((r, m), (&mi, &t)) in residues
            .into_iter()
            .zip(self.set.moduli())
            .zip(self.big_mi.iter().zip(&self.ti))
        {
            let term = u128::from(m.mul(r, t)) * mi % big_m;
            acc = (acc + term) % big_m;
        }
        acc
    }
}

impl ForwardConverter for CrtConverter {
    fn set(&self) -> &ModuliSet {
        &self.set
    }

    fn to_residues(&self, v: i128) -> Vec<u64> {
        self.set.moduli().iter().map(|m| m.reduce_i128(v)).collect()
    }
}

impl ReverseConverter for CrtConverter {
    fn set(&self) -> &ModuliSet {
        &self.set
    }

    fn to_unsigned(&self, residues: &[u64]) -> Result<u128> {
        validate(residues, &self.set)?;
        Ok(self.reconstruct(residues.iter().copied()))
    }

    /// The per-group GEMM hot path: no validation (debug-asserted), no
    /// allocation, and the fused `u64` reconstruction when the dynamic
    /// range allows — identical results to [`ReverseConverter::to_signed`]
    /// on valid input.
    #[inline]
    fn to_signed_trusted(&self, residues: &[u64]) -> i128 {
        debug_assert!(validate(residues, &self.set).is_ok());
        if let Some(small) = &self.small {
            let mut acc: u64 = 0;
            for (&r, &w) in residues.iter().zip(&small.wi) {
                acc += small.m.fast_rem(r * w);
            }
            let v = small.m.fast_rem(acc);
            if v > small.psi {
                i128::from(v) - i128::from(small.m.value())
            } else {
                i128::from(v)
            }
        } else {
            let v = self.reconstruct(residues.iter().copied());
            if v > self.set.psi() {
                v as i128 - self.set.dynamic_range() as i128
            } else {
                v as i128
            }
        }
    }
}

/// Shift-and-add converter for the special set `{2^k-1, 2^k, 2^k+1}`.
///
/// Forward conversion (paper §IV-B):
/// - `|A|_{2^k}` — keep the low `k` bits.
/// - `|A|_{2^k-1}` — fold `k`-bit chunks with end-around carry.
/// - `|A|_{2^k+1}` — alternating add/subtract of `k`-bit chunks.
///
/// Reverse conversion uses mixed-radix digits whose computation involves
/// only single-modulus multiplies by constants — the software analogue of
/// Hiasat's adjustable adder-based converter, which the paper credits with
/// ~2 GHz throughput at ~1 mW.
///
/// ```
/// use mirage_rns::{SpecialSetConverter, convert::{ForwardConverter, ReverseConverter}};
///
/// let conv = SpecialSetConverter::new(5)?;
/// let r = conv.to_residues(1000);
/// assert_eq!(r, vec![1000 % 31, 1000 % 32, 1000 % 33]);
/// assert_eq!(conv.to_unsigned(&r)?, 1000);
/// # Ok::<(), mirage_rns::RnsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SpecialSetConverter {
    set: ModuliSet,
    k: u32,
    /// `(2^k - 1)^{-1} mod 2^k` for the mixed-radix step.
    inv_m1_mod_m2: u64,
    /// `(2^k - 1)^{-1} mod (2^k + 1)`.
    inv_m1_mod_m3: u64,
    /// `(2^k)^{-1} mod (2^k + 1)`.
    inv_m2_mod_m3: u64,
}

impl SpecialSetConverter {
    /// Builds a converter for `{2^k-1, 2^k, 2^k+1}`.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::InvalidK`] for unsupported `k` (see
    /// [`ModuliSet::special_set`]).
    pub fn new(k: u32) -> Result<Self> {
        let set = ModuliSet::special_set(k)?;
        let [m1, m2, m3]: [Modulus; 3] = [set.moduli()[0], set.moduli()[1], set.moduli()[2]];
        let inv_m1_mod_m2 = m2
            .inverse(m2.reduce_u128(u128::from(m1.value())))
            .expect("co-prime");
        let inv_m1_mod_m3 = m3
            .inverse(m3.reduce_u128(u128::from(m1.value())))
            .expect("co-prime");
        let inv_m2_mod_m3 = m3
            .inverse(m3.reduce_u128(u128::from(m2.value())))
            .expect("co-prime");
        Ok(SpecialSetConverter {
            set,
            k,
            inv_m1_mod_m2,
            inv_m1_mod_m3,
            inv_m2_mod_m3,
        })
    }

    /// The special-set parameter `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The moduli set this converter targets.
    ///
    /// Inherent method mirroring the trait accessors so call sites need no
    /// disambiguation between [`ForwardConverter`] and [`ReverseConverter`].
    pub fn set(&self) -> &ModuliSet {
        &self.set
    }

    /// `|a|_{2^k - 1}` by folding `k`-bit chunks (end-around carry adder).
    pub fn mod_pow2_minus_1(&self, a: u128) -> u64 {
        let k = self.k;
        let m = (1u128 << k) - 1;
        let mut v = a;
        // Repeated folding: each pass sums k-bit chunks; values shrink fast.
        while v > m {
            let mut s: u128 = 0;
            let mut t = v;
            while t > 0 {
                s += t & m;
                t >>= k;
            }
            v = s;
        }
        // v may equal m (all ones), which is ≡ 0.
        if v == m {
            0
        } else {
            v as u64
        }
    }

    /// `|a|_{2^k}` — the low `k` bits.
    pub fn mod_pow2(&self, a: u128) -> u64 {
        (a & ((1u128 << self.k) - 1)) as u64
    }

    /// `|a|_{2^k + 1}` by alternating add/subtract of `k`-bit chunks.
    pub fn mod_pow2_plus_1(&self, a: u128) -> u64 {
        let k = self.k;
        let mask = (1u128 << k) - 1;
        let m = (1i128 << k) + 1;
        let mut acc: i128 = 0;
        let mut t = a;
        let mut sign = 1i128;
        // 2^k ≡ -1 (mod 2^k + 1), so chunk j contributes (-1)^j * chunk.
        while t > 0 {
            acc += sign * (t & mask) as i128;
            t >>= k;
            sign = -sign;
        }
        acc.rem_euclid(m) as u64
    }
}

impl ForwardConverter for SpecialSetConverter {
    fn set(&self) -> &ModuliSet {
        &self.set
    }

    fn to_residues(&self, v: i128) -> Vec<u64> {
        let mag = v.unsigned_abs();
        let r1 = self.mod_pow2_minus_1(mag);
        let r2 = self.mod_pow2(mag);
        let r3 = self.mod_pow2_plus_1(mag);
        if v >= 0 {
            vec![r1, r2, r3]
        } else {
            let ms = self.set.moduli();
            vec![ms[0].neg(r1), ms[1].neg(r2), ms[2].neg(r3)]
        }
    }
}

impl ReverseConverter for SpecialSetConverter {
    fn set(&self) -> &ModuliSet {
        &self.set
    }

    fn to_unsigned(&self, residues: &[u64]) -> Result<u128> {
        validate(residues, &self.set)?;
        let ms = self.set.moduli();
        let (m1, m2, m3) = (ms[0], ms[1], ms[2]);
        let (x1, x2, x3) = (residues[0], residues[1], residues[2]);
        // Mixed-radix digits: X = v1 + m1*(v2 + m2*v3).
        let v1 = x1;
        let v2 = m2.mul(
            m2.sub(x2, m2.reduce_u128(u128::from(v1))),
            self.inv_m1_mod_m2,
        );
        let t = m3.sub(x3, m3.reduce_u128(u128::from(v1)));
        let t = m3.mul(t, self.inv_m1_mod_m3);
        let t = m3.sub(t, m3.reduce_u128(u128::from(v2)));
        let v3 = m3.mul(t, self.inv_m2_mod_m3);
        Ok(u128::from(v1)
            + u128::from(m1.value()) * (u128::from(v2) + u128::from(m2.value()) * u128::from(v3)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_forward_matches_generic() {
        let conv = SpecialSetConverter::new(5).unwrap();
        let generic = CrtConverter::new(conv.set());
        for v in [
            -16367i128, -1000, -33, -32, -31, -1, 0, 1, 31, 32, 33, 16367,
        ] {
            assert_eq!(conv.to_residues(v), generic.to_residues(v), "v = {v}");
        }
    }

    #[test]
    fn special_reverse_round_trip() {
        let conv = SpecialSetConverter::new(5).unwrap();
        for v in 0..32736u128 {
            let r = conv.to_residues(v as i128);
            assert_eq!(conv.to_unsigned(&r).unwrap(), v, "v = {v}");
        }
    }

    #[test]
    fn crt_round_trip_arbitrary_set() {
        let set = ModuliSet::new(&[5, 7, 9, 11, 13]).unwrap();
        let conv = CrtConverter::new(&set);
        let big_m = set.dynamic_range();
        for v in (0..big_m).step_by(97) {
            let r = conv.to_residues(v as i128);
            assert_eq!(conv.to_unsigned(&r).unwrap(), v);
        }
    }

    #[test]
    fn signed_round_trip_both_paths() {
        let conv = SpecialSetConverter::new(6).unwrap();
        let crt = CrtConverter::new(conv.set());
        let psi = conv.set().psi() as i128;
        for v in [-psi, -1, 0, 1, psi, -4096, 4095] {
            let r = conv.to_residues(v);
            assert_eq!(conv.to_signed(&r).unwrap(), v);
            assert_eq!(crt.to_signed(&r).unwrap(), v);
        }
    }

    #[test]
    fn chunk_mod_helpers() {
        let conv = SpecialSetConverter::new(5).unwrap();
        for a in [0u128, 1, 30, 31, 32, 33, 1023, 32735, 123_456_789] {
            assert_eq!(u128::from(conv.mod_pow2_minus_1(a)), a % 31, "a = {a}");
            assert_eq!(u128::from(conv.mod_pow2(a)), a % 32);
            assert_eq!(u128::from(conv.mod_pow2_plus_1(a)), a % 33);
        }
    }

    #[test]
    fn all_ones_folds_to_zero() {
        let conv = SpecialSetConverter::new(5).unwrap();
        assert_eq!(conv.mod_pow2_minus_1(31), 0);
        assert_eq!(conv.mod_pow2_minus_1(31 * 31), 0);
    }

    #[test]
    fn reverse_rejects_bad_input() {
        let conv = SpecialSetConverter::new(5).unwrap();
        assert!(matches!(
            conv.to_unsigned(&[0, 0]),
            Err(RnsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            conv.to_unsigned(&[31, 0, 0]),
            Err(RnsError::UnreducedResidue { .. })
        ));
    }

    #[test]
    fn trusted_signed_matches_validated_small_range() {
        // Special sets are far below 2^31: the fused u64 path runs.
        let conv = SpecialSetConverter::new(5).unwrap();
        let crt = CrtConverter::new(conv.set());
        let psi = conv.set().psi() as i128;
        for v in (-psi..=psi).step_by(173) {
            let r = conv.to_residues(v);
            assert_eq!(crt.to_signed_trusted(&r), crt.to_signed(&r).unwrap());
            assert_eq!(crt.to_signed_trusted(&r), v);
        }
        // The default trait implementation (SpecialSetConverter) agrees.
        let r = conv.to_residues(-4321);
        assert_eq!(conv.to_signed_trusted(&r), -4321);
    }

    #[test]
    fn trusted_signed_matches_validated_large_range() {
        // M = (2^31 - 1) * 65537 >= 2^31: the u128 path runs.
        let set = ModuliSet::new(&[2_147_483_647, 65_537]).unwrap();
        let crt = CrtConverter::new(&set);
        assert!(set.dynamic_range() >= 1 << 31);
        for v in [0i128, 1, -1, 123_456_789_012, -987_654_321_098] {
            let r = crt.to_residues(v);
            assert_eq!(crt.to_signed_trusted(&r), crt.to_signed(&r).unwrap());
            assert_eq!(crt.to_signed_trusted(&r), v);
        }
    }

    #[test]
    fn dot_product_information_preservation() {
        // The headline claim (paper §III / Fig. 2): a full bm=4, g=16 dot
        // product survives 6-bit residue channels with zero loss.
        let conv = SpecialSetConverter::new(5).unwrap();
        let xs: Vec<i128> = (0..16).map(|i| (i % 31) - 15).collect();
        let ws: Vec<i128> = (0..16).map(|i| ((i * 7) % 31) - 15).collect();
        let expected: i128 = xs.iter().zip(&ws).map(|(a, b)| a * b).sum();

        // Per-modulus dot products, as the three MMVMUs would compute.
        let ms = conv.set().moduli().to_vec();
        let mut out = Vec::new();
        for (idx, m) in ms.iter().enumerate() {
            let xr: Vec<u64> = xs.iter().map(|&v| conv.to_residues(v)[idx]).collect();
            let wr: Vec<u64> = ws.iter().map(|&v| conv.to_residues(v)[idx]).collect();
            out.push(crate::residue::dot_product(&xr, &wr, *m).unwrap());
        }
        assert_eq!(conv.to_signed(&out).unwrap(), expected);
    }
}
