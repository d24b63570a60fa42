//! Redundant RNS (RRNS) error detection and correction.
//!
//! Paper §VI-E: adding `r` redundant moduli to the base set lets Mirage
//! detect and correct residue errors introduced by analog noise. With the
//! legitimate range restricted to the base set's `[0, M)`, any value whose
//! full-set CRT reconstruction exceeds `M` reveals an error; with two or
//! more redundant moduli a single corrupted residue can be *located and
//! corrected* by majority-logic decoding: reconstruct while dropping each
//! residue in turn and pick the candidate consistent with all but one
//! channel.

use crate::convert::{CrtConverter, ForwardConverter, ReverseConverter};
use crate::moduli_set::ModuliSet;
use crate::{Result, RnsError};

/// A redundant RNS: a base moduli set plus redundant moduli.
///
/// ```
/// use mirage_rns::RedundantRns;
///
/// // Base {31, 32, 33} plus redundant {37, 41}.
/// let rrns = RedundantRns::new(&[31, 32, 33], &[37, 41])?;
/// let mut residues = rrns.encode(1234)?;
/// residues[1] = (residues[1] + 5) % 32; // corrupt one channel
/// let decoded = rrns.correct(&residues)?;
/// assert_eq!(decoded.value, 1234);
/// assert_eq!(decoded.corrected_channel, Some(1));
/// # Ok::<(), mirage_rns::RnsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RedundantRns {
    full: ModuliSet,
    full_converter: CrtConverter,
    /// Converters used when one channel is dropped, indexed by the dropped
    /// channel.
    drop_one: Vec<CrtConverter>,
    base_len: usize,
    /// Legitimate range: the base set's dynamic range.
    legitimate_range: u128,
}

/// Outcome of a successful RRNS correction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corrected {
    /// The decoded signed value.
    pub value: i128,
    /// Which residue channel was corrected, if any.
    pub corrected_channel: Option<usize>,
}

impl RedundantRns {
    /// Builds an RRNS from base and redundant moduli.
    ///
    /// # Errors
    ///
    /// Propagates [`ModuliSet::new`] errors: all base + redundant moduli
    /// must be pairwise co-prime and at least one base modulus must exist.
    pub fn new(base: &[u64], redundant: &[u64]) -> Result<Self> {
        let base_set = ModuliSet::new(base)?;
        let mut all = base.to_vec();
        all.extend_from_slice(redundant);
        let full = ModuliSet::new(&all)?;
        let full_converter = CrtConverter::new(&full);
        let mut drop_one = Vec::with_capacity(all.len());
        for i in 0..all.len() {
            let mut reduced = all.clone();
            reduced.remove(i);
            drop_one.push(CrtConverter::new(&ModuliSet::new(&reduced)?));
        }
        Ok(RedundantRns {
            full,
            full_converter,
            drop_one,
            base_len: base.len(),
            legitimate_range: base_set.dynamic_range(),
        })
    }

    /// The full moduli set (base followed by redundant moduli).
    pub fn full_set(&self) -> &ModuliSet {
        &self.full
    }

    /// Number of base moduli.
    pub fn base_len(&self) -> usize {
        self.base_len
    }

    /// Number of redundant moduli.
    pub fn redundant_len(&self) -> usize {
        self.full.len() - self.base_len
    }

    /// The legitimate (signed-symmetric) bound `ψ` of the base set.
    pub fn psi(&self) -> u128 {
        (self.legitimate_range - 1) / 2
    }

    /// Encodes a signed value into residues over the full set.
    ///
    /// # Errors
    ///
    /// Returns [`RnsError::OutOfRange`] if `value` exceeds the base set's
    /// signed range (redundant moduli do not extend the legitimate range).
    pub fn encode(&self, value: i128) -> Result<Vec<u64>> {
        let psi = self.psi();
        if value.unsigned_abs() > psi {
            return Err(RnsError::OutOfRange { value, psi });
        }
        Ok(self.full_converter.to_residues(value))
    }

    /// Detects whether the residue vector contains an error.
    ///
    /// A reconstruction outside the legitimate range proves corruption.
    /// (A corrupted vector that happens to land back inside the range is
    /// undetectable, as in any RRNS.)
    ///
    /// # Errors
    ///
    /// Returns validation errors for malformed residue vectors.
    pub fn detect(&self, residues: &[u64]) -> Result<bool> {
        let v = self.full_converter.to_unsigned(residues)?;
        Ok(!self.in_legitimate_range(v, self.full.dynamic_range()))
    }

    /// The fast clean-path check: `value`, decoded from the **base**
    /// channels alone (the trusted signed CRT), lies in the legitimate
    /// range `|v| ≤ ψ` and every redundant channel of `residues` agrees
    /// with it. By CRT uniqueness (a full-set vector agreeing with some
    /// `|v| ≤ ψ` on every channel *is* that value's encoding) this
    /// accepts exactly the vectors [`RedundantRns::detect`] calls
    /// clean, without a full-set CRT.
    pub fn is_consistent(&self, value: i128, residues: &[u64]) -> bool {
        // A corrupted base can decode just outside [-ψ, ψ] (e.g. to
        // -(ψ+1) when the base product is even); the range check closes
        // that edge before the channel comparisons.
        value.unsigned_abs() <= self.psi()
            && self
                .full
                .moduli()
                .iter()
                .enumerate()
                .skip(self.base_len)
                .all(|(channel, m)| residues.get(channel) == Some(&m.reduce_i128(value)))
    }

    /// Attempts to decode, correcting at most one corrupted channel.
    /// Allocation-free: each drop-one candidate reads `residues` in
    /// place.
    ///
    /// # Errors
    ///
    /// - Validation errors for malformed vectors.
    /// - [`RnsError::Uncorrectable`] when no single-channel correction
    ///   yields a consistent value (e.g. two channels corrupted).
    // mirage-lint: no_alloc
    pub fn correct(&self, residues: &[u64]) -> Result<Corrected> {
        let v = self.full_converter.to_unsigned(residues)?;
        let m_full = self.full.dynamic_range();
        if self.in_legitimate_range(v, m_full) {
            return Ok(Corrected {
                value: self.signed(v, m_full),
                corrected_channel: None,
            });
        }
        // Majority-logic decoding: drop each channel in turn. If channel j
        // is the (single) corrupted one, the remaining residues agree on a
        // value in the legitimate range that disagrees only with j.
        let mut candidate: Option<Corrected> = None;
        for (j, conv) in self.drop_one.iter().enumerate() {
            // The full-set conversion above validated every channel.
            let x = conv.to_unsigned_without(residues, j);
            // The drop-one reconstruction lives in [0, M_reduced); range
            // and sign checks must use that product, not the full set's.
            let m_reduced = conv.set().dynamic_range();
            if !self.in_legitimate_range(x, m_reduced) {
                continue;
            }
            let x_signed = self.signed(x, m_reduced);
            // Verify the candidate against every channel except j.
            let consistent = self
                .full
                .moduli()
                .iter()
                .enumerate()
                .all(|(i, m)| i == j || m.reduce_i128(x_signed) == residues[i]);
            if consistent {
                let corrected = Corrected {
                    value: x_signed,
                    corrected_channel: Some(j),
                };
                match candidate {
                    None => candidate = Some(corrected),
                    Some(prev) if prev.value == corrected.value => {}
                    Some(_) => return Err(RnsError::Uncorrectable),
                }
            }
        }
        candidate.ok_or(RnsError::Uncorrectable)
    }

    fn in_legitimate_range(&self, v: u128, m_total: u128) -> bool {
        // Signed-symmetric legitimate range: [0, psi] ∪ [m_total - psi, m_total).
        let psi = self.psi();
        v <= psi || v >= m_total - psi
    }

    fn signed(&self, v: u128, m_total: u128) -> i128 {
        if v <= self.psi() {
            v as i128
        } else {
            v as i128 - m_total as i128
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rrns() -> RedundantRns {
        RedundantRns::new(&[31, 32, 33], &[37, 41]).unwrap()
    }

    #[test]
    fn clean_round_trip() {
        let r = rrns();
        for v in [-16367i128, -12, 0, 5, 16367] {
            let res = r.encode(v).unwrap();
            assert!(!r.detect(&res).unwrap());
            let c = r.correct(&res).unwrap();
            assert_eq!(c.value, v);
            assert_eq!(c.corrected_channel, None);
        }
    }

    #[test]
    fn encode_respects_base_range_only() {
        let r = rrns();
        // Base psi = 16367 even though the full set is much larger.
        assert!(r.encode(16368).is_err());
        assert_eq!(r.psi(), 16367);
        assert_eq!(r.base_len(), 3);
        assert_eq!(r.redundant_len(), 2);
    }

    #[test]
    fn detects_single_channel_corruption() {
        let r = rrns();
        let moduli = [31u64, 32, 33, 37, 41];
        for v in [-5000i128, 0, 1, 4242, 16000] {
            for ch in 0..5 {
                let mut res = r.encode(v).unwrap();
                res[ch] = (res[ch] + 1) % moduli[ch];
                assert!(r.detect(&res).unwrap(), "v = {v}, ch = {ch}");
            }
        }
    }

    #[test]
    fn corrects_every_channel() {
        let r = rrns();
        let moduli = [31u64, 32, 33, 37, 41];
        for v in [-16000i128, -1, 0, 7, 9999] {
            for ch in 0..5 {
                for delta in [1u64, 5, moduli[ch] - 1] {
                    let mut res = r.encode(v).unwrap();
                    res[ch] = (res[ch] + delta) % moduli[ch];
                    let c = r.correct(&res).unwrap();
                    assert_eq!(c.value, v, "v = {v}, ch = {ch}, delta = {delta}");
                    assert_eq!(c.corrected_channel, Some(ch));
                }
            }
        }
    }

    #[test]
    fn double_corruption_is_uncorrectable_or_detected() {
        let r = rrns();
        let mut res = r.encode(1234).unwrap();
        res[0] = (res[0] + 3) % 31;
        res[3] = (res[3] + 7) % 37;
        // Either we notice there is no consistent single-channel fix, or
        // (rarely) a fix exists but must not silently return garbage that
        // matches more than one candidate.
        match r.correct(&res) {
            Err(RnsError::Uncorrectable) => {}
            Ok(c) => {
                // If a single-channel explanation exists it must be
                // arithmetically consistent; just check range sanity.
                assert!(c.value.unsigned_abs() <= r.psi());
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn one_redundant_modulus_detects_but_may_not_correct() {
        let r = RedundantRns::new(&[31, 32, 33], &[29]).unwrap();
        let mut res = r.encode(500).unwrap();
        res[2] = (res[2] + 11) % 33;
        assert!(r.detect(&res).unwrap());
    }

    #[test]
    fn rejects_non_coprime_redundant() {
        assert!(RedundantRns::new(&[31, 32, 33], &[62]).is_err());
    }

    #[test]
    fn zero_value_corruption_is_detected_and_corrected_on_every_channel() {
        // Zero is the all-zero residue vector — the degenerate encoding
        // where a flip on any channel must still be located exactly.
        let r = rrns();
        let moduli = [31u64, 32, 33, 37, 41];
        let clean = r.encode(0).unwrap();
        assert_eq!(clean, vec![0, 0, 0, 0, 0]);
        for ch in 0..5 {
            for delta in [1u64, moduli[ch] / 2, moduli[ch] - 1] {
                let mut res = clean.clone();
                res[ch] = delta % moduli[ch];
                assert!(r.detect(&res).unwrap(), "ch = {ch}, delta = {delta}");
                let c = r.correct(&res).unwrap();
                assert_eq!(c.value, 0);
                assert_eq!(c.corrected_channel, Some(ch));
            }
        }
    }

    #[test]
    fn psi_boundary_values_survive_corruption_on_every_channel() {
        // ±ψ sit at the very edge of the legitimate range — the drop-one
        // candidates of a corrupted boundary encoding flirt with the
        // range check, so correction must still land exactly on ±ψ.
        let r = rrns();
        let psi = r.psi() as i128;
        assert_eq!(psi, 16367);
        let moduli = [31u64, 32, 33, 37, 41];
        for value in [psi, -psi] {
            let clean = r.encode(value).unwrap();
            assert!(!r.detect(&clean).unwrap());
            for ch in 0..5 {
                let mut res = clean.clone();
                res[ch] = (res[ch] + 1) % moduli[ch];
                assert!(r.detect(&res).unwrap(), "value = {value}, ch = {ch}");
                let c = r.correct(&res).unwrap();
                assert_eq!(c.value, value, "value = {value}, ch = {ch}");
                assert_eq!(c.corrected_channel, Some(ch));
            }
        }
        // Just outside the boundary the encoder itself refuses.
        assert!(matches!(
            r.encode(psi + 1),
            Err(RnsError::OutOfRange { .. })
        ));
        assert!(matches!(
            r.encode(-(psi + 1)),
            Err(RnsError::OutOfRange { .. })
        ));
    }

    #[test]
    fn simultaneous_double_errors_never_miscorrect_exhaustively() {
        // Exhaustive two-channel sweep for a handful of values: every
        // outcome must be either a typed Uncorrectable or a correction
        // whose value is arithmetically consistent with all but one
        // channel — never a silently different value passed off as a
        // single-channel fix of the *wrong* channel pair.
        let r = rrns();
        let moduli = [31u64, 32, 33, 37, 41];
        let mut uncorrectable = 0u32;
        let mut consistent_fixes = 0u32;
        for &value in &[0i128, 1234, -4242] {
            let clean = r.encode(value).unwrap();
            for ch_a in 0..5 {
                for ch_b in (ch_a + 1)..5 {
                    for (da, db) in [(1u64, 1u64), (3, 7), (moduli[ch_a] - 1, 5)] {
                        let mut res = clean.clone();
                        res[ch_a] = (res[ch_a] + da) % moduli[ch_a];
                        res[ch_b] = (res[ch_b] + db) % moduli[ch_b];
                        assert!(r.detect(&res).unwrap(), "double errors are detected");
                        match r.correct(&res) {
                            Err(RnsError::Uncorrectable) => uncorrectable += 1,
                            Ok(c) => {
                                // A double error can masquerade as a single
                                // error on some OTHER channel; when it does,
                                // the decoded value must still be consistent
                                // with every channel except the blamed one —
                                // the RRNS guarantee is "consistent or
                                // refused", not clairvoyance.
                                let blamed = c.corrected_channel.expect(
                                    "a detected-corrupt vector cannot decode with no correction",
                                );
                                assert!(c.value.unsigned_abs() <= r.psi());
                                let consistent =
                                    r.full_set().moduli().iter().enumerate().all(|(i, m)| {
                                        i == blamed || m.reduce_i128(c.value) == res[i]
                                    });
                                assert!(consistent, "mis-correction leaked an inconsistent value");
                                consistent_fixes += 1;
                            }
                            Err(e) => panic!("unexpected error {e}"),
                        }
                    }
                }
            }
        }
        assert!(uncorrectable > 0, "double errors should mostly be refused");
        // Sanity: the masquerade case is rare but the sweep is large
        // enough that both branches execute (values chosen accordingly).
        assert!(uncorrectable + consistent_fixes == 3 * 10 * 3);
    }

    #[test]
    fn wrong_length_vectors_return_typed_errors_not_panics() {
        let r = rrns();
        let clean = r.encode(77).unwrap();
        for bad_len in [0usize, 3, 4, 6] {
            let mut res = clean.clone();
            res.resize(bad_len, 0);
            assert!(
                matches!(r.detect(&res), Err(RnsError::LengthMismatch { .. })),
                "detect, len = {bad_len}"
            );
            assert!(
                matches!(r.correct(&res), Err(RnsError::LengthMismatch { .. })),
                "correct, len = {bad_len}"
            );
        }
        // Unreduced residues are typed errors too.
        let mut unreduced = clean.clone();
        unreduced[0] = 31; // == modulus
        assert!(matches!(
            r.detect(&unreduced),
            Err(RnsError::UnreducedResidue { .. })
        ));
        assert!(matches!(
            r.correct(&unreduced),
            Err(RnsError::UnreducedResidue { .. })
        ));
    }
}
