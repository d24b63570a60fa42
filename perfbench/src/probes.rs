//! Replay probes of the traced run: the GEMM shapes the run recorded
//! are replayed through the public BFP, RNS and RRNS primitives, and
//! priced by the paper's latency model. None of this runs in the timed
//! (untraced) run.

use crate::timed::GemmSpan;
use mirage_arch::latency::mirage_gemm_latency_s;
use mirage_arch::{Dataflow, GemmShape, MirageConfig};
use mirage_bfp::{BfpConfig, PackedBfpMatrix};
use mirage_rns::convert::{CrtConverter, ReverseConverter};
use mirage_rns::rrns::RedundantRns;
use mirage_rns::{ModuliSet, ResiduePlane};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Elements (or values) each probe replays per shape, so every probe
/// takes a comparable slice of the traced run whatever the shapes.
const REPLAY_ELEMS: usize = 1 << 21;

/// Distinct `(m, k, n)` shapes with their call counts, in shape order.
pub fn shape_counts(spans: &[GemmSpan]) -> BTreeMap<(usize, usize, usize), u64> {
    let mut counts = BTreeMap::new();
    for s in spans {
        *counts.entry((s.m, s.k, s.n)).or_insert(0) += 1;
    }
    counts
}

/// Random activations in roughly the range the models produce.
fn activations(len: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..len)
        .map(|_| (rng.random::<f32>() - 0.5) * 4.0)
        .collect()
}

/// Weighted mean over shapes of `ns_per_unit(shape)`, weighted by each
/// shape's calls × units per call.
fn weighted(
    shapes: &BTreeMap<(usize, usize, usize), u64>,
    units: impl Fn(usize, usize, usize) -> usize,
    mut ns_per_unit: impl FnMut(usize, usize, usize) -> f64,
) -> f64 {
    let (mut ns, mut total) = (0.0, 0.0);
    for (&(m, k, n), &calls) in shapes {
        let u = (units(m, k, n) as f64) * calls as f64;
        ns += ns_per_unit(m, k, n) * u;
        total += u;
    }
    if total == 0.0 {
        0.0
    } else {
        ns / total
    }
}

/// How many times a probe of `per_call` units repeats to replay about
/// [`REPLAY_ELEMS`] units.
fn reps(per_call: usize) -> usize {
    (REPLAY_ELEMS / per_call.max(1)).clamp(1, 100_000)
}

/// Activation-side BFP quantization (`quantize_rows_into`), ns per
/// element of the `m × k` operand.
pub fn bfp_quantize_ns_per_elem(
    config: BfpConfig,
    shapes: &BTreeMap<(usize, usize, usize), u64>,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(101);
    let mut packed = PackedBfpMatrix::empty(config);
    weighted(
        shapes,
        |m, k, _| m * k,
        |m, k, _| {
            let data = activations(m * k, &mut rng);
            let r = reps(m * k);
            let t = Instant::now();
            for _ in 0..r {
                packed
                    .quantize_rows_into(black_box(&data), m, k)
                    .expect("shape matches data");
            }
            t.elapsed().as_nanos() as f64 / (r * m * k) as f64
        },
    )
}

/// Forward conversion of the quantized `m × k` mantissas into every
/// residue channel (`ResiduePlane::convert_i32`), ns per element.
pub fn rns_forward_ns_per_elem(
    config: BfpConfig,
    moduli: &ModuliSet,
    shapes: &BTreeMap<(usize, usize, usize), u64>,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(202);
    let g = config.group_size();
    weighted(
        shapes,
        |m, k, _| m * k,
        |m, k, _| {
            let data = activations(m * k, &mut rng);
            let packed =
                PackedBfpMatrix::quantize_rows(&data, m, k, config).expect("shape matches data");
            let r = reps(m * k);
            let t = Instant::now();
            for _ in 0..r {
                for &modulus in moduli.moduli() {
                    black_box(ResiduePlane::convert_i32(
                        black_box(packed.mantissas()),
                        modulus,
                        g,
                    ));
                }
            }
            t.elapsed().as_nanos() as f64 / (r * m * k) as f64
        },
    )
}

/// Residue vectors of random values inside the set's signed range.
fn residue_vectors(moduli: &ModuliSet, count: usize, rng: &mut StdRng) -> Vec<u64> {
    let psi = moduli.psi() as i128;
    let mut out = Vec::with_capacity(count * moduli.len());
    for _ in 0..count {
        let v = (rng.random::<u64>() as i128).rem_euclid(2 * psi + 1) - psi;
        out.extend(moduli.moduli().iter().map(|m| m.reduce_i128(v)));
    }
    out
}

/// CRT reverse conversion of one group result per `(row, column,
/// group)` of the output (`to_signed_trusted`), ns per value.
pub fn rns_reverse_ns_per_value(
    config: BfpConfig,
    moduli: &ModuliSet,
    shapes: &BTreeMap<(usize, usize, usize), u64>,
) -> f64 {
    let converter = CrtConverter::new(moduli);
    let channels = moduli.len();
    let vectors = residue_vectors(moduli, 4096, &mut StdRng::seed_from_u64(303));
    let g = config.group_size();
    weighted(
        shapes,
        |m, k, n| m * n * k.div_ceil(g),
        |m, k, n| {
            let values = (m * n * k.div_ceil(g)).clamp(100_000, REPLAY_ELEMS);
            let t = Instant::now();
            let mut acc = 0i128;
            for chunk in vectors.chunks_exact(channels).cycle().take(values) {
                acc = acc.wrapping_add(converter.to_signed_trusted(black_box(chunk)));
            }
            black_box(acc);
            t.elapsed().as_nanos() as f64 / values as f64
        },
    )
}

/// `RedundantRns::correct` on `count` replayed vectors with one
/// corrupted channel each, µs per call. Panics if a single-channel
/// error is not corrected back to the encoded value.
pub fn rrns_correct_us_per_call(base: &ModuliSet, redundant: &[u64], count: usize) -> f64 {
    let base_values: Vec<u64> = base.moduli().iter().map(|m| m.value()).collect();
    let rrns = RedundantRns::new(&base_values, redundant).expect("co-prime redundant moduli");
    let full: Vec<u64> = rrns.full_set().moduli().iter().map(|m| m.value()).collect();
    let psi = rrns.psi() as i128;
    let mut rng = StdRng::seed_from_u64(404);
    let cases: Vec<(i128, Vec<u64>)> = (0..count)
        .map(|_| {
            let v = (rng.random::<u64>() as i128).rem_euclid(2 * psi + 1) - psi;
            let mut r = rrns.encode(v).expect("value in range");
            let ch = (rng.random::<u64>() % r.len() as u64) as usize;
            r[ch] = (r[ch] + 1 + rng.random::<u64>() % (full[ch] - 1)) % full[ch];
            (v, r)
        })
        .collect();
    let t = Instant::now();
    for (v, r) in &cases {
        let fixed = rrns
            .correct(black_box(r))
            .expect("one flipped channel is correctable");
        assert_eq!(fixed.value, *v, "RRNS corrected to a wrong value");
    }
    t.elapsed().as_secs_f64() * 1e6 / count.max(1) as f64
}

/// The paper model's Mirage latency for a GEMM list, each GEMM on its
/// fastest supported dataflow, in ms.
pub fn modeled_ms(cfg: &MirageConfig, gemms: &[(usize, usize, usize)]) -> f64 {
    gemms
        .iter()
        .map(|&(m, k, n)| {
            Dataflow::MIRAGE
                .iter()
                .map(|&df| mirage_gemm_latency_s(cfg, GemmShape::new(m, k, n), df))
                .fold(f64::INFINITY, f64::min)
        })
        .sum::<f64>()
        * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_core::Mirage;

    fn shapes() -> BTreeMap<(usize, usize, usize), u64> {
        BTreeMap::from([((4, 32, 16), 3), ((1, 64, 8), 1)])
    }

    #[test]
    fn probes_report_positive_costs() {
        let mirage = Mirage::paper_default();
        let cfg = mirage.bfp_config();
        let moduli = &mirage.config().moduli;
        assert!(bfp_quantize_ns_per_elem(cfg, &shapes()) > 0.0);
        assert!(rns_forward_ns_per_elem(cfg, moduli, &shapes()) > 0.0);
        assert!(rns_reverse_ns_per_value(cfg, moduli, &shapes()) > 0.0);
        assert!(rrns_correct_us_per_call(moduli, &[37, 41], 200) > 0.0);
    }

    #[test]
    fn modeled_latency_is_deterministic_and_additive() {
        let cfg = Mirage::paper_default().config().clone();
        let one = modeled_ms(&cfg, &[(1, 768, 3072)]);
        assert!(one > 0.0);
        assert_eq!(one, modeled_ms(&cfg, &[(1, 768, 3072)]));
        let two = modeled_ms(&cfg, &[(1, 768, 3072), (1, 768, 3072)]);
        assert!((two - 2.0 * one).abs() < 1e-12);
    }
}
