//! Packed vs legacy kernel microbenchmarks — the perf-trajectory bench
//! for the flat quantized GEMM layer.
//!
//! Measures, on one thread (this container has 1 CPU; the acceptance
//! numbers are single-thread by design):
//!
//! - **quantize**: the PR 3 row quantizer (one `Vec<i32>` + one
//!   `sanitized` staging `Vec<f32>` per group) vs
//!   `PackedBfpMatrix::quantize_rows_into` (flat buffers, reused
//!   scratch — with a pointer-stability spot-check proving the
//!   steady-state path performs no heap allocation);
//! - **group-dot**: chained `BfpBlock::dot` + `exp2` recombination vs
//!   `PackedBfpMatrix::dot_rows` (slice integer dot + bit-twiddled
//!   `pow2`);
//! - **BFP GEMM** and **RNS-BFP GEMM** on the 64×256×256 serving shape:
//!   the packed engines vs faithful reimplementations of the legacy
//!   per-group-heap-object kernels (kept here as the oracle) — pinned
//!   to the scalar kernels (`SimdPolicy::Off`) so the row keeps
//!   measuring the PR 4 layout gain;
//! - **SIMD GEMM rows**: the explicit AVX2 kernels vs the scalar panel
//!   kernels on the same shape (for BFP also at the `serve-bfp-ff768`
//!   shapes 1×768×3072 and 32×768×3072; for RNS-BFP the `u8` residue
//!   panels against the scalar panel kernel over the same panels),
//!   asserted bit-identical element-exact before timing and timed as
//!   order-balanced back-to-back pairs (`mirage_bench::paired_speedup`),
//!   plus the unprepared RNS-BFP `gemm` at the 256×64×256 training
//!   backward shape. The `simd` column records the tier each row ran at.
//! - **one-pass packing rows**: the RNS-BFP B-side packing (quantize
//!   and forward-convert the columns of a 256×256 `B`) as one pass over
//!   `B`'s stored layout (`prepare`) against the packing it replaced —
//!   `transpose2d`, the row quantizer into an `i32` buffer, then a
//!   `reduce_i128` pass per channel — and the unprepared 64×256×256
//!   RNS-BFP `gemm` against that legacy B-side packing followed by the
//!   prepared GEMM. Both sides are asserted bit-identical first.
//! - **RRNS rows** (`rrns gemm (simd)`): the RRNS-protected engine
//!   against unprotected SIMD RNS-BFP on prepared weights at the
//!   1×96×384 serving shape and 64×256×256, clean and with a 1e-5
//!   residue-flip injector armed; `overhead` is protected over
//!   unprotected time.
//!
//! Every comparison asserts **bit-identity** before timing anything, so
//! running this bench in `--test` (smoke) mode is a correctness check.
//! Full runs write `BENCH_kernels.json` for the perf trajectory.
//! `MIRAGE_SIMD=off` caps the SIMD rows' tier, which CI uses to smoke
//! the scalar paths against the scalar oracle.

use mirage_bench::{paired_speedup, print_table, write_summary, JsonField, PairedSpeedup};
use mirage_bfp::{simd, BfpBlock, BfpConfig, PackedBfpMatrix, SimdPolicy};
use mirage_rns::convert::{CrtConverter, ReverseConverter};
use mirage_rns::{residue, ResiduePlane};
use mirage_tensor::engines::{BfpEngine, ProtectedRnsBfpEngine, RnsBfpEngine};
use mirage_tensor::faults::{FaultConfig, FaultInjector};
use mirage_tensor::{GemmEngine, Tensor};
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The serving shape the acceptance criteria are measured on.
const M: usize = 64;
const K: usize = 256;
const N: usize = 256;

/// Best-of-`reps` wall clock for one invocation of `f`.
fn best_of<F: FnMut()>(reps: usize, mut f: F) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed());
    }
    best
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Asserts two GEMM outputs are element-exact, bit for bit.
fn assert_same_bits(want: &Tensor, got: &Tensor, what: &str) {
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(want.shape(), got.shape(), "{what}");
    assert_eq!(bits(want), bits(got), "{what}");
}

/// PR 3's `BfpBlock::quantize`, replicated verbatim: the unconditional
/// `sanitized` staging copy per group (this PR's library version takes
/// an allocation-free fast path on all-finite input, so measuring
/// through it would flatter the legacy path).
fn pr3_quantize(values: &[f32], config: BfpConfig) -> BfpBlock {
    let sanitized: Vec<f32> = values
        .iter()
        .map(|&v| {
            if v.is_nan() {
                0.0
            } else if v.is_infinite() {
                f32::MAX.copysign(v)
            } else {
                v
            }
        })
        .collect();
    BfpBlock::quantize(&sanitized, config)
}

/// PR 3's row quantizer: `rows × ceil(k/g)` heap blocks.
fn pr3_quantize_rows(t: &Tensor, config: BfpConfig) -> Vec<Vec<BfpBlock>> {
    let cols = t.shape()[1];
    let g = config.group_size();
    (0..t.shape()[0])
        .map(|r| {
            let row = &t.data()[r * cols..(r + 1) * cols];
            row.chunks(g)
                .map(|chunk| pr3_quantize(chunk, config))
                .collect()
        })
        .collect()
}

fn pr3_quantize_cols(b: &Tensor, config: BfpConfig) -> Vec<Vec<BfpBlock>> {
    pr3_quantize_rows(&b.transpose2d().unwrap(), config)
}

/// The legacy block-path BFP GEMM (the PR 3 implementation): one
/// `BfpBlock` heap object per group, `Result`-checked dots, `exp2`
/// recombination. The oracle for the packed kernels.
fn legacy_bfp_gemm(a: &Tensor, b: &Tensor, config: BfpConfig) -> Tensor {
    let (m, n) = (a.shape()[0], b.shape()[1]);
    let a_rows = pr3_quantize_rows(a, config);
    let b_cols = pr3_quantize_cols(b, config);
    let mut out = vec![0.0f32; m * n];
    for (i, arow) in a_rows.iter().enumerate() {
        for (j, bcol) in b_cols.iter().enumerate() {
            let mut acc = 0.0f32;
            for (ga, gb) in arow.iter().zip(bcol) {
                // The PR 3 recombination, `exp2` call included (the
                // library's `to_f32` has since switched to the
                // bit-identical `pow2` helper).
                let d = ga.dot(gb).unwrap();
                acc += (d.integer as f64 * (d.scale_exp as f64).exp2()) as f32;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// The legacy per-group RNS GEMM (pre-packed implementation): per-group
/// `Vec<Vec<u64>>` residues, validated CRT reverse conversion with a
/// per-group scratch vector, `exp2` recombination.
fn legacy_rns_gemm(a: &Tensor, b: &Tensor, engine: &RnsBfpEngine) -> Tensor {
    let (m, n) = (a.shape()[0], b.shape()[1]);
    let moduli = engine.moduli().moduli();
    let converter = CrtConverter::new(engine.moduli());
    type Converted = Vec<Vec<(i32, Vec<Vec<u64>>)>>;
    let convert = |blocks: Vec<Vec<BfpBlock>>| -> Converted {
        blocks
            .iter()
            .map(|groups| {
                groups
                    .iter()
                    .map(|block| {
                        let wide = block.mantissas_i64();
                        (
                            block.scale_exp(),
                            moduli
                                .iter()
                                .map(|&md| residue::reduce_signed(&wide, md))
                                .collect(),
                        )
                    })
                    .collect()
            })
            .collect()
    };
    let a_rows = convert(pr3_quantize_rows(a, engine.config()));
    let b_cols = convert(pr3_quantize_cols(b, engine.config()));
    let mut out = vec![0.0f32; m * n];
    for (i, arow) in a_rows.iter().enumerate() {
        for (j, bcol) in b_cols.iter().enumerate() {
            let mut acc = 0.0f32;
            for ((ea, ga), (eb, gb)) in arow.iter().zip(bcol) {
                let residues: Vec<u64> = moduli
                    .iter()
                    .enumerate()
                    .map(|(c, &md)| residue::dot_product(&ga[c], &gb[c], md).unwrap())
                    .collect();
                let integer = converter.to_signed(&residues).unwrap() as f64;
                acc += (integer * ((ea + eb) as f64).exp2()) as f32;
            }
            out[i * n + j] = acc;
        }
    }
    Tensor::from_vec(out, &[m, n]).unwrap()
}

/// The RNS-BFP B-side packing the one-pass packers replaced:
/// `transpose2d`, the row quantizer into a packed `i32` buffer, then
/// one exact `reduce_i128` pass per residue channel.
fn legacy_rns_pack_cols(b: &Tensor, engine: &RnsBfpEngine) -> (Vec<ResiduePlane>, Vec<i32>) {
    let (k, n) = (b.shape()[0], b.shape()[1]);
    let bt = b.transpose2d().unwrap();
    let config = engine.config();
    let packed = PackedBfpMatrix::quantize_rows(bt.data(), n, k, config).unwrap();
    let planes = engine
        .moduli()
        .moduli()
        .iter()
        .map(|&m| {
            let mut plane = ResiduePlane::zeroed(packed.mantissas().len(), m, config.group_size());
            plane.write_run(0, packed.mantissas(), m, u64::MAX);
            plane
        })
        .collect();
    (planes, packed.scale_exps().to_vec())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--test");
    let reps = |n: usize| if smoke { 1 } else { n };
    let config = BfpConfig::mirage_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(4096);
    let a = Tensor::randn(&[M, K], 1.0, &mut rng);
    let b = Tensor::randn(&[K, N], 1.0, &mut rng);

    let mut rows = Vec::new();
    let mut json = Vec::new();
    let mut record =
        |kernel: &str, workload: String, simd_label: &str, legacy: Duration, packed: Duration| {
            let speedup = legacy.as_secs_f64() / packed.as_secs_f64();
            rows.push(vec![
                kernel.to_string(),
                workload.clone(),
                format!("{:.3}", ms(legacy)),
                format!("{:.3}", ms(packed)),
                format!("{speedup:.2}x"),
                simd_label.to_string(),
                "yes".into(),
            ]);
            json.push(vec![
                JsonField::Str("kernel", kernel.to_string()),
                JsonField::Str("workload", workload),
                JsonField::Num("legacy_ms", ms(legacy)),
                JsonField::Num("packed_ms", ms(packed)),
                JsonField::Num("speedup", speedup),
                JsonField::Str("simd", simd_label.to_string()),
                JsonField::Num("threads", 1.0),
            ]);
        };

    // ── Quantize: legacy Vec<Vec<BfpBlock>> vs packed flat buffers ───
    {
        // Bit-identity first (group by group), then the no-alloc
        // spot-check: at steady state the packed scratch never moves.
        let legacy = pr3_quantize_rows(&a, config);
        let mut scratch = PackedBfpMatrix::empty(config);
        scratch.quantize_rows_into(a.data(), M, K).unwrap();
        for (r, groups) in legacy.iter().enumerate() {
            for (gi, block) in groups.iter().enumerate() {
                assert_eq!(
                    &scratch.group_mantissas(r, gi)[..block.len()],
                    block.mantissas(),
                    "packed quantizer diverged at ({r}, {gi})"
                );
                assert_eq!(scratch.group_scale_exp(r, gi), block.scale_exp());
            }
        }
        let mantissa_ptr = scratch.mantissas().as_ptr();
        scratch.quantize_rows_into(a.data(), M, K).unwrap();
        assert_eq!(
            scratch.mantissas().as_ptr(),
            mantissa_ptr,
            "steady-state packed quantization reallocated its scratch"
        );
        let t_legacy = best_of(reps(20), || {
            black_box(pr3_quantize_rows(black_box(&a), config));
        });
        let t_packed = best_of(reps(20), || {
            scratch
                .quantize_rows_into(black_box(a.data()), M, K)
                .unwrap();
            black_box(scratch.mantissas().len());
        });
        record(
            "quantize",
            format!("{M}x{K} rows"),
            "off",
            t_legacy,
            t_packed,
        );
    }

    // ── Group-dot: BfpBlock::dot chains vs flat slice dots ───────────
    {
        let xa = BfpEngine::quantize_rows(&a, config);
        let xb = BfpEngine::quantize_cols(&b, config).expect("rank-2");
        let pa = BfpEngine::pack_rows(&a, config);
        let pb = BfpEngine::pack_cols(&b, config).unwrap();
        // One full row×col sweep of group dots per rep.
        let t_legacy = best_of(reps(5), || {
            let mut acc = 0.0f32;
            for arow in &xa {
                for bcol in &xb {
                    for (ga, gb) in arow.iter().zip(bcol) {
                        let d = ga.dot(gb).unwrap();
                        acc += (d.integer as f64 * (d.scale_exp as f64).exp2()) as f32;
                    }
                }
            }
            black_box(acc);
        });
        let t_packed = best_of(reps(5), || {
            let mut acc = 0.0f32;
            for i in 0..M {
                for j in 0..N {
                    acc += pa.dot_rows(i, &pb, j);
                }
            }
            black_box(acc);
        });
        record(
            "group-dot sweep",
            format!("{M}x{N} dots of k={K}"),
            "off",
            t_legacy,
            t_packed,
        );
    }

    // ── BFP GEMM: packed engine vs legacy block path ─────────────────
    // Pinned to the scalar kernel so this row keeps measuring the PR 4
    // layout gain; the SIMD gain gets its own row below.
    {
        let engine = BfpEngine::new(config).with_simd_policy(SimdPolicy::Off);
        let packed_out = engine.gemm(&a, &b).unwrap();
        let legacy_out = legacy_bfp_gemm(&a, &b, config);
        assert_eq!(
            packed_out.data(),
            legacy_out.data(),
            "packed BFP GEMM diverged from the legacy block path"
        );
        let t_legacy = best_of(reps(5), || {
            black_box(legacy_bfp_gemm(black_box(&a), black_box(&b), config));
        });
        let t_packed = best_of(reps(5), || {
            black_box(engine.gemm(black_box(&a), black_box(&b)).unwrap());
        });
        record(
            "bfp gemm",
            format!("{M}x{K}x{N}"),
            "off",
            t_legacy,
            t_packed,
        );
    }

    // ── RNS-BFP GEMM: packed residue planes vs legacy groups ─────────
    {
        let engine = RnsBfpEngine::with_min_special_set(config)
            .unwrap()
            .with_simd_policy(SimdPolicy::Off);
        let packed_out = engine.gemm(&a, &b).unwrap();
        let legacy_out = legacy_rns_gemm(&a, &b, &engine);
        assert_eq!(
            packed_out.data(),
            legacy_out.data(),
            "packed RNS-BFP GEMM diverged from the legacy group path"
        );
        let t_legacy = best_of(reps(3), || {
            black_box(legacy_rns_gemm(black_box(&a), black_box(&b), &engine));
        });
        let t_packed = best_of(reps(3), || {
            black_box(engine.gemm(black_box(&a), black_box(&b)).unwrap());
        });
        record(
            "rns-bfp gemm",
            format!("{M}x{K}x{N}"),
            "off",
            t_legacy,
            t_packed,
        );
    }

    // ── SIMD GEMM: explicit-SIMD kernels vs scalar packed kernels ────
    // The "legacy" side here is the scalar packed kernel the rows above
    // just measured. Bit-identity between the tiers is the contract and
    // is asserted element-exact before any timing; the two sides are
    // then timed as order-balanced back-to-back pairs
    // (`paired_speedup`), so host drift cancels in the ratio.
    let tier = simd::resolve_tier(SimdPolicy::Auto).label();
    let rounds = if smoke { 2 } else { 30 };
    let mut record_simd = |kernel: &str, workload: String, r: PairedSpeedup| {
        rows.push(vec![
            kernel.to_string(),
            workload.clone(),
            format!("{:.3}", r.baseline_s * 1e3),
            format!("{:.3}", r.candidate_s * 1e3),
            format!("{:.2}x", r.speedup),
            tier.to_string(),
            "yes".into(),
        ]);
        json.push(vec![
            JsonField::Str("kernel", kernel.to_string()),
            JsonField::Str("workload", workload),
            JsonField::Num("legacy_ms", r.baseline_s * 1e3),
            JsonField::Num("packed_ms", r.candidate_s * 1e3),
            JsonField::Num("speedup", r.speedup),
            JsonField::Str("simd", tier.to_string()),
            JsonField::Num("threads", 1.0),
            JsonField::Num("pairs_kept", r.kept as f64),
        ]);
    };
    // The BFP panel kernel at the 64×256×256 training shape and the two
    // `serve-bfp-ff768` feed-forward shapes: one row (a lone request)
    // and a full stacked batch of 32.
    for (bm, bk, bn) in [(M, K, N), (1, 768, 3072), (32, 768, 3072)] {
        let x = Tensor::randn(&[bm, bk], 1.0, &mut rng);
        let w = Tensor::randn(&[bk, bn], 1.0, &mut rng);
        let scalar = BfpEngine::new(config).with_simd_policy(SimdPolicy::Off);
        let vector = BfpEngine::new(config); // SimdPolicy::Auto
        let prepared_scalar = scalar.prepare(&w).unwrap();
        let prepared_vector = vector.prepare(&w).unwrap();
        assert_same_bits(
            &scalar.gemm_prepared(&x, &prepared_scalar).unwrap(),
            &vector.gemm_prepared(&x, &prepared_vector).unwrap(),
            "SIMD BFP GEMM diverged from the scalar panel kernel",
        );
        let r = paired_speedup(
            rounds,
            reps(if bm == 1 { 16 } else { 2 }),
            || {
                black_box(
                    vector
                        .gemm_prepared(black_box(&x), &prepared_vector)
                        .unwrap(),
                );
            },
            || {
                black_box(
                    scalar
                        .gemm_prepared(black_box(&x), &prepared_scalar)
                        .unwrap(),
                );
            },
        );
        record_simd("bfp gemm (simd)", format!("{bm}x{bk}x{bn}"), r);
    }
    {
        let scalar = RnsBfpEngine::with_min_special_set(config)
            .unwrap()
            .with_simd_policy(SimdPolicy::Off);
        let vector = RnsBfpEngine::with_min_special_set(config).unwrap();
        let prepared_scalar = scalar.prepare(&b).unwrap();
        let prepared_vector = vector.prepare(&b).unwrap();
        assert_same_bits(
            &scalar.gemm_prepared(&a, &prepared_scalar).unwrap(),
            &vector.gemm_prepared(&a, &prepared_vector).unwrap(),
            "SIMD RNS-BFP GEMM diverged from the scalar packed kernel",
        );
        let r = paired_speedup(
            rounds,
            reps(2),
            || {
                black_box(
                    vector
                        .gemm_prepared(black_box(&a), &prepared_vector)
                        .unwrap(),
                );
            },
            || {
                black_box(
                    scalar
                        .gemm_prepared(black_box(&a), &prepared_scalar)
                        .unwrap(),
                );
            },
        );
        record_simd("rns-bfp gemm (simd)", format!("{M}x{K}x{N}"), r);
    }
    // The training backward shape (dW = Xᵀ·dY at batch 64 over a
    // 256-wide layer) on the unprepared path: both operands are
    // quantized and forward-converted every call, as in a training step.
    {
        let (tm, tk, tn) = (256, 64, 256);
        let xt = Tensor::randn(&[tm, tk], 1.0, &mut rng);
        let dy = Tensor::randn(&[tk, tn], 1.0, &mut rng);
        let scalar = RnsBfpEngine::with_min_special_set(config)
            .unwrap()
            .with_simd_policy(SimdPolicy::Off);
        let vector = RnsBfpEngine::with_min_special_set(config).unwrap();
        assert_same_bits(
            &scalar.gemm(&xt, &dy).unwrap(),
            &vector.gemm(&xt, &dy).unwrap(),
            "SIMD RNS-BFP unprepared GEMM diverged from the scalar kernel",
        );
        let r = paired_speedup(
            rounds,
            reps(2),
            || {
                black_box(vector.gemm(black_box(&xt), black_box(&dy)).unwrap());
            },
            || {
                black_box(scalar.gemm(black_box(&xt), black_box(&dy)).unwrap());
            },
        );
        record_simd(
            "rns-bfp gemm (simd, unprepared)",
            format!("{tm}x{tk}x{tn}"),
            r,
        );
    }

    // One-pass packing: the B side quantized and forward-converted
    // straight from `B`'s row-major storage into residue planes, against
    // the transpose → i32 buffer → per-channel reduce pipeline it
    // replaced. The prepared and unprepared GEMMs through the one-pass
    // packer are asserted bit-identical to the legacy group oracle.
    {
        let engine = RnsBfpEngine::with_min_special_set(config).unwrap();
        let legacy_out = legacy_rns_gemm(&a, &b, &engine);
        let prepared = engine.prepare(&b).unwrap();
        assert_same_bits(
            &legacy_out,
            &engine.gemm_prepared(&a, &prepared).unwrap(),
            "one-pass B packing diverged from the legacy RNS-BFP path",
        );
        assert_same_bits(
            &legacy_out,
            &engine.gemm(&a, &b).unwrap(),
            "one-pass unprepared RNS-BFP GEMM diverged from the legacy path",
        );
        let r = paired_speedup(
            rounds,
            reps(4),
            || {
                black_box(engine.prepare(black_box(&b)).unwrap());
            },
            || {
                black_box(legacy_rns_pack_cols(black_box(&b), &engine));
            },
        );
        record_simd("rns-bfp pack_cols", format!("{K}x{N}"), r);
        let r = paired_speedup(
            rounds,
            reps(2),
            || {
                black_box(engine.gemm(black_box(&a), black_box(&b)).unwrap());
            },
            || {
                black_box(legacy_rns_pack_cols(black_box(&b), &engine));
                black_box(engine.gemm_prepared(black_box(&a), &prepared).unwrap());
            },
        );
        record_simd(
            "rns-bfp gemm (unprepared, one-pass packing)",
            format!("{M}x{K}x{N}"),
            r,
        );
    }

    // RRNS protection over the same fused residue pipeline: the
    // protected engine (base {31, 32, 33} + redundant {37, 41}) against
    // unprotected SIMD RNS-BFP on prepared weights, clean and with a
    // 1e-5 residue-flip injector armed. Here `legacy_ms` is the
    // unprotected baseline, `packed_ms` the protected candidate, and
    // `overhead` their ratio (the channel ratio 5/3 is the floor).
    for (rm, rk, rn) in [(1, 96, 384), (M, K, N)] {
        let x = Tensor::randn(&[rm, rk], 1.0, &mut rng);
        let w = Tensor::randn(&[rk, rn], 1.0, &mut rng);
        let unprotected = RnsBfpEngine::with_min_special_set(config).unwrap();
        let prepared_unprotected = unprotected.prepare(&w).unwrap();
        let want = unprotected
            .gemm_prepared(&x, &prepared_unprotected)
            .unwrap();
        for rate in [0.0, 1e-5] {
            let injector = Arc::new(FaultInjector::new(
                FaultConfig::disabled(11).with_residue_flip_rate(rate),
            ));
            let protected = ProtectedRnsBfpEngine::with_min_special_set(config)
                .unwrap()
                .with_injector(injector);
            let prepared_protected = protected.prepare(&w).unwrap();
            // Corrected flips leave the output bit-identical; an
            // uncorrectable call (two flips in one group) is refused.
            if let Ok(got) = protected.gemm_prepared(&x, &prepared_protected) {
                assert_same_bits(&want, &got, "protected GEMM diverged from RNS-BFP");
            }
            let r = paired_speedup(
                rounds,
                reps(if rm == 1 { 64 } else { 2 }),
                || {
                    let _ = black_box(protected.gemm_prepared(black_box(&x), &prepared_protected));
                },
                || {
                    black_box(
                        unprotected
                            .gemm_prepared(black_box(&x), &prepared_unprotected)
                            .unwrap(),
                    );
                },
            );
            let label = if rate == 0.0 { "clean" } else { "armed 1e-5" };
            let workload = format!("{rm}x{rk}x{rn} {label}");
            rows.push(vec![
                "rrns gemm (simd)".into(),
                workload.clone(),
                format!("{:.3}", r.baseline_s * 1e3),
                format!("{:.3}", r.candidate_s * 1e3),
                format!("{:.2}x", r.speedup),
                tier.to_string(),
                "yes".into(),
            ]);
            json.push(vec![
                JsonField::Str("kernel", "rrns gemm (simd)".into()),
                JsonField::Str("workload", workload),
                JsonField::Num("legacy_ms", r.baseline_s * 1e3),
                JsonField::Num("packed_ms", r.candidate_s * 1e3),
                JsonField::Num("speedup", r.speedup),
                JsonField::Num("overhead", 1.0 / r.speedup),
                JsonField::Num("flip_rate", rate),
                JsonField::Str("simd", tier.to_string()),
                JsonField::Num("threads", 1.0),
                JsonField::Num("pairs_kept", r.kept as f64),
            ]);
        }
    }

    print_table(
        "Packed vs legacy kernels — single thread",
        &[
            "kernel",
            "workload",
            "baseline (ms)",
            "new (ms)",
            "speedup",
            "simd",
            "bit-identical",
        ],
        &rows,
    );
    println!("\nAll packed results are asserted bit-identical to the legacy");
    println!("block-path kernels before timing, and the SIMD rows are asserted");
    println!("bit-identical to the scalar packed kernels. Acceptance floors");
    println!("(single thread, 64x256x256): >= 3x packed-vs-legacy for BFP,");
    println!(">= 2x for RNS-BFP, and >= 1.5x SIMD-vs-scalar on both.");

    if smoke {
        println!("\n--test smoke mode: timings above are single-shot; JSON skipped.");
        return;
    }
    write_summary(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json"),
        "kernel_microbench",
        &json,
    );
}
