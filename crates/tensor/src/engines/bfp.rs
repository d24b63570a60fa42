//! Mirage's BFP-quantized GEMM engine.

use super::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::{Result, Tensor, TensorError};
use mirage_bfp::{
    BfpBlock, BfpConfig, BfpPanels, GemmTail, NarrowRows, PackedBfpMatrix, SimdPolicy,
};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// This thread's A-side row buffer: [`BfpEngine`] re-quantizes each
    /// call's activations into the same allocation, so a serving
    /// thread's steady state packs `A` without touching the allocator.
    static A_ROWS: RefCell<Option<NarrowRows>> = const { RefCell::new(None) };
}

/// BFP GEMM: operands are quantized group-by-group along the reduction
/// dimension; each group dot product is exact integer arithmetic with a
/// shared-exponent scale, and groups accumulate in FP32.
///
/// This mirrors the paper's accuracy model exactly (§V-A): "in an MVM
/// operation with BFP values, the input vector and each row of the weight
/// tile represent a group", and "the partial outputs are accumulated" in
/// FP32 (Fig. 2, step 9). The RNS/moduli choice has no accuracy effect as
/// long as Eq. 13 holds, so this engine omits the residue round trip —
/// [`super::RnsBfpEngine`] keeps it and is verified bit-identical.
///
/// Tile-invariant: quantization groups run along the reduction dimension
/// of individual rows (of `A`) and columns (of `B`), so
/// [`crate::parallel::ParallelGemm`] reproduces this engine bit-exactly
/// under row/column tiling — the determinism regression tests enforce it.
///
/// ```
/// use mirage_tensor::{Tensor, GemmEngine, engines::{BfpEngine, ExactEngine}};
/// use mirage_bfp::BfpConfig;
///
/// let engine = BfpEngine::new(BfpConfig::mirage_default()); // bm=4, g=16
/// let a = Tensor::from_vec(vec![0.5, -0.25, 1.0, 0.125], &[2, 2])?;
/// let b = Tensor::from_vec(vec![1.0, 0.5, -0.5, 0.25], &[2, 2])?;
/// let c = engine.gemm(&a, &b)?;
/// assert!(c.allclose(&ExactEngine.gemm(&a, &b)?, 0.1));
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BfpEngine {
    config: BfpConfig,
    simd: SimdPolicy,
}

impl BfpEngine {
    /// Creates an engine for the given BFP operating point. SIMD
    /// dispatch defaults to [`SimdPolicy::Auto`] (runtime detection,
    /// gated by the `MIRAGE_SIMD` environment knob).
    pub fn new(config: BfpConfig) -> Self {
        BfpEngine {
            config,
            simd: SimdPolicy::default(),
        }
    }

    /// Returns a copy with the given per-instance SIMD policy. The
    /// effective tier is the narrower of this policy and the
    /// process-wide `MIRAGE_SIMD` setting — every tier is bit-identical
    /// to every other, so this only affects speed (and lets tests and
    /// benches diff tiers in one process).
    pub fn with_simd_policy(mut self, simd: SimdPolicy) -> Self {
        self.simd = simd;
        self
    }

    /// This instance's SIMD policy.
    pub fn simd_policy(&self) -> SimdPolicy {
        self.simd
    }

    /// The configured BFP operating point.
    pub fn config(&self) -> BfpConfig {
        self.config
    }

    /// Quantizes the rows of a matrix into one flat `i32` buffer — the
    /// layout device models and the `dot_rows` oracle read. Groups run
    /// along the reduction (column) dimension exactly like
    /// [`BfpEngine::quantize_rows`]; the packed form is bit-identical
    /// group by group (see [`PackedBfpMatrix`]).
    pub fn pack_rows(t: &Tensor, config: BfpConfig) -> PackedBfpMatrix {
        let (rows, k) = (t.shape()[0], t.shape()[1]);
        PackedBfpMatrix::quantize_rows(t.data(), rows, k, config)
            .expect("tensor data length matches its shape")
    }

    /// Packs the columns of `B` (groups along the reduction dimension,
    /// one packed row per column) into a flat `i32` buffer in one pass
    /// over `B`'s row-major storage — no transpose
    /// ([`PackedBfpMatrix::quantize_cols`]). The GEMMs themselves read
    /// `B` as [`BfpPanels`] ([`BfpEngine::pack_panels`]).
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn pack_cols(b: &Tensor, config: BfpConfig) -> Result<PackedBfpMatrix> {
        b.require_rank(2)?;
        let (k, n) = (b.shape()[0], b.shape()[1]);
        Ok(PackedBfpMatrix::quantize_cols(b.data(), k, n, config)?)
    }

    /// Packs the columns of `B` into the narrow 8-column panels every
    /// BFP GEMM reads — the one representation of a prepared weight,
    /// shared by [`BfpEngine::gemm`] and [`GemmEngine::prepare`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn pack_panels(b: &Tensor, config: BfpConfig) -> Result<BfpPanels> {
        b.require_rank(2)?;
        let (k, n) = (b.shape()[0], b.shape()[1]);
        Ok(BfpPanels::pack_cols(b.data(), k, n, config)?)
    }

    /// Quantizes the rows of a matrix into BFP groups along the reduction
    /// (column) dimension. Returns `rows × ceil(k/g)` blocks, row-major.
    ///
    /// This is the **reference** (legacy) representation: the packed
    /// kernels are verified bit-identical against it, and device models
    /// that want one heap object per group still consume it.
    pub fn quantize_rows(t: &Tensor, config: BfpConfig) -> Vec<Vec<BfpBlock>> {
        let cols = t.shape()[1];
        let g = config.group_size();
        (0..t.shape()[0])
            .map(|r| {
                let row = &t.data()[r * cols..(r + 1) * cols];
                row.chunks(g)
                    .map(|chunk| BfpBlock::quantize(chunk, config))
                    .collect()
            })
            .collect()
    }

    /// Quantizes the columns of `B` (groups along the reduction
    /// dimension) — the B-side half of [`BfpEngine::gemm`], shared by
    /// [`GemmEngine::prepare`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn quantize_cols(b: &Tensor, config: BfpConfig) -> Result<Vec<Vec<BfpBlock>>> {
        Ok(Self::quantize_rows(&b.transpose2d()?, config))
    }

    /// The shared GEMM: packs the rows of `A` (into this thread's
    /// reused `A_ROWS` buffer) and runs the panel kernel
    /// ([`mirage_bfp::simd::gemm_panels_into`]) against a column window
    /// of `B`'s panels, writing into a caller buffer. Returns `m`.
    ///
    /// An optional fused [`GemmTail`] folds bias/ReLU into the
    /// accumulator registers right before each output store, in both
    /// the SIMD and scalar kernels — zero extra passes, bit-identical to
    /// running the separate sweeps afterwards (an `f32` store
    /// round-trips exactly and the fold uses the identical `+` /
    /// `max(0.0)` chain per lane).
    // mirage-lint: no_alloc
    fn gemm_panels_into(
        &self,
        a: &Tensor,
        panels: &BfpPanels,
        col_start: usize,
        n: usize,
        tail: GemmTail<'_>,
        out: &mut Vec<f32>,
    ) -> Result<usize> {
        let (m, k) = (a.shape()[0], a.shape()[1]);
        if panels.k() != k {
            return Err(TensorError::DimMismatch {
                left: k,
                right: panels.k(),
            });
        }
        A_ROWS.with(|slot| {
            let mut slot = slot.borrow_mut();
            let rows = match slot.take() {
                Some(rows) if rows.config() == self.config => slot.insert(rows),
                _ => slot.insert(NarrowRows::empty(self.config)),
            };
            rows.pack_into(a.data(), m, k)?;
            let tier = mirage_bfp::simd::resolve_tier(self.simd);
            mirage_bfp::simd::gemm_panels_into(tier, rows, panels, col_start, n, tail, out)?;
            Ok(m)
        })
    }
}

impl GemmEngine for BfpEngine {
    fn name(&self) -> &'static str {
        "mirage-bfp"
    }

    /// `true`: BFP groups run along the reduction dimension of single
    /// rows (`A`) / columns (`B`), so tile membership cannot change any
    /// shared exponent.
    fn tile_invariant(&self) -> bool {
        true
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (_m, _k, n) = gemm_dims(a, b)?;
        // Group along k: rows of A and the columns of B, as panels.
        let panels = Self::pack_panels(b, self.config)?;
        let mut out = Vec::new();
        let m = self.gemm_panels_into(a, &panels, 0, n, GemmTail::none(), &mut out)?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Packs the columns of `B` into narrow panels exactly once: the
    /// panels are the whole prepared state.
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        let panels = Self::pack_panels(b, self.config)?;
        PreparedRhs::new(self.name(), b, Arc::new(panels))
    }

    /// Reuses the pre-packed columns — only the rows of `A` touch the
    /// quantizer — and folds the bias/ReLU parts of the epilogue into
    /// the kernel's output write (see [`GemmTail`]): the accumulator is
    /// still in registers when the tail applies, so the fused step
    /// costs zero extra passes over the activation. Residual epilogues
    /// run as one pass after the kernel, bit-identically. Preparations
    /// from other engines or at another [`BfpConfig`] are
    /// [`TensorError::ForeignPreparation`].
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let (_m, _k, n) = b.dims(a)?;
        // Same shape contract `Epilogue::apply` enforces, checked up
        // front so the fused and unfused paths reject identically.
        if let Some(bias) = epilogue.bias() {
            if bias.len() != n {
                return Err(TensorError::DimMismatch {
                    left: bias.len(),
                    right: n,
                });
            }
        }
        let panels = b.state_for(self.name(), |panels: &BfpPanels| {
            panels.config() == self.config
        })?;
        let fused = epilogue.residual().is_none();
        let tail = if fused {
            GemmTail {
                bias: epilogue.bias(),
                relu: epilogue.relu(),
            }
        } else {
            GemmTail::none()
        };
        let m = self.gemm_panels_into(a, panels, b.col_start(), n, tail, out)?;
        if !fused {
            epilogue.apply(out, m, n)?;
        }
        Ok((m, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::ExactEngine;
    use rand::SeedableRng;

    #[test]
    fn high_precision_bfp_matches_exact() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let a = Tensor::randn(&[8, 32], 1.0, &mut rng);
        let b = Tensor::randn(&[32, 8], 1.0, &mut rng);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let bfp = BfpEngine::new(BfpConfig::new(16, 16).unwrap())
            .gemm(&a, &b)
            .unwrap();
        assert!(bfp.allclose(&exact, 1e-3));
    }

    #[test]
    fn mirage_default_error_is_moderate() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a = Tensor::randn(&[16, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 16], 1.0, &mut rng);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let bfp = BfpEngine::new(BfpConfig::mirage_default())
            .gemm(&a, &b)
            .unwrap();
        // bm = 4 over g = 16 groups: relative error a few percent of the
        // output scale.
        let scale = exact.max_abs();
        let err = bfp.sub(&exact).unwrap().max_abs();
        assert!(err < 0.25 * scale, "err = {err}, scale = {scale}");
        assert!(err > 0.0, "bm=4 should not be exact on random data");
    }

    #[test]
    fn lower_bm_is_worse() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let a = Tensor::randn(&[8, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 8], 1.0, &mut rng);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let err = |bm: u32| {
            BfpEngine::new(BfpConfig::new(bm, 16).unwrap())
                .gemm(&a, &b)
                .unwrap()
                .sub(&exact)
                .unwrap()
                .max_abs()
        };
        assert!(err(3) > err(5));
        assert!(err(5) > err(8));
    }

    #[test]
    fn tail_groups_handled() {
        // k = 19 is not a multiple of g = 16: the tail group has 3 elems.
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let a = Tensor::randn(&[3, 19], 1.0, &mut rng);
        let b = Tensor::randn(&[19, 5], 1.0, &mut rng);
        let c = BfpEngine::new(BfpConfig::mirage_default())
            .gemm(&a, &b)
            .unwrap();
        assert_eq!(c.shape(), &[3, 5]);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let err = c.sub(&exact).unwrap().max_abs();
        assert!(err < 0.3 * exact.max_abs(), "err = {err}");
    }

    #[test]
    fn shape_errors_propagate() {
        let e = BfpEngine::new(BfpConfig::mirage_default());
        assert!(e
            .gemm(&Tensor::zeros(&[2, 3]), &Tensor::zeros(&[4, 2]))
            .is_err());
        let p = e.prepare(&Tensor::zeros(&[4, 2])).unwrap();
        assert!(e.gemm_prepared(&Tensor::zeros(&[2, 3]), &p).is_err());
    }

    #[test]
    fn prepared_is_bit_identical_and_reusable() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let e = BfpEngine::new(BfpConfig::mirage_default());
        let b = Tensor::randn(&[50, 12], 1.0, &mut rng);
        let prepared = e.prepare(&b).unwrap();
        for _ in 0..3 {
            let a = Tensor::randn(&[7, 50], 1.0, &mut rng);
            assert_eq!(
                e.gemm_prepared(&a, &prepared).unwrap().data(),
                e.gemm(&a, &b).unwrap().data()
            );
        }
    }

    /// The legacy block-path GEMM, kept in tests as the oracle for the
    /// flat kernel: `Vec<Vec<BfpBlock>>` chains dotted group by group.
    /// (A sibling copy in `tests/parallel_determinism.rs` pins the same
    /// oracle across the parallel × prepared × batch grid — keep them
    /// in sync; the oracle is frozen legacy semantics.)
    fn legacy_block_gemm(a: &Tensor, b: &Tensor, config: BfpConfig) -> Tensor {
        let (m, n) = (a.shape()[0], b.shape()[1]);
        let a_rows = BfpEngine::quantize_rows(a, config);
        let b_cols = BfpEngine::quantize_cols(b, config).unwrap();
        let mut out = vec![0.0f32; m * n];
        for (i, arow) in a_rows.iter().enumerate() {
            for (j, bcol) in b_cols.iter().enumerate() {
                let mut acc = 0.0f32;
                for (ga, gb) in arow.iter().zip(bcol) {
                    acc += ga.dot(gb).unwrap().to_f32();
                }
                out[i * n + j] = acc;
            }
        }
        Tensor::from_vec(out, &[m, n]).unwrap()
    }

    #[test]
    fn flat_kernel_is_bit_identical_to_legacy_blocks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        for config in [BfpConfig::mirage_default(), BfpConfig::new(8, 4).unwrap()] {
            let engine = BfpEngine::new(config);
            for (m, k, n) in [(1, 1, 1), (3, 19, 5), (8, 64, 8), (5, 33, 37), (2, 50, 70)] {
                let a = Tensor::randn(&[m, k], 1.0, &mut rng);
                let b = Tensor::randn(&[k, n], 1.0, &mut rng);
                let flat = engine.gemm(&a, &b).unwrap();
                let legacy = legacy_block_gemm(&a, &b, config);
                assert_eq!(flat.data(), legacy.data(), "{m}x{k}x{n} {config}");
            }
        }
    }

    #[test]
    fn column_windows_share_the_packed_buffer() {
        crate::engines::prepared::check_column_windows(
            &BfpEngine::new(BfpConfig::mirage_default()),
        );
    }
}
