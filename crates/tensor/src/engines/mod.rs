//! Pluggable GEMM engines modelling different hardware arithmetic.
//!
//! Every engine computes `C = A · B` for rank-2 tensors `A: (m, k)` and
//! `B: (k, n)`, differing only in the arithmetic applied to operands and
//! accumulations. Swapping engines inside the training loop is exactly
//! how the paper models accuracy (§V-A): "we swapped each GEMM operation
//! with our customized BFP versions".

mod analog;
mod bfp;
mod epilogue;
mod exact;
mod formats;
mod prepared;
mod protected_rns;
mod rns_bfp;
mod stochastic;

pub use analog::AnalogFxpEngine;
pub use bfp::BfpEngine;
pub use epilogue::Epilogue;
pub use exact::ExactEngine;
pub use formats::{Bf16Engine, Hfp8Engine, IntEngine};
pub use prepared::PreparedRhs;
pub use protected_rns::ProtectedRnsBfpEngine;
pub use rns_bfp::RnsBfpEngine;
pub use stochastic::StochasticBfpEngine;

use crate::parallel::{ParallelGemm, TileConfig};
use crate::{Result, Tensor, TensorError};
use std::sync::Arc;

/// A matrix-multiplication backend.
///
/// Implementors are `Send + Sync` so training loops can share them across
/// threads, and any engine can be lifted onto the tiled multi-threaded
/// execution layer with [`GemmEngine::parallel`]:
///
/// ```
/// use mirage_tensor::{Tensor, GemmEngine, engines::ExactEngine};
///
/// let a = Tensor::full(&[64, 48], 0.25);
/// let b = Tensor::full(&[48, 64], -2.0);
/// let tiled = ExactEngine.parallel(); // auto tile + thread heuristic
/// assert_eq!(
///     tiled.gemm(&a, &b)?.data(),
///     ExactEngine.gemm(&a, &b)?.data(), // bit-identical to serial
/// );
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
pub trait GemmEngine: Send + Sync {
    /// Short human-readable name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Computes `A (m×k) · B (k×n) -> C (m×n)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless both operands are
    /// rank-2, and [`TensorError::DimMismatch`] when inner dimensions
    /// differ. Engines may propagate their own arithmetic errors.
    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor>;

    /// Whether each output element depends only on its own row of `A`
    /// and column of `B`, so that partitioning the output over row bands
    /// and column tiles reproduces the serial result **bit-exactly**.
    ///
    /// Defaults to `false` — the conservative choice: a new engine is
    /// never tiled until its author audits the quantization state and
    /// opts in, so [`ParallelGemm`] can at worst lose parallelism, never
    /// silently change results. Override to `true` only when all
    /// quantization state is per-row (`A`) / per-column (`B`) /
    /// per-element; whole-matrix state (analog ADC full-scale) or
    /// absolute-position state (stochastic rounding seeds) must stay
    /// `false`.
    fn tile_invariant(&self) -> bool {
        false
    }

    /// Prepares a right-hand side matrix for repeated use with
    /// [`GemmEngine::gemm_prepared`] — the one-time weight-preparation
    /// step of every production GEMM library.
    ///
    /// Quantizing engines override this to do their B-side work
    /// (quantize BFP groups, pre-convert RNS residues) exactly once and
    /// keep only that state. The default implementation validates the
    /// raw matrix and keeps it *as* the state — a stateless engine's one
    /// representation — so every engine supports the prepared API out
    /// of the box. Only the preparing engine consumes the result.
    ///
    /// **Contract:** for any engine, `gemm_prepared(a, &prepare(b)?)`
    /// must be **bit-identical** to `gemm(a, b)` — preparation is a
    /// caching transformation, never a numerical one. The determinism
    /// regression tests enforce this for the exact, BFP and RNS-BFP
    /// engines.
    ///
    /// ```
    /// use mirage_tensor::{Tensor, GemmEngine, engines::BfpEngine};
    /// use mirage_bfp::BfpConfig;
    ///
    /// let engine = BfpEngine::new(BfpConfig::mirage_default());
    /// let weight = Tensor::full(&[32, 8], 0.75);
    /// let prepared = engine.prepare(&weight)?; // quantize B once…
    /// for step in 0..3 {
    ///     let x = Tensor::full(&[4, 32], step as f32 * 0.5);
    ///     // …and reuse it: bit-identical to engine.gemm(&x, &weight).
    ///     let y = engine.gemm_prepared(&x, &prepared)?;
    ///     assert_eq!(y.data(), engine.gemm(&x, &weight)?.data());
    /// }
    /// # Ok::<(), mirage_tensor::TensorError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `b` is rank-2;
    /// engines may propagate their own preparation errors.
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        PreparedRhs::from_raw(self.name(), b)
    }

    /// The column window `[c0, c0 + width)` of a prepared weight:
    /// `Ok(Some(whole.cols(c0, width)?))`. Slicing belongs to
    /// [`PreparedRhs::cols`] and no engine in the workspace overrides
    /// this; the method stays only so decorators outside the workspace
    /// that forward it keep compiling.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimMismatch`] when the slice exceeds the
    /// prepared matrix width.
    fn prepare_tile(
        &self,
        whole: &PreparedRhs,
        c0: usize,
        width: usize,
    ) -> Result<Option<PreparedRhs>> {
        Ok(Some(whole.cols(c0, width)?))
    }

    /// Computes `A · B` against a [`PreparedRhs`], reusing its cached
    /// B-side state instead of re-deriving it.
    ///
    /// Bit-identical to [`GemmEngine::gemm`] on the matrix the value was
    /// prepared from (see the contract on [`GemmEngine::prepare`]). A
    /// preparation this engine did not make — produced by a different
    /// engine or a differently-configured instance — is rejected with
    /// [`TensorError::ForeignPreparation`]: it carries no representation
    /// this engine could compute from.
    ///
    /// Routes through [`GemmEngine::gemm_prepared_into`] into a fresh
    /// buffer; engines implement the primitive
    /// [`GemmEngine::gemm_prepared_epilogue_into`], not this.
    ///
    /// # Errors
    ///
    /// Returns the same shape-validation errors as [`GemmEngine::gemm`]
    /// ([`PreparedRhs::dims`]) and [`TensorError::ForeignPreparation`];
    /// engines may propagate their own arithmetic errors.
    fn gemm_prepared(&self, a: &Tensor, b: &PreparedRhs) -> Result<Tensor> {
        let mut out = Vec::new();
        let (m, n) = self.gemm_prepared_into(a, b, &mut out)?;
        Tensor::from_vec(out, &[m, n])
    }

    /// [`GemmEngine::gemm_prepared`] with an out-parameter: writes the
    /// `m × n` result row-major into `out` (cleared first) and returns
    /// `(m, n)`. Serving loops pass a recycled buffer from a
    /// [`crate::scratch::ActivationScratch`] so steady-state inference
    /// reuses the same allocations request after request.
    ///
    /// Routes through [`GemmEngine::gemm_prepared_epilogue_into`] with
    /// [`Epilogue::none`].
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`GemmEngine::gemm_prepared`].
    fn gemm_prepared_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        self.gemm_prepared_epilogue_into(a, b, &Epilogue::none(), out)
    }

    /// **The prepared-GEMM primitive**: `A · B` against a
    /// [`PreparedRhs`], written into `out`, then a fused [`Epilogue`]
    /// (bias/residual/ReLU) in **one** pass over the still-hot buffer
    /// instead of separate whole-activation sweeps. Compiled plans use
    /// this to collapse `dense → relu` step pairs; every other prepared
    /// entry point routes here, so an engine with prepared state
    /// overrides this method alone.
    ///
    /// **Bit-identity contract:** the result equals the GEMM followed by
    /// each epilogue operation as its own sweep — the epilogue is
    /// elementwise and applied in the same fixed order (bias, residual,
    /// ReLU) with the same scalar expressions, so fusion changes
    /// traversal, never arithmetic.
    ///
    /// The default runs `gemm` on the raw matrix the default
    /// [`GemmEngine::prepare`] kept, copies the result into `out` and
    /// applies the epilogue ([`gemm_raw_into`]) — the whole prepared
    /// surface for stateless engines. Engines that override `prepare`
    /// override this too.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`GemmEngine::gemm_prepared`], plus
    /// [`TensorError::DimMismatch`] when an epilogue operand disagrees
    /// with the output shape.
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        gemm_raw_into(self, a, b, epilogue, out)
    }

    /// Lifts the engine onto the tiled multi-threaded driver with the
    /// automatic tile/thread heuristic ([`TileConfig::auto`]).
    fn parallel(self) -> ParallelGemm<Self>
    where
        Self: Sized,
    {
        ParallelGemm::auto(self)
    }

    /// Lifts the engine onto the tiled multi-threaded driver with an
    /// explicit [`TileConfig`].
    fn parallel_with(self, config: TileConfig) -> ParallelGemm<Self>
    where
        Self: Sized,
    {
        ParallelGemm::new(self, config)
    }
}

/// Forwards the methods an engine may override through a smart
/// pointer; the routed prepared entry points reach the pointee's
/// primitive through the trait defaults.
macro_rules! forward_engine {
    ($ptr:ident) => {
        impl<E: GemmEngine + ?Sized> GemmEngine for $ptr<E> {
            fn name(&self) -> &'static str {
                (**self).name()
            }

            fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
                (**self).gemm(a, b)
            }

            fn tile_invariant(&self) -> bool {
                (**self).tile_invariant()
            }

            fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
                (**self).prepare(b)
            }

            fn prepare_tile(
                &self,
                whole: &PreparedRhs,
                c0: usize,
                width: usize,
            ) -> Result<Option<PreparedRhs>> {
                (**self).prepare_tile(whole, c0, width)
            }

            fn gemm_prepared_epilogue_into(
                &self,
                a: &Tensor,
                b: &PreparedRhs,
                epilogue: &Epilogue<'_>,
                out: &mut Vec<f32>,
            ) -> Result<(usize, usize)> {
                (**self).gemm_prepared_epilogue_into(a, b, epilogue, out)
            }
        }
    };
}

forward_engine!(Arc);
forward_engine!(Box);

/// The prepared-GEMM primitive of a stateless engine: `gemm` on the
/// raw matrix the default [`GemmEngine::prepare`] kept as the state,
/// copied into `out` (keeping the caller's allocation), then the
/// epilogue. The trait default of
/// [`GemmEngine::gemm_prepared_epilogue_into`].
///
/// # Errors
///
/// Returns [`TensorError::ForeignPreparation`] unless `engine` made
/// `b` with the default preparation; propagates `engine.gemm`'s errors
/// and [`Epilogue::apply`]'s shape errors.
pub fn gemm_raw_into<E: GemmEngine + ?Sized>(
    engine: &E,
    a: &Tensor,
    b: &PreparedRhs,
    epilogue: &Epilogue<'_>,
    out: &mut Vec<f32>,
) -> Result<(usize, usize)> {
    let y = engine.gemm(a, b.state_for::<Tensor>(engine.name(), |_| true)?)?;
    let (m, n) = (y.shape()[0], y.shape()[1]);
    out.clear();
    out.extend_from_slice(y.data());
    epilogue.apply(out, m, n)?;
    Ok((m, n))
}

/// Validates GEMM operand shapes, returning `(m, k, n)`.
pub(crate) fn gemm_dims(a: &Tensor, b: &Tensor) -> Result<(usize, usize, usize)> {
    for t in [a, b] {
        if t.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: t.rank(),
            });
        }
    }
    let (m, k) = (a.shape()[0], a.shape()[1]);
    let (k2, n) = (b.shape()[0], b.shape()[1]);
    if k != k2 {
        return Err(TensorError::DimMismatch { left: k, right: k2 });
    }
    Ok((m, k, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_validation() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[3, 4]);
        assert_eq!(gemm_dims(&a, &b).unwrap(), (2, 3, 4));
        let c = Tensor::zeros(&[4, 4]);
        assert!(matches!(
            gemm_dims(&a, &c),
            Err(TensorError::DimMismatch { left: 3, right: 4 })
        ));
        let d = Tensor::zeros(&[2]);
        assert!(matches!(
            gemm_dims(&d, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn engines_are_object_safe() {
        fn boxed(e: Box<dyn GemmEngine>) -> &'static str {
            e.name()
        }
        assert_eq!(boxed(Box::new(ExactEngine)), "fp32");
    }

    #[test]
    fn tile_invariance_defaults_to_false() {
        // New engines must audit their quantization state and opt in;
        // the driver never tiles an engine that hasn't.
        struct Unaudited;
        impl GemmEngine for Unaudited {
            fn name(&self) -> &'static str {
                "unaudited"
            }
            fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
                ExactEngine.gemm(a, b)
            }
        }
        assert!(!Unaudited.tile_invariant());
        // Audited engines opt in, and smart pointers delegate.
        assert!(ExactEngine.tile_invariant());
        assert!(Box::new(ExactEngine).tile_invariant());
        assert!(std::sync::Arc::new(ExactEngine).tile_invariant());
    }
}
