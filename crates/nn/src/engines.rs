//! Engine selection for forward and backward GEMMs.

use mirage_tensor::parallel::{ParallelGemm, TileConfig};
use mirage_tensor::{GemmEngine, PreparedRhs, Tensor};
use std::sync::Arc;

/// The GEMM engines used by a training run.
///
/// DNN training performs three GEMM kinds per layer (paper §II-A): the
/// forward product (Eq. 1), the input-gradient product (Eq. 2) and the
/// weight-gradient product (Eq. 3). Formats like HFP8 use different
/// encodings for forward and backward; Mirage uses the same BFP config
/// everywhere. `Engines` lets callers choose per-direction engines.
#[derive(Clone)]
pub struct Engines {
    forward: Arc<dyn GemmEngine>,
    backward: Arc<dyn GemmEngine>,
}

impl Engines {
    /// Uses the same engine for forward and backward GEMMs.
    pub fn uniform(engine: impl GemmEngine + 'static) -> Self {
        let e: Arc<dyn GemmEngine> = Arc::new(engine);
        Engines {
            forward: e.clone(),
            backward: e,
        }
    }

    /// Uses distinct forward/backward engines (e.g. HFP8's 1-4-3 forward
    /// and 1-5-2 backward formats).
    pub fn split(forward: impl GemmEngine + 'static, backward: impl GemmEngine + 'static) -> Self {
        Engines {
            forward: Arc::new(forward),
            backward: Arc::new(backward),
        }
    }

    /// Uses the same engine for both directions, lifted onto the
    /// row-banded multi-threaded execution layer with the auto worker
    /// count — every layer's forward and gradient GEMMs then fan out
    /// across worker threads, bit-identically to [`Engines::uniform`]
    /// for tile-invariant engines.
    pub fn uniform_parallel(engine: impl GemmEngine + 'static) -> Self {
        Engines::uniform(ParallelGemm::auto(engine))
    }

    /// Re-wraps both directions' engines in the row-banded
    /// multi-threaded driver with an explicit [`TileConfig`] (e.g. to
    /// pin the worker count for a benchmark). Safe to apply to already-parallel
    /// engines: a nested driver detects it is running inside a worker
    /// and stays serial, so thread counts never multiply — though to
    /// *retune* an existing parallel engine, prefer rebuilding it with
    /// the new config over wrapping it again.
    pub fn parallelized(self, config: TileConfig) -> Self {
        Engines {
            forward: Arc::new(ParallelGemm::new(self.forward, config)),
            backward: Arc::new(ParallelGemm::new(self.backward, config)),
        }
    }

    /// The forward-pass engine.
    pub fn forward(&self) -> &dyn GemmEngine {
        self.forward.as_ref()
    }

    /// An owned handle to the forward-pass engine — what a compiled
    /// inference plan step stores so it can keep serving after the
    /// `Engines` it was compiled from is gone.
    pub fn forward_engine(&self) -> Arc<dyn GemmEngine> {
        Arc::clone(&self.forward)
    }

    /// The backward-pass engine.
    pub fn backward(&self) -> &dyn GemmEngine {
        self.backward.as_ref()
    }

    /// Prepares a weight matrix once for repeated forward GEMMs
    /// ([`GemmEngine::prepare`] on the forward engine) — the
    /// inference-serving path, where the same layer weight multiplies
    /// millions of activation batches. Consume the result with
    /// `engines.forward().gemm_prepared(x, &prepared)`, bit-identical to
    /// `engines.forward().gemm(x, weight)`.
    ///
    /// The engines are type-erased (`Arc<dyn GemmEngine>`), and the
    /// preparation survives that erasure: the smart-pointer
    /// `GemmEngine` impls forward `prepare`/`gemm_prepared` to the
    /// concrete engine, so a BFP stack still skips its weight-side
    /// quantization here.
    ///
    /// # Errors
    ///
    /// Returns [`mirage_tensor::TensorError::RankMismatch`] unless the
    /// weight is rank-2.
    pub fn prepare_forward(&self, weight: &Tensor) -> mirage_tensor::Result<PreparedRhs> {
        self.forward.prepare(weight)
    }

    /// Like [`Engines::prepare_forward`] for the backward engine (e.g.
    /// the re-used activations of a weight-gradient GEMM).
    ///
    /// # Errors
    ///
    /// Returns [`mirage_tensor::TensorError::RankMismatch`] unless the
    /// operand is rank-2.
    pub fn prepare_backward(&self, operand: &Tensor) -> mirage_tensor::Result<PreparedRhs> {
        self.backward.prepare(operand)
    }
}

impl std::fmt::Debug for Engines {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engines")
            .field("forward", &self.forward.name())
            .field("backward", &self.backward.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_tensor::engines::{Bf16Engine, ExactEngine};

    #[test]
    fn uniform_shares_engine() {
        let e = Engines::uniform(ExactEngine);
        assert_eq!(e.forward().name(), "fp32");
        assert_eq!(e.backward().name(), "fp32");
    }

    #[test]
    fn split_engines() {
        let e = Engines::split(ExactEngine, Bf16Engine);
        assert_eq!(e.forward().name(), "fp32");
        assert_eq!(e.backward().name(), "bfloat16");
    }

    #[test]
    fn debug_shows_names() {
        let e = Engines::uniform(ExactEngine);
        assert!(format!("{e:?}").contains("fp32"));
    }

    #[test]
    fn parallel_engines_match_serial_training_gemms() {
        use mirage_tensor::Tensor;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(80);
        let a = Tensor::randn(&[40, 40], 1.0, &mut rng);
        let b = Tensor::randn(&[40, 40], 1.0, &mut rng);
        let serial = Engines::uniform(ExactEngine);
        let parallel =
            Engines::uniform(ExactEngine).parallelized(TileConfig::auto().with_threads(4));
        assert_eq!(parallel.forward().name(), "fp32");
        assert_eq!(
            parallel.forward().gemm(&a, &b).unwrap().data(),
            serial.forward().gemm(&a, &b).unwrap().data()
        );
        assert_eq!(
            parallel.backward().gemm(&b, &a).unwrap().data(),
            serial.backward().gemm(&b, &a).unwrap().data()
        );
    }

    #[test]
    fn uniform_parallel_constructs() {
        let e = Engines::uniform_parallel(ExactEngine);
        assert_eq!(e.forward().name(), "fp32");
        assert_eq!(e.backward().name(), "fp32");
    }

    #[test]
    fn prepared_weights_survive_type_erasure() {
        use mirage_bfp::BfpConfig;
        use mirage_tensor::engines::BfpEngine;
        use mirage_tensor::Tensor;
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(81);
        let weight = Tensor::randn(&[32, 8], 1.0, &mut rng);
        let x = Tensor::randn(&[4, 32], 1.0, &mut rng);
        let bfp = BfpEngine::new(BfpConfig::mirage_default());
        // Through Arc<dyn GemmEngine> and a parallel re-wrap, the
        // preparation still reaches the concrete BFP engine.
        let engines = Engines::uniform(bfp).parallelized(TileConfig::auto().with_threads(2));
        let prepared = engines.prepare_forward(&weight).unwrap();
        assert_eq!(prepared.engine(), "mirage-bfp");
        assert_eq!(
            engines
                .forward()
                .gemm_prepared(&x, &prepared)
                .unwrap()
                .data(),
            bfp.gemm(&x, &weight).unwrap().data()
        );
        assert!(engines.prepare_backward(&weight).is_ok());
    }
}
