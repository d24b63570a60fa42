//! The Mirage accelerator object.

use crate::photonic_gemm::PhotonicGemmEngine;
use crate::report::PerformanceReport;
use crate::session::ModelSession;
use mirage_arch::breakdown::{area_breakdown, power_breakdown, AreaBreakdown, PowerBreakdown};
use mirage_arch::energy::DigitalEnergy;
use mirage_arch::{MirageConfig, Workload};
use mirage_bfp::BfpConfig;
use mirage_nn::{CompiledNetwork, Engines, Sequential};
use mirage_tensor::engines::{BfpEngine, ProtectedRnsBfpEngine, RnsBfpEngine};
use mirage_tensor::parallel::{ParallelGemm, TileConfig};
use mirage_tensor::{GemmEngine, Result as TensorResult, Tensor};

/// The Mirage RNS-based photonic DNN training accelerator.
///
/// Owns a [`MirageConfig`] and exposes:
/// - the *arithmetic* (GEMM engines implementing the Fig. 2 dataflow),
/// - the *performance model* (latency / power / area, §V-B),
/// - constructors for training [`Engines`] used by `mirage-nn`.
#[derive(Debug, Clone)]
pub struct Mirage {
    config: MirageConfig,
}

impl Mirage {
    /// Builds an accelerator from an explicit configuration.
    pub fn new(config: MirageConfig) -> Self {
        Mirage { config }
    }

    /// The paper's design point: 8 RNS-MMVMUs × 3 × (16×32), `k = 5`,
    /// `bm = 4`, `g = 16`.
    pub fn paper_default() -> Self {
        Mirage::new(MirageConfig::default())
    }

    /// The configuration.
    pub fn config(&self) -> &MirageConfig {
        &self.config
    }

    /// The BFP operating point implied by the configuration.
    pub fn bfp_config(&self) -> BfpConfig {
        BfpConfig::new(self.config.bm, self.config.g).expect("validated by construction")
    }

    /// The fast functional GEMM engine (BFP arithmetic; bit-identical
    /// to the RNS path when Eq. 13 holds — enforced in tests). Serial;
    /// see [`Mirage::parallel_gemm_engine`] for the threaded driver.
    pub fn gemm_engine(&self) -> BfpEngine {
        BfpEngine::new(self.bfp_config())
    }

    /// The fast functional GEMM engine lifted onto the tiled
    /// multi-threaded execution layer (auto tile/thread heuristic;
    /// `MIRAGE_THREADS` overrides the worker count). Bit-identical to
    /// [`Mirage::gemm_engine`] — BFP quantization is per-row/per-column,
    /// so output tiling cannot perturb it.
    pub fn parallel_gemm_engine(&self) -> ParallelGemm<BfpEngine> {
        ParallelGemm::auto(self.gemm_engine())
    }

    /// Like [`Mirage::parallel_gemm_engine`] with an explicit
    /// [`TileConfig`] (pin thread counts in benchmarks, force serial in
    /// bit-exactness baselines).
    pub fn parallel_gemm_engine_with(&self, config: TileConfig) -> ParallelGemm<BfpEngine> {
        ParallelGemm::new(self.gemm_engine(), config)
    }

    /// Prepares (quantizes) a weight matrix once for repeated inference
    /// via `gemm_prepared`/`gemm_batch_prepared` on
    /// [`Mirage::parallel_gemm_engine`].
    ///
    /// # Errors
    ///
    /// Returns [`mirage_tensor::TensorError::RankMismatch`] unless the
    /// weight is rank-2.
    pub fn prepare_weight(&self, weight: &Tensor) -> TensorResult<mirage_tensor::PreparedRhs> {
        self.gemm_engine().prepare(weight)
    }

    /// Freezes a whole network into an immutable
    /// [`CompiledNetwork`] execution plan over this accelerator's
    /// parallel BFP arithmetic: every layer weight is transposed and
    /// quantized **exactly once**, and the plan serves `run`/`run_batch`
    /// from `&self` (share it across request threads), bit-identically
    /// to the eager `Sequential::forward` on
    /// [`Mirage::training_engines`]. See `mirage_nn::compile` for the
    /// plan contract, and [`Mirage::model_session`] for a keyed cache of
    /// compiled models.
    ///
    /// # Errors
    ///
    /// Returns [`mirage_nn::NnError::NotCompilable`] when a layer has no
    /// inference form (e.g. an active dropout) — the network is
    /// rejected, never silently served through the eager path.
    pub fn compile(&self, net: &Sequential) -> mirage_nn::Result<CompiledNetwork> {
        net.compile(&self.training_engines())
    }

    /// Like [`Mirage::compile`] with an explicit [`TileConfig`] for the
    /// underlying parallel engine.
    ///
    /// # Errors
    ///
    /// The [`Mirage::compile`] errors.
    pub fn compile_with(
        &self,
        net: &Sequential,
        config: TileConfig,
    ) -> mirage_nn::Result<CompiledNetwork> {
        net.compile(&Engines::uniform(self.parallel_gemm_engine_with(config)))
    }

    /// Compiles `net` and re-places it across simulated accelerator
    /// instances per `spec`: tensor-parallel column shards of every
    /// Dense/attention-head weight sliced from one shared preparation,
    /// plus an optional pipeline-stage split with micro-batch
    /// scheduling (see [`mirage_nn::shard`]). The returned plan is
    /// bit-identical to [`Mirage::compile`] and to the eager forward.
    ///
    /// # Errors
    ///
    /// The [`Mirage::compile`] errors, plus
    /// [`mirage_nn::NnError::ShardConfig`] for an invalid placement.
    pub fn compile_sharded(
        &self,
        net: &Sequential,
        spec: &mirage_nn::ShardSpec,
    ) -> mirage_nn::Result<CompiledNetwork> {
        let compiled = self.compile(net)?;
        Ok(mirage_nn::ShardPlan::new(&compiled, spec)?.into_network())
    }

    /// A [`ModelSession`] over this accelerator: caches **compiled
    /// whole models** per name so repeated inference never re-runs any
    /// weight-side quantization.
    pub fn model_session(&self) -> ModelSession {
        ModelSession::new(self)
    }

    /// Like [`Mirage::model_session`] with an explicit [`TileConfig`].
    pub fn model_session_with(&self, config: TileConfig) -> ModelSession {
        ModelSession::with_tile_config(self, config)
    }

    /// The RNS-faithful GEMM engine (routes every group dot product
    /// through residues and reverse conversion).
    ///
    /// # Errors
    ///
    /// Returns an error if the configured moduli set violates Eq. 13
    /// for the configured BFP point.
    pub fn rns_gemm_engine(&self) -> TensorResult<RnsBfpEngine> {
        RnsBfpEngine::new(self.bfp_config(), self.config.moduli.clone())
    }

    /// The RRNS-protected RNS GEMM engine (§VI-E): the configured
    /// moduli as the base set plus `redundant` extra channels, so
    /// compiled plans detect and correct injected residue errors. Arm a
    /// [`mirage_tensor::faults::FaultInjector`] with
    /// [`ProtectedRnsBfpEngine::with_injector`] to corrupt it under
    /// live traffic.
    ///
    /// # Errors
    ///
    /// Returns an error if the configured base set violates Eq. 13 for
    /// the configured BFP point, or if the redundant moduli are not
    /// co-prime with it.
    pub fn protected_rns_gemm_engine(
        &self,
        redundant: &[u64],
    ) -> TensorResult<ProtectedRnsBfpEngine> {
        ProtectedRnsBfpEngine::new(self.bfp_config(), self.config.moduli.clone(), redundant)
    }

    /// The device-level photonic GEMM engine (phase accumulation and
    /// detection on the simulated MMVMUs).
    pub fn photonic_gemm_engine(&self) -> PhotonicGemmEngine {
        PhotonicGemmEngine::new(&self.config)
    }

    /// Training engines for `mirage-nn` (same Mirage arithmetic in
    /// forward and backward passes, per §V-A), running on the tiled
    /// multi-threaded execution layer by default. Bit-identical to the
    /// serial engines, so accuracy experiments are unaffected; use
    /// [`Mirage::serial_training_engines`] to pin single-threaded
    /// execution explicitly.
    pub fn training_engines(&self) -> Engines {
        Engines::uniform(self.parallel_gemm_engine())
    }

    /// Single-threaded training engines — the deterministic-baseline
    /// path the parallel default is validated against.
    pub fn serial_training_engines(&self) -> Engines {
        Engines::uniform(self.gemm_engine())
    }

    /// Full performance evaluation of one workload (runtime, power,
    /// energy, EDP, utilization).
    pub fn evaluate(&self, workload: &Workload) -> PerformanceReport {
        PerformanceReport::evaluate(&self.config, workload)
    }

    /// Fig. 9 peak-power breakdown.
    pub fn power_breakdown(&self) -> PowerBreakdown {
        power_breakdown(&self.config, &DigitalEnergy::default())
    }

    /// Fig. 9 area breakdown.
    pub fn area_breakdown(&self) -> AreaBreakdown {
        area_breakdown(&self.config)
    }
}

impl Default for Mirage {
    fn default() -> Self {
        Mirage::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_tensor::engines::ExactEngine;
    use mirage_tensor::{GemmEngine, Tensor};
    use rand::SeedableRng;

    #[test]
    fn engines_agree_bit_exactly() {
        // BFP fast path == RNS path == photonic device path.
        let mirage = Mirage::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(123);
        let a = Tensor::randn(&[6, 40], 1.0, &mut rng);
        let b = Tensor::randn(&[40, 5], 1.0, &mut rng);
        let fast = mirage.gemm_engine().gemm(&a, &b).unwrap();
        let rns = mirage.rns_gemm_engine().unwrap().gemm(&a, &b).unwrap();
        let photonic = mirage.photonic_gemm_engine().gemm(&a, &b).unwrap();
        assert_eq!(fast.data(), rns.data());
        assert_eq!(fast.data(), photonic.data());
    }

    #[test]
    fn gemm_approximates_fp32() {
        let mirage = Mirage::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let a = Tensor::randn(&[8, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 8], 1.0, &mut rng);
        let exact = ExactEngine.gemm(&a, &b).unwrap();
        let got = mirage.gemm_engine().gemm(&a, &b).unwrap();
        let err = got.sub(&exact).unwrap().max_abs();
        assert!(err < 0.25 * exact.max_abs());
    }

    #[test]
    fn breakdowns_accessible() {
        let mirage = Mirage::paper_default();
        assert!(mirage.power_breakdown().total_w() > 1.0);
        assert!(mirage.area_breakdown().total_mm2() > 100.0);
    }

    #[test]
    fn parallel_engine_is_bit_identical_to_serial() {
        let mirage = Mirage::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(124);
        let a = Tensor::randn(&[48, 48], 1.0, &mut rng);
        let b = Tensor::randn(&[48, 48], 1.0, &mut rng);
        let serial = mirage.gemm_engine().gemm(&a, &b).unwrap();
        let parallel = mirage
            .parallel_gemm_engine_with(TileConfig::auto().with_threads(4))
            .gemm(&a, &b)
            .unwrap();
        assert_eq!(parallel.data(), serial.data());
        // Training engines default to the parallel path with the same name.
        assert_eq!(mirage.training_engines().forward().name(), "mirage-bfp");
    }

    #[test]
    fn gemm_batch_matches_per_item_gemms() {
        let mirage = Mirage::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(125);
        let weight = Tensor::randn(&[32, 10], 1.0, &mut rng);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::randn(&[8, 32], 1.0, &mut rng))
            .collect();
        let engine = mirage.parallel_gemm_engine();
        let batch = engine.gemm_batch(&inputs, &weight).unwrap();
        assert_eq!(batch.len(), inputs.len());
        let serial = mirage.gemm_engine();
        for (input, got) in inputs.iter().zip(&batch) {
            assert_eq!(got.data(), serial.gemm(input, &weight).unwrap().data());
        }
        // Shape errors surface for the whole batch.
        assert!(engine
            .gemm_batch(&[Tensor::zeros(&[2, 3])], &weight)
            .is_err());
        // Empty batches and zero-row items are well-formed, not panics.
        assert!(engine.gemm_batch(&[], &weight).unwrap().is_empty());
        let empty_item = engine
            .gemm_batch(&[Tensor::zeros(&[0, 32])], &weight)
            .unwrap();
        assert_eq!(empty_item[0].shape(), &[0, 10]);
    }

    #[test]
    fn prepared_weight_reused_across_calls_bit_identically() {
        let mirage = Mirage::paper_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(126);
        let weight = Tensor::randn(&[40, 12], 1.0, &mut rng);
        let prepared = mirage.prepare_weight(&weight).unwrap();
        let engine = mirage.parallel_gemm_engine();
        for _ in 0..3 {
            let x = Tensor::randn(&[8, 40], 1.0, &mut rng);
            assert_eq!(
                engine.gemm_prepared(&x, &prepared).unwrap().data(),
                mirage.gemm_engine().gemm(&x, &weight).unwrap().data()
            );
        }
    }

    #[test]
    fn bfp_config_reflects_paper_defaults() {
        let m = Mirage::paper_default();
        assert_eq!(m.bfp_config().mantissa_bits(), 4);
        assert_eq!(m.bfp_config().group_size(), 16);
    }
}
