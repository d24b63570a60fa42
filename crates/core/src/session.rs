//! Serving-oriented model sessions: cached compiled whole models
//! ([`ModelSession`]).

use crate::accelerator::Mirage;
use crate::serve::lock_recover;
use mirage_nn::shard::{ShardPlan, ShardSpec};
use mirage_nn::{CompiledNetwork, Engines, Sequential};
use mirage_tensor::parallel::TileConfig;
use mirage_tensor::scratch::ActivationScratch;
use mirage_tensor::{Result, Tensor, TensorError};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A serving session for **whole models** over the Mirage arithmetic:
/// [`ModelSession::load`] compiles a [`Sequential`] network once — every
/// GEMM weight transposed and quantized exactly once, via
/// [`Sequential::compile`] — and [`ModelSession::run`] /
/// [`ModelSession::run_batch`] serve it forever after with zero
/// weight-side quantization: the serving model behind the paper's
/// Table III workloads, end to end.
///
/// Results are **bit-identical** to the eager
/// `Sequential::forward` on [`ModelSession::engines`] — compilation is
/// a caching transformation, never a numerical one.
///
/// The session is `Sync`; the mutex guards only the name → model map
/// (never held during inference), and the compiled models themselves
/// are immutable and lock-free, so any number of request threads can
/// serve one session — or clone an [`Arc<CompiledNetwork>`] out via
/// [`ModelSession::model`] and bypass the map entirely.
///
/// ```
/// use mirage_core::Mirage;
/// use mirage_nn::{layers::{Dense, Relu}, Sequential};
/// use mirage_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(9);
/// let mut net = Sequential::new();
/// net.push(Dense::new(32, 16, &mut rng));
/// net.push(Relu::new());
/// net.push(Dense::new(16, 4, &mut rng));
///
/// let mirage = Mirage::paper_default();
/// let session = mirage.model_session();
/// session.load("mlp", &net)?; // quantize every weight once…
/// let eager = net.forward(&Tensor::ones(&[2, 32]), session.engines())?;
/// for _ in 0..3 {
///     let y = session.run("mlp", &Tensor::ones(&[2, 32]))?; // …serve many times
///     assert_eq!(y.data(), eager.data()); // bit-identical to eager
/// }
/// # Ok::<(), mirage_nn::NnError>(())
/// ```
#[derive(Debug)]
pub struct ModelSession {
    engines: Engines,
    models: Mutex<HashMap<String, Arc<CompiledNetwork>>>,
}

impl ModelSession {
    /// Builds a session over the accelerator's parallel BFP engine with
    /// the automatic tile/thread heuristic.
    pub fn new(mirage: &Mirage) -> Self {
        ModelSession {
            engines: Engines::uniform(mirage.parallel_gemm_engine()),
            models: Mutex::new(HashMap::new()),
        }
    }

    /// Builds a session with an explicit [`TileConfig`] (pin thread
    /// counts in benchmarks, force serial execution in baselines).
    pub fn with_tile_config(mirage: &Mirage, config: TileConfig) -> Self {
        ModelSession {
            engines: Engines::uniform(mirage.parallel_gemm_engine_with(config)),
            models: Mutex::new(HashMap::new()),
        }
    }

    /// The engines compiled models run on — the eager reference path
    /// for bit-identity checks.
    pub fn engines(&self) -> &Engines {
        &self.engines
    }

    /// Compiles `net` and caches it under `name`, replacing any
    /// previous model for that key. This is the only session operation
    /// that runs the quantizer on weights; it returns the compiled
    /// model so callers can also serve it directly.
    ///
    /// # Errors
    ///
    /// Returns [`mirage_nn::NnError::NotCompilable`] when a layer has no
    /// inference form (the network is rejected, not served through a
    /// degraded path); propagates weight-preparation errors.
    pub fn load(
        &self,
        name: impl Into<String>,
        net: &Sequential,
    ) -> mirage_nn::Result<Arc<CompiledNetwork>> {
        let compiled = Arc::new(net.compile(&self.engines)?);
        lock_recover(&self.models).insert(name.into(), Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Compiles `net`, re-places it across simulated accelerator
    /// instances per `spec` (tensor-parallel shards sliced from the
    /// shared weight preparations, plus an optional pipeline split —
    /// see [`mirage_nn::shard`]), and caches the sharded plan under
    /// `name`. The cached model is a plain [`CompiledNetwork`]:
    /// [`ModelSession::run`] / [`ModelSession::run_batch`] and the
    /// online [`ModelSession::server`] route through sharded plans
    /// unchanged, and responses stay bit-identical to the unsharded
    /// (and eager) paths.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSession::load`], plus
    /// [`mirage_nn::NnError::ShardConfig`] for an invalid placement
    /// spec.
    pub fn load_sharded(
        &self,
        name: impl Into<String>,
        net: &Sequential,
        spec: &ShardSpec,
    ) -> mirage_nn::Result<Arc<CompiledNetwork>> {
        let compiled = net.compile(&self.engines)?;
        let sharded = Arc::new(ShardPlan::new(&compiled, spec)?.into_network());
        lock_recover(&self.models).insert(name.into(), Arc::clone(&sharded));
        Ok(sharded)
    }

    /// The compiled model cached under `name`. Serving loops can hold
    /// the returned `Arc` and skip the map lookup per request.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownLayer`] naming the missing key.
    pub fn model(&self, name: &str) -> Result<Arc<CompiledNetwork>> {
        lock_recover(&self.models)
            .get(name)
            .cloned()
            .ok_or_else(|| TensorError::UnknownLayer {
                name: name.to_string(),
            })
    }

    /// One whole-model inference against the compiled model for `name`;
    /// bit-identical to the eager `Sequential::forward` on
    /// [`ModelSession::engines`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::UnknownLayer`] (wrapped in
    /// [`mirage_nn::NnError::Tensor`]) when `name` has no loaded model;
    /// propagates step errors.
    pub fn run(&self, name: &str, x: &Tensor) -> mirage_nn::Result<Tensor> {
        self.model(name)?.run(x)
    }

    /// [`ModelSession::run`] with a caller-owned scratch arena, so a
    /// serving thread recycles its activation buffers across requests.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSession::run`].
    pub fn run_with(
        &self,
        name: &str,
        x: &Tensor,
        scratch: &mut ActivationScratch,
    ) -> mirage_nn::Result<Tensor> {
        self.model(name)?.run_with(x, scratch)
    }

    /// Batched whole-model inference, bit-identical to mapping
    /// [`ModelSession::run`] over the items.
    ///
    /// # Errors
    ///
    /// Same as [`ModelSession::run`]; the whole batch fails if any item
    /// does.
    pub fn run_batch(&self, name: &str, inputs: &[Tensor]) -> mirage_nn::Result<Vec<Tensor>> {
        self.model(name)?.run_batch(inputs)
    }

    /// Starts an online serving front end ([`crate::serve::ModelServer`])
    /// over the compiled model cached under `name`: a bounded submission
    /// queue plus a coalescing dynamic batcher, with responses
    /// bit-identical to per-request eager forwards (see
    /// [`crate::serve`]). The server holds its own `Arc` to the model,
    /// so evicting or replacing `name` afterwards does not disturb it.
    ///
    /// # Errors
    ///
    /// Returns [`crate::serve::ServeError::UnknownModel`] when nothing is
    /// loaded under `name`, and the usual configuration/spawn errors
    /// from [`crate::serve::ModelServer::new`].
    pub fn server(
        &self,
        name: &str,
        config: crate::serve::ServerConfig,
    ) -> std::result::Result<crate::serve::ModelServer, crate::serve::ServeError> {
        let model = self
            .model(name)
            .map_err(|_| crate::serve::ServeError::UnknownModel {
                name: name.to_string(),
            })?;
        crate::serve::ModelServer::new(model, config)
    }

    /// Whether a model is loaded under `name`.
    pub fn contains(&self, name: &str) -> bool {
        lock_recover(&self.models).contains_key(name)
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        lock_recover(&self.models).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the model cached under `name`, returning whether one was
    /// present (in-flight requests holding the `Arc` finish unharmed).
    pub fn evict(&self, name: &str) -> bool {
        lock_recover(&self.models).remove(name).is_some()
    }

    /// Drops every cached model.
    pub fn clear(&self) {
        lock_recover(&self.models).clear();
    }
}

#[cfg(test)]
mod model_session_tests {
    use super::*;
    use mirage_nn::layers::{Dense, Dropout, Relu};
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(32, 24, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(24, 5, &mut rng));
        net
    }

    #[test]
    fn run_is_bit_identical_to_eager_forward() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut net = mlp(300);
        session.load("mlp", &net).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(301);
        for rows in [1, 6] {
            let x = Tensor::randn(&[rows, 32], 1.0, &mut rng);
            let eager = net.forward(&x, session.engines()).unwrap();
            assert_eq!(session.run("mlp", &x).unwrap().data(), eager.data());
        }
    }

    #[test]
    fn run_batch_and_scratch_paths_match_run() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        session.load("mlp", &mlp(302)).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(303);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn(&[3, 32], 1.0, &mut rng))
            .collect();
        let batch = session.run_batch("mlp", &inputs).unwrap();
        let mut scratch = ActivationScratch::new();
        for (x, y) in inputs.iter().zip(&batch) {
            assert_eq!(y.data(), session.run("mlp", x).unwrap().data());
            assert_eq!(
                y.data(),
                session.run_with("mlp", x, &mut scratch).unwrap().data()
            );
        }
        assert!(session.run_batch("mlp", &[]).unwrap().is_empty());
    }

    #[test]
    fn missing_model_is_the_dedicated_unknown_key_error() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let err = session.run("ghost", &Tensor::zeros(&[1, 4])).unwrap_err();
        assert!(
            matches!(
                &err,
                mirage_nn::NnError::Tensor(TensorError::UnknownLayer { name }) if name == "ghost"
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("ghost"), "{err}");
    }

    #[test]
    fn uncompilable_networks_are_rejected_at_load() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut rng = rand::rngs::StdRng::seed_from_u64(304);
        let mut net = Sequential::new();
        net.push(Dense::new(8, 8, &mut rng));
        net.push(Dropout::new(0.5, 1));
        let err = session.load("bad", &net).unwrap_err();
        assert!(
            matches!(err, mirage_nn::NnError::NotCompilable { .. }),
            "{err:?}"
        );
        assert!(!session.contains("bad"));
    }

    #[test]
    fn load_replaces_evict_removes_and_model_hands_out_arcs() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        assert!(session.is_empty());
        session.load("a", &mlp(305)).unwrap();
        let first = session.model("a").unwrap();
        // Reload under the same key: new weights serve, old Arc lives on.
        let mut replacement = mlp(306);
        session.load("a", &replacement).unwrap();
        assert_eq!(session.len(), 1);
        let x = Tensor::ones(&[2, 32]);
        let eager = replacement.forward(&x, session.engines()).unwrap();
        assert_eq!(session.run("a", &x).unwrap().data(), eager.data());
        assert_eq!(first.run(&x).unwrap().shape(), &[2, 5]); // still serviceable
        assert!(session.evict("a"));
        assert!(!session.evict("a"));
        session.load("b", &mlp(307)).unwrap();
        session.clear();
        assert!(session.is_empty());
    }

    #[test]
    fn explicit_serial_tile_config_matches_the_auto_session() {
        let mirage = Mirage::paper_default();
        let serial = mirage.model_session_with(TileConfig::serial());
        let parallel = mirage.model_session();
        let net = mlp(308);
        serial.load("m", &net).unwrap();
        parallel.load("m", &net).unwrap();
        let x = Tensor::full(&[4, 32], 0.25);
        assert_eq!(
            serial.run("m", &x).unwrap().data(),
            parallel.run("m", &x).unwrap().data()
        );
    }

    #[test]
    fn session_server_serves_the_cached_model_bit_identically() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut net = mlp(310);
        session.load("mlp", &net).unwrap();
        let server = session
            .server("mlp", crate::serve::ServerConfig::default())
            .unwrap();
        let x = Tensor::full(&[1, 32], 0.125);
        let eager = net.forward(&x, session.engines()).unwrap();
        let response = server.infer(x).unwrap();
        assert_eq!(response.output.data(), eager.data());
        // Evicting the session entry does not disturb the live server.
        assert!(session.evict("mlp"));
        assert!(server.infer(Tensor::full(&[1, 32], 0.125)).is_ok());
        server.join();
        // An unknown name is the typed serve error.
        let err = session
            .server("ghost", crate::serve::ServerConfig::default())
            .unwrap_err();
        assert!(
            matches!(&err, crate::serve::ServeError::UnknownModel { name } if name == "ghost"),
            "{err:?}"
        );
    }

    #[test]
    fn load_sharded_serves_bit_identically_through_session_and_server() {
        let mirage = Mirage::paper_default();
        let session = mirage.model_session();
        let mut net = mlp(311);
        session.load("flat", &net).unwrap();
        let spec = ShardSpec::tensor(3).with_pipeline(2, 2);
        let sharded = session.load_sharded("sharded", &net, &spec).unwrap();
        assert_eq!(sharded.pipeline_stages(), 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(312);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::randn(&[2, 32], 1.0, &mut rng))
            .collect();
        let flat = session.run_batch("flat", &inputs).unwrap();
        let shard = session.run_batch("sharded", &inputs).unwrap();
        for ((x, a), b) in inputs.iter().zip(&flat).zip(&shard) {
            let eager = net.forward(x, session.engines()).unwrap();
            assert_eq!(a.data(), eager.data());
            assert_eq!(b.data(), eager.data());
        }
        // The online front end routes through the sharded plan unchanged.
        let server = session
            .server("sharded", crate::serve::ServerConfig::default())
            .unwrap();
        let x = Tensor::full(&[1, 32], 0.25);
        let eager = net.forward(&x, session.engines()).unwrap();
        assert_eq!(server.infer(x).unwrap().output.data(), eager.data());
        server.join();
        // Invalid placements are rejected, not cached.
        assert!(matches!(
            session.load_sharded("bad", &net, &ShardSpec::tensor(0)),
            Err(mirage_nn::NnError::ShardConfig { .. })
        ));
        assert!(!session.contains("bad"));
    }

    #[test]
    fn mirage_compile_matches_eager_and_compile_with_pins_threads() {
        let mirage = Mirage::paper_default();
        let mut net = mlp(309);
        let compiled = mirage.compile(&net).unwrap();
        let x = Tensor::full(&[3, 32], -0.5);
        let eager = net.forward(&x, &mirage.training_engines()).unwrap();
        assert_eq!(compiled.run(&x).unwrap().data(), eager.data());
        let pinned = mirage
            .compile_with(&net, TileConfig::auto().with_threads(2))
            .unwrap();
        assert_eq!(pinned.run(&x).unwrap().data(), eager.data());
    }
}
