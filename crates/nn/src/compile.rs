//! Compiled inference plans: freeze a network once, serve it forever.
//!
//! Training iterates `forward`/`backward` on mutable layers; serving
//! multiplies millions of requests against **static** weights. The eager
//! [`Sequential::forward`] path pays training-shaped costs on every
//! request — `Dense` re-transposes and re-quantizes its weight, every
//! layer clones activations into its backward cache. Compiling closes
//! that gap, mirroring the split the Mirage paper draws between
//! training-time quantization and static-weight inference (Table III
//! serves batch 1–128 against fixed weights):
//!
//! - [`Layer::compile`] freezes one layer into an immutable
//!   [`PlanStep`]: every GEMM weight is transposed and prepared
//!   **exactly once** (via [`Engines::prepare_forward`], i.e.
//!   [`mirage_tensor::GemmEngine::prepare`]), so steady-state requests
//!   run zero weight-side quantization;
//! - [`CompiledNetwork`] strings the steps together and serves
//!   [`run`](CompiledNetwork::run) / [`run_batch`](CompiledNetwork::run_batch)
//!   from `&self`. The plan is `Sync` with **no interior locking on the
//!   hot path**: concurrent request threads share one compiled model and
//!   never contend on a mutex during a GEMM;
//! - activations ping-pong through a per-thread
//!   [`ActivationScratch`], so a serving thread's steady state recycles
//!   the same few buffers instead of allocating per request.
//!
//! **Bit-identity contract:** compilation is a caching transformation,
//! never a numerical one. For every layer, the compiled step performs
//! the same arithmetic in the same order as the eager forward pass, and
//! prepared GEMMs are bit-identical to unprepared ones by the
//! [`mirage_tensor::GemmEngine::prepare`] contract — so
//! `CompiledNetwork::run` equals `Sequential::forward` to the last bit,
//! on every engine. The cross-crate grid tests enforce this across
//! exact / BFP / RNS-BFP / photonic engines, batch sizes and worker
//! counts.
//!
//! Layers whose forward pass is *training-only* behaviour do not
//! silently degrade: an active `Dropout` or a training-mode
//! `BatchNorm2d` fails compilation with [`NnError::NotCompilable`]
//! (switch them to inference mode first), and [`CompiledNetwork`]
//! construction rejects the whole network rather than falling back to
//! the eager path behind the caller's back.
//!
//! ```
//! use mirage_nn::{Sequential, layers::{Dense, Relu}, Engines};
//! use mirage_tensor::{Tensor, engines::ExactEngine};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Sequential::new();
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, &mut rng));
//!
//! let engines = Engines::uniform(ExactEngine);
//! let x = Tensor::ones(&[3, 4]);
//! let eager = net.forward(&x, &engines)?;
//!
//! let compiled = net.compile(&engines)?; // weights prepared once
//! assert_eq!(compiled.run(&x)?.data(), eager.data()); // bit-identical
//! # Ok::<(), mirage_nn::NnError>(())
//! ```

use crate::engines::Engines;
use crate::layers::Layer;
use crate::{NnError, Result};
use mirage_tensor::conv::{
    conv2d_forward_prepared, global_avgpool2d, maxpool2d_forward, Conv2dGeometry,
};
use mirage_tensor::engines::Epilogue;
use mirage_tensor::scratch::ActivationScratch;
use mirage_tensor::{GemmEngine, PreparedRhs, Tensor};
use std::sync::{Arc, Mutex};

/// One immutable step of a compiled inference plan.
///
/// Steps are `Send + Sync` and run with `&self`: a compiled model is
/// shared freely across serving threads. Each thread passes its own
/// [`ActivationScratch`] so steps can recycle buffers without locking.
pub trait PlanStep: Send + Sync {
    /// Short name for debugging (usually the source layer's name).
    fn name(&self) -> &'static str;

    /// Executes the step on one activation tensor.
    ///
    /// # Errors
    ///
    /// Propagates tensor/engine errors; shape validation matches the
    /// eager layer's.
    fn run(&self, x: &Tensor, scratch: &mut ActivationScratch) -> Result<Tensor>;

    /// Whether this step is a pure identity (inference-mode dropout):
    /// [`CompiledNetwork`] elides such steps from the plan instead of
    /// deep-copying the activation through them on every request.
    fn is_identity(&self) -> bool {
        false
    }

    /// Whether this step is exactly an elementwise ReLU
    /// (`v.max(0.0)`) — the trigger for the plan-level fusion peephole:
    /// when a ReLU step directly follows a step whose
    /// [`fuse_relu`](PlanStep::fuse_relu) returns `Some`, the pair is
    /// collapsed into the fused step.
    fn is_relu(&self) -> bool {
        false
    }

    /// Returns a copy of this step with an elementwise ReLU fused onto
    /// its tail, or `None` when the step has no fused form (the
    /// default). The contract is bit-identity: the fused step's output
    /// must equal this step followed by `v.max(0.0)` over every
    /// element, to the last bit. Fusing must be **idempotent** — fusing
    /// an already-fused step returns an equivalent step, since
    /// `max(max(v, 0), 0) == max(v, 0)`.
    fn fuse_relu(&self) -> Option<Arc<dyn PlanStep>> {
        None
    }

    /// Returns a copy of this step with any internally fused epilogue
    /// split back into separate whole-activation sweeps, or `None` when
    /// the step has nothing fused (the default). This is the baseline
    /// side of the fused-vs-unfused comparison: a dense layer's unfused
    /// form runs the bare GEMM and then a standalone bias sweep, the
    /// way the eager forward pass does, instead of folding the bias
    /// into the kernel's output write. Bit-identity is required — the
    /// unfused form must produce the same bits, only slower.
    fn unfuse_epilogue(&self) -> Option<Arc<dyn PlanStep>> {
        None
    }

    /// Splits this step into tensor-parallel stages over `shards`
    /// simulated accelerator instances, or `None` when the step has no
    /// sharded form and a [`ShardPlan`](crate::shard::ShardPlan)
    /// replicates it instead.
    ///
    /// Each returned [`ShardedStep`](crate::shard::ShardedStep) stage
    /// replaces this step in the plan, in order. The contract is the
    /// same bit-identity bar as compilation itself: the staged
    /// computation must equal this step's [`run`](PlanStep::run) to the
    /// last bit. GEMM-bearing steps therefore only shard when their
    /// engine opts into
    /// [`tile_invariant`](mirage_tensor::GemmEngine::tile_invariant),
    /// split **output columns only** (`k` is never split), and combine
    /// by fixed-order concatenation.
    ///
    /// # Errors
    ///
    /// Propagates preparation-slicing errors from the engine.
    fn shard(&self, shards: usize) -> Result<Option<Vec<crate::shard::ShardedStep>>> {
        let _ = shards;
        Ok(None)
    }
}

/// A frozen, immutable execution plan for a [`Sequential`] network.
///
/// Built by [`Sequential::compile`] (or `Mirage::compile` in
/// `mirage-core`); see the [module docs](self) for the contract.
///
/// [`Sequential`]: crate::Sequential
pub struct CompiledNetwork {
    steps: Vec<Arc<dyn PlanStep>>,
    pub(crate) schedule: Option<crate::shard::PipelineSchedule>,
}

impl CompiledNetwork {
    /// Compiles each layer in order, failing fast — with the offending
    /// layer named in the error — rather than silently falling back to
    /// eager execution. Pure identity steps (inference-mode dropout)
    /// are elided from the plan: every layer must still *compile*, but
    /// serving skips the no-op activation copies.
    pub(crate) fn from_layers(layers: &[Box<dyn Layer>], engines: &Engines) -> Result<Self> {
        Self::from_layers_with(layers, engines, true)
    }

    /// [`CompiledNetwork::from_layers`] with the epilogue-fusion
    /// peephole switchable: after identity elision, a step that
    /// [`is_relu`](PlanStep::is_relu) directly following a step with a
    /// fused form ([`fuse_relu`](PlanStep::fuse_relu)) is folded into
    /// it — `dense, relu → dense+relu`, visible in
    /// [`step_names`](CompiledNetwork::step_names). Fusion is
    /// bit-identical by the `fuse_relu` contract; `fuse: false` keeps
    /// the unfused step sequence (the baseline side of the
    /// fused-vs-unfused bench comparison).
    pub(crate) fn from_layers_with(
        layers: &[Box<dyn Layer>],
        engines: &Engines,
        fuse: bool,
    ) -> Result<Self> {
        let mut steps: Vec<Arc<dyn PlanStep>> = Vec::with_capacity(layers.len());
        for layer in layers {
            let mut step: Arc<dyn PlanStep> = Arc::from(layer.compile(engines)?);
            if step.is_identity() {
                continue;
            }
            if !fuse {
                // Baseline plans also forgo the in-kernel bias fold:
                // bare GEMM plus separate sweeps, like the eager pass.
                if let Some(unfused) = step.unfuse_epilogue() {
                    step = unfused;
                }
            }
            if fuse && step.is_relu() {
                if let Some(fused) = steps.last().and_then(|prev| prev.fuse_relu()) {
                    if let Some(slot) = steps.last_mut() {
                        *slot = fused;
                        continue;
                    }
                }
            }
            steps.push(step);
        }
        Ok(CompiledNetwork {
            steps,
            schedule: None,
        })
    }

    /// Builds a plan directly from shared steps — how derived plans
    /// (sharded, pipelined) rewrap steps without copying step state.
    pub(crate) fn from_steps(steps: Vec<Arc<dyn PlanStep>>) -> Self {
        CompiledNetwork {
            steps,
            schedule: None,
        }
    }

    /// The shared steps, in execution order.
    pub(crate) fn steps(&self) -> &[Arc<dyn PlanStep>] {
        &self.steps
    }

    /// Runs one request with a fresh scratch arena. For serving loops,
    /// prefer [`CompiledNetwork::run_with`] with a per-thread scratch so
    /// steady-state requests reuse their activation buffers.
    ///
    /// # Errors
    ///
    /// Propagates step errors (shape validation matches the eager
    /// forward pass).
    pub fn run(&self, x: &Tensor) -> Result<Tensor> {
        self.run_with(x, &mut ActivationScratch::new())
    }

    /// Runs one request, ping-ponging intermediate activations through
    /// the caller's scratch arena: each step's dead input buffer is
    /// recycled for a later step's output, so a warmed-up serving
    /// thread cycles the same few allocations request after request.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_with(&self, x: &Tensor, scratch: &mut ActivationScratch) -> Result<Tensor> {
        run_steps(&self.steps, x, scratch)
    }

    /// Runs a batch of requests through one shared scratch arena,
    /// bit-identical to mapping [`CompiledNetwork::run`] over the items.
    ///
    /// Plans carrying a pipeline schedule (see
    /// [`with_pipeline`](CompiledNetwork::with_pipeline)) execute the
    /// batch as micro-batches flowing through the stage splits instead
    /// of item-by-item — same arithmetic per item, same results to the
    /// bit, different interleaving.
    ///
    /// # Errors
    ///
    /// Propagates step errors; the whole batch fails if any item does.
    pub fn run_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        match &self.schedule {
            Some(schedule) => {
                crate::shard::pipeline_run_batch(&self.steps, schedule, inputs).map(|(y, _)| y)
            }
            None => {
                let mut scratch = ActivationScratch::new();
                inputs
                    .iter()
                    .map(|x| self.run_with(x, &mut scratch))
                    .collect()
            }
        }
    }

    /// Number of plan steps (one per source layer).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan has no steps (an empty network: `run` is the
    /// identity).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The step names, in execution order.
    pub fn step_names(&self) -> Vec<&'static str> {
        self.steps.iter().map(|s| s.name()).collect()
    }
}

impl std::fmt::Debug for CompiledNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CompiledNetwork{:?}", self.step_names())
    }
}

/// Threads one activation through a step slice, ping-ponging dead
/// buffers into the scratch arena — the core serving loop, shared by
/// [`CompiledNetwork::run_with`] and the pipeline stage executor.
pub(crate) fn run_steps(
    steps: &[Arc<dyn PlanStep>],
    x: &Tensor,
    scratch: &mut ActivationScratch,
) -> Result<Tensor> {
    let mut cur: Option<Tensor> = None;
    for step in steps {
        let next = step.run(cur.as_ref().unwrap_or(x), scratch)?;
        if let Some(dead) = cur.take() {
            scratch.recycle(dead.into_data());
        }
        cur = Some(next);
    }
    Ok(cur.unwrap_or_else(|| x.clone()))
}

/// Escape hatch for custom layers: wraps a layer's **eager** forward
/// pass as a plan step, serializing calls through a mutex.
///
/// This is what "default = wrap the eager path" costs: the layer keeps
/// its per-call work (weight re-quantization included) and every thread
/// contends on the lock — so the built-in layers all compile to real
/// prepared steps instead, and nothing constructs an `EagerStep`
/// implicitly. Use it from a custom `Layer::compile` when the layer is
/// inference-safe but has no compiled form yet:
///
/// ```
/// use mirage_nn::compile::{EagerStep, PlanStep};
/// use mirage_nn::layers::Relu;
/// use mirage_nn::Engines;
/// use mirage_tensor::{engines::ExactEngine, Tensor};
///
/// let engines = Engines::uniform(ExactEngine);
/// let step = EagerStep::boxed(Relu::new(), &engines);
/// let y = step.run(
///     &Tensor::from_vec(vec![-1.0, 2.0], &[1, 2])?,
///     &mut mirage_tensor::ActivationScratch::new(),
/// )?;
/// assert_eq!(y.data(), &[0.0, 2.0]);
/// # Ok::<(), mirage_nn::NnError>(())
/// ```
pub struct EagerStep {
    name: &'static str,
    layer: Mutex<Box<dyn Layer>>,
    engines: Engines,
}

impl EagerStep {
    /// Wraps `layer`'s eager forward pass (the layer is moved in; hand
    /// over a clone to keep training the original).
    pub fn boxed(layer: impl Layer + 'static, engines: &Engines) -> Box<dyn PlanStep> {
        Box::new(EagerStep {
            name: layer.name(),
            layer: Mutex::new(Box::new(layer)),
            engines: engines.clone(),
        })
    }
}

impl PlanStep for EagerStep {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        // Unlike the session caches, a poisoned lock here is NOT
        // recoverable: a panic mid-`forward` can leave the wrapped
        // layer's own state inconsistent, so the step reports the
        // error instead of serving from (or panicking on) it.
        match self.layer.lock() {
            Ok(mut layer) => layer.forward(x, &self.engines),
            Err(_) => Err(NnError::PoisonedStep {
                layer: self.name.to_string(),
            }),
        }
    }
}

// ───────────────────────── GEMM-bearing steps ──────────────────────────

/// `Dense` frozen: `y = x · prepared(Wᵀ) + b`, with an optionally fused
/// trailing ReLU. The weight transpose and the engine's B-side
/// quantization happened once at compile time; per request only the
/// activation side touches the quantizer, and the GEMM output lands in
/// a recycled scratch buffer. The bias (and the ReLU, when the fusion
/// peephole folded a following `ReluStep` in) is applied by the
/// engine's fused-[`Epilogue`] entry point — one pass over the
/// still-hot output block, bit-identical to the separate sweeps by the
/// [`mirage_tensor::GemmEngine::gemm_prepared_epilogue_into`] contract.
pub(crate) struct DenseStep {
    engine: Arc<dyn GemmEngine>,
    prepared: PreparedRhs,
    bias: Vec<f32>,
    relu: bool,
    /// `true` (the default) routes through the engine's fused
    /// [`Epilogue`] entry point so bias/ReLU fold into the kernel's
    /// output write; `false` (the [`unfuse_epilogue`]
    /// (PlanStep::unfuse_epilogue) baseline) runs the bare GEMM and a
    /// standalone bias sweep like the eager pass.
    fused_epilogue: bool,
}

impl DenseStep {
    pub(crate) fn new(engine: Arc<dyn GemmEngine>, prepared: PreparedRhs, bias: Vec<f32>) -> Self {
        DenseStep {
            engine,
            prepared,
            bias,
            relu: false,
            fused_epilogue: true,
        }
    }
}

impl PlanStep for DenseStep {
    fn name(&self) -> &'static str {
        if self.relu {
            "dense+relu"
        } else {
            "dense"
        }
    }

    fn run(&self, x: &Tensor, scratch: &mut ActivationScratch) -> Result<Tensor> {
        let mut out = scratch.take(x.shape().first().copied().unwrap_or(0) * self.bias.len());
        if self.fused_epilogue {
            let mut epilogue = Epilogue::none().with_bias(&self.bias);
            if self.relu {
                epilogue = epilogue.with_relu();
            }
            let (m, n) =
                self.engine
                    .gemm_prepared_epilogue_into(x, &self.prepared, &epilogue, &mut out)?;
            Ok(Tensor::from_vec(out, &[m, n])?)
        } else {
            // The unfused baseline: bare GEMM, then the same standalone
            // whole-activation bias sweep the eager forward pass runs.
            // Bit-identical to the fused path — an `f32` store
            // round-trips exactly, so adding the bias after the store
            // equals adding it to the accumulator before it.
            let (m, n) = self
                .engine
                .gemm_prepared_into(x, &self.prepared, &mut out)?;
            crate::layers::add_row_bias(&mut out, &self.bias);
            if self.relu {
                for v in out.iter_mut() {
                    *v = v.max(0.0);
                }
            }
            Ok(Tensor::from_vec(out, &[m, n])?)
        }
    }

    fn fuse_relu(&self) -> Option<Arc<dyn PlanStep>> {
        Some(Arc::new(DenseStep {
            engine: self.engine.clone(),
            prepared: self.prepared.clone(),
            bias: self.bias.clone(),
            relu: true,
            fused_epilogue: self.fused_epilogue,
        }))
    }

    fn unfuse_epilogue(&self) -> Option<Arc<dyn PlanStep>> {
        Some(Arc::new(DenseStep {
            engine: self.engine.clone(),
            prepared: self.prepared.clone(),
            bias: self.bias.clone(),
            relu: self.relu,
            fused_epilogue: false,
        }))
    }

    /// Column-shards the prepared weight: shard `i` owns a contiguous
    /// slice of output features cut from the shared preparation by
    /// [`PreparedRhs::cols`], plus the matching bias slice. The
    /// fixed-order column concat equals the whole GEMM bit-exactly for
    /// tile-invariant engines — the same invariant the row-banded
    /// parallel driver relies on, lifted to model level. A fused ReLU shards
    /// freely: it is elementwise, so applying it per column shard
    /// before the concat equals applying it after.
    fn shard(&self, shards: usize) -> Result<Option<Vec<crate::shard::ShardedStep>>> {
        use crate::shard::{column_ranges, GemmShardPart, ShardedStep};
        if !self.engine.tile_invariant() {
            return Ok(None);
        }
        let mut parts: Vec<Box<dyn PlanStep>> = Vec::with_capacity(shards);
        for (c0, width) in column_ranges(self.prepared.n(), shards) {
            let tile = self.prepared.cols(c0, width)?;
            parts.push(Box::new(GemmShardPart::new(
                "dense-shard",
                self.engine.clone(),
                tile,
                Some(self.bias[c0..c0 + width].to_vec()),
                self.relu,
            )));
        }
        Ok(Some(vec![ShardedStep::concat(self.name(), parts)?]))
    }
}

/// `Conv2d` frozen: the im2col GEMM runs against the weight matrix
/// prepared once at compile time ([`conv2d_forward_prepared`]).
pub(crate) struct Conv2dStep {
    engine: Arc<dyn GemmEngine>,
    prepared: PreparedRhs,
    geometry: Conv2dGeometry,
}

impl Conv2dStep {
    pub(crate) fn new(
        engine: Arc<dyn GemmEngine>,
        prepared: PreparedRhs,
        geometry: Conv2dGeometry,
    ) -> Self {
        Conv2dStep {
            engine,
            prepared,
            geometry,
        }
    }
}

impl PlanStep for Conv2dStep {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        Ok(conv2d_forward_prepared(
            x,
            &self.prepared,
            &self.geometry,
            self.engine.as_ref(),
        )?)
    }
}

/// `SelfAttention` frozen: the four projection weights are prepared
/// once; the per-head score/context products are activation × activation
/// GEMMs (no static side), so they run exactly as the eager layer does.
pub(crate) struct SelfAttentionStep {
    engine: Arc<dyn GemmEngine>,
    seq: usize,
    dim: usize,
    heads: usize,
    wq_t: PreparedRhs,
    wk_t: PreparedRhs,
    wv_t: PreparedRhs,
    wo_t: PreparedRhs,
}

impl SelfAttentionStep {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        engine: Arc<dyn GemmEngine>,
        seq: usize,
        dim: usize,
        heads: usize,
        wq_t: PreparedRhs,
        wk_t: PreparedRhs,
        wv_t: PreparedRhs,
        wo_t: PreparedRhs,
    ) -> Self {
        SelfAttentionStep {
            engine,
            seq,
            dim,
            heads,
            wq_t,
            wk_t,
            wv_t,
            wo_t,
        }
    }
}

impl PlanStep for SelfAttentionStep {
    fn name(&self) -> &'static str {
        "self-attention"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        use crate::attention::{head_slice, head_unslice, softmax_rows};
        let rows = x.shape()[0];
        if !rows.is_multiple_of(self.seq) || x.shape()[1] != self.dim {
            return Err(NnError::Tensor(mirage_tensor::TensorError::ShapeMismatch {
                left: x.shape().to_vec(),
                right: vec![self.seq, self.dim],
            }));
        }
        let batch = rows / self.seq;
        let head_dim = self.dim / self.heads;
        let e = self.engine.as_ref();
        let q = e.gemm_prepared(x, &self.wq_t)?;
        let k = e.gemm_prepared(x, &self.wk_t)?;
        let v = e.gemm_prepared(x, &self.wv_t)?;

        let scale = 1.0 / (head_dim as f32).sqrt();
        let mut ctx = Tensor::zeros(&[rows, self.dim]);
        for b in 0..batch {
            for h in 0..self.heads {
                let qh = head_slice(&q, b, h, self.seq, head_dim);
                let kh = head_slice(&k, b, h, self.seq, head_dim);
                let vh = head_slice(&v, b, h, self.seq, head_dim);
                let scores = e.gemm(&qh, &kh.transpose2d()?)?.scale(scale);
                let attn = softmax_rows(&scores);
                let ctx_h = e.gemm(&attn, &vh)?;
                head_unslice(&mut ctx, &ctx_h, b, h, self.seq, self.dim, head_dim);
            }
        }
        Ok(e.gemm_prepared(&ctx, &self.wo_t)?)
    }

    /// Head-shards the attention into two staged sharded steps. Stage
    /// one gives each shard a contiguous head range: because head `h`
    /// occupies activation columns `h·head_dim ..= (h+1)·head_dim`, a
    /// head range is exactly a column shard of the prepared
    /// `Wq`/`Wk`/`Wv`, and each shard runs its own score/softmax/context
    /// loop on bit-identical projections; concatenating the per-shard
    /// context blocks in head order rebuilds the full context
    /// bit-exactly. Stage two column-shards the output projection `Wo`
    /// (its reduction dimension is the full `dim`, so it cannot join
    /// stage one without splitting `k` — which the contract forbids).
    fn shard(&self, shards: usize) -> Result<Option<Vec<crate::shard::ShardedStep>>> {
        use crate::shard::{column_ranges, head_ranges, GemmShardPart, HeadShardPart, ShardedStep};
        if !self.engine.tile_invariant() {
            return Ok(None);
        }
        let head_dim = self.dim / self.heads;
        let mut head_parts: Vec<Box<dyn PlanStep>> = Vec::with_capacity(shards);
        for (h0, count) in head_ranges(self.heads, shards) {
            let (c0, width) = (h0 * head_dim, count * head_dim);
            head_parts.push(Box::new(HeadShardPart::new(
                self.engine.clone(),
                self.seq,
                self.dim,
                head_dim,
                count,
                self.wq_t.cols(c0, width)?,
                self.wk_t.cols(c0, width)?,
                self.wv_t.cols(c0, width)?,
            )));
        }
        let mut proj_parts: Vec<Box<dyn PlanStep>> = Vec::with_capacity(shards);
        for (c0, width) in column_ranges(self.wo_t.n(), shards) {
            proj_parts.push(Box::new(GemmShardPart::new(
                "attention-proj-shard",
                self.engine.clone(),
                self.wo_t.cols(c0, width)?,
                None,
                false,
            )));
        }
        Ok(Some(vec![
            ShardedStep::concat("attention-heads", head_parts)?,
            ShardedStep::concat("attention-proj", proj_parts)?,
        ]))
    }
}

// ─────────────────────────── pure data steps ───────────────────────────

/// Identity step (inference-mode `Dropout`).
pub(crate) struct IdentityStep {
    pub(crate) name: &'static str,
}

impl PlanStep for IdentityStep {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        Ok(x.clone())
    }

    fn is_identity(&self) -> bool {
        true
    }
}

/// `Relu` frozen: same element-wise max as the eager layer, no mask
/// capture.
pub(crate) struct ReluStep;

impl PlanStep for ReluStep {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        Ok(x.map(|v| v.max(0.0)))
    }

    /// Exactly the expression the fused [`Epilogue`] ReLU applies —
    /// the peephole may fold this step into its predecessor.
    fn is_relu(&self) -> bool {
        true
    }
}

/// `MaxPool2d` frozen: pooled values only, no argmax capture.
pub(crate) struct MaxPool2dStep {
    pub(crate) kernel: usize,
    pub(crate) stride: usize,
}

impl PlanStep for MaxPool2dStep {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        Ok(maxpool2d_forward(x, self.kernel, self.stride)?.0)
    }
}

/// `Flatten` frozen: `[b, ...] -> [b, prod(...)]`, no shape capture.
pub(crate) struct FlattenStep;

impl PlanStep for FlattenStep {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        let b = x.shape()[0];
        let rest: usize = x.shape()[1..].iter().product();
        Ok(x.reshape(&[b, rest])?)
    }
}

/// `GlobalAvgPool2d` frozen.
pub(crate) struct GlobalAvgPool2dStep;

impl PlanStep for GlobalAvgPool2dStep {
    fn name(&self) -> &'static str {
        "global-avgpool2d"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        Ok(global_avgpool2d(x)?)
    }
}

/// `SeqMeanPool` frozen: same block-mean loop as the eager layer.
pub(crate) struct SeqMeanPoolStep {
    pub(crate) seq: usize,
}

impl PlanStep for SeqMeanPoolStep {
    fn name(&self) -> &'static str {
        "seq-mean-pool"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        crate::attention::seq_mean_pool(x, self.seq)
    }
}

/// `LayerNorm` frozen: same per-row normalization as the eager layer,
/// without the backward cache.
pub(crate) struct LayerNormStep {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    pub(crate) eps: f32,
}

impl PlanStep for LayerNormStep {
    fn name(&self) -> &'static str {
        "layernorm"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        crate::norm::layernorm_rows(x, &self.gamma, &self.beta, self.eps, None)
    }
}

/// Inference-mode `BatchNorm2d` frozen: per-channel normalization with
/// the **running** statistics captured at compile time — the same
/// arithmetic as the eager layer's inference branch.
pub(crate) struct BatchNorm2dStep {
    pub(crate) gamma: Vec<f32>,
    pub(crate) beta: Vec<f32>,
    pub(crate) running_mean: Vec<f32>,
    pub(crate) running_var: Vec<f32>,
    pub(crate) eps: f32,
}

impl PlanStep for BatchNorm2dStep {
    fn name(&self) -> &'static str {
        "batchnorm2d"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        crate::norm::batchnorm2d_normalize(
            x,
            &self.gamma,
            &self.beta,
            &self.running_mean,
            &self.running_var,
            self.eps,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Dropout, Relu};
    use crate::Sequential;
    use mirage_tensor::engines::ExactEngine;
    use rand::SeedableRng;

    fn engines() -> Engines {
        Engines::uniform(ExactEngine)
    }

    fn net(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(6, 10, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(10, 3, &mut rng));
        net
    }

    #[test]
    fn compiled_network_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledNetwork>();
        assert_send_sync::<EagerStep>();
    }

    #[test]
    fn compiled_matches_eager_bitwise() {
        let mut net = net(1);
        let e = engines();
        let compiled = net.compile(&e).unwrap();
        // The dense→relu pair fused into one step by the peephole.
        assert_eq!(compiled.len(), 2);
        assert_eq!(compiled.step_names(), vec!["dense+relu", "dense"]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        for rows in [1, 5] {
            let x = Tensor::randn(&[rows, 6], 1.0, &mut rng);
            assert_eq!(
                compiled.run(&x).unwrap().data(),
                net.forward(&x, &e).unwrap().data()
            );
        }
    }

    #[test]
    fn fused_plan_matches_unfused_plan_bitwise() {
        let net = net(9);
        let e = engines();
        let fused = net.compile(&e).unwrap();
        let unfused = net.compile_unfused(&e).unwrap();
        assert_eq!(fused.step_names(), vec!["dense+relu", "dense"]);
        assert_eq!(unfused.step_names(), vec!["dense", "relu", "dense"]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        for rows in [1, 4, 32] {
            let x = Tensor::randn(&[rows, 6], 1.0, &mut rng);
            let yf = fused.run(&x).unwrap();
            let yu = unfused.run(&x).unwrap();
            let fbits: Vec<u32> = yf.data().iter().map(|v| v.to_bits()).collect();
            let ubits: Vec<u32> = yu.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(fbits, ubits, "rows={rows}");
        }
    }

    #[test]
    fn relu_without_fusable_predecessor_stays_a_step() {
        use crate::layers::Relu;
        let mut net = Sequential::new();
        net.push(Relu::new()); // first step: nothing to fuse into
        net.push(Relu::new()); // relu after relu: ReluStep has no fused form
        let compiled = net.compile(&engines()).unwrap();
        assert_eq!(compiled.step_names(), vec!["relu", "relu"]);
        let x = Tensor::from_vec(vec![-2.0, 3.0], &[1, 2]).unwrap();
        assert_eq!(compiled.run(&x).unwrap().data(), &[0.0, 3.0]);
    }

    #[test]
    fn run_with_recycles_activation_buffers() {
        let net = net(3);
        let e = engines();
        let compiled = net.compile(&e).unwrap();
        let x = Tensor::ones(&[4, 6]);
        let mut scratch = ActivationScratch::new();
        compiled.run_with(&x, &mut scratch).unwrap();
        // The dead intermediates were recycled, not dropped.
        assert!(scratch.pooled() > 0);
    }

    #[test]
    fn run_batch_matches_per_item_runs() {
        let net = net(4);
        let e = engines();
        let compiled = net.compile(&e).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn(&[3, 6], 1.0, &mut rng))
            .collect();
        let batch = compiled.run_batch(&inputs).unwrap();
        for (x, y) in inputs.iter().zip(&batch) {
            assert_eq!(y.data(), compiled.run(x).unwrap().data());
        }
        assert!(compiled.run_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn empty_network_compiles_to_identity() {
        let net = Sequential::new();
        let compiled = net.compile(&engines()).unwrap();
        assert!(compiled.is_empty());
        let x = Tensor::ones(&[2, 2]);
        assert_eq!(compiled.run(&x).unwrap(), x);
    }

    #[test]
    fn training_dropout_fails_compilation_with_a_clear_message() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 4, &mut rng));
        net.push(Dropout::new(0.5, 11));
        let err = net.compile(&engines()).unwrap_err();
        match &err {
            NnError::NotCompilable { layer, reason } => {
                assert_eq!(layer, "dropout");
                assert!(reason.contains("set_training(false)"), "{reason}");
            }
            other => panic!("expected NotCompilable, got {other:?}"),
        }
    }

    #[test]
    fn inference_dropout_compiles_to_identity() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 4, &mut rng));
        let mut dropout = Dropout::new(0.9, 11);
        dropout.set_training(false);
        net.push(dropout);
        let e = engines();
        let compiled = net.compile(&e).unwrap();
        // The identity dropout step is elided from the plan entirely.
        assert_eq!(compiled.step_names(), vec!["dense"]);
        let x = Tensor::ones(&[2, 4]);
        let mut eager = net;
        assert_eq!(
            compiled.run(&x).unwrap().data(),
            eager.forward(&x, &e).unwrap().data()
        );
    }

    #[test]
    fn default_compile_rejects_unknown_layers() {
        struct Custom;
        impl Layer for Custom {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn forward(&mut self, x: &Tensor, _e: &Engines) -> Result<Tensor> {
                Ok(x.clone())
            }
            fn backward(&mut self, d: &Tensor, _e: &Engines) -> Result<Tensor> {
                Ok(d.clone())
            }
        }
        let mut net = Sequential::new();
        net.push(Custom);
        let err = net.compile(&engines()).unwrap_err();
        assert!(
            matches!(&err, NnError::NotCompilable { layer, .. } if layer == "custom"),
            "{err:?}"
        );
    }

    #[test]
    fn eager_step_wraps_the_eager_path() {
        let e = engines();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let dense = Dense::new(5, 2, &mut rng);
        let x = Tensor::ones(&[3, 5]);
        let mut reference = Dense::from_weights(dense.weight().clone(), Tensor::zeros(&[2]));
        let step = EagerStep::boxed(
            Dense::from_weights(dense.weight().clone(), Tensor::zeros(&[2])),
            &e,
        );
        assert_eq!(step.name(), "dense");
        assert_eq!(
            step.run(&x, &mut ActivationScratch::new()).unwrap().data(),
            reference.forward(&x, &e).unwrap().data()
        );
    }
}
