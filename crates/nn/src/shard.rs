//! Shard-aware execution: tensor- and pipeline-parallel compiled plans
//! across K simulated accelerator instances.
//!
//! A single Mirage die is not the paper's end state — the workload
//! story (ResNet50/BERT-scale, Table III) assumes DNN serving scale,
//! which means *placement*: more than one accelerator holding a slice
//! of the model. This module lifts the column windows that already
//! exist at tile level
//! ([`PreparedRhs::cols`](mirage_tensor::PreparedRhs::cols)) into
//! model-level parallelism:
//!
//! - **Tensor parallelism** ([`ShardPlan`]): every shardable step of a
//!   [`CompiledNetwork`] is split over K simulated accelerator
//!   instances. Shard `i` owns a contiguous **column** shard of each
//!   Dense weight (and a contiguous head range of each attention
//!   layer), sliced out of the *one shared preparation* by
//!   `PreparedRhs::cols` — no re-quantization, no per-shard weight
//!   copies of the packed state. A deterministic combiner ([`ShardCombiner`])
//!   reassembles the per-shard outputs in fixed shard order.
//! - **Pipeline parallelism**
//!   ([`CompiledNetwork::with_pipeline`]): the plan's steps are split
//!   into contiguous stages, and
//!   [`run_batch`](CompiledNetwork::run_batch) drives micro-batches
//!   through the stages on a GPipe-style schedule — in round `t`,
//!   stage `s` processes micro-batch `t − s`, so up to
//!   `min(stages, micro-batches)` stages are busy at once on real
//!   multi-die hardware. [`CompiledNetwork::run_batch_traced`] exposes
//!   the schedule for inspection.
//!
//! **Bit-identity stays the contract.** Sharding is a *placement*
//! transformation, never a numerical one:
//!
//! - the reduction dimension `k` is **never split** — each shard
//!   computes complete dot products, so no cross-shard accumulation
//!   reorders floating-point additions;
//! - only engines that opt into
//!   [`tile_invariant`](mirage_tensor::GemmEngine::tile_invariant)
//!   shard (each output element depends on its own row of A and column
//!   of B — the invariant the tiled parallel driver already proves);
//!   every other step is replicated unchanged;
//! - shard concat order is fixed, so the reassembled activation is the
//!   same buffer the unsharded step would have produced, bit for bit;
//! - the pipeline schedule only changes *when* a micro-batch meets a
//!   stage, never what the stage computes.
//!
//! Hence sharded == unsharded == eager, to the last bit, for every
//! engine — enforced by the cross-crate grid tests. This includes the
//! fault-tolerant engines: `ProtectedRnsBfpEngine` and the
//! `FaultyEngine` adapter (`mirage_tensor::faults`) are tile-invariant,
//! so sharded plans serve under fault injection with per-request
//! correction accounting, and a corrupted shard execution fails only
//! its own request (the root-level fault-injection grid pins this).
//!
//! ```
//! use mirage_nn::{Sequential, layers::{Dense, Relu}, Engines};
//! use mirage_nn::shard::{ShardPlan, ShardSpec};
//! use mirage_tensor::{Tensor, engines::ExactEngine};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Sequential::new();
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, &mut rng));
//! let engines = Engines::uniform(ExactEngine);
//! let compiled = net.compile(&engines)?;
//!
//! // Two tensor shards, two pipeline stages, micro-batches of one.
//! let spec = ShardSpec::tensor(2).with_pipeline(2, 1);
//! let plan = ShardPlan::new(&compiled, &spec)?;
//! let x = Tensor::ones(&[3, 4]);
//! assert_eq!(plan.run(&x)?.data(), compiled.run(&x)?.data());
//! # Ok::<(), mirage_nn::NnError>(())
//! ```

use crate::compile::{run_steps, CompiledNetwork, PlanStep};
use crate::{NnError, Result};
use mirage_tensor::engines::Epilogue;
use mirage_tensor::scratch::ActivationScratch;
use mirage_tensor::{GemmEngine, PreparedRhs, Tensor, TensorError};
use std::sync::Arc;

// ─────────────────────────── placement math ────────────────────────────

/// Balanced contiguous split of `n` columns over `shards` instances:
/// `(c0, width)` per shard, the first `n % shards` shards one column
/// wider. Shards beyond `n` get zero-width ranges (they own no
/// columns but still appear in the fixed concat order).
pub(crate) fn column_ranges(n: usize, shards: usize) -> Vec<(usize, usize)> {
    let shards = shards.max(1);
    let base = n / shards;
    let extra = n % shards;
    let mut ranges = Vec::with_capacity(shards);
    let mut c0 = 0;
    for i in 0..shards {
        let width = base + usize::from(i < extra);
        ranges.push((c0, width));
        c0 += width;
    }
    ranges
}

/// [`column_ranges`] over attention heads: `(h0, count)` per shard —
/// heads are atomic (a head's score/softmax/context never splits), so
/// the head range is what maps to a column range of `Wq`/`Wk`/`Wv`.
pub(crate) fn head_ranges(heads: usize, shards: usize) -> Vec<(usize, usize)> {
    column_ranges(heads, shards)
}

// ──────────────────────────── combiners ────────────────────────────────

/// How a [`ShardedStep`] reassembles its per-shard outputs. Both
/// combiners are deterministic: parts are always visited in fixed
/// shard order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardCombiner {
    /// Concatenate the per-shard `[rows, wᵢ]` outputs column-wise in
    /// shard order — the combiner for column-sharded GEMMs, where it
    /// rebuilds the unsharded output **bit-exactly** (each shard
    /// computed complete dot products for its own columns).
    ConcatCols,
    /// Element-wise sum of same-shaped per-shard outputs in fixed shard
    /// order — a deterministic all-reduce for custom row-split steps.
    /// Unlike [`ShardCombiner::ConcatCols`] this *does* add partial
    /// results, so it is only bit-identical to an unsharded step whose
    /// reduction already added the same partials in the same order;
    /// the built-in plans never use it.
    SumFixedOrder,
}

// ─────────────────────────── sharded steps ─────────────────────────────

/// One plan step executed as K per-shard parts plus a deterministic
/// combiner — the tensor-parallel unit of a [`ShardPlan`].
///
/// `ShardedStep` implements [`PlanStep`], which is the load-bearing
/// trick of the whole layer: a sharded plan is itself a plain
/// [`CompiledNetwork`], so `ModelSession` caching, the serving front
/// end, and pipeline splitting all work on sharded plans unchanged.
///
/// Each part models one simulated accelerator instance: it holds that
/// instance's weight shard (sliced from the shared preparation) and
/// runs on the full replicated activation. The host-side loop executes
/// parts sequentially; placement, not host threading, is what the type
/// models — per-shard latency/energy on real hardware comes from
/// `mirage-arch`'s sharding cost model.
pub struct ShardedStep {
    name: &'static str,
    parts: Vec<Box<dyn PlanStep>>,
    combiner: ShardCombiner,
}

impl ShardedStep {
    /// A sharded step combining by fixed-order column concatenation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShardConfig`] when `parts` is empty.
    pub fn concat(name: &'static str, parts: Vec<Box<dyn PlanStep>>) -> Result<Self> {
        ShardedStep::with_combiner(name, parts, ShardCombiner::ConcatCols)
    }

    /// A sharded step combining by fixed-order element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShardConfig`] when `parts` is empty.
    pub fn sum(name: &'static str, parts: Vec<Box<dyn PlanStep>>) -> Result<Self> {
        ShardedStep::with_combiner(name, parts, ShardCombiner::SumFixedOrder)
    }

    /// A sharded step with an explicit combiner.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShardConfig`] when `parts` is empty.
    pub fn with_combiner(
        name: &'static str,
        parts: Vec<Box<dyn PlanStep>>,
        combiner: ShardCombiner,
    ) -> Result<Self> {
        if parts.is_empty() {
            return Err(NnError::ShardConfig {
                reason: format!("sharded step {name:?} needs at least one part"),
            });
        }
        Ok(ShardedStep {
            name,
            parts,
            combiner,
        })
    }

    /// Number of shards (parts).
    pub fn shards(&self) -> usize {
        self.parts.len()
    }

    /// The combiner reassembling the per-shard outputs.
    pub fn combiner(&self) -> ShardCombiner {
        self.combiner
    }

    fn combine_concat(&self, outs: Vec<Tensor>, scratch: &mut ActivationScratch) -> Result<Tensor> {
        let rows = match outs.first().map(Tensor::shape) {
            Some([r, _]) => *r,
            _ => {
                return Err(NnError::ShardConfig {
                    reason: format!("sharded step {:?} produced no rank-2 outputs", self.name),
                })
            }
        };
        let mut total = 0usize;
        for t in &outs {
            match t.shape() {
                [r, c] if *r == rows => total += c,
                other => {
                    return Err(NnError::Tensor(TensorError::ShapeMismatch {
                        left: other.to_vec(),
                        right: vec![rows, 0],
                    }))
                }
            }
        }
        let mut data = scratch.take(rows * total);
        for r in 0..rows {
            for t in &outs {
                let c = t.shape()[1];
                data.extend_from_slice(&t.data()[r * c..(r + 1) * c]);
            }
        }
        let combined = Tensor::from_vec(data, &[rows, total])?;
        for t in outs {
            scratch.recycle(t.into_data());
        }
        Ok(combined)
    }

    fn combine_sum(&self, outs: Vec<Tensor>, scratch: &mut ActivationScratch) -> Result<Tensor> {
        let mut iter = outs.into_iter();
        let first = match iter.next() {
            Some(t) => t,
            None => {
                return Err(NnError::ShardConfig {
                    reason: format!("sharded step {:?} produced no outputs", self.name),
                })
            }
        };
        let shape = first.shape().to_vec();
        let mut acc = first.into_data();
        for t in iter {
            if t.shape() != shape.as_slice() {
                return Err(NnError::Tensor(TensorError::ShapeMismatch {
                    left: t.shape().to_vec(),
                    right: shape,
                }));
            }
            for (a, b) in acc.iter_mut().zip(t.data()) {
                *a += *b;
            }
            scratch.recycle(t.into_data());
        }
        Ok(Tensor::from_vec(acc, &shape)?)
    }
}

impl PlanStep for ShardedStep {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, x: &Tensor, scratch: &mut ActivationScratch) -> Result<Tensor> {
        let mut outs = Vec::with_capacity(self.parts.len());
        for part in &self.parts {
            outs.push(part.run(x, scratch)?);
        }
        match self.combiner {
            ShardCombiner::ConcatCols => self.combine_concat(outs, scratch),
            ShardCombiner::SumFixedOrder => self.combine_sum(outs, scratch),
        }
    }
}

/// One shard's slice of a column-sharded GEMM: `y = x · tile(Wᵀ) [+ b]`
/// — the per-instance part behind sharded `Dense` (bias slice attached)
/// and the attention output projection (no bias). A fused trailing ReLU
/// (from a fused `dense+relu` step) applies per shard: it is
/// elementwise, so clamping each column shard before the fixed-order
/// concat is bit-identical to clamping the concatenated result.
pub(crate) struct GemmShardPart {
    name: &'static str,
    engine: Arc<dyn GemmEngine>,
    prepared: PreparedRhs,
    bias: Option<Vec<f32>>,
    relu: bool,
}

impl GemmShardPart {
    pub(crate) fn new(
        name: &'static str,
        engine: Arc<dyn GemmEngine>,
        prepared: PreparedRhs,
        bias: Option<Vec<f32>>,
        relu: bool,
    ) -> Self {
        GemmShardPart {
            name,
            engine,
            prepared,
            bias,
            relu,
        }
    }
}

impl PlanStep for GemmShardPart {
    fn name(&self) -> &'static str {
        self.name
    }

    fn run(&self, x: &Tensor, scratch: &mut ActivationScratch) -> Result<Tensor> {
        let (rows, cols) = match x.shape() {
            [r, c] => (*r, *c),
            other => {
                return Err(NnError::Tensor(TensorError::ShapeMismatch {
                    left: other.to_vec(),
                    right: vec![0, self.prepared.k()],
                }))
            }
        };
        if self.prepared.n() == 0 {
            // A shard that owns no columns (K > n): its output is a
            // well-formed `rows × 0` block in the concat, not a panic.
            if cols != self.prepared.k() {
                return Err(NnError::Tensor(TensorError::DimMismatch {
                    left: cols,
                    right: self.prepared.k(),
                }));
            }
            return Ok(Tensor::from_vec(Vec::new(), &[rows, 0])?);
        }
        let mut out = scratch.take(rows * self.prepared.n());
        let mut epilogue = Epilogue::none();
        if let Some(bias) = &self.bias {
            epilogue = epilogue.with_bias(bias);
        }
        if self.relu {
            epilogue = epilogue.with_relu();
        }
        let (m, n) =
            self.engine
                .gemm_prepared_epilogue_into(x, &self.prepared, &epilogue, &mut out)?;
        Ok(Tensor::from_vec(out, &[m, n])?)
    }
}

/// One shard's contiguous head range of a self-attention layer: local
/// `Wq`/`Wk`/`Wv` column tiles (head `h` of the layer is columns
/// `h·head_dim ..` of the projections), the shard's own
/// score/softmax/context loop, and a `[rows, heads·head_dim]` context
/// block for the head-order concat.
pub(crate) struct HeadShardPart {
    engine: Arc<dyn GemmEngine>,
    seq: usize,
    dim_in: usize,
    head_dim: usize,
    heads: usize,
    wq_t: PreparedRhs,
    wk_t: PreparedRhs,
    wv_t: PreparedRhs,
}

impl HeadShardPart {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        engine: Arc<dyn GemmEngine>,
        seq: usize,
        dim_in: usize,
        head_dim: usize,
        heads: usize,
        wq_t: PreparedRhs,
        wk_t: PreparedRhs,
        wv_t: PreparedRhs,
    ) -> Self {
        HeadShardPart {
            engine,
            seq,
            dim_in,
            head_dim,
            heads,
            wq_t,
            wk_t,
            wv_t,
        }
    }
}

impl PlanStep for HeadShardPart {
    fn name(&self) -> &'static str {
        "attention-head-shard"
    }

    fn run(&self, x: &Tensor, _scratch: &mut ActivationScratch) -> Result<Tensor> {
        use crate::attention::{head_slice, head_unslice, softmax_rows};
        let (rows, cols) = match x.shape() {
            [r, c] => (*r, *c),
            other => {
                return Err(NnError::Tensor(TensorError::ShapeMismatch {
                    left: other.to_vec(),
                    right: vec![self.seq, self.dim_in],
                }))
            }
        };
        if self.seq == 0 || !rows.is_multiple_of(self.seq) || cols != self.dim_in {
            return Err(NnError::Tensor(TensorError::ShapeMismatch {
                left: vec![rows, cols],
                right: vec![self.seq, self.dim_in],
            }));
        }
        if self.heads == 0 {
            // A shard that owns no heads (K > heads) contributes an
            // empty context block to the concat.
            return Ok(Tensor::from_vec(Vec::new(), &[rows, 0])?);
        }
        let batch = rows / self.seq;
        let local = self.heads * self.head_dim;
        let e = self.engine.as_ref();
        // Column tiles of the shared projections: bit-identical to the
        // matching columns of the full q/k/v by tile invariance.
        let q = e.gemm_prepared(x, &self.wq_t)?;
        let k = e.gemm_prepared(x, &self.wk_t)?;
        let v = e.gemm_prepared(x, &self.wv_t)?;
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut ctx = Tensor::zeros(&[rows, local]);
        for b in 0..batch {
            for h in 0..self.heads {
                let qh = head_slice(&q, b, h, self.seq, self.head_dim);
                let kh = head_slice(&k, b, h, self.seq, self.head_dim);
                let vh = head_slice(&v, b, h, self.seq, self.head_dim);
                let scores = e.gemm(&qh, &kh.transpose2d()?)?.scale(scale);
                let attn = softmax_rows(&scores);
                let ctx_h = e.gemm(&attn, &vh)?;
                head_unslice(&mut ctx, &ctx_h, b, h, self.seq, local, self.head_dim);
            }
        }
        Ok(ctx)
    }
}

// ──────────────────────────── shard spec ───────────────────────────────

/// Placement requested of a [`ShardPlan`]: how many tensor-parallel
/// shards, and optionally a pipeline split on top.
///
/// The default spec (`shards = 1`, one stage, micro-batches of one) is
/// the degenerate single-accelerator placement — still routed through
/// the sharding machinery, and still bit-identical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    shards: usize,
    pipeline_stages: usize,
    micro_batch: usize,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec {
            shards: 1,
            pipeline_stages: 1,
            micro_batch: 1,
        }
    }
}

impl ShardSpec {
    /// Tensor parallelism over `shards` instances, no pipeline split.
    pub fn tensor(shards: usize) -> Self {
        ShardSpec {
            shards,
            ..ShardSpec::default()
        }
    }

    /// Pipeline parallelism only: `stages` stage splits driven with
    /// micro-batches of `micro_batch` requests.
    pub fn pipeline(stages: usize, micro_batch: usize) -> Self {
        ShardSpec {
            pipeline_stages: stages,
            micro_batch,
            ..ShardSpec::default()
        }
    }

    /// Adds a pipeline split on top of the current spec.
    #[must_use]
    pub fn with_pipeline(mut self, stages: usize, micro_batch: usize) -> Self {
        self.pipeline_stages = stages;
        self.micro_batch = micro_batch;
        self
    }

    /// Tensor-parallel shard count K.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Pipeline stage count (1 = no pipeline split).
    pub fn pipeline_stages(&self) -> usize {
        self.pipeline_stages
    }

    /// Micro-batch size for the pipeline schedule.
    pub fn micro_batch(&self) -> usize {
        self.micro_batch
    }

    fn validate(&self) -> Result<()> {
        for (what, v) in [
            ("shards", self.shards),
            ("pipeline_stages", self.pipeline_stages),
            ("micro_batch", self.micro_batch),
        ] {
            if v == 0 {
                return Err(NnError::ShardConfig {
                    reason: format!("{what} must be at least 1"),
                });
            }
        }
        Ok(())
    }
}

// ──────────────────────────── shard plan ───────────────────────────────

/// A [`CompiledNetwork`] re-placed across K simulated accelerator
/// instances per its [`ShardSpec`] — the tensor-parallel (and
/// optionally pipeline-parallel) form of a compiled plan.
///
/// Every shardable step (Dense, self-attention — any step whose engine
/// is tile-invariant) is replaced by [`ShardedStep`] stages; everything
/// else (activations, norms, pools, conv, eager escapes) is
/// *replicated*: the plan shares the original step via `Arc`, modelling
/// each instance holding its own copy of the small non-GEMM state.
///
/// The resulting plan is itself a [`CompiledNetwork`]
/// ([`network`](ShardPlan::network) / [`into_network`](ShardPlan::into_network)),
/// so session caching and the serving front end route through sharded
/// plans unchanged.
pub struct ShardPlan {
    network: CompiledNetwork,
    spec: ShardSpec,
    sharded_steps: usize,
    replicated_steps: usize,
}

impl ShardPlan {
    /// Shards `net` per `spec`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShardConfig`] for a zero field in `spec`, and
    /// propagates engine errors from preparation slicing.
    pub fn new(net: &CompiledNetwork, spec: &ShardSpec) -> Result<Self> {
        spec.validate()?;
        let mut steps: Vec<Arc<dyn PlanStep>> = Vec::with_capacity(net.len());
        let mut sharded_steps = 0;
        let mut replicated_steps = 0;
        for step in net.steps() {
            match step.shard(spec.shards())? {
                Some(stages) => {
                    sharded_steps += 1;
                    for stage in stages {
                        steps.push(Arc::new(stage));
                    }
                }
                None => {
                    replicated_steps += 1;
                    steps.push(Arc::clone(step));
                }
            }
        }
        let mut network = CompiledNetwork::from_steps(steps);
        if spec.pipeline_stages() > 1 || spec.micro_batch() > 1 {
            network = network.with_pipeline(spec.pipeline_stages(), spec.micro_batch())?;
        }
        Ok(ShardPlan {
            network,
            spec: spec.clone(),
            sharded_steps,
            replicated_steps,
        })
    }

    /// Runs one request — same facade, and same bits, as the unsharded
    /// plan's [`CompiledNetwork::run`].
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run(&self, x: &Tensor) -> Result<Tensor> {
        self.network.run(x)
    }

    /// [`ShardPlan::run`] with a caller-owned scratch arena.
    ///
    /// # Errors
    ///
    /// Propagates step errors.
    pub fn run_with(&self, x: &Tensor, scratch: &mut ActivationScratch) -> Result<Tensor> {
        self.network.run_with(x, scratch)
    }

    /// Runs a batch — micro-batch pipelined when the spec asked for a
    /// pipeline split, bit-identical to per-item runs either way.
    ///
    /// # Errors
    ///
    /// Propagates step errors; the whole batch fails if any item does.
    pub fn run_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.network.run_batch(inputs)
    }

    /// The placement this plan was built with.
    pub fn spec(&self) -> &ShardSpec {
        &self.spec
    }

    /// Tensor-parallel shard count K.
    pub fn shards(&self) -> usize {
        self.spec.shards()
    }

    /// Steps that were split into sharded stages.
    pub fn sharded_steps(&self) -> usize {
        self.sharded_steps
    }

    /// Steps that were replicated unchanged (no sharded form, or an
    /// engine that never opted into tile invariance).
    pub fn replicated_steps(&self) -> usize {
        self.replicated_steps
    }

    /// The sharded plan as a plain [`CompiledNetwork`] — what a
    /// `ModelSession` caches and the serving front end executes.
    pub fn network(&self) -> &CompiledNetwork {
        &self.network
    }

    /// Consumes the plan, yielding the underlying network.
    pub fn into_network(self) -> CompiledNetwork {
        self.network
    }
}

impl std::fmt::Debug for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardPlan")
            .field("spec", &self.spec)
            .field("sharded_steps", &self.sharded_steps)
            .field("replicated_steps", &self.replicated_steps)
            .field("steps", &self.network.step_names())
            .finish()
    }
}

// ─────────────────────── pipeline parallelism ──────────────────────────

/// Stage boundaries + micro-batch size carried by a pipelined
/// [`CompiledNetwork`]: stage `s` is `steps[boundaries[s]..boundaries[s+1]]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct PipelineSchedule {
    pub(crate) boundaries: Vec<usize>,
    pub(crate) micro_batch: usize,
}

impl PipelineSchedule {
    pub(crate) fn stages(&self) -> usize {
        self.boundaries.len().saturating_sub(1)
    }
}

/// Balanced contiguous split of `len` steps into `stages` stages;
/// stages beyond `len` are empty (identity) — a degenerate but legal
/// placement.
fn stage_boundaries(len: usize, stages: usize) -> Vec<usize> {
    let stages = stages.max(1);
    let base = len / stages;
    let extra = len % stages;
    let mut boundaries = Vec::with_capacity(stages + 1);
    boundaries.push(0);
    let mut at = 0;
    for s in 0..stages {
        at += base + usize::from(s < extra);
        boundaries.push(at);
    }
    boundaries
}

/// One cell of the pipeline schedule: in `round`, `stage` processed
/// `micro_batch` (carrying `items` requests).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineSlot {
    /// Schedule round (clock tick).
    pub round: usize,
    /// Stage index.
    pub stage: usize,
    /// Micro-batch index.
    pub micro_batch: usize,
    /// Requests in the micro-batch.
    pub items: usize,
}

/// The schedule a pipelined [`CompiledNetwork::run_batch`] executed:
/// GPipe-style, round `t` runs stage `s` on micro-batch `t − s`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PipelineTrace {
    /// Number of pipeline stages.
    pub stages: usize,
    /// Rounds executed (`micro_batches + stages − 1`, 0 for an empty
    /// batch).
    pub rounds: usize,
    /// Executed (round, stage, micro-batch) cells, in execution order.
    pub slots: Vec<PipelineSlot>,
}

impl PipelineTrace {
    /// The most stages busy in any one round — the concurrency a
    /// multi-die deployment would realize from this schedule.
    pub fn max_in_flight(&self) -> usize {
        let mut per_round = vec![0usize; self.rounds];
        for slot in &self.slots {
            if let Some(n) = per_round.get_mut(slot.round) {
                *n += 1;
            }
        }
        per_round.into_iter().max().unwrap_or(0)
    }
}

/// Drives `inputs` through the staged steps on the GPipe schedule.
/// Each item still passes every step in original order, so results are
/// bit-identical to the unpipelined per-item loop; only the
/// interleaving across micro-batches differs.
pub(crate) fn pipeline_run_batch(
    steps: &[Arc<dyn PlanStep>],
    schedule: &PipelineSchedule,
    inputs: &[Tensor],
) -> Result<(Vec<Tensor>, PipelineTrace)> {
    let stages = schedule.stages().max(1);
    if inputs.is_empty() {
        // Zero micro-batches: a well-formed empty schedule, not an
        // error (and certainly not a panic).
        return Ok((
            Vec::new(),
            PipelineTrace {
                stages,
                rounds: 0,
                slots: Vec::new(),
            },
        ));
    }
    let chunks: Vec<&[Tensor]> = inputs.chunks(schedule.micro_batch.max(1)).collect();
    let mut acts: Vec<Option<Vec<Tensor>>> = (0..chunks.len()).map(|_| None).collect();
    let mut slots = Vec::new();
    let mut scratch = ActivationScratch::new();
    let rounds = chunks.len() + stages - 1;
    for round in 0..rounds {
        for stage in 0..stages {
            if stage > round {
                continue;
            }
            let mb = round - stage;
            if mb >= chunks.len() {
                continue;
            }
            let lo = schedule.boundaries.get(stage).copied().unwrap_or(0);
            let hi = schedule.boundaries.get(stage + 1).copied().unwrap_or(lo);
            let stage_steps = steps.get(lo..hi).unwrap_or(&[]);
            let outs = if stage == 0 {
                let mut outs = Vec::with_capacity(chunks[mb].len());
                for x in chunks[mb] {
                    outs.push(run_steps(stage_steps, x, &mut scratch)?);
                }
                outs
            } else {
                let staged = match acts.get_mut(mb).and_then(Option::take) {
                    Some(tensors) => tensors,
                    None => {
                        return Err(NnError::ShardConfig {
                            reason: format!("pipeline schedule lost micro-batch {mb}"),
                        })
                    }
                };
                let mut outs = Vec::with_capacity(staged.len());
                for x in &staged {
                    outs.push(run_steps(stage_steps, x, &mut scratch)?);
                }
                for x in staged {
                    scratch.recycle(x.into_data());
                }
                outs
            };
            let items = outs.len();
            if let Some(slot) = acts.get_mut(mb) {
                *slot = Some(outs);
            }
            slots.push(PipelineSlot {
                round,
                stage,
                micro_batch: mb,
                items,
            });
        }
    }
    let mut results = Vec::with_capacity(inputs.len());
    for act in acts {
        match act {
            Some(tensors) => results.extend(tensors),
            None => {
                return Err(NnError::ShardConfig {
                    reason: "pipeline schedule finished with an undrained micro-batch".to_string(),
                })
            }
        }
    }
    Ok((
        results,
        PipelineTrace {
            stages,
            rounds,
            slots,
        },
    ))
}

impl CompiledNetwork {
    /// Splits the plan into `stages` contiguous stage groups and
    /// attaches a micro-batch schedule of `micro_batch` requests:
    /// [`run_batch`](CompiledNetwork::run_batch) then drives
    /// micro-batches through the stages GPipe-style. Steps are shared
    /// with `self` (no weight copies). Single-request
    /// [`run`](CompiledNetwork::run) is unaffected — a lone request
    /// just flows through the stages in order.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShardConfig`] when `stages` or `micro_batch`
    /// is zero.
    pub fn with_pipeline(&self, stages: usize, micro_batch: usize) -> Result<CompiledNetwork> {
        if stages == 0 || micro_batch == 0 {
            return Err(NnError::ShardConfig {
                reason: "pipeline stages and micro_batch must be at least 1".to_string(),
            });
        }
        let mut net = CompiledNetwork::from_steps(self.steps().to_vec());
        net.schedule = Some(PipelineSchedule {
            boundaries: stage_boundaries(self.len(), stages),
            micro_batch,
        });
        Ok(net)
    }

    /// Pipeline stage count (1 for an unpipelined plan).
    pub fn pipeline_stages(&self) -> usize {
        self.schedule.as_ref().map_or(1, PipelineSchedule::stages)
    }

    /// Micro-batch size of the attached schedule, if any.
    pub fn micro_batch(&self) -> Option<usize> {
        self.schedule.as_ref().map(|s| s.micro_batch)
    }

    /// Step names grouped by pipeline stage (one group for an
    /// unpipelined plan).
    pub fn stage_step_names(&self) -> Vec<Vec<&'static str>> {
        let names = self.step_names();
        match &self.schedule {
            None => vec![names],
            Some(schedule) => schedule
                .boundaries
                .windows(2)
                .map(|w| names.get(w[0]..w[1]).unwrap_or(&[]).to_vec())
                .collect(),
        }
    }

    /// [`run_batch`](CompiledNetwork::run_batch) that also returns the
    /// executed [`PipelineTrace`] — how rounds, stages and
    /// micro-batches interleaved. Unpipelined plans report a single
    /// stage carrying the whole batch.
    ///
    /// # Errors
    ///
    /// Propagates step errors; the whole batch fails if any item does.
    pub fn run_batch_traced(&self, inputs: &[Tensor]) -> Result<(Vec<Tensor>, PipelineTrace)> {
        let whole_batch;
        let schedule = match &self.schedule {
            Some(s) => s,
            None => {
                whole_batch = PipelineSchedule {
                    boundaries: vec![0, self.len()],
                    micro_batch: inputs.len().max(1),
                };
                &whole_batch
            }
        };
        pipeline_run_batch(self.steps(), schedule, inputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Relu};
    use crate::{Engines, Sequential};
    use mirage_tensor::engines::ExactEngine;
    use rand::SeedableRng;

    fn compiled(seed: u64) -> CompiledNetwork {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(6, 10, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(10, 3, &mut rng));
        net.compile(&Engines::uniform(ExactEngine)).unwrap()
    }

    #[test]
    fn column_ranges_balance_and_cover() {
        assert_eq!(column_ranges(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(column_ranges(2, 4), vec![(0, 1), (1, 1), (2, 0), (2, 0)]);
        assert_eq!(column_ranges(0, 2), vec![(0, 0), (0, 0)]);
        for (n, k) in [(17, 4), (4, 17), (1, 1), (64, 8)] {
            let ranges = column_ranges(n, k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges.iter().map(|r| r.1).sum::<usize>(), n);
            let mut at = 0;
            for (c0, w) in ranges {
                assert_eq!(c0, at);
                at += w;
            }
        }
    }

    #[test]
    fn stage_boundaries_are_contiguous_and_balanced() {
        assert_eq!(stage_boundaries(5, 2), vec![0, 3, 5]);
        assert_eq!(stage_boundaries(3, 5), vec![0, 1, 2, 3, 3, 3]);
        assert_eq!(stage_boundaries(0, 2), vec![0, 0, 0]);
    }

    #[test]
    fn shard_plan_matches_unsharded_bitwise() {
        let net = compiled(1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[4, 6], 1.0, &mut rng);
        for k in [1, 2, 4, 7] {
            let plan = ShardPlan::new(&net, &ShardSpec::tensor(k)).unwrap();
            assert_eq!(plan.shards(), k);
            // Both steps shard: the fused dense+relu and the final
            // dense. Nothing is left to replicate — the relu rides
            // inside the first step's column shards.
            assert_eq!(plan.sharded_steps(), 2);
            assert_eq!(plan.replicated_steps(), 0);
            assert_eq!(plan.run(&x).unwrap().data(), net.run(&x).unwrap().data());
        }
    }

    #[test]
    fn pipeline_schedule_overlaps_and_matches_bitwise() {
        let net = compiled(3);
        let staged = net.with_pipeline(2, 1).unwrap();
        assert_eq!(staged.pipeline_stages(), 2);
        assert_eq!(staged.micro_batch(), Some(1));
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let inputs: Vec<Tensor> = (0..5)
            .map(|_| Tensor::randn(&[2, 6], 1.0, &mut rng))
            .collect();
        let (ys, trace) = staged.run_batch_traced(&inputs).unwrap();
        assert_eq!(trace.rounds, 5 + 2 - 1);
        assert_eq!(trace.max_in_flight(), 2);
        for (x, y) in inputs.iter().zip(&ys) {
            assert_eq!(y.data(), net.run(x).unwrap().data());
        }
        // run_batch takes the same scheduled path.
        let batched = staged.run_batch(&inputs).unwrap();
        for (a, b) in ys.iter().zip(&batched) {
            assert_eq!(a.data(), b.data());
        }
    }

    #[test]
    fn empty_batch_and_empty_stages_are_well_formed() {
        let net = compiled(5);
        let staged = net.with_pipeline(7, 3).unwrap(); // more stages than steps
        let (ys, trace) = staged.run_batch_traced(&[]).unwrap();
        assert!(ys.is_empty());
        assert_eq!(trace.rounds, 0);
        let x = Tensor::ones(&[1, 6]);
        assert_eq!(
            staged.run_batch(std::slice::from_ref(&x)).unwrap()[0].data(),
            net.run(&x).unwrap().data()
        );
    }

    #[test]
    fn zero_spec_fields_are_rejected() {
        let net = compiled(6);
        assert!(matches!(
            ShardPlan::new(&net, &ShardSpec::tensor(0)),
            Err(NnError::ShardConfig { .. })
        ));
        assert!(matches!(
            net.with_pipeline(0, 1),
            Err(NnError::ShardConfig { .. })
        ));
        assert!(matches!(
            net.with_pipeline(1, 0),
            Err(NnError::ShardConfig { .. })
        ));
        assert!(matches!(
            ShardedStep::concat("empty", Vec::new()),
            Err(NnError::ShardConfig { .. })
        ));
    }

    #[test]
    fn sum_combiner_is_deterministic_and_shape_checked() {
        struct Const(f32);
        impl PlanStep for Const {
            fn name(&self) -> &'static str {
                "const"
            }
            fn run(&self, x: &Tensor, _s: &mut ActivationScratch) -> Result<Tensor> {
                Ok(x.map(|_| self.0))
            }
        }
        let step =
            ShardedStep::sum("sum", vec![Box::new(Const(1.0)), Box::new(Const(2.5))]).unwrap();
        assert_eq!(step.combiner(), ShardCombiner::SumFixedOrder);
        assert_eq!(step.shards(), 2);
        let y = step
            .run(&Tensor::ones(&[2, 2]), &mut ActivationScratch::new())
            .unwrap();
        assert_eq!(y.data(), &[3.5; 4]);
    }
}
