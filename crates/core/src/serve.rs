//! Online serving front end: a bounded submission queue and a
//! coalescing dynamic batcher over a compiled model.
//!
//! The compiled plans ([`CompiledNetwork`]) are `Sync` and lock-free,
//! but a production server must turn a stream of *concurrent single
//! requests* into the larger batches that amortize best
//! (`BENCH_serving.json`: ~1.1 ms/item at batch 32 vs ~2.5 ms at
//! batch 1). [`ModelServer`] is that scheduler:
//!
//! - **bounded queue + admission control** — at most
//!   [`ServerConfig::queue_capacity`] requests wait at once; a submit
//!   against a full queue is *rejected* with a typed error
//!   ([`ServeError::QueueFull`]) instead of growing without bound;
//! - **coalescing dynamic batcher** — pending requests are flushed to a
//!   worker as one batch when either [`ServerConfig::max_batch`] have
//!   accumulated or the oldest has waited
//!   [`ServerConfig::max_delay`], whichever comes first;
//! - **per-request accounting** — every response carries its queue
//!   wait, the batch size it joined and the batch's service time
//!   ([`RequestStats`]), aggregated into [`ServerStats`].
//!
//! ## Policy is separated from time
//!
//! Every flush rule lives in [`BatchPolicy`], a **pure state machine**:
//! `on_submit`/`on_tick` take the current time as a plain value and
//! return a [`FlushDecision`]; nothing inside sleeps, spawns or reads a
//! wall clock. Time itself comes from an injected [`Clock`], so unit
//! tests drive the policy (and even a whole server) with a
//! [`VirtualClock`] that only moves when the test says so — flush and
//! deadline behaviour is asserted deterministically, with no
//! sleep-based timing. The real server wires the same policy to a
//! [`SystemClock`] and worker threads.
//!
//! ## Bit-identity
//!
//! Batching must not change anyone's answer: coalescing N users'
//! requests into one flush returns each user exactly the bits they
//! would get from a lone eager forward of their own input.
//!
//! - [`BatchMode::PerItem`] (the default) runs each request through
//!   [`CompiledNetwork::run_with`] individually inside the flush —
//!   bit-identity is inherited directly from the compiled-plan
//!   contract (`run` equals `Sequential::forward` to the last bit),
//!   for **every** plan.
//! - [`BatchMode::Stack`] concatenates the requests' rows into one
//!   GEMM-sized activation, runs the plan once, and splits the output
//!   rows back out. For **row-independent** plans (Dense / ReLU /
//!   LayerNorm stacks, batch-dim convolutions — anything where row `i`
//!   of the output depends only on row `i` of the input) this is
//!   bit-identical too: BFP quantizes activation groups per row, the
//!   packed kernels compute each output row independently, and the
//!   parallel layer never splits `k`. Plans that mix rows (e.g. raw
//!   `SelfAttention` over a sequence) must use `PerItem`; `Stack` is
//!   opt-in for exactly this reason. The concurrent load harness
//!   (`tests/serving_load.rs`) asserts the equality
//!   mechanically on every engine.
//!
//! Sharded plans need no special casing here: a tensor- or
//! pipeline-parallel placement ([`mirage_nn::shard::ShardPlan`],
//! [`ModelSession::load_sharded`](crate::session::ModelSession::load_sharded))
//! is itself a [`CompiledNetwork`], so the server routes batches
//! through sharded plans unchanged — and the shard layer's own
//! bit-identity contract keeps every coalesced response equal to the
//! lone unsharded forward.
//!
//! ## Faults are accounted, corrected, or typed — never silent
//!
//! When the compiled plan runs over fault-injected engines
//! ([`mirage_tensor::faults::FaultyEngine`], or an RRNS-protected
//! [`mirage_tensor::engines::ProtectedRnsBfpEngine`] with an armed
//! injector), every model execution runs inside a
//! [`FaultScope`](mirage_tensor::faults::FaultScope): the corruptions
//! injected into that run — and what the protection layer detected,
//! corrected, or could not correct — land in the response's
//! [`RequestStats::faults`] and aggregate into [`ServerStats::faults`]
//! per flush. A protected plan that hits an uncorrectable corruption
//! answers that request with [`ServeError::Uncorrectable`] (the worker
//! and its batchmates survive, exactly like the panic firewall); with
//! every injection rate at zero the fault machinery is inert and the
//! bit-identity contract above is unchanged.
//!
//! ```
//! use mirage_core::serve::{ModelServer, ServerConfig};
//! use mirage_core::Mirage;
//! use mirage_nn::layers::{Dense, Relu};
//! use mirage_nn::Sequential;
//! use mirage_tensor::Tensor;
//! use rand::SeedableRng;
//! use std::sync::Arc;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let mut net = Sequential::new();
//! net.push(Dense::new(16, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 4, &mut rng));
//!
//! let mirage = Mirage::paper_default();
//! let engines = mirage.training_engines();
//! let eager = net.forward(&Tensor::ones(&[1, 16]), &engines)?;
//!
//! let compiled = Arc::new(net.compile(&engines)?);
//! let server = ModelServer::new(compiled, ServerConfig::default())?;
//! let response = server.infer(Tensor::ones(&[1, 16]))?;
//! assert_eq!(response.output.data(), eager.data()); // batching never changes bits
//! assert_eq!(response.stats.batch_size, 1);
//! server.join(); // drains in-flight work, then stops the workers
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use mirage_nn::{CompiledNetwork, NnError};
use mirage_rns::RnsError;
use mirage_tensor::faults::{FaultCounts, FaultScope};
use mirage_tensor::{ActivationScratch, Tensor, TensorError};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a server or session mutex, recovering from poisoning: the
/// guarded state is only mutated through operations that keep it
/// structurally valid (single `HashMap`/queue operations), and the
/// worker loop catches request panics before they can unwind through
/// the lock, so continuing on the intact state is always safe (the
/// serving path is panic-free by contract; see `mirage-lint`'s
/// `panic-in-serving` rule).
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

// ───────────────────────────── time sources ─────────────────────────────

/// A monotonic time source, expressed as the [`Duration`] since the
/// clock's own epoch.
///
/// The batcher never reads wall time directly: every rule in
/// [`BatchPolicy`] takes `now` as a value, and [`ModelServer`] obtains
/// that value from an injected `Clock`. Production uses
/// [`SystemClock`]; deterministic tests use [`VirtualClock`] and
/// advance it explicitly.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// The current time as a duration since this clock's epoch.
    fn now(&self) -> Duration;
}

/// The real monotonic clock ([`Instant`]-backed), anchored at
/// construction.
#[derive(Debug)]
pub struct SystemClock {
    epoch: Instant,
}

impl SystemClock {
    /// A clock whose epoch is "now".
    pub fn new() -> Self {
        SystemClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.epoch.elapsed()
    }
}

/// A manually-advanced clock for deterministic tests: time moves only
/// when the test calls [`VirtualClock::advance`] (or
/// [`VirtualClock::set`]), so deadline behaviour is asserted without a
/// single sleep.
///
/// When a [`ModelServer`] runs on a virtual clock, advance the clock
/// and then [`ModelServer::poke`] it so parked workers re-read the
/// time.
#[derive(Debug, Default)]
pub struct VirtualClock {
    now: Mutex<Duration>,
}

impl VirtualClock {
    /// A clock frozen at its epoch.
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// Moves time forward by `by`.
    pub fn advance(&self, by: Duration) {
        let mut now = lock_recover(&self.now);
        *now = now.saturating_add(by);
    }

    /// Jumps time to `to` (since the epoch). Time never moves backwards:
    /// a `to` earlier than the current reading is ignored.
    pub fn set(&self, to: Duration) {
        let mut now = lock_recover(&self.now);
        if to > *now {
            *now = to;
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> Duration {
        *lock_recover(&self.now)
    }
}

// ──────────────────────────── batch policy ─────────────────────────────

/// What the batcher should do next, as decided by [`BatchPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushDecision {
    /// Take a batch now (either `max_batch` requests are pending or the
    /// oldest pending request has reached its deadline).
    Flush,
    /// Nothing is due yet: re-evaluate at this time (the oldest pending
    /// request's deadline) or when a new request arrives.
    WaitUntil(Duration),
    /// The queue is empty: wait for a submission.
    Idle,
}

/// The outcome of offering a request to [`BatchPolicy::on_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitDecision {
    /// The request was admitted to the queue; the enclosed decision is
    /// `on_tick` evaluated immediately after admission.
    Admitted(FlushDecision),
    /// The bounded queue is at capacity — admission control rejects the
    /// request rather than queueing without bound.
    Rejected,
}

/// The coalescing dynamic-batching rules as a **pure state machine**.
///
/// The policy tracks one FIFO of per-request deadlines (arrival +
/// `max_delay`) and answers two questions — "may this request join the
/// queue?" ([`BatchPolicy::on_submit`]) and "what should a worker do
/// now?" ([`BatchPolicy::on_tick`]) — from a caller-supplied `now`. It
/// never reads a clock, sleeps or spawns, so every flush rule is
/// unit-testable with a [`VirtualClock`] (see the property test
/// `crates/core/tests/serve_policy.rs`):
///
/// - flush when `max_batch` requests are pending, **or** when the
///   oldest pending request has waited `max_delay` — whichever first;
/// - a flush ([`BatchPolicy::on_flush`]) takes the `min(pending,
///   max_batch)` oldest requests, preserving FIFO order;
/// - at most `capacity` requests pend at once; submits beyond that are
///   rejected ([`SubmitDecision::Rejected`]).
///
/// [`ModelServer`] drives one `BatchPolicy` from its worker threads,
/// keeping its request queue in lockstep with the policy's deadline
/// queue under one mutex.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    max_batch: usize,
    max_delay: Duration,
    capacity: usize,
    /// Deadline (arrival + `max_delay`) of each pending request, FIFO.
    deadlines: VecDeque<Duration>,
}

impl BatchPolicy {
    /// A policy flushing at `max_batch` coalesced requests or after the
    /// oldest has waited `max_delay`, admitting at most `capacity`
    /// pending requests. A `max_batch` of 0 is treated as 1 (a batch
    /// cannot be empty); `capacity` 0 is legal and rejects every
    /// submit.
    pub fn new(max_batch: usize, max_delay: Duration, capacity: usize) -> Self {
        BatchPolicy {
            max_batch: max_batch.max(1),
            max_delay,
            capacity,
            deadlines: VecDeque::new(),
        }
    }

    /// Number of requests currently pending.
    pub fn pending(&self) -> usize {
        self.deadlines.len()
    }

    /// The flush-size ceiling.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The per-request deadline delay.
    pub fn max_delay(&self) -> Duration {
        self.max_delay
    }

    /// The admission-control queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers one request arriving at `now`. On admission the request's
    /// deadline `now + max_delay` joins the FIFO and the returned
    /// decision is [`BatchPolicy::on_tick`] re-evaluated (so the caller
    /// learns immediately whether the arrival completed a batch).
    pub fn on_submit(&mut self, now: Duration) -> SubmitDecision {
        if self.deadlines.len() >= self.capacity {
            return SubmitDecision::Rejected;
        }
        self.deadlines.push_back(now.saturating_add(self.max_delay));
        SubmitDecision::Admitted(self.on_tick(now))
    }

    /// What a worker should do at time `now`: flush (batch full or
    /// oldest deadline reached), wait until the oldest deadline, or
    /// idle on an empty queue.
    pub fn on_tick(&self, now: Duration) -> FlushDecision {
        match self.deadlines.front() {
            None => FlushDecision::Idle,
            Some(&oldest) => {
                if self.deadlines.len() >= self.max_batch || now >= oldest {
                    FlushDecision::Flush
                } else {
                    FlushDecision::WaitUntil(oldest)
                }
            }
        }
    }

    /// Commits a flush: removes the `min(pending, max_batch)` oldest
    /// requests from the FIFO and returns how many were taken (the
    /// caller dequeues exactly that many payloads, preserving order).
    pub fn on_flush(&mut self) -> usize {
        let take = self.deadlines.len().min(self.max_batch);
        for _ in 0..take {
            let _ = self.deadlines.pop_front();
        }
        take
    }
}

// ────────────────────────── config and errors ──────────────────────────

/// How a flush's requests are executed against the compiled plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Run each request individually (one `run_with` per request,
    /// sharing a scratch arena). Bit-identical to a lone eager forward
    /// for **every** plan; coalescing still amortizes wake-ups, lock
    /// traffic and scratch reuse.
    #[default]
    PerItem,
    /// Concatenate the requests' rows into one stacked activation, run
    /// the plan once, split the output rows back out — the batch shape
    /// the quantized GEMM kernels amortize best. Bit-identical for
    /// row-independent plans (see the [module docs](self)); plans that
    /// mix rows across the batch dimension must use
    /// [`BatchMode::PerItem`]. Batches whose requests disagree in rank,
    /// width, or that a stacked run cannot serve row-for-row fall back
    /// to per-item execution, so a malformed request only ever fails
    /// itself.
    Stack,
}

/// Configuration for a [`ModelServer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Flush as soon as this many requests have coalesced (also the
    /// size cap of every batch). Must be at least 1.
    pub max_batch: usize,
    /// Flush when the oldest pending request has waited this long, even
    /// if the batch is not full.
    pub max_delay: Duration,
    /// Admission control: at most this many requests may wait in the
    /// queue; further submits are rejected with
    /// [`ServeError::QueueFull`]. A capacity of 0 rejects every submit.
    pub queue_capacity: usize,
    /// Number of worker threads serving flushes. Must be at least 1.
    pub workers: usize,
    /// How a flush executes its requests (see [`BatchMode`]).
    pub batch_mode: BatchMode,
}

impl Default for ServerConfig {
    /// Batch up to 32, 2 ms coalescing window, 1024-deep queue, one
    /// worker, per-item execution.
    fn default() -> Self {
        ServerConfig {
            max_batch: 32,
            max_delay: Duration::from_millis(2),
            queue_capacity: 1024,
            workers: 1,
            batch_mode: BatchMode::PerItem,
        }
    }
}

impl ServerConfig {
    /// Sets the flush size.
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Sets the coalescing deadline.
    pub fn with_max_delay(mut self, max_delay: Duration) -> Self {
        self.max_delay = max_delay;
        self
    }

    /// Sets the admission-control queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the batch execution mode.
    pub fn with_batch_mode(mut self, mode: BatchMode) -> Self {
        self.batch_mode = mode;
        self
    }

    /// Checks the configuration is serveable.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] when `max_batch` or
    /// `workers` is 0 (`queue_capacity` 0 is legal: it makes admission
    /// control reject every request, which some tests rely on).
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_batch must be at least 1".to_string(),
            });
        }
        if self.workers == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "workers must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// Errors produced by the online serving front end. Every variant is a
/// *response*, never a panic: the serving path is panic-free by
/// machine-checked contract (`mirage-lint`'s `panic-in-serving` rule
/// covers this module).
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control rejected the request: the bounded queue
    /// already holds `capacity` requests.
    QueueFull {
        /// The configured queue bound.
        capacity: usize,
    },
    /// The server is shutting down (or has shut down); new requests are
    /// no longer admitted. In-flight requests are still drained.
    ShuttingDown,
    /// The [`ServerConfig`] cannot be served (e.g. `max_batch` 0).
    InvalidConfig {
        /// What is wrong with the configuration.
        reason: String,
    },
    /// No model is registered under this name
    /// ([`crate::ModelSession::server`]).
    UnknownModel {
        /// The name that was looked up.
        name: String,
    },
    /// The compiled model returned an error for this request.
    Model(NnError),
    /// The model **panicked** while serving this request. The panic was
    /// caught at the batch boundary: the worker survives, every other
    /// request in the batch is still answered, and the panic payload is
    /// reported here.
    Panicked {
        /// The stringified panic payload.
        message: String,
    },
    /// The RRNS protection layer detected a corruption in this
    /// request's execution that it could not correct. The request is
    /// answered with this typed error instead of a silently wrong
    /// output; the counts cover this request's execution up to the
    /// abort.
    Uncorrectable {
        /// Corrupted group results detected during this execution.
        detected: u64,
        /// Corruptions corrected exactly before the abort.
        corrected: u64,
    },
    /// The worker dropped the response channel without answering
    /// (never expected: workers drain the queue even on shutdown).
    Disconnected,
    /// A worker thread could not be spawned.
    WorkerSpawn {
        /// The OS error message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull { capacity } => {
                write!(f, "submission queue is full (capacity {capacity})")
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::InvalidConfig { reason } => {
                write!(f, "invalid server configuration: {reason}")
            }
            ServeError::UnknownModel { name } => {
                write!(f, "no model registered under {name:?}")
            }
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Panicked { message } => {
                write!(f, "model panicked while serving the batch: {message}")
            }
            ServeError::Uncorrectable {
                detected,
                corrected,
            } => {
                write!(
                    f,
                    "uncorrectable corruption detected by RRNS protection \
                     ({detected} detected, {corrected} corrected before the abort)"
                )
            }
            ServeError::Disconnected => {
                write!(f, "worker dropped the response channel without answering")
            }
            ServeError::WorkerSpawn { message } => {
                write!(f, "could not spawn a worker thread: {message}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Model(e) => Some(e),
            _ => None,
        }
    }
}

// ─────────────────────── requests and responses ────────────────────────

/// Per-request accounting attached to every [`Response`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RequestStats {
    /// Time between submission and the flush that took this request.
    pub queue_wait: Duration,
    /// Number of requests in the batch this one was coalesced into.
    pub batch_size: usize,
    /// Execution time of that batch against the compiled model.
    pub service_time: Duration,
    /// Fault events of the execution that produced this response:
    /// injected corruptions and what the protection layer did about
    /// them. Per-item execution attributes exactly this request's run;
    /// a stacked flush shares one execution, so its counts appear on
    /// every member (the server-wide totals count that execution once).
    pub faults: FaultCounts,
}

/// A served request: the model output plus its accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The model output for this request's input alone — bit-identical
    /// to an eager per-request forward, regardless of what the request
    /// was batched with.
    pub output: Tensor,
    /// Queue/batch/service accounting for this request.
    pub stats: RequestStats,
}

type Delivery = Result<Response, ServeError>;

/// A handle to a submitted request's future response.
#[derive(Debug)]
pub struct PendingResponse {
    rx: mpsc::Receiver<Delivery>,
}

impl PendingResponse {
    /// Blocks until the request is served (or rejected by the model).
    ///
    /// # Errors
    ///
    /// Propagates the per-request [`ServeError`];
    /// [`ServeError::Disconnected`] if the worker vanished without
    /// answering (never expected — shutdown drains the queue).
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }

    /// Non-blocking poll: `None` while the request is still queued or
    /// executing.
    pub fn try_wait(&self) -> Option<Result<Response, ServeError>> {
        match self.rx.try_recv() {
            Ok(delivery) => Some(delivery),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Disconnected)),
        }
    }
}

// ──────────────────────────── server stats ─────────────────────────────

/// Aggregated server-side accounting, cheap to clone out via
/// [`ModelServer::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests offered to [`ModelServer::submit`].
    pub submitted: u64,
    /// Requests rejected by admission control or shutdown.
    pub rejected: u64,
    /// Requests answered with a model output.
    pub completed: u64,
    /// Requests answered with an error.
    pub failed: u64,
    /// Batches flushed.
    pub batches: u64,
    /// Batches flushed because `max_batch` requests had coalesced.
    pub full_flushes: u64,
    /// Batches flushed because the oldest request reached `max_delay`.
    pub deadline_flushes: u64,
    /// Batches flushed by the shutdown drain.
    pub drain_flushes: u64,
    /// Largest batch served.
    pub max_batch_seen: usize,
    /// Sum of per-request queue waits (mean = `total_queue_wait /
    /// (completed + failed)`).
    pub total_queue_wait: Duration,
    /// Largest single queue wait.
    pub max_queue_wait: Duration,
    /// Sum of batch service times (per batch, not per request).
    pub total_service_time: Duration,
    /// Server-wide fault accounting, aggregated per flush: corruptions
    /// injected into served executions, and how many group results the
    /// RRNS protection layer detected, corrected, or had to surface as
    /// [`ServeError::Uncorrectable`]. Each execution is counted once —
    /// a stacked flush contributes its single run, a per-item flush the
    /// sum of its members' runs, and a stacked run that aborted and fell
    /// back to per-item contributes its own counts beside its members'
    /// re-runs.
    pub faults: FaultCounts,
}

impl ServerStats {
    /// Requests answered (completed + failed).
    pub fn answered(&self) -> u64 {
        self.completed + self.failed
    }

    /// Mean coalesced batch size (0 when nothing has been served).
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.answered() as f64 / self.batches as f64
        }
    }

    /// Mean per-request queue wait (zero when nothing has been served).
    pub fn mean_queue_wait(&self) -> Duration {
        let answered = self.answered();
        if answered == 0 {
            Duration::ZERO
        } else {
            self.total_queue_wait / answered as u32
        }
    }
}

// ──────────────────────────── the server ───────────────────────────────

/// Why a batch was flushed (recorded into [`ServerStats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    Full,
    Deadline,
    Drain,
}

/// One queued request: the input, its submission time, and the channel
/// its answer travels back on.
struct Pending {
    input: Tensor,
    submitted: Duration,
    tx: mpsc::Sender<Delivery>,
}

/// State guarded by the server mutex. `policy` and `queue` move in
/// lockstep: one policy deadline per queued request, FIFO.
struct State {
    policy: BatchPolicy,
    queue: VecDeque<Pending>,
    stats: ServerStats,
    shutdown: bool,
}

struct Shared {
    model: Arc<CompiledNetwork>,
    config: ServerConfig,
    clock: Arc<dyn Clock>,
    state: Mutex<State>,
    work: Condvar,
}

/// An online serving front end over one compiled model: bounded
/// submission queue, coalescing dynamic batcher, admission control and
/// per-request accounting. See the [module docs](self) for the design
/// and the bit-identity contract.
///
/// The server is `Sync`: any number of client threads may
/// [`submit`](ModelServer::submit) concurrently. Dropping the server
/// (or calling [`join`](ModelServer::join)) shuts it down gracefully:
/// new submits are rejected with [`ServeError::ShuttingDown`] while
/// every already-admitted request is still drained and answered.
pub struct ModelServer {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ModelServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelServer")
            .field("config", &self.shared.config)
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl ModelServer {
    /// Starts a server over `model` on the real monotonic clock.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an unserveable
    /// configuration and [`ServeError::WorkerSpawn`] if the OS refuses
    /// a worker thread.
    pub fn new(model: Arc<CompiledNetwork>, config: ServerConfig) -> Result<Self, ServeError> {
        ModelServer::with_clock(model, config, Arc::new(SystemClock::new()))
    }

    /// Starts a server on an injected [`Clock`] — with a
    /// [`VirtualClock`], deadline behaviour becomes deterministically
    /// testable: advance the clock, [`poke`](ModelServer::poke) the
    /// server, and block on the response (no sleeps anywhere).
    ///
    /// # Errors
    ///
    /// Same as [`ModelServer::new`].
    pub fn with_clock(
        model: Arc<CompiledNetwork>,
        config: ServerConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<Self, ServeError> {
        config.validate()?;
        let shared = Arc::new(Shared {
            model,
            state: Mutex::new(State {
                policy: BatchPolicy::new(config.max_batch, config.max_delay, config.queue_capacity),
                queue: VecDeque::new(),
                stats: ServerStats::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            clock,
            config,
        });
        let mut workers = Vec::with_capacity(shared.config.workers);
        for i in 0..shared.config.workers {
            let worker_shared = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("mirage-serve-{i}"))
                .spawn(move || worker_loop(&worker_shared))
                .map_err(|e| ServeError::WorkerSpawn {
                    message: e.to_string(),
                })?;
            workers.push(handle);
        }
        Ok(ModelServer { shared, workers })
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    /// Submits one request, returning immediately with a handle to its
    /// future response. The request's answer is bit-identical to a lone
    /// eager forward of `input`, whatever it gets batched with.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::QueueFull`] when admission control rejects
    /// the request (bounded queue at capacity) and
    /// [`ServeError::ShuttingDown`] after shutdown began. Both are
    /// immediate — a rejected request never blocks.
    pub fn submit(&self, input: Tensor) -> Result<PendingResponse, ServeError> {
        let mut state = lock_recover(&self.shared.state);
        state.stats.submitted += 1;
        if state.shutdown {
            state.stats.rejected += 1;
            return Err(ServeError::ShuttingDown);
        }
        let now = self.shared.clock.now();
        match state.policy.on_submit(now) {
            SubmitDecision::Rejected => {
                state.stats.rejected += 1;
                Err(ServeError::QueueFull {
                    capacity: self.shared.config.queue_capacity,
                })
            }
            SubmitDecision::Admitted(_) => {
                let (tx, rx) = mpsc::channel();
                state.queue.push_back(Pending {
                    input,
                    submitted: now,
                    tx,
                });
                drop(state);
                self.shared.work.notify_one();
                Ok(PendingResponse { rx })
            }
        }
    }

    /// Submits one request and blocks until it is served:
    /// `submit(input)?.wait()`.
    ///
    /// # Errors
    ///
    /// Same as [`ModelServer::submit`] plus the per-request
    /// [`ServeError`] from the response itself.
    pub fn infer(&self, input: Tensor) -> Result<Response, ServeError> {
        self.submit(input)?.wait()
    }

    /// A snapshot of the aggregated server stats.
    pub fn stats(&self) -> ServerStats {
        lock_recover(&self.shared.state).stats.clone()
    }

    /// Number of requests currently waiting in the queue.
    pub fn queue_depth(&self) -> usize {
        lock_recover(&self.shared.state).queue.len()
    }

    /// Wakes every parked worker so it re-reads the clock. Only needed
    /// when driving a server on a [`VirtualClock`]: advance the clock,
    /// then poke.
    pub fn poke(&self) {
        self.shared.work.notify_all();
    }

    /// Begins shutdown: new submits are rejected with
    /// [`ServeError::ShuttingDown`], while everything already admitted
    /// is drained and answered. Idempotent; does not block — drop the
    /// server or call [`ModelServer::join`] to wait for the workers.
    pub fn shutdown(&self) {
        let mut state = lock_recover(&self.shared.state);
        state.shutdown = true;
        drop(state);
        self.shared.work.notify_all();
    }

    /// Shuts down and blocks until the workers have drained the queue
    /// and exited. Every admitted request is answered before this
    /// returns.
    pub fn join(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        self.shutdown();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ModelServer {
    /// Graceful shutdown: drains admitted requests, then joins the
    /// workers.
    fn drop(&mut self) {
        self.finish();
    }
}

// ──────────────────────────── worker loop ──────────────────────────────

fn wait<'a>(shared: &'a Shared, guard: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
    shared
        .work
        .wait(guard)
        .unwrap_or_else(PoisonError::into_inner)
}

fn wait_timeout<'a>(
    shared: &'a Shared,
    guard: MutexGuard<'a, State>,
    timeout: Duration,
) -> MutexGuard<'a, State> {
    match shared.work.wait_timeout(guard, timeout) {
        Ok((guard, _)) => guard,
        Err(poisoned) => poisoned.into_inner().0,
    }
}

fn worker_loop(shared: &Shared) {
    let mut scratch = ActivationScratch::new();
    let mut state = lock_recover(&shared.state);
    loop {
        let now = shared.clock.now();
        let decision = state.policy.on_tick(now);
        let draining =
            state.shutdown && decision != FlushDecision::Flush && !state.queue.is_empty();
        if decision == FlushDecision::Flush || draining {
            let reason = if draining {
                FlushReason::Drain
            } else if state.policy.pending() >= shared.config.max_batch {
                FlushReason::Full
            } else {
                FlushReason::Deadline
            };
            let take = state.policy.on_flush().min(state.queue.len());
            let batch: Vec<Pending> = state.queue.drain(..take).collect();
            drop(state);
            if !batch.is_empty() {
                serve_batch(shared, batch, now, reason, &mut scratch);
            }
            state = lock_recover(&shared.state);
            continue;
        }
        if state.shutdown {
            // Queue empty (any flush/drain was handled above): done.
            break;
        }
        state = match decision {
            FlushDecision::Idle => wait(shared, state),
            FlushDecision::WaitUntil(deadline) => {
                let timeout = deadline.saturating_sub(shared.clock.now());
                wait_timeout(shared, state, timeout)
            }
            FlushDecision::Flush => state, // handled above; loop again
        };
    }
}

/// Executes one flushed batch and answers every member. Runs **outside**
/// the server lock; panics from the model are caught here so a worker
/// survives any request.
fn serve_batch(
    shared: &Shared,
    batch: Vec<Pending>,
    taken_at: Duration,
    reason: FlushReason,
    scratch: &mut ActivationScratch,
) {
    let size = batch.len();
    let started = shared.clock.now();
    let (results, flush_faults) = execute(shared, &batch, scratch);
    let service_time = shared.clock.now().saturating_sub(started);

    let mut completed = 0u64;
    let mut failed = 0u64;
    let mut total_wait = Duration::ZERO;
    let mut max_wait = Duration::ZERO;
    let mut deliveries = Vec::with_capacity(size);
    for (pending, (result, faults)) in batch.into_iter().zip(results) {
        let queue_wait = taken_at.saturating_sub(pending.submitted);
        total_wait = total_wait.saturating_add(queue_wait);
        max_wait = max_wait.max(queue_wait);
        let delivery = match result {
            Ok(output) => {
                completed += 1;
                Ok(Response {
                    output,
                    stats: RequestStats {
                        queue_wait,
                        batch_size: size,
                        service_time,
                        faults,
                    },
                })
            }
            Err(e) => {
                failed += 1;
                Err(e)
            }
        };
        deliveries.push((pending.tx, delivery));
    }

    // Account the batch BEFORE answering the clients, so a client that
    // observes its response also observes the stats covering it.
    let mut state = lock_recover(&shared.state);
    let stats = &mut state.stats;
    stats.completed += completed;
    stats.failed += failed;
    stats.batches += 1;
    match reason {
        FlushReason::Full => stats.full_flushes += 1,
        FlushReason::Deadline => stats.deadline_flushes += 1,
        FlushReason::Drain => stats.drain_flushes += 1,
    }
    stats.max_batch_seen = stats.max_batch_seen.max(size);
    stats.total_queue_wait = stats.total_queue_wait.saturating_add(total_wait);
    stats.max_queue_wait = stats.max_queue_wait.max(max_wait);
    stats.total_service_time = stats.total_service_time.saturating_add(service_time);
    stats.faults.accumulate(flush_faults);
    drop(state);

    for (tx, delivery) in deliveries {
        // A client that dropped its handle just doesn't read the answer.
        let _ = tx.send(delivery);
    }
}

/// One request's outcome with the fault counts of the execution that
/// produced it.
type FaultedResult = (Result<Tensor, ServeError>, FaultCounts);

/// Runs the batch under the configured [`BatchMode`]. Stacked execution
/// falls back to per-item whenever the batch cannot be stacked (mixed
/// shapes, model error, or a plan that does not map rows 1:1), so a
/// malformed request only ever fails itself. Returns each member's
/// result with the fault counts of the execution that produced it, plus
/// the flush-level fault total: each execution counted once, an aborted
/// stacked run included.
fn execute(
    shared: &Shared,
    batch: &[Pending],
    scratch: &mut ActivationScratch,
) -> (Vec<FaultedResult>, FaultCounts) {
    let mut flush_faults = FaultCounts::ZERO;
    if shared.config.batch_mode == BatchMode::Stack && batch.len() > 1 {
        let (results, faults) = try_stacked(shared, batch, scratch);
        if let Some(results) = results {
            return (results.into_iter().map(|r| (r, faults)).collect(), faults);
        }
        // The aborted stacked run executed and drew its faults; the
        // per-item re-runs below are further executions of their own.
        flush_faults = faults;
    }
    let results = batch
        .iter()
        .map(|p| {
            let (result, faults) = catch_run(shared, &p.input, scratch);
            flush_faults.accumulate(faults);
            (result, faults)
        })
        .collect();
    (results, flush_faults)
}

/// Stacks the batch's rows into one activation, runs the plan once, and
/// splits the output back per request. The results are `None` — "use
/// per-item execution instead" — when shapes are heterogeneous, the
/// stacked run errors/panics, or the output does not map rows 1:1. (A
/// stacked run aborted by an uncorrectable corruption falls back the
/// same way: the per-item re-runs draw fresh faults, so only requests
/// whose own execution is corrupted fail.) The fault counts are the
/// stacked execution's, whether or not its output is used — zero when
/// the batch could not be stacked and nothing ran.
fn try_stacked(
    shared: &Shared,
    batch: &[Pending],
    scratch: &mut ActivationScratch,
) -> (Option<Vec<Result<Tensor, ServeError>>>, FaultCounts) {
    let Some(stacked) = stack_rows(batch) else {
        return (None, FaultCounts::ZERO);
    };
    let (result, faults) = catch_run(shared, &stacked, scratch);
    let results = result.ok().and_then(|output| split_rows(batch, &output));
    (results, faults)
}

/// The batch's rank-2 inputs stacked row-wise into one activation, or
/// `None` when their shapes differ or hold no rows.
fn stack_rows(batch: &[Pending]) -> Option<Tensor> {
    let first = batch.first()?;
    if first.input.rank() != 2 {
        return None;
    }
    let cols = *first.input.shape().get(1)?;
    let mut total_rows = 0usize;
    for pending in batch {
        if pending.input.rank() != 2 || pending.input.shape().get(1) != Some(&cols) {
            return None;
        }
        total_rows += *pending.input.shape().first()?;
    }
    if total_rows == 0 {
        return None;
    }
    let mut data = Vec::with_capacity(total_rows * cols);
    for pending in batch {
        data.extend_from_slice(pending.input.data());
    }
    Tensor::from_vec(data, &[total_rows, cols]).ok()
}

/// Splits a stacked run's output back into one result per request, or
/// `None` when the plan does not preserve the row dimension (e.g. a
/// pooling head), so stacking cannot be split back.
fn split_rows(batch: &[Pending], output: &Tensor) -> Option<Vec<Result<Tensor, ServeError>>> {
    let total_rows: usize = batch
        .iter()
        .map(|p| p.input.shape().first().copied().unwrap_or(0))
        .sum();
    if output.rank() != 2 || output.shape().first() != Some(&total_rows) {
        return None;
    }
    let out_cols = *output.shape().get(1)?;
    let out_data = output.data();
    let mut results = Vec::with_capacity(batch.len());
    let mut row = 0usize;
    for pending in batch {
        let rows = pending.input.shape().first().copied().unwrap_or(0);
        let slice = out_data.get(row * out_cols..(row + rows) * out_cols)?;
        results.push(
            Tensor::from_vec(slice.to_vec(), &[rows, out_cols])
                .map_err(|e| ServeError::Model(NnError::Tensor(e))),
        );
        row += rows;
    }
    Some(results)
}

/// One model execution with a panic firewall and a fault-accounting
/// scope. A panicking plan step becomes [`ServeError::Panicked`] for
/// the affected request instead of killing the worker (and hanging
/// every queued client); the scratch arena is replaced after a caught
/// panic — its buffers may be stale. Every fault event recorded during
/// the run (injections by a `FaultyEngine` or armed protected engine,
/// detections/corrections by the RRNS layer) is captured in the
/// returned [`FaultCounts`], and an RRNS abort is mapped to the typed
/// [`ServeError::Uncorrectable`].
fn catch_run(
    shared: &Shared,
    x: &Tensor,
    scratch: &mut ActivationScratch,
) -> (Result<Tensor, ServeError>, FaultCounts) {
    let scope = FaultScope::begin();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        shared.model.run_with(x, scratch)
    }));
    let faults = scope.finish();
    let result = match outcome {
        Ok(Ok(output)) => Ok(output),
        Ok(Err(e)) => Err(model_error(e, faults)),
        Err(payload) => {
            *scratch = ActivationScratch::new();
            Err(ServeError::Panicked {
                message: panic_message(payload.as_ref()),
            })
        }
    };
    (result, faults)
}

/// Maps a model error onto its serving error: an uncorrectable RRNS
/// abort becomes [`ServeError::Uncorrectable`] carrying this
/// execution's detection/correction counts; everything else stays a
/// [`ServeError::Model`].
fn model_error(e: NnError, faults: FaultCounts) -> ServeError {
    match e {
        NnError::Tensor(TensorError::Rns(RnsError::Uncorrectable)) => ServeError::Uncorrectable {
            detected: faults.detected,
            corrected: faults.corrected,
        },
        other => ServeError::Model(other),
    }
}

/// Best-effort stringification of a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    /// Flush rules under a virtual clock: pure, deterministic, no
    /// sleeps. (The arbitrary-sequence version of these checks is the
    /// property test in `crates/core/tests/serve_policy.rs`.)
    #[test]
    fn flushes_when_batch_fills() {
        let mut p = BatchPolicy::new(3, 10 * MS, 100);
        let now = Duration::ZERO;
        assert_eq!(p.on_tick(now), FlushDecision::Idle);
        assert_eq!(
            p.on_submit(now),
            SubmitDecision::Admitted(FlushDecision::WaitUntil(10 * MS))
        );
        assert_eq!(
            p.on_submit(now),
            SubmitDecision::Admitted(FlushDecision::WaitUntil(10 * MS))
        );
        // Third arrival completes the batch: flush on count, not time.
        assert_eq!(
            p.on_submit(now),
            SubmitDecision::Admitted(FlushDecision::Flush)
        );
        assert_eq!(p.on_flush(), 3);
        assert_eq!(p.pending(), 0);
        assert_eq!(p.on_tick(now), FlushDecision::Idle);
    }

    #[test]
    fn flushes_at_the_deadline_even_for_one_request() {
        let mut p = BatchPolicy::new(32, 10 * MS, 100);
        assert_eq!(
            p.on_submit(2 * MS),
            SubmitDecision::Admitted(FlushDecision::WaitUntil(12 * MS))
        );
        // Before the deadline: wait exactly until it.
        assert_eq!(p.on_tick(11 * MS), FlushDecision::WaitUntil(12 * MS));
        // At/after the deadline: flush, batch of one.
        assert_eq!(p.on_tick(12 * MS), FlushDecision::Flush);
        assert_eq!(p.on_flush(), 1);
    }

    #[test]
    fn deadline_is_the_oldest_requests() {
        let mut p = BatchPolicy::new(32, 10 * MS, 100);
        let _ = p.on_submit(Duration::ZERO);
        let _ = p.on_submit(7 * MS);
        // The wait target is the OLDEST deadline, not the newest.
        assert_eq!(p.on_tick(8 * MS), FlushDecision::WaitUntil(10 * MS));
        assert_eq!(p.on_tick(10 * MS), FlushDecision::Flush);
        // Both requests go in the same deadline flush.
        assert_eq!(p.on_flush(), 2);
    }

    #[test]
    fn flush_takes_at_most_max_batch_and_rearms() {
        let mut p = BatchPolicy::new(2, 10 * MS, 100);
        for _ in 0..5 {
            let _ = p.on_submit(Duration::ZERO);
        }
        assert_eq!(p.pending(), 5);
        assert_eq!(p.on_flush(), 2);
        assert_eq!(p.on_flush(), 2);
        // The remainder re-arms as its own (eventually deadline) batch.
        assert_eq!(p.on_tick(Duration::ZERO), FlushDecision::WaitUntil(10 * MS));
        assert_eq!(p.on_tick(10 * MS), FlushDecision::Flush);
        assert_eq!(p.on_flush(), 1);
    }

    #[test]
    fn capacity_rejects_and_flush_frees_space() {
        let mut p = BatchPolicy::new(100, 10 * MS, 2);
        assert!(matches!(
            p.on_submit(Duration::ZERO),
            SubmitDecision::Admitted(_)
        ));
        assert!(matches!(
            p.on_submit(Duration::ZERO),
            SubmitDecision::Admitted(_)
        ));
        assert_eq!(p.on_submit(Duration::ZERO), SubmitDecision::Rejected);
        let _ = p.on_tick(20 * MS);
        assert_eq!(p.on_flush(), 2);
        assert!(matches!(p.on_submit(20 * MS), SubmitDecision::Admitted(_)));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut p = BatchPolicy::new(4, MS, 0);
        assert_eq!(p.on_submit(Duration::ZERO), SubmitDecision::Rejected);
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn zero_max_batch_is_clamped_to_one() {
        let mut p = BatchPolicy::new(0, MS, 8);
        assert_eq!(p.max_batch(), 1);
        assert_eq!(
            p.on_submit(Duration::ZERO),
            SubmitDecision::Admitted(FlushDecision::Flush)
        );
        assert_eq!(p.on_flush(), 1);
    }

    #[test]
    fn virtual_clock_is_monotone() {
        let clock = VirtualClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.advance(5 * MS);
        clock.set(3 * MS); // backwards jumps are ignored
        assert_eq!(clock.now(), 5 * MS);
        clock.set(9 * MS);
        assert_eq!(clock.now(), 9 * MS);
    }
}

#[cfg(test)]
mod server_tests {
    use super::*;
    use mirage_nn::compile::{EagerStep, PlanStep};
    use mirage_nn::layers::{Dense, Layer, Relu};
    use mirage_nn::{Engines, Sequential};
    use mirage_tensor::engines::ExactEngine;
    use rand::SeedableRng;

    fn mlp(seed: u64) -> Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut net = Sequential::new();
        net.push(Dense::new(16, 12, &mut rng));
        net.push(Relu::new());
        net.push(Dense::new(12, 4, &mut rng));
        net
    }

    fn compiled(seed: u64) -> (Sequential, Engines, Arc<CompiledNetwork>) {
        let net = mlp(seed);
        let engines = Engines::uniform(ExactEngine);
        let plan = Arc::new(net.compile(&engines).unwrap());
        (net, engines, plan)
    }

    #[test]
    fn zero_capacity_queue_rejects_with_typed_error_and_no_panic() {
        let (_, _, plan) = compiled(1);
        let server =
            ModelServer::new(plan, ServerConfig::default().with_queue_capacity(0)).unwrap();
        let err = server.submit(Tensor::ones(&[1, 16])).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 0 });
        assert_eq!(server.stats().rejected, 1);
        server.join();
    }

    #[test]
    fn full_queue_rejects_while_the_clock_is_frozen() {
        let (_, _, plan) = compiled(2);
        // Frozen virtual clock + large max_batch: nothing can flush, so
        // the queue bound is exercised deterministically.
        let clock = Arc::new(VirtualClock::new());
        let config = ServerConfig::default()
            .with_max_batch(64)
            .with_max_delay(Duration::from_secs(3600))
            .with_queue_capacity(2);
        let server = ModelServer::with_clock(plan, config, clock.clone()).unwrap();
        let a = server.submit(Tensor::ones(&[1, 16])).unwrap();
        let b = server.submit(Tensor::ones(&[1, 16])).unwrap();
        let err = server.submit(Tensor::ones(&[1, 16])).unwrap_err();
        assert_eq!(err, ServeError::QueueFull { capacity: 2 });
        // Drain deterministically: advance past the deadline and poke.
        clock.advance(Duration::from_secs(7200));
        server.poke();
        assert_eq!(a.wait().unwrap().stats.batch_size, 2);
        assert_eq!(b.wait().unwrap().stats.batch_size, 2);
        let stats = server.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 2);
        server.join();
    }

    #[test]
    fn submit_after_shutdown_errors_cleanly() {
        let (_, _, plan) = compiled(3);
        let server = ModelServer::new(plan, ServerConfig::default()).unwrap();
        server.shutdown();
        let err = server.submit(Tensor::ones(&[1, 16])).unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        server.join();
    }

    #[test]
    fn single_request_flushes_at_the_deadline_without_sleeps() {
        let (mut net, engines, plan) = compiled(4);
        let clock = Arc::new(VirtualClock::new());
        let config = ServerConfig::default()
            .with_max_batch(64)
            .with_max_delay(Duration::from_secs(3600));
        let server = ModelServer::with_clock(plan, config, clock.clone()).unwrap();
        let x = Tensor::full(&[1, 16], 0.25);
        let handle = server.submit(x.clone()).unwrap();
        // Deadline reached on the virtual clock; wake the worker.
        clock.advance(Duration::from_secs(3600));
        server.poke();
        let response = handle.wait().unwrap();
        assert_eq!(response.stats.batch_size, 1);
        assert_eq!(response.stats.queue_wait, Duration::from_secs(3600));
        let eager = net.forward(&x, &engines).unwrap();
        assert_eq!(response.output.data(), eager.data());
        let stats = server.stats();
        assert_eq!(stats.deadline_flushes, 1);
        assert_eq!(stats.full_flushes, 0);
        assert_eq!(stats.max_queue_wait, Duration::from_secs(3600));
        server.join();
    }

    #[test]
    fn full_batch_flushes_on_count_alone_with_frozen_clock() {
        let (mut net, engines, plan) = compiled(5);
        let clock = Arc::new(VirtualClock::new());
        let config = ServerConfig::default()
            .with_max_batch(4)
            .with_max_delay(Duration::from_secs(3600))
            .with_batch_mode(BatchMode::Stack);
        let server = ModelServer::with_clock(plan, config, clock).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(50);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::randn(&[1, 16], 1.0, &mut rng))
            .collect();
        let handles: Vec<PendingResponse> = inputs
            .iter()
            .map(|x| server.submit(x.clone()).unwrap())
            .collect();
        // Time never moves; the 4th submission completes the batch.
        for (x, handle) in inputs.iter().zip(handles) {
            let response = handle.wait().unwrap();
            assert_eq!(response.stats.batch_size, 4);
            let eager = net.forward(x, &engines).unwrap();
            assert_eq!(response.output.data(), eager.data());
        }
        let stats = server.stats();
        assert_eq!(stats.full_flushes, 1);
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.max_batch_seen, 4);
        assert_eq!(stats.mean_batch_size(), 4.0);
        server.join();
    }

    #[test]
    fn drop_drains_admitted_requests() {
        let (_, _, plan) = compiled(6);
        let config = ServerConfig::default()
            .with_max_batch(3)
            .with_max_delay(Duration::from_secs(3600));
        // Virtual clock frozen: only the shutdown drain can serve the
        // last partial batch.
        let server = ModelServer::with_clock(plan, config, Arc::new(VirtualClock::new())).unwrap();
        let handles: Vec<PendingResponse> = (0..5)
            .map(|_| server.submit(Tensor::ones(&[1, 16])).unwrap())
            .collect();
        drop(server); // graceful: drains all 5 before the workers exit
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let (_, _, plan) = compiled(7);
        assert!(matches!(
            ModelServer::new(plan.clone(), ServerConfig::default().with_max_batch(0)),
            Err(ServeError::InvalidConfig { .. })
        ));
        assert!(matches!(
            ModelServer::new(plan, ServerConfig::default().with_workers(0)),
            Err(ServeError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn model_errors_are_responses_not_hangs() {
        let (_, _, plan) = compiled(8);
        let server = ModelServer::new(plan, ServerConfig::default()).unwrap();
        // Wrong input width: the model rejects it, the server reports it.
        let err = server.infer(Tensor::ones(&[1, 7])).unwrap_err();
        assert!(matches!(err, ServeError::Model(_)), "{err:?}");
        assert_eq!(server.stats().failed, 1);
        // The server keeps serving after a failed request.
        assert!(server.infer(Tensor::ones(&[1, 16])).is_ok());
        server.join();
    }

    #[test]
    fn stacked_mode_falls_back_per_item_on_heterogeneous_batches() {
        let (mut net, engines, plan) = compiled(9);
        let clock = Arc::new(VirtualClock::new());
        let config = ServerConfig::default()
            .with_max_batch(2)
            .with_max_delay(Duration::from_secs(3600))
            .with_batch_mode(BatchMode::Stack);
        let server = ModelServer::with_clock(plan, config, clock).unwrap();
        // One well-formed and one malformed request coalesce: the bad
        // one fails alone, the good one is still answered correctly.
        let good_x = Tensor::full(&[1, 16], 0.5);
        let good = server.submit(good_x.clone()).unwrap();
        let bad = server.submit(Tensor::ones(&[1, 9])).unwrap();
        let response = good.wait().unwrap();
        let eager = net.forward(&good_x, &engines).unwrap();
        assert_eq!(response.output.data(), eager.data());
        assert!(matches!(bad.wait(), Err(ServeError::Model(_))));
        server.join();
    }

    /// A custom layer whose forward panics on a sentinel input — wrapped
    /// in an [`EagerStep`], the panic poisons the step's internal mutex.
    #[derive(Clone)]
    struct Trapdoor;

    impl Layer for Trapdoor {
        fn name(&self) -> &'static str {
            "trapdoor"
        }

        fn forward(&mut self, x: &Tensor, _engines: &Engines) -> mirage_nn::Result<Tensor> {
            if x.data().first() == Some(&13.0) {
                panic!("trapdoor sprung");
            }
            Ok(x.clone())
        }

        fn backward(&mut self, d_out: &Tensor, _engines: &Engines) -> mirage_nn::Result<Tensor> {
            Ok(d_out.clone())
        }

        fn compile(&self, engines: &Engines) -> mirage_nn::Result<Box<dyn PlanStep>> {
            Ok(EagerStep::boxed(self.clone(), engines))
        }
    }

    #[test]
    fn worker_panic_and_poisoned_step_surface_as_error_responses_not_hangs() {
        let engines = Engines::uniform(ExactEngine);
        let mut net = Sequential::new();
        net.push(Trapdoor);
        let plan = Arc::new(net.compile(&engines).unwrap());
        let server = ModelServer::new(plan, ServerConfig::default()).unwrap();

        // Healthy request first: identity.
        let ok = server.infer(Tensor::full(&[1, 3], 2.0)).unwrap();
        assert_eq!(ok.output.data(), &[2.0, 2.0, 2.0]);

        // The sentinel panics inside the EagerStep lock. The panic is
        // caught at the batch boundary: an error response, not a hang,
        // and the worker thread survives.
        let trap = Tensor::from_vec(vec![13.0, 0.0, 0.0], &[1, 3]).unwrap();
        let err = server.infer(trap).unwrap_err();
        assert!(
            matches!(&err, ServeError::Panicked { message } if message.contains("trapdoor")),
            "{err:?}"
        );

        // The EagerStep's mutex is now poisoned: later requests get the
        // typed PoisonedStep error response — still no hang.
        let err = server.infer(Tensor::full(&[1, 3], 2.0)).unwrap_err();
        assert!(
            matches!(
                &err,
                ServeError::Model(NnError::PoisonedStep { layer }) if layer == "trapdoor"
            ),
            "{err:?}"
        );
        let stats = server.stats();
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 2);
        server.join();
    }

    #[test]
    fn stats_accessors_and_error_display_cover_the_surface() {
        let stats = ServerStats::default();
        assert_eq!(stats.mean_batch_size(), 0.0);
        assert_eq!(stats.mean_queue_wait(), Duration::ZERO);
        assert_eq!(stats.answered(), 0);
        for err in [
            ServeError::QueueFull { capacity: 3 },
            ServeError::ShuttingDown,
            ServeError::InvalidConfig { reason: "r".into() },
            ServeError::UnknownModel { name: "m".into() },
            ServeError::Model(NnError::Diverged),
            ServeError::Panicked {
                message: "p".into(),
            },
            ServeError::Uncorrectable {
                detected: 3,
                corrected: 2,
            },
            ServeError::Disconnected,
            ServeError::WorkerSpawn {
                message: "os".into(),
            },
        ] {
            assert!(!err.to_string().is_empty());
        }
        use std::error::Error;
        assert!(ServeError::Model(NnError::Diverged).source().is_some());
        assert!(ServeError::ShuttingDown.source().is_none());
    }

    #[test]
    fn fault_counts_thread_through_request_and_server_stats() {
        use mirage_tensor::faults::{FaultConfig, FaultInjector, FaultyEngine};

        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(77).with_mantissa_flip_rate(0.5),
        ));
        let engines = Engines::uniform(FaultyEngine::new(ExactEngine, Arc::clone(&injector)));
        let net = mlp(60);
        let plan = Arc::new(net.compile(&engines).unwrap());
        let server = ModelServer::new(plan, ServerConfig::default()).unwrap();

        let response = server.infer(Tensor::full(&[1, 16], 0.5)).unwrap();
        assert!(
            response.stats.faults.injected > 0,
            "a 50% flip rate over two Dense layers must fire"
        );
        // Unprotected engine: injections only, nothing detected.
        assert_eq!(response.stats.faults.detected, 0);
        let stats = server.stats();
        assert_eq!(stats.faults, response.stats.faults);

        // Live retuning to zero: the next request is fault-free.
        injector.set_mantissa_flip_rate(0.0);
        let clean = server.infer(Tensor::full(&[1, 16], 0.5)).unwrap();
        assert_eq!(clean.stats.faults, FaultCounts::ZERO);
        assert_eq!(server.stats().faults, stats.faults);
        server.join();
    }

    #[test]
    fn uncorrectable_abort_is_a_typed_error_response_and_the_server_survives() {
        use mirage_bfp::BfpConfig;
        use mirage_tensor::engines::ProtectedRnsBfpEngine;
        use mirage_tensor::faults::{FaultConfig, FaultInjector};

        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(78).with_residue_flip_rate(0.9),
        ));
        let protected = ProtectedRnsBfpEngine::with_min_special_set(BfpConfig::mirage_default())
            .unwrap()
            .with_injector(Arc::clone(&injector));
        let engines = Engines::uniform(protected.clone());
        let mut net = mlp(61);
        let plan = Arc::new(net.compile(&engines).unwrap());
        let server = ModelServer::new(plan, ServerConfig::default()).unwrap();

        let x = Tensor::full(&[1, 16], 0.5);
        let err = server.infer(x.clone()).unwrap_err();
        match err {
            ServeError::Uncorrectable {
                detected,
                corrected,
            } => {
                assert!(detected > corrected, "at least one group was unfixable");
            }
            other => panic!("expected Uncorrectable, got {other:?}"),
        }
        let stats = server.stats();
        assert_eq!(stats.failed, 1);
        assert!(stats.faults.uncorrectable > 0);

        // The worker survives; with injection disabled the same server
        // answers bit-identically to the clean eager forward.
        injector.set_residue_flip_rate(0.0);
        let response = server.infer(x.clone()).unwrap();
        let clean_engines = Engines::uniform(protected.clone());
        let eager = net.forward(&x, &clean_engines).unwrap();
        assert_eq!(response.output.data(), eager.data());
        assert_eq!(response.stats.faults, FaultCounts::ZERO);
        server.join();
    }
}
