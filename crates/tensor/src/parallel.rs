//! Tiled, multi-threaded GEMM execution.
//!
//! The hardware this workspace models derives its throughput from
//! massively parallel photonic MAC arrays, yet a naive software
//! reproduction runs every GEMM serially. [`ParallelGemm`] closes that
//! gap: it wraps any [`GemmEngine`], partitions the output matrix into
//! cache-friendly `tile_m × tile_n` blocks, and fans the blocks out over
//! [`std::thread::scope`] workers — no extra dependencies, no `unsafe`.
//!
//! # Bit-identity contract
//!
//! The driver only ever partitions the **output** (`m` and `n`); the
//! reduction dimension `k` is never split across threads. Engines whose
//! per-element results depend only on the element's own row of `A` and
//! column of `B` (see [`GemmEngine::tile_invariant`]) therefore produce
//! **bit-identical** results under any tiling and any thread count — the
//! property the determinism regression tests enforce for the exact, BFP
//! and RNS-BFP engines. Engines that quantize with whole-matrix state
//! (analog ADC scales, position-seeded stochastic rounding) report
//! `tile_invariant() == false` and transparently fall back to their
//! serial path.
//!
//! Nested drivers are safe: a `ParallelGemm` invoked from inside another
//! `ParallelGemm` worker detects the nesting through a thread-local flag
//! and runs its serial path, so wrapping twice (or re-wrapping the
//! already-parallel default engines) never multiplies the thread count.
//!
//! # Weight preparation
//!
//! The driver prepares the right-hand side **once per call** via
//! [`GemmEngine::prepare`] and hands every row band the same
//! [`PreparedRhs`] (or, with column tiling, one [`PreparedRhs::cols`]
//! window of it per column tile) — quantizing engines never re-run
//! their B-side quantization per band or per tile. The prepared entry
//! points reuse a caller-supplied preparation across *calls*, and
//! [`ParallelGemm::gemm_batch`] prepares once per batch.
//!
//! # Thread-count knob
//!
//! `threads == 0` resolves at call time: the `MIRAGE_THREADS` environment
//! variable if set (parsed **once per process**), else
//! [`std::thread::available_parallelism`]. Whatever the configuration
//! resolves to, the driver then plans the *actual* worker count per
//! call ([`ParallelGemm::planned_workers`]): never more workers than
//! the host has cores, never more than one per [`MIN_PARALLEL_WORK`]
//! quantum of the problem, and exactly one (the serial path) below the
//! threshold — so parallelism never loses to its own overhead.

use crate::engines::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::faults::{FaultCounts, FaultScope};
use crate::{Result, Tensor};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// Environment variable overriding the auto-detected worker count.
pub const THREADS_ENV: &str = "MIRAGE_THREADS";

/// Below this `m·k·n` product the parallel driver runs serially: thread
/// spawn and operand staging would cost more than the GEMM itself. The
/// same constant is the per-worker work quantum — the driver never
/// spawns more workers than `work / MIN_PARALLEL_WORK`, so each thread
/// it does spawn has at least one threshold-sized problem to chew on.
pub const MIN_PARALLEL_WORK: usize = 32 * 32 * 32;

/// One worker's reusable staging for [`ParallelGemm`]'s row bands: the
/// band's rows of `A` and one column tile's result, allocated once per
/// worker instead of once per band and tile.
#[derive(Default)]
struct BandStage {
    a: Vec<f32>,
    block: Vec<f32>,
}

/// Tiling geometry and worker count for [`ParallelGemm`].
///
/// A value of `0` in any field means "choose automatically":
/// `tile_m = 0` derives a row-band height giving each worker one equal
/// band (amortizing per-band operand staging),
/// `tile_n = 0` keeps the full output width in one column tile,
/// and `threads = 0` resolves via [`THREADS_ENV`] /
/// [`std::thread::available_parallelism`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Output row-band height per task (`0` = auto).
    pub tile_m: usize,
    /// Output column-tile width per task (`0` = full width).
    pub tile_n: usize,
    /// Worker count (`0` = auto).
    pub threads: usize,
}

impl TileConfig {
    /// Fully automatic configuration (the default).
    pub fn auto() -> Self {
        TileConfig {
            tile_m: 0,
            tile_n: 0,
            threads: 0,
        }
    }

    /// Single-threaded configuration: the wrapped engine runs serially,
    /// which deterministic tests use as the reference path.
    pub fn serial() -> Self {
        TileConfig {
            tile_m: 0,
            tile_n: 0,
            threads: 1,
        }
    }

    /// Returns `self` with an explicit worker count (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker count this configuration resolves to right now:
    /// the explicit `threads` field if nonzero, else [`THREADS_ENV`],
    /// else [`std::thread::available_parallelism`].
    ///
    /// The environment variable is read and parsed **once per process**
    /// (it used to be re-read on every sufficiently large GEMM); an
    /// unparsable value logs a warning once — and panics under
    /// `debug_assertions` — instead of being silently ignored.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(t) = env_thread_override() {
            return t;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// The [`THREADS_ENV`] override, resolved once for the whole process.
fn env_thread_override() -> Option<usize> {
    static ENV_THREADS: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_THREADS.get_or_init(|| {
        let raw = std::env::var(THREADS_ENV).ok()?;
        match raw.trim().parse::<usize>() {
            Ok(t) if t > 0 => Some(t),
            _ => {
                eprintln!(
                    "warning: ignoring {THREADS_ENV}={raw:?} (expected a positive \
                     integer); falling back to available_parallelism"
                );
                debug_assert!(
                    false,
                    "unparsable {THREADS_ENV}={raw:?}: expected a positive integer"
                );
                None
            }
        }
    })
}

impl Default for TileConfig {
    fn default() -> Self {
        TileConfig::auto()
    }
}

/// A tiled, multi-threaded driver around any [`GemmEngine`].
///
/// `ParallelGemm` is itself a [`GemmEngine`], so it composes with every
/// consumer in the workspace — training [`gemm`](GemmEngine::gemm) calls
/// in `mirage-nn`, conv lowering in [`crate::conv`], and the accelerator
/// engines in `mirage-core` — without any of them changing.
///
/// ```
/// use mirage_tensor::{Tensor, GemmEngine, engines::ExactEngine};
/// use mirage_tensor::parallel::{ParallelGemm, TileConfig};
///
/// let a = Tensor::full(&[48, 32], 0.5);
/// let b = Tensor::full(&[32, 40], 2.0);
/// let tiled = ParallelGemm::new(
///     ExactEngine,
///     TileConfig { tile_m: 8, tile_n: 16, threads: 4 },
/// );
/// let parallel = tiled.gemm(&a, &b)?;
/// let serial = ExactEngine.gemm(&a, &b)?;
/// assert_eq!(parallel.data(), serial.data()); // bit-identical
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelGemm<E> {
    inner: E,
    config: TileConfig,
}

impl<E: GemmEngine> ParallelGemm<E> {
    /// Wraps `inner` with an explicit tiling configuration.
    pub fn new(inner: E, config: TileConfig) -> Self {
        ParallelGemm { inner, config }
    }

    /// Wraps `inner` with [`TileConfig::auto`].
    pub fn auto(inner: E) -> Self {
        ParallelGemm::new(inner, TileConfig::auto())
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The tiling configuration.
    pub fn config(&self) -> TileConfig {
        self.config
    }

    /// Batched GEMM against a shared right-hand side: computes
    /// `inputs[i] · b` for every batch item, fanning items out across the
    /// worker threads of a **single** thread scope.
    ///
    /// This is the batched-inference entry point: shape validation, the
    /// thread-pool spawn, the shared-operand staging **and the engine's
    /// B-side preparation** ([`GemmEngine::prepare`]) are paid once per
    /// batch instead of once per item. Results are bit-identical to
    /// `inputs.iter().map(|a| engine.gemm(a, b))` for **all** engines:
    /// non-tile-invariant engines always run their own serial path per
    /// item, and tile-invariant ones carry the driver's bit-identity
    /// guarantee (batches smaller than the worker count are routed
    /// through the tiled per-item path so they still parallelize).
    ///
    /// An empty batch returns an empty `Vec` without touching the
    /// engine. To amortize preparation across *batches* as well, prepare
    /// the weight yourself and call [`ParallelGemm::gemm_batch_prepared`].
    ///
    /// # Errors
    ///
    /// Propagates shape-validation and engine errors; the whole batch
    /// fails if any item does.
    pub fn gemm_batch(&self, inputs: &[Tensor], b: &Tensor) -> Result<Vec<Tensor>> {
        // Fail fast on shape errors before paying for the preparation.
        for a in inputs {
            gemm_dims(a, b)?;
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let prepared = self.inner.prepare(b)?;
        self.gemm_batch_prepared(inputs, &prepared)
    }

    /// [`ParallelGemm::gemm_batch`] against an already-prepared weight:
    /// repeated batches against the same `PreparedRhs` never re-run the
    /// engine's B-side quantization.
    ///
    /// # Errors
    ///
    /// Propagates shape-validation and engine errors; the whole batch
    /// fails if any item does.
    pub fn gemm_batch_prepared(&self, inputs: &[Tensor], b: &PreparedRhs) -> Result<Vec<Tensor>> {
        for a in inputs {
            b.dims(a)?;
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        // Same oversubscription clamp as `planned_workers`: spawning
        // more batch workers than cores only adds scheduling overhead.
        let threads = self.config.effective_threads().min(host_parallelism());
        // Batches too small to occupy every worker with one item each:
        // tile-invariant engines get their parallelism from the tiled
        // per-item path instead (bit-identical either way), so a batch
        // of 1 on an 8-core host still uses 8 workers.
        if threads > inputs.len() && self.inner.tile_invariant() {
            return inputs.iter().map(|a| self.gemm_prepared(a, b)).collect();
        }
        let threads = threads.min(inputs.len());
        if threads <= 1 {
            return inputs
                .iter()
                .map(|a| self.inner.gemm_prepared(a, b))
                .collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<ResultSlot> = inputs.iter().map(|_| Mutex::new(None)).collect();
        // One fault tally per worker, folded into the caller's scope in
        // worker order once the thread scope has joined every worker.
        let scoped = FaultScope::is_active();
        let tallies: Vec<Mutex<FaultCounts>> = (0..threads)
            .map(|_| Mutex::new(FaultCounts::ZERO))
            .collect();
        let (next, slots_ref) = (&next, &slots);
        std::thread::scope(|s| {
            for tally in &tallies {
                s.spawn(move || {
                    let ((), faults) = as_parallel_worker(scoped, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= inputs.len() {
                            break;
                        }
                        let result = self.inner.gemm_prepared(&inputs[i], b);
                        // Poison recovery: each slot is written exactly
                        // once by the worker that claimed its index, so
                        // a panic elsewhere cannot leave it half-set.
                        *slots_ref[i]
                            .lock()
                            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
                    });
                    *tally
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner) = faults;
                });
            }
        });
        for tally in tallies {
            FaultScope::record(
                tally
                    .into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            );
        }
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    // Provably infallible: `next.fetch_add` hands out
                    // every index in `0..inputs.len()` exactly once, and
                    // the scope joins all workers before we get here.
                    // mirage-lint: allow(panic_ok) -- fetch_add claims every index exactly once before the scope joins
                    .expect("every batch index was claimed by a worker")
            })
            .collect()
    }

    /// Computes every column tile of one output row band (starting at
    /// output row `r0`), writing into the band's slice of the output
    /// buffer. `stage` is the calling worker's staging, reused across
    /// its bands and tiles: the band's rows of `A` (borrowed outright
    /// when the band is all of `A`) and one tile's result.
    #[allow(clippy::too_many_arguments)]
    fn process_band(
        &self,
        a: &Tensor,
        col_tiles: &[(usize, Cow<'_, PreparedRhs>)],
        r0: usize,
        k: usize,
        n: usize,
        band: &mut [f32],
        stage: &mut BandStage,
    ) -> Result<()> {
        let rows = band.len() / n;
        let staged = if rows == a.shape()[0] {
            None
        } else {
            let mut rows_of_a = std::mem::take(&mut stage.a);
            rows_of_a.clear();
            rows_of_a.extend_from_slice(&a.data()[r0 * k..(r0 + rows) * k]);
            Some(Tensor::from_vec(rows_of_a, &[rows, k])?)
        };
        let a_band = staged.as_ref().unwrap_or(a);
        let result = col_tiles.iter().try_for_each(|(c0, tile)| {
            let (_, width) = self
                .inner
                .gemm_prepared_into(a_band, tile, &mut stage.block)?;
            for (out_row, block_row) in band.chunks_mut(n).zip(stage.block.chunks(width)) {
                out_row[*c0..c0 + width].copy_from_slice(block_row);
            }
            Ok(())
        });
        if let Some(staged) = staged {
            stage.a = staged.into_data();
        }
        result
    }

    /// The threaded fan-out shared by [`ParallelGemm::gemm`] and the
    /// prepared primitive: row bands × column tiles over a thread scope,
    /// writing into a caller buffer (cleared and resized to `m × n`
    /// first), then the epilogue as one pass over the filled buffer.
    /// Every band consumes the **same** prepared B-side state: with no
    /// column tiling `b` itself, otherwise one [`PreparedRhs::cols`]
    /// window of it per tile — a view into the shared packed buffers by
    /// column offset.
    fn fan_out_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        (m, k, n): (usize, usize, usize),
        threads: usize,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        // Row-band height: explicit tile_m, or one equal band per worker.
        // Equal heights keep the workers balanced; the shared prepared B
        // means band count no longer multiplies quantization work.
        let band_height = if self.config.tile_m > 0 {
            self.config.tile_m.min(m)
        } else {
            m.div_ceil(threads).max(1)
        };
        let band_count = m.div_ceil(band_height);
        let threads = threads.min(band_count);

        let tile_n = if self.config.tile_n > 0 {
            self.config.tile_n.min(n)
        } else {
            n
        };
        let col_tiles: Vec<(usize, Cow<'_, PreparedRhs>)> = if tile_n >= n {
            vec![(0, Cow::Borrowed(b))]
        } else {
            (0..n)
                .step_by(tile_n)
                .map(|c0| Ok((c0, Cow::Owned(b.cols(c0, tile_n.min(n - c0))?))))
                .collect::<Result<_>>()?
        };

        out.clear();
        out.resize(m * n, 0.0);
        let mut per_worker: Vec<Vec<(usize, &mut [f32])>> =
            (0..threads).map(|_| Vec::new()).collect();
        for (index, chunk) in out.chunks_mut(band_height * n).enumerate() {
            per_worker[index % threads].push((index, chunk));
        }

        let col_tiles = &col_tiles;
        let scoped = FaultScope::is_active();
        std::thread::scope(|scope| -> Result<()> {
            let mut handles = Vec::with_capacity(per_worker.len());
            for bands in per_worker {
                handles.push(scope.spawn(move || {
                    as_parallel_worker(scoped, || -> Result<()> {
                        let mut stage = BandStage::default();
                        for (index, band) in bands {
                            let r0 = index * band_height;
                            self.process_band(a, col_tiles, r0, k, n, band, &mut stage)?;
                        }
                        Ok(())
                    })
                }));
            }
            // Every worker is joined and its fault counts folded into
            // the caller's scope, in worker order, before any error is
            // returned: a failed band must not hide faults that other
            // bands detected and corrected.
            let mut outcome = Ok(());
            for handle in handles {
                // Re-raising a worker panic on the caller thread is the
                // intended behaviour: workers only panic on bugs, and
                // swallowing the panic would return a half-filled buffer.
                // mirage-lint: allow(panic_ok) -- intentionally re-raises a worker panic; returning would hand back a half-filled buffer
                let (result, faults) = handle.join().expect("GEMM worker panicked");
                FaultScope::record(faults);
                if outcome.is_ok() {
                    outcome = result;
                }
            }
            outcome
        })?;
        epilogue.apply(out, m, n)
    }

    /// Whether this `(m, k, n)` problem should skip the threaded path.
    fn serial_fallback(&self, m: usize, k: usize, n: usize) -> bool {
        // Free bail-outs first; the env/`available_parallelism` lookup in
        // `effective_threads` only runs for GEMMs big enough to matter.
        // Degenerate shapes (`m == 0` or `n == 0` zero the product; `k ==
        // 0` is clamped) fall through to the engine's serial path, which
        // must return well-formed empty/zero results.
        !self.inner.tile_invariant()
            || m * k.max(1) * n < MIN_PARALLEL_WORK
            || IN_PARALLEL_WORKER.with(|flag| flag.get())
    }

    /// The worker count the driver will actually spawn for an `m×k×n`
    /// problem — the regression guard behind BENCH_parallel.json:
    /// parallelism must never lose to its own overhead, so the
    /// configured thread count is clamped twice before any thread
    /// spawns.
    ///
    /// 1. **Host parallelism.** More workers than cores is pure
    ///    scheduling overhead for a CPU-bound GEMM (the 0.94× / 0.88×
    ///    regressions this replaces came from four pinned workers
    ///    time-slicing one container CPU), so the count never exceeds
    ///    [`std::thread::available_parallelism`] regardless of the
    ///    `threads` field or [`THREADS_ENV`].
    /// 2. **Work quantum.** Each worker must have at least one
    ///    [`MIN_PARALLEL_WORK`]-sized problem's worth of output to
    ///    compute; a GEMM barely over the serial threshold gets 1–2
    ///    workers, not the whole configured pool.
    ///
    /// Returns `1` exactly when the call would take the serial path
    /// (small problem, non-tile-invariant engine, or nested driver).
    /// Bit-identity is unaffected — the worker count never changes
    /// results, only wall clock.
    pub fn planned_workers(&self, m: usize, k: usize, n: usize) -> usize {
        if self.serial_fallback(m, k, n) {
            return 1;
        }
        let work = m * k.max(1) * n;
        self.config
            .effective_threads()
            .min(host_parallelism())
            .min((work / MIN_PARALLEL_WORK).max(1))
    }
}

/// The host's available parallelism (`1` when unknown).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One finished batch item, filled in by whichever worker claimed it.
type ResultSlot = Mutex<Option<Result<Tensor>>>;

std::thread_local! {
    /// Set while executing inside a [`ParallelGemm`] worker thread, so a
    /// nested driver (double-wrapped engines, parallel conv inside a
    /// parallel batch, …) degrades to its serial path instead of
    /// multiplying the thread count.
    static IN_PARALLEL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with the nested-driver flag set for this (worker) thread.
/// With `scoped` (the spawning caller had a [`FaultScope`] open), `f`
/// runs inside a fault scope of the worker's own, whose counts are
/// returned for the caller to fold into its scope after the join —
/// thread-local scopes are not inherited by spawned threads.
fn as_parallel_worker<T>(scoped: bool, f: impl FnOnce() -> T) -> (T, FaultCounts) {
    IN_PARALLEL_WORKER.with(|flag| flag.set(true));
    // Worker threads are per-scope and never reused, so no reset needed.
    if !scoped {
        return (f(), FaultCounts::ZERO);
    }
    let scope = FaultScope::begin();
    let out = f();
    (out, scope.finish())
}

impl<E: GemmEngine> GemmEngine for ParallelGemm<E> {
    /// Reports the wrapped engine's name so experiment tables stay
    /// comparable whether or not the parallel driver is in the loop.
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tile_invariant(&self) -> bool {
        self.inner.tile_invariant()
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let (m, k, n) = gemm_dims(a, b)?;
        let threads = self.planned_workers(m, k, n);
        if threads <= 1 {
            return self.inner.gemm(a, b);
        }
        // One whole-matrix preparation shared by every band and tile.
        let prepared = self.inner.prepare(b)?;
        let mut out = Vec::new();
        self.fan_out_into(
            a,
            &prepared,
            &Epilogue::none(),
            (m, k, n),
            threads,
            &mut out,
        )?;
        Tensor::from_vec(out, &[m, n])
    }

    /// Delegates to the wrapped engine: the prepared state belongs to
    /// the arithmetic, not to the driver, so one preparation serves the
    /// serial path, every band of the threaded path, and any other
    /// driver wrapping the same engine.
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        self.inner.prepare(b)
    }

    /// The threaded driver against an already-prepared weight: small
    /// problems delegate to the wrapped engine's primitive (fused
    /// epilogue included); large ones fan out, every row band sharing
    /// the caller's preparation so repeated calls never re-run the
    /// engine's B-side quantization — per band *or* per call.
    /// Bit-identical either way.
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let (m, k, n) = b.dims(a)?;
        let threads = self.planned_workers(m, k, n);
        if threads <= 1 {
            return self.inner.gemm_prepared_epilogue_into(a, b, epilogue, out);
        }
        self.fan_out_into(a, b, epilogue, (m, k, n), threads, out)?;
        Ok((m, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{AnalogFxpEngine, BfpEngine, ExactEngine, StochasticBfpEngine};
    use mirage_bfp::BfpConfig;
    use rand::SeedableRng;

    fn pair(seed: u64, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Tensor::randn(&[m, k], 1.0, &mut rng),
            Tensor::randn(&[k, n], 1.0, &mut rng),
        )
    }

    fn four_threads(tile_m: usize, tile_n: usize) -> TileConfig {
        TileConfig {
            tile_m,
            tile_n,
            threads: 4,
        }
    }

    #[test]
    fn config_resolves_threads() {
        assert_eq!(TileConfig::serial().effective_threads(), 1);
        assert_eq!(TileConfig::auto().with_threads(3).effective_threads(), 3);
        assert!(TileConfig::auto().effective_threads() >= 1);
        // The env override is resolved once per process and cached, so
        // repeated resolution is consistent.
        assert_eq!(
            TileConfig::auto().effective_threads(),
            TileConfig::auto().effective_threads()
        );
    }

    #[test]
    fn parallel_exact_is_bit_identical() {
        // Ragged shapes: bands and column tiles both have tails.
        for (m, k, n) in [(40, 33, 40), (65, 40, 37), (128, 16, 50)] {
            let (a, b) = pair(90, m, k, n);
            let serial = ExactEngine.gemm(&a, &b).unwrap();
            for config in [four_threads(7, 0), four_threads(16, 9), four_threads(0, 0)] {
                let parallel = ParallelGemm::new(ExactEngine, config).gemm(&a, &b).unwrap();
                assert_eq!(parallel.data(), serial.data(), "{m}x{k}x{n} {config:?}");
            }
        }
    }

    #[test]
    fn parallel_bfp_is_bit_identical() {
        let engine = BfpEngine::new(BfpConfig::mirage_default());
        let (a, b) = pair(91, 48, 50, 48);
        let serial = engine.gemm(&a, &b).unwrap();
        let parallel = ParallelGemm::new(engine, four_threads(8, 16))
            .gemm(&a, &b)
            .unwrap();
        assert_eq!(parallel.data(), serial.data());
    }

    #[test]
    fn non_tile_invariant_engines_fall_back_to_serial() {
        let (a, b) = pair(92, 40, 64, 40);
        let stochastic = StochasticBfpEngine::new(BfpConfig::mirage_default(), 3);
        let analog = AnalogFxpEngine::new(8, 8, 16);
        assert_eq!(
            ParallelGemm::new(stochastic, four_threads(8, 0))
                .gemm(&a, &b)
                .unwrap()
                .data(),
            stochastic.gemm(&a, &b).unwrap().data()
        );
        assert_eq!(
            ParallelGemm::new(analog, four_threads(8, 0))
                .gemm(&a, &b)
                .unwrap()
                .data(),
            analog.gemm(&a, &b).unwrap().data()
        );
    }

    #[test]
    fn small_gemms_take_the_serial_path() {
        let (a, b) = pair(93, 4, 4, 4);
        let parallel = ParallelGemm::new(ExactEngine, four_threads(1, 1));
        assert_eq!(
            parallel.gemm(&a, &b).unwrap().data(),
            ExactEngine.gemm(&a, &b).unwrap().data()
        );
    }

    #[test]
    fn shape_errors_propagate() {
        let parallel = ParallelGemm::auto(ExactEngine);
        assert!(parallel
            .gemm(&Tensor::zeros(&[4, 4]), &Tensor::zeros(&[5, 4]))
            .is_err());
        assert!(parallel
            .gemm_batch(
                &[Tensor::zeros(&[4, 4]), Tensor::zeros(&[4, 5])],
                &Tensor::zeros(&[5, 4])
            )
            .is_err());
    }

    #[test]
    fn gemm_batch_matches_per_item_serial() {
        let engine = StochasticBfpEngine::new(BfpConfig::mirage_default(), 11);
        let parallel = ParallelGemm::new(engine, TileConfig::auto().with_threads(4));
        let mut rng = rand::rngs::StdRng::seed_from_u64(95);
        let b = Tensor::randn(&[32, 8], 1.0, &mut rng);
        let inputs: Vec<Tensor> = (0..6)
            .map(|_| Tensor::randn(&[5, 32], 1.0, &mut rng))
            .collect();
        let batched = parallel.gemm_batch(&inputs, &b).unwrap();
        for (input, got) in inputs.iter().zip(&batched) {
            assert_eq!(got.data(), engine.gemm(input, &b).unwrap().data());
        }
    }

    #[test]
    fn planned_workers_clamp_to_host_and_work() {
        // Regression guard for the BENCH_parallel.json slowdowns (0.94×
        // BFP, 0.88× prepared fp32): those came from workers pinned past
        // the host's core count time-slicing one CPU. The plan must
        // never oversubscribe, never hand a worker less than one
        // MIN_PARALLEL_WORK quantum, and go fully serial below the
        // threshold.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let over = ParallelGemm::new(ExactEngine, TileConfig::auto().with_threads(cores * 16));
        assert!(over.planned_workers(256, 256, 256) <= cores);
        assert!(over.planned_workers(256, 256, 256) >= 1);
        // Barely over the serial threshold: the work quantum, not the
        // configured pool, bounds the worker count.
        let quantum_bound = (33 * 32 * 32) / MIN_PARALLEL_WORK;
        assert!(over.planned_workers(33, 32, 32) <= quantum_bound);
        // Below the threshold the plan is exactly serial.
        assert_eq!(over.planned_workers(31, 32, 32), 1);
        assert_eq!(over.planned_workers(0, 256, 256), 1);
        // Non-tile-invariant engines always plan serially.
        let stochastic = ParallelGemm::new(
            StochasticBfpEngine::new(BfpConfig::mirage_default(), 3),
            TileConfig::auto().with_threads(4),
        );
        assert_eq!(stochastic.planned_workers(256, 256, 256), 1);
        // The clamped plan still produces bit-identical results.
        let (a, b) = pair(98, 64, 64, 64);
        assert_eq!(
            over.gemm(&a, &b).unwrap().data(),
            ExactEngine.gemm(&a, &b).unwrap().data()
        );
    }

    #[test]
    fn name_reports_inner_engine() {
        assert_eq!(ParallelGemm::auto(ExactEngine).name(), "fp32");
    }

    #[test]
    fn nested_drivers_stay_bit_identical() {
        // A driver inside another driver's worker detects the nesting,
        // runs serially, and the whole stack remains bit-identical.
        let (a, b) = pair(96, 64, 64, 64);
        let nested = ParallelGemm::new(
            ParallelGemm::new(ExactEngine, four_threads(8, 0)),
            four_threads(16, 0),
        );
        assert_eq!(
            nested.gemm(&a, &b).unwrap().data(),
            ExactEngine.gemm(&a, &b).unwrap().data()
        );
    }

    #[test]
    fn small_batches_route_through_the_tiled_path() {
        // A batch of 1 must not serialize a tile-invariant engine: it is
        // routed through the tiled per-item path, bit-identically.
        let engine = BfpEngine::new(BfpConfig::mirage_default());
        let parallel = ParallelGemm::new(engine, TileConfig::auto().with_threads(4));
        let (a, b) = pair(97, 64, 64, 64);
        let batch = parallel.gemm_batch(std::slice::from_ref(&a), &b).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].data(), engine.gemm(&a, &b).unwrap().data());
    }

    #[test]
    fn worker_fault_counts_reach_the_callers_scope() {
        // The fan-out is called directly with 2 workers, so the
        // cross-thread accounting runs even on a 1-CPU host (where
        // `planned_workers` would pick the serial path). Every event
        // the injector records must land in the caller's scope.
        use crate::engines::ProtectedRnsBfpEngine;
        use crate::faults::{FaultConfig, FaultInjector};
        use std::sync::Arc;
        let (m, k, n) = (64, 64, 32);
        let (a, b) = pair(77, m, k, n);
        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(5).with_residue_flip_rate(1e-3),
        ));
        let engine = ProtectedRnsBfpEngine::with_min_special_set(BfpConfig::mirage_default())
            .unwrap()
            .with_injector(Arc::clone(&injector));
        let parallel = ParallelGemm::new(engine, four_threads(16, 0));
        let before = injector.counts();
        let scope = FaultScope::begin();
        // Uncorrectable groups surface as a typed error; the counts
        // must reconcile either way.
        let prepared = parallel.prepare(&b).unwrap();
        let _ = parallel.fan_out_into(
            &a,
            &prepared,
            &Epilogue::none(),
            (m, k, n),
            2,
            &mut Vec::new(),
        );
        let counts = scope.finish();
        let after = injector.counts();
        let delta = FaultCounts {
            injected: after.injected - before.injected,
            detected: after.detected - before.detected,
            corrected: after.corrected - before.corrected,
            uncorrectable: after.uncorrectable - before.uncorrectable,
        };
        assert!(delta.injected > 0, "the injector must fire at this rate");
        assert_eq!(counts, delta);
    }

    #[test]
    fn threaded_fused_epilogue_matches_serial_and_keeps_fault_counts() {
        // The prepared primitive's threaded path — 2 workers over
        // `tile_n` column windows, then the epilogue — driven directly
        // so it also runs on a 1-CPU host.
        use crate::engines::ProtectedRnsBfpEngine;
        use crate::faults::{FaultConfig, FaultInjector};
        use std::sync::Arc;
        let (m, k, n) = (48, 64, 40);
        let (a, b) = pair(78, m, k, n);
        let bias: Vec<f32> = (0..n).map(|j| (j as f32 - 20.0) * 0.1).collect();
        let epilogue = Epilogue::none().with_bias(&bias).with_relu();
        let engine =
            ProtectedRnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
        let prepared = engine.prepare(&b).unwrap();
        let mut serial = Vec::new();
        engine
            .gemm_prepared_epilogue_into(&a, &prepared, &epilogue, &mut serial)
            .unwrap();
        assert!(serial.contains(&0.0) && serial.iter().any(|&v| v > 0.0));
        let fused = |parallel: &ParallelGemm<ProtectedRnsBfpEngine>| -> Result<Vec<f32>> {
            let mut out = vec![f32::NAN; 3];
            parallel.fan_out_into(&a, &prepared, &epilogue, (m, k, n), 2, &mut out)?;
            Ok(out)
        };
        let clean = ParallelGemm::new(engine.clone(), four_threads(8, 16));
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused(&clean).unwrap()), bits(&serial));

        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(6).with_residue_flip_rate(1e-3),
        ));
        let armed = ParallelGemm::new(
            engine.with_injector(Arc::clone(&injector)),
            four_threads(8, 16),
        );
        let before = injector.counts();
        let scope = FaultScope::begin();
        let result = fused(&armed);
        let counts = scope.finish();
        let after = injector.counts();
        let delta = FaultCounts {
            injected: after.injected - before.injected,
            detected: after.detected - before.detected,
            corrected: after.corrected - before.corrected,
            uncorrectable: after.uncorrectable - before.uncorrectable,
        };
        assert!(delta.injected > 0, "the injector must fire at this rate");
        assert_eq!(counts, delta);
        // Corrected runs are bit-identical to the clean fused result.
        if let Ok(out) = result {
            assert_eq!(delta.uncorrectable, 0);
            assert_eq!(bits(&out), bits(&serial));
        }
    }
}
