//! Multi-threaded GEMM execution by output row bands.
//!
//! The hardware this workspace models derives its throughput from
//! massively parallel photonic MAC arrays, yet a naive software
//! reproduction runs every GEMM serially. [`ParallelGemm`] closes that
//! gap: it wraps any [`GemmEngine`], splits the output rows into one
//! contiguous band per worker, and runs the bands on
//! [`std::thread::scope`] workers — no extra dependencies, no `unsafe`.
//!
//! # Bit-identity contract
//!
//! The driver only ever partitions the **output** rows; the reduction
//! dimension `k` is never split across threads. Engines whose
//! per-element results depend only on the element's own row of `A` and
//! column of `B` (see [`GemmEngine::tile_invariant`]) therefore produce
//! **bit-identical** results at any worker count — the property the
//! determinism regression tests enforce for the exact, BFP and RNS-BFP
//! engines. Engines that quantize with whole-matrix state (analog ADC
//! scales, position-seeded stochastic rounding) report
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
//! [`PreparedRhs`] — quantizing engines never re-run their B-side
//! quantization per band. The prepared entry points reuse a
//! caller-supplied preparation across *calls*.
//!
//! # Worker count
//!
//! [`TileConfig`] has one knob, `threads`. `threads == 0` resolves at
//! call time: the `MIRAGE_THREADS` environment variable if set (parsed
//! **once per process**), else [`std::thread::available_parallelism`].
//! The driver then plans the *actual* worker count per call from the
//! shape ([`ParallelGemm::planned_workers`]): never more workers than
//! the host has cores, than [`MIN_PARALLEL_WORK`] quanta of work, or
//! than output rows, and exactly one (the serial path) below the
//! threshold — so parallelism never loses to its own overhead.

use crate::engines::{gemm_dims, Epilogue, GemmEngine, PreparedRhs};
use crate::faults::{FaultCounts, FaultScope};
use crate::{Result, Tensor};
use std::sync::OnceLock;

/// Environment variable overriding the auto-detected worker count.
pub const THREADS_ENV: &str = "MIRAGE_THREADS";

/// Below this `m·k·n` product the parallel driver runs serially: thread
/// spawn and operand staging would cost more than the GEMM itself. The
/// same constant is the per-worker work quantum — the driver never
/// spawns more workers than `work / MIN_PARALLEL_WORK`, so each thread
/// it does spawn has at least one threshold-sized problem to chew on.
pub const MIN_PARALLEL_WORK: usize = 32 * 32 * 32;

/// Worker count for [`ParallelGemm`]; the partition itself (one row band
/// per worker) follows from the shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileConfig {
    /// Worker count (`0` = auto: [`THREADS_ENV`], else
    /// [`std::thread::available_parallelism`]).
    pub threads: usize,
}

impl TileConfig {
    /// Fully automatic configuration (the default).
    pub fn auto() -> Self {
        TileConfig { threads: 0 }
    }

    /// Single-threaded configuration: the wrapped engine runs serially,
    /// which deterministic tests use as the reference path.
    pub fn serial() -> Self {
        TileConfig { threads: 1 }
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
        host_parallelism()
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

/// A multi-threaded driver around any [`GemmEngine`]: one contiguous
/// output row band per worker.
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
/// let banded = ParallelGemm::new(ExactEngine, TileConfig::auto().with_threads(4));
/// let parallel = banded.gemm(&a, &b)?;
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
    /// Wraps `inner` with an explicit worker configuration.
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

    /// The worker configuration.
    pub fn config(&self) -> TileConfig {
        self.config
    }

    /// The threaded fan-out shared by [`ParallelGemm::gemm`] and the
    /// prepared primitive: `m` split into at most `workers` contiguous
    /// row bands of equal height (the last one shorter), one scoped
    /// thread per band, each writing its rows of the result into the
    /// caller buffer (cleared and resized to `m × n` first); then the
    /// epilogue as one pass over the filled buffer. Every band consumes
    /// the **same** prepared B-side state. `workers`, `m` and `n` are
    /// nonzero: only a plan of two or more workers gets here.
    fn fan_out_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        (m, k, n): (usize, usize, usize),
        workers: usize,
        out: &mut Vec<f32>,
    ) -> Result<()> {
        let band_height = m.div_ceil(workers);
        out.clear();
        out.resize(m * n, 0.0);
        let scoped = FaultScope::is_active();
        std::thread::scope(|scope| -> Result<()> {
            let handles: Vec<_> = out
                .chunks_mut(band_height * n)
                .enumerate()
                .map(|(index, band)| {
                    scope.spawn(move || {
                        as_parallel_worker(scoped, || -> Result<()> {
                            let r0 = index * band_height;
                            let rows = band.len() / n;
                            let a_band = Tensor::from_vec(
                                a.data()[r0 * k..(r0 + rows) * k].to_vec(),
                                &[rows, k],
                            )?;
                            let mut block = Vec::new();
                            self.inner.gemm_prepared_into(&a_band, b, &mut block)?;
                            band.copy_from_slice(&block);
                            Ok(())
                        })
                    })
                })
                .collect();
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

    /// The worker count the driver will actually spawn for an `m×k×n`
    /// problem — the regression guard behind BENCH_parallel.json:
    /// parallelism must never lose to its own overhead, so the
    /// configured thread count is clamped before any thread spawns:
    ///
    /// 1. **Host parallelism.** More workers than cores is pure
    ///    scheduling overhead for a CPU-bound GEMM (four pinned workers
    ///    time-slicing one container CPU measured 0.94× / 0.88×), so the
    ///    count never exceeds [`std::thread::available_parallelism`]
    ///    regardless of the `threads` field or [`THREADS_ENV`].
    /// 2. **Work quantum.** Each worker must have at least one
    ///    [`MIN_PARALLEL_WORK`]-sized problem's worth of output to
    ///    compute; a GEMM barely over the serial threshold gets 1–2
    ///    workers, not the whole configured pool.
    /// 3. **Rows.** One band per worker and at least one row per band,
    ///    so a single-row request never pays a thread spawn.
    ///
    /// Returns `1` exactly when the call would take the serial path
    /// (small problem, one row, non-tile-invariant engine, or nested
    /// driver). Bit-identity is unaffected — the worker count never
    /// changes results, only wall clock.
    pub fn planned_workers(&self, m: usize, k: usize, n: usize) -> usize {
        // Free bail-outs first; the env/`available_parallelism` lookup in
        // `effective_threads` only runs for GEMMs big enough to matter.
        // Degenerate shapes (`m == 0` or `n == 0` zero the product; `k ==
        // 0` is clamped) take the engine's serial path, which must
        // return well-formed empty/zero results.
        let work = m * k.max(1) * n;
        if m <= 1
            || work < MIN_PARALLEL_WORK
            || !self.inner.tile_invariant()
            || IN_PARALLEL_WORKER.with(|flag| flag.get())
        {
            return 1;
        }
        self.config
            .effective_threads()
            .min(host_parallelism())
            .min(work / MIN_PARALLEL_WORK)
            .min(m)
    }
}

/// The host's available parallelism (`1` when unknown).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

std::thread_local! {
    /// Set while executing inside a [`ParallelGemm`] worker thread, so a
    /// nested driver (double-wrapped engines, parallel conv inside a
    /// parallel GEMM, …) degrades to its serial path instead of
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
        let workers = self.planned_workers(m, k, n);
        if workers <= 1 {
            return self.inner.gemm(a, b);
        }
        // One whole-matrix preparation shared by every band.
        let prepared = self.inner.prepare(b)?;
        let mut out = Vec::new();
        self.fan_out_into(
            a,
            &prepared,
            &Epilogue::none(),
            (m, k, n),
            workers,
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
        let workers = self.planned_workers(m, k, n);
        if workers <= 1 {
            return self.inner.gemm_prepared_epilogue_into(a, b, epilogue, out);
        }
        self.fan_out_into(a, b, epilogue, (m, k, n), workers, out)?;
        Ok((m, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{
        AnalogFxpEngine, BfpEngine, ExactEngine, RnsBfpEngine, StochasticBfpEngine,
    };
    use mirage_bfp::BfpConfig;
    use rand::SeedableRng;

    fn pair(seed: u64, m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (
            Tensor::randn(&[m, k], 1.0, &mut rng),
            Tensor::randn(&[k, n], 1.0, &mut rng),
        )
    }

    fn four_threads() -> TileConfig {
        TileConfig::auto().with_threads(4)
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
        // Ragged shapes: the last band is shorter than the others.
        for (m, k, n) in [(40, 33, 40), (65, 40, 37), (128, 16, 50)] {
            let (a, b) = pair(90, m, k, n);
            let serial = ExactEngine.gemm(&a, &b).unwrap();
            for threads in [2, 3, 4] {
                let config = TileConfig::auto().with_threads(threads);
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
        let parallel = ParallelGemm::new(engine, four_threads())
            .gemm(&a, &b)
            .unwrap();
        assert_eq!(parallel.data(), serial.data());
    }

    /// Drives the fan-out itself at `workers`, so the threaded path runs
    /// whatever the host's core count, and checks it bit for bit against
    /// the wrapped engine's serial unprepared `gemm` and its serial
    /// prepared primitive over the same preparation.
    fn assert_fan_out_matches_serial<E: GemmEngine + Clone>(engine: E, seed: u64) {
        // Ragged bands, ragged k groups, and m below the worker count.
        for (m, k, n) in [
            (1, 40, 24),
            (2, 33, 9),
            (3, 17, 40),
            (7, 19, 9),
            (65, 33, 37),
        ] {
            let (a, b) = pair(seed ^ (m as u64) << 8 ^ n as u64, m, k, n);
            let unprepared = engine.gemm(&a, &b).unwrap();
            let prepared = engine.prepare(&b).unwrap();
            let serial = engine.gemm_prepared(&a, &prepared).unwrap();
            assert_eq!(serial.data(), unprepared.data(), "{m}x{k}x{n}");
            let driver = ParallelGemm::new(engine.clone(), four_threads());
            for workers in [2, 3, 4] {
                let mut out = vec![f32::NAN; 5];
                driver
                    .fan_out_into(
                        &a,
                        &prepared,
                        &Epilogue::none(),
                        (m, k, n),
                        workers,
                        &mut out,
                    )
                    .unwrap();
                let what = format!("{} {m}x{k}x{n} at {workers} workers", engine.name());
                assert_eq!(out, unprepared.data(), "{what}");
            }
        }
    }

    #[test]
    fn fan_out_is_bit_identical_at_every_worker_count() {
        assert_fan_out_matches_serial(ExactEngine, 1);
        assert_fan_out_matches_serial(BfpEngine::new(BfpConfig::mirage_default()), 2);
        let rns = RnsBfpEngine::with_min_special_set(BfpConfig::mirage_default()).unwrap();
        assert_fan_out_matches_serial(rns, 3);
    }

    #[test]
    fn non_tile_invariant_engines_fall_back_to_serial() {
        let (a, b) = pair(92, 40, 64, 40);
        let stochastic = StochasticBfpEngine::new(BfpConfig::mirage_default(), 3);
        let analog = AnalogFxpEngine::new(8, 8, 16);
        assert_eq!(
            ParallelGemm::new(stochastic, four_threads())
                .gemm(&a, &b)
                .unwrap()
                .data(),
            stochastic.gemm(&a, &b).unwrap().data()
        );
        assert_eq!(
            ParallelGemm::new(analog, four_threads())
                .gemm(&a, &b)
                .unwrap()
                .data(),
            analog.gemm(&a, &b).unwrap().data()
        );
    }

    #[test]
    fn small_gemms_take_the_serial_path() {
        let (a, b) = pair(93, 4, 4, 4);
        let parallel = ParallelGemm::new(ExactEngine, four_threads());
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
    }

    #[test]
    fn planned_workers_clamp_to_host_work_and_rows() {
        // Regression guard for the BENCH_parallel.json slowdowns (0.94×
        // BFP, 0.88× prepared fp32): those came from workers pinned past
        // the host's core count time-slicing one CPU. The plan must
        // never oversubscribe, never hand a worker less than one
        // MIN_PARALLEL_WORK quantum or less than one row, and go fully
        // serial below the threshold.
        let cores = host_parallelism();
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
        // One band per worker: a single-row request spawns nothing, and
        // a few rows get at most one worker each.
        assert_eq!(over.planned_workers(1, 768, 3072), 1);
        assert!(over.planned_workers(3, 256, 256) <= 3);
        for m in 0..8 {
            assert!(over.planned_workers(m, 512, 512) <= m.max(1), "m = {m}");
        }
        // Non-tile-invariant engines always plan serially.
        let stochastic = ParallelGemm::new(
            StochasticBfpEngine::new(BfpConfig::mirage_default(), 3),
            four_threads(),
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
            ParallelGemm::new(ExactEngine, four_threads()),
            four_threads(),
        );
        assert_eq!(
            nested.gemm(&a, &b).unwrap().data(),
            ExactEngine.gemm(&a, &b).unwrap().data()
        );
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
        let parallel = ParallelGemm::new(engine, four_threads());
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
        // The prepared primitive's threaded path — 2 row bands, then
        // the epilogue — driven directly so it also runs on a 1-CPU
        // host.
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
        let clean = ParallelGemm::new(engine.clone(), four_threads());
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&fused(&clean).unwrap()), bits(&serial));

        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(6).with_residue_flip_rate(1e-3),
        ));
        let armed = ParallelGemm::new(engine.with_injector(Arc::clone(&injector)), four_threads());
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
