//! Deterministic, seedable fault injection for GEMM engines.
//!
//! The paper's fault-tolerance story (§VI-E) is that analog noise flips
//! residue channels and perturbs phase levels, and RRNS redundancy
//! detects and corrects those errors. This module is the *injection*
//! half of that story, built for the serving stack:
//!
//! - [`FaultInjector`] — a deterministic, seedable corruption source,
//!   injected like the serving `Clock`: no global RNG, no wall time.
//!   Every decision comes from a counter-indexed splitmix64 stream, so
//!   a seeded run replays bit-identically. Rates are stored atomically
//!   and may be retuned under live traffic without recompiling plans.
//! - [`FaultyEngine`] — an adapter in the `ParallelGemm` mold: wraps
//!   any [`GemmEngine`] and corrupts its *outputs* (mantissa-bit flips
//!   per element, coarse phase glitches per call), so the exact, BFP,
//!   RNS-BFP and photonic paths can all misbehave under load. With
//!   every rate at zero the adapter is bit-identical to its inner
//!   engine.
//! - [`FaultScope`] / [`FaultCounts`] — thread-local per-request
//!   accounting. The serving front end opens a scope around each model
//!   execution; injection and correction events recorded anywhere in
//!   the call tree land in that scope, so each response can report
//!   exactly what happened to *it*. `ParallelGemm` workers run on
//!   their own threads: each opens a scope of its own when the caller
//!   has one open, and the caller folds the workers' counts into its
//!   scope after the join.
//!
//! Residue-channel flips ([`FaultInjector::residue_fault_plan`]) are
//! consumed by the RRNS-protected engine
//! (`engines::ProtectedRnsBfpEngine`), which detects and corrects them;
//! output corruption from [`FaultyEngine`] is *silent* by construction —
//! it models an unprotected accelerator and exists so benches can show
//! what protection buys.
//!
//! ## Determinism contract
//!
//! The injector draws from `splitmix64(seed, draw_index)` where the
//! draw index is a shared atomic counter. Under serial execution the
//! sequence of draws — and therefore every injected fault — is a pure
//! function of the seed and the request order. A rate of exactly `0.0`
//! consumes no draws at all, so a disabled injector is free and cannot
//! perturb the draw stream.
//!
//! Residue flips are drawn **once per GEMM call**:
//! [`FaultInjector::residue_fault_plan`] reserves one contiguous range
//! of draw indices for the call's residue words, in the canonical word
//! order `w = ((i·n + j)·groups + gi)·C + c`, and returns the sorted
//! list of words it corrupts. Serially, that range holds exactly the
//! draws a per-word [`FaultInjector::corrupt_residue`] loop in
//! canonical order would consume, so a kernel may visit the words in
//! any order and still meet the same faults at the same words. Under
//! threaded execution (parallel tiles, multiple workers) each call's
//! plan is still a deterministic function of where its range starts,
//! but which call reserves which range depends on interleaving; the
//! protection contract (every corruption detected, corrected or
//! surfaced) is interleaving-independent, and the deterministic tests
//! pin the serial case.
//!
//! One known divergence from the per-word stream: a call that aborts on
//! an uncorrectable group has still reserved its whole range, where a
//! per-word loop would have stopped drawing at that group. Fault sites
//! of later calls therefore match the per-word stream only up to the
//! first uncorrectable call.

use crate::engines::{Epilogue, GemmEngine, PreparedRhs};
use crate::{Result, Tensor};
use mirage_rns::Modulus;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Operating point of a [`FaultInjector`]: the seed and the injection
/// rates. All rates are probabilities in `[0, 1]` (clamped on use).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the deterministic draw stream.
    pub seed: u64,
    /// Per-output-element probability of flipping one low mantissa bit
    /// (applied by [`FaultyEngine`] — the per-MAC noise floor).
    pub mantissa_flip_rate: f64,
    /// Per-residue-channel probability of replacing a modular dot's
    /// residue with a random wrong value (consumed by the
    /// RRNS-protected engine — the paper's §VI-E error model).
    pub residue_flip_rate: f64,
    /// Per-GEMM-call probability of one coarse phase glitch: a high
    /// mantissa bit of one output element flips (applied by
    /// [`FaultyEngine`] — the per-request burst error).
    pub request_glitch_rate: f64,
}

impl FaultConfig {
    /// A configuration with every rate at zero: the injector draws
    /// nothing and corrupts nothing.
    pub fn disabled(seed: u64) -> Self {
        FaultConfig {
            seed,
            mantissa_flip_rate: 0.0,
            residue_flip_rate: 0.0,
            request_glitch_rate: 0.0,
        }
    }

    /// Sets the per-element mantissa-bit-flip rate.
    #[must_use]
    pub fn with_mantissa_flip_rate(mut self, rate: f64) -> Self {
        self.mantissa_flip_rate = rate;
        self
    }

    /// Sets the per-channel residue-flip rate.
    #[must_use]
    pub fn with_residue_flip_rate(mut self, rate: f64) -> Self {
        self.residue_flip_rate = rate;
        self
    }

    /// Sets the per-call phase-glitch rate.
    #[must_use]
    pub fn with_request_glitch_rate(mut self, rate: f64) -> Self {
        self.request_glitch_rate = rate;
        self
    }
}

impl Default for FaultConfig {
    /// Seed 0, every rate 0.
    fn default() -> Self {
        FaultConfig::disabled(0)
    }
}

/// A snapshot of fault accounting: what was injected and what the
/// protection layer did about it. Attached per request to the serving
/// `RequestStats` and aggregated server-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounts {
    /// Corruption events injected (residue flips, mantissa flips,
    /// phase glitches).
    pub injected: u64,
    /// Corrupted group results detected by redundancy checks.
    pub detected: u64,
    /// Detected corruptions corrected exactly (majority-logic RRNS
    /// decoding located the bad channel).
    pub corrected: u64,
    /// Detected corruptions that could not be corrected; the affected
    /// execution is aborted with a typed error, never silently wrong.
    pub uncorrectable: u64,
}

impl FaultCounts {
    /// The all-zero snapshot.
    pub const ZERO: FaultCounts = FaultCounts {
        injected: 0,
        detected: 0,
        corrected: 0,
        uncorrectable: 0,
    };

    /// Adds another snapshot into this one, saturating.
    pub fn accumulate(&mut self, other: FaultCounts) {
        self.injected = self.injected.saturating_add(other.injected);
        self.detected = self.detected.saturating_add(other.detected);
        self.corrected = self.corrected.saturating_add(other.corrected);
        self.uncorrectable = self.uncorrectable.saturating_add(other.uncorrectable);
    }

    /// `true` when nothing at all was injected or detected.
    pub fn is_zero(&self) -> bool {
        *self == FaultCounts::ZERO
    }
}

// Thread-local per-request scope. `None`-like sentinel is `active ==
// false`; counts are only meaningful while a scope is open.
thread_local! {
    static SCOPE_ACTIVE: Cell<bool> = const { Cell::new(false) };
    static SCOPE_COUNTS: Cell<FaultCounts> = const { Cell::new(FaultCounts::ZERO) };
}

/// Adds to the open scope on this thread, if any.
fn scope_add(f: impl FnOnce(&mut FaultCounts)) {
    SCOPE_ACTIVE.with(|active| {
        if active.get() {
            SCOPE_COUNTS.with(|counts| {
                let mut c = counts.get();
                f(&mut c);
                counts.set(c);
            });
        }
    });
}

/// A thread-local accounting scope: every fault event recorded on this
/// thread between [`FaultScope::begin`] and [`FaultScope::finish`] is
/// attributed to the scope. The serving worker opens one scope per
/// model execution, so each request's response carries exactly the
/// faults of its own run.
///
/// Scopes nest: an inner scope shadows the outer one and events inside
/// it are attributed to the inner scope only; `finish` restores the
/// outer scope's counts untouched. A scope must be finished on the
/// thread that began it.
#[derive(Debug)]
pub struct FaultScope {
    prev_active: bool,
    prev_counts: FaultCounts,
}

impl FaultScope {
    /// Opens a scope on the current thread, saving any enclosing scope.
    pub fn begin() -> Self {
        let prev_active = SCOPE_ACTIVE.with(|a| a.replace(true));
        let prev_counts = SCOPE_COUNTS.with(|c| c.replace(FaultCounts::ZERO));
        FaultScope {
            prev_active,
            prev_counts,
        }
    }

    /// Closes the scope, returning the counts recorded inside it and
    /// restoring the enclosing scope (if any).
    pub fn finish(self) -> FaultCounts {
        let counts = SCOPE_COUNTS.with(|c| c.replace(self.prev_counts));
        SCOPE_ACTIVE.with(|a| a.set(self.prev_active));
        counts
    }

    /// Whether a scope is open on the current thread.
    pub(crate) fn is_active() -> bool {
        SCOPE_ACTIVE.with(Cell::get)
    }

    /// Adds counts recorded on another thread — a parallel GEMM
    /// worker's own scope — to the scope open on this thread, if any.
    pub(crate) fn record(counts: FaultCounts) {
        scope_add(|c| c.accumulate(counts));
    }
}

/// A deterministic, seedable fault source shared by the faulty adapter
/// and the RRNS-protected engine. See the [module docs](self) for the
/// determinism contract.
///
/// The injector is `Sync` and is shared via [`Arc`]; its global
/// counters ([`FaultInjector::counts`]) accumulate every event over the
/// injector's lifetime, while per-request attribution goes through the
/// thread-local [`FaultScope`].
#[derive(Debug)]
pub struct FaultInjector {
    seed: u64,
    draws: AtomicU64,
    mantissa_flip_rate: AtomicU64,
    residue_flip_rate: AtomicU64,
    request_glitch_rate: AtomicU64,
    injected: AtomicU64,
    detected: AtomicU64,
    corrected: AtomicU64,
    uncorrectable: AtomicU64,
}

/// splitmix64: a tiny, high-quality 64-bit mixer (Steele et al.),
/// evaluated per draw index so the stream is random-access.
fn splitmix64(index: u64, seed: u64) -> u64 {
    splitmix64_finish(seed.wrapping_add(index.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA)))
}

/// splitmix64's increment: draw `i + 1` starts from draw `i`'s state
/// plus this constant.
const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64's output mix of the state `seed + (index + 1) · γ`.
#[inline(always)]
fn splitmix64_finish(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A toss mask with its first `by` draws consumed: `(mask, valid)`
/// advanced by `by ≤ valid`, or emptied when `by` reaches `valid`.
fn shifted(mask: u64, valid: u64, by: u64) -> (u64, u64) {
    if by >= valid {
        (0, 0)
    } else {
        (mask >> by, valid - by)
    }
}

/// Stores a clamped probability as `f64` bits in an atomic.
fn store_rate(cell: &AtomicU64, rate: f64) {
    let clamped = if rate.is_finite() {
        rate.clamp(0.0, 1.0)
    } else {
        0.0
    };
    cell.store(clamped.to_bits(), Ordering::Relaxed);
}

fn load_rate(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

impl FaultInjector {
    /// Builds an injector from a configuration. Rates are clamped to
    /// `[0, 1]`.
    pub fn new(config: FaultConfig) -> Self {
        let injector = FaultInjector {
            seed: config.seed,
            draws: AtomicU64::new(0),
            mantissa_flip_rate: AtomicU64::new(0),
            residue_flip_rate: AtomicU64::new(0),
            request_glitch_rate: AtomicU64::new(0),
            injected: AtomicU64::new(0),
            detected: AtomicU64::new(0),
            corrected: AtomicU64::new(0),
            uncorrectable: AtomicU64::new(0),
        };
        store_rate(&injector.mantissa_flip_rate, config.mantissa_flip_rate);
        store_rate(&injector.residue_flip_rate, config.residue_flip_rate);
        store_rate(&injector.request_glitch_rate, config.request_glitch_rate);
        injector
    }

    /// The seed of the draw stream.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of random draws consumed so far (a rate of zero consumes
    /// none).
    pub fn draws(&self) -> u64 {
        self.draws.load(Ordering::Relaxed)
    }

    /// The current per-element mantissa-flip rate.
    pub fn mantissa_flip_rate(&self) -> f64 {
        load_rate(&self.mantissa_flip_rate)
    }

    /// The current per-channel residue-flip rate.
    pub fn residue_flip_rate(&self) -> f64 {
        load_rate(&self.residue_flip_rate)
    }

    /// The current per-call phase-glitch rate.
    pub fn request_glitch_rate(&self) -> f64 {
        load_rate(&self.request_glitch_rate)
    }

    /// Retunes the per-element mantissa-flip rate under live traffic.
    pub fn set_mantissa_flip_rate(&self, rate: f64) {
        store_rate(&self.mantissa_flip_rate, rate);
    }

    /// Retunes the per-channel residue-flip rate under live traffic.
    pub fn set_residue_flip_rate(&self, rate: f64) {
        store_rate(&self.residue_flip_rate, rate);
    }

    /// Retunes the per-call phase-glitch rate under live traffic.
    pub fn set_request_glitch_rate(&self, rate: f64) {
        store_rate(&self.request_glitch_rate, rate);
    }

    /// Lifetime totals of every event this injector has seen.
    pub fn counts(&self) -> FaultCounts {
        FaultCounts {
            injected: self.injected.load(Ordering::Relaxed),
            detected: self.detected.load(Ordering::Relaxed),
            corrected: self.corrected.load(Ordering::Relaxed),
            uncorrectable: self.uncorrectable.load(Ordering::Relaxed),
        }
    }

    /// One raw 64-bit draw from the indexed stream.
    fn draw_u64(&self) -> u64 {
        let index = self.draws.fetch_add(1, Ordering::Relaxed);
        splitmix64(index, self.seed)
    }

    /// One uniform draw in `[0, 1)`.
    fn draw_unit(&self) -> f64 {
        // 53 mantissa bits: the standard exact uniform construction.
        (self.draw_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial at `rate`; a rate of exactly zero consumes no
    /// draw (the disabled injector never perturbs the stream).
    fn toss(&self, rate: f64) -> bool {
        rate > 0.0 && self.draw_unit() < rate
    }

    /// Records `count` injection events (global totals + open scope).
    pub(crate) fn note_injected(&self, count: u64) {
        if count == 0 {
            return;
        }
        self.injected.fetch_add(count, Ordering::Relaxed);
        scope_add(|c| c.injected = c.injected.saturating_add(count));
    }

    /// Records a redundancy-check detection. Called by protected
    /// execution paths (e.g. the RRNS engine) when a group result fails
    /// its consistency check.
    pub fn record_detected(&self) {
        self.detected.fetch_add(1, Ordering::Relaxed);
        scope_add(|c| c.detected = c.detected.saturating_add(1));
    }

    /// Records an exact correction of a detected corruption.
    pub fn record_corrected(&self) {
        self.corrected.fetch_add(1, Ordering::Relaxed);
        scope_add(|c| c.corrected = c.corrected.saturating_add(1));
    }

    /// Records a detected corruption that could not be corrected.
    pub fn record_uncorrectable(&self) {
        self.uncorrectable.fetch_add(1, Ordering::Relaxed);
        scope_add(|c| c.uncorrectable = c.uncorrectable.saturating_add(1));
    }

    /// Maybe flips a residue channel: with probability
    /// [`FaultConfig::residue_flip_rate`], returns a uniformly wrong
    /// residue modulo `modulus` (never the original value). Returns
    /// `None` when no fault fires. The per-word reference stream that
    /// [`FaultInjector::residue_fault_plan`] reproduces for a whole call.
    pub fn corrupt_residue(&self, residue: u64, modulus: u64) -> Option<u64> {
        if modulus < 2 || !self.toss(self.residue_flip_rate()) {
            return None;
        }
        // delta in [1, m): the corrupted residue is never the original.
        let delta = 1 + self.draw_u64() % (modulus - 1);
        self.note_injected(1);
        Some((residue + delta) % modulus)
    }

    /// Plans every residue flip of one GEMM call: the `words` residue
    /// words in canonical order, word `w` on channel `w % moduli.len()`.
    /// Returns the corrupted words in ascending order, each with the
    /// `delta ∈ [1, m)` that [`FaultInjector::corrupt_residue`] would
    /// have added to it — same toss, same delta draw, same stream —
    /// after reserving the call's draws with one atomic step. The
    /// kernel counts a flip as injected when it applies it.
    ///
    /// A zero rate (or no words) returns an empty plan and draws nothing.
    pub fn residue_fault_plan(&self, words: u64, moduli: &[Modulus]) -> Vec<ResidueFault> {
        let rate = self.residue_flip_rate();
        if rate <= 0.0 || words == 0 || moduli.is_empty() {
            return Vec::new();
        }
        // `draw_unit() < rate` ⟺ `(x >> 11) · 2⁻⁵³ < rate` ⟺
        // `(x >> 11) < ⌈rate · 2⁵³⌉`: both sides are exact, so the
        // integer test makes the same decision as `toss`.
        let threshold = (rate * (1u64 << 53) as f64).ceil() as u64;
        let channels = moduli.len() as u64;
        loop {
            let start = self.draws.load(Ordering::Relaxed);
            let mut plan = Vec::new();
            // Walk the draw stream: each word takes one toss draw, and
            // a fire takes the next draw for its delta. `tosses` bit `b`
            // answers the toss test for draw `next + b`, for the
            // `valid` draws from `next` on — 64 independent hashes per
            // refill, each kept until the walk passes it.
            let mut next = start;
            let mut w = 0u64;
            let (mut tosses, mut valid) = (0u64, 0u64);
            while w < words {
                if valid == 0 {
                    tosses = self.tosses64(next, threshold);
                    valid = 64;
                }
                let span = valid.min(words - w);
                let k = u64::from(tosses.trailing_zeros());
                if k >= span {
                    // No fire among the next `span` words.
                    next = next.wrapping_add(span);
                    w += span;
                    (tosses, valid) = shifted(tosses, valid, span);
                    continue;
                }
                let word = w + k;
                let m = moduli[(word % channels) as usize].value();
                let x = splitmix64(next.wrapping_add(k + 1), self.seed);
                plan.push(ResidueFault {
                    word,
                    delta: 1 + x % (m - 1),
                });
                next = next.wrapping_add(k + 2);
                w = word + 1;
                (tosses, valid) = shifted(tosses, valid, k + 2);
            }
            let used = next.wrapping_sub(start);
            if self
                .draws
                .compare_exchange(start, next, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                debug_assert_eq!(used, words + plan.len() as u64);
                return plan;
            }
        }
    }

    /// The toss tests `(x >> 11) < threshold` of the 64 draws from index
    /// `first` on, as a bit mask (bit `b` for draw `first + b`).
    #[inline(always)]
    fn tosses64(&self, first: u64, threshold: u64) -> u64 {
        let state = self
            .seed
            .wrapping_add(first.wrapping_add(1).wrapping_mul(GOLDEN_GAMMA));
        let mut fired = 0u64;
        for bit in 0..64u64 {
            let x = splitmix64_finish(state.wrapping_add(bit.wrapping_mul(GOLDEN_GAMMA)));
            fired |= u64::from((x >> 11) < threshold) << bit;
        }
        fired
    }

    /// Corrupts a finished output buffer in place: per-element low
    /// mantissa-bit flips at the per-MAC rate, plus at most one coarse
    /// phase glitch (high mantissa bit) at the per-call rate. Returns
    /// how many elements were corrupted. Exponent and sign bits are
    /// untouched, so finite values stay finite.
    pub fn corrupt_output(&self, out: &mut [f32]) -> u64 {
        let mut flipped = 0u64;
        let rate = self.mantissa_flip_rate();
        if rate > 0.0 {
            for value in out.iter_mut() {
                if self.toss(rate) {
                    let bit = self.draw_u64() % 10; // low mantissa bits
                    *value = f32::from_bits(value.to_bits() ^ (1 << bit));
                    self.note_injected(1);
                    flipped += 1;
                }
            }
        }
        if !out.is_empty() && self.toss(self.request_glitch_rate()) {
            let index = (self.draw_u64() % out.len() as u64) as usize;
            // Bit 22: the top mantissa bit — a coarse phase-level jump.
            out[index] = f32::from_bits(out[index].to_bits() ^ (1 << 22));
            self.note_injected(1);
            flipped += 1;
        }
        flipped
    }
}

/// One planned residue flip of a GEMM call (see
/// [`FaultInjector::residue_fault_plan`]): the corrupted word's
/// canonical index and the amount added to its residue, modulo the
/// word's channel modulus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidueFault {
    /// Canonical word index `((i·n + j)·groups + gi)·C + c`.
    pub word: u64,
    /// The additive corruption, in `[1, m)`.
    pub delta: u64,
}

/// A [`GemmEngine`] adapter that corrupts the outputs of any inner
/// engine — the unprotected half of the fault story, mirroring
/// [`crate::parallel::ParallelGemm`]'s adapter pattern so the exact,
/// BFP, RNS-BFP and photonic paths can all be injected under live
/// traffic.
///
/// With every rate at zero the adapter is **bit-identical** to the
/// inner engine (corruption is a post-pass over the finished output and
/// a zero rate never fires). With a rate above zero, corruption is
/// *silent* — the point of this adapter is to model an accelerator with
/// no redundancy, against which the RRNS-protected engine is measured.
/// Every flip is still counted (injector totals and the open
/// [`FaultScope`]), so harnesses can prove no corruption went
/// unaccounted.
///
/// ```
/// use mirage_tensor::faults::{FaultConfig, FaultInjector, FaultyEngine};
/// use mirage_tensor::{engines::ExactEngine, GemmEngine, Tensor};
/// use std::sync::Arc;
///
/// let injector = Arc::new(FaultInjector::new(FaultConfig::disabled(7)));
/// let faulty = FaultyEngine::new(ExactEngine, Arc::clone(&injector));
/// let a = Tensor::full(&[2, 3], 0.5);
/// let b = Tensor::full(&[3, 2], 2.0);
/// // Zero rates: bit-identical to the inner engine.
/// assert_eq!(faulty.gemm(&a, &b)?.data(), ExactEngine.gemm(&a, &b)?.data());
/// assert_eq!(injector.counts().injected, 0);
/// # Ok::<(), mirage_tensor::TensorError>(())
/// ```
#[derive(Debug)]
pub struct FaultyEngine<E> {
    inner: E,
    injector: Arc<FaultInjector>,
}

impl<E: GemmEngine> FaultyEngine<E> {
    /// Wraps `inner`, corrupting its outputs per `injector`.
    pub fn new(inner: E, injector: Arc<FaultInjector>) -> Self {
        FaultyEngine { inner, injector }
    }

    /// The wrapped engine.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The shared fault source.
    pub fn injector(&self) -> &Arc<FaultInjector> {
        &self.injector
    }

    /// Applies output corruption to an owned tensor.
    fn corrupt_tensor(&self, mut y: Tensor) -> Tensor {
        self.injector.corrupt_output(y.data_mut());
        y
    }
}

impl<E: GemmEngine> GemmEngine for FaultyEngine<E> {
    fn name(&self) -> &'static str {
        "mirage-faulty"
    }

    /// Delegates to the inner engine. The *clean* path (zero rates) is
    /// tile-invariant iff the inner engine is; with faults armed, the
    /// placement of corruptions depends on the execution partition
    /// (draws are consumed in execution order), which is within the
    /// adapter's contract — injected noise has no bit-identity to keep.
    fn tile_invariant(&self) -> bool {
        self.inner.tile_invariant()
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        Ok(self.corrupt_tensor(self.inner.gemm(a, b)?))
    }

    /// Prepares with the inner engine: preparation is weight-side work
    /// and weights are never corrupted (the §VI-E error model corrupts
    /// analog compute, not stored operands).
    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        self.inner.prepare(b)
    }

    /// Corrupts the inner engine's prepared output **before** the
    /// epilogue, as an unfused `dense → relu` plan would see it: the
    /// fault model hits the analog GEMM, not the elementwise tail.
    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        let (m, n) = self.inner.gemm_prepared_into(a, b, out)?;
        self.injector.corrupt_output(out);
        epilogue.apply(out, m, n)?;
        Ok((m, n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BfpEngine, ExactEngine, RnsBfpEngine};
    use mirage_bfp::BfpConfig;
    use rand::SeedableRng;

    fn armed(seed: u64, rate: f64) -> Arc<FaultInjector> {
        Arc::new(FaultInjector::new(
            FaultConfig::disabled(seed).with_mantissa_flip_rate(rate),
        ))
    }

    #[test]
    fn zero_rates_are_bit_identical_and_draw_free_on_every_engine() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(40);
        let a = Tensor::randn(&[4, 24], 1.0, &mut rng);
        let b = Tensor::randn(&[24, 5], 1.0, &mut rng);
        let cfg = BfpConfig::mirage_default();
        let injector = Arc::new(FaultInjector::new(FaultConfig::disabled(1)));
        let engines: Vec<Box<dyn GemmEngine>> = vec![
            Box::new(ExactEngine),
            Box::new(BfpEngine::new(cfg)),
            Box::new(RnsBfpEngine::with_min_special_set(cfg).unwrap()),
        ];
        for inner in engines {
            let clean = inner.gemm(&a, &b).unwrap();
            let name = inner.name();
            let faulty = FaultyEngine::new(inner, Arc::clone(&injector));
            assert_eq!(faulty.gemm(&a, &b).unwrap().data(), clean.data(), "{name}");
            let prepared = faulty.prepare(&b).unwrap();
            assert_eq!(
                faulty.gemm_prepared(&a, &prepared).unwrap().data(),
                clean.data()
            );
            let mut out = Vec::new();
            assert_eq!(
                faulty.gemm_prepared_into(&a, &prepared, &mut out).unwrap(),
                (4, 5)
            );
            assert_eq!(out, clean.data());
        }
        assert_eq!(injector.draws(), 0, "zero rates must consume no draws");
        assert!(injector.counts().is_zero());
    }

    #[test]
    fn seeded_corruption_replays_bit_identically() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let a = Tensor::randn(&[6, 16], 1.0, &mut rng);
        let b = Tensor::randn(&[16, 6], 1.0, &mut rng);
        let run = |seed: u64| {
            let faulty = FaultyEngine::new(ExactEngine, armed(seed, 0.25));
            let y = faulty.gemm(&a, &b).unwrap();
            (y.data().to_vec(), faulty.injector().counts().injected)
        };
        let (y1, n1) = run(99);
        let (y2, n2) = run(99);
        assert_eq!(y1, y2, "same seed must replay the same corruption");
        assert_eq!(n1, n2);
        assert!(n1 > 0, "a 25% rate over 36 elements should fire");
        let (y3, _) = run(100);
        assert_ne!(y1, y3, "different seeds should corrupt differently");
    }

    #[test]
    fn every_corruption_is_counted_never_silent_in_the_accounting() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let a = Tensor::randn(&[5, 8], 1.0, &mut rng);
        let b = Tensor::randn(&[8, 7], 1.0, &mut rng);
        let clean = ExactEngine.gemm(&a, &b).unwrap();
        let faulty = FaultyEngine::new(ExactEngine, armed(7, 0.2));
        let corrupt = faulty.gemm(&a, &b).unwrap();
        let differing = clean
            .data()
            .iter()
            .zip(corrupt.data())
            .filter(|(c, f)| c.to_bits() != f.to_bits())
            .count() as u64;
        let counted = faulty.injector().counts().injected;
        assert!(differing > 0);
        // Two flips can land on one element, so counted >= differing.
        assert!(counted >= differing, "{counted} < {differing}");
    }

    #[test]
    fn scopes_attribute_events_to_the_innermost_request() {
        let injector = armed(11, 1.0);
        let mut buf = [0.0f32; 8];
        let outer = FaultScope::begin();
        injector.corrupt_output(&mut buf);
        let outer_before_inner = 8; // every element flips at rate 1.0
        let inner = FaultScope::begin();
        injector.corrupt_output(&mut buf);
        injector.record_detected();
        injector.record_corrected();
        let inner_counts = inner.finish();
        assert_eq!(inner_counts.injected, 8); // one flip per element, glitch rate is 0
        let outer_counts = outer.finish();
        assert_eq!(outer_counts.injected, outer_before_inner);
        assert_eq!(outer_counts.detected, 0, "inner events stay inner");
        assert_eq!(inner_counts.detected, 1);
        assert_eq!(inner_counts.corrected, 1);
        // Global totals see everything.
        assert_eq!(injector.counts().injected, 16);
    }

    #[test]
    fn residue_corruption_is_reduced_and_never_a_fixed_point() {
        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(5).with_residue_flip_rate(1.0),
        ));
        for m in [2u64, 31, 32, 33, 37, 41] {
            for r in [0u64, 1, m - 1] {
                let corrupted = injector.corrupt_residue(r, m).unwrap();
                assert!(corrupted < m, "m = {m}");
                assert_ne!(corrupted, r, "m = {m}, r = {r}");
            }
        }
        assert!(injector.corrupt_residue(0, 1).is_none(), "m < 2 is inert");
        let off = Arc::new(FaultInjector::new(FaultConfig::disabled(5)));
        assert!(off.corrupt_residue(3, 31).is_none());
        assert_eq!(off.draws(), 0);
    }

    #[test]
    fn residue_fault_plan_reproduces_the_per_word_stream() {
        let moduli: Vec<Modulus> = [31u64, 32, 33, 37, 41]
            .iter()
            .map(|&m| Modulus::new(m).unwrap())
            .collect();
        let residue = |w: u64| w * 7 % moduli[(w % 5) as usize].value();
        for seed in [0u64, 3, 17, 0xDEAD_BEEF] {
            for rate in [0.0, 1e-5, 1e-3, 0.3, 1.0] {
                for words in [0u64, 1, 2, 9, 640, 100_003] {
                    let config = FaultConfig::disabled(seed).with_residue_flip_rate(rate);
                    let stream = FaultInjector::new(config);
                    // A prior draw, so the call's range starts mid-stream.
                    stream.corrupt_residue(0, 31);
                    let want: Vec<(u64, u64)> = (0..words)
                        .filter_map(|w| {
                            let m = moduli[(w % 5) as usize].value();
                            stream.corrupt_residue(residue(w), m).map(|r| (w, r))
                        })
                        .collect();
                    let planned = FaultInjector::new(config);
                    planned.corrupt_residue(0, 31);
                    let got: Vec<(u64, u64)> = planned
                        .residue_fault_plan(words, &moduli)
                        .iter()
                        .map(|f| {
                            let m = moduli[(f.word % 5) as usize].value();
                            (f.word, (residue(f.word) + f.delta) % m)
                        })
                        .collect();
                    let what = format!("seed {seed}, rate {rate}, {words} words");
                    assert_eq!(got, want, "{what}");
                    assert_eq!(planned.draws(), stream.draws(), "{what}");
                    if rate == 0.0 {
                        assert_eq!(planned.draws(), 0, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn rates_are_clamped_and_live_tunable() {
        let injector = FaultInjector::new(FaultConfig {
            seed: 1,
            mantissa_flip_rate: 7.0,
            residue_flip_rate: -3.0,
            request_glitch_rate: f64::NAN,
        });
        assert_eq!(injector.mantissa_flip_rate(), 1.0);
        assert_eq!(injector.residue_flip_rate(), 0.0);
        assert_eq!(injector.request_glitch_rate(), 0.0);
        injector.set_mantissa_flip_rate(0.5);
        assert_eq!(injector.mantissa_flip_rate(), 0.5);
        injector.set_residue_flip_rate(0.125);
        assert_eq!(injector.residue_flip_rate(), 0.125);
        injector.set_request_glitch_rate(2.0);
        assert_eq!(injector.request_glitch_rate(), 1.0);
        assert_eq!(injector.seed(), 1);
    }

    #[test]
    fn glitch_rate_fires_once_per_call_and_preserves_finiteness() {
        let injector = Arc::new(FaultInjector::new(
            FaultConfig::disabled(3).with_request_glitch_rate(1.0),
        ));
        let mut buf = [1.5f32; 16];
        let flips = injector.corrupt_output(&mut buf);
        assert_eq!(flips, 1, "glitch fires at most once per call");
        assert!(buf.iter().all(|v| v.is_finite()));
        assert_eq!(
            buf.iter()
                .filter(|v| v.to_bits() != 1.5f32.to_bits())
                .count(),
            1
        );
        let mut empty: [f32; 0] = [];
        assert_eq!(injector.corrupt_output(&mut empty), 0);
    }
}
