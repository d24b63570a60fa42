//! A call-counting [`GemmEngine`] wrapper for verifying *where* work
//! happens, not just what it computes.
//!
//! The compiled-model serving claims ("zero weight-side quantization
//! after compile") are about which engine entry points run on the hot
//! path: weight-side quantization happens inside [`GemmEngine::prepare`]
//! (once, at compile time) or inside a raw [`GemmEngine::gemm`] (every
//! call, on the eager path) — never inside a prepared GEMM.
//! [`CountingEngine`] wraps any engine
//! and tallies every entry point through shared atomic counters, so a
//! test can compile a model, serve a thousand requests, and assert the
//! `prepare`/`gemm` counters did not move — the call-count analogue of
//! `kernel_microbench`'s scratch-pointer spot-check.

use mirage_tensor::engines::Epilogue;
use mirage_tensor::{GemmEngine, PreparedRhs, Result, Tensor};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared tallies of every [`GemmEngine`] entry point (see
/// [`CountingEngine`]). Counters are atomic so the wrapped engine can
/// run under the parallel driver.
#[derive(Debug, Default)]
pub struct GemmCounters {
    raw_gemms: AtomicUsize,
    prepares: AtomicUsize,
    prepared_gemms: AtomicUsize,
}

impl GemmCounters {
    /// Calls to [`GemmEngine::gemm`] — the *unprepared* path, which
    /// re-runs B-side quantization every time on quantizing engines.
    pub fn raw_gemms(&self) -> usize {
        self.raw_gemms.load(Ordering::Relaxed)
    }

    /// Calls to [`GemmEngine::prepare`] — the one-time weight-side
    /// quantization.
    pub fn prepares(&self) -> usize {
        self.prepares.load(Ordering::Relaxed)
    }

    /// Prepared GEMMs — [`GemmEngine::gemm_prepared`],
    /// [`GemmEngine::gemm_prepared_into`] or
    /// [`GemmEngine::gemm_prepared_epilogue_into`], one count per call:
    /// the serving hot path, which only quantizes the activation side.
    pub fn prepared_gemms(&self) -> usize {
        self.prepared_gemms.load(Ordering::Relaxed)
    }

    /// Total weight-side quantization opportunities: raw GEMMs plus
    /// preparations. On a compiled serving path this must stay frozen
    /// at its post-compile value.
    pub fn weight_side_work(&self) -> usize {
        self.raw_gemms() + self.prepares()
    }
}

/// A [`GemmEngine`] decorator that counts entry-point calls in shared
/// [`GemmCounters`] and otherwise delegates everything — results are
/// bit-identical to the wrapped engine by construction.
#[derive(Debug, Clone)]
pub struct CountingEngine<E> {
    inner: E,
    counters: Arc<GemmCounters>,
}

impl<E: GemmEngine> CountingEngine<E> {
    /// Wraps `inner`, returning the engine and a handle to its
    /// counters (the handle stays valid after the engine is moved into
    /// an `Engines`/`Arc<dyn GemmEngine>` stack).
    pub fn new(inner: E) -> (Self, Arc<GemmCounters>) {
        let counters = Arc::new(GemmCounters::default());
        (
            CountingEngine {
                inner,
                counters: Arc::clone(&counters),
            },
            counters,
        )
    }
}

impl<E: GemmEngine> GemmEngine for CountingEngine<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn tile_invariant(&self) -> bool {
        self.inner.tile_invariant()
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        self.counters.raw_gemms.fetch_add(1, Ordering::Relaxed);
        self.inner.gemm(a, b)
    }

    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        self.counters.prepares.fetch_add(1, Ordering::Relaxed);
        self.inner.prepare(b)
    }

    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        self.counters.prepared_gemms.fetch_add(1, Ordering::Relaxed);
        self.inner.gemm_prepared_epilogue_into(a, b, epilogue, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_tensor::engines::ExactEngine;

    #[test]
    fn counts_every_entry_point_and_stays_bit_identical() {
        let (engine, counters) = CountingEngine::new(ExactEngine);
        let a = Tensor::full(&[4, 8], 0.5);
        let b = Tensor::full(&[8, 3], -1.0);
        let reference = ExactEngine.gemm(&a, &b).unwrap();
        assert_eq!(engine.gemm(&a, &b).unwrap().data(), reference.data());
        let prepared = engine.prepare(&b).unwrap();
        assert_eq!(
            engine.gemm_prepared(&a, &prepared).unwrap().data(),
            reference.data()
        );
        let mut out = Vec::new();
        assert_eq!(
            engine.gemm_prepared_into(&a, &prepared, &mut out).unwrap(),
            (4, 3)
        );
        assert_eq!(out, reference.data());
        engine
            .gemm_prepared_epilogue_into(&a, &prepared, &Epilogue::none().with_relu(), &mut out)
            .unwrap();
        let _ = engine.prepare_tile(&prepared, 0, 2).unwrap();
        assert_eq!(counters.raw_gemms(), 1);
        assert_eq!(counters.prepares(), 1);
        assert_eq!(counters.prepared_gemms(), 3);
        assert_eq!(counters.weight_side_work(), 2);
        assert_eq!(engine.name(), "fp32");
        assert!(engine.tile_invariant());
    }
}
