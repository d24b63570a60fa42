//! The traced run's instrumentation: a timing [`GemmEngine`] decorator
//! that records one span per call into an in-memory [`Recorder`].
//!
//! [`Timed`] forwards **every** entry point of the trait — including
//! `prepare_tile` and the fused `gemm_prepared_epilogue_into` — to the
//! wrapped engine, so a plan compiled over it runs exactly the program
//! it would run without it (same steps, same fused epilogues, same
//! bits). Only the clock reads and one span push per call are added.

use mirage_tensor::engines::Epilogue;
use mirage_tensor::{GemmEngine, PreparedRhs, Result, Tensor};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Which entry point a recorded GEMM call came through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `gemm`: unprepared, both operands quantized on every call.
    Raw,
    /// `gemm_prepared`, `gemm_prepared_into` or
    /// `gemm_prepared_epilogue_into`: the weight was prepared once.
    Prepared,
}

/// One GEMM call: its shape, entry point and wall-clock interval in
/// nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct GemmSpan {
    pub kind: CallKind,
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl GemmSpan {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn macs(&self) -> u64 {
        (self.m * self.k * self.n) as u64
    }
}

/// Spans of one instrumented engine layer. Shared by every clone of the
/// decorator, so it keeps recording after the engine moves into an
/// `Engines` stack or a `ParallelGemm`'s workers.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<GemmSpan>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Arc<Self> {
        Arc::new(Recorder {
            epoch,
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds since the epoch shared with the rest of the trace.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<GemmSpan> {
        std::mem::take(&mut *self.spans.lock().unwrap_or_else(PoisonError::into_inner))
    }

    fn push(&self, span: GemmSpan) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }
}

/// A [`GemmEngine`] decorator recording one [`GemmSpan`] per GEMM call;
/// results are the wrapped engine's, bit for bit.
#[derive(Debug, Clone)]
pub struct Timed<E> {
    inner: E,
    recorder: Arc<Recorder>,
}

impl<E: GemmEngine> Timed<E> {
    pub fn new(inner: E, recorder: Arc<Recorder>) -> Self {
        Timed { inner, recorder }
    }

    fn timed<T>(
        &self,
        kind: CallKind,
        (m, k, n): (usize, usize, usize),
        call: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.recorder.now_ns();
        let out = call();
        let end_ns = self.recorder.now_ns();
        self.recorder.push(GemmSpan {
            kind,
            m,
            k,
            n,
            start_ns,
            end_ns,
        });
        out
    }
}

/// `(m, k, n)` of `a · b` as far as the operand shapes tell; malformed
/// operands are left for the wrapped engine to reject.
fn dims(a: &Tensor, k_b: usize, n: usize) -> (usize, usize, usize) {
    let shape = a.shape();
    let m = shape.first().copied().unwrap_or(0);
    let k = shape.get(1).copied().unwrap_or(k_b);
    (m, k, n)
}

impl<E: GemmEngine> GemmEngine for Timed<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm(&self, a: &Tensor, b: &Tensor) -> Result<Tensor> {
        let n = b.shape().get(1).copied().unwrap_or(0);
        let k_b = b.shape().first().copied().unwrap_or(0);
        self.timed(CallKind::Raw, dims(a, k_b, n), || self.inner.gemm(a, b))
    }

    fn tile_invariant(&self) -> bool {
        self.inner.tile_invariant()
    }

    fn prepare(&self, b: &Tensor) -> Result<PreparedRhs> {
        self.inner.prepare(b)
    }

    fn prepare_tile(
        &self,
        whole: &PreparedRhs,
        c0: usize,
        width: usize,
    ) -> Result<Option<PreparedRhs>> {
        self.inner.prepare_tile(whole, c0, width)
    }

    fn gemm_prepared(&self, a: &Tensor, b: &PreparedRhs) -> Result<Tensor> {
        self.timed(CallKind::Prepared, dims(a, b.k(), b.n()), || {
            self.inner.gemm_prepared(a, b)
        })
    }

    fn gemm_prepared_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        self.timed(CallKind::Prepared, dims(a, b.k(), b.n()), || {
            self.inner.gemm_prepared_into(a, b, out)
        })
    }

    fn gemm_prepared_epilogue_into(
        &self,
        a: &Tensor,
        b: &PreparedRhs,
        epilogue: &Epilogue<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(usize, usize)> {
        self.timed(CallKind::Prepared, dims(a, b.k(), b.n()), || {
            self.inner.gemm_prepared_epilogue_into(a, b, epilogue, out)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mirage_core::Mirage;
    use mirage_models::serving::transformer_ff_proxy;
    use mirage_nn::{CompiledNetwork, Engines};
    use mirage_tensor::parallel::{ParallelGemm, TileConfig};
    use rand::SeedableRng;

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_same_program(plain: &CompiledNetwork, timed: &CompiledNetwork, rows: usize) {
        assert_eq!(plain.step_names(), timed.step_names());
        assert!(
            plain.step_names().contains(&"dense+relu"),
            "the fused epilogue must survive: {:?}",
            plain.step_names()
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Tensor::randn(&[rows, 32], 1.0, &mut rng);
        assert_eq!(
            bits(&plain.run(&x).expect("plain run")),
            bits(&timed.run(&x).expect("timed run"))
        );
    }

    fn proxy() -> mirage_nn::Sequential {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        transformer_ff_proxy(32, 2, 10, &mut rng)
    }

    #[test]
    fn compiled_through_the_decorator_is_the_same_program() {
        let engine = Mirage::paper_default().gemm_engine();
        let recorder = Recorder::new(Instant::now());
        let net = proxy();
        let plain = net.compile(&Engines::uniform(engine)).unwrap();
        let timed = net
            .compile(&Engines::uniform(Timed::new(engine, Arc::clone(&recorder))))
            .unwrap();
        assert_same_program(&plain, &timed, 4);
        let spans = recorder.take();
        // 2 blocks × 2 dense + the head, all through the prepared path.
        assert_eq!(spans.len(), 5);
        assert!(spans
            .iter()
            .all(|s| s.kind == CallKind::Prepared && s.m == 4));
    }

    #[test]
    fn decorator_inside_a_two_thread_parallel_gemm_is_the_same_program() {
        let engine = Mirage::paper_default().gemm_engine();
        let config = TileConfig::auto().with_threads(2);
        let recorder = Recorder::new(Instant::now());
        let net = proxy();
        let plain = net
            .compile(&Engines::uniform(ParallelGemm::new(engine, config)))
            .unwrap();
        let timed = net
            .compile(&Engines::uniform(ParallelGemm::new(
                Timed::new(engine, Arc::clone(&recorder)),
                config,
            )))
            .unwrap();
        assert_same_program(&plain, &timed, 64);
        assert!(!recorder.take().is_empty(), "inner calls are recorded");
    }

    #[test]
    fn raw_calls_are_recorded_with_their_shape() {
        let recorder = Recorder::new(Instant::now());
        let engine = Timed::new(Mirage::paper_default().gemm_engine(), Arc::clone(&recorder));
        let a = Tensor::full(&[3, 16], 0.5);
        let b = Tensor::full(&[16, 5], -1.0);
        let y = engine.gemm(&a, &b).unwrap();
        assert_eq!(
            bits(&y),
            bits(&Mirage::paper_default().gemm_engine().gemm(&a, &b).unwrap())
        );
        let spans = recorder.take();
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].kind, spans[0].m, spans[0].k, spans[0].n),
            (CallKind::Raw, 3, 16, 5)
        );
        assert_eq!(spans[0].macs(), 240);
    }
}
