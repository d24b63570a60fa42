//! Type-erased prepared right-hand sides for [`GemmEngine`]s.
//!
//! Serving-scale inference multiplies millions of activation matrices
//! against the *same* static weight matrix. Engines that quantize their
//! operands (BFP, RNS-BFP, the photonic device path) used to redo the
//! B-side quantization on every call — and, under the tiled parallel
//! driver, once per row band on top of that. [`PreparedRhs`] makes
//! weight preparation a one-time cost: [`GemmEngine::prepare`] quantizes
//! (and, for RNS engines, residue-converts) the weight once, and
//! [`GemmEngine::gemm_prepared`] reuses that state on every subsequent
//! call, bit-identically to the unprepared path. Column tiles and
//! shards are windows of one preparation ([`PreparedRhs::cols`]), never
//! re-preparations.

#[cfg(any(doc, test))]
use crate::engines::GemmEngine;
use crate::{Result, Tensor, TensorError};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// A right-hand side matrix prepared once by [`GemmEngine::prepare`]
/// for repeated use with [`GemmEngine::gemm_prepared`].
///
/// The value is type-erased so `dyn GemmEngine` consumers (training
/// `Engines`, boxed engine stacks) can carry prepared weights without
/// knowing which engine produced them. It always retains the raw `f32`
/// matrix, so *any* engine can consume *any* `PreparedRhs`: an engine
/// that does not recognize the attached state (different engine,
/// different quantization config) transparently falls back to its plain
/// [`GemmEngine::gemm`] on the raw matrix — worst case the preparation
/// speedup is lost, never correctness.
///
/// A `PreparedRhs` is a **column window** of the engine state: the
/// state covers the whole prepared matrix, and [`PreparedRhs::cols`]
/// narrows the window without touching it. Engines read the window as
/// [`PreparedRhs::col_start`] plus [`PreparedRhs::n`] columns.
///
/// Cloning is cheap for the engine-specific state (shared via [`Arc`])
/// but clones the raw matrix; share a `PreparedRhs` by reference (or
/// wrap it in an `Arc`) rather than cloning per call.
#[derive(Clone)]
pub struct PreparedRhs {
    raw: Tensor,
    engine: &'static str,
    state: Option<Arc<dyn Any + Send + Sync>>,
    col_start: usize,
}

impl PreparedRhs {
    /// Wraps a raw rank-2 matrix with no engine-specific state — the
    /// default preparation, which [`GemmEngine::gemm_prepared`]'s default
    /// implementation feeds straight back to [`GemmEngine::gemm`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn from_raw(engine: &'static str, b: &Tensor) -> Result<Self> {
        if b.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: b.rank(),
            });
        }
        Ok(PreparedRhs {
            raw: b.clone(),
            engine,
            state: None,
            col_start: 0,
        })
    }

    /// Attaches engine-specific prepared state (pre-quantized groups,
    /// pre-converted residues, …) covering every column of the raw
    /// matrix.
    #[must_use]
    pub fn with_state(mut self, state: Arc<dyn Any + Send + Sync>) -> Self {
        self.state = Some(state);
        self
    }

    /// The raw `f32` matrix — the universal fallback representation.
    pub fn raw(&self) -> &Tensor {
        &self.raw
    }

    /// Reduction length `k` (rows of the prepared matrix).
    pub fn k(&self) -> usize {
        self.raw.shape()[0]
    }

    /// Output width `n` (columns of this window).
    pub fn n(&self) -> usize {
        self.raw.shape()[1]
    }

    /// Offset of this window's first column within the attached
    /// state: `0` for a fresh preparation, the sum of every
    /// [`PreparedRhs::cols`] offset for a tile.
    pub fn col_start(&self) -> usize {
        self.col_start
    }

    /// Name of the engine that prepared this value.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// The column window `[c0, c0 + width)` of this preparation — the
    /// tiled parallel driver's column tiles and the shard planner's
    /// column shards. The raw matrix is sliced, the engine state is
    /// shared through its [`Arc`] (no re-quantization), and `c0` adds
    /// to [`PreparedRhs::col_start`], so a tile of a tile addresses the
    /// original buffers. Any engine's prepared GEMM against the window
    /// is bit-identical to preparing the raw column slice from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimMismatch`] when the window exceeds
    /// this preparation's width.
    pub fn cols(&self, c0: usize, width: usize) -> Result<PreparedRhs> {
        let (k, n) = (self.k(), self.n());
        let end = c0.saturating_add(width);
        if end > n {
            return Err(TensorError::DimMismatch {
                left: end,
                right: n,
            });
        }
        let mut data = Vec::with_capacity(k * width);
        for row in self.raw.data().chunks(n.max(1)) {
            data.extend_from_slice(&row[c0..end]);
        }
        Ok(PreparedRhs {
            raw: Tensor::from_vec(data, &[k, width])?,
            engine: self.engine,
            state: self.state.clone(),
            col_start: self.col_start + c0,
        })
    }

    /// Downcasts the attached state to `S` **iff** this value was
    /// prepared by an engine named `engine`. Engines use this to
    /// recognize their own preparations and fall back to the raw matrix
    /// otherwise (callers still verify config equality themselves —
    /// two instances of one engine type can differ in quantization
    /// parameters).
    pub fn state_for<S: Any + Send + Sync>(&self, engine: &str) -> Option<&S> {
        if self.engine != engine {
            return None;
        }
        self.state.as_deref().and_then(|s| s.downcast_ref::<S>())
    }
}

impl fmt::Debug for PreparedRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedRhs")
            .field("engine", &self.engine)
            .field("k", &self.k())
            .field("n", &self.n())
            .field("col_start", &self.col_start)
            .field("has_state", &self.state.is_some())
            .finish()
    }
}

/// Checks [`PreparedRhs::cols`] against `engine`: every window of a
/// 40×20 preparation (width 0 included) is bit-identical to the same
/// columns of the unprepared GEMM, a window of a window adds the
/// offsets, out-of-range windows are typed errors, and foreign or
/// mismatched-config windows (`other_point` is the same engine type at
/// another operating point) still compute from the raw column slice.
#[cfg(test)]
pub(crate) fn check_column_windows(engine: &dyn GemmEngine, other_point: &dyn GemmEngine) {
    use crate::engines::ExactEngine;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let (m, n) = (5, 20);
    let a = Tensor::randn(&[m, 40], 1.0, &mut rng);
    let b = Tensor::randn(&[40, n], 1.0, &mut rng);
    let whole = engine.prepare(&b).unwrap();
    let full = engine.gemm(&a, &b).unwrap();
    let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let expect = |c0: usize, width: usize| {
        full.data()
            .chunks(n)
            .flat_map(|row| row[c0..c0 + width].iter().map(|v| v.to_bits()))
            .collect::<Vec<_>>()
    };
    let name = engine.name();
    for (c0, width) in [(0, n), (0, 7), (7, 6), (13, 7), (4, 0), (n, 0)] {
        let tile = whole.cols(c0, width).unwrap();
        assert_eq!((tile.n(), tile.col_start()), (width, c0), "{name}");
        let got = engine.gemm_prepared(&a, &tile).unwrap();
        assert_eq!(got.shape(), &[m, width], "{name} window ({c0}, {width})");
        assert_eq!(
            bits(&got),
            expect(c0, width),
            "{name} window ({c0}, {width})"
        );
        // The trait's tile hook is the same window.
        let hooked = engine.prepare_tile(&whole, c0, width).unwrap().unwrap();
        assert_eq!((hooked.n(), hooked.col_start()), (width, c0), "{name}");
    }
    // A window of a window addresses the original buffers.
    let inner = whole.cols(4, 12).unwrap().cols(3, 5).unwrap();
    assert_eq!(inner.col_start(), 7);
    assert_eq!(
        bits(&engine.gemm_prepared(&a, &inner).unwrap()),
        expect(7, 5)
    );
    // Out-of-range windows are typed errors at every level.
    for bad in [
        whole.cols(15, 6),
        whole.cols(usize::MAX, 2),
        whole.cols(4, 12).unwrap().cols(10, 3),
    ] {
        assert!(
            matches!(bad, Err(TensorError::DimMismatch { .. })),
            "{name}"
        );
    }
    // Foreign and mismatched-config windows compute from the raw slice.
    let slice = whole.cols(7, 6).unwrap().raw().clone();
    let foreign = ExactEngine.prepare(&b).unwrap().cols(7, 6).unwrap();
    assert_eq!(
        bits(&engine.gemm_prepared(&a, &foreign).unwrap()),
        bits(&engine.gemm(&a, &slice).unwrap()),
        "{name}"
    );
    assert_eq!(
        bits(
            &other_point
                .gemm_prepared(&a, &whole.cols(7, 6).unwrap())
                .unwrap()
        ),
        bits(&other_point.gemm(&a, &slice).unwrap()),
        "{name}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{BfpEngine, ExactEngine, GemmEngine};
    use mirage_bfp::BfpConfig;

    #[test]
    fn from_raw_validates_rank() {
        assert!(PreparedRhs::from_raw("fp32", &Tensor::zeros(&[2, 2, 2])).is_err());
        let p = PreparedRhs::from_raw("fp32", &Tensor::zeros(&[3, 4])).unwrap();
        assert_eq!((p.k(), p.n()), (3, 4));
        assert_eq!(p.engine(), "fp32");
    }

    #[test]
    fn state_for_checks_engine_name_and_type() {
        let p = PreparedRhs::from_raw("fp32", &Tensor::zeros(&[2, 2]))
            .unwrap()
            .with_state(Arc::new(42usize));
        assert_eq!(p.state_for::<usize>("fp32"), Some(&42));
        assert_eq!(p.state_for::<usize>("mirage-bfp"), None);
        assert_eq!(p.state_for::<i32>("fp32"), None);
    }

    #[test]
    fn default_prepare_round_trips_through_gemm() {
        let a = Tensor::full(&[4, 3], 0.5);
        let b = Tensor::full(&[3, 5], 2.0);
        let p = ExactEngine.prepare(&b).unwrap();
        assert_eq!(
            ExactEngine.gemm_prepared(&a, &p).unwrap().data(),
            ExactEngine.gemm(&a, &b).unwrap().data()
        );
    }

    #[test]
    fn default_gemm_prepared_into_reuses_the_caller_buffer() {
        let a = Tensor::full(&[4, 3], 0.5);
        let b = Tensor::full(&[3, 5], 2.0);
        let p = ExactEngine.prepare(&b).unwrap();
        let mut out = Vec::with_capacity(64);
        let ptr = out.as_ptr();
        assert_eq!(
            ExactEngine.gemm_prepared_into(&a, &p, &mut out).unwrap(),
            (4, 5)
        );
        assert_eq!(out, ExactEngine.gemm(&a, &b).unwrap().data());
        assert_eq!(
            out.as_ptr(),
            ptr,
            "the default impl must write into the caller's allocation"
        );
    }

    #[test]
    fn debug_is_informative() {
        let p = BfpEngine::new(BfpConfig::mirage_default())
            .prepare(&Tensor::zeros(&[4, 4]))
            .unwrap();
        let s = format!("{p:?}");
        assert!(
            s.contains("mirage-bfp") && s.contains("has_state: true"),
            "{s}"
        );
    }

    /// Every prepared entry point of the stateful engines — and of the
    /// adapters and smart pointers wrapping them — must compute from the
    /// engine state. The raw copy is swapped for zeros, so a path that
    /// silently falls back to `gemm(a, b.raw())` returns zeros (or the
    /// bare epilogue) instead of the expected product.
    #[test]
    fn prepared_paths_compute_from_the_state_not_the_raw_copy() {
        use crate::engines::{Epilogue, ProtectedRnsBfpEngine, RnsBfpEngine};
        use crate::faults::{FaultConfig, FaultInjector, FaultyEngine};
        use crate::parallel::{ParallelGemm, TileConfig};
        use rand::SeedableRng;
        let cfg = BfpConfig::mirage_default();
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        // Two `MIN_PARALLEL_WORK` quanta: the parallel layer fans out
        // over column tiles on any host with two or more cores.
        let a = Tensor::randn(&[64, 64], 1.0, &mut rng);
        let b = Tensor::randn(&[64, 16], 1.0, &mut rng);
        let bias: Vec<f32> = (0..16).map(|j| j as f32 * 0.125 - 1.0).collect();
        let epilogue = Epilogue::none().with_bias(&bias).with_relu();
        let two_workers = TileConfig {
            tile_m: 16,
            tile_n: 8,
            tile_k: 0,
            threads: 2,
        };
        let injector = Arc::new(FaultInjector::new(FaultConfig::disabled(1)));
        let stack = |engine: Arc<dyn GemmEngine>| -> Vec<(&'static str, Box<dyn GemmEngine>)> {
            vec![
                ("engine", Box::new(Arc::clone(&engine))),
                (
                    "parallel",
                    Box::new(ParallelGemm::new(Arc::clone(&engine), two_workers)),
                ),
                (
                    "faulty",
                    Box::new(FaultyEngine::new(
                        Arc::clone(&engine),
                        Arc::clone(&injector),
                    )),
                ),
            ]
        };
        let engines: [Arc<dyn GemmEngine>; 3] = [
            Arc::new(BfpEngine::new(cfg)),
            Arc::new(RnsBfpEngine::with_min_special_set(cfg).unwrap()),
            Arc::new(ProtectedRnsBfpEngine::with_min_special_set(cfg).unwrap()),
        ];
        for engine in engines {
            let expected = engine.gemm(&a, &b).unwrap();
            assert!(expected.data().iter().any(|&v| v != 0.0));
            let mut fused = expected.data().to_vec();
            epilogue.apply(&mut fused, 64, 16).unwrap();
            let mut state_only = engine.prepare(&b).unwrap();
            state_only.raw = Tensor::zeros(&[64, 16]);
            for (layer, wrapped) in stack(Arc::clone(&engine)) {
                let what = format!("{} via {layer}", engine.name());
                let y = wrapped.gemm_prepared(&a, &state_only).unwrap();
                assert_eq!(y.data(), expected.data(), "gemm_prepared, {what}");
                let mut out = Vec::new();
                assert_eq!(
                    wrapped
                        .gemm_prepared_into(&a, &state_only, &mut out)
                        .unwrap(),
                    (64, 16)
                );
                assert_eq!(out, expected.data(), "gemm_prepared_into, {what}");
                wrapped
                    .gemm_prepared_epilogue_into(&a, &state_only, &epilogue, &mut out)
                    .unwrap();
                assert_eq!(out, fused, "gemm_prepared_epilogue_into, {what}");
                let tile = state_only.cols(3, 5).unwrap();
                let y = wrapped.gemm_prepared(&a, &tile).unwrap();
                for (got, want) in y.data().chunks(5).zip(expected.data().chunks(16)) {
                    assert_eq!(got, &want[3..8], "cols tile, {what}");
                }
            }
        }
    }
}
