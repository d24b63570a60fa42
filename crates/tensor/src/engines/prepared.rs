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
//!
//! A preparation carries **one** representation of the weight: the
//! preparing engine's state. Quantizing engines keep their packed
//! operand and no `f32` copy; stateless engines keep the raw matrix,
//! which is their one representation. Only the engine that prepared a
//! weight consumes it — any other engine, or the same engine at another
//! operating point, gets [`TensorError::ForeignPreparation`].

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
/// knowing which engine produced them. It holds the shape, the name of
/// the preparing engine and that engine's state — pre-quantized
/// columns for the BFP family, the raw matrix for the trait's default
/// preparation — and nothing else. Engines read their state through
/// [`PreparedRhs::state_for`], which returns
/// [`TensorError::ForeignPreparation`] for a preparation that is not
/// theirs.
///
/// A `PreparedRhs` is a **column window** of the engine state: the
/// state covers the whole prepared matrix, and [`PreparedRhs::cols`]
/// narrows the window without touching it. Engines read the window as
/// [`PreparedRhs::col_start`] plus [`PreparedRhs::n`] columns.
///
/// Cloning is cheap: the state is shared through its [`Arc`].
#[derive(Clone)]
pub struct PreparedRhs {
    engine: &'static str,
    k: usize,
    n: usize,
    col_start: usize,
    state: Arc<dyn Any + Send + Sync>,
}

impl PreparedRhs {
    /// The default preparation: the raw rank-2 matrix *is* the state —
    /// the one representation of a stateless engine, which
    /// [`GemmEngine::gemm_prepared`]'s default implementation feeds
    /// straight back to [`GemmEngine::gemm`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn from_raw(engine: &'static str, b: &Tensor) -> Result<Self> {
        Self::new(engine, b, Arc::new(b.clone()))
    }

    /// The preparation of the rank-2 matrix `b` by `engine`, carried as
    /// `state` (pre-quantized groups, pre-converted residues, …)
    /// covering every column of `b`. Only `b`'s shape is kept.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `b` is rank-2.
    pub fn new(
        engine: &'static str,
        b: &Tensor,
        state: Arc<dyn Any + Send + Sync>,
    ) -> Result<Self> {
        if b.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: b.rank(),
            });
        }
        Ok(PreparedRhs {
            engine,
            k: b.shape()[0],
            n: b.shape()[1],
            col_start: 0,
            state,
        })
    }

    /// Reduction length `k` (rows of the prepared matrix).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width `n` (columns of this window).
    pub fn n(&self) -> usize {
        self.n
    }

    /// `(m, k, n)` of `a · self`: the shape check every prepared entry
    /// point runs before touching the state.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `a` is rank-2, and
    /// [`TensorError::DimMismatch`] when its width is not `k`.
    pub fn dims(&self, a: &Tensor) -> Result<(usize, usize, usize)> {
        if a.rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: a.rank(),
            });
        }
        let (m, k) = (a.shape()[0], a.shape()[1]);
        if k != self.k {
            return Err(TensorError::DimMismatch {
                left: k,
                right: self.k,
            });
        }
        Ok((m, k, self.n))
    }

    /// Offset of this window's first column within the attached
    /// state: `0` for a fresh preparation, the sum of every
    /// [`PreparedRhs::cols`] offset for a tile of a packed state.
    pub fn col_start(&self) -> usize {
        self.col_start
    }

    /// Name of the engine that prepared this value.
    pub fn engine(&self) -> &'static str {
        self.engine
    }

    /// The column window `[c0, c0 + width)` of this preparation — the
    /// tiled parallel driver's column tiles and the shard planner's
    /// column shards. An engine state is shared through its [`Arc`] (no
    /// re-quantization, no weight copy) and `c0` adds to
    /// [`PreparedRhs::col_start`], so a tile of a tile addresses the
    /// original buffers. A raw-matrix state (the default preparation)
    /// is sliced here, once, so calls against the window read its
    /// columns directly. Any engine's prepared GEMM against the window
    /// is bit-identical to preparing the raw column slice from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DimMismatch`] when the window exceeds
    /// this preparation's width.
    pub fn cols(&self, c0: usize, width: usize) -> Result<PreparedRhs> {
        let end = c0.saturating_add(width);
        if end > self.n {
            return Err(TensorError::DimMismatch {
                left: end,
                right: self.n,
            });
        }
        let Some(raw) = self.state.downcast_ref::<Tensor>() else {
            return Ok(PreparedRhs {
                n: width,
                col_start: self.col_start + c0,
                state: Arc::clone(&self.state),
                ..*self
            });
        };
        let mut data = Vec::with_capacity(self.k * width);
        for row in raw.data().chunks(self.n.max(1)) {
            data.extend_from_slice(&row[c0..end]);
        }
        Ok(PreparedRhs {
            n: width,
            col_start: 0,
            state: Arc::new(Tensor::from_vec(data, &[self.k, width])?),
            ..*self
        })
    }

    /// The attached state as `S`, **iff** this value was prepared by an
    /// engine named `engine` and `matches` accepts the state — the
    /// consumer's operating-point check, since two instances of one
    /// engine type can differ in quantization parameters or moduli.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ForeignPreparation`] when the preparation
    /// came from another engine, holds another state type, or fails
    /// `matches`.
    pub fn state_for<S: Any + Send + Sync>(
        &self,
        engine: &'static str,
        matches: impl FnOnce(&S) -> bool,
    ) -> Result<&S> {
        self.state
            .downcast_ref::<S>()
            .filter(|state| self.engine == engine && matches(state))
            .ok_or(TensorError::ForeignPreparation {
                prepared_by: self.engine,
                engine,
            })
    }
}

impl fmt::Debug for PreparedRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedRhs")
            .field("engine", &self.engine)
            .field("k", &self.k)
            .field("n", &self.n)
            .field("col_start", &self.col_start)
            .finish()
    }
}

/// Checks [`PreparedRhs::cols`] against `engine`: every window of a
/// 40×20 preparation (width 0 included) is bit-identical to the same
/// columns of the unprepared GEMM, a window of a window adds the
/// offsets, and out-of-range windows are typed errors.
#[cfg(test)]
pub(crate) fn check_column_windows(engine: &dyn GemmEngine) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines::{
        BfpEngine, Epilogue, ExactEngine, GemmEngine, ProtectedRnsBfpEngine, RnsBfpEngine,
    };
    use crate::faults::{FaultConfig, FaultInjector, FaultyEngine};
    use crate::parallel::{ParallelGemm, TileConfig};
    use mirage_bfp::BfpConfig;
    use mirage_rns::ModuliSet;
    use rand::SeedableRng;

    #[test]
    fn from_raw_validates_rank() {
        assert!(PreparedRhs::from_raw("fp32", &Tensor::zeros(&[2, 2, 2])).is_err());
        let p = PreparedRhs::from_raw("fp32", &Tensor::zeros(&[3, 4])).unwrap();
        assert_eq!((p.k(), p.n()), (3, 4));
        assert_eq!(p.engine(), "fp32");
    }

    #[test]
    fn dims_validates_the_activation_against_the_window() {
        let p = PreparedRhs::from_raw("fp32", &Tensor::zeros(&[3, 4])).unwrap();
        assert_eq!(p.dims(&Tensor::zeros(&[2, 3])).unwrap(), (2, 3, 4));
        assert_eq!(
            p.cols(1, 2).unwrap().dims(&Tensor::zeros(&[5, 3])).unwrap(),
            (5, 3, 2)
        );
        assert!(matches!(
            p.dims(&Tensor::zeros(&[2, 4])),
            Err(TensorError::DimMismatch { left: 4, right: 3 })
        ));
        assert!(matches!(
            p.dims(&Tensor::zeros(&[3])),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn state_for_checks_engine_name_type_and_operating_point() {
        let p = PreparedRhs::new("fp32", &Tensor::zeros(&[2, 2]), Arc::new(42usize)).unwrap();
        assert_eq!(p.state_for::<usize>("fp32", |_| true), Ok(&42));
        let foreign = Err(TensorError::ForeignPreparation {
            prepared_by: "fp32",
            engine: "mirage-bfp",
        });
        assert_eq!(p.state_for::<usize>("mirage-bfp", |_| true), foreign);
        let mismatch = TensorError::ForeignPreparation {
            prepared_by: "fp32",
            engine: "fp32",
        };
        assert_eq!(p.state_for::<i32>("fp32", |_| true).unwrap_err(), mismatch);
        assert_eq!(
            p.state_for::<usize>("fp32", |&s| s == 7).unwrap_err(),
            mismatch
        );
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
    fn raw_windows_are_sliced_once_into_their_own_state() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let a = Tensor::randn(&[3, 6], 1.0, &mut rng);
        let b = Tensor::randn(&[6, 9], 1.0, &mut rng);
        let tile = ExactEngine.prepare(&b).unwrap().cols(2, 4).unwrap();
        assert_eq!((tile.n(), tile.col_start()), (4, 0));
        let slice = tile.state_for::<Tensor>("fp32", |_| true).unwrap();
        assert_eq!(slice.shape(), &[6, 4]);
        let full = ExactEngine.gemm(&a, &b).unwrap();
        let got = ExactEngine.gemm_prepared(&a, &tile).unwrap();
        for (got, want) in got.data().chunks(4).zip(full.data().chunks(9)) {
            assert_eq!(got, &want[2..6]);
        }
    }

    #[test]
    fn debug_is_informative() {
        let p = BfpEngine::new(BfpConfig::mirage_default())
            .prepare(&Tensor::zeros(&[4, 4]))
            .unwrap();
        let s = format!("{p:?}");
        assert!(
            s.contains("mirage-bfp") && s.contains("col_start: 0"),
            "{s}"
        );
    }

    /// 64×64 · 64×16 is two `MIN_PARALLEL_WORK` quanta: the 2-worker
    /// driver fans out over 8-column tiles on any host with two or more
    /// cores.
    fn operands() -> (Tensor, Tensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(60);
        (
            Tensor::randn(&[64, 64], 1.0, &mut rng),
            Tensor::randn(&[64, 16], 1.0, &mut rng),
        )
    }

    /// `engine` raw and behind every adapter that forwards the prepared
    /// surface: `Arc`, `Box`, a 2-worker `ParallelGemm` with 8-column
    /// tiles, and a zero-rate `FaultyEngine`.
    fn adapters(engine: Arc<dyn GemmEngine>) -> Vec<(&'static str, Box<dyn GemmEngine>)> {
        let injector = Arc::new(FaultInjector::new(FaultConfig::disabled(1)));
        let two_workers = TileConfig {
            tile_m: 16,
            tile_n: 8,
            threads: 2,
        };
        vec![
            ("engine", Box::new(Arc::clone(&engine))),
            ("box", Box::new(Box::new(Arc::clone(&engine)))),
            (
                "parallel",
                Box::new(ParallelGemm::new(Arc::clone(&engine), two_workers)),
            ),
            ("faulty", Box::new(FaultyEngine::new(engine, injector))),
        ]
    }

    /// The BFP family: each engine beside a preparation of another
    /// engine and one of the same engine at another operating point
    /// (BFP config, moduli set, RRNS full set respectively).
    fn stateful_engines() -> Vec<(Arc<dyn GemmEngine>, PreparedRhs, PreparedRhs)> {
        let cfg = BfpConfig::mirage_default();
        let (_, b) = operands();
        let rns = RnsBfpEngine::with_min_special_set(cfg).unwrap();
        let other_moduli =
            RnsBfpEngine::new(cfg, ModuliSet::new(&[11, 13, 16, 9]).unwrap()).unwrap();
        let other_full_set =
            ProtectedRnsBfpEngine::new(cfg, ModuliSet::special_set(5).unwrap(), &[43, 47]).unwrap();
        vec![
            (
                Arc::new(BfpEngine::new(cfg)),
                ExactEngine.prepare(&b).unwrap(),
                BfpEngine::new(BfpConfig::new(8, 16).unwrap())
                    .prepare(&b)
                    .unwrap(),
            ),
            (
                Arc::new(rns.clone()),
                BfpEngine::new(cfg).prepare(&b).unwrap(),
                other_moduli.prepare(&b).unwrap(),
            ),
            (
                Arc::new(ProtectedRnsBfpEngine::with_min_special_set(cfg).unwrap()),
                rns.prepare(&b).unwrap(),
                other_full_set.prepare(&b).unwrap(),
            ),
        ]
    }

    /// Every prepared entry point of the stateful engines — and of the
    /// adapters wrapping them — computes from the engine state,
    /// bit-identically to `gemm`. The state holds no `f32` matrix, and
    /// a column window shares it rather than copying weight data.
    #[test]
    fn prepared_paths_route_to_the_engine_state() {
        let (a, b) = operands();
        let bias: Vec<f32> = (0..16).map(|j| j as f32 * 0.125 - 1.0).collect();
        let epilogue = Epilogue::none().with_bias(&bias).with_relu();
        for (engine, _, _) in stateful_engines() {
            let expected = engine.gemm(&a, &b).unwrap();
            let mut fused = expected.data().to_vec();
            epilogue.apply(&mut fused, 64, 16).unwrap();
            let prepared = engine.prepare(&b).unwrap();
            assert!(prepared.state.downcast_ref::<Tensor>().is_none());
            let tile = prepared.cols(3, 5).unwrap();
            assert!(Arc::ptr_eq(&prepared.state, &tile.state));
            for (layer, wrapped) in adapters(Arc::clone(&engine)) {
                let what = format!("{} via {layer}", engine.name());
                let y = wrapped.gemm_prepared(&a, &prepared).unwrap();
                assert_eq!(y.data(), expected.data(), "gemm_prepared, {what}");
                let mut out = Vec::new();
                assert_eq!(
                    wrapped.gemm_prepared_into(&a, &prepared, &mut out).unwrap(),
                    (64, 16)
                );
                assert_eq!(out, expected.data(), "gemm_prepared_into, {what}");
                wrapped
                    .gemm_prepared_epilogue_into(&a, &prepared, &epilogue, &mut out)
                    .unwrap();
                assert_eq!(out, fused, "gemm_prepared_epilogue_into, {what}");
                let y = wrapped.gemm_prepared(&a, &tile).unwrap();
                for (got, want) in y.data().chunks(5).zip(expected.data().chunks(16)) {
                    assert_eq!(got, &want[3..8], "cols tile, {what}");
                }
            }
        }
    }

    /// A preparation from another engine, or from the same engine at
    /// another operating point, is a typed error — from all three
    /// prepared entry points and from a column window, through every
    /// adapter. Never a panic, never a silent recomputation.
    #[test]
    fn foreign_and_mismatched_preparations_are_typed_errors() {
        let (a, _) = operands();
        let bias = vec![0.5f32; 16];
        let epilogue = Epilogue::none().with_bias(&bias).with_relu();
        for (engine, foreign, mismatched) in stateful_engines() {
            for prepared in [&foreign, &mismatched] {
                let want = TensorError::ForeignPreparation {
                    prepared_by: prepared.engine(),
                    engine: engine.name(),
                };
                let tile = prepared.cols(3, 5).unwrap();
                for (layer, wrapped) in adapters(Arc::clone(&engine)) {
                    let what = format!("{} of {} via {layer}", engine.name(), prepared.engine());
                    let mut out = Vec::new();
                    assert_eq!(
                        wrapped.gemm_prepared(&a, prepared).unwrap_err(),
                        want,
                        "gemm_prepared, {what}"
                    );
                    assert_eq!(
                        wrapped
                            .gemm_prepared_into(&a, prepared, &mut out)
                            .unwrap_err(),
                        want,
                        "gemm_prepared_into, {what}"
                    );
                    assert_eq!(
                        wrapped
                            .gemm_prepared_epilogue_into(&a, prepared, &epilogue, &mut out)
                            .unwrap_err(),
                        want,
                        "gemm_prepared_epilogue_into, {what}"
                    );
                    assert_eq!(
                        wrapped.gemm_prepared(&a, &tile).unwrap_err(),
                        want,
                        "cols window, {what}"
                    );
                }
            }
        }
    }
}
