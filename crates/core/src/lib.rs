//! # mirage-core
//!
//! The Mirage accelerator: an RNS-based photonic DNN training
//! accelerator (Demirkiran et al., ISCA 2024). This crate binds the
//! substrates together into the paper's system:
//!
//! - [`Mirage`] — the accelerator object: configuration, training
//!   engines implementing the Fig. 2 dataflow, performance / power /
//!   area reports.
//! - [`PhotonicGemmEngine`] — a GEMM engine that executes every tile on
//!   the *device-level* photonic simulator (phase accumulation, phase
//!   detection, reverse conversion), bit-identical to the fast BFP
//!   engine when noise is off.
//! - [`ModelSession`] / [`Mirage::compile`] — serving-oriented
//!   inference: a `Sequential` is frozen once into an immutable compiled
//!   execution plan (`mirage_nn::CompiledNetwork`) and served lock-free
//!   from any number of threads, bit-identically to the eager forward
//!   pass, with zero weight-side quantization per request.
//! - [`serve`] — the online serving front end: [`serve::ModelServer`]
//!   turns concurrent single requests into coalesced batches (bounded
//!   queue, `max_batch`/`max_delay` dynamic batching, admission
//!   control, per-request accounting) without ever changing a
//!   request's bits; its [`serve::BatchPolicy`] is a pure state
//!   machine driven by an injected [`serve::Clock`], so every flush
//!   rule is tested on a virtual clock.
//! - [`report`] — evaluation summaries used by the benchmark harness.
//!
//! GEMMs run on the tiled multi-threaded execution layer by default:
//! [`Mirage::training_engines`] and [`Mirage::parallel_gemm_engine`]
//! wrap the BFP arithmetic in `mirage_tensor::parallel::ParallelGemm`
//! (bit-identical to serial), and its `gemm_batch` amortizes setup
//! across a whole inference batch inside one thread scope.
//!
//! ```
//! use mirage_core::Mirage;
//! use mirage_tensor::{Tensor, engines::ExactEngine, GemmEngine};
//!
//! let mirage = Mirage::paper_default();
//! let a = Tensor::from_vec(vec![0.5, -1.0, 0.25, 0.75], &[2, 2])?;
//! let b = Tensor::from_vec(vec![1.0, 0.5, -0.5, 0.25], &[2, 2])?;
//! // Train-time GEMM through the Mirage arithmetic (BFP + RNS):
//! let c = mirage.gemm_engine().gemm(&a, &b)?;
//! assert!(c.allclose(&ExactEngine.gemm(&a, &b)?, 0.1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unused_must_use)]

mod accelerator;
pub mod dataflow;
mod photonic_gemm;
pub mod report;
pub mod serve;
mod session;

pub use accelerator::Mirage;
pub use dataflow::{StepTrace, TiledMvm};
pub use photonic_gemm::PhotonicGemmEngine;
pub use serve::{BatchMode, ModelServer, ServeError, ServerConfig, ServerStats};
pub use session::ModelSession;
