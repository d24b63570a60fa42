//! # mirage-nn
//!
//! A compact DNN training framework whose every GEMM — forward *and*
//! backward — is routed through a pluggable [`mirage_tensor::GemmEngine`].
//! This reproduces the paper's accuracy methodology (§V-A):
//!
//! - convolution and linear layers run on the configured engine in the
//!   forward pass and in both gradient GEMMs (Eqs. 1–3);
//! - weights are kept as FP32 master copies and updated in FP32
//!   (Eq. 4), exactly as Mirage stores weights in FP32 SRAM;
//! - swapping the engine (FP32 / BFP / bf16 / HFP8 / INT8 / …) changes
//!   only the arithmetic, enabling the Table I comparison;
//! - [`Engines::uniform_parallel`] (or [`Engines::parallelized`]) lifts
//!   any engine onto the row-banded multi-threaded execution layer, so
//!   every forward and gradient GEMM fans out across worker threads
//!   without changing a single bit of the result for deterministic
//!   engines.
//!
//! ```
//! use mirage_nn::{Sequential, layers::{Dense, Relu}, Engines};
//! use mirage_tensor::{Tensor, engines::ExactEngine};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(0);
//! let mut net = Sequential::new();
//! net.push(Dense::new(4, 8, &mut rng));
//! net.push(Relu::new());
//! net.push(Dense::new(8, 2, &mut rng));
//!
//! let engines = Engines::uniform(ExactEngine);
//! let x = Tensor::ones(&[5, 4]);
//! let logits = net.forward(&x, &engines)?;
//! assert_eq!(logits.shape(), &[5, 2]);
//! # Ok::<(), mirage_nn::NnError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unused_must_use)]
// Index-based loops keep the numeric kernels aligned with their math;
// iterator rewrites obscure the (row, channel) structure.
#![allow(clippy::needless_range_loop)]

pub mod attention;
pub mod compile;
mod engines;
mod error;
pub mod layers;
pub mod loss;
mod network;
pub mod norm;
pub mod optim;
pub mod shard;
pub mod train;

pub use compile::{CompiledNetwork, PlanStep};
pub use engines::Engines;
pub use error::NnError;
pub use network::{Param, Sequential};
pub use shard::{PipelineTrace, ShardPlan, ShardSpec};

/// Result alias for fallible training operations.
pub type Result<T> = std::result::Result<T, NnError>;
