//! # mirage-tensor
//!
//! Tensor substrate for the Mirage reproduction: row-major `f32` tensors,
//! reference GEMM/convolution kernels, and a family of pluggable
//! [`GemmEngine`]s that model the arithmetic of different hardware:
//!
//! - [`engines::ExactEngine`] — FP32 reference (the paper's baseline).
//! - [`engines::BfpEngine`] — Mirage's BFP-quantized GEMM (paper §V-A).
//! - [`engines::RnsBfpEngine`] — the same arithmetic routed bit-exactly
//!   through RNS residues, validating the "no loss in RNS" claim.
//! - [`engines::Bf16Engine`], [`engines::Hfp8Engine`],
//!   [`engines::IntEngine`] — the systolic-array data formats Mirage is
//!   compared against (Table I/II).
//! - [`engines::StochasticBfpEngine`] — FMAC-style BFP with stochastic
//!   rounding (Zhang et al., HPCA 2022).
//! - [`engines::AnalogFxpEngine`] — a *conventional* analog core with
//!   bounded-precision ADCs, reproducing the information loss that
//!   motivates Mirage (paper §II-C).
//! - [`engines::ProtectedRnsBfpEngine`] — the RNS path carrying
//!   redundant residues (RRNS, paper §VI-E): detects, corrects, and
//!   accounts for injected residue errors, bit-identical to the
//!   unprotected path when clean.
//!
//! The [`faults`] module provides the deterministic fault-injection
//! layer ([`FaultInjector`], [`FaultyEngine`]) that corrupts any of
//! these engines under live traffic.
//!
//! Any engine can be lifted onto the multi-threaded execution layer
//! ([`parallel::ParallelGemm`]) with [`GemmEngine::parallel`]; the
//! driver splits the output rows into one band per scoped worker
//! thread and is
//! bit-identical to the serial path for tile-invariant engines.
//!
//! ```
//! use mirage_tensor::{Tensor, engines::{ExactEngine, BfpEngine}, GemmEngine};
//! use mirage_bfp::BfpConfig;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::from_vec(vec![0.5, 0.0, 0.0, 0.5], &[2, 2])?;
//! let exact = ExactEngine.gemm(&a, &b)?;
//! let bfp = BfpEngine::new(BfpConfig::new(8, 16)?).gemm(&a, &b)?;
//! assert!(exact.allclose(&bfp, 1e-2));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unused_must_use)]

pub mod conv;
pub mod engines;
mod error;
pub mod faults;
pub mod parallel;
pub mod quant;
pub mod scratch;
mod tensor;

pub use engines::{GemmEngine, PreparedRhs};
pub use error::TensorError;
pub use faults::{FaultConfig, FaultCounts, FaultInjector, FaultScope, FaultyEngine};
pub use parallel::{ParallelGemm, TileConfig};
pub use scratch::ActivationScratch;
pub use tensor::Tensor;

/// Result alias for fallible tensor operations.
pub type Result<T> = std::result::Result<T, TensorError>;
