//! # Mirage
//!
//! A full reproduction of **"Mirage: An RNS-Based Photonic Accelerator
//! for DNN Training"** (Demirkiran, Yang, Bunandar, Joshi — ISCA 2024)
//! as a Rust workspace. This facade crate re-exports every subsystem:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`rns`] | `mirage-rns` | Residue Number System arithmetic, special moduli sets, RRNS |
//! | [`bfp`] | `mirage-bfp` | Block Floating Point groups and quantization |
//! | [`tensor`] | `mirage-tensor` | Tensors, convolutions, quantized GEMM engines |
//! | [`nn`] | `mirage-nn` | DNN training with engine-swappable GEMMs |
//! | [`photonics`] | `mirage-photonics` | MMU/MDPU/MMVMU device simulation, noise, laser power |
//! | [`arch`] | `mirage-arch` | Latency/power/area models, dataflows, systolic baselines |
//! | [`models`] | `mirage-models` | The 7-DNN workload zoo, synthetic datasets, small nets |
//! | [`core`] | `mirage-core` | The [`Mirage`] accelerator object |
//!
//! ## Quickstart
//!
//! ```
//! use mirage::Mirage;
//! use mirage::tensor::{Tensor, GemmEngine, engines::ExactEngine};
//!
//! let accelerator = Mirage::paper_default();
//! let a = Tensor::from_vec(vec![0.5, -0.25, 1.0, 0.75], &[2, 2])?;
//! let b = Tensor::from_vec(vec![1.0, 0.0, 0.5, -0.5], &[2, 2])?;
//! let c = accelerator.gemm_engine().gemm(&a, &b)?;
//! assert!(c.allclose(&ExactEngine.gemm(&a, &b)?, 0.1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See the `examples/` directory for end-to-end scenarios and
//! `crates/bench` for the per-table/figure reproduction harness.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(unused_must_use)]

pub use mirage_arch as arch;
pub use mirage_bfp as bfp;
pub use mirage_core as core;
pub use mirage_models as models;
pub use mirage_nn as nn;
pub use mirage_photonics as photonics;
pub use mirage_rns as rns;
pub use mirage_tensor as tensor;

pub use mirage_core::serve::{
    BatchMode, ModelServer, PendingResponse, RequestStats, Response, ServeError, ServerConfig,
    ServerStats,
};
pub use mirage_core::{Mirage, ModelSession, PhotonicGemmEngine};
pub use mirage_nn::{CompiledNetwork, PipelineTrace, ShardPlan, ShardSpec};
pub use mirage_tensor::engines::ProtectedRnsBfpEngine;
pub use mirage_tensor::faults::{FaultConfig, FaultCounts, FaultInjector, FaultyEngine};
