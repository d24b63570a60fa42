//! # mirage-bfp
//!
//! Block Floating Point (BFP) arithmetic for the Mirage photonic DNN
//! training accelerator (paper §II-B, §III step 2).
//!
//! BFP splits a tensor into groups of `g` elements; each group stores one
//! shared exponent and `g` signed `bm`-bit mantissae. Within a group the
//! arithmetic is pure integer arithmetic — exactly what an analog core can
//! execute — while the shared exponent preserves dynamic range across
//! groups. Mirage pairs BFP with the RNS so those integer dot products
//! survive low-precision converters without loss.
//!
//! ## Quick start
//!
//! ```
//! use mirage_bfp::{BfpConfig, BfpBlock};
//!
//! let cfg = BfpConfig::new(4, 16)?; // the paper's chosen operating point
//! let xs = [0.51f32, -0.23, 0.08, 1.92];
//! let block = BfpBlock::quantize(&xs, cfg);
//! let back = block.dequantize();
//! for (a, b) in xs.iter().zip(&back) {
//!     assert!((a - b).abs() < 0.15); // bm = 4 keeps ~2 decimal digits
//! }
//! # Ok::<(), mirage_bfp::BfpError>(())
//! ```

#![deny(unsafe_code)]
#![deny(missing_docs)]
#![deny(unused_must_use)]

mod block;
mod config;
mod error;
mod math;
mod packed;
mod panels;
pub mod simd;
mod stats;
mod vector;

pub use block::{BfpBlock, BfpDotProduct};
pub use config::{BfpConfig, RoundingMode};
pub use error::BfpError;
pub use math::pow2;
pub use packed::{group_dot, group_dot_i32, pack_cols, pack_rows, GroupSink, PackedBfpMatrix};
pub use panels::{BfpPanels, LaneWidth, NarrowRows};
pub use simd::{GemmTail, SimdPolicy, SimdTier};
pub use stats::QuantizationStats;
pub use vector::BfpVector;

/// Result alias for fallible BFP operations.
pub type Result<T> = std::result::Result<T, BfpError>;
