use std::error::Error;
use std::fmt;

/// Errors produced by tensor construction and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Data length does not match the requested shape.
    ShapeDataMismatch {
        /// Number of elements implied by the shape.
        expected: usize,
        /// Number of elements supplied.
        actual: usize,
    },
    /// The operation requires a different rank (e.g. 2-D matmul).
    RankMismatch {
        /// Required rank.
        expected: usize,
        /// Actual rank.
        actual: usize,
    },
    /// Inner dimensions are incompatible (e.g. `(m,k) x (k2,n)` with
    /// `k != k2`).
    DimMismatch {
        /// Left-hand dimension.
        left: usize,
        /// Right-hand dimension.
        right: usize,
    },
    /// Two tensors must have identical shapes.
    ShapeMismatch {
        /// Left shape.
        left: Vec<usize>,
        /// Right shape.
        right: Vec<usize>,
    },
    /// A convolution/pooling geometry is invalid (e.g. kernel larger than
    /// padded input).
    InvalidGeometry(String),
    /// A serving-session lookup missed: nothing is compiled under this
    /// model key (`ModelSession` compiled models).
    UnknownLayer {
        /// The key that was looked up.
        name: String,
    },
    /// A prepared weight reached an engine that did not prepare it:
    /// another engine, or the same engine at another operating point
    /// (BFP configuration, moduli set, RRNS full set). A preparation
    /// carries only its engine's state, so only that engine consumes it.
    ForeignPreparation {
        /// Name of the engine that prepared the weight.
        prepared_by: &'static str,
        /// Name of the engine it was handed to.
        engine: &'static str,
    },
    /// Propagated BFP error from a quantized engine.
    Bfp(mirage_bfp::BfpError),
    /// Propagated RNS error from the RNS-backed engine.
    Rns(mirage_rns::RnsError),
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeDataMismatch { expected, actual } => {
                write!(f, "shape expects {expected} elements, got {actual}")
            }
            TensorError::RankMismatch { expected, actual } => {
                write!(f, "expected rank {expected}, got rank {actual}")
            }
            TensorError::DimMismatch { left, right } => {
                write!(f, "incompatible inner dimensions {left} and {right}")
            }
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::InvalidGeometry(msg) => write!(f, "invalid geometry: {msg}"),
            TensorError::UnknownLayer { name } => {
                write!(
                    f,
                    "unknown layer/model key {name:?}: nothing is loaded under \
                     this key (load it into the session first)"
                )
            }
            TensorError::ForeignPreparation {
                prepared_by,
                engine,
            } => write!(
                f,
                "weight prepared by {prepared_by} cannot run on {engine} (another \
                 engine, or the same engine at another operating point): prepare it \
                 with the engine that consumes it"
            ),
            TensorError::Bfp(e) => write!(f, "bfp error: {e}"),
            TensorError::Rns(e) => write!(f, "rns error: {e}"),
        }
    }
}

impl Error for TensorError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TensorError::Bfp(e) => Some(e),
            TensorError::Rns(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mirage_bfp::BfpError> for TensorError {
    fn from(e: mirage_bfp::BfpError) -> Self {
        TensorError::Bfp(e)
    }
}

impl From<mirage_rns::RnsError> for TensorError {
    fn from(e: mirage_rns::RnsError) -> Self {
        TensorError::Rns(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_chains() {
        let e = TensorError::from(mirage_bfp::BfpError::NonFinite);
        assert!(e.source().is_some());
        let e2 = TensorError::DimMismatch { left: 2, right: 3 };
        assert!(e2.source().is_none());
    }

    #[test]
    fn unknown_layer_names_the_key() {
        let e = TensorError::UnknownLayer {
            name: "resnet/fc".into(),
        };
        assert!(e.to_string().contains("resnet/fc"), "{e}");
        assert!(e.source().is_none());
    }

    #[test]
    fn messages_non_empty() {
        let e = TensorError::ShapeMismatch {
            left: vec![2, 2],
            right: vec![3],
        };
        assert!(e.to_string().contains("mismatch"));
        let e = TensorError::ForeignPreparation {
            prepared_by: "fp32",
            engine: "mirage-bfp",
        };
        assert!(e.to_string().contains("fp32") && e.to_string().contains("mirage-bfp"));
    }
}
