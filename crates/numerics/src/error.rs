//! Error type shared by the numerical kernels.

use std::error::Error;
use std::fmt;

/// Errors produced by the solvers in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumericsError {
    /// A matrix was singular (or numerically singular) during
    /// factorisation; carries the pivot column at which elimination broke
    /// down.
    SingularMatrix {
        /// Column index of the vanishing pivot.
        pivot: usize,
    },
    /// Operand dimensions were incompatible.
    DimensionMismatch {
        /// Human-readable description of the mismatch.
        context: String,
    },
    /// An input (matrix entry or right-hand side) was NaN or infinite.
    NonFinite {
        /// Where the offending value was found.
        context: String,
    },
    /// The solve observed a tripped cancellation token (wall-clock
    /// deadline or explicit cancel) at an iteration boundary and
    /// stopped cooperatively.
    Cancelled {
        /// What was interrupted and why.
        context: String,
    },
}

impl fmt::Display for NumericsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::SingularMatrix { pivot } => {
                write!(f, "matrix is singular at pivot column {pivot}")
            }
            Self::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            Self::NonFinite { context } => {
                write!(f, "non-finite value: {context}")
            }
            Self::Cancelled { context } => {
                write!(f, "solve cancelled: {context}")
            }
        }
    }
}

impl Error for NumericsError {}

impl From<NumericsError> for darksil_robust::DarksilError {
    fn from(e: NumericsError) -> Self {
        match &e {
            NumericsError::SingularMatrix { .. } => Self::solver(e.to_string()),
            NumericsError::DimensionMismatch { .. } => Self::dimension(e.to_string()),
            NumericsError::NonFinite { .. } => Self::non_finite(e.to_string()),
            NumericsError::Cancelled { .. } => Self::deadline(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + Error>() {}
        assert_bounds::<NumericsError>();
    }

    #[test]
    fn display_messages() {
        let e = NumericsError::SingularMatrix { pivot: 3 };
        assert_eq!(e.to_string(), "matrix is singular at pivot column 3");
        let e = NumericsError::DimensionMismatch {
            context: "rhs has 4 rows, matrix has 5".into(),
        };
        assert!(e.to_string().contains("rhs has 4 rows"));
        let e = NumericsError::Cancelled {
            context: "cg iteration: wall-clock deadline exceeded".into(),
        };
        assert!(e.to_string().contains("cancelled"));
    }

    #[test]
    fn cancellation_maps_to_the_deadline_class() {
        let e: darksil_robust::DarksilError = NumericsError::Cancelled {
            context: "cg iteration".into(),
        }
        .into();
        assert_eq!(e.class(), darksil_robust::ErrorClass::Deadline);
    }
}
