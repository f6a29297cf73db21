//! Error type for the thermal crate.

use std::error::Error;
use std::fmt;

use darksil_numerics::NumericsError;

/// Errors from thermal-model construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// A package parameter was non-positive or non-finite.
    InvalidPackage {
        /// Parameter name.
        name: &'static str,
        /// Offending value.
        value: f64,
    },
    /// The power map length does not match the floorplan's core count.
    PowerMapMismatch {
        /// Supplied entries.
        got: usize,
        /// Expected entries (core count).
        expected: usize,
    },
    /// The die is larger than the spreader or the spreader larger than
    /// the sink — the stack-up would be physically impossible.
    LayerTooSmall {
        /// The layer that is too small.
        layer: &'static str,
    },
    /// A per-core power input was NaN or infinite.
    NonFinitePower {
        /// Index of the offending core.
        core: usize,
        /// The offending value in watts.
        value: f64,
    },
    /// An inner linear-algebra failure.
    Solver(NumericsError),
}

impl fmt::Display for ThermalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidPackage { name, value } => {
                write!(f, "invalid package parameter {name} = {value}")
            }
            Self::PowerMapMismatch { got, expected } => {
                write!(
                    f,
                    "power map has {got} entries, floorplan has {expected} cores"
                )
            }
            Self::LayerTooSmall { layer } => {
                write!(f, "{layer} is smaller than the layer it must cover")
            }
            Self::NonFinitePower { core, value } => {
                write!(f, "power for core {core} is non-finite ({value})")
            }
            Self::Solver(e) => write!(f, "thermal solve failed: {e}"),
        }
    }
}

impl Error for ThermalError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Solver(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NumericsError> for ThermalError {
    fn from(e: NumericsError) -> Self {
        Self::Solver(e)
    }
}

impl From<ThermalError> for darksil_robust::DarksilError {
    fn from(e: ThermalError) -> Self {
        match e {
            ThermalError::Solver(inner) => {
                darksil_robust::DarksilError::from(inner).context("thermal solve")
            }
            ThermalError::NonFinitePower { .. } => Self::non_finite(e.to_string()),
            ThermalError::PowerMapMismatch { .. } => Self::dimension(e.to_string()),
            ThermalError::InvalidPackage { .. } | ThermalError::LayerTooSmall { .. } => {
                Self::config(e.to_string())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = ThermalError::PowerMapMismatch {
            got: 99,
            expected: 100,
        };
        assert!(e.to_string().contains("99"));
        assert!(e.source().is_none());

        let inner = NumericsError::SingularMatrix { pivot: 5 };
        let e = ThermalError::from(inner);
        assert!(e.source().is_some());
        assert!(e.to_string().contains("thermal solve failed"));
    }
}
