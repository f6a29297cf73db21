//! Error type for the boosting crate.

use std::error::Error;
use std::fmt;

use darksil_mapping::MappingError;
use darksil_power::PowerError;
use darksil_thermal::ThermalError;
use darksil_workload::WorkloadError;

/// Errors from transient policy simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum BoostError {
    /// A configuration value was invalid (non-positive duration or
    /// period, empty mapping, …).
    InvalidConfig {
        /// What was wrong.
        reason: String,
    },
    /// No V/f level satisfies the thermal/power constraints.
    NoFeasibleLevel,
    /// Propagated mapping/platform failure.
    Mapping(MappingError),
    /// Propagated thermal failure.
    Thermal(ThermalError),
    /// Propagated power-model failure.
    Power(PowerError),
    /// The policy loop observed a tripped cancellation token (deadline
    /// or explicit cancel) at a step boundary and stopped.
    Cancelled {
        /// What was interrupted and why.
        context: String,
    },
}

impl fmt::Display for BoostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidConfig { reason } => write!(f, "invalid boost configuration: {reason}"),
            Self::NoFeasibleLevel => {
                write!(
                    f,
                    "no v/f level satisfies the thermal and power constraints"
                )
            }
            Self::Mapping(e) => write!(f, "mapping error: {e}"),
            Self::Thermal(e) => write!(f, "thermal error: {e}"),
            Self::Power(e) => write!(f, "power error: {e}"),
            Self::Cancelled { context } => write!(f, "policy loop cancelled: {context}"),
        }
    }
}

impl Error for BoostError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Mapping(e) => Some(e),
            Self::Thermal(e) => Some(e),
            Self::Power(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MappingError> for BoostError {
    fn from(e: MappingError) -> Self {
        Self::Mapping(e)
    }
}

impl From<ThermalError> for BoostError {
    fn from(e: ThermalError) -> Self {
        Self::Thermal(e)
    }
}

impl From<PowerError> for BoostError {
    fn from(e: PowerError) -> Self {
        Self::Power(e)
    }
}

impl From<WorkloadError> for BoostError {
    fn from(e: WorkloadError) -> Self {
        Self::Mapping(MappingError::Workload(e))
    }
}

impl From<BoostError> for darksil_robust::DarksilError {
    fn from(e: BoostError) -> Self {
        match e {
            BoostError::InvalidConfig { .. } => darksil_robust::DarksilError::config(e.to_string()),
            BoostError::NoFeasibleLevel => darksil_robust::DarksilError::capacity(e.to_string()),
            BoostError::Mapping(inner) => {
                darksil_robust::DarksilError::from(inner).context("boost policy")
            }
            BoostError::Thermal(inner) => {
                darksil_robust::DarksilError::from(inner).context("boost policy")
            }
            BoostError::Power(inner) => {
                darksil_robust::DarksilError::from(inner).context("boost policy")
            }
            BoostError::Cancelled { context } => darksil_robust::DarksilError::deadline(context),
        }
    }
}

/// Polls the current cancellation token at a step boundary of a
/// `policy` run.
///
/// # Errors
///
/// [`BoostError::Cancelled`] when the supervising deadline has passed
/// or the job was cancelled; always `Ok` outside a supervised scope.
pub(crate) fn check_step(policy: &str) -> Result<(), BoostError> {
    darksil_robust::check_deadline("policy step").map_err(|e| BoostError::Cancelled {
        context: format!("{policy} {}", e.message()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = BoostError::NoFeasibleLevel;
        assert!(e.to_string().contains("no v/f level"));
        assert!(e.source().is_none());
        let e: BoostError = ThermalError::PowerMapMismatch {
            got: 1,
            expected: 2,
        }
        .into();
        assert!(e.source().is_some());
    }
}
