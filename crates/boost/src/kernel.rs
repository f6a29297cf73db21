//! The closed control loop every transient policy runs (see the crate
//! docs).
//!
//! Every run is one event segment, opened by `boost.run` and closed by
//! `boost.summary`. A run on a fresh simulation restarts the clock at
//! zero, so a stream holding several runs (e.g. a Boost scenario
//! executing boosting and constant back to back) is not globally
//! time-monotone; stream consumers (the fuzzing oracle, `darksil events
//! verify`) check per-segment invariants between the markers.

use darksil_mapping::{Mapping, Platform};
use darksil_thermal::{ThermalMap, TransientSim};
use darksil_units::{Celsius, Gips, Hertz, Seconds, Watts};

use crate::{BoostError, PolicyTrace, TraceSample};

/// Configuration shared by the transient policies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyConfig {
    /// Thermal threshold the controller regulates to (80 °C in §6).
    pub threshold: Celsius,
    /// Control period (1 ms for Intel-style turbo, §6).
    pub period: Seconds,
    /// Optional electrical power cap (500 W in §6). Exceeding it forces
    /// a step down regardless of temperature.
    pub power_cap: Option<Watts>,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            threshold: Celsius::new(80.0),
            period: Seconds::new(1.0e-3),
            power_cap: Some(Watts::new(500.0)),
        }
    }
}

impl PolicyConfig {
    /// Checks a run of `mapping` for `duration` and returns its number
    /// of control periods.
    pub(crate) fn steps(&self, mapping: &Mapping, duration: Seconds) -> Result<usize, BoostError> {
        if self.period.value() <= 0.0 || !self.period.value().is_finite() {
            return Err(BoostError::InvalidConfig {
                reason: format!("period must be positive, got {}", self.period),
            });
        }
        if !duration.value().is_finite() || duration.value() <= 0.0 || duration < self.period {
            return Err(BoostError::InvalidConfig {
                reason: format!("duration {duration} shorter than one period"),
            });
        }
        if mapping.entries().is_empty() {
            return Err(BoostError::InvalidConfig {
                reason: "mapping has no instances".into(),
            });
        }
        Ok((duration.value() / self.period.value()).round() as usize)
    }
}

/// A transient policy: it writes each period's V/f levels and reacts to
/// the step they produced.
pub(crate) trait Controller {
    /// Policy name carried by the segment markers.
    const POLICY: &'static str;

    /// Writes this period's levels into `working` and returns the
    /// frequency (the mean across control domains) and throughput to
    /// record for the period.
    fn apply(&mut self, working: &mut Mapping) -> (Hertz, Gips);

    /// Chooses the next period's levels from a read-only view of the
    /// step just taken: the mapping that ran, the sample recorded for
    /// it and the temperatures it ended at.
    fn react(&mut self, working: &Mapping, sample: &TraceSample, map: &ThermalMap);
}

/// A simulation starting from ambient (cold chip), stepping at the
/// control period.
pub(crate) fn cold_start(
    platform: &Platform,
    config: &PolicyConfig,
) -> Result<TransientSim, BoostError> {
    Ok(TransientSim::new(platform.thermal(), config.period)?)
}

/// Runs `controller` over `mapping` for `steps` control periods,
/// continuing `sim`'s thermal history, and returns the run's trace. The
/// mapping's placement is kept; its levels are the controller's.
pub(crate) fn simulate<C: Controller>(
    platform: &Platform,
    sim: &mut TransientSim,
    mapping: &Mapping,
    steps: usize,
    config: &PolicyConfig,
    controller: &mut C,
) -> Result<PolicyTrace, BoostError> {
    darksil_obs::event("boost.run", || {
        let mut fields = vec![
            ("policy", C::POLICY.into()),
            ("threshold_c", config.threshold.value().into()),
            ("period_s", config.period.value().into()),
        ];
        if let Some(cap) = config.power_cap {
            fields.push(("power_cap_w", cap.value().into()));
        }
        fields
    });
    sim.set_watermark(config.threshold);
    let mut working = mapping.clone();
    let mut trace = PolicyTrace::starting_at(sim.elapsed());
    for _ in 0..steps {
        crate::error::check_step(C::POLICY)?;
        let (frequency, gips) = controller.apply(&mut working);
        // Power from current per-core temperatures (leakage coupling).
        let temps: Vec<Celsius> = sim.snapshot().die_temperatures().collect();
        let power_map = working.power_map_at(platform, &temps);
        let power: Watts = power_map.iter().sum();
        let map = sim.step(&power_map)?;
        let sample = TraceSample {
            time: sim.elapsed(),
            frequency,
            peak_temperature: map.peak(),
            gips,
            power,
        };
        trace.push(sample);
        controller.react(&working, &sample, &map);
    }
    // The totals the energy-conservation invariant cross-checks against
    // the integrated `thermal.step` power samples.
    darksil_obs::event("boost.summary", || {
        vec![
            ("policy", C::POLICY.into()),
            ("energy_j", trace.total_energy().value().into()),
            ("peak_w", trace.peak_power().value().into()),
            ("peak_c", trace.peak_temperature().value().into()),
            ("samples", (trace.len() as u64).into()),
        ]
    });
    Ok(trace)
}
