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
use darksil_thermal::TransientSim;
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
    /// it and the per-core die temperatures it ended at.
    fn react(&mut self, working: &Mapping, sample: &TraceSample, die: &[Celsius]);
}

/// A simulation starting from ambient (cold chip), stepping at the
/// control period.
pub(crate) fn cold_start(
    platform: &Platform,
    config: &PolicyConfig,
) -> Result<TransientSim, BoostError> {
    Ok(TransientSim::new(platform.thermal(), config.period)?)
}

/// One policy run in progress: the controller, the mapping it drives,
/// the trace it records and the buffers every period reuses, so a
/// control period allocates nothing.
struct Run<'a, C: Controller> {
    platform: &'a Platform,
    controller: &'a mut C,
    working: Mapping,
    trace: PolicyTrace,
    /// Die temperatures the last step ended at: the next period's power
    /// is evaluated at them.
    temps: Vec<Celsius>,
    power: Vec<Watts>,
    /// What `apply` returned for the period in flight.
    frequency: Hertz,
    gips: Gips,
}

impl<'a, C: Controller> Run<'a, C> {
    /// Opens the run's event segment and arms `sim`'s watermark.
    fn start(
        platform: &'a Platform,
        sim: &mut TransientSim,
        mapping: &Mapping,
        steps: usize,
        config: &PolicyConfig,
        controller: &'a mut C,
    ) -> Self {
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
        Self {
            platform,
            controller,
            working: mapping.clone(),
            trace: PolicyTrace::starting_at(sim.elapsed(), steps),
            temps: sim.die_temperatures().collect(),
            power: vec![Watts::zero(); mapping.core_count()],
            frequency: Hertz::zero(),
            gips: Gips::zero(),
        }
    }

    /// Writes this period's levels and the leakage-coupled power at the
    /// current die temperatures into the power buffer.
    fn apply(&mut self) -> Result<(), BoostError> {
        crate::error::check_step(C::POLICY)?;
        (self.frequency, self.gips) = self.controller.apply(&mut self.working);
        self.working
            .power_map_into(self.platform, &self.temps, &mut self.power);
        Ok(())
    }

    /// Records the step `sim` just took and lets the controller react.
    fn record(&mut self, sim: &TransientSim) {
        self.temps.clear();
        self.temps.extend(sim.die_temperatures());
        let sample = TraceSample {
            time: sim.elapsed(),
            frequency: self.frequency,
            peak_temperature: sim.peak(),
            gips: self.gips,
            power: self.power.iter().sum(),
        };
        self.trace.push(sample);
        self.controller.react(&self.working, &sample, &self.temps);
    }

    /// Closes the event segment with the totals the energy-conservation
    /// invariant cross-checks against the integrated `thermal.step`
    /// power samples.
    fn finish(self) -> PolicyTrace {
        let trace = self.trace;
        darksil_obs::event("boost.summary", || {
            vec![
                ("policy", C::POLICY.into()),
                ("energy_j", trace.total_energy().value().into()),
                ("peak_w", trace.peak_power().value().into()),
                ("peak_c", trace.peak_temperature().value().into()),
                ("samples", (trace.len() as u64).into()),
            ]
        });
        trace
    }
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
    let mut run = Run::start(platform, sim, mapping, steps, config, controller);
    for _ in 0..steps {
        run.apply()?;
        sim.advance(&run.power)?;
        run.record(sim);
    }
    Ok(run.finish())
}

/// Runs two controllers from a cold chip in lockstep, each over its own
/// mapping, for `steps` control periods: every period both apply, both
/// simulations advance through one two-lane substitution, and both
/// record and react. Each trace equals what [`simulate`] gives for its
/// controller alone. Event segments would interleave, so callers take
/// this path only while events are off.
pub(crate) fn simulate_pair<A: Controller, B: Controller>(
    platform: &Platform,
    mappings: [&Mapping; 2],
    steps: usize,
    config: &PolicyConfig,
    first: &mut A,
    second: &mut B,
) -> Result<(PolicyTrace, PolicyTrace), BoostError> {
    let mut sim_a = cold_start(platform, config)?;
    let mut sim_b = cold_start(platform, config)?;
    let mut a = Run::start(platform, &mut sim_a, mappings[0], steps, config, first);
    let mut b = Run::start(platform, &mut sim_b, mappings[1], steps, config, second);
    for _ in 0..steps {
        a.apply()?;
        b.apply()?;
        sim_a.advance_pair(&mut sim_b, &a.power, &b.power)?;
        a.record(&sim_a);
        b.record(&sim_b);
    }
    Ok((a.finish(), b.finish()))
}
