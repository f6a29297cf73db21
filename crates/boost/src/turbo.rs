//! The closed-loop boosting controller.

use darksil_mapping::{Mapping, Platform};
use darksil_units::{Celsius, Gips, Hertz, Seconds};

use crate::kernel::{cold_start, simulate, Controller};
use crate::{BoostError, PolicyConfig, PolicyTrace, TraceSample};

/// The §6 chip-wide loop: every core runs one V/f level, which moves
/// one 200 MHz step per period — down while the peak is over the
/// threshold or the power is over the cap, up otherwise.
pub(crate) struct ChipWide<'a> {
    platform: &'a Platform,
    config: &'a PolicyConfig,
    /// Index of the current level in the platform's DVFS ladder.
    level: usize,
    /// The mapping's throughput at each ladder level, computed once:
    /// every instance runs the one chip-wide level.
    gips: Vec<Gips>,
}

impl<'a> ChipWide<'a> {
    /// Starts `mapping` at the nominal maximum frequency, as a newly
    /// arrived workload requests full speed.
    pub(crate) fn new(platform: &'a Platform, config: &'a PolicyConfig, mapping: &Mapping) -> Self {
        let mut probe = mapping.clone();
        let gips = platform
            .dvfs()
            .levels()
            .iter()
            .map(|&level| {
                for entry in probe.entries_mut() {
                    entry.level = level;
                }
                probe.total_gips(platform)
            })
            .collect();
        Self {
            platform,
            config,
            level: nominal_max_index(platform),
            gips,
        }
    }
}

impl Controller for ChipWide<'_> {
    const POLICY: &'static str = "boosting";

    fn apply(&mut self, working: &mut Mapping) -> (Hertz, Gips) {
        let level = self.platform.dvfs().levels()[self.level];
        for entry in working.entries_mut() {
            entry.level = level;
        }
        (level.frequency, self.gips[self.level])
    }

    fn react(&mut self, _working: &Mapping, sample: &TraceSample, _die: &[Celsius]) {
        let dvfs = self.platform.dvfs();
        let peak = sample.peak_temperature;
        let over_cap = self.config.power_cap.is_some_and(|cap| sample.power > cap);
        let from = self.level;
        self.level = if peak > self.config.threshold || over_cap {
            dvfs.step_down(from)
        } else {
            dvfs.step_up(from)
        };
        if self.level != from && darksil_obs::events_enabled() {
            // The controller changed the chip-wide V/f level: record the
            // transition with whichever condition forced the decision.
            let reason = if peak > self.config.threshold {
                "thermal"
            } else if over_cap {
                "power_cap"
            } else {
                "boost"
            };
            let to_ghz = dvfs.levels()[self.level].frequency.as_ghz();
            darksil_obs::event("boost.transition", || {
                vec![
                    ("t_s", sample.time.value().into()),
                    ("from_ghz", sample.frequency.as_ghz().into()),
                    ("to_ghz", to_ghz.into()),
                    ("peak_c", peak.value().into()),
                    ("reason", reason.into()),
                ]
            });
        }
    }
}

/// Index of the highest DVFS level at or below the node's nominal
/// maximum frequency (the top level if none is).
pub(crate) fn nominal_max_index(platform: &Platform) -> usize {
    let dvfs = platform.dvfs();
    dvfs.floor_index(platform.node().nominal_max_frequency())
        .unwrap_or(dvfs.len() - 1)
}

/// Runs the boosting policy: every period the chip-wide V/f level steps
/// 200 MHz up if the peak temperature is below the threshold (and the
/// power cap is respected), down otherwise — the oscillating behaviour
/// of Figure 11.
///
/// The mapping's instance placement is kept; its levels are overridden
/// by the controller. The simulation starts from ambient (cold chip),
/// so quote averages over the settled tail.
///
/// # Errors
///
/// Returns [`BoostError::InvalidConfig`] for bad durations/periods or an
/// empty mapping, and propagates thermal failures.
pub fn run_boosting(
    platform: &Platform,
    mapping: &Mapping,
    duration: Seconds,
    config: &PolicyConfig,
) -> Result<PolicyTrace, BoostError> {
    let steps = config.steps(mapping, duration)?;
    let mut sim = cold_start(platform, config)?;
    simulate(
        platform,
        &mut sim,
        mapping,
        steps,
        config,
        &mut ChipWide::new(platform, config, mapping),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_mapping::place_patterned;
    use darksil_power::TechnologyNode;
    use darksil_units::{Celsius, Hertz, Watts};
    use darksil_workload::{ParsecApp, Workload};

    fn setup() -> (Platform, Mapping) {
        // Small 16-core chip so the transient tests stay fast; 12 of 16
        // cores active is the same ~75 % occupancy as Figure 11.
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value");
        let w = Workload::uniform(ParsecApp::X264, 3, 4).expect("valid workload");
        let mapping =
            place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value");
        (platform, mapping)
    }

    // A 16-core die cannot heat the paper's 6×6 cm sink to 80 °C, so
    // the small-chip tests regulate to an attainable 60 °C threshold;
    // the full 100-core Figure 11 run (bench harness) uses 80 °C.
    fn fast_config() -> PolicyConfig {
        PolicyConfig {
            threshold: Celsius::new(60.0),
            period: Seconds::new(0.02),
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn an_expired_deadline_cancels_the_policy_loop() {
        let (platform, mapping) = setup();
        let ctx = darksil_robust::RunContext::with_token(
            darksil_robust::CancellationToken::with_deadline(std::time::Duration::from_millis(0)),
        );
        let err = darksil_robust::scoped(&ctx, || {
            run_boosting(&platform, &mapping, Seconds::new(60.0), &fast_config())
        })
        .expect_err("expired deadline stops the loop");
        assert!(matches!(err, BoostError::Cancelled { .. }), "{err:?}");
        let classified: darksil_robust::DarksilError = err.into();
        assert_eq!(classified.class(), darksil_robust::ErrorClass::Deadline);
    }

    #[test]
    fn controller_regulates_to_threshold() {
        let (platform, mapping) = setup();
        let trace = run_boosting(&platform, &mapping, Seconds::new(60.0), &fast_config())
            .expect("test value");
        // Settled band straddles/approaches the threshold without
        // running away.
        let hot = trace.peak_temperature();
        assert!(hot < Celsius::new(64.0), "overshoot {hot}");
        let tail_min = trace.min_peak_temperature_tail(0.2);
        let tail_max = trace.peak_temperature();
        assert!(
            tail_max.value() > 56.0,
            "never approached threshold: {tail_max}"
        );
        assert!(tail_min < tail_max);
    }

    #[test]
    fn frequency_oscillates_in_settled_region() {
        let (platform, mapping) = setup();
        let trace = run_boosting(&platform, &mapping, Seconds::new(60.0), &fast_config())
            .expect("test value");
        let (lo, hi) = trace.frequency_band_tail(0.2);
        assert!(hi > lo, "no oscillation: stuck at {lo}");
        // Steps are 200 MHz.
        assert!(hi - lo >= Hertz::from_mhz(199.0));
    }

    #[test]
    fn trace_bookkeeping() {
        let (platform, mapping) = setup();
        let trace = run_boosting(&platform, &mapping, Seconds::new(2.0), &fast_config())
            .expect("test value");
        assert_eq!(trace.len(), 100);
        assert!(trace.total_energy().value() > 0.0);
        assert!(trace.average_gips().value() > 0.0);
        // Time increases monotonically.
        let mut last = Seconds::zero();
        for s in trace.samples() {
            assert!(s.time > last);
            last = s.time;
        }
    }

    #[test]
    fn power_cap_forces_step_down() {
        let (platform, mapping) = setup();
        let capped = PolicyConfig {
            power_cap: Some(Watts::new(20.0)),
            ..fast_config()
        };
        let trace =
            run_boosting(&platform, &mapping, Seconds::new(20.0), &capped).expect("test value");
        // With a 20 W cap on a 12-core active chip the controller must
        // keep power near the cap even though temperature never
        // approaches 80 °C.
        let tail: Vec<_> = trace
            .samples()
            .iter()
            .skip(trace.len() - 20)
            .map(|s| s.power.value())
            .collect();
        let avg = tail.iter().sum::<f64>() / tail.len() as f64;
        assert!(avg < 25.0, "tail power {avg} W ignores the cap");
        assert!(trace.peak_temperature() < Celsius::new(58.0));
    }

    #[test]
    fn invalid_configs_rejected() {
        let (platform, mapping) = setup();
        assert!(matches!(
            run_boosting(&platform, &mapping, Seconds::zero(), &fast_config()),
            Err(BoostError::InvalidConfig { .. })
        ));
        let bad = PolicyConfig {
            period: Seconds::zero(),
            ..PolicyConfig::default()
        };
        assert!(run_boosting(&platform, &mapping, Seconds::new(1.0), &bad).is_err());
        let empty = Mapping::new(platform.core_count());
        assert!(run_boosting(&platform, &empty, Seconds::new(1.0), &fast_config()).is_err());
    }
}
