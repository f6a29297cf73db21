//! The constant-frequency alternative to boosting.

use darksil_mapping::{Mapping, Platform};
use darksil_power::VfLevel;
use darksil_units::{Celsius, Gips, Hertz, Seconds, Watts};

use crate::kernel::{cold_start, simulate, simulate_pair, Controller};
use crate::turbo::ChipWide;
use crate::{run_boosting, BoostError, PolicyConfig, PolicyTrace, TraceSample};

/// Finds the highest discrete V/f level whose *steady state* keeps the
/// peak temperature at or below the threshold and the total power under
/// the cap — the constant-frequency operating point of §6. Because
/// levels are 200 MHz apart, the chosen point typically settles a few
/// degrees below the threshold (Figure 11's lower curve).
///
/// # Errors
///
/// Returns [`BoostError::NoFeasibleLevel`] if even the lowest level
/// violates the constraints, and propagates thermal failures.
pub fn max_safe_level(
    platform: &Platform,
    mapping: &Mapping,
    config: &PolicyConfig,
) -> Result<VfLevel, BoostError> {
    let dvfs = platform.dvfs();
    let mut working = mapping.clone();
    for idx in (0..dvfs.len()).rev() {
        let Some(level) = dvfs.get(idx) else { continue };
        // Never pick boost-region levels for the constant policy: cap
        // at the nominal maximum.
        if level.frequency > platform.node().nominal_max_frequency() {
            continue;
        }
        for entry in working.entries_mut() {
            entry.level = level;
        }
        let map = working.steady_temperatures(platform)?;
        if map.peak() > config.threshold {
            continue;
        }
        if let Some(cap) = config.power_cap {
            let temps: Vec<Celsius> = map.die_temperatures().collect();
            let total: Watts = working.power_map_at(platform, &temps).iter().sum();
            if total > cap {
                continue;
            }
        }
        return Ok(level);
    }
    Err(BoostError::NoFeasibleLevel)
}

/// Holds the levels already written into the mapping: the frequency
/// and throughput to record every period.
struct Hold(Hertz, Gips);

impl Controller for Hold {
    const POLICY: &'static str = "constant";

    fn apply(&mut self, _working: &mut Mapping) -> (Hertz, Gips) {
        (self.0, self.1)
    }

    fn react(&mut self, _working: &Mapping, _sample: &TraceSample, _die: &[Celsius]) {}
}

/// The constant policy for `mapping`: the mapping at [`max_safe_level`]
/// and the controller that holds it there.
fn hold_safe_level(
    platform: &Platform,
    mapping: &Mapping,
    config: &PolicyConfig,
) -> Result<(Mapping, Hold), BoostError> {
    let level = max_safe_level(platform, mapping, config)?;
    let mut fixed = mapping.clone();
    for entry in fixed.entries_mut() {
        entry.level = level;
    }
    let hold = Hold(level.frequency, fixed.total_gips(platform));
    Ok((fixed, hold))
}

/// Runs the constant-frequency policy: pick [`max_safe_level`] once,
/// then simulate the transient at that fixed level for `duration`.
///
/// # Errors
///
/// Propagates [`max_safe_level`] errors and thermal failures; rejects
/// invalid durations/periods like [`crate::run_boosting`].
pub fn run_constant(
    platform: &Platform,
    mapping: &Mapping,
    duration: Seconds,
    config: &PolicyConfig,
) -> Result<PolicyTrace, BoostError> {
    let steps = config.steps(mapping, duration)?;
    let (fixed, mut hold) = hold_safe_level(platform, mapping, config)?;
    let mut sim = cold_start(platform, config)?;
    simulate(platform, &mut sim, &fixed, steps, config, &mut hold)
}

/// Runs both §6 policies on one mapping and returns `(boosting,
/// constant)`: the same traces as [`run_boosting`] followed by
/// [`run_constant`], computed together. [`max_safe_level`] is found
/// first; then both cold-chip simulations step in lockstep, their two
/// states sharing one backward-Euler substitution per control period.
///
/// While events are being recorded the two runs go one after the
/// other instead, exactly as the two separate calls would, so the event
/// stream keeps one segment per run in the same order.
///
/// # Errors
///
/// As [`run_boosting`] and [`run_constant`].
pub fn run_boosting_and_constant(
    platform: &Platform,
    mapping: &Mapping,
    duration: Seconds,
    config: &PolicyConfig,
) -> Result<(PolicyTrace, PolicyTrace), BoostError> {
    if darksil_obs::events_enabled() {
        let boosting = run_boosting(platform, mapping, duration, config)?;
        return Ok((boosting, run_constant(platform, mapping, duration, config)?));
    }
    let steps = config.steps(mapping, duration)?;
    let (fixed, mut hold) = hold_safe_level(platform, mapping, config)?;
    simulate_pair(
        platform,
        [mapping, &fixed],
        steps,
        config,
        &mut ChipWide::new(platform, config, mapping),
        &mut hold,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_mapping::place_patterned;
    use darksil_power::TechnologyNode;
    use darksil_units::Hertz;
    use darksil_workload::{ParsecApp, Workload};

    fn setup() -> (Platform, Mapping) {
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value");
        let w = Workload::uniform(ParsecApp::X264, 3, 4).expect("valid workload");
        let mapping =
            place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value");
        (platform, mapping)
    }

    // See turbo.rs: small dies regulate to 60 °C in tests.
    fn fast_config() -> PolicyConfig {
        PolicyConfig {
            threshold: Celsius::new(60.0),
            period: Seconds::new(0.02),
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn safe_level_is_actually_safe() {
        let (platform, mapping) = setup();
        let config = fast_config();
        let level = max_safe_level(&platform, &mapping, &config).expect("test value");
        let mut working = mapping.clone();
        for e in working.entries_mut() {
            e.level = level;
        }
        let peak = working.peak_temperature(&platform).expect("test value");
        assert!(peak <= config.threshold, "peak {peak}");
        // And one step up would violate (maximality) unless already at
        // nominal max.
        if level.frequency < platform.node().nominal_max_frequency() {
            let dvfs = platform.dvfs();
            let idx = dvfs.floor_index(level.frequency).expect("test value");
            let up = dvfs.get(dvfs.step_up(idx)).expect("test value");
            for e in working.entries_mut() {
                e.level = up;
            }
            let hotter = working.peak_temperature(&platform).expect("test value");
            assert!(hotter > config.threshold, "not maximal: up gives {hotter}");
        }
    }

    #[test]
    fn constant_run_stays_below_threshold() {
        let (platform, mapping) = setup();
        let trace = run_constant(&platform, &mapping, Seconds::new(60.0), &fast_config())
            .expect("test value");
        assert!(trace.peak_temperature() <= Celsius::new(60.0) + 0.1);
        // Single frequency throughout.
        let (lo, hi) = trace.frequency_band_tail(1.0);
        assert_eq!(lo, hi);
    }

    #[test]
    fn figure11_boosting_beats_constant_slightly() {
        // Observation 3: boosting wins on average GIPS, but only by a
        // small margin.
        let (platform, mapping) = setup();
        let config = fast_config();
        let boost =
            run_boosting(&platform, &mapping, Seconds::new(80.0), &config).expect("test value");
        let constant =
            run_constant(&platform, &mapping, Seconds::new(80.0), &config).expect("test value");
        let g_boost = boost.average_gips_tail(0.5).value();
        let g_const = constant.average_gips_tail(0.5).value();
        assert!(
            g_boost > g_const,
            "boosting {g_boost} should beat constant {g_const}"
        );
        let gain = g_boost / g_const;
        assert!(gain < 1.35, "gain {gain} implausibly large");
    }

    #[test]
    fn boosting_needs_higher_peak_power() {
        // The other half of Observation 3: the small performance gain
        // costs a big peak-power increment.
        let (platform, mapping) = setup();
        let config = fast_config();
        let boost =
            run_boosting(&platform, &mapping, Seconds::new(40.0), &config).expect("test value");
        let constant =
            run_constant(&platform, &mapping, Seconds::new(40.0), &config).expect("test value");
        assert!(boost.peak_power() > constant.peak_power());
    }

    #[test]
    fn infeasible_constraints_reported() {
        let (platform, mapping) = setup();
        let impossible = PolicyConfig {
            threshold: Celsius::new(30.0), // below ambient
            ..fast_config()
        };
        assert_eq!(
            max_safe_level(&platform, &mapping, &impossible),
            Err(BoostError::NoFeasibleLevel)
        );
    }

    #[test]
    fn constant_level_respects_power_cap() {
        let (platform, mapping) = setup();
        let config = PolicyConfig {
            power_cap: Some(Watts::new(15.0)),
            ..fast_config()
        };
        let level = max_safe_level(&platform, &mapping, &config).expect("test value");
        let mut working = mapping.clone();
        for e in working.entries_mut() {
            e.level = level;
        }
        let total = working.total_power(&platform, Celsius::new(70.0));
        assert!(total <= Watts::new(16.0), "total {total}");
    }

    /// A duration of 10¹⁵ control periods must not size an allocation:
    /// each entry point reaches its first step check and reports the
    /// expired deadline.
    #[test]
    fn a_run_far_past_its_deadline_is_cancelled() {
        let (platform, mapping) = setup();
        let config = PolicyConfig {
            period: Seconds::new(1.0e-3),
            ..fast_config()
        };
        let forever = Seconds::new(1.0e12);
        let ctx = darksil_robust::RunContext::with_token(
            darksil_robust::CancellationToken::with_deadline(std::time::Duration::from_millis(0)),
        );
        let cancelled = |result: Result<(), BoostError>| {
            assert!(
                matches!(result, Err(BoostError::Cancelled { .. })),
                "{result:?}"
            );
        };
        darksil_robust::scoped(&ctx, || {
            cancelled(run_boosting(&platform, &mapping, forever, &config).map(drop));
            cancelled(run_constant(&platform, &mapping, forever, &config).map(drop));
            cancelled(run_boosting_and_constant(&platform, &mapping, forever, &config).map(drop));
        });
    }

    #[test]
    fn constant_never_uses_boost_region() {
        let (platform, mapping) = setup();
        let level = max_safe_level(&platform, &mapping, &fast_config()).expect("test value");
        assert!(level.frequency <= platform.node().nominal_max_frequency());
    }
}
