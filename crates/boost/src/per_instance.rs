//! Per-instance (cluster-level) boosting.
//!
//! The paper's §6 controller moves **all** cores one step together —
//! Intel Turbo Boost circa Nehalem. Modern parts steer finer-grained
//! domains, so a natural extension is one control loop per application
//! instance: every period, each instance whose hottest core is below
//! the threshold steps up and the others step down. Cool-running
//! instances (memory-bound or well-spread) can then hold boost levels
//! that a chip-wide loop, slaved to the single hottest core, would give
//! up.
//!
//! [`run_per_instance_boosting`] produces the same [`PolicyTrace`] as
//! the chip-wide policy, so the two compare directly (the recorded
//! `frequency` is the mean across instances). The measured outcome is
//! itself instructive: with a single shared heat sink the control
//! domains are thermally coupled, and per-instance control lands within
//! a few percent of the chip-wide loop rather than beating it — finer
//! DVFS domains only pay off with finer thermal domains.

use darksil_mapping::{Mapping, Platform};
use darksil_units::{Celsius, Gips, Hertz, Seconds};

use crate::kernel::{cold_start, simulate, Controller};
use crate::turbo::nominal_max_index;
use crate::{BoostError, PolicyConfig, PolicyTrace, TraceSample};

/// One control loop per application instance.
struct PerInstance<'a> {
    platform: &'a Platform,
    config: &'a PolicyConfig,
    /// Each instance's index in the platform's DVFS ladder, in mapping
    /// order.
    levels: Vec<usize>,
}

impl Controller for PerInstance<'_> {
    const POLICY: &'static str = "per_instance";

    fn apply(&mut self, working: &mut Mapping) -> (Hertz, Gips) {
        let ladder = self.platform.dvfs().levels();
        for (entry, &idx) in working.entries_mut().iter_mut().zip(&self.levels) {
            entry.level = ladder[idx];
        }
        let sum: f64 = self
            .levels
            .iter()
            .map(|&idx| ladder[idx].frequency.value())
            .sum();
        (
            Hertz::new(sum / self.levels.len() as f64),
            working.total_gips(self.platform),
        )
    }

    fn react(&mut self, working: &Mapping, sample: &TraceSample, die: &[Celsius]) {
        // Each instance reacts to *its own* hottest core; the shared
        // power cap throttles everyone.
        let dvfs = self.platform.dvfs();
        let over_cap = self.config.power_cap.is_some_and(|cap| sample.power > cap);
        for (entry, idx) in working.entries().iter().zip(self.levels.iter_mut()) {
            let instance_peak = entry
                .cores
                .iter()
                .map(|c| die[c.index()])
                .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max);
            *idx = if instance_peak > self.config.threshold || over_cap {
                dvfs.step_down(*idx)
            } else {
                dvfs.step_up(*idx)
            };
        }
    }
}

/// Runs the per-instance boosting policy (see module docs).
///
/// # Errors
///
/// Returns [`BoostError::InvalidConfig`] for bad durations/periods or an
/// empty mapping, and propagates thermal failures.
pub fn run_per_instance_boosting(
    platform: &Platform,
    mapping: &Mapping,
    duration: Seconds,
    config: &PolicyConfig,
) -> Result<PolicyTrace, BoostError> {
    let steps = config.steps(mapping, duration)?;
    let mut sim = cold_start(platform, config)?;
    let mut controller = PerInstance {
        platform,
        config,
        levels: vec![nominal_max_index(platform); mapping.entries().len()],
    };
    simulate(platform, &mut sim, mapping, steps, config, &mut controller)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_boosting;
    use darksil_mapping::place_patterned;
    use darksil_power::TechnologyNode;
    use darksil_workload::{ParsecApp, Workload};

    fn setup_mixed() -> (Platform, Mapping) {
        // A hot app (swaptions) and a cool app (canneal) sharing a
        // 16-core chip — the mixed case where finer control domains
        // could in principle differ from the chip-wide loop.
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value");
        let mut workload = Workload::new();
        workload.push(
            darksil_workload::AppInstance::new(ParsecApp::Swaptions, 6).expect("valid workload"),
        );
        workload.push(
            darksil_workload::AppInstance::new(ParsecApp::Canneal, 6).expect("valid workload"),
        );
        let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level())
            .expect("test value");
        (platform, mapping)
    }

    fn config() -> PolicyConfig {
        PolicyConfig {
            threshold: Celsius::new(60.0), // attainable on a small die
            period: Seconds::new(0.02),
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn stays_near_threshold_without_runaway() {
        let (platform, mapping) = setup_mixed();
        let trace = run_per_instance_boosting(&platform, &mapping, Seconds::new(60.0), &config())
            .expect("test value");
        let hot = trace.peak_temperature();
        assert!(hot < Celsius::new(64.0), "overshoot {hot}");
        assert!(hot > Celsius::new(56.0), "never engaged: {hot}");
    }

    #[test]
    fn shared_sink_couples_the_control_domains() {
        // A finding, not a win: because the heat sink is shared, the
        // "cool" instance's die cells are heated by its neighbours and
        // its own loop sees nearly the same peak as the chip-wide loop
        // does — per-instance control lands within a few percent of
        // chip-wide throughput instead of beating it. Independent
        // control domains need independent thermal headroom, which a
        // single package does not provide.
        let (platform, mapping) = setup_mixed();
        let cfg = config();
        let per = run_per_instance_boosting(&platform, &mapping, Seconds::new(60.0), &cfg)
            .expect("test value");
        let chip = run_boosting(&platform, &mapping, Seconds::new(60.0), &cfg).expect("test value");
        let ratio = per.average_gips_tail(0.5) / chip.average_gips_tail(0.5);
        assert!((0.9..=1.1).contains(&ratio), "ratio {ratio}");
        // Both respect the threshold equally.
        assert!(per.peak_temperature() < Celsius::new(64.0));
    }

    #[test]
    fn homogeneous_workload_matches_chip_wide_closely() {
        // With identical instances there is nothing to differentiate;
        // both controllers converge to similar operating points.
        let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value");
        let w = Workload::uniform(ParsecApp::X264, 3, 4).expect("valid workload");
        let mapping =
            place_patterned(platform.floorplan(), &w, platform.max_level()).expect("test value");
        let cfg = config();
        let per = run_per_instance_boosting(&platform, &mapping, Seconds::new(40.0), &cfg)
            .expect("test value");
        let chip = run_boosting(&platform, &mapping, Seconds::new(40.0), &cfg).expect("test value");
        let ratio = per.average_gips_tail(0.5) / chip.average_gips_tail(0.5);
        assert!((0.9..=1.15).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (platform, mapping) = setup_mixed();
        assert!(
            run_per_instance_boosting(&platform, &mapping, Seconds::zero(), &config()).is_err()
        );
        let empty = Mapping::new(platform.core_count());
        assert!(
            run_per_instance_boosting(&platform, &empty, Seconds::new(1.0), &config()).is_err()
        );
    }
}
