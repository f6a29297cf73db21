//! Active-core sweeps: performance and power vs number of active cores
//! (Figures 12 and 13).

use darksil_engine::Engine;
use darksil_mapping::{place_patterned, Platform};
use darksil_robust::DarksilError;
use darksil_units::{Gips, Seconds, Watts};
use darksil_workload::{ParsecApp, Workload};

use crate::{run_boosting_and_constant, PolicyConfig};

/// One point of the Figure 12 sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Active cores (8 per application instance).
    pub active_cores: usize,
    /// Settled average throughput under boosting.
    pub boosting_gips: Gips,
    /// Peak power under boosting.
    pub boosting_power: Watts,
    /// Settled average throughput at the best constant level.
    pub constant_gips: Gips,
    /// Peak power at the best constant level.
    pub constant_power: Watts,
}

/// Sweeps the number of active cores by adding one 8-thread instance of
/// `app` per step (Figure 12: "a new application instance every 8
/// active cores"), running both policies at each point.
///
/// `settle_time` is the transient horizon per point; the paper uses
/// 100 s at 1 ms, which is what the bench harness runs — tests use a
/// coarser period via `config`.
///
/// The per-instance-count transients are independent, so they fan out
/// over the execution engine (`--jobs` / `DARKSIL_JOBS`); results come
/// back in instance-count order regardless of completion order.
///
/// # Errors
///
/// Propagates mapping and simulation failures, classified into the
/// workspace taxonomy.
pub fn sweep_active_cores(
    platform: &Platform,
    app: ParsecApp,
    max_instances: usize,
    settle_time: Seconds,
    config: &PolicyConfig,
) -> Result<Vec<SweepPoint>, DarksilError> {
    // Build the (cheap) workloads serially so the capacity cut-off
    // stays a plain loop; only the expensive transients fan out.
    let mut workloads = Vec::with_capacity(max_instances);
    for count in 1..=max_instances {
        let workload = Workload::uniform(app, count, 8)?;
        if workload.total_threads() > platform.core_count() {
            break;
        }
        workloads.push(workload);
    }
    Engine::auto().try_par_map(workloads, |workload| {
        let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level())?;
        let (boost, constant) = run_boosting_and_constant(platform, &mapping, settle_time, config)?;
        Ok(SweepPoint {
            active_cores: workload.total_threads(),
            boosting_gips: boost.average_gips_tail(0.5),
            boosting_power: boost.peak_power(),
            constant_gips: constant.average_gips_tail(0.5),
            constant_power: constant.peak_power(),
        })
    })
}

darksil_json::impl_json!(struct SweepPoint {
    active_cores,
    boosting_gips,
    boosting_power,
    constant_gips,
    constant_power,
});

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_power::TechnologyNode;
    use darksil_units::Hertz;

    fn platform() -> Platform {
        Platform::with_core_count(TechnologyNode::Nm16, 36)
            .expect("test value")
            .with_boost_levels(Hertz::from_ghz(4.4))
            .expect("test value")
    }

    // 36-core test die: regulate to an attainable 62 °C (see turbo.rs).
    fn config() -> PolicyConfig {
        PolicyConfig {
            threshold: darksil_units::Celsius::new(62.0),
            period: Seconds::new(0.05),
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn performance_grows_with_active_cores() {
        let p = platform();
        let points = sweep_active_cores(&p, ParsecApp::X264, 4, Seconds::new(30.0), &config())
            .expect("test value");
        assert_eq!(points.len(), 4);
        for w in points.windows(2) {
            assert!(w[1].constant_gips >= w[0].constant_gips);
            assert!(w[1].active_cores == w[0].active_cores + 8);
        }
    }

    #[test]
    fn boosting_dominates_on_gips_but_costs_power() {
        let p = platform();
        let points = sweep_active_cores(&p, ParsecApp::X264, 3, Seconds::new(30.0), &config())
            .expect("test value");
        for pt in &points {
            assert!(
                pt.boosting_gips.value() >= pt.constant_gips.value() * 0.98,
                "boost {} vs const {} at {} cores",
                pt.boosting_gips,
                pt.constant_gips,
                pt.active_cores
            );
            assert!(pt.boosting_power >= pt.constant_power);
        }
    }

    #[test]
    fn sweep_stops_at_chip_capacity() {
        let p = platform(); // 36 cores → at most 4 instances of 8
        let points = sweep_active_cores(&p, ParsecApp::Canneal, 10, Seconds::new(10.0), &config())
            .expect("test value");
        assert_eq!(points.len(), 4);
        assert_eq!(points.last().expect("test value").active_cores, 32);
    }
}
