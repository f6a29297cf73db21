//! Data builders, one per table/figure.
//!
//! The multi-panel figures fan their independent inner loops (per-app,
//! per-node, per-instance-count work) out over `darksil-engine`; the
//! engine returns results in submission order, so the emitted series
//! are byte-identical at any `--jobs` setting.

use darksil_archsim::{McPatSampler, SampleSweep};
use darksil_boost::{
    iso_performance_comparison, run_boosting, run_boosting_and_constant, run_constant,
    sweep_active_cores, IsoPerfComparison, PolicyConfig, PolicyTrace, SweepPoint,
};
use darksil_core::{scenarios, tsp_eval, DarkSiliconEstimator};
use darksil_engine::Engine;
use darksil_mapping::{
    place_contiguous, place_patterned, place_thermal_aware, DsRem, Platform, TdpMap,
};
use darksil_power::{CorePowerModel, LeakageModel, OperatingRegion, TechnologyNode, VfRelation};
use darksil_robust::DarksilError;
use darksil_units::{Celsius, Gips, Hertz, Joules, Seconds, Volts, Watts};
use darksil_workload::{ParsecApp, Workload};

/// How much simulated time the transient figures spend.
///
/// `Paper` reproduces the paper's 100 s horizons at a 1 ms control
/// period; `Quick` shortens horizons and coarsens periods so the whole
/// suite regenerates in minutes. Shapes are identical; only the
/// statistical smoothness of the transient averages differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Short horizons / coarse periods for CI and smoke runs.
    Quick,
    /// The paper's horizons (Figure 11: 100 s at 1 ms).
    Paper,
}

impl Fidelity {
    fn horizon(self) -> Seconds {
        match self {
            Self::Quick => Seconds::new(40.0),
            Self::Paper => Seconds::new(100.0),
        }
    }

    fn period(self) -> Seconds {
        match self {
            Self::Quick => Seconds::new(0.01),
            Self::Paper => Seconds::new(1.0e-3),
        }
    }

    fn sweep_horizon(self) -> Seconds {
        match self {
            Self::Quick => Seconds::new(20.0),
            Self::Paper => Seconds::new(100.0),
        }
    }

    fn sweep_period(self) -> Seconds {
        match self {
            Self::Quick => Seconds::new(0.02),
            Self::Paper => Seconds::new(2.0e-3),
        }
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// One row of the Figure 1 scaling table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Feature size in nm.
    pub node_nm: u32,
    /// Vdd multiplier vs 22 nm.
    pub vdd: f64,
    /// Frequency multiplier.
    pub frequency: f64,
    /// Capacitance multiplier.
    pub capacitance: f64,
    /// Area multiplier.
    pub area: f64,
    /// Core area at this node in mm².
    pub core_area_mm2: f64,
}

/// Regenerates the Figure 1 scaling-factor table.
#[must_use]
pub fn table1() -> Vec<Table1Row> {
    TechnologyNode::ALL
        .iter()
        .map(|&node| {
            let s = node.scaling();
            Table1Row {
                node_nm: node.nanometers(),
                vdd: s.vdd,
                frequency: s.frequency,
                capacitance: s.capacitance,
                area: s.area,
                core_area_mm2: node.core_area().value(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// One sample of the 22 nm f–V curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig2Point {
    /// Supply voltage.
    pub voltage: Volts,
    /// Maximum stable frequency per Eq. (2).
    pub frequency: Hertz,
    /// Operating region at this voltage.
    pub region: OperatingRegion,
}

/// Regenerates Figure 2: the Eq. (2) curve (k = 3.7, Vth = 178 mV)
/// sampled over 0.2–1.5 V with region labels.
#[must_use]
pub fn fig2(points: usize) -> Vec<Fig2Point> {
    let vf = VfRelation::paper_22nm();
    (0..points)
        .map(|i| {
            let v = Volts::new(0.2 + 1.3 * i as f64 / (points.max(2) - 1) as f64);
            Fig2Point {
                voltage: v,
                frequency: vf.frequency_at(v),
                region: vf.region_of(v),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One row of the Figure 3 comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig3Point {
    /// Frequency of the sample.
    pub frequency: Hertz,
    /// "Experimental" (McPAT stand-in) power.
    pub measured: Watts,
    /// Power predicted by the fitted Eq. (1) model.
    pub fitted: Watts,
}

/// The Figure 3 fit and its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig3 {
    /// Per-sample comparison.
    pub points: Vec<Fig3Point>,
    /// Root-mean-square error of the fit in watts.
    pub rmse: Watts,
}

/// Regenerates Figure 3: sample the McPAT stand-in over 0.5–4 GHz for a
/// single x264 thread at 22 nm, fit Eq. (1), and tabulate both.
///
/// # Errors
///
/// Propagates sampling/fitting failures (none occur for the built-in
/// configuration).
pub fn fig3() -> Result<Fig3, Box<dyn std::error::Error>> {
    let sampler = McPatSampler::new(CorePowerModel::x264_22nm(), 0.03, 0xDAC15)?;
    let samples = sampler.sample(&SampleSweep::figure3())?;
    let fitted = CorePowerModel::fit(
        &samples,
        &LeakageModel::alpha_core_22nm(),
        VfRelation::paper_22nm(),
    )?;
    let points = samples
        .iter()
        .map(|s| Fig3Point {
            frequency: s.frequency,
            measured: s.power,
            fitted: fitted.power(s.alpha, s.vdd, s.frequency, s.temperature),
        })
        .collect();
    Ok(Fig3 {
        points,
        rmse: fitted.rmse(&samples),
    })
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// One speed-up curve of Figure 4.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Series {
    /// The application.
    pub app: ParsecApp,
    /// `(threads, speed-up)` samples.
    pub points: Vec<(usize, f64)>,
}

/// Regenerates Figure 4: wide-scaling speed-ups at 2 GHz for x264,
/// bodytrack and canneal over 16–64 threads.
#[must_use]
pub fn fig4() -> Vec<Fig4Series> {
    [ParsecApp::X264, ParsecApp::Bodytrack, ParsecApp::Canneal]
        .iter()
        .map(|&app| {
            let profile = app.profile();
            Fig4Series {
                app,
                points: (16..=64)
                    .step_by(8)
                    .map(|t| (t, profile.speedup_wide(t)))
                    .collect(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 5
// ---------------------------------------------------------------------------

/// One (application, frequency) cell of Figure 5.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig5Cell {
    /// The application.
    pub app: ParsecApp,
    /// Sweep frequency.
    pub frequency: Hertz,
    /// Active-core percentage.
    pub active_percent: f64,
    /// Dark-silicon percentage.
    pub dark_percent: f64,
}

/// One TDP panel of Figure 5.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Panel {
    /// The TDP this panel was computed for.
    pub tdp: Watts,
    /// All (app × frequency) cells.
    pub cells: Vec<Fig5Cell>,
    /// Peak temperature per application at the maximum frequency.
    pub peak_temperatures: Vec<(ParsecApp, Celsius)>,
    /// Whether any application violated the 80 °C threshold.
    pub any_violation: bool,
}

/// Regenerates Figure 5: dark silicon for all seven applications over
/// 2.8–3.6 GHz at 16 nm under the optimistic (220 W) and pessimistic
/// (185 W) TDP, plus the peak-temperature bars.
///
/// # Errors
///
/// Propagates estimation failures.
pub fn fig5() -> Result<Vec<Fig5Panel>, DarksilError> {
    let est = DarkSiliconEstimator::for_node(TechnologyNode::Nm16)?;
    let freqs = [2.8, 3.0, 3.2, 3.4, 3.6];
    let engine = Engine::auto();
    let mut panels = Vec::new();
    for tdp_w in [220.0, 185.0] {
        let tdp = Watts::new(tdp_w);
        // One job per application; submission order preserves the
        // `ParsecApp::ALL` row order of the panel.
        let per_app = engine.try_par_map(ParsecApp::ALL.to_vec(), |app| {
            let mut cells = Vec::new();
            let mut peak = None;
            let mut violation = false;
            for ghz in freqs {
                let e = est.under_power_budget(app, 8, Hertz::from_ghz(ghz), tdp)?;
                cells.push(Fig5Cell {
                    app,
                    frequency: Hertz::from_ghz(ghz),
                    active_percent: 100.0 * (1.0 - e.dark_fraction),
                    dark_percent: 100.0 * e.dark_fraction,
                });
                if (ghz - 3.6).abs() < 1e-9 {
                    peak = Some((app, e.peak_temperature));
                    violation |= e.thermal_violation;
                }
            }
            Ok((cells, peak, violation))
        })?;
        let mut cells = Vec::new();
        let mut peaks = Vec::new();
        let mut any_violation = false;
        for (app_cells, peak, violation) in per_app {
            cells.extend(app_cells);
            peaks.extend(peak);
            any_violation |= violation;
        }
        panels.push(Fig5Panel {
            tdp,
            cells,
            peak_temperatures: peaks,
            any_violation,
        });
    }
    Ok(panels)
}

// ---------------------------------------------------------------------------
// Figure 6
// ---------------------------------------------------------------------------

/// One application row of a Figure 6 panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Row {
    /// The application.
    pub app: ParsecApp,
    /// Dark percentage under the TDP constraint.
    pub dark_tdp_percent: f64,
    /// Dark percentage under the temperature constraint.
    pub dark_thermal_percent: f64,
}

/// One technology panel of Figure 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Panel {
    /// Technology node.
    pub node: TechnologyNode,
    /// Frequency used for this node (3.6 GHz @16 nm, 4 GHz @11 nm).
    pub frequency: Hertz,
    /// Per-application rows.
    pub rows: Vec<Fig6Row>,
    /// Average relative reduction in dark silicon (%) from switching to
    /// the temperature constraint.
    pub average_reduction_percent: f64,
}

/// Regenerates Figure 6: TDP (185 W) vs temperature-constrained dark
/// silicon at 16 nm / 3.6 GHz and 11 nm / 4.0 GHz.
///
/// # Errors
///
/// Propagates estimation failures.
pub fn fig6() -> Result<Vec<Fig6Panel>, DarksilError> {
    let engine = Engine::auto();
    let mut panels = Vec::new();
    for node in [TechnologyNode::Nm16, TechnologyNode::Nm11] {
        let est = DarkSiliconEstimator::for_node(node)?;
        let f = node.nominal_max_frequency();
        // Both constraints for one application are a single job; rows
        // come back in `ParsecApp::ALL` order.
        let rows = engine.try_par_map(ParsecApp::ALL.to_vec(), |app| {
            let tdp = est.under_power_budget(app, 8, f, Watts::new(185.0))?;
            let thermal = est.under_temperature_constraint(app, 8, f)?;
            Ok(Fig6Row {
                app,
                dark_tdp_percent: 100.0 * tdp.dark_fraction,
                dark_thermal_percent: 100.0 * thermal.dark_fraction,
            })
        })?;
        let mut reductions = Vec::new();
        for row in &rows {
            if row.dark_tdp_percent > 0.0 {
                reductions.push(
                    100.0 * (row.dark_tdp_percent - row.dark_thermal_percent)
                        / row.dark_tdp_percent,
                );
            }
        }
        let average_reduction_percent = if reductions.is_empty() {
            0.0
        } else {
            reductions.iter().sum::<f64>() / reductions.len() as f64
        };
        panels.push(Fig6Panel {
            node,
            frequency: f,
            rows,
            average_reduction_percent,
        });
    }
    Ok(panels)
}

// ---------------------------------------------------------------------------
// Figure 7
// ---------------------------------------------------------------------------

/// One application row of a Figure 7 panel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Row {
    /// The application.
    pub app: ParsecApp,
    /// Scenario 1 (nominal frequency) total performance.
    pub nominal_gips: Gips,
    /// Scenario 2 (characteristics-aware DVFS) total performance.
    pub tuned_gips: Gips,
    /// Scenario 1 active-core percentage.
    pub nominal_active_percent: f64,
    /// Scenario 2 active-core percentage.
    pub tuned_active_percent: f64,
    /// Scenario 2's chosen threads per instance.
    pub chosen_threads: usize,
    /// Scenario 2's chosen frequency.
    pub chosen_frequency: Hertz,
}

/// One technology panel of Figure 7.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig7Panel {
    /// Technology node.
    pub node: TechnologyNode,
    /// Per-application rows.
    pub rows: Vec<Fig7Row>,
    /// Largest per-application performance gain (ratio).
    pub max_gain: f64,
}

/// Regenerates Figure 7: both DVFS scenarios at 16 nm and 11 nm under
/// TDP = 185 W.
///
/// # Errors
///
/// Propagates estimation failures.
pub fn fig7() -> Result<Vec<Fig7Panel>, DarksilError> {
    let engine = Engine::auto();
    let mut panels = Vec::new();
    for node in [TechnologyNode::Nm16, TechnologyNode::Nm11] {
        let est = DarkSiliconEstimator::for_node(node)?;
        // The scenario search per application is independent; the gain
        // fold below runs over the ordered results.
        let per_app = engine.try_par_map(ParsecApp::ALL.to_vec(), |app| {
            let c = scenarios::compare(&est, app, Watts::new(185.0))?;
            let row = Fig7Row {
                app,
                nominal_gips: c.nominal.total_gips,
                tuned_gips: c.tuned.total_gips,
                nominal_active_percent: 100.0 * (1.0 - c.nominal.dark_fraction),
                tuned_active_percent: 100.0 * (1.0 - c.tuned.dark_fraction),
                chosen_threads: c.config.threads,
                chosen_frequency: c.config.frequency,
            };
            Ok((row, c.gain()))
        })?;
        let mut rows = Vec::new();
        let mut max_gain: f64 = 1.0;
        for (row, gain) in per_app {
            max_gain = max_gain.max(gain);
            rows.push(row);
        }
        panels.push(Fig7Panel {
            node,
            rows,
            max_gain,
        });
    }
    Ok(panels)
}

// ---------------------------------------------------------------------------
// Figure 8
// ---------------------------------------------------------------------------

/// One mapping pattern of Figure 8.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Pattern {
    /// Pattern name ("contiguous" / "patterned").
    pub name: String,
    /// Active cores.
    pub active_cores: usize,
    /// Total chip power at the converged temperatures.
    pub total_power: Watts,
    /// Peak die temperature.
    pub peak_temperature: Celsius,
    /// Whether `T_DTM` is exceeded.
    pub violates: bool,
    /// ASCII rendering of the die thermal profile (fixed 64–82 °C
    /// scale, like the paper's colour bar).
    pub thermal_art: String,
}

/// Regenerates Figure 8: contiguous mapping of 52 cores (196 W,
/// violating `T_DTM`) vs thermally optimised dark-silicon patterning of
/// 60 cores (226 W, safe), both swaptions at 3.6 GHz on the 16 nm chip.
/// Swaptions' 4-thread instances draw ≈3.77 W per core — exactly the
/// paper's 196 W / 52 cores.
///
/// # Errors
///
/// Propagates mapping/thermal failures.
pub fn fig8() -> Result<Vec<Fig8Pattern>, Box<dyn std::error::Error>> {
    let platform = Platform::for_node(TechnologyNode::Nm16)?;
    let level = platform.max_level();
    let mut out = Vec::new();

    // Pattern (a): 13 × 4-thread instances crammed contiguously = 52
    // cores.
    let w52 = Workload::uniform(ParsecApp::Swaptions, 13, 4)?;
    let contiguous = place_contiguous(platform.floorplan(), &w52, level)?;
    // Pattern (b): 15 × 4-thread instances on an optimised pattern = 60
    // cores.
    let w60 = Workload::uniform(ParsecApp::Swaptions, 15, 4)?;
    let patterned = place_thermal_aware(&platform, &w60, level)?;

    for (name, mapping) in [("contiguous", contiguous), ("patterned", patterned)] {
        let map = mapping.steady_temperatures(&platform)?;
        let temps: Vec<Celsius> = map.die_temperatures().collect();
        let power: Watts = mapping.power_map_at(&platform, &temps).iter().sum();
        let grid = map.to_grid_map(platform.floorplan())?;
        out.push(Fig8Pattern {
            name: name.to_string(),
            active_cores: mapping.active_core_count(),
            total_power: power,
            peak_temperature: map.peak(),
            violates: map.peak() > platform.t_dtm(),
            thermal_art: grid.render_ascii_scaled(64.0, 82.0),
        });
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Figure 9
// ---------------------------------------------------------------------------

/// One workload-mix row of Figure 9.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig9Row {
    /// Mix description.
    pub mix: String,
    /// TDPmap total performance.
    pub tdpmap_gips: Gips,
    /// DsRem total performance.
    pub dsrem_gips: Gips,
    /// TDPmap active-core percentage.
    pub tdpmap_active_percent: f64,
    /// DsRem active-core percentage.
    pub dsrem_active_percent: f64,
    /// DsRem speed-up over TDPmap.
    pub speedup: f64,
}

/// Regenerates Figure 9: DsRem vs TDPmap on single applications and
/// mixes at 16 nm, TDP = 185 W.
///
/// # Errors
///
/// Propagates mapping failures.
pub fn fig9() -> Result<Vec<Fig9Row>, Box<dyn std::error::Error>> {
    let platform = Platform::for_node(TechnologyNode::Nm16)?;
    let tdp = Watts::new(185.0);
    let tdpmap = TdpMap::new(tdp);
    let dsrem = DsRem::new(tdp)?;
    let n = platform.core_count() as f64;

    let mut workloads: Vec<(String, Workload)> = vec![
        ("mix(14×8t)".into(), Workload::parsec_mix(14, 8)?),
        ("mix(20×8t)".into(), Workload::parsec_mix(20, 8)?),
    ];
    for app in [
        ParsecApp::X264,
        ParsecApp::Swaptions,
        ParsecApp::Canneal,
        ParsecApp::Ferret,
    ] {
        workloads.push((format!("{app}×13"), Workload::uniform(app, 13, 8)?));
    }

    let mut rows = Vec::new();
    for (mix, w) in workloads {
        let a = tdpmap.map(&platform, &w)?;
        let b = dsrem.map(&platform, &w)?;
        let g_a = a.total_gips(&platform);
        let g_b = b.total_gips(&platform);
        rows.push(Fig9Row {
            mix,
            tdpmap_gips: g_a,
            dsrem_gips: g_b,
            tdpmap_active_percent: 100.0 * a.active_core_count() as f64 / n,
            dsrem_active_percent: 100.0 * b.active_core_count() as f64 / n,
            speedup: g_b / g_a,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Figure 10
// ---------------------------------------------------------------------------

/// One bar of Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Bar {
    /// Technology node.
    pub node: TechnologyNode,
    /// Dark-silicon fraction the TSP budget was computed for.
    pub dark_fraction: f64,
    /// Total system performance.
    pub total_gips: Gips,
    /// Per-core TSP budget.
    pub tsp_per_core: Watts,
}

/// Regenerates Figure 10: TSP-budgeted performance at 20 % / 30 % /
/// 40 % dark silicon for 16 / 11 / 8 nm, plus neighbouring fractions
/// to show the dark-vs-performance trade-off.
///
/// # Errors
///
/// Propagates estimation failures.
pub fn fig10() -> Result<Vec<Fig10Bar>, DarksilError> {
    let cases = [
        (TechnologyNode::Nm16, [0.10, 0.20, 0.30]),
        (TechnologyNode::Nm11, [0.20, 0.30, 0.40]),
        (TechnologyNode::Nm8, [0.30, 0.40, 0.50]),
    ];
    // Build the estimators serially (cheap, fallible setup), then fan
    // every (node, fraction) TSP evaluation out as one job.
    let mut estimators = Vec::new();
    let mut jobs = Vec::new();
    for (node, fractions) in cases {
        estimators.push((node, DarkSiliconEstimator::for_node(node)?));
        let est_index = estimators.len() - 1;
        for dark in fractions {
            jobs.push((est_index, dark));
        }
    }
    Engine::auto().try_par_map(jobs, |(est_index, dark)| {
        let (node, est) = &estimators[est_index];
        let perf = tsp_eval::tsp_performance(est, dark)?;
        Ok(Fig10Bar {
            node: *node,
            dark_fraction: dark,
            total_gips: perf.total_gips,
            tsp_per_core: perf.tsp_per_core,
        })
    })
}

// ---------------------------------------------------------------------------
// Figures 11–14
// ---------------------------------------------------------------------------

/// Decimated transient series of Figure 11.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig11 {
    /// `(time, GIPS, peak °C)` for boosting, decimated for plotting.
    pub boosting: Vec<(f64, f64, f64)>,
    /// `(time, GIPS, peak °C)` for the constant policy.
    pub constant: Vec<(f64, f64, f64)>,
    /// Settled average performance, boosting.
    pub boosting_avg_gips: Gips,
    /// Settled average performance, constant.
    pub constant_avg_gips: Gips,
    /// Oscillation band of the boosting peak temperature (settled).
    pub boosting_temp_band: (Celsius, Celsius),
    /// Settled constant-policy peak temperature.
    pub constant_peak_temp: Celsius,
}

/// Regenerates Figure 11: 12 × (x264, 8 threads) on the 16 nm chip,
/// boosting vs constant frequency.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig11(fidelity: Fidelity) -> Result<Fig11, Box<dyn std::error::Error>> {
    let platform =
        Platform::for_node(TechnologyNode::Nm16)?.with_boost_levels(Hertz::from_ghz(4.4))?;
    let workload = Workload::uniform(ParsecApp::X264, 12, 8)?;
    let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level())?;
    let config = PolicyConfig {
        period: fidelity.period(),
        ..PolicyConfig::default()
    };
    let horizon = fidelity.horizon();
    // The two policies simulate the same mapping independently — run
    // them as two engine jobs and destructure in submission order.
    let traces = Engine::auto().try_par_map(vec![true, false], |boosting| {
        Ok(if boosting {
            run_boosting(&platform, &mapping, horizon, &config)?
        } else {
            run_constant(&platform, &mapping, horizon, &config)?
        })
    })?;
    let [boost, constant]: [PolicyTrace; 2] = traces
        .try_into()
        .map_err(|_| DarksilError::internal("fig11 expected exactly two policy traces"))?;

    let decimate = |trace: &darksil_boost::PolicyTrace| {
        let stride = (trace.len() / 200).max(1);
        trace
            .samples()
            .iter()
            .step_by(stride)
            .map(|s| (s.time.value(), s.gips.value(), s.peak_temperature.value()))
            .collect::<Vec<_>>()
    };

    Ok(Fig11 {
        boosting: decimate(&boost),
        constant: decimate(&constant),
        boosting_avg_gips: boost.average_gips_tail(0.5),
        constant_avg_gips: constant.average_gips_tail(0.5),
        boosting_temp_band: (
            boost.min_peak_temperature_tail(0.3),
            boost.peak_temperature(),
        ),
        constant_peak_temp: constant.peak_temperature(),
    })
}

/// Regenerates Figure 12: performance and power vs active cores for
/// x264 at 16 nm, boosting vs constant, one instance per 8 cores.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig12(fidelity: Fidelity) -> Result<Vec<SweepPoint>, Box<dyn std::error::Error>> {
    let platform =
        Platform::for_node(TechnologyNode::Nm16)?.with_boost_levels(Hertz::from_ghz(4.4))?;
    let config = PolicyConfig {
        period: fidelity.sweep_period(),
        ..PolicyConfig::default()
    };
    Ok(sweep_active_cores(
        &platform,
        ParsecApp::X264,
        12,
        fidelity.sweep_horizon(),
        &config,
    )?)
}

/// One (application, instance-count) group of Figure 13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig13Row {
    /// The application.
    pub app: ParsecApp,
    /// Number of 8-thread instances (12 or 24).
    pub instances: usize,
    /// Settled boosting performance.
    pub boosting_gips: Gips,
    /// Settled constant performance.
    pub constant_gips: Gips,
    /// Peak power under boosting.
    pub boosting_peak_power: Watts,
    /// Peak power under the constant policy.
    pub constant_peak_power: Watts,
}

/// Regenerates Figure 13: all seven applications at 11 nm with 12 and
/// 24 instances, boosting vs constant.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig13(fidelity: Fidelity) -> Result<Vec<Fig13Row>, Box<dyn std::error::Error>> {
    let platform =
        Platform::for_node(TechnologyNode::Nm11)?.with_boost_levels(Hertz::from_ghz(4.8))?;
    let config = PolicyConfig {
        period: fidelity.sweep_period(),
        ..PolicyConfig::default()
    };
    let horizon = fidelity.sweep_horizon();
    let mut pairs = Vec::new();
    for app in ParsecApp::ALL {
        for instances in [12_usize, 24] {
            pairs.push((app, instances));
        }
    }
    // Oversized groups are skipped (`None`), not errors, so the row
    // list matches the serial loop after flattening.
    let rows = Engine::auto().try_par_map(pairs, |(app, instances)| {
        let workload = Workload::uniform(app, instances, 8)?;
        if workload.total_threads() > platform.core_count() {
            return Ok(None);
        }
        let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level())?;
        let (boost, constant) = run_boosting_and_constant(&platform, &mapping, horizon, &config)?;
        Ok(Some(Fig13Row {
            app,
            instances,
            boosting_gips: boost.average_gips_tail(0.5),
            constant_gips: constant.average_gips_tail(0.5),
            boosting_peak_power: boost.peak_power(),
            constant_peak_power: constant.peak_power(),
        }))
    })?;
    Ok(rows.into_iter().flatten().collect())
}

/// Regenerates Figure 14: STC (1 and 2 threads) vs NTC (8 threads at
/// 1 GHz) iso-performance energy for all seven applications at 11 nm,
/// 24 instances, 500 giga-instructions per instance.
///
/// # Errors
///
/// Propagates power-model failures.
pub fn fig14() -> Result<Vec<IsoPerfComparison>, Box<dyn std::error::Error>> {
    let platform = Platform::for_node(TechnologyNode::Nm11)?;
    let rows = Engine::auto().try_par_map(ParsecApp::ALL.to_vec(), |app| {
        Ok(iso_performance_comparison(&platform, app, 24, 500.0)?)
    })?;
    Ok(rows)
}

/// Total energy helper for Figure 14 summaries.
#[must_use]
pub fn fig14_total_energy(rows: &[IsoPerfComparison]) -> (Joules, Joules, Joules) {
    let ntc: Joules = rows.iter().map(|r| r.ntc.energy).sum();
    let stc1: Joules = rows.iter().map(|r| r.stc_one_thread.energy).sum();
    let stc2: Joules = rows.iter().map(|r| r.stc_two_threads.energy).sum();
    (ntc, stc1, stc2)
}

darksil_json::impl_json!(struct Table1Row { node_nm, vdd, frequency, capacitance, area, core_area_mm2 });
darksil_json::impl_json!(struct Fig2Point { voltage, frequency, region });
darksil_json::impl_json!(struct Fig3Point { frequency, measured, fitted });
darksil_json::impl_json!(struct Fig3 { points, rmse });
darksil_json::impl_json!(struct Fig4Series { app, points });
darksil_json::impl_json!(struct Fig5Cell { app, frequency, active_percent, dark_percent });
darksil_json::impl_json!(struct Fig5Panel { tdp, cells, peak_temperatures, any_violation });
darksil_json::impl_json!(struct Fig6Row { app, dark_tdp_percent, dark_thermal_percent });
darksil_json::impl_json!(struct Fig6Panel { node, frequency, rows, average_reduction_percent });
darksil_json::impl_json!(struct Fig7Row { app, nominal_gips, tuned_gips, nominal_active_percent, tuned_active_percent, chosen_threads, chosen_frequency });
darksil_json::impl_json!(struct Fig7Panel { node, rows, max_gain });
darksil_json::impl_json!(struct Fig8Pattern { name, active_cores, total_power, peak_temperature, violates, thermal_art });
darksil_json::impl_json!(struct Fig9Row { mix, tdpmap_gips, dsrem_gips, tdpmap_active_percent, dsrem_active_percent, speedup });
darksil_json::impl_json!(struct Fig10Bar { node, dark_fraction, total_gips, tsp_per_core });
darksil_json::impl_json!(struct Fig11 { boosting, constant, boosting_avg_gips, constant_avg_gips, boosting_temp_band, constant_peak_temp });
darksil_json::impl_json!(struct Fig13Row { app, instances, boosting_gips, constant_gips, boosting_peak_power, constant_peak_power });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let rows = table1();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].node_nm, 22);
        assert_eq!(rows[1].frequency, 1.35);
        assert_eq!(rows[3].area, 0.15);
        assert!((rows[1].core_area_mm2 - 5.1).abs() < 1e-9);
    }

    #[test]
    fn fig2_regions_progress() {
        let pts = fig2(40);
        assert_eq!(pts.len(), 40);
        // Low voltages are NTC, high voltages Boost.
        assert_eq!(pts[0].region, OperatingRegion::NearThreshold);
        assert_eq!(
            pts.last().expect("test value").region,
            OperatingRegion::Boost
        );
        // Monotone frequency.
        for w in pts.windows(2) {
            assert!(w[1].frequency >= w[0].frequency);
        }
    }

    #[test]
    fn fig3_fit_is_tight() {
        let f = fig3().expect("test value");
        assert_eq!(f.points.len(), 15);
        assert!(f.rmse.value() < 0.5, "rmse {}", f.rmse);
        // Fitted curve tracks measurements within noise everywhere —
        // relative in the cubic region, absolute at the watt-scale low
        // end where ±3 % noise dominates.
        for p in &f.points {
            let abs = (p.fitted.value() - p.measured.value()).abs();
            let rel = abs / p.measured.value();
            assert!(
                rel < 0.08 || abs < 0.3,
                "at {}: rel {rel}, abs {abs}",
                p.frequency
            );
        }
    }

    #[test]
    fn fig4_speedups_match_figure() {
        let series = fig4();
        assert_eq!(series.len(), 3);
        let x264 = &series[0];
        let last = x264.points.last().expect("test value");
        assert_eq!(last.0, 64);
        assert!((last.1 - 3.0).abs() < 0.3);
        // Canneal is the flattest curve.
        let canneal = &series[2];
        assert!(canneal.points.last().expect("test value").1 < 2.0);
    }

    #[test]
    fn fig10_rises_across_nodes_at_paper_fractions() {
        let bars = fig10().expect("test value");
        let pick = |node, dark: f64| {
            bars.iter()
                .find(|b| b.node == node && (b.dark_fraction - dark).abs() < 1e-9)
                .expect("test value")
                .total_gips
                .value()
        };
        let g16 = pick(TechnologyNode::Nm16, 0.20);
        let g11 = pick(TechnologyNode::Nm11, 0.30);
        let g8 = pick(TechnologyNode::Nm8, 0.40);
        assert!(g11 > g16);
        assert!(g8 > g11);
    }

    #[test]
    fn fig14_observation4() {
        let rows = fig14().expect("test value");
        assert_eq!(rows.len(), 7);
        let canneal = rows
            .iter()
            .find(|r| r.app == ParsecApp::Canneal)
            .expect("test value");
        assert!(!canneal.ntc_wins());
        let winners = rows.iter().filter(|r| r.ntc_wins()).count();
        assert!(winners >= 4, "only {winners} NTC wins");
    }
}
