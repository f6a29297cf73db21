//! Declarative experiment scenarios.
//!
//! A [`Scenario`] is a JSON-serialisable description of one experiment:
//! the platform (node, optional core count / DTM threshold / variation
//! seed), a workload (application instances), and what to do with it —
//! budget-constrained mapping, a thermal-constraint evaluation, one of
//! the mapping policies, or a transient boosting-vs-constant run. The
//! `darksil run <file.json>` subcommand executes scenarios; library
//! users call [`run_scenario`] directly.
//!
//! ```json
//! {
//!   "name": "x264 under TDP",
//!   "node": 16,
//!   "workload": [{ "app": "x264", "instances": 12, "threads": 8 }],
//!   "experiment": { "type": "policy", "policy": "dsrem", "tdp_watts": 185.0 }
//! }
//! ```
//!
//! This crate hosts the types, the strict validator and the executor so
//! downstream tooling (the `darksil` CLI, the fuzzing arena) can share
//! them without depending on the root crate; `darksil::scenario`
//! re-exports everything here.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use darksil_boost::{run_boosting_and_constant, PolicyConfig, MAX_RESERVED_SAMPLES};
use darksil_json::{Json, JsonError, ObjReader, ToJson};
use darksil_mapping::{place_contiguous, DsRem, Platform, TdpMap};
use darksil_power::{TechnologyNode, VariationModel};
use darksil_units::{Celsius, Hertz, Seconds, Watts};
use darksil_workload::{AppInstance, ParsecApp, Workload, MAX_THREADS_PER_INSTANCE};

/// One workload line: `instances` copies of `app`, each with `threads`
/// threads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Application name (`x264`, `canneal`, …).
    pub app: String,
    /// Number of instances.
    pub instances: usize,
    /// Threads per instance (1–8).
    pub threads: usize,
}

darksil_json::impl_json!(struct WorkloadSpec { app, instances, threads });

/// What to do with the platform and workload.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentSpec {
    /// Map instances in order until the budget is exhausted (TDPmap).
    PowerBudget {
        /// The TDP in watts.
        tdp_watts: f64,
    },
    /// Map the whole workload contiguously and report the thermal
    /// outcome.
    Thermal {
        /// Frequency in GHz; the node's nominal maximum if omitted.
        frequency_ghz: Option<f64>,
    },
    /// Run a mapping policy.
    Policy {
        /// `"tdpmap"` or `"dsrem"`.
        policy: String,
        /// The TDP in watts.
        tdp_watts: f64,
    },
    /// Transient boosting vs constant frequency.
    Boost {
        /// Simulated seconds.
        duration_s: f64,
        /// Control period in seconds (defaults to 0.01).
        period_s: f64,
    },
}

impl ToJson for ExperimentSpec {
    fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = Vec::new();
        match self {
            Self::PowerBudget { tdp_watts } => {
                fields.push(("type".into(), Json::Str("power_budget".into())));
                fields.push(("tdp_watts".into(), tdp_watts.to_json()));
            }
            Self::Thermal { frequency_ghz } => {
                fields.push(("type".into(), Json::Str("thermal".into())));
                if let Some(f) = frequency_ghz {
                    fields.push(("frequency_ghz".into(), f.to_json()));
                }
            }
            Self::Policy { policy, tdp_watts } => {
                fields.push(("type".into(), Json::Str("policy".into())));
                fields.push(("policy".into(), policy.to_json()));
                fields.push(("tdp_watts".into(), tdp_watts.to_json()));
            }
            Self::Boost {
                duration_s,
                period_s,
            } => {
                fields.push(("type".into(), Json::Str("boost".into())));
                fields.push(("duration_s".into(), duration_s.to_json()));
                fields.push(("period_s".into(), period_s.to_json()));
            }
        }
        Json::Obj(fields)
    }
}

impl darksil_json::FromJson for ExperimentSpec {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let mut r = ObjReader::new(v, "experiment")?;
        let tag: String = r.req("type")?;
        let spec = match tag.as_str() {
            "power_budget" => Self::PowerBudget {
                tdp_watts: r.req("tdp_watts")?,
            },
            "thermal" => Self::Thermal {
                frequency_ghz: r.opt("frequency_ghz")?,
            },
            "policy" => Self::Policy {
                policy: r.req("policy")?,
                tdp_watts: r.req("tdp_watts")?,
            },
            "boost" => Self::Boost {
                duration_s: r.req("duration_s")?,
                period_s: r.opt_or("period_s", 0.01)?,
            },
            other => {
                return Err(JsonError::msg(format!(
                    "unknown experiment type `{other}` (expected power_budget, thermal, policy or boost)"
                ))
                .in_field("type"))
            }
        };
        r.finish()?;
        Ok(spec)
    }
}

/// A complete scenario file.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Human-readable name, echoed into the report.
    pub name: String,
    /// Technology node in nm (22, 16, 11 or 8).
    pub node: u32,
    /// Core count override (the node's evaluated count if omitted).
    pub cores: Option<usize>,
    /// DTM threshold override in °C (80 if omitted).
    pub t_dtm_celsius: Option<f64>,
    /// Process-variation seed; an ideal chip if omitted.
    pub variation_seed: Option<u64>,
    /// Log-leakage spread σ (power-scale variability); the typical 0.25
    /// if omitted while a variation is in effect.
    pub leakage_sigma: Option<f64>,
    /// Frequency spread σ (perf-scale variability); the typical 0.03 if
    /// omitted while a variation is in effect.
    pub frequency_sigma: Option<f64>,
    /// The workload.
    pub workload: Vec<WorkloadSpec>,
    /// The experiment to run.
    pub experiment: ExperimentSpec,
}

darksil_json::impl_json!(struct Scenario { name, node, workload, experiment } opt {
    cores,
    t_dtm_celsius,
    variation_seed,
    leakage_sigma,
    frequency_sigma,
});

/// The outcome of a scenario run — JSON-serialisable, one per scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Echo of the scenario name.
    pub name: String,
    /// Active cores after mapping (or during the transient).
    pub active_cores: usize,
    /// Dark-silicon fraction.
    pub dark_fraction: f64,
    /// Total throughput in GIPS.
    pub total_gips: f64,
    /// Total power in watts (steady state / peak for transients).
    pub total_power_w: f64,
    /// Peak die temperature in °C.
    pub peak_temperature_c: f64,
    /// Whether the DTM threshold was exceeded.
    pub thermal_violation: bool,
    /// Extra per-experiment detail lines.
    pub notes: Vec<String>,
}

darksil_json::impl_json!(struct ScenarioReport {
    name,
    active_cores,
    dark_fraction,
    total_gips,
    total_power_w,
    peak_temperature_c,
    thermal_violation,
    notes,
});

/// Errors from scenario parsing/execution.
#[derive(Debug)]
pub enum ScenarioError {
    /// The JSON was syntactically or structurally invalid; carries the
    /// field path (and file, when parsed from one).
    Parse(JsonError),
    /// A field value was out of range.
    Invalid(String),
    /// An inner toolkit error.
    Run(Box<dyn std::error::Error>),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Parse(e) => write!(f, "scenario parse error: {e}"),
            Self::Invalid(msg) => write!(f, "invalid scenario: {msg}"),
            Self::Run(e) => write!(f, "scenario failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        Self::Parse(e)
    }
}

fn run_err<E: std::error::Error + 'static>(e: E) -> ScenarioError {
    ScenarioError::Run(Box::new(e))
}

/// Parses and validates a scenario from JSON text.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] for malformed JSON and for field
/// values that fail [validation](validate_scenario) — the error names
/// the offending field.
pub fn parse_scenario(json: &str) -> Result<Scenario, ScenarioError> {
    let scenario: Scenario = darksil_json::from_str(json)?;
    validate_scenario(&scenario)?;
    Ok(scenario)
}

/// Reads, parses and validates a scenario file; errors name both the
/// offending field and the file.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] for unreadable files, malformed
/// JSON, and validation failures.
pub fn parse_scenario_file(path: &std::path::Path) -> Result<Scenario, ScenarioError> {
    let file = path.display().to_string();
    let text = std::fs::read_to_string(path)
        .map_err(|e| JsonError::msg(format!("cannot read file: {e}")).in_file(&file))?;
    match parse_scenario(&text) {
        Ok(s) => Ok(s),
        Err(ScenarioError::Parse(e)) => Err(ScenarioError::Parse(e.in_file(&file))),
        Err(other) => Err(other),
    }
}

/// Frequencies must sit on the standard 200 MHz DVFS grid; anything
/// else is an off-ladder request the hardware cannot honour.
fn on_ladder_grid(ghz: f64) -> bool {
    let steps = ghz / 0.2;
    ghz > 0.0 && (steps - steps.round()).abs() < 1e-6
}

fn field_err(message: String, field: &str) -> JsonError {
    JsonError::msg(message).in_field(field)
}

/// Strict semantic validation of a parsed scenario.
///
/// Rejects NaN/Inf/non-positive power budgets, zero-core floorplans,
/// off-ladder frequencies, empty or out-of-range workload lines and
/// unknown node/application names. Every error names the offending
/// field.
///
/// # Errors
///
/// Returns [`ScenarioError::Parse`] with the field path on the first
/// violation.
pub fn validate_scenario(s: &Scenario) -> Result<(), ScenarioError> {
    if s.name.trim().is_empty() {
        return Err(field_err("scenario name must not be empty".into(), "name").into());
    }
    if !TechnologyNode::ALL.iter().any(|n| n.nanometers() == s.node) {
        return Err(field_err(
            format!(
                "unknown technology node {} nm (expected 22, 16, 11 or 8)",
                s.node
            ),
            "node",
        )
        .into());
    }
    if let Some(cores) = s.cores {
        if cores == 0 {
            return Err(field_err("core count must be at least 1".into(), "cores").into());
        }
    }
    if let Some(t) = s.t_dtm_celsius {
        if !t.is_finite() || t <= 0.0 {
            return Err(field_err(
                format!("t_dtm_celsius must be positive and finite, got {t}"),
                "t_dtm_celsius",
            )
            .into());
        }
    }
    if let Some(sigma) = s.leakage_sigma {
        if !sigma.is_finite() || !(0.0..=2.0).contains(&sigma) {
            return Err(field_err(
                format!("leakage_sigma must be finite in 0..=2, got {sigma}"),
                "leakage_sigma",
            )
            .into());
        }
    }
    if let Some(sigma) = s.frequency_sigma {
        if !sigma.is_finite() || !(0.0..=0.5).contains(&sigma) {
            return Err(field_err(
                format!("frequency_sigma must be finite in 0..=0.5, got {sigma}"),
                "frequency_sigma",
            )
            .into());
        }
    }
    if s.workload.is_empty() {
        return Err(field_err("workload must not be empty".into(), "workload").into());
    }
    for (i, line) in s.workload.iter().enumerate() {
        let line_err = |message: String, field: &str| {
            ScenarioError::Parse(
                JsonError::msg(message)
                    .in_field(field)
                    .at_index(i)
                    .in_field("workload"),
            )
        };
        if !ParsecApp::ALL.iter().any(|a| a.name() == line.app) {
            return Err(line_err(
                format!("unknown application `{}`", line.app),
                "app",
            ));
        }
        if line.instances == 0 {
            return Err(line_err("instances must be at least 1".into(), "instances"));
        }
        if line.threads == 0 || line.threads > MAX_THREADS_PER_INSTANCE {
            return Err(line_err(
                format!(
                    "threads must be 1..={MAX_THREADS_PER_INSTANCE}, got {}",
                    line.threads
                ),
                "threads",
            ));
        }
    }
    let experiment_err = |message: String, field: &str| {
        ScenarioError::Parse(
            JsonError::msg(message)
                .in_field(field)
                .in_field("experiment"),
        )
    };
    let check_tdp = |tdp: f64| {
        if !tdp.is_finite() || tdp <= 0.0 {
            Err(experiment_err(
                format!("tdp_watts must be positive and finite, got {tdp}"),
                "tdp_watts",
            ))
        } else {
            Ok(())
        }
    };
    match &s.experiment {
        ExperimentSpec::PowerBudget { tdp_watts } => check_tdp(*tdp_watts)?,
        ExperimentSpec::Thermal { frequency_ghz } => {
            if let Some(ghz) = frequency_ghz {
                if !ghz.is_finite() || !on_ladder_grid(*ghz) {
                    return Err(experiment_err(
                        format!("frequency {ghz} GHz is not on the 200 MHz DVFS ladder"),
                        "frequency_ghz",
                    ));
                }
            }
        }
        ExperimentSpec::Policy { policy, tdp_watts } => {
            check_tdp(*tdp_watts)?;
            if policy != "tdpmap" && policy != "dsrem" {
                return Err(experiment_err(
                    format!("unknown policy `{policy}` (use tdpmap|dsrem)"),
                    "policy",
                ));
            }
        }
        ExperimentSpec::Boost {
            duration_s,
            period_s,
        } => {
            if !duration_s.is_finite() || *duration_s <= 0.0 {
                return Err(experiment_err(
                    format!("duration_s must be positive and finite, got {duration_s}"),
                    "duration_s",
                ));
            }
            if !period_s.is_finite() || *period_s <= 0.0 || period_s > duration_s {
                return Err(experiment_err(
                    format!(
                        "period_s must be positive, finite and at most duration_s, got {period_s}"
                    ),
                    "period_s",
                ));
            }
            // Counted the way the policy loop counts its steps.
            let periods = (duration_s / period_s).round();
            if periods > MAX_RESERVED_SAMPLES as f64 {
                return Err(experiment_err(
                    format!(
                        "duration_s {duration_s} at period_s {period_s} is {periods} control \
                         periods; a run may take at most {}",
                        MAX_RESERVED_SAMPLES
                    ),
                    "duration_s",
                ));
            }
        }
    }
    Ok(())
}

fn node_of(nm: u32) -> Result<TechnologyNode, ScenarioError> {
    TechnologyNode::ALL
        .iter()
        .find(|n| n.nanometers() == nm)
        .copied()
        .ok_or_else(|| ScenarioError::Invalid(format!("unknown node {nm} nm")))
}

fn app_of(name: &str) -> Result<ParsecApp, ScenarioError> {
    ParsecApp::ALL
        .iter()
        .find(|a| a.name() == name)
        .copied()
        .ok_or_else(|| ScenarioError::Invalid(format!("unknown application '{name}'")))
}

/// Builds the [`Platform`] a scenario describes (node, optional core
/// count / DTM threshold / variation overrides). Exposed so tooling
/// that probes the platform directly — the fuzzing arena's TSP and DTM
/// probes — constructs exactly the chip [`run_scenario`] would.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for unknown nodes and
/// [`ScenarioError::Run`] for platform-construction failures.
pub fn build_platform(s: &Scenario) -> Result<Platform, ScenarioError> {
    let node = node_of(s.node)?;
    let mut platform = match s.cores {
        Some(cores) => Platform::with_core_count(node, cores).map_err(run_err)?,
        None => Platform::for_node(node).map_err(run_err)?,
    };
    if let Some(t) = s.t_dtm_celsius {
        platform = platform.with_t_dtm(Celsius::new(t));
    }
    if s.variation_seed.is_some() || s.leakage_sigma.is_some() || s.frequency_sigma.is_some() {
        let seed = s.variation_seed.unwrap_or(0);
        let model = match (s.leakage_sigma, s.frequency_sigma) {
            (None, None) => VariationModel::typical(seed),
            (leak, freq) => VariationModel::new(leak.unwrap_or(0.25), freq.unwrap_or(0.03), seed)
                .map_err(run_err)?,
        };
        platform = platform.with_variation(model);
    }
    Ok(platform)
}

/// Builds the [`Workload`] a scenario describes — one [`AppInstance`]
/// per requested instance. Exposed for the same probing tools as
/// [`build_platform`].
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for unknown applications or an
/// empty expansion, and [`ScenarioError::Run`] for instance-construction
/// failures.
pub fn build_workload(s: &Scenario) -> Result<Workload, ScenarioError> {
    let mut w = Workload::new();
    for line in &s.workload {
        let app = app_of(&line.app)?;
        for _ in 0..line.instances {
            w.push(AppInstance::new(app, line.threads).map_err(run_err)?);
        }
    }
    if w.is_empty() {
        return Err(ScenarioError::Invalid("workload is empty".into()));
    }
    Ok(w)
}

fn report_mapping(
    name: &str,
    platform: &Platform,
    mapping: &darksil_mapping::Mapping,
    notes: Vec<String>,
) -> Result<ScenarioReport, ScenarioError> {
    let (peak, power) = if mapping.entries().is_empty() {
        (platform.thermal().ambient(), Watts::zero())
    } else {
        let map = mapping.steady_temperatures(platform).map_err(run_err)?;
        let temps: Vec<Celsius> = map.die_temperatures().collect();
        let power: Watts = mapping.power_map_at(platform, &temps).iter().sum();
        (map.peak(), power)
    };
    Ok(ScenarioReport {
        name: name.to_string(),
        active_cores: mapping.active_core_count(),
        dark_fraction: mapping.dark_fraction(),
        total_gips: mapping.total_gips(platform).value(),
        total_power_w: power.value(),
        peak_temperature_c: peak.value(),
        thermal_violation: peak > platform.t_dtm(),
        notes,
    })
}

/// Executes a scenario and returns its report.
///
/// # Errors
///
/// Returns [`ScenarioError::Invalid`] for out-of-range fields and
/// [`ScenarioError::Run`] for toolkit failures (workload too large,
/// solver failure, …).
pub fn run_scenario(scenario: &Scenario) -> Result<ScenarioReport, ScenarioError> {
    let platform = build_platform(scenario)?;
    let workload = build_workload(scenario)?;

    match &scenario.experiment {
        ExperimentSpec::PowerBudget { tdp_watts } => {
            if !tdp_watts.is_finite() || *tdp_watts <= 0.0 {
                return Err(ScenarioError::Invalid("tdp_watts must be positive".into()));
            }
            let mapping = TdpMap::new(Watts::new(*tdp_watts))
                .map(&platform, &workload)
                .map_err(run_err)?;
            report_mapping(
                &scenario.name,
                &platform,
                &mapping,
                vec![format!("TDPmap admission under {tdp_watts} W")],
            )
        }
        ExperimentSpec::Thermal { frequency_ghz } => {
            let f = frequency_ghz.map_or(platform.node().nominal_max_frequency(), Hertz::from_ghz);
            let level = platform
                .dvfs()
                .floor(f)
                .ok_or_else(|| ScenarioError::Invalid(format!("frequency {f} below ladder")))?;
            let mapping =
                place_contiguous(platform.floorplan(), &workload, level).map_err(run_err)?;
            report_mapping(
                &scenario.name,
                &platform,
                &mapping,
                vec![format!(
                    "whole workload at {:.1} GHz",
                    level.frequency.as_ghz()
                )],
            )
        }
        ExperimentSpec::Policy { policy, tdp_watts } => {
            if !tdp_watts.is_finite() || *tdp_watts <= 0.0 {
                return Err(ScenarioError::Invalid("tdp_watts must be positive".into()));
            }
            let tdp = Watts::new(*tdp_watts);
            let mapping = match policy.as_str() {
                "tdpmap" => TdpMap::new(tdp)
                    .map(&platform, &workload)
                    .map_err(run_err)?,
                "dsrem" => DsRem::new(tdp)
                    .map_err(run_err)?
                    .map(&platform, &workload)
                    .map_err(run_err)?,
                other => {
                    return Err(ScenarioError::Invalid(format!(
                        "unknown policy '{other}' (use tdpmap|dsrem)"
                    )))
                }
            };
            report_mapping(
                &scenario.name,
                &platform,
                &mapping,
                vec![format!("{policy} under {tdp_watts} W")],
            )
        }
        ExperimentSpec::Boost {
            duration_s,
            period_s,
        } => {
            let platform = platform
                .with_boost_levels(node_of(scenario.node)?.nominal_max_frequency() * 1.25)
                .map_err(run_err)?;
            let mapping = darksil_mapping::place_patterned(
                platform.floorplan(),
                &workload,
                platform.max_level(),
            )
            .map_err(run_err)?;
            let config = PolicyConfig {
                period: Seconds::new(*period_s),
                ..PolicyConfig::default()
            };
            let horizon = Seconds::new(*duration_s);
            let (boost, constant) =
                run_boosting_and_constant(&platform, &mapping, horizon, &config)
                    .map_err(run_err)?;
            Ok(ScenarioReport {
                name: scenario.name.clone(),
                active_cores: mapping.active_core_count(),
                dark_fraction: mapping.dark_fraction(),
                total_gips: boost.average_gips_tail(0.5).value(),
                total_power_w: boost.peak_power().value(),
                peak_temperature_c: boost.peak_temperature().value(),
                thermal_violation: boost.peak_temperature() > platform.t_dtm() + 1.0,
                notes: vec![
                    format!(
                        "boosting avg {:.1} GIPS / peak {:.0} W",
                        boost.average_gips_tail(0.5).value(),
                        boost.peak_power().value()
                    ),
                    format!(
                        "constant avg {:.1} GIPS / peak {:.0} W",
                        constant.average_gips_tail(0.5).value(),
                        constant.peak_power().value()
                    ),
                ],
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy_scenario() -> Scenario {
        Scenario {
            name: "mix under DsRem".into(),
            node: 16,
            cores: Some(36),
            t_dtm_celsius: None,
            variation_seed: None,
            leakage_sigma: None,
            frequency_sigma: None,
            workload: vec![
                WorkloadSpec {
                    app: "x264".into(),
                    instances: 2,
                    threads: 8,
                },
                WorkloadSpec {
                    app: "canneal".into(),
                    instances: 1,
                    threads: 4,
                },
            ],
            experiment: ExperimentSpec::Policy {
                policy: "dsrem".into(),
                tdp_watts: 60.0,
            },
        }
    }

    #[test]
    fn json_round_trip() {
        let s = policy_scenario();
        let json = darksil_json::to_string_pretty(&s);
        let back = parse_scenario(&json).expect("round trip");
        assert_eq!(s, back);
    }

    #[test]
    fn validation_names_field_and_file() {
        let mut s = policy_scenario();
        s.experiment = ExperimentSpec::Policy {
            policy: "dsrem".into(),
            tdp_watts: f64::NAN,
        };
        // NaN cannot round-trip through JSON (it serialises as null and
        // strict parsing rejects it), so validate the in-memory value.
        let err = validate_scenario(&s).expect_err("NaN TDP rejected");
        assert!(err.to_string().contains("experiment.tdp_watts"), "{err}");

        let mut s = policy_scenario();
        s.cores = Some(0);
        let err = validate_scenario(&s).expect_err("zero cores rejected");
        assert!(err.to_string().contains("cores"), "{err}");

        let mut s = policy_scenario();
        s.experiment = ExperimentSpec::Thermal {
            frequency_ghz: Some(3.33),
        };
        let err = validate_scenario(&s).expect_err("off-ladder rejected");
        assert!(err.to_string().contains("frequency_ghz"), "{err}");

        let mut s = policy_scenario();
        s.workload[1].threads = 99;
        let err = validate_scenario(&s).expect_err("thread bound");
        assert!(err.to_string().contains("workload[1].threads"), "{err}");

        // File-level parse errors carry the file name.
        let err = parse_scenario_file(std::path::Path::new("/nonexistent/s.json"))
            .expect_err("missing file");
        assert!(err.to_string().contains("/nonexistent/s.json"), "{err}");
    }

    #[test]
    fn parses_external_style_json() {
        let json = r#"{
            "name": "quick look",
            "node": 16,
            "workload": [{ "app": "swaptions", "instances": 3, "threads": 8 }],
            "experiment": { "type": "power_budget", "tdp_watts": 100.0 }
        }"#;
        let s = parse_scenario(json).unwrap();
        assert_eq!(s.cores, None);
        assert!(matches!(
            s.experiment,
            ExperimentSpec::PowerBudget { tdp_watts } if tdp_watts == 100.0
        ));
    }

    #[test]
    fn runs_policy_scenario() {
        let report = run_scenario(&policy_scenario()).unwrap();
        assert_eq!(report.name, "mix under DsRem");
        assert!(report.active_cores > 0);
        assert!(report.total_gips > 0.0);
        assert!(!report.thermal_violation);
        assert!(report.total_power_w <= 61.0);
    }

    #[test]
    fn runs_thermal_scenario() {
        let mut s = policy_scenario();
        s.experiment = ExperimentSpec::Thermal {
            frequency_ghz: Some(2.8),
        };
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.active_cores, 20);
        assert!(report.peak_temperature_c > 45.0);
    }

    #[test]
    fn runs_boost_scenario() {
        let mut s = policy_scenario();
        s.experiment = ExperimentSpec::Boost {
            duration_s: 5.0,
            period_s: 0.05,
        };
        let report = run_scenario(&s).unwrap();
        assert_eq!(report.notes.len(), 2);
        assert!(report.total_gips > 0.0);
    }

    #[test]
    fn invalid_scenarios_are_reported() {
        let mut s = policy_scenario();
        s.node = 14;
        assert!(matches!(run_scenario(&s), Err(ScenarioError::Invalid(_))));

        let mut s = policy_scenario();
        s.workload.clear();
        assert!(matches!(run_scenario(&s), Err(ScenarioError::Invalid(_))));

        let mut s = policy_scenario();
        s.workload[0].app = "doom".into();
        assert!(run_scenario(&s).is_err());

        let mut s = policy_scenario();
        s.experiment = ExperimentSpec::Policy {
            policy: "magic".into(),
            tdp_watts: 60.0,
        };
        assert!(run_scenario(&s).is_err());

        assert!(parse_scenario("{not json").is_err());
    }

    #[test]
    fn variation_and_threshold_overrides_apply() {
        let mut s = policy_scenario();
        s.t_dtm_celsius = Some(70.0);
        s.variation_seed = Some(9);
        let report = run_scenario(&s).unwrap();
        assert!(report.peak_temperature_c <= 70.2);
    }

    #[test]
    fn variation_sigmas_validate_and_change_the_outcome() {
        let mut s = policy_scenario();
        s.leakage_sigma = Some(3.0);
        let err = validate_scenario(&s).expect_err("σ bound");
        assert!(err.to_string().contains("leakage_sigma"), "{err}");

        let mut s = policy_scenario();
        s.frequency_sigma = Some(f64::NAN);
        let err = validate_scenario(&s).expect_err("NaN σ");
        assert!(err.to_string().contains("frequency_sigma"), "{err}");

        // Sigmas take effect even without an explicit seed, and a wider
        // leakage spread yields a different report than the typical one.
        let mut typical = policy_scenario();
        typical.variation_seed = Some(5);
        let mut wide = typical.clone();
        wide.leakage_sigma = Some(0.8);
        validate_scenario(&wide).expect("valid σ");
        let a = run_scenario(&typical).unwrap();
        let b = run_scenario(&wide).unwrap();
        assert_ne!(a, b);

        // Round trip keeps the new optional fields.
        let json = darksil_json::to_string_pretty(&wide);
        let back = parse_scenario(&json).expect("round trip");
        assert_eq!(wide, back);
    }
}
