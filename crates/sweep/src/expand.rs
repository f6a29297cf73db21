//! The compiler: spec → deterministic job plan.
//!
//! Deterministic axes (`list`, `range`, `logrange`) expand into a
//! row-major cartesian grid (last axis fastest); each grid point is
//! evaluated `draws` times, with every `gauss` axis re-sampled per draw
//! from a generator keyed by `(seed, point_index, draw_index)` — so
//! any single evaluation regenerates in isolation. Every expanded
//! scenario passes the strict scenario validator before the plan is
//! returned; plan construction touches no clock and no global state,
//! so the same spec always compiles to the same plan.

use darksil_scenario::{validate_scenario, Scenario};

use crate::rng::cell_rng;
use crate::spec::{apply_param, AxisKind, AxisValue, SweepSpec, MAX_GRID_POINTS};
use crate::SweepError;

/// One entry of the job plan: a fully resolved scenario plus the
/// parameter values that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// Grid-point index (row-major over the deterministic axes).
    pub point_index: usize,
    /// Monte-Carlo draw index within the point.
    pub draw_index: usize,
    /// The resolved scenario (its name embeds the grid values and, for
    /// multi-draw sweeps, the draw tag — names are unique plan-wide).
    pub scenario: Scenario,
    /// Deterministic axis values for this point, in axis order.
    pub params: Vec<(String, AxisValue)>,
    /// Gauss-sampled values for this draw, in axis order.
    pub sampled: Vec<(String, f64)>,
}

impl Evaluation {
    /// Fixed-width journal/job name: `p00012.d03`.
    #[must_use]
    pub fn job_name(&self) -> String {
        format!("p{:05}.d{:02}", self.point_index, self.draw_index)
    }

    /// The point's human-readable label (`node=16 threads=2`, or
    /// `base` when the sweep has no deterministic axes).
    #[must_use]
    pub fn point_label(&self) -> String {
        point_label(&self.params)
    }
}

/// Renders deterministic axis values as `k=v` pairs.
#[must_use]
pub(crate) fn point_label(params: &[(String, AxisValue)]) -> String {
    if params.is_empty() {
        return "base".to_string();
    }
    params
        .iter()
        .map(|(name, value)| format!("{name}={}", value.label()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The compiled plan: every evaluation in submission order
/// (point-major, draws within a point).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPlan {
    /// Number of grid points.
    pub points: usize,
    /// Draws per point.
    pub draws: usize,
    /// The deterministic axes and their expanded value lists, in axis
    /// order (drives the report's axis cuts).
    pub grid_axes: Vec<(String, Vec<AxisValue>)>,
    /// All `points × draws` evaluations.
    pub evals: Vec<Evaluation>,
}

/// Expands one deterministic axis into its concrete values.
fn axis_values(kind: &AxisKind) -> Vec<AxisValue> {
    match kind {
        AxisKind::List(values) => values.clone(),
        AxisKind::Range(range) => {
            let mut out = Vec::new();
            let eps = range.step * 1e-9;
            let mut i = 0_u32;
            loop {
                let v = f64::from(i).mul_add(range.step, range.start);
                if v > range.stop + eps {
                    break;
                }
                out.push(AxisValue::Num(v));
                i += 1;
            }
            out
        }
        AxisKind::LogRange(range) => {
            let n = range.points;
            let mut out = Vec::with_capacity(n);
            #[allow(clippy::cast_precision_loss)]
            let ratio = (range.stop / range.start).powf(1.0 / (n - 1) as f64);
            for i in 0..n {
                #[allow(clippy::cast_possible_truncation)]
                let v = if i == n - 1 {
                    range.stop // exact endpoint, no powf drift
                } else {
                    range.start * ratio.powi(i as i32)
                };
                out.push(AxisValue::Num(v));
            }
            out
        }
        AxisKind::Gauss(_) => Vec::new(), // not part of the grid
    }
}

/// Compiles a validated spec into its job plan.
///
/// # Errors
///
/// Returns [`SweepError::Invalid`] when the grid exceeds
/// `MAX_GRID_POINTS` or an expanded point fails strict scenario
/// validation (the error names the point and draw).
pub fn expand(spec: &SweepSpec) -> Result<SweepPlan, SweepError> {
    let grid_axes: Vec<(String, Vec<AxisValue>)> = spec
        .axes
        .iter()
        .filter(|axis| !matches!(axis.kind, AxisKind::Gauss(_)))
        .map(|axis| (axis.param.clone(), axis_values(&axis.kind)))
        .collect();
    let gauss_axes: Vec<(String, &AxisKind)> = spec
        .axes
        .iter()
        .filter(|axis| matches!(axis.kind, AxisKind::Gauss(_)))
        .map(|axis| (axis.param.clone(), &axis.kind))
        .collect();

    let mut points: usize = 1;
    for (param, values) in &grid_axes {
        points = points.checked_mul(values.len()).ok_or_else(|| {
            SweepError::Invalid(format!(
                "grid overflows while multiplying in axis `{param}`"
            ))
        })?;
    }
    if points > MAX_GRID_POINTS {
        return Err(SweepError::Invalid(format!(
            "grid has {points} points, more than the {MAX_GRID_POINTS} cap"
        )));
    }

    let mut evals = Vec::with_capacity(points * spec.draws);
    for point_index in 0..points {
        // Row-major decomposition, last axis fastest.
        let mut params: Vec<(String, AxisValue)> = Vec::with_capacity(grid_axes.len());
        let mut remainder = point_index;
        for (param, values) in grid_axes.iter().rev() {
            let value = values[remainder % values.len()].clone();
            remainder /= values.len();
            params.push((param.clone(), value));
        }
        params.reverse();

        for draw_index in 0..spec.draws {
            let mut scenario = spec.base.clone();
            for (param, value) in &params {
                apply_param(&mut scenario, param, value)
                    .map_err(|msg| SweepError::Invalid(format!("point {point_index}: {msg}")))?;
            }
            let mut rng = cell_rng(spec.seed, point_index, draw_index);
            let mut sampled: Vec<(String, f64)> = Vec::with_capacity(gauss_axes.len());
            for (param, kind) in &gauss_axes {
                let AxisKind::Gauss(gauss) = kind else {
                    continue;
                };
                let value = gauss.clamp(gauss.sigma.mul_add(rng.next_normal(), gauss.mean));
                apply_param(&mut scenario, param, &AxisValue::Num(value)).map_err(|msg| {
                    SweepError::Invalid(format!("point {point_index} draw {draw_index}: {msg}"))
                })?;
                sampled.push((param.clone(), value));
            }

            scenario.name = if spec.draws > 1 {
                format!(
                    "{} @ {} [draw {draw_index}]",
                    spec.base.name,
                    point_label(&params)
                )
            } else {
                format!("{} @ {}", spec.base.name, point_label(&params))
            };

            validate_scenario(&scenario).map_err(|e| {
                SweepError::Invalid(format!(
                    "point {point_index} draw {draw_index} ({}): expanded scenario \
                     is invalid: {e}",
                    point_label(&params)
                ))
            })?;

            evals.push(Evaluation {
                point_index,
                draw_index,
                scenario,
                params: params.clone(),
                sampled,
            });
        }
    }

    Ok(SweepPlan {
        points,
        draws: spec.draws,
        grid_axes,
        evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, GaussAxis, LogRangeAxis, RangeAxis, SweepSpec, SWEEPSPEC_SCHEMA};
    use darksil_scenario::{ExperimentSpec, WorkloadSpec};

    fn base() -> Scenario {
        Scenario {
            name: "b".into(),
            node: 16,
            cores: Some(16),
            t_dtm_celsius: None,
            variation_seed: None,
            leakage_sigma: None,
            frequency_sigma: None,
            workload: vec![WorkloadSpec {
                app: "x264".into(),
                instances: 2,
                threads: 2,
            }],
            experiment: ExperimentSpec::PowerBudget { tdp_watts: 45.0 },
        }
    }

    fn spec(axes: Vec<Axis>, draws: usize, seed: u64) -> SweepSpec {
        SweepSpec {
            schema: SWEEPSPEC_SCHEMA.into(),
            name: "t".into(),
            seed,
            draws,
            base: base(),
            axes,
        }
    }

    #[test]
    fn grid_is_row_major_with_last_axis_fastest() {
        let plan = expand(&spec(
            vec![
                Axis {
                    param: "node".into(),
                    kind: AxisKind::List(vec![AxisValue::Num(16.0), AxisValue::Num(8.0)]),
                },
                Axis {
                    param: "threads".into(),
                    kind: AxisKind::Range(RangeAxis {
                        start: 1.0,
                        stop: 3.0,
                        step: 1.0,
                    }),
                },
            ],
            1,
            0,
        ))
        .expect("expands");
        assert_eq!(plan.points, 6);
        assert_eq!(plan.evals.len(), 6);
        let labels: Vec<String> = plan.evals.iter().map(Evaluation::point_label).collect();
        assert_eq!(
            labels,
            vec![
                "node=16 threads=1",
                "node=16 threads=2",
                "node=16 threads=3",
                "node=8 threads=1",
                "node=8 threads=2",
                "node=8 threads=3",
            ]
        );
        assert_eq!(plan.evals[4].scenario.node, 8);
        assert_eq!(plan.evals[4].scenario.workload[0].threads, 2);
        assert_eq!(plan.evals[4].scenario.name, "b @ node=8 threads=2");
    }

    #[test]
    fn logrange_hits_both_endpoints_geometrically() {
        let values = axis_values(&AxisKind::LogRange(LogRangeAxis {
            start: 1.0,
            stop: 8.0,
            points: 4,
        }));
        let nums: Vec<f64> = values
            .iter()
            .map(|v| match v {
                AxisValue::Num(n) => *n,
                AxisValue::Str(_) => f64::NAN,
            })
            .collect();
        assert_eq!(nums.len(), 4);
        assert!((nums[0] - 1.0).abs() < 1e-12);
        assert!((nums[1] - 2.0).abs() < 1e-9);
        assert!((nums[2] - 4.0).abs() < 1e-9);
        assert!((nums[3] - 8.0).abs() < 1e-12);
    }

    #[test]
    fn range_includes_the_stop_despite_float_drift() {
        let values = axis_values(&AxisKind::Range(RangeAxis {
            start: 0.1,
            stop: 0.4,
            step: 0.1,
        }));
        assert_eq!(values.len(), 4, "{values:?}");
    }

    #[test]
    fn draws_sample_gauss_axes_in_isolation() {
        let axes = vec![
            Axis {
                param: "node".into(),
                kind: AxisKind::List(vec![AxisValue::Num(16.0), AxisValue::Num(8.0)]),
            },
            Axis {
                param: "tdp_watts".into(),
                kind: AxisKind::Gauss(GaussAxis {
                    mean: 60.0,
                    sigma: 5.0,
                    clamp_min: Some(40.0),
                    clamp_max: Some(80.0),
                }),
            },
        ];
        let plan = expand(&spec(axes.clone(), 3, 42)).expect("expands");
        assert_eq!(plan.evals.len(), 6);
        // Sampled values vary per (point, draw) and stay clamped.
        let tdps: Vec<f64> = plan.evals.iter().map(|e| e.sampled[0].1).collect();
        for tdp in &tdps {
            assert!((40.0..=80.0).contains(tdp), "{tdp}");
        }
        assert_ne!(tdps[0], tdps[1], "draws differ");
        assert_ne!(tdps[0], tdps[3], "points differ");
        // Re-expansion is bit-identical, and cell (p, d) does not depend
        // on how many draws surround it.
        let again = expand(&spec(axes.clone(), 3, 42)).expect("expands");
        assert_eq!(plan, again);
        let fewer = expand(&spec(axes, 2, 42)).expect("expands");
        assert_eq!(fewer.evals[0], plan.evals[0]);
        assert_eq!(fewer.evals[1], plan.evals[1]);
        // Draw tags keep names unique.
        assert!(plan.evals[0].scenario.name.ends_with("[draw 0]"));
    }

    #[test]
    fn invalid_expanded_points_name_the_point() {
        // threads=9 is off the validator's range.
        let err = expand(&spec(
            vec![Axis {
                param: "threads".into(),
                kind: AxisKind::List(vec![AxisValue::Num(9.0)]),
            }],
            1,
            0,
        ))
        .expect_err("invalid point");
        assert!(err.to_string().contains("point 0"), "{err}");
        assert!(err.to_string().contains("threads"), "{err}");
    }

    #[test]
    fn empty_axes_is_a_single_point() {
        let plan = expand(&spec(Vec::new(), 1, 0)).expect("expands");
        assert_eq!(plan.points, 1);
        assert_eq!(plan.evals[0].point_label(), "base");
    }
}
