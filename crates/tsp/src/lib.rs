//! TSP — Thermal Safe Power (§5).
//!
//! TSP (Pagani et al., CODES+ISSS 2014) is a power budget expressed *as
//! a function of the number of active cores*: `TSP(m)` is the highest
//! per-core power such that, when `m` active cores each consume it, the
//! maximum temperature across the chip stays below the critical
//! threshold. Unlike a single chip-level TDP, TSP adapts to how many
//! cores are on — few active cores may each burn much more power than
//! `TDP/m` would allow, while many active cores must throttle below it.
//!
//! Because the thermal RC network is linear, TSP has a closed form for
//! any concrete mapping: solving the network with **1 W** on each active
//! core yields a per-watt temperature-rise map `u`, and
//!
//! `TSP = (T_DTM − T_idle_peak) / max(u)`
//!
//! The *worst-case* TSP over all mappings of `m` cores is approached
//! by the most thermally concentrated arrangements;
//! [`TspCalculator::worst_case_mapping`] evaluates a centred and a
//! corner-anchored contiguous blob and keeps the hotter of the two
//! (corners lose lateral escape paths and win for small `m`).
//!
//! # Examples
//!
//! ```
//! use darksil_floorplan::Floorplan;
//! use darksil_thermal::{PackageConfig, ThermalModel};
//! use darksil_tsp::TspCalculator;
//! use darksil_units::{Celsius, SquareMillimeters};
//!
//! let plan = Floorplan::grid(10, 10, SquareMillimeters::new(5.1))?;
//! let model = ThermalModel::new(&plan, PackageConfig::paper_dac15())?;
//! let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
//!
//! // Fewer active cores ⇒ larger per-core budget.
//! let p20 = tsp.worst_case(20)?;
//! let p80 = tsp.worst_case(80)?;
//! assert!(p20 > p80);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use darksil_floorplan::{CoreId, Floorplan};
use darksil_thermal::{ThermalError, ThermalModel};
use darksil_units::{Celsius, Watts};

/// Computes Thermal Safe Power budgets over a thermal model.
#[derive(Debug)]
pub struct TspCalculator<'a> {
    plan: &'a Floorplan,
    model: &'a ThermalModel,
    t_dtm: Celsius,
}

impl<'a> TspCalculator<'a> {
    /// Creates a calculator for the given plan/model and critical
    /// temperature (the paper uses `T_DTM = 80 °C`).
    ///
    /// # Panics
    ///
    /// Panics if the model was built for a different core count than
    /// the plan.
    #[must_use]
    pub fn new(plan: &'a Floorplan, model: &'a ThermalModel, t_dtm: Celsius) -> Self {
        assert_eq!(
            plan.core_count(),
            model.core_count(),
            "floorplan and thermal model disagree on core count"
        );
        Self { plan, model, t_dtm }
    }

    /// Per-core TSP for a *specific* set of active cores: the uniform
    /// per-active-core power at which the hottest core reaches exactly
    /// `T_DTM` (inactive cores are power-gated).
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerMapMismatch`] for out-of-range core
    /// ids and [`ThermalError::Solver`] on solver failure. An empty
    /// active set yields an unbounded budget reported as infinite watts.
    pub fn for_mapping(&self, active: &[CoreId]) -> Result<Watts, ThermalError> {
        let n = self.plan.core_count();
        if active.is_empty() {
            return Ok(Watts::new(f64::INFINITY));
        }
        let mut unit = vec![Watts::zero(); n];
        for core in active {
            if core.index() >= n {
                return Err(ThermalError::PowerMapMismatch {
                    got: core.index(),
                    expected: n,
                });
            }
            unit[core.index()] = Watts::new(1.0);
        }
        let rise_map = self.model.steady_state(&unit)?;
        let peak_rise = rise_map.peak() - self.model.ambient();
        let headroom = self.t_dtm - self.model.ambient();
        if peak_rise <= 0.0 {
            return Ok(Watts::new(f64::INFINITY));
        }
        let budget = headroom / peak_rise;
        if darksil_obs::events_enabled() {
            let active_count = active.len() as u64;
            darksil_obs::event("tsp.budget", || {
                vec![
                    ("active", active_count.into()),
                    ("per_core_w", budget.into()),
                    ("headroom_c", headroom.into()),
                    ("peak_rise_c", peak_rise.into()),
                ]
            });
        }
        Ok(Watts::new(budget))
    }

    /// The most thermally adverse arrangement of `m` active cores found
    /// among two candidate families: a centred contiguous blob
    /// (concentrated heat in the middle of the die) and a corner-anchored
    /// blob (concentrated heat with the least lateral escape). For small
    /// `m` the corner is typically worse; for larger `m` the centre is.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the core count.
    #[must_use]
    pub fn worst_case_mapping(&self, m: usize) -> Vec<CoreId> {
        let n = self.plan.core_count();
        assert!(m <= n, "cannot activate {m} of {n} cores");
        let centre = self.blob(
            m,
            self.plan.rows() as f64 / 2.0,
            self.plan.cols() as f64 / 2.0,
        );
        let corner = self.blob(m, 0.0, 0.0);
        // Lower budget = hotter arrangement = worse case.
        let b_centre = self.for_mapping(&centre);
        let b_corner = self.for_mapping(&corner);
        match (b_centre, b_corner) {
            (Ok(pc), Ok(pk)) if pk < pc => corner,
            _ => centre,
        }
    }

    /// The `m` cores nearest to a grid anchor point `(row, col)`.
    fn blob(&self, m: usize, anchor_row: f64, anchor_col: f64) -> Vec<CoreId> {
        let mut cores: Vec<CoreId> = self.plan.cores().collect();
        cores.sort_by(|a, b| {
            let da = Self::anchor_distance(self.plan, *a, anchor_row, anchor_col);
            let db = Self::anchor_distance(self.plan, *b, anchor_row, anchor_col);
            da.total_cmp(&db).then(a.cmp(b))
        });
        cores.truncate(m);
        cores
    }

    fn anchor_distance(plan: &Floorplan, core: CoreId, anchor_row: f64, anchor_col: f64) -> f64 {
        // Cores come from the plan's own iterator; an out-of-range id
        // sorts last rather than panicking.
        let Ok((r, c)) = plan.coordinates(core) else {
            return f64::INFINITY;
        };
        let dr = r as f64 + 0.5 - anchor_row;
        let dc = c as f64 + 0.5 - anchor_col;
        dr * dr + dc * dc
    }

    /// Worst-case per-core TSP for `m` active cores (the Figure 10
    /// abstraction): safe no matter *which* `m` cores are activated
    /// (within the candidate families of
    /// [`TspCalculator::worst_case_mapping`]).
    ///
    /// # Errors
    ///
    /// Propagates [`TspCalculator::for_mapping`] errors.
    ///
    /// # Panics
    ///
    /// Panics if `m` exceeds the core count.
    pub fn worst_case(&self, m: usize) -> Result<Watts, ThermalError> {
        self.for_mapping(&self.worst_case_mapping(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_thermal::PackageConfig;
    use darksil_units::SquareMillimeters;

    fn setup() -> (Floorplan, ThermalModel) {
        let plan = Floorplan::grid(10, 10, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let model =
            ThermalModel::new(&plan, PackageConfig::paper_dac15()).expect("valid thermal model");
        (plan, model)
    }

    #[test]
    fn tsp_decreases_with_active_cores() {
        let (plan, model) = setup();
        let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        let mut last = Watts::new(f64::INFINITY);
        for m in [1, 10, 25, 50, 75, 100] {
            let p = tsp.worst_case(m).expect("test value");
            assert!(p < last, "TSP({m}) = {p} not below previous {last}");
            assert!(p.value() > 0.0);
            last = p;
        }
    }

    #[test]
    fn mapping_at_tsp_reaches_threshold_exactly() {
        let (plan, model) = setup();
        let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        let active = tsp.worst_case_mapping(40);
        let budget = tsp.for_mapping(&active).expect("test value");
        let mut power = vec![Watts::zero(); 100];
        for c in &active {
            power[c.index()] = budget;
        }
        let peak = model.steady_state(&power).expect("solve succeeds").peak();
        assert!(
            (peak.value() - 80.0).abs() < 0.01,
            "peak at TSP = {peak}, want 80 °C"
        );
    }

    #[test]
    fn spread_mapping_gets_higher_budget_than_worst_case() {
        let (plan, model) = setup();
        let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        // 25 cores: centred blob vs every-4th spread.
        let blob = tsp.worst_case_mapping(25);
        let spread: Vec<CoreId> = plan.cores().step_by(4).collect();
        assert_eq!(spread.len(), 25);
        let p_blob = tsp.for_mapping(&blob).expect("test value");
        let p_spread = tsp.for_mapping(&spread).expect("test value");
        assert!(
            p_spread > p_blob,
            "spread {p_spread} should beat blob {p_blob}"
        );
    }

    #[test]
    fn worst_case_mapping_is_a_contiguous_blob() {
        let (plan, model) = setup();
        let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        let blob = tsp.worst_case_mapping(9);
        assert_eq!(blob.len(), 9);
        // The nine cores span at most a 4×4 bounding box (contiguous
        // blob, whether centred or corner-anchored).
        let coords: Vec<(usize, usize)> = blob
            .iter()
            .map(|c| plan.coordinates(*c).expect("test value"))
            .collect();
        let rmin = coords.iter().map(|c| c.0).min().expect("test value");
        let rmax = coords.iter().map(|c| c.0).max().expect("test value");
        let cmin = coords.iter().map(|c| c.1).min().expect("test value");
        let cmax = coords.iter().map(|c| c.1).max().expect("test value");
        assert!(rmax - rmin <= 3 && cmax - cmin <= 3, "{coords:?}");
        // And it is genuinely the worse of the two candidate anchors.
        let budget = tsp.for_mapping(&blob).expect("test value");
        let spread: Vec<CoreId> = plan.cores().step_by(11).take(9).collect();
        assert!(budget <= tsp.for_mapping(&spread).expect("test value"));
    }

    #[test]
    fn full_chip_tsp_matches_paper_scale() {
        // At 100 active cores the total TSP budget should be in the same
        // range as the paper's TDP values (≈185–230 W) — that is the
        // whole point of the comparison.
        let (plan, model) = setup();
        let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        let per_core = tsp.worst_case(100).expect("test value");
        let total = per_core * 100.0;
        assert!(
            total.value() > 170.0 && total.value() < 300.0,
            "TSP(100)·100 = {total}"
        );
    }

    #[test]
    fn empty_mapping_is_unbounded() {
        let (plan, model) = setup();
        let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        assert!(tsp
            .for_mapping(&[])
            .expect("numerics succeed")
            .value()
            .is_infinite());
    }

    #[test]
    fn out_of_range_core_rejected() {
        let (plan, model) = setup();
        let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        assert!(tsp.for_mapping(&[CoreId(500)]).is_err());
    }

    #[test]
    fn higher_threshold_higher_budget() {
        let (plan, model) = setup();
        let t80 = TspCalculator::new(&plan, &model, Celsius::new(80.0));
        let t90 = TspCalculator::new(&plan, &model, Celsius::new(90.0));
        assert!(t90.worst_case(50).expect("test value") > t80.worst_case(50).expect("test value"));
    }
}
