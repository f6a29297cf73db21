//! Temperature maps produced by the thermal solvers.

use darksil_floorplan::{CoreId, Floorplan, GridMap};
use darksil_units::Celsius;

/// Node temperatures of one thermal solution.
///
/// Indexing helpers expose the die layer (what policies care about);
/// the full internal state is retained so transients can restart and
/// tests can check energy balance.
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalMap {
    /// Per-core die temperatures (°C). For subdivided (grid-mode)
    /// models these are per-core maxima over the core's cells.
    die: Vec<f64>,
    state: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl ThermalMap {
    pub(crate) fn from_state(state: Vec<f64>, cores: usize, rows: usize, cols: usize) -> Self {
        debug_assert!(state.len() >= cores);
        let die = state[..cores].to_vec();
        Self {
            die,
            state,
            rows,
            cols,
        }
    }

    pub(crate) fn from_parts(die: Vec<f64>, state: Vec<f64>, rows: usize, cols: usize) -> Self {
        Self {
            die,
            state,
            rows,
            cols,
        }
    }

    /// Temperature of a core's die cell.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core(&self, core: CoreId) -> Celsius {
        Celsius::new(self.die[core.index()])
    }

    /// Die temperatures in core order.
    pub fn die_temperatures(&self) -> impl Iterator<Item = Celsius> + '_ {
        self.die.iter().map(|&t| Celsius::new(t))
    }

    /// Hottest die cell — the quantity compared against `T_DTM`.
    #[must_use]
    pub fn peak(&self) -> Celsius {
        peak_of(&self.die)
    }

    /// Mean die temperature (per-core, unweighted).
    #[must_use]
    pub fn mean(&self) -> Celsius {
        let sum: f64 = self.die.iter().sum();
        Celsius::new(sum / self.die.len() as f64)
    }

    /// Number of logical cores.
    #[must_use]
    pub fn core_count(&self) -> usize {
        self.die.len()
    }

    /// Raw node temperatures (die, spreader, sink, peripheries).
    #[must_use]
    pub fn state(&self) -> &[f64] {
        &self.state
    }

    /// Whether any die cell meets or exceeds `threshold`.
    #[must_use]
    pub fn violates(&self, threshold: Celsius) -> bool {
        self.peak() > threshold
    }

    /// Converts the die layer to a [`GridMap`] for rendering (Figure 8
    /// style thermal profiles).
    ///
    /// # Errors
    ///
    /// Returns the floorplan error if `plan` does not match this map's
    /// core count.
    pub fn to_grid_map(
        &self,
        plan: &Floorplan,
    ) -> Result<GridMap, darksil_floorplan::FloorplanError> {
        GridMap::from_values(plan, self.die.clone())
    }

    /// Grid shape `(rows, cols)`.
    #[must_use]
    pub fn grid_shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

/// The hottest of a set of die temperatures (°C).
pub(crate) fn peak_of(die: &[f64]) -> Celsius {
    die.iter().fold(Celsius::new(f64::NEG_INFINITY), |acc, &t| {
        acc.max(Celsius::new(t))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use darksil_units::SquareMillimeters;

    fn map() -> ThermalMap {
        // 4 cores, 2×2, plus internal nodes.
        let mut state = vec![50.0, 61.5, 47.0, 55.0];
        state.extend([40.0; 10]);
        ThermalMap::from_state(state, 4, 2, 2)
    }

    #[test]
    fn accessors() {
        let m = map();
        assert_eq!(m.core(CoreId(1)), Celsius::new(61.5));
        assert_eq!(m.peak(), Celsius::new(61.5));
        assert_eq!(m.mean(), Celsius::new(53.375));
        assert_eq!(m.core_count(), 4);
        assert_eq!(m.grid_shape(), (2, 2));
        assert_eq!(m.die_temperatures().count(), 4);
    }

    #[test]
    fn violation_check() {
        let m = map();
        assert!(m.violates(Celsius::new(60.0)));
        assert!(!m.violates(Celsius::new(61.5))); // strict inequality
        assert!(!m.violates(Celsius::new(80.0)));
    }

    #[test]
    fn grid_conversion() {
        let plan = Floorplan::grid(2, 2, SquareMillimeters::new(1.0)).expect("valid floorplan");
        let g = map().to_grid_map(&plan).expect("test value");
        assert_eq!(g.max(), Some(61.5));
        let wrong = Floorplan::grid(3, 3, SquareMillimeters::new(1.0)).expect("valid floorplan");
        assert!(map().to_grid_map(&wrong).is_err());
    }
}
