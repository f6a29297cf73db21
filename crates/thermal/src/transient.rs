//! Transient thermal simulation.

use darksil_numerics::ode::{BackwardEuler, LinearOde};
use darksil_units::{Celsius, Seconds, Watts};

use crate::{ThermalError, ThermalMap, ThermalModel};

/// Per-core `thermal.cores` samples are decimated to one every this
/// many steps, keeping the event stream proportional to simulated time
/// rather than to the (much finer) integration step.
const CORE_SAMPLE_EVERY: u64 = 32;

/// A stateful transient simulation over a [`ThermalModel`].
///
/// # Examples
///
/// ```
/// use darksil_floorplan::Floorplan;
/// use darksil_thermal::{PackageConfig, ThermalModel, TransientSim};
/// use darksil_units::{Seconds, SquareMillimeters, Watts};
///
/// let plan = Floorplan::grid(3, 3, SquareMillimeters::new(5.1))?;
/// let model = ThermalModel::new(&plan, PackageConfig::paper_dac15())?;
/// let mut sim = TransientSim::new(&model, Seconds::new(0.01))?;
/// let power = vec![Watts::new(3.0); 9];
/// let after = sim.run(&power, 100)?; // one second of heating
/// assert!(after.peak() > model.ambient());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Integrates `C·dT/dt = P + G_amb·T_amb − G·T` with backward Euler at a
/// fixed step — A-stable, so the step can match the boosting
/// controller's 1 ms period (§6) without resolving the microsecond
/// die dynamics explicitly.
///
/// [`TransientSim::advance`] steps in place without allocating: the
/// input vector and the stepper's work buffer are reused, and the die
/// temperatures are read from the state (projected into a reused buffer
/// in grid mode). [`TransientSim::advance_pair`] steps two simulations
/// of one model and period through one two-lane substitution.
/// [`TransientSim::step`] and [`TransientSim::snapshot`] wrap them for
/// callers that want an owned [`ThermalMap`].
#[derive(Debug, Clone)]
pub struct TransientSim {
    stepper: BackwardEuler,
    state: Vec<f64>,
    /// `G_amb·T_amb`: the input with every core dark.
    ambient_input: Vec<f64>,
    /// This step's input `P + G_amb·T_amb`, rebuilt in place every step.
    input: Vec<f64>,
    cores: usize,
    rows: usize,
    cols: usize,
    subdivision: usize,
    core_of_cell: Vec<usize>,
    /// Grid mode's per-core maxima over each core's cells, projected
    /// after every step. Empty in block mode, where the die temperatures
    /// are the first `cores` entries of the state.
    die: Vec<f64>,
    elapsed: f64,
    dt: f64,
    /// Threshold for `thermal.watermark` crossing events, when set.
    watermark: Option<f64>,
    /// Steps taken so far (drives `thermal.cores` decimation).
    steps_taken: u64,
    /// Peak of the previous step; tracked only while events are being
    /// recorded, to detect watermark crossings.
    prev_peak: Option<f64>,
}

impl TransientSim {
    /// Creates a simulation starting from thermal equilibrium with the
    /// ambient (every node at `T_amb`), stepping at `dt`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::Solver`] for a non-positive step or an
    /// inconsistent model.
    pub fn new(model: &ThermalModel, dt: Seconds) -> Result<Self, ThermalError> {
        let stepper = LinearOde::new(model.conductance().clone(), model.capacitances().to_vec())?
            .backward_euler(dt.value())?;
        let (rows, cols) = model.grid_shape();
        let ambient = model.ambient().value();
        let ambient_input: Vec<f64> = model
            .ambient_conductances()
            .iter()
            .map(|g| g * ambient)
            .collect();
        let state = vec![ambient; model.node_count()];
        let mut die = Vec::new();
        if model.subdivision() > 1 {
            die.resize(model.core_count(), 0.0);
            ThermalModel::project_die(model.core_of_cell(), &state, &mut die);
        }
        Ok(Self {
            stepper,
            state,
            input: ambient_input.clone(),
            ambient_input,
            cores: model.core_count(),
            rows,
            cols,
            subdivision: model.subdivision(),
            core_of_cell: model.core_of_cell().to_vec(),
            die,
            elapsed: 0.0,
            dt: dt.value(),
            watermark: None,
            steps_taken: 0,
            prev_peak: None,
        })
    }

    /// Sets the watermark threshold: while events are being recorded,
    /// every step's peak is checked against it and crossings emit
    /// `thermal.watermark` events (and per-core samples carry the
    /// threshold so time-above-threshold can be derived). Controllers
    /// set this to their DTM threshold; it has no effect on the
    /// simulation itself.
    ///
    /// Setting it starts a fresh crossing track, as for a new run: the
    /// next step above the threshold reports `above` even when the
    /// step before it was above too.
    pub fn set_watermark(&mut self, threshold: Celsius) {
        self.watermark = Some(threshold.value());
        self.prev_peak = None;
    }

    /// The configured watermark threshold, if any.
    #[must_use]
    pub fn watermark(&self) -> Option<Celsius> {
        self.watermark.map(Celsius::new)
    }

    /// The fixed integration step.
    #[must_use]
    pub fn dt(&self) -> Seconds {
        Seconds::new(self.dt)
    }

    /// Simulated time elapsed so far.
    #[must_use]
    pub fn elapsed(&self) -> Seconds {
        Seconds::new(self.elapsed)
    }

    /// Current die temperatures in core order, read from the state
    /// without copying it (per-core maxima in grid mode).
    pub fn die_temperatures(&self) -> impl ExactSizeIterator<Item = Celsius> + '_ {
        self.die().iter().map(|&t| Celsius::new(t))
    }

    /// Current hottest die temperature, as [`ThermalMap::peak`] of a
    /// [`TransientSim::snapshot`] would report it.
    #[must_use]
    pub fn peak(&self) -> Celsius {
        crate::map::peak_of(self.die())
    }

    fn die(&self) -> &[f64] {
        if self.subdivision == 1 {
            &self.state[..self.cores]
        } else {
            &self.die
        }
    }

    /// Advances one step under the given per-core power map and returns
    /// the new temperatures: [`TransientSim::advance`] followed by a
    /// [`TransientSim::snapshot`].
    ///
    /// # Errors
    ///
    /// Same as [`TransientSim::advance`].
    pub fn step(&mut self, power: &[Watts]) -> Result<ThermalMap, ThermalError> {
        self.advance(power)?;
        Ok(self.snapshot())
    }

    /// Advances one step in place under the given per-core power map,
    /// without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerMapMismatch`] for wrong-length maps
    /// and [`ThermalError::Solver`] if the implicit solve fails.
    pub fn advance(&mut self, power: &[Watts]) -> Result<(), ThermalError> {
        self.load_input(power)?;
        self.stepper.step(&mut self.state, &self.input)?;
        self.finish_step(power);
        Ok(())
    }

    /// Advances this simulation under `power` and `other` under
    /// `other_power` by one step each, with the same results, bit for
    /// bit, as an [`TransientSim::advance`] of each. When both simulate
    /// one model at one period the two states share one two-lane
    /// substitution; any other pair steps one after the other. Per-step
    /// events are emitted for this simulation, then for `other`.
    ///
    /// # Errors
    ///
    /// Returns [`ThermalError::PowerMapMismatch`] if either map has the
    /// wrong length and [`ThermalError::Solver`] if either implicit
    /// solve fails. On any error neither simulation moves: states,
    /// clocks and die temperatures stay as they were.
    pub fn advance_pair(
        &mut self,
        other: &mut Self,
        power: &[Watts],
        other_power: &[Watts],
    ) -> Result<(), ThermalError> {
        self.load_input(power)?;
        other.load_input(other_power)?;
        BackwardEuler::step_pair(
            [&mut self.stepper, &mut other.stepper],
            [&mut self.state, &mut other.state],
            [&self.input, &other.input],
        )?;
        self.finish_step(power);
        other.finish_step(other_power);
        Ok(())
    }

    /// Builds `P + G_amb·T_amb` into the input buffer, spreading each
    /// core's power over its die cells.
    fn load_input(&mut self, power: &[Watts]) -> Result<(), ThermalError> {
        if power.len() != self.cores {
            return Err(ThermalError::PowerMapMismatch {
                got: power.len(),
                expected: self.cores,
            });
        }
        self.input.copy_from_slice(&self.ambient_input);
        let share = 1.0 / (self.subdivision * self.subdivision) as f64;
        for (cell, &owner) in self.core_of_cell.iter().enumerate() {
            self.input[cell] += power[owner].value() * share;
        }
        Ok(())
    }

    /// Bookkeeping after the state has moved: clock, grid-mode die
    /// projection and, while recording, the step's events.
    fn finish_step(&mut self, power: &[Watts]) {
        self.elapsed += self.dt;
        self.steps_taken += 1;
        if self.subdivision > 1 {
            ThermalModel::project_die(&self.core_of_cell, &self.state, &mut self.die);
        }
        if darksil_obs::events_enabled() {
            let total_w: f64 = power.iter().map(|w| w.value()).sum();
            self.emit_step_events(total_w);
        }
    }

    /// Emits the per-step domain events (`thermal.step`, decimated
    /// `thermal.cores`, watermark crossings). Only called while event
    /// recording is on, so the disabled path stays a single atomic load
    /// inside `events_enabled`.
    fn emit_step_events(&mut self, total_power_w: f64) {
        let peak = self.peak().value();
        let t_s = self.elapsed;
        darksil_obs::event("thermal.step", || {
            vec![
                ("t_s", t_s.into()),
                ("peak_c", peak.into()),
                ("power_w", total_power_w.into()),
            ]
        });
        if let Some(threshold) = self.watermark {
            let is_above = peak > threshold;
            let was_above = self.prev_peak.map(|p| p > threshold);
            if was_above != Some(is_above) && (is_above || was_above.is_some()) {
                darksil_obs::event("thermal.watermark", || {
                    vec![
                        ("t_s", t_s.into()),
                        ("peak_c", peak.into()),
                        ("threshold_c", threshold.into()),
                        ("direction", if is_above { "above" } else { "below" }.into()),
                    ]
                });
            }
        }
        self.prev_peak = Some(peak);
        if self.steps_taken.is_multiple_of(CORE_SAMPLE_EVERY) {
            let cores: Vec<f64> = self.die().to_vec();
            let threshold = self.watermark;
            darksil_obs::event("thermal.cores", || {
                let mut fields = vec![("t_s", t_s.into()), ("cores", cores.into())];
                if let Some(threshold) = threshold {
                    fields.push(("threshold_c", threshold.into()));
                }
                fields
            });
        }
    }

    /// Advances `steps` steps under constant power, returning the final
    /// temperatures.
    ///
    /// # Errors
    ///
    /// Same as [`TransientSim::advance`].
    pub fn run(&mut self, power: &[Watts], steps: usize) -> Result<ThermalMap, ThermalError> {
        // One coarse span for the whole batch: `advance` runs in a tight
        // loop, so per-step spans would distort what they measure.
        let _span = darksil_obs::span("thermal.transient.run");
        darksil_obs::counter("thermal.transient.steps", steps as u64);
        for _ in 0..steps {
            self.advance(power)?;
        }
        Ok(self.snapshot())
    }

    /// The current temperatures without advancing time.
    #[must_use]
    pub fn snapshot(&self) -> ThermalMap {
        if self.subdivision == 1 {
            return ThermalMap::from_state(self.state.clone(), self.cores, self.rows, self.cols);
        }
        ThermalMap::from_parts(self.die.clone(), self.state.clone(), self.rows, self.cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PackageConfig;
    use darksil_floorplan::Floorplan;
    use darksil_units::SquareMillimeters;

    fn small_model() -> ThermalModel {
        let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).expect("valid floorplan");
        ThermalModel::new(&plan, PackageConfig::paper_dac15()).expect("valid thermal model")
    }

    #[test]
    fn starts_at_ambient() {
        let m = small_model();
        let sim = TransientSim::new(&m, Seconds::new(1e-3)).expect("test value");
        let map = sim.snapshot();
        assert_eq!(map.peak(), m.ambient());
        assert_eq!(sim.elapsed(), Seconds::zero());
    }

    #[test]
    fn transient_approaches_steady_state() {
        let m = small_model();
        let power = vec![Watts::new(3.0); 16];
        let steady = m.steady_state(&power).expect("solve succeeds");

        let mut sim = TransientSim::new(&m, Seconds::new(0.1)).expect("test value");
        // The slowest time constant is the sink (tens of seconds); run
        // ten minutes of simulated time.
        sim.run(&power, 6000).expect("test value");
        let now = sim.snapshot();
        assert!(
            (now.peak() - steady.peak()).abs() < 0.3,
            "transient {} vs steady {}",
            now.peak(),
            steady.peak()
        );
    }

    #[test]
    fn temperature_rises_monotonically_under_step_power() {
        let m = small_model();
        let power = vec![Watts::new(3.0); 16];
        let mut sim = TransientSim::new(&m, Seconds::new(0.01)).expect("test value");
        let mut last = sim.snapshot().peak();
        for _ in 0..100 {
            let t = sim.step(&power).expect("solve succeeds").peak();
            assert!(t >= last - 1e-12);
            last = t;
        }
        assert!(last > m.ambient());
    }

    #[test]
    fn die_reacts_faster_than_package() {
        // After a power step, the first milliseconds raise the die
        // noticeably while the package barely moves — the separation the
        // boosting controller exploits.
        let m = small_model();
        let power = vec![Watts::new(5.0); 16];
        let mut sim = TransientSim::new(&m, Seconds::new(1e-3)).expect("test value");
        let map = sim.run(&power, 20).expect("test value"); // 20 ms
        let die_rise = map.peak() - m.ambient();
        let sink_node = map.state()[2 * 16 + 1];
        let sink_rise = sink_node - m.ambient().value();
        assert!(die_rise > 1.0, "die rise {die_rise}");
        assert!(sink_rise < die_rise / 3.0, "sink rise {sink_rise}");
    }

    #[test]
    fn cooling_after_power_removed() {
        let m = small_model();
        let hot = vec![Watts::new(4.0); 16];
        let mut sim = TransientSim::new(&m, Seconds::new(0.05)).expect("test value");
        sim.run(&hot, 400).expect("test value");
        let peak_hot = sim.snapshot().peak();
        sim.run(&[Watts::zero(); 16], 4000).expect("test value");
        let peak_cold = sim.snapshot().peak();
        assert!(peak_cold < peak_hot);
        assert!(
            (peak_cold - m.ambient()).abs() < 0.5,
            "cooled to {peak_cold}"
        );
    }

    #[test]
    fn invalid_inputs() {
        let m = small_model();
        assert!(TransientSim::new(&m, Seconds::zero()).is_err());
        let mut sim = TransientSim::new(&m, Seconds::new(0.01)).expect("test value");
        assert!(matches!(
            sim.step(&[Watts::zero(); 3]),
            Err(ThermalError::PowerMapMismatch {
                got: 3,
                expected: 16
            })
        ));
    }

    /// Two simulations advanced as a pair match the same two advanced
    /// one at a time, bit for bit, in block and in grid mode.
    #[test]
    fn paired_advance_equals_two_single_advances() {
        let plan = Floorplan::grid(3, 3, SquareMillimeters::new(5.1)).expect("valid floorplan");
        for subdivision in [1, 2] {
            let m =
                ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), subdivision)
                    .expect("valid thermal model");
            let new = || TransientSim::new(&m, Seconds::new(2.0e-3)).expect("test value");
            let (mut a, mut b) = (new(), new());
            let (mut single_a, mut single_b) = (new(), new());
            for k in 0..200 {
                let hot: Vec<Watts> = (0..9)
                    .map(|c| Watts::new(1.0 + f64::from((c * k) % 7)))
                    .collect();
                let dark: Vec<Watts> = (0..9)
                    .map(|c| {
                        if c % 2 == 0 {
                            Watts::zero()
                        } else {
                            Watts::new(4.5)
                        }
                    })
                    .collect();
                a.advance_pair(&mut b, &hot, &dark).expect("pair advances");
                single_a.advance(&hot).expect("advances");
                single_b.advance(&dark).expect("advances");
                for (paired, single) in [(&a, &single_a), (&b, &single_b)] {
                    let bits = |s: &TransientSim| -> Vec<u64> {
                        s.snapshot().state().iter().map(|t| t.to_bits()).collect()
                    };
                    assert_eq!(
                        bits(paired),
                        bits(single),
                        "subdivision {subdivision}, step {k}"
                    );
                    assert!(paired.die_temperatures().eq(single.die_temperatures()));
                    assert!(paired
                        .die_temperatures()
                        .eq(paired.snapshot().die_temperatures()));
                    assert_eq!(paired.peak(), paired.snapshot().peak());
                }
            }
            assert_eq!(a.elapsed(), single_a.elapsed());
        }
    }

    #[test]
    fn paired_advance_rejects_a_wrong_length_map() {
        let m = small_model();
        let mut a = TransientSim::new(&m, Seconds::new(0.01)).expect("test value");
        let mut b = a.clone();
        let power = [Watts::new(1.0); 16];
        for (pa, pb) in [(&power[..3], &power[..]), (&power[..], &power[..15])] {
            assert!(matches!(
                a.advance_pair(&mut b, pa, pb),
                Err(ThermalError::PowerMapMismatch { expected: 16, .. })
            ));
        }
        assert_eq!(a.elapsed(), Seconds::zero());
        assert_eq!(b.elapsed(), Seconds::zero());
    }

    /// A non-finite power map fails its lane's solve; the other lane's
    /// substitution succeeded, but neither simulation may move.
    #[test]
    fn failed_paired_advance_moves_neither_simulation() {
        let plan = Floorplan::grid(3, 3, SquareMillimeters::new(5.1)).expect("valid floorplan");
        for subdivision in [1, 2] {
            let m =
                ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), subdivision)
                    .expect("valid thermal model");
            let mut a = TransientSim::new(&m, Seconds::new(2.0e-3)).expect("test value");
            let warm = [Watts::new(3.0); 9];
            a.run(&warm, 10).expect("warms up");
            let mut b = a.clone();
            let mut poisoned = warm;
            poisoned[4] = Watts::new(f64::NAN);
            let bits = |s: &TransientSim| -> (Vec<u64>, Vec<u64>, Seconds) {
                (
                    s.snapshot().state().iter().map(|t| t.to_bits()).collect(),
                    s.die_temperatures().map(|t| t.value().to_bits()).collect(),
                    s.elapsed(),
                )
            };
            let before = bits(&a);
            for (pa, pb) in [(&warm, &poisoned), (&poisoned, &warm)] {
                assert!(matches!(
                    a.advance_pair(&mut b, pa, pb),
                    Err(ThermalError::Solver(_))
                ));
                assert_eq!(bits(&a), before, "subdivision {subdivision}");
                assert_eq!(bits(&b), before, "subdivision {subdivision}");
            }
            // Both still step on from where they were.
            let mut single = a.clone();
            a.advance_pair(&mut b, &warm, &warm).expect("pair advances");
            single.advance(&warm).expect("advances");
            assert_eq!(bits(&a), bits(&single));
            assert_eq!(bits(&b), bits(&single));
        }
    }

    #[test]
    fn grid_mode_transient_matches_its_steady_state() {
        let plan = Floorplan::grid(3, 3, SquareMillimeters::new(5.1)).expect("valid floorplan");
        let m = ThermalModel::with_subdivision(&plan, PackageConfig::paper_dac15(), 2)
            .expect("valid thermal model");
        let power = vec![Watts::new(2.5); 9];
        let steady = m.steady_state(&power).expect("solve succeeds");
        let mut sim = TransientSim::new(&m, Seconds::new(0.1)).expect("test value");
        sim.run(&power, 6000).expect("test value");
        let now = sim.snapshot();
        assert!(
            (now.peak() - steady.peak()).abs() < 0.3,
            "transient {} vs steady {}",
            now.peak(),
            steady.peak()
        );
        assert_eq!(now.core_count(), 9);
    }

    #[test]
    fn elapsed_time_tracks_steps() {
        let m = small_model();
        let mut sim = TransientSim::new(&m, Seconds::new(0.25)).expect("test value");
        sim.run(&[Watts::zero(); 16], 8).expect("test value");
        assert!((sim.elapsed().value() - 2.0).abs() < 1e-12);
        assert_eq!(sim.dt(), Seconds::new(0.25));
    }
}
