//! Time series produced by transient policy runs.

use std::io::{self, Write};

use darksil_units::{Celsius, Gips, Hertz, Joules, Seconds, Watts};

/// One control-period snapshot of a transient policy run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceSample {
    /// Simulated time at the end of the period.
    pub time: Seconds,
    /// Chip-wide frequency during the period.
    pub frequency: Hertz,
    /// Peak die temperature at the end of the period.
    pub peak_temperature: Celsius,
    /// Total system throughput during the period.
    pub gips: Gips,
    /// Total chip power during the period.
    pub power: Watts,
}

/// Most control periods a run may be asked for up front, and so most
/// samples a new trace reserves room for: 2²⁰ (40 MiB of samples), over
/// 17 minutes of simulated time at the §6 1 ms period. Scenario
/// validation refuses a Boost experiment with more periods, so a served
/// job cannot hold a worker for a run that long. The step count comes
/// from a caller's duration and period, so an absurd one must not turn
/// into an allocation that fails (and aborts the process) before the
/// policy loop's first deadline check can cancel the run.
pub const MAX_RESERVED_SAMPLES: usize = 1 << 20;

/// The full trace of a transient policy run (Figure 11's curves).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PolicyTrace {
    /// Simulated time the run started at: zero from a cold chip, later
    /// for a phase that continues an earlier thermal history.
    start: Seconds,
    samples: Vec<TraceSample>,
}

impl PolicyTrace {
    /// Creates an empty trace starting at t = 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty trace for a run starting at `start`, with room
    /// for its `steps` samples up to [`MAX_RESERVED_SAMPLES`]; a longer
    /// run grows the trace as it goes.
    pub(crate) fn starting_at(start: Seconds, steps: usize) -> Self {
        Self {
            start,
            samples: Vec::with_capacity(steps.min(MAX_RESERVED_SAMPLES)),
        }
    }

    /// Appends a sample.
    pub fn push(&mut self, sample: TraceSample) {
        self.samples.push(sample);
    }

    /// The samples in time order.
    #[must_use]
    pub fn samples(&self) -> &[TraceSample] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Time-average throughput over the whole run.
    #[must_use]
    pub fn average_gips(&self) -> Gips {
        if self.samples.is_empty() {
            return Gips::zero();
        }
        let sum: f64 = self.samples.iter().map(|s| s.gips.value()).sum();
        Gips::new(sum / self.samples.len() as f64)
    }

    /// Time-average throughput over the last `fraction` of the run —
    /// useful to exclude the cold-start warm-up (the paper's Figure 11
    /// averages are quoted over the thermally settled region).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn average_gips_tail(&self, fraction: f64) -> Gips {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        if self.samples.is_empty() {
            return Gips::zero();
        }
        let start = self.samples.len() - (self.samples.len() as f64 * fraction).ceil() as usize;
        let tail = &self.samples[start..];
        let sum: f64 = tail.iter().map(|s| s.gips.value()).sum();
        Gips::new(sum / tail.len() as f64)
    }

    /// The largest instantaneous power observed — the "total peak
    /// power" of Figure 13.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.samples
            .iter()
            .map(|s| s.power)
            .fold(Watts::zero(), Watts::max)
    }

    /// The hottest observed peak temperature.
    #[must_use]
    pub fn peak_temperature(&self) -> Celsius {
        self.samples
            .iter()
            .map(|s| s.peak_temperature)
            .fold(Celsius::new(f64::NEG_INFINITY), Celsius::max)
    }

    /// The coolest observed peak temperature in the tail `fraction` —
    /// together with [`PolicyTrace::peak_temperature`] this brackets the
    /// oscillation band of a boosting run.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn min_peak_temperature_tail(&self, fraction: f64) -> Celsius {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        if self.samples.is_empty() {
            return Celsius::new(f64::INFINITY);
        }
        let start = self.samples.len() - (self.samples.len() as f64 * fraction).ceil() as usize;
        self.samples[start..]
            .iter()
            .map(|s| s.peak_temperature)
            .fold(Celsius::new(f64::INFINITY), Celsius::min)
    }

    /// Total energy consumed over the run (Σ P·Δt, from the run's
    /// start).
    #[must_use]
    pub fn total_energy(&self) -> Joules {
        let mut energy = Joules::zero();
        let mut last_t = self.start;
        for s in &self.samples {
            let dt = s.time - last_t;
            energy += s.power * dt;
            last_t = s.time;
        }
        energy
    }

    /// Writes the trace as CSV (`time_s,frequency_ghz,peak_c,gips,power_w`)
    /// to any writer. Remember that a `&mut` reference to a writer also
    /// implements [`Write`], so a `File` or `Vec<u8>` can be passed by
    /// mutable reference.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from the writer.
    pub fn write_csv<W: Write>(&self, mut writer: W) -> io::Result<()> {
        writeln!(writer, "time_s,frequency_ghz,peak_c,gips,power_w")?;
        for s in &self.samples {
            writeln!(
                writer,
                "{},{},{},{},{}",
                s.time.value(),
                s.frequency.as_ghz(),
                s.peak_temperature.value(),
                s.gips.value(),
                s.power.value()
            )?;
        }
        Ok(())
    }

    /// Frequencies visited in the tail `fraction`, as (min, max) — a
    /// boosting run oscillates; a constant run returns a single value.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not in `(0, 1]` or the trace is empty.
    #[must_use]
    pub fn frequency_band_tail(&self, fraction: f64) -> (Hertz, Hertz) {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "fraction must be in (0, 1]"
        );
        assert!(!self.samples.is_empty(), "trace is empty");
        let start = self.samples.len() - (self.samples.len() as f64 * fraction).ceil() as usize;
        let tail = &self.samples[start..];
        let min = tail
            .iter()
            .map(|s| s.frequency)
            .fold(Hertz::new(f64::INFINITY), Hertz::min);
        let max = tail
            .iter()
            .map(|s| s.frequency)
            .fold(Hertz::zero(), Hertz::max);
        (min, max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(t: f64, f_ghz: f64, temp: f64, gips: f64, w: f64) -> TraceSample {
        TraceSample {
            time: Seconds::new(t),
            frequency: Hertz::from_ghz(f_ghz),
            peak_temperature: Celsius::new(temp),
            gips: Gips::new(gips),
            power: Watts::new(w),
        }
    }

    fn trace() -> PolicyTrace {
        let mut t = PolicyTrace::new();
        t.push(sample(1.0, 3.0, 70.0, 200.0, 180.0));
        t.push(sample(2.0, 3.2, 78.0, 220.0, 200.0));
        t.push(sample(3.0, 3.4, 80.5, 240.0, 230.0));
        t.push(sample(4.0, 3.2, 79.5, 220.0, 205.0));
        t
    }

    #[test]
    fn averages() {
        let t = trace();
        assert_eq!(t.average_gips(), Gips::new(220.0));
        assert_eq!(t.average_gips_tail(0.5), Gips::new(230.0));
        assert_eq!(t.len(), 4);
        assert!(!t.is_empty());
    }

    #[test]
    fn peaks() {
        let t = trace();
        assert_eq!(t.peak_power(), Watts::new(230.0));
        assert_eq!(t.peak_temperature(), Celsius::new(80.5));
        assert_eq!(t.min_peak_temperature_tail(0.5), Celsius::new(79.5));
    }

    #[test]
    fn energy_integrates_power_over_time() {
        let t = trace();
        // 180·1 + 200·1 + 230·1 + 205·1
        assert_eq!(t.total_energy(), Joules::new(815.0));
    }

    #[test]
    fn frequency_band() {
        let t = trace();
        let (lo, hi) = t.frequency_band_tail(1.0);
        assert_eq!(lo, Hertz::from_ghz(3.0));
        assert_eq!(hi, Hertz::from_ghz(3.4));
    }

    #[test]
    fn empty_trace_defaults() {
        let t = PolicyTrace::new();
        assert_eq!(t.average_gips(), Gips::zero());
        assert_eq!(t.total_energy(), Joules::zero());
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "fraction must be in")]
    fn bad_fraction_panics() {
        let _ = trace().average_gips_tail(0.0);
    }

    #[test]
    fn csv_round_trip_shape() {
        let mut buf = Vec::new();
        trace().write_csv(&mut buf).expect("test value");
        let text = String::from_utf8(buf).expect("test value");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // header + 4 samples
        assert_eq!(lines[0], "time_s,frequency_ghz,peak_c,gips,power_w");
        assert!(lines[1].starts_with("1,3,70,200,180"));
        // Every row has exactly five fields.
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), 5);
        }
    }
}
