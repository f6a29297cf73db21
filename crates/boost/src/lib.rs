//! Boosting vs constant-frequency operation, STC vs NTC (§6).
//!
//! The paper's final study compares two ways of spending a thermal
//! budget:
//!
//! * **Boosting** ([`run_boosting`]) — an Intel-Turbo-Boost-style
//!   closed-loop controller with a 1 ms period: every period the peak
//!   temperature is compared against the 80 °C threshold and the
//!   chip-wide frequency moves one 200 MHz step up or down, oscillating
//!   around the threshold (Figure 11),
//! * **Constant frequency** ([`run_constant`]) — the highest discrete
//!   V/f level whose *steady state* stays below the threshold; because
//!   levels are discrete it settles a few degrees under it.
//!
//! Both honour an optional electrical power cap (the 500 W constraint
//! of §6). [`sweep_active_cores`] regenerates the Figure 12/13
//! performance-and-power-versus-active-cores curves, and
//! [`iso_performance_comparison`] the Figure 14 STC-vs-NTC
//! iso-performance energy study behind Observation 4.
//! [`run_per_instance_boosting`] extends §6 with a per-cluster control
//! domain (modern per-core DVFS) for comparison against the paper's
//! chip-wide loop, and [`run_phased_boosting`] strings workload phases
//! through one thermal history — the boost budget is stateful.
//!
//! # One kernel, small controllers
//!
//! All four policies run one closed loop, a crate-private kernel: each
//! control period it reads the per-core temperatures, evaluates the
//! leakage-coupled power at them, steps the RC network, records a
//! [`TraceSample`] and hands the step to the policy's controller. It
//! also owns the cancellation check, the thermal watermark and the
//! `boost.run` / `boost.summary` event segment, so the fuzzing oracle
//! checks every policy. A controller only writes each period's V/f
//! levels and reacts to a read-only view of the step: one chip-wide
//! level (boosting, and each phase of a phased run), one per instance,
//! or one held fixed (constant). A phased run calls the kernel once
//! per phase on one simulation.
//!
//! A control period allocates nothing: the kernel reuses its
//! temperature and power buffers, the simulation advances in place,
//! and a trace reserves its samples up front, up to 2²⁰ of them (a
//! duration comes from outside, and only the per-period deadline check
//! may stop an absurd one). The chip-wide
//! controller computes the mapping's throughput at each ladder level
//! once per run instead of every period.
//!
//! # Both policies in lockstep
//!
//! [`run_boosting_and_constant`] returns the boosting and the constant
//! trace of one mapping, equal to [`run_boosting`] followed by
//! [`run_constant`]. It finds [`max_safe_level`] first and then steps
//! both cold-chip simulations together: every period both controllers
//! apply, the two thermal states share one two-lane backward-Euler
//! substitution, and both record and react. The Figure 12 and 13
//! sweeps, the scenario `Boost` experiment and `darksil boost` run
//! through it. While events are being recorded it runs the two policies
//! one after the other instead, so the event stream is the two calls'
//! stream.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod constant;
mod error;
mod kernel;
mod ntc;
mod per_instance;
mod phases;
mod sweep;
mod trace;
mod turbo;

pub use constant::{max_safe_level, run_boosting_and_constant, run_constant};
pub use error::BoostError;
pub use kernel::PolicyConfig;
pub use ntc::{iso_performance_comparison, IsoPerfComparison, OperatingPoint};
pub use per_instance::run_per_instance_boosting;
pub use phases::{run_phased_boosting, Phase};
pub use sweep::{sweep_active_cores, SweepPoint};
pub use trace::{PolicyTrace, TraceSample, MAX_RESERVED_SAMPLES};
pub use turbo::run_boosting;
