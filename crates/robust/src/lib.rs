//! Resilience layer for the darksil pipeline.
//!
//! - [`DarksilError`], the workspace-level error taxonomy. Every crate
//!   keeps its own local error enum (so callers can still match on
//!   domain-specific failures) and provides `From<LocalError> for
//!   DarksilError` so drivers — the CLI, the `repro` harness, a future
//!   service — can classify any failure into a small, stable set of
//!   machine-readable classes without downcasting.
//! - [`FaultPlan`], the fault-injection harness. Tests and the `repro
//!   --inject` flag use it to corrupt sensor readings, poison power
//!   samples with NaN, request off-ladder frequencies, and simulate
//!   hung/slow/transiently-failing jobs, verifying that DTM, DsRem and
//!   the job supervisor *degrade* (throttle, retry, relax tolerances)
//!   instead of panicking.
//! - [`CancellationToken`] / [`RunContext`], cooperative cancellation
//!   with wall-clock deadlines. The context is thread-scoped (see
//!   [`scoped`]) so CG iterations and per-step policy loops can poll
//!   [`check_deadline`] without every solver signature growing a token
//!   parameter.
//! - [`write_atomic`], the tmp+rename write behind every persisted
//!   artefact, journal, cache entry and served file.
//! - [`args`], the table-driven command-line parser behind the
//!   `darksil` and `repro` binaries and their `--help`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod args;
mod atomic;
mod cancel;
mod error;
mod fault;
mod hash;
mod rng;

pub use atomic::write_atomic;
pub use cancel::{
    check_deadline, current_attempt, is_degraded, run_context, scoped, CancellationToken,
    RunContext,
};
pub use error::{DarksilError, ErrorClass};
pub use fault::{Fault, FaultPlan};
pub use hash::{fnv1a, fnv1a_extend, FNV1A_EMPTY};
pub use rng::SplitMix64;
