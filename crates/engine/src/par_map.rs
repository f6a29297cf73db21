//! Deterministic parallel map: submission-order results, serial bypass.
//!
//! [`Engine::par_map`] fans a batch of jobs out over a fixed-size set
//! of scoped workers and returns the results **in submission order**,
//! whatever order they completed in. Workers pull indices from a shared
//! queue and report `(index, result)` pairs over an `mpsc` channel;
//! the caller slots each result into its submission position. Because
//! the jobs themselves must be pure functions of their items, the
//! output of `jobs = N` is byte-identical to `jobs = 1` — the
//! determinism contract the repro harness and CI rely on.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};

use darksil_robust::DarksilError;

/// A handle carrying the resolved worker count for fan-out calls.
///
/// `Engine` is cheap to copy; it holds no threads. Worker sets are
/// created per [`par_map`](Self::par_map) call inside a scope, which
/// lets jobs borrow from the caller's stack (platforms, estimators,
/// options) without `'static` gymnastics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    jobs: usize,
}

impl Engine {
    /// An engine running `jobs` workers (at least one).
    #[must_use]
    pub fn new(jobs: usize) -> Self {
        Self { jobs: jobs.max(1) }
    }

    /// An engine sized by [`crate::default_jobs`] (`--jobs` override,
    /// then `DARKSIL_JOBS`, then the machine's parallelism).
    #[must_use]
    pub fn auto() -> Self {
        Self::new(crate::default_jobs())
    }

    /// The worker count.
    #[must_use]
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items` in parallel, returning one result per item
    /// **in submission order**.
    ///
    /// Panicking jobs are isolated: their slot holds a
    /// [`DarksilError`] of class `internal` and every other job still
    /// completes. With `jobs == 1` (or a single item) no thread is
    /// spawned at all — jobs run inline, in order, with the same panic
    /// isolation, so serial and parallel runs are behaviourally
    /// identical.
    pub fn par_map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<Result<T, DarksilError>>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> Result<T, DarksilError> + Sync,
    {
        let total = items.len();
        let _map_span = darksil_obs::span("engine.par_map");
        // Every fan-out is an event-ordering fork: each job gets its own
        // branch keyed by submission index, on the serial path too, so
        // the drained event stream is identical at any worker count.
        let fork = darksil_obs::event_fork();
        if self.jobs == 1 || total <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(index, item)| {
                    let _event_scope = fork.child(index as u64);
                    let _job_span = darksil_obs::span("engine.job");
                    run_job(&f, item)
                })
                .collect();
        }

        let queue: Mutex<VecDeque<(usize, I)>> =
            Mutex::new(items.into_iter().enumerate().collect());
        let workers = self.jobs.min(total);
        let (tx, rx) = mpsc::channel::<(usize, Result<T, DarksilError>)>();
        let mut slots: Vec<Option<Result<T, DarksilError>>> = Vec::with_capacity(total);
        slots.resize_with(total, || None);

        // The caller's RunContext (cancellation token, degraded flag,
        // attempt number) is re-installed inside every worker, so a
        // supervised job's deadline reaches nested fan-outs too. The
        // trace parent travels the same way: spans a job opens hang off
        // the submitter's `engine.par_map` span. The serial path above
        // needs nothing: it never leaves the caller's thread.
        let context = darksil_robust::run_context();
        let trace_parent = darksil_obs::current_span();
        let submitted = std::time::Instant::now();

        std::thread::scope(|scope| {
            for _ in 0..workers {
                let tx = tx.clone();
                let queue = &queue;
                let f = &f;
                let context = &context;
                let fork = &fork;
                scope.spawn(move || {
                    let _trace_scope = darksil_obs::parent_scope(trace_parent);
                    loop {
                        // The lock is only held to pop; jobs run
                        // unlocked, so a panicking job can never poison
                        // the queue.
                        let next = queue.lock().map(|mut q| q.pop_front());
                        let Ok(Some((index, item))) = next else {
                            break;
                        };
                        darksil_obs::observe_hist(
                            "engine.queue_wait_s",
                            submitted.elapsed().as_secs_f64(),
                        );
                        let outcome = {
                            let _event_scope = fork.child(index as u64);
                            darksil_robust::scoped(context, || {
                                let _job_span = darksil_obs::span("engine.job");
                                run_job(f, item)
                            })
                        };
                        if tx.send((index, outcome)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            for (index, outcome) in rx {
                slots[index] = Some(outcome);
            }
        });

        slots
            .into_iter()
            .map(|slot| {
                slot.unwrap_or_else(|| {
                    Err(DarksilError::internal(
                        "worker vanished before delivering a result",
                    ))
                })
            })
            .collect()
    }

    /// Like [`par_map`](Self::par_map), but collects into a single
    /// `Result`: every job still runs to completion, then the first
    /// error (in submission order) is returned.
    ///
    /// # Errors
    ///
    /// The submission-order-first failure among the jobs.
    pub fn try_par_map<I, T, F>(&self, items: Vec<I>, f: F) -> Result<Vec<T>, DarksilError>
    where
        I: Send,
        T: Send,
        F: Fn(I) -> Result<T, DarksilError> + Sync,
    {
        let mut out = Vec::new();
        for result in self.par_map(items, f) {
            out.push(result?);
        }
        Ok(out)
    }
}

/// Runs one job under panic isolation.
fn run_job<I, T, F>(f: &F, item: I) -> Result<T, DarksilError>
where
    F: Fn(I) -> Result<T, DarksilError> + Sync,
{
    match catch_unwind(AssertUnwindSafe(|| f(item))) {
        Ok(result) => result,
        Err(payload) => Err(DarksilError::internal(format!(
            "job panicked: {}",
            crate::panic_message(payload.as_ref())
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        let engine = Engine::new(4);
        let items: Vec<u64> = (0..64).collect();
        let results = engine.par_map(items, |i| {
            // Later items finish earlier: reverse sleep ladder.
            std::thread::sleep(std::time::Duration::from_micros(64 - i));
            Ok(i * 3)
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("job succeeds"), i as u64 * 3);
        }
    }

    #[test]
    fn serial_engine_spawns_no_threads_and_matches_parallel() {
        let caller = std::thread::current().id();
        let serial = Engine::new(1);
        assert_eq!(serial.jobs(), 1);
        let on_caller = serial.par_map(vec![(); 8], |()| {
            assert_eq!(std::thread::current().id(), caller);
            Ok(1_usize)
        });
        let parallel = Engine::new(4).par_map((0..8).collect(), |i: usize| Ok(i));
        assert_eq!(on_caller.len(), parallel.len());
    }

    #[test]
    fn panics_fill_their_slot_and_spare_the_rest() {
        let engine = Engine::new(3);
        let results = engine.par_map((0..10).collect::<Vec<usize>>(), |i| {
            assert!(i != 4, "injected panic at 4");
            Ok(i)
        });
        for (i, r) in results.iter().enumerate() {
            if i == 4 {
                let err = r.as_ref().expect_err("slot 4 panicked");
                assert_eq!(err.class(), darksil_robust::ErrorClass::Internal);
            } else {
                assert_eq!(*r.as_ref().expect("survivor"), i);
            }
        }
    }

    #[test]
    fn try_par_map_reports_the_first_submission_order_error() {
        let engine = Engine::new(4);
        let err = engine
            .try_par_map((0..10).collect::<Vec<usize>>(), |i| {
                if i >= 6 {
                    Err(DarksilError::capacity(format!("budget blown at {i}")))
                } else {
                    Ok(i)
                }
            })
            .expect_err("jobs 6..10 fail");
        assert!(err.to_string().contains("budget blown at 6"), "{err}");
        let ok = engine.try_par_map((0..10).collect::<Vec<usize>>(), Ok);
        assert_eq!(ok.expect("all succeed"), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn workers_inherit_the_callers_run_context() {
        let ctx = darksil_robust::RunContext::unbounded()
            .degraded_mode(true)
            .attempt_number(3);
        let results = darksil_robust::scoped(&ctx, || {
            Engine::new(4).par_map((0..8).collect::<Vec<usize>>(), |i| {
                if darksil_robust::is_degraded() && darksil_robust::current_attempt() == 3 {
                    Ok(i)
                } else {
                    Err(DarksilError::internal("context did not reach the worker"))
                }
            })
        });
        for (i, r) in results.iter().enumerate() {
            assert_eq!(*r.as_ref().expect("context propagated"), i);
        }
    }

    #[test]
    fn an_expired_context_cancels_jobs_inside_workers() {
        let ctx = darksil_robust::RunContext::with_token(
            darksil_robust::CancellationToken::with_deadline(std::time::Duration::from_millis(0)),
        );
        let results = darksil_robust::scoped(&ctx, || {
            Engine::new(2).par_map(vec![(); 4], |()| {
                darksil_robust::check_deadline("fan-out job")?;
                Ok(())
            })
        });
        for r in &results {
            let err = r.as_ref().expect_err("deadline observed in worker");
            assert_eq!(err.class(), darksil_robust::ErrorClass::Deadline);
        }
    }

    #[test]
    fn jobs_may_borrow_caller_state() {
        let table: Vec<f64> = (0..100).map(f64::from).collect();
        let engine = Engine::new(2);
        let sums = engine.par_map((0..4).collect::<Vec<usize>>(), |chunk| {
            Ok(table[chunk * 25..(chunk + 1) * 25].iter().sum::<f64>())
        });
        let total: f64 = sums.into_iter().map(|r| r.expect("chunk sums")).sum();
        assert!((total - 4950.0).abs() < 1e-12);
    }
}
