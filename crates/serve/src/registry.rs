//! In-memory job table with admission control.
//!
//! The registry is the single synchronisation point between connection
//! handlers (submitting and polling) and executor workers (running and
//! finishing). All admission decisions — per-tenant quotas, the global
//! in-flight cap, and cross-tenant dedup by content digest — happen
//! under one lock so a burst of concurrent submissions can never
//! over-admit. Durable state lives elsewhere (the journal and the
//! artefact spool); the registry is rebuilt from those on restart.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

use darksil_json::{Json, ToJson};
use darksil_robust::DarksilError;

/// Lifecycle of a submitted job as reported to clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a pool worker.
    Queued,
    /// A pool worker is executing it.
    Running,
    /// Finished with full-fidelity results.
    Done,
    /// Finished, but the final attempt ran in declared degraded mode.
    Degraded,
    /// Exhausted retries without a result.
    Failed,
}

impl JobState {
    /// Stable lower-case label used in JSON bodies.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Done => "done",
            Self::Degraded => "degraded",
            Self::Failed => "failed",
        }
    }

    /// Whether the job still occupies an in-flight slot.
    #[must_use]
    pub fn is_inflight(self) -> bool {
        matches!(self, Self::Queued | Self::Running)
    }

    /// Whether an artefact exists for this job.
    #[must_use]
    pub fn has_artefact(self) -> bool {
        matches!(self, Self::Done | Self::Degraded)
    }
}

/// Everything the registry knows about one job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Content digest identifying the job (and its artefact).
    pub digest: String,
    /// Tenants that submitted this digest, in first-seen order.
    pub tenants: Vec<String>,
    /// Current lifecycle state.
    pub state: JobState,
    /// Terminal error message for failed jobs.
    pub error: Option<String>,
    /// Supervisor attempt timeline (one JSON record per attempt).
    pub attempts: Vec<Json>,
    /// Wall-clock seconds spent executing (0 until finished).
    pub seconds: f64,
    /// Cache outcome of the solve (`hit`, `miss`, `recovered`), once
    /// known.
    pub cache: Option<String>,
    /// Append-only lifecycle log consumed by `/v1/jobs/{digest}/watch`:
    /// one JSON object per transition — `{"state": …}` lines for
    /// queued/running/terminal, `{"kind": …}` lines relayed from the
    /// supervisor's attempt hook.
    pub transitions: Vec<Json>,
}

/// A `{"state": label}` watch-stream line.
fn state_line(label: &str) -> Json {
    Json::Obj(vec![("state".to_string(), Json::Str(label.to_string()))])
}

impl JobRecord {
    /// Client-facing JSON status document.
    #[must_use]
    pub fn status_json(&self) -> Json {
        let mut fields = vec![
            ("job".to_string(), Json::Str(self.digest.clone())),
            (
                "state".to_string(),
                Json::Str(self.state.label().to_string()),
            ),
            (
                "tenants".to_string(),
                Json::Arr(self.tenants.iter().cloned().map(Json::Str).collect()),
            ),
            ("attempts".to_string(), Json::Arr(self.attempts.clone())),
            ("seconds".to_string(), Json::Num(self.seconds)),
        ];
        if let Some(error) = &self.error {
            fields.push(("error".to_string(), Json::Str(error.clone())));
        }
        if let Some(cache) = &self.cache {
            fields.push(("cache".to_string(), Json::Str(cache.clone())));
        }
        if self.state.has_artefact() {
            fields.push((
                "artefact".to_string(),
                Json::Str(format!("/v1/artefacts/{}", self.digest)),
            ));
        }
        Json::Obj(fields)
    }
}

/// Why a submission was turned away.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The tenant already has `quota` jobs in flight.
    TenantQuota {
        /// Tenant whose quota is exhausted.
        tenant: String,
        /// The configured per-tenant cap.
        quota: usize,
    },
    /// The daemon already has `max` jobs in flight across all tenants.
    GlobalInflight {
        /// The configured global cap.
        max: usize,
    },
}

impl Rejection {
    /// The typed error clients receive with the 429.
    #[must_use]
    pub fn to_error(&self) -> DarksilError {
        match self {
            Self::TenantQuota { tenant, quota } => DarksilError::capacity(format!(
                "tenant '{tenant}' already has {quota} jobs in flight (per-tenant quota)"
            )),
            Self::GlobalInflight { max } => DarksilError::capacity(format!(
                "daemon already has {max} jobs in flight (global --max-inflight cap)"
            )),
        }
    }
}

/// Outcome of an admission attempt.
#[derive(Debug)]
pub enum Admission {
    /// The digest is new; the caller must spool, journal, and enqueue
    /// it.
    New,
    /// The digest is already tracked; the submission was deduped onto
    /// the existing record (returned here).
    Duplicate(JobRecord),
}

/// Monotonic service counters surfaced via `/v1/stats`.
#[derive(Debug, Default, Clone)]
pub struct ServiceStats {
    /// Submissions admitted as new jobs.
    pub admitted: u64,
    /// Submissions deduped onto an existing digest.
    pub deduped: u64,
    /// Submissions rejected by a per-tenant quota.
    pub rejected_tenant: u64,
    /// Submissions rejected by the global in-flight cap.
    pub rejected_global: u64,
    /// Requests rejected before routing (malformed HTTP or JSON).
    pub bad_requests: u64,
}

/// One step of a watch long-poll (see [`Registry::watch`]).
#[derive(Debug)]
pub enum WatchStep {
    /// New transition lines since the caller's cursor. When `terminal`
    /// is set the job reached a final state and the stream should end
    /// after these lines.
    Advanced {
        /// The new lines, oldest first (may be empty on a terminal
        /// re-poll).
        lines: Vec<Json>,
        /// The caller's next cursor.
        cursor: usize,
        /// Whether the job is done/degraded/failed.
        terminal: bool,
    },
    /// No new transitions within the timeout — send a heartbeat.
    Idle,
    /// The digest is not tracked.
    Unknown,
}

struct Inner {
    jobs: BTreeMap<String, JobRecord>,
    stats: ServiceStats,
}

/// The shared job table. See the module docs for the locking story.
pub struct Registry {
    inner: Mutex<Inner>,
    changed: Condvar,
    max_inflight: usize,
    tenant_quota: usize,
}

impl Registry {
    /// An empty registry with the given admission limits (both clamped
    /// to at least 1).
    #[must_use]
    pub fn new(max_inflight: usize, tenant_quota: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                jobs: BTreeMap::new(),
                stats: ServiceStats::default(),
            }),
            changed: Condvar::new(),
            max_inflight: max_inflight.max(1),
            tenant_quota: tenant_quota.max(1),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A poisoned registry lock means a handler panicked while
        // holding it; the table is a cache over durable state, so
        // continuing with whatever it holds is safe.
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Admits `digest` for `tenant`, enforcing dedup, the tenant
    /// quota, and the global in-flight cap atomically.
    ///
    /// # Errors
    ///
    /// A [`Rejection`] when a quota or the global cap is hit.
    pub fn admit(&self, digest: &str, tenant: &str) -> Result<Admission, Rejection> {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(digest) {
            if !record.tenants.iter().any(|t| t == tenant) {
                record.tenants.push(tenant.to_string());
            }
            let snapshot = record.clone();
            inner.stats.deduped += 1;
            return Ok(Admission::Duplicate(snapshot));
        }
        let inflight = inner
            .jobs
            .values()
            .filter(|j| j.state.is_inflight())
            .count();
        if inflight >= self.max_inflight {
            inner.stats.rejected_global += 1;
            return Err(Rejection::GlobalInflight {
                max: self.max_inflight,
            });
        }
        let tenant_load = inner
            .jobs
            .values()
            .filter(|j| j.state.is_inflight() && j.tenants.iter().any(|t| t == tenant))
            .count();
        if tenant_load >= self.tenant_quota {
            inner.stats.rejected_tenant += 1;
            return Err(Rejection::TenantQuota {
                tenant: tenant.to_string(),
                quota: self.tenant_quota,
            });
        }
        inner.jobs.insert(
            digest.to_string(),
            JobRecord {
                digest: digest.to_string(),
                tenants: vec![tenant.to_string()],
                state: JobState::Queued,
                error: None,
                attempts: Vec::new(),
                seconds: 0.0,
                cache: None,
                transitions: vec![state_line(JobState::Queued.label())],
            },
        );
        inner.stats.admitted += 1;
        Ok(Admission::New)
    }

    /// Inserts a record directly, bypassing admission — used when
    /// rebuilding the table from the journal on restart.
    pub fn restore(&self, mut record: JobRecord) {
        if record.transitions.is_empty() {
            record.transitions.push(state_line(record.state.label()));
        }
        let mut inner = self.lock();
        inner.jobs.insert(record.digest.clone(), record);
    }

    /// Removes a job admitted moments ago whose spool/journal write
    /// failed, releasing its in-flight slot.
    pub fn evict(&self, digest: &str) {
        let mut inner = self.lock();
        inner.jobs.remove(digest);
        drop(inner);
        self.changed.notify_all();
    }

    /// Marks a job running.
    pub fn set_running(&self, digest: &str) {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(digest) {
            record.state = JobState::Running;
            record
                .transitions
                .push(state_line(JobState::Running.label()));
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Appends one supervisor-side transition line (attempt started,
    /// backoff scheduled, …) to a job's watch log and wakes watchers.
    pub fn note_transition(&self, digest: &str, line: Json) {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(digest) {
            record.transitions.push(line);
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// Records a terminal state.
    pub fn finish(
        &self,
        digest: &str,
        state: JobState,
        error: Option<String>,
        attempts: Vec<Json>,
        seconds: f64,
        cache: Option<String>,
    ) {
        let mut inner = self.lock();
        if let Some(record) = inner.jobs.get_mut(digest) {
            record.state = state;
            let mut line = vec![("state".to_string(), Json::Str(state.label().to_string()))];
            if let Some(message) = &error {
                line.push(("error".to_string(), Json::Str(message.clone())));
            }
            record.transitions.push(Json::Obj(line));
            record.error = error;
            record.attempts = attempts;
            record.seconds = seconds;
            record.cache = cache;
        }
        drop(inner);
        self.changed.notify_all();
    }

    /// A snapshot of one job.
    #[must_use]
    pub fn get(&self, digest: &str) -> Option<JobRecord> {
        self.lock().jobs.get(digest).cloned()
    }

    /// Number of jobs currently queued or running.
    #[must_use]
    pub fn inflight(&self) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|j| j.state.is_inflight())
            .count()
    }

    /// Number of jobs admitted but not yet picked up by a worker.
    #[must_use]
    pub fn queued(&self) -> usize {
        self.lock()
            .jobs
            .values()
            .filter(|j| matches!(j.state, JobState::Queued))
            .count()
    }

    /// Counts a request rejected before routing.
    pub fn note_bad_request(&self) {
        self.lock().stats.bad_requests += 1;
        darksil_obs::counter_add("darksil_serve_bad_requests_total", &[], 1);
    }

    /// Returns transition lines past `cursor`, blocking up to
    /// `timeout` for new ones. The caller streams the returned lines,
    /// advances its cursor, and stops once `terminal` is set; an
    /// [`WatchStep::Idle`] step is the heartbeat signal.
    #[must_use]
    pub fn watch(&self, digest: &str, cursor: usize, timeout: Duration) -> WatchStep {
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock();
        loop {
            let Some(record) = inner.jobs.get(digest) else {
                return WatchStep::Unknown;
            };
            let terminal = !record.state.is_inflight();
            if record.transitions.len() > cursor || terminal {
                let lines = record
                    .transitions
                    .get(cursor..)
                    .unwrap_or_default()
                    .to_vec();
                return WatchStep::Advanced {
                    cursor: cursor + lines.len(),
                    lines,
                    terminal,
                };
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return WatchStep::Idle;
            }
            let (guard, _) = match self.changed.wait_timeout(inner, deadline - now) {
                Ok(pair) => pair,
                Err(poisoned) => poisoned.into_inner(),
            };
            inner = guard;
        }
    }

    /// The `/v1/stats` document: per-state job counts plus admission
    /// counters.
    #[must_use]
    pub fn stats_json(&self, draining: bool) -> Json {
        let inner = self.lock();
        let mut by_state: BTreeMap<&'static str, u64> = BTreeMap::new();
        for state in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Degraded,
            JobState::Failed,
        ] {
            by_state.insert(state.label(), 0);
        }
        for job in inner.jobs.values() {
            *by_state.entry(job.state.label()).or_insert(0) += 1;
        }
        let jobs = Json::Obj(
            by_state
                .into_iter()
                .map(|(label, count)| (label.to_string(), count.to_json()))
                .collect(),
        );
        let stats = &inner.stats;
        Json::Obj(vec![
            ("jobs".to_string(), jobs),
            ("admitted".to_string(), stats.admitted.to_json()),
            ("deduped".to_string(), stats.deduped.to_json()),
            (
                "rejected_tenant_quota".to_string(),
                stats.rejected_tenant.to_json(),
            ),
            (
                "rejected_inflight".to_string(),
                stats.rejected_global.to_json(),
            ),
            ("bad_requests".to_string(), stats.bad_requests.to_json()),
            ("draining".to_string(), Json::Bool(draining)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_then_dedups_the_same_digest_across_tenants() {
        let registry = Registry::new(8, 4);
        assert!(matches!(registry.admit("d1", "alice"), Ok(Admission::New)));
        match registry.admit("d1", "bob") {
            Ok(Admission::Duplicate(record)) => {
                assert_eq!(record.tenants, vec!["alice", "bob"]);
                assert_eq!(record.state, JobState::Queued);
            }
            other => panic!("expected dedup, got {other:?}"),
        }
        assert_eq!(registry.inflight(), 1);
    }

    #[test]
    fn tenant_quota_and_global_cap_reject_with_429_material() {
        let registry = Registry::new(3, 2);
        assert!(registry.admit("a", "alice").is_ok());
        assert!(registry.admit("b", "alice").is_ok());
        match registry.admit("c", "alice") {
            Err(Rejection::TenantQuota { tenant, quota }) => {
                assert_eq!(tenant, "alice");
                assert_eq!(quota, 2);
            }
            other => panic!("expected tenant quota rejection, got {other:?}"),
        }
        assert!(registry.admit("c", "bob").is_ok());
        match registry.admit("d", "carol") {
            Err(Rejection::GlobalInflight { max }) => assert_eq!(max, 3),
            other => panic!("expected global rejection, got {other:?}"),
        }
        // Finishing a job frees both the tenant and global slots.
        registry.finish("a", JobState::Done, None, Vec::new(), 0.1, None);
        assert!(registry.admit("d", "carol").is_ok());
    }

    #[test]
    fn watch_streams_transitions_and_ends_on_terminal() {
        let registry = std::sync::Arc::new(Registry::new(4, 4));
        assert!(registry.admit("w1", "alice").is_ok());
        // The queued line is visible immediately.
        let step = registry.watch("w1", 0, Duration::from_millis(10));
        let cursor = match step {
            WatchStep::Advanced {
                lines,
                cursor,
                terminal,
            } => {
                assert_eq!(lines.len(), 1);
                assert_eq!(
                    lines[0].get("state"),
                    Some(&Json::Str("queued".to_string()))
                );
                assert!(!terminal);
                cursor
            }
            other => panic!("expected queued line, got {other:?}"),
        };
        // Nothing new: the poll times out into a heartbeat.
        assert!(matches!(
            registry.watch("w1", cursor, Duration::from_millis(5)),
            WatchStep::Idle
        ));
        // A finisher on another thread wakes the blocked watcher.
        let worker = {
            let registry = std::sync::Arc::clone(&registry);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                registry.set_running("w1");
                registry.note_transition(
                    "w1",
                    Json::Obj(vec![("kind".to_string(), Json::Str("attempt".to_string()))]),
                );
                registry.finish("w1", JobState::Done, None, Vec::new(), 0.1, None);
            })
        };
        let step = registry.watch("w1", cursor, Duration::from_secs(5));
        worker.join().expect("finisher thread");
        match step {
            WatchStep::Advanced {
                lines, terminal, ..
            } => {
                assert!(!lines.is_empty());
                assert_eq!(
                    lines[0].get("state"),
                    Some(&Json::Str("running".to_string()))
                );
                // Depending on timing we may see all three lines at
                // once; the final observed poll must be terminal once
                // the done line is included.
                if lines.len() == 3 {
                    assert!(terminal);
                    assert_eq!(lines[2].get("state"), Some(&Json::Str("done".to_string())));
                }
            }
            other => panic!("expected transitions, got {other:?}"),
        }
        // A caught-up watcher on a finished job sees an empty terminal
        // step, and unknown digests report as such.
        let total = registry.get("w1").expect("record").transitions.len();
        assert!(matches!(
            registry.watch("w1", total, Duration::from_millis(5)),
            WatchStep::Advanced { terminal: true, .. }
        ));
        assert!(matches!(
            registry.watch("nope", 0, Duration::from_millis(5)),
            WatchStep::Unknown
        ));
    }

    #[test]
    fn stats_document_counts_states_and_rejections() {
        let registry = Registry::new(1, 1);
        assert!(registry.admit("a", "alice").is_ok());
        assert!(registry.admit("b", "bob").is_err());
        registry.note_bad_request();
        let stats = registry.stats_json(true);
        let text = stats.pretty();
        assert!(text.contains("\"queued\": 1"), "{text}");
        assert!(text.contains("\"rejected_inflight\": 1"), "{text}");
        assert!(text.contains("\"bad_requests\": 1"), "{text}");
        assert!(text.contains("\"draining\": true"), "{text}");
    }
}
