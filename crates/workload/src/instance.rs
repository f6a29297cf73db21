//! Application instances and workloads.

use std::error::Error;
use std::fmt;

use darksil_archsim::CoreModel;
use darksil_units::{Gips, Hertz};

use crate::{AppProfile, ParsecApp, MAX_THREADS_PER_INSTANCE};

/// Errors produced when building workloads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// Thread count outside `1..=MAX_THREADS_PER_INSTANCE`.
    InvalidThreadCount {
        /// The offending count.
        threads: usize,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidThreadCount { threads } => write!(
                f,
                "thread count {threads} outside 1..={MAX_THREADS_PER_INSTANCE}"
            ),
        }
    }
}

impl Error for WorkloadError {}

/// One running copy of an application with a fixed thread count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppInstance {
    app: ParsecApp,
    threads: usize,
}

impl AppInstance {
    /// Creates an instance of `app` with `threads` dependent threads.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidThreadCount`] outside
    /// `1..=`[`MAX_THREADS_PER_INSTANCE`].
    pub fn new(app: ParsecApp, threads: usize) -> Result<Self, WorkloadError> {
        if threads == 0 || threads > MAX_THREADS_PER_INSTANCE {
            return Err(WorkloadError::InvalidThreadCount { threads });
        }
        Ok(Self { app, threads })
    }

    /// The application.
    #[must_use]
    pub const fn app(&self) -> ParsecApp {
        self.app
    }

    /// Number of threads (= cores this instance occupies when mapped).
    #[must_use]
    pub const fn threads(&self) -> usize {
        self.threads
    }

    /// The application's profile.
    #[must_use]
    pub fn profile(&self) -> AppProfile {
        self.app.profile()
    }

    /// Per-core activity factor of this instance.
    #[must_use]
    pub fn activity(&self) -> f64 {
        self.profile().activity(self.threads)
    }

    /// Instance throughput at frequency `f`.
    #[must_use]
    pub fn gips(&self, core: &CoreModel, f: Hertz) -> Gips {
        self.profile().instance_gips(core, self.threads, f)
    }
}

impl fmt::Display for AppInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}×{}t", self.app, self.threads)
    }
}

/// An ordered collection of application instances to be mapped onto a
/// chip.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Workload {
    instances: Vec<AppInstance>,
}

impl Workload {
    /// Creates an empty workload.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `count` identical instances of `app`, each with `threads`
    /// threads — the homogeneous workloads of Figures 5–7 and 11–14.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidThreadCount`] for invalid thread
    /// counts.
    pub fn uniform(app: ParsecApp, count: usize, threads: usize) -> Result<Self, WorkloadError> {
        let instance = AppInstance::new(app, threads)?;
        Ok(Self {
            instances: vec![instance; count],
        })
    }

    /// A mixed workload cycling through all seven applications — the
    /// "application mixes" of Figure 9.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidThreadCount`] for invalid thread
    /// counts.
    pub fn parsec_mix(instances: usize, threads: usize) -> Result<Self, WorkloadError> {
        let mut w = Self::new();
        for i in 0..instances {
            w.push(AppInstance::new(
                ParsecApp::ALL[i % ParsecApp::ALL.len()],
                threads,
            )?);
        }
        Ok(w)
    }

    /// Appends an instance.
    pub fn push(&mut self, instance: AppInstance) {
        self.instances.push(instance);
    }

    /// The instances in order.
    #[must_use]
    pub fn instances(&self) -> &[AppInstance] {
        &self.instances
    }

    /// Number of instances.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the workload has no instances.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Total threads (= cores required to map everything).
    #[must_use]
    pub fn total_threads(&self) -> usize {
        self.instances.iter().map(AppInstance::threads).sum()
    }

    /// Total throughput with every instance at frequency `f`.
    #[must_use]
    pub fn total_gips(&self, core: &CoreModel, f: Hertz) -> Gips {
        self.instances.iter().map(|i| i.gips(core, f)).sum()
    }

    /// Iterates over the instances.
    pub fn iter(&self) -> std::slice::Iter<'_, AppInstance> {
        self.instances.iter()
    }
}

impl FromIterator<AppInstance> for Workload {
    fn from_iter<I: IntoIterator<Item = AppInstance>>(iter: I) -> Self {
        Self {
            instances: iter.into_iter().collect(),
        }
    }
}

impl Extend<AppInstance> for Workload {
    fn extend<I: IntoIterator<Item = AppInstance>>(&mut self, iter: I) {
        self.instances.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Workload {
    type Item = &'a AppInstance;
    type IntoIter = std::slice::Iter<'a, AppInstance>;

    fn into_iter(self) -> Self::IntoIter {
        self.instances.iter()
    }
}

impl IntoIterator for Workload {
    type Item = AppInstance;
    type IntoIter = std::vec::IntoIter<AppInstance>;

    fn into_iter(self) -> Self::IntoIter {
        self.instances.into_iter()
    }
}

impl From<WorkloadError> for darksil_robust::DarksilError {
    fn from(e: WorkloadError) -> Self {
        Self::config(e.to_string())
    }
}

impl darksil_json::ToJson for AppInstance {
    fn to_json(&self) -> darksil_json::Json {
        darksil_json::Json::Obj(vec![
            ("app".to_string(), self.app.to_json()),
            ("threads".to_string(), self.threads.to_json()),
        ])
    }
}

impl darksil_json::FromJson for AppInstance {
    fn from_json(v: &darksil_json::Json) -> Result<Self, darksil_json::JsonError> {
        let mut obj = darksil_json::ObjReader::new(v, "AppInstance")?;
        let app = obj.req("app")?;
        let threads = obj.req("threads")?;
        obj.finish()?;
        Self::new(app, threads)
            .map_err(|e| darksil_json::JsonError::msg(e.to_string()).in_field("threads"))
    }
}

impl darksil_json::ToJson for Workload {
    fn to_json(&self) -> darksil_json::Json {
        self.instances.to_json()
    }
}

impl darksil_json::FromJson for Workload {
    fn from_json(v: &darksil_json::Json) -> Result<Self, darksil_json::JsonError> {
        Ok(Self {
            instances: Vec::from_json(v)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instance_validation() {
        assert!(AppInstance::new(ParsecApp::X264, 0).is_err());
        assert!(AppInstance::new(ParsecApp::X264, 9).is_err());
        let i = AppInstance::new(ParsecApp::X264, 8).expect("valid workload");
        assert_eq!(i.threads(), 8);
        assert_eq!(i.app(), ParsecApp::X264);
        assert_eq!(i.to_string(), "x264×8t");
    }

    #[test]
    fn uniform_workload() {
        let w = Workload::uniform(ParsecApp::Ferret, 12, 8).expect("valid workload");
        assert_eq!(w.len(), 12);
        assert_eq!(w.total_threads(), 96);
        assert!(!w.is_empty());
    }

    #[test]
    fn mix_cycles_through_all_apps() {
        let w = Workload::parsec_mix(14, 4).expect("valid workload");
        assert_eq!(w.len(), 14);
        // Two full cycles of the seven apps.
        let x264_count = w.iter().filter(|i| i.app() == ParsecApp::X264).count();
        assert_eq!(x264_count, 2);
        assert_eq!(w.total_threads(), 56);
    }

    #[test]
    fn total_gips_is_sum_of_instances() {
        let core = CoreModel::alpha_21264();
        let f = Hertz::from_ghz(3.0);
        let w = Workload::uniform(ParsecApp::Dedup, 3, 4).expect("valid workload");
        let one = AppInstance::new(ParsecApp::Dedup, 4)
            .expect("valid workload")
            .gips(&core, f);
        assert!((w.total_gips(&core, f).value() - 3.0 * one.value()).abs() < 1e-9);
    }

    #[test]
    fn more_threads_more_gips_per_instance() {
        let core = CoreModel::alpha_21264();
        let f = Hertz::from_ghz(3.0);
        for app in ParsecApp::ALL {
            let g1 = AppInstance::new(app, 1)
                .expect("valid workload")
                .gips(&core, f);
            let g8 = AppInstance::new(app, 8)
                .expect("valid workload")
                .gips(&core, f);
            assert!(g8 > g1, "{app}");
        }
    }

    #[test]
    fn collect_and_extend() {
        let mut w: Workload = (1..=4)
            .map(|t| AppInstance::new(ParsecApp::Canneal, t).expect("valid workload"))
            .collect();
        assert_eq!(w.total_threads(), 10);
        w.extend([AppInstance::new(ParsecApp::X264, 2).expect("valid workload")]);
        assert_eq!(w.len(), 5);
        let threads: Vec<usize> = (&w).into_iter().map(AppInstance::threads).collect();
        assert_eq!(threads, vec![1, 2, 3, 4, 2]);
    }

    #[test]
    fn empty_workload_zero_gips() {
        let w = Workload::new();
        assert!(w.is_empty());
        assert_eq!(
            w.total_gips(&CoreModel::alpha_21264(), Hertz::from_ghz(2.0)),
            Gips::zero()
        );
    }

    #[test]
    fn error_display() {
        let e = AppInstance::new(ParsecApp::X264, 99).unwrap_err();
        assert!(e.to_string().contains("99"));
    }
}
