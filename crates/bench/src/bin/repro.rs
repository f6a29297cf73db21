//! `repro` — regenerate every table and figure of the paper. Run
//! `repro --help` for the artefacts, the flag reference and the
//! exit-code semantics.
//!
//! Every artefact runs in isolation as a **supervised** `darksil-engine`
//! job: each attempt gets a wall-clock deadline (per artefact class,
//! overridable with `--deadline`) observed cooperatively at CG-iteration
//! and policy-step boundaries; retryable failures re-run with seeded
//! jittered exponential backoff under a per-class circuit breaker; and
//! thermal artefacts that exhaust their retries re-run once in declared
//! degraded mode (relaxed CG tolerance), tagging the artefact JSON with
//! `"degraded": true` instead of leaving a hole in the figure set.
//!
//! Progress is journalled per artefact to `results/run_journal.json`
//! (atomic temp-file + rename on every transition), so a killed run can
//! be continued with `--resume`: completed artefacts are skipped —
//! their JSON files were written *before* the journal marked them done
//! — and interrupted or failed ones are re-queued. Results come back in
//! artefact order, so emitted files and the console report are
//! identical at any `--jobs` setting.
//!
//! Artefact payloads are memoised in a content-addressed cache keyed by
//! the scenario inputs (fidelity) plus a code-version salt; a warm run
//! replays the stored JSON instead of recomputing. Corrupt or stale
//! entries fall back to recomputation with a typed diagnostic. Degraded
//! payloads are never cached.
//!
//! `--profile` turns on `darksil-obs` tracing for the run: per-artefact
//! spans (with engine/numerics/thermal child spans) land in
//! `results/trace_repro.json`, and an aggregated perf report with
//! regression bounds is written to `BENCH_repro.json` in the working
//! directory. Artefact payloads are byte-identical with profiling on or
//! off — the trace is a parallel output, never an input.

use std::env;
use std::fmt::Write as _;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use darksil_bench::{
    fig14_total_energy, ArtefactState, Fidelity, Journal, JournalEntry, DEFAULT_JOURNAL_PATH,
};
use darksil_engine::{
    BackoffPolicy, CacheOutcome, Engine, JobSpec, ResultCache, Supervised, Supervisor,
    DEFAULT_CACHE_DIR,
};
use darksil_json::{Json, ToJson};
use darksil_robust::args::{self, Args, Flag, ParseError, Parsed, Spec};
use darksil_robust::{DarksilError, Fault, FaultPlan};

/// Bump whenever an artefact's generating code changes meaning: the
/// salt is folded into every cache key, so stale entries from older
/// binaries become unreachable instead of being replayed.
const CACHE_SALT: &str = "repro-v1";

/// Usage-error exit code, distinct from artefact failures (1).
const EXIT_USAGE: u8 = 2;

/// The artefacts `repro` can regenerate, as its synopsis shows them.
const ARTEFACTS: &str = "<table1|fig2..fig14|dtm|aging|variability|cooling|pareto|all>...";

/// `repro`'s one command: artefact names and these flags, in the order
/// `repro --help` lists them.
const REPRO: [Spec<Options>; 1] = [Spec {
    words: "",
    operands: ARTEFACTS,
    max_operands: usize::MAX,
    flags: &[
        Flag::value("--json", "DIR", "a directory")
            .help("additionally write machine-readable series to DIR"),
        Flag::switch("--paper").help("run transients at the paper's full horizons (slow)"),
        Flag::value("--inject", "A[:KIND]", "an artefact name").help(
            "inject a fault into artefact A. KIND: nan (default, NaN power into the thermal \
             solver — not retryable), hang (cooperative spin until the deadline cancels it), \
             slow (1.5 s stall before the work), transient (fails the first attempt, \
             succeeds on retry)",
        ),
        Flag::switch("--no-cache").help("recompute every artefact, bypassing the result cache"),
        Flag::value("--cache-dir", "DIR", "a directory")
            .help("result-cache location (default results/.cache)"),
        Flag::value("--deadline", "SECS", "a positive number of seconds").help(
            "per-attempt wall-clock budget for every artefact, overriding the class defaults \
             (fast 60 s, steady-state thermal 300 s, transient 600 s)",
        ),
        Flag::value("--retries", "N", "a non-negative integer").help(
            "retries per artefact after the first attempt (default 2; only retryable error \
             classes re-run)",
        ),
        Flag::switch("--resume").help(
            "continue an interrupted run: artefacts the journal records as done/degraded are \
             skipped, interrupted and failed ones are re-queued. The selection, fidelity and \
             injection flags must match the journalled run.",
        ),
        Flag::value("--journal", "PATH", "a file path")
            .help("journal location (default results/run_journal.json)"),
        Flag::switch("--profile").help(
            "record a darksil-obs trace of the run: writes results/trace_repro.json (the span \
             tree — inspect with `darksil trace summarize`) and BENCH_repro.json (aggregated \
             per-phase timings with regression bounds; the committed copy is the CI \
             baseline). Artefact payloads are unaffected",
        ),
        Flag::switch("--events").help(
            "record the domain event stream (thermal samples, DVFS transitions, mapping \
             decisions, TSP budgets): writes results/events_<selection>.jsonl — inspect with \
             `darksil events summarize` or render with `darksil report` — plus \
             results/trace_repro.json. The stream is byte-identical at any --jobs setting",
        ),
    ],
    build: options,
}];

/// The usage text: synopsis and flag reference rendered from [`REPRO`].
fn usage() -> String {
    let [spec] = &REPRO;
    let words = std::iter::once(ARTEFACTS.to_string())
        .chain(args::flag_words(spec.flags))
        .chain(args::flag_words(&args::GLOBAL));
    format!(
        "{}\n\n  several artefact names may be given (e.g. `repro table1 fig2 fig8`);\n  \
         `all` selects every artefact and cannot be combined with names\n\n{}\n{}\n\n\
         exit codes:\n  \
         0  every artefact completed; a warning is printed on stderr when any\n     \
         finished in declared degraded mode\n  \
         1  at least one artefact failed (or a report could not be written)\n  \
         2  usage error (bad flags, unknown artefact, or --resume with a\n     \
         missing or mismatched journal)",
        args::wrap("usage: repro ", words),
        args::reference(spec.flags),
        args::reference(&args::GLOBAL),
    )
}

/// A parsed `repro` command line: the runners read the artefact
/// settings, `main` the rest.
struct Options {
    json_dir: Option<PathBuf>,
    fidelity: Fidelity,
    inject: Option<Inject>,
    cache: Option<ResultCache>,
    deadline_override: Option<Duration>,
    retries: u32,
    /// The selected artefacts, deduplicated, in the order named.
    selected: Vec<Runner>,
    /// Whether `all` was named: it labels the run and prints a header
    /// before each artefact.
    all: bool,
    resume: bool,
    journal_path: PathBuf,
    profile: bool,
    events: bool,
}

/// What `--inject` asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InjectKind {
    /// NaN power into the thermal solver (class `non_finite`, not
    /// retryable — the run must fail).
    Nan,
    /// Cooperative infinite spin; only the deadline ends it.
    Hang,
    /// A 1.5 s stall before the real work.
    Slow,
    /// Fails the first attempt with an `injected`-class error, then
    /// succeeds.
    Transient,
}

impl InjectKind {
    fn parse(kind: &str) -> Option<Self> {
        match kind {
            "nan" => Some(Self::Nan),
            "hang" => Some(Self::Hang),
            "slow" => Some(Self::Slow),
            "transient" => Some(Self::Transient),
            _ => None,
        }
    }

    fn label(self) -> &'static str {
        match self {
            Self::Nan => "nan",
            Self::Hang => "hang",
            Self::Slow => "slow",
            Self::Transient => "transient",
        }
    }
}

#[derive(Debug, Clone)]
struct Inject {
    artefact: String,
    kind: InjectKind,
}

/// An artefact builder: buffers its human-readable report into `out`
/// and returns the machine-readable payload.
type RunnerFn = fn(&Options, &mut String) -> Result<Json, Box<dyn std::error::Error>>;

/// One named artefact runner for the dispatch tables.
type Runner = (&'static str, RunnerFn);

const RUNNERS: [Runner; 19] = [
    ("table1", table1),
    ("fig2", fig2),
    ("fig3", fig3),
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("dtm", dtm),
    ("aging", aging),
    ("variability", variability),
    ("cooling", cooling),
    ("pareto", pareto),
];

/// The supervision class of one artefact: closed-form/architectural
/// artefacts are `fast`, steady-state thermal solves `thermal`, and
/// transient policy simulations `transient`. The class picks the
/// default deadline and shares a circuit breaker.
fn artefact_class(name: &str) -> &'static str {
    match name {
        "table1" | "fig2" | "fig3" | "fig4" => "fast",
        "fig11" | "fig12" | "fig13" | "fig14" => "transient",
        _ => "thermal",
    }
}

/// Default per-attempt wall-clock budget for a supervision class.
fn default_deadline(class: &str) -> Duration {
    match class {
        "fast" => Duration::from_secs(60),
        "transient" => Duration::from_secs(600),
        _ => Duration::from_secs(300),
    }
}

/// The result of one isolated artefact run.
struct ArtefactOutcome {
    name: &'static str,
    /// `ok`, `error` or `panic`.
    status: &'static str,
    /// Whether an `ok` outcome came from the declared-degraded
    /// fallback.
    degraded: bool,
    /// The classified error for non-`ok` outcomes.
    error: Option<DarksilError>,
    /// Wall-clock seconds spent (across all attempts).
    seconds: f64,
    /// `hit`, `miss`, `recovered`, `resume` or `off`.
    cache: &'static str,
    /// Supervision attempt timeline (empty for cache hits and resumes).
    attempts: Vec<Json>,
}

impl ArtefactOutcome {
    fn succeeded(&self) -> bool {
        self.status == "ok"
    }
}

impl ToJson for ArtefactOutcome {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("artefact".to_string(), Json::Str(self.name.to_string())),
            ("status".to_string(), Json::Str(self.status.to_string())),
            ("degraded".to_string(), Json::Bool(self.degraded)),
            ("seconds".to_string(), Json::Num(self.seconds)),
        ];
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), e.to_json()));
        }
        if !self.attempts.is_empty() {
            fields.push(("attempts".to_string(), Json::Arr(self.attempts.clone())));
        }
        Json::Obj(fields)
    }
}

/// Everything a finished artefact job hands back to the reporter.
struct ArtefactRun {
    outcome: ArtefactOutcome,
    /// The buffered human-readable report (empty on cache hits), with
    /// any `[wrote …]` lines appended — printed in artefact order by
    /// the reporter so stdout is deterministic at any `--jobs`.
    text: String,
}

/// Builds the options [`args::parse`] read. An empty error means no
/// artefact was named, which prints the usage alone.
fn options(p: &Args) -> Result<Options, ParseError> {
    let inject = p.get("--inject", |spec| {
        let (artefact, kind) = spec.split_once(':').unwrap_or((spec, "nan"));
        let kind = InjectKind::parse(kind).ok_or_else(|| {
            format!("unknown inject kind {kind:?} (expected nan, hang, slow or transient)")
        })?;
        let artefact = artefact.to_string();
        Ok(Inject { artefact, kind })
    })?;
    let deadline = p.number("--deadline")?;
    if deadline.is_some_and(|secs| !(secs > 0.0 && secs.is_finite())) {
        return Err("--deadline expects a positive number of seconds".into());
    }
    let all = p.operands.iter().any(|name| name == "all");
    if p.operands.is_empty() {
        return Err(ParseError(String::new()));
    } else if all && p.operands.len() > 1 {
        return Err("`all` cannot be combined with artefact names".into());
    }
    let selected: Vec<Runner> = if all {
        RUNNERS.to_vec()
    } else {
        let mut picked: Vec<Runner> = Vec::new();
        for name in &p.operands {
            let runner = RUNNERS.iter().find(|(known, _)| known == name);
            let runner = runner.ok_or_else(|| format!("unknown artefact {name}"))?;
            if !picked.iter().any(|(n, _)| n == &runner.0) {
                picked.push(*runner);
            }
        }
        picked
    };
    let cache_dir = p.text("--cache-dir").unwrap_or(DEFAULT_CACHE_DIR);
    let journal_path = p.text("--journal").unwrap_or(DEFAULT_JOURNAL_PATH);
    Ok(Options {
        json_dir: p.text("--json").map(PathBuf::from),
        fidelity: if p.has("--paper") {
            Fidelity::Paper
        } else {
            Fidelity::Quick
        },
        inject,
        cache: (!p.has("--no-cache")).then(|| ResultCache::open(cache_dir, CACHE_SALT)),
        deadline_override: deadline.map(Duration::from_secs_f64),
        retries: p.integer("--retries")?.unwrap_or(2),
        selected,
        all,
        resume: p.has("--resume"),
        journal_path: PathBuf::from(journal_path),
        profile: p.has("--profile"),
        events: p.has("--events"),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let (options, jobs) = match args::parse(&REPRO, &args) {
        Ok(Parsed::Help) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Ok(Parsed::Run(options, jobs)) => (options, jobs),
        Err(e) => return usage_error(&e.0),
    };
    let jobs = jobs.unwrap_or_else(darksil_engine::default_jobs).max(1);
    // Nested engine fan-outs (inside the figures) follow the same
    // setting as the artefact-level pool.
    darksil_engine::set_default_jobs(jobs);

    let names: Vec<&'static str> = options.selected.iter().map(|(name, _)| *name).collect();
    // Stable label for the journal fingerprint and the profile reports:
    // `all`, a single name, or the deduplicated names joined with `+`.
    let selection_label = if options.all {
        "all".to_string()
    } else {
        names.join("+")
    };

    // The journal fingerprints everything that shapes artefact content;
    // resuming under a different configuration would mix incompatible
    // results, so a mismatch is a usage error.
    let fingerprint = run_fingerprint(&selection_label, &options);
    let journal = if options.resume {
        let journal = match Journal::load(&options.journal_path) {
            Ok(journal) => journal,
            Err(e) => {
                eprintln!("repro --resume: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        };
        if journal.config() != &fingerprint {
            eprintln!(
                "repro --resume: journal {} was recorded for a different run \
                 configuration\n  journalled: {}\n  requested:  {}",
                options.journal_path.display(),
                journal.config().compact(),
                fingerprint.compact()
            );
            return ExitCode::from(EXIT_USAGE);
        }
        let requeued = journal.requeue_unfinished();
        let completed = journal.completed_names().len();
        eprintln!(
            "repro --resume: {completed} artefact(s) already complete, \
             {requeued} re-queued"
        );
        journal
    } else {
        Journal::create(&options.journal_path, fingerprint, &names)
    };
    if let Err(e) = journal.save() {
        eprintln!("cannot write journal: {e}");
        return ExitCode::FAILURE;
    }

    let supervisor = Supervisor::new(BackoffPolicy::default(), 4);

    // `--events` implies span recording (enable_events is a superset of
    // enable); `--profile` alone records spans only.
    if options.events {
        darksil_obs::enable_events();
    } else if options.profile {
        darksil_obs::enable();
    }
    let root_span = darksil_obs::span("repro.run");
    let started = Instant::now();
    let runs = Engine::new(jobs).par_map(options.selected.clone(), |(name, run)| {
        Ok(run_artefact(name, run, &options, &supervisor, &journal))
    });
    let total_seconds = started.elapsed().as_secs_f64();
    drop(root_span);

    let mut outcomes: Vec<ArtefactOutcome> = Vec::with_capacity(runs.len());
    for (name, run) in names.into_iter().zip(runs) {
        // The engine's own panic isolation is a backstop; `run_artefact`
        // already catches panics, so this arm is not normally reachable.
        let art = run.unwrap_or_else(|e| ArtefactRun {
            outcome: ArtefactOutcome {
                name,
                status: "panic",
                degraded: false,
                error: Some(e.context(name)),
                seconds: 0.0,
                cache: "off",
                attempts: Vec::new(),
            },
            text: String::new(),
        });
        if options.all {
            println!("\n================ {name} ================");
        }
        print!("{}", art.text);
        match art.outcome.cache {
            "hit" => println!("[{name}: cache hit]"),
            "resume" => println!("[{name}: resumed from journal]"),
            _ => {}
        }
        outcomes.push(art.outcome);
    }

    let failed = outcomes.iter().filter(|o| !o.succeeded()).count();
    let degraded = outcomes.iter().filter(|o| o.degraded).count();
    if let Err(e) = write_error_report(&options, &outcomes, failed, degraded) {
        eprintln!("cannot write error report: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = write_bench_report(jobs, total_seconds, &outcomes) {
        eprintln!("cannot write bench report: {e}");
        return ExitCode::FAILURE;
    }
    if options.events || options.profile {
        let (trace, stream) = darksil_obs::drain_all();
        if let Err(e) = write_trace_report(&trace) {
            eprintln!("cannot write trace report: {e}");
            return ExitCode::FAILURE;
        }
        if options.events {
            if let Err(e) = write_event_report(&stream, &selection_label) {
                eprintln!("cannot write event report: {e}");
                return ExitCode::FAILURE;
            }
        }
        if options.profile {
            if let Err(e) =
                write_bench_baseline(&trace, jobs, &selection_label, total_seconds, &outcomes)
            {
                eprintln!("cannot write profile reports: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    for o in outcomes.iter().filter(|o| !o.succeeded()) {
        let detail = o
            .error
            .as_ref()
            .map_or_else(|| "unknown failure".to_string(), ToString::to_string);
        eprintln!("repro {}: {} — {detail}", o.name, o.status);
    }
    if failed == 0 {
        if degraded > 0 {
            eprintln!(
                "repro: warning — {degraded} of {} artefacts completed in degraded \
                 mode (tagged \"degraded\": true in their JSON)",
                outcomes.len()
            );
        }
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "repro: {failed} of {} artefacts failed ({} succeeded)",
            outcomes.len(),
            outcomes.len() - failed
        );
        ExitCode::FAILURE
    }
}

/// Prints a usage diagnostic (the usage alone for an empty message)
/// and returns the usage exit code.
fn usage_error(message: &str) -> ExitCode {
    if message.is_empty() {
        eprintln!("{}", usage());
    } else {
        eprintln!("repro: {message}\n\n{}", usage());
    }
    ExitCode::from(EXIT_USAGE)
}

/// The run-configuration fingerprint embedded in the journal: every
/// flag that shapes artefact content. Cache and parallelism settings
/// are deliberately excluded — they change performance, not payloads.
fn run_fingerprint(selection: &str, options: &Options) -> Json {
    let mut fields = vec![
        ("selection".to_string(), Json::Str(selection.to_string())),
        (
            "fidelity".to_string(),
            Json::Str(fidelity_label(options.fidelity).to_string()),
        ),
    ];
    if let Some(inject) = &options.inject {
        fields.push((
            "inject".to_string(),
            Json::Str(format!("{}:{}", inject.artefact, inject.kind.label())),
        ));
    }
    Json::Obj(fields)
}

fn fidelity_label(fidelity: Fidelity) -> &'static str {
    match fidelity {
        Fidelity::Quick => "quick",
        Fidelity::Paper => "paper",
    }
}

/// The scenario inputs an artefact's payload depends on; folded into
/// the cache key so a fidelity change is a natural cache miss.
fn cache_inputs(options: &Options) -> Json {
    Json::Obj(vec![(
        "fidelity".to_string(),
        Json::Str(fidelity_label(options.fidelity).to_string()),
    )])
}

/// Wraps a degraded artefact payload with the declared accuracy knobs,
/// so downstream consumers can quantify (or reject) the loss.
fn degraded_envelope(payload: Json) -> Json {
    Json::Obj(vec![
        ("degraded".to_string(), Json::Bool(true)),
        (
            "knobs".to_string(),
            Json::Obj(vec![(
                "cg_tolerance".to_string(),
                Json::Num(darksil_thermal::DEGRADED_CG_TOLERANCE),
            )]),
        ),
        ("payload".to_string(), payload),
    ])
}

/// A resumed artefact's synthesized outcome: the journal already
/// records its completion, its JSON file is already on disk.
fn resumed_run(name: &'static str, entry: &JournalEntry) -> ArtefactRun {
    ArtefactRun {
        outcome: ArtefactOutcome {
            name,
            status: "ok",
            degraded: entry.state == ArtefactState::Degraded,
            error: None,
            seconds: entry.seconds,
            cache: "resume",
            attempts: entry.attempts.clone(),
        },
        text: String::new(),
    }
}

/// Runs one artefact under full supervision: a cache consult first,
/// then deadline-bounded attempts with retry/backoff and (for solver
/// classes) a final declared-degraded attempt. Errors are classified
/// into the workspace taxonomy and panics are caught, so one broken
/// figure can never take the others down. Every lifecycle transition is
/// journalled; the artefact JSON is written *before* the journal marks
/// the artefact done, so a kill between the two re-runs the artefact
/// rather than losing its file.
fn run_artefact(
    name: &'static str,
    run: RunnerFn,
    options: &Options,
    supervisor: &Supervisor,
    journal: &Journal,
) -> ArtefactRun {
    let _span = darksil_obs::span_lazy(|| format!("artefact.{name}"));
    // --resume: completed artefacts are skipped outright.
    if journal
        .state_of(name)
        .is_some_and(ArtefactState::is_complete)
    {
        if let Some(entry) = journal.entries().into_iter().find(|e| e.name == name) {
            return resumed_run(name, &entry);
        }
    }
    let started = Instant::now();
    journal_note(journal.transition(name, ArtefactState::Running));

    let injected = options
        .inject
        .as_ref()
        .filter(|inject| inject.artefact == name);
    let cache = options.cache.as_ref().filter(|_| injected.is_none());
    let inputs = cache_inputs(options);
    let mut recovery: Option<DarksilError> = None;
    if let Some(cache) = cache {
        let (found, outcome) = cache.lookup(&cache.key(name, &inputs));
        if let Some(payload) = found {
            let mut text = String::new();
            let status = persist_payload(options, name, &payload, &mut text);
            let seconds = started.elapsed().as_secs_f64();
            return match status {
                Ok(()) => {
                    journal_note(journal.record_finished(
                        name,
                        ArtefactState::Done,
                        None,
                        Vec::new(),
                        seconds,
                    ));
                    ArtefactRun {
                        outcome: ArtefactOutcome {
                            name,
                            status: "ok",
                            degraded: false,
                            error: None,
                            seconds,
                            cache: "hit",
                            attempts: Vec::new(),
                        },
                        text,
                    }
                }
                Err(error) => {
                    journal_note(journal.record_finished(
                        name,
                        ArtefactState::Failed,
                        Some(error.to_string()),
                        Vec::new(),
                        seconds,
                    ));
                    ArtefactRun {
                        outcome: ArtefactOutcome {
                            name,
                            status: "error",
                            degraded: false,
                            error: Some(error),
                            seconds,
                            cache: "hit",
                            attempts: Vec::new(),
                        },
                        text,
                    }
                }
            };
        }
        if let CacheOutcome::Recovered(e) = outcome {
            recovery = Some(e);
        }
    }

    let class = artefact_class(name);
    let spec = JobSpec {
        name: name.to_string(),
        class: class.to_string(),
        deadline: Some(
            options
                .deadline_override
                .unwrap_or_else(|| default_deadline(class)),
        ),
        max_retries: options.retries,
        // Only solver-backed classes have a declared relaxation to
        // fall back to; the closed-form `fast` artefacts do not.
        degrade_on_exhaustion: class != "fast",
    };
    let supervised: Supervised<(Json, String)> = supervisor.run(&spec, || {
        let mut text = String::new();
        let attempt = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(inject) = injected {
                apply_injection(inject, name)?;
            }
            run(options, &mut text)
        }));
        match attempt {
            Ok(Ok(payload)) => Ok((payload, text)),
            Ok(Err(e)) => Err(classify(e.as_ref()).context(name)),
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                Err(DarksilError::internal(format!("artefact panicked: {message}")).context(name))
            }
        }
    });
    let attempts: Vec<Json> = supervised.attempts.iter().map(ToJson::to_json).collect();
    let seconds = started.elapsed().as_secs_f64();
    let miss_label = if cache.is_some() { "miss" } else { "off" };

    match supervised.result {
        Ok((payload, mut text)) => {
            let payload = if supervised.degraded {
                degraded_envelope(payload)
            } else {
                payload
            };
            // Degraded payloads are never cached: a later run at full
            // health must recompute, not replay the relaxed answer.
            if !supervised.degraded {
                if let Some(cache) = cache {
                    if let Err(e) = cache.store(&cache.key(name, &inputs), &payload) {
                        recovery = Some(e);
                    }
                }
            }
            let label = match &recovery {
                Some(e) => {
                    eprintln!("repro {name}: cache diagnostic — {e}");
                    "recovered"
                }
                None => miss_label,
            };
            match persist_payload(options, name, &payload, &mut text) {
                Ok(()) => {
                    let state = if supervised.degraded {
                        ArtefactState::Degraded
                    } else {
                        ArtefactState::Done
                    };
                    journal_note(journal.record_finished(
                        name,
                        state,
                        None,
                        attempts.clone(),
                        seconds,
                    ));
                    ArtefactRun {
                        outcome: ArtefactOutcome {
                            name,
                            status: "ok",
                            degraded: supervised.degraded,
                            error: None,
                            seconds,
                            cache: label,
                            attempts,
                        },
                        text,
                    }
                }
                Err(error) => {
                    journal_note(journal.record_finished(
                        name,
                        ArtefactState::Failed,
                        Some(error.to_string()),
                        attempts.clone(),
                        seconds,
                    ));
                    ArtefactRun {
                        outcome: ArtefactOutcome {
                            name,
                            status: "error",
                            degraded: false,
                            error: Some(error),
                            seconds,
                            cache: label,
                            attempts,
                        },
                        text,
                    }
                }
            }
        }
        Err(error) => {
            let status = if error.message().starts_with("artefact panicked") {
                "panic"
            } else {
                "error"
            };
            journal_note(journal.record_finished(
                name,
                ArtefactState::Failed,
                Some(error.to_string()),
                attempts.clone(),
                seconds,
            ));
            ArtefactRun {
                outcome: ArtefactOutcome {
                    name,
                    status,
                    degraded: false,
                    error: Some(error),
                    seconds,
                    cache: miss_label,
                    attempts,
                },
                text: String::new(),
            }
        }
    }
}

/// Journal writes must never fail an artefact; surface the diagnostic
/// and keep going (the next transition retries the write).
fn journal_note(result: Result<(), DarksilError>) {
    if let Err(e) = result {
        eprintln!("repro: journal write failed — {e}");
    }
}

/// Writes the artefact JSON (when `--json` is active) atomically, so a
/// kill mid-write can never leave a truncated artefact behind, and
/// buffers the `[wrote …]` line. Called *before* the journal marks the
/// artefact done, so a crash between the two re-runs the artefact.
fn persist_payload(
    options: &Options,
    name: &str,
    payload: &Json,
    text: &mut String,
) -> Result<(), DarksilError> {
    let _span = darksil_obs::span("repro.persist");
    let Some(dir) = &options.json_dir else {
        return Ok(());
    };
    let path = dir.join(format!("{name}.json"));
    let bytes = darksil_json::to_string_pretty(payload);
    darksil_robust::write_atomic(&path, bytes.as_bytes()).map_err(|e| e.context(name))?;
    let _ = writeln!(text, "[wrote {}]", path.display());
    Ok(())
}

/// Maps any artefact error onto the workspace taxonomy, preserving the
/// typed class when the concrete error type is known.
fn classify(e: &(dyn std::error::Error + 'static)) -> DarksilError {
    if let Some(d) = e.downcast_ref::<DarksilError>() {
        return d.clone();
    }
    if let Some(d) = e.downcast_ref::<darksil_core::EstimateError>() {
        return d.clone().into();
    }
    if let Some(d) = e.downcast_ref::<darksil_mapping::MappingError>() {
        return d.clone().into();
    }
    if let Some(d) = e.downcast_ref::<darksil_thermal::ThermalError>() {
        return d.clone().into();
    }
    if let Some(d) = e.downcast_ref::<darksil_numerics::NumericsError>() {
        return d.clone().into();
    }
    if let Some(d) = e.downcast_ref::<darksil_power::PowerError>() {
        return d.clone().into();
    }
    if let Some(d) = e.downcast_ref::<darksil_boost::BoostError>() {
        return d.clone().into();
    }
    if let Some(d) = e.downcast_ref::<darksil_workload::WorkloadError>() {
        return d.clone().into();
    }
    if let Some(d) = e.downcast_ref::<std::io::Error>() {
        return DarksilError::io(d.to_string());
    }
    DarksilError::internal(e.to_string())
}

/// Applies the requested `--inject` fault at the top of an attempt.
/// `nan` feeds a NaN power sample into the real thermal solver; the
/// other kinds route through [`FaultPlan::inject_job_faults`], which
/// observes the supervision context (deadline token, attempt number,
/// degraded flag).
fn apply_injection(inject: &Inject, what: &str) -> Result<(), Box<dyn std::error::Error>> {
    let fault = match inject.kind {
        InjectKind::Nan => return injected_failure(),
        InjectKind::Hang => Fault::Hang,
        InjectKind::Slow => Fault::SlowJob { millis: 1500 },
        InjectKind::Transient => Fault::TransientThenSucceed { failures: 1 },
    };
    FaultPlan::new(0).with(fault).inject_job_faults(what)?;
    Ok(())
}

/// Test hook behind `--inject NAME` / `--inject NAME:nan`: feeds a NaN
/// power sample into the real thermal solver, exercising the library's
/// non-finite input guard the same way a broken power model would.
fn injected_failure() -> Result<(), Box<dyn std::error::Error>> {
    let platform = darksil_mapping::Platform::for_node(darksil_power::TechnologyNode::Nm16)?;
    let mut power = vec![darksil_units::Watts::new(1.0); platform.core_count()];
    power[0] = darksil_units::Watts::new(f64::NAN);
    platform.thermal().steady_state(&power)?;
    Ok(())
}

/// Writes the machine-readable per-artefact report. With `--json DIR`
/// it lands in `DIR/error_report.json`; otherwise it goes to stderr so
/// scripted callers always have it.
fn write_error_report(
    options: &Options,
    outcomes: &[ArtefactOutcome],
    failed: usize,
    degraded: usize,
) -> Result<(), Box<dyn std::error::Error>> {
    let report = Json::Obj(vec![
        ("artefacts".to_string(), Json::Num(outcomes.len() as f64)),
        ("failed".to_string(), Json::Num(failed as f64)),
        ("degraded".to_string(), Json::Num(degraded as f64)),
        (
            "outcomes".to_string(),
            Json::Arr(outcomes.iter().map(ToJson::to_json).collect()),
        ),
    ]);
    let text = darksil_json::to_string_pretty(&report);
    match &options.json_dir {
        Some(dir) => {
            fs::create_dir_all(dir)?;
            let path = dir.join("error_report.json");
            fs::write(&path, text)?;
            println!("[wrote {}]", path.display());
        }
        None if failed > 0 => eprintln!("{text}"),
        None => {}
    }
    Ok(())
}

/// Writes per-artefact wall-clock timings and cache outcomes to
/// `results/bench_repro.json` on every run.
fn write_bench_report(
    jobs: usize,
    total_seconds: f64,
    outcomes: &[ArtefactOutcome],
) -> Result<(), Box<dyn std::error::Error>> {
    let artefacts = outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("artefact".to_string(), Json::Str(o.name.to_string())),
                ("status".to_string(), Json::Str(o.status.to_string())),
                ("seconds".to_string(), Json::Num(o.seconds)),
                ("cache".to_string(), Json::Str(o.cache.to_string())),
            ])
        })
        .collect();
    let report = Json::Obj(vec![
        ("jobs".to_string(), Json::Num(jobs as f64)),
        ("total_seconds".to_string(), Json::Num(total_seconds)),
        ("artefacts".to_string(), Json::Arr(artefacts)),
    ]);
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join("bench_repro.json");
    fs::write(&path, darksil_json::to_string_pretty(&report))?;
    println!("[wrote {}]", path.display());
    Ok(())
}

/// How much headroom `--profile` bakes into `BENCH_repro.json` bounds:
/// a phase may take this many times its measured duration before the
/// CI comparison fails. Generous on purpose — CI machines are slower
/// and noisier than the machine that recorded the baseline.
const PROFILE_TOLERANCE_FACTOR: f64 = 25.0;

/// Writes the raw span tree to `results/trace_repro.json` (shared by
/// `--profile` and `--events`).
fn write_trace_report(trace: &darksil_obs::Trace) -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let trace_path = dir.join("trace_repro.json");
    fs::write(&trace_path, darksil_json::to_string_pretty(trace))?;
    println!("[wrote {}]", trace_path.display());
    Ok(())
}

/// Writes the `--events` output: the drained domain event stream as
/// JSONL to `results/events_<selection>.jsonl`. The stream carries no
/// timing or worker-count data, so the file is byte-identical across
/// `--jobs` settings for the same selection (cache state changes which
/// artefacts run, so comparisons should use the same cache mode).
fn write_event_report(
    stream: &darksil_obs::EventStream,
    selection: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let dir = Path::new("results");
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("events_{selection}.jsonl"));
    fs::write(&path, stream.to_jsonl())?;
    println!(
        "[wrote {} ({} events)]",
        path.display(),
        stream.events.len()
    );
    Ok(())
}

/// Writes the `--profile` baseline: the aggregated report (per
/// artefact, per phase, with regression bounds) to `BENCH_repro.json`
/// in the working directory.
fn write_bench_baseline(
    trace: &darksil_obs::Trace,
    jobs: usize,
    selection: &str,
    total_seconds: f64,
    outcomes: &[ArtefactOutcome],
) -> Result<(), Box<dyn std::error::Error>> {
    let artefacts = outcomes
        .iter()
        .map(|o| darksil_obs::ArtefactTiming {
            artefact: o.name.to_string(),
            seconds: o.seconds,
            cache: o.cache.to_string(),
        })
        .collect();
    let report = darksil_obs::BenchBaseline::from_trace(
        trace,
        jobs,
        selection,
        PROFILE_TOLERANCE_FACTOR,
        total_seconds,
        artefacts,
    );
    let path = Path::new("BENCH_repro.json");
    fs::write(path, darksil_json::to_string_pretty(&report))?;
    println!("[wrote {}]", path.display());
    Ok(())
}

fn table1(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let rows = darksil_bench::table1();
    writeln!(out, "Technology  Vdd   Freq  Cap   Area  Core-area[mm²]")?;
    for r in &rows {
        writeln!(
            out,
            "{:>6} nm  {:>5.2} {:>5.2} {:>5.2} {:>5.2}  {:>6.1}",
            r.node_nm, r.vdd, r.frequency, r.capacitance, r.area, r.core_area_mm2
        )?;
    }
    Ok(rows.to_json())
}

fn fig2(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let pts = darksil_bench::fig2(27);
    writeln!(out, "Voltage[V]  Frequency[GHz]  Region")?;
    for p in &pts {
        writeln!(
            out,
            "{:>9.3}  {:>13.3}  {}",
            p.voltage.value(),
            p.frequency.as_ghz(),
            p.region
        )?;
    }
    Ok(pts.to_json())
}

fn fig3(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let f = darksil_bench::fig3()?;
    writeln!(out, "Frequency[GHz]  Measured[W]  Model[W]")?;
    for p in &f.points {
        writeln!(
            out,
            "{:>13.2}  {:>10.2}  {:>8.2}",
            p.frequency.as_ghz(),
            p.measured.value(),
            p.fitted.value()
        )?;
    }
    writeln!(out, "fit RMSE: {:.3} W", f.rmse.value())?;
    Ok(f.to_json())
}

fn fig4(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let series = darksil_bench::fig4();
    write!(out, "Threads ")?;
    for s in &series {
        write!(out, "{:>12}", s.app.name())?;
    }
    writeln!(out)?;
    for i in 0..series[0].points.len() {
        write!(out, "{:>7} ", series[0].points[i].0)?;
        for s in &series {
            write!(out, "{:>12.2}", s.points[i].1)?;
        }
        writeln!(out)?;
    }
    Ok(series.to_json())
}

fn fig5(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let panels = darksil_bench::fig5()?;
    for panel in &panels {
        writeln!(out, "-- TDP = {} --", panel.tdp)?;
        writeln!(
            out,
            "app           2.8GHz  3.0GHz  3.2GHz  3.4GHz  3.6GHz   (dark %)"
        )?;
        for app in darksil_workload::ParsecApp::ALL {
            write!(out, "{:<13}", app.name())?;
            for cell in panel.cells.iter().filter(|c| c.app == app) {
                write!(out, " {:>6.0}%", cell.dark_percent)?;
            }
            writeln!(out)?;
        }
        writeln!(out, "peak temperatures at 3.6 GHz:")?;
        for (app, t) in &panel.peak_temperatures {
            writeln!(out, "  {:<13} {:>6.1} °C", app.name(), t.value())?;
        }
        writeln!(out, "any thermal violation: {}", panel.any_violation)?;
    }
    Ok(panels.to_json())
}

fn fig6(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let panels = darksil_bench::fig6()?;
    for panel in &panels {
        writeln!(
            out,
            "-- {} @ {:.1} GHz --",
            panel.node,
            panel.frequency.as_ghz()
        )?;
        writeln!(out, "app           dark(TDP)  dark(thermal)")?;
        for row in &panel.rows {
            writeln!(
                out,
                "{:<13} {:>8.0}%  {:>12.0}%",
                row.app.name(),
                row.dark_tdp_percent,
                row.dark_thermal_percent
            )?;
        }
        writeln!(
            out,
            "average dark-silicon reduction: {:.0}%",
            panel.average_reduction_percent
        )?;
    }
    Ok(panels.to_json())
}

fn fig7(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let panels = darksil_bench::fig7()?;
    for panel in &panels {
        writeln!(out, "-- {} --", panel.node)?;
        writeln!(
            out,
            "app           GIPS(nom)  GIPS(dvfs)  act%(nom)  act%(dvfs)  chosen"
        )?;
        for r in &panel.rows {
            writeln!(
                out,
                "{:<13} {:>9.0}  {:>10.0}  {:>8.0}%  {:>9.0}%  {}t @ {:.1} GHz",
                r.app.name(),
                r.nominal_gips.value(),
                r.tuned_gips.value(),
                r.nominal_active_percent,
                r.tuned_active_percent,
                r.chosen_threads,
                r.chosen_frequency.as_ghz()
            )?;
        }
        writeln!(
            out,
            "max performance gain: {:.0}%",
            (panel.max_gain - 1.0) * 100.0
        )?;
    }
    Ok(panels.to_json())
}

fn fig8(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let patterns = darksil_bench::fig8()?;
    for p in &patterns {
        writeln!(
            out,
            "-- {}: {} cores @ 3.6 GHz, Ptotal = {:.0} W, peak = {:.1} °C, violates T_DTM: {} --",
            p.name,
            p.active_cores,
            p.total_power.value(),
            p.peak_temperature.value(),
            p.violates
        )?;
        writeln!(out, "{}", p.thermal_art)?;
    }
    Ok(patterns.to_json())
}

fn fig9(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let rows = darksil_bench::fig9()?;
    writeln!(
        out,
        "mix             TDPmap[GIPS]  DsRem[GIPS]  act%(TDP)  act%(Ds)  speedup"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:<15} {:>12.0}  {:>11.0}  {:>8.0}%  {:>7.0}%  {:>6.2}x",
            r.mix,
            r.tdpmap_gips.value(),
            r.dsrem_gips.value(),
            r.tdpmap_active_percent,
            r.dsrem_active_percent,
            r.speedup
        )?;
    }
    Ok(rows.to_json())
}

fn fig10(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let bars = darksil_bench::fig10()?;
    writeln!(out, "node    dark%   TSP/core[W]  total[GIPS]")?;
    for b in &bars {
        writeln!(
            out,
            "{:<7} {:>4.0}%  {:>10.2}  {:>11.0}",
            b.node.to_string(),
            100.0 * b.dark_fraction,
            b.tsp_per_core.value(),
            b.total_gips.value()
        )?;
    }
    Ok(bars.to_json())
}

fn fig11(options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let f = darksil_bench::fig11(options.fidelity)?;
    writeln!(
        out,
        "boosting: avg {:.1} GIPS, settled temperature band {:.1}–{:.1} °C",
        f.boosting_avg_gips.value(),
        f.boosting_temp_band.0.value(),
        f.boosting_temp_band.1.value()
    )?;
    writeln!(
        out,
        "constant: avg {:.1} GIPS, peak {:.1} °C",
        f.constant_avg_gips.value(),
        f.constant_peak_temp.value()
    )?;
    writeln!(
        out,
        "boosting gain: {:.1}%",
        100.0 * (f.boosting_avg_gips / f.constant_avg_gips - 1.0)
    )?;
    Ok(f.to_json())
}

fn fig12(options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let points = darksil_bench::fig12(options.fidelity)?;
    writeln!(out, "cores  boost[GIPS]  const[GIPS]  boostP[W]  constP[W]")?;
    for p in &points {
        writeln!(
            out,
            "{:>5}  {:>10.0}  {:>10.0}  {:>9.0}  {:>8.0}",
            p.active_cores,
            p.boosting_gips.value(),
            p.constant_gips.value(),
            p.boosting_power.value(),
            p.constant_power.value()
        )?;
    }
    Ok(points.to_json())
}

fn fig13(options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let rows = darksil_bench::fig13(options.fidelity)?;
    writeln!(
        out,
        "app           inst  boost[GIPS]  const[GIPS]  boostP[W]  constP[W]"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:<13} {:>4}  {:>10.0}  {:>10.0}  {:>9.0}  {:>8.0}",
            r.app.name(),
            r.instances,
            r.boosting_gips.value(),
            r.constant_gips.value(),
            r.boosting_peak_power.value(),
            r.constant_peak_power.value()
        )?;
    }
    Ok(rows.to_json())
}

fn dtm(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let rows = darksil_bench::dtm_response()?;
    writeln!(
        out,
        "TDP[W]  admitted-dark  sustained-dark  powered-down  DTM fired"
    )?;
    for r in &rows {
        writeln!(
            out,
            "{:>6.0}  {:>12.0}%  {:>13.0}%  {:>12}  {}",
            r.tdp.value(),
            r.admitted_dark_percent,
            r.sustained_dark_percent,
            r.instances_powered_down,
            r.triggered
        )?;
    }
    writeln!(
        out,
        "Optimistic TDPs hide dark silicon behind the DTM reaction (§3.1)."
    )?;
    Ok(rows.to_json())
}

fn aging(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let cmp = darksil_bench::aging_rotation()?;
    writeln!(
        out,
        "{} epochs × {} h, 56/100 cores active:",
        cmp.epochs, cmp.epoch_hours
    )?;
    writeln!(
        out,
        "  static placement: max wear {:.0} ref-s, imbalance {:.2}",
        cmp.static_max_wear, cmp.static_imbalance
    )?;
    writeln!(
        out,
        "  rotating dark set: max wear {:.0} ref-s, imbalance {:.2}",
        cmp.rotating_max_wear, cmp.rotating_imbalance
    )?;
    writeln!(out, "  implied lifetime gain: {:.2}x", cmp.lifetime_gain())?;
    Ok(cmp.to_json())
}

fn variability(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let rows = darksil_bench::variability_savings(5)?;
    writeln!(out, "chip  best-pick[W]  leaky-pick[W]  saving")?;
    for r in &rows {
        writeln!(
            out,
            "{:>4}  {:>11.1}  {:>12.1}  {:>5.1}%",
            r.seed,
            r.best_pick_power.value(),
            r.worst_pick_power.value(),
            r.saving_percent
        )?;
    }
    Ok(rows.to_json())
}

fn cooling(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let (packages, sweep) = darksil_bench::cooling_sensitivity()?;
    writeln!(out, "package            dark%   active  peak[°C]")?;
    for p in &packages {
        writeln!(
            out,
            "{:<17} {:>5.0}%  {:>6}  {:>7.1}",
            p.package,
            100.0 * p.dark_fraction,
            p.active_cores,
            p.peak_temperature.value()
        )?;
    }
    writeln!(out, "\nR_conv[K/W]  dark%   active  power[W]")?;
    for pt in &sweep {
        writeln!(
            out,
            "{:>10.2}  {:>5.0}%  {:>6}  {:>7.0}",
            pt.convection_resistance,
            100.0 * pt.dark_fraction,
            pt.active_cores,
            pt.total_power.value()
        )?;
    }
    writeln!(
        out,
        "\nDark silicon is a property of chip + cooling, not of the chip alone."
    )?;
    Ok((packages, sweep).to_json())
}

fn pareto(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let (points, frontier) = darksil_bench::pareto_x264()?;
    writeln!(
        out,
        "{} feasible of {} configurations; Pareto frontier:",
        points.iter().filter(|p| p.feasible).count(),
        points.len()
    )?;
    writeln!(
        out,
        "threads  inst  f[GHz]  GIPS   power[W]  dark%  peak[°C]"
    )?;
    for p in &frontier {
        writeln!(
            out,
            "{:>7}  {:>4}  {:>5.1}  {:>5.0}  {:>8.0}  {:>4.0}%  {:>7.1}",
            p.threads,
            p.instances,
            p.frequency.as_ghz(),
            p.total_gips.value(),
            p.total_power.value(),
            100.0 * p.dark_fraction,
            p.peak_temperature.value()
        )?;
    }
    writeln!(
        out,
        "\nThe §3.3 trade-off made explicit: both axes (threads, V/f) appear on the frontier."
    )?;
    Ok(frontier.to_json())
}

fn fig14(_options: &Options, out: &mut String) -> Result<Json, Box<dyn std::error::Error>> {
    let rows = darksil_bench::fig14()?;
    writeln!(out, "app           NTC[kJ]  STC1[kJ]  STC2[kJ]  NTC wins")?;
    for r in &rows {
        writeln!(
            out,
            "{:<13} {:>7.2}  {:>8.2}  {:>8.2}  {}",
            r.app.name(),
            r.ntc.energy.value() / 1e3,
            r.stc_one_thread.energy.value() / 1e3,
            r.stc_two_threads.energy.value() / 1e3,
            r.ntc_wins()
        )?;
    }
    let (ntc, stc1, stc2) = fig14_total_energy(&rows);
    writeln!(
        out,
        "totals: NTC {:.1} kJ vs STC1 {:.1} kJ vs STC2 {:.1} kJ",
        ntc.value() / 1e3,
        stc1.value() / 1e3,
        stc2.value() / 1e3
    )?;
    Ok(rows.to_json())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    fn parse_args(args: &[String]) -> Result<Parsed<Options>, ParseError> {
        args::parse(&REPRO, args)
    }

    fn cli(line: &str) -> (Options, Option<usize>) {
        match parse_args(&argv(line)) {
            Ok(Parsed::Run(cli, jobs)) => (cli, jobs),
            Ok(Parsed::Help) => panic!("{line}: parsed as --help"),
            Err(e) => panic!("{line}: {e}"),
        }
    }

    fn names(cli: &Options) -> Vec<&'static str> {
        cli.selected.iter().map(|(name, _)| *name).collect()
    }

    /// Every field a command line sets, on one line.
    fn describe((cli, jobs): &(Options, Option<usize>)) -> String {
        let o = cli;
        format!(
            "{} json={:?} {} inject={:?} cache={:?} deadline={:?} retries={} jobs={:?} \
             resume={} journal={} profile={} events={}",
            if cli.all {
                "all".to_string()
            } else {
                names(cli).join("+")
            },
            o.json_dir,
            fidelity_label(o.fidelity),
            o.inject
                .as_ref()
                .map(|i| format!("{}:{}", i.artefact, i.kind.label())),
            o.cache.as_ref().map(ResultCache::dir),
            o.deadline_override,
            o.retries,
            jobs,
            cli.resume,
            cli.journal_path.display(),
            cli.profile,
            cli.events,
        )
    }

    /// One argv per usage error `parse_args` can report, with its exact
    /// message.
    const USAGE_ERRORS: &[(&str, &str)] = &[
        ("fig2 --json", "--json expects a directory"),
        ("fig2 --inject", "--inject expects an artefact name"),
        (
            "fig2 --inject fig2:frob",
            "unknown inject kind \"frob\" (expected nan, hang, slow or transient)",
        ),
        ("fig2 --jobs", "--jobs expects a value"),
        ("fig2 --jobs x", "--jobs expects an integer, got 'x'"),
        ("fig2 --jobs 0", "--jobs expects a positive integer"),
        ("fig2 --cache-dir", "--cache-dir expects a directory"),
        (
            "fig2 --deadline",
            "--deadline expects a positive number of seconds",
        ),
        ("fig2 --deadline x", "--deadline expects a number, got 'x'"),
        (
            "fig2 --deadline 0",
            "--deadline expects a positive number of seconds",
        ),
        ("fig2 --retries", "--retries expects a non-negative integer"),
        (
            "fig2 --retries -1",
            "--retries expects an integer, got '-1'",
        ),
        ("fig2 --journal", "--journal expects a file path"),
        ("fig2 --bogus", "unknown argument '--bogus'"),
        ("all fig2", "`all` cannot be combined with artefact names"),
        ("fig2 frob", "unknown artefact frob"),
    ];

    #[test]
    fn every_usage_error_has_its_message() {
        for (line, message) in USAGE_ERRORS {
            match parse_args(&argv(line)) {
                Err(e) => assert_eq!(e.to_string(), *message, "{line}"),
                Ok(_) => panic!("{line}: accepted"),
            }
        }
        // No artefact at all prints the usage alone.
        assert!(matches!(parse_args(&[]), Err(e) if e.to_string().is_empty()));
    }

    #[test]
    fn help_is_honoured_anywhere() {
        for line in ["--help", "-h", "fig2 --help", "fig2 --json out -h"] {
            assert!(
                matches!(parse_args(&argv(line)), Ok(Parsed::Help)),
                "{line}"
            );
        }
    }

    #[test]
    fn all_stands_alone_and_names_deduplicate_in_order() {
        let (every, _) = cli("all");
        assert!(every.all);
        assert_eq!(names(&every), RUNNERS.map(|(name, _)| name));
        let (some, _) = cli("fig8 table1 fig8 fig2 table1");
        assert!(!some.all);
        assert_eq!(names(&some), ["fig8", "table1", "fig2"]);
        assert!(parse_args(&argv("fig2 all")).is_err());
        assert!(parse_args(&argv("all all")).is_err());
    }

    /// Every `repro` command line in `.github/workflows/ci.yml` and what
    /// it parses to.
    const CI_LINES: &[(&str, &str)] = &[
        (
            "table1 --json out",
            "table1 json=Some(\"out\") quick inject=None cache=Some(\"results/.cache\") deadline=None retries=2 jobs=None resume=false journal=results/run_journal.json profile=false events=false",
        ),
        (
            "fig2 --json faulty --inject fig2",
            "fig2 json=Some(\"faulty\") quick inject=Some(\"fig2:nan\") cache=Some(\"results/.cache\") deadline=None retries=2 jobs=None resume=false journal=results/run_journal.json profile=false events=false",
        ),
        (
            "table1 fig2 fig8 --events --json out-ev",
            "table1+fig2+fig8 json=Some(\"out-ev\") quick inject=None cache=Some(\"results/.cache\") deadline=None retries=2 jobs=None resume=false journal=results/run_journal.json profile=false events=true",
        ),
        (
            "all --json fresh",
            "all json=Some(\"fresh\") quick inject=None cache=Some(\"results/.cache\") deadline=None retries=2 jobs=None resume=false journal=results/run_journal.json profile=false events=false",
        ),
        (
            "fig11 fig12 fig13 --paper --no-cache --jobs 2 --json paper",
            "fig11+fig12+fig13 json=Some(\"paper\") paper inject=None cache=None deadline=None retries=2 jobs=Some(2) resume=false journal=results/run_journal.json profile=false events=false",
        ),
        (
            "all --events --json out-j1 --jobs 1 --cache-dir cache-j1",
            "all json=Some(\"out-j1\") quick inject=None cache=Some(\"cache-j1\") deadline=None retries=2 jobs=Some(1) resume=false journal=results/run_journal.json profile=false events=true",
        ),
        (
            "all --events --json out-j4 --jobs 4 --cache-dir cache-j4",
            "all json=Some(\"out-j4\") quick inject=None cache=Some(\"cache-j4\") deadline=None retries=2 jobs=Some(4) resume=false journal=results/run_journal.json profile=false events=true",
        ),
        (
            "all --json out-warm --jobs 4 --cache-dir cache-j4",
            "all json=Some(\"out-warm\") quick inject=None cache=Some(\"cache-j4\") deadline=None retries=2 jobs=Some(4) resume=false journal=results/run_journal.json profile=false events=false",
        ),
        (
            "table1 fig2 fig8 --profile --events --jobs 2 --no-cache --json out-prof",
            "table1+fig2+fig8 json=Some(\"out-prof\") quick inject=None cache=None deadline=None retries=2 jobs=Some(2) resume=false journal=results/run_journal.json profile=true events=true",
        ),
        (
            "all --inject fig5:hang --deadline 30 --retries 1 --json out-hang --journal out-hang/journal.json --no-cache --jobs 4",
            "all json=Some(\"out-hang\") quick inject=Some(\"fig5:hang\") cache=None deadline=Some(30s) retries=1 jobs=Some(4) resume=false journal=out-hang/journal.json profile=false events=false",
        ),
        (
            "fig3 --inject fig3:transient --json out-flaky --journal out-flaky/journal.json --no-cache",
            "fig3 json=Some(\"out-flaky\") quick inject=Some(\"fig3:transient\") cache=None deadline=None retries=2 jobs=None resume=false journal=out-flaky/journal.json profile=false events=false",
        ),
        (
            "fig2 --inject fig2:slow --json out-slow --journal out-slow/journal.json --no-cache",
            "fig2 json=Some(\"out-slow\") quick inject=Some(\"fig2:slow\") cache=None deadline=None retries=2 jobs=None resume=false journal=out-slow/journal.json profile=false events=false",
        ),
        (
            "fig2 --json out-c --cache-dir chaos-cache",
            "fig2 json=Some(\"out-c\") quick inject=None cache=Some(\"chaos-cache\") deadline=None retries=2 jobs=None resume=false journal=results/run_journal.json profile=false events=false",
        ),
        (
            "fig2 --json out-c2 --cache-dir chaos-cache",
            "fig2 json=Some(\"out-c2\") quick inject=None cache=Some(\"chaos-cache\") deadline=None retries=2 jobs=None resume=false journal=results/run_journal.json profile=false events=false",
        ),
        (
            "all --json out-ref --journal ref-journal.json --no-cache --jobs 1",
            "all json=Some(\"out-ref\") quick inject=None cache=None deadline=None retries=2 jobs=Some(1) resume=false journal=ref-journal.json profile=false events=false",
        ),
        (
            "all --json out-kill --journal kill-journal.json --no-cache --jobs 4",
            "all json=Some(\"out-kill\") quick inject=None cache=None deadline=None retries=2 jobs=Some(4) resume=false journal=kill-journal.json profile=false events=false",
        ),
        (
            "all --json out-kill --journal kill-journal.json --no-cache --jobs 4 --resume",
            "all json=Some(\"out-kill\") quick inject=None cache=None deadline=None retries=2 jobs=Some(4) resume=true journal=kill-journal.json profile=false events=false",
        ),
        (
            "all --json out-kill --journal kill-journal.json --no-cache --jobs 4 --resume --paper",
            "all json=Some(\"out-kill\") paper inject=None cache=None deadline=None retries=2 jobs=Some(4) resume=true journal=kill-journal.json profile=false events=false",
        ),
    ];

    #[test]
    fn ci_command_lines_parse_as_before() {
        for (line, expected) in CI_LINES {
            assert_eq!(describe(&cli(line)), *expected, "{line}");
        }
    }

    #[test]
    fn flags_may_come_before_the_artefact_names() {
        assert_eq!(
            describe(&cli("--json out table1")),
            describe(&cli("table1 --json out"))
        );
        assert_eq!(
            describe(&cli("--jobs 2 --paper fig11 --no-cache fig12")),
            describe(&cli("fig11 fig12 --paper --no-cache --jobs 2"))
        );
        // Flags alone name no artefact: the usage is printed by itself.
        assert!(matches!(parse_args(&argv("--paper")), Err(e) if e.0.is_empty()));
    }

    #[test]
    fn help_lists_every_flag() {
        let text = usage();
        for flag in REPRO[0].flags.iter().chain(&args::GLOBAL) {
            assert!(text.contains(flag.name), "{}", flag.name);
        }
    }
}
