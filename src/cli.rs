//! Command-line interface of the `darksil` binary.
//!
//! Dependency-free argument parsing split from `main` so every path is
//! unit-testable. Each subcommand's flags are declared once, in a table
//! that the parser and `darksil --help` both read; run `darksil --help`
//! (or `darksil <subcommand> --help`) for the synopsis of every
//! subcommand. Every subcommand also accepts `--jobs N` to size the
//! execution-engine worker pool.

use darksil_boost::{run_boosting_and_constant, PolicyConfig};
use darksil_core::DarkSiliconEstimator;
use darksil_engine::Engine;
use darksil_mapping::{place_patterned, DsRem, Platform, TdpMap};
use darksil_power::TechnologyNode;
pub use darksil_robust::args::ParseError;
use darksil_robust::args::{self, Args, Flag, Parsed, Spec};
use darksil_robust::DarksilError;
use darksil_tsp::TspCalculator;
use darksil_units::{Hertz, Seconds, Watts};
use darksil_workload::{ParsecApp, Workload};

/// A parsed command, ready to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Execute a JSON scenario file.
    Run {
        /// Path to the scenario JSON.
        path: String,
        /// Emit the report as JSON instead of text.
        json: bool,
    },
    /// Dark-silicon estimation under a budget or the thermal constraint.
    Estimate {
        /// Technology node.
        node: TechnologyNode,
        /// Application.
        app: ParsecApp,
        /// Threads per instance.
        threads: usize,
        /// Frequency (defaults to the node's nominal maximum).
        freq: Option<Hertz>,
        /// TDP budget; `None` means the thermal constraint.
        tdp: Option<Watts>,
    },
    /// TSP curve or a single TSP value.
    Tsp {
        /// Technology node.
        node: TechnologyNode,
        /// Specific active-core count; `None` prints the curve.
        active: Option<usize>,
    },
    /// Run a mapping policy on a Parsec mix.
    Map {
        /// Technology node.
        node: TechnologyNode,
        /// Policy name.
        dsrem: bool,
        /// Instances in the mix.
        mix: usize,
        /// Budget.
        tdp: Watts,
    },
    /// Transient boosting vs constant comparison.
    Boost {
        /// Technology node.
        node: TechnologyNode,
        /// Application.
        app: ParsecApp,
        /// 8-thread instances.
        instances: usize,
        /// Simulated seconds.
        duration: f64,
    },
    /// Result-cache maintenance (`results/.cache` by default).
    Cache {
        /// What to do with the cache.
        action: CacheAction,
        /// Cache directory.
        dir: String,
        /// For `verify`: delete corrupt entries instead of only
        /// reporting them.
        evict: bool,
    },
    /// Inspect traces and perf baselines written by `repro --profile`.
    Trace(TraceAction),
    /// Inspect domain event streams written by `repro --events`.
    Events(EventsAction),
    /// Physics-invariant fuzzing: generated scenarios through the
    /// event-stream oracle, with shrinking and corpus persistence.
    Fuzz {
        /// Population seed.
        seed: u64,
        /// Number of generated cases.
        cases: usize,
        /// Deliberate-violation mode (`nan`|`time`|`tsp`).
        inject: Option<darksil_arena::InjectMode>,
        /// Reproducer corpus directory.
        corpus: String,
        /// Replay the corpus instead of fuzzing.
        replay: bool,
    },
    /// Policy tournament over a generated population; writes a
    /// deterministic leaderboard (JSON + HTML).
    Tournament {
        /// Population seed.
        seed: u64,
        /// Number of base cases (each fights all policies).
        cases: usize,
        /// Output directory for leaderboard artefacts.
        out: String,
    },
    /// Declarative design-space sweep: expand a sweep spec into a
    /// cached, parallel job plan and write Pareto/band artefacts.
    Sweep {
        /// Path to the sweep-spec JSON.
        path: String,
        /// Output directory for result artefacts.
        out: String,
        /// Cache directory; `None` uses `results/.cache`.
        cache_dir: Option<String>,
        /// Disable the result cache entirely.
        no_cache: bool,
        /// Resume the journal of an interrupted run.
        resume: bool,
    },
    /// Render a self-contained HTML run report from an event stream.
    Report {
        /// Run label or events file; `None` picks the sole
        /// `results/events_*.jsonl`.
        run: Option<String>,
        /// Optional trace file for the span Gantt and histograms
        /// (`results/trace_repro.json` is used when present).
        trace: Option<String>,
        /// Output path; defaults to `results/report_<run>.html`.
        out: Option<String>,
    },
    /// Long-running multi-tenant HTTP service over the engine
    /// (`darksil-d`).
    Serve {
        /// Listen address (`host:port`; port 0 picks a free one).
        addr: String,
        /// Global cap on jobs queued or running.
        max_inflight: usize,
        /// Per-tenant cap on jobs queued or running.
        tenant_quota: usize,
        /// Durable state directory (journal, request spool, artefacts,
        /// result cache).
        state_dir: String,
        /// Per-attempt solve deadline in seconds.
        deadline_s: f64,
        /// Drain grace period in seconds.
        drain_grace_s: f64,
    },
    /// Live plain-text dashboard over a running darksil-d.
    Top {
        /// Daemon address (`host:port`).
        addr: String,
        /// Refresh interval in seconds.
        interval_s: f64,
        /// Render a single frame and exit.
        once: bool,
    },
    /// Print usage.
    Help,
}

/// A `darksil events` action.
#[derive(Debug, Clone, PartialEq)]
pub enum EventsAction {
    /// Print per-kind counts and derived statistics of a stream.
    Summarize {
        /// Run label or events file; `None` picks the sole
        /// `results/events_*.jsonl`.
        path: Option<String>,
    },
    /// Print matching events of one kind as JSONL.
    Filter {
        /// Run label or events file; `None` picks the sole
        /// `results/events_*.jsonl`.
        path: Option<String>,
        /// Event kind to keep (e.g. `boost.transition`).
        kind: String,
        /// Maximum number of events to print (0 = unlimited).
        limit: usize,
    },
    /// Check every physical invariant over a stream; non-zero exit on
    /// the first violated invariant.
    Verify {
        /// Run label or events file; `None` picks the sole
        /// `results/events_*.jsonl`.
        path: Option<String>,
    },
}

/// Default fuzz population seed.
const DEFAULT_FUZZ_SEED: u64 = 1;

/// Default fuzz population size.
const DEFAULT_FUZZ_CASES: usize = 25;

/// Default tournament base-case count.
const DEFAULT_TOURNAMENT_CASES: usize = 8;

/// Default reproducer corpus directory (committed, replayed in CI).
pub const DEFAULT_CORPUS_DIR: &str = "tests/corpus";

/// Default row cap for `darksil events filter`.
const DEFAULT_FILTER_LIMIT: usize = 20;

/// A `darksil trace` action.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceAction {
    /// Render the hot-path table of a recorded trace.
    Summarize {
        /// Trace file (`results/trace_repro.json` by default).
        path: String,
        /// Number of span rows to print.
        top: usize,
    },
    /// Compare a current `BENCH_repro.json` against a committed
    /// baseline; non-zero exit when any phase exceeds its bound.
    Compare {
        /// Baseline report (the committed reference).
        baseline: String,
        /// Current report (the fresh measurement).
        current: String,
    },
}

/// Default trace path used by `darksil trace summarize`.
pub const DEFAULT_TRACE_PATH: &str = "results/trace_repro.json";

/// Default row count for the summarize hot-path table.
const DEFAULT_SUMMARY_TOP: usize = 12;

/// A `darksil cache` action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Summarise the cache: entry count, bytes, corrupt entries.
    Stats,
    /// Re-check every entry's envelope and payload digest; non-zero
    /// exit when corruption is found (unless `--evict` removes it).
    Verify,
    /// Delete every cache entry.
    Clear,
}

impl CacheAction {
    fn parse(s: &str) -> Result<Self, ParseError> {
        match s {
            "stats" => Ok(Self::Stats),
            "verify" => Ok(Self::Verify),
            "clear" => Ok(Self::Clear),
            other => Err(format!("unknown cache action '{other}' (use stats|verify|clear)").into()),
        }
    }
}

/// `--node`, which every simulation subcommand requires.
const NODE: Flag = Flag::value("--node", "<22|16|11|8>", "a value").required();

/// `darksil`'s subcommands: the words that select each one, its
/// operands and flags, and the constructor of its [`Command`].
const SUBCOMMANDS: &[Spec<Command>] = &[
    Spec {
        words: "estimate",
        operands: "",
        max_operands: 0,
        flags: &[
            NODE,
            Flag::value("--app", "<name>", "a value").required(),
            Flag::value("--threads", "N", "a value"),
            Flag::value("--freq", "GHZ", "a value"),
            Flag::value("--tdp", "WATTS", "a value"),
            Flag::switch("--thermal"),
        ],
        build: |p| {
            let tdp = p.number("--tdp")?.map(Watts::new);
            match (tdp, p.has("--thermal")) {
                (None, false) => Err("pass --tdp WATTS or --thermal".into()),
                (Some(_), true) => Err("--tdp and --thermal are mutually exclusive".into()),
                _ => Ok(Command::Estimate {
                    node: p.require("--node", parse_node)?,
                    app: p.require("--app", parse_app)?,
                    threads: p.integer("--threads")?.unwrap_or(8),
                    freq: p.number("--freq")?.map(Hertz::from_ghz),
                    tdp,
                }),
            }
        },
    },
    Spec {
        words: "tsp",
        operands: "",
        max_operands: 0,
        flags: &[NODE, Flag::value("--active", "N", "a value")],
        build: |p| {
            Ok(Command::Tsp {
                node: p.require("--node", parse_node)?,
                active: p.integer("--active")?,
            })
        },
    },
    Spec {
        words: "map",
        operands: "",
        max_operands: 0,
        flags: &[
            NODE,
            Flag::value("--policy", "<tdpmap|dsrem>", "a value").required(),
            Flag::value("--mix", "N", "a value"),
            Flag::value("--tdp", "W", "a value"),
        ],
        build: |p| {
            Ok(Command::Map {
                node: p.require("--node", parse_node)?,
                dsrem: p.require("--policy", |policy| match policy {
                    "dsrem" => Ok(true),
                    "tdpmap" => Ok(false),
                    other => Err(format!("unknown policy '{other}' (use tdpmap|dsrem)").into()),
                })?,
                mix: p.integer("--mix")?.unwrap_or(14),
                tdp: Watts::new(p.number("--tdp")?.unwrap_or(185.0)),
            })
        },
    },
    Spec {
        words: "boost",
        operands: "",
        max_operands: 0,
        flags: &[
            NODE,
            Flag::value("--app", "NAME", "a value"),
            Flag::value("--instances", "N", "a value"),
            Flag::value("--duration", "S", "a value"),
        ],
        build: |p| {
            Ok(Command::Boost {
                node: p.require("--node", parse_node)?,
                app: p.get("--app", parse_app)?.unwrap_or(ParsecApp::X264),
                instances: p.integer("--instances")?.unwrap_or(12),
                duration: p.number("--duration")?.unwrap_or(40.0),
            })
        },
    },
    Spec {
        words: "run",
        operands: "<scenario.json>",
        max_operands: 1,
        flags: &[Flag::switch("--json")],
        build: |p| {
            let path = operand(p, 0, "run expects a scenario file")?;
            let json = p.has("--json");
            Ok(Command::Run { path, json })
        },
    },
    Spec {
        words: "cache",
        operands: "<stats|verify|clear>",
        max_operands: 1,
        flags: &[
            Flag::value("--dir", "DIR", "a value"),
            Flag::switch("--evict"),
        ],
        build: |p| {
            let action = operand(p, 0, "cache expects an action (stats|verify|clear)")?;
            let action = CacheAction::parse(&action)?;
            let evict = p.has("--evict");
            if evict && action != CacheAction::Verify {
                return Err("--evict only applies to cache verify".into());
            }
            let dir = p.text("--dir").unwrap_or(darksil_engine::DEFAULT_CACHE_DIR);
            let dir = dir.to_string();
            Ok(Command::Cache { action, dir, evict })
        },
    },
    Spec {
        words: "trace summarize",
        operands: "[PATH]",
        max_operands: 1,
        flags: &[Flag::value("--top", "N", "a value")],
        build: |p| {
            let path = p.operands.first().cloned();
            let path = path.unwrap_or_else(|| DEFAULT_TRACE_PATH.into());
            let top = p.positive("--top")?.unwrap_or(DEFAULT_SUMMARY_TOP);
            Ok(Command::Trace(TraceAction::Summarize { path, top }))
        },
    },
    Spec {
        words: "trace compare",
        operands: "<BASELINE> <CURRENT>",
        max_operands: usize::MAX,
        flags: &[],
        build: |p| match p.operands.as_slice() {
            [baseline, current] => Ok(Command::Trace(TraceAction::Compare {
                baseline: baseline.clone(),
                current: current.clone(),
            })),
            _ => Err("trace compare expects exactly two files: <BASELINE> <CURRENT>".into()),
        },
    },
    Spec {
        words: "events summarize",
        operands: "[RUN|PATH]",
        max_operands: 1,
        flags: &[],
        build: |p| {
            let path = p.operands.first().cloned();
            Ok(Command::Events(EventsAction::Summarize { path }))
        },
    },
    Spec {
        words: "events filter",
        operands: "<KIND> [RUN|PATH]",
        max_operands: 2,
        flags: &[Flag::value("--limit", "N", "a value")],
        build: |p| {
            Ok(Command::Events(EventsAction::Filter {
                path: p.operands.get(1).cloned(),
                kind: operand(p, 0, "events filter expects an event kind")?,
                limit: p.integer("--limit")?.unwrap_or(DEFAULT_FILTER_LIMIT),
            }))
        },
    },
    Spec {
        words: "events verify",
        operands: "[RUN|PATH]",
        max_operands: 1,
        flags: &[],
        build: |p| {
            let path = p.operands.first().cloned();
            Ok(Command::Events(EventsAction::Verify { path }))
        },
    },
    Spec {
        words: "report",
        operands: "[RUN|PATH]",
        max_operands: 1,
        flags: &[
            Flag::value("--trace", "PATH", "a value"),
            Flag::value("--out", "PATH", "a value"),
        ],
        build: |p| {
            Ok(Command::Report {
                run: p.operands.first().cloned(),
                trace: p.text("--trace").map(str::to_string),
                out: p.text("--out").map(str::to_string),
            })
        },
    },
    Spec {
        words: "fuzz",
        operands: "",
        max_operands: 0,
        flags: &[
            Flag::value("--seed", "N", "a value"),
            Flag::value("--cases", "N", "a value"),
            Flag::value("--inject", "nan|time|tsp", "a mode"),
            Flag::value("--corpus", "DIR", "a directory"),
            Flag::switch("--replay"),
        ],
        build: |p| {
            let inject = p.get("--inject", |mode| {
                let unknown = || format!("unknown inject mode '{mode}' (use nan|time|tsp)");
                darksil_arena::InjectMode::parse(mode).ok_or_else(|| unknown().into())
            })?;
            let replay = p.has("--replay");
            if replay && inject.is_some() {
                return Err("--replay re-runs the corpus; --inject only applies to fuzzing".into());
            }
            Ok(Command::Fuzz {
                seed: p.integer("--seed")?.unwrap_or(DEFAULT_FUZZ_SEED),
                cases: p.positive("--cases")?.unwrap_or(DEFAULT_FUZZ_CASES),
                inject,
                corpus: p.text("--corpus").unwrap_or(DEFAULT_CORPUS_DIR).to_string(),
                replay,
            })
        },
    },
    Spec {
        words: "tournament",
        operands: "",
        max_operands: 0,
        flags: &[
            Flag::value("--seed", "N", "a value"),
            Flag::value("--cases", "N", "a value"),
            Flag::value("--out", "DIR", "a directory"),
        ],
        build: |p| {
            Ok(Command::Tournament {
                seed: p.integer("--seed")?.unwrap_or(DEFAULT_FUZZ_SEED),
                cases: p.positive("--cases")?.unwrap_or(DEFAULT_TOURNAMENT_CASES),
                out: p.text("--out").unwrap_or("results").to_string(),
            })
        },
    },
    Spec {
        words: "sweep",
        operands: "<spec.json>",
        max_operands: 1,
        flags: &[
            Flag::value("--out", "DIR", "a directory"),
            Flag::value("--cache-dir", "DIR", "a directory"),
            Flag::switch("--no-cache"),
            Flag::switch("--resume"),
        ],
        build: |p| {
            let path = operand(p, 0, "sweep expects a spec file")?;
            let cache_dir = p.text("--cache-dir");
            let no_cache = p.has("--no-cache");
            if no_cache && cache_dir.is_some() {
                return Err("--no-cache and --cache-dir are mutually exclusive".into());
            }
            Ok(Command::Sweep {
                path,
                out: p.text("--out").unwrap_or("results").to_string(),
                cache_dir: cache_dir.map(str::to_string),
                no_cache,
                resume: p.has("--resume"),
            })
        },
    },
    Spec {
        words: "serve",
        operands: "",
        max_operands: 0,
        flags: &[
            Flag::value("--addr", "HOST:PORT", "host:port"),
            Flag::value("--max-inflight", "N", "a value"),
            Flag::value("--tenant-quota", "N", "a value"),
            Flag::value("--state-dir", "DIR", "a directory"),
            Flag::value("--deadline-s", "S", "seconds"),
            Flag::value("--drain-grace-s", "S", "seconds"),
        ],
        build: |p| {
            let max_inflight = p.integer("--max-inflight")?.unwrap_or(64);
            let tenant_quota = p.integer("--tenant-quota")?.unwrap_or(8);
            if max_inflight == 0 || tenant_quota == 0 {
                return Err("--max-inflight and --tenant-quota must be positive".into());
            }
            let deadline_s = p.number("--deadline-s")?.unwrap_or(30.0);
            let drain_grace_s = p.number("--drain-grace-s")?.unwrap_or(30.0);
            let sane = deadline_s.is_finite() && deadline_s > 0.0;
            if !(sane && drain_grace_s.is_finite() && drain_grace_s >= 0.0) {
                return Err(
                    "--deadline-s must be positive and --drain-grace-s non-negative".into(),
                );
            }
            Ok(Command::Serve {
                addr: p.text("--addr").unwrap_or(DEFAULT_ADDR).to_string(),
                max_inflight,
                tenant_quota,
                state_dir: p.text("--state-dir").unwrap_or("state").to_string(),
                deadline_s,
                drain_grace_s,
            })
        },
    },
    Spec {
        words: "top",
        operands: "",
        max_operands: 0,
        flags: &[
            Flag::value("--addr", "HOST:PORT", "host:port"),
            Flag::value("--interval", "S", "seconds"),
            Flag::switch("--once"),
        ],
        build: |p| {
            let interval_s = p.number("--interval")?.unwrap_or(2.0);
            if !interval_s.is_finite() || interval_s <= 0.0 {
                return Err("--interval expects positive seconds".into());
            }
            let addr = p.text("--addr").unwrap_or(DEFAULT_ADDR).to_string();
            let once = p.has("--once");
            Ok(Command::Top {
                addr,
                interval_s,
                once,
            })
        },
    },
    Spec {
        words: "help",
        operands: "",
        max_operands: 0,
        flags: &[],
        build: |_| Ok(Command::Help),
    },
];

/// The daemon address `serve` listens on and `top` polls by default.
const DEFAULT_ADDR: &str = "127.0.0.1:8787";

/// Operand `i`, or the usage error `expects` when it is absent.
fn operand(p: &Args, i: usize, expects: &str) -> Result<String, ParseError> {
    p.operands.get(i).cloned().ok_or_else(|| expects.into())
}

fn parse_node(s: &str) -> Result<TechnologyNode, ParseError> {
    let node = TechnologyNode::ALL
        .iter()
        .find(|n| n.nanometers().to_string() == s);
    let unknown = || format!("unknown node '{s}' (use 22|16|11|8)").into();
    node.copied().ok_or_else(unknown)
}

fn parse_app(s: &str) -> Result<ParsecApp, ParseError> {
    let app = ParsecApp::ALL.iter().find(|a| a.name() == s);
    app.copied()
        .ok_or_else(|| format!("unknown application '{s}'").into())
}

/// Parses argv (without the program name) into a [`Command`] and the
/// `--jobs` value, which every subcommand accepts anywhere on the line.
///
/// # Errors
///
/// Returns [`ParseError`] with a user-facing message for unknown
/// commands, flags, values, or missing required arguments.
pub fn parse(args: &[String]) -> Result<(Command, Option<usize>), ParseError> {
    match args::parse(SUBCOMMANDS, args)? {
        Parsed::Help => Ok((Command::Help, None)),
        Parsed::Run(command, jobs) => Ok((command, jobs)),
    }
}

/// Usage text printed by `darksil help`, `--help` and on parse errors.
/// The synopsis is rendered from the subcommand table.
#[must_use]
pub fn usage() -> String {
    let synopsis = SUBCOMMANDS.iter().map(|spec| {
        let (name, action) = spec.words.split_once(' ').unwrap_or((spec.words, ""));
        let operands = [action, spec.operands].map(str::split_whitespace);
        let words = operands.into_iter().flatten().map(str::to_string);
        args::wrap(
            &format!("  darksil {name:<8} "),
            words.chain(args::flag_words(spec.flags)),
        )
    });
    format!(
        "darksil — dark-silicon analysis toolkit (DAC'15 reproduction)\n\nUSAGE:\n{}\n\n\
         Every subcommand also accepts:\n{}\n\n{USAGE_PROSE}",
        synopsis.collect::<Vec<_>>().join("\n"),
        args::reference(&args::GLOBAL)
    )
}

/// The hand-written part of [`usage`].
const USAGE_PROSE: &str = "\
`estimate` takes exactly one constraint: a power budget (--tdp) or the
80 °C thermal limit (--thermal).

`trace summarize` renders the hot-path table of a trace recorded by
`repro --profile` (default PATH: results/trace_repro.json); `trace
compare` checks a fresh BENCH_repro.json against a committed baseline
and exits non-zero on any regression beyond the recorded bounds.

`events` inspects a domain event stream written by `repro --events`
(per-kind counts, throttle residency, time above threshold; `filter`
prints one kind as JSONL). `report` renders the stream — plus the trace
when available — into a self-contained HTML report with a temperature
timeline, event overlays, a span Gantt and histogram tables, written to
results/report_<run>.html. RUN may be a run label (resolved against
results/events_<RUN>.jsonl) or an explicit file path; with a single
recorded stream in results/ it may be omitted.

`events verify` checks every physical invariant (no-nan, monotone-time,
temp-bound, watermark-alternation, watermark-windows, tsp-monotone,
energy-conserved, dtm-failsafe, throttle-residency) over a stream and
exits non-zero naming the first violated invariant and the offending
event's seq.

`fuzz` generates seeded, schema-valid scenarios, runs them through the
engine pipeline with events on, and verdicts each case against the same
invariants; violations are shrunk to minimal reproducers persisted in
the corpus (default tests/corpus/) and the exit code is non-zero.
`--replay` re-runs the committed corpus instead: reproducers with an
inject mode must still be caught, fixed real-bug reproducers must stay
clean. `tournament` pits dsrem vs tdpmap vs boosting over the generated
population and writes leaderboard.json + leaderboard.html (deterministic
bytes for a given --seed/--cases at any --jobs).

`sweep` expands a darksil-sweepspec-v1 file (a base scenario plus
list/range/logrange/gauss axes) into the full cartesian grid × N
Monte-Carlo draws, runs every evaluation through the engine pool and
the result cache, and writes sweep_<name>.json (Pareto frontier,
p5/p50/p95 bands, cache counters), sweep_<name>.html and a resumable
journal into --out. Output bytes are identical at any --jobs; editing
one axis value recomputes only the affected points. Exit codes: 0 on
success, 1 on a spec/validation error or a failed evaluation.

`serve` starts darksil-d, a multi-tenant HTTP/1.1 daemon over the
engine: POST /v1/jobs submits {tenant, scenario, faults?}, identical
submissions dedupe by content digest across tenants, per-tenant quotas
and --max-inflight reject excess load with 429 + Retry-After, and every
job is journalled under --state-dir so a killed daemon resumes
unfinished work on restart and serves byte-identical artefacts. Poll
GET /v1/jobs/<digest>, fetch GET /v1/artefacts/<digest> or
/v1/jobs/<digest>/report, and drain gracefully with SIGTERM or
POST /v1/drain (exit 0). See DESIGN.md §17 for the full protocol.

`top` renders a live plain-text dashboard over a running darksil-d:
it polls GET /metrics (Prometheus text) and GET /v1/stats every
--interval seconds (default 2) and shows job states, admission
counters, in-flight/queue/connection gauges, solve- and factor-cache
hit rates, rolling p50/p95/p99 request latency (last ~5 minutes), the
circuit-breaker state, and a per-tenant request table. --once prints
a single frame and exits 0 — handy in scripts and CI. Streaming
consumers can follow one job live instead with
GET /v1/jobs/<digest>/watch (chunked JSON lines) and fetch derived
event statistics from GET /v1/jobs/<digest>/events; see DESIGN.md §19
for the metrics contract.

apps: x264 blackscholes bodytrack ferret canneal dedup swaptions";

/// Executes a command, writing human-readable output to stdout.
///
/// # Errors
///
/// Propagates estimation/simulation failures as boxed errors.
pub fn run(command: &Command) -> Result<(), Box<dyn std::error::Error>> {
    match command {
        Command::Help => println!("{}", usage()),
        Command::Run { path, json } => {
            let scenario = crate::scenario::parse_scenario_file(std::path::Path::new(path))?;
            let report = crate::scenario::run_scenario(&scenario)?;
            if *json {
                println!("{}", darksil_json::to_string_pretty(&report));
            } else {
                println!("{}:", report.name);
                println!(
                    "  {} active cores ({:.0}% dark), {:.0} GIPS, {:.0} W, peak {:.1} °C{}",
                    report.active_cores,
                    100.0 * report.dark_fraction,
                    report.total_gips,
                    report.total_power_w,
                    report.peak_temperature_c,
                    if report.thermal_violation {
                        " (EXCEEDS T_DTM)"
                    } else {
                        ""
                    }
                );
                for note in &report.notes {
                    println!("  - {note}");
                }
            }
        }
        Command::Estimate {
            node,
            app,
            threads,
            freq,
            tdp,
        } => {
            let est = DarkSiliconEstimator::for_node(*node)?;
            let f = freq.unwrap_or(node.nominal_max_frequency());
            let e = match tdp {
                Some(budget) => est.under_power_budget(*app, *threads, f, *budget)?,
                None => est.under_temperature_constraint(*app, *threads, f)?,
            };
            println!(
                "{node} / {app} × {threads} threads @ {:.1} GHz ({})",
                f.as_ghz(),
                match tdp {
                    Some(b) => format!("TDP {b}"),
                    None => "thermal constraint 80 °C".into(),
                }
            );
            println!(
                "  {} active / {} dark ({:.0}% dark)",
                e.active_cores,
                e.dark_cores,
                100.0 * e.dark_fraction
            );
            println!(
                "  {:.0} W total, peak {:.1} °C{}, {:.0} GIPS",
                e.total_power.value(),
                e.peak_temperature.value(),
                if e.thermal_violation {
                    " (EXCEEDS T_DTM)"
                } else {
                    ""
                },
                e.total_gips.value()
            );
        }
        Command::Tsp { node, active } => {
            let platform = Platform::for_node(*node)?;
            let tsp =
                TspCalculator::new(platform.floorplan(), platform.thermal(), platform.t_dtm());
            let counts: Vec<usize> = match active {
                Some(m) => vec![*m],
                None => {
                    let n = platform.core_count();
                    (1..=10).map(|i| i * n / 10).collect()
                }
            };
            println!("{node}: TSP (worst-case mappings, T_DTM = 80 °C)");
            println!("  active  per-core[W]  total[W]");
            // Each worst-case TSP solve is independent — fan the curve
            // out over the engine; rows come back in count order.
            let rows = Engine::auto().try_par_map(counts, |m| Ok((m, tsp.worst_case(m)?)))?;
            for (m, per) in rows {
                println!(
                    "  {m:>6}  {:>10.2}  {:>8.0}",
                    per.value(),
                    per.value() * m as f64
                );
            }
        }
        Command::Map {
            node,
            dsrem,
            mix,
            tdp,
        } => {
            let platform = Platform::for_node(*node)?;
            let workload = Workload::parsec_mix(*mix, 8)?;
            let mapping = if *dsrem {
                DsRem::new(*tdp)?.map(&platform, &workload)?
            } else {
                TdpMap::new(*tdp).map(&platform, &workload)?
            };
            let peak = mapping.peak_temperature(&platform)?;
            println!(
                "{node} / {} / mix of {mix} × 8t under {tdp}:",
                if *dsrem { "DsRem" } else { "TDPmap" }
            );
            println!(
                "  {} active cores ({:.0}% dark), {:.0} GIPS, peak {:.1} °C",
                mapping.active_core_count(),
                100.0 * mapping.dark_fraction(),
                mapping.total_gips(&platform).value(),
                peak.value()
            );
        }
        Command::Boost {
            node,
            app,
            instances,
            duration,
        } => {
            let platform = Platform::for_node(*node)?
                .with_boost_levels(node.nominal_max_frequency() * 1.25)?;
            let workload = Workload::uniform(*app, *instances, 8)?;
            let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level())?;
            let config = PolicyConfig {
                period: Seconds::new(0.01),
                ..PolicyConfig::default()
            };
            let horizon = Seconds::new(*duration);
            let (boost, constant) =
                run_boosting_and_constant(&platform, &mapping, horizon, &config)?;
            println!("{node} / {app} × {instances} instances × 8t, {duration} s simulated:");
            println!(
                "  boosting: avg {:.0} GIPS, peak {:.1} °C, peak {:.0} W",
                boost.average_gips_tail(0.5).value(),
                boost.peak_temperature().value(),
                boost.peak_power().value()
            );
            println!(
                "  constant: avg {:.0} GIPS, peak {:.1} °C, peak {:.0} W",
                constant.average_gips_tail(0.5).value(),
                constant.peak_temperature().value(),
                constant.peak_power().value()
            );
        }
        Command::Cache { action, dir, evict } => run_cache(*action, dir, *evict)?,
        Command::Trace(action) => run_trace(action)?,
        Command::Events(action) => run_events(action)?,
        Command::Fuzz {
            seed,
            cases,
            inject,
            corpus,
            replay,
        } => {
            if *replay {
                run_fuzz_replay(corpus)?;
            } else {
                run_fuzz(*seed, *cases, *inject, corpus)?;
            }
        }
        Command::Tournament { seed, cases, out } => run_tournament_cmd(*seed, *cases, out)?,
        Command::Sweep {
            path,
            out,
            cache_dir,
            no_cache,
            resume,
        } => run_sweep_cmd(path, out, cache_dir.as_deref(), *no_cache, *resume)?,
        Command::Report { run, trace, out } => {
            run_report(run.as_deref(), trace.as_deref(), out.as_deref())?;
        }
        Command::Serve {
            addr,
            max_inflight,
            tenant_quota,
            state_dir,
            deadline_s,
            drain_grace_s,
        } => {
            let config = darksil_serve::ServeConfig {
                addr: addr.clone(),
                // --jobs lands in `darksil_engine::set_default_jobs`
                // (see `parse`); 0 defers to it.
                jobs: 0,
                max_inflight: *max_inflight,
                tenant_quota: *tenant_quota,
                state_dir: std::path::PathBuf::from(state_dir),
                job_deadline: std::time::Duration::from_secs_f64(*deadline_s),
                drain_grace: std::time::Duration::from_secs_f64(*drain_grace_s),
                ..darksil_serve::ServeConfig::default()
            };
            let server = darksil_serve::Server::bind(config)?;
            println!("darksil-d listening on {}", server.local_addr()?);
            let summary = server.run()?;
            println!(
                "drained ({}, {} unfinished job(s) checkpointed in the journal)",
                if summary.drained {
                    "all jobs finished"
                } else {
                    "grace period expired"
                },
                summary.unfinished
            );
        }
        Command::Top {
            addr,
            interval_s,
            once,
        } => {
            crate::top::run_top(addr, std::time::Duration::from_secs_f64(*interval_s), *once)?;
        }
    }
    Ok(())
}

/// Recorded event streams (`results/events_*.jsonl`), sorted. An
/// absent or empty `results/` directory yields an empty list, not an
/// I/O error.
fn available_runs() -> Vec<std::path::PathBuf> {
    let mut found = Vec::new();
    if let Ok(entries) = std::fs::read_dir("results") {
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            if name.starts_with("events_") && name.ends_with(".jsonl") {
                found.push(entry.path());
            }
        }
    }
    found.sort();
    found
}

/// Human-readable listing of the recorded runs, for error messages.
fn available_runs_listing(found: &[std::path::PathBuf]) -> String {
    if found.is_empty() {
        "(none recorded — record one with `repro --events`)".to_string()
    } else {
        found
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(", ")
    }
}

/// Resolves a `RUN|PATH` argument to an events file: an existing path
/// is taken as-is, otherwise the run label is looked up as
/// `results/events_<RUN>.jsonl`; with no argument the sole
/// `results/events_*.jsonl` is picked. Failures are typed
/// [`DarksilError`]s naming the paths that were tried and listing the
/// runs that do exist, so `darksil report NO-SUCH-RUN` exits 1 with an
/// actionable message instead of a bare I/O error.
fn resolve_events_path(spec: Option<&str>) -> Result<std::path::PathBuf, DarksilError> {
    use std::path::{Path, PathBuf};
    let found = available_runs();
    if let Some(spec) = spec {
        let direct = PathBuf::from(spec);
        if direct.is_file() {
            return Ok(direct);
        }
        let labelled = Path::new("results").join(format!("events_{spec}.jsonl"));
        if labelled.is_file() {
            return Ok(labelled);
        }
        return Err(DarksilError::io(format!(
            "no events file '{spec}' (looked for the path itself and {}); available runs: {}",
            labelled.display(),
            available_runs_listing(&found)
        ))
        .context("report"));
    }
    let mut found = found;
    match found.len() {
        0 => Err(DarksilError::io(
            "no results/events_*.jsonl found — record one with `repro --events`",
        )
        .context("report")),
        1 => Ok(found.remove(0)),
        _ => Err(DarksilError::config(format!(
            "{} event streams in results/ — name one: {}",
            found.len(),
            available_runs_listing(&found)
        ))
        .context("report")),
    }
}

/// Loads an event stream from a resolved path.
fn load_events(path: &std::path::Path) -> Result<darksil_obs::EventStream, ParseError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ParseError(format!("cannot read events '{}': {e}", path.display())))?;
    darksil_obs::EventStream::from_jsonl(&text).map_err(|e| {
        ParseError(format!(
            "'{}' is not a valid event stream: {e}",
            path.display()
        ))
    })
}

/// The run label an events file was recorded under (`events_X.jsonl`
/// → `X`), used to name the report output.
fn run_label(path: &std::path::Path) -> String {
    let stem = path
        .file_stem()
        .map_or_else(|| "run".into(), |s| s.to_string_lossy().into_owned());
    stem.strip_prefix("events_").unwrap_or(&stem).to_string()
}

/// Executes `darksil events summarize|filter`.
fn run_events(action: &EventsAction) -> Result<(), Box<dyn std::error::Error>> {
    match action {
        EventsAction::Summarize { path } => {
            let path = resolve_events_path(path.as_deref())?;
            let stream = load_events(&path)?;
            println!("events {}:", path.display());
            println!("{}", stream.render_summary());
        }
        EventsAction::Filter { path, kind, limit } => {
            let path = resolve_events_path(path.as_deref())?;
            let stream = load_events(&path)?;
            let mut shown = 0_usize;
            let mut total = 0_usize;
            for event in stream.of_kind(kind) {
                total += 1;
                if *limit == 0 || shown < *limit {
                    println!("{}", event.to_jsonl_line());
                    shown += 1;
                }
            }
            if total == 0 {
                println!("no '{kind}' events in {}", path.display());
            } else if shown < total {
                println!("… {} more ({total} total; raise --limit)", total - shown);
            }
        }
        EventsAction::Verify { path } => {
            let path = resolve_events_path(path.as_deref())?;
            let stream = load_events(&path)?;
            let violations = darksil_arena::Oracle::default().verify(&stream);
            if violations.is_empty() {
                println!(
                    "ok: {} events in {}, all invariants hold",
                    stream.events.len(),
                    path.display()
                );
            } else {
                for violation in &violations {
                    println!("VIOLATION {violation}");
                }
                let first = &violations[0];
                return Err(Box::new(ParseError(format!(
                    "invariant `{}` violated (first at seq [{}])",
                    first.invariant,
                    first
                        .seq
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                ))));
            }
        }
    }
    Ok(())
}

/// Executes `darksil fuzz`: generate → run → verdict → shrink →
/// persist. Non-zero exit when any invariant was violated.
fn run_fuzz(
    seed: u64,
    cases: usize,
    inject: Option<darksil_arena::InjectMode>,
    corpus: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    use darksil_arena::{generate_cases, run_cases, save_reproducer, shrink, Oracle, Reproducer};
    let oracle = Oracle::default();
    let population = generate_cases(seed, cases, inject);
    let jobs = Engine::auto().jobs();
    let (outcomes, stream) = run_cases(&population, jobs, &oracle);

    let mut passed = 0_usize;
    let mut errored = 0_usize;
    let mut violated: Vec<usize> = Vec::new();
    for (position, outcome) in outcomes.iter().enumerate() {
        match outcome.verdict() {
            darksil_arena::Verdict::Pass => passed += 1,
            darksil_arena::Verdict::Error => errored += 1,
            darksil_arena::Verdict::Violated => violated.push(position),
        }
    }
    println!(
        "fuzz seed {seed}: {cases} cases over {jobs} jobs — {passed} pass, \
         {errored} errors, {} violated ({} events)",
        violated.len(),
        stream.events.len()
    );
    for &position in &violated {
        let outcome = &outcomes[position];
        for violation in &outcome.violations {
            println!("  {}: {violation}", outcome.name);
        }
    }
    for outcome in &outcomes {
        if let (darksil_arena::Verdict::Error, Some(error)) =
            (outcome.verdict(), outcome.error.as_ref())
        {
            println!("  {} error: {error}", outcome.name);
        }
    }
    if violated.is_empty() {
        println!("corpus untouched — no violations");
        return Ok(());
    }

    // Shrink and persist one reproducer per violated invariant: the
    // first case to trip it. Shrinking reruns candidates serially, so
    // bounding the work per invariant keeps even --inject runs (where
    // every case violates) fast.
    let mut persisted: Vec<String> = Vec::new();
    for &position in &violated {
        let outcome = &outcomes[position];
        let Some(first) = outcome.violations.first() else {
            continue;
        };
        if persisted.iter().any(|i| i == &first.invariant) {
            continue;
        }
        persisted.push(first.invariant.clone());
        let minimal = shrink(&population[position], &first.invariant, &oracle);
        let repro = Reproducer {
            schema: darksil_arena::REPRO_SCHEMA.to_string(),
            seed,
            case_index: outcome.index,
            invariant: first.invariant.clone(),
            detail: first.detail.clone(),
            scenario: minimal.scenario.clone(),
            inject: minimal.inject.map(|m| m.name().to_string()),
            faults: minimal.faults.clone(),
        };
        let path = save_reproducer(std::path::Path::new(corpus), &repro)?;
        println!(
            "  shrunk `{}` reproducer -> {}",
            first.invariant,
            path.display()
        );
    }
    Err(Box::new(ParseError(format!(
        "{} of {cases} cases violated physical invariants",
        violated.len()
    ))))
}

/// Executes `darksil fuzz --replay`: the corpus regression gate.
/// Reproducers with an inject mode must still be *caught* (the oracle
/// keeps catching that violation class); reproducers without one
/// captured real, since-fixed bugs and must now run *clean*.
/// Replays the committed `*.jsonl` stream regressions in the corpus:
/// recorded event streams that once tripped an invariant and must now
/// verify clean. Returns (replayed, failed).
fn replay_stream_corpus(
    corpus: &std::path::Path,
    oracle: &darksil_arena::Oracle,
) -> (usize, usize) {
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(corpus)
        .map(|dir| {
            dir.filter_map(Result::ok)
                .map(|entry| entry.path())
                .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
                .collect()
        })
        .unwrap_or_default();
    paths.sort();
    let mut failures = 0_usize;
    for path in &paths {
        let violations = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| darksil_obs::EventStream::from_jsonl(&text).map_err(|e| e.to_string()))
            .map(|stream| oracle.verify(&stream));
        match violations {
            Ok(violations) if violations.is_empty() => {
                println!("replay {} [stream]: ok", path.display());
            }
            Ok(violations) => {
                println!("replay {} [stream]: FAIL", path.display());
                for violation in &violations {
                    println!("  {violation}");
                }
                failures += 1;
            }
            Err(error) => {
                println!("replay {} [stream]: FAIL ({error})", path.display());
                failures += 1;
            }
        }
    }
    (paths.len(), failures)
}

fn run_fuzz_replay(corpus: &str) -> Result<(), Box<dyn std::error::Error>> {
    use darksil_arena::{load_corpus, replay, Oracle};
    let oracle = Oracle::default();
    let corpus_dir = std::path::Path::new(corpus);
    let entries = load_corpus(corpus_dir)?;
    let (streams, mut failures) = replay_stream_corpus(corpus_dir, &oracle);
    if entries.is_empty() && streams == 0 {
        println!("corpus {corpus}: empty — nothing to replay");
        return Ok(());
    }
    for (path, repro) in &entries {
        let outcome = replay(repro, &oracle);
        let caught = outcome
            .violations
            .iter()
            .any(|v| v.invariant == repro.invariant);
        let ok = if repro.inject.is_some() {
            caught // the oracle must keep catching the injected class
        } else {
            outcome.violations.is_empty() // the real bug must stay fixed
        };
        let verdict = if ok { "ok" } else { "FAIL" };
        println!(
            "replay {} [{}] `{}`: {verdict}",
            path.display(),
            if repro.inject.is_some() {
                "inject"
            } else {
                "regression"
            },
            repro.invariant
        );
        if !ok {
            for violation in &outcome.violations {
                println!("  {violation}");
            }
            failures += 1;
        }
    }
    println!(
        "corpus {corpus}: {} reproducer(s) replayed ({} scenario, {streams} stream)",
        entries.len() + streams,
        entries.len()
    );
    if failures > 0 {
        return Err(Box::new(ParseError(format!(
            "{failures} corpus reproducer(s) failed replay"
        ))));
    }
    Ok(())
}

/// Executes `darksil tournament`: fight the policies and write the
/// deterministic leaderboard artefacts.
fn run_tournament_cmd(
    seed: u64,
    cases: usize,
    out: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    use darksil_arena::{leaderboard_html, run_tournament, Oracle};
    let jobs = Engine::auto().jobs();
    let board = run_tournament(seed, cases, jobs, &Oracle::default());
    println!("tournament seed {seed}: {cases} cases × 3 policies over {jobs} jobs");
    println!(
        "  {:<3} {:<8} {:>6} {:>5} {:>4} {:>10} {:>11}",
        "#", "policy", "points", "wins", "DQ", "mean GIPS", "mean peak C"
    );
    for (rank, score) in board.scores.iter().enumerate() {
        println!(
            "  {:<3} {:<8} {:>6} {:>5} {:>4} {:>10.1} {:>11.1}",
            rank + 1,
            score.policy,
            score.points,
            score.wins,
            score.disqualified,
            score.mean_gips,
            score.mean_peak_c,
        );
    }
    let dir = std::path::Path::new(out);
    std::fs::create_dir_all(dir)?;
    let json_path = dir.join("leaderboard.json");
    let mut json = darksil_json::to_string_pretty(&board);
    if !json.ends_with('\n') {
        json.push('\n');
    }
    std::fs::write(&json_path, json)?;
    let html_path = dir.join("leaderboard.html");
    std::fs::write(&html_path, leaderboard_html(&board))?;
    println!(
        "[wrote {} and {}]",
        json_path.display(),
        html_path.display()
    );
    Ok(())
}

/// Filesystem-safe artefact label for a sweep name (mirrors the cache
/// key file-name policy: ASCII alphanumerics, `-` and `_` survive).
fn sweep_label(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Executes `darksil sweep`: expand, run, analyse, write artefacts.
fn run_sweep_cmd(
    path: &str,
    out: &str,
    cache_dir: Option<&str>,
    no_cache: bool,
    resume: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    use darksil_sweep::{parse_sweep_spec_file, render_sweep_report, run_sweep, SweepOptions};
    let spec = parse_sweep_spec_file(std::path::Path::new(path))?;
    let dir = std::path::Path::new(out);
    std::fs::create_dir_all(dir)?;
    let label = sweep_label(&spec.name);
    let journal_path = dir.join(format!("sweep_{label}.journal.json"));
    let opts = SweepOptions {
        jobs: Engine::auto().jobs(),
        cache_dir: cache_dir.map(std::path::PathBuf::from),
        use_cache: !no_cache,
        journal_path: Some(journal_path.clone()),
        resume,
    };
    let result = run_sweep(&spec, &opts)?;
    println!(
        "sweep '{}': {} grid point(s) × {} draw(s) = {} evaluation(s) over {} job(s)",
        spec.name, result.grid_points, result.draws, result.evals, opts.jobs,
    );
    println!(
        "  cache: {} hit, {} miss, {} recovered{}",
        result.cache.hit,
        result.cache.miss,
        result.cache.recovered,
        if no_cache { " (cache off)" } else { "" },
    );
    // Fully cache-served sweeps do no solves and so no factor lookups;
    // only print the line when the solver actually ran.
    let fc = darksil_numerics::factor_cache_stats();
    if fc.hits + fc.misses > 0 {
        println!("  factor cache: {} reused, {} factored", fc.hits, fc.misses);
    }
    println!(
        "  Pareto frontier: {} of {} point(s)",
        result.frontier.len(),
        result.points.len(),
    );
    let json_path = dir.join(format!("sweep_{label}.json"));
    let mut json = darksil_json::to_string_pretty(&result);
    if !json.ends_with('\n') {
        json.push('\n');
    }
    std::fs::write(&json_path, json)?;
    let html_path = dir.join(format!("sweep_{label}.html"));
    std::fs::write(&html_path, render_sweep_report(&result))?;
    println!(
        "[wrote {}, {} and {}]",
        json_path.display(),
        html_path.display(),
        journal_path.display(),
    );
    Ok(())
}

/// Executes `darksil report`: renders the event stream (plus the trace
/// when available) into a self-contained HTML file.
fn run_report(
    run: Option<&str>,
    trace: Option<&str>,
    out: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let events_path = resolve_events_path(run)?;
    let stream = load_events(&events_path)?;
    let label = run_label(&events_path);
    let trace_loaded: Option<darksil_obs::Trace> = match trace {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ParseError(format!("cannot read trace '{path}': {e}")))?;
            Some(
                darksil_json::from_str(&text)
                    .map_err(|e| ParseError(format!("'{path}' is not a valid trace: {e}")))?,
            )
        }
        // No explicit trace: use the default profile output when it
        // exists, quietly skipping the Gantt/histograms otherwise.
        None => std::fs::read_to_string(DEFAULT_TRACE_PATH)
            .ok()
            .and_then(|text| darksil_json::from_str(&text).ok()),
    };
    let html = darksil_obs::render_report(&label, &stream, trace_loaded.as_ref());
    let out_path = out.map_or_else(
        || std::path::Path::new("results").join(format!("report_{label}.html")),
        std::path::PathBuf::from,
    );
    if let Some(parent) = out_path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(&out_path, html)?;
    println!(
        "[wrote {} ({} events{})]",
        out_path.display(),
        stream.events.len(),
        if trace_loaded.is_some() {
            ", with trace"
        } else {
            ", no trace"
        }
    );
    Ok(())
}

/// Executes `darksil trace summarize|compare`.
fn run_trace(action: &TraceAction) -> Result<(), Box<dyn std::error::Error>> {
    match action {
        TraceAction::Summarize { path, top } => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| ParseError(format!("cannot read trace '{path}': {e}")))?;
            let trace: darksil_obs::Trace = darksil_json::from_str(&text)
                .map_err(|e| ParseError(format!("'{path}' is not a valid trace: {e}")))?;
            println!("trace {path}:");
            println!("{}", trace.render_summary(*top));
            Ok(())
        }
        TraceAction::Compare { baseline, current } => {
            let load = |path: &str| -> Result<darksil_obs::BenchBaseline, ParseError> {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| ParseError(format!("cannot read baseline '{path}': {e}")))?;
                darksil_json::from_str(&text)
                    .map_err(|e| ParseError(format!("'{path}' is not a valid baseline: {e}")))
            };
            let base = load(baseline)?;
            let cur = load(current)?;
            let regressions = base.regressions_in(&cur);
            println!(
                "baseline {baseline} (selection '{}', jobs {}) vs {current} (selection '{}', jobs {}):",
                base.selection, base.jobs, cur.selection, cur.jobs
            );
            println!(
                "  total: {:.2} s (bound {:.2} s)",
                cur.total_seconds, base.max_total_seconds
            );
            // A phase that vanished from the current run is suspicious
            // (renamed span, dead instrumentation) but not a regression:
            // warn without failing.
            for span in base.missing_phases(&cur) {
                println!("  warning: phase `{span}` missing from current run");
            }
            if regressions.is_empty() {
                println!("  no regressions beyond recorded bounds");
                return Ok(());
            }
            for regression in &regressions {
                println!("  REGRESSION {regression}");
            }
            Err(Box::new(ParseError(format!(
                "{} perf regression(s) beyond baseline bounds",
                regressions.len()
            ))))
        }
    }
}

/// Executes `darksil cache <action>` against `dir`.
fn run_cache(
    action: CacheAction,
    dir: &str,
    evict: bool,
) -> Result<(), Box<dyn std::error::Error>> {
    use darksil_engine::{clear_dir, evict_corrupt, scan_dir, EntryCondition};
    let dir = std::path::Path::new(dir);
    if action == CacheAction::Clear {
        let removed = clear_dir(dir)?;
        println!("cache {}: removed {removed} entries", dir.display());
        return Ok(());
    }
    let reports = scan_dir(dir)?;
    let bytes: u64 = reports.iter().map(|r| r.bytes).sum();
    let corrupt: Vec<_> = reports.iter().filter(|r| !r.is_valid()).collect();
    println!(
        "cache {}: {} entries, {} bytes, {} corrupt",
        dir.display(),
        reports.len(),
        bytes,
        corrupt.len()
    );
    if action == CacheAction::Stats {
        return Ok(());
    }
    for report in &corrupt {
        if let EntryCondition::Corrupt(reason) = &report.condition {
            println!("  corrupt: {} — {reason}", report.file_name);
        }
    }
    if corrupt.is_empty() {
        println!("  all entries verified");
        return Ok(());
    }
    if evict {
        let removed = evict_corrupt(dir, &reports)?;
        println!("  evicted {removed} corrupt entries");
        Ok(())
    } else {
        Err(Box::new(ParseError(format!(
            "{} corrupt cache entries found (re-run with --evict to remove them)",
            corrupt.len()
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_estimate() {
        let cmd = parse(&argv(
            "estimate --node 16 --app swaptions --threads 8 --freq 3.6 --tdp 185",
        ))
        .unwrap()
        .0;
        assert_eq!(
            cmd,
            Command::Estimate {
                node: TechnologyNode::Nm16,
                app: ParsecApp::Swaptions,
                threads: 8,
                freq: Some(Hertz::from_ghz(3.6)),
                tdp: Some(Watts::new(185.0)),
            }
        );
    }

    #[test]
    fn estimate_thermal_mode() {
        let cmd = parse(&argv("estimate --node 11 --app canneal --thermal"))
            .unwrap()
            .0;
        match cmd {
            Command::Estimate { node, app, tdp, .. } => {
                assert_eq!(node, TechnologyNode::Nm11);
                assert_eq!(app, ParsecApp::Canneal);
                assert_eq!(tdp, None);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn estimate_requires_a_constraint() {
        let err = parse(&argv("estimate --node 16 --app x264")).unwrap_err();
        assert!(err.to_string().contains("--tdp"));
        let err = parse(&argv("estimate --node 16 --app x264 --tdp 185 --thermal")).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
    }

    #[test]
    fn parses_tsp_and_map_and_boost() {
        assert_eq!(
            parse(&argv("tsp --node 8 --active 200")).unwrap().0,
            Command::Tsp {
                node: TechnologyNode::Nm8,
                active: Some(200),
            }
        );
        assert_eq!(
            parse(&argv("map --node 16 --policy dsrem --mix 10 --tdp 150"))
                .unwrap()
                .0,
            Command::Map {
                node: TechnologyNode::Nm16,
                dsrem: true,
                mix: 10,
                tdp: Watts::new(150.0),
            }
        );
        match parse(&argv("boost --node 16 --instances 6 --duration 20"))
            .unwrap()
            .0
        {
            Command::Boost {
                instances,
                duration,
                app,
                ..
            } => {
                assert_eq!(instances, 6);
                assert_eq!(duration, 20.0);
                assert_eq!(app, ParsecApp::X264);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(parse(&argv("estimate --node 14 --app x264 --tdp 1")).is_err());
        assert!(parse(&argv("estimate --node 16 --app doom --tdp 1")).is_err());
        assert!(parse(&argv("map --node 16 --policy magic")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("tsp")).is_err()); // missing --node
        assert!(parse(&argv("tsp --node")).is_err()); // dangling value
        assert!(parse(&argv("boost --node 16 --duration many")).is_err());
    }

    #[test]
    fn parses_run() {
        assert_eq!(
            parse(&argv("run scenario.json --json")).unwrap().0,
            Command::Run {
                path: "scenario.json".into(),
                json: true,
            }
        );
        assert!(parse(&argv("run")).is_err());
        assert!(parse(&argv("run a.json --frob")).is_err());
    }

    #[test]
    fn jobs_flag_is_stripped_uniformly() {
        let (command, jobs) = parse(&argv("tsp --jobs 4 --node 16")).unwrap();
        assert_eq!(jobs, Some(4));
        assert_eq!(command, parse(&argv("tsp --node 16")).unwrap().0);
        assert_eq!(
            command,
            Command::Tsp {
                node: TechnologyNode::Nm16,
                active: None,
            }
        );
        // Trailing position and the run subcommand work too.
        let (command, jobs) = parse(&argv("run scenario.json --json --jobs 2")).unwrap();
        assert_eq!(jobs, Some(2));
        assert!(matches!(command, Command::Run { .. }));
        // Absent flag passes argv through untouched.
        let (command, jobs) = parse(&argv("help")).unwrap();
        assert_eq!(jobs, None);
        assert_eq!(command, Command::Help);
    }

    #[test]
    fn jobs_flag_rejects_bad_values() {
        assert!(parse(&argv("tsp --node 16 --jobs")).is_err());
        assert!(parse(&argv("tsp --node 16 --jobs zero")).is_err());
        assert!(parse(&argv("tsp --node 16 --jobs 0")).is_err());
        // Every subcommand takes the flag wherever it appears.
        assert_eq!(parse(&argv("tsp --node 16 --jobs 4")).unwrap().1, Some(4));
    }

    #[test]
    fn parses_cache() {
        assert_eq!(
            parse(&argv("cache stats")).unwrap().0,
            Command::Cache {
                action: CacheAction::Stats,
                dir: darksil_engine::DEFAULT_CACHE_DIR.into(),
                evict: false,
            }
        );
        assert_eq!(
            parse(&argv("cache verify --dir /tmp/c --evict")).unwrap().0,
            Command::Cache {
                action: CacheAction::Verify,
                dir: "/tmp/c".into(),
                evict: true,
            }
        );
        assert!(parse(&argv("cache")).is_err()); // missing action
        assert!(parse(&argv("cache defrag")).is_err()); // unknown action
        assert!(parse(&argv("cache stats --dir")).is_err()); // dangling value
        assert!(parse(&argv("cache clear --evict")).is_err()); // evict needs verify
    }

    #[test]
    fn cache_command_reports_and_evicts_corruption() {
        let dir = std::env::temp_dir().join(format!("darksil-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.json"), "{ not json").unwrap();
        let dir_s = dir.to_string_lossy().into_owned();

        // Stats never fails, verify without --evict does, verify with
        // --evict removes the bad entry, and clear empties the rest.
        run(&Command::Cache {
            action: CacheAction::Stats,
            dir: dir_s.clone(),
            evict: false,
        })
        .unwrap();
        let err = run(&Command::Cache {
            action: CacheAction::Verify,
            dir: dir_s.clone(),
            evict: false,
        })
        .unwrap_err();
        assert!(err.to_string().contains("--evict"));
        run(&Command::Cache {
            action: CacheAction::Verify,
            dir: dir_s.clone(),
            evict: true,
        })
        .unwrap();
        assert!(!dir.join("broken.json").exists());
        run(&Command::Cache {
            action: CacheAction::Clear,
            dir: dir_s,
            evict: false,
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_trace() {
        assert_eq!(
            parse(&argv("trace summarize")).unwrap().0,
            Command::Trace(TraceAction::Summarize {
                path: DEFAULT_TRACE_PATH.into(),
                top: DEFAULT_SUMMARY_TOP,
            })
        );
        assert_eq!(
            parse(&argv("trace summarize my_trace.json --top 5"))
                .unwrap()
                .0,
            Command::Trace(TraceAction::Summarize {
                path: "my_trace.json".into(),
                top: 5,
            })
        );
        assert_eq!(
            parse(&argv("trace compare BENCH_base.json BENCH_new.json"))
                .unwrap()
                .0,
            Command::Trace(TraceAction::Compare {
                baseline: "BENCH_base.json".into(),
                current: "BENCH_new.json".into(),
            })
        );
        assert!(parse(&argv("trace")).is_err()); // missing action
        assert!(parse(&argv("trace frob")).is_err()); // unknown action
        assert!(parse(&argv("trace summarize --top")).is_err()); // dangling
        assert!(parse(&argv("trace summarize --top 0")).is_err());
        assert!(parse(&argv("trace summarize a.json b.json")).is_err());
        assert!(parse(&argv("trace compare one.json")).is_err());
        assert!(parse(&argv("trace compare a b c")).is_err());
        assert!(parse(&argv("trace compare a --frob")).is_err());
    }

    #[test]
    fn trace_summarize_and_compare_roundtrip() {
        use darksil_obs::{ArtefactTiming, BenchBaseline, SpanRecord, Trace};
        let dir = std::env::temp_dir().join(format!("darksil-cli-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let trace = Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: None,
                    thread: 0,
                    name: "repro.run".into(),
                    start_s: 0.0,
                    seconds: 2.0,
                },
                SpanRecord {
                    id: 2,
                    parent: Some(1),
                    thread: 0,
                    name: "artefact.fig5".into(),
                    start_s: 0.1,
                    seconds: 1.5,
                },
            ],
            counters: vec![
                ("engine.cache.hit".into(), 3),
                ("engine.cache.miss".into(), 1),
            ],
            observations: Vec::new(),
            hists: Vec::new(),
        };
        let trace_path = dir.join("trace.json");
        std::fs::write(&trace_path, darksil_json::to_string_pretty(&trace)).unwrap();
        run(&Command::Trace(TraceAction::Summarize {
            path: trace_path.to_string_lossy().into_owned(),
            top: 10,
        }))
        .unwrap();

        // A report compared against itself passes; inflating the total
        // beyond the recorded bound is caught as a regression.
        let base = BenchBaseline::from_trace(
            &trace,
            2,
            "fig5",
            25.0,
            2.0,
            vec![ArtefactTiming {
                artefact: "fig5".into(),
                seconds: 1.5,
                cache: "miss".into(),
            }],
        );
        let base_path = dir.join("base.json");
        std::fs::write(&base_path, darksil_json::to_string_pretty(&base)).unwrap();
        let base_s = base_path.to_string_lossy().into_owned();
        run(&Command::Trace(TraceAction::Compare {
            baseline: base_s.clone(),
            current: base_s.clone(),
        }))
        .unwrap();

        let mut slow = base.clone();
        slow.total_seconds = base.max_total_seconds + 1.0;
        let slow_path = dir.join("slow.json");
        std::fs::write(&slow_path, darksil_json::to_string_pretty(&slow)).unwrap();
        let err = run(&Command::Trace(TraceAction::Compare {
            baseline: base_s,
            current: slow_path.to_string_lossy().into_owned(),
        }))
        .unwrap_err();
        assert!(err.to_string().contains("regression"), "{err}");

        // Missing or malformed inputs surface readable errors.
        let missing = dir.join("nope.json").to_string_lossy().into_owned();
        assert!(run(&Command::Trace(TraceAction::Summarize {
            path: missing.clone(),
            top: 3,
        }))
        .is_err());
        assert!(run(&Command::Trace(TraceAction::Compare {
            baseline: missing.clone(),
            current: missing,
        }))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_rejects_empty_and_non_numeric_baselines() {
        let dir = std::env::temp_dir().join(format!("darksil-cli-cmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // An empty baseline file is a parse error, not a silent pass.
        let empty = dir.join("empty.json");
        std::fs::write(&empty, "").unwrap();
        let empty_s = empty.to_string_lossy().into_owned();
        let err = run(&Command::Trace(TraceAction::Compare {
            baseline: empty_s.clone(),
            current: empty_s,
        }))
        .unwrap_err();
        assert!(err.to_string().contains("not a valid baseline"), "{err}");

        // Non-numeric seconds (null) are rejected on load.
        let nan = dir.join("nan.json");
        std::fs::write(
            &nan,
            r#"{"schema": "darksil-bench-v1", "jobs": 1, "selection": "fig5",
                "total_seconds": null, "max_total_seconds": 1.0,
                "artefacts": [], "phases": []}"#,
        )
        .unwrap();
        let nan_s = nan.to_string_lossy().into_owned();
        let err = run(&Command::Trace(TraceAction::Compare {
            baseline: nan_s.clone(),
            current: nan_s,
        }))
        .unwrap_err();
        assert!(err.to_string().contains("not a valid baseline"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compare_warns_but_passes_when_a_baseline_phase_is_missing() {
        use darksil_obs::{ArtefactTiming, BenchBaseline, SpanRecord, Trace};
        let dir = std::env::temp_dir().join(format!("darksil-cli-miss-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let trace = |names: &[&str]| Trace {
            spans: names
                .iter()
                .enumerate()
                .map(|(i, name)| SpanRecord {
                    id: i as u64 + 1,
                    parent: None,
                    thread: 0,
                    name: (*name).to_string(),
                    start_s: 0.0,
                    seconds: 1.0,
                })
                .collect(),
            counters: Vec::new(),
            observations: Vec::new(),
            hists: Vec::new(),
        };
        let report = |t: &Trace| {
            BenchBaseline::from_trace(
                t,
                1,
                "fig5",
                25.0,
                1.0,
                vec![ArtefactTiming {
                    artefact: "fig5".into(),
                    seconds: 1.0,
                    cache: "miss".into(),
                }],
            )
        };
        let base = report(&trace(&["repro.run", "thermal.steady_state"]));
        let cur = report(&trace(&["repro.run"]));
        assert_eq!(base.missing_phases(&cur), vec!["thermal.steady_state"]);
        let base_path = dir.join("base.json");
        let cur_path = dir.join("cur.json");
        std::fs::write(&base_path, darksil_json::to_string_pretty(&base)).unwrap();
        std::fs::write(&cur_path, darksil_json::to_string_pretty(&cur)).unwrap();
        // The vanished phase is a warning, not a regression failure.
        run(&Command::Trace(TraceAction::Compare {
            baseline: base_path.to_string_lossy().into_owned(),
            current: cur_path.to_string_lossy().into_owned(),
        }))
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_events_and_report() {
        assert_eq!(
            parse(&argv("events summarize")).unwrap().0,
            Command::Events(EventsAction::Summarize { path: None })
        );
        assert_eq!(
            parse(&argv("events summarize all")).unwrap().0,
            Command::Events(EventsAction::Summarize {
                path: Some("all".into()),
            })
        );
        assert_eq!(
            parse(&argv("events filter boost.transition all --limit 5"))
                .unwrap()
                .0,
            Command::Events(EventsAction::Filter {
                path: Some("all".into()),
                kind: "boost.transition".into(),
                limit: 5,
            })
        );
        assert_eq!(
            parse(&argv("report table1 --trace t.json --out r.html"))
                .unwrap()
                .0,
            Command::Report {
                run: Some("table1".into()),
                trace: Some("t.json".into()),
                out: Some("r.html".into()),
            }
        );
        assert_eq!(
            parse(&argv("report")).unwrap().0,
            Command::Report {
                run: None,
                trace: None,
                out: None,
            }
        );
        assert!(parse(&argv("events")).is_err()); // missing action
        assert!(parse(&argv("events frob")).is_err()); // unknown action
        assert!(parse(&argv("events summarize a b")).is_err());
        assert!(parse(&argv("events filter")).is_err()); // missing kind
        assert!(parse(&argv("events filter k --limit")).is_err());
        assert!(parse(&argv("report a b")).is_err());
        assert!(parse(&argv("report --trace")).is_err());
    }

    /// Serializes tests that drive the process-global event recorder.
    fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// A tiny valid stream: two boost transitions and two core samples.
    fn sample_stream_jsonl() -> String {
        let mut s = darksil_obs::EventStream::default();
        let mut push = |kind: &str, fields: Vec<(String, darksil_obs::EventValue)>| {
            let seq = vec![s.events.len() as u64];
            s.events.push(darksil_obs::EventRecord {
                seq,
                kind: kind.to_string(),
                fields,
            });
        };
        push(
            "boost.transition",
            vec![
                ("t_s".into(), 0.5.into()),
                ("from_ghz".into(), 3.4.into()),
                ("to_ghz".into(), 3.6.into()),
                ("peak_c".into(), 71.0.into()),
                ("reason".into(), "boost".into()),
            ],
        );
        push(
            "thermal.cores",
            vec![
                ("t_s".into(), 0.5.into()),
                ("cores".into(), vec![70.0, 72.0].into()),
                ("threshold_c".into(), 80.0.into()),
            ],
        );
        push(
            "boost.transition",
            vec![
                ("t_s".into(), 1.0.into()),
                ("from_ghz".into(), 3.6.into()),
                ("to_ghz".into(), 3.4.into()),
                ("peak_c".into(), 81.0.into()),
                ("reason".into(), "thermal".into()),
            ],
        );
        push(
            "thermal.cores",
            vec![
                ("t_s".into(), 1.0.into()),
                ("cores".into(), vec![74.0, 81.0].into()),
                ("threshold_c".into(), 80.0.into()),
            ],
        );
        s.to_jsonl()
    }

    #[test]
    fn events_summarize_filter_and_report_roundtrip() {
        let dir = std::env::temp_dir().join(format!("darksil-cli-events-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let events = dir.join("events_smoke.jsonl");
        std::fs::write(&events, sample_stream_jsonl()).unwrap();
        let events_s = events.to_string_lossy().into_owned();

        run(&Command::Events(EventsAction::Summarize {
            path: Some(events_s.clone()),
        }))
        .unwrap();
        run(&Command::Events(EventsAction::Filter {
            path: Some(events_s.clone()),
            kind: "boost.transition".into(),
            limit: 1,
        }))
        .unwrap();

        // The report is written where --out points and is standalone.
        let out = dir.join("report.html");
        run(&Command::Report {
            run: Some(events_s.clone()),
            trace: None,
            out: Some(out.to_string_lossy().into_owned()),
        })
        .unwrap();
        let html = std::fs::read_to_string(&out).unwrap();
        assert!(html.contains("<svg"), "report embeds SVG");
        assert!(html.contains("boost.transition"));
        assert!(!html.contains("<script"), "report is dependency-free");

        // Unknown labels and malformed streams surface readable errors.
        assert!(run(&Command::Events(EventsAction::Summarize {
            path: Some("no-such-run-label".into()),
        }))
        .is_err());
        let bad = dir.join("events_bad.jsonl");
        std::fs::write(&bad, "not jsonl").unwrap();
        assert!(run(&Command::Events(EventsAction::Summarize {
            path: Some(bad.to_string_lossy().into_owned()),
        }))
        .is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_fuzz_and_tournament() {
        assert_eq!(
            parse(&argv("fuzz")).unwrap().0,
            Command::Fuzz {
                seed: DEFAULT_FUZZ_SEED,
                cases: DEFAULT_FUZZ_CASES,
                inject: None,
                corpus: DEFAULT_CORPUS_DIR.into(),
                replay: false,
            }
        );
        assert_eq!(
            parse(&argv(
                "fuzz --seed 7 --cases 200 --inject nan --corpus /tmp/c"
            ))
            .unwrap()
            .0,
            Command::Fuzz {
                seed: 7,
                cases: 200,
                inject: Some(darksil_arena::InjectMode::Nan),
                corpus: "/tmp/c".into(),
                replay: false,
            }
        );
        assert_eq!(
            parse(&argv("fuzz --replay --corpus tests/corpus"))
                .unwrap()
                .0,
            Command::Fuzz {
                seed: DEFAULT_FUZZ_SEED,
                cases: DEFAULT_FUZZ_CASES,
                inject: None,
                corpus: "tests/corpus".into(),
                replay: true,
            }
        );
        assert_eq!(
            parse(&argv("tournament --seed 3 --cases 5 --out /tmp/t"))
                .unwrap()
                .0,
            Command::Tournament {
                seed: 3,
                cases: 5,
                out: "/tmp/t".into(),
            }
        );
        assert!(parse(&argv("fuzz --cases 0")).is_err());
        assert!(parse(&argv("fuzz --inject frob")).is_err());
        assert!(parse(&argv("fuzz --inject")).is_err());
        assert!(parse(&argv("fuzz --replay --inject nan")).is_err());
        assert!(parse(&argv("fuzz --frob")).is_err());
        assert!(parse(&argv("tournament --cases 0")).is_err());
        assert!(parse(&argv("tournament --out")).is_err());
    }

    #[test]
    fn parses_sweep() {
        assert_eq!(
            parse(&argv("sweep scenarios/sweeps/fig8_node_parallelism.json"))
                .unwrap()
                .0,
            Command::Sweep {
                path: "scenarios/sweeps/fig8_node_parallelism.json".into(),
                out: "results".into(),
                cache_dir: None,
                no_cache: false,
                resume: false,
            }
        );
        assert_eq!(
            parse(&argv(
                "sweep spec.json --out /tmp/s --cache-dir /tmp/c --resume"
            ))
            .unwrap()
            .0,
            Command::Sweep {
                path: "spec.json".into(),
                out: "/tmp/s".into(),
                cache_dir: Some("/tmp/c".into()),
                no_cache: false,
                resume: true,
            }
        );
        assert!(parse(&argv("sweep")).is_err());
        assert!(parse(&argv("sweep spec.json --no-cache --cache-dir /tmp/c")).is_err());
        assert!(parse(&argv("sweep spec.json --frob")).is_err());
        assert!(parse(&argv("sweep spec.json --out")).is_err());
    }

    #[test]
    fn sweep_writes_deterministic_artefacts() {
        let _guard = recorder_lock();
        let dir = std::env::temp_dir().join(format!("darksil-cli-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec = dir.join("spec.json");
        std::fs::write(
            &spec,
            r#"{
              "schema": "darksil-sweepspec-v1",
              "name": "cli demo",
              "base": {
                "name": "base",
                "node": 16,
                "cores": 16,
                "workload": [{ "app": "x264", "instances": 1, "threads": 2 }],
                "experiment": { "type": "power_budget", "tdp_watts": 40.0 }
              },
              "axes": [{ "param": "node", "list": [22, 16] }]
            }"#,
        )
        .unwrap();
        let out = dir.join("out");
        run(&Command::Sweep {
            path: spec.to_string_lossy().into_owned(),
            out: out.to_string_lossy().into_owned(),
            cache_dir: Some(dir.join("cache").to_string_lossy().into_owned()),
            no_cache: false,
            resume: false,
        })
        .unwrap();
        let json = std::fs::read_to_string(out.join("sweep_cli_demo.json")).unwrap();
        assert!(json.contains("\"darksil-sweepresult-v1\""), "{json}");
        assert!(json.contains("\"frontier\""));
        let html = std::fs::read_to_string(out.join("sweep_cli_demo.html")).unwrap();
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(!html.contains("<script"));
        assert!(out.join("sweep_cli_demo.journal.json").exists());

        // A bad spec surfaces the file and field in the error.
        std::fs::write(&spec, r#"{ "schema": "nope" }"#).unwrap();
        let err = run(&Command::Sweep {
            path: spec.to_string_lossy().into_owned(),
            out: out.to_string_lossy().into_owned(),
            cache_dir: None,
            no_cache: true,
            resume: false,
        })
        .unwrap_err();
        assert!(err.to_string().contains("spec.json"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parses_events_verify() {
        assert_eq!(
            parse(&argv("events verify")).unwrap().0,
            Command::Events(EventsAction::Verify { path: None })
        );
        assert_eq!(
            parse(&argv("events verify results/events_all.jsonl"))
                .unwrap()
                .0,
            Command::Events(EventsAction::Verify {
                path: Some("results/events_all.jsonl".into()),
            })
        );
        assert!(parse(&argv("events verify a b")).is_err());
    }

    #[test]
    fn events_verify_passes_clean_and_fails_poisoned_streams() {
        let dir = std::env::temp_dir().join(format!("darksil-cli-verify-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let clean = dir.join("events_clean.jsonl");
        std::fs::write(&clean, sample_stream_jsonl()).unwrap();
        run(&Command::Events(EventsAction::Verify {
            path: Some(clean.to_string_lossy().into_owned()),
        }))
        .unwrap();

        // A backwards-time stream inside a policy segment must fail,
        // naming the invariant.
        let mut s = darksil_obs::EventStream::default();
        let mut push = |kind: &str, fields: Vec<(String, darksil_obs::EventValue)>| {
            let seq = vec![s.events.len() as u64];
            s.events.push(darksil_obs::EventRecord {
                seq,
                kind: kind.to_string(),
                fields,
            });
        };
        push(
            "boost.run",
            vec![
                ("policy".into(), "boosting".into()),
                ("threshold_c".into(), 80.0.into()),
            ],
        );
        push(
            "thermal.step",
            vec![("t_s".into(), 2.0.into()), ("peak_c".into(), 40.0.into())],
        );
        push(
            "thermal.step",
            vec![("t_s".into(), 1.0.into()), ("peak_c".into(), 40.0.into())],
        );
        let bad = dir.join("events_bad.jsonl");
        std::fs::write(&bad, s.to_jsonl()).unwrap();
        let err = run(&Command::Events(EventsAction::Verify {
            path: Some(bad.to_string_lossy().into_owned()),
        }))
        .unwrap_err();
        assert!(err.to_string().contains("monotone-time"), "{err}");
        assert!(err.to_string().contains("seq [2]"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_inject_caught_shrunk_and_replayed() {
        let _guard = recorder_lock();
        let dir = std::env::temp_dir().join(format!("darksil-cli-fuzz-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let corpus = dir.join("corpus").to_string_lossy().into_owned();

        // An injected NaN must fail the run and persist a reproducer…
        let err = run(&Command::Fuzz {
            seed: 11,
            cases: 2,
            inject: Some(darksil_arena::InjectMode::Nan),
            corpus: corpus.clone(),
            replay: false,
        })
        .unwrap_err();
        assert!(err.to_string().contains("violated"), "{err}");
        let saved: Vec<_> = std::fs::read_dir(&corpus).unwrap().collect();
        assert_eq!(saved.len(), 1, "one reproducer per violated invariant");

        // …which the corpus replay gate then keeps catching.
        run(&Command::Fuzz {
            seed: 11,
            cases: 2,
            inject: None,
            corpus: corpus.clone(),
            replay: true,
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tournament_writes_deterministic_leaderboard() {
        let _guard = recorder_lock();
        let dir = std::env::temp_dir().join(format!("darksil-cli-tour-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = dir.to_string_lossy().into_owned();
        run(&Command::Tournament {
            seed: 5,
            cases: 2,
            out: out.clone(),
        })
        .unwrap();
        let json1 = std::fs::read_to_string(dir.join("leaderboard.json")).unwrap();
        let html = std::fs::read_to_string(dir.join("leaderboard.html")).unwrap();
        assert!(json1.contains("darksil-leaderboard-v1"));
        assert!(html.contains("<!DOCTYPE html>"));
        assert!(!html.contains("<script"));
        // Re-running produces identical bytes.
        run(&Command::Tournament {
            seed: 5,
            cases: 2,
            out,
        })
        .unwrap();
        let json2 = std::fs::read_to_string(dir.join("leaderboard.json")).unwrap();
        assert_eq!(json1, json2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_paths() {
        assert_eq!(parse(&[]).unwrap().0, Command::Help);
        assert_eq!(parse(&argv("help")).unwrap().0, Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap().0, Command::Help);
        assert!(usage().contains("darksil estimate"));
    }

    #[test]
    fn parses_serve_with_defaults_and_overrides() {
        assert_eq!(
            parse(&argv("serve")).unwrap().0,
            Command::Serve {
                addr: "127.0.0.1:8787".to_string(),
                max_inflight: 64,
                tenant_quota: 8,
                state_dir: "state".to_string(),
                deadline_s: 30.0,
                drain_grace_s: 30.0,
            }
        );
        assert_eq!(
            parse(&argv(
                "serve --addr 0.0.0.0:9000 --max-inflight 128 --tenant-quota 4 \
                 --state-dir /tmp/darksil --deadline-s 5.5 --drain-grace-s 0"
            ))
            .unwrap()
            .0,
            Command::Serve {
                addr: "0.0.0.0:9000".to_string(),
                max_inflight: 128,
                tenant_quota: 4,
                state_dir: "/tmp/darksil".to_string(),
                deadline_s: 5.5,
                drain_grace_s: 0.0,
            }
        );
    }

    #[test]
    fn serve_rejects_nonsense_limits() {
        assert!(parse(&argv("serve --max-inflight 0")).is_err());
        assert!(parse(&argv("serve --tenant-quota 0")).is_err());
        assert!(parse(&argv("serve --deadline-s 0")).is_err());
        assert!(parse(&argv("serve --deadline-s nan")).is_err());
        assert!(parse(&argv("serve --drain-grace-s -1")).is_err());
        assert!(parse(&argv("serve --addr")).is_err());
        assert!(parse(&argv("serve --bogus")).is_err());
    }

    #[test]
    fn top_parses_defaults_and_flags() {
        assert_eq!(
            parse(&argv("top")).unwrap().0,
            Command::Top {
                addr: "127.0.0.1:8787".to_string(),
                interval_s: 2.0,
                once: false,
            }
        );
        assert_eq!(
            parse(&argv("top --addr 10.0.0.1:9 --interval 0.5 --once"))
                .unwrap()
                .0,
            Command::Top {
                addr: "10.0.0.1:9".to_string(),
                interval_s: 0.5,
                once: true,
            }
        );
    }

    #[test]
    fn top_rejects_nonsense_intervals() {
        assert!(parse(&argv("top --interval 0")).is_err());
        assert!(parse(&argv("top --interval -1")).is_err());
        assert!(parse(&argv("top --interval nan")).is_err());
        assert!(parse(&argv("top --addr")).is_err());
        assert!(parse(&argv("top --bogus")).is_err());
    }

    #[test]
    fn nonpositive_trace_top_errors_name_the_flag() {
        let err = parse(&argv("trace summarize --top 0")).unwrap_err();
        assert!(err.0.contains("--top"), "{}", err.0);
        let err = parse(&argv("trace summarize --top -3")).unwrap_err();
        assert!(err.0.contains("--top"), "{}", err.0);
    }

    #[test]
    fn missing_events_run_is_a_typed_error_listing_alternatives() {
        let err = resolve_events_path(Some("/nonexistent/darksil-zzz.jsonl")).unwrap_err();
        assert_eq!(err.class(), darksil_robust::ErrorClass::Io);
        let msg = err.to_string();
        assert!(msg.contains("/nonexistent/darksil-zzz.jsonl"), "{msg}");
        assert!(msg.contains("available runs"), "{msg}");
        assert!(
            msg.contains("report"),
            "context names the subcommand: {msg}"
        );
    }

    #[test]
    fn run_help_and_small_commands() {
        run(&Command::Help).unwrap();
        run(&Command::Tsp {
            node: TechnologyNode::Nm16,
            active: Some(40),
        })
        .unwrap();
        run(&Command::Estimate {
            node: TechnologyNode::Nm16,
            app: ParsecApp::Canneal,
            threads: 8,
            freq: None,
            tdp: Some(Watts::new(185.0)),
        })
        .unwrap();
    }

    /// Parses a whole command line the way the `darksil` binary does.
    fn parse_line(line: &str) -> Result<(Command, Option<usize>), ParseError> {
        parse(&argv(line))
    }

    /// One single-error argv for every distinct usage message, with that
    /// message byte for byte.
    const GOLDEN_USAGE_ERRORS: &[(&str, &str)] = &[
        ("tsp --node 16 --jobs", "--jobs expects a value"),
        (
            "tsp --node 16 --jobs x",
            "--jobs expects an integer, got 'x'",
        ),
        (
            "tsp --node 16 --jobs 0",
            "--jobs expects a positive integer",
        ),
        ("run", "run expects a scenario file"),
        ("run a.json --frob", "unknown argument '--frob'"),
        ("run a.json b.json", "unknown argument 'b.json'"),
        ("cache", "cache expects an action (stats|verify|clear)"),
        (
            "cache defrag",
            "unknown cache action 'defrag' (use stats|verify|clear)",
        ),
        ("cache stats --dir", "--dir expects a value"),
        ("cache stats --frob", "unknown argument '--frob'"),
        (
            "cache clear --evict",
            "--evict only applies to cache verify",
        ),
        ("estimate --app x264 --tdp 185", "--node is required"),
        (
            "estimate --app x264 --tdp 185 --node",
            "--node expects a value",
        ),
        (
            "estimate --node 14 --app x264 --tdp 185",
            "unknown node '14' (use 22|16|11|8)",
        ),
        ("estimate --node 16 --tdp 185", "--app is required"),
        (
            "estimate --node 16 --tdp 185 --app",
            "--app expects a value",
        ),
        (
            "estimate --node 16 --app doom --tdp 185",
            "unknown application 'doom'",
        ),
        (
            "estimate --node 16 --app x264 --tdp 185 --threads",
            "--threads expects a value",
        ),
        (
            "estimate --node 16 --app x264 --tdp 185 --threads x",
            "--threads expects an integer, got 'x'",
        ),
        (
            "estimate --node 16 --app x264 --tdp 185 --freq",
            "--freq expects a value",
        ),
        (
            "estimate --node 16 --app x264 --tdp 185 --freq x",
            "--freq expects a number, got 'x'",
        ),
        (
            "estimate --node 16 --app x264 --tdp",
            "--tdp expects a value",
        ),
        (
            "estimate --node 16 --app x264 --tdp x",
            "--tdp expects a number, got 'x'",
        ),
        (
            "estimate --node 16 --app x264",
            "pass --tdp WATTS or --thermal",
        ),
        (
            "estimate --node 16 --app x264 --tdp 185 --thermal",
            "--tdp and --thermal are mutually exclusive",
        ),
        (
            "estimate --node 16 --app x264 --tdp 185 --frob",
            "unknown argument '--frob'",
        ),
        ("tsp", "--node is required"),
        ("tsp --node", "--node expects a value"),
        ("tsp --node 16 --active", "--active expects a value"),
        (
            "tsp --node 16 --active x",
            "--active expects an integer, got 'x'",
        ),
        ("tsp --node 16 --frob", "unknown argument '--frob'"),
        ("map --node 16", "--policy is required"),
        ("map --node 16 --policy", "--policy expects a value"),
        (
            "map --node 16 --policy magic",
            "unknown policy 'magic' (use tdpmap|dsrem)",
        ),
        (
            "map --node 16 --policy dsrem --mix",
            "--mix expects a value",
        ),
        (
            "map --node 16 --policy dsrem --mix x",
            "--mix expects an integer, got 'x'",
        ),
        (
            "map --node 16 --policy dsrem --tdp",
            "--tdp expects a value",
        ),
        (
            "map --node 16 --policy dsrem --tdp x",
            "--tdp expects a number, got 'x'",
        ),
        (
            "map --node 16 --policy dsrem --frob",
            "unknown argument '--frob'",
        ),
        ("boost", "--node is required"),
        ("boost --node 16 --app doom", "unknown application 'doom'"),
        ("boost --node 16 --instances", "--instances expects a value"),
        (
            "boost --node 16 --instances x",
            "--instances expects an integer, got 'x'",
        ),
        ("boost --node 16 --duration", "--duration expects a value"),
        (
            "boost --node 16 --duration x",
            "--duration expects a number, got 'x'",
        ),
        ("boost --node 16 --frob", "unknown argument '--frob'"),
        ("help --frob", "unknown argument '--frob'"),
        ("frobnicate", "unknown command 'frobnicate'"),
        ("trace", "trace expects an action (summarize|compare)"),
        (
            "trace frob",
            "unknown trace action 'frob' (use summarize|compare)",
        ),
        ("trace summarize --top", "--top expects a value"),
        (
            "trace summarize --top x",
            "--top expects an integer, got 'x'",
        ),
        (
            "trace summarize --top 0",
            "--top expects a positive integer",
        ),
        ("trace summarize a.json b.json", "unknown argument 'b.json'"),
        ("trace summarize --frob", "unknown argument '--frob'"),
        (
            "trace compare one.json",
            "trace compare expects exactly two files: <BASELINE> <CURRENT>",
        ),
        (
            "trace compare a b c",
            "trace compare expects exactly two files: <BASELINE> <CURRENT>",
        ),
        ("trace compare a b --frob", "unknown argument '--frob'"),
        (
            "events",
            "events expects an action (summarize|filter|verify)",
        ),
        (
            "events frob",
            "unknown events action 'frob' (use summarize|filter|verify)",
        ),
        ("events summarize a b", "unknown argument 'b'"),
        ("events summarize --frob", "unknown argument '--frob'"),
        ("events verify a b", "unknown argument 'b'"),
        ("events filter", "events filter expects an event kind"),
        ("events filter k --limit", "--limit expects a value"),
        (
            "events filter k --limit x",
            "--limit expects an integer, got 'x'",
        ),
        ("events filter k a b", "unknown argument 'b'"),
        ("events filter k --frob", "unknown argument '--frob'"),
        ("report --trace", "--trace expects a value"),
        ("report --out", "--out expects a value"),
        ("report a b", "unknown argument 'b'"),
        ("report --frob", "unknown argument '--frob'"),
        ("fuzz --seed", "--seed expects a value"),
        ("fuzz --seed x", "--seed expects an integer, got 'x'"),
        ("fuzz --cases", "--cases expects a value"),
        ("fuzz --cases x", "--cases expects an integer, got 'x'"),
        ("fuzz --cases 0", "--cases expects a positive integer"),
        ("fuzz --inject", "--inject expects a mode"),
        (
            "fuzz --inject frob",
            "unknown inject mode 'frob' (use nan|time|tsp)",
        ),
        ("fuzz --corpus", "--corpus expects a directory"),
        ("fuzz --frob", "unknown argument '--frob'"),
        (
            "fuzz --replay --inject nan",
            "--replay re-runs the corpus; --inject only applies to fuzzing",
        ),
        ("tournament --seed", "--seed expects a value"),
        ("tournament --seed x", "--seed expects an integer, got 'x'"),
        ("tournament --cases", "--cases expects a value"),
        (
            "tournament --cases x",
            "--cases expects an integer, got 'x'",
        ),
        ("tournament --cases 0", "--cases expects a positive integer"),
        ("tournament --out", "--out expects a directory"),
        ("tournament --frob", "unknown argument '--frob'"),
        ("sweep", "sweep expects a spec file"),
        ("sweep s.json t.json", "unknown argument 't.json'"),
        ("sweep s.json --out", "--out expects a directory"),
        (
            "sweep s.json --cache-dir",
            "--cache-dir expects a directory",
        ),
        (
            "sweep s.json --no-cache --cache-dir c",
            "--no-cache and --cache-dir are mutually exclusive",
        ),
        ("sweep s.json --frob", "unknown argument '--frob'"),
        ("serve --addr", "--addr expects host:port"),
        ("serve --max-inflight", "--max-inflight expects a value"),
        (
            "serve --max-inflight x",
            "--max-inflight expects an integer, got 'x'",
        ),
        (
            "serve --max-inflight 0",
            "--max-inflight and --tenant-quota must be positive",
        ),
        ("serve --tenant-quota", "--tenant-quota expects a value"),
        (
            "serve --tenant-quota x",
            "--tenant-quota expects an integer, got 'x'",
        ),
        (
            "serve --tenant-quota 0",
            "--max-inflight and --tenant-quota must be positive",
        ),
        ("serve --state-dir", "--state-dir expects a directory"),
        ("serve --deadline-s", "--deadline-s expects seconds"),
        (
            "serve --deadline-s x",
            "--deadline-s expects a number, got 'x'",
        ),
        (
            "serve --deadline-s 0",
            "--deadline-s must be positive and --drain-grace-s non-negative",
        ),
        ("serve --drain-grace-s", "--drain-grace-s expects seconds"),
        (
            "serve --drain-grace-s x",
            "--drain-grace-s expects a number, got 'x'",
        ),
        (
            "serve --drain-grace-s -1",
            "--deadline-s must be positive and --drain-grace-s non-negative",
        ),
        ("serve --frob", "unknown argument '--frob'"),
        ("top --addr", "--addr expects host:port"),
        ("top --interval", "--interval expects seconds"),
        ("top --interval x", "--interval expects a number, got 'x'"),
        ("top --interval 0", "--interval expects positive seconds"),
        ("top --frob", "unknown argument '--frob'"),
    ];

    #[test]
    fn golden_usage_messages() {
        for (line, message) in GOLDEN_USAGE_ERRORS {
            match parse_line(line) {
                Err(e) => assert_eq!(e.0, *message, "{line}"),
                Ok(parsed) => panic!("{line}: accepted as {parsed:?}"),
            }
        }
    }

    /// Every `darksil` command line in `.github/workflows/ci.yml` (the
    /// last one usage-fails on purpose) plus perfbench's daemon spawn,
    /// with what it parses to.
    const CI_LINES: &[(&str, &str)] = &[
        (
            "fuzz --replay",
            "Fuzz { seed: 1, cases: 25, inject: None, corpus: \"tests/corpus\", replay: true } jobs=None",
        ),
        (
            "--jobs 4 fuzz --seed 1 --cases 200 --corpus fuzz-out",
            "Fuzz { seed: 1, cases: 200, inject: None, corpus: \"fuzz-out\", replay: false } jobs=Some(4)",
        ),
        (
            "--jobs 1 fuzz --seed 1 --cases 200 --corpus fuzz-out",
            "Fuzz { seed: 1, cases: 200, inject: None, corpus: \"fuzz-out\", replay: false } jobs=Some(1)",
        ),
        (
            "--jobs 4 fuzz --seed 1 --cases 200 --corpus fuzz-out",
            "Fuzz { seed: 1, cases: 200, inject: None, corpus: \"fuzz-out\", replay: false } jobs=Some(4)",
        ),
        (
            "fuzz --seed 1 --cases 1 --inject nan --corpus inject-corpus",
            "Fuzz { seed: 1, cases: 1, inject: Some(Nan), corpus: \"inject-corpus\", replay: false } jobs=None",
        ),
        (
            "fuzz --replay --corpus inject-corpus",
            "Fuzz { seed: 1, cases: 25, inject: None, corpus: \"inject-corpus\", replay: true } jobs=None",
        ),
        (
            "events verify results/events_table1+fig2+fig8.jsonl",
            "Events(Verify { path: Some(\"results/events_table1+fig2+fig8.jsonl\") }) jobs=None",
        ),
        (
            "--jobs 1 sweep scenarios/sweeps/fig8_node_parallelism.json --out sweep-j1 --cache-dir sweep-cache-j1",
            "Sweep { path: \"scenarios/sweeps/fig8_node_parallelism.json\", out: \"sweep-j1\", cache_dir: Some(\"sweep-cache-j1\"), no_cache: false, resume: false } jobs=Some(1)",
        ),
        (
            "--jobs 4 sweep scenarios/sweeps/fig8_node_parallelism.json --out sweep-j4 --cache-dir sweep-cache-j4",
            "Sweep { path: \"scenarios/sweeps/fig8_node_parallelism.json\", out: \"sweep-j4\", cache_dir: Some(\"sweep-cache-j4\"), no_cache: false, resume: false } jobs=Some(4)",
        ),
        (
            "--jobs 4 sweep scenarios/sweeps/fig8_node_parallelism.json --out sweep-warm --cache-dir sweep-cache-j4",
            "Sweep { path: \"scenarios/sweeps/fig8_node_parallelism.json\", out: \"sweep-warm\", cache_dir: Some(\"sweep-cache-j4\"), no_cache: false, resume: false } jobs=Some(4)",
        ),
        (
            "--jobs 4 sweep edited-sweep.json --out sweep-edit --cache-dir sweep-cache-j4",
            "Sweep { path: \"edited-sweep.json\", out: \"sweep-edit\", cache_dir: Some(\"sweep-cache-j4\"), no_cache: false, resume: false } jobs=Some(4)",
        ),
        (
            "--jobs 4 sweep scenarios/sweeps/mc_tdp_variability.json --out sweep-mc --cache-dir sweep-cache-mc",
            "Sweep { path: \"scenarios/sweeps/mc_tdp_variability.json\", out: \"sweep-mc\", cache_dir: Some(\"sweep-cache-mc\"), no_cache: false, resume: false } jobs=Some(4)",
        ),
        (
            "sweep scenarios/sweeps/fig8_node_parallelism.json --out sweep-env --cache-dir sweep-cache-j4",
            "Sweep { path: \"scenarios/sweeps/fig8_node_parallelism.json\", out: \"sweep-env\", cache_dir: Some(\"sweep-cache-j4\"), no_cache: false, resume: false } jobs=None",
        ),
        (
            "trace summarize results/trace_repro.json",
            "Trace(Summarize { path: \"results/trace_repro.json\", top: 12 }) jobs=None",
        ),
        (
            "events summarize table1+fig2+fig8",
            "Events(Summarize { path: Some(\"table1+fig2+fig8\") }) jobs=None",
        ),
        (
            "report table1+fig2+fig8",
            "Report { run: Some(\"table1+fig2+fig8\"), trace: None, out: None } jobs=None",
        ),
        (
            "trace compare BENCH_baseline.json BENCH_repro.json",
            "Trace(Compare { baseline: \"BENCH_baseline.json\", current: \"BENCH_repro.json\" }) jobs=None",
        ),
        (
            "cache verify --dir chaos-cache",
            "Cache { action: Verify, dir: \"chaos-cache\", evict: false } jobs=None",
        ),
        (
            "cache verify --dir chaos-cache --evict",
            "Cache { action: Verify, dir: \"chaos-cache\", evict: true } jobs=None",
        ),
        (
            "cache verify --dir chaos-cache",
            "Cache { action: Verify, dir: \"chaos-cache\", evict: false } jobs=None",
        ),
        (
            "run scenarios/dsrem_mix.json --json",
            "Run { path: \"scenarios/dsrem_mix.json\", json: true } jobs=None",
        ),
        (
            "--jobs 2 serve --addr 127.0.0.1:8787 --state-dir svc-state --tenant-quota 1",
            "Serve { addr: \"127.0.0.1:8787\", max_inflight: 64, tenant_quota: 1, state_dir: \"svc-state\", deadline_s: 30.0, drain_grace_s: 30.0 } jobs=Some(2)",
        ),
        (
            "--jobs 2 serve --addr 127.0.0.1:8788 --state-dir svc-kill",
            "Serve { addr: \"127.0.0.1:8788\", max_inflight: 64, tenant_quota: 8, state_dir: \"svc-kill\", deadline_s: 30.0, drain_grace_s: 30.0 } jobs=Some(2)",
        ),
        (
            "--jobs 2 serve --addr 127.0.0.1:8788 --state-dir svc-kill",
            "Serve { addr: \"127.0.0.1:8788\", max_inflight: 64, tenant_quota: 8, state_dir: \"svc-kill\", deadline_s: 30.0, drain_grace_s: 30.0 } jobs=Some(2)",
        ),
        (
            "--jobs 2 serve --addr 127.0.0.1:8789 --state-dir svc-hang --deadline-s 2",
            "Serve { addr: \"127.0.0.1:8789\", max_inflight: 64, tenant_quota: 8, state_dir: \"svc-hang\", deadline_s: 2.0, drain_grace_s: 30.0 } jobs=Some(2)",
        ),
        (
            "--jobs 2 serve --addr 127.0.0.1:8791 --state-dir svc-metrics",
            "Serve { addr: \"127.0.0.1:8791\", max_inflight: 64, tenant_quota: 8, state_dir: \"svc-metrics\", deadline_s: 30.0, drain_grace_s: 30.0 } jobs=Some(2)",
        ),
        (
            "top --addr 127.0.0.1:8791 --once",
            "Top { addr: \"127.0.0.1:8791\", interval_s: 2.0, once: true } jobs=None",
        ),
        (
            "trace summarize --top 0",
            "error: --top expects a positive integer",
        ),
        (
            "serve --addr 127.0.0.1:8790 --state-dir svc-bad",
            "Serve { addr: \"127.0.0.1:8790\", max_inflight: 64, tenant_quota: 8, state_dir: \"svc-bad\", deadline_s: 30.0, drain_grace_s: 30.0 } jobs=None",
        ),
        (
            "serve --addr 127.0.0.1:0 --jobs 1 --state-dir perfbench-state",
            "Serve { addr: \"127.0.0.1:0\", max_inflight: 64, tenant_quota: 8, state_dir: \"perfbench-state\", deadline_s: 30.0, drain_grace_s: 30.0 } jobs=Some(1)",
        ),
    ];

    #[test]
    fn ci_command_lines_parse_as_before() {
        for (line, expected) in CI_LINES {
            let parsed = match parse_line(line) {
                Ok((command, jobs)) => format!("{command:?} jobs={jobs:?}"),
                Err(e) => format!("error: {e}"),
            };
            assert_eq!(parsed, *expected, "{line}");
        }
    }

    #[test]
    fn every_subcommand_prints_the_usage_for_help() {
        for spec in SUBCOMMANDS {
            for help in ["--help", "-h"] {
                let line = format!("{} {help}", spec.words);
                assert_eq!(parse_line(&line), Ok((Command::Help, None)), "{line}");
            }
        }
        assert_eq!(
            parse_line("fuzz --seed 3 --help"),
            Ok((Command::Help, None))
        );
        // The synopsis lists every flag every subcommand accepts.
        let text = usage();
        for spec in SUBCOMMANDS {
            for flag in spec.flags {
                assert!(text.contains(flag.name), "{} {}", spec.words, flag.name);
            }
        }
        assert!(text.contains("--jobs N") && text.contains("--help"));
    }

    #[test]
    fn subcommands_refuse_each_others_flags() {
        let line = "tsp --node 16 --active 40 --mix 3 --duration 9 --policy x";
        assert_eq!(parse_line(line).unwrap_err().0, "unknown argument '--mix'");
        for line in [
            "estimate --node 16 --app x264 --tdp 185 --mix 3",
            "map --node 16 --policy dsrem --app x264",
            "boost --node 16 --tdp 100",
            "tsp --node 16 --threads 8",
        ] {
            assert!(
                parse_line(line)
                    .unwrap_err()
                    .0
                    .starts_with("unknown argument"),
                "{line}"
            );
        }
    }

    #[test]
    fn flags_may_come_before_or_between_operands() {
        assert_eq!(
            parse_line("events filter --limit 5 boost.transition")
                .unwrap()
                .0,
            Command::Events(EventsAction::Filter {
                path: None,
                kind: "boost.transition".into(),
                limit: 5,
            })
        );
        assert_eq!(
            parse_line("trace summarize --top 3 t.json").unwrap().0,
            parse_line("trace summarize t.json --top 3").unwrap().0
        );
        assert_eq!(
            parse_line("sweep --out o --resume spec.json").unwrap().0,
            parse_line("sweep spec.json --out o --resume").unwrap().0
        );
    }
}
