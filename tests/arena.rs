//! Fuzzing-arena integration tests: the shipped scenarios and every
//! transient policy pass the invariant suite clean, generated scenarios
//! round-trip strict validation, case verdicts are independent of the
//! worker count, and the committed corpus replays.
//!
//! Every test that runs cases records on the process-global event
//! recorder, so those tests serialise on [`recorder_lock`].

use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

use darksil_arena::{
    generate_cases, load_corpus, replay, run_cases, run_single, shrink, ArenaCase, Oracle, Verdict,
};
use darksil_boost::{
    run_boosting, run_boosting_and_constant, run_constant, run_per_instance_boosting,
    run_phased_boosting, BoostError, Phase, PolicyConfig,
};
use darksil_mapping::{place_patterned, Mapping, Platform};
use darksil_obs::EventStream;
use darksil_power::TechnologyNode;
use darksil_scenario::{parse_scenario_file, validate_scenario, Scenario};
use darksil_units::{Celsius, Hertz, Seconds};
use darksil_workload::{ParsecApp, Workload};
use proptest::prelude::*;

fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn corpus_dir() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/corpus"))
}

fn shipped_scenarios() -> Vec<(std::path::PathBuf, Scenario)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let scenario =
                parse_scenario_file(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((path, scenario));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(out.len() >= 4, "expected the shipped scenario set");
    out
}

/// Every shipped scenario runs through the full pipeline with events on
/// and satisfies every physical invariant.
#[test]
fn shipped_scenarios_pass_the_invariant_suite() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    for (path, scenario) in shipped_scenarios() {
        let case = ArenaCase {
            index: 0,
            scenario,
            faults: None,
            inject: None,
        };
        let outcome = run_single(&case, &oracle);
        assert_eq!(
            outcome.verdict(),
            Verdict::Pass,
            "{}: error={:?} violations={:?}",
            path.display(),
            outcome.error,
            outcome.violations
        );
    }
}

/// The small-chip setup of the boost unit tests: 12 of 16 cores active,
/// regulated to 60 °C, which a 16-core die can reach.
fn small_chip() -> (Platform, Mapping, PolicyConfig) {
    let platform = Platform::with_core_count(TechnologyNode::Nm16, 16)
        .unwrap()
        .with_boost_levels(Hertz::from_ghz(4.4))
        .unwrap();
    let workload = Workload::uniform(ParsecApp::X264, 3, 4).unwrap();
    let mapping = place_patterned(platform.floorplan(), &workload, platform.max_level()).unwrap();
    let config = PolicyConfig {
        threshold: Celsius::new(60.0),
        period: Seconds::new(0.02),
        ..PolicyConfig::default()
    };
    (platform, mapping, config)
}

/// Every public transient policy opens one oracle segment per run with
/// the watermark armed, and its event stream passes every invariant —
/// including a phased run's second segment, which starts after t = 0.
#[test]
fn every_transient_policy_passes_the_invariant_suite() {
    let _guard = recorder_lock();
    let (platform, mapping, config) = small_chip();
    let horizon = Seconds::new(30.0);
    // The first phase ends with the peak above the threshold, so the
    // second phase's segment only verifies if its watermark track
    // starts afresh.
    let phases = [10.02, 20.0].map(|secs| Phase {
        mapping: mapping.clone(),
        duration: Seconds::new(secs),
    });
    type Run<'a> = Box<dyn Fn() -> Result<(), BoostError> + 'a>;
    let policies: [(&str, usize, Run); 4] = [
        (
            "boosting",
            1,
            Box::new(|| run_boosting(&platform, &mapping, horizon, &config).map(drop)),
        ),
        (
            "constant",
            1,
            Box::new(|| run_constant(&platform, &mapping, horizon, &config).map(drop)),
        ),
        (
            "per_instance",
            1,
            Box::new(|| run_per_instance_boosting(&platform, &mapping, horizon, &config).map(drop)),
        ),
        (
            "phased",
            2,
            Box::new(|| run_phased_boosting(&platform, &phases, &config).map(drop)),
        ),
    ];
    for (name, segments, run) in policies {
        darksil_obs::enable_events();
        let outcome = run();
        let (_trace, stream) = darksil_obs::drain_all();
        outcome.unwrap_or_else(|e| panic!("{name}: {e}"));
        let violations = Oracle::default().verify(&stream);
        assert!(violations.is_empty(), "{name}: {violations:?}");
        assert_eq!(stream.of_kind("boost.run").count(), segments, "{name}");
        assert_eq!(stream.of_kind("boost.summary").count(), segments, "{name}");
        let cores: Vec<_> = stream.of_kind("thermal.cores").collect();
        assert!(
            !cores.is_empty()
                && cores
                    .iter()
                    .all(|e| e.f64_field("threshold_c") == Some(60.0)),
            "{name}: per-core samples do not carry the armed watermark"
        );
        // The constant policy's steady state sits under the threshold by
        // construction, so only the boosting loops cross it.
        if name != "constant" {
            assert!(
                stream.of_kind("thermal.watermark").count() > 0,
                "{name}: no watermark crossings"
            );
        }
    }
}

/// Both §6 policies run together give exactly the traces of the two
/// separate calls. With events off they step in lockstep; with events
/// on they run one after the other, so the stream is the two calls'
/// stream byte for byte and passes the oracle.
#[test]
fn boosting_and_constant_together_equal_the_two_separate_runs() {
    let _guard = recorder_lock();
    let (platform, mapping, config) = small_chip();
    let horizon = Seconds::new(30.0);
    let separate = || {
        (
            run_boosting(&platform, &mapping, horizon, &config).unwrap(),
            run_constant(&platform, &mapping, horizon, &config).unwrap(),
        )
    };
    assert!(!darksil_obs::events_enabled());
    let lockstep = run_boosting_and_constant(&platform, &mapping, horizon, &config).unwrap();
    assert_eq!(lockstep, separate());

    darksil_obs::enable_events();
    let recorded = run_boosting_and_constant(&platform, &mapping, horizon, &config);
    let (_trace, together) = darksil_obs::drain_all();
    darksil_obs::enable_events();
    let reference = separate();
    let (_trace, apart) = darksil_obs::drain_all();
    assert_eq!(recorded.unwrap(), reference);
    assert_eq!(together.to_jsonl(), apart.to_jsonl());
    assert_eq!(together.of_kind("boost.run").count(), 2);
    let violations = Oracle::default().verify(&together);
    assert!(violations.is_empty(), "{violations:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Generated scenarios always satisfy the strict validator and
    /// survive a JSON round trip unchanged.
    #[test]
    fn generated_scenarios_round_trip_strict_validation(seed in 0_u64..1_000_000) {
        for case in generate_cases(seed, 4, None) {
            validate_scenario(&case.scenario)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            let text = darksil_json::to_string_pretty(&case.scenario);
            let back: Scenario = darksil_json::from_str(&text)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            prop_assert_eq!(&back, &case.scenario);
        }
    }
}

/// The same population produces identical verdicts and a byte-identical
/// event stream at any worker count.
#[test]
fn fuzz_batch_is_deterministic_across_worker_counts() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    let cases = generate_cases(99, 12, None);
    let (serial, stream_serial) = run_cases(&cases, 1, &oracle);
    let (parallel, stream_parallel) = run_cases(&cases, 4, &oracle);
    assert_eq!(stream_serial.to_jsonl(), stream_parallel.to_jsonl());
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.verdict(), b.verdict(), "{}", a.name);
        assert_eq!(a.violations.len(), b.violations.len(), "{}", a.name);
        assert_eq!(a.throttle_residency, b.throttle_residency, "{}", a.name);
    }
}

/// The committed corpus replays: injected reproducers are still caught
/// by the oracle, regression reproducers (real since-fixed bugs) run
/// clean.
#[test]
fn committed_scenario_corpus_replays() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    let entries = load_corpus(corpus_dir()).expect("corpus loads");
    assert!(!entries.is_empty(), "expected committed reproducers");
    for (path, repro) in &entries {
        let outcome = replay(repro, &oracle);
        if repro.inject.is_some() {
            assert!(
                outcome
                    .violations
                    .iter()
                    .any(|v| v.invariant == repro.invariant),
                "{}: oracle no longer catches `{}`",
                path.display(),
                repro.invariant
            );
        } else {
            assert!(
                outcome.violations.is_empty(),
                "{}: regression resurfaced: {:?}",
                path.display(),
                outcome.violations
            );
        }
    }
}

/// The committed stream regressions (event streams that once tripped an
/// invariant) verify clean against the current oracle.
#[test]
fn committed_stream_corpus_verifies_clean() {
    let oracle = Oracle::default();
    let mut streams = 0;
    for entry in std::fs::read_dir(corpus_dir()).expect("corpus dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            let text = std::fs::read_to_string(&path).expect("readable");
            let stream = EventStream::from_jsonl(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let violations = oracle.verify(&stream);
            assert!(
                violations.is_empty(),
                "{}: {:?}",
                path.display(),
                violations
            );
            streams += 1;
        }
    }
    assert!(streams >= 1, "expected committed stream regressions");
}

/// The full failure loop: an injected violation is caught, shrinks to a
/// minimal case that still trips the same invariant, and the shrunk
/// case replays.
#[test]
fn injected_violation_is_caught_shrunk_and_replayable() {
    let _guard = recorder_lock();
    let oracle = Oracle::default();
    let mut cases = generate_cases(7, 1, None);
    cases[0].inject = darksil_arena::InjectMode::parse("nan");
    let outcome = run_single(&cases[0], &oracle);
    assert_eq!(outcome.verdict(), Verdict::Violated);
    let invariant = &outcome.violations[0].invariant;
    assert_eq!(invariant, "no-nan");

    let shrunk = shrink(&cases[0], invariant, &oracle);
    assert!(shrunk.scenario.workload.len() <= cases[0].scenario.workload.len());
    let replayed = run_single(&shrunk, &oracle);
    assert!(
        replayed
            .violations
            .iter()
            .any(|v| &v.invariant == invariant),
        "shrunk case no longer trips `{invariant}`"
    );
}
