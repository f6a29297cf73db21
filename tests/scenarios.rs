//! Every shipped scenario file must parse, validate, round-trip
//! through the serializer, and run.

use darksil::boost::BoostError;
use darksil::scenario::{
    parse_scenario, run_scenario, validate_scenario, ExperimentSpec, Scenario, ScenarioError,
};

fn shipped_scenarios() -> Vec<(std::path::PathBuf, Scenario)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let scenario =
                parse_scenario(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            out.push((path, scenario));
        }
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    assert!(
        out.len() >= 4,
        "expected the shipped scenario set, found {}",
        out.len()
    );
    out
}

#[test]
fn shipped_scenarios_parse_and_run() {
    for (path, scenario) in shipped_scenarios() {
        let report = run_scenario(&scenario).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(report.total_gips > 0.0, "{}", path.display());
    }
}

#[test]
fn shipped_scenarios_round_trip_through_json() {
    for (path, scenario) in shipped_scenarios() {
        // Serialise the parsed scenario and parse it back: the result
        // must be identical, so nothing is lost or reinterpreted on a
        // save/load cycle.
        let json = darksil_json::to_string_pretty(&scenario);
        let back = parse_scenario(&json)
            .unwrap_or_else(|e| panic!("{}: re-parse failed: {e}", path.display()));
        assert_eq!(scenario, back, "{}", path.display());
    }
}

#[test]
fn shipped_scenarios_pass_strict_validation() {
    for (path, scenario) in shipped_scenarios() {
        validate_scenario(&scenario).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn mutated_shipped_scenarios_are_rejected_with_field_paths() {
    for (path, scenario) in shipped_scenarios() {
        // Each strictness rule must fire on every shipped file, and the
        // error must name the offending field.
        let cases: Vec<(Scenario, &str)> = vec![
            (
                Scenario {
                    node: 14,
                    ..scenario.clone()
                },
                "node",
            ),
            (
                Scenario {
                    name: "  ".into(),
                    ..scenario.clone()
                },
                "name",
            ),
            (
                Scenario {
                    workload: Vec::new(),
                    ..scenario.clone()
                },
                "workload",
            ),
            (
                Scenario {
                    t_dtm_celsius: Some(-3.0),
                    ..scenario.clone()
                },
                "t_dtm_celsius",
            ),
            (
                {
                    let mut s = scenario.clone();
                    s.workload[0].threads = 99;
                    s
                },
                "workload[0].threads",
            ),
            (
                {
                    let mut s = scenario.clone();
                    s.workload[0].app = "doom".into();
                    s
                },
                "workload[0].app",
            ),
            (
                Scenario {
                    experiment: ExperimentSpec::Thermal {
                        frequency_ghz: Some(3.33),
                    },
                    ..scenario.clone()
                },
                "experiment.frequency_ghz",
            ),
        ];
        for (bad, field) in cases {
            let err = validate_scenario(&bad)
                .expect_err(&format!("{}: `{field}` accepted", path.display()));
            assert!(
                err.to_string().contains(field),
                "{}: error for `{field}` reads: {err}",
                path.display()
            );
        }
    }
}

#[test]
fn unknown_scenario_fields_are_rejected() {
    for (path, scenario) in shipped_scenarios() {
        // Strict parsing: an extra top-level key must be flagged, not
        // silently dropped.
        let json = darksil_json::to_string_pretty(&scenario);
        let with_extra = json.replacen('{', "{\n  \"surprise\": 1,", 1);
        let err = parse_scenario(&with_extra)
            .expect_err(&format!("{}: extra field accepted", path.display()));
        assert!(
            err.to_string().contains("surprise"),
            "{}: {err}",
            path.display()
        );
    }
}

#[test]
fn an_endless_boost_scenario_is_cancelled_by_its_deadline() {
    // 10¹² s at a 1 ms period passes validation; what stops it is the
    // deadline a supervisor (a served job, say) runs it under, checked
    // every control period. Sizing anything by its 10¹⁵ steps up front
    // would fail the allocation and abort the process instead.
    let scenario = parse_scenario(
        r#"{
          "name": "an endless turbo run",
          "node": 16,
          "workload": [{ "app": "x264", "instances": 3, "threads": 4 }],
          "experiment": { "type": "boost", "duration_s": 1e12, "period_s": 0.001 }
        }"#,
    )
    .unwrap();
    let ctx = darksil_robust::RunContext::with_token(
        darksil_robust::CancellationToken::with_deadline(std::time::Duration::ZERO),
    );
    let err = darksil_robust::scoped(&ctx, || run_scenario(&scenario))
        .expect_err("an expired deadline stops the run");
    let ScenarioError::Run(inner) = &err else {
        panic!("not a run failure: {err}");
    };
    assert!(
        matches!(
            inner.downcast_ref::<BoostError>(),
            Some(BoostError::Cancelled { .. })
        ),
        "{err}"
    );
}
