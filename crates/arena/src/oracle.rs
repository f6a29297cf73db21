//! The event-stream verdict oracle: physical invariants over a drained
//! [`EventStream`].
//!
//! The oracle never looks at simulator internals — only at the emitted
//! domain events, which makes it equally applicable to a live fuzz run,
//! a persisted `events_<run>.jsonl` file (`darksil events verify`), and
//! a corpus replay. Invariants (names are stable, they appear in CLI
//! output and corpus files):
//!
//! | invariant              | statement                                                        |
//! |------------------------|------------------------------------------------------------------|
//! | `no-nan`               | no emitted numeric field is NaN or ±Inf                          |
//! | `monotone-time`        | `t_s` strictly increases within a policy segment                 |
//! | `temp-bound`           | `thermal.step` peak ≤ threshold + policy overshoot margin        |
//! | `watermark-alternation`| `thermal.watermark` directions alternate, starting `above`       |
//! | `watermark-windows`    | every threshold crossing is bracketed by a watermark event       |
//! | `tsp-monotone`         | TSP per-core budget never grows with the active-core count       |
//! | `energy-conserved`     | `boost.summary` energy equals the integrated `thermal.step` power|
//! | `dtm-failsafe`         | DTM sustains no more than it admitted; hidden fraction in [0, 1] |
//! | `throttle-residency`   | derived throttle residency is finite and within [0, 1]           |
//!
//! Policy segments are delimited by `boost.run` / `boost.summary`
//! marker events: a policy run on a fresh simulation restarts its
//! clock, and each phase of a phased run starts where the last ended,
//! so the time, temperature, watermark and energy checks are scoped
//! between the markers.

use darksil_obs::{EventRecord, EventStream, EventValue};

/// Stable names of every invariant the oracle enforces.
pub const INVARIANTS: &[&str] = &[
    "no-nan",
    "monotone-time",
    "temp-bound",
    "watermark-alternation",
    "watermark-windows",
    "tsp-monotone",
    "energy-conserved",
    "dtm-failsafe",
    "throttle-residency",
];

/// One invariant violation: the stable invariant name, the submission
/// key of the **first** offending event, and a human-readable detail
/// (which includes the total occurrence count for noisy invariants).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable invariant name from [`INVARIANTS`].
    pub invariant: String,
    /// Submission key (`seq`) of the first offending event.
    pub seq: Vec<u64>,
    /// What went wrong, with values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let seq: Vec<String> = self.seq.iter().map(u64::to_string).collect();
        write!(
            f,
            "{} at seq [{}]: {}",
            self.invariant,
            seq.join(","),
            self.detail
        )
    }
}

/// Oracle configuration. The defaults are calibrated against the
/// shipped policies; loosen them only with a measured justification.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Oracle {
    /// Allowed overshoot above the boosting controller's threshold, in
    /// °C. One 200 MHz step from just below the threshold heats a small
    /// die by ~4 °C at a 20 ms period; 6 °C bounds that with margin
    /// while still catching runaway heating.
    pub boost_overshoot_margin_c: f64,
    /// Allowed overshoot for the constant-frequency policy, whose
    /// steady state sits at or below the threshold by construction.
    pub constant_overshoot_margin_c: f64,
    /// Relative tolerance for the energy cross-check. Both sides sum
    /// the same `power · Δt` terms in the same order, so only
    /// serialisation round-off separates them.
    pub energy_rel_tol: f64,
}

impl Default for Oracle {
    fn default() -> Self {
        Self {
            boost_overshoot_margin_c: 6.0,
            constant_overshoot_margin_c: 0.5,
            energy_rel_tol: 1e-6,
        }
    }
}

/// A `boost.run` … `boost.summary` segment in flight.
struct Segment {
    policy: String,
    threshold_c: Option<f64>,
    last_t: Option<f64>,
    /// Watermark window state: currently above the threshold?
    above: bool,
    /// A threshold crossing seen in `thermal.step` that still awaits
    /// its `thermal.watermark` event: `(expected_above, seq)`.
    pending_crossing: Option<(bool, Vec<u64>)>,
    /// Σ `power_w · Δt` over the segment's `thermal.step` events.
    energy_j: f64,
    last_step_t: f64,
    /// Control period from `boost.run`: the energy integral starts one
    /// period before the first step — at zero for a run from a cold
    /// chip, later for a phase that continues an earlier run.
    period_s: Option<f64>,
}

impl Segment {
    fn new(policy: String, threshold_c: Option<f64>, period_s: Option<f64>) -> Self {
        Self {
            policy,
            threshold_c,
            last_t: None,
            above: false,
            pending_crossing: None,
            energy_j: 0.0,
            last_step_t: 0.0,
            period_s,
        }
    }
}

/// Accumulates at most one reported [`Violation`] per invariant (the
/// first), counting the rest — a single broken bound otherwise floods
/// the report with thousands of identical lines.
#[derive(Default)]
struct Findings {
    found: Vec<(Violation, usize)>,
}

impl Findings {
    fn record(&mut self, invariant: &str, seq: &[u64], detail: String) {
        match self
            .found
            .iter_mut()
            .find(|(v, _)| v.invariant == invariant)
        {
            Some((_, count)) => *count += 1,
            None => self.found.push((
                Violation {
                    invariant: invariant.to_string(),
                    seq: seq.to_vec(),
                    detail,
                },
                1,
            )),
        }
    }

    fn into_violations(self) -> Vec<Violation> {
        let mut out: Vec<Violation> = self
            .found
            .into_iter()
            .map(|(mut v, count)| {
                if count > 1 {
                    v.detail.push_str(&format!(" ({count} occurrences)"));
                }
                v
            })
            .collect();
        out.sort_by(|a, b| a.seq.cmp(&b.seq));
        out
    }
}

impl Oracle {
    /// Checks every invariant over `stream` and returns the violations,
    /// ordered by the first offending event's submission key. An empty
    /// result is a clean verdict.
    #[must_use]
    pub fn verify(&self, stream: &EventStream) -> Vec<Violation> {
        let mut f = Findings::default();
        let mut segment: Option<Segment> = None;
        // Time cursor for `thermal.step` events outside any segment
        // (tools that drive `TransientSim` directly).
        let mut free_last_t: Option<f64> = None;
        // TSP probe ladder cursor: `(active, per_core_w)` of the last
        // probe; a non-increasing `active` starts a fresh ladder.
        let mut tsp_last: Option<(f64, f64)> = None;

        for event in &stream.events {
            self.check_fields(event, &mut f);
            match event.kind.as_str() {
                "boost.run" => {
                    let policy = event.str_field("policy").unwrap_or("?").to_string();
                    segment = Some(Segment::new(
                        policy,
                        event.f64_field("threshold_c"),
                        event.f64_field("period_s"),
                    ));
                }
                "boost.summary" => {
                    if let Some(seg) = segment.take() {
                        self.close_segment(&seg, event, &mut f);
                    }
                }
                "thermal.step" => {
                    let t_s = event.f64_field("t_s");
                    let peak = event.f64_field("peak_c");
                    match segment.as_mut() {
                        Some(seg) => {
                            Self::check_step_in_segment(self, seg, event, t_s, peak, &mut f);
                        }
                        None => {
                            if let (Some(t), Some(last)) = (t_s, free_last_t) {
                                if t <= last {
                                    f.record(
                                        "monotone-time",
                                        &event.seq,
                                        format!("t_s went from {last} to {t}"),
                                    );
                                }
                            }
                            free_last_t = t_s.or(free_last_t);
                        }
                    }
                }
                "thermal.watermark" => {
                    if let Some(seg) = segment.as_mut() {
                        Self::check_watermark(seg, event, &mut f);
                    }
                }
                // `tsp.budget` fires for arbitrary mappings, whose budgets
                // are not comparable; only the arena's own ascending
                // worst-case ladder (`arena.tsp_probe`) is checked.
                "arena.tsp_probe" => {
                    let active = event.f64_field("active");
                    let budget = event.f64_field("per_core_w");
                    if let (Some(active), Some(budget)) = (active, budget) {
                        if let Some((last_active, last_budget)) = tsp_last {
                            if active > last_active && budget > last_budget * (1.0 + 1e-9) {
                                f.record(
                                    "tsp-monotone",
                                    &event.seq,
                                    format!(
                                        "TSP({active}) = {budget:.4} W/core exceeds \
                                         TSP({last_active}) = {last_budget:.4} W/core"
                                    ),
                                );
                            }
                        }
                        tsp_last = Some((active, budget));
                    }
                }
                "arena.dtm_probe" => Self::check_dtm(event, &mut f),
                _ => {}
            }
        }
        if let Some(seg) = segment {
            // Unterminated segment (the policy run errored out): the
            // pending-crossing check still applies to what was emitted.
            if let Some((_, seq)) = &seg.pending_crossing {
                f.record(
                    "watermark-windows",
                    seq,
                    "threshold crossing never got its thermal.watermark event".to_string(),
                );
            }
        }
        self.check_residency(stream, &mut f);
        f.into_violations()
    }

    /// `no-nan` over every numeric field of every event.
    fn check_fields(&self, event: &EventRecord, f: &mut Findings) {
        for (name, value) in &event.fields {
            let bad = match value {
                EventValue::F64(x) => !x.is_finite(),
                EventValue::F64s(xs) => xs.iter().any(|x| !x.is_finite()),
                _ => false,
            };
            if bad {
                f.record(
                    "no-nan",
                    &event.seq,
                    format!("field `{name}` of `{}` is not finite", event.kind),
                );
            }
        }
    }

    fn check_step_in_segment(
        &self,
        seg: &mut Segment,
        event: &EventRecord,
        t_s: Option<f64>,
        peak: Option<f64>,
        f: &mut Findings,
    ) {
        if let Some(t) = t_s {
            match seg.last_t {
                Some(last) if t <= last => f.record(
                    "monotone-time",
                    &event.seq,
                    format!("t_s went from {last} to {t} within a {} run", seg.policy),
                ),
                Some(_) => {}
                None => seg.last_step_t = seg.period_s.map_or(0.0, |period| t - period),
            }
            if let Some(power) = event.f64_field("power_w") {
                seg.energy_j += power * (t - seg.last_step_t);
                seg.last_step_t = t;
            }
            seg.last_t = Some(t);
        }
        let Some(threshold) = seg.threshold_c else {
            return;
        };
        let Some(peak) = peak else { return };
        let margin = if seg.policy == "constant" {
            self.constant_overshoot_margin_c
        } else {
            self.boost_overshoot_margin_c
        };
        if peak > threshold + margin {
            f.record(
                "temp-bound",
                &event.seq,
                format!(
                    "peak {peak:.2} °C exceeds threshold {threshold} °C + {margin} °C \
                     margin in a {} run",
                    seg.policy
                ),
            );
        }
        // Watermark window bookkeeping: a crossing observed in the step
        // stream must be announced by the very next watermark event.
        let is_above = peak > threshold;
        if let Some((expected, seq)) = seg.pending_crossing.take() {
            // The previous crossing was never announced; a new step
            // arriving first proves the event is missing.
            f.record(
                "watermark-windows",
                &seq,
                format!(
                    "crossing to {} was never announced by thermal.watermark",
                    if expected { "above" } else { "below" }
                ),
            );
            seg.above = expected; // resynchronise
        }
        if is_above != seg.above {
            seg.pending_crossing = Some((is_above, event.seq.clone()));
        }
    }

    fn check_watermark(seg: &mut Segment, event: &EventRecord, f: &mut Findings) {
        let Some(direction) = event.str_field("direction") else {
            return;
        };
        let is_above = direction == "above";
        if is_above == seg.above {
            f.record(
                "watermark-alternation",
                &event.seq,
                format!(
                    "consecutive `{direction}` watermark events (they must alternate, \
                     starting above)"
                ),
            );
        }
        match seg.pending_crossing.take() {
            Some((expected, seq)) if expected != is_above => {
                f.record(
                    "watermark-windows",
                    &seq,
                    format!(
                        "step stream crossed to {} but the watermark says {direction}",
                        if expected { "above" } else { "below" }
                    ),
                );
            }
            Some(_) => {}
            None => {
                // A watermark with no crossing in the step stream. The
                // very first `above` of a segment is legitimate: the
                // crossing step itself emits `thermal.step` before the
                // watermark, so the pending slot was just consumed —
                // reaching here means the directions track covers it.
                f.record(
                    "watermark-windows",
                    &event.seq,
                    format!("`{direction}` watermark without a matching step-stream crossing"),
                );
            }
        }
        seg.above = is_above;
    }

    fn close_segment(&self, seg: &Segment, summary: &EventRecord, f: &mut Findings) {
        if let Some((expected, seq)) = &seg.pending_crossing {
            f.record(
                "watermark-windows",
                seq,
                format!(
                    "crossing to {} was never announced by thermal.watermark",
                    if *expected { "above" } else { "below" }
                ),
            );
        }
        let Some(declared) = summary.f64_field("energy_j") else {
            return;
        };
        let integrated = seg.energy_j;
        let scale = declared.abs().max(integrated.abs()).max(1e-12);
        if ((declared - integrated) / scale).abs() > self.energy_rel_tol {
            f.record(
                "energy-conserved",
                &summary.seq,
                format!(
                    "boost.summary declares {declared:.6} J but the thermal.step stream \
                     integrates to {integrated:.6} J over a {} run",
                    seg.policy
                ),
            );
        }
    }

    fn check_dtm(event: &EventRecord, f: &mut Findings) {
        let admitted = event.f64_field("admitted_dark");
        let sustained = event.f64_field("sustained_dark");
        let hidden = event.f64_field("hidden_dark");
        if let (Some(a), Some(s)) = (admitted, sustained) {
            if s < a - 1e-9 {
                f.record(
                    "dtm-failsafe",
                    &event.seq,
                    format!("DTM reduced dark silicon ({a:.4} → {s:.4}); it can only add"),
                );
            }
        }
        if let Some(h) = hidden {
            if !(0.0..=1.0).contains(&h) {
                f.record(
                    "dtm-failsafe",
                    &event.seq,
                    format!("hidden dark fraction {h:.4} outside [0, 1]"),
                );
            }
        }
    }

    fn check_residency(&self, stream: &EventStream, f: &mut Findings) {
        let Some(residency) = stream.throttle_residency() else {
            return;
        };
        if !residency.is_finite() || !(0.0..=1.0).contains(&residency) {
            let seq = stream
                .of_kind("boost.transition")
                .next()
                .map(|e| e.seq.clone())
                .unwrap_or_default();
            f.record(
                "throttle-residency",
                &seq,
                format!("derived throttle residency {residency} outside [0, 1]"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: Vec<u64>, kind: &str, fields: Vec<(&str, EventValue)>) -> EventRecord {
        EventRecord {
            seq,
            kind: kind.to_string(),
            fields: fields
                .into_iter()
                .map(|(n, v)| (n.to_string(), v))
                .collect(),
        }
    }

    fn stream(events: Vec<EventRecord>) -> EventStream {
        EventStream { events }
    }

    #[test]
    fn clean_stream_passes() {
        let s = stream(vec![
            ev(
                vec![0],
                "boost.run",
                vec![
                    ("policy", "boosting".into()),
                    ("threshold_c", 60.0.into()),
                    ("period_s", 0.02.into()),
                ],
            ),
            ev(
                vec![1],
                "thermal.step",
                vec![
                    ("t_s", 0.02.into()),
                    ("peak_c", 45.0.into()),
                    ("power_w", 10.0.into()),
                ],
            ),
            ev(
                vec![2],
                "thermal.step",
                vec![
                    ("t_s", 0.04.into()),
                    ("peak_c", 46.0.into()),
                    ("power_w", 10.0.into()),
                ],
            ),
            ev(
                vec![3],
                "boost.summary",
                vec![
                    ("policy", "boosting".into()),
                    ("energy_j", (10.0 * 0.04).into()),
                ],
            ),
        ]);
        assert!(Oracle::default().verify(&s).is_empty());
    }

    #[test]
    fn nan_fields_are_caught() {
        let s = stream(vec![ev(
            vec![0],
            "thermal.step",
            vec![("t_s", 0.01.into()), ("peak_c", f64::NAN.into())],
        )]);
        let v = Oracle::default().verify(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "no-nan");
        assert_eq!(v[0].seq, vec![0]);
    }

    #[test]
    fn backwards_time_in_segment_is_caught_once_with_count() {
        let mut events = vec![ev(
            vec![0],
            "boost.run",
            vec![("policy", "boosting".into()), ("threshold_c", 80.0.into())],
        )];
        for (i, t) in [(1_u64, 0.3), (2, 0.2), (3, 0.1)] {
            events.push(ev(
                vec![i],
                "thermal.step",
                vec![("t_s", t.into()), ("peak_c", 50.0.into())],
            ));
        }
        let v = Oracle::default().verify(&stream(events));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "monotone-time");
        assert_eq!(v[0].seq, vec![2]);
        assert!(v[0].detail.contains("2 occurrences"), "{}", v[0].detail);
    }

    #[test]
    fn segments_reset_the_time_cursor() {
        // Two policy runs both starting at t=0 must NOT be a monotone
        // violation — this is exactly what a Boost scenario emits.
        let s = stream(vec![
            ev(
                vec![0],
                "boost.run",
                vec![("policy", "boosting".into()), ("threshold_c", 80.0.into())],
            ),
            ev(
                vec![1],
                "thermal.step",
                vec![("t_s", 0.5.into()), ("peak_c", 50.0.into())],
            ),
            ev(
                vec![2],
                "boost.summary",
                vec![("policy", "boosting".into())],
            ),
            ev(
                vec![3],
                "boost.run",
                vec![("policy", "constant".into()), ("threshold_c", 80.0.into())],
            ),
            ev(
                vec![4],
                "thermal.step",
                vec![("t_s", 0.01.into()), ("peak_c", 50.0.into())],
            ),
            ev(
                vec![5],
                "boost.summary",
                vec![("policy", "constant".into())],
            ),
        ]);
        assert!(Oracle::default().verify(&s).is_empty());
    }

    #[test]
    fn overshoot_beyond_margin_is_caught() {
        let s = stream(vec![
            ev(
                vec![0],
                "boost.run",
                vec![("policy", "constant".into()), ("threshold_c", 60.0.into())],
            ),
            ev(
                vec![1],
                "thermal.step",
                vec![("t_s", 0.02.into()), ("peak_c", 61.0.into())],
            ),
        ]);
        let v = Oracle::default().verify(&stream(s.events.clone()));
        assert!(v.iter().any(|v| v.invariant == "temp-bound"), "{v:?}");
    }

    #[test]
    fn watermark_crossing_and_alternation() {
        // Crossing above at step 2 announced correctly: clean.
        let announced = stream(vec![
            ev(
                vec![0],
                "boost.run",
                vec![("policy", "boosting".into()), ("threshold_c", 60.0.into())],
            ),
            ev(
                vec![1],
                "thermal.step",
                vec![("t_s", 0.02.into()), ("peak_c", 59.0.into())],
            ),
            ev(
                vec![2],
                "thermal.step",
                vec![("t_s", 0.04.into()), ("peak_c", 61.0.into())],
            ),
            ev(
                vec![3],
                "thermal.watermark",
                vec![
                    ("t_s", 0.04.into()),
                    ("peak_c", 61.0.into()),
                    ("threshold_c", 60.0.into()),
                    ("direction", "above".into()),
                ],
            ),
        ]);
        assert!(Oracle::default().verify(&announced).is_empty());

        // The same crossing never announced: watermark-windows.
        let mut missing = announced.clone();
        missing.events.pop();
        missing.events.push(ev(
            vec![3],
            "thermal.step",
            vec![("t_s", 0.06.into()), ("peak_c", 62.0.into())],
        ));
        let v = Oracle::default().verify(&missing);
        assert!(
            v.iter().any(|v| v.invariant == "watermark-windows"),
            "{v:?}"
        );

        // Two `above` events in a row: watermark-alternation.
        let mut doubled = announced.clone();
        doubled.events.push(ev(
            vec![4],
            "thermal.watermark",
            vec![
                ("t_s", 0.06.into()),
                ("peak_c", 62.0.into()),
                ("threshold_c", 60.0.into()),
                ("direction", "above".into()),
            ],
        ));
        let v = Oracle::default().verify(&doubled);
        assert!(
            v.iter().any(|v| v.invariant == "watermark-alternation"),
            "{v:?}"
        );
    }

    #[test]
    fn tsp_ladder_must_be_antitone() {
        let bad = stream(vec![
            ev(
                vec![0],
                "arena.tsp_probe",
                vec![("active", 4_u64.into()), ("per_core_w", 5.0.into())],
            ),
            ev(
                vec![1],
                "arena.tsp_probe",
                vec![("active", 8_u64.into()), ("per_core_w", 6.0.into())],
            ),
        ]);
        let v = Oracle::default().verify(&bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "tsp-monotone");

        let good = stream(vec![
            ev(
                vec![0],
                "arena.tsp_probe",
                vec![("active", 4_u64.into()), ("per_core_w", 6.0.into())],
            ),
            ev(
                vec![1],
                "arena.tsp_probe",
                vec![("active", 8_u64.into()), ("per_core_w", 5.0.into())],
            ),
            // A fresh ladder may restart higher.
            ev(
                vec![2],
                "arena.tsp_probe",
                vec![("active", 2_u64.into()), ("per_core_w", 9.0.into())],
            ),
        ]);
        assert!(Oracle::default().verify(&good).is_empty());
    }

    #[test]
    fn energy_mismatch_is_caught() {
        let s = stream(vec![
            ev(
                vec![0],
                "boost.run",
                vec![("policy", "boosting".into()), ("threshold_c", 80.0.into())],
            ),
            ev(
                vec![1],
                "thermal.step",
                vec![
                    ("t_s", 0.1.into()),
                    ("peak_c", 50.0.into()),
                    ("power_w", 10.0.into()),
                ],
            ),
            ev(
                vec![2],
                "boost.summary",
                vec![("policy", "boosting".into()), ("energy_j", 99.0.into())],
            ),
        ]);
        let v = Oracle::default().verify(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "energy-conserved");
    }

    #[test]
    fn dtm_failsafe_direction() {
        let s = stream(vec![ev(
            vec![0],
            "arena.dtm_probe",
            vec![
                ("admitted_dark", 0.5.into()),
                ("sustained_dark", 0.2.into()),
                ("hidden_dark", (-0.3).into()),
            ],
        )]);
        let v = Oracle::default().verify(&s);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, "dtm-failsafe");
    }

    #[test]
    fn display_is_readable() {
        let v = Violation {
            invariant: "no-nan".into(),
            seq: vec![0, 3, 1],
            detail: "field `x` of `k` is not finite".into(),
        };
        assert_eq!(
            v.to_string(),
            "no-nan at seq [0,3,1]: field `x` of `k` is not finite"
        );
    }
}
