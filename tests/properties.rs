//! Property-based tests of cross-crate invariants.

use darksil_floorplan::Floorplan;
use darksil_mapping::{spread_cores, Platform};
use darksil_numerics::{factor_spd, solve_spd_factored, CgOptions, SolveStage, TripletMatrix};
use darksil_power::{CorePowerModel, TechnologyNode, VfRelation};
use darksil_thermal::{PackageConfig, ThermalModel};
use darksil_tsp::TspCalculator;
use darksil_units::{Celsius, Hertz, SquareMillimeters, Volts, Watts};
use darksil_workload::ParsecApp;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Eq. (2) inversion: voltage_for(frequency_at(v)) == v for any
    /// super-threshold voltage at any node.
    #[test]
    fn vf_relation_inverts(
        v in 0.25_f64..1.5,
        node_idx in 0_usize..4,
    ) {
        let vf = VfRelation::for_node(TechnologyNode::ALL[node_idx]);
        let voltage = Volts::new(v);
        prop_assume!(voltage > vf.threshold_voltage() + Volts::new(0.01));
        let f = vf.frequency_at(voltage);
        let back = vf.voltage_for(f).unwrap();
        prop_assert!((back.value() - v).abs() < 1e-9, "{v} -> {f} -> {back}");
    }

    /// Power is monotone in every argument of Eq. (1): activity,
    /// frequency (with its matched voltage) and temperature.
    #[test]
    fn power_is_monotone(
        alpha in 0.0_f64..1.0,
        ghz in 0.4_f64..3.5,
        t in 30.0_f64..90.0,
    ) {
        let m = CorePowerModel::x264_22nm();
        let f = Hertz::from_ghz(ghz);
        let temp = Celsius::new(t);
        let p = m.power_at_frequency(alpha, f, temp).unwrap();
        let p_more_alpha = m.power_at_frequency((alpha + 0.1).min(1.0), f, temp).unwrap();
        let p_more_freq = m.power_at_frequency(alpha, Hertz::from_ghz(ghz + 0.3), temp).unwrap();
        let p_hotter = m.power_at_frequency(alpha, f, Celsius::new(t + 5.0)).unwrap();
        prop_assert!(p_more_alpha >= p);
        prop_assert!(p_more_freq > p);
        prop_assert!(p_hotter > p);
    }

    /// Thermal model: more power anywhere never cools any core
    /// (monotone positive system), and the peak never sits below
    /// ambient.
    #[test]
    fn thermal_is_monotone_in_power(
        seed_powers in prop::collection::vec(0.0_f64..4.0, 16),
        extra_core in 0_usize..16,
        extra in 0.1_f64..3.0,
    ) {
        let plan = Floorplan::grid(4, 4, SquareMillimeters::new(5.1)).unwrap();
        let model = ThermalModel::new(&plan, PackageConfig::paper_dac15()).unwrap();
        let base: Vec<Watts> = seed_powers.iter().map(|&p| Watts::new(p)).collect();
        let mut bumped = base.clone();
        bumped[extra_core] += Watts::new(extra);

        let t_base = model.steady_state(&base).unwrap();
        let t_bumped = model.steady_state(&bumped).unwrap();
        prop_assert!(t_base.peak() >= model.ambient() - 1e-9);
        for core in plan.cores() {
            prop_assert!(
                t_bumped.core(core) >= t_base.core(core) - 1e-9,
                "{core} cooled when power was added"
            );
        }
    }

    /// Conjugate gradients (the unfactored solve's first stage) solves
    /// random SPD (diagonally dominant) systems to the same answer as
    /// dense LU.
    #[test]
    fn cg_matches_lu_on_random_spd(
        offdiag in prop::collection::vec(0.01_f64..2.0, 12),
        rhs in prop::collection::vec(-5.0_f64..5.0, 13),
    ) {
        let n = 13;
        let mut t = TripletMatrix::new(n, n);
        for (i, &g) in offdiag.iter().enumerate() {
            t.stamp_conductance(i, i + 1, g);
        }
        t.stamp_to_reference(0, 1.0);
        t.stamp_to_reference(n - 1, 0.5);
        let a = t.to_csr();
        let (x_cg, diag) = solve_spd_factored(None, &a, &rhs, &CgOptions::default()).unwrap();
        prop_assert_eq!(diag.stage, SolveStage::Cg);
        let x_lu = a.to_dense().solve(&rhs).unwrap();
        for (c, l) in x_cg.iter().zip(&x_lu) {
            prop_assert!((c - l).abs() < 1e-6, "cg {c} vs lu {l}");
        }
    }

    /// The in-place substitution kernel at two interleaved lanes
    /// returns for every lane exactly the bits `SpdFactors::solve` (its
    /// one-lane form) returns for that right-hand side alone, and the
    /// one-lane form agrees with a dense LU solve. The inputs are
    /// random RC grids of at least 6×6 cells, whose factors end in a
    /// packed dense block (the numerics unit test
    /// `grid_factors_end_in_a_dense_tail` checks that pattern), and one
    /// lane's right-hand side is exactly zero on all but a few nodes,
    /// so that lane skips columns the other lane does not.
    #[test]
    fn substitution_lanes_match_solve_bit_for_bit(
        w in 6_usize..12,
        h in 6_usize..12,
        lateral in prop::collection::vec(0.05_f64..5.0, 2 * 11 * 11),
        leak in prop::collection::vec(0.01_f64..1.0, 11 * 11),
        dense in prop::collection::vec(-50.0_f64..50.0, 11 * 11),
        sparse in prop::collection::vec((0_usize..11 * 11, -50.0_f64..50.0), 0..4),
    ) {
        let n = w * h;
        let mut t = TripletMatrix::new(n, n);
        for y in 0..h {
            for x in 0..w {
                let i = y * w + x;
                if x + 1 < w {
                    t.stamp_conductance(i, i + 1, lateral[2 * i]);
                }
                if y + 1 < h {
                    t.stamp_conductance(i, i + w, lateral[2 * i + 1]);
                }
                t.stamp_to_reference(i, leak[i]);
            }
        }
        let a = t.to_csr();
        let factors = factor_spd(&a).unwrap();
        let dense = &dense[..n];
        let mut mostly_zero = vec![0.0; n];
        for &(i, v) in &sparse {
            mostly_zero[i % n] = v;
        }
        let perm = factors.permutation();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let unpermute = |x: &[f64], lane: usize| {
            let mut out = vec![0.0; n];
            for (k, &p) in perm.iter().enumerate() {
                out[p] = x[2 * k + lane];
            }
            out
        };
        for b in [dense, &mostly_zero] {
            let x = factors.solve(b).unwrap();
            let lu = a.to_dense().solve(b).unwrap();
            let scale = lu.iter().fold(1.0_f64, |m, v| m.max(v.abs()));
            for (s, l) in x.iter().zip(&lu) {
                prop_assert!((s - l).abs() <= 1e-9 * scale, "substitution {s} vs lu {l}");
            }
        }
        for pair in [[dense, &mostly_zero], [&mostly_zero, dense]] {
            let mut x: Vec<f64> = perm.iter().flat_map(|&p| pair.map(|b| b[p])).collect();
            factors.substitute::<2>(&mut x);
            for (lane, b) in pair.iter().enumerate() {
                prop_assert_eq!(
                    bits(&unpermute(&x, lane)),
                    bits(&factors.solve(b).unwrap()),
                    "lane {}", lane
                );
            }
        }
    }

    /// Amdahl invariants hold for arbitrary parallel fractions: speed-up
    /// is in [1, t] and efficiency decreases with threads.
    #[test]
    fn speedup_invariants(app_idx in 0_usize..7, threads in 1_usize..8) {
        let profile = ParsecApp::ALL[app_idx].profile();
        let s = profile.speedup(threads);
        prop_assert!(s >= 1.0 - 1e-12);
        prop_assert!(s <= threads as f64 + 1e-12);
        prop_assert!(profile.efficiency(threads + 1) <= profile.efficiency(threads) + 1e-12);
        // The wide curve never exceeds the intra-instance curve.
        prop_assert!(profile.speedup_wide(threads) <= s + 1e-9);
    }

    /// The spread-cores pattern always returns exactly m distinct,
    /// in-range cores for any grid shape.
    #[test]
    fn spread_cores_is_well_formed(
        rows in 2_usize..12,
        cols in 2_usize..12,
        frac in 0.05_f64..1.0,
    ) {
        let plan = Floorplan::grid(rows, cols, SquareMillimeters::new(2.0)).unwrap();
        let m = ((rows * cols) as f64 * frac).ceil() as usize;
        let m = m.min(rows * cols);
        let set = spread_cores(&plan, m);
        prop_assert_eq!(set.len(), m);
        let mut sorted = set.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), m, "duplicates");
        prop_assert!(set.iter().all(|c| c.index() < rows * cols));
    }
}

/// TSP is antitone in the active-core count (non-property shape check
/// over a fixed grid, deterministic).
#[test]
fn tsp_antitone_in_core_count() {
    let plan = Floorplan::grid(6, 6, SquareMillimeters::new(5.1)).unwrap();
    let model = ThermalModel::new(&plan, PackageConfig::paper_dac15()).unwrap();
    let tsp = TspCalculator::new(&plan, &model, Celsius::new(80.0));
    let mut last = Watts::new(f64::INFINITY);
    for m in 1..=36 {
        let p = tsp.worst_case(m).unwrap();
        assert!(p <= last, "TSP({m}) = {p} rose above {last}");
        last = p;
    }
}

/// Mapping evaluation is deterministic: repeated fixed-point solves of
/// the same platform/workload agree bit-for-bit.
#[test]
fn estimates_are_deterministic() {
    let platform = Platform::with_core_count(TechnologyNode::Nm16, 25).unwrap();
    let workload = darksil_workload::Workload::parsec_mix(3, 8).unwrap();
    let m = darksil_mapping::place_patterned(platform.floorplan(), &workload, platform.max_level())
        .unwrap();
    let a = m.peak_temperature(&platform).unwrap();
    let b = m.peak_temperature(&platform).unwrap();
    assert_eq!(a, b);
}
