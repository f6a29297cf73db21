//! Criterion microbenchmarks of the SPD solve on RC-grid systems like
//! the thermal model's: a W×H grid Laplacian with a leak to the
//! reference node, solved for a checkerboard load through the iterative
//! chain (`solve_spd_factored` without factors) and through factors.

use std::hint::black_box;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use darksil_numerics::{factor_spd, solve_spd_factored, CgOptions, CsrMatrix, TripletMatrix};

/// A W×H grid Laplacian: lateral conductances between 4-neighbours
/// plus a vertical leak to the reference node, matching the structure
/// of the thermal RC networks the solver sees in production.
fn grid_laplacian(w: usize, h: usize) -> CsrMatrix {
    let n = w * h;
    let mut t = TripletMatrix::new(n, n);
    for y in 0..h {
        for x in 0..w {
            let i = y * w + x;
            if x + 1 < w {
                t.stamp_conductance(i, i + 1, 2.0);
            }
            if y + 1 < h {
                t.stamp_conductance(i, i + w, 2.0);
            }
            t.stamp_to_reference(i, 0.5);
        }
    }
    t.to_csr()
}

fn checkerboard_load(n: usize) -> Vec<f64> {
    (0..n).map(|i| if i % 2 == 0 { 3.0 } else { 0.0 }).collect()
}

fn bench_solve_spd(c: &mut Criterion) {
    let mut g = c.benchmark_group("solve_spd");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));

    for (label, w, h) in [
        ("small_8x8", 8, 8),
        ("medium_20x20", 20, 20),
        ("large_40x40", 40, 40),
    ] {
        let a = grid_laplacian(w, h);
        let b = checkerboard_load(w * h);
        let options = CgOptions::default();
        g.bench_with_input(BenchmarkId::new("grid", label), &a, |bench, a| {
            bench.iter(|| {
                let (x, diag) = solve_spd_factored(None, black_box(a), black_box(&b), &options)
                    .expect("SPD grid system must solve");
                black_box((x, diag))
            });
        });
    }
    g.finish();
}

/// The fig8 hot-path comparison: one matrix, many right-hand sides
/// (like the ~100 steady-state solves behind a thermal-aware placement).
/// "cg_per_rhs" pays a full iterative solve per load; "factor_once"
/// factors once and substitutes per load.
fn bench_factor_vs_cg(c: &mut Criterion) {
    const RHS_COUNT: usize = 32;

    let mut g = c.benchmark_group("factor_once_vs_cg_per_rhs");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(20);

    for (label, w, h) in [
        ("small_8x8", 8, 8),
        ("medium_20x20", 20, 20),
        ("large_40x40", 40, 40),
    ] {
        let a = grid_laplacian(w, h);
        let n = w * h;
        let loads: Vec<Vec<f64>> = (0..RHS_COUNT)
            .map(|k| {
                (0..n)
                    .map(|i| if (i + k) % 3 == 0 { 3.0 } else { 0.5 })
                    .collect()
            })
            .collect();
        let options = CgOptions::default();

        g.bench_with_input(BenchmarkId::new("cg_per_rhs", label), &a, |bench, a| {
            bench.iter(|| {
                for b in &loads {
                    let (x, _) = solve_spd_factored(None, black_box(a), black_box(b), &options)
                        .expect("SPD grid system must solve");
                    black_box(x);
                }
            });
        });

        g.bench_with_input(BenchmarkId::new("factor_once", label), &a, |bench, a| {
            bench.iter(|| {
                let factors = factor_spd(black_box(a)).expect("grid factors");
                for b in &loads {
                    black_box(factors.solve(black_box(b)).expect("factored solve"));
                }
            });
        });
    }
    g.finish();
}

/// A factored solve per right-hand side, as a steady-state solve pays
/// it ("solve": permute, one-lane substitution, un-permute), against
/// the two-lane in-place kernel a paired transient step uses
/// ("substitute_2", timed per pair of right-hand sides).
fn bench_factored_solve(c: &mut Criterion) {
    let mut g = c.benchmark_group("factored_solve");
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_secs(2));

    for (label, w, h) in [
        ("small_8x8", 8, 8),
        ("medium_20x20", 20, 20),
        ("large_40x40", 40, 40),
    ] {
        let a = grid_laplacian(w, h);
        let factors = factor_spd(&a).expect("grid factors");
        let b: Vec<f64> = (0..w * h).map(|i| 40.0 + (i % 17) as f64).collect();
        g.bench_with_input(BenchmarkId::new("solve", label), &b, |bench, b| {
            bench.iter(|| black_box(factors.solve(black_box(b)).expect("factored solve")));
        });
        let pair: Vec<f64> = factors
            .permutation()
            .iter()
            .flat_map(|&p| [b[p], b[p] + 1.0])
            .collect();
        let mut x = pair.clone();
        g.bench_with_input(
            BenchmarkId::new("substitute_2", label),
            &pair,
            |bench, pair| {
                bench.iter(|| {
                    x.copy_from_slice(pair);
                    factors.substitute::<2>(black_box(&mut x));
                });
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_solve_spd,
    bench_factor_vs_cg,
    bench_factored_solve
);
criterion_main!(benches);
