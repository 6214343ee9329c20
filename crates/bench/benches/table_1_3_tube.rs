//! Table 1.3 wall-clock: tube maxima of an `n × n × n` Monge-composite
//! array — the per-plane SMAWK baseline (computed inline, one
//! `row_maxima_monge` pass per plane), the doubly-monotone sweep on the
//! sequential and rayon backends (via the dispatcher), sequential tube
//! minima, and the `O(n³)` brute force.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use monge_bench::workloads::composite_pair;
use monge_core::array2d::Array2d;
use monge_core::problem::Problem;
use monge_core::smawk::row_maxima_monge;
use monge_core::tube::{plane, tube_maxima_brute};
use monge_parallel::{Dispatcher, Tuning};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table_1_3_tube");
    g.sample_size(10);
    let disp = Dispatcher::with_default_backends();
    let t = Tuning::from_env();
    for n in [64usize, 128, 256] {
        let (d, e) = composite_pair(n);
        let pmax = Problem::tube_maxima(&d, &e);
        let pmin = Problem::tube_minima(&d, &e);
        g.bench_with_input(BenchmarkId::new("smawk_planes_seq", n), &n, |b, _| {
            b.iter(|| {
                black_box(
                    (0..d.rows())
                        .map(|i| row_maxima_monge(&plane(&d, &e, i)))
                        .collect::<Vec<_>>(),
                )
            })
        });
        g.bench_with_input(BenchmarkId::new("sweep_seq", n), &n, |b, _| {
            b.iter(|| black_box(disp.solve_on("sequential", &pmax, t).expect("sequential").0))
        });
        g.bench_with_input(BenchmarkId::new("sweep_rayon", n), &n, |b, _| {
            b.iter(|| black_box(disp.solve_on("rayon", &pmax, t).expect("rayon").0))
        });
        g.bench_with_input(BenchmarkId::new("seq_minima", n), &n, |b, _| {
            b.iter(|| black_box(disp.solve_on("sequential", &pmin, t).expect("sequential").0))
        });
        if n <= 128 {
            g.bench_with_input(BenchmarkId::new("brute", n), &n, |b, _| {
                b.iter(|| black_box(tube_maxima_brute(&d, &e)))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
