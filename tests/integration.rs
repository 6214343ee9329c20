//! Cross-crate integration: the facade crate's re-exports drive complete
//! end-to-end pipelines spanning generators, sequential algorithms,
//! parallel engines, simulators, and applications.

use monge::core::array2d::{Array2d, Dense};
use monge::core::generators::{random_monge_dense, random_staircase_monge_dense};
use monge::core::monge::brute_row_minima;
use monge::core::smawk::row_minima_monge;
use monge::core::staircase::{compute_boundary, staircase_row_minima_brute};
use monge::parallel::MinPrimitive;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

#[test]
fn facade_reexports_compose() {
    let mut rng = StdRng::seed_from_u64(1);
    let a = random_monge_dense(32, 32, &mut rng);
    let seq = row_minima_monge(&a).index;
    assert_eq!(seq, brute_row_minima(&a));
    assert_eq!(
        seq,
        monge::parallel::rayon_monge::par_row_minima_monge(&a).index
    );
    assert_eq!(
        seq,
        monge::parallel::pram_monge::pram_row_minima_monge(&a, MinPrimitive::DoublyLog).index
    );
}

#[test]
fn staircase_pipeline_end_to_end() {
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..5 {
        let a = random_staircase_monge_dense(40, 33, &mut rng);
        let f = compute_boundary(&a);
        let want = staircase_row_minima_brute(&a, &f);
        assert_eq!(monge::core::staircase::staircase_row_minima(&a, &f), want);
        assert_eq!(
            monge::parallel::rayon_staircase::par_staircase_row_minima(&a, &f),
            want
        );
        assert_eq!(
            monge::parallel::pram_staircase::pram_staircase_row_minima(
                &a,
                &f,
                MinPrimitive::Constant
            )
            .index,
            want
        );
    }
}

#[test]
fn geometry_to_array_to_search() {
    // Polygon -> inverse-Monge array -> SMAWK -> farthest neighbors.
    let mut rng = StdRng::seed_from_u64(3);
    let poly = monge::apps::geometry::ConvexPolygon::random(60, 0.0, 0.0, 10.0, &mut rng);
    let p = poly.vertices[..30].to_vec();
    let q = poly.vertices[30..].to_vec();
    let got = monge::apps::farthest::farthest_across_chains(&p, &q);
    let want = monge::apps::farthest::farthest_across_chains_brute(&p, &q);
    assert_eq!(got, want);
}

#[test]
fn strings_to_dist_to_tube_minima() {
    // Strings -> strip DIST matrices (Monge) -> tube-minima combination.
    let mut rng = StdRng::seed_from_u64(4);
    let x: Vec<u8> = (0..30).map(|_| b'a' + rng.random_range(0u8..3)).collect();
    let y: Vec<u8> = (0..37).map(|_| b'a' + rng.random_range(0u8..3)).collect();
    let c = monge::apps::string_edit::CostModel::weighted();
    let d = monge::apps::string_edit::edit_distance_dp(&x, &y, &c);
    for strips in [1, 2, 4, 7] {
        assert_eq!(
            monge::apps::string_edit::edit_distance_dist_tree(&x, &y, &c, strips),
            d
        );
    }
}

#[test]
fn simulators_agree_with_host_algorithms() {
    // The same Monge instance through PRAM and hypercube machinery.
    let mut rng = StdRng::seed_from_u64(5);
    let mut v: Vec<i64> = (0..32).map(|_| rng.random_range(0..10_000)).collect();
    let mut w: Vec<i64> = (0..32).map(|_| rng.random_range(0..10_000)).collect();
    v.sort_unstable();
    w.sort_unstable();
    let va = monge::parallel::VectorArray::new(v, w, |x: i64, y: i64| (x - y).abs());
    let dense: Dense<i64> = Dense::tabulate(32, 32, |i, j| va.entry(i, j));
    let want = brute_row_minima(&dense);
    let hc = monge::parallel::hc_monge::hc_row_minima(&va);
    assert_eq!(hc.index, want);
    // The recorded trace prices onto CCC / shuffle-exchange at constant
    // overhead.
    assert!(hc.emulation.se_steps <= 3 * hc.emulation.hypercube_steps);
}

#[test]
fn tube_engines_cross_check() {
    let mut rng = StdRng::seed_from_u64(6);
    let d = random_monge_dense(10, 12, &mut rng);
    let e = random_monge_dense(12, 9, &mut rng);
    let want = monge::core::tube::tube_minima_brute(&d, &e);
    assert_eq!(monge::core::tube::tube_minima(&d, &e), want);
    let disp = monge::parallel::Dispatcher::<i64>::with_default_backends();
    let p = monge::core::problem::Problem::tube_minima(&d, &e);
    let (rayon, _) = disp
        .solve_on("rayon", &p, monge::parallel::Tuning::DEFAULT)
        .expect("rayon tube backend");
    assert_eq!(rayon.into_tube(), want);
    assert_eq!(
        monge::parallel::hc_tube::hc_tube_minima(&d, &e).extrema,
        want
    );
}
