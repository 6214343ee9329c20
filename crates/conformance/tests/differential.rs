//! Deterministic differential fuzzing: every eligible backend against
//! the brute-force oracle, on structured seeded instances, with
//! mismatch shrinking, corpus replay, and guarded-dispatch fault
//! patterns driven from the same seed streams.
//!
//! Budget: `MONGE_FUZZ_BUDGET` instances per problem kind (default
//! 500 — the quick-CI budget; the nightly job raises it).

use monge_conformance::corpus;
use monge_conformance::fuzz::{
    conformance_dispatcher, disagreeing_backends, fuzz_budget, fuzz_kind, PlantedBugBackend,
    TINY_GRAIN,
};
use monge_conformance::gen::{generate, infinite_staircase_tube};
use monge_core::array2d::Array2d;
use monge_core::guard::{AttemptOutcome, FaultInjector, FaultPlan, GuardPolicy, SolveError};
use monge_core::problem::{Problem, ProblemKind, Solution};
use monge_core::value::Value;
use monge_parallel::{Dispatcher, Tuning};

/// The tentpole assertion: ≥ 500 seeded instances per problem kind
/// (quick budget), every eligible backend diffed against the oracle on
/// full argmin vectors — values, indices, and tie-breaks — under both
/// grain policies. Any mismatch arrives already shrunk, so the failure
/// message *is* the reproducer.
#[test]
fn all_backends_agree_with_the_oracle_on_every_problem_kind() {
    let d = conformance_dispatcher();
    let budget = fuzz_budget(500);
    for (k, kind) in ProblemKind::ALL.iter().enumerate() {
        let report = fuzz_kind(&d, *kind, budget, 0x5EED_0000 + (k as u64) * 0x1_0000);
        assert_eq!(report.instances, budget);
        assert!(report.solves > 0);
        assert!(
            report.mismatches.is_empty(),
            "{kind:?}: {} mismatches; first (backend {}, seed {}, family {}):\n{}",
            report.mismatches.len(),
            report.mismatches[0].backend,
            report.mismatches[0].seed,
            report.mismatches[0].family,
            corpus::render(&report.mismatches[0].instance, "shrunk reproducer"),
        );
    }
}

/// DIST-shaped tubes, both factors infinite past a monotone staircase,
/// on every eligible backend but the hypercube simulator: its
/// doubly-monotone divide & conquer clips each window by neighbouring
/// optima even when they are infinite, and is wrong on these inputs
/// (an open item in ROADMAP.md).
#[test]
fn infinite_staircase_tubes_agree_with_the_oracle() {
    let d = conformance_dispatcher();
    let budget = fuzz_budget(100);
    for kind in [ProblemKind::TubeMinima, ProblemKind::TubeMaxima] {
        for seed in 0..budget as u64 {
            let inst = infinite_staircase_tube(kind, 0x1AF_0000 + seed);
            for tuning in [Tuning::DEFAULT, TINY_GRAIN] {
                let bad: Vec<String> = disagreeing_backends(&d, &inst, tuning)
                    .into_iter()
                    .filter(|b| b != "hypercube")
                    .collect();
                assert!(
                    bad.is_empty(),
                    "{kind:?} seed {seed}: {bad:?} disagree\n{}",
                    corpus::render(&inst, "infinite staircase tube"),
                );
            }
        }
    }
}

/// Planted-bug drill: a backend that corrupts `index[0]` on instances
/// with both extents ≥ 5 must be caught by the differential loop, and
/// the greedy shrinker must bottom out at a reproducer no larger than
/// 8×8 (the acceptance bar; the geometry of this bug pins it at 5×5).
/// The shrunk reproducer must survive a corpus round-trip and replay
/// clean against the real registry.
#[test]
fn planted_bug_is_caught_shrunk_and_replayable() {
    let mut d = conformance_dispatcher();
    d.register(Box::new(PlantedBugBackend { threshold: 5 }));
    let report = fuzz_kind(&d, ProblemKind::RowMinima, 80, 0xB06_5EED);
    let planted: Vec<_> = report
        .mismatches
        .iter()
        .filter(|m| m.backend == "planted-bug")
        .collect();
    assert!(
        !planted.is_empty(),
        "the fuzzer missed a backend that is wrong on every 5×5+ instance"
    );
    assert!(
        report.mismatches.iter().all(|m| m.backend == "planted-bug"),
        "real backends mismatched too: {:?}",
        report
            .mismatches
            .iter()
            .map(|m| (&m.backend, m.seed))
            .collect::<Vec<_>>()
    );
    for m in &planted {
        let inst = &m.instance;
        assert!(
            inst.a.rows() <= 8 && inst.a.cols() <= 8,
            "shrinker left a {}×{} reproducer (acceptance bar is 8×8)",
            inst.a.rows(),
            inst.a.cols()
        );
        assert!(inst.valid(), "shrunk reproducer lost its structure");
    }

    // Round-trip the first reproducer through the corpus text format
    // and replay it against the *clean* registry: parse fidelity plus
    // conformance of the real backends on the minimal instance.
    let inst = &planted[0].instance;
    let text = corpus::render(inst, "planted-bug drill");
    let back = corpus::parse(&text).expect("reproducer must parse back");
    assert_eq!(back.a.data(), inst.a.data());
    let dir = std::env::temp_dir().join("monge-conformance-drill");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("planted-bug.corpus");
    std::fs::write(&path, text).unwrap();
    corpus::replay_file(&path).expect("real backends must replay the reproducer clean");
}

/// Checked-in regression corpus: every fixture must parse, re-validate
/// its structural promise, and replay conformant on all backends.
#[test]
fn checked_in_corpus_replays_clean() {
    let n = corpus::replay_all().expect("corpus replay");
    assert!(n >= 3, "expected ≥ 3 checked-in fixtures, found {n}");
}

#[test]
fn fixture_plateau_monge_replays() {
    corpus::replay_file(&corpus::corpus_dir().join("plateau-monge.corpus")).unwrap();
}

#[test]
fn fixture_staircase_boundary_replays() {
    corpus::replay_file(&corpus::corpus_dir().join("staircase-boundary.corpus")).unwrap();
}

#[test]
fn fixture_composite_tube_replays() {
    corpus::replay_file(&corpus::corpus_dir().join("composite-tube.corpus")).unwrap();
}

/// Canonical sentinel for fully-infeasible staircase rows: every
/// backend answers `(index 0, value +∞)` for a row whose boundary is
/// zero — even when the cells beyond the boundary hold attractive
/// finite garbage the engines must never read.
#[test]
fn infeasible_staircase_rows_get_the_canonical_sentinel_everywhere() {
    use monge_core::array2d::Dense;
    let a = Dense::from_rows(vec![
        vec![5, 3, -999, -999],
        vec![4, 2, -999, -999],
        vec![-999, -999, -999, -999],
        vec![-999, -999, -999, -999],
    ]);
    let boundary = vec![2usize, 2, 0, 0];
    let p = Problem::staircase_row_minima(&a, &boundary).with_tie(monge_core::tiebreak::Tie::Left);
    let d = conformance_dispatcher();
    let names: Vec<String> = d
        .eligible(&p)
        .iter()
        .map(|b| b.name().to_string())
        .collect();
    assert!(
        names.len() >= 4,
        "expected several eligible backends: {names:?}"
    );
    for name in &names {
        let (sol, _) = d.solve_on(name, &p, Tuning::DEFAULT).unwrap();
        let Solution::Rows(ex) = sol else {
            panic!("{name}: staircase solve must return row extrema")
        };
        assert_eq!(ex.index[0], 1, "{name}: row 0 argmin");
        assert_eq!(ex.index[1], 1, "{name}: row 1 argmin");
        for i in [2usize, 3] {
            assert_eq!(ex.index[i], 0, "{name}: infeasible row {i} index sentinel");
            assert_eq!(
                ex.value[i],
                <i64 as Value>::INFINITY,
                "{name}: infeasible row {i} value sentinel"
            );
        }
    }
}

/// Satellite: guarded dispatch under the fuzzer's seed stream. For
/// each corpus seed the injected fault pattern dictates the shape of
/// the recorded fallback path:
///
/// * panic budget 0 — the site never fires: first link completes,
///   depth 0;
/// * panic budget 1 — the first link dies once, the next runs against
///   an exhausted budget: path starts `Panicked` and ends `Completed`;
/// * unlimited panics — every link including the brute terminal dies:
///   a typed `BackendPanic`, never an unwinding panic;
/// * injected Monge violations under full validation — quarantined
///   straight to the brute scan: path is exactly `["brute"]`.
#[test]
fn guarded_fallback_paths_match_the_injected_fault_pattern() {
    for seed in 0..8u64 {
        // Fresh dispatcher (= fresh breaker memory) per seed: this test
        // asserts the fallback shape of each fault pattern in isolation,
        // and the deliberate unlimited-panic phase would otherwise open
        // the host backends' circuits for the later seeds. Breaker
        // dynamics under sustained fault load are the chaos harness's
        // job (`monge_conformance::chaos`).
        let d = Dispatcher::with_default_backends();
        let inst = generate(ProblemKind::RowMinima, 0xFA_0000 + seed);
        let base = inst.a.clone();

        // Budget 0: the plan is armed but can never fire.
        let f = FaultInjector::new(
            base.clone(),
            FaultPlan::none(seed).panics(1000).panic_budget(0),
            0i64,
        );
        let (_, tel) = d
            .solve_guarded(&Problem::row_minima(&f), &GuardPolicy::default())
            .expect("budget 0 must solve clean");
        let guard = tel.guard.expect("guarded solves stamp an outcome");
        assert_eq!(guard.fallback_depth(), 0, "seed {seed}");
        assert_eq!(guard.attempts[0].outcome, AttemptOutcome::Completed);

        // Budget 1: exactly one transient panic, absorbed by the chain.
        let f = FaultInjector::new(
            base.clone(),
            FaultPlan::none(seed).panics(1000).panic_budget(1),
            0i64,
        );
        let (_, tel) = d
            .solve_guarded(&Problem::row_minima(&f), &GuardPolicy::default())
            .expect("one transient panic must be absorbed");
        assert!(f.panics_fired() >= 1);
        let guard = tel.guard.expect("guarded solves stamp an outcome");
        assert!(guard.degraded(), "seed {seed}: the panic must be on record");
        assert_eq!(
            guard.attempts[0].outcome,
            AttemptOutcome::Panicked,
            "seed {seed}"
        );
        assert_eq!(
            guard.attempts.last().unwrap().outcome,
            AttemptOutcome::Completed,
            "seed {seed}"
        );

        // Unlimited: the whole chain dies, typed.
        let f = FaultInjector::new(base.clone(), FaultPlan::none(seed).panics(1000), 0i64);
        match d.solve_guarded(&Problem::row_minima(&f), &GuardPolicy::default()) {
            Err(SolveError::BackendPanic { .. }) => {}
            other => panic!("seed {seed}: expected BackendPanic, got {other:?}"),
        }

        // Violations + full validation: quarantine, not fallback.
        if base.rows() >= 2 && base.cols() >= 2 {
            let f = FaultInjector::new(
                base.clone(),
                FaultPlan::none(seed).violations(400),
                100_000i64,
            );
            let has_site = (0..base.rows())
                .flat_map(|i| (0..base.cols()).map(move |j| (i, j)))
                .any(|(i, j)| f.is_violation_site(i, j));
            if has_site {
                let (_, tel) = d
                    .solve_guarded(&Problem::row_minima(&f), &GuardPolicy::full_validation())
                    .expect("quarantine degrades, it does not fail");
                let guard = tel.guard.expect("guarded solves stamp an outcome");
                assert!(guard.quarantined, "seed {seed}");
                assert_eq!(guard.fallback_path(), vec!["brute"], "seed {seed}");
            }
        }
    }
}
