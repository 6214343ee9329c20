//! Telemetry audit: every dispatched solve must come back with a
//! populated [`Telemetry`](monge_core::problem::Telemetry) — the
//! backend's registry name, the problem kind, a nonzero evaluation
//! count, at least one recorded phase, and phase time bounded by the
//! total. Deterministic (no property-testing dependency) so CI can run
//! it as a dedicated job.

use std::sync::Barrier;
use std::time::Duration;

use monge_core::array2d::Dense;
use monge_core::generators::{apply_staircase, random_monge_dense, random_staircase_boundary};
use monge_core::guard::{FaultInjector, FaultPlan, GuardPolicy};
use monge_core::problem::{Problem, ProblemKind, Telemetry};
use monge_parallel::{BatchPolicy, Dispatcher, Tuning};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn audit(tel: &Telemetry, name: &str, kind: ProblemKind) {
    assert_eq!(tel.backend, name, "telemetry must name its backend");
    assert_eq!(tel.kind, Some(kind), "telemetry must name the kind");
    assert!(
        tel.evaluations > 0,
        "backend {name} on {kind:?} reported zero entry evaluations"
    );
    assert!(
        !tel.phases.is_empty(),
        "backend {name} on {kind:?} recorded no phases"
    );
    assert!(
        tel.phase_nanos() <= tel.total_nanos,
        "backend {name} on {kind:?}: phases exceed the wall-clock total"
    );
}

/// One nonempty instance per [`ProblemKind`], solved on every eligible
/// backend; each solve must populate its telemetry.
#[test]
fn every_backend_populates_telemetry_on_every_kind() {
    let d = Dispatcher::with_all_backends();
    let t = Tuning::DEFAULT;
    let mut rng = StdRng::seed_from_u64(99);
    let (m, n) = (13, 11);
    let a = random_monge_dense(m, n, &mut rng);
    let mut audited = 0usize;
    let mut run_all = |p: &Problem<'_, i64>| {
        for b in d.eligible(p) {
            let (_, tel) = d.solve_on(b.name(), p, t).expect("eligible backend");
            audit(&tel, b.name(), p.kind());
            audited += 1;
        }
    };

    run_all(&Problem::row_minima(&a));
    run_all(&Problem::row_maxima(&a));

    // Rank form so the hypercube backend is audited too.
    let v: Vec<i64> = (0..m as i64).map(|x| 3 * x).collect();
    let w: Vec<i64> = (0..n as i64).map(|y| 5 * y + 1).collect();
    let g = |x: i64, y: i64| (x - y).abs();
    let ranked = Dense::tabulate(m, n, |i, j| g(v[i], w[j]));
    run_all(&Problem::row_minima(&ranked).with_rank(&v, &w, &g));

    // Staircase with a full first row so at least one cell is feasible.
    let mut f = random_staircase_boundary(m, n, &mut rng);
    f[0] = n;
    let sa = apply_staircase(&a, &f);
    run_all(&Problem::staircase_row_minima(&sa, &f));

    // Banded with everywhere-nonempty windows.
    let lo = vec![0usize; m];
    let hi = vec![n; m];
    run_all(&Problem::banded_row_minima(&a, &lo, &hi));
    run_all(&Problem::banded_row_maxima(
        &a,
        &vec![0usize; m],
        &vec![n; m],
    ));

    // Tube.
    let td = random_monge_dense(7, 6, &mut rng);
    let te = random_monge_dense(6, 8, &mut rng);
    run_all(&Problem::tube_minima(&td, &te));
    run_all(&Problem::tube_maxima(&td, &te));

    assert!(
        audited >= ProblemKind::ALL.len(),
        "the audit must cover at least one backend per kind"
    );
}

/// Auto-selected solves (the path the applications take) are just as
/// instrumented as by-name solves.
#[test]
fn auto_selected_solves_are_instrumented() {
    let d = Dispatcher::with_default_backends();
    let mut rng = StdRng::seed_from_u64(100);
    let a = random_monge_dense(40, 33, &mut rng);
    let p = Problem::row_minima(&a);
    let (_, tel) = d.solve(&p);
    audit(&tel, tel.backend, ProblemKind::RowMinima);
    assert!(tel.total_nanos > 0);
}

/// Simulator backends additionally surface their machine model's cost
/// counters through `Telemetry::machine`.
#[test]
fn simulators_report_machine_counters() {
    let d = Dispatcher::with_all_backends();
    let t = Tuning::DEFAULT;
    let mut rng = StdRng::seed_from_u64(101);
    let a = random_monge_dense(12, 12, &mut rng);
    let p = Problem::row_minima(&a);
    for name in [
        "pram:tree",
        "pram:doubly-log",
        "pram:constant",
        "pram:combining",
    ] {
        let (_, tel) = d.solve_on(name, &p, t).expect("pram backend");
        assert!(tel.machine.steps > 0, "{name}: no PRAM steps");
        assert!(tel.machine.work > 0, "{name}: no PRAM work");
        assert!(tel.machine.processors > 0, "{name}: no processor count");
        assert!(tel.machine.reads > 0, "{name}: no shared-memory reads");
        assert!(tel.machine.writes > 0, "{name}: no shared-memory writes");
        assert_eq!(tel.machine.violations, 0, "{name}: model violations");
    }

    // The concurrent-write counter separates the simulated models: the
    // binary fan-in tree is genuinely CREW (zero concurrent-write
    // events — that counter is the model certificate the conformance
    // auditor relies on), while the combining-write primitive exists
    // precisely to exploit concurrent writes.
    let (_, tel) = d.solve_on("pram:tree", &p, t).expect("pram backend");
    assert_eq!(
        tel.machine.concurrent_write_events, 0,
        "tree primitive must simulate clean CREW"
    );
    let (_, tel) = d.solve_on("pram:combining", &p, t).expect("pram backend");
    assert!(
        tel.machine.concurrent_write_events > 0,
        "combining primitive never exercised a concurrent write"
    );

    let v: Vec<i64> = (0..12).map(|x| 2 * x).collect();
    let w: Vec<i64> = (0..12).map(|y| 2 * y + 1).collect();
    let g = |x: i64, y: i64| (x - y).abs();
    let ranked = Dense::tabulate(12, 12, |i, j| g(v[i], w[j]));
    let ph = Problem::row_minima(&ranked).with_rank(&v, &w, &g);
    let (_, tel) = d.solve_on("hypercube", &ph, t).expect("hypercube backend");
    assert!(tel.machine.comm_steps > 0, "hypercube: no communication");
    assert!(tel.machine.messages > 0, "hypercube: no messages");
    assert!(
        tel.machine.se_steps > 0,
        "hypercube: no shuffle-exchange cost"
    );

    // Host parallel runtime counters flow through the same struct-free
    // counters: a rayon solve at forced fan-out reports task spawns.
    let fine = Tuning {
        seq_scan: 1,
        seq_rows: 1,
        tube_seq_planes: 1,
        pram_base_rows: 1,
        ..Tuning::DEFAULT
    };
    let (_, tel) = d.solve_on("rayon", &p, fine).expect("rayon backend");
    assert!(tel.tasks > 0, "rayon: no tracked task spawns");
}

/// Two requests solving at once — a forking guarded solve under a
/// deadline, and a batch — each report exactly the work they report
/// when run alone: comparisons, tasks and arena checkouts are tallied
/// per request, never in counters the process shares.
#[test]
fn concurrent_solves_report_only_their_own_work() {
    let d = Dispatcher::with_default_backends();
    let mut rng = StdRng::seed_from_u64(102);
    // Stalls at a few fixed sites make the two requests interleave even
    // on one core (the stalls move no tally: they are deterministic).
    let stalls = FaultPlan::none(5).latency(50, Duration::from_micros(100));
    let a = FaultInjector::new(random_monge_dense(256, 256, &mut rng), stalls, 0i64);
    let fine = Tuning {
        seq_rows: 8,
        seq_scan: 64,
        ..Tuning::DEFAULT
    };
    let guard = GuardPolicy {
        deadline: Some(Duration::from_secs(600)),
        ..GuardPolicy::default()
    };
    let members: Vec<FaultInjector<i64, Dense<i64>>> = (0..6)
        .map(|_| FaultInjector::new(random_monge_dense(96, 96, &mut rng), stalls, 0i64))
        .collect();
    let problems: Vec<Problem<'_, i64>> = members.iter().map(|m| Problem::row_minima(m)).collect();
    let policy = BatchPolicy::default().without_calibration();

    let work = |t: &Telemetry| (t.comparisons, t.tasks, t.arena_checkouts);
    let guarded = || {
        let p = Problem::row_minima(&a);
        let (_, tel) = d
            .solve_guarded_on("rayon", &p, &guard, fine)
            .expect("guarded solve");
        work(&tel)
    };
    let batch = || {
        let report = d.solve_batch_report(&problems, &policy);
        assert!(report.results.iter().all(Result::is_ok));
        report.telemetry.iter().map(work).collect::<Vec<_>>()
    };

    let (guarded_alone, batch_alone) = (guarded(), batch());
    assert!(guarded_alone.1 > 0, "the guarded solve must fork");
    for round in 0..8 {
        let start = Barrier::new(2);
        let (g, b) = std::thread::scope(|s| {
            let g = s.spawn(|| {
                start.wait();
                guarded()
            });
            let b = s.spawn(|| {
                start.wait();
                batch()
            });
            (g.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(g, guarded_alone, "round {round}: guarded solve");
        assert_eq!(b, batch_alone, "round {round}: batch members");
    }
}
