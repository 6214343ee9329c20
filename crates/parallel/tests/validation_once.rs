//! Regression suite for the guarded layer's validate-once contract.
//!
//! `Dispatcher::solve_guarded*` validates the structural promise
//! exactly once per request, *before* walking the fallback chain —
//! a panicking first backend must not buy a second validation pass.
//! Batch drains (fused or shed onto the guarded walk) and index builds
//! pass through the same admission stage, so each must read the array
//! for validation exactly as often as one guarded solve does. These
//! tests pin that down two ways: by counting every entry read through
//! a counting array (deterministic), and by checking the recorded
//! `validation_nanos` stays a one-shot cost as the fallback depth
//! grows.

use std::sync::atomic::{AtomicU64, Ordering};

use monge_core::array2d::{Array2d, Dense};
use monge_core::generators::random_monge_dense;
use monge_core::guard::GuardPolicy;
use monge_core::problem::{Problem, ProblemKind, Solution, Telemetry};
use monge_parallel::{Backend, Capabilities, Dispatcher, Tuning};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts every `entry` read (validation and solving alike).
struct CountingArray {
    inner: Dense<i64>,
    reads: AtomicU64,
}

impl CountingArray {
    fn new(inner: Dense<i64>) -> Self {
        CountingArray {
            inner,
            reads: AtomicU64::new(0),
        }
    }

    fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl Array2d<i64> for CountingArray {
    fn rows(&self) -> usize {
        self.inner.rows()
    }
    fn cols(&self) -> usize {
        self.inner.cols()
    }
    fn entry(&self, i: usize, j: usize) -> i64 {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.entry(i, j)
    }
}

/// A chain link that reads nothing and always dies: any entry reads a
/// request makes beyond the zero-depth baseline would have to come
/// from re-validation.
struct AlwaysPanics(&'static str);

impl Backend<i64> for AlwaysPanics {
    fn name(&self) -> &'static str {
        self.0
    }
    fn capabilities(&self) -> Capabilities {
        Capabilities::of(&[ProblemKind::RowMinima])
    }
    fn solve(
        &self,
        _problem: &Problem<'_, i64>,
        _tuning: &Tuning,
        _telemetry: &mut Telemetry,
    ) -> Solution<i64> {
        panic!("injected: {} always dies", self.0);
    }
}

/// Entry reads and outcome of one guarded solve starting at `first`,
/// on a registry where the `"rayon"` chain link also always panics —
/// so `first = "flaky-a"` walks two dead links before the sequential
/// engine answers (fallback depth 2), while `first = "sequential"`
/// answers immediately (depth 0) with the *same* engine.
fn guarded_reads(first: &str, depth: usize) -> (u64, Solution<i64>, Telemetry) {
    let mut rng = StdRng::seed_from_u64(0x0A0B);
    let a = CountingArray::new(random_monge_dense(24, 24, &mut rng));
    let mut d: Dispatcher<i64> = Dispatcher::new();
    d.register(Box::new(AlwaysPanics("flaky-a")));
    d.register(Box::new(AlwaysPanics("rayon")));
    d.register(Box::new(monge_parallel::SequentialBackend));
    let policy = GuardPolicy::full_validation().with_max_fallback_depth(4);
    let p = Problem::row_minima(&a);
    let (sol, tel) = d
        .solve_guarded_on(first, &p, &policy, Tuning::DEFAULT)
        .expect("chain bottoms out at a working backend");
    let path = tel.guard.as_ref().expect("guard outcome").fallback_path();
    assert_eq!(path.len(), depth + 1, "unexpected chain {path:?}");
    assert_eq!(*path.last().unwrap(), "sequential");
    (a.reads(), sol, tel)
}

#[test]
fn validation_runs_once_regardless_of_fallback_depth() {
    // Depth 0: straight to the sequential engine.
    let (reads0, sol0, tel0) = guarded_reads("sequential", 0);
    // Depth 2: two panicking links first, then the same engine. The
    // panicking links read zero entries, so any extra reads would be a
    // second validation pass.
    let (reads2, sol2, tel2) = guarded_reads("flaky-a", 2);
    assert_eq!(sol0, sol2, "fallback must preserve the answer");
    assert_eq!(
        reads0, reads2,
        "entry reads grew with fallback depth: validation re-ran on the chain"
    );
    let v0 = tel0.guard.as_ref().unwrap().validation_nanos;
    let v2 = tel2.guard.as_ref().unwrap().validation_nanos;
    assert!(v0 > 0 && v2 > 0, "full validation must be timed");
    // The timed cost is one validation pass in both runs. Wall-clock is
    // noisy, so only a gross blow-up (a second full pass would at least
    // double it; we allow 5x for scheduler noise) trips this.
    assert!(
        v2 < v0.saturating_mul(5).max(1_000_000),
        "validation_nanos grew with fallback depth: {v0} -> {v2}"
    );
}

#[test]
fn batch_admission_validates_once_per_request() {
    use monge_parallel::BatchPolicy;

    let mut rng = StdRng::seed_from_u64(0x0C0D);
    let a = CountingArray::new(random_monge_dense(24, 24, &mut rng));
    let d = Dispatcher::with_default_backends();
    let policy = BatchPolicy::default()
        .with_guard(GuardPolicy::full_validation())
        .without_calibration();

    // One problem through the batch path...
    let problems = [Problem::row_minima(&a)];
    let before = a.reads();
    let results = d.solve_batch(&problems, policy);
    assert!(results[0].is_ok());
    let batch_reads = a.reads() - before;

    // ...must read no more entries than the one-at-a-time path (same
    // validation pass, same sequential engine, no calibration probes).
    let before = a.reads();
    let p = Problem::row_minima(&a);
    d.solve_guarded_with(&p, &GuardPolicy::full_validation(), Tuning::from_env())
        .expect("loop solve");
    let loop_reads = a.reads() - before;
    assert_eq!(
        batch_reads, loop_reads,
        "the batch admission pass reads more entries than a guarded solve"
    );
}

/// Entry reads of one guarded solve of a fresh counting copy of `a`.
fn guarded_solve_reads(a: &Dense<i64>, policy: &GuardPolicy) -> u64 {
    let counted = CountingArray::new(a.clone());
    Dispatcher::with_default_backends()
        .solve_guarded_with(&Problem::row_minima(&counted), policy, Tuning::from_env())
        .expect("guarded solve");
    counted.reads()
}

#[test]
fn shed_members_validate_once_per_request() {
    use monge_parallel::BatchPolicy;

    let mut rng = StdRng::seed_from_u64(0x0E0F);
    let dense = random_monge_dense(24, 24, &mut rng);
    let a = CountingArray::new(dense.clone());
    let d = Dispatcher::with_default_backends();
    // Every group overflows a zero cost cap, so the member is shed onto
    // the guarded walk after batch admission validated it.
    let policy = BatchPolicy::default()
        .with_guard(GuardPolicy::full_validation())
        .without_calibration()
        .shed_above(0);
    let report = d.solve_batch_report(&[Problem::row_minima(&a)], &policy);
    assert_eq!(report.shed_groups, 1);
    assert!(report.results[0].is_ok());
    assert_eq!(
        a.reads(),
        guarded_solve_reads(&dense, &GuardPolicy::full_validation()),
        "a shed member reads more entries than a guarded solve: validation re-ran on the walk"
    );
}

#[test]
fn index_builds_validate_once_per_request() {
    let mut rng = StdRng::seed_from_u64(0x1011);
    let dense = random_monge_dense(24, 24, &mut rng);
    let d = Dispatcher::with_default_backends();
    let build_reads = |policy: &GuardPolicy| {
        let a = CountingArray::new(dense.clone());
        d.build_index_guarded(&Problem::row_minima(&a), policy)
            .expect("index build");
        a.reads()
    };
    // What validation adds on top of each request's own work: the build
    // reads every entry once, the solve whatever its engine reads.
    let off = GuardPolicy::default();
    let full = GuardPolicy::full_validation();
    let index_validation = build_reads(&full) - build_reads(&off);
    let solve_validation = guarded_solve_reads(&dense, &full) - guarded_solve_reads(&dense, &off);
    assert!(solve_validation > 0, "full validation reads the array");
    assert_eq!(
        index_validation, solve_validation,
        "an index build validates more (or less) than one guarded pass"
    );
}
