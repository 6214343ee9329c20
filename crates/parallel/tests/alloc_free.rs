//! Steady-state allocation regression tests (ISSUE PR 2 tentpole
//! acceptance): once the thread-local scratch arena is warm, the
//! sequential search leaves perform **zero** heap allocations, and every
//! engine's per-call allocation count is a small constant — flat in the
//! input size (output vectors only), not `O(lg n)` from recursion
//! temporaries.
//!
//! The counting `#[global_allocator]` lives here rather than in the
//! library crates because wrapping `System` requires `unsafe`, which the
//! libraries forbid. Everything is measured with *huge* tuning cutoffs so
//! the rayon engines degenerate to their sequential leaves on the calling
//! thread — deterministic single-threaded execution, which is exactly the
//! steady-state leaf the tentpole targets. Each measurement takes the
//! minimum over several identical runs so stray harness-thread
//! allocations cannot inflate the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use monge_core::array2d::Dense;
use monge_core::generators::apply_staircase;
use monge_core::smawk::{row_maxima_monge_into, row_minima_monge_into};
use monge_core::staircase::{staircase_row_maxima, staircase_row_minima};
use monge_core::tube::tube_minima;
use monge_parallel::rayon_monge::par_row_minima_totally_monotone_with;
use monge_parallel::rayon_staircase::par_staircase_row_minima_with;
use monge_parallel::Tuning;

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations performed by one call of `f`, minimized over several runs.
/// Run 1 doubles as arena warm-up for this input size; the minimum over
/// the later runs is the steady-state count.
fn count_allocs(mut f: impl FnMut()) -> u64 {
    let mut min = u64::MAX;
    for _ in 0..5 {
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        f();
        let after = ALLOC_CALLS.load(Ordering::Relaxed);
        min = min.min(after - before);
    }
    min
}

/// Convex-increments Monge array (same family as the crate doctests).
fn monge(m: usize, n: usize) -> Dense<i64> {
    Dense::tabulate(m, n, |i, j| {
        let d = i as i64 - j as i64;
        d * d
    })
}

/// Strictly sequential tuning: every cutoff so large that no engine ever
/// forks or fans out — the call *is* the leaf.
fn huge() -> Tuning {
    Tuning {
        seq_scan: usize::MAX >> 1,
        seq_rows: usize::MAX >> 1,
        tube_seq_planes: usize::MAX >> 1,
        ..Tuning::DEFAULT
    }
}

/// All sections share one `#[test]` so no other test thread allocates
/// through the global counter while a measurement is in flight.
#[test]
fn steady_state_allocation_counts() {
    let t = huge();

    // --- SMAWK leaves: exactly zero once warm. -----------------------
    // The `_into` entry points take a caller-provided output buffer, so
    // a warm call must not touch the heap at all.
    for &n in &[128usize, 512] {
        let a = monge(n, n);
        let mut out = vec![0usize; n];
        let minima = count_allocs(|| row_minima_monge_into(&a, &mut out));
        assert_eq!(minima, 0, "warm SMAWK minima allocated (n = {n})");
        let maxima = count_allocs(|| row_maxima_monge_into(&a, &mut out));
        assert_eq!(maxima, 0, "warm SMAWK maxima allocated (n = {n})");
    }

    // --- Staircase divide & conquer: output vector only, flat in n. --
    let staircase_counts: Vec<u64> = [96usize, 384]
        .iter()
        .map(|&n| {
            let base = monge(n, n);
            let f: Vec<usize> = (0..n).map(|i| (n - i).max(1)).collect();
            let a = apply_staircase(&base, &f);
            let c_min = count_allocs(|| {
                staircase_row_minima(&a, &f);
            });
            let c_max = count_allocs(|| {
                staircase_row_maxima(&a, &f);
            });
            assert!(c_min <= 2, "staircase minima: {c_min} allocs (n = {n})");
            assert!(c_max <= 2, "staircase maxima: {c_max} allocs (n = {n})");
            c_min + c_max
        })
        .collect();
    assert_eq!(
        staircase_counts[0], staircase_counts[1],
        "staircase allocation count grew with input size"
    );

    // --- Tube minima: the two p×r output vectors, flat in volume. ----
    let tube_counts: Vec<u64> = [16usize, 48]
        .iter()
        .map(|&s| {
            let d = monge(s, s);
            let e = monge(s, s);
            let c = count_allocs(|| {
                tube_minima(&d, &e);
            });
            assert!(c <= 2, "tube minima: {c} allocs (s = {s})");
            c
        })
        .collect();
    assert_eq!(
        tube_counts[0], tube_counts[1],
        "tube allocation count grew with input size"
    );

    // --- Rayon engines, sequentialized by the huge cutoffs: the leaf
    // they bottom out into must allocate only its output. -------------
    let rayon_counts: Vec<u64> = [128usize, 512]
        .iter()
        .map(|&n| {
            let a = monge(n, n);
            let c_mono = count_allocs(|| {
                par_row_minima_totally_monotone_with(&a, t);
            });
            assert!(c_mono <= 1, "rayon monge leaf: {c_mono} allocs (n = {n})");

            let f: Vec<usize> = (0..n).map(|i| (n - i).max(1)).collect();
            let sa = apply_staircase(&a, &f);
            let c_stair = count_allocs(|| {
                par_staircase_row_minima_with(&sa, &f, t);
            });
            assert!(
                c_stair <= 2,
                "rayon staircase leaf: {c_stair} allocs (n = {n})"
            );
            c_mono + c_stair
        })
        .collect();
    assert_eq!(
        rayon_counts[0], rayon_counts[1],
        "rayon engine allocation count grew with input size"
    );
}
