//! Batched solving: amortized dispatch over heterogeneous problem
//! streams ([`Dispatcher::solve_batch`]) and a [`SolverService`] front
//! door with per-tenant telemetry rollups.
//!
//! A one-at-a-time serving loop pays per request for everything the
//! dispatch stack does once per solve: grain calibration (hundreds of
//! microseconds of timed probe scans), backend selection, kernel
//! pinning, structure validation, scratch-arena warm-up. This module
//! amortizes those costs across a whole batch:
//!
//! 1. **Admission.** Every problem passes `solve_guarded`'s own
//!    admission stage ([`crate::guarded`]): preconditions and exactly
//!    one validation pass under the [`GuardPolicy`], with broken
//!    promises recorded in the health registry. Violations fail or
//!    quarantine the individual problem, never the batch.
//! 2. **Grouping.** Admitted problems are grouped by
//!    `(ProblemKind, structure, size-class)` — the same coordinates as
//!    the persistent autotuner's key ([`crate::autotune`]), so one
//!    table lookup (or one single-flight measurement, keyed by the
//!    group's largest member) resolves the [`Tuning`] for every
//!    member; the decision's provenance is stamped into each member's
//!    [`Telemetry`].
//! 3. **Merge-Path chunking.** Each group's row-minima work is
//!    flattened into one global work list of *units* (rows for the
//!    rows/staircase/banded families, planes for tubes) and split into
//!    equal-*cost* contiguous chunks by prefix-summed per-problem cost
//!    estimates — the Merge Path idiom (Green–Odeh–Birk): chunk
//!    boundaries fall where the cost prefix crosses `k·total/C`, so a
//!    batch of one 16384-row problem and five hundred 64-row problems
//!    load-balances instead of serializing on the big one. Chunks run
//!    across the rayon pool; answers are per-row (per-plane) properties
//!    of the array, so stitching the strips back together is
//!    bitwise-identical to solving each problem whole.
//! 4. **Admission control.** A per-batch deadline is carved into
//!    per-group slices proportional to estimated cost (quarantined
//!    members share one more slice); every chunk checks its group's
//!    [`CancelToken`] at strip boundaries (and the engines checkpoint
//!    inside strips). Every member the fused path does not answer
//!    takes `solve_guarded`'s fallback walk with the admission record
//!    it already holds, under its slice's token: quarantined members
//!    (brute only), members of groups that are **shed** (estimated
//!    cost above [`BatchPolicy::max_group_cost`]) or whose sequential
//!    breaker is Open, members with a strip lost to a panic or to the
//!    deadline, and empty members. One fault never fails the batch.
//! 5. **Rollups.** Per-problem [`Telemetry`] is merged via
//!    [`Telemetry::merge`]; the [`SolverService`] accumulates the same
//!    rollups per tenant.
//!
//! ```
//! use monge_core::array2d::Dense;
//! use monge_core::problem::Problem;
//! use monge_parallel::batch::BatchPolicy;
//! use monge_parallel::Dispatcher;
//!
//! let a = Dense::tabulate(64, 64, |i, j| {
//!     let d = i as i64 - j as i64;
//!     d * d
//! });
//! let b = Dense::tabulate(16, 48, |i, j| (i as i64 - j as i64).abs());
//! let batch = [Problem::row_minima(&a), Problem::row_minima(&b)];
//! let d = Dispatcher::with_default_backends();
//! let results = d.solve_batch(&batch, BatchPolicy::default());
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.is_ok()));
//! ```

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

use monge_core::guard::{Attempt, AttemptOutcome, CancelToken, GuardPolicy, SolveError};
use monge_core::problem::{Problem, ProblemKind, Solution, Structure, Telemetry, TuningProvenance};
use monge_core::queryindex::QueryIndex;
use monge_core::scratch;
use monge_core::smawk::RowExtrema;
use monge_core::tube::TubeExtrema;
use monge_core::value::Value;

use crate::dispatch::{Backend, Dispatcher};
use crate::guarded::{contained, nanos_since, Budget, Fault};
use crate::health::{Admission, Observation};
use crate::runtime;
use crate::tuning::Tuning;

/// The [`Telemetry::backend`] / [`Attempt::backend`] label of a solve
/// executed by the fused batch path.
pub const BATCH: &str = "batch";

/// How a batch executes: guard semantics per problem, a wall-clock
/// budget for the whole batch, and the amortization knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Per-problem guard semantics: validation mode, violation action,
    /// fallback depth and sampling seed. The policy's own `deadline`
    /// field is ignored — use [`BatchPolicy::deadline`], which is
    /// carved into per-group slices.
    pub guard: GuardPolicy,
    /// Wall-clock budget for the whole batch, carved into per-group
    /// slices proportional to estimated cost. A starved group degrades
    /// to [`SolveError::DeadlineExceeded`] for its own members only.
    pub deadline: Option<Duration>,
    /// Resolve each group's tuning through the autotuner, keyed by the
    /// group's most expensive member (default `true`); `false` uses the
    /// environment-seeded tuning.
    pub calibrate: bool,
    /// Load-shedding threshold: groups whose estimated cost (in entry
    /// evaluations) exceeds this are not fused; their members take the
    /// `solve_guarded` fallback walk one at a time. `None` (the
    /// default) never sheds.
    pub max_group_cost: Option<u64>,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            guard: GuardPolicy::default(),
            deadline: None,
            calibrate: true,
            max_group_cost: None,
        }
    }
}

impl BatchPolicy {
    /// Sets the per-problem guard semantics.
    #[must_use]
    pub fn with_guard(mut self, guard: GuardPolicy) -> Self {
        self.guard = guard;
        self
    }

    /// Sets the whole-batch wall-clock budget.
    #[must_use]
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Disables per-group calibration (environment-seeded tuning).
    #[must_use]
    pub fn without_calibration(mut self) -> Self {
        self.calibrate = false;
        self
    }

    /// Sets the load-shedding threshold (estimated entry evaluations).
    #[must_use]
    pub fn shed_above(mut self, cost: u64) -> Self {
        self.max_group_cost = Some(cost);
        self
    }
}

/// What a whole batch did: per-problem results and telemetry plus the
/// group-level accounting the service and the benches report.
pub struct BatchReport<T> {
    /// Per-problem outcome, in input order.
    pub results: Vec<Result<Solution<T>, SolveError>>,
    /// Per-problem telemetry, in input order (default for problems that
    /// failed preconditions before reaching an engine).
    pub telemetry: Vec<Telemetry>,
    /// How many `(kind, structure, size-class)` groups the batch formed.
    pub groups: usize,
    /// How many groups were shed onto the fallback chain by
    /// [`BatchPolicy::max_group_cost`].
    pub shed_groups: usize,
}

impl<T: Value> BatchReport<T> {
    /// Whole-batch telemetry rollup via [`Telemetry::merge`].
    pub fn rollup(&self) -> Telemetry {
        Telemetry::merge(&self.telemetry)
    }
}

/// The grouping key: problems sharing it can share one backend
/// selection and one tuning resolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct GroupKey {
    kind: ProblemKind,
    /// `Structure` discriminant (banded/tube problems are Monge by
    /// construction).
    structure: u8,
    /// `floor(log2(search area)) + 1` — members of one class are within
    /// 2× of each other, so one calibrated tuning fits all.
    size_class: u32,
}

fn group_key<T: Value>(p: &Problem<'_, T>) -> GroupKey {
    // Shares its coordinates with `autotune::AutotuneKey` so one
    // autotune table entry covers one batch group.
    GroupKey {
        kind: p.kind(),
        structure: crate::autotune::structure_code(p),
        size_class: crate::autotune::size_class(p),
    }
}

/// `~ n/m + ceil lg m`: entries a structured engine touches per row.
fn structured_row_cost(m: usize, n: usize) -> u64 {
    let lg = 64 - (m.max(2) as u64 - 1).leading_zeros() as u64;
    (n / m.max(1)) as u64 + lg
}

/// The cost model behind the Merge-Path chunk boundaries:
/// `(units, per-unit cost, per-strip cost)` where a *unit* is one row
/// (one plane for tubes), costs are estimated entry-evaluation counts,
/// and the per-strip cost is paid once by every strip the problem is cut
/// into.
fn cost_model<T: Value>(p: &Problem<'_, T>) -> (usize, u64, u64) {
    match *p {
        Problem::Rows {
            array, structure, ..
        } => {
            let (m, n) = (array.rows(), array.cols());
            let unit = if structure == Structure::Plain {
                n as u64
            } else {
                structured_row_cost(m, n)
            };
            (m, unit.max(1), 0)
        }
        Problem::Staircase { array, .. } => {
            let (m, n) = (array.rows(), array.cols());
            (m, structured_row_cost(m, n).max(1), 0)
        }
        Problem::Banded { lo, hi, .. } => {
            let m = lo.len();
            let total: u64 = lo
                .iter()
                .zip(hi)
                .map(|(&l, &h)| h.saturating_sub(l) as u64)
                .sum();
            (m, (total / m.max(1) as u64).max(1), 0)
        }
        // A strip of b planes is one sweep: its b·q reads of D, b·r
        // window starts, windows that telescope along the b + r
        // diagonals to at most (b + r)·q, and one q·r pass building its
        // own Eᵀ. That is 2q + r per plane plus 2qr per strip.
        Problem::Tube { d, e, .. } => {
            let (planes, q, r) = (d.rows(), d.cols(), e.cols());
            (planes, (2 * q + r).max(1) as u64, 2 * (q * r) as u64)
        }
    }
}

/// One contiguous piece of one problem's unit range, assigned to a
/// chunk.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Strip {
    /// Index into the group's member list (not the batch).
    member: usize,
    /// Unit (row / plane) range of that member.
    units: Range<usize>,
}

/// Splits the group's concatenated unit list into ≤ `chunks` contiguous
/// pieces of roughly equal cost: chunk `k` ends where the prefix-summed
/// cost crosses `(k+1)·total/chunks`. Every strip adds its member's
/// per-strip cost to the sum, and every strip but a member's last
/// carries at least that much unit cost, so cuts cannot shred a member
/// into strips that are mostly overhead. Exact partition — every unit
/// of every member lands in exactly one strip, in order.
fn plan_chunks(costs: &[(usize, u64, u64)], chunks: usize) -> Vec<Vec<Strip>> {
    let total: u128 = costs
        .iter()
        .map(|&(u, c, s)| u as u128 * c as u128 + s as u128)
        .sum();
    let total_units: usize = costs.iter().map(|&(u, _, _)| u).sum();
    if total_units == 0 {
        return Vec::new();
    }
    let chunks = chunks.clamp(1, total_units);
    let target = (total / chunks as u128).max(1);
    let mut plan: Vec<Vec<Strip>> = Vec::new();
    let mut cur: Vec<Strip> = Vec::new();
    let mut acc: u128 = 0;
    let mut cut = target;
    for (member, &(units, unit_cost, strip_cost)) in costs.iter().enumerate() {
        let unit_cost = unit_cost.max(1) as u128;
        let least = (strip_cost as u128).div_ceil(unit_cost).max(1);
        let mut u0 = 0usize;
        while u0 < units {
            acc += strip_cost as u128;
            let take = if plan.len() + 1 >= chunks {
                // Terminal chunk: absorb the remainder.
                units - u0
            } else {
                let room = cut.saturating_sub(acc);
                (room.div_ceil(unit_cost).max(least) as usize).min(units - u0)
            };
            cur.push(Strip {
                member,
                units: u0..u0 + take,
            });
            acc += take as u128 * unit_cost;
            u0 += take;
            if acc >= cut && plan.len() + 1 < chunks {
                plan.push(std::mem::take(&mut cur));
                cut += target;
            }
        }
    }
    if !cur.is_empty() {
        plan.push(cur);
    }
    plan
}

/// Concatenates a problem's strip solutions (already in unit order)
/// back into the whole-problem solution, merging the strip telemetries.
/// An unsplit member needs no concatenation or merge.
fn stitch<T: Value>(
    problem: &Problem<'_, T>,
    mut parts: Vec<(Solution<T>, Telemetry)>,
) -> (Solution<T>, Telemetry) {
    if parts.len() == 1 {
        let (sol, mut tel) = parts.pop().expect("one part");
        tel.backend = BATCH;
        return (sol, tel);
    }
    let mut tel = Telemetry::merge(parts.iter().map(|(_, t)| t));
    tel.backend = BATCH;
    let sol = match *problem {
        Problem::Rows { .. } | Problem::Staircase { .. } => {
            let mut index = Vec::new();
            let mut value = Vec::new();
            for (s, _) in parts {
                let r = s.into_rows();
                index.extend(r.index);
                value.extend(r.value);
            }
            Solution::Rows(RowExtrema { index, value })
        }
        Problem::Banded { .. } => {
            let mut index = Vec::new();
            let mut value = Vec::new();
            for (s, _) in parts {
                if let Solution::Banded {
                    index: si,
                    value: sv,
                } = s
                {
                    index.extend(si);
                    value.extend(sv);
                }
            }
            Solution::Banded { index, value }
        }
        Problem::Tube { e, .. } => {
            let r = e.cols();
            let mut p = 0;
            let mut index = Vec::new();
            let mut value = Vec::new();
            for (s, _) in parts {
                let t = s.into_tube();
                p += t.p;
                index.extend(t.index);
                value.extend(t.value);
            }
            Solution::Tube(TubeExtrema { p, r, index, value })
        }
    };
    (sol, tel)
}

/// One fused member's output: the stitched solve, or `None` when the
/// member takes the guarded walk instead (a strip was lost to a panic
/// or to the group's cancellation, or the member had no units).
type Fused<T> = Option<(Solution<T>, Telemetry)>;

/// What the fused strips lost, fed to the health registry at group
/// granularity (a deadline outranks a panic).
#[derive(Clone, Copy, Debug, Default)]
struct Lost {
    panic: bool,
    deadline: bool,
}

impl Lost {
    fn observation(self) -> Observation {
        if self.deadline {
            Observation::Deadline
        } else if self.panic {
            Observation::Panic
        } else {
            Observation::Ok
        }
    }
}

impl<T: Value> Dispatcher<T> {
    /// Solves a batch of heterogeneous problems with amortized dispatch:
    /// grouped by `(kind, structure, size-class)`, one tuning resolution
    /// and one backend selection per group, Merge-Path chunking across
    /// the rayon pool, per-group deadline slices and load shedding. See
    /// the [module docs](crate::batch) and [`BatchPolicy`].
    ///
    /// Results are in input order; each problem fails or succeeds
    /// individually, with the same answers a sequential
    /// `solve_guarded` loop would produce.
    pub fn solve_batch(
        &self,
        problems: &[Problem<'_, T>],
        policy: BatchPolicy,
    ) -> Vec<Result<Solution<T>, SolveError>> {
        self.solve_batch_report(problems, &policy).results
    }

    /// [`Dispatcher::solve_batch`] with the full per-problem telemetry
    /// and group accounting.
    pub fn solve_batch_report(
        &self,
        problems: &[Problem<'_, T>],
        policy: &BatchPolicy,
    ) -> BatchReport<T> {
        // Deadline errors report the batch's elapsed time and budget;
        // each group's token enforces its own slice of that budget.
        let batch = Budget {
            start: Instant::now(),
            deadline: policy.deadline,
            token: None,
        };
        let guard = &policy.guard;
        let n = problems.len();
        let mut results: Vec<Option<Result<Solution<T>, SolveError>>> =
            (0..n).map(|_| None).collect();
        let mut telemetry: Vec<Telemetry> = (0..n).map(|_| Telemetry::default()).collect();

        // --- Admission: the guarded layer's own stage, exactly once per
        //     request (no strip or fallback ever re-validates). Each
        //     slot holds its admission record until the member solves.
        let mut admitted: Vec<usize> = Vec::new();
        let mut quarantined: Vec<usize> = Vec::new();
        for (i, p) in problems.iter().enumerate() {
            match self.admit(p, guard, &batch) {
                Ok(outcome) => {
                    if outcome.quarantined {
                        quarantined.push(i);
                    } else {
                        admitted.push(i);
                    }
                    telemetry[i].guard = Some(outcome);
                }
                Err(e) => results[i] = Some(Err(e)),
            }
        }

        // --- Grouping (deterministic first-appearance order). ---
        let mut groups: Vec<(GroupKey, Vec<usize>)> = Vec::new();
        let mut by_key: HashMap<GroupKey, usize> = HashMap::new();
        for &i in &admitted {
            let key = group_key(&problems[i]);
            let g = *by_key.entry(key).or_insert_with(|| {
                groups.push((key, Vec::new()));
                groups.len() - 1
            });
            groups[g].1.push(i);
        }

        // --- Deadline carving: per-group slices proportional to
        //     estimated cost (quarantined problems share one slice,
        //     costed at their brute-force search area). ---
        let cost_of = |i: usize| -> u128 {
            let (units, unit, strip) = cost_model(&problems[i]);
            units as u128 * unit as u128 + strip as u128
        };
        let group_costs: Vec<u128> = groups
            .iter()
            .map(|(_, members)| members.iter().map(|&i| cost_of(i)).sum())
            .collect();
        let quarantine_cost: u128 = quarantined
            .iter()
            .map(|&i| {
                let (m, n) = problems[i].search_shape();
                (m as u128 * n as u128).max(1)
            })
            .sum();
        let total_cost: u128 = (group_costs.iter().sum::<u128>() + quarantine_cost).max(1);
        let slice = |cost: u128| Budget {
            token: policy.deadline.map(|d| {
                CancelToken::with_deadline(Duration::from_secs_f64(
                    d.as_secs_f64() * cost as f64 / total_cost as f64,
                ))
            }),
            ..batch
        };

        // --- Execute each group: fused, or shed onto the guarded walk.
        //     Every member the fused path cannot answer takes the same
        //     walk, under its group's slice. ---
        let mut shed_groups = 0usize;
        for ((_, members), &gcost) in groups.iter().zip(&group_costs) {
            let budget = slice(gcost);
            let (tuning, provenance) = self.resolve_group_tuning(policy, members, problems);
            let shed = policy.max_group_cost.is_some_and(|c| gcost > c as u128);
            shed_groups += usize::from(shed);
            // The fused path runs on the sequential engine; its circuit
            // breaker gates group selection. An Open circuit sends the
            // whole group onto the guarded walk (which does its own
            // per-link admission) instead of fusing onto a backend that
            // is currently faulting.
            let sequential = self.find("sequential").filter(|_| !shed);
            let breaker_denied = sequential.is_some()
                && matches!(self.health().admit("sequential"), Admission::Deny { .. });
            let t_group = Instant::now();
            let (fused, lost) = match sequential.filter(|_| !breaker_denied) {
                Some(seq) => {
                    let (fused, lost) = self.run_group_fused(
                        problems,
                        members,
                        seq,
                        &tuning,
                        budget.token.as_ref(),
                    );
                    (fused, Some(lost))
                }
                None => (members.iter().map(|_| None).collect(), None),
            };
            for (&i, out) in members.iter().zip(fused) {
                results[i] = Some(match out {
                    Some((sol, mut tel)) => {
                        let mut outcome = telemetry[i].guard.take().unwrap_or_default();
                        outcome.attempts.push(Attempt {
                            backend: BATCH,
                            outcome: AttemptOutcome::Completed,
                        });
                        tel.guard = Some(outcome);
                        telemetry[i] = tel;
                        Ok(sol)
                    }
                    None => {
                        self.walk_member(&problems[i], &mut telemetry[i], guard, &tuning, &budget)
                    }
                });
                if breaker_denied {
                    telemetry[i].breaker_skips = telemetry[i].breaker_skips.saturating_add(1);
                }
                // One group decision covers every member.
                telemetry[i].provenance = Some(provenance);
            }
            // One observation per fused group resolves a probe and
            // keeps the window's granularity independent of group size.
            if let Some(lost) = lost {
                self.health()
                    .record("sequential", lost.observation(), nanos_since(t_group));
            }
        }

        // --- Quarantined members: the walk's brute-only chain, which
        //     is correct without the structural promise. ---
        if !quarantined.is_empty() {
            let budget = slice(quarantine_cost);
            let tuning = Tuning::from_env();
            for &i in &quarantined {
                results[i] = Some(self.walk_member(
                    &problems[i],
                    &mut telemetry[i],
                    guard,
                    &tuning,
                    &budget,
                ));
            }
        }

        BatchReport {
            results: results
                .into_iter()
                .map(|r| {
                    r.unwrap_or_else(|| {
                        Err(SolveError::InvalidInput {
                            reason: "batch executor produced no outcome".to_string(),
                        })
                    })
                })
                .collect(),
            telemetry,
            groups: groups.len(),
            shed_groups,
        }
    }

    /// One tuning for the whole group: one autotune consultation keyed
    /// by the group's most expensive member
    /// ([`Dispatcher::autotune_decision`] — the group key and the
    /// autotune key share their `(kind, structure, size-class)`
    /// coordinates, so one table entry covers the whole group), else
    /// the environment. The winner's *backend* is ignored here: fused
    /// strips always run on the sequential engine, with the rayon pool
    /// parallelizing across strips rather than within one.
    fn resolve_group_tuning(
        &self,
        policy: &BatchPolicy,
        members: &[usize],
        problems: &[Problem<'_, T>],
    ) -> (Tuning, TuningProvenance) {
        if !policy.calibrate {
            return (Tuning::from_env(), TuningProvenance::Default);
        }
        let rep = members
            .iter()
            .copied()
            .max_by_key(|&i| {
                let (units, unit, strip) = cost_model(&problems[i]);
                units as u128 * unit as u128 + strip as u128
            })
            .expect("groups are never empty");
        let decision = self.autotune_decision(&problems[rep]);
        (decision.tuning, decision.provenance)
    }

    /// The fused path: one scratch prewarm broadcast, one global work
    /// list, Merge-Path chunks across the pool, stitch. Returns one
    /// entry per member (`None` for members that must take the guarded
    /// walk) and what the strips lost.
    fn run_group_fused(
        &self,
        problems: &[Problem<'_, T>],
        members: &[usize],
        seq: &dyn Backend<T>,
        tuning: &Tuning,
        token: Option<&CancelToken>,
    ) -> (Vec<Fused<T>>, Lost) {
        // One shared scratch-arena session: pre-grow every pool
        // thread's arena to the group's widest scan once, so no chunk
        // pays the growth memcpys mid-solve.
        let max_cols = members
            .iter()
            .map(|&i| problems[i].primary_array().cols())
            .max()
            .unwrap_or(0);
        if max_cols > 0 {
            rayon::broadcast(|_| scratch::prewarm::<T>(2, max_cols));
        }

        let costs: Vec<(usize, u64, u64)> =
            members.iter().map(|&i| cost_model(&problems[i])).collect();

        // The global work list and its equal-cost chunks. On a
        // single-thread pool, splitting is pure strip-boundary overhead
        // with no balancing benefit (cancellation still fires through
        // the engines' own checkpoints), so everything rides one chunk.
        // Otherwise no strip may fall below the sequential grain
        // (`seq_rows`): a strip re-reads its boundary rows, so cutting
        // finer than the grain the engine would never fork at only adds
        // evaluations.
        let threads = rayon::current_num_threads().max(1);
        let chunk_count = if threads == 1 {
            1
        } else {
            let total_units: usize = costs.iter().map(|&(u, _, _)| u).sum();
            let grain_cap = (total_units / tuning.seq_rows.max(1)).max(1);
            (threads * tuning.batch_chunks_per_thread.max(1)).min(grain_cap)
        };
        let chunks = plan_chunks(&costs, chunk_count);

        let chunk_outs = runtime::par_map(&chunks, |chunk| {
            let mut strips = Vec::with_capacity(chunk.len());
            let mut lost = Lost::default();
            for strip in chunk {
                // The cooperative-cancellation checkpoint at the
                // strip (chunk-internal) boundary.
                if lost.deadline || token.is_some_and(CancelToken::is_cancelled) {
                    lost.deadline = true;
                    strips.push((strip.member, None));
                    continue;
                }
                let problem = &problems[members[strip.member]];
                let out = match contained(|| {
                    problem.with_rows(strip.units.clone(), |window| {
                        self.run(seq, window, tuning, token)
                    })
                }) {
                    Ok(out) => Some(out),
                    Err(Fault::Deadline) => {
                        lost.deadline = true;
                        None
                    }
                    Err(Fault::Panic(_)) => {
                        lost.panic = true;
                        None
                    }
                };
                strips.push((strip.member, out));
            }
            (strips, lost)
        });

        // Stitch per member. A member with a lost strip takes the
        // guarded walk, and so does one with no units (an empty array
        // has nothing to chunk).
        let mut parts: Vec<Vec<(Solution<T>, Telemetry)>> =
            members.iter().map(|_| Vec::new()).collect();
        let mut broken: Vec<bool> = costs.iter().map(|&(units, _, _)| units == 0).collect();
        let mut lost = Lost::default();
        for (strips, chunk_lost) in chunk_outs {
            lost.panic |= chunk_lost.panic;
            lost.deadline |= chunk_lost.deadline;
            for (member, out) in strips {
                match out {
                    Some(part) => parts[member].push(part),
                    None => broken[member] = true,
                }
            }
        }
        let fused = parts
            .into_iter()
            .zip(broken)
            .zip(members)
            .map(|((member_parts, broken), &i)| {
                (!broken).then(|| stitch(&problems[i], member_parts))
            })
            .collect();
        (fused, lost)
    }

    /// Walks one member's guarded fallback chain under `budget`,
    /// starting from the admission record its telemetry slot holds. On
    /// failure the slot keeps that record.
    fn walk_member(
        &self,
        problem: &Problem<'_, T>,
        slot: &mut Telemetry,
        guard: &GuardPolicy,
        tuning: &Tuning,
        budget: &Budget,
    ) -> Result<Solution<T>, SolveError> {
        let admitted = slot.guard.clone().unwrap_or_default();
        let (sol, tel) = self.walk(problem, admitted, guard, tuning, budget, None)?;
        *slot = tel;
        Ok(sol)
    }
}

/// Why [`SolverService::submit`] refused a problem — typed backpressure
/// the caller can act on (drain now, shed load, or retry after the next
/// drain) instead of an unbounded queue absorbing an overload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The service's bounded pending queue is full; drain before
    /// submitting more.
    Overloaded {
        /// Problems currently pending.
        pending: usize,
        /// The queue bound ([`SolverService::with_max_pending`]).
        capacity: usize,
    },
    /// This tenant reached its in-flight quota; other tenants may still
    /// submit.
    TenantOverQuota {
        /// The refused tenant.
        tenant: String,
        /// That tenant's pending problems.
        pending: usize,
        /// The per-tenant bound ([`SolverService::with_tenant_quota`]).
        quota: usize,
    },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { pending, capacity } => {
                write!(
                    f,
                    "service overloaded: {pending} pending of {capacity} capacity"
                )
            }
            SubmitError::TenantOverQuota {
                tenant,
                pending,
                quota,
            } => {
                write!(
                    f,
                    "tenant '{tenant}' over quota: {pending} pending of {quota} allowed"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A front door for streams of heterogeneous problems: submit per
/// tenant (against a bounded queue and optional per-tenant quotas),
/// drain as one amortized batch, read per-tenant telemetry rollups.
///
/// Drains are *graceful* under pressure: the batch deadline is carved
/// into per-group slices, and past-deadline or faulting work is shed
/// onto the guarded fallback chain member-by-member instead of stalling
/// or failing the whole drain — submission order of the results is
/// preserved regardless.
///
/// ```
/// use monge_core::array2d::Dense;
/// use monge_core::problem::Problem;
/// use monge_parallel::batch::{BatchPolicy, SolverService};
///
/// let a = Dense::tabulate(32, 32, |i, j| {
///     let d = i as i64 - j as i64;
///     d * d
/// });
/// let mut svc = SolverService::new(BatchPolicy::default());
/// svc.submit("tenant-a", Problem::row_minima(&a)).unwrap();
/// svc.submit("tenant-b", Problem::row_maxima(&a)).unwrap();
/// let results = svc.drain();
/// assert!(results.iter().all(|r| r.is_ok()));
/// assert!(svc.tenant_telemetry("tenant-a").unwrap().evaluations > 0);
/// ```
pub struct SolverService<'a, T: Value> {
    dispatcher: Dispatcher<T>,
    policy: BatchPolicy,
    queue: Vec<(String, Problem<'a, T>)>,
    tenants: HashMap<String, Telemetry>,
    max_pending: usize,
    tenant_quota: Option<usize>,
    pending_by_tenant: HashMap<String, usize>,
    indexes: HashMap<String, HashMap<String, Arc<QueryIndex<T>>>>,
}

/// Default bound on a service's pending queue.
pub const DEFAULT_MAX_PENDING: usize = 4096;

impl<'a, T: Value> SolverService<'a, T> {
    /// A service over [`Dispatcher::with_default_backends`].
    pub fn new(policy: BatchPolicy) -> Self {
        Self::with_dispatcher(Dispatcher::with_default_backends(), policy)
    }

    /// A service over a custom registry.
    pub fn with_dispatcher(dispatcher: Dispatcher<T>, policy: BatchPolicy) -> Self {
        SolverService {
            dispatcher,
            policy,
            queue: Vec::new(),
            tenants: HashMap::new(),
            max_pending: DEFAULT_MAX_PENDING,
            tenant_quota: None,
            pending_by_tenant: HashMap::new(),
            indexes: HashMap::new(),
        }
    }

    /// Bounds the pending queue (default [`DEFAULT_MAX_PENDING`]); a
    /// full queue refuses submissions with [`SubmitError::Overloaded`].
    #[must_use]
    pub fn with_max_pending(mut self, capacity: usize) -> Self {
        self.max_pending = capacity;
        self
    }

    /// Caps any one tenant's pending problems; an over-quota tenant is
    /// refused with [`SubmitError::TenantOverQuota`] while others keep
    /// submitting — one noisy tenant cannot monopolize the queue.
    #[must_use]
    pub fn with_tenant_quota(mut self, quota: usize) -> Self {
        self.tenant_quota = Some(quota);
        self
    }

    /// The underlying registry (e.g. to register extra backends before
    /// the first drain).
    pub fn dispatcher_mut(&mut self) -> &mut Dispatcher<T> {
        &mut self.dispatcher
    }

    /// The dispatcher's fault memory ([`crate::health`]): breaker
    /// states and the retry budget carried across drains.
    pub fn health(&self) -> &std::sync::Arc<crate::health::HealthRegistry> {
        self.dispatcher.health()
    }

    /// Enqueues a problem for `tenant`; on success returns its index in
    /// the next [`SolverService::drain`]'s result vector. Refusals are
    /// typed backpressure ([`SubmitError`]) and leave the queue
    /// unchanged.
    pub fn submit(&mut self, tenant: &str, problem: Problem<'a, T>) -> Result<usize, SubmitError> {
        if self.queue.len() >= self.max_pending {
            return Err(SubmitError::Overloaded {
                pending: self.queue.len(),
                capacity: self.max_pending,
            });
        }
        let tenant_pending = self.pending_by_tenant.get(tenant).copied().unwrap_or(0);
        if let Some(quota) = self.tenant_quota {
            if tenant_pending >= quota {
                return Err(SubmitError::TenantOverQuota {
                    tenant: tenant.to_string(),
                    pending: tenant_pending,
                    quota,
                });
            }
        }
        *self
            .pending_by_tenant
            .entry(tenant.to_string())
            .or_insert(0) += 1;
        self.queue.push((tenant.to_string(), problem));
        Ok(self.queue.len() - 1)
    }

    /// Problems waiting for the next drain.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Problems `tenant` has waiting for the next drain.
    pub fn tenant_pending(&self, tenant: &str) -> usize {
        self.pending_by_tenant.get(tenant).copied().unwrap_or(0)
    }

    /// Builds (or fetches) `tenant`'s named [`QueryIndex`] over
    /// `problem`'s array, under the service's guard policy.
    ///
    /// The first call for a `(tenant, name)` pair runs
    /// [`Dispatcher::build_index_guarded`] and folds the build's
    /// telemetry (evaluations, `index_builds`, `index_bytes`,
    /// `index_breakpoints`, build phase) into the tenant's rollup.
    /// Later calls return the cached handle and bump the rollup's
    /// `index_hits` instead — the handle stays live across drains, so a
    /// tenant preprocesses once and serves query batches indefinitely.
    /// Handles are [`Arc`]s: clones stay valid even after
    /// [`SolverService::drop_index`].
    ///
    /// # Errors
    ///
    /// As for [`Dispatcher::build_index_guarded`]; a failed build caches
    /// nothing.
    pub fn build_index(
        &mut self,
        tenant: &str,
        name: &str,
        problem: &Problem<'_, T>,
    ) -> Result<Arc<QueryIndex<T>>, SolveError> {
        if let Some(ix) = self
            .indexes
            .get(tenant)
            .and_then(|named| named.get(name))
            .cloned()
        {
            let rollup = self.tenants.entry(tenant.to_string()).or_default();
            rollup.index_hits = rollup.index_hits.saturating_add(1);
            return Ok(ix);
        }
        let (ix, tel) = self
            .dispatcher
            .build_index_guarded(problem, &self.policy.guard)?;
        self.tenants
            .entry(tenant.to_string())
            .or_default()
            .accumulate(&tel);
        let ix = Arc::new(ix);
        self.indexes
            .entry(tenant.to_string())
            .or_default()
            .insert(name.to_string(), Arc::clone(&ix));
        Ok(ix)
    }

    /// `tenant`'s named index handle, if one has been built.
    pub fn index(&self, tenant: &str, name: &str) -> Option<Arc<QueryIndex<T>>> {
        self.indexes
            .get(tenant)
            .and_then(|named| named.get(name))
            .cloned()
    }

    /// Evicts `tenant`'s named index, folding its unharvested query
    /// counters into the tenant rollup first. Returns whether an index
    /// was cached under that name. Outstanding [`Arc`] clones keep
    /// serving; only the service's handle is dropped.
    pub fn drop_index(&mut self, tenant: &str, name: &str) -> bool {
        let Some(named) = self.indexes.get_mut(tenant) else {
            return false;
        };
        let Some(ix) = named.remove(name) else {
            return false;
        };
        if named.is_empty() {
            self.indexes.remove(tenant);
        }
        let (queries, probes) = ix.take_counters();
        let rollup = self.tenants.entry(tenant.to_string()).or_default();
        rollup.index_queries = rollup.index_queries.saturating_add(queries);
        rollup.index_probes = rollup.index_probes.saturating_add(probes);
        true
    }

    /// Solves everything submitted since the last drain as one batch
    /// (in submission order), folds each problem's telemetry into its
    /// tenant's rollup, and returns the per-problem outcomes.
    ///
    /// Also harvests every cached [`QueryIndex`]'s usage counters since
    /// the previous drain into its tenant's `index_queries` /
    /// `index_probes`, so rollups account for query serving alongside
    /// solves.
    pub fn drain(&mut self) -> Vec<Result<Solution<T>, SolveError>> {
        let queue = std::mem::take(&mut self.queue);
        self.pending_by_tenant.clear();
        let problems: Vec<Problem<'a, T>> = queue.iter().map(|(_, p)| *p).collect();
        let report = self.dispatcher.solve_batch_report(&problems, &self.policy);
        for ((tenant, _), tel) in queue.iter().zip(&report.telemetry) {
            self.tenants
                .entry(tenant.clone())
                .or_default()
                .accumulate(tel);
        }
        for (tenant, named) in &self.indexes {
            let mut queries = 0u64;
            let mut probes = 0u64;
            for ix in named.values() {
                let (q, p) = ix.take_counters();
                queries = queries.saturating_add(q);
                probes = probes.saturating_add(p);
            }
            if queries != 0 || probes != 0 {
                let rollup = self.tenants.entry(tenant.clone()).or_default();
                rollup.index_queries = rollup.index_queries.saturating_add(queries);
                rollup.index_probes = rollup.index_probes.saturating_add(probes);
            }
        }
        report.results
    }

    /// The accumulated rollup for one tenant (across every drain).
    pub fn tenant_telemetry(&self, tenant: &str) -> Option<&Telemetry> {
        self.tenants.get(tenant)
    }

    /// Every tenant's rollup, in arbitrary order.
    pub fn tenants(&self) -> impl Iterator<Item = (&str, &Telemetry)> {
        self.tenants.iter().map(|(k, v)| (k.as_str(), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guarded::BRUTE;
    use monge_core::array2d::{Array2d, Dense};
    use monge_core::generators::random_monge_dense;
    use monge_core::problem::Objective;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn monge(m: usize, n: usize, seed: u64) -> Dense<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        random_monge_dense(m, n, &mut rng)
    }

    #[test]
    fn chunk_plan_is_an_exact_partition_in_order() {
        // One big member and many small ones — the Merge-Path shape.
        let mut costs: Vec<(usize, u64, u64)> = vec![(16384, 3, 0)];
        costs.extend((0..40).map(|_| (64usize, 3u64, 0u64)));
        let plan = plan_chunks(&costs, 8);
        assert!(plan.len() <= 8 && !plan.is_empty());
        // Every unit of every member appears exactly once, in order.
        let mut next: Vec<usize> = vec![0; costs.len()];
        for chunk in &plan {
            for strip in chunk {
                assert_eq!(strip.units.start, next[strip.member]);
                next[strip.member] = strip.units.end;
            }
        }
        for (m, &(units, _, _)) in costs.iter().enumerate() {
            assert_eq!(next[m], units, "member {m} fully covered");
        }
        // The big member is split across chunks rather than serializing
        // one chunk on it.
        let big_strips: usize = plan.iter().flatten().filter(|s| s.member == 0).count();
        assert!(
            big_strips > 1,
            "16384-row member split into {big_strips} strip(s)"
        );
        // Chunk costs are balanced within ~2x of the ideal target.
        let cost = |c: &Vec<Strip>| c.iter().map(|s| s.units.len() as u64 * 3).sum::<u64>();
        let total: u64 = plan.iter().map(cost).sum();
        let target = total / plan.len() as u64;
        for c in &plan {
            assert!(cost(c) <= 2 * target + 3 * 16384 / 8, "balanced chunks");
        }
    }

    #[test]
    fn chunk_plan_prices_every_strip_of_a_tube() {
        // Tube-shaped members: each strip rebuilds Eᵀ (2qr), so no strip
        // may carry less plane work than that.
        let (q, r) = (64u64, 64u64);
        let tube = (256usize, 2 * q + r, 2 * q * r);
        let costs = vec![tube, tube, (64, 3, 0)];
        let plan = plan_chunks(&costs, 8);
        let least = (2 * q * r).div_ceil(2 * q + r) as usize;
        let mut next = [0usize; 3];
        for strip in plan.iter().flatten() {
            assert_eq!(strip.units.start, next[strip.member]);
            next[strip.member] = strip.units.end;
            if strip.member < 2 && strip.units.end < 256 {
                assert!(strip.units.len() >= least, "{strip:?} below {least} planes");
            }
        }
        assert_eq!(next, [256, 256, 64]);
        let strips = plan.iter().flatten().filter(|s| s.member < 2).count();
        assert!(strips > 2, "the tubes were not cut at all");
    }

    #[test]
    fn chunk_plan_handles_empty_and_degenerate_inputs() {
        assert!(plan_chunks(&[], 4).is_empty());
        assert!(plan_chunks(&[(0, 5, 0), (0, 1, 0)], 4).is_empty());
        let plan = plan_chunks(&[(1, 100, 0)], 8);
        assert_eq!(plan.len(), 1);
        assert_eq!(
            plan[0],
            vec![Strip {
                member: 0,
                units: 0..1
            }]
        );
    }

    #[test]
    fn batch_matches_individual_solves_across_kinds() {
        let a = monge(33, 47, 1);
        let b = monge(64, 16, 2);
        let small = monge(5, 5, 3);
        let boundary: Vec<usize> = (0..33).map(|i| 47 - i).collect();
        let lo: Vec<usize> = (0..33).map(|i| i / 2).collect();
        let hi: Vec<usize> = (0..33).map(|i| (i / 2 + 9).min(47)).collect();
        // Tube factors must chain: b is 64×16, so e needs 16 rows.
        let e = monge(16, 9, 4);
        let problems = vec![
            Problem::row_minima(&a),
            Problem::row_maxima(&b),
            Problem::row_minima(&small),
            Problem::staircase_row_minima(&a, &boundary),
            Problem::banded_row_minima(&a, &lo, &hi),
            Problem::tube_minima(&b, &e),
            Problem::plain_row_minima(&a),
        ];

        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default().without_calibration();
        let batch = d.solve_batch(&problems, policy);
        for (i, p) in problems.iter().enumerate() {
            let (expected, _) = d
                .solve_guarded_with(p, &GuardPolicy::default(), Tuning::from_env())
                .unwrap();
            assert_eq!(
                batch[i].as_ref().unwrap(),
                &expected,
                "problem {i} ({:?}) differs from the one-at-a-time solve",
                p.kind()
            );
        }
    }

    #[test]
    fn batch_telemetry_records_one_validation_and_a_batch_attempt() {
        let a = monge(40, 40, 7);
        let problems = vec![Problem::row_minima(&a); 3];
        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default()
            .without_calibration()
            .with_guard(GuardPolicy::full_validation());
        let report = d.solve_batch_report(&problems, &policy);
        assert_eq!(report.groups, 1);
        for tel in &report.telemetry {
            let guard = tel.guard.as_ref().unwrap();
            assert!(
                guard.validation_nanos > 0,
                "validation ran during admission"
            );
            assert_eq!(guard.fallback_path(), vec![BATCH]);
            assert!(tel.evaluations > 0);
        }
        assert!(report.rollup().evaluations >= report.telemetry[0].evaluations);
    }

    #[test]
    fn zero_deadline_starves_the_batch_without_panicking() {
        let a = monge(256, 256, 9);
        let problems = vec![Problem::row_minima(&a); 4];
        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default()
            .without_calibration()
            .with_deadline(Duration::ZERO);
        let results = d.solve_batch(&problems, policy);
        for r in results {
            assert!(
                matches!(r, Err(SolveError::DeadlineExceeded { .. })),
                "starved batch must fail with DeadlineExceeded, got {r:?}"
            );
        }
    }

    #[test]
    fn shedding_degrades_but_still_answers() {
        let a = monge(128, 128, 11);
        let problems = vec![Problem::row_minima(&a); 3];
        let d = Dispatcher::with_default_backends();
        let report = d.solve_batch_report(
            &problems,
            &BatchPolicy::default().without_calibration().shed_above(1),
        );
        assert_eq!(report.shed_groups, 1, "the lone group overflows the cap");
        let (expected, _) = d
            .solve_guarded_with(&problems[0], &GuardPolicy::default(), Tuning::from_env())
            .unwrap();
        for (r, tel) in report.results.iter().zip(&report.telemetry) {
            assert_eq!(r.as_ref().unwrap(), &expected);
            // Shed members went through the guarded chain, not the
            // fused path.
            let guard = tel.guard.as_ref().unwrap();
            assert!(guard.fallback_path().iter().all(|&b| b != BATCH));
        }
    }

    #[test]
    fn quarantined_member_degrades_to_brute_only_for_itself() {
        let good = monge(24, 24, 13);
        // An anti-Monge bump the full check must catch.
        let mut bad = good.clone();
        let v = bad.entry(3, 3);
        bad.set(3, 3, v + 1_000_000);
        let problems = vec![Problem::row_minima(&good), Problem::row_minima(&bad)];
        let d = Dispatcher::with_default_backends();
        let policy = BatchPolicy::default()
            .without_calibration()
            .with_guard(GuardPolicy::full_validation());
        let report = d.solve_batch_report(&problems, &policy);
        let good_guard = report.telemetry[0].guard.as_ref().unwrap();
        assert!(!good_guard.quarantined);
        assert_eq!(good_guard.fallback_path(), vec![BATCH]);
        let bad_guard = report.telemetry[1].guard.as_ref().unwrap();
        assert!(bad_guard.quarantined);
        assert_eq!(bad_guard.fallback_path(), vec![BRUTE]);
        // Brute's answer is the true row minima of the corrupted array.
        let (brute_expected, _) = d
            .solve_guarded_with(
                &problems[1],
                &GuardPolicy::full_validation(),
                Tuning::from_env(),
            )
            .unwrap();
        assert_eq!(report.results[1].as_ref().unwrap(), &brute_expected);
    }

    #[test]
    fn service_rolls_up_telemetry_per_tenant() {
        let a = monge(32, 32, 17);
        let mut svc = SolverService::new(BatchPolicy::default().without_calibration());
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        svc.submit("alpha", Problem::row_maxima(&a)).unwrap();
        svc.submit("beta", Problem::row_minima(&a)).unwrap();
        assert_eq!(svc.pending(), 3);
        assert_eq!(svc.tenant_pending("alpha"), 2);
        let results = svc.drain();
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(svc.pending(), 0);
        let alpha = svc.tenant_telemetry("alpha").unwrap().clone();
        let beta = svc.tenant_telemetry("beta").unwrap().clone();
        assert!(alpha.evaluations > beta.evaluations);
        assert_eq!(alpha.kind, None, "mixed kinds collapse in the rollup");
        assert_eq!(svc.tenants().count(), 2);
        // A second drain accumulates instead of replacing.
        svc.submit("beta", Problem::row_minima(&a)).unwrap();
        let before = beta.evaluations;
        svc.drain();
        assert!(svc.tenant_telemetry("beta").unwrap().evaluations > before);
    }

    #[test]
    fn submit_backpressure_is_typed_and_leaves_the_queue_intact() {
        let a = monge(8, 8, 23);
        let mut svc = SolverService::new(BatchPolicy::default().without_calibration())
            .with_max_pending(2)
            .with_tenant_quota(1);
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        // Tenant quota fires first: alpha already has 1 in flight.
        match svc.submit("alpha", Problem::row_minima(&a)) {
            Err(SubmitError::TenantOverQuota {
                tenant,
                pending,
                quota,
            }) => {
                assert_eq!(tenant, "alpha");
                assert_eq!((pending, quota), (1, 1));
            }
            other => panic!("expected TenantOverQuota, got {other:?}"),
        }
        svc.submit("beta", Problem::row_minima(&a)).unwrap();
        // Queue full: even a fresh tenant is refused.
        match svc.submit("gamma", Problem::row_minima(&a)) {
            Err(SubmitError::Overloaded { pending, capacity }) => {
                assert_eq!((pending, capacity), (2, 2));
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(svc.pending(), 2, "refusals leave the queue unchanged");
        // Drain frees both the queue and the tenant counters.
        assert!(svc.drain().iter().all(Result::is_ok));
        assert_eq!(svc.tenant_pending("alpha"), 0);
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        let errs: Vec<String> = [
            SubmitError::Overloaded {
                pending: 2,
                capacity: 2,
            },
            SubmitError::TenantOverQuota {
                tenant: "alpha".into(),
                pending: 1,
                quota: 1,
            },
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert!(errs[0].contains("overloaded"));
        assert!(errs[1].contains("alpha"));
    }

    #[test]
    fn drain_preserves_submit_order_across_mixed_outcomes() {
        // Distinct row counts make each solution traceable to its
        // submission slot even across quarantine, invalid input, and
        // clean members interleaved between two tenants.
        let a = monge(10, 16, 29);
        let b = monge(20, 16, 31);
        let c = monge(30, 16, 37);
        let mut broken = monge(15, 15, 41);
        let v = broken.entry(4, 4);
        broken.set(4, 4, v + 1_000_000);
        let bad_boundary = vec![1usize, 5]; // wrong length AND increasing
        let mut svc = SolverService::new(
            BatchPolicy::default()
                .without_calibration()
                .with_guard(GuardPolicy::full_validation()),
        );
        let i0 = svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        let i1 = svc.submit("beta", Problem::row_minima(&broken)).unwrap();
        let i2 = svc
            .submit("alpha", Problem::staircase_row_minima(&a, &bad_boundary))
            .unwrap();
        let i3 = svc.submit("beta", Problem::row_minima(&b)).unwrap();
        let i4 = svc.submit("alpha", Problem::row_minima(&c)).unwrap();
        assert_eq!((i0, i1, i2, i3, i4), (0, 1, 2, 3, 4));
        let results = svc.drain();
        assert_eq!(results.len(), 5);
        assert_eq!(results[0].as_ref().unwrap().rows().index.len(), 10);
        // The quarantined member still answers (brute), in its slot.
        assert_eq!(results[1].as_ref().unwrap().rows().index.len(), 15);
        assert!(matches!(results[2], Err(SolveError::InvalidInput { .. })));
        assert_eq!(results[3].as_ref().unwrap().rows().index.len(), 20);
        assert_eq!(results[4].as_ref().unwrap().rows().index.len(), 30);
    }

    #[test]
    fn tenant_isolation_survives_a_faulty_neighbor() {
        // Tenant alpha streams structure-violating arrays (quarantined);
        // tenant beta's clean work must come back bitwise-identical to a
        // solo run, with no resilience counters leaking into its rollup.
        let clean = monge(24, 24, 43);
        let mut dirty = clean.clone();
        let v = dirty.entry(2, 2);
        dirty.set(2, 2, v + 1_000_000);
        let policy = BatchPolicy::default()
            .without_calibration()
            .with_guard(GuardPolicy::full_validation());
        let d = Dispatcher::with_default_backends();
        let (solo, _) = d
            .solve_guarded_with(
                &Problem::row_minima(&clean),
                &GuardPolicy::full_validation(),
                Tuning::from_env(),
            )
            .unwrap();
        let mut svc = SolverService::new(policy);
        svc.submit("alpha", Problem::row_minima(&dirty)).unwrap();
        svc.submit("beta", Problem::row_minima(&clean)).unwrap();
        svc.submit("alpha", Problem::row_minima(&dirty)).unwrap();
        let results = svc.drain();
        assert_eq!(results[1].as_ref().unwrap(), &solo);
        let beta = svc.tenant_telemetry("beta").unwrap();
        assert_eq!(beta.retries, 0);
        assert_eq!(beta.breaker_skips, 0);
        // Alpha's quarantined members still answer correctly (brute).
        assert!(results[0].is_ok() && results[2].is_ok());
        assert!(svc.tenant_telemetry("alpha").unwrap().evaluations > 0);
    }

    #[test]
    fn open_sequential_breaker_downgrades_fused_groups() {
        use crate::health::{HealthConfig, HealthRegistry, VirtualClock};
        use std::sync::Arc;
        let clock = Arc::new(VirtualClock::new());
        let registry = Arc::new(HealthRegistry::new(HealthConfig::DEFAULT, clock));
        let d = Dispatcher::with_default_backends().with_health_registry(registry.clone());
        registry.force_open("sequential");
        let a = monge(32, 32, 47);
        let problems = vec![Problem::row_minima(&a); 3];
        let report = d.solve_batch_report(&problems, &BatchPolicy::default().without_calibration());
        for (r, tel) in report.results.iter().zip(&report.telemetry) {
            let (expected, _) = Dispatcher::with_default_backends()
                .solve_guarded_with(&problems[0], &GuardPolicy::default(), Tuning::from_env())
                .unwrap();
            assert_eq!(r.as_ref().unwrap(), &expected);
            assert!(
                tel.breaker_skips >= 1,
                "denied fused path is counted: {}",
                tel.breaker_skips
            );
            let path = tel.guard.as_ref().unwrap().fallback_path();
            assert!(
                !path.contains(&BATCH),
                "members bypassed the fused path, got {path:?}"
            );
            assert!(
                !path.contains(&"sequential"),
                "guarded walk also skips the open circuit, got {path:?}"
            );
        }
    }

    #[test]
    fn service_index_handles_are_cached_and_reusable_across_drains() {
        let a = monge(24, 24, 61);
        let p = Problem::rows(&a, Structure::Monge, Objective::Minimize);
        let mut svc: SolverService<'_, i64> =
            SolverService::new(BatchPolicy::default().without_calibration());
        let ix = svc.build_index("alpha", "costs", &p).unwrap();
        let tel = svc.tenant_telemetry("alpha").unwrap().clone();
        assert_eq!(tel.index_builds, 1);
        assert_eq!(tel.index_hits, 0);
        assert_eq!(tel.index_bytes, ix.bytes());
        assert!(tel.evaluations >= 24 * 24);

        // A second build of the same name is a cache hit, not a rebuild.
        let again = svc.build_index("alpha", "costs", &p).unwrap();
        assert!(Arc::ptr_eq(&ix, &again));
        let tel = svc.tenant_telemetry("alpha").unwrap().clone();
        assert_eq!(tel.index_builds, 1);
        assert_eq!(tel.index_hits, 1);

        // Queries served between drains fold into the tenant rollup.
        let ans = ix.query_min(3..19, 1..22).unwrap();
        let mut best = (i64::MAX, usize::MAX, usize::MAX);
        for i in 3..19 {
            for j in 1..22 {
                let v = a.entry(i, j);
                if (v, i, j) < best {
                    best = (v, i, j);
                }
            }
        }
        assert_eq!((ans.value, ans.row, ans.col), best);
        ix.query_max(0..24, 0..24).unwrap();
        svc.submit("alpha", Problem::row_minima(&a)).unwrap();
        assert!(svc.drain().iter().all(Result::is_ok));
        let tel = svc.tenant_telemetry("alpha").unwrap().clone();
        assert_eq!(tel.index_queries, 2);
        assert!(tel.index_probes > 0);

        // The handle survives the drain and keeps serving; the next
        // drain harvests only the new traffic.
        let held = svc.index("alpha", "costs").unwrap();
        held.query_min(0..24, 5..6).unwrap();
        svc.drain();
        assert_eq!(svc.tenant_telemetry("alpha").unwrap().index_queries, 3);

        // drop_index harvests pending counters and evicts the handle.
        held.query_min(1..2, 1..2).unwrap();
        assert!(svc.drop_index("alpha", "costs"));
        assert!(!svc.drop_index("alpha", "costs"));
        assert!(svc.index("alpha", "costs").is_none());
        assert_eq!(svc.tenant_telemetry("alpha").unwrap().index_queries, 4);
        // Outstanding clones still answer after eviction.
        held.query_min(0..1, 0..1).unwrap();
    }

    #[test]
    fn service_index_build_failures_cache_nothing() {
        let a = monge(8, 8, 67);
        let p = Problem::rows(&a, Structure::Plain, Objective::Minimize);
        let mut svc: SolverService<'_, i64> =
            SolverService::new(BatchPolicy::default().without_calibration());
        assert!(matches!(
            svc.build_index("alpha", "plain", &p),
            Err(SolveError::InvalidInput { .. })
        ));
        assert!(svc.index("alpha", "plain").is_none());
        assert!(svc.tenant_telemetry("alpha").is_none());
    }

    #[test]
    fn invalid_inputs_fail_individually_not_batchwide() {
        let a = monge(8, 8, 19);
        let bad_boundary = vec![2usize, 5, 1, 1, 1, 1, 1, 1]; // not non-increasing
        let problems = vec![
            Problem::row_minima(&a),
            Problem::staircase_row_minima(&a, &bad_boundary),
        ];
        let d = Dispatcher::with_default_backends();
        let results = d.solve_batch(&problems, BatchPolicy::default().without_calibration());
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SolveError::InvalidInput { .. })));
    }
}
