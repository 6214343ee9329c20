//! `service_mixed`: `SolverService` submit/drain from two tenants. Each
//! drain holds 32 requests of all four families with heavy-tailed
//! sizes under sampled validation, so admission, grouping, Merge-Path
//! chunking, per-group tuning and validation carry the cost.

use super::{check, default_dispatcher, Reference};
use crate::gen::{self, Rng};
use crate::run::{autotune_decisions, Layers, Request, Workload};
use crate::trace::Tracer;
use monge_core::array2d::Dense;
use monge_core::guard::GuardPolicy;
use monge_core::problem::{Problem, Solution};
use monge_parallel::runtime::task_count;
use monge_parallel::{BatchPolicy, SolverService};
use std::time::Instant;

/// One slot class of a drain: how many requests of it each drain
/// holds, its family, its array side and how many distinct instances
/// the seeded pool keeps.
struct Slot {
    per_drain: usize,
    family: Family,
    n: usize,
    pool: usize,
}

#[derive(Clone, Copy)]
enum Family {
    RowMinima,
    RowMaxima,
    Staircase,
    Tube,
}

/// 20×64² row minima, 6×128² row maxima, 3×256² staircase, 2×64³ tube
/// minima and 1×1024² row minima: 32 requests per drain.
const SLOTS: [Slot; 5] = [
    Slot {
        per_drain: 20,
        family: Family::RowMinima,
        n: 64,
        pool: 40,
    },
    Slot {
        per_drain: 6,
        family: Family::RowMaxima,
        n: 128,
        pool: 12,
    },
    Slot {
        per_drain: 3,
        family: Family::Staircase,
        n: 256,
        pool: 6,
    },
    Slot {
        per_drain: 2,
        family: Family::Tube,
        n: 64,
        pool: 4,
    },
    Slot {
        per_drain: 1,
        family: Family::RowMinima,
        n: 1024,
        pool: 2,
    },
];

pub const PER_DRAIN: usize = 32;

const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];

/// In the traced phase, every this many drains the same requests are
/// also run, untimed and after the drain, through
/// `Dispatcher::solve_batch_report` (the function `drain` runs) to read
/// the per-request telemetry and group count a drain does not return.
/// The repeat's counts equal the drain's; its timings are the repeat's.
const PROBE_EVERY: u64 = 4;

struct Instance {
    a: Dense<i64>,
    /// Staircase boundary (empty for other families).
    boundary: Vec<usize>,
    /// The tube's second factor.
    e: Option<Dense<i64>>,
    family: Family,
}

impl Instance {
    fn problem(&self) -> Problem<'_, i64> {
        match self.family {
            Family::RowMinima => Problem::row_minima(&self.a),
            Family::RowMaxima => Problem::row_maxima(&self.a),
            Family::Staircase => Problem::staircase_row_minima(&self.a, &self.boundary),
            Family::Tube => Problem::tube_minima(&self.a, self.e.as_ref().expect("tube factor")),
        }
    }
}

pub struct Inputs {
    seed: u64,
    /// `pools[s]` holds slot `s`'s instances with their references.
    pools: Vec<Vec<(Instance, Solution<i64>)>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let reference = Reference::new();
        let pools = SLOTS
            .iter()
            .enumerate()
            .map(|(s, slot)| {
                let mut rng = Rng::derive(seed, 100 + s as u64);
                (0..slot.pool)
                    .map(|_| {
                        let inst = match slot.family {
                            Family::Staircase => {
                                let (a, f) = gen::staircase(&mut rng, slot.n, slot.n);
                                Instance {
                                    a,
                                    boundary: f,
                                    e: None,
                                    family: slot.family,
                                }
                            }
                            Family::Tube => Instance {
                                a: gen::monge(&mut rng, slot.n, slot.n),
                                boundary: Vec::new(),
                                e: Some(gen::monge(&mut rng, slot.n, slot.n)),
                                family: slot.family,
                            },
                            _ => Instance {
                                a: gen::monge(&mut rng, slot.n, slot.n),
                                boundary: Vec::new(),
                                e: None,
                                family: slot.family,
                            },
                        };
                        let want = reference.solve(&inst.problem());
                        (inst, want)
                    })
                    .collect()
            })
            .collect();
        Inputs { seed, pools }
    }

    /// Drain `k`'s requests as `(slot, pool index)`, in submission
    /// order.
    fn plan(&self, k: u64) -> Vec<(usize, usize)> {
        let mut rng = Rng::derive(self.seed, 1_000_000 + k);
        let mut plan: Vec<(usize, usize)> = SLOTS
            .iter()
            .enumerate()
            .flat_map(|(s, slot)| std::iter::repeat_n(s, slot.per_drain))
            .map(|s| (s, rng.below(SLOTS[s].pool as u64) as usize))
            .collect();
        for i in (1..plan.len()).rev() {
            plan.swap(i, rng.below(i as u64 + 1) as usize);
        }
        plan
    }
}

fn policy() -> BatchPolicy {
    BatchPolicy::default().with_guard(GuardPolicy::sampled_validation())
}

pub struct ServiceMixed<'a> {
    inputs: &'a Inputs,
    /// The last set-up's service; every drain goes to it.
    service: Option<SolverService<'a, i64>>,
    drains: u64,
}

impl<'a> ServiceMixed<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        ServiceMixed {
            inputs,
            service: None,
            drains: 0,
        }
    }
}

/// Checks a drain's answers against the references; returns its typed
/// error count.
fn check_drain(
    inputs: &Inputs,
    plan: &[(usize, usize)],
    results: &[Result<Solution<i64>, monge_core::guard::SolveError>],
) -> Result<u64, String> {
    if results.len() != plan.len() {
        return Err(format!(
            "drain returned {} results for {}",
            results.len(),
            plan.len()
        ));
    }
    let mut failed = 0;
    for (&(s, i), got) in plan.iter().zip(results) {
        match got {
            Ok(sol) => check("service request", sol, &inputs.pools[s][i].1)?,
            Err(_) => failed += 1,
        }
    }
    Ok(failed)
}

impl<'a> Workload for ServiceMixed<'a> {
    fn setup(&mut self, _lay: &mut Layers) -> Result<(), String> {
        let mut svc = SolverService::with_dispatcher(default_dispatcher(), policy());
        // One drain of every slot class: each group's cold autotune
        // measurement happens here.
        let inputs: &'a Inputs = self.inputs;
        let plan: Vec<(usize, usize)> = (0..SLOTS.len()).map(|s| (s, 0)).collect();
        for (k, &(s, i)) in plan.iter().enumerate() {
            svc.submit(TENANTS[k % 2], inputs.pools[s][i].0.problem())
                .map_err(|e| e.to_string())?;
        }
        let results = svc.drain();
        check_drain(inputs, &plan, &results)?;
        self.service = Some(svc);
        Ok(())
    }

    fn request(&mut self, tr: &mut Tracer, lay: &mut Layers) -> Result<Request, String> {
        let inputs: &'a Inputs = self.inputs;
        let plan = inputs.plan(self.drains);
        self.drains += 1;
        let problems: Vec<Problem<'a, i64>> = plan
            .iter()
            .map(|&(s, i)| inputs.pools[s][i].0.problem())
            .collect();
        let svc = self.service.as_mut().expect("set up before requests");

        let tasks0 = task_count();
        let t = Instant::now();
        for (k, p) in problems.iter().enumerate() {
            tr.span("batch.submit", || svc.submit(TENANTS[k % 2], *p))
                .map_err(|e| format!("submit refused: {e}"))?;
        }
        let results = tr.span("batch.drain", || svc.drain());
        let latency = t.elapsed();

        let failed = check_drain(inputs, &plan, &results)?;
        if tr.enabled() {
            lay.forked_since(tasks0);
        }
        if tr.enabled() && self.drains.is_multiple_of(PROBE_EVERY) {
            let d = svc.dispatcher_mut();
            let report = d.solve_batch_report(&problems, &policy());
            check_drain(inputs, &plan, &report.results)?;
            lay.drains_probed += 1;
            lay.groups += report.groups as u64;
            for tel in &report.telemetry {
                lay.solve(tel);
            }
        }
        Ok(Request {
            latency,
            ops: PER_DRAIN as u64,
            failed,
        })
    }

    fn finish(&mut self, lay: &mut Layers) {
        let svc = self.service.as_mut().expect("set up before requests");
        lay.measurements = svc.dispatcher_mut().autotuner().measurements();
    }

    fn decisions(&mut self) -> Vec<String> {
        let svc = self.service.as_mut().expect("set up before requests");
        autotune_decisions(svc.dispatcher_mut().autotuner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_drains_other_seed_other_drains() {
        let (a, b, c) = (Inputs::new(7), Inputs::new(7), Inputs::new(8));
        assert_eq!(a.plan(3), b.plan(3));
        assert_ne!(a.plan(3), c.plan(3));
        assert_ne!(a.plan(3), a.plan(4));
        assert_eq!(a.plan(3).len(), PER_DRAIN);
        assert_eq!(SLOTS.iter().map(|s| s.per_drain).sum::<usize>(), PER_DRAIN);
        let first = |i: &Inputs| i.pools[0][0].0.a.data().to_vec();
        assert_eq!(first(&a), first(&b));
        assert_ne!(first(&a), first(&c));
    }
}
