//! `fault_burst`: a transient panic wave (80‰ of entry reads, at most
//! two panics per solve) on small mixed-kind solves through
//! `Dispatcher::solve_guarded`, with a virtual-clock health registry and
//! seeded retry jitter. Only the solve calls are timed.
//!
//! Retries are provisioned so the wave never exhausts them: a solve
//! meets at most [`MAX_PANICS`] injected panics, every chain link may
//! make more attempts than that, and each request credits the retry
//! budget with more tokens than it can spend. Every solve therefore
//! ends correct, and a typed error here is a program defect.

use super::{check, isolate, Reference};
use crate::gen::{self, Rng};
use crate::run::{Layers, Request, Workload};
use crate::trace::Tracer;
use monge_core::array2d::Dense;
use monge_core::guard::{FaultInjector, FaultPlan, GuardPolicy, RetryPolicy};
use monge_core::problem::{Problem, Solution};
use monge_parallel::dispatch::{Dispatcher, SequentialBackend};
use monge_parallel::health::{HealthConfig, VirtualClock};
use monge_parallel::runtime::task_count;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const PANIC_PER_MILLE: u32 = 80;
pub const PANIC_BUDGET: u64 = 2;
/// Injected panics one solve can meet: a tube solve reads two faulty
/// arrays, each with its own budget.
const MAX_PANICS: u32 = 2 * PANIC_BUDGET as u32;
/// Virtual time between two solves (lets open breakers cool down).
const TICK: Duration = Duration::from_millis(2);
const POOL: usize = 96;
/// Perturbation size for violation sites; this wave injects none.
const DELTA: i64 = 1 << 20;

/// Row minima, row maxima, staircase and tube minima, in rotation.
const FAMILIES: usize = 4;

struct Instance {
    a: Dense<i64>,
    boundary: Vec<usize>,
    e: Option<Dense<i64>>,
    family: usize,
    want: Solution<i64>,
}

fn problem<'p, A, E>(
    family: usize,
    a: &'p A,
    boundary: &'p [usize],
    e: Option<&'p E>,
) -> Problem<'p, i64>
where
    A: monge_core::Array2d<i64>,
    E: monge_core::Array2d<i64>,
{
    match family {
        0 => Problem::row_minima(a),
        1 => Problem::row_maxima(a),
        2 => Problem::staircase_row_minima(a, boundary),
        _ => Problem::tube_minima(a, e.expect("tube factor")),
    }
}

pub struct Inputs {
    seed: u64,
    pool: Vec<Instance>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let r = Reference::new();
        let mut rng = Rng::derive(seed, 4);
        let pool = (0..POOL)
            .map(|k| {
                let family = k % FAMILIES;
                // Sizes are spread evenly over their ranges, the same
                // for every seed, so a seed changes the values and not
                // the pool's cost.
                let n = 32 + k * 64 / (POOL - 1);
                let (a, boundary, e) = match family {
                    2 => {
                        let (a, f) = gen::staircase(&mut rng, n, n);
                        (a, f, None)
                    }
                    3 => {
                        let t = k / FAMILIES;
                        let side = |off: usize| 12 + (t + off) % (POOL / FAMILIES) / 2;
                        let (p, q, s) = (side(0), side(8), side(16));
                        (
                            gen::monge(&mut rng, p, q),
                            Vec::new(),
                            Some(gen::monge(&mut rng, q, s)),
                        )
                    }
                    _ => (gen::monge(&mut rng, n, n), Vec::new(), None),
                };
                let want = r.solve(&problem(family, &a, &boundary, e.as_ref()));
                Instance {
                    a,
                    boundary,
                    e,
                    family,
                    want,
                }
            })
            .collect();
        Inputs { seed, pool }
    }
}

pub struct FaultBurst<'a> {
    inputs: &'a Inputs,
    dispatcher: Option<Dispatcher<i64>>,
    clock: Arc<VirtualClock>,
    policy: GuardPolicy,
    solves: u64,
}

impl<'a> FaultBurst<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        // Enough attempts on one link (the brute terminal, when the
        // sequential engine's breaker is open) to outlast every panic.
        let retry = RetryPolicy::retries(
            MAX_PANICS + 1,
            Duration::from_millis(1),
            Duration::from_millis(20),
        )
        .with_seed(inputs.seed);
        FaultBurst {
            inputs,
            dispatcher: None,
            clock: Arc::new(VirtualClock::new()),
            policy: GuardPolicy::default()
                .with_retry(retry)
                .with_seed(inputs.seed),
            solves: 0,
        }
    }
}

impl Workload for FaultBurst<'_> {
    fn setup(&mut self, _lay: &mut Layers) -> Result<(), String> {
        // Sequential engine only: a parallel engine would make which
        // reads consume the panic budget depend on scheduling. Each
        // request credits more retries than its panics can spend, so
        // the budget never runs dry.
        let config = HealthConfig {
            retry_budget: 256,
            retry_credit_milli: 1_000 * (u64::from(MAX_PANICS) + 1),
            ..HealthConfig::DEFAULT
        };
        self.clock = Arc::new(VirtualClock::new());
        let mut seq = Dispatcher::new();
        seq.register(Box::new(SequentialBackend));
        let d = isolate(seq, self.clock.clone(), config);
        // Warm every pool instance once, fault-free, through the same
        // guarded path.
        for inst in &self.inputs.pool {
            let p = problem(inst.family, &inst.a, &inst.boundary, inst.e.as_ref());
            let (sol, _) = d
                .solve_guarded(&p, &self.policy)
                .map_err(|e| format!("fault-free warm-up solve failed: {e}"))?;
            check("warm-up solve", &sol, &inst.want)?;
        }
        self.dispatcher = Some(d);
        Ok(())
    }

    fn request(&mut self, tr: &mut Tracer, lay: &mut Layers) -> Result<Request, String> {
        let s = self.solves;
        self.solves += 1;
        let mut rng = Rng::derive(self.inputs.seed, (1 << 40) + s);
        let inst = &self.inputs.pool[rng.below(POOL as u64) as usize];
        let site_seed = rng.next_u64();
        let plan = FaultPlan {
            panic_per_mille: PANIC_PER_MILLE,
            panic_budget: Some(PANIC_BUDGET),
            ..FaultPlan::none(site_seed)
        };
        let fa = FaultInjector::new(&inst.a, plan, DELTA);
        let fe = inst.e.as_ref().map(|e| {
            let plan_e = FaultPlan {
                seed: site_seed ^ 0xE1E1_E1E1,
                ..plan
            };
            FaultInjector::new(e, plan_e, DELTA)
        });
        let p = problem(inst.family, &fa, &inst.boundary, fe.as_ref());
        let d = self.dispatcher.as_ref().expect("set up before requests");
        self.clock.advance(TICK);

        let tasks0 = task_count();
        let t = Instant::now();
        let solved = tr.span("guarded.solve_guarded", || {
            d.solve_guarded(&p, &self.policy)
        });
        let latency = t.elapsed();

        if tr.enabled() {
            lay.forked_since(tasks0);
        }
        let failed = match solved {
            Ok((sol, tel)) => {
                check("guarded solve", &sol, &inst.want)?;
                if tr.enabled() {
                    lay.solve(&tel);
                }
                0
            }
            Err(_) => {
                if tr.enabled() {
                    lay.typed_errors += 1;
                }
                1
            }
        };
        Ok(Request {
            latency,
            ops: 1,
            failed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::Array2d;

    #[test]
    fn same_seed_same_pool_other_seed_other_pool() {
        let sizes = |i: &Inputs| -> Vec<(usize, usize, i64)> {
            i.pool
                .iter()
                .map(|x| (x.a.rows(), x.a.cols(), x.a.data()[0]))
                .collect()
        };
        let (a, b, c) = (Inputs::new(5), Inputs::new(5), Inputs::new(6));
        assert_eq!(sizes(&a), sizes(&b));
        assert_ne!(sizes(&a), sizes(&c));
    }
}
