//! The four workloads. Each owns its seeded inputs and reference
//! answers (built before set-up, untimed) and drives the program only
//! through its public API.

mod fault_burst;
mod query_serving;
mod service_mixed;
mod solve_large;

use crate::run::{self, Outcome};
use monge_core::problem::{Problem, Solution};
use monge_parallel::dispatch::{Dispatcher, SequentialBackend};
use monge_parallel::health::{Clock, HealthConfig, HealthRegistry, MonotonicClock};
use monge_parallel::{AutotuneMode, Autotuner, Tuning};
use std::sync::Arc;

pub const NAMES: [&str; 4] = [
    "solve_large",
    "service_mixed",
    "query_serving",
    "fault_burst",
];

/// Generates `name`'s inputs from `seed`, then runs it.
pub fn run(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    match name {
        "solve_large" => {
            let inputs = solve_large::Inputs::new(seed);
            run::run(&mut solve_large::SolveLarge::new(&inputs), seconds, trace)
        }
        "service_mixed" => {
            let inputs = service_mixed::Inputs::new(seed);
            run::run(
                &mut service_mixed::ServiceMixed::new(&inputs),
                seconds,
                trace,
            )
        }
        "query_serving" => {
            let inputs = query_serving::Inputs::new(seed);
            run::run(
                &mut query_serving::QueryServing::new(&inputs),
                seconds,
                trace,
            )
        }
        "fault_burst" => {
            let inputs = fault_burst::Inputs::new(seed);
            run::run(&mut fault_burst::FaultBurst::new(&inputs), seconds, trace)
        }
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {NAMES:?}"
        )),
    }
}

/// Isolates `d` from everything outside this run: a memory-only
/// autotuner (no persisted table is read or written) and its own
/// health registry.
fn isolate(d: Dispatcher<i64>, clock: Arc<dyn Clock>, config: HealthConfig) -> Dispatcher<i64> {
    d.with_autotuner(Arc::new(Autotuner::in_memory(AutotuneMode::On)))
        .with_health_registry(Arc::new(HealthRegistry::new(config, clock)))
}

/// The default backends, isolated.
fn default_dispatcher() -> Dispatcher<i64> {
    isolate(
        Dispatcher::with_default_backends(),
        Arc::new(MonotonicClock::new()),
        HealthConfig::DEFAULT,
    )
}

/// Reference answers come from the sequential engine alone.
struct Reference(Dispatcher<i64>);

impl Reference {
    fn new() -> Self {
        let mut d = Dispatcher::new();
        d.register(Box::new(SequentialBackend));
        Reference(d)
    }

    fn solve(&self, p: &Problem<'_, i64>) -> Solution<i64> {
        self.0
            .solve_on("sequential", p, Tuning::DEFAULT)
            .expect("the sequential backend solves every host problem kind")
            .0
    }
}

/// Compares a served answer with its reference, outside any timing.
fn check(what: &str, got: &Solution<i64>, want: &Solution<i64>) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "wrong answer: {what} differs from the sequential reference"
        ))
    }
}
