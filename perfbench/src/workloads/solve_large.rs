//! `solve_large`: large solves one at a time through the dispatcher's
//! tuned single-request path (`Dispatcher::solve_calibrated`) with the
//! rayon backend eligible, so the program's own per-solve routing picks
//! the engine. A request is one job of [`PER_JOB`] dense row-minima,
//! staircase row-minima and tube-minima solves, back to back.

use super::{check, default_dispatcher, Reference};
use crate::gen::{self, Rng};
use crate::run::{autotune_decisions, Layers, Request, Workload};
use crate::trace::Tracer;
use monge_core::array2d::Dense;
use monge_core::problem::{Problem, Solution};
use monge_parallel::dispatch::Dispatcher;
use monge_parallel::runtime::task_count;
use std::time::Instant;

pub const ROWMIN_N: usize = 4096;
pub const STAIRCASE_N: usize = 4096;
pub const TUBE_N: usize = 256;

const KINDS: [&str; 3] = ["row minima", "staircase row minima", "tube minima"];

/// Solves of each kind per job, so each kind takes a comparable share of
/// the job's wall time on a 2-vCPU host.
pub const PER_JOB: [usize; 3] = [4, 2, 1];

pub struct Inputs {
    rowmin: Dense<i64>,
    staircase: Dense<i64>,
    boundary: Vec<usize>,
    tube_d: Dense<i64>,
    tube_e: Dense<i64>,
    refs: Vec<Solution<i64>>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let mut rng = Rng::derive(seed, 1);
        let rowmin = gen::monge(&mut rng, ROWMIN_N, ROWMIN_N);
        let (staircase, boundary) = gen::staircase(&mut rng, STAIRCASE_N, STAIRCASE_N);
        let tube_d = gen::monge(&mut rng, TUBE_N, TUBE_N);
        let tube_e = gen::monge(&mut rng, TUBE_N, TUBE_N);
        let mut inputs = Inputs {
            rowmin,
            staircase,
            boundary,
            tube_d,
            tube_e,
            refs: Vec::new(),
        };
        let reference = Reference::new();
        inputs.refs = (0..KINDS.len())
            .map(|k| reference.solve(&inputs.problem(k)))
            .collect();
        inputs
    }

    fn problem(&self, kind: usize) -> Problem<'_, i64> {
        match kind {
            0 => Problem::row_minima(&self.rowmin),
            1 => Problem::staircase_row_minima(&self.staircase, &self.boundary),
            _ => Problem::tube_minima(&self.tube_d, &self.tube_e),
        }
    }
}

pub struct SolveLarge<'a> {
    inputs: &'a Inputs,
    dispatcher: Option<Dispatcher<i64>>,
}

impl<'a> SolveLarge<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        SolveLarge {
            inputs,
            dispatcher: None,
        }
    }
}

impl Workload for SolveLarge<'_> {
    fn setup(&mut self, _lay: &mut Layers) -> Result<(), String> {
        // A cold dispatcher: the first solve of each kind runs the
        // autotuner's candidate measurement. The last set-up's
        // dispatcher serves the requests.
        let d = default_dispatcher();
        for (k, (kind, want)) in KINDS.iter().zip(&self.inputs.refs).enumerate() {
            let (sol, _) = d.solve_calibrated(&self.inputs.problem(k));
            check(kind, &sol, want)?;
        }
        self.dispatcher = Some(d);
        Ok(())
    }

    fn request(&mut self, tr: &mut Tracer, lay: &mut Layers) -> Result<Request, String> {
        let inputs = self.inputs;
        let d = self.dispatcher.as_ref().expect("set up before requests");
        let mut latency = std::time::Duration::ZERO;
        let job = PER_JOB
            .iter()
            .enumerate()
            .flat_map(|(k, &c)| std::iter::repeat_n(k, c));
        for k in job {
            let p = inputs.problem(k);
            let tasks0 = task_count();
            let t = Instant::now();
            let (sol, tel) = tr.span("dispatch.solve_calibrated", || d.solve_calibrated(&p));
            let wall = t.elapsed();
            latency += wall;

            check(KINDS[k], &sol, &inputs.refs[k])?;
            if tr.enabled() {
                lay.forked_since(tasks0);
                lay.dispatched(wall, &tel);
                lay.solve(&tel);
            }
        }
        Ok(Request {
            latency,
            ops: PER_JOB.iter().sum::<usize>() as u64,
            failed: 0,
        })
    }

    fn finish(&mut self, lay: &mut Layers) {
        let d = self.dispatcher.as_ref().expect("set up before requests");
        lay.measurements = d.autotuner().measurements();
    }

    fn decisions(&mut self) -> Vec<String> {
        let d = self.dispatcher.as_ref().expect("set up before requests");
        autotune_decisions(d.autotuner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_arrays_other_seed_other_arrays() {
        // One input set (~260 MB) alive at a time.
        let first = |seed| {
            let i = Inputs::new(seed);
            (i.rowmin.data()[..64].to_vec(), i.boundary.clone())
        };
        assert_eq!(first(3), first(3));
        assert_ne!(first(3), first(4));
    }
}
