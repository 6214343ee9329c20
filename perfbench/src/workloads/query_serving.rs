//! `query_serving`: one n=4096 Monge submatrix-query index built in
//! set-up, then seeded random-rectangle `query_min`/`query_max` calls,
//! with a fresh 256² index built and queried every 1024 queries.

use super::{default_dispatcher, Reference};
use crate::gen::{self, Rng};
use crate::run::{Layers, Request, Workload};
use crate::trace::Tracer;
use monge_core::array2d::{Array2d, Dense, SubArray};
use monge_core::guard::GuardPolicy;
use monge_core::problem::{Objective, Problem, Structure};
use monge_core::queryindex::{QueryAnswer, QueryIndex};
use monge_parallel::dispatch::Dispatcher;
use monge_parallel::runtime::task_count;
use std::ops::Range;
use std::time::Instant;

pub const BIG_N: usize = 4096;
pub const SMALL_N: usize = 256;
/// Queries on the big index between two small builds.
pub const QUERIES_PER_BUILD: usize = 1024;
/// Queries on each freshly built small index.
pub const SMALL_QUERIES: usize = 64;

const BIG_RECTS: usize = 2048;
const SMALLS: usize = 8;

/// A rectangle query and its reference answer.
struct Query {
    rows: Range<usize>,
    cols: Range<usize>,
    objective: Objective,
    want: QueryAnswer<i64>,
}

/// The exact answer under the index's tie rule (optimal value, then
/// smallest row, then smallest column): row optima of the sub-array from
/// the sequential engine, the first row holding the best of them, and
/// the first column of that row holding that value.
fn reference(
    r: &Reference,
    a: &Dense<i64>,
    rows: Range<usize>,
    cols: Range<usize>,
    objective: Objective,
) -> QueryAnswer<i64> {
    let sub = SubArray::new(a, rows.clone(), cols.clone());
    let sol = r.solve(&Problem::rows(&sub, Structure::Monge, objective));
    let values = &sol.rows().value;
    let best = match objective {
        Objective::Minimize => values.iter().copied().min(),
        Objective::Maximize => values.iter().copied().max(),
    }
    .expect("rectangles are non-empty");
    let dr = values
        .iter()
        .position(|&v| v == best)
        .expect("best is a row optimum");
    let row = rows.start + dr;
    let col = cols
        .clone()
        .find(|&j| a.entry(row, j) == best)
        .expect("the best row holds the best value");
    QueryAnswer {
        value: best,
        row,
        col,
    }
}

fn queries(rng: &mut Rng, r: &Reference, a: &Dense<i64>, count: usize) -> Vec<Query> {
    (0..count)
        .map(|k| {
            let (rows, cols) = gen::rect(rng, a.rows(), a.cols());
            let objective = if k % 2 == 0 {
                Objective::Minimize
            } else {
                Objective::Maximize
            };
            let want = reference(r, a, rows.clone(), cols.clone(), objective);
            Query {
                rows,
                cols,
                objective,
                want,
            }
        })
        .collect()
}

pub struct Inputs {
    big: Dense<i64>,
    big_queries: Vec<Query>,
    smalls: Vec<(Dense<i64>, Vec<Query>)>,
}

impl Inputs {
    pub fn new(seed: u64) -> Self {
        let r = Reference::new();
        let mut rng = Rng::derive(seed, 3);
        let big = gen::monge(&mut rng, BIG_N, BIG_N);
        let big_queries = queries(&mut rng, &r, &big, BIG_RECTS);
        let smalls = (0..SMALLS)
            .map(|_| {
                let a = gen::monge(&mut rng, SMALL_N, SMALL_N);
                let q = queries(&mut rng, &r, &a, SMALL_QUERIES);
                (a, q)
            })
            .collect();
        Inputs {
            big,
            big_queries,
            smalls,
        }
    }
}

fn build(
    d: &Dispatcher<i64>,
    a: &Dense<i64>,
    lay: Option<&mut Layers>,
) -> Result<QueryIndex<i64>, String> {
    let (ix, tel) = d
        .build_index_guarded(&Problem::row_minima(a), &GuardPolicy::default())
        .map_err(|e| format!("index build failed: {e}"))?;
    if let Some(lay) = lay {
        lay.index.build_evals += tel.evaluations;
        lay.index.build_entries += (a.rows() * a.cols()) as u64;
    }
    Ok(ix)
}

fn ask(ix: &QueryIndex<i64>, q: &Query) -> Result<QueryAnswer<i64>, monge_core::guard::SolveError> {
    match q.objective {
        Objective::Minimize => ix.query_min(q.rows.clone(), q.cols.clone()),
        Objective::Maximize => ix.query_max(q.rows.clone(), q.cols.clone()),
    }
}

pub struct QueryServing<'a> {
    inputs: &'a Inputs,
    dispatcher: Option<Dispatcher<i64>>,
    big: Option<QueryIndex<i64>>,
    small: Option<QueryIndex<i64>>,
    /// Position in the request cycle: `QUERIES_PER_BUILD` big queries,
    /// one small build, `SMALL_QUERIES` small queries.
    step: usize,
    big_next: usize,
    small_next: usize,
}

impl<'a> QueryServing<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        QueryServing {
            inputs,
            dispatcher: None,
            big: None,
            small: None,
            step: 0,
            big_next: 0,
            small_next: 0,
        }
    }
}

impl Workload for QueryServing<'_> {
    fn slices(&self) -> usize {
        // Each set-up builds the n=4096 index (about 0.8 s).
        20
    }

    fn setup(&mut self, lay: &mut Layers) -> Result<(), String> {
        // Release the previous set-up's index first so peak memory
        // holds one big index, as a server would.
        if let Some(big) = self.big.take() {
            let (queries, probes) = big.take_counters();
            lay.index.queries += queries;
            lay.index.probes += probes;
        }
        let d = default_dispatcher();
        let t = Instant::now();
        let ix = build(&d, &self.inputs.big, Some(lay))?;
        lay.index.build_s.push(t.elapsed().as_secs_f64());
        lay.index.bytes = ix.bytes();
        self.big = Some(ix);
        self.dispatcher = Some(d);
        Ok(())
    }

    fn request(&mut self, tr: &mut Tracer, lay: &mut Layers) -> Result<Request, String> {
        let inputs = self.inputs;
        let cycle = QUERIES_PER_BUILD + 1 + SMALL_QUERIES;
        let step = self.step % cycle;
        self.step += 1;

        if step == QUERIES_PER_BUILD {
            self.harvest_small(lay);
            let d = self.dispatcher.as_ref().expect("set up before requests");
            let (a, _) = &inputs.smalls[self.small_next % inputs.smalls.len()];
            let tasks0 = task_count();
            let t = Instant::now();
            let traced = tr.enabled();
            let ix = tr.span("queryindex.build", || {
                build(d, a, traced.then_some(&mut *lay))
            })?;
            let latency = t.elapsed();
            if traced {
                lay.forked_since(tasks0);
            }
            self.small = Some(ix);
            return Ok(Request {
                latency,
                ops: 1,
                failed: 0,
            });
        }

        let (ix, q) = if step < QUERIES_PER_BUILD {
            let q = &inputs.big_queries[self.big_next % inputs.big_queries.len()];
            self.big_next += 1;
            (self.big.as_ref().expect("set up before requests"), q)
        } else {
            let (_, qs) = &inputs.smalls[self.small_next % inputs.smalls.len()];
            let q = &qs[(step - QUERIES_PER_BUILD - 1) % qs.len()];
            if step == cycle - 1 {
                self.small_next += 1;
            }
            (self.small.as_ref().expect("built before its queries"), q)
        };
        let t = Instant::now();
        let got = tr.span("queryindex.query", || ask(ix, q));
        let latency = t.elapsed();
        match got {
            Ok(ans) if ans == q.want => {}
            Ok(ans) => {
                return Err(format!(
                    "wrong answer: {:?} over rows {:?} cols {:?} gave {ans:?}, want {:?}",
                    q.objective, q.rows, q.cols, q.want
                ))
            }
            Err(e) => {
                return Err(format!(
                    "query over rows {:?} cols {:?} failed: {e}",
                    q.rows, q.cols
                ))
            }
        }
        Ok(Request {
            latency,
            ops: 1,
            failed: 0,
        })
    }

    fn finish(&mut self, lay: &mut Layers) {
        let big = self.big.as_ref().expect("set up before requests");
        let (queries, probes) = big.take_counters();
        lay.index.queries += queries;
        lay.index.probes += probes;
        self.harvest_small(lay);
    }
}

impl QueryServing<'_> {
    /// Folds the small index's query counters in before it is replaced.
    /// Set-up issues no queries, so over a traced run these counters
    /// cover traced and untraced requests alike; only their ratio is
    /// reported.
    fn harvest_small(&self, lay: &mut Layers) {
        if let Some(small) = &self.small {
            let (queries, probes) = small.take_counters();
            lay.index.queries += queries;
            lay.index.probes += probes;
        }
    }
}
