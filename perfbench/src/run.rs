//! The closed loop every workload runs under, and the per-layer
//! accumulator its traced phase fills.
//!
//! A run is a number of time slices ([`SLICES`], fewer where set-up is
//! long); each starts with a timed set-up of
//! a fresh program instance (the median is `setup_s`), which then
//! serves alone: one client thread issuing requests back to back, pinned
//! to one CPU. With tracing off the loop measures the end-to-end
//! metrics. With tracing on, every other request runs traced; the
//! traced requests give the per-layer metrics, and their median latency
//! over the untraced ones' gives the tracing overhead.

use crate::host;
use crate::report::Metric;
use crate::stats::{iq_mean, median, tail_percentile, TAIL_Q, TAIL_SAMPLES};
use crate::trace::Tracer;
use monge_core::problem::{ProblemKind, Telemetry, TuningProvenance};
use std::time::{Duration, Instant};

/// A phase that cannot reach its sample floor stops here regardless.
const HARD_CAP: Duration = Duration::from_secs(120);

/// Length of the time windows the timing metrics are medians over.
const WINDOW: Duration = Duration::from_millis(2500);

/// Empty `rayon::join`s timed for `runtime.fork_ns`.
const FORK_PROBES: usize = 256;

/// What one closed-loop request measured.
pub struct Request {
    /// Wall time of the request as a user sees it (one latency sample).
    /// Excludes the benchmark's answer checks; includes tracing when it
    /// is on.
    pub latency: Duration,
    /// Operations the request carried (solves, queries or builds).
    pub ops: u64,
    /// Operations that ended in a typed error.
    pub failed: u64,
}

/// Time slices per run, each served by a freshly set-up program
/// instance; `setup_s` is the median of their set-up times. A fresh
/// instance's autotuned engines set its speed (instances of one run
/// differ by up to 2×), so a run averages over many.
pub const SLICES: usize = 30;

pub trait Workload {
    /// Time slices per run; fewer for a workload whose set-up is long.
    fn slices(&self) -> usize {
        SLICES
    }

    /// The program's set-up: everything it pays for between process
    /// start and the first timed request. Input generation and the
    /// reference answers are the benchmark's own work and happen
    /// before, untimed.
    fn setup(&mut self, lay: &mut Layers) -> Result<(), String>;

    /// Issues one request, checks every answer outside the timed
    /// region, and returns what it measured. `Err` means a wrong
    /// answer (or a broken run) and ends the run without metrics.
    fn request(&mut self, tr: &mut Tracer, lay: &mut Layers) -> Result<Request, String>;

    /// Reads end-of-run counts (e.g. autotune measurements) after a
    /// traced run.
    fn finish(&mut self, _lay: &mut Layers) {}

    /// Readable lines about the decisions the program made (e.g. the
    /// autotuner's winners), printed with the run's notes.
    fn decisions(&mut self) -> Vec<String> {
        Vec::new()
    }
}

/// One line per autotune table entry: the key and the winner.
pub fn autotune_decisions(tuner: &monge_parallel::Autotuner) -> Vec<String> {
    let mut lines: Vec<String> = tuner
        .entries()
        .into_iter()
        .map(|(k, w)| {
            format!(
                "autotune {:?} structure={} size_class={} -> {} seq_scan={} seq_rows={} \
                 tube_seq_planes={} chunks_per_thread={} kernel={:?}",
                k.kind,
                k.structure,
                k.size_class,
                w.backend,
                w.tuning.seq_scan,
                w.tuning.seq_rows,
                w.tuning.tube_seq_planes,
                w.tuning.batch_chunks_per_thread,
                w.tuning.kernel
            )
        })
        .collect();
    lines.sort();
    lines
}

/// One side of a run's closed loop. The median latency and the
/// throughput are taken per time slice (one program instance each) and
/// reported as interquartile means over slices. The p95 is taken per
/// window of at least [`WINDOW`] and [`TAIL_SAMPLES`] latencies, so it
/// keeps its tail, and reported as the interquartile mean over windows. A closed slice or window is
/// summarized and its samples dropped, so memory stays flat however
/// many requests a run makes.
struct Phase {
    /// Latencies (ms) of the open slice and the open window, one per
    /// request.
    slice: Vec<f64>,
    slice_busy_s: f64,
    slice_ops: u64,
    window: Vec<f64>,
    window_start: Instant,
    /// The last closed window's latencies, sorted: a trailing window too
    /// small for its own p95 is merged into it.
    closed: Vec<f64>,
    p50s: Vec<f64>,
    rates: Vec<f64>,
    p95s: Vec<f64>,
    requests: u64,
    ops: u64,
    failed: u64,
}

impl Phase {
    fn new() -> Self {
        Phase {
            slice: Vec::new(),
            slice_busy_s: 0.0,
            slice_ops: 0,
            window: Vec::new(),
            window_start: Instant::now(),
            closed: Vec::new(),
            p50s: Vec::new(),
            rates: Vec::new(),
            p95s: Vec::new(),
            requests: 0,
            ops: 0,
            failed: 0,
        }
    }

    /// Counts a request: one latency sample however many operations it
    /// carried (a `service_mixed` drain is one sample), so the tail rule
    /// counts independent samples.
    fn record(&mut self, r: &Request) -> Result<(), String> {
        let ms = r.latency.as_secs_f64() * 1e3;
        self.slice.push(ms);
        self.window.push(ms);
        self.slice_busy_s += r.latency.as_secs_f64();
        self.slice_ops += r.ops;
        self.requests += 1;
        self.ops += r.ops;
        self.failed += r.failed;
        if self.window_start.elapsed() >= WINDOW && self.window.len() >= TAIL_SAMPLES {
            self.close_window()?;
        }
        Ok(())
    }

    fn end_slice(&mut self) {
        if !self.slice.is_empty() {
            self.p50s.push(median(&self.slice));
            self.rates.push(self.slice_ops as f64 / self.slice_busy_s);
        }
        self.slice.clear();
        self.slice_busy_s = 0.0;
        self.slice_ops = 0;
    }

    fn close_window(&mut self) -> Result<(), String> {
        self.window.sort_by(f64::total_cmp);
        self.p95s.push(tail_percentile(&self.window, TAIL_Q)?);
        std::mem::swap(&mut self.closed, &mut self.window);
        self.window.clear();
        self.window_start = Instant::now();
        Ok(())
    }

    /// Ends the last slice and closes the trailing window, merged into
    /// the one before if it is too small for a p95 of its own; a run must
    /// end with at least one window.
    fn finish(&mut self) -> Result<(), String> {
        self.end_slice();
        if self.window.len() < TAIL_SAMPLES && self.p95s.pop().is_some() {
            self.window.append(&mut self.closed);
        }
        if self.window.len() >= TAIL_SAMPLES {
            self.close_window()?;
        }
        if self.p95s.is_empty() {
            return Err(format!(
                "{} requests are too few for one window of {TAIL_SAMPLES}",
                self.requests
            ));
        }
        Ok(())
    }

    fn windows(&self) -> usize {
        self.p95s.len()
    }
}

/// The closed loop, in `w.slices()` equal time slices. Each slice
/// starts with a timed set-up of a fresh program instance (its time goes
/// to `setup`), which then serves alone until the slice ends. The
/// client thread is pinned to each CPU in turn, one per slice, so a run
/// samples every CPU equally instead of whichever one the scheduler
/// first picked.
///
/// Pinning also sets the program's parallelism to one: the pool sizes
/// itself from the thread's CPU mask, and every fork/join runs inline.
/// On a shared host with two vCPUs, letting the program fork over both
/// made a run's timings track the hypervisor's steal, which changes
/// from minute to minute and slowed forking runs by up to 2× (a
/// single-CPU run sees a fraction of it), so no two sets of runs
/// agreed. Fork/join overhead is still measured on its own, unpinned,
/// as `runtime.fork_ns`.
///
/// With `interleave`, odd requests run traced and even ones untraced,
/// so both sides sample the same stretch of time and the overhead
/// estimate is free of drift; `[0]` holds the untraced side. The last
/// slice goes on until every side has closed a window. Returns both
/// sides and the requests' CPU-over-wall ratio.
fn measure(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    lay: &mut Layers,
    seconds: f64,
    interleave: bool,
    setup: &mut Vec<f64>,
) -> Result<([Phase; 2], f64), String> {
    let slices = w.slices();
    let slice = Duration::from_secs_f64(seconds / slices as f64);
    let mut sides = [Phase::new(), Phase::new()];
    let used = if interleave { 2 } else { 1 };
    let all_cpus = host::cpus();
    let pin = all_cpus.len() > 1;
    let (mut cpu_s, mut wall_s) = (0.0, 0.0);
    let start = Instant::now();
    let mut k = 0usize;
    for slice_no in 0..slices {
        if pin {
            host::pin(&all_cpus[slice_no % all_cpus.len()..][..1])?;
        }
        let t = Instant::now();
        w.setup(lay)?;
        setup.push(t.elapsed().as_secs_f64());

        let last = slice_no + 1 == slices;
        let cpu0 = host::cpu_seconds();
        let slice_start = Instant::now();
        loop {
            let windowed = sides[..used].iter().all(|s| s.windows() > 0);
            if (slice_start.elapsed() >= slice && (!last || windowed))
                || start.elapsed() >= HARD_CAP
            {
                break;
            }
            let side = usize::from(interleave && k % 2 == 1);
            k += 1;
            tr.set_enabled(side == 1);
            // The root span: its self time is the benchmark's own share
            // (answer checks, input selection).
            tr.open("request");
            let r = w.request(tr, lay)?;
            tr.close();
            sides[side].record(&r)?;
            if side == 1 {
                lay.ops += r.ops;
            }
        }
        cpu_s += host::cpu_seconds() - cpu0;
        wall_s += slice_start.elapsed().as_secs_f64();
        for s in &mut sides[..used] {
            s.end_slice();
        }
    }
    tr.set_enabled(false);
    if pin {
        host::pin(&all_cpus)?;
    }
    for s in &mut sides[..used] {
        s.finish()?;
    }
    Ok((sides, cpu_s / wall_s))
}

/// The share of host CPU time the hypervisor stole since `since`: on a
/// shared VM it explains a run that is slow throughout. `steady` reads
/// this line.
fn steal_note(since: (u64, u64)) -> String {
    let (steal, total) = host::steal_ticks();
    let share = (steal - since.0) as f64 / (total - since.1).max(1) as f64;
    format!("{STEAL_NOTE}{share}")
}

/// Prefix of the note line that carries the run's steal share.
pub const STEAL_NOTE: &str = "host_steal_share = ";

/// Median nanoseconds of an empty fork/join on the default pool.
fn fork_ns() -> f64 {
    let samples: Vec<f64> = (0..FORK_PROBES)
        .map(|_| {
            let t = Instant::now();
            rayon::join(|| std::hint::black_box(0), || std::hint::black_box(1));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// The finished run: its totals and the metrics to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (sample counts, span table) printed before
    /// the result line.
    pub notes: Vec<String>,
}

pub fn run(w: &mut dyn Workload, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut lay = Layers::default();
    let mut setup = Vec::with_capacity(w.slices());
    let mut tr = Tracer::off();
    let steal0 = host::steal_ticks();
    if !trace {
        let ([ph, _], _) = measure(w, &mut tr, &mut lay, seconds, false, &mut setup)?;
        let setup_s = median(&setup);
        let mut notes = vec![
            steal_note(steal0),
            format!(
                "setup_s = {setup_s} s (median of {} set-ups: {setup:?})",
                setup.len()
            ),
        ];
        let metrics = vec![
            Metric::new("setup_s", setup_s, "s"),
            Metric::new("ops_per_s", iq_mean(&ph.rates), "1/s"),
            Metric::new("latency_p50_ms", iq_mean(&ph.p50s), "ms"),
            Metric::new("peak_rss_mb", host::peak_rss_mb()?, "MB"),
        ];
        notes.push(format!(
            "{} requests, {} ops; p50 and ops/s are interquartile means over {} slices",
            ph.requests,
            ph.ops,
            ph.p50s.len()
        ));
        // The tail is printed, not gated: on `solve_large` it tracks
        // the host's contention, which comes and goes between runs.
        notes.push(format!(
            "latency_p95_ms = {} ms (not gated): the interquartile mean over {} windows of >= {} s \
             and >= {TAIL_SAMPLES} latency samples (one per request), so each window's p95 leaves \
             >= 10 beyond it",
            iq_mean(&ph.p95s),
            ph.windows(),
            WINDOW.as_secs_f64()
        ));
        notes.push(format!("slice p50s (ms): {:?}", ph.p50s));
        notes.push(format!("slice ops/s: {:?}", ph.rates));
        notes.push(format!("window p95s (ms): {:?}", ph.p95s));
        notes.push(format!(
            "{} ops attempted, {} typed errors (error_rate = {})",
            ph.ops,
            ph.failed,
            ph.failed as f64 / ph.ops as f64
        ));
        notes.extend(w.decisions());
        return Ok(Outcome {
            attempted: ph.ops,
            failed: ph.failed,
            metrics,
            notes,
        });
    }

    let fork = fork_ns();
    let ([plain, traced], cpu_per_wall) = measure(w, &mut tr, &mut lay, seconds, true, &mut setup)?;
    w.finish(&mut lay);
    let mut notes = vec![
        steal_note(steal0),
        format!(
            "{} set-ups: {setup:?} s (not reported with tracing on)",
            setup.len()
        ),
    ];
    let (plain_p50, traced_p50) = (iq_mean(&plain.p50s), iq_mean(&traced.p50s));
    let overhead_pct = (traced_p50 / plain_p50 - 1.0) * 100.0;
    notes.push(format!(
        "untraced p50 {plain_p50} ms over {} requests; traced p50 {traced_p50} ms over {} requests",
        plain.requests,
        tr.requests()
    ));
    notes.push(format!(
        "{:<34} {:>10} {:>14} {:>14} {:>8}",
        "span", "count", "total_ms", "self_ms", "share"
    ));
    let whole = tr.total("request").total_ns.max(1) as f64;
    for (name, t) in tr.totals() {
        notes.push(format!(
            "{:<34} {:>10} {:>14.3} {:>14.3} {:>7.1}%",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / whole
        ));
    }
    let mut metrics = lay.metrics(&tr, fork, cpu_per_wall);
    metrics.push(Metric::new("trace.overhead_pct", overhead_pct, "%"));
    notes.extend(w.decisions());
    Ok(Outcome {
        attempted: plain.ops + traced.ops,
        failed: plain.failed + traced.failed,
        metrics,
        notes,
    })
}

/// Index-layer readings taken during set-up and the traced phase.
#[derive(Clone, Debug, Default)]
pub struct IndexLayer {
    /// Big-index build times, one per set-up.
    pub build_s: Vec<f64>,
    pub bytes: u64,
    pub build_evals: u64,
    pub build_entries: u64,
    pub queries: u64,
    pub probes: u64,
}

/// Counts read from the `Telemetry` each layer call returns, plus the
/// span timings the tracer holds. Everything a workload does not
/// exercise stays 0.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Operations of the traced requests.
    pub ops: u64,
    /// Fork/join tasks the traced requests spawned
    /// (`runtime::task_count` deltas around their timed region).
    pub tasks: u64,
    pub solves: u64,
    pub rayon_solves: u64,
    pub evaluations: u64,
    pub comparisons: u64,
    /// `search`-phase nanoseconds and solve counts per engine family:
    /// row minima/maxima, staircase, tube.
    pub search_ns: [u128; 3],
    pub search_solves: [u64; 3],
    pub guarded: u64,
    pub validate_ns: u128,
    pub attempts: u64,
    pub retries: u64,
    pub breaker_skips: u64,
    pub retried_ok: u64,
    pub typed_errors: u64,
    /// Solves whose tuning came through the autotuner (cached, measured
    /// or probed), and those of them served from its table.
    pub tuned: u64,
    pub cached: u64,
    /// Dispatcher-side nanoseconds of `solve_calibrated` calls (the
    /// call's wall time minus the backend call's, which the dispatcher
    /// stamps as `Telemetry::total_nanos`): autotune table consultation
    /// and routing.
    pub dispatch_ns: u128,
    pub dispatched: u64,
    pub measurements: u64,
    pub drains_probed: u64,
    pub groups: u64,
    pub index: IndexLayer,
}

impl Layers {
    /// Folds one solve's telemetry in.
    pub fn solve(&mut self, tel: &Telemetry) {
        self.solves += 1;
        if tel.backend == "rayon" {
            self.rayon_solves += 1;
        }
        self.evaluations += tel.evaluations;
        self.comparisons += tel.comparisons;
        let family = match tel.kind {
            Some(ProblemKind::StaircaseRowMinima) => Some(1),
            Some(ProblemKind::TubeMinima | ProblemKind::TubeMaxima) => Some(2),
            Some(_) => Some(0),
            None => None,
        };
        if let Some(f) = family {
            let search: u128 = tel
                .phases
                .iter()
                .filter(|p| p.name == "search")
                .map(|p| p.nanos)
                .sum();
            self.search_ns[f] += search;
            self.search_solves[f] += 1;
        }
        if let Some(g) = &tel.guard {
            self.guarded += 1;
            self.validate_ns += g.validation_nanos;
            self.attempts += g.attempts.len() as u64;
        }
        self.retries += tel.retries;
        self.breaker_skips += tel.breaker_skips;
        if tel.retries > 0 {
            self.retried_ok += 1;
        }
        match tel.provenance {
            Some(TuningProvenance::Cached) => {
                self.tuned += 1;
                self.cached += 1;
            }
            Some(TuningProvenance::Measured | TuningProvenance::Probed) => self.tuned += 1,
            Some(TuningProvenance::Default) | None => {}
        }
    }

    /// Folds in the dispatcher's own share of a `solve_calibrated` call
    /// whose wall time was `wall`.
    pub fn dispatched(&mut self, wall: Duration, tel: &Telemetry) {
        self.dispatch_ns += wall.as_nanos().saturating_sub(tel.total_nanos);
        self.dispatched += 1;
    }

    /// Adds the fork/join tasks spawned since `task_count()` read
    /// `since`.
    pub fn forked_since(&mut self, since: u64) {
        self.tasks += monge_parallel::runtime::task_count().saturating_sub(since);
    }

    /// The per-layer metrics, every one printed on every workload.
    pub fn metrics(&self, tr: &Tracer, fork_ns: f64, cpu_per_wall: f64) -> Vec<Metric> {
        let per = |x: f64, n: u64| if n == 0 { 0.0 } else { x / n as f64 };
        let ix = &self.index;
        let build_s = if ix.build_s.is_empty() {
            0.0
        } else {
            median(&ix.build_s)
        };
        vec![
            Metric::new("runtime.fork_ns", fork_ns, "ns"),
            Metric::new(
                "runtime.tasks_per_op",
                per(self.tasks as f64, self.ops),
                "count",
            ),
            Metric::new("runtime.cpu_per_wall", cpu_per_wall, "ratio"),
            Metric::new(
                "dispatch.overhead_ns",
                per(self.dispatch_ns as f64, self.dispatched),
                "ns",
            ),
            Metric::new(
                "dispatch.rayon_share",
                per(self.rayon_solves as f64, self.solves),
                "ratio",
            ),
            Metric::new(
                "autotune.hit_ratio",
                per(self.cached as f64, self.tuned),
                "ratio",
            ),
            Metric::new("autotune.measurements", self.measurements as f64, "count"),
            Metric::new(
                "guarded.validate_ns",
                per(self.validate_ns as f64, self.guarded),
                "ns",
            ),
            Metric::new(
                "guarded.attempts_per_op",
                per(self.attempts as f64, self.guarded),
                "count",
            ),
            Metric::new(
                "health.retries_per_op",
                per(self.retries as f64, self.solves + self.typed_errors),
                "count",
            ),
            Metric::new(
                "health.breaker_skips_per_op",
                per(self.breaker_skips as f64, self.solves + self.typed_errors),
                "count",
            ),
            Metric::new(
                "health.retry_success_ratio",
                per(self.retried_ok as f64, self.retried_ok + self.typed_errors),
                "ratio",
            ),
            Metric::new("batch.submit_ns", tr.mean_ns("batch.submit"), "ns"),
            Metric::new("batch.drain_ms", tr.mean_ns("batch.drain") / 1e6, "ms"),
            Metric::new(
                "batch.groups_per_drain",
                per(self.groups as f64, self.drains_probed),
                "count",
            ),
            Metric::new(
                "engine.rowmin.search_us",
                per(self.search_ns[0] as f64 / 1e3, self.search_solves[0]),
                "us",
            ),
            Metric::new(
                "engine.staircase.search_us",
                per(self.search_ns[1] as f64 / 1e3, self.search_solves[1]),
                "us",
            ),
            Metric::new(
                "engine.tube.search_us",
                per(self.search_ns[2] as f64 / 1e3, self.search_solves[2]),
                "us",
            ),
            Metric::new(
                "engine.evals_per_op",
                per(self.evaluations as f64, self.solves),
                "count",
            ),
            Metric::new(
                "engine.comparisons_per_op",
                per(self.comparisons as f64, self.solves),
                "count",
            ),
            Metric::new("queryindex.build_s", build_s, "s"),
            Metric::new(
                "queryindex.small_build_ms",
                tr.mean_ns("queryindex.build") / 1e6,
                "ms",
            ),
            Metric::new("queryindex.query_ns", tr.mean_ns("queryindex.query"), "ns"),
            Metric::new("queryindex.bytes", ix.bytes as f64, "bytes"),
            Metric::new(
                "queryindex.probes_per_query",
                per(ix.probes as f64, ix.queries),
                "count",
            ),
            Metric::new(
                "queryindex.build_evals_per_entry",
                per(ix.build_evals as f64, ix.build_entries),
                "ratio",
            ),
        ]
    }
}
