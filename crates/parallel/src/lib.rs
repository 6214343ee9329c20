//! # monge-parallel
//!
//! The paper's parallel array-searching algorithms on three engines:
//!
//! * **rayon** (`rayon_*` modules) — real multithreaded execution for
//!   wall-clock measurements: the work/span structure of the paper's
//!   divide-and-conquer algorithms mapped onto a work-stealing pool.
//! * **PRAM** (`pram_*` modules) — the §2 algorithms on the simulated
//!   CRCW/CREW machine of `monge-pram`, with per-step accounting that
//!   reproduces the Table 1.1/1.2/1.3 time–processor rows.
//! * **hypercube** (`hc_*` modules) — the §3 algorithms on the simulated
//!   network of `monge-hypercube`, in the distributed-input model of
//!   Lemma 3.1 (`v[i]`/`w[j]` in node-local memories, no global memory),
//!   priced on CCC and shuffle-exchange via the recorded dimension traces.
//!
//! All engines return exactly the same argmin/argmax vectors as the
//! sequential algorithms in `monge-core` (same leftmost tie-breaking),
//! which the cross-engine test suite enforces.
//!
//! Applications normally do not call the engines directly: the
//! [`dispatch`] module wraps every engine (including `monge-core`'s
//! sequential algorithms) behind one [`dispatch::Backend`] trait and a
//! [`dispatch::Dispatcher`] registry that selects an engine per
//! [`monge_core::problem::Problem`] and instruments each solve with a
//! [`monge_core::problem::Telemetry`].
//!
//! ```
//! use monge_core::array2d::Dense;
//! use monge_core::smawk::row_minima_monge;
//! use monge_parallel::{pram_monge::pram_row_minima_monge, MinPrimitive};
//!
//! let a = Dense::tabulate(64, 64, |i, j| {
//!     let d = i as i64 - j as i64;
//!     d * d // Monge
//! });
//! let seq = row_minima_monge(&a);
//! let sim = pram_row_minima_monge(&a, MinPrimitive::Constant);
//! assert_eq!(seq.index, sim.index);
//! // The paper's Table 1.1 CRCW row: O(lg n) parallel steps.
//! assert!(sim.metrics.steps <= 4 * 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ansv_par;
pub mod autotune;
pub mod batch;
pub mod dispatch;
pub mod guarded;
pub mod hc_monge;
pub mod hc_staircase;
pub mod hc_tube;
pub mod health;
pub mod pram_ansv;
pub mod pram_monge;
pub mod pram_staircase;
pub mod pram_tube;
pub mod queryindex;
pub mod rayon_monge;
pub mod rayon_staircase;
pub mod runtime;
pub mod tuning;
pub mod vector_array;

pub use autotune::{AutotuneKey, AutotuneMode, Autotuner, Winner};
pub use batch::{BatchPolicy, BatchReport, SolverService, SubmitError};
pub use dispatch::{
    Backend, Capabilities, Dispatcher, HypercubeBackend, PramBackend, RayonBackend,
    SequentialBackend,
};
pub use guarded::BruteForceBackend;
pub use health::{
    Admission, Clock, HealthConfig, HealthRegistry, MonotonicClock, Observation, VirtualClock,
};
pub use pram_monge::MinPrimitive;
pub use queryindex::QUERYINDEX;
pub use runtime::calibrate;
pub use tuning::Tuning;
pub use vector_array::VectorArray;
