//! The per-request solve context: the request's [`CancelToken`] (read
//! by [`crate::guard::checkpoint`]), its slice-scan [`Kernel`] (read by
//! [`crate::kernel`]) and three work tallies — comparisons
//! ([`crate::eval`]), forked tasks (`monge_parallel::runtime`) and
//! scratch checkouts ([`crate::scratch`]) — held per thread.
//!
//! A request installs its context with [`scope`]; the fork primitives
//! of `monge_parallel::runtime` run each child under [`fork`] and [`add`]
//! its tallies back to the caller. No solve sees another's deadline,
//! kernel or counts, and counting touches no shared cache line.
//!
//! ```
//! use monge_core::ctx;
//! use monge_core::guard::CancelToken;
//! use monge_core::kernel::{self, Kernel};
//!
//! let ((), counts) = ctx::scope(Some(CancelToken::new()), Kernel::Scalar, || {
//!     assert_eq!(kernel::selected(), Kernel::Scalar);
//!     monge_core::eval::add_comparisons(3);
//! });
//! assert_eq!(counts.comparisons, 3);
//! ```

use crate::guard::CancelToken;
use crate::kernel::Kernel;
use std::cell::{Cell, RefCell};

/// Work tallies of one solve context.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Value comparisons made by the slice scans and SMAWK.
    pub comparisons: u64,
    /// Tasks forked (two per join, one per parallel-map item).
    pub tasks: u64,
    /// Scratch-arena checkouts.
    pub checkouts: u64,
}

impl std::ops::Add for Counts {
    type Output = Counts;

    fn add(self, o: Counts) -> Counts {
        Counts {
            comparisons: self.comparisons + o.comparisons,
            tasks: self.tasks + o.tasks,
            checkouts: self.checkouts + o.checkouts,
        }
    }
}

/// Read on every scan and checkpoint, so drop-free (no lazy destructor
/// check per access); the token is read only while `armed`.
struct Hot {
    armed: Cell<bool>,
    /// `None` until seeded from `MONGE_KERNEL` on first read.
    kernel: Cell<Option<Kernel>>,
    counts: Cell<Counts>,
}

thread_local! {
    static HOT: Hot = const {
        Hot {
            armed: Cell::new(false),
            kernel: Cell::new(None),
            counts: Cell::new(Counts { comparisons: 0, tasks: 0, checkouts: 0 }),
        }
    };
    static TOKEN: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// The saved enclosing context, restored on drop (unwinds included).
struct Frame {
    cancel: Option<CancelToken>,
    kernel: Option<Kernel>,
    counts: Counts,
    fold: bool,
}

impl Drop for Frame {
    fn drop(&mut self) {
        HOT.with(|h| {
            let inner = h.counts.replace(self.counts);
            if self.fold {
                h.counts.set(self.counts + inner);
            }
            h.kernel.set(self.kernel);
            h.armed.set(self.cancel.is_some());
        });
        let _ = TOKEN.try_with(|t| t.replace(self.cancel.take()));
    }
}

#[inline]
fn enter<R>(
    cancel: Option<CancelToken>,
    kernel: Kernel,
    fold: bool,
    f: impl FnOnce() -> R,
) -> (R, Counts) {
    let frame = HOT.with(|h| {
        h.armed.set(cancel.is_some());
        Frame {
            cancel: TOKEN.with(|t| t.replace(cancel)),
            kernel: h.kernel.replace(Some(kernel)),
            counts: h.counts.take(),
            fold,
        }
    });
    let r = f();
    let counts = HOT.with(|h| h.counts.get());
    drop(frame);
    (r, counts)
}

/// Runs one request's work in a fresh context carrying `cancel` (`None`
/// keeps the enclosing token) and `kernel`, and returns its tallies. On
/// exit, unwinds included, the enclosing context is restored and the
/// tallies are added to it.
#[inline]
pub fn scope<R>(cancel: Option<CancelToken>, kernel: Kernel, f: impl FnOnce() -> R) -> (R, Counts) {
    let cancel = cancel.or_else(self::cancel);
    enter(cancel, kernel, true, f)
}

/// Like [`scope`], but installs exactly `cancel` and does not fold the
/// tallies into the displaced context (on a worker thread that belongs
/// to someone else): the forking caller [`add`]s them after the join.
#[inline]
pub fn fork<R>(cancel: Option<CancelToken>, kernel: Kernel, f: impl FnOnce() -> R) -> (R, Counts) {
    enter(cancel, kernel, false, f)
}

/// Adds `n` to the calling thread's current context.
#[inline]
pub fn add(n: Counts) {
    HOT.with(|h| h.counts.set(h.counts.get() + n));
}

/// The calling thread's tallies since its innermost open [`scope`]
/// began (or since the thread started).
pub fn counts() -> Counts {
    HOT.with(|h| h.counts.get())
}

/// The calling thread's installed cancellation token, if any.
pub fn cancel() -> Option<CancelToken> {
    TOKEN.with(|t| t.borrow().clone())
}

/// Has the calling thread's installed token fired? `false` without one.
#[inline]
pub(crate) fn cancelled() -> bool {
    #[cold]
    fn fired() -> bool {
        TOKEN.with(|t| t.borrow().as_ref().is_some_and(CancelToken::is_cancelled))
    }
    HOT.with(|h| h.armed.get()) && fired()
}

/// The calling thread's kernel selection (default [`Kernel::Auto`]).
#[inline]
pub(crate) fn kernel() -> Kernel {
    HOT.with(|h| {
        h.kernel.get().unwrap_or_else(|| {
            let k = Kernel::from_env().unwrap_or_default();
            h.kernel.set(Some(k));
            k
        })
    })
}

/// Replaces the calling thread's kernel selection, returning the old one.
pub(crate) fn replace_kernel(k: Kernel) -> Kernel {
    let prev = kernel();
    HOT.with(|h| h.kernel.set(Some(k)));
    prev
}

#[cfg(test)]
mod tests {
    use super::*;

    fn comparisons(n: u64) -> Counts {
        Counts {
            comparisons: n,
            ..Counts::default()
        }
    }

    #[test]
    fn scope_folds_into_the_enclosing_context() {
        let before = counts();
        let ((), outer) = scope(None, Kernel::Auto, || {
            add(comparisons(1));
            let ((), inner) = scope(None, Kernel::Auto, || add(comparisons(2)));
            assert_eq!(inner, comparisons(2));
        });
        assert_eq!(outer, comparisons(3));
        assert_eq!(counts(), before + comparisons(3));
    }

    #[test]
    fn fork_does_not_fold() {
        let before = counts();
        let ((), c) = fork(None, Kernel::Auto, || add(comparisons(5)));
        assert_eq!(c, comparisons(5));
        assert_eq!(counts(), before);
    }

    #[test]
    fn scope_restores_token_and_kernel_on_unwind() {
        let outer = CancelToken::new();
        scope(Some(outer.clone()), Kernel::Scalar, || {
            let r = std::panic::catch_unwind(|| {
                scope(Some(CancelToken::new()), Kernel::Simd, || {
                    add(comparisons(7));
                    panic!("engine blew up");
                })
            });
            assert!(r.is_err());
            assert_eq!(kernel(), Kernel::Scalar);
            assert!(cancel().is_some_and(|t| {
                outer.cancel();
                t.is_cancelled()
            }));
            assert_eq!(counts(), comparisons(7), "unwinds still fold");
        });
    }

    #[test]
    fn scope_without_a_token_inherits_the_enclosing_one() {
        let t = CancelToken::new();
        t.cancel();
        scope(Some(t), Kernel::Auto, || {
            scope(None, Kernel::Auto, || assert!(cancelled()));
            fork(None, Kernel::Auto, || assert!(!cancelled()));
        });
        assert!(!cancelled());
    }
}
