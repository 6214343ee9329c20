//! Tube maxima / minima of Monge-composite arrays.
//!
//! A `p × q × r` array `C = {c[i,j,k]}` is Monge-composite when
//! `c[i,j,k] = d[i,j] + e[j,k]` for Monge arrays `D` (`p × q`) and `E`
//! (`q × r`) (§1.1). Following the applications in [AP89a, AALM88] (string
//! editing, Huffman codes), the *tube* over the pair `(i, k)` varies the
//! **middle** coordinate `j`:
//!
//! ```text
//! tube-max(i, k) = max_j  d[i,j] + e[j,k]
//! ```
//!
//! i.e. tube maxima is the `(max,+)` matrix product `D ⊗ E`, and tube
//! minima the `(min,+)` product — exactly the DIST-matrix combination step
//! of the grid-DAG string-editing algorithm.
//!
//! (The extended abstract's §1.2 literally defines the `(i,j)` tube as
//! varying the third coordinate, under which the problem degenerates to
//! `d[i,j] + max_k e[j,k]`; that variant is provided as
//! [`tube_maxima_literal`] for completeness. See DESIGN.md §3.)
//!
//! Key structural facts: for fixed `i`, the *plane*
//! `F_i[k][j] = d[i,j] + e[j,k]` is a Monge array in `(k, j)`, so one
//! plane's row optima take `Θ(q + r)` time by SMAWK; and the optimal
//! middle coordinate `j*(i,k)` is monotone in **both** `i` and `k`
//! (the 3-d monotone-array structure of Cheng–Sun–Yin), which is what
//! the host engine exploits. [`tube_minima`], [`tube_maxima`] and
//! [`tube_maxima_inverse`] share one sweep: it materializes `Eᵀ` once,
//! solves the last plane by SMAWK and walks the planes upward, each
//! `(i, k)` scanning only the window between `j*(i,k-1)` and
//! `j*(i+1,k)`. The windows telescope along diagonals, giving
//! `O(pq + qr + pr)` time with one evaluation per factor entry.
//!
//! The window bounds need finite optima: an all-`∞` tube takes index 0
//! whatever its neighbours do, which breaks the monotonicity on the
//! `∞`-padded DIST matrices of string editing. A plane holding an
//! infinite factor entry, and the plane above it, are solved by SMAWK
//! on their own instead, as a per-plane engine would; with an infinite
//! entry in `E` that is every plane, at `O(p(q + r))`.

use crate::array2d::Array2d;
use crate::smawk::row_maxima_monge;
use crate::value::Value;
use std::ops::Range;

/// A Monge-composite array `c[i,j,k] = d[i,j] + e[j,k]`.
#[derive(Clone, Debug)]
pub struct MongeComposite<T, A, B> {
    /// The `p × q` left factor.
    pub d: A,
    /// The `q × r` right factor.
    pub e: B,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Value, A: Array2d<T>, B: Array2d<T>> MongeComposite<T, A, B> {
    /// Wraps two factors; their inner dimensions must agree.
    pub fn new(d: A, e: B) -> Self {
        assert_eq!(
            d.cols(),
            e.rows(),
            "inner dimensions disagree: D is {}x{}, E is {}x{}",
            d.rows(),
            d.cols(),
            e.rows(),
            e.cols()
        );
        Self {
            d,
            e,
            _marker: std::marker::PhantomData,
        }
    }

    /// `p`, the first dimension.
    pub fn p(&self) -> usize {
        self.d.rows()
    }
    /// `q`, the middle dimension.
    pub fn q(&self) -> usize {
        self.d.cols()
    }
    /// `r`, the third dimension.
    pub fn r(&self) -> usize {
        self.e.cols()
    }

    /// The entry `c[i,j,k] = d[i,j] + e[j,k]`.
    #[inline]
    pub fn entry(&self, i: usize, j: usize, k: usize) -> T {
        self.d.entry(i, j).add(self.e.entry(j, k))
    }
}

/// Results of a tube search: for every `(i, k)` the optimizing middle
/// coordinate `j` and the optimal value.
#[derive(Clone, Debug, PartialEq)]
pub struct TubeExtrema<T> {
    /// First dimension `p`.
    pub p: usize,
    /// Third dimension `r`.
    pub r: usize,
    /// Row-major `p × r` argopt array (middle coordinate `j`).
    pub index: Vec<usize>,
    /// Row-major `p × r` optimal values.
    pub value: Vec<T>,
}

impl<T: Value> TubeExtrema<T> {
    /// The optimizing `j` for the tube `(i, k)`.
    #[inline]
    pub fn arg(&self, i: usize, k: usize) -> usize {
        self.index[i * self.r + k]
    }
    /// The optimal value of the tube `(i, k)`.
    #[inline]
    pub fn val(&self, i: usize, k: usize) -> T {
        self.value[i * self.r + k]
    }
}

/// The Monge plane `F_i[k][j] = d[i,j] + e[j,k]` for a fixed `i`.
///
/// A named array type (rather than a closure) so that `fill_row` can
/// batch: the `d` terms of a plane row are a contiguous slice of row `i`
/// of `D`, fetched with one [`Array2d::fill_row`] call, and only the `e`
/// terms need per-element evaluation.
#[derive(Clone, Debug)]
pub struct Plane<'a, T, A, B> {
    d: &'a A,
    e: &'a B,
    i: usize,
    _marker: std::marker::PhantomData<T>,
}

impl<'a, T: Value, A: Array2d<T>, B: Array2d<T>> Array2d<T> for Plane<'a, T, A, B> {
    fn rows(&self) -> usize {
        self.e.cols()
    }
    fn cols(&self) -> usize {
        self.d.cols()
    }
    #[inline]
    fn entry(&self, k: usize, j: usize) -> T {
        self.d.entry(self.i, j).add(self.e.entry(j, k))
    }
    fn fill_row(&self, k: usize, cols: Range<usize>, out: &mut [T]) {
        // `out` doubles as the buffer for the d-row slice; the e column
        // is folded in place, so no temporary allocation is needed.
        self.d.fill_row(self.i, cols.clone(), out);
        for (slot, j) in out.iter_mut().zip(cols) {
            *slot = slot.add(self.e.entry(j, k));
        }
    }
    fn prefers_streaming(&self) -> bool {
        // Every plane row is computed (d-row slice + folded e column),
        // so wide tube scans stream regardless of how D is stored.
        true
    }
}

/// Builds the plane `F_i` of the composite `c[i,j,k] = d[i,j] + e[j,k]`.
pub fn plane<'a, T: Value, A: Array2d<T>, B: Array2d<T>>(
    d: &'a A,
    e: &'a B,
    i: usize,
) -> Plane<'a, T, A, B> {
    Plane {
        d,
        e,
        i,
        _marker: std::marker::PhantomData,
    }
}

/// Which extremum a tube search takes, and over which factor class.
///
/// The choice fixes two things: the SMAWK reduction that solves a seed
/// plane, and the direction the sweep's windows move in. On finite
/// factors the leftmost optimal middle coordinate `j*(i,k)` is monotone
/// in **both** `i` and `k` (the 3-d monotone-array structure of
/// Cheng–Sun–Yin): non-decreasing for minima over Monge factors and for
/// maxima over inverse-Monge factors, non-increasing for maxima over
/// Monge factors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TubeSearch {
    /// Minima over Monge factors.
    Min,
    /// Maxima over Monge factors.
    Max,
    /// Maxima over inverse-Monge factors.
    MaxInverse,
}

/// Rows of `E` read per transposition tile: each tile is written to
/// `Eᵀ` as `r` contiguous runs of this many entries.
const TILE: usize = 16;

/// Grows a scratch buffer to at least `n` elements and hands out its
/// first `n` (stale contents: every caller overwrites them).
fn prefix<T: Value>(buf: &mut Vec<T>, n: usize) -> &mut [T] {
    if buf.len() < n {
        buf.resize(n, T::ZERO);
    }
    &mut buf[..n]
}

/// `Eᵀ` materialized once: row `k` holds column `k` of `E`, all `q`
/// middle coordinates contiguous.
///
/// Rows sit an odd number of 64-byte cache lines apart. The sweep reads
/// one entry per row while walking down the rows, and with an unpadded
/// power-of-two `q` those reads would all map to a handful of cache
/// sets and miss on every access.
#[derive(Clone, Copy)]
struct Transposed<'a, T> {
    data: &'a [T],
    q: usize,
    stride: usize,
    /// Whether every entry of `E` is finite.
    finite: bool,
}

impl<'a, T> Transposed<'a, T> {
    /// Number of rows, `r`.
    fn rows(&self) -> usize {
        self.data.len() / self.stride
    }

    /// Row `k`: `e[0..q, k]`.
    #[inline]
    fn row(&self, k: usize) -> &'a [T] {
        &self.data[k * self.stride..][..self.q]
    }
}

/// The padded row stride of [`Transposed`]: at least `q` entries, an
/// odd number of cache lines.
fn stride_for<T>(q: usize) -> usize {
    let per_line = (64 / std::mem::size_of::<T>().max(1)).max(1);
    (q.div_ceil(per_line) | 1) * per_line
}

/// Runs `f` on `Eᵀ` (see [`Transposed`]), materialized in a scratch
/// buffer. Every entry of `e` is read exactly once, a tile of 16 rows
/// per batch of [`Array2d::fill_row`] calls.
fn with_transposed<T: Value, B: Array2d<T>, R>(e: &B, f: impl FnOnce(Transposed<'_, T>) -> R) -> R {
    let (q, r) = (e.rows(), e.cols());
    let stride = stride_for::<T>(q);
    crate::scratch::with_scratch2(|et: &mut Vec<T>, tile: &mut Vec<T>| {
        let et = prefix(et, r * stride);
        let tile = prefix(tile, TILE * r);
        let mut finite = true;
        for j0 in (0..q).step_by(TILE) {
            let h = TILE.min(q - j0);
            for (b, row) in tile.chunks_exact_mut(r.max(1)).take(h).enumerate() {
                e.fill_row(j0 + b, 0..r, row);
                finite &= !row.iter().any(|v| v.is_infinite());
            }
            for (k, run) in et.chunks_exact_mut(stride).enumerate() {
                for (b, slot) in run[j0..j0 + h].iter_mut().enumerate() {
                    *slot = tile[b * r + k];
                }
            }
        }
        f(Transposed {
            data: et,
            q,
            stride,
            finite,
        })
    })
}

/// One plane over materialized rows: `F[k][j] = d_row[j] + eᵀ[k][j]`.
/// What a seed plane's SMAWK runs on, so it reads no factor entry.
struct RowPlane<'a, T> {
    d_row: &'a [T],
    et: Transposed<'a, T>,
}

impl<T: Value> Array2d<T> for RowPlane<'_, T> {
    fn rows(&self) -> usize {
        self.et.rows()
    }
    fn cols(&self) -> usize {
        self.d_row.len()
    }
    #[inline]
    fn entry(&self, k: usize, j: usize) -> T {
        self.d_row[j].add(self.et.row(k)[j])
    }
    fn fill_row(&self, k: usize, cols: Range<usize>, out: &mut [T]) {
        let e_row = &self.et.row(k)[cols.clone()];
        for ((slot, &dv), &ev) in out.iter_mut().zip(&self.d_row[cols]).zip(e_row) {
            *slot = dv.add(ev);
        }
    }
}

/// The host tube engine: `Eᵀ` materialized once, then one sweep up the
/// `p` planes. Every entry of `D` and `E` is evaluated exactly once, and
/// the only heap allocations in steady state are the two `p × r`
/// outputs.
///
/// The last plane is solved by SMAWK over slices. Each plane above it
/// is swept from the plane below: its optimum for column `k` lies
/// between `j*(i,k-1)` and `j*(i+1,k)` (which end is which depends on
/// `search`), one contiguous scan of `d_row[j] + eᵀ_row_k[j]`. Along
/// each diagonal `k - i` the windows telescope, so the sweep costs
/// `O(pq + qr + pr)`. Ties take the smallest `j`.
///
/// The window bounds hold only between finite optima. An all-`∞` tube
/// takes index 0 whatever the optima beside it, so the staircase and
/// triangular `∞` patterns of DIST matrices break the monotonicity. A
/// plane that holds an infinite factor entry, and the plane above it,
/// are therefore solved by SMAWK on their own, exactly as a per-plane
/// engine would solve them; if `E` holds one, every plane is.
fn tube_sweep<T: Value, A: Array2d<T>, B: Array2d<T>>(
    d: &A,
    e: &B,
    search: TubeSearch,
) -> TubeExtrema<T> {
    assert_eq!(d.cols(), e.rows(), "inner dimensions disagree");
    let (p, q, r) = (d.rows(), d.cols(), e.cols());
    assert!(q > 0, "tube over an empty middle dimension is undefined");
    let mut index = vec![0usize; p * r];
    let mut value = vec![T::ZERO; p * r];
    if p > 0 && r > 0 {
        with_transposed(e, |et| match search {
            TubeSearch::Min => sweep(d, et, search, &mut index, &mut value, |v, b| v.total_lt(b)),
            TubeSearch::Max | TubeSearch::MaxInverse => {
                sweep(d, et, search, &mut index, &mut value, |v, b| b.total_lt(v))
            }
        });
    }
    TubeExtrema { p, r, index, value }
}

fn sweep<T: Value, A: Array2d<T>>(
    d: &A,
    et: Transposed<'_, T>,
    search: TubeSearch,
    index: &mut [usize],
    value: &mut [T],
    better: impl Fn(T, T) -> bool,
) {
    let (q, r) = (d.cols(), et.rows());
    crate::scratch::with_scratch(|buf: &mut Vec<T>| {
        let d_row = prefix(buf, q);
        // The plane below, while its optima may bound this plane's.
        let mut below: Option<&[usize]> = None;
        let mut comparisons = 0u64;
        let planes = index.chunks_exact_mut(r).zip(value.chunks_exact_mut(r));
        for (i, (cur, vals)) in planes.enumerate().rev() {
            crate::guard::checkpoint();
            d.fill_row(i, 0..q, d_row);
            let finite = et.finite && !d_row.iter().any(|v| v.is_infinite());
            match below.filter(|_| finite) {
                Some(below) => {
                    comparisons += sweep_plane(d_row, et, search, below, cur, vals, &better)
                }
                None => seed_plane(d_row, et, search, cur, vals),
            }
            let cur: &[usize] = cur;
            below = finite.then_some(cur);
        }
        crate::eval::add_comparisons(comparisons);
    });
}

/// Solves one plane on its own by SMAWK over slices.
#[inline(never)]
fn seed_plane<T: Value>(
    d_row: &[T],
    et: Transposed<'_, T>,
    search: TubeSearch,
    index: &mut [usize],
    value: &mut [T],
) {
    let pl = RowPlane { d_row, et };
    match search {
        TubeSearch::Min => crate::smawk::row_minima_monge_into(&pl, index),
        TubeSearch::Max => crate::smawk::row_maxima_monge_into(&pl, index),
        TubeSearch::MaxInverse => crate::smawk::row_maxima_inverse_monge_into(&pl, index),
    }
    for (k, (&j, v)) in index.iter().zip(value).enumerate() {
        *v = pl.entry(k, j);
    }
}

/// Solves one plane from the optima `below` of the plane under it,
/// returning the comparisons made. Minima over Monge and maxima over
/// inverse-Monge factors scan `[j*(i,k-1), j*(i+1,k)]`; maxima over
/// Monge factors scan `[j*(i+1,k), j*(i,k-1)]`.
fn sweep_plane<T: Value>(
    d_row: &[T],
    et: Transposed<'_, T>,
    search: TubeSearch,
    below: &[usize],
    index: &mut [usize],
    value: &mut [T],
    better: impl Fn(T, T) -> bool,
) -> u64 {
    let rising = search != TubeSearch::Max;
    let mut comparisons = 0u64;
    let mut prev = if rising { 0 } else { d_row.len() - 1 };
    let cols = index.iter_mut().zip(value.iter_mut()).zip(below);
    for (k, ((slot, val), &b)) in cols.enumerate() {
        // The window runs from `b`, the plane below's optimum, toward
        // `prev`, this plane's optimum one column back. Starting at `b`
        // keeps each column's first loads independent of the previous
        // column's result, so consecutive columns overlap in the
        // pipeline. Clamping keeps the window non-empty on inputs that
        // break the promised monotonicity.
        let e_row = et.row(k);
        let (mut best, mut best_v) = (b, d_row[b].add(e_row[b]));
        let (lo, hi) = if rising {
            (prev.min(b), b)
        } else {
            (b, prev.max(b))
        };
        if rising {
            // Right to left, so ties move the optimum left.
            let run = d_row[lo..b].iter().zip(&e_row[lo..b]);
            for (j, (&dv, &ev)) in run.enumerate().rev() {
                let v = dv.add(ev);
                if !better(best_v, v) {
                    best = lo + j;
                    best_v = v;
                }
            }
        } else {
            let run = d_row[b + 1..=hi].iter().zip(&e_row[b + 1..=hi]);
            for (j, (&dv, &ev)) in run.enumerate() {
                let v = dv.add(ev);
                if better(v, best_v) {
                    best = b + 1 + j;
                    best_v = v;
                }
            }
        }
        comparisons += (hi - lo) as u64;
        *slot = best;
        *val = best_v;
        prev = best;
    }
    comparisons
}

/// Tube maxima (`(max,+)` product) of Monge factors by the doubly
/// monotone sweep (see the module docs), `O(pq + qr + pr)`. Ties take the
/// smallest `j`, matching the paper's "minimum third coordinate"
/// convention transported to the middle coordinate.
pub fn tube_maxima<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    tube_sweep(d, e, TubeSearch::Max)
}

/// Tube minima (`(min,+)` product) of Monge factors by the doubly
/// monotone sweep (see the module docs), `O(pq + qr + pr)`.
///
/// ```
/// use monge_core::array2d::Dense;
/// use monge_core::tube::{tube_minima, tube_minima_brute};
///
/// // Two small Monge factors; the tube minima are the (min,+) product.
/// let d = Dense::tabulate(3, 4, |i, j| -((i * j) as i64));
/// let e = Dense::tabulate(4, 3, |j, k| (j as i64 - k as i64).pow(2));
/// let fast = tube_minima(&d, &e);
/// assert_eq!(fast, tube_minima_brute(&d, &e));
/// assert_eq!(fast.val(2, 1), (0..4).map(|j| d.entry(2, j) + e.entry(j, 1)).min().unwrap());
/// # use monge_core::Array2d;
/// ```
pub fn tube_minima<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    tube_sweep(d, e, TubeSearch::Min)
}

/// Tube maxima of a composite of **inverse-Monge** factors. Every plane
/// `F_i[k][j] = d[i,j] + e[j,k]` is inverse-Monge (the `d` terms cancel
/// out of every quadrangle), so seed planes use
/// [`crate::smawk::row_maxima_inverse_monge`]; the leftmost argmax is
/// non-decreasing in `i` and `k`, so the sweep's windows are those of
/// minima. `O(pq + qr + pr)`.
pub fn tube_maxima_inverse<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    tube_sweep(d, e, TubeSearch::MaxInverse)
}

/// Brute-force tube maxima oracle, `O(p q r)`.
pub fn tube_maxima_brute<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    tube_brute(d, e, |cand, best| best.total_lt(cand))
}

/// Brute-force tube minima oracle, `O(p q r)`.
pub fn tube_minima_brute<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    tube_brute(d, e, |cand, best| cand.total_lt(best))
}

fn tube_brute<T: Value, A: Array2d<T>, B: Array2d<T>>(
    d: &A,
    e: &B,
    better: impl Fn(T, T) -> bool,
) -> TubeExtrema<T> {
    assert_eq!(d.cols(), e.rows(), "inner dimensions disagree");
    let (p, q, r) = (d.rows(), d.cols(), e.cols());
    assert!(q > 0);
    let mut index = Vec::with_capacity(p * r);
    let mut value = Vec::with_capacity(p * r);
    for i in 0..p {
        for k in 0..r {
            let mut best = 0usize;
            let mut best_v = d.entry(i, 0).add(e.entry(0, k));
            for j in 1..q {
                let v = d.entry(i, j).add(e.entry(j, k));
                if better(v, best_v) {
                    best = j;
                    best_v = v;
                }
            }
            index.push(best);
            value.push(best_v);
        }
    }
    TubeExtrema { p, r, index, value }
}

/// The extended abstract's literal tube definition: for each `(i, j)`,
/// optimize over the **third** coordinate `k`. Because
/// `c[i,j,k] = d[i,j] + e[j,k]`, this decomposes as
/// `d[i,j] + max_k e[j,k]`: one row-maxima computation on `E` answers all
/// `p × q` tubes. Ties take the minimum third coordinate (leftmost).
pub fn tube_maxima_literal<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> TubeExtrema<T> {
    assert_eq!(d.cols(), e.rows(), "inner dimensions disagree");
    let (p, q) = (d.rows(), d.cols());
    assert!(e.cols() > 0);
    let emax = row_maxima_monge(e);
    let mut index = Vec::with_capacity(p * q);
    let mut value = Vec::with_capacity(p * q);
    for i in 0..p {
        for j in 0..q {
            index.push(emax.index[j]);
            value.push(d.entry(i, j).add(emax.value[j]));
        }
    }
    TubeExtrema {
        p,
        r: q,
        index,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array2d::Dense;
    use crate::generators::random_monge_dense;
    use crate::monge::is_monge;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn planes_are_monge() {
        let mut rng = StdRng::seed_from_u64(20);
        let d = random_monge_dense(6, 8, &mut rng);
        let e = random_monge_dense(8, 5, &mut rng);
        for i in 0..6 {
            assert!(is_monge(&plane(&d, &e, i)), "plane {i} not Monge");
        }
    }

    /// Shapes for the random-factor tests, including every way for `p`,
    /// `q` or `r` to be 1.
    const SHAPES: [(usize, usize, usize); 10] = [
        (1, 1, 1),
        (4, 7, 3),
        (9, 5, 9),
        (16, 16, 16),
        (30, 5, 3),
        (3, 40, 20),
        (1, 6, 5),
        (6, 1, 5),
        (6, 5, 1),
        (1, 1, 7),
    ];

    #[test]
    fn tube_maxima_matches_brute() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(p, q, r) in &SHAPES {
            let d = random_monge_dense(p, q, &mut rng);
            let e = random_monge_dense(q, r, &mut rng);
            assert_eq!(
                tube_maxima(&d, &e),
                tube_maxima_brute(&d, &e),
                "{p}x{q}x{r}"
            );
            let (nd, ne) = (negated(&d), negated(&e));
            assert_eq!(
                tube_maxima_inverse(&nd, &ne),
                tube_maxima_brute(&nd, &ne),
                "inverse {p}x{q}x{r}"
            );
        }
    }

    #[test]
    fn tube_minima_matches_brute() {
        let mut rng = StdRng::seed_from_u64(22);
        for &(p, q, r) in &SHAPES {
            let d = random_monge_dense(p, q, &mut rng);
            let e = random_monge_dense(q, r, &mut rng);
            assert_eq!(
                tube_minima(&d, &e),
                tube_minima_brute(&d, &e),
                "{p}x{q}x{r}"
            );
        }
    }

    #[test]
    fn composite_entry_is_sum() {
        let mut rng = StdRng::seed_from_u64(23);
        let d = random_monge_dense(3, 4, &mut rng);
        let e = random_monge_dense(4, 5, &mut rng);
        let c = MongeComposite::new(&d, &e);
        assert_eq!(c.p(), 3);
        assert_eq!(c.q(), 4);
        assert_eq!(c.r(), 5);
        assert_eq!(c.entry(2, 1, 3), d.entry(2, 1) + e.entry(1, 3));
    }

    #[test]
    fn literal_tubes_decompose() {
        let mut rng = StdRng::seed_from_u64(24);
        let d = random_monge_dense(4, 5, &mut rng);
        let e = random_monge_dense(5, 6, &mut rng);
        let lit = tube_maxima_literal(&d, &e);
        for i in 0..4 {
            for j in 0..5 {
                let mut best = 0;
                let mut best_v = e.entry(j, 0);
                for k in 1..6 {
                    if best_v < e.entry(j, k) {
                        best = k;
                        best_v = e.entry(j, k);
                    }
                }
                assert_eq!(lit.arg(i, j), best);
                assert_eq!(lit.val(i, j), d.entry(i, j) + best_v);
            }
        }
    }

    /// Negation maps Monge arrays to inverse-Monge ones.
    fn negated<T: Value>(a: &Dense<T>) -> Dense<T> {
        Dense::tabulate(a.rows(), a.cols(), |i, j| a.entry(i, j).neg())
    }

    /// A Monge array with heavy ties: quantized row and column offsets
    /// plus a few non-negative `w·[i ≥ s]·[j < t]` steps (each one
    /// Monge), so most quadrangles hold with equality.
    fn zero_slack(m: usize, n: usize, rng: &mut StdRng) -> Dense<i64> {
        let u: Vec<i64> = (0..m).map(|_| 4 * rng.random_range(0..3i64)).collect();
        let v: Vec<i64> = (0..n).map(|_| 4 * rng.random_range(0..3i64)).collect();
        let steps: Vec<(usize, usize, i64)> = (0..3)
            .map(|_| {
                (
                    rng.random_range(0..m + 1),
                    rng.random_range(0..n + 1),
                    4 * rng.random_range(0..2i64),
                )
            })
            .collect();
        Dense::tabulate(m, n, |i, j| {
            let bumps: i64 = steps
                .iter()
                .filter(|&&(s, t, _)| i >= s && j < t)
                .map(|&(_, _, w)| w)
                .sum();
            u[i] + v[j] + bumps
        })
    }

    /// All three kernel variants against their brute-force oracles:
    /// minima and maxima over the Monge pair, maxima over its negation.
    fn check_all<T: Value>(d: &Dense<T>, e: &Dense<T>, what: &str) {
        assert_eq!(tube_minima(d, e), tube_minima_brute(d, e), "min {what}");
        assert_eq!(tube_maxima(d, e), tube_maxima_brute(d, e), "max {what}");
        let (nd, ne) = (negated(d), negated(e));
        assert_eq!(
            tube_maxima_inverse(&nd, &ne),
            tube_maxima_brute(&nd, &ne),
            "inverse max {what}"
        );
    }

    #[test]
    fn sweep_matches_brute_on_zero_slack_factors() {
        let mut rng = StdRng::seed_from_u64(26);
        for _ in 0..40 {
            let p = rng.random_range(2..11usize);
            let (q, r) = (rng.random_range(1..10usize), rng.random_range(1..10usize));
            let d = zero_slack(p, q, &mut rng);
            let e = zero_slack(q, r, &mut rng);
            assert!(is_monge(&d) && is_monge(&e));
            check_all(&d, &e, &format!("{p}x{q}x{r}"));
        }
    }

    #[test]
    fn sweep_matches_brute_on_f64_factors() {
        use crate::generators::random_monge_dense_f64;
        let mut rng = StdRng::seed_from_u64(28);
        for &(p, q, r) in &[(8usize, 6usize, 10usize), (12, 12, 12)] {
            let d = random_monge_dense_f64(p, q, &mut rng);
            let e = random_monge_dense_f64(q, r, &mut rng);
            check_all(&d, &e, &format!("{p}x{q}x{r}"));
        }
    }

    #[test]
    fn sweep_evaluates_each_factor_entry_exactly_once() {
        use crate::problem::Metered;
        let mut rng = StdRng::seed_from_u64(29);
        let (p, q, r) = (23usize, 17usize, 31usize);
        let d = random_monge_dense(p, q, &mut rng);
        let e = random_monge_dense(q, r, &mut rng);
        type Factor<'a> = Metered<&'a Dense<i64>>;
        let count = |solve: &dyn Fn(&Factor, &Factor)| {
            let (dm, em) = (Metered::new(&d), Metered::new(&e));
            solve(&dm, &em);
            dm.evaluations() + em.evaluations()
        };
        let want = (p * q + q * r) as u64;
        assert_eq!(count(&|d, e| drop(tube_minima(d, e))), want);
        assert_eq!(count(&|d, e| drop(tube_maxima(d, e))), want);
        assert_eq!(count(&|d, e| drop(tube_maxima_inverse(d, e))), want);
    }

    /// `a` with `pad` outside the band `[lo[i], hi[i])` of each row.
    fn padded(a: &Dense<i64>, lo: &[usize], hi: &[usize], pad: i64) -> Dense<i64> {
        Dense::tabulate(a.rows(), a.cols(), |i, j| {
            if (lo[i]..hi[i]).contains(&j) {
                a.entry(i, j)
            } else {
                pad
            }
        })
    }

    /// `b[i][j] = -a[i][n-1-j]`: reversing the columns and negating
    /// keeps an array Monge and turns `+∞` padding into `-∞`.
    fn mirrored(a: &Dense<i64>) -> Dense<i64> {
        let n = a.cols();
        Dense::tabulate(a.rows(), n, |i, j| a.entry(i, n - 1 - j).neg())
    }

    /// All three variants on `∞`-padded factors: minima over the `+∞`
    /// pair `(d, e)`, maxima over its column mirror (Monge, `-∞`
    /// padding) and over its negation (inverse-Monge, `-∞` padding).
    fn check_padded(d: &Dense<i64>, e: &Dense<i64>, what: &str) {
        assert!(is_monge(d) && is_monge(e), "{what}: factors not Monge");
        assert_eq!(tube_minima(d, e), tube_minima_brute(d, e), "min {what}");
        let (md, me) = (mirrored(d), mirrored(e));
        assert!(is_monge(&md) && is_monge(&me), "{what}: mirrors not Monge");
        assert_eq!(
            tube_maxima(&md, &me),
            tube_maxima_brute(&md, &me),
            "max {what}"
        );
        let (nd, ne) = (negated(d), negated(e));
        assert_eq!(
            tube_maxima_inverse(&nd, &ne),
            tube_maxima_brute(&nd, &ne),
            "inverse max {what}"
        );
    }

    #[test]
    fn sweep_matches_brute_on_triangular_infinite_factors() {
        // DIST-shaped: `∞` below the diagonal, so every tube with
        // `i > k` is all `∞` and takes index 0.
        let inf = i64::INFINITY;
        let d = Dense::from_rows(vec![vec![0, 1, 2], vec![inf, 0, 1], vec![inf, inf, 0]]);
        let ex = tube_minima(&d, &d);
        assert_eq!((ex.arg(1, 1), ex.val(1, 1)), (1, 0));
        check_padded(&d, &d, "3x3x3 staircase");

        let mut rng = StdRng::seed_from_u64(30);
        for &(p, q, r) in &SHAPES {
            let d = random_monge_dense(p, q, &mut rng);
            let e = random_monge_dense(q, r, &mut rng);
            let lo = |m: usize, n: usize| (0..m).map(|i| (i * n / m).min(n)).collect::<Vec<_>>();
            let d = padded(&d, &lo(p, q), &vec![q; p], inf);
            let e = padded(&e, &lo(q, r), &vec![r; q], inf);
            check_padded(&d, &e, &format!("{p}x{q}x{r}"));
        }
        // Random left staircases, all-`∞` rows included.
        for _ in 0..300 {
            let (p, q, r) = (
                rng.random_range(1..10usize),
                rng.random_range(1..10usize),
                rng.random_range(1..10usize),
            );
            let mut stair = |m: usize, n: usize| {
                let mut lo: Vec<usize> = (0..m).map(|_| rng.random_range(0..n + 1)).collect();
                lo.sort_unstable();
                lo
            };
            let (dlo, elo) = (stair(p, q), stair(q, r));
            let d = padded(&random_monge_dense(p, q, &mut rng), &dlo, &vec![q; p], inf);
            let e = padded(&random_monge_dense(q, r, &mut rng), &elo, &vec![r; q], inf);
            check_padded(&d, &e, &format!("{p}x{q}x{r} D {dlo:?} E {elo:?}"));
        }
    }

    #[test]
    fn sweep_matches_brute_with_infinite_rows_of_d_only() {
        // `E` finite, so finite planes between `∞`-padded rows of `D`
        // are swept and each plane above a padded one is re-seeded.
        let inf = i64::INFINITY;
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..40 {
            let (p, q, r) = (
                rng.random_range(1..12usize),
                rng.random_range(1..9usize),
                rng.random_range(1..9usize),
            );
            // A sorted left boundary: unpadded rows on top, padded and
            // all-`∞` rows below them.
            let mut lo: Vec<usize> = (0..p)
                .map(|_| rng.random_range(0..2usize) * rng.random_range(0..q + 1))
                .collect();
            lo.sort_unstable();
            let d = padded(&random_monge_dense(p, q, &mut rng), &lo, &vec![q; p], inf);
            let e = random_monge_dense(q, r, &mut rng);
            check_padded(&d, &e, &format!("{p}x{q}x{r} lo {lo:?}"));
        }
    }

    /// The per-plane engine: one SMAWK pass over each plane.
    fn per_plane(d: &Dense<i64>, e: &Dense<i64>, search: TubeSearch) -> TubeExtrema<i64> {
        let (mut index, mut value) = (Vec::new(), Vec::new());
        for i in 0..d.rows() {
            let pl = plane(d, e, i);
            let row = match search {
                TubeSearch::Min => crate::smawk::row_minima_monge(&pl),
                TubeSearch::Max => crate::smawk::row_maxima_monge(&pl),
                TubeSearch::MaxInverse => crate::smawk::row_maxima_inverse_monge(&pl),
            };
            index.extend(row.index);
            value.extend(row.value);
        }
        TubeExtrema {
            p: d.rows(),
            r: e.cols(),
            index,
            value,
        }
    }

    #[test]
    fn infinite_planes_solve_exactly_as_per_plane_smawk() {
        // `+∞` outside monotone bands of both factors. SMAWK is not
        // exact on every such plane (all-`∞` rows between finite ones
        // break total monotonicity), so the promise is the per-plane
        // engine's answer, bit for bit, rather than the brute force's.
        let inf = i64::INFINITY;
        // Finite `D`, `E` finite only on its staircase: here a sweep
        // over the finite rows of `D` would answer some tubes
        // differently from SMAWK.
        let d = Dense::from_rows(vec![
            vec![428, 1112, 225, 1184, 495, 491, 905],
            vec![-779, -95, -994, -48, -737, -756, -357],
            vec![-909, -233, -1137, -202, -906, -928, -530],
            vec![130, 792, -116, 807, 93, 71, 469],
            vec![-1197, -536, -1456, -536, -1251, -1282, -895],
        ]);
        let e = Dense::tabulate(7, 4, |j, k| {
            if k == [1, 1, 2, 2, 2, 2, 3][j] {
                [-1650, -1059, 1007, 79, -136, 309, -1125][j]
            } else {
                inf
            }
        });
        assert!(is_monge(&d) && is_monge(&e));
        assert_eq!(tube_minima(&d, &e), per_plane(&d, &e, TubeSearch::Min));

        let mut rng = StdRng::seed_from_u64(32);
        let band = |m: usize, n: usize, rng: &mut StdRng| {
            let mut lo: Vec<usize> = (0..m).map(|_| rng.random_range(0..n)).collect();
            let mut hi: Vec<usize> = (0..m).map(|_| rng.random_range(1..n + 1)).collect();
            lo.sort_unstable();
            hi.sort_unstable();
            (lo, hi)
        };
        for _ in 0..2000 {
            let (p, q, r) = (
                rng.random_range(1..8usize),
                rng.random_range(1..8usize),
                rng.random_range(1..8usize),
            );
            let (dlo, dhi) = band(p, q, &mut rng);
            let (elo, ehi) = band(q, r, &mut rng);
            let d = padded(&random_monge_dense(p, q, &mut rng), &dlo, &dhi, inf);
            let e = padded(&random_monge_dense(q, r, &mut rng), &elo, &ehi, inf);
            assert!(is_monge(&d) && is_monge(&e));
            let what = format!("D {dlo:?}..{dhi:?}, E {elo:?}..{ehi:?}");
            let want = per_plane(&d, &e, TubeSearch::Min);
            assert_eq!(tube_minima(&d, &e), want, "min {what}");
            let (md, me) = (mirrored(&d), mirrored(&e));
            let want = per_plane(&md, &me, TubeSearch::Max);
            assert_eq!(tube_maxima(&md, &me), want, "max {what}");
            let (nd, ne) = (negated(&d), negated(&e));
            let want = per_plane(&nd, &ne, TubeSearch::MaxInverse);
            assert_eq!(tube_maxima_inverse(&nd, &ne), want, "inverse max {what}");
        }
    }

    #[test]
    fn tie_break_takes_smallest_middle_coordinate() {
        // Plateau factors: every j ties; smallest must win in all three
        // variants.
        let d = Dense::filled(9, 13, 3i64);
        let e = Dense::filled(13, 7, -2i64);
        for ex in [
            tube_minima(&d, &e),
            tube_maxima(&d, &e),
            tube_maxima_inverse(&d, &e),
        ] {
            assert!(ex.index.iter().all(|&j| j == 0));
            assert!(ex.value.iter().all(|&v| v == 1));
        }
    }
}
