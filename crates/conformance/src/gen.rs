//! Seeded structured-instance generation for the differential fuzzer.
//!
//! Every instance is a pure function of `(ProblemKind, u64 seed)`: the
//! family mix, shapes and values all come from one [`SplitMix64`]
//! stream, so "kind + seed" is a complete reproducer. Families cover
//! the shapes that historically break Monge searchers: plateau-heavy
//! arrays (tie-break storms), zero-slack arrays (every quadrangle
//! inequality tight — one sign error away from a violation), degenerate
//! single-row/column instances, adversarial staircase boundaries
//! (cliffs, fully-infeasible `f_i = 0` rows, finite garbage beyond the
//! boundary that no engine may read), and composite tube factors.

use monge_core::array2d::{Array2d, Dense};
use monge_core::monge::{
    check_inverse_monge, check_monge, check_staircase_inverse_monge_prefix,
    check_staircase_monge_prefix,
};
use monge_core::problem::{Objective, Problem, ProblemKind, Structure};
use monge_core::tiebreak::Tie;
use monge_core::value::Value;

use crate::rng::SplitMix64;

/// The generator form every rank instance uses: `g(x, y) = (x - y)²`,
/// Monge for ascending `v`, `w`. A named `fn` so replayed instances and
/// shrunk instances rebuild the exact same array.
pub fn sq(x: i64, y: i64) -> i64 {
    let d = x - y;
    d * d
}

/// One owned, self-contained fuzz instance: the problem IR plus the
/// backing storage the borrowed [`Problem`] needs.
#[derive(Clone, Debug)]
pub struct Instance {
    /// Which registry problem this instance exercises.
    pub kind: ProblemKind,
    /// Structural promise for rows/staircase instances.
    pub structure: Structure,
    /// Minimize or maximize (derived from `kind` for rows/tubes).
    pub objective: Objective,
    /// Tie rule for rows instances.
    pub tie: Tie,
    /// Primary array (tube: the left factor `d`).
    pub a: Dense<i64>,
    /// Tube right factor `e`.
    pub e: Option<Dense<i64>>,
    /// Staircase boundary `f_i`.
    pub boundary: Option<Vec<usize>>,
    /// Banded per-row starts.
    pub lo: Option<Vec<usize>>,
    /// Banded per-row ends (exclusive).
    pub hi: Option<Vec<usize>>,
    /// Rank form `(v, w)` with `g = sq` (hypercube eligibility).
    pub rank: Option<(Vec<i64>, Vec<i64>)>,
    /// Generator family label (reporting / corpus notes).
    pub family: &'static str,
}

impl Instance {
    /// The borrowed problem IR over this instance's storage.
    pub fn problem(&self) -> Problem<'_, i64> {
        match self.kind {
            ProblemKind::RowMinima | ProblemKind::RowMaxima => {
                let mut p =
                    Problem::rows(&self.a, self.structure, self.objective).with_tie(self.tie);
                if let Some((v, w)) = &self.rank {
                    p = p.with_rank(v, w, &sq);
                }
                p
            }
            ProblemKind::StaircaseRowMinima => {
                let f = self.boundary.as_deref().expect("staircase boundary");
                let mut p = if self.structure == Structure::InverseMonge {
                    Problem::staircase_inverse_row_minima(&self.a, f)
                } else {
                    Problem::staircase_row_minima(&self.a, f)
                };
                if let Some((v, w)) = &self.rank {
                    p = p.with_rank(v, w, &sq);
                }
                p
            }
            ProblemKind::BandedRowMinima => Problem::banded_row_minima(
                &self.a,
                self.lo.as_deref().expect("banded lo"),
                self.hi.as_deref().expect("banded hi"),
            ),
            ProblemKind::BandedRowMaxima => Problem::banded_row_maxima(
                &self.a,
                self.lo.as_deref().expect("banded lo"),
                self.hi.as_deref().expect("banded hi"),
            ),
            ProblemKind::TubeMinima => {
                Problem::tube_minima(&self.a, self.e.as_ref().expect("tube factor e"))
            }
            ProblemKind::TubeMaxima => {
                Problem::tube_maxima(&self.a, self.e.as_ref().expect("tube factor e"))
            }
        }
    }

    /// Does the instance still satisfy its structural promise? The
    /// shrinker calls this after every candidate transform: a transform
    /// that breaks the promise would make engine disagreement legal.
    pub fn valid(&self) -> bool {
        if self.a.rows() == 0 || self.a.cols() == 0 {
            return false;
        }
        if let Some((v, w)) = &self.rank {
            // Rank instances: the dense array must agree with g(v, w)
            // (the hypercube solves from the vectors, everyone else
            // from the array).
            if v.len() != self.a.rows() || w.len() != self.a.cols() {
                return false;
            }
            let consistent = (0..self.a.rows())
                .all(|i| (0..self.a.cols()).all(|j| self.a.entry(i, j) == sq(v[i], w[j])));
            if !consistent {
                return false;
            }
        }
        match self.kind {
            ProblemKind::RowMinima | ProblemKind::RowMaxima => match self.structure {
                Structure::Monge => check_monge(&self.a).is_ok(),
                Structure::InverseMonge => check_inverse_monge(&self.a).is_ok(),
                Structure::Plain => true,
            },
            ProblemKind::StaircaseRowMinima => {
                let Some(f) = self.boundary.as_deref() else {
                    return false;
                };
                if f.len() != self.a.rows() || f.iter().any(|&fi| fi > self.a.cols()) {
                    return false;
                }
                if f.windows(2).any(|w| w[1] > w[0]) {
                    return false;
                }
                match self.structure {
                    Structure::InverseMonge => {
                        check_staircase_inverse_monge_prefix(&self.a, f).is_ok()
                    }
                    _ => check_staircase_monge_prefix(&self.a, f).is_ok(),
                }
            }
            ProblemKind::BandedRowMinima | ProblemKind::BandedRowMaxima => {
                let (Some(lo), Some(hi)) = (self.lo.as_deref(), self.hi.as_deref()) else {
                    return false;
                };
                let m = self.a.rows();
                let n = self.a.cols();
                if lo.len() != m || hi.len() != m {
                    return false;
                }
                if (0..m).any(|i| lo[i] > hi[i] || hi[i] > n) {
                    return false;
                }
                let monotone = if self.kind == ProblemKind::BandedRowMinima {
                    lo.windows(2).all(|w| w[0] <= w[1]) && hi.windows(2).all(|w| w[0] <= w[1])
                } else {
                    lo.windows(2).all(|w| w[0] >= w[1]) && hi.windows(2).all(|w| w[0] >= w[1])
                };
                monotone && check_monge(&self.a).is_ok()
            }
            ProblemKind::TubeMinima | ProblemKind::TubeMaxima => {
                let Some(e) = &self.e else { return false };
                e.rows() == self.a.cols() && check_monge(&self.a).is_ok() && check_monge(e).is_ok()
            }
        }
    }

    /// `(rows, cols)` of the primary array — what the ≤ 8×8 shrink
    /// target is measured on.
    pub fn shape(&self) -> (usize, usize) {
        (self.a.rows(), self.a.cols())
    }
}

/// A dense Monge base via the prefix-summed-density construction (the
/// same scheme as `monge_core::generators`, re-rolled on SplitMix64 so
/// the fuzzer's streams are frozen). All offsets and densities are
/// multiples of `quant`, so `quant > 1` produces plateau-heavy arrays
/// whose ties stress the leftmost rule.
pub(crate) fn monge_base(
    m: usize,
    n: usize,
    r: &mut SplitMix64,
    offset: i64,
    density: i64,
    quant: i64,
) -> Dense<i64> {
    assert!(m > 0 && n > 0 && quant > 0);
    let snap = |v: i64| (v / quant) * quant;
    let u: Vec<i64> = (0..m).map(|_| snap(r.range_i64(-offset, offset))).collect();
    let v: Vec<i64> = (0..n).map(|_| snap(r.range_i64(-offset, offset))).collect();
    let mut prefix = vec![0i64; n];
    let mut data = Vec::with_capacity(m * n);
    for (i, &ui) in u.iter().enumerate() {
        let mut acc = 0i64;
        for (j, p) in prefix.iter_mut().enumerate() {
            let g = if i == 0 || j == 0 || density == 0 {
                0
            } else {
                snap(r.range_i64(0, density))
            };
            acc += g;
            *p += acc;
            data.push(ui + v[j] - *p);
        }
    }
    Dense::from_vec(m, n, data)
}

/// Fuzz-sized dimension draw: biased toward small-but-not-trivial.
fn dim(r: &mut SplitMix64, max: usize) -> usize {
    r.range_usize(1, max.max(1))
}

fn rows_instance(kind: ProblemKind, seed: u64) -> Instance {
    let mut r = SplitMix64::new(seed);
    let objective = if kind == ProblemKind::RowMinima {
        Objective::Minimize
    } else {
        Objective::Maximize
    };
    let family = r.below(7);
    let (m, n) = match family {
        3 => {
            // Degenerate: a single row or a single column.
            if r.chance(1, 2) {
                (1, dim(&mut r, 12))
            } else {
                (dim(&mut r, 12), 1)
            }
        }
        _ => (dim(&mut r, 12), dim(&mut r, 12)),
    };
    // The simulators only answer the leftmost tie rule; a slice of
    // rightmost-tie instances keeps the host engines honest too.
    let tie = if r.chance(1, 10) {
        Tie::Right
    } else {
        Tie::Left
    };
    let (a, structure, rank, name): (Dense<i64>, Structure, _, &'static str) = match family {
        0 => (
            monge_base(m, n, &mut r, 1000, 16, 1),
            Structure::Monge,
            None,
            "monge-random",
        ),
        1 => (
            monge_base(m, n, &mut r, 32, 16, 16),
            Structure::Monge,
            None,
            "monge-plateau",
        ),
        2 => (
            // Zero density: a[i,j] = u[i] + v[j] — every adjacent
            // quadrangle inequality is tight. The borderline family.
            monge_base(m, n, &mut r, 40, 0, 4),
            Structure::Monge,
            None,
            "monge-zero-slack",
        ),
        3 => (
            monge_base(m, n, &mut r, 100, 8, 1),
            Structure::Monge,
            None,
            "monge-degenerate",
        ),
        4 => {
            let base = monge_base(m, n, &mut r, 500, 12, 1);
            let data = (0..m * n).map(|k| -base.data()[k]).collect();
            (
                Dense::from_vec(m, n, data),
                Structure::InverseMonge,
                None,
                "inverse-monge",
            )
        }
        5 => {
            // Honest unstructured values (host backends + brute only).
            let data = (0..m * n).map(|_| r.range_i64(-50, 50)).collect();
            (
                Dense::from_vec(m, n, data),
                Structure::Plain,
                None,
                "plain-random",
            )
        }
        _ => {
            // Rank form g(v[i], w[j]) = (v[i]-w[j])²: ascending vectors,
            // dense array tabulated from the same generator — unlocks
            // the hypercube backend.
            let mut v: Vec<i64> = (0..m).map(|_| r.range_i64(-30, 30)).collect();
            let mut w: Vec<i64> = (0..n).map(|_| r.range_i64(-30, 30)).collect();
            v.sort_unstable();
            w.sort_unstable();
            let a = Dense::tabulate(m, n, |i, j| sq(v[i], w[j]));
            (a, Structure::Monge, Some((v, w)), "monge-rank")
        }
    };
    Instance {
        kind,
        structure,
        objective,
        // Rank + rightmost tie would drop the hypercube anyway; keep
        // rank instances on the leftmost rule.
        tie: if rank.is_some() { Tie::Left } else { tie },
        a,
        e: None,
        boundary: None,
        lo: None,
        hi: None,
        rank,
        family: name,
    }
}

/// Masks `base` with boundary `f`: `+∞` at and beyond `f[i]`, or, for
/// the adversarial "garbage" family, finite junk values the engines
/// must never read.
fn mask_staircase(base: &Dense<i64>, f: &[usize], garbage: Option<&mut SplitMix64>) -> Dense<i64> {
    let (m, n) = (base.rows(), base.cols());
    match garbage {
        None => Dense::tabulate(m, n, |i, j| {
            if j >= f[i] {
                <i64 as Value>::INFINITY
            } else {
                base.entry(i, j)
            }
        }),
        Some(r) => {
            let mut data = Vec::with_capacity(m * n);
            for (i, &fi) in f.iter().enumerate() {
                for j in 0..n {
                    data.push(if j >= fi {
                        r.range_i64(-1_000_000, 1_000_000)
                    } else {
                        base.entry(i, j)
                    });
                }
            }
            Dense::from_vec(m, n, data)
        }
    }
}

fn staircase_instance(seed: u64) -> Instance {
    let mut r = SplitMix64::new(seed);
    let family = r.below(7);
    let (m, n) = match family {
        5 => {
            if r.chance(1, 2) {
                (1, dim(&mut r, 12))
            } else {
                (dim(&mut r, 12), 1)
            }
        }
        _ => (dim(&mut r, 12), dim(&mut r, 12)),
    };
    // Boundary families. All are non-increasing; families 1 and 3 end
    // in `f_i = 0` rows — the fully-infeasible rows whose canonical
    // sentinel answer (index 0, value +∞, zero reads) every backend
    // must agree on.
    let mut f: Vec<usize> = match family {
        1 | 3 => {
            let zeros = r.range_usize(1, m);
            let mut f: Vec<usize> = (0..m - zeros).map(|_| r.range_usize(1, n)).collect();
            f.extend(std::iter::repeat_n(0, zeros));
            f
        }
        2 => {
            // Cliff: full rows, then an abrupt drop to a narrow tail.
            let cliff = r.range_usize(0, m);
            let tail = r.range_usize(1, n);
            (0..m).map(|i| if i < cliff { n } else { tail }).collect()
        }
        _ => (0..m).map(|_| r.range_usize(1, n)).collect(),
    };
    f.sort_unstable_by(|a, b| b.cmp(a));
    if family == 6 {
        // Rank form: the array is g(v, w) everywhere (finite beyond the
        // boundary — never read there), which both matches the hypercube's
        // distributed generator inputs and keeps the rank consistency
        // invariant checkable.
        let mut v: Vec<i64> = (0..m).map(|_| r.range_i64(-30, 30)).collect();
        let mut w: Vec<i64> = (0..n).map(|_| r.range_i64(-30, 30)).collect();
        v.sort_unstable();
        w.sort_unstable();
        let a = Dense::tabulate(m, n, |i, j| sq(v[i], w[j]));
        return Instance {
            kind: ProblemKind::StaircaseRowMinima,
            structure: Structure::Monge,
            objective: Objective::Minimize,
            tie: Tie::Left,
            a,
            e: None,
            boundary: Some(f),
            lo: None,
            hi: None,
            rank: Some((v, w)),
            family: "staircase-rank",
        };
    }
    let plateau = r.chance(1, 3);
    let base = if plateau {
        monge_base(m, n, &mut r, 32, 16, 16)
    } else {
        monge_base(m, n, &mut r, 500, 12, 1)
    };
    let (a, structure, name): (Dense<i64>, Structure, &'static str) = match family {
        3 => {
            let mut junk = r.fork(0xBAD);
            (
                mask_staircase(&base, &f, Some(&mut junk)),
                Structure::Monge,
                "staircase-garbage-beyond-boundary",
            )
        }
        4 => {
            let neg: Vec<i64> = base.data().iter().map(|&x| -x).collect();
            let neg = Dense::from_vec(m, n, neg);
            (
                mask_staircase(&neg, &f, None),
                Structure::InverseMonge,
                "staircase-inverse",
            )
        }
        1 => (
            mask_staircase(&base, &f, None),
            Structure::Monge,
            "staircase-infeasible-rows",
        ),
        2 => (
            mask_staircase(&base, &f, None),
            Structure::Monge,
            "staircase-cliff",
        ),
        5 => (
            mask_staircase(&base, &f, None),
            Structure::Monge,
            "staircase-degenerate",
        ),
        _ => (
            mask_staircase(&base, &f, None),
            Structure::Monge,
            "staircase-random",
        ),
    };
    Instance {
        kind: ProblemKind::StaircaseRowMinima,
        structure,
        objective: Objective::Minimize,
        tie: Tie::Left,
        a,
        e: None,
        boundary: Some(f),
        lo: None,
        hi: None,
        rank: None,
        family: name,
    }
}

fn banded_instance(kind: ProblemKind, seed: u64) -> Instance {
    let mut r = SplitMix64::new(seed);
    let minimize = kind == ProblemKind::BandedRowMinima;
    let (m, n) = (dim(&mut r, 12), dim(&mut r, 12));
    let quant = if r.chance(1, 4) { 8 } else { 1 };
    let a = monge_base(m, n, &mut r, 400, 12, quant);
    let family = r.below(4);
    let (mut lo, mut hi): (Vec<usize>, Vec<usize>) = match family {
        1 => ((0..m).map(|_| 0).collect(), (0..m).map(|_| n).collect()),
        2 => {
            // Empty-heavy: roughly half the bands are lo == hi.
            let pos: Vec<usize> = (0..m).map(|_| r.range_usize(0, n)).collect();
            let width: Vec<usize> = (0..m).map(|_| if r.chance(1, 2) { 0 } else { 1 }).collect();
            (
                pos.clone(),
                pos.iter()
                    .zip(&width)
                    .map(|(&p, &w)| (p + w).min(n))
                    .collect(),
            )
        }
        3 => {
            let pos: Vec<usize> = (0..m).map(|_| r.range_usize(0, n - 1)).collect();
            (pos.clone(), pos.iter().map(|&p| p + 1).collect())
        }
        _ => (
            (0..m).map(|_| r.range_usize(0, n)).collect(),
            (0..m).map(|_| r.range_usize(0, n)).collect(),
        ),
    };
    // Enforce the monotone band shape the divide & conquer needs:
    // non-decreasing endpoints for minima, non-increasing for maxima,
    // and lo[i] <= hi[i] throughout.
    if minimize {
        lo.sort_unstable();
        hi.sort_unstable();
    } else {
        lo.sort_unstable_by(|a, b| b.cmp(a));
        hi.sort_unstable_by(|a, b| b.cmp(a));
    }
    for i in 0..m {
        hi[i] = hi[i].max(lo[i]);
    }
    let family_name = match family {
        1 => "banded-full",
        2 => "banded-empty-heavy",
        3 => "banded-single-column",
        _ => "banded-random",
    };
    Instance {
        kind,
        structure: Structure::Monge,
        objective: if minimize {
            Objective::Minimize
        } else {
            Objective::Maximize
        },
        tie: Tie::Left,
        a,
        e: None,
        boundary: None,
        lo: Some(lo),
        hi: Some(hi),
        rank: None,
        family: family_name,
    }
}

fn tube_instance(kind: ProblemKind, seed: u64) -> Instance {
    let mut r = SplitMix64::new(seed);
    let family = r.below(4);
    let (p, q, rr) = match family {
        2 => {
            // Degenerate middle/outer dimension.
            let which = r.below(3);
            let (mut p, mut q, mut rr) = (dim(&mut r, 8), dim(&mut r, 8), dim(&mut r, 8));
            match which {
                0 => p = 1,
                1 => q = 1,
                _ => rr = 1,
            }
            (p, q, rr)
        }
        _ => (dim(&mut r, 8), dim(&mut r, 8), dim(&mut r, 8)),
    };
    let (off, dens, quant) = match family {
        1 => (24, 8, 8),
        3 => (40, 0, 4),
        _ => (300, 10, 1),
    };
    let d = monge_base(p, q, &mut r, off, dens, quant);
    let e = monge_base(q, rr, &mut r, off, dens, quant);
    let family_name = match family {
        1 => "tube-plateau",
        2 => "tube-degenerate",
        3 => "tube-zero-slack",
        _ => "tube-random",
    };
    Instance {
        kind,
        structure: Structure::Monge,
        objective: if kind == ProblemKind::TubeMinima {
            Objective::Minimize
        } else {
            Objective::Maximize
        },
        tie: Tie::Left,
        a: d,
        e: Some(e),
        boundary: None,
        lo: None,
        hi: None,
        rank: None,
        family: family_name,
    }
}

/// A DIST-shaped tube instance for `(kind, seed)` (a tube kind): each
/// factor row is infinite past a random monotone staircase, fully
/// infinite rows included, as in the `∞`-padded DIST matrices of string
/// editing. Minima pad with `+∞` left of a non-decreasing boundary;
/// maxima with `-∞` right of a non-increasing one, which keeps the
/// factors Monge.
pub fn infinite_staircase_tube(kind: ProblemKind, seed: u64) -> Instance {
    assert!(matches!(
        kind,
        ProblemKind::TubeMinima | ProblemKind::TubeMaxima
    ));
    let mut r = SplitMix64::new(seed);
    let (p, q, rr) = (dim(&mut r, 8), dim(&mut r, 8), dim(&mut r, 8));
    let minimize = kind == ProblemKind::TubeMinima;
    let pad = |a: Dense<i64>, r: &mut SplitMix64| {
        let n = a.cols();
        let mut cut: Vec<usize> = (0..a.rows())
            .map(|_| r.below(n as u64 + 1) as usize)
            .collect();
        cut.sort_unstable();
        Dense::tabulate(a.rows(), n, |i, j| {
            if minimize && j < cut[i] {
                <i64 as Value>::INFINITY
            } else if !minimize && j >= n - cut[i] {
                <i64 as Value>::NEG_INFINITY
            } else {
                a.entry(i, j)
            }
        })
    };
    let d = monge_base(p, q, &mut r, 300, 10, 1);
    let d = pad(d, &mut r);
    let e = monge_base(q, rr, &mut r, 300, 10, 1);
    let e = pad(e, &mut r);
    Instance {
        kind,
        structure: Structure::Monge,
        objective: if minimize {
            Objective::Minimize
        } else {
            Objective::Maximize
        },
        tie: Tie::Left,
        a: d,
        e: Some(e),
        boundary: None,
        lo: None,
        hi: None,
        rank: None,
        family: "tube-inf-staircase",
    }
}

/// Generates the deterministic instance for `(kind, seed)`.
pub fn generate(kind: ProblemKind, seed: u64) -> Instance {
    match kind {
        ProblemKind::RowMinima | ProblemKind::RowMaxima => rows_instance(kind, seed),
        ProblemKind::StaircaseRowMinima => staircase_instance(seed),
        ProblemKind::BandedRowMinima | ProblemKind::BandedRowMaxima => banded_instance(kind, seed),
        ProblemKind::TubeMinima | ProblemKind::TubeMaxima => tube_instance(kind, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_instances_are_valid() {
        for kind in ProblemKind::ALL {
            for seed in 0..200 {
                let inst = generate(kind, seed);
                assert!(
                    inst.valid(),
                    "{kind:?} seed {seed} family {} is structurally invalid",
                    inst.family
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for kind in ProblemKind::ALL {
            let a = generate(kind, 17);
            let b = generate(kind, 17);
            assert_eq!(a.a.data(), b.a.data());
            assert_eq!(a.boundary, b.boundary);
            assert_eq!(a.family, b.family);
        }
    }

    #[test]
    fn infinite_staircase_tubes_are_valid_and_padded() {
        for kind in [ProblemKind::TubeMinima, ProblemKind::TubeMaxima] {
            let mut padded = 0;
            for seed in 0..200 {
                let inst = infinite_staircase_tube(kind, seed);
                assert!(inst.valid(), "{kind:?} seed {seed} is not Monge");
                let e = inst.e.as_ref().unwrap();
                padded += inst
                    .a
                    .data()
                    .iter()
                    .chain(e.data())
                    .any(|v| v.is_infinite()) as usize;
            }
            assert!(padded >= 150, "{kind:?}: {padded} of 200 padded");
        }
    }

    #[test]
    fn staircase_family_mix_covers_infeasible_rows() {
        let mut saw_zero = false;
        let mut saw_garbage = false;
        for seed in 0..300 {
            let inst = generate(ProblemKind::StaircaseRowMinima, seed);
            let f = inst.boundary.as_deref().unwrap();
            saw_zero |= f.contains(&0);
            saw_garbage |= inst.family == "staircase-garbage-beyond-boundary";
        }
        assert!(saw_zero, "no fully-infeasible rows generated in 300 seeds");
        assert!(
            saw_garbage,
            "no garbage-beyond-boundary instances in 300 seeds"
        );
    }
}
