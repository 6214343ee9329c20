//! DIST-matrix algebra: `(min,+)` and `(max,+)` products of Monge arrays.
//!
//! The string-editing application (§1.3, item 4) reduces edit distance to
//! shortest paths in a *grid-DAG* and combines boundary-to-boundary
//! distance matrices ("DIST matrices") of adjacent strips. That
//! combination step is exactly a `(min,+)` matrix product, and because
//! DIST matrices of planar grid-DAGs are Monge, each product is a tube
//! minima computation on a Monge-composite array — the paper's Table 1.3
//! primitive.
//!
//! This module provides the sequential products (via [`crate::tube`]) and
//! the closure fact the divide-and-conquer relies on: **the `(min,+)`
//! product of two Monge arrays is Monge** (proved by the argmin
//! monotonicity the product inherits; re-verified by property tests).

use crate::array2d::{Array2d, Dense};
use crate::tube::{tube_maxima, tube_minima};
use crate::value::Value;

/// `(min,+)` product `(D ⊗ E)[i,k] = min_j d[i,j] + e[j,k]` of two Monge
/// arrays, in `O(pq + qr + pr)` time via tube minima. Each entry of `D`
/// and `E` is evaluated once, so an expensive implicit factor (a
/// recursively combined DIST matrix) needs no memoizing wrapper.
pub fn min_plus<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> Dense<T> {
    let ex = tube_minima(d, e);
    Dense::from_vec(ex.p, ex.r, ex.value)
}

/// `(max,+)` product of two Monge arrays, in `O(pq + qr + pr)` time via
/// tube maxima. Note: unlike `(min,+)`, the `(max,+)` product of Monge arrays
/// is *not* Monge in general; the class closed under `(max,+)` is
/// inverse-Monge (see [`max_plus_inverse`]).
pub fn max_plus<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> Dense<T> {
    let ex = tube_maxima(d, e);
    Dense::from_vec(ex.p, ex.r, ex.value)
}

/// `(max,+)` product of two **inverse-Monge** arrays, in
/// `O(pq + qr + pr)` time; the result is again inverse-Monge.
pub fn max_plus_inverse<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> Dense<T> {
    let ex = crate::tube::tube_maxima_inverse(d, e);
    Dense::from_vec(ex.p, ex.r, ex.value)
}

/// Brute-force `(min,+)` product, `O(p q r)` — the oracle.
pub fn min_plus_brute<T: Value, A: Array2d<T>, B: Array2d<T>>(d: &A, e: &B) -> Dense<T> {
    assert_eq!(d.cols(), e.rows());
    let (p, q, r) = (d.rows(), d.cols(), e.cols());
    Dense::tabulate(p, r, |i, k| {
        let mut best = d.entry(i, 0).add(e.entry(0, k));
        for j in 1..q {
            let v = d.entry(i, j).add(e.entry(j, k));
            if v.total_lt(best) {
                best = v;
            }
        }
        best
    })
}

/// The `(min,+)` identity of order `n`: zero diagonal, `+∞` elsewhere.
/// (It is staircase-free but contains infinities; it is *not* Monge in the
/// finite sense, and is provided for algebraic tests only.)
pub fn min_plus_identity<T: Value>(n: usize) -> Dense<T> {
    Dense::tabulate(n, n, |i, j| if i == j { T::ZERO } else { T::INFINITY })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random_monge_dense;
    use crate::monge::is_monge;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn min_plus_matches_brute() {
        let mut rng = StdRng::seed_from_u64(30);
        for &(p, q, r) in &[(5usize, 6usize, 7usize), (8, 3, 8), (1, 9, 1)] {
            let d = random_monge_dense(p, q, &mut rng);
            let e = random_monge_dense(q, r, &mut rng);
            assert_eq!(min_plus(&d, &e), min_plus_brute(&d, &e));
        }
    }

    #[test]
    fn min_plus_of_monge_is_monge() {
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..20 {
            let d = random_monge_dense(7, 5, &mut rng);
            let e = random_monge_dense(5, 6, &mut rng);
            let f = min_plus(&d, &e);
            assert!(is_monge(&f), "(min,+) product lost Monge-ness");
        }
    }

    #[test]
    fn max_plus_matches_brute() {
        let mut rng = StdRng::seed_from_u64(32);
        for _ in 0..10 {
            let d = random_monge_dense(6, 8, &mut rng);
            let e = random_monge_dense(8, 4, &mut rng);
            let got = max_plus(&d, &e);
            let want = Dense::tabulate(6, 4, |i, k| {
                (0..8).map(|j| d.entry(i, j) + e.entry(j, k)).max().unwrap()
            });
            assert_eq!(got, want);
        }
    }

    #[test]
    fn max_plus_of_inverse_monge_is_inverse_monge() {
        use crate::generators::random_inverse_monge_dense;
        use crate::monge::is_inverse_monge;
        let mut rng = StdRng::seed_from_u64(35);
        for _ in 0..20 {
            let d = random_inverse_monge_dense(6, 8, &mut rng);
            let e = random_inverse_monge_dense(8, 4, &mut rng);
            let f = max_plus_inverse(&d, &e);
            assert!(
                is_inverse_monge(&f),
                "(max,+) product lost inverse-Monge-ness"
            );
            let want = Dense::tabulate(6, 4, |i, k| {
                (0..8).map(|j| d.entry(i, j) + e.entry(j, k)).max().unwrap()
            });
            assert_eq!(f, want);
        }
    }

    #[test]
    fn min_plus_evaluates_each_factor_entry_at_most_once() {
        use crate::eval::CountingArray;
        let mut rng = StdRng::seed_from_u64(36);
        let (p, q, r) = (60usize, 8usize, 8usize);
        let d = random_monge_dense(p, q, &mut rng);
        let e = random_monge_dense(q, r, &mut rng);
        let (dc, ec) = (CountingArray::new(&d), CountingArray::new(&e));
        assert_eq!(min_plus(&dc, &ec), min_plus_brute(&d, &e));
        // The sweep reads E once into its transpose and D once per plane.
        assert!(
            ec.evaluations() <= (q * r) as u64,
            "E: {}",
            ec.evaluations()
        );
        assert!(
            dc.evaluations() <= (p * q) as u64,
            "D: {}",
            dc.evaluations()
        );
    }

    #[test]
    fn min_plus_is_associative() {
        let mut rng = StdRng::seed_from_u64(33);
        let a = random_monge_dense(4, 5, &mut rng);
        let b = random_monge_dense(5, 6, &mut rng);
        let c = random_monge_dense(6, 3, &mut rng);
        let left = min_plus(&min_plus(&a, &b), &c);
        let right = min_plus(&a, &min_plus(&b, &c));
        assert_eq!(left, right);
    }

    #[test]
    fn identity_behaves() {
        let mut rng = StdRng::seed_from_u64(34);
        let a = random_monge_dense(4, 4, &mut rng);
        let id = min_plus_identity::<i64>(4);
        assert_eq!(min_plus_brute(&a, &id), a);
        assert_eq!(min_plus_brute(&id, &a), a);
    }
}
