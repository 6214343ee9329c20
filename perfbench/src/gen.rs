//! Seeded input generation. Every input a workload feeds the program is
//! a pure function of the `--seed` argument, drawn here with SplitMix64
//! so the stream does not depend on any other crate's RNG.

use monge_core::array2d::Dense;
use monge_core::generators::apply_staircase;
use std::ops::Range;

/// SplitMix64: tiny, fast, and stable across platforms and releases.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream derived from `seed` and a `salt`, so each workload part
    /// draws independently of how much the others consumed.
    pub fn derive(seed: u64, salt: u64) -> Self {
        Rng(mix(seed ^ mix(salt)))
    }

    pub fn next_u64(&mut self) -> u64 {
        let out = mix(self.0);
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        out
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }
}

/// The SplitMix64 step: advance by the golden gamma, then finalize.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A dense `m × n` Monge array by density integration:
/// `a[i,j] = u[i] + v[j] - Σ_{i'≤i, j'≤j} g[i',j']` with `g ≥ 0`, so every
/// adjacent quadrangle has non-positive mixed difference.
pub fn monge(rng: &mut Rng, m: usize, n: usize) -> Dense<i64> {
    let u: Vec<i64> = (0..m).map(|_| rng.between(-1000, 1000)).collect();
    let v: Vec<i64> = (0..n).map(|_| rng.between(-1000, 1000)).collect();
    let mut prefix = vec![0i64; n];
    let mut data = Vec::with_capacity(m * n);
    for (i, &ui) in u.iter().enumerate() {
        let mut row_acc = 0i64;
        for (j, (&vj, p)) in v.iter().zip(prefix.iter_mut()).enumerate() {
            if i > 0 && j > 0 {
                row_acc += rng.below(17) as i64;
            }
            *p += row_acc;
            data.push(ui + vj - *p);
        }
    }
    Dense::from_vec(m, n, data)
}

/// A staircase-Monge instance: a Monge base with `+∞` at columns
/// `>= f[i]`, for a non-increasing boundary `f` with `1 ≤ f[i] ≤ n`.
pub fn staircase(rng: &mut Rng, m: usize, n: usize) -> (Dense<i64>, Vec<usize>) {
    let base = monge(rng, m, n);
    let mut f: Vec<usize> = (0..m).map(|_| 1 + rng.below(n as u64) as usize).collect();
    f.sort_unstable_by(|a, b| b.cmp(a));
    (apply_staircase(&base, &f), f)
}

/// A non-empty sub-range of `0..n`, both ends uniform.
pub fn range(rng: &mut Rng, n: usize) -> Range<usize> {
    let a = rng.below(n as u64 + 1) as usize;
    let b = rng.below(n as u64 + 1) as usize;
    match a.cmp(&b) {
        std::cmp::Ordering::Less => a..b,
        std::cmp::Ordering::Greater => b..a,
        std::cmp::Ordering::Equal if a < n => a..a + 1,
        std::cmp::Ordering::Equal => a - 1..a,
    }
}

/// A random rectangle of an `m × n` array.
pub fn rect(rng: &mut Rng, m: usize, n: usize) -> (Range<usize>, Range<usize>) {
    (range(rng, m), range(rng, n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use monge_core::monge::{is_monge, is_staircase_monge};

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let draw = |seed| {
            let mut r = Rng::derive(seed, 7);
            let a = monge(&mut r, 9, 13);
            let (s, f) = staircase(&mut r, 8, 8);
            let q = rect(&mut r, 100, 100);
            (a.data().to_vec(), s.data().to_vec(), f, q)
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn generated_arrays_keep_their_structure() {
        let mut r = Rng::derive(5, 0);
        assert!(is_monge(&monge(&mut r, 17, 11)));
        let (s, f) = staircase(&mut r, 12, 12);
        assert!(is_staircase_monge(&s));
        assert!(f.windows(2).all(|w| w[0] >= w[1]) && f.iter().all(|&x| (1..=12).contains(&x)));
    }

    #[test]
    fn ranges_are_non_empty_and_in_bounds() {
        let mut r = Rng::derive(9, 0);
        for n in 1..40 {
            for _ in 0..50 {
                let g = range(&mut r, n);
                assert!(g.start < g.end && g.end <= n);
            }
        }
    }
}
