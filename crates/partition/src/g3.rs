//! The `g3` approximation error and its cheap bounds.
//!
//! `g3(X → A)` is the minimum fraction of rows that must be removed from `r`
//! for `X → A` to hold (Kivinen & Mannila's measure, adopted by the paper in
//! Section 1). Section 2 derives the partition form:
//!
//! ```text
//! g3(X → A) = 1 − Σ_{c ∈ π_X} max{ |c'| : c' ∈ π_{X∪{A}}, c' ⊆ c } / |r|
//! ```
//!
//! [`g3_removed_rows`] implements the O(‖π̂‖) representative-table algorithm
//! from the extended report \[4\] over `π̂_X` and `π̂_{X∪{A}}`. TANE's
//! search instead computes the same number from `π̂_X` and `A`'s label
//! column ([`g3_removed_rows_by_labels`](crate::g3_removed_rows_by_labels)),
//! so it never fetches `π̂_{X∪{A}}`; the two-partition form here is its
//! test oracle. [`G3Bounds`] implements the quick bound
//! from the same report ("a method to quickly bound the g3 error",
//! paper Section 5) that lets approximate TANE decide most validity tests
//! without running the exact algorithm:
//!
//! * **upper bound** — `g3(X → A) ≤ e(X)`: removing the `e(X)·|r|` rows that
//!   make `X` a superkey certainly makes `X → A` hold.
//! * **lower bound** — `g3(X → A) ≥ e(X) − e(X∪{A})`: if `X → A` holds after
//!   removing a set `S` of rows, then on the remaining rows `π_X` and
//!   `π_{X∪{A}}` coincide, so `e(X) ≤ e(X∪{A}) + |S|/|r|` (each removed row
//!   lowers `e` by at most `1/|r|`).

use crate::stripped::StrippedPartition;

/// Reusable scratch for [`g3_removed_rows`]: `size_of[row]` = size of the
/// row's class in `π̂_{X∪{A}}` (0 when the row is in a singleton class).
#[derive(Debug, Default)]
pub struct G3Scratch {
    size_of: Vec<u32>,
}

impl G3Scratch {
    /// Allocates scratch for up to `n_rows` rows.
    pub fn new(n_rows: usize) -> G3Scratch {
        G3Scratch {
            size_of: vec![0; n_rows],
        }
    }
}

/// Number of rows that must be removed for `X → A` to hold, computed from
/// `π̂_X` and `π̂_{X∪{A}}` with caller-provided scratch.
///
/// # Panics
///
/// Panics if the partitions disagree on `|r|`. For a meaningful result
/// `pi_xa` must be (structurally) the product of `pi_x` with some singleton
/// partition — i.e. refine `pi_x` — which is how TANE always calls it.
pub fn g3_removed_rows_with_scratch(
    pi_x: &StrippedPartition,
    pi_xa: &StrippedPartition,
    scratch: &mut G3Scratch,
) -> usize {
    assert_eq!(
        pi_x.n_rows(),
        pi_xa.n_rows(),
        "partitions of different relations"
    );
    let n = pi_x.n_rows();
    if scratch.size_of.len() < n {
        scratch.size_of.resize(n, 0);
    }

    // Mark each row of π̂_{XA} with the size of its class.
    for class in pi_xa.classes() {
        let size = class.len() as u32;
        for &row in class {
            scratch.size_of[row as usize] = size;
        }
    }

    // For each class c of π̂_X, keep the largest contained subclass.
    let mut removed = 0usize;
    for class in pi_x.classes() {
        let mut largest = 1u32; // stripped-away subclasses have size 1
        for &row in class {
            let s = scratch.size_of[row as usize];
            if s > largest {
                largest = s;
            }
        }
        removed += class.len() - largest as usize;
    }

    // Reset scratch for the next call.
    for class in pi_xa.classes() {
        for &row in class {
            scratch.size_of[row as usize] = 0;
        }
    }
    removed
}

/// [`g3_removed_rows_with_scratch`] with fresh scratch.
pub fn g3_removed_rows(pi_x: &StrippedPartition, pi_xa: &StrippedPartition) -> usize {
    let mut scratch = G3Scratch::new(pi_x.n_rows());
    g3_removed_rows_with_scratch(pi_x, pi_xa, &mut scratch)
}

/// `g3(X → A)` as a fraction of `|r|` (0 for an empty relation).
pub fn g3_error(pi_x: &StrippedPartition, pi_xa: &StrippedPartition) -> f64 {
    let n = pi_x.n_rows();
    if n == 0 {
        0.0
    } else {
        g3_removed_rows(pi_x, pi_xa) as f64 / n as f64
    }
}

/// The sandwich bounds on `g3(X → A)` computable in O(1) from the partition
/// summaries, used to skip exact `g3` computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct G3Bounds {
    /// Lower bound in removed rows: `max(0, e(X)·|r| − e(X∪{A})·|r|)`.
    pub lower_rows: usize,
    /// Upper bound in removed rows: `e(X)·|r|`.
    pub upper_rows: usize,
    /// `|r|`.
    pub n_rows: usize,
}

impl G3Bounds {
    /// Computes the bounds from `π̂_X` and `π̂_{X∪{A}}`.
    pub fn new(pi_x: &StrippedPartition, pi_xa: &StrippedPartition) -> G3Bounds {
        assert_eq!(
            pi_x.n_rows(),
            pi_xa.n_rows(),
            "partitions of different relations"
        );
        let e_x = pi_x.error_rows();
        let e_xa = pi_xa.error_rows();
        G3Bounds {
            lower_rows: e_x.saturating_sub(e_xa),
            upper_rows: e_x,
            n_rows: pi_x.n_rows(),
        }
    }

    /// Lower bound as a fraction.
    pub fn lower(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.lower_rows as f64 / self.n_rows as f64
        }
    }

    /// Upper bound as a fraction.
    pub fn upper(&self) -> f64 {
        if self.n_rows == 0 {
            0.0
        } else {
            self.upper_rows as f64 / self.n_rows as f64
        }
    }

    /// Tries to decide `g3 ≤ epsilon` from the bounds alone:
    /// `Some(true)` / `Some(false)` when decidable, `None` when the exact
    /// error must be computed.
    pub fn decide(&self, epsilon: f64) -> Option<bool> {
        if self.upper() <= epsilon {
            Some(true)
        } else if self.lower() > epsilon {
            Some(false)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::product::product;
    use tane_relation::{Relation, Schema, Value};
    use tane_util::AttrSet;

    fn figure1() -> Relation {
        let schema = Schema::new(["A", "B", "C", "D"]).unwrap();
        let mut b = Relation::builder(schema);
        for row in [
            ["1", "a", "$", "Flower"],
            ["1", "A", "L", "Tulip"],
            ["2", "A", "$", "Daffodil"],
            ["2", "A", "$", "Flower"],
            ["2", "b", "L", "Lily"],
            ["3", "b", "$", "Orchid"],
            ["3", "c", "L", "Flower"],
            ["3", "c", "#", "Rose"],
        ] {
            b.push_row(row.map(Value::from)).unwrap();
        }
        b.build()
    }

    fn pi(r: &Relation, attrs: &[usize]) -> StrippedPartition {
        StrippedPartition::from_attr_set(r, AttrSet::from_indices(attrs.iter().copied()))
    }

    /// Brute-force g3: try removing every subset? Too slow — instead use the
    /// definitional form directly on full partitions.
    fn g3_reference(r: &Relation, x: &[usize], a: usize) -> usize {
        use crate::full::Partition;
        let px = Partition::from_attr_set(r, AttrSet::from_indices(x.iter().copied()));
        let pxa = Partition::from_attr_set(r, AttrSet::from_indices(x.iter().copied()).with(a));
        let mut keep = 0usize;
        for c in px.classes() {
            let best = pxa
                .classes()
                .iter()
                .filter(|c2| c2.iter().all(|t| c.contains(t)))
                .map(|c2| c2.len())
                .max()
                .unwrap_or(0);
            keep += best;
        }
        r.num_rows() - keep
    }

    #[test]
    fn valid_dependency_has_zero_error() {
        // {B,C} → A holds in Figure 1.
        let r = figure1();
        let pi_bc = pi(&r, &[1, 2]);
        let pi_abc = pi(&r, &[0, 1, 2]);
        assert_eq!(g3_removed_rows(&pi_bc, &pi_abc), 0);
        assert_eq!(g3_error(&pi_bc, &pi_abc), 0.0);
    }

    #[test]
    fn invalid_dependency_error_on_figure1() {
        // {A} → B: π_A = {{1,2},{3,4,5},{6,7,8}}, π_AB = {{1},{2},{3,4},{5},{6},{7,8}}.
        // Class {1,2}: largest subclass 1 → remove 1. {3,4,5}: largest {3,4} → remove 1.
        // {6,7,8}: largest {7,8} → remove 1. Total 3 rows, g3 = 3/8.
        let r = figure1();
        let pi_a = pi(&r, &[0]);
        let pi_ab = pi(&r, &[0, 1]);
        assert_eq!(g3_removed_rows(&pi_a, &pi_ab), 3);
        assert!((g3_error(&pi_a, &pi_ab) - 0.375).abs() < 1e-12);
    }

    #[test]
    fn matches_reference_on_all_figure1_pairs() {
        let r = figure1();
        let mut scratch = G3Scratch::new(r.num_rows());
        for bits in 0u64..16 {
            let x = AttrSet::from_bits(bits);
            for a in 0..4usize {
                if x.contains(a) {
                    continue;
                }
                let px = StrippedPartition::from_attr_set(&r, x);
                let pxa = StrippedPartition::from_attr_set(&r, x.with(a));
                let got = g3_removed_rows_with_scratch(&px, &pxa, &mut scratch);
                let xs: Vec<usize> = x.iter().collect();
                let want = g3_reference(&r, &xs, a);
                assert_eq!(got, want, "X={x:?}, A={a}");
            }
        }
    }

    #[test]
    fn empty_lhs_counts_most_common_value() {
        // ∅ → A: keep the largest class of π_A = {3,4,5} (3 rows) → remove 5.
        let r = figure1();
        let unit = StrippedPartition::unit(8);
        let pi_a = pi(&r, &[0]);
        assert_eq!(g3_removed_rows(&unit, &pi_a), 5);
    }

    #[test]
    fn superkey_lhs_zero_error() {
        let r = figure1();
        let key = pi(&r, &[0, 1, 2, 3]);
        let key_d = pi(&r, &[0, 1, 2, 3]); // adding nothing new
        assert_eq!(g3_removed_rows(&key, &key_d), 0);
    }

    #[test]
    fn bounds_sandwich_exact_value_everywhere() {
        let r = figure1();
        for bits in 0u64..16 {
            let x = AttrSet::from_bits(bits);
            for a in 0..4usize {
                if x.contains(a) {
                    continue;
                }
                let px = StrippedPartition::from_attr_set(&r, x);
                let pxa = StrippedPartition::from_attr_set(&r, x.with(a));
                let exact = g3_removed_rows(&px, &pxa);
                let bounds = G3Bounds::new(&px, &pxa);
                assert!(bounds.lower_rows <= exact, "lower X={x:?} A={a}");
                assert!(exact <= bounds.upper_rows, "upper X={x:?} A={a}");
            }
        }
    }

    #[test]
    fn decide_respects_bounds() {
        let b = G3Bounds {
            lower_rows: 2,
            upper_rows: 5,
            n_rows: 10,
        };
        assert_eq!(b.decide(0.6), Some(true)); // upper 0.5 ≤ 0.6
        assert_eq!(b.decide(0.5), Some(true));
        assert_eq!(b.decide(0.1), Some(false)); // lower 0.2 > 0.1
        assert_eq!(b.decide(0.3), None); // in between
        let empty = G3Bounds {
            lower_rows: 0,
            upper_rows: 0,
            n_rows: 0,
        };
        assert_eq!(empty.decide(0.0), Some(true));
    }

    #[test]
    fn g3_with_product_partitions() {
        // Same answers whether π_{XA} comes from a product or directly.
        let r = figure1();
        let pi_a = pi(&r, &[0]);
        let pi_d = pi(&r, &[3]);
        let prod = product(&pi_a, &pi_d);
        let direct = pi(&r, &[0, 3]);
        assert_eq!(
            g3_removed_rows(&pi_a, &prod),
            g3_removed_rows(&pi_a, &direct)
        );
    }

    #[test]
    fn scratch_reuse_is_clean() {
        let r = figure1();
        let mut scratch = G3Scratch::new(r.num_rows());
        let pi_a = pi(&r, &[0]);
        let pi_ab = pi(&r, &[0, 1]);
        let first = g3_removed_rows_with_scratch(&pi_a, &pi_ab, &mut scratch);
        for _ in 0..5 {
            assert_eq!(
                g3_removed_rows_with_scratch(&pi_a, &pi_ab, &mut scratch),
                first
            );
        }
    }

    #[test]
    fn empty_relation_is_zero() {
        let p = StrippedPartition::empty(0);
        assert_eq!(g3_error(&p, &p), 0.0);
        assert_eq!(g3_removed_rows(&p, &p), 0);
    }
}
