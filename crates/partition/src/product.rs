//! The partition product `π' · π''` (Lemma 3).
//!
//! The product of two partitions is the least refined partition refining
//! both — and by Lemma 3, `π_X · π_Y = π_{X∪Y}`. TANE uses this to compute
//! each level-ℓ partition from two of its level-(ℓ−1) subsets instead of
//! re-grouping the whole relation.
//!
//! The algorithm is the probe-table construction from the extended report
//! \[4\]: mark each row of `π'` with its class id in a table `T`, then walk
//! the classes of `π''`, bucketing rows by their `T` mark; buckets of size
//! ≥ 2 become classes of the product; finally clear `T`. That is about
//! 2‖π̂'‖ + 2‖π̂''‖ row touches — independent of `|r|` except through the
//! partitions themselves — and the scratch tables are reused across calls
//! so the hot loop performs no allocation.
//!
//! TANE's search does not call this kernel. Every lattice product has a
//! singleton factor (`π_X · π_{A}`), whose probe table is a fixed label
//! column, so the search runs the column-probe refinement of
//! [`mod@crate::refine`] instead: one parent fetched, about 2‖π̂_X‖ touches.
//! The general product remains for arbitrary pairs (association-rule
//! mining, `StrippedPartition::from_attr_set`) and as the reference the
//! refinement is tested against.

use crate::stripped::StrippedPartition;

/// Sentinel meaning "row not in any stripped class of π'".
const NONE: u32 = u32::MAX;

/// Reusable scratch space for [`product_with_scratch`].
///
/// One instance per thread; `new` allocates O(|r|) once and every product
/// call reuses it. TANE allocates a single scratch for the whole run.
#[derive(Debug)]
pub struct ProductScratch {
    /// `t[row]` = class id of `row` in π̂' (or NONE), valid only during a call.
    t: Vec<u32>,
    /// One bucket per class of π̂'; `s[i]` collects rows of the current π''
    /// class marked with class `i`.
    s: Vec<Vec<u32>>,
}

impl ProductScratch {
    /// Allocates scratch for relations of up to `n_rows` rows.
    pub fn new(n_rows: usize) -> ProductScratch {
        ProductScratch {
            t: vec![NONE; n_rows],
            s: Vec::new(),
        }
    }

    fn ensure(&mut self, n_rows: usize, n_classes: usize) {
        if self.t.len() < n_rows {
            self.t.resize(n_rows, NONE);
        }
        if self.s.len() < n_classes {
            self.s.resize_with(n_classes, Vec::new);
        }
    }
}

/// Computes `π' · π''`, allocating fresh scratch. Prefer
/// [`product_with_scratch`] in loops.
pub fn product(lhs: &StrippedPartition, rhs: &StrippedPartition) -> StrippedPartition {
    let mut scratch = ProductScratch::new(lhs.n_rows().max(rhs.n_rows()));
    product_with_scratch(lhs, rhs, &mut scratch)
}

/// Computes `π' · π''` using caller-provided scratch tables.
///
/// # Panics
///
/// Panics if the two partitions disagree on `|r|` (they must come from the
/// same relation).
pub fn product_with_scratch(
    lhs: &StrippedPartition,
    rhs: &StrippedPartition,
    scratch: &mut ProductScratch,
) -> StrippedPartition {
    assert_eq!(
        lhs.n_rows(),
        rhs.n_rows(),
        "partitions of different relations"
    );
    let n_rows = lhs.n_rows();
    // Probing the smaller side first touches less memory; the product is
    // commutative so this is purely a performance choice.
    let (a, b) = if lhs.num_elements() <= rhs.num_elements() {
        (lhs, rhs)
    } else {
        (rhs, lhs)
    };

    scratch.ensure(n_rows, a.num_classes());

    // Phase 1: mark rows of π̂_a with their class id.
    for (i, class) in a.classes().enumerate() {
        for &row in class {
            scratch.t[row as usize] = i as u32;
        }
    }

    // Phase 2: walk classes of π̂_b, bucketing by mark.
    let mut elements = Vec::new();
    let mut begins = vec![0u32];
    for class in b.classes() {
        for &row in class {
            let mark = scratch.t[row as usize];
            if mark != NONE {
                scratch.s[mark as usize].push(row);
            }
        }
        for &row in class {
            let mark = scratch.t[row as usize];
            if mark == NONE {
                continue;
            }
            let bucket = &mut scratch.s[mark as usize];
            if bucket.len() >= 2 {
                elements.extend_from_slice(bucket);
                begins.push(elements.len() as u32);
            }
            bucket.clear();
        }
    }

    // Phase 3: clear marks for the next call.
    for class in a.classes() {
        for &row in class {
            scratch.t[row as usize] = NONE;
        }
    }

    StrippedPartition::from_parts(n_rows, elements, begins)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn singleton(r: &Relation, a: usize) -> StrippedPartition {
        StrippedPartition::from_column(r.column_codes(a))
    }

    #[test]
    fn lemma3_on_figure1() {
        let r = figure1();
        let pi_b = singleton(&r, 1);
        let pi_c = singleton(&r, 2);
        let prod = product(&pi_b, &pi_c);
        let direct = StrippedPartition::from_attr_set(&r, AttrSet::from_indices([1, 2]));
        assert_eq!(prod.canonicalize(), direct.canonicalize());
        // π_{B,C} stripped = {{3,4}} (0-based {2,3})
        assert_eq!(prod.num_classes(), 1);
        assert_eq!(prod.rank(), 7);
    }

    #[test]
    fn product_is_commutative() {
        let r = figure1();
        for x in 0..4 {
            for y in 0..4 {
                let p = product(&singleton(&r, x), &singleton(&r, y));
                let q = product(&singleton(&r, y), &singleton(&r, x));
                assert_eq!(p.canonicalize(), q.canonicalize(), "attrs {x},{y}");
            }
        }
    }

    #[test]
    fn product_is_idempotent() {
        let r = figure1();
        for x in 0..4 {
            let pi = singleton(&r, x);
            let p = product(&pi, &pi);
            assert_eq!(p.canonicalize(), pi.canonicalize(), "attr {x}");
        }
    }

    #[test]
    fn product_with_unit_is_identity() {
        let r = figure1();
        let unit = StrippedPartition::unit(r.num_rows());
        for x in 0..4 {
            let pi = singleton(&r, x);
            let p = product(&pi, &unit);
            assert_eq!(p.canonicalize(), pi.canonicalize(), "attr {x}");
        }
    }

    #[test]
    fn product_with_superkey_is_empty() {
        let key = StrippedPartition::from_column(&[0, 1, 2, 3]);
        let other = StrippedPartition::from_column(&[0, 0, 1, 1]);
        let p = product(&key, &other);
        assert!(p.is_superkey());
        assert_eq!(p.rank(), 4);
    }

    #[test]
    fn three_way_products_associate() {
        let r = figure1();
        let a = singleton(&r, 0);
        let b = singleton(&r, 1);
        let c = singleton(&r, 2);
        let ab_c = product(&product(&a, &b), &c);
        let a_bc = product(&a, &product(&b, &c));
        assert_eq!(ab_c.canonicalize(), a_bc.canonicalize());
        let direct = StrippedPartition::from_attr_set(&r, AttrSet::from_indices([0, 1, 2]));
        assert_eq!(ab_c.canonicalize(), direct.canonicalize());
    }

    #[test]
    fn scratch_reuse_is_clean_across_calls() {
        let r = figure1();
        let mut scratch = ProductScratch::new(r.num_rows());
        let mut results = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                results.push(product_with_scratch(
                    &singleton(&r, x),
                    &singleton(&r, y),
                    &mut scratch,
                ));
            }
        }
        // Recompute with fresh scratch each time; must be identical.
        let mut i = 0;
        for x in 0..4 {
            for y in 0..4 {
                let fresh = product(&singleton(&r, x), &singleton(&r, y));
                assert_eq!(
                    results[i].canonicalize(),
                    fresh.canonicalize(),
                    "pair {x},{y}"
                );
                i += 1;
            }
        }
    }

    #[test]
    fn scratch_grows_on_demand() {
        let mut scratch = ProductScratch::new(0);
        let p = StrippedPartition::from_column(&[0, 0, 1, 1]);
        let q = StrippedPartition::from_column(&[0, 1, 0, 1]);
        let prod = product_with_scratch(&p, &q, &mut scratch);
        assert!(prod.is_superkey());
    }

    #[test]
    #[should_panic(expected = "different relations")]
    fn mismatched_row_counts_panic() {
        let p = StrippedPartition::from_column(&[0, 0]);
        let q = StrippedPartition::from_column(&[0, 0, 0]);
        let _ = product(&p, &q);
    }

    #[test]
    fn product_of_empty_partitions() {
        let p = StrippedPartition::empty(10);
        let q = StrippedPartition::unit(10);
        assert!(product(&p, &q).is_superkey());
        assert!(product(&p, &p).is_superkey());
    }
}
