//! Partition kernel properties.
//!
//! The differential suite runs in every build: SplitMix64-driven random
//! relations (std only) on which the column-probe refinement and its `g3`
//! must agree with the two-partition product, the `full.rs` grouping
//! oracle, and the definitional `g3`. A failing case is shrunk by deleting
//! rows before it is reported.
//!
//! The proptest properties in `props` further down require the `proptest`
//! cargo feature (and a restored `proptest` dev-dependency): the offline
//! build environment cannot resolve registry crates, so that module is
//! compiled out of the default build.

use tane_partition::{
    class_labels, g3_removed_rows, g3_removed_rows_by_labels, g3_removed_rows_with_scratch,
    product, product_with_scratch, refine, refine_with_scratch, G3Scratch, Partition,
    ProductScratch, RefineScratch, StrippedPartition,
};
use tane_relation::{Relation, Schema};
use tane_util::{AttrSet, SplitMix64};

/// Random relations checked by the differential suite.
const CASES: usize = 150;

/// A random code column of `rows` rows and cardinality at most `1..=rows`.
/// Half the columns keep dense codes; the other half get the sparse,
/// gappy stable codes an incremental delta leaves behind (values that were
/// deleted or never used keep their codes reserved).
fn random_column(rng: &mut SplitMix64, rows: usize) -> Vec<u32> {
    let max_card = rows.max(1) as u32;
    // Bias half the columns toward low cardinality, so classes are large.
    let card = 1 + if rng.u32_below(2) == 0 {
        rng.u32_below(max_card.min(6))
    } else {
        rng.u32_below(max_card)
    };
    let dense: Vec<u32> = (0..rows).map(|_| rng.u32_below(card)).collect();
    if rng.u32_below(2) == 0 {
        return dense;
    }
    let mut code = rng.u32_below(1000);
    let sparse: Vec<u32> = (0..card)
        .map(|_| {
            code += 1 + rng.u32_below(40);
            code
        })
        .collect();
    dense.iter().map(|&c| sparse[c as usize]).collect()
}

fn random_relation(rng: &mut SplitMix64) -> Relation {
    let rows = rng.u32_below(301) as usize;
    let attrs = 1 + rng.u32_below(5) as usize;
    let columns = (0..attrs).map(|_| random_column(rng, rows)).collect();
    Relation::from_codes(Schema::anonymous(attrs).unwrap(), columns).unwrap()
}

fn columns(r: &Relation) -> Vec<Vec<u32>> {
    (0..r.num_attrs())
        .map(|a| r.column_codes(a).to_vec())
        .collect()
}

fn without_row(r: &Relation, t: usize) -> Relation {
    let mut cols = columns(r);
    for c in &mut cols {
        c.remove(t);
    }
    Relation::from_codes(Schema::anonymous(cols.len()).unwrap(), cols).unwrap()
}

/// Definitional `g3` in rows: for every class of the full `π_X`, keep the
/// rows agreeing with its most common `A` value, remove the rest.
fn g3_reference(r: &Relation, x: AttrSet, a: usize) -> usize {
    let codes = r.column_codes(a);
    Partition::from_attr_set(r, x)
        .classes()
        .iter()
        .map(|class| {
            let mut values: Vec<u32> = class.iter().map(|&t| codes[t as usize]).collect();
            values.sort_unstable();
            let largest = values
                .chunk_by(|p, q| p == q)
                .map(<[u32]>::len)
                .max()
                .unwrap_or(0);
            class.len() - largest
        })
        .sum()
}

/// Scratch shared across every relation of the run, so reuse across sizes
/// and cardinalities is exercised on every call.
struct Scratches {
    refine: RefineScratch,
    product: ProductScratch,
    g3: G3Scratch,
}

/// Checks the kernels on every `X` and `A ∉ X` of `r`.
fn check(r: &Relation, s: &mut Scratches) -> Result<(), String> {
    let n = r.num_attrs();
    for x in (0u64..(1 << n)).map(AttrSet::from_bits) {
        let px = StrippedPartition::from_attr_set(r, x);
        for a in (0..n).filter(|&a| !x.contains(a)) {
            let pa = StrippedPartition::from_column(r.column_codes(a));
            let labels = class_labels(&pa);
            let got = refine_with_scratch(&px, &labels, &mut s.refine);
            let at = format!("X={x:?} A={a}");
            if let Some(class) = got.classes().find(|c| c.windows(2).any(|w| w[0] >= w[1])) {
                return Err(format!("{at}: class {class:?} not ascending"));
            }
            if got != refine(&px, &labels) {
                return Err(format!("{at}: reused scratch changed the refinement"));
            }
            let pxa = product_with_scratch(&px, &pa, &mut s.product);
            let grouped = Partition::from_attr_set(r, x.with(a)).to_stripped();
            let got_c = got.canonicalize();
            if got_c != pxa.canonicalize() || got_c != grouped.canonicalize() {
                return Err(format!("{at}: refinement {got_c:?} != {grouped:?}"));
            }
            let g3 = g3_removed_rows_by_labels(&px, &labels, &mut s.refine);
            let two = g3_removed_rows_with_scratch(&px, &pxa, &mut s.g3);
            let def = g3_reference(r, x, a);
            if g3 != two || g3 != def {
                return Err(format!(
                    "{at}: g3 by labels {g3}, two-partition {two}, definition {def}"
                ));
            }
        }
    }
    Ok(())
}

#[test]
fn refinement_and_g3_agree_with_oracles_on_random_relations() {
    // Zero-sized scratch: every relation of the run has to grow it.
    let mut s = Scratches {
        refine: RefineScratch::new(0),
        product: ProductScratch::new(0),
        g3: G3Scratch::new(0),
    };
    let mut rng = SplitMix64::new(0x7a4e_5eed);
    for case in 0..CASES {
        let mut r = random_relation(&mut rng);
        let Err(first) = check(&r, &mut s) else {
            continue;
        };
        // Shrink by row deletion while the failure persists.
        let mut msg = first;
        'shrink: loop {
            for t in 0..r.num_rows() {
                let smaller = without_row(&r, t);
                if let Err(m) = check(&smaller, &mut s) {
                    r = smaller;
                    msg = m;
                    continue 'shrink;
                }
            }
            break;
        }
        panic!(
            "case {case}: {msg}\nshrunk to {} rows, columns {:?}",
            r.num_rows(),
            columns(&r)
        );
    }
}

#[test]
fn refinement_of_edge_parents() {
    // Larger than any relation below: reuse on smaller inputs.
    let mut s = RefineScratch::new(64);
    for rows in [0usize, 1, 2, 3, 17] {
        let n = rows as u32;
        let constant = vec![5; rows];
        let distinct: Vec<u32> = (0..n).map(|t| 3 * t + 1).collect();
        let alternating: Vec<u32> = (0..n).map(|t| (t % 2) * 1000).collect();
        for column in [constant, distinct, alternating] {
            let pa = StrippedPartition::from_column(&column);
            let labels = class_labels(&pa);
            let unit = StrippedPartition::unit(rows);
            let superkey = StrippedPartition::empty(rows);
            for parent in [&unit, &superkey, &pa] {
                let got = refine_with_scratch(parent, &labels, &mut s);
                let want = product(parent, &pa);
                assert_eq!(got.canonicalize(), want.canonicalize(), "rows={rows}");
                assert_eq!(
                    g3_removed_rows_by_labels(parent, &labels, &mut s),
                    g3_removed_rows(parent, &want),
                    "rows={rows}"
                );
            }
            // π̂_∅ · π̂_A = π̂_A, a superkey stays one, and refining π̂_A by
            // its own labels is the identity — class order included.
            assert_eq!(refine(&unit, &labels).canonicalize(), pa.canonicalize());
            assert!(refine(&superkey, &labels).is_superkey());
            assert_eq!(g3_removed_rows_by_labels(&superkey, &labels, &mut s), 0);
            assert_eq!(refine(&pa, &labels), pa);
            assert_eq!(g3_removed_rows_by_labels(&pa, &labels, &mut s), 0);
        }
    }
}

#[cfg(feature = "proptest")]
mod props {
    use proptest::prelude::*;
    use tane_partition::{
        g3_removed_rows, product, G3Bounds, MemoryStore, Partition, PartitionStore,
        StrippedPartition,
    };
    use tane_relation::{Relation, Schema};
    use tane_util::AttrSet;

    /// Random relation: up to 5 attributes, up to 40 rows, small domains so
    /// agreements are frequent.
    fn relation() -> impl Strategy<Value = Relation> {
        (1usize..=5, 0usize..=40).prop_flat_map(|(n_attrs, n_rows)| {
            proptest::collection::vec(
                proptest::collection::vec(0u32..4, n_rows..=n_rows),
                n_attrs..=n_attrs,
            )
            .prop_map(move |cols| {
                Relation::from_codes(Schema::anonymous(cols.len()).unwrap(), cols).unwrap()
            })
        })
    }

    fn subsets(n_attrs: usize) -> impl Iterator<Item = AttrSet> {
        (0u64..(1 << n_attrs)).map(AttrSet::from_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Stripped and full partitions agree on every attribute subset.
        #[test]
        fn stripped_matches_full(r in relation()) {
            for x in subsets(r.num_attrs()) {
                let full = Partition::from_attr_set(&r, x);
                let stripped = StrippedPartition::from_attr_set(&r, x);
                prop_assert_eq!(full.rank(), stripped.rank(), "rank of {:?}", x);
                prop_assert_eq!(full.to_stripped().canonicalize(), stripped.canonicalize());
            }
        }

        /// Lemma 3: products equal direct computation, for random subset pairs.
        #[test]
        fn lemma3_product(r in relation()) {
            let n = r.num_attrs();
            for x in subsets(n).step_by(3) {
                for y in subsets(n).step_by(2) {
                    let px = StrippedPartition::from_attr_set(&r, x);
                    let py = StrippedPartition::from_attr_set(&r, y);
                    let direct = StrippedPartition::from_attr_set(&r, x.union(y));
                    prop_assert_eq!(
                        product(&px, &py).canonicalize(),
                        direct.canonicalize(),
                        "X={:?} Y={:?}", x, y
                    );
                }
            }
        }

        /// Lemmas 1 and 2 agree: refinement ⟺ equal rank ⟺ FD holds by brute force.
        #[test]
        fn lemma1_and_lemma2_agree(r in relation()) {
            let n = r.num_attrs();
            for x in subsets(n) {
                for a in 0..n {
                    if x.contains(a) {
                        continue;
                    }
                    // Brute-force FD check on codes.
                    let holds = fd_holds_brute_force(&r, x, a);
                    let full_x = Partition::from_attr_set(&r, x);
                    let full_a = Partition::from_attr_set(&r, AttrSet::singleton(a));
                    prop_assert_eq!(full_x.refines(&full_a), holds, "lemma1 X={:?} A={}", x, a);
                    let sx = StrippedPartition::from_attr_set(&r, x);
                    let sxa = StrippedPartition::from_attr_set(&r, x.with(a));
                    prop_assert_eq!(sx.rank() == sxa.rank(), holds, "lemma2 X={:?} A={}", x, a);
                    prop_assert_eq!(sx.implies_with(&sxa), holds);
                }
            }
        }

        /// g3 is 0 exactly when the FD holds, and the bounds always sandwich it.
        #[test]
        fn g3_consistency(r in relation()) {
            let n = r.num_attrs();
            for x in subsets(n) {
                for a in 0..n {
                    if x.contains(a) {
                        continue;
                    }
                    let sx = StrippedPartition::from_attr_set(&r, x);
                    let sxa = StrippedPartition::from_attr_set(&r, x.with(a));
                    let removed = g3_removed_rows(&sx, &sxa);
                    let holds = fd_holds_brute_force(&r, x, a);
                    prop_assert_eq!(removed == 0, holds, "X={:?} A={}", x, a);
                    let bounds = G3Bounds::new(&sx, &sxa);
                    prop_assert!(bounds.lower_rows <= removed);
                    prop_assert!(removed <= bounds.upper_rows);
                    // Removing that many rows must actually suffice: verify via
                    // the definitional keep-count.
                    prop_assert!(removed <= r.num_rows());
                }
            }
        }

        /// g3 monotonicity: enlarging the LHS never increases the error.
        #[test]
        fn g3_monotone_in_lhs(r in relation()) {
            let n = r.num_attrs();
            if n < 2 {
                return Ok(());
            }
            for x in subsets(n) {
                for b in 0..n {
                    if x.contains(b) {
                        continue;
                    }
                    for a in 0..n {
                        if x.contains(a) || a == b {
                            continue;
                        }
                        let small = g3_removed_rows(
                            &StrippedPartition::from_attr_set(&r, x),
                            &StrippedPartition::from_attr_set(&r, x.with(a)),
                        );
                        let xb = x.with(b);
                        let large = g3_removed_rows(
                            &StrippedPartition::from_attr_set(&r, xb),
                            &StrippedPartition::from_attr_set(&r, xb.with(a)),
                        );
                        prop_assert!(large <= small, "X={:?} B={} A={}", x, b, a);
                    }
                }
            }
        }

        /// The memory store returns exactly what was put, for many keys.
        #[test]
        fn memory_store_faithful(r in relation()) {
            let mut store = MemoryStore::new();
            for x in subsets(r.num_attrs()) {
                store.put(x, StrippedPartition::from_attr_set(&r, x)).unwrap();
            }
            for x in subsets(r.num_attrs()) {
                let got = store.get(x).unwrap();
                prop_assert_eq!(
                    got.canonicalize(),
                    StrippedPartition::from_attr_set(&r, x).canonicalize()
                );
            }
        }
    }

    /// Reference FD check straight from the definition in Section 1.
    fn fd_holds_brute_force(r: &Relation, x: AttrSet, a: usize) -> bool {
        for t in 0..r.num_rows() {
            for u in (t + 1)..r.num_rows() {
                let agree_x = x
                    .iter()
                    .all(|b| r.column_codes(b)[t] == r.column_codes(b)[u]);
                if agree_x && r.column_codes(a)[t] != r.column_codes(a)[u] {
                    return false;
                }
            }
        }
        true
    }
}
