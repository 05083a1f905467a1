//! Column-probe refinement: `π̂_{X∪{A}}` and exact `g3(X → A)` from `π̂_X`
//! and a per-row label column for `A`.
//!
//! By Lemma 3, `π_{X∪{A}} = π_X · π_{A}`, and the probe table of the
//! two-partition product ([`mod@crate::product`]) is, for a singleton right
//! factor, nothing but a per-row label column: `label[row]` = index of
//! `row`'s class in `π̂_A`, or [`STRIPPED`] when the row is alone in its
//! `A`-class. The search builds these columns once from the level-1
//! partitions ([`class_labels`]) and shares them read-only, so refining one
//! parent needs no marking pass and no clearing pass over a second
//! partition:
//!
//! * [`refine_with_scratch`] buckets each class of `π̂_X` by label —
//!   one counting pass, one scatter pass, about 2‖π̂_X‖ row touches — and
//!   emits buckets of size ≥ 2.
//! * [`g3_removed_rows_by_labels`] sums, over the classes `c` of `π̂_X`,
//!   `|c|` minus the largest count of one `A`-label in `c` — the `g3`
//!   formula of Section 2 without ever materializing `π̂_{X∪{A}}`.
//!
//! Labels are class indices, not dictionary codes, so they are dense in
//! `0..|π̂_A| ≤ |r|/2` whatever the codes look like (codes from
//! `Relation::from_codes` or an incremental delta can be sparse and large);
//! one [`RefineScratch`] of `|r|/2 + 1` counters serves every attribute.
//!
//! **Output order.** Classes come out in the order of the parent's classes,
//! and within one parent class in the order of their first row; rows within
//! a class stay ascending. That is a different class order than
//! [`product_with_scratch`](crate::product_with_scratch) produces for the
//! same set, but the same set of classes, and a pure function of the parent
//! and the labels — so every consumer (which reads only class sizes and
//! memberships) sees identical results.

use crate::stripped::StrippedPartition;

/// Label of a row that is stripped from `π̂_A` (a singleton `A`-class).
pub const STRIPPED: u32 = u32::MAX;

/// Marks a touched label whose bucket has fewer than two rows.
const SKIP: u32 = u32::MAX;

/// The label column of `π̂_A`: `labels[row]` is the index of `row`'s class
/// in `partition`, or [`STRIPPED`] when the row is in no stripped class.
///
/// # Examples
///
/// ```
/// use tane_partition::{class_labels, StrippedPartition, STRIPPED};
///
/// let pi = StrippedPartition::from_column(&[7, 3, 7, 9, 3]);
/// assert_eq!(class_labels(&pi), vec![1, 0, 1, STRIPPED, 0]);
/// ```
pub fn class_labels(partition: &StrippedPartition) -> Vec<u32> {
    let mut labels = vec![STRIPPED; partition.n_rows()];
    for (i, class) in partition.classes().enumerate() {
        for &row in class {
            labels[row as usize] = i as u32;
        }
    }
    labels
}

/// Reusable scratch for [`refine_with_scratch`] and
/// [`g3_removed_rows_by_labels`]: one per thread, reused across attributes,
/// nodes and levels.
#[derive(Debug, Default)]
pub struct RefineScratch {
    /// Per-label row count, reused as the scatter offset; all zero between
    /// calls.
    counts: Vec<u32>,
    /// Labels seen in the current class, in order of first appearance.
    touched: Vec<u32>,
    /// Labels of the current class's rows, in row order, so the scatter
    /// pass reads them sequentially instead of probing the column again.
    probed: Vec<u32>,
    /// Output rows of the refinement being built (a prefix of it).
    elements: Vec<u32>,
    /// Output class offsets of the refinement being built.
    begins: Vec<u32>,
}

impl RefineScratch {
    /// Allocates scratch for relations of up to `n_rows` rows: a stripped
    /// partition of `n_rows` rows has at most `n_rows / 2` classes, so that
    /// many label counters suffice.
    pub fn new(n_rows: usize) -> RefineScratch {
        RefineScratch {
            counts: vec![0; n_rows / 2 + 1],
            ..RefineScratch::default()
        }
    }

    fn ensure(&mut self, n_rows: usize) {
        if self.counts.len() < n_rows / 2 + 1 {
            self.counts.resize(n_rows / 2 + 1, 0);
        }
    }
}

fn check_labels(parent: &StrippedPartition, labels: &[u32]) {
    assert_eq!(
        parent.n_rows(),
        labels.len(),
        "label column of a different relation"
    );
}

/// `π̂_X · π̂_A` from `π̂_X` (`parent`) and the label column of `π̂_A`
/// (see [`class_labels`]), using caller-provided scratch.
///
/// The result is allocated at its exact size; the scratch buffers it is
/// assembled in are reused by the next call.
///
/// # Panics
///
/// Panics if `labels.len() != parent.n_rows()`, or if a label is neither
/// [`STRIPPED`] nor a class index of a stripped partition of `|r|` rows.
pub fn refine_with_scratch(
    parent: &StrippedPartition,
    labels: &[u32],
    scratch: &mut RefineScratch,
) -> StrippedPartition {
    check_labels(parent, labels);
    scratch.ensure(parent.n_rows());
    // The growing buffers are moved into locals for the call: their `len`
    // fields change on every push, and the scratches of different workers
    // may sit in one cache line, which would then bounce between cores.
    let mut touched = std::mem::take(&mut scratch.touched);
    let mut probed = std::mem::take(&mut scratch.probed);
    let mut begins = std::mem::take(&mut scratch.begins);
    let counts = &mut scratch.counts;
    let elements = &mut scratch.elements;
    // The output never outgrows the parent, so the buffer is sized once
    // and written through a cursor — no per-class resize or zero fill.
    if elements.len() < parent.num_elements() {
        elements.resize(parent.num_elements(), 0);
    }
    let mut len = 0usize;
    begins.clear();
    begins.push(0);
    for class in parent.classes() {
        if let [r0, r1] = *class {
            // Pairs are the bulk of the classes deep in the lattice.
            let l = labels[r0 as usize];
            if l != STRIPPED && l == labels[r1 as usize] {
                elements[len..len + 2].copy_from_slice(class);
                len += 2;
                begins.push(len as u32);
            }
            continue;
        }
        // Count rows per label, remembering first appearances.
        probed.clear();
        for &row in class {
            let l = labels[row as usize];
            probed.push(l);
            if l != STRIPPED {
                let n = &mut counts[l as usize];
                if *n == 0 {
                    touched.push(l);
                }
                *n += 1;
            }
        }
        // Lay out the buckets of size ≥ 2; counts become write cursors.
        for &l in &touched {
            let n = counts[l as usize];
            if n >= 2 {
                counts[l as usize] = len as u32;
                len += n as usize;
                begins.push(len as u32);
            } else {
                counts[l as usize] = SKIP;
            }
        }
        // Scatter in row order, so each bucket stays ascending.
        for (&row, &l) in class.iter().zip(probed.iter()) {
            if l != STRIPPED {
                let at = counts[l as usize];
                if at != SKIP {
                    elements[at as usize] = row;
                    counts[l as usize] = at + 1;
                }
            }
        }
        for &l in &touched {
            counts[l as usize] = 0;
        }
        touched.clear();
    }
    let refined =
        StrippedPartition::from_parts(parent.n_rows(), elements[..len].to_vec(), begins.to_vec());
    scratch.touched = touched;
    scratch.probed = probed;
    scratch.begins = begins;
    refined
}

/// [`refine_with_scratch`] with fresh scratch.
pub fn refine(parent: &StrippedPartition, labels: &[u32]) -> StrippedPartition {
    refine_with_scratch(parent, labels, &mut RefineScratch::new(parent.n_rows()))
}

/// Number of rows that must be removed for `X → A` to hold, from `π̂_X`
/// and the label column of `π̂_A`: `Σ_{c ∈ π̂_X} |c| − max_l |{t ∈ c :
/// label[t] = l}|`, where a stripped row counts as a label of its own.
///
/// Equals [`g3_removed_rows_with_scratch`](crate::g3_removed_rows_with_scratch)
/// on `π̂_X` and `π̂_{X∪{A}}` without needing the latter.
///
/// # Panics
///
/// As [`refine_with_scratch`].
pub fn g3_removed_rows_by_labels(
    pi_x: &StrippedPartition,
    labels: &[u32],
    scratch: &mut RefineScratch,
) -> usize {
    check_labels(pi_x, labels);
    scratch.ensure(pi_x.n_rows());
    let counts = &mut scratch.counts;
    let mut removed = 0usize;
    for class in pi_x.classes() {
        if let [r0, r1] = *class {
            let l = labels[r0 as usize];
            if l == STRIPPED || l != labels[r1 as usize] {
                removed += 1;
            }
            continue;
        }
        let mut largest = 1u32; // stripped rows are singleton A-classes
        for &row in class {
            let l = labels[row as usize];
            if l != STRIPPED {
                let n = &mut counts[l as usize];
                *n += 1;
                largest = largest.max(*n);
            }
        }
        removed += class.len() - largest as usize;
        for &row in class {
            let l = labels[row as usize];
            if l != STRIPPED {
                counts[l as usize] = 0;
            }
        }
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{g3_removed_rows, product};

    fn pi(codes: &[u32]) -> StrippedPartition {
        StrippedPartition::from_column(codes)
    }

    #[test]
    fn labels_are_class_indices() {
        let p = pi(&[5, 5, 1, 2, 1, 1]);
        // Classes in code order: {2,4,5} (code 1) then {0,1} (code 5).
        assert_eq!(class_labels(&p), vec![1, 1, 0, STRIPPED, 0, 0]);
        assert_eq!(
            class_labels(&StrippedPartition::empty(3)),
            vec![STRIPPED; 3]
        );
    }

    #[test]
    fn refinement_matches_product() {
        let x = pi(&[0, 0, 0, 0, 1, 1, 1, 2, 3, 3]);
        let a = pi(&[4, 4, 9, 9, 4, 4, 7, 4, 9, 9]);
        let got = refine(&x, &class_labels(&a));
        assert_eq!(got.canonicalize(), product(&x, &a).canonicalize());
        assert_eq!(
            got.classes().collect::<Vec<_>>(),
            vec![&[0, 1][..], &[2, 3], &[4, 5], &[8, 9]]
        );
    }

    #[test]
    fn buckets_follow_first_appearance() {
        // One parent class; labels appear in the order b, a, b, a.
        let x = StrippedPartition::unit(4);
        let a = pi(&[1, 0, 1, 0]);
        let got = refine(&x, &class_labels(&a));
        assert_eq!(
            got.classes().collect::<Vec<_>>(),
            vec![&[0, 2][..], &[1, 3]]
        );
    }

    #[test]
    fn g3_matches_two_partition_kernel() {
        let x = pi(&[0, 0, 0, 1, 1, 2, 2, 2, 2, 3]);
        let a = pi(&[1, 1, 2, 3, 4, 5, 5, 6, 6, 6]);
        let xa = product(&x, &a);
        let mut scratch = RefineScratch::new(0);
        let got = g3_removed_rows_by_labels(&x, &class_labels(&a), &mut scratch);
        assert_eq!(got, g3_removed_rows(&x, &xa));
        assert_eq!(got, 4);
    }

    #[test]
    fn superkey_and_unit_parents() {
        let a = pi(&[0, 1, 0, 1, 2]);
        let labels = class_labels(&a);
        let key = StrippedPartition::empty(5);
        assert!(refine(&key, &labels).is_superkey());
        let unit = StrippedPartition::unit(5);
        assert_eq!(refine(&unit, &labels).canonicalize(), a.canonicalize());
        let mut scratch = RefineScratch::new(5);
        assert_eq!(g3_removed_rows_by_labels(&key, &labels, &mut scratch), 0);
        assert_eq!(g3_removed_rows_by_labels(&unit, &labels, &mut scratch), 3);
    }

    #[test]
    #[should_panic(expected = "different relation")]
    fn mismatched_label_column_panics() {
        let _ = refine(&StrippedPartition::unit(3), &[0, 0]);
    }
}
