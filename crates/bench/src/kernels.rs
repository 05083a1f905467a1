//! Partition-kernel microbenchmark (beyond the paper): the two-partition
//! kernels against the column-probe kernels the search runs, on every
//! level-2 attribute pair of adult and lymphography — the first products
//! any lattice walk over these relations computes.
//!
//! For a pair `{a, b}`:
//!
//! * `product` — `product_with_scratch(π̂_a, π̂_b)`;
//! * `refine` — what the search does instead: refine the parent with fewer
//!   elements by the other attribute's label column;
//! * `g3` — `g3_removed_rows_with_scratch(π̂_a, π̂_{ab})`, exact `g3(a → b)`;
//! * `g3-labels` — `g3_removed_rows_by_labels(π̂_a, labels_b)`, the same
//!   number without `π̂_{ab}`.
//!
//! Every kernel is charged per element of the *two-partition* kernel's
//! input (‖π̂_a‖ + ‖π̂_b‖ for products, ‖π̂_a‖ + ‖π̂_{ab}‖ for `g3`), so the
//! ns/element columns of a kernel pair compare directly. Each figure is
//! the median of repeated passes over all pairs.

use crate::report::KernelRow;
use crate::runners::format_row;
use crate::Scale;
use std::hint::black_box;
use std::time::Duration;
use tane_datasets::uci;
use tane_partition::{
    class_labels, g3_removed_rows_by_labels, g3_removed_rows_with_scratch, product_with_scratch,
    refine_with_scratch, G3Scratch, ProductScratch, RefineScratch, StrippedPartition,
};
use tane_relation::Relation;
use tane_util::Stopwatch;

/// Median seconds of `pass`, repeated until `budget` has elapsed and at
/// least five passes ran.
fn median_secs(budget: Duration, mut pass: impl FnMut()) -> f64 {
    let total = Stopwatch::start();
    let mut samples = Vec::new();
    while samples.len() < 5 || total.elapsed() < budget {
        let sw = Stopwatch::start();
        pass();
        samples.push(sw.elapsed_secs());
    }
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The four kernels on one relation's level-2 pairs.
fn measure(dataset: &str, relation: &Relation, budget: Duration) -> Vec<KernelRow> {
    let attrs = relation.num_attrs();
    let rows = relation.num_rows();
    let singles: Vec<StrippedPartition> = (0..attrs)
        .map(|a| StrippedPartition::from_column(relation.column_codes(a)))
        .collect();
    let labels: Vec<Vec<u32>> = singles.iter().map(class_labels).collect();
    let pairs: Vec<(usize, usize)> = (0..attrs)
        .flat_map(|a| (a + 1..attrs).map(move |b| (a, b)))
        .collect();
    // The search's choice: refine the parent with fewer elements.
    let probes: Vec<(usize, usize)> = pairs
        .iter()
        .map(|&(a, b)| {
            if singles[a].num_elements() <= singles[b].num_elements() {
                (a, b)
            } else {
                (b, a)
            }
        })
        .collect();

    let mut product_scratch = ProductScratch::new(rows);
    let mut g3_scratch = G3Scratch::new(rows);
    let mut refine_scratch = RefineScratch::new(rows);
    let products: Vec<StrippedPartition> = pairs
        .iter()
        .map(|&(a, b)| product_with_scratch(&singles[a], &singles[b], &mut product_scratch))
        .collect();
    for (((&(a, b), &(p, q)), pab), ab) in pairs.iter().zip(&probes).zip(&products).zip(&pairs) {
        let refined = refine_with_scratch(&singles[p], &labels[q], &mut refine_scratch);
        assert_eq!(refined.canonicalize(), pab.canonicalize(), "pair {ab:?}");
        assert_eq!(
            g3_removed_rows_by_labels(&singles[a], &labels[b], &mut refine_scratch),
            g3_removed_rows_with_scratch(&singles[a], pab, &mut g3_scratch),
            "pair {ab:?}"
        );
    }

    let product_elems: usize = pairs
        .iter()
        .map(|&(a, b)| singles[a].num_elements() + singles[b].num_elements())
        .sum();
    let g3_elems: usize = pairs
        .iter()
        .zip(&products)
        .map(|(&(a, _), pab)| singles[a].num_elements() + pab.num_elements())
        .sum();

    let product_s = median_secs(budget, || {
        for &(a, b) in &pairs {
            black_box(product_with_scratch(
                black_box(&singles[a]),
                &singles[b],
                &mut product_scratch,
            ));
        }
    });
    let refine_s = median_secs(budget, || {
        for &(p, q) in &probes {
            black_box(refine_with_scratch(
                black_box(&singles[p]),
                &labels[q],
                &mut refine_scratch,
            ));
        }
    });
    let g3_s = median_secs(budget, || {
        for (&(a, _), pab) in pairs.iter().zip(&products) {
            black_box(g3_removed_rows_with_scratch(
                black_box(&singles[a]),
                pab,
                &mut g3_scratch,
            ));
        }
    });
    let g3_labels_s = median_secs(budget, || {
        for &(a, b) in &pairs {
            black_box(g3_removed_rows_by_labels(
                black_box(&singles[a]),
                &labels[b],
                &mut refine_scratch,
            ));
        }
    });

    let row = |kernel: &str, secs: f64, elems: usize| KernelRow {
        dataset: dataset.to_string(),
        rows,
        pairs: pairs.len(),
        kernel: kernel.to_string(),
        elements: elems,
        ns_per_elem: secs * 1e9 / elems.max(1) as f64,
        us_per_pair: secs * 1e6 / pairs.len().max(1) as f64,
    };
    vec![
        row("product", product_s, product_elems),
        row("refine", refine_s, product_elems),
        row("g3", g3_s, g3_elems),
        row("g3-labels", g3_labels_s, g3_elems),
    ]
}

/// Runs and prints the kernel table; returns the structured rows.
pub fn run(scale: Scale) -> Vec<KernelRow> {
    let budget = match scale {
        Scale::Fast => Duration::from_millis(200),
        Scale::Full => Duration::from_secs(2),
    };
    println!("Partition kernels on every level-2 pair (ns per two-partition input element)");
    let widths = [13usize, 6, 6, 10, 10, 9, 9];
    println!(
        "{}",
        format_row(
            &widths,
            &["Dataset", "Rows", "Pairs", "Kernel", "Elements", "ns/elem", "us/pair"]
                .map(String::from)
        )
    );
    let mut rows = Vec::new();
    for (name, relation) in [
        ("lymphography", uci::lymphography()),
        ("adult", uci::adult()),
    ] {
        for row in measure(name, &relation, budget) {
            println!(
                "{}",
                format_row(
                    &widths,
                    &[
                        row.dataset.clone(),
                        row.rows.to_string(),
                        row.pairs.to_string(),
                        row.kernel.clone(),
                        row.elements.to_string(),
                        format!("{:.3}", row.ns_per_elem),
                        format!("{:.2}", row.us_per_pair),
                    ]
                )
            );
            rows.push(row);
        }
    }
    println!();
    rows
}
