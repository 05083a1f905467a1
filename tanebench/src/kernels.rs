//! Direct timings of the partition kernels on a workload's relation.
//!
//! The inputs are the workload's level-1 partitions and every level-2
//! attribute pair, the first products any lattice walk over this relation
//! computes, so a kernel change shows here in isolation from scheduling,
//! storage and lattice bookkeeping.

use crate::stats::median;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};
use tane_partition::{
    g3_removed_rows_with_scratch, product_with_scratch, G3Scratch, ProductScratch,
    StrippedPartition,
};
use tane_relation::Relation;

/// Medians over repeated passes.
#[derive(Debug, Clone, Copy)]
pub struct KernelFigures {
    /// Seconds to build every level-1 partition from its code column.
    pub level1_s: f64,
    /// Nanoseconds per input element of `product_with_scratch`.
    pub product_ns_per_elem: f64,
    /// Nanoseconds per input element of `g3_removed_rows_with_scratch`.
    pub g3_ns_per_elem: f64,
}

/// Repeats `pass` until `budget` has elapsed and at least three passes
/// ran; returns the median pass time in seconds.
fn repeat(tracer: &mut Tracer, name: &str, budget: Duration, mut pass: impl FnMut()) -> f64 {
    let begin = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || begin.elapsed() < budget {
        let t0 = Instant::now();
        pass();
        let t1 = Instant::now();
        tracer.record(name, t0, t1, None);
        samples.push((t1 - t0).as_secs_f64());
    }
    median(&samples)
}

/// Times the three kernels, each for about `budget`.
pub fn measure(relation: &Relation, tracer: &mut Tracer, budget: Duration) -> KernelFigures {
    let attrs = relation.num_attrs();
    let rows = relation.num_rows();
    let level1_s = repeat(tracer, "partition.level1", budget, || {
        for a in 0..attrs {
            black_box(StrippedPartition::from_column(relation.column_codes(a)));
        }
    });
    let singles: Vec<StrippedPartition> = (0..attrs)
        .map(|a| StrippedPartition::from_column(relation.column_codes(a)))
        .collect();
    let pairs: Vec<(usize, usize)> = (0..attrs)
        .flat_map(|a| (a + 1..attrs).map(move |b| (a, b)))
        .collect();

    let mut scratch = ProductScratch::new(rows);
    let product_elems: usize = pairs
        .iter()
        .map(|&(a, b)| singles[a].num_elements() + singles[b].num_elements())
        .sum();
    let product_s = repeat(tracer, "partition.product", budget, || {
        for &(a, b) in &pairs {
            black_box(product_with_scratch(
                black_box(&singles[a]),
                &singles[b],
                &mut scratch,
            ));
        }
    });

    let products: Vec<StrippedPartition> = pairs
        .iter()
        .map(|&(a, b)| product_with_scratch(&singles[a], &singles[b], &mut scratch))
        .collect();
    let g3_elems: usize = pairs
        .iter()
        .zip(&products)
        .map(|(&(a, _), ab)| singles[a].num_elements() + ab.num_elements())
        .sum();
    let mut g3_scratch = G3Scratch::new(rows);
    let g3_s = repeat(tracer, "partition.g3", budget, || {
        for (&(a, _), ab) in pairs.iter().zip(&products) {
            black_box(g3_removed_rows_with_scratch(
                black_box(&singles[a]),
                ab,
                &mut g3_scratch,
            ));
        }
    });

    let per_elem = |secs: f64, elems: usize| crate::stats::ratio(secs * 1e9, elems as f64);
    KernelFigures {
        level1_s,
        product_ns_per_elem: per_elem(product_s, product_elems),
        g3_ns_per_elem: per_elem(g3_s, g3_elems),
    }
}
