//! Table 1: "Performance of the algorithms on real life databases" —
//! TANE (disk), TANE/MEM and FDEP wall-clock on the eight datasets.

use crate::report::Table1Row;
use crate::runners::{
    fmt_time, format_row, run_fdep, run_tane_disk, run_tane_mem, FDEP_PAIR_CAP_FAST,
    FDEP_PAIR_CAP_FULL,
};
use crate::Scale;
use tane_datasets as ds;
use tane_relation::Relation;

fn dataset_grid(scale: Scale) -> Vec<(String, Relation)> {
    let mut grid: Vec<(String, Relation)> = vec![
        ("Lymphography".into(), ds::lymphography()),
        ("Hepatitis".into(), ds::hepatitis()),
        (
            "Wisconsin breast cancer".into(),
            ds::wisconsin_breast_cancer(),
        ),
    ];
    match scale {
        Scale::Fast => {
            grid.push(("Wisconsin breast cancer x8".into(), ds::scaled_wbc(8)));
            grid.push(("Chess".into(), ds::chess_krk()));
        }
        Scale::Full => {
            for n in [64usize, 128, 512] {
                grid.push((format!("Wisconsin breast cancer x{n}"), ds::scaled_wbc(n)));
            }
            grid.push(("Adult".into(), ds::adult()));
            grid.push(("Chess".into(), ds::chess_krk()));
        }
    }
    grid
}

/// Runs and prints Table 1; returns the structured rows.
pub fn run(scale: Scale) -> Vec<Table1Row> {
    let pair_cap = match scale {
        Scale::Fast => FDEP_PAIR_CAP_FAST,
        Scale::Full => FDEP_PAIR_CAP_FULL,
    };
    let widths = [34usize, 8, 4, 6, 9, 9, 9];
    println!("Table 1: performance on the (synthetic stand-in) datasets, times in seconds");
    println!(
        "{}",
        format_row(
            &widths,
            &["Name", "|r|", "|R|", "N", "TANE", "TANE/MEM", "Fdep"].map(String::from)
        )
    );
    let mut rows = Vec::new();
    for (name, relation) in dataset_grid(scale) {
        let tane = run_tane_disk(&relation);
        let tane_mem = run_tane_mem(&relation);
        let fdep = run_fdep(&relation, pair_cap);
        println!(
            "{}",
            format_row(
                &widths,
                &[
                    name.clone(),
                    relation.num_rows().to_string(),
                    relation.num_attrs().to_string(),
                    tane.n.to_string(),
                    fmt_time(Some(tane)),
                    fmt_time(Some(tane_mem)),
                    fmt_time(fdep),
                ]
            )
        );
        assert_eq!(tane.n, tane_mem.n, "storage backends disagree on {name}");
        if let Some(f) = fdep {
            assert_eq!(f.n, tane.n, "FDEP disagrees with TANE on {name}");
        }
        rows.push(Table1Row {
            dataset: name,
            rows: relation.num_rows(),
            attrs: relation.num_attrs(),
            n: tane.n,
            tane: Some(tane),
            tane_mem: Some(tane_mem),
            fdep,
        });
    }
    println!("(* = infeasible at this scale, as in the paper)");
    println!();
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// N for the fast grid as the SplitMix64-seeded generators give it.
    /// These are not the paper's values (the generators still await
    /// recalibration, see EXPERIMENTS.md); they are pinned so that a
    /// generator change fails here instead of silently moving the data
    /// behind every table and benchmark.
    const FAST_GRID_N: [(&str, usize); 5] = [
        ("Lymphography", 4660),
        ("Hepatitis", 7907),
        ("Wisconsin breast cancer", 5),
        ("Wisconsin breast cancer x8", 5),
        ("Chess", 1),
    ];

    #[test]
    fn fast_grid_dependency_counts_are_pinned() {
        let got: Vec<(String, usize)> = dataset_grid(Scale::Fast)
            .into_iter()
            .map(|(name, relation)| (name, run_tane_mem(&relation).n))
            .collect();
        let want: Vec<(String, usize)> = FAST_GRID_N
            .iter()
            .map(|&(name, n)| (name.to_string(), n))
            .collect();
        assert_eq!(got, want);
    }
}
