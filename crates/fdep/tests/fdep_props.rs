//! Property tests: FDEP must agree with the brute-force oracle and with
//! TANE on arbitrary random relations — the paper's Table 1 implicitly
//! relies on all algorithms computing the same `N`.
//!
//! The differential loop runs in every build: SplitMix64-driven random
//! relations (std only) of the same shape as the proptest strategy, with a
//! failing case shrunk by deleting rows before it is reported.
//!
//! The proptest properties in `props` require the `proptest` cargo feature
//! (and a restored `proptest` dev-dependency): the offline build
//! environment cannot resolve registry crates, so that module is compiled
//! out of the default build.

use tane_baselines::brute_force_fds;
use tane_core::{discover_fds, TaneConfig};
use tane_fdep::fdep_fds;
use tane_relation::{Relation, Schema};
use tane_util::SplitMix64;

/// Random relations checked by the differential loop.
const CASES: usize = 400;

fn from_columns(columns: Vec<Vec<u32>>) -> Relation {
    Relation::from_codes(Schema::anonymous(columns.len()).unwrap(), columns).unwrap()
}

fn check(columns: &[Vec<u32>]) -> Result<(), String> {
    let r = from_columns(columns.to_vec());
    let (fdep, _) = fdep_fds(&r);
    let oracle = brute_force_fds(&r, r.num_attrs());
    if fdep != oracle {
        return Err(format!("FDEP {fdep:?} != brute force {oracle:?}"));
    }
    let tane = discover_fds(&r, &TaneConfig::default()).map_err(|e| e.to_string())?;
    if fdep != tane.fds {
        return Err(format!("FDEP {fdep:?} != TANE {:?}", tane.fds));
    }
    Ok(())
}

#[test]
fn fdep_agrees_with_oracle_and_tane_on_random_relations() {
    let mut rng = SplitMix64::new(0xfde9_5eed);
    for case in 0..CASES {
        // 1–6 attributes and 0–25 rows over codes `< 3`.
        let (attrs, rows) = (1 + rng.usize_below(6), rng.usize_below(26));
        let mut cols: Vec<Vec<u32>> = (0..attrs)
            .map(|_| (0..rows).map(|_| rng.u32_below(3)).collect())
            .collect();
        let Err(mut msg) = check(&cols) else {
            continue;
        };
        // Shrink by row deletion while the failure persists.
        'shrink: loop {
            for t in 0..cols[0].len() {
                let mut smaller = cols.clone();
                for c in &mut smaller {
                    c.remove(t);
                }
                if let Err(m) = check(&smaller) {
                    (cols, msg) = (smaller, m);
                    continue 'shrink;
                }
            }
            break;
        }
        panic!("case {case}: {msg}\nshrunk to columns {cols:?}");
    }
}

#[cfg(feature = "proptest")]
mod props {
    use super::*;
    use proptest::prelude::*;

    fn relation() -> impl Strategy<Value = Relation> {
        (1usize..=6, 0usize..=25).prop_flat_map(|(n_attrs, n_rows)| {
            proptest::collection::vec(
                proptest::collection::vec(0u32..3, n_rows..=n_rows),
                n_attrs..=n_attrs,
            )
            .prop_map(from_columns)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn fdep_matches_oracle(r in relation()) {
            let (fds, _) = fdep_fds(&r);
            prop_assert_eq!(fds, brute_force_fds(&r, r.num_attrs()));
        }

        #[test]
        fn fdep_matches_tane(r in relation()) {
            let (fdep, _) = fdep_fds(&r);
            let tane = discover_fds(&r, &TaneConfig::default()).unwrap();
            prop_assert_eq!(fdep, tane.fds);
        }
    }
}
