//! A patched dataset discovers exactly what its rows re-ingested from
//! scratch discover. `DeltaStore` keeps dictionary codes stable across
//! generations, so a materialized generation carries sparse codes and a
//! different content hash than a fresh ingest — but the same agreement
//! structure, and therefore the same `LevelEvent` stream, cover, keys and
//! search counters, byte for byte: exact and approximate, memory and disk,
//! one thread and eight, under both null semantics.

use tane_core::{
    discover_approx_fds_with, discover_fds_with, ApproxTaneConfig, LevelEvent, TaneConfig,
    TaneResult,
};
use tane_relation::{DeltaStore, NullSemantics, Relation, RowPatch, Schema, Value};
use tane_util::SplitMix64;

const BASE_ROWS: usize = 400;
const PATCHES: usize = 6;

fn schema() -> Schema {
    Schema::new(["A", "B", "C", "D", "E", "F"]).unwrap()
}

/// One row with planted structure: `C` follows `(A, B)`, `D` follows `A`
/// up to ~2% noise (so exact and approximate mode disagree), `E` is
/// near-unique, `F` low-cardinality, and `B`/`F` cells are missing now and
/// then. Rows with `fresh` set draw `A` and `D` from a range the base rows
/// never use, so appends bring values new to the dictionary.
fn synth_row(rng: &mut SplitMix64, serial: usize, fresh: bool) -> Vec<Value> {
    let a = rng.usize_below(23) as i64 + if fresh { 1000 } else { 0 };
    let b = rng.usize_below(7) as i64;
    let d = if rng.usize_below(50) == 0 {
        rng.usize_below(10_000) as i64 + 5000
    } else {
        a * 3
    };
    let e = if rng.usize_below(8) == 0 {
        7
    } else {
        serial as i64
    };
    let f = rng.usize_below(3);
    let missing = |rng: &mut SplitMix64, v: Value| {
        if rng.usize_below(12) == 0 {
            Value::Missing
        } else {
            v
        }
    };
    vec![
        Value::Int(a),
        missing(rng, Value::Int(b)),
        Value::Int(a * 7 + b),
        Value::Int(d),
        Value::Int(e),
        missing(rng, Value::Str(format!("f{f}"))),
    ]
}

fn ingest(rows: &[Vec<Value>], nulls: NullSemantics) -> Relation {
    let mut b = Relation::builder(schema()).null_semantics(nulls);
    for row in rows {
        b.push_row(row.clone()).unwrap();
    }
    b.build()
}

/// Applies a seeded churn of deletes and appends to a `DeltaStore` and to
/// a plain mirror of its rows; returns the store's materialized final
/// generation and the mirror re-ingested with `Relation::builder`.
fn churn(nulls: NullSemantics) -> (Relation, Relation) {
    let mut rng = SplitMix64::new(0x9a7c_4ed5);
    let mut mirror: Vec<Vec<Value>> = (0..BASE_ROWS)
        .map(|i| synth_row(&mut rng, i, false))
        .collect();
    let mut store = DeltaStore::from_relation(&ingest(&mirror, nulls), nulls).unwrap();
    let mut serial = BASE_ROWS;
    for _ in 0..PATCHES {
        let mut deletes: Vec<usize> = (0..1 + rng.usize_below(30))
            .map(|_| rng.usize_below(mirror.len()))
            .collect();
        let appends: Vec<Vec<Value>> = (0..rng.usize_below(60))
            .map(|_| {
                serial += 1;
                if rng.usize_below(3) == 0 {
                    // A copy of a live row: re-uses existing codes, and
                    // re-appends values whose rows were deleted earlier.
                    mirror[rng.usize_below(mirror.len())].clone()
                } else {
                    let fresh = rng.usize_below(4) == 0;
                    synth_row(&mut rng, serial, fresh)
                }
            })
            .collect();
        store
            .apply(&RowPatch {
                deletes: deletes.clone(),
                appends: appends.clone(),
            })
            .unwrap();
        deletes.sort_unstable();
        deletes.dedup();
        for &d in deletes.iter().rev() {
            mirror.remove(d);
        }
        mirror.extend(appends);
    }
    assert_eq!(store.generation(), PATCHES as u64);
    let patched = store.materialize().unwrap();
    let rebuilt = ingest(&mirror, nulls);
    assert_eq!(patched.num_rows(), rebuilt.num_rows());
    (patched, rebuilt)
}

/// Everything a client of a streamed discovery sees, plus the search
/// counters, rendered to text. Wall-clock timings are left out.
fn observable(levels: &[LevelEvent], result: &TaneResult) -> String {
    let names = schema();
    let mut out = String::new();
    for ev in levels {
        out.push_str(&format!(
            "level {} ({} partition bytes):\n",
            ev.level, ev.partitions_bytes
        ));
        for fd in &ev.new_minimal_fds {
            out.push_str(&fd.display_with(names.names()));
            out.push('\n');
        }
    }
    out.push_str("cover:\n");
    out.push_str(&result.render(&names));
    out.push_str(&format!(
        "keys: {:?}\nsets per level: {:?}\n",
        result.keys, result.stats.sets_per_level
    ));
    for c in result.stats.invariant_counters() {
        out.push_str(&format!("{}: {}\n", c.name, c.value));
    }
    out
}

fn discover(relation: &Relation, base: &TaneConfig, epsilon: Option<f64>) -> String {
    let mut levels = Vec::new();
    let result = match epsilon {
        None => discover_fds_with(relation, base, |ev| levels.push(ev)),
        Some(eps) => {
            let config = ApproxTaneConfig {
                base: base.clone(),
                ..ApproxTaneConfig::new(eps)
            };
            discover_approx_fds_with(relation, &config, |ev| levels.push(ev))
        }
    }
    .unwrap();
    observable(&levels, &result)
}

fn assert_generations_match(nulls: NullSemantics) {
    let (patched, rebuilt) = churn(nulls);
    assert_ne!(
        patched.content_hash(),
        rebuilt.content_hash(),
        "stable codes differ from a fresh ingest's dense ones"
    );
    for epsilon in [None, Some(0.05)] {
        // A cache small enough that the segment store spills and reads
        // partitions back.
        for storage in [TaneConfig::default(), TaneConfig::disk(8 << 10)] {
            for threads in [1, 8] {
                let config = storage.clone().with_threads(threads);
                let want = discover(&rebuilt, &config, epsilon);
                assert_eq!(
                    discover(&patched, &config, epsilon),
                    want,
                    "nulls={nulls:?} epsilon={epsilon:?} storage={:?} threads={threads}",
                    config.storage
                );
                if config.storage != tane_core::Storage::Memory {
                    assert!(
                        !want.contains("disk reads 0 "),
                        "the disk runs must spill and read back:\n{want}"
                    );
                }
            }
        }
    }
}

#[test]
fn nulls_equal_generations_discover_like_a_fresh_ingest() {
    assert_generations_match(NullSemantics::NullsEqual);
}

#[test]
fn nulls_distinct_generations_discover_like_a_fresh_ingest() {
    assert_generations_match(NullSemantics::NullsDistinct);
}
