//! Peak partition memory of the levelwise search.
//!
//! In exact mode on the memory store, level ℓ+1's products run in chunks
//! that end on prefix-block boundaries, and each chunk's parents are freed
//! once its children are stored (DESIGN §5). The peak is then about one
//! level plus one chunk, strictly below the two whole levels the search
//! held before. Approximate mode reads π̂_{X\A} from level ℓ in level
//! ℓ+1's decide pass, so it keeps level ℓ resident and still peaks at two
//! whole levels.
//!
//! Both claims are checked against the `LevelEvent` stream, whose
//! `partitions_bytes` is the resident size of one level as it finishes.

use tane_core::{
    discover_approx_fds_with, discover_fds_with, ApproxTaneConfig, LevelEvent, TaneConfig,
};
use tane_datasets::{generate, ColumnSpec, DatasetSpec};
use tane_relation::Relation;

/// Eight low-cardinality columns over 4000 rows: no set is a key before
/// the top of the lattice, so the walk runs all eight levels, and the
/// middle levels (70 sets of ~4000 elements) span many product chunks.
fn relation() -> Relation {
    generate(&DatasetSpec {
        name: "memory".into(),
        rows: 4000,
        columns: (0..8)
            .map(|i| ColumnSpec::Categorical {
                distinct: 3 + i % 2,
            })
            .collect(),
        seed: 0x9e37,
    })
    .unwrap()
}

/// `partitions_bytes` per level, in level order.
fn level_bytes(events: &[LevelEvent]) -> Vec<usize> {
    events.iter().map(|e| e.partitions_bytes).collect()
}

/// Largest resident size of two consecutive whole levels (the last level
/// pairs with an empty successor).
fn two_level_max(bytes: &[usize]) -> usize {
    (0..bytes.len())
        .map(|l| bytes[l] + bytes.get(l + 1).copied().unwrap_or(0))
        .max()
        .unwrap()
}

#[test]
fn exact_mode_peak_stays_below_two_whole_levels() {
    let mut events = Vec::new();
    let result = discover_fds_with(&relation(), &TaneConfig::default(), |e| events.push(e))
        .expect("memory search cannot fail");
    assert!(events.len() >= 5, "only {} levels", events.len());
    let bytes = level_bytes(&events);
    let peak = result.stats.peak_resident_bytes;
    let two_levels = two_level_max(&bytes);
    assert!(
        peak < two_levels,
        "peak {peak} B is not below two whole levels ({two_levels} B); per level: {bytes:?}"
    );
    let one_level = *bytes.iter().max().unwrap();
    assert!(
        peak >= one_level,
        "peak {peak} B is below the largest level ({one_level} B)"
    );
    // One level plus a chunk: the peak passes the largest level by less
    // than a quarter of the way to two whole levels. Freeing only the sets
    // no product refines, with no chunk frees, leaves it past half way.
    assert!(
        (peak - one_level) * 4 < two_levels - one_level,
        "peak {peak} B holds most of a second level; per level: {bytes:?}"
    );
}

#[test]
fn approx_mode_keeps_two_whole_levels_resident() {
    let mut events = Vec::new();
    let config = ApproxTaneConfig::new(0.01);
    let result = discover_approx_fds_with(&relation(), &config, |e| events.push(e))
        .expect("memory search cannot fail");
    assert!(events.len() >= 5, "only {} levels", events.len());
    let bytes = level_bytes(&events);
    assert_eq!(
        result.stats.peak_resident_bytes,
        two_level_max(&bytes),
        "per level: {bytes:?}"
    );
}
