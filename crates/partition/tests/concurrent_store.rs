//! Concurrent-read contract of [`SegmentStore`]: many threads fetching
//! through `&self` must observe byte-identical partitions, and single-flight
//! miss loading must keep the disk-read counters exact — one read per
//! distinct cold key, no matter how many threads race for it.

use std::sync::Arc;
use tane_partition::{PartitionStore, SegmentStore, StrippedPartition};
use tane_util::AttrSet;

/// A distinguishable partition per index: classes {0,1} and {2..i+4}.
fn sample(i: u32) -> StrippedPartition {
    let mut elements = vec![0, 1];
    elements.extend(2..(i + 4));
    let begins = vec![0, 2, elements.len() as u32];
    StrippedPartition::from_parts(4096, elements, begins)
}

fn keys(n: u32) -> Vec<AttrSet> {
    (0..n)
        .map(|i| AttrSet::from_bits(u64::from(i) + 1))
        .collect()
}

/// 8 threads sweep disjoint slices of a sealed, fully evicted level; every
/// partition must come back byte-identical to what was stored.
#[test]
fn concurrent_disjoint_reads_are_byte_identical() {
    const N: u32 = 256;
    const THREADS: usize = 8;
    let mut store = SegmentStore::new(0).unwrap(); // zero budget: all reads cold
    let ks = keys(N);
    for (i, &k) in ks.iter().enumerate() {
        store.put(k, sample(i as u32)).unwrap();
    }
    store.seal_level().unwrap();
    // Drain the level out of the cache so every fetch hits disk.
    store.begin_read_phase().end();
    assert_eq!(store.resident_bytes(), 0);

    let store = Arc::new(store);
    let phase = store.begin_read_phase();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let ks = &ks;
            scope.spawn(move || {
                for (i, &k) in ks.iter().enumerate().skip(t).step_by(THREADS) {
                    let got = store.get(k).unwrap();
                    assert_eq!(*got, sample(i as u32), "key {i} from thread {t}");
                }
            });
        }
    });
    phase.end();
    assert_eq!(
        store.disk_reads(),
        u64::from(N),
        "each cold key is read exactly once"
    );
}

/// 8 threads all hammer the SAME small key set inside one read phase:
/// single-flight loading plus phase pinning must coalesce every race to
/// exactly one disk read per distinct key.
#[test]
fn concurrent_shared_key_flood_reads_each_key_once() {
    const N: u32 = 32;
    const THREADS: usize = 8;
    const ROUNDS: usize = 40;
    let mut store = SegmentStore::new(0).unwrap();
    let ks = keys(N);
    for (i, &k) in ks.iter().enumerate() {
        store.put(k, sample(i as u32)).unwrap();
    }
    store.seal_level().unwrap();
    store.begin_read_phase().end();
    assert_eq!(store.resident_bytes(), 0);

    let store = Arc::new(store);
    let phase = store.begin_read_phase();
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let store = Arc::clone(&store);
            let ks = &ks;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Vary the visit order per thread and round so the
                    // races land on different keys each pass.
                    for j in 0..ks.len() {
                        let i = (j * (t + 1) + round) % ks.len();
                        let got = store.get(ks[i]).unwrap();
                        assert_eq!(*got, sample(i as u32), "key {i} thread {t}");
                    }
                }
            });
        }
    });
    phase.end();
    assert_eq!(
        store.disk_reads(),
        u64::from(N),
        "{THREADS} threads x {ROUNDS} rounds must coalesce to one read per key"
    );
    assert_eq!(store.snapshot_pins(), u64::from(N));
    assert_eq!(store.resident_bytes(), 0, "phase end evicts to zero budget");
}

/// Repeated phases over the same working set: the read counters are a pure
/// function of the access pattern (per-phase cold sets), not of timing.
#[test]
fn read_counts_are_reproducible_across_runs() {
    const N: u32 = 64;
    let totals: Vec<u64> = (0..3)
        .map(|_| {
            let mut store = SegmentStore::new(0).unwrap();
            let ks = keys(N);
            for (i, &k) in ks.iter().enumerate() {
                store.put(k, sample(i as u32)).unwrap();
            }
            store.seal_level().unwrap();
            store.begin_read_phase().end();
            let store = Arc::new(store);
            for _ in 0..4 {
                let phase = store.begin_read_phase();
                std::thread::scope(|scope| {
                    for t in 0..4 {
                        let store = Arc::clone(&store);
                        let ks = &ks;
                        scope.spawn(move || {
                            for (i, &k) in ks.iter().enumerate().skip(t).step_by(4) {
                                assert_eq!(*store.get(k).unwrap(), sample(i as u32));
                            }
                        });
                    }
                });
                phase.end();
            }
            store.disk_reads()
        })
        .collect();
    assert_eq!(totals[0], totals[1]);
    assert_eq!(totals[1], totals[2]);
    // Zero budget: every phase re-reads its whole working set.
    assert_eq!(totals[0], u64::from(N) * 4);
}
