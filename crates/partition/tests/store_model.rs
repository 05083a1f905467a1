//! Model-based test: the disk store (segments, LRU cache, reaping) must be
//! observationally identical to the in-memory store under arbitrary
//! operation sequences.
//!
//! Requires the `proptest` cargo feature (and a restored `proptest`
//! dev-dependency): the offline build environment cannot resolve registry
//! crates, so this suite is compiled out of the default build.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use tane_partition::{MemoryStore, PartitionStore, SegmentStore, StrippedPartition};
use tane_util::AttrSet;

#[derive(Debug, Clone)]
enum Op {
    Put { key: u8, shape: u8 },
    Get { key: u8 },
    Remove { key: u8 },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(key, shape)| Op::Put {
            key: key % 24,
            shape
        }),
        any::<u8>().prop_map(|key| Op::Get { key: key % 24 }),
        any::<u8>().prop_map(|key| Op::Remove { key: key % 24 }),
    ]
}

/// A deterministic partition for a given shape byte.
fn partition(shape: u8) -> StrippedPartition {
    let extra = usize::from(shape % 13);
    let mut elements = vec![0u32, 1];
    elements.extend(2..(2 + extra as u32 + 2));
    let split = 2 + (extra as u32 + 2) / 2;
    let begins = if split >= 2 && elements.len() as u32 - split >= 2 {
        vec![0, split, elements.len() as u32]
    } else {
        vec![0, elements.len() as u32]
    };
    StrippedPartition::from_parts(64, elements, begins)
}

fn key_of(k: u8) -> AttrSet {
    AttrSet::from_bits(u64::from(k) + 1)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn disk_store_refines_memory_model(ops in proptest::collection::vec(op(), 1..120)) {
        let mut model = MemoryStore::new();
        // A tiny cache budget maximizes eviction/reload traffic.
        let mut disk = SegmentStore::new(512).unwrap();
        for op in &ops {
            match *op {
                Op::Put { key, shape } => {
                    let p = partition(shape);
                    model.put(key_of(key), p.clone()).unwrap();
                    disk.put(key_of(key), p).unwrap();
                }
                Op::Get { key } => {
                    let want = model.get(key_of(key));
                    let got = disk.get(key_of(key));
                    match (want, got) {
                        (Ok(w), Ok(g)) => prop_assert_eq!(&*w, &*g),
                        (Err(_), Err(_)) => {}
                        (w, g) => prop_assert!(false, "model {:?} vs disk {:?}", w.is_ok(), g.is_ok()),
                    }
                }
                Op::Remove { key } => {
                    model.remove(key_of(key));
                    disk.remove(key_of(key));
                }
            }
            prop_assert_eq!(model.len(), disk.len());
        }
        // Final sweep: every surviving key must round-trip identically.
        for k in 0u8..24 {
            let want = model.get(key_of(k));
            let got = disk.get(key_of(k));
            match (want, got) {
                (Ok(w), Ok(g)) => prop_assert_eq!(&*w, &*g, "key {}", k),
                (Err(_), Err(_)) => {}
                (w, g) => prop_assert!(false, "key {}: model {:?} vs disk {:?}", k, w.is_ok(), g.is_ok()),
            }
        }
    }
}
