//! Lattice levels and GENERATE-NEXT-LEVEL.
//!
//! A level `L_ℓ` (paper, Section 5) is the collection of attribute sets of
//! size ℓ still in play. Each entry carries the search state TANE needs
//! *about* the set without touching its partition: the rhs⁺ candidate set
//! `C⁺(X)`, the partition summary (`e(X)·|r|` and the superkey flag), and a
//! deletion mark set by PRUNE. Partitions themselves live in a
//! [`PartitionStore`](tane_partition::PartitionStore), keyed by the set.
//!
//! `GENERATE-NEXT-LEVEL` is the apriori-style prefix join: two sets of size
//! ℓ that differ only in their largest attribute combine into a size-(ℓ+1)
//! candidate, which is kept only if *all* its ℓ-subsets survive in `L_ℓ`.
//! The two join parents double as the operands of the partition product
//! (any two distinct (ℓ)-subsets would do, per Section 3).

use tane_util::{AttrSet, FxHashMap};

/// Per-set search state within a level.
#[derive(Debug, Clone)]
pub struct LevelEntry {
    /// The attribute set `X`.
    pub set: AttrSet,
    /// `C⁺(X)`, the rhs⁺ candidates (paper, Section 4).
    pub cplus: AttrSet,
    /// `e(X) · |r|` — rows to remove to make `X` a superkey; the Lemma 2
    /// validity test compares these between `X\{A}` and `X`.
    pub error_rows: usize,
    /// `true` iff no two rows agree on `X`.
    pub is_superkey: bool,
    /// Set by PRUNE; deleted entries stay resident (their `C⁺` is still
    /// read by same-level key-pruning checks) but do not join into the next
    /// level.
    pub deleted: bool,
}

/// One lattice level with O(1) lookup by attribute set.
#[derive(Debug, Default)]
pub struct Level {
    entries: Vec<LevelEntry>,
    index: FxHashMap<AttrSet, usize>,
}

impl Level {
    /// Creates an empty level.
    pub fn new() -> Level {
        Level::default()
    }

    /// Adds an entry.
    ///
    /// # Panics
    ///
    /// Panics if the set is already present.
    pub fn push(&mut self, entry: LevelEntry) {
        let prev = self.index.insert(entry.set, self.entries.len());
        assert!(prev.is_none(), "duplicate lattice node {:?}", entry.set);
        self.entries.push(entry);
    }

    /// Entry for `set`, if present (deleted entries included).
    pub fn get(&self, set: AttrSet) -> Option<&LevelEntry> {
        self.index.get(&set).map(|&i| &self.entries[i])
    }

    /// Mutable entry for `set`.
    pub fn get_mut(&mut self, set: AttrSet) -> Option<&mut LevelEntry> {
        self.index
            .get(&set)
            .copied()
            .map(move |i| &mut self.entries[i])
    }

    /// All entries, including deleted ones.
    pub fn entries(&self) -> &[LevelEntry] {
        &self.entries
    }

    /// Mutable access to all entries.
    pub fn entries_mut(&mut self) -> &mut [LevelEntry] {
        &mut self.entries
    }

    /// Number of entries (the paper's `|L_ℓ|`), not counting deletions.
    pub fn live_len(&self) -> usize {
        self.entries.iter().filter(|e| !e.deleted).count()
    }

    /// Total entries including deleted ones.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` iff there are no live entries.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }
}

/// A candidate for the next level: the new set and the two level-ℓ parents
/// whose partitions multiply to its partition (Lemma 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NextLevelCandidate {
    /// The size-(ℓ+1) attribute set.
    pub set: AttrSet,
    /// First join parent (`set` minus its largest attribute... specifically
    /// one of the two prefix-join parents).
    pub parent_a: AttrSet,
    /// Second join parent.
    pub parent_b: AttrSet,
}

impl NextLevelCandidate {
    /// The prefix block the candidate was joined in: the `ℓ−1` attributes
    /// both parents share. A level-ℓ set `Y` joins only inside the block
    /// `Y \ max(Y)`, and [`generate_next_level`] emits each block's
    /// candidates as one contiguous run, so once a block's run is done its
    /// members are parents of nothing else at this level.
    pub fn prefix(&self) -> AttrSet {
        self.parent_a.intersect(self.parent_b)
    }
}

/// GENERATE-NEXT-LEVEL (paper, Section 5): prefix join over live entries,
/// keeping candidates whose every ℓ-subset is live in `level`.
pub fn generate_next_level(level: &Level) -> Vec<NextLevelCandidate> {
    // Group live sets by prefix (set minus largest attribute).
    let mut blocks: FxHashMap<AttrSet, Vec<AttrSet>> = FxHashMap::default();
    for e in level.entries().iter().filter(|e| !e.deleted) {
        if let Some(max) = e.set.max_attr() {
            blocks.entry(e.set.without(max)).or_default().push(e.set);
        }
    }
    let mut out = Vec::new();
    let mut block_list: Vec<(AttrSet, Vec<AttrSet>)> = blocks.into_iter().collect();
    block_list.sort_unstable_by_key(|(p, _)| *p);
    for (_, mut members) in block_list {
        members.sort_unstable();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let candidate = members[i].union(members[j]);
                let all_subsets_live = candidate
                    .proper_subsets_one_smaller()
                    .all(|(_, sub)| level.get(sub).is_some_and(|e| !e.deleted));
                if all_subsets_live {
                    out.push(NextLevelCandidate {
                        set: candidate,
                        parent_a: members[i],
                        parent_b: members[j],
                    });
                }
            }
        }
    }
    out
}

/// Builds `L_1` candidates: every singleton, with the empty set as both
/// parents (level 1 partitions are computed from columns, not products, so
/// the parents are never multiplied).
pub fn first_level_sets(n_attrs: usize) -> Vec<AttrSet> {
    (0..n_attrs).map(AttrSet::singleton).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(set: AttrSet) -> LevelEntry {
        LevelEntry {
            set,
            cplus: AttrSet::empty(),
            error_rows: 0,
            is_superkey: false,
            deleted: false,
        }
    }

    fn level_of(sets: &[AttrSet]) -> Level {
        let mut l = Level::new();
        for &s in sets {
            l.push(entry(s));
        }
        l
    }

    #[test]
    fn level_push_and_lookup() {
        let mut l = Level::new();
        l.push(entry(AttrSet::singleton(0)));
        l.push(entry(AttrSet::singleton(1)));
        assert_eq!(l.len(), 2);
        assert_eq!(l.live_len(), 2);
        assert!(l.get(AttrSet::singleton(0)).is_some());
        assert!(l.get(AttrSet::singleton(9)).is_none());
        l.get_mut(AttrSet::singleton(0)).unwrap().deleted = true;
        assert_eq!(l.live_len(), 1);
        assert!(!l.is_empty());
        assert!(
            l.get(AttrSet::singleton(0)).is_some(),
            "deleted entries stay resident"
        );
    }

    #[test]
    #[should_panic(expected = "duplicate lattice node")]
    fn duplicate_push_panics() {
        let mut l = Level::new();
        l.push(entry(AttrSet::singleton(0)));
        l.push(entry(AttrSet::singleton(0)));
    }

    #[test]
    fn generate_level2_from_singletons() {
        let l = level_of(&[
            AttrSet::singleton(0),
            AttrSet::singleton(1),
            AttrSet::singleton(2),
        ]);
        let next = generate_next_level(&l);
        let sets: Vec<AttrSet> = next.iter().map(|c| c.set).collect();
        assert_eq!(
            sets,
            vec![
                AttrSet::from_indices([0, 1]),
                AttrSet::from_indices([0, 2]),
                AttrSet::from_indices([1, 2]),
            ]
        );
        // Parents are the two singletons.
        assert_eq!(next[0].parent_a, AttrSet::singleton(0));
        assert_eq!(next[0].parent_b, AttrSet::singleton(1));
    }

    #[test]
    fn apriori_subset_check_blocks_candidates() {
        // {0,1},{0,2} join to {0,1,2}, but {1,2} is absent → rejected.
        let l = level_of(&[AttrSet::from_indices([0, 1]), AttrSet::from_indices([0, 2])]);
        assert!(generate_next_level(&l).is_empty());
        // With {1,2} present the candidate goes through.
        let l = level_of(&[
            AttrSet::from_indices([0, 1]),
            AttrSet::from_indices([0, 2]),
            AttrSet::from_indices([1, 2]),
        ]);
        let next = generate_next_level(&l);
        assert_eq!(next.len(), 1);
        assert_eq!(next[0].set, AttrSet::from_indices([0, 1, 2]));
    }

    #[test]
    fn deleted_entries_do_not_join() {
        let mut l = level_of(&[
            AttrSet::from_indices([0, 1]),
            AttrSet::from_indices([0, 2]),
            AttrSet::from_indices([1, 2]),
        ]);
        l.get_mut(AttrSet::from_indices([1, 2])).unwrap().deleted = true;
        assert!(
            generate_next_level(&l).is_empty(),
            "deleted subset must block the candidate"
        );
    }

    #[test]
    fn prefix_join_only_pairs_same_prefix() {
        // {0,1} and {2,3} share no prefix; no candidate of size 3 possible
        // from them anyway (their union has size 4).
        let l = level_of(&[AttrSet::from_indices([0, 1]), AttrSet::from_indices([2, 3])]);
        assert!(generate_next_level(&l).is_empty());
    }

    #[test]
    fn first_level() {
        assert_eq!(
            first_level_sets(3),
            vec![
                AttrSet::singleton(0),
                AttrSet::singleton(1),
                AttrSet::singleton(2),
            ]
        );
        assert!(first_level_sets(0).is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let sets: Vec<AttrSet> = (0..5)
            .flat_map(|a| (a + 1..5).map(move |b| AttrSet::from_indices([a, b])))
            .collect();
        let l1 = level_of(&sets);
        let mut rev = sets.clone();
        rev.reverse();
        let l2 = level_of(&rev);
        assert_eq!(generate_next_level(&l1), generate_next_level(&l2));
    }

    /// The invariant the exact-mode search frees partitions by: both join
    /// parents of every candidate lie in the candidate's prefix block, and
    /// each block's candidates form one contiguous run in candidate order.
    #[test]
    fn join_parents_stay_inside_contiguous_prefix_blocks() {
        let mut rng = tane_util::SplitMix64::new(0x1a77_1ce5);
        for _ in 0..500 {
            let n_attrs = 2 + rng.usize_below(8);
            let size = 1 + rng.usize_below(n_attrs.min(5));
            let keep = rng.f64_unit();
            let mut l = Level::new();
            for bits in 0u64..1 << n_attrs {
                if bits.count_ones() as usize == size && rng.bool_with_p(keep) {
                    let mut e = entry(AttrSet::from_bits(bits));
                    e.deleted = rng.bool_with_p(0.15);
                    l.push(e);
                }
            }
            let next = generate_next_level(&l);
            let mut finished: Vec<AttrSet> = Vec::new();
            for (i, c) in next.iter().enumerate() {
                assert_eq!(c.set, c.parent_a.union(c.parent_b));
                for parent in [c.parent_a, c.parent_b] {
                    assert!(l.get(parent).is_some_and(|e| !e.deleted));
                    let block = parent.without(parent.max_attr().unwrap());
                    assert_eq!(block, c.prefix(), "{parent:?} joined outside its block");
                }
                if i > 0 && next[i - 1].prefix() != c.prefix() {
                    finished.push(next[i - 1].prefix());
                    assert!(
                        !finished.contains(&c.prefix()),
                        "block {:?} split into two runs",
                        c.prefix()
                    );
                }
            }
        }
    }

    #[test]
    fn full_lattice_growth_from_singletons() {
        // With all C+ alive, levels grow as binomial coefficients.
        let mut l = level_of(&first_level_sets(5));
        let mut sizes = vec![l.live_len()];
        loop {
            let next = generate_next_level(&l);
            if next.is_empty() {
                break;
            }
            l = level_of(&next.iter().map(|c| c.set).collect::<Vec<_>>());
            sizes.push(l.live_len());
        }
        assert_eq!(sizes, vec![5, 10, 10, 5, 1]);
    }
}
