#![forbid(unsafe_code)]
//! Partition engine for TANE.
//!
//! Section 2 of the paper reformulates functional-dependency checking in
//! terms of *partitions*: the rows of a relation, grouped into equivalence
//! classes by their values on an attribute set `X`. The three lemmas that
//! drive the whole algorithm are implemented and tested here:
//!
//! * **Lemma 1** — `X → A` holds iff `π_X` refines `π_{A}`
//!   ([`full::Partition::refines`]).
//! * **Lemma 2** — `X → A` holds iff `|π_X| = |π_{X∪{A}}|`
//!   ([`StrippedPartition::rank`]).
//! * **Lemma 3** — `π_X · π_Y = π_{X∪Y}` ([`product::product`]).
//!
//! Two representations are provided:
//!
//! * [`full::Partition`] — the textbook unstripped partition. Simple and
//!   obviously correct; used as the reference implementation in tests and in
//!   the didactic examples.
//! * [`StrippedPartition`] — the production representation from the paper's
//!   "Optimizations" section (detailed in the extended report \[4\]):
//!   equivalence classes of size one are dropped, since a row alone in its
//!   class can never violate any dependency. All TANE hot paths run on
//!   stripped partitions.
//!
//! On top of these:
//!
//! * [`mod@refine`] — the column-probe refinement TANE's search runs:
//!   `π̂_{X∪{A}}` and exact `g3(X → A)` from `π̂_X` plus a per-row label
//!   column of `π̂_A`, with one reusable scratch ([`RefineScratch`]).
//! * [`mod@product`] — the general two-partition product with reusable
//!   scratch tables ([`product::ProductScratch`]), the reference the
//!   refinement is tested against.
//! * [`g3`] — the `g3` approximation error: exact O(‖π̂‖) computation plus
//!   the cheap sandwich bounds from \[4\] that let approximate TANE skip
//!   most exact computations.
//! * [`store`] — partition stores: in-memory, and the disk-spilling store
//!   that the scalable TANE variant uses ("the partitions can be stored on
//!   disk", Section 6).

pub mod full;
pub mod g3;
pub mod measures;
pub mod product;
pub mod refine;
pub mod store;
pub mod stripped;

pub use full::Partition;
pub use g3::{g3_error, g3_removed_rows, g3_removed_rows_with_scratch, G3Bounds, G3Scratch};
pub use measures::{g1_error, g1_violating_pairs, g2_error, g2_violating_rows, MeasureScratch};
pub use product::{product, product_with_scratch, ProductScratch};
pub use refine::{
    class_labels, g3_removed_rows_by_labels, refine, refine_with_scratch, RefineScratch, STRIPPED,
};
pub use store::{
    failpoint, DiskQuota, MemoryStore, PartitionStore, ReadPhase, SegmentStore, StoreError,
};
pub use stripped::StrippedPartition;
