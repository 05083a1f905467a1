#![forbid(unsafe_code)]
//! Relational substrate for the TANE suite.
//!
//! TANE and the baseline algorithms do not care about concrete values — only
//! about *which rows agree on which attributes* (paper, Section 2). This
//! crate therefore represents a relation column-wise with **dictionary
//! (integer) encoding**: each column stores a `u32` code per row, and two
//! rows agree on an attribute iff their codes are equal. The paper's
//! implementations read flat files into exactly this kind of representation.
//!
//! What this crate provides:
//!
//! * [`Value`] — a typed cell value (integer, float, string, missing), used
//!   at the ingestion boundary (CSV files, builders, examples).
//! * [`Schema`] — attribute names with index lookup.
//! * [`Relation`] / [`RelationBuilder`] — the dictionary-encoded relation,
//!   plus the `×n` disjoint-concatenation construction the paper uses for
//!   its scale-up experiments.
//! * [`csv`] — a dependency-free RFC-4180-style CSV reader/writer with type
//!   inference, so the CLI and examples can run on arbitrary files.
//! * [`delta`] — mutable row storage with stable dictionary codes, whose
//!   generations the service's `PATCH` and `tane patch` re-materialize.

pub mod csv;
pub mod delta;
pub mod error;
pub mod relation;
pub mod schema;
pub mod value;

pub use delta::{DeltaStore, RowPatch};
pub use error::RelationError;
pub use relation::{NullSemantics, Relation, RelationBuilder};
pub use schema::Schema;
pub use value::Value;
