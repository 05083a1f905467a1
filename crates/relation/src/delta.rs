//! Mutable row storage for patchable datasets: the store behind
//! `PATCH /v1/datasets/{name}/rows` and `tane patch`.
//!
//! A [`DeltaStore`] wraps a dictionary-encoded base relation and absorbs
//! [`RowPatch`]es — appended rows and deleted row indices — while keeping
//! the dictionary codes **stable**: a value that ever received a code keeps
//! it for the lifetime of the store, across any number of deletes and
//! re-appends. Each applied patch bumps the store's *generation*;
//! [`DeltaStore::materialize`] turns the current generation into an
//! immutable [`Relation`] snapshot that discovers exactly what the same
//! rows re-ingested from scratch would (see DESIGN §11).

use crate::error::RelationError;
use crate::relation::{NullSemantics, Relation};
use crate::schema::Schema;
use crate::value::Value;
use tane_util::FxHashMap;

/// One batch of row mutations. Deletes refer to **pre-patch** current row
/// indices and are applied before the appends.
#[derive(Debug, Clone, Default)]
pub struct RowPatch {
    /// Current (0-based) row indices to remove.
    pub deletes: Vec<usize>,
    /// Rows to append, each matching the schema's arity.
    pub appends: Vec<Vec<Value>>,
}

impl RowPatch {
    /// `true` when the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.appends.is_empty()
    }

    /// Rows touched — the size measure bounded by the server's patch cap.
    pub fn rows_touched(&self) -> usize {
        self.deletes.len() + self.appends.len()
    }
}

/// Mutable, dictionary-encoded row storage with stable codes.
///
/// Built from a base [`Relation`] that retains its value dictionaries
/// (i.e. one built row-wise from [`Value`]s — CSV uploads qualify,
/// [`Relation::from_codes`] relations do not).
pub struct DeltaStore {
    schema: Schema,
    nulls: NullSemantics,
    /// Per attribute: value → stable code. Never shrinks.
    dicts: Vec<FxHashMap<Value, u32>>,
    /// Per attribute: the next never-used code.
    next_code: Vec<u32>,
    /// Per attribute: the stable codes of the *current* rows.
    columns: Vec<Vec<u32>>,
    generation: u64,
}

impl DeltaStore {
    /// Wraps `base` for mutation. `nulls` must match the semantics the base
    /// was built with (the server and CLI both ingest CSV with
    /// [`NullSemantics::NullsEqual`]).
    ///
    /// # Errors
    ///
    /// [`RelationError::ValuesUnavailable`] when the base relation carries
    /// no value dictionaries (built via [`Relation::from_codes`]).
    pub fn from_relation(
        base: &Relation,
        nulls: NullSemantics,
    ) -> Result<DeltaStore, RelationError> {
        let n_attrs = base.num_attrs();
        let mut dicts: Vec<FxHashMap<Value, u32>> = vec![FxHashMap::default(); n_attrs];
        let mut next_code = vec![0u32; n_attrs];
        let mut columns = Vec::with_capacity(n_attrs);
        for a in 0..n_attrs {
            let codes = base.column_codes(a).to_vec();
            for (t, &code) in codes.iter().enumerate() {
                let value = base
                    .value(t, a)
                    .ok_or(RelationError::ValuesUnavailable)?
                    .clone();
                next_code[a] = next_code[a].max(code.saturating_add(1));
                // Under NullsDistinct every missing cell already has its own
                // code; keeping them out of the dictionary preserves that for
                // appended nulls (each gets a fresh code below).
                if matches!(value, Value::Missing) && nulls == NullSemantics::NullsDistinct {
                    continue;
                }
                dicts[a].entry(value).or_insert(code);
            }
            columns.push(codes);
        }
        Ok(DeltaStore {
            schema: base.schema().clone(),
            nulls,
            dicts,
            next_code,
            columns,
            generation: 0,
        })
    }

    /// Current row count.
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Vec::len)
    }

    /// Bumped by every non-empty applied patch.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Applies one patch: deletes first (pre-patch indices), then appends.
    /// The whole patch is validated before any mutation, so an `Err` leaves
    /// the store unchanged.
    ///
    /// # Errors
    ///
    /// [`RelationError::RowOutOfRange`] for a delete index past the current
    /// rows, [`RelationError::ArityMismatch`] for an appended row of the
    /// wrong width, [`RelationError::DictionaryOverflow`] when a column
    /// exhausts `u32` codes.
    pub fn apply(&mut self, patch: &RowPatch) -> Result<(), RelationError> {
        let n = self.num_rows();
        for &d in &patch.deletes {
            if d >= n {
                return Err(RelationError::RowOutOfRange { index: d, rows: n });
            }
        }
        for (i, row) in patch.appends.iter().enumerate() {
            if row.len() != self.schema.len() {
                return Err(RelationError::ArityMismatch {
                    row: i,
                    expected: self.schema.len(),
                    got: row.len(),
                });
            }
        }
        if patch.is_empty() {
            return Ok(());
        }

        if !patch.deletes.is_empty() {
            let mut deleted = vec![false; n];
            for &d in &patch.deletes {
                deleted[d] = true;
            }
            for col in &mut self.columns {
                let mut w = 0usize;
                for r in 0..n {
                    if !deleted[r] {
                        col[w] = col[r];
                        w += 1;
                    }
                }
                col.truncate(w);
            }
        }

        for row in &patch.appends {
            for (a, value) in row.iter().enumerate() {
                let code = self.encode(a, value)?;
                self.columns[a].push(code);
            }
        }
        self.generation += 1;
        Ok(())
    }

    /// The stable code for `value` in column `a`, allocating a fresh one on
    /// first sight (and for every missing cell under `NullsDistinct`).
    fn encode(&mut self, a: usize, value: &Value) -> Result<u32, RelationError> {
        let fresh = matches!(value, Value::Missing) && self.nulls == NullSemantics::NullsDistinct;
        if !fresh {
            if let Some(&code) = self.dicts[a].get(value) {
                return Ok(code);
            }
        }
        let code = self.next_code[a];
        self.next_code[a] =
            code.checked_add(1)
                .ok_or_else(|| RelationError::DictionaryOverflow {
                    attribute: self.schema.name(a).to_string(),
                })?;
        if !fresh {
            self.dicts[a].insert(value.clone(), code);
        }
        Ok(code)
    }

    /// Materializes the current generation as an immutable [`Relation`]
    /// (stable, possibly non-dense codes — [`Relation::from_codes`] accepts
    /// that). Agreement structure, and therefore every discovered
    /// dependency, is identical to re-ingesting the merged rows from
    /// scratch; the content hash differs because the codes do.
    pub fn materialize(&self) -> Result<Relation, RelationError> {
        Relation::from_codes(self.schema.clone(), self.columns.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Relation {
        let mut b = Relation::builder(Schema::new(["A", "B"]).unwrap());
        for row in [["x", "1"], ["y", "2"], ["x", "2"]] {
            b.push_row(row.map(Value::from)).unwrap();
        }
        b.build()
    }

    #[test]
    fn codes_stay_stable_across_delete_and_reappend() {
        let r = base();
        let mut s = DeltaStore::from_relation(&r, NullSemantics::NullsEqual).unwrap();
        let code_x = s.columns[0][0];
        // Delete every row holding "x", then append "x" again: same code.
        s.apply(&RowPatch {
            deletes: vec![0, 2],
            appends: vec![vec![Value::from("x"), Value::from("3")]],
        })
        .unwrap();
        assert_eq!(s.num_rows(), 2);
        assert_eq!(s.columns[0][1], code_x, "re-appended value keeps its code");
        // A brand-new value gets a code above everything seen before.
        s.apply(&RowPatch {
            deletes: vec![],
            appends: vec![vec![Value::from("z"), Value::from("1")]],
        })
        .unwrap();
        let code_z = *s.columns[0].last().unwrap();
        assert!(code_z >= 2, "fresh codes never collide with old ones");
    }

    #[test]
    fn invalid_patches_leave_the_store_unchanged() {
        let r = base();
        let mut s = DeltaStore::from_relation(&r, NullSemantics::NullsEqual).unwrap();
        let err = s
            .apply(&RowPatch {
                deletes: vec![7],
                appends: vec![],
            })
            .unwrap_err();
        assert!(matches!(
            err,
            RelationError::RowOutOfRange { index: 7, rows: 3 }
        ));
        let err = s
            .apply(&RowPatch {
                deletes: vec![0],
                appends: vec![vec![Value::from("only-one-field")]],
            })
            .unwrap_err();
        assert!(matches!(err, RelationError::ArityMismatch { .. }));
        assert_eq!(s.num_rows(), 3, "failed patches must not partially apply");
        assert_eq!(s.generation(), 0);
    }

    #[test]
    fn materialized_relation_matches_a_rebuilt_one_on_agreement() {
        let r = base();
        let mut s = DeltaStore::from_relation(&r, NullSemantics::NullsEqual).unwrap();
        s.apply(&RowPatch {
            deletes: vec![0],
            appends: vec![vec![Value::from("y"), Value::from("1")]],
        })
        .unwrap();
        let merged = s.materialize().unwrap();
        // Equivalent relation built from scratch: same agreement sets.
        let mut b = Relation::builder(Schema::new(["A", "B"]).unwrap());
        for row in [["y", "2"], ["x", "2"], ["y", "1"]] {
            b.push_row(row.map(Value::from)).unwrap();
        }
        let rebuilt = b.build();
        assert_eq!(merged.num_rows(), rebuilt.num_rows());
        for t in 0..merged.num_rows() {
            for u in (t + 1)..merged.num_rows() {
                assert_eq!(merged.agree_set(t, u), rebuilt.agree_set(t, u));
            }
        }
    }

    #[test]
    fn from_codes_relations_are_refused() {
        let r = Relation::from_codes(Schema::new(["A"]).unwrap(), vec![vec![0, 1, 0]]).unwrap();
        assert!(matches!(
            DeltaStore::from_relation(&r, NullSemantics::NullsEqual),
            Err(RelationError::ValuesUnavailable)
        ));
    }

    #[test]
    fn nulls_distinct_appends_never_agree() {
        let mut b = Relation::builder(Schema::new(["A"]).unwrap())
            .null_semantics(NullSemantics::NullsDistinct);
        for v in ["?", "x", "?"] {
            b.push_row([Value::parse(v)]).unwrap();
        }
        let r = b.build();
        let mut s = DeltaStore::from_relation(&r, NullSemantics::NullsDistinct).unwrap();
        s.apply(&RowPatch {
            deletes: vec![],
            appends: vec![vec![Value::Missing], vec![Value::Missing]],
        })
        .unwrap();
        let col = &s.columns[0];
        assert_ne!(col[3], col[4], "distinct nulls stay distinct when appended");
        assert_ne!(col[3], col[0]);
    }
}
