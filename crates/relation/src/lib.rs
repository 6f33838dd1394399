//! The data model: values, the value dictionary, interned columnar relations,
//! databases and the query AST.
//!
//! * [`Value`] — points, intervals and segment-tree bitstrings;
//! * [`Dictionary`] / [`SharedDictionary`] / [`ValueId`] — interning of
//!   values into dense `u32` ids; every layer of the pipeline joins on ids,
//!   never on full values.  Dictionaries are owned by cheap-to-clone
//!   [`SharedDictionary`] handles: the process-global one is the
//!   compatibility default, workspace-scoped ones bound residency (dropping
//!   the scope reclaims its interned values);
//! * [`Relation`] / [`Database`] — named multisets of tuples stored as
//!   columnar id vectors ([`Columns`]), with a row-oriented compatibility
//!   layer and the distinct-left-endpoint transformation of Appendix G.1;
//! * [`kernels`] — SIMD-friendly chunked scan primitives over id slices
//!   (equal-pair masks, selection-by-mask, gathers, key packing) shared by
//!   the trie builds and semijoins of the join engine;
//! * [`Query`] — Boolean conjunctive queries with equality joins, intersection
//!   joins, or both (Definition 3.3), convertible to the hypergraph
//!   representation used by the structural machinery;
//! * [`CancellationToken`] / [`EvalError`] — cooperative cancellation and
//!   deadlines polled by every long-running loop of the pipeline, plus the
//!   typed taxonomy of evaluation failures;
//! * [`sync`] — poison-recovering lock helpers for the shared multi-tenant
//!   state, and [`faults`] — the feature-gated failpoint registry driving
//!   the fault-injection test harness.
//!
//! # Example
//!
//! ```
//! use ij_relation::{Database, Query, Value};
//!
//! let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
//! assert!(q.is_ij());
//!
//! let mut db = Database::new();
//! db.insert_tuples("R", 2, vec![vec![Value::interval(0.0, 2.0), Value::interval(1.0, 3.0)]]);
//! assert_eq!(db.total_tuples(), 1);
//! ```

mod cancel;
mod csv;
mod dictionary;
pub mod faults;
pub mod kernels;
mod query;
mod relation;
pub mod sync;
mod value;

pub use cancel::{
    fold_error, panic_payload_string, CancelTicker, CancellationToken, EvalError,
    DEFAULT_CHECK_INTERVAL,
};
pub use csv::{field_to_value, value_to_field, CsvError};
pub use dictionary::{
    DictReader, Dictionary, IdBuildHasher, IdHashMap, IdHashSet, IdHasher, SharedDictionary,
    ValueId, BITS_ID_MAX_LEN, MAX_STRIPE_VALUES, STRIPE_BITS, STRIPE_COUNT,
};
pub use query::{Atom, Query, QueryParseError};
pub use relation::{ArityError, Columns, ColumnsView, Database, Relation};
pub use value::Value;
