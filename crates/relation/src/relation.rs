//! Relations and databases.
//!
//! Relations are stored **columnar and interned**: each column is a dense
//! `Vec<ValueId>` into an interning dictionary, so join processing works on
//! `u32` ids and never touches a full [`Value`] after ingestion.  The
//! row-oriented API ([`Relation::push`], [`Relation::tuples`]) is kept as a
//! thin compatibility layer that interns / resolves at the boundary; hot
//! paths use the id-level API ([`Relation::column_ids`],
//! [`Relation::push_ids`], [`Relation::gather`], ...).
//!
//! Every relation (and database) carries the [`SharedDictionary`] handle its
//! ids point into.  The plain constructors ([`Relation::new`],
//! [`Database::new`], ...) use the process-global dictionary, preserving the
//! historical behaviour; the `*_in` variants ([`Relation::new_in`],
//! [`Database::new_in`], ...) intern into an explicit — typically
//! workspace-scoped — dictionary, so dropping the workspace reclaims the
//! interned values.  Ids are join-compatible exactly between relations that
//! share a dictionary; derived relations (projections, gathers, renames)
//! inherit their source's handle.

use crate::{SharedDictionary, Value, ValueId};
use ij_segtree::Interval;
use std::collections::BTreeMap;
use std::fmt;

/// Error raised by the fallible tuple-ingestion API when a row does not match
/// the relation arity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityError {
    /// The relation name.
    pub relation: String,
    /// The expected arity.
    pub expected: usize,
    /// The arity of the offending row.
    pub found: usize,
    /// Index of the offending row within the ingested batch (0 for single
    /// pushes).
    pub row: usize,
}

impl fmt::Display for ArityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "tuple arity mismatch for relation {}: row {} has {} values, expected {}",
            self.relation, self.row, self.found, self.expected
        )
    }
}

impl std::error::Error for ArityError {}

/// A relation: a named multiset of tuples of fixed arity, stored as interned
/// id columns.
#[derive(Debug, Clone)]
pub struct Relation {
    name: String,
    arity: usize,
    columns: Columns,
    /// The dictionary the id columns point into; derived relations inherit
    /// it, so ids stay resolvable wherever the rows travel.
    dict: SharedDictionary,
    /// Lazily computed content fingerprint (see [`Relation::fingerprint_with`]);
    /// reset by every mutating method, excluded from equality.
    fingerprint: std::sync::OnceLock<(u64, u64)>,
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        // The fingerprint cache is derived state and must not affect
        // equality.  The dictionary handle is deliberately ignored too:
        // equality of id columns is only meaningful between relations of one
        // dictionary, and that is the only comparison callers make.
        self.name == other.name && self.arity == other.arity && self.columns == other.columns
    }
}

impl Eq for Relation {}

/// Columnar tuple storage: one dense [`ValueId`] vector per column.
///
/// The row count is tracked explicitly so zero-arity relations (which appear
/// as non-emptiness guards after projecting all columns away) still carry a
/// multiplicity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Columns {
    len: usize,
    cols: Vec<Vec<ValueId>>,
}

impl Columns {
    /// Empty storage with `arity` columns.
    pub fn new(arity: usize) -> Self {
        Columns {
            len: 0,
            cols: vec![Vec::new(); arity],
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// The ids of one column.
    pub fn column(&self, index: usize) -> &[ValueId] {
        &self.cols[index]
    }

    /// Appends a row of ids.  Callers must have checked the arity.
    fn push_row(&mut self, row: &[ValueId]) {
        debug_assert_eq!(row.len(), self.cols.len());
        for (col, &id) in self.cols.iter_mut().zip(row) {
            col.push(id);
        }
        self.len += 1;
    }

    /// The id at (`row`, `col`).
    pub fn id_at(&self, row: usize, col: usize) -> ValueId {
        self.cols[col][row]
    }

    /// A borrowed view of the rows `start..end` (every column restricted to
    /// that row range).  Views are the unit of work for parallel scans: the
    /// sharded trie build of the join engine partitions a relation by handing
    /// disjoint row ranges to worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.len()`.
    pub fn view(&self, start: usize, end: usize) -> ColumnsView<'_> {
        assert!(
            start <= end && end <= self.len,
            "row range {start}..{end} out of bounds for {} rows",
            self.len
        );
        ColumnsView {
            start,
            end,
            cols: &self.cols,
        }
    }

    /// Splits the rows into at most `num_chunks` contiguous views of
    /// near-equal size (the last chunks may be one row shorter).  Returns a
    /// single view of everything when `num_chunks <= 1`; never returns empty
    /// views except for an empty relation, which yields one empty view.
    pub fn chunks(&self, num_chunks: usize) -> Vec<ColumnsView<'_>> {
        let n = self.len;
        let k = num_chunks.max(1).min(n.max(1));
        let base = n / k;
        let extra = n % k;
        let mut views = Vec::with_capacity(k);
        let mut start = 0;
        for i in 0..k {
            let size = base + usize::from(i < extra);
            views.push(self.view(start, start + size));
            start += size;
        }
        views
    }
}

/// A borrowed row-range view over [`Columns`]: the columns of rows
/// `start..end` of the underlying storage, without copying.
///
/// Produced by [`Columns::view`] and [`Columns::chunks`]; consumed by
/// parallel scans that split one relation across worker threads (e.g. the
/// sharded trie build of the join engine).
#[derive(Debug, Clone, Copy)]
pub struct ColumnsView<'a> {
    start: usize,
    end: usize,
    cols: &'a [Vec<ValueId>],
}

impl<'a> ColumnsView<'a> {
    /// Number of rows in the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// True if the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// First row (inclusive) of the view in the underlying storage.
    pub fn start(&self) -> usize {
        self.start
    }

    /// Last row (exclusive) of the view in the underlying storage.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The ids of one column, restricted to the view's row range.
    pub fn column(&self, index: usize) -> &'a [ValueId] {
        &self.cols[index][self.start..self.end]
    }

    /// The id at (`row`, `col`), with `row` relative to the view start.
    pub fn id_at(&self, row: usize, col: usize) -> ValueId {
        self.cols[col][self.start + row]
    }
}

impl Relation {
    /// Creates an empty relation with the given name and arity, interning
    /// into the process-global dictionary ([`Relation::new_in`] scopes it).
    pub fn new(name: impl Into<String>, arity: usize) -> Self {
        Relation::new_in(name, arity, SharedDictionary::global())
    }

    /// Creates an empty relation whose values intern into `dict` — typically
    /// a workspace-scoped dictionary, so the interned values die with the
    /// workspace instead of accreting in the process-global store.
    pub fn new_in(name: impl Into<String>, arity: usize, dict: &SharedDictionary) -> Self {
        Relation {
            name: name.into(),
            arity,
            columns: Columns::new(arity),
            dict: dict.clone(),
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// Creates a relation from a list of tuples, validating that every row
    /// matches `arity`.  Values intern into the process-global dictionary
    /// ([`Relation::from_tuples_in`] scopes it).
    ///
    /// # Panics
    ///
    /// Panics with a message naming the relation, the offending row index and
    /// both arities if a row does not have exactly `arity` values.
    pub fn from_tuples(name: impl Into<String>, arity: usize, tuples: Vec<Vec<Value>>) -> Self {
        match Relation::try_from_tuples(name, arity, tuples) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`Relation::from_tuples`] interning into an explicit dictionary.
    ///
    /// # Panics
    ///
    /// Panics like [`Relation::from_tuples`] on a ragged row.
    pub fn from_tuples_in(
        name: impl Into<String>,
        arity: usize,
        tuples: Vec<Vec<Value>>,
        dict: &SharedDictionary,
    ) -> Self {
        match Relation::try_from_tuples_in(name, arity, tuples, dict) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Relation::from_tuples`]: returns an
    /// [`ArityError`] describing the first ragged row instead of panicking.
    pub fn try_from_tuples(
        name: impl Into<String>,
        arity: usize,
        tuples: Vec<Vec<Value>>,
    ) -> Result<Self, ArityError> {
        Relation::try_from_tuples_in(name, arity, tuples, SharedDictionary::global())
    }

    /// Fallible variant of [`Relation::from_tuples_in`].
    pub fn try_from_tuples_in(
        name: impl Into<String>,
        arity: usize,
        tuples: Vec<Vec<Value>>,
        dict: &SharedDictionary,
    ) -> Result<Self, ArityError> {
        let mut r = Relation::new_in(name, arity, dict);
        // Validate the whole batch before interning anything, so errors do
        // not leave a partially-filled relation behind.
        for (row, t) in tuples.iter().enumerate() {
            if t.len() != arity {
                return Err(ArityError {
                    relation: r.name.clone(),
                    expected: arity,
                    found: t.len(),
                    row,
                });
            }
        }
        // Interning locks per value (striped by value hash), so concurrent
        // ingestion of several relations proceeds in parallel.
        for t in &tuples {
            let ids: Vec<ValueId> = t.iter().map(|&v| r.dict.intern(v)).collect();
            r.columns.push_row(&ids);
        }
        Ok(r)
    }

    /// Builds a relation directly from already-interned id columns, all
    /// pointing into `dict` — the column-wise fast ingestion path used by
    /// `Workspace::import_database`, which re-interns a database one column
    /// at a time instead of materialising `Value` rows.
    ///
    /// `len` is the row count; it is explicit (rather than derived from the
    /// columns) so zero-arity relations keep their multiplicity.
    ///
    /// # Panics
    ///
    /// Panics if any column's length differs from `len`.
    pub fn from_id_columns_in(
        name: impl Into<String>,
        len: usize,
        cols: Vec<Vec<ValueId>>,
        dict: &SharedDictionary,
    ) -> Self {
        let name = name.into();
        for (i, col) in cols.iter().enumerate() {
            assert_eq!(
                col.len(),
                len,
                "column {i} of relation {name} has {} rows, expected {len}",
                col.len()
            );
        }
        Relation {
            name,
            arity: cols.len(),
            columns: Columns { len, cols },
            dict: dict.clone(),
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The dictionary this relation's id columns point into.
    pub fn dictionary(&self) -> &SharedDictionary {
        &self.dict
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True if the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// The tuples, materialised as rows of [`Value`]s.
    ///
    /// This is the row-compatibility layer over the columnar storage: it
    /// resolves every id against the relation's dictionary and allocates
    /// fresh rows, so hot paths should use [`Relation::column_ids`] /
    /// [`Relation::id_at`] instead and callers looping over the result should
    /// hoist the call out of the loop.
    pub fn tuples(&self) -> Vec<Vec<Value>> {
        let dict = self.dict.reader();
        (0..self.len())
            .map(|row| {
                self.columns
                    .cols
                    .iter()
                    .map(|col| dict.resolve(col[row]))
                    .collect()
            })
            .collect()
    }

    /// One tuple, materialised.
    pub fn row(&self, row: usize) -> Vec<Value> {
        let dict = self.dict.reader();
        self.columns
            .cols
            .iter()
            .map(|col| dict.resolve(col[row]))
            .collect()
    }

    /// The value at (`row`, `col`).
    pub fn value_at(&self, row: usize, col: usize) -> Value {
        self.dict.resolve(self.columns.id_at(row, col))
    }

    /// The interned ids of one column.
    pub fn column_ids(&self, index: usize) -> &[ValueId] {
        self.columns.column(index)
    }

    /// The id at (`row`, `col`).
    pub fn id_at(&self, row: usize, col: usize) -> ValueId {
        self.columns.id_at(row, col)
    }

    /// The columnar storage.
    pub fn columns(&self) -> &Columns {
        &self.columns
    }

    /// The relation's cached content fingerprint, computed with `compute` on
    /// first use and memoized until the next mutation (`push*`, `dedup`).
    ///
    /// `compute` must be a pure function of the *columns* (arity, row count,
    /// ids) — not of the name: [`Relation::renamed`] shares the cached value
    /// with the original.  The trie cache of the join engine uses this to
    /// avoid re-hashing a relation's columns on every cache lookup.
    pub fn fingerprint_with(&self, compute: impl FnOnce(&Relation) -> (u64, u64)) -> (u64, u64) {
        *self.fingerprint.get_or_init(|| compute(self))
    }

    /// Appends a tuple of values (interning each one).
    ///
    /// # Panics
    ///
    /// Panics if the tuple arity does not match the relation arity.
    pub fn push(&mut self, tuple: Vec<Value>) {
        match self.try_push(tuple) {
            Ok(()) => {}
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible variant of [`Relation::push`].
    pub fn try_push(&mut self, tuple: Vec<Value>) -> Result<(), ArityError> {
        if tuple.len() != self.arity {
            return Err(ArityError {
                relation: self.name.clone(),
                expected: self.arity,
                found: tuple.len(),
                row: self.len(),
            });
        }
        let ids: Vec<ValueId> = tuple.iter().map(|&v| self.dict.intern(v)).collect();
        self.columns.push_row(&ids);
        self.fingerprint = std::sync::OnceLock::new();
        Ok(())
    }

    /// Appends a row of already-interned ids (the fast ingestion path used by
    /// the forward reduction and the join engine).
    ///
    /// # Panics
    ///
    /// Panics if the row length does not match the relation arity.
    pub fn push_ids(&mut self, row: &[ValueId]) {
        assert_eq!(
            row.len(),
            self.arity,
            "tuple arity mismatch for relation {}: id row has {} values, expected {}",
            self.name,
            row.len(),
            self.arity
        );
        self.columns.push_row(row);
        self.fingerprint = std::sync::OnceLock::new();
    }

    /// Sorts the tuples and removes duplicates (set semantics).
    ///
    /// Rows come out in **raw-id order**: lexicographic over the columns,
    /// each compared by the raw unsigned order of its [`ValueId`]s.  Ids are
    /// canonical per value within one dictionary, so the order is
    /// deterministic for a given dictionary, but it is not the value order:
    /// the same rows interned into another dictionary may come out in
    /// another order.  No id is resolved.  Arity 1 sorts the column itself;
    /// arities 2–6 sort row keys packed two ids per `u64` word (one word at
    /// arity 2, up to three at arity 6); wider rows sort row indices column
    /// by column.  Packed keys sort 1.7–3× faster per row than the index
    /// sort at every arity (2–6) the benchmark workloads deduplicate; wider
    /// rows, which none of them deduplicates, take the index sort.
    pub fn dedup(&mut self) {
        let n = self.len();
        if n <= 1 {
            return;
        }
        self.fingerprint = std::sync::OnceLock::new();
        let cols = &mut self.columns.cols;
        match cols.len() {
            // All zero-arity rows are identical.
            0 => {
                self.columns.len = 1;
                return;
            }
            1 => {
                cols[0].sort_unstable();
                cols[0].dedup();
                cols[0].shrink_to_fit();
            }
            2 => dedup_packed::<1>(cols),
            3 | 4 => dedup_packed::<2>(cols),
            5 | 6 => dedup_packed::<3>(cols),
            _ => {
                let mut order: Vec<usize> = (0..n).collect();
                order.sort_unstable_by(|&a, &b| {
                    cols.iter()
                        .map(|col| col[a])
                        .cmp(cols.iter().map(|col| col[b]))
                });
                order.dedup_by(|a, b| cols.iter().all(|col| col[*a] == col[*b]));
                self.columns = gather_columns(&self.columns, &order);
                return;
            }
        }
        self.columns.len = cols[0].len();
    }

    /// Projects the relation onto the given column indices (keeping
    /// duplicates; call [`Relation::dedup`] afterwards for set semantics).
    pub fn project(&self, columns: &[usize], name: impl Into<String>) -> Relation {
        let cols: Vec<Vec<ValueId>> = columns
            .iter()
            .map(|&c| self.columns.cols[c].clone())
            .collect();
        Relation {
            name: name.into(),
            arity: columns.len(),
            columns: Columns {
                len: self.len(),
                cols,
            },
            dict: self.dict.clone(),
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// A copy of the relation under a new name (columns are cloned wholesale,
    /// no per-row work).
    pub fn renamed(&self, name: impl Into<String>) -> Relation {
        Relation {
            name: name.into(),
            arity: self.arity,
            columns: self.columns.clone(),
            dict: self.dict.clone(),
            // Same columns, so the already-computed fingerprint carries over.
            fingerprint: self.fingerprint.clone(),
        }
    }

    /// Keeps the rows at the given indices, in the given order.
    pub fn gather(&self, rows: &[usize], name: impl Into<String>) -> Relation {
        Relation {
            name: name.into(),
            arity: self.arity,
            columns: gather_columns(&self.columns, rows),
            dict: self.dict.clone(),
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// [`Relation::gather`] over `u32` row indices (the index width produced
    /// by the scan kernels), gathered column-wise with
    /// [`kernels::gather_ids`](crate::kernels::gather_ids).
    pub fn gather32(&self, rows: &[u32], name: impl Into<String>) -> Relation {
        let cols: Vec<Vec<ValueId>> = self
            .columns
            .cols
            .iter()
            .map(|col| {
                let mut out = Vec::new();
                crate::kernels::gather_ids(col, rows, &mut out);
                out
            })
            .collect();
        Relation {
            name: name.into(),
            arity: self.arity,
            columns: Columns {
                len: rows.len(),
                cols,
            },
            dict: self.dict.clone(),
            fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// An iterator over the values of a single column.
    ///
    /// Resolves the whole column eagerly (one dictionary read lock, one
    /// `Vec` allocation) before yielding — cheap relative to any per-element
    /// resolve loop, but not free: hoist out of loops and prefer
    /// [`Relation::column_ids`] when ids suffice.
    pub fn column(&self, index: usize) -> impl Iterator<Item = Value> + '_ {
        let dict = self.dict.reader();
        let values: Vec<Value> = self.columns.cols[index]
            .iter()
            .map(|&id| dict.resolve(id))
            .collect();
        values.into_iter()
    }
}

/// A row of raw ids packed two per `u64` word, the first column in the high
/// half of the first word and any unused half zero, so the lexicographic
/// order of the words is the raw-id order of the rows ([`Relation::dedup`]).
fn pack_row<const W: usize>(cols: &[Vec<ValueId>], row: usize) -> [u64; W] {
    let mut key = [0u64; W];
    for (c, col) in cols.iter().enumerate() {
        key[c / 2] |= u64::from(col[row].raw()) << (32 * (1 - c % 2));
    }
    key
}

/// Sorts and deduplicates the rows of `cols` (at most `2 * W` columns)
/// through packed keys ([`pack_row`]), rebuilding every column from the
/// distinct keys.
fn dedup_packed<const W: usize>(cols: &mut [Vec<ValueId>]) {
    let mut keys: Vec<[u64; W]> = (0..cols[0].len()).map(|row| pack_row(cols, row)).collect();
    keys.sort_unstable();
    keys.dedup();
    for (c, col) in cols.iter_mut().enumerate() {
        *col = keys
            .iter()
            .map(|key| ValueId::from_raw((key[c / 2] >> (32 * (1 - c % 2))) as u32))
            .collect();
    }
}

/// Row-gather over columnar storage.
fn gather_columns(columns: &Columns, rows: &[usize]) -> Columns {
    let cols: Vec<Vec<ValueId>> = columns
        .cols
        .iter()
        .map(|col| rows.iter().map(|&r| col[r]).collect())
        .collect();
    Columns {
        len: rows.len(),
        cols,
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}({} tuples, arity {})",
            self.name,
            self.len(),
            self.arity
        )
    }
}

/// A database: a collection of named relations, plus the dictionary handle
/// relations added through [`Database::insert_tuples`] intern into.
#[derive(Debug, Clone)]
pub struct Database {
    relations: BTreeMap<String, Relation>,
    dict: SharedDictionary,
}

impl Default for Database {
    fn default() -> Self {
        Database::new()
    }
}

impl PartialEq for Database {
    /// Content equality: the relations, by name.  The dictionary handle is
    /// ignored, like in [`Relation`]'s equality.
    fn eq(&self, other: &Self) -> bool {
        self.relations == other.relations
    }
}

impl Database {
    /// Creates an empty database whose relations intern into the
    /// process-global dictionary ([`Database::new_in`] scopes it).
    pub fn new() -> Self {
        Database::new_in(SharedDictionary::global().clone())
    }

    /// Creates an empty database interning into an explicit — typically
    /// workspace-scoped — dictionary.  The forward reduction writes its
    /// transformed database into the same dictionary as its input database,
    /// so evaluation of a scoped database never touches the global store.
    pub fn new_in(dict: SharedDictionary) -> Self {
        Database {
            relations: BTreeMap::new(),
            dict,
        }
    }

    /// The dictionary relations of this database intern into.
    pub fn dictionary(&self) -> &SharedDictionary {
        &self.dict
    }

    /// Inserts (or replaces) a relation.  The relation keeps its own
    /// dictionary handle; for the ids to be join-compatible with the rest of
    /// the database it must be the database's dictionary.
    ///
    /// # Panics
    ///
    /// Panics if the relation interns into a different dictionary than this
    /// database: equal ids from unrelated dictionaries denote unrelated
    /// values, so letting the mix through would silently corrupt every join
    /// touching the relation.  The check is one pointer comparison, so it is
    /// enforced in release builds too.
    pub fn insert(&mut self, relation: Relation) {
        assert!(
            relation.dictionary() == self.dictionary(),
            "relation `{}` interns into a different dictionary than its database \
             (build it from the same workspace, or re-intern it via import)",
            relation.name()
        );
        self.relations.insert(relation.name().to_string(), relation);
    }

    /// Adds a relation built from tuples, interned into the database's
    /// dictionary.
    ///
    /// # Panics
    ///
    /// Panics with a message naming the relation and the offending row if the
    /// tuples do not all have exactly `arity` values.
    pub fn insert_tuples(&mut self, name: &str, arity: usize, tuples: Vec<Vec<Value>>) {
        self.insert(Relation::from_tuples_in(name, arity, tuples, &self.dict));
    }

    /// Fallible variant of [`Database::insert_tuples`].
    pub fn try_insert_tuples(
        &mut self,
        name: &str,
        arity: usize,
        tuples: Vec<Vec<Value>>,
    ) -> Result<(), ArityError> {
        self.insert(Relation::try_from_tuples_in(
            name, arity, tuples, &self.dict,
        )?);
        Ok(())
    }

    /// Looks up a relation by name.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// Mutable lookup.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut Relation> {
        self.relations.get_mut(name)
    }

    /// All relations (sorted by name).
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.values()
    }

    /// Relation names.
    pub fn relation_names(&self) -> Vec<String> {
        self.relations.keys().cloned().collect()
    }

    /// Number of relations.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// Total number of tuples across all relations (the database size `N`).
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// The distinct-left-endpoint transformation of Appendix G.1: shifts the
    /// intervals of the `i`-th relation (in the supplied order, 1-based) by
    /// `+i·ε` on the left endpoint and `+n·ε` on the right endpoint, where
    /// `ε` is small enough not to change any intersection relationship.
    /// After the transformation any two intervals from *different* relations
    /// have distinct left endpoints while every intersection join result is
    /// preserved.
    ///
    /// Relations named in `order` must exist; relations not named are left
    /// untouched.
    pub fn shift_left_endpoints(&mut self, order: &[&str]) {
        let n = order.len();
        if n == 0 {
            return;
        }
        // ε must satisfy n·ε < the smallest positive distance between any two
        // distinct endpoint values.
        let mut endpoints: Vec<f64> = Vec::new();
        for name in order {
            if let Some(rel) = self.relations.get(*name) {
                for t in rel.tuples() {
                    for v in t {
                        if let Some(iv) = v.as_interval() {
                            endpoints.push(iv.lo());
                            endpoints.push(iv.hi());
                        }
                    }
                }
            }
        }
        endpoints.sort_by(f64::total_cmp);
        endpoints.dedup();
        let mut min_gap = f64::INFINITY;
        for w in endpoints.windows(2) {
            let gap = w[1] - w[0];
            if gap > 0.0 && gap < min_gap {
                min_gap = gap;
            }
        }
        if !min_gap.is_finite() {
            min_gap = 1.0;
        }
        let eps = min_gap / (2.0 * (n as f64 + 1.0));

        for (i, name) in order.iter().enumerate() {
            let index = (i + 1) as f64;
            if let Some(rel) = self.relations.get_mut(*name) {
                let arity = rel.arity();
                let tuples: Vec<Vec<Value>> = rel
                    .tuples()
                    .iter()
                    .map(|t| {
                        t.iter()
                            .map(|v| match v.as_interval() {
                                Some(iv) => Value::Interval(iv.shift(index * eps, n as f64 * eps)),
                                None => *v,
                            })
                            .collect()
                    })
                    .collect();
                let dict = rel.dictionary().clone();
                *rel = Relation::from_tuples_in(rel.name().to_string(), arity, tuples, &dict);
            }
        }
    }

    /// Collects every interval value appearing in the given column of the
    /// given relations — the interval set `I` over which the forward
    /// reduction builds a segment tree for one interval variable.
    pub fn collect_intervals(&self, sources: &[(&str, usize)]) -> Vec<Interval> {
        let mut out = Vec::new();
        for (name, column) in sources {
            if let Some(rel) = self.relations.get(*name) {
                for v in rel.column(*column) {
                    if let Some(iv) = v.as_interval() {
                        out.push(iv);
                    }
                }
            }
        }
        out
    }
}

impl fmt::Display for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations.values() {
            write!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iv(lo: f64, hi: f64) -> Value {
        Value::interval(lo, hi)
    }

    #[test]
    fn relation_basics() {
        let mut r = Relation::new("R", 2);
        r.push(vec![iv(0.0, 1.0), iv(2.0, 3.0)]);
        r.push(vec![iv(0.0, 1.0), iv(2.0, 3.0)]);
        assert_eq!(r.len(), 2);
        r.dedup();
        assert_eq!(r.len(), 1);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.column(0).count(), 1);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_is_rejected() {
        let mut r = Relation::new("R", 2);
        r.push(vec![iv(0.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn ragged_from_tuples_is_rejected() {
        let _ = Relation::from_tuples(
            "R",
            2,
            vec![vec![iv(0.0, 1.0), iv(2.0, 3.0)], vec![iv(0.0, 1.0)]],
        );
    }

    #[test]
    fn try_from_tuples_reports_the_offending_row() {
        let err = Relation::try_from_tuples(
            "R",
            2,
            vec![vec![iv(0.0, 1.0), iv(2.0, 3.0)], vec![iv(0.0, 1.0)], vec![]],
        )
        .unwrap_err();
        assert_eq!(err.relation, "R");
        assert_eq!(err.expected, 2);
        assert_eq!(err.found, 1);
        assert_eq!(err.row, 1);
        assert!(err.to_string().contains("row 1"));
        // Errors are detected before anything is ingested.
        let mut db = Database::new();
        assert!(db
            .try_insert_tuples("R", 2, vec![vec![iv(0.0, 1.0)]])
            .is_err());
        assert!(db.relation("R").is_none());
    }

    #[test]
    fn interned_columns_expose_ids() {
        let r = Relation::from_tuples(
            "R",
            2,
            vec![
                vec![Value::point(1.0), Value::point(2.0)],
                vec![Value::point(1.0), Value::point(3.0)],
            ],
        );
        // The repeated value 1.0 gets the same id in both rows.
        assert_eq!(r.column_ids(0)[0], r.column_ids(0)[1]);
        assert_ne!(r.column_ids(1)[0], r.column_ids(1)[1]);
        assert_eq!(r.id_at(1, 1).resolve(), Value::point(3.0));
        assert_eq!(r.value_at(0, 1), Value::point(2.0));
        // Gather keeps the selected rows in order.
        let g = r.gather(&[1, 0], "G");
        assert_eq!(g.tuples()[0], vec![Value::point(1.0), Value::point(3.0)]);
        assert_eq!(g.tuples()[1], vec![Value::point(1.0), Value::point(2.0)]);
    }

    #[test]
    fn fingerprint_cache_memoizes_and_invalidates_on_mutation() {
        let mut r = Relation::new("R", 1);
        r.push(vec![Value::point(1.0)]);
        assert_eq!(r.fingerprint_with(|_| (1, 1)), (1, 1));
        // Memoized: a different closure is not called again.
        assert_eq!(r.fingerprint_with(|_| (2, 2)), (1, 1));
        r.push(vec![Value::point(2.0)]);
        assert_eq!(r.fingerprint_with(|_| (3, 3)), (3, 3));
        r.dedup();
        assert_eq!(r.fingerprint_with(|_| (4, 4)), (4, 4));
        // Renaming shares the cached value; equality ignores the cache.
        let s = r.renamed("S");
        assert_eq!(s.fingerprint_with(|_| (5, 5)), (4, 4));
        let mut fresh = Relation::new("R", 1);
        fresh.push(vec![Value::point(1.0)]);
        fresh.push(vec![Value::point(2.0)]);
        assert_eq!(r, fresh);
    }

    #[test]
    fn column_views_cover_the_rows_exactly_once() {
        let r = Relation::from_tuples(
            "R",
            2,
            (0..7)
                .map(|i| vec![Value::point(i as f64), Value::point(-(i as f64))])
                .collect(),
        );
        for k in [1usize, 2, 3, 7, 9] {
            let views = r.columns().chunks(k);
            assert_eq!(views.len(), k.min(7));
            assert!(views.iter().all(|v| !v.is_empty()));
            let mut covered = 0;
            for v in &views {
                assert_eq!(v.start(), covered);
                assert_eq!(v.column(0), &r.column_ids(0)[v.start()..v.end()]);
                assert_eq!(v.id_at(0, 1), r.id_at(v.start(), 1));
                covered = v.end();
            }
            assert_eq!(covered, r.len());
        }
        // An empty relation yields one empty view.
        let empty = Relation::new("E", 2);
        let views = empty.columns().chunks(4);
        assert_eq!(views.len(), 1);
        assert!(views[0].is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn column_view_out_of_bounds_panics() {
        let r = Relation::new("R", 1);
        let _ = r.columns().view(0, 1);
    }

    #[test]
    fn from_id_columns_builds_without_re_interning() {
        let dict = SharedDictionary::new();
        let a = dict.intern(Value::point(1.0));
        let b = dict.intern(Value::point(2.0));
        let r = Relation::from_id_columns_in("R", 2, vec![vec![a, a], vec![b, a]], &dict);
        assert_eq!(r.len(), 2);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.dictionary(), &dict);
        assert_eq!(r.tuples()[1], vec![Value::point(1.0), Value::point(1.0)]);
        // Zero-arity relations keep their explicit multiplicity.
        let guard = Relation::from_id_columns_in("E", 3, vec![], &dict);
        assert_eq!(guard.len(), 3);
        assert_eq!(guard.arity(), 0);
    }

    #[test]
    #[should_panic(expected = "expected 2")]
    fn from_id_columns_rejects_ragged_columns() {
        let dict = SharedDictionary::new();
        let a = dict.intern(Value::point(1.0));
        let _ = Relation::from_id_columns_in("R", 2, vec![vec![a], vec![a, a]], &dict);
    }

    #[test]
    fn zero_arity_relations_track_multiplicity() {
        let mut r = Relation::new("E", 0);
        assert!(r.is_empty());
        r.push(vec![]);
        r.push(vec![]);
        assert_eq!(r.len(), 2);
        r.dedup();
        assert_eq!(r.len(), 1);
        assert_eq!(r.tuples(), vec![Vec::<Value>::new()]);
    }

    #[test]
    fn projection_keeps_selected_columns() {
        let r = Relation::from_tuples(
            "R",
            3,
            vec![
                vec![Value::point(1.0), Value::point(2.0), Value::point(3.0)],
                vec![Value::point(4.0), Value::point(5.0), Value::point(6.0)],
            ],
        );
        let p = r.project(&[2, 0], "P");
        assert_eq!(p.arity(), 2);
        assert_eq!(p.tuples()[0], vec![Value::point(3.0), Value::point(1.0)]);
        assert_eq!(p.tuples()[1], vec![Value::point(6.0), Value::point(4.0)]);
    }

    #[test]
    fn database_insert_and_lookup() {
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 2.0)]]);
        db.insert_tuples("S", 1, vec![vec![iv(0.0, 1.0)], vec![iv(5.0, 6.0)]]);
        assert_eq!(db.num_relations(), 2);
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.relation("R").unwrap().arity(), 2);
        assert!(db.relation("T").is_none());
        assert_eq!(db.relation_names(), vec!["R".to_string(), "S".to_string()]);
    }

    #[test]
    fn collect_intervals_gathers_the_right_columns() {
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(10.0, 11.0)]]);
        db.insert_tuples("S", 1, vec![vec![iv(5.0, 6.0)]]);
        let intervals = db.collect_intervals(&[("R", 0), ("S", 0)]);
        assert_eq!(intervals.len(), 2);
        assert!(intervals.contains(&Interval::new(0.0, 1.0)));
        assert!(intervals.contains(&Interval::new(5.0, 6.0)));
    }

    #[test]
    fn shift_left_endpoints_preserves_intersections() {
        // R and S each hold one interval per tuple; verify that intersection
        // relationships across relations are unchanged and that left
        // endpoints become pairwise distinct across relations.
        let r_ivs = [
            Interval::new(0.0, 2.0),
            Interval::new(3.0, 5.0),
            Interval::new(2.0, 3.0),
        ];
        let s_ivs = [
            Interval::new(2.0, 4.0),
            Interval::new(0.0, 0.5),
            Interval::new(5.0, 7.0),
        ];
        let mut db = Database::new();
        db.insert_tuples(
            "R",
            1,
            r_ivs.iter().map(|&i| vec![Value::Interval(i)]).collect(),
        );
        db.insert_tuples(
            "S",
            1,
            s_ivs.iter().map(|&i| vec![Value::Interval(i)]).collect(),
        );
        db.shift_left_endpoints(&["R", "S"]);

        let r_new: Vec<Interval> = db
            .relation("R")
            .unwrap()
            .column(0)
            .map(|v| v.as_interval().unwrap())
            .collect();
        let s_new: Vec<Interval> = db
            .relation("S")
            .unwrap()
            .column(0)
            .map(|v| v.as_interval().unwrap())
            .collect();
        for (i, &r_old) in r_ivs.iter().enumerate() {
            for (j, &s_old) in s_ivs.iter().enumerate() {
                assert_eq!(
                    r_old.intersects(s_old),
                    r_new[i].intersects(s_new[j]),
                    "intersection changed for R[{i}], S[{j}]"
                );
            }
        }
        // Left endpoints are now distinct across the two relations.
        for r in &r_new {
            for s in &s_new {
                assert_ne!(r.lo(), s.lo());
            }
        }
    }

    #[test]
    fn shift_left_endpoints_handles_empty_order_and_missing_relations() {
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        let before = db.clone();
        db.shift_left_endpoints(&[]);
        assert_eq!(db, before);
        db.shift_left_endpoints(&["Missing"]);
        assert_eq!(db.relation("R").unwrap().len(), 1);
    }
}
