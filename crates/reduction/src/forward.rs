//! The data-level forward reduction (Section 4, Algorithm 1).
//!
//! Given an IJ (or mixed EIJ) query `Q` and a database `D` of intervals, the
//! reduction produces a disjunction of EJ queries over a database of
//! segment-tree bitstrings such that `Q(D)` is true iff one of the EJ queries
//! is true over the transformed database (Theorem 4.13).
//!
//! The implementation resolves every join interval variable at once (the
//! iterative one-variable-at-a-time formulation of Algorithm 1 composes to
//! exactly this): for each interval variable `[X]` occurring in `k` atoms a
//! segment tree is built over all `[X]`-intervals of those atoms, and the
//! atom at position `i` of a permutation of the `k` atoms receives, per
//! original tuple,
//!
//! * one transformed tuple per node of the canonical partition of the
//!   interval and per composition of that node's bitstring into `i` parts,
//!   when `i < k` (Definition 4.9, second bullet);
//! * one transformed tuple per composition of `leaf(x)` into `k` parts, when
//!   `i = k` (third bullet).
//!
//! Transformed relations are shared across the EJ queries of the disjunction:
//! the relation for an atom only depends on the *level* assigned to each of
//! its interval variables, not on the full permutation.

use ij_hypergraph::{full_reduction, ReducedHypergraph, VarId, VarKind};
use ij_relation::{
    faults, CancelTicker, CancellationToken, Database, EvalError, Query, Relation,
    SharedDictionary, Value, ValueId,
};
use ij_segtree::{BitString, CompositionWalk, Interval, SegmentTree};
use std::collections::{BTreeMap, BTreeSet};

/// How the transformed relations encode the bitstring columns of an atom with
/// several interval variables (Section 1.1, closing discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EncodingStrategy {
    /// The paper's default encoding: one transformed relation per atom and
    /// level assignment, holding every combination of the per-variable
    /// bitstring expansions.  An atom with `j` join interval variables of
    /// degree `m` blows up by a factor `O(log^j N)` *per combination*, i.e.
    /// the relation materialises the product of the per-variable expansions.
    #[default]
    Flat,
    /// The lossless decomposition sketched at the end of Section 1.1: the
    /// atom is split into a *spine* relation `R̃(Id, carried…)` plus one
    /// relation `R̃_X(Id, X₁,…,X_ℓ)` per interval variable, joined on a
    /// per-tuple identifier.  The transformed size is the *sum* of the
    /// per-variable expansions instead of their product — `O(N log N)` per
    /// variable — at the cost of extra (acyclicity-preserving) join atoms in
    /// the reduced EJ queries.  Same data complexity modulo log factors, far
    /// smaller constants for atoms with two or more interval variables.
    Decomposed,
}

/// Configuration of the forward reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReductionConfig {
    /// Encoding of the transformed relations.
    pub encoding: EncodingStrategy,
}

/// One atom of a reduced EJ query: the transformed relation name (in the
/// transformed [`Database`]) and the variable bound to every column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReducedAtom {
    /// Name of the transformed relation in [`ForwardReduction::database`].
    pub relation: String,
    /// Variable names bound to the columns, e.g. `["A#1", "A#2", "B#1"]`.
    pub vars: Vec<String>,
}

/// One EJ query of the disjunction produced by the forward reduction.
#[derive(Debug, Clone)]
pub struct ReducedQuery {
    /// The atoms.  Under the flat encoding they align one-to-one with the
    /// atoms of the original query; under the decomposed encoding an atom
    /// with two or more interval variables contributes a spine atom plus one
    /// atom per interval variable, all sharing a per-tuple `Id` variable.
    pub atoms: Vec<ReducedAtom>,
    /// The reduced hypergraph (with the permutation bookkeeping).
    pub structure: ReducedHypergraph,
}

impl ReducedQuery {
    /// Dense variable identifiers for the query's variable names, assigned in
    /// first-occurrence order — the binding step shared by every evaluator of
    /// a reduced disjunct (engine and benchmark harness alike).
    pub fn dense_var_ids(&self) -> std::collections::BTreeMap<&str, usize> {
        let mut var_ids = std::collections::BTreeMap::new();
        for atom in &self.atoms {
            for v in &atom.vars {
                let next = var_ids.len();
                var_ids.entry(v.as_str()).or_insert(next);
            }
        }
        var_ids
    }

    /// The reduced query as a [`Query`] value (all point variables).
    pub fn to_query(&self) -> Query {
        Query::from_atoms(
            self.atoms
                .iter()
                .map(|a| ij_relation::Atom {
                    relation: a.relation.clone(),
                    vars: a.vars.clone(),
                })
                .collect(),
            &[],
        )
    }
}

/// Size and construction statistics of a forward reduction (Lemma 4.10 and
/// Theorem 4.15 are about these quantities).
#[derive(Debug, Clone, Default)]
pub struct ReductionStats {
    /// Per interval variable: (name, number of source intervals, segment tree
    /// height).
    pub variables: Vec<(String, usize, u8)>,
    /// Size of the input database (tuples).
    pub input_tuples: usize,
    /// Total number of tuples across all transformed relations.
    pub transformed_tuples: usize,
    /// The largest transformed relation.
    pub max_relation_tuples: usize,
    /// Number of distinct transformed relations.
    pub num_relations: usize,
    /// Number of EJ queries in the disjunction.
    pub num_queries: usize,
}

/// The result of the forward reduction.
#[derive(Debug, Clone)]
pub struct ForwardReduction {
    /// The transformed database `D̃` of bitstrings (plus carried-over point
    /// values).
    pub database: Database,
    /// The EJ queries of the disjunction `⋁ Q̃_i`.
    pub queries: Vec<ReducedQuery>,
    /// Statistics.
    pub stats: ReductionStats,
}

impl ForwardReduction {
    /// Indices into [`ForwardReduction::queries`] with literally identical
    /// queries (same relations bound to the same variables) removed: distinct
    /// permutations frequently produce the same EJ query, and evaluating a
    /// duplicate can never change the disjunction's answer.  Keeps the first
    /// occurrence of each query, in order.
    pub fn deduped_query_indices(&self) -> Vec<usize> {
        let mut seen: std::collections::HashSet<Vec<(&str, &[String])>> =
            std::collections::HashSet::new();
        let mut out = Vec::with_capacity(self.queries.len());
        for (i, rq) in self.queries.iter().enumerate() {
            let key: Vec<(&str, &[String])> = rq
                .atoms
                .iter()
                .map(|a| (a.relation.as_str(), a.vars.as_slice()))
                .collect();
            if seen.insert(key) {
                out.push(i);
            }
        }
        out
    }
}

/// Errors raised by the forward reduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReductionError {
    /// A relation referenced by the query is missing from the database.
    MissingRelation(String),
    /// A relation's arity does not match the query atom.
    ArityMismatch {
        relation: String,
        expected: usize,
        found: usize,
    },
    /// An interval variable occurs twice in the same atom (not supported by
    /// the reduction; rewrite the query first).
    RepeatedIntervalVariable { relation: String, variable: String },
    /// A value of an interval variable is not an interval (or a point, which
    /// is treated as a point interval).
    NotAnInterval { relation: String, column: usize },
    /// The reduction was interrupted mid-transform: the caller's
    /// [`CancellationToken`] was cancelled or its deadline expired.  The
    /// transformed database under construction is dropped whole, never
    /// published partially.
    Interrupted(EvalError),
}

impl std::fmt::Display for ReductionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReductionError::MissingRelation(r) => write!(f, "relation `{r}` missing from database"),
            ReductionError::ArityMismatch {
                relation,
                expected,
                found,
            } => {
                write!(
                    f,
                    "relation `{relation}` has arity {found}, query expects {expected}"
                )
            }
            ReductionError::RepeatedIntervalVariable { relation, variable } => {
                write!(
                    f,
                    "interval variable `{variable}` repeated in atom `{relation}`"
                )
            }
            ReductionError::NotAnInterval { relation, column } => {
                write!(
                    f,
                    "relation `{relation}` column {column} holds a non-interval value"
                )
            }
            ReductionError::Interrupted(e) => write!(f, "reduction interrupted: {e}"),
        }
    }
}

impl std::error::Error for ReductionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReductionError::Interrupted(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for ReductionError {
    fn from(e: EvalError) -> Self {
        ReductionError::Interrupted(e)
    }
}

/// Runs the forward reduction of query `q` over database `db` with the
/// default (flat) encoding.
pub fn forward_reduction(q: &Query, db: &Database) -> Result<ForwardReduction, ReductionError> {
    forward_reduction_with(q, db, ReductionConfig::default())
}

/// Runs the forward reduction of query `q` over database `db` with an
/// explicit [`ReductionConfig`].
pub fn forward_reduction_with(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
) -> Result<ForwardReduction, ReductionError> {
    forward_reduction_with_token(q, db, config, None)
}

/// [`forward_reduction_with`] polling a [`CancellationToken`]: the per-tuple
/// transform loops of every relation build check the token every
/// [`check_interval`](CancellationToken::check_interval) rows and abort with
/// [`ReductionError::Interrupted`] when it fires — the segment-tree builds
/// and the structural reduction run to completion (both are small: `O(N)`
/// interval collection and a per-*shape* permutation enumeration).
pub fn forward_reduction_with_token(
    q: &Query,
    db: &Database,
    config: ReductionConfig,
    token: Option<&CancellationToken>,
) -> Result<ForwardReduction, ReductionError> {
    let (hypergraph, var_ids) = q.hypergraph();
    validate(q, db)?;

    // --- segment trees, one per join interval variable ---------------------
    let id_to_name: BTreeMap<VarId, String> = var_ids
        .iter()
        .map(|(name, &id)| (id, name.clone()))
        .collect();
    let mut trees: BTreeMap<VarId, SegmentTree> = BTreeMap::new();
    let mut stats = ReductionStats {
        input_tuples: db.total_tuples(),
        ..ReductionStats::default()
    };
    for &var in &hypergraph.join_interval_vars() {
        let name = &id_to_name[&var];
        let mut intervals: Vec<Interval> = Vec::new();
        for atom in q.atoms() {
            for (col, v) in atom.vars.iter().enumerate() {
                if v == name {
                    let rel = db.relation(&atom.relation).expect("validated");
                    for value in rel.column(col) {
                        let iv = value.to_interval().ok_or(ReductionError::NotAnInterval {
                            relation: atom.relation.clone(),
                            column: col,
                        })?;
                        intervals.push(iv);
                    }
                }
            }
        }
        let tree = SegmentTree::build(&intervals);
        stats
            .variables
            .push((name.clone(), intervals.len(), tree.height()));
        trees.insert(var, tree);
    }

    // Number of atoms containing each join interval variable (its `k`),
    // computed once for every transformed relation of the reduction.
    let degrees: BTreeMap<VarId, usize> =
        trees.keys().map(|&v| (v, hypergraph.degree(v))).collect();

    // --- structural reduction ----------------------------------------------
    let reduced_structures = full_reduction(&hypergraph);
    stats.num_queries = reduced_structures.len();

    // --- transformed relations, memoised per (atom, level assignment) ------
    // The transformed database shares the *input* database's dictionary:
    // carried columns copy their ids verbatim, and the per-tuple ids of the
    // decomposed encoding intern there, so a workspace-scoped input keeps its
    // reduction scoped too.  Bitstring columns hold canonical ids
    // (`ValueId::of_bits`) and intern nothing.
    let mut database = Database::new_in(db.dictionary().clone());
    let mut built: BTreeSet<String> = BTreeSet::new();
    let mut queries: Vec<ReducedQuery> = Vec::with_capacity(reduced_structures.len());

    for structure in reduced_structures {
        let mut atoms: Vec<ReducedAtom> = Vec::with_capacity(q.atoms().len());
        for atom_idx in 0..q.atoms().len() {
            let levels = &structure.edge_levels[atom_idx];
            let interval_columns: Vec<usize> = q.atoms()[atom_idx]
                .vars
                .iter()
                .enumerate()
                .filter(|(_, v)| q.var_kind(v) == Some(VarKind::Interval))
                .map(|(c, _)| c)
                .collect();
            // The decomposed encoding only pays off for atoms with at least
            // two interval variables (Section 1.1); other atoms use the flat
            // relation under either strategy.
            let decompose =
                config.encoding == EncodingStrategy::Decomposed && interval_columns.len() >= 2;
            if !decompose {
                let (name, vars) =
                    reduced_relation_signature(q, atom_idx, levels, &id_to_name, &var_ids);
                if !built.contains(&name) {
                    let relation = build_transformed_relation(
                        q, db, atom_idx, levels, &trees, &degrees, &name, &var_ids, token,
                    )?;
                    stats.transformed_tuples += relation.len();
                    stats.max_relation_tuples = stats.max_relation_tuples.max(relation.len());
                    database.insert(relation);
                    built.insert(name.clone());
                }
                atoms.push(ReducedAtom {
                    relation: name,
                    vars,
                });
                continue;
            }

            // --- decomposed encoding: spine + one part per interval variable
            let atom = &q.atoms()[atom_idx];
            let id_var = format!("__id:{}@{}", atom.relation, atom_idx);

            let spine_name = format!("{}@{}⟨id⟩", atom.relation, atom_idx);
            if !built.contains(&spine_name) {
                let relation = build_spine_relation(q, db, atom_idx, &spine_name, token)?;
                stats.transformed_tuples += relation.len();
                stats.max_relation_tuples = stats.max_relation_tuples.max(relation.len());
                database.insert(relation);
                built.insert(spine_name.clone());
            }
            let mut spine_vars: Vec<String> = vec![id_var.clone()];
            for v in &atom.vars {
                if q.var_kind(v) != Some(VarKind::Interval) {
                    spine_vars.push(v.clone());
                }
            }
            atoms.push(ReducedAtom {
                relation: spine_name,
                vars: spine_vars,
            });

            for &column in &interval_columns {
                let var_name = &atom.vars[column];
                let var_id = var_ids[var_name];
                let level = levels[&var_id];
                let k = degrees[&var_id];
                let part_name = format!("{}@{}⟨{}:{}⟩", atom.relation, atom_idx, var_name, level);
                if !built.contains(&part_name) {
                    let relation = build_part_relation(
                        q,
                        db,
                        atom_idx,
                        column,
                        level,
                        k,
                        &trees[&var_id],
                        &part_name,
                        token,
                    )?;
                    stats.transformed_tuples += relation.len();
                    stats.max_relation_tuples = stats.max_relation_tuples.max(relation.len());
                    database.insert(relation);
                    built.insert(part_name.clone());
                }
                let mut part_vars: Vec<String> = vec![id_var.clone()];
                for j in 1..=level {
                    part_vars.push(format!("{var_name}#{j}"));
                }
                atoms.push(ReducedAtom {
                    relation: part_name,
                    vars: part_vars,
                });
            }
        }
        queries.push(ReducedQuery { atoms, structure });
    }
    stats.num_relations = built.len();

    Ok(ForwardReduction {
        database,
        queries,
        stats,
    })
}

/// Builds the spine relation of the decomposed encoding for one atom: one
/// tuple `(Id, carried point values…)` per source tuple.  Carried columns
/// copy the source relation's interned ids verbatim; only the per-tuple id
/// value is newly interned.
fn build_spine_relation(
    q: &Query,
    db: &Database,
    atom_idx: usize,
    name: &str,
    token: Option<&CancellationToken>,
) -> Result<Relation, ReductionError> {
    let atom = &q.atoms()[atom_idx];
    let source = db.relation(&atom.relation).expect("validated");
    let carried: Vec<&[ValueId]> = atom
        .vars
        .iter()
        .enumerate()
        .filter(|(_, v)| q.var_kind(v) != Some(VarKind::Interval))
        .map(|(c, _)| source.column_ids(c))
        .collect();
    let mut out = Relation::new_in(name.to_string(), 1 + carried.len(), db.dictionary());
    let tuple_ids = intern_tuple_ids(db.dictionary(), source.len());
    let mut ticker = CancelTicker::new(token);
    let mut row: Vec<ValueId> = Vec::with_capacity(1 + carried.len());
    for (i, &id) in tuple_ids.iter().enumerate() {
        ticker.tick()?;
        row.clear();
        row.push(id);
        for col in &carried {
            row.push(col[i]);
        }
        out.push_ids(&row);
    }
    Ok(out)
}

/// Interns the per-tuple identifier values `0.0 .. n` of the decomposed
/// encoding into `dict`.
fn intern_tuple_ids(dict: &SharedDictionary, n: usize) -> Vec<ValueId> {
    (0..n)
        .map(|i| dict.intern(Value::point(i as f64)))
        .collect()
}

/// Builds one per-variable part relation of the decomposed encoding: tuples
/// `(Id, X₁,…,X_ℓ)` listing, per source tuple, the canonical-partition nodes
/// (or the leaf, at level `k`) of its `[X]`-interval split into `ℓ`
/// bitstring pieces (Definition 4.9 applied to a single variable).
#[allow(clippy::too_many_arguments)]
fn build_part_relation(
    q: &Query,
    db: &Database,
    atom_idx: usize,
    column: usize,
    level: usize,
    k: usize,
    tree: &SegmentTree,
    name: &str,
    token: Option<&CancellationToken>,
) -> Result<Relation, ReductionError> {
    faults::point("reduction-transform");
    let atom = &q.atoms()[atom_idx];
    let source = db.relation(&atom.relation).expect("validated");
    let dict = db.dictionary();
    let mut out = Relation::new_in(name.to_string(), 1 + level, dict);
    let intervals: Vec<Option<Interval>> = source.column(column).map(|v| v.to_interval()).collect();
    let tuple_ids = intern_tuple_ids(dict, source.len());
    let mut ticker = CancelTicker::new(token);
    let mut columns = [ColumnOptions::new(1), ColumnOptions::new(level)];
    let mut scratch = Scratch::default();
    for (i, iv) in intervals.into_iter().enumerate() {
        ticker.tick()?;
        let iv = iv.ok_or(ReductionError::NotAnInterval {
            relation: atom.relation.clone(),
            column,
        })?;
        columns[0].carry(tuple_ids[i]);
        columns[1].expand(dict, tree, iv, level < k, &mut scratch.walk);
        scratch.push_cross_product(&columns, &mut out);
    }
    out.dedup();
    Ok(out)
}

/// The id of one bitstring part: its canonical id ([`ValueId::of_bits`]),
/// which every node of a segment tree over at most 2²⁸ endpoints has.  Only
/// the longer parts of deeper trees intern through the dictionary.
#[inline]
fn part_id(dict: &SharedDictionary, part: BitString) -> ValueId {
    ValueId::of_bits(part).unwrap_or_else(|| dict.intern(Value::from(part)))
}

/// The choices one source column offers each transformed row: `count`
/// options of `width` ids each, back to back in one buffer that is reused
/// from source row to source row.
struct ColumnOptions {
    width: usize,
    count: usize,
    ids: Vec<ValueId>,
}

impl ColumnOptions {
    fn new(width: usize) -> Self {
        ColumnOptions {
            width,
            count: 0,
            ids: Vec::new(),
        }
    }

    /// One option: a carried id, copied verbatim.
    fn carry(&mut self, id: ValueId) {
        self.ids.clear();
        self.ids.push(id);
        self.count = 1;
    }

    /// Every composition into `width` parts of every canonical-partition
    /// node of `iv` (when `partition`, i.e. level `< k`) or of `leaf(iv)`
    /// (level `k`) — the expansion of Definition 4.9.
    fn expand(
        &mut self,
        dict: &SharedDictionary,
        tree: &SegmentTree,
        iv: Interval,
        partition: bool,
        walk: &mut CompositionWalk,
    ) {
        self.ids.clear();
        self.count = 0;
        let (ids, width) = (&mut self.ids, self.width);
        let mut expand_node =
            |node: BitString| walk.for_each_part(node, width, |part| ids.push(part_id(dict, part)));
        if partition {
            for node in tree.canonical_partition(iv) {
                self.count += expand_node(node);
            }
        } else {
            self.count = expand_node(tree.leaf_of_interval(iv));
        }
    }
}

/// Buffers reused across the source rows of one transformed-relation build.
#[derive(Default)]
struct Scratch {
    walk: CompositionWalk,
    /// The cross product's odometer: one option index per column.
    digits: Vec<usize>,
    row: Vec<ValueId>,
}

impl Scratch {
    /// Appends to `out` one row per choice of an option in every column —
    /// the cross product, last column fastest — assembled in the reused row
    /// buffer.  A column without options yields no rows.
    fn push_cross_product(&mut self, columns: &[ColumnOptions], out: &mut Relation) {
        if columns.iter().any(|c| c.count == 0) {
            return;
        }
        self.digits.clear();
        self.digits.resize(columns.len(), 0);
        loop {
            self.row.clear();
            for (c, &d) in columns.iter().zip(&self.digits) {
                self.row
                    .extend_from_slice(&c.ids[d * c.width..(d + 1) * c.width]);
            }
            out.push_ids(&self.row);
            let digits = &mut self.digits;
            let Some(i) = (0..columns.len())
                .rev()
                .find(|&i| digits[i] + 1 < columns[i].count)
            else {
                return;
            };
            digits[i] += 1;
            digits[i + 1..].fill(0);
        }
    }
}

/// The name and column variables of the transformed relation of one atom
/// under a level assignment for its interval variables.
fn reduced_relation_signature(
    q: &Query,
    atom_idx: usize,
    levels: &BTreeMap<VarId, usize>,
    id_to_name: &BTreeMap<VarId, String>,
    var_ids: &BTreeMap<String, VarId>,
) -> (String, Vec<String>) {
    let atom = &q.atoms()[atom_idx];
    let mut vars: Vec<String> = Vec::new();
    for v in &atom.vars {
        match q.var_kind(v) {
            Some(VarKind::Interval) => {
                let var_id = var_ids[v];
                let level = levels[&var_id];
                for j in 1..=level {
                    vars.push(format!("{v}#{j}"));
                }
            }
            _ => vars.push(v.clone()),
        }
    }
    let mut level_names: Vec<String> = levels
        .iter()
        .map(|(id, l)| format!("{}:{}", id_to_name[id], l))
        .collect();
    level_names.sort();
    let name = format!("{}@{}⟨{}⟩", atom.relation, atom_idx, level_names.join(","));
    (name, vars)
}

/// Builds the transformed relation of one atom under a level assignment
/// (Definition 4.9, applied once per interval variable of the atom);
/// `degrees` holds each join interval variable's `k`, the number of atoms
/// containing it.
#[allow(clippy::too_many_arguments)]
fn build_transformed_relation(
    q: &Query,
    db: &Database,
    atom_idx: usize,
    levels: &BTreeMap<VarId, usize>,
    trees: &BTreeMap<VarId, SegmentTree>,
    degrees: &BTreeMap<VarId, usize>,
    name: &str,
    var_ids: &BTreeMap<String, VarId>,
    token: Option<&CancellationToken>,
) -> Result<Relation, ReductionError> {
    faults::point("reduction-transform");
    let atom = &q.atoms()[atom_idx];
    let source = db.relation(&atom.relation).expect("validated");

    // Column plan: carried columns copy their id, interval columns expand
    // into `level` bitstring columns.  Interval columns are pre-resolved once
    // (one dictionary read lock per column); carried columns pass their
    // interned ids through untouched, so the expansion below never
    // materialises a `Value` row.
    enum ColumnPlan<'a> {
        Carried(&'a [ValueId]),
        IntervalVar {
            column: usize,
            intervals: Vec<Option<Interval>>,
            tree: &'a SegmentTree,
            partition: bool,
        },
    }
    let mut plan: Vec<ColumnPlan<'_>> = Vec::new();
    let mut columns: Vec<ColumnOptions> = Vec::new();
    for (col, v) in atom.vars.iter().enumerate() {
        match q.var_kind(v) {
            Some(VarKind::Interval) => {
                let var = var_ids[v];
                let level = levels[&var];
                plan.push(ColumnPlan::IntervalVar {
                    column: col,
                    intervals: source.column(col).map(|v| v.to_interval()).collect(),
                    tree: &trees[&var],
                    partition: level < degrees[&var],
                });
                columns.push(ColumnOptions::new(level));
            }
            _ => {
                plan.push(ColumnPlan::Carried(source.column_ids(col)));
                columns.push(ColumnOptions::new(1));
            }
        }
    }

    let dict = db.dictionary();
    let arity = columns.iter().map(|c| c.width).sum();
    let mut out = Relation::new_in(name.to_string(), arity, dict);
    let mut ticker = CancelTicker::new(token);
    let mut scratch = Scratch::default();
    for row_idx in 0..source.len() {
        ticker.tick()?;
        for (p, options) in plan.iter().zip(columns.iter_mut()) {
            match p {
                ColumnPlan::Carried(ids) => options.carry(ids[row_idx]),
                ColumnPlan::IntervalVar {
                    column,
                    intervals,
                    tree,
                    partition,
                } => {
                    let iv = intervals[row_idx].ok_or(ReductionError::NotAnInterval {
                        relation: atom.relation.clone(),
                        column: *column,
                    })?;
                    options.expand(dict, tree, iv, *partition, &mut scratch.walk);
                }
            }
        }
        scratch.push_cross_product(&columns, &mut out);
    }
    out.dedup();
    Ok(out)
}

fn validate(q: &Query, db: &Database) -> Result<(), ReductionError> {
    for atom in q.atoms() {
        let rel = db
            .relation(&atom.relation)
            .ok_or_else(|| ReductionError::MissingRelation(atom.relation.clone()))?;
        if rel.arity() != atom.vars.len() {
            return Err(ReductionError::ArityMismatch {
                relation: atom.relation.clone(),
                expected: atom.vars.len(),
                found: rel.arity(),
            });
        }
        // Interval variables must not repeat within an atom.
        for (i, v) in atom.vars.iter().enumerate() {
            if q.var_kind(v) == Some(VarKind::Interval) && atom.vars[..i].contains(v) {
                return Err(ReductionError::RepeatedIntervalVariable {
                    relation: atom.relation.clone(),
                    variable: v.clone(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ij_relation::Value;

    fn iv(lo: f64, hi: f64) -> Value {
        Value::interval(lo, hi)
    }

    /// The Section 1.1 triangle query with a tiny database.
    fn triangle_instance(satisfiable: bool) -> (Query, Database) {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        // R, S, T hold intervals; when `satisfiable` the three pairwise
        // intersections exist, otherwise the C-intervals are disjoint.
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 4.0), iv(10.0, 14.0)]]);
        db.insert_tuples("S", 2, vec![vec![iv(12.0, 13.0), iv(20.0, 25.0)]]);
        let c_t = if satisfiable {
            iv(24.0, 26.0)
        } else {
            iv(30.0, 31.0)
        };
        db.insert_tuples("T", 2, vec![vec![iv(3.0, 5.0), c_t]]);
        (q, db)
    }

    #[test]
    fn triangle_reduction_produces_eight_queries_and_twelve_relations() {
        let (q, db) = triangle_instance(true);
        let fr = forward_reduction(&q, &db).unwrap();
        assert_eq!(fr.queries.len(), 8);
        // Each atom has 2 interval variables with 2 levels each → 4 distinct
        // transformed relations per atom, 12 in total.
        assert_eq!(fr.stats.num_relations, 12);
        assert_eq!(fr.database.num_relations(), 12);
        // Every reduced query references existing relations with matching arity.
        for rq in &fr.queries {
            for atom in &rq.atoms {
                let rel = fr.database.relation(&atom.relation).unwrap();
                assert_eq!(rel.arity(), atom.vars.len());
            }
            // The reduced query is a pure EJ query.
            assert!(rq.to_query().is_ej());
        }
    }

    #[test]
    fn transformed_relations_hold_bitstrings_only() {
        let (q, db) = triangle_instance(true);
        let fr = forward_reduction(&q, &db).unwrap();
        for rel in fr.database.relations() {
            for t in rel.tuples() {
                for v in t {
                    assert!(
                        v.as_bits().is_some(),
                        "non-bitstring value {v:?} in {}",
                        rel.name()
                    );
                }
            }
        }
    }

    #[test]
    fn bitstring_columns_hold_canonical_ids_and_intern_nothing() {
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new_in(SharedDictionary::new());
        let (_, base) = triangle_instance(true);
        for rel in base.relations() {
            db.insert_tuples(rel.name(), rel.arity(), rel.tuples());
        }
        let before = db.dictionary().len();
        let fr = forward_reduction(&q, &db).unwrap();
        assert_eq!(db.dictionary().len(), before);
        for rel in fr.database.relations() {
            for col in 0..rel.arity() {
                assert!(rel.column_ids(col).iter().all(|id| id.as_bits().is_some()));
            }
        }
    }

    #[test]
    fn cross_product_keeps_zero_width_and_empty_columns_exact() {
        let dict = SharedDictionary::new();
        let (a, b) = (
            dict.intern(Value::point(1.0)),
            dict.intern(Value::point(2.0)),
        );
        let mut carried = ColumnOptions::new(1);
        carried.carry(a);
        let mut pairs = ColumnOptions::new(2);
        pairs.ids = vec![a, b, b, a];
        pairs.count = 2;
        // Level 0: three empty-bitstring nodes, each one zero-width option.
        let mut zero_width = ColumnOptions::new(0);
        zero_width.count = 3;
        let mut scratch = Scratch::default();
        let mut out = Relation::new_in("R", 3, &dict);
        scratch.push_cross_product(&[carried, zero_width, pairs], &mut out);
        let rows: Vec<Vec<ValueId>> = (0..out.len())
            .map(|r| (0..3).map(|c| out.id_at(r, c)).collect())
            .collect();
        let expected: Vec<Vec<ValueId>> = [vec![a, a, b], vec![a, b, a]]
            .into_iter()
            .cycle()
            .take(6)
            .collect();
        assert_eq!(rows, expected);
        // An empty canonical partition offers no option: the row vanishes.
        let mut carried = ColumnOptions::new(1);
        carried.carry(b);
        let mut out = Relation::new_in("R", 3, &dict);
        scratch.push_cross_product(&[carried, ColumnOptions::new(2)], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn reduced_relation_sizes_respect_lemma_4_10() {
        // Lemma 4.10: |R̃| = O(|R| · log^i |I|).  With |I| ≤ 2N the height h
        // of the segment tree bounds the number of CP nodes by 2h+2 and the
        // number of compositions of a bitstring into i parts by (h+1)^(i-1).
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        let n = 32;
        let mk = |offset: f64| {
            (0..n)
                .map(|i| {
                    vec![
                        iv(i as f64 + offset, i as f64 + offset + 3.0),
                        iv(i as f64, i as f64 + 5.0),
                    ]
                })
                .collect::<Vec<_>>()
        };
        db.insert_tuples("R", 2, mk(0.0));
        db.insert_tuples("S", 2, mk(1.0));
        db.insert_tuples("T", 2, mk(2.0));
        let fr = forward_reduction(&q, &db).unwrap();
        let height = fr
            .stats
            .variables
            .iter()
            .map(|(_, _, h)| *h as usize)
            .max()
            .unwrap();
        let cp_bound = 2 * height + 2;
        let comp_bound = height + 1;
        // Every transformed relation has at most 2 interval variables, each at
        // level ≤ 2, so the size is bounded by N · (cp_bound · comp_bound)^2.
        let per_var = cp_bound * comp_bound;
        let bound = n * per_var * per_var;
        for rel in fr.database.relations() {
            assert!(
                rel.len() <= bound,
                "relation {} has {} tuples, bound {bound}",
                rel.name(),
                rel.len()
            );
        }
    }

    #[test]
    fn decomposed_encoding_splits_atoms_into_spine_and_parts() {
        let (q, db) = triangle_instance(true);
        let fr = forward_reduction_with(
            &q,
            &db,
            ReductionConfig {
                encoding: EncodingStrategy::Decomposed,
            },
        )
        .unwrap();
        assert_eq!(fr.queries.len(), 8);
        for rq in &fr.queries {
            // Every original atom has two interval variables, so it becomes a
            // spine plus two parts: nine atoms in total.
            assert_eq!(rq.atoms.len(), 9);
            // Every referenced relation exists with matching arity and every
            // part shares its Id variable with its spine.
            for atom in &rq.atoms {
                let rel = fr.database.relation(&atom.relation).unwrap();
                assert_eq!(rel.arity(), atom.vars.len());
            }
            let id_vars: Vec<&String> = rq
                .atoms
                .iter()
                .flat_map(|a| a.vars.iter())
                .filter(|v| v.starts_with("__id:"))
                .collect();
            // Three distinct Id variables, each appearing three times.
            let mut distinct = id_vars.clone();
            distinct.sort();
            distinct.dedup();
            assert_eq!(distinct.len(), 3);
            assert_eq!(id_vars.len(), 9);
        }
    }

    #[test]
    fn decomposed_encoding_is_smaller_on_multi_variable_atoms() {
        // A denser instance: the flat encoding materialises the product of
        // the per-variable expansions, the decomposed one their sum.
        let q = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        let n = 24;
        let mk = |offset: f64| {
            (0..n)
                .map(|i| {
                    vec![
                        iv(i as f64 + offset, i as f64 + offset + 4.0),
                        iv(i as f64 * 1.5, i as f64 * 1.5 + 6.0),
                    ]
                })
                .collect::<Vec<_>>()
        };
        db.insert_tuples("R", 2, mk(0.0));
        db.insert_tuples("S", 2, mk(0.5));
        db.insert_tuples("T", 2, mk(1.0));
        let flat = forward_reduction(&q, &db).unwrap();
        let decomposed = forward_reduction_with(
            &q,
            &db,
            ReductionConfig {
                encoding: EncodingStrategy::Decomposed,
            },
        )
        .unwrap();
        assert!(
            decomposed.stats.transformed_tuples < flat.stats.transformed_tuples,
            "decomposed {} >= flat {}",
            decomposed.stats.transformed_tuples,
            flat.stats.transformed_tuples
        );
    }

    #[test]
    fn decomposed_encoding_leaves_single_variable_atoms_flat() {
        // Figure 9d: T([A]) has a single interval variable and keeps the flat
        // relation even under the decomposed encoding.
        let q = Query::parse("R([A],[B],[C]) & S([A],[B],[C]) & T([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 3, vec![vec![iv(0.0, 2.0), iv(0.0, 2.0), iv(0.0, 2.0)]]);
        db.insert_tuples("S", 3, vec![vec![iv(1.0, 3.0), iv(1.0, 3.0), iv(1.0, 3.0)]]);
        db.insert_tuples("T", 1, vec![vec![iv(1.5, 1.8)]]);
        let fr = forward_reduction_with(
            &q,
            &db,
            ReductionConfig {
                encoding: EncodingStrategy::Decomposed,
            },
        )
        .unwrap();
        for rq in &fr.queries {
            // R and S decompose into 1 spine + 3 parts each; T stays flat.
            assert_eq!(rq.atoms.len(), 4 + 4 + 1);
            let t_atoms: Vec<_> = rq
                .atoms
                .iter()
                .filter(|a| a.relation.starts_with("T@"))
                .collect();
            assert_eq!(t_atoms.len(), 1);
            assert!(!t_atoms[0].vars.iter().any(|v| v.starts_with("__id:")));
        }
    }

    #[test]
    fn missing_relation_is_reported() {
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        match forward_reduction(&q, &db) {
            Err(ReductionError::MissingRelation(name)) => assert_eq!(name, "S"),
            other => panic!("expected MissingRelation, got {other:?}"),
        }
    }

    #[test]
    fn arity_mismatch_is_reported() {
        let q = Query::parse("R([A],[B])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![iv(0.0, 1.0)]]);
        assert!(matches!(
            forward_reduction(&q, &db),
            Err(ReductionError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn repeated_interval_variable_is_rejected() {
        let q = Query::parse("R([A],[A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![iv(0.0, 1.0), iv(0.0, 1.0)]]);
        assert!(matches!(
            forward_reduction(&q, &db),
            Err(ReductionError::RepeatedIntervalVariable { .. })
        ));
    }

    #[test]
    fn point_values_for_interval_variables_are_accepted() {
        // Membership-style data: point values are treated as point intervals.
        let q = Query::parse("R([A]) & S([A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 1, vec![vec![Value::point(3.0)]]);
        db.insert_tuples("S", 1, vec![vec![iv(0.0, 5.0)]]);
        let fr = forward_reduction(&q, &db).unwrap();
        assert_eq!(fr.queries.len(), 2);
        assert!(fr.stats.transformed_tuples > 0);
    }

    #[test]
    fn carried_point_variables_survive_unchanged() {
        // EIJ query: equality join on X, intersection join on [A].
        let q = Query::parse("R(X,[A]) & S(X,[A])").unwrap();
        let mut db = Database::new();
        db.insert_tuples("R", 2, vec![vec![Value::point(7.0), iv(0.0, 2.0)]]);
        db.insert_tuples("S", 2, vec![vec![Value::point(7.0), iv(1.0, 3.0)]]);
        let fr = forward_reduction(&q, &db).unwrap();
        assert_eq!(fr.queries.len(), 2);
        for rel in fr.database.relations() {
            for t in rel.tuples() {
                // First column carries the point value 7.0.
                assert_eq!(t[0], Value::point(7.0));
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let (q, db) = triangle_instance(true);
        let fr = forward_reduction(&q, &db).unwrap();
        assert_eq!(fr.stats.input_tuples, 3);
        assert_eq!(fr.stats.num_queries, 8);
        assert_eq!(fr.stats.variables.len(), 3);
        assert!(fr.stats.transformed_tuples >= fr.stats.max_relation_tuples);
        assert!(fr.stats.max_relation_tuples > 0);
    }
}
