//! Flat (CSR-style) leapfrog tries: sorted-array levels with child-range
//! offsets instead of per-node hash maps.
//!
//! A [`FlatTrie`] stores one sorted [`ValueId`] array per trie level plus a
//! child-range offset array per non-leaf level — the compressed-sparse-row
//! discipline: entry `i` of level `l` owns the values
//! `levels[l+1].values[child_start[i] .. child_start[i+1]]`, so the whole
//! trie is a handful of contiguous allocations with no per-node boxes and no
//! hash probes.  The candidate sets the generic join intersects become
//! **sorted runs**, which is what unlocks the galloping multi-way
//! intersection kernels of [`ij_relation::kernels`]
//! ([`leapfrog_next`](kernels::leapfrog_next),
//! [`gallop_seek`](kernels::gallop_seek)): candidate generation walks arrays
//! in cache order instead of chasing `HashMap` buckets.
//!
//! The build is column-wise: surviving row indices (after the
//! repeated-variable kernel mask of the shared [`TriePlan`]) are sorted
//! lexicographically by the level columns, and one linear pass emits the CSR
//! arrays, collapsing duplicate paths.  Sharded builds split the rows by the
//! [`shard_of`](crate::shard_of) partition of `trie.rs`, so a shard holds
//! exactly the paths whose first-level value hashes to it.
//!
//! `tests/flat_trie_properties.rs` holds the generic join over these tries to
//! a brute-force nested-loop reference (and the engine to the naive oracle)
//! across shard counts and cache configurations.

use crate::trie::{
    build_shards_isolated, effective_shard_count, partition_rows_by_shard, TriePlan,
};
use crate::BoundAtom;
use ij_hypergraph::VarId;
use ij_relation::{faults, kernels, CancelTicker, CancellationToken, EvalError, ValueId};

/// One level of a [`FlatTrie`].
#[derive(Debug)]
struct FlatLevel {
    /// The level's values: the concatenation of every parent's sorted,
    /// deduplicated child run (level 0 is one run — the root's children).
    values: Box<[ValueId]>,
    /// CSR offsets into the **next** level: entry `i`'s children are
    /// `next.values[child_start[i] .. child_start[i + 1]]`.  Length
    /// `values.len() + 1`; empty for the deepest level.
    child_start: Box<[u32]>,
}

/// A flat trie over one atom, with levels ordered by the global variable
/// order (see the module docs for the layout and its invariants).
#[derive(Debug)]
pub struct FlatTrie {
    /// The atom's distinct variables in global order — the trie levels.
    pub level_vars: Vec<VarId>,
    levels: Vec<FlatLevel>,
}

impl FlatTrie {
    /// Builds the flat trie of `atom` with levels sorted according to
    /// `global_order` (a total order over all query variables, e.g. the
    /// elimination order of the chosen decomposition), split into sub-tries
    /// by [`shard_of`](crate::shard_of) on the first level variable's value,
    /// each shard's CSR arrays built on its own scoped thread.  Tuples whose
    /// repeated variables disagree are filtered out and duplicate paths
    /// collapse.  Every returned trie carries the same `level_vars`; their
    /// union over shards equals the single trie `num_shards = 1` builds.
    ///
    /// The shard count actually used is
    /// [`effective_shard_count`]`(rows, num_shards)`: relations too small to
    /// give every shard [`MIN_ROWS_PER_SHARD`](crate::MIN_ROWS_PER_SHARD)
    /// rows are built as a single unsharded trie instead of spawning
    /// near-empty shard threads.  The build also degenerates to one trie when
    /// `num_shards <= 1` or the atom has no levels (arity-zero guard
    /// relations).
    ///
    /// The CSR emission loop polls `token` every
    /// [`check_interval`](CancellationToken::check_interval) rows, shard
    /// workers run under `catch_unwind`, and a panicking worker cancels its
    /// siblings through a build-local child token (so the caller's token is
    /// never signalled) and surfaces as [`EvalError::WorkerPanicked`] naming
    /// the relation.
    ///
    /// # Errors
    ///
    /// [`EvalError::Cancelled`] / [`EvalError::DeadlineExceeded`] when the
    /// token fires mid-build, [`EvalError::WorkerPanicked`] when a shard
    /// worker panics.
    ///
    /// # Panics
    ///
    /// Panics if the relation has more than `u32::MAX` rows (row indices and
    /// CSR offsets are `u32`).
    pub fn build_sharded(
        atom: &BoundAtom<'_>,
        global_order: &[VarId],
        num_shards: usize,
        token: Option<&CancellationToken>,
    ) -> Result<Vec<Self>, EvalError> {
        assert!(
            atom.relation.len() <= u32::MAX as usize,
            "flat trie build supports at most 2^32 rows per relation"
        );
        let num_shards = effective_shard_count(atom.relation.len(), num_shards);
        let plan = TriePlan::new(atom, global_order);
        if num_shards <= 1 || plan.level_columns.is_empty() {
            return Ok(vec![FlatTrie::from_plan(&plan, None, token)?]);
        }
        let shard_rows = partition_rows_by_shard(atom, &plan, num_shards);
        // Build-local child token: lets a panicking shard worker cancel its
        // siblings without the cancellation leaking into the caller's token.
        let local = token.map(|t| t.child());
        build_shards_isolated(atom.relation.name(), local.as_ref(), &shard_rows, {
            let plan = &plan;
            move |rows, tok| FlatTrie::from_plan(plan, Some(rows), tok)
        })
    }

    /// The column-wise CSR build: sort the surviving rows lexicographically
    /// by the level columns, then emit every level's value and offset arrays
    /// in one pass over the sorted permutation (a row extends the arrays from
    /// the first level where its path diverges from its predecessor's;
    /// fully-equal paths — duplicate tuples — are skipped).  The emission
    /// loop polls `token` every `check_interval` rows; the lexicographic sort
    /// itself runs to completion (it is a single `sort_unstable_by`, bounded
    /// and allocation-free).
    fn from_plan(
        plan: &TriePlan<'_>,
        rows: Option<&[u32]>,
        token: Option<&CancellationToken>,
    ) -> Result<Self, EvalError> {
        faults::point("trie-build");
        let mut ticker = CancelTicker::new(token);
        let k = plan.level_columns.len();
        let num_rows = plan
            .level_columns
            .first()
            .map(|c| c.len())
            .unwrap_or_default();
        // Surviving row indices: the given shard partition (already
        // mask-filtered), or the mask's survivors, or everything.
        let mut perm: Vec<u32> = match rows {
            Some(rows) => rows.to_vec(),
            None => match &plan.pass {
                Some(mask) => {
                    let mut surviving = Vec::new();
                    kernels::select_indices(mask, 0, &mut surviving);
                    surviving
                }
                None => (0..num_rows as u32).collect(),
            },
        };
        let columns = &plan.level_columns;
        perm.sort_unstable_by(|&a, &b| {
            let (a, b) = (a as usize, b as usize);
            columns
                .iter()
                .map(|col| col[a].cmp(&col[b]))
                .find(|o| o.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut values: Vec<Vec<ValueId>> = vec![Vec::new(); k];
        let mut child_start: Vec<Vec<u32>> = vec![Vec::new(); k];
        let mut prev: Option<usize> = None;
        for &row in &perm {
            ticker.tick()?;
            let row = row as usize;
            // First level where this row's path diverges from its
            // predecessor's; `k` means a duplicate path.
            let diverge = match prev {
                None => 0,
                Some(p) => columns
                    .iter()
                    .position(|col| col[row] != col[p])
                    .unwrap_or(k),
            };
            for level in diverge..k {
                if level + 1 < k {
                    // The new entry's children begin at the next level's
                    // current end (its own entries are pushed right after,
                    // while the prefix stays equal).
                    child_start[level].push(values[level + 1].len() as u32);
                }
                values[level].push(columns[level][row]);
            }
            prev = Some(row);
        }
        // Closing sentinels: entry `i`'s children end where entry `i + 1`'s
        // begin, so each offset array carries one final end-of-level mark.
        for level in 0..k.saturating_sub(1) {
            child_start[level].push(values[level + 1].len() as u32);
        }
        Ok(FlatTrie {
            level_vars: plan.level_vars.clone(),
            levels: values
                .into_iter()
                .zip(child_start)
                .map(|(values, child_start)| FlatLevel {
                    values: values.into_boxed_slice(),
                    child_start: child_start.into_boxed_slice(),
                })
                .collect(),
        })
    }

    /// The sorted, distinct child run `lo..hi` of `level`'s value array (the
    /// root run is `0..self.level_len(0)`; descend through
    /// [`FlatTrie::child_range`]).
    pub fn run(&self, level: usize, lo: u32, hi: u32) -> &[ValueId] {
        &self.levels[level].values[lo as usize..hi as usize]
    }

    /// Number of values stored at `level` across all runs.
    pub fn level_len(&self, level: usize) -> u32 {
        self.levels[level].values.len() as u32
    }

    /// The half-open range of the next level's value array holding the
    /// children of the entry at absolute `index` of `level`.
    ///
    /// # Panics
    ///
    /// Panics (via indexing) when called on the deepest level, whose entries
    /// have no children.
    pub fn child_range(&self, level: usize, index: u32) -> (u32, u32) {
        let offsets = &self.levels[level].child_start;
        (offsets[index as usize], offsets[index as usize + 1])
    }

    /// True if a trie with at least one level holds no tuples (possible for
    /// individual shards, and for atoms whose repeated-variable filter
    /// rejects every row).  Zero-level tries (arity-zero guard atoms) carry
    /// no row information and always report non-empty — the join engine
    /// short-circuits empty relations before any trie is built.
    pub fn is_empty(&self) -> bool {
        self.levels.first().is_some_and(|l| l.values.is_empty())
    }

    /// Number of levels (distinct variables).
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Heap footprint in bytes.  The CSR arrays are exact-sized boxed
    /// slices, so this is essentially the true allocation; the byte-budgeted
    /// [`TrieCache`](crate::TrieCache) sums it over a build's shards once per
    /// insert.
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.level_vars.capacity() * std::mem::size_of::<VarId>()
            + self
                .levels
                .iter()
                .map(|l| {
                    std::mem::size_of::<FlatLevel>()
                        + l.values.len() * std::mem::size_of::<ValueId>()
                        + l.child_start.len() * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::{shard_of, MIN_ROWS_PER_SHARD};
    use ij_relation::{Relation, Value};

    fn rel(name: &str, rows: Vec<Vec<f64>>) -> Relation {
        let arity = rows.first().map(|r| r.len()).unwrap_or(0);
        Relation::from_tuples(
            name,
            arity,
            rows.into_iter()
                .map(|r| r.into_iter().map(Value::point).collect())
                .collect(),
        )
    }

    /// The unsharded trie of `atom`, built without a token.
    fn build(atom: &BoundAtom<'_>, global_order: &[VarId]) -> FlatTrie {
        let mut tries = FlatTrie::build_sharded(atom, global_order, 1, None).unwrap();
        assert_eq!(tries.len(), 1);
        tries.pop().unwrap()
    }

    fn id(p: f64) -> ValueId {
        ValueId::intern(Value::point(p))
    }

    fn lcg(mut seed: u64, modulus: u64) -> impl FnMut() -> f64 {
        move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % modulus) as f64
        }
    }

    /// Collects every full-depth root-to-leaf path of a flat trie (also
    /// asserting that every run is sorted and distinct).
    fn flat_paths(trie: &FlatTrie) -> Vec<Vec<ValueId>> {
        fn rec(
            trie: &FlatTrie,
            level: usize,
            lo: u32,
            hi: u32,
            prefix: &mut Vec<ValueId>,
            out: &mut Vec<Vec<ValueId>>,
        ) {
            let run = trie.run(level, lo, hi);
            assert!(
                run.windows(2).all(|w| w[0] < w[1]),
                "runs must be sorted and distinct"
            );
            for (i, &v) in run.iter().enumerate() {
                prefix.push(v);
                if level + 1 < trie.depth() {
                    let (clo, chi) = trie.child_range(level, lo + i as u32);
                    rec(trie, level + 1, clo, chi, prefix, out);
                } else {
                    out.push(prefix.clone());
                }
                prefix.pop();
            }
        }
        let mut out = Vec::new();
        if trie.depth() > 0 {
            rec(trie, 0, 0, trie.level_len(0), &mut Vec::new(), &mut out);
        }
        out
    }

    /// The paths a trie over `atom` must hold, computed row by row: drop rows
    /// whose repeated variables disagree, project onto `levels`, sort, dedup.
    fn reference_paths(atom: &BoundAtom<'_>, levels: &[VarId]) -> Vec<Vec<ValueId>> {
        let column_of = |v: VarId| atom.vars.iter().position(|&u| u == v).unwrap();
        let mut out: Vec<Vec<ValueId>> = (0..atom.relation.len())
            .filter(|&row| {
                atom.vars.iter().enumerate().all(|(i, &v)| {
                    atom.relation.column_ids(i)[row] == atom.relation.column_ids(column_of(v))[row]
                })
            })
            .map(|row| {
                levels
                    .iter()
                    .map(|&v| atom.relation.column_ids(column_of(v))[row])
                    .collect()
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn flat_paths_equal_the_row_reference() {
        let mut next = lcg(11, 7);
        let rows: Vec<Vec<f64>> = (0..200).map(|_| vec![next(), next(), next()]).collect();
        let r = rel("R", rows);
        // Plain bindings, a permuted level order, and a repeated variable.
        for (vars, levels) in [
            (vec![0, 1, 2], vec![1, 2, 0]),
            (vec![2, 0, 1], vec![1, 2, 0]),
            (vec![0, 1, 0], vec![1, 0]),
        ] {
            let atom = BoundAtom::new(&r, vars.clone());
            let flat = build(&atom, &[1, 2, 0]);
            assert_eq!(flat.level_vars, levels, "vars {vars:?}");
            assert_eq!(flat.depth(), levels.len());
            let got = flat_paths(&flat);
            // Flat enumeration is already lexicographically sorted.
            assert!(got.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(got, reference_paths(&atom, &levels), "vars {vars:?}");
        }
    }

    #[test]
    fn trie_levels_follow_global_order() {
        let r = rel("R", vec![vec![1.0, 2.0], vec![1.0, 3.0], vec![4.0, 2.0]]);
        let atom = BoundAtom::new(&r, vec![5, 2]);
        // Global order puts variable 2 before variable 5.
        let trie = build(&atom, &[2, 5]);
        assert_eq!(trie.level_vars, vec![2, 5]);
        // Root fanout: distinct values of column bound to var 2 (the second
        // column): {2.0, 3.0}.
        let root = trie.run(0, 0, trie.level_len(0));
        assert_eq!(root.len(), 2);
        let at = root.iter().position(|&v| v == id(2.0)).unwrap();
        // Under 2.0 the values of var 5 are {1.0, 4.0}.
        let (lo, hi) = trie.child_range(0, at as u32);
        let under = trie.run(1, lo, hi);
        assert_eq!(under.len(), 2);
        assert!(under.contains(&id(1.0)));
    }

    #[test]
    fn sharded_flat_build_partitions_the_unsharded_trie() {
        let mut next = lcg(3, 9);
        // Large enough that even 8 requested shards pass the
        // MIN_ROWS_PER_SHARD sizing and actually shard.
        let n = 8 * MIN_ROWS_PER_SHARD;
        let rows: Vec<Vec<f64>> = (0..n).map(|_| vec![next(), next()]).collect();
        let r = rel("R", rows);
        for vars in [vec![5, 2], vec![2, 5], vec![5, 5]] {
            let atom = BoundAtom::new(&r, vars);
            let order = [2, 5];
            let full_trie = build(&atom, &order);
            let full = flat_paths(&full_trie);
            for num_shards in [2usize, 3, 8] {
                let shards = FlatTrie::build_sharded(&atom, &order, num_shards, None).unwrap();
                assert_eq!(shards.len(), effective_shard_count(n, num_shards));
                assert_eq!(shards.len(), num_shards);
                let mut union = Vec::new();
                for (index, shard) in shards.iter().enumerate() {
                    assert_eq!(shard.level_vars, full_trie.level_vars);
                    // Every first-level value in this shard hashes to it.
                    for &id in shard.run(0, 0, shard.level_len(0)) {
                        assert_eq!(shard_of(id, num_shards), index);
                    }
                    union.extend(flat_paths(shard));
                }
                union.sort_unstable();
                assert_eq!(union, full, "shards {num_shards}");
            }
        }
        // Small relations degrade to one unsharded trie, equal to the full
        // build.
        let small = rel("S", (0..40).map(|i| vec![i as f64, -(i as f64)]).collect());
        let atom = BoundAtom::new(&small, vec![0, 1]);
        let shards = FlatTrie::build_sharded(&atom, &[0, 1], 8, None).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(flat_paths(&shards[0]), flat_paths(&build(&atom, &[0, 1])));
    }

    #[test]
    fn duplicates_collapse_and_repeated_variables_filter() {
        let r = rel(
            "R",
            vec![
                vec![1.0, 1.0],
                vec![1.0, 1.0], // duplicate path
                vec![1.0, 2.0], // rejected by A == A filter
                vec![3.0, 3.0],
            ],
        );
        let atom = BoundAtom::new(&r, vec![0, 0]);
        let flat = build(&atom, &[0]);
        assert_eq!(flat.depth(), 1);
        assert_eq!(flat.level_len(0), 2, "values {{1.0, 3.0}} survive");
        assert!(!flat.run(0, 0, 2).contains(&id(2.0)));
        // A filter that rejects everything leaves an empty (non-zero-level)
        // trie.
        let none = rel("N", vec![vec![1.0, 2.0]]);
        let empty = build(&BoundAtom::new(&none, vec![0, 0]), &[0]);
        assert!(empty.is_empty());
        // Zero-level guard atoms report non-empty, sharded or not.
        let mut guard = Relation::new("G", 0);
        guard.push(vec![]);
        let zero = build(&BoundAtom::new(&guard, vec![]), &[]);
        assert_eq!(zero.depth(), 0);
        assert!(!zero.is_empty());
        let shards =
            FlatTrie::build_sharded(&BoundAtom::new(&guard, vec![]), &[], 4, None).unwrap();
        assert_eq!(shards.len(), 1);
        assert_eq!(shards[0].depth(), 0);
        assert!(!shards[0].is_empty());
    }

    #[test]
    fn heap_bytes_track_flat_trie_size() {
        let small = rel("S", vec![vec![1.0]]);
        let small_trie = build(&BoundAtom::new(&small, vec![0]), &[0]);
        assert!(small_trie.heap_bytes() > std::mem::size_of::<FlatTrie>());
        // 256 two-level paths dwarf a single one-level path.
        let rows: Vec<Vec<f64>> = (0..256).map(|i| vec![i as f64, -(i as f64)]).collect();
        let big = rel("B", rows);
        let big_trie = build(&BoundAtom::new(&big, vec![0, 1]), &[0, 1]);
        assert!(big_trie.heap_bytes() > 8 * small_trie.heap_bytes());
        // A sharded build accounts the same content across its shards: the
        // shard sum exceeds the unsharded size only by per-trie overhead (at
        // most one single-path two-level trie per shard).
        let single = rel("P", vec![vec![1.0, 2.0]]);
        let per_trie = build(&BoundAtom::new(&single, vec![0, 1]), &[0, 1]).heap_bytes();
        let n = 4 * MIN_ROWS_PER_SHARD;
        let wide = rel("W", (0..n).map(|i| vec![i as f64, -(i as f64)]).collect());
        let atom = BoundAtom::new(&wide, vec![0, 1]);
        let full = build(&atom, &[0, 1]).heap_bytes();
        let shards = FlatTrie::build_sharded(&atom, &[0, 1], 4, None).unwrap();
        assert_eq!(shards.len(), 4);
        let sharded_sum: usize = shards.iter().map(FlatTrie::heap_bytes).sum();
        assert!(sharded_sum >= full, "{sharded_sum} < {full}");
        assert!(sharded_sum <= full + 4 * per_trie);
    }

    #[test]
    fn trie_children_resolve_back_to_values() {
        let r = rel("R", vec![vec![7.0], vec![8.0]]);
        let trie = build(&BoundAtom::new(&r, vec![0]), &[0]);
        let mut values: Vec<Value> = trie
            .run(0, 0, trie.level_len(0))
            .iter()
            .map(|id| id.resolve())
            .collect();
        values.sort();
        assert_eq!(values, vec![Value::point(7.0), Value::point(8.0)]);
    }
}
