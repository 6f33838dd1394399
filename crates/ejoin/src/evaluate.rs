//! Strategy selection for Boolean equality-join evaluation.
//!
//! * α-acyclic queries run Yannakakis' algorithm (linear time);
//! * cyclic queries run the width-guided evaluation: compute an optimal
//!   fractional hypertree decomposition, materialise every bag with the
//!   generic worst-case-optimal join, then run Yannakakis over the bag
//!   relations (the recipe of Appendix A.2.1, giving `O(N^{fhtw} log N)`);
//! * the plain generic join over the whole query is available as a fallback
//!   and for ablation benchmarks.

use crate::atom::{hypergraph_of, BoundAtom};
use crate::cache::EvalContext;
use crate::generic::{generic_join_boolean, generic_join_enumerate};
use crate::yannakakis::yannakakis_boolean;
use ij_hypergraph::VarId;
use ij_relation::sync::{read_recover, write_recover};
use ij_relation::{EvalError, Relation};
use ij_widths::{optimal_tree_decomposition, MAX_DP_VERTICES};

/// Lock class of the process-global decomposition memo
/// (`sync::lock_order`); a leaf: held only to probe or insert one entry.
const TD_CACHE_CLASS: &str = "tree-decomposition-cache";

/// The evaluation strategy for Boolean EJ queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EjStrategy {
    /// Pick automatically: Yannakakis when acyclic, otherwise the
    /// decomposition-guided evaluation (falling back to the generic join when
    /// the query has too many variables for the exact decomposition DP).
    #[default]
    Auto,
    /// Force Yannakakis (returns an error for cyclic queries).
    Yannakakis,
    /// Force the plain generic worst-case-optimal join.
    GenericJoin,
    /// Force the decomposition-guided evaluation.
    Decomposition,
}

/// Evaluates a Boolean conjunctive query with equality joins.
///
/// For the `Auto` and `Decomposition` strategies, variables occurring in only
/// one atom are projected away first (they are existential and impose no join
/// condition); this mirrors the "drop singleton variables" step the paper
/// applies analytically in Appendix E.4/F and keeps the per-query
/// decomposition work proportional to the join structure rather than the
/// schema width.
///
/// Every trie built anywhere under the chosen strategy (the plain generic
/// join, and the bag materialisations of the decomposition-guided
/// evaluation) is served from the context's cache and sharded per its shard
/// count — and every cache lookup is metered as the context's tenant and
/// counted into the context's evaluation-local
/// [`CacheActivity`](crate::CacheActivity) accumulator, if one is attached.
/// The answer is identical for every context.
///
/// # Errors
///
/// Propagates the [`EvalError`] of any trie build or join search under the
/// chosen strategy when the context's
/// [`CancellationToken`](ij_relation::CancellationToken) fires or a build
/// worker panics.  A tokenless context is never cancelled.
pub fn evaluate_ej_boolean(
    atoms: &[BoundAtom<'_>],
    strategy: EjStrategy,
    eval: EvalContext<'_>,
) -> Result<bool, EvalError> {
    match strategy {
        EjStrategy::Auto | EjStrategy::Decomposition => {
            if atoms.is_empty() {
                return Ok(true);
            }
            if atoms.iter().any(|a| a.relation.is_empty()) {
                return Ok(false);
            }
            let (relations, varsets) = project_singleton_variables(atoms);
            let projected: Vec<BoundAtom<'_>> = relations
                .iter()
                .zip(&varsets)
                .map(|(rel, vars)| BoundAtom::new(rel, vars.clone()))
                .collect();
            if strategy == EjStrategy::Auto {
                if let Some(answer) = yannakakis_boolean(&projected) {
                    Ok(answer)
                } else if hypergraph_of(&projected).0.num_vertices() <= MAX_DP_VERTICES {
                    decomposition_boolean(&projected, eval)
                } else {
                    generic_join_boolean(&projected, None, eval)
                }
            } else {
                decomposition_boolean(&projected, eval)
            }
        }
        EjStrategy::Yannakakis => {
            Ok(yannakakis_boolean(atoms)
                .expect("Yannakakis strategy requires an alpha-acyclic query"))
        }
        EjStrategy::GenericJoin => generic_join_boolean(atoms, None, eval),
    }
}

/// Projects every atom onto its variables that occur in at least two atoms.
/// Variables private to a single atom are existential in a Boolean query, so
/// dropping their columns (and deduplicating) preserves the answer; an atom
/// whose variables are all private degenerates to a non-emptiness check
/// (arity-0 relation with a single empty tuple).
fn project_singleton_variables(atoms: &[BoundAtom<'_>]) -> (Vec<Relation>, Vec<Vec<VarId>>) {
    use std::collections::HashMap;
    let mut atom_count: HashMap<VarId, usize> = HashMap::new();
    for atom in atoms {
        for v in atom.var_set() {
            *atom_count.entry(v).or_insert(0) += 1;
        }
    }
    let mut relations = Vec::with_capacity(atoms.len());
    let mut varsets = Vec::with_capacity(atoms.len());
    for atom in atoms {
        // First column of each shared variable.
        let mut cols: Vec<usize> = Vec::new();
        let mut vars: Vec<VarId> = Vec::new();
        for (c, &v) in atom.vars.iter().enumerate() {
            if atom_count[&v] >= 2 && !vars.contains(&v) {
                vars.push(v);
                cols.push(c);
            }
        }
        let mut projected = atom
            .relation
            .project(&cols, atom.relation.name().to_string());
        projected.dedup();
        relations.push(projected);
        varsets.push(vars);
    }
    (relations, varsets)
}

/// Width-guided evaluation: materialise the bags of an optimal fractional
/// hypertree decomposition with the generic join, then run Yannakakis over
/// the (acyclic) bag query.  The context is threaded into every bag
/// materialisation (and the generic-join fallback).
///
/// # Errors
///
/// Propagates any bag materialisation's [`EvalError`] — a cancelled bag would
/// under-approximate the join, so the whole evaluation fails instead.
pub fn decomposition_boolean(
    atoms: &[BoundAtom<'_>],
    eval: EvalContext<'_>,
) -> Result<bool, EvalError> {
    if atoms.is_empty() {
        return Ok(true);
    }
    if atoms.iter().any(|a| a.relation.is_empty()) {
        return Ok(false);
    }
    let (h, dense_to_caller) = hypergraph_of(atoms);
    // The reduction of a single IJ query evaluates many EJ disjuncts sharing
    // a handful of hypergraph shapes; memoise the (purely structural) optimal
    // decomposition per shape so the subset DP and its LPs run once per shape
    // rather than once per disjunct.  The cache is process-global (not
    // thread-local) so the short-lived workers of the parallel disjunct
    // evaluation share it instead of each recomputing the decompositions.
    let td = {
        use std::collections::HashMap;
        use std::sync::{OnceLock, RwLock};
        type TdCache = RwLock<HashMap<Vec<Vec<usize>>, ij_widths::TreeDecomposition>>;
        static TD_CACHE: OnceLock<TdCache> = OnceLock::new();
        let cache = TD_CACHE.get_or_init(|| RwLock::new(HashMap::new()));
        let key: Vec<Vec<usize>> = h
            .edges()
            .iter()
            .map(|e| e.vertices.iter().copied().collect())
            .collect();
        let cached = read_recover(cache, TD_CACHE_CLASS).get(&key).cloned();
        match cached {
            Some(td) => td,
            None => {
                let td = optimal_tree_decomposition(&h);
                write_recover(cache, TD_CACHE_CLASS)
                    .entry(key)
                    .or_insert_with(|| td.clone());
                td
            }
        }
    };

    // Materialise every bag over the caller's variable identifiers.
    let bags: Vec<(Relation, Vec<VarId>)> = td
        .bags
        .iter()
        .enumerate()
        .map(|(i, bag)| {
            let bag_vars: Vec<VarId> = bag.iter().map(|&dense| dense_to_caller[dense]).collect();
            Ok((
                materialise_bag(atoms, &bag_vars, &format!("bag{i}"), eval)?,
                bag_vars,
            ))
        })
        .collect::<Result<_, EvalError>>()?;
    if bags
        .iter()
        .any(|(rel, vars)| rel.is_empty() && !vars.is_empty())
    {
        return Ok(false);
    }

    // The bag query is acyclic by construction; evaluate it with Yannakakis.
    let bag_atoms: Vec<BoundAtom<'_>> = bags
        .iter()
        .map(|(rel, vars)| BoundAtom::new(rel, vars.clone()))
        .collect();
    match yannakakis_boolean(&bag_atoms) {
        Some(answer) => Ok(answer),
        None => generic_join_boolean(&bag_atoms, None, eval),
    }
}

/// Materialises one bag: the join of the projections of every overlapping
/// atom onto the bag (atoms fully contained in the bag are enforced exactly;
/// the others act as semijoin filters).  The projections computed here are
/// deterministic functions of the atoms and the bag, so when the same bag
/// recurs across the disjuncts of a reduction, the context's cache serves the
/// projection tries without rebuilding them.
///
/// # Errors
///
/// Propagates the underlying enumeration's [`EvalError`] (cancellation,
/// deadline expiry, or a trie-build worker panic).
pub fn materialise_bag(
    atoms: &[BoundAtom<'_>],
    bag_vars: &[VarId],
    name: &str,
    eval: EvalContext<'_>,
) -> Result<Relation, EvalError> {
    // Project each overlapping atom onto the bag.
    let mut projected: Vec<(Relation, Vec<VarId>)> = Vec::new();
    for atom in atoms {
        let keep: Vec<usize> = (0..atom.vars.len())
            .filter(|&c| bag_vars.contains(&atom.vars[c]))
            .collect();
        if keep.is_empty() {
            continue;
        }
        // Deduplicate columns bound to the same variable.
        let mut cols: Vec<usize> = Vec::new();
        let mut seen: Vec<VarId> = Vec::new();
        for &c in &keep {
            if !seen.contains(&atom.vars[c]) {
                seen.push(atom.vars[c]);
                cols.push(c);
            }
        }
        let mut proj = atom
            .relation
            .project(&cols, format!("{}|{name}", atom.relation.name()));
        proj.dedup();
        let proj_vars: Vec<VarId> = cols.iter().map(|&c| atom.vars[c]).collect();
        projected.push((proj, proj_vars));
    }
    let proj_atoms: Vec<BoundAtom<'_>> = projected
        .iter()
        .map(|(rel, vars)| BoundAtom::new(rel, vars.clone()))
        .collect();
    generic_join_enumerate(&proj_atoms, bag_vars, name, eval)
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn answer(atoms: &[BoundAtom<'_>], strategy: EjStrategy) -> bool {
        evaluate_ej_boolean(atoms, strategy, EvalContext::default()).unwrap()
    }

    const A: VarId = 0;
    const B: VarId = 1;
    const C: VarId = 2;
    const D: VarId = 3;

    fn triangle_atoms<'a>(r: &'a Relation, s: &'a Relation, t: &'a Relation) -> Vec<BoundAtom<'a>> {
        vec![
            BoundAtom::new(r, vec![A, B]),
            BoundAtom::new(s, vec![B, C]),
            BoundAtom::new(t, vec![A, C]),
        ]
    }

    #[test]
    fn all_strategies_agree_on_the_triangle() {
        let r = rel("R", vec![vec![1.0, 2.0], vec![5.0, 6.0], vec![1.0, 6.0]]);
        let s = rel("S", vec![vec![2.0, 3.0], vec![6.0, 7.0]]);
        let t = rel("T", vec![vec![1.0, 3.0], vec![5.0, 9.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        let expected = true;
        assert_eq!(answer(&atoms, EjStrategy::Auto), expected);
        assert_eq!(answer(&atoms, EjStrategy::GenericJoin), expected);
        assert_eq!(answer(&atoms, EjStrategy::Decomposition), expected);
    }

    #[test]
    fn decomposition_handles_negative_instances() {
        let r = rel("R", vec![vec![1.0, 2.0]]);
        let s = rel("S", vec![vec![2.0, 3.0]]);
        let t = rel("T", vec![vec![4.0, 3.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        assert!(!answer(&atoms, EjStrategy::Decomposition));
        assert!(!answer(&atoms, EjStrategy::Auto));
        assert!(!answer(&atoms, EjStrategy::GenericJoin));
    }

    #[test]
    fn acyclic_queries_use_yannakakis_in_auto_mode() {
        let r = rel("R", vec![vec![1.0, 2.0]]);
        let s = rel("S", vec![vec![2.0, 3.0]]);
        let atoms = vec![
            BoundAtom::new(&r, vec![A, B]),
            BoundAtom::new(&s, vec![B, C]),
        ];
        assert!(answer(&atoms, EjStrategy::Auto));
        assert!(answer(&atoms, EjStrategy::Yannakakis));
    }

    #[test]
    fn materialise_bag_computes_the_projection_join() {
        // Bag {A, B, C} of the triangle: the classic ABC join of the three
        // binary projections.
        let r = rel("R", vec![vec![1.0, 2.0], vec![1.0, 9.0]]);
        let s = rel("S", vec![vec![2.0, 3.0]]);
        let t = rel("T", vec![vec![1.0, 3.0]]);
        let atoms = triangle_atoms(&r, &s, &t);
        let bag = materialise_bag(&atoms, &[A, B, C], "bag", EvalContext::default()).unwrap();
        assert_eq!(bag.len(), 1);
        assert_eq!(
            bag.tuples()[0],
            vec![Value::point(1.0), Value::point(2.0), Value::point(3.0)]
        );
    }

    #[test]
    fn four_cycle_agreement_between_strategies() {
        // R(A,B) ∧ S(B,C) ∧ T(C,D) ∧ U(D,A) on small random-ish data.
        let mut seed = 7u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) % 5) as f64
        };
        for _ in 0..30 {
            let rows = |n: usize, next: &mut dyn FnMut() -> f64| {
                (0..n).map(|_| vec![next(), next()]).collect::<Vec<_>>()
            };
            let r = rel("R", rows(5, &mut next));
            let s = rel("S", rows(5, &mut next));
            let t = rel("T", rows(5, &mut next));
            let u = rel("U", rows(5, &mut next));
            let atoms = vec![
                BoundAtom::new(&r, vec![A, B]),
                BoundAtom::new(&s, vec![B, C]),
                BoundAtom::new(&t, vec![C, D]),
                BoundAtom::new(&u, vec![D, A]),
            ];
            let generic = answer(&atoms, EjStrategy::GenericJoin);
            let decomp = answer(&atoms, EjStrategy::Decomposition);
            let auto = answer(&atoms, EjStrategy::Auto);
            assert_eq!(generic, decomp);
            assert_eq!(generic, auto);
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(answer(&[], EjStrategy::Auto));
        assert!(answer(&[], EjStrategy::Decomposition));
        let empty = Relation::new("R", 1);
        let atoms = vec![BoundAtom::new(&empty, vec![A])];
        assert!(!answer(&atoms, EjStrategy::Auto));
        assert!(!answer(&atoms, EjStrategy::Decomposition));
    }
}
