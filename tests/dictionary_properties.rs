//! Property tests for the interned columnar core: the value dictionary
//! (intern/resolve round-trips, dedup, ordering stability) and the
//! equivalence of the `u32`-keyed flat tries with a reference `Value`-keyed
//! trie on random workloads.

use ij_ejoin::{generic_join_boolean, BoundAtom, EvalContext, FlatTrie};
use ij_hypergraph::VarId;
use ij_relation::{Dictionary, Relation, Value, ValueId};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A strategy for mixed point/interval values over a small domain (ties are
/// likely, which is what interning must handle).
fn arb_value() -> impl Strategy<Value = Value> {
    (0u32..3, 0i32..12, 0i32..4).prop_map(|(kind, a, len)| match kind {
        0 => Value::point(a as f64),
        _ => Value::interval(a as f64, (a + len) as f64),
    })
}

/// A strategy for small binary relations of integer points.
fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(i32, i32)>> {
    proptest::collection::vec((0i32..6, 0i32..6), 1..=max)
}

/// The reference trie of the pre-interning engine: nodes keyed by full
/// [`Value`]s, built from materialised rows.
#[derive(Debug, Default)]
struct ValueTrie {
    children: BTreeMap<Value, ValueTrie>,
}

impl ValueTrie {
    fn insert_path(&mut self, values: &[Value]) {
        if let Some((first, rest)) = values.split_first() {
            self.children.entry(*first).or_default().insert_path(rest);
        }
    }

    /// Builds the trie exactly like [`FlatTrie::build_sharded`], but over rows of
    /// values: distinct variables in global order, repeated columns filtered
    /// by value equality.
    fn build(relation: &Relation, vars: &[VarId], global_order: &[VarId]) -> Self {
        let mut level_vars: Vec<VarId> = vars.to_vec();
        level_vars.sort_unstable();
        level_vars.dedup();
        level_vars.sort_by_key(|v| global_order.iter().position(|u| u == v).unwrap());
        let first_col: Vec<usize> = level_vars
            .iter()
            .map(|&v| vars.iter().position(|&u| u == v).unwrap())
            .collect();
        let mut equal_pairs: Vec<(usize, usize)> = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            let first = vars.iter().position(|&u| u == v).unwrap();
            if first != i {
                equal_pairs.push((first, i));
            }
        }
        let mut root = ValueTrie::default();
        'rows: for t in relation.tuples() {
            for &(a, b) in &equal_pairs {
                if t[a] != t[b] {
                    continue 'rows;
                }
            }
            let path: Vec<Value> = first_col.iter().map(|&c| t[c]).collect();
            root.insert_path(&path);
        }
        root
    }
}

impl ValueTrie {
    /// Every root-to-leaf path of a trie with `depth` levels, in key order.
    fn paths(&self, depth: usize) -> Vec<Vec<Value>> {
        if depth == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for (value, child) in &self.children {
            for mut rest in child.paths(depth - 1) {
                rest.insert(0, *value);
                out.push(rest);
            }
        }
        out
    }
}

/// Every root-to-leaf path of a flat trie, with ids resolved to values.
fn flat_value_paths(trie: &FlatTrie) -> Vec<Vec<Value>> {
    fn rec(
        trie: &FlatTrie,
        level: usize,
        lo: u32,
        prefix: &mut Vec<Value>,
        run: &[ValueId],
        out: &mut Vec<Vec<Value>>,
    ) {
        for (i, id) in run.iter().enumerate() {
            prefix.push(id.resolve());
            if level + 1 < trie.depth() {
                let (clo, chi) = trie.child_range(level, lo + i as u32);
                rec(
                    trie,
                    level + 1,
                    clo,
                    prefix,
                    trie.run(level + 1, clo, chi),
                    out,
                );
            } else {
                out.push(prefix.clone());
            }
            prefix.pop();
        }
    }
    let mut out = Vec::new();
    rec(
        trie,
        0,
        0,
        &mut Vec::new(),
        trie.run(0, 0, trie.level_len(0)),
        &mut out,
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Interning and resolving through the shared dictionary round-trips and
    /// deduplicates: equal values get equal ids, distinct values distinct ids.
    #[test]
    fn intern_resolve_round_trip_and_dedup(values in proptest::collection::vec(arb_value(), 1..40)) {
        let ids: Vec<ValueId> = values.iter().map(|&v| ValueId::intern(v)).collect();
        for (&v, &id) in values.iter().zip(&ids) {
            prop_assert_eq!(id.resolve(), v);
        }
        for (i, &a) in values.iter().enumerate() {
            for (j, &b) in values.iter().enumerate() {
                prop_assert_eq!(a == b, ids[i] == ids[j], "values {:?} / {:?}", a, b);
            }
        }
    }

    /// Ordering stability: once assigned, an id never changes — re-interning
    /// after arbitrary further interns yields the original ids, and the
    /// dictionary lookup agrees.
    #[test]
    fn interned_ids_are_stable(
        first in proptest::collection::vec(arb_value(), 1..20),
        later in proptest::collection::vec(arb_value(), 0..20),
    ) {
        let before: Vec<ValueId> = first.iter().map(|&v| ValueId::intern(v)).collect();
        for &v in &later {
            ValueId::intern(v);
        }
        let after: Vec<ValueId> = first.iter().map(|&v| ValueId::intern(v)).collect();
        prop_assert_eq!(&before, &after);
        let dict = Dictionary::reader();
        for (&v, &id) in first.iter().zip(&before) {
            prop_assert_eq!(dict.lookup(&v), Some(id));
        }
    }

    /// The u32-keyed flat trie of the join engine holds exactly the paths of
    /// the reference Value-keyed trie on random relations, including repeated
    /// variables (filters) and both level orders.
    #[test]
    fn id_trie_matches_value_trie(rows in arb_rows(20), repeated in 0u32..3) {
        let vars: Vec<VarId> = match repeated {
            0 => vec![0, 1],
            1 => vec![1, 0],
            _ => vec![0, 0],
        };
        let relation = Relation::from_tuples(
            "R",
            2,
            rows.iter().map(|&(a, b)| vec![Value::point(a as f64), Value::point(b as f64)]).collect(),
        );
        for order in [vec![0, 1], vec![1, 0]] {
            let atom = BoundAtom::new(&relation, vars.clone());
            let id_trie = FlatTrie::build_sharded(&atom, &order, 1, None).unwrap().remove(0);
            let value_trie = ValueTrie::build(&relation, &vars, &order);
            let depth = if repeated == 2 { 1 } else { 2 };
            prop_assert_eq!(id_trie.depth(), depth);
            let mut got = flat_value_paths(&id_trie);
            got.sort();
            prop_assert_eq!(got, value_trie.paths(depth));
        }
    }

    /// End-to-end: the id-keyed generic join answers the triangle query the
    /// same as a brute-force check over materialised rows.
    #[test]
    fn id_joins_match_row_oriented_answers(
        r in arb_rows(8),
        s in arb_rows(8),
        t in arb_rows(8),
    ) {
        let rel = |name: &str, rows: &[(i32, i32)]| {
            Relation::from_tuples(
                name,
                2,
                rows.iter().map(|&(a, b)| vec![Value::point(a as f64), Value::point(b as f64)]).collect(),
            )
        };
        let (r, s, t) = (rel("R", &r), rel("S", &s), rel("T", &t));
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
            BoundAtom::new(&t, vec![0, 2]),
        ];
        let expected = r.tuples().iter().any(|ra| {
            s.tuples().iter().any(|sa| {
                t.tuples().iter().any(|ta| ra[1] == sa[0] && ra[0] == ta[0] && sa[1] == ta[1])
            })
        });
        let answer = generic_join_boolean(&atoms, None, EvalContext::default()).unwrap();
        prop_assert_eq!(answer, expected);
    }
}
