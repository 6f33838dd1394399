//! Property tests for the interned columnar core: the value dictionary
//! (intern/resolve round-trips, dedup, ordering stability), the canonical
//! bitstring ids that bypass it, the integer `Relation::dedup`, and the
//! equivalence of the `u32`-keyed flat tries with a reference `Value`-keyed
//! trie on random workloads.

use ij_ejoin::{generic_join_boolean, BoundAtom, EvalContext, FlatTrie};
use ij_hypergraph::VarId;
use ij_relation::{Dictionary, Relation, SharedDictionary, Value, ValueId, BITS_ID_MAX_LEN};
use ij_segtree::{BitString, MAX_BITS};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The first raw id of the tagged range holding canonical bitstring ids.
const TAGGED: u32 = 1 << 31;

/// A strategy for mixed point/interval values over a small domain (ties are
/// likely, which is what interning must handle).
fn arb_value() -> impl Strategy<Value = Value> {
    (0u32..3, 0i32..12, 0i32..4).prop_map(|(kind, a, len)| match kind {
        0 => Value::point(a as f64),
        _ => Value::interval(a as f64, (a + len) as f64),
    })
}

/// A bitstring of exactly `len` bits with random contents.
fn bits_of_len(len: u8, raw: u64) -> BitString {
    let mask = if len == 64 {
        u64::MAX
    } else {
        (1u64 << len) - 1
    };
    BitString::from_bits(raw & mask, len)
}

/// A strategy for bitstrings of every length up to [`MAX_BITS`]: canonical
/// ones (up to [`BITS_ID_MAX_LEN`]) and the longer ones that fall back to
/// the stripes.
fn arb_bits() -> impl Strategy<Value = BitString> {
    (0u8..=MAX_BITS, 0u64..u64::MAX).prop_map(|(len, raw)| bits_of_len(len, raw))
}

/// A value of a column kind over a small domain, so duplicate rows are
/// likely: points, intervals, short (canonical) bitstrings, long (striped)
/// bitstrings, or any of them mixed in one column.
fn value_of_kind(kind: u8, (pick, a, b): (u8, u32, u32)) -> Value {
    match if kind == 4 { pick % 4 } else { kind } {
        0 => Value::point(f64::from(a)),
        1 => Value::interval(f64::from(a), f64::from(a + b)),
        2 => Value::Bits(bits_of_len(b as u8, u64::from(a))),
        _ => Value::Bits(bits_of_len(BITS_ID_MAX_LEN + 1 + b as u8, u64::from(a))),
    }
}

/// A strategy for relations of arity 0–10 (every arm of `Relation::dedup`):
/// per column a kind (see [`value_of_kind`]), then up to 40 rows over small
/// domains, every third of them repeated so that wide rows have duplicates
/// too.
fn arb_mixed_relation() -> impl Strategy<Value = Vec<Vec<Value>>> {
    (0usize..=10).prop_flat_map(|arity| {
        (
            proptest::collection::vec(0u8..5, arity..=arity),
            proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0u32..4, 0u32..3), arity..=arity),
                0..40,
            ),
        )
            .prop_map(|(kinds, rows)| {
                let mut rows: Vec<Vec<Value>> = rows
                    .into_iter()
                    .map(|row| {
                        kinds
                            .iter()
                            .zip(row)
                            .map(|(&kind, seed)| value_of_kind(kind, seed))
                            .collect()
                    })
                    .collect();
                let repeats: Vec<Vec<Value>> = rows.iter().step_by(3).cloned().collect();
                rows.extend(repeats);
                rows
            })
    })
}

/// The raw ids of every row of a relation, in row order.
fn raw_rows(relation: &Relation) -> Vec<Vec<u32>> {
    (0..relation.len())
        .map(|row| {
            (0..relation.arity())
                .map(|col| relation.id_at(row, col).raw())
                .collect()
        })
        .collect()
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

    /// Random bitstrings of every length: canonical ones round-trip through
    /// `ValueId::of_bits` / `as_bits` and live in the tagged range; longer
    /// ones have no canonical id and intern into the stripes instead.  Both
    /// resolve and look up to themselves through the dictionary.
    #[test]
    fn bits_ids_round_trip_up_to_the_canonical_limit_and_fall_back_above(
        bits in proptest::collection::vec(arb_bits(), 1..40),
    ) {
        let dict = SharedDictionary::new();
        for &b in &bits {
            let id = dict.intern(Value::Bits(b));
            if b.len() <= BITS_ID_MAX_LEN {
                prop_assert_eq!(ValueId::of_bits(b), Some(id));
                prop_assert_eq!(id.as_bits(), Some(b));
                prop_assert!(id.raw() >= TAGGED, "{:?} -> {:#x}", b, id.raw());
            } else {
                prop_assert_eq!(ValueId::of_bits(b), None);
                prop_assert_eq!(id.as_bits(), None);
                prop_assert!(id.raw() < TAGGED, "{:?} -> {:#x}", b, id.raw());
            }
            prop_assert_ne!(id, ValueId::dummy());
            prop_assert_eq!(dict.resolve(id), Value::Bits(b));
            prop_assert_eq!(dict.lookup(&Value::Bits(b)), Some(id));
            prop_assert_eq!(dict.reader().resolve(id), Value::Bits(b));
            prop_assert_eq!(dict.reader().lookup(&Value::Bits(b)), Some(id));
        }
        // Only the fallback lengths occupy the stripes.
        let long: HashSet<BitString> =
            bits.iter().copied().filter(|b| b.len() > BITS_ID_MAX_LEN).collect();
        prop_assert_eq!(dict.len(), long.len());
    }

    /// Points and intervals intern into the stripe range, never onto a
    /// canonical bitstring id and never onto the dummy sentinel.
    #[test]
    fn point_and_interval_ids_never_alias_bits_ids(
        values in proptest::collection::vec(arb_value(), 1..40),
        bits in proptest::collection::vec(arb_bits(), 1..40),
    ) {
        let dict = SharedDictionary::new();
        for &v in &values {
            let id = dict.intern(v);
            prop_assert!(id.raw() < TAGGED, "{:?} -> {:#x}", v, id.raw());
            prop_assert_eq!(id.as_bits(), None);
            prop_assert_ne!(id, ValueId::dummy());
        }
        for &b in &bits {
            if let Some(id) = ValueId::of_bits(b) {
                prop_assert!(id.raw() >= TAGGED);
                prop_assert_ne!(id, ValueId::dummy());
            }
        }
        prop_assert_eq!(ValueId::dummy().as_bits(), None);
    }

    /// Interning canonical bitstrings leaves the dictionary untouched: no
    /// entry and no byte is added, however many are interned.
    #[test]
    fn interning_canonical_bits_leaves_the_dictionary_unchanged(
        values in proptest::collection::vec(arb_value(), 0..20),
        raw in proptest::collection::vec((0u8..=BITS_ID_MAX_LEN, 0u64..u64::MAX), 1..200),
    ) {
        let dict = SharedDictionary::new();
        for &v in &values {
            dict.intern(v);
        }
        let (len, bytes) = (dict.len(), dict.heap_bytes());
        for &(l, r) in &raw {
            dict.intern(Value::Bits(bits_of_len(l, r)));
        }
        prop_assert_eq!(dict.len(), len);
        prop_assert_eq!(dict.heap_bytes(), bytes);
    }

    /// `Relation::dedup` on random relations of arity 0–10 mixing point,
    /// interval and bitstring columns: exactly the distinct rows of a
    /// `BTreeSet<Vec<Value>>` reference, in strictly increasing raw-id order,
    /// idempotent, and independent of the input row order within one
    /// dictionary.
    #[test]
    fn dedup_returns_the_distinct_rows_in_raw_id_order(rows in arb_mixed_relation()) {
        let arity = rows.first().map_or(0, Vec::len);
        let dict = SharedDictionary::new();
        let reference: BTreeSet<Vec<Value>> = rows.iter().cloned().collect();
        let mut relation = Relation::from_tuples_in("R", arity, rows.clone(), &dict);
        relation.dedup();
        prop_assert_eq!(relation.len(), reference.len());
        let got: BTreeSet<Vec<Value>> = relation.tuples().into_iter().collect();
        prop_assert_eq!(&got, &reference);
        let raw = raw_rows(&relation);
        for pair in raw.windows(2) {
            prop_assert!(pair[0] < pair[1], "rows out of raw-id order: {:?}", pair);
        }
        let once = relation.clone();
        relation.dedup();
        prop_assert_eq!(&relation, &once);
        let mut reversed: Vec<Vec<Value>> = rows;
        reversed.reverse();
        let mut other = Relation::from_tuples_in("R", arity, reversed, &dict);
        other.dedup();
        prop_assert_eq!(&other, &once);
    }
}

/// Every bitstring up to length 12, exhaustively: the canonical id
/// round-trips, is injective, lives in the tagged range, and is the
/// segment-tree heap index under the tag.
#[test]
fn every_short_bitstring_has_a_distinct_canonical_id() {
    let dict = SharedDictionary::new();
    let mut seen = HashSet::new();
    for len in 0..=12u8 {
        for raw in 0..(1u64 << len) {
            let b = BitString::from_bits(raw, len);
            let id = ValueId::of_bits(b).unwrap();
            assert_eq!(id.raw(), TAGGED | b.heap_index() as u32);
            assert_eq!(id.as_bits(), Some(b));
            assert_eq!(BitString::from_heap_index(b.heap_index()), Some(b));
            assert_eq!(dict.intern(Value::Bits(b)), id);
            assert_eq!(dict.resolve(id), Value::Bits(b));
            assert!(seen.insert(id), "{b:?} collides");
        }
    }
    assert_eq!(seen.len(), (1 << 13) - 1);
    assert!(dict.is_empty());
}

/// The canonical limit itself: the longest canonical bitstrings stay clear
/// of the dummy sentinel, and one more bit falls back to the stripes.
#[test]
fn the_canonical_limit_is_exact() {
    let ones = |len: u8| BitString::from_bits((1u64 << len) - 1, len);
    let top = ValueId::of_bits(ones(BITS_ID_MAX_LEN)).unwrap();
    assert!(top.raw() < ValueId::dummy().raw());
    assert_eq!(top.as_bits(), Some(ones(BITS_ID_MAX_LEN)));
    assert_eq!(ValueId::of_bits(ones(BITS_ID_MAX_LEN + 1)), None);
    let dict = SharedDictionary::new();
    let long = dict.intern(Value::Bits(ones(BITS_ID_MAX_LEN + 1)));
    assert!(long.raw() < TAGGED);
    assert_eq!(dict.len(), 1);
    assert_eq!(dict.resolve(long), Value::Bits(ones(BITS_ID_MAX_LEN + 1)));
}
