//! Property tests for the flat (CSR leapfrog) tries of the generic join.
//!
//! Three layers of equivalence, all on random inputs:
//!
//! * **kernels** — `gallop_seek` / `intersect_sorted_gallop` /
//!   `leapfrog_next` must be indistinguishable from their scalar reference
//!   implementations (and from a brute-force oracle) on arbitrary sorted
//!   distinct runs, including the adversarial shapes where galloping
//!   off-by-ones hide: empty, singleton, disjoint, fully-equal, and lengths
//!   that are not a multiple of the linear-probe span.  Runs are drawn both
//!   at the bottom of the id space and across `2^31`, where stripe ids end
//!   and the canonical bitstring ids of every transformed column begin (the
//!   boundary of the AVX2 arm's biased signed compares);
//! * **generic join** — Boolean and enumerated answers must equal a
//!   brute-force nested loop over the input rows, and be bit-identical across
//!   shard counts and cache configurations;
//! * **engine** — end-to-end evaluation through the forward reduction must
//!   agree with the naive oracle for every shard count × cache capacity.
//!
//! CI runs this file in `--release` as well: optimized galloping is where
//! seek bugs actually surface.

use ij_ejoin::{generic_join_boolean, generic_join_enumerate, BoundAtom, EvalContext, TrieCache};
use ij_engine::{EngineConfig, IntersectionJoinEngine};
use ij_relation::kernels::{
    gallop_seek, gallop_seek_scalar, intersect_sorted_gallop, intersect_sorted_scalar,
    leapfrog_next, leapfrog_next_scalar, GALLOP_LINEAR_SPAN,
};
use ij_relation::{Database, Query, Relation, Value, ValueId};
use proptest::prelude::*;

/// A sorted, distinct run of raw id offsets — the invariant every flat-trie
/// run holds once placed in a window ([`in_window`]).  The domain spans
/// several gallop spans so seeks overshoot and settle.
fn arb_run(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u32..(12 * GALLOP_LINEAR_SPAN as u32), 0..=max_len).prop_map(
        |mut raw| {
            raw.sort_unstable();
            raw.dedup();
            raw
        },
    )
}

/// Bases of the id windows the kernel properties run in: the bottom of the
/// stripe-id range, and a window whose upper half lies in the tagged range
/// of canonical bitstring ids (raw `>= 2^31`, `ValueId::of_bits`).
const WINDOW_BASES: [u32; 2] = [0, (1 << 31) - 6 * GALLOP_LINEAR_SPAN as u32];

/// A window base from [`WINDOW_BASES`].
fn arb_window() -> impl Strategy<Value = u32> {
    (0usize..WINDOW_BASES.len()).prop_map(|i| WINDOW_BASES[i])
}

/// The ids of a run of offsets placed at a window base.
fn in_window(offsets: &[u32], base: u32) -> Vec<ValueId> {
    offsets
        .iter()
        .map(|&o| ValueId::from_raw(base + o))
        .collect()
}

/// A random interval over a small integer domain (ties and overlaps likely).
fn arb_interval() -> impl Strategy<Value = Value> {
    (0i32..14, 0i32..5).prop_map(|(lo, len)| Value::interval(lo as f64, (lo + len) as f64))
}

/// Random rows of interval pairs.
fn arb_interval_rows(max: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((arb_interval(), arb_interval()), 1..=max)
}

/// Random rows of point pairs over a tiny domain (shared values likely).
fn arb_point_rows(max: usize) -> impl Strategy<Value = Vec<(u8, u8)>> {
    proptest::collection::vec((0u8..6, 0u8..6), 1..=max)
}

/// The triangle `R(A,B) ∧ S(B,C) ∧ T(A,C)` by brute force: every `(a, b, c)`
/// with a matching row in each relation, sorted and deduplicated.
fn nested_loop_triangles(r: &[(u8, u8)], s: &[(u8, u8)], t: &[(u8, u8)]) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for &(a, b) in r {
        for &(sb, c) in s {
            for &(ta, tc) in t {
                if sb == b && ta == a && tc == c {
                    out.push([a, b, c].map(|v| Value::point(v as f64)).to_vec());
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn point_rel(name: &str, rows: &[(u8, u8)]) -> Relation {
    Relation::from_tuples(
        name,
        2,
        rows.iter()
            .map(|&(a, b)| vec![Value::point(a as f64), Value::point(b as f64)])
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `gallop_seek` ≡ linear scan for every starting cursor and target.
    #[test]
    fn gallop_seek_matches_the_scalar_reference(
        run in arb_run(5 * GALLOP_LINEAR_SPAN),
        target_raw in 0u32..(14 * GALLOP_LINEAR_SPAN as u32),
        base in arb_window(),
    ) {
        let run = in_window(&run, base);
        let target = ValueId::from_raw(base + target_raw);
        for start in 0..=run.len() {
            let fast = gallop_seek(&run, start, target);
            let slow = gallop_seek_scalar(&run, start, target);
            prop_assert_eq!(fast, slow, "start {}", start);
            // Postcondition: first element >= target at or after `start`.
            prop_assert!(run[start..fast].iter().all(|&v| v < target));
            if fast < run.len() {
                prop_assert!(run[fast] >= target);
            }
        }
    }

    /// Galloping intersection ≡ two-pointer merge, in both argument orders
    /// (random runs include empty, singleton, disjoint and fully-equal pairs
    /// as degenerate draws, and lengths off the linear-probe span).
    #[test]
    fn intersect_gallop_matches_the_scalar_reference(
        a in arb_run(6 * GALLOP_LINEAR_SPAN),
        b in arb_run(2 * GALLOP_LINEAR_SPAN + 3),
        base in arb_window(),
    ) {
        let (a, b) = (in_window(&a, base), in_window(&b, base));
        let (mut fast, mut slow, mut swapped) = (Vec::new(), Vec::new(), Vec::new());
        intersect_sorted_gallop(&a, &b, &mut fast);
        intersect_sorted_scalar(&a, &b, &mut slow);
        prop_assert_eq!(&fast, &slow);
        intersect_sorted_gallop(&b, &a, &mut swapped);
        prop_assert_eq!(&fast, &swapped);
        // Oracle: exactly the elements of `a` also present in `b`.
        let oracle: Vec<ValueId> =
            a.iter().copied().filter(|v| b.contains(v)).collect();
        prop_assert_eq!(fast, oracle);
    }

    /// Multi-way leapfrog ≡ scalar reference ≡ brute-force membership
    /// oracle, over 1–4 runs of uneven lengths.
    #[test]
    fn leapfrog_matches_scalar_and_oracle(
        runs in proptest::collection::vec(arb_run(4 * GALLOP_LINEAR_SPAN), 1..=4),
        base in arb_window(),
    ) {
        let runs: Vec<Vec<ValueId>> = runs.iter().map(|r| in_window(r, base)).collect();
        let slices: Vec<&[ValueId]> = runs.iter().map(|r| r.as_slice()).collect();
        let collect = |next: fn(&[&[ValueId]], &mut [usize]) -> Option<ValueId>| {
            let mut cursors = vec![0usize; slices.len()];
            let mut out = Vec::new();
            while let Some(v) = next(&slices, &mut cursors) {
                // Every cursor points at the matched value.
                for (run, &c) in slices.iter().zip(&cursors) {
                    assert_eq!(run[c], v);
                }
                out.push(v);
                for c in cursors.iter_mut() {
                    *c += 1;
                }
            }
            out
        };
        let fast = collect(leapfrog_next);
        let slow = collect(leapfrog_next_scalar);
        prop_assert_eq!(&fast, &slow);
        let oracle: Vec<ValueId> = runs[0]
            .iter()
            .copied()
            .filter(|v| runs.iter().all(|r| r.contains(v)))
            .collect();
        prop_assert_eq!(fast, oracle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generic-join correctness on random triangle instances: Boolean and
    /// enumerated answers equal the brute-force nested loop, and are
    /// bit-identical for every shard count × cache setting.
    #[test]
    fn flat_generic_join_matches_the_nested_loop_reference(
        r_rows in arb_point_rows(10),
        s_rows in arb_point_rows(10),
        t_rows in arb_point_rows(10),
    ) {
        let r = point_rel("R", &r_rows);
        let s = point_rel("S", &s_rows);
        let t = point_rel("T", &t_rows);
        let atoms = vec![
            BoundAtom::new(&r, vec![0, 1]),
            BoundAtom::new(&s, vec![1, 2]),
            BoundAtom::new(&t, vec![0, 2]),
        ];
        let expected_out = nested_loop_triangles(&r_rows, &s_rows, &t_rows);
        let expected = !expected_out.is_empty();
        let baseline =
            generic_join_enumerate(&atoms, &[0, 1, 2], "out", EvalContext::default()).unwrap();
        let mut baseline_sorted = baseline.tuples();
        baseline_sorted.sort();
        prop_assert_eq!(baseline_sorted, expected_out);
        let cache = TrieCache::new();
        for shards in [1usize, 2, 3] {
            for cache_ref in [None, Some(&cache)] {
                let eval = EvalContext {
                    cache: cache_ref,
                    shards,
                    ..EvalContext::default()
                };
                prop_assert_eq!(
                    generic_join_boolean(&atoms, None, eval).unwrap(),
                    expected,
                    "boolean: shards {}, cached {}",
                    shards, cache_ref.is_some()
                );
                let out = generic_join_enumerate(&atoms, &[0, 1, 2], "out", eval).unwrap();
                prop_assert_eq!(
                    out.tuples(),
                    baseline.tuples(),
                    "enumerate: shards {}, cached {}",
                    shards, cache_ref.is_some()
                );
            }
        }
    }

    /// End-to-end equivalence with the naive oracle on random interval
    /// triangle workloads, for every shard count × cache capacity.
    #[test]
    fn engine_answers_match_the_naive_oracle_across_shards_and_cache(
        r in arb_interval_rows(6),
        s in arb_interval_rows(6),
        t in arb_interval_rows(6),
    ) {
        let query = Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap();
        let mut db = Database::new();
        for (name, rows) in [("R", &r), ("S", &s), ("T", &t)] {
            db.insert_tuples(name, 2, rows.iter().map(|&(a, b)| vec![a, b]).collect());
        }
        let expected = IntersectionJoinEngine::with_defaults()
            .evaluate_naive(&query, &db)
            .unwrap();
        for shards in [1usize, 2] {
            for capacity in [0usize, 4096] {
                let engine = IntersectionJoinEngine::new(
                    EngineConfig::new()
                        .with_parallelism(1)
                        .with_trie_shards(shards)
                        .with_trie_cache_capacity(capacity),
                );
                prop_assert_eq!(
                    engine.evaluate(&query, &db).unwrap(),
                    expected,
                    "shards {}, capacity {}",
                    shards, capacity
                );
            }
        }
    }
}

/// Deterministic adversarial shapes for the galloping kernels — the named
/// cases from the checklist, pinned so a regression is reported by name
/// rather than by a shrunk random draw.
#[test]
fn adversarial_runs_intersect_identically() {
    let ids =
        |raw: &[u32]| -> Vec<ValueId> { raw.iter().copied().map(ValueId::from_raw).collect() };
    let span = GALLOP_LINEAR_SPAN as u32;
    let cases: Vec<(Vec<ValueId>, Vec<ValueId>)> = vec![
        (ids(&[]), ids(&[])),                                   // both empty
        (ids(&[]), ids(&[1, 2, 3])),                            // one empty
        (ids(&[5]), ids(&[5])),                                 // equal singletons
        (ids(&[5]), ids(&[6])),                                 // disjoint singletons
        ((0..40).map(ValueId::from_raw).collect(), ids(&[39])), // long vs singleton
        (
            (0..33).map(|i| ValueId::from_raw(2 * i)).collect(), // evens…
            (0..33).map(|i| ValueId::from_raw(2 * i + 1)).collect(), // …vs odds: disjoint
        ),
        (
            (0..(3 * span + 1)).map(ValueId::from_raw).collect(), // fully equal,
            (0..(3 * span + 1)).map(ValueId::from_raw).collect(), // off-span length
        ),
        (
            (0..10 * span).step_by(7).map(ValueId::from_raw).collect(), // sparse strides
            (0..10 * span).step_by(3).map(ValueId::from_raw).collect(),
        ),
        (
            ids(&[0x7FFF_FFFE, 0x7FFF_FFFF, 0x8000_0000, 0x8000_0001]), // across the
            ids(&[0x7FFF_FFFF, 0x8000_0000]),                           // tag boundary
        ),
        (
            ((1 << 31) - 2 * span..(1 << 31) + 2 * span) // straddling runs,
                .step_by(2)
                .map(ValueId::from_raw)
                .collect(),
            ((1 << 31) - 3 * span..(1 << 31) + 3 * span) // stride 3 vs 2
                .step_by(3)
                .map(ValueId::from_raw)
                .collect(),
        ),
    ];
    for (a, b) in &cases {
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        intersect_sorted_gallop(a, b, &mut fast);
        intersect_sorted_scalar(a, b, &mut slow);
        assert_eq!(fast, slow, "a = {a:?}, b = {b:?}");
        intersect_sorted_gallop(b, a, &mut fast);
        assert_eq!(fast, slow, "swapped: a = {a:?}, b = {b:?}");
        // And through the multi-way kernel.
        let runs: Vec<&[ValueId]> = vec![a, b];
        let mut cursors = vec![0usize; 2];
        let mut multi = Vec::new();
        while let Some(v) = leapfrog_next(&runs, &mut cursors) {
            multi.push(v);
            for c in cursors.iter_mut() {
                *c += 1;
            }
        }
        assert_eq!(multi, slow, "leapfrog: a = {a:?}, b = {b:?}");
    }
}
