//! Property-based tests for the segment-tree substrate (Section 3,
//! Property 3.2 and the intersection-predicate rewritings of Section 4.1).

use ij_segtree::{
    BitString, CompositionWalk, FlatSegmentTree, Interval, IntervalTree, SegmentTree,
};
use proptest::prelude::*;
use proptest::TestCaseError;

/// A random set of closed intervals with small integer-ish endpoints (ties
/// and containments are likely, which is what we want to stress).
fn arb_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0i32..60, 0i32..20), 1..=max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(lo, len)| Interval::new(lo as f64, (lo + len) as f64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Property 3.2(2)/(3): canonical partitions are antichains of bounded size.
    #[test]
    fn canonical_partitions_are_small_antichains(intervals in arb_intervals(24)) {
        let tree = SegmentTree::build(&intervals);
        let height = tree.height() as usize;
        for &iv in &intervals {
            let cp = tree.canonical_partition(iv);
            prop_assert!(!cp.is_empty());
            prop_assert!(cp.len() <= 2 * height + 2);
            for (i, a) in cp.iter().enumerate() {
                for (j, b) in cp.iter().enumerate() {
                    if i != j {
                        prop_assert!(!a.is_prefix_of(*b));
                    }
                }
            }
        }
    }

    /// Lemma 4.1 specialised to two intervals: x ∩ y ≠ ∅ iff some node of
    /// CP(y) is an ancestor of leaf(x) or some node of CP(x) is an ancestor
    /// of leaf(y).
    #[test]
    fn pairwise_intersection_predicate(intervals in arb_intervals(12)) {
        let tree = SegmentTree::build(&intervals);
        for &x in &intervals {
            for &y in &intervals {
                let leaf_x = tree.leaf_of_interval(x);
                let leaf_y = tree.leaf_of_interval(y);
                let rewritten = tree.canonical_partition(y).iter().any(|v| v.is_prefix_of(leaf_x))
                    || tree.canonical_partition(x).iter().any(|v| v.is_prefix_of(leaf_y));
                prop_assert_eq!(rewritten, x.intersects(y));
            }
        }
    }

    /// Lemma 4.4 for three intervals: the intersection is non-empty iff there
    /// is a permutation (σ1, σ2, σ3) and bitstrings (b1, b2, b3) such that
    /// b1 ∈ CP(σ1), b1◦b2 ∈ CP(σ2) and b1◦b2◦b3 = leaf(σ3).
    #[test]
    fn three_way_intersection_predicate(intervals in arb_intervals(6)) {
        let tree = SegmentTree::build(&intervals);
        let n = intervals.len();
        for i in 0..n {
            for j in 0..n {
                for k in 0..n {
                    let (x, y, z) = (intervals[i], intervals[j], intervals[k]);
                    let truth = Interval::intersect_all([x, y, z]).is_some();
                    // Evaluate the rewriting: try all 6 permutations.
                    let perms =
                        [[x, y, z], [x, z, y], [y, x, z], [y, z, x], [z, x, y], [z, y, x]];
                    let mut rewritten = false;
                    'perm: for p in perms {
                        let leaf = tree.leaf_of_interval(p[2]);
                        let cp0 = tree.canonical_partition(p[0]);
                        let cp1 = tree.canonical_partition(p[1]);
                        // u1 must be an ancestor of u2, both ancestors of leaf.
                        for u1 in cp0.iter().filter(|u| u.is_prefix_of(leaf)) {
                            for u2 in cp1.iter().filter(|u| u.is_prefix_of(leaf)) {
                                if u1.is_prefix_of(*u2) {
                                    rewritten = true;
                                    break 'perm;
                                }
                            }
                        }
                    }
                    prop_assert_eq!(rewritten, truth, "x={:?} y={:?} z={:?}", x, y, z);
                }
            }
        }
    }

    /// Stabbing queries report exactly the stored intervals containing the
    /// probe point.
    #[test]
    fn stabbing_queries_are_exact(intervals in arb_intervals(20), probes in proptest::collection::vec(0i32..80, 1..10)) {
        let tree = SegmentTree::build_with_storage(&intervals);
        for p in probes {
            let p = p as f64;
            let expected: Vec<usize> = intervals
                .iter()
                .enumerate()
                .filter(|(_, iv)| iv.contains_point(p))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(tree.stab(p), expected);
        }
    }

    /// Compositions of leaf bitstrings concatenate back to the original
    /// (Claim C.1 bookkeeping used by the reduction).
    #[test]
    fn compositions_concatenate_back(intervals in arb_intervals(10), parts in 1usize..4) {
        let tree = SegmentTree::build(&intervals);
        for &iv in &intervals {
            let leaf = tree.leaf_of_interval(iv);
            let mut flat = Vec::new();
            let count = CompositionWalk::new().for_each_part(leaf, parts, |p| flat.push(p));
            prop_assert_eq!(flat.len(), count * parts);
            for composition in flat.chunks(parts) {
                prop_assert_eq!(BitString::concat_all(composition.iter().copied()), leaf);
            }
            prop_assert_eq!(count as u64, leaf.composition_count(parts));
        }
    }
}

/// Degenerate point intervals (`lo == hi`): stabbing and overlap reduce to
/// equality joins (Section 1), a corner the centered-tree splitting logic and
/// the flat layout's odd/even coordinate convention must both survive.
fn arb_point_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec(0i32..20, 1..=max_len).prop_map(|points| {
        points
            .into_iter()
            .map(|p| Interval::point(p as f64))
            .collect()
    })
}

/// Intervals drawn from a tiny endpoint domain so duplicate endpoints (and
/// entire duplicate intervals) are the common case rather than the exception.
fn arb_duplicate_heavy_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((0i32..6, 0i32..4), 1..=max_len).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(lo, len)| Interval::new(lo as f64, (lo + len) as f64))
            .collect()
    })
}

/// A fully-nested chain I_0 ⊋ I_1 ⊋ ... (Russian-doll shape): every interval
/// shares stabbing structure with every outer one, the worst case for
/// centered trees (everything lands on the root's centre list).
fn arb_nested_intervals(max_len: usize) -> impl Strategy<Value = Vec<Interval>> {
    proptest::collection::vec((1i32..4, 1i32..4), 1..=max_len).prop_map(|steps| {
        let total: i32 = steps.iter().map(|(l, r)| l + r).sum();
        let mut lo = 0i32;
        let mut hi = 2 * total + 1;
        let mut out = Vec::with_capacity(steps.len());
        for (dl, dr) in steps {
            out.push(Interval::new(lo as f64, hi as f64));
            lo += dl;
            hi -= dr;
        }
        out
    })
}

/// Brute-force oracle for overlap queries.
fn brute_overlapping(intervals: &[Interval], query: Interval) -> Vec<usize> {
    intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.intersects(query))
        .map(|(i, _)| i)
        .collect()
}

/// Brute-force oracle for stabbing queries.
fn brute_stab(intervals: &[Interval], p: f64) -> Vec<usize> {
    intervals
        .iter()
        .enumerate()
        .filter(|(_, iv)| iv.contains_point(p))
        .map(|(i, _)| i)
        .collect()
}

/// Checks both index structures against the brute-force oracle on a shared
/// probe set derived from the data itself (endpoints, midpoints, gaps).
fn assert_indexes_match_brute_force(intervals: &[Interval]) -> Result<(), TestCaseError> {
    let centered = IntervalTree::build(intervals);
    let flat = FlatSegmentTree::build(intervals);
    prop_assert_eq!(centered.len(), intervals.len());
    prop_assert_eq!(flat.len(), intervals.len());

    let mut probes: Vec<f64> = Vec::new();
    for iv in intervals {
        probes.extend([iv.lo(), iv.hi(), (iv.lo() + iv.hi()) / 2.0]);
        probes.extend([iv.lo() - 0.5, iv.hi() + 0.5]);
    }
    for &p in &probes {
        let expected = brute_stab(intervals, p);
        prop_assert_eq!(centered.stab(p), expected.clone(), "centered stab({})", p);
        prop_assert_eq!(flat.stab(p), expected, "flat stab({})", p);
    }

    let mut queries: Vec<Interval> = intervals.to_vec();
    for (i, a) in probes.iter().enumerate() {
        let b = probes[(i + 3) % probes.len()];
        queries.push(Interval::new(a.min(b), a.max(b)));
    }
    for &q in &queries {
        let expected = brute_overlapping(intervals, q);
        prop_assert_eq!(
            centered.overlapping(q),
            expected.clone(),
            "centered overlapping({:?})",
            q
        );
        prop_assert_eq!(
            flat.overlapping(q),
            expected.clone(),
            "flat overlapping({:?})",
            q
        );
        prop_assert_eq!(centered.intersects_any(q), !expected.is_empty());
        prop_assert_eq!(flat.intersects_any(q), !expected.is_empty());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// Point intervals: both index structures agree with brute force when
    /// every stored interval is degenerate.
    #[test]
    fn interval_indexes_handle_point_intervals(intervals in arb_point_intervals(20)) {
        assert_indexes_match_brute_force(&intervals)?;
    }

    /// Duplicate endpoints (and duplicate whole intervals) don't confuse the
    /// endpoint interning or the centre-list scans.
    #[test]
    fn interval_indexes_handle_duplicate_endpoints(intervals in arb_duplicate_heavy_intervals(20)) {
        assert_indexes_match_brute_force(&intervals)?;
    }

    /// Fully-nested chains: the centered tree degenerates to one fat root
    /// node and the flat tree's canonical slabs stack; both must stay exact.
    #[test]
    fn interval_indexes_handle_fully_nested_chains(intervals in arb_nested_intervals(16)) {
        assert_indexes_match_brute_force(&intervals)?;
    }

    /// General mixed workloads (same distribution the segment-tree properties
    /// above use) against brute force.
    #[test]
    fn interval_indexes_match_brute_force(intervals in arb_intervals(24)) {
        assert_indexes_match_brute_force(&intervals)?;
    }
}
