//! Acceptance and property tests for the per-tenant accounting layer (PR 5):
//!
//! * per-evaluation `EvaluationStats::trie_cache` must be **exact** when
//!   evaluations run concurrently against one shared workspace cache — a
//!   warm evaluation never reports a concurrent neighbor's misses, and the
//!   per-evaluation lookups sum to the cache's cumulative counters;
//! * a tenant's resident cache bytes must never exceed its byte quota while
//!   the pooled byte budget stays a hard ceiling and answers stay
//!   bit-identical to the unquota'd run;
//! * a quota'd noisy neighbor must shed its *own* warmth, leaving a victim
//!   tenant's entries resident (the fairness property the
//!   `substrate/e1-tenant-fairness` bench measures).
//!
//! Run in `--release` too (see the CI test job): the optimized lock paths
//! are where attribution races would actually surface.

use ij_engine::{EngineConfig, IntersectionJoinEngine, Workspace, WorkspaceLimits};
use ij_relation::{Database, Query, Value};
use ij_workloads::{
    generate_for_query, planted_unsatisfiable, IntervalDistribution, WorkloadConfig,
};
use proptest::prelude::*;

fn triangle() -> Query {
    Query::parse("R([A],[B]) & S([B],[C]) & T([A],[C])").unwrap()
}

fn workload(seed: u64, tuples: usize) -> Database {
    generate_for_query(
        &triangle(),
        &WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: IntervalDistribution::Uniform {
                span: 120.0,
                max_len: 25.0,
            },
        },
    )
}

/// A planted-unsatisfiable workload: the false answer forces a full pass
/// over every disjunct, so each database leaves its full trie footprint in
/// the cache (early exit would otherwise let small satisfiable databases
/// under-fill it).
fn planted(seed: u64, tuples: usize) -> Database {
    planted_unsatisfiable(
        &triangle(),
        &WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: IntervalDistribution::GridAligned {
                span: 4.0 * tuples as f64,
                cells: (2 * tuples) as u32,
                max_cells: 3,
            },
        },
    )
}

/// Concurrent evaluations sharing one workspace cache report exact
/// per-evaluation statistics: the warm thread re-evaluates a cached
/// reduction while the noisy thread streams *distinct* databases (misses)
/// through the same cache — and every warm evaluation still reports zero
/// misses, because its counters are accumulated locally rather than
/// snapshotted off the shared cache.
#[test]
fn concurrent_evaluations_report_exact_per_evaluation_stats() {
    let query = triangle();
    let ws = Workspace::new();
    let warm_db = ws.import_database(&workload(1, 10));
    let primer = ws.engine(EngineConfig::new().with_parallelism(1));
    let primed = primer.evaluate_with_stats(&query, &warm_db).unwrap();
    assert!(primed.trie_cache.misses > 0, "priming pass must build");
    let baseline = ws.trie_cache_stats();

    const ROUNDS: usize = 8;
    let (warm_stats, noisy_stats) = std::thread::scope(|scope| {
        let warm = scope.spawn(|| {
            let engine = ws.engine(EngineConfig::new().with_parallelism(1));
            (0..ROUNDS)
                .map(|_| engine.evaluate_with_stats(&query, &warm_db).unwrap())
                .collect::<Vec<_>>()
        });
        let noisy = scope.spawn(|| {
            (0..ROUNDS)
                .map(|i| {
                    let db = ws.import_database(&workload(100 + i as u64, 10));
                    ws.engine(EngineConfig::new().with_parallelism(1))
                        .evaluate_with_stats(&query, &db)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        });
        (warm.join().unwrap(), noisy.join().unwrap())
    });

    // Exactness: a warm evaluation never reports a neighbor's misses, no
    // matter how the two threads interleave.
    for (i, stats) in warm_stats.iter().enumerate() {
        assert_eq!(
            stats.trie_cache.misses, 0,
            "warm evaluation {i} stole a neighbor's misses: {:?}",
            stats.trie_cache
        );
        assert!(stats.trie_cache.hits > 0, "warm evaluation {i} must hit");
    }
    // The noisy evaluations really did miss concurrently (the scenario the
    // old snapshot-delta reporting misattributed).
    let noisy_misses: usize = noisy_stats.iter().map(|s| s.trie_cache.misses).sum();
    assert!(noisy_misses > 0, "noisy thread must have built tries");

    // Conservation: the per-evaluation counters sum exactly to the cache's
    // cumulative counters — nothing double-counted, nothing dropped.
    let local_lookups: usize = warm_stats
        .iter()
        .chain(&noisy_stats)
        .map(|s| s.trie_cache.hits + s.trie_cache.misses)
        .sum();
    let total = ws.trie_cache_stats();
    assert_eq!(
        (total.hits + total.misses) - (baseline.hits + baseline.misses),
        local_lookups,
        "per-evaluation lookups must sum to the cache's cumulative counters"
    );
}

/// The noisy-neighbor fairness property: under a pooled byte budget alone, a
/// flooding tenant evicts the victim's warmth (shared LRU); giving the noisy
/// tenant a byte quota makes it shed its *own* entries instead, and the
/// victim's repeat evaluation stays all-hits.
#[test]
fn quota_keeps_a_victim_warm_under_a_noisy_neighbor() {
    let query = triangle();
    // Measure the per-database trie footprint on an unbounded workspace.
    let probe = Workspace::new();
    let probe_db = probe.import_database(&planted(0, 10));
    let _ = probe
        .engine(EngineConfig::new().with_parallelism(1))
        .evaluate(&query, &probe_db)
        .unwrap();
    let per_db = probe.trie_cache_stats().resident_bytes;
    assert!(per_db > 0);
    // Room for the victim plus ~1.5 noisy databases — the flood below is
    // ~4 databases, so the pooled LRU must evict.
    let budget = 2 * per_db + per_db / 2;

    let run = |noisy_quota: usize| {
        let ws = Workspace::with_limits(WorkspaceLimits::new().with_trie_cache_bytes(budget));
        let victim = ws.tenant("victim");
        let noisy = ws.tenant("noisy").with_trie_cache_quota(noisy_quota);
        let victim_db = ws.import_database(&planted(0, 10));
        let victim_engine = victim.engine(EngineConfig::new().with_parallelism(1));
        let first = victim_engine
            .evaluate_with_stats(&query, &victim_db)
            .unwrap();
        assert!(first.trie_cache.misses > 0);
        // The noisy neighbor floods distinct full-pass databases through
        // the pool.
        for seed in 1..=4 {
            let db = ws.import_database(&planted(seed, 10));
            let _ = noisy
                .engine(EngineConfig::new().with_parallelism(1))
                .evaluate(&query, &db)
                .unwrap();
        }
        let pool = ws.trie_cache_stats();
        assert!(pool.resident_bytes <= budget, "pooled ceiling holds");
        let again = victim_engine
            .evaluate_with_stats(&query, &victim_db)
            .unwrap();
        assert_eq!(again.answer, first.answer);
        (again, victim.cache_stats(), noisy.cache_stats())
    };

    // Without a quota the flood evicts the victim (shared LRU): its repeat
    // evaluation rebuilds.
    let (evicted, victim_ledger, _) = run(0);
    assert!(
        evicted.trie_cache.misses > 0,
        "un-quota'd noisy neighbor must evict the victim, got {:?}",
        evicted.trie_cache
    );
    assert!(victim_ledger.evictions > 0);

    // With the noisy tenant quota'd to ~one database's footprint, it sheds
    // its own LRU entries and the victim's warmth survives the same flood
    // (victim + quota'd noisy fit the pooled budget with headroom).
    let (retained, victim_ledger, noisy_ledger) = run(per_db);
    assert_eq!(
        retained.trie_cache.misses, 0,
        "quota'd noisy neighbor must not evict the victim, got {:?}",
        retained.trie_cache
    );
    assert!(retained.trie_cache.hits > 0);
    assert_eq!(victim_ledger.evictions, 0);
    assert!(
        noisy_ledger.evictions > 0,
        "the noisy tenant evicted itself"
    );
    assert!(noisy_ledger.resident_bytes <= noisy_ledger.quota_bytes);
}

/// Cancellation never breaks the accounting (PR 8): evaluations interrupted
/// mid-flight — during trie builds included — leave the per-tenant ledgers
/// summing exactly to the pool's resident state, and a subsequent warm
/// evaluation still reports zero misses.
#[test]
fn cancelled_evaluations_leave_ledgers_exact() {
    use ij_engine::{CancellationToken, EvalError};

    let query = triangle();
    for delay_us in [0u64, 50, 200, 800, 3_000] {
        let ws = Workspace::new();
        let dbs: Vec<_> = (0..2)
            .map(|i| ws.import_database(&planted(i, 12)))
            .collect();
        let token = CancellationToken::new().with_check_interval(32);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = ["noisy", "warm"]
                .into_iter()
                .zip(&dbs)
                .map(|(name, db)| {
                    let (ws, query, token) = (&ws, &query, &token);
                    scope.spawn(move || {
                        ws.tenant(name)
                            .engine(EngineConfig::new().with_parallelism(2))
                            .evaluate_with_stats_cancellable(query, db, Some(token))
                            .map(|stats| stats.answer)
                    })
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_micros(delay_us));
            token.cancel();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluations never panic"))
                .collect::<Vec<_>>()
        });
        for result in results {
            match result {
                Ok(answer) => assert!(!answer, "planted-unsatisfiable workload"),
                Err(ij_engine::EngineError::Evaluation(EvalError::Cancelled)) => {}
                Err(other) => panic!("unexpected error at delay {delay_us}µs: {other:?}"),
            }
        }

        // Conservation: abandoned builds leak no accounting — the tenant
        // ledgers partition the pool's resident state exactly.
        let pool = ws.trie_cache_stats();
        let noisy = ws.tenant("noisy").cache_stats();
        let warm = ws.tenant("warm").cache_stats();
        assert_eq!(noisy.entries + warm.entries, pool.entries);
        assert_eq!(
            noisy.resident_bytes + warm.resident_bytes,
            pool.resident_bytes,
            "ledger bytes diverged from the pool at delay {delay_us}µs"
        );

        // Warm exactness survives the interruption: prime once, then the
        // repeat reports zero misses of its own.
        let engine = ws
            .tenant("warm")
            .engine(EngineConfig::new().with_parallelism(1));
        let primed = engine.evaluate_with_stats(&query, &dbs[1]).unwrap();
        assert!(!primed.answer);
        let again = engine.evaluate_with_stats(&query, &dbs[1]).unwrap();
        assert_eq!(
            again.trie_cache.misses, 0,
            "warm re-run rebuilt after cancellation at delay {delay_us}µs: {:?}",
            again.trie_cache
        );
    }
}

/// A random interval over a small integer domain (ties and overlaps likely).
fn arb_interval() -> impl Strategy<Value = Value> {
    (0i32..14, 0i32..5).prop_map(|(lo, len)| Value::interval(lo as f64, (lo + len) as f64))
}

fn arb_rows(max: usize) -> impl Strategy<Value = Vec<(Value, Value)>> {
    proptest::collection::vec((arb_interval(), arb_interval()), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Per-tenant quotas bound the tenant's resident bytes at every step,
    /// the pooled byte budget is never exceeded, and the answers are
    /// bit-identical to the unquota'd run over the same database sequence.
    #[test]
    fn tenant_quota_bounds_resident_bytes_with_identical_answers(
        dbs in proptest::collection::vec(
            (arb_rows(5), arb_rows(5), arb_rows(5)), 2..=4),
        quota_denominator in 1usize..6,
    ) {
        let query = triangle();
        type Rows = Vec<(Value, Value)>;
        let build = |ws: &Workspace, rows: &(Rows, Rows, Rows)| {
            let mut db = ws.database();
            for (name, rel_rows) in [("R", &rows.0), ("S", &rows.1), ("T", &rows.2)] {
                db.insert_tuples(name, 2, rel_rows.iter().map(|&(a, b)| vec![a, b]).collect());
            }
            db
        };

        // Reference: unquota'd workspace over the same sequence.
        let free = Workspace::new();
        let mut expected = Vec::new();
        for rows in &dbs {
            let db = build(&free, rows);
            expected.push(
                free.tenant("ref")
                    .engine(EngineConfig::new().with_parallelism(1))
                    .evaluate(&query, &db)
                    .unwrap(),
            );
        }
        let footprint = free.trie_cache_stats().resident_bytes;
        prop_assert!(footprint > 0, "non-empty databases must leave tries resident");
        // Quotas from generous (≈ the whole footprint) down to starving.
        let quota = (footprint / quota_denominator).max(1);
        let pooled = footprint; // hard ceiling, independently asserted

        let ws = Workspace::with_limits(WorkspaceLimits::new().with_trie_cache_bytes(pooled));
        let tenant = ws.tenant("quota").with_trie_cache_quota(quota);
        for (i, rows) in dbs.iter().enumerate() {
            let db = build(&ws, rows);
            let answer = tenant
                .engine(EngineConfig::new().with_parallelism(1))
                .evaluate(&query, &db)
                .unwrap();
            prop_assert_eq!(answer, expected[i], "database {} diverged under quota", i);
            let ledger = tenant.cache_stats();
            prop_assert!(
                ledger.resident_bytes <= quota,
                "tenant resident {} exceeds quota {} after database {}",
                ledger.resident_bytes, quota, i
            );
            let pool = ws.trie_cache_stats();
            prop_assert!(
                pool.resident_bytes <= pooled,
                "pooled resident {} exceeds budget {}",
                pool.resident_bytes, pooled
            );
        }
        // The quota'd tenant owns every entry of this workspace, so the
        // ledger and the pool agree on the resident state.
        let ledger = tenant.cache_stats();
        let pool = ws.trie_cache_stats();
        prop_assert_eq!(ledger.entries, pool.entries);
        prop_assert_eq!(ledger.resident_bytes, pool.resident_bytes);

        // Differential cross-check against the naive oracle on the last
        // database: quotas never changed an answer anywhere above, and the
        // engine path agrees with exhaustive backtracking here.
        let last = build(&ws, dbs.last().unwrap());
        prop_assert_eq!(
            *expected.last().unwrap(),
            IntersectionJoinEngine::with_defaults().evaluate_naive(&query, &last).unwrap()
        );
    }
}
