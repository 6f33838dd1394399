//! Deadline and cancellation acceptance tests.
//!
//! The robustness contract under test (see README § Robustness):
//!
//! * a configured [`EngineConfig::with_deadline`] budget is enforced on a
//!   planted near-miss workload whose uncancelled runtime exceeds the budget
//!   ≥ 10× — the evaluation returns [`EvalError::DeadlineExceeded`] instead
//!   of running to completion;
//! * cancelling a caller-owned [`CancellationToken`] from another thread
//!   makes an in-flight evaluation return within the documented latency
//!   ceiling ([`LATENCY_BOUND`]);
//! * cancellation racing concurrent evaluations over one shared workspace is
//!   **correct-or-`Cancelled`**: every evaluation either returns the right
//!   answer or the typed error, the per-tenant cache ledgers still sum
//!   exactly to the pool, and the workspace stays fully usable (clean re-run
//!   correct, warm re-run all-hits);
//! * every error in the taxonomy implements `std::error::Error`.

use ij_engine::{
    naive_boolean, CancellationToken, EngineConfig, EngineError, EvalError, IntersectionJoinEngine,
    Workspace,
};
use ij_reduction::{forward_reduction, ForwardReduction};
use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
use proptest::prelude::*;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The documented cancellation-latency ceiling: once a cancel (or deadline
/// expiry) is signalled, an evaluation returns within the time it takes the
/// active workers to reach their next cooperative checkpoint — one
/// check-interval of candidate steps plus a worker join, asserted here as a
/// conservative wall-clock bound that holds on debug builds under load.
const LATENCY_BOUND: Duration = Duration::from_millis(250);

/// A planted near-miss scenario grown until its uncancelled runtime clears
/// `floor`: the last atom's relation is shifted just out of range, so the
/// generic-join search backtracks through every partial match before
/// concluding `false` — the worst case for a deadline to interrupt.
fn grow_near_miss(floor: Duration) -> (ForwardReduction, Duration) {
    let mut last = None;
    for tuples in [100usize, 200, 400, 800, 1600] {
        let cfg = ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
            .with_tuples(tuples)
            .with_seed(3)
            .with_planted(PlantedAnswer::NearMiss);
        let scenario = build_scenario(&cfg);
        let reduction = forward_reduction(&scenario.query, &scenario.database)
            .expect("forward reduction succeeds");
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(1));
        let start = Instant::now();
        let stats = engine
            .evaluate_reduction(&reduction)
            .expect("uncancelled evaluation succeeds");
        let uncancelled = start.elapsed();
        assert!(!stats.answer, "near-miss scenario must be unsatisfiable");
        let long_enough = uncancelled >= floor;
        last = Some((reduction, uncancelled));
        if long_enough {
            break;
        }
    }
    last.expect("at least one size was measured")
}

/// Shared fixture: measured once, reused by the deadline and latency tests.
fn fixture() -> &'static (ForwardReduction, Duration) {
    static FIXTURE: OnceLock<(ForwardReduction, Duration)> = OnceLock::new();
    FIXTURE.get_or_init(|| grow_near_miss(Duration::from_millis(100)))
}

/// Acceptance: on a near-miss workload whose uncancelled runtime is ≥ 10×
/// the budget (20× by construction here), the deadline fires as
/// [`EvalError::DeadlineExceeded`] and the evaluation returns within the
/// documented latency ceiling past the budget — with the worker loop run
/// inline (one worker) and on scoped threads (two workers).
#[test]
fn deadline_interrupts_a_near_miss_evaluation() {
    let (reduction, uncancelled) = fixture();
    let budget = (*uncancelled / 20).max(Duration::from_millis(2));
    assert!(
        *uncancelled >= 10 * budget,
        "fixture too fast: uncancelled {uncancelled:?} vs budget {budget:?}"
    );
    for parallelism in [1usize, 2] {
        let engine = IntersectionJoinEngine::new(
            EngineConfig::new()
                .with_parallelism(parallelism)
                .with_deadline(budget),
        );
        let start = Instant::now();
        let result = engine.evaluate_reduction(reduction);
        let wall = start.elapsed();
        match result {
            Err(EvalError::DeadlineExceeded {
                elapsed,
                budget: reported,
            }) => {
                assert_eq!(reported, budget);
                assert!(
                    elapsed >= reported,
                    "deadline reported before it elapsed: {elapsed:?} < {reported:?}"
                );
            }
            other => panic!(
                "a {budget:?} deadline on a {uncancelled:?} workload returned {other:?} \
                 at parallelism {parallelism}, expected DeadlineExceeded"
            ),
        }
        assert!(
            wall <= budget + LATENCY_BOUND,
            "parallelism {parallelism}: deadline latency {wall:?} exceeded budget {budget:?} \
             + bound {LATENCY_BOUND:?}"
        );
    }
}

/// Cancelling from another thread mid-evaluation: signal→return latency is
/// within [`LATENCY_BOUND`], and the result is the typed `Cancelled` error
/// (or the correct answer, if the evaluation happened to finish first) —
/// with one worker and with two.
#[test]
fn external_cancel_returns_within_the_documented_bound() {
    let (reduction, uncancelled) = fixture();
    for parallelism in [1usize, 2] {
        let token = CancellationToken::new();
        let engine = IntersectionJoinEngine::new(EngineConfig::new().with_parallelism(parallelism));
        let (result, latency) = std::thread::scope(|scope| {
            let worker = scope.spawn(|| {
                let result = engine.evaluate_reduction_cancellable(reduction, Some(&token));
                (result, Instant::now())
            });
            // Let the evaluation get well into its search before signalling.
            std::thread::sleep((*uncancelled / 4).min(Duration::from_millis(50)));
            let signalled = Instant::now();
            token.cancel();
            let (result, returned) = worker.join().expect("worker does not panic");
            (result, returned.saturating_duration_since(signalled))
        });
        match result {
            Err(EvalError::Cancelled) => {}
            Ok(stats) => assert!(!stats.answer, "near-miss workload answered true"),
            Err(other) => panic!(
                "external cancel surfaced as {other:?} at parallelism {parallelism}, \
                 expected Cancelled"
            ),
        }
        assert!(
            latency <= LATENCY_BOUND,
            "parallelism {parallelism}: signal→return latency {latency:?} exceeded the \
             documented bound {LATENCY_BOUND:?}"
        );
    }
}

fn is_std_error<E: std::error::Error + Send + 'static>() {}

/// The whole taxonomy composes as `std::error::Error` values (the engine's
/// `source()` chains are covered by its unit tests).
#[test]
fn error_taxonomy_implements_std_error() {
    is_std_error::<EvalError>();
    is_std_error::<EngineError>();
    is_std_error::<ij_engine::NaiveError>();
    is_std_error::<ij_relation::ArityError>();
    is_std_error::<ij_segtree::IntervalError>();
    is_std_error::<ij_reduction::ReductionError>();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 6 } else { 16 }
    ))]

    /// Cancels at a random point while two tenants evaluate concurrently
    /// over one shared workspace cache.  Every evaluation is
    /// correct-or-`Cancelled`, the per-tenant ledgers still sum exactly to
    /// the pool (abandoned builds leak no accounting), and the workspace
    /// stays fully usable afterwards.
    #[test]
    fn random_cancellation_races_are_correct_or_cancelled(
        delay_us in 0u64..3_000,
        seed in 0u64..64,
    ) {
        let cfg = ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
            .with_tuples(16)
            .with_seed(seed)
            .with_planted(PlantedAnswer::Natural);
        let scenario = build_scenario(&cfg);
        let expected = naive_boolean(&scenario.query, &scenario.database)
            .expect("naive oracle succeeds");

        let ws = Workspace::new();
        let db = ws.import_database(&scenario.database);
        let token = CancellationToken::new().with_check_interval(64);
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = ["alpha", "beta"]
                .into_iter()
                .map(|name| {
                    let (ws, db, query, token) = (&ws, &db, &scenario.query, &token);
                    scope.spawn(move || {
                        ws.tenant(name)
                            .engine(EngineConfig::new().with_parallelism(2))
                            .evaluate_with_stats_cancellable(query, db, Some(token))
                            .map(|stats| stats.answer)
                    })
                })
                .collect();
            std::thread::sleep(Duration::from_micros(delay_us));
            token.cancel();
            handles
                .into_iter()
                .map(|h| h.join().expect("evaluations never panic"))
                .collect::<Vec<_>>()
        });
        for result in results {
            match result {
                Ok(answer) => prop_assert_eq!(answer, expected),
                Err(EngineError::Evaluation(EvalError::Cancelled)) => {}
                Err(other) => prop_assert!(false, "unexpected error: {:?}", other),
            }
        }

        // Ledger conservation under abandonment: every resident entry is
        // attributed to exactly one tenant, nothing double-counted, nothing
        // leaked mid-build.
        let pool = ws.trie_cache_stats();
        let alpha = ws.tenant("alpha").cache_stats();
        let beta = ws.tenant("beta").cache_stats();
        prop_assert_eq!(alpha.entries + beta.entries, pool.entries);
        prop_assert_eq!(
            alpha.resident_bytes + beta.resident_bytes,
            pool.resident_bytes
        );

        // The workspace survives the interruption: a clean run is correct
        // and a warm repeat serves entirely from the shared cache.
        let engine = ws.tenant("alpha").engine(EngineConfig::new().with_parallelism(1));
        let clean = engine
            .evaluate_with_stats(&scenario.query, &db)
            .expect("clean evaluation after cancellation succeeds");
        prop_assert_eq!(clean.answer, expected);
        let warm = engine
            .evaluate_with_stats(&scenario.query, &db)
            .expect("warm evaluation succeeds");
        prop_assert_eq!(warm.answer, expected);
        prop_assert_eq!(warm.trie_cache.misses, 0);
    }
}
