//! E10 — correctness of the forward reduction (Lemma 4.11 / Theorem 4.13).
//!
//! Differential testing: evaluating an IJ query through the forward reduction
//! and the equality-join engine must agree with the naive reference evaluator
//! on every database.  Exercised over the paper's catalog queries and random
//! synthetic workloads with several densities and seeds; planted satisfiable
//! and unsatisfiable instances guarantee that both outcomes are covered
//! deterministically.
//!
//! Debug builds shrink the generated workload sizes (`scaled_tuples` /
//! `scaled_seeds`) so the dev-loop `cargo test` is not dominated by the
//! exhaustive naive oracle; release builds exercise the full sizes.

use ij_ejoin::EjStrategy;
use ij_engine::{EngineConfig, IntersectionJoinEngine};
use ij_hypergraph::{
    figure_9b, figure_9c, figure_9d, figure_9e, figure_9f, k_path_ij, star_ij, triangle_ij,
    Hypergraph,
};
use ij_relation::Query;
use ij_workloads::{
    generate_for_query, planted_satisfiable, planted_unsatisfiable, IntervalDistribution,
    WorkloadConfig,
};

/// Workload scale for this file.  The naive oracle is exhaustive
/// backtracking, so these differential loops dominate the tier-1 wall clock
/// in unoptimised builds (~3 minutes at the full sizes).  Debug builds — the
/// dev loop — shrink the tuple counts and seed ranges; release builds (and
/// the release half of tier-1 CI) keep the full coverage.
fn scaled_tuples(tuples: usize) -> usize {
    if cfg!(debug_assertions) {
        tuples.div_ceil(2).max(4)
    } else {
        tuples
    }
}

/// Debug builds run the first quarter of the seed range (at least 2 seeds);
/// release builds run all of it.
fn scaled_seeds(seeds: std::ops::Range<u64>) -> std::ops::Range<u64> {
    if cfg!(debug_assertions) {
        let len = seeds.end.saturating_sub(seeds.start);
        seeds.start..seeds.start + (len / 4).max(2).min(len)
    } else {
        seeds
    }
}

/// Differential check of the reduction-based evaluation against the naive
/// oracle: random workloads check agreement, planted instances guarantee that
/// both the `true` and the `false` outcome are exercised.
fn differential(
    query: &Query,
    tuples: usize,
    seeds: std::ops::Range<u64>,
    dist: IntervalDistribution,
) {
    differential_with(
        &IntersectionJoinEngine::with_defaults(),
        query,
        tuples,
        seeds,
        dist,
    );
}

fn differential_with(
    engine: &IntersectionJoinEngine,
    query: &Query,
    tuples: usize,
    seeds: std::ops::Range<u64>,
    dist: IntervalDistribution,
) {
    let tuples = scaled_tuples(tuples);
    for seed in scaled_seeds(seeds) {
        let cfg = WorkloadConfig {
            tuples_per_relation: tuples,
            seed,
            distribution: dist,
        };
        let db = generate_for_query(query, &cfg);
        let expected = engine.evaluate_naive(query, &db).expect("naive evaluation");
        let actual = engine
            .evaluate(query, &db)
            .expect("reduction-based evaluation");
        assert_eq!(actual, expected, "query {query}, seed {seed}");

        // Planted instances: deterministically satisfiable / unsatisfiable.
        let sat = planted_satisfiable(query, &cfg);
        assert!(
            engine.evaluate_naive(query, &sat).unwrap(),
            "planted-sat naive, seed {seed}"
        );
        assert!(
            engine.evaluate(query, &sat).unwrap(),
            "planted-sat reduction, seed {seed}"
        );

        let unsat = planted_unsatisfiable(query, &cfg);
        assert!(
            !engine.evaluate_naive(query, &unsat).unwrap(),
            "planted-unsat naive, seed {seed}"
        );
        assert!(
            !engine.evaluate(query, &unsat).unwrap(),
            "planted-unsat reduction, seed {seed}"
        );
    }
}

fn query_of(h: &Hypergraph) -> Query {
    Query::from_hypergraph(h)
}

fn decomposed_engine() -> IntersectionJoinEngine {
    IntersectionJoinEngine::new(EngineConfig::decomposed())
}

#[test]
fn triangle_reduction_is_correct_on_sparse_workloads() {
    differential(
        &query_of(&triangle_ij()),
        12,
        0..20,
        IntervalDistribution::Uniform {
            span: 400.0,
            max_len: 30.0,
        },
    );
}

#[test]
fn triangle_reduction_is_correct_on_dense_workloads() {
    differential(
        &query_of(&triangle_ij()),
        10,
        100..112,
        IntervalDistribution::Uniform {
            span: 60.0,
            max_len: 18.0,
        },
    );
}

#[test]
fn figure_9_queries_are_correct() {
    // One representative workload per Figure 9 hypergraph (9a is covered by
    // the spatial example; 9b-9f here).
    for (h, span) in [
        (figure_9b(), 90.0),
        (figure_9c(), 70.0),
        (figure_9d(), 90.0),
        (figure_9e(), 40.0),
        (figure_9f(), 60.0),
    ] {
        differential(
            &query_of(&h),
            8,
            0..8,
            IntervalDistribution::Uniform {
                span,
                max_len: 10.0,
            },
        );
    }
}

#[test]
fn star_and_path_queries_are_correct() {
    differential(
        &query_of(&star_ij(3)),
        10,
        0..10,
        IntervalDistribution::Uniform {
            span: 150.0,
            max_len: 25.0,
        },
    );
    differential(
        &query_of(&k_path_ij(4)),
        10,
        0..10,
        IntervalDistribution::Uniform {
            span: 60.0,
            max_len: 10.0,
        },
    );
}

#[test]
fn heavy_tailed_intervals_are_correct() {
    differential(
        &query_of(&triangle_ij()),
        10,
        0..12,
        IntervalDistribution::HeavyTailed {
            span: 300.0,
            alpha: 1.2,
            scale: 8.0,
        },
    );
}

#[test]
fn point_interval_workloads_degenerate_to_equality_joins() {
    differential(
        &query_of(&triangle_ij()),
        15,
        0..15,
        IntervalDistribution::Points { domain: 9 },
    );
}

#[test]
fn grid_aligned_workloads_are_correct() {
    differential(
        &query_of(&triangle_ij()),
        14,
        0..12,
        IntervalDistribution::GridAligned {
            span: 128.0,
            cells: 32,
            max_cells: 3,
        },
    );
}

#[test]
fn decomposed_encoding_is_correct_on_triangle_workloads() {
    // The decomposed (Id-based) encoding of Section 1.1 must agree with the
    // naive oracle exactly like the flat encoding does.
    differential_with(
        &decomposed_engine(),
        &query_of(&triangle_ij()),
        12,
        0..12,
        IntervalDistribution::Uniform {
            span: 150.0,
            max_len: 20.0,
        },
    );
}

#[test]
fn all_ej_strategies_agree_through_the_reduction() {
    let query = query_of(&triangle_ij());
    for strategy in [
        EjStrategy::Auto,
        EjStrategy::GenericJoin,
        EjStrategy::Decomposition,
    ] {
        let engine = IntersectionJoinEngine::new(EngineConfig {
            ej_strategy: strategy,
            ..EngineConfig::new()
        });
        for seed in scaled_seeds(0..10) {
            let db = generate_for_query(
                &query,
                &WorkloadConfig {
                    tuples_per_relation: scaled_tuples(10),
                    seed,
                    distribution: IntervalDistribution::Uniform {
                        span: 80.0,
                        max_len: 15.0,
                    },
                },
            );
            let expected = engine.evaluate_naive(&query, &db).unwrap();
            assert_eq!(
                engine.evaluate(&query, &db).unwrap(),
                expected,
                "{strategy:?} seed {seed}"
            );
        }
    }
}

#[test]
fn loomis_whitney_4_reduction_is_correct_on_small_instances() {
    // LW4 produces 1296 reduced queries and its ternary atoms make the flat
    // encoding blow up by a (log² N)³ factor per atom, so this test uses the
    // decomposed encoding (Section 1.1) and keeps the data tiny.
    use ij_hypergraph::loomis_whitney_4_ij;
    let query = query_of(&loomis_whitney_4_ij());
    let engine = decomposed_engine();
    let mut outcomes = [0usize; 2];
    for (seed, span) in [(0u64, 60.0), (1u64, 12.0)] {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: 3,
                seed,
                distribution: IntervalDistribution::Uniform { span, max_len: 6.0 },
            },
        );
        let expected = engine.evaluate_naive(&query, &db).unwrap();
        let actual = engine.evaluate(&query, &db).unwrap();
        assert_eq!(actual, expected, "seed {seed}");
        outcomes[usize::from(expected)] += 1;
    }
    assert!(outcomes[0] + outcomes[1] == 2);

    // Planted instances cover both outcomes deterministically.
    let cfg = WorkloadConfig {
        tuples_per_relation: 2,
        seed: 7,
        distribution: IntervalDistribution::Uniform {
            span: 40.0,
            max_len: 6.0,
        },
    };
    assert!(engine
        .evaluate(&query, &planted_satisfiable(&query, &cfg))
        .unwrap());
    assert!(!engine
        .evaluate(&query, &planted_unsatisfiable(&query, &cfg))
        .unwrap());
}

#[test]
fn four_clique_reduction_is_correct_on_small_instances() {
    use ij_hypergraph::four_clique_ij;
    let query = query_of(&four_clique_ij());
    let engine = decomposed_engine();
    for (seed, span) in [(0u64, 50.0), (1u64, 8.0)] {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: 3,
                seed,
                distribution: IntervalDistribution::Uniform { span, max_len: 5.0 },
            },
        );
        let expected = engine.evaluate_naive(&query, &db).unwrap();
        assert_eq!(
            engine.evaluate(&query, &db).unwrap(),
            expected,
            "seed {seed}"
        );
    }

    let cfg = WorkloadConfig {
        tuples_per_relation: 2,
        seed: 3,
        distribution: IntervalDistribution::Uniform {
            span: 30.0,
            max_len: 5.0,
        },
    };
    assert!(engine
        .evaluate(&query, &planted_satisfiable(&query, &cfg))
        .unwrap());
    assert!(!engine
        .evaluate(&query, &planted_unsatisfiable(&query, &cfg))
        .unwrap());
}

#[test]
fn mixed_eij_queries_are_correct() {
    // Equality join on a point variable plus intersection joins.
    let query = Query::parse("R(K,[A],[B]) & S(K,[B],[C]) & T([A],[C])").unwrap();
    let engine = IntersectionJoinEngine::with_defaults();
    for seed in scaled_seeds(0..15) {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: scaled_tuples(10),
                seed,
                distribution: IntervalDistribution::Uniform {
                    span: 80.0,
                    max_len: 20.0,
                },
            },
        );
        let expected = engine.evaluate_naive(&query, &db).unwrap();
        assert_eq!(
            engine.evaluate(&query, &db).unwrap(),
            expected,
            "seed {seed}"
        );
    }
}

#[test]
fn distinct_left_endpoint_transformation_preserves_answers() {
    // Appendix G.1: shifting the intervals so that left endpoints become
    // distinct across relations must not change the answer.
    let query = query_of(&triangle_ij());
    let engine = IntersectionJoinEngine::with_defaults();
    for seed in scaled_seeds(0..10) {
        let db = generate_for_query(
            &query,
            &WorkloadConfig {
                tuples_per_relation: scaled_tuples(10),
                seed,
                distribution: IntervalDistribution::GridAligned {
                    span: 64.0,
                    cells: 16,
                    max_cells: 4,
                },
            },
        );
        let mut shifted = db.clone();
        shifted.shift_left_endpoints(&["R", "S", "T"]);
        let before = engine.evaluate(&query, &db).unwrap();
        let after = engine.evaluate(&query, &shifted).unwrap();
        assert_eq!(before, after, "seed {seed}");
    }
}

/// FNV-1a over a byte string: a checksum that is stable across processes,
/// platforms and toolchains (unlike `DefaultHasher`).
fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The forward reduction's output is pinned per scenario database: the
/// number of reduced queries and relations, the total transformed-tuple
/// count, and a checksum of every relation's name and value-sorted rows.
/// The checksum resolves ids to values, so it is independent of how ids
/// are assigned and of the row order `Relation::dedup` leaves behind; any
/// change to *what* the reduction emits trips it.
#[test]
fn transformed_databases_are_pinned_across_scenario_families() {
    use ij_reduction::{forward_reduction_with, EncodingStrategy, ReductionConfig};
    use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};

    // (label, reduced queries, relations, transformed tuples, checksum).
    const EXPECTED: &[(&str, usize, usize, usize, u64)] = &[
        (
            "temporal-overlap/natural/flat",
            6,
            9,
            5760,
            0xfdbc0a65c42885ae,
        ),
        (
            "temporal-overlap/natural/decomposed",
            6,
            9,
            5760,
            0xfdbc0a65c42885ae,
        ),
        (
            "temporal-overlap/near-miss/flat",
            6,
            9,
            5749,
            0x56eed3e3146f60eb,
        ),
        (
            "temporal-overlap/near-miss/decomposed",
            6,
            9,
            5749,
            0x56eed3e3146f60eb,
        ),
        ("ip-ranges/natural/flat", 36, 27, 68637, 0xf6a947449b778ad8),
        (
            "ip-ranges/natural/decomposed",
            36,
            21,
            2896,
            0x88ffce2b1ea55ebd,
        ),
        (
            "ip-ranges/near-miss/flat",
            36,
            27,
            69279,
            0xb29fe101cd1e6585,
        ),
        (
            "ip-ranges/near-miss/decomposed",
            36,
            21,
            2903,
            0x844681636d57d2c0,
        ),
        (
            "genomic-overlap/natural/flat",
            4,
            8,
            3612,
            0x54e55018057b3e30,
        ),
        (
            "genomic-overlap/natural/decomposed",
            4,
            9,
            1140,
            0x40916d1ed0a15ff9,
        ),
        (
            "genomic-overlap/near-miss/flat",
            4,
            8,
            4502,
            0x2b0998b664041d58,
        ),
        (
            "genomic-overlap/near-miss/decomposed",
            4,
            9,
            1221,
            0xb83d98fd9040f2c6,
        ),
        (
            "spatial-rectangles/natural/flat",
            8,
            12,
            11537,
            0x935cc8d100ff65e7,
        ),
        (
            "spatial-rectangles/natural/decomposed",
            8,
            15,
            1899,
            0x9607b18874316c33,
        ),
        (
            "spatial-rectangles/near-miss/flat",
            8,
            12,
            13379,
            0x2d41a141d3513564,
        ),
        (
            "spatial-rectangles/near-miss/decomposed",
            8,
            15,
            2038,
            0x0a43e4dc372b4cc3,
        ),
    ];

    let mut got: Vec<(String, usize, usize, usize, u64)> = Vec::new();
    for family in ScenarioFamily::ALL {
        let n = match family {
            ScenarioFamily::IpRanges => 10,
            _ => 24,
        };
        for (mode, planted, selectivity, skew) in [
            ("natural", PlantedAnswer::Natural, 0.5, 1.0),
            ("near-miss", PlantedAnswer::NearMiss, 1.0, 4.0),
        ] {
            let scenario = build_scenario(
                &ScenarioConfig::new(family)
                    .with_tuples(n)
                    .with_seed(7)
                    .with_selectivity(selectivity)
                    .with_skew(skew)
                    .with_planted(planted),
            );
            for (encoding, tag) in [
                (EncodingStrategy::Flat, "flat"),
                (EncodingStrategy::Decomposed, "decomposed"),
            ] {
                let fr = forward_reduction_with(
                    &scenario.query,
                    &scenario.database,
                    ReductionConfig { encoding },
                )
                .unwrap();
                let mut checksum = 0xcbf2_9ce4_8422_2325;
                for rel in fr.database.relations() {
                    let mut rows = rel.tuples();
                    rows.sort();
                    checksum = fnv1a(format!("{}:{rows:?};", rel.name()).as_bytes(), checksum);
                }
                got.push((
                    format!("{}/{mode}/{tag}", family.name()),
                    fr.stats.num_queries,
                    fr.stats.num_relations,
                    fr.stats.transformed_tuples,
                    checksum,
                ));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(l, q, r, t, c)| format!("        (\"{l}\", {q}, {r}, {t}, {c:#018x}),\n"))
        .collect();
    let expected: Vec<(String, usize, usize, usize, u64)> = EXPECTED
        .iter()
        .map(|&(l, q, r, t, c)| (l.to_string(), q, r, t, c))
        .collect();
    assert_eq!(got, expected, "computed table:\n{table}");
}
