//! Workload definitions and the per-run set-up: a seeded pool of scenario
//! databases imported once into one workspace, each with a reference answer
//! from `SegtreeBaseline`, and the query stream drawn from the pool.

use crate::stats::SplitMix64;
use ij_baselines::SegtreeBaseline;
use ij_engine::{
    EngineConfig, EngineError, EvaluationStats, IntersectionJoinEngine, Workspace, WorkspaceLimits,
};
use ij_relation::{Database, Query};
use ij_workloads::{build_scenario, PlantedAnswer, ScenarioConfig, ScenarioFamily};
use std::hash::{Hash, Hasher};

/// Disjunct workers of every workload's engine.
pub const PARALLELISM: usize = 2;

/// How queries pick their database from the pool.  Both draws run in
/// shuffled rounds that realise their frequencies exactly, so the mix of
/// databases in a run does not drift with the seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Draw {
    /// Every database equally often: each round is a random permutation of
    /// the pool.
    Uniform,
    /// Zipf(s = 1) over pool position: position `i` has weight `1 / (i + 1)`,
    /// so position 0 is the hottest database.  Each round holds
    /// [`ZIPF_ROUND`] draws, apportioned to the weights by largest
    /// remainder, in random order.
    Zipf,
}

/// Draws per Zipf round.
pub const ZIPF_ROUND: usize = 40;

/// Input sizes: the measured sizes, or tiny ones for the smoke run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes every reported number is taken at.
    Full,
    /// Tiny sizes, small enough to check every answer against the naive
    /// oracle as well.
    Smoke,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// The name `--workload` selects it by.
    pub name: &'static str,
    /// Databases in the pool.
    pub pool_size: usize,
    /// How the query stream draws from the pool.
    pub draw: Draw,
    /// Byte budget of the workspace's trie cache at full scale (`0`:
    /// unbounded bytes, the default 4096-entry bound only).
    pub cache_bytes: usize,
    /// Byte budget of the trie cache at smoke scale.
    pub smoke_cache_bytes: usize,
}

/// Every workload, in the order the smoke run visits them.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "iota-reduce",
        pool_size: 8,
        draw: Draw::Uniform,
        cache_bytes: 0,
        smoke_cache_bytes: 0,
    },
    Workload {
        name: "iota-wide",
        pool_size: 8,
        draw: Draw::Uniform,
        cache_bytes: 0,
        smoke_cache_bytes: 0,
    },
    Workload {
        name: "cyclic-cache",
        pool_size: 8,
        draw: Draw::Zipf,
        cache_bytes: 2 << 20,
        smoke_cache_bytes: 24 << 10,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The trie-cache byte budget at `scale` (`0` = unbounded bytes).
    pub fn cache_budget(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.cache_bytes,
            Scale::Smoke => self.smoke_cache_bytes,
        }
    }

    /// The scenario recipe of pool position `index` under workload seed
    /// `seed`.
    pub fn member(&self, seed: u64, index: usize, scale: Scale) -> ScenarioConfig {
        let smoke = scale == Scale::Smoke;
        let member_seed = SplitMix64::new(seed ^ ((index as u64) << 32)).next_u64();
        let odd = index % 2 == 1;
        let cfg = match self.name {
            // Star and path, dense (selectivity 1, skew 4) so the forward
            // reduction dominates, with natural and near-miss alternating.
            // Temporal (even positions) at n = 512 and genomic (odd) at
            // n = 896 cost about the same per query, so the latency
            // distribution has one mode and its median is not balanced on
            // the gap between two families' costs.
            "iota-reduce" => {
                let (family, n) = if odd {
                    (ScenarioFamily::GenomicOverlap, if smoke { 16 } else { 896 })
                } else {
                    (
                        ScenarioFamily::TemporalOverlap,
                        if smoke { 12 } else { 512 },
                    )
                };
                ScenarioConfig::new(family)
                    .with_tuples(n)
                    .with_selectivity(1.0)
                    .with_skew(4.0)
                    .with_planted(if (index / 2) % 2 == 1 {
                        PlantedAnswer::NearMiss
                    } else {
                        PlantedAnswer::Natural
                    })
            }
            // Two interval variables per atom; near-miss so the answer is
            // false and every deduplicated disjunct is evaluated.  Positions
            // 0-4 at the smaller size, 5-7 at the larger: the median falls
            // inside the small mode and p90 inside the large one.
            "iota-wide" => ScenarioConfig::new(ScenarioFamily::IpRanges)
                .with_tuples(match (smoke, index < 5) {
                    (true, true) => 4,
                    (true, false) => 6,
                    (false, true) => 16,
                    (false, false) => 24,
                })
                .with_planted(PlantedAnswer::NearMiss),
            // The cyclic triangle, natural and dense near-miss alternating
            // by position, so the Zipf-hot head holds both kinds.
            "cyclic-cache" => {
                let cfg = ScenarioConfig::new(ScenarioFamily::SpatialRectangles)
                    .with_tuples(if smoke { 10 } else { 256 });
                if odd {
                    cfg.with_selectivity(1.0)
                        .with_skew(4.0)
                        .with_planted(PlantedAnswer::NearMiss)
                } else {
                    cfg
                }
            }
            other => unreachable!("unknown workload {other}"),
        };
        cfg.with_seed(member_seed)
    }
}

/// One pooled database with its reference answer.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// The scenario label (family, size, seed, mode), printed on mismatch.
    pub label: String,
    /// The family's query.
    pub query: Query,
    /// The database, interned into the pool's workspace.
    pub database: Database,
    /// The answer `SegtreeBaseline` gives.
    pub reference: bool,
    /// A content hash of the generated relations (name, arity, tuples).
    pub fingerprint: u64,
}

/// A set-up workload: the pool, its workspace and the engine under test.
pub struct Pool {
    /// The pooled databases, in pool order.
    pub entries: Vec<PoolEntry>,
    /// The workspace every database is imported into.
    pub workspace: Workspace,
    /// The engine the queries run on (built from `workspace`).
    pub engine: IntersectionJoinEngine,
    /// Problems found while setting up: reference answers contradicting
    /// the planted guarantee, and warm-up answers differing from the
    /// reference.  Empty when set-up is sound.
    pub problems: Vec<String>,
}

/// A content hash of `db`'s relations, independent of interning order.
pub fn fingerprint(db: &Database) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    let mut relations: Vec<_> = db.relations().collect();
    relations.sort_by(|a, b| a.name().cmp(b.name()));
    for rel in relations {
        rel.name().hash(&mut h);
        rel.arity().hash(&mut h);
        rel.tuples().hash(&mut h);
    }
    h.finish()
}

/// Sets up workload `w` for seed `seed`: generates the pool, imports each
/// database into a fresh workspace, computes reference answers with
/// `SegtreeBaseline` and checks them against the planted guarantee, then
/// runs one warm-up query per database so that lazy state (dictionary
/// entries of the reduction, warm tries) is in place before timing.
pub fn setup(w: &Workload, seed: u64, scale: Scale) -> Pool {
    let limits = WorkspaceLimits::new().with_trie_cache_bytes(w.cache_budget(scale));
    let workspace = Workspace::with_limits(limits);
    let engine = workspace.engine(EngineConfig::new().with_parallelism(PARALLELISM));
    let mut problems = Vec::new();
    let mut entries = Vec::with_capacity(w.pool_size);
    for index in 0..w.pool_size {
        let cfg = w.member(seed, index, scale);
        let scenario = build_scenario(&cfg);
        let database = workspace.import_database(&scenario.database);
        let reference = SegtreeBaseline::build(&scenario.query, &database)
            .expect("scenario databases match their query")
            .evaluate_boolean();
        let guaranteed = match cfg.planted {
            PlantedAnswer::Satisfiable => Some(true),
            PlantedAnswer::NearMiss | PlantedAnswer::Unsatisfiable => Some(false),
            PlantedAnswer::Natural => None,
        };
        if guaranteed.is_some_and(|g| g != reference) {
            problems.push(format!(
                "MISMATCH {}: SegtreeBaseline answered {reference}, the planted mode guarantees {}",
                scenario.name, !reference
            ));
        }
        entries.push(PoolEntry {
            fingerprint: fingerprint(&scenario.database),
            label: scenario.name,
            query: scenario.query,
            database,
            reference,
        });
    }
    for entry in &entries {
        if let Err(problem) = check(
            entry,
            engine.evaluate_with_stats(&entry.query, &entry.database),
        ) {
            problems.push(format!("warm-up {problem}"));
        }
    }
    Pool {
        entries,
        workspace,
        engine,
        problems,
    }
}

/// Checks one engine outcome against the entry's reference answer: the
/// stats on agreement, otherwise a one-line description naming the
/// scenario.
pub fn check(
    entry: &PoolEntry,
    outcome: Result<EvaluationStats, EngineError>,
) -> Result<EvaluationStats, String> {
    match outcome {
        Ok(stats) if stats.answer == entry.reference => Ok(stats),
        Ok(stats) => Err(format!(
            "MISMATCH {}: engine answered {}, reference {}",
            entry.label, stats.answer, entry.reference
        )),
        Err(e) => Err(format!("ERROR {}: {e}", entry.label)),
    }
}

/// The query stream: pool positions drawn per the workload's [`Draw`].
pub struct Draws {
    rng: SplitMix64,
    /// How often each position occurs in one round.
    counts: Vec<usize>,
    /// The rest of the current round.
    round: Vec<usize>,
}

impl Draws {
    /// The stream of workload `w` under seed `seed`.
    pub fn new(w: &Workload, seed: u64) -> Self {
        let counts = match w.draw {
            Draw::Uniform => vec![1; w.pool_size],
            Draw::Zipf => {
                let weights: Vec<f64> = (1..=w.pool_size).map(|k| 1.0 / k as f64).collect();
                let total: f64 = weights.iter().sum();
                let quotas: Vec<f64> = weights
                    .iter()
                    .map(|x| x / total * ZIPF_ROUND as f64)
                    .collect();
                let mut counts: Vec<usize> = quotas.iter().map(|q| q.floor() as usize).collect();
                let mut by_remainder: Vec<usize> = (0..w.pool_size).collect();
                by_remainder.sort_by(|&a, &b| {
                    (quotas[b] - quotas[b].floor()).total_cmp(&(quotas[a] - quotas[a].floor()))
                });
                let missing = ZIPF_ROUND - counts.iter().sum::<usize>();
                for &i in by_remainder.iter().take(missing) {
                    counts[i] += 1;
                }
                counts
            }
        };
        Draws {
            rng: SplitMix64::new(seed ^ 0x5eed_d4a3_0000_0000),
            counts,
            round: Vec::new(),
        }
    }

    /// The next pool position.
    pub fn next_index(&mut self) -> usize {
        if self.round.is_empty() {
            self.round = (0..self.counts.len())
                .flat_map(|i| std::iter::repeat_n(i, self.counts[i]))
                .collect();
            for i in (1..self.round.len()).rev() {
                let j = self.rng.below(i + 1);
                self.round.swap(i, j);
            }
        }
        self.round.pop().expect("a round is never empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_rounds_follow_the_weights() {
        let w = Workload::by_name("cyclic-cache").unwrap();
        let mut draws = Draws::new(&w, 7);
        assert_eq!(draws.counts, vec![15, 7, 5, 4, 3, 2, 2, 2]);
        let mut seen = vec![0; w.pool_size];
        for _ in 0..ZIPF_ROUND {
            seen[draws.next_index()] += 1;
        }
        assert_eq!(seen, draws.counts);
    }
}
