//! The three run modes: the untraced closed loop (end-to-end metrics), the
//! traced run (per-layer metrics) and the smoke run (tiny inputs, every
//! answer also checked against the naive oracle).

use crate::json::{number, quote};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{check, setup, Draws, Pool, PoolEntry, Scale, Workload, PARALLELISM};
use ij_baselines::SegtreeBaseline;
use ij_engine::{EngineError, EvaluationStats};
use ij_reduction::{forward_reduction_with, ForwardReduction, ReductionConfig};
use ij_relation::{Database, Query};
use ij_segtree::{Interval, SegmentTree};
use std::collections::{BTreeSet, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Times the untraced run sets the workload up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit as `BENCHMARK.json` lists it.
    pub unit: &'static str,
}

/// The outcome of one run: what its last output line reports.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Queries attempted in the measured phase.
    pub attempted: usize,
    /// Of those, the ones that returned an error or a wrong answer.
    pub failed: usize,
    /// No failed query and a sound set-up.
    pub correct: bool,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The metric called `name`.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The one-line JSON object the benchmark prints last.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(m.name),
                    number(m.value),
                    quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric as `name = value unit`, one per line.
    pub fn print_metrics(&self) {
        for m in &self.metrics {
            println!("{} = {} {}", m.name, number(m.value), m.unit);
        }
    }
}

/// The facts about the host and the run that a result only means something
/// together with.
pub fn host_line(w: &Workload, seed: u64, scale: Scale, trace: bool, seconds: f64) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "run {{\"workload\": {}, \"seed\": {seed}, \"trace\": {}, \"seconds\": {}, \
         \"nproc\": {nproc}, \"kernel_arm\": {}, \"parallelism\": {PARALLELISM}, \
         \"cache_bytes\": {}, \"pool_size\": {}, \"commit\": {}}}",
        quote(w.name),
        u8::from(trace),
        number(seconds),
        quote(ij_engine::kernel_arm().as_str()),
        w.cache_budget(scale),
        w.pool_size,
        quote(&git_commit())
    )
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory without leaving it; `unknown` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&git.join(reference)) {
        return hash.trim().to_string();
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|h| h.trim().to_string())
                    .filter(|h| !h.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn report_problems(pool: &Pool) {
    for p in &pool.problems {
        println!("{p}");
    }
}

/// The untraced closed loop: sets the workload up [`SETUP_REPEATS`] times,
/// then sends one query at a time through `evaluate_with_stats` for
/// `seconds`, checking every answer against its reference.
pub fn run_untraced(w: &Workload, seed: u64, seconds: f64, scale: Scale) -> RunResult {
    let mut setup_times = Vec::with_capacity(SETUP_REPEATS);
    let mut pool = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous pool first, so set-ups do not stack in memory.
        drop(pool.take());
        let start = Instant::now();
        pool = Some(setup(w, seed, scale));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let pool = pool.expect("SETUP_REPEATS > 0");
    report_problems(&pool);

    let mut draws = Draws::new(w, seed);
    let dict_before = pool.workspace.dictionary_len();
    let mut latencies = Vec::new();
    let mut per_entry = vec![Vec::new(); pool.entries.len()];
    let mut failed = 0usize;
    let start = Instant::now();
    while latencies.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let index = draws.next_index();
        let entry = &pool.entries[index];
        let t = Instant::now();
        let outcome = pool
            .engine
            .evaluate_with_stats(&entry.query, &entry.database);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        latencies.push(ms);
        per_entry[index].push(ms);
        if let Err(problem) = check(entry, outcome) {
            println!("{problem}");
            failed += 1;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let attempted = latencies.len();
    let growth = pool.workspace.dictionary_len() - dict_before;

    for (entry, ms) in pool.entries.iter().zip(&per_entry) {
        println!(
            "  {}: {} queries, p50 {:.3} ms, reference {}",
            entry.label,
            ms.len(),
            median(ms),
            entry.reference
        );
    }
    println!(
        "samples = {attempted} queries in {wall:.3} s; failed_frac = {} fraction \
         ({failed}/{attempted}); dictionary growth = {growth} entries",
        number(failed as f64 / attempted as f64)
    );
    RunResult {
        attempted,
        failed,
        correct: failed == 0 && pool.problems.is_empty(),
        metrics: vec![
            metric("query_p50_ms", median(&latencies), "ms"),
            metric("query_p90_ms", percentile(&latencies, 0.9), "ms"),
            metric("queries_per_s", attempted as f64 / wall, "1/s"),
            metric("setup_s", median(&setup_times), "s"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
        ],
    }
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The segment trees the forward reduction builds, rebuilt from the public
/// segtree API: one per interval variable, over every interval the
/// variable's columns hold (`Database::collect_intervals`).
fn build_trees(query: &Query, db: &Database) -> Vec<(SegmentTree, Vec<Interval>)> {
    query
        .interval_variables()
        .iter()
        .map(|var| {
            let sources: Vec<(&str, usize)> = query
                .atoms()
                .iter()
                .flat_map(|a| {
                    a.vars
                        .iter()
                        .enumerate()
                        .filter(|(_, v)| *v == var)
                        .map(|(c, _)| (a.relation.as_str(), c))
                })
                .collect();
            let intervals = db.collect_intervals(&sources);
            (SegmentTree::build(&intervals), intervals)
        })
        .collect()
}

/// Canonical-partition nodes of every source interval in its tree.
fn partition_nodes(trees: &[(SegmentTree, Vec<Interval>)]) -> usize {
    trees
        .iter()
        .map(|(tree, intervals)| {
            intervals
                .iter()
                .map(|&iv| black_box(tree.canonical_partition(iv)).len())
                .sum::<usize>()
        })
        .sum()
}

/// `project` + `dedup` of each deduplicated disjunct's atoms onto their
/// shared variables (the projection acyclic evaluation starts with).
/// Returns the rows in and out of the dedups.
fn project_dedup(reduction: &ForwardReduction) -> (usize, usize) {
    let (mut rows_in, mut rows_out) = (0, 0);
    for i in reduction.deduped_query_indices() {
        let atoms = &reduction.queries[i].atoms;
        let mut occurrences: HashMap<&str, usize> = HashMap::new();
        for atom in atoms {
            let distinct: BTreeSet<&str> = atom.vars.iter().map(String::as_str).collect();
            for v in distinct {
                *occurrences.entry(v).or_insert(0) += 1;
            }
        }
        for atom in atoms {
            let rel = reduction
                .database
                .relation(&atom.relation)
                .expect("reduced atoms name transformed relations");
            let mut seen = BTreeSet::new();
            let columns: Vec<usize> = atom
                .vars
                .iter()
                .enumerate()
                .filter(|(_, v)| occurrences[v.as_str()] >= 2 && seen.insert(v.as_str()))
                .map(|(c, _)| c)
                .collect();
            let mut projected = rel.project(&columns, atom.relation.clone());
            rows_in += projected.len();
            projected.dedup();
            rows_out += black_box(&projected).len();
        }
    }
    (rows_in, rows_out)
}

/// Per-query sums the traced run divides by the traced query count.
#[derive(Default)]
struct Counters {
    transformed: usize,
    relations: usize,
    disjuncts: usize,
    ej_total: usize,
    ej_evaluated: usize,
    early_exits: usize,
    batches: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
    resident_bytes: usize,
    planning_ns: u64,
    planned: usize,
    flat_atoms: usize,
    hash_atoms: usize,
    partition_nodes: usize,
    rows_in: usize,
    rows_out: usize,
}

impl Counters {
    fn add(&mut self, reduction: &ForwardReduction, stats: &EvaluationStats) {
        self.transformed += reduction.stats.transformed_tuples;
        self.relations += reduction.stats.num_relations;
        self.disjuncts += reduction.stats.num_queries;
        self.ej_total += stats.ej_queries_total;
        self.ej_evaluated += stats.ej_queries_evaluated;
        self.early_exits += usize::from(stats.ej_queries_evaluated < stats.ej_queries_total);
        self.batches += stats.ej_query_batches;
        self.hits += stats.trie_cache.hits;
        self.misses += stats.trie_cache.misses;
        self.evictions += stats.trie_cache.evictions;
        self.resident_bytes += stats.trie_cache.resident_bytes;
        self.planning_ns += stats.planning_nanos;
        self.planned += stats.disjuncts_planned;
        self.flat_atoms += stats.flat_layout_atoms;
        self.hash_atoms += stats.hash_layout_atoms;
    }
}

/// One traced query: the root span `query` around `widths.analyze`,
/// `reduction.forward` and `ejoin.evaluate`, then the side spans
/// `segtree.build`, `segtree.partition`, `relation.project_dedup` and
/// `baselines.segtree` over the same input, outside the root.
fn traced_query(
    pool: &Pool,
    entry: &PoolEntry,
    id: u64,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<(), String> {
    let engine = &pool.engine;
    let root = tracer.begin(id, "query", None);
    let analysis = tracer.span(id, "widths.analyze", Some(root), || {
        engine.analyze(&entry.query)
    });
    black_box(analysis);
    let config = ReductionConfig {
        encoding: engine.config().encoding,
    };
    let reduced = tracer.span(id, "reduction.forward", Some(root), || {
        forward_reduction_with(&entry.query, &entry.database, config)
    });
    let (reduction, outcome) = match reduced {
        Ok(reduction) => {
            let outcome = tracer.span(id, "ejoin.evaluate", Some(root), || {
                engine.evaluate_reduction(&reduction)
            });
            (Some(reduction), outcome.map_err(EngineError::from))
        }
        Err(e) => (None, Err(EngineError::from(e))),
    };
    tracer.end(root);
    let checked = check(entry, outcome);

    let trees = tracer.span(id, "segtree.build", None, || {
        build_trees(&entry.query, &entry.database)
    });
    counters.partition_nodes +=
        tracer.span(id, "segtree.partition", None, || partition_nodes(&trees));
    let baseline = tracer.span(id, "baselines.segtree", None, || {
        SegtreeBaseline::build(&entry.query, &entry.database)
            .expect("scenario databases match their query")
            .evaluate_boolean()
    });
    if let Some(reduction) = &reduction {
        let (rows_in, rows_out) = tracer.span(id, "relation.project_dedup", None, || {
            project_dedup(reduction)
        });
        counters.rows_in += rows_in;
        counters.rows_out += rows_out;
    }

    let stats = checked?;
    counters.add(
        reduction.as_ref().expect("an answer implies a reduction"),
        &stats,
    );
    if baseline != entry.reference {
        return Err(format!(
            "MISMATCH {}: SegtreeBaseline answered {baseline}, reference {}",
            entry.label, entry.reference
        ));
    }
    Ok(())
}

/// Share of `--seconds` the traced run spends on its untraced phase.
const UNTRACED_SHARE: f64 = 1.0 / 3.0;

/// The traced run: sets the workload up once, sends untraced
/// `evaluate_with_stats` queries for a third of `seconds`, then replays the
/// same query stream (same databases, same order) traced, with the side
/// spans.  Both phases therefore see the same inputs and, in steady state,
/// the same cache behaviour, so the difference between them is the tracing
/// overhead.  The spans are written to `spans_path` at the end when one is
/// given.
pub fn run_traced(
    w: &Workload,
    seed: u64,
    seconds: f64,
    scale: Scale,
    spans_path: Option<&Path>,
) -> RunResult {
    let pool = setup(w, seed, scale);
    report_problems(&pool);
    let dict_before = pool.workspace.dictionary_len();
    let mut failed = 0usize;
    let mut report = |outcome: Result<(), String>| {
        if let Err(problem) = outcome {
            println!("{problem}");
            failed += 1;
        }
    };

    let (mut untraced, mut hit_lat, mut miss_lat) = (Vec::new(), Vec::new(), Vec::new());
    let mut draws = Draws::new(w, seed);
    let start = Instant::now();
    while untraced.is_empty() || start.elapsed().as_secs_f64() < seconds * UNTRACED_SHARE {
        let entry = &pool.entries[draws.next_index()];
        let t = Instant::now();
        let outcome = pool
            .engine
            .evaluate_with_stats(&entry.query, &entry.database);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        untraced.push(ms);
        let checked = check(entry, outcome);
        if let Ok(stats) = &checked {
            if stats.trie_cache.misses == 0 {
                hit_lat.push(ms);
            } else {
                miss_lat.push(ms);
            }
        }
        report(checked.map(|_| ()));
    }

    let traced = untraced.len();
    let mut tracer = Tracer::new();
    let mut counters = Counters::default();
    let mut draws = Draws::new(w, seed);
    for id in 0..traced as u64 {
        let entry = &pool.entries[draws.next_index()];
        report(traced_query(&pool, entry, id, &mut tracer, &mut counters));
    }
    let failed = failed;
    let attempted = 2 * traced;
    let growth = pool.workspace.dictionary_len() - dict_before;
    if let Some(path) = spans_path {
        match tracer.write_jsonl(path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }

    let n = traced as f64;
    let self_ms = tracer.self_time_by_name();
    let per_query_ms = |name: &str| self_ms.get(name).copied().unwrap_or(0) as f64 / 1e6 / n;
    let traced_query_ms = tracer.total_time_by_name()["query"] as f64 / 1e6 / n;
    let untraced_mean_ms = untraced.iter().sum::<f64>() / untraced.len().max(1) as f64;
    let forward_ms = per_query_ms("reduction.forward");
    let eval_ms = per_query_ms("ejoin.evaluate");
    let segtree_ms = per_query_ms("baselines.segtree");
    let c = &counters;
    let per = |x: usize| x as f64 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    println!(
        "traced: {traced} queries, mean query span {traced_query_ms:.3} ms \
         (analyze {:.3} + forward {forward_ms:.3} + eval {eval_ms:.3} + unaccounted {:.3}); \
         untraced: {} queries, mean {untraced_mean_ms:.3} ms, p50 {:.3} ms; \
         dictionary growth = {growth} entries",
        per_query_ms("widths.analyze"),
        per_query_ms("query"),
        untraced.len(),
        median(&untraced),
    );
    RunResult {
        attempted,
        failed,
        correct: failed == 0 && pool.problems.is_empty(),
        metrics: vec![
            metric(
                "widths.analyze_us",
                per_query_ms("widths.analyze") * 1e3,
                "us",
            ),
            metric("segtree.build_ms", per_query_ms("segtree.build"), "ms"),
            metric(
                "segtree.partition_ms",
                per_query_ms("segtree.partition"),
                "ms",
            ),
            metric("segtree.partition_nodes", per(c.partition_nodes), "1/query"),
            metric("reduction.forward_ms", forward_ms, "ms"),
            metric(
                "reduction.transformed_tuples",
                per(c.transformed),
                "1/query",
            ),
            metric("reduction.relations", per(c.relations), "1/query"),
            metric("reduction.disjuncts", per(c.disjuncts), "1/query"),
            metric(
                "reduction.tuples_per_ms",
                ratio(per(c.transformed), forward_ms),
                "tuples/ms",
            ),
            metric(
                "relation.dict_entries",
                pool.workspace.dictionary_len() as f64,
                "count",
            ),
            metric(
                "relation.dict_bytes",
                pool.workspace.dictionary_bytes() as f64,
                "bytes",
            ),
            metric(
                "relation.dict_growth_per_query",
                growth as f64 / attempted as f64,
                "1/query",
            ),
            metric(
                "relation.project_dedup_ms",
                per_query_ms("relation.project_dedup"),
                "ms",
            ),
            metric("relation.dedup_rows_in", per(c.rows_in), "1/query"),
            metric("relation.dedup_rows_out", per(c.rows_out), "1/query"),
            metric(
                "relation.dedup_keep_frac",
                ratio(c.rows_out as f64, c.rows_in as f64),
                "fraction",
            ),
            metric("ejoin.eval_ms", eval_ms, "ms"),
            metric("ejoin.disjuncts_total", per(c.ej_total), "1/query"),
            metric("ejoin.disjuncts_evaluated", per(c.ej_evaluated), "1/query"),
            metric("ejoin.early_exit_frac", per(c.early_exits), "fraction"),
            metric("ejoin.batches", per(c.batches), "1/query"),
            metric("ejoin.cache_hits", per(c.hits), "1/query"),
            metric("ejoin.cache_misses", per(c.misses), "1/query"),
            metric(
                "ejoin.cache_hit_rate",
                ratio(c.hits as f64, (c.hits + c.misses) as f64),
                "fraction",
            ),
            metric("ejoin.cache_evictions", per(c.evictions), "1/query"),
            metric(
                "ejoin.cache_resident_kib",
                per(c.resident_bytes) / 1024.0,
                "KiB",
            ),
            metric("engine.query_hit_p50_ms", median(&hit_lat), "ms"),
            metric("engine.query_miss_p50_ms", median(&miss_lat), "ms"),
            metric("ejoin.planning_us", per(c.planning_ns as usize) / 1e3, "us"),
            metric("ejoin.disjuncts_planned", per(c.planned), "1/query"),
            metric("ejoin.flat_atoms", per(c.flat_atoms), "1/query"),
            metric("ejoin.hash_atoms", per(c.hash_atoms), "1/query"),
            metric(
                "engine.reduction_share",
                ratio(forward_ms, forward_ms + eval_ms),
                "fraction",
            ),
            metric("baselines.segtree_ms", segtree_ms, "ms"),
            metric(
                "baselines.engine_over_segtree",
                ratio(untraced_mean_ms, segtree_ms),
                "ratio",
            ),
            metric(
                "trace.overhead_frac",
                ratio(traced_query_ms, untraced_mean_ms) - 1.0,
                "fraction",
            ),
            metric("trace.unaccounted_ms", per_query_ms("query"), "ms"),
        ],
    }
}

/// What the smoke run of one workload found.
#[derive(Debug, Clone, Default)]
pub struct SmokeReport {
    /// Queries sent.
    pub attempted: usize,
    /// Queries with an error or a wrong answer.
    pub failed: usize,
    /// Set-up problems and naive-oracle disagreements, one line each.
    pub problems: Vec<String>,
    /// Trie-cache hits over the queries.
    pub hits: usize,
    /// Trie-cache misses over the queries.
    pub misses: usize,
    /// Trie-cache evictions over the queries.
    pub evictions: usize,
}

/// Queries the smoke run sends per pooled database.
pub const SMOKE_ROUNDS: usize = 4;

/// The smoke run of one workload: tiny inputs, every reference answer also
/// checked against `evaluate_naive`, then `SMOKE_ROUNDS × pool` queries.
pub fn smoke(w: &Workload, seed: u64) -> SmokeReport {
    let pool = setup(w, seed, Scale::Smoke);
    let mut report = SmokeReport {
        problems: pool.problems.clone(),
        ..SmokeReport::default()
    };
    for entry in &pool.entries {
        match pool.engine.evaluate_naive(&entry.query, &entry.database) {
            Ok(naive) if naive == entry.reference => {}
            Ok(naive) => report.problems.push(format!(
                "MISMATCH {}: naive answered {naive}, reference {}",
                entry.label, entry.reference
            )),
            Err(e) => report
                .problems
                .push(format!("ERROR {}: naive: {e}", entry.label)),
        }
    }
    let mut draws = Draws::new(w, seed);
    for _ in 0..SMOKE_ROUNDS * w.pool_size {
        let entry = &pool.entries[draws.next_index()];
        report.attempted += 1;
        match check(
            entry,
            pool.engine
                .evaluate_with_stats(&entry.query, &entry.database),
        ) {
            Ok(stats) => {
                report.hits += stats.trie_cache.hits;
                report.misses += stats.trie_cache.misses;
                report.evictions += stats.trie_cache.evictions;
            }
            Err(problem) => {
                report.problems.push(problem);
                report.failed += 1;
            }
        }
    }
    report
}
