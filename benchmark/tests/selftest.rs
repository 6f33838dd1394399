//! Self-tests of the benchmark: seeded inputs are reproducible, every metric
//! `BENCHMARK.json` names is reported with its unit, and the smoke run of
//! every workload is correct and uses the trie cache only where expected.

use ij_perfbench::bench_path;
use ij_perfbench::compare::metric_specs;
use ij_perfbench::json::Json;
use ij_perfbench::run::{run_traced, run_untraced, smoke, RunResult};
use ij_perfbench::workload::{setup, Scale, WORKLOADS};

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(bench_path("../BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn pool_identity(w: &ij_perfbench::workload::Workload, seed: u64) -> Vec<(u64, bool)> {
    setup(w, seed, Scale::Smoke)
        .entries
        .iter()
        .map(|e| (e.fingerprint, e.reference))
        .collect()
}

#[test]
fn one_seed_yields_one_pool_and_another_seed_another() {
    for w in WORKLOADS {
        let a = pool_identity(&w, 5);
        assert_eq!(
            a,
            pool_identity(&w, 5),
            "{}: same seed, different pool",
            w.name
        );
        let b = pool_identity(&w, 6);
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x.0, y.0, "{}: seeds 5 and 6 share a database", w.name);
        }
        for i in 0..w.pool_size {
            assert_eq!(w.member(5, i, Scale::Full), w.member(5, i, Scale::Full));
            assert_ne!(
                w.member(5, i, Scale::Full).seed,
                w.member(6, i, Scale::Full).seed
            );
        }
    }
}

fn assert_reports(result: &RunResult, benchmark: &Json, key: &str) {
    let specs = metric_specs(benchmark, key).expect("metric list");
    assert_eq!(result.metrics.len(), specs.len(), "{key}: metric count");
    for spec in &specs {
        let m = result
            .metric(&spec.name)
            .unwrap_or_else(|| panic!("{key} metric {} not reported", spec.name));
        assert_eq!(m.unit, spec.unit, "unit of {}", spec.name);
        assert!(m.value.is_finite(), "{} = {}", spec.name, m.value);
    }
    let line = Json::parse(&result.json_line()).expect("result line parses");
    let keys: Vec<&str> = line
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let printed = line.get("metrics").and_then(Json::as_object).unwrap();
    for spec in &specs {
        let m = printed
            .iter()
            .find(|(k, _)| *k == spec.name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("{} missing from the result line", spec.name));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(spec.unit.as_str())
        );
        assert!(m.get("value").and_then(Json::as_f64).is_some());
    }
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn every_metric_in_benchmark_json_is_printed_with_its_unit() {
    let benchmark = benchmark_json();
    let names: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(names, WORKLOADS.map(|w| w.name));
    for w in WORKLOADS {
        assert_reports(
            &run_untraced(&w, 3, 0.05, Scale::Smoke),
            &benchmark,
            "end_to_end",
        );
        assert_reports(
            &run_traced(&w, 3, 0.05, Scale::Smoke, None),
            &benchmark,
            "per_layer",
        );
    }
}

#[test]
fn smoke_runs_are_correct_and_the_cache_is_used_only_by_the_cyclic_workload() {
    for seed in [1, 2] {
        for w in WORKLOADS {
            let r = smoke(&w, seed);
            assert!(r.problems.is_empty(), "{}: {:?}", w.name, r.problems);
            assert_eq!(r.failed, 0, "{}: failed queries", w.name);
            assert!(r.attempted > 0);
            if w.name == "cyclic-cache" {
                assert!(r.hits > 0, "cyclic-cache: no cache hits");
                assert!(r.evictions > 0, "cyclic-cache: no evictions");
            } else {
                assert_eq!(
                    (r.hits, r.misses, r.evictions),
                    (0, 0, 0),
                    "{}: an acyclic workload touched the trie cache",
                    w.name
                );
            }
        }
    }
}
