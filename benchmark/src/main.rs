//! Command-line entry point of the benchmark.
//!
//! ```text
//! ij-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ij-perfbench --smoke [--seed N]
//! ij-perfbench compare RUNS_DIR [CHANGE_RUNS_DIR]
//! ```
//!
//! A run prints its host facts, every metric with its unit, and, as its
//! last line, the JSON result object.  `compare` reads directories of saved
//! run outputs (one file per run).

use ij_perfbench::bench_path;
use ij_perfbench::compare::{compare, load_runs, metric_specs, summarize};
use ij_perfbench::json::Json;
use ij_perfbench::run::{host_line, run_traced, run_untraced, smoke};
use ij_perfbench::workload::{Scale, Workload, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: ij-perfbench --workload NAME --seed N --seconds S --trace 0|1\n\
         \x20      ij-perfbench --smoke [--seed N]\n\
         \x20      ij-perfbench compare RUNS_DIR [CHANGE_RUNS_DIR]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return compare_mode(&args[1..]);
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut smoke_mode = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke_mode = true;
            continue;
        }
        let Some(value) = it.next() else {
            return usage();
        };
        let parsed = match flag.as_str() {
            "--workload" => Workload::by_name(value)
                .map(|w| workload = Some(w))
                .is_some(),
            "--seed" => value.parse().map(|s| seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| *s > 0.0)
                .map(|s| seconds = s)
                .is_some(),
            "--trace" => {
                trace = value == "1";
                matches!(value.as_str(), "0" | "1")
            }
            _ => false,
        };
        if !parsed {
            eprintln!("bad argument: {flag} {value}");
            return usage();
        }
    }
    if smoke_mode {
        return smoke_all(seed);
    }
    let Some(w) = workload else {
        return usage();
    };
    println!("{}", host_line(&w, seed, Scale::Full, trace, seconds));
    let result = if trace {
        let spans = bench_path(&format!("out/spans-{}-seed{seed}.jsonl", w.name));
        run_traced(&w, seed, seconds, Scale::Full, Some(&spans))
    } else {
        run_untraced(&w, seed, seconds, Scale::Full)
    };
    result.print_metrics();
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}

fn smoke_all(seed: u64) -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        println!("{}", host_line(&w, seed, Scale::Smoke, false, 0.0));
        let r = smoke(&w, seed);
        for p in &r.problems {
            println!("{p}");
        }
        println!(
            "{}: failed_frac = {} fraction ({}/{}); cache hits {}, misses {}, evictions {}; \
             naive oracle checked",
            w.name,
            r.failed as f64 / r.attempted as f64,
            r.failed,
            r.attempted,
            r.hits,
            r.misses,
            r.evictions
        );
        ok &= r.failed == 0 && r.problems.is_empty();
    }
    println!("smoke: {}", if ok { "ok" } else { "FAILED" });
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_mode(dirs: &[String]) -> ExitCode {
    let specs = std::fs::read_to_string(bench_path("../BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text))
        .and_then(|json| metric_specs(&json, "end_to_end"));
    let specs = match specs {
        Ok(specs) => specs,
        Err(e) => {
            eprintln!("BENCHMARK.json: {e}");
            return ExitCode::FAILURE;
        }
    };
    let load = |dir: &String| load_runs(Path::new(dir));
    match dirs {
        [runs] => match load(runs) {
            Ok(runs) => {
                let (text, ok) = summarize(&specs, &runs);
                print!("{text}");
                if ok {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        [parent, change] => match (load(parent), load(change)) {
            (Ok(parent), Ok(change)) => {
                print!("{}", compare(&specs, &parent, &change));
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
