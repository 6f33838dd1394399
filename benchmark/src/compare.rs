//! Compare mode: reads the saved outputs of two sets of runs (parent and
//! change) and gives each workload × end-to-end metric a verdict, with the
//! bounds `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::stats::quartiles;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One end-to-end metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// The metric's name.
    pub name: String,
    /// Its unit.
    pub unit: String,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
    /// The share of the parent's median by which it may worsen.
    pub bound: f64,
}

/// The metric list under `key` (`end_to_end` or `per_layer`) of a parsed
/// `BENCHMARK.json`; `bound` is `0` where the file gives none.
pub fn metric_specs(benchmark: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = benchmark
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("a `{key}` metric lacks `{f}`"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                lower_is_better: field("better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
            })
        })
        .collect()
}

/// One saved run: its `run` header line and its result line.
#[derive(Debug, Clone)]
pub struct SavedRun {
    /// The workload it ran.
    pub workload: String,
    /// The seed it ran with; runs of two sets pair up by seed.
    pub seed: u64,
    /// Whether it was a traced run.
    pub traced: bool,
    /// The parsed result line.
    pub result: Json,
}

impl SavedRun {
    /// The value of metric `name`.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Parses one run's saved standard output.
pub fn parse_run(text: &str) -> Result<SavedRun, String> {
    let header = text
        .lines()
        .find_map(|l| l.strip_prefix("run "))
        .ok_or("no `run` header line")?;
    let header = Json::parse(header)?;
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    Ok(SavedRun {
        workload: header
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("header lacks `workload`")?
            .to_string(),
        seed: header
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or("header lacks `seed`")? as u64,
        traced: header.get("trace").and_then(Json::as_f64) == Some(1.0),
        result: Json::parse(last)?,
    })
}

/// Every run saved in `dir` (one file per run), skipping files that are not
/// run outputs.
pub fn load_runs(dir: &Path) -> Result<Vec<SavedRun>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.is_file())
        .collect();
    paths.sort();
    Ok(paths
        .iter()
        .filter_map(|p| parse_run(&std::fs::read_to_string(p).ok()?).ok())
        .collect())
}

/// A comparison verdict (choosing-metrics guide, §6.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine tenths of the runs paired by seed and
    /// its median is better by more than the parent's own spread, or every
    /// change run beats every parent run.
    Better,
    /// The change's median is worse by more than the bound.
    Worse,
    /// Neither, with both spreads within the bound.
    Unchanged,
    /// A spread exceeds the bound and the runs do not separate.
    Unresolved,
}

/// The distance between the first and third quartiles as a share of the
/// median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// The verdict for one metric: `parent` and `change` are its
/// `(seed, value)` pairs over each side's runs.
pub fn verdict(parent: &[(u64, f64)], change: &[(u64, f64)], spec: &MetricSpec) -> Verdict {
    let better = |c: f64, p: f64| if spec.lower_is_better { c < p } else { c > p };
    let (mut wins, mut pairs) = (0, 0);
    for &(seed, c) in change {
        if let Some(&(_, p)) = parent.iter().find(|(s, _)| *s == seed) {
            pairs += 1;
            wins += usize::from(better(c, p));
        }
    }
    let all_better = change
        .iter()
        .all(|&(_, c)| parent.iter().all(|&(_, p)| better(c, p)));
    let (parent, change) = (values_of(parent), values_of(change));
    let (pm, cm) = (quartiles(&parent)[1], quartiles(&change)[1]);
    let worsening = if spec.lower_is_better {
        (cm - pm) / pm
    } else {
        (pm - cm) / pm
    };
    if spread(&parent) > spec.bound || spread(&change) > spec.bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > spec.bound {
        Verdict::Worse
    } else if all_better || (pairs > 0 && 10 * wins >= 9 * pairs && -worsening > spread(&parent)) {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

fn by_workload(runs: &[SavedRun]) -> BTreeMap<&str, Vec<&SavedRun>> {
    let mut out: BTreeMap<&str, Vec<&SavedRun>> = BTreeMap::new();
    for r in runs.iter().filter(|r| !r.traced) {
        out.entry(r.workload.as_str()).or_default().push(r);
    }
    out
}

fn values(runs: &[&SavedRun], name: &str) -> Vec<(u64, f64)> {
    runs.iter()
        .filter_map(|r| Some((r.seed, r.value(name)?)))
        .collect()
}

fn values_of(pairs: &[(u64, f64)]) -> Vec<f64> {
    pairs.iter().map(|&(_, v)| v).collect()
}

fn describe(v: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(v);
    format!("{q2:.4} [{q1:.4}, {q3:.4}] spread {:.3}", spread(v))
}

/// The report for one set of runs: per workload × end-to-end metric, the
/// median, quartiles and spread, checked against the bound (`setup_s` is
/// exempt from the spread check, as its bound covers medians only).
/// Returns the text and whether every spread is within its bound.
pub fn summarize(specs: &[MetricSpec], runs: &[SavedRun]) -> (String, bool) {
    let mut out = String::new();
    let mut ok = true;
    for (workload, runs) in by_workload(runs) {
        let failed: f64 = runs
            .iter()
            .filter_map(|r| r.result.get("failed").and_then(Json::as_f64))
            .sum();
        let correct = runs
            .iter()
            .all(|r| r.result.get("correct") == Some(&Json::Bool(true)));
        let _ = writeln!(
            out,
            "{workload}: {} runs, failed queries {failed}, all correct {correct}",
            runs.len()
        );
        ok &= correct;
        for spec in specs {
            let v = values_of(&values(&runs, &spec.name));
            let s = spread(&v);
            let status = if spec.name == "setup_s" {
                "median-only"
            } else if s <= spec.bound / 3.0 {
                "steady"
            } else if s <= spec.bound {
                "within bound"
            } else {
                ok = false;
                "OVER BOUND"
            };
            let _ = writeln!(
                out,
                "  {:<14} {} {} (bound {}) {status}",
                spec.name,
                describe(&v),
                spec.unit,
                spec.bound
            );
        }
    }
    (out, ok)
}

/// The parent-versus-change report: per workload × end-to-end metric, both
/// sides' medians and quartiles, the change in the median, and the
/// verdict.
pub fn compare(specs: &[MetricSpec], parent: &[SavedRun], change: &[SavedRun]) -> String {
    let mut out = String::new();
    let change = by_workload(change);
    for (workload, p_runs) in by_workload(parent) {
        let Some(c_runs) = change.get(workload) else {
            let _ = writeln!(out, "{workload}: no change runs");
            continue;
        };
        let _ = writeln!(
            out,
            "{workload}: {} parent runs, {} change runs",
            p_runs.len(),
            c_runs.len()
        );
        for spec in specs {
            let (p, c) = (values(&p_runs, &spec.name), values(c_runs, &spec.name));
            if p.is_empty() || c.is_empty() {
                let _ = writeln!(out, "  {:<14} missing", spec.name);
                continue;
            }
            let (pv, cv) = (values_of(&p), values_of(&c));
            let delta = quartiles(&cv)[1] / quartiles(&pv)[1] - 1.0;
            let _ = writeln!(
                out,
                "  {:<14} parent {} | change {} | {:+.1}% | {:?}",
                spec.name,
                describe(&pv),
                describe(&cv),
                delta * 100.0,
                verdict(&p, &c, spec)
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(lower_is_better: bool) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better,
            bound: 0.1,
        }
    }

    fn seeded(values: [f64; 5]) -> Vec<(u64, f64)> {
        (1..).zip(values).collect()
    }

    #[test]
    fn verdicts_follow_the_spread_and_pairing_rules() {
        let parent = seeded([100.0, 101.0, 99.0, 100.0, 100.5]);
        let slower = seeded([120.0, 121.0, 119.0, 120.0, 120.5]);
        let faster = seeded([90.0, 91.0, 89.0, 90.0, 90.5]);
        let noisy = seeded([60.0, 140.0, 100.0, 80.0, 120.0]);
        // Median 10% better, but only 4 of the 5 seed pairs won.
        let mostly_faster = seeded([90.0, 91.0, 89.0, 90.0, 101.0]);
        assert_eq!(
            verdict(&parent, &mostly_faster, &spec(true)),
            Verdict::Unchanged
        );
        assert_eq!(verdict(&parent, &slower, &spec(true)), Verdict::Worse);
        assert_eq!(verdict(&parent, &faster, &spec(true)), Verdict::Better);
        assert_eq!(verdict(&parent, &parent, &spec(true)), Verdict::Unchanged);
        assert_eq!(verdict(&parent, &noisy, &spec(true)), Verdict::Unresolved);
        assert_eq!(verdict(&parent, &slower, &spec(false)), Verdict::Better);
    }

    #[test]
    fn parses_a_saved_run() {
        let text = "run {\"workload\": \"w\", \"seed\": 1, \"trace\": 0}\nx = 1 ms\n\
                    {\"correct\": true, \"attempted\": 2, \"failed\": 0, \
                    \"metrics\": {\"x\": {\"value\": 1.5, \"unit\": \"ms\"}}}\n";
        let run = parse_run(text).unwrap();
        assert_eq!(run.workload, "w");
        assert!(!run.traced);
        assert_eq!(run.value("x"), Some(1.5));
    }
}
