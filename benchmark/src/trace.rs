//! In-memory spans for the traced run.  Every span records its name, the
//! query it belongs to, its parent span and its start and end; spans are
//! kept in memory and written out once, when the run ends.

use crate::json::quote;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// The query (request) this span belongs to.
    pub query: u64,
    /// The layer boundary, e.g. `reduction.forward`.
    pub name: &'static str,
    /// Index of the parent span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created (`0` while open).
    pub end_ns: u64,
}

/// The span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index (pass it to [`Tracer::end`], and
    /// as `parent` to its children).
    pub fn begin(&mut self, query: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            query,
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `index`.
    pub fn end(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        query: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let index = self.begin(query, name, parent);
        let out = f();
        self.end(index);
        out
    }

    /// Each span's self time: its duration minus the part of its interval
    /// that its child spans cover (overlapping children counted once).
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut covered: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                covered.sort_unstable();
                let mut busy = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in covered {
                    let a = a.max(reach);
                    if b > a {
                        busy += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(busy)
            })
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times_ns()) {
            *out.entry(s.name).or_insert(0) += t;
        }
        out
    }

    /// Total wall time per span name (self time plus children), in
    /// nanoseconds.
    pub fn total_time_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_times = self.self_times_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self_times).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{i},\"query\":{},\"name\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.query,
                quote(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let spans = [
            (None, 0, 100),
            (Some(0), 10, 30),
            (Some(0), 20, 50),
            (Some(0), 90, 120),
            (Some(1), 12, 14),
        ];
        for (parent, start_ns, end_ns) in spans {
            t.spans.push(Span {
                query: 1,
                name: "x",
                parent,
                start_ns,
                end_ns,
            });
        }
        // Children cover [10, 50) and [90, 100): 50 of the root's 100 ns.
        assert_eq!(t.self_times_ns(), vec![50, 18, 30, 30, 2]);
    }
}
