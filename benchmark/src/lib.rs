//! The repository benchmark of the intersection-join engine.
//!
//! Each workload is a seeded pool of scenario databases, imported once into
//! one [`ij_engine::Workspace`] and queried in a closed loop by one client
//! through `evaluate_with_stats`; every answer is checked against a
//! `SegtreeBaseline` reference.  The untraced run reports the end-to-end
//! metrics, the traced run times the calls into each layer's public
//! functions and reports the per-layer metrics, and the smoke run checks
//! every workload at tiny sizes against the naive oracle too.  `README.md`
//! in this directory lists the workloads, metrics and commands.

pub mod compare;
pub mod json;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;

/// The path of a file in the benchmark's directory.
pub fn bench_path(relative: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative)
}
