//! End-to-end and per-layer benchmark of the TANE workspace.
//!
//! One binary generates each workload from `--seed`, runs it for
//! `--seconds`, checks every output, and prints the metrics of
//! [`metrics::END_TO_END`] (or, with `--trace 1`, [`metrics::PER_LAYER`])
//! as the last line of standard output. See `README.md` beside this crate
//! for the workloads and what each metric should move.

pub mod batch;
pub mod check;
pub mod data;
pub mod host;
pub mod http;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::{Path, PathBuf};
use trace::Tracer;

/// Settings shared by every workload of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Search threads (batch) or server workers (`serve-churn`).
    pub threads: usize,
    /// Where the program spills partitions (its `TMPDIR`).
    pub spill_dir: PathBuf,
}

/// What one workload run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Metric values by name.
    pub figures: metrics::Figures,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (each counted once, whatever went wrong).
    pub failed: u64,
    /// What went wrong, first few.
    pub failures: Vec<String>,
    /// Samples behind each median or percentile.
    pub samples: Vec<(&'static str, usize)>,
    /// Digest of the checked cover (batch workloads).
    pub cover_digest: Option<u64>,
    /// Bytes of spill files a discovery left behind.
    pub leftover_spill_bytes: u64,
    /// Spans recorded at the layer boundaries.
    pub tracer: Tracer,
}

/// Sleeps briefly before a set-up repetition, so each one starts from an
/// idle process as a user's would. Back-to-back repetitions on a shared
/// host otherwise read a warm core in one run and a contended one in the
/// next, with medians 50% apart (measured on a 2-vCPU Xeon VM).
pub fn idle() {
    std::thread::sleep(std::time::Duration::from_millis(2));
}

/// Failures kept verbatim; the rest are only counted.
const KEPT_FAILURES: usize = 20;

impl Outcome {
    /// An empty outcome; `trace` enables span recording.
    pub fn new(trace: bool) -> Outcome {
        Outcome {
            figures: metrics::Figures::default(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            samples: Vec::new(),
            cover_digest: None,
            leftover_spill_bytes: 0,
            tracer: Tracer::new(trace),
        }
    }

    /// Accounts one attempted operation; it failed if `problems` is
    /// non-empty.
    pub fn op(&mut self, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            let room = KEPT_FAILURES.saturating_sub(self.failures.len());
            self.failures.extend(problems.into_iter().take(room));
        }
    }

    /// Checks `dir` for spill directories (`tane-partitions-*`) a finished
    /// discovery left behind. Leftovers are measured, reported and removed
    /// so the next discovery is judged on its own.
    pub fn spill_problem(&mut self, dir: &Path) -> Option<String> {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return None;
        };
        let mut found = 0;
        let mut bytes = 0;
        for entry in entries.flatten() {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with("tane-partitions-")
            {
                found += 1;
                bytes += tree_bytes(&entry.path());
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        self.leftover_spill_bytes += bytes;
        (found > 0).then(|| format!("{found} spill directories left behind ({bytes} bytes)"))
    }
}

fn tree_bytes(path: &Path) -> u64 {
    match std::fs::symlink_metadata(path) {
        Ok(m) if m.is_dir() => std::fs::read_dir(path)
            .map(|es| es.flatten().map(|e| tree_bytes(&e.path())).sum())
            .unwrap_or(0),
        Ok(m) => m.len(),
        Err(_) => 0,
    }
}
