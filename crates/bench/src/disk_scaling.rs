//! Disk-mode thread-scaling experiment (beyond the paper): the same
//! disk-backed search at 1, 2, 4, and 8 workers, every worker fetching its
//! parents concurrently from the shared segment store (the DESIGN §13
//! engine). Two claims are under test:
//!
//! 1. The answer and the I/O are identical down every column — `n`,
//!    `products`, disk reads/writes and bytes, and every other counter
//!    `TaneStats::counters` marks thread-invariant are a pure function of
//!    the search, not of the worker count (checked unconditionally, on any
//!    machine).
//! 2. Once real parallelism is available, 8 workers beat 1 on wall time:
//!    concurrent segment reads and refinements pay off
//!    ([`assert_disk_scaling`], gated like the memory scaling assertion on
//!    machines with at least 4 cores).

use crate::report::DiskScalingRow;
use crate::runners::format_row;
use crate::scaling::{workload, SCALING_CACHE_BYTES};
use crate::Scale;
use tane_core::{discover_fds, Storage, TaneConfig};
use tane_util::Stopwatch;

/// Worker counts of the grid (same as the memory scaling experiment).
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Runs and prints the thread grid; returns the structured rows.
pub fn run(scale: Scale) -> Vec<DiskScalingRow> {
    let relation = workload(scale);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "Disk thread scaling: {} rows x {} attributes, max LHS 3, {} MiB cache, workers {:?}, {} core(s)",
        relation.num_rows(),
        relation.num_attrs(),
        SCALING_CACHE_BYTES >> 20,
        THREADS,
        cores
    );
    let widths = [7usize, 6, 9, 9, 8, 8, 12, 12, 9, 6];
    println!(
        "{}",
        format_row(
            &widths,
            &[
                "Threads", "N", "Time(s)", "Stall(s)", "Reads", "Writes", "Read(B)", "Write(B)",
                "Evicts", "Pins"
            ]
            .map(String::from)
        )
    );

    let mut rows = Vec::new();
    let mut reference = None;
    for &threads in &THREADS {
        let config = TaneConfig {
            storage: Storage::Disk {
                cache_bytes: SCALING_CACHE_BYTES,
            },
            threads,
            ..TaneConfig::default()
        }
        .with_max_lhs(3);
        let sw = Stopwatch::start();
        let result = discover_fds(&relation, &config).expect("disk-scaling run failed");
        let row = DiskScalingRow {
            threads,
            cores,
            n: result.fds.len(),
            secs: sw.elapsed_secs(),
            stats: result.stats,
        };
        let s = &row.stats;
        // The determinism contract, checked on every machine: the worker
        // count may not change the answer, the I/O the search performs or
        // any other thread-invariant counter.
        let invariant = (row.n, s.invariant_counters());
        match &reference {
            None => reference = Some(invariant),
            Some(r) => assert_eq!(
                r, &invariant,
                "threads={threads} changed the output or the I/O"
            ),
        }
        println!(
            "{}",
            format_row(
                &widths,
                &[
                    row.threads.to_string(),
                    row.n.to_string(),
                    format!("{:.3}", row.secs),
                    format!("{:.3}", s.fetch_stall.as_secs_f64()),
                    s.disk_reads.to_string(),
                    s.disk_writes.to_string(),
                    s.disk_bytes_read.to_string(),
                    s.disk_bytes_written.to_string(),
                    s.store_evictions.to_string(),
                    s.store_pins.to_string(),
                ]
            )
        );
        rows.push(row);
    }
    println!();
    rows
}

/// `--assert-scaling` for the disk grid: 8 workers must finish before 1.
/// Like the memory gate, the comparison only means something with real
/// parallelism, so it skips loudly below 4 cores.
pub fn assert_disk_scaling(rows: &[DiskScalingRow]) -> Result<(), String> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!(
            "assert-disk-scaling: SKIPPED — only {cores} core(s) available; \
             the 8-vs-1-thread wall-time comparison needs at least 4"
        );
        return Ok(());
    }
    let wall = |threads: usize| {
        rows.iter()
            .find(|r| r.threads == threads)
            .map(|r| r.secs)
            .ok_or_else(|| format!("assert-disk-scaling: no row at {threads} threads"))
    };
    let (t1, t8) = (wall(1)?, wall(8)?);
    if t8 >= t1 {
        return Err(format!(
            "assert-disk-scaling: FAILED — disk backend wall time at 8 threads \
             ({t8:.3}s) is not below 1 thread ({t1:.3}s); concurrent segment \
             reads are not paying off"
        ));
    }
    eprintln!("assert-disk-scaling: ok — disk 8-thread {t8:.3}s < 1-thread {t1:.3}s");
    Ok(())
}
