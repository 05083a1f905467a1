//! The batch workloads: one relation, repeated `discover_*` calls.

use crate::check::{check_cover, cover_digest, render};
use crate::kernels;
use crate::stats::{median, percentile, ratio};
use crate::trace::Tracer;
use crate::{data, host, Ctx, Outcome};
use std::time::{Duration, Instant};
use tane_core::{
    discover_approx_fds_with, discover_fds_with, ApproxTaneConfig, LevelEvent, Storage, TaneConfig,
    TaneError, TaneResult,
};
use tane_relation::Relation;

/// A batch workload.
#[derive(Debug, Clone)]
pub struct Batch {
    /// Workload name.
    pub name: &'static str,
    /// The Table 1 profile, before the seeded shuffle.
    pub profile: fn() -> Relation,
    /// `g3` threshold; 0 for exact discovery.
    pub epsilon: f64,
    /// Partition storage.
    pub storage: Storage,
    /// Digest of the cover (see [`cover_digest`]). The shuffle leaves the
    /// dependencies unchanged, so one digest holds for every seed.
    pub pinned_digest: u64,
}

/// The set-up path is repeated at least this many times and for at least
/// [`SETUP_MIN_TIME`]; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// See [`SETUP_REPS`]: short set-ups need many samples for a median that
/// repeats.
const SETUP_MIN_TIME: Duration = Duration::from_millis(1500);
/// Timed discoveries per run, at least. Sets adult's run length (5 × ~7.5 s
/// on 2 cores): with 3, its run medians spread ~9% from host noise alone.
const MIN_REPS: usize = 5;
/// Per-kernel budget of the traced run's direct kernel timings.
const KERNEL_BUDGET: Duration = Duration::from_millis(400);

fn wbc_x256() -> Relation {
    tane_datasets::scaled_wbc(256)
}

/// The batch workloads, in `BENCHMARK.json` order.
pub fn workloads() -> Vec<Batch> {
    vec![
        Batch {
            name: "adult-exact",
            profile: tane_datasets::adult,
            epsilon: 0.0,
            storage: Storage::Memory,
            pinned_digest: 0xd205_4ec2_9454_63b5,
        },
        Batch {
            name: "lymph-approx",
            profile: tane_datasets::lymphography,
            epsilon: 0.05,
            storage: Storage::Memory,
            pinned_digest: 0x4d37_37c2_d35e_bd2d,
        },
        Batch {
            name: "wbc-spill",
            profile: wbc_x256,
            epsilon: 0.0,
            storage: Storage::Disk {
                cache_bytes: 16 << 20,
            },
            pinned_digest: 0x534b_142a_dddb_bbad,
        },
    ]
}

fn discover(
    batch: &Batch,
    relation: &Relation,
    threads: usize,
    on_level: impl FnMut(LevelEvent),
) -> Result<TaneResult, TaneError> {
    let base = TaneConfig {
        storage: batch.storage.clone(),
        threads,
        ..TaneConfig::default()
    };
    if batch.epsilon == 0.0 {
        discover_fds_with(relation, &base, on_level)
    } else {
        let config = ApproxTaneConfig {
            base,
            ..ApproxTaneConfig::new(batch.epsilon)
        };
        discover_approx_fds_with(relation, &config, on_level)
    }
}

/// One set-up: generate, shuffle and encode the input, then parse it the
/// way the program ingests user data. Returns the relation, the set-up
/// seconds and the parse (`relation.encode`) seconds.
fn set_up(batch: &Batch, seed: u64, tracer: &mut Tracer) -> (Relation, f64, f64) {
    crate::idle();
    let t0 = Instant::now();
    let csv = data::to_csv(&data::shuffled(&(batch.profile)(), seed));
    let t1 = Instant::now();
    let parsed = data::from_csv(&csv).expect("generated CSV parses");
    let t2 = Instant::now();
    let s = tracer.record("bench.setup", t0, t2, None);
    tracer.record("datasets.generate", t0, t1, Some(s));
    tracer.record("relation.encode", t1, t2, Some(s));
    (parsed, (t2 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
}

/// One timed discovery, as seen from outside the program.
struct Rep {
    traced: bool,
    wall: f64,
    cpu: f64,
    result: TaneResult,
    level_time: f64,
    first_level: f64,
}

/// Runs `batch` for `ctx.seconds` and measures it.
pub fn run(batch: &Batch, ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx.trace);
    let root_start = Instant::now();

    // Set-up, repeated so `setup_s` is a median. All repetitions run here,
    // in the fresh process a user's set-up would see: after a 1.4 GB adult
    // discovery the same set-up reads ~35% slower, and a median over both
    // states flips between them from run to run.
    let mut setup = Vec::new();
    let mut encode = Vec::new();
    let mut relation = None;
    let setup_start = Instant::now();
    while setup.len() < SETUP_REPS || setup_start.elapsed() < SETUP_MIN_TIME {
        let (parsed, s, e) = set_up(batch, ctx.seed, &mut out.tracer);
        setup.push(s);
        encode.push(e);
        relation = Some(parsed);
    }
    let relation = relation.expect("at least one set-up");

    // Warm-up discovery, off the timed path: its cover is the one checked
    // against the brute-force oracles and the pinned digest.
    let mut problems = Vec::new();
    let expected = match discover(batch, &relation, ctx.threads, |_| {}) {
        Ok(result) => {
            let digest = cover_digest(&render(&relation, &result.fds));
            let t0 = Instant::now();
            if let Err(e) = check_cover(&relation, &result.fds, batch.epsilon, ctx.threads) {
                problems.push(format!("oracle check: {e}"));
            }
            out.tracer.record("bench.check", t0, Instant::now(), None);
            out.cover_digest = Some(digest);
            if digest != batch.pinned_digest {
                problems.push(format!(
                    "cover digest {digest:016x} != pinned {:016x}",
                    batch.pinned_digest
                ));
            }
            problems.is_empty().then_some(digest)
        }
        Err(e) => {
            problems.push(format!("warm-up discovery: {e}"));
            None
        }
    };
    problems.extend(out.spill_problem(&ctx.spill_dir));
    out.op(problems);

    // Timed loop. A traced run alternates untraced and traced discoveries,
    // so the tracing overhead is measured under the same conditions.
    let mut reps: Vec<Rep> = Vec::new();
    let loop_start = Instant::now();
    let min_reps = if ctx.trace { 2 * MIN_REPS } else { MIN_REPS };
    let mut tries = 0;
    while tries < min_reps || loop_start.elapsed().as_secs_f64() < ctx.seconds {
        tries += 1;
        let traced = ctx.trace && tries % 2 == 0;
        let mut events: Vec<(Instant, Duration)> = Vec::new();
        let cpu0 = host::cpu_seconds();
        let t0 = Instant::now();
        let result = if traced {
            discover(batch, &relation, ctx.threads, |ev| {
                events.push((Instant::now(), ev.level_time))
            })
        } else {
            discover(batch, &relation, ctx.threads, |_| {})
        };
        let t1 = Instant::now();
        let cpu = host::cpu_seconds() - cpu0;
        let mut problems: Vec<String> = out.spill_problem(&ctx.spill_dir).into_iter().collect();
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                problems.push(format!("discovery: {e}"));
                out.op(problems);
                continue;
            }
        };
        let digest = cover_digest(&render(&relation, &result.fds));
        if Some(digest) != expected {
            problems.push(format!(
                "cover digest {digest:016x} differs from the checked one"
            ));
        }
        out.op(problems);
        if traced {
            let span = out.tracer.record("core.discover", t0, t1, None);
            for &(at, level_time) in &events {
                out.tracer.record(
                    "core.level",
                    at.checked_sub(level_time).unwrap_or(t0),
                    at,
                    Some(span),
                );
            }
        }
        reps.push(Rep {
            traced,
            wall: (t1 - t0).as_secs_f64(),
            cpu,
            level_time: events.iter().map(|e| e.1.as_secs_f64()).sum(),
            first_level: events.first().map_or(0.0, |e| (e.0 - t0).as_secs_f64()),
            result,
        });
    }

    let timed: Vec<&Rep> = reps.iter().filter(|r| r.traced == ctx.trace).collect();
    let walls: Vec<f64> = timed.iter().map(|r| r.wall).collect();
    let f = &mut out.figures;
    f.set("setup_s", median(&setup));
    f.set("discover_s", median(&walls));
    f.set(
        "cpu_s",
        median(&timed.iter().map(|r| r.cpu).collect::<Vec<_>>()),
    );
    f.set("peak_rss_mb", host::peak_rss_mb());
    f.set("req_per_s", ratio(walls.len() as f64, walls.iter().sum()));
    f.set("req_p50_ms", median(&walls) * 1e3);
    f.set("req_p90_ms", percentile(&walls, 90.0) * 1e3);
    out.samples.push(("setup_s", setup.len()));
    out.samples.push(("discover_s", walls.len()));

    if ctx.trace {
        let untraced: Vec<f64> = reps.iter().filter(|r| !r.traced).map(|r| r.wall).collect();
        let overhead = median(&walls) - median(&untraced);
        f.set("trace.overhead_discover_s", overhead);
        f.set("trace.overhead_req_p50_ms", overhead * 1e3);
        f.set("relation.encode_s", median(&encode));
        f.set(
            "relation.rows_per_s",
            ratio(relation.num_rows() as f64, median(&encode)),
        );
        let med = |g: fn(&Rep) -> f64| median(&timed.iter().map(|r| g(r)).collect::<Vec<_>>());
        f.set("core.level_time_s", med(|r| r.level_time));
        f.set("core.first_level_s", med(|r| r.first_level));
        f.set(
            "pool.busy_s",
            med(|r| r.result.stats.worker_busy.as_secs_f64()),
        );
        f.set(
            "pool.utilization",
            med(|r| {
                let s = &r.result.stats;
                ratio(
                    s.worker_busy.as_secs_f64(),
                    r.wall * s.parallel_workers.max(1) as f64,
                )
            }),
        );
        f.set(
            "pool.spin_s",
            med(|r| r.result.stats.worker_spin.as_secs_f64()),
        );
        f.set("pool.steals", med(|r| r.result.stats.worker_steals as f64));
        f.set("pool.parks", med(|r| r.result.stats.worker_parks as f64));
        f.set(
            "store.fetch_stall_s",
            med(|r| r.result.stats.fetch_stall.as_secs_f64()),
        );
        if let Some(last) = timed.last() {
            set_search_counts(f, &last.result);
        }
        let k = kernels::measure(&relation, &mut out.tracer, KERNEL_BUDGET);
        f.set("partition.level1_s", k.level1_s);
        f.set("partition.product_ns_per_elem", k.product_ns_per_elem);
        f.set("partition.g3_ns_per_elem", k.g3_ns_per_elem);
    }
    out.tracer
        .record("bench.run", root_start, Instant::now(), None);
    out
}

/// The search's own counts, which repeat exactly at a fixed thread count.
pub fn set_search_counts(f: &mut crate::metrics::Figures, result: &TaneResult) {
    let s = &result.stats;
    f.set("partition.products", s.products as f64);
    f.set(
        "partition.peak_resident_mb",
        s.peak_resident_bytes as f64 / 1e6,
    );
    f.set("core.g3_exact", s.g3_exact_computations as f64);
    f.set(
        "core.g3_bound_ratio",
        ratio(s.g3_decided_by_bounds as f64, s.validity_tests as f64),
    );
    f.set("store.disk_reads", s.disk_reads as f64);
    f.set("store.disk_mb_read", s.disk_bytes_read as f64 / 1e6);
    f.set("store.disk_mb_written", s.disk_bytes_written as f64 / 1e6);
    f.set("store.evictions", s.store_evictions as f64);
    f.set("store.pins", s.store_pins as f64);
    f.set("store.oversized", s.oversized_resident as f64);
    f.set(
        "store.hit_ratio",
        1.0 - ratio(s.disk_reads as f64, 2.0 * s.products as f64),
    );
    f.set("core.levels", s.levels as f64);
    f.set("core.sets_total", s.sets_total as f64);
    f.set("core.validity_tests", s.validity_tests as f64);
    f.set("core.keys_found", s.keys_found as f64);
    f.set(
        "core.useful_ratio",
        ratio(result.fds.len() as f64, s.validity_tests as f64),
    );
    f.set("pool.grains", s.parallel_grains as f64);
}
