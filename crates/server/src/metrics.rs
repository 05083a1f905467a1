//! Service counters behind `/metrics`.
//!
//! Everything is a relaxed atomic or a short-held mutex: metrics recording
//! sits on the worker hot path and must never serialize the pool. The
//! search aggregates are one atomic per entry of `TaneStats::counters`,
//! plus the per-level `TaneStats::level_times` summed across jobs so
//! `/metrics` shows where lattice time actually goes, level by level.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tane_core::{CounterValue, TaneStats, COUNTERS};
use tane_util::Json;

use crate::cache::CacheStats;

/// Aggregated timings for one lattice level across all jobs.
#[derive(Debug, Default, Clone, Copy)]
struct LevelAgg {
    runs: u64,
    nanos: u64,
}

/// All counters of the service.
pub struct Metrics {
    start: Instant,
    /// Requests *parsed* (any endpoint) — one keep-alive connection can
    /// contribute many; a connection that never sends a byte contributes
    /// none.
    pub requests_total: AtomicU64,
    /// Connections admitted past the connection cap.
    pub connections_total: AtomicU64,
    /// Connections currently being served (the semaphore's level).
    pub connections_active: AtomicUsize,
    /// Connections refused with 503 at the cap.
    pub connections_shed: AtomicU64,
    /// Requests served on an already-used connection — every one of these
    /// is a TCP handshake keep-alive saved the client.
    pub connections_reused: AtomicU64,
    /// Largest number of requests any single connection has carried.
    pub requests_per_conn_max: AtomicU64,
    /// Discovery jobs finished successfully.
    pub jobs_completed: AtomicU64,
    /// Discovery jobs that errored (disk store failures).
    pub jobs_failed: AtomicU64,
    /// Discovery requests refused with 429 (queue full).
    pub jobs_rejected: AtomicU64,
    /// Workers currently executing a job.
    pub workers_busy: AtomicUsize,
    /// Streaming `/v1/discover` responses started (live or replay).
    pub streams_total: AtomicU64,
    /// Level objects delivered across all streams.
    pub levels_streamed: AtomicU64,
    /// NDJSON payload bytes delivered across all streams (chunk contents,
    /// not HTTP framing).
    pub stream_bytes: AtomicU64,
    /// Nanoseconds from request arrival to the first level chunk, summed
    /// over streams that delivered at least one level (divide by
    /// `first_level_count` for the mean `/metrics` reports).
    first_level_nanos: AtomicU64,
    first_level_count: AtomicU64,
    workers_total: usize,
    level_times: Mutex<Vec<LevelAgg>>,
    /// `TaneStats::counters` aggregated over every finished search, in
    /// table order (durations in nanoseconds).
    search: [AtomicU64; COUNTERS],
    topk_searches: AtomicU64,
}

impl Metrics {
    /// Fresh counters for a pool of `workers_total` workers.
    pub fn new(workers_total: usize) -> Metrics {
        Metrics {
            start: Instant::now(),
            requests_total: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            connections_active: AtomicUsize::new(0),
            connections_shed: AtomicU64::new(0),
            connections_reused: AtomicU64::new(0),
            requests_per_conn_max: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            workers_busy: AtomicUsize::new(0),
            streams_total: AtomicU64::new(0),
            levels_streamed: AtomicU64::new(0),
            stream_bytes: AtomicU64::new(0),
            first_level_nanos: AtomicU64::new(0),
            first_level_count: AtomicU64::new(0),
            workers_total,
            level_times: Mutex::new(Vec::new()),
            search: [const { AtomicU64::new(0) }; COUNTERS],
            topk_searches: AtomicU64::new(0),
        }
    }

    /// Folds one finished search into the aggregates.
    pub fn record_search(&self, stats: &TaneStats) {
        for (agg, c) in self.search.iter().zip(stats.counters()) {
            match c.value {
                CounterValue::Peak(v) => agg.fetch_max(v, Ordering::Relaxed),
                v => agg.fetch_add(v.raw(), Ordering::Relaxed),
            };
        }
        let mut levels = self.level_times.lock().unwrap_or_else(|e| e.into_inner());
        if levels.len() < stats.level_times.len() {
            levels.resize(stats.level_times.len(), LevelAgg::default());
        }
        for (agg, t) in levels.iter_mut().zip(&stats.level_times) {
            agg.runs += 1;
            agg.nanos += t.as_nanos() as u64;
        }
    }

    /// Counts one finished *ranked* search (its counters go through
    /// [`record_search`](Self::record_search) as for any other search).
    pub fn record_topk(&self) {
        self.topk_searches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the end of one connection that served `served` requests.
    pub fn record_connection_end(&self, served: u64) {
        self.requests_per_conn_max
            .fetch_max(served, Ordering::Relaxed);
    }

    /// Records the latency from request arrival to the first streamed
    /// level chunk of one `/v1/discover` stream.
    pub fn record_first_level_latency(&self, latency: std::time::Duration) {
        self.first_level_nanos
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
        self.first_level_count.fetch_add(1, Ordering::Relaxed);
    }

    /// The `/metrics` document. Queue and cache state is owned elsewhere
    /// and passed in: `(depth, capacity)` and a [`CacheStats`] snapshot.
    pub fn render(&self, queue: (usize, usize), cache: CacheStats) -> Json {
        let n = |v: u64| Json::Num(v as f64);
        let load = |a: &AtomicU64| n(a.load(Ordering::Relaxed));
        let load_usize = |a: &AtomicUsize| Json::Num(a.load(Ordering::Relaxed) as f64);
        let levels: Vec<Json> = {
            let level_times = self.level_times.lock().unwrap_or_else(|e| e.into_inner());
            level_times
                .iter()
                .enumerate()
                .map(|(i, agg)| {
                    Json::obj([
                        ("level", Json::Num((i + 1) as f64)),
                        ("runs", n(agg.runs)),
                        ("total_secs", Json::Num(agg.nanos as f64 / 1e9)),
                    ])
                })
                .collect()
        };
        let mut search = vec![("level_times".to_string(), Json::Arr(levels))];
        let counters = TaneStats::default().counters();
        search.extend(counters.iter().zip(&self.search).map(|(c, agg)| {
            let value = c.value.with_raw(agg.load(Ordering::Relaxed));
            (c.key(), value.to_json())
        }));
        search.push(("topk_searches".into(), load(&self.topk_searches)));
        let first_level = match self.first_level_count.load(Ordering::Relaxed) {
            0 => 0.0,
            count => self.first_level_nanos.load(Ordering::Relaxed) as f64 / count as f64 / 1e9,
        };
        Json::obj([
            ("uptime_secs", Json::Num(self.start.elapsed().as_secs_f64())),
            ("requests_total", load(&self.requests_total)),
            (
                "connections",
                Json::obj([
                    ("accepted", load(&self.connections_total)),
                    ("active", load_usize(&self.connections_active)),
                    ("shed", load(&self.connections_shed)),
                    ("reused", load(&self.connections_reused)),
                    ("max_requests_per_conn", load(&self.requests_per_conn_max)),
                ]),
            ),
            (
                "queue",
                Json::obj([
                    ("depth", Json::Num(queue.0 as f64)),
                    ("capacity", Json::Num(queue.1 as f64)),
                    ("rejected", load(&self.jobs_rejected)),
                ]),
            ),
            (
                "workers",
                Json::obj([
                    ("total", Json::Num(self.workers_total as f64)),
                    ("busy", load_usize(&self.workers_busy)),
                ]),
            ),
            (
                "jobs",
                Json::obj([
                    ("completed", load(&self.jobs_completed)),
                    ("failed", load(&self.jobs_failed)),
                ]),
            ),
            (
                "cache",
                Json::obj([
                    ("hits", n(cache.hits)),
                    ("coalesced", n(cache.coalesced)),
                    ("misses", n(cache.misses)),
                    ("entries", Json::Num(cache.entries as f64)),
                    ("evictions", n(cache.evictions)),
                    (
                        "evicted_compute_secs",
                        Json::Num(cache.evicted_compute_secs),
                    ),
                    ("evicted_stale", n(cache.evicted_stale)),
                ]),
            ),
            ("search", Json::Obj(search)),
            (
                "stream",
                Json::obj([
                    ("streams", load(&self.streams_total)),
                    ("levels_streamed", load(&self.levels_streamed)),
                    ("stream_bytes", load(&self.stream_bytes)),
                    ("first_level_latency_secs", Json::Num(first_level)),
                ]),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The number at a dotted path of the `/metrics` document.
    fn at(doc: &Json, path: &str) -> f64 {
        let value = path.split('.').try_fold(doc, |j, key| j.get(key));
        value
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{path}"))
    }

    fn assert_near(doc: &Json, path: &str, want: f64) {
        let got = at(doc, path);
        assert!((got - want).abs() < 1e-9, "{path}: {got} != {want}");
    }

    #[test]
    fn render_shape_and_aggregation() {
        let m = Metrics::new(4);
        m.requests_total.fetch_add(3, Ordering::Relaxed);
        m.jobs_completed.fetch_add(2, Ordering::Relaxed);
        let mut stats = TaneStats {
            level_times: vec![Duration::from_millis(10), Duration::from_millis(5)],
            products: 40,
            disk_bytes_written: 1024,
            store_evictions: 7,
            store_pins: 9,
            oversized_resident: 1,
            parallel_workers: 2,
            parallel_grains: 12,
            worker_steals: 3,
            worker_parks: 5,
            worker_spin: Duration::from_millis(2),
            worker_busy: Duration::from_millis(40),
            topk_improvements: 6,
            ..TaneStats::default()
        };
        m.record_search(&stats);
        m.record_topk();
        stats.level_times = vec![Duration::from_millis(10)];
        stats.parallel_workers = 4;
        m.record_search(&stats);

        m.connections_total.fetch_add(2, Ordering::Relaxed);
        m.connections_reused.fetch_add(1, Ordering::Relaxed);
        m.record_connection_end(9);
        m.record_connection_end(4);

        let cache = CacheStats {
            hits: 5,
            coalesced: 1,
            misses: 7,
            entries: 3,
            evictions: 2,
            evicted_compute_secs: 0.25,
            evicted_stale: 4,
        };
        let doc = m.render((2, 64), cache);
        for (path, want) in [
            ("requests_total", 3.0),
            ("queue.depth", 2.0),
            ("workers.total", 4.0),
            ("cache.hits", 5.0),
            ("cache.evictions", 2.0),
            ("cache.evicted_compute_secs", 0.25),
            ("cache.evicted_stale", 4.0),
            ("connections.accepted", 2.0),
            ("connections.reused", 1.0),
            ("connections.shed", 0.0),
            ("connections.max_requests_per_conn", 9.0),
            // Counts and times sum over the two searches...
            ("search.disk_bytes_written", 2048.0),
            ("search.parallel_grains", 24.0),
            ("search.products", 80.0),
            ("search.store_evictions", 14.0),
            ("search.store_pins", 18.0),
            ("search.oversized_resident", 2.0),
            ("search.worker_steals", 6.0),
            ("search.worker_parks", 10.0),
            ("search.worker_spin_secs", 0.004),
            ("search.worker_busy_secs", 0.080),
            ("search.fetch_stall_secs", 0.0),
            ("search.topk_improvements", 12.0),
            ("search.topk_searches", 1.0),
            // ...peaks by maximum.
            ("search.parallel_workers", 4.0),
            ("stream.levels_streamed", 0.0),
            ("stream.first_level_latency_secs", 0.0),
        ] {
            assert_near(&doc, path, want);
        }
        // Every table counter is reported, under its discover-stats key.
        for c in TaneStats::default().counters() {
            at(&doc, &format!("search.{}", c.key()));
        }
        let levels = doc.get("search").unwrap().get("level_times").unwrap();
        let levels = levels.as_array().unwrap();
        assert_eq!(levels.len(), 2);
        assert_near(&levels[0], "runs", 2.0);
        assert_near(&levels[1], "runs", 1.0);
        assert_near(&levels[0], "total_secs", 0.020);
        // Valid JSON end to end.
        assert!(Json::parse(&doc.render()).is_ok());
    }

    #[test]
    fn first_level_latency_reports_the_mean() {
        let m = Metrics::new(1);
        m.record_first_level_latency(Duration::from_millis(10));
        m.record_first_level_latency(Duration::from_millis(30));
        m.levels_streamed.fetch_add(7, Ordering::Relaxed);
        m.stream_bytes.fetch_add(4096, Ordering::Relaxed);
        let doc = m.render(
            (0, 1),
            CacheStats {
                hits: 0,
                coalesced: 0,
                misses: 0,
                entries: 0,
                evictions: 0,
                evicted_compute_secs: 0.0,
                evicted_stale: 0,
            },
        );
        assert_near(&doc, "stream.levels_streamed", 7.0);
        assert_near(&doc, "stream.stream_bytes", 4096.0);
        assert_near(&doc, "stream.first_level_latency_secs", 0.020);
    }
}
