//! The metric tables: every name the benchmark prints, with its unit and
//! direction. `BENCHMARK.json` declares the same lists (a self-test checks
//! they agree), and a run prints every entry of the table its mode selects.

use crate::report::Metric;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Whether a higher value is better.
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Decl {
    Decl {
        name,
        unit,
        higher_is_better: true,
    }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Decl] = &[
    lower("setup_s", "s"),
    lower("discover_s", "s"),
    lower("cpu_s", "s"),
    lower("peak_rss_mb", "MB"),
    higher("req_per_s", "1/s"),
    lower("req_p50_ms", "ms"),
    lower("req_p90_ms", "ms"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[Decl] = &[
    lower("relation.encode_s", "s"),
    higher("relation.rows_per_s", "rows/s"),
    lower("partition.level1_s", "s"),
    lower("partition.product_ns_per_elem", "ns/elem"),
    lower("partition.products", "count"),
    lower("partition.peak_resident_mb", "MB"),
    lower("partition.g3_ns_per_elem", "ns/elem"),
    lower("core.g3_exact", "count"),
    higher("core.g3_bound_ratio", "ratio"),
    lower("store.disk_reads", "count"),
    lower("store.disk_mb_read", "MB"),
    lower("store.disk_mb_written", "MB"),
    lower("store.evictions", "count"),
    lower("store.pins", "count"),
    lower("store.oversized", "count"),
    lower("store.fetch_stall_s", "s"),
    higher("store.hit_ratio", "ratio"),
    lower("core.levels", "count"),
    lower("core.sets_total", "count"),
    lower("core.validity_tests", "count"),
    higher("core.keys_found", "count"),
    higher("core.useful_ratio", "ratio"),
    lower("core.level_time_s", "s"),
    lower("core.first_level_s", "s"),
    lower("pool.busy_s", "s"),
    higher("pool.utilization", "ratio"),
    lower("pool.grains", "count"),
    lower("pool.steals", "count"),
    lower("pool.parks", "count"),
    lower("pool.spin_s", "s"),
    lower("delta.patch_p50_ms", "ms"),
    higher("delta.supplied_ratio", "ratio"),
    lower("server.hit_p50_ms", "ms"),
    lower("server.miss_p50_ms", "ms"),
    lower("server.topk_p50_ms", "ms"),
    lower("server.stream_first_line_ms", "ms"),
    higher("server.cache_hit_ratio", "ratio"),
    lower("server.evicted_stale", "count"),
    lower("server.non_2xx", "count"),
    higher("server.conn_reused", "count"),
    lower("trace.overhead_discover_s", "s"),
    lower("trace.overhead_req_p50_ms", "ms"),
];

/// Values a workload measured, by name.
#[derive(Debug, Default, Clone)]
pub struct Figures(Vec<(&'static str, f64)>);

impl Figures {
    /// Sets `name` (must be declared in one of the tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "undeclared metric `{name}`"
        );
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some((_, v)) => *v = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every metric of `table`, in table order. A layer the workload does
    /// not run reads 0.
    pub fn emit(&self, table: &[Decl]) -> Vec<Metric> {
        table
            .iter()
            .map(|d| Metric::new(d.name, self.get(d.name).unwrap_or(0.0), d.unit))
            .collect()
    }
}
