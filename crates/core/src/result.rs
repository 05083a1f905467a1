//! Results and statistics of a TANE run.

use std::fmt;
use std::time::Duration;
use tane_partition::StoreError;
use tane_relation::Schema;
use tane_util::{Fd, Json};

/// Errors a TANE run can produce. The search itself is total; failures come
/// from the partition store (disk variant) only.
#[derive(Debug)]
pub enum TaneError {
    /// Partition store failure (I/O, corruption).
    Store(StoreError),
}

impl fmt::Display for TaneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaneError::Store(e) => write!(f, "partition store failure: {e}"),
        }
    }
}

impl std::error::Error for TaneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaneError::Store(e) => Some(e),
        }
    }
}

impl From<StoreError> for TaneError {
    fn from(e: StoreError) -> Self {
        TaneError::Store(e)
    }
}

/// One completed lattice level, as observed by the streaming variants
/// [`discover_fds_with`](crate::search::discover_fds_with) /
/// [`discover_approx_fds_with`](crate::search::discover_approx_fds_with).
///
/// The levelwise order makes every dependency in `new_minimal_fds` final
/// the moment the event fires: no deeper level can add, remove, or shadow
/// it. Consumers (the service's NDJSON stream, `tane discover --stream`)
/// may therefore deliver each event immediately.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelEvent {
    /// The lattice level `ℓ` that just finished (1-based; dependencies in
    /// this event have LHS size `ℓ − 1`).
    pub level: usize,
    /// The minimal dependencies first proven at this level, canonical
    /// order within the level.
    pub new_minimal_fds: Vec<Fd>,
    /// Time from the start of the level to the event: validity tests,
    /// pruning and the superkey-closure recovery. The event fires *before*
    /// the next level's partitions are computed, so this is not the same
    /// quantity as [`TaneStats::level_times`], which also charges each
    /// level for producing its successor.
    pub level_time: Duration,
    /// Partition bytes resident in the store when the level finished.
    pub partitions_bytes: usize,
}

/// Search statistics, matching the quantities of the paper's analysis
/// (Section 6): `s` = total sets processed, `s_max` = largest level, `k` =
/// keys found, `v` = validity tests.
///
/// [`counters`](Self::counters) is the one list of the scalar fields:
/// the service's `stats` object and `/v1/metrics`, `tane --stats` and the
/// `repro` rows all iterate it, so a new scalar field is reported
/// everywhere by adding its entry there.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaneStats {
    /// Number of lattice levels processed (deepest `ℓ` with `L_ℓ ≠ ∅`).
    pub levels: usize,
    /// Sets processed per level (`|L_ℓ|` before pruning), index 0 = level 1.
    pub sets_per_level: Vec<usize>,
    /// Total sets processed, the paper's `s`.
    pub sets_total: usize,
    /// Largest level size, the paper's `s_max`.
    pub sets_max_level: usize,
    /// Validity tests performed, the paper's `v`.
    pub validity_tests: usize,
    /// Exact `g3` computations (approximate mode only).
    pub g3_exact_computations: usize,
    /// Validity tests decided by the quick `g3` bounds alone
    /// (approximate mode with `use_g3_bounds`).
    pub g3_decided_by_bounds: usize,
    /// Keys found and pruned, the paper's `k`.
    pub keys_found: usize,
    /// Partition products computed (one per generated lattice node above
    /// level 1).
    pub products: usize,
    /// Disk reads of partitions (disk storage only).
    pub disk_reads: u64,
    /// Disk writes of partitions (disk storage only).
    pub disk_writes: u64,
    /// Bytes read back from spilled partitions (disk storage only).
    pub disk_bytes_read: u64,
    /// Bytes spilled to disk (disk storage only).
    pub disk_bytes_written: u64,
    /// Peak bytes of partitions resident in memory (approximate).
    pub peak_resident_bytes: usize,
    /// Partitions evicted from the disk store's resident cache
    /// (disk storage only).
    pub store_evictions: u64,
    /// Partitions pinned resident by a read phase — each pin is one cold
    /// fetch that stays cached until the level's products are gathered
    /// (disk storage only; see DESIGN §13).
    pub store_pins: u64,
    /// Eviction sweeps that ended with the resident set still over the
    /// cache budget because everything left was pinned or active — e.g. a
    /// single partition larger than the whole budget (disk storage only).
    pub oversized_resident: u64,
    /// Workers in the search's persistent pool (the configured `threads`;
    /// `1` means the serial, paper-faithful runtime).
    pub parallel_workers: usize,
    /// Work grains executed by the pool across the run — products,
    /// singleton constructions, and batched `g3` tests all count. `0` when
    /// every batch stayed under the parallel work threshold.
    pub parallel_grains: u64,
    /// Successful steals: work batches a worker took from another worker's
    /// deque after draining its own. Scheduling instrumentation only —
    /// steal order can never change a result (see DESIGN §9).
    pub worker_steals: u64,
    /// Times pool workers parked on the dispatch condvar instead of
    /// spinning while no work was available.
    pub worker_parks: u64,
    /// Time workers spent probing other deques for work (bounded: after
    /// one full failed scan a worker parks). High spin relative to busy
    /// means grains are too small for the level shape.
    pub worker_spin: Duration,
    /// Total time spent executing batch work — level-1 construction,
    /// products (their parent fetches included) and batched `g3` — summed
    /// across workers (can exceed `elapsed` when several run at once). The
    /// serial (`threads == 1`) and under-the-gate inline paths record
    /// their batches here too, so utilization is comparable against any
    /// worker count.
    pub worker_busy: Duration,
    /// Time products spent fetching their parent partition from the disk
    /// store, summed over the workers that fetched (the caller alone on
    /// the inline path); a part of `worker_busy`, not an addition to it.
    /// Always 0 on memory storage, where a fetch is a map lookup.
    pub fetch_stall: Duration,
    /// Ranked mode only: candidates skipped *before* their exact `g3` was
    /// computed, because the cheap lower bound `e(X\{A}) − e(X)` could not
    /// beat the current k-th best (DESIGN §12). Always 0 outside top-k.
    pub topk_bound_pruned: u64,
    /// Ranked mode only: candidates discarded as redundant — a recorded
    /// generalization `V ⊂ X` scores at least as well for the same rhs.
    pub topk_dominated: u64,
    /// Ranked mode only: heap insertions (the stream's improvement count).
    pub topk_improvements: u64,
    /// Ranked mode only: the lattice level after which the bound argument
    /// proved no remaining level could enter the heap, when the walk
    /// stopped early for that reason.
    pub topk_early_exit_level: Option<usize>,
    /// Wall-clock time spent per lattice level (validity tests, pruning,
    /// and the products generating the next level), index 0 = level 1.
    /// Always the same length as `sets_per_level`.
    pub level_times: Vec<Duration>,
    /// Wall-clock time of the search.
    pub elapsed: Duration,
}

/// Number of entries in [`TaneStats::counters`].
pub const COUNTERS: usize = 27;

/// A counter's value, by how it aggregates over several searches.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CounterValue {
    /// An event count; sums.
    Count(u64),
    /// A high-water mark or a configured size; aggregates by maximum.
    Peak(u64),
    /// A duration; sums, and reads in seconds under `<name>_secs`.
    Time(Duration),
}

impl CounterValue {
    /// The value as one integer: the count, or the duration in nanoseconds.
    pub fn raw(self) -> u64 {
        match self {
            CounterValue::Count(v) | CounterValue::Peak(v) => v,
            CounterValue::Time(d) => d.as_nanos() as u64,
        }
    }

    /// The same kind of value holding `raw` (see [`raw`](Self::raw)).
    pub fn with_raw(self, raw: u64) -> CounterValue {
        match self {
            CounterValue::Count(_) => CounterValue::Count(raw),
            CounterValue::Peak(_) => CounterValue::Peak(raw),
            CounterValue::Time(_) => CounterValue::Time(Duration::from_nanos(raw)),
        }
    }

    /// The value as a JSON number (a duration in seconds).
    pub fn to_json(self) -> Json {
        match self {
            CounterValue::Count(v) | CounterValue::Peak(v) => Json::Num(v as f64),
            CounterValue::Time(d) => Json::Num(d.as_secs_f64()),
        }
    }
}

impl fmt::Display for CounterValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterValue::Count(v) | CounterValue::Peak(v) => write!(f, "{v}"),
            CounterValue::Time(d) => write!(f, "{:.3}s", d.as_secs_f64()),
        }
    }
}

/// One scalar statistic of a search: an entry of [`TaneStats::counters`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Counter {
    /// The [`TaneStats`] field name.
    pub name: &'static str,
    /// The field's value.
    pub value: CounterValue,
    /// Reported for ranked (top-k) searches only; always 0 otherwise.
    pub ranked_only: bool,
    /// Identical at every thread count, on either storage backend, in
    /// exact and approximate mode (checked by `parallel_determinism`).
    pub thread_invariant: bool,
}

impl Counter {
    /// The counter's key in JSON documents: the field name, with `_secs`
    /// appended for a duration.
    pub fn key(&self) -> String {
        match self.value {
            CounterValue::Time(_) => format!("{}_secs", self.name),
            _ => self.name.to_string(),
        }
    }
}

impl TaneStats {
    /// Every scalar field once, in report order. The non-scalar fields
    /// (`sets_per_level`, `level_times`, `topk_early_exit_level`) are
    /// reported by their consumers.
    pub fn counters(&self) -> [Counter; COUNTERS] {
        use CounterValue::{Count, Peak, Time};
        let entry = |name, value, ranked_only, thread_invariant| Counter {
            name,
            value,
            ranked_only,
            thread_invariant,
        };
        let invariant = |name, value| entry(name, value, false, true);
        let runtime = |name, value| entry(name, value, false, false);
        let ranked = |name, value| entry(name, value, true, false);
        let n = |v: usize| v as u64;
        [
            invariant("levels", Count(n(self.levels))),
            invariant("sets_total", Count(n(self.sets_total))),
            invariant("sets_max_level", Peak(n(self.sets_max_level))),
            invariant("validity_tests", Count(n(self.validity_tests))),
            invariant("keys_found", Count(n(self.keys_found))),
            invariant("products", Count(n(self.products))),
            invariant(
                "g3_exact_computations",
                Count(n(self.g3_exact_computations)),
            ),
            invariant("g3_decided_by_bounds", Count(n(self.g3_decided_by_bounds))),
            invariant("disk_reads", Count(self.disk_reads)),
            invariant("disk_writes", Count(self.disk_writes)),
            invariant("disk_bytes_read", Count(self.disk_bytes_read)),
            invariant("disk_bytes_written", Count(self.disk_bytes_written)),
            invariant("peak_resident_bytes", Peak(n(self.peak_resident_bytes))),
            invariant("store_evictions", Count(self.store_evictions)),
            invariant("store_pins", Count(self.store_pins)),
            invariant("oversized_resident", Count(self.oversized_resident)),
            runtime("parallel_workers", Peak(n(self.parallel_workers))),
            runtime("parallel_grains", Count(self.parallel_grains)),
            runtime("worker_steals", Count(self.worker_steals)),
            runtime("worker_parks", Count(self.worker_parks)),
            runtime("worker_spin", Time(self.worker_spin)),
            runtime("worker_busy", Time(self.worker_busy)),
            runtime("fetch_stall", Time(self.fetch_stall)),
            runtime("elapsed", Time(self.elapsed)),
            ranked("topk_bound_pruned", Count(self.topk_bound_pruned)),
            ranked("topk_dominated", Count(self.topk_dominated)),
            ranked("topk_improvements", Count(self.topk_improvements)),
        ]
    }

    /// The counters a search reports: all of them for a ranked search,
    /// all but the ranked-only ones otherwise.
    pub fn reported(&self, ranked: bool) -> impl Iterator<Item = Counter> {
        self.counters()
            .into_iter()
            .filter(move |c| ranked || !c.ranked_only)
    }

    /// The thread-invariant counters: what a search reports identically at
    /// every worker count.
    pub fn invariant_counters(&self) -> Vec<Counter> {
        let counters = self.counters().into_iter();
        counters.filter(|c| c.thread_invariant).collect()
    }

    /// The [`reported`](Self::reported) counters as one JSON object.
    pub fn to_json(&self, ranked: bool) -> Json {
        let members = self.reported(ranked).map(|c| (c.key(), c.value.to_json()));
        Json::Obj(members.collect())
    }
}

/// The outcome of a discovery run: the minimal cover plus statistics.
#[derive(Debug, Clone)]
pub struct TaneResult {
    /// All minimal non-trivial (approximate) dependencies, canonical order.
    pub fds: Vec<Fd>,
    /// The candidate keys (minimal superkeys) encountered by key pruning,
    /// ascending. Populated only when `key_pruning` is enabled (the
    /// default); with it disabled keys are simply never detected. In
    /// ranked mode an early exit truncates the walk, so this holds the
    /// keys found *up to* the exit level.
    pub keys: Vec<tane_util::AttrSet>,
    /// Ranked mode only: the final top-k heap, best first (ascending
    /// `(g3, |lhs|, rhs, lhs)`). `None` outside top-k; in ranked mode
    /// [`fds`](Self::fds) holds the same dependencies in canonical order.
    pub ranked: Option<Vec<crate::rank::RankedFd>>,
    /// Search statistics.
    pub stats: TaneStats,
}

impl TaneResult {
    /// Number of dependencies found (the paper's `N`).
    pub fn count(&self) -> usize {
        self.fds.len()
    }

    /// Renders the dependencies with attribute names, one per line, in
    /// canonical order — the shape of the paper's published outputs.
    pub fn render(&self, schema: &Schema) -> String {
        let mut out = String::new();
        for fd in &self.fds {
            out.push_str(&fd.display_with(schema.names()));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tane_util::AttrSet;

    #[test]
    fn error_display_and_source() {
        use std::error::Error;
        let e = TaneError::from(StoreError::Missing {
            key: AttrSet::singleton(1),
        });
        assert!(e.to_string().contains("partition store"));
        assert!(e.source().is_some());
    }

    #[test]
    fn result_render() {
        let schema = Schema::new(["A", "B", "C"]).unwrap();
        let result = TaneResult {
            fds: vec![
                Fd::new(AttrSet::from_indices([1, 2]), 0),
                Fd::new(AttrSet::singleton(0), 2),
            ],
            keys: vec![AttrSet::singleton(0)],
            ranked: None,
            stats: TaneStats::default(),
        };
        assert_eq!(result.count(), 2);
        let text = result.render(&schema);
        assert_eq!(text, "{B,C} -> A\n{A} -> C\n");
    }

    #[test]
    fn counters_list_every_scalar_field_once() {
        // No `..Default::default()`: a new field breaks compilation here
        // until it gets a value, and the assertions below until it gets an
        // entry in `counters()`.
        let ns = Duration::from_nanos;
        let stats = TaneStats {
            levels: 1,
            sets_per_level: vec![100, 101],
            sets_total: 2,
            sets_max_level: 3,
            validity_tests: 4,
            g3_exact_computations: 5,
            g3_decided_by_bounds: 6,
            keys_found: 7,
            products: 8,
            disk_reads: 9,
            disk_writes: 10,
            disk_bytes_read: 11,
            disk_bytes_written: 12,
            peak_resident_bytes: 13,
            store_evictions: 14,
            store_pins: 15,
            oversized_resident: 16,
            parallel_workers: 17,
            parallel_grains: 18,
            worker_steals: 19,
            worker_parks: 20,
            worker_spin: ns(21),
            worker_busy: ns(22),
            fetch_stall: ns(23),
            topk_bound_pruned: 24,
            topk_dominated: 25,
            topk_improvements: 26,
            topk_early_exit_level: Some(102),
            level_times: vec![ns(103), ns(104)],
            elapsed: ns(27),
        };
        let counters = stats.counters();
        let mut raw: Vec<u64> = counters.iter().map(|c| c.value.raw()).collect();
        raw.sort_unstable();
        assert_eq!(raw, (1..=COUNTERS as u64).collect::<Vec<_>>());
        let names: std::collections::BTreeSet<_> = counters.iter().map(|c| c.name).collect();
        assert_eq!(names.len(), COUNTERS, "duplicate counter names");
        // Each entry is named after the field it reads.
        let debug = format!("{stats:?}");
        for c in &counters {
            let value = match c.value {
                CounterValue::Time(d) => format!("{d:?}"),
                v => v.to_string(),
            };
            let field = format!(" {}: {value}", c.name);
            assert!(
                debug.contains(&format!("{field},")) || debug.contains(&format!("{field} }}")),
                "{} does not read its own field",
                c.name
            );
        }
    }
}
