//! `serve-churn`: the `/v1` service under mixed read/write traffic.
//!
//! An in-process `tane_server::Server` on loopback, driven by a closed loop
//! of [`CLIENTS`] keep-alive connections. Each client owns an uploaded
//! wbc-profile dataset and repeats one cycle: a `PATCH …/rows` (append
//! [`APPEND_ROWS`] rows, delete one), then four discovers — exact (a miss,
//! served by the delta merge-and-reverify path), the same exact again (a
//! cache hit), `top_k`, and a streamed approximate search. Every response
//! is checked afterwards against an in-process search on the client's own
//! mirror of the patched rows.

use crate::check::render;
use crate::http::Client;
use crate::stats::{median, percentile, ratio};
use crate::trace::Span;
use crate::{data, host, kernels, Ctx, Outcome};
use std::net::SocketAddr;
use std::time::{Duration, Instant};
use tane_core::{
    discover_approx_fds, discover_fds, discover_topk_fds, ApproxTaneConfig, TaneConfig, TopKConfig,
};
use tane_server::{Server, ServerConfig};
use tane_util::{Json, SplitMix64};

/// Concurrent client connections.
pub const CLIENTS: usize = 2;
/// Rows each `PATCH` appends (it also deletes one).
pub const APPEND_ROWS: usize = 3;
/// `top_k` of the ranked request.
const TOP_K: usize = 10;
/// `epsilon` of the streamed approximate request.
const EPSILON: f64 = 0.05;
/// Set-up repetitions (data, server start, uploads); `setup_s` is their
/// median.
const SETUP_REPS: usize = 5;
/// Per-kernel budget of the traced run's direct kernel timings.
const KERNEL_BUDGET: Duration = Duration::from_millis(200);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Patch,
    Miss,
    Hit,
    TopK,
    Stream,
}

impl Kind {
    fn span(self) -> &'static str {
        match self {
            Kind::Patch => "delta.patch",
            Kind::Miss => "server.discover_miss",
            Kind::Hit => "server.discover_hit",
            Kind::TopK => "server.discover_topk",
            Kind::Stream => "server.discover_stream",
        }
    }
}

/// One request as the client saw it.
struct Sample {
    kind: Kind,
    traced: bool,
    latency: f64,
    first_byte: f64,
    ok: bool,
}

/// What one cycle's responses said, kept for the off-path check.
#[derive(Default)]
struct Cycle {
    appended: Vec<Vec<String>>,
    deleted: usize,
    exact: Option<Vec<String>>,
    hit: Option<Vec<String>>,
    hit_cached: bool,
    topk: Option<Vec<(String, usize)>>,
    stream: Option<Vec<String>>,
    miss_stats: Option<Json>,
}

/// One client's share of the run.
struct ClientRun {
    samples: Vec<Sample>,
    cycles: Vec<Cycle>,
    spans: Vec<Span>,
    errors: Vec<String>,
}

/// A client's dataset: header plus rows of CSV fields.
#[derive(Clone)]
struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn from_csv(csv: &[u8]) -> Table {
        let text = std::str::from_utf8(csv).expect("generated CSV is UTF-8");
        let mut lines = text
            .lines()
            .map(|l| l.split(',').map(str::to_string).collect());
        Table {
            header: lines.next().unwrap_or_default(),
            rows: lines.collect(),
        }
    }

    fn to_csv(&self) -> Vec<u8> {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out.into_bytes()
    }

    /// A seeded patch: delete one row, append rows that each copy a random
    /// row with one field taken from another random row, so values stay in
    /// their column's domain while dependencies erode.
    fn draw_patch(&self, rng: &mut SplitMix64) -> (Vec<Vec<String>>, usize) {
        let n = self.rows.len();
        let deleted = rng.usize_below(n);
        let appended = (0..APPEND_ROWS)
            .map(|_| {
                let mut row = self.rows[rng.usize_below(n)].clone();
                let col = rng.usize_below(row.len());
                row[col] = self.rows[rng.usize_below(n)][col].clone();
                row
            })
            .collect();
        (appended, deleted)
    }

    /// Deletes before appends, as `RowPatch` orders them.
    fn apply(&mut self, appended: &[Vec<String>], deleted: usize) {
        self.rows.remove(deleted);
        self.rows.extend(appended.iter().cloned());
    }
}

fn dataset_name(client: usize) -> String {
    format!("churn-{client}")
}

fn patch_body(appended: &[Vec<String>], deleted: usize) -> Vec<u8> {
    let rows = appended
        .iter()
        .map(|r| Json::Arr(r.iter().map(|v| Json::Str(v.clone())).collect()))
        .collect();
    Json::obj([
        ("append", Json::Arr(rows)),
        ("delete", Json::Arr(vec![Json::Num(deleted as f64)])),
    ])
    .render()
    .into_bytes()
}

fn discover_body(client: usize, extra: &str) -> Vec<u8> {
    format!(
        "{{\"dataset\":\"{}\",\"threads\":1{extra}}}",
        dataset_name(client)
    )
    .into_bytes()
}

fn str_list(json: Option<&Json>) -> Option<Vec<String>> {
    json?
        .as_array()?
        .iter()
        .map(|v| v.as_str().map(str::to_string))
        .collect()
}

/// The closed loop of one client, until `deadline`.
fn client_loop(
    addr: SocketAddr,
    client: usize,
    mut table: Table,
    mut rng: SplitMix64,
    deadline: Instant,
    trace: bool,
    epoch: Instant,
) -> ClientRun {
    let mut run = ClientRun {
        samples: Vec::new(),
        cycles: Vec::new(),
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let mut conn = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            run.errors.push(format!("client {client}: connect: {e}"));
            return run;
        }
    };
    let path = format!("/v1/datasets/{}/rows", dataset_name(client));
    while Instant::now() < deadline {
        let traced = trace && run.cycles.len() % 2 == 1;
        let (appended, deleted) = table.draw_patch(&mut rng);
        table.apply(&appended, deleted);
        let mut cycle = Cycle {
            appended,
            deleted,
            ..Cycle::default()
        };
        let steps: [(Kind, &str, &str, Vec<u8>); 5] = [
            (
                Kind::Patch,
                "PATCH",
                &path,
                patch_body(&cycle.appended, deleted),
            ),
            (
                Kind::Miss,
                "POST",
                "/v1/discover",
                discover_body(client, ""),
            ),
            (Kind::Hit, "POST", "/v1/discover", discover_body(client, "")),
            (
                Kind::TopK,
                "POST",
                "/v1/discover",
                discover_body(client, &format!(",\"top_k\":{TOP_K}")),
            ),
            (
                Kind::Stream,
                "POST",
                "/v1/discover",
                discover_body(client, &format!(",\"epsilon\":{EPSILON},\"stream\":true")),
            ),
        ];
        let cycle_start = Instant::now();
        let first_span = run.spans.len();
        for (kind, method, path, body) in steps {
            let t0 = Instant::now();
            let response = conn.request(method, path, &body);
            let t1 = Instant::now();
            let (ok, first_byte) = match &response {
                Ok(r) => ((200..300).contains(&r.status), r.first_byte),
                Err(_) => (false, t1),
            };
            run.samples.push(Sample {
                kind,
                traced,
                latency: (t1 - t0).as_secs_f64(),
                first_byte: (first_byte.max(t0) - t0).as_secs_f64(),
                ok,
            });
            if traced {
                run.spans.push(Span {
                    name: kind.span().to_string(),
                    start_ns: (t0 - epoch).as_nanos() as u64,
                    end_ns: (t1 - epoch).as_nanos() as u64,
                    parent: None,
                });
            }
            let response = match response {
                Ok(r) if ok => r,
                Ok(r) => {
                    run.errors
                        .push(format!("{kind:?}: status {}: {}", r.status, r.text()));
                    continue;
                }
                Err(e) => {
                    // The connection is unusable after an I/O error.
                    run.errors.push(format!("{kind:?}: {e}"));
                    run.cycles.push(cycle);
                    return run;
                }
            };
            record(&mut cycle, kind, response.text());
        }
        if traced {
            run.spans.push(Span {
                name: "bench.cycle".into(),
                start_ns: (cycle_start - epoch).as_nanos() as u64,
                end_ns: (Instant::now() - epoch).as_nanos() as u64,
                parent: None,
            });
            let cycle_index = run.spans.len() - 1;
            for s in &mut run.spans[first_span..cycle_index] {
                s.parent = Some(cycle_index);
            }
        }
        run.cycles.push(cycle);
    }
    run
}

/// Keeps what the off-path check needs from one response body.
fn record(cycle: &mut Cycle, kind: Kind, text: &str) {
    let doc = || Json::parse(text).ok();
    match kind {
        Kind::Patch => {}
        Kind::Miss => {
            let d = doc();
            cycle.exact = d.as_ref().and_then(|d| str_list(d.get("fds")));
            cycle.miss_stats = d.and_then(|d| d.get("stats").cloned());
        }
        Kind::Hit => {
            let d = doc();
            cycle.hit = d.as_ref().and_then(|d| str_list(d.get("fds")));
            cycle.hit_cached = d
                .and_then(|d| d.get("cached").and_then(Json::as_bool))
                .unwrap_or(false);
        }
        Kind::TopK => {
            cycle.topk = doc().and_then(|d| {
                d.get("ranked")?
                    .as_array()?
                    .iter()
                    .map(|e| {
                        Some((
                            e.get("fd")?.as_str()?.to_string(),
                            e.get("g3_rows")?.as_usize()?,
                        ))
                    })
                    .collect()
            });
        }
        Kind::Stream => {
            let mut fds = Vec::new();
            for line in text.lines().filter(|l| !l.trim().is_empty()) {
                let Ok(obj) = Json::parse(line) else {
                    cycle.stream = None;
                    return;
                };
                if obj.get("level").is_some() && obj.get("event").is_none() {
                    fds.extend(str_list(obj.get("fds")).unwrap_or_default());
                }
            }
            fds.sort();
            cycle.stream = Some(fds);
        }
    }
}

/// Re-runs every cycle in process on a mirror of the client's rows and
/// returns, per cycle, the problems found with that cycle's responses.
fn verify(initial: &Table, cycles: &[Cycle]) -> Vec<Vec<String>> {
    let serial = TaneConfig::default().with_threads(1);
    let mut table = initial.clone();
    cycles
        .iter()
        .map(|c| {
            table.apply(&c.appended, c.deleted);
            let mut problems = Vec::new();
            let relation = match data::from_csv(&table.to_csv()) {
                Ok(r) => r,
                Err(e) => return vec![format!("mirror does not parse: {e}")],
            };
            let names = relation.schema().names();
            match discover_fds(&relation, &serial) {
                Ok(r) => {
                    let want = render(&relation, &r.fds);
                    if c.exact.as_ref() != Some(&want) {
                        problems.push("exact discover differs from in-process search".into());
                    }
                    if c.hit.as_ref() != Some(&want) || !c.hit_cached {
                        problems.push("repeated discover is not the cached cover".into());
                    }
                }
                Err(e) => problems.push(format!("in-process exact search: {e}")),
            }
            let topk = TopKConfig {
                base: serial.clone(),
                k: TOP_K,
            };
            match discover_topk_fds(&relation, &topk) {
                Ok(r) => {
                    let want: Vec<(String, usize)> = r
                        .ranked
                        .unwrap_or_default()
                        .iter()
                        .map(|e| (e.fd.display_with(names), e.g3_rows))
                        .collect();
                    if c.topk.as_ref() != Some(&want) {
                        problems.push("top_k ranking differs from in-process search".into());
                    }
                }
                Err(e) => problems.push(format!("in-process top-k search: {e}")),
            }
            let approx = ApproxTaneConfig {
                base: serial.clone(),
                ..ApproxTaneConfig::new(EPSILON)
            };
            match discover_approx_fds(&relation, &approx) {
                Ok(r) => {
                    let mut want = render(&relation, &r.fds);
                    want.sort();
                    if c.stream.as_ref() != Some(&want) {
                        problems.push("streamed approximate cover differs".into());
                    }
                }
                Err(e) => problems.push(format!("in-process approximate search: {e}")),
            }
            problems
        })
        .collect()
}

fn start_server(workers: usize) -> std::io::Result<Server> {
    Server::start(
        "127.0.0.1:0",
        ServerConfig {
            workers,
            ..ServerConfig::default()
        },
    )
}

fn stop(server: Server) {
    server.shutdown();
    server.wait();
}

fn upload(addr: SocketAddr, tables: &[Table]) -> Result<(), String> {
    let mut conn = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    for (i, t) in tables.iter().enumerate() {
        let r = conn
            .request(
                "POST",
                &format!("/v1/datasets/{}", dataset_name(i)),
                &t.to_csv(),
            )
            .map_err(|e| format!("upload: {e}"))?;
        if r.status != 200 && r.status != 201 {
            return Err(format!("upload: status {}: {}", r.status, r.text()));
        }
    }
    Ok(())
}

fn stat(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Runs `serve-churn` for `ctx.seconds` and measures it.
pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new(ctx.trace);
    let epoch = Instant::now();

    // Set-up: client datasets, server start and uploads. All but the last
    // server are stopped again; their time is not part of any sample.
    let mut setup = Vec::new();
    let mut encode = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        crate::idle();
        let t0 = Instant::now();
        let tables: Vec<Table> = (0..CLIENTS)
            .map(|c| {
                let r = data::shuffled(
                    &tane_datasets::wisconsin_breast_cancer(),
                    ctx.seed ^ ((c as u64 + 1) << 32),
                );
                Table::from_csv(&data::to_csv(&r))
            })
            .collect();
        let t1 = Instant::now();
        for t in &tables {
            let e0 = Instant::now();
            let _ = data::from_csv(&t.to_csv());
            encode.push(e0.elapsed().as_secs_f64());
        }
        let t2 = Instant::now();
        let server = match start_server(ctx.threads) {
            Ok(s) => s,
            Err(e) => {
                out.op(vec![format!("server start: {e}")]);
                return out;
            }
        };
        if let Err(e) = upload(server.local_addr(), &tables) {
            out.op(vec![e]);
            stop(server);
            return out;
        }
        let t3 = Instant::now();
        let s = out.tracer.record("bench.setup", t0, t3, None);
        out.tracer.record("datasets.generate", t0, t1, Some(s));
        out.tracer.record("server.start_upload", t2, t3, Some(s));
        setup.push(((t1 - t0) + (t3 - t2)).as_secs_f64());
        if rep + 1 < SETUP_REPS {
            stop(server);
        } else {
            live = Some((server, tables));
        }
    }
    let (server, tables) = live.expect("at least one set-up");
    let addr = server.local_addr();

    // The timed closed loop.
    let cpu0 = host::cpu_seconds();
    let loop_start = Instant::now();
    let deadline = loop_start + Duration::from_secs_f64(ctx.seconds);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = tables
            .iter()
            .enumerate()
            .map(|(c, t)| {
                let (t, trace) = (t.clone(), ctx.trace);
                let rng = data::rng(ctx.seed, 200 + c as u64);
                s.spawn(move || client_loop(addr, c, t, rng, deadline, trace, epoch))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let loop_wall = loop_start.elapsed().as_secs_f64();
    let cpu = host::cpu_seconds() - cpu0;

    let server_metrics = Client::connect(addr)
        .and_then(|mut c| c.request("GET", "/v1/metrics", b""))
        .ok()
        .and_then(|r| Json::parse(r.text()).ok());
    stop(server);

    // Off-path checks: each cycle's five requests fail together when any of
    // its responses disagrees with the in-process search.
    for (c, run) in runs.iter().enumerate() {
        for e in &run.errors {
            out.failures.push(format!("client {c}: {e}"));
        }
        let verdicts = verify(&tables[c], &run.cycles);
        for (problems, requests) in verdicts.iter().zip(run.samples.chunks(5)) {
            for s in requests {
                let mut p = problems.clone();
                if !s.ok {
                    p.push(format!("{:?} request failed", s.kind));
                }
                out.op(p);
            }
        }
    }
    if out.attempted == 0 {
        out.op(vec!["no request completed".into()]);
    }
    for run in &runs {
        let base = out.tracer.spans().len();
        for s in &run.spans {
            let mut s = s.clone();
            s.parent = s.parent.map(|p| p + base);
            out.tracer.push(s);
        }
    }

    let all: Vec<&Sample> = runs.iter().flat_map(|r| &r.samples).collect();
    let timed: Vec<&&Sample> = all.iter().filter(|s| s.traced == ctx.trace).collect();
    let lat = |pred: &dyn Fn(&Sample) -> bool, set: &[&&Sample]| -> Vec<f64> {
        set.iter().filter(|s| pred(s)).map(|s| s.latency).collect()
    };
    let is_discover = |s: &Sample| s.kind != Kind::Patch;
    let everything = |_: &Sample| true;
    let discovers = lat(&is_discover, &timed);
    let requests = lat(&everything, &timed);
    let f = &mut out.figures;
    f.set("setup_s", median(&setup));
    f.set("discover_s", median(&discovers));
    // Client and server threads share this process; with `trace` only half
    // the cycles are timed, so the CPU is shared out over all discovers.
    let all_discovers = all.iter().filter(|s| is_discover(s)).count();
    f.set("cpu_s", ratio(cpu, all_discovers as f64));
    f.set("peak_rss_mb", host::peak_rss_mb());
    f.set("req_per_s", ratio(all.len() as f64, loop_wall));
    f.set("req_p50_ms", median(&requests) * 1e3);
    f.set("req_p90_ms", percentile(&requests, 90.0) * 1e3);
    out.samples.push(("setup_s", setup.len()));
    out.samples.push(("discover_s", discovers.len()));
    out.samples.push(("req_ms", requests.len()));

    if ctx.trace {
        let untraced: Vec<&&Sample> = all.iter().filter(|s| !s.traced).collect();
        f.set(
            "trace.overhead_discover_s",
            median(&discovers) - median(&lat(&is_discover, &untraced)),
        );
        f.set(
            "trace.overhead_req_p50_ms",
            (median(&requests) - median(&lat(&everything, &untraced))) * 1e3,
        );
        let kind_ms = |k: Kind| median(&lat(&|s: &Sample| s.kind == k, &timed)) * 1e3;
        f.set("delta.patch_p50_ms", kind_ms(Kind::Patch));
        f.set("server.hit_p50_ms", kind_ms(Kind::Hit));
        f.set("server.miss_p50_ms", kind_ms(Kind::Miss));
        f.set("server.topk_p50_ms", kind_ms(Kind::TopK));
        let first: Vec<f64> = timed
            .iter()
            .filter(|s| s.kind == Kind::Stream)
            .map(|s| s.first_byte)
            .collect();
        f.set("server.stream_first_line_ms", median(&first) * 1e3);
        f.set(
            "server.non_2xx",
            all.iter().filter(|s| !s.ok).count() as f64,
        );
        if let Some(m) = &server_metrics {
            let get = |a: &str, b: &str| m.get(a).and_then(|o| o.get(b)).and_then(Json::as_f64);
            let hits = get("cache", "hits").unwrap_or(0.0);
            let misses = get("cache", "misses").unwrap_or(0.0);
            f.set("server.cache_hit_ratio", ratio(hits, hits + misses));
            f.set(
                "server.evicted_stale",
                get("cache", "evicted_stale").unwrap_or(0.0),
            );
            f.set(
                "server.conn_reused",
                get("connections", "reused").unwrap_or(0.0),
            );
        }
        let miss_stats: Vec<&Json> = runs
            .iter()
            .flat_map(|r| &r.cycles)
            .filter_map(|c| c.miss_stats.as_ref())
            .collect();
        let (supplied, products) = miss_stats.iter().fold((0.0, 0.0), |(s, p), st| {
            (
                s + stat(st, "partitions_supplied"),
                p + stat(st, "products"),
            )
        });
        f.set("delta.supplied_ratio", ratio(supplied, supplied + products));
        // Search counts of the first miss, which the seed alone fixes.
        if let Some(st) = runs
            .first()
            .and_then(|r| r.cycles.first())
            .and_then(|c| c.miss_stats.as_ref())
        {
            for (metric, key) in [
                ("partition.products", "products"),
                ("core.g3_exact", "g3_exact_computations"),
                ("store.disk_reads", "disk_reads"),
                ("store.evictions", "store_evictions"),
                ("store.pins", "store_pins"),
                ("store.oversized", "oversized_resident"),
                ("core.levels", "levels"),
                ("core.sets_total", "sets_total"),
                ("core.validity_tests", "validity_tests"),
                ("core.keys_found", "keys_found"),
                ("pool.grains", "parallel_grains"),
                ("pool.steals", "worker_steals"),
                ("pool.parks", "worker_parks"),
            ] {
                f.set(metric, stat(st, key));
            }
            f.set("store.disk_mb_read", stat(st, "disk_bytes_read") / 1e6);
            f.set(
                "store.disk_mb_written",
                stat(st, "disk_bytes_written") / 1e6,
            );
            f.set(
                "core.g3_bound_ratio",
                ratio(stat(st, "g3_decided_by_bounds"), stat(st, "validity_tests")),
            );
            f.set(
                "store.hit_ratio",
                1.0 - ratio(stat(st, "disk_reads"), 2.0 * stat(st, "products")),
            );
            let fds = runs[0].cycles[0].exact.as_ref().map_or(0, Vec::len);
            f.set(
                "core.useful_ratio",
                ratio(fds as f64, stat(st, "validity_tests")),
            );
        }
        let med = |key: &str| median(&miss_stats.iter().map(|s| stat(s, key)).collect::<Vec<_>>());
        f.set("pool.busy_s", med("worker_busy_secs"));
        f.set("pool.spin_s", med("worker_spin_secs"));
        f.set("store.fetch_stall_s", med("fetch_stall_secs"));
        f.set(
            "pool.utilization",
            median(
                &miss_stats
                    .iter()
                    .map(|s| ratio(stat(s, "worker_busy_secs"), stat(s, "elapsed_secs")))
                    .collect::<Vec<_>>(),
            ),
        );
        let levels = |s: &Json| -> Vec<f64> {
            s.get("level_secs")
                .and_then(Json::as_array)
                .map(|a| a.iter().filter_map(Json::as_f64).collect())
                .unwrap_or_default()
        };
        f.set(
            "core.level_time_s",
            median(
                &miss_stats
                    .iter()
                    .map(|s| levels(s).iter().sum())
                    .collect::<Vec<_>>(),
            ),
        );
        f.set(
            "core.first_level_s",
            median(
                &miss_stats
                    .iter()
                    .map(|s| levels(s).first().copied().unwrap_or(0.0))
                    .collect::<Vec<_>>(),
            ),
        );
        f.set("relation.encode_s", median(&encode));
        let rows = tables[0].rows.len() as f64;
        f.set("relation.rows_per_s", ratio(rows, median(&encode)));
        if let Ok(relation) = data::from_csv(&tables[0].to_csv()) {
            let k = kernels::measure(&relation, &mut out.tracer, KERNEL_BUDGET);
            f.set("partition.level1_s", k.level1_s);
            f.set("partition.product_ns_per_elem", k.product_ns_per_elem);
            f.set("partition.g3_ns_per_elem", k.g3_ns_per_elem);
        }
    }
    out
}
