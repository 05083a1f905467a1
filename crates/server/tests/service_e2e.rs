//! End-to-end service tests over real loopback sockets: concurrency,
//! cache behaviour, overload shedding, uploads, metrics, and shutdown.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use tane_core::{discover_fds, TaneConfig};
use tane_server::{Server, ServerConfig};
use tane_util::Json;

/// Sends one request on a fresh connection (opting out of keep-alive so
/// the EOF-terminated read below works), returns `(status, parsed body)`.
fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Json) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "{method} {path} HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\ncontent-length: {}\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .strip_prefix("HTTP/1.1 ")
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line: {raw:.60}"));
    // Every *routed* response on an unversioned path is a deprecated alias
    // of its /v1 twin and must say so. Failures that precede routing
    // (framing 400/501, body cap 413, mid-request 408, connection shed)
    // have no version to speak and carry no header.
    let pre_routing =
        matches!(status, 408 | 413 | 501) || raw.contains("\"connection limit reached\"");
    if !path.starts_with("/v1") && !pre_routing {
        assert!(
            raw.contains("deprecation: true\r\n"),
            "legacy path {path} must carry `Deprecation: true`: {raw:.200}"
        );
    }
    let body_text = raw.split("\r\n\r\n").nth(1).unwrap_or("");
    let parsed = Json::parse(body_text).unwrap_or_else(|e| panic!("bad body ({e:?}): {body_text}"));
    (status, parsed)
}

fn discover_body(dataset: &str) -> Vec<u8> {
    format!("{{\"dataset\":\"{dataset}\"}}").into_bytes()
}

fn fds_of(body: &Json) -> Vec<String> {
    body.get("fds")
        .and_then(Json::as_array)
        .expect("fds array")
        .iter()
        .map(|f| f.as_str().expect("fd string").to_string())
        .collect()
}

#[test]
fn concurrent_discover_is_correct_deduplicated_and_cached() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    // The ground truth, straight from the library.
    let relation = tane_datasets::lymphography();
    let names = relation.schema().names().to_vec();
    let expected: Vec<String> = discover_fds(&relation, &TaneConfig::default())
        .unwrap()
        .fds
        .iter()
        .map(|fd| fd.display_with(&names))
        .collect();
    assert!(!expected.is_empty(), "lymphography must have dependencies");

    // 64 concurrent identical queries — the acceptance bar for sustained
    // loopback concurrency. Single-flight should answer them with very few
    // actual searches.
    let addr2 = addr;
    let clients: Vec<_> = (0..64)
        .map(|_| {
            std::thread::spawn(move || {
                call(addr2, "POST", "/discover", &discover_body("lymphography"))
            })
        })
        .collect();
    let mut cached_seen = false;
    for c in clients {
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200, "{body:?}");
        assert_eq!(
            fds_of(&body),
            expected,
            "server must byte-match the CLI dependency set"
        );
        cached_seen |= body.get("cached").unwrap().as_bool().unwrap();
    }
    assert!(cached_seen, "concurrent identical queries must coalesce");

    // A repeat query is a straight cache hit.
    let (status, body) = call(addr, "POST", "/discover", &discover_body("lymphography"));
    assert_eq!(status, 200);
    assert_eq!(body.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(fds_of(&body), expected);

    // /metrics must show the cache working and per-level timings populated.
    let (status, metrics) = call(addr, "GET", "/metrics", b"");
    assert_eq!(status, 200);
    let cache = metrics.get("cache").unwrap();
    let hits = cache.get("hits").unwrap().as_usize().unwrap();
    let coalesced = cache.get("coalesced").unwrap().as_usize().unwrap();
    assert!(hits >= 1, "the repeat query is a guaranteed hit");
    assert!(
        hits + coalesced >= 64,
        "64 of 65 identical queries must not re-search"
    );
    assert_eq!(cache.get("entries").unwrap().as_usize(), Some(1));
    let queue = metrics.get("queue").unwrap();
    assert!(queue.get("depth").unwrap().as_usize().is_some());
    assert!(queue.get("capacity").unwrap().as_usize().unwrap() > 0);
    let levels = metrics
        .get("search")
        .unwrap()
        .get("level_times")
        .unwrap()
        .as_array()
        .unwrap();
    assert!(!levels.is_empty(), "per-level timings must be reported");
    assert!(levels[0].get("runs").unwrap().as_usize().unwrap() >= 1);

    server.shutdown();
    server.wait();
}

#[test]
fn distinct_queries_get_distinct_cache_entries() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let (status, exact) = call(addr, "POST", "/discover", &discover_body("hepatitis"));
    assert_eq!(status, 200);
    let (status, approx) = call(
        addr,
        "POST",
        "/discover",
        br#"{"dataset":"hepatitis","epsilon":0.1}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(
        approx.get("cached").unwrap().as_bool(),
        Some(false),
        "different key, no reuse"
    );
    // Approximate discovery at eps > 0 finds at least the exact cover.
    assert!(!fds_of(&approx).is_empty());
    assert_ne!(fds_of(&exact), fds_of(&approx));

    // Storage backend is normalized out of the key: a disk query is served
    // from the in-memory run's cache entry.
    let (status, disk) = call(
        addr,
        "POST",
        "/discover",
        br#"{"dataset":"hepatitis","storage":"disk","cache_mb":4}"#,
    );
    assert_eq!(status, 200);
    assert_eq!(disk.get("cached").unwrap().as_bool(), Some(true));
    assert_eq!(fds_of(&disk), fds_of(&exact));

    server.shutdown();
    server.wait();
}

#[test]
fn uploads_roundtrip_through_discovery() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();

    let csv = b"A,B,C\n1,x,10\n2,x,10\n3,y,20\n4,y,20\n";
    let (status, up) = call(addr, "POST", "/datasets/tiny", csv);
    assert_eq!(status, 200, "{up:?}");
    assert_eq!(up.get("rows").unwrap().as_usize(), Some(4));
    assert_eq!(up.get("attrs").unwrap().as_usize(), Some(3));

    let (status, body) = call(addr, "POST", "/discover", &discover_body("tiny"));
    assert_eq!(status, 200);
    let fds = fds_of(&body);
    // B and C determine each other; A is a key.
    assert!(fds.contains(&"{B} -> C".to_string()), "{fds:?}");
    assert!(fds.contains(&"{C} -> B".to_string()), "{fds:?}");
    assert!(body
        .get("keys")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .any(|k| k.as_str() == Some("{A}")));

    // The listing shows the upload with its shape.
    let (_, listing) = call(addr, "GET", "/datasets", b"");
    let datasets = listing.get("datasets").unwrap().as_array().unwrap();
    assert!(datasets
        .iter()
        .any(|d| d.get("name").and_then(Json::as_str) == Some("tiny")
            && d.get("rows").and_then(Json::as_usize) == Some(4)));

    // Unknown datasets are a clean 404.
    let (status, _) = call(addr, "POST", "/discover", &discover_body("nonexistent"));
    assert_eq!(status, 404);

    server.shutdown();
    server.wait();
}

#[test]
fn overload_sheds_with_429_not_memory() {
    // No workers: nothing drains, so the queue fills deterministically.
    let config = ServerConfig {
        workers: 0,
        queue_capacity: 2,
        job_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();

    // Upload first so dataset resolution succeeds.
    let csv = b"A,B\n1,1\n2,2\n";
    let (status, _) = call(addr, "POST", "/datasets/tiny", csv);
    assert_eq!(status, 200);

    // Two distinct queries occupy the queue; their handlers will 504.
    let mut blocked = Vec::new();
    for m in 1..=2 {
        let body = format!("{{\"dataset\":\"tiny\",\"max_lhs\":{m}}}").into_bytes();
        blocked.push(std::thread::spawn(move || {
            call(addr, "POST", "/discover", &body)
        }));
    }

    // Fill the queue (races with the two above are fine: only capacity
    // matters), then the next distinct query must be shed.
    let mut statuses = Vec::new();
    for m in 3..=6 {
        let body = format!("{{\"dataset\":\"tiny\",\"max_lhs\":{m}}}").into_bytes();
        let addr2 = addr;
        statuses.push(std::thread::spawn(move || {
            call(addr2, "POST", "/discover", &body).0
        }));
    }
    let results: Vec<u16> = statuses.into_iter().map(|t| t.join().unwrap()).collect();
    assert!(
        results.contains(&429),
        "queue overflow must answer 429, got {results:?}"
    );
    assert!(
        results.iter().all(|&s| s == 429 || s == 504),
        "got {results:?}"
    );
    for b in blocked {
        let (status, _) = b.join().unwrap();
        assert!(
            status == 504 || status == 429,
            "queued-forever handlers time out, got {status}"
        );
    }

    let (_, metrics) = call(addr, "GET", "/metrics", b"");
    assert!(
        metrics
            .get("queue")
            .unwrap()
            .get("rejected")
            .unwrap()
            .as_usize()
            .unwrap()
            >= 1
    );

    server.shutdown();
    server.wait();
}

#[test]
fn shutdown_endpoint_drains_and_stops() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let (status, body) = call(addr, "POST", "/shutdown", b"");
    assert_eq!(status, 200);
    assert_eq!(body.get("status").unwrap().as_str(), Some("shutting down"));
    // wait() must return promptly: accept loop exits, workers join.
    let waiter = std::thread::spawn(move || server.wait());
    let start = std::time::Instant::now();
    waiter.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "shutdown must not hang"
    );
    // The port stops answering.
    std::thread::sleep(Duration::from_millis(50));
    assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
}

#[test]
fn health_and_errors() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let (status, body) = call(addr, "GET", "/health", b"");
    assert_eq!(
        (status, body.get("status").unwrap().as_str()),
        (200, Some("ok"))
    );
    let (status, _) = call(addr, "GET", "/no-such", b"");
    assert_eq!(status, 404);
    let (status, _) = call(addr, "POST", "/discover", b"{not json");
    assert_eq!(status, 400);
    let (status, _) = call(addr, "DELETE", "/health", b"");
    assert_eq!(status, 405);
    // Body over the configured cap is refused up front.
    let tiny = ServerConfig {
        max_body_bytes: 64,
        ..ServerConfig::default()
    };
    let small = Server::start("127.0.0.1:0", tiny).unwrap();
    let (status, _) = call(
        small.local_addr(),
        "POST",
        "/datasets/big",
        &vec![b'x'; 1024],
    );
    assert_eq!(status, 413);
    small.shutdown();
    small.wait();
    server.shutdown();
    server.wait();
}

#[test]
fn worker_pool_processes_distinct_queries_in_parallel() {
    let config = ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    };
    let server = Server::start("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let relation = Arc::new(tane_datasets::lymphography());
    // Four different LHS caps = four distinct jobs.
    let clients: Vec<_> = (1..=4)
        .map(|m| {
            let body = format!("{{\"dataset\":\"lymphography\",\"max_lhs\":{m}}}").into_bytes();
            std::thread::spawn(move || call(addr, "POST", "/discover", &body))
        })
        .collect();
    for (i, c) in clients.into_iter().enumerate() {
        let m = i + 1;
        let (status, body) = c.join().unwrap();
        assert_eq!(status, 200);
        let expected = discover_fds(&relation, &TaneConfig::default().with_max_lhs(m)).unwrap();
        let names = relation.schema().names().to_vec();
        let want: Vec<String> = expected
            .fds
            .iter()
            .map(|fd| fd.display_with(&names))
            .collect();
        assert_eq!(fds_of(&body), want, "max_lhs={m}");
    }
    let (_, metrics) = call(addr, "GET", "/metrics", b"");
    assert_eq!(
        metrics
            .get("jobs")
            .unwrap()
            .get("completed")
            .unwrap()
            .as_usize(),
        Some(4)
    );
    server.shutdown();
    server.wait();
}
