//! End-to-end tests for ranked (top-k) discovery over the `/v1` API: the
//! `{"event":"topk",...}` stream objects and their monotone-improvement
//! guarantee, byte-identical cache replay per `k`, the degenerate `k`
//! values, mid-stream disconnect survival, and — the compatibility half of
//! the contract — proof that the untagged level lines a ranked stream
//! emits are exactly the lines an exact stream emits for the same levels,
//! and that legacy routes now announce their `Sunset`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use tane_server::{Server, ServerConfig};
use tane_util::Json;

/// One persistent client connection speaking HTTP/1.1.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

/// Response head as the client saw it.
struct Head {
    status: u16,
    transfer_encoding: String,
    deprecation: Option<String>,
    sunset: Option<String>,
    content_length: usize,
}

/// One fully-read chunked response.
struct StreamReply {
    head: Head,
    chunks: Vec<String>,
}

impl StreamReply {
    /// The NDJSON objects of the stream, parsed.
    fn objects(&self) -> Vec<Json> {
        self.payload()
            .lines()
            .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad line ({e:?}): {line}")))
            .collect()
    }

    fn payload(&self) -> String {
        self.chunks.concat()
    }
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    fn send(&mut self, method: &str, path: &str, body: &[u8], close: bool) {
        let conn_header = if close { "connection: close\r\n" } else { "" };
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\n{conn_header}content-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes()).unwrap();
        self.stream.write_all(body).unwrap();
    }

    fn read_head(&mut self) -> Head {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("status line");
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line: {line:?}"));
        let mut head = Head {
            status,
            transfer_encoding: String::new(),
            deprecation: None,
            sunset: None,
            content_length: 0,
        };
        loop {
            line.clear();
            self.reader.read_line(&mut line).expect("header line");
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if trimmed.is_empty() {
                break;
            }
            if let Some((name, value)) = trimmed.split_once(':') {
                let value = value.trim().to_string();
                match name.trim().to_ascii_lowercase().as_str() {
                    "transfer-encoding" => head.transfer_encoding = value,
                    "deprecation" => head.deprecation = Some(value),
                    "sunset" => head.sunset = Some(value),
                    "content-length" => head.content_length = value.parse().unwrap(),
                    _ => {}
                }
            }
        }
        head
    }

    /// Reads one `Content-Length`-framed response.
    fn recv(&mut self) -> (Head, Json) {
        let head = self.read_head();
        let mut body = vec![0u8; head.content_length];
        self.reader.read_exact(&mut body).expect("body");
        let text = String::from_utf8(body).expect("UTF-8 body");
        let json = Json::parse(&text).unwrap_or_else(|e| panic!("bad body ({e:?}): {text}"));
        (head, json)
    }

    /// Reads one chunked-transfer-encoded response to the end.
    fn recv_chunked(&mut self) -> StreamReply {
        let head = self.read_head();
        assert_eq!(head.transfer_encoding, "chunked", "streams must be chunked");
        let mut chunks = Vec::new();
        loop {
            let mut size_line = String::new();
            self.reader
                .read_line(&mut size_line)
                .expect("chunk size line");
            let size = usize::from_str_radix(size_line.trim(), 16)
                .unwrap_or_else(|_| panic!("bad chunk size line: {size_line:?}"));
            if size == 0 {
                let mut crlf = [0u8; 2];
                self.reader.read_exact(&mut crlf).expect("final CRLF");
                break;
            }
            let mut payload = vec![0u8; size];
            self.reader.read_exact(&mut payload).expect("chunk payload");
            let mut crlf = [0u8; 2];
            self.reader.read_exact(&mut crlf).expect("chunk CRLF");
            chunks.push(String::from_utf8(payload).expect("UTF-8 chunk"));
        }
        StreamReply { head, chunks }
    }
}

/// Deterministic pseudo-random CSV (same generator as `streaming_e2e`).
fn gen_csv(rows: usize, attrs: usize, card: u64) -> Vec<u8> {
    let mut out = String::new();
    for a in 0..attrs {
        if a > 0 {
            out.push(',');
        }
        out.push_str(&format!("C{a}"));
    }
    out.push('\n');
    let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..rows {
        for a in 0..attrs {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            if a > 0 {
                out.push(',');
            }
            out.push_str(&format!("v{}", (state >> 33) % card));
        }
        out.push('\n');
    }
    out.into_bytes()
}

fn upload(conn: &mut Conn, name: &str, csv: &[u8]) {
    conn.send("POST", &format!("/v1/datasets/{name}"), csv, false);
    let (head, body) = conn.recv();
    assert_eq!(head.status, 200, "{body:?}");
}

/// The rank key of a streamed heap entry, recovered from its JSON: the
/// error row count first, then the LHS size — enough of the full
/// `(g3_rows, |lhs|, rhs, lhs)` key to check ordering and improvement.
fn entry_key(entry: &Json) -> (usize, usize) {
    let g3_rows = entry.get("g3_rows").unwrap().as_usize().unwrap();
    let fd = entry.get("fd").unwrap().as_str().unwrap();
    let lhs = fd.split(" -> ").next().unwrap();
    let inner = lhs.trim_start_matches('{').trim_end_matches('}');
    let lhs_len = if inner.is_empty() {
        0
    } else {
        inner.split(',').count()
    };
    (g3_rows, lhs_len)
}

/// Splits a ranked stream into (level lines, topk events, trailer).
fn split_stream(objects: &[Json]) -> (Vec<&Json>, Vec<&Json>, &Json) {
    let (trailer, rest) = objects.split_last().expect("non-empty stream");
    assert!(trailer.get("summary").is_some(), "last line is the trailer");
    let mut levels = Vec::new();
    let mut events = Vec::new();
    for obj in rest {
        match obj.get("event").and_then(|e| e.as_str()) {
            Some("topk") => events.push(obj),
            Some(other) => panic!("unknown event tag {other:?}"),
            None => levels.push(obj),
        }
    }
    (levels, events, trailer)
}

#[test]
fn ranked_stream_interleaves_monotone_topk_events() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut conn = Conn::open(addr);
    upload(&mut conn, "deep", &gen_csv(3000, 10, 4));

    conn.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"deep","top_k":8,"stream":true}"#,
        false,
    );
    let reply = conn.recv_chunked();
    assert_eq!(reply.head.status, 200);
    assert_eq!(reply.head.deprecation, None, "/v1 is not deprecated");

    let objects = reply.objects();
    let (levels, events, trailer) = split_stream(&objects);
    assert!(!levels.is_empty(), "ranked streams still carry level lines");
    assert!(
        events.len() >= 2,
        "want repeated heap improvement, got {} topk events",
        events.len()
    );

    // Each snapshot is emitted after its level's line and is internally
    // sorted best-first; successive snapshots only ever improve — the heap
    // grows, and every held position gets a no-worse entry.
    let mut prev_heap: Option<Vec<(usize, usize)>> = None;
    let mut prev_level = 0;
    for ev in &events {
        let level = ev.get("level").unwrap().as_usize().unwrap();
        assert!(level > prev_level, "one snapshot per improved level");
        prev_level = level;
        let heap: Vec<(usize, usize)> = ev
            .get("heap")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(entry_key)
            .collect();
        assert!(heap.len() <= 8, "heap respects k");
        for pair in heap.windows(2) {
            assert!(pair[0] <= pair[1], "heap is ordered best-first: {heap:?}");
        }
        if let Some(prev) = &prev_heap {
            assert!(heap.len() >= prev.len(), "the heap never shrinks");
            for (i, old) in prev.iter().enumerate() {
                assert!(
                    heap[i] <= *old,
                    "position {i} regressed: {:?} after {:?}",
                    heap[i],
                    old
                );
            }
        }
        prev_heap = Some(heap);
    }

    // The trailer's ranked array is the final snapshot verbatim, and the
    // ranked stats ride in the summary.
    let summary = trailer.get("summary").unwrap();
    let ranked = summary.get("ranked").unwrap().as_array().unwrap();
    let last = events
        .last()
        .unwrap()
        .get("heap")
        .unwrap()
        .as_array()
        .unwrap();
    assert_eq!(ranked, last, "trailer heap == last topk snapshot");
    assert_eq!(summary.get("count").unwrap().as_usize(), Some(ranked.len()));
    let stats = summary.get("stats").unwrap();
    for key in ["topk_bound_pruned", "topk_dominated", "topk_improvements"] {
        assert!(stats.get(key).unwrap().as_usize().is_some(), "{key}");
    }
    assert!(stats.get("topk_early_exit_level").is_some());

    // Ranked searches surface in /v1/metrics.
    conn.send("GET", "/v1/metrics", b"", true);
    let (_, metrics) = conn.recv();
    let search = metrics.get("search").unwrap();
    assert_eq!(search.get("topk_searches").unwrap().as_usize(), Some(1));
    assert!(search.get("topk_improvements").unwrap().as_usize().unwrap() >= ranked.len());

    server.shutdown();
    server.wait();
}

#[test]
fn ranked_cache_hits_replay_identical_bytes_per_k() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());
    upload(&mut conn, "small", &gen_csv(500, 6, 4));

    let mut stream = |body: &[u8]| {
        conn.send("POST", "/v1/discover", body, false);
        conn.recv_chunked().payload()
    };
    let first = stream(br#"{"dataset":"small","top_k":5,"stream":true}"#);
    let replay = stream(br#"{"dataset":"small","top_k":5,"stream":true}"#);
    assert_eq!(
        first, replay,
        "a ranked cache hit must replay the recorded stream byte-for-byte"
    );

    // A different k is a different result — it must not hit the k=5 entry
    // (the top 5 is no proof of the top 3's completeness counters, and the
    // streams genuinely differ).
    let smaller = stream(br#"{"dataset":"small","top_k":3,"stream":true}"#);
    assert_ne!(first, smaller, "cache keys must include k");
    let objects = Json::parse(smaller.lines().last().unwrap()).unwrap();
    let ranked = objects
        .get("summary")
        .unwrap()
        .get("ranked")
        .unwrap()
        .as_array()
        .unwrap();
    assert!(ranked.len() <= 3);

    server.shutdown();
    server.wait();
}

#[test]
fn ranked_streams_leave_legacy_level_lines_unchanged() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());
    upload(&mut conn, "small", &gen_csv(500, 6, 4));

    let mut stream = |body: &[u8]| {
        conn.send("POST", "/v1/discover", body, false);
        let reply = conn.recv_chunked();
        assert_eq!(reply.head.status, 200);
        reply.objects()
    };
    let exact = stream(br#"{"dataset":"small","stream":true}"#);
    let ranked = stream(br#"{"dataset":"small","top_k":6,"stream":true}"#);

    // The exact stream is all untagged level lines plus the trailer — the
    // `event` discriminator exists only on ranked additions.
    let (exact_levels, exact_events, _) = split_stream(&exact);
    assert!(exact_events.is_empty(), "exact streams carry no events");
    let (ranked_levels, ranked_events, _) = split_stream(&ranked);
    assert!(!ranked_events.is_empty());

    // A consumer of the old grammar sees the walk it always saw: the
    // ranked stream's level lines are the exact stream's lines for the
    // same prefix of the lattice — same fields, same dependencies — until
    // the ranked walk's early exit cuts the walk short.
    assert!(!ranked_levels.is_empty());
    assert!(ranked_levels.len() <= exact_levels.len());
    for (got, want) in ranked_levels.iter().zip(&exact_levels) {
        assert_eq!(got.get("level").unwrap(), want.get("level").unwrap());
        assert_eq!(
            got.get("fds").unwrap(),
            want.get("fds").unwrap(),
            "per-level exact dependencies must not change under ranking"
        );
        for key in ["level_secs", "partitions_bytes"] {
            assert!(got.get(key).is_some(), "level line keeps {key}");
        }
        assert!(got.get("ranked").is_none() && got.get("heap").is_none());
    }

    server.shutdown();
    server.wait();
}

#[test]
fn top_k_zero_is_legal_and_immediately_empty() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());
    upload(&mut conn, "small", &gen_csv(200, 5, 3));

    // Streamed: no topk events ever fire, the trailer carries the empty
    // heap, and the walk exits at level 1.
    conn.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"small","top_k":0,"stream":true}"#,
        false,
    );
    let reply = conn.recv_chunked();
    assert_eq!(reply.head.status, 200);
    let objects = reply.objects();
    let (_, events, trailer) = split_stream(&objects);
    assert!(events.is_empty(), "k = 0 improves nothing");
    let summary = trailer.get("summary").unwrap();
    assert_eq!(summary.get("ranked").unwrap().as_array(), Some(&[][..]));
    assert_eq!(summary.get("count").unwrap().as_usize(), Some(0));
    assert_eq!(
        summary
            .get("stats")
            .unwrap()
            .get("topk_early_exit_level")
            .unwrap()
            .as_usize(),
        Some(1)
    );

    // Buffered: same shape, plus the flat cover is empty too.
    conn.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"small","top_k":0}"#,
        true,
    );
    let (head, body) = conn.recv();
    assert_eq!(head.status, 200, "{body:?}");
    assert_eq!(body.get("ranked").unwrap().as_array(), Some(&[][..]));
    assert_eq!(body.get("fds").unwrap().as_array(), Some(&[][..]));

    server.shutdown();
    server.wait();
}

#[test]
fn oversized_k_returns_the_whole_pool_without_pruning() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());
    upload(&mut conn, "small", &gen_csv(200, 5, 3));

    conn.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"small","top_k":100000}"#,
        false,
    );
    let (head, body) = conn.recv();
    assert_eq!(head.status, 200, "{body:?}");
    let ranked = body.get("ranked").unwrap().as_array().unwrap();
    assert!(!ranked.is_empty());
    assert!(ranked.len() < 100000, "k larger than any candidate pool");
    let stats = body.get("stats").unwrap();
    // A heap that never fills has no bound to prune against and no reason
    // to stop early.
    assert_eq!(stats.get("topk_bound_pruned").unwrap().as_usize(), Some(0));
    assert!(stats.get("topk_early_exit_level").unwrap().is_null());

    // Every exact minimal dependency is a strict improver, so the exact
    // cover embeds in the unbounded ranked pool with g3 = 0.
    conn.send("POST", "/v1/discover", br#"{"dataset":"small"}"#, true);
    let (_, exact) = conn.recv();
    let exact_fds: Vec<&str> = exact
        .get("fds")
        .unwrap()
        .as_array()
        .unwrap()
        .iter()
        .map(|fd| fd.as_str().unwrap())
        .collect();
    let perfect: Vec<&str> = ranked
        .iter()
        .filter(|e| e.get("g3_rows").unwrap().as_usize() == Some(0))
        .map(|e| e.get("fd").unwrap().as_str().unwrap())
        .collect();
    for fd in &exact_fds {
        assert!(
            perfect.contains(fd),
            "exact dependency {fd} missing from the unbounded ranked pool"
        );
    }

    server.shutdown();
    server.wait();
}

#[test]
fn ranked_mid_stream_disconnect_does_not_kill_the_job() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let mut conn = Conn::open(addr);
    upload(&mut conn, "deep", &gen_csv(3000, 10, 4));

    // Start a ranked stream, read only the head and the first chunk, then
    // hang up mid-walk.
    conn.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"deep","top_k":8,"stream":true}"#,
        false,
    );
    let head = conn.read_head();
    assert_eq!(head.status, 200);
    let mut size_line = String::new();
    conn.reader.read_line(&mut size_line).unwrap();
    let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
    let mut first = vec![0u8; size];
    conn.reader.read_exact(&mut first).unwrap();
    drop(conn);

    // The ranked search keeps running and publishes to the cache.
    let mut probe = Conn::open(addr);
    probe.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"deep","top_k":8}"#,
        false,
    );
    let (head, body) = probe.recv();
    assert_eq!(head.status, 200, "{body:?}");
    assert_eq!(
        body.get("cached").unwrap().as_bool(),
        Some(true),
        "the abandoned ranked stream's search must still land in the cache"
    );
    assert!(!body.get("ranked").unwrap().as_array().unwrap().is_empty());
    probe.send("GET", "/v1/health", b"", true);
    let (head, _) = probe.recv();
    assert_eq!(
        head.status, 200,
        "server stays healthy after the disconnect"
    );

    server.shutdown();
    server.wait();
}

#[test]
fn request_body_rejections_use_the_unknown_field_slug() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());

    // A typo'd field gets its own slug and names the field.
    conn.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"x","bogus":1}"#,
        false,
    );
    let (head, body) = conn.recv();
    assert_eq!(head.status, 400);
    let err = body.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_str(), Some("unknown_field"));
    assert_eq!(
        err.get("message").unwrap().as_str(),
        Some("unknown field `bogus`")
    );

    // Asking for two modes at once is invalid, not unknown.
    conn.send(
        "POST",
        "/v1/discover",
        br#"{"dataset":"x","top_k":2,"epsilon":0.1}"#,
        false,
    );
    let (head, body) = conn.recv();
    assert_eq!(head.status, 400);
    let err = body.get("error").unwrap();
    assert_eq!(err.get("code").unwrap().as_str(), Some("invalid-body"));
    assert!(err
        .get("message")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("mutually exclusive"));

    // Legacy `/discover` never grew `top_k`: flat-string 400, unchanged.
    conn.send("POST", "/discover", br#"{"dataset":"x","top_k":2}"#, true);
    let (head, body) = conn.recv();
    assert_eq!(head.status, 400);
    assert_eq!(head.deprecation.as_deref(), Some("true"));
    assert!(body
        .get("error")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("top_k"));

    server.shutdown();
    server.wait();
}

#[test]
fn legacy_routes_announce_their_sunset() {
    let server = Server::start("127.0.0.1:0", ServerConfig::default()).unwrap();
    let mut conn = Conn::open(server.local_addr());

    conn.send("GET", "/health", b"", false);
    let (head, _) = conn.recv();
    assert_eq!(head.status, 200);
    assert_eq!(head.deprecation.as_deref(), Some("true"));
    assert_eq!(
        head.sunset.as_deref(),
        Some("Sun, 01 Aug 2027 00:00:00 GMT"),
        "legacy routes carry a fixed Sunset date next to Deprecation"
    );

    conn.send("GET", "/v1/health", b"", true);
    let (head, _) = conn.recv();
    assert_eq!(head.status, 200);
    assert_eq!(head.deprecation, None);
    assert_eq!(head.sunset, None, "/v1 never sunsets");

    server.shutdown();
    server.wait();
}
