//! End-to-end tests for the network daemon: a real store served over a
//! real localhost socket, driven by the crate's own [`Client`] and, where
//! the spec talks about malformed traffic, by raw `TcpStream` writes.
//!
//! The headline property pinned here is the one `docs/serving.md` §5/§8
//! promises: a query answered inside a coalesced batch returns **byte
//! identical** JSON to the same query executed solo and offline.

use polygamy_core::prelude::*;
use polygamy_core::DataPolygamy;
use polygamy_serve::protocol::{read_frame, write_frame, Frame, MAX_FRAME_BYTES};
use polygamy_serve::{
    Client, Coalescer, FrameTag, Response, ServeOptions, Server, PROTOCOL_VERSION,
};
use polygamy_store::{execute_pql_batch, Store, StoreSession};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Builds a small two-data-set store (so queries have candidate pairs)
/// in a fresh temp file and returns its path.
fn build_store() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "plst-serve-test-{}-{}.plst",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let mut dp = DataPolygamy::new(
        CityGeometry::city_only(0.0, 0.0, 1.0, 1.0),
        Config::fast_test(),
    );
    for (name, level, bump_at) in [
        ("taxi", 1.0, 100i64),
        ("weather", -2.0, 100),
        ("noise", 0.5, 333),
    ] {
        let meta = DatasetMeta {
            name: name.into(),
            spatial_resolution: SpatialResolution::City,
            temporal_resolution: TemporalResolution::Hour,
            description: String::new(),
        };
        let mut b = DatasetBuilder::new(meta).attribute(AttributeMeta::named("signal"));
        for h in 0..600i64 {
            let v = if h == bump_at || h == bump_at + 137 {
                40.0
            } else {
                level + (h % 24) as f64 * 0.05
            };
            b.push(GeoPoint::new(0.5, 0.5), h * 3_600, &[v]).unwrap();
        }
        dp.add_dataset(b.build().unwrap());
    }
    dp.build_index();
    Store::save(&path, dp.geometry(), dp.index().unwrap()).unwrap();
    path
}

/// Starts a server over `path` on an ephemeral port.
fn start_server(path: &PathBuf, opts: ServeOptions) -> Server {
    let session = Arc::new(StoreSession::open(path).unwrap());
    Server::bind("127.0.0.1:0", session, opts).unwrap()
}

/// The offline reference rendering: each query executed through the CLI's
/// own helper on a fresh session, JSON per line.
fn offline_json(path: &PathBuf, batch: &str) -> String {
    let session = StoreSession::open(path).unwrap();
    execute_pql_batch(&session, batch)
        .unwrap()
        .iter()
        .map(|o| o.to_json())
        .collect::<Vec<_>>()
        .join("\n")
}

const QUERIES: [&str; 4] = [
    "between taxi and weather where permutations = 40 and include insignificant",
    "between taxi and * where score >= 0",
    "between weather, noise and taxi where include insignificant",
    "between * and * where class = salient",
];

#[test]
fn coalesced_response_is_byte_identical_to_solo_and_offline() {
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let addr = server.local_addr();

    // Fire all queries concurrently so the dispatcher has real batches to
    // coalesce, one connection per client.
    let handles: Vec<_> = QUERIES
        .iter()
        .map(|q| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                assert!(client.hello().coalescing);
                assert_eq!(client.hello().protocol, PROTOCOL_VERSION);
                match client.request(q).unwrap() {
                    Response::Results(json) => json,
                    Response::Error(e) => panic!("unexpected error frame: {e:?}"),
                }
            })
        })
        .collect();
    let served: Vec<String> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    for (q, json) in QUERIES.iter().zip(&served) {
        // Solo over the network (fresh connection, nothing to coalesce
        // with) and offline through the CLI helper must all agree.
        let mut solo_client = Client::connect(addr).unwrap();
        let solo = match solo_client.request(q).unwrap() {
            Response::Results(json) => json,
            Response::Error(e) => panic!("unexpected error frame: {e:?}"),
        };
        assert_eq!(json, &solo, "coalesced vs solo for `{q}`");
        assert_eq!(json, &offline_json(&path, q), "served vs offline for `{q}`");
    }
    // At least one relationship-bearing answer, or the test proves nothing.
    assert!(served.iter().any(|j| j.contains("\"relationships\":[{")));

    Client::connect(addr).unwrap().shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn multi_query_request_returns_jsonl_in_request_order() {
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let batch = "between taxi and weather\n# a comment\nbetween noise and *\n";

    let mut client = Client::connect(server.local_addr()).unwrap();
    let json = match client.request(batch).unwrap() {
        Response::Results(json) => json,
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    };
    assert_eq!(json.lines().count(), 2);
    assert_eq!(json, offline_json(&path, batch));

    // An all-comment batch is a valid, empty request (spec §5).
    match client.request("# nothing here\n").unwrap() {
        Response::Results(json) => assert_eq!(json, ""),
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    }

    client.shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn parse_and_query_errors_keep_the_connection_serving() {
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // A parse error answers with the caret diagnostic (spec §6)…
    match client.request("betwixt taxi and weather").unwrap() {
        Response::Error(e) => {
            assert_eq!(e.error, "parse");
            assert!(e.message.contains('^'), "no caret in: {}", e.message);
        }
        Response::Results(r) => panic!("parse error expected, got results: {r}"),
    }
    // …an unknown data set answers with a query error…
    match client.request("between nosuch and taxi").unwrap() {
        Response::Error(e) => assert_eq!(e.error, "query"),
        Response::Results(r) => panic!("query error expected, got results: {r}"),
    }
    // …and the same connection still serves real queries afterwards.
    match client.request("between taxi and weather").unwrap() {
        Response::Results(json) => assert!(json.starts_with("{\"query\":")),
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    }

    client.shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn unknown_and_server_side_tags_answer_bad_frame_and_keep_serving() {
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Swallow the hello.
    assert_eq!(
        read_frame(&mut stream, MAX_FRAME_BYTES)
            .unwrap()
            .unwrap()
            .known_tag(),
        Some(FrameTag::Hello)
    );
    // A tag this protocol version does not know…
    stream.write_all(&2u32.to_le_bytes()).unwrap();
    stream.write_all(b"Z!").unwrap();
    let frame = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
    assert_eq!(frame.known_tag(), Some(FrameTag::Error));
    let text = String::from_utf8(frame.payload).unwrap();
    assert!(text.contains("bad-frame"), "{text}");
    // …and a server-only tag both leave the connection serving.
    write_frame(&mut stream, FrameTag::Result, b"{}").unwrap();
    let frame = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
    assert_eq!(frame.known_tag(), Some(FrameTag::Error));
    write_frame(&mut stream, FrameTag::Query, b"between taxi and weather").unwrap();
    let frame = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
    assert_eq!(frame.known_tag(), Some(FrameTag::Result));

    server.shutdown();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn oversize_frame_answers_bad_frame_and_closes() {
    let path = build_store();
    let opts = ServeOptions {
        max_frame_bytes: 1024,
        ..ServeOptions::default()
    };
    let server = start_server(&path, opts);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap(); // hello
    stream.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
    let frame = read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap();
    assert_eq!(frame.known_tag(), Some(FrameTag::Error));
    let text = String::from_utf8(frame.payload).unwrap();
    assert!(text.contains("bad-frame"), "{text}");
    // After a framing fault the server hangs up (spec §6).
    assert!(read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().is_none());

    server.shutdown();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn slow_client_is_disconnected_at_the_read_timeout() {
    let path = build_store();
    let opts = ServeOptions {
        read_timeout: Duration::from_millis(250),
        ..ServeOptions::default()
    };
    let server = start_server(&path, opts);
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap(); // hello
                                                                // Start a frame but never finish it: the deadline is fixed when the
                                                                // frame wait begins, so stalling mid-frame cannot extend it.
    stream.write_all(&30u32.to_le_bytes()).unwrap();
    stream.write_all(b"Q").unwrap();
    let started = Instant::now();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).unwrap(); // EOF once the server hangs up
    let elapsed = started.elapsed();
    assert!(
        elapsed >= Duration::from_millis(150) && elapsed < Duration::from_secs(5),
        "server closed after {elapsed:?}, expected ≈250ms"
    );

    server.shutdown();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn oversized_request_batch_is_rejected_as_overloaded() {
    let path = build_store();
    let opts = ServeOptions {
        max_inflight: 2,
        ..ServeOptions::default()
    };
    let server = start_server(&path, opts);
    let mut client = Client::connect(server.local_addr()).unwrap();
    let batch = "between taxi and *\nbetween weather and *\nbetween noise and *";
    match client.request(batch).unwrap() {
        Response::Error(e) => assert_eq!(e.error, "overloaded"),
        Response::Results(r) => panic!("overloaded error expected, got: {r}"),
    }
    // The rejection is per-request; the connection still serves.
    match client.request("between taxi and weather").unwrap() {
        Response::Results(json) => assert!(json.starts_with("{\"query\":")),
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    }

    client.shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn frame_of_repeated_names_gets_the_normal_answer_and_the_daemon_keeps_serving() {
    // One frame under the size limit used to be enough to kill the daemon:
    // 80 000 × 50 000 repeated names sized a multi-gigabyte allocation in
    // the plan stage. Repeats must cost nothing beyond parsing them.
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let clause = "where permutations = 40 and include insignificant";
    let plain = format!("between taxi and weather {clause}");
    let repeated = format!(
        "between {} and {} {clause}",
        vec!["taxi"; 80_000].join(", "),
        vec!["weather"; 50_000].join(", ")
    );
    assert!(repeated.len() > 900_000 && repeated.len() < MAX_FRAME_BYTES as usize);

    let mut results = |pql: &str| match client.request(pql).unwrap() {
        Response::Results(json) => json,
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    };
    // The response echoes the query as sent; everything after the echo is
    // byte-identical to the deduplicated query's answer.
    let relationships = |json: &str| json[json.find("\"relationships\":").unwrap()..].to_string();
    let hostile = results(&repeated);
    // The next request on the same connection is served as usual.
    let normal = results(&plain);
    assert_eq!(normal, offline_json(&path, &plain));
    assert!(relationships(&normal).starts_with("\"relationships\":[{"));
    assert_eq!(relationships(&hostile), relationships(&normal));

    client.shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn shutdown_frame_drains_and_refuses_new_requests() {
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let addr = server.local_addr();

    // A connection opened and answered before the drain…
    let mut survivor = Client::connect(addr).unwrap();
    match survivor.request("between taxi and weather").unwrap() {
        Response::Results(_) => {}
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    }

    Client::connect(addr).unwrap().shutdown_server().unwrap();
    let stats = server.wait();
    assert!(stats.requests >= 1);
    assert!(stats.queries >= 1);

    // …is closed by the drain, and the listener is gone: a new request on
    // the old connection fails, and new connections are refused.
    assert!(survivor.request("between taxi and weather").is_err());
    let refused = TcpStream::connect(addr)
        .map(|mut s| {
            // Some platforms accept briefly in the backlog; the server must
            // at least not answer with a hello.
            s.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            let mut buf = [0u8; 1];
            matches!(s.read(&mut buf), Ok(0) | Err(_))
        })
        .unwrap_or(true);
    assert!(refused, "server still serving after drain");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn metrics_frame_returns_monotonic_snapshots_that_track_queries() {
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let mut client = Client::connect(server.local_addr()).unwrap();

    // The registry is process-global and other tests in this binary run in
    // parallel, so everything below asserts *deltas* observed through this
    // one connection, never absolute values.
    let before = client.metrics().unwrap();
    let batch = "between taxi and weather\nbetween noise and *";
    match client.request(batch).unwrap() {
        Response::Results(json) => assert_eq!(json.lines().count(), 2),
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    }
    let after = client.metrics().unwrap();

    // Counters only ever grow (docs/serving.md §10).
    assert!(after.is_monotonic_since(&before));
    // Our own traffic is visible in the deltas: one request carrying two
    // queries, and at least the second of our two M frames.
    assert!(after.counter("serve.requests") > before.counter("serve.requests"));
    assert!(after.counter("serve.queries") >= before.counter("serve.queries") + 2);
    assert!(after.counter("serve.metrics_frames") > before.counter("serve.metrics_frames"));
    // The batch-size histogram exists and reconciles with the counters:
    // one observation per dispatch, its sum the queries those dispatches
    // carried (checked as deltas — parallel tests snapshot mid-dispatch).
    let sizes = after
        .histogram("serve.batch_size")
        .expect("batch size histogram present");
    let sizes_before = before
        .histogram("serve.batch_size")
        .map(|h| (h.count(), h.sum))
        .unwrap_or((0, 0));
    assert!(sizes.count() > sizes_before.0, "our dispatch recorded");
    assert!(sizes.sum >= sizes_before.1 + 2, "our two queries recorded");
    assert!(sizes.sum >= sizes.count(), "every batch has >= 1 query");
    // Executor counters flow into the same snapshot.
    assert!(after.counter("core.queries") >= before.counter("core.queries") + 2);

    client.shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn serial_dispatch_mode_serves_the_same_bytes() {
    let path = build_store();
    let opts = ServeOptions {
        coalesce: false,
        ..ServeOptions::default()
    };
    let server = start_server(&path, opts);
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert!(!client.hello().coalescing);
    for q in QUERIES {
        match client.request(q).unwrap() {
            Response::Results(json) => assert_eq!(json, offline_json(&path, q)),
            Response::Error(e) => panic!("unexpected error frame: {e:?}"),
        }
    }
    let stats = server.stats();
    // Serial mode never merges: one dispatch per request.
    assert_eq!(stats.batches, stats.requests);

    client.shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn coalescer_merges_queued_requests_into_one_dispatch() {
    let path = build_store();
    let session = Arc::new(StoreSession::open(&path).unwrap());
    // No dispatcher thread: submissions park in the queue, so the batch
    // shape is fully deterministic.
    let coalescer = Arc::new(Coalescer::new(Arc::clone(&session), 64));
    let receivers: Vec<_> = QUERIES
        .iter()
        .map(|q| {
            let queries = polygamy_core::pql::parse_batch(q).unwrap();
            (queries.clone(), coalescer.submit(queries).unwrap())
        })
        .collect();
    assert_eq!(coalescer.dispatch_pending(), QUERIES.len());
    let stats = coalescer.stats();
    assert_eq!(stats.batches, 1, "all queued requests must merge");
    assert_eq!(stats.max_batch, QUERIES.len() as u64);
    for (queries, rx) in receivers {
        let results = rx.recv().unwrap().unwrap();
        assert_eq!(results.len(), queries.len());
        // Byte-identity per request against a solo evaluation.
        for (query, rels) in queries.iter().zip(&results) {
            assert_eq!(rels, &session.query(query).unwrap());
        }
    }
    std::fs::remove_file(&path).unwrap();
}

/// A store truncated in place under a lazy daemon: the request whose reads
/// fall past the cut gets a `query` error frame, and the same connection
/// serves the next request (its blobs lie below the cut).
#[test]
fn a_store_truncated_in_place_answers_query_errors_and_keeps_serving() {
    let path = build_store();
    let store = Store::open(&path).unwrap();
    let cut = store.file_bytes().unwrap() / 2;
    let manifest = store.manifest();
    let noise = manifest.dataset_index("noise").unwrap();
    assert!(manifest
        .segments
        .iter()
        .all(|s| s.loc.offset + s.loc.len <= cut));
    let mut noise_fields = manifest
        .segments
        .iter()
        .filter(|s| s.dataset_index == noise);
    assert!(noise_fields.all(|s| s.field.is_some_and(|f| f.offset >= cut)));
    drop(store);

    let session = Arc::new(StoreSession::open_lazy(&path).unwrap());
    let server = Server::bind("127.0.0.1:0", session, ServeOptions::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(cut)
        .unwrap();

    for _ in 0..2 {
        match client
            .request("between taxi and noise where thresholds noise (5.0, 0.9)")
            .unwrap()
        {
            Response::Error(e) => assert_eq!(e.error, "query", "{}", e.message),
            Response::Results(r) => panic!("query error expected, got results: {r}"),
        }
    }
    match client.request("between taxi and noise").unwrap() {
        Response::Results(json) => assert!(json.starts_with("{\"query\":")),
        Response::Error(e) => panic!("unexpected error frame: {e:?}"),
    }

    client.shutdown_server().unwrap();
    server.wait();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn coalescer_isolates_a_failing_request_from_its_batchmates() {
    let path = build_store();
    let session = Arc::new(StoreSession::open(&path).unwrap());
    let coalescer = Coalescer::new(Arc::clone(&session), 64);
    let good = polygamy_core::pql::parse_batch("between taxi and weather").unwrap();
    let bad = polygamy_core::pql::parse_batch("between nosuch and taxi").unwrap();
    let rx_good = coalescer.submit(good.clone()).unwrap();
    let rx_bad = coalescer.submit(bad).unwrap();
    coalescer.dispatch_pending();
    let good_results = rx_good.recv().unwrap().expect("innocent request succeeds");
    assert_eq!(good_results[0], session.query(&good[0]).unwrap());
    assert!(
        rx_bad.recv().unwrap().is_err(),
        "guilty request fails alone"
    );
    std::fs::remove_file(&path).unwrap();
}

mod frame_codec_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any payload round-trips through the codec under any known tag,
        /// and frames concatenate on the wire without resynchronization.
        #[test]
        fn frames_roundtrip(
            payload in proptest::collection::vec(0u8..u8::MAX, 0..512),
            tag_pick in 0usize..6,
            extra in proptest::collection::vec(0u8..u8::MAX, 0..64),
        ) {
            let tag = [
                FrameTag::Hello,
                FrameTag::Query,
                FrameTag::Result,
                FrameTag::Error,
                FrameTag::Shutdown,
                FrameTag::Metrics,
            ][tag_pick];
            let mut wire = Vec::new();
            write_frame(&mut wire, tag, &payload).unwrap();
            write_frame(&mut wire, FrameTag::Query, &extra).unwrap();
            let mut r = wire.as_slice();
            let first = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
            prop_assert_eq!(first, Frame::new(tag, payload.clone()));
            let second = read_frame(&mut r, MAX_FRAME_BYTES).unwrap().unwrap();
            prop_assert_eq!(second, Frame::new(FrameTag::Query, extra.clone()));
            prop_assert!(read_frame(&mut r, MAX_FRAME_BYTES).unwrap().is_none());
        }
    }
}

/// Hostile wire bytes (`docs/serving.md` §2): whatever a peer sends,
/// `read_frame` answers with a frame, a clean end, or a typed
/// [`FrameError`] — never a panic — and it refuses an oversize length
/// having read nothing past the prefix.
mod hostile_frames {
    use super::*;
    use polygamy_serve::protocol::FrameError;
    use proptest::prelude::*;

    /// A small cap, so that short generated streams reach it.
    const CAP: u32 = 48;

    /// A reader over a byte slice that counts what it hands out.
    struct Counting<'a> {
        rest: &'a [u8],
        consumed: usize,
    }

    impl Read for Counting<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.rest.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    /// Reads `wire` frame by frame until it ends or breaks, checking every
    /// outcome against the codec's contract; returns the frames read.
    fn read_all(wire: &[u8]) -> Result<Vec<Frame>, TestCaseError> {
        let mut r = Counting {
            rest: wire,
            consumed: 0,
        };
        let mut frames = Vec::new();
        loop {
            let before = r.consumed;
            match read_frame(&mut r, CAP) {
                Ok(Some(frame)) => {
                    prop_assert!(frame.payload.len() < CAP as usize);
                    prop_assert_eq!(r.consumed - before, 5 + frame.payload.len());
                    frames.push(frame);
                }
                Ok(None) => {
                    prop_assert!(r.consumed == wire.len(), "`None` only at the end");
                    return Ok(frames);
                }
                Err(FrameError::Oversize { declared, max }) => {
                    prop_assert!(declared > CAP && max == CAP);
                    prop_assert!(r.consumed - before == 4, "oversize read past the prefix");
                    return Ok(frames);
                }
                Err(FrameError::Empty) => {
                    prop_assert_eq!(r.consumed - before, 4);
                    return Ok(frames);
                }
                Err(FrameError::TruncatedFrame) => {
                    prop_assert!(r.consumed == wire.len(), "truncation before the end");
                    return Ok(frames);
                }
                Err(FrameError::Io(e)) => {
                    return Err(TestCaseError::fail(format!("untyped i/o error: {e}")));
                }
            }
        }
    }

    /// A valid stream of frames whose payloads are `bytes` cut at `cuts`.
    fn valid_stream(bytes: &[u8], cuts: &[usize]) -> (Vec<u8>, Vec<Frame>) {
        let tags = [
            FrameTag::Query,
            FrameTag::Result,
            FrameTag::Metrics,
            FrameTag::Error,
        ];
        let (mut wire, mut frames, mut rest) = (Vec::new(), Vec::new(), bytes);
        for (i, &cut) in cuts.iter().enumerate() {
            let (payload, tail) = rest.split_at(cut.min(rest.len()));
            let frame = Frame::new(tags[i % tags.len()], payload.to_vec());
            write_frame(&mut wire, tags[i % tags.len()], payload).unwrap();
            frames.push(frame);
            rest = tail;
        }
        (wire, frames)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Arbitrary bytes: wide ones, whose prefixes are mostly oversize,
        /// and bytes from a tiny alphabet, whose prefixes are mostly small.
        #[test]
        fn arbitrary_bytes_end_typed(
            wire in prop_oneof![
                proptest::collection::vec(0u8..=u8::MAX, 0..160),
                proptest::collection::vec(0u8..3, 0..160),
            ],
        ) {
            read_all(&wire)?;
        }

        /// A valid multi-frame stream reads back exactly; cut anywhere or
        /// with any one byte flipped, it still ends in a frame, a clean
        /// end or a typed error.
        #[test]
        fn damaged_streams_end_typed(
            bytes in proptest::collection::vec(0u8..=u8::MAX, 0..120),
            cuts in proptest::collection::vec(0usize..40, 1..6),
            cut in 0usize..usize::MAX,
            position in 0usize..usize::MAX,
            flip in 1u8..=u8::MAX,
        ) {
            let (wire, frames) = valid_stream(&bytes, &cuts);
            prop_assert_eq!(read_all(&wire)?, frames);
            let truncated = &wire[..cut % (wire.len() + 1)];
            let read = read_all(truncated)?;
            prop_assert!(frames.starts_with(&read), "a cut stream reads a prefix of its frames");
            let mut mutated = wire.clone();
            mutated[position % wire.len()] ^= flip;
            read_all(&mutated)?;
        }
    }
}
