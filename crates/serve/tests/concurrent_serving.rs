//! Concurrent traffic over a live daemon (`docs/serving.md` §8): the
//! requesting connection threads take turns leading batches, and whatever
//! shape the batches take, every response is the offline bytes.
//!
//! This binary reads the process-wide metrics registry, so its tests run
//! one at a time and no other test binary's traffic reaches it.

mod common;

use common::{build_store, offline_json, start_server};
use polygamy_serve::protocol::{read_frame, write_frame, MAX_FRAME_BYTES};
use polygamy_serve::{Client, FrameTag, Response, ServeOptions, Server};
use std::net::TcpStream;
use std::sync::{mpsc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Held by each test: the registry deltas below assume no other traffic.
static SERIAL: Mutex<()> = Mutex::new(());

fn results(client: &mut Client, pql: &str) -> String {
    match client.request(pql).unwrap() {
        Response::Results(json) => json,
        Response::Error(e) => panic!("unexpected error frame for `{pql}`: {e:?}"),
    }
}

/// Shuts `server` down and waits for it, failing instead of hanging when
/// the drain does not finish.
fn shut_down(server: Server) {
    server.shutdown();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(server.wait()).unwrap());
    let stats = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("Server::wait returns after shutdown");
    assert_eq!(stats.inflight, 0);
}

/// Eight connections at once: four send one identical batch, four send a
/// query each that no other connection asks.
#[test]
fn identical_and_distinct_requests_at_once_answer_the_offline_bytes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let addr = server.local_addr();
    let shared = "between taxi and * where score >= 0\n\
                  between weather, noise and taxi where include insignificant\n\
                  between * and * where class = salient";
    let requests: Vec<String> = (0..8)
        .map(|i| match i {
            0..4 => shared.to_owned(),
            _ => format!(
                "between taxi and weather where permutations = {} and include insignificant",
                40 + i
            ),
        })
        .collect();
    let before = polygamy_obs::global().snapshot();
    let start = Barrier::new(requests.len());
    let served: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (requests.iter())
            .map(|pql| {
                let start = &start;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    start.wait();
                    results(&mut client, pql)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let after = polygamy_obs::global().snapshot();

    for (pql, json) in requests.iter().zip(&served) {
        assert_eq!(
            json,
            &offline_json(&path, pql),
            "served vs offline for `{pql}`"
        );
    }
    assert!(served.iter().any(|j| j.contains("\"relationships\":[{")));
    // Every admitted query was dispatched exactly once, in batches that
    // never outnumber the requests.
    let queries = after.counter("serve.queries") - before.counter("serve.queries");
    let batch_sum =
        |s: &polygamy_obs::MetricsSnapshot| s.histogram("serve.batch_size").map_or(0, |h| h.sum);
    assert_eq!(queries, 4 * 3 + 4);
    assert_eq!(batch_sum(&after) - batch_sum(&before), queries);
    let stats = server.stats();
    assert_eq!((stats.requests, stats.queries), (8, queries));
    assert!(stats.batches <= stats.requests, "{stats:?}");
    assert_eq!(stats.inflight, 0);

    shut_down(server);
    std::fs::remove_file(&path).unwrap();
}

/// A client that sends a heavy request and hangs up at once: its
/// connection thread still leads that batch to the end, the request
/// queued behind it is answered, and the drain finishes.
#[test]
fn a_request_queued_behind_an_abandoned_one_is_answered() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let path = build_store();
    let server = start_server(&path, ServeOptions::default());
    let heavy = b"between * and * where permutations = 30000 and include insignificant";
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    read_frame(&mut stream, MAX_FRAME_BYTES).unwrap().unwrap(); // hello
    write_frame(&mut stream, FrameTag::Query, heavy).unwrap();
    drop(stream);
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.stats().requests == 0 {
        assert!(
            Instant::now() < deadline,
            "the heavy request was never admitted"
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let light = "between taxi and weather";
    let mut client = Client::connect(server.local_addr()).unwrap();
    assert_eq!(results(&mut client, light), offline_json(&path, light));
    let stats = server.stats();
    assert_eq!((stats.requests, stats.batches), (2, 2));
    drop(client);

    shut_down(server);
    std::fs::remove_file(&path).unwrap();
}
