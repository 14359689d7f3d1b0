//! # polygamy-serve — the network PQL daemon
//!
//! The paper's interactive model (Section 5.3) assumes many analysts
//! querying one shared index. This crate is that serving layer: a
//! long-running TCP daemon speaking a simple length-prefixed protocol —
//! PQL text in, canonical JSON out, typed error frames — over **one**
//! shared [`polygamy_store::StoreSession`] (eager or lazy demand-paged),
//! so every connection benefits from the same segment LRU and query
//! cache.
//!
//! The **normative wire specification** lives in
//! [`docs/serving.md`](https://github.com/paper-repro/data-polygamy/blob/main/docs/serving.md)
//! at the repository root — frame layout, payload schemas, coalescing
//! semantics, the limits table and the versioning policy. The modules
//! here cite its sections; where prose and code disagree, the spec wins
//! and the code is wrong.
//!
//! ## Batch coalescing
//!
//! The core mechanism ([`coalesce`]): requests from concurrent
//! connections are *admitted into a queue*, and the requesting threads
//! combine them — one that finds no batch running leads, evaluating
//! everything queued as one flat
//! [`StoreSession::query_many`](polygamy_store::StoreSession::query_many)
//! call, while the others wait for its answers or for the lead of the
//! next batch. There is no dispatcher thread. The flat executor's
//! pair/clause dedup and the store's segment cache therefore pay off
//! **across users**, not just within one batch —
//! and because the executor is deterministic and batch-composition
//! independent, a coalesced response is byte-identical to the same query
//! served solo (or offline via `polygamy-store query --json`).
//!
//! ## Quick start
//!
//! ```sh
//! polygamy-store serve city.plst --addr 127.0.0.1:7461 --lazy
//! ```
//!
//! then, from any process:
//!
//! ```no_run
//! use polygamy_serve::{Client, Response};
//!
//! let mut client = Client::connect("127.0.0.1:7461").unwrap();
//! match client.request("between taxi and weather where score >= 0.6").unwrap() {
//!     Response::Results(json_lines) => println!("{json_lines}"),
//!     Response::Error(e) => eprintln!("{}: {}", e.error, e.message),
//! }
//! ```
//!
//! The `polygamy-store` CLI binary itself lives in this crate (its
//! `serve` subcommand needs the daemon; everything else it does comes
//! from `polygamy_store`), and `loadgen` in `crates/bench` drives a
//! daemon with N concurrent clients to measure served-queries/sec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod coalesce;
pub mod protocol;
pub mod server;

pub use client::{Client, ClientError, Response};
pub use coalesce::{CoalesceStats, Coalescer, Rejection};
pub use protocol::{Frame, FrameError, FrameTag, MAX_FRAME_BYTES, PROTOCOL_VERSION};
pub use server::{Hello, ServeOptions, Server, WireError};
