//! Cross-connection batch coalescing (`docs/serving.md` §8).
//!
//! Every connection thread submits its parsed request here instead of
//! evaluating it. A single dispatcher thread drains the admission queue
//! and evaluates **everything that is waiting** as one flat
//! [`StoreSession::query_many`] call — so while one batch is being
//! evaluated, newly arriving requests pile up and form the next batch.
//! The executor's pair/clause dedup and the segment LRU thereby pay off
//! *across* connections, not just within one request, and a burst of N
//! one-query requests costs one pool dispatch instead of N.
//!
//! The guarantees the spec makes, and how this module keeps them:
//!
//! * **Determinism / byte-identity** — the flat executor's results are
//!   independent of batch composition and worker count (the determinism
//!   matrix in `tests/integration_determinism.rs` pins this), so a query
//!   answered inside a coalesced batch returns exactly the bytes it
//!   would have returned solo.
//! * **Error isolation** — `query_many` fails a whole batch on the first
//!   erroring query. A failed multi-request batch is re-dispatched one
//!   *request* at a time, so a request naming an unknown data set gets
//!   its own error frame and innocent neighbours still succeed.
//! * **Backpressure** — admission is capped at `max_inflight` *queries*
//!   (not requests). When the cap is reached, [`Coalescer::submit`]
//!   blocks the connection thread, which stops reading from its socket:
//!   TCP itself then pushes back on the client.
//! * **Drain** — after [`Coalescer::close`], new submissions are refused
//!   (`Rejection::ShuttingDown`), queued work is still dispatched, and
//!   the dispatcher exits once the queue is empty.

use polygamy_core::query::RelationshipQuery;
use polygamy_core::relationship::Relationship;
use polygamy_obs::{count, global, names, BATCH_SIZE_BUCKETS};
use polygamy_store::{StoreError, StoreSession};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};

/// The per-request result: one relationship vector per query in the
/// request, or the store error that failed the request.
pub type BatchResult = Result<Vec<Vec<Relationship>>, StoreError>;

/// Why a submission was refused at the door.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The server is draining; no new work is admitted.
    ShuttingDown,
    /// A single request carried more queries than `max_inflight` — it
    /// could never be admitted, so blocking would deadlock.
    TooLarge {
        /// Queries in the refused request.
        queries: usize,
        /// The admission cap.
        max_inflight: usize,
    },
}

/// One admitted request: its queries plus the channel its connection
/// thread is blocked on.
struct Pending {
    queries: Vec<RelationshipQuery>,
    tx: std::sync::mpsc::Sender<BatchResult>,
}

/// Admission-queue state guarded by one mutex.
struct State {
    queue: Vec<Pending>,
    /// Queries admitted but not yet answered (queued or evaluating).
    inflight: usize,
    open: bool,
}

/// Counters the server reports (`Server::stats`) and the load generator
/// folds into benchmark snapshots.
#[derive(Debug, Default)]
pub struct CoalesceCounters {
    /// Requests admitted.
    pub requests: AtomicU64,
    /// Individual queries admitted.
    pub queries: AtomicU64,
    /// `query_many` dispatches issued (fallback re-dispatches included).
    pub batches: AtomicU64,
    /// Largest number of queries evaluated in one dispatch.
    pub max_batch: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Requests admitted.
    pub requests: u64,
    /// Individual queries admitted.
    pub queries: u64,
    /// `query_many` dispatches issued.
    pub batches: u64,
    /// Largest single dispatch, in queries.
    pub max_batch: u64,
}

impl CoalesceStats {
    /// Mean queries per dispatch (0 when nothing was dispatched).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.queries as f64 / self.batches as f64
        }
    }
}

/// The admission queue plus the session it dispatches against.
///
/// Connection threads call [`Coalescer::submit`] and block on the
/// returned receiver; the server runs [`Coalescer::dispatch_loop`] on a
/// dedicated thread. Tests may instead park submissions and call
/// [`Coalescer::dispatch_pending`] directly to force a deterministic
/// batch shape.
pub struct Coalescer {
    session: Arc<StoreSession>,
    state: Mutex<State>,
    /// Wakes the dispatcher when work arrives or the queue closes.
    work: Condvar,
    /// Wakes blocked submitters when in-flight work completes.
    space: Condvar,
    max_inflight: usize,
    counters: CoalesceCounters,
}

impl Coalescer {
    /// Creates a coalescer over `session` admitting at most
    /// `max_inflight` queries at a time (clamped to ≥ 1).
    pub fn new(session: Arc<StoreSession>, max_inflight: usize) -> Self {
        Self {
            session,
            state: Mutex::new(State {
                queue: Vec::new(),
                inflight: 0,
                open: true,
            }),
            work: Condvar::new(),
            space: Condvar::new(),
            max_inflight: max_inflight.max(1),
            counters: CoalesceCounters::default(),
        }
    }

    /// Submits one request (a non-empty list of queries). Blocks while
    /// the in-flight cap is reached; once admitted, returns the receiver
    /// the dispatcher will answer on.
    pub fn submit(
        &self,
        queries: Vec<RelationshipQuery>,
    ) -> Result<Receiver<BatchResult>, Rejection> {
        debug_assert!(!queries.is_empty(), "empty requests are answered inline");
        if queries.len() > self.max_inflight {
            return Err(Rejection::TooLarge {
                queries: queries.len(),
                max_inflight: self.max_inflight,
            });
        }
        let mut state = self.state.lock().expect("coalescer poisoned");
        loop {
            if !state.open {
                return Err(Rejection::ShuttingDown);
            }
            if state.inflight + queries.len() <= self.max_inflight {
                break;
            }
            state = self.space.wait(state).expect("coalescer poisoned");
        }
        state.inflight += queries.len();
        self.note_admission(queries.len());
        global().gauge(names::SERVE_QUEUE_DEPTH).add(1);
        let (tx, rx) = channel();
        state.queue.push(Pending { queries, tx });
        drop(state);
        self.work.notify_one();
        Ok(rx)
    }

    /// Runs the dispatcher until [`Coalescer::close`] is called *and* the
    /// queue has drained — the body of the server's dispatcher thread.
    pub fn dispatch_loop(&self) {
        loop {
            let batch = {
                let mut state = self.state.lock().expect("coalescer poisoned");
                while state.queue.is_empty() && state.open {
                    state = self.work.wait(state).expect("coalescer poisoned");
                }
                if state.queue.is_empty() {
                    return; // closed and drained
                }
                std::mem::take(&mut state.queue)
            };
            global()
                .gauge(names::SERVE_QUEUE_DEPTH)
                .add(-(batch.len() as i64));
            self.evaluate(batch);
        }
    }

    /// Dispatches whatever is queued right now, once. Returns the number
    /// of requests evaluated. (Primarily for tests, which use it to pin
    /// an exact batch shape; the server uses [`Coalescer::dispatch_loop`].)
    pub fn dispatch_pending(&self) -> usize {
        let batch = std::mem::take(&mut self.state.lock().expect("coalescer poisoned").queue);
        let n = batch.len();
        global().gauge(names::SERVE_QUEUE_DEPTH).add(-(n as i64));
        self.evaluate(batch);
        n
    }

    /// Evaluates one request on the *calling* thread — the serial-dispatch
    /// baseline mode (`ServeOptions::coalesce = false`). Admission
    /// accounting, backpressure and drain refusal are identical to
    /// [`Coalescer::submit`]; only the dispatch differs: every request
    /// pays its own `query_many` call.
    pub fn execute_inline(&self, queries: &[RelationshipQuery]) -> Result<BatchResult, Rejection> {
        if queries.len() > self.max_inflight {
            return Err(Rejection::TooLarge {
                queries: queries.len(),
                max_inflight: self.max_inflight,
            });
        }
        let mut state = self.state.lock().expect("coalescer poisoned");
        loop {
            if !state.open {
                return Err(Rejection::ShuttingDown);
            }
            if state.inflight + queries.len() <= self.max_inflight {
                break;
            }
            state = self.space.wait(state).expect("coalescer poisoned");
        }
        state.inflight += queries.len();
        drop(state);
        self.note_admission(queries.len());
        self.note_dispatch(queries.len());
        let result = self.session.query_many(queries);
        self.release(queries.len());
        Ok(result)
    }

    /// Refuses new submissions and wakes everyone; queued work still
    /// runs. Idempotent.
    pub fn close(&self) {
        self.state.lock().expect("coalescer poisoned").open = false;
        self.work.notify_all();
        self.space.notify_all();
    }

    /// A snapshot of the admission/dispatch counters.
    pub fn stats(&self) -> CoalesceStats {
        CoalesceStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            queries: self.counters.queries.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            max_batch: self.counters.max_batch.load(Ordering::Relaxed),
        }
    }

    /// Evaluates a drained batch: one flat `query_many` over every
    /// request's queries, split back per request; on error, falls back to
    /// per-request dispatch so the failure is isolated.
    fn evaluate(&self, batch: Vec<Pending>) {
        if batch.is_empty() {
            return;
        }
        let flat: Vec<RelationshipQuery> = batch
            .iter()
            .flat_map(|p| p.queries.iter().cloned())
            .collect();
        self.note_dispatch(flat.len());
        match self.session.query_many(&flat) {
            Ok(mut results) => {
                // Split the flat result vector back into per-request runs,
                // from the tail to avoid re-allocating.
                for pending in batch.iter().rev() {
                    let run = results.split_off(results.len() - pending.queries.len());
                    let _ = pending.tx.send(Ok(run));
                }
            }
            Err(_) if batch.len() > 1 => {
                // Which request poisoned the batch is unknowable from one
                // error; re-dispatch per request so only the guilty one
                // fails. Results stay byte-identical: the executor is
                // batch-composition-independent.
                for pending in &batch {
                    self.note_dispatch(pending.queries.len());
                    let _ = pending.tx.send(self.session.query_many(&pending.queries));
                }
            }
            Err(e) => {
                let _ = batch[0].tx.send(Err(e));
            }
        }
        self.release(batch.iter().map(|p| p.queries.len()).sum());
    }

    /// Counts one admitted request of `queries` queries, here and in the
    /// registry.
    fn note_admission(&self, queries: usize) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let n = queries as u64;
        self.counters.queries.fetch_add(n, Ordering::Relaxed);
        count(names::SERVE_REQUESTS, 1);
        count(names::SERVE_QUERIES, n);
        global().gauge(names::SERVE_INFLIGHT).add(queries as i64);
    }

    /// Returns `answered` queries' admission slots and wakes blocked
    /// submitters.
    fn release(&self, answered: usize) {
        let mut state = self.state.lock().expect("coalescer poisoned");
        state.inflight = state.inflight.saturating_sub(answered);
        drop(state);
        global()
            .gauge(names::SERVE_INFLIGHT)
            .add(-(answered as i64));
        self.space.notify_all();
    }

    /// The single point every dispatch passes through — the registry's
    /// batch-size histogram observes exactly one sample per `query_many`
    /// call, so its total count equals `serve.batches` and its sum equals
    /// the queries dispatched (re-dispatches included).
    fn note_dispatch(&self, queries: usize) {
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .max_batch
            .fetch_max(queries as u64, Ordering::Relaxed);
        count(names::SERVE_BATCHES, 1);
        global()
            .histogram(names::SERVE_BATCH_SIZE, BATCH_SIZE_BUCKETS)
            .record(queries as u64);
    }
}

impl std::fmt::Debug for Coalescer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Coalescer")
            .field("max_inflight", &self.max_inflight)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
