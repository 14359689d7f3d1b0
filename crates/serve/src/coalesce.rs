//! Cross-connection batch coalescing by combining (`docs/serving.md` §8).
//!
//! Every connection thread submits its parsed request here, and the
//! requesting threads themselves take turns evaluating: a submitter that
//! finds no batch running becomes the **leader**, takes **everything that
//! is queued** and evaluates it as one flat [`StoreSession::query_many`]
//! call — so while one batch is being evaluated, newly arriving requests
//! pile up and form the next batch, which one of their own threads leads.
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
//!   (`Rejection::ShuttingDown`); every request already queued still has
//!   its submitter waiting on it, so queued work is still evaluated.

use polygamy_core::query::RelationshipQuery;
use polygamy_core::relationship::Relationship;
use polygamy_obs::{count, global, names, BATCH_SIZE_BUCKETS};
use polygamy_store::{StoreError, StoreSession};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// The per-request result: one relationship vector per query in the
/// request, or the store error that failed the request.
pub type BatchResult = Result<Vec<Vec<Relationship>>, StoreError>;

/// Why a submission got no answer.
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
    /// The request was admitted, but the batch evaluating it panicked
    /// before answering — a bug, not a protocol state.
    Abandoned,
}

/// One admitted request: its queries plus the channel its submitter
/// blocks on.
struct Pending {
    /// Shared with the submitter, which renders the answer from them.
    queries: Arc<[RelationshipQuery]>,
    tx: Sender<Wake>,
}

/// What wakes a submitter whose request is queued.
enum Wake {
    /// A batch answered the request.
    Answer(BatchResult),
    /// The previous leader is done: take the queue and lead.
    Lead,
}

/// Admission-queue state and counters, guarded by one mutex.
struct State {
    /// Requests waiting for a leader.
    queue: Vec<Pending>,
    stats: CoalesceStats,
    open: bool,
    /// A leader is evaluating a batch, or has been handed the lead.
    busy: bool,
}

/// A point-in-time copy of the counters the server reports
/// (`Server::stats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalesceStats {
    /// Requests admitted.
    pub requests: u64,
    /// Individual queries admitted.
    pub queries: u64,
    /// `query_many` dispatches issued (fallback re-dispatches included).
    pub batches: u64,
    /// Largest single dispatch, in queries.
    pub max_batch: u64,
    /// Queries admitted and not yet answered (0 once traffic quiesces).
    pub inflight: u64,
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

/// The admission queue plus the session its leaders dispatch against.
///
/// Connection threads call [`Coalescer::submit`], which admits, queues
/// and returns the request's answer — having led the batch that computed
/// it, or waited for another submitter's batch to. Tests call
/// [`Coalescer::dispatch`], the batch step itself, to pin a batch shape
/// without threads.
pub struct Coalescer {
    session: Arc<StoreSession>,
    state: Mutex<State>,
    /// Wakes submitters blocked at the admission cap when a batch frees
    /// slots or the queue closes.
    space: Condvar,
    max_inflight: usize,
}

impl Coalescer {
    /// Creates a coalescer over `session` admitting at most
    /// `max_inflight` queries at a time (clamped to ≥ 1).
    pub fn new(session: Arc<StoreSession>, max_inflight: usize) -> Self {
        Self {
            session,
            state: Mutex::new(State {
                queue: Vec::new(),
                stats: CoalesceStats::default(),
                open: true,
                busy: false,
            }),
            space: Condvar::new(),
            max_inflight: max_inflight.max(1),
        }
    }

    /// Submits one request (a non-empty list of queries) and returns its
    /// answer. Blocks while the in-flight cap is reached, then queues the
    /// request. If no batch is running, this thread leads one: it takes
    /// everything queued — its own request among it — and evaluates it
    /// with [`Coalescer::dispatch`]. Otherwise it sleeps until a batch
    /// answers it, or until the running batch's leader, done, hands it the
    /// lead of the next batch.
    pub fn submit(&self, queries: Arc<[RelationshipQuery]>) -> Result<BatchResult, Rejection> {
        debug_assert!(!queries.is_empty(), "empty requests are answered inline");
        if queries.len() > self.max_inflight {
            return Err(Rejection::TooLarge {
                queries: queries.len(),
                max_inflight: self.max_inflight,
            });
        }
        let n = queries.len() as u64;
        let mut state = self.lock();
        loop {
            if !state.open {
                return Err(Rejection::ShuttingDown);
            }
            if state.stats.inflight + n <= self.max_inflight as u64 {
                break;
            }
            state = self.space.wait(state).expect("coalescer poisoned");
        }
        state.stats.inflight += n;
        state.stats.requests += 1;
        state.stats.queries += n;
        count(names::SERVE_REQUESTS, 1);
        count(names::SERVE_QUERIES, n);
        global().gauge(names::SERVE_INFLIGHT).add(n as i64);
        global().gauge(names::SERVE_QUEUE_DEPTH).add(1);
        let (tx, rx) = channel();
        state.queue.push(Pending { queries, tx });
        let idle = !state.busy;
        state.busy = true;
        drop(state);
        if idle {
            self.lead();
        }
        loop {
            match rx.recv() {
                Ok(Wake::Answer(result)) => return Ok(result),
                // Handed the lead: this request is still queued.
                Ok(Wake::Lead) => self.lead(),
                Err(_) => return Err(Rejection::Abandoned),
            }
        }
    }

    /// Evaluates `requests` as one batch and returns one result per
    /// request, in order: one flat `query_many` over every request's
    /// queries, split back per request; on error, falls back to one
    /// dispatch per request so the failure is isolated. Every dispatch is
    /// counted (`serve.batches`, `serve.batch_size`). Admission is not
    /// involved: this is the step a leader runs on what it took.
    pub fn dispatch(&self, requests: &[&[RelationshipQuery]]) -> Vec<BatchResult> {
        if let [only] = requests {
            self.note_dispatch(only.len());
            return vec![self.session.query_many(only)];
        }
        let flat: Vec<RelationshipQuery> = requests.concat();
        self.note_dispatch(flat.len());
        match self.session.query_many(&flat) {
            Ok(results) => {
                let mut results = results.into_iter();
                (requests.iter())
                    .map(|r| Ok(results.by_ref().take(r.len()).collect()))
                    .collect()
            }
            // Which request poisoned the batch is unknowable from one
            // error; re-dispatch per request so only the guilty one fails.
            // Results stay byte-identical: the executor is
            // batch-composition-independent.
            Err(_) => (requests.iter())
                .map(|r| {
                    self.note_dispatch(r.len());
                    self.session.query_many(r)
                })
                .collect(),
        }
    }

    /// Refuses new submissions and wakes everyone; queued work still
    /// runs. Idempotent.
    pub fn close(&self) {
        self.lock().open = false;
        self.space.notify_all();
    }

    /// A snapshot of the admission/dispatch counters.
    pub fn stats(&self) -> CoalesceStats {
        self.lock().stats
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("coalescer poisoned")
    }

    /// The leader's turn: takes everything queued, evaluates it, answers
    /// each request, then hands the lead on. The hand-off runs in a drop
    /// guard, so a panic inside the evaluation still frees the batch's
    /// admission slots and passes the lead on; the submitters it did not
    /// answer see their senders dropped and report the request abandoned.
    fn lead(&self) {
        let batch = std::mem::take(&mut self.lock().queue);
        global()
            .gauge(names::SERVE_QUEUE_DEPTH)
            .add(-(batch.len() as i64));
        let mut turn = Turn {
            coalescer: self,
            queries: batch.iter().map(|p| p.queries.len()).sum(),
            batch,
        };
        let requests: Vec<&[RelationshipQuery]> =
            turn.batch.iter().map(|p| &p.queries[..]).collect();
        let results = self.dispatch(&requests);
        for (pending, result) in turn.batch.drain(..).zip(results) {
            let _ = pending.tx.send(Wake::Answer(result));
        }
    }

    /// The single point every dispatch passes through — the registry's
    /// batch-size histogram observes exactly one sample per `query_many`
    /// call, so its total count equals `serve.batches` and its sum equals
    /// the queries dispatched (re-dispatches included).
    fn note_dispatch(&self, queries: usize) {
        let mut state = self.lock();
        state.stats.batches += 1;
        state.stats.max_batch = state.stats.max_batch.max(queries as u64);
        drop(state);
        count(names::SERVE_BATCHES, 1);
        global()
            .histogram(names::SERVE_BATCH_SIZE, BATCH_SIZE_BUCKETS)
            .record(queries as u64);
    }
}

/// One leader's batch. Dropping it — after the answers went out, or
/// while a panic unwinds — drops what was not answered, returns the
/// batch's admission slots, and hands the lead to the submitter of the
/// oldest queued request, or clears `busy` when nothing is queued.
struct Turn<'a> {
    coalescer: &'a Coalescer,
    batch: Vec<Pending>,
    queries: usize,
}

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.batch.clear();
        let mut state = self.coalescer.lock();
        state.stats.inflight -= self.queries as u64;
        // A queued request's submitter holds its receiver until it is
        // answered, so the lead cannot be lost.
        match state.queue.first() {
            Some(next) => {
                let _ = next.tx.send(Wake::Lead);
            }
            None => state.busy = false,
        }
        drop(state);
        global()
            .gauge(names::SERVE_INFLIGHT)
            .add(-(self.queries as i64));
        self.coalescer.space.notify_all();
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
