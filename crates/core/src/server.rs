//! An always-on concurrent solve server over pooled engine sessions.
//!
//! [`SolveServer::start`] spawns a fixed pool of worker threads draining
//! a bounded MPMC work queue. Any number of threads hold cloneable
//! [`ServerHandle`]s and call [`ServerHandle::submit`], which returns a
//! [`Ticket`] immediately; [`Ticket::wait`] blocks until the response is
//! ready. The serving layer adds policy around the unchanged solve
//! pipeline:
//!
//! * **Admission control** — the queue is bounded
//!   ([`ServiceConfig::queue_depth`]); a full queue either blocks the
//!   submitter or rejects with [`ServeError::Overloaded`]
//!   ([`crate::service::Admission`]).
//! * **Deadlines** — a request's [`crate::service::RequestPolicy::deadline`]
//!   is checked when its job is dequeued and then cooperatively at every
//!   engine pass boundary via the solve's one
//!   [`crate::driver::CancelToken`]; expiry surfaces as
//!   [`ServeError::DeadlineExceeded`].
//! * **Retries** — solves that fail *transiently* (an injected fault,
//!   [`congest::SimError::is_transient`]) re-run up to the request's
//!   [`crate::service::RequestPolicy::retry_limit`], each attempt under
//!   a re-salted fault plan; exhaustion surfaces as
//!   [`ServeError::RetriesExhausted`]. Deterministic failures are never
//!   retried — they fail fast as [`ServeError::Engine`].
//! * **Single-flight memoization** — completed responses are memoized
//!   (FIFO, [`ServiceConfig::memo_capacity`]); a submit that duplicates
//!   an *in-flight* request attaches to the existing flight instead of
//!   enqueuing, so N concurrent identical submissions cost one engine
//!   solve and resolve to N clones of the same `Arc`.
//! * **Supervision** — each job runs under `catch_unwind`; a job that
//!   panics is recovered in place: its worker drops its resident engine
//!   core (a panicked core is never returned to rotation), resolves the
//!   ticket with [`ServeError::WorkerPanicked`], and serves its next job
//!   from a cold core. The wedged-solve watchdog
//!   ([`ServiceConfig::watchdog`]) is a second deadline on the solve's
//!   cancel token, measured from dequeue; blocking admission sheds load
//!   after sustained overload ([`ServiceConfig::shed_after`]).
//!   [`HealthSnapshot`] reports the lifecycle counters.
//!
//! **One cancel line**: every solve runs under one token that watches
//! the server's abort flag and carries the earlier of the request's
//! deadline and the watchdog's. When it fires, the cause is read in one
//! place: teardown gives [`ServeError::Closed`], else the request's
//! deadline, else the watchdog's budget, as
//! [`ServeError::DeadlineExceeded`].
//!
//! **Ticket-resolution guarantee**: every submitted ticket resolves — to
//! a response or a typed [`ServeError`] — even if its job panics or the
//! server is dropped mid-flight. Rejections resolve at submit; panics
//! resolve on the worker that caught them; dropping the [`SolveServer`]
//! fails still-queued jobs with [`ServeError::Closed`] and cancels
//! running solves at their next pass boundary (see
//! [`SolveServer::abort`]). No parked waiter ever hangs.
//!
//! Determinism is untouched: every completed response is byte-identical
//! to a one-shot [`crate::solve`] of the same request, whatever the
//! worker count, queue depth, or submission order (enforced by the
//! differential proptests in `tests/prop_invariants.rs`).
//!
//! Concurrency invariant (see DESIGN.md §7 and §10): the memo's lookup
//! and flight-insertion happen under one lock acquisition, so for any
//! request key at most one flight exists at a time, and every duplicate
//! submitted during that flight joins it. The server's only locks are
//! the queue, the memo and the ticket cells: the memo lock and the queue
//! lock are never held together, and ticket cells are leaf locks.
//!
//! ```
//! use d1lc::server::SolveServer;
//! use d1lc::service::{ServiceConfig, SolveRequest};
//! use d1lc::SolveOptions;
//! use std::sync::Arc;
//!
//! let graph = Arc::new(graphs::gen::gnp(120, 0.08, 7));
//! let lists = Arc::new(graphs::palette::random_lists(&graph, 40, 0, 3));
//! let server = SolveServer::start(ServiceConfig::builder().workers(2).build().unwrap());
//! let handle = server.handle();
//! let ticket = handle.submit(SolveRequest::shared(&graph, &lists, SolveOptions::seeded(1)));
//! let result = ticket.wait().unwrap();
//! assert_eq!(result.coloring.len(), 120);
//! ```

use crate::driver::{CancelToken, Driver, EngineMode};
use crate::pipeline::{solve_on, SolveOptions, SolveResult};
use crate::service::{Admission, ServeError, ServiceConfig, SolveRequest};
use crate::wire::Wire;
use congest::{Session, SessionCore, SimConfig, SimError};
use graphs::palette::ListAssignment;
use graphs::Graph;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// The resolved value a ticket carries: the response (or serving error)
/// plus the instant it resolved, so latency can be measured without a
/// waiter thread in the loop.
type Resolution = (Result<Arc<SolveResult>, ServeError>, Instant);

/// Shared completion slot between a [`Ticket`] and the worker that
/// resolves it.
struct TicketCell {
    state: Mutex<Option<Resolution>>,
    cv: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(TicketCell {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn resolve(&self, outcome: Result<Arc<SolveResult>, ServeError>) {
        let mut state = self.state.lock().unwrap();
        // First resolution wins; double-resolve is a server bug but must
        // not clobber an answer a waiter may already have observed.
        if state.is_none() {
            *state = Some((outcome, Instant::now()));
            self.cv.notify_all();
        }
    }
}

/// A claim on one submitted request. Cheap to clone (clones share the
/// completion slot); waitable from any thread, any number of times.
#[derive(Clone)]
pub struct Ticket {
    cell: Arc<TicketCell>,
}

impl Ticket {
    /// A ticket resolved on the spot (memo hits, admission rejections).
    fn resolved(outcome: Result<Arc<SolveResult>, ServeError>) -> Self {
        let cell = TicketCell::new();
        cell.resolve(outcome);
        Ticket { cell }
    }

    /// Block until the response is ready.
    ///
    /// Never hangs: every admitted job resolves, on shutdown and on drop
    /// too, and rejected/closed submissions resolve immediately.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`] — admission, deadline, retry exhaustion,
    /// engine failure, or server shutdown.
    pub fn wait(&self) -> Result<Arc<SolveResult>, ServeError> {
        let mut state = self.cell.state.lock().unwrap();
        loop {
            if let Some((outcome, _)) = state.as_ref() {
                return outcome.clone();
            }
            state = self.cell.cv.wait(state).unwrap();
        }
    }

    /// The response if it is already resolved, without blocking.
    pub fn try_result(&self) -> Option<Result<Arc<SolveResult>, ServeError>> {
        self.cell
            .state
            .lock()
            .unwrap()
            .as_ref()
            .map(|(outcome, _)| outcome.clone())
    }

    /// When the ticket resolved (for latency measurement), if it has.
    pub fn completed_at(&self) -> Option<Instant> {
        self.cell.state.lock().unwrap().as_ref().map(|(_, at)| *at)
    }
}

/// One queued unit of work: the request, its completion slot, and the
/// submission instant its deadline is measured from.
struct Job {
    req: SolveRequest,
    cell: Arc<TicketCell>,
    submitted_at: Instant,
}

/// Memo identity: the `Arc` pointers of the instance plus the full
/// option set. Policy (deadline, retries) is deliberately absent — it
/// never affects the solve's output.
struct MemoKey {
    graph: Arc<Graph>,
    lists: Arc<ListAssignment>,
    options: SolveOptions,
}

impl MemoKey {
    fn of(req: &SolveRequest) -> Self {
        MemoKey {
            graph: Arc::clone(&req.graph),
            lists: Arc::clone(&req.lists),
            options: req.options,
        }
    }

    fn matches(&self, req: &SolveRequest) -> bool {
        Arc::ptr_eq(&self.graph, &req.graph)
            && Arc::ptr_eq(&self.lists, &req.lists)
            && self.options == req.options
    }
}

/// A completed, memoized response. Holding the key's `Arc`s pins the
/// instance allocations, so pointer identity cannot be recycled while
/// the entry lives.
struct ReadyEntry {
    key: MemoKey,
    result: Arc<SolveResult>,
}

/// An in-flight request: one job is queued (or solving) for this key;
/// duplicates submitted meanwhile park their cells here instead of
/// enqueuing.
struct Flight {
    key: MemoKey,
    waiters: Vec<Arc<TicketCell>>,
}

/// The single-flight memo. One mutex guards both halves so a lookup and
/// the follow-up flight insertion are atomic — the property that makes
/// "at most one flight per key" an invariant rather than a race.
#[derive(Default)]
struct Memo {
    ready: VecDeque<ReadyEntry>,
    inflight: Vec<Flight>,
}

/// The bounded MPMC work queue: jobs plus the closed flag, guarded by
/// one mutex with separate not-empty / not-full condvars. `full_since`
/// tracks how long the queue has been continuously at capacity, which is
/// what [`ServiceConfig::shed_after`] measures sustained overload by.
#[derive(Default)]
struct WorkQueue {
    jobs: VecDeque<Job>,
    closed: bool,
    full_since: Option<Instant>,
}

/// Atomic serving counters (see [`ServerStats`] for field meaning).
#[derive(Default)]
struct AtomicStats {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    memo_hits: AtomicU64,
    dedup_joins: AtomicU64,
    deadline_misses: AtomicU64,
    retries: AtomicU64,
    engine_errors: AtomicU64,
    fresh_sessions: AtomicU64,
    rebinds: AtomicU64,
    same_graph_rebinds: AtomicU64,
    legacy_engine_solves: AtomicU64,
}

/// A point-in-time snapshot of the server's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests submitted (admitted or not).
    pub submitted: u64,
    /// Tickets resolved with a response (engine solves, memo hits, and
    /// dedup joins alike).
    pub completed: u64,
    /// Submissions refused by [`Admission::Reject`] on a full queue.
    pub rejected: u64,
    /// Submissions answered instantly from the response memo.
    pub memo_hits: u64,
    /// Submissions that joined an in-flight duplicate instead of
    /// enqueuing their own job.
    pub dedup_joins: u64,
    /// Requests that failed their deadline (queued or mid-solve).
    pub deadline_misses: u64,
    /// Re-run attempts after a failed solve (each re-run counts once).
    pub retries: u64,
    /// Requests whose final outcome was an engine error
    /// ([`ServeError::Engine`] or [`ServeError::RetriesExhausted`]).
    pub engine_errors: u64,
    /// Engine runs on a from-scratch session.
    pub fresh_sessions: u64,
    /// Engine runs that rebound a warm core to a different graph.
    pub rebinds: u64,
    /// Engine runs that rebound a warm core to the graph it last ran on
    /// (the same `Arc<Graph>`; the bind is the same as for any other
    /// graph).
    pub same_graph_rebinds: u64,
    /// Requests honored through [`crate::EngineMode::Reference`], the
    /// naive reference engine (no pooling).
    pub legacy_engine_solves: u64,
}

/// Atomic supervision/lifecycle counters (see [`HealthSnapshot`]).
#[derive(Default)]
struct AtomicHealth {
    live_workers: AtomicU64,
    panics: AtomicU64,
    quarantined_cores: AtomicU64,
    shed: AtomicU64,
}

/// A point-in-time health report of the serving layer's supervision
/// machinery — the liveness counters, as opposed to the request-path
/// counters in [`ServerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Worker threads currently draining the queue:
    /// [`ServiceConfig::workers`] from start until the queue closes,
    /// then falling to zero as the workers exit. A panicking job does not
    /// take its worker with it.
    pub live_workers: u64,
    /// Jobs that panicked, each caught and recovered by its worker.
    pub panics: u64,
    /// Engine cores discarded because a job panicked on them. A poisoned
    /// core is never returned to rotation — the worker's next job starts
    /// cold.
    pub quarantined_cores: u64,
    /// Jobs currently queued (admitted, not yet picked up).
    pub queue_depth: usize,
    /// Blocking submissions shed after sustained overload
    /// ([`ServiceConfig::shed_after`]). [`crate::service::Admission::Reject`]
    /// refusals are counted in [`ServerStats::rejected`] instead.
    pub shed: u64,
}

/// State shared by the server, its handles, and its workers.
struct ServerShared {
    config: ServiceConfig,
    queue: Mutex<WorkQueue>,
    not_empty: Condvar,
    not_full: Condvar,
    memo: Mutex<Memo>,
    stats: AtomicStats,
    health: AtomicHealth,
    /// The abort flag, raised by [`SolveServer::abort`] before it drains
    /// the queue. Every solve's cancel token watches it, so a solve
    /// running or dequeued before the drain stops at its next pass
    /// boundary, and its `Cancelled` maps to [`ServeError::Closed`]
    /// rather than a deadline miss.
    aborting: Arc<AtomicBool>,
}

impl ServerShared {
    fn snapshot(&self) -> ServerStats {
        let s = &self.stats;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        ServerStats {
            submitted: get(&s.submitted),
            completed: get(&s.completed),
            rejected: get(&s.rejected),
            memo_hits: get(&s.memo_hits),
            dedup_joins: get(&s.dedup_joins),
            deadline_misses: get(&s.deadline_misses),
            retries: get(&s.retries),
            engine_errors: get(&s.engine_errors),
            fresh_sessions: get(&s.fresh_sessions),
            rebinds: get(&s.rebinds),
            same_graph_rebinds: get(&s.same_graph_rebinds),
            legacy_engine_solves: get(&s.legacy_engine_solves),
        }
    }

    fn health(&self) -> HealthSnapshot {
        let h = &self.health;
        HealthSnapshot {
            live_workers: h.live_workers.load(Ordering::Relaxed),
            panics: h.panics.load(Ordering::Relaxed),
            quarantined_cores: h.quarantined_cores.load(Ordering::Relaxed),
            queue_depth: self.queue.lock().unwrap().jobs.len(),
            shed: h.shed.load(Ordering::Relaxed),
        }
    }

    /// Fail a job's ticket and every duplicate parked on its flight —
    /// the resolution path for jobs that never complete (admission
    /// refusals, job panics, teardown).
    fn fail(&self, job: &Job, error: ServeError) {
        let waiters = self.take_flight(&job.req);
        job.cell.resolve(Err(error.clone()));
        for cell in waiters {
            cell.resolve(Err(error.clone()));
        }
    }

    /// Remove the flight for `req` (if any) and return its waiter cells.
    /// Called when the flight's job leaves the system — completed,
    /// rejected, or refused at close.
    fn take_flight(&self, req: &SolveRequest) -> Vec<Arc<TicketCell>> {
        if self.config.memo_capacity() == 0 {
            return Vec::new();
        }
        let mut memo = self.memo.lock().unwrap();
        match memo.inflight.iter().position(|f| f.key.matches(req)) {
            Some(i) => memo.inflight.swap_remove(i).waiters,
            None => Vec::new(),
        }
    }

    /// Resolve a job's cell and every duplicate parked on its flight
    /// with the same outcome, memoizing successes.
    fn complete(&self, job: &Job, outcome: Result<Arc<SolveResult>, ServeError>) {
        if let Ok(result) = &outcome {
            let capacity = self.config.memo_capacity();
            if capacity > 0 {
                let mut memo = self.memo.lock().unwrap();
                if memo.ready.len() >= capacity {
                    memo.ready.pop_front();
                }
                memo.ready.push_back(ReadyEntry {
                    key: MemoKey::of(&job.req),
                    result: Arc::clone(result),
                });
            }
        }
        let waiters = self.take_flight(&job.req);
        // Count before resolving: a waiter woken by `resolve` may read
        // the stats immediately, and the count must already be there.
        if outcome.is_ok() {
            let resolved = 1 + waiters.len() as u64;
            self.stats.completed.fetch_add(resolved, Ordering::Relaxed);
        }
        job.cell.resolve(outcome.clone());
        for cell in waiters {
            cell.resolve(outcome.clone());
        }
    }
}

/// A cloneable, `Send + Sync` submission endpoint. All handles feed the
/// same queue; drop them freely — the server's lifetime is governed by
/// the [`SolveServer`] value, not its handles.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<ServerShared>,
}

impl ServerHandle {
    /// Submit a request, returning its [`Ticket`] immediately.
    ///
    /// Fast paths resolve the ticket before it is returned: a memo hit
    /// yields the memoized `Arc`; a duplicate of an in-flight request
    /// joins that flight (no queue slot consumed) and resolves when the
    /// flight does — sharing its outcome, including failure. Otherwise
    /// the job is enqueued; on a full queue [`Admission::Block`] waits
    /// for a slot and [`Admission::Reject`] resolves the ticket (and any
    /// duplicates that joined meanwhile) with [`ServeError::Overloaded`].
    ///
    /// # Panics
    ///
    /// Panics if the request's lists are not a valid (degree+1)-list
    /// assignment for its graph, exactly as [`crate::solve`] does.
    pub fn submit(&self, req: SolveRequest) -> Ticket {
        assert!(
            req.lists.is_degree_plus_one(&req.graph),
            "lists must give every node ≥ deg+1 colors"
        );
        let shared = &*self.shared;
        shared.stats.submitted.fetch_add(1, Ordering::Relaxed);
        if shared.config.memo_capacity() > 0 {
            let mut memo = shared.memo.lock().unwrap();
            if let Some(hit) = memo.ready.iter().find(|e| e.key.matches(&req)) {
                shared.stats.memo_hits.fetch_add(1, Ordering::Relaxed);
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
                return Ticket::resolved(Ok(Arc::clone(&hit.result)));
            }
            if let Some(flight) = memo.inflight.iter_mut().find(|f| f.key.matches(&req)) {
                let cell = TicketCell::new();
                flight.waiters.push(Arc::clone(&cell));
                shared.stats.dedup_joins.fetch_add(1, Ordering::Relaxed);
                return Ticket { cell };
            }
            memo.inflight.push(Flight {
                key: MemoKey::of(&req),
                waiters: Vec::new(),
            });
        }
        let cell = TicketCell::new();
        let job = Job {
            req,
            cell: Arc::clone(&cell),
            submitted_at: Instant::now(),
        };
        let mut queue = shared.queue.lock().unwrap();
        loop {
            if queue.closed {
                drop(queue);
                shared.fail(&job, ServeError::Closed);
                return Ticket { cell };
            }
            if queue.jobs.len() < shared.config.queue_depth() {
                queue.jobs.push_back(job);
                if queue.jobs.len() >= shared.config.queue_depth() && queue.full_since.is_none() {
                    queue.full_since = Some(Instant::now());
                }
                shared.not_empty.notify_one();
                return Ticket { cell };
            }
            match shared.config.admission() {
                Admission::Block => match shared.config.shed_after() {
                    // Graceful degradation: a queue that has been full
                    // for the configured span means the server is not
                    // keeping up — stop parking submitters on it and
                    // shed instead of building an unbounded convoy.
                    Some(limit) => {
                        let full_for = queue
                            .full_since
                            .map(|t| t.elapsed())
                            .unwrap_or(Duration::ZERO);
                        if full_for >= limit {
                            drop(queue);
                            shared.health.shed.fetch_add(1, Ordering::Relaxed);
                            shared.fail(
                                &job,
                                ServeError::Overloaded {
                                    depth: shared.config.queue_depth(),
                                },
                            );
                            return Ticket { cell };
                        }
                        let (q, _) = shared
                            .not_full
                            .wait_timeout(queue, limit - full_for)
                            .unwrap();
                        queue = q;
                    }
                    None => {
                        queue = shared.not_full.wait(queue).unwrap();
                    }
                },
                Admission::Reject => {
                    drop(queue);
                    shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    shared.fail(
                        &job,
                        ServeError::Overloaded {
                            depth: shared.config.queue_depth(),
                        },
                    );
                    return Ticket { cell };
                }
            }
        }
    }

    /// Submit and wait: one blocking call per request.
    ///
    /// # Errors
    ///
    /// Any [`ServeError`]; see [`Ticket::wait`].
    pub fn solve(&self, req: SolveRequest) -> Result<Arc<SolveResult>, ServeError> {
        self.submit(req).wait()
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }

    /// A point-in-time snapshot of the supervision health counters.
    pub fn health(&self) -> HealthSnapshot {
        self.shared.health()
    }

    /// The configuration the server was started with.
    pub fn config(&self) -> ServiceConfig {
        self.shared.config
    }
}

/// The always-on server: owns the worker threads. Dropping it **aborts**:
/// still-queued jobs fail with [`ServeError::Closed`], running solves
/// are cancelled at their next pass boundary, and every outstanding
/// ticket resolves promptly — no parked waiter ever hangs on a dropped
/// server. Call [`SolveServer::shutdown`] first for a graceful drain.
pub struct SolveServer {
    shared: Arc<ServerShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl SolveServer {
    /// Start exactly `config.workers()` worker threads over an empty
    /// queue. Every worker keeps its engine core warm between solves.
    pub fn start(config: ServiceConfig) -> Self {
        let shared = Arc::new(ServerShared {
            config,
            queue: Mutex::new(WorkQueue::default()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            memo: Mutex::new(Memo::default()),
            stats: AtomicStats::default(),
            health: AtomicHealth {
                live_workers: AtomicU64::new(config.workers() as u64),
                ..AtomicHealth::default()
            },
            aborting: Arc::new(AtomicBool::new(false)),
        });
        let workers = (0..config.workers())
            .map(|index| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("d1lc-worker-{index}"))
                    .spawn(move || worker_loop(index, &shared))
                    .expect("spawn worker thread")
            })
            .collect();
        SolveServer { shared, workers }
    }

    /// A new submission handle (cloneable; all handles are equivalent).
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// A point-in-time snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        self.shared.snapshot()
    }

    /// A point-in-time snapshot of the supervision health counters.
    pub fn health(&self) -> HealthSnapshot {
        self.shared.health()
    }

    /// Graceful shutdown: close the queue, let the workers drain every
    /// already-admitted job to completion, and join them. Use this when
    /// admitted work should still be answered; `Drop` instead aborts
    /// (admitted-but-unstarted jobs fail with [`ServeError::Closed`]).
    pub fn shutdown(&mut self) {
        {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.closed = true;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        self.join_all();
    }

    /// Fail-fast teardown: raise the abort flag every solve's cancel
    /// token watches (running solves stop at their next pass boundary
    /// and resolve [`ServeError::Closed`]), close the queue, fail every
    /// still-queued job with [`ServeError::Closed`], and join the
    /// workers. The flag goes up before the drain, so a job dequeued in
    /// between is cancelled too. Every outstanding ticket is resolved by
    /// the time this returns. Called by `Drop`.
    pub fn abort(&mut self) {
        self.shared.aborting.store(true, Ordering::Relaxed);
        let orphans: Vec<Job> = {
            let mut queue = self.shared.queue.lock().unwrap();
            queue.closed = true;
            queue.full_since = None;
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
            queue.jobs.drain(..).collect()
        };
        for job in &orphans {
            self.shared.fail(job, ServeError::Closed);
        }
        self.join_all();
    }

    /// Join every worker. A job's panic is caught on its worker, so a
    /// worker thread itself never ends in a panic worth reporting here
    /// (and `Drop` must not panic).
    fn join_all(&mut self) {
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for SolveServer {
    fn drop(&mut self) {
        self.abort();
    }
}

/// Worker thread body: pop, run the job under `catch_unwind`, repeat.
/// A job that panics is recovered in place: whatever is left of the
/// resident core is dropped (a panicked solve may have left it mid-pass,
/// so it is never returned to rotation), the panic is counted, and only
/// then is the ticket (with any parked duplicates) failed with
/// [`ServeError::WorkerPanicked`], so a caller that sees the panic also
/// sees it in the server's health. The next job starts from a cold
/// core. Exits when the queue is closed *and* empty.
fn worker_loop(index: usize, shared: &ServerShared) {
    // The worker's resident warm core.
    let mut resident: Option<PooledCore> = None;
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.full_since = None;
                    shared.not_full.notify_one();
                    break job;
                }
                if queue.closed {
                    shared.health.live_workers.fetch_sub(1, Ordering::Relaxed);
                    return;
                }
                queue = shared.not_empty.wait(queue).unwrap();
            }
        };
        let had_core = resident.is_some();
        let ran = catch_unwind(AssertUnwindSafe(|| run_job(shared, &job, &mut resident)));
        if ran.is_err() {
            // Quarantine: a panic before the solve leaves the core
            // resident; one mid-solve already dropped the core it took.
            resident = None;
            let health = &shared.health;
            if had_core {
                health.quarantined_cores.fetch_add(1, Ordering::Relaxed);
            }
            health.panics.fetch_add(1, Ordering::Relaxed);
            shared.fail(&job, ServeError::WorkerPanicked { worker: index });
        }
    }
}

/// Enforce the job's policy around [`solve_with_core`] and publish the
/// outcome; the caller owns panic isolation. Called right after the
/// dequeue, which is the instant the watchdog budget runs from.
fn run_job(shared: &ServerShared, job: &Job, resident: &mut Option<PooledCore>) {
    let policy = job.req.policy();
    if policy.chaos_panic {
        panic!("injected chaos panic (RequestPolicy::chaos_panic)");
    }
    let dequeued = Instant::now();
    let deadline_at = policy
        .deadline
        .and_then(|d| job.submitted_at.checked_add(d));
    // A request that expired while queued fails without touching the
    // engine — under overload this sheds work instead of compounding it.
    if deadline_at.is_some_and(|at| dequeued >= at) {
        shared.stats.deadline_misses.fetch_add(1, Ordering::Relaxed);
        shared.complete(
            job,
            Err(ServeError::DeadlineExceeded {
                deadline: policy.deadline.expect("deadline_at implies deadline"),
            }),
        );
        return;
    }
    // The job's one cancel line: the abort flag, plus the earlier of the
    // request's deadline and the watchdog's.
    let watchdog_at = shared
        .config
        .watchdog()
        .and_then(|budget| dequeued.checked_add(budget));
    let mut token = CancelToken::flagged(Arc::clone(&shared.aborting));
    if let Some(at) = deadline_at.into_iter().chain(watchdog_at).min() {
        token = token.with_deadline(at);
    }
    let attempts = policy.retry_limit + 1;
    let mut attempt = 0;
    let s = &shared.stats;
    let outcome = loop {
        attempt += 1;
        match solve_with_core(s, resident, &job.req, token.clone(), attempt) {
            Ok(result) => break Ok(Arc::new(result)),
            Err(SimError::Cancelled { .. }) => {
                // The cancel line fired mid-solve; retrying cannot help.
                // Attribute it: teardown beats deadline beats watchdog
                // (an aborting server is Closed even if the deadline
                // also lapsed meanwhile).
                break Err(if shared.aborting.load(Ordering::Relaxed) {
                    ServeError::Closed
                } else if deadline_at.is_some_and(|at| Instant::now() >= at) {
                    s.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    ServeError::DeadlineExceeded {
                        deadline: policy.deadline.expect("deadline_at implies deadline"),
                    }
                } else {
                    // Only the watchdog is left as a cause: the wedged
                    // solve is escalated with the watchdog budget as
                    // its effective deadline.
                    s.deadline_misses.fetch_add(1, Ordering::Relaxed);
                    ServeError::DeadlineExceeded {
                        deadline: shared
                            .config
                            .watchdog()
                            .expect("a cancel with neither abort nor deadline implies watchdog"),
                    }
                });
            }
            // Only transient errors (injected faults) are worth a
            // re-roll; a deterministic failure (e.g. a strict bandwidth
            // cap the protocol genuinely exceeds) would fail identically
            // every time, so retrying it only burns the budget.
            Err(error) if error.is_transient() && attempt < attempts => {
                s.retries.fetch_add(1, Ordering::Relaxed);
            }
            Err(error) => {
                s.engine_errors.fetch_add(1, Ordering::Relaxed);
                break Err(if error.is_transient() && policy.retry_limit > 0 {
                    ServeError::RetriesExhausted {
                        attempts,
                        last: error,
                    }
                } else {
                    ServeError::Engine(error)
                });
            }
        }
    };
    shared.complete(job, outcome);
}

/// An idle session core plus the identity of the graph it last ran —
/// what a worker keeps warm between jobs.
struct PooledCore {
    core: SessionCore<Wire>,
    graph: Arc<Graph>,
}

/// Run one solve attempt on the worker's resident core, counting the
/// session it ran on in `stats`: rebind the warm core (or build a fresh
/// session when there is none), drive the unchanged pipeline under
/// `cancel`, and leave the recovered core resident. A request for
/// [`EngineMode::Reference`] runs the reference engine and leaves the
/// resident core alone.
///
/// `attempt` is 1-based; retries (`attempt > 1`) re-salt any active
/// [`congest::FaultPlan`] so a transient injected fault rolls fresh dice
/// instead of deterministically re-firing. Attempt 1 runs the request's
/// plan verbatim, so first-try results (the only ones a fault-free
/// request produces) stay byte-identical to one-shot [`crate::solve`]
/// and remain sound to memoize.
///
/// The caller must have validated `req.lists.is_degree_plus_one()`.
fn solve_with_core(
    stats: &AtomicStats,
    resident: &mut Option<PooledCore>,
    req: &SolveRequest,
    cancel: CancelToken,
    attempt: u32,
) -> Result<SolveResult, SimError> {
    let mut sim = SimConfig {
        seed: req.options.seed,
        ..req.options.sim
    };
    if attempt > 1 {
        sim.fault = sim.fault.resalted(u64::from(attempt - 1));
    }
    let mut driver = if req.options.engine != EngineMode::Session {
        // A reference-engine request (differential use): run exactly the
        // engine asked for. Results are byte-identical to the session
        // path by the cross-engine invariant, but the *execution* must be
        // the one requested.
        stats.legacy_engine_solves.fetch_add(1, Ordering::Relaxed);
        Driver::with_engine(&req.graph, sim, req.options.engine)
    } else {
        let session = match resident.take() {
            Some(pooled) => {
                let counter = if Arc::ptr_eq(&pooled.graph, &req.graph) {
                    &stats.same_graph_rebinds
                } else {
                    &stats.rebinds
                };
                counter.fetch_add(1, Ordering::Relaxed);
                pooled.core.bind(&req.graph, sim)
            }
            None => {
                stats.fresh_sessions.fetch_add(1, Ordering::Relaxed);
                Session::new(&req.graph, sim)
            }
        };
        Driver::from_session(session)
    };
    driver.set_cancel(cancel);
    let outcome = solve_on(&mut driver, &req.graph, &req.lists, &req.options);
    if let Some(session) = driver.into_session() {
        *resident = Some(PooledCore {
            core: session.unbind(),
            graph: Arc::clone(&req.graph),
        });
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{Admission, ServiceConfig};
    use graphs::gen;
    use graphs::palette::random_lists;
    use std::time::Duration;

    fn instance(n: usize, seed: u64) -> (Arc<Graph>, Arc<ListAssignment>) {
        let graph = gen::gnp(n, 0.08, seed);
        let lists = random_lists(&graph, 32, 0, seed ^ 0x55);
        (Arc::new(graph), Arc::new(lists))
    }

    #[test]
    fn serves_byte_identical_to_one_shot() {
        let (g, lists) = instance(60, 5);
        let server = SolveServer::start(ServiceConfig::builder().workers(2).build().unwrap());
        let handle = server.handle();
        let req = SolveRequest::shared(&g, &lists, SolveOptions::seeded(11));
        let served = handle.solve(req).expect("serves");
        let direct = crate::solve(&g, &lists, SolveOptions::seeded(11)).expect("one-shot");
        assert_eq!(served.coloring, direct.coloring);
        assert_eq!(served.log.passes(), direct.log.passes());
        assert_eq!(served.stats, direct.stats);
    }

    /// Worker cores rebind shard layouts: one pooled core serving a
    /// stream that alternates shard counts (and thread counts) must
    /// produce byte-identical responses to one-shot solves — the shard
    /// geometry travels with the request's `SimConfig`, and a retained
    /// core re-derives it at every bind.
    #[test]
    fn worker_cores_rebind_across_shard_layouts() {
        let (g, lists) = instance(120, 12);
        let (g2, lists2) = instance(70, 13);
        let config = ServiceConfig::builder().workers(1).memo(0).build().unwrap();
        let server = SolveServer::start(config);
        let handle = server.handle();
        let layouts: [(usize, usize); 6] = [(0, 1), (4, 2), (1, 1), (8, 8), (2, 1), (0, 2)];
        let mut requests = Vec::new();
        for (i, &(shards, threads)) in layouts.iter().enumerate() {
            let mut options = SolveOptions::seeded(20 + i as u64);
            options.sim.shards = shards;
            options.sim.threads = threads;
            // Alternate graphs so the core also retargets topology
            // between shard layouts.
            let (graph, ls) = if i % 2 == 0 {
                (&g, &lists)
            } else {
                (&g2, &lists2)
            };
            requests.push(SolveRequest::shared(graph, ls, options));
        }
        let tickets: Vec<Ticket> = requests.iter().map(|r| handle.submit(r.clone())).collect();
        for (req, ticket) in requests.iter().zip(&tickets) {
            let served = ticket.wait().expect("serves");
            let direct = crate::solve(&req.graph, &req.lists, req.options).expect("one-shot");
            assert_eq!(
                served.coloring, direct.coloring,
                "opts {:?}",
                req.options.sim
            );
            assert_eq!(served.log.passes(), direct.log.passes());
            assert_eq!(served.stats, direct.stats);
        }
        // Every request reused the single pooled core after the first.
        assert_eq!(handle.stats().fresh_sessions, 1);
    }

    #[test]
    fn memo_hit_shares_the_response_arc() {
        let (g, lists) = instance(40, 6);
        let server = SolveServer::start(ServiceConfig::default());
        let handle = server.handle();
        let req = SolveRequest::shared(&g, &lists, SolveOptions::seeded(2));
        let first = handle.solve(req.clone()).unwrap();
        let second = handle.solve(req).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        let stats = handle.stats();
        assert_eq!(stats.memo_hits, 1);
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn reject_admission_surfaces_overloaded() {
        let (g, lists) = instance(200, 7);
        // One worker, queue depth 1: flood with distinct requests (memo
        // off so none dedup) and demand at least one rejection.
        let config = ServiceConfig::builder()
            .workers(1)
            .queue(1)
            .memo(0)
            .admission(Admission::Reject)
            .build()
            .unwrap();
        let server = SolveServer::start(config);
        let handle = server.handle();
        let tickets: Vec<Ticket> = (0..16)
            .map(|i| handle.submit(SolveRequest::shared(&g, &lists, SolveOptions::seeded(i))))
            .collect();
        let outcomes: Vec<_> = tickets.iter().map(Ticket::wait).collect();
        let rejected = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::Overloaded { depth: 1 })))
            .count();
        assert!(rejected > 0, "16 instant submissions must overflow depth 1");
        assert!(outcomes.iter().any(Result::is_ok), "queue still serves");
        assert_eq!(handle.stats().rejected, rejected as u64);
    }

    #[test]
    fn expired_deadline_fails_without_solving() {
        let (g, lists) = instance(40, 8);
        let server = SolveServer::start(ServiceConfig::default());
        let handle = server.handle();
        let req =
            SolveRequest::shared(&g, &lists, SolveOptions::seeded(3)).with_deadline(Duration::ZERO);
        match handle.solve(req) {
            Err(ServeError::DeadlineExceeded { deadline }) => {
                assert_eq!(deadline, Duration::ZERO);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert_eq!(handle.stats().deadline_misses, 1);
        // The worker never ran the engine for it.
        assert_eq!(handle.stats().fresh_sessions, 0);
    }

    #[test]
    fn submit_after_shutdown_is_closed() {
        let (g, lists) = instance(30, 9);
        let mut server = SolveServer::start(ServiceConfig::default());
        let handle = server.handle();
        server.shutdown();
        let outcome = handle.solve(SolveRequest::shared(&g, &lists, SolveOptions::seeded(4)));
        assert_eq!(outcome.unwrap_err(), ServeError::Closed);
    }

    #[test]
    fn explicit_shutdown_drains_admitted_jobs() {
        let (g, lists) = instance(80, 10);
        let mut server = SolveServer::start(ServiceConfig::builder().workers(1).build().unwrap());
        let handle = server.handle();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| handle.submit(SolveRequest::shared(&g, &lists, SolveOptions::seeded(i))))
            .collect();
        server.shutdown();
        for ticket in &tickets {
            assert!(ticket.wait().is_ok(), "admitted jobs drain on shutdown");
            assert!(ticket.completed_at().is_some());
        }
        assert_eq!(server.health().live_workers, 0, "workers joined");
    }

    /// Dropping the server (no explicit shutdown) must not leave any
    /// outstanding ticket unresolved: queued jobs fail `Closed`, solves
    /// already running either complete or are cancelled to `Closed` at
    /// the next pass boundary. See `tests/server_concurrency.rs` for the
    /// cross-thread regression version.
    #[test]
    fn drop_resolves_outstanding_tickets_promptly() {
        let (g, lists) = instance(80, 14);
        let server = SolveServer::start(ServiceConfig::builder().workers(1).build().unwrap());
        let handle = server.handle();
        let tickets: Vec<Ticket> = (0..8)
            .map(|i| handle.submit(SolveRequest::shared(&g, &lists, SolveOptions::seeded(i))))
            .collect();
        drop(server);
        let mut closed = 0;
        for ticket in &tickets {
            match ticket.wait() {
                Ok(_) => {}
                Err(ServeError::Closed) => closed += 1,
                other => panic!("expected Ok or Closed, got {other:?}"),
            }
            assert!(ticket.completed_at().is_some(), "every ticket resolved");
        }
        assert!(closed > 0, "8 queued jobs cannot all finish before drop");
    }

    /// A budget too large to add to an `Instant` means "never": it must
    /// not overflow the clock, which would panic the job into
    /// `WorkerPanicked`.
    #[test]
    fn unbounded_budgets_never_fire() {
        let (g, lists) = instance(40, 15);
        let config = ServiceConfig::builder()
            .watchdog(Duration::MAX)
            .build()
            .unwrap();
        let server = SolveServer::start(config);
        let handle = server.handle();
        let req =
            SolveRequest::shared(&g, &lists, SolveOptions::seeded(8)).with_deadline(Duration::MAX);
        handle.solve(req).expect("an unbounded budget never fires");
        assert_eq!(handle.health().panics, 0);
    }

    #[test]
    fn deterministic_failures_are_never_retried() {
        let (g, lists) = instance(120, 11);
        // A strict bandwidth cap of a few bits per round fails every
        // pass deterministically — every retry would fail identically,
        // so the server must not spend a single one on it, retry limit
        // or not.
        let mut options = SolveOptions::seeded(5);
        options.sim.bandwidth = congest::Bandwidth::Strict(4);
        let server = SolveServer::start(ServiceConfig::default());
        let handle = server.handle();
        let req = SolveRequest::shared(&g, &lists, options).with_retry_limit(2);
        match handle.solve(req) {
            Err(ServeError::Engine(e)) => {
                assert!(matches!(e, congest::SimError::BandwidthExceeded { .. }));
                assert!(!e.is_transient());
            }
            other => panic!("expected Engine, got {other:?}"),
        }
        let stats = handle.stats();
        assert_eq!(stats.retries, 0, "deterministic failure burned a retry");
        assert_eq!(stats.engine_errors, 1);
    }

    #[test]
    fn stalled_schedules_are_never_retried() {
        let (g, lists) = instance(96, 14);
        // A schedule is a pure function of `(seed, SchedulePlan)`: a
        // plan that wedges the synchronizer wedges every verbatim
        // retry identically, so `ScheduleStalled` must surface as a
        // non-transient `Engine` error without burning the retry
        // budget. Progress needs a re-planned request (here: more
        // watchdog patience), not a re-run.
        let mut options = SolveOptions::seeded(9);
        options.sim.sched = congest::SchedulePlan::none()
            .with_bursts(1.0, 6)
            .with_patience(2);
        let server = SolveServer::start(ServiceConfig::default());
        let handle = server.handle();
        let req = SolveRequest::shared(&g, &lists, options).with_retry_limit(2);
        match handle.solve(req) {
            Err(ServeError::Engine(e)) => {
                assert!(matches!(e, congest::SimError::ScheduleStalled { .. }));
                assert!(!e.is_transient());
            }
            other => panic!("expected Engine, got {other:?}"),
        }
        let stats = handle.stats();
        assert_eq!(stats.retries, 0, "stalled schedule burned a retry");
        assert_eq!(stats.engine_errors, 1);
        options.sim.sched = options.sim.sched.with_patience(16);
        let served = handle
            .solve(SolveRequest::shared(&g, &lists, options))
            .expect("a re-planned schedule completes");
        let direct = crate::solve(&g, &lists, options).expect("one-shot");
        assert_eq!(served.coloring, direct.coloring);
    }

    #[test]
    fn transient_faults_exhaust_retries_with_attempt_count() {
        let (g, lists) = instance(60, 13);
        // An always-abort fault plan fails every attempt transiently —
        // re-salting cannot save a probability-1 abort — so the retry
        // budget is spent in full and reported honestly.
        let mut options = SolveOptions::seeded(7);
        options.sim.fault = congest::FaultPlan::none().with_abort(1.0);
        let server = SolveServer::start(ServiceConfig::default());
        let handle = server.handle();
        let req = SolveRequest::shared(&g, &lists, options).with_retry_limit(2);
        match handle.solve(req) {
            Err(ServeError::RetriesExhausted { attempts, last }) => {
                assert_eq!(attempts, 3);
                assert!(matches!(last, congest::SimError::FaultInjected { .. }));
                assert!(last.is_transient());
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
        let stats = handle.stats();
        assert_eq!(stats.retries, 2);
        assert_eq!(stats.engine_errors, 1);
        // Without a retry limit the same transient failure is Engine(_).
        let req = SolveRequest::shared(&g, &lists, options);
        assert!(matches!(handle.solve(req), Err(ServeError::Engine(_))));
    }

    #[test]
    fn reference_engine_requests_are_honored() {
        let (g, lists) = instance(50, 12);
        let server = SolveServer::start(ServiceConfig::default());
        let handle = server.handle();
        let mut options = SolveOptions::seeded(6);
        options.engine = crate::EngineMode::Reference;
        let served = handle
            .solve(SolveRequest::shared(&g, &lists, options))
            .expect("reference engine serves");
        let direct = crate::solve(&g, &lists, options).expect("one-shot");
        assert_eq!(served.coloring, direct.coloring);
        assert_eq!(handle.stats().legacy_engine_solves, 1);
        assert_eq!(handle.stats().fresh_sessions, 0);
    }
}
