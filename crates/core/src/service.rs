//! Serving-layer vocabulary: the requests, configuration, and errors of
//! the concurrent [`crate::server`].
//!
//! The serving stack exploits one repo-wide invariant: the solver is
//! **deterministic** — a [`crate::SolveResult`] is a pure function of
//! `(graph, lists, options)`. That is what makes session reuse
//! transcript-invariant and response memoization sound (a memo hit
//! returns the byte-identical result a recompute would produce).
//!
//! * [`SolveRequest`] — an `Arc`-shared instance plus [`crate::SolveOptions`]
//!   and a per-request [`RequestPolicy`] (deadline, retry limit). Identity
//!   (`Arc` pointer equality) keys both the same-graph session rebind and
//!   the response memo.
//! * [`ServiceConfig`] — built through [`ServiceConfig::builder`] with
//!   validation errors ([`ConfigError`]) instead of silently-clamped
//!   fields.
//! * [`ServeError`] — the typed serving-path error: admission rejection,
//!   deadline expiry, retry exhaustion, engine errors, shutdown.
//!
//! The always-on concurrent frontend lives in [`crate::server`]; see
//! DESIGN.md §7 for the queue/admission/deadline lifecycle.

use crate::pipeline::SolveOptions;
use congest::SimError;
use graphs::palette::ListAssignment;
use graphs::Graph;
use std::sync::Arc;
use std::time::Duration;

/// Per-request serving policy: how long the serving layer may spend on
/// this request and how often it may retry a failed pass sequence.
/// Policy rides the **request**, not the service configuration — two
/// requests for the same instance with different deadlines are the same
/// memo key (policy never affects the solve's output, only whether the
/// serving layer keeps working on it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestPolicy {
    /// Wall-clock budget measured from submission. `None` = no deadline.
    /// Checked at dequeue and cooperatively at every pass boundary
    /// ([`crate::driver::CancelToken`]); an expired request fails with
    /// [`ServeError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Additional attempts after a failed solve (engine error). `0`
    /// (default) fails fast with [`ServeError::Engine`]; `k > 0` re-runs
    /// **transient** failures ([`SimError::is_transient`], i.e. injected
    /// faults) up to `k` more times — each retry re-salts the request's
    /// [`congest::FaultPlan`] so the dice actually re-roll — and reports
    /// [`ServeError::RetriesExhausted`] if none succeeds. Deterministic
    /// failures (a strict bandwidth cap the protocol genuinely exceeds)
    /// are never retried: they would fail identically every time, so
    /// they fail fast with [`ServeError::Engine`] whatever the limit.
    pub retry_limit: u32,
    /// Chaos instrumentation: make the worker that dequeues this request
    /// **panic** before touching the engine. Exists to test the server's
    /// supervision path (ticket resolved with
    /// [`ServeError::WorkerPanicked`], resident core quarantined, the
    /// worker's next job served from a cold core) without a special test
    /// build. Like the rest of the policy it is not part of the memo key
    /// — but a chaos request that joins an in-flight duplicate simply
    /// shares that flight's outcome and never reaches a worker.
    pub chaos_panic: bool,
}

/// One solve request: an instance plus the full option set and the
/// per-request serving policy.
///
/// The graph and lists travel as `Arc`s so a request stream can repeat
/// an instance without copying it — and so the serving layer can
/// recognize repeats *by identity* (pointer equality), which is what
/// keys both the same-graph session rebind and the response memo. Two
/// structurally equal instances behind different `Arc`s are treated as
/// distinct (they solve correctly, just without the reuse fast paths).
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The graph to color.
    pub graph: Arc<Graph>,
    /// The (degree+1)-list assignment.
    pub lists: Arc<ListAssignment>,
    /// Solve options (profile, seed, engine config). Part of the memo
    /// key: equal options on an identical instance determine the result.
    pub options: SolveOptions,
    /// Serving policy (deadline, retry limit). **Not** part of the memo
    /// key.
    policy: RequestPolicy,
}

impl SolveRequest {
    /// A request over an already-shared instance (clones the `Arc`s, not
    /// the data) — how streams express same-instance repeats.
    pub fn shared(graph: &Arc<Graph>, lists: &Arc<ListAssignment>, options: SolveOptions) -> Self {
        SolveRequest::from_arcs(Arc::clone(graph), Arc::clone(lists), options)
    }

    /// A request taking ownership of the shared handles.
    pub fn from_arcs(graph: Arc<Graph>, lists: Arc<ListAssignment>, options: SolveOptions) -> Self {
        SolveRequest {
            graph,
            lists,
            options,
            policy: RequestPolicy::default(),
        }
    }

    /// Give this request a wall-clock deadline, measured from submission
    /// (see [`RequestPolicy::deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.policy.deadline = Some(deadline);
        self
    }

    /// Allow up to `retries` additional solve attempts after a failure
    /// (see [`RequestPolicy::retry_limit`]).
    #[must_use]
    pub fn with_retry_limit(mut self, retries: u32) -> Self {
        self.policy.retry_limit = retries;
        self
    }

    /// Make the worker that picks this request up panic (see
    /// [`RequestPolicy::chaos_panic`]) — supervision-test
    /// instrumentation, not a serving feature.
    #[must_use]
    pub fn with_chaos_panic(mut self) -> Self {
        self.policy.chaos_panic = true;
        self
    }

    /// The request's serving policy.
    pub fn policy(&self) -> RequestPolicy {
        self.policy
    }
}

/// What a submitter experiences when the work queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Admission {
    /// Block the submitting thread until a queue slot frees up —
    /// closed-loop callers that prefer latency over errors.
    #[default]
    Block,
    /// Fail fast with [`ServeError::Overloaded`] — open-loop callers
    /// that must never stall the arrival process (load shedding).
    Reject,
}

/// Why a [`ServiceConfig`] could not be built. Construction validates
/// instead of silently clamping: a nonsensical knob is an error at
/// `build()` time, never a quietly different deployment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0`: a server with no workers can never complete a
    /// request.
    ZeroWorkers,
    /// `queue == 0`: a zero-depth queue can never admit a request.
    ZeroQueueDepth,
    /// More workers than [`ConfigError::MAX_WORKERS`] — almost certainly
    /// a typo (workers are OS threads each owning an engine core).
    TooManyWorkers {
        /// The requested worker count.
        workers: usize,
    },
}

impl ConfigError {
    /// Upper bound on the worker count a config will accept.
    pub const MAX_WORKERS: usize = 512;
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be >= 1"),
            ConfigError::ZeroQueueDepth => write!(f, "queue depth must be >= 1"),
            ConfigError::TooManyWorkers { workers } => write!(
                f,
                "workers = {workers} exceeds the sanity cap of {}",
                ConfigError::MAX_WORKERS
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Serving-stack tuning knobs, built through [`ServiceConfig::builder`].
///
/// ```
/// use d1lc::service::{Admission, ServiceConfig};
///
/// let config = ServiceConfig::builder()
///     .workers(8)
///     .queue(32)
///     .memo(256)
///     .admission(Admission::Reject)
///     .build()
///     .unwrap();
/// assert_eq!(config.workers(), 8);
/// assert!(ServiceConfig::builder().workers(0).build().is_err());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServiceConfig {
    workers: usize,
    queue_depth: usize,
    memo_capacity: usize,
    admission: Admission,
    watchdog: Option<Duration>,
    shed_after: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::builder().build().expect("default is valid")
    }
}

impl ServiceConfig {
    /// Start building a configuration (see [`ServiceConfigBuilder`]).
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder::default()
    }

    /// Worker threads draining the queue (each owns a rebindable
    /// [`congest::SessionCore`]).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Bounded work-queue depth (admission control triggers beyond it).
    pub fn queue_depth(&self) -> usize {
        self.queue_depth
    }

    /// Maximum memoized responses (FIFO eviction). `0` disables both
    /// memoization and single-flight deduplication.
    pub fn memo_capacity(&self) -> usize {
        self.memo_capacity
    }

    /// Behaviour when the queue is full.
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// Wedged-solve watchdog budget: the longest a single solve may run
    /// after dequeue before the server escalates it. The budget is a
    /// deadline on the solve's cancel token, so the solve stops at its
    /// first pass boundary past it, surfaced as
    /// [`ServeError::DeadlineExceeded`] with this budget (unless the
    /// request's own deadline has also passed). `None` (default) = no
    /// budget: a solve runs until it finishes, its request deadline
    /// passes, or the server is dropped.
    pub fn watchdog(&self) -> Option<Duration> {
        self.watchdog
    }

    /// Graceful-degradation load shedding for [`Admission::Block`]: once
    /// the queue has been continuously full for this long, blocked
    /// submitters stop waiting and fail with [`ServeError::Overloaded`]
    /// (counted in [`crate::server::HealthSnapshot::shed`]). `None`
    /// (default) = block indefinitely. Irrelevant under
    /// [`Admission::Reject`], which sheds instantly.
    pub fn shed_after(&self) -> Option<Duration> {
        self.shed_after
    }
}

/// Builder for [`ServiceConfig`]; `build()` validates every knob.
///
/// Defaults: 1 worker, queue depth 64, memo capacity 128,
/// [`Admission::Block`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfigBuilder {
    workers: Option<usize>,
    queue_depth: Option<usize>,
    memo: Option<usize>,
    admission: Option<Admission>,
    watchdog: Option<Duration>,
    shed_after: Option<Duration>,
}

impl ServiceConfigBuilder {
    /// Worker threads draining the queue (must be ≥ 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Bounded work-queue depth (must be ≥ 1).
    #[must_use]
    pub fn queue(mut self, depth: usize) -> Self {
        self.queue_depth = Some(depth);
        self
    }

    /// Maximum memoized responses (`0` disables memo + single-flight).
    #[must_use]
    pub fn memo(mut self, capacity: usize) -> Self {
        self.memo = Some(capacity);
        self
    }

    /// Behaviour when the queue is full.
    #[must_use]
    pub fn admission(mut self, admission: Admission) -> Self {
        self.admission = Some(admission);
        self
    }

    /// Wedged-solve watchdog budget (see [`ServiceConfig::watchdog`]).
    #[must_use]
    pub fn watchdog(mut self, budget: Duration) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// Sustained-overload shedding threshold for blocking admission (see
    /// [`ServiceConfig::shed_after`]).
    #[must_use]
    pub fn shed_after(mut self, after: Duration) -> Self {
        self.shed_after = Some(after);
        self
    }

    /// Validate and assemble the configuration.
    ///
    /// # Errors
    ///
    /// [`ConfigError::ZeroWorkers`], [`ConfigError::ZeroQueueDepth`], or
    /// [`ConfigError::TooManyWorkers`] — invalid knobs error instead of
    /// being silently clamped.
    pub fn build(self) -> Result<ServiceConfig, ConfigError> {
        let workers = self.workers.unwrap_or(1);
        if workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if workers > ConfigError::MAX_WORKERS {
            return Err(ConfigError::TooManyWorkers { workers });
        }
        let queue_depth = self.queue_depth.unwrap_or(64);
        if queue_depth == 0 {
            return Err(ConfigError::ZeroQueueDepth);
        }
        Ok(ServiceConfig {
            workers,
            queue_depth,
            memo_capacity: self.memo.unwrap_or(128),
            admission: self.admission.unwrap_or_default(),
            watchdog: self.watchdog,
            shed_after: self.shed_after,
        })
    }
}

/// The typed serving-path error. Engine errors stay [`SimError`] inside;
/// everything the *serving layer* adds (admission, deadlines, retries,
/// lifecycle) is its own variant, so callers can branch on the policy
/// outcome without string-matching.
#[derive(Clone, Debug, PartialEq)]
pub enum ServeError {
    /// Admission control rejected the request: the bounded work queue
    /// was full and the service runs [`Admission::Reject`]. The request
    /// was **not** solved; resubmit later or switch to
    /// [`Admission::Block`].
    Overloaded {
        /// The configured queue depth that was exhausted.
        depth: usize,
    },
    /// The request's [`RequestPolicy::deadline`] expired — either while
    /// still queued (checked at dequeue) or cooperatively at a pass
    /// boundary mid-solve ([`SimError::Cancelled`] surfaced as policy) —
    /// or the solve outran the server's [`ServiceConfig::watchdog`]
    /// budget.
    DeadlineExceeded {
        /// The deadline the request carried, or the watchdog budget when
        /// that fired first.
        deadline: Duration,
    },
    /// Every allowed attempt failed transiently. `attempts` counts all
    /// of them (first try + retries); `last` is the final engine error.
    RetriesExhausted {
        /// Total solve attempts made (`retry_limit + 1`).
        attempts: u32,
        /// The error of the last attempt.
        last: SimError,
    },
    /// The solve failed with no retry spent on it: either the request
    /// allowed none ([`RequestPolicy::retry_limit`] = 0), or the error
    /// is deterministic (not [`SimError::is_transient`] — e.g. a strict
    /// bandwidth violation) and a retry could never turn out different.
    Engine(SimError),
    /// The job solving this request **panicked**. Its worker caught the
    /// panic, resolved the ticket (so no waiter hangs), and quarantined
    /// its resident engine core; it serves its next job from a cold core.
    /// The request itself was not completed. A panic is a bug (or
    /// injected chaos, [`RequestPolicy::chaos_panic`]), not a transient
    /// fault — it is never retried by the server.
    WorkerPanicked {
        /// The index of the worker whose job panicked.
        worker: usize,
    },
    /// The server shut down: submitted after close, still queued when
    /// the server was dropped, or cancelled mid-solve by a dropping
    /// server (see `SolveServer::abort`).
    Closed,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { depth } => {
                write!(f, "work queue full (depth {depth}), request rejected")
            }
            ServeError::DeadlineExceeded { deadline } => {
                write!(f, "deadline of {deadline:?} exceeded")
            }
            ServeError::RetriesExhausted { attempts, last } => {
                write!(f, "all {attempts} attempts failed; last: {last}")
            }
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::WorkerPanicked { worker } => {
                write!(f, "worker {worker} panicked while solving this request")
            }
            ServeError::Closed => write!(f, "server closed"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::RetriesExhausted { last, .. } => Some(last),
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for ServeError {
    fn from(e: SimError) -> Self {
        ServeError::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;
    use graphs::palette::random_lists;

    fn instance(n: usize, seed: u64) -> (Arc<Graph>, Arc<ListAssignment>) {
        let graph = gen::gnp(n, 0.08, seed);
        let lists = random_lists(&graph, 32, 0, seed ^ 0x55);
        (Arc::new(graph), Arc::new(lists))
    }

    #[test]
    fn builder_defaults_and_presets() {
        let d = ServiceConfig::default();
        assert_eq!(
            (d.workers(), d.queue_depth(), d.memo_capacity()),
            (1, 64, 128)
        );
        assert_eq!(d.admission(), Admission::Block);
    }

    #[test]
    fn builder_validates_instead_of_clamping() {
        assert_eq!(
            ServiceConfig::builder().workers(0).build(),
            Err(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            ServiceConfig::builder().queue(0).build(),
            Err(ConfigError::ZeroQueueDepth)
        );
        assert_eq!(
            ServiceConfig::builder().workers(100_000).build(),
            Err(ConfigError::TooManyWorkers { workers: 100_000 })
        );
        // Errors display actionable text and implement std::error::Error.
        let err: Box<dyn std::error::Error> = Box::new(ConfigError::ZeroWorkers);
        assert!(err.to_string().contains(">= 1"));
    }

    #[test]
    fn request_policy_rides_the_request() {
        let (g, lists) = instance(20, 1);
        let req = SolveRequest::shared(&g, &lists, SolveOptions::seeded(1))
            .with_deadline(Duration::from_millis(250))
            .with_retry_limit(3);
        assert_eq!(req.policy().deadline, Some(Duration::from_millis(250)));
        assert_eq!(req.policy().retry_limit, 3);
        // The default policy is unconstrained.
        let plain = SolveRequest::shared(&g, &lists, SolveOptions::seeded(1));
        assert_eq!(plain.policy(), RequestPolicy::default());
    }

    #[test]
    fn serve_error_display_and_source() {
        let sim = SimError::BandwidthExceeded {
            from: 1,
            to: 2,
            bits: 99,
            limit: 32,
            round: 7,
        };
        let e = ServeError::RetriesExhausted {
            attempts: 3,
            last: sim.clone(),
        };
        assert!(e.to_string().contains("3 attempts"));
        use std::error::Error as _;
        assert!(e.source().is_some());
        assert_eq!(ServeError::from(sim.clone()), ServeError::Engine(sim));
        assert!(ServeError::Overloaded { depth: 4 }
            .to_string()
            .contains("4"));
        assert!(ServeError::DeadlineExceeded {
            deadline: Duration::from_millis(5)
        }
        .source()
        .is_none());
    }
}
