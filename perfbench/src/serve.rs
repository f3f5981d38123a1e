//! The serve-open harness: an open-loop request stream into a one-worker
//! `SolveServer`, timed from each request's due time.
//!
//! One thread (the caller's) generates arrivals: it sleeps until each
//! request is due, submits it, and between arrivals collects resolved
//! tickets in order. Each response's coloring is checked and the response
//! dropped as soon as its latency is recorded, so the harness holds only
//! the tickets still outstanding. Together with the server's one worker
//! that makes two busy threads.
//!
//! [`open_loop`] sends one segment of the stream and waits for all of it,
//! so the caller can read the host-speed gauge between segments while
//! the worker is idle.

use crate::plan::{Instance, Request};
use crate::stats::{fifo_split, Job, Split};
use congest::SimConfig;
use d1lc::server::ServerHandle;
use d1lc::service::SolveRequest;
use d1lc::{ServerStats, SolveOptions, Ticket};
use graphs::palette::check_coloring;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The server request for `req`: the catalog's shared instance, default
/// options (laptop profile, engine threads = 1) and the request's seed.
pub fn request(catalog: &[Instance], req: &Request) -> SolveRequest {
    let inst = &catalog[req.instance];
    SolveRequest::shared(&inst.graph, &inst.lists, SolveOptions::seeded(req.seed))
}

/// How the server handled one submission, read from its counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    /// Enqueued for the worker.
    Queued,
    /// Answered from the memo or joined an in-flight duplicate.
    Hit,
    /// Refused by admission control.
    Rejected,
}

/// A submitted request whose ticket has not been collected yet.
struct Pending {
    ticket: Ticket,
    due: Instant,
    sent: Instant,
    route: Route,
    request: usize,
}

/// What an open-loop run measured.
#[derive(Default)]
pub struct OpenLoop {
    /// Requests sent.
    pub attempted: usize,
    /// Rejected or failed tickets plus improper colorings.
    pub failed: usize,
    /// Due time → resolution, per completed request.
    pub latencies: Vec<Duration>,
    /// The FIFO wait/service split of each enqueued job.
    pub splits: Vec<Split>,
    /// Wall time of each `ServerHandle::submit` call.
    pub submit_times: Vec<Duration>,
    /// The generator's worst lateness past a due time.
    pub max_lateness: Duration,
    /// Σ of `normalized_rounds(B)` over the distinct requests served.
    pub rounds_at_b: u64,
    /// Distinct requests served.
    pub distinct: usize,
}

impl OpenLoop {
    /// Append a later segment's measurements.
    pub fn absorb(&mut self, later: OpenLoop) {
        self.attempted += later.attempted;
        self.failed += later.failed;
        self.latencies.extend(later.latencies);
        self.splits.extend(later.splits);
        self.submit_times.extend(later.submit_times);
        self.max_lateness = self.max_lateness.max(later.max_lateness);
        self.rounds_at_b += later.rounds_at_b;
        self.distinct += later.distinct;
    }
}

/// Send `stream` (one segment) at `rate` requests/s and collect every
/// response. Repeats in `stream` may refer to requests of earlier
/// segments.
pub fn open_loop(
    handle: &ServerHandle,
    catalog: &[Instance],
    stream: &[Request],
    rate: f64,
) -> OpenLoop {
    let mut out = OpenLoop::default();
    let mut jobs = Vec::new();
    let period = Duration::from_secs_f64(1.0 / rate);
    let mut pending: VecDeque<Pending> = VecDeque::new();
    let start = Instant::now();
    for (i, req) in stream.iter().enumerate() {
        let due = start + period.mul_f64(i as f64);
        collect(
            &mut pending,
            false,
            start,
            catalog,
            stream,
            &mut out,
            &mut jobs,
        );
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let counters = handle.stats();
        let sent = Instant::now();
        let ticket = handle.submit(request(catalog, req));
        out.submit_times.push(sent.elapsed());
        let after = handle.stats();
        let route = if after.rejected > counters.rejected {
            Route::Rejected
        } else if after.memo_hits + after.dedup_joins > counters.memo_hits + counters.dedup_joins {
            Route::Hit
        } else {
            Route::Queued
        };
        out.max_lateness = out.max_lateness.max(sent - due);
        pending.push_back(Pending {
            ticket,
            due,
            sent,
            route,
            request: i,
        });
    }
    collect(
        &mut pending,
        true,
        start,
        catalog,
        stream,
        &mut out,
        &mut jobs,
    );
    out.attempted = stream.len();
    out.splits = fifo_split(&jobs);
    out
}

/// Record resolved tickets from the front of `pending`, in order, and
/// each enqueued one's timeline in `jobs`; with `block`, wait for all of
/// them.
fn collect(
    pending: &mut VecDeque<Pending>,
    block: bool,
    start: Instant,
    catalog: &[Instance],
    stream: &[Request],
    out: &mut OpenLoop,
    jobs: &mut Vec<Job>,
) {
    while let Some(front) = pending.front() {
        let outcome = if block {
            front.ticket.wait()
        } else {
            match front.ticket.try_result() {
                Some(outcome) => outcome,
                None => return,
            }
        };
        let p = pending.pop_front().expect("front exists");
        let done = p
            .ticket
            .completed_at()
            .expect("resolved ticket has an instant");
        if p.route == Route::Queued {
            jobs.push(Job {
                due: p.due - start,
                sent: p.sent - start,
                completed: done - start,
            });
        }
        let req = &stream[p.request];
        let inst = &catalog[req.instance];
        match outcome {
            Ok(result) if check_coloring(&inst.graph, &inst.lists, &result.coloring).is_ok() => {
                out.latencies.push(done - p.due);
                if !req.repeat {
                    let b = SimConfig::congest_bits(inst.graph.n(), 2);
                    out.rounds_at_b += result.normalized_rounds(b);
                    out.distinct += 1;
                }
            }
            _ => out.failed += 1,
        }
    }
}

/// Counter growth from `before` to `after`.
pub fn delta(after: ServerStats, before: ServerStats) -> ServerStats {
    ServerStats {
        submitted: after.submitted - before.submitted,
        completed: after.completed - before.completed,
        rejected: after.rejected - before.rejected,
        memo_hits: after.memo_hits - before.memo_hits,
        dedup_joins: after.dedup_joins - before.dedup_joins,
        deadline_misses: after.deadline_misses - before.deadline_misses,
        retries: after.retries - before.retries,
        engine_errors: after.engine_errors - before.engine_errors,
        fresh_sessions: after.fresh_sessions - before.fresh_sessions,
        rebinds: after.rebinds - before.rebinds,
        same_graph_rebinds: after.same_graph_rebinds - before.same_graph_rebinds,
        legacy_engine_solves: after.legacy_engine_solves - before.legacy_engine_solves,
    }
}
