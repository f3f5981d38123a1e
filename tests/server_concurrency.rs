//! Interleaving tests for the concurrent serving stack: barrier-forced
//! races over the single-flight memo and the per-worker session
//! checkout/return paths, plus a duplicate-submission proptest.
//!
//! The repo has no loom dependency, so interleavings are *forced* the
//! portable way: `std::sync::Barrier` lines submitter threads up on the
//! exact race window (every thread submits the same key in the same
//! instant), and repetition covers the schedule space. The invariants
//! under test (see DESIGN.md §7):
//!
//! * **Single flight** — N concurrent submissions of one key cost at
//!   most one engine solve while the flight is open, and every submitter
//!   resolves to the *same* `Arc` (pointer identity, not just equality).
//! * **Checkout/return** — worker-resident cores survive arbitrary
//!   concurrent graph mixes: rebinds and same-graph rebinds interleave
//!   freely, and every response stays byte-identical to a one-shot
//!   solve.
//! * **Admission under contention** — a full queue with Reject sheds
//!   precisely; with Block it throttles and still serves everything.

mod common;
use common::proptest_cases;
use congest_coloring::d1lc::server::SolveServer;
use congest_coloring::d1lc::service::{Admission, ServeError, ServiceConfig, SolveRequest};
use congest_coloring::d1lc::{solve, SolveOptions};
use congest_coloring::graphs::palette::{random_lists, ListAssignment};
use congest_coloring::graphs::{gen, Graph};
use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use std::thread;

fn instance(n: usize, seed: u64) -> (Arc<Graph>, Arc<ListAssignment>) {
    let graph = gen::gnp(n, 0.08, seed);
    let lists = random_lists(&graph, 32, 0, seed ^ 0x55);
    (Arc::new(graph), Arc::new(lists))
}

/// Barrier-forced single-flight: 8 threads submit the identical request
/// at the same instant; the server must run ONE engine solve and hand
/// all 8 the same `Arc`.
#[test]
fn concurrent_duplicates_share_one_flight() {
    let (g, lists) = instance(200, 1);
    for round in 0..8u64 {
        let config = ServiceConfig::builder().workers(2).build().unwrap();
        let server = SolveServer::start(config);
        let handle = server.handle();
        let barrier = Arc::new(Barrier::new(8));
        let results: Vec<_> = (0..8)
            .map(|_| {
                let handle = handle.clone();
                let barrier = Arc::clone(&barrier);
                let req = SolveRequest::shared(&g, &lists, SolveOptions::seeded(round));
                thread::spawn(move || {
                    barrier.wait();
                    handle.solve(req).expect("duplicate serves")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("submitter thread"))
            .collect();
        for other in &results[1..] {
            assert!(
                Arc::ptr_eq(&results[0], other),
                "round {round}: duplicates must share one response Arc"
            );
        }
        let stats = server.stats();
        let engine_solves = stats.fresh_sessions + stats.rebinds + stats.same_graph_rebinds;
        assert_eq!(
            engine_solves, 1,
            "round {round}: concurrent duplicates must cost one engine solve \
             (stats: {stats:?})"
        );
        assert_eq!(stats.memo_hits + stats.dedup_joins, 7, "round {round}");
        assert_eq!(stats.completed, 8, "round {round}");
    }
}

/// Barrier-forced checkout/return: submitter threads race two graphs
/// through few workers (memo off, so every request runs the engine), so
/// resident cores are constantly rebound across topologies. Every
/// response must stay byte-identical to a one-shot solve.
#[test]
fn concurrent_checkout_return_stays_deterministic() {
    let (g1, l1) = instance(150, 2);
    let (g2, l2) = instance(90, 3);
    let direct = |req: &SolveRequest| solve(&req.graph, &req.lists, req.options).unwrap();
    let config = ServiceConfig::builder().workers(2).memo(0).build().unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    let barrier = Arc::new(Barrier::new(6));
    let threads: Vec<_> = (0..6u64)
        .map(|i| {
            let handle = handle.clone();
            let barrier = Arc::clone(&barrier);
            // Alternate graphs so cores bounce between topologies.
            let req = if i % 2 == 0 {
                SolveRequest::shared(&g1, &l1, SolveOptions::seeded(i))
            } else {
                SolveRequest::shared(&g2, &l2, SolveOptions::seeded(i))
            };
            thread::spawn(move || {
                barrier.wait();
                let served = handle.solve(req.clone()).expect("serves");
                (req, served)
            })
        })
        .collect();
    for t in threads {
        let (req, served) = t.join().expect("submitter thread");
        let reference = direct(&req);
        assert_eq!(served.coloring, reference.coloring);
        assert_eq!(served.log.passes(), reference.log.passes());
    }
    let stats = server.stats();
    assert_eq!(
        stats.fresh_sessions + stats.rebinds + stats.same_graph_rebinds,
        6,
        "memo off: every request runs the engine ({stats:?})"
    );
}

/// Admission under barrier-forced contention: Reject sheds the overflow
/// precisely (submitted = completed + rejected), Block serves everything.
#[test]
fn admission_contention_accounts_for_every_request() {
    let (g, lists) = instance(220, 4);
    for admission in [Admission::Reject, Admission::Block] {
        let config = ServiceConfig::builder()
            .workers(1)
            .queue(1)
            .memo(0)
            .admission(admission)
            .build()
            .unwrap();
        let server = SolveServer::start(config);
        let handle = server.handle();
        let barrier = Arc::new(Barrier::new(6));
        let outcomes: Vec<_> = (0..6u64)
            .map(|i| {
                let handle = handle.clone();
                let barrier = Arc::clone(&barrier);
                let req = SolveRequest::shared(&g, &lists, SolveOptions::seeded(i));
                thread::spawn(move || {
                    barrier.wait();
                    handle.solve(req)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("submitter thread"))
            .collect();
        let ok = outcomes.iter().filter(|o| o.is_ok()).count();
        let shed = outcomes
            .iter()
            .filter(|o| matches!(o, Err(ServeError::Overloaded { depth: 1 })))
            .count();
        assert_eq!(ok + shed, 6, "no request may vanish ({admission:?})");
        match admission {
            Admission::Block => assert_eq!(ok, 6, "Block admission serves everything"),
            Admission::Reject => {
                assert!(ok >= 1, "the queue always serves at least its depth")
            }
        }
        let stats = server.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.rejected as usize, shed);
        assert_eq!(stats.completed as usize, ok);
    }
}

/// PR-7 satellite: transient injected faults are absorbed by the retry
/// budget — a request whose fault plan aborts some attempts still
/// resolves its ticket with a proper coloring, the retries are counted,
/// and concurrent tickets under the same chaos all resolve.
#[test]
fn injected_faults_are_absorbed_by_retries() {
    let (g, lists) = instance(80, 5);
    // A per-round abort rate low enough that a re-rolled (re-salted)
    // attempt succeeds quickly, high enough that attempts do abort. All
    // of it is deterministic — for this seed, attempts 1-3 abort and
    // attempt 4 completes, every run of this test.
    let mut options = SolveOptions::seeded(4);
    options.sim.fault = congest_coloring::congest::FaultPlan::none().with_abort(0.02);
    let config = ServiceConfig::builder().workers(2).memo(0).build().unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    let tickets: Vec<_> = (0..4)
        .map(|_| handle.submit(SolveRequest::shared(&g, &lists, options).with_retry_limit(10)))
        .collect();
    for ticket in &tickets {
        let served = ticket.wait().expect("retries absorb the injected aborts");
        assert_eq!(
            congest_coloring::graphs::palette::check_coloring(&g, &lists, &served.coloring),
            Ok(()),
            "a retried solve must still be proper"
        );
    }
    let stats = server.stats();
    // Memo is off, so each of the 4 identical requests independently
    // burns the same deterministic 3 aborted attempts before recovering.
    assert_eq!(
        stats.retries, 12,
        "expected 3 deterministic retries per request ({stats:?})"
    );
    assert_eq!(
        stats.engine_errors, 0,
        "every request recovered ({stats:?})"
    );
    assert_eq!(stats.completed, 4);
}

/// PR-9 tentpole: a panicking job is supervised. The victim ticket
/// resolves with `WorkerPanicked` (no hang), the worker's resident core
/// is quarantined (never returned to rotation), the worker recovers in
/// place, and subsequent submissions serve byte-identical responses —
/// all visible through `HealthSnapshot`.
#[test]
fn worker_panic_is_supervised_and_resolves_every_ticket() {
    let (g, lists) = instance(90, 6);
    let config = ServiceConfig::builder().workers(1).memo(0).build().unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    assert_eq!(handle.health().live_workers, 1);

    // Warm the (single) worker's resident core with a normal solve.
    let req = SolveRequest::shared(&g, &lists, SolveOptions::seeded(11));
    let first = handle.solve(req.clone()).expect("serves before the panic");

    // Chaos: the next job panics the worker mid-service.
    let chaos = SolveRequest::shared(&g, &lists, SolveOptions::seeded(12)).with_chaos_panic();
    match handle.solve(chaos) {
        Err(ServeError::WorkerPanicked { worker: 0 }) => {}
        other => panic!("expected WorkerPanicked from worker 0, got {other:?}"),
    }

    // The recovered worker serves the identical request byte-for-byte
    // (from a cold core — the warm one was poisoned and discarded).
    let second = handle.solve(req).expect("serves after the panic");
    assert_eq!(first.coloring, second.coloring);
    assert_eq!(first.log.passes(), second.log.passes());
    assert_eq!(first.stats, second.stats);

    let health = handle.health();
    assert_eq!(health.panics, 1, "the worker must count the panic");
    assert_eq!(
        health.quarantined_cores, 1,
        "the panicked worker's resident core must be quarantined"
    );
    assert_eq!(health.live_workers, 1, "the pool keeps its strength");
    let stats = handle.stats();
    assert_eq!(
        stats.fresh_sessions, 2,
        "the next job starts cold: both real solves build fresh ({stats:?})"
    );
}

/// Repeated panics: every chaos ticket resolves, every panic counts,
/// and the server keeps serving between failures.
#[test]
fn repeated_panics_never_hang_tickets() {
    let (g, lists) = instance(60, 7);
    let config = ServiceConfig::builder().workers(2).memo(0).build().unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    for round in 0..3u64 {
        let chaos =
            SolveRequest::shared(&g, &lists, SolveOptions::seeded(round)).with_chaos_panic();
        assert!(
            matches!(handle.solve(chaos), Err(ServeError::WorkerPanicked { .. })),
            "round {round}"
        );
        let ok = handle
            .solve(SolveRequest::shared(
                &g,
                &lists,
                SolveOptions::seeded(100 + round),
            ))
            .expect("server keeps serving between panics");
        assert_eq!(
            congest_coloring::graphs::palette::check_coloring(&g, &lists, &ok.coloring),
            Ok(())
        );
    }
    let health = handle.health();
    assert_eq!(health.panics, 3);
    assert_eq!(health.live_workers, 2);
}

/// PR-9 satellite (teardown regression): dropping the `SolveServer`
/// while tickets are outstanding must resolve every one of them promptly
/// — queued jobs fail `Closed`, nothing hangs — even with waiter threads
/// parked on the tickets from elsewhere.
#[test]
fn drop_with_outstanding_tickets_fails_closed_promptly() {
    let (g, lists) = instance(220, 8);
    let config = ServiceConfig::builder()
        .workers(1)
        .queue(16)
        .memo(0)
        .build()
        .unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    let tickets: Vec<_> = (0..8)
        .map(|i| handle.submit(SolveRequest::shared(&g, &lists, SolveOptions::seeded(i))))
        .collect();
    // Park waiter threads on the tail tickets BEFORE the drop: the old
    // drain-on-drop semantics would leave them blocked behind 8 solves;
    // the fix resolves them with `Closed` instead.
    let waiters: Vec<_> = tickets
        .iter()
        .skip(4)
        .map(|t| {
            let t = t.clone();
            thread::spawn(move || t.wait())
        })
        .collect();
    drop(server);
    let mut closed = 0;
    for ticket in &tickets {
        match ticket.try_result() {
            Some(Ok(_)) => {}
            Some(Err(ServeError::Closed)) => closed += 1,
            other => panic!("unresolved or unexpected ticket after drop: {other:?}"),
        }
    }
    assert!(closed > 0, "8 queued jobs cannot all finish before drop");
    for w in waiters {
        match w.join().expect("waiter thread") {
            Ok(_) | Err(ServeError::Closed) => {}
            other => panic!("parked waiter got {other:?}"),
        }
    }
    // Submissions through a surviving handle fail Closed immediately.
    let late = handle.solve(SolveRequest::shared(&g, &lists, SolveOptions::seeded(99)));
    assert_eq!(late.unwrap_err(), ServeError::Closed);
}

/// Teardown reaches a solve that is already running: its cancel token
/// watches the server's abort flag, so dropping the server stops the
/// solve at its next pass boundary and the ticket resolves `Closed`
/// instead of waiting out the whole solve.
#[test]
fn drop_cancels_the_running_solve() {
    let (g, lists) = instance(1200, 12);
    let config = ServiceConfig::builder().workers(1).memo(0).build().unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    let ticket = handle.submit(SolveRequest::shared(&g, &lists, SolveOptions::seeded(1)));
    // An empty queue means the worker has dequeued the job.
    while handle.health().queue_depth > 0 {
        thread::yield_now();
    }
    drop(server);
    match ticket.try_result() {
        Some(Err(ServeError::Closed)) => {}
        other => panic!(
            "expected the running solve to resolve Closed, got {:?}",
            other.map(|outcome| outcome.map(|result| result.log.passes().len()))
        ),
    }
}

/// The wedged-solve watchdog escalates a solve that outlives its budget:
/// the ticket resolves with `DeadlineExceeded` carrying the watchdog
/// budget, and the worker survives to serve the next request.
#[test]
fn watchdog_escalates_wedged_solves() {
    use std::time::Duration;
    // Large instance + tiny budget: the solve cannot finish in 2ms, so
    // the watchdog cancels it at a pass boundary.
    let (g, lists) = instance(600, 9);
    let budget = Duration::from_millis(2);
    let config = ServiceConfig::builder()
        .workers(1)
        .memo(0)
        .watchdog(budget)
        .build()
        .unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    match handle.solve(SolveRequest::shared(&g, &lists, SolveOptions::seeded(1))) {
        Err(ServeError::DeadlineExceeded { deadline }) => assert_eq!(deadline, budget),
        other => panic!("expected watchdog escalation, got {other:?}"),
    }
    assert!(handle.stats().deadline_misses >= 1);
    // The worker is not wedged: a small request still serves.
    let (g2, l2) = instance(20, 10);
    handle
        .solve(SolveRequest::shared(&g2, &l2, SolveOptions::seeded(2)))
        .expect("small solve beats the watchdog");

    // The budget is a deadline on the solve's own cancel token, not a
    // polling thread's tick: a zero budget stops even a 20-node solve at
    // its first pass boundary.
    let config = ServiceConfig::builder()
        .workers(1)
        .memo(0)
        .watchdog(Duration::ZERO)
        .build()
        .unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    for seed in 0..5 {
        let (g, lists) = instance(20, seed);
        match handle.solve(SolveRequest::shared(&g, &lists, SolveOptions::seeded(seed))) {
            Err(ServeError::DeadlineExceeded { deadline }) => assert_eq!(deadline, Duration::ZERO),
            other => panic!("seed {seed}: expected zero-budget escalation, got {other:?}"),
        }
    }
    assert_eq!(handle.stats().deadline_misses, 5);
}

/// Graceful degradation: with Block admission and `shed_after`, a queue
/// that stays full sheds blocked submitters instead of parking them
/// forever, and the shed count lands in `HealthSnapshot`.
#[test]
fn sustained_overload_sheds_blocked_submitters() {
    use std::time::Duration;
    let (g, lists) = instance(300, 11);
    let config = ServiceConfig::builder()
        .workers(1)
        .queue(1)
        .memo(0)
        .shed_after(Duration::from_millis(5))
        .build()
        .unwrap();
    let server = SolveServer::start(config);
    let handle = server.handle();
    // Pin the one worker on a large solve first, as in
    // `drop_cancels_the_running_solve`: an empty queue means the worker
    // has dequeued it, so the overload below does not depend on how
    // fast the flood's own solves run.
    let (big, big_lists) = instance(1200, 12);
    let pinned = handle.submit(SolveRequest::shared(
        &big,
        &big_lists,
        SolveOptions::seeded(1),
    ));
    while handle.health().queue_depth > 0 {
        thread::yield_now();
    }
    // Flood from threads: the pinned worker + depth-1 queue stay
    // saturated far longer than the 5ms shed threshold, so some blocked
    // submitters must shed.
    let outcomes: Vec<_> = (0..6u64)
        .map(|i| {
            let handle = handle.clone();
            let (g, lists) = (Arc::clone(&g), Arc::clone(&lists));
            thread::spawn(move || {
                handle.solve(SolveRequest::shared(&g, &lists, SolveOptions::seeded(i)))
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|t| t.join().expect("submitter thread"))
        .collect();
    let ok = outcomes.iter().filter(|o| o.is_ok()).count();
    let shed = outcomes
        .iter()
        .filter(|o| matches!(o, Err(ServeError::Overloaded { depth: 1 })))
        .count();
    assert_eq!(ok + shed, 6, "no request may vanish");
    assert!(ok >= 1, "the queue still serves");
    assert!(shed >= 1, "sustained overload must shed someone");
    assert_eq!(handle.health().shed as usize, shed);
    pinned.wait().expect("the pinned solve completes");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: proptest_cases(8), ..ProptestConfig::default() })]

    /// PR-6 satellite: concurrent submission of N duplicates of a random
    /// request yields ONE engine solve and N pointer-identical `Arc`
    /// responses, for any worker count, submitter count, and queue depth.
    #[test]
    fn duplicate_submissions_cost_one_solve(
        n in 16usize..160,
        p in 0.02f64..0.15,
        gseed in 0u64..500,
        lseed in 0u64..500,
        seed in 0u64..500,
        workers_idx in 0usize..3,
        submitters in 2usize..9,
        queue_idx in 0usize..3,
    ) {
        let workers = [1usize, 2, 8][workers_idx];
        let queue = [1usize, 4, 64][queue_idx];
        let graph = Arc::new(gen::gnp(n, p, gseed));
        let lists = Arc::new(random_lists(&graph, 32, 0, lseed));
        let config = ServiceConfig::builder()
            .workers(workers)
            .queue(queue)
            .build()
            .expect("valid config");
        let server = SolveServer::start(config);
        let handle = server.handle();
        let barrier = Arc::new(Barrier::new(submitters));
        let results: Vec<_> = (0..submitters)
            .map(|_| {
                let handle = handle.clone();
                let barrier = Arc::clone(&barrier);
                let req = SolveRequest::shared(&graph, &lists, SolveOptions::seeded(seed));
                thread::spawn(move || {
                    barrier.wait();
                    handle.solve(req).expect("duplicate serves")
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|t| t.join().expect("submitter thread"))
            .collect();
        for other in &results[1..] {
            prop_assert!(
                Arc::ptr_eq(&results[0], other),
                "duplicates must share one response Arc (workers={}, queue={})",
                workers,
                queue
            );
        }
        let stats = server.stats();
        let engine_solves = stats.fresh_sessions + stats.rebinds + stats.same_graph_rebinds;
        prop_assert!(
            engine_solves == 1,
            "expected one engine solve, stats: {:?}",
            stats
        );
        // The response is the one-shot result, byte for byte.
        let direct = solve(&graph, &lists, SolveOptions::seeded(seed)).expect("one-shot");
        prop_assert!(results[0].coloring == direct.coloring);
        prop_assert!(results[0].log.passes() == direct.log.passes());
    }
}
