//! The reference engine: a deliberately naive, single-threaded oracle
//! for the differential tests.
//!
//! [`run_reference`] restates the engine's semantics from DESIGN.md —
//! §2a (delivery and billing), §8 (bundle fates) and §10.1 (crash fates)
//! — as plainly as possible: plain `Vec`s, one `BTreeMap` holdback queue
//! keyed `(receiver, sender)`, whose key order is the documented inbox
//! order, and fates re-derived from [`FaultPlan`]'s public fields with
//! [`prand::mix`]. It shares no code with the session engine beyond the
//! public vocabulary ([`Program`], [`Ctx`] with a plain outbox sink and
//! an [`Inbox`] of plain copies, nothing read in place,
//! [`RunReport`], [`SimError`]), so a bug in the session's plane,
//! scheduler or fault layer shows up as a divergence in
//! `tests/prop_invariants.rs` instead of on both sides of it.
//!
//! It ignores `threads`, `shards` and `sched`: the session's transcripts
//! are invariant under all three, and the α-synchronizer only adds its
//! own overhead counters (which stay zero here) or fails a wedged
//! schedule with [`SimError::ScheduleStalled`] (which never happens
//! here). Nothing in this module is tuned for speed; run protocols on
//! [`crate::Session`] / [`crate::run`].

use crate::error::SimError;
use crate::message::Message;
use crate::metrics::RunReport;
use crate::plane::Sink;
use crate::program::{Ctx, Inbox, Program};
use crate::{Bandwidth, FaultPlan, SimConfig};
use graphs::{Graph, NodeId};
use prand::mix::{bounded, mix2, mix3};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

// Domain tags of the fault streams (DESIGN.md §8.1, §10.1). They are part
// of the specification: a faulty run is a pure function of the pass seed,
// the plan and these constants.
const STREAM_FAULT: u64 = 0xFA17_0001;
const STREAM_ABORT: u64 = 0xFA17_0002;
const STREAM_DELAY: u64 = 0xFA17_0003;
const STREAM_CRASH: u64 = 0xFA17_0004;
const STREAM_CRASH_DELAY: u64 = 0xFA17_0005;

/// Whether the low 16 bits of `lane` fall under the `q / 65536`
/// probability `q`.
fn hit(lane: u64, q: u32) -> bool {
    (lane & 0xFFFF) < u64::from(q)
}

/// A bundle in flight: everything one sender put on one directed edge in
/// one round, delivered `copies` times once round `due` comes.
struct Held<M> {
    due: u64,
    copies: u32,
    msgs: Vec<M>,
}

/// Run one pass of `programs` (one per node of `graph`) with the same
/// contract as [`crate::Session::run`] with pass seed `config.seed`: the
/// same [`RunReport`], the same error, the same inboxes in the same
/// order, and `programs` left in the same state — on error too.
///
/// # Errors
///
/// As [`crate::Session::run`]: [`SimError::NotANeighbor`] (first sender
/// in node order, its first bad send), [`SimError::BandwidthExceeded`]
/// (first receiver in node order, its first over-cap in-neighbor), and
/// the fault plan's [`SimError::FaultInjected`],
/// [`SimError::NodeCrashed`] and [`SimError::QuorumLost`].
///
/// # Panics
///
/// Panics if `programs.len() != graph.n()`.
pub fn run_reference<P: Program>(
    graph: &Graph,
    programs: &mut [P],
    config: SimConfig,
) -> Result<RunReport, SimError> {
    let n = graph.n();
    assert_eq!(programs.len(), n, "need exactly one program per node");
    let plan: FaultPlan = config.fault;
    // An active plan makes the network forgiving: a send to a
    // non-neighbor is eaten and counted instead of failing the run.
    let forgiving = plan.is_active();
    let key = mix3(config.seed, plan.salt, STREAM_FAULT);
    let crash_key = mix3(config.seed, plan.salt, STREAM_CRASH);

    let mut rngs: Vec<StdRng> = (0..n)
        .map(|v| StdRng::seed_from_u64(mix2(config.seed, v as u64)))
        .collect();
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
    // A node retires for the rest of the run once it is done.
    let mut retired: Vec<bool> = programs.iter().map(|p| p.is_done()).collect();
    // Node v is down at round r iff r < up_at[v]; crash-stop is u64::MAX.
    let mut up_at: Vec<u64> = vec![0; n];
    let mut first_crash: Vec<Option<u64>> = vec![None; n];
    // Receivers whose inbound traffic was dropped, delayed or truncated.
    let mut starved: Vec<bool> = vec![false; n];
    let mut held: BTreeMap<(NodeId, NodeId), Vec<Held<P::Msg>>> = BTreeMap::new();
    let mut report = RunReport {
        completed: true,
        ..RunReport::default()
    };

    let mut round = 0u64;
    loop {
        if retired.iter().all(|&r| r) {
            break;
        }
        if round >= config.max_rounds {
            report.completed = false;
            break;
        }
        if hit(mix3(key, STREAM_ABORT, round), plan.abort_q) {
            return Err(SimError::FaultInjected { round });
        }
        // Crash fates: every node that is up rolls its crash die.
        if plan.crash_q > 0 {
            for v in 0..n {
                if round < up_at[v] {
                    continue;
                }
                let h = mix3(crash_key, v as u64, round);
                if hit(h, plan.crash_q) {
                    first_crash[v].get_or_insert(round);
                    report.faults.crashes += 1;
                    up_at[v] = match plan.crash_recovery {
                        0 => u64::MAX,
                        k => round + 1 + bounded(mix2(h, STREAM_CRASH_DELAY), u64::from(k)),
                    };
                }
            }
        }

        // Step: every node still in the run and up reads its inbox and
        // fills a plain outbox, in send order.
        let mut outboxes: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
        for v in 0..n {
            if retired[v] || round < up_at[v] {
                continue;
            }
            let mut ctx = Ctx {
                node: v as NodeId,
                round,
                neighbors: graph.neighbors(v as NodeId),
                inbox: Inbox::owned(&inboxes[v]),
                rng: &mut rngs[v],
                sink: Sink::Queue(&mut outboxes[v]),
            };
            programs[v].on_round(&mut ctx);
            retired[v] = programs[v].is_done();
        }

        // Bundle the sends per directed edge, keyed (receiver, sender).
        let mut bundles: BTreeMap<(NodeId, NodeId), Vec<P::Msg>> = BTreeMap::new();
        let mut bad_send = None;
        for (u, out) in outboxes.into_iter().enumerate() {
            let u = u as NodeId;
            for (v, msg) in out {
                if graph.neighbors(u).binary_search(&v).is_ok() {
                    bundles.entry((v, u)).or_default().push(msg);
                } else if forgiving {
                    report.faults.misrouted += 1;
                } else if bad_send.is_none() {
                    bad_send = Some(SimError::NotANeighbor {
                        from: u,
                        to: v,
                        round,
                    });
                }
            }
        }
        if let Some(e) = bad_send {
            return Err(e);
        }

        // Bill every bundle at its send round (after any truncation),
        // then decide its fate and queue it for delivery.
        let mut round_max = 0u64;
        for ((v, u), mut bundle) in bundles {
            let mut bits: u64 = bundle.iter().map(Message::bit_cost).sum();
            if let Bandwidth::Strict(limit) = config.bandwidth {
                if bits > limit && !plan.truncate {
                    return Err(SimError::BandwidthExceeded {
                        from: u,
                        to: v,
                        bits,
                        limit,
                        round,
                    });
                }
                if bits > limit {
                    // Keep the longest prefix that fits the cap.
                    let mut keep = 0;
                    bits = 0;
                    while keep < bundle.len() && bits + bundle[keep].bit_cost() <= limit {
                        bits += bundle[keep].bit_cost();
                        keep += 1;
                    }
                    report.faults.truncated += (bundle.len() - keep) as u64;
                    bundle.truncate(keep);
                    starved[v as usize] = true;
                }
            }
            round_max = round_max.max(bits);
            report.total_bits += bits;
            report.messages += bundle.len() as u64;
            if bundle.is_empty() {
                continue;
            }
            if round < up_at[v as usize] {
                // A down receiver loses the bundle: no dice are rolled,
                // and a dead node is not starved.
                report.faults.dropped += 1;
                continue;
            }
            let h = mix3(key, (u64::from(u) << 32) | u64::from(v), round);
            if hit(h, plan.drop_q) {
                report.faults.dropped += 1;
                starved[v as usize] = true;
                continue;
            }
            let copies = if hit(h >> 32, plan.dup_q) { 2 } else { 1 };
            if copies == 2 {
                report.faults.duplicated += 1;
            }
            let mut due = round;
            if hit(h >> 16, plan.delay_q) {
                let span = u64::from(plan.max_delay.max(1));
                due += 1 + bounded(mix2(h, STREAM_DELAY), span);
                report.faults.delayed += 1;
                starved[v as usize] = true;
            }
            held.entry((v, u)).or_default().push(Held {
                due,
                copies,
                msgs: bundle,
            });
        }
        report.edge_load.record(round_max);

        // Deliver everything due, in key order and, per edge, in send
        // order, copies adjacent. A bundle whose sender or receiver is
        // down when it falls due is lost; a live receiver is starved.
        for inbox in &mut inboxes {
            inbox.clear();
        }
        held.retain(|&(v, u), queue| {
            let (v, u) = (v as usize, u as usize);
            queue.retain(|b| {
                if b.due > round {
                    return true;
                }
                if round < up_at[v] || round < up_at[u] {
                    report.faults.dropped += 1;
                    starved[v] |= round >= up_at[v];
                } else {
                    for _ in 0..b.copies {
                        inboxes[v].extend(b.msgs.iter().map(|m| (u as NodeId, m.clone())));
                    }
                }
                false
            });
            !queue.is_empty()
        });
        round += 1;
    }

    report.rounds = round;
    let nodes = |flags: Vec<bool>| {
        (0..n as NodeId)
            .zip(flags)
            .filter_map(|(v, f)| f.then_some(v))
            .collect()
    };
    report.starved = nodes(starved);
    report.crashed = nodes(first_crash.iter().map(Option::is_some).collect());
    // The fail-fast verdicts fire last, on the assembled report.
    if plan.crash_q > 0 {
        let first = (0..n as NodeId)
            .zip(&first_crash)
            .filter_map(|(v, r)| r.map(|r| (r, v)))
            .min();
        if let (true, Some((round, node))) = (plan.crash_fatal, first) {
            return Err(SimError::NodeCrashed { node, round });
        }
        let live = up_at.iter().filter(|&&up| round >= up).count() as u64;
        if live < u64::from(plan.min_live) {
            return Err(SimError::QuorumLost {
                live,
                quorum: u64::from(plan.min_live),
                round,
            });
        }
    }
    Ok(report)
}
