//! The reference engine: the independent oracle of the differential
//! tests.
//!
//! [`run_reference`] is the original sort-and-scatter message plane:
//! per-node `Vec<(NodeId, Msg)>` outboxes, a per-round `sort_by_key` to
//! group each outbox by destination, a `binary_search` neighbor check
//! per destination group, and scattered `inboxes[dst].push(..)`
//! delivery. It shares no mailbox-plane code with the session engine
//! (only the fault layer's `FaultState` and `apply_cap`), so
//! `tests/prop_invariants.rs` and the engine unit tests hold the session
//! to it: same [`RunReport`]s, final program states, and inbox orders.
//! Experiment E0 also measures the mailbox plane against it.
//!
//! It is not part of the supported API surface for protocols; use
//! [`crate::run`] / [`crate::Session`].

use crate::error::SimError;
use crate::fault::{apply_cap, Decision, FaultCounters, FaultState};
use crate::message::Message;
use crate::metrics::RunReport;
use crate::plane::Sink;
use crate::program::{Ctx, Program};
use crate::{Bandwidth, SimConfig};
use graphs::{Graph, NodeId};
use prand::mix::mix2;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Run `programs` on the legacy outbox plane. Same contract as
/// [`crate::run`], bit-for-bit identical results, allocation-heavy
/// routing.
///
/// # Errors
///
/// Same as [`crate::run`].
///
/// # Panics
///
/// Panics if `programs.len() != graph.n()`.
pub fn run_reference<P: Program>(
    graph: &Graph,
    mut programs: Vec<P>,
    config: SimConfig,
) -> Result<(Vec<P>, RunReport), SimError> {
    assert_eq!(
        programs.len(),
        graph.n(),
        "need exactly one program per node"
    );
    let n = graph.n();
    let mut rngs: Vec<StdRng> = (0..n)
        .map(|v| StdRng::seed_from_u64(mix2(config.seed, v as u64)))
        .collect();
    let mut inboxes: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
    let mut outboxes: Vec<Vec<(NodeId, P::Msg)>> = (0..n).map(|_| Vec::new()).collect();
    // Explicitly halted nodes (Ctx::halt): skipped and counted as
    // finished, mirroring the session scheduler's contract.
    let mut halted: Vec<bool> = vec![false; n];
    let mut report = RunReport {
        completed: true,
        ..Default::default()
    };
    // Fault-injection state for this run (None = the unmodified
    // fault-free path). The legacy plane reuses the same stateless
    // decision stream and holdback queues as the session engine, keyed
    // on the identical (pass seed, edge, round) coordinates, so both
    // engines inject byte-identically.
    let fault = config
        .fault
        .is_active()
        .then(|| FaultState::new(config.fault, config.seed, graph));

    let mut round = 0u64;
    loop {
        if programs.iter().zip(&halted).all(|(p, &h)| h || p.is_done()) {
            break;
        }
        if round >= config.max_rounds {
            report.completed = false;
            break;
        }
        if let Some(f) = &fault {
            if f.abort_round(round) {
                return Err(SimError::FaultInjected { round });
            }
            // Crash fates advance once per node per round, before the
            // step phase reads them (both engines share this ordering).
            if f.has_crashes() {
                f.advance_crashes(0, n, round);
            }
        }

        // Step phase: every node reads its inbox and fills its outbox.
        step_all(
            graph,
            &mut programs,
            &mut rngs,
            &mut halted,
            &inboxes,
            &mut outboxes,
            round,
            config.threads,
            fault.as_ref(),
        );

        // Routing phase: account bandwidth and deliver.
        for inbox in &mut inboxes {
            inbox.clear();
        }
        if let Some(f) = &fault {
            route_outboxes_faulty(
                graph,
                f,
                &mut outboxes,
                &mut inboxes,
                round,
                config.bandwidth,
                &mut report,
            )?;
            round += 1;
            continue;
        }
        let mut round_max_edge_bits = 0u64;
        for (src, out) in outboxes.iter_mut().enumerate() {
            if out.is_empty() {
                continue;
            }
            // Group by destination to compute per-directed-edge load.
            out.sort_by_key(|&(dst, _)| dst);
            let mut i = 0;
            while i < out.len() {
                let dst = out[i].0;
                if graph.neighbors(src as NodeId).binary_search(&dst).is_err() {
                    return Err(SimError::NotANeighbor {
                        from: src as NodeId,
                        to: dst,
                        round,
                    });
                }
                let mut edge_bits = 0u64;
                let mut j = i;
                while j < out.len() && out[j].0 == dst {
                    edge_bits += out[j].1.bit_cost();
                    j += 1;
                }
                if let Bandwidth::Strict(limit) = config.bandwidth {
                    if edge_bits > limit {
                        return Err(SimError::BandwidthExceeded {
                            from: src as NodeId,
                            to: dst,
                            bits: edge_bits,
                            limit,
                            round,
                        });
                    }
                }
                round_max_edge_bits = round_max_edge_bits.max(edge_bits);
                report.total_bits += edge_bits;
                report.messages += (j - i) as u64;
                i = j;
            }
            for (dst, msg) in out.drain(..) {
                inboxes[dst as usize].push((src as NodeId, msg));
            }
        }
        report.edge_load.record(round_max_edge_bits);
        round += 1;
    }
    report.rounds = round;
    if let Some(f) = &fault {
        report.starved = f.collect_starved();
        report.crashed = f.collect_crashed();
        report.faults.crashes = f.crash_event_total();
        f.crash_outcome(round)?;
    }
    Ok((programs, report))
}

/// The legacy plane's faulty routing phase. Every bundle — delayed or
/// not — travels through the holdback queues (fresh deliveries are
/// queued due *this* round), and one per-receiver sweep in CSR
/// in-neighbor order drains everything due. That reproduces the session
/// engine's faulty delivery order exactly: inboxes sorted by sender,
/// held-back (older) bundles before fresh ones per sender.
fn route_outboxes_faulty<M: Message>(
    graph: &Graph,
    fault: &FaultState<M>,
    outboxes: &mut [Vec<(NodeId, M)>],
    inboxes: &mut [Vec<(NodeId, M)>],
    round: u64,
    bandwidth: Bandwidth,
    report: &mut RunReport,
) -> Result<(), SimError> {
    let offsets = graph.offsets();
    let mut faults = FaultCounters::default();
    let mut round_max_edge_bits = 0u64;
    let mut bundle: Vec<M> = Vec::new();
    for (src, out) in outboxes.iter_mut().enumerate() {
        if out.is_empty() {
            continue;
        }
        out.sort_by_key(|&(dst, _)| dst);
        let mut msgs = out.drain(..).peekable();
        while let Some(&(dst, _)) = msgs.peek() {
            bundle.clear();
            while let Some(&(d, _)) = msgs.peek() {
                if d != dst {
                    break;
                }
                bundle.push(msgs.next().expect("peeked").1);
            }
            // A faulty network eats misaddressed bundles instead of
            // failing the run (the forgiving counterpart of
            // SimError::NotANeighbor).
            let Ok(pos) = graph.neighbors(dst).binary_search(&(src as NodeId)) else {
                faults.misrouted += bundle.len() as u64;
                continue;
            };
            let e = offsets[dst as usize] + pos;
            let mut edge_bits: u64 = bundle.iter().map(Message::bit_cost).sum();
            if apply_cap(
                &fault.plan,
                &mut bundle,
                &mut edge_bits,
                bandwidth,
                src as NodeId,
                dst,
                round,
                &mut faults,
            )? {
                fault.mark_perturbed(dst as usize);
            }
            round_max_edge_bits = round_max_edge_bits.max(edge_bits);
            report.total_bits += edge_bits;
            report.messages += bundle.len() as u64;
            if bundle.is_empty() {
                continue;
            }
            // A down receiver loses the fresh bundle after billing, dice
            // unrolled and sentinel unraised — exactly like
            // `route_receiver_faulty` (a down *sender* cannot reach here:
            // it was skipped in the step phase and sent nothing).
            if fault.has_crashes() && fault.is_down(dst as usize, round) {
                faults.dropped += 1;
                continue;
            }
            match fault.decide(src as NodeId, dst, round) {
                Decision::Drop => {
                    faults.dropped += 1;
                    fault.mark_perturbed(dst as usize);
                }
                Decision::Delay { due, copies } => {
                    faults.delayed += 1;
                    if copies > 1 {
                        faults.duplicated += 1;
                    }
                    fault.hold(
                        e,
                        dst as usize,
                        round,
                        due,
                        copies,
                        std::mem::take(&mut bundle),
                    );
                    fault.mark_perturbed(dst as usize);
                }
                Decision::Deliver { copies } => {
                    if copies > 1 {
                        faults.duplicated += 1;
                    }
                    fault.hold(
                        e,
                        dst as usize,
                        round,
                        round,
                        copies,
                        std::mem::take(&mut bundle),
                    );
                }
            }
        }
    }
    // Delivery sweep: per receiver, per in-neighbor in CSR order, drain
    // everything due this round.
    for (v, inbox) in inboxes.iter_mut().enumerate() {
        for (j, &u) in graph.neighbors(v as NodeId).iter().enumerate() {
            fault.deliver_due(offsets[v] + j, u, v, round, inbox, &mut faults);
        }
    }
    report.edge_load.record(round_max_edge_bits);
    report.faults.merge(&faults);
    Ok(())
}

/// Below this node count the step phase runs single-threaded (the same
/// threshold as the session scheduler's).
const PAR_MIN_NODES: usize = 256;

/// Execute the step phase, optionally sharded over threads. Each node only
/// touches its own program, RNG and outbox, so sharding cannot change
/// results.
#[allow(clippy::too_many_arguments)]
fn step_all<P: Program>(
    graph: &Graph,
    programs: &mut [P],
    rngs: &mut [StdRng],
    halted: &mut [bool],
    inboxes: &[Vec<(NodeId, P::Msg)>],
    outboxes: &mut [Vec<(NodeId, P::Msg)>],
    round: u64,
    threads: usize,
    fault: Option<&FaultState<P::Msg>>,
) {
    let n = programs.len();
    if threads <= 1 || n < PAR_MIN_NODES {
        for v in 0..n {
            step_one(
                graph,
                &mut programs[v],
                &mut rngs[v],
                &mut halted[v],
                &inboxes[v],
                &mut outboxes[v],
                v,
                round,
                fault,
            );
        }
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut prog_chunks = programs.chunks_mut(chunk);
        let mut rng_chunks = rngs.chunks_mut(chunk);
        let mut halt_chunks = halted.chunks_mut(chunk);
        let mut out_chunks = outboxes.chunks_mut(chunk);
        let mut base = 0usize;
        for _ in 0..threads {
            let (Some(ps), Some(rs), Some(hs), Some(os)) = (
                prog_chunks.next(),
                rng_chunks.next(),
                halt_chunks.next(),
                out_chunks.next(),
            ) else {
                break;
            };
            let start = base;
            base += ps.len();
            let inboxes = &inboxes;
            scope.spawn(move || {
                for (i, (((p, r), h), o)) in ps
                    .iter_mut()
                    .zip(rs.iter_mut())
                    .zip(hs.iter_mut())
                    .zip(os.iter_mut())
                    .enumerate()
                {
                    let v = start + i;
                    step_one(graph, p, r, h, &inboxes[v], o, v, round, fault);
                }
            });
        }
    });
}

#[allow(clippy::too_many_arguments)]
fn step_one<P: Program>(
    graph: &Graph,
    program: &mut P,
    rng: &mut StdRng,
    halted: &mut bool,
    inbox: &[(NodeId, P::Msg)],
    outbox: &mut Vec<(NodeId, P::Msg)>,
    v: usize,
    round: u64,
    fault: Option<&FaultState<P::Msg>>,
) {
    // Done programs are never re-stepped (the session engine retires a
    // node the round it reports done; a crashed neighbor can hold the
    // pass open past that round, and a done program's `on_round` may
    // overwrite its final-round state).
    if *halted || program.is_done() {
        return;
    }
    // A down node is skipped entirely: no `on_round` call, no RNG draw,
    // no sends — both engines skip identically, so RNG streams agree.
    if let Some(f) = fault {
        if f.has_crashes() && f.is_down(v, round) {
            return;
        }
    }
    let mut ctx = Ctx {
        node: v as NodeId,
        round,
        neighbors: graph.neighbors(v as NodeId),
        inbox,
        rng,
        halt: halted,
        sink: Sink::Outbox(outbox),
    };
    program.on_round(&mut ctx);
}
