//! Persistent engine sessions with active-frontier scheduling.
//!
//! A [`Session`] owns everything an engine run needs that is a function
//! of the *graph*, not of one protocol pass: the mailbox plane, the
//! per-node RNG vector, the inboxes, the per-worker neighbor-lookup
//! scratch, the worker pool, and the scheduler state. Multi-pass
//! pipelines (the HNT22 driver runs dozens of short passes per solve)
//! reuse one session for every pass instead of paying a fresh `O(n + m)`
//! plane build, scratch allocation, and thread spawn per pass;
//! [`crate::run`] remains as a one-shot wrapper that builds a throwaway
//! session. Shard geometry and the 2-barrier owner/ghost worker
//! protocol are described below; results are byte-identical across
//! shard counts, thread counts, and the reference engine
//! ([`crate::reference`]).
//!
//! # The active frontier
//!
//! The frontier is the compacted, ascending list of the nodes a shard
//! steps this round; the step phase iterates it instead of `0..n`, so a
//! round costs `O(stepped)`, not `O(n)`. A node that is not done is on
//! the frontier or **parked**, and each shard keeps both:
//!
//! * A node leaves for good — it retires — when its program reports
//!   [`crate::Program::is_done`] after a step. The run ends when every
//!   node is done.
//! * A node whose [`crate::Program::wake_round`] hint, read before round
//!   0 and after each step, lies beyond the next round is parked: its
//!   due round is recorded per node and it is linked into that round's
//!   list. It re-enters the frontier, merged in ascending id order, when
//!   its round comes or when it appears on routing's `filled` worklist
//!   (it got mail), whichever is first; mail unlinks it in O(1), so
//!   waking costs `O(woken)` per round.
//!
//! Neither changes a transcript. No engine calls a done program's
//! `on_round` (see [`crate::Program::is_done`]), and a parked program's
//! `on_round` before its hinted round with an empty inbox is
//! contractually a no-op (see [`crate::Program::wake_round`]), so the
//! engine merely stops paying for it. A down node (under a crash plan) stays on the frontier and is
//! skipped while down, as it was before parking; a parked node is not
//! looked at until it wakes.
//!
//! # Mail-word delivery
//!
//! Delivery follows the mail: the plane's
//! [`MailBoard`](crate::plane::MailBoard) holds one bit per directed
//! edge, set by each targeted send on its edge and by each broadcast on
//! every out-edge of the sender. Routing visits only the set bits and
//! clears them as it delivers, so a round costs the messages it carries,
//! not a sweep of every in-edge of each addressed receiver. One router
//! does this for fault-free and faulty passes alike, built twice from
//! one source so the fault-free instance carries no fault branch. Under
//! a fault plan it also delivers held-back bundles (a receiver holding
//! some has its whole run of bits visited) and hands each fresh bundle
//! to the fault layer for its fate.
//!
//! A fault-free in-edge whose mail is exactly one broadcast is billed
//! and checked like any other, but delivered by reference: routing
//! appends the in-neighbor's position to the receiver's **heard list**
//! (a run of a CSR-shaped `u32` array), and during the next round's step
//! the receiver's [`Inbox`] reads the sender's broadcast slot in place,
//! which the plane's parity double-buffering keeps valid for that round
//! (the SAFETY argument is in [`crate::plane`]). Everything else is
//! cloned into the receiver's owned inbox, and the view merges the two
//! in sender order. Inboxes and heard lists filled in round `r` are
//! remembered in a per-worker `filled` worklist and cleared at the start
//! of round `r + 1`'s routing, which empties every inbox without
//! touching quiet nodes.
//!
//! Epochs are a session-global round counter that never resets, so slot
//! stamps from earlier passes (or an aborted round) can never alias a
//! later round's stamp. Mail words are cleared at every pass start, so
//! the bits an aborted round left unread never deliver either.
//!
//! # Ownership shards and the owner/ghost round protocol
//!
//! The node range is split into contiguous **ownership shards** (chunk
//! geometry from [`SimConfig::shards`], or derived from `threads` when
//! unset). A shard owns its nodes' programs, RNGs, inboxes, frontier
//! list, and its receivers' targeted-slot range and mail words of the
//! mailbox plane — a per-shard CSR sub-plane, which only its worker
//! reads and drains in routing. In the step phase a sender writes its
//! out-edges' targeted slots and mail bits directly, whatever shard owns
//! the receiver, and its broadcast slot sender-side. Other shards'
//! broadcast slots are the read-only **ghost state**: routing reads
//! them (frozen at barrier A) without mutation, and so do the next
//! round's inboxes.
//!
//! Every pass runs **one round loop**, `PassTask::run_worker`, once per
//! worker. With `workers > 1` the session spawns its workers **once, at
//! construction**, and parks them on a pass barrier between passes.
//! Each pass posts a type-erased job — a [`WorkerTask`] trait object
//! over that pass's program type — and the workers run the whole pass
//! coordinator-free with **two barriers per round**:
//!
//! * **Barrier A (step end)** — after stepping its shards, a worker
//!   publishes its lane flags and waits. Crossing A freezes every
//!   targeted slot, mail word and broadcast slot the step wrote.
//! * **Barrier B (round end)** — each worker routes its receivers,
//!   publishes its retired/load counters, and waits.
//!   Crossing B makes every counter of the round visible to every
//!   worker, which then all compute the same continue/stop decision
//!   locally — no coordinator aggregation step in between.
//!
//! A one-worker pass runs the same loop body on the calling thread over
//! every shard, and skips both barriers, which it would only wait on
//! itself.
//!
//! Pass-level outcomes (round count, error selection, fault aborts) are
//! derived from epoch-stamped shared flags and per-worker cells; the
//! coordinator only assembles the final [`RunReport`] after the
//! pass-end barrier. See [`Session::barrier_audit`] for the test-only
//! waits-per-round accounting that pins the ≤2 budget.
//!
//! # The α-synchronizer, after the loop
//!
//! The round loop carries only rounds. Under an active
//! [`SchedulePlan`](crate::SchedulePlan), [`Session::run`] replays
//! the α-synchronizer's pulse clocks after it, over the rounds the pass
//! completed (`crate::sched`): they read no message or program state,
//! so the replay is geometry-free by construction.
//!
//! # Rebinding
//!
//! A session splits into a graph *binding* (the `&Graph` plus the chunk
//! geometry derived from it) and a [`SessionCore`] — everything else:
//! lane arrays, mail words, RNG/inbox vectors, scheduler scratch, the
//! parked pool, and the epoch counter. [`Session::unbind`] recovers the
//! core; [`SessionCore::bind`] retargets it at any other graph, reusing
//! the allocations (growing only when the new graph is larger) and
//! keeping the parked pool whenever the worker count still matches.
//! Because the epoch counter carries over and strictly increases, slot
//! stamps written under one binding can never alias a round run under a
//! later one (and mail words are rebuilt clear) — a rebound session is
//! byte-identical in behaviour to a fresh one.
//!
//! ## SAFETY (shard-exclusive state and the job cell)
//!
//! * Shard `s` owns the node range `[s·chunk, (s+1)·chunk)`: its
//!   programs, RNGs, inboxes, heard lists, frontier with its parked
//!   nodes, and filled list. These are
//!   handed over as plain `&mut` shards inside a
//!   per-shard `Mutex<Option<WorkerSlot>>` — locked exactly twice per
//!   pass (taken by the worker running the shard at pass start, put
//!   back at pass end), so there is no unsafe aliasing of scheduler
//!   state at all. Worker `w` runs shards `w, w + workers, …` for the
//!   whole pass; the assignment never changes mid-pass.
//! * A targeted slot and its spill are written only by the edge's
//!   sender, in the step phase, and read and drained only by the
//!   receiver's owner, in routing; barrier A orders the two.
//! * A mail word holds one receiver's run only, but bits from many
//!   senders, so two workers can set bits of it in one step phase. The
//!   words are atomics. `Session::run` makes the board shared when the
//!   pass runs on more than one worker (the worker count decides, not
//!   the shard count), and a shared board sets every bit with a
//!   `fetch_or` (`MailBoard`). Only the receiver's owner reads and
//!   clears the word, in routing, after barrier A.
//! * Per-worker `retired`/`round_max` counters are written between
//!   barrier A and barrier B of a round and read between barrier B and
//!   the next round's barrier A — globally ordered by the barriers, so
//!   every worker reads every round-`r` value exactly as published.
//!   The epoch-stamped lane/error flags are monotone `fetch_max`
//!   stamps, so late readers can never mistake a stale round's flag
//!   for the current one.
//! * The job cell holds a raw `*const dyn WorkerTask` with its lifetime
//!   erased. The coordinator writes it while all workers are parked at
//!   the pass-release barrier and clears it after the pass-end barrier;
//!   workers dereference it only between those two barriers, during
//!   which the coordinator's stack frame keeps the task alive. The task
//!   type is `Sync` (enforced by the trait bound), so sharing the
//!   reference across workers is sound.
//! * Mailbox-plane slots keep the exact access protocol documented in
//!   [`crate::plane`], including the in-place broadcast reads of the
//!   step phase; the frontier does not change who writes which slot,
//!   only *whether* a node is stepped at all.

use crate::engine::{Bandwidth, SimConfig};
use crate::error::SimError;
use crate::fault::{FaultCounters, FaultState};
use crate::message::Message;
use crate::metrics::{LoadProfile, RunReport};
use crate::plane::{parity, run_mask, take_mail, MailboxPlane, NeighborIndex, Sink, SlotSink};
use crate::program::{Ctx, Inbox, Program};
use crate::sched;
use graphs::{Graph, NodeId};
use prand::mix::mix2;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};

/// Below this node count the engine always runs single-threaded: barrier
/// overhead would dominate.
pub(crate) const PAR_MIN_NODES: usize = 256;

/// Which plane lanes a round actually used (merged over all step
/// workers); the router skips dead lanes entirely.
#[derive(Clone, Copy, Default)]
struct Lanes {
    targeted: bool,
    bcast: bool,
}

/// One step shard's result.
#[derive(Default)]
struct StepOut {
    /// Nodes this shard retired from the frontier this round (done —
    /// monotone, they never come back within a run).
    retired: usize,
    /// First send-side error in node order.
    err: Option<SimError>,
    /// Lanes this shard's nodes wrote.
    lanes: Lanes,
    /// Sends to non-neighbors eaten by an active fault plan.
    misrouted: u64,
}

/// Aggregated routing-phase counters for one round (or one worker shard).
#[derive(Default)]
struct RouteStats {
    max: u64,
    bits: u64,
    messages: u64,
    err: Option<SimError>,
    /// Fault events injected while routing (zero without a fault plan).
    faults: FaultCounters,
}

/// One worker's slice of the session: the node range it steps and routes.
struct WorkerSlot<'a, P: Program> {
    /// First node id of the range.
    lo: usize,
    programs: &'a mut [P],
    rngs: &'a mut [StdRng],
    /// The range's owned copies (see [`Inbox`]).
    inboxes: &'a mut [Vec<(NodeId, P::Msg)>],
    /// The range's heard lists, one CSR run per receiver: receiver `v`'s
    /// run starts at `offsets[v] - offsets[lo]` and holds `heard_len[v -
    /// lo]` in-neighbor positions whose broadcast it reads in place.
    heard: &'a mut [u32],
    heard_len: &'a mut [u32],
    /// The range's scheduler state: the frontier and the parked nodes.
    frontier: &'a mut Frontier,
    /// Receivers of this range whose inboxes or heard lists were filled
    /// last round.
    filled: &'a mut Vec<u32>,
    /// The worker's persistent neighbor-position scratch.
    lookup: &'a mut NeighborIndex,
}

/// One shard's scheduler state (module docs, "The active frontier").
///
/// A node that is not done is either on the frontier (`active`) or
/// parked (`due[v - lo] > 0`); a retired node is in neither. A parked
/// node due before the round cap is also linked into its round's list,
/// so a round wakes its due nodes in O(woken) and mail unlinks a node in
/// O(1). Every array keeps its buffer across passes, so parking allocates
/// nothing once a session is warm.
#[derive(Default)]
struct Frontier {
    /// Ascending ids of the nodes stepped this round.
    active: Vec<u32>,
    /// Per node of the shard, indexed `v - lo`: the round a parked node
    /// is due, or 0 while it is on the frontier or retired.
    due: Vec<u64>,
    /// Per node, indexed `v - lo`: the ids before and after it in its due
    /// round's list ([`NONE`] at either end), while it is linked.
    prev: Vec<u32>,
    next: Vec<u32>,
    /// `first[r]`: the first node of round `r`'s list, or [`NONE`]. Only
    /// rounds below the round cap have a list: a node due later can only
    /// be woken by mail, as the pass ends before its round.
    first: Vec<u32>,
    /// Nodes parked right now.
    parked: usize,
    /// Scratch: the nodes woken this round.
    woken: Vec<u32>,
}

/// The end of a [`Frontier`] list.
const NONE: u32 = u32::MAX;

impl Frontier {
    /// Start a pass over a shard of `len` nodes: nothing on the
    /// frontier, nothing parked.
    fn reset(&mut self, len: usize) {
        self.active.clear();
        self.active.reserve(len);
        self.due.clear();
        self.due.resize(len, 0);
        self.prev.resize(len, NONE);
        self.next.resize(len, NONE);
        self.first.fill(NONE);
        self.parked = 0;
        self.woken.reserve(len);
    }

    /// Park node `v` (of the shard starting at `lo`) until round `due`.
    fn park(&mut self, v: u32, lo: usize, due: u64, max_rounds: u64) {
        let i = v as usize - lo;
        self.due[i] = due;
        self.parked += 1;
        if due < max_rounds {
            let r = due as usize;
            if self.first.len() <= r {
                self.first.resize(r + 1, NONE);
            }
            let head = std::mem::replace(&mut self.first[r], v);
            if head != NONE {
                self.prev[head as usize - lo] = v;
            }
            (self.prev[i], self.next[i]) = (NONE, head);
        }
    }

    /// Put back on the frontier, in ascending id order, every parked node
    /// due in `round` and every parked node on `filled` (the receivers
    /// last round's routing delivered mail to). Costs O(woken + filled),
    /// plus sorting the woken.
    fn wake(&mut self, lo: usize, round: u64, filled: &[u32], max_rounds: u64) {
        if self.parked == 0 {
            return;
        }
        let Frontier {
            active,
            due,
            prev,
            next,
            first,
            parked,
            woken,
        } = self;
        woken.clear();
        if let Some(head) = first.get_mut(round as usize) {
            let mut v = std::mem::replace(head, NONE);
            while v != NONE {
                due[v as usize - lo] = 0;
                woken.push(v);
                v = next[v as usize - lo];
            }
        }
        for &v in filled {
            let i = v as usize - lo;
            let r = std::mem::take(&mut due[i]);
            if r == 0 {
                continue;
            }
            if r < max_rounds {
                let (p, n) = (prev[i], next[i]);
                match p {
                    NONE => first[r as usize] = n,
                    p => next[p as usize - lo] = n,
                }
                if n != NONE {
                    prev[n as usize - lo] = p;
                }
            }
            woken.push(v);
        }
        if woken.is_empty() {
            return;
        }
        *parked -= woken.len();
        woken.sort_unstable();
        // Merge from the back, into the room past the frontier's end.
        let (mut i, mut j) = (active.len(), woken.len());
        active.resize(i + j, 0);
        for k in (0..active.len()).rev() {
            if j == 0 {
                break;
            }
            if i > 0 && active[i - 1] > woken[j - 1] {
                i -= 1;
                active[k] = active[i];
            } else {
                j -= 1;
                active[k] = woken[j];
            }
        }
    }
}

/// Step a shard's active frontier: wake the parked nodes that are due
/// this round or got mail last round, run `on_round` with a slot sink
/// over each active node's out-edges, and compact the frontier in place
/// (done nodes drop out and nodes whose [`Program::wake_round`] lies
/// beyond the next round are parked, order preserved). Sends write the
/// receivers' slots and mail bits directly, whatever shard owns them.
///
/// Kept out of line like `route_shard`: inlined into the round loop,
/// whose state stays live across it, this loop measured slower on the
/// sparse-solve benchmark workload.
#[inline(never)]
fn step_shard<P: Program>(
    task: &PassTask<'_, P>,
    slot: &mut WorkerSlot<'_, P>,
    round: u64,
    epoch: u64,
) -> StepOut {
    let (graph, plane, fault) = (task.graph, task.plane, task.fault);
    let offsets = graph.offsets();
    // This round writes one broadcast array; its inboxes read the other,
    // which last round wrote (the `plane` module docs).
    let (bcast, bcast_spill) = (
        &plane.bcast[parity(epoch)],
        &plane.bcast_spill[parity(epoch)],
    );
    let heard_in = &plane.bcast[1 - parity(epoch)];
    let forgiving = fault.is_some();
    let skip_down = fault.filter(|f| f.has_crashes());
    let mut out = StepOut::default();
    let lo = slot.lo;
    let heard_base = offsets[lo];
    let frontier = &mut *slot.frontier;
    frontier.wake(lo, round, slot.filled, task.max_rounds);
    let len = frontier.active.len();
    let mut keep = 0usize;
    for i in 0..len {
        let v = frontier.active[i] as usize;
        // A down node skips its `on_round` entirely (no RNG draw, no
        // sends) but stays on the frontier — it is down, not retired,
        // and resumes stepping if its fate recovers it.
        if skip_down.is_some_and(|f| f.is_down(v, round)) {
            frontier.active[keep] = v as u32;
            keep += 1;
            continue;
        }
        let neighbors = graph.neighbors(v as NodeId);
        let heard = offsets[v] - heard_base;
        let heard = &slot.heard[heard..heard + slot.heard_len[v - lo] as usize];
        // SAFETY: last round's routing filled `heard` with slots of
        // `heard_in`, which last round's step wrote; this round writes
        // only the other array, and the view lives for one `on_round`
        // call (the `plane` module docs).
        let inbox = unsafe { Inbox::new(&slot.inboxes[v - lo], heard, neighbors, heard_in) };
        let mut ctx = Ctx {
            node: v as NodeId,
            round,
            neighbors,
            inbox,
            rng: &mut slot.rngs[v - lo],
            sink: Sink::Slots(SlotSink {
                slots: &plane.slots,
                spill: &plane.spill,
                bcast: &bcast[v],
                bcast_spill: &bcast_spill[v],
                rev_out: &plane.rev[offsets[v]..offsets[v + 1]],
                mail: &plane.mail,
                epoch,
                seq: 0,
                targeted: 0,
                broadcasts: 0,
                lookup: &mut *slot.lookup,
                filled: false,
                forgiving,
                misrouted: 0,
                err: &mut out.err,
            }),
        };
        let program = &mut slot.programs[v - lo];
        program.on_round(&mut ctx);
        if let Sink::Slots(s) = &ctx.sink {
            out.lanes.targeted |= s.targeted > 0;
            out.lanes.bcast |= s.broadcasts > 0;
            out.misrouted += s.misrouted;
        }
        if program.is_done() {
            out.retired += 1;
            continue;
        }
        let due = program.wake_round();
        if due > round + 1 {
            frontier.park(v as u32, lo, due, task.max_rounds);
        } else {
            frontier.active[keep] = v as u32;
            keep += 1;
        }
    }
    frontier.active.truncate(keep);
    out
}

/// Deliver the shard's mail: clear the inboxes and heard lists filled
/// last round, then, per receiver in ascending order, visit exactly the
/// in-edges whose mail bits are set, in ascending in-neighbor order (the
/// inbox's sender order), clearing the bits as it goes. Per edge, in
/// this order:
///
/// 1. under a fault plan, deliver the held-back bundles that are due
///    (sent in earlier rounds, they come before the sender's fresh one);
/// 2. gather the targeted slot and the sender's broadcast slot, so bit
///    accounting and strict checks are those of a sweep of every in-edge
///    (lanes the round didn't use are never probed);
/// 3. check the strict cap (a truncating plan clips instead, below);
/// 4. deliver. A fault-free edge whose mail is exactly one broadcast is
///    delivered by reference: its in-neighbor position goes on the
///    receiver's heard list, and the receiver reads the sender's slot in
///    place next round (see [`Inbox`]). Everything else is moved or
///    cloned into the owned inbox: targeted messages, a second broadcast
///    (its spill), and a sender that used both lanes, re-interleaved by
///    sequence tag.
///
/// Under a plan the fresh tail of the inbox *is* the edge's bundle: it is
/// clipped in truncate mode, billed, and handed to [`FaultState::settle`]
/// for its fate. A held-back or duplicated copy must outlive the slot it
/// came from, so under a plan nothing is delivered by reference. A
/// receiver with held-back bundles has every bit of its run visited; for
/// every other receiver an edge without mail carries nothing.
///
/// Receivers with mail are *found* by a sequential scan of the shard's
/// mail words (about one u64 per receiver plus one per 64 edges), in
/// ascending order with no cross-worker merging, which is what keeps
/// error selection and inbox fills deterministic. Delivery work is
/// O(messages); only the word scan is O(n).
///
/// `FAULTY` says whether the pass has fault state, so the fault-free
/// instance carries no fault branch.
#[inline(never)]
fn route_shard<P: Program, const FAULTY: bool>(
    task: &PassTask<'_, P>,
    slot: &mut WorkerSlot<'_, P>,
    round: u64,
    epoch: u64,
    lanes: Lanes,
) -> RouteStats {
    let (graph, plane) = (task.graph, task.plane);
    let fault = if FAULTY { task.fault } else { None };
    let (inboxes, filled, lo) = (&mut *slot.inboxes, &mut *slot.filled, slot.lo);
    let (heard, heard_len) = (&mut *slot.heard, &mut *slot.heard_len);
    // A local: `task` holds mutexes, so a field read reloads per edge.
    let cap = match task.bandwidth {
        Bandwidth::Strict(limit) => limit,
        Bandwidth::Track => u64::MAX,
    };
    let truncate = fault.is_some_and(FaultState::truncates);
    let offsets = graph.offsets();
    let heard_base = offsets[lo];
    let (bcast, bcast_spill) = (
        &plane.bcast[parity(epoch)],
        &plane.bcast_spill[parity(epoch)],
    );
    let mut stats = RouteStats::default();
    // Reproduce the old clear-everything semantics lazily: only inboxes
    // and heard lists actually filled last round can be non-empty.
    for &v in filled.iter() {
        inboxes[v as usize - lo].clear();
        heard_len[v as usize - lo] = 0;
    }
    filled.clear();
    // With a fault plan, a round nobody sent in can still deliver
    // held-back bundles, so the dead-lane shortcut only applies
    // fault-free.
    if !lanes.targeted && !lanes.bcast && !FAULTY {
        return stats;
    }
    for (i, inbox) in inboxes.iter_mut().enumerate() {
        let v = lo + i;
        let (words, skip) = plane.mail.words(offsets, v);
        let base = offsets[v];
        let neighbors = graph.neighbors(v as NodeId);
        // Read before any delivery: this receiver's due bundles may sit
        // on edges without mail, so its whole run is visited.
        let held = fault.filter(|f| f.has_pending(v));
        let heard = &mut heard[base - heard_base..offsets[v + 1] - heard_base];
        let mut heard_count = 0usize;
        for (w, word) in words.iter().enumerate() {
            let mut bits = take_mail(word);
            if held.is_some() {
                bits |= run_mask(w, skip, neighbors.len());
            }
            if bits != 0 && filled.last() != Some(&(v as u32)) {
                filled.push(v as u32);
            }
            while bits != 0 {
                let j = 64 * w + bits.trailing_zeros() as usize - skip;
                bits &= bits - 1;
                let (u, e) = (neighbors[j], base + j);
                if let Some(f) = held {
                    f.deliver_due(e, u, v, round, inbox, &mut stats.faults);
                }
                // Targeted lane: the receiver-side slot of in-edge j.
                // SAFETY: slots are receiver-side keyed and routing workers
                // own disjoint receiver ranges, so slot `e` is reached by
                // exactly one worker; the phase barrier orders this access
                // after every step-phase write.
                let eslot = lanes
                    .targeted
                    .then(|| unsafe { &mut *plane.slots[e].get() })
                    .filter(|s| s.stamp == epoch);
                // Broadcast lane: cache-resident gather by sender id.
                // SAFETY: broadcast slots are only *read* during routing (and
                // written solely by their owner in the step phase).
                let bslot = lanes
                    .bcast
                    .then(|| unsafe { &*bcast[u as usize].get() })
                    .filter(|b| b.stamp == epoch);
                if eslot.is_none() && bslot.is_none() {
                    continue;
                }
                let mut edge_bits = eslot.as_ref().map_or(0u64, |s| u64::from(s.bits))
                    + bslot.map_or(0u64, |b| u64::from(b.bits));
                let over_cap = edge_bits > cap;
                if over_cap && !truncate {
                    stats.err = Some(SimError::BandwidthExceeded {
                        from: u,
                        to: v as NodeId,
                        bits: edge_bits,
                        limit: cap,
                        round,
                    });
                    return stats;
                }
                let (start, heard_start) = (inbox.len(), heard_count);
                match (eslot, bslot) {
                    (Some(s), None) => {
                        inbox.push((u, s.first.take().expect("live slot has a first message")));
                        if s.spilled > 0 {
                            s.spilled = 0;
                            // SAFETY: same receiver-range exclusivity.
                            let sp = unsafe { &mut *plane.spill[e].get() };
                            inbox.extend(sp.drain(..).map(|(m, _)| (u, m)));
                        }
                    }
                    (None, Some(b)) if !FAULTY && b.spilled == 0 => {
                        // The common case: one broadcast, read in place.
                        heard[heard_count] = j as u32;
                        heard_count += 1;
                    }
                    (None, Some(b)) => {
                        let msg = b.first.clone().expect("live slot has a first message");
                        inbox.push((u, msg));
                        // SAFETY: read-only, like the hot broadcast slot.
                        let sp = unsafe { &*bcast_spill[u as usize].get() };
                        inbox.extend(sp.iter().map(|(m, _)| (u, m.clone())));
                    }
                    (Some(s), Some(b)) => {
                        // Rare: one neighbor used both lanes this round.
                        // Interleave back into exact send order by sequence.
                        let first_t = s.first.take().expect("live slot has a first message");
                        s.spilled = 0;
                        // SAFETY: as in the single-lane branches above.
                        let sp_t = unsafe { &mut *plane.spill[e].get() };
                        let sp_b = unsafe { &*bcast_spill[u as usize].get() };
                        let mut te = std::iter::once((s.seq, first_t))
                            .chain(sp_t.drain(..).map(|(m, q)| (q, m)))
                            .peekable();
                        let first_b = b.first.clone().expect("live slot has a first message");
                        let mut be = std::iter::once((b.seq, first_b))
                            .chain(sp_b.iter().map(|(m, q)| (*q, m.clone())))
                            .peekable();
                        loop {
                            let take_targeted = match (te.peek(), be.peek()) {
                                (Some((tq, _)), Some((bq, _))) => tq < bq,
                                (Some(_), None) => true,
                                (None, Some(_)) => false,
                                (None, None) => break,
                            };
                            let (_, m) = if take_targeted {
                                te.next().expect("peeked")
                            } else {
                                be.next().expect("peeked")
                            };
                            inbox.push((u, m));
                        }
                    }
                    (None, None) => unreachable!("filtered above"),
                }
                if let Some(f) = fault.filter(|_| over_cap) {
                    edge_bits = f.clip(inbox, start, cap, v, &mut stats.faults);
                }
                // Transmission is billed at the send round, after
                // truncation, whatever fate the bundle then meets: the
                // bits occupied the channel even if the payload is lost
                // or late.
                stats.max = stats.max.max(edge_bits);
                stats.bits += edge_bits;
                stats.messages += (inbox.len() - start + heard_count - heard_start) as u64;
                if let Some(f) = fault {
                    f.settle(inbox, start, e, v, round, &mut stats.faults);
                }
            }
        }
        if heard_count > 0 {
            heard_len[i] = heard_count as u32;
        }
    }
    stats
}

/// A type-erased pass the pool workers execute. `Sync` is load-bearing:
/// workers share one `&dyn WorkerTask` across threads.
trait WorkerTask: Sync {
    /// Run worker `w`'s side of the whole pass — every round of the
    /// 2-barrier owner/ghost protocol — returning when the pass exits
    /// (all workers compute the same exit locally).
    fn run_worker(&self, w: usize);
}

/// Shareable cell for the posted job pointer.
struct JobCell(UnsafeCell<Option<*const (dyn WorkerTask + 'static)>>);

/// SAFETY: written only by the coordinator while every worker is parked
/// at the pass-release barrier, read by workers only between that
/// barrier and the pass-end barrier (module docs). The pointee itself is
/// `Sync` (the [`WorkerTask`] supertrait), so sharing the pointer is
/// sound.
unsafe impl Sync for JobCell {}

/// SAFETY: as above — the cell only travels inside the `Arc<PoolShared>`
/// handed to the pool threads at spawn, before any job exists.
unsafe impl Send for JobCell {}

/// Coordinator ⇄ worker state of the parked pool, fixed for the pool's
/// lifetime.
struct PoolShared {
    /// Pass barrier over `workers + 1` parties (workers + coordinator):
    /// crossed twice per pass (release, end) and once at pool exit.
    pass_barrier: Barrier,
    /// Raised on drop to terminate the worker threads.
    pool_exit: AtomicBool,
    /// The current pass's type-erased job.
    job: JobCell,
}

/// The round loop's shared per-round state, fixed for the lifetime of
/// its owner (the pool, or the session core for one-worker passes).
///
/// The lane and error flags are **epoch-stamped** monotone counters
/// rather than per-round booleans: "the targeted lane was used in the
/// round of epoch `e`" is encoded as `targeted == e + 1` (stamps only
/// grow via `fetch_max`, `0` = never). Because the session epoch
/// counter never reuses a value, a stale stamp can never be mistaken
/// for the current round's, so the flags never need resetting between
/// rounds, passes, or rebinds — which is what lets the round protocol
/// run with two barriers and no coordinator turn-around.
struct RoundSync {
    /// Round barrier over the workers — the step-end barrier (A) and the
    /// round-end barrier (B), the only per-round waits. `None` for one
    /// worker, which would only wait on itself.
    barrier: Option<Barrier>,
    /// Epochs the current pass consumed (worker 0 publishes per round;
    /// the coordinator folds it into the session counter at pass end).
    epochs_used: AtomicU64,
    /// Epoch-stamped lane flags (see struct docs).
    targeted: AtomicU64,
    bcast: AtomicU64,
    /// Epoch-stamped error flags: a step (route) error occurred in the
    /// round of epoch `e` iff the stamp equals `e + 1`.
    step_err: AtomicU64,
    route_err: AtomicU64,
    /// Per-worker cumulative retired counts for the current pass,
    /// written in the route window of each round (between barriers A
    /// and B) and read by every worker after barrier B.
    retired: Vec<AtomicU64>,
    /// Per-worker max edge load of the current round (same windows;
    /// read by worker 0 only, for the load profile).
    round_max: Vec<AtomicU64>,
}

impl RoundSync {
    fn new(workers: usize) -> Self {
        RoundSync {
            barrier: (workers > 1).then(|| Barrier::new(workers)),
            epochs_used: AtomicU64::new(0),
            targeted: AtomicU64::new(0),
            bcast: AtomicU64::new(0),
            step_err: AtomicU64::new(0),
            route_err: AtomicU64::new(0),
            retired: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            round_max: (0..workers).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Wait at the round barrier, counting the wait in `waits`. A
    /// one-worker loop has no barrier and skips it.
    fn wait(&self, waits: &mut u64) {
        if let Some(barrier) = &self.barrier {
            *waits += 1;
            barrier.wait();
        }
    }
}

/// The persistent worker pool: threads parked between passes.
struct Pool {
    shared: Arc<PoolShared>,
    /// The pooled passes' round-loop state, borrowed by each posted task.
    round: RoundSync,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    fn spawn(workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            pass_barrier: Barrier::new(workers + 1),
            pool_exit: AtomicBool::new(false),
            job: JobCell(UnsafeCell::new(None)),
        });
        let handles = (0..workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("congest-session-{w}"))
                    .spawn(move || worker_main(w, &shared))
                    .expect("spawn session worker")
            })
            .collect();
        Pool {
            shared,
            round: RoundSync::new(workers),
            handles,
        }
    }

    /// Post `task` to the parked workers, then park until they finish:
    /// the workers run the whole pass among themselves.
    fn run(&self, task: &(dyn WorkerTask + '_)) {
        let raw: *const (dyn WorkerTask + '_) = task;
        // SAFETY: lifetime erasure only — the pointer is dereferenced solely
        // between the pass-release and pass-end barriers, both inside this
        // call, while the caller keeps `task` alive (module docs).
        let raw: *const (dyn WorkerTask + 'static) = unsafe { std::mem::transmute(raw) };
        let shared = &*self.shared;
        // SAFETY: all workers are parked at the pass-release barrier; no one
        // reads the cell until the wait below.
        unsafe {
            *shared.job.0.get() = Some(raw);
        }
        // Pass release, then pass end: the workers run the whole pass
        // between the two waits and have returned their slots by the second.
        shared.pass_barrier.wait();
        shared.pass_barrier.wait();
        // SAFETY: every worker is parked again; the task borrow is dead.
        unsafe {
            *shared.job.0.get() = None;
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.pool_exit.store(true, Ordering::Release);
        self.shared.pass_barrier.wait();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A pool worker's outer loop: park until a pass (or pool exit) is
/// posted, run it, sync the pass-end barrier, repeat.
fn worker_main(w: usize, shared: &PoolShared) {
    loop {
        shared.pass_barrier.wait(); // pass posted (or pool exit)
        if shared.pool_exit.load(Ordering::Acquire) {
            break;
        }
        // SAFETY: the coordinator posted the job before releasing the
        // barrier and keeps the task alive until the pass-end barrier
        // below; between the two the pointee is valid and Sync.
        let task = unsafe { &*(*shared.job.0.get()).expect("job posted before release") };
        task.run_worker(w);
        shared.pass_barrier.wait(); // pass-end: coordinator reclaims the task
    }
}

/// How a pass exited. Every worker computes the same exit from shared
/// per-round state; the coordinator reassembles the result from it.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
enum ExitKind {
    /// Every node done — the pass completed.
    #[default]
    Done,
    /// Round cap hit (`completed = false`).
    Cap,
    /// Modeled crash before the round's step phase.
    Fault(u64),
    /// A step- or routing-phase error (selection: minimum erroring
    /// shard).
    Error,
}

/// What worker 0 publishes about the pass at exit.
#[derive(Default)]
struct PassOutcome {
    kind: ExitKind,
    /// Rounds completed before the exit (the exit round for errors).
    completed: u64,
    /// Round-barrier waits worker 0 performed — 2 per clean round.
    waits: u64,
    /// Per-round max edge loads (recorded by worker 0 only).
    profile: LoadProfile,
}

/// One worker's pass-lifetime accumulators, published at pass end.
/// Sums and fault counters are commutative, so per-worker grouping
/// merges to the same totals at every worker count.
#[derive(Default)]
struct PassAccum {
    bits: u64,
    messages: u64,
    faults: FaultCounters,
}

/// One pass's job: the borrowed engine state plus per-shard slots.
struct PassTask<'a, P: Program> {
    graph: &'a Graph,
    plane: &'a MailboxPlane<P::Msg>,
    /// The round loop's shared state (the pool's, or the session's
    /// barrier-free one for a one-worker pass).
    sync: &'a RoundSync,
    bandwidth: Bandwidth,
    /// The run's fault-injection state, if a plan is active. Shared by
    /// the workers under the receiver-range exclusivity that routing
    /// keeps over the plane's slot arrays.
    fault: Option<&'a FaultState<P::Msg>>,
    /// Worker count of this binding; above 1, mail bits are set
    /// atomically.
    workers: usize,
    max_rounds: u64,
    /// First epoch of the pass: round `r` runs at `epoch0 + r`.
    epoch0: u64,
    /// Nodes already done at pass start.
    init_halted: usize,
    /// Taken (strided) by the workers at pass start, returned at end.
    slots: Vec<Mutex<Option<WorkerSlot<'a, P>>>>,
    /// Per-worker: first error found, with its shard id (ascending
    /// strided iteration makes it the worker's minimum).
    err_out: Vec<Mutex<Option<(u32, SimError)>>>,
    /// Per-worker pass accumulators.
    acc_out: Vec<Mutex<PassAccum>>,
    /// Written once, by worker 0, at pass exit.
    outcome: Mutex<PassOutcome>,
}

impl<P: Program> WorkerTask for PassTask<'_, P> {
    fn run_worker(&self, w: usize) {
        let sync = self.sync;
        // Worker w owns shards w, w + workers, … for the whole pass.
        let mut my: Vec<(usize, WorkerSlot<'_, P>)> = (w..self.slots.len())
            .step_by(self.workers)
            .map(|s| {
                let slot = self.slots[s]
                    .lock()
                    .expect("worker slot poisoned")
                    .take()
                    .expect("worker slot present");
                (s, slot)
            })
            .collect();
        let mut acc = PassAccum::default();
        let mut err: Option<(u32, SimError)> = None;
        let mut profile = LoadProfile::default();
        let mut waits = 0u64;
        let mut my_retired = 0u64;
        let mut halted = self.init_halted;
        let mut round = 0u64;
        let kind = loop {
            // Exit checks from state every worker computes identically.
            if halted == self.graph.n() {
                break ExitKind::Done;
            }
            if round >= self.max_rounds {
                break ExitKind::Cap;
            }
            if let Some(f) = self.fault {
                // The modeled crash fires before the step phase; the
                // aborted round consumes no epoch.
                if f.abort_round(round) {
                    break ExitKind::Fault(round);
                }
                // Each worker advances crash fates over its own shards
                // before stepping them; foreign ranges are only *read*
                // (sender-down checks) in the routing phase, on the far
                // side of barrier A.
                if f.has_crashes() {
                    for (_, slot) in &my {
                        f.advance_crashes(slot.lo, slot.lo + slot.programs.len(), round);
                    }
                }
            }
            let epoch = self.epoch0 + round;
            if w == 0 {
                sync.epochs_used.store(round + 1, Ordering::Release);
            }
            let mut lanes = Lanes::default();
            for (s, slot) in &mut my {
                let out = step_shard(self, slot, round, epoch);
                my_retired += out.retired as u64;
                acc.faults.misrouted += out.misrouted;
                lanes.targeted |= out.lanes.targeted;
                lanes.bcast |= out.lanes.bcast;
                if let Some(e) = out.err {
                    if err.is_none() {
                        err = Some((*s as u32, e));
                    }
                }
            }
            if lanes.targeted {
                sync.targeted.fetch_max(epoch + 1, Ordering::AcqRel);
            }
            if lanes.bcast {
                sync.bcast.fetch_max(epoch + 1, Ordering::AcqRel);
            }
            if err.is_some() {
                sync.step_err.fetch_max(epoch + 1, Ordering::AcqRel);
            }
            sync.wait(&mut waits); // barrier A: step end
            if sync.step_err.load(Ordering::Acquire) == epoch + 1 {
                // Abort before routing, like the reference engine; the
                // round's slot writes stay fenced off by their stamps,
                // and its mail bits are cleared at the next pass start.
                break ExitKind::Error;
            }
            let lanes = Lanes {
                targeted: sync.targeted.load(Ordering::Acquire) == epoch + 1,
                bcast: sync.bcast.load(Ordering::Acquire) == epoch + 1,
            };
            let mut round_max = 0u64;
            let mut route_errored = false;
            for (s, slot) in &mut my {
                let stats = if self.fault.is_some() {
                    route_shard::<P, true>(self, slot, round, epoch, lanes)
                } else {
                    route_shard::<P, false>(self, slot, round, epoch, lanes)
                };
                round_max = round_max.max(stats.max);
                acc.bits += stats.bits;
                acc.messages += stats.messages;
                acc.faults.merge(&stats.faults);
                if let Some(e) = stats.err {
                    if err.is_none() {
                        err = Some((*s as u32, e));
                    }
                    route_errored = true;
                }
            }
            if route_errored {
                sync.route_err.fetch_max(epoch + 1, Ordering::AcqRel);
            }
            sync.retired[w].store(my_retired, Ordering::Release);
            sync.round_max[w].store(round_max, Ordering::Release);
            sync.wait(&mut waits); // barrier B: round end
            if sync.route_err.load(Ordering::Acquire) == epoch + 1 {
                break ExitKind::Error;
            }
            // Read window (B, next A): every worker derives the same
            // halted count; worker 0 also folds the round's edge load.
            halted = self.init_halted
                + sync
                    .retired
                    .iter()
                    .map(|a| a.load(Ordering::Acquire) as usize)
                    .sum::<usize>();
            if w == 0 {
                let gmax = sync
                    .round_max
                    .iter()
                    .map(|a| a.load(Ordering::Acquire))
                    .max()
                    .unwrap_or(0);
                profile.record(gmax);
            }
            round += 1;
        };
        *self.err_out[w].lock().expect("error slot poisoned") = err;
        *self.acc_out[w].lock().expect("accum slot poisoned") = acc;
        if w == 0 {
            *self.outcome.lock().expect("outcome poisoned") = PassOutcome {
                kind,
                completed: round,
                waits,
                profile,
            };
        }
        for (s, slot) in my {
            *self.slots[s].lock().expect("worker slot poisoned") = Some(slot);
        }
    }
}

impl<P: Program> PassTask<'_, P> {
    /// Reassemble the pass once every worker has left the round loop:
    /// fold the consumed epochs into `epoch_counter`, record the barrier
    /// audit, and return the result together with the rounds the pass
    /// completed (the exit round for errors). Determinism: per-node work
    /// is independent of sharding, counters merge with commutative ops,
    /// and first-error selection takes the minimum erroring shard id —
    /// ascending node order, like the reference engine.
    fn finish(
        self,
        epoch_counter: &mut u64,
        audit: &mut BarrierAudit,
    ) -> (Result<RunReport, SimError>, u64) {
        *epoch_counter += self.sync.epochs_used.load(Ordering::Acquire);
        let outcome = self.outcome.into_inner().expect("outcome poisoned");
        let completed = outcome.completed;
        // A step/route error exits from inside its round: count it.
        *audit = BarrierAudit {
            rounds: completed + u64::from(outcome.kind == ExitKind::Error),
            round_waits: outcome.waits,
        };
        let result = match outcome.kind {
            ExitKind::Done | ExitKind::Cap => {
                let mut report = RunReport {
                    completed: outcome.kind == ExitKind::Done,
                    rounds: completed,
                    edge_load: outcome.profile,
                    ..Default::default()
                };
                for cell in self.acc_out {
                    let acc = cell.into_inner().expect("accum slot poisoned");
                    report.total_bits += acc.bits;
                    report.messages += acc.messages;
                    report.faults.merge(&acc.faults);
                }
                Ok(report)
            }
            ExitKind::Fault(round) => Err(SimError::FaultInjected { round }),
            ExitKind::Error => {
                let (_, e) = self
                    .err_out
                    .into_iter()
                    .filter_map(|cell| cell.into_inner().expect("error slot poisoned"))
                    .min_by_key(|(shard, _)| *shard)
                    .expect("an erroring pass records at least one error");
                Err(e)
            }
        };
        (result, completed)
    }
}

/// The graph-independent half of a [`Session`]: every allocation the
/// engine owns that survives retargeting to a *different* graph — the
/// mailbox-plane lane arrays and mail words, the per-node RNG and inbox
/// vectors, the per-worker scheduler scratch, the parked worker pool, and
/// the session-global epoch counter.
///
/// A core cycles through bindings:
///
/// ```text
/// SessionCore::new() ── bind(graph) ──▶ Session ── unbind() ──▶ SessionCore
///        ▲                                                          │
///        └────────────────── bind(next graph) ◀────────────────────┘
/// ```
///
/// [`SessionCore::bind`] retargets the storage at a new graph in place:
/// lane arrays are resized (capacity reused, growing only when the new
/// graph is larger), the reverse-CSR permutation is rebuilt, and the
/// worker pool is kept parked whenever the new binding needs the same
/// worker count (it is respawned only when the worker count changes, and
/// retained across one-worker bindings). The **epoch counter carries
/// over**: it never resets, so slot stamps written under a previous
/// binding can never alias a round of a later one, and the mail words
/// are rebuilt clear — stale payloads from the old graph are unreachable
/// by construction.
///
/// Solver stacks use this to run a stream of solves over varying graphs
/// on one warm engine (see `d1lc::server::SolveServer`).
pub struct SessionCore<M: Message> {
    plane: MailboxPlane<M>,
    rngs: Vec<StdRng>,
    inboxes: Vec<Vec<(NodeId, M)>>,
    /// Heard lists: one run per receiver in CSR layout (length `m`), the
    /// first `heard_len[v]` entries of `v`'s run live.
    heard: Vec<u32>,
    heard_len: Vec<u32>,
    frontiers: Vec<Frontier>,
    filled: Vec<Vec<u32>>,
    lookups: Vec<NeighborIndex>,
    /// Session-global round counter; strictly increasing, never reused
    /// (so stale slot stamps can never alias a later round), including
    /// across rebinds.
    epoch: u64,
    pool: Option<Pool>,
    /// The round-loop state of one-worker passes (no barrier).
    solo: RoundSync,
}

impl<M: Message> Default for SessionCore<M> {
    fn default() -> Self {
        SessionCore::new()
    }
}

impl<M: Message> SessionCore<M> {
    /// An empty core, bound to no graph. The first [`SessionCore::bind`]
    /// allocates; later binds reuse.
    pub fn new() -> Self {
        SessionCore {
            plane: MailboxPlane::empty(),
            rngs: Vec::new(),
            inboxes: Vec::new(),
            heard: Vec::new(),
            heard_len: Vec::new(),
            frontiers: Vec::new(),
            filled: Vec::new(),
            lookups: Vec::new(),
            epoch: 0,
            pool: None,
            solo: RoundSync::new(1),
        }
    }

    /// Bind the core to `graph`, producing a ready [`Session`]. All
    /// graph-shaped storage is retargeted in place (O(n + m), reusing
    /// capacity); the worker pool and epoch counter carry over as
    /// described on [`SessionCore`].
    pub fn bind(mut self, graph: &Graph, config: SimConfig) -> Session<'_, M> {
        self.plane.rebuild(graph);
        let n = graph.n();
        // Ownership-shard count: an explicit `config.shards` is honored
        // as requested (clamped to n); `0` derives it from `threads`
        // with the pre-sharding auto heuristic, so default configs keep
        // the seed geometry exactly.
        let auto_parallel = config.threads > 1 && n >= PAR_MIN_NODES;
        let shard_request = if config.shards > 0 {
            config.shards
        } else if auto_parallel {
            config.threads
        } else {
            1
        };
        let chunk = n.div_ceil(shard_request).max(1);
        let shards = n.div_ceil(chunk).max(1);
        // Worker threads: never more than the shards they execute
        // (strided); `threads == 1` always runs the round loop on the
        // calling thread, whatever the shard count.
        let workers = if config.threads <= 1 {
            1
        } else {
            config.threads.min(shards)
        };
        self.inboxes.resize_with(n, Vec::new);
        self.heard.resize(graph.adjacency().len(), 0);
        self.heard_len.resize(n, 0);
        self.rngs.truncate(n); // grown lazily by the per-pass reseed
        self.frontiers.resize_with(shards, Frontier::default);
        self.filled.resize_with(shards, Vec::new);
        self.lookups.resize_with(shards, || NeighborIndex::new(n));
        for lookup in &mut self.lookups {
            lookup.grow(n);
        }
        // Keep a parked pool whenever its worker count still fits (in
        // particular across one-worker bindings, whose passes simply
        // ignore it); respawn only on a genuine mismatch.
        let pool_workers = self.pool.as_ref().map_or(0, |p| p.handles.len());
        if workers > 1 && pool_workers != workers {
            self.pool = Some(Pool::spawn(workers));
        }
        Session {
            graph,
            config,
            chunk,
            shards,
            workers,
            audit: BarrierAudit::default(),
            core: self,
        }
    }
}

/// Synchronization diagnostics of a session's most recent pass — the
/// regression hook behind the barrier-budget guarantee.
///
/// The owner/ghost worker protocol spends exactly **2 round-barrier
/// waits per full round** (the step-end barrier and the round-end
/// barrier). A one-worker pass runs the same round loop on the calling
/// thread and skips both barriers, so it spends 0.
/// Waits are counted by worker 0; an error round can end after a single
/// wait (a step error aborts before routing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BarrierAudit {
    /// Rounds the pass executed (error rounds included).
    pub rounds: u64,
    /// Round-barrier waits performed by worker 0 during the pass.
    pub round_waits: u64,
}

/// A persistent engine session: plane, RNGs, inboxes, scratch, worker
/// pool, and scheduler state, reused across every pass of a solve.
///
/// Every pass runs one round loop: on the calling thread when the
/// binding has one worker, on the parked pool otherwise. Under an active
/// [`SchedulePlan`](crate::SchedulePlan) the α-synchronizer's pulse
/// clocks are replayed after that loop, over the rounds it completed.
///
/// Build one with [`Session::new`], then call [`Session::run`] once per
/// pass; results are byte-identical to running each pass through
/// [`crate::run`] — including across thread counts — while amortizing
/// all per-pass setup. To reuse the allocations across *solves over
/// different graphs*, recover the graph-independent storage with
/// [`Session::unbind`] (or retarget directly with [`Session::rebind`]).
///
/// # Example
///
/// ```
/// use congest::{Ctx, Program, Session, SimConfig};
///
/// /// Announces once, then reports done.
/// struct Ping { heard: usize, done: bool }
/// #[derive(Clone)]
/// struct Hi;
/// impl congest::Message for Hi {
///     fn bit_cost(&self) -> u64 { 1 }
/// }
/// impl Program for Ping {
///     type Msg = Hi;
///     fn on_round(&mut self, ctx: &mut Ctx<'_, Hi>) {
///         if ctx.round() == 0 {
///             ctx.broadcast(Hi);
///         } else {
///             self.heard = ctx.inbox().len();
///             self.done = true;
///         }
///     }
///     fn is_done(&self) -> bool { self.done }
/// }
///
/// let g = graphs::gen::cycle(8);
/// let mut session = Session::new(&g, SimConfig::default());
/// for pass_seed in [1u64, 2, 3] {
///     let mut programs: Vec<Ping> =
///         (0..8).map(|_| Ping { heard: 0, done: false }).collect();
///     let report = session.run(&mut programs, pass_seed).unwrap();
///     assert_eq!(report.rounds, 2);
///     assert!(programs.iter().all(|p| p.heard == 2));
/// }
/// ```
pub struct Session<'g, M: Message> {
    graph: &'g Graph,
    config: SimConfig,
    chunk: usize,
    /// Ownership-shard count of *this binding*.
    shards: usize,
    /// Worker threads of *this binding* (≤ `shards`; 1 = the calling
    /// thread runs the round loop — the parked pool, if any, may differ
    /// when it was retained across a one-worker binding).
    workers: usize,
    /// Synchronization diagnostics of the most recent pass.
    audit: BarrierAudit,
    core: SessionCore<M>,
}

impl<'g, M: Message> Session<'g, M> {
    /// Build a session for `graph`. `config.seed` is not used — each
    /// [`Session::run`] takes its own pass seed; bandwidth policy, round
    /// cap, and thread count come from `config`.
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        SessionCore::new().bind(graph, config)
    }

    /// The graph this session runs on.
    pub fn graph(&self) -> &'g Graph {
        self.graph
    }

    /// The engine configuration the session was built with.
    pub fn config(&self) -> SimConfig {
        self.config
    }

    /// Synchronization diagnostics of the most recent pass (all zeros
    /// before the first run). See [`BarrierAudit`]: the owner/ghost
    /// protocol pins `round_waits` to `2 × rounds` on a clean pooled
    /// pass and `0` on a one-worker pass.
    pub fn barrier_audit(&self) -> BarrierAudit {
        self.audit
    }

    /// Ownership-shard count of this binding (see [`SimConfig::shards`]).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Worker threads executing this binding's shards (1 = the calling
    /// thread).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Release the graph binding, recovering the reusable
    /// [`SessionCore`] (allocations, parked worker pool, epoch counter).
    pub fn unbind(self) -> SessionCore<M> {
        self.core
    }

    /// Retarget this session at a new graph (and config) in place:
    /// shorthand for [`Session::unbind`] + [`SessionCore::bind`]. The
    /// returned session is byte-identical in behaviour to a fresh
    /// [`Session::new`] for `graph` — reuse only changes who owns the
    /// allocations.
    pub fn rebind<'h>(self, graph: &'h Graph, config: SimConfig) -> Session<'h, M> {
        self.core.bind(graph, config)
    }

    /// Run one pass: node `v`'s RNG is reseeded from `(seed, v)` exactly
    /// as [`crate::run`] does, every node whose program is not already
    /// done starts on the frontier or parked (its
    /// [`Program::wake_round`]), and the run ends when every node is done
    /// (or the round cap is hit). A program that starts done is never
    /// stepped; it still receives (and is billed for) messages.
    ///
    /// `programs` are advanced in place — on error they still hold each
    /// node's last consistent state, so callers can report partial
    /// results.
    ///
    /// # Errors
    ///
    /// Six errors, in this precedence, each the same for every shard and
    /// thread count:
    ///
    /// 1. The round loop's errors end the pass in the round they occur,
    ///    so the earliest round wins; within a round they come in phase
    ///    order: [`SimError::FaultInjected`] (the fault plan's abort,
    ///    before the step phase), [`SimError::NotANeighbor`] (a send to a
    ///    non-neighbor, in the step phase; an active fault plan counts it
    ///    as misrouted instead) and [`SimError::BandwidthExceeded`] (a
    ///    strict-cap overflow, in routing; a truncating fault plan clips
    ///    it instead). Among a round's offenders the first in node-id
    ///    order is reported: the sender for `NotANeighbor`, the receiver
    ///    for `BandwidthExceeded`.
    /// 2. [`SimError::ScheduleStalled`]: under an active
    ///    [`SchedulePlan`](crate::SchedulePlan) with a patience, the
    ///    α-synchronizer's replay over the rounds the pass completed
    ///    found a node that waited too long — the lowest stalled node of
    ///    the earliest stalled round. It replaces a loop error only when
    ///    it falls in an earlier round.
    /// 3. [`SimError::NodeCrashed`], then [`SimError::QuorumLost`]: a
    ///    crash plan's opt-in verdicts, checked only on a pass that
    ///    ended without any of the above.
    ///
    /// After a loop error, `programs` hold their state after the
    /// erroring round's step phase (an abort fires before its round's
    /// step, so they hold the previous round's). A stall and a crash
    /// verdict are found only after the loop has ended, so `programs`
    /// then hold their state at the loop's end: the end of the pass, or
    /// a later round's loop error.
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != graph.n()`.
    pub fn run<P: Program<Msg = M>>(
        &mut self,
        programs: &mut [P],
        seed: u64,
    ) -> Result<RunReport, SimError> {
        let n = self.graph.n();
        assert_eq!(programs.len(), n, "need exactly one program per node");
        // Per-pass reset: reseed RNGs, drop leftover deliveries and the
        // mail bits an aborted round left behind, fix how the pass sets
        // mail bits, rebuild the frontier.
        // All O(n + m/64) — the plane's slots, pool, and scratch carry
        // over untouched. The RNG vector is refilled in place (capacity is
        // reused across passes and rebinds).
        self.core.rngs.clear();
        let rngs = (0..n).map(|v| StdRng::seed_from_u64(mix2(seed, v as u64)));
        self.core.rngs.extend(rngs);
        for inbox in &mut self.core.inboxes {
            inbox.clear();
        }
        self.core.heard_len.fill(0);
        self.core.plane.mail.reset(self.workers > 1);
        for filled in &mut self.core.filled {
            filled.clear();
        }
        let mut halted_count = 0usize;
        for (w, frontier) in self.core.frontiers.iter_mut().enumerate() {
            let lo = w * self.chunk;
            let hi = (lo + self.chunk).min(n);
            frontier.reset(hi - lo);
            for (v, program) in programs.iter().enumerate().take(hi).skip(lo) {
                if program.is_done() {
                    halted_count += 1;
                    continue;
                }
                match program.wake_round() {
                    0 => frontier.active.push(v as u32),
                    due => frontier.park(v as u32, lo, due, self.config.max_rounds),
                }
            }
        }
        let slots = make_slots(
            programs,
            &mut self.core.rngs,
            &mut self.core.inboxes,
            &mut self.core.heard,
            &mut self.core.heard_len,
            &mut self.core.frontiers,
            &mut self.core.filled,
            &mut self.core.lookups,
            self.chunk,
            self.graph.offsets(),
        );
        // Fault-injection state lives for exactly this run: holdback
        // queues die at the pass boundary (a synchronization point), so a
        // delayed bundle can never leak into a later pass or rebinding.
        let fault = self
            .config
            .fault
            .is_active()
            .then(|| FaultState::new(self.config.fault, seed, self.graph));
        let pool = self.core.pool.as_ref().filter(|_| self.workers > 1);
        let task = PassTask {
            graph: self.graph,
            plane: &self.core.plane,
            sync: pool.map_or(&self.core.solo, |p| &p.round),
            bandwidth: self.config.bandwidth,
            fault: fault.as_ref(),
            workers: self.workers,
            max_rounds: self.config.max_rounds,
            epoch0: self.core.epoch,
            init_halted: halted_count,
            slots: slots.into_iter().map(|s| Mutex::new(Some(s))).collect(),
            err_out: (0..self.workers).map(|_| Mutex::new(None)).collect(),
            acc_out: (0..self.workers)
                .map(|_| Mutex::new(PassAccum::default()))
                .collect(),
            outcome: Mutex::new(PassOutcome::default()),
        };
        // A pass that exits before its first round (empty frontier, zero
        // round cap, round-0 abort) consumes no epochs.
        task.sync.epochs_used.store(0, Ordering::Release);
        match pool {
            Some(pool) => pool.run(&task),
            // One worker runs the same loop on the calling thread.
            None => task.run_worker(0),
        }
        let (mut result, completed) = task.finish(&mut self.core.epoch, &mut self.audit);
        // The α-synchronizer reads only schedule fates, crash liveness
        // and the round count, so it replays after the loop, over the
        // rounds the pass completed: a stall outranks a loop error only
        // from an earlier round (the replay stops before the error's).
        if self.config.sched.is_active() {
            let counters = sched::replay(self.config, seed, self.graph, completed)?;
            if let Ok(report) = &mut result {
                report.sched = counters;
            }
        }
        if let (Ok(report), Some(f)) = (&mut result, &fault) {
            report.starved = f.collect_starved();
            report.crashed = f.collect_crashed();
            report.faults.crashes = f.crash_event_total();
            // The opt-in fail-fast verdicts fire last, after the report
            // is fully assembled — same placement in every engine.
            f.crash_outcome(report.rounds)?;
        }
        result
    }
}

/// Partition every per-node array into the per-worker slots: `chunk`
/// nodes each, and the heard lists' runs of those nodes by `offsets`.
#[allow(clippy::too_many_arguments)]
fn make_slots<'a, P: Program>(
    programs: &'a mut [P],
    rngs: &'a mut [StdRng],
    inboxes: &'a mut [Vec<(NodeId, P::Msg)>],
    mut heard: &'a mut [u32],
    heard_len: &'a mut [u32],
    frontiers: &'a mut [Frontier],
    filled: &'a mut [Vec<u32>],
    lookups: &'a mut [NeighborIndex],
    chunk: usize,
    offsets: &[usize],
) -> Vec<WorkerSlot<'a, P>> {
    let mut slots = Vec::with_capacity(frontiers.len());
    let mut lo = 0usize;
    let iter = programs
        .chunks_mut(chunk)
        .zip(rngs.chunks_mut(chunk))
        .zip(inboxes.chunks_mut(chunk))
        .zip(heard_len.chunks_mut(chunk))
        .zip(frontiers.iter_mut())
        .zip(filled.iter_mut())
        .zip(lookups.iter_mut());
    for ((((((programs, rngs), inboxes), heard_len), frontier), filled), lookup) in iter {
        let lo_w = lo;
        lo += programs.len();
        let (own, rest) = std::mem::take(&mut heard).split_at_mut(offsets[lo] - offsets[lo_w]);
        heard = rest;
        slots.push(WorkerSlot {
            lo: lo_w,
            programs,
            rngs,
            inboxes,
            heard: own,
            heard_len,
            frontier,
            filled,
            lookup,
        });
    }
    slots
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use crate::reference::run_reference;
    use crate::FaultPlan;
    use graphs::gen;

    /// Counts how often it is stepped; reports done after `active_rounds`
    /// steps and panics if stepped again.
    struct DoneCounter {
        active_rounds: u64,
        steps: u64,
    }

    impl Program for DoneCounter {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut Ctx<'_, ()>) {
            assert!(!self.is_done(), "node {} stepped after done", ctx.id());
            self.steps += 1;
            ctx.broadcast(());
        }
        fn is_done(&self) -> bool {
            self.steps >= self.active_rounds
        }
    }

    /// A done node is never stepped again, and the run ends when the
    /// last node is done.
    #[test]
    fn done_node_is_never_stepped() {
        let g = gen::cycle(10);
        let mut session: Session<'_, ()> = Session::new(&g, SimConfig::default());
        let mut programs: Vec<DoneCounter> = (0..10)
            .map(|v| DoneCounter {
                active_rounds: 1 + v % 4,
                steps: 0,
            })
            .collect();
        let report = session.run(&mut programs, 3).expect("run");
        assert!(report.completed);
        // The run ends with the slowest node's last step.
        assert_eq!(report.rounds, 4);
        for (v, p) in programs.iter().enumerate() {
            assert_eq!(p.steps, 1 + (v as u64) % 4, "node {v} step count");
        }
    }

    /// Retiring with threads > 1 behaves identically (and the pooled
    /// never-step invariant holds via the same panic guard).
    #[test]
    fn done_node_is_never_stepped_pooled() {
        let n = 400; // above PAR_MIN_NODES
        let g = gen::cycle(n);
        let mk = || -> Vec<DoneCounter> {
            (0..n)
                .map(|v| DoneCounter {
                    active_rounds: 1 + (v as u64) % 5,
                    steps: 0,
                })
                .collect()
        };
        let mut seq: Session<'_, ()> = Session::new(&g, SimConfig::default());
        let mut a = mk();
        let ra = seq.run(&mut a, 7).expect("run");
        let cfg = SimConfig {
            threads: 4,
            ..SimConfig::default()
        };
        let mut pooled: Session<'_, ()> = Session::new(&g, cfg);
        let mut b = mk();
        let rb = pooled.run(&mut b, 7).expect("run");
        assert_eq!(ra, rb);
        assert!(a.iter().zip(&b).all(|(x, y)| x.steps == y.steps));
    }

    /// Programs that start done never enter the frontier.
    #[test]
    fn programs_done_at_start_are_never_stepped() {
        let g = gen::cycle(8);
        let mut session: Session<'_, ()> = Session::new(&g, SimConfig::default());
        let mut programs: Vec<DoneCounter> = (0..8)
            .map(|v| DoneCounter {
                active_rounds: if v % 2 == 0 { 2 } else { 0 },
                steps: 0,
            })
            .collect();
        let report = session.run(&mut programs, 1).expect("run");
        assert!(report.completed);
        for (v, p) in programs.iter().enumerate() {
            let expect = if v % 2 == 0 { 2 } else { 0 };
            assert_eq!(p.steps, expect, "node {v}");
        }
    }

    /// Records the rounds it is stepped in, sends one message to node 1
    /// in each round of `pings`, and is done once stepped in round
    /// `done_at` or later. Its hint is `hint`: honest for a node that
    /// neither pings nor finishes before that round.
    struct Sleeper {
        pings: &'static [u64],
        hint: u64,
        done_at: u64,
        stepped: Vec<u64>,
    }

    impl Program for Sleeper {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut Ctx<'_, ()>) {
            self.stepped.push(ctx.round());
            if self.pings.contains(&ctx.round()) {
                ctx.send(1, ());
            }
        }
        fn is_done(&self) -> bool {
            self.stepped.last().is_some_and(|&r| r >= self.done_at)
        }
        fn wake_round(&self) -> u64 {
            self.hint
        }
    }

    /// A parked program is stepped exactly in its due round and in the
    /// rounds in which it has mail. On the path 0–1–2–3, node 1 hints
    /// round 7 from the start, and node 2 (in the other shard when the
    /// path is split in two) pings it in rounds 2 and 4, so node 1 is
    /// stepped in rounds 3, 5 and 7 only; the oracle steps it in every
    /// round, and both end after the same 8 rounds.
    #[test]
    fn parked_node_is_stepped_on_its_round_and_on_mail() {
        let g = gen::path(4);
        let programs = || -> Vec<Sleeper> {
            let node = |pings, hint, done_at| Sleeper {
                pings,
                hint,
                done_at,
                stepped: Vec::new(),
            };
            vec![
                node(&[], 0, 0),
                node(&[], 7, 7),
                node(&[2, 4], 0, 4),
                node(&[], 0, 0),
            ]
        };
        let mut oracle = programs();
        let expected = run_reference(&g, &mut oracle, SimConfig::seeded(5)).expect("oracle");
        assert_eq!(expected.rounds, 8);
        assert_eq!(oracle[1].stepped, (0..8).collect::<Vec<_>>());
        for (threads, shards) in [(1, 1), (1, 2), (2, 2)] {
            let cfg = SimConfig {
                threads,
                shards,
                ..SimConfig::default()
            };
            let mut session: Session<'_, ()> = Session::new(&g, cfg);
            let mut got = programs();
            let report = session.run(&mut got, 5).expect("run");
            assert_eq!(report, expected, "threads={threads} shards={shards}");
            assert_eq!(
                got[1].stepped,
                [3, 5, 7],
                "threads={threads} shards={shards}"
            );
            assert_eq!(got[2].stepped, [0, 1, 2, 3, 4]);
            assert_eq!((got[0].stepped.len(), got[3].stepped.len()), (1, 1));
        }
    }

    use crate::engine::tests::min_flood_programs;

    /// Session reuse across passes is byte-identical to a fresh
    /// `congest::run` per pass and to the reference oracle, for
    /// every thread count.
    #[test]
    fn session_reuse_matches_per_pass_runs() {
        let g = gen::gnp(400, 0.02, 17);
        for threads in [1usize, 2, 8] {
            let cfg = SimConfig {
                threads,
                ..SimConfig::default()
            };
            let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
            for pass_seed in [5u64, 99, 123] {
                let mut programs = min_flood_programs(400);
                let rs = session.run(&mut programs, pass_seed).expect("session");
                let (one_shot, ro) = run(
                    &g,
                    min_flood_programs(400),
                    SimConfig {
                        seed: pass_seed,
                        ..cfg
                    },
                )
                .expect("one-shot");
                let mut refr = min_flood_programs(400);
                let rr = run_reference(
                    &g,
                    &mut refr,
                    SimConfig {
                        seed: pass_seed,
                        ..cfg
                    },
                )
                .expect("reference");
                assert_eq!(rs, ro, "pass {pass_seed} threads {threads}: one-shot");
                assert_eq!(rs, rr, "pass {pass_seed} threads {threads}: reference");
                assert!(programs.iter().zip(&one_shot).all(|(a, b)| a.min == b.min));
                assert!(programs.iter().zip(&refr).all(|(a, b)| a.min == b.min));
            }
        }
    }

    /// A note tagged with the send call that produced it, so inbox
    /// transcripts show send order.
    #[derive(Clone)]
    struct Note(u32);

    impl Message for Note {
        fn bit_cost(&self) -> u64 {
            8
        }
    }

    /// A chatty program for the mail-bit differential: in each of its
    /// first four rounds a node stays silent, broadcasts, sends to every
    /// `stride`-th neighbor, or mixes both lanes, by a hash of `(node,
    /// round)`. Every round it records its inbox.
    #[derive(Clone, Default)]
    struct Chatter {
        heard: Vec<(u64, NodeId, u32)>,
        done: bool,
    }

    impl Program for Chatter {
        type Msg = Note;
        fn on_round(&mut self, ctx: &mut Ctx<'_, Note>) {
            let r = ctx.round();
            let heard = ctx.inbox().iter().map(|(from, Note(k))| (r, from, *k));
            self.heard.extend(heard);
            if r >= 4 {
                self.done = true;
                return;
            }
            let h = mix2(u64::from(ctx.id()), r);
            let neighbors = ctx.neighbors();
            let stride = 1 + (h >> 8) as usize % 5;
            match h % 4 {
                0 => {}
                1 => ctx.broadcast(Note(0)),
                2 => {
                    for &w in neighbors.iter().step_by(stride) {
                        ctx.send(w, Note(1));
                    }
                }
                _ => {
                    if let Some(&w) = neighbors.last() {
                        ctx.send(w, Note(2));
                    }
                    ctx.broadcast(Note(3));
                    for &w in neighbors.iter().step_by(stride) {
                        ctx.send(w, Note(4));
                    }
                }
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// Routing visits only the in-edges whose mail bits are set, yet
    /// delivers exactly what the reference oracle's sweep of every edge
    /// delivers: the same reports and the same inboxes, in the same
    /// order, for sparse senders, both lanes from one sender, and a hub
    /// whose 199 in-neighbors span four mail words, at four geometries.
    /// A truncating plan under `Bandwidth::Track` is active but never
    /// fires, so the router's faulty instance (copies, no heard list)
    /// must deliver what the fault-free oracle does, too.
    #[test]
    fn mail_bits_deliver_what_a_full_sweep_would() {
        for g in [gen::gnp(300, 0.05, 3), gen::star(200)] {
            let n = g.n();
            let mut oracle = vec![Chatter::default(); n];
            let want = run_reference(&g, &mut oracle, SimConfig::seeded(2)).expect("reference");
            assert!(want.messages > 0);
            for fault in [FaultPlan::none(), FaultPlan::none().with_truncate()] {
                for (shards, threads) in [(1usize, 1usize), (2, 1), (4, 2), (3, 2)] {
                    let cfg = SimConfig {
                        threads,
                        shards,
                        fault,
                        ..SimConfig::default()
                    };
                    let mut session: Session<'_, Note> = Session::new(&g, cfg);
                    let mut programs = vec![Chatter::default(); n];
                    let got = session.run(&mut programs, 2).expect("session");
                    let at = format!(
                        "n {n} truncate {} shards {shards} threads {threads}",
                        fault.truncate
                    );
                    assert_eq!(got, want, "{at}");
                    for (v, (a, b)) in programs.iter().zip(&oracle).enumerate() {
                        assert_eq!(a.heard, b.heard, "node {v}: {at}");
                    }
                }
            }
        }
    }

    /// A program that must observe an empty world: sends nothing and
    /// asserts its inbox stays empty. If a rebound session ever delivered
    /// stale slots (epoch aliasing across rebinds), this panics.
    struct MustHearNothing {
        rounds: u64,
        done: bool,
    }

    impl Program for MustHearNothing {
        type Msg = crate::engine::tests::IdMsg;
        fn on_round(&mut self, ctx: &mut Ctx<'_, crate::engine::tests::IdMsg>) {
            assert!(
                ctx.inbox().is_empty(),
                "node {} heard a stale message after rebind",
                ctx.id()
            );
            if ctx.round() + 1 >= self.rounds {
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// Satellite: a rebound session never aliases stale epochs or slots
    /// from the previous graph — a silent pass on the new graph hears
    /// nothing, and a real pass matches a fresh session byte for byte.
    #[test]
    fn rebound_session_never_aliases_stale_state() {
        // Saturate every slot of a dense graph...
        let dense = gen::complete(8);
        let mut session: Session<'_, crate::engine::tests::IdMsg> =
            Session::new(&dense, SimConfig::default());
        let mut programs = min_flood_programs(8);
        session.run(&mut programs, 11).expect("dense pass");
        // ...then retarget at a different topology (more nodes, fewer
        // edges per node): no leftover payload may surface.
        let sparse = gen::cycle(12);
        let mut session = session.rebind(&sparse, SimConfig::default());
        let mut silent: Vec<MustHearNothing> = (0..12)
            .map(|_| MustHearNothing {
                rounds: 3,
                done: false,
            })
            .collect();
        let report = session.run(&mut silent, 13).expect("silent pass");
        assert_eq!(report.messages, 0);
        // A real pass on the rebound session is byte-identical to a
        // fresh-session run of the same pass.
        let mut reused = min_flood_programs(12);
        let report_reused = session.run(&mut reused, 17).expect("rebound pass");
        let mut fresh_session: Session<'_, crate::engine::tests::IdMsg> =
            Session::new(&sparse, SimConfig::default());
        let mut fresh = min_flood_programs(12);
        let report_fresh = fresh_session.run(&mut fresh, 17).expect("fresh pass");
        assert_eq!(report_reused, report_fresh);
        assert!(reused.iter().zip(&fresh).all(|(a, b)| a.min == b.min));
    }

    /// Rebinding across sizes and shard counts: the pool is kept when the
    /// shard count matches, survives a single-shard binding in between,
    /// and every binding matches a fresh session.
    #[test]
    fn rebind_across_sizes_matches_fresh_sessions() {
        let cfg = SimConfig {
            threads: 4,
            ..SimConfig::default()
        };
        let big = gen::gnp(400, 0.02, 5);
        let small = gen::cycle(10);
        let bigger = gen::gnp(600, 0.015, 7);
        let mut core: SessionCore<crate::engine::tests::IdMsg> = SessionCore::new();
        for (graph, seed) in [(&big, 3u64), (&small, 4), (&bigger, 5), (&big, 6)] {
            let n = graph.n();
            let mut session = core.bind(graph, cfg);
            let mut programs = min_flood_programs(n);
            let report = session.run(&mut programs, seed).expect("rebound run");
            let mut fresh_session: Session<'_, crate::engine::tests::IdMsg> =
                Session::new(graph, cfg);
            let mut fresh = min_flood_programs(n);
            let fresh_report = fresh_session.run(&mut fresh, seed).expect("fresh run");
            assert_eq!(report, fresh_report, "n={n}");
            assert!(programs.iter().zip(&fresh).all(|(a, b)| a.min == b.min));
            core = session.unbind();
        }
    }

    /// An engine error leaves the session reusable at every geometry.
    /// Whether the erroring round aborted in routing (a strict-cap
    /// overflow, some receivers' mail still unread) or in the step phase
    /// (after lower-id nodes had already written targeted and broadcast
    /// mail), the next pass returns the same report and the same inboxes
    /// as a fresh session: nothing the aborted round wrote delivers.
    #[test]
    fn session_survives_an_engine_error() {
        #[derive(Clone)]
        struct Fat(u64);
        impl Message for Fat {
            fn bit_cost(&self) -> u64 {
                self.0
            }
        }
        /// In round 0 a `loud` node sends one `bits`-bit note to its
        /// first neighbor, then broadcasts `shouts` more; a `stray` node
        /// then sends to a non-neighbor. Records every inbox; done after
        /// round 2.
        #[derive(Clone)]
        struct Burst {
            loud: bool,
            shouts: usize,
            bits: u64,
            stray: bool,
            heard: Vec<(u64, NodeId, u64)>,
            done: bool,
        }
        impl Program for Burst {
            type Msg = Fat;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Fat>) {
                let r = ctx.round();
                let heard = ctx.inbox().iter().map(|(from, Fat(b))| (r, from, *b));
                self.heard.extend(heard);
                if r == 0 {
                    if self.loud {
                        ctx.send(ctx.neighbors()[0], Fat(self.bits));
                        for _ in 0..self.shouts {
                            ctx.broadcast(Fat(self.bits));
                        }
                    }
                    if self.stray {
                        ctx.send((ctx.id() + 3) % 8, Fat(1));
                    }
                }
                self.done = r >= 2;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let g = gen::cycle(8);
        let programs = |loud: fn(NodeId) -> bool, shouts, bits, stray: Option<NodeId>| {
            (0..8)
                .map(|v| Burst {
                    loud: loud(v),
                    shouts,
                    bits,
                    stray: stray == Some(v),
                    heard: Vec::new(),
                    done: false,
                })
                .collect::<Vec<_>>()
        };
        let aborts = [
            // Route phase: node 1's bundle to node 0 (one targeted and two
            // broadcast 100-bit notes) overflows the 150-bit cap; routing
            // stops at receiver 0.
            (
                programs(|_| true, 2, 100, None),
                SimError::BandwidthExceeded {
                    from: 1,
                    to: 0,
                    bits: 300,
                    limit: 150,
                    round: 0,
                },
            ),
            // Step phase: nodes 0..=5 write targeted and broadcast mail,
            // then node 5 sends to a non-neighbor.
            (
                programs(|v| v <= 5, 1, 10, Some(5)),
                SimError::NotANeighbor {
                    from: 5,
                    to: 0,
                    round: 0,
                },
            ),
        ];
        // The pass after: only the even nodes speak.
        let next = || programs(|v| v % 2 == 0, 1, 10, None);
        for shards in [1usize, 2, 4] {
            for threads in [1usize, 2] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    bandwidth: Bandwidth::Strict(150),
                    ..SimConfig::default()
                };
                let mut fresh: Session<'_, Fat> = Session::new(&g, cfg);
                let mut want = next();
                let want_report = fresh.run(&mut want, 2).expect("fresh pass");
                // 4 speakers × (1 targeted + 2 broadcast copies).
                assert_eq!(want_report.messages, 12);
                for (abort, expected) in &aborts {
                    let mut session: Session<'_, Fat> = Session::new(&g, cfg);
                    let mut noisy = abort.clone();
                    let err = session.run(&mut noisy, 1).expect_err("the pass must abort");
                    let at = format!("shards {shards} threads {threads}: {expected:?}");
                    assert_eq!(&err, expected, "{at}");
                    // Programs hold their state after round 0's step.
                    assert!(noisy.iter().all(|p| p.heard.is_empty() && !p.done));
                    let mut got = next();
                    let report = session.run(&mut got, 2).expect("the session keeps working");
                    assert_eq!(report, want_report, "{at}");
                    for (v, (a, b)) in got.iter().zip(&want).enumerate() {
                        assert_eq!(a.heard, b.heard, "node {v}: {at}");
                    }
                }
            }
        }
    }

    /// Satellite: the barrier-budget regression guard. The owner/ghost
    /// worker protocol spends exactly 2 round-barrier waits per round on
    /// a clean pooled pass, and the sequential path spends none.
    #[test]
    fn barrier_budget_is_at_most_two_waits_per_round() {
        let g = gen::gnp(400, 0.02, 31);
        for (threads, shards) in [(4usize, 0usize), (2, 8), (8, 4)] {
            let cfg = SimConfig {
                threads,
                shards,
                ..SimConfig::default()
            };
            let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
            assert!(session.worker_count() > 1, "pooled geometry expected");
            let mut programs = min_flood_programs(400);
            let report = session.run(&mut programs, 41).expect("pooled pass");
            let audit = session.barrier_audit();
            assert_eq!(audit.rounds, report.rounds, "audit round count");
            assert!(audit.rounds > 0, "the pass must do work");
            assert_eq!(
                audit.round_waits,
                2 * audit.rounds,
                "threads {threads} shards {shards}: 2 waits per round"
            );
            assert!(
                audit.round_waits <= 2 * audit.rounds && audit.round_waits < 4 * audit.rounds,
                "budget regression: {} waits over {} rounds",
                audit.round_waits,
                audit.rounds
            );
        }
        // The sequential path never touches a barrier, whatever the
        // shard count.
        let cfg = SimConfig {
            threads: 1,
            shards: 8,
            ..SimConfig::default()
        };
        let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
        assert_eq!(session.worker_count(), 1);
        assert_eq!(session.shard_count(), 8);
        let mut programs = min_flood_programs(400);
        let report = session.run(&mut programs, 41).expect("sequential pass");
        let audit = session.barrier_audit();
        assert_eq!(audit.rounds, report.rounds);
        assert_eq!(audit.round_waits, 0, "sequential pass uses no barriers");
    }

    /// Shard geometry: explicit `config.shards` is honored (even on
    /// graphs below the auto-parallel threshold), `0` reproduces the
    /// pre-sharding seed geometry, and workers never exceed shards.
    #[test]
    fn shard_geometry_honors_explicit_requests_and_keeps_seed_default() {
        let small = gen::cycle(10);
        let big = gen::gnp(400, 0.02, 5);
        // Explicit shards on a small graph: honored, clamped to n.
        let cfg = SimConfig {
            threads: 1,
            shards: 4,
            ..SimConfig::default()
        };
        let s: Session<'_, ()> = Session::new(&small, cfg);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.worker_count(), 1);
        // More shards than nodes: one node per shard, no more.
        let cfg = SimConfig {
            threads: 2,
            shards: 64,
            ..SimConfig::default()
        };
        let s: Session<'_, ()> = Session::new(&small, cfg);
        assert_eq!(s.shard_count(), 10);
        assert_eq!(s.worker_count(), 2);
        // Default (shards == 0): small graphs stay single-shard even
        // with threads > 1 — the seed's auto heuristic.
        let cfg = SimConfig {
            threads: 8,
            ..SimConfig::default()
        };
        let s: Session<'_, ()> = Session::new(&small, cfg);
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.worker_count(), 1);
        // Default on a large graph: shards == threads, as before.
        let s: Session<'_, ()> = Session::new(&big, cfg);
        assert_eq!(s.shard_count(), 8);
        assert_eq!(s.worker_count(), 8);
        // Workers are capped by the shard count.
        let cfg = SimConfig {
            threads: 8,
            shards: 3,
            ..SimConfig::default()
        };
        let s: Session<'_, ()> = Session::new(&big, cfg);
        assert_eq!(s.shard_count(), 3);
        assert_eq!(s.worker_count(), 3);
    }

    /// Smoke differential over the shard axis: every shard count ×
    /// thread count reproduces the single-shard sequential transcript
    /// byte for byte (the full battery lives in `tests/prop_invariants`).
    #[test]
    fn sharded_sessions_match_for_every_shard_count() {
        let g = gen::gnp(300, 0.03, 23);
        let mut anchor_session: Session<'_, crate::engine::tests::IdMsg> =
            Session::new(&g, SimConfig::default());
        let mut anchor = min_flood_programs(300);
        let anchor_report = anchor_session.run(&mut anchor, 77).expect("anchor");
        for shards in [1usize, 2, 4, 8] {
            for threads in [1usize, 2, 8] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    ..SimConfig::default()
                };
                let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
                let mut programs = min_flood_programs(300);
                let report = session.run(&mut programs, 77).expect("sharded run");
                assert_eq!(report, anchor_report, "shards {shards} threads {threads}");
                assert!(
                    programs.iter().zip(&anchor).all(|(a, b)| a.min == b.min),
                    "shards {shards} threads {threads}: program state"
                );
            }
        }
    }

    /// First-offender selection stays deterministic across shard and
    /// worker counts: a strict-bandwidth overflow reports the same
    /// offending node whatever the geometry, and a schedule stall
    /// outranks it only from an earlier round. A stall in the overflow's
    /// own round loses the tie at every shard count.
    #[test]
    fn errors_are_deterministic_across_shard_counts() {
        #[derive(Clone)]
        struct Wide;
        impl Message for Wide {
            fn bit_cost(&self) -> u64 {
                64
            }
        }
        /// Nodes in `loud` broadcast two 64-bit messages in round `at`;
        /// everyone is done after it.
        #[derive(Clone)]
        struct Shout {
            loud: std::ops::Range<NodeId>,
            at: u64,
            done: bool,
        }
        impl Program for Shout {
            type Msg = Wide;
            fn on_round(&mut self, ctx: &mut Ctx<'_, Wide>) {
                if ctx.round() == self.at && self.loud.contains(&ctx.id()) {
                    ctx.broadcast(Wide);
                    ctx.broadcast(Wide);
                }
                self.done = ctx.round() >= self.at;
            }
            fn is_done(&self) -> bool {
                self.done
            }
        }
        let g = gen::cycle(300);
        // Node 178 stalls in round 1 under this plan and pass seed 0.
        let stalls = crate::SchedulePlan::none()
            .with_stragglers(0.004, 5)
            .with_patience(2);
        let overflow = |from, to, round| SimError::BandwidthExceeded {
            from,
            to,
            bits: 128,
            limit: 100,
            round,
        };
        let stall = SimError::ScheduleStalled {
            node: 178,
            round: 1,
            waited: 5,
        };
        let cases = [
            (
                150..300,
                0,
                crate::SchedulePlan::none(),
                9,
                overflow(299, 0, 0),
            ),
            // The stall falls in the overflow's round and loses the tie...
            (0..10, 1, stalls, 0, overflow(1, 0, 1)),
            // ...and wins when the overflow comes a round later.
            (0..10, 2, stalls, 0, stall),
        ];
        for (loud, at, sched, seed, expected) in cases {
            for shards in [0usize, 1, 2, 4, 8] {
                for threads in [1usize, 2, 8] {
                    let cfg = SimConfig {
                        threads,
                        shards,
                        bandwidth: Bandwidth::Strict(100),
                        sched,
                        ..SimConfig::default()
                    };
                    let mut session: Session<'_, Wide> = Session::new(&g, cfg);
                    let shout = Shout {
                        loud: loud.clone(),
                        at,
                        done: false,
                    };
                    let mut programs = vec![shout; 300];
                    let err = session.run(&mut programs, seed).expect_err("must fail");
                    assert_eq!(
                        err, expected,
                        "round {at}: shards {shards} threads {threads}"
                    );
                }
            }
        }
    }
}
