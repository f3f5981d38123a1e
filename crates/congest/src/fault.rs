//! Deterministic fault injection between send and delivery.
//!
//! A [`FaultPlan`] describes a lossy network: per-bundle drop, delay, and
//! duplication probabilities, a per-round abort probability (a modeled
//! crash/timeout surfaced as [`SimError::FaultInjected`]), per-node
//! **crash-stop / crash-recovery fates** (a crashed node stops stepping
//! and sending, its in-flight bundles drop at their due round, and
//! neighbors observe silence through the starvation sentinels), and an
//! optional truncate-to-cap mode that clips over-budget bundles instead
//! of failing a strict run. The *bundle* — everything one sender puts on one directed
//! edge in one round, in send order — is the unit every decision applies
//! to, because it is also the unit the mailbox plane's delivery merge
//! produces.
//!
//! This module holds only what is the fault layer's own: bundle fates
//! ([`FaultState::settle`]), holdback queues and crash state. The
//! session's one router (`route_shard` in [`crate::session`]) gathers,
//! strict-checks and bills every bundle with a plan active or not, and
//! under a plan hands each one here. Only the session engine runs this
//! module; the reference oracle ([`crate::reference`]) re-derives the
//! same fates on its own from the plan's public fields and the stream
//! constants, so a bug here shows up as a divergence in the differential
//! tests.
//!
//! Decisions are **stateless counter hashes**, not sequential RNG draws:
//! the fate of the bundle `(from, to, round)` is a pure function of
//! `(pass seed, plan salt, from, to, round)`. No ordering between workers
//! can change an outcome, which is what makes a faulty run reproducible
//! across thread counts {1, 2, 8} and engine modes alike.
//!
//! Delayed bundles sit in a per-edge **holdback queue** owned by the
//! *receiver-side* CSR edge id — the same receiver-range exclusivity the
//! plane's slot arrays rely on — and are delivered at the start of their
//! due round, before that round's fresh bundle from the same sender, so
//! the inbox-order guarantee (sorted by sender, send order within a
//! sender) survives injection. The queues live for exactly one engine
//! run: a pass boundary is a synchronization point, so a delayed slot can
//! never alias a later pass or a rebound graph.

use crate::error::SimError;
use crate::message::Message;
use crate::plane::PlaneCell;
use graphs::{Graph, NodeId};
use prand::mix::{bounded, mix2, mix3};

/// Probability denominator of every `*_q` field: `q / 65536`, so `0` is
/// never and [`FaultPlan::ALWAYS`] (= 65536) is certainty.
const Q_ONE: u32 = 1 << 16;

/// Domain-separation tags for the fault decision streams (part of the
/// specification: the reference oracle restates them).
const STREAM_FAULT: u64 = 0xFA17_0001;
const STREAM_ABORT: u64 = 0xFA17_0002;
const STREAM_DELAY: u64 = 0xFA17_0003;
const STREAM_CRASH: u64 = 0xFA17_0004;
const STREAM_CRASH_DELAY: u64 = 0xFA17_0005;

/// A deterministic, seeded fault-injection plan.
///
/// Probabilities are fixed-point with denominator 65536 (`q / 65536`), so
/// the plan stays `Copy + Eq` and can ride inside
/// [`SimConfig`](crate::SimConfig) — and therefore inside a solve's memo
/// key — without floating-point equality headaches. The default plan is
/// [`FaultPlan::none`]: with it, the engines take their fault-free paths
/// untouched, bit for bit.
///
/// Any faulty run is exactly reproducible from `(pass seed, plan)`: the
/// plan carries its own [`salt`](FaultPlan::salt) so a serving layer can
/// re-roll the fault stream between retry attempts while leaving the
/// protocol randomness (driven by the pass seed) untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FaultPlan {
    /// Probability (`/65536`) that a bundle is dropped in flight.
    pub drop_q: u32,
    /// Probability (`/65536`) that a surviving bundle is delayed by
    /// `1..=max_delay` rounds.
    pub delay_q: u32,
    /// Largest possible delay, in rounds (treated as 1 when 0 but
    /// `delay_q > 0`). The delay amount is drawn uniformly from
    /// `1..=max_delay`.
    pub max_delay: u32,
    /// Probability (`/65536`) that a delivered bundle arrives twice.
    pub dup_q: u32,
    /// Probability (`/65536`), per round, that the whole run aborts with
    /// [`SimError::FaultInjected`] — the transient failure the serving
    /// layer's retry loop exists for.
    pub abort_q: u32,
    /// Under [`Bandwidth::Strict`](crate::Bandwidth::Strict), clip an
    /// over-cap bundle to the prefix that fits the limit (counting the
    /// clipped suffix in [`FaultCounters::truncated`]) instead of failing
    /// the run.
    pub truncate: bool,
    /// Probability (`/65536`), per node per round, that a live node
    /// **crashes**: it stops stepping and sending, its in-flight bundles
    /// are dropped at their due round, and neighbors observe silence
    /// through the starvation sentinels. Fates are stateless hashes of
    /// `(pass seed, salt, node, round)`, so they are byte-identical
    /// across every shard/thread/engine geometry.
    pub crash_q: u32,
    /// Crash-recovery window, in rounds. `0` = crash-stop (a crashed
    /// node stays down for the rest of the run); `k > 0` = the node
    /// recovers after `1..=k` rounds (drawn uniformly) and resumes
    /// stepping where it left off.
    pub crash_recovery: u32,
    /// Fail fast on crashes: the earliest crash event surfaces as
    /// [`SimError::NodeCrashed`] at the end of the run's round loop (the
    /// pass still returns consistent states). Transient: a re-salted
    /// retry re-rolls the crash dice.
    pub crash_fatal: bool,
    /// Quorum floor: if fewer than this many nodes are up when the run
    /// ends, the run surfaces [`SimError::QuorumLost`]. Only meaningful
    /// together with `crash_q > 0` (a crash-free run never loses nodes).
    pub min_live: u32,
    /// Extra entropy mixed into every decision. Same `(seed, plan)` ⇒
    /// same faults; bumping the salt re-rolls the fault stream without
    /// touching protocol randomness (see [`FaultPlan::resalted`]).
    pub salt: u64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

impl FaultPlan {
    /// The `q` value meaning "always" (probability 1).
    pub const ALWAYS: u32 = Q_ONE;

    /// The fault-free plan: every engine ignores the fault layer entirely
    /// and runs its unmodified fast path.
    pub fn none() -> Self {
        FaultPlan {
            drop_q: 0,
            delay_q: 0,
            max_delay: 0,
            dup_q: 0,
            abort_q: 0,
            truncate: false,
            crash_q: 0,
            crash_recovery: 0,
            crash_fatal: false,
            min_live: 0,
            salt: 0,
        }
    }

    /// Quantize a probability in `[0, 1]` to the fixed-point `q` scale.
    pub fn quantize(rate: f64) -> u32 {
        let q = (rate.clamp(0.0, 1.0) * f64::from(Q_ONE)).round();
        (q as u32).min(Q_ONE)
    }

    /// A plan that drops each bundle independently with probability
    /// `rate` (and nothing else).
    pub fn lossy(rate: f64) -> Self {
        FaultPlan {
            drop_q: Self::quantize(rate),
            ..FaultPlan::none()
        }
    }

    /// Add delays: each surviving bundle is held back `1..=max_delay`
    /// rounds with probability `rate`.
    #[must_use]
    pub fn with_delay(mut self, rate: f64, max_delay: u32) -> Self {
        self.delay_q = Self::quantize(rate);
        self.max_delay = max_delay;
        self
    }

    /// Add duplication: each delivered bundle arrives twice with
    /// probability `rate`.
    #[must_use]
    pub fn with_dup(mut self, rate: f64) -> Self {
        self.dup_q = Self::quantize(rate);
        self
    }

    /// Add per-round aborts: each round the whole run dies with
    /// probability `rate`, surfacing [`SimError::FaultInjected`].
    #[must_use]
    pub fn with_abort(mut self, rate: f64) -> Self {
        self.abort_q = Self::quantize(rate);
        self
    }

    /// Enable truncate-to-cap under
    /// [`Bandwidth::Strict`](crate::Bandwidth::Strict).
    #[must_use]
    pub fn with_truncate(mut self) -> Self {
        self.truncate = true;
        self
    }

    /// Add crash fates: each live node crashes independently with
    /// probability `rate` per round. `recovery = 0` is crash-stop (the
    /// node never comes back); `recovery = k > 0` is crash-recovery (the
    /// node is down `1..=k` rounds, then resumes stepping — the pipeline
    /// quarantines and recolors it afterwards, see DESIGN.md §10).
    #[must_use]
    pub fn with_crashes(mut self, rate: f64, recovery: u32) -> Self {
        self.crash_q = Self::quantize(rate);
        self.crash_recovery = recovery;
        self
    }

    /// Opt into fail-fast crashes: the run's earliest crash event
    /// surfaces as [`SimError::NodeCrashed`] when the round loop ends.
    #[must_use]
    pub fn with_fatal_crashes(mut self) -> Self {
        self.crash_fatal = true;
        self
    }

    /// Opt into a quorum floor: a run ending with fewer than `min_live`
    /// nodes up surfaces [`SimError::QuorumLost`].
    #[must_use]
    pub fn with_quorum(mut self, min_live: u32) -> Self {
        self.min_live = min_live;
        self
    }

    /// The same plan with `extra` folded into the salt — a different but
    /// equally deterministic fault stream. Retry layers use
    /// `plan.resalted(attempt)` so a transient abort is not replayed
    /// verbatim on the next attempt.
    #[must_use]
    pub fn resalted(mut self, extra: u64) -> Self {
        self.salt = self.salt.wrapping_add(extra);
        self
    }

    /// Whether this plan can perturb a run at all. `false` means the
    /// engines skip the fault layer completely (the zero-overhead
    /// guarantee: a `FaultPlan::none()` run is bit-for-bit the fault-free
    /// engine).
    pub fn is_active(&self) -> bool {
        (self.drop_q | self.delay_q | self.dup_q | self.abort_q | self.crash_q) > 0 || self.truncate
    }
}

/// Per-run fault-event counters, surfaced through
/// [`RunReport`](crate::RunReport) (and aggregated per solve by
/// [`PassLog::fault_totals`](crate::PassLog::fault_totals)). All zero for
/// a fault-free run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Bundles dropped in flight.
    pub dropped: u64,
    /// Bundles held back for later rounds.
    pub delayed: u64,
    /// Bundles delivered twice.
    pub duplicated: u64,
    /// Messages clipped off over-cap bundles (truncate mode).
    pub truncated: u64,
    /// Messages sent to a non-neighbor and eaten by the faulty network
    /// (fault-free runs fail loudly with
    /// [`SimError::NotANeighbor`](crate::SimError) instead — see the
    /// fault-model notes in DESIGN.md §8).
    pub misrouted: u64,
    /// Node crash events (a recovered node crashing again counts each
    /// time). Bundles lost *because* an endpoint was down are counted in
    /// `dropped`.
    pub crashes: u64,
}

impl FaultCounters {
    /// Whether any fault event was counted.
    pub fn any(&self) -> bool {
        *self != FaultCounters::default()
    }

    /// Sum of all counted fault events.
    pub fn total(&self) -> u64 {
        self.dropped
            + self.delayed
            + self.duplicated
            + self.truncated
            + self.misrouted
            + self.crashes
    }

    /// Fold another counter set into this one.
    pub fn merge(&mut self, other: &FaultCounters) {
        self.dropped += other.dropped;
        self.delayed += other.delayed;
        self.duplicated += other.duplicated;
        self.truncated += other.truncated;
        self.misrouted += other.misrouted;
        self.crashes += other.crashes;
    }
}

/// The fate of one bundle, decided by [`FaultState::decide`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    /// Deliver this round, `copies` times (1 or 2).
    Deliver {
        /// Delivery multiplicity (2 when duplicated).
        copies: u32,
    },
    /// Lost in flight.
    Drop,
    /// Held back until `due`, then delivered `copies` times.
    Delay {
        /// Round the bundle becomes deliverable.
        due: u64,
        /// Delivery multiplicity (2 when duplicated).
        copies: u32,
    },
}

/// One held-back bundle: the merged messages of a directed edge's round,
/// tagged with the round they were sent in.
struct Held<M> {
    /// Round at which the bundle becomes deliverable.
    due: u64,
    /// Round the bundle was originally sent (diagnostics / ordering).
    sent: u64,
    /// Delivery multiplicity.
    copies: u32,
    msgs: Vec<M>,
}

/// Per-run fault-injection state: the decision key plus the holdback
/// queues. Built once per engine run when the plan
/// [`is_active`](FaultPlan::is_active); its absence *is* the fault-free
/// fast path.
///
/// Concurrency: `held` is keyed by receiver-side CSR edge id and
/// `pending`/`perturbed` by receiver id, so routing workers touch only
/// the cells of their own disjoint receiver ranges — exactly the
/// [`PlaneCell`] protocol of the slot arrays (see `crate::plane`).
pub(crate) struct FaultState<M> {
    plan: FaultPlan,
    /// Decision key: `mix3(pass seed, salt, STREAM_FAULT)`.
    key: u64,
    /// Crash decision key: `mix3(pass seed, salt, STREAM_CRASH)` — its
    /// own stream, so crash fates never collide with bundle fates.
    crash_key: u64,
    /// Holdback queue per receiver-side directed-edge id, due-round
    /// ascending by construction (bundles are pushed in send-round order
    /// with non-negative delays... not necessarily sorted, so delivery
    /// scans the whole queue; queues are tiny in practice).
    held: Vec<PlaneCell<Vec<Held<M>>>>,
    /// Per receiver: number of bundles currently held back across its
    /// in-edges (lets routing visit a receiver that has no mail this
    /// round but has deliveries pending).
    pending: Vec<PlaneCell<u32>>,
    /// Per receiver: whether any inbound bundle was dropped, delayed, or
    /// truncated this run — the "starved inbox" sentinel collected into
    /// [`RunReport::starved`](crate::RunReport::starved).
    perturbed: Vec<PlaneCell<bool>>,
    /// Per node: first round at which the node will be back up. `0` =
    /// up (never crashed or already recovered into this value's past),
    /// `u64::MAX` = crash-stop. Written only by the node's owner during
    /// the step phase ([`FaultState::advance_crashes`]); cross-shard
    /// routing reads happen after the following barrier.
    down_until: Vec<PlaneCell<u64>>,
    /// Per node: round of the node's *first* crash (`u64::MAX` = never
    /// crashed). Owner-written alongside `down_until`.
    crash_round: Vec<PlaneCell<u64>>,
    /// Per node: crash events this run (recovered nodes can crash
    /// again). Owner-written; summed by the coordinator at run end.
    crash_events: Vec<PlaneCell<u32>>,
}

impl<M: Message> FaultState<M> {
    /// Fault state for one run of `graph` under `plan`, keyed by the
    /// run's pass seed.
    pub(crate) fn new(plan: FaultPlan, seed: u64, graph: &Graph) -> Self {
        let m = graph.adjacency().len();
        let n = graph.n();
        FaultState {
            plan,
            key: mix3(seed, plan.salt, STREAM_FAULT),
            crash_key: mix3(seed, plan.salt, STREAM_CRASH),
            held: (0..m).map(|_| PlaneCell::new(Vec::new())).collect(),
            pending: (0..n).map(|_| PlaneCell::new(0)).collect(),
            perturbed: (0..n).map(|_| PlaneCell::new(false)).collect(),
            down_until: (0..n).map(|_| PlaneCell::new(0)).collect(),
            crash_round: (0..n).map(|_| PlaneCell::new(u64::MAX)).collect(),
            crash_events: (0..n).map(|_| PlaneCell::new(0)).collect(),
        }
    }

    /// Whether this plan injects node crashes at all. `false` keeps every
    /// crash hook on its zero-cost path (one branch per phase).
    pub(crate) fn has_crashes(&self) -> bool {
        self.plan.crash_q > 0
    }

    /// Advance the crash state machine of every node in `lo..hi` for
    /// `round`. Called by the range's owner at the top of the step phase
    /// — over **all** owned nodes, frontier or not — so a node's fate
    /// sequence is a pure function of `(crash key, node, round)` whatever
    /// the shard/thread/engine geometry.
    pub(crate) fn advance_crashes(&self, lo: usize, hi: usize, round: u64) {
        if !self.has_crashes() {
            return;
        }
        for v in lo..hi {
            // SAFETY: owner-exclusive cells during the step phase (the
            // same exclusivity the step writes to this range rely on).
            let du = unsafe { &mut *self.down_until[v].get() };
            if *du == u64::MAX || round < *du {
                continue; // still down
            }
            let h = mix3(self.crash_key, v as u64, round);
            if (h & 0xFFFF) < u64::from(self.plan.crash_q) {
                // SAFETY: owner-exclusive cells (see above).
                unsafe {
                    let cr = &mut *self.crash_round[v].get();
                    if *cr == u64::MAX {
                        *cr = round;
                    }
                    *self.crash_events[v].get() += 1;
                }
                *du = if self.plan.crash_recovery == 0 {
                    u64::MAX
                } else {
                    round
                        + 1
                        + bounded(
                            mix2(h, STREAM_CRASH_DELAY),
                            u64::from(self.plan.crash_recovery),
                        )
                };
            }
        }
    }

    /// Whether node `v` is down (crashed and not yet recovered) at
    /// `round`. The cell is written only by `v`'s owner during the step
    /// phase; same-phase reads come from that owner, and cross-shard
    /// routing reads happen after the following barrier.
    pub(crate) fn is_down(&self, v: usize, round: u64) -> bool {
        // SAFETY: barrier-ordered read (see above).
        let du = unsafe { *self.down_until[v].get() };
        du == u64::MAX || round < du
    }

    /// Whether the modeled crash fires this round. Checked by every
    /// engine at the top of its round loop (after the termination and
    /// round-cap checks), on the coordinator only — thread-independent by
    /// construction.
    pub(crate) fn abort_round(&self, round: u64) -> bool {
        self.plan.abort_q > 0
            && (mix3(self.key, STREAM_ABORT, round) & 0xFFFF) < u64::from(self.plan.abort_q)
    }

    /// The fate of the bundle `(from → to, round)` — a pure function of
    /// the key and those coordinates. Because the key is the directed
    /// edge itself (never a worker, shard, or chunk index), fates are
    /// invariant under the session engine's ownership sharding: the same
    /// bundle meets the same fate whichever shards own its sender and its
    /// receiver.
    fn decide(&self, from: NodeId, to: NodeId, round: u64) -> Decision {
        let edge = (u64::from(from) << 32) | u64::from(to);
        let h = mix3(self.key, edge, round);
        if (h & 0xFFFF) < u64::from(self.plan.drop_q) {
            return Decision::Drop;
        }
        let copies = if ((h >> 32) & 0xFFFF) < u64::from(self.plan.dup_q) {
            2
        } else {
            1
        };
        if ((h >> 16) & 0xFFFF) < u64::from(self.plan.delay_q) {
            let span = u64::from(self.plan.max_delay.max(1));
            let delay = 1 + bounded(mix2(h, STREAM_DELAY), span);
            return Decision::Delay {
                due: round + delay,
                copies,
            };
        }
        Decision::Deliver { copies }
    }

    /// Whether receiver `v` has bundles held back on any in-edge.
    ///
    /// SAFETY-wise this is a plain read of a receiver-owned cell: callers
    /// must hold routing-phase exclusivity over `v` (the same contract as
    /// the slot arrays).
    pub(crate) fn has_pending(&self, v: usize) -> bool {
        // SAFETY: receiver-owned cell, caller holds the routing-phase
        // exclusivity over `v` (see above).
        unsafe { *self.pending[v].get() > 0 }
    }

    /// Raise receiver `v`'s starved-inbox sentinel. Same exclusivity
    /// contract as [`FaultState::has_pending`].
    fn mark_perturbed(&self, v: usize) {
        // SAFETY: receiver-owned cell (see has_pending).
        unsafe { *self.perturbed[v].get() = true };
    }

    /// Queue a bundle on edge `e` (receiver `v`'s in-edge) for delivery
    /// at `due`. Same exclusivity contract as [`FaultState::has_pending`].
    fn hold(&self, e: usize, v: usize, round: u64, due: u64, copies: u32, msgs: Vec<M>) {
        // SAFETY: edge e belongs to receiver v's contiguous in-slot
        // range; the caller holds routing-phase exclusivity over v.
        unsafe {
            (*self.held[e].get()).push(Held {
                due,
                sent: round,
                copies,
                msgs,
            });
            *self.pending[v].get() += 1;
        }
    }

    /// Deliver every due bundle of edge `e` (sender `u`, receiver `v`)
    /// into `inbox`.
    ///
    /// **Ordering contract.** Bundles are delivered in queue *insertion*
    /// order, which is ascending send-round order by construction (each
    /// send round pushes at most one bundle per edge, and a bundle is
    /// only ever pushed in its own send round). This pin holds however
    /// delay, duplication, and schedule adversaries compose on the edge:
    /// when several bundles with interleaved due rounds fall due
    /// together, the *earlier send* is delivered first, a duplicated
    /// bundle's copies are adjacent, and — because the queue cell is
    /// owned by the receiver's routing shard and touched by exactly one
    /// worker per phase — the order can never depend on worker or shard
    /// count. The regression test
    /// `delivery_order_is_pinned_under_composition` fails if any of this
    /// drifts.
    ///
    /// Under crash fates, a due bundle whose sender or receiver is down
    /// at its due round is **dropped** instead (counted in
    /// `faults.dropped`; a live receiver additionally gets its
    /// starvation sentinel raised). Same exclusivity contract as
    /// [`FaultState::has_pending`].
    pub(crate) fn deliver_due(
        &self,
        e: usize,
        u: NodeId,
        v: usize,
        round: u64,
        inbox: &mut Vec<(NodeId, M)>,
        faults: &mut FaultCounters,
    ) {
        // SAFETY: as in `hold`.
        let held = unsafe { &mut *self.held[e].get() };
        if held.is_empty() {
            return;
        }
        let crash_drop =
            self.has_crashes() && (self.is_down(v, round) || self.is_down(u as usize, round));
        let receiver_live = !self.has_crashes() || !self.is_down(v, round);
        let mut delivered = 0u32;
        let mut crash_dropped = 0u64;
        held.retain_mut(|h| {
            if h.due > round {
                return true;
            }
            // Only delayed bundles are held, so each is from the past.
            debug_assert!(h.sent < round, "a held bundle arrives after its send round");
            delivered += 1;
            if crash_drop {
                crash_dropped += 1;
                return false;
            }
            for _ in 0..h.copies {
                inbox.extend(h.msgs.iter().map(|m| (u, m.clone())));
            }
            false
        });
        if delivered > 0 {
            // SAFETY: receiver-owned cell (see has_pending).
            unsafe { *self.pending[v].get() -= delivered };
        }
        if crash_dropped > 0 {
            faults.dropped += crash_dropped;
            if receiver_live {
                self.mark_perturbed(v);
            }
        }
    }

    /// Whether the plan clips over-cap bundles instead of failing a
    /// strict run ([`FaultPlan::truncate`]).
    pub(crate) fn truncates(&self) -> bool {
        self.plan.truncate
    }

    /// Clip the bundle `inbox[start..]` into receiver `v`, which carries
    /// more than `cap` bits, to its longest prefix within `cap`: count the
    /// clipped messages, raise `v`'s sentinel, and return the bits kept.
    /// Same exclusivity contract as [`FaultState::has_pending`].
    pub(crate) fn clip(
        &self,
        inbox: &mut Vec<(NodeId, M)>,
        start: usize,
        cap: u64,
        v: usize,
        faults: &mut FaultCounters,
    ) -> u64 {
        let mut kept_bits = 0u64;
        let mut keep = start;
        for (_, m) in &inbox[start..] {
            let c = m.bit_cost();
            if kept_bits + c > cap {
                break;
            }
            kept_bits += c;
            keep += 1;
        }
        faults.truncated += (inbox.len() - keep) as u64;
        inbox.truncate(keep);
        self.mark_perturbed(v);
        kept_bits
    }

    /// Settle the fate of the bundle `inbox[start..]` that its sender put
    /// on in-edge `e` of receiver `v` this round, after routing billed it:
    /// a down receiver loses it; otherwise [`FaultState::decide`] drops
    /// it, holds it back until its due round, or leaves it delivered, with
    /// a second copy after it when duplicated. Same exclusivity contract
    /// as [`FaultState::has_pending`].
    pub(crate) fn settle(
        &self,
        inbox: &mut Vec<(NodeId, M)>,
        start: usize,
        e: usize,
        v: usize,
        round: u64,
        faults: &mut FaultCounters,
    ) {
        // A bundle truncated to nothing has no fate to meet.
        let Some(&(u, _)) = inbox.get(start) else {
            return;
        };
        if self.has_crashes() && self.is_down(v, round) {
            // A down receiver loses every inbound bundle — the bits
            // already occupied the channel, the payload lands nowhere.
            // No dice are rolled (decide is stateless, so skipping it
            // perturbs no other fate) and no sentinel is raised (the
            // node is dead, not starved).
            faults.dropped += 1;
            inbox.truncate(start);
            return;
        }
        match self.decide(u, v as NodeId, round) {
            Decision::Drop => {
                faults.dropped += 1;
                self.mark_perturbed(v);
                inbox.truncate(start);
            }
            Decision::Delay { due, copies } => {
                faults.delayed += 1;
                if copies > 1 {
                    faults.duplicated += 1;
                }
                let msgs = inbox.drain(start..).map(|(_, m)| m).collect();
                self.hold(e, v, round, due, copies, msgs);
                self.mark_perturbed(v);
            }
            Decision::Deliver { copies } => {
                if copies > 1 {
                    faults.duplicated += 1;
                    inbox.extend_from_within(start..);
                }
            }
        }
    }

    /// The sorted list of receivers whose inbound traffic was perturbed
    /// (dropped/delayed/truncated) during the run — collected by the
    /// coordinator after the last routing phase.
    pub(crate) fn collect_starved(&self) -> Vec<NodeId> {
        self.perturbed
            .iter()
            .enumerate()
            // SAFETY: coordinator-only read after every routing worker
            // has passed its phase barrier.
            .filter(|(_, cell)| unsafe { *cell.get() })
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// The sorted list of nodes that crashed at least once this run —
    /// collected by the coordinator after the round loop, like
    /// [`FaultState::collect_starved`].
    pub(crate) fn collect_crashed(&self) -> Vec<NodeId> {
        self.crash_round
            .iter()
            .enumerate()
            // SAFETY: coordinator-only read after the last phase barrier.
            .filter(|(_, cell)| unsafe { *cell.get() } != u64::MAX)
            .map(|(v, _)| v as NodeId)
            .collect()
    }

    /// Total crash events this run (coordinator-only, after the round
    /// loop).
    pub(crate) fn crash_event_total(&self) -> u64 {
        self.crash_events
            .iter()
            // SAFETY: coordinator-only read after the last phase barrier.
            .map(|cell| u64::from(unsafe { *cell.get() }))
            .sum()
    }

    /// The fail-fast verdicts a plan opts into, evaluated by the
    /// coordinator when the round loop ends (`end_round` = rounds
    /// executed): the earliest crash under
    /// [`FaultPlan::crash_fatal`] surfaces as [`SimError::NodeCrashed`];
    /// a final live count under [`FaultPlan::min_live`] surfaces as
    /// [`SimError::QuorumLost`]. Evaluated sequentially over per-node
    /// state, so it is identical in every geometry by construction.
    pub(crate) fn crash_outcome(&self, end_round: u64) -> Result<(), SimError> {
        if !self.has_crashes() {
            return Ok(());
        }
        if self.plan.crash_fatal {
            let first = self
                .crash_round
                .iter()
                .enumerate()
                // SAFETY: coordinator-only read after the last barrier.
                .map(|(v, cell)| (unsafe { *cell.get() }, v as NodeId))
                .min()
                .filter(|&(round, _)| round != u64::MAX);
            if let Some((round, node)) = first {
                return Err(SimError::NodeCrashed { node, round });
            }
        }
        if self.plan.min_live > 0 {
            let live = (0..self.down_until.len())
                .filter(|&v| !self.is_down(v, end_round))
                .count() as u64;
            if live < u64::from(self.plan.min_live) {
                return Err(SimError::QuorumLost {
                    live,
                    quorum: u64::from(self.plan.min_live),
                    round: end_round,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphs::gen;

    #[test]
    fn none_is_inactive_and_constructors_activate() {
        assert!(!FaultPlan::none().is_active());
        assert!(!FaultPlan::default().is_active());
        assert!(FaultPlan::lossy(0.1).is_active());
        assert!(FaultPlan::none().with_delay(0.5, 3).is_active());
        assert!(FaultPlan::none().with_dup(0.2).is_active());
        assert!(FaultPlan::none().with_abort(0.01).is_active());
        assert!(FaultPlan::none().with_truncate().is_active());
        // Zero-rate constructors stay inactive.
        assert!(!FaultPlan::lossy(0.0).is_active());
    }

    #[test]
    fn quantize_clamps_and_scales() {
        assert_eq!(FaultPlan::quantize(0.0), 0);
        assert_eq!(FaultPlan::quantize(1.0), FaultPlan::ALWAYS);
        assert_eq!(FaultPlan::quantize(2.0), FaultPlan::ALWAYS);
        assert_eq!(FaultPlan::quantize(-1.0), 0);
        assert_eq!(FaultPlan::quantize(0.5), FaultPlan::ALWAYS / 2);
    }

    #[test]
    fn decisions_are_deterministic_and_extremes_are_certain() {
        let g = gen::cycle(8);
        let always_drop: FaultState<()> = FaultState::new(
            FaultPlan {
                drop_q: FaultPlan::ALWAYS,
                ..FaultPlan::none()
            },
            7,
            &g,
        );
        let never: FaultState<()> = FaultState::new(FaultPlan::lossy(0.0), 7, &g);
        for round in 0..50 {
            assert_eq!(always_drop.decide(0, 1, round), Decision::Drop);
            assert_eq!(never.decide(0, 1, round), Decision::Deliver { copies: 1 });
        }
        // Same (seed, plan) ⇒ same stream; different salt ⇒ (statistically)
        // a different one.
        let a: FaultState<()> = FaultState::new(FaultPlan::lossy(0.5), 7, &g);
        let b: FaultState<()> = FaultState::new(FaultPlan::lossy(0.5), 7, &g);
        let c: FaultState<()> = FaultState::new(FaultPlan::lossy(0.5).resalted(1), 7, &g);
        let stream = |s: &FaultState<()>| {
            (0..200)
                .map(|r| s.decide(1, 2, r) == Decision::Drop)
                .collect::<Vec<_>>()
        };
        assert_eq!(stream(&a), stream(&b));
        assert_ne!(stream(&a), stream(&c));
    }

    #[test]
    fn delay_draws_stay_in_declared_span() {
        let g = gen::complete(4);
        let plan = FaultPlan::none().with_delay(1.0, 3);
        let state: FaultState<()> = FaultState::new(plan, 11, &g);
        for round in 0..200 {
            match state.decide(2, 3, round) {
                Decision::Delay { due, .. } => {
                    assert!(due > round && due <= round + 3, "due {due} round {round}");
                }
                other => panic!("delay_q=ALWAYS must delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn abort_stream_matches_probability_extremes() {
        let g = gen::cycle(4);
        let always: FaultState<()> = FaultState::new(FaultPlan::none().with_abort(1.0), 3, &g);
        let never: FaultState<()> = FaultState::new(FaultPlan::lossy(0.5), 3, &g);
        for r in 0..100 {
            assert!(always.abort_round(r));
            assert!(!never.abort_round(r));
        }
    }

    #[derive(Clone, Copy, Debug, PartialEq)]
    struct Byte(u8);
    impl Message for Byte {
        fn bit_cost(&self) -> u64 {
            8
        }
    }

    #[test]
    fn holdback_queue_orders_and_counts() {
        let g = gen::path(3); // 0-1-2; edge ids: offsets[1] is node 1's in-slots
        let state: FaultState<Byte> = FaultState::new(FaultPlan::lossy(0.5), 1, &g);
        let offsets = g.offsets();
        // Node 1's in-edge from node 0 is position 0 of its neighbor list.
        let e = offsets[1];
        assert!(!state.has_pending(1));
        state.hold(e, 1, 0, 2, 1, vec![Byte(10), Byte(11)]);
        state.hold(e, 1, 1, 3, 2, vec![Byte(12)]);
        assert!(state.has_pending(1));
        let mut inbox = Vec::new();
        let mut faults = FaultCounters::default();
        state.deliver_due(e, 0, 1, 1, &mut inbox, &mut faults);
        assert!(inbox.is_empty(), "nothing due before round 2");
        state.deliver_due(e, 0, 1, 2, &mut inbox, &mut faults);
        assert_eq!(inbox, vec![(0, Byte(10)), (0, Byte(11))]);
        assert!(state.has_pending(1), "round-3 bundle still held");
        state.deliver_due(e, 0, 1, 3, &mut inbox, &mut faults);
        // The duplicated bundle arrives twice, after the earlier one.
        assert_eq!(
            inbox,
            vec![(0, Byte(10)), (0, Byte(11)), (0, Byte(12)), (0, Byte(12))]
        );
        assert!(!state.has_pending(1));
        assert_eq!(faults, FaultCounters::default(), "no crash, no drops");
    }

    /// Records its whole inbox, in delivery order, every round — the
    /// transcript that pins holdback-queue ordering.
    struct Recorder {
        rounds: u64,
        log: Vec<(u64, NodeId, u8)>,
        done: bool,
    }

    impl crate::Program for Recorder {
        type Msg = Byte;
        fn on_round(&mut self, ctx: &mut crate::Ctx<'_, Byte>) {
            let round = ctx.round();
            for (from, m) in ctx.inbox() {
                self.log.push((round, from, m.0));
            }
            if round < self.rounds {
                ctx.broadcast(Byte((u64::from(ctx.id()) + round) as u8));
            } else {
                self.done = true;
            }
        }
        fn is_done(&self) -> bool {
            self.done
        }
    }

    /// Satellite regression (PR 10): the [`FaultState::deliver_due`]
    /// ordering contract under composed delay + dup + schedule
    /// adversaries. Two pins: (a) bundles with interleaved due rounds on
    /// one edge deliver in send order, duplicates adjacent; (b) whole
    /// inbox transcripts are byte-identical across worker and shard
    /// counts — delivery order may never depend on the geometry.
    #[test]
    fn delivery_order_is_pinned_under_composition() {
        // (a) Direct pin, interleaved dues on one edge: sent 0 due 4,
        // sent 1 due 3, sent 2 due 4 duplicated.
        let g = gen::path(3);
        let state: FaultState<Byte> = FaultState::new(FaultPlan::lossy(0.0), 1, &g);
        let e = g.offsets()[1];
        state.hold(e, 1, 0, 4, 1, vec![Byte(0)]);
        state.hold(e, 1, 1, 3, 1, vec![Byte(1)]);
        state.hold(e, 1, 2, 4, 2, vec![Byte(2)]);
        let mut inbox = Vec::new();
        let mut faults = FaultCounters::default();
        state.deliver_due(e, 0, 1, 3, &mut inbox, &mut faults);
        assert_eq!(inbox, vec![(0, Byte(1))], "only the round-1 send is due");
        state.deliver_due(e, 0, 1, 4, &mut inbox, &mut faults);
        assert_eq!(
            inbox,
            vec![(0, Byte(1)), (0, Byte(0)), (0, Byte(2)), (0, Byte(2))],
            "due round 4 delivers in send order (0 then 2), copies adjacent"
        );
        assert!(!state.has_pending(1));

        // (b) Geometry pin: delay × dup × an active schedule plan, full
        // inbox transcripts identical for every worker and shard count.
        use crate::{SchedulePlan, Session, SimConfig};
        let g = gen::gnp(300, 0.03, 19);
        let n = g.n();
        let plan = FaultPlan::lossy(0.05).with_delay(0.25, 4).with_dup(0.15);
        let sched = SchedulePlan::jittery(0.3, 3).with_antififo(0.3, 4);
        let mut anchor: Option<Vec<Vec<(u64, NodeId, u8)>>> = None;
        for shards in [0usize, 1, 4, 8] {
            for threads in [1usize, 8] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    fault: plan,
                    sched,
                    ..SimConfig::default()
                };
                let mut session: Session<'_, Byte> = Session::new(&g, cfg);
                let mut programs: Vec<Recorder> = (0..n)
                    .map(|_| Recorder {
                        rounds: 12,
                        log: Vec::new(),
                        done: false,
                    })
                    .collect();
                let report = session.run(&mut programs, 29).expect("faulty run");
                assert!(report.faults.delayed > 0, "the plan must actually delay");
                assert!(report.faults.duplicated > 0, "the plan must duplicate");
                let logs: Vec<_> = programs.into_iter().map(|p| p.log).collect();
                match &anchor {
                    None => anchor = Some(logs),
                    Some(a) => assert_eq!(
                        *a, logs,
                        "delivery order depends on shards={shards} threads={threads}"
                    ),
                }
            }
        }
    }

    /// Crash fates: the per-node state machine is deterministic, extreme
    /// rates are certain, crash-stop never recovers, and crash-recovery
    /// stays inside its declared window.
    #[test]
    fn crash_fates_are_deterministic_and_bounded() {
        let g = gen::cycle(16);
        let stop: FaultState<()> = FaultState::new(FaultPlan::none().with_crashes(1.0, 0), 5, &g);
        stop.advance_crashes(0, 16, 0);
        for v in 0..16 {
            assert!(stop.is_down(v, 0), "rate 1.0 must crash node {v}");
            assert!(stop.is_down(v, 400), "crash-stop never recovers");
        }
        assert_eq!(stop.collect_crashed().len(), 16);
        assert_eq!(stop.crash_event_total(), 16);

        let never: FaultState<()> = FaultState::new(FaultPlan::none().with_crashes(0.0, 0), 5, &g);
        assert!(!never.has_crashes());
        for r in 0..50 {
            never.advance_crashes(0, 16, r);
        }
        assert!(never.collect_crashed().is_empty());

        // Recovery window: a node down at round r is up again within
        // 1..=k rounds, and the fate stream replays exactly.
        let rec = FaultPlan::none().with_crashes(1.0, 3);
        let a: FaultState<()> = FaultState::new(rec, 9, &g);
        let b: FaultState<()> = FaultState::new(rec, 9, &g);
        let mut downs_a = Vec::new();
        let mut downs_b = Vec::new();
        for r in 0..60 {
            a.advance_crashes(0, 16, r);
            b.advance_crashes(0, 16, r);
            downs_a.push((0..16).map(|v| a.is_down(v, r)).collect::<Vec<_>>());
            downs_b.push((0..16).map(|v| b.is_down(v, r)).collect::<Vec<_>>());
        }
        assert_eq!(downs_a, downs_b, "same (seed, plan) ⇒ same fates");
        // At rate 1.0 with recovery, a node crashes the moment it is up,
        // so it must be down at round 0 and up again within 3 rounds of
        // every crash (i.e. some later round sees it up... then down
        // again immediately; just check the window bound via down_until).
        assert!(downs_a[0].iter().all(|&d| d), "rate 1.0 downs everyone");
        assert!(a.crash_event_total() >= 16, "recovered nodes re-crash");

        // Different salts draw (statistically) different fates: compare
        // the full down matrices, not the crashed sets (at this rate over
        // 30 rounds everyone crashes eventually under either salt).
        let half = FaultPlan::none().with_crashes(0.5, 0);
        let c: FaultState<()> = FaultState::new(half, 9, &g);
        let d: FaultState<()> = FaultState::new(half.resalted(1), 9, &g);
        let mut downs_c = Vec::new();
        let mut downs_d = Vec::new();
        for r in 0..30 {
            c.advance_crashes(0, 16, r);
            d.advance_crashes(0, 16, r);
            downs_c.push((0..16).map(|v| c.is_down(v, r)).collect::<Vec<_>>());
            downs_d.push((0..16).map(|v| d.is_down(v, r)).collect::<Vec<_>>());
        }
        assert_ne!(downs_c, downs_d, "resalted plans must re-roll crash dice");
    }

    /// The opt-in fail-fast verdicts: `crash_fatal` surfaces the
    /// earliest crash, `min_live` surfaces a lost quorum, and a plan
    /// without them reports Ok whatever crashed.
    #[test]
    fn crash_outcome_verdicts() {
        let g = gen::cycle(8);
        let plain: FaultState<()> = FaultState::new(FaultPlan::none().with_crashes(1.0, 0), 3, &g);
        plain.advance_crashes(0, 8, 0);
        assert_eq!(plain.crash_outcome(1), Ok(()));

        let fatal: FaultState<()> = FaultState::new(
            FaultPlan::none().with_crashes(1.0, 0).with_fatal_crashes(),
            3,
            &g,
        );
        fatal.advance_crashes(0, 8, 0);
        assert!(matches!(
            fatal.crash_outcome(1),
            Err(SimError::NodeCrashed { round: 0, .. })
        ));

        let quorum: FaultState<()> =
            FaultState::new(FaultPlan::none().with_crashes(1.0, 0).with_quorum(5), 3, &g);
        quorum.advance_crashes(0, 8, 0);
        assert_eq!(
            quorum.crash_outcome(1),
            Err(SimError::QuorumLost {
                live: 0,
                quorum: 5,
                round: 1
            })
        );
        // A quorum the run keeps is no error.
        let kept: FaultState<()> =
            FaultState::new(FaultPlan::none().with_crashes(0.0, 0).with_quorum(5), 3, &g);
        assert_eq!(kept.crash_outcome(1), Ok(()));
    }

    /// Crash-aware delivery: a held bundle due while its sender is down
    /// is dropped and the (live) receiver's starvation sentinel fires; a
    /// down receiver loses the bundle without a sentinel.
    #[test]
    fn due_bundles_drop_when_an_endpoint_is_down() {
        let g = gen::path(3); // 0-1-2
        let plan = FaultPlan::none().with_crashes(1.0, 0);
        let state: FaultState<Byte> = FaultState::new(plan, 1, &g);
        let e = g.offsets()[1]; // node 1's in-edge from node 0
        state.hold(e, 1, 0, 2, 1, vec![Byte(7)]);
        // Crash everyone at round 1 (rate 1.0).
        state.advance_crashes(0, 3, 1);
        let mut inbox = Vec::new();
        let mut faults = FaultCounters::default();
        state.deliver_due(e, 0, 1, 2, &mut inbox, &mut faults);
        assert!(inbox.is_empty(), "both endpoints down: bundle lost");
        assert_eq!(faults.dropped, 1);
        assert!(!state.has_pending(1));
        assert!(
            !state.collect_starved().contains(&1),
            "a dead receiver is not 'starved'"
        );
    }

    /// Fault fates key on the directed edge, so every shard × worker
    /// geometry sees the identical fault stream: counters, starved
    /// sentinels, and program state all match the unsharded run.
    #[test]
    fn fault_fates_are_shard_invariant() {
        use crate::engine::tests::min_flood_programs;
        use crate::{Session, SimConfig};
        let g = gen::gnp(300, 0.03, 19);
        let plan = FaultPlan::lossy(0.10).with_delay(0.15, 3).with_dup(0.10);
        let mut anchor = None;
        for shards in [0usize, 1, 4, 8] {
            for threads in [1usize, 8] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    fault: plan,
                    ..SimConfig::default()
                };
                let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
                let mut programs = min_flood_programs(300);
                let report = session.run(&mut programs, 29).expect("faulty run");
                assert!(report.faults.any(), "the plan must actually perturb");
                let mins: Vec<_> = programs.iter().map(|p| p.min).collect();
                match &anchor {
                    None => anchor = Some((report, mins)),
                    Some((r, m)) => {
                        assert_eq!(r, &report, "shards {shards} threads {threads}");
                        assert_eq!(m, &mins, "shards {shards} threads {threads}");
                    }
                }
            }
        }
    }

    /// Crash fates key on the node (not the shard or worker), so every
    /// shard × worker geometry sees identical crash fates: counters,
    /// crashed sets, and program state all match the unsharded run.
    #[test]
    fn crash_fates_are_shard_invariant() {
        use crate::engine::tests::min_flood_programs;
        use crate::{Session, SimConfig};
        let g = gen::gnp(300, 0.03, 19);
        let plan = FaultPlan::none().with_crashes(0.002, 4).with_delay(0.10, 2);
        let mut anchor = None;
        for shards in [0usize, 1, 4, 8] {
            for threads in [1usize, 8] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    fault: plan,
                    ..SimConfig::default()
                };
                let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
                let mut programs = min_flood_programs(300);
                let report = session.run(&mut programs, 31).expect("crashy run");
                assert!(report.faults.crashes > 0, "the plan must actually crash");
                assert!(!report.crashed.is_empty());
                let mins: Vec<_> = programs.iter().map(|p| p.min).collect();
                match &anchor {
                    None => anchor = Some((report, mins)),
                    Some((r, m)) => {
                        assert_eq!(r, &report, "shards {shards} threads {threads}");
                        assert_eq!(m, &mins, "shards {shards} threads {threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn counters_merge_and_total() {
        let mut a = FaultCounters {
            dropped: 1,
            delayed: 2,
            duplicated: 3,
            truncated: 4,
            misrouted: 5,
            crashes: 6,
        };
        assert!(a.any());
        assert_eq!(a.total(), 21);
        a.merge(&a.clone());
        assert_eq!(a.total(), 42);
        assert!(!FaultCounters::default().any());
    }
}
