//! Asynchronous execution under hostile schedules: deterministic
//! schedule adversaries and the α-synchronizer's virtual pulse clocks.
//!
//! The CONGEST engines in this crate execute perfectly lock-step
//! synchronous rounds. Real deployments do not: nodes step at different
//! rates and links hold messages for unbounded-but-finite spans, so a
//! correct asynchronous execution needs a *synchronizer* — here the
//! classic α-synchronizer: every bundle carries its sender's round tag,
//! every node emits an explicit empty-round pulse on edges it stays
//! silent on, and a node advances to round `r + 1` only once it has
//! absorbed round-`r` traffic (or the pulse) from every **live**
//! neighbor.
//!
//! Because the α-synchronizer is correctness-preserving, the adversary
//! controls only *when* things happen, never *what* is computed: the
//! synchronized transcript is byte-identical to the synchronous engine
//! under any [`SchedulePlan`] — the headline invariant the differential
//! batteries in `tests/prop_invariants.rs` pin. The engine therefore
//! models the adversary as deterministic **virtual pulse clocks** layered
//! on the synchronous round structure: `P[v][r]` is the virtual pulse at
//! which node `v` enters round `r`, advanced by the recursion
//!
//! ```text
//! P[v][0] = start_skew(v)
//! P[v][r] = burst(r) + max( P[v][r-1] + 1,
//!                           max over live in-neighbors u of
//!                               P[u][r-1] + 1 + skew(u→v, r-1) )
//! ```
//!
//! where `skew` folds the per-bundle jitter, per-node straggler, and
//! per-edge anti-FIFO adversaries, and `burst(r)` stalls the whole
//! network. Every fate is a stateless counter hash of
//! `(pass seed, plan salt, coordinates)` — exactly the [`FaultPlan`]
//! discipline — so a schedule never depends on message *content* or on
//! shard/thread geometry: timing is a pure function of the hashes, the
//! crash fates, and the graph. That is why the clocks live outside the
//! session's round loop: after a pass, [`replay`] runs the recursion
//! sequentially over the rounds the pass completed.
//!
//! Crash composition: a neighbor that is down at the delivery round
//! (the same [`FaultState::is_down`] query the holdback queue consults)
//! emits no pulse and is excluded from the gate, so a crashed neighbor
//! can never deadlock the synchronizer — the liveness half of the
//! argument in DESIGN.md §11. The watchdog half: when an adversary wedges
//! a node past the plan's [`patience`](SchedulePlan::patience), the run
//! fails loud with the non-transient
//! [`SimError::ScheduleStalled`](crate::SimError::ScheduleStalled) —
//! never silently wrong, never silently late. The stall outranks an
//! error of the round loop only when it falls in an earlier round.
//!
//! [`FaultPlan`]: crate::FaultPlan
//! [`FaultState::is_down`]: crate::fault::FaultState::is_down

use crate::engine::SimConfig;
use crate::error::SimError;
use crate::fault::FaultState;
use graphs::{Graph, NodeId};
use prand::mix::{bounded, mix2, mix3};

/// Fixed-point probability denominator, as in `fault.rs`: `q / 65536`.
const Q_ONE: u32 = 1 << 16;

/// Bits of one α-synchronizer pulse on one directed edge per simulated
/// round: a `u64` round tag (bundles piggyback it; silent edges carry it
/// as the explicit empty-round pulse).
pub const PULSE_TAG_BITS: u64 = 64;

/// Domain-separation tags for the schedule decision streams (disjoint
/// from the `0xFA17_*` fault streams).
const STREAM_SCHED: u64 = 0x5CED_0001;
const STREAM_SCHED_START: u64 = 0x5CED_0002;
const STREAM_SCHED_JITTER: u64 = 0x5CED_0003;
const STREAM_SCHED_STRAGGLER: u64 = 0x5CED_0004;
const STREAM_SCHED_EDGE: u64 = 0x5CED_0005;
const STREAM_SCHED_BURST: u64 = 0x5CED_0006;

/// A deterministic, seeded schedule adversary.
///
/// Probabilities are fixed-point with denominator 65536 (`q / 65536`),
/// so the plan stays `Copy + Eq + Hash` and rides inside
/// [`SimConfig`](crate::SimConfig) — and therefore inside a solve's memo
/// key — exactly like [`FaultPlan`](crate::FaultPlan). The default plan
/// is [`SchedulePlan::none`]: with it, the engines take their
/// synchronous fast paths untouched, bit for bit.
///
/// Any adversarial schedule is exactly reproducible from
/// `(pass seed, plan)`: the plan carries its own
/// [`salt`](SchedulePlan::salt) so retry layers can re-roll the schedule
/// stream while leaving protocol randomness untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SchedulePlan {
    /// Probability (`/65536`) that a bundle's delivery jitters by an
    /// extra `1..=max_jitter` pulses — the random-interleaving adversary.
    pub jitter_q: u32,
    /// Largest possible jitter, in pulses (treated as 1 when 0 but
    /// `jitter_q > 0`).
    pub max_jitter: u32,
    /// Probability (`/65536`), per node, that the node is a straggler:
    /// every bundle it sends arrives `straggler_lag` pulses late. A
    /// per-node fate — the same nodes straggle in every geometry.
    pub straggler_q: u32,
    /// Fixed lag of a straggler's sends, in pulses.
    pub straggler_lag: u32,
    /// Probability (`/65536`), per directed edge, that the edge delivers
    /// anti-FIFO: within windows of `antififo_window` rounds its skew
    /// *descends* twice as fast as rounds ascend, so later sends overtake
    /// earlier ones and arrivals invert.
    pub antififo_q: u32,
    /// Anti-FIFO window length, in rounds (treated as 2 when < 2 but
    /// `antififo_q > 0`).
    pub antififo_window: u32,
    /// Probability (`/65536`), per round, that the whole network stalls
    /// for an extra `1..=max_burst` pulses before anyone advances.
    pub burst_q: u32,
    /// Largest possible burst stall, in pulses (treated as 1 when 0 but
    /// `burst_q > 0`).
    pub max_burst: u32,
    /// Initial clock skew: node `v` starts round 0 at a virtual pulse
    /// drawn uniformly from `0..=start_spread`.
    pub start_spread: u32,
    /// Progress watchdog, in pulses: if any node waits more than this
    /// many pulses between consecutive rounds, the run fails with
    /// [`SimError::ScheduleStalled`](crate::SimError::ScheduleStalled).
    /// `0` disables the watchdog.
    pub patience: u32,
    /// Extra entropy mixed into every decision. Same `(seed, plan)` ⇒
    /// same schedule; bumping the salt re-rolls the schedule stream
    /// without touching protocol randomness.
    pub salt: u64,
}

impl Default for SchedulePlan {
    fn default() -> Self {
        SchedulePlan::none()
    }
}

impl SchedulePlan {
    /// The `q` value meaning "always" (probability 1).
    pub const ALWAYS: u32 = Q_ONE;

    /// The synchronous plan: every engine ignores the schedule layer
    /// entirely and runs its unmodified lock-step path.
    pub fn none() -> Self {
        SchedulePlan {
            jitter_q: 0,
            max_jitter: 0,
            straggler_q: 0,
            straggler_lag: 0,
            antififo_q: 0,
            antififo_window: 0,
            burst_q: 0,
            max_burst: 0,
            start_spread: 0,
            patience: 0,
            salt: 0,
        }
    }

    /// Quantize a probability in `[0, 1]` to the fixed-point `q` scale.
    pub fn quantize(rate: f64) -> u32 {
        let q = (rate.clamp(0.0, 1.0) * f64::from(Q_ONE)).round();
        (q as u32).min(Q_ONE)
    }

    /// A random-interleaving adversary: each bundle's delivery jitters
    /// by `1..=max_jitter` extra pulses with probability `rate`.
    pub fn jittery(rate: f64, max_jitter: u32) -> Self {
        SchedulePlan {
            jitter_q: Self::quantize(rate),
            max_jitter,
            ..SchedulePlan::none()
        }
    }

    /// Add straggler nodes: each node is, with probability `rate`, a
    /// straggler whose every send arrives `lag` pulses late.
    #[must_use]
    pub fn with_stragglers(mut self, rate: f64, lag: u32) -> Self {
        self.straggler_q = Self::quantize(rate);
        self.straggler_lag = lag;
        self
    }

    /// Add anti-FIFO edges: each directed edge is, with probability
    /// `rate`, adversarial — within windows of `window` rounds it
    /// delivers later sends before earlier ones.
    #[must_use]
    pub fn with_antififo(mut self, rate: f64, window: u32) -> Self {
        self.antififo_q = Self::quantize(rate);
        self.antififo_window = window;
        self
    }

    /// Add burst stalls: each round, with probability `rate`, the whole
    /// network freezes for an extra `1..=max_burst` pulses.
    #[must_use]
    pub fn with_bursts(mut self, rate: f64, max_burst: u32) -> Self {
        self.burst_q = Self::quantize(rate);
        self.max_burst = max_burst;
        self
    }

    /// Add initial clock skew: node starts are spread uniformly over
    /// `0..=spread` pulses.
    #[must_use]
    pub fn with_start_spread(mut self, spread: u32) -> Self {
        self.start_spread = spread;
        self
    }

    /// Arm the progress watchdog: a node waiting more than `patience`
    /// pulses between consecutive rounds fails the run with
    /// [`SimError::ScheduleStalled`](crate::SimError::ScheduleStalled).
    #[must_use]
    pub fn with_patience(mut self, patience: u32) -> Self {
        self.patience = patience;
        self
    }

    /// The same plan with `extra` folded into the salt — a different but
    /// equally deterministic schedule stream.
    #[must_use]
    pub fn resalted(mut self, extra: u64) -> Self {
        self.salt = self.salt.wrapping_add(extra);
        self
    }

    /// Whether this plan perturbs timing at all. `false` means the
    /// engines skip the synchronizer completely (the zero-overhead
    /// guarantee: a `SchedulePlan::none()` run is bit-for-bit the
    /// synchronous engine, counters and all).
    pub fn is_active(&self) -> bool {
        (self.jitter_q | self.straggler_q | self.antififo_q | self.burst_q | self.start_spread) > 0
    }
}

/// Per-run α-synchronizer overhead counters, surfaced through
/// [`RunReport`](crate::RunReport). All zero when
/// [`SchedulePlan::none`] leaves the synchronizer off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScheduleCounters {
    /// Virtual makespan: the pulse at which the last node completed its
    /// last round. The synchronous engine would take exactly `rounds`
    /// pulses; the ratio `pulses / rounds` is the adversary's slowdown.
    pub pulses: u64,
    /// Largest wait any node endured between consecutive rounds, in
    /// pulses (0 under a lock-step schedule).
    pub max_wait: u64,
    /// Arrival inversions observed: per-in-edge instances of a bundle
    /// arriving at an earlier virtual pulse than its predecessor — the
    /// anti-FIFO adversary's signature.
    pub reordered: u64,
    /// Synchronizer traffic: round-tag/empty-round-pulse bits carried on
    /// every directed edge, every simulated round
    /// (`rounds × directed edges ×` [`PULSE_TAG_BITS`]).
    pub sync_bits: u64,
}

impl ScheduleCounters {
    /// Whether any synchronizer work was counted.
    pub fn any(&self) -> bool {
        *self != ScheduleCounters::default()
    }

    /// Fold another run's counters into this one (sequential composition
    /// of passes): pulses, inversions, and sync bits add; the worst wait
    /// is the max. Commutative, so pass logs merge order-independently.
    pub fn merge(&mut self, other: &ScheduleCounters) {
        self.pulses += other.pulses;
        self.max_wait = self.max_wait.max(other.max_wait);
        self.reordered += other.reordered;
        self.sync_bits += other.sync_bits;
    }
}

/// The schedule adversary's fates for one pass: the plan plus its
/// decision keys, derived from the pass seed. Every fate is a stateless
/// counter hash of a key and its coordinates.
struct ScheduleFates {
    plan: SchedulePlan,
    /// Start-skew key: `mix2(mix3(seed, salt, STREAM_SCHED), START)`.
    start_key: u64,
    /// Per-bundle jitter key (its own stream).
    jitter_key: u64,
    /// Per-node straggler key.
    straggler_key: u64,
    /// Per-edge anti-FIFO key.
    edge_key: u64,
    /// Per-round burst key.
    burst_key: u64,
}

impl ScheduleFates {
    /// The fates of one pass under `plan`, keyed by its pass seed.
    fn new(plan: SchedulePlan, seed: u64) -> Self {
        let key = mix3(seed, plan.salt, STREAM_SCHED);
        ScheduleFates {
            plan,
            start_key: mix2(key, STREAM_SCHED_START),
            jitter_key: mix2(key, STREAM_SCHED_JITTER),
            straggler_key: mix2(key, STREAM_SCHED_STRAGGLER),
            edge_key: mix2(key, STREAM_SCHED_EDGE),
            burst_key: mix2(key, STREAM_SCHED_BURST),
        }
    }

    /// Node `v`'s initial clock skew, in `0..=start_spread` pulses.
    fn start_skew(&self, v: usize) -> u64 {
        if self.plan.start_spread == 0 {
            return 0;
        }
        bounded(
            mix2(self.start_key, v as u64),
            u64::from(self.plan.start_spread) + 1,
        )
    }

    /// The extra pulses the whole network stalls before advancing past
    /// round `round` (0 unless the burst fate fires).
    fn burst(&self, round: u64) -> u64 {
        if self.plan.burst_q == 0 {
            return 0;
        }
        let h = mix2(self.burst_key, round);
        if (h & 0xFFFF) < u64::from(self.plan.burst_q) {
            1 + bounded(
                mix2(h, STREAM_SCHED_BURST),
                u64::from(self.plan.max_burst.max(1)),
            )
        } else {
            0
        }
    }

    /// The delivery skew of the bundle (or empty-round pulse)
    /// `(u → v, round)`, in pulses past the lock-step arrival — a pure
    /// function of the keys and those coordinates, never of message
    /// content or engine geometry. Folds the jitter, straggler, and
    /// anti-FIFO adversaries.
    fn skew(&self, u: NodeId, v: NodeId, round: u64) -> u64 {
        let edge = (u64::from(u) << 32) | u64::from(v);
        let mut skew = 0u64;
        if self.plan.jitter_q > 0 {
            let h = mix3(self.jitter_key, edge, round);
            if (h & 0xFFFF) < u64::from(self.plan.jitter_q) {
                skew += 1 + bounded(
                    mix2(h, STREAM_SCHED_JITTER),
                    u64::from(self.plan.max_jitter.max(1)),
                );
            }
        }
        if self.plan.straggler_q > 0 {
            let h = mix2(self.straggler_key, u64::from(u));
            if (h & 0xFFFF) < u64::from(self.plan.straggler_q) {
                skew += u64::from(self.plan.straggler_lag);
            }
        }
        if self.plan.antififo_q > 0 {
            let h = mix2(self.edge_key, edge);
            if (h & 0xFFFF) < u64::from(self.plan.antififo_q) {
                // Descending twice as fast as rounds ascend: arrivals
                // within one window strictly invert (send round r lands
                // one pulse *after* send round r + 1).
                let w = u64::from(self.plan.antififo_window.max(2));
                skew += 2 * (w - 1 - round % w);
            }
        }
        skew
    }
}

/// Replay the α-synchronizer's pulse clocks over the first `rounds`
/// rounds of a pass run under `config` with pass seed `seed`, returning
/// the synchronizer's overhead counters or the watchdog's first stall:
/// the lowest stalled node of the earliest stalled round.
///
/// The clocks read only schedule fates, crash liveness and the round
/// count, never a message or a program state, so the session calls this
/// once after its round loop instead of advancing clocks inside it.
/// Crash liveness comes from a fresh [`FaultState`] for the same plan
/// and seed, advanced round by round through the crash API exactly as
/// the pass advanced its own. A neighbor that is down at a round emits
/// no pulse and never gates the advancement — the liveness half of the
/// crash-composition argument (DESIGN.md §11).
pub(crate) fn replay(
    config: SimConfig,
    seed: u64,
    graph: &Graph,
    rounds: u64,
) -> Result<ScheduleCounters, SimError> {
    if rounds == 0 {
        return Ok(ScheduleCounters::default());
    }
    let (plan, fault) = (config.sched, config.fault);
    let fates = ScheduleFates::new(plan, seed);
    let crashes = fault
        .is_active()
        .then(|| FaultState::<()>::new(fault, seed, graph))
        .filter(FaultState::has_crashes);
    let down = |v: usize, round: u64| crashes.as_ref().is_some_and(|f| f.is_down(v, round));
    let n = graph.n();
    let offsets = graph.offsets();
    let adj = graph.adjacency();
    // `clock[v]` is `P[v][r - 1]` while round `r` computes `next[v]`.
    let mut clock: Vec<u64> = (0..n).map(|v| fates.start_skew(v)).collect();
    let mut next = vec![0u64; n];
    // Per receiver-side directed-edge id: virtual arrival pulse of the
    // edge's most recent bundle, for counting anti-FIFO inversions
    // (0 = nothing arrived yet; real arrivals are ≥ 1).
    let mut last_arr = vec![0u64; adj.len()];
    let mut counters = ScheduleCounters {
        sync_bits: rounds * adj.len() as u64 * PULSE_TAG_BITS,
        ..ScheduleCounters::default()
    };
    for round in 0..rounds {
        if let Some(f) = &crashes {
            f.advance_crashes(0, n, round);
        }
        if round == 0 {
            continue; // round 0 starts at the skewed start pulses
        }
        let burst = fates.burst(round);
        for v in 0..n {
            let v_down = down(v, round);
            let mut pulse = clock[v] + 1;
            for (e, &u) in (offsets[v]..offsets[v + 1]).zip(&adj[offsets[v]..offsets[v + 1]]) {
                if down(u as usize, round) {
                    continue; // a down neighbor emits no pulse
                }
                let arrive = clock[u as usize] + 1 + fates.skew(u, v as NodeId, round - 1);
                if last_arr[e] > 0 && arrive < last_arr[e] {
                    counters.reordered += 1;
                }
                last_arr[e] = arrive;
                // A down receiver's clock still advances (the
                // synchronizer keeps pulsing on its behalf), but its
                // dropped deliveries never gate it.
                if !v_down {
                    pulse = pulse.max(arrive);
                }
            }
            pulse += burst;
            let wait = pulse - clock[v] - 1;
            if plan.patience > 0 && wait > u64::from(plan.patience) {
                return Err(SimError::ScheduleStalled {
                    node: v as NodeId,
                    round,
                    waited: wait,
                });
            }
            counters.max_wait = counters.max_wait.max(wait);
            next[v] = pulse;
        }
        std::mem::swap(&mut clock, &mut next);
    }
    // +1: the last round's own compute/delivery pulse.
    counters.pulses = clock.iter().copied().max().unwrap_or(0) + 1;
    Ok(counters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::min_flood_programs;
    use crate::session::Session;
    use crate::FaultPlan;
    use graphs::gen;

    #[test]
    fn quantize_clamps_and_scales() {
        assert_eq!(SchedulePlan::quantize(0.0), 0);
        assert_eq!(SchedulePlan::quantize(1.0), SchedulePlan::ALWAYS);
        assert_eq!(SchedulePlan::quantize(2.0), SchedulePlan::ALWAYS);
        assert_eq!(SchedulePlan::quantize(-1.0), 0);
        let half = SchedulePlan::quantize(0.5);
        assert!((half as i64 - (Q_ONE / 2) as i64).abs() <= 1);
    }

    #[test]
    fn none_is_inactive_and_default() {
        assert!(!SchedulePlan::none().is_active());
        assert_eq!(SchedulePlan::default(), SchedulePlan::none());
        // The watchdog alone perturbs nothing, so it activates nothing.
        assert!(!SchedulePlan::none().with_patience(4).is_active());
        for plan in [
            SchedulePlan::jittery(0.2, 3),
            SchedulePlan::none().with_stragglers(0.1, 5),
            SchedulePlan::none().with_antififo(0.3, 4),
            SchedulePlan::none().with_bursts(0.05, 8),
            SchedulePlan::none().with_start_spread(3),
        ] {
            assert!(plan.is_active(), "{plan:?} should be active");
        }
    }

    /// Fates are deterministic functions of their coordinates, extremes
    /// are certain, and re-salting changes the stream.
    #[test]
    fn fates_are_deterministic_and_extremes_are_certain() {
        let plan = SchedulePlan::jittery(1.0, 4)
            .with_stragglers(1.0, 7)
            .with_bursts(1.0, 2)
            .with_start_spread(5);
        let a = ScheduleFates::new(plan, 99);
        let b = ScheduleFates::new(plan, 99);
        for v in 0..40 {
            assert_eq!(a.start_skew(v), b.start_skew(v));
            assert!(a.start_skew(v) <= 5);
        }
        for round in 0..20u64 {
            assert_eq!(a.burst(round), b.burst(round));
            assert!((1..=2).contains(&a.burst(round)), "burst always fires");
            let s = a.skew(3, 5, round);
            assert_eq!(s, b.skew(3, 5, round));
            // Certain jitter (1..=4) + certain straggler lag (7).
            assert!((8..=11).contains(&s), "skew {s} out of range");
        }
        let zero = ScheduleFates::new(SchedulePlan::jittery(0.0, 4), 99);
        assert_eq!(zero.skew(3, 5, 0), 0);
        assert_eq!(zero.burst(0), 0);
        assert_eq!(zero.start_skew(0), 0);
        let resalted = ScheduleFates::new(plan.resalted(1), 99);
        let differs = (0..64u64).any(|r| resalted.skew(3, 5, r) != a.skew(3, 5, r));
        assert!(differs, "re-salting must re-roll the stream");
    }

    /// An always-on anti-FIFO edge inverts arrivals within every window:
    /// consecutive send rounds arrive in descending pulse order.
    #[test]
    fn antififo_skew_inverts_within_windows() {
        let plan = SchedulePlan::none().with_antififo(1.0, 4);
        let s = ScheduleFates::new(plan, 7);
        for r in 0..16u64 {
            if (r % 4) == 3 {
                continue; // window boundary
            }
            // Lock-step sender clocks: P[u][r] = r, arrival = r + 1 + skew.
            let a_r = r + 1 + s.skew(1, 2, r);
            let a_next = (r + 1) + 1 + s.skew(1, 2, r + 1);
            assert!(
                a_next < a_r,
                "round {} arrival {a_r} should overtake round {} arrival {a_next}",
                r + 1,
                r
            );
        }
    }

    /// The same schedule plan yields byte-identical runs across every
    /// shard × thread geometry, and `SchedulePlan::none()` is bit-for-bit
    /// the synchronous engine.
    #[test]
    fn schedule_fates_are_shard_invariant() {
        let g = gen::gnp(300, 0.03, 11);
        let plan = SchedulePlan::jittery(0.3, 3)
            .with_stragglers(0.1, 4)
            .with_antififo(0.2, 4)
            .with_start_spread(3);
        let base = SimConfig::default();
        let mut anchor = None;
        for shards in [0usize, 1, 4, 8] {
            for threads in [1usize, 8] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    sched: plan,
                    ..base
                };
                let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
                let mut programs = min_flood_programs(300);
                let report = session.run(&mut programs, 42).expect("run");
                assert!(report.sched.any(), "active plan must count overhead");
                let mins: Vec<u32> = programs.iter().map(|p| p.min).collect();
                let got = (report, mins);
                match &anchor {
                    None => anchor = Some(got),
                    Some(a) => assert_eq!(
                        *a, got,
                        "schedule diverged at shards={shards} threads={threads}"
                    ),
                }
            }
        }
        // Transcript identity vs the synchronous engine: same programs,
        // same rounds, only the sched counters differ.
        let (mut sched_report, sched_mins) = anchor.unwrap();
        let mut sync_session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, base);
        let mut programs = min_flood_programs(300);
        let sync_report = sync_session.run(&mut programs, 42).expect("run");
        let sync_mins: Vec<u32> = programs.iter().map(|p| p.min).collect();
        assert_eq!(sched_mins, sync_mins);
        assert!(!sync_report.sched.any());
        sched_report.sched = ScheduleCounters::default();
        assert_eq!(sched_report, sync_report);
    }

    /// A burst beyond the watchdog's patience wedges the run with
    /// `ScheduleStalled`, deterministically across geometries; raising
    /// the patience above the worst stall lets the same plan complete.
    #[test]
    fn watchdog_trips_on_wedged_schedules() {
        let g = gen::gnp(300, 0.03, 11);
        let wedged = SchedulePlan::none().with_bursts(1.0, 6).with_patience(2);
        let mut first = None;
        for shards in [0usize, 4, 8] {
            for threads in [1usize, 8] {
                let cfg = SimConfig {
                    threads,
                    shards,
                    sched: wedged,
                    ..SimConfig::default()
                };
                let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
                let mut programs = min_flood_programs(300);
                let err = session
                    .run(&mut programs, 42)
                    .expect_err("a wedged schedule must fail loud");
                assert!(
                    matches!(err, SimError::ScheduleStalled { .. }),
                    "unexpected error {err}"
                );
                assert!(!err.is_transient(), "stalls are deterministic");
                match &first {
                    None => first = Some(err),
                    Some(f) => assert_eq!(
                        *f, err,
                        "stall selection diverged at shards={shards} threads={threads}"
                    ),
                }
            }
        }
        // The same adversary under a patient watchdog completes.
        let patient = SchedulePlan::none().with_bursts(1.0, 6).with_patience(16);
        let cfg = SimConfig {
            sched: patient,
            ..SimConfig::default()
        };
        let mut session: Session<'_, crate::engine::tests::IdMsg> = Session::new(&g, cfg);
        let mut programs = min_flood_programs(300);
        let report = session.run(&mut programs, 42).expect("patient run");
        assert!(report.completed);
        assert!(report.sched.max_wait >= 1);
    }

    /// Schedules compose with crash fates without deadlock: a crashed
    /// neighbor never gates the synchronizer, and the composed run stays
    /// byte-identical across geometries. The counters are pinned, so a
    /// replay that ignored crash liveness (or advanced it out of step
    /// with the pass) fails here. Crash-stop nodes never retire, so the
    /// crash-stop pass runs to its round cap.
    #[test]
    fn crashed_neighbors_never_gate_the_clocks() {
        let g = gen::gnp(300, 0.03, 11);
        let plan = SchedulePlan::jittery(0.3, 3).with_patience(64);
        let cases = [
            (
                FaultPlan::none().with_crashes(0.01, 0),
                200,
                ScheduleCounters {
                    pulses: 698,
                    max_wait: 10,
                    reordered: 7695,
                    sync_bits: 34_841_600,
                },
            ),
            (
                FaultPlan::none().with_crashes(0.02, 3),
                80,
                ScheduleCounters {
                    pulses: 314,
                    max_wait: 22,
                    reordered: 3056,
                    sync_bits: 13_936_640,
                },
            ),
        ];
        for (fault, rounds, counters) in cases {
            let mut anchor = None;
            for shards in [0usize, 4, 8] {
                for threads in [1usize, 8] {
                    let cfg = SimConfig {
                        threads,
                        shards,
                        sched: plan,
                        fault,
                        max_rounds: 200,
                        ..SimConfig::default()
                    };
                    let mut session: Session<'_, crate::engine::tests::IdMsg> =
                        Session::new(&g, cfg);
                    let mut programs = min_flood_programs(300);
                    let report = session.run(&mut programs, 42).expect("composed run");
                    assert!(!report.crashed.is_empty(), "want real crashes in play");
                    assert_eq!(report.rounds, rounds, "{fault:?}");
                    assert_eq!(report.sched, counters, "{fault:?}");
                    let mins: Vec<u32> = programs.iter().map(|p| p.min).collect();
                    let got = (report, mins);
                    match &anchor {
                        None => anchor = Some(got),
                        Some(a) => assert_eq!(
                            *a, got,
                            "composition diverged at shards={shards} threads={threads}"
                        ),
                    }
                }
            }
        }
    }

    /// Counter merge is the documented sequential composition and is
    /// commutative in the fields where `absorb` needs it to be.
    #[test]
    fn counters_merge_like_the_docs_say() {
        let a = ScheduleCounters {
            pulses: 10,
            max_wait: 3,
            reordered: 2,
            sync_bits: 640,
        };
        let b = ScheduleCounters {
            pulses: 4,
            max_wait: 5,
            reordered: 1,
            sync_bits: 64,
        };
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.pulses, 14);
        assert_eq!(ab.max_wait, 5);
        assert_eq!(ab.reordered, 3);
        assert_eq!(ab.sync_bits, 704);
        assert!(ab.any());
        assert!(!ScheduleCounters::default().any());
    }
}
