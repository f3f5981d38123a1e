//! The pass driver: runs a sequence of engine passes over one buffer of
//! node states and accumulates their round/bit costs in a [`PassLog`].
//!
//! The states stay in that buffer for the whole solve. Each pass builds
//! one program per node that borrows the node's state
//! ([`Driver::run_in_place`]), runs them, and drops them; nothing is
//! moved in or out. Only the codec setup still moves states through its
//! programs ([`Driver::run_pass`]).
//!
//! By default every pass of a solve runs on **one persistent
//! [`congest::Session`]** — the mailbox plane, worker pool, RNG vector,
//! and scheduler scratch are built once and reused, and each pass only
//! pays the O(n) frontier/RNG reset (see [`EngineMode`]). The per-pass
//! seed derivation (`mix2(solve seed, pass counter)`) is the same in
//! both engine modes, so they produce byte-identical transcripts. The
//! same seed also keys any active [`congest::FaultPlan`]: fault fates are
//! a pure function of `(pass seed, plan, edge, round)`, so the
//! byte-identity guarantee extends to faulty runs — same plan, same
//! losses, same recovery, whatever the engine mode or thread count. An active
//! [`congest::SchedulePlan`] is keyed the same way: each pass draws its
//! schedule from its own pass seed, the α-synchronizer keeps the pass
//! transcript byte-identical to the synchronous run, and only the
//! synchronizer overhead counters in the [`PassLog`] record that the
//! adversary was there. A wedged schedule fails the pass with the
//! non-transient [`SimError::ScheduleStalled`].

use crate::passes::{ActivatePass, StatePass};
use crate::state::NodeState;
use crate::trycolor::TryColorPass;
use crate::wire::Wire;
use congest::{PassLog, Session, SimConfig, SimError};
use graphs::{Color, Graph};
use prand::mix::mix2;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative cancellation token: a wall-clock deadline, a shared
/// flag, or both. The [`Driver`] consults it **at pass boundaries only**
/// (the engine never interrupts a pass mid-round), failing the next pass
/// with [`SimError::Cancelled`] before it touches the node states — so a
/// cancelled solve still yields a consistent partial coloring.
///
/// This is what gives the serving layer (`d1lc::server`) per-request
/// deadlines and shutdown cancellation without ever producing a
/// transcript that differs from an uncancelled run: a token that never
/// fires changes nothing.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    deadline: Option<Instant>,
    flag: Option<Arc<AtomicBool>>,
}

impl CancelToken {
    /// A token that fires once the wall clock reaches `at`.
    pub fn at(at: Instant) -> Self {
        CancelToken {
            deadline: Some(at),
            flag: None,
        }
    }

    /// A token that fires when the shared flag is raised (e.g. server
    /// shutdown broadcast to in-flight solves).
    pub fn flagged(flag: Arc<AtomicBool>) -> Self {
        CancelToken {
            deadline: None,
            flag: Some(flag),
        }
    }

    /// Add a wall-clock deadline to this token.
    #[must_use]
    pub fn with_deadline(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Whether the token has fired (deadline passed or flag raised).
    pub fn is_cancelled(&self) -> bool {
        self.deadline.is_some_and(|at| Instant::now() >= at)
            || self
                .flag
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

/// Which engine a [`Driver`] runs its passes on. Both produce
/// byte-identical transcripts, reports, and colorings for every thread
/// count (differentially tested in `tests/prop_invariants.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum EngineMode {
    /// One persistent session for the whole solve: plane, pool, and
    /// scratch built once, frontier and RNGs reset per pass. The
    /// production engine and the default.
    #[default]
    Session,
    /// The naive sequential oracle per pass
    /// ([`congest::reference::run_reference`]) — the differential-testing
    /// anchor, sharing no engine code with the session.
    Reference,
}

/// A failed engine pass **with the node states** the pass ran over, so
/// callers can report partial colorings instead of aborting blind: the
/// states buffer is handed back as it stood when the pass stopped.
/// Converts into the bare [`SimError`] via `From` (which is how
/// [`crate::solve`] propagates it).
#[derive(Debug)]
pub struct PassFailure {
    /// The engine error that aborted the pass.
    pub error: SimError,
    /// Every node's last consistent state.
    pub states: Vec<NodeState>,
}

impl PassFailure {
    /// The partial coloring at the moment of failure (one entry per
    /// node, `None` where uncolored).
    pub fn partial_coloring(&self) -> Vec<Option<Color>> {
        self.states.iter().map(|s| s.color).collect()
    }

    /// Hand `states` back after passes that ran over them in place: as
    /// they are if `outcome` is `Ok`, inside a failure otherwise.
    pub(crate) fn hand_back(
        outcome: Result<(), SimError>,
        states: Vec<NodeState>,
    ) -> Result<Vec<NodeState>, PassFailure> {
        match outcome {
            Ok(()) => Ok(states),
            Err(error) => Err(PassFailure { error, states }),
        }
    }
}

impl From<PassFailure> for SimError {
    fn from(failure: PassFailure) -> SimError {
        failure.error
    }
}

enum Engine<'g> {
    Session(Box<Session<'g, Wire>>),
    Reference,
}

/// Drives passes over a graph and its node states.
pub struct Driver<'g> {
    /// The graph everything runs on.
    pub graph: &'g Graph,
    /// Engine configuration template (seed varies per pass).
    pub config: SimConfig,
    /// Accumulated metrics, one entry per pass.
    pub log: PassLog,
    engine: Engine<'g>,
    seed: u64,
    pass_counter: u64,
    cancel: Option<CancelToken>,
}

impl<'g> Driver<'g> {
    /// A driver with the given base engine config, running every pass on
    /// one persistent session ([`EngineMode::Session`]).
    pub fn new(graph: &'g Graph, config: SimConfig) -> Self {
        Driver::with_engine(graph, config, EngineMode::Session)
    }

    /// A driver running its passes through the given engine path.
    pub fn with_engine(graph: &'g Graph, config: SimConfig, mode: EngineMode) -> Self {
        let engine = match mode {
            EngineMode::Session => Engine::Session(Box::new(Session::new(graph, config))),
            EngineMode::Reference => Engine::Reference,
        };
        Driver {
            graph,
            config,
            log: PassLog::new(),
            engine,
            seed: config.seed,
            pass_counter: 0,
            cancel: None,
        }
    }

    /// A driver running on an **already-bound session** — the
    /// throughput-mode entry point: a `d1lc::server` worker binds a
    /// pooled [`congest::SessionCore`] to the request's graph and hands
    /// the session here, so a stream of solves reuses one warm engine.
    /// Behaviour is byte-identical to [`Driver::new`] on the same graph
    /// and config (session reuse only changes who owns the allocations).
    pub fn from_session(session: Session<'g, Wire>) -> Self {
        Driver {
            graph: session.graph(),
            config: session.config(),
            log: PassLog::new(),
            seed: session.config().seed,
            engine: Engine::Session(Box::new(session)),
            pass_counter: 0,
            cancel: None,
        }
    }

    /// Install a cooperative [`CancelToken`]: every subsequent pass
    /// checks it at its boundary and fails with [`SimError::Cancelled`]
    /// (states untouched) once it fires. A token that never fires leaves
    /// the transcript byte-identical to an un-cancelled run.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The `Err` payload for a firing token, or `None` to proceed.
    fn cancelled_now(&self) -> Option<SimError> {
        self.cancel
            .as_ref()
            .filter(|t| t.is_cancelled())
            .map(|_| SimError::Cancelled {
                after_passes: self.pass_counter,
            })
    }

    /// Recover the engine session for recycling (`None` under
    /// [`EngineMode::Reference`], which owns no session). The caller
    /// typically unbinds it back into a [`congest::SessionCore`] and
    /// pools it for the next solve.
    pub fn into_session(self) -> Option<Session<'g, Wire>> {
        match self.engine {
            Engine::Session(session) => Some(*session),
            Engine::Reference => None,
        }
    }

    /// Mark a pipeline-phase boundary: every pass recorded from now on is
    /// attributed to `name` in [`PassLog::phase_breakdown`]. Purely a
    /// metrics label — no rounds are spent.
    pub fn begin_phase(&mut self, name: impl Into<String>) {
        self.log.set_phase(name);
    }

    /// Start the next counted pass: check the cancel token, advance the
    /// pass counter, and derive the pass's engine seed from it.
    fn next_pass_seed(&mut self) -> Result<u64, SimError> {
        if let Some(error) = self.cancelled_now() {
            return Err(error);
        }
        self.pass_counter += 1;
        Ok(mix2(self.seed, self.pass_counter))
    }

    /// Run one pass over `states` in place: build a program per node (in
    /// id order) that borrows the node's state, execute to completion on
    /// the driver's engine, drop the programs, and record metrics under
    /// `name`. The pass's seed comes from the driver's pass counter.
    ///
    /// # Errors
    ///
    /// Engine errors (and a fired [`CancelToken`]). `states` then holds
    /// every node's last consistent state, so callers can report partial
    /// colorings instead of aborting blind.
    pub fn run_in_place<'s, P, B>(
        &mut self,
        name: &'static str,
        states: &'s mut [NodeState],
        build: B,
    ) -> Result<(), SimError>
    where
        P: congest::Program<Msg = Wire>,
        B: FnMut(&'s mut NodeState) -> P,
    {
        let seed = self.next_pass_seed()?;
        let mut programs: Vec<P> = states.iter_mut().map(build).collect();
        self.execute(name, seed, &mut programs)
    }

    /// Run one pass whose programs **own** the node states, moving every
    /// state into its program and back out — the entry point for
    /// [`crate::passes::CodecSetupPass`]. Seeding and metrics are as in
    /// [`Driver::run_in_place`].
    ///
    /// # Errors
    ///
    /// Engine errors come back as a [`PassFailure`] carrying every
    /// node's last consistent state.
    pub fn run_pass<P, B>(
        &mut self,
        name: &'static str,
        states: Vec<NodeState>,
        build: B,
    ) -> Result<Vec<NodeState>, PassFailure>
    where
        P: StatePass,
        B: FnMut(NodeState) -> P,
    {
        let seed = match self.next_pass_seed() {
            Ok(seed) => seed,
            Err(error) => return Err(PassFailure { error, states }),
        };
        let mut programs: Vec<P> = states.into_iter().map(build).collect();
        let outcome = self.execute(name, seed, &mut programs);
        let states = programs.into_iter().map(StatePass::into_state).collect();
        PassFailure::hand_back(outcome, states)
    }

    /// Run `programs` on the driver's engine with an **explicit engine
    /// seed** — for passes whose seed derivation is not the driver's pass
    /// counter, or whose programs carry extra outputs beyond the node
    /// state they borrow (estimates, aggregates, buddy masks), which the
    /// caller reads once the run returns. Records metrics under `name`;
    /// does not advance the pass counter.
    ///
    /// # Errors
    ///
    /// Engine errors (and a fired [`CancelToken`]); the programs, and the
    /// states they borrow, hold each node's last consistent state.
    pub fn run_seeded<P: congest::Program<Msg = Wire>>(
        &mut self,
        name: &'static str,
        seed: u64,
        programs: &mut [P],
    ) -> Result<(), SimError> {
        if let Some(error) = self.cancelled_now() {
            return Err(error);
        }
        self.execute(name, seed, programs)
    }

    /// Run one pass of `programs` on the driver's engine, advancing them
    /// in place (on error too), and record its report under `name`.
    fn execute<P: congest::Program<Msg = Wire>>(
        &mut self,
        name: &'static str,
        seed: u64,
        programs: &mut [P],
    ) -> Result<(), SimError> {
        let report = match &mut self.engine {
            Engine::Session(session) => session.run(programs, seed)?,
            Engine::Reference => {
                let config = SimConfig {
                    seed,
                    ..self.config
                };
                congest::reference::run_reference(self.graph, programs, config)?
            }
        };
        self.log.record(name, report);
        Ok(())
    }

    /// Refresh activation: node `v` stays/becomes active iff `keep(v)` and
    /// it is uncolored. Only nodes whose `(active, uncolored)` bits differ
    /// from what their neighbors last heard broadcast them (see
    /// [`ActivatePass`]); a second call with unchanged decisions sends
    /// nothing but still spends its 2 rounds.
    ///
    /// # Errors
    ///
    /// Propagates engine errors with the states.
    pub fn activate(
        &mut self,
        mut states: Vec<NodeState>,
        mut keep: impl FnMut(&NodeState) -> bool,
    ) -> Result<Vec<NodeState>, PassFailure> {
        let outcome = self.run_in_place("activate", &mut states, |st| {
            let on = keep(st);
            ActivatePass::new(st, on)
        });
        PassFailure::hand_back(outcome, states)
    }

    /// One synchronized `TryRandomColor` trial over the active nodes.
    ///
    /// # Errors
    ///
    /// Propagates engine errors with the states.
    pub fn try_color(
        &mut self,
        mut states: Vec<NodeState>,
        name: &'static str,
    ) -> Result<Vec<NodeState>, PassFailure> {
        let outcome = self.run_in_place(name, &mut states, |st| TryColorPass::every_node(st, name));
        PassFailure::hand_back(outcome, states)
    }

    /// Number of nodes currently active.
    pub fn active_count(states: &[NodeState]) -> usize {
        states.iter().filter(|s| s.active).count()
    }

    /// Number of uncolored nodes.
    pub fn uncolored_count(states: &[NodeState]) -> usize {
        states.iter().filter(|s| s.uncolored()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ParamProfile;
    use crate::palette::Palette;
    use crate::wire::ColorCodec;
    use graphs::gen;

    fn fresh(g: &Graph) -> Vec<NodeState> {
        let profile = ParamProfile::laptop();
        (0..g.n())
            .map(|v| {
                let d = g.degree(v as u32);
                let list: Vec<u64> = (0..=(d as u64)).collect();
                NodeState::new(
                    v as u32,
                    Palette::new(list),
                    ColorCodec::new(&profile, 1, g.n(), 16, d),
                    d,
                )
            })
            .collect()
    }

    /// Every node's view of each neighbor's `(active, uncolored)` bits
    /// equals that neighbor's own bits.
    fn assert_status_views(g: &Graph, states: &[NodeState]) {
        for st in states {
            for (pos, &u) in g.neighbors(st.id).iter().enumerate() {
                let nb = &states[u as usize];
                let seen = (st.neighbor_active[pos], st.neighbor_uncolored[pos]);
                assert_eq!(seen, (nb.active, nb.uncolored()), "{}'s view of {u}", st.id);
            }
        }
    }

    fn messages(driver: &Driver<'_>, pass: usize) -> u64 {
        driver.log.passes()[pass].report.messages
    }

    /// A second activation with unchanged decisions tells no neighbor
    /// anything new, so it sends nothing, but it still spends 2 rounds.
    #[test]
    fn repeated_activation_sends_nothing() {
        let g = gen::gnp(50, 0.15, 3);
        let mut driver = Driver::new(&g, SimConfig::seeded(2));
        let keep = |st: &NodeState| !st.id.is_multiple_of(3);
        let states = driver.activate(fresh(&g), keep).unwrap();
        assert_status_views(&g, &states);
        // Only the activated nodes differ from the assumed start bits.
        let activated: u64 = states
            .iter()
            .filter(|st| keep(st))
            .map(|st| g.degree(st.id) as u64)
            .sum();
        assert_eq!(messages(&driver, 0), activated);
        let states = driver.activate(states, keep).unwrap();
        assert_status_views(&g, &states);
        assert_eq!(messages(&driver, 1), 0);
        assert_eq!(driver.log.passes()[1].report.rounds, 2);
    }

    /// A node that drops out between two activations is the only one
    /// with news: it sends exactly one message per neighbor.
    #[test]
    fn dropout_sends_its_degree() {
        let g = gen::gnp(50, 0.15, 4);
        let mut driver = Driver::new(&g, SimConfig::seeded(3));
        let states = driver.activate(fresh(&g), |_| true).unwrap();
        assert_status_views(&g, &states);
        let dropout = (0..g.n() as u32).max_by_key(|&v| g.degree(v)).unwrap();
        let states = driver.activate(states, |st| st.id != dropout).unwrap();
        assert_status_views(&g, &states);
        assert!(!states[dropout as usize].active);
        assert_eq!(messages(&driver, 1), g.degree(dropout) as u64);
    }

    /// An adoption's `ADOPTED` announcement is the adopter's status
    /// update: its neighbors see it inactive and colored at once, and the
    /// next activation has nothing to re-send.
    #[test]
    fn adoption_is_heard_without_a_status_message() {
        let g = gen::gnp(50, 0.15, 5);
        let mut driver = Driver::new(&g, SimConfig::seeded(4));
        let states = driver.activate(fresh(&g), |_| true).unwrap();
        let states = driver.try_color(states, "trial").unwrap();
        let adopters = states.iter().filter(|s| s.color.is_some()).count();
        assert!(adopters > 0, "the trial colored nobody");
        assert_status_views(&g, &states);
        let states = driver.activate(states, |_| true).unwrap();
        assert_status_views(&g, &states);
        assert_eq!(messages(&driver, 2), 0);
    }

    #[test]
    fn activate_then_trials_color_everything() {
        let g = gen::cycle(20);
        let mut driver = Driver::new(&g, SimConfig::seeded(5));
        let mut states = fresh(&g);
        states = driver.activate(states, |_| true).unwrap();
        assert_eq!(Driver::active_count(&states), 20);
        for _ in 0..60 {
            states = driver.try_color(states, "trial").unwrap();
            if Driver::uncolored_count(&states) == 0 {
                break;
            }
        }
        assert!(Driver::uncolored_count(&states) <= 2);
        assert!(driver.log.total_rounds() > 0);
        assert!(driver.log.passes().len() >= 2);
    }

    /// Satellite: a failed pass returns the recovered states alongside
    /// the error, so callers can report partial colorings.
    #[test]
    fn failed_pass_returns_states_for_partial_reporting() {
        let g = gen::complete(8);
        // An 8-bit cap passes the 2-bit activation flags but not the
        // 16-bit color trials.
        let cfg = SimConfig {
            bandwidth: congest::Bandwidth::Strict(8),
            ..SimConfig::seeded(3)
        };
        let mut driver = Driver::new(&g, cfg);
        let mut states = fresh(&g);
        states[0].color = Some(99);
        states = driver.activate(states, |_| true).unwrap();
        let failure = driver
            .try_color(states, "trial")
            .expect_err("16-bit colors must blow an 8-bit cap");
        assert!(matches!(
            failure.error,
            congest::SimError::BandwidthExceeded { .. }
        ));
        assert_eq!(failure.states.len(), 8, "states recovered with the error");
        let partial = failure.partial_coloring();
        assert_eq!(partial[0], Some(99), "pre-existing coloring survives");
        // The recovered states are consistent driver inputs: a fresh
        // driver without the cap finishes the solve from them.
        let mut retry = Driver::new(&g, SimConfig::seeded(4));
        let mut states = failure.states;
        for _ in 0..40 {
            states = retry.try_color(states, "retry").unwrap();
            if Driver::uncolored_count(&states) == 0 {
                break;
            }
        }
        assert_eq!(Driver::uncolored_count(&states), 0);
    }

    /// Both engine modes drive byte-identical pass sequences.
    #[test]
    fn engine_modes_are_transcript_identical() {
        let g = gen::gnp(60, 0.1, 2);
        let run_mode = |mode: EngineMode| {
            let mut driver = Driver::with_engine(&g, SimConfig::seeded(9), mode);
            let mut states = fresh(&g);
            states = driver.activate(states, |_| true).unwrap();
            for _ in 0..12 {
                states = driver.try_color(states, "trial").unwrap();
            }
            let colors: Vec<_> = states.iter().map(|s| s.color).collect();
            (colors, driver.log)
        };
        let (base_colors, base_log) = run_mode(EngineMode::Session);
        let (colors, log) = run_mode(EngineMode::Reference);
        assert_eq!(base_colors, colors, "reference coloring diverged");
        assert_eq!(base_log.passes(), log.passes(), "reference log diverged");
    }

    /// A pass that overflows a strict cap fails identically in both
    /// engine modes, and each failure carries every node's state.
    #[test]
    fn reference_failures_carry_the_session_states() {
        let g = gen::complete(8);
        let cfg = SimConfig {
            bandwidth: congest::Bandwidth::Strict(8),
            ..SimConfig::seeded(3)
        };
        let fail = |mode: EngineMode| {
            let mut driver = Driver::with_engine(&g, cfg, mode);
            let states = driver.activate(fresh(&g), |_| true).unwrap();
            driver
                .try_color(states, "trial")
                .expect_err("16-bit colors must blow an 8-bit cap")
        };
        let session = fail(EngineMode::Session);
        let reference = fail(EngineMode::Reference);
        assert!(matches!(
            reference.error,
            congest::SimError::BandwidthExceeded { .. }
        ));
        assert_eq!(reference.error, session.error);
        assert_eq!(reference.states.len(), 8);
        assert_eq!(
            format!("{:?}", reference.states),
            format!("{:?}", session.states)
        );
    }

    /// A fired cancel token fails the next pass at its boundary with
    /// the states recovered; an unfired one changes nothing.
    #[test]
    fn cancel_token_fires_at_pass_boundaries() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let g = gen::gnp(40, 0.1, 5);
        // An unfired token leaves the transcript untouched.
        let run = |token: Option<CancelToken>| {
            let mut driver = Driver::new(&g, SimConfig::seeded(6));
            if let Some(t) = token {
                driver.set_cancel(t);
            }
            let states = driver.activate(fresh(&g), |_| true).unwrap();
            (driver, states)
        };
        let (plain, plain_states) = run(None);
        let flag = Arc::new(AtomicBool::new(false));
        let (tokened, tokened_states) = run(Some(CancelToken::flagged(Arc::clone(&flag))));
        assert_eq!(plain.log.passes(), tokened.log.passes());
        let colors = |s: &[NodeState]| s.iter().map(|n| n.color).collect::<Vec<_>>();
        assert_eq!(colors(&plain_states), colors(&tokened_states));

        // Fire the flag: the very next pass boundary rejects the run
        // and hands the states back as a consistent partial result.
        let (mut driver, states) = run(Some(CancelToken::flagged(Arc::clone(&flag))));
        flag.store(true, Ordering::Relaxed);
        let passes_before = driver.log.passes().len() as u64;
        let failure = driver
            .try_color(states, "trial")
            .expect_err("a fired token cancels at the boundary");
        assert_eq!(
            failure.error,
            congest::SimError::Cancelled {
                after_passes: passes_before
            }
        );
        assert_eq!(failure.states.len(), 40, "states recovered intact");
        // An already-expired deadline behaves identically.
        let expired = CancelToken::at(std::time::Instant::now());
        assert!(expired.is_cancelled());
        assert!(!CancelToken::default().is_cancelled());
    }

    #[test]
    fn pass_seeds_differ() {
        // Two identical try_color passes must not repeat the same random
        // choices (they'd deadlock on a clique otherwise).
        let g = gen::complete(8);
        let mut driver = Driver::new(&g, SimConfig::seeded(1));
        let mut states = fresh(&g);
        states = driver.activate(states, |_| true).unwrap();
        for _ in 0..40 {
            states = driver.try_color(states, "trial").unwrap();
        }
        // With fresh randomness each pass, a K8 with 8-color lists
        // eventually colors fully.
        assert_eq!(Driver::uncolored_count(&states), 0);
    }
}
