//! The traced replay of one solve, timed from outside the library.
//!
//! [`replay`] runs `d1lc::solve`'s phase sequence through the library's
//! public calls (`Driver::new`, `pipeline::initial_states`,
//! `Driver::run_pass(CodecSetupPass::new)`, `Driver::activate`,
//! `acd::compute_acd`, `sparse::color_sparse`, `dense::color_dense`,
//! `Driver::try_color`, `shattering::cleanup`) and records a span around
//! each call: its wall time, plus the rounds, messages and bits of the
//! passes it appended to the `Driver`'s `PassLog`. A replay counts only if
//! its pass log, coloring and repair count equal `solve()`'s on the same
//! input ([`Replay::matches`]).

use crate::stats::median;
use congest::{PassRecord, SimConfig, SimError};
use d1lc::passes::CodecSetupPass;
use d1lc::{acd, dense, pipeline, shattering, sparse};
use d1lc::{Driver, NodeState, SolveOptions, SolveResult};
use graphs::palette::ListAssignment;
use graphs::{Color, Graph, NodeId};
use prand::mix::mix2;
use std::time::{Duration, Instant};

/// The solver layers a replay times, in metric order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// `acd::compute_acd`.
    Acd,
    /// `sparse::color_sparse`.
    Sparse,
    /// `dense::color_dense`.
    Dense,
    /// Pipeline-level activation passes (phase entry, fallback entry).
    Activate,
    /// The one-time codec setup pass.
    CodecSetup,
    /// The fallback's `Driver::try_color` trials.
    Fallback,
    /// `shattering::cleanup`.
    Cleanup,
}

impl Span {
    /// Every span; a span's index here is `span as usize`.
    pub const ALL: [Span; 7] = [
        Span::Acd,
        Span::Sparse,
        Span::Dense,
        Span::Activate,
        Span::CodecSetup,
        Span::Fallback,
        Span::Cleanup,
    ];

    /// The span's metric name.
    pub fn name(self) -> &'static str {
        match self {
            Span::CodecSetup => "d1lc.codec_setup",
            Span::Activate => "d1lc.activate",
            Span::Acd => "d1lc.acd",
            Span::Sparse => "d1lc.sparse",
            Span::Dense => "d1lc.dense",
            Span::Fallback => "d1lc.fallback",
            Span::Cleanup => "d1lc.cleanup",
        }
    }

    /// Spans whose time is per-pass engine overhead: little compute, so
    /// their time per message measures the engine.
    pub fn engine_bound(self) -> bool {
        matches!(self, Span::Activate | Span::CodecSetup | Span::Fallback)
    }
}

/// One span's totals within a solve.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotal {
    /// Wall time inside the span's calls.
    pub time: Duration,
    /// CONGEST rounds of the passes the calls ran.
    pub rounds: u64,
    /// Messages those passes sent.
    pub messages: u64,
    /// Bits those passes sent.
    pub bits: u64,
}

/// The outcome of one traced replay.
pub struct Replay {
    /// The final coloring, repairs included.
    pub coloring: Vec<Color>,
    /// Every pass the replay ran.
    pub passes: Vec<PassRecord>,
    /// Nodes the central repair colored.
    pub repairs: usize,
    /// Totals per span, indexed like [`Span::ALL`].
    pub spans: [SpanTotal; 7],
    /// Σ active-degree² over active nodes at each `compute_acd` entry.
    pub sig_elems: u64,
    /// Wall time of the whole replay.
    pub wall: Duration,
}

impl Replay {
    /// Whether the replay reproduced `solve()` exactly.
    pub fn matches(&self, result: &SolveResult) -> bool {
        self.passes == result.log.passes()
            && self.coloring == result.coloring
            && self.repairs == result.stats.repairs
    }
}

/// Time `call` as one `span`, charging it the passes it appended.
fn timed<'g, T>(
    replay: &mut Replay,
    span: Span,
    driver: &mut Driver<'g>,
    call: impl FnOnce(&mut Driver<'g>) -> T,
) -> T {
    let before = driver.log.passes().len();
    let start = Instant::now();
    let out = call(driver);
    let time = start.elapsed();
    let total = &mut replay.spans[span as usize];
    total.time += time;
    for pass in &driver.log.passes()[before..] {
        total.rounds += pass.report.rounds;
        total.messages += pass.report.messages;
        total.bits += pass.report.total_bits;
    }
    out
}

/// Σ over active nodes of their active degree squared: the hash
/// evaluations the ACD's similarity signatures cost.
fn sig_elems(states: &[NodeState]) -> u64 {
    states
        .iter()
        .filter(|st| st.active)
        .map(|st| {
            let d = st.neighbor_active.iter().filter(|&&a| a).count() as u64;
            d * d
        })
        .sum()
}

/// Replay `d1lc::solve(g, lists, opts)` call by call (see the module
/// docs). Only fault-free options are supported, as in every workload.
///
/// # Errors
///
/// Engine errors, as `solve` reports them.
pub fn replay(g: &Graph, lists: &ListAssignment, opts: SolveOptions) -> Result<Replay, SimError> {
    assert!(
        !opts.sim.fault.is_active(),
        "replay covers fault-free solves"
    );
    let start = Instant::now();
    let mut rec = Replay {
        coloring: Vec::new(),
        passes: Vec::new(),
        repairs: 0,
        spans: [SpanTotal::default(); 7],
        sig_elems: 0,
        wall: Duration::ZERO,
    };
    let profile = opts.profile;
    let mut driver = Driver::new(
        g,
        SimConfig {
            seed: opts.seed,
            ..opts.sim
        },
    );
    let mut states = pipeline::initial_states(g, lists, &profile, opts.seed);

    driver.begin_phase("setup");
    states = timed(&mut rec, Span::CodecSetup, &mut driver, |d| {
        d.run_pass("codec-setup", states, CodecSetupPass::new)
    })?;

    let ladder = profile.degree_ladder(g.max_degree());
    let floor = profile.degree_threshold_floor;
    let mut phases = 0u64;
    for (i, &hi) in ladder.iter().enumerate() {
        let lo = ladder.get(i + 1).copied().unwrap_or(floor);
        if lo >= hi {
            continue;
        }
        let in_range = |st: &NodeState| {
            let d = g.degree(st.id);
            d > lo && d <= hi && st.uncolored()
        };
        if !states.iter().any(in_range) {
            continue;
        }
        phases += 1;
        driver.begin_phase(format!("range-{phases}"));
        for st in &mut states {
            st.reset_phase();
        }
        states = timed(&mut rec, Span::Activate, &mut driver, |d| {
            d.activate(states, in_range)
        })?;
        rec.sig_elems += sig_elems(&states);
        let phase_seed = mix2(opts.seed, phases);
        states = timed(&mut rec, Span::Acd, &mut driver, |d| {
            acd::compute_acd(d, states, &profile, phase_seed)
        })?;
        states = timed(&mut rec, Span::Sparse, &mut driver, |d| {
            sparse::color_sparse(d, states, &profile, phase_seed)
        })?;
        states = timed(&mut rec, Span::Dense, &mut driver, |d| {
            dense::color_dense(d, states, &profile, phase_seed, hi)
        })?;
    }

    driver.begin_phase("fallback");
    states = timed(&mut rec, Span::Activate, &mut driver, |d| {
        d.activate(states, |st| st.uncolored())
    })?;
    for _ in 0..profile.fallback_trials {
        if Driver::uncolored_count(&states) == 0 {
            break;
        }
        states = timed(&mut rec, Span::Fallback, &mut driver, |d| {
            d.try_color(states, "fallback")
        })?;
    }
    // The cleanup span covers the check too, so it is never empty.
    states = timed(&mut rec, Span::Cleanup, &mut driver, |d| {
        if Driver::uncolored_count(&states) == 0 {
            return Ok(states);
        }
        d.begin_phase("cleanup");
        shattering::cleanup(d, states)
    })?;

    let (coloring, repairs) = repair(g, lists, &states);
    rec.coloring = coloring;
    rec.repairs = repairs;
    rec.passes = driver.log.passes().to_vec();
    rec.wall = start.elapsed();
    Ok(rec)
}

/// The central repair `solve` finishes with: every node left uncolored
/// takes the first color of its list no colored neighbor holds, in id
/// order. Returns the coloring and the number of repaired nodes.
fn repair(g: &Graph, lists: &ListAssignment, states: &[NodeState]) -> (Vec<Color>, usize) {
    let mut coloring: Vec<Option<Color>> = states.iter().map(|s| s.color).collect();
    let mut repairs = 0;
    for v in 0..g.n() {
        if coloring[v].is_some() {
            continue;
        }
        let mut taken: Vec<Color> = g
            .neighbors(v as NodeId)
            .iter()
            .filter_map(|&u| coloring[u as usize])
            .collect();
        taken.sort_unstable();
        coloring[v] = lists
            .list(v as NodeId)
            .iter()
            .copied()
            .find(|c| taken.binary_search(c).is_err());
        repairs += 1;
    }
    let coloring = coloring
        .into_iter()
        .map(|c| c.expect("a (deg+1)-list always has a free color"))
        .collect();
    (coloring, repairs)
}

/// Per-layer totals over a run's traced solves.
#[derive(Default)]
pub struct Tracer {
    per_solve: Vec<[SpanTotal; 7]>,
    sig_elems: Vec<u64>,
    repairs: Vec<usize>,
    traced: Duration,
    untraced: Duration,
    /// Replays that did not reproduce `solve()`.
    pub mismatches: usize,
}

/// One per-layer metric: name, value, unit.
pub type LayerMetric = (String, f64, &'static str);

impl Tracer {
    /// Record one replay against the untraced `solve()` of the same input
    /// and its wall time.
    pub fn record(&mut self, replay: &Replay, result: &SolveResult, untraced: Duration) {
        if !replay.matches(result) {
            self.mismatches += 1;
            return;
        }
        self.per_solve.push(replay.spans);
        self.sig_elems.push(replay.sig_elems);
        self.repairs.push(replay.repairs);
        self.traced += replay.wall;
        self.untraced += untraced;
    }

    /// Replays recorded (matching ones).
    pub fn solves(&self) -> usize {
        self.per_solve.len()
    }

    /// Share of the replays' wall time inside `span`.
    pub fn share(&self, span: Span) -> f64 {
        let inside: Duration = self.per_solve.iter().map(|s| s[span as usize].time).sum();
        inside.as_secs_f64() / self.traced.as_secs_f64()
    }

    /// Traced minus untraced wall time, as a share of the untraced.
    pub fn overhead_share(&self) -> f64 {
        (self.traced.as_secs_f64() - self.untraced.as_secs_f64()) / self.untraced.as_secs_f64()
    }

    /// The `d1lc.*` and `congest.*` metrics: per-solve medians of span
    /// times, per-solve means of counts, and run-wide rates.
    pub fn metrics(&self) -> Vec<LayerMetric> {
        let solves = self.per_solve.len() as f64;
        let mut out = Vec::new();
        for (i, span) in Span::ALL.into_iter().enumerate() {
            let name = span.name();
            let times: Vec<f64> = self
                .per_solve
                .iter()
                .map(|s| s[i].time.as_secs_f64())
                .collect();
            let mean = |f: fn(&SpanTotal) -> u64| {
                self.per_solve.iter().map(|s| f(&s[i])).sum::<u64>() as f64 / solves
            };
            out.push((format!("{name}.s"), median(&times), "s"));
            out.push((format!("{name}.rounds"), mean(|t| t.rounds), "rounds"));
            out.push((format!("{name}.messages"), mean(|t| t.messages), "messages"));
            out.push((format!("{name}.bits"), mean(|t| t.bits), "bits"));
        }
        let acd_ns: f64 = self
            .per_solve
            .iter()
            .map(|s| s[Span::Acd as usize].time.as_nanos() as f64)
            .sum();
        let elems: u64 = self.sig_elems.iter().sum();
        out.push(("d1lc.acd.sig_elems".into(), elems as f64 / solves, "count"));
        out.push((
            "d1lc.acd.ns_per_sig_elem".into(),
            acd_ns / elems.max(1) as f64,
            "ns",
        ));
        let (mut engine_ns, mut engine_msgs) = (0.0, 0u64);
        for s in &self.per_solve {
            for (i, span) in Span::ALL.into_iter().enumerate() {
                if span.engine_bound() {
                    engine_ns += s[i].time.as_nanos() as f64;
                    engine_msgs += s[i].messages;
                }
            }
        }
        out.push((
            "congest.ns_per_msg".into(),
            engine_ns / engine_msgs.max(1) as f64,
            "ns",
        ));
        out.push((
            "d1lc.repairs".into(),
            self.repairs.iter().sum::<usize>() as f64 / solves,
            "count",
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{blend_window, gnp_window};

    #[test]
    fn span_index_is_its_position() {
        for (i, span) in Span::ALL.into_iter().enumerate() {
            assert_eq!(span as usize, i);
        }
    }

    #[test]
    fn replay_reproduces_solve_on_both_families() {
        for inst in [gnp_window(400, 1), blend_window(600, 2)] {
            for seed in [3, 4] {
                let opts = SolveOptions::seeded(seed);
                let result = d1lc::solve(&inst.graph, &inst.lists, opts).expect("solve");
                let rep = replay(&inst.graph, &inst.lists, opts).expect("replay");
                assert!(rep.matches(&result), "{} seed {seed}", inst.family);
                let spans: u64 = rep.spans.iter().map(|s| s.rounds).sum();
                assert_eq!(spans, result.rounds(), "every pass lands in a span");
                assert!(rep.sig_elems > 0);
            }
        }
    }
}
