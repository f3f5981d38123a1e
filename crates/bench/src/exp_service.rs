//! E0c — throughput-mode serving: the concurrent [`SolveServer`]
//! (driven closed-loop at one worker) vs fresh-session-per-solve.
//!
//! A production deployment of the solver fields a *stream* of solve
//! requests. E0c replays four request mixes through three service arms
//! and measures solves/sec plus per-request wall p50/p99:
//!
//! **Mixes** (all engine `threads = 1`):
//!
//! * `uniform-256` — the serving mix: a round-robin stream over a small
//!   catalog of n = 256 instances × solve seeds, so most requests repeat
//!   an earlier one (hot keys, the shape of high-traffic serving);
//! * `mixed-sizes` — the same stream shape over n ∈ {256, 1024, 4096}
//!   (quick scale: {256, 512, 1024});
//! * `repeat-topo-256` — one topology, every request a *distinct* solve
//!   seed: no request ever repeats, isolating what same-graph session
//!   rebinding buys;
//! * `fresh-topo-256` — every request a distinct topology: the worst
//!   case for reuse (full plane rebuild per request).
//!
//! **Arms**: `fresh` ([`ServiceConfig::fresh_per_solve`], the baseline —
//! every request pays a full engine build, exactly one-shot
//! [`d1lc::solve`]), `pooled` ([`ServiceConfig::pooled_only`], session
//! reuse without memoization), and `service` (the default: pooled
//! sessions + deterministic response memoization). Each arm runs one
//! server worker and submits closed-loop (submit, wait, repeat), so the
//! rows isolate the session/memo mechanisms from queueing effects — the
//! open-loop saturation picture is E0d (`exp_server`).
//!
//! The run **asserts** that every distinct request's response is
//! byte-identical to a one-shot [`d1lc::solve`] (coloring and per-pass
//! log), and that one probe request reproduces identically across both
//! [`EngineMode`]s and threads {1, 2, 8} — so a throughput win can never
//! hide a correctness regression. `BENCH_5.json` at the repo root
//! is the committed full-scale snapshot; the acceptance row is the
//! `uniform-256` mix, `service` arm vs `fresh` arm.
//!
//! Honest mechanism split (why the rows look the way they do): engine
//! setup is a small fraction of a solve, so `pooled` beats `fresh` by a
//! constant only; the ≥2× on the repeat-heavy mixes comes from the memo
//! (solver determinism makes responses a pure function of the request,
//! so a hit returns the byte-identical result a recompute would).

use crate::scenario::{Scenario, TableScenario};
use crate::table::{f2, Table};
use crate::workloads::{self, Scale};
use congest::SimConfig;
use d1lc::server::SolveServer;
use d1lc::service::{ServiceConfig, SolveRequest};
use d1lc::{solve, EngineMode, SolveOptions, SolveResult};
use graphs::palette::ListAssignment;
use graphs::Graph;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Registry entries for this module (E0c).
pub fn scenarios() -> Vec<Box<dyn Scenario>> {
    vec![TableScenario::boxed(
        "E0c",
        "SolveServer closed-loop throughput vs fresh-session-per-solve",
        "The pooled, memoizing service serves the repeat-heavy uniform n=256 mix ≥2× faster \
         than fresh-session-per-solve at 1 engine thread, byte-identically",
        e0c_service_throughput,
    )]
}

/// Repetitions per (mix, arm); the minimum wall time is reported. Every
/// repetition starts a fresh server (cold pool, cold memo), so hits are
/// earned within the measured stream.
pub const REPS: usize = 3;

/// Drive a request stream closed-loop through a one-worker server:
/// submit, wait, repeat. Returns the responses plus per-request walls.
/// This is the PR 5 batched-serving shape expressed through the
/// concurrent API — E0d's open-loop baseline reuses it.
pub fn serve_stream(
    config: ServiceConfig,
    requests: &[SolveRequest],
) -> (Vec<Arc<SolveResult>>, Vec<Duration>, u64) {
    let server = SolveServer::start(config);
    let handle = server.handle();
    let mut results = Vec::with_capacity(requests.len());
    let mut walls = Vec::with_capacity(requests.len());
    for req in requests {
        let start = Instant::now();
        results.push(handle.solve(req.clone()).expect("serve"));
        walls.push(start.elapsed());
    }
    let hits = server.stats().memo_hits;
    (results, walls, hits)
}

/// Nearest-rank percentile over unsorted per-request walls.
pub fn percentile(walls: &[Duration], p: usize) -> Duration {
    if walls.is_empty() {
        return Duration::ZERO;
    }
    let mut sorted = walls.to_vec();
    sorted.sort_unstable();
    let rank = (p * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// A shared instance: the unit the service recognizes by identity.
type Shared = (Arc<Graph>, Arc<ListAssignment>);

fn shared_instance(n: usize, topo_seed: u64) -> Shared {
    let inst = workloads::gnp_window(n, topo_seed);
    (Arc::new(inst.graph), Arc::new(inst.lists))
}

/// One request mix: a name and an ordered stream.
struct Mix {
    name: &'static str,
    requests: Vec<SolveRequest>,
    distinct: usize,
}

/// Round-robin `reps` passes over a catalog of `(instance, seed)` pairs.
fn stream(catalog: &[(Shared, u64)], reps: usize) -> Vec<SolveRequest> {
    let mut out = Vec::with_capacity(catalog.len() * reps);
    for _ in 0..reps {
        for ((graph, lists), seed) in catalog {
            out.push(SolveRequest::shared(
                graph,
                lists,
                SolveOptions::seeded(*seed),
            ));
        }
    }
    out
}

/// The `uniform-256` serving stream at the given scale — shared with
/// the criterion companion bench (`benches/solve_throughput.rs`) so the
/// two always measure the same stream.
pub fn uniform_requests(scale: Scale) -> Vec<SolveRequest> {
    uniform_mix(scale).requests
}

fn uniform_mix(scale: Scale) -> Mix {
    let (topos, seeds, reps) = match scale {
        Scale::Quick => (2u64, 2u64, 3usize),
        Scale::Full => (4, 2, 4),
    };
    let mut catalog = Vec::new();
    for t in 1..=topos {
        let inst = shared_instance(256, t);
        for s in 1..=seeds {
            catalog.push((inst.clone(), s));
        }
    }
    Mix {
        name: "uniform-256",
        distinct: catalog.len(),
        requests: stream(&catalog, reps),
    }
}

fn mixed_sizes_mix(scale: Scale) -> Mix {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[256, 512, 1024],
        Scale::Full => &[256, 1024, 4096],
    };
    let mut catalog = Vec::new();
    for &n in sizes {
        let inst = shared_instance(n, 1);
        for s in 1..=2u64 {
            catalog.push((inst.clone(), s));
        }
    }
    Mix {
        name: "mixed-sizes",
        distinct: catalog.len(),
        requests: stream(&catalog, 2),
    }
}

fn repeat_topo_mix(scale: Scale) -> Mix {
    let seeds = match scale {
        Scale::Quick => 8u64,
        Scale::Full => 16,
    };
    let inst = shared_instance(256, 1);
    let catalog: Vec<(Shared, u64)> = (1..=seeds).map(|s| (inst.clone(), s)).collect();
    Mix {
        name: "repeat-topo-256",
        distinct: catalog.len(),
        requests: stream(&catalog, 1),
    }
}

fn fresh_topo_mix(scale: Scale) -> Mix {
    let topos = match scale {
        Scale::Quick => 8u64,
        Scale::Full => 16,
    };
    let catalog: Vec<(Shared, u64)> = (1..=topos).map(|t| (shared_instance(256, t), 1)).collect();
    Mix {
        name: "fresh-topo-256",
        distinct: catalog.len(),
        requests: stream(&catalog, 1),
    }
}

/// The three service arms, in baseline-first order.
fn arms() -> [(&'static str, ServiceConfig); 3] {
    [
        ("fresh", ServiceConfig::fresh_per_solve()),
        ("pooled", ServiceConfig::pooled_only()),
        ("service", ServiceConfig::default()),
    ]
}

/// Every distinct request of the mix must reproduce the one-shot solve
/// byte for byte (coloring and per-pass log).
fn assert_mix_matches_one_shot(mix: &Mix, served: &[Arc<SolveResult>]) {
    let mut checked: Vec<(usize, usize, SolveOptions)> = Vec::new();
    for (req, result) in mix.requests.iter().zip(served) {
        let key = (
            Arc::as_ptr(&req.graph) as usize,
            Arc::as_ptr(&req.lists) as usize,
            req.options,
        );
        if checked.contains(&key) {
            continue;
        }
        checked.push(key);
        let direct = solve(&req.graph, &req.lists, req.options).expect("one-shot solve");
        assert_eq!(
            direct.coloring, result.coloring,
            "{}: service coloring diverged from one-shot",
            mix.name
        );
        assert_eq!(
            direct.log.passes(),
            result.log.passes(),
            "{}: service pass log diverged from one-shot",
            mix.name
        );
    }
    assert_eq!(checked.len(), mix.distinct, "mix distinct-count drifted");
}

/// One probe request must reproduce identically across both engines
/// and every thread count (the reference plane is slow, so its arm runs
/// at 1 thread only).
fn assert_probe_engine_identity() {
    let (graph, lists) = shared_instance(256, 1);
    let run = |engine: EngineMode, threads: usize| {
        let opts = SolveOptions {
            engine,
            sim: SimConfig {
                threads,
                ..SimConfig::default()
            },
            ..SolveOptions::seeded(1)
        };
        solve(&graph, &lists, opts).expect("probe solve")
    };
    let server = SolveServer::start(ServiceConfig::default());
    let req = SolveRequest::shared(&graph, &lists, SolveOptions::seeded(1));
    let served = server.handle().solve(req).expect("server probe");
    for engine in [EngineMode::Session, EngineMode::Reference] {
        let threads: &[usize] = if engine == EngineMode::Reference {
            &[1]
        } else {
            &[1, 2, 8]
        };
        for &t in threads {
            let direct = run(engine, t);
            assert_eq!(
                served.coloring, direct.coloring,
                "probe coloring diverged: {engine:?} t={t}"
            );
            assert_eq!(
                served.log.passes(),
                direct.log.passes(),
                "probe pass log diverged: {engine:?} t={t}"
            );
        }
    }
}

/// E0c — service throughput over request mixes and arms.
pub fn e0c_service_throughput(scale: Scale) -> Table {
    assert_probe_engine_identity();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut t = Table::new(
        format!(
            "E0c — SolveServer closed-loop throughput, gnp-window request streams, engine \
             threads=1, 1 worker (min of {REPS} cold-start reps, host cores={cores})",
        ),
        "Pooled sessions + deterministic memoization serve the repeat-heavy uniform n=256 \
         mix ≥2× over fresh-session-per-solve; distinct-request mixes show the honest \
         session-reuse constant",
    );
    t.columns([
        "mix",
        "arm",
        "requests",
        "distinct",
        "wall ms",
        "solves/s",
        "speedup",
        "p50 ms",
        "p99 ms",
        "memo hits",
    ]);
    let mixes = [
        uniform_mix(scale),
        mixed_sizes_mix(scale),
        repeat_topo_mix(scale),
        fresh_topo_mix(scale),
    ];
    for mix in &mixes {
        let mut baseline_s = f64::INFINITY;
        for (arm, config) in arms() {
            let mut best_wall = f64::INFINITY;
            let mut best = None;
            let mut hits = 0u64;
            for _ in 0..REPS {
                let start = Instant::now();
                let (results, walls, rep_hits) = serve_stream(config, &mix.requests);
                let wall = start.elapsed().as_secs_f64();
                if wall < best_wall {
                    best_wall = wall;
                    hits = rep_hits;
                    best = Some((results, walls));
                }
            }
            let (results, walls) = best.expect("at least one rep");
            if arm == "service" {
                assert_mix_matches_one_shot(mix, &results);
            }
            if arm == "fresh" {
                baseline_s = best_wall;
            }
            t.row([
                mix.name.to_string(),
                arm.to_string(),
                mix.requests.len().to_string(),
                mix.distinct.to_string(),
                f2(best_wall * 1e3),
                f2(mix.requests.len() as f64 / best_wall),
                f2(baseline_s / best_wall),
                f2(percentile(&walls, 50).as_secs_f64() * 1e3),
                f2(percentile(&walls, 99).as_secs_f64() * 1e3),
                hits.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mixes are well-formed: advertised distinct counts match the
    /// streams, and repeats really are identity-level repeats.
    #[test]
    fn mixes_are_well_formed() {
        for mix in [
            uniform_mix(Scale::Quick),
            mixed_sizes_mix(Scale::Quick),
            repeat_topo_mix(Scale::Quick),
            fresh_topo_mix(Scale::Quick),
        ] {
            let mut keys: Vec<(usize, u64)> = mix
                .requests
                .iter()
                .map(|r| (Arc::as_ptr(&r.graph) as usize, r.options.seed))
                .collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), mix.distinct, "{}", mix.name);
            assert!(mix.requests.len() >= mix.distinct);
        }
        assert!(
            uniform_mix(Scale::Quick).requests.len() > uniform_mix(Scale::Quick).distinct,
            "the serving mix must contain repeats"
        );
        assert_eq!(
            repeat_topo_mix(Scale::Quick).requests.len(),
            repeat_topo_mix(Scale::Quick).distinct,
            "repeat-topo must not duplicate requests"
        );
    }

    /// A miniature end-to-end run of the three arms on a tiny stream:
    /// identical responses, and the memo arm records hits.
    #[test]
    fn arms_agree_on_tiny_stream() {
        let inst = shared_instance(64, 2);
        let catalog: Vec<(Shared, u64)> = vec![(inst.clone(), 1), (inst, 2)];
        let requests = stream(&catalog, 2);
        let mut colorings = Vec::new();
        for (_, config) in arms() {
            let (results, _, _) = serve_stream(config, &requests);
            colorings.push(
                results
                    .iter()
                    .map(|r| r.coloring.clone())
                    .collect::<Vec<_>>(),
            );
        }
        assert_eq!(colorings[0], colorings[1]);
        assert_eq!(colorings[0], colorings[2]);
    }
}
