//! What each workload runs. Everything here is a pure function of the
//! workload and its `--seed` (and, for the operation count, `--seconds`):
//! the same seed always yields the same instances, solve seeds, request
//! stream and repeat share, whichever commit is measured.
//!
//! Operation counts are fixed per run length, never "as many as fit":
//! a faster commit does the same work in less time.

use graphs::gen::{self, CliqueBlendParams};
use graphs::palette::{shared_window_lists, ListAssignment};
use graphs::Graph;
use std::sync::Arc;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// gnp-window (S1) at n = 8192, closed loop, one caller.
    SparseSolve,
    /// blend-window (S2) at n = 4096, closed loop, one caller.
    DenseSolve,
    /// An open-loop `SolveServer` over four gnp-window n = 256 instances.
    ServeOpen,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SparseSolve,
        Workload::DenseSolve,
        Workload::ServeOpen,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SparseSolve => "sparse-solve",
            Workload::DenseSolve => "dense-solve",
            Workload::ServeOpen => "serve-open",
        }
    }

    /// Set-ups per run; `setup_s` is their median. Serve-open's set-up
    /// lasts ~70 ms, so it repeats more to steady its median.
    pub fn setup_repeats(self) -> usize {
        match self {
            Workload::SparseSolve | Workload::DenseSolve => 3,
            Workload::ServeOpen => 9,
        }
    }

    /// Look a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// SplitMix64 of `seed` and `tag`: the benchmark's own seed derivation,
/// kept here so library changes can never alter the inputs.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seed-derivation tags, one per input stream.
const TAG_WARMUP: u64 = 0x3a4d;
const TAG_TIMED: u64 = 0x71ed;
const TAG_STREAM: u64 = 0x5743;

/// One D1LC instance, shared by `Arc` so server requests can key the memo
/// by pointer identity.
pub struct Instance {
    /// Family label.
    pub family: &'static str,
    /// The graph.
    pub graph: Arc<Graph>,
    /// The (degree+1)-list assignment.
    pub lists: Arc<ListAssignment>,
}

/// The S1 sweep family: G(n, 24/n) with lists drawn from a shared window
/// of Δ + Δ/4 + 1 colors (heavy contention).
pub fn gnp_window(n: usize, seed: u64) -> Instance {
    let graph = gen::gnp(n, (24.0 / n as f64).min(0.5), seed);
    let window = graph.max_degree() as u64 + graph.max_degree() as u64 / 4 + 1;
    let lists = shared_window_lists(&graph, window, seed ^ 0x33);
    Instance {
        family: "gnp-window",
        graph: Arc::new(graph),
        lists: Arc::new(lists),
    }
}

/// The S2 sweep family: planted almost-cliques of size max(24, n/40)
/// covering a third of the nodes over a sparse G(n, 8/n) background,
/// with shared-window lists.
pub fn blend_window(n: usize, seed: u64) -> Instance {
    let clique_size = 24.max(n / 40);
    let cliques = (n / 3) / clique_size;
    let graph = gen::clique_blend(
        CliqueBlendParams {
            cliques,
            clique_size,
            removal: 0.05,
            sparse_nodes: n - cliques * clique_size,
            sparse_p: (8.0 / n as f64).min(0.3),
        },
        seed,
    );
    let window = graph.max_degree() as u64 + graph.max_degree() as u64 / 4 + 1;
    let lists = shared_window_lists(&graph, window, seed ^ 0x44);
    Instance {
        family: "blend-window",
        graph: Arc::new(graph),
        lists: Arc::new(lists),
    }
}

/// Instance seed of both solve workloads: the S-sweeps' first seed,
/// whatever the workload seed, which draws the solve seeds. With a
/// seed-drawn n = 8192 instance, `rounds_at_b` ranged 170-178 and the
/// median solve 0.77-0.86 s over five seeds, tracking each other.
pub const SOLVE_INSTANCE_SEED: u64 = 1;
/// Node count of the sparse-solve instance.
pub const SPARSE_N: usize = 8192;
/// Node count of the dense-solve instance.
pub const DENSE_N: usize = 4096;
/// Timed solves per second of run length, per solve workload: about one
/// worker's throughput at the commit that defined the benchmark, so a run
/// of `--seconds s` lasts about `s` there.
const SPARSE_SOLVES_PER_SECOND: f64 = 1.35;
const DENSE_SOLVES_PER_SECOND: f64 = 0.45;
/// Discarded warm-up solves before the timed ones (the first solve in a
/// process runs slow).
pub const WARMUP_SOLVES: usize = 1;

/// A closed-loop solve workload's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SolvePlan {
    /// Seed of the one instance every solve colors.
    pub instance_seed: u64,
    /// Solve seeds of the discarded warm-up solves.
    pub warmup_seeds: Vec<u64>,
    /// Solve seeds of the timed solves, all distinct.
    pub timed_seeds: Vec<u64>,
}

impl SolvePlan {
    /// The plan of a solve workload.
    ///
    /// # Panics
    ///
    /// Panics on [`Workload::ServeOpen`], which has a [`ServePlan`].
    pub fn new(workload: Workload, seed: u64, seconds: u64) -> SolvePlan {
        let rate = match workload {
            Workload::SparseSolve => SPARSE_SOLVES_PER_SECOND,
            Workload::DenseSolve => DENSE_SOLVES_PER_SECOND,
            Workload::ServeOpen => panic!("serve-open has no solve plan"),
        };
        let timed = ((seconds as f64 * rate).round() as usize).max(3);
        SolvePlan {
            instance_seed: SOLVE_INSTANCE_SEED,
            warmup_seeds: (0..WARMUP_SOLVES as u64)
                .map(|k| mix(seed, TAG_WARMUP ^ (k << 16)))
                .collect(),
            timed_seeds: (0..timed as u64)
                .map(|k| mix(seed, TAG_TIMED ^ (k << 16)))
                .collect(),
        }
    }

    /// The instance this plan colors.
    pub fn instance(&self, workload: Workload) -> Instance {
        match workload {
            Workload::SparseSolve => gnp_window(SPARSE_N, self.instance_seed),
            Workload::DenseSolve => blend_window(DENSE_N, self.instance_seed),
            Workload::ServeOpen => panic!("serve-open has no solve plan"),
        }
    }
}

/// Node count of every serve-open instance.
pub const SERVE_N: usize = 256;
/// Instances the serve-open requests cover: gnp-window at the S1 sweep's
/// seeds 1..=4 whatever the workload seed, which drives the request
/// stream. Seed-drawn catalogs of four moved `rounds_at_b` over 145-162
/// across five seeds, and the run's medians with it.
pub const SERVE_INSTANCES: usize = 4;
/// Fixed arrival rate (requests/s): near 40% of one worker's capacity at
/// the commit that defined the benchmark. A constant, never derived from
/// a measurement, so a faster commit sees the same load.
pub const ARRIVAL_RATE: f64 = 40.0;
/// Every `REPEAT_EVERY`-th request repeats an earlier one exactly.
pub const REPEAT_EVERY: usize = 4;
/// Repeats pick uniformly among this many most recent distinct requests.
pub const REPEAT_WINDOW: usize = 48;
/// The server's memo capacity: room for the repeat window with margin.
/// The server's default of 128 kept so many responses that peak RSS
/// swung 25-42 MiB between seeds; at 64 it stayed within 22-25 MiB.
pub const SERVE_MEMO: usize = 64;
/// Requests per segment of the timed stream; the server drains and the
/// host-speed gauge is read between segments.
pub const SEGMENT_REQUESTS: usize = 50;
/// Distinct warm-up requests served before the timed stream.
pub const SERVE_WARMUP: usize = 8;
/// Distinct stream requests the traced run replays for its solver spans.
pub const SERVE_REPLAYS: usize = 48;

/// One serve-open request: which instance, which solve seed, and whether
/// it exactly repeats an earlier request of the stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    /// Index into the instance catalog.
    pub instance: usize,
    /// Solve seed (with the instance, the memo key).
    pub seed: u64,
    /// Whether this request repeats an earlier stream request.
    pub repeat: bool,
}

/// The serve-open workload's inputs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServePlan {
    /// Seeds of the catalog instances (fixed; see [`SERVE_INSTANCES`]).
    pub instance_seeds: Vec<u64>,
    /// Warm-up requests; their memo keys never occur in `stream`.
    pub warmup: Vec<Request>,
    /// The timed request stream, sent at [`ARRIVAL_RATE`].
    pub stream: Vec<Request>,
}

impl ServePlan {
    /// The plan for `seed` and a run of `seconds`.
    pub fn new(seed: u64, seconds: u64) -> ServePlan {
        let total = ((seconds as f64 * ARRIVAL_RATE).round() as usize).max(REPEAT_EVERY);
        let mut rng = mix(seed, TAG_STREAM);
        let mut next = |bound: usize| {
            rng = mix(rng, 1);
            (rng % bound as u64) as usize
        };
        let mut distinct: Vec<Request> = Vec::new();
        let mut stream = Vec::with_capacity(total);
        for i in 0..total {
            if i % REPEAT_EVERY == REPEAT_EVERY - 1 {
                let window = distinct.len().min(REPEAT_WINDOW);
                let pick = distinct[distinct.len() - window + next(window)];
                stream.push(Request {
                    repeat: true,
                    ..pick
                });
            } else {
                let request = Request {
                    instance: next(SERVE_INSTANCES),
                    seed: mix(seed, TAG_TIMED ^ ((distinct.len() as u64) << 16)),
                    repeat: false,
                };
                distinct.push(request);
                stream.push(request);
            }
        }
        ServePlan {
            instance_seeds: (1..=SERVE_INSTANCES as u64).collect(),
            warmup: (0..SERVE_WARMUP)
                .map(|k| Request {
                    instance: k % SERVE_INSTANCES,
                    seed: mix(seed, TAG_WARMUP ^ ((k as u64) << 16)),
                    repeat: false,
                })
                .collect(),
            stream,
        }
    }

    /// The instance catalog.
    pub fn catalog(&self) -> Vec<Instance> {
        self.instance_seeds
            .iter()
            .map(|&s| gnp_window(SERVE_N, s))
            .collect()
    }

    /// Share of stream requests that repeat an earlier one.
    pub fn repeat_share(&self) -> f64 {
        let repeats = self.stream.iter().filter(|r| r.repeat).count();
        repeats as f64 / self.stream.len() as f64
    }

    /// The distinct requests the traced run replays.
    pub fn replays(&self) -> Vec<Request> {
        self.stream
            .iter()
            .filter(|r| !r.repeat)
            .take(SERVE_REPLAYS)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn same_instance(a: &Instance, b: &Instance) -> bool {
        let g = |i: &Instance| {
            (0..i.graph.n() as u32)
                .map(|v| (i.graph.neighbors(v).to_vec(), i.lists.list(v).to_vec()))
                .collect::<Vec<_>>()
        };
        g(a) == g(b)
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn instance_constructors_are_the_sweep_families() {
        for seed in [1, 2] {
            let ours = gnp_window(300, seed);
            let theirs = bench::workloads::gnp_window(300, seed);
            assert!(same_instance(
                &ours,
                &Instance {
                    family: theirs.name,
                    graph: Arc::new(theirs.graph),
                    lists: Arc::new(theirs.lists),
                }
            ));
            let ours = blend_window(600, seed);
            let theirs = bench::workloads::blend_window(600, seed);
            assert!(same_instance(
                &ours,
                &Instance {
                    family: theirs.name,
                    graph: Arc::new(theirs.graph),
                    lists: Arc::new(theirs.lists),
                }
            ));
        }
    }

    #[test]
    fn a_seed_always_yields_the_same_solve_plan_and_instance() {
        for w in [Workload::SparseSolve, Workload::DenseSolve] {
            let a = SolvePlan::new(w, 7, 30);
            assert_eq!(a, SolvePlan::new(w, 7, 30));
            assert_ne!(a, SolvePlan::new(w, 8, 30));
            let mut seeds = a.timed_seeds.clone();
            seeds.extend(&a.warmup_seeds);
            seeds.sort_unstable();
            seeds.dedup();
            assert_eq!(seeds.len(), a.timed_seeds.len() + a.warmup_seeds.len());
        }
        // The count depends on the run length only.
        let short = SolvePlan::new(Workload::SparseSolve, 7, 10).timed_seeds;
        let long = SolvePlan::new(Workload::SparseSolve, 7, 30).timed_seeds;
        assert!(short.len() * 2 < long.len());
        assert_eq!(short[..], long[..short.len()]);
        // The instance is the sweep's, whatever the workload seed.
        assert_eq!(SolvePlan::new(Workload::DenseSolve, 3, 1).instance_seed, 1);
        assert!(same_instance(&gnp_window(400, 1), &gnp_window(400, 1)));
    }

    #[test]
    fn a_seed_always_yields_the_same_request_stream() {
        let a = ServePlan::new(11, 30);
        assert_eq!(a, ServePlan::new(11, 30));
        assert_ne!(a.stream, ServePlan::new(12, 30).stream);
        assert_eq!(a.stream.len(), 1200);
        assert_eq!(a.instance_seeds, ServePlan::new(12, 30).instance_seeds);
        assert_eq!(a.repeat_share(), 0.25);
        assert_eq!(ServePlan::new(12, 30).repeat_share(), 0.25);
        let catalog = a.catalog();
        assert_eq!(catalog.len(), SERVE_INSTANCES);
        assert!(same_instance(&catalog[2], &a.catalog()[2]));
    }

    #[test]
    fn repeats_are_exact_and_recent_and_warmups_never_collide() {
        let plan = ServePlan::new(5, 30);
        let mut distinct: Vec<Request> = Vec::new();
        for r in &plan.stream {
            if r.repeat {
                let window = &distinct[distinct.len().saturating_sub(REPEAT_WINDOW)..];
                assert!(window
                    .iter()
                    .any(|d| d.instance == r.instance && d.seed == r.seed));
            } else {
                assert!(distinct.iter().all(|d| d.seed != r.seed), "distinct seeds");
                distinct.push(*r);
            }
        }
        for w in &plan.warmup {
            assert!(plan.stream.iter().all(|r| r.seed != w.seed));
        }
        // Every instance is requested.
        for k in 0..SERVE_INSTANCES {
            assert!(plan.stream.iter().any(|r| r.instance == k));
        }
        assert_eq!(plan.replays().len(), SERVE_REPLAYS);
    }
}
