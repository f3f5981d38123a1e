//! The repository's benchmark: runs one named workload against the D1LC
//! solver or its solve server and prints the metrics by name.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sparse-solve|dense-solve|serve-open> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! # Workloads (one process each; laptop profile; engine threads = 1)
//!
//! * `sparse-solve` — gnp-window (S1) at n = 8192; one caller solves it in
//!   a closed loop, each solve with a distinct seed. The sparse path and
//!   the fallback do most of the work; the dense path is nearly idle.
//! * `dense-solve` — blend-window (S2) at n = 4096, same loop. The ACD's
//!   Σ deg² similarity signatures dominate; the sparse path is idle.
//! * `serve-open` — an open-loop stream at a fixed 40 requests/s into a
//!   one-worker `SolveServer` (queue 64, memo 64, `Admission::Reject`) over four
//!   gnp-window n = 256 instances; every fourth request exactly repeats
//!   one of the last 48 distinct ones. The only workload through the
//!   queue, the memo, single-flight and pooled-core rebinds.
//!
//! Inputs are a pure function of `--seed`; the operation count is fixed by
//! `--seconds` (see [`plan`]). Set-up (instance generation, server start,
//! warm-up) runs several times and reports its median; the last set-up's
//! instances are then timed. The process pins itself to the CPU it starts
//! on, so its threads and the gauge share one core.
//!
//! Every reported time is rescaled to one reference host speed by the
//! [`gauge`]: fixed work of the benchmark's own, read before and after
//! each set-up, each closed-loop solve and each 50-request segment of the
//! serve-open stream. A reading is the host's slowdown against the
//! reference host; a time measured between readings `g0` and `g1` is
//! reported as `time / mean(g0, g1)`. The host's speed drifts by up to
//! 1.7× with its neighbours' load; a faster commit still reads faster,
//! because the gauge's work never changes. The unscaled medians and the
//! host's speed are printed as notes.
//!
//! # Output
//!
//! Human-readable lines (host, one line per metric with its unit and
//! sample count), then one JSON line:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! A failure is a solve error, an improper coloring, a rejected or failed
//! ticket, or (traced) a replay that does not reproduce `solve()`.
//!
//! End-to-end metrics (`--trace 0`):
//! * `solve_s` — median time of one solve: the `d1lc::solve` call in the
//!   closed loops; the worker's service time of each enqueued request on
//!   serve-open (split from outside, see [`stats::fifo_split`]).
//! * `p50_ms` — median request latency from its due time to completion.
//!   The closed-loop caller sends each solve when the previous returns,
//!   so there it is the median solve latency.
//! * `rounds_at_b` — mean `normalized_rounds(B)` over the run's distinct
//!   solves, `B = SimConfig::congest_bits(n, 2)`. Repeats exactly per seed.
//! * `setup_s` — median of the set-ups (three on the solve workloads,
//!   nine on serve-open, whose set-up lasts ~70 ms); the first is timed
//!   from process start.
//! * `peak_rss_mb` — `VmHWM` at the end of the run, less the gauge's own
//!   resident memory (allocated first and held throughout).
//!
//! No tail percentile is bounded. On serve-open, the only workload with
//! enough requests for one, p90 spanned 18-37 ms and p99 21-67 ms over
//! seven 30 s runs on that VM as its CPU steal ranged 0.4-11%, so runs
//! print them (with whether ten samples lie beyond) and the traced run
//! reports them as `server.latency_ms.p90`/`.p99`, unbounded.
//!
//! Per-layer metrics (`--trace 1`, a separate run of the same
//! operations): spans around each solver layer from a replay of every
//! timed solve ([`trace`]), server counter deltas and the outside-in
//! wait/service split on serve-open, generation time, generator lateness,
//! CPU steal, the host's speed, and the tracing overhead. Their times are
//! not rescaled. On the closed loops, which have
//! no server, the `server.*` counts are zero and the request timings
//! describe the caller's direct `solve()` calls: service is the call,
//! wait and submit the hand-over before it.

mod gauge;
mod host;
mod plan;
mod serve;
mod stats;
mod trace;

use congest::SimConfig;
use d1lc::server::SolveServer;
use d1lc::service::{Admission, ServiceConfig};
use d1lc::{solve, SolveOptions, SolveResult};
use gauge::{rescale, Gauge};
use graphs::palette::check_coloring;
use host::{CpuTicks, Host};
use plan::{Instance, ServePlan, SolvePlan, Workload};
use serve::OpenLoop;
use stats::{median, percentile, sorted, supports};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{replay, Span, Tracer};

/// Bandwidth multiplier of the S-sweeps' `O(log n)` budget.
const BANDWIDTH_MULTIPLIER: u64 = 2;

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| bad(&names.join(" | ")))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|&s: &u64| (1..=600).contains(&s))
                        .ok_or_else(|| bad("1..=600"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// What a run prints.
#[derive(Default)]
struct Report {
    attempted: usize,
    failed: usize,
    /// Replays that did not reproduce `solve()` (traced runs).
    mismatches: usize,
    metrics: Vec<Metric>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.mismatches == 0
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// Whether `result` is a proper list coloring of `inst`.
fn proper(inst: &Instance, result: &SolveResult) -> bool {
    check_coloring(&inst.graph, &inst.lists, &result.coloring).is_ok()
}

fn bandwidth(inst: &Instance) -> u64 {
    SimConfig::congest_bits(inst.graph.n(), BANDWIDTH_MULTIPLIER)
}

/// Request latencies in ms: the median as `p50_ms`, and the unbounded
/// tail as a note.
fn latency_metrics(report: &mut Report, latencies_ms: &[f64]) {
    let n = latencies_ms.len();
    if n == 0 {
        return;
    }
    let sorted = sorted(latencies_ms);
    report.metric("p50_ms", percentile(&sorted, 50), "ms", n);
    for p in [90, 99] {
        let rule = if supports(n, p) {
            ""
        } else {
            ", fewer than ten beyond"
        };
        report.notes.push(format!(
            "latency p{p} {} ms (unbounded{rule})",
            percentile(&sorted, p)
        ));
    }
}

/// Set up `repeats` times, each between two gauge readings; records
/// `setup_s` (and, traced, `graphs.gen_s`) and returns the last set-up's
/// output with the gauge reading after it. The first set-up also counts
/// `before_gauge`, the process's start up to building the gauge.
fn repeated_setup<T>(
    repeats: usize,
    before_gauge: Duration,
    gauge: &mut Gauge,
    report: &mut Report,
    trace: bool,
    mut setup: impl FnMut(&mut Report) -> (T, Duration),
) -> (T, f64) {
    let (mut kept, mut totals, mut gens) = (None, Vec::new(), Vec::new());
    let mut before = gauge.read();
    for k in 0..repeats {
        drop(kept.take());
        let start = Instant::now();
        let (out, gen) = setup(report);
        let wall = start.elapsed() + if k == 0 { before_gauge } else { Duration::ZERO };
        let after = gauge.read();
        totals.push(rescale(wall, before, after));
        gens.push(gen.as_secs_f64());
        kept = Some(out);
        before = after;
    }
    if trace {
        report.metric("graphs.gen_s", median(&gens), "s", gens.len());
    } else {
        report.metric("setup_s", median(&totals), "s", totals.len());
    }
    (kept.expect("at least one set-up"), before)
}

/// One closed-loop solve and what it cost.
struct Solved {
    result: SolveResult,
    /// Wall time of the `solve` call.
    wall: Duration,
    /// The caller's hand-over from deciding to send the solve to the call.
    handover: Duration,
}

/// One closed-loop solve. Counts a failure on a solve error or an
/// improper coloring.
fn timed_solve(inst: &Instance, seed: u64, report: &mut Report) -> Option<Solved> {
    let due = Instant::now();
    let opts = SolveOptions::seeded(seed);
    let start = Instant::now();
    let out = solve(&inst.graph, &inst.lists, opts);
    let wall = start.elapsed();
    match out {
        Ok(result) if proper(inst, &result) => Some(Solved {
            result,
            wall,
            handover: start - due,
        }),
        _ => {
            report.failed += 1;
            None
        }
    }
}

/// Replay `seed` on `inst` and record it against the untraced solve,
/// alternating which of the two runs first. Returns the untraced solve.
fn traced_solve(
    inst: &Instance,
    seed: u64,
    replay_first: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<Solved> {
    let traced = || replay(&inst.graph, &inst.lists, SolveOptions::seeded(seed)).ok();
    let (rep, solved) = if replay_first {
        let rep = traced();
        (rep, timed_solve(inst, seed, report))
    } else {
        let solved = timed_solve(inst, seed, report);
        (traced(), solved)
    };
    let solved = solved?;
    match rep {
        Some(rep) => tracer.record(&rep, &solved.result, solved.wall),
        None => tracer.mismatches += 1,
    }
    Some(solved)
}

/// sparse-solve and dense-solve.
fn run_solve(workload: Workload, args: &Args, before_gauge: Duration, gauge: &mut Gauge) -> Report {
    let mut report = Report::default();
    let plan = SolvePlan::new(workload, args.seed, args.seconds);
    let repeats = workload.setup_repeats();
    let (inst, mut last) = repeated_setup(
        repeats,
        before_gauge,
        gauge,
        &mut report,
        args.trace,
        |report| {
            let gen_start = Instant::now();
            let inst = plan.instance(workload);
            let gen = gen_start.elapsed();
            for &seed in &plan.warmup_seeds {
                timed_solve(&inst, seed, report);
            }
            (inst, gen)
        },
    );
    report.notes.push(format!(
        "{} n={} m={} max_degree={}: {} timed solves after {} warm-up",
        inst.family,
        inst.graph.n(),
        inst.graph.m(),
        inst.graph.max_degree(),
        plan.timed_seeds.len(),
        plan.warmup_seeds.len()
    ));
    let b = bandwidth(&inst);
    let (mut walls, mut rescaled, mut handovers) = (Vec::new(), Vec::new(), Vec::new());
    let mut rounds = 0u64;
    let mut tracer = Tracer::default();
    for (i, &seed) in plan.timed_seeds.iter().enumerate() {
        report.attempted += 1;
        let solved = if args.trace {
            traced_solve(&inst, seed, i % 2 == 0, &mut tracer, &mut report)
        } else {
            timed_solve(&inst, seed, &mut report)
        };
        let next = gauge.read();
        if let Some(s) = solved {
            walls.push(s.wall);
            rescaled.push(rescale(s.wall, last, next));
            handovers.push(s.handover);
            rounds += s.result.normalized_rounds(b);
        }
        last = next;
    }
    if args.trace {
        report.mismatches = tracer.mismatches;
        let layers = Requests {
            latency: walls.clone(),
            service: walls,
            late: handovers.iter().copied().max().unwrap_or_default(),
            wait: handovers.clone(),
            submit: handovers,
            ..Requests::default()
        };
        layer_metrics(&mut report, &tracer, &layers);
    } else if !walls.is_empty() {
        let ms: Vec<f64> = rescaled.iter().map(|s| s * 1e3).collect();
        report.metric("solve_s", median(&rescaled), "s", rescaled.len());
        latency_metrics(&mut report, &ms);
        report.metric(
            "rounds_at_b",
            rounds as f64 / walls.len() as f64,
            "rounds",
            walls.len(),
        );
        let walls: Vec<f64> = walls.iter().map(Duration::as_secs_f64).collect();
        report.notes.push(format!(
            "median solve wall time {} s, unscaled",
            median(&walls)
        ));
    }
    report
}

/// serve-open.
fn run_serve(args: &Args, before_gauge: Duration, gauge: &mut Gauge) -> Report {
    let mut report = Report::default();
    let plan = ServePlan::new(args.seed, args.seconds);
    let config = ServiceConfig::builder()
        .workers(1)
        .queue(64)
        .memo(plan::SERVE_MEMO)
        .admission(Admission::Reject)
        .build()
        .expect("valid server config");
    let repeats = Workload::ServeOpen.setup_repeats();
    let setup = repeated_setup(
        repeats,
        before_gauge,
        gauge,
        &mut report,
        args.trace,
        |report| {
            let gen_start = Instant::now();
            let catalog = plan.catalog();
            let gen = gen_start.elapsed();
            let server = SolveServer::start(config);
            let handle = server.handle();
            for req in &plan.warmup {
                let inst = &catalog[req.instance];
                match handle.solve(serve::request(&catalog, req)) {
                    Ok(result) if proper(inst, &result) => {}
                    _ => report.failed += 1,
                }
            }
            ((catalog, server), gen)
        },
    );
    let ((catalog, server), mut last) = setup;
    report.notes.push(format!(
        "{} x gnp-window n={}: {} requests at {}/s in segments of {}, repeat share {}",
        catalog.len(),
        plan::SERVE_N,
        plan.stream.len(),
        plan::ARRIVAL_RATE,
        plan::SEGMENT_REQUESTS,
        plan.repeat_share()
    ));
    let handle = server.handle();
    let before = handle.stats();
    let mut run = OpenLoop::default();
    let (mut latencies_ms, mut service) = (Vec::new(), Vec::new());
    for segment in plan.stream.chunks(plan::SEGMENT_REQUESTS) {
        let part = serve::open_loop(&handle, &catalog, segment, plan::ARRIVAL_RATE);
        let next = gauge.read();
        latencies_ms.extend(part.latencies.iter().map(|&l| rescale(l, last, next) * 1e3));
        service.extend(part.splits.iter().map(|s| rescale(s.service, last, next)));
        run.absorb(part);
        last = next;
    }
    let stats = serve::delta(handle.stats(), before);
    drop(handle);
    drop(server);
    report.attempted = run.attempted;
    report.failed = run.failed;
    if args.trace {
        let mut tracer = Tracer::default();
        for (i, req) in plan.replays().iter().enumerate() {
            traced_solve(
                &catalog[req.instance],
                req.seed,
                i % 2 == 0,
                &mut tracer,
                &mut report,
            );
        }
        report.mismatches = tracer.mismatches;
        let layers = Requests {
            latency: run.latencies,
            service: run.splits.iter().map(|s| s.service).collect(),
            wait: run.splits.iter().map(|s| s.wait).collect(),
            submit: run.submit_times,
            stats,
            late: run.max_lateness,
        };
        layer_metrics(&mut report, &tracer, &layers);
    } else {
        if !service.is_empty() {
            report.metric("solve_s", median(&service), "s", service.len());
        }
        latency_metrics(&mut report, &latencies_ms);
        report.metric(
            "rounds_at_b",
            run.rounds_at_b as f64 / run.distinct.max(1) as f64,
            "rounds",
            run.distinct,
        );
        if !run.latencies.is_empty() {
            let walls: Vec<f64> = run.latencies.iter().map(Duration::as_secs_f64).collect();
            report.notes.push(format!(
                "median latency {} ms, unscaled",
                median(&walls) * 1e3
            ));
        }
        report.notes.push(format!(
            "generator max lateness {:.3} ms",
            run.max_lateness.as_secs_f64() * 1e3
        ));
    }
    report
}

/// The request layer of a traced run. On serve-open: each request's
/// latency from its due time, the outside-in wait/service split of each
/// enqueued job, each submit call, the server's counter deltas and the
/// generator's worst lateness. On the closed loops, which have no
/// server: each direct `solve()` call is the latency and the service,
/// the caller's hand-over before it the wait and the submit, and the
/// counters are zero.
#[derive(Default)]
struct Requests {
    latency: Vec<Duration>,
    service: Vec<Duration>,
    wait: Vec<Duration>,
    submit: Vec<Duration>,
    stats: d1lc::ServerStats,
    late: Duration,
}

/// The per-layer metrics of a traced run.
fn layer_metrics(report: &mut Report, tracer: &Tracer, requests: &Requests) {
    let solves = tracer.solves();
    if report.mismatches == 0 && solves > 0 {
        for (name, value, unit) in tracer.metrics() {
            report.metric(name, value, unit, solves);
        }
        report.metric(
            "trace.overhead_share",
            tracer.overhead_share(),
            "share",
            solves,
        );
        for span in [Span::Acd, Span::Sparse, Span::Dense] {
            report.notes.push(format!(
                "{} share of a traced solve: {:.3}",
                span.name(),
                tracer.share(span)
            ));
        }
    } else {
        report
            .notes
            .push("trace failed: a replay did not reproduce solve()".into());
    }
    let mut times = |name: &str, samples: &[Duration], scale: f64, unit, ps: &[u32]| {
        if samples.is_empty() {
            return;
        }
        let values = sorted(
            &samples
                .iter()
                .map(|d| d.as_secs_f64() * scale)
                .collect::<Vec<_>>(),
        );
        for &p in ps {
            report.metric(
                format!("{name}.p{p}"),
                percentile(&values, p),
                unit,
                values.len(),
            );
        }
    };
    times("server.latency_ms", &requests.latency, 1e3, "ms", &[90, 99]);
    times("server.service_ms", &requests.service, 1e3, "ms", &[50, 99]);
    times("server.queue_wait_ms", &requests.wait, 1e3, "ms", &[50, 99]);
    times("server.submit_us", &requests.submit, 1e6, "us", &[50]);
    let stats = &requests.stats;
    let hits = (stats.memo_hits + stats.dedup_joins) as f64;
    report.metric(
        "server.hit_share",
        hits / stats.submitted.max(1) as f64,
        "share",
        stats.submitted as usize,
    );
    report.metric("server.rebinds", stats.rebinds as f64, "count", 1);
    report.metric(
        "server.same_graph_rebinds",
        stats.same_graph_rebinds as f64,
        "count",
        1,
    );
    report.metric("server.rejected", stats.rejected as f64, "count", 1);
    report.metric(
        "bench.gen_late_ms",
        requests.late.as_secs_f64() * 1e3,
        "ms",
        1,
    );
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let ticks = CpuTicks::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sparse-solve|dense-solve|serve-open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    println!(
        "# perfbench {} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let cpu = host::pin_to_current_cpu();
    let before_gauge = process_start.elapsed();
    let rss_before_gauge = host::rss_mib();
    let mut gauge = Gauge::new();
    let gauge_rss = host::rss_mib() - rss_before_gauge;
    let mut report = match args.workload {
        Workload::ServeOpen => run_serve(&args, before_gauge, &mut gauge),
        w => run_solve(w, &args, before_gauge, &mut gauge),
    };
    let steal = CpuTicks::now().since(ticks);
    if args.trace {
        report.metric("bench.steal_share", steal.steal_share(), "share", 1);
        report.metric("bench.host_speed", gauge.speed(), "x", gauge.readings());
    } else {
        report.metric("peak_rss_mb", host::peak_rss_mib() - gauge_rss, "MiB", 1);
        report.notes.push(format!(
            "host speed {:.3}x the reference over {} gauge readings",
            gauge.speed(),
            gauge.readings()
        ));
    }
    println!(
        "# host nproc={} cpu={:?} rustc={:?} steal_ticks={} of {} pinned_to={cpu:?}",
        host.nproc, host.cpu, host.rustc, steal.steal, steal.total
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!(
            "{:<28} {:>22} {:<8} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "# attempted={} failed={} correct={}",
        report.attempted,
        report.failed,
        report.correct()
    );
    println!("{}", report.json());
    ExitCode::SUCCESS
}
