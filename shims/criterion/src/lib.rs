//! Workspace-local, dependency-free stand-in for the [`criterion`]
//! benchmarking harness.
//!
//! The congest-coloring workspace builds in environments without registry
//! access, so this shim implements the subset of the criterion 0.5 API the
//! benches under `crates/bench/benches/` use:
//!
//! * [`Criterion::benchmark_group`] → [`BenchmarkGroup`] with chainable
//!   [`sample_size`](BenchmarkGroup::sample_size) /
//!   [`measurement_time`](BenchmarkGroup::measurement_time);
//! * [`BenchmarkGroup::bench_function`] and
//!   [`BenchmarkGroup::bench_with_input`] with [`BenchmarkId`];
//! * [`Bencher::iter`];
//! * the [`criterion_group!`] / [`criterion_main!`] macros, which take a
//!   name filter from the command line
//!   ([`Criterion::configure_from_args`]), so
//!   `cargo bench --bench NAME -- FILTER` runs only the benchmarks whose
//!   `group/function` id contains `FILTER`.
//!
//! Measurement model: each benchmark closure is warmed up once, then timed
//! for `sample_size` samples (default 10) or until `measurement_time` is
//! exhausted, whichever comes first; the median per-iteration wall time is
//! printed. This is intentionally simpler than criterion's bootstrap
//! statistics — the workspace uses these benches for smoke-compile checks
//! in CI (`cargo bench --no-run`) and for quick local comparisons, not for
//! publishable confidence intervals.
//!
//! [`criterion`]: https://crates.io/crates/criterion

#![warn(missing_docs)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifier of one benchmark within a group: a function name plus an
/// optional parameter rendered as `name/param`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Build an id of the form `function_name/parameter`.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Build an id carrying only a parameter (criterion compatibility).
    pub fn from_parameter<P: Display>(parameter: P) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_owned() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// Top-level benchmark driver; hands out [`BenchmarkGroup`]s.
#[derive(Debug, Default)]
pub struct Criterion {
    /// Run only the benchmarks whose `group/function` id contains this.
    filter: Option<String>,
}

impl Criterion {
    /// Take the name filter from the process arguments, as
    /// [`criterion_group!`] does: the first argument that is not a flag
    /// (cargo passes `--bench` itself). No such argument runs everything.
    /// Upstream matches the filter as a regex; a plain name reads the
    /// same there.
    #[must_use]
    pub fn configure_from_args(mut self) -> Self {
        self.filter = filter_from(std::env::args().skip(1));
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group<S: Into<String>>(&mut self, group_name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: group_name.into(),
            sample_size: 10,
            measurement_time: Duration::from_secs(3),
        }
    }
}

/// The first argument that is not a flag.
fn filter_from(args: impl IntoIterator<Item = String>) -> Option<String> {
    args.into_iter().find(|arg| !arg.starts_with('-'))
}

/// A named collection of benchmarks sharing sampling configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    measurement_time: Duration,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Bound the total time spent measuring one benchmark.
    pub fn measurement_time(&mut self, dur: Duration) -> &mut Self {
        self.measurement_time = dur;
        self
    }

    /// Run a benchmark with no external input.
    pub fn bench_function<I, F>(&mut self, id: I, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        self.run(&id.id, |b| f(b));
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I, F, T: ?Sized>(&mut self, id: I, input: &T, mut f: F) -> &mut Self
    where
        I: Into<BenchmarkId>,
        F: FnMut(&mut Bencher, &T),
    {
        let id = id.into();
        self.run(&id.id, |b| f(b, input));
        self
    }

    fn run<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) {
        let full = format!("{}/{id}", self.name);
        if let Some(filter) = &self.criterion.filter {
            if !full.contains(filter.as_str()) {
                return;
            }
        }
        let mut bencher = Bencher {
            samples: Vec::with_capacity(self.sample_size),
            sample_size: self.sample_size,
            deadline: Instant::now() + self.measurement_time,
        };
        f(&mut bencher);
        let mut samples = bencher.samples;
        if samples.is_empty() {
            println!("{full}: no samples collected");
            return;
        }
        samples.sort_unstable();
        let median = samples[samples.len() / 2];
        println!("{full}: median {median:?} over {} samples", samples.len());
    }

    /// Finish the group (marker for criterion source compatibility).
    pub fn finish(self) {}
}

/// Timing handle passed to every benchmark closure.
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
    deadline: Instant,
}

impl Bencher {
    /// Time `routine`, collecting up to the configured number of samples
    /// (bounded by the group's measurement time). The routine's output is
    /// passed through [`black_box`] so the optimizer cannot elide it.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        // One warm-up run, untimed.
        black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            black_box(routine());
            self.samples.push(start.elapsed());
            if Instant::now() >= self.deadline {
                break;
            }
        }
    }
}

/// Bundle benchmark functions into a named group runner, mirroring
/// `criterion::criterion_group!`: the runner takes its name filter from
/// the command line ([`Criterion::configure_from_args`]).
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Generate `main` running every listed group, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_group_collects_samples_and_finishes() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("shim-self-test");
        group
            .sample_size(3)
            .measurement_time(Duration::from_millis(50));
        let mut runs = 0u32;
        group.bench_function("counting", |b| b.iter(|| runs += 1));
        group.bench_with_input(BenchmarkId::new("with-input", 5), &5u64, |b, &x| {
            b.iter(|| x * 2)
        });
        group.finish();
        // warm-up + up to 3 samples
        assert!(runs >= 2);
    }

    /// A name filter runs only the benchmarks whose `group/function` id
    /// contains it; the filter is the first argument that is not a flag.
    #[test]
    fn name_filter_runs_only_matching_benchmarks() {
        let mut c = Criterion {
            filter: Some("send-all/sig".to_string()),
        };
        let mut group = c.benchmark_group("round");
        group
            .sample_size(1)
            .measurement_time(Duration::from_millis(50));
        let (mut skipped, mut kept) = (0u32, 0u32);
        group.bench_function("bcast-all/signature", |b| b.iter(|| skipped += 1));
        group.bench_function("send-all/signature", |b| b.iter(|| kept += 1));
        group.finish();
        assert_eq!(
            (skipped, kept),
            (0, 2),
            "warm-up + one sample of the match only"
        );
        let args = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(
            filter_from(args(&["--bench", "send-all/signature"])),
            Some("send-all/signature".to_string())
        );
        assert_eq!(filter_from(args(&["--bench"])), None);
    }
}
