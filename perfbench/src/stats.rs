//! Summary statistics and the outside-in queue split.

use std::time::Duration;

/// The fewest samples that must lie beyond a percentile for it to count
/// as measured rather than as the run's few worst samples.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// Nearest-rank `p`-th percentile of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie beyond the nearest-rank `p`-th percentile.
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p).min(n)
}

/// Whether `n` samples support reporting the `p`-th percentile: at least
/// [`MIN_BEYOND`] of them lie beyond it.
pub fn supports(n: usize, p: u32) -> bool {
    beyond(n, p) >= MIN_BEYOND
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank median of `values` (non-empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50)
}

/// One job a single FIFO worker ran, as offsets from the run start.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Job {
    /// When the request was due to be sent.
    pub due: Duration,
    /// When it was handed to the server (at or after `due`).
    pub sent: Duration,
    /// When its ticket resolved.
    pub completed: Duration,
}

/// Wait and service time of one job; they sum to its latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Split {
    /// From the due time until the worker picked the job up: generator
    /// lateness, the submit call, and queueing.
    pub wait: Duration,
    /// Time the worker spent on the job.
    pub service: Duration,
}

/// Split each job's latency into wait and service, from outside. With
/// one FIFO worker, a job starts at the later of its send instant and the
/// previous job's completion. `jobs` are the enqueued jobs in send order.
pub fn fifo_split(jobs: &[Job]) -> Vec<Split> {
    let mut free_at = Duration::ZERO;
    jobs.iter()
        .map(|job| {
            let start = job.sent.max(free_at).min(job.completed);
            free_at = job.completed;
            Split {
                wait: start - job.due,
                service: job.completed - start,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 500.0);
        assert_eq!(percentile(&v, 99), 990.0);
        assert_eq!(percentile(&[7.0], 99), 7.0);
        let odd = [3.0, 1.0, 2.0];
        assert_eq!(median(&odd), 2.0);
        // Even count: the lower middle value, never an interpolation.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 75), 3.0);
    }

    #[test]
    fn ten_beyond_rule() {
        assert_eq!(beyond(1000, 99), 10);
        assert!(supports(1000, 99));
        assert!(!supports(999, 99));
        assert_eq!(beyond(1200, 99), 12);
        assert!(supports(100, 90));
        assert!(!supports(99, 90));
        assert!(supports(21, 50));
        assert!(!supports(19, 50));
        assert_eq!(beyond(0, 50), 0);
    }

    #[test]
    fn fifo_split_on_a_synthetic_timeline() {
        let ms = Duration::from_millis;
        let job = |due, sent, completed| Job {
            due: ms(due),
            sent: ms(sent),
            completed: ms(completed),
        };
        let jobs = [
            // Idle worker: starts as soon as the request is sent.
            job(0, 1, 10),
            // Sent while job 0 runs: waits until 10.
            job(4, 4, 25),
            // Sent after the worker went idle at 25.
            job(30, 30, 32),
            // Two queued behind one job, the second sent late.
            job(31, 31, 40),
            job(32, 33, 41),
        ];
        let split = fifo_split(&jobs);
        let expect = [(1, 9), (6, 15), (0, 2), (1, 8), (8, 1)];
        for (s, (wait, service)) in split.iter().zip(expect) {
            assert_eq!(s.wait, ms(wait));
            assert_eq!(s.service, ms(service));
        }
        for (s, j) in split.iter().zip(&jobs) {
            assert_eq!(s.wait + s.service, j.completed - j.due);
        }
        assert!(fifo_split(&[]).is_empty());
    }
}
