//! The host a run measured on: core count, CPU model, compiler, CPU
//! steal over the run, and the process's peak resident memory.

use std::fs;

/// A static description of the host.
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// CPU model name from `/proc/cpuinfo`.
    pub cpu: String,
    /// The compiler that built the benchmark.
    pub rustc: &'static str,
}

impl Host {
    /// Describe this host.
    pub fn detect() -> Host {
        let cpu = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu,
            rustc: env!("PERFBENCH_RUSTC"),
        }
    }
}

/// Aggregate CPU time ticks from `/proc/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuTicks {
    /// Ticks stolen by the hypervisor.
    pub steal: u64,
    /// All ticks (user through steal).
    pub total: u64,
}

impl CpuTicks {
    /// Read the aggregate `cpu` line; zeros where `/proc/stat` is absent.
    pub fn now() -> CpuTicks {
        let Ok(stat) = fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let fields: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTicks {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().sum(),
        }
    }

    /// Ticks elapsed since `earlier`.
    pub fn since(self, earlier: CpuTicks) -> CpuTicks {
        CpuTicks {
            steal: self.steal.saturating_sub(earlier.steal),
            total: self.total.saturating_sub(earlier.total),
        }
    }

    /// Stolen share of the ticks.
    pub fn steal_share(self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.steal as f64 / self.total as f64
        }
    }
}

/// The process's resident set line `field` of `/proc/self/status`, in MiB.
///
/// # Panics
///
/// Panics where `/proc/self/status` has no such line (not Linux).
fn status_mib(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kib / 1024.0
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM")
}

/// The process's current resident set (`VmRSS`) in MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS")
}

/// Pin the calling thread, and every thread it spawns afterwards, to the
/// CPU it runs on now, so the host-speed gauge always reads the core the
/// measured work runs on. Returns that CPU, or `None` where the kernel
/// refuses (the run then goes on unpinned).
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only returns a value.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live CPU set of `size_of_val(&mask)` bytes, and
    // pid 0 names the calling thread.
    let status = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (status == 0).then_some(cpu)
}
