//! The host block printed with every result, and the process-level
//! measurements: CPU time and peak resident set.
//!
//! Timings are only comparable between runs on similar hosts, so each
//! result names its cores, CPU quota and relax kernel, and the share of
//! the run the hypervisor stole or the disks held the CPUs waiting.

use std::time::Duration;

use parapsp_core::relax::avx2_available;
use parapsp_core::RelaxImpl;

/// Steal share above which a run's timings are not comparable: the
/// hypervisor ran other guests on this run's CPUs for that long.
pub const STEAL_BOUND: f64 = 0.05;

/// The aggregate `cpu` line of `/proc/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTicks {
    total: u64,
    iowait: u64,
    steal: u64,
}

impl CpuTicks {
    /// The current counters, or zeros when `/proc/stat` is unreadable.
    pub fn now() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        let Some(line) = stat.lines().find(|l| l.starts_with("cpu ")) else {
            return CpuTicks::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user, so only the first eight add
        // up to the total.
        let fields: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        if fields.len() < 8 {
            return CpuTicks::default();
        }
        CpuTicks {
            total: fields.iter().sum(),
            iowait: fields[4],
            steal: fields[7],
        }
    }
}

/// Steal and iowait shares of all CPU time between two samples.
pub fn shares(start: CpuTicks, end: CpuTicks) -> (f64, f64) {
    let total = end.total.saturating_sub(start.total);
    if total == 0 {
        return (0.0, 0.0);
    }
    let share = |a: u64, b: u64| b.saturating_sub(a) as f64 / total as f64;
    (
        share(start.steal, end.steal),
        share(start.iowait, end.iowait),
    )
}

/// The cgroup CPU quota in cores, or `None` when unlimited or unknown.
fn cpu_quota() -> Option<f64> {
    let ratio = |quota: &str, period: &str| -> Option<f64> {
        let quota: f64 = quota.trim().parse().ok()?;
        let period: f64 = period.trim().parse().ok()?;
        (quota > 0.0 && period > 0.0).then(|| quota / period)
    };
    if let Ok(max) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        let mut parts = max.split_whitespace();
        return ratio(parts.next()?, parts.next()?);
    }
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    ratio(&quota, &period)
}

/// The host block: one JSON object on one line.
pub fn describe(start: CpuTicks, end: CpuTicks) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let quota = cpu_quota().map_or_else(|| "null".to_owned(), |q| format!("{q}"));
    let (steal, iowait) = shares(start, end);
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"cpu_quota_cores\": {quota}, \"avx2\": {}, \
         \"relax_auto\": \"{}\", \"steal_share\": {steal:.4}, \"iowait_share\": {iowait:.4}, \
         \"steal_bound\": {STEAL_BOUND}, \"steal_in_bounds\": {}}}}}",
        avx2_available(),
        RelaxImpl::Auto.resolve().name(),
        steal <= STEAL_BOUND,
    )
}

/// Peak resident set (`VmHWM`) of this process in MB (10^6 bytes); 0 when
/// the proc filesystem is unavailable.
pub fn peak_rss_mb() -> f64 {
    let kib: u64 = std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0);
    kib as f64 * 1024.0 / 1e6
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time (user + system) all threads of this process have used, at
/// nanosecond resolution.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}
