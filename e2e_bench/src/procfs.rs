//! On-CPU clocks and the noise diagnostics that sit next to them.
//!
//! Every `_s` metric of the benchmark is on-CPU time of the process doing
//! the work, summed over its threads.  Two kernel counters provide it:
//!
//! * `/proc/<pid>/task/<tid>/schedstat` — per thread: nanoseconds on CPU,
//!   nanoseconds waiting on a run queue, and the number of timeslices.  The
//!   run-queue wait is the contention diagnostic.  The on-CPU field has two
//!   blind spots: it is only brought up to date at scheduler ticks and
//!   context switches (so a thread reading its own entry sees it lag by up
//!   to a tick, 4 ms at HZ=250), and a thread that exits between two
//!   samples takes its time with it.
//! * the thread-group CPU clock (`clock_gettime` on the clock id Linux
//!   derives from the pid) — the same `sum_exec_runtime` counter summed
//!   over every live thread *plus* every thread that already exited, and
//!   brought up to date at the read.  This is the metric.
//!
//! A [`PassCost`] therefore reports the group clock as `cpu_s`, the sum of
//! live-thread schedstat deltas beside it, and their difference as
//! `exited_s`: the time of threads that ended mid-pass (simulation batches
//! run on scoped threads when a scenario asks for more than one thread).
//! Wall-clock time, hypervisor steal from `/proc/stat` and run-queue wait
//! are diagnostics only.
//!
//! The CPU-affinity calls ([`allowed_cpus`], [`pin_to`]) give the daemon of
//! `served-families` a core of its own.

use std::collections::BTreeMap;
use std::ffi::{c_int, c_long};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Kernel tick rate of `/proc/stat` (`USER_HZ`, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// A pass whose run-queue wait exceeds this share of its on-CPU time shared
/// its core with something else.
pub const CONTENTION_SHARE: f64 = 0.01;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const u64) -> c_int;
}

/// A `cpu_set_t`: 1024 CPU bits.
pub type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask: CpuMask = [0; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok((0..1024)
        .filter(|cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect())
}

/// The mask holding exactly `cpus`.
pub fn cpu_mask(cpus: &[usize]) -> CpuMask {
    let mut mask: CpuMask = [0; 16];
    for &cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

/// Restricts the calling thread (and the threads and processes it starts
/// from now on) to the CPUs of `mask`.  Only makes the system call, so it
/// may run between `fork` and `exec`.
pub fn pin_to(mask: &CpuMask) -> io::Result<()> {
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// The CPU-time clock id of a whole process: Linux encodes it as
/// `(!pid << 3) | CPUCLOCK_SCHED` (what glibc's `clock_getcpuclockid`
/// returns).
fn process_clock_id(pid: u32) -> c_int {
    const CPUCLOCK_SCHED: c_int = 2;
    (!(pid as c_int) << 3) | CPUCLOCK_SCHED
}

/// On-CPU nanoseconds of process `pid`, summed over all of its threads,
/// including threads that have exited.
pub fn group_cpu_ns(pid: u32) -> io::Result<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the C layout
    // for the whole call, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(process_clock_id(pid), &mut ts) };
    if rc != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Parses one `schedstat` line into `(on_cpu_ns, run_queue_wait_ns)`.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_whitespace();
    let run = fields.next()?.parse().ok()?;
    let wait = fields.next()?.parse().ok()?;
    Some((run, wait))
}

/// Reads `<task_dir>/<tid>/schedstat` for every thread listed in a
/// `/proc/<pid>/task` directory.  A thread that exits between the listing
/// and the read is skipped, not an error.
pub fn read_task_times(task_dir: &Path) -> io::Result<BTreeMap<u32, (u64, u64)>> {
    let mut tasks = BTreeMap::new();
    for entry in std::fs::read_dir(task_dir)? {
        let entry = entry?;
        let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(entry.path().join("schedstat")) else {
            continue;
        };
        if let Some(times) = parse_schedstat(&text) {
            tasks.insert(tid, times);
        }
    }
    Ok(tasks)
}

/// The steal field (8th value) of the aggregate `cpu` line of `/proc/stat`,
/// in `USER_HZ` ticks.
pub fn parse_steal_ticks(proc_stat: &str) -> Option<u64> {
    let line = proc_stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

fn steal_ticks() -> io::Result<u64> {
    let text = std::fs::read_to_string("/proc/stat")?;
    parse_steal_ticks(&text)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no steal field in /proc/stat"))
}

/// `VmHWM` (peak resident set) of process `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in status"))
}

/// Everything read at one pass boundary.
#[derive(Debug, Clone)]
pub struct Sample {
    at: Instant,
    group_ns: u64,
    tasks: BTreeMap<u32, (u64, u64)>,
    steal_ticks: u64,
}

impl Sample {
    /// Samples process `pid` at the start of a pass.  The clocks are read
    /// last, so that when `pid` is this process the cost of reading procfs
    /// stays outside the pass.
    pub fn begin(pid: u32) -> io::Result<Sample> {
        let tasks = read_task_times(Path::new(&format!("/proc/{pid}/task")))?;
        let steal_ticks = steal_ticks()?;
        let group_ns = group_cpu_ns(pid)?;
        Ok(Sample {
            at: Instant::now(),
            group_ns,
            tasks,
            steal_ticks,
        })
    }

    /// Samples process `pid` at the end of a pass: clocks first.
    pub fn end(pid: u32) -> io::Result<Sample> {
        let at = Instant::now();
        let group_ns = group_cpu_ns(pid)?;
        Ok(Sample {
            at,
            group_ns,
            tasks: read_task_times(Path::new(&format!("/proc/{pid}/task")))?,
            steal_ticks: steal_ticks()?,
        })
    }

    /// The group clock reading, in nanoseconds.
    pub fn group_ns(&self) -> u64 {
        self.group_ns
    }

    /// The cost of the work between `self` (earlier) and `later`.
    pub fn cost_until(&self, later: &Sample) -> PassCost {
        let mut live_run = 0;
        let mut wait = 0;
        for (tid, &(run, queued)) in &later.tasks {
            // A thread born mid-pass started from zero.
            let (run0, queued0) = self.tasks.get(tid).copied().unwrap_or((0, 0));
            live_run += run.saturating_sub(run0);
            wait += queued.saturating_sub(queued0);
        }
        let cpu = later.group_ns.saturating_sub(self.group_ns);
        PassCost {
            cpu_s: ns(cpu),
            wall_s: later.at.duration_since(self.at).as_secs_f64(),
            steal_s: later.steal_ticks.saturating_sub(self.steal_ticks) as f64 / USER_HZ,
            wait_s: ns(wait),
            exited_s: ns(cpu.saturating_sub(live_run)),
        }
    }
}

fn ns(value: u64) -> f64 {
    value as f64 * 1e-9
}

/// The measured cost of one pass plus its noise diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PassCost {
    /// On-CPU seconds of the whole process (the metric).
    pub cpu_s: f64,
    /// Wall-clock seconds (diagnostic).
    pub wall_s: f64,
    /// Hypervisor steal over the pass, all CPUs (diagnostic).
    pub steal_s: f64,
    /// Run-queue wait of the threads alive at the end (diagnostic).
    pub wait_s: f64,
    /// On-CPU seconds of threads that exited during the pass.
    pub exited_s: f64,
}

impl PassCost {
    /// Whether something else shared the core during this pass.
    pub fn contended(&self) -> bool {
        self.wait_s > CONTENTION_SHARE * self.cpu_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// On-CPU nanoseconds of the calling thread.
    fn thread_cpu_ns() -> u64 {
        const CLOCK_THREAD_CPUTIME_ID: c_int = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: as in `group_cpu_ns`.
        assert_eq!(
            unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) },
            0
        );
        ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
    }

    /// Keeps the calling thread on CPU for `ms` milliseconds of its own time
    /// (other test threads run concurrently in this process).
    fn burn(ms: u64) {
        let start = thread_cpu_ns();
        let mut x = 0u64;
        while thread_cpu_ns() - start < ms * 1_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
    }

    #[test]
    fn schedstat_lines_parse_and_garbage_does_not() {
        assert_eq!(
            parse_schedstat("2953914 2059667 17\n"),
            Some((2_953_914, 2_059_667))
        );
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("12 x 3"), None);
    }

    #[test]
    fn steal_is_the_eighth_value_of_the_cpu_line() {
        let text = "cpu  85882 0 3264 164631 1615 0 89 7600 0 0\n\
                    cpu0 42000 0 1600 82000 800 0 40 3800 0 0\n";
        assert_eq!(parse_steal_ticks(text), Some(7600));
        assert_eq!(parse_steal_ticks("cpu0 1 2 3\n"), None);
        let live = steal_ticks().unwrap();
        assert!(steal_ticks().unwrap() >= live);
    }

    #[test]
    fn task_reader_skips_a_thread_that_vanished_before_its_read() {
        let dir = std::env::temp_dir().join(format!("e2e-bench-tasks-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (tid, text) in [
            ("100", Some("5000 70 2\n")),
            ("101", None),
            ("102", Some("9 1 1")),
        ] {
            std::fs::create_dir_all(dir.join(tid)).unwrap();
            if let Some(text) = text {
                std::fs::write(dir.join(tid).join("schedstat"), text).unwrap();
            }
        }
        let tasks = read_task_times(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[&100], (5000, 70));
        assert_eq!(tasks[&102], (9, 1));
    }

    #[test]
    fn a_thread_that_exits_mid_pass_is_still_counted() {
        let pid = std::process::id();
        let before = Sample::begin(pid).unwrap();
        std::thread::spawn(|| burn(40)).join().unwrap();
        let after = Sample::end(pid).unwrap();
        let cost = before.cost_until(&after);
        assert!(cost.cpu_s >= 0.040, "{cost:?}");
        // The live-thread schedstat sum cannot see the exited thread; the
        // group clock can, and the difference is attributed to it (other
        // test threads can only add to either number).
        assert!(cost.exited_s >= 0.035, "{cost:?}");
        assert!(cost.wall_s > 0.0 && cost.steal_s >= 0.0 && cost.wait_s >= 0.0);
    }

    #[test]
    fn the_group_clock_is_current_for_a_running_thread() {
        // schedstat lags a running thread by up to a tick; the group clock
        // must already include a burn far shorter than that.
        let pid = std::process::id();
        let start = group_cpu_ns(pid).unwrap();
        burn(1);
        let spent = group_cpu_ns(pid).unwrap() - start;
        assert!(spent >= 1_000_000, "{spent} ns");
    }

    #[test]
    fn contention_is_flagged_above_one_percent_of_cpu() {
        let mut cost = PassCost {
            cpu_s: 2.0,
            wait_s: 0.019,
            ..PassCost::default()
        };
        assert!(!cost.contended());
        cost.wait_s = 0.021;
        assert!(cost.contended());
    }

    #[test]
    fn pinning_a_thread_narrows_its_allowed_cpus() {
        let allowed = allowed_cpus().unwrap();
        assert!(!allowed.is_empty());
        let last = *allowed.last().unwrap();
        // Affinity is per thread: pin a scratch thread, not the test's.
        let pinned = std::thread::spawn(move || {
            pin_to(&cpu_mask(&[last])).unwrap();
            (
                allowed_cpus().unwrap(),
                std::thread::available_parallelism().unwrap().get(),
            )
        })
        .join()
        .unwrap();
        assert_eq!(pinned, (vec![last], 1));
        assert_eq!(cpu_mask(&[0, 65])[..2], [1, 2]);
    }

    #[test]
    fn peak_rss_reads_this_process() {
        let mb = peak_rss_mb(std::process::id()).unwrap();
        assert!(mb > 0.5 && mb < 4096.0, "{mb}");
    }
}
