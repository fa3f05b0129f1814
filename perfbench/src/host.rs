//! Thread-level facts from the host: CPU time and voluntary context
//! switches read from `/proc/self/task/*/{schedstat,status}`, and CPU
//! pinning.
//!
//! The benchmark pins each of two contending threads to its own CPU:
//! queue_pairs worker `t` to the `t`-th CPU the process may use, and in the
//! server phases the client (the main thread) to the first and the
//! dispatcher to the second. On a two-CPU host the scheduler otherwise
//! sometimes stacks them on one CPU, which turns a contended round into an
//! uncontended one. The single-threaded simulator runs unpinned.

use std::sync::OnceLock;

/// CPU time and voluntary context switches of one thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadUsage {
    /// CPU time in nanoseconds.
    pub cpu_ns: u64,
    /// Voluntary context switches.
    pub voluntary: u64,
}

impl ThreadUsage {
    /// The usage accrued since `earlier`.
    pub fn since(self, earlier: ThreadUsage) -> ThreadUsage {
        ThreadUsage {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            voluntary: self.voluntary.saturating_sub(earlier.voluntary),
        }
    }
}

/// Usage of the task directory `dir` (`/proc/self/task/<tid>` or
/// `/proc/thread-self`): CPU time in nanoseconds from `schedstat`, and
/// `voluntary_ctxt_switches` from `status`.
pub fn usage(dir: &str) -> Option<ThreadUsage> {
    let schedstat = std::fs::read_to_string(format!("{dir}/schedstat")).ok()?;
    let cpu_ns = schedstat.split_whitespace().next()?.parse().ok()?;
    let status = std::fs::read_to_string(format!("{dir}/status")).ok()?;
    let voluntary = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
        .trim()
        .parse()
        .ok()?;
    Some(ThreadUsage { cpu_ns, voluntary })
}

/// Usage of the calling thread.
pub fn own_usage() -> Option<ThreadUsage> {
    usage("/proc/thread-self")
}

/// The `/proc` task directory of this process's first thread whose name
/// starts with `prefix`.
pub fn find_thread(prefix: &str) -> Option<String> {
    for entry in std::fs::read_dir("/proc/self/task").ok()?.flatten() {
        let dir = entry.path().to_string_lossy().into_owned();
        let comm = std::fs::read_to_string(format!("{dir}/comm")).unwrap_or_default();
        if comm.trim_end().starts_with(prefix) {
            return Some(dir);
        }
    }
    None
}

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// Affinity masks cover CPUs `0..MASK_WORDS * 64`.
const MASK_WORDS: usize = 16;

/// The CPUs the process could run on when first asked, ascending.
fn cpus() -> &'static [usize] {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..MASK_WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    })
}

fn set_affinity(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    !cpus.is_empty()
        && unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins thread `tid` (0 = the caller) to the `slot`-th usable CPU, round
/// robin. Returns false when the kernel refused or no CPU is known; the
/// thread then runs unpinned.
pub fn pin(tid: i32, slot: usize) -> bool {
    let cpus = cpus();
    match cpus.get(slot % cpus.len().max(1)) {
        Some(cpu) => set_affinity(tid, std::slice::from_ref(cpu)),
        None => false,
    }
}

/// Lets thread `tid` (0 = the caller) run on every usable CPU again.
pub fn unpin(tid: i32) -> bool {
    set_affinity(tid, cpus())
}

/// The kernel thread id of the task directory `dir`.
pub fn tid_of(dir: &str) -> Option<i32> {
    dir.rsplit('/').next()?.parse().ok()
}
