//! `/proc` readers: per-thread CPU time and context switches, process
//! memory high-water mark, thread count. Linux only, std only.

use std::fs;

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Kernel thread id of the calling thread.
pub fn current_tid() -> u64 {
    fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU nanoseconds the thread has run. `schedstat` has nanosecond
/// resolution; kernels built without it fall back to the 10 ms ticks of
/// `stat`.
pub fn thread_cpu_ns(tid: u64) -> u64 {
    if let Ok(text) = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")) {
        if let Some(ns) = text.split_whitespace().next().and_then(|f| f.parse().ok()) {
            return ns;
        }
    }
    let Ok(text) = fs::read_to_string(format!("/proc/self/task/{tid}/stat")) else {
        return 0;
    };
    // Fields after the parenthesised command name; utime and stime are
    // the 12th and 13th of those.
    let Some(rest) = text.rsplit(')').next() else {
        return 0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|x| x.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 10_000_000
}

/// Voluntary context switches of the thread (one per blocking wait).
pub fn thread_voluntary_switches(tid: u64) -> u64 {
    status_field(
        &format!("/proc/self/task/{tid}/status"),
        "voluntary_ctxt_switches:",
    )
    .unwrap_or(0)
}

/// Peak resident set of the process, in MiB.
pub fn vm_hwm_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// Live threads of the process whose name starts with `prefix`.
pub fn threads_named(prefix: &str) -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("comm")).ok())
        .filter(|name| name.starts_with(prefix))
        .count() as u64
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// CPUs the calling thread may run on (up to 1,024), lowest first.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc < 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pins the calling thread (and every thread it later spawns) to `cpu`.
/// Returns whether the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    if cpu >= mask.len() * 64 {
        return false;
    }
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the caller.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
