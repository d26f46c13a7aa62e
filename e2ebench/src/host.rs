//! Host plumbing — CPU pinning, the current vCPU, peak memory — and the
//! two order statistics every report uses.

use std::os::raw::{c_int, c_ulong};

/// `cpu_set_t` as glibc lays it out: 1024 bits.
const MASK_WORDS: usize = 1024 / 64;

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
    fn sched_getcpu() -> c_int;
}

/// Pins the calling thread — and so every thread it spawns afterwards — to
/// the lowest-numbered CPU it is allowed on, and returns that CPU's ID.
/// Call it before spawning anything.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0 as c_ulong; MASK_WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `size` bytes, the
    // layout glibc's `cpu_set_t` uses; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..MASK_WORDS * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("the affinity mask is empty")?;
    let mut one = [0 as c_ulong; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `size` bytes in
    // `cpu_set_t` layout; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// The CPU the calling thread is running on right now.
pub fn current_cpu() -> i64 {
    // SAFETY: `sched_getcpu` takes no arguments and only reads kernel state.
    i64::from(unsafe { sched_getcpu() })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}
