//! Host-side process readings from `/proc/self` (Linux only; the
//! benchmark refuses to report a number it could not read).

use std::fs;

fn status_kb(field: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .unwrap_or_else(|| panic!("no {field} line in /proc/self/status"))
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size of this process, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Nanoseconds this process has spent on a CPU so far (first field of
/// `/proc/self/schedstat`; the benchmark is single-threaded, so the main
/// thread's figure is the process's).
pub fn cpu_ns() -> u64 {
    let stat = fs::read_to_string("/proc/self/schedstat").expect("read /proc/self/schedstat");
    stat.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("malformed /proc/self/schedstat")
}
