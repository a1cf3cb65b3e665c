//! What the host gives the process: CPU time, peak memory, and a fixed
//! reference kernel that shows how fast the host runs right now.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

/// Linux `USER_HZ`: the unit of the CPU times in `/proc/self/stat`.
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, every thread, exited threads
/// included), seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may contain spaces; count from its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 and 15 of the full line (utime, stime) are 11 and 12 here.
    let ticks = |i: usize| -> f64 { fields[i].parse().expect("numeric CPU time") };
    (ticks(11) + ticks(12)) / TICKS_PER_S
}

/// Peak resident set size (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Wall time of a fixed single-threaded hash chain, ms. It runs only
/// standard-library code, so no change to the program can move it: a
/// change in this number is the host.
pub fn reference_kernel_ms() -> f64 {
    let started = Instant::now();
    let mut block = [0u8; 64];
    for _ in 0..2_000_000 {
        let mut h = DefaultHasher::new();
        block.hash(&mut h);
        block[..8].copy_from_slice(&h.finish().to_le_bytes());
    }
    std::hint::black_box(block);
    started.elapsed().as_secs_f64() * 1e3
}
