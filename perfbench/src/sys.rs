//! Process resource accounting: CPU time (own and reaped children) and
//! peak resident set, read with `getrusage(2)` so the benchmark touches
//! no files outside its work directory.

use std::time::Duration;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s then fourteen
/// `long` counters.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage(who: i32) -> Rusage {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the
    // 64-bit Linux layout, and `who` is one of the two selectors the
    // kernel accepts; getrusage writes only into that struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed on a valid selector");
    usage
}

fn cpu_of(usage: &Rusage) -> Duration {
    let micros = |tv: Timeval| tv.tv_sec as f64 * 1e6 + tv.tv_usec as f64;
    Duration::from_secs_f64((micros(usage.ru_utime) + micros(usage.ru_stime)) / 1e6)
}

/// User + system CPU of this process plus every child it has reaped.
#[must_use]
pub fn cpu_time() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of this process, MiB (`ru_maxrss` is in KiB).
#[must_use]
pub fn peak_rss_mib() -> f64 {
    rusage(RUSAGE_SELF).ru_maxrss as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        assert!(cpu_time() > before);
        assert!(peak_rss_mib() > 0.0);
    }
}
