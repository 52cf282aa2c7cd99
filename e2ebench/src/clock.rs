//! The process CPU clock.
//!
//! End-to-end timings are taken on this clock rather than the wall
//! clock. On a shared virtual machine the wall clock also counts the
//! time the host gives the CPU to other guests (steal) and the time
//! other processes run on it, which moved whole runs by a quarter from
//! one minute to the next; the process CPU clock counts only what this
//! process runs. The cells run on one thread and the fleet is pinned to
//! one CPU, so each reading is exact (the kernel adds the pending time
//! of the calling thread only).

use std::os::raw::{c_int, c_long};
use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is unavailable");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_with_work() {
        let t0 = process_cpu();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(process_cpu() > t0, "{x}");
    }
}
