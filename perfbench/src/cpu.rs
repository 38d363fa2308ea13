//! CPU-time clocks. The process clock counts every thread, the decode
//! pool's workers too, after they have exited.
//!
//! The timings the benchmark bounds are CPU time, not wall time: on a
//! shared host, wall time also counts the time the process sat runnable
//! while other tenants held the cores, which varies with their load and
//! not with the program.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the CPU-time clocks below are declared for 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` from `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// `CLOCK_THREAD_CPUTIME_ID` from `<time.h>`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    // From the C library the standard library already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// CPU time the process has used so far, every thread included.
pub fn process_cpu() -> Duration {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu() -> Duration {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// # Panics
///
/// If the clock cannot be read, which Linux does not allow for these
/// clocks.
fn read(clock: i32) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(
        u64::try_from(ts.tv_sec).expect("CPU time is not negative"),
        u32::try_from(ts.tv_nsec).expect("nanoseconds below one second"),
    )
}
