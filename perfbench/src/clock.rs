//! The benchmark's host clock: CPU time of the calling thread.
//!
//! The benchmark runs on small shared virtual machines, where the
//! hypervisor regularly hands a vCPU to other guests for a large and
//! varying share of wall time ("steal"). A thread's CPU-time clock
//! advances only while the thread runs, so it measures what the
//! simulator costs without that steal; on a dedicated machine the two
//! clocks agree for this CPU-bound, single-threaded program.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn thread_cpu_ns() -> Option<u64> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable timespec with the C layout on
    // 64-bit Linux, and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
}

/// Nanoseconds of CPU time used by the calling thread. Only differences
/// taken on one thread are meaningful.
pub fn now_ns() -> u64 {
    thread_cpu_ns().expect("the thread CPU-time clock is readable")
}
