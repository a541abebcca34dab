//! CPU time consumed by this process and by the calling thread.
//!
//! The kernel charges a task only for the time it ran, so time the
//! hypervisor takes a vCPU away (steal) or a thread waits for a core is
//! not counted, unlike wall-clock time. On a shared VM this makes CPU
//! cost per unit of work a far steadier figure than a rate.

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read(clock: c_int) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole
    // call, and both clock ids exist on every Linux since 2.6.12.
    let rc = unsafe { clock_gettime(clock, std::ptr::addr_of_mut!(ts)) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    let secs = u64::try_from(ts.tv_sec).expect("CPU time is not negative");
    let nanos = u64::try_from(ts.tv_nsec).expect("CPU time is not negative");
    secs * 1_000_000_000 + nanos
}

/// CPU time of every thread of this process, live or ended, ns.
pub fn process_ns() -> u64 {
    read(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, ns.
pub fn thread_ns() -> u64 {
    read(CLOCK_THREAD_CPUTIME_ID)
}

/// Clock rate of the core running the calling thread, GHz, estimated
/// from the CPU time of a dependent chain of 64-bit xor, multiply and
/// rotate steps, 5 cycles each on x86-64 (1 + 3 + 1).
pub fn clock_ghz() -> f64 {
    const STEPS: u64 = 1_000_000;
    let start = thread_ns();
    let mut h = 1u64;
    for k in 0..STEPS {
        h = (h ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
    }
    std::hint::black_box(h);
    (5 * STEPS) as f64 / (thread_ns() - start) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work_and_not_with_sleep() {
        let (p0, t0) = (process_ns(), thread_ns());
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < std::time::Duration::from_millis(30) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let busy = thread_ns() - t0;
        assert!(busy >= 10_000_000, "30 ms of spinning charged only {busy} ns");
        assert!(process_ns() - p0 >= busy);
        let t1 = thread_ns();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(thread_ns() - t1 < 10_000_000, "sleeping is not charged");
    }
}
