//! Host time of the benchmark process.
//!
//! Host costs are CPU seconds of the whole process (every thread), read
//! with `clock_gettime(CLOCK_PROCESS_CPUTIME_ID)`. On a virtual machine the
//! hypervisor runs other guests on this one's cores for a share of the
//! time (steal time, the eighth column of `/proc/stat`). Wall time counts
//! the stolen cycles and CPU time does not: on a 2-vCPU guest whose steal
//! moved between 1% and 35% within minutes, the wall-clock median of one
//! query moved by up to 80% while its CPU-time median stayed within 10%.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads CPU time through the 64-bit Linux clock_gettime ABI");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU seconds the process has used so far, over all its threads.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec and the call writes only it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = super::cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(super::cpu_s() > t0, "{x}");
    }
}
