//! Thread and process CPU clocks through raw `clock_gettime` syscalls.
//!
//! The workspace builds offline without `libc`, and std exposes no CPU
//! clocks, so the benchmark issues the syscall itself (the same
//! convention as the reactor's `net::sys` wrappers).

#[cfg(target_arch = "x86_64")]
const SYS_CLOCK_GETTIME: usize = 228;
#[cfg(target_arch = "aarch64")]
const SYS_CLOCK_GETTIME: usize = 113;

const CLOCK_PROCESS_CPUTIME_ID: usize = 2;
const CLOCK_THREAD_CPUTIME_ID: usize = 3;

#[cfg(target_arch = "x86_64")]
unsafe fn syscall2(n: usize, a: usize, b: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "syscall",
        inlateout("rax") n as isize => ret,
        in("rdi") a,
        in("rsi") b,
        lateout("rcx") _,
        lateout("r11") _,
        options(nostack),
    );
    ret
}

#[cfg(target_arch = "aarch64")]
unsafe fn syscall2(n: usize, a: usize, b: usize) -> isize {
    let ret: isize;
    core::arch::asm!(
        "svc 0",
        in("x8") n,
        inlateout("x0") a as isize => ret,
        in("x1") b,
        options(nostack),
    );
    ret
}

fn clock_ns(clock: usize) -> u64 {
    // struct timespec { tv_sec: i64, tv_nsec: i64 } on both targets.
    let mut ts = [0i64; 2];
    // SAFETY: `ts` is a live, writable 16-byte timespec for the whole
    // call, and clock_gettime writes nothing else.
    let ret = unsafe { syscall2(SYS_CLOCK_GETTIME, clock, ts.as_mut_ptr() as usize) };
    assert_eq!(ret, 0, "clock_gettime({clock}) failed: errno {}", -ret);
    ts[0] as u64 * 1_000_000_000 + ts[1] as u64
}

/// CPU time consumed by the calling thread, in nanoseconds.
pub fn thread_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time consumed by the whole process (user + system), in
/// nanoseconds.
pub fn process_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}
