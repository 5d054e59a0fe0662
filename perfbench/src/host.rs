//! The host the benchmark runs on: CPU pinning, the process CPU clock, the reference
//! probe that host costs are scaled by, and resident memory. The pinning and the
//! clock are the benchmark's only calls into the C library.

use std::collections::BTreeMap;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Pins this (single-threaded) process to the highest-numbered CPU it may run on and
/// returns that CPU, or `None` if the mask cannot be read or set. Left to the
/// scheduler, the process lands on either vCPU of a small VM, and the two can run
/// this code at speeds 15% apart; CPU 0 also takes most of the VM's interrupts.
pub fn pin_to_last_cpu() -> Option<usize> {
    // Room for 1024 CPUs, the size of glibc's `cpu_set_t`.
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes, and pid 0 names
    // the calling thread, which is the only one.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).rev().find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of exactly `bytes` bytes naming one CPU the
    // process is already allowed to use.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

/// Seconds of CPU time this process has used.
///
/// Host costs are timed on this clock rather than the wall clock: the process is
/// single-threaded and pinned, so its CPU time is the work it did, without the time
/// it waited while the hypervisor or another process held its CPU.
///
/// # Panics
///
/// Panics if the kernel has no process CPU clock.
pub fn cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a writable `struct timespec` (two 64-bit fields on 64-bit Linux).
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A stopwatch on the process CPU clock ([`cpu_s`]).
#[derive(Debug, Clone, Copy)]
pub struct CpuTimer(f64);

impl CpuTimer {
    pub fn start() -> Self {
        Self(cpu_s())
    }

    /// CPU seconds since [`CpuTimer::start`].
    pub fn elapsed_s(&self) -> f64 {
        cpu_s() - self.0
    }
}

/// Roughly the CPU seconds [`reference_s`] takes at its fastest on a 2-vCPU Sapphire
/// Rapids Xeon VM. It only sets the scale of [`Slowdown`].
pub const REFERENCE_NOMINAL_S: f64 = 0.010;

/// Times the reference probe and returns its CPU seconds: a fixed run of
/// ordered-map inserts and pops and a sort of 100,000 floats, the allocation- and
/// pointer-heavy work the simulators do. It runs no code under test, so only the
/// host changes its time.
pub fn reference_s() -> f64 {
    let start = CpuTimer::start();
    let mut map = BTreeMap::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for i in 0..60_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 50_000, i);
        if i % 3 == 0 {
            acc = acc.wrapping_add(map.pop_first().map_or(0, |(_, v)| v));
        }
    }
    let mut floats: Vec<f64> =
        (0..100_000u64).map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 11) as f64).collect();
    floats.sort_by(f64::total_cmp);
    std::hint::black_box((acc, map.len(), floats[500]));
    start.elapsed_s()
}

/// How much slower than nominal the host ran a measurement: the reference probe's
/// time around it over [`REFERENCE_NOMINAL_S`].
///
/// On a VM that shares its host, cache- and allocation-heavy code ran up to 40%
/// slower at some moments than at others, for seconds to minutes at a time, in CPU
/// time as much as in wall time, while a plain integer loop kept its speed. Host
/// costs are therefore scaled by the slowdown the probe sees next to them: a rate is
/// multiplied by it and a duration divided.
#[derive(Debug, Clone, Copy)]
pub struct Slowdown {
    before_s: f64,
}

impl Slowdown {
    /// Runs the probe before the measurement.
    pub fn start() -> Self {
        Self { before_s: reference_s() }
    }

    /// Runs the probe after the measurement and returns the slowdown over both.
    pub fn finish(self) -> f64 {
        (self.before_s + reference_s()) / 2.0 / REFERENCE_NOMINAL_S
    }
}

/// Set-ups an untraced invocation times; `setup_s` is their median.
const SETUPS: usize = 9;

/// Runs `setup` [`SETUPS`] times and returns the CPU seconds of each, scaled by the
/// [`Slowdown`] around it. Callers run them before anything else, so every
/// invocation times them from the same allocator state.
pub fn timed_setups(mut setup: impl FnMut()) -> Vec<f64> {
    (0..SETUPS)
        .map(|_| {
            let slowdown = Slowdown::start();
            let start = CpuTimer::start();
            setup();
            let cpu_s = start.elapsed_s();
            cpu_s / slowdown.finish()
        })
        .collect()
}

/// Resets the process's resident-memory high-water mark to its current resident
/// size, so [`peak_rss_mib`] then reports the peak since this call. Where the
/// kernel does not allow it, the mark keeps counting from process start.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's high-water resident set size in MiB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}
