//! What the harness reads from the operating system, and the counting
//! allocator of the traced runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU time of the whole process (every thread, living or
/// joined) in nanoseconds.
pub fn process_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only platform the benchmark supports);
    // the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Peak resident set size (`VmHWM`) of this process in KiB.
pub fn peak_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .expect("VmHWM line in /proc/self/status")
}

/// Processors this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `cpu_set_t`: one bit per processor, 1024 of them.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Move the calling thread to the `index`-th processor it is allowed on
/// (counting round) and leave it free to be moved again. Left where the
/// scheduler started them, the ranks of one process in five ran their
/// first two thousand 4-byte ping-pongs at 10 us each instead of 3.7 us,
/// as two ranks taking turns on one processor do; moved apart at the
/// start, none in a hundred did. The thread is not kept there: ranks left
/// to the scheduler ran a 4-byte ping-pong 4 % faster and steadier than
/// ranks bound for the whole run. Best effort: where the kernel refuses,
/// the thread stays where it is.
pub fn start_on_cpu(index: usize) {
    let mut allowed: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `allowed` is a writable buffer of the `size` bytes passed;
    // pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return;
    }
    let cpu = cpus[index % cpus.len()];
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` and `allowed` are readable buffers of the `size` bytes
    // passed. The first call returns once the thread runs on `cpu`; the
    // second gives it back the processors it had. A failure of either
    // leaves the thread's affinity as it was before that call.
    unsafe {
        if sched_setaffinity(0, size, &one) == 0 {
            sched_setaffinity(0, size, &allowed);
        }
    }
}

/// Remove every `MOTOR_*` variable, so the stack runs with the
/// configuration the benchmark passes and nothing else. Call before any
/// thread is started.
pub fn scrub_motor_env() {
    let names: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("MOTOR_"))
        .collect();
    for k in names {
        std::env::remove_var(k);
    }
}

/// `git rev-parse HEAD` of the tree the benchmark was built from, with
/// `-dirty` when it has local changes; `unknown` outside a git checkout.
pub fn git_sha() -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .current_dir(env!("CARGO_MANIFEST_DIR"))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match git(&["rev-parse", "HEAD"]) {
        Some(sha) if !sha.is_empty() => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{sha}-dirty")
            } else {
                sha
            }
        }
        _ => "unknown".to_string(),
    }
}

/// Allocator that counts calls and bytes while [`count_allocs`] is on.
///
/// The counters are shared by both rank threads, so counting costs a
/// contended cache line per allocation; it is switched on only inside the
/// traced region, and its cost is part of `trace.overhead_ratio`.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain statistics that publish no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded caller contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded caller contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded caller contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off.
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(calls, bytes)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
