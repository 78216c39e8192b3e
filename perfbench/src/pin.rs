//! CPU pinning: connection `c`'s whole chain — client thread, the
//! server's reactor `c` and shard worker `c` — runs on the `c`-th CPU.
//!
//! Left to the OS scheduler on a 2-vCPU VM, a shard's wake-up sometimes
//! queued behind the other shard's multi-millisecond solve, so
//! `solve_large`'s `mutate_p99_us` swung between 0.3 and 3 ms from run
//! to run. Pinning each chain to its own CPU removed that, and halved the
//! run-to-run spread of `lockstep_small`'s throughput.

use std::sync::OnceLock;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Room for 1024 CPUs, the kernel's default `cpu_set_t`.
type CpuSet = [u64; 16];

/// The CPUs the process could run on before any thread was pinned,
/// ascending.
pub fn allowed_cpus() -> Result<&'static [usize], String> {
    static CPUS: OnceLock<Result<Vec<usize>, String>> = OnceLock::new();
    CPUS.get_or_init(|| {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live buffer of exactly the size passed; pid
        // 0 is the calling thread, still unpinned on the first call (the
        // first pin goes through here).
        if unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) } != 0 {
            return Err("sched_getaffinity failed".into());
        }
        Ok((0..set.len() * 64)
            .filter(|&cpu| set[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect())
    })
    .as_deref()
    .map_err(Clone::clone)
}

/// Pins thread `tid` (0 = the calling thread) to the `nth` allowed CPU.
fn pin(tid: i32, nth: usize) -> Result<usize, String> {
    let cpus = allowed_cpus()?;
    let cpu = *cpus
        .get(nth)
        .ok_or_else(|| format!("no CPU #{nth} to pin to"))?;
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `set` is a live, initialised buffer of exactly the size
    // passed, and the call only reads it.
    if unsafe { sched_setaffinity(tid, std::mem::size_of_val(&set), set.as_ptr()) } != 0 {
        return Err(format!("cannot pin thread {tid} to CPU {cpu}"));
    }
    Ok(cpu)
}

/// Pins the calling thread to the `nth` allowed CPU.
pub fn pin_current_thread(nth: usize) -> Result<(), String> {
    pin(0, nth).map(|_| ())
}

/// Pins server `pid`'s shard worker `k` (thread `cosched-shard-k`) and
/// its `k`-th reactor (threads `cosched-reactor-*`, whose names the
/// kernel truncates alike, taken in creation order) to the `k`-th
/// allowed CPU. Call it once the server has answered requests, so every
/// thread exists. Returns what it pinned, for the run's log.
pub fn pin_server(pid: u32) -> Result<String, String> {
    let task_dir = format!("/proc/{pid}/task");
    let mut shards = Vec::new();
    let mut reactors = Vec::new();
    let entries = std::fs::read_dir(&task_dir).map_err(|e| format!("{task_dir}: {e}"))?;
    for entry in entries.flatten() {
        let Ok(tid) = entry.file_name().to_string_lossy().parse::<i32>() else {
            continue;
        };
        let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
        let comm = comm.trim_end();
        if let Some(k) = comm.strip_prefix("cosched-shard-") {
            if let Ok(k) = k.parse::<usize>() {
                shards.push((k, tid));
            }
        } else if comm.starts_with("cosched-reactor") {
            reactors.push(tid);
        }
    }
    // Thread ids grow in creation order, and reactor k is created k-th.
    reactors.sort_unstable();
    let mut pinned = Vec::new();
    for (k, tid) in shards {
        pinned.push(format!("shard {k} -> cpu {}", pin(tid, k)?));
    }
    for (k, tid) in reactors.into_iter().enumerate() {
        pinned.push(format!("reactor {k} -> cpu {}", pin(tid, k)?));
    }
    pinned.sort();
    Ok(if pinned.is_empty() {
        "no shard or reactor threads found; server threads left unpinned".into()
    } else {
        pinned.join(", ")
    })
}
