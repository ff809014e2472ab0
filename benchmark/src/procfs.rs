//! What the benchmark reads from and asks of the Linux host: CPU pinning,
//! peak resident memory and context-switch counts.

/// Pin the calling process (every thread it later spawns inherits the mask)
/// to the highest CPU it is allowed to run on. Returns whether the kernel
/// accepted; a refusal leaves the process unpinned and is reported as
/// `host.pinned = 0`.
#[cfg(target_os = "linux")]
pub fn pin_to_highest_cpu() -> bool {
    // cpu_set_t is 1024 bits.
    const WORDS: usize = 16;
    extern "C" {
        // Declared against the libc that std already links.
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, WORDS * 8, allowed.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = allowed.iter().rposition(|w| *w != 0) else {
        return false;
    };
    let mut only = [0u64; WORDS];
    only[word] = 1u64 << (63 - allowed[word].leading_zeros());
    // SAFETY: `only` is a readable buffer of exactly the byte length passed.
    unsafe { sched_setaffinity(0, WORDS * 8, only.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_highest_cpu() -> bool {
    false
}

/// The numeric value of `key` in `/proc/<pid>/status`-style text, e.g.
/// `status_field(text, "VmHWM")` for `VmHWM:\t    1412 kB`.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size of this process so far, kB (0 where `/proc` is
/// missing).
pub fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_field(&s, "VmHWM"))
        .unwrap_or(0)
}

/// Voluntary context switches of the calling thread so far: each is one
/// park of a carrier thread in the kernel.
pub fn thread_voluntary_ctxsw() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status")
        .ok()
        .and_then(|s| status_field(&s, "voluntary_ctxt_switches"))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Captured from `/proc/self/status` on the development host.
    const STATUS: &str = "Name:\tcat\nVmPeak:\t    5864 kB\nVmHWM:\t    1412 kB\n\
        VmRSS:\t    1412 kB\nCpus_allowed:\t3\nCpus_allowed_list:\t0-1\n\
        voluntary_ctxt_switches:\t17\nnonvoluntary_ctxt_switches:\t4\n";

    #[test]
    fn parses_peak_rss_and_context_switches() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some(1412));
        assert_eq!(status_field(STATUS, "voluntary_ctxt_switches"), Some(17));
        // A key that is the tail of another line's key must not match it.
        assert_eq!(status_field(STATUS, "nonvoluntary_ctxt_switches"), Some(4));
        assert_eq!(status_field(STATUS, "VmSwap"), None);
        assert_eq!(status_field("VmHWM:\tgarbage kB\n", "VmHWM"), None);
    }
}
