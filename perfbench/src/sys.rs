//! Process-level measurement helpers, std only: a counting global
//! allocator, process CPU from `/proc/self/stat`, peak RSS and the
//! open-file limit from `/proc/self/{status,limits}`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Heap accounting around the system allocator. Counting is off outside
/// [`Counting::enable`]..[`Counting::disable`]: an untraced run pays one
/// relaxed load per allocation, a traced run two more atomic updates.
pub struct Counting {
    on: AtomicBool,
    live: AtomicI64,
    peak: AtomicU64,
}

impl Counting {
    pub const fn new() -> Self {
        Counting {
            on: AtomicBool::new(false),
            live: AtomicI64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Start counting from zero: `live` and `peak` cover only what is
    /// allocated from here on. Blocks freed later that were allocated
    /// before this call make `live` drift low, so read deltas, never
    /// absolutes.
    pub fn enable(&self) {
        self.live.store(0, Ordering::Relaxed);
        self.peak.store(0, Ordering::Relaxed);
        self.on.store(true, Ordering::Relaxed);
    }

    /// Stop counting; `live` and `peak` keep their last values.
    pub fn disable(&self) {
        self.on.store(false, Ordering::Relaxed);
    }

    /// Bytes allocated and not yet freed since counting started.
    pub fn live(&self) -> i64 {
        self.live.load(Ordering::Relaxed)
    }

    /// Highest `live` value seen.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    fn grow(&self, bytes: usize) {
        if self.on.load(Ordering::Relaxed) {
            let now = self.live.fetch_add(bytes as i64, Ordering::Relaxed) + bytes as i64;
            if now > 0 {
                self.peak.fetch_max(now as u64, Ordering::Relaxed);
            }
        }
    }

    fn shrink(&self, bytes: usize) {
        if self.on.load(Ordering::Relaxed) {
            self.live.fetch_sub(bytes as i64, Ordering::Relaxed);
        }
    }
}

impl Default for Counting {
    fn default() -> Self {
        Self::new()
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            self.grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        self.shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            self.shrink(layout.size());
            self.grow(new_size);
        }
        p
    }
}

/// Process CPU time (user + system, all threads) in seconds, from fields
/// 14 and 15 of `/proc/self/stat`, in USER_HZ = 100 ticks per second.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, starting at field 3.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let f: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / 100.0
}

/// Peak resident set of the process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Soft limit on open file descriptors (`Max open files`), 0 if unknown.
pub fn fd_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    limits
        .lines()
        .find(|l| l.starts_with("Max open files"))
        .and_then(|l| l.split_whitespace().nth(3))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Hardware threads available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_return_plausible_values() {
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        assert!(fd_limit() > 0);
        assert!(cores() >= 1);
    }
}
