//! Placement: the whole benchmark process runs on one core.
//!
//! On the two-vCPU virtual machines this benchmark is judged on, waking a
//! thread that sleeps on the *other* vCPU goes through the hypervisor and
//! costs 40 µs when it goes well and a 4 ms timer tick when it does not;
//! where the scheduler happens to put two variant threads — one core or two
//! — then moves a rendezvous-bound workload by a factor of three from one
//! run to the next.  That is the host, not the program.  Confined to one
//! core, every hand-off between threads is a context switch, whose cost is
//! stable, and the metrics measure what the program executes between
//! hand-offs — which is what a change to a layer changes.  The price is
//! stated in the README: no metric here can see a gain that needs two
//! cores at once.
//!
//! Threads inherit the mask of the thread that spawns them, so pinning the
//! main thread before anything else starts confines every variant thread
//! and every helper thread the program spawns for itself.
//!
//! One core also means one allocator arena.  The C library hands every new
//! thread an arena of its own so that cores do not fight over one lock;
//! with one core there is no fight, and which arena kept which freed buffer
//! moved `peak_rss_mb` by a quarter from run to run.  For the same reason
//! the allocator's mmap threshold is held at its 128 KiB default: left
//! alone it climbs with every large buffer freed, and whether the next
//! MVEE's rings then come from fresh pages or from a fragmented heap is
//! decided by the history of the run, not by the program.

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        /// `sched_setaffinity(2)`, from the C library the standard library
        /// already links.
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        /// `mallopt(3)`, a GNU C library extension.
        #[cfg(target_env = "gnu")]
        pub fn mallopt(param: i32, value: i32) -> i32;
    }

    /// `M_ARENA_MAX` and `M_MMAP_THRESHOLD` of `<malloc.h>`.
    #[cfg(target_env = "gnu")]
    pub const M_ARENA_MAX: i32 = -8;
    #[cfg(target_env = "gnu")]
    pub const M_MMAP_THRESHOLD: i32 = -3;
}

/// Confines the calling thread — and every thread it spawns from now on —
/// to the highest-numbered core (core 0 takes most of the host's
/// interrupts), and the allocator to one arena and a fixed mmap threshold.  Returns the core, or `None` when the kernel refused (or off
/// Linux), in which case threads float and the report says so.
pub fn confine_to_one_core() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        let core = cores().saturating_sub(1);
        let mut mask = [0u64; 16];
        mask[(core / 64) % mask.len()] = 1u64 << (core % 64);
        // SAFETY: `mask` is a live, properly aligned array of
        // `size_of_val(&mask)` bytes that the call only reads; pid 0 names
        // the calling thread.
        let rc = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own settings; no other thread exists yet.
        #[cfg(target_env = "gnu")]
        unsafe {
            sys::mallopt(sys::M_ARENA_MAX, 1);
            sys::mallopt(sys::M_MMAP_THRESHOLD, 128 * 1024);
        }
        (rc == 0).then_some(core)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_confined_thread_hands_its_mask_to_its_children() {
        let seen = std::thread::spawn(|| {
            let core = confine_to_one_core();
            let child = std::thread::spawn(cores).join().unwrap();
            (core, child)
        })
        .join()
        .unwrap();
        if let (Some(_), child_cores) = seen {
            assert_eq!(child_cores, 1);
        }
    }
}
