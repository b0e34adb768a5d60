//! The syscall ordering clock (§4.1 of the paper), sharded per thread group.
//!
//! ReMon orders related system calls across the threads of a variant with
//! Lamport-style logical clocks: the monitor assigns the master variant's
//! ordered calls increasing timestamps, and a slave variant's thread may only
//! execute its copy of an ordered call once the slave's private clock has
//! reached the recorded timestamp.  After the call completes the slave
//! increments its clock, releasing whichever thread holds the next timestamp.
//!
//! This forces the *cross-thread order* of ordered calls (file-descriptor
//! allocation, memory-management calls, ...) in every slave to match the
//! master's order — which is exactly what makes FD numbers and allocator
//! behaviour consistent across variants (§3.1).
//!
//! # Sharding
//!
//! A single clock per variant serializes *every* ordered call of that
//! variant, even calls issued by threads that never interact — the same
//! global-ordering bottleneck the paper's total-order agent suffers from.
//! [`ShardedOrderingClock`] therefore keeps one [`SyscallOrderingClock`] per
//! monitor shard: threads are assigned to shards by logical thread index
//! (identically in every variant), ordered calls of threads in the same
//! shard keep the full §4.1 cross-thread guarantee, and threads in different
//! shards order independently.  Calls whose *results* must agree across all
//! threads (FD allocation and other I/O) are replicated from the master
//! rather than ordered, so relaxing cross-shard order never leaks divergent
//! observable state.  `shards = 1` restores the original single-clock
//! behaviour.

use std::sync::atomic::{AtomicU64, Ordering};

/// A per-variant, per-shard syscall ordering clock.
#[derive(Debug, Default)]
pub struct SyscallOrderingClock {
    time: AtomicU64,
}

impl SyscallOrderingClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current time.
    pub fn now(&self) -> u64 {
        self.time.load(Ordering::Acquire)
    }

    /// Master side: claims the next timestamp (returns the pre-increment
    /// value).
    pub fn claim_timestamp(&self) -> u64 {
        self.time.fetch_add(1, Ordering::AcqRel)
    }

    /// Slave side: whether the clock has reached `timestamp` — one
    /// lock-free check.  The call machine polls it from an ordered slave's
    /// turn wait and escalates a turn that never comes to a divergence.
    pub fn try_turn(&self, timestamp: u64) -> bool {
        self.time.load(Ordering::Acquire) >= timestamp
    }

    /// Slave side: marks the ordered call as finished, advancing the clock.
    pub fn advance(&self) -> u64 {
        self.time.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Fast-forwards (or rewinds) the clock to `time`.  Used when a
    /// quarantined variant is re-admitted at a quiescent boundary: its clock
    /// stopped ticking while the survivors' advanced, so it resyncs to a
    /// survivor's position before rejoining the ordered stream.
    pub fn resync(&self, time: u64) {
        self.time.store(time, Ordering::Release);
    }
}

/// One variant's wall of per-shard ordering clocks.
///
/// The shard for a call is derived from the issuing thread's logical index,
/// which is assigned identically in every variant — so the master's claimed
/// timestamp and the slave's wait always refer to the same shard clock.
#[derive(Debug)]
pub struct ShardedOrderingClock {
    clocks: Box<[SyscallOrderingClock]>,
}

impl ShardedOrderingClock {
    /// Creates `shards` independent clocks, all at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one ordering shard");
        ShardedOrderingClock {
            clocks: (0..shards).map(|_| SyscallOrderingClock::new()).collect(),
        }
    }

    /// Number of shard clocks.
    pub fn shard_count(&self) -> usize {
        self.clocks.len()
    }

    /// The shard a logical thread's ordered calls go through.
    pub fn shard_of(&self, thread: usize) -> usize {
        thread % self.clocks.len()
    }

    /// The clock backing `shard`.
    pub fn clock(&self, shard: usize) -> &SyscallOrderingClock {
        &self.clocks[shard]
    }

    /// Sum of all shard clocks — the total number of ordered calls this
    /// variant has claimed/advanced through.
    pub fn total_time(&self) -> u64 {
        self.clocks.iter().map(|c| c.now()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn master_claims_monotonically_increasing_timestamps() {
        let c = SyscallOrderingClock::new();
        assert_eq!(c.claim_timestamp(), 0);
        assert_eq!(c.claim_timestamp(), 1);
        assert_eq!(c.claim_timestamp(), 2);
        assert_eq!(c.now(), 3);
    }

    #[test]
    fn slave_turn_is_ready_once_time_is_reached() {
        let c = SyscallOrderingClock::new();
        assert!(c.try_turn(0));
        assert!(!c.try_turn(1));
        c.advance();
        assert!(c.try_turn(1));
    }

    #[test]
    fn slave_turn_comes_only_with_the_last_advance() {
        let c = SyscallOrderingClock::new();
        for _ in 0..5 {
            assert!(!c.try_turn(5));
            c.advance();
        }
        assert!(c.try_turn(5));
    }

    #[test]
    fn out_of_order_threads_are_serialized_by_the_clock() {
        // Thread B holds timestamp 1 and must wait for thread A (timestamp 0).
        let clock = Arc::new(SyscallOrderingClock::new());
        let order = Arc::new(AtomicU64::new(0));
        let run = |ts: u64| {
            let (clock, order) = (Arc::clone(&clock), Arc::clone(&order));
            std::thread::spawn(move || {
                let started = Instant::now();
                while !clock.try_turn(ts) {
                    assert!(started.elapsed() < Duration::from_secs(2));
                    std::thread::yield_now();
                }
                let pos = order.fetch_add(1, Ordering::SeqCst);
                clock.advance();
                pos
            })
        };

        let thread_b = run(1);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(order.load(Ordering::SeqCst), 0, "B must still be waiting");
        let thread_a = run(0);

        assert_eq!(thread_a.join().unwrap(), 0);
        assert_eq!(thread_b.join().unwrap(), 1);
        assert_eq!(clock.now(), 2);
    }

    #[test]
    fn sharded_clock_maps_threads_to_stable_shards() {
        let c = ShardedOrderingClock::new(4);
        assert_eq!(c.shard_count(), 4);
        assert_eq!(c.shard_of(0), 0);
        assert_eq!(c.shard_of(5), 1);
        assert_eq!(c.shard_of(4), c.shard_of(0));
    }

    #[test]
    fn shard_clocks_tick_independently() {
        let c = ShardedOrderingClock::new(2);
        assert_eq!(c.clock(0).claim_timestamp(), 0);
        assert_eq!(c.clock(0).claim_timestamp(), 1);
        // Shard 1 is untouched by shard 0's claims.
        assert_eq!(c.clock(1).claim_timestamp(), 0);
        assert_eq!(c.total_time(), 3);
    }

    #[test]
    fn single_shard_clock_restores_global_ordering() {
        let c = ShardedOrderingClock::new(1);
        for thread in 0..5usize {
            assert_eq!(c.shard_of(thread), 0);
        }
        assert_eq!(c.clock(0).claim_timestamp(), 0);
        assert_eq!(c.clock(0).claim_timestamp(), 1);
    }
}
