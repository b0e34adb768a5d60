//! The wall of logical clocks used by the wall-of-clocks agent.
//!
//! The paper's WoC agent cannot give every synchronization variable its own
//! clock because the agent may not allocate memory dynamically (§3.3, §4.5).
//! Instead it pre-allocates a fixed number of clocks and assigns each
//! variable to a clock by hashing its address.  Hash collisions map unrelated
//! variables onto the same clock, which introduces false serialization — a
//! cost the paper accepts and that the ablation benchmarks in this
//! reproduction measure explicitly.
//!
//! A [`ClockWall`] is used in two places: the master variant owns one wall
//! whose times are recorded into the per-thread sync buffers, and every slave
//! variant owns a private copy whose times are advanced as ops are replayed
//! (§4.5: "the master's logical clocks do not need to be visible to the
//! slaves").

use std::sync::atomic::{AtomicU64, Ordering};

use crate::guards::{fnv1a_u64, EventCount};

/// A fixed array of logical clocks.
#[derive(Debug)]
pub struct ClockWall {
    clocks: Vec<AtomicU64>,
    /// Last address observed on each clock, used to count collisions
    /// (two *different* addresses mapping to the same clock).
    last_addr: Vec<AtomicU64>,
    /// Parking target for threads waiting on a clock time; posted on every
    /// tick.  Shared by all clocks of the wall: wakes are rare (only parked
    /// waiters pay), while a per-clock condvar would bloat the wall.
    events: EventCount,
}

impl ClockWall {
    /// Creates a wall with `count` clocks, all at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(count: usize) -> Self {
        assert!(count > 0, "clock wall needs at least one clock");
        ClockWall {
            clocks: (0..count).map(|_| AtomicU64::new(0)).collect(),
            last_addr: (0..count).map(|_| AtomicU64::new(0)).collect(),
            events: EventCount::new(),
        }
    }

    /// The wall's parking target: posted on every tick (and by the agents
    /// on poison).
    pub fn events(&self) -> &EventCount {
        &self.events
    }

    /// Number of clocks.
    pub fn len(&self) -> usize {
        self.clocks.len()
    }

    /// Whether the wall has no clocks (never true; see [`ClockWall::new`]).
    pub fn is_empty(&self) -> bool {
        self.clocks.is_empty()
    }

    /// Maps a synchronization-variable address to a clock index.
    ///
    /// Addresses are aligned down to 8 bytes first: two adjacent 32-bit sync
    /// variables sharing a 64-bit word are deliberately assigned to the same
    /// clock because a single `CMPXCHG8B` instruction could modify both
    /// (§4.5).
    pub fn clock_for(&self, addr: u64) -> usize {
        let aligned = addr & !7;
        (fnv1a_u64(aligned) % self.clocks.len() as u64) as usize
    }

    /// Current time of clock `id`.
    pub fn time(&self, id: usize) -> u64 {
        self.clocks[id].load(Ordering::Acquire)
    }

    /// Advances clock `id` by one tick and returns the *previous* time.
    pub fn tick(&self, id: usize) -> u64 {
        let prev = self.clocks[id].fetch_add(1, Ordering::AcqRel);
        self.events.notify();
        prev
    }

    /// Records that `addr` was just assigned to clock `id`; returns `true`
    /// when a *different* address had used this clock before (a collision).
    pub fn note_address(&self, id: usize, addr: u64) -> bool {
        let aligned = addr & !7;
        let prev = self.last_addr[id].swap(aligned, Ordering::Relaxed);
        prev != 0 && prev != aligned
    }

    /// Sum of all clock times (equals the number of ticks ever applied).
    pub fn total_ticks(&self) -> u64 {
        self.clocks.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clocks_start_at_zero_and_tick() {
        let wall = ClockWall::new(8);
        assert_eq!(wall.time(3), 0);
        assert_eq!(wall.tick(3), 0);
        assert_eq!(wall.tick(3), 1);
        assert_eq!(wall.time(3), 2);
        assert_eq!(wall.total_ticks(), 2);
    }

    #[test]
    fn clock_assignment_is_deterministic_and_word_aligned() {
        let wall = ClockWall::new(64);
        assert_eq!(wall.clock_for(0x7f00_1000), wall.clock_for(0x7f00_1000));
        // Adjacent 32-bit halves of one 64-bit word share a clock.
        assert_eq!(wall.clock_for(0x7f00_1000), wall.clock_for(0x7f00_1004));
    }

    #[test]
    fn different_addresses_can_share_a_clock_when_wall_is_small() {
        // With a single clock every address collides — the degenerate case
        // the ablation bench sweeps towards.
        let wall = ClockWall::new(1);
        assert_eq!(wall.clock_for(0x1000), 0);
        assert_eq!(wall.clock_for(0x2000), 0);
        assert!(!wall.note_address(0, 0x1000));
        assert!(wall.note_address(0, 0x2000));
    }

    #[test]
    fn note_address_does_not_flag_repeat_use() {
        let wall = ClockWall::new(4);
        let id = wall.clock_for(0x3000);
        assert!(!wall.note_address(id, 0x3000));
        assert!(!wall.note_address(id, 0x3000));
        assert!(!wall.note_address(id, 0x3004)); // same 64-bit word
    }

    #[test]
    fn wait_for_blocks_until_tick() {
        // A waiter parked on the wall's event count (the way the WoC
        // agent's slave clock wait uses it) is released by ticks.
        let wall = Arc::new(ClockWall::new(4));
        let w2 = Arc::clone(&wall);
        let handle = std::thread::spawn(move || {
            let waiter = crate::guards::Waiter::new(16);
            waiter.wait_until_event(w2.events(), || w2.time(2) >= 3)
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        wall.tick(2);
        wall.tick(2);
        wall.tick(2);
        handle.join().unwrap();
        assert!(wall.time(2) >= 3);
    }

    #[test]
    #[should_panic(expected = "at least one clock")]
    fn zero_clocks_panics() {
        let _ = ClockWall::new(0);
    }
}
