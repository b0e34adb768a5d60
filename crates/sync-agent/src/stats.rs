//! Counters the agents maintain and the benchmark harness reads.
//!
//! [`SharedStats`] is striped into independent *lanes* of atomic counters.
//! Every agent call updates the lane of the calling thread's lane index
//! (`thread % lane_count`), so threads of different thread groups never
//! ping-pong the same counter cache line — the same per-thread-group
//! sharding discipline the monitor's rendezvous table uses.  [`snapshot`]
//! sums all lanes into one [`AgentStats`]; [`lane_snapshot`] exposes a single
//! lane for per-shard observation.
//!
//! [`snapshot`]: SharedStats::snapshot
//! [`lane_snapshot`]: SharedStats::lane_snapshot

use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::context::VariantRole;
use crate::guards::WaitTally;

/// Default number of counter lanes; matches the monitor's default shard
/// count scaled up so a 16-variant × many-thread run still spreads its
/// updates.
pub const DEFAULT_STAT_LANES: usize = 16;

/// A snapshot of an agent's counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AgentStats {
    /// Sync ops recorded by the master variant.
    pub ops_recorded: u64,
    /// Sync ops replayed by slave variants (summed over all slaves).
    pub ops_replayed: u64,
    /// Times a slave thread had to wait before it could execute its next op.
    pub slave_stalls: u64,
    /// Times the master had to wait because a sync buffer was full.
    pub master_stalls: u64,
    /// Total spin-wait iterations executed by slaves while stalled.  Reads
    /// 0 on a one-CPU process by design: the default waiter skips its spin
    /// phase there ([`spin_budget`](crate::guards::spin_budget)).
    pub slave_spin_iterations: u64,
    /// `yield_now` calls executed by slaves while stalled (the waiter's
    /// second phase).
    pub slave_yields: u64,
    /// Parking episodes (condvar blocks) of stalled slaves — the waiter's
    /// third phase.
    pub slave_parks: u64,
    /// Spin-wait iterations of master threads stalled on a full sync buffer
    /// (0 on a one-CPU process by design, like `slave_spin_iterations`).
    #[serde(default)]
    pub master_spin_iterations: u64,
    /// `yield_now` calls of master threads stalled on a full sync buffer.
    #[serde(default)]
    pub master_yields: u64,
    /// Parking episodes of master threads stalled on a full sync buffer.
    pub master_parks: u64,
    /// Times a producer had to refresh its cached minimum-reader cursor by
    /// rescanning every slave cursor (see
    /// [`RecordRing::rescans`](crate::ring::RecordRing::rescans)).
    pub cursor_rescans: u64,
    /// Times two distinct sync-variable addresses hashed onto the same
    /// logical clock (wall-of-clocks only): false serialization.
    pub clock_collisions: u64,
    /// Replication points reached: sync ops at which the replication hook
    /// (deferred-comparison flushes, divergence-journal emissions) was
    /// consulted.  Counted once per hook invocation regardless of role.
    #[serde(default)]
    pub replication_points: u64,
}

impl AgentStats {
    /// Replays per recorded op; 1.0 per slave when every op was replayed.
    pub fn replay_ratio(&self) -> f64 {
        if self.ops_recorded == 0 {
            0.0
        } else {
            self.ops_replayed as f64 / self.ops_recorded as f64
        }
    }

    /// Stalls per replayed op — the agent-efficiency figure the paper's
    /// Figure 4 illustrates qualitatively.
    pub fn stall_rate(&self) -> f64 {
        if self.ops_replayed == 0 {
            0.0
        } else {
            self.slave_stalls as f64 / self.ops_replayed as f64
        }
    }

    /// Total wait iterations of any kind (spin + yield + park) executed by
    /// slaves.  The components are not time-commensurable (a park lasts up
    /// to 1 ms, a spin nanoseconds), so this sum is an episode count only —
    /// strategy comparisons must read the three component fields.
    pub fn slave_wait_iterations(&self) -> u64 {
        self.slave_spin_iterations + self.slave_yields + self.slave_parks
    }

    fn add(&mut self, other: &AgentStats) {
        self.ops_recorded += other.ops_recorded;
        self.ops_replayed += other.ops_replayed;
        self.slave_stalls += other.slave_stalls;
        self.master_stalls += other.master_stalls;
        self.slave_spin_iterations += other.slave_spin_iterations;
        self.slave_yields += other.slave_yields;
        self.slave_parks += other.slave_parks;
        self.master_spin_iterations += other.master_spin_iterations;
        self.master_yields += other.master_yields;
        self.master_parks += other.master_parks;
        self.cursor_rescans += other.cursor_rescans;
        self.clock_collisions += other.clock_collisions;
        self.replication_points += other.replication_points;
    }
}

/// One stripe of counters, padded to a cache line so adjacent lanes never
/// false-share (the whole point of the striping).
#[derive(Debug, Default)]
#[repr(align(64))]
struct Lane {
    ops_recorded: AtomicU64,
    ops_replayed: AtomicU64,
    slave_stalls: AtomicU64,
    master_stalls: AtomicU64,
    slave_spin_iterations: AtomicU64,
    slave_yields: AtomicU64,
    slave_parks: AtomicU64,
    master_spin_iterations: AtomicU64,
    master_yields: AtomicU64,
    master_parks: AtomicU64,
    clock_collisions: AtomicU64,
    replication_points: AtomicU64,
}

impl Lane {
    fn snapshot(&self) -> AgentStats {
        AgentStats {
            ops_recorded: self.ops_recorded.load(Ordering::Relaxed),
            ops_replayed: self.ops_replayed.load(Ordering::Relaxed),
            slave_stalls: self.slave_stalls.load(Ordering::Relaxed),
            master_stalls: self.master_stalls.load(Ordering::Relaxed),
            slave_spin_iterations: self.slave_spin_iterations.load(Ordering::Relaxed),
            slave_yields: self.slave_yields.load(Ordering::Relaxed),
            slave_parks: self.slave_parks.load(Ordering::Relaxed),
            master_spin_iterations: self.master_spin_iterations.load(Ordering::Relaxed),
            master_yields: self.master_yields.load(Ordering::Relaxed),
            master_parks: self.master_parks.load(Ordering::Relaxed),
            // Rescans live in the rings, not the lanes; the owning agent
            // adds them into its own snapshot.
            cursor_rescans: 0,
            clock_collisions: self.clock_collisions.load(Ordering::Relaxed),
            replication_points: self.replication_points.load(Ordering::Relaxed),
        }
    }
}

/// Thread-safe, lane-striped counter block shared by an agent's threads.
///
/// Every count method takes the caller's `lane` hint — agents pass the
/// logical thread index, which is mapped onto a lane by modulo.
#[derive(Debug)]
pub struct SharedStats {
    lanes: Box<[Lane]>,
}

impl Default for SharedStats {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedStats {
    /// Creates a counter block with [`DEFAULT_STAT_LANES`] lanes.
    pub fn new() -> Self {
        Self::with_lanes(DEFAULT_STAT_LANES)
    }

    /// Creates a counter block with `lanes` stripes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn with_lanes(lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one stat lane");
        SharedStats {
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
        }
    }

    /// Number of counter lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    fn lane(&self, lane: usize) -> &Lane {
        &self.lanes[lane % self.lanes.len()]
    }

    /// Counts one op that went ahead — recorded by the master, replayed by
    /// a slave — and, when its [`WaitTally`] shows it waited, one stall of
    /// that role with the wait's spin/yield/park split.
    pub fn count_op(&self, lane: usize, role: VariantRole, tally: WaitTally) {
        let lane = self.lane(lane);
        let [ops, stalls, spins, yields, parks] = if role.is_master() {
            [
                &lane.ops_recorded,
                &lane.master_stalls,
                &lane.master_spin_iterations,
                &lane.master_yields,
                &lane.master_parks,
            ]
        } else {
            [
                &lane.ops_replayed,
                &lane.slave_stalls,
                &lane.slave_spin_iterations,
                &lane.slave_yields,
                &lane.slave_parks,
            ]
        };
        ops.fetch_add(1, Ordering::Relaxed);
        if !tally.stalled() {
            return;
        }
        stalls.fetch_add(1, Ordering::Relaxed);
        for (counter, n) in [
            (spins, tally.spins),
            (yields, tally.yields),
            (parks, tally.parks),
        ] {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Counts one replication point: a sync op at which the injected
    /// replication hook was consulted.
    pub fn count_replication_point(&self, lane: usize) {
        self.lane(lane)
            .replication_points
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one hash collision between distinct addresses on one clock.
    pub fn count_clock_collision(&self, lane: usize) {
        self.lane(lane)
            .clock_collisions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A consistent-enough snapshot of one counter lane — the per-shard view
    /// agents expose instead of a single global counter.
    pub fn lane_snapshot(&self, lane: usize) -> AgentStats {
        self.lane(lane).snapshot()
    }

    /// Takes a consistent-enough snapshot summed over all lanes.
    pub fn snapshot(&self) -> AgentStats {
        let mut total = AgentStats::default();
        for lane in self.lanes.iter() {
            total.add(&lane.snapshot());
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MASTER: VariantRole = VariantRole::Master;
    const SLAVE: VariantRole = VariantRole::Slave { index: 0 };

    #[test]
    fn counters_accumulate_into_snapshot() {
        let s = SharedStats::new();
        s.count_op(0, MASTER, WaitTally::default());
        s.count_op(0, MASTER, WaitTally::default());
        s.count_op(1, SLAVE, WaitTally::default());
        s.count_clock_collision(5);
        s.count_replication_point(6);
        s.count_replication_point(6);
        s.count_replication_point(7);
        let snap = s.snapshot();
        assert_eq!(snap.ops_recorded, 2);
        assert_eq!(snap.ops_replayed, 1);
        assert_eq!(snap.slave_stalls, 0);
        assert_eq!(snap.master_stalls, 0);
        assert_eq!(snap.clock_collisions, 1);
        assert_eq!(snap.replication_points, 3);
    }

    #[test]
    fn lanes_isolate_updates_and_sum_globally() {
        let s = SharedStats::with_lanes(4);
        assert_eq!(s.lane_count(), 4);
        for lane in [0, 1, 5] {
            // Lane 5 % 4 == 1.
            s.count_op(lane, MASTER, WaitTally::default());
        }
        assert_eq!(s.lane_snapshot(0).ops_recorded, 1);
        assert_eq!(s.lane_snapshot(1).ops_recorded, 2);
        assert_eq!(s.lane_snapshot(2).ops_recorded, 0);
        assert_eq!(s.snapshot().ops_recorded, 3);
    }

    #[test]
    fn wait_tallies_feed_the_stall_taxonomy() {
        let s = SharedStats::with_lanes(2);
        s.count_op(
            0,
            SLAVE,
            WaitTally {
                spins: 10,
                yields: 3,
                parks: 2,
            },
        );
        // An op that did not wait counts no stall.
        s.count_op(0, SLAVE, WaitTally::default());
        s.count_op(
            1,
            MASTER,
            WaitTally {
                spins: 5,
                yields: 0,
                parks: 4,
            },
        );
        let snap = s.snapshot();
        assert_eq!(snap.ops_replayed, 2);
        assert_eq!(snap.slave_stalls, 1);
        assert_eq!(snap.slave_spin_iterations, 10);
        assert_eq!(snap.slave_yields, 3);
        assert_eq!(snap.slave_parks, 2);
        assert_eq!(snap.ops_recorded, 1);
        assert_eq!(snap.master_stalls, 1);
        assert_eq!(snap.master_spin_iterations, 5);
        assert_eq!(snap.master_yields, 0);
        assert_eq!(snap.master_parks, 4);
        assert_eq!(snap.slave_wait_iterations(), 15);
    }

    #[test]
    fn ratios_handle_zero_denominators() {
        let empty = AgentStats::default();
        assert_eq!(empty.replay_ratio(), 0.0);
        assert_eq!(empty.stall_rate(), 0.0);
    }

    #[test]
    fn replay_ratio_counts_all_slaves() {
        let s = AgentStats {
            ops_recorded: 10,
            ops_replayed: 30,
            ..Default::default()
        };
        // Three slaves each replayed all ten ops.
        assert!((s.replay_ratio() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn stall_rate_is_per_replayed_op() {
        let s = AgentStats {
            ops_recorded: 10,
            ops_replayed: 20,
            slave_stalls: 5,
            ..Default::default()
        };
        assert!((s.stall_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one stat lane")]
    fn zero_lanes_panics() {
        let _ = SharedStats::with_lanes(0);
    }
}
