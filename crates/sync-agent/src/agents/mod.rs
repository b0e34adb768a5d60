//! The synchronization-agent implementations.
//!
//! Three designs are evaluated by the paper (§4.5) and implemented here, plus
//! a [`NullAgent`] that performs no replication and serves as the "native"
//! baseline in the benchmark harness:
//!
//! | Agent | Buffering | Slave ordering discipline |
//! |---|---|---|
//! | [`TotalOrderAgent`] | one shared buffer, shared cursor | exact recorded global order |
//! | [`PartialOrderAgent`] | one shared buffer, shared cursor | order only among ops on the same variable (look-ahead window) |
//! | [`WallOfClocksAgent`] | one buffer per master thread | per-clock happens-before via a fixed wall of logical clocks |
//!
//! Each agent is only its ordering predicate, answered by one non-blocking
//! [`try_before_sync_op`](crate::SyncAgent::try_before_sync_op) step; the
//! waiting, the poison bail-out and the counting live once, in the
//! [`before_sync_op`](crate::SyncAgent::before_sync_op) driver.  The
//! masters of all three share one guard-then-push step; a slave
//! step is Ready once its op is next — TO: the head record is its own;
//! PO: its next record has no unfinished earlier op on the same word, with
//! the look-ahead's skip state kept across polls; WoC: its record is
//! published and its clock reached the recorded time.

mod null;
mod partial_order;
mod total_order;
mod wall_of_clocks;

pub use null::NullAgent;
pub use partial_order::PartialOrderAgent;
pub use total_order::TotalOrderAgent;
pub use wall_of_clocks::WallOfClocksAgent;

use serde::{Deserialize, Serialize};

use crate::guards::GuardTable;
use crate::ring::{PushOutcome, RecordRing, SyncRecord};
use crate::{AgentCore, SyncStep, WaitSite};

/// Identifies an agent design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AgentKind {
    /// No replication at all (native baseline).
    Null,
    /// Total-order replication (§4.5, Figure 4a).
    TotalOrder,
    /// Partial-order replication (§4.5, Figure 4b).
    PartialOrder,
    /// Wall-of-clocks replication (§4.5, Figure 4c).
    WallOfClocks,
}

impl AgentKind {
    /// Human-readable name used in benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            AgentKind::Null => "none",
            AgentKind::TotalOrder => "total-order",
            AgentKind::PartialOrder => "partial-order",
            AgentKind::WallOfClocks => "wall-of-clocks",
        }
    }

    /// All replication agents, in the order the paper's tables list them.
    pub fn replication_agents() -> [AgentKind; 3] {
        [
            AgentKind::TotalOrder,
            AgentKind::PartialOrder,
            AgentKind::WallOfClocks,
        ]
    }
}

/// The master's step, shared by the three agents: wait for space, take the
/// op's ordering `guard`, then push the record `make_record` builds under it
/// (the wall-of-clocks agent reads its clock's time there).
///
/// Never holds the guard while waiting for space: a master thread stalled
/// on a full buffer would block every other master thread sharing the
/// guard, while the slave that should drain the buffer may itself be
/// waiting on one of those threads' ops — deadlock.  So the space check
/// comes first, and a push that still finds the ring full (a racing
/// producer took the slot) releases the guard before it blocks.  Once
/// poisoned, a full ring bails out holding the guard, so the paired
/// `after_sync_op` release stays balanced.
fn record_step<'a>(
    core: &AgentCore,
    guards: &'a GuardTable,
    guard: usize,
    ring: &'a RecordRing,
    make_record: impl FnOnce() -> SyncRecord,
) -> SyncStep<'a> {
    if !ring.has_space() && !core.is_poisoned() {
        return SyncStep::Blocked {
            site: WaitSite::RingSpace,
            events: ring.events(),
        };
    }
    if !guards.try_acquire(guard) {
        return SyncStep::Blocked {
            site: WaitSite::Guard,
            events: guards.events(),
        };
    }
    match ring.try_push(make_record()) {
        PushOutcome::Stored(_) => SyncStep::Ready,
        PushOutcome::Full if core.is_poisoned() => SyncStep::Bailed,
        PushOutcome::Full => {
            guards.release(guard);
            SyncStep::Blocked {
                site: WaitSite::RingSpace,
                events: ring.events(),
            }
        }
    }
}

/// Constructs a boxed agent of the requested kind.
pub fn build_agent(
    kind: AgentKind,
    config: crate::context::AgentConfig,
) -> Box<dyn crate::SyncAgent> {
    match kind {
        AgentKind::Null => Box::new(NullAgent::new()),
        AgentKind::TotalOrder => Box::new(TotalOrderAgent::new(config)),
        AgentKind::PartialOrder => Box::new(PartialOrderAgent::new(config)),
        AgentKind::WallOfClocks => Box::new(WallOfClocksAgent::new(config)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AgentConfig;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(AgentKind::TotalOrder.name(), "total-order");
        assert_eq!(AgentKind::WallOfClocks.name(), "wall-of-clocks");
        assert_eq!(AgentKind::Null.name(), "none");
    }

    #[test]
    fn replication_agents_excludes_null() {
        let agents = AgentKind::replication_agents();
        assert_eq!(agents.len(), 3);
        assert!(!agents.contains(&AgentKind::Null));
    }

    #[test]
    fn build_agent_returns_matching_kind() {
        let config = AgentConfig::default();
        for kind in [
            AgentKind::Null,
            AgentKind::TotalOrder,
            AgentKind::PartialOrder,
            AgentKind::WallOfClocks,
        ] {
            let agent = build_agent(kind, config);
            assert_eq!(agent.kind(), kind);
        }
    }

    /// Schedules of the poll face stepped from one thread: every
    /// interleaving below is chosen by the test, none by the OS.
    mod schedule {
        use super::*;
        use crate::context::{SyncContext, VariantRole};
        use crate::SyncAgent;

        const LOCK: u64 = 0xC000;

        fn agent(kind: AgentKind) -> Box<dyn SyncAgent> {
            build_agent(
                kind,
                AgentConfig::default()
                    .with_variants(2)
                    .with_buffer_capacity(8),
            )
        }

        fn master(thread: usize) -> SyncContext {
            SyncContext::new(VariantRole::Master, thread)
        }

        fn slave(thread: usize) -> SyncContext {
            SyncContext::new(VariantRole::Slave { index: 0 }, thread)
        }

        fn site(step: SyncStep<'_>) -> Option<WaitSite> {
            match step {
                SyncStep::Blocked { site, .. } => Some(site),
                SyncStep::Ready => None,
                SyncStep::Bailed => panic!("bailed without poison"),
            }
        }

        /// Steps `ctx`'s op once and completes it if it was Ready; returns
        /// where it is blocked otherwise.
        fn step(agent: &dyn SyncAgent, ctx: &SyncContext, addr: u64) -> Option<WaitSite> {
            let blocked = site(agent.try_before_sync_op(ctx, addr));
            if blocked.is_none() {
                agent.after_sync_op(ctx, addr);
            }
            blocked
        }

        #[test]
        fn a_slave_is_blocked_on_replay_until_its_master_publishes() {
            for kind in AgentKind::replication_agents() {
                let agent = agent(kind);
                let agent = agent.as_ref();
                assert_eq!(step(agent, &slave(0), 0x5000), Some(WaitSite::Replay));
                assert_eq!(step(agent, &master(0), 0x4000), None, "{kind:?}");
                assert_eq!(step(agent, &slave(0), 0x5000), None, "{kind:?}");
                // Steps count nothing; the driver does.
                assert_eq!(agent.stats(), crate::AgentStats::default(), "{kind:?}");
            }
        }

        #[test]
        fn total_order_stalls_a_slave_behind_an_unrelated_head() {
            // Figure 4a: slave thread 1's op is unrelated to thread 0's, but
            // thread 0's record is at the head.
            let agent = agent(AgentKind::TotalOrder);
            let agent = agent.as_ref();
            assert_eq!(step(agent, &master(0), 0xA000), None);
            assert_eq!(step(agent, &master(1), 0xB000), None);
            assert_eq!(step(agent, &slave(1), 0xBB00), Some(WaitSite::Replay));
            assert_eq!(step(agent, &slave(0), 0xAA00), None);
            assert_eq!(step(agent, &slave(1), 0xBB00), None);
        }

        #[test]
        fn partial_order_passes_an_independent_op_and_holds_a_dependent_one() {
            let agent = agent(AgentKind::PartialOrder);
            let agent = agent.as_ref();
            assert_eq!(step(agent, &master(0), 0xA000), None);
            assert_eq!(step(agent, &master(1), 0xB000), None);
            assert_eq!(step(agent, &master(2), 0xA000), None);
            // Thread 2's op depends on thread 0's pending one; thread 1's
            // does not, and overtakes it.
            assert_eq!(step(agent, &slave(2), 0xAA00), Some(WaitSite::Replay));
            assert_eq!(step(agent, &slave(1), 0xBB00), None);
            assert_eq!(step(agent, &slave(2), 0xAA00), Some(WaitSite::Replay));
            assert_eq!(step(agent, &slave(0), 0xAA00), None);
            assert_eq!(step(agent, &slave(2), 0xAA00), None);
        }

        #[test]
        fn wall_of_clocks_waits_on_the_wall_until_the_earlier_thread_ticks() {
            let agent = agent(AgentKind::WallOfClocks);
            let agent = agent.as_ref();
            let SyncStep::Blocked { events: ring, .. } = agent.try_before_sync_op(&slave(1), LOCK)
            else {
                panic!("nothing is published yet");
            };
            assert_eq!(step(agent, &master(0), LOCK), None);
            assert_eq!(step(agent, &master(1), LOCK), None);
            // Thread 1's record is published now, so it waits on a
            // different event count: its clock's wall.
            let SyncStep::Blocked { site, events } = agent.try_before_sync_op(&slave(1), LOCK)
            else {
                panic!("thread 1's time on the lock's clock comes after thread 0's");
            };
            assert_eq!(site, WaitSite::Replay);
            assert!(
                !std::ptr::eq(events, ring),
                "blocked on the wall, not the ring"
            );
            assert_eq!(step(agent, &slave(0), LOCK), None);
            assert_eq!(step(agent, &slave(1), LOCK), None);
        }

        /// Fills master thread 0's 8-slot ring with ops on `LOCK`.
        fn fill(agent: &dyn SyncAgent) {
            for _ in 0..8 {
                assert_eq!(step(agent, &master(0), LOCK), None);
            }
        }

        #[test]
        fn a_master_on_a_full_ring_waits_for_space_without_its_guard() {
            for kind in AgentKind::replication_agents() {
                let agent = agent(kind);
                let agent = agent.as_ref();
                fill(agent);
                let full = agent.try_before_sync_op(&master(0), LOCK);
                assert_eq!(site(full), Some(WaitSite::RingSpace), "{kind:?}");
                // Master thread 1's op on the same variable shares the
                // guard; once a slot frees it gets past that guard, which
                // the blocked thread 0 therefore does not hold.
                assert_eq!(step(agent, &slave(0), LOCK), None, "{kind:?}");
                assert_eq!(step(agent, &master(1), LOCK), None, "{kind:?}");
                assert_eq!(step(agent, &slave(0), LOCK), None, "{kind:?}");
                assert_eq!(step(agent, &master(0), LOCK), None, "{kind:?}");
            }
        }

        #[test]
        fn a_poisoned_master_on_a_full_ring_bails_holding_its_guard() {
            for kind in AgentKind::replication_agents() {
                let agent = agent(kind);
                let agent = agent.as_ref();
                fill(agent);
                agent.poison();
                let bailed = agent.try_before_sync_op(&master(0), LOCK);
                assert!(matches!(bailed, SyncStep::Bailed), "{kind:?}: {bailed:?}");
                let held = agent.try_before_sync_op(&master(1), LOCK);
                assert_eq!(site(held), Some(WaitSite::Guard), "{kind:?}");
                agent.after_sync_op(&master(0), LOCK);
                assert!(!matches!(
                    agent.try_before_sync_op(&master(1), LOCK),
                    SyncStep::Blocked { .. }
                ));
                agent.after_sync_op(&master(1), LOCK);
            }
        }
    }
}
