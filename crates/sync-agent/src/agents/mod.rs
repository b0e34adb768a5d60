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

mod null;
mod partial_order;
mod total_order;
mod wall_of_clocks;

pub use null::NullAgent;
pub use partial_order::PartialOrderAgent;
pub use total_order::TotalOrderAgent;
pub use wall_of_clocks::WallOfClocksAgent;

use serde::{Deserialize, Serialize};

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

/// One-shot storage for an agent's [`ReplicationHook`](crate::ReplicationHook).
///
/// Installed once by the MVEE front end, fired lock-free afterwards (an
/// uninstalled cell is a single atomic load on the sync-op hot path).  Every
/// agent embeds one and fires it at the top of `before_sync_op` — before any
/// guard is taken, so a hook that blocks (a snapshot capture takes kernel
/// locks) can never deadlock against the agent's own ordering guards.
pub(crate) struct HookCell(std::sync::OnceLock<crate::ReplicationHook>);

impl HookCell {
    pub(crate) fn new() -> Self {
        HookCell(std::sync::OnceLock::new())
    }

    /// Stores the hook; later installs are ignored.
    pub(crate) fn install(&self, hook: crate::ReplicationHook) {
        let _ = self.0.set(hook);
    }

    /// Fires the hook for `ctx`'s thread and counts it in `stats`
    /// ([`AgentStats::replication_points`]) — an uninstalled cell counts
    /// nothing, so the counter reads zero unless a front end actually
    /// consumes replication points (journal recording, snapshots).
    ///
    /// [`AgentStats::replication_points`]: crate::stats::AgentStats::replication_points
    #[inline]
    pub(crate) fn sync_op(
        &self,
        ctx: &crate::context::SyncContext,
        stats: &crate::stats::SharedStats,
    ) {
        if let Some(hook) = self.0.get() {
            stats.count_replication_point(ctx.thread);
            hook(ctx);
        }
    }
}

impl Default for HookCell {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for HookCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("HookCell")
            .field(&self.0.get().map(|_| "installed"))
            .finish()
    }
}

/// The shared master-side "record an op under its ordering guard" loop.
///
/// Acquires the guard for `guard_idx`, builds the record (under the guard —
/// the wall-of-clocks agent reads the clock's current time there) and tries
/// to push it into `ring`.  On a full ring the guard is dropped while
/// waiting for space — never hold the ordering guard while waiting for
/// buffer space, or a master thread stalled on a full buffer blocks every
/// other master thread sharing the guard while the slave that should drain
/// the buffer may itself be waiting on one of those threads' ops: deadlock.
///
/// Returns `true` when the record was stored and `false` when the agent was
/// poisoned while waiting for space (the record is dropped — the slaves
/// that would replay it are shutting down).  In **both** cases the caller
/// ends up holding the guard, so the paired `after_sync_op` release stays
/// balanced.
///
/// The full-buffer wait parks on the ring's event count: every slave cursor
/// advance posts it, and the agents post it from `poison`, so a parked
/// master can never sleep through the wake-up it is waiting for.
pub(crate) fn push_record_guarded(
    guards: &crate::guards::GuardTable,
    guard_idx: usize,
    ring: &crate::ring::RecordRing,
    waiter: &crate::guards::Waiter,
    on_master_stall: impl Fn(crate::guards::WaitTally),
    is_poisoned: impl Fn() -> bool,
    make_record: impl Fn() -> crate::ring::SyncRecord,
) -> bool {
    loop {
        guards.acquire(guard_idx);
        match ring.try_push(make_record()) {
            crate::ring::PushOutcome::Stored(_) => return true,
            crate::ring::PushOutcome::Full => {
                guards.release(guard_idx);
                let tally =
                    waiter.wait_until_event(ring.events(), || is_poisoned() || ring.has_space());
                on_master_stall(tally);
                if is_poisoned() {
                    guards.acquire(guard_idx);
                    return false;
                }
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
}
