//! The no-op agent: counts sync ops but performs no replication.
//!
//! Used for "native" baseline measurements (the cost of the instrumentation
//! calls themselves, without any ordering) and in single-variant runs where
//! there is nothing to replicate to.

use crate::context::SyncContext;
use crate::{AgentCore, SyncAgent, SyncStep};

use super::AgentKind;

/// An agent that records statistics but enforces no ordering.
///
/// Even the no-op agent goes through the shared driver, so it marks its
/// replication points and journals and snapshots see the same program
/// positions under every agent.
#[derive(Debug, Default)]
pub struct NullAgent {
    core: AgentCore,
}

impl NullAgent {
    /// Creates a null agent.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SyncAgent for NullAgent {
    fn kind(&self) -> AgentKind {
        AgentKind::Null
    }

    fn core(&self) -> &AgentCore {
        &self.core
    }

    fn try_before_sync_op(&self, _ctx: &SyncContext, _addr: u64) -> SyncStep<'_> {
        SyncStep::Ready
    }

    fn after_sync_op(&self, _ctx: &SyncContext, _addr: u64) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::VariantRole;

    #[test]
    fn null_agent_never_blocks_and_counts_ops() {
        let agent = NullAgent::new();
        let master = SyncContext::new(VariantRole::Master, 0);
        let slave = SyncContext::new(VariantRole::Slave { index: 0 }, 0);
        for i in 0..10 {
            agent.before_sync_op(&master, 0x1000 + i);
            agent.after_sync_op(&master, 0x1000 + i);
        }
        for i in 0..7 {
            agent.before_sync_op(&slave, 0x1000 + i);
            agent.after_sync_op(&slave, 0x1000 + i);
        }
        let s = agent.stats();
        assert_eq!(s.ops_recorded, 10);
        assert_eq!(s.ops_replayed, 7);
        assert_eq!(s.slave_stalls, 0);
        assert_eq!(s.master_stalls, 0);
    }

    #[test]
    fn null_agent_reports_its_kind() {
        assert_eq!(NullAgent::new().kind(), AgentKind::Null);
    }
}
