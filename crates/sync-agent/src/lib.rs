//! Synchronization agents for the MVEE reproduction.
//!
//! The paper's key contribution is a family of *synchronization agents*:
//! shared libraries injected into each variant that record the order in which
//! the **master** variant executes its synchronization operations (sync ops)
//! and replay an equivalent order in the **slave** variants.  A sync op, in
//! the paper's terminology, is an individual instruction that accesses a
//! synchronization variable — a `LOCK`-prefixed instruction, an `XCHG`, or an
//! aligned load/store that may alias one of those (§4.3).
//!
//! This crate implements the three agents the paper evaluates:
//!
//! * [`TotalOrderAgent`] — records a single global
//!   order in one shared buffer and replays it *exactly*; simple but slaves
//!   stall on unrelated operations (§4.5, Figure 4a).
//! * [`PartialOrderAgent`] — only enforces order
//!   between *dependent* sync ops (same memory location); slaves look ahead
//!   in a window of the shared buffer (§4.5, Figure 4b).
//! * [`WallOfClocksAgent`] — the paper's novel
//!   design: synchronization variables are hashed onto a fixed wall of
//!   logical clocks, each master thread records `(clock, time)` pairs into
//!   its own single-producer buffer, and slaves wait on their local clock
//!   copies (§4.5, Figure 4c).
//!
//! All agents obey the constraint of §3.3: they never allocate memory
//! dynamically after attachment, because an allocation in the master that
//! does not happen identically in the slaves would itself cause divergence.
//! Buffers and clock walls are sized at construction from an
//! [`AgentConfig`].
//!
//! # Usage
//!
//! The MVEE constructs one agent per run ("injects the agent") and hands each
//! variant thread a [`SyncContext`] describing its role
//! (master or n-th slave) and its logical thread index.  Instrumented code
//! then brackets every sync op with
//! [`before_sync_op`](SyncAgent::before_sync_op) and
//! [`after_sync_op`](SyncAgent::after_sync_op), exactly like the
//! instrumented spinlock in Listing 3 of the paper:
//!
//! ```
//! use std::sync::atomic::{AtomicU32, Ordering};
//! use mvee_sync_agent::agents::WallOfClocksAgent;
//! use mvee_sync_agent::context::{AgentConfig, SyncContext, VariantRole};
//! use mvee_sync_agent::SyncAgent;
//!
//! let agent = WallOfClocksAgent::new(AgentConfig::default().with_variants(2));
//! let master = SyncContext::new(VariantRole::Master, 0);
//! let lock_word = AtomicU32::new(0);
//! let addr = &lock_word as *const _ as u64;
//!
//! // Master side of an instrumented spinlock acquisition.
//! agent.before_sync_op(&master, addr);
//! let acquired = lock_word
//!     .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
//!     .is_ok();
//! agent.after_sync_op(&master, addr);
//! assert!(acquired);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agents;
pub mod clockwall;
pub mod context;
pub mod guards;
pub mod ring;
pub mod spsc;
pub mod stats;

pub use agents::{AgentKind, NullAgent, PartialOrderAgent, TotalOrderAgent, WallOfClocksAgent};
pub use context::{AgentConfig, SyncContext, VariantRole};
pub use stats::AgentStats;

/// Callback the MVEE front end installs on an agent with
/// [`SyncAgent::set_replication_hook`], called at every replication point:
/// the thread described by the context is entering
/// [`SyncAgent::before_sync_op`] and is about to record or replay a sync op.
///
/// Invoked inline on the calling variant thread; implementations may block
/// but must never call back into the same agent's sync-op hooks.
pub type ReplicationHook = std::sync::Arc<dyn Fn(&context::SyncContext) + Send + Sync>;

/// The interface every synchronization agent implements.
///
/// Instrumented code calls [`before_sync_op`](Self::before_sync_op)
/// immediately before executing a sync op and
/// [`after_sync_op`](Self::after_sync_op) immediately after, passing the
/// address of the synchronization variable.  In the master variant the pair
/// records the op; in a slave variant `before_sync_op` blocks until executing
/// the op would be consistent with the recorded order.
pub trait SyncAgent: Send + Sync {
    /// Which agent design this is.
    fn kind(&self) -> agents::AgentKind;

    /// Called immediately before a sync op on the variable at `addr`.
    ///
    /// * Master role: claims the op's position in the recorded order.
    /// * Slave role: blocks until all ops that must precede this one (under
    ///   this agent's ordering discipline) have completed.
    fn before_sync_op(&self, ctx: &context::SyncContext, addr: u64);

    /// Called immediately after the sync op on the variable at `addr` has
    /// executed.
    ///
    /// * Master role: publishes the recorded op so slaves may replay it.
    /// * Slave role: marks the op as completed, unblocking dependent ops.
    fn after_sync_op(&self, ctx: &context::SyncContext, addr: u64);

    /// Returns a snapshot of the agent's counters.
    fn stats(&self) -> stats::AgentStats;

    /// Returns one stripe of the agent's lane-striped counters (the
    /// per-thread-group view, mirroring the monitor's `lane_stats`), so the
    /// stall taxonomy — spins vs yields vs parks — can be attributed to a
    /// thread group instead of only globally.  Ring-level counters
    /// (`cursor_rescans`) are not striped and appear only in the aggregate
    /// [`stats`](Self::stats).  The default implementation returns the
    /// aggregate snapshot (the null agent has a single conceptual lane).
    fn lane_stats(&self, _lane: usize) -> stats::AgentStats {
        self.stats()
    }

    /// Marks the agent as poisoned and releases every blocked wait.
    ///
    /// The monitor calls this when divergence has been detected: record and
    /// replay cannot meaningfully continue (the master may already have
    /// stopped recording, slaves may already have stopped draining), so any
    /// thread blocked in [`before_sync_op`](Self::before_sync_op) — a replay
    /// wait or a full-buffer wait — must return promptly instead of
    /// deadlocking the shutdown.  After poisoning, the sync-op hooks degrade
    /// to (near) no-ops; the variants are about to be torn down anyway.
    ///
    /// The default implementation does nothing (the null agent never blocks).
    fn poison(&self) {}

    /// Whether the agent has been poisoned.
    fn is_poisoned(&self) -> bool {
        false
    }

    /// Tells the agent that `variant` has been quarantined: dropped from
    /// the replication quorum after a proven divergence, while the
    /// surviving variants keep recording and replaying.  Unlike
    /// [`poison`](Self::poison) this is not a shutdown — the agent should
    /// keep serving the survivors and merely stop expecting the quarantined
    /// variant to drain its buffers.
    ///
    /// The default implementation does nothing: the built-in agents' replay
    /// waits are already released by the monitor's rendezvous sweep, and a
    /// quarantined variant's threads stop calling the sync-op hooks.
    fn quarantine_lane(&self, _variant: usize) {}

    /// Tells the agent that a previously quarantined `variant` has been
    /// restored to the quorum at a quiescent boundary and will resume
    /// issuing sync ops from the survivors' frontier.
    ///
    /// The default implementation does nothing (see
    /// [`quarantine_lane`](Self::quarantine_lane)).
    fn readmit_lane(&self, _variant: usize) {}

    /// Installs the [`ReplicationHook`] fired at every replication point
    /// (the start of [`before_sync_op`](Self::before_sync_op)).
    ///
    /// The MVEE front end uses this to log sync ops into the divergence
    /// journal and to take state snapshots at a transport-invariant
    /// boundary.  At most one hook can be installed; later installs are
    /// ignored.  The default implementation discards the hook (for agents
    /// outside this crate that predate it).
    fn set_replication_hook(&self, _hook: ReplicationHook) {}
}

/// Convenience wrapper that brackets a closure between
/// [`SyncAgent::before_sync_op`] and [`SyncAgent::after_sync_op`].
pub fn with_sync_op<T>(
    agent: &dyn SyncAgent,
    ctx: &context::SyncContext,
    addr: u64,
    op: impl FnOnce() -> T,
) -> T {
    agent.before_sync_op(ctx, addr);
    let result = op();
    agent.after_sync_op(ctx, addr);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agents::NullAgent;
    use crate::context::{SyncContext, VariantRole};

    #[test]
    fn with_sync_op_returns_closure_result() {
        let agent = NullAgent::new();
        let ctx = SyncContext::new(VariantRole::Master, 0);
        let v = with_sync_op(&agent, &ctx, 0x1000, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(agent.stats().ops_recorded, 1);
    }
}
