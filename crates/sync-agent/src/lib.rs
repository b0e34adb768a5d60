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
//! # One step per agent, one wait for all of them
//!
//! An agent never blocks: its one non-blocking step,
//! [`try_before_sync_op`](SyncAgent::try_before_sync_op), answers
//! [`Ready`](SyncStep::Ready), [`Bailed`](SyncStep::Bailed) or
//! [`Blocked`](SyncStep::Blocked) naming the [`WaitSite`] and the event
//! count whose post can change the answer.  The one blocking driver,
//! [`before_sync_op`](SyncAgent::before_sync_op), is shared by every agent:
//! it fires the replication hook, waits wherever the step is blocked, and
//! counts the op and its stalls.  So each agent is only its ordering
//! predicate; the wait, the poison bail-out and the stall taxonomy exist
//! once.
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

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

pub use agents::{AgentKind, NullAgent, PartialOrderAgent, TotalOrderAgent, WallOfClocksAgent};
pub use context::{AgentConfig, SyncContext, VariantRole};
pub use stats::AgentStats;

use guards::{EventCount, WaitTally, Waiter};
use stats::SharedStats;

/// Callback the MVEE front end installs on an agent with
/// [`SyncAgent::set_replication_hook`], called at every replication point:
/// the thread described by the context is entering
/// [`SyncAgent::before_sync_op`] and is about to record or replay a sync op.
///
/// Invoked inline on the calling variant thread; implementations may block
/// but must never call back into the same agent's sync-op hooks.
pub type ReplicationHook = std::sync::Arc<dyn Fn(&context::SyncContext) + Send + Sync>;

/// Where a sync op waits when its agent cannot let it proceed yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaitSite {
    /// A master waits for its op's ordering guard, held by another master
    /// thread between its `before_sync_op` and `after_sync_op`.  Not a
    /// stall: it is the program's own contention on the variable.
    Guard,
    /// A master waits for a slot in a full sync buffer (a master stall).
    RingSpace,
    /// A slave waits until replaying its op is consistent with the
    /// recorded order (a slave stall).
    Replay,
}

/// One non-blocking step of [`SyncAgent::try_before_sync_op`].
#[derive(Debug, Clone, Copy)]
pub enum SyncStep<'a> {
    /// The op may execute now: the master recorded it (holding its ordering
    /// guard), or the slave claimed it for replay.
    Ready,
    /// Poisoned where the op would wait: nothing recorded or claimed, but a
    /// master holds its guard, so `after_sync_op` stays balanced.
    Bailed,
    /// The op cannot proceed yet; a blocked master holds no guard.
    Blocked {
        /// What the op waits for.
        site: WaitSite,
        /// The event count whose post can change the answer.
        events: &'a EventCount,
    },
}

/// What every agent shares with the [`before_sync_op`] driver: the waiter,
/// the lane-striped counters, the poison flag and the replication hook.
///
/// [`before_sync_op`]: SyncAgent::before_sync_op
pub struct AgentCore {
    waiter: Waiter,
    stats: SharedStats,
    poisoned: AtomicBool,
    hook: OnceLock<ReplicationHook>,
}

impl AgentCore {
    /// A core whose driver waits with `waiter`.
    pub fn new(waiter: Waiter) -> Self {
        AgentCore {
            waiter,
            stats: SharedStats::new(),
            poisoned: AtomicBool::new(false),
            hook: OnceLock::new(),
        }
    }

    /// The agent's counters.
    pub fn stats(&self) -> &SharedStats {
        &self.stats
    }

    /// Whether [`poison`](Self::poison) was called.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Sets the poison flag; the agent then posts every event count its
    /// steps block on, so parked waiters re-step and bail out.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
    }

    /// The one bail rule: an op that would wait bails out once poisoned.
    pub fn block<'a>(&self, site: WaitSite, events: &'a EventCount) -> SyncStep<'a> {
        if self.is_poisoned() {
            SyncStep::Bailed
        } else {
            SyncStep::Blocked { site, events }
        }
    }
}

impl Default for AgentCore {
    fn default() -> Self {
        Self::new(Waiter::default())
    }
}

impl std::fmt::Debug for AgentCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentCore")
            .field("waiter", &self.waiter)
            .field("stats", &self.stats)
            .field("poisoned", &self.is_poisoned())
            .field("hook", &self.hook.get().map(|_| "installed"))
            .finish()
    }
}

/// The interface every synchronization agent implements.
///
/// Instrumented code calls [`before_sync_op`](Self::before_sync_op)
/// immediately before executing a sync op and
/// [`after_sync_op`](Self::after_sync_op) immediately after, passing the
/// address of the synchronization variable.  In the master variant the pair
/// records the op; in a slave variant `before_sync_op` blocks until executing
/// the op would be consistent with the recorded order.  An agent supplies
/// the step, `after_sync_op` and its [`AgentCore`].
pub trait SyncAgent: Send + Sync {
    /// Which agent design this is.
    fn kind(&self) -> agents::AgentKind;

    /// The state the driver shares with the agent.
    fn core(&self) -> &AgentCore;

    /// One non-blocking attempt to let the op on the variable at `addr`
    /// proceed.  Counts nothing.
    ///
    /// * Master role: takes the op's ordering guard and records the op.
    /// * Slave role: claims the op once every op that must precede it
    ///   (under this agent's ordering discipline) has completed.
    ///
    /// [`Blocked`](SyncStep::Blocked) must be followed by another step for
    /// the same op, `Ready` and `Bailed` by `after_sync_op`.
    fn try_before_sync_op(&self, ctx: &context::SyncContext, addr: u64) -> SyncStep<'_>;

    /// Called immediately before a sync op on the variable at `addr`;
    /// returns once the op may execute.
    ///
    /// The driver shared by every agent: fires the replication hook (before
    /// any guard is taken, so a blocking hook cannot deadlock against the
    /// ordering guards), then steps
    /// [`try_before_sync_op`](Self::try_before_sync_op), waiting on the
    /// named event count with the next step as the wake condition; a new
    /// site or event count restarts the spin → yield → park escalation.  A
    /// ready op counts as a record or a replay with at most one stall —
    /// full-ring waits for a master (guard waits are not stalls), any wait
    /// for a slave — its spins, yields and parks summed over the sites.  A
    /// bailed op counts nothing.
    fn before_sync_op(&self, ctx: &context::SyncContext, addr: u64) {
        let core = self.core();
        if let Some(hook) = core.hook.get() {
            core.stats.count_replication_point(ctx.thread);
            hook(ctx);
        }
        let mut step = self.try_before_sync_op(ctx, addr);
        let mut tally = WaitTally::default();
        while let SyncStep::Blocked { site, events } = step {
            // The step that named this site already failed: skip the
            // waiter's entry check, as a wait that found its condition
            // false would.
            let mut known_blocked = true;
            let waited = core.waiter.wait_until_event(events, || {
                if std::mem::take(&mut known_blocked) {
                    return false;
                }
                step = self.try_before_sync_op(ctx, addr);
                !matches!(step, SyncStep::Blocked { site: s, events: e }
                    if s == site && std::ptr::eq(e, events))
            });
            if site != WaitSite::Guard {
                tally.merge(waited);
            }
        }
        if let SyncStep::Ready = step {
            core.stats.count_op(ctx.thread, ctx.role, tally);
        }
    }

    /// Called immediately after the sync op on the variable at `addr` has
    /// executed.  Never waits.
    ///
    /// * Master role: publishes the recorded op so slaves may replay it.
    /// * Slave role: marks the op as completed, unblocking dependent ops.
    fn after_sync_op(&self, ctx: &context::SyncContext, addr: u64);

    /// Returns a snapshot of the agent's counters.
    fn stats(&self) -> stats::AgentStats {
        self.core().stats.snapshot()
    }

    /// Returns one stripe of the agent's lane-striped counters (the
    /// per-thread-group view, mirroring the monitor's `lane_stats`), so the
    /// stall taxonomy — spins vs yields vs parks — can be attributed to a
    /// thread group instead of only globally.  Ring-level counters
    /// (`cursor_rescans`) are not striped and appear only in the aggregate
    /// [`stats`](Self::stats).
    fn lane_stats(&self, lane: usize) -> stats::AgentStats {
        self.core().stats.lane_snapshot(lane)
    }

    /// Marks the agent as poisoned and releases every blocked wait.
    ///
    /// The monitor calls this when divergence has been detected: record and
    /// replay cannot meaningfully continue (the master may already have
    /// stopped recording, slaves may already have stopped draining), so any
    /// thread blocked in [`before_sync_op`](Self::before_sync_op) — a replay
    /// wait or a full-buffer wait — must return promptly instead of
    /// deadlocking the shutdown.  After poisoning, an op that would wait
    /// [bails out](SyncStep::Bailed); the variants are about to be torn
    /// down anyway.  The default wakes nobody: right for an agent that
    /// never blocks.
    fn poison(&self) {
        self.core().poison();
    }

    /// Whether the agent has been poisoned.
    fn is_poisoned(&self) -> bool {
        self.core().is_poisoned()
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
    /// ignored.  [`AgentStats::replication_points`] reads zero without one.
    fn set_replication_hook(&self, hook: ReplicationHook) {
        let _ = self.core().hook.set(hook);
    }
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
