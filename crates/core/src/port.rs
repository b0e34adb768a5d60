//! Per-thread syscall handles: the gateway hot path.
//!
//! GHUMVEE/ReMon-style monitors bind monitor state to the variant thread
//! once, at attach time; [`ThreadPort`] is that binding, and the only
//! blocking entry into the monitor.
//!
//! A port is acquired once per (variant, thread) —
//! [`VariantGateway::thread`](crate::mvee::VariantGateway::thread) or
//! [`Mvee::thread_port`](crate::mvee::Mvee::thread_port) — and holds
//! everything a call needs besides the request:
//!
//! * the **shard binding**, resolved through the configured
//!   [`Placement`](crate::config::Placement) policy at acquisition time;
//! * the **sequence counter**, a plain [`Cell`] (no cross-thread
//!   `fetch_add` traffic);
//! * the agent [`SyncContext`], built once instead of per sync op;
//! * the monitor **stat lane** of its shard;
//! * the **deferred-comparison batch queue**, a port-local [`RefCell`] —
//!   the queue is logically thread-local, and the port makes that
//!   ownership a type-level fact.
//!
//! That last point is why `ThreadPort` is deliberately `Send + !Sync`: the
//! handle may move to the OS thread that runs the logical thread, but two
//! OS threads can never share one, so the queue and counter need no
//! synchronization at all.  The monitor enforces the other half of the
//! contract at acquisition time: at most one live port per (variant,
//! thread) (a second acquisition panics), and the sequence counter is
//! handed back on drop so a later port resumes the same rendezvous key
//! stream.
//!
//! ```compile_fail
//! // ThreadPort is !Sync by design: the deferred batch queue is owned by
//! // exactly one OS thread.
//! fn require_sync<T: Sync>() {}
//! require_sync::<mvee_core::port::ThreadPort>();
//! ```

use std::cell::{Cell, RefCell};
use std::sync::Arc;

use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};
use mvee_sync_agent::context::{SyncContext, VariantRole};
use mvee_sync_agent::SyncAgent;

use crate::lockstep::BatchArrival;
use crate::monitor::{Monitor, MonitorError, DEFERRED_SEQ_BIT};

/// A per-(variant, thread) syscall handle.
///
/// Acquired once (see the [module docs](self)); every monitored call and
/// sync-op bracket of that logical thread then goes through the port.  The
/// port is `Send` (move it into the OS thread that runs the logical thread)
/// but `!Sync` (it owns unsynchronized per-thread state).
///
/// Dropping the port releases the (variant, thread) binding and hands the
/// sequence counter back to the monitor, so ports can be re-acquired across
/// phases of a workload.
pub struct ThreadPort {
    monitor: Arc<Monitor>,
    agent: Arc<dyn SyncAgent>,
    /// The agent context, built once at acquisition.
    ctx: SyncContext,
    variant: usize,
    thread: usize,
    /// The shard (and stat lane) this thread's monitor state is bound to,
    /// resolved through the placement policy at acquisition time.
    shard: usize,
    /// Cached comparison batch size (1 = no deferral).
    batch: usize,
    /// Next per-thread sequence number; plain `Cell`, this port is the only
    /// writer.
    seq: Cell<u64>,
    /// Port-local deferred-comparison queue (see the module docs).
    pending: RefCell<Vec<BatchArrival>>,
}

impl ThreadPort {
    /// Binds a port to (variant, thread).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or if a live `ThreadPort` already
    /// owns this (variant, thread).
    pub(crate) fn new(
        monitor: Arc<Monitor>,
        agent: Arc<dyn SyncAgent>,
        variant: usize,
        thread: usize,
    ) -> Self {
        let (seq, shard) = monitor.acquire_port(variant, thread);
        let batch = monitor.config().batch;
        ThreadPort {
            ctx: SyncContext::new(VariantRole::from_variant_index(variant), thread),
            agent,
            variant,
            thread,
            shard,
            batch,
            seq: Cell::new(seq),
            pending: RefCell::new(Vec::with_capacity(batch)),
            monitor,
        }
    }

    /// Zero-based variant index (0 is the master).
    pub fn variant_index(&self) -> usize {
        self.variant
    }

    /// Logical thread index within the variant.
    pub fn thread_index(&self) -> usize {
        self.thread
    }

    /// The shard this thread's rendezvous/ordering/stat state is bound to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The variant's replication role.
    pub fn role(&self) -> VariantRole {
        self.ctx.role
    }

    /// Whether this port belongs to the master variant.
    pub fn is_master(&self) -> bool {
        self.variant == 0
    }

    /// The agent context this port passes on every sync op.
    pub fn sync_context(&self) -> &SyncContext {
        &self.ctx
    }

    /// Direct access to the injected synchronization agent.
    pub fn agent(&self) -> &Arc<dyn SyncAgent> {
        &self.agent
    }

    /// The monitor this port issues calls against.
    pub fn monitor(&self) -> &Arc<Monitor> {
        &self.monitor
    }

    /// Whether the MVEE has shut down due to divergence.
    pub fn is_shut_down(&self) -> bool {
        self.monitor.has_diverged()
    }

    /// Deferred comparisons queued in this port, awaiting the next flush.
    pub fn pending_comparisons(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Issues a system call on behalf of this port's logical thread:
    /// returns the outcome the variant observes, or an error instructing
    /// the variant to terminate.
    pub fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        let monitor = &*self.monitor;
        match monitor.gate_and_count(self.variant, self.thread, self.shard, req) {
            Ok(None) => {}
            Ok(Some(answered)) => return Ok(answered),
            Err(e) => {
                // The MVEE is shutting down: this port's deferred
                // comparisons will never be flushed; drop them.
                self.pending.borrow_mut().clear();
                return Err(e);
            }
        }

        let seq = self.seq.get();
        self.seq.set(seq + 1);
        let key = (self.thread, seq);

        let disposition = monitor.config().policy.disposition(req.no);
        let defer = self.batch > 1 && disposition.defer_compare;

        // Synchronous interaction points resolve the deferred comparisons
        // first: comparisons stay in per-thread program order, and no
        // replicated result is handed out while an earlier comparison is
        // still pending.
        if !defer && (disposition.lockstep || disposition.replicate || disposition.ordered) {
            self.flush()?;
        }

        if disposition.lockstep {
            monitor.count_lockstep(self.shard);
            if defer {
                monitor.count_batched(self.shard);
                let full = {
                    let mut pending = self.pending.borrow_mut();
                    pending.push(BatchArrival {
                        key: (self.thread, seq | DEFERRED_SEQ_BIT),
                        cmp: req.comparison_key(),
                    });
                    pending.len() >= self.batch
                };
                // A divergence recorded elsewhere between the entry gate and
                // this push means the deferred comparison will never be
                // resolved, so the call must not return `Ok`: drop the
                // queue and shut down.
                if monitor.has_diverged() {
                    self.pending.borrow_mut().clear();
                    return Err(MonitorError::ShutDown);
                }
                if full {
                    self.flush()?;
                }
            } else {
                monitor.arrive_sync(key, self.variant, self.thread, seq, req)?;
            }
        }

        monitor.dispatch_resolved(
            self.variant,
            self.thread,
            seq,
            self.shard,
            key,
            disposition,
            req,
        )
    }

    /// Flushes this port's deferred comparisons, if any: deposits them as
    /// one batched rendezvous block and turns the first non-consistent
    /// per-key result into the divergence it proves.
    ///
    /// Called automatically on batch-full, before any synchronous monitored
    /// call and at every replication point
    /// ([`before_sync_op`](Self::before_sync_op)); public so workloads with
    /// out-of-band quiescence points can force resolution early.
    pub fn flush(&self) -> Result<(), MonitorError> {
        let batch = std::mem::take(&mut *self.pending.borrow_mut());
        if batch.is_empty() {
            return Ok(());
        }
        self.monitor
            .resolve_batch(self.variant, self.thread, self.shard, &batch)
    }

    /// Brackets the *start* of a sync op: flushes this port's deferred
    /// comparisons (a replication point must never overtake a pending
    /// comparison), then enters the agent.
    pub fn before_sync_op(&self, addr: u64) {
        if !self.pending.borrow().is_empty() {
            // A flush failure has already recorded the divergence and
            // poisoned table + agent; the thread learns about it at its next
            // monitored call.
            let _ = self.flush();
        }
        self.agent.before_sync_op(&self.ctx, addr);
    }

    /// Brackets the end of a sync op.
    pub fn after_sync_op(&self, addr: u64) {
        self.agent.after_sync_op(&self.ctx, addr);
    }

    /// Convenience: brackets `op` between [`before_sync_op`]
    /// (Self::before_sync_op) and [`after_sync_op`](Self::after_sync_op).
    pub fn sync_op<T>(&self, addr: u64, op: impl FnOnce() -> T) -> T {
        self.before_sync_op(addr);
        let result = op();
        self.after_sync_op(addr);
        result
    }
}

impl Drop for ThreadPort {
    fn drop(&mut self) {
        // Ports are advertised as re-acquirable "across phases of a
        // workload", so a drop is *not* evidence of shutdown: a thread may
        // hand its port back mid-run with compare-only calls still
        // deferred, and silently discarding them would let those calls
        // return `Ok` without ever being compared — a missed-divergence
        // window.  Flush them here; the peers' equivalent drops (or their
        // next synchronous calls) meet the batch in the rendezvous table
        // exactly as an inline flush would.  A flush failure has already
        // recorded the divergence, and `Drop` has nowhere to report the
        // error anyway — the next monitored call returns `ShutDown`.
        //
        // Only a poisoned MVEE drops the queue outright: the table would
        // answer `Poisoned` and the variants are terminating.
        if self.monitor.has_diverged() {
            self.pending.borrow_mut().clear();
        } else {
            let _ = self.flush();
        }
        // Hand the sequence counter back so a later port continues the key
        // stream.
        self.monitor
            .release_port(self.variant, self.thread, self.seq.get());
    }
}

impl std::fmt::Debug for ThreadPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPort")
            .field("variant", &self.variant)
            .field("thread", &self.thread)
            .field("shard", &self.shard)
            .field("batch", &self.batch)
            .field("seq", &self.seq.get())
            .field("pending", &self.pending.borrow().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Placement;
    use crate::mvee::Mvee;
    use crate::policy::MonitoringPolicy;
    use mvee_kernel::syscall::Sysno;

    fn assert_send<T: Send>() {}

    #[test]
    fn thread_port_is_send() {
        // The compile_fail doctest in the module docs pins !Sync; this pins
        // the Send half of the contract.
        assert_send::<ThreadPort>();
    }

    #[test]
    fn port_answers_self_awareness_with_the_variant_index() {
        let mvee = Mvee::builder().variants(3).manual_clock(true).build();
        for v in 0..3 {
            let port = mvee.thread_port(v, 0);
            let out = port
                .syscall(&SyscallRequest::new(Sysno::MveeSelfAware))
                .unwrap();
            assert_eq!(out.result, Ok(v as i64));
        }
        assert_eq!(mvee.monitor_stats().self_aware_queries, 3);
    }

    #[test]
    fn acquiring_a_second_live_port_panics() {
        let mvee = Mvee::builder().variants(1).manual_clock(true).build();
        let _port = mvee.thread_port(0, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _second = mvee.thread_port(0, 0);
        }));
        assert!(result.is_err(), "second acquisition must panic");
    }

    #[test]
    fn dropping_a_port_hands_the_sequence_back() {
        let mvee = Mvee::builder().variants(1).manual_clock(true).build();
        {
            let port = mvee.thread_port(0, 0);
            port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
            port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
        }
        // Re-acquired port continues the sequence: the monitor's total count
        // keeps growing and no rendezvous key is ever reused (a reuse would
        // corrupt the lockstep table; with one variant it would still show
        // up as a bogus mismatch against the slot's stale key).
        let port = mvee.thread_port(0, 0);
        port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
        assert_eq!(mvee.monitor_stats().total_syscalls, 3);
    }

    #[test]
    fn port_batches_and_flushes_at_the_replication_point() {
        let mvee = Mvee::builder()
            .variants(2)
            .batch(8)
            .manual_clock(true)
            .build();
        let mut handles = Vec::new();
        for v in 0..2 {
            let port = mvee.thread_port(v, 0);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2 {
                    port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                        .unwrap();
                }
                assert_eq!(port.pending_comparisons(), 2);
                // The sync op is a replication point: the port flushes
                // inline before entering the agent.
                port.sync_op(0x1000, || ());
                assert_eq!(port.pending_comparisons(), 0);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = mvee.monitor_stats();
        assert_eq!(stats.batched_comparisons, 4);
        assert_eq!(stats.batch_flushes, 2, "one flush per variant");
        assert!(!mvee.monitor().has_diverged());
    }

    #[test]
    fn port_shard_binding_follows_the_placement_policy() {
        // Grouped blocks scale to the *workload's* 8 threads, not the
        // 64-slot table capacity: blocks of two threads per shard.
        let mvee = Mvee::builder()
            .variants(1)
            .threads(8)
            .shards(4)
            .placement(Placement::Grouped)
            .manual_clock(true)
            .build();
        let a = mvee.thread_port(0, 0);
        assert_eq!(a.shard(), 0);
        drop(a);
        let b = mvee.thread_port(0, 1);
        assert_eq!(b.shard(), 0, "contiguous threads share a shard");
        drop(b);
        let c = mvee.thread_port(0, 2);
        assert_eq!(c.shard(), 1);
        drop(c);
        let d = mvee.thread_port(0, 7);
        assert_eq!(d.shard(), 3, "the 8 threads cover all 4 shards");
    }

    #[test]
    fn port_detects_divergence_and_rejects_later_calls() {
        let mvee = Mvee::builder()
            .variants(2)
            .manual_clock(true)
            .lockstep_timeout(std::time::Duration::from_millis(200))
            .build();
        let master = mvee.thread_port(0, 0);
        let slave = mvee.thread_port(1, 0);
        let s = std::thread::spawn(move || {
            slave.syscall(
                &SyscallRequest::new(Sysno::Write)
                    .with_fd(1)
                    .with_payload(b"evil"),
            )
        });
        let m = master.syscall(
            &SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(b"good"),
        );
        let s = s.join().unwrap();
        assert!(m.is_err() || s.is_err());
        assert!(mvee.monitor().has_diverged());
        assert!(master.is_shut_down());
        // Later calls through the port are rejected.
        assert_eq!(
            master.syscall(&SyscallRequest::new(Sysno::SchedYield)),
            Err(MonitorError::ShutDown)
        );
    }

    #[test]
    fn dropping_a_port_flushes_pending_comparisons() {
        // Regression: drop used to clear the pending queue outright,
        // silently discarding deferred comparisons even though ports are
        // documented as re-acquirable across workload phases — a
        // missed-divergence window.  Here each variant defers one
        // *mismatched* compare-only call and then drops its port mid-phase:
        // the drop-flush must rendezvous and catch the mismatch.
        let mvee = Mvee::builder()
            .variants(2)
            .batch(8)
            .manual_clock(true)
            .lockstep_timeout(std::time::Duration::from_secs(5))
            .build();
        let mut handles = Vec::new();
        for v in 0..2 {
            let port = mvee.thread_port(v, 0);
            handles.push(std::thread::spawn(move || {
                let len = if v == 0 { 4096 } else { 666 };
                let r = port.syscall(&SyscallRequest::new(Sysno::Mprotect).with_int(len));
                assert!(
                    r.is_ok(),
                    "the compare-only call is deferred, not compared yet"
                );
                assert_eq!(port.pending_comparisons(), 1);
                drop(port); // end of phase: must flush, not discard
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let report = mvee
            .divergence()
            .expect("the drop-flush must detect the deferred mismatch");
        assert!(matches!(
            report.kind,
            crate::divergence::DivergenceKind::SyscallMismatch { .. }
        ));
        assert_eq!(report.variant, 1);
        assert_eq!(report.sequence, 0);
        // The next phase's re-acquired port observes the shutdown.
        let port = mvee.thread_port(0, 0);
        assert_eq!(
            port.syscall(&SyscallRequest::new(Sysno::SchedYield)),
            Err(MonitorError::ShutDown)
        );
    }

    #[test]
    fn clean_drop_flushes_and_the_next_phase_continues() {
        // The matching-comparison half of the drop-flush contract: trailing
        // deferred comparisons are resolved (counted as a flush), nothing
        // diverges, and the next phase re-acquires cleanly.
        let mvee = Mvee::builder()
            .variants(2)
            .batch(8)
            .manual_clock(true)
            .build();
        for phase in 0..2 {
            let mut handles = Vec::new();
            for v in 0..2 {
                let port = mvee.thread_port(v, 0);
                handles.push(std::thread::spawn(move || {
                    let calls = if phase == 0 { 2 } else { 1 };
                    for _ in 0..calls {
                        port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                            .unwrap();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
        }
        let stats = mvee.monitor_stats();
        assert!(!mvee.monitor().has_diverged());
        assert_eq!(stats.batched_comparisons, 6);
        assert_eq!(stats.batch_flushes, 4, "one flush per variant per phase");
        assert_eq!(mvee.monitor().live_slots(), 0);
    }

    #[test]
    fn port_under_relaxed_policy_skips_lockstep() {
        let mvee = Mvee::builder()
            .variants(1)
            .policy(MonitoringPolicy::NoComparison)
            .manual_clock(true)
            .build();
        let port = mvee.thread_port(0, 0);
        port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
            .unwrap();
        let stats = mvee.monitor_stats();
        assert_eq!(stats.lockstep_syscalls, 0);
        assert_eq!(stats.ordered_syscalls, 1);
    }
}
