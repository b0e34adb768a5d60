//! Per-thread syscall handles: the gateway hot path.
//!
//! GHUMVEE/ReMon-style monitors bind monitor state to the variant thread
//! once, at attach time; [`ThreadPort`] is that binding, and the only
//! blocking entry into the monitor.
//!
//! A port is acquired once per (variant, thread) —
//! [`VariantGateway::thread`](crate::mvee::VariantGateway::thread) or
//! [`Mvee::thread_port`](crate::mvee::Mvee::thread_port) — and is two
//! things:
//!
//! * the agent [`SyncContext`], built once instead of per sync op;
//! * a `CallMachine` — the per-call protocol
//!   (`crate::call`) together with the per-thread state it owns: the
//!   **shard binding** (rendezvous lock, ordering clock and stat lane),
//!   resolved through the configured
//!   [`Placement`](crate::config::Placement) policy at acquisition time;
//!   the **sequence counter**, a plain integer (no cross-thread
//!   `fetch_add` traffic); and the **deferred-comparison batch queue**.
//!
//! The machine never sleeps; the port is its *blocking driver*: `syscall`,
//! `flush` and `Drop` start an operation and step it on the caller's own
//! stack, and whenever a step reports it cannot move they wait with the
//! next step as the wake condition.  The poller pool ([`crate::poller`])
//! is the other driver of the same machine, so the two transports cannot
//! disagree on a verdict.
//!
//! The machine sits in a [`RefCell`], which is why `ThreadPort` is
//! deliberately `Send + !Sync`: the handle may move to the OS thread that
//! runs the logical thread, but two OS threads can never share one, so the
//! queue and counter need no synchronization at all.  The monitor enforces
//! the other half of the contract at acquisition time: at most one live
//! port per (variant, thread) (a second acquisition panics), and the
//! sequence counter is handed back on drop so a later port resumes the same
//! rendezvous key stream.
//!
//! ```compile_fail
//! // ThreadPort is !Sync by design: the deferred batch queue is owned by
//! // exactly one OS thread.
//! fn require_sync<T: Sync>() {}
//! require_sync::<mvee_core::port::ThreadPort>();
//! ```

use std::cell::RefCell;
use std::sync::Arc;

use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};
use mvee_sync_agent::context::{SyncContext, VariantRole};
use mvee_sync_agent::guards::{Waiter, SPIN_BEFORE_YIELD};
use mvee_sync_agent::SyncAgent;

use crate::call::{CallMachine, Step};
use crate::monitor::{Monitor, MonitorError};

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
    /// The per-call protocol and the per-thread state it owns (see the
    /// module docs); this port is its blocking driver.
    machine: RefCell<CallMachine>,
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
        ThreadPort {
            ctx: SyncContext::new(VariantRole::from_variant_index(variant), thread),
            agent,
            machine: RefCell::new(CallMachine::new(&monitor, variant, thread)),
            monitor,
        }
    }

    /// Zero-based variant index (0 is the master until a quarantine fails
    /// mastership over).
    pub fn variant_index(&self) -> usize {
        self.machine.borrow().variant()
    }

    /// Logical thread index within the variant.
    pub fn thread_index(&self) -> usize {
        self.machine.borrow().thread()
    }

    /// The shard this thread's rendezvous/ordering/stat state is bound to.
    pub fn shard(&self) -> usize {
        self.machine.borrow().shard()
    }

    /// The variant's replication role.
    pub fn role(&self) -> VariantRole {
        self.ctx.role
    }

    /// Whether this port's variant is the replication master right now:
    /// variant 0 until a quarantine fails mastership over to the lowest
    /// live variant.
    pub fn is_master(&self) -> bool {
        self.monitor.master_variant() == self.variant_index()
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
        self.machine.borrow().pending_comparisons()
    }

    /// Issues a system call on behalf of this port's logical thread:
    /// returns the outcome the variant observes, or an error instructing
    /// the variant to terminate.
    pub fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        let mut machine = self.machine.borrow_mut();
        let first = machine.start(&self.monitor, req);
        drive(&self.monitor, &mut machine, Some(req), first)
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
        let mut machine = self.machine.borrow_mut();
        let first = machine.flush(&self.monitor);
        drive(&self.monitor, &mut machine, None, first).map(|_| ())
    }

    /// Brackets the *start* of a sync op: flushes this port's deferred
    /// comparisons (a replication point must never overtake a pending
    /// comparison), then enters the agent.
    pub fn before_sync_op(&self, addr: u64) {
        if self.pending_comparisons() > 0 {
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

    /// Convenience: brackets `op` between
    /// [`before_sync_op`](Self::before_sync_op) and
    /// [`after_sync_op`](Self::after_sync_op).
    pub fn sync_op<T>(&self, addr: u64, op: impl FnOnce() -> T) -> T {
        self.before_sync_op(addr);
        let result = op();
        self.after_sync_op(addr);
        result
    }
}

/// The blocking driver: runs the operation `step` began to completion on
/// the caller's stack.  Whenever the machine cannot move, the thread waits
/// with the machine's next step as the wake condition — deadlines,
/// fail-over and the quarantine bail-outs all live inside that step.
/// Rendezvous, batch and outcome waits yield, then park on the shard's
/// event count (every deposit, publication, poison, quarantine and
/// re-admission posts it); an ordered slave's turn wait spins and yields,
/// because nobody posts an event for an ordering-clock advance.
///
/// The turn wait keeps the full [`SPIN_BEFORE_YIELD`] budget even on a
/// one-CPU process, where the default waiter spins 0: with no park phase,
/// the spin is the only thing spacing its `yield_now` calls, and a zero
/// budget cost `journal_recover` (two slaves waiting on one master's turn)
/// 3.5 % of its throughput on `benchmark/` (BASELINES.md, *Spin only where
/// a peer can run*).
fn drive(
    monitor: &Monitor,
    machine: &mut CallMachine,
    req: Option<&SyscallRequest>,
    mut step: Step,
) -> Result<SyscallOutcome, MonitorError> {
    loop {
        if let Step::Done(result) = step {
            return result;
        }
        let on_turn = machine.awaits_turn();
        let thread = machine.thread();
        let moved = || {
            step = machine.step(monitor, req);
            !matches!(step, Step::Blocked)
        };
        if on_turn {
            Waiter::new(SPIN_BEFORE_YIELD).wait_until(moved);
        } else {
            monitor.lockstep().wait_on(thread, moved);
        }
    }
}

impl Drop for ThreadPort {
    fn drop(&mut self) {
        // Ports are re-acquirable "across phases of a workload", so a drop
        // is *not* evidence of shutdown: the close flushes compare-only
        // calls that are still deferred (the peers' equivalent drops, or
        // their next synchronous calls, meet the batch in the rendezvous
        // table exactly as an inline flush would) before it hands the
        // sequence counter back.  `Drop` has nowhere to report the verdict.
        let machine = self.machine.get_mut();
        let first = machine.close(&self.monitor);
        let _ = drive(&self.monitor, machine, None, first);
    }
}

impl std::fmt::Debug for ThreadPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPort")
            .field("machine", &self.machine)
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
    fn parked_slave_takes_over_as_master_when_variant_zero_is_quarantined() {
        // A blocking slave asleep in a replicated call's outcome wait: the
        // quarantine of its publisher wakes it (the table posts every
        // shard), its next step sees mastership has failed over to it, and
        // it executes and publishes in the dead master's stead — well
        // inside the rendezvous deadline, blaming nobody.
        use crate::config::RecoveryPolicy;
        use crate::divergence::{DivergenceKind, DivergenceReport};
        use crate::monitor::ArrivalSettle;
        use std::time::{Duration, Instant};

        let timeout = Duration::from_secs(10);
        let mvee = Mvee::builder()
            .variants(3)
            .recovery(RecoveryPolicy::Quarantine { min_quorum: 2 })
            .lockstep_timeout(timeout)
            .manual_clock(true)
            .build();
        let slave = mvee.thread_port(1, 0);
        assert!(mvee.thread_port(0, 0).is_master());
        assert!(!slave.is_master());
        let waiter = std::thread::spawn(move || {
            let started = Instant::now();
            let outcome = slave.syscall(&SyscallRequest::new(Sysno::Gettimeofday));
            (outcome, started.elapsed(), slave.is_master())
        });
        // Long enough for the slave to spend its yield budget and park.
        std::thread::sleep(Duration::from_millis(50));
        let indictment = DivergenceReport {
            kind: DivergenceKind::ReplicationTimeout {
                publisher: 0,
                arrived: Vec::new(),
            },
            thread: 0,
            sequence: 0,
            variant: 2,
        };
        assert!(matches!(
            mvee.monitor().fault(2, 0, indictment),
            ArrivalSettle::Retry
        ));
        let (outcome, took, is_master) = waiter.join().unwrap();
        assert!(outcome.expect("the new master publishes").is_ok());
        assert!(took < timeout / 10, "failed over after {took:?}");
        assert!(is_master, "mastership follows the quorum");
        assert_eq!(mvee.monitor().quarantined_variants(), vec![0]);
        assert!(mvee.divergence().is_none());
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
