//! Per-thread syscall handles: the gateway hot path.
//!
//! GHUMVEE/ReMon-style monitors bind monitor state to the variant thread
//! once, at attach time; [`ThreadPort`] is that binding, and the only
//! blocking entry into the monitor.
//!
//! A port is acquired once per (variant, thread) —
//! [`VariantGateway::port`](crate::mvee::VariantGateway::port), which picks
//! the port the configured transport names, or the shorthands
//! [`Mvee::thread_port`](crate::mvee::Mvee::thread_port) and
//! [`Mvee::leader_port`](crate::mvee::Mvee::leader_port) — and is two
//! things:
//!
//! * the agent [`SyncContext`], built once instead of per sync op;
//! * a `CallMachine` — the per-call protocol
//!   (`crate::call`) together with the per-thread state it owns: the
//!   **shard binding** (rendezvous lock, ordering clock and stat lane,
//!   `thread % shards`); the **sequence counter**, a plain integer (no
//!   cross-thread `fetch_add` traffic); and the **deferred-comparison
//!   batch queue**.
//!
//! The machine never sleeps; the port is its *blocking driver*: `syscall`,
//! `flush` and `Drop` start an operation and step it on the caller's own
//! stack, and whenever a step reports it cannot move they wait with the
//! next step as the wake condition.  The port is generic over where the
//! rendezvous lives: `ThreadPort` (the default backend) deposits into the
//! monitor's lockstep table, and the remote
//! [`LeaderPort`](crate::remote::LeaderPort) is the same port over the
//! replication wire.  The poller pool ([`crate::poller`]) is the machine's
//! other driver.  So no two transports can disagree on a verdict.
//!
//! [`ThreadSyscallPort`] is what a variant thread sees of any of them: the
//! one object-safe per-thread face that the blocking port, the ring-backed
//! [`AsyncThreadPort`](crate::async_port::AsyncThreadPort) and the
//! executor's native port implement.
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
use mvee_sync_agent::SyncAgent;

use crate::call::{CallMachine, InProc, Rendezvous, Step};
use crate::monitor::{Monitor, MonitorError};

/// What one variant *thread* calls instead of the kernel: the per-thread
/// handle a [`VariantGateway::port`](crate::mvee::VariantGateway::port)
/// hands out, whatever the transport.
///
/// Handles are `Send` (acquired by — or moved into — the OS thread that
/// runs the logical thread) but deliberately not required to be `Sync`:
/// the MVEE implementations own unsynchronized per-thread state.  `Debug`
/// names the port type behind the box.
pub trait ThreadSyscallPort: Send + std::fmt::Debug {
    /// Issues a system call on behalf of this port's logical thread.
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError>;

    /// Called immediately before a sync op on the variable at `addr`.
    ///
    /// An error says the run is over for this thread (a verdict shut the
    /// MVEE down, or the agent was poisoned where the op would wait): the
    /// op must not execute, the bracket is already closed (no
    /// `after_sync_op` follows), and the thread must terminate.  So a guest
    /// loop made only of sync ops — a spin on a lock or a barrier whose
    /// peer the verdict killed — ends with the run.
    fn before_sync_op(&self, addr: u64) -> Result<(), MonitorError>;

    /// Called immediately after the sync op on the variable at `addr`.
    fn after_sync_op(&self, addr: u64);

    /// The variant index this port belongs to (0 = master / native).
    fn variant_index(&self) -> usize;

    /// The logical thread index this port is bound to.
    fn thread_index(&self) -> usize;

    /// Whether the run is over for this port: its next call would be
    /// refused.
    fn is_shut_down(&self) -> bool;
}

impl dyn ThreadSyscallPort + '_ {
    /// `op` bracketed as one instrumented sync op on the variable at
    /// `addr`.  An error says the run is over; `op` then does not run.
    pub fn sync_op<T>(&self, addr: u64, op: impl FnOnce() -> T) -> Result<T, MonitorError> {
        self.before_sync_op(addr)?;
        let result = op();
        self.after_sync_op(addr);
        Ok(result)
    }
}

/// A per-(variant, thread) syscall handle, generic over where its
/// rendezvous lives (see the [module docs](self)).
///
/// Acquired once; every monitored call and sync-op bracket of that logical
/// thread then goes through the port.  The port is `Send` (move it into
/// the OS thread that runs the logical thread) but `!Sync` (it owns
/// unsynchronized per-thread state).
///
/// Dropping the port releases the (variant, thread) binding and hands the
/// sequence counter back to the monitor, so ports can be re-acquired across
/// phases of a workload.
pub struct ThreadPort<R: Rendezvous = InProc> {
    /// What the machine is stepped against: the monitor, or the leader's
    /// link.
    cx: Arc<R::Cx>,
    agent: Arc<dyn SyncAgent>,
    /// The agent context, built once at acquisition.
    ctx: SyncContext,
    /// The per-call protocol and the per-thread state it owns (see the
    /// module docs); this port is its blocking driver.
    machine: RefCell<CallMachine<R>>,
}

impl<R: Rendezvous> ThreadPort<R> {
    /// Binds a port to (variant, thread).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or if a live port already owns this
    /// (variant, thread).
    pub(crate) fn new(
        cx: Arc<R::Cx>,
        agent: Arc<dyn SyncAgent>,
        variant: usize,
        thread: usize,
    ) -> Self {
        ThreadPort {
            ctx: SyncContext::new(VariantRole::from_variant_index(variant), thread),
            agent,
            machine: RefCell::new(CallMachine::new(&*cx, variant, thread)),
            cx,
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

    /// Whether this port's variant is the replication master right now:
    /// variant 0 until a quarantine fails mastership over to the lowest
    /// live variant (the remote leader always is).
    pub fn is_master(&self) -> bool {
        self.machine.borrow().is_master(&self.cx)
    }

    /// Whether the run is over: the MVEE diverged (in-proc), or the leader's
    /// link learnt a verdict or lost its follower.
    pub fn is_shut_down(&self) -> bool {
        self.machine.borrow().is_halted(&self.cx)
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
        let first = machine.start(&self.cx, req);
        drive(&*self.cx, &mut machine, Some(req), first)
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
        let first = machine.flush(&self.cx);
        drive(&*self.cx, &mut machine, None, first).map(|_| ())
    }

    /// Brackets the *start* of a sync op: flushes this port's deferred
    /// comparisons (a replication point must never overtake a pending
    /// comparison) — over the wire, then streams the `SyncOp` progress
    /// marker — and enters the agent.
    ///
    /// The infallible form: the caller always closes the bracket with
    /// [`after_sync_op`](Self::after_sync_op) and learns that the run is
    /// over at its next monitored call.  A variant thread's port
    /// ([`ThreadSyscallPort::before_sync_op`]) reports it at once.
    pub fn before_sync_op(&self, addr: u64) {
        self.enter_sync_op(addr);
    }

    /// Enters the sync op; `false` when the agent bailed.
    fn enter_sync_op(&self, addr: u64) -> bool {
        if self.pending_comparisons() > 0 {
            // A flush failure has already recorded the divergence and
            // poisoned table + agent; the agent's bail or the next
            // monitored call reports it.
            let _ = self.flush();
        }
        self.machine.borrow_mut().sync_op(&self.cx);
        self.agent.before_sync_op(&self.ctx, addr)
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

impl ThreadPort {
    /// The variant's replication role.
    pub fn role(&self) -> VariantRole {
        self.ctx.role
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
        &self.cx
    }
}

/// The blocking driver of a [`ThreadPort`] over either backend: runs the
/// operation `step` began to completion on the caller's stack.  Whenever
/// the machine cannot move, the thread waits with the machine's next step
/// as the wake condition — deadlines, fail-over and the quarantine
/// bail-outs all live inside that step.  Every wait sleeps where the
/// backend says ([`Rendezvous::wait_on`]): in-proc it yields, then parks on
/// the shard's event count, which every deposit, publication, ordered
/// slave's clock advance, poison, quarantine and re-admission posts; over
/// the wire it parks on the link's, which every ack, verdict and channel
/// death posts.  A deadline raises no event: the park's 1 ms backstop
/// re-checks it.
fn drive<R: Rendezvous>(
    cx: &R::Cx,
    machine: &mut CallMachine<R>,
    req: Option<&SyscallRequest>,
    mut step: Step,
) -> Result<SyscallOutcome, MonitorError> {
    loop {
        if let Step::Done(result) = step {
            return result;
        }
        let thread = machine.thread();
        R::wait_on(cx, thread, || {
            step = machine.step(cx, req);
            !matches!(step, Step::Blocked)
        });
    }
}

impl<R: Rendezvous> Drop for ThreadPort<R> {
    fn drop(&mut self) {
        // Ports are re-acquirable "across phases of a workload", so a drop
        // is *not* evidence of shutdown: the close flushes compare-only
        // calls that are still deferred (the peers' equivalent drops, or
        // their next synchronous calls, meet the batch in the rendezvous
        // table exactly as an inline flush would) — unless the run is
        // already over — before it hands the sequence counter back.  `Drop`
        // has nowhere to report the verdict.
        let machine = self.machine.get_mut();
        let first = machine.close(&self.cx);
        let _ = drive(&*self.cx, machine, None, first);
    }
}

impl<R: Rendezvous> std::fmt::Debug for ThreadPort<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPort")
            .field("machine", &self.machine)
            .finish()
    }
}

impl<R: Rendezvous> ThreadSyscallPort for ThreadPort<R>
where
    ThreadPort<R>: Send,
{
    fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        ThreadPort::syscall(self, req)
    }

    fn before_sync_op(&self, addr: u64) -> Result<(), MonitorError> {
        if self.is_shut_down() {
            return Err(MonitorError::ShutDown);
        }
        if self.enter_sync_op(addr) {
            return Ok(());
        }
        // A bailed agent still holds a master's ordering guard.
        self.after_sync_op(addr);
        Err(MonitorError::ShutDown)
    }

    fn after_sync_op(&self, addr: u64) {
        ThreadPort::after_sync_op(self, addr)
    }

    fn variant_index(&self) -> usize {
        ThreadPort::variant_index(self)
    }

    fn thread_index(&self) -> usize {
        ThreadPort::thread_index(self)
    }

    fn is_shut_down(&self) -> bool {
        ThreadPort::is_shut_down(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvee::Mvee;
    use crate::policy::MonitoringPolicy;
    use mvee_kernel::syscall::Sysno;

    fn assert_send<T: Send>() {}

    #[test]
    fn thread_port_is_send() {
        // The compile_fail doctest in the module docs pins !Sync; this pins
        // the Send half of the contract.
        assert_send::<ThreadPort>();
        assert_send::<crate::remote::LeaderPort>();
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
