//! The asynchronous syscall gateway: per-port submission/completion rings.
//!
//! The synchronous transport blocks a variant thread inside every
//! rendezvous: [`ThreadPort::syscall`](crate::port::ThreadPort::syscall)
//! steps the call protocol — gate, lockstep arrival,
//! replication/ordering — on the caller's own stack and sleeps in its waits.
//! dMVX-style deployments decouple variant progress from comparison
//! instead: the variant deposits a descriptor of the call and runs ahead
//! into work that does not depend on the verdict, while the monitor
//! compares in the background.  [`AsyncThreadPort`] is that transport,
//! shaped like a virtio split queue:
//!
//! * a **submission ring** the variant thread deposits `Submission`
//!   descriptors into (call number, arguments, an implicit per-thread
//!   sequence — the monitor side assigns rendezvous keys exactly as the
//!   sync transport does, because the descriptors arrive in program
//!   order);
//! * a **completion ring** the monitor side posts verdicts to, which the
//!   variant reaps in batches ([`AsyncThreadPort::reap`]).
//!
//! The poller posts completions in ticket order, so the port keeps the
//! verdicts it drained off the ring ahead of the caller's reaps in a
//! **reap buffer** ordered by ticket, not a hash map: an in-order reap takes
//! the buffer's front, an out-of-order one finds its verdict by binary
//! search.  The buffer holds exactly the drained-but-unreaped verdicts — an
//! abandoned ticket costs one entry, never a run of holes.  The port also
//! knows how far it has drained the ring, so a ticket below that point
//! that is not in the buffer was already reaped, and reaping it again
//! panics instead of waiting for a verdict that will never come.
//!
//! Both rings are [`DescRing`]s — the PR 5 SPSC ring discipline (sequence-
//! published slots, separated cursors, `EventCount`-parked waiters)
//! generalized to carry owned descriptors; see
//! [`mvee_sync_agent::spsc`].
//!
//! # Who drains the rings: the poller pool
//!
//! No thread is spawned per port: the MVEE's shared [`PollerPool`] serves
//! all ports from a fixed number of polling monitor shards
//! ([`Pollers`](crate::config::Pollers)) that run every descriptor through
//! the **same** call machine (`crate::call`) a synchronous `ThreadPort`
//! steps on the variant's own stack — same rendezvous keys, same batching,
//! same statistics lanes, same verdicts.  The machine never blocks, and the
//! shards never sleep between its steps (see
//! [`crate::poller`]): a drain thread that *blocked* inside one logical
//! thread's rendezvous while multiplexing several would deadlock, because
//! cross-thread submission order legitimately differs between variants
//! (the paper's premise) — the thread blocked in thread A's rendezvous for
//! variant 0 may be the only thing that could deposit thread B's arrival,
//! which variant 1 is waiting for.  Polling removes that circular-wait
//! hazard and caps monitor-side threads at the pool size regardless of
//! variants×threads.
//!
//! # When the variant still blocks
//!
//! Calls whose *outcome* couples the variants stay synchronous at the reap
//! point, so verdicts are provably unchanged:
//!
//! * **replicated** calls (I/O, read-only info, blocking sync) — the caller
//!   cannot proceed without the master's result;
//! * **ordered** calls — the slave's execution waits for its cross-thread
//!   turn;
//! * synchronous **lockstep** calls and **process-lifecycle** calls — a
//!   thread must never exit (or pass a comparison point) with unresolved
//!   comparisons behind it.
//!
//! [`AsyncThreadPort::submit`] therefore answers with
//! [`SubmitOutcome::Completed`] for those calls (it reaps inline), and
//! only pipelines compare-only deferrable calls and uncompared local calls
//! as [`SubmitOutcome::Ticket`].  Deadlock cannot arise from backpressure:
//! a variant blocked on a full submission ring opportunistically drains
//! its completion ring first, so the poller can always make progress.
//!
//! # Shutdown
//!
//! Every submitted ticket is answered — on divergence the pipeline returns
//! the error and the poller posts it as the completion — so a reaper
//! parked on the completion ring always wakes with a verdict instead of
//! hanging.  Dropping the port enqueues `Submission::Close` and waits
//! for the poller to reach it; the poller then flushes any still-deferred
//! comparisons and releases the (variant, thread) binding, so async ports
//! re-acquire across workload phases exactly like sync ports.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::Arc;

use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};
use mvee_sync_agent::context::{SyncContext, VariantRole};
use mvee_sync_agent::guards::Waiter;
use mvee_sync_agent::spsc::DescRing;
use mvee_sync_agent::SyncAgent;

use crate::lockstep::PollWaker;
use crate::monitor::{Monitor, MonitorError};
use crate::poller::{PollerPool, TaskDone};

/// A completion ticket: identifies one submitted call on its port.
/// Tickets are per-port and monotonically increasing.
pub type Ticket = u64;

/// One descriptor deposited into a port's submission ring.
#[derive(Debug)]
pub(crate) enum Submission {
    /// A system call to run through the monitor pipeline.
    Call {
        /// The ticket the verdict will be posted under.
        ticket: Ticket,
        /// The call descriptor (number, normalized arguments, payload).
        req: SyscallRequest,
    },
    /// A flush barrier: resolve every deferred comparison submitted so
    /// far, then post the verdict.  Replication points submit one before
    /// entering the agent.
    Flush {
        /// The ticket the barrier's verdict is posted under.
        ticket: Ticket,
    },
    /// Stop serving this port and release its binding (sent by `Drop`).
    Close,
}

/// One verdict posted to a port's completion ring.
#[derive(Debug)]
pub(crate) struct Completion {
    pub(crate) ticket: Ticket,
    pub(crate) result: Result<SyscallOutcome, MonitorError>,
}

/// What [`AsyncThreadPort::submit`] did with a call.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// The call was synchronous under the policy (replicated, ordered,
    /// synchronous lockstep or process-lifecycle): the port blocked at the
    /// reap point and this is the verdict.
    Completed(Result<SyscallOutcome, MonitorError>),
    /// The call was pipelined; reap the verdict later with
    /// [`AsyncThreadPort::reap`].
    Ticket(Ticket),
}

/// The variant-side handle of the asynchronous gateway: a per-(variant,
/// thread) port whose calls travel through paired submission/completion
/// rings to the polling shard that serves it.
///
/// Like [`ThreadPort`](crate::port::ThreadPort), the handle is `Send`
/// (move it into the OS thread that runs the logical thread) but `!Sync`
/// (the ticket counter and reap buffer are unsynchronized per-thread
/// state), and at most one live port may own a (variant, thread) —
/// enforced through the monitor's port acquisition, like `ThreadPort`'s.
pub struct AsyncThreadPort {
    monitor: Arc<Monitor>,
    agent: Arc<dyn SyncAgent>,
    ctx: SyncContext,
    variant: usize,
    thread: usize,
    submissions: Arc<DescRing<Submission>>,
    completions: Arc<DescRing<Completion>>,
    /// The reaper's wait discipline: spin → yield → park on the completion
    /// ring's event count, like the agents.
    waiter: Waiter,
    /// Next ticket to hand out; plain `Cell`, this port is the only writer.
    next_ticket: Cell<Ticket>,
    /// Tickets submitted but not yet reaped by the caller.
    outstanding: Cell<usize>,
    /// Verdicts drained from the completion ring but not yet asked for
    /// (reaps may happen out of submission order), in ticket order.
    reaped: RefCell<VecDeque<(Ticket, Result<SyscallOutcome, MonitorError>)>>,
    /// One past the newest ticket popped off the completion ring: every
    /// ticket below it was either reaped or sits in `reaped`.
    drained_to: Cell<Ticket>,
    /// Keeps the pool's poller threads alive until the last port closes.
    _pool: Arc<PollerPool>,
    /// Tells the serving poller a submission landed.
    waker: Arc<PollWaker>,
    /// Raised once `Close` has been fully processed and the binding
    /// released.
    done: Arc<TaskDone>,
}

impl AsyncThreadPort {
    /// Binds an async port to (variant, thread), served by the MVEE's shared
    /// [`PollerPool`].  `depth` is the ring capacity in descriptors (rounded
    /// up to a power of two).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or if a live port (sync or async)
    /// already owns this (variant, thread) — the pool acquires the binding
    /// on this caller's stack.
    pub(crate) fn new(
        monitor: Arc<Monitor>,
        agent: Arc<dyn SyncAgent>,
        variant: usize,
        thread: usize,
        depth: usize,
        pool: &Arc<PollerPool>,
    ) -> Self {
        let registration = pool.register(&monitor, variant, thread, depth);
        AsyncThreadPort {
            ctx: SyncContext::new(VariantRole::from_variant_index(variant), thread),
            waiter: monitor.config().ring_waiter(),
            agent,
            variant,
            thread,
            submissions: registration.submissions,
            completions: registration.completions,
            next_ticket: Cell::new(0),
            outstanding: Cell::new(0),
            reaped: RefCell::new(VecDeque::new()),
            drained_to: Cell::new(0),
            _pool: Arc::clone(pool),
            waker: registration.waker,
            done: registration.done,
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

    /// Whether this port's variant is the replication master right now:
    /// variant 0 until a quarantine fails mastership over to the lowest
    /// live variant.
    pub fn is_master(&self) -> bool {
        self.monitor.master_variant() == self.variant
    }

    /// The monitor this port issues calls against.
    pub fn monitor(&self) -> &Arc<Monitor> {
        &self.monitor
    }

    /// Ring capacity in descriptors: how far this thread may run ahead.
    pub fn depth(&self) -> usize {
        self.submissions.capacity()
    }

    /// Tickets submitted and not yet reaped by the caller.
    pub fn outstanding(&self) -> usize {
        self.outstanding.get()
    }

    /// Whether the MVEE has shut down due to divergence.
    pub fn is_shut_down(&self) -> bool {
        self.monitor.has_diverged()
    }

    /// Submits a call.  Compare-only deferrable calls and uncompared local
    /// calls are pipelined ([`SubmitOutcome::Ticket`]); calls the policy
    /// marks synchronous block at the reap point and come back
    /// [`SubmitOutcome::Completed`] (see the module docs).
    pub fn submit(&self, req: &SyscallRequest) -> SubmitOutcome {
        let disposition = self.monitor.config().policy.disposition(req.no);
        let pipelined = disposition.defer_compare
            || !(disposition.lockstep || disposition.replicate || disposition.ordered);
        let ticket = self.next_ticket.get();
        self.next_ticket.set(ticket + 1);
        self.outstanding.set(self.outstanding.get() + 1);
        self.push_submission(Submission::Call {
            ticket,
            req: req.clone(),
        });
        if pipelined {
            SubmitOutcome::Ticket(ticket)
        } else {
            SubmitOutcome::Completed(self.reap(ticket))
        }
    }

    /// Blocks until `ticket`'s verdict is available and returns it.
    ///
    /// Every submitted ticket is eventually answered — divergence included
    /// (the poller posts the error) — so a parked reaper always wakes.
    ///
    /// # Panics
    ///
    /// Panics on a ticket that was never issued or was already reaped.
    pub fn reap(&self, ticket: Ticket) -> Result<SyscallOutcome, MonitorError> {
        assert!(
            ticket < self.next_ticket.get(),
            "reaping a ticket this port never issued"
        );
        if let Some(result) = self.take_buffered(ticket) {
            return result;
        }
        loop {
            // Completions are posted in ticket order (the poller answers
            // submissions FIFO), so the common in-order reap pops its
            // verdict straight off the ring; only verdicts the caller
            // skipped past are parked in the reap buffer.  Ring space is
            // released to the poller once per burst.
            let mut found = None;
            let mut drained = false;
            while let Some(completion) = self.pop_completion() {
                drained = true;
                if completion.ticket == ticket {
                    found = Some(completion.result);
                    break;
                }
                self.reaped
                    .borrow_mut()
                    .push_back((completion.ticket, completion.result));
            }
            if drained {
                self.completions.space_events().notify();
            }
            if let Some(result) = found {
                self.outstanding.set(self.outstanding.get() - 1);
                return result;
            }
            self.waiter
                .wait_until_event(self.completions.ready_events(), || {
                    !self.completions.is_empty()
                });
        }
    }

    /// Non-blocking reap: the verdict if it has already been posted.
    ///
    /// # Panics
    ///
    /// Panics on a ticket that was already reaped.
    pub fn try_reap(&self, ticket: Ticket) -> Option<Result<SyscallOutcome, MonitorError>> {
        self.drain_completions();
        self.take_buffered(ticket)
    }

    /// Takes `ticket`'s verdict out of the reap buffer; `None` while the
    /// completion ring has not delivered it yet.
    ///
    /// # Panics
    ///
    /// Panics if the ring delivered `ticket` and it is no longer buffered:
    /// it was reaped before, and no second verdict will ever arrive.
    fn take_buffered(&self, ticket: Ticket) -> Option<Result<SyscallOutcome, MonitorError>> {
        if ticket >= self.drained_to.get() {
            return None;
        }
        let mut reaped = self.reaped.borrow_mut();
        // In order, the verdict is the front entry and `remove(0)` a
        // `pop_front`; out of order, the search stays logarithmic.
        let Ok(index) = reaped.binary_search_by_key(&ticket, |&(t, _)| t) else {
            panic!("reaping ticket {ticket}, which was already reaped");
        };
        let (_, result) = reaped
            .remove(index)
            .expect("the binary search returned an index in the buffer");
        self.outstanding.set(self.outstanding.get() - 1);
        Some(result)
    }

    /// Pops the next verdict off the completion ring without releasing its
    /// space (callers notify once per burst), advancing `drained_to`.
    fn pop_completion(&self) -> Option<Completion> {
        let completion = self.completions.try_pop_quiet()?;
        debug_assert_eq!(
            completion.ticket,
            self.drained_to.get(),
            "completions are posted in ticket order"
        );
        self.drained_to.set(completion.ticket + 1);
        Some(completion)
    }

    /// Issues a system call and blocks for its verdict: submit + reap.
    /// Observably equivalent to
    /// [`ThreadPort::syscall`](crate::port::ThreadPort::syscall) for this
    /// (variant, thread) — the poller runs the same pipeline.
    pub fn syscall(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        match self.submit(req) {
            SubmitOutcome::Completed(result) => result,
            SubmitOutcome::Ticket(ticket) => self.reap(ticket),
        }
    }

    /// Flush barrier: resolves every deferred comparison submitted so far
    /// and returns the verdict.  Replication points
    /// ([`before_sync_op`](Self::before_sync_op)) call this implicitly.
    pub fn flush(&self) -> Result<(), MonitorError> {
        let ticket = self.next_ticket.get();
        self.next_ticket.set(ticket + 1);
        self.outstanding.set(self.outstanding.get() + 1);
        self.push_submission(Submission::Flush { ticket });
        self.reap(ticket).map(|_| ())
    }

    /// Brackets the *start* of a sync op: submits a flush barrier, blocks
    /// at its reap point (a replication point must never overtake a
    /// pending comparison — the same position in the call stream as the
    /// sync transport's inline flush), then enters the agent.
    pub fn before_sync_op(&self, addr: u64) {
        // A flush failure has already recorded the divergence and poisoned
        // table + agent; the thread learns about it at its next monitored
        // call, exactly like the sync transport.
        let _ = self.flush();
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

    /// Deposits one submission, draining completions while the ring is
    /// full so a stalled poller (unable to post a completion) can always
    /// make progress — the backpressure half of the deadlock-freedom
    /// argument in the module docs.
    fn push_submission(&self, submission: Submission) {
        let mut pending = submission;
        loop {
            let was_empty = self.submissions.is_empty();
            // The poller parks on its aggregated waker, not on the ring's
            // ready events: the quiet push skips the ring notify fence and
            // the raise is elided while the ring already holds work — the
            // poller cannot commit to a park without re-observing the
            // non-empty ring, and the one racy interleaving (it drains the
            // backlog between our emptiness check and the push landing) is
            // bounded by the waiter's 1 ms park backstop.
            match self.submissions.try_push_quiet(pending) {
                Ok(()) => {
                    if was_empty {
                        self.waker.raise();
                    }
                    return;
                }
                Err(back) => {
                    pending = back;
                    self.drain_completions();
                    self.waiter
                        .wait_until_event(self.submissions.space_events(), || {
                            !self.submissions.is_full() || !self.completions.is_empty()
                        });
                }
            }
        }
    }

    /// Moves every posted verdict from the completion ring into the local
    /// reap buffer, releasing ring space to the poller once per burst.
    fn drain_completions(&self) {
        let mut drained = false;
        while let Some(completion) = self.pop_completion() {
            self.reaped
                .borrow_mut()
                .push_back((completion.ticket, completion.result));
            drained = true;
        }
        if drained {
            self.completions.space_events().notify();
        }
    }
}

impl Drop for AsyncThreadPort {
    fn drop(&mut self) {
        // Every in-flight ticket is answered before the `Close` (the
        // poller drains the ring in order), so nothing is lost silently:
        // un-reaped verdicts are simply abandoned by the caller.  The
        // poller flushes trailing comparisons and releases the binding when
        // it reaches the `Close`; wait for that signal so a re-acquired
        // port never races the release.
        self.push_submission(Submission::Close);
        self.waker.raise();
        self.waiter
            .wait_until_event(self.done.events(), || self.done.is_finished());
    }
}

impl std::fmt::Debug for AsyncThreadPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncThreadPort")
            .field("variant", &self.variant)
            .field("thread", &self.thread)
            .field("depth", &self.submissions.capacity())
            .field("next_ticket", &self.next_ticket.get())
            .field("outstanding", &self.outstanding.get())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Pollers, Transport};
    use crate::mvee::Mvee;
    use mvee_kernel::syscall::Sysno;
    use proptest::prelude::*;

    fn async_mvee(variants: usize, batch: usize) -> Mvee {
        Mvee::builder()
            .variants(variants)
            .batch(batch)
            .transport(Transport::AsyncRings {
                depth: 8,
                pollers: Pollers::Pool(1),
            })
            .manual_clock(true)
            .build()
    }

    #[test]
    fn async_port_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<AsyncThreadPort>();
    }

    #[test]
    fn async_port_answers_self_awareness_with_the_variant_index() {
        let mvee = async_mvee(3, 1);
        for v in 0..3 {
            let port = mvee.async_thread_port(v, 0);
            let out = port
                .syscall(&SyscallRequest::new(Sysno::MveeSelfAware))
                .unwrap();
            assert_eq!(out.result, Ok(v as i64));
        }
        assert_eq!(mvee.monitor_stats().self_aware_queries, 3);
    }

    #[test]
    fn is_master_follows_a_failed_over_mastership() {
        use crate::config::RecoveryPolicy;
        use crate::divergence::{DivergenceKind, DivergenceReport};

        let mvee = Mvee::builder()
            .variants(3)
            .recovery(RecoveryPolicy::Quarantine { min_quorum: 2 })
            .transport(Transport::AsyncRings {
                depth: 8,
                pollers: Pollers::Pool(1),
            })
            .manual_clock(true)
            .build();
        let ports: Vec<_> = (0..3).map(|v| mvee.async_thread_port(v, 0)).collect();
        let masters = |ports: &[AsyncThreadPort]| -> Vec<bool> {
            ports.iter().map(AsyncThreadPort::is_master).collect()
        };
        assert_eq!(masters(&ports), [true, false, false]);
        let indictment = DivergenceReport {
            kind: DivergenceKind::RendezvousTimeout {
                arrived: vec![1, 2],
            },
            thread: 0,
            sequence: 0,
            variant: 0,
        };
        let _ = mvee.monitor().fault(1, 0, indictment);
        assert_eq!(mvee.monitor().quarantined_variants(), vec![0]);
        assert_eq!(masters(&ports), [false, true, false]);
    }

    #[test]
    fn deferrable_calls_pipeline_and_reap_out_of_order() {
        let mvee = async_mvee(1, 8);
        let port = mvee.async_thread_port(0, 0);
        let mut tickets = Vec::new();
        for _ in 0..4 {
            match port.submit(&SyscallRequest::new(Sysno::Brk).with_int(0)) {
                SubmitOutcome::Ticket(t) => tickets.push(t),
                SubmitOutcome::Completed(_) => panic!("brk must pipeline"),
            }
        }
        assert_eq!(port.outstanding(), 4);
        // Reap in reverse order: the local reap buffer reorders verdicts.
        for t in tickets.into_iter().rev() {
            port.reap(t).unwrap();
        }
        assert_eq!(port.outstanding(), 0);
        assert_eq!(mvee.monitor_stats().total_syscalls, 4);
    }

    #[test]
    fn synchronous_calls_block_at_the_reap_point() {
        let mvee = async_mvee(1, 8);
        let port = mvee.async_thread_port(0, 0);
        // A replicated call must come back Completed, not a ticket.
        match port.submit(&SyscallRequest::new(Sysno::Gettimeofday)) {
            SubmitOutcome::Completed(result) => assert!(result.unwrap().is_ok()),
            SubmitOutcome::Ticket(_) => panic!("replicated calls must block at the reap point"),
        }
    }

    #[test]
    fn variant_runs_ahead_past_ring_capacity() {
        // More pipelined submissions than the ring holds: backpressure
        // makes the variant drain completions while waiting for space, and
        // every verdict still arrives.
        let mvee = async_mvee(1, 4);
        let port = mvee.async_thread_port(0, 0);
        assert_eq!(port.depth(), 8);
        let tickets: Vec<Ticket> = (0..100)
            .map(
                |_| match port.submit(&SyscallRequest::new(Sysno::Brk).with_int(0)) {
                    SubmitOutcome::Ticket(t) => t,
                    SubmitOutcome::Completed(_) => panic!("brk must pipeline"),
                },
            )
            .collect();
        for t in tickets {
            port.reap(t).unwrap();
        }
        assert_eq!(mvee.monitor_stats().total_syscalls, 100);
        assert_eq!(mvee.monitor().live_slots(), 0);
    }

    #[test]
    fn second_live_port_panics_even_across_transports() {
        let mvee = async_mvee(1, 1);
        let _port = mvee.async_thread_port(0, 0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _second = mvee.thread_port(0, 0);
        }));
        assert!(result.is_err(), "the monitor enforces one live owner");
    }

    #[test]
    fn dropping_an_async_port_hands_the_sequence_back() {
        let mvee = async_mvee(1, 1);
        {
            let port = mvee.async_thread_port(0, 0);
            port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
            port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
        }
        let port = mvee.async_thread_port(0, 0);
        port.syscall(&SyscallRequest::new(Sysno::Getpid)).unwrap();
        assert_eq!(mvee.monitor_stats().total_syscalls, 3);
    }

    #[test]
    fn sync_op_flushes_pipelined_comparisons_first() {
        let mvee = async_mvee(2, 8);
        let mut handles = Vec::new();
        for v in 0..2 {
            let port = mvee.async_thread_port(v, 0);
            handles.push(std::thread::spawn(move || {
                for _ in 0..2 {
                    match port.submit(&SyscallRequest::new(Sysno::Brk).with_int(0)) {
                        SubmitOutcome::Ticket(_) => {}
                        SubmitOutcome::Completed(_) => panic!("brk must pipeline"),
                    }
                }
                // The replication point is a verdict barrier.
                port.sync_op(0x1000, || ());
                // Both pipelined verdicts are now posted.
                assert_eq!(port.try_reap(0).unwrap(), port.try_reap(1).unwrap());
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

    fn brk(addr: i64) -> SyscallRequest {
        SyscallRequest::new(Sysno::Brk).with_int(addr)
    }

    fn pipelined(port: &AsyncThreadPort, req: &SyscallRequest) -> Ticket {
        match port.submit(req) {
            SubmitOutcome::Ticket(ticket) => ticket,
            SubmitOutcome::Completed(_) => panic!("{:?} must pipeline", req.no),
        }
    }

    #[test]
    fn reaping_a_ticket_twice_panics_instead_of_hanging() {
        // On its own thread, so a reap that parks forever fails the
        // watchdog below instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let reaper = std::thread::spawn(move || {
            let mvee = async_mvee(1, 8);
            let port = mvee.async_thread_port(0, 0);
            let ticket = pipelined(&port, &brk(0));
            port.reap(ticket).unwrap();
            let again = |reap: &dyn Fn()| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(reap)).is_err()
            };
            let panicked = [
                again(&|| drop(port.reap(ticket))),
                again(&|| drop(port.try_reap(ticket))),
            ];
            let _ = tx.send((panicked, port.outstanding()));
        });
        let (panicked, outstanding) = rx
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("a second reap of one ticket hung instead of panicking");
        reaper.join().unwrap();
        assert_eq!(panicked, [true, true], "[reap, try_reap]");
        assert_eq!(outstanding, 0);
    }

    /// Reaps one of `pending` chosen by `rng`, blocking or by polling
    /// `try_reap`, and checks the verdict is the break its `brk` asked for.
    fn reap_any(port: &AsyncThreadPort, pending: &mut Vec<(Ticket, i64)>, rng: &mut TestRng) {
        let (ticket, want) = pending.swap_remove(rng.below(pending.len() as u64) as usize);
        let verdict = if rng.below(2) == 0 {
            port.reap(ticket)
        } else {
            loop {
                if let Some(verdict) = port.try_reap(ticket) {
                    break verdict;
                }
                std::thread::yield_now();
            }
        };
        assert_eq!(verdict.unwrap().result, Ok(want), "ticket {ticket}");
    }

    proptest! {
        /// Pipelined `brk`s (each asking for its own break), replicated
        /// calls and flushes — both of which drain verdicts ahead of them
        /// into the reap buffer — with reaps in a random order, half of
        /// them through `try_reap`.
        #[test]
        fn every_verdict_lands_on_its_own_ticket_in_any_reap_order(
            ops in proptest::collection::vec(0u8..5, 1..64),
            seed in any::<u64>(),
        ) {
            const PAGE: i64 = 4096;
            let mut rng = TestRng::new(seed);
            let mvee = async_mvee(1, 8);
            let port = mvee.async_thread_port(0, 0);
            let base = port.syscall(&brk(0)).unwrap().result.unwrap();
            let mut pending = Vec::new();
            for (i, op) in (1..).zip(ops) {
                match op {
                    0 | 1 => {
                        let want = base + i * PAGE;
                        pending.push((pipelined(&port, &brk(want)), want));
                    }
                    2 => match port.submit(&SyscallRequest::new(Sysno::Gettimeofday)) {
                        SubmitOutcome::Completed(result) => {
                            prop_assert!(result.unwrap().result.is_ok());
                        }
                        SubmitOutcome::Ticket(_) => panic!("gettimeofday must complete inline"),
                    },
                    3 => port.flush().unwrap(),
                    _ if !pending.is_empty() => reap_any(&port, &mut pending, &mut rng),
                    _ => {}
                }
            }
            while !pending.is_empty() {
                reap_any(&port, &mut pending, &mut rng);
            }
            prop_assert_eq!(port.outstanding(), 0);
            prop_assert!(port.reaped.borrow().is_empty());
            drop(port);
            prop_assert_eq!(mvee.monitor().live_slots(), 0);
        }
    }

    #[test]
    fn an_abandoned_ticket_costs_the_reap_buffer_one_entry() {
        let mvee = async_mvee(1, 8);
        let port = mvee.async_thread_port(0, 0);
        let depth = port.depth();
        let _abandoned = pipelined(&port, &brk(0));
        let mut peak = 0;
        for _ in 0..10_000 / depth {
            let tickets: Vec<Ticket> = (0..depth)
                .map(|_| {
                    let ticket = pipelined(&port, &brk(0));
                    peak = peak.max(port.reaped.borrow().len());
                    ticket
                })
                .collect();
            for ticket in tickets {
                port.reap(ticket).unwrap();
                peak = peak.max(port.reaped.borrow().len());
            }
        }
        assert!(peak <= 1 + depth, "reap buffer peaked at {peak} entries");
        assert_eq!(port.outstanding(), 1);
    }
}
