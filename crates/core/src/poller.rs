//! Polling monitor shards: a fixed pool of poller threads drains many
//! ports' submission rings through non-blocking rendezvous.
//!
//! A monitor-side thread that serves a port ([`crate::async_port`]) by
//! *blocking* — inside a rendezvous, an outcome wait or an ordering turn —
//! can serve only that port, so the monitor side would cost
//! variants×threads OS threads, and on a small CPU budget their context
//! switches eat the latency win the rings bought (BASELINES.md, *Retired
//! designs*).  Nor can one blocking thread drain several ports:
//! cross-thread submission order legitimately differs between variants
//! (the paper's premise), so a drain stuck in thread A's rendezvous for
//! variant 0 may be the only thing that could deposit thread B's arrival,
//! which variant 1 is blocked waiting for — a circular wait across
//! variants.
//!
//! The poll-mode rendezvous primitives ([`LockstepTable::try_arrive`],
//! [`LockstepTable::try_arrive_batch`], [`LockstepTable::try_wait_outcome`]
//! and their `poll_*` mirrors, plus
//! [`SyscallOrderingClock::try_turn`](crate::ordering::SyscallOrderingClock::try_turn))
//! remove the blocking, and this module builds the event loop on top:
//!
//! * [`PollerPool`] owns `n` poller threads
//!   ([`Pollers`](crate::config::Pollers)), created with the MVEE and
//!   shared by every [`AsyncThreadPort`] the build hands out —
//!   monitor-side threads are exactly `n`, independent of
//!   variants×threads.
//! * Each poller round-robins its assigned ports: drain the submission
//!   ring → advance the port's state machine one non-blocking step at a
//!   time (deposit → `Pending(token)` → poll → verdict) → post
//!   completions.  No step ever sleeps on one port's progress, so the
//!   circular wait above just interleaves.
//! * The per-port state machine runs the **identical** monitor pipeline —
//!   `gate_and_count`, the same rendezvous keys and batch discipline, the
//!   shared verdict settlers (`settle_sync_arrival` /
//!   `settle_batch_results`, including their quarantine-retry protocol) and
//!   the same timeout attribution with deadlines fixed at deposit — so
//!   verdicts are byte-identical to the blocking ports' by
//!   construction (`tests/polling_equivalence.rs` proves it by property).
//! * A poller parks on its [`PollWaker`]'s event count only when every
//!   ring it serves is empty and every in-flight arrival is pending.  Ring
//!   pushes raise the waker directly; rendezvous deposits, outcome
//!   publications and poison raise it through the lockstep table's
//!   observer list; ordering-clock turns and expired deadlines are
//!   re-checked from the park condition (the event count's bounded park
//!   turns a missed edge into a poll).
//!
//! [`LockstepTable::try_arrive`]: crate::lockstep::LockstepTable::try_arrive
//! [`LockstepTable::try_arrive_batch`]: crate::lockstep::LockstepTable::try_arrive_batch
//! [`LockstepTable::try_wait_outcome`]: crate::lockstep::LockstepTable::try_wait_outcome
//! [`LockstepTable`]: crate::lockstep::LockstepTable
//! [`AsyncThreadPort`]: crate::async_port::AsyncThreadPort

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::Mutex;

use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};
use mvee_sync_agent::guards::EventCount;
use mvee_sync_agent::spsc::DescRing;

use crate::async_port::{Completion, Submission, Ticket};
use crate::divergence::{DivergenceKind, DivergenceReport};
use crate::lockstep::{
    ArrivalResult, ArrivalToken, BatchArrival, BatchToken, OutcomeToken, PollWaker, SlotKey,
    TryArrive, TryBatch, TryOutcome,
};
use crate::monitor::{ArrivalSettle, BatchSettle, Monitor, MonitorError, DEFERRED_SEQ_BIT};
use crate::policy::CallDisposition;

/// The completion signal an async port's `Drop` waits on: raised once by
/// the poller after the port's `Close` has flushed trailing comparisons
/// and released the (variant, thread) binding.
#[derive(Debug, Default)]
pub(crate) struct TaskDone {
    finished: AtomicBool,
    events: EventCount,
}

impl TaskDone {
    /// Whether the poller has finished serving (and released) the port.
    pub(crate) fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// The event count a dropping port parks on.
    pub(crate) fn events(&self) -> &EventCount {
        &self.events
    }

    fn finish(&self) {
        self.finished.store(true, Ordering::Release);
        self.events.notify_all();
    }
}

/// What [`PollerPool::register`] hands back to an
/// [`AsyncThreadPort`](crate::async_port::AsyncThreadPort): the ring pair
/// the port talks through, the waker of the poller serving it, and the
/// close signal its `Drop` waits on.
pub(crate) struct PortRegistration {
    pub(crate) submissions: Arc<DescRing<Submission>>,
    pub(crate) completions: Arc<DescRing<Completion>>,
    pub(crate) waker: Arc<PollWaker>,
    pub(crate) done: Arc<TaskDone>,
}

/// A fixed pool of polling monitor shards (see the [module docs](self)).
///
/// Built by [`Mvee`](crate::mvee::Mvee) when the transport is
/// `Transport::AsyncRings`; every async port registers here and is
/// assigned to one of the `n` pollers round-robin.  The pool shuts its
/// pollers down when the last reference — the `Mvee` plus every live async
/// port holds one — is dropped.
pub struct PollerPool {
    shards: Vec<ShardHandle>,
    next: AtomicUsize,
}

struct ShardHandle {
    intake: Arc<Intake>,
    waker: Arc<PollWaker>,
    worker: Option<JoinHandle<()>>,
}

/// The registration mailbox between `register` (any thread) and one poller.
#[derive(Default)]
struct Intake {
    new_tasks: Mutex<Vec<PortTask>>,
    shutdown: AtomicBool,
}

impl PollerPool {
    /// Spawns `workers` poller threads serving the given monitor.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero (the builder rejects `Pollers::Pool(0)`
    /// before ever getting here).
    pub(crate) fn new(monitor: &Arc<Monitor>, workers: usize) -> Self {
        assert!(workers > 0, "a polling pool needs at least one worker");
        let shards = (0..workers)
            .map(|k| {
                let intake = Arc::new(Intake::default());
                let waker = Arc::new(PollWaker::new());
                // Rendezvous deposits, outcome publications and poison must
                // wake a parked poller: they are exactly the events that
                // resolve a Pending token.
                monitor.lockstep().register_observer(Arc::clone(&waker));
                let worker = {
                    let monitor = Arc::clone(monitor);
                    let intake = Arc::clone(&intake);
                    let waker = Arc::clone(&waker);
                    std::thread::Builder::new()
                        .name(format!("mvee-poll-{k}"))
                        .spawn(move || serve_shard(&monitor, &intake, &waker))
                        .expect("spawning a poller thread failed")
                };
                ShardHandle {
                    intake,
                    waker,
                    worker: Some(worker),
                }
            })
            .collect();
        PollerPool {
            shards,
            next: AtomicUsize::new(0),
        }
    }

    /// Number of poller threads — the monitor-side thread count,
    /// independent of variants×threads.
    pub fn worker_count(&self) -> usize {
        self.shards.len()
    }

    /// Registers a (variant, thread) port with the pool: acquires the
    /// monitor-side binding **on the caller's stack** (so the one-live-port
    /// panic surfaces where the port is created), builds the ring pair and
    /// hands the port task to the next poller round-robin.
    pub(crate) fn register(
        &self,
        monitor: &Arc<Monitor>,
        variant: usize,
        thread: usize,
        depth: usize,
    ) -> PortRegistration {
        let (seq, shard) = monitor.acquire_port(variant, thread);
        let batch = monitor.config().batch;
        let submissions = Arc::new(DescRing::new(depth));
        let completions = Arc::new(DescRing::new(depth));
        let done = Arc::new(TaskDone::default());
        let task = PortTask {
            variant,
            thread,
            shard,
            batch,
            seq,
            pending: Vec::with_capacity(batch),
            submissions: Arc::clone(&submissions),
            completions: Arc::clone(&completions),
            queue: VecDeque::new(),
            outbox: VecDeque::new(),
            state: TaskState::Idle,
            done: Arc::clone(&done),
        };
        let k = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
        let handle = &self.shards[k];
        handle.intake.new_tasks.lock().push(task);
        handle.waker.raise();
        PortRegistration {
            submissions,
            completions,
            waker: Arc::clone(&handle.waker),
            done,
        }
    }
}

impl Drop for PollerPool {
    fn drop(&mut self) {
        // The last reference is gone: every pooled port has closed (each
        // held an `Arc<PollerPool>`), so the pollers are idle.  Tell them
        // to exit and join.
        for shard in &self.shards {
            shard.intake.shutdown.store(true, Ordering::Release);
            shard.waker.raise();
        }
        for shard in &mut self.shards {
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl std::fmt::Debug for PollerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PollerPool")
            .field("workers", &self.shards.len())
            .finish()
    }
}

/// One poller thread: round-robin over the assigned port tasks, advancing
/// each without ever blocking on any one port's progress, parking only
/// when nothing can move.
fn serve_shard(monitor: &Arc<Monitor>, intake: &Intake, waker: &PollWaker) {
    let waiter = monitor.config().ring_waiter();
    let mut tasks: Vec<PortTask> = Vec::new();
    loop {
        // Snapshot the raise epoch *before* looking at any work, so a raise
        // racing the pass below is caught by the park condition.
        let epoch = waker.epoch();
        tasks.append(&mut intake.new_tasks.lock());
        let mut progressed = false;
        let mut i = 0;
        while i < tasks.len() {
            match advance_task(monitor, &mut tasks[i]) {
                Advance::Finished => {
                    let task = tasks.swap_remove(i);
                    task.done.finish();
                    progressed = true;
                }
                Advance::Progress => {
                    progressed = true;
                    i += 1;
                }
                Advance::Idle => i += 1,
            }
        }
        if progressed {
            continue;
        }
        if intake.shutdown.load(Ordering::Acquire)
            && tasks.is_empty()
            && intake.new_tasks.lock().is_empty()
        {
            return;
        }
        // Everything is pending: park until a raise (ring push, rendezvous
        // deposit/publish, poison, registration, shutdown) or until a
        // deadline or ordering turn demands another pass.  Turn advances
        // and passed deadlines raise no event, but the event count's
        // bounded park re-evaluates this condition periodically, so they
        // degrade to a poll instead of a hang.
        let deadline = tasks.iter().filter_map(PortTask::wait_deadline).min();
        waiter.wait_until_event(waker.events(), || {
            waker.epoch() != epoch
                || intake.shutdown.load(Ordering::Acquire)
                || deadline.is_some_and(|d| Instant::now() >= d)
                || tasks.iter().any(|t| t.wake_ready(monitor))
        });
    }
}

/// What one round-robin visit did with a task.
enum Advance {
    /// The task's `Close` completed: the port binding is released and the
    /// task must be retired.
    Finished,
    /// At least one step moved (submissions drained, a state transition, a
    /// completion posted).
    Progress,
    /// Nothing could move; the task is waiting on peers.
    Idle,
}

/// Drains the task's submission ring and advances its state machine until
/// it can no longer move.
fn advance_task(monitor: &Monitor, task: &mut PortTask) -> Advance {
    let mut progress = task.flush_outbox();
    loop {
        // Quiet pops: one `space` notification per drain burst is enough
        // for a variant parked on a full submission ring, and skips the
        // per-entry notify fence on the poller's hottest loop.
        let mut drained = false;
        while let Some(submission) = task.submissions.try_pop_quiet() {
            task.queue.push_back(submission);
            drained = true;
        }
        if drained {
            progress = true;
            task.submissions.space_events().notify();
        }
        match task.step(monitor) {
            Step::Progress => {
                progress = true;
                task.flush_outbox();
            }
            Step::Blocked => break,
            Step::Finished => {
                task.flush_outbox();
                return Advance::Finished;
            }
        }
    }
    if progress {
        Advance::Progress
    } else {
        Advance::Idle
    }
}

/// Result of one state-machine step.
enum Step {
    /// Something changed (a deposit, a verdict, a completion); step again.
    Progress,
    /// The current wait is still pending (or the queue is empty); move on
    /// to the next task.
    Blocked,
    /// `Close` fully processed; retire the task.
    Finished,
}

/// The in-flight call a pending wait belongs to.
struct CallCtx {
    ticket: Ticket,
    req: SyscallRequest,
    seq: u64,
    disposition: CallDisposition,
}

/// What to do once an in-flight batch flush resolves.
enum AfterFlush {
    /// Resume the pre-flush of a synchronous call (comparison not yet
    /// deposited).
    ThenCall(CallCtx),
    /// Resume the dispatch tail of a deferred call whose comparison rode in
    /// the flushed batch (batch-full flush).
    ThenDispatch(CallCtx),
    /// The flush was an explicit barrier ([`Submission::Flush`]); post its
    /// verdict under this ticket.
    Barrier(Ticket),
    /// The flush was the close-time drain; release the port next.
    ThenClose,
}

/// Where a port task stands in its current submission — the polling mirror
/// of the positions a blocking [`ThreadPort`](crate::port::ThreadPort) call
/// sleeps at.
enum TaskState {
    /// Between submissions.
    Idle,
    /// A deferred-comparison batch is deposited and waiting for peers.
    Flushing {
        token: BatchToken,
        batch: Vec<BatchArrival>,
        next: AfterFlush,
    },
    /// A synchronous lockstep arrival is deposited and waiting for peers.
    AwaitArrival { token: ArrivalToken, call: CallCtx },
    /// A replicated/ordered slave is waiting for the master's published
    /// outcome.
    AwaitOutcome { token: OutcomeToken, call: CallCtx },
    /// An ordered slave holds the master's timestamp and is waiting for its
    /// shard-clock turn.  The deadline was fixed when the turn wait began,
    /// exactly like the blocking path's `wait_until_deadline`.
    AwaitTurn {
        ts: u64,
        deadline: Instant,
        call: CallCtx,
    },
}

/// One port served by a poller: the monitor-side half of an
/// [`AsyncThreadPort`](crate::async_port::AsyncThreadPort), carrying the
/// same per-thread state a [`ThreadPort`](crate::port::ThreadPort) keeps.
struct PortTask {
    variant: usize,
    thread: usize,
    /// The shard (stat lane + ordering clock) this thread is bound to.
    shard: usize,
    /// Cached comparison batch size (1 = no deferral).
    batch: usize,
    /// Next per-thread sequence number.
    seq: u64,
    /// Port-local deferred-comparison queue, identical to
    /// [`ThreadPort`](crate::port::ThreadPort)'s.
    pending: Vec<BatchArrival>,
    submissions: Arc<DescRing<Submission>>,
    completions: Arc<DescRing<Completion>>,
    /// Submissions drained from the ring but not yet started (the state
    /// machine runs them strictly in order).
    queue: VecDeque<Submission>,
    /// Completions awaiting space in the completion ring; the poller never
    /// blocks pushing one.
    outbox: VecDeque<Completion>,
    state: TaskState,
    done: Arc<TaskDone>,
}

impl PortTask {
    /// Moves completions from the outbox into the completion ring until it
    /// fills up, waking any parked reaper once per burst: the quiet pushes
    /// skip the per-entry notify fence and the single `ready` notification
    /// after the burst covers everything deposited.
    fn flush_outbox(&mut self) -> bool {
        let mut progress = false;
        while let Some(completion) = self.outbox.pop_front() {
            match self.completions.try_push_quiet(completion) {
                Ok(()) => progress = true,
                Err(back) => {
                    self.outbox.push_front(back);
                    break;
                }
            }
        }
        if progress {
            self.completions.ready_events().notify();
        }
        progress
    }

    fn complete(&mut self, ticket: Ticket, result: Result<SyscallOutcome, MonitorError>) {
        self.outbox.push_back(Completion { ticket, result });
    }

    /// The deadline of the current wait, if any — feeds the poller's park
    /// condition so timeout verdicts fire without an external wake.
    fn wait_deadline(&self) -> Option<Instant> {
        match &self.state {
            TaskState::Idle => None,
            TaskState::Flushing { token, .. } => Some(token.deadline()),
            TaskState::AwaitArrival { token, .. } => Some(token.deadline()),
            TaskState::AwaitOutcome { token, .. } => Some(token.deadline()),
            TaskState::AwaitTurn { deadline, .. } => Some(*deadline),
        }
    }

    /// Whether this task could move right now — the non-edge-triggered half
    /// of the poller's park condition (ring pushes raise the waker, but
    /// ordering-clock turns and completion-ring drains do not).
    fn wake_ready(&self, monitor: &Monitor) -> bool {
        if !self.submissions.is_empty() {
            return true;
        }
        if !self.outbox.is_empty() && !self.completions.is_full() {
            return true;
        }
        match &self.state {
            TaskState::AwaitTurn { ts, .. } => {
                monitor.has_diverged()
                    || monitor.is_quarantined(self.variant)
                    || monitor
                        .ordering_clock(self.variant, self.shard)
                        .try_turn(*ts)
            }
            _ => false,
        }
    }

    /// Advances the state machine by one non-blocking step.
    fn step(&mut self, monitor: &Monitor) -> Step {
        match std::mem::replace(&mut self.state, TaskState::Idle) {
            TaskState::Idle => {
                let Some(submission) = self.queue.pop_front() else {
                    return Step::Blocked;
                };
                match submission {
                    Submission::Call { ticket, req } => self.start_call(monitor, ticket, req),
                    Submission::Flush { ticket } => {
                        self.begin_flush(monitor, AfterFlush::Barrier(ticket))
                    }
                    Submission::Close => self.begin_close(monitor),
                }
            }
            TaskState::Flushing { token, batch, next } => {
                match monitor.lockstep().poll_batch(token) {
                    Ok(results) => self.settle_flush(monitor, batch, results, next),
                    Err(token) => {
                        self.state = TaskState::Flushing { token, batch, next };
                        Step::Blocked
                    }
                }
            }
            TaskState::AwaitArrival { token, call } => {
                match monitor.lockstep().poll_arrival(token) {
                    Ok(result) => self.settle_arrival(monitor, result, call),
                    Err(token) => {
                        self.state = TaskState::AwaitArrival { token, call };
                        Step::Blocked
                    }
                }
            }
            TaskState::AwaitOutcome { token, call } => {
                if monitor.is_quarantined(self.variant) {
                    // The publisher's slot may already be consumed and
                    // reclaimed by the survivors; a quarantined lane must
                    // terminate, not wait out the deadline (outcome tokens
                    // hold no waiter registration to release).
                    self.complete(call.ticket, Err(MonitorError::ShutDown));
                    return Step::Progress;
                }
                if monitor.master_variant() == self.variant {
                    // Mastership failed over to this lane mid-wait: publish
                    // in the dead publisher's stead instead of waiting for
                    // an outcome that will never come.
                    let key: SlotKey = (self.thread, call.seq);
                    return self.master_publish(monitor, call, key);
                }
                match monitor.lockstep().poll_outcome(token) {
                    Ok(resolved) => self.finish_wait(monitor, call, resolved),
                    Err(token) => {
                        self.state = TaskState::AwaitOutcome { token, call };
                        Step::Blocked
                    }
                }
            }
            TaskState::AwaitTurn { ts, deadline, call } => {
                self.try_run_turn(monitor, call, ts, deadline)
            }
        }
    }

    /// Starts a [`Submission::Call`]: the same prologue as
    /// [`ThreadPort::syscall`](crate::port::ThreadPort::syscall), stopping
    /// at the first wait instead of blocking in it.
    fn start_call(&mut self, monitor: &Monitor, ticket: Ticket, req: SyscallRequest) -> Step {
        match monitor.gate_and_count(self.variant, self.thread, self.shard, &req) {
            Ok(None) => {}
            Ok(Some(answered)) => {
                self.complete(ticket, Ok(answered));
                return Step::Progress;
            }
            Err(e) => {
                // The MVEE is shutting down: this port's deferred
                // comparisons will never be flushed; drop them.
                self.pending.clear();
                self.complete(ticket, Err(e));
                return Step::Progress;
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let disposition = monitor.config().policy.disposition(req.no);
        let call = CallCtx {
            ticket,
            req,
            seq,
            disposition,
        };
        let defer = self.batch > 1 && disposition.defer_compare;
        if !defer
            && (disposition.lockstep || disposition.replicate || disposition.ordered)
            && !self.pending.is_empty()
        {
            // Synchronous interaction points resolve the deferred
            // comparisons first, exactly as on the blocking paths.
            return self.begin_flush(monitor, AfterFlush::ThenCall(call));
        }
        self.continue_call(monitor, call)
    }

    /// The comparison stage, entered directly or after a pre-flush.
    fn continue_call(&mut self, monitor: &Monitor, call: CallCtx) -> Step {
        let disposition = call.disposition;
        if disposition.lockstep {
            monitor.count_lockstep(self.shard);
            if self.batch > 1 && disposition.defer_compare {
                monitor.count_batched(self.shard);
                self.pending.push(BatchArrival {
                    key: (self.thread, call.seq | DEFERRED_SEQ_BIT),
                    cmp: call.req.comparison_key(),
                });
                // Mirror the blocking port's divergence race check: a
                // divergence recorded between the entry gate and this push
                // means the deferred comparison will never be resolved, so
                // the call must not complete `Ok`.
                if monitor.has_diverged() {
                    self.pending.clear();
                    self.complete(call.ticket, Err(MonitorError::ShutDown));
                    return Step::Progress;
                }
                if self.pending.len() >= self.batch {
                    return self.begin_flush(monitor, AfterFlush::ThenDispatch(call));
                }
                return self.dispatch(monitor, call);
            }
            let key: SlotKey = (self.thread, call.seq);
            let timeout = monitor.config().lockstep_timeout;
            return match monitor.lockstep().try_arrive(
                key,
                self.variant,
                call.req.comparison_key(),
                timeout,
            ) {
                TryArrive::Ready(result) => self.settle_arrival(monitor, result, call),
                TryArrive::Pending(token) => {
                    // The deposit itself is progress: a peer may resolve on
                    // it right now.
                    self.state = TaskState::AwaitArrival { token, call };
                    Step::Progress
                }
            };
        }
        self.dispatch(monitor, call)
    }

    /// Resolves a synchronous arrival verdict, re-depositing with a fresh
    /// deadline whenever the monitor quarantines a peer out of the
    /// rendezvous — the poll-mode mirror of `arrive_sync`'s retry loop.
    /// The re-deposit never blocks: a still-pending retry parks the task
    /// back in [`TaskState::AwaitArrival`].
    fn settle_arrival(&mut self, monitor: &Monitor, result: ArrivalResult, call: CallCtx) -> Step {
        let mut result = result;
        loop {
            match monitor.settle_sync_arrival(result, self.variant, self.thread, call.seq) {
                ArrivalSettle::Done => return self.dispatch(monitor, call),
                ArrivalSettle::Fail(e) => {
                    self.complete(call.ticket, Err(e));
                    return Step::Progress;
                }
                ArrivalSettle::Retry => {
                    let key: SlotKey = (self.thread, call.seq);
                    let timeout = monitor.config().lockstep_timeout;
                    match monitor.lockstep().try_rearrive(
                        key,
                        self.variant,
                        call.req.comparison_key(),
                        timeout,
                    ) {
                        TryArrive::Ready(next) => result = next,
                        TryArrive::Pending(token) => {
                            self.state = TaskState::AwaitArrival { token, call };
                            return Step::Progress;
                        }
                    }
                }
            }
        }
    }

    /// Resolves a flushed batch's verdicts, re-presenting the unconsumed
    /// keys of a quarantined peer's rendezvous without blocking — the
    /// poll-mode mirror of `resolve_batch`'s retry loop.
    fn settle_flush(
        &mut self,
        monitor: &Monitor,
        batch: Vec<BatchArrival>,
        results: Vec<ArrivalResult>,
        next: AfterFlush,
    ) -> Step {
        let (mut batch, mut results) = (batch, results);
        loop {
            match monitor.settle_batch_results(self.variant, self.thread, &batch, results) {
                BatchSettle::Done(flushed) => return self.after_flush(monitor, flushed, next),
                BatchSettle::Retry(indices) => {
                    let sub: Vec<BatchArrival> =
                        indices.iter().map(|&i| batch[i].clone()).collect();
                    let timeout = monitor.config().lockstep_timeout;
                    match monitor
                        .lockstep()
                        .try_rearrive_batch(self.variant, &sub, timeout)
                    {
                        TryBatch::Ready(redone) => {
                            batch = sub;
                            results = redone;
                        }
                        TryBatch::Pending(token) => {
                            self.state = TaskState::Flushing {
                                token,
                                batch: sub,
                                next,
                            };
                            return Step::Progress;
                        }
                    }
                }
            }
        }
    }

    /// The gateway tail after any lockstep comparison has been resolved:
    /// replicate, order, or execute directly — the polling mirror of
    /// [`Monitor::dispatch_resolved`](crate::monitor::Monitor).
    fn dispatch(&mut self, monitor: &Monitor, call: CallCtx) -> Step {
        let disposition = call.disposition;
        let key: SlotKey = (self.thread, call.seq);
        if disposition.replicate {
            monitor.count_replicated(self.shard);
            if self.variant == monitor.master_variant() {
                return self.master_publish(monitor, call, key);
            }
            return self.await_outcome(monitor, call, key);
        }
        if disposition.ordered {
            monitor.count_ordered(self.shard);
            if self.variant == monitor.master_variant() {
                return self.master_publish(monitor, call, key);
            }
            return self.await_outcome(monitor, call, key);
        }
        // Neither replicated nor ordered: execute against the variant's own
        // kernel process directly.
        monitor.lockstep().consume(key, self.variant);
        let outcome = monitor.execute_kernel(self.variant, self.thread, &call.req);
        self.complete(call.ticket, Ok(outcome));
        Step::Progress
    }

    /// Master tail of a replicated/ordered call: execute once, publish the
    /// outcome (with the claimed timestamp for ordered calls), done.  The
    /// master lane is the lowest *active* variant, so after a quarantine a
    /// surviving slave can land here mid-call.
    fn master_publish(&mut self, monitor: &Monitor, call: CallCtx, key: SlotKey) -> Step {
        let ts = if call.disposition.ordered {
            Some(
                monitor
                    .ordering_clock(self.variant, self.shard)
                    .claim_timestamp(),
            )
        } else {
            None
        };
        let outcome = monitor.execute_kernel(self.variant, self.thread, &call.req);
        monitor.lockstep().publish_outcome(key, outcome.clone(), ts);
        monitor.lockstep().consume(key, self.variant);
        self.complete(call.ticket, Ok(outcome));
        Step::Progress
    }

    /// Slave side of replicate/order: check for the master's published
    /// outcome without sleeping.
    fn await_outcome(&mut self, monitor: &Monitor, call: CallCtx, key: SlotKey) -> Step {
        match monitor
            .lockstep()
            .try_wait_outcome(key, monitor.config().lockstep_timeout)
        {
            TryOutcome::Ready(resolved) => self.finish_wait(monitor, call, resolved),
            TryOutcome::Pending(token) => {
                self.state = TaskState::AwaitOutcome { token, call };
                Step::Progress
            }
        }
    }

    /// An outcome wait resolved (or timed out / poisoned): the polling
    /// mirror of `run_replicated` / `run_ordered`'s wait tail, with the
    /// identical divergence attribution.
    fn finish_wait(
        &mut self,
        monitor: &Monitor,
        call: CallCtx,
        resolved: Option<(SyscallOutcome, Option<u64>)>,
    ) -> Step {
        let key: SlotKey = (self.thread, call.seq);
        let Some((outcome, ts)) = resolved else {
            if monitor.has_diverged() {
                self.complete(call.ticket, Err(MonitorError::ShutDown));
                return Step::Progress;
            }
            // The slave reached this call but the master never published an
            // outcome for it: name the missing publisher, report the slot's
            // real arrival set.  Under PoisonAll the waiting variant is
            // blamed and the run poisons, byte-identical to the blocking
            // path; under Quarantine the stalled publisher is dropped and
            // this lane either inherits mastership or re-waits on the new
            // master's publication.
            let master = monitor.master_variant();
            if master == self.variant {
                // Mastership already failed over to this lane: publish
                // rather than indict (blaming here would name *itself*).
                return self.master_publish(monitor, call, key);
            }
            let report = DivergenceReport {
                kind: DivergenceKind::ReplicationTimeout {
                    publisher: master,
                    arrived: monitor.lockstep().arrivals(key),
                },
                thread: self.thread,
                sequence: call.seq,
                variant: self.variant,
            };
            return match monitor.fault(self.variant, master, report) {
                ArrivalSettle::Fail(e) => {
                    self.complete(call.ticket, Err(e));
                    Step::Progress
                }
                _ => {
                    if monitor.master_variant() == self.variant {
                        self.master_publish(monitor, call, key)
                    } else {
                        self.await_outcome(monitor, call, key)
                    }
                }
            };
        };
        if call.disposition.replicate {
            monitor.lockstep().consume(key, self.variant);
            self.complete(call.ticket, Ok(outcome));
            return Step::Progress;
        }
        // Ordered slave: the outcome itself is discarded (each variant
        // executes its own copy); the timestamp gates the turn.
        let ts = ts.unwrap_or(0);
        let deadline = Instant::now() + monitor.config().lockstep_timeout;
        self.try_run_turn(monitor, call, ts, deadline)
    }

    /// Ordered slave's turn wait, one poll at a time.
    fn try_run_turn(
        &mut self,
        monitor: &Monitor,
        call: CallCtx,
        ts: u64,
        deadline: Instant,
    ) -> Step {
        // Divergence breaks the wait first, exactly like the blocking
        // path's `has_diverged || turn` condition.  A lane quarantined
        // while parked in a turn wait must bail out the same way: its
        // clock will never advance again, and letting it time out would
        // poison the surviving quorum.
        if monitor.has_diverged() || monitor.is_quarantined(self.variant) {
            self.complete(call.ticket, Err(MonitorError::ShutDown));
            return Step::Progress;
        }
        let clock = monitor.ordering_clock(self.variant, self.shard);
        if clock.try_turn(ts) {
            let key: SlotKey = (self.thread, call.seq);
            let outcome = monitor.execute_kernel(self.variant, self.thread, &call.req);
            clock.advance();
            monitor.lockstep().consume(key, self.variant);
            self.complete(call.ticket, Ok(outcome));
            return Step::Progress;
        }
        if Instant::now() >= deadline {
            let err = monitor.record_divergence(DivergenceReport {
                kind: DivergenceKind::RendezvousTimeout {
                    arrived: vec![self.variant],
                },
                thread: self.thread,
                sequence: call.seq,
                variant: self.variant,
            });
            self.complete(call.ticket, Err(err));
            return Step::Progress;
        }
        self.state = TaskState::AwaitTurn { ts, deadline, call };
        Step::Blocked
    }

    /// Deposits the pending batch without blocking, or resolves `next`
    /// immediately when there is nothing to flush (matching the blocking
    /// flush's empty-queue early return, which counts nothing).
    fn begin_flush(&mut self, monitor: &Monitor, next: AfterFlush) -> Step {
        let batch = std::mem::take(&mut self.pending);
        if batch.is_empty() {
            return self.after_flush(monitor, Ok(()), next);
        }
        monitor.count_batch_flush(self.shard);
        let timeout = monitor.config().lockstep_timeout;
        match monitor
            .lockstep()
            .try_arrive_batch(self.variant, &batch, timeout)
        {
            TryBatch::Ready(results) => self.settle_flush(monitor, batch, results, next),
            TryBatch::Pending(token) => {
                self.state = TaskState::Flushing { token, batch, next };
                Step::Progress
            }
        }
    }

    fn after_flush(
        &mut self,
        monitor: &Monitor,
        flushed: Result<(), MonitorError>,
        next: AfterFlush,
    ) -> Step {
        match next {
            AfterFlush::ThenCall(call) => match flushed {
                Ok(()) => self.continue_call(monitor, call),
                Err(e) => {
                    self.complete(call.ticket, Err(e));
                    Step::Progress
                }
            },
            AfterFlush::ThenDispatch(call) => match flushed {
                Ok(()) => self.dispatch(monitor, call),
                Err(e) => {
                    self.complete(call.ticket, Err(e));
                    Step::Progress
                }
            },
            AfterFlush::Barrier(ticket) => {
                self.complete(ticket, flushed.map(|()| SyscallOutcome::ok(0)));
                Step::Progress
            }
            // A close-time flush failure has already recorded the
            // divergence; `Close` has nowhere to report it, exactly like
            // `ThreadPort`'s drop.
            AfterFlush::ThenClose => self.finish_close(monitor),
        }
    }

    /// Starts [`Submission::Close`]: flush trailing deferred comparisons
    /// (or drop them if the MVEE is poisoned — the table would only answer
    /// `Poisoned`), then release the binding.  Mirrors `ThreadPort::drop`.
    fn begin_close(&mut self, monitor: &Monitor) -> Step {
        if monitor.has_diverged() {
            self.pending.clear();
            return self.finish_close(monitor);
        }
        self.begin_flush(monitor, AfterFlush::ThenClose)
    }

    /// Hands the sequence counter back so a later port continues the key
    /// stream, and retires the task.
    fn finish_close(&mut self, monitor: &Monitor) -> Step {
        monitor.release_port(self.variant, self.thread, self.seq);
        Step::Finished
    }
}
