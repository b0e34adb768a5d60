//! The per-call protocol: one non-blocking state machine, two drivers,
//! two rendezvous backends.
//!
//! The paper's monitor does one thing per system call — compare in
//! lockstep, then replicate the master's result or replay its order — and
//! [`CallMachine`] is the only place that protocol is written down.  It
//! owns what one (variant, thread) binding needs between calls (shard
//! binding, sequence counter, deferred-comparison queue) and the position
//! of the operation in flight, and it never sleeps: every entry point
//! returns a [`Step`], and a wait is a state the next
//! [`step`](CallMachine::step) re-examines.  Deadlines, the quarantine
//! bail-outs and master fail-over are all inside `step`, so a driver only
//! decides *how to wait* for the next one.  Two drivers step it:
//!
//! * a blocking [`ThreadPort`](crate::port::ThreadPort) steps on the
//!   variant thread's own stack and, once a step reports
//!   [`Step::Blocked`], sleeps with the next step as its wake condition —
//!   over either backend: the remote
//!   [`LeaderPort`](crate::remote::LeaderPort) is `ThreadPort<Wire>`;
//! * a poller ([`crate::poller`]) holds one in-proc machine per async port
//!   and round-robins over them, parking only when every machine is
//!   blocked.
//!
//! # Two rendezvous backends
//!
//! The machine is generic over [`Rendezvous`], *where the rendezvous
//! lives* — the one thing an in-proc variant and the remote leader do
//! differently.  Dispatch is static: the in-proc machine carries nothing of
//! the wire.  The trait and the types its methods name are `pub` inside
//! this private module, so the port can be public and generic over a
//! backend nobody outside the crate can name, implement or call.
//!
//! * [`InProc`] is the monitor's
//!   [`LockstepTable`](crate::lockstep::LockstepTable), its stat stripes
//!   and its divergence, quarantine and master state.
//! * The wire backend (`crate::remote::leader`) is variant 0 behind a
//!   replication link: a deposit is an appended frame, a wait is "acked
//!   past my frame", a publish is a `Publish` frame under the hold rule,
//!   and divergence and peer death are learnt from the link alone.
//!
//! The in-proc backend's two deposit-and-settle waits are small types of
//! their own, [`ArrivalWait`] and [`FlushWait`], which own the
//! quarantine-retry loop: a verdict a quarantine superseded is re-presented
//! with a fresh deadline.  The remote follower's lanes hold the same two
//! for the records they deposit on the leader's behalf — the follower sees
//! records, not calls, so it shares the waits, not the machine.
//!
//! The request of the call in flight stays **borrowed** from the driver
//! (the variant's own argument on the blocking paths, the descriptor popped
//! from the submission ring on the polling one): the machine stores a
//! sequence number and a disposition, never a request.

use std::time::Instant;

use mvee_kernel::syscall::{ComparisonKey, SyscallOutcome, SyscallRequest};

use crate::divergence::{DivergenceKind, DivergenceReport};
use crate::journal::ClassKind;
use crate::lockstep::{
    ArrivalToken, BatchArrival, BatchToken, OutcomeToken, SlotKey, TryArrive, TryBatch, TryOutcome,
};
use crate::monitor::{ArrivalSettle, BatchSettle, Monitor, MonitorError, DEFERRED_SEQ_BIT};
use crate::policy::CallDisposition;

/// What one non-blocking step of a [`CallMachine`] did.
pub(crate) enum Step {
    /// The operation finished with this verdict (a flush barrier and a
    /// close report `Ok(0)`); the machine is idle again.
    Done(Result<SyscallOutcome, MonitorError>),
    /// Something changed (a deposit, a settled verdict); step again.
    Progress,
    /// The current wait is still pending: wait, then step again.
    Blocked,
}

/// A settled rendezvous: `Ok`, or the error the call returns.
pub type Settled = Result<(), MonitorError>;

/// A rendezvous that settled, or the wait to poll next (the lockstep
/// table's `poll_*` convention).
pub type Polled<W> = Result<Settled, W>;

/// The entry gate's answer: `Ok(Some(_))` answers a self-awareness query,
/// which takes no sequence number.
pub type Gated = Result<Option<SyscallOutcome>, MonitorError>;

/// The (variant, thread) a machine is bound to, and the shard (rendezvous
/// lock, ordering clock, stat lane) it is bound to: `thread % shards`.
#[derive(Debug, Clone, Copy)]
pub struct Binding {
    pub(crate) variant: usize,
    pub(crate) thread: usize,
    pub(crate) shard: usize,
}

/// Where a call's rendezvous lives (see the [module docs](self)): the
/// comparison deposits and waits, the counters, and the divergence,
/// quarantine and master state the machine consults.  The machine's own
/// tail — replicate, order or execute — is written once, around it.
///
/// A deposit and the polls of its wait are one method: `wait` is `None` to
/// deposit, and the wait the last call handed back to poll it.
pub trait Rendezvous: Default + std::fmt::Debug {
    /// What the machine is stepped against.
    type Cx;
    /// A synchronous arrival deposited and not yet settled.
    type Arrival: std::fmt::Debug;
    /// A batch flush deposited and not yet settled.
    type Flush: std::fmt::Debug;

    /// The monitor behind `cx`: configuration, kernel and ordering clocks.
    fn monitor(cx: &Self::Cx) -> &Monitor;
    /// The entry gate and the entry count.
    fn gate(&mut self, cx: &Self::Cx, at: Binding, req: &SyscallRequest) -> Gated;
    /// The gate's verdict without counting: `Err` once the run is over.
    fn halted(&self, cx: &Self::Cx) -> Settled;
    fn count(&mut self, cx: &Self::Cx, shard: usize, class: ClassKind);
    /// Call `seq`'s synchronous comparison; `publishes` says whether a
    /// publish for the same call follows.
    fn arrive(
        &mut self,
        cx: &Self::Cx,
        at: Binding,
        wait: Option<Self::Arrival>,
        seq: u64,
        publishes: bool,
        req: &SyscallRequest,
    ) -> Polled<Self::Arrival>;
    /// The (non-empty) deferred comparisons in `batch` as one block; the
    /// wait settles against `batch`, which the machine keeps.
    fn flush(
        &mut self,
        cx: &Self::Cx,
        at: Binding,
        wait: Option<Self::Flush>,
        batch: &mut Vec<BatchArrival>,
    ) -> Polled<Self::Flush>;
    /// Whether `variant` is the replication master right now.
    fn is_master(&self, cx: &Self::Cx, variant: usize) -> bool;
    /// Call `seq`'s comparison settled and it executes next, replicated or
    /// ordered — or `direct`ly, its comparison slot done with.  `Err` stops
    /// it here, uncounted.
    fn before_execute(
        &mut self,
        cx: &Self::Cx,
        at: Binding,
        seq: u64,
        req: &SyscallRequest,
        direct: bool,
    ) -> Settled;
    /// The master executed call `seq`: publishes its outcome (and ordering
    /// timestamp) to the slaves.  `queued` says the call's own comparison
    /// still waits in the deferred queue.
    fn publish(
        &mut self,
        cx: &Self::Cx,
        at: Binding,
        seq: u64,
        ts: Option<u64>,
        outcome: &SyscallOutcome,
        queued: bool,
    ) -> Settled;
    /// The close-time flush is done; the binding is released next.
    fn close(&mut self, cx: &Self::Cx, at: Binding);
    /// A replication point: the thread's deferred comparisons are flushed
    /// and it enters a sync op next.
    fn sync_op(&mut self, cx: &Self::Cx, at: Binding);
    /// Sleeps until `moved` — the machine's next step — reports progress.
    fn wait_on(cx: &Self::Cx, thread: usize, moved: impl FnMut() -> bool);
}

/// The in-proc rendezvous: the monitor's lockstep table, stat stripes and
/// divergence, quarantine and master state.
#[derive(Debug, Default)]
pub struct InProc;

impl Rendezvous for InProc {
    type Cx = Monitor;
    type Arrival = ArrivalWait;
    type Flush = FlushWait;

    fn monitor(monitor: &Monitor) -> &Monitor {
        monitor
    }

    fn gate(&mut self, monitor: &Monitor, at: Binding, req: &SyscallRequest) -> Gated {
        monitor.gate_and_count(at.variant, at.thread, at.shard, req)
    }

    fn halted(&self, monitor: &Monitor) -> Settled {
        match monitor.has_diverged() {
            true => Err(MonitorError::ShutDown),
            false => Ok(()),
        }
    }

    fn count(&mut self, monitor: &Monitor, shard: usize, class: ClassKind) {
        monitor.count(shard, class);
    }

    fn arrive(
        &mut self,
        monitor: &Monitor,
        at: Binding,
        wait: Option<ArrivalWait>,
        seq: u64,
        _: bool,
        req: &SyscallRequest,
    ) -> Polled<ArrivalWait> {
        let key = (at.thread, seq);
        ArrivalWait::poll(wait, monitor, at.variant, key, || req.comparison_key())
    }

    fn flush(
        &mut self,
        monitor: &Monitor,
        at: Binding,
        wait: Option<FlushWait>,
        batch: &mut Vec<BatchArrival>,
    ) -> Polled<FlushWait> {
        FlushWait::poll(wait, monitor, at.variant, at.thread, at.shard, batch)
    }

    fn is_master(&self, monitor: &Monitor, variant: usize) -> bool {
        monitor.master_variant() == variant
    }

    fn before_execute(
        &mut self,
        monitor: &Monitor,
        at: Binding,
        seq: u64,
        _: &SyscallRequest,
        direct: bool,
    ) -> Settled {
        if monitor.is_quarantined(at.variant) {
            // The comparison may have settled Consistent *because* a
            // quarantine swept this variant's key out of the slot; its
            // in-flight call must stop here rather than chase outcome
            // publications the survivors no longer hold for it.
            return Err(MonitorError::ShutDown);
        }
        if direct {
            monitor.lockstep().consume((at.thread, seq), at.variant);
        }
        Ok(())
    }

    fn publish(
        &mut self,
        monitor: &Monitor,
        at: Binding,
        seq: u64,
        ts: Option<u64>,
        outcome: &SyscallOutcome,
        _: bool,
    ) -> Settled {
        let key = (at.thread, seq);
        monitor.lockstep().publish_outcome(key, outcome.clone(), ts);
        monitor.lockstep().consume(key, at.variant);
        Ok(())
    }

    fn close(&mut self, _: &Monitor, _: Binding) {}

    fn sync_op(&mut self, _: &Monitor, _: Binding) {}

    fn wait_on(monitor: &Monitor, thread: usize, moved: impl FnMut() -> bool) {
        monitor.lockstep().wait_on(thread, moved);
    }
}

/// A synchronous lockstep arrival deposited in the table, settling its
/// verdict through the recovery policy.
#[derive(Debug)]
pub struct ArrivalWait(ArrivalToken);

impl ArrivalWait {
    /// Deposits `variant`'s arrival at `key` — or, given its `wait`, polls
    /// it — without sleeping.  A verdict a quarantine superseded is
    /// re-deposited with a fresh deadline; `cmp` rebuilds the comparison key
    /// for the deposit and for that rare re-deposit.
    pub(crate) fn poll(
        wait: Option<Self>,
        monitor: &Monitor,
        variant: usize,
        (thread, seq): SlotKey,
        cmp: impl Fn() -> ComparisonKey,
    ) -> Polled<Self> {
        let (table, timeout) = (monitor.lockstep(), monitor.config().lockstep_timeout);
        let mut result = match wait {
            Some(ArrivalWait(token)) => table.poll_arrival(token),
            None => match table.try_arrive((thread, seq), variant, cmp(), timeout) {
                TryArrive::Ready(result) => Ok(result),
                TryArrive::Pending(token) => Err(token),
            },
        }
        .map_err(ArrivalWait)?;
        loop {
            match monitor.settle_sync_arrival(result, variant, thread, seq) {
                ArrivalSettle::Done => return Ok(Ok(())),
                ArrivalSettle::Fail(error) => return Ok(Err(error)),
                ArrivalSettle::Retry => {
                    match table.try_rearrive((thread, seq), variant, cmp(), timeout) {
                        TryArrive::Ready(next) => result = next,
                        TryArrive::Pending(token) => return Err(ArrivalWait(token)),
                    }
                }
            }
        }
    }

    pub(crate) fn deadline(&self) -> Instant {
        self.0.deadline()
    }
}

/// A batch of deferred comparisons deposited as one block, settling its
/// verdicts through the recovery policy.  The batch stays with its owner,
/// who passes it to every poll: only the keys a quarantine left unsettled
/// are re-presented, so a retry narrows it to those (the settled ones were
/// consumed, and re-depositing them could resurrect reclaimed slots the
/// peers will never revisit).
#[derive(Debug)]
pub struct FlushWait(BatchToken);

impl FlushWait {
    /// Counts the flush in `lane`'s stripe and deposits `batch`, thread
    /// `thread`'s deferred comparisons, as `variant`'s — or, given its
    /// `wait`, polls it — without sleeping.
    pub(crate) fn poll(
        wait: Option<Self>,
        monitor: &Monitor,
        variant: usize,
        thread: usize,
        lane: usize,
        batch: &mut Vec<BatchArrival>,
    ) -> Polled<Self> {
        let (table, timeout) = (monitor.lockstep(), monitor.config().lockstep_timeout);
        let mut results = match wait {
            Some(FlushWait(token)) => table.poll_batch(token),
            None => {
                monitor.count(lane, ClassKind::BatchFlush);
                match table.try_arrive_batch(variant, batch, timeout) {
                    TryBatch::Ready(results) => Ok(results),
                    TryBatch::Pending(token) => Err(token),
                }
            }
        }
        .map_err(FlushWait)?;
        loop {
            match monitor.settle_batch_results(variant, thread, batch, results) {
                BatchSettle::Done(outcome) => return Ok(outcome),
                BatchSettle::Retry(indices) => {
                    *batch = indices.into_iter().map(|i| batch[i].clone()).collect();
                    match table.try_rearrive_batch(variant, batch, timeout) {
                        TryBatch::Ready(redone) => results = redone,
                        TryBatch::Pending(token) => return Err(FlushWait(token)),
                    }
                }
            }
        }
    }

    pub(crate) fn deadline(&self) -> Instant {
        self.0.deadline()
    }
}

/// The call in flight, as far as the machine remembers it (the request
/// itself stays with the driver).
#[derive(Debug, Clone, Copy)]
struct Call {
    seq: u64,
    disposition: CallDisposition,
}

/// What to do once an in-flight batch flush resolves.
#[derive(Debug)]
enum AfterFlush {
    /// Resume a synchronous call whose comparison is not yet deposited
    /// (the flush-before-synchronous rule).
    ThenCall(Call),
    /// Resume the dispatch tail of a deferred call whose comparison rode
    /// in the flushed batch (batch-full flush).
    ThenDispatch(Call),
    /// The flush was an explicit barrier; its verdict is the result.
    Barrier,
    /// The flush was the close-time drain; release the binding next.
    ThenClose,
}

/// Where the operation in flight stands.
#[derive(Debug)]
enum State<R: Rendezvous> {
    /// Between operations.
    Idle,
    /// A deferred-comparison batch is deposited and waiting for peers.
    Flushing { wait: R::Flush, next: AfterFlush },
    /// A synchronous lockstep arrival is deposited and waiting for peers.
    AwaitArrival { wait: R::Arrival, call: Call },
    /// A replicated/ordered slave is waiting for the master's published
    /// outcome.
    AwaitOutcome { token: OutcomeToken, call: Call },
    /// An ordered slave holds the master's timestamp and is waiting for
    /// its shard-clock turn; the deadline was fixed when the wait began.
    AwaitTurn {
        ts: u64,
        deadline: Instant,
        call: Call,
    },
}

/// The per-(variant, thread) call state machine (see the
/// [module docs](self)).
#[derive(Debug)]
pub(crate) struct CallMachine<R: Rendezvous = InProc> {
    at: Binding,
    /// Cached comparison batch size (1 = no deferral).
    batch: usize,
    /// Next per-thread sequence number; this machine is the only writer.
    seq: u64,
    /// Deferred comparisons awaiting the next flush.
    pending: Vec<BatchArrival>,
    state: State<R>,
    rv: R,
}

impl CallMachine {
    /// The deadline of the current wait, if any — a poller's park
    /// condition reads it so timeout verdicts fire without an external
    /// wake.
    pub(crate) fn wait_deadline(&self) -> Option<Instant> {
        match &self.state {
            State::Idle => None,
            State::Flushing { wait, .. } => Some(wait.deadline()),
            State::AwaitArrival { wait, .. } => Some(wait.deadline()),
            State::AwaitOutcome { token, .. } => Some(token.deadline()),
            State::AwaitTurn { deadline, .. } => Some(*deadline),
        }
    }
}

/// The request of the call in flight; only flush barriers and closes are
/// stepped without one.
fn in_flight(req: Option<&SyscallRequest>) -> &SyscallRequest {
    req.expect("a call in flight is stepped with its request")
}

/// A rendezvous wait that did not settle: a fresh deposit is progress (a
/// peer may resolve on it right now), a re-poll is not.
fn pending(deposit: bool) -> Step {
    match deposit {
        true => Step::Progress,
        false => Step::Blocked,
    }
}

impl<R: Rendezvous> CallMachine<R> {
    /// Binds a machine to (variant, thread), continuing the thread's
    /// sequence stream where the previous binding left it.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or if a live binding already owns
    /// this (variant, thread) — on the caller's stack, so the panic
    /// surfaces where the port is created.
    pub(crate) fn new(cx: &R::Cx, variant: usize, thread: usize) -> Self {
        let monitor = R::monitor(cx);
        let (seq, shard) = monitor.acquire_port(variant, thread);
        let batch = monitor.config().batch;
        CallMachine {
            at: Binding {
                variant,
                thread,
                shard,
            },
            batch,
            seq,
            pending: Vec::with_capacity(batch),
            state: State::Idle,
            rv: R::default(),
        }
    }

    pub(crate) fn variant(&self) -> usize {
        self.at.variant
    }

    pub(crate) fn thread(&self) -> usize {
        self.at.thread
    }

    pub(crate) fn shard(&self) -> usize {
        self.at.shard
    }

    /// Whether this binding's variant is the replication master right now.
    pub(crate) fn is_master(&self, cx: &R::Cx) -> bool {
        self.rv.is_master(cx, self.at.variant)
    }

    /// Whether the run is over for this binding: the entry gate would
    /// refuse the next call.
    pub(crate) fn is_halted(&self, cx: &R::Cx) -> bool {
        self.rv.halted(cx).is_err()
    }

    /// A replication point: the backend learns the thread enters a sync op.
    pub(crate) fn sync_op(&mut self, cx: &R::Cx) {
        self.rv.sync_op(cx, self.at);
    }

    /// Deferred comparisons queued, awaiting the next flush.
    pub(crate) fn pending_comparisons(&self) -> usize {
        self.pending.len()
    }

    /// Starts a system call: the gateway prologue, then the comparison
    /// stage up to its first wait.
    pub(crate) fn start(&mut self, cx: &R::Cx, req: &SyscallRequest) -> Step {
        debug_assert!(matches!(self.state, State::Idle));
        match self.rv.gate(cx, self.at, req) {
            Ok(None) => {}
            Ok(Some(answered)) => return Step::Done(Ok(answered)),
            Err(error) => {
                // The MVEE is shutting down: the deferred comparisons will
                // never be flushed; drop them.
                self.pending.clear();
                return Step::Done(Err(error));
            }
        }
        let seq = self.seq;
        self.seq += 1;
        let disposition = R::monitor(cx).config().policy.disposition(req.no);
        let call = Call { seq, disposition };
        let defer = self.batch > 1 && disposition.defer_compare;
        if !defer
            && (disposition.lockstep || disposition.replicate || disposition.ordered)
            && !self.pending.is_empty()
        {
            // Synchronous interaction points resolve the deferred
            // comparisons first: comparisons stay in per-thread program
            // order, and no replicated result is handed out while an
            // earlier comparison is still pending.
            return self.begin_flush(cx, AfterFlush::ThenCall(call), Some(req));
        }
        self.compare(cx, call, req)
    }

    /// Starts a flush barrier: deposits the deferred comparisons, if any,
    /// as one batched rendezvous block.
    pub(crate) fn flush(&mut self, cx: &R::Cx) -> Step {
        debug_assert!(matches!(self.state, State::Idle));
        self.begin_flush(cx, AfterFlush::Barrier, None)
    }

    /// Starts the close: flushes trailing deferred comparisons — a binding
    /// handed back mid-run must not let them go uncompared — or drops them
    /// if the run is over (the rendezvous would only answer that), then
    /// hands the sequence counter back and releases the binding.  A
    /// close-time flush failure has already recorded the divergence and
    /// has nowhere to be reported; the next monitored call returns
    /// `ShutDown`.
    pub(crate) fn close(&mut self, cx: &R::Cx) -> Step {
        if self.rv.halted(cx).is_err() {
            self.pending.clear();
        }
        self.begin_flush(cx, AfterFlush::ThenClose, None)
    }

    /// Advances the operation in flight by one non-blocking step.  `req`
    /// is the request [`start`](Self::start) was given (`None` for a flush
    /// or close).
    pub(crate) fn step(&mut self, cx: &R::Cx, req: Option<&SyscallRequest>) -> Step {
        match std::mem::replace(&mut self.state, State::Idle) {
            State::Idle => unreachable!("stepped with no operation in flight"),
            State::Flushing { wait, next } => self.poll_flush(cx, Some(wait), next, req),
            State::AwaitArrival { wait, call } => {
                self.poll_arrival(cx, Some(wait), call, in_flight(req))
            }
            State::AwaitOutcome { token, call } => {
                let monitor = R::monitor(cx);
                if monitor.is_quarantined(self.at.variant) {
                    // The publisher's slot may already be consumed and
                    // reclaimed by the survivors; a quarantined lane must
                    // terminate, not wait out the deadline (outcome tokens
                    // hold no waiter registration to release).
                    return self.shut_down();
                }
                if monitor.master_variant() == self.at.variant {
                    // Mastership failed over to this lane mid-wait: publish
                    // in the dead publisher's stead instead of waiting for
                    // an outcome that will never come.
                    return self.master_publish(cx, call, in_flight(req));
                }
                match monitor.lockstep().poll_outcome(token) {
                    Ok(resolved) => self.finish_wait(cx, call, resolved, in_flight(req)),
                    Err(token) => {
                        self.state = State::AwaitOutcome { token, call };
                        Step::Blocked
                    }
                }
            }
            State::AwaitTurn { ts, deadline, call } => {
                self.try_run_turn(cx, call, ts, deadline, in_flight(req))
            }
        }
    }

    /// Ends the call in flight because the run is poisoned or this lane is
    /// quarantined: its deferred comparisons will never be resolved, so the
    /// queue goes with it.
    fn shut_down(&mut self) -> Step {
        self.pending.clear();
        Step::Done(Err(MonitorError::ShutDown))
    }

    fn key(&self, call: Call) -> SlotKey {
        (self.at.thread, call.seq)
    }

    /// The comparison stage, entered directly or after a pre-flush.
    fn compare(&mut self, cx: &R::Cx, call: Call, req: &SyscallRequest) -> Step {
        if !call.disposition.lockstep {
            return self.dispatch(cx, call, req);
        }
        self.rv.count(cx, self.at.shard, ClassKind::Lockstep);
        if self.batch > 1 && call.disposition.defer_compare {
            self.rv.count(cx, self.at.shard, ClassKind::Batched);
            self.pending.push(BatchArrival {
                key: (self.at.thread, call.seq | DEFERRED_SEQ_BIT),
                cmp: req.comparison_key(),
            });
            // A divergence recorded elsewhere between the entry gate and
            // this push means the deferred comparison will never be
            // resolved, so the call must not return `Ok`: drop the queue
            // and shut down.
            if let Err(error) = self.rv.halted(cx) {
                self.pending.clear();
                return Step::Done(Err(error));
            }
            if self.pending.len() >= self.batch {
                return self.begin_flush(cx, AfterFlush::ThenDispatch(call), Some(req));
            }
            return self.dispatch(cx, call, req);
        }
        self.poll_arrival(cx, None, call, req)
    }

    /// Deposits the synchronous comparison (`wait` is `None`) or polls it.
    fn poll_arrival(
        &mut self,
        cx: &R::Cx,
        wait: Option<R::Arrival>,
        call: Call,
        req: &SyscallRequest,
    ) -> Step {
        let deposit = wait.is_none();
        let publishes = call.disposition.replicate || call.disposition.ordered;
        match self.rv.arrive(cx, self.at, wait, call.seq, publishes, req) {
            Ok(Ok(())) => self.dispatch(cx, call, req),
            Ok(Err(error)) => Step::Done(Err(error)),
            Err(wait) => {
                self.state = State::AwaitArrival { wait, call };
                pending(deposit)
            }
        }
    }

    /// Deposits the pending batch, or resolves `next` immediately when
    /// there is nothing to flush (an empty flush counts nothing).
    fn begin_flush(&mut self, cx: &R::Cx, next: AfterFlush, req: Option<&SyscallRequest>) -> Step {
        if self.pending.is_empty() {
            return self.after_flush(cx, Ok(()), next, req);
        }
        self.poll_flush(cx, None, next, req)
    }

    /// Deposits the pending batch (`wait` is `None`) or polls its flush.
    fn poll_flush(
        &mut self,
        cx: &R::Cx,
        wait: Option<R::Flush>,
        next: AfterFlush,
        req: Option<&SyscallRequest>,
    ) -> Step {
        let deposit = wait.is_none();
        match self.rv.flush(cx, self.at, wait, &mut self.pending) {
            Ok(flushed) => self.after_flush(cx, flushed, next, req),
            Err(wait) => {
                self.state = State::Flushing { wait, next };
                pending(deposit)
            }
        }
    }

    fn after_flush(
        &mut self,
        cx: &R::Cx,
        flushed: Settled,
        next: AfterFlush,
        req: Option<&SyscallRequest>,
    ) -> Step {
        self.pending.clear();
        match (next, flushed) {
            (AfterFlush::ThenCall(call), Ok(())) => self.compare(cx, call, in_flight(req)),
            (AfterFlush::ThenDispatch(call), Ok(())) => self.dispatch(cx, call, in_flight(req)),
            (AfterFlush::ThenClose, _) => {
                self.rv.close(cx, self.at);
                R::monitor(cx).release_port(self.at.variant, self.at.thread, self.seq);
                Step::Done(Ok(SyscallOutcome::ok(0)))
            }
            (_, flushed) => Step::Done(flushed.map(|()| SyscallOutcome::ok(0))),
        }
    }

    /// The gateway tail after any lockstep comparison has been resolved:
    /// replicate, order, or execute directly.
    fn dispatch(&mut self, cx: &R::Cx, call: Call, req: &SyscallRequest) -> Step {
        // Neither replicated nor ordered: the variant executes against its
        // own kernel process directly (sched_yield, gettid-style queries
        // that happen to differ, exit of a single thread, ...).
        let direct = !call.disposition.replicate && !call.disposition.ordered;
        if let Err(error) = self.rv.before_execute(cx, self.at, call.seq, req, direct) {
            self.pending.clear();
            return Step::Done(Err(error));
        }
        if direct {
            let monitor = R::monitor(cx);
            return Step::Done(Ok(monitor.execute_kernel(
                self.at.variant,
                self.at.thread,
                req,
            )));
        }
        let class = match call.disposition.replicate {
            true => ClassKind::Replicated,
            false => ClassKind::Ordered,
        };
        self.rv.count(cx, self.at.shard, class);
        if self.rv.is_master(cx, self.at.variant) {
            self.master_publish(cx, call, req)
        } else {
            self.await_outcome(cx, call, req)
        }
    }

    /// Master tail of a replicated/ordered call: execute once and publish
    /// the outcome (with the timestamp claimed on this thread group's
    /// shard clock for ordered calls, so the slaves can replay the
    /// cross-thread order).  The master role follows the quorum — the
    /// lowest live variant — so after a quarantine a surviving slave can
    /// land here mid-call.
    fn master_publish(&mut self, cx: &R::Cx, call: Call, req: &SyscallRequest) -> Step {
        let monitor = R::monitor(cx);
        let ts = call.disposition.ordered.then(|| {
            monitor
                .ordering_clock(self.at.variant, self.at.shard)
                .claim_timestamp()
        });
        let outcome = monitor.execute_kernel(self.at.variant, self.at.thread, req);
        let queued = !self.pending.is_empty();
        match self.rv.publish(cx, self.at, call.seq, ts, &outcome, queued) {
            Ok(()) => Step::Done(Ok(outcome)),
            Err(error) => Step::Done(Err(error)),
        }
    }

    // The slave tails below run only where `is_master` can answer no —
    // in-proc — and read the monitor directly.

    /// Slave side of replicate/order: look for the master's published
    /// outcome without sleeping.
    fn await_outcome(&mut self, cx: &R::Cx, call: Call, req: &SyscallRequest) -> Step {
        let monitor = R::monitor(cx);
        match monitor
            .lockstep()
            .try_wait_outcome(self.key(call), monitor.config().lockstep_timeout)
        {
            TryOutcome::Ready(resolved) => self.finish_wait(cx, call, resolved, req),
            TryOutcome::Pending(token) => {
                self.state = State::AwaitOutcome { token, call };
                Step::Progress
            }
        }
    }

    /// An outcome wait resolved, timed out or was poisoned.
    fn finish_wait(
        &mut self,
        cx: &R::Cx,
        call: Call,
        resolved: Option<(SyscallOutcome, Option<u64>)>,
        req: &SyscallRequest,
    ) -> Step {
        let monitor = R::monitor(cx);
        let key = self.key(call);
        let Some((outcome, ts)) = resolved else {
            if monitor.has_diverged() {
                return self.shut_down();
            }
            let master = monitor.master_variant();
            if master == self.at.variant {
                // Mastership already failed over to this lane: publish
                // rather than indict (blaming here would name *itself*).
                return self.master_publish(cx, call, req);
            }
            // The slave reached this call but the master never published
            // an outcome for it.  Under `PoisonAll`, blame the *waiting*
            // variant — it is the one whose call stream reached a point
            // the publisher's never did — name the missing publisher, and
            // report the slot's real arrival set.  Under `Quarantine` the
            // stalled publisher is dropped and this lane either inherits
            // mastership or re-waits on the new master's publication.
            let report = DivergenceReport {
                kind: DivergenceKind::ReplicationTimeout {
                    publisher: master,
                    arrived: monitor.lockstep().arrivals(key),
                },
                thread: self.at.thread,
                sequence: call.seq,
                variant: self.at.variant,
            };
            return match monitor.fault(self.at.variant, master, report) {
                ArrivalSettle::Fail(error) => Step::Done(Err(error)),
                _ if monitor.master_variant() == self.at.variant => {
                    self.master_publish(cx, call, req)
                }
                _ => self.await_outcome(cx, call, req),
            };
        };
        if call.disposition.replicate {
            monitor.lockstep().consume(key, self.at.variant);
            return Step::Done(Ok(outcome));
        }
        // Ordered slave: the outcome itself is discarded (each variant
        // executes its own copy); the timestamp gates the turn.
        let deadline = Instant::now() + monitor.config().lockstep_timeout;
        self.try_run_turn(cx, call, ts.unwrap_or(0), deadline, req)
    }

    /// Ordered slave's turn wait, one poll at a time.
    fn try_run_turn(
        &mut self,
        cx: &R::Cx,
        call: Call,
        ts: u64,
        deadline: Instant,
        req: &SyscallRequest,
    ) -> Step {
        let monitor = R::monitor(cx);
        let (variant, thread) = (self.at.variant, self.at.thread);
        // A poisoned run or a quarantined lane must stop instead of
        // waiting out a turn that will never come (a quarantined lane's
        // clock never advances again).
        if monitor.has_diverged() || monitor.is_quarantined(variant) {
            return self.shut_down();
        }
        let clock = monitor.ordering_clock(variant, self.at.shard);
        if clock.try_turn(ts) {
            let outcome = monitor.execute_kernel(variant, thread, req);
            clock.advance();
            // The next timestamp may be another thread's turn, parked on
            // this shard like every other wait.
            monitor.lockstep().post(thread);
            monitor.lockstep().consume(self.key(call), variant);
            return Step::Done(Ok(outcome));
        }
        if Instant::now() >= deadline {
            // This variant's own threads never advanced its clock to the
            // master's timestamp: it is the one that strayed, so it is the
            // one the recovery policy drops.
            let report = DivergenceReport {
                kind: DivergenceKind::RendezvousTimeout {
                    arrived: vec![variant],
                },
                thread,
                sequence: call.seq,
                variant,
            };
            return Step::Done(Err(match monitor.fault(variant, variant, report) {
                ArrivalSettle::Fail(error) => error,
                _ => MonitorError::ShutDown,
            }));
        }
        self.state = State::AwaitTurn { ts, deadline, call };
        Step::Blocked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecoveryPolicy;
    use crate::mvee::Mvee;
    use mvee_kernel::syscall::Sysno;

    use std::io::Write;
    use std::sync::{Arc, Mutex};
    use std::time::Duration;

    use crate::frame::next_frame;
    use crate::remote::leader::{RemoteLeader, Wire};
    use crate::remote::transport::{pipe, Duplex, PipeWriter};
    use crate::remote::wire::WireRecord;

    #[test]
    fn a_victim_swept_mid_arrival_stops_at_dispatch_uncounted() {
        // One schedule, stepped by hand.  The victim's mismatching arrival
        // is still pending when the last survivor's deposit proves the
        // mismatch and quarantines it; the sweep takes the victim's key out
        // of the slot, so the victim's own poll then reads `Consistent`.
        // It must stop there: were it to carry on into the ordered tail it
        // would count a call it never runs (the survivors' counters would
        // no longer match a run launched without it).
        let mvee = Mvee::builder()
            .variants(3)
            .recovery(RecoveryPolicy::Quarantine { min_quorum: 2 })
            .manual_clock(true)
            .build();
        let monitor = mvee.monitor();
        let good = SyscallRequest::new(Sysno::Mprotect).with_int(4096);
        let bad = SyscallRequest::new(Sysno::Mprotect).with_int(666);
        let mut machines: Vec<CallMachine> =
            (0..3).map(|v| CallMachine::new(&**monitor, v, 0)).collect();

        assert!(matches!(machines[2].start(monitor, &bad), Step::Progress));
        assert!(matches!(machines[0].start(monitor, &good), Step::Progress));
        // The last arrival settles the mismatch, re-presents itself to the
        // reduced quorum and goes on to wait for the master's outcome.
        assert!(matches!(machines[1].start(monitor, &good), Step::Progress));
        assert_eq!(monitor.quarantined_variants(), vec![2]);

        assert!(matches!(
            machines[2].step(monitor, Some(&bad)),
            Step::Done(Err(MonitorError::ShutDown))
        ));
        for survivor in [0, 1] {
            assert!(matches!(
                machines[survivor].step(monitor, Some(&good)),
                Step::Done(Ok(_))
            ));
        }
        let stats = monitor.stats();
        assert_eq!((stats.lockstep_syscalls, stats.ordered_syscalls), (3, 2));
        assert!(!monitor.has_diverged());
        for machine in &mut machines {
            assert!(matches!(machine.close(monitor), Step::Done(Ok(_))));
        }
        assert_eq!(monitor.live_slots(), 0);
    }

    /// A write half whose bytes the test reads back.
    #[derive(Clone, Default)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(bytes);
            Ok(bytes.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Sink {
        /// The kinds of the records written so far, `Hello` skipped.
        fn written(&self) -> Vec<&'static str> {
            let bytes = self.0.lock().unwrap();
            let (mut kinds, mut offset) = (Vec::new(), 0);
            while let Some((body, end)) = next_frame(&bytes, offset).unwrap() {
                kinds.push(match WireRecord::decode(body).unwrap() {
                    WireRecord::Hello { .. } => "Hello",
                    WireRecord::Counts { .. } => "Counts",
                    WireRecord::Arrive { .. } => "Arrive",
                    WireRecord::Batch { .. } => "Batch",
                    WireRecord::Publish { .. } => "Publish",
                    other => panic!("the leader never sends {other:?}"),
                });
                offset = end;
            }
            kinds.split_off(1)
        }
    }

    /// A leader link whose follower is the test: frames land in a [`Sink`],
    /// and the test feeds the acks and verdicts.  The returned writer keeps
    /// the link's read half open; drop it before the link.
    fn fake_link() -> (Mvee, Arc<RemoteLeader>, Sink, PipeWriter) {
        let mvee = Mvee::builder()
            .variants(2)
            .batch(8)
            .lockstep_timeout(Duration::from_secs(60))
            .manual_clock(true)
            .build();
        let sink = Sink::default();
        let (rx, keep_open) = pipe();
        let link = RemoteLeader::connect(
            Arc::clone(mvee.monitor()),
            Arc::clone(mvee.agent()),
            Duplex::from_parts(Box::new(rx), Box::new(sink.clone())),
        );
        (mvee, link, sink, keep_open)
    }

    fn verdict(sequence: u64) -> WireRecord {
        WireRecord::Verdict {
            report: DivergenceReport {
                kind: DivergenceKind::SyscallMismatch {
                    master: Sysno::Write,
                    variant: Sysno::Write,
                },
                thread: 0,
                sequence,
                variant: 1,
            },
        }
    }

    #[test]
    fn a_wire_machine_stepped_by_hand_streams_and_settles_by_the_link() {
        // One thread steps the leader's machine; the link's acks and
        // verdicts are the test's.  Three deferred ordered calls settle at
        // once and hold their publishes; the synchronous write streams the
        // batch ahead of its arrival, each behind its counts, and stays
        // blocked until an ack passes its own frame.
        let (_mvee, link, sink, keep_open) = fake_link();
        let link = &*link;
        let mut machine: CallMachine<Wire> = CallMachine::new(link, 0, 0);
        let brk = SyscallRequest::new(Sysno::Brk).with_int(0);
        let write = SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"sync");
        for _ in 0..3 {
            assert!(matches!(machine.start(link, &brk), Step::Done(Ok(_))));
        }
        assert!(sink.written().is_empty(), "the publishes are held");
        assert!(matches!(machine.start(link, &write), Step::Progress));
        assert_eq!(
            sink.written(),
            ["Publish", "Publish", "Publish", "Counts", "Batch", "Counts", "Arrive"]
        );
        assert!(matches!(machine.step(link, Some(&write)), Step::Blocked));
        // The `Arrive` is frame 7 (the `Hello` is frame 0): an ack through
        // 7 does not cover it, one through 8 does.
        link.observe(WireRecord::Ack { through: 7 });
        assert!(matches!(machine.step(link, Some(&write)), Step::Blocked));
        link.observe(WireRecord::Ack { through: 8 });
        assert!(matches!(
            machine.step(link, Some(&write)),
            Step::Done(Ok(_))
        ));
        assert_eq!(sink.written()[7..], ["Publish", "Counts"]);

        // A verdict naming the waiting call is its divergence.
        assert!(matches!(machine.start(link, &write), Step::Progress));
        assert!(matches!(machine.step(link, Some(&write)), Step::Blocked));
        link.observe(verdict(4));
        assert!(matches!(
            machine.step(link, Some(&write)),
            Step::Done(Err(MonitorError::Diverged(report))) if report.sequence == 4
        ));
        assert!(matches!(
            machine.start(link, &brk),
            Step::Done(Err(MonitorError::ShutDown))
        ));
        drop(keep_open);

        // A verdict naming another call only shuts this one down.
        let (_mvee, link, _sink, keep_open) = fake_link();
        let link = &*link;
        let mut machine: CallMachine<Wire> = CallMachine::new(link, 0, 0);
        assert!(matches!(machine.start(link, &write), Step::Progress));
        link.observe(verdict(7));
        assert!(matches!(
            machine.step(link, Some(&write)),
            Step::Done(Err(MonitorError::ShutDown))
        ));
        drop(keep_open);
    }
}
