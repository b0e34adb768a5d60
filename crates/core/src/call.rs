//! The per-call protocol: one non-blocking state machine, two drivers.
//!
//! The paper's monitor does one thing per system call — compare in
//! lockstep, then replicate the master's result or replay its order — and
//! [`CallMachine`] is the only place that protocol is written down.  It
//! owns what one (variant, thread) binding needs between calls (shard
//! binding, sequence counter, deferred-comparison queue) and the position
//! of the operation in flight, and it never sleeps: every entry point
//! returns a [`Step`], and a wait is a state the next
//! [`step`](CallMachine::step) re-examines through the lockstep table's
//! `try_*` / `poll_*` face and
//! [`SyscallOrderingClock::try_turn`](crate::ordering::SyscallOrderingClock::try_turn).
//! Deadlines, the quarantine bail-outs and master fail-over are all inside
//! `step`, so a driver only decides *how to wait* for the next one:
//!
//! * a blocking [`ThreadPort`](crate::port::ThreadPort) steps on the
//!   variant thread's own stack and, once a step reports
//!   [`Step::Blocked`], sleeps with the next step as its wake condition;
//! * a poller ([`crate::poller`]) holds one machine per async port and
//!   round-robins over them, parking only when every machine is blocked.
//!
//! The request of the call in flight stays **borrowed** from the driver
//! (the variant's own argument on the blocking path, the descriptor popped
//! from the submission ring on the polling one): the machine stores a
//! sequence number and a disposition, never a request.
//!
//! The quarantine-retry loops — a verdict superseded by a quarantine is
//! re-presented with a fresh deadline — exist once, as [`settle_arrival`]
//! and [`settle_batch`]; the remote follower's pump calls the same two.

use std::time::Instant;

use mvee_kernel::syscall::{ComparisonKey, SyscallOutcome, SyscallRequest};

use crate::divergence::{DivergenceKind, DivergenceReport};
use crate::lockstep::{
    ArrivalResult, ArrivalToken, BatchArrival, BatchToken, OutcomeToken, SlotKey, TryArrive,
    TryBatch, TryOutcome,
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

/// Settles a synchronous arrival verdict through the recovery policy,
/// re-depositing with a fresh deadline whenever a quarantine superseded it.
/// Never blocks: `Ok` is the settled outcome, `Err` hands back the token of
/// a re-deposit that is still pending (the table's `poll_*` convention).
/// `cmp` rebuilds the caller's comparison key for the rare re-deposit.
pub(crate) fn settle_arrival(
    monitor: &Monitor,
    variant: usize,
    thread: usize,
    seq: u64,
    mut result: ArrivalResult,
    cmp: impl Fn() -> ComparisonKey,
) -> Result<Result<(), MonitorError>, ArrivalToken> {
    loop {
        match monitor.settle_sync_arrival(result, variant, thread, seq) {
            ArrivalSettle::Done => return Ok(Ok(())),
            ArrivalSettle::Fail(error) => return Ok(Err(error)),
            ArrivalSettle::Retry => {
                let timeout = monitor.config().lockstep_timeout;
                match monitor
                    .lockstep()
                    .try_rearrive((thread, seq), variant, cmp(), timeout)
                {
                    TryArrive::Ready(next) => result = next,
                    TryArrive::Pending(token) => return Err(token),
                }
            }
        }
    }
}

/// The batched twin of [`settle_arrival`]: settles a flushed batch's
/// verdicts and re-presents only the keys a quarantine left unsettled (the
/// settled ones were consumed, and re-depositing them could resurrect
/// reclaimed slots the peers will never revisit).  On return `batch` holds
/// the keys still in play — the ones a pending token stands for.
pub(crate) fn settle_batch(
    monitor: &Monitor,
    variant: usize,
    thread: usize,
    batch: &mut Vec<BatchArrival>,
    mut results: Vec<ArrivalResult>,
) -> Result<Result<(), MonitorError>, BatchToken> {
    loop {
        match monitor.settle_batch_results(variant, thread, batch, results) {
            BatchSettle::Done(outcome) => return Ok(outcome),
            BatchSettle::Retry(indices) => {
                *batch = indices.into_iter().map(|i| batch[i].clone()).collect();
                let timeout = monitor.config().lockstep_timeout;
                match monitor
                    .lockstep()
                    .try_rearrive_batch(variant, batch, timeout)
                {
                    TryBatch::Ready(redone) => results = redone,
                    TryBatch::Pending(token) => return Err(token),
                }
            }
        }
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
enum State {
    /// Between operations.
    Idle,
    /// A deferred-comparison batch is deposited and waiting for peers.
    Flushing {
        token: BatchToken,
        batch: Vec<BatchArrival>,
        next: AfterFlush,
    },
    /// A synchronous lockstep arrival is deposited and waiting for peers.
    AwaitArrival { token: ArrivalToken, call: Call },
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
pub(crate) struct CallMachine {
    variant: usize,
    thread: usize,
    /// The shard (rendezvous lock, ordering clock, stat lane) this thread
    /// is bound to, resolved through the placement policy at acquisition.
    shard: usize,
    /// Cached comparison batch size (1 = no deferral).
    batch: usize,
    /// Next per-thread sequence number; this machine is the only writer.
    seq: u64,
    /// Deferred comparisons awaiting the next flush.
    pending: Vec<BatchArrival>,
    state: State,
}

/// The request of the call in flight; only flush barriers and closes are
/// stepped without one.
fn in_flight(req: Option<&SyscallRequest>) -> &SyscallRequest {
    req.expect("a call in flight is stepped with its request")
}

impl CallMachine {
    /// Binds a machine to (variant, thread), continuing the thread's
    /// sequence stream where the previous binding left it.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or if a live binding already owns
    /// this (variant, thread) — on the caller's stack, so the panic
    /// surfaces where the port is created.
    pub(crate) fn new(monitor: &Monitor, variant: usize, thread: usize) -> Self {
        let (seq, shard) = monitor.acquire_port(variant, thread);
        let batch = monitor.config().batch;
        CallMachine {
            variant,
            thread,
            shard,
            batch,
            seq,
            pending: Vec::with_capacity(batch),
            state: State::Idle,
        }
    }

    pub(crate) fn variant(&self) -> usize {
        self.variant
    }

    pub(crate) fn thread(&self) -> usize {
        self.thread
    }

    pub(crate) fn shard(&self) -> usize {
        self.shard
    }

    /// Deferred comparisons queued, awaiting the next flush.
    pub(crate) fn pending_comparisons(&self) -> usize {
        self.pending.len()
    }

    /// The deadline of the current wait, if any — a poller's park
    /// condition reads it so timeout verdicts fire without an external
    /// wake.
    pub(crate) fn wait_deadline(&self) -> Option<Instant> {
        match &self.state {
            State::Idle => None,
            State::Flushing { token, .. } => Some(token.deadline()),
            State::AwaitArrival { token, .. } => Some(token.deadline()),
            State::AwaitOutcome { token, .. } => Some(token.deadline()),
            State::AwaitTurn { deadline, .. } => Some(*deadline),
        }
    }

    /// Whether the current wait is an ordered slave's turn wait: the one
    /// wait no event count is posted for (clock advances are silent), so a
    /// driver must poll it instead of parking on the shard.
    pub(crate) fn awaits_turn(&self) -> bool {
        matches!(self.state, State::AwaitTurn { .. })
    }

    /// Whether a turn wait could move right now (the turn came, or one of
    /// its bail-outs fired); `false` outside a turn wait.
    pub(crate) fn turn_ready(&self, monitor: &Monitor) -> bool {
        match &self.state {
            State::AwaitTurn { ts, .. } => {
                monitor.has_diverged()
                    || monitor.is_quarantined(self.variant)
                    || monitor
                        .ordering_clock(self.variant, self.shard)
                        .try_turn(*ts)
            }
            _ => false,
        }
    }

    /// Starts a system call: the gateway prologue, then the comparison
    /// stage up to its first wait.
    pub(crate) fn start(&mut self, monitor: &Monitor, req: &SyscallRequest) -> Step {
        debug_assert!(matches!(self.state, State::Idle));
        match monitor.gate_and_count(self.variant, self.thread, self.shard, req) {
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
        let disposition = monitor.config().policy.disposition(req.no);
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
            return self.begin_flush(monitor, AfterFlush::ThenCall(call), Some(req));
        }
        self.compare(monitor, call, req)
    }

    /// Starts a flush barrier: deposits the deferred comparisons, if any,
    /// as one batched rendezvous block.
    pub(crate) fn flush(&mut self, monitor: &Monitor) -> Step {
        debug_assert!(matches!(self.state, State::Idle));
        self.begin_flush(monitor, AfterFlush::Barrier, None)
    }

    /// Starts the close: flushes trailing deferred comparisons — a binding
    /// handed back mid-run must not let them go uncompared — or drops them
    /// if the MVEE is poisoned (the table would only answer `Poisoned`),
    /// then hands the sequence counter back and releases the binding.  A
    /// close-time flush failure has already recorded the divergence and
    /// has nowhere to be reported; the next monitored call returns
    /// `ShutDown`.
    pub(crate) fn close(&mut self, monitor: &Monitor) -> Step {
        if monitor.has_diverged() {
            self.pending.clear();
        }
        self.begin_flush(monitor, AfterFlush::ThenClose, None)
    }

    /// Advances the operation in flight by one non-blocking step.  `req`
    /// is the request [`start`](Self::start) was given (`None` for a flush
    /// or close).
    pub(crate) fn step(&mut self, monitor: &Monitor, req: Option<&SyscallRequest>) -> Step {
        match std::mem::replace(&mut self.state, State::Idle) {
            State::Idle => unreachable!("stepped with no operation in flight"),
            State::Flushing { token, batch, next } => match monitor.lockstep().poll_batch(token) {
                Ok(results) => self.settle_flush(monitor, batch, results, next, req),
                Err(token) => {
                    self.state = State::Flushing { token, batch, next };
                    Step::Blocked
                }
            },
            State::AwaitArrival { token, call } => match monitor.lockstep().poll_arrival(token) {
                Ok(result) => self.settle_call_arrival(monitor, result, call, in_flight(req)),
                Err(token) => {
                    self.state = State::AwaitArrival { token, call };
                    Step::Blocked
                }
            },
            State::AwaitOutcome { token, call } => {
                if monitor.is_quarantined(self.variant) {
                    // The publisher's slot may already be consumed and
                    // reclaimed by the survivors; a quarantined lane must
                    // terminate, not wait out the deadline (outcome tokens
                    // hold no waiter registration to release).
                    return self.shut_down();
                }
                if monitor.master_variant() == self.variant {
                    // Mastership failed over to this lane mid-wait: publish
                    // in the dead publisher's stead instead of waiting for
                    // an outcome that will never come.
                    return self.master_publish(monitor, call, in_flight(req));
                }
                match monitor.lockstep().poll_outcome(token) {
                    Ok(resolved) => self.finish_wait(monitor, call, resolved, in_flight(req)),
                    Err(token) => {
                        self.state = State::AwaitOutcome { token, call };
                        Step::Blocked
                    }
                }
            }
            State::AwaitTurn { ts, deadline, call } => {
                self.try_run_turn(monitor, call, ts, deadline, in_flight(req))
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
        (self.thread, call.seq)
    }

    /// The comparison stage, entered directly or after a pre-flush.
    fn compare(&mut self, monitor: &Monitor, call: Call, req: &SyscallRequest) -> Step {
        if !call.disposition.lockstep {
            return self.dispatch(monitor, call, req);
        }
        monitor.count_lockstep(self.shard);
        if self.batch > 1 && call.disposition.defer_compare {
            monitor.count_batched(self.shard);
            self.pending.push(BatchArrival {
                key: (self.thread, call.seq | DEFERRED_SEQ_BIT),
                cmp: req.comparison_key(),
            });
            // A divergence recorded elsewhere between the entry gate and
            // this push means the deferred comparison will never be
            // resolved, so the call must not return `Ok`: drop the queue
            // and shut down.
            if monitor.has_diverged() {
                return self.shut_down();
            }
            if self.pending.len() >= self.batch {
                return self.begin_flush(monitor, AfterFlush::ThenDispatch(call), Some(req));
            }
            return self.dispatch(monitor, call, req);
        }
        let timeout = monitor.config().lockstep_timeout;
        match monitor.lockstep().try_arrive(
            self.key(call),
            self.variant,
            req.comparison_key(),
            timeout,
        ) {
            TryArrive::Ready(result) => self.settle_call_arrival(monitor, result, call, req),
            TryArrive::Pending(token) => {
                // The deposit itself is progress: a peer may resolve on it
                // right now.
                self.state = State::AwaitArrival { token, call };
                Step::Progress
            }
        }
    }

    fn settle_call_arrival(
        &mut self,
        monitor: &Monitor,
        result: ArrivalResult,
        call: Call,
        req: &SyscallRequest,
    ) -> Step {
        let cmp = || req.comparison_key();
        match settle_arrival(monitor, self.variant, self.thread, call.seq, result, cmp) {
            Ok(Ok(())) => self.dispatch(monitor, call, req),
            Ok(Err(error)) => Step::Done(Err(error)),
            Err(token) => {
                self.state = State::AwaitArrival { token, call };
                Step::Progress
            }
        }
    }

    /// Deposits the pending batch, or resolves `next` immediately when
    /// there is nothing to flush (an empty flush counts nothing).
    fn begin_flush(
        &mut self,
        monitor: &Monitor,
        next: AfterFlush,
        req: Option<&SyscallRequest>,
    ) -> Step {
        let batch = std::mem::take(&mut self.pending);
        if batch.is_empty() {
            return self.after_flush(monitor, Ok(()), next, req);
        }
        monitor.count_batch_flush(self.shard);
        let timeout = monitor.config().lockstep_timeout;
        match monitor
            .lockstep()
            .try_arrive_batch(self.variant, &batch, timeout)
        {
            TryBatch::Ready(results) => self.settle_flush(monitor, batch, results, next, req),
            TryBatch::Pending(token) => {
                self.state = State::Flushing { token, batch, next };
                Step::Progress
            }
        }
    }

    fn settle_flush(
        &mut self,
        monitor: &Monitor,
        mut batch: Vec<BatchArrival>,
        results: Vec<ArrivalResult>,
        next: AfterFlush,
        req: Option<&SyscallRequest>,
    ) -> Step {
        match settle_batch(monitor, self.variant, self.thread, &mut batch, results) {
            Ok(flushed) => self.after_flush(monitor, flushed, next, req),
            Err(token) => {
                self.state = State::Flushing { token, batch, next };
                Step::Progress
            }
        }
    }

    fn after_flush(
        &mut self,
        monitor: &Monitor,
        flushed: Result<(), MonitorError>,
        next: AfterFlush,
        req: Option<&SyscallRequest>,
    ) -> Step {
        match (next, flushed) {
            (AfterFlush::ThenCall(call), Ok(())) => self.compare(monitor, call, in_flight(req)),
            (AfterFlush::ThenDispatch(call), Ok(())) => {
                self.dispatch(monitor, call, in_flight(req))
            }
            (AfterFlush::ThenClose, _) => {
                monitor.release_port(self.variant, self.thread, self.seq);
                Step::Done(Ok(SyscallOutcome::ok(0)))
            }
            (_, flushed) => Step::Done(flushed.map(|()| SyscallOutcome::ok(0))),
        }
    }

    /// The gateway tail after any lockstep comparison has been resolved:
    /// replicate, order, or execute directly.
    fn dispatch(&mut self, monitor: &Monitor, call: Call, req: &SyscallRequest) -> Step {
        if monitor.is_quarantined(self.variant) {
            // The comparison may have settled Consistent *because* a
            // quarantine swept this variant's key out of the slot; its
            // in-flight call must stop here — uncounted — rather than chase
            // outcome publications the survivors no longer hold for it.
            return self.shut_down();
        }
        if call.disposition.replicate {
            monitor.count_replicated(self.shard);
        } else if call.disposition.ordered {
            monitor.count_ordered(self.shard);
        } else {
            // Neither replicated nor ordered: the variant executes against
            // its own kernel process directly (sched_yield, gettid-style
            // queries that happen to differ, exit of a single thread, ...).
            monitor.lockstep().consume(self.key(call), self.variant);
            return Step::Done(Ok(monitor.execute_kernel(self.variant, self.thread, req)));
        }
        if self.variant == monitor.master_variant() {
            self.master_publish(monitor, call, req)
        } else {
            self.await_outcome(monitor, call, req)
        }
    }

    /// Master tail of a replicated/ordered call: execute once and publish
    /// the outcome (with the timestamp claimed on this thread group's
    /// shard clock for ordered calls, so the slaves can replay the
    /// cross-thread order).  The master role follows the quorum — the
    /// lowest live variant — so after a quarantine a surviving slave can
    /// land here mid-call.
    fn master_publish(&mut self, monitor: &Monitor, call: Call, req: &SyscallRequest) -> Step {
        let ts = call.disposition.ordered.then(|| {
            monitor
                .ordering_clock(self.variant, self.shard)
                .claim_timestamp()
        });
        let key = self.key(call);
        let outcome = monitor.execute_kernel(self.variant, self.thread, req);
        monitor.lockstep().publish_outcome(key, outcome.clone(), ts);
        monitor.lockstep().consume(key, self.variant);
        Step::Done(Ok(outcome))
    }

    /// Slave side of replicate/order: look for the master's published
    /// outcome without sleeping.
    fn await_outcome(&mut self, monitor: &Monitor, call: Call, req: &SyscallRequest) -> Step {
        match monitor
            .lockstep()
            .try_wait_outcome(self.key(call), monitor.config().lockstep_timeout)
        {
            TryOutcome::Ready(resolved) => self.finish_wait(monitor, call, resolved, req),
            TryOutcome::Pending(token) => {
                self.state = State::AwaitOutcome { token, call };
                Step::Progress
            }
        }
    }

    /// An outcome wait resolved, timed out or was poisoned.
    fn finish_wait(
        &mut self,
        monitor: &Monitor,
        call: Call,
        resolved: Option<(SyscallOutcome, Option<u64>)>,
        req: &SyscallRequest,
    ) -> Step {
        let key = self.key(call);
        let Some((outcome, ts)) = resolved else {
            if monitor.has_diverged() {
                return self.shut_down();
            }
            let master = monitor.master_variant();
            if master == self.variant {
                // Mastership already failed over to this lane: publish
                // rather than indict (blaming here would name *itself*).
                return self.master_publish(monitor, call, req);
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
                thread: self.thread,
                sequence: call.seq,
                variant: self.variant,
            };
            return match monitor.fault(self.variant, master, report) {
                ArrivalSettle::Fail(error) => Step::Done(Err(error)),
                _ if monitor.master_variant() == self.variant => {
                    self.master_publish(monitor, call, req)
                }
                _ => self.await_outcome(monitor, call, req),
            };
        };
        if call.disposition.replicate {
            monitor.lockstep().consume(key, self.variant);
            return Step::Done(Ok(outcome));
        }
        // Ordered slave: the outcome itself is discarded (each variant
        // executes its own copy); the timestamp gates the turn.
        let deadline = Instant::now() + monitor.config().lockstep_timeout;
        self.try_run_turn(monitor, call, ts.unwrap_or(0), deadline, req)
    }

    /// Ordered slave's turn wait, one poll at a time.
    fn try_run_turn(
        &mut self,
        monitor: &Monitor,
        call: Call,
        ts: u64,
        deadline: Instant,
        req: &SyscallRequest,
    ) -> Step {
        // A poisoned run or a quarantined lane must stop instead of
        // spinning out a turn that will never come (a quarantined lane's
        // clock never advances again).
        if monitor.has_diverged() || monitor.is_quarantined(self.variant) {
            return self.shut_down();
        }
        let clock = monitor.ordering_clock(self.variant, self.shard);
        if clock.try_turn(ts) {
            let outcome = monitor.execute_kernel(self.variant, self.thread, req);
            clock.advance();
            monitor.lockstep().consume(self.key(call), self.variant);
            return Step::Done(Ok(outcome));
        }
        if Instant::now() >= deadline {
            // This variant's own threads never advanced its clock to the
            // master's timestamp: it is the one that strayed, so it is the
            // one the recovery policy drops.
            let report = DivergenceReport {
                kind: DivergenceKind::RendezvousTimeout {
                    arrived: vec![self.variant],
                },
                thread: self.thread,
                sequence: call.seq,
                variant: self.variant,
            };
            return Step::Done(Err(
                match monitor.fault(self.variant, self.variant, report) {
                    ArrivalSettle::Fail(error) => error,
                    _ => MonitorError::ShutDown,
                },
            ));
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
            (0..3).map(|v| CallMachine::new(monitor, v, 0)).collect();

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
}
