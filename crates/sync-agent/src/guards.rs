//! Spin guards, event counts and the adaptive waiting primitives used by the
//! agents.
//!
//! Two constraints shape this module.  First, the agents may not allocate
//! dynamically (§3.3 of the paper), so all guard state is a fixed-size array
//! sized at construction.  Second, the guards protect extremely short
//! critical sections (recording one sync op and executing one atomic
//! instruction), so waiting starts as a bounded spin — but a fixed
//! spin/yield loop collapses under oversubscription (more runnable threads
//! than cores): every spinning slave burns the time slice the thread it is
//! waiting for needs.  The [`Waiter`] therefore escalates
//! spin → exponential-backoff yield → park on an [`EventCount`] condvar.
//!
//! The spin phase only pays where a peer can run *while* the waiter spins.
//! A process that may use one CPU has no such peer: whatever the waiter
//! waits for moves only once the waiter gives the CPU up, so every spin
//! there is wasted.  [`Waiter::default`] therefore spins 0 iterations when
//! `available_parallelism()` is 1 and [`SPIN_BEFORE_YIELD`] otherwise — the
//! never-spin-on-a-uniprocessor rule of Go's `canSpin` and glibc's adaptive
//! mutex.  Explicit budgets ([`Waiter::new`], [`GuardTable::new`]) are kept
//! as given — among them the one pure spin/yield wait, whose spin is all
//! that spaces its yields (see [`Waiter::default`]).

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Yields performed (with exponential backoff) before the first park.
///
/// Parking is only worth its condvar round-trip for *long* waits (a peer
/// descheduled or far behind); short replay waits resolve within a few
/// yields even on an oversubscribed core.  The budget is sized so the yield
/// phase lasts roughly a scheduling quantum before the waiter gives the
/// core up for good.
const YIELDS_BEFORE_PARK: u32 = 64;

/// Upper bound on one parking episode.  Parked threads are woken explicitly
/// by [`EventCount::notify`] on every cursor advance and on poison; the
/// timeout is a belt-and-braces backstop so that even a lost wake-up (or a
/// waiter whose condition depends on state with no notifier) degrades to a
/// 1 ms poll instead of a deadlock.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// A condvar-backed event count: the parking target of the [`Waiter`].
///
/// The fast path costs the *notifier* one seq-cst fence plus one load when
/// nobody is parked (the same unlock-side cost `parking_lot`'s word lock
/// pays) — cheap enough to call on every ring-cursor advance and clock
/// tick.  Waiters register (`waiters`), re-check their
/// condition, and only then block, the classic futex-style handshake:
/// either the notifier observes the registration and wakes, or the
/// waiter's re-check observes the notifier's state change.  Both sides are
/// ordered by seq-cst fences.
#[derive(Debug, Default)]
pub struct EventCount {
    /// Bumped on every delivered notification; waiters snapshot it before
    /// the final condition check so a wake between check and park is caught.
    epoch: AtomicU64,
    /// Number of threads registered to park (about to block or blocked).
    waiters: AtomicU64,
    lock: Mutex<()>,
    condvar: Condvar,
}

impl EventCount {
    /// Creates an event count with no waiters.
    pub fn new() -> Self {
        EventCount::default()
    }

    /// Whether any thread is currently registered to park.
    pub fn has_waiters(&self) -> bool {
        self.waiters.load(Ordering::SeqCst) > 0
    }

    /// Wakes every parked waiter if there are any.  The no-waiter fast path
    /// is one atomic load; hot paths (cursor advances, clock ticks) call
    /// this unconditionally.
    #[inline]
    pub fn notify(&self) {
        // Pairs with the seq-cst fence in `park` (after the waiter
        // registers): either this load sees the registration, or the
        // waiter's post-fence condition re-check sees the state change the
        // caller made before notifying.
        fence(Ordering::SeqCst);
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.notify_slow();
    }

    /// Unconditional wake of every parked waiter (poison/shutdown path).
    pub fn notify_all(&self) {
        self.notify_slow();
    }

    #[cold]
    fn notify_slow(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
        // Acquiring the lock orders this notification after any waiter that
        // already re-checked its epoch under the lock but has not yet
        // blocked: such a waiter is in the condvar queue by the time the
        // lock is free, so `notify_all` cannot miss it.
        drop(self.lock.lock().unwrap_or_else(|e| e.into_inner()));
        self.condvar.notify_all();
    }

    /// One parking episode: blocks until notified, `PARK_TIMEOUT` elapses,
    /// or `cond` already holds.  Returns `true` when `cond` held on entry
    /// (no park happened).
    fn park(&self, cond: &mut impl FnMut() -> bool) -> bool {
        self.waiters.fetch_add(1, Ordering::SeqCst);
        // Pairs with the fence in `notify`; see there.
        fence(Ordering::SeqCst);
        let epoch = self.epoch.load(Ordering::SeqCst);
        if cond() {
            self.waiters.fetch_sub(1, Ordering::SeqCst);
            return true;
        }
        {
            let guard = self.lock.lock().unwrap_or_else(|e| e.into_inner());
            // A notification delivered between the condition check and the
            // lock acquisition bumped the epoch; skip the block and
            // re-evaluate.
            if self.epoch.load(Ordering::SeqCst) == epoch {
                let _ = self
                    .condvar
                    .wait_timeout(guard, PARK_TIMEOUT)
                    .unwrap_or_else(|e| e.into_inner());
            }
        }
        self.waiters.fetch_sub(1, Ordering::SeqCst);
        false
    }
}

/// Where the iterations of one wait went: the stall taxonomy the agents
/// surface through [`AgentStats`](crate::stats::AgentStats).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WaitTally {
    /// Busy-spin iterations (`spin_loop` hint).
    pub spins: u64,
    /// `yield_now` calls.
    pub yields: u64,
    /// Parking episodes on an [`EventCount`].
    pub parks: u64,
}

impl WaitTally {
    /// Total wait iterations of any kind.
    ///
    /// The components are **not** time-commensurable — one park lasts up to
    /// 1 ms while one spin is nanoseconds — so use this figure only as an
    /// episode count ("did we wait, and how many polls did it take");
    /// anything that weighs waits against each other should read the three
    /// components separately, as [`AgentStats`](crate::stats::AgentStats)
    /// does.
    pub fn total(&self) -> u64 {
        self.spins + self.yields + self.parks
    }

    /// Folds another tally into this one (an op that waited at several
    /// sites, e.g. a wall-of-clocks slave on publication, then its clock).
    pub fn merge(&mut self, other: WaitTally) {
        self.spins += other.spins;
        self.yields += other.yields;
        self.parks += other.parks;
    }

    /// Whether the wait did not succeed immediately.
    pub fn stalled(&self) -> bool {
        self.total() > 0
    }
}

/// The spin budget every configured waiter gets on a multi-CPU process
/// (the agents' through `AgentConfig::waiter`, the monitor's ring loops
/// through `MonitorConfig::ring_waiter`): busy-spin iterations before a
/// waiting thread starts yielding to the OS scheduler.  A process that may
/// use one CPU spins 0 instead (see [`spin_budget`]): no peer runs while it
/// spins.
pub const SPIN_BEFORE_YIELD: u32 = 64;

/// The default spin budget for a process that may use `cpus` CPUs: 0 on
/// one CPU, where the peer being waited for cannot move until the waiter
/// yields, and [`SPIN_BEFORE_YIELD`] otherwise.
pub fn spin_budget(cpus: usize) -> u32 {
    if cpus <= 1 {
        0
    } else {
        SPIN_BEFORE_YIELD
    }
}

/// [`spin_budget`] of this process's CPU count, read once.  A count the OS
/// cannot report keeps the multi-CPU budget.
fn default_spin_budget() -> u32 {
    static BUDGET: OnceLock<u32> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::thread::available_parallelism().map_or(SPIN_BEFORE_YIELD, |n| spin_budget(n.get()))
    })
}

/// A bounded waiter — its spin budget: spin, yield, then park.
///
/// Returns iteration tallies so callers can feed the agent statistics.
#[derive(Debug, Clone, Copy)]
pub struct Waiter {
    spin_before_yield: u32,
}

impl Default for Waiter {
    /// The process's [`spin_budget`]: [`SPIN_BEFORE_YIELD`] where another
    /// CPU can run the peer, 0 on a one-CPU process (read once, at the
    /// first call — confine the process before it).  Meant for
    /// [`wait_until_event`](Self::wait_until_event), whose park phase
    /// bounds the yields; a pure [`wait_until`](Self::wait_until) loop
    /// has nothing but the spin to space its yields, so the one in
    /// production (a blocking port's ordering-clock turn wait) names
    /// its budget explicitly.
    fn default() -> Self {
        Waiter::new(default_spin_budget())
    }
}

impl Waiter {
    /// Creates a waiter with the given spin budget.
    pub const fn new(spin_before_yield: u32) -> Self {
        Waiter { spin_before_yield }
    }

    /// Spins until `cond` returns `true`; returns the number of wait
    /// iterations (0 means the condition held immediately).  Pure
    /// spin/yield — for waits with no event count to park on.
    pub fn wait_until(&self, mut cond: impl FnMut() -> bool) -> u64 {
        let mut iterations = 0u64;
        let mut since_yield = 0u32;
        while !cond() {
            iterations += 1;
            since_yield += 1;
            if since_yield >= self.spin_before_yield {
                std::thread::yield_now();
                since_yield = 0;
            } else {
                std::hint::spin_loop();
            }
        }
        iterations
    }

    /// Waits until `cond` returns `true`, escalating through three phases;
    /// wake-ups arrive through `events`.
    ///
    /// Spins `spin_before_yield` iterations, yields with exponential
    /// backoff (1, 2, 4, … consecutive yields up to `YIELDS_BEFORE_PARK`
    /// total), then parks on `events` until a notification re-checks the
    /// condition.  Parking is safe on every target because every
    /// ring-cursor advance, clock tick, guard release and poison notifies
    /// unconditionally.
    pub fn wait_until_event(
        &self,
        events: &EventCount,
        mut cond: impl FnMut() -> bool,
    ) -> WaitTally {
        let mut tally = WaitTally::default();
        if cond() {
            return tally;
        }
        // Phase 1: bounded spin.
        for _ in 0..self.spin_before_yield {
            std::hint::spin_loop();
            tally.spins += 1;
            if cond() {
                return tally;
            }
        }
        // Phase 2: exponential-backoff yield (1, 2, 4, … consecutive
        // yields per round, the final round truncated to the budget).
        let mut burst = 1u32;
        while tally.yields < u64::from(YIELDS_BEFORE_PARK) {
            let remaining = u64::from(YIELDS_BEFORE_PARK) - tally.yields;
            for _ in 0..u64::from(burst).min(remaining) {
                std::thread::yield_now();
                tally.yields += 1;
                if cond() {
                    return tally;
                }
            }
            burst = burst.saturating_mul(2);
        }
        // Phase 3: park until notified (or the backstop timeout).
        loop {
            if events.park(&mut cond) {
                return tally;
            }
            tally.parks += 1;
            if cond() {
                return tally;
            }
        }
    }
}

/// A fixed-size table of spin guards indexed by a hash bucket.
///
/// The master-side agents use one bucket per synchronization-variable hash to
/// make "record the op, then execute it" atomic with respect to other master
/// threads touching the *same* variable.  Distinct variables that hash to the
/// same bucket are falsely serialized — the exact phenomenon the paper
/// accepts for its clock wall ("the WoC agent is bound to assign some
/// non-conflicting memory locations to the same logical clock", §4.5).
///
/// Acquisition is test-and-test-and-set: contended waiters poll with a
/// relaxed load and only attempt the compare-exchange once the guard looks
/// free, so a contended bucket's cache line stays shared instead of
/// ping-ponging between writers.  A waiter that spins and yields out parks
/// on the table's [`EventCount`]; `release` posts it.
#[derive(Debug)]
pub struct GuardTable {
    guards: Vec<AtomicBool>,
    waiter: Waiter,
    events: EventCount,
}

impl GuardTable {
    /// Creates a table with `buckets` guards and a waiter of the given spin
    /// budget.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn new(buckets: usize, spin_before_yield: u32) -> Self {
        Self::with_waiter(buckets, Waiter::new(spin_before_yield))
    }

    /// Creates a table with `buckets` guards waiting with `waiter`.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` is zero.
    pub fn with_waiter(buckets: usize, waiter: Waiter) -> Self {
        assert!(buckets > 0, "guard table needs at least one bucket");
        GuardTable {
            guards: (0..buckets).map(|_| AtomicBool::new(false)).collect(),
            waiter,
            events: EventCount::new(),
        }
    }

    /// Number of buckets.
    pub fn buckets(&self) -> usize {
        self.guards.len()
    }

    /// Maps an address to its bucket.
    ///
    /// The address is first aligned down to 8 bytes: the paper notes that a
    /// single `CMPXCHG8B` can modify two adjacent 32-bit sync variables, so
    /// variables sharing a 64-bit word must share a bucket (§4.5).
    pub fn bucket_for(&self, addr: u64) -> usize {
        let aligned = addr & !7;
        (fnv1a_u64(aligned) % self.guards.len() as u64) as usize
    }

    /// The table's parking target: posted on every release.
    pub fn events(&self) -> &EventCount {
        &self.events
    }

    /// Takes the guard for `bucket` if it is free.  Test-and-test-and-set:
    /// a guard that looks held costs one read-only load, so pollers of a
    /// contended bucket keep its cache line shared.
    pub fn try_acquire(&self, bucket: usize) -> bool {
        let guard = &self.guards[bucket];
        !guard.load(Ordering::Relaxed)
            && guard
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Acquires the guard for `bucket`, waiting until it is free.
    /// Returns the wait's tally, broken down by phase (all-zero on the
    /// uncontended fast path) — spins, yields and parks are kept separate
    /// because they are not time-commensurable (see [`WaitTally::total`]).
    pub fn acquire(&self, bucket: usize) -> WaitTally {
        // Uncontended fast path: one compare-exchange.
        if self.guards[bucket]
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            return WaitTally::default();
        }
        self.waiter
            .wait_until_event(&self.events, || self.try_acquire(bucket))
    }

    /// Releases the guard for `bucket`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the guard was not held (a use-after-release
    /// bug in the caller).
    pub fn release(&self, bucket: usize) {
        let was = self.guards[bucket].swap(false, Ordering::Release);
        debug_assert!(was, "released a guard that was not held");
        self.events.notify();
    }
}

/// FNV-1a over the little-endian bytes of a `u64`.
pub fn fnv1a_u64(value: u64) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for b in value.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn waiter_returns_zero_when_condition_already_true() {
        let w = Waiter::new(8);
        assert_eq!(w.wait_until(|| true), 0);
    }

    #[test]
    fn waiter_counts_iterations() {
        let w = Waiter::new(8);
        let mut calls = 0;
        let n = w.wait_until(|| {
            calls += 1;
            calls > 5
        });
        assert_eq!(n, 5);
    }

    #[test]
    fn zero_spin_budget_yields_every_iteration_without_hanging() {
        let w = Waiter::new(0);
        let mut calls = 0;
        assert_eq!(
            w.wait_until(|| {
                calls += 1;
                calls > 2
            }),
            2
        );
    }

    #[test]
    fn spin_budget_is_zero_only_on_one_cpu() {
        assert_eq!(spin_budget(1), 0);
        assert_eq!(spin_budget(2), SPIN_BEFORE_YIELD);
        assert_eq!(spin_budget(64), SPIN_BEFORE_YIELD);
    }

    /// The tally of a wait whose condition fails `stall` polls, then holds.
    fn stalled_wait(waiter: Waiter, stall: u32) -> WaitTally {
        let events = EventCount::new();
        let mut polls = 0;
        waiter.wait_until_event(&events, || {
            polls += 1;
            polls > stall
        })
    }

    #[test]
    fn default_waiter_spins_only_where_a_peer_can_run() {
        // Outlasts every spin phase, so the tally shows the whole budget.
        let stall = SPIN_BEFORE_YIELD + 4;
        let one_cpu = std::thread::available_parallelism().is_ok_and(|n| n.get() == 1);
        let expected = if one_cpu {
            0
        } else {
            u64::from(SPIN_BEFORE_YIELD)
        };
        let tally = stalled_wait(Waiter::default(), stall);
        assert_eq!(tally.spins, expected, "one CPU: {one_cpu}, {tally:?}");
        assert!(tally.yields > 0, "{tally:?}");
        // An explicit budget is kept as given either way.
        assert_eq!(stalled_wait(Waiter::new(8), stall).spins, 8);
    }

    #[test]
    fn adaptive_wait_escalates_to_parking_and_wakes_on_notify() {
        let events = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (e2, f2) = (Arc::clone(&events), Arc::clone(&flag));
        let handle = std::thread::spawn(move || {
            let w = Waiter::new(4);
            w.wait_until_event(&e2, || f2.load(Ordering::SeqCst))
        });
        std::thread::sleep(Duration::from_millis(30));
        flag.store(true, Ordering::SeqCst);
        events.notify_all();
        let tally = handle.join().unwrap();
        assert!(tally.stalled());
        assert!(
            tally.parks > 0,
            "a 30 ms wait must have escalated past spinning: {tally:?}"
        );
    }

    #[test]
    fn adaptive_wait_returns_immediately_on_a_true_condition() {
        let events = EventCount::new();
        let w = Waiter::new(8);
        let tally = w.wait_until_event(&events, || true);
        assert_eq!(tally, WaitTally::default());
        assert!(!tally.stalled());
    }

    #[test]
    fn notify_without_waiters_is_cheap_and_safe() {
        let events = EventCount::new();
        assert!(!events.has_waiters());
        events.notify();
        events.notify_all();
    }

    #[test]
    fn park_timeout_backstops_a_lost_wakeup() {
        // No notifier at all: the flag flips silently.  The park timeout
        // must still observe it promptly.
        let events = Arc::new(EventCount::new());
        let flag = Arc::new(AtomicBool::new(false));
        let (e2, f2) = (Arc::clone(&events), Arc::clone(&flag));
        let handle = std::thread::spawn(move || {
            let w = Waiter::new(1);
            w.wait_until_event(&e2, || f2.load(Ordering::SeqCst))
        });
        std::thread::sleep(Duration::from_millis(20));
        flag.store(true, Ordering::SeqCst);
        let tally = handle.join().unwrap();
        assert!(tally.parks > 0);
    }

    #[test]
    fn wait_tally_totals() {
        let t = WaitTally {
            spins: 3,
            yields: 2,
            parks: 1,
        };
        assert_eq!(t.total(), 6);
        assert!(t.stalled());
    }

    #[test]
    fn bucket_for_aligns_to_eight_bytes() {
        let t = GuardTable::new(64, 8);
        // Two "adjacent 32-bit sync variables" in the same 64-bit word must
        // map to the same bucket (the CMPXCHG8B case from §4.5).
        assert_eq!(t.bucket_for(0x1000), t.bucket_for(0x1004));
        // A variable in the next word may map elsewhere.
        let same = t.bucket_for(0x1000) == t.bucket_for(0x1008);
        let different_somewhere =
            (0..64u64).any(|i| t.bucket_for(0x1000) != t.bucket_for(0x1000 + 8 * (i + 1)));
        assert!(different_somewhere || same);
    }

    #[test]
    fn guard_acquire_release_is_exclusive() {
        let t = Arc::new(GuardTable::new(4, 8));
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let t = Arc::clone(&t);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    let b = t.bucket_for(0x2000);
                    t.acquire(b);
                    // Non-atomic-looking read-modify-write protected by the guard.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    t.release(b);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4000);
    }

    #[test]
    fn distinct_buckets_do_not_exclude_each_other() {
        let t = GuardTable::new(16, 8);
        let b0 = 0;
        let b1 = 1;
        t.acquire(b0);
        // Acquiring a different bucket must not wait at all.
        assert!(!t.acquire(b1).stalled());
        t.release(b0);
        t.release(b1);
    }

    #[test]
    fn fnv_is_deterministic() {
        assert_eq!(fnv1a_u64(42), fnv1a_u64(42));
        assert_ne!(fnv1a_u64(42), fnv1a_u64(43));
    }

    #[test]
    #[should_panic(expected = "at least one bucket")]
    fn zero_buckets_panics() {
        let _ = GuardTable::new(0, 8);
    }
}
