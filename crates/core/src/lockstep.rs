//! The sharded lockstep rendezvous and result-replication table.
//!
//! Every monitored call of a variant thread maps to a *slot*, keyed by the
//! logical thread index and the thread's per-thread call sequence number.
//! The slot is where the monitor implements the two cross-variant
//! interactions the paper describes:
//!
//! * **Lockstep comparison** — under a lockstep policy, no variant may
//!   proceed past the call until all variants have arrived at the same slot
//!   with an equivalent call ([`LockstepTable::arrive`]).
//! * **Result replication** — for I/O calls the master executes the call once
//!   and publishes the outcome into the slot
//!   ([`LockstepTable::publish_outcome`]); slave variants block until the
//!   outcome is available ([`LockstepTable::wait_outcome`]).
//!
//! # Sharding
//!
//! A slot is only ever touched by the copies of one logical thread across the
//! variants (the key's thread index is assigned identically in every
//! variant).  The table exploits this: slots are partitioned by logical
//! thread index into [`LockstepTable::shard_count`] independent *shards*,
//! each with its own mutex-protected map and its own [`EventCount`].
//! Threads whose indices fall into different shards never contend on the
//! same lock, which is what lets the monitor scale to many-variant (8–16),
//! many-thread runs instead of funnelling every compared call through one
//! global lock.  `shards = 1` reproduces the original single-table behaviour
//! exactly and is kept for apples-to-apples ablations (`ablation_sharding`
//! bench).
//!
//! A shard's map hashes a key with one multiply-xorshift instead of the
//! standard library's SipHash, which would run several times per compared
//! call (each deposit, poll and consume looks the slot up).  SipHash
//! defends a map against keys chosen to collide; no variant chooses a key
//! here.  In-process, the monitor assigns both halves: the logical thread
//! index and the per-thread sequence number.  The remote follower deposits
//! keys it reads off the leader's stream, so there the stream is trusted
//! for liveness: a faulty leader that sends colliding keys slows the
//! follower's shard, which it can already do by withholding or flooding
//! frames.  The follower refuses a malformed batch at ingest, but it does
//! not police which keys a well-formed stream names.  The mix folds
//! [`DEFERRED_SEQ_BIT`](crate::monitor::DEFERRED_SEQ_BIT) into the low
//! bits, so a deferred key and the synchronous key with the same count do
//! not share a bucket even in a small map.
//!
//! # One deposit → poll core
//!
//! Every wait has exactly one implementation, the non-blocking one: `try_*`
//! deposits under the shard lock and returns `Ready` or a `Pending` token
//! whose deadline is fixed at deposit time; `poll_*` re-examines a token
//! without sleeping and is the only place a verdict (`Consistent`,
//! `Mismatch`, `Timeout(arrived)`, `Poisoned`) is computed.  The per-call
//! protocol (`crate::call`) is written against that face only, and both
//! of its drivers — the blocking port and the polling monitor shards
//! ([`crate::poller`]) — go through it.  The table has one blocking wait,
//! `wait_on`: a bounded run of `yield_now` + condition
//! rounds — the peer needs microseconds of gateway code to get here, and a
//! peer that is already running makes a futex sleep unnecessary — and only
//! then a park on the shard's event count, with the condition re-evaluated
//! on every wake.  The blocking port waits there with its call machine's
//! next step as the condition; [`LockstepTable::arrive`],
//! [`LockstepTable::arrive_batch`] and [`LockstepTable::wait_outcome`] are
//! thin conveniences (`try_*`, then `wait_on` over the matching `poll_*`)
//! for table-level tests and ablations.  Every state change (deposit,
//! publication, poison, quarantine, re-admission) posts the event count,
//! whose no-sleeper path is a fence and a load: a run in which nobody has
//! fallen asleep makes no futex syscall on the hand-off path at all.
//!
//! # Poisoning
//!
//! Divergence aborts are flagged in a single [`AtomicBool`], so the check in
//! every poll is a lock-free load.  [`LockstepTable::poison`] then posts
//! every shard's event count; the event count's register → fence → re-check
//! handshake guarantees a waiter between its poison check and its park
//! cannot miss the wake-up, without the poisoner touching any shard lock.
//!
//! # Batching
//!
//! The per-call rendezvous cost is one shard-lock acquisition plus one wait
//! per compared call.  For syscall-dense phases the monitor amortizes that
//! cost with [`LockstepTable::arrive_batch`]: a variant thread deposits a
//! bounded block of pending ([`SlotKey`], [`ComparisonKey`]) pairs — a
//! [`BatchArrival`] each — under a *single* shard-lock acquisition and
//! resolves them as a unit.  Every key still gets its own
//! [`ArrivalResult`], so a mismatch in the middle of a batch reports the
//! exact offending slot, and the other keys of the batch resolve
//! independently, exactly as a sequence of single [`LockstepTable::arrive`]
//! calls would.  All keys of a batch must belong to one logical thread (and
//! therefore one shard); this is what a per-thread deferred-comparison queue
//! produces naturally.
//!
//! # Slot lifetime
//!
//! Slots are reclaimed once every variant has consumed them **and** no
//! waiter still holds a reference.  Each `Pending` arrival token (and each
//! unresolved key of a batch token) holds a registration in the slot's
//! waiter refcount, so a slot can never vanish underneath a waiter that is
//! about to re-inspect it; a late waiter always observes a clean
//! `Consistent`/`Mismatch`/`Poisoned` result instead of panicking on a
//! vanished slot.  Every registration is released **exactly once**, by the
//! `poll_*` call that resolves its token — a key that resolves before its
//! batch's deadline must not be released again on the timeout path — and
//! the release site doubles as the reclaim check.  The table's size stays
//! bounded by the number of in-flight calls, not by the length of the
//! execution.
//!
//! A reclaimed slot's *shell* — its per-variant `keys` vector, the one part
//! of a slot on the heap — goes to its shard's spare list, emptied, and the
//! shard's next new slot is issued from it; every other field of the issued
//! slot is built fresh, with the expected set read from the active mask at
//! issue time.  A shard keeps at most 64 spares (`SPARE_SHELLS`), so the pool
//! is bounded too, and a steady-state rendezvous allocates nothing inside
//! the table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use mvee_kernel::syscall::{ComparisonKey, SyscallOutcome};
use mvee_sync_agent::guards::{EventCount, Waiter};

use crate::divergence::first_mismatch;

/// Identifies a monitored call: (logical thread, per-thread sequence number).
pub type SlotKey = (usize, u64);

/// Default number of rendezvous shards.
///
/// Eight shards keep threads of different thread groups off each other's
/// locks for the workloads in this repository (up to 16 variants × dozens of
/// threads) without wasting memory on mostly-empty maps.
pub const DEFAULT_SHARDS: usize = 8;

/// Upper bound on the number of keys one [`LockstepTable::arrive_batch`]
/// call may deposit.
///
/// The bound keeps a single shard-lock hold (all deposits happen under one
/// acquisition) and the per-wake-up resolution scan O(small); the monitor
/// clamps its batch knob to this value.
pub const MAX_BATCH: usize = 1024;

/// How a blocking call waits for its token to resolve: no busy-spin phase
/// (the peer is microseconds of gateway code away, not a few instructions),
/// the waiter's fixed yield budget — a peer that is already running
/// gets here within a few yields, and a yield costs a fifth of a park/wake
/// round trip — and only then a park on the shard's event count.  On a
/// one-CPU process every default waiter has this shape too
/// (`guards::spin_budget`); this one skips the spin on every host.
const YIELD_THEN_PARK: Waiter = Waiter::new(0);

/// One pending comparison of a batched rendezvous: the slot it belongs to
/// and the key the depositing variant presents there.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchArrival {
    /// The monitored call's slot.
    pub key: SlotKey,
    /// The depositing variant's comparison key for that call.
    pub cmp: ComparisonKey,
}

/// Result of a lockstep arrival.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalResult {
    /// All variants arrived with equivalent calls.
    Consistent,
    /// A variant arrived with a different call; the tuple holds
    /// (diverging variant index, master key, diverging key).
    Mismatch(usize, ComparisonKey, ComparisonKey),
    /// Not every variant arrived before the timeout; the vector lists the
    /// variants that did arrive.
    Timeout(Vec<usize>),
    /// The table was poisoned because divergence was detected elsewhere.
    Poisoned,
}

#[derive(Debug, Default)]
struct Slot {
    keys: Vec<Option<ComparisonKey>>,
    outcome: Option<SyscallOutcome>,
    timestamp: Option<u64>,
    /// How many consumptions have been recorded (the reclaim criterion for
    /// tables too wide for the mask, which never quarantine).
    consumed: usize,
    /// Which variants have consumed this slot, as a bitmask.  Kept
    /// per-variant so a quarantine sweep can erase the victim's credit:
    /// an anonymous counter would let a swept variant's in-flight
    /// consumption count toward the *survivors'* quota and reclaim the
    /// slot before a survivor read its outcome.
    consumed_mask: u64,
    mismatch: bool,
    /// Number of `arrive` calls currently blocked on this slot.  The slot is
    /// only reclaimed when this drops to zero (see module docs).
    waiters: usize,
    /// How many variants this slot waits for: the live-variant count at slot
    /// creation.  Equal to the table's variant count until a quarantine
    /// shrinks the expected-arrival set (see
    /// [`LockstepTable::quarantine`]).
    expected: usize,
    /// Which variants this slot expects, as a bitmask (valid for tables of
    /// up to 64 variants; larger tables never quarantine).  Captured from
    /// the table's active mask at slot creation and extended when a
    /// re-admitted variant deposits into a pre-existing slot.
    mask: u64,
}

impl Slot {
    /// A fresh slot over `keys` (one `None` per variant) expecting the
    /// variants in `mask`.
    fn new(keys: Vec<Option<ComparisonKey>>, mask: u64) -> Self {
        let expected = if keys.len() >= 64 {
            keys.len()
        } else {
            mask.count_ones() as usize
        };
        Slot {
            keys,
            outcome: None,
            timestamp: None,
            consumed: 0,
            consumed_mask: 0,
            mismatch: false,
            waiters: 0,
            expected,
            mask,
        }
    }

    fn arrived(&self) -> usize {
        self.keys.iter().filter(|k| k.is_some()).count()
    }

    /// Whether every expected variant has consumed the slot.  Narrow tables
    /// compare the per-variant masks; wide tables (≥ 64 variants, which
    /// never quarantine) fall back to the counter.
    fn fully_consumed(&self) -> bool {
        if self.mask == u64::MAX {
            self.consumed >= self.expected
        } else {
            self.mask & !self.consumed_mask == 0
        }
    }

    /// Records `variant`'s membership in the expected-arrival set (idempotent)
    /// and deposits its comparison key.  Membership growth happens when a
    /// re-admitted variant reaches a slot created while it was quarantined.
    fn deposit(&mut self, variant: usize, cmp: ComparisonKey) {
        let bit = variant_bit(variant);
        if bit != 0 && self.mask & bit == 0 {
            self.mask |= bit;
            self.expected += 1;
        }
        self.keys[variant] = Some(cmp);
    }
}

/// The active-mask bit of a variant; zero for indices the 64-bit mask cannot
/// name (such variants are treated as permanently active — quarantine
/// asserts the table is at most 64 variants wide).
#[inline]
fn variant_bit(variant: usize) -> u64 {
    1u64.checked_shl(variant as u32).unwrap_or(0)
}

/// The all-active mask for a table of `variants` variants.
#[inline]
fn full_mask(variants: usize) -> u64 {
    if variants >= 64 {
        u64::MAX
    } else {
        (1u64 << variants) - 1
    }
}

/// How many reclaimed slot shells a shard keeps for reuse.  Measured per
/// shard on the benchmark's workloads (BASELINES.md, *Rendezvous slots
/// without SipHash or malloc*): live slots peak at 3–16 on five of the six,
/// apart from one `remote_unix` shard at 161, and 99.7–99.999 % of new
/// slots there are issued from a spare.  On `parallel_agents` a quarter of
/// the shards burst to thousands of live slots (2 300–2 743), so only
/// 53–54 % of new slots come from a spare and the rest allocate.  The cap
/// is what bounds a shard's memory after such a burst.
const SPARE_SHELLS: usize = 64;

/// Multiplier of the slot-key mix: 2⁶⁴ divided by the golden ratio, odd.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

/// The shard maps' hasher: one multiply-xorshift over a [`SlotKey`] (see
/// the module docs on why no SipHash is needed).  `SlotKey` hashes as its
/// thread (`write_usize`), then its sequence number (`write_u64`).
#[derive(Default)]
struct SlotHasher(u64);

impl Hasher for SlotHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a slot key hashes as two integers");
    }

    fn write_usize(&mut self, thread: usize) {
        self.0 = (thread as u64) << 32;
    }

    fn write_u64(&mut self, seq: u64) {
        // The rotation moves the deferred-keyspace bit (bit 63) to bit 0.
        self.0 ^= seq.rotate_left(1);
    }

    fn finish(&self) -> u64 {
        let x = self.0.wrapping_mul(MIX);
        x ^ (x >> 32)
    }
}

/// One shard's slots and the emptied shells of the slots it reclaimed
/// (see the module docs on slot lifetime).
#[derive(Debug, Default)]
struct SlotMap {
    live: HashMap<SlotKey, Slot, BuildHasherDefault<SlotHasher>>,
    /// At most [`SPARE_SHELLS`] `keys` vectors, each empty.
    spare: Vec<Vec<Option<ComparisonKey>>>,
}

impl SlotMap {
    fn len(&self) -> usize {
        self.live.len()
    }

    fn get(&self, key: SlotKey) -> Option<&Slot> {
        self.live.get(&key)
    }

    fn get_mut(&mut self, key: SlotKey) -> Option<&mut Slot> {
        self.live.get_mut(&key)
    }

    /// `key`'s slot; if it is not live, a new one for `variants` variants
    /// expecting the set `mask()` names, issued from a spare shell when
    /// there is one.
    fn get_or_issue(
        &mut self,
        key: SlotKey,
        variants: usize,
        mask: impl FnOnce() -> u64,
    ) -> &mut Slot {
        let spare = &mut self.spare;
        self.live.entry(key).or_insert_with(|| {
            let mut keys = spare.pop().unwrap_or_else(|| Vec::with_capacity(variants));
            keys.resize(variants, None);
            Slot::new(keys, mask())
        })
    }

    /// Removes `key`'s slot, keeping its shell.
    fn reclaim(&mut self, key: SlotKey) {
        if let Some(mut slot) = self.live.remove(&key) {
            Self::keep_shell(&mut self.spare, &mut slot);
        }
    }

    /// Keeps only the slots `keep` accepts, and the shells of the others.
    fn retain(&mut self, mut keep: impl FnMut(&mut Slot) -> bool) {
        let spare = &mut self.spare;
        self.live.retain(|_, slot| {
            let kept = keep(slot);
            if !kept {
                Self::keep_shell(spare, slot);
            }
            kept
        });
    }

    fn keep_shell(spare: &mut Vec<Vec<Option<ComparisonKey>>>, slot: &mut Slot) {
        if spare.len() < SPARE_SHELLS {
            let mut keys = std::mem::take(&mut slot.keys);
            keys.clear();
            spare.push(keys);
        }
    }

    /// Releases one waiter registration on `key` and reclaims the slot if
    /// it is fully consumed and unreferenced.  Must be called exactly once
    /// per registration (see the module docs on slot lifetime).
    fn release_waiter(&mut self, key: SlotKey) {
        if let Some(slot) = self.live.get_mut(&key) {
            slot.waiters -= 1;
            if slot.waiters == 0 && slot.fully_consumed() {
                self.reclaim(key);
            }
        }
    }
}

/// One independent partition of the rendezvous table.
#[derive(Debug, Default)]
struct Shard {
    slots: Mutex<SlotMap>,
    /// Posted on every state change a blocked waiter of this shard could be
    /// waiting for (see the module docs on the shared wait).
    changed: EventCount,
}

/// Wake signal shared between the rendezvous table and a polling monitor
/// shard ([`crate::poller`]).
///
/// A poller parks only when every ring it serves is empty and every
/// in-flight arrival is pending; anything that could change either — a ring
/// push, a rendezvous deposit, an outcome publication, poison — calls
/// [`PollWaker::raise`].  The epoch counter lets the poller detect a raise
/// that lands between its idle check and its park (snapshot the epoch, park
/// on `epoch changed || work visible`), closing the lost-wakeup window
/// without holding any lock across the park.
#[derive(Debug, Default)]
pub struct PollWaker {
    /// Bumped on every raise; pollers snapshot it before deciding to park.
    epoch: AtomicU64,
    /// The parking target.
    events: EventCount,
}

impl PollWaker {
    /// Creates a waker with epoch zero and no parked poller.
    pub fn new() -> Self {
        PollWaker::default()
    }

    /// Signals that state a poller may be waiting on has changed: bumps the
    /// epoch and wakes a parked poller, if any.
    pub fn raise(&self) {
        self.epoch.fetch_add(1, Ordering::Release);
        self.events.notify();
    }

    /// The current raise epoch.  A poller snapshots this before its idle
    /// check; a change since the snapshot means a raise raced the check.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The event count a poller parks on.
    pub fn events(&self) -> &EventCount {
        &self.events
    }
}

/// The sharded rendezvous / replication table shared by all monitor threads.
#[derive(Debug)]
pub struct LockstepTable {
    variants: usize,
    /// Which variants are currently expected at new slots, as a bitmask.
    /// All bits set for the full quorum; [`LockstepTable::quarantine`]
    /// clears a bit, [`LockstepTable::readmit`] restores it.  Tables wider
    /// than 64 variants keep the mask saturated and never quarantine.
    active_mask: AtomicU64,
    shards: Box<[Shard]>,
    /// Optional thread→shard binding map (indexed `thread % len`), supplied
    /// by the monitor when a non-round-robin placement policy is configured.
    /// `None` keeps the historical `thread % shards` binding.
    placement_map: Option<Box<[usize]>>,
    poisoned: AtomicBool,
    /// Registered polling-shard wakers, raised on every deposit, outcome
    /// publication and poison.  Empty (and bypassed via `observed`) unless
    /// a poller pool is wired up, so the sync transport pays one relaxed
    /// load, nothing more.
    observers: Mutex<Vec<Arc<PollWaker>>>,
    observed: AtomicBool,
    /// Divergence-journal sink: every deposit and outcome publication is
    /// recorded here when the run is journaled (see [`crate::journal`]).
    /// The journal's mutex is a leaf lock — taken under the shard lock,
    /// never the other way around.
    journal: Option<Arc<crate::journal::JournalRecorder>>,
}

impl LockstepTable {
    /// Creates a table for `variants` variants with [`DEFAULT_SHARDS`]
    /// rendezvous shards.
    ///
    /// # Panics
    ///
    /// Panics if `variants` is zero.
    pub fn new(variants: usize) -> Self {
        Self::with_shards(variants, DEFAULT_SHARDS)
    }

    /// Creates a table for `variants` variants partitioned into `shards`
    /// independent shards.  `shards = 1` reproduces the behaviour of the
    /// original unsharded table.
    ///
    /// # Panics
    ///
    /// Panics if `variants` or `shards` is zero.
    pub fn with_shards(variants: usize, shards: usize) -> Self {
        assert!(variants > 0, "need at least one variant");
        assert!(shards > 0, "need at least one shard");
        LockstepTable {
            variants,
            active_mask: AtomicU64::new(full_mask(variants)),
            shards: (0..shards).map(|_| Shard::default()).collect(),
            placement_map: None,
            poisoned: AtomicBool::new(false),
            observers: Mutex::new(Vec::new()),
            observed: AtomicBool::new(false),
            journal: None,
        }
    }

    /// Installs the divergence-journal sink; the monitor wires this at
    /// construction, before any port can deposit.
    pub(crate) fn set_journal(&mut self, journal: Arc<crate::journal::JournalRecorder>) {
        self.journal = Some(journal);
    }

    /// Records a deposit into the journal, when one is attached.  Called
    /// under the shard lock, so the journal's global arrival order embeds
    /// each shard's deposit order.
    #[inline]
    fn journal_arrival(&self, key: SlotKey, variant: usize, cmp: &ComparisonKey) {
        if let Some(journal) = &self.journal {
            journal.record_arrival(variant, key.0, key.1, self.shard_of(key.0), cmp);
        }
    }

    /// [`with_shards`](Self::with_shards) plus an explicit thread→shard
    /// binding map: thread `t`'s slots live in shard `map[t % map.len()]`.
    /// The monitor derives the map from its
    /// [`Placement`](crate::config::Placement) policy so the rendezvous
    /// lock, the ordering clock and the stat lane of a thread all share one
    /// shard binding.
    ///
    /// # Panics
    ///
    /// Panics if the map is empty or names a shard `>= shards`.
    pub fn with_placement_map(variants: usize, shards: usize, map: Vec<usize>) -> Self {
        assert!(!map.is_empty(), "placement map must not be empty");
        assert!(
            map.iter().all(|&s| s < shards),
            "placement map names a shard out of range"
        );
        let mut table = Self::with_shards(variants, shards);
        table.placement_map = Some(map.into_boxed_slice());
        table
    }

    /// Number of variants this table coordinates.
    pub fn variants(&self) -> usize {
        self.variants
    }

    /// Number of independent rendezvous shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index a logical thread's slots live in: the placement map
    /// if one was supplied, `thread % shards` otherwise.
    pub fn shard_of(&self, thread: usize) -> usize {
        match &self.placement_map {
            Some(map) => map[thread % map.len()],
            None => thread % self.shards.len(),
        }
    }

    fn shard(&self, key: SlotKey) -> &Shard {
        &self.shards[self.shard_of(key.0)]
    }

    /// Number of live (unreclaimed) slots across all shards; used by tests to
    /// verify cleanup.
    pub fn live_slots(&self) -> usize {
        self.shards.iter().map(|s| s.slots.lock().len()).sum()
    }

    /// Live slot count per shard, for tests and the sharding ablation.
    pub fn live_slots_per_shard(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.slots.lock().len()).collect()
    }

    /// The variants currently recorded as arrived at `key`, for divergence
    /// reports.  Purely observational: it does not create a slot, register
    /// a waiter or disturb reclamation; an absent slot reads as no
    /// arrivals.
    pub fn arrivals(&self, key: SlotKey) -> Vec<usize> {
        self.shard(key)
            .slots
            .lock()
            .get(key)
            .map(Self::arrived_variants)
            .unwrap_or_default()
    }

    /// Marks the table as poisoned and wakes every waiter.
    ///
    /// Called when divergence has been detected so that threads blocked in a
    /// rendezvous or waiting for a replicated result abort promptly instead
    /// of running into their timeouts.  The flag is a single atomic store
    /// and the wake-up takes no shard lock, so a poisoning thread cannot
    /// stall behind long-held rendezvous locks.
    pub fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Posts every shard's event count and raises the observers: the
    /// table-wide wake of poison, quarantine and re-admission.
    fn wake_all(&self) {
        for shard in self.shards.iter() {
            shard.changed.notify();
        }
        self.notify_observers();
    }

    /// Posts `shard`'s event count and raises the observers, after a state
    /// change in that shard.  Free of syscalls while nobody is parked.
    fn wake(&self, shard: &Shard) {
        shard.changed.notify();
        self.notify_observers();
    }

    /// Whether the table has been poisoned.  Lock-free.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// Whether `variant` is in the expected-arrival set.  Lock-free.
    pub fn is_active(&self, variant: usize) -> bool {
        let bit = variant_bit(variant);
        bit == 0 || self.active_mask.load(Ordering::SeqCst) & bit != 0
    }

    /// Number of live (non-quarantined) variants.
    pub fn active_count(&self) -> usize {
        if self.variants >= 64 {
            self.variants
        } else {
            self.active_mask.load(Ordering::SeqCst).count_ones() as usize
        }
    }

    /// Drops `victim` from the table's expected-arrival set: the
    /// degraded-quorum mode behind
    /// [`RecoveryPolicy::Quarantine`](crate::config::RecoveryPolicy).
    ///
    /// New slots no longer expect the victim; every existing slot sheds the
    /// victim's membership, its deposited key, and — when the victim's key
    /// was the only disagreeing one — its mismatch flag, so in-flight
    /// waiters re-resolve against the reduced variant set with exactly the
    /// verdicts a run that never included the victim would produce.  Slots
    /// the removal leaves fully consumed and unreferenced are reclaimed on
    /// the spot.  Every shard is then broadcast-woken so blocked survivors
    /// re-inspect their slots immediately instead of running into their
    /// deadlines.
    ///
    /// Returns `false` when the victim was already quarantined (the sweep
    /// is idempotent; only the first caller performs it).
    ///
    /// # Panics
    ///
    /// Panics on tables wider than 64 variants (the active mask cannot name
    /// the members) and on an out-of-range victim.
    pub fn quarantine(&self, victim: usize) -> bool {
        assert!(
            self.variants <= 64,
            "quarantine requires a table of at most 64 variants"
        );
        assert!(victim < self.variants, "quarantine victim out of range");
        let bit = variant_bit(victim);
        let prev = self.active_mask.fetch_and(!bit, Ordering::SeqCst);
        if prev & bit == 0 {
            return false;
        }
        for shard in self.shards.iter() {
            let mut slots = shard.slots.lock();
            slots.retain(|slot| {
                if slot.mask & bit != 0 {
                    slot.mask &= !bit;
                    slot.expected -= 1;
                    slot.keys[victim] = None;
                    // Erase the victim's consumption credit too: its
                    // membership is gone, so a consume it already made must
                    // not count toward the survivors' reclaim quota.
                    slot.consumed_mask &= !bit;
                    if slot.mismatch && first_mismatch(&slot.keys).is_none() {
                        slot.mismatch = false;
                    }
                }
                // The removal may leave a slot fully consumed with no
                // waiters — the state `consume` reclaims on.
                !(slot.waiters == 0 && slot.expected > 0 && slot.fully_consumed())
            });
        }
        self.wake_all();
        true
    }

    /// Restores a quarantined variant to the expected-arrival set: slots
    /// created from now on expect it again, and a deposit it makes into an
    /// older, still-open slot re-registers its membership there.  Existing
    /// slots it never reaches stay on the reduced quorum.  The caller
    /// (`Mvee::respawn_variant`) re-admits only at a quiescent batch
    /// boundary, with the victim's sequence numbers fast-forwarded to the
    /// survivors' frontier.
    pub fn readmit(&self, variant: usize) {
        assert!(variant < self.variants, "readmit variant out of range");
        self.active_mask
            .fetch_or(variant_bit(variant), Ordering::SeqCst);
        self.wake_all();
    }

    /// Registers a polling-shard waker: from now on every deposit, outcome
    /// publication and poison [`raise`](PollWaker::raise)s it, so a poller
    /// parked on the waker re-examines its pending arrivals.
    pub fn register_observer(&self, waker: Arc<PollWaker>) {
        self.observers.lock().push(waker);
        self.observed.store(true, Ordering::Release);
    }

    /// Raises every registered waker.  The no-observer fast path (sync
    /// transport) is a single relaxed-ish load.
    fn notify_observers(&self) {
        if !self.observed.load(Ordering::Acquire) {
            return;
        }
        for waker in self.observers.lock().iter() {
            waker.raise();
        }
    }

    /// The result a fully or partially arrived slot currently resolves to,
    /// or `None` while the rendezvous is still incomplete and clean.
    fn slot_result(&self, slot: &Slot) -> Option<ArrivalResult> {
        if slot.mismatch {
            let (idx, master, other) =
                first_mismatch(&slot.keys).expect("mismatch flag implies a mismatch");
            return Some(ArrivalResult::Mismatch(idx, master, other));
        }
        if slot.arrived() >= slot.expected {
            return Some(match first_mismatch(&slot.keys) {
                Some((idx, master, other)) => ArrivalResult::Mismatch(idx, master, other),
                None => ArrivalResult::Consistent,
            });
        }
        None
    }

    /// The variants that have arrived at `slot`, for a timeout report.
    fn arrived_variants(slot: &Slot) -> Vec<usize> {
        slot.keys
            .iter()
            .enumerate()
            .filter_map(|(i, k)| k.as_ref().map(|_| i))
            .collect()
    }

    /// `key`'s slot in `slots`; a new one expects the currently active
    /// variant set.
    fn slot_mut<'a>(&self, slots: &'a mut SlotMap, key: SlotKey) -> &'a mut Slot {
        slots.get_or_issue(key, self.variants, || {
            self.active_mask.load(Ordering::SeqCst)
        })
    }

    /// The one blocking wait of the table: returns once `moved` returns
    /// `true`.  It spends a fixed yield budget on rounds of `yield_now` and
    /// `moved`, then parks on the event count of `thread`'s shard with a
    /// `moved` on every wake.  The condition owns every deadline (a
    /// token's is fixed at deposit time), so a timeout is attributed
    /// exactly as it is to a caller that polls.  The blocking port driver
    /// waits here with its call machine's next step as the condition; the
    /// three conveniences below wait with a `poll_*`.
    pub(crate) fn wait_on(&self, thread: usize, moved: impl FnMut() -> bool) {
        let shard = &self.shards[self.shard_of(thread)];
        YIELD_THEN_PARK.wait_until_event(&shard.changed, moved);
    }

    /// [`wait_on`](Self::wait_on) over a token: re-polls `pending` until it
    /// resolves.
    fn wait_resolved<P, T>(
        &self,
        thread: usize,
        pending: P,
        poll: impl Fn(P) -> Result<T, P>,
    ) -> T {
        let mut pending = Some(pending);
        let mut resolved = None;
        self.wait_on(thread, || {
            let token = pending.take().expect("the wait ends at the first Ok poll");
            match poll(token) {
                Ok(value) => resolved = Some(value),
                Err(token) => pending = Some(token),
            }
            resolved.is_some()
        });
        resolved.expect("the wait returns only once a poll resolved")
    }

    /// Registers variant `variant`'s arrival at `key` with comparison key
    /// `cmp` and waits until every expected variant has arrived (lockstep):
    /// [`try_arrive`](Self::try_arrive), then the shard wait
    /// over [`poll_arrival`](Self::poll_arrival).
    pub fn arrive(
        &self,
        key: SlotKey,
        variant: usize,
        cmp: ComparisonKey,
        timeout: Duration,
    ) -> ArrivalResult {
        match self.try_arrive(key, variant, cmp, timeout) {
            TryArrive::Ready(result) => result,
            TryArrive::Pending(token) => self.wait_resolved(key.0, token, |t| self.poll_arrival(t)),
        }
    }

    /// Deposits a whole block of pending comparisons under a **single**
    /// shard-lock acquisition and resolves them as a unit.
    ///
    /// Semantically equivalent to calling [`arrive`](Self::arrive) once per
    /// element of `batch` (each key receives its own [`ArrivalResult`], and a
    /// mismatch on one key does not disturb the verdicts of the others), but
    /// the lock/wait cost is paid once per batch instead of once per call
    /// — the amortization the `ablation_batching` benchmark measures.  The
    /// one semantic difference is the deadline: the whole batch shares one
    /// `timeout` instead of each key restarting it, so keys a peer never
    /// arrives at report [`ArrivalResult::Timeout`] after a single deadline.
    ///
    /// Returns one result per batch element, in batch order.  Keys that
    /// resolve while later ones are still pending keep their verdicts; their
    /// waiter registrations are released exactly once on exit, never again on
    /// the timeout path.
    ///
    /// # Panics
    ///
    /// Panics if the batch exceeds [`MAX_BATCH`], spans more than one shard
    /// (all keys must share one logical thread's shard — a per-thread
    /// deferred-comparison queue guarantees this), or contains duplicate
    /// keys.
    pub fn arrive_batch(
        &self,
        variant: usize,
        batch: &[BatchArrival],
        timeout: Duration,
    ) -> Vec<ArrivalResult> {
        match self.try_arrive_batch(variant, batch, timeout) {
            TryBatch::Ready(results) => results,
            TryBatch::Pending(token) => {
                self.wait_resolved(batch[0].key.0, token, |t| self.poll_batch(t))
            }
        }
    }

    /// Publishes the master's outcome (and, for ordered calls, the syscall
    /// ordering timestamp) into the slot and wakes waiting slaves.
    pub fn publish_outcome(&self, key: SlotKey, outcome: SyscallOutcome, timestamp: Option<u64>) {
        let shard = self.shard(key);
        let mut slots = shard.slots.lock();
        if let Some(journal) = &self.journal {
            journal.record_publish(key.0, key.1, timestamp, &outcome);
        }
        let slot = self.slot_mut(&mut slots, key);
        slot.outcome = Some(outcome);
        slot.timestamp = timestamp;
        drop(slots);
        self.wake(shard);
    }

    /// Blocks until the master has published an outcome for `key`.
    ///
    /// Returns `None` on timeout or when the table is poisoned.
    pub fn wait_outcome(
        &self,
        key: SlotKey,
        timeout: Duration,
    ) -> Option<(SyscallOutcome, Option<u64>)> {
        match self.try_wait_outcome(key, timeout) {
            TryOutcome::Ready(outcome) => outcome,
            TryOutcome::Pending(token) => {
                self.wait_resolved(key.0, token, |t| self.poll_outcome(t))
            }
        }
    }

    /// Marks `variant`'s use of the slot as finished; the slot is reclaimed
    /// once every expected variant has consumed it and no waiter still
    /// references it.  Consumption is tracked per variant so a quarantined
    /// variant finishing an in-flight call cannot spend a *survivor's*
    /// credit and reclaim the slot under it.
    pub fn consume(&self, key: SlotKey, variant: usize) {
        let shard = self.shard(key);
        let mut slots = shard.slots.lock();
        if let Some(slot) = slots.get_mut(key) {
            slot.consumed += 1;
            slot.consumed_mask |= variant_bit(variant);
            if slot.fully_consumed() && slot.waiters == 0 {
                slots.reclaim(key);
            }
        }
    }

    // --- The deposit → poll core every wait above is built on ---
    //
    // A polling monitor shard must never sleep inside one port's rendezvous,
    // or a cross-variant circular wait (thread A of v0 and thread B of v1
    // arriving in opposite order) deadlocks it the way it would deadlock a
    // naive blocking drain.  The `try_*` calls deposit and return `Pending`
    // with a token instead of parking; `poll_*` re-examines a token without
    // sleeping.  Deadlines are fixed at deposit time, so the `Timeout`
    // verdicts (and their arrived-variant lists) do not depend on who polls
    // or how often.  A `Pending` token holds the slot's waiter registration;
    // it is released exactly once, by the `poll_*` call that resolves it.

    /// Deposits variant `variant`'s arrival at `key` without blocking.
    ///
    /// Returns [`TryArrive::Ready`] when the rendezvous resolves at deposit
    /// time (all peers already arrived, a mismatch, or the table is
    /// poisoned) and [`TryArrive::Pending`] otherwise; poll the token with
    /// [`poll_arrival`](Self::poll_arrival).
    pub fn try_arrive(
        &self,
        key: SlotKey,
        variant: usize,
        cmp: ComparisonKey,
        timeout: Duration,
    ) -> TryArrive {
        self.try_arrive_inner(key, variant, cmp, timeout, true)
    }

    /// Re-registers an arrival whose first verdict was superseded by a
    /// quarantine: identical to [`try_arrive`](Self::try_arrive) — the
    /// deposit is idempotent, so a key already present is simply
    /// re-presented — except that the deadline restarts and nothing is
    /// journaled (the original arrival already was; the journal keeps the
    /// pre-quarantine schedule).
    pub fn try_rearrive(
        &self,
        key: SlotKey,
        variant: usize,
        cmp: ComparisonKey,
        timeout: Duration,
    ) -> TryArrive {
        self.try_arrive_inner(key, variant, cmp, timeout, false)
    }

    fn try_arrive_inner(
        &self,
        key: SlotKey,
        variant: usize,
        cmp: ComparisonKey,
        timeout: Duration,
        journal: bool,
    ) -> TryArrive {
        let deadline = Instant::now() + timeout;
        let shard = self.shard(key);
        let mut slots = shard.slots.lock();
        if !self.is_active(variant) {
            // A quarantined lane's late arrival: refuse the deposit (it is
            // no longer part of any expected set) with the same verdict a
            // poisoned table reports — the caller shuts the lane down.
            return TryArrive::Ready(ArrivalResult::Poisoned);
        }
        if journal {
            self.journal_arrival(key, variant, &cmp);
        }
        let slot = self.slot_mut(&mut slots, key);
        slot.deposit(variant, cmp);
        if let Some(result) = self.slot_result(slot) {
            if matches!(result, ArrivalResult::Mismatch(..)) {
                slot.mismatch = true;
            }
            drop(slots);
            self.wake(shard);
            return TryArrive::Ready(result);
        }
        // Not complete yet: register as a waiter so the slot cannot be
        // reclaimed before the token is polled, and wake the shard (another
        // variant may be waiting for this very deposit).
        slot.waiters += 1;
        if self.is_poisoned() {
            // Same verdict the first poll would return; resolve immediately
            // so no token (and no registration) escapes.
            slots.release_waiter(key);
            drop(slots);
            self.wake(shard);
            return TryArrive::Ready(ArrivalResult::Poisoned);
        }
        drop(slots);
        self.wake(shard);
        TryArrive::Pending(ArrivalToken { key, deadline })
    }

    /// Checks a pending arrival without sleeping.
    ///
    /// `Ok` resolves the token (releasing its waiter registration) with the
    /// same verdict the blocking [`arrive`](Self::arrive) would have
    /// returned; `Err` hands the still-pending token back.
    pub fn poll_arrival(&self, token: ArrivalToken) -> Result<ArrivalResult, ArrivalToken> {
        let shard = self.shard(token.key);
        let mut slots = shard.slots.lock();
        if self.is_poisoned() {
            slots.release_waiter(token.key);
            return Ok(ArrivalResult::Poisoned);
        }
        let resolved = match slots.get(token.key) {
            // Defensive: the waiter refcount makes a vanished slot
            // unreachable, and one that did vanish was completed and
            // consumed — report the benign outcome instead of panicking.
            None => Some(ArrivalResult::Consistent),
            Some(slot) => self.slot_result(slot),
        };
        if let Some(result) = resolved {
            slots.release_waiter(token.key);
            return Ok(result);
        }
        if Instant::now() >= token.deadline {
            // The slot was just inspected (the at-the-wire re-check) and is
            // incomplete: report which variants did arrive.
            let arrived = slots
                .get(token.key)
                .map(Self::arrived_variants)
                .unwrap_or_default();
            slots.release_waiter(token.key);
            return Ok(ArrivalResult::Timeout(arrived));
        }
        Err(token)
    }

    /// Deposits a whole block of pending comparisons without blocking: the
    /// deposit half of [`arrive_batch`](Self::arrive_batch), which
    /// documents the single-lock deposit, the per-key verdicts and the
    /// shared batch deadline.
    ///
    /// # Panics
    ///
    /// As [`arrive_batch`](Self::arrive_batch): oversized, shard-spanning
    /// or duplicate-key batches panic.
    pub fn try_arrive_batch(
        &self,
        variant: usize,
        batch: &[BatchArrival],
        timeout: Duration,
    ) -> TryBatch {
        self.try_arrive_batch_inner(variant, batch, timeout, true)
    }

    /// The batched twin of [`try_rearrive`](Self::try_rearrive):
    /// re-deposits the given keys with a fresh shared deadline, journaling
    /// nothing.
    pub fn try_rearrive_batch(
        &self,
        variant: usize,
        batch: &[BatchArrival],
        timeout: Duration,
    ) -> TryBatch {
        self.try_arrive_batch_inner(variant, batch, timeout, false)
    }

    fn try_arrive_batch_inner(
        &self,
        variant: usize,
        batch: &[BatchArrival],
        timeout: Duration,
        journal: bool,
    ) -> TryBatch {
        assert!(
            batch.len() <= MAX_BATCH,
            "batch of {} exceeds MAX_BATCH ({MAX_BATCH})",
            batch.len()
        );
        if batch.is_empty() {
            return TryBatch::Ready(Vec::new());
        }
        let shard_idx = self.shard_of(batch[0].key.0);
        assert!(
            batch.iter().all(|a| self.shard_of(a.key.0) == shard_idx),
            "a batch must stay within one rendezvous shard"
        );
        // Hard assert, like the bound and shard checks above: a silent
        // duplicate would overwrite the first deposit and double-register a
        // waiter.  O(n²) on n ≤ MAX_BATCH keys, paid once per flush.
        assert!(
            (1..batch.len()).all(|i| batch[..i].iter().all(|a| a.key != batch[i].key)),
            "a batch must not deposit the same slot twice"
        );
        let deadline = Instant::now() + timeout;
        let shard = &self.shards[shard_idx];
        let mut slots = shard.slots.lock();
        if !self.is_active(variant) {
            return TryBatch::Ready(vec![ArrivalResult::Poisoned; batch.len()]);
        }
        let mut token = BatchToken {
            shard_idx,
            deadline,
            keys: batch.iter().map(|a| a.key).collect(),
            holds_waiter: vec![false; batch.len()],
            results: vec![None; batch.len()],
            unresolved: 0,
        };
        for (i, arrival) in batch.iter().enumerate() {
            if journal {
                self.journal_arrival(arrival.key, variant, &arrival.cmp);
            }
            let slot = self.slot_mut(&mut slots, arrival.key);
            slot.deposit(variant, arrival.cmp.clone());
            if let Some(result) = self.slot_result(slot) {
                if matches!(result, ArrivalResult::Mismatch(..)) {
                    slot.mismatch = true;
                }
                token.results[i] = Some(result);
            } else {
                slot.waiters += 1;
                token.holds_waiter[i] = true;
                token.unresolved += 1;
            }
        }
        if token.unresolved > 0 && self.is_poisoned() {
            for r in token.results.iter_mut().filter(|r| r.is_none()) {
                *r = Some(ArrivalResult::Poisoned);
            }
            token.unresolved = 0;
        }
        let deposit = if token.unresolved == 0 {
            TryBatch::Ready(token.resolve(&mut slots))
        } else {
            TryBatch::Pending(token)
        };
        drop(slots);
        self.wake(shard);
        deposit
    }

    /// Checks a pending batch without sleeping: resolves every key that
    /// completed since the deposit (or since the last poll), fills
    /// `Poisoned` / `Timeout` verdicts when the table poisons or the batch
    /// deadline passes, and returns `Ok` — releasing every held waiter
    /// registration exactly once — as soon as no key is left unresolved.
    pub fn poll_batch(&self, mut token: BatchToken) -> Result<Vec<ArrivalResult>, BatchToken> {
        let shard = &self.shards[token.shard_idx];
        let mut slots = shard.slots.lock();
        if self.is_poisoned() {
            for r in token.results.iter_mut().filter(|r| r.is_none()) {
                *r = Some(ArrivalResult::Poisoned);
            }
            token.unresolved = 0;
        } else {
            for i in 0..token.keys.len() {
                if token.results[i].is_some() {
                    continue;
                }
                let resolved = match slots.get(token.keys[i]) {
                    None => Some(ArrivalResult::Consistent),
                    Some(slot) => self.slot_result(slot),
                };
                if let Some(result) = resolved {
                    token.results[i] = Some(result);
                    token.unresolved -= 1;
                }
            }
            if token.unresolved > 0 && Instant::now() >= token.deadline {
                for i in 0..token.keys.len() {
                    if token.results[i].is_some() {
                        continue;
                    }
                    token.results[i] = Some(match slots.get(token.keys[i]) {
                        None => ArrivalResult::Consistent,
                        Some(slot) => ArrivalResult::Timeout(Self::arrived_variants(slot)),
                    });
                }
                token.unresolved = 0;
            }
        }
        if token.unresolved == 0 {
            return Ok(token.resolve(&mut slots));
        }
        Err(token)
    }

    /// Checks for the master's published outcome without blocking.
    ///
    /// Mirrors [`wait_outcome`](Self::wait_outcome): `Ready(Some(..))` when
    /// an outcome is already published, `Ready(None)` when the table is
    /// poisoned, `Pending` otherwise; poll the token with
    /// [`poll_outcome`](Self::poll_outcome).  No waiter registration is
    /// taken — outcome waits never pin a slot, exactly as on the blocking
    /// path.
    pub fn try_wait_outcome(&self, key: SlotKey, timeout: Duration) -> TryOutcome {
        let deadline = Instant::now() + timeout;
        let shard = self.shard(key);
        let slots = shard.slots.lock();
        if self.is_poisoned() {
            return TryOutcome::Ready(None);
        }
        if let Some(slot) = slots.get(key) {
            if let Some(outcome) = &slot.outcome {
                return TryOutcome::Ready(Some((outcome.clone(), slot.timestamp)));
            }
        }
        TryOutcome::Pending(OutcomeToken { key, deadline })
    }

    /// Checks a pending outcome wait without sleeping.
    ///
    /// `Ok(Some(..))` — the outcome arrived; `Ok(None)` — poisoned or the
    /// deadline passed with nothing published (the verdict blocking
    /// [`wait_outcome`](Self::wait_outcome) reports as `None`); `Err` —
    /// still pending.
    pub fn poll_outcome(
        &self,
        token: OutcomeToken,
    ) -> Result<Option<(SyscallOutcome, Option<u64>)>, OutcomeToken> {
        let shard = self.shard(token.key);
        let slots = shard.slots.lock();
        if self.is_poisoned() {
            return Ok(None);
        }
        if let Some(slot) = slots.get(token.key) {
            if let Some(outcome) = &slot.outcome {
                return Ok(Some((outcome.clone(), slot.timestamp)));
            }
        }
        if Instant::now() >= token.deadline {
            // The at-the-wire re-check just happened above; nothing was
            // published.
            return Ok(None);
        }
        Err(token)
    }
}

/// Outcome of a non-blocking arrival deposit
/// ([`LockstepTable::try_arrive`]).
#[derive(Debug)]
pub enum TryArrive {
    /// The rendezvous resolved at deposit time.
    Ready(ArrivalResult),
    /// Peers are still missing; poll with
    /// [`LockstepTable::poll_arrival`].
    Pending(ArrivalToken),
}

/// A pending single-slot arrival: holds the slot's waiter registration
/// until a [`LockstepTable::poll_arrival`] call resolves it.  The deadline
/// was fixed when the arrival was deposited, so a timeout verdict does not
/// depend on who polls, or how often.
#[derive(Debug, PartialEq, Eq)]
pub struct ArrivalToken {
    key: SlotKey,
    deadline: Instant,
}

impl ArrivalToken {
    /// The slot this arrival is waiting on.
    pub fn key(&self) -> SlotKey {
        self.key
    }

    /// When this arrival times out (fixed at deposit).
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

/// Outcome of a non-blocking batch deposit
/// ([`LockstepTable::try_arrive_batch`]).
#[derive(Debug)]
pub enum TryBatch {
    /// Every key of the batch resolved at deposit time (in batch order).
    Ready(Vec<ArrivalResult>),
    /// At least one key is still pending; poll with
    /// [`LockstepTable::poll_batch`].
    Pending(BatchToken),
}

/// A pending batched arrival: tracks which keys already resolved (they keep
/// their verdicts) and holds one waiter registration per initially
/// unresolved key, all released by the [`LockstepTable::poll_batch`] call
/// that completes the batch.
#[derive(Debug)]
pub struct BatchToken {
    shard_idx: usize,
    deadline: Instant,
    keys: Vec<SlotKey>,
    holds_waiter: Vec<bool>,
    results: Vec<Option<ArrivalResult>>,
    unresolved: usize,
}

impl BatchToken {
    /// When this batch times out (fixed at deposit).
    pub fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Releases every held waiter registration (the single release site of
    /// the poll-mode batch path) and unwraps the per-key verdicts.
    fn resolve(self, slots: &mut SlotMap) -> Vec<ArrivalResult> {
        for (i, key) in self.keys.iter().enumerate() {
            if self.holds_waiter[i] {
                slots.release_waiter(*key);
            }
        }
        self.results
            .into_iter()
            .map(|r| r.expect("every batch key resolves before return"))
            .collect()
    }
}

/// Outcome of a non-blocking outcome check
/// ([`LockstepTable::try_wait_outcome`]).
#[derive(Debug)]
pub enum TryOutcome {
    /// Resolved: the published outcome (with its ordering timestamp), or
    /// `None` when the table is poisoned — the same `None` the blocking
    /// [`LockstepTable::wait_outcome`] reports.
    Ready(Option<(SyscallOutcome, Option<u64>)>),
    /// Nothing published yet; poll with [`LockstepTable::poll_outcome`].
    Pending(OutcomeToken),
}

/// A pending outcome wait.  Carries no waiter registration (outcome waits
/// never pin slots); the deadline was fixed when the wait began.
#[derive(Debug, PartialEq, Eq)]
pub struct OutcomeToken {
    key: SlotKey,
    deadline: Instant,
}

impl OutcomeToken {
    /// The slot this wait is watching.
    pub fn key(&self) -> SlotKey {
        self.key
    }

    /// When this wait times out (fixed when the wait began).
    pub fn deadline(&self) -> Instant {
        self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvee_kernel::syscall::{SyscallRequest, Sysno};
    use std::sync::Arc;

    fn cmp(no: Sysno, payload: &[u8]) -> ComparisonKey {
        SyscallRequest::new(no)
            .with_payload(payload)
            .comparison_key()
    }

    #[test]
    fn single_variant_arrival_is_immediately_consistent() {
        let table = LockstepTable::new(1);
        let r = table.arrive(
            (0, 0),
            0,
            cmp(Sysno::Write, b"x"),
            Duration::from_millis(50),
        );
        assert_eq!(r, ArrivalResult::Consistent);
    }

    #[test]
    fn two_variants_rendezvous_and_agree() {
        let table = Arc::new(LockstepTable::new(2));
        let t2 = Arc::clone(&table);
        let handle = std::thread::spawn(move || {
            t2.arrive((0, 0), 1, cmp(Sysno::Open, b""), Duration::from_secs(2))
        });
        std::thread::sleep(Duration::from_millis(10));
        let r0 = table.arrive((0, 0), 0, cmp(Sysno::Open, b""), Duration::from_secs(2));
        let r1 = handle.join().unwrap();
        assert_eq!(r0, ArrivalResult::Consistent);
        assert_eq!(r1, ArrivalResult::Consistent);
    }

    #[test]
    fn mismatched_calls_are_reported_to_both_sides() {
        let table = Arc::new(LockstepTable::new(2));
        let t2 = Arc::clone(&table);
        let handle = std::thread::spawn(move || {
            t2.arrive((0, 0), 1, cmp(Sysno::Mprotect, b""), Duration::from_secs(2))
        });
        std::thread::sleep(Duration::from_millis(10));
        let r0 = table.arrive((0, 0), 0, cmp(Sysno::Write, b"hi"), Duration::from_secs(2));
        let r1 = handle.join().unwrap();
        assert!(matches!(r0, ArrivalResult::Mismatch(1, _, _)));
        assert!(matches!(r1, ArrivalResult::Mismatch(1, _, _)));
    }

    #[test]
    fn missing_variant_causes_timeout_listing_arrivals() {
        let table = LockstepTable::new(2);
        let r = table.arrive(
            (3, 7),
            0,
            cmp(Sysno::Write, b"x"),
            Duration::from_millis(50),
        );
        assert_eq!(r, ArrivalResult::Timeout(vec![0]));
    }

    #[test]
    fn outcome_publication_wakes_waiters() {
        let table = Arc::new(LockstepTable::new(2));
        let t2 = Arc::clone(&table);
        let handle = std::thread::spawn(move || t2.wait_outcome((1, 5), Duration::from_secs(2)));
        std::thread::sleep(Duration::from_millis(10));
        table.publish_outcome((1, 5), SyscallOutcome::ok(42), Some(9));
        let (outcome, ts) = handle.join().unwrap().unwrap();
        assert_eq!(outcome.result, Ok(42));
        assert_eq!(ts, Some(9));
    }

    #[test]
    fn wait_outcome_times_out_when_master_never_publishes() {
        let table = LockstepTable::new(2);
        assert!(table
            .wait_outcome((0, 0), Duration::from_millis(40))
            .is_none());
    }

    #[test]
    fn slots_are_reclaimed_after_all_variants_consume() {
        let table = LockstepTable::new(2);
        table.publish_outcome((0, 0), SyscallOutcome::ok(1), None);
        assert_eq!(table.live_slots(), 1);
        table.consume((0, 0), 0);
        assert_eq!(table.live_slots(), 1);
        table.consume((0, 0), 1);
        assert_eq!(table.live_slots(), 0);
    }

    #[test]
    fn poison_wakes_blocked_arrivals() {
        let table = Arc::new(LockstepTable::new(2));
        let t2 = Arc::clone(&table);
        let handle = std::thread::spawn(move || {
            t2.arrive((0, 0), 0, cmp(Sysno::Write, b"x"), Duration::from_secs(10))
        });
        std::thread::sleep(Duration::from_millis(20));
        table.poison();
        assert_eq!(handle.join().unwrap(), ArrivalResult::Poisoned);
        assert!(table.is_poisoned());
    }

    #[test]
    fn distinct_slots_do_not_interfere() {
        let table = LockstepTable::new(1);
        assert_eq!(
            table.arrive(
                (0, 0),
                0,
                cmp(Sysno::Write, b"a"),
                Duration::from_millis(20)
            ),
            ArrivalResult::Consistent
        );
        assert_eq!(
            table.arrive((1, 0), 0, cmp(Sysno::Open, b"b"), Duration::from_millis(20)),
            ArrivalResult::Consistent
        );
        assert_eq!(table.live_slots(), 2);
    }

    #[test]
    fn shards_partition_slots_by_thread_index() {
        let table = LockstepTable::with_shards(1, 4);
        assert_eq!(table.shard_count(), 4);
        for thread in 0..8usize {
            let _ = table.arrive(
                (thread, 0),
                0,
                cmp(Sysno::Write, b"s"),
                Duration::from_millis(10),
            );
        }
        // Threads 0..8 over 4 shards: two live slots in every shard.
        assert_eq!(table.live_slots_per_shard(), vec![2, 2, 2, 2]);
        assert_eq!(table.shard_of(5), table.shard_of(1));
        assert_ne!(table.shard_of(5), table.shard_of(2));
    }

    #[test]
    fn single_shard_table_behaves_like_the_unsharded_original() {
        let table = Arc::new(LockstepTable::with_shards(2, 1));
        assert_eq!(table.shard_count(), 1);
        let t2 = Arc::clone(&table);
        let handle = std::thread::spawn(move || {
            t2.arrive((7, 3), 1, cmp(Sysno::Open, b""), Duration::from_secs(2))
        });
        std::thread::sleep(Duration::from_millis(10));
        let r0 = table.arrive((7, 3), 0, cmp(Sysno::Open, b""), Duration::from_secs(2));
        assert_eq!(r0, ArrivalResult::Consistent);
        assert_eq!(handle.join().unwrap(), ArrivalResult::Consistent);
    }

    #[test]
    fn poison_wakes_waiters_in_every_shard() {
        let table = Arc::new(LockstepTable::with_shards(2, 4));
        let mut handles = Vec::new();
        for thread in 0..4usize {
            let t = Arc::clone(&table);
            handles.push(std::thread::spawn(move || {
                t.arrive(
                    (thread, 0),
                    0,
                    cmp(Sysno::Write, b"x"),
                    Duration::from_secs(10),
                )
            }));
        }
        std::thread::sleep(Duration::from_millis(30));
        table.poison();
        for h in handles {
            assert_eq!(h.join().unwrap(), ArrivalResult::Poisoned);
        }
    }

    #[test]
    fn consume_defers_reclaim_while_a_waiter_is_blocked() {
        // Regression test for the reclaim race: a slot consumed by every
        // variant while an `arrive` waiter is still blocked on it must stay
        // alive until the waiter leaves — with the old code the waiter's
        // re-lookup panicked on the vanished slot.
        let table = Arc::new(LockstepTable::new(2));
        let t2 = Arc::clone(&table);
        let waiter = std::thread::spawn(move || {
            t2.arrive(
                (0, 0),
                0,
                cmp(Sysno::Write, b"x"),
                Duration::from_millis(300),
            )
        });
        std::thread::sleep(Duration::from_millis(50));
        // Both variants consume the slot out from under the blocked waiter.
        table.consume((0, 0), 0);
        table.consume((0, 0), 1);
        assert_eq!(
            table.live_slots(),
            1,
            "slot must survive while the waiter holds it"
        );
        // The waiter times out cleanly (variant 1 never arrived) instead of
        // panicking, and reclaims the slot on its way out.
        assert_eq!(waiter.join().unwrap(), ArrivalResult::Timeout(vec![0]));
        assert_eq!(table.live_slots(), 0);
    }

    #[test]
    fn empty_batch_resolves_to_nothing() {
        let table = LockstepTable::new(2);
        assert!(table
            .arrive_batch(0, &[], Duration::from_millis(10))
            .is_empty());
        assert_eq!(table.live_slots(), 0);
    }

    #[test]
    fn single_variant_batch_is_immediately_consistent() {
        let table = LockstepTable::new(1);
        let batch: Vec<BatchArrival> = (0..4u64)
            .map(|seq| BatchArrival {
                key: (0, seq),
                cmp: cmp(Sysno::Brk, b""),
            })
            .collect();
        let results = table.arrive_batch(0, &batch, Duration::from_millis(50));
        assert_eq!(results, vec![ArrivalResult::Consistent; 4]);
        for seq in 0..4u64 {
            table.consume((0, seq), 0);
        }
        assert_eq!(table.live_slots(), 0);
    }

    #[test]
    fn two_variants_batch_rendezvous_and_agree() {
        let table = Arc::new(LockstepTable::new(2));
        let batch: Vec<BatchArrival> = (0..8u64)
            .map(|seq| BatchArrival {
                key: (0, seq),
                cmp: cmp(Sysno::Brk, &[seq as u8]),
            })
            .collect();
        let t2 = Arc::clone(&table);
        let b2 = batch.clone();
        let handle = std::thread::spawn(move || t2.arrive_batch(1, &b2, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        let r0 = table.arrive_batch(0, &batch, Duration::from_secs(5));
        let r1 = handle.join().unwrap();
        assert_eq!(r0, vec![ArrivalResult::Consistent; 8]);
        assert_eq!(r1, vec![ArrivalResult::Consistent; 8]);
        for seq in 0..8u64 {
            table.consume((0, seq), 0);
            table.consume((0, seq), 1);
        }
        assert_eq!(table.live_slots(), 0);
    }

    #[test]
    fn mid_batch_mismatch_reports_the_exact_slot_and_spares_the_rest() {
        // Key 2 of 5 diverges; the batch must pin the mismatch to exactly
        // that slot while the other four keys still resolve Consistent —
        // identical to what five sequential `arrive` calls would report.
        let table = Arc::new(LockstepTable::new(2));
        let mk = |variant: usize| -> Vec<BatchArrival> {
            (0..5u64)
                .map(|seq| BatchArrival {
                    key: (0, seq),
                    cmp: if seq == 2 && variant == 1 {
                        cmp(Sysno::Mprotect, b"evil")
                    } else {
                        cmp(Sysno::Brk, &[seq as u8])
                    },
                })
                .collect()
        };
        let t2 = Arc::clone(&table);
        let handle = std::thread::spawn(move || t2.arrive_batch(1, &mk(1), Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(10));
        let r0 = table.arrive_batch(0, &mk(0), Duration::from_secs(5));
        let r1 = handle.join().unwrap();
        for results in [&r0, &r1] {
            for (seq, result) in results.iter().enumerate() {
                if seq == 2 {
                    assert!(
                        matches!(result, ArrivalResult::Mismatch(1, _, _)),
                        "key 2 must be the mismatch, got {result:?}"
                    );
                } else {
                    assert_eq!(result, &ArrivalResult::Consistent, "key {seq}");
                }
            }
        }
        for seq in 0..5u64 {
            table.consume((0, seq), 0);
            table.consume((0, seq), 1);
        }
        assert_eq!(table.live_slots(), 0);
    }

    #[test]
    fn poison_unblocks_a_batched_waiter() {
        let table = Arc::new(LockstepTable::new(2));
        let batch: Vec<BatchArrival> = (0..3u64)
            .map(|seq| BatchArrival {
                key: (0, seq),
                cmp: cmp(Sysno::Brk, b""),
            })
            .collect();
        let t2 = Arc::clone(&table);
        let handle =
            std::thread::spawn(move || t2.arrive_batch(0, &batch, Duration::from_secs(10)));
        std::thread::sleep(Duration::from_millis(20));
        table.poison();
        assert_eq!(
            handle.join().unwrap(),
            vec![ArrivalResult::Poisoned; 3],
            "poison must resolve every unresolved key of the batch"
        );
    }

    #[test]
    fn partial_batch_resolution_releases_each_waiter_exactly_once() {
        // The waiter-refcount audit test: variant 1 arrives at only the
        // first key of variant 0's three-key batch and then never again.
        // The first key resolves long before the deadline, the other two
        // time out — and every registration must be released exactly once:
        // a double release would underflow (panic) or corrupt the refcount
        // so the resolved slot either vanishes under variant 1 or leaks.
        let table = Arc::new(LockstepTable::new(2));
        let batch: Vec<BatchArrival> = (0..3u64)
            .map(|seq| BatchArrival {
                key: (7, seq),
                cmp: cmp(Sysno::Brk, &[seq as u8]),
            })
            .collect();
        let t2 = Arc::clone(&table);
        let batcher =
            std::thread::spawn(move || t2.arrive_batch(0, &batch, Duration::from_millis(400)));
        std::thread::sleep(Duration::from_millis(50));
        let r1 = table.arrive((7, 0), 1, cmp(Sysno::Brk, &[0]), Duration::from_secs(5));
        assert_eq!(r1, ArrivalResult::Consistent);
        let r0 = batcher.join().unwrap();
        assert_eq!(
            r0,
            vec![
                ArrivalResult::Consistent,
                ArrivalResult::Timeout(vec![0]),
                ArrivalResult::Timeout(vec![0]),
            ]
        );
        // With the refcounts balanced, consuming every key from both sides
        // reclaims everything; a leaked registration would pin a slot alive.
        for seq in 0..3u64 {
            table.consume((7, seq), 0);
            table.consume((7, seq), 1);
        }
        assert_eq!(table.live_slots(), 0, "a waiter registration leaked");
    }

    #[test]
    fn batch_interoperates_with_single_arrivals() {
        // One variant batches while the other rendezvouses key by key; the
        // two APIs must meet in the same slots.
        let table = Arc::new(LockstepTable::new(2));
        let batch: Vec<BatchArrival> = (0..6u64)
            .map(|seq| BatchArrival {
                key: (0, seq),
                cmp: cmp(Sysno::Brk, &[seq as u8]),
            })
            .collect();
        let t2 = Arc::clone(&table);
        let handle = std::thread::spawn(move || t2.arrive_batch(0, &batch, Duration::from_secs(5)));
        for seq in 0..6u64 {
            let r = table.arrive(
                (0, seq),
                1,
                cmp(Sysno::Brk, &[seq as u8]),
                Duration::from_secs(5),
            );
            assert_eq!(r, ArrivalResult::Consistent);
        }
        assert_eq!(handle.join().unwrap(), vec![ArrivalResult::Consistent; 6]);
        for seq in 0..6u64 {
            table.consume((0, seq), 0);
            table.consume((0, seq), 1);
        }
        assert_eq!(table.live_slots(), 0);
    }

    #[test]
    #[should_panic(expected = "one rendezvous shard")]
    fn batch_spanning_shards_panics() {
        let table = LockstepTable::with_shards(2, 4);
        let batch = vec![
            BatchArrival {
                key: (0, 0),
                cmp: cmp(Sysno::Brk, b""),
            },
            BatchArrival {
                key: (1, 0),
                cmp: cmp(Sysno::Brk, b""),
            },
        ];
        let _ = table.arrive_batch(0, &batch, Duration::from_millis(10));
    }

    #[test]
    fn try_arrive_resolves_like_the_blocking_path() {
        let table = LockstepTable::new(2);
        // First variant: pending with a token.
        let token = match table.try_arrive((0, 0), 0, cmp(Sysno::Brk, b"x"), Duration::from_secs(5))
        {
            TryArrive::Pending(t) => t,
            TryArrive::Ready(r) => panic!("must be pending, got {r:?}"),
        };
        assert_eq!(token.key(), (0, 0));
        // Still pending before the peer arrives.
        let token = table.poll_arrival(token).expect_err("still pending");
        // Second variant completes the rendezvous synchronously at deposit.
        match table.try_arrive((0, 0), 1, cmp(Sysno::Brk, b"x"), Duration::from_secs(5)) {
            TryArrive::Ready(ArrivalResult::Consistent) => {}
            other => panic!("peer deposit must resolve Ready(Consistent), got {other:?}"),
        }
        assert_eq!(table.poll_arrival(token), Ok(ArrivalResult::Consistent));
        table.consume((0, 0), 0);
        table.consume((0, 0), 1);
        assert_eq!(table.live_slots(), 0, "poll released its registration");
    }

    #[test]
    fn poll_timeout_reports_the_same_arrivals_as_blocking() {
        let table = LockstepTable::new(3);
        let token =
            match table.try_arrive((0, 0), 1, cmp(Sysno::Brk, b"x"), Duration::from_millis(30)) {
                TryArrive::Pending(t) => t,
                TryArrive::Ready(r) => panic!("must be pending, got {r:?}"),
            };
        std::thread::sleep(Duration::from_millis(60));
        // Same verdict shape the blocking arrive reports on its deadline:
        // the list of variants that did arrive.
        assert_eq!(
            table.poll_arrival(token),
            Ok(ArrivalResult::Timeout(vec![1]))
        );
    }

    #[test]
    fn poison_resolves_pending_polls() {
        let table = LockstepTable::new(2);
        let token = match table.try_arrive((0, 0), 0, cmp(Sysno::Brk, b"x"), Duration::from_secs(5))
        {
            TryArrive::Pending(t) => t,
            TryArrive::Ready(r) => panic!("must be pending, got {r:?}"),
        };
        table.poison();
        assert_eq!(table.poll_arrival(token), Ok(ArrivalResult::Poisoned));
        // New deposits resolve poisoned immediately, with no token escaping.
        match table.try_arrive((0, 1), 0, cmp(Sysno::Brk, b"x"), Duration::from_secs(5)) {
            TryArrive::Ready(ArrivalResult::Poisoned) => {}
            other => panic!("deposit on a poisoned table must be Ready(Poisoned), got {other:?}"),
        }
    }

    #[test]
    fn try_batch_mirrors_arrive_batch_verdicts() {
        let table = Arc::new(LockstepTable::new(2));
        let mk = |variant: usize| -> Vec<BatchArrival> {
            (0..4u64)
                .map(|seq| BatchArrival {
                    key: (0, seq),
                    cmp: if seq == 2 && variant == 1 {
                        cmp(Sysno::Mprotect, b"evil")
                    } else {
                        cmp(Sysno::Brk, &[seq as u8])
                    },
                })
                .collect()
        };
        // Variant 0 deposits first: everything pends.
        let token = match table.try_arrive_batch(0, &mk(0), Duration::from_secs(5)) {
            TryBatch::Pending(t) => t,
            TryBatch::Ready(r) => panic!("must be pending, got {r:?}"),
        };
        let token = table.poll_batch(token).expect_err("still pending");
        // Variant 1's deposit completes every slot at deposit time.
        let r1 = match table.try_arrive_batch(1, &mk(1), Duration::from_secs(5)) {
            TryBatch::Ready(r) => r,
            TryBatch::Pending(_) => panic!("peer deposit must resolve the whole batch"),
        };
        let r0 = table.poll_batch(token).expect("resolved");
        for results in [&r0, &r1] {
            for (seq, result) in results.iter().enumerate() {
                if seq == 2 {
                    assert!(matches!(result, ArrivalResult::Mismatch(1, _, _)));
                } else {
                    assert_eq!(result, &ArrivalResult::Consistent);
                }
            }
        }
        for seq in 0..4u64 {
            table.consume((0, seq), 0);
            table.consume((0, seq), 1);
        }
        assert_eq!(table.live_slots(), 0, "batch polls released every waiter");
    }

    #[test]
    fn try_wait_outcome_polls_to_the_published_value() {
        let table = LockstepTable::new(2);
        let token = match table.try_wait_outcome((1, 5), Duration::from_secs(5)) {
            TryOutcome::Pending(t) => t,
            TryOutcome::Ready(r) => panic!("must be pending, got {r:?}"),
        };
        assert_eq!(token.key(), (1, 5));
        let token = table.poll_outcome(token).expect_err("still pending");
        table.publish_outcome((1, 5), SyscallOutcome::ok(42), Some(9));
        assert_eq!(
            table.poll_outcome(token),
            Ok(Some((SyscallOutcome::ok(42), Some(9))))
        );
        // An expired wait with nothing published reports `None`, like the
        // blocking path.
        let token = match table.try_wait_outcome((2, 0), Duration::from_millis(20)) {
            TryOutcome::Pending(t) => t,
            TryOutcome::Ready(r) => panic!("must be pending, got {r:?}"),
        };
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(table.poll_outcome(token), Ok(None));
    }

    #[test]
    fn observers_are_raised_on_deposits_and_publishes() {
        let table = LockstepTable::new(2);
        let waker = Arc::new(PollWaker::new());
        table.register_observer(Arc::clone(&waker));
        let e0 = waker.epoch();
        let _ = table.try_arrive((0, 0), 0, cmp(Sysno::Brk, b"x"), Duration::from_secs(1));
        assert!(waker.epoch() > e0, "a deposit must raise the waker");
        let e1 = waker.epoch();
        table.publish_outcome((0, 1), SyscallOutcome::ok(0), None);
        assert!(waker.epoch() > e1, "a publish must raise the waker");
        let e2 = waker.epoch();
        table.poison();
        assert!(waker.epoch() > e2, "poison must raise the waker");
    }

    /// Runs `wait` on its own thread and returns once it has spent its
    /// yield budget and parked on `key`'s shard.
    fn parked<T: Send + 'static>(
        table: &Arc<LockstepTable>,
        key: SlotKey,
        wait: impl FnOnce(&LockstepTable) -> T + Send + 'static,
    ) -> std::thread::JoinHandle<T> {
        let t = Arc::clone(table);
        let handle = std::thread::spawn(move || wait(&t));
        while !table.shard(key).changed.has_waiters() {
            std::thread::yield_now();
        }
        handle
    }

    /// Joins a parked waiter, asserting that `event` woke it within 50 ms.
    fn woken<T>(waiter: std::thread::JoinHandle<T>, event: impl FnOnce()) -> T {
        let started = Instant::now();
        event();
        let result = waiter.join().unwrap();
        let took = started.elapsed();
        assert!(took < Duration::from_millis(50), "woken after {took:?}");
        result
    }

    #[test]
    fn every_state_change_wakes_a_parked_waiter() {
        const LONG: Duration = Duration::from_secs(10);
        let key = (0, 0);
        let fresh = || Arc::new(LockstepTable::new(2));
        let arrival = move |t: &LockstepTable| t.arrive(key, 0, cmp(Sysno::Brk, b""), LONG);

        let table = fresh();
        let result = woken(parked(&table, key, arrival), || {
            let _ = table.try_arrive(key, 1, cmp(Sysno::Brk, b""), LONG);
        });
        assert_eq!(result, ArrivalResult::Consistent, "deposit");

        let table = fresh();
        let result = woken(parked(&table, key, arrival), || table.poison());
        assert_eq!(result, ArrivalResult::Poisoned, "poison");

        // The sweep completes the rendezvous without the quarantined peer.
        let table = fresh();
        let result = woken(parked(&table, key, arrival), || {
            table.quarantine(1);
        });
        assert_eq!(result, ArrivalResult::Consistent, "quarantine");

        let table = fresh();
        let waiter = parked(&table, key, move |t| t.wait_outcome(key, LONG));
        let result = woken(waiter, || {
            table.publish_outcome(key, SyscallOutcome::ok(7), None)
        });
        assert_eq!(result, Some((SyscallOutcome::ok(7), None)), "publish");

        // Re-admission changes no slot; a waiter sees it through its condition.
        let table = fresh();
        table.quarantine(1);
        let waiter = parked(&table, key, move |t| t.wait_on(key.0, || t.is_active(1)));
        woken(waiter, || table.readmit(1));
    }

    #[test]
    fn blocking_and_polling_faces_attribute_timeouts_identically() {
        // One schedule on both faces: variant 1 of 3 arrives alone at a
        // single key and at a two-key batch, and nobody ever publishes.
        let short = Duration::from_millis(30);
        let (single, key) = ((1, 0), cmp(Sysno::Brk, b"x"));
        let batch: Vec<BatchArrival> = (1..3u64)
            .map(|seq| BatchArrival {
                key: (1, seq),
                cmp: cmp(Sysno::Brk, &[seq as u8]),
            })
            .collect();
        let blocking = LockstepTable::new(3);
        let arrived = blocking.arrive(single, 1, key.clone(), short);
        let batched = blocking.arrive_batch(1, &batch, short);
        let published = blocking.wait_outcome(single, short);
        assert_eq!(arrived, ArrivalResult::Timeout(vec![1]));

        let polling = LockstepTable::new(3);
        let TryArrive::Pending(arrival) = polling.try_arrive(single, 1, key, short) else {
            panic!("two peers are missing")
        };
        let TryBatch::Pending(deposit) = polling.try_arrive_batch(1, &batch, short) else {
            panic!("two peers are missing")
        };
        let TryOutcome::Pending(outcome) = polling.try_wait_outcome(single, short) else {
            panic!("nothing is published")
        };
        std::thread::sleep(short * 2);
        assert_eq!(polling.poll_arrival(arrival), Ok(arrived));
        assert_eq!(polling.poll_batch(deposit).expect("expired"), batched);
        assert_eq!(polling.poll_outcome(outcome), Ok(published));
        // A `ReplicationTimeout` report reads its `arrived` field here.
        assert_eq!(blocking.arrivals(single), vec![1]);
        assert_eq!(polling.arrivals(single), vec![1]);
    }

    #[test]
    fn batch_with_a_never_arriving_peer_releases_every_registration_once() {
        let table = Arc::new(LockstepTable::new(2));
        let batch: Vec<BatchArrival> = (0..3u64)
            .map(|seq| BatchArrival {
                key: (0, seq),
                cmp: cmp(Sysno::Brk, &[seq as u8]),
            })
            .collect();
        let waiter = parked(&table, (0, 0), move |t| {
            t.arrive_batch(0, &batch, Duration::from_millis(200))
        });
        // Fully consumed under the parked waiter: only its registrations
        // keep the slots alive, so a leaked one pins a slot for good and a
        // doubly released one underflows the refcount.
        for seq in 0..3u64 {
            table.consume((0, seq), 0);
            table.consume((0, seq), 1);
        }
        assert_eq!(table.live_slots(), 3);
        let results = waiter.join().unwrap();
        assert_eq!(results, vec![ArrivalResult::Timeout(vec![0]); 3]);
        assert_eq!(table.live_slots(), 0);
    }

    /// Spare shells in `key`'s shard.
    fn spares(table: &LockstepTable, key: SlotKey) -> usize {
        table.shard(key).slots.lock().spare.len()
    }

    /// Checks that `table` holds no live slot and one spare shell, issues
    /// that shell for `next` by publishing to it, asserts the slot reads as
    /// fresh, and retires it.
    fn assert_reissued_fresh(table: &LockstepTable, next: SlotKey) {
        assert_eq!(table.live_slots(), 0, "the shell's slot was reclaimed");
        assert_eq!(spares(table, next), 1, "the reclaimed shell is spare");
        table.publish_outcome(next, SyscallOutcome::ok(1), None);
        assert_eq!(spares(table, next), 0, "the spare shell was reissued");
        {
            let slots = table.shard(next).slots.lock();
            let slot = slots.get(next).expect("the reissued slot is live");
            assert_eq!(slot.keys.len(), table.variants());
            assert!(slot.keys.iter().all(Option::is_none), "stale key");
            assert!(!slot.mismatch, "stale mismatch");
            assert_eq!(slot.outcome, Some(SyscallOutcome::ok(1)));
            assert_eq!(slot.timestamp, None, "stale timestamp");
            assert_eq!((slot.consumed, slot.consumed_mask), (0, 0));
            assert_eq!(slot.waiters, 0, "stale waiter count");
            let active = table.active_mask.load(Ordering::SeqCst);
            assert_eq!(slot.mask, active);
            assert_eq!(slot.expected, active.count_ones() as usize);
        }
        for variant in 0..table.variants() {
            table.consume(next, variant);
        }
        assert_eq!(table.live_slots(), 0);
    }

    fn pending(deposit: TryArrive) -> ArrivalToken {
        match deposit {
            TryArrive::Pending(token) => token,
            TryArrive::Ready(r) => panic!("must be pending, got {r:?}"),
        }
    }

    #[test]
    fn shell_reclaimed_after_a_mismatch_is_reissued_fresh() {
        let table = LockstepTable::new(2);
        let key = (0, 0);
        let long = Duration::from_secs(5);
        let token = pending(table.try_arrive(key, 0, cmp(Sysno::Brk, b"a"), long));
        let peer = table.try_arrive(key, 1, cmp(Sysno::Mprotect, b"b"), long);
        assert!(matches!(
            peer,
            TryArrive::Ready(ArrivalResult::Mismatch(..))
        ));
        assert!(matches!(
            table.poll_arrival(token),
            Ok(ArrivalResult::Mismatch(..))
        ));
        table.consume(key, 0);
        table.consume(key, 1);
        assert_reissued_fresh(&table, (0, 1));
    }

    #[test]
    fn shell_reclaimed_after_a_timeout_is_reissued_fresh() {
        let table = LockstepTable::new(2);
        let key = (0, 0);
        let short = Duration::from_millis(10);
        let token = pending(table.try_arrive(key, 0, cmp(Sysno::Brk, b"a"), short));
        std::thread::sleep(short * 2);
        assert_eq!(
            table.poll_arrival(token),
            Ok(ArrivalResult::Timeout(vec![0]))
        );
        table.consume(key, 0);
        table.consume(key, 1);
        assert_reissued_fresh(&table, (0, 1));
    }

    #[test]
    fn shell_reclaimed_by_a_quarantine_sweep_is_reissued_fresh() {
        // Variant 1 mismatches and never consumes; the sweep that drops it
        // leaves the slot fully consumed and reclaims it.
        let table = LockstepTable::new(3);
        let key = (0, 0);
        let long = Duration::from_secs(5);
        let first = pending(table.try_arrive(key, 0, cmp(Sysno::Brk, b"a"), long));
        let second = pending(table.try_arrive(key, 2, cmp(Sysno::Brk, b"a"), long));
        let odd = table.try_arrive(key, 1, cmp(Sysno::Mprotect, b"b"), long);
        assert!(matches!(
            odd,
            TryArrive::Ready(ArrivalResult::Mismatch(1, ..))
        ));
        for token in [first, second] {
            assert!(matches!(
                table.poll_arrival(token),
                Ok(ArrivalResult::Mismatch(1, ..))
            ));
        }
        table.consume(key, 0);
        table.consume(key, 2);
        assert_eq!(table.live_slots(), 1);
        assert!(table.quarantine(1));
        assert_reissued_fresh(&table, (0, 1));
    }

    #[test]
    fn shell_reclaimed_after_a_timestamped_publish_is_reissued_fresh() {
        let table = LockstepTable::new(2);
        let key = (0, 0);
        table.publish_outcome(
            key,
            SyscallOutcome::ok_with_payload(3, b"abc".to_vec()),
            Some(9),
        );
        table.consume(key, 0);
        table.consume(key, 1);
        assert_reissued_fresh(&table, (0, 1));
    }

    #[test]
    fn shell_reclaimed_after_a_readmission_is_reissued_fresh() {
        // The slot is issued while variant 2 is quarantined; the reissue
        // must expect all three again.
        let table = LockstepTable::new(3);
        let key = (0, 0);
        assert!(table.quarantine(2));
        table.publish_outcome(key, SyscallOutcome::ok(0), None);
        table.readmit(2);
        table.consume(key, 0);
        table.consume(key, 1);
        assert_reissued_fresh(&table, (0, 1));
    }

    #[test]
    fn spare_shells_are_capped_per_shard() {
        let table = LockstepTable::with_shards(1, 1);
        let n = SPARE_SHELLS as u64 + 8;
        for seq in 0..n {
            table.publish_outcome((0, seq), SyscallOutcome::ok(0), None);
        }
        for seq in 0..n {
            table.consume((0, seq), 0);
        }
        assert_eq!(table.live_slots(), 0);
        assert_eq!(spares(&table, (0, 0)), SPARE_SHELLS);
    }

    #[test]
    fn concurrent_rendezvous_across_shards_complete() {
        const VARIANTS: usize = 4;
        const THREADS: usize = 8;
        const OPS: u64 = 50;
        let table = Arc::new(LockstepTable::with_shards(VARIANTS, 4));
        let mut handles = Vec::new();
        for variant in 0..VARIANTS {
            for thread in 0..THREADS {
                let t = Arc::clone(&table);
                handles.push(std::thread::spawn(move || {
                    for seq in 0..OPS {
                        let r = t.arrive(
                            (thread, seq),
                            variant,
                            cmp(Sysno::Brk, b""),
                            Duration::from_secs(10),
                        );
                        assert_eq!(r, ArrivalResult::Consistent);
                        t.consume((thread, seq), variant);
                    }
                }));
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(table.live_slots(), 0);
    }
}
