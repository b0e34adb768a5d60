//! A steady-state rendezvous allocates nothing inside the lockstep table.
//!
//! A counting global allocator counts the allocations made by the measuring
//! thread only (the test harness's own threads allocate freely).  Both
//! variants' halves of every round run on that thread, through the table's
//! non-blocking face: a compared call (`try_arrive → poll_arrival →
//! consume`) and a replicated one (`publish_outcome → try_wait_outcome →
//! consume`).  Every comparison key and outcome is built before counting
//! starts, and outcomes carry no payload, so any allocation counted is the
//! table's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use mvee_core::lockstep::{ArrivalResult, LockstepTable, TryArrive, TryOutcome};
use mvee_kernel::syscall::{ComparisonKey, SyscallOutcome, SyscallRequest, Sysno};

struct CountingAllocator;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's own arguments;
// the counting touches only const-initialised thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations the current thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCATIONS.with(Cell::get)
}

const TIMEOUT: Duration = Duration::from_secs(20);

/// One round's inputs: both variants' comparison keys and the master's
/// outcome.
struct Round {
    keys: [ComparisonKey; 2],
    outcome: SyscallOutcome,
}

fn rounds(n: u64) -> Vec<Round> {
    (0..n)
        .map(|i| {
            let key = SyscallRequest::new(Sysno::Brk)
                .with_int(i as i64)
                .comparison_key();
            Round {
                keys: [key.clone(), key],
                outcome: SyscallOutcome::ok(i as i64),
            }
        })
        .collect()
}

/// Runs `rounds` through `table`, two sequence numbers each, starting at
/// `seq`.
fn drive(table: &LockstepTable, seq: u64, rounds: Vec<Round>) {
    for (i, round) in rounds.into_iter().enumerate() {
        let compared = (0, seq + 2 * i as u64);
        let [first, second] = round.keys;
        let TryArrive::Pending(token) = table.try_arrive(compared, 0, first, TIMEOUT) else {
            panic!("the first arrival waits for its peer");
        };
        let peer = table.try_arrive(compared, 1, second, TIMEOUT);
        assert!(matches!(peer, TryArrive::Ready(ArrivalResult::Consistent)));
        assert_eq!(table.poll_arrival(token), Ok(ArrivalResult::Consistent));
        table.consume(compared, 0);
        table.consume(compared, 1);

        let replicated = (0, compared.1 + 1);
        let value = round.outcome.result;
        table.publish_outcome(replicated, round.outcome, None);
        match table.try_wait_outcome(replicated, TIMEOUT) {
            TryOutcome::Ready(Some((outcome, None))) => assert_eq!(outcome.result, value),
            _ => panic!("the outcome was published"),
        }
        table.consume(replicated, 0);
        table.consume(replicated, 1);
    }
}

#[test]
fn steady_state_rendezvous_allocates_nothing() {
    const WARM_UP: u64 = 100;
    const ROUNDS: u64 = 10_000;
    let table = LockstepTable::new(2);
    drive(&table, 0, rounds(WARM_UP));
    let measured = rounds(ROUNDS);
    let allocations = allocations_in(|| drive(&table, 2 * WARM_UP, measured));
    assert_eq!(
        allocations, 0,
        "{allocations} allocations over {ROUNDS} two-variant rounds"
    );
    assert_eq!(table.live_slots(), 0);
}
