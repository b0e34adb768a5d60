//! Property tests: the sharded rendezvous table (`shards > 1`) is
//! observationally equivalent to the original global table (`shards = 1`).
//!
//! For randomized per-thread call plans — including injected divergences —
//! every (variant, thread) must observe the *same sequence* of
//! [`ArrivalResult`]s from a sharded table as from an unsharded one, even
//! though real OS threads race through the rendezvous in both cases.  The
//! same holds for the replication path (`publish_outcome` /
//! `try_wait_outcome`).  Each thread polls its pending tokens to a verdict
//! (`poll_arrival`, `poll_outcome`), yielding between polls.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mvee::core::lockstep::{ArrivalResult, LockstepTable, SlotKey, TryArrive, TryOutcome};
use mvee::kernel::syscall::{ComparisonKey, SyscallOutcome, SyscallRequest, Sysno};

/// Deposits `variant`'s arrival at `key` and polls it to its verdict.
fn arrival(
    table: &LockstepTable,
    key: SlotKey,
    variant: usize,
    cmp: ComparisonKey,
) -> ArrivalResult {
    let mut token = match table.try_arrive(key, variant, cmp, Duration::from_secs(10)) {
        TryArrive::Ready(result) => return result,
        TryArrive::Pending(token) => token,
    };
    loop {
        match table.poll_arrival(token) {
            Ok(result) => return result,
            Err(pending) => token = pending,
        }
        std::thread::yield_now();
    }
}

/// Polls `key`'s published outcome; `None` on timeout or poison.
fn outcome(table: &LockstepTable, key: SlotKey) -> Option<(SyscallOutcome, Option<u64>)> {
    let mut token = match table.try_wait_outcome(key, Duration::from_secs(1)) {
        TryOutcome::Ready(outcome) => return outcome,
        TryOutcome::Pending(token) => token,
    };
    loop {
        match table.poll_outcome(token) {
            Ok(outcome) => return outcome,
            Err(pending) => token = pending,
        }
        std::thread::yield_now();
    }
}

/// The comparison key thread `thread` of variant `variant` presents for its
/// `seq`-th call under op tag `tag`.  Tag 1 makes the *last* variant present
/// a divergent payload; every other tag is agreed upon by all variants.
fn key_for(tag: u8, thread: usize, seq: usize, variant: usize, variants: usize) -> ComparisonKey {
    let diverge = tag == 1 && variant == variants - 1;
    SyscallRequest::new(Sysno::Write)
        .with_payload(&[tag, thread as u8, seq as u8, u8::from(diverge)])
        .comparison_key()
}

/// Runs `plan` (one op-tag vector per logical thread) through a table with
/// the given shard count, all variants' threads as real OS threads, and
/// returns the per-(variant, thread) sequences of arrival results.
fn run_plan(shards: usize, variants: usize, plan: &[Vec<u8>]) -> Vec<Vec<ArrivalResult>> {
    let table = Arc::new(LockstepTable::with_shards(variants, shards));
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let table = Arc::clone(&table);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                let mut results = Vec::new();
                for (seq, &tag) in plan[thread].iter().enumerate() {
                    let key = (thread, seq as u64);
                    let cmp = key_for(tag, thread, seq, variant, variants);
                    results.push(arrival(&table, key, variant, cmp));
                    table.consume(key, variant);
                }
                ((variant, thread), results)
            }));
        }
    }
    let mut collected: Vec<((usize, usize), Vec<ArrivalResult>)> = handles
        .into_iter()
        .map(|h| h.join().expect("plan thread panicked"))
        .collect();
    collected.sort_by_key(|(id, _)| *id);
    collected.into_iter().map(|(_, results)| results).collect()
}

proptest! {
    /// Sharded and unsharded tables produce identical `ArrivalResult`
    /// sequences for randomized plans and thread interleavings, including
    /// injected mismatches.
    #[test]
    fn sharded_rendezvous_is_equivalent_to_unsharded(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..4, 1..7), 1..5),
        variants in 2usize..5,
        shards in 2usize..9,
    ) {
        let unsharded = run_plan(1, variants, &plan);
        let sharded = run_plan(shards, variants, &plan);
        prop_assert_eq!(unsharded, sharded);
    }

    /// The replication path delivers identical outcomes and timestamps from a
    /// sharded table and an unsharded one, and reclaims all slots either way.
    #[test]
    fn sharded_replication_is_equivalent_to_unsharded(
        values in proptest::collection::vec(0i64..1_000, 1..24),
        threads in 1usize..9,
        shards in 2usize..9,
    ) {
        let run = |shard_count: usize| {
            let table = LockstepTable::with_shards(2, shard_count);
            let mut observed = Vec::new();
            for (i, &v) in values.iter().enumerate() {
                let key = (i % threads, (i / threads) as u64);
                table.publish_outcome(key, SyscallOutcome::ok(v), Some(i as u64));
                observed.push(outcome(&table, key));
                table.consume(key, 0);
                table.consume(key, 1);
            }
            assert_eq!(table.live_slots(), 0, "shards={shard_count}: slots leaked");
            observed
        };
        prop_assert_eq!(run(1), run(shards));
    }
}
