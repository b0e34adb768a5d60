//! Property tests: the batched rendezvous (`try_arrive_batch`) is
//! observationally equivalent to the per-call rendezvous (`try_arrive`).
//! Each thread polls its pending tokens to a verdict (`poll_arrival`,
//! `poll_batch`), yielding between polls.
//!
//! For randomized per-thread call plans — including injected divergences —
//! and batch sizes swept over {1, 2, 8, 64}, every (variant, thread) must
//! observe the *same sequence* of [`ArrivalResult`]s from a run that
//! deposits its comparisons in batches as from one that rendezvouses call
//! by call, even though real OS threads race through the table in both
//! cases.  The derived verdicts must agree too: same divergence verdict,
//! same first-mismatch slot and blamed variant, and `live_slots() == 0`
//! once every variant has drained — mirroring `sharding_equivalence.rs`,
//! which pins the same property for the sharding axis.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mvee::core::lockstep::{
    ArrivalResult, BatchArrival, LockstepTable, SlotKey, TryArrive, TryBatch,
};
use mvee::kernel::syscall::{ComparisonKey, SyscallRequest, Sysno};

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

/// Deposits `variant`'s block and polls it until every key has a verdict.
fn batch_arrival(
    table: &LockstepTable,
    variant: usize,
    block: &[BatchArrival],
) -> Vec<ArrivalResult> {
    let mut token = match table.try_arrive_batch(variant, block, Duration::from_secs(10)) {
        TryBatch::Ready(results) => return results,
        TryBatch::Pending(token) => token,
    };
    loop {
        match table.poll_batch(token) {
            Ok(results) => return results,
            Err(pending) => token = pending,
        }
        std::thread::yield_now();
    }
}

/// The batch sizes the equivalence sweep covers; index 0 is the unbatched
/// baseline the others are compared against.
const BATCH_SIZES: [usize; 4] = [1, 2, 8, 64];

/// The comparison key thread `thread` of variant `variant` presents for its
/// `seq`-th call under op tag `tag`.  Tag 1 makes the *last* variant present
/// a divergent payload; every other tag is agreed upon by all variants.
fn key_for(tag: u8, thread: usize, seq: usize, variant: usize, variants: usize) -> ComparisonKey {
    let diverge = tag == 1 && variant == variants - 1;
    SyscallRequest::new(Sysno::Mprotect)
        .with_payload(&[tag, thread as u8, seq as u8, u8::from(diverge)])
        .comparison_key()
}

/// Runs `plan` (one op-tag vector per logical thread) through a table, all
/// variants' threads as real OS threads.  `batch == 1` deposits call by
/// call; larger sizes deposit the plan in `try_arrive_batch` blocks of up
/// to `batch` keys.  Returns the per-(variant, thread) sequences of
/// arrival results, with every slot consumed by every variant on the way
/// out (the "drain").
fn run_plan(batch: usize, variants: usize, plan: &[Vec<u8>]) -> Vec<Vec<ArrivalResult>> {
    let table = Arc::new(LockstepTable::new(variants));
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let table = Arc::clone(&table);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || {
                let mut results = Vec::new();
                for chunk_start in (0..plan[thread].len()).step_by(batch.max(1)) {
                    let chunk =
                        &plan[thread][chunk_start..(chunk_start + batch).min(plan[thread].len())];
                    if batch == 1 {
                        let seq = chunk_start;
                        let key = (thread, seq as u64);
                        let cmp = key_for(chunk[0], thread, seq, variant, variants);
                        results.push(arrival(&table, key, variant, cmp));
                        table.consume(key, variant);
                    } else {
                        let block: Vec<BatchArrival> = chunk
                            .iter()
                            .enumerate()
                            .map(|(i, &tag)| {
                                let seq = chunk_start + i;
                                BatchArrival {
                                    key: (thread, seq as u64),
                                    cmp: key_for(tag, thread, seq, variant, variants),
                                }
                            })
                            .collect();
                        results.extend(batch_arrival(&table, variant, &block));
                        for arrival in &block {
                            table.consume(arrival.key, variant);
                        }
                    }
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
    let results: Vec<Vec<ArrivalResult>> =
        collected.into_iter().map(|(_, results)| results).collect();
    assert_eq!(
        table.live_slots(),
        0,
        "batch={batch}: slots leaked after drain"
    );
    results
}

/// The divergence verdict a run's result sequences imply: the first
/// non-consistent result of each (variant, thread), as (thread, sequence,
/// blamed variant) for mismatches.
fn first_mismatches(
    results: &[Vec<ArrivalResult>],
    threads: usize,
) -> Vec<Option<(usize, usize, usize)>> {
    results
        .iter()
        .enumerate()
        .map(|(flat, seq_results)| {
            let thread = flat % threads;
            seq_results.iter().enumerate().find_map(|(seq, r)| match r {
                ArrivalResult::Mismatch(bad, _, _) => Some((thread, seq, *bad)),
                _ => None,
            })
        })
        .collect()
}

proptest! {
    /// Batched and unbatched tables produce identical `ArrivalResult`
    /// sequences — hence identical divergence verdicts and identical
    /// first-mismatch slot/variant — for randomized plans and thread
    /// interleavings at every swept batch size, and both reclaim every slot.
    #[test]
    fn batched_rendezvous_is_equivalent_to_unbatched(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..4, 1..7), 1..5),
        variants in 2usize..5,
        batch_idx in 1usize..4,
    ) {
        let batch = BATCH_SIZES[batch_idx];
        let unbatched = run_plan(BATCH_SIZES[0], variants, &plan);
        let batched = run_plan(batch, variants, &plan);
        prop_assert_eq!(
            first_mismatches(&unbatched, plan.len()),
            first_mismatches(&batched, plan.len())
        );
        prop_assert_eq!(unbatched, batched);
    }

    /// Divergence-free plans stay divergence free at every batch size: no
    /// batch boundary may manufacture a mismatch or a timeout.
    #[test]
    fn clean_plans_stay_clean_at_every_batch_size(
        ops in proptest::collection::vec(2u8..4, 1..25),
        variants in 2usize..5,
    ) {
        let plan = vec![ops];
        for &batch in &BATCH_SIZES {
            let results = run_plan(batch, variants, &plan);
            for per_thread in &results {
                prop_assert!(
                    per_thread.iter().all(|r| *r == ArrivalResult::Consistent),
                    "batch={} produced a spurious verdict: {:?}",
                    batch,
                    per_thread
                );
            }
        }
    }
}

/// Deterministic companion to the property: a mid-batch divergence at every
/// swept batch size must blame exactly the injected slot in both modes.
#[test]
fn injected_mid_plan_divergence_is_pinned_to_its_slot_at_every_batch_size() {
    // Tag 1 at position 3 of 7: the last variant diverges there.
    let plan = vec![vec![0u8, 2, 3, 1, 2, 0, 3]];
    let baseline = run_plan(1, 3, &plan);
    let expected = first_mismatches(&baseline, 1);
    assert_eq!(
        expected,
        vec![Some((0, 3, 2)); 3],
        "the baseline must blame variant 2 at slot (0, 3)"
    );
    for &batch in &BATCH_SIZES[1..] {
        let batched = run_plan(batch, 3, &plan);
        assert_eq!(
            first_mismatches(&batched, 1),
            expected,
            "batch={batch} moved the blame"
        );
        assert_eq!(batched, baseline, "batch={batch} changed a verdict");
    }
}
