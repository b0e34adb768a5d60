//! Property tests: the single-producer ring fast path is observationally
//! equivalent to the multi-producer CAS path.
//!
//! For randomized interleavings of pushes and per-reader cursor advances, a
//! ring built with [`RecordRing::new_spsc`] must behave *identically* to one
//! built with [`RecordRing::new`]: the same [`PushOutcome`] for every push
//! (including the back-pressure `Full` verdicts), the same stored records in
//! the same positions, the same cursor positions and the same backlogs.
//! The cached-minimum-reader optimization and the CAS-free store are pure
//! implementation differences; any divergence here is a lost or reordered
//! record in the agents' sync buffers.

use proptest::prelude::*;

use mvee_sync_agent::ring::{PushOutcome, RecordRing, SyncRecord};

/// One scripted step against both rings.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Try to push a record tagged with the step index.
    Push,
    /// Advance reader `r % readers` if it has backlog (a no-backlog advance
    /// would corrupt any ring, so the script never does it).
    Advance(usize),
}

fn steps_from_tags(tags: &[u8]) -> Vec<Step> {
    tags.iter()
        .map(|&t| {
            if t % 3 == 0 {
                Step::Advance((t / 3) as usize)
            } else {
                Step::Push
            }
        })
        .collect()
}

/// Drives `steps` against one ring, returning every observable: push
/// outcomes and, at the end, the published records and cursor positions.
fn drive(
    ring: &RecordRing,
    steps: &[Step],
) -> (Vec<PushOutcome>, Vec<Option<SyncRecord>>, Vec<u64>) {
    let mut outcomes = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Push => {
                let rec = SyncRecord::with_clock(1, 0x1000 + i as u64 * 8, i as u32, i as u64);
                outcomes.push(ring.try_push(rec));
            }
            Step::Advance(r) => {
                let reader = r % ring.readers();
                if ring.backlog(reader) > 0 {
                    ring.advance_reader(reader);
                }
            }
        }
    }
    let records = (0..ring.write_pos()).map(|p| ring.get(p)).collect();
    let cursors = (0..ring.readers()).map(|r| ring.reader_pos(r)).collect();
    (outcomes, records, cursors)
}

proptest! {
    /// SPSC and MPSC rings agree on every push outcome (stored position or
    /// `Full`), every published record and every cursor, for randomized
    /// push/advance scripts, capacities and reader counts.
    #[test]
    fn spsc_fast_path_is_equivalent_to_mpsc_path(
        tags in proptest::collection::vec(0u8..12, 1..120),
        cap_pow in 1u32..5,
        readers in 1usize..4,
    ) {
        let capacity = 1usize << cap_pow;
        let steps = steps_from_tags(&tags);
        let mpsc = RecordRing::new(capacity, readers);
        let spsc = RecordRing::new_spsc(capacity, readers);
        let (out_m, recs_m, cur_m) = drive(&mpsc, &steps);
        let (out_s, recs_s, cur_s) = drive(&spsc, &steps);
        prop_assert_eq!(out_m, out_s, "push outcomes diverged");
        prop_assert_eq!(recs_m, recs_s, "published records diverged");
        prop_assert_eq!(cur_m, cur_s, "reader cursors diverged");
        prop_assert_eq!(mpsc.write_pos(), spsc.write_pos());
        prop_assert_eq!(mpsc.min_reader_pos(), spsc.min_reader_pos());
        prop_assert_eq!(mpsc.has_space(), spsc.has_space());
    }

    /// Back-pressure is exact on both paths: a script that pushes
    /// `capacity` records with no advances fills either ring, and both
    /// report `Full` for every over-capacity push until the slowest reader
    /// moves.
    #[test]
    fn back_pressure_full_outcomes_match(
        cap_pow in 1u32..5,
        readers in 1usize..4,
        extra in 1usize..6,
    ) {
        let capacity = 1usize << cap_pow;
        for ring in [RecordRing::new(capacity, readers), RecordRing::new_spsc(capacity, readers)] {
            for i in 0..capacity as u64 {
                prop_assert_eq!(
                    ring.try_push(SyncRecord::simple(0, i)),
                    PushOutcome::Stored(i)
                );
            }
            for _ in 0..extra {
                prop_assert_eq!(
                    ring.try_push(SyncRecord::simple(0, 999)),
                    PushOutcome::Full
                );
            }
            // Every reader but one advances: still full (slowest gates).
            for r in 1..readers {
                ring.advance_reader(r);
            }
            if readers > 1 {
                prop_assert_eq!(
                    ring.try_push(SyncRecord::simple(0, 999)),
                    PushOutcome::Full
                );
            }
            ring.advance_reader(0);
            prop_assert_eq!(
                ring.try_push(SyncRecord::simple(0, 1000)),
                PushOutcome::Stored(capacity as u64)
            );
        }
    }
}

/// A record from arbitrary fields, with `edges` forcing some of them to
/// their maximum so the extremes of the packed `thread << 32 | clock` word
/// are always covered.
fn record_from((thread, addr, clock, time, edges): (u32, u64, u32, u64, u8)) -> SyncRecord {
    let pick32 = |bit: u8, v: u32| if edges & bit != 0 { u32::MAX } else { v };
    let pick64 = |bit: u8, v: u64| if edges & bit != 0 { u64::MAX } else { v };
    SyncRecord::with_clock(
        pick32(1, thread),
        pick64(2, addr),
        pick32(4, clock),
        pick64(8, time),
    )
}

proptest! {
    /// Every record comes back bit-exact from either ring flavour, across
    /// several wraps of an 8-slot ring: the slot packs `thread` and `clock`
    /// into one word, so neither may bleed into the other.
    #[test]
    fn packed_records_round_trip_bit_exact(
        fields in proptest::collection::vec(
            (any::<u32>(), any::<u64>(), any::<u32>(), any::<u64>(), any::<u8>()),
            17..80,
        ),
    ) {
        let records: Vec<SyncRecord> = fields.into_iter().map(record_from).collect();
        for ring in [RecordRing::new(8, 1), RecordRing::new_spsc(8, 1)] {
            for chunk in records.chunks(8) {
                let first = ring.write_pos();
                for &record in chunk {
                    prop_assert!(matches!(ring.try_push(record), PushOutcome::Stored(_)));
                }
                for (i, &record) in chunk.iter().enumerate() {
                    prop_assert_eq!(ring.get(first + i as u64), Some(record));
                    ring.advance_reader(0);
                }
            }
            prop_assert_eq!(ring.write_pos(), records.len() as u64);
        }
    }
}

/// Deterministic companion: a full wrap-around cycle (fill, drain, refill)
/// leaves both flavours with byte-identical observables.
#[test]
fn wraparound_cycle_is_identical_across_flavours() {
    let mpsc = RecordRing::new(8, 2);
    let spsc = RecordRing::new_spsc(8, 2);
    for ring in [&mpsc, &spsc] {
        for round in 0..5u64 {
            for i in 0..8u64 {
                assert_eq!(
                    ring.try_push(SyncRecord::simple(0, round * 100 + i)),
                    PushOutcome::Stored(round * 8 + i)
                );
            }
            assert_eq!(ring.try_push(SyncRecord::simple(0, 777)), PushOutcome::Full);
            for _ in 0..8 {
                ring.advance_reader(0);
                ring.advance_reader(1);
            }
        }
    }
    assert_eq!(mpsc.write_pos(), spsc.write_pos());
    for pos in 32..40u64 {
        assert_eq!(mpsc.get(pos), spsc.get(pos));
    }
}
