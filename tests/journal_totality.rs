//! The journal decoders are total: whatever the bytes, `Journal::decode`,
//! `Journal::recover_from_bytes`, `journal::replay` and
//! `journal::recover_replay` return `Ok` or a typed error, and never panic
//! or allocate without bound.
//!
//! The inputs are arbitrary bytes (bare, and behind a valid header so the
//! record walk sees them), and valid journals of every record kind mutated
//! by byte flips, an overwritten length prefix and a cut.  On each input
//! the four readers must also agree where their contracts overlap: the
//! strict decode succeeds exactly when the salvage reports no damage, and
//! both replays equal `replay_journal` over what was decoded or salvaged.

use proptest::prelude::*;

use mvee::core::divergence::{DivergenceKind, DivergenceReport};
use mvee::core::journal::{
    recover_replay, replay, replay_journal, ClassKind, Journal, JournalHeader, JournalRecorder,
    ReplayError, JOURNAL_VERSION,
};
use mvee::kernel::syscall::{ComparisonKey, SyscallArg, SyscallOutcome, Sysno};
use mvee::kernel::Errno;

fn header(variants: u16) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        variants,
        threads: 2,
        shards: 1,
        batch: 1,
    }
}

/// xorshift64: any non-zero state works.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn key(rng: &mut Rng) -> ComparisonKey {
    let args = (0..rng.below(4))
        .map(|_| match rng.below(6) {
            0 => SyscallArg::Int(rng.next() as i64),
            1 => SyscallArg::Fd(rng.next() as i32),
            2 => SyscallArg::Flags(rng.next()),
            3 => SyscallArg::Pointer(rng.next()),
            4 => SyscallArg::Path(format!("/tmp/{}", rng.below(1000))),
            _ => SyscallArg::BufLen(rng.below(1 << 20) as usize),
        })
        .collect();
    ComparisonKey {
        no: [Sysno::Read, Sysno::Write, Sysno::Open, Sysno::Unknown(999)][rng.below(4) as usize],
        args,
        payload_digest: rng.next(),
        payload_len: rng.below(4096) as usize,
    }
}

fn report(rng: &mut Rng) -> DivergenceReport {
    let arrived: Vec<usize> = (0..rng.below(3)).map(|_| rng.below(4) as usize).collect();
    DivergenceReport {
        kind: match rng.below(4) {
            0 => DivergenceKind::SyscallMismatch {
                master: Sysno::Read,
                variant: Sysno::Write,
            },
            1 => DivergenceKind::RendezvousTimeout { arrived },
            2 => DivergenceKind::ReplicationTimeout {
                publisher: 0,
                arrived,
            },
            _ => DivergenceKind::PolicyViolation { call: Sysno::Open },
        },
        thread: rng.below(2) as usize,
        sequence: rng.below(8),
        variant: rng.below(3) as usize,
    }
}

/// A valid journal of `records` records of every kind, drawn from `seed`.
/// Slots, variants and orders are random, so its replay may well be
/// inconsistent; its bytes always decode.
fn valid_journal(seed: u64, records: usize) -> Vec<u8> {
    let mut rng = Rng(seed | 1);
    let rec = JournalRecorder::with_header(header(1 + rng.below(4) as u16));
    for _ in 0..records {
        let (variant, thread) = (rng.below(4) as usize, rng.below(2) as usize);
        match rng.below(7) {
            0 => rec.record_enter(variant, thread, thread, rng.below(2) == 0),
            1 => rec.record_class(ClassKind::Lockstep, thread),
            2 | 3 => rec.record_arrival(variant, thread, rng.below(8), 0, &key(&mut rng)),
            4 => {
                let outcome = SyscallOutcome {
                    result: if rng.below(2) == 0 {
                        Ok(rng.next() as i64)
                    } else {
                        Err(Errno::Einval)
                    },
                    payload: vec![0xA5; rng.below(40) as usize],
                };
                let timestamp = (rng.below(2) == 0).then(|| rng.next());
                rec.record_publish(thread, rng.below(8), timestamp, &outcome);
            }
            5 => rec.record_diverge(&report(&mut rng)),
            _ => rec.record_sync_op(variant, thread),
        }
    }
    rec.finish()
}

/// The byte offsets of the frames after the header, read off their length
/// prefixes.
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut at = 14;
    while at + 4 <= bytes.len() {
        offsets.push(at);
        at += 8 + u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
    }
    offsets
}

/// Feeds `bytes` to every reader; none may panic, and they must agree.
fn read_everywhere(bytes: &[u8]) {
    let decoded = Journal::decode(bytes);
    let salvaged = Journal::recover_from_bytes(bytes);
    match (&decoded, &salvaged) {
        (Ok(journal), Ok(salvaged)) => {
            assert_eq!(salvaged.damage, None);
            assert_eq!(&salvaged.journal, journal);
        }
        (Err(err), Ok(salvaged)) => assert_eq!(salvaged.damage.as_ref(), Some(err)),
        (Err(err), Err(header)) => assert_eq!(err, header),
        (Ok(_), Err(err)) => panic!("decoded, yet the salvage failed: {err:?}"),
    }
    let materialised = decoded
        .map_err(ReplayError::from)
        .and_then(|journal| replay_journal(&journal));
    assert_eq!(replay(bytes), materialised);
    match (recover_replay(bytes), salvaged) {
        (Ok(run), Ok(salvaged)) => {
            assert_eq!(run.records, salvaged.journal.records.len() as u64);
            assert_eq!(run.dropped_bytes, salvaged.dropped_bytes);
            assert_eq!(run.replay, replay_journal(&salvaged.journal));
        }
        (Err(in_place), Err(header)) => assert_eq!(in_place, header),
        (in_place, salvaged) => panic!("in place {in_place:?}, salvaged {salvaged:?}"),
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_read_without_panicking(
        bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        headed in any::<bool>(),
        variants in any::<u16>(),
    ) {
        read_everywhere(&bytes);
        if headed {
            let mut stream = JournalRecorder::with_header(header(variants)).finish();
            stream.truncate(14);
            stream.extend_from_slice(&bytes);
            read_everywhere(&stream);
        }
    }

    #[test]
    fn mutated_journals_are_read_without_panicking(
        seed in any::<u64>(),
        records in 0usize..40,
        flips in proptest::collection::vec((any::<u64>(), any::<u8>()), 0..4),
        prefix in (any::<bool>(), any::<u64>(), any::<u32>()),
        cut in any::<u64>(),
    ) {
        let mut bytes = valid_journal(seed, records);
        read_everywhere(&bytes);
        for (at, mask) in flips {
            let at = (at % bytes.len() as u64) as usize;
            bytes[at] ^= mask;
        }
        let (overwrite, frame, len) = prefix;
        let frames = frame_offsets(&bytes);
        if overwrite && !frames.is_empty() {
            let at = frames[(frame % frames.len() as u64) as usize];
            bytes[at..at + 4].copy_from_slice(&len.to_le_bytes());
        }
        read_everywhere(&bytes);
        let cut = (cut % (bytes.len() as u64 + 1)) as usize;
        read_everywhere(&bytes[..cut]);
    }
}
