//! Fault injection against the divergence journal: torn files, bit rot and
//! variants dying mid-recording must each surface as a *typed* error (or a
//! faithful timeout report) — never a hang, a panic, or a bogus verdict.
//!
//! Every live-MVEE scenario runs under a watchdog: the failure mode these
//! tests guard against is a shutdown path that waits forever.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Duration;

use mvee::core::config::RecoveryPolicy;
use mvee::core::journal::{replay, Journal, JournalRecorder, ReplayError};
use mvee::core::mvee::Mvee;
use mvee::core::{DivergenceKind, JournalError, JournalMode};
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

const WATCHDOG: Duration = Duration::from_secs(30);

/// Runs `f` on a scenario thread and panics if it outlives the watchdog.
fn with_watchdog<T: Send + 'static>(label: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (done_tx, done_rx) = mpsc::channel();
    let scenario = thread::spawn(move || {
        let _ = done_tx.send(f());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            scenario.join().expect("scenario thread panicked");
            value
        }
        Err(_) => panic!("{label}: journal fault scenario deadlocked ({WATCHDOG:?})"),
    }
}

/// Records a real (clean) two-variant run and returns the journal bytes.
fn record_clean_run() -> Vec<u8> {
    let recorder = Arc::new(JournalRecorder::new());
    let mvee = Arc::new(
        Mvee::builder()
            .variants(2)
            .threads(1)
            .agent(AgentKind::Null)
            .journal(JournalMode::Record(Arc::clone(&recorder)))
            .lockstep_timeout(Duration::from_secs(10))
            .manual_clock(true)
            .build(),
    );
    let mut handles = Vec::new();
    for variant in 0..2 {
        let mvee = Arc::clone(&mvee);
        handles.push(thread::spawn(move || {
            let port = mvee.thread_port(variant, 0);
            for _ in 0..3 {
                port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                    .expect("clean run");
            }
            port.syscall(&SyscallRequest::new(Sysno::Gettimeofday))
                .expect("clean run");
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert!(mvee.divergence().is_none());
    recorder.finish()
}

#[test]
fn every_truncation_point_yields_a_typed_error() {
    let bytes = record_clean_run();
    for cut in 0..bytes.len() {
        match Journal::decode(&bytes[..cut]) {
            Err(
                JournalError::Truncated { .. }
                | JournalError::MissingEnd
                | JournalError::CorruptRecord { .. },
            ) => {}
            Ok(_) => panic!(
                "a {cut}-byte prefix of a {}-byte journal decoded",
                bytes.len()
            ),
            Err(other) => panic!("truncation at {cut} gave unexpected error {other:?}"),
        }
        // The replay layer wraps, never panics or hangs.
        assert!(matches!(
            replay(&bytes[..cut]),
            Err(ReplayError::Journal(_))
        ));
    }
}

#[test]
fn corrupted_record_bodies_fail_their_crc_with_the_right_index() {
    let bytes = record_clean_run();
    // Flip one bit in the first record's body (frame starts right after the
    // 14-byte header: 4 length bytes + 4 CRC bytes, body after that).
    let mut corrupt = bytes.clone();
    let body_at = 14 + 8;
    corrupt[body_at] ^= 0x40;
    match Journal::decode(&corrupt) {
        Err(JournalError::CorruptRecord {
            index: 0,
            offset: 14,
        }) => {}
        other => panic!("expected CorruptRecord at index 0, got {other:?}"),
    }

    // Same flip, somewhere in the middle of the stream: the reported index
    // must point at the damaged record, not at record zero.
    let mut corrupt = bytes.clone();
    let mut offset = 14usize;
    let mut index = 0u64;
    // Walk two frames forward, then damage the third record's body.
    for _ in 0..2 {
        let len = u32::from_le_bytes(corrupt[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
        index += 1;
    }
    corrupt[offset + 8] ^= 0x01;
    match Journal::decode(&corrupt) {
        Err(JournalError::CorruptRecord {
            index: i,
            offset: o,
        }) => {
            assert_eq!(i, index);
            assert_eq!(o, offset);
        }
        other => panic!("expected CorruptRecord at index {index}, got {other:?}"),
    }

    // Salvage decode keeps everything before the damage.
    let salvaged = Journal::recover_from_bytes(&corrupt).expect("header is intact");
    assert_eq!(salvaged.journal.records.len() as u64, index);
    assert!(matches!(
        salvaged.damage,
        Some(JournalError::CorruptRecord { .. })
    ));
}

#[test]
fn journal_without_end_trailer_is_torn_but_salvageable() {
    let bytes = record_clean_run();
    // Strip the End frame (its length lives 8+9 bytes from the stream end:
    // the End body is tag + u64 = 9 bytes plus the 8-byte frame header).
    let torn = &bytes[..bytes.len() - (8 + 9)];
    assert_eq!(Journal::decode(torn), Err(JournalError::MissingEnd));
    let recovered = Journal::recover_from_bytes(torn).expect("header is intact");
    assert_eq!(recovered.damage, Some(JournalError::MissingEnd));
    let salvaged = recovered.journal;
    // Every record before the tear survives, and the salvaged journal
    // replays cleanly after re-encoding (encode appends a fresh trailer).
    let full = Journal::decode(&bytes).unwrap();
    assert_eq!(salvaged.records, full.records);
    let run = replay(&salvaged.encode()).expect("salvaged journal must replay");
    assert!(run.divergence.is_none());
}

#[test]
fn mid_run_snapshots_are_always_decodable() {
    // `finish` is a snapshot, not a destructor: taken mid-run (here: while
    // more records keep arriving), each snapshot is a complete journal.
    let recorder = JournalRecorder::with_header(mvee::core::journal::JournalHeader {
        version: mvee::core::journal::JOURNAL_VERSION,
        variants: 2,
        threads: 1,
        shards: 1,
        batch: 1,
    });
    for i in 0..10u64 {
        recorder.record_sync_op(0, 0);
        let snapshot = recorder.finish();
        let journal = Journal::decode(&snapshot)
            .unwrap_or_else(|e| panic!("snapshot after {} records: {e}", i + 1));
        assert_eq!(journal.records.len() as u64, i + 1);
    }
}

/// A variant dies mid-batch while the run is being recorded: the survivor's
/// flush must time out with a rendezvous report (not hang), and replaying
/// the recorded journal must reproduce that exact report even though one
/// side's arrivals are missing.
#[test]
fn variant_killed_mid_batch_yields_a_replayable_timeout_report() {
    let (live, bytes) = with_watchdog("variant killed mid-batch", || {
        let recorder = Arc::new(JournalRecorder::new());
        let mvee = Arc::new(
            Mvee::builder()
                .variants(2)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(8)
                .journal(JournalMode::Record(Arc::clone(&recorder)))
                .lockstep_timeout(Duration::from_millis(200))
                .manual_clock(true)
                .build(),
        );
        let survivor = {
            let mvee = Arc::clone(&mvee);
            thread::spawn(move || {
                let port = mvee.thread_port(0, 0);
                // Defer a batch of comparisons, then force the flush with a
                // synchronous write; the peer never arrives.
                for _ in 0..3 {
                    let _ = port.syscall(&SyscallRequest::new(Sysno::Mprotect).with_int(4096));
                }
                port.syscall(
                    &SyscallRequest::new(Sysno::Write)
                        .with_fd(1)
                        .with_payload(b"flush"),
                )
            })
        };
        // Variant 1 "dies" before issuing anything: its thread just exits.
        let outcome = survivor.join().expect("survivor thread panicked");
        assert!(outcome.is_err(), "the flush must surface the timeout");
        let live = mvee.divergence().expect("timeout divergence report");
        (live, recorder.finish())
    });

    assert!(
        matches!(live.kind, DivergenceKind::RendezvousTimeout { .. }),
        "expected a rendezvous timeout, got {live:?}"
    );
    let run = replay(&bytes).expect("recorded timeout journal must replay");
    assert_eq!(run.divergence, Some(live));
    assert_eq!(run.header.batch, 8);
}

/// Builds a 3-variant journaled MVEE under the quarantine recovery policy
/// for the kill-and-respawn matrices.
fn recovery_mvee(
    recorder: &Arc<JournalRecorder>,
    batch: usize,
    snapshot_every: u64,
    timeout: Duration,
) -> Arc<Mvee> {
    let mut builder = Mvee::builder()
        .variants(3)
        .threads(1)
        .agent(AgentKind::Null)
        .batch(batch)
        .journal(JournalMode::Record(Arc::clone(recorder)))
        .recovery(RecoveryPolicy::quarantine())
        .lockstep_timeout(timeout)
        .manual_clock(true);
    if snapshot_every > 0 {
        builder = builder.snapshot_every(snapshot_every);
    }
    Arc::new(builder.build())
}

/// A variant killed *mid-batch* — its staged mismatch sits inside a
/// half-full deferred batch when the flush settles it — must be
/// quarantined, the survivors' flush and trailing calls must succeed, and
/// the quiesced table must hold no leaked rendezvous registrations.
#[test]
fn variant_killed_mid_batch_is_quarantined_and_survivors_settle() {
    let recorder = Arc::new(JournalRecorder::new());
    let mvee = recovery_mvee(&recorder, 8, 0, Duration::from_secs(10));
    with_watchdog("kill mid-batch under quarantine", {
        let mvee = Arc::clone(&mvee);
        move || {
            let mut handles = Vec::new();
            for variant in 0..3 {
                let mvee = Arc::clone(&mvee);
                handles.push(thread::spawn(move || {
                    let port = mvee.thread_port(variant, 0);
                    // Three deferred comparisons; the victim's middle one
                    // is the divergent twin (same call, different length).
                    for i in 0..3 {
                        let len = if variant == 2 && i == 1 { 666 } else { 4096 };
                        let r = port.syscall(&SyscallRequest::new(Sysno::Mprotect).with_int(len));
                        if variant == 2 && r.is_err() {
                            return (variant, false);
                        }
                    }
                    // The synchronous write flushes the half-full batch and
                    // settles the staged mismatch at the latest here.
                    let flush = port.syscall(
                        &SyscallRequest::new(Sysno::Write)
                            .with_fd(1)
                            .with_payload(b"flush"),
                    );
                    if variant == 2 && flush.is_err() {
                        return (variant, false);
                    }
                    // The degraded-call witness: counted after the
                    // quarantine landed.
                    (
                        variant,
                        port.syscall(&SyscallRequest::new(Sysno::Gettimeofday))
                            .is_ok(),
                    )
                }));
            }
            let mut done: Vec<(usize, bool)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            done.sort_by_key(|(v, _)| *v);
            done.into_iter().map(|(_, ok)| ok).collect::<Vec<bool>>()
        }
    });
    assert_eq!(mvee.divergence(), None, "quarantine keeps serving");
    assert_eq!(mvee.quarantined_variants(), vec![2]);
    assert!(matches!(
        mvee.quarantine_reports()[0].kind,
        DivergenceKind::SyscallMismatch { .. }
    ));
    assert_eq!(mvee.monitor().live_slots(), 0, "no leaked registrations");
    // The recorded journal still replays, and re-derives exactly the
    // verdict that triggered the quarantine — the victim's divergent
    // arrival is in the history, and replay does not trust verdicts.
    let run = replay(&recorder.finish()).expect("degraded journal must replay");
    assert_eq!(run.divergence.as_ref(), Some(&mvee.quarantine_reports()[0]));
    assert_eq!(run.stats.divergences, mvee.monitor_stats().divergences);
}

/// A variant that goes silent *mid-replicated-call* — it consumed one
/// replicated outcome, then never arrives again — must be quarantined via
/// the rendezvous timeout, and the survivors' blocked call must then
/// succeed against the reduced quorum instead of erroring out.
#[test]
fn variant_silent_mid_replicated_call_is_quarantined_by_timeout() {
    let recorder = Arc::new(JournalRecorder::new());
    let mvee = recovery_mvee(&recorder, 1, 0, Duration::from_millis(300));
    with_watchdog("silent death mid-replicated-call", {
        let mvee = Arc::clone(&mvee);
        move || {
            let mut handles = Vec::new();
            for variant in 0..3 {
                let mvee = Arc::clone(&mvee);
                handles.push(thread::spawn(move || {
                    let port = mvee.thread_port(variant, 0);
                    // Everyone joins one replicated call...
                    port.syscall(&SyscallRequest::new(Sysno::Gettimeofday))
                        .expect("the full quorum serves the first call");
                    if variant == 2 {
                        return; // ...then the victim dies silently.
                    }
                    // The survivors' synchronous write can only resolve by
                    // timing the absentee out into quarantine.
                    port.syscall(
                        &SyscallRequest::new(Sysno::Write)
                            .with_fd(1)
                            .with_payload(b"degraded"),
                    )
                    .expect("survivors must be re-resolved, not failed");
                }));
            }
            for h in handles {
                h.join().expect("scenario thread panicked");
            }
        }
    });
    assert_eq!(mvee.divergence(), None, "the run must keep serving");
    assert_eq!(mvee.quarantined_variants(), vec![2]);
    let report = &mvee.quarantine_reports()[0];
    assert!(
        matches!(report.kind, DivergenceKind::RendezvousTimeout { .. }),
        "silence is a timeout, not a mismatch: {report:?}"
    );
    assert_eq!(report.variant, 2, "the absentee is the blamed party");
    assert_eq!(mvee.monitor().live_slots(), 0);
}

/// A variant killed *during the snapshot interval* — after the last agreed
/// snapshot, before the next one lands — must respawn from that snapshot
/// and replay the journal suffix forward; the survivors' snapshots keep
/// advancing throughout.
#[test]
fn variant_killed_during_snapshot_write_respawns_from_the_last_snapshot() {
    let recorder = Arc::new(JournalRecorder::new());
    let mvee = recovery_mvee(&recorder, 1, 2, Duration::from_secs(10));
    let phase = |mvee: &Arc<Mvee>, sync_ops: usize, poison: bool| {
        let mut handles = Vec::new();
        for variant in 0..3 {
            let mvee = Arc::clone(mvee);
            handles.push(thread::spawn(move || {
                let port = mvee.thread_port(variant, 0);
                for _ in 0..sync_ops {
                    port.sync_op(0x1000, || ());
                }
                let len = if poison && variant == 2 { 666 } else { 4096 };
                let _ = port.syscall(&SyscallRequest::new(Sysno::Mprotect).with_int(len));
                let _ = port.syscall(&SyscallRequest::new(Sysno::Gettimeofday));
            }));
        }
        for h in handles {
            h.join().expect("phase thread panicked");
        }
    };
    with_watchdog("kill during snapshot write", {
        let mvee = Arc::clone(&mvee);
        move || {
            // An agreed prefix crossing the 2-op snapshot interval twice.
            phase(&mvee, 4, false);
            assert!(
                mvee.latest_snapshot(2).is_some(),
                "the agreed prefix must have installed a snapshot"
            );
            let agreed = mvee.latest_snapshot(2).unwrap().sync_ops;
            // One more sync op leaves the victim mid-interval — its next
            // snapshot is pending, never written — when the kill lands.
            phase(&mvee, 1, true);
            assert_eq!(mvee.quarantined_variants(), vec![2]);
            assert_eq!(mvee.divergence(), None);
            // Quiescent boundary: respawn restores the *last agreed*
            // snapshot, not the unwritten pending one.
            let report = mvee.respawn_variant(2).expect("respawn must succeed");
            assert_eq!(report.restored_sync_ops, Some(agreed));
            assert!(
                report.replayed_records > 0,
                "the journal suffix past the snapshot is the catch-up work"
            );
            assert_eq!(report.dropped_bytes, 0, "an in-proc journal is never torn");
            // The full quorum serves again.
            phase(&mvee, 1, false);
            assert!(mvee.quarantined_variants().is_empty() || mvee.divergence().is_none());
        }
    });
    assert!(mvee.quarantined_variants().is_empty());
    assert_eq!(mvee.monitor_stats().respawns, 1);
    assert_eq!(mvee.monitor().live_slots(), 0);
}

/// The torn-write regression for [`Journal::recover_from_bytes`]: a write
/// cut at *any* byte — mid-header, mid-frame, mid-trailer — must salvage
/// exactly the longest complete-frame prefix and account for every dropped
/// byte, so a respawn after a mid-write death reads truth, not garbage.
#[test]
fn torn_write_suffixes_are_salvaged_with_every_dropped_byte_accounted() {
    let bytes = record_clean_run();
    let full = Journal::decode(&bytes).unwrap();
    // Walk the frame boundaries (records start after the 14-byte header;
    // each frame is a 4-byte length + 4-byte CRC + body) so each cut's
    // expected salvage is known independently of the decoder under test.
    let mut boundaries = vec![14usize];
    let mut offset = 14usize;
    while offset < bytes.len() {
        let len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + len;
        boundaries.push(offset);
    }
    assert_eq!(*boundaries.last().unwrap(), bytes.len());
    for cut in 0..=bytes.len() {
        let torn = &bytes[..cut];
        if cut < 14 {
            assert!(
                Journal::recover_from_bytes(torn).is_err(),
                "a headerless stream ({cut} bytes) has nothing to salvage"
            );
            continue;
        }
        let recovered = Journal::recover_from_bytes(torn)
            .unwrap_or_else(|e| panic!("cut at {cut}: header is intact but salvage failed: {e}"));
        let whole_frames = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        // The final frame is the End trailer, so the salvageable record
        // count is capped by the real record count.
        let expect = whole_frames.min(full.records.len());
        assert_eq!(recovered.journal.records.len(), expect, "cut at {cut}");
        assert_eq!(&recovered.journal.records[..], &full.records[..expect]);
        assert_eq!(
            recovered.dropped_bytes,
            cut - boundaries[whole_frames],
            "cut at {cut}: the dropped suffix must be exactly the torn tail"
        );
        assert_eq!(
            recovered.damage.is_none(),
            cut == bytes.len(),
            "cut at {cut}: only the complete stream is undamaged"
        );
    }
}

/// A report contradicted by the recorded arrivals must be rejected as a
/// `VerdictMismatch` — replay re-derives verdicts, it does not trust them.
#[test]
fn tampered_verdicts_are_rejected_on_replay() {
    let recorder = JournalRecorder::with_header(mvee::core::journal::JournalHeader {
        version: mvee::core::journal::JOURNAL_VERSION,
        variants: 2,
        threads: 1,
        shards: 1,
        batch: 1,
    });
    let key = SyscallRequest::new(Sysno::Brk).with_int(0).comparison_key();
    // Both variants deposit identical keys...
    recorder.record_arrival(0, 0, 0, 0, &key);
    recorder.record_arrival(1, 0, 0, 0, &key);
    // ...but the journal claims they mismatched.
    recorder.record_diverge(&mvee::core::DivergenceReport {
        kind: DivergenceKind::SyscallMismatch {
            master: Sysno::Brk,
            variant: Sysno::Brk,
        },
        thread: 0,
        sequence: 0,
        variant: 1,
    });
    match replay(&recorder.finish()) {
        Err(ReplayError::VerdictMismatch { .. }) => {}
        other => panic!("expected VerdictMismatch, got {other:?}"),
    }
}
