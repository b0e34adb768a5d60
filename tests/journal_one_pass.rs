//! The one-pass read side equals the materialised one.
//!
//! `journal::replay` walks and folds a byte stream in one streaming pass,
//! and a respawn salvages and replays the live recorder's stream in place
//! (`journal::recover_replay`).  Neither builds a `Vec<JournalRecord>`.
//! These tests hold both against the paths that do: `Journal::decode`
//! followed by `replay_journal`, and `Journal::recover_from_bytes`
//! followed by `replay_journal`.  The journal under test is a real
//! three-variant quarantine run (staged mismatch, degraded calls, respawn,
//! rejoined calls), read whole, cut at every byte and with single bytes
//! flipped near either end.  Every cut and flip must give the same run, or
//! the same error, on both paths.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mvee::core::config::RecoveryPolicy;
use mvee::core::journal::{
    recover_replay, replay, replay_journal, Journal, JournalRecorder, ReplayError,
};
use mvee::core::mvee::Mvee;
use mvee::core::{DivergenceKind, JournalMode};
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// Runs one phase on all three variants: `sync_ops` sync ops, then a
/// compared `mprotect` (variant 2's differs when `stage` is set) and a
/// replicated `gettimeofday`.  A variant the monitor refused stops there.
fn phase(mvee: &Arc<Mvee>, variants: &[usize], sync_ops: usize, stage: bool) {
    let handles: Vec<_> = variants
        .iter()
        .map(|&variant| {
            let mvee = Arc::clone(mvee);
            thread::spawn(move || {
                let port = mvee.thread_port(variant, 0);
                for _ in 0..sync_ops {
                    port.sync_op(0x1000, || ());
                }
                let len = if stage && variant == 2 { 666 } else { 4096 };
                if port
                    .syscall(&SyscallRequest::new(Sysno::Mprotect).with_int(len))
                    .is_ok()
                {
                    let _ = port.syscall(&SyscallRequest::new(Sysno::Gettimeofday));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("a phase thread panicked");
    }
}

/// Records a three-variant quarantine run with a respawn in the middle and
/// returns its finished journal.  Along the way, checks the respawn's
/// report against what the materialised salvage of the same stream says.
fn record_quarantine_run() -> Vec<u8> {
    let recorder = Arc::new(JournalRecorder::new());
    let mvee = Arc::new(
        Mvee::builder()
            .variants(3)
            .threads(1)
            .agent(AgentKind::Null)
            .journal(JournalMode::Record(Arc::clone(&recorder)))
            .recovery(RecoveryPolicy::quarantine())
            .snapshot_every(2)
            .lockstep_timeout(Duration::from_secs(10))
            .manual_clock(true)
            .build(),
    );
    phase(&mvee, &[0, 1, 2], 3, false);
    phase(&mvee, &[0, 1, 2], 1, true);
    assert_eq!(mvee.quarantined_variants(), vec![2]);
    phase(&mvee, &[0, 1], 2, false);

    // Quiescent: what the respawn will read in place is this stream.
    let before = Journal::recover_from_bytes(&recorder.finish()).expect("header intact");
    replay_journal(&before.journal).expect("the salvaged history replays");
    let snapshot = mvee
        .latest_snapshot(2)
        .expect("the agreed prefix took a snapshot");
    let report = mvee.respawn_variant(2).expect("respawn must succeed");
    assert_eq!(report.restored_sync_ops, Some(snapshot.sync_ops));
    assert_eq!(report.dropped_bytes, before.dropped_bytes);
    assert_eq!(
        report.replayed_records,
        before.journal.records.len() as u64 - snapshot.journal_records
    );

    phase(&mvee, &[0, 1, 2], 1, false);
    assert!(mvee.quarantined_variants().is_empty());
    assert_eq!(mvee.divergence(), None);
    recorder.finish()
}

/// Holds both one-pass readers of `bytes` against their materialised
/// twins.
fn assert_one_pass_matches(bytes: &[u8], what: &str) {
    let materialised = Journal::decode(bytes)
        .map_err(ReplayError::from)
        .and_then(|journal| replay_journal(&journal));
    assert_eq!(replay(bytes), materialised, "{what}: replay");

    match (recover_replay(bytes), Journal::recover_from_bytes(bytes)) {
        (Ok(run), Ok(salvaged)) => {
            assert_eq!(
                run.records,
                salvaged.journal.records.len() as u64,
                "{what}: records salvaged"
            );
            assert_eq!(run.dropped_bytes, salvaged.dropped_bytes, "{what}: dropped");
            assert_eq!(run.damage, salvaged.damage, "{what}: damage");
            assert_eq!(
                run.replay,
                replay_journal(&salvaged.journal),
                "{what}: salvaged replay"
            );
        }
        (Err(in_place), Err(materialised)) => {
            assert_eq!(in_place, materialised, "{what}: header damage");
        }
        (in_place, materialised) => {
            panic!("{what}: in place {in_place:?}, materialised {materialised:?}")
        }
    }
}

#[test]
fn the_recorded_quarantine_journal_replays_in_one_pass() {
    let bytes = record_quarantine_run();
    let run = replay(&bytes).expect("the quarantine journal replays");
    let report = run
        .divergence
        .as_ref()
        .expect("the staged mismatch is recorded");
    assert!(matches!(
        report.kind,
        DivergenceKind::SyscallMismatch { .. }
    ));
    assert_eq!(report.variant, 2);
    assert_one_pass_matches(&bytes, "whole");
    let in_place = recover_replay(&bytes).expect("header intact");
    assert_eq!(in_place.damage, None);
    assert_eq!(in_place.replay, Ok(run));
}

#[test]
fn every_cut_replays_like_the_materialised_path() {
    let bytes = record_quarantine_run();
    for cut in 0..=bytes.len() {
        assert_one_pass_matches(&bytes[..cut], &format!("cut at {cut}"));
    }
}

#[test]
fn every_byte_flip_near_either_end_replays_like_the_materialised_path() {
    let bytes = record_quarantine_run();
    let len = bytes.len();
    assert!(len > 512, "the run is long enough for two disjoint windows");
    let positions = (0..256).chain(len - 256..len);
    for at in positions {
        for mask in [0x01u8, 0x10, 0x80, 0xFF] {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            assert_one_pass_matches(&flipped, &format!("byte {at} ^ {mask:#04x}"));
        }
    }
}
