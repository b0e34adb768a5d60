//! Property tests: replaying a recorded divergence journal re-derives the
//! live run exactly, with zero live variants.
//!
//! For randomized per-thread call plans, batch sizes ∈ {1, 8}, variant
//! counts ∈ {2, 8} and both transports (synchronous [`ThreadPort`]s and
//! async submission/completion rings), a run recorded through
//! [`JournalMode::Record`] and then replayed offline must reproduce the
//! live monitor statistics counter for counter, the clean/diverged verdict,
//! and — for divergent runs — the recorded report field for field (same
//! first-mismatch slot, same blamed variant, same kind).  The deterministic
//! companions pin the injected-mismatch report equivalence and the
//! [`Mvee::replay_recorded`] replay-mode front end.
//!
//! [`ThreadPort`]: mvee::core::port::ThreadPort
//! [`JournalMode::Record`]: mvee::core::JournalMode
//! [`Mvee::replay_recorded`]: mvee::core::mvee::Mvee::replay_recorded

use std::sync::Arc;

use proptest::prelude::*;

use mvee::core::config::{Pollers, Transport};
use mvee::core::journal::{replay, Journal, JournalRecorder};
use mvee::core::monitor::MonitorStats;
use mvee::core::mvee::Mvee;
use mvee::core::{DivergenceReport, JournalMode};
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The two transports under comparison; both must emit equivalent journals.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    Sync,
    Async,
}

/// The call an op tag stands for (identical across variants; the divergence
/// scenarios inject their mismatch explicitly).
fn req_for(tag: u8) -> SyscallRequest {
    match tag % 5 {
        0 => SyscallRequest::new(Sysno::Brk).with_int(0),
        1 => SyscallRequest::new(Sysno::Mmap).with_int(8192),
        2 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        3 => SyscallRequest::new(Sysno::Gettimeofday),
        _ => SyscallRequest::new(Sysno::SchedYield),
    }
}

fn build_recording_mvee(
    path: Path,
    variants: usize,
    threads: usize,
    batch: usize,
) -> (Mvee, Arc<JournalRecorder>) {
    let recorder = Arc::new(JournalRecorder::new());
    let transport = match path {
        Path::Sync => Transport::Sync,
        Path::Async => Transport::AsyncRings {
            depth: 8,
            pollers: Pollers::Pool(1),
        },
    };
    let mvee = Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .transport(transport)
        .journal(JournalMode::Record(Arc::clone(&recorder)))
        .lockstep_timeout(std::time::Duration::from_secs(10))
        .manual_clock(true)
        .build();
    (mvee, recorder)
}

/// Drives `plan` through a recording MVEE and returns the live stats, the
/// live divergence and the finished journal bytes.
fn run_recorded(
    path: Path,
    variants: usize,
    batch: usize,
    plan: &[Vec<u8>],
) -> (MonitorStats, Option<DivergenceReport>, Vec<u8>) {
    let (mvee, recorder) = build_recording_mvee(path, variants, plan.len(), batch);
    let mvee = Arc::new(mvee);
    let plan = Arc::new(plan.to_vec());
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..plan.len() {
            let mvee = Arc::clone(&mvee);
            let plan = Arc::clone(&plan);
            handles.push(std::thread::spawn(move || match path {
                Path::Sync => {
                    let port = mvee.thread_port(variant, thread);
                    for &tag in &plan[thread] {
                        let _ = port.syscall(&req_for(tag));
                    }
                }
                Path::Async => {
                    let port = mvee.async_thread_port(variant, thread);
                    for &tag in &plan[thread] {
                        let _ = port.syscall(&req_for(tag));
                    }
                }
            }));
        }
    }
    for h in handles {
        h.join().expect("plan thread panicked");
    }
    (mvee.monitor_stats(), mvee.divergence(), recorder.finish())
}

proptest! {
    /// Clean plans, both transports: the offline replay of the journal must
    /// agree with the live run on every monitor counter and on the clean
    /// verdict, and the two transports' journals must replay to the same
    /// run shape (same stats, arrivals, publishes, slots).
    #[test]
    fn replay_reproduces_live_runs(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 1..8), 1..3),
        variants_sel in 0usize..2,
        batch_sel in 0usize..2,
    ) {
        let variants = [2usize, 8][variants_sel];
        let batch = [1usize, 8][batch_sel];
        let mut replayed_shapes = Vec::new();
        for path in [Path::Sync, Path::Async] {
            let (live_stats, live_div, bytes) = run_recorded(path, variants, batch, &plan);
            prop_assert!(live_div.is_none(), "clean plan diverged: {live_div:?}");
            let run = replay(&bytes).expect("recorded journal must replay");
            prop_assert_eq!(run.stats, live_stats,
                "replayed stats differ from live (variants={}, batch={})", variants, batch);
            prop_assert!(run.divergence.is_none());
            prop_assert_eq!(run.header.variants as usize, variants);
            prop_assert_eq!(run.header.batch as usize, batch);
            replayed_shapes.push((run.stats, run.arrivals, run.publishes, run.slots));
        }
        prop_assert_eq!(replayed_shapes[0], replayed_shapes[1],
            "sync and async journals replay to different run shapes");
    }
}

/// The injected-mismatch scenario: one thread, two variants, a mid-batch
/// divergent mprotect followed by a synchronous write that forces the
/// flush.  The journal replay must blame exactly the live run's
/// (thread, sequence, variant) with the live report's kind — on both
/// transports and both batch sizes — with zero live variants involved.
#[test]
fn replay_reproduces_divergence_reports_field_for_field() {
    let mprotect = |len: i64| SyscallRequest::new(Sysno::Mprotect).with_int(len);
    let write = || {
        SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"flush")
    };
    for batch in [1usize, 8] {
        for path in [Path::Sync, Path::Async] {
            let (mvee, recorder) = build_recording_mvee(path, 2, 1, batch);
            let mvee = Arc::new(mvee);
            let mut handles = Vec::new();
            for variant in 0..2 {
                let mvee = Arc::clone(&mvee);
                handles.push(std::thread::spawn(move || {
                    let lens: [i64; 3] = if variant == 0 {
                        [4096, 4096, 4096]
                    } else {
                        [4096, 666, 4096]
                    };
                    let run = |syscall: &dyn Fn(&SyscallRequest) -> bool| {
                        for len in lens {
                            if !syscall(&mprotect(len)) {
                                return false;
                            }
                        }
                        syscall(&write())
                    };
                    match path {
                        Path::Sync => {
                            let port = mvee.thread_port(variant, 0);
                            run(&|req| port.syscall(req).is_ok())
                        }
                        Path::Async => {
                            let port = mvee.async_thread_port(variant, 0);
                            run(&|req| port.syscall(req).is_ok())
                        }
                    }
                }));
            }
            let results: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            assert!(results.iter().any(|ok| !ok), "the mismatch must surface");
            let live = mvee.divergence().expect("live divergence report");
            let run = replay(&recorder.finish()).expect("divergent journal must replay");
            let replayed = run
                .divergence
                .expect("replay must reproduce the divergence");
            assert_eq!(
                replayed, live,
                "replayed report differs from live (batch={batch})"
            );
            assert_eq!(replayed.sequence, 1, "must blame the exact mid-batch slot");
            assert_eq!(replayed.thread, 0);
            assert_eq!(replayed.variant, 1);
            assert_eq!(run.stats, mvee.monitor_stats());
        }
    }
}

/// The replay-mode front end: an `Mvee` built with `JournalMode::Replay`
/// carries the decoded journal and re-derives the verdict through
/// `replay_recorded`, without driving any variant.
#[test]
fn replay_mode_front_end_rederives_the_verdict() {
    // Record a divergent run first.
    let (mvee, recorder) = build_recording_mvee(Path::Sync, 2, 1, 1);
    let mvee = Arc::new(mvee);
    let mut handles = Vec::new();
    for variant in 0..2 {
        let mvee = Arc::clone(&mvee);
        handles.push(std::thread::spawn(move || {
            let port = mvee.thread_port(variant, 0);
            let len = if variant == 0 { 4096 } else { 666 };
            let _ = port.syscall(&SyscallRequest::new(Sysno::Mprotect).with_int(len));
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let live = mvee.divergence().expect("live divergence");
    let journal = Journal::decode(&recorder.finish()).expect("journal decodes");

    // A replay-mode MVEE never touches the recorded run's variants.
    let offline = Mvee::builder()
        .variants(2)
        .threads(1)
        .agent(AgentKind::Null)
        .journal(JournalMode::Replay(Arc::new(journal)))
        .manual_clock(true)
        .build();
    let run = offline
        .replay_recorded()
        .expect("replay mode must expose the journal")
        .expect("journal must replay");
    assert_eq!(run.divergence, Some(live));

    // Off- and record-mode MVEEs have nothing to replay.
    assert!(mvee.replay_recorded().is_none());
    assert!(mvee.journal_recorder().is_some());
    assert!(offline.journal_recorder().is_none());
}
