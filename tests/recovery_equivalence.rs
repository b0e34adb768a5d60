//! Property tests: quarantine recovery is observably equivalent to never
//! having launched the dead variant.
//!
//! Under [`RecoveryPolicy::Quarantine`] a proven divergence drops only the
//! blamed variant: the lockstep table removes it from every expected-arrival
//! set, in-flight survivor waits re-resolve against the reduced quorum, and
//! the run keeps serving.  The acceptance bar is *equivalence*: for
//! randomized call plans across batch sizes ∈ {1, 8}, variant counts
//! ∈ {3, 8} and transports {sync, async-pool}, killing one variant mid-run
//! must leave the survivors' per-call outcomes (return values and payloads)
//! and the run verdict field-identical to a control run launched without
//! that variant — plus exactly one quarantine, zero respawns and a non-zero
//! degraded-call count on the degraded run.
//!
//! The deterministic companions pin the rest of the recovery story:
//!
//! * *master failover* — killing variant 0 hands replication mastership to
//!   the lowest surviving index; replicated calls keep succeeding;
//! * *respawn* — a quarantined variant restores from its last agreed
//!   snapshot, replays the journal suffix, rejoins at a quiescent batch
//!   boundary, and subsequent calls compare across the full quorum again
//!   (proven by making the respawned variant diverge a second time);
//! * *quorum floor* — with only `min_quorum` live variants, the next
//!   divergence poisons the run instead of quarantining below the floor.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use mvee::core::config::{RecoveryPolicy, Transport};
use mvee::core::journal::{replay, JournalMode, JournalRecorder};
use mvee::core::monitor::MonitorError;
use mvee::core::mvee::Mvee;
use mvee::kernel::syscall::{SyscallOutcome, SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;

/// The two transports under comparison: blocking ports and async rings
/// drained by a fixed poller pool.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    Sync,
    Pool(usize),
}

fn path_label(path: Path) -> &'static str {
    match path {
        Path::Sync => "sync",
        Path::Pool(_) => "async-pool",
    }
}

fn transport_for(path: Path) -> Transport {
    match path {
        Path::Sync => Transport::Sync,
        Path::Pool(n) => Transport::async_pool(n),
    }
}

/// The benign call mix: deferrable address-space calls, a replicated
/// `gettimeofday` (a flush point under batching) and an unmonitored yield.
fn req_for(tag: u8) -> SyscallRequest {
    match tag % 5 {
        0 => SyscallRequest::new(Sysno::Brk).with_int(0),
        1 => SyscallRequest::new(Sysno::Mmap).with_int(8192),
        2 => SyscallRequest::new(Sysno::Mprotect).with_int(4096),
        3 => SyscallRequest::new(Sysno::Gettimeofday),
        _ => SyscallRequest::new(Sysno::SchedYield),
    }
}

/// The victim's divergent twin of tag 2: same syscall, different length —
/// the canonical staged mismatch every equivalence suite uses.
fn poison_req() -> SyscallRequest {
    SyscallRequest::new(Sysno::Mprotect).with_int(666)
}

fn build(path: Path, variants: usize, threads: usize, batch: usize) -> Mvee {
    Mvee::builder()
        .variants(variants)
        .threads(threads.max(1))
        .agent(AgentKind::Null)
        .batch(batch)
        .transport(transport_for(path))
        .recovery(RecoveryPolicy::quarantine())
        .lockstep_timeout(Duration::from_secs(10))
        .manual_clock(true)
        .build()
}

/// What one (variant, thread) observed: the per-call results, in program
/// order.  `Err(())` is a refused call (the caller's variant is dead).
type Observed = Vec<Result<(i64, Vec<u8>), ()>>;

fn observe(r: Result<SyscallOutcome, MonitorError>) -> Result<(i64, Vec<u8>), ()> {
    match r {
        Ok(out) => Ok((out.result.unwrap_or(i64::MIN), out.payload)),
        Err(_) => Err(()),
    }
}

/// Runs `plan` (one tag vector per logical thread, identical in every
/// variant) on real OS threads.  When `victim` is `Some((v, kill_at))`,
/// variant `v`'s thread 0 issues the divergent twin at call index `kill_at`
/// instead of the plan's call and stops at its first error, like a variant
/// whose process died.  Every thread's plan is given two trailing
/// replicated calls: the first flushes any deferred tail (resolving the
/// staged mismatch at the latest there), the second is guaranteed to be
/// counted *after* the quarantine landed — the degraded-call witness.
///
/// Returns the survivors' observations keyed by (variant, thread), in index
/// order, followed by the run's end state.
fn run_plan(
    path: Path,
    variants: usize,
    batch: usize,
    plan: &[Vec<u8>],
    victim: Option<(usize, usize)>,
) -> (Vec<Observed>, Arc<Mvee>) {
    let mvee = Arc::new(build(path, variants, plan.len(), batch));
    let mut full_plan: Vec<Vec<u8>> = plan.to_vec();
    for thread_plan in &mut full_plan {
        thread_plan.push(3);
        thread_plan.push(3);
    }
    let full_plan = Arc::new(full_plan);
    let mut handles = Vec::new();
    for variant in 0..variants {
        for thread in 0..full_plan.len() {
            let mvee = Arc::clone(&mvee);
            let full_plan = Arc::clone(&full_plan);
            handles.push(std::thread::spawn(move || {
                let is_victim_thread = victim.is_some_and(|(v, _)| v == variant) && thread == 0;
                let drive = |issue: &dyn Fn(
                    &SyscallRequest,
                )
                    -> Result<SyscallOutcome, MonitorError>|
                 -> Observed {
                    let mut seen = Vec::new();
                    for (i, &tag) in full_plan[thread].iter().enumerate() {
                        let req = if is_victim_thread && victim.map(|(_, at)| at) == Some(i) {
                            poison_req()
                        } else {
                            req_for(tag)
                        };
                        let observed = observe(issue(&req));
                        let died = observed.is_err();
                        seen.push(observed);
                        if is_victim_thread && died {
                            break; // the dead variant stops issuing
                        }
                    }
                    seen
                };
                let seen = match path {
                    Path::Sync => {
                        let port = mvee.thread_port(variant, thread);
                        drive(&|req| port.syscall(req))
                    }
                    Path::Pool(_) => {
                        let port = mvee.async_thread_port(variant, thread);
                        drive(&|req| port.syscall(req))
                    }
                };
                ((variant, thread), seen)
            }));
        }
    }
    let mut collected: Vec<((usize, usize), Observed)> = handles
        .into_iter()
        .map(|h| h.join().expect("plan thread panicked"))
        .collect();
    collected.sort_by_key(|(id, _)| *id);
    let survivors = collected
        .into_iter()
        .filter(|((v, _), _)| victim.is_none_or(|(dead, _)| *v != dead))
        .map(|(_, seen)| seen)
        .collect();
    (survivors, mvee)
}

proptest! {
    /// The acceptance property: killing the highest-indexed variant at a
    /// random mid-run call leaves the survivors field-identical to a
    /// control run launched without that variant — same per-call return
    /// values and payloads, same clean verdict — while the degraded run
    /// alone reports exactly one quarantine and a non-zero degraded-call
    /// count.
    #[test]
    fn survivors_match_a_run_launched_without_the_victim(
        plan in proptest::collection::vec(proptest::collection::vec(0u8..5, 2..8), 1..3),
        kill_pct in 0usize..100,
        variants_sel in 0usize..2,
        batch_sel in 0usize..2,
        path_sel in 0usize..2,
    ) {
        let mut plan = plan;
        let variants = [3usize, 8][variants_sel];
        let batch = [1usize, 8][batch_sel];
        let path = [Path::Sync, Path::Pool(2)][path_sel];
        let victim = variants - 1;
        let kill_at = (plan[0].len() * kill_pct / 100).min(plan[0].len() - 1);
        // The kill slot must hold a deferrable call in every variant, so
        // the victim's twin mismatches on the *argument*, not on the call
        // stream shape (a shape change would be a different scenario: a
        // rendezvous timeout, pinned by the fault suites instead).
        plan[0][kill_at] = 2;
        // Mmap return values depend on the cross-thread interleaving of
        // allocations on the master's kernel — nondeterministic between
        // *any* two runs, degraded or not — so multi-thread plans swap it
        // for the brk query, which is deferrable too but scheduling-proof.
        if plan.len() > 1 {
            for thread_plan in &mut plan {
                for tag in thread_plan.iter_mut() {
                    if *tag == 1 {
                        *tag = 0;
                    }
                }
            }
        }

        let (degraded, degraded_mvee) =
            run_plan(path, variants, batch, &plan, Some((victim, kill_at)));
        let (control, control_mvee) = run_plan(path, variants - 1, batch, &plan, None);

        prop_assert_eq!(
            degraded_mvee.divergence(), None,
            "quarantine must keep serving, not tear down"
        );
        prop_assert_eq!(control_mvee.divergence(), None);
        prop_assert_eq!(degraded_mvee.quarantined_variants(), vec![victim]);
        prop_assert!(control_mvee.quarantined_variants().is_empty());
        prop_assert_eq!(
            &degraded, &control,
            "survivors' outcomes differ from the victim-less control \
             (variants={}, batch={}, kill_at={})", variants, batch, kill_at
        );

        let stats = degraded_mvee.monitor_stats();
        prop_assert_eq!(stats.quarantines, 1);
        prop_assert_eq!(stats.respawns, 0);
        prop_assert!(
            stats.degraded_calls > 0,
            "every thread's final call runs after the quarantine landed"
        );
        let control_stats = control_mvee.monitor_stats();
        prop_assert_eq!(control_stats.quarantines, 0);
        prop_assert_eq!(control_stats.degraded_calls, 0);

        // Nothing leaked a rendezvous registration.
        prop_assert_eq!(degraded_mvee.monitor().live_slots(), 0);
        prop_assert_eq!(control_mvee.monitor().live_slots(), 0);
    }
}

/// Killing the *master* (variant 0) must fail replication over to the
/// lowest surviving index: the survivors' replicated calls keep succeeding
/// and the first quarantine report blames variant 0.
#[test]
fn killed_master_fails_over_and_replicated_calls_keep_succeeding() {
    for path in [Path::Sync, Path::Pool(1)] {
        let plan = vec![vec![2, 2, 0, 3, 1, 3, 2, 3]];
        let (survivors, mvee) = run_plan(path, 3, 1, &plan, Some((0, 1)));
        assert_eq!(mvee.divergence(), None, "the run must keep serving");
        assert_eq!(mvee.quarantined_variants(), vec![0]);
        assert_eq!(
            mvee.monitor().master_variant(),
            1,
            "replication mastership fails over to the lowest live index"
        );
        let report = &mvee.quarantine_reports()[0];
        assert_eq!(report.variant, 0, "the first report blames the master");
        for (i, seen) in survivors.iter().enumerate() {
            assert!(
                seen.iter().all(Result::is_ok),
                "survivor {} lost a call after the master died: {seen:?}",
                i + 1
            );
        }
    }
}

/// The full snapshot → quarantine → respawn round trip, on both
/// transports: a journaled, snapshotting run kills variant 2, respawns it
/// from the last agreed snapshot at a quiescent boundary, and the rejoined
/// quorum (a) serves further calls cleanly across *all* variants and
/// (b) catches the respawned variant's *second* divergence — proof the
/// full quorum is being compared again, not just the old survivors.
#[test]
fn respawned_variant_rejoins_and_compares_across_the_full_quorum() {
    for path in [Path::Sync, Path::Pool(2)] {
        let recorder = Arc::new(JournalRecorder::new());
        let mvee = Arc::new(
            Mvee::builder()
                .variants(3)
                .threads(1)
                .agent(AgentKind::Null)
                .batch(1)
                .transport(transport_for(path))
                .recovery(RecoveryPolicy::quarantine())
                .journal(JournalMode::Record(Arc::clone(&recorder)))
                .snapshot_every(2)
                .lockstep_timeout(Duration::from_secs(10))
                .manual_clock(true)
                .build(),
        );

        // One phase = every variant runs four sync ops (crossing the 2-op
        // snapshot interval), one deferrable call (the staged one, when
        // given) and one replicated call, on its own OS thread.  Returns
        // whether each variant's calls all succeeded.
        let phase = |mvee: &Arc<Mvee>, staged: Vec<Option<SyscallRequest>>| -> Vec<bool> {
            let mut handles = Vec::new();
            for (variant, poison) in staged.into_iter().enumerate() {
                let mvee = Arc::clone(mvee);
                handles.push(std::thread::spawn(move || {
                    let req = poison.unwrap_or_else(|| req_for(2));
                    let ok = match path {
                        Path::Sync => {
                            let port = mvee.thread_port(variant, 0);
                            for _ in 0..4 {
                                port.sync_op(0x1000, || ());
                            }
                            port.syscall(&req).is_ok() && port.syscall(&req_for(3)).is_ok()
                        }
                        Path::Pool(_) => {
                            let port = mvee.async_thread_port(variant, 0);
                            for _ in 0..4 {
                                port.sync_op(0x1000, || ());
                            }
                            port.syscall(&req).is_ok() && port.syscall(&req_for(3)).is_ok()
                        }
                    };
                    (variant, ok)
                }));
            }
            let mut done: Vec<(usize, bool)> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            done.sort_by_key(|(v, _)| *v);
            done.into_iter().map(|(_, ok)| ok).collect()
        };

        // Phase A: an agreed prefix, so every variant has an installed
        // snapshot before anything goes wrong.
        let clean = phase(&mvee, vec![None, None, None]);
        assert_eq!(clean, vec![true; 3], "{}: agreed prefix", path_label(path));
        assert!(
            mvee.latest_snapshot(2).is_some(),
            "{}: four sync ops must cross the 2-op snapshot interval",
            path_label(path)
        );

        // Phase B: variant 2 diverges and is quarantined; survivors serve.
        let degraded = phase(&mvee, vec![None, None, Some(poison_req())]);
        assert_eq!(
            degraded,
            vec![true, true, false],
            "{}: only the victim's calls fail",
            path_label(path)
        );
        assert_eq!(mvee.quarantined_variants(), vec![2]);
        assert_eq!(mvee.divergence(), None);

        // Quiescent boundary: all worker threads joined.  Respawn.
        let report = mvee.respawn_variant(2).expect("respawn must succeed");
        assert_eq!(report.variant, 2);
        assert!(
            report.restored_sync_ops.is_some(),
            "{}: a snapshot was available to restore from",
            path_label(path)
        );
        assert!(
            report.replayed_records > 0,
            "{}: the journal suffix past the snapshot is the catch-up work",
            path_label(path)
        );
        assert!(mvee.quarantined_variants().is_empty());
        assert_eq!(mvee.monitor_stats().respawns, 1);

        // Phase C: the full quorum serves again...
        let rejoined = phase(&mvee, vec![None, None, None]);
        assert_eq!(
            rejoined,
            vec![true; 3],
            "{}: the respawned variant must compare cleanly",
            path_label(path)
        );

        // ...and a second divergence by the respawned variant is caught —
        // the quorum really does include it again.
        let again = phase(&mvee, vec![None, None, Some(poison_req())]);
        assert_eq!(again, vec![true, true, false], "{}", path_label(path));
        assert_eq!(mvee.quarantined_variants(), vec![2]);
        let stats = mvee.monitor_stats();
        assert_eq!((stats.quarantines, stats.divergences), (2, 2));
        assert_eq!(mvee.divergence(), None);
        assert_eq!(mvee.monitor().live_slots(), 0);
        // Live ≡ replay on the verdict counter: one per `Diverge` record,
        // quarantine or poison alike.
        let run = replay(&recorder.finish()).expect("the round trip's journal must replay");
        assert_eq!(run.stats.divergences, stats.divergences);
    }
}

/// The quorum floor: with `min_quorum = 2` and two live variants left, the
/// next divergence must poison the run instead of quarantining below the
/// floor — a 1-variant MVEE compares nothing.
#[test]
fn divergence_at_the_quorum_floor_poisons_instead_of_quarantining() {
    let mvee = Arc::new(build(Path::Sync, 3, 1, 1));
    let kill = |mvee: &Arc<Mvee>, victim: usize| {
        let mut handles = Vec::new();
        for variant in 0..3 {
            if mvee.quarantined_variants().contains(&variant) {
                continue;
            }
            let mvee = Arc::clone(mvee);
            handles.push(std::thread::spawn(move || {
                let port = mvee.thread_port(variant, 0);
                let req = if variant == victim {
                    poison_req()
                } else {
                    req_for(2)
                };
                let _ = port.syscall(&req);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    };
    // First divergence: variant 2 is quarantined (3 live > floor 2).
    kill(&mvee, 2);
    assert_eq!(mvee.quarantined_variants(), vec![2]);
    assert_eq!(mvee.divergence(), None, "first kill degrades, not ends");
    // Second divergence: only 2 live variants — at the floor, so the run
    // poisons and the verdict surfaces.
    kill(&mvee, 1);
    assert!(
        mvee.divergence().is_some(),
        "at the quorum floor the fallback is the paper's detect-and-kill"
    );
    assert_eq!(mvee.monitor_stats().quarantines, 1);
}
