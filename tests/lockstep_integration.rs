//! Cross-crate integration tests: full MVEE runs over synthetic workloads,
//! divergence detection, diversity, and all three synchronization agents.

use mvee::core::policy::MonitoringPolicy;
use mvee::sync_agent::agents::AgentKind;
use mvee::variant::diversity::DiversityProfile;
use mvee::variant::program::{Action, Program, SyscallSpec, ThreadSpec};
use mvee::variant::runner::{run_mvee, run_native, RunConfig};
use mvee::workloads::catalog::BenchmarkSpec;

/// A producer/consumer program whose observable output depends on the thread
/// interleaving — the kind of program that diverges without an agent.
fn producer_consumer(items: u64) -> Program {
    let mut p = Program::new("producer-consumer").with_resources(1, 1, 1, 1);
    p.add_thread(ThreadSpec::new(vec![
        Action::Repeat {
            times: items,
            body: vec![Action::QueuePush {
                queue: 0,
                value: 11,
            }],
        },
        Action::BarrierWait {
            barrier: 0,
            participants: 3,
        },
        Action::Syscall(SyscallSpec::WriteOutput { len: 16, tag: 1 }),
    ]));
    for t in 0..2u64 {
        p.add_thread(ThreadSpec::new(vec![
            Action::BarrierWait {
                barrier: 0,
                participants: 3,
            },
            Action::Repeat {
                times: items / 2,
                body: vec![
                    Action::QueuePop {
                        queue: 0,
                        print: true,
                    },
                    Action::Compute(200 + t * 50),
                ],
            },
        ]));
    }
    p
}

#[test]
fn all_agents_keep_two_diversified_variants_in_lockstep() {
    for agent in AgentKind::replication_agents() {
        let config = RunConfig::new(2, agent).with_diversity(DiversityProfile::full(42));
        let report = run_mvee(&producer_consumer(12), &config);
        assert!(
            report.completed_cleanly(),
            "agent {:?} diverged: {:?}",
            agent,
            report.divergence
        );
        assert!(report.agent_stats.ops_recorded > 0);
        assert!(report.agent_stats.ops_replayed >= report.agent_stats.ops_recorded);
    }
}

#[test]
fn four_variants_replay_three_times_the_recorded_ops() {
    let report = run_mvee(
        &producer_consumer(8),
        &RunConfig::new(4, AgentKind::WallOfClocks),
    );
    assert!(report.completed_cleanly(), "{:?}", report.divergence);
    assert!(report.agent_stats.ops_replayed >= 3 * report.agent_stats.ops_recorded);
}

#[test]
fn catalog_benchmarks_run_cleanly_under_every_policy() {
    let spec = BenchmarkSpec::by_name("streamcluster").unwrap();
    let program = spec.paper_program(3e-6);
    for policy in [
        MonitoringPolicy::StrictLockstep,
        MonitoringPolicy::SecuritySensitiveOnly,
        MonitoringPolicy::NoComparison,
    ] {
        let config = RunConfig::new(2, AgentKind::WallOfClocks).with_policy(policy);
        let report = run_mvee(&program, &config);
        assert!(
            report.completed_cleanly(),
            "policy {:?} diverged: {:?}",
            policy,
            report.divergence
        );
    }
}

#[test]
fn mvee_slowdown_is_finite_and_positive() {
    let spec = BenchmarkSpec::by_name("fft").unwrap();
    let program = spec.paper_program(3e-6);
    let native = run_native(&program);
    let report = run_mvee(&program, &RunConfig::new(2, AgentKind::WallOfClocks));
    let slowdown = report.slowdown_vs(&native);
    assert!(slowdown.is_finite());
    assert!(slowdown > 0.0);
}

#[test]
fn a_compromised_variant_is_detected_as_divergence() {
    use mvee::kernel::syscall::{SyscallArg, SyscallRequest, Sysno};

    // Both variants run the same program, but the "compromised" path is an
    // explicit raw syscall that only makes sense for an attacker: variant
    // behaviour differs because the payload embeds a per-variant address, so
    // the write payloads mismatch at the lockstep rendezvous.
    let mvee = mvee::core::mvee::Mvee::builder()
        .variants(2)
        .threads(1)
        .policy(MonitoringPolicy::StrictLockstep)
        .lockstep_timeout(std::time::Duration::from_millis(500))
        .manual_clock(true)
        .build();

    let master = mvee.thread_port(0, 0);
    let slave = mvee.thread_port(1, 0);
    let slave_thread = std::thread::spawn(move || {
        slave.syscall(
            &SyscallRequest::new(Sysno::Mprotect)
                .with_arg(SyscallArg::Pointer(0x4000))
                .with_int(4096)
                .with_arg(SyscallArg::Flags(7)),
        )
    });
    let master_result = master.syscall(
        &SyscallRequest::new(Sysno::Write)
            .with_fd(1)
            .with_payload(b"normal output"),
    );
    let slave_result = slave_thread.join().unwrap();
    assert!(master_result.is_err() || slave_result.is_err());
    assert!(mvee.divergence().is_some());
    let report = mvee.divergence().unwrap();
    assert!(report.summary().contains("divergence"));
}

#[test]
fn uninstrumented_interaction_eventually_diverges_or_stays_benign_single_thread() {
    // With a single worker thread there is no interleaving to get wrong, so
    // even the null agent keeps two variants consistent — the boundary case
    // the paper notes for loosely-coupled programs.
    let mut p = Program::new("single").with_resources(1, 0, 0, 1);
    p.add_thread(ThreadSpec::new(vec![
        Action::Repeat {
            times: 50,
            body: vec![
                Action::LockAcquire(0),
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
                Action::LockRelease(0),
            ],
        },
        Action::PrintCounter(0),
    ]));
    let report = run_mvee(&p, &RunConfig::new(2, AgentKind::Null));
    assert!(report.completed_cleanly(), "{:?}", report.divergence);
}
