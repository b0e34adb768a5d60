//! Running a program natively or under a fully wired MVEE.
//!
//! [`run_native`] measures the program by itself (the "native execution" the
//! paper's Figure 5 normalizes against); [`run_mvee`] builds an
//! [`Mvee`] with the requested variant count, agent and policy, spawns one
//! OS thread per (variant, logical thread) pair — each acquiring its port
//! at thread start — and lets all variants run concurrently, exactly as
//! ReMon runs its variants side by side on the same machine.
//!
//! Every (variant, thread) draws its port from the variant's gateway
//! ([`VariantGateway::port`](mvee_core::mvee::VariantGateway::port)),
//! which picks the one the configured
//! [`Transport`](mvee_core::config::Transport) names: the blocking port,
//! a ring-backed port, or — for variant 0 of a distributed MVEE — the
//! leader's.  So one runner drives every transport.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mvee_core::config::{MveeConfig, RecoveryPolicy};
use mvee_core::mvee::Mvee;
use mvee_core::policy::MonitoringPolicy;
use mvee_kernel::kernel::Kernel;
use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::context::AgentConfig;

use crate::diversity::DiversityProfile;
use crate::executor::{execute_thread, ThreadRunStats};
use crate::memory::VariantMemory;
use crate::port::{NativePort, SyscallPort};
use crate::program::Program;
use crate::report::{NativeReport, RunReport};

/// Configuration of an MVEE run.
///
/// The shared tuning knobs (agent, policy, transport, shards, batch,
/// timeout, agent sizing) live in the embedded [`MveeConfig`]; `RunConfig`
/// only adds what is specific to driving a program: the variant count and
/// the diversity profile.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Number of variants (including the master).
    pub variants: usize,
    /// The diversity applied to the variants.
    pub diversity: DiversityProfile,
    /// The shared MVEE tuning knobs, forwarded verbatim to
    /// [`MveeBuilder::config`](mvee_core::mvee::MveeBuilder::config).
    pub mvee: MveeConfig,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            variants: 2,
            diversity: DiversityProfile::none(),
            mvee: MveeConfig::default()
                .with_agent_config(AgentConfig::default().with_buffer_capacity(1 << 16))
                .with_lockstep_timeout(Duration::from_secs(10)),
        }
    }
}

impl RunConfig {
    /// Convenience constructor: `variants` variants with `agent`.
    pub fn new(variants: usize, agent: AgentKind) -> Self {
        let mut config = RunConfig {
            variants,
            ..Default::default()
        };
        config.mvee.agent = agent;
        config
    }

    /// Sets the diversity profile (builder style).
    pub fn with_diversity(mut self, diversity: DiversityProfile) -> Self {
        self.diversity = diversity;
        self
    }

    /// Sets the monitoring policy (builder style).
    pub fn with_policy(mut self, policy: MonitoringPolicy) -> Self {
        self.mvee.policy = policy;
        self
    }

    /// Sets the monitor shard count (builder style).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.mvee = self.mvee.with_shards(shards);
        self
    }

    /// Sets the comparison batch size (builder style).
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.mvee = self.mvee.with_batch(batch);
        self
    }

    /// Sets the divergence recovery policy (builder style):
    /// [`RecoveryPolicy::Quarantine`] keeps a run serving on a degraded
    /// quorum when one variant diverges, instead of tearing everything
    /// down.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.mvee = self.mvee.with_recovery(recovery);
        self
    }

    /// Snapshots every live variant's emulated-kernel state each `every`
    /// sync ops (builder style) — the restore points
    /// `Mvee::respawn_variant` rewinds a quarantined variant to.
    pub fn with_snapshot_every(mut self, every: u64) -> Self {
        self.mvee = self.mvee.with_snapshot_every(Some(every));
        self
    }
}

/// Runs `program` natively (one instance, no monitor, no replication) and
/// returns what it measured.
pub fn run_native(program: &Program) -> NativeReport {
    let kernel = Arc::new(Kernel::new());
    let pid = kernel.spawn_process();
    for (path, contents) in &program.files {
        kernel.install_file(path, contents);
    }
    let port: Arc<dyn SyscallPort> = Arc::new(NativePort::new(Arc::clone(&kernel), pid));
    let memory = Arc::new(VariantMemory::for_program(program, 0x7f10_0000_0000));

    let start = Instant::now();
    let program_arc = Arc::new(program.clone());
    let mut handles = Vec::new();
    for t in 0..program.thread_count() {
        let program = Arc::clone(&program_arc);
        let port = Arc::clone(&port);
        let memory = Arc::clone(&memory);
        handles.push(std::thread::spawn(move || {
            let thread_port = port.thread_port(t);
            execute_thread(&program, t, &*thread_port, &memory, 1.0)
        }));
    }
    let mut threads = ThreadRunStats::default();
    for h in handles {
        threads.merge(&h.join().expect("native thread panicked"));
    }
    let duration = start.elapsed();
    NativeReport {
        program: program.name.clone(),
        duration,
        threads,
        output: kernel.console_output(pid),
    }
}

/// Runs `program` under the MVEE described by `config`.
pub fn run_mvee(program: &Program, config: &RunConfig) -> RunReport {
    assert!(config.variants >= 1, "need at least one variant");
    assert!(
        program.thread_count() >= 1,
        "program needs at least one thread"
    );

    let layouts = (0..config.variants)
        .map(|v| config.diversity.layout_for(v))
        .collect();
    let mvee = Mvee::builder()
        .variants(config.variants)
        .threads(program.thread_count())
        .config(config.mvee.clone())
        .layouts(layouts)
        .build();

    for (path, contents) in &program.files {
        mvee.kernel().install_file(path, contents);
    }

    let program_arc = Arc::new(program.clone());
    let start = Instant::now();
    let mut handles = Vec::new();
    for v in 0..config.variants {
        let gateway = mvee.gateway(v);
        let memory = Arc::new(VariantMemory::for_program(
            program,
            config.diversity.sync_base_for(v),
        ));
        let factor = config.diversity.instruction_factor_for(v);
        let port: Arc<dyn SyscallPort> = Arc::new(gateway);
        for t in 0..program.thread_count() {
            let program = Arc::clone(&program_arc);
            let port = Arc::clone(&port);
            let memory = Arc::clone(&memory);
            handles.push(std::thread::spawn(move || {
                let thread_port = port.thread_port(t);
                execute_thread(&program, t, &*thread_port, &memory, factor)
            }));
        }
    }
    let mut threads = ThreadRunStats::default();
    for h in handles {
        threads.merge(&h.join().expect("variant thread panicked"));
    }
    let duration = start.elapsed();

    let outputs = (0..config.variants)
        .map(|v| mvee.kernel().console_output(mvee.pid_of(v)))
        .collect();
    let snapshots = mvee.snapshot_store().map_or(0, |store| {
        (0..config.variants).map(|v| store.taken(v)).sum()
    });

    RunReport {
        program: program.name.clone(),
        variants: config.variants,
        agent: config.mvee.agent,
        duration,
        threads,
        monitor: mvee.monitor_stats(),
        agent_stats: mvee.agent_stats(),
        divergence: mvee.divergence(),
        quarantined: mvee.quarantined_variants(),
        snapshots,
        outputs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Action, SyscallSpec, ThreadSpec};
    use mvee_core::config::{RemoteChannel, Transport};
    use mvee_kernel::syscall::{SyscallRequest, Sysno};

    /// A small producer/consumer program whose console output depends on the
    /// order in which the consumer threads pop the queue.
    fn queue_program(items: u64) -> Program {
        let mut p = Program::new("queue-test").with_resources(1, 1, 1, 1);
        p.add_thread(ThreadSpec::new(vec![
            Action::Repeat {
                times: items,
                body: vec![Action::QueuePush { queue: 0, value: 7 }],
            },
            Action::BarrierWait {
                barrier: 0,
                participants: 3,
            },
        ]));
        for _ in 0..2 {
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
                        Action::Compute(50),
                    ],
                },
            ]));
        }
        p
    }

    fn io_program() -> Program {
        let mut p = Program::new("io-test")
            .with_resources(1, 0, 0, 1)
            .with_file("/in.dat", b"abcdefghijklmnopqrstuvwxyz");
        p.add_thread(ThreadSpec::new(vec![
            Action::Syscall(SyscallSpec::OpenInput {
                path: "/in.dat".into(),
            }),
            Action::Syscall(SyscallSpec::ReadChunk { len: 13 }),
            Action::Syscall(SyscallSpec::WriteOutput { len: 32, tag: 0xAB }),
            Action::Syscall(SyscallSpec::CloseCurrent),
            Action::Repeat {
                times: 5,
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
        p.add_thread(ThreadSpec::new(vec![Action::Repeat {
            times: 5,
            body: vec![
                Action::LockAcquire(0),
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
                Action::LockRelease(0),
            ],
        }]));
        p
    }

    #[test]
    fn native_run_produces_output_and_counts() {
        let report = run_native(&io_program());
        assert!(!report.threads.killed);
        assert!(report.threads.syscalls >= 6);
        assert!(report.threads.sync_ops >= 21);
        // The printed counter value depends on how far thread 1 has come when
        // thread 0 reads it, but the line itself must be present and the
        // value must be at least thread 0's own five increments.
        let text = String::from_utf8_lossy(&report.output).into_owned();
        let idx = text.find("counter 0 = ").expect("counter line present");
        let value: u64 = text[idx + "counter 0 = ".len()..]
            .trim_end()
            .parse()
            .unwrap();
        assert!((5..=10).contains(&value));
    }

    #[test]
    fn two_variant_wall_of_clocks_run_completes_without_divergence() {
        let report = run_mvee(&io_program(), &RunConfig::new(2, AgentKind::WallOfClocks));
        assert!(
            report.completed_cleanly(),
            "divergence: {:?}",
            report.divergence
        );
        assert!(report.outputs_identical());
        assert!(report.agent_stats.ops_recorded > 0);
        assert!(report.agent_stats.ops_replayed > 0);
    }

    #[test]
    fn queue_program_outputs_match_across_variants_for_all_agents() {
        for agent in AgentKind::replication_agents() {
            let report = run_mvee(&queue_program(8), &RunConfig::new(2, agent));
            assert!(
                report.completed_cleanly(),
                "agent {:?} diverged: {:?}",
                agent,
                report.divergence
            );
            assert!(
                report.outputs_identical(),
                "agent {:?} produced differing outputs",
                agent
            );
        }
    }

    #[test]
    fn diversified_variants_still_agree() {
        let config =
            RunConfig::new(2, AgentKind::WallOfClocks).with_diversity(DiversityProfile::full(1234));
        let report = run_mvee(&io_program(), &config);
        assert!(
            report.completed_cleanly(),
            "divergence: {:?}",
            report.divergence
        );
        assert!(report.outputs_identical());
    }

    #[test]
    fn three_variants_replay_twice_as_many_ops() {
        let report = run_mvee(&io_program(), &RunConfig::new(3, AgentKind::WallOfClocks));
        assert!(report.completed_cleanly());
        assert!(report.agent_stats.ops_replayed >= 2 * report.agent_stats.ops_recorded);
    }

    #[test]
    fn sharded_and_unsharded_monitors_both_run_cleanly() {
        for shards in [1usize, 8] {
            let config = RunConfig::new(2, AgentKind::WallOfClocks).with_shards(shards);
            let report = run_mvee(&io_program(), &config);
            assert!(
                report.completed_cleanly(),
                "shards={shards} diverged: {:?}",
                report.divergence
            );
            assert!(report.outputs_identical(), "shards={shards}");
        }
    }

    #[test]
    fn every_transport_runs_the_queue_program_cleanly() {
        // The gateway's factory picks the port per transport: blocking,
        // ring-backed, and the leader's for variant 0 of a distributed
        // MVEE.  One runner drives all three.
        for transport in [
            Transport::Sync,
            Transport::async_pool(1),
            Transport::Remote {
                channel: RemoteChannel::InProc,
            },
        ] {
            let mut config = RunConfig::new(2, AgentKind::WallOfClocks);
            config.mvee = config.mvee.with_transport(transport);
            let report = run_mvee(&queue_program(8), &config);
            assert!(
                report.completed_cleanly(),
                "{} diverged: {:?}",
                transport.name(),
                report.divergence
            );
            assert!(report.outputs_identical(), "{}", transport.name());
        }
    }

    #[test]
    fn pinned_placement_records_affinity_in_every_variant() {
        // `sched_setaffinity` is a modelled call: each variant's kernel
        // records the pinning its thread asked for.
        let mvee = Mvee::builder()
            .variants(2)
            .policy(MonitoringPolicy::NoComparison)
            .manual_clock(true)
            .build();
        for v in 0..2 {
            let port = mvee.thread_port(v, 1);
            port.syscall(&SyscallRequest::new(Sysno::SchedSetaffinity).with_int(5))
                .unwrap();
            assert_eq!(mvee.kernel().thread_affinity(mvee.pid_of(v), 1), Some(5));
        }
    }

    /// A brk-dense program: the address-space calls are exactly the class
    /// whose comparisons the batched monitor defers.  Only thread 0 grows
    /// the (process-shared) break, so the compared brk targets are
    /// deterministic; thread 1 supplies sync-op traffic so the agent's
    /// replication-point flush hook fires too.
    fn brk_program() -> Program {
        let mut p = Program::new("brk-test").with_resources(1, 0, 0, 1);
        p.add_thread(ThreadSpec::new(vec![
            Action::Repeat {
                times: 12,
                body: vec![
                    Action::Syscall(SyscallSpec::BrkGrow { grow: 4096 }),
                    Action::LockAcquire(0),
                    Action::AtomicAdd {
                        counter: 0,
                        amount: 1,
                    },
                    Action::LockRelease(0),
                ],
            },
            Action::Syscall(SyscallSpec::WriteOutput { len: 16, tag: 7 }),
        ]));
        p.add_thread(ThreadSpec::new(vec![Action::Repeat {
            times: 12,
            body: vec![
                Action::LockAcquire(0),
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
                Action::LockRelease(0),
            ],
        }]));
        p
    }

    #[test]
    fn batched_and_unbatched_monitors_both_run_cleanly() {
        for batch in [1usize, 4, 64] {
            let config = RunConfig::new(2, AgentKind::WallOfClocks).with_batch(batch);
            let report = run_mvee(&brk_program(), &config);
            assert!(
                report.completed_cleanly(),
                "batch={batch} diverged: {:?}",
                report.divergence
            );
            assert!(report.outputs_identical(), "batch={batch}");
            if batch > 1 {
                assert!(
                    report.monitor.batched_comparisons > 0,
                    "batch={batch} never deferred a comparison"
                );
            } else {
                assert_eq!(report.monitor.batched_comparisons, 0);
            }
        }
    }

    #[test]
    fn single_variant_run_works_with_null_agent() {
        let report = run_mvee(&io_program(), &RunConfig::new(1, AgentKind::Null));
        assert!(report.completed_cleanly());
        assert_eq!(report.variants, 1);
    }

    #[test]
    fn snapshotting_run_captures_records_without_changing_the_verdict() {
        let config = RunConfig::new(2, AgentKind::WallOfClocks).with_snapshot_every(4);
        let report = run_mvee(&io_program(), &config);
        assert!(
            report.completed_cleanly(),
            "divergence: {:?}",
            report.divergence
        );
        assert!(report.outputs_identical());
        assert!(
            report.snapshots > 0,
            "a sync-op-heavy run must cross the 4-op snapshot interval"
        );
        let bare = run_mvee(&io_program(), &RunConfig::new(2, AgentKind::WallOfClocks));
        assert_eq!(bare.snapshots, 0, "snapshotting defaults off");
    }

    #[test]
    fn quarantine_policy_changes_nothing_on_a_clean_run() {
        let config = RunConfig::new(2, AgentKind::WallOfClocks)
            .with_recovery(RecoveryPolicy::quarantine())
            .with_snapshot_every(8);
        let report = run_mvee(&io_program(), &config);
        assert!(
            report.completed_cleanly(),
            "divergence: {:?}",
            report.divergence
        );
        assert!(!report.completed_degraded());
        assert!(report.quarantined.is_empty());
        assert_eq!(report.monitor.quarantines, 0);
        assert_eq!(report.monitor.respawns, 0);
        assert_eq!(report.monitor.degraded_calls, 0);
        assert!(report.outputs_identical());
    }
}
