//! A verdict ends the run: a variant thread that only does sync ops — here
//! a barrier wait whose peer the verdict killed — learns from its port that
//! the run is over and terminates, under every agent.
//!
//! Two variants of two threads.  Thread 1 waits at a barrier for thread 0;
//! thread 0 writes a payload first, and variant 1's payload differs, so the
//! monitor convicts that write and kills thread 0 in both variants before
//! it reaches the barrier.  The `Mvee` is built by hand, as `run_mvee`
//! builds it, so each variant can run its own program.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use mvee_core::mvee::Mvee;
use mvee_sync_agent::agents::AgentKind;
use mvee_variant::executor::{execute_thread, ThreadRunStats};
use mvee_variant::memory::VariantMemory;
use mvee_variant::port::SyscallPort;
use mvee_variant::{Action, Program, RunConfig, SyscallSpec, ThreadSpec};

/// Thread 0 writes `tag` and then joins thread 1 at the barrier.
fn program(tag: u64) -> Program {
    let barrier = Action::BarrierWait {
        barrier: 0,
        participants: 2,
    };
    let mut program = Program::new("barrier-after-write").with_resources(0, 1, 0, 0);
    program.add_thread(ThreadSpec::new(vec![
        Action::Syscall(SyscallSpec::WriteOutput { len: 16, tag }),
        barrier.clone(),
    ]));
    program.add_thread(ThreadSpec::new(vec![barrier]));
    program
}

/// Runs both variants under `agent`, each thread on its own OS thread, and
/// returns every thread's statistics once all have returned.
fn run(agent: AgentKind) -> Vec<ThreadRunStats> {
    let programs = [program(0xAAAA), program(0xBBBB)];
    let config = RunConfig::new(programs.len(), agent);
    let mvee = Mvee::builder()
        .variants(config.variants)
        .threads(2)
        .config(config.mvee.clone())
        .build();
    let mut handles = Vec::new();
    for (v, program) in programs.into_iter().enumerate() {
        let program = Arc::new(program);
        let memory = Arc::new(VariantMemory::for_program(
            &program,
            config.diversity.sync_base_for(v),
        ));
        let port: Arc<dyn SyscallPort> = Arc::new(mvee.gateway(v));
        for t in 0..program.thread_count() {
            let (program, port, memory) = (program.clone(), port.clone(), memory.clone());
            handles.push(std::thread::spawn(move || {
                execute_thread(&program, t, &*port.thread_port(t), &memory, 1.0)
            }));
        }
    }
    let stats = handles
        .into_iter()
        .map(|h| h.join().expect("variant thread panicked"))
        .collect();
    assert!(
        mvee.divergence().is_some(),
        "{agent:?}: the payloads differ"
    );
    stats
}

fn a_verdict_ends_a_thread_waiting_at_a_barrier(agent: AgentKind) {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(run(agent)));
    let stats = finished
        .recv_timeout(Duration::from_secs(1))
        .unwrap_or_else(|_| panic!("{agent:?}: the run outlived its verdict by 1 s"));
    assert_eq!(stats.len(), 4);
    for (i, thread) in stats.iter().enumerate() {
        assert!(
            thread.killed,
            "{agent:?}: variant {} thread {} survived",
            i / 2,
            i % 2
        );
    }
}

#[test]
fn total_order_ends_the_run() {
    a_verdict_ends_a_thread_waiting_at_a_barrier(AgentKind::TotalOrder);
}

#[test]
fn partial_order_ends_the_run() {
    a_verdict_ends_a_thread_waiting_at_a_barrier(AgentKind::PartialOrder);
}

#[test]
fn wall_of_clocks_ends_the_run() {
    a_verdict_ends_a_thread_waiting_at_a_barrier(AgentKind::WallOfClocks);
}
