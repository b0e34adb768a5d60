//! Quickstart: run a small multi-threaded program under the MVEE with the
//! wall-of-clocks agent and inspect what the monitor and the agent saw —
//! then drive the monitor by hand through the `ThreadPort` API.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

use mvee::core::mvee::Mvee;
use mvee::kernel::syscall::{SyscallRequest, Sysno};
use mvee::sync_agent::agents::AgentKind;
use mvee::variant::program::{Action, Program, SyscallSpec, ThreadSpec};
use mvee::variant::runner::{run_mvee, run_native, RunConfig};

fn main() {
    // A two-thread program: both threads increment a shared counter under a
    // spinlock; thread 0 also reads a file and prints the final counter.
    let mut program = Program::new("quickstart")
        .with_resources(1, 1, 0, 1)
        .with_file("/greeting.txt", b"hello, multi-variant world");
    program.add_thread(ThreadSpec::new(vec![
        Action::Syscall(SyscallSpec::OpenInput {
            path: "/greeting.txt".into(),
        }),
        Action::Syscall(SyscallSpec::ReadChunk { len: 26 }),
        Action::Repeat {
            times: 100,
            body: vec![
                Action::LockAcquire(0),
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
                Action::LockRelease(0),
            ],
        },
        Action::BarrierWait {
            barrier: 0,
            participants: 2,
        },
        Action::PrintCounter(0),
    ]));
    program.add_thread(ThreadSpec::new(vec![
        Action::Repeat {
            times: 100,
            body: vec![
                Action::LockAcquire(0),
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
                Action::LockRelease(0),
            ],
        },
        Action::BarrierWait {
            barrier: 0,
            participants: 2,
        },
    ]));

    // Native run: one instance, no monitor.
    let native = run_native(&program);
    println!("native run      : {:?}", native.duration);
    println!(
        "native output   : {}",
        String::from_utf8_lossy(&native.output).trim()
    );

    // Two diversified variants in lockstep under the wall-of-clocks agent.
    let config = RunConfig::new(2, AgentKind::WallOfClocks)
        .with_diversity(mvee::variant::diversity::DiversityProfile::full(7));
    let report = run_mvee(&program, &config);
    println!(
        "\nMVEE run        : {:?} ({} variants, {} agent)",
        report.duration,
        report.variants,
        report.agent.name()
    );
    println!(
        "master output   : {}",
        String::from_utf8_lossy(report.master_output()).trim()
    );
    println!("slowdown        : {:.2}x", report.slowdown_vs(&native));
    println!("divergence      : {:?}", report.divergence);
    println!(
        "sync ops        : {} recorded, {} replayed",
        report.agent_stats.ops_recorded, report.agent_stats.ops_replayed
    );
    println!(
        "monitored calls : {} total, {} locksteped, {} replicated",
        report.monitor.total_syscalls,
        report.monitor.lockstep_syscalls,
        report.monitor.replicated_syscalls
    );

    assert!(
        report.completed_cleanly(),
        "the benign program must not diverge"
    );

    // The same gateway, by hand: each variant thread acquires its port once
    // (`gateway.port(t)`, boxed by transport, or the typed
    // `mvee.thread_port(v, t)`) and issues every monitored call and sync op
    // through it — the one entry into the monitor.
    let mvee = Mvee::builder().variants(2).manual_clock(true).build();
    let mut handles = Vec::new();
    for v in 0..2 {
        let port = mvee.thread_port(v, 0);
        handles.push(std::thread::spawn(move || {
            port.syscall(&SyscallRequest::new(Sysno::Brk).with_int(0))
                .expect("brk under lockstep");
            port.sync_op(0x1000, || ())
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    println!(
        "\nport demo       : {} monitored calls, {} in lockstep, clean: {}",
        mvee.monitor_stats().total_syscalls,
        mvee.monitor_stats().lockstep_syscalls,
        !mvee.monitor().has_diverged()
    );
}
