//! The action interpreter: executes one variant thread's action list.
//!
//! Every synchronization-variable access is bracketed with
//! `before_sync_op` / `after_sync_op` on the thread's port, exactly like the
//! compile-time instrumentation the paper inserts (Listing 3): lock
//! acquisition is a loop of individually instrumented compare-and-swap
//! attempts, lock release is an instrumented store, barriers are an
//! instrumented increment followed by instrumented loads, and the accesses a
//! task-queue performs under its lock are ordinary (uninstrumented) data
//! accesses, as in a data-race-free program.
//!
//! The interpreter runs against a [`ThreadSyscallPort`]: the per-thread
//! handle acquired once at thread start (see [`crate::port`]), so no call
//! in the hot loop re-states the thread index.

use std::sync::Arc;

use mvee_kernel::syscall::{SyscallArg, SyscallRequest, Sysno};
use mvee_kernel::vfs::OpenFlags;

use crate::memory::VariantMemory;
use crate::port::{SyscallPort, ThreadSyscallPort};
use crate::program::{Action, Program, SyscallSpec};

/// Statistics for one executed thread.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ThreadRunStats {
    /// System calls issued (including failed ones).
    pub syscalls: u64,
    /// Sync ops executed.
    pub sync_ops: u64,
    /// Abstract instructions executed (used by the DMT baseline).
    pub instructions: u64,
    /// Whether the thread was killed because the MVEE shut down.
    pub killed: bool,
    /// Number of syscalls that returned an error outcome.
    pub syscall_errors: u64,
}

impl ThreadRunStats {
    /// Merges another thread's statistics into this one.
    pub fn merge(&mut self, other: &ThreadRunStats) {
        self.syscalls += other.syscalls;
        self.sync_ops += other.sync_ops;
        self.instructions += other.instructions;
        self.killed |= other.killed;
        self.syscall_errors += other.syscall_errors;
    }
}

/// Thread-local execution state.
struct ThreadState {
    current_fd: i32,
    current_brk: u64,
    stats: ThreadRunStats,
}

/// Signals that the MVEE shut the variant down mid-execution.
struct Killed;

/// Executes the actions of logical thread `thread` of `program` against its
/// (already acquired) thread port.
///
/// `instruction_factor` models diversity-induced instruction-count skew: the
/// busy-work loops execute `factor` times as many iterations, and the
/// instruction counter is scaled accordingly.
pub fn execute_thread(
    program: &Program,
    thread: usize,
    port: &dyn ThreadSyscallPort,
    memory: &Arc<VariantMemory>,
    instruction_factor: f64,
) -> ThreadRunStats {
    let spec = &program.threads[thread];
    let mut state = ThreadState {
        current_fd: -1,
        current_brk: 0,
        stats: ThreadRunStats::default(),
    };

    // Thread 0 performs the process bookkeeping: one clone per worker thread
    // at the start, exit_group at the end — mirroring what a real threaded
    // program's initial thread does.
    if thread == 0 {
        for _ in 1..program.thread_count() {
            if issue(port, &SyscallRequest::new(Sysno::Clone), &mut state).is_err() {
                state.stats.killed = true;
                return state.stats;
            }
        }
    }

    let result = run_actions(
        &spec.actions,
        program,
        port,
        memory,
        instruction_factor,
        &mut state,
    );
    if result.is_err() {
        state.stats.killed = true;
        return state.stats;
    }

    if thread == 0 {
        let _ = issue(
            port,
            &SyscallRequest::new(Sysno::ExitGroup).with_int(0),
            &mut state,
        );
    }
    state.stats
}

/// Convenience: runs every thread of `program` on its own OS thread —
/// acquiring each thread's port from the factory inside that OS thread —
/// and returns the merged statistics.  Used for native runs and tests; the
/// MVEE runner spawns threads for all variants itself.
pub fn execute_all_threads(
    program: &Program,
    port: Arc<dyn SyscallPort>,
    memory: Arc<VariantMemory>,
    instruction_factor: f64,
) -> ThreadRunStats {
    let program = Arc::new(program.clone());
    let mut handles = Vec::new();
    for t in 0..program.thread_count() {
        let program = Arc::clone(&program);
        let port = Arc::clone(&port);
        let memory = Arc::clone(&memory);
        handles.push(std::thread::spawn(move || {
            let thread_port = port.thread_port(t);
            execute_thread(&program, t, &*thread_port, &memory, instruction_factor)
        }));
    }
    let mut total = ThreadRunStats::default();
    for h in handles {
        total.merge(&h.join().expect("variant thread panicked"));
    }
    total
}

fn run_actions(
    actions: &[Action],
    program: &Program,
    port: &dyn ThreadSyscallPort,
    memory: &Arc<VariantMemory>,
    factor: f64,
    state: &mut ThreadState,
) -> Result<(), Killed> {
    for action in actions {
        run_action(action, program, port, memory, factor, state)?;
    }
    Ok(())
}

fn run_action(
    action: &Action,
    program: &Program,
    port: &dyn ThreadSyscallPort,
    memory: &Arc<VariantMemory>,
    factor: f64,
    state: &mut ThreadState,
) -> Result<(), Killed> {
    match action {
        Action::Compute(units) => {
            let scaled = ((*units as f64) * factor) as u64;
            busy_work(scaled);
            state.stats.instructions += scaled;
        }
        Action::Nop => {
            state.stats.instructions += 1;
        }
        Action::LockAcquire(lock) => {
            let addr = memory.lock_addr(*lock);
            loop {
                let acquired = sync_op(port, addr, state, || memory.lock_try_acquire(*lock))?;
                state.stats.instructions += 8;
                if acquired {
                    break;
                }
                std::thread::yield_now();
            }
        }
        Action::LockRelease(lock) => {
            let addr = memory.lock_addr(*lock);
            sync_op(port, addr, state, || memory.lock_release(*lock))?;
            state.stats.instructions += 4;
        }
        Action::AtomicAdd { counter, amount } => {
            let addr = memory.counter_addr(*counter);
            sync_op(port, addr, state, || memory.counter_add(*counter, *amount))?;
            state.stats.instructions += 4;
        }
        Action::BarrierWait {
            barrier,
            participants,
        } => {
            let addr = memory.barrier_addr(*barrier);
            let mut seen = sync_op(port, addr, state, || memory.barrier_arrive(*barrier))?;
            state.stats.instructions += 8;
            while seen < *participants {
                seen = sync_op(port, addr, state, || memory.barrier_count(*barrier))?;
                state.stats.instructions += 4;
                if seen < *participants {
                    std::thread::yield_now();
                }
            }
        }
        Action::QueuePush { queue, value } => {
            let lock_addr = memory.queue_lock_addr(*queue);
            acquire_raw(port, memory, lock_addr, *queue, state)?;
            memory.queue_push(*queue, *value);
            release_raw(port, memory, lock_addr, *queue, state)?;
            state.stats.instructions += 24;
        }
        Action::QueuePop { queue, print } => {
            let lock_addr = memory.queue_lock_addr(*queue);
            acquire_raw(port, memory, lock_addr, *queue, state)?;
            let popped = memory.queue_pop(*queue);
            release_raw(port, memory, lock_addr, *queue, state)?;
            state.stats.instructions += 24;
            if *print {
                let value = popped.map(|v| v as i64).unwrap_or(-1);
                let payload = format!("pop q{} -> {}\n", queue, value);
                let req = SyscallRequest::new(Sysno::Write)
                    .with_fd(1)
                    .with_payload(payload.as_bytes());
                issue(port, &req, state)?;
            }
        }
        Action::PrintCounter(counter) => {
            let addr = memory.counter_addr(*counter);
            let value = sync_op(port, addr, state, || memory.counter_value(*counter))?;
            let payload = format!("counter {} = {}\n", counter, value);
            let req = SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(payload.as_bytes());
            issue(port, &req, state)?;
        }
        Action::Syscall(spec) => {
            run_syscall_spec(spec, port, state)?;
        }
        Action::Repeat { times, body } => {
            for _ in 0..*times {
                run_actions(body, program, port, memory, factor, state)?;
            }
        }
    }
    Ok(())
}

/// One instrumented sync op, counted.  `Killed` once the port reports the
/// run over; `op` then does not run.
fn sync_op<T>(
    port: &dyn ThreadSyscallPort,
    addr: u64,
    state: &mut ThreadState,
    op: impl FnOnce() -> T,
) -> Result<T, Killed> {
    let result = port.sync_op(addr, op).map_err(|_| Killed)?;
    state.stats.sync_ops += 1;
    Ok(result)
}

/// Queue helper: acquire the queue lock with instrumented CAS attempts.
fn acquire_raw(
    port: &dyn ThreadSyscallPort,
    memory: &Arc<VariantMemory>,
    lock_addr: u64,
    queue: u32,
    state: &mut ThreadState,
) -> Result<(), Killed> {
    let try_acquire = || memory.lock_try_acquire_queue(queue);
    while !sync_op(port, lock_addr, state, try_acquire)? {
        std::thread::yield_now();
    }
    Ok(())
}

/// Queue helper: release the queue lock with an instrumented store.
fn release_raw(
    port: &dyn ThreadSyscallPort,
    memory: &Arc<VariantMemory>,
    lock_addr: u64,
    queue: u32,
    state: &mut ThreadState,
) -> Result<(), Killed> {
    sync_op(port, lock_addr, state, || memory.lock_release_queue(queue))
}

fn run_syscall_spec(
    spec: &SyscallSpec,
    port: &dyn ThreadSyscallPort,
    state: &mut ThreadState,
) -> Result<(), Killed> {
    let req = match spec {
        SyscallSpec::OpenInput { path } => SyscallRequest::new(Sysno::Open)
            .with_path(path)
            .with_arg(SyscallArg::Flags(OpenFlags::READ.bits())),
        SyscallSpec::ReadChunk { len } => SyscallRequest::new(Sysno::Read)
            .with_fd(state.current_fd)
            .with_int(*len as i64),
        SyscallSpec::CloseCurrent => SyscallRequest::new(Sysno::Close).with_fd(state.current_fd),
        SyscallSpec::WriteOutput { len, tag } => {
            let mut payload = Vec::with_capacity(*len);
            while payload.len() < *len {
                payload.extend_from_slice(&tag.to_le_bytes());
            }
            payload.truncate(*len);
            SyscallRequest::new(Sysno::Write)
                .with_fd(1)
                .with_payload(&payload)
        }
        SyscallSpec::BrkGrow { grow } => {
            if state.current_brk == 0 {
                // First use: query the current break.
                let query = SyscallRequest::new(Sysno::Brk).with_int(0);
                let out = issue(port, &query, state)?;
                state.current_brk = out.result.unwrap_or(0).max(0) as u64;
            }
            let target = state.current_brk + grow;
            state.current_brk = target;
            SyscallRequest::new(Sysno::Brk).with_int(target as i64)
        }
        SyscallSpec::MmapAnon { len } => SyscallRequest::new(Sysno::Mmap)
            .with_int(*len as i64)
            .with_arg(SyscallArg::Flags(3)),
        SyscallSpec::Gettimeofday => SyscallRequest::new(Sysno::Gettimeofday),
        SyscallSpec::SchedYield => SyscallRequest::new(Sysno::SchedYield),
        SyscallSpec::Getpid => SyscallRequest::new(Sysno::Getpid),
        SyscallSpec::Raw(req) => req.clone(),
    };
    let outcome = issue(port, &req, state)?;
    if let SyscallSpec::OpenInput { .. } = spec {
        state.current_fd = outcome.result.unwrap_or(-1) as i32;
    }
    Ok(())
}

fn issue(
    port: &dyn ThreadSyscallPort,
    req: &SyscallRequest,
    state: &mut ThreadState,
) -> Result<mvee_kernel::syscall::SyscallOutcome, Killed> {
    state.stats.syscalls += 1;
    state.stats.instructions += 64;
    match port.syscall(req) {
        Ok(outcome) => {
            if outcome.result.is_err() {
                state.stats.syscall_errors += 1;
            }
            Ok(outcome)
        }
        Err(_) => Err(Killed),
    }
}

/// Busy work loop: roughly one "instruction" per unit.
fn busy_work(units: u64) {
    let mut acc = 0x9e37_79b9u64;
    for i in 0..units {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        std::hint::black_box(acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::NativePort;
    use crate::program::ThreadSpec;
    use mvee_kernel::kernel::Kernel;

    fn native_setup(program: &Program) -> (Arc<dyn SyscallPort>, Arc<VariantMemory>, Arc<Kernel>) {
        let kernel = Arc::new(Kernel::new_manual_clock());
        let pid = kernel.spawn_process();
        for (path, contents) in &program.files {
            kernel.install_file(path, contents);
        }
        let port: Arc<dyn SyscallPort> = Arc::new(NativePort::new(Arc::clone(&kernel), pid));
        let memory = Arc::new(VariantMemory::for_program(program, 0x7f00_0000_0000));
        (port, memory, kernel)
    }

    fn run_one_thread(
        program: &Program,
        thread: usize,
        port: &Arc<dyn SyscallPort>,
        memory: &Arc<VariantMemory>,
        factor: f64,
    ) -> ThreadRunStats {
        let thread_port = port.thread_port(thread);
        execute_thread(program, thread, &*thread_port, memory, factor)
    }

    #[test]
    fn single_thread_program_runs_and_counts() {
        let mut p = Program::new("t").with_resources(1, 0, 0, 1);
        p.add_thread(ThreadSpec::new(vec![
            Action::Compute(100),
            Action::LockAcquire(0),
            Action::AtomicAdd {
                counter: 0,
                amount: 5,
            },
            Action::LockRelease(0),
            Action::PrintCounter(0),
        ]));
        let (port, memory, kernel) = native_setup(&p);
        let stats = run_one_thread(&p, 0, &port, &memory, 1.0);
        assert!(!stats.killed);
        assert_eq!(stats.sync_ops, 4, "acquire + add + release + counter read");
        // PrintCounter write + exit_group.
        assert_eq!(stats.syscalls, 2);
        assert_eq!(memory.counter_value(0), 5);
        let out = kernel.console_output(0);
        assert_eq!(String::from_utf8(out).unwrap(), "counter 0 = 5\n");
    }

    #[test]
    fn file_io_round_trip() {
        let mut p = Program::new("io").with_file("/data.bin", b"0123456789");
        p.add_thread(ThreadSpec::new(vec![
            Action::Syscall(SyscallSpec::OpenInput {
                path: "/data.bin".into(),
            }),
            Action::Syscall(SyscallSpec::ReadChunk { len: 4 }),
            Action::Syscall(SyscallSpec::ReadChunk { len: 4 }),
            Action::Syscall(SyscallSpec::CloseCurrent),
        ]));
        let (port, memory, _kernel) = native_setup(&p);
        let stats = run_one_thread(&p, 0, &port, &memory, 1.0);
        assert_eq!(stats.syscall_errors, 0);
        assert_eq!(stats.syscalls, 4 + 1, "4 explicit + exit_group");
    }

    #[test]
    fn repeat_multiplies_work() {
        let mut p = Program::new("r").with_resources(1, 0, 0, 1);
        p.add_thread(ThreadSpec::new(vec![Action::Repeat {
            times: 10,
            body: vec![
                Action::LockAcquire(0),
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
                Action::LockRelease(0),
            ],
        }]));
        let (port, memory, _kernel) = native_setup(&p);
        let stats = run_one_thread(&p, 0, &port, &memory, 1.0);
        assert_eq!(memory.counter_value(0), 10);
        assert_eq!(stats.sync_ops, 30);
    }

    #[test]
    fn multi_threaded_queue_program_conserves_items() {
        let mut p = Program::new("q").with_resources(0, 1, 1, 1);
        // Thread 0 pushes 20 items; threads 1 and 2 pop 10 each.
        p.add_thread(ThreadSpec::new(vec![
            Action::Repeat {
                times: 20,
                body: vec![Action::QueuePush { queue: 0, value: 1 }],
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
                    times: 10,
                    body: vec![Action::QueuePop {
                        queue: 0,
                        print: false,
                    }],
                },
            ]));
        }
        let (port, memory, _kernel) = native_setup(&p);
        let stats = execute_all_threads(&p, port, Arc::clone(&memory), 1.0);
        assert!(!stats.killed);
        assert_eq!(memory.queue_len(0), 0, "all pushed items were popped");
        assert!(stats.sync_ops >= 20 * 2 + 20 * 2 + 3);
    }

    #[test]
    fn barrier_blocks_until_all_arrive() {
        let mut p = Program::new("b").with_resources(0, 1, 0, 1);
        for _ in 0..4 {
            p.add_thread(ThreadSpec::new(vec![
                Action::BarrierWait {
                    barrier: 0,
                    participants: 4,
                },
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
            ]));
        }
        let (port, memory, _kernel) = native_setup(&p);
        let stats = execute_all_threads(&p, port, Arc::clone(&memory), 1.0);
        assert_eq!(memory.counter_value(0), 4);
        assert!(!stats.killed);
    }

    #[test]
    fn instruction_factor_scales_instruction_count() {
        let mut p = Program::new("f");
        p.add_thread(ThreadSpec::new(vec![Action::Compute(10_000)]));
        let (port, memory, _kernel) = native_setup(&p);
        let base = run_one_thread(&p, 0, &port, &memory, 1.0);
        let (port2, memory2, _k2) = native_setup(&p);
        let skewed = run_one_thread(&p, 0, &port2, &memory2, 1.05);
        assert!(skewed.instructions > base.instructions);
    }

    #[test]
    fn thread_zero_issues_clone_per_worker() {
        let mut p = Program::new("c");
        p.add_thread(ThreadSpec::new(vec![Action::Nop]));
        p.add_thread(ThreadSpec::new(vec![Action::Nop]));
        p.add_thread(ThreadSpec::new(vec![Action::Nop]));
        let (port, memory, _kernel) = native_setup(&p);
        let stats = run_one_thread(&p, 0, &port, &memory, 1.0);
        // Two clones (for threads 1 and 2) + exit_group.
        assert_eq!(stats.syscalls, 3);
    }
}
