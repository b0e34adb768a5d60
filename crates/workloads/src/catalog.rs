//! The PARSEC 2.1 / SPLASH-2x workload catalog (Table 2 of the paper).
//!
//! Each [`BenchmarkSpec`] carries the numbers the paper reports for the
//! benchmark run with four worker threads — native run time in seconds,
//! system calls per second and sync ops per second — plus a qualitative
//! *topology* describing how its threads interact.  [`BenchmarkSpec::program`]
//! expands the spec into a runnable [`Program`] whose rates approximate a
//! scaled-down version of the original: the synthetic program performs
//! `rate × scaled-duration` system calls and sync ops spread over the same
//! number of worker threads.
//!
//! The catalog excludes `canneal` (intentionally racy, fundamentally
//! incompatible with an MVEE) and `cholesky` (does not build on the paper's
//! system), exactly as the paper does (§5.1).

use serde::{Deserialize, Serialize};

use mvee_variant::program::{Action, Program, SyscallSpec, ThreadSpec};

/// Which suite a benchmark belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// PARSEC 2.1.
    Parsec,
    /// SPLASH-2x.
    Splash2x,
    /// Synthetic additions beyond the paper's Table 2 (the allocator-churn
    /// workloads of [`CHURN_CATALOG`]); kept out of [`CATALOG`] so the
    /// paper-shaped aggregates stay comparable.
    Synthetic,
}

impl Suite {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Parsec => "PARSEC 2.1",
            Suite::Splash2x => "SPLASH-2x",
            Suite::Synthetic => "synthetic",
        }
    }
}

/// How the benchmark's threads interact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Topology {
    /// Independent workers that synchronize at phase barriers and touch a few
    /// shared counters (most SPLASH kernels, blackscholes, ...).
    DataParallel,
    /// A producer/transform/consumer pipeline over shared queues
    /// (dedup, ferret, vips).
    Pipeline,
    /// A central task queue all workers contend on
    /// (radiosity, raytrace, bodytrack).
    TaskQueue,
    /// Allocator churn: the syscall stream is dominated by address-space
    /// calls — thread 0 grows the (process-shared) break, workers map
    /// anonymous memory — the compare-only class whose comparisons the
    /// batched monitor defers.  Not a paper topology; added so batching
    /// moves something on the paper-shaped tables (the `paper` bench
    /// binary's Table 1b, batch 1 against batch 8).
    AllocatorChurn,
    /// Lock-heavy contention: every thread hammers a *small shared* set of
    /// locks with almost no compute between acquisitions, so nearly all
    /// run time is spent inside the agents' record/replay waits.  Not a
    /// paper topology; added so the `paper` bench binary's `many-variants`
    /// cells measure the agent hot path instead of the workload around it.
    LockHeavy,
}

/// One benchmark of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkSpec {
    /// Benchmark name as printed in the paper.
    pub name: &'static str,
    /// Which suite it belongs to.
    pub suite: Suite,
    /// Native run time in seconds (Table 2, four worker threads).
    pub native_runtime_s: f64,
    /// System calls per second (Table 2 reports thousands/sec).
    pub syscalls_per_s: f64,
    /// Sync ops per second (Table 2 reports thousands/sec).
    pub sync_ops_per_s: f64,
    /// Thread topology.
    pub topology: Topology,
}

/// Table 2 of the paper, converted to calls/second and ops/second.
pub const CATALOG: &[BenchmarkSpec] = &[
    BenchmarkSpec {
        name: "blackscholes",
        suite: Suite::Parsec,
        native_runtime_s: 80.83,
        syscalls_per_s: 2_550.0,
        sync_ops_per_s: 0.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "bodytrack",
        suite: Suite::Parsec,
        native_runtime_s: 60.06,
        syscalls_per_s: 8_590.0,
        sync_ops_per_s: 202_360.0,
        topology: Topology::TaskQueue,
    },
    BenchmarkSpec {
        name: "dedup",
        suite: Suite::Parsec,
        native_runtime_s: 18.29,
        syscalls_per_s: 134_270.0,
        sync_ops_per_s: 1_052_450.0,
        topology: Topology::Pipeline,
    },
    BenchmarkSpec {
        name: "facesim",
        suite: Suite::Parsec,
        native_runtime_s: 142.52,
        syscalls_per_s: 4_140.0,
        sync_ops_per_s: 288_750.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "ferret",
        suite: Suite::Parsec,
        native_runtime_s: 103.79,
        syscalls_per_s: 2_290.0,
        sync_ops_per_s: 225_100.0,
        topology: Topology::Pipeline,
    },
    BenchmarkSpec {
        name: "fluidanimate",
        suite: Suite::Parsec,
        native_runtime_s: 93.19,
        syscalls_per_s: 450.0,
        sync_ops_per_s: 12_746_590.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "freqmine",
        suite: Suite::Parsec,
        native_runtime_s: 168.66,
        syscalls_per_s: 350.0,
        sync_ops_per_s: 240.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "raytrace",
        suite: Suite::Parsec,
        native_runtime_s: 147.54,
        syscalls_per_s: 780.0,
        sync_ops_per_s: 88_330.0,
        topology: Topology::TaskQueue,
    },
    BenchmarkSpec {
        name: "streamcluster",
        suite: Suite::Parsec,
        native_runtime_s: 136.05,
        syscalls_per_s: 5_630.0,
        sync_ops_per_s: 18_780.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "swaptions",
        suite: Suite::Parsec,
        native_runtime_s: 86.68,
        syscalls_per_s: 10.0,
        sync_ops_per_s: 4_585_650.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "vips",
        suite: Suite::Parsec,
        native_runtime_s: 37.09,
        syscalls_per_s: 15_760.0,
        sync_ops_per_s: 428_690.0,
        topology: Topology::Pipeline,
    },
    BenchmarkSpec {
        name: "x264",
        suite: Suite::Parsec,
        native_runtime_s: 34.73,
        syscalls_per_s: 500.0,
        sync_ops_per_s: 15_980.0,
        topology: Topology::Pipeline,
    },
    BenchmarkSpec {
        name: "barnes",
        suite: Suite::Splash2x,
        native_runtime_s: 61.15,
        syscalls_per_s: 19_610.0,
        sync_ops_per_s: 5_115_990.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "fft",
        suite: Suite::Splash2x,
        native_runtime_s: 40.26,
        syscalls_per_s: 10.0,
        sync_ops_per_s: 1_640.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "fmm",
        suite: Suite::Splash2x,
        native_runtime_s: 42.68,
        syscalls_per_s: 910.0,
        sync_ops_per_s: 5_215_010.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "lu_cb",
        suite: Suite::Splash2x,
        native_runtime_s: 51.16,
        syscalls_per_s: 80.0,
        sync_ops_per_s: 230.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "lu_ncb",
        suite: Suite::Splash2x,
        native_runtime_s: 73.55,
        syscalls_per_s: 50.0,
        sync_ops_per_s: 160.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "ocean_cp",
        suite: Suite::Splash2x,
        native_runtime_s: 39.39,
        syscalls_per_s: 1_210.0,
        sync_ops_per_s: 5_050.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "ocean_ncp",
        suite: Suite::Splash2x,
        native_runtime_s: 41.68,
        syscalls_per_s: 1_080.0,
        sync_ops_per_s: 4_550.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "radiosity",
        suite: Suite::Splash2x,
        native_runtime_s: 45.56,
        syscalls_per_s: 33_420.0,
        sync_ops_per_s: 18_252_680.0,
        topology: Topology::TaskQueue,
    },
    BenchmarkSpec {
        name: "radix",
        suite: Suite::Splash2x,
        native_runtime_s: 18.22,
        syscalls_per_s: 20.0,
        sync_ops_per_s: 40.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "raytrace_splash",
        suite: Suite::Splash2x,
        native_runtime_s: 52.52,
        syscalls_per_s: 6_630.0,
        sync_ops_per_s: 536_790.0,
        topology: Topology::TaskQueue,
    },
    BenchmarkSpec {
        name: "volrend",
        suite: Suite::Splash2x,
        native_runtime_s: 52.02,
        syscalls_per_s: 15_860.0,
        sync_ops_per_s: 1_071_250.0,
        topology: Topology::TaskQueue,
    },
    BenchmarkSpec {
        name: "water_nsquared",
        suite: Suite::Splash2x,
        native_runtime_s: 182.80,
        syscalls_per_s: 880.0,
        sync_ops_per_s: 8_610.0,
        topology: Topology::DataParallel,
    },
    BenchmarkSpec {
        name: "water_spatial",
        suite: Suite::Splash2x,
        native_runtime_s: 59.84,
        syscalls_per_s: 148_270.0,
        sync_ops_per_s: 9_630.0,
        topology: Topology::DataParallel,
    },
];

/// Allocator-churn (brk/mmap-dense) workloads beyond the paper's Table 2.
///
/// The PARSEC/SPLASH catalog is I/O- and sync-op-dominated: almost nothing
/// in it issues the compare-only address-space calls the batched monitor
/// defers, so a comparison-batching sweep over [`CATALOG`] is flat by
/// construction.  These two synthetic specs put the monitor's deferred-
/// comparison path on the paper-shaped tables: `memchurn` models a
/// glibc-malloc-style mixed brk/mmap allocator under load, `mmapstorm` a
/// mmap-per-allocation arena (jemalloc-style chunk churn).  The `paper`
/// bench binary's Table 1b and Figure 5 sweep them alongside the paper
/// catalog.
pub const CHURN_CATALOG: &[BenchmarkSpec] = &[
    BenchmarkSpec {
        name: "memchurn",
        suite: Suite::Synthetic,
        native_runtime_s: 20.0,
        syscalls_per_s: 180_000.0,
        sync_ops_per_s: 60_000.0,
        topology: Topology::AllocatorChurn,
    },
    BenchmarkSpec {
        name: "mmapstorm",
        suite: Suite::Synthetic,
        native_runtime_s: 12.0,
        syscalls_per_s: 260_000.0,
        sync_ops_per_s: 9_000.0,
        topology: Topology::AllocatorChurn,
    },
];

/// Contention-heavy workloads beyond the paper's Table 2.
///
/// `lockheavy` spends essentially all of its time in sync ops on a handful
/// of *shared* locks: every acquisition is a record (master) or an ordered
/// replay wait (slave), which makes it the workload where the agents' wait
/// discipline (spin → yield → park) dominates end-to-end time.  The
/// `paper` bench binary's `many-variants` cells sweep it across agent
/// kinds, variant and thread counts; like the churn catalog it stays out
/// of [`CATALOG`] so the paper-shaped aggregates remain comparable.
pub const CONTENTION_CATALOG: &[BenchmarkSpec] = &[BenchmarkSpec {
    name: "lockheavy",
    suite: Suite::Synthetic,
    native_runtime_s: 15.0,
    syscalls_per_s: 1_200.0,
    sync_ops_per_s: 6_000_000.0,
    topology: Topology::LockHeavy,
}];

/// The full benchmark sweep of Figure 5: the paper's Table 2 catalog plus
/// the allocator-churn additions.
pub fn sweep_catalog() -> impl Iterator<Item = &'static BenchmarkSpec> {
    CATALOG.iter().chain(CHURN_CATALOG.iter())
}

/// Number of worker threads the paper uses for every benchmark.
pub const PAPER_WORKER_THREADS: usize = 4;

/// Abstract compute units the synthetic programs execute per second of
/// simulated run time.  The busy-work loop retires roughly one unit per
/// nanosecond on a modern core, so this constant keeps the scaled run times
/// in the low-millisecond range used by the benchmark harness.
pub const COMPUTE_UNITS_PER_SECOND: f64 = 4.0e8;

impl BenchmarkSpec {
    /// Looks a benchmark up by name, in the paper catalog, the
    /// allocator-churn additions and the contention additions.
    pub fn by_name(name: &str) -> Option<&'static BenchmarkSpec> {
        sweep_catalog()
            .chain(CONTENTION_CATALOG.iter())
            .find(|b| b.name == name)
    }

    /// Total system calls over the (unscaled) native run.
    pub fn total_syscalls(&self) -> f64 {
        self.native_runtime_s * self.syscalls_per_s
    }

    /// Total sync ops over the (unscaled) native run.
    pub fn total_sync_ops(&self) -> f64 {
        self.native_runtime_s * self.sync_ops_per_s
    }

    /// Expands the spec into a runnable [`Program`].
    ///
    /// `scale` compresses the native run time: `scale = 1e-4` turns an 80 s
    /// benchmark into an ~8 ms synthetic run with proportionally fewer system
    /// calls and sync ops (the *rates* are preserved, which is what the
    /// agents' overhead depends on).
    pub fn program(&self, threads: usize, scale: f64) -> Program {
        let duration_s = (self.native_runtime_s * scale).max(1e-4);
        let total_syscalls = (self.total_syscalls() * scale).max(2.0) as u64;
        let total_sync_ops = (self.total_sync_ops() * scale) as u64;
        let total_compute = (duration_s * COMPUTE_UNITS_PER_SECOND) as u64;
        match self.topology {
            Topology::DataParallel => data_parallel_program(
                self.name,
                threads,
                total_compute,
                total_sync_ops,
                total_syscalls,
            ),
            Topology::Pipeline => pipeline_program(
                self.name,
                threads,
                total_compute,
                total_sync_ops,
                total_syscalls,
            ),
            Topology::TaskQueue => task_queue_program(
                self.name,
                threads,
                total_compute,
                total_sync_ops,
                total_syscalls,
            ),
            Topology::AllocatorChurn => allocator_churn_program(
                self.name,
                threads,
                total_compute,
                total_sync_ops,
                total_syscalls,
            ),
            Topology::LockHeavy => lock_heavy_program(
                self.name,
                threads,
                total_compute,
                total_sync_ops,
                total_syscalls,
            ),
        }
    }

    /// The paper's configuration: four worker threads.
    pub fn paper_program(&self, scale: f64) -> Program {
        self.program(PAPER_WORKER_THREADS, scale)
    }
}

/// Data-parallel topology: each worker loops over (compute, a few mostly
/// uncontended sync ops, an occasional syscall) and meets the others at a
/// barrier at the end.
fn data_parallel_program(
    name: &str,
    threads: usize,
    compute: u64,
    sync_ops: u64,
    syscalls: u64,
) -> Program {
    let threads = threads.max(1);
    let mut p = Program::new(name)
        .with_resources(threads as u32 + 2, 1, 0, threads as u32)
        .with_file("/input.dat", &vec![0x5a; 64 * 1024]);
    let iters_per_thread = 64u64;
    let compute_per_iter = (compute / threads as u64 / iters_per_thread).max(1);
    // Each loop iteration performs: acquire+release of a (mostly private)
    // lock (2 ops) + one atomic add (1 op) = 3 sync ops.
    let sync_per_thread = sync_ops / threads as u64;
    let iterations = (sync_per_thread / 3).clamp(1, 100_000);
    let compute_per_iter = compute_per_iter * iters_per_thread / iterations.max(1);
    let syscall_period = (iterations / (syscalls / threads as u64).max(1)).max(1);

    for t in 0..threads {
        let own_lock = t as u32;
        let shared_lock = threads as u32; // one contended lock shared by all
        let mut body = vec![
            Action::Compute(compute_per_iter.max(1)),
            Action::LockAcquire(if t % 4 == 0 { shared_lock } else { own_lock }),
            Action::AtomicAdd {
                counter: t as u32,
                amount: 1,
            },
            Action::LockRelease(if t % 4 == 0 { shared_lock } else { own_lock }),
        ];
        if syscall_period <= iterations {
            body.push(Action::Syscall(SyscallSpec::Gettimeofday));
        }
        let mut actions = vec![Action::Syscall(SyscallSpec::OpenInput {
            path: "/input.dat".into(),
        })];
        actions.push(Action::Syscall(SyscallSpec::ReadChunk { len: 4096 }));
        actions.push(Action::Repeat {
            times: iterations,
            body,
        });
        actions.push(Action::BarrierWait {
            barrier: 0,
            participants: threads as u32,
        });
        actions.push(Action::Syscall(SyscallSpec::WriteOutput {
            len: 64,
            tag: t as u64,
        }));
        p.add_thread(ThreadSpec::new(actions));
    }
    p
}

/// Pipeline topology (dedup/ferret/vips): thread 0 produces items into a
/// queue, interior threads move items between queues, the last thread
/// consumes and writes output.  Every hand-off is lock-protected, so the
/// sync-op rate tracks the item rate.
fn pipeline_program(
    name: &str,
    threads: usize,
    compute: u64,
    sync_ops: u64,
    syscalls: u64,
) -> Program {
    let threads = threads.max(2);
    let stages = threads;
    let queues = (stages - 1) as u32;
    let mut p = Program::new(name)
        .with_resources(2, 1, queues, 1)
        .with_file("/stream.dat", &vec![0xa5; 128 * 1024]);
    // Each item crosses `queues` queues; each crossing is a push + pop, each
    // of which is ~4 sync ops (lock CAS, release, plus the data moves).
    let items = (sync_ops / (u64::from(queues) * 8).max(1)).clamp(8, 20_000);
    let compute_per_item = (compute / items.max(1) / stages as u64).max(1);
    let write_period = (items / syscalls.max(1)).max(1);

    // Stage 0: producer.
    let mut producer = vec![Action::Syscall(SyscallSpec::OpenInput {
        path: "/stream.dat".into(),
    })];
    producer.push(Action::Repeat {
        times: items,
        body: vec![
            Action::Syscall(SyscallSpec::ReadChunk { len: 1024 }),
            Action::Compute(compute_per_item),
            Action::QueuePush { queue: 0, value: 1 },
        ],
    });
    producer.push(Action::BarrierWait {
        barrier: 0,
        participants: stages as u32,
    });
    p.add_thread(ThreadSpec::new(producer));

    // Interior stages.
    for s in 1..stages - 1 {
        let input_queue = (s - 1) as u32;
        let output_queue = s as u32;
        p.add_thread(ThreadSpec::new(vec![
            Action::Repeat {
                times: items,
                body: vec![
                    Action::QueuePop {
                        queue: input_queue,
                        print: false,
                    },
                    Action::Compute(compute_per_item),
                    Action::QueuePush {
                        queue: output_queue,
                        value: 1,
                    },
                ],
            },
            Action::BarrierWait {
                barrier: 0,
                participants: stages as u32,
            },
        ]));
    }

    // Final stage: consumer writing output.
    let last_queue = (stages - 2) as u32;
    p.add_thread(ThreadSpec::new(vec![
        Action::Repeat {
            times: items / write_period.max(1),
            body: vec![
                Action::Repeat {
                    times: write_period,
                    body: vec![
                        Action::QueuePop {
                            queue: last_queue,
                            print: false,
                        },
                        Action::Compute(compute_per_item),
                        Action::AtomicAdd {
                            counter: 0,
                            amount: 1,
                        },
                    ],
                },
                Action::Syscall(SyscallSpec::WriteOutput { len: 256, tag: 99 }),
            ],
        },
        Action::BarrierWait {
            barrier: 0,
            participants: stages as u32,
        },
    ]));
    p
}

/// Task-queue topology (radiosity/bodytrack/raytrace): thread 0 seeds a
/// central queue, then every worker (including thread 0) pops work items
/// from it under a single contended lock.
fn task_queue_program(
    name: &str,
    threads: usize,
    compute: u64,
    sync_ops: u64,
    syscalls: u64,
) -> Program {
    let threads = threads.max(1);
    let mut p = Program::new(name).with_resources(1, 1, 1, threads as u32);
    // Each task is ~8 sync ops of queue traffic plus one atomic progress add.
    let tasks = (sync_ops / 9).clamp(threads as u64 * 2, 40_000);
    let tasks_per_thread = tasks / threads as u64;
    let compute_per_task = (compute / tasks.max(1)).max(1);
    let print_period = (tasks_per_thread / (syscalls / threads as u64).max(1)).max(1);

    // Thread 0 seeds the queue, then works like everyone else.
    let mut seed = vec![Action::Repeat {
        times: tasks,
        body: vec![Action::QueuePush { queue: 0, value: 3 }],
    }];
    seed.push(Action::BarrierWait {
        barrier: 0,
        participants: threads as u32,
    });
    seed.push(worker_loop(
        0,
        tasks_per_thread,
        compute_per_task,
        print_period,
    ));
    seed.push(Action::Syscall(SyscallSpec::WriteOutput {
        len: 32,
        tag: 0,
    }));
    p.add_thread(ThreadSpec::new(seed));

    for t in 1..threads {
        p.add_thread(ThreadSpec::new(vec![
            Action::BarrierWait {
                barrier: 0,
                participants: threads as u32,
            },
            worker_loop(t as u32, tasks_per_thread, compute_per_task, print_period),
            Action::Syscall(SyscallSpec::WriteOutput {
                len: 32,
                tag: t as u64,
            }),
        ]));
    }
    p
}

/// Allocator-churn topology: the syscall stream is dominated by
/// address-space calls.  Thread 0 is the "sbrk arena": it grows the
/// process-shared break in fixed steps (only one thread may move the break,
/// or the compared targets would depend on the interleaving).  Every other
/// thread is an "mmap arena": a loop of fixed-size anonymous mappings.
/// A shared progress counter under a lock supplies enough sync-op traffic
/// that the agents' replication points (batch flush points) fire, and a
/// final barrier + small write gives the run an I/O tail.
fn allocator_churn_program(
    name: &str,
    threads: usize,
    compute: u64,
    sync_ops: u64,
    syscalls: u64,
) -> Program {
    let threads = threads.max(2);
    let mut p = Program::new(name).with_resources(1, 1, 0, 1);
    // Nearly every syscall is an address-space call; split them evenly.
    let alloc_calls_per_thread = (syscalls / threads as u64).clamp(8, 60_000);
    let compute_per_call = (compute / threads as u64 / alloc_calls_per_thread).max(1);
    // Each sync round is a lock/add/unlock triple (3 sync ops), interleaved
    // on a fixed per-thread schedule: one round per chunk of `sync_period`
    // allocations.  The schedule is a pure function of the spec, so every
    // variant reaches its replication points at the same call positions.
    let sync_rounds = (sync_ops / threads as u64 / 3).clamp(1, alloc_calls_per_thread);
    let sync_period = (alloc_calls_per_thread / sync_rounds).max(1);
    let chunks = alloc_calls_per_thread / sync_period;

    for t in 0..threads {
        let alloc = || {
            if t == 0 {
                Action::Syscall(SyscallSpec::BrkGrow { grow: 4096 })
            } else {
                Action::Syscall(SyscallSpec::MmapAnon { len: 16 * 1024 })
            }
        };
        let mut actions = vec![Action::Repeat {
            times: chunks,
            body: vec![
                Action::Repeat {
                    times: sync_period,
                    body: vec![alloc(), Action::Compute(compute_per_call)],
                },
                Action::LockAcquire(0),
                Action::AtomicAdd {
                    counter: 0,
                    amount: 1,
                },
                Action::LockRelease(0),
            ],
        }];
        // Rounding remainder, so the allocation count tracks the spec.
        let remainder = alloc_calls_per_thread - chunks * sync_period;
        if remainder > 0 {
            actions.push(Action::Repeat {
                times: remainder,
                body: vec![alloc(), Action::Compute(compute_per_call)],
            });
        }
        actions.push(Action::BarrierWait {
            barrier: 0,
            participants: threads as u32,
        });
        actions.push(Action::Syscall(SyscallSpec::WriteOutput {
            len: 32,
            tag: t as u64,
        }));
        p.add_thread(ThreadSpec::new(actions));
    }
    p
}

/// Lock-heavy topology: every thread loops over a tiny set of *shared*
/// locks (far fewer locks than threads) with a single atomic add and almost
/// no compute inside each critical section.  Thread `t` starts on lock
/// `t % locks` and walks the set round-robin, so every lock is contended by
/// every thread and the recorded order genuinely interleaves threads.
/// A few `gettimeofday` calls give the monitor a heartbeat without turning
/// the run I/O-bound, and a final barrier + write gives it a verifiable
/// tail.
fn lock_heavy_program(
    name: &str,
    threads: usize,
    compute: u64,
    sync_ops: u64,
    syscalls: u64,
) -> Program {
    let threads = threads.max(2);
    // Deliberately fewer locks than threads: contention is the point.
    let locks = ((threads / 2).max(2)) as u32;
    let mut p = Program::new(name).with_resources(locks, 1, 0, threads as u32);
    // Each iteration is lock + add + unlock = 3 sync ops.
    let iterations = (sync_ops / threads as u64 / 3).clamp(8, 120_000);
    // The spec's syscall rate is a trickle next to its sync-op rate; a
    // small fixed heartbeat before the barrier keeps the run sync-op
    // dominated at every scale.
    let heartbeats = (syscalls / threads as u64).clamp(1, 4);
    let walk_len = u64::from(locks).min(4);
    // One Compute action per `walk_len`-iteration Repeat body, so the
    // per-body amount is scaled by the body count, not the iteration count.
    let bodies = (iterations / walk_len).max(1);
    let compute_per_iter = (compute / threads as u64 / bodies).max(1);

    for t in 0..threads {
        let mut body = vec![Action::Compute(compute_per_iter)];
        // Walk the shared lock set round-robin, offset per thread so
        // acquisitions interleave instead of convoying behind lock 0.
        for step in 0..walk_len {
            let lock = (t as u64 + step) % u64::from(locks);
            body.push(Action::LockAcquire(lock as u32));
            body.push(Action::AtomicAdd {
                counter: t as u32,
                amount: 1,
            });
            body.push(Action::LockRelease(lock as u32));
        }
        p.add_thread(ThreadSpec::new(vec![
            Action::Repeat {
                times: bodies,
                body,
            },
            Action::Repeat {
                times: heartbeats,
                body: vec![Action::Syscall(SyscallSpec::Gettimeofday)],
            },
            Action::BarrierWait {
                barrier: 0,
                participants: threads as u32,
            },
            Action::Syscall(SyscallSpec::WriteOutput {
                len: 32,
                tag: t as u64,
            }),
        ]));
    }
    p
}

fn worker_loop(counter: u32, tasks: u64, compute_per_task: u64, print_period: u64) -> Action {
    Action::Repeat {
        times: tasks.max(1),
        body: vec![
            Action::QueuePop {
                queue: 0,
                print: false,
            },
            Action::Compute(compute_per_task),
            Action::AtomicAdd { counter, amount: 1 },
            Action::Repeat {
                times: u64::from(print_period == 1),
                body: vec![Action::Syscall(SyscallSpec::Gettimeofday)],
            },
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvee_sync_agent::agents::AgentKind;
    use mvee_variant::runner::{run_mvee, run_native, RunConfig};

    #[test]
    fn catalog_matches_the_papers_benchmark_list() {
        assert_eq!(CATALOG.len(), 25, "12 PARSEC + 13 SPLASH-2x benchmarks");
        assert_eq!(
            CATALOG.iter().filter(|b| b.suite == Suite::Parsec).count(),
            12
        );
        assert_eq!(
            CATALOG
                .iter()
                .filter(|b| b.suite == Suite::Splash2x)
                .count(),
            13
        );
        // canneal and cholesky are excluded, as in the paper.
        assert!(BenchmarkSpec::by_name("canneal").is_none());
        assert!(BenchmarkSpec::by_name("cholesky").is_none());
        // Spot-check a Table 2 row: dedup.
        let dedup = BenchmarkSpec::by_name("dedup").unwrap();
        assert_eq!(dedup.native_runtime_s, 18.29);
        assert!(dedup.syscalls_per_s > 100_000.0);
        assert!(dedup.sync_ops_per_s > 1_000_000.0);
    }

    #[test]
    fn every_spec_expands_into_a_program_with_four_worker_threads() {
        for spec in CATALOG {
            let program = spec.paper_program(2e-5);
            assert!(
                program.thread_count() >= 2,
                "{} must be multithreaded",
                spec.name
            );
            assert!(
                program.thread_count() <= PAPER_WORKER_THREADS + 1,
                "{} has too many threads",
                spec.name
            );
            assert!(program.estimated_sync_ops() > 0 || spec.sync_ops_per_s < 1000.0);
        }
    }

    #[test]
    fn scale_controls_the_amount_of_work() {
        let spec = BenchmarkSpec::by_name("barnes").unwrap();
        let small = spec.paper_program(1e-5);
        let large = spec.paper_program(1e-4);
        assert!(large.estimated_sync_ops() > small.estimated_sync_ops());
    }

    #[test]
    fn high_sync_rate_benchmarks_generate_more_sync_ops() {
        let radiosity = BenchmarkSpec::by_name("radiosity")
            .unwrap()
            .paper_program(1e-5);
        let fft = BenchmarkSpec::by_name("fft").unwrap().paper_program(1e-5);
        assert!(radiosity.estimated_sync_ops() > 10 * fft.estimated_sync_ops().max(1));
    }

    #[test]
    fn data_parallel_program_runs_natively() {
        let spec = BenchmarkSpec::by_name("streamcluster").unwrap();
        let report = run_native(&spec.paper_program(1e-5));
        assert!(!report.threads.killed);
        assert!(report.threads.sync_ops > 0);
    }

    #[test]
    fn pipeline_program_completes_under_the_mvee() {
        let spec = BenchmarkSpec::by_name("dedup").unwrap();
        let program = spec.paper_program(4e-6);
        let report = run_mvee(&program, &RunConfig::new(2, AgentKind::WallOfClocks));
        assert!(
            report.completed_cleanly(),
            "divergence: {:?}",
            report.divergence
        );
    }

    #[test]
    fn task_queue_program_completes_under_the_mvee() {
        let spec = BenchmarkSpec::by_name("radiosity").unwrap();
        let program = spec.paper_program(2e-6);
        let report = run_mvee(&program, &RunConfig::new(2, AgentKind::WallOfClocks));
        assert!(
            report.completed_cleanly(),
            "divergence: {:?}",
            report.divergence
        );
        assert!(report.agent_stats.ops_recorded > 100);
    }

    #[test]
    fn suite_labels() {
        assert_eq!(Suite::Parsec.label(), "PARSEC 2.1");
        assert_eq!(Suite::Splash2x.label(), "SPLASH-2x");
        assert_eq!(Suite::Synthetic.label(), "synthetic");
    }

    #[test]
    fn churn_catalog_stays_out_of_the_paper_catalog() {
        assert_eq!(CHURN_CATALOG.len(), 2);
        assert!(CATALOG.iter().all(|b| b.suite != Suite::Synthetic));
        assert_eq!(sweep_catalog().count(), CATALOG.len() + CHURN_CATALOG.len());
        // by_name finds both worlds.
        assert!(BenchmarkSpec::by_name("memchurn").is_some());
        assert!(BenchmarkSpec::by_name("dedup").is_some());
    }

    #[test]
    fn churn_programs_expand_and_run_natively() {
        for spec in CHURN_CATALOG {
            let program = spec.paper_program(2e-6);
            assert!(program.thread_count() >= 2, "{}", spec.name);
            let report = run_native(&program);
            assert!(!report.threads.killed, "{}", spec.name);
            assert!(
                report.threads.syscalls > 20,
                "{} must be syscall-dense",
                spec.name
            );
        }
    }

    #[test]
    fn lockheavy_is_contended_and_sync_dominated() {
        let spec = BenchmarkSpec::by_name("lockheavy").unwrap();
        assert_eq!(spec.topology, Topology::LockHeavy);
        // Stays out of the paper-shaped sweep.
        assert!(sweep_catalog().all(|b| b.name != "lockheavy"));
        let program = spec.program(4, 1e-5);
        assert!(program.thread_count() >= 2);
        let report = run_native(&program);
        assert!(!report.threads.killed);
        assert!(
            report.threads.sync_ops > 10 * report.threads.syscalls.max(1),
            "lockheavy must be sync-op-dominated: {} sync ops vs {} syscalls",
            report.threads.sync_ops,
            report.threads.syscalls
        );
    }

    #[test]
    fn lockheavy_completes_under_every_replication_agent() {
        let spec = BenchmarkSpec::by_name("lockheavy").unwrap();
        let program = spec.program(4, 2e-7);
        for kind in AgentKind::replication_agents() {
            let report = run_mvee(&program, &RunConfig::new(2, kind));
            assert!(
                report.completed_cleanly(),
                "{kind:?} diverged: {:?}",
                report.divergence
            );
            assert!(report.agent_stats.ops_recorded > 0, "{kind:?}");
        }
    }

    #[test]
    fn allocator_churn_defers_comparisons_under_a_batched_monitor() {
        let spec = BenchmarkSpec::by_name("memchurn").unwrap();
        let program = spec.paper_program(1e-6);
        let unbatched = run_mvee(&program, &RunConfig::new(2, AgentKind::WallOfClocks));
        assert!(
            unbatched.completed_cleanly(),
            "unbatched diverged: {:?}",
            unbatched.divergence
        );
        assert_eq!(unbatched.monitor.batched_comparisons, 0);
        let batched = run_mvee(
            &program,
            &RunConfig::new(2, AgentKind::WallOfClocks).with_batch(8),
        );
        assert!(
            batched.completed_cleanly(),
            "batched diverged: {:?}",
            batched.divergence
        );
        assert!(
            batched.monitor.batched_comparisons > 0,
            "an allocator-churn workload must exercise the deferred path"
        );
        assert!(batched.monitor.batch_flushes > 0);
    }
}
