//! The shared driver of the three 2 × 1 stream workloads (`lockstep_sync`,
//! `deferred_async`, `remote_unix`): two variant threads, one generated
//! call stream, one port each.
//!
//! A *session* is one MVEE from build to teardown.  Its two variant
//! threads acquire their ports, warm up (that is set-up time), then run the
//! stream in *rounds* of a fixed op count until the master says stop —
//! after a duration on the timed pass, after a round count on the fixed
//! passes, whose public counters must then read exactly what the generator
//! predicts.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mvee_core::async_port::{AsyncThreadPort, SubmitOutcome, Ticket};
use mvee_core::config::Transport;
use mvee_core::monitor::{MonitorError, MonitorStats};
use mvee_core::mvee::Mvee;
use mvee_core::port::ThreadPort;
use mvee_core::remote::LeaderPort;
use mvee_kernel::kernel::KernelStats;
use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};
use mvee_sync_agent::agents::AgentKind;

use crate::gen::{self, Class, Materializer, Native, Observed, Op};
use crate::measure::{good_decile, ns_between, process_cpu_ms, FixedWorkRss, Mode, Samples};
use crate::trace::{Span, Tracer, OP};

/// Pipelined verdicts are reaped in blocks of this many tickets.
pub const REAP_BLOCK: usize = 32;
/// Rendezvous deadline: far above any honest wait, below the watchdog.
pub const LOCKSTEP_TIMEOUT: Duration = Duration::from_secs(20);
/// Latency samples kept per pass; beyond it samples are only counted.
pub const SAMPLE_CAPACITY: usize = 1 << 22;
/// `peak_rss_mb` is read after this many rounds.
const RSS_AFTER_ROUNDS: usize = 12;
/// Single-call submissions of the completion-lag probe.
const LAG_PROBE_OPS: usize = 2048;

/// What distinguishes one stream workload from another.
#[derive(Debug, Clone, Copy)]
pub struct StreamConfig {
    pub name: &'static str,
    pub transport: Transport,
    pub batch: usize,
    /// One replicated `gettimeofday` every this many calls (0: the
    /// request-shaped mix instead of the compare-only stream).
    pub time_every: usize,
    /// Calls per round at scale 1.
    pub round_ops: usize,
    /// Warm-up calls at scale 1 (after the region pool is mapped).
    pub warmup_ops: usize,
    /// Rounds of the fixed passes.
    pub fixed_rounds: usize,
}

impl StreamConfig {
    fn scaled(&self, ops: usize, scale: f64) -> usize {
        // Whole requests / whole flush periods, so every round ends with
        // nothing deferred and its counters are a multiple of one round's.
        let unit = if self.time_every == 0 {
            2 * gen::OPS_PER_REQUEST
        } else {
            self.time_every.max(REAP_BLOCK)
        };
        (((ops as f64 * scale) as usize) / unit).max(1) * unit
    }

    pub fn stream(&self, seed: u64, ops: usize, scale: f64) -> Vec<Op> {
        let ops = self.scaled(ops, scale);
        if self.time_every == 0 {
            gen::request_mix(seed, ops / gen::OPS_PER_REQUEST)
        } else {
            gen::compare_stream(seed, ops, self.time_every)
        }
    }

    pub fn build(&self) -> Mvee {
        Mvee::builder()
            .variants(2)
            .threads(1)
            .agent(AgentKind::Null)
            .batch(self.batch)
            .transport(self.transport)
            .shards(1)
            .lockstep_timeout(LOCKSTEP_TIMEOUT)
            .build()
    }
}

struct Shared {
    mvee: Arc<Mvee>,
    cfg: StreamConfig,
    warmup: Vec<Op>,
    stream: Vec<Op>,
    mode: Mode,
    traced: bool,
    epoch: Instant,
    /// Variant threads + main: end of warm-up, then the start signal.
    ready: Barrier,
    /// The two variant threads, at every round end.
    round: Barrier,
    stop: AtomicBool,
    abort: AtomicBool,
    /// The native baseline of `slowdown_x` (timed passes only).  The host
    /// has slow spells that last seconds, so a baseline taken before or
    /// after the run would put them into the ratio; instead the master runs
    /// one native round right after each MVEE round, and `slowdown_x` is the
    /// median of the round-by-round ratios, each of which saw the same host.
    native: std::sync::Mutex<Option<Native>>,
}

/// What one variant thread hands back.
struct ThreadOut {
    rounds: usize,
    round_walls: Vec<f64>,
    native_walls: Vec<f64>,
    round_cpu_ms: Vec<f64>,
    digests: Vec<u64>,
    failed: u64,
    first_error: Option<String>,
    samples: Samples,
    issue: Samples,
    lag: Samples,
    barrier_ns: Vec<f64>,
    submits: u64,
    backpressured: u64,
    rss_mb: f64,
    spans: Vec<Span>,
}

/// The result of one session.
pub struct Pass {
    pub setup_s: f64,
    pub build_ns: f64,
    pub rounds: usize,
    pub round_ops: usize,
    /// Wall seconds of each round, as the master measured them.
    pub round_walls: Vec<f64>,
    /// Wall seconds of the native round that followed each round.
    pub native_walls: Vec<f64>,
    /// Process CPU milliseconds spent during each round.
    pub round_cpu_ms: Vec<f64>,
    /// Master-observed latency of every call, class-tagged.
    pub samples: Samples,
    /// Call start to control back, address-space calls only.
    pub issue: Samples,
    pub lag: Samples,
    pub barrier_ns: Vec<f64>,
    pub submits: u64,
    pub backpressured: u64,
    /// Peak RSS once a fixed number of rounds was done.
    pub rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub monitor: MonitorStats,
    pub kernel: KernelStats,
    pub poller_threads: usize,
    pub spans: Vec<Span>,
}

impl Pass {
    /// Median over the rounds of MVEE wall over native wall.
    pub fn slowdown(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .round_walls
            .iter()
            .zip(&self.native_walls)
            .map(|(mvee, native)| mvee / native)
            .collect();
        if ratios.is_empty() {
            0.0
        } else {
            crate::measure::median(&mut ratios)
        }
    }

    /// Round throughput in calls per second (see `good_decile`).
    pub fn ops_per_s(&self) -> f64 {
        let mut rates: Vec<f64> = self
            .round_walls
            .iter()
            .map(|w| self.round_ops as f64 / w)
            .collect();
        good_decile(&mut rates, true)
    }

    /// Process CPU milliseconds per thousand calls, round by round.
    pub fn cpu_ms_per_kop(&self) -> f64 {
        let kops = self.round_ops as f64 / 1e3;
        let mut per_kop: Vec<f64> = self.round_cpu_ms.iter().map(|ms| ms / kops).collect();
        good_decile(&mut per_kop, false)
    }
}

/// A blocking port: `ThreadPort` and `LeaderPort` look the same from here.
trait Call {
    fn call(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError>;
}

impl Call for ThreadPort {
    fn call(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        self.syscall(req)
    }
}

impl Call for LeaderPort {
    fn call(&self, req: &SyscallRequest) -> Result<SyscallOutcome, MonitorError> {
        self.syscall(req)
    }
}

/// Per-thread bookkeeping shared by the blocking and the pipelined loops.
struct Lane {
    seen: Observed,
    record: bool,
    samples: Samples,
    issue: Samples,
    tracer: Tracer,
    next_op: u64,
}

fn blocking_ops(port: &impl Call, lane: &mut Lane, ops: &[Op]) -> bool {
    for &op in ops {
        let req = lane.seen.mat.request(op);
        let id = lane.next_op;
        lane.next_op += 1;
        let t0 = Instant::now();
        let result = port.call(&req);
        let t1 = Instant::now();
        if lane.record {
            let ns = ns_between(t0, t1);
            lane.samples.push(op.class() as u8, ns);
            if op.class() == Class::Mem {
                lane.issue.push(0, ns);
            }
        }
        lane.tracer.record("syscall", id, t0, t1);
        let ok = lane.seen.settle(op, result);
        lane.tracer.record(OP, id, t0, Instant::now());
        if !ok {
            return false;
        }
    }
    true
}

struct InFlight {
    ticket: Ticket,
    op: Op,
    id: u64,
    submitted: Instant,
}

fn reap_block(port: &AsyncThreadPort, lane: &mut Lane, block: &mut Vec<InFlight>) -> bool {
    let mut ok = true;
    for f in block.drain(..) {
        let r0 = Instant::now();
        let result = port.reap(f.ticket);
        let r1 = Instant::now();
        if lane.record {
            lane.samples
                .push(f.op.class() as u8, ns_between(f.submitted, r1));
        }
        lane.tracer.record("reap", f.id, r0, r1);
        ok &= lane.seen.settle(f.op, result);
        lane.tracer.record(OP, f.id, f.submitted, Instant::now());
    }
    ok
}

fn pipelined_ops(
    port: &AsyncThreadPort,
    lane: &mut Lane,
    ops: &[Op],
    submits: &mut u64,
    backpressured: &mut u64,
) -> bool {
    let mut block: Vec<InFlight> = Vec::with_capacity(REAP_BLOCK);
    for &op in ops {
        let req = lane.seen.mat.request(op);
        let id = lane.next_op;
        lane.next_op += 1;
        *submits += 1;
        if port.outstanding() == port.depth() {
            *backpressured += 1;
        }
        let t0 = Instant::now();
        let outcome = port.submit(&req);
        let t1 = Instant::now();
        lane.tracer.record("submit", id, t0, t1);
        match outcome {
            SubmitOutcome::Completed(result) => {
                if lane.record {
                    lane.samples.push(op.class() as u8, ns_between(t0, t1));
                }
                let ok = lane.seen.settle(op, result);
                lane.tracer.record(OP, id, t0, Instant::now());
                if !ok {
                    return false;
                }
            }
            SubmitOutcome::Ticket(ticket) => {
                if lane.record && op.class() == Class::Mem {
                    lane.issue.push(0, ns_between(t0, t1));
                }
                block.push(InFlight {
                    ticket,
                    op,
                    id,
                    submitted: t0,
                });
            }
        }
        if block.len() >= REAP_BLOCK && !reap_block(port, lane, &mut block) {
            return false;
        }
    }
    reap_block(port, lane, &mut block)
}

/// Submit return → `try_reap` is `Some`, one call in flight at a time.
fn lag_probe(port: &AsyncThreadPort, lane: &mut Lane, lag: &mut Samples) -> bool {
    for _ in 0..LAG_PROBE_OPS {
        let req = lane.seen.mat.request(Op::Brk);
        match port.submit(&req) {
            SubmitOutcome::Completed(result) => {
                if !lane.seen.settle(Op::Brk, result) {
                    return false;
                }
            }
            SubmitOutcome::Ticket(ticket) => {
                let t1 = Instant::now();
                let result = loop {
                    if let Some(result) = port.try_reap(ticket) {
                        break result;
                    }
                    // Two variant threads spinning on two cores would starve
                    // the poller they are waiting for.
                    std::thread::yield_now();
                };
                lag.push(0, ns_between(t1, Instant::now()));
                if !lane.seen.settle(Op::Brk, result) {
                    return false;
                }
            }
        }
    }
    true
}

enum Port {
    Sync(ThreadPort),
    Leader(LeaderPort),
    Async(AsyncThreadPort),
}

fn variant_thread(shared: &Shared, variant: usize) -> ThreadOut {
    let master = variant == 0;
    let port = match shared.cfg.transport {
        Transport::Sync => Port::Sync(shared.mvee.thread_port(variant, 0)),
        Transport::AsyncRings { .. } => Port::Async(shared.mvee.async_thread_port(variant, 0)),
        Transport::Remote { .. } if master => Port::Leader(shared.mvee.leader_port(0)),
        Transport::Remote { .. } => Port::Sync(shared.mvee.thread_port(variant, 0)),
    };
    // One large allocation per process: the set-up-only sessions record
    // nothing, and repeated 20 MB allocations leave the allocator — and so
    // `peak_rss_mb` — in one of two states.
    let records = master && !matches!(shared.mode, Mode::SetupOnly);
    let capacity = if records { SAMPLE_CAPACITY } else { 0 };
    let mut lane = Lane {
        seen: Observed::default(),
        record: false,
        samples: Samples::with_capacity(capacity),
        issue: Samples::with_capacity(capacity),
        tracer: Tracer::disabled(),
        next_op: 0,
    };
    let mut out = ThreadOut {
        rounds: 0,
        round_walls: Vec::new(),
        native_walls: Vec::new(),
        round_cpu_ms: Vec::new(),
        digests: Vec::new(),
        failed: 0,
        first_error: None,
        samples: Samples::with_capacity(0),
        issue: Samples::with_capacity(0),
        lag: Samples::with_capacity(if master { LAG_PROBE_OPS } else { 0 }),
        barrier_ns: Vec::new(),
        submits: 0,
        backpressured: 0,
        rss_mb: 0.0,
        spans: Vec::new(),
    };
    let mut rss = FixedWorkRss::after_rounds(RSS_AFTER_ROUNDS);
    let (mut submits, mut backpressured) = (0u64, 0u64);
    let mut run = |lane: &mut Lane, ops: &[Op]| match &port {
        Port::Sync(p) => blocking_ops(p, lane, ops),
        Port::Leader(p) => blocking_ops(p, lane, ops),
        Port::Async(p) => pipelined_ops(p, lane, ops, &mut submits, &mut backpressured),
    };

    let pool: Vec<Op> = Materializer::pool_ops().collect();
    let mut alive = run(&mut lane, &pool) && run(&mut lane, &shared.warmup);
    if !alive {
        shared.abort.store(true, Ordering::SeqCst);
    }
    shared.ready.wait();
    shared.ready.wait();

    lane.record = master;
    if shared.traced {
        let spans = 3 * shared.stream.len() * shared.cfg.fixed_rounds;
        lane.tracer = Tracer::new(shared.epoch, variant as u16, true, spans);
    }
    lane.next_op = 0;
    let mut native = if master {
        shared
            .native
            .lock()
            .expect("nobody panics holding it")
            .take()
    } else {
        None
    };
    let started = Instant::now();
    while alive && !shared.abort.load(Ordering::SeqCst) && !matches!(shared.mode, Mode::SetupOnly) {
        let before = lane.seen.digest;
        let cpu0 = if master { process_cpu_ms() } else { 0.0 };
        let t0 = Instant::now();
        alive = run(&mut lane, &shared.stream);
        if alive && master && shared.cfg.transport.is_remote() {
            let b0 = Instant::now();
            if let Err(e) = shared.mvee.remote_barrier() {
                lane.seen
                    .fail(|| format!("replication barrier failed: {e}"));
                alive = false;
            }
            let b1 = Instant::now();
            out.barrier_ns.push(ns_between(b0, b1) as f64);
            lane.tracer.record("remote_barrier", lane.next_op, b0, b1);
        }
        out.round_walls.push(t0.elapsed().as_secs_f64());
        if master {
            // The slave is at most one call behind: the process's CPU time
            // over the master's round is the round's CPU time.
            out.round_cpu_ms.push(process_cpu_ms() - cpu0);
        }
        if let Some(native) = native.as_mut() {
            out.native_walls.push(native.timed(&shared.stream));
        }
        out.rounds += 1;
        rss.rounds_done(out.rounds);
        out.digests.push(lane.seen.digest.0 ^ before.0);
        if !alive {
            shared.abort.store(true, Ordering::SeqCst);
        }
        if master && shared.mode.done(started, out.rounds, 1) {
            shared.stop.store(true, Ordering::SeqCst);
        }
        shared.round.wait();
        if shared.stop.load(Ordering::SeqCst) || shared.abort.load(Ordering::SeqCst) {
            break;
        }
    }
    if alive && shared.traced {
        if let Port::Async(p) = &port {
            lane.record = false;
            lane.tracer.pause();
            lag_probe(p, &mut lane, &mut out.lag);
        }
    }
    drop(port);
    out.rss_mb = rss.reading();
    out.failed = lane.seen.failed;
    out.first_error = lane.seen.first_error;
    out.samples = lane.samples;
    out.issue = lane.issue;
    out.submits = submits;
    out.backpressured = backpressured;
    out.spans = lane.tracer.spans;
    out
}

/// Runs one session of `cfg`.
pub fn run_pass(cfg: &StreamConfig, seed: u64, scale: f64, mode: Mode, traced: bool) -> Pass {
    // Not part of the set-up: the program under test does not need it.
    let native = matches!(mode, Mode::Timed(_)).then(|| Native::new(seed));
    let setup_started = Instant::now();
    let mvee = Arc::new(cfg.build());
    let build_ns = setup_started.elapsed().as_nanos() as f64;
    for idx in 0..gen::FILES {
        mvee.kernel()
            .install_file(&gen::file_path(idx), &gen::file_contents(seed, idx));
    }
    let shared = Arc::new(Shared {
        mvee: Arc::clone(&mvee),
        cfg: *cfg,
        warmup: cfg.stream(seed ^ 0x5eed, cfg.warmup_ops, scale),
        stream: cfg.stream(seed, cfg.round_ops, scale),
        mode,
        traced,
        epoch: Instant::now(),
        ready: Barrier::new(3),
        round: Barrier::new(2),
        stop: AtomicBool::new(false),
        abort: AtomicBool::new(false),
        native: std::sync::Mutex::new(native),
    });
    let handles: Vec<_> = (0..2)
        .map(|variant| {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{}-v{variant}", cfg.name))
                .spawn(move || variant_thread(&shared, variant))
                .expect("spawning a variant thread")
        })
        .collect();
    shared.ready.wait();
    let setup_s = setup_started.elapsed().as_secs_f64();
    shared.ready.wait();
    let mut outs: Vec<ThreadOut> = handles
        .into_iter()
        .map(|h| h.join().expect("a variant thread panicked"))
        .collect();
    let slave = outs.pop().expect("two variant threads");
    let master = outs.pop().expect("two variant threads");

    let mut errors = Vec::new();
    for (who, out) in [("master", &master), ("slave", &slave)] {
        if let Some(e) = &out.first_error {
            errors.push(format!("{}: {who}: {e}", cfg.name));
        }
    }
    if master.digests != slave.digests {
        errors.push(format!(
            "{}: per-call outcomes differ between the variants",
            cfg.name
        ));
    }
    if let Some(report) = mvee.divergence() {
        errors.push(format!(
            "{}: divergence on a clean stream: {}",
            cfg.name,
            report.summary()
        ));
    }
    if let Some(fault) = mvee.remote_fault() {
        errors.push(format!(
            "{}: replication channel faulted: {fault}",
            cfg.name
        ));
    }

    let rounds = master.rounds;
    let pool: Vec<Op> = Materializer::pool_ops().collect();
    let mut predicted = gen::predict(&pool, 2, cfg.batch, false)
        .plus(gen::predict(&shared.warmup, 2, cfg.batch, false))
        .plus(gen::predict(&shared.stream, 2, cfg.batch, false).scaled(rounds as u64));
    if traced && cfg.transport.is_async() {
        let probe = vec![Op::Brk; LAG_PROBE_OPS];
        predicted = predicted.plus(gen::predict(&probe, 2, cfg.batch, false));
    }
    let monitor = mvee.monitor_stats();
    let kernel = mvee.kernel().stats();
    let counts = [
        (
            "monitor.total_syscalls",
            monitor.total_syscalls,
            predicted.total,
        ),
        (
            "monitor.lockstep_syscalls",
            monitor.lockstep_syscalls,
            predicted.lockstep,
        ),
        (
            "monitor.replicated_syscalls",
            monitor.replicated_syscalls,
            predicted.replicated,
        ),
        (
            "monitor.ordered_syscalls",
            monitor.ordered_syscalls,
            predicted.ordered,
        ),
        (
            "monitor.batched_comparisons",
            monitor.batched_comparisons,
            predicted.batched,
        ),
        (
            "monitor.batch_flushes",
            monitor.batch_flushes,
            predicted.flushes,
        ),
        ("monitor.divergences", monitor.divergences, 0),
        (
            "kernel.syscalls_executed",
            kernel.syscalls_executed,
            predicted.kernel_executed,
        ),
        ("kernel.syscalls_failed", kernel.syscalls_failed, 0),
    ];
    if errors.is_empty() {
        for (name, got, want) in counts {
            if got != want {
                errors.push(format!(
                    "{}: {name} reads {got}, the generator predicts {want}",
                    cfg.name
                ));
            }
        }
    }

    let round_ops = shared.stream.len();
    let mut spans = master.spans;
    spans.extend(slave.spans);
    Pass {
        setup_s,
        build_ns,
        rounds,
        round_ops,
        round_walls: master.round_walls,
        native_walls: master.native_walls,
        round_cpu_ms: master.round_cpu_ms,
        samples: master.samples,
        issue: master.issue,
        lag: master.lag,
        barrier_ns: master.barrier_ns,
        submits: master.submits,
        backpressured: master.backpressured,
        rss_mb: master.rss_mb,
        attempted: (rounds * round_ops) as u64,
        failed: master.failed + slave.failed,
        errors,
        monitor,
        kernel,
        poller_threads: mvee.poller_threads(),
        spans,
    }
}
