//! The six workloads: what each one configures, and how a run's raw
//! measurements become the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`).

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mvee_core::config::{Pollers, RemoteChannel, Transport};
use mvee_core::monitor::{MonitorError, MonitorStats};
use mvee_kernel::kernel::KernelStats;
use mvee_kernel::syscall::{SyscallOutcome, SyscallRequest};
use mvee_sync_agent::AgentStats;

use crate::agents;
use crate::gen::{self, Class, Op};
use crate::http;
use crate::journal;
use crate::measure::{good_decile, median, Metrics, Mode, RunResult, Samples};
use crate::probes;
use crate::spec;
use crate::stream::{self, Pass, StreamConfig};
use crate::trace::{self, Span, OP};

/// What `main` parsed from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: f64,
    pub out_dir: PathBuf,
}

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

pub const LOCKSTEP_SYNC: StreamConfig = StreamConfig {
    name: "lockstep_sync",
    transport: Transport::Sync,
    batch: 1,
    time_every: 0,
    round_ops: 8_000,
    warmup_ops: 2_000,
    fixed_rounds: 8,
};

pub const DEFERRED_ASYNC: StreamConfig = StreamConfig {
    name: "deferred_async",
    transport: Transport::AsyncRings {
        depth: 64,
        pollers: Pollers::Pool(1),
    },
    batch: 8,
    time_every: 32,
    round_ops: 65_536,
    warmup_ops: 8_192,
    fixed_rounds: 1,
};

pub const REMOTE_UNIX: StreamConfig = StreamConfig {
    name: "remote_unix",
    transport: Transport::Remote {
        channel: RemoteChannel::Unix,
    },
    batch: 8,
    time_every: 8,
    round_ops: 20_480,
    warmup_ops: 4_096,
    fixed_rounds: 3,
};

/// Requests per `http_serve` round and per warm-up, at scale 1.
const HTTP_ROUND_REQUESTS: usize = 2_000;
const HTTP_WARMUP_REQUESTS: usize = 500;
const HTTP_FIXED_ROUNDS: usize = 4;
/// `journal_recover` cycles per latency chunk: 4096 samples.
const LATENCY_CHUNK_CYCLES: usize = 16;
/// `journal_recover` cycles of the fixed passes, at scale 1.
const JOURNAL_FIXED_CYCLES: usize = 40;
/// `parallel_agents` native/MVEE pairs per program in the fixed passes.
const AGENTS_FIXED_PAIRS: usize = 3;

/// Load-generating threads of each workload, for the report header.
pub fn thread_counts(workload: &str) -> &'static str {
    match workload {
        "lockstep_sync" => "2 variant threads",
        "deferred_async" => "2 variant threads + 1 poller",
        "journal_recover" => "3 variant threads",
        "remote_unix" => "2 variant threads + follower reader and pump",
        "parallel_agents" => "2 variants x 2 worker threads (native: 2)",
        "http_serve" => "2 server threads + 1 client (native: 1 + 1)",
        _ => "?",
    }
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(1)
}

/// `(op_p50_us, op_p99_us)`, chunk by chunk (see `Samples::chunked_p50_p99`).
fn us_quantiles(samples: &Samples, chunk: usize) -> (f64, f64) {
    let (p50, p99) = samples.chunked_p50_p99(chunk);
    (p50 / 1e3, p99 / 1e3)
}

/// Fills in the seven gated metrics.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    m: &mut Metrics,
    setups: &mut [f64],
    ops_per_s: f64,
    (p50, p99): (f64, f64),
    slowdown_x: f64,
    cpu_ms_per_kop: f64,
    rss_mb: f64,
) {
    m.set("setup_s", "s", median(setups));
    m.set("ops_per_s", "ops/s", ops_per_s);
    m.set("op_p50_us", "us", p50);
    m.set("op_p99_us", "us", p99);
    m.set("slowdown_x", "x", slowdown_x);
    m.set("cpu_ms_per_kop", "ms", cpu_ms_per_kop);
    m.set("peak_rss_mb", "MB", rss_mb);
}

fn set_monitor(m: &mut Metrics, s: &MonitorStats) {
    m.set("monitor.total_syscalls", "count", s.total_syscalls as f64);
    m.set(
        "monitor.lockstep_syscalls",
        "count",
        s.lockstep_syscalls as f64,
    );
    m.set(
        "monitor.replicated_syscalls",
        "count",
        s.replicated_syscalls as f64,
    );
    m.set(
        "monitor.ordered_syscalls",
        "count",
        s.ordered_syscalls as f64,
    );
    m.set(
        "monitor.batched_comparisons",
        "count",
        s.batched_comparisons as f64,
    );
    m.set("monitor.batch_flushes", "count", s.batch_flushes as f64);
    let per_flush = if s.batch_flushes == 0 {
        0.0
    } else {
        s.batched_comparisons as f64 / s.batch_flushes as f64
    };
    m.set("monitor.comparisons_per_flush", "count", per_flush);
    m.set("monitor.divergences", "count", s.divergences as f64);
    m.set("monitor.quarantines", "count", s.quarantines as f64);
    m.set("monitor.respawns", "count", s.respawns as f64);
    m.set("monitor.degraded_calls", "count", s.degraded_calls as f64);
}

fn set_kernel(m: &mut Metrics, s: &KernelStats) {
    m.set(
        "kernel.syscalls_executed",
        "count",
        s.syscalls_executed as f64,
    );
    m.set("kernel.syscalls_failed", "count", s.syscalls_failed as f64);
}

fn set_agent(m: &mut Metrics, s: &AgentStats) {
    m.set("agent.ops_recorded", "count", s.ops_recorded as f64);
    m.set("agent.ops_replayed", "count", s.ops_replayed as f64);
    m.set("agent.slave_stalls", "count", s.slave_stalls as f64);
    m.set("agent.master_stalls", "count", s.master_stalls as f64);
    m.set("agent.slave_parks", "count", s.slave_parks as f64);
    m.set("agent.slave_yields", "count", s.slave_yields as f64);
    m.set("agent.master_parks", "count", s.master_parks as f64);
    m.set("agent.cursor_rescans", "count", s.cursor_rescans as f64);
    m.set(
        "agent.replication_points",
        "count",
        s.replication_points as f64,
    );
    m.set("agent.stall_ratio", "ratio", s.stall_rate());
}

fn median_or_zero(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(&mut v)
    }
}

/// Median duration of the spans `keep` selects.
fn span_median(spans: &[Span], keep: impl Fn(&Span) -> bool) -> f64 {
    median_or_zero(
        spans
            .iter()
            .filter(|s| keep(s))
            .map(|s| s.duration_ns() as f64)
            .collect(),
    )
}

fn write_trace(args: &Args, spans: &[Span], result: &mut RunResult) {
    let path = args.out_dir.join(format!("trace-{}.jsonl", args.workload));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => result.notes.push(format!(
            "{} spans written to {}",
            spans.len(),
            path.display()
        )),
        Err(e) => result
            .errors
            .push(format!("writing {}: {e}", path.display())),
    }
    let selfs = trace::op_self_times(spans);
    if !selfs.is_empty() {
        let self_ns = median_or_zero(selfs.iter().map(|(_, ns)| *ns as f64).collect());
        let whole = median_or_zero(selfs.iter().map(|(s, _)| s.duration_ns() as f64).collect());
        result.notes.push(format!(
            "op spans: {} ; median duration {whole:.0} ns, median self time {self_ns:.0} ns",
            selfs.len()
        ));
    }
}

/// `op mean = Σ probes on its path + residual_wait_ns`, printed and
/// reported.  `path` lists `(layer metric, uses per op)`.
fn path_breakdown(result: &mut RunResult, op_mean_ns: f64, path: &[(&'static str, f64)]) {
    let mut sum = 0.0;
    let mut line = format!("path breakdown: op mean {op_mean_ns:.0} ns =");
    for (name, uses) in path {
        let ns = result.metrics.get(name).unwrap_or(0.0) * uses;
        sum += ns;
        line.push_str(&format!(" {name} x {uses:.3} ({ns:.0})  +"));
    }
    let residual = op_mean_ns - sum;
    line.push_str(&format!(
        " residual_wait_ns ({residual:.0}); residual_share {:.3}",
        residual / op_mean_ns
    ));
    result.notes.push(line);
    result.metrics.set("residual_wait_ns", "ns", residual);
    result
        .metrics
        .set("residual_share", "ratio", residual / op_mean_ns);
}

/// Share of `stream` in each class: file, time, address-space.
fn class_shares(stream: &[Op]) -> [f64; 3] {
    let mut counts = [0usize; 3];
    for op in stream {
        counts[op.class() as usize] += 1;
    }
    counts.map(|c| c as f64 / stream.len().max(1) as f64)
}

// ---------------------------------------------------------------------
// lockstep_sync, deferred_async, remote_unix
// ---------------------------------------------------------------------

fn absorb_pass(result: &mut RunResult, pass: &mut Pass) {
    result.errors.append(&mut pass.errors);
    result.attempted += pass.attempted;
    result.failed += pass.failed;
}

fn stream_end_to_end(cfg: &StreamConfig, args: &Args) -> RunResult {
    let mut result = RunResult::default();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let mut pass = stream::run_pass(cfg, args.seed, args.scale, Mode::SetupOnly, false);
        setups.push(pass.setup_s);
        absorb_pass(&mut result, &mut pass);
    }
    let limit = Duration::from_secs_f64(args.seconds);
    let mut pass = stream::run_pass(cfg, args.seed, args.scale, Mode::Timed(limit), false);
    setups.push(pass.setup_s);
    absorb_pass(&mut result, &mut pass);
    let ops_per_s = pass.ops_per_s();
    end_to_end(
        &mut result.metrics,
        &mut setups,
        ops_per_s,
        us_quantiles(&pass.samples, pass.round_ops),
        pass.slowdown(),
        pass.cpu_ms_per_kop(),
        pass.rss_mb,
    );
    result.notes.push(format!(
        "{} rounds of {} calls; native median {:.1} ns/call; issue p50 {:.0} ns",
        pass.rounds,
        pass.round_ops,
        median_or_zero(pass.native_walls.clone()) * 1e9 / pass.round_ops as f64,
        pass.issue.median_of(None)
    ));
    if cfg.transport.is_remote() {
        let staged = staged_remote_mismatch(&mut result.errors);
        result.notes.push(format!(
            "staged mismatch: detection lag {} sync ops",
            staged.lag_sync_ops
        ));
    }
    result
}

fn stream_per_layer(cfg: &StreamConfig, args: &Args) -> RunResult {
    let mut result = RunResult {
        metrics: spec::per_layer_zeroed(),
        ..RunResult::default()
    };
    let fixed = Mode::Fixed(cfg.fixed_rounds);
    let mut plain = stream::run_pass(cfg, args.seed, args.scale, fixed, false);
    absorb_pass(&mut result, &mut plain);
    let mut traced = stream::run_pass(cfg, args.seed, args.scale, fixed, true);
    absorb_pass(&mut result, &mut traced);
    let stream_ops = cfg.stream(args.seed, cfg.round_ops, args.scale);
    let m = &mut result.metrics;

    // Spans of the master's calls, by request class.
    let master = |s: &&Span| s.thread == 0;
    let class_of = |s: &Span| stream_ops[(s.op as usize) % stream_ops.len()].class();
    let call = if cfg.transport.is_async() {
        OP
    } else {
        "syscall"
    };
    let spans: Vec<Span> = traced.spans.iter().filter(master).copied().collect();
    let by_class = |class: Class| span_median(&spans, |s| s.name == call && class_of(s) == class);
    m.set("port.call_ns.replicated", "ns", by_class(Class::File));
    m.set("port.call_ns.ordered", "ns", by_class(Class::Time));
    let mem = if cfg.batch > 1 {
        "port.call_ns.deferred"
    } else {
        "port.call_ns.lockstep"
    };
    m.set(mem, "ns", by_class(Class::Mem));
    if cfg.transport.is_async() {
        m.set(
            "async_port.submit_ns",
            "ns",
            span_median(&spans, |s| s.name == "submit" && class_of(s) == Class::Mem),
        );
        m.set(
            "async_port.reap_ns",
            "ns",
            span_median(&spans, |s| s.name == "reap"),
        );
        m.set(
            "async_port.backpressure_ratio",
            "ratio",
            traced.backpressured as f64 / traced.submits.max(1) as f64,
        );
        m.set("poller.completion_lag_ns", "ns", traced.lag.median_of(None));
    }
    m.set("poller.threads", "count", traced.poller_threads as f64);
    if cfg.transport.is_remote() {
        m.set("remote.leader_deferred_ns", "ns", by_class(Class::Mem));
        m.set("remote.leader_sync_ns", "ns", by_class(Class::Time));
        m.set(
            "remote.barrier_ns",
            "ns",
            median_or_zero(traced.barrier_ns.clone()),
        );
        let staged = staged_remote_mismatch(&mut result.errors);
        m.set(
            "remote.detection_lag_sync_ops",
            "count",
            staged.lag_sync_ops as f64,
        );
        m.set("detect_p50_us", "us", staged.detect_ns / 1e3);
    }
    m.set(
        "mvee.build_ns",
        "ns",
        (plain.build_ns + traced.build_ns) / 2.0,
    );
    m.set("issue_p50_ns", "ns", plain.issue.median_of(None));
    m.set(
        "failed_ops_ratio",
        "ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    set_monitor(m, &traced.monitor);
    set_kernel(m, &traced.kernel);
    m.set(
        "trace.overhead_ratio",
        "ratio",
        traced.ops_per_s() / plain.ops_per_s(),
    );
    probes::run_all(args.seed, args.scale, m);

    let [file, time, mem_share] = class_shares(&stream_ops);
    let lockstep_per_op = stream_ops
        .iter()
        .filter(|op| op.disposition().lockstep)
        .count() as f64
        / stream_ops.len() as f64;
    let rendezvous = if cfg.batch > 1 {
        // Deferred comparisons resolve eight to a deposit.
        ("lockstep.batch8_resolve_ns", mem_share / 8.0)
    } else {
        ("lockstep.deposit_resolve_ns", lockstep_per_op)
    };
    let path = [
        ("policy.disposition_ns", 1.0),
        rendezvous,
        ("kernel.execute_ns.file", file),
        ("kernel.execute_ns.time", time),
        ("kernel.execute_ns.addrspace", mem_share),
        ("ordering.claim_advance_ns", mem_share),
    ];
    path_breakdown(&mut result, 1e9 / plain.ops_per_s(), &path);
    write_trace(args, &traced.spans, &mut result);
    result
}

/// The staged batch: one `mmap`, then `mprotect`s on it until the
/// comparison batch is full; `odd` names the one that asks for W+X.
fn staged_batch(
    call: &dyn Fn(&SyscallRequest) -> Result<SyscallOutcome, MonitorError>,
    odd: Option<usize>,
) {
    let mmap = gen::Materializer::new().request(Op::Mmap { pages: 1, prot: 3 });
    let addr = call(&mmap).ok().and_then(|o| o.result.ok()).unwrap_or(0) as u64;
    for i in 0..REMOTE_UNIX.batch - 1 {
        let prot = if odd == Some(i) { 7 } else { 3 };
        let _ = call(&gen::mprotect_request(addr, 4096, prot));
    }
}

/// What the staged remote mismatch measured.
struct Staged {
    lag_sync_ops: u64,
    detect_ns: f64,
}

/// Sync ops the leader streams behind the staged mismatch.
const LAG_SYNC_OPS: u64 = 64;

/// The leader flushes a batch whose fifth call the slave will disagree
/// with, then keeps going — 64 sync ops — while the slave dawdles.  The
/// follower can only rule once the slave's half arrives; every sync op it
/// ingested in between is the detection lag.
fn staged_remote_mismatch(errors: &mut Vec<String>) -> Staged {
    let mvee = Arc::new(REMOTE_UNIX.build());
    let leader = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            let port = mvee.leader_port(0);
            staged_batch(&|req| port.syscall(req), None);
            // Let the follower deposit the batch, then pace the sync ops so
            // they are ingested while the slave's arrival is still missing.
            std::thread::sleep(Duration::from_millis(5));
            for i in 0..LAG_SYNC_OPS {
                port.sync_op(0x1000, || ());
                if i % 8 == 7 {
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            // The follower's verdict must reach the leader: once the slave
            // is done, the leader's next call is refused.
            let brk = gen::Materializer::new().request(Op::Brk);
            let waiting_since = Instant::now();
            while port.syscall(&brk).is_ok() {
                if waiting_since.elapsed() > Duration::from_secs(5) {
                    return false;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            true
        })
    };
    let slave = {
        let mvee = Arc::clone(&mvee);
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            let port = mvee.thread_port(1, 0);
            let t0 = Instant::now();
            staged_batch(&|req| port.syscall(req), Some(3));
            t0.elapsed().as_nanos() as f64
        })
    };
    let verdict_reached_leader = leader.join().expect("the staged leader panicked");
    let detect_ns = slave.join().expect("the staged slave panicked");
    // mmap is the thread's call 0, so the fourth mprotect is call 4.
    match mvee.divergence() {
        Some(r) if r.thread == 0 && r.sequence == 4 && r.variant == 1 => {}
        other => errors.push(format!(
            "remote_unix: the staged mismatch (thread 0, call 4, variant 1) was reported as {other:?}"
        )),
    }
    if !verdict_reached_leader {
        errors.push("remote_unix: the follower's verdict never reached the leader".into());
    }
    Staged {
        lag_sync_ops: mvee.monitor_stats().detection_lag_sync_ops,
        detect_ns,
    }
}

// ---------------------------------------------------------------------
// journal_recover
// ---------------------------------------------------------------------

fn check_cycles(result: &mut RunResult, streams: &journal::Streams, cycles: &[journal::Cycle]) {
    let want = journal::expected_monitor(streams);
    for (i, c) in cycles.iter().enumerate() {
        result.failed += c.failed;
        if !result.errors.is_empty() {
            break;
        }
        let got = MonitorStats {
            divergences: 0,
            ..c.monitor
        };
        result.check(got == want, || {
            format!("journal_recover: cycle {i}: monitor counted {got:?}, the generator predicts {want:?}")
        });
        result.check_eq(
            "journal_recover: kernel.syscalls_failed",
            c.kernel_failed,
            0,
        );
    }
    result.attempted += (cycles.len() * journal::CALLS_PER_CYCLE) as u64;
}

fn journal_end_to_end(args: &Args) -> RunResult {
    let mut result = RunResult::default();
    let streams = journal::Streams::new(args.seed);
    let mut samples = Samples::with_capacity(stream::SAMPLE_CAPACITY);
    // Set-up here is generating the streams and one whole warm-up cycle on
    // a fresh MVEE; every timed cycle builds its own MVEE again.
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            let streams = journal::Streams::new(args.seed);
            journal::run_cycle(&streams, None, None, &mut result.errors);
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let limit = Mode::Timed(Duration::from_secs_f64(args.seconds));
    let run = journal::run_cycles(&streams, limit, &mut samples, false, &mut result.errors);
    check_cycles(&mut result, &streams, &run.cycles);
    let ops_per_s = journal_rate(&run.cycles);
    // The whole cycle's CPU over the calls one variant thread issued in it.
    let cpu_ms_per_kop = good_decile(
        &mut run
            .cycles
            .iter()
            .map(|c| c.cpu_ms / (journal::CALLS_PER_CYCLE as f64 / 1e3))
            .collect::<Vec<_>>(),
        false,
    );
    // Cycle by cycle: the agreed calls under the MVEE over the same calls on
    // a bare kernel a moment later.
    let slowdown = median_or_zero(
        run.cycles
            .iter()
            .map(|c| c.agreed_wall_s / journal::AGREED_CALLS as f64 / c.native_s_per_op)
            .collect(),
    );
    let native = median_or_zero(run.cycles.iter().map(|c| c.native_s_per_op * 1e9).collect());
    end_to_end(
        &mut result.metrics,
        &mut setups,
        ops_per_s,
        us_quantiles(&samples, LATENCY_CHUNK_CYCLES * journal::AGREED_CALLS),
        slowdown,
        cpu_ms_per_kop,
        run.rss_mb,
    );
    let recovery = recovery_numbers(&run.cycles);
    result.notes.push(format!(
        "{} cycles; native median {native:.1} ns/call; detect p50 {:.1} us, respawn p50 {:.3} ms, replay {:.0} records/s",
        run.cycles.len(),
        recovery.detect_p50_us,
        recovery.respawn_p50_ms,
        recovery.replay_records_per_s
    ));
    result
}

/// Agreed calls per second, cycle by cycle (see `good_decile`).
fn journal_rate(cycles: &[journal::Cycle]) -> f64 {
    good_decile(
        &mut cycles
            .iter()
            .map(|c| journal::AGREED_CALLS as f64 / c.agreed_wall_s)
            .collect::<Vec<_>>(),
        true,
    )
}

struct Recovery {
    detect_p50_us: f64,
    respawn_p50_ms: f64,
    replay_records_per_s: f64,
}

fn recovery_numbers(cycles: &[journal::Cycle]) -> Recovery {
    let of = |f: fn(&journal::Cycle) -> f64| median_or_zero(cycles.iter().map(f).collect());
    Recovery {
        detect_p50_us: of(|c| c.detect_ns / 1e3),
        respawn_p50_ms: of(|c| c.respawn_ns / 1e6),
        replay_records_per_s: of(|c| c.records as f64 / ((c.decode_ns + c.replay_ns) / 1e9)),
    }
}

fn journal_per_layer(args: &Args) -> RunResult {
    let mut result = RunResult {
        metrics: spec::per_layer_zeroed(),
        ..RunResult::default()
    };
    let streams = journal::Streams::new(args.seed);
    let count = Mode::Fixed(scaled(JOURNAL_FIXED_CYCLES, args.scale));
    let mut samples = Samples::with_capacity(stream::SAMPLE_CAPACITY);
    let plain = journal::run_cycles(&streams, count, &mut samples, false, &mut result.errors);
    check_cycles(&mut result, &streams, &plain.cycles);
    let mut traced_samples = Samples::with_capacity(stream::SAMPLE_CAPACITY);
    let traced = journal::run_cycles(
        &streams,
        count,
        &mut traced_samples,
        true,
        &mut result.errors,
    );
    check_cycles(&mut result, &streams, &traced.cycles);
    let (Some(last), false) = (traced.cycles.last(), plain.cycles.is_empty()) else {
        result
            .errors
            .push("journal_recover: no cycle completed".into());
        return result;
    };

    let m = &mut result.metrics;
    let recovery = recovery_numbers(&plain.cycles);
    m.set("detect_p50_us", "us", recovery.detect_p50_us);
    m.set("respawn_p50_ms", "ms", recovery.respawn_p50_ms);
    m.set("replay_records_per_s", "1/s", recovery.replay_records_per_s);
    m.set(
        "issue_p50_ns",
        "ns",
        samples.median_of(Some(Class::Mem as u8)),
    );
    m.set(
        "failed_ops_ratio",
        "ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    let master = |s: &Span| s.thread == 0;
    m.set(
        "port.call_ns.lockstep",
        "ns",
        span_median(&traced.spans, |s| master(s) && s.name == "syscall"),
    );
    // One op's before and after bracket together.
    m.set(
        "port.sync_op_ns",
        "ns",
        span_median(&traced.spans, |s| master(s) && s.name == "before_sync_op")
            + span_median(&traced.spans, |s| master(s) && s.name == "after_sync_op"),
    );
    let of = |f: fn(&journal::Cycle) -> f64| median_or_zero(plain.cycles.iter().map(f).collect());
    m.set("mvee.build_ns", "ns", of(|c| c.build_ns));
    m.set(
        "mvee.respawn_ns_per_record",
        "ns",
        of(|c| c.respawn_ns / c.respawn_records.max(1) as f64),
    );
    let calls = last.monitor.total_syscalls.max(1) as f64;
    m.set(
        "journal.records_per_call",
        "count",
        last.records as f64 / calls,
    );
    m.set(
        "journal.bytes_per_call",
        "B",
        last.journal_bytes as f64 / calls,
    );
    m.set("snapshot.taken", "count", last.snapshots_taken as f64);
    m.set("snapshot.bytes", "B", last.snapshot_bytes as f64);
    set_monitor(m, &last.monitor);
    m.set(
        "kernel.syscalls_executed",
        "count",
        last.kernel_executed as f64,
    );
    m.set("kernel.syscalls_failed", "count", last.kernel_failed as f64);
    let rate = journal_rate;
    m.set(
        "trace.overhead_ratio",
        "ratio",
        rate(&traced.cycles) / rate(&plain.cycles),
    );
    probes::run_all(args.seed, args.scale, m);

    // An agreed call: policy, one rendezvous, the kernel, the ordering
    // clock, its journal records, and its share of a snapshot.
    let records_per_call = last.records as f64 / calls;
    let path = [
        ("policy.disposition_ns", 1.0),
        ("lockstep.deposit_resolve_ns", 31.0 / 32.0),
        ("kernel.execute_ns.addrspace", 31.0 / 32.0),
        ("kernel.execute_ns.time", 1.0 / 32.0),
        ("ordering.claim_advance_ns", 31.0 / 32.0),
        ("journal.append_ns", records_per_call),
        (
            "kernel.capture_process_ns",
            1.0 / journal::SNAPSHOT_EVERY as f64,
        ),
    ];
    path_breakdown(&mut result, 1e9 / rate(&plain.cycles), &path);
    write_trace(args, &traced.spans, &mut result);
    result
}

// ---------------------------------------------------------------------
// parallel_agents
// ---------------------------------------------------------------------

fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n.max(1) as f64).exp()
}

fn agents_end_to_end(args: &Args) -> RunResult {
    let mut result = RunResult::default();
    // Set-up: expanding the catalog programs and one small warm-up pair of
    // each.
    let mut setups: Vec<f64> = (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            agents::run(
                args.seed,
                args.scale / 8.0,
                Mode::Fixed(1),
                false,
                &mut result.errors,
            );
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let limit = Mode::Timed(Duration::from_secs_f64(args.seconds));
    let runs = agents::run(args.seed, args.scale, limit, false, &mut result.errors);
    let mut ops = 0u64;
    for p in &runs.programs {
        if p.mvee_wall_s.is_empty() {
            continue;
        }
        ops += p.master_sync_ops.iter().sum::<u64>();
        result.notes.push(format!(
            "{}: {} pairs, native median {:.4} s, MVEE median {:.4} s, slowdown {:.3}x",
            p.name,
            p.mvee_wall_s.len(),
            median(&mut p.native_wall_s.clone()),
            median(&mut p.mvee_wall_s.clone()),
            p.slowdown()
        ));
    }
    result.attempted = ops;
    if runs.programs.iter().any(|p| p.mvee_wall_s.is_empty()) {
        result
            .errors
            .push("parallel_agents: no run completed".into());
        return result;
    }
    // An op is one master sync op, and the two programs weigh the same
    // (geometric means).  Latency is only visible per run — wall over master
    // sync ops — so `op_p50_us` is the median run and `op_p99_us` the
    // slowest-decile run of each program: with a few dozen runs nothing
    // further out has a sample behind it.
    let over_programs =
        |f: &dyn Fn(&agents::ProgramRuns) -> f64| geomean(runs.programs.iter().map(f));
    let per_op_us = |p: &agents::ProgramRuns, q: f64| {
        let mut v: Vec<f64> = p.rates().into_iter().map(|rate| 1e6 / rate).collect();
        crate::measure::quantile(&mut v, q)
    };
    end_to_end(
        &mut result.metrics,
        &mut setups,
        over_programs(&|p| good_decile(&mut p.rates(), true)),
        (
            over_programs(&|p| per_op_us(p, 0.5)),
            over_programs(&|p| per_op_us(p, 0.9)),
        ),
        over_programs(&agents::ProgramRuns::slowdown),
        over_programs(&|p| good_decile(&mut p.cpu_ms_per_kop(), false)),
        // Every run builds and drops its own MVEE, so nothing grows with the
        // run count and the peak settles as runs accumulate: read at the end.
        crate::measure::peak_rss_mb(),
    );
    result
}

fn agents_per_layer(args: &Args) -> RunResult {
    let mut result = RunResult {
        metrics: spec::per_layer_zeroed(),
        ..RunResult::default()
    };
    let pairs = Mode::Fixed(AGENTS_FIXED_PAIRS);
    let plain = agents::run(args.seed, args.scale, pairs, false, &mut result.errors);
    let traced = agents::run(args.seed, args.scale, pairs, true, &mut result.errors);
    let m = &mut result.metrics;
    let mut agent = AgentStats::default();
    let mut monitor = MonitorStats::default();
    let (mut native, mut mvee, mut ops) = (Vec::new(), Vec::new(), 0u64);
    for p in &plain.programs {
        native.extend(&p.native_wall_s);
        mvee.extend(&p.mvee_wall_s);
        ops += p.master_sync_ops.iter().sum::<u64>();
        agents::add_agent(&mut agent, &p.agent);
        agents::add_monitor(&mut monitor, &p.monitor);
    }
    result.attempted = ops;
    if mvee.is_empty() {
        result
            .errors
            .push("parallel_agents: no run completed".into());
        return result;
    }
    m.set(
        "variant.native_wall_s",
        "s",
        native.iter().sum::<f64>() / AGENTS_FIXED_PAIRS as f64,
    );
    m.set(
        "variant.mvee_wall_s",
        "s",
        mvee.iter().sum::<f64>() / AGENTS_FIXED_PAIRS as f64,
    );
    // Wall per master sync op: the agent's whole cost as the master sees it.
    m.set(
        "port.sync_op_ns",
        "ns",
        mvee.iter().sum::<f64>() * 1e9 / ops.max(1) as f64,
    );
    set_agent(m, &agent);
    set_monitor(m, &monitor);
    let wall =
        |runs: &agents::Runs| -> f64 { runs.programs.iter().flat_map(|p| &p.mvee_wall_s).sum() };
    m.set(
        "trace.overhead_ratio",
        "ratio",
        wall(&plain) / wall(&traced),
    );
    probes::run_all(args.seed, args.scale, m);
    write_trace(args, &traced.spans, &mut result);
    result
}

// ---------------------------------------------------------------------
// http_serve
// ---------------------------------------------------------------------

/// Requests per second, round by round (see `good_decile`).
fn http_rate(session: &http::Session) -> f64 {
    good_decile(
        &mut session
            .round_walls
            .iter()
            .map(|w| session.round_requests as f64 / w)
            .collect::<Vec<_>>(),
        true,
    )
}

fn http_end_to_end(args: &Args) -> RunResult {
    let mut result = RunResult::default();
    let round = scaled(HTTP_ROUND_REQUESTS, args.scale);
    let warmup = scaled(HTTP_WARMUP_REQUESTS, args.scale);
    let errors = &mut result.errors;
    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let s = http::run_session(
            2,
            args.seed,
            warmup,
            round,
            Mode::SetupOnly,
            false,
            0,
            errors,
        );
        setups.push(s.setup_s);
    }
    // The native baseline runs alone — its server thread spins on `accept`,
    // and a third spinner would starve the measured run — some before and
    // the rest after, so a slow spell of the host on one side does not own
    // it.  The part before is short and of fixed size: `peak_rss_mb` is a
    // high-water mark, and the emulated kernel keeps every socket it ever
    // opened, so a longer baseline would set the mark instead of the MVEE.
    let before = Mode::Fixed(http::RSS_AFTER_ROUNDS);
    let mut native = http::run_session(1, args.seed, warmup, round, before, false, 0, errors);
    let limit = Mode::Timed(Duration::from_secs_f64(args.seconds));
    let capacity = stream::SAMPLE_CAPACITY;
    let served = http::run_session(2, args.seed, warmup, round, limit, false, capacity, errors);
    setups.push(served.setup_s);
    let after = Mode::Timed(Duration::from_secs_f64(args.seconds / 5.0));
    let after = http::run_session(1, args.seed, warmup, round, after, false, 0, errors);
    native.round_walls.extend(after.round_walls);
    native.failed += after.failed;
    result.attempted = served.attempted;
    result.failed = served.failed + native.failed;
    let ops_per_s = http_rate(&served);
    end_to_end(
        &mut result.metrics,
        &mut setups,
        ops_per_s,
        us_quantiles(&served.samples, served.round_requests),
        http_rate(&native) / ops_per_s,
        good_decile(
            &mut served
                .round_cpu_ms
                .iter()
                .map(|ms| ms / (served.round_requests as f64 / 1e3))
                .collect::<Vec<_>>(),
            false,
        ),
        served.rss_mb,
    );
    result.notes.push(format!(
        "{} rounds of {round} requests; native {:.0} requests/s over {} rounds",
        served.round_walls.len(),
        http_rate(&native),
        native.round_walls.len()
    ));
    result
}

fn http_per_layer(args: &Args) -> RunResult {
    let mut result = RunResult {
        metrics: spec::per_layer_zeroed(),
        ..RunResult::default()
    };
    let round = scaled(HTTP_ROUND_REQUESTS, args.scale);
    let warmup = scaled(HTTP_WARMUP_REQUESTS, args.scale);
    let fixed = Mode::Fixed(HTTP_FIXED_ROUNDS);
    let errors = &mut result.errors;
    let native = http::run_session(1, args.seed, warmup, round, fixed, false, 0, errors);
    let plain = http::run_session(2, args.seed, warmup, round, fixed, false, 0, errors);
    let traced = http::run_session(2, args.seed, warmup, round, fixed, true, 0, errors);
    http::attack_check(errors);
    result.attempted = plain.attempted + traced.attempted;
    result.failed = plain.failed + traced.failed;
    let m = &mut result.metrics;
    let server = traced.servers.first().copied().unwrap_or_default();
    let requests = (server.served.max(1)) as f64;
    m.set(
        "http.accept_eagain_ratio",
        "ratio",
        server.accept_eagain as f64 / server.accepts.max(1) as f64,
    );
    m.set(
        "http.calls_per_request",
        "count",
        server.calls as f64 / requests,
    );
    m.set(
        "http.sync_ops_per_request",
        "count",
        traced.agent.ops_recorded as f64 / requests,
    );
    let master = |s: &Span| s.thread == 0;
    m.set(
        "port.call_ns.replicated",
        "ns",
        span_median(&traced.spans, |s| master(s) && s.name == "syscall"),
    );
    m.set(
        "port.sync_op_ns",
        "ns",
        span_median(&traced.spans, |s| master(s) && s.name == "before_sync_op")
            + span_median(&traced.spans, |s| master(s) && s.name == "after_sync_op"),
    );
    m.set("mvee.build_ns", "ns", plain.build_ns);
    m.set(
        "variant.native_wall_s",
        "s",
        native.round_walls.iter().sum::<f64>(),
    );
    m.set(
        "variant.mvee_wall_s",
        "s",
        plain.round_walls.iter().sum::<f64>(),
    );
    m.set(
        "failed_ops_ratio",
        "ratio",
        result.failed as f64 / result.attempted.max(1) as f64,
    );
    set_monitor(m, &traced.monitor);
    set_kernel(m, &traced.kernel);
    set_agent(m, &traced.agent);
    m.set(
        "trace.overhead_ratio",
        "ratio",
        http_rate(&traced) / http_rate(&plain),
    );
    probes::run_all(args.seed, args.scale, m);
    write_trace(args, &traced.spans, &mut result);
    result
}

/// Runs the workload `args` names.
pub fn run(args: &Args) -> RunResult {
    let stream_cfg = match args.workload.as_str() {
        "lockstep_sync" => Some(&LOCKSTEP_SYNC),
        "deferred_async" => Some(&DEFERRED_ASYNC),
        "remote_unix" => Some(&REMOTE_UNIX),
        _ => None,
    };
    match (args.workload.as_str(), stream_cfg, args.trace) {
        (_, Some(cfg), false) => stream_end_to_end(cfg, args),
        (_, Some(cfg), true) => stream_per_layer(cfg, args),
        ("journal_recover", _, false) => journal_end_to_end(args),
        ("journal_recover", _, true) => journal_per_layer(args),
        ("parallel_agents", _, false) => agents_end_to_end(args),
        ("parallel_agents", _, true) => agents_per_layer(args),
        ("http_serve", _, false) => http_end_to_end(args),
        ("http_serve", _, true) => http_per_layer(args),
        (other, ..) => {
            let mut result = RunResult::default();
            result.errors.push(format!("unknown workload {other:?}"));
            result
        }
    }
}
