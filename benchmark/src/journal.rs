//! `journal_recover`: the journal, snapshot and divergence modules under
//! load and on the way back.
//!
//! One *cycle*, on a fresh three-variant MVEE that records a journal,
//! snapshots every 32 sync ops and quarantines instead of poisoning:
//! 256 agreed calls (timed: appends and snapshots on the hot path) →
//! variant 2 issues a mismatching `mprotect` (detection timed) → 512 calls
//! on the degraded quorum → `respawn_variant(2)` (timed) → 64 calls on the
//! full quorum → `finish_journal`, then `Journal::decode` and
//! `journal::replay` offline (timed).  Every call is preceded by one sync
//! op, the point at which snapshots are taken.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use mvee_core::config::RecoveryPolicy;
use mvee_core::journal::{self, Journal, JournalMode, JournalRecorder};
use mvee_core::monitor::{MonitorError, MonitorStats};
use mvee_core::mvee::Mvee;
use mvee_core::port::ThreadPort;
use mvee_sync_agent::agents::AgentKind;

use crate::gen::{self, Digest, Materializer, Native, Observed, Op};
use crate::measure::{ns_between, process_cpu_ms, FixedWorkRss, Mode, Samples};
use crate::stream::LOCKSTEP_TIMEOUT;
use crate::trace::{Span, Tracer, OP};

pub const VARIANTS: usize = 3;
const VICTIM: usize = 2;
pub const AGREED_CALLS: usize = 256;
pub const DEGRADED_CALLS: usize = 512;
pub const REJOINED_CALLS: usize = 64;
pub const SNAPSHOT_EVERY: u64 = 32;
/// The sync-variable address every call's sync op names.
const SYNC_ADDR: u64 = 0x1000;
/// Calls one variant thread issues per cycle when nothing goes wrong.
pub const CALLS_PER_CYCLE: usize =
    gen::POOL_REGIONS + AGREED_CALLS + 1 + DEGRADED_CALLS + REJOINED_CALLS;

/// The three generated call streams of a cycle.
pub struct Streams {
    agreed: Vec<Op>,
    degraded: Vec<Op>,
    rejoined: Vec<Op>,
}

impl Streams {
    pub fn new(seed: u64) -> Self {
        Streams {
            agreed: gen::compare_stream_with(seed, AGREED_CALLS, 32, 1),
            degraded: gen::compare_stream_with(seed ^ 0xdead, DEGRADED_CALLS, 32, 1),
            rejoined: gen::compare_stream_with(seed ^ 0xbeef, REJOINED_CALLS, 32, 1),
        }
    }
}

fn build(recorder: &Arc<JournalRecorder>) -> Mvee {
    Mvee::builder()
        .variants(VARIANTS)
        .threads(1)
        .agent(AgentKind::Null)
        .batch(1)
        .shards(1)
        .journal(JournalMode::Record(Arc::clone(recorder)))
        .recovery(RecoveryPolicy::quarantine())
        .snapshot_every(SNAPSHOT_EVERY)
        .lockstep_timeout(LOCKSTEP_TIMEOUT)
        .build()
}

/// What one cycle measured.
#[derive(Debug, Default, Clone)]
pub struct Cycle {
    pub build_ns: f64,
    pub agreed_wall_s: f64,
    pub detect_ns: f64,
    pub respawn_ns: f64,
    pub respawn_records: u64,
    pub finish_ns: f64,
    pub decode_ns: f64,
    pub replay_ns: f64,
    pub records: u64,
    pub journal_bytes: usize,
    pub snapshots_taken: u64,
    pub snapshot_bytes: usize,
    pub failed: u64,
    pub monitor: MonitorStats,
    pub kernel_executed: u64,
    pub kernel_failed: u64,
    /// Seconds per agreed call on a bare kernel, right after the cycle.
    pub native_s_per_op: f64,
    /// Process CPU milliseconds the whole cycle took.
    pub cpu_ms: f64,
}

/// Per-thread state that lives across a cycle's phases.
struct Lane<'a> {
    seen: Observed,
    samples: Option<&'a mut Samples>,
    tracer: Tracer,
    next_op: u64,
}

impl Lane<'_> {
    /// One op: the sync op, then the call.  `false` when the monitor
    /// refused the call.
    fn op(&mut self, port: &ThreadPort, op: Op) -> bool {
        let req = self.seen.mat.request(op);
        let id = self.next_op;
        self.next_op += 1;
        let t0 = Instant::now();
        self.tracer
            .span("before_sync_op", id, || port.before_sync_op(SYNC_ADDR));
        self.tracer
            .span("after_sync_op", id, || port.after_sync_op(SYNC_ADDR));
        let result = self.tracer.span("syscall", id, || port.syscall(&req));
        let t1 = Instant::now();
        if let Some(samples) = self.samples.as_deref_mut() {
            samples.push(op.class() as u8, ns_between(t0, t1));
        }
        self.tracer.record(OP, id, t0, t1);
        self.seen.settle(op, result)
    }

    fn ops(&mut self, port: &ThreadPort, ops: impl IntoIterator<Item = Op>) -> bool {
        ops.into_iter().all(|op| self.op(port, op))
    }
}

struct ThreadOut {
    agreed_wall_s: f64,
    detect_ns: f64,
    digest: Digest,
    failed: u64,
    first_error: Option<String>,
    spans: Vec<Span>,
}

/// The phases are separated by barriers that include the main thread: the
/// respawn needs every survivor's port handed back (that is what publishes
/// its sequence frontier) and no call in flight.
fn variant_thread(
    mvee: &Mvee,
    streams: &Streams,
    variant: usize,
    phase: &Barrier,
    samples: Option<&mut Samples>,
    tracer: Tracer,
    first_op: u64,
) -> ThreadOut {
    let mut lane = Lane {
        seen: Observed::default(),
        samples: None,
        tracer,
        next_op: first_op,
    };
    let mut out = ThreadOut {
        agreed_wall_s: 0.0,
        detect_ns: 0.0,
        digest: Digest::default(),
        failed: 0,
        first_error: None,
        spans: Vec::new(),
    };

    // Phase 1: the region pool (warm-up), the agreed calls, the staged call.
    {
        let port = mvee.thread_port(variant, 0);
        lane.ops(&port, Materializer::pool_ops());
        lane.samples = samples;
        let t0 = Instant::now();
        lane.ops(&port, streams.agreed.iter().copied());
        out.agreed_wall_s = t0.elapsed().as_secs_f64();
        lane.samples = None;

        // The staged mismatch: same call, same region, but the victim asks
        // for write + execute.
        let (addr, len) = lane.seen.mat.oldest_region();
        let prot = if variant == VICTIM { 7 } else { 3 };
        let req = gen::mprotect_request(addr, len, prot);
        port.sync_op(SYNC_ADDR, || ());
        let t0 = Instant::now();
        let verdict = port.syscall(&req);
        out.detect_ns = ns_between(t0, Instant::now()) as f64;
        let as_expected = match (&verdict, variant == VICTIM) {
            (Err(MonitorError::Diverged(_) | MonitorError::ShutDown), true) => true,
            (Ok(outcome), false) => outcome.result.is_ok(),
            _ => false,
        };
        if !as_expected {
            lane.seen
                .fail(|| format!("staged call answered {verdict:?}"));
        }
    }
    phase.wait();

    // Phase 2: the survivors alone.
    if variant != VICTIM {
        let port = mvee.thread_port(variant, 0);
        lane.ops(&port, streams.degraded.iter().copied());
    }
    phase.wait();
    // Main respawns the victim here.
    phase.wait();

    // Phase 3: the full quorum again.
    {
        let port = mvee.thread_port(variant, 0);
        lane.ops(&port, streams.rejoined.iter().copied());
    }
    out.digest = lane.seen.digest;
    out.failed = lane.seen.failed;
    out.first_error = lane.seen.first_error;
    out.spans = lane.tracer.spans;
    out
}

/// Runs one cycle.  `samples` receives the master's latency of every
/// agreed call; `trace` — the epoch, the cycle's first op id and the span
/// sink — turns span recording on.
pub fn run_cycle(
    streams: &Streams,
    mut samples: Option<&mut Samples>,
    trace: Option<(Instant, u64, &mut Vec<Span>)>,
    errors: &mut Vec<String>,
) -> Cycle {
    let mut cycle = Cycle::default();
    let epoch = trace.as_ref().map(|(epoch, ..)| *epoch);
    let first_op = trace.as_ref().map_or(0, |(_, first_op, _)| *first_op);
    let mut main_tracer = match epoch {
        Some(epoch) => Tracer::new(epoch, VARIANTS as u16, true, 8),
        None => Tracer::disabled(),
    };
    let recorder = Arc::new(JournalRecorder::new());
    let t0 = Instant::now();
    let mvee = main_tracer.span("build", first_op, || build(&recorder));
    cycle.build_ns = t0.elapsed().as_nanos() as f64;

    let phase = Barrier::new(VARIANTS + 1);
    let mut outs: Vec<ThreadOut> = Vec::with_capacity(VARIANTS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..VARIANTS)
            .map(|variant| {
                let samples = if variant == 0 { samples.take() } else { None };
                let tracer = match epoch {
                    Some(epoch) => Tracer::new(epoch, variant as u16, true, 4 * CALLS_PER_CYCLE),
                    None => Tracer::disabled(),
                };
                let (mvee, phase) = (&mvee, &phase);
                scope.spawn(move || {
                    variant_thread(mvee, streams, variant, phase, samples, tracer, first_op)
                })
            })
            .collect();

        phase.wait();
        // The staged mismatch must have quarantined the victim, and only it,
        // naming the staged slot: every thread's 321st call.
        let staged_sequence = (gen::POOL_REGIONS + AGREED_CALLS) as u64;
        if mvee.quarantined_variants() != vec![VICTIM] {
            errors.push(format!(
                "journal_recover: quarantined {:?}, expected [{VICTIM}]",
                mvee.quarantined_variants()
            ));
        }
        match mvee.quarantine_reports().first() {
            Some(r) if r.thread == 0 && r.sequence == staged_sequence && r.variant == VICTIM => {}
            other => errors.push(format!(
                "journal_recover: the staged mismatch (thread 0, call {staged_sequence}, \
                 variant {VICTIM}) was reported as {other:?}"
            )),
        }
        phase.wait();
        let t0 = Instant::now();
        let respawn =
            main_tracer.span("respawn_variant", first_op, || mvee.respawn_variant(VICTIM));
        cycle.respawn_ns = t0.elapsed().as_nanos() as f64;
        match respawn {
            Ok(report) => cycle.respawn_records = report.replayed_records,
            Err(e) => errors.push(format!("journal_recover: respawn failed: {e}")),
        }
        phase.wait();
        for h in handles {
            outs.push(h.join().expect("a variant thread panicked"));
        }
    });

    for (variant, out) in outs.iter().enumerate() {
        cycle.failed += out.failed;
        if let Some(e) = &out.first_error {
            errors.push(format!("journal_recover: variant {variant}: {e}"));
        }
    }
    // The survivors saw every call; their outcomes must be identical.
    if outs[0].digest != outs[1].digest {
        errors.push("journal_recover: the survivors' per-call outcomes differ".into());
    }
    cycle.agreed_wall_s = outs[0].agreed_wall_s;
    cycle.detect_ns = outs[VICTIM].detect_ns;
    if let Some(report) = mvee.divergence() {
        errors.push(format!(
            "journal_recover: the run was poisoned: {}",
            report.summary()
        ));
    }

    // The journal, read back offline.
    let t0 = Instant::now();
    let bytes = main_tracer
        .span("finish_journal", first_op, || mvee.finish_journal())
        .unwrap_or_default();
    cycle.finish_ns = t0.elapsed().as_nanos() as f64;
    cycle.journal_bytes = bytes.len();
    let t0 = Instant::now();
    let decoded = main_tracer.span("decode", first_op, || Journal::decode(&bytes));
    cycle.decode_ns = t0.elapsed().as_nanos() as f64;
    cycle.monitor = mvee.monitor_stats();
    match decoded {
        Ok(journal) => {
            cycle.records = journal.records.len() as u64;
            let t0 = Instant::now();
            let replayed =
                main_tracer.span("replay", first_op, || journal::replay_journal(&journal));
            cycle.replay_ns = t0.elapsed().as_nanos() as f64;
            match replayed {
                Ok(run) => {
                    // The journal carries the gateway's classification
                    // counters; quarantines, respawns and degraded calls are
                    // bookkeeping the live monitor keeps beside it, and a
                    // quarantine is a `Diverge` record but no live divergence.
                    let journaled = |s: &MonitorStats| {
                        [
                            s.total_syscalls,
                            s.lockstep_syscalls,
                            s.replicated_syscalls,
                            s.ordered_syscalls,
                            s.batched_comparisons,
                            s.batch_flushes,
                        ]
                    };
                    if journaled(&run.stats) != journaled(&cycle.monitor) {
                        errors.push(format!(
                            "journal_recover: replayed counters {:?} differ from the live ones {:?}",
                            journaled(&run.stats),
                            journaled(&cycle.monitor)
                        ));
                    }
                }
                Err(e) => errors.push(format!("journal_recover: replay failed: {e}")),
            }
        }
        Err(e) => errors.push(format!("journal_recover: decode failed: {e}")),
    }

    let kernel = mvee.kernel().stats();
    cycle.kernel_executed = kernel.syscalls_executed;
    cycle.kernel_failed = kernel.syscalls_failed;
    if let Some(store) = mvee.snapshot_store() {
        cycle.snapshots_taken = (0..VARIANTS).map(|v| store.taken(v)).sum();
    }
    cycle.snapshot_bytes = mvee.latest_snapshot(0).map_or(0, |s| s.encode().len());
    if let Some((.., spans)) = trace {
        for out in outs {
            spans.extend(out.spans);
        }
        spans.extend(main_tracer.spans);
    }
    cycle
}

/// What the monitor must have counted over one clean cycle.
pub fn expected_monitor(streams: &Streams) -> MonitorStats {
    let all = VARIANTS as u64;
    let pool: Vec<Op> = Materializer::pool_ops().collect();
    let staged = [Op::Mprotect { slot: 0, prot: 3 }];
    let p = gen::predict(&pool, all, 1, true)
        .plus(gen::predict(&streams.agreed, all, 1, true))
        .plus(gen::predict(&staged, all, 1, true))
        .plus(gen::predict(&streams.degraded, all - 1, 1, true))
        .plus(gen::predict(&streams.rejoined, all, 1, true));
    MonitorStats {
        total_syscalls: p.total,
        lockstep_syscalls: p.lockstep,
        replicated_syscalls: p.replicated,
        // The victim's staged call is counted at the rendezvous and never
        // reaches the ordered stage.
        ordered_syscalls: p.ordered - 1,
        quarantines: 1,
        respawns: 1,
        degraded_calls: DEGRADED_CALLS as u64 * (all - 1),
        ..MonitorStats::default()
    }
}

/// Repeats of the agreed stream in one native measurement: long enough to
/// time, short next to a cycle.
const NATIVE_REPEATS: usize = 4;

/// The agreed calls on a bare kernel, one thread, no sync ops: wall seconds
/// per call.  Taken right after each cycle, so that `slowdown_x` — the
/// median of the cycle-by-cycle ratios — never pairs a fast spell of the
/// host with a slow one.
pub fn native_s_per_op(streams: &Streams) -> f64 {
    let mut native = Native::new(0);
    let wall: f64 = (0..NATIVE_REPEATS)
        .map(|_| native.timed(&streams.agreed))
        .sum();
    wall / (NATIVE_REPEATS * streams.agreed.len()) as f64
}

/// `peak_rss_mb` is read after this many cycles.
const RSS_AFTER_CYCLES: usize = 100;

/// Cycles until `mode` says stop; a timed pass makes at least three.
pub struct Cycles {
    pub cycles: Vec<Cycle>,
    /// Peak RSS once a fixed number of cycles was done.
    pub rss_mb: f64,
    pub spans: Vec<Span>,
}

pub fn run_cycles(
    streams: &Streams,
    mode: Mode,
    samples: &mut Samples,
    traced: bool,
    errors: &mut Vec<String>,
) -> Cycles {
    let epoch = Instant::now();
    let mut spans = Vec::new();
    let mut cycles = Vec::new();
    let mut rss = FixedWorkRss::after_rounds(RSS_AFTER_CYCLES);
    let started = Instant::now();
    loop {
        rss.rounds_done(cycles.len());
        if mode.done(started, cycles.len(), 3) || !errors.is_empty() {
            break;
        }
        let first_op = (cycles.len() * CALLS_PER_CYCLE) as u64;
        let trace = traced.then_some((epoch, first_op, &mut spans));
        let cpu0 = process_cpu_ms();
        let mut cycle = run_cycle(streams, Some(samples), trace, errors);
        cycle.cpu_ms = process_cpu_ms() - cpu0;
        cycle.native_s_per_op = native_s_per_op(streams);
        cycles.push(cycle);
    }
    Cycles {
        cycles,
        rss_mb: rss.reading(),
        spans,
    }
}
