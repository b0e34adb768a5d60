//! `paper`: the paper's evaluation as checked rows.
//!
//! ```text
//! cargo run --release --offline -p mvee-bench --bin paper [ARTEFACT...] > REPRODUCTION.md
//! ```
//!
//! One subcommand per artefact: `table1 table2 table3 figure5 correctness
//! covert dmt many-variants nginx`, or `all` (the default).  Every claim is
//! one [`Row`]; the rows go to stdout as the markdown of `REPRODUCTION.md`
//! and progress goes to stderr.  The binary exits 1 when a gated relation
//! fails, 2 on an unknown subcommand and 3 when a `many-variants` run
//! outlives its watchdog.
//!
//! Deterministic relations are gated.  A timing relation is gated only if
//! it held in each of five consecutive runs on a 2-vCPU host; every other
//! one is a gap row that names the metric that would close it.

use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use mvee_analysis::corpus::{generate_module, generate_nginx_module, CorpusSpec};
use mvee_analysis::corpus::{NGINX_SYNC_OPS, TABLE3_SPECS};
use mvee_analysis::instrument::{instrument_module, verify_instrumentation};
use mvee_analysis::stage2::identify_sync_ops_syntactic;
use mvee_baselines::dmt::{synthetic_workload, DmtScheduler};
use mvee_baselines::rr::RecPlayRecorder;
use mvee_bench::Gate::{Gap, Gated};
use mvee_bench::{geometric_mean, render, workload_scale, Gate, Row, Sheet, Spread};
use mvee_core::config::{RemoteChannel, Transport};
use mvee_core::mvee::Mvee;
use mvee_core::policy::MonitoringPolicy;
use mvee_kernel::net::LinkKind;
use mvee_kernel::syscall::{SyscallArg, SyscallRequest, Sysno};
use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::stats::AgentStats;
use mvee_variant::diversity::DiversityProfile;
use mvee_variant::program::Program;
use mvee_variant::runner::{run_mvee, run_native, RunConfig};
use mvee_workloads::catalog::{sweep_catalog, BenchmarkSpec, CATALOG, CHURN_CATALOG};
use mvee_workloads::covert::{exchange_pointers, CovertChannelReport};
use mvee_workloads::covert::{run_timing_channel, run_trylock_channel};
use mvee_workloads::nginx::{run_nginx_experiment, AttackOutcome, NginxServerConfig};

/// The subcommands, one per artefact, in the order `all` runs them.
const ARTEFACTS: &str = "table1 table2 table3 figure5 correctness covert dmt many-variants nginx";
/// Runs per Table 1, Table 2 and Figure 5 cell.
const CELL_RUNS: usize = 5;
/// Runs per `many-variants` cell.
const MANY_RUNS: usize = 15;
/// How long one `many-variants` run may take before the watchdog fires.
const WATCHDOG: Duration = Duration::from_secs(120);
/// The variant counts of Table 1 and Figure 5.
const VARIANT_COUNTS: [usize; 3] = [2, 3, 4];
/// The (variants, workers) cells of `many-variants`.
const MANY_CELLS: [(usize, usize); 5] = [(2, 2), (2, 8), (8, 2), (8, 8), (16, 2)];
const TO: AgentKind = AgentKind::TotalOrder;
const PO: AgentKind = AgentKind::PartialOrder;
const WOC: AgentKind = AgentKind::WallOfClocks;
const AGENTS: [AgentKind; 3] = [TO, PO, WOC];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let all = args.is_empty() || args.iter().any(|a| a == "all");
    let wanted: Vec<&str> = match all {
        true => ARTEFACTS.split(' ').collect(),
        false => args.iter().map(String::as_str).collect(),
    };
    let known = |a: &&str| ARTEFACTS.split(' ').any(|x| x == *a);
    if let Some(bad) = wanted.iter().find(|a| !known(a)) {
        eprintln!("paper: unknown artefact `{bad}`; one of: all {ARTEFACTS}");
        std::process::exit(2);
    }
    let scale = workload_scale();
    let mut sweep: Option<Sweep> = None;
    let mut rows = Vec::new();
    for &artefact in &wanted {
        eprintln!("paper: {artefact} ...");
        let started = Instant::now();
        rows.extend(match artefact {
            "table1" => table1(sweep.get_or_insert_with(|| Sweep::measure(scale))),
            "table2" => table2(scale),
            "table3" => table3(),
            "figure5" => figure5(sweep.get_or_insert_with(|| Sweep::measure(scale))),
            "correctness" => correctness(scale),
            "covert" => covert(),
            "nginx" => nginx(),
            "dmt" => dmt(),
            _ => many_variants(scale),
        });
        let took = started.elapsed().as_secs_f64();
        eprintln!("paper: {artefact} took {took:.1} s");
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let preamble = format!(
        "# Reproduction scoreboard\n\nGenerated by `cargo run --release --offline -p \
         mvee-bench --bin paper > REPRODUCTION.md`; do not edit. Artefacts: {}. {cpus} CPUs, \
         scale {scale:.1e} (`MVEE_BENCH_SCALE`; `many-variants` at 10×). Timing cells read \
         median [min, max] ×runs. `holds`/**FAILS**: a gated relation (a failure exits 1); \
         `gap`: ungated, with the metric that would close it. Timing relations are gated only \
         if they held in five consecutive runs on a 2-vCPU host.\n",
        wanted.join(", ")
    );
    print!("{}", render(&preamble, &rows));
    let failing: Vec<&Row> = rows.iter().filter(|r| r.fails()).collect();
    for row in &failing {
        let (artefact, claim, ours) = (row.artefact, &row.claim, &row.ours);
        eprintln!("paper: FAILS: {artefact} / {claim}: {ours}");
    }
    if !failing.is_empty() {
        std::process::exit(1);
    }
}

/// `a` before `b` in the paper's order in every cell, on the medians:
/// `a < b` when `strict`, else `a ≤ b`.
fn order(sheet: &mut Sheet, a: (&str, &[Spread]), b: (&str, &[Spread]), strict: bool, gate: Gate) {
    let ((a_name, a), (b_name, b)) = (a, b);
    let before = |a: &Spread, b: &Spread| a.median < b.median || !strict && a.median == b.median;
    let pairs: Vec<(&Spread, &Spread)> = a.iter().zip(b).collect();
    let met = pairs.iter().all(|(a, b)| before(a, b));
    let ours: Vec<String> = pairs.iter().map(|(a, b)| format!("{a} vs {b}")).collect();
    let claim = format!("{a_name} {} {b_name}", if strict { "<" } else { "≤" });
    let paper = "WoC < TO ≤ PO (Table 1: 1.14–1.38, 2.76–2.87, 2.83–3.00)";
    let (ours, relation) = (ours.join(" · "), "in every cell (medians)");
    sheet.add(claim, paper, ours, relation, met, gate);
}

// --- Table 1 and Figure 5: one sweep, read twice ---

/// One Table 1 / Figure 5 cell: the slowdown over [`CELL_RUNS`] paired
/// native and MVEE runs, and whether every MVEE run stayed clean.
#[derive(Debug, Clone, Copy)]
struct Cell {
    slowdown: Spread,
    clean: bool,
}

fn measure_cell(program: &Program, agent: AgentKind, variants: usize, batch: usize) -> Cell {
    let config = RunConfig::new(variants, agent).with_batch(batch);
    let (mut clean, mut samples) = (true, Vec::new());
    for _ in 0..CELL_RUNS {
        let native = run_native(program);
        let report = run_mvee(program, &config);
        clean &= report.completed_cleanly();
        samples.push(report.slowdown_vs(&native));
    }
    let slowdown = Spread::of(&samples);
    Cell { slowdown, clean }
}

/// Every cell Table 1 and Figure 5 read, measured once: the whole sweep
/// catalog at batch 1, and the allocator-churn catalog at batch 8 too.
struct Sweep(HashMap<(&'static str, AgentKind, usize, usize), Cell>);

impl Sweep {
    fn measure(scale: f64) -> Sweep {
        let mut cells = HashMap::new();
        for spec in sweep_catalog() {
            let program = spec.paper_program(scale);
            for (agent, variants) in AGENTS.iter().flat_map(|&a| VARIANT_COUNTS.map(|v| (a, v))) {
                for batch in [1, 8] {
                    if batch == 1 || CHURN_CATALOG.contains(spec) {
                        let cell = measure_cell(&program, agent, variants, batch);
                        cells.insert((spec.name, agent, variants, batch), cell);
                    }
                }
            }
        }
        Sweep(cells)
    }

    /// A cell at each variant count.
    fn cells(&self, spec: &BenchmarkSpec, agent: AgentKind, batch: usize) -> [Cell; 3] {
        VARIANT_COUNTS.map(|v| self.0[&(spec.name, agent, v, batch)])
    }

    /// Table 1's aggregate at each variant count: the geometric mean over
    /// `specs` of the cells' medians, minima and maxima.
    fn aggregate(&self, specs: &[BenchmarkSpec], agent: AgentKind, batch: usize) -> [Spread; 3] {
        let cells: Vec<[Cell; 3]> = specs.iter().map(|s| self.cells(s, agent, batch)).collect();
        [0, 1, 2].map(|i| {
            let geo = |f: fn(&Spread) -> f64| {
                geometric_mean(&cells.iter().map(|c| f(&c[i].slowdown)).collect::<Vec<_>>())
            };
            let (median, min, max) = (geo(|s| s.median), geo(|s| s.min), geo(|s| s.max));
            Spread {
                median,
                min,
                max,
                n: CELL_RUNS,
            }
        })
    }
}

/// `2v a · 3v b · 4v c` over the variant counts.
fn per_count<T: std::fmt::Display>(values: &[T]) -> String {
    let cell = |(v, x): (&usize, &T)| format!("{v}v {x}");
    let cells: Vec<String> = VARIANT_COUNTS.iter().zip(values).map(cell).collect();
    cells.join(" · ")
}

/// The paper's Table 1 slowdowns at 2, 3 and 4 variants, in [`AGENTS`] order.
const PAPER_TABLE1: [[f64; 3]; 3] = [[2.76, 2.83, 2.87], [2.83, 2.83, 3.00], [1.14, 1.27, 1.38]];

fn table1(sweep: &Sweep) -> Vec<Row> {
    let mut t = Sheet::new("Table 1");
    let at = |agent| sweep.aggregate(CATALOG, agent, 1);
    for (agent, paper) in AGENTS.into_iter().zip(PAPER_TABLE1) {
        let ours = at(agent);
        let claim = format!("{} slowdown, geomean of 25 benchmarks", agent.name());
        let met = (0..3).all(|i| ours[i].median <= paper[i]);
        let paper = per_count(&paper.map(|x| format!("{x:.2}")));
        let gap = Gap("`agent.sync_op_ns.*` and the slave waits (`many-variants`)");
        let (ours, relation) = (per_count(&ours), "at most the paper's");
        t.add(claim, paper, ours, relation, met, gap);
    }
    // Held in each of five consecutive runs on a 2-vCPU host: gated.
    order(&mut t, ("WoC", &at(WOC)), ("TO", &at(TO)), true, Gated);
    let gap = Gap("TO's slowdown (its one global order, `agent.sync_op_ns.to`)");
    order(&mut t, ("TO", &at(TO)), ("PO", &at(PO)), false, gap);
    for (agent, paper) in AGENTS.into_iter().zip(PAPER_TABLE1) {
        // Sub-linear: at v variants, below v/2 × the 2-variant slowdown.
        let growth = |x: [f64; 3]| format!("×{:.2} at 3v, ×{:.2} at 4v", x[1] / x[0], x[2] / x[0]);
        let s = at(agent).map(|x| x.median);
        let met = (1..3).all(|i| s[i] / s[0] < VARIANT_COUNTS[i] as f64 / 2.0);
        let claim = format!("{} slowdown growth over 2 variants", agent.name());
        let (paper, ours) = (growth(paper), growth(s));
        let gap = Gap("the per-variant cost of a replicated sync op (`agent.sync_op_ns.*`)");
        t.add(claim, paper, ours, "below ×v/2 (sub-linear)", met, gap);
    }
    let mut b = Sheet::new("Table 1b (allocator churn)");
    for agent in AGENTS {
        let batch = |size| sweep.aggregate(CHURN_CATALOG, agent, size);
        let (b1, b8) = (batch(1), batch(8));
        let claim = format!("{} slowdown, batch 1 then batch 8", agent.name());
        let ours = format!("batch 1: {}; batch 8: {}", per_count(&b1), per_count(&b8));
        let met = (0..3).all(|i| b8[i].median <= b1[i].median);
        let gap = Gap("the deferred comparisons' share of the run (`monitor.batch_flushes`)");
        let relation = "batch 8 ≤ batch 1 at every count";
        b.add(claim, "—", ours, relation, met, gap);
    }
    [t.rows, b.rows].concat()
}

fn figure5(sweep: &Sweep) -> Vec<Row> {
    let mut f = Sheet::new("Figure 5");
    for (spec, agent) in sweep_catalog().flat_map(|s| AGENTS.map(|a| (s, a))) {
        let cells = sweep.cells(spec, agent, 1);
        let claim = format!("{} under {}: run time ÷ native", spec.name, agent.name());
        let ours = per_count(&cells.map(|c| c.slowdown));
        let clean = cells.iter().all(|c| c.clean);
        let paper = "a bar per variant count, no divergence";
        f.add(claim, paper, ours, "clean in every run", clean, Gated);
    }
    f.rows
}

// --- Table 2 and the detection-lag probe ---

fn table2(scale: f64) -> Vec<Row> {
    let mut t = Sheet::new("Table 2");
    for spec in CATALOG {
        let program = spec.paper_program(scale);
        let runs: Vec<_> = (0..CELL_RUNS).map(|_| run_native(&program)).collect();
        let rate = |f: fn(&_) -> f64| Spread::of(&runs.iter().map(f).collect::<Vec<_>>());
        let (sc, sy) = (rate(|r| r.syscall_rate()), rate(|r| r.sync_op_rate()));
        let (name, suite) = (spec.name, spec.suite.label());
        let claim = format!("{name} ({suite}): syscalls/s; sync ops/s");
        let (psc, psy) = (spec.syscalls_per_s, spec.sync_ops_per_s);
        let secs = spec.native_runtime_s;
        let paper = format!("{psc:.0}; {psy:.0} (native {secs:.2} s)");
        let met = (sy.median > sc.median) == (psy > psc);
        let gap = Gap("the scaled program's call mix (`BenchmarkSpec::program`)");
        let (ours, relation) = (format!("{sc:.0}; {sy:.0}"), "the same rate dominates");
        t.add(claim, paper, ours, relation, met, gap);
    }
    let mut lag = Sheet::new("Detection lag (leader/follower split)");
    use RemoteChannel::{InProc, Tcp, Unix};
    for channel in [InProc, Unix, Tcp] {
        let ingested = detection_lag(channel);
        let claim = format!("remote-{}: sync ops ingested first", channel.name());
        let ours = format!("{ingested} of {LAG_SYNC_OPS}");
        let met = ingested <= LAG_SYNC_OPS;
        let gap = Gap("`remote.detection_lag_sync_ops`");
        lag.add(claim, "—", ours, "at most the staged sync ops", met, gap);
    }
    [t.rows, lag.rows].concat()
}

/// How many leader sync ops the detection-lag probe stages behind the
/// mismatching batch.
const LAG_SYNC_OPS: u64 = 64;

/// The detection lag of the distributed deployment on `channel`: the
/// leader flushes a batch whose comparison will mismatch (the slave
/// disagrees on one `mprotect` length) and keeps retiring sync ops while
/// the slave dawdles; every sync op the follower ingests before the
/// verdict is leader progress past the divergent call.
fn detection_lag(channel: RemoteChannel) -> u64 {
    const BATCH: usize = 8;
    let mvee = Mvee::builder()
        .variants(2)
        .threads(1)
        .agent(AgentKind::Null)
        .batch(BATCH)
        .transport(Transport::Remote { channel })
        .lockstep_timeout(Duration::from_secs(30))
        .manual_clock(true)
        .build();
    let mvee = Arc::new(mvee);
    // Each side first maps the page its `mprotect`s change (the batch's
    // first comparison), so the probe compares real protection changes.
    let mmap = SyscallRequest::new(Sysno::Mmap).with_int(4096);
    let mmap = mmap.with_arg(SyscallArg::Flags(3));
    let mprotect = |at: u64, len: i64| {
        let req = SyscallRequest::new(Sysno::Mprotect).with_arg(SyscallArg::Pointer(at));
        req.with_int(len).with_arg(SyscallArg::Flags(1))
    };
    let (leader, request) = (Arc::clone(&mvee), mmap.clone());
    let leader = std::thread::spawn(move || {
        let port = leader.leader_port(0);
        let at = port.syscall(&request).expect("probe mmap").result.unwrap() as u64;
        for _ in 1..BATCH {
            let _ = port.syscall(&mprotect(at, 4096));
        }
        // Let the pump deposit the batch first, then pace the sync ops so
        // they are ingested while the arrival is still pending.
        std::thread::sleep(Duration::from_millis(5));
        for _ in 0..LAG_SYNC_OPS / 8 {
            (0..8).for_each(|_| port.sync_op(0x1000, || ()));
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    let slave = Arc::clone(&mvee);
    let slave = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        let port = slave.thread_port(1, 0);
        let at = port.syscall(&mmap).expect("probe mmap").result.unwrap() as u64;
        for i in 1..BATCH {
            let _ = port.syscall(&mprotect(at, if i == 3 { 666 } else { 4096 }));
        }
    });
    leader.join().expect("leader thread panicked");
    slave.join().expect("slave thread panicked");
    assert!(mvee.divergence().is_some(), "the mismatch is detected");
    mvee.monitor_stats().detection_lag_sync_ops
}

// --- The deterministic artefacts ---

fn table3_row(t: &mut Sheet, spec: &CorpusSpec, got: (usize, usize, usize), verified: bool) {
    let want = (spec.type_i, spec.type_ii, spec.type_iii);
    let show = |(i, ii, iii): (usize, usize, usize)| format!("{i}/{ii}/{iii} = {}", i + ii + iii);
    let claim = format!("{}: sync ops of type (i) / (ii) / (iii)", spec.name);
    let ours = format!("{}; instrumentation verified: {verified}", show(got));
    let (met, relation) = (got == want && verified, "equal, instrumentation verified");
    t.add(claim, show(want), ours, relation, met, Gated);
}

fn table3() -> Vec<Row> {
    let mut t = Sheet::new("Table 3");
    for spec in TABLE3_SPECS {
        let module = generate_module(spec);
        let report = identify_sync_ops_syntactic(&module);
        let (instrumented, summary) = instrument_module(&module, &report);
        let verified = verify_instrumentation(&instrumented) && summary.is_consistent();
        table3_row(&mut t, spec, report.counts(), verified);
    }
    let nginx = identify_sync_ops_syntactic(&generate_nginx_module()).total();
    let claim = "nginx-1.8 custom primitives (§5.5)";
    let (paper, ours) = (NGINX_SYNC_OPS.to_string(), nginx.to_string());
    t.add(claim, paper, ours, "equal", nginx == NGINX_SYNC_OPS, Gated);
    t.rows
}

fn correctness(scale: f64) -> Vec<Row> {
    use MonitoringPolicy::{SecuritySensitiveOnly, StrictLockstep};
    let policies = [StrictLockstep, SecuritySensitiveOnly];
    let mut diverged = Vec::new();
    for (spec, policy) in CATALOG.iter().flat_map(|s| policies.map(|p| (s, p))) {
        let diversity = DiversityProfile::full(0x5151 + spec.native_runtime_s as u64);
        let config = RunConfig::new(2, WOC)
            .with_policy(policy)
            .with_diversity(diversity);
        let report = run_mvee(&spec.paper_program(scale), &config);
        if !(report.completed_cleanly() && report.outputs_identical()) {
            diverged.push(format!("{} under {}", spec.name, policy.name()));
        }
    }
    let mut c = Sheet::new("§5.1 correctness");
    let claim = "25 benchmarks × 2 policies, diversified, WoC, 2 variants";
    let ours = format!("{} of 50 diverge {diverged:?}", diverged.len());
    let (paper, relation) = ("0 of 50 diverge", "none diverges, outputs identical");
    c.add(claim, paper, ours, relation, diverged.is_empty(), Gated);
    c.rows
}

fn channel_row(c: &mut Sheet, claim: &str, report: &CovertChannelReport) {
    let (sent, received, diverged) = (&report.sent, &report.received, report.diverged);
    let bits = sent.iter().zip(received).filter(|(a, b)| a == b).count();
    let ours = format!("{bits}/{} bits; divergence: {diverged}", sent.len());
    let met = report.transfer_is_exact() && !diverged;
    let (paper, relation) = ("32/32 bits, undetected", "every bit, no divergence");
    c.add(claim, paper, ours, relation, met, Gated);
}

fn covert() -> Vec<Row> {
    let mut c = Sheet::new("§5.4 covert channels");
    let secret: Vec<bool> = (0..32).map(|i| (0xdead_beefu64 >> i) & 1 == 1).collect();
    let timing = run_timing_channel(&secret);
    channel_row(&mut c, "timing channel (replicated gettimeofday)", &timing);
    let trylock = run_trylock_channel(&secret);
    channel_row(&mut c, "trylock channel (replicated sync ops)", &trylock);
    let (master, slave, diverged) = exchange_pointers(0xbeef, 0x1234);
    let ours = format!("master learned {master:#x}, slave {slave:#x}; divergence: {diverged}");
    let paper = "each learns the other's pointer, undetected";
    let met = (master, slave, diverged) == (0x1234, 0xbeef, false);
    c.add("pointer exchange", paper, ours, "as the paper", met, Gated);
    c.rows
}

/// The CVE-2013-2028-style attack compromises a lone server and is
/// stopped by two or more variants.
fn attack_row(n: &mut Sheet, variants: usize, outcome: AttackOutcome) {
    let want = match variants {
        1 => AttackOutcome::Compromised,
        _ => AttackOutcome::DetectedAndStopped,
    };
    let claim = format!("CVE-2013-2028-style attack, {variants} variant(s)");
    let (paper, ours) = (format!("{want:?}"), format!("{outcome:?}"));
    n.add(claim, paper, ours, "equal", outcome == want, Gated);
}

fn nginx() -> Vec<Row> {
    use LinkKind::{GigabitNetwork, Loopback};
    let mut n = Sheet::new("§5.5 nginx");
    let config = |variants, link, requests| NginxServerConfig {
        variants,
        link,
        requests,
        ..Default::default()
    };
    let run = |config: NginxServerConfig, attack| run_nginx_experiment(&config, attack);
    let mut plain = config(2, Loopback, 16);
    plain.instrument_custom_sync = false;
    let diverged = run(plain, false).diverged;
    let claim = "uninstrumented custom sync primitives, 2 variants";
    let paper = "diverges once traffic flows";
    let ours = format!("divergence: {diverged}");
    n.add(claim, paper, ours, "diverges", diverged, Gated);
    for (link, paper_loss) in [(GigabitNetwork, 3.0), (Loopback, 48.0)] {
        let native = run(config(1, link, 64), false).effective_throughput_rps;
        let mvee = run(config(2, link, 64), false);
        let claim = format!("instrumented, 2 variants, {link:?}: divergence");
        let ours = format!("divergence: {}", mvee.diverged);
        n.add(claim, "none", ours, "none", !mvee.diverged, Gated);
        let rps = mvee.effective_throughput_rps;
        let loss = 100.0 * (1.0 - rps / native.max(1e-9));
        let claim = format!("instrumented, 2 variants, {link:?}: throughput loss");
        let ours = format!("{loss:.1} % ×1 (native {native:.0} req/s, MVEE {rps:.0} req/s)");
        let gap = Gap("MVEE req/s (per request: `http_serve` `op_p50_us`)");
        let (paper, relation) = (format!("{paper_loss:.0} %"), "at most the paper's");
        n.add(claim, paper, ours, relation, loss <= paper_loss, gap);
    }
    for variants in [1, 2] {
        let attack = run(config(variants, Loopback, 16), true).attack;
        attack_row(&mut n, variants, attack);
    }
    n.rows
}

fn dmt() -> Vec<Row> {
    let mut d = Sheet::new("§6 DMT vs order-based replay");
    let threads = 4;
    let workload = synthetic_workload(threads, 200, 4);
    // Record once, replay everywhere: the replayed per-variable order is
    // the same in every variant whatever the skew.
    let mut recorder = RecPlayRecorder::new();
    for (t, stream) in workload.iter().enumerate() {
        for req in stream {
            recorder.record(t, u64::from(req.lock));
        }
    }
    let replayed = recorder.finish().replay().is_some();
    for skew in [0.0, 0.01, 0.03, 0.05] {
        let schedules = DmtScheduler::schedule_variants(threads, &workload, &[1.0, 1.0 + skew]);
        let off = schedules[0].divergence_count(&schedules[1]);
        let (paper, dmt_met) = match skew == 0.0 {
            true => ("DMT positions agree; replay identical", off == 0),
            false => ("DMT positions move; replay identical", off > 0),
        };
        let claim = format!("{:.0} % instruction skew, 2 variants", skew * 100.0);
        let ours = format!("DMT positions off: {off}; replay identical: {replayed}");
        d.add(claim, paper, ours, paper, dmt_met && replayed, Gated);
    }
    let spec = BenchmarkSpec::by_name("barnes").expect("barnes in catalog");
    let config = RunConfig::new(2, WOC).with_diversity(DiversityProfile::full(77));
    let clean = run_mvee(&spec.paper_program(2e-6), &config).completed_cleanly();
    let claim = "barnes under WoC, diversified (instruction skew), 2 variants";
    let paper = "order-based agents stay consistent";
    let ours = format!("divergence: {}", !clean);
    d.add(claim, paper, ours, "no divergence", clean, Gated);
    d.rows
}

// --- many-variants ---

/// Runs `run`; if it has not returned after [`WATCHDOG`], prints `cell`
/// and exits 3.
fn watched<T>(cell: &str, run: impl FnOnce() -> T) -> T {
    let (done, wait) = mpsc::channel::<()>();
    let cell = cell.to_string();
    let dog = std::thread::spawn(move || {
        if wait.recv_timeout(WATCHDOG) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!("paper: watchdog: {cell} still running after {WATCHDOG:?}");
            std::process::exit(3);
        }
    });
    let out = run();
    drop(done);
    dog.join().expect("watchdog thread panicked");
    out
}

/// A `many-variants` cell's tail: its slowest run within 3 × its fastest.
fn tail_row(m: &mut Sheet, cell: &str, run_ms: Spread, build_ms: f64, waits: &str, gate: Gate) {
    let claim = format!("{cell}: run time (ms)");
    let ours = format!("run {run_ms:.1}; build {build_ms:.1} ms; per run: {waits}");
    let met = run_ms.tail_within(3.0);
    m.add(claim, "—", ours, "max ≤ 3 × min", met, gate);
}

type Counter = fn(&AgentStats) -> u64;

/// The stall taxonomy of a cell: the median per run of each agent counter.
fn taxonomy(stats: &[AgentStats]) -> String {
    let fields: [(&str, Counter); 9] = [
        ("ops", |s| s.ops_recorded),
        ("slave spins", |s| s.slave_spin_iterations),
        ("yields", |s| s.slave_yields),
        ("parks", |s| s.slave_parks),
        ("rescans", |s| s.cursor_rescans),
        ("master stalls", |s| s.master_stalls),
        ("spins", |s| s.master_spin_iterations),
        ("yields", |s| s.master_yields),
        ("parks", |s| s.master_parks),
    ];
    let median =
        |f: Counter| Spread::of(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>()).median;
    fields
        .map(|(name, f)| format!("{name} {:.0}", median(f)))
        .join(", ")
}

fn many_variants(scale: f64) -> Vec<Row> {
    let mut m = Sheet::new("many-variants (lockheavy at 10× scale)");
    let spec = BenchmarkSpec::by_name("lockheavy").expect("lockheavy in catalog");
    let (mut runs, mut unclean) = (HashMap::new(), Vec::new());
    for (variants, workers) in MANY_CELLS {
        let program = spec.program(workers, 10.0 * scale);
        for agent in AGENTS {
            let cell = format!("{} {variants}v × {workers}w", agent.name());
            let config = RunConfig::new(variants, agent);
            let (mut run, mut build, mut stats) = (Vec::new(), Vec::new(), Vec::new());
            for i in 0..MANY_RUNS {
                let started = Instant::now();
                let report = watched(&format!("{cell}, run {i}"), || run_mvee(&program, &config));
                let wall = started.elapsed();
                run.push(report.duration.as_secs_f64() * 1e3);
                build.push(wall.saturating_sub(report.duration).as_secs_f64() * 1e3);
                if !report.completed_cleanly() {
                    unclean.push(format!("{cell} run {i}"));
                }
                stats.push(report.agent_stats);
            }
            let (run, build) = (Spread::of(&run), Spread::of(&build).median);
            eprintln!("paper: {cell}: {run:.1} ms");
            runs.insert((agent, variants, workers), run);
            let gap = Gap("max/min run time (slave yields and parks per run)");
            tail_row(&mut m, &cell, run, build, &taxonomy(&stats), gap);
        }
    }
    // The paper's order at ≥ 4 workers: the 8-worker cells.
    let wide = MANY_CELLS.iter().filter(|c| c.1 >= 4);
    let at = |agent| -> Vec<Spread> { wide.clone().map(|&(v, w)| runs[&(agent, v, w)]).collect() };
    let gap = Gap("WoC's median run time at 2v × 8w and 8v × 8w (slave yields, parks)");
    order(&mut m, ("WoC", &at(WOC)), ("TO", &at(TO)), false, gap);
    let gap = Gap("TO's median run time at 2v × 8w and 8v × 8w");
    order(&mut m, ("TO", &at(TO)), ("PO", &at(PO)), false, gap);
    let ours = format!("{} of 225 runs diverged {unclean:?}", unclean.len());
    let claim = "every run completes without divergence";
    m.add(claim, "—", ours, "none diverges", unclean.is_empty(), Gated);
    m.rows
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The one row `add` puts on a fresh sheet.
    fn row(add: impl FnOnce(&mut Sheet)) -> Row {
        let mut sheet = Sheet::new("test");
        add(&mut sheet);
        sheet.rows.remove(0)
    }

    #[test]
    fn wall_of_clocks_slower_than_total_order_fails_the_order() {
        let order_of = |woc: f64, to: f64, strict| {
            let flat = |median| Spread::of(&[median]);
            let (woc, to) = ([flat(1.0), flat(woc)], [flat(2.0), flat(to)]);
            row(|s| order(s, ("WoC", &woc), ("TO", &to), strict, Gated))
        };
        assert!(order_of(1.2, 2.8, true).met);
        assert!(order_of(3.0, 2.8, true).fails(), "one cell out of order");
        assert!(order_of(2.8, 2.8, true).fails(), "a strict order");
        assert!(order_of(2.8, 2.8, false).met);
    }

    #[test]
    fn a_table3_count_off_by_one_fails() {
        let libc = &TABLE3_SPECS[0];
        let (i, ii, iii) = (libc.type_i, libc.type_ii, libc.type_iii);
        assert!(row(|s| table3_row(s, libc, (i, ii, iii), true)).met);
        assert!(row(|s| table3_row(s, libc, (i, ii, iii + 1), true)).fails());
        assert!(row(|s| table3_row(s, libc, (i - 1, ii, iii), true)).fails());
        assert!(row(|s| table3_row(s, libc, (i, ii, iii), false)).fails());
    }

    #[test]
    fn a_covert_channel_at_31_of_32_bits_fails() {
        let exact = CovertChannelReport {
            sent: vec![true; 32],
            received: vec![true; 32],
            diverged: false,
        };
        assert!(row(|s| channel_row(s, "c", &exact)).met);
        let mut one_off = exact.clone();
        one_off.received[7] = false;
        let off = row(|s| channel_row(s, "c", &one_off));
        assert!(off.fails() && off.ours.starts_with("31/32 bits"));
        let caught = CovertChannelReport {
            diverged: true,
            ..exact
        };
        assert!(row(|s| channel_row(s, "c", &caught)).fails());
    }

    #[test]
    fn a_many_variants_cell_past_three_times_its_minimum_fails() {
        let cell = Spread::of(&[2.0, 4.0, 6.0]);
        assert!(row(|s| tail_row(s, "WoC 8v × 8w", cell, 0.5, "", Gated)).met);
        let tail = Spread { max: 6.1, ..cell };
        assert!(row(|s| tail_row(s, "WoC 8v × 8w", tail, 0.5, "", Gated)).fails());
    }

    #[test]
    fn a_compromised_server_at_two_variants_fails() {
        use AttackOutcome::{Compromised, DetectedAndStopped};
        assert!(row(|s| attack_row(s, 1, Compromised)).met);
        assert!(row(|s| attack_row(s, 2, DetectedAndStopped)).met);
        assert!(row(|s| attack_row(s, 2, Compromised)).fails());
        assert!(row(|s| attack_row(s, 1, DetectedAndStopped)).fails());
    }

    #[test]
    fn table1_is_the_geometric_mean_of_the_cells() {
        let mut cells = HashMap::new();
        for (spec, m) in CHURN_CATALOG.iter().zip([1.0, 4.0]) {
            let slowdown = Spread::of(&[m / 2.0, m, m * 2.0]);
            for v in VARIANT_COUNTS {
                let clean = true;
                cells.insert((spec.name, TO, v, 1), Cell { slowdown, clean });
            }
        }
        let [two, ..] = Sweep(cells).aggregate(CHURN_CATALOG, TO, 1);
        let near = |x: f64, y: f64| (x - y).abs() < 1e-9;
        assert!(near(two.median, 2.0) && near(two.min, 1.0) && near(two.max, 4.0));
    }

    #[test]
    fn a_small_cell_runs_clean_batched() {
        let program = BenchmarkSpec::by_name("fft").unwrap().paper_program(2e-6);
        let cell = measure_cell(&program, WOC, 2, 8);
        assert!(cell.clean, "fft under a batch-8 monitor must not diverge");
        assert!(cell.slowdown.n == CELL_RUNS && cell.slowdown.min > 0.0);
    }
}
