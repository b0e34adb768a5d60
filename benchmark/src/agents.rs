//! `parallel_agents`: the paper's headline — a parallel program under the
//! MVEE against the same program run natively (Table 1).
//!
//! Two catalog programs, two worker threads, two variants, wall-of-clocks:
//! `lockheavy` (nearly all sync ops: the agent does the work) and `dedup`
//! (a pipeline where agent and monitor interleave).  Native and MVEE runs
//! alternate, so a slow spell of the host hits both alike; medians only.

use std::time::Instant;

use mvee_core::monitor::MonitorStats;
use mvee_sync_agent::agents::AgentKind;
use mvee_sync_agent::AgentStats;
use mvee_variant::diversity::DiversityProfile;
use mvee_variant::program::Program;
use mvee_variant::runner::{run_mvee, run_native, RunConfig};
use mvee_workloads::catalog::BenchmarkSpec;

use crate::measure::{median, process_cpu_ms, Mode};
use crate::trace::{Span, Tracer};

pub const WORKER_THREADS: usize = 2;
pub const VARIANTS: usize = 2;

/// The programs and the catalog scale that makes one MVEE run last about a
/// quarter of a second on the reference box at `--scale 1`.
pub const PROGRAMS: [(&str, f64); 2] = [("lockheavy", 4.0e-3), ("dedup", 1.2e-2)];

/// Everything measured on one program.
#[derive(Debug, Default, Clone)]
pub struct ProgramRuns {
    pub name: &'static str,
    pub native_wall_s: Vec<f64>,
    pub mvee_wall_s: Vec<f64>,
    /// Master sync ops of each MVEE run.
    pub master_sync_ops: Vec<u64>,
    /// Process CPU milliseconds of each MVEE run.
    pub mvee_cpu_ms: Vec<f64>,
    pub agent: AgentStats,
    pub monitor: MonitorStats,
}

impl ProgramRuns {
    /// Median over the pairs of MVEE wall over the native wall just before.
    pub fn slowdown(&self) -> f64 {
        let mut ratios: Vec<f64> = self
            .mvee_wall_s
            .iter()
            .zip(&self.native_wall_s)
            .map(|(mvee, native)| mvee / native)
            .collect();
        median(&mut ratios)
    }

    /// Process CPU milliseconds per thousand master sync ops, run by run.
    pub fn cpu_ms_per_kop(&self) -> Vec<f64> {
        self.mvee_cpu_ms
            .iter()
            .zip(&self.master_sync_ops)
            .map(|(ms, &ops)| ms / (ops as f64 / 1e3))
            .collect()
    }

    /// Master sync ops per second, run by run.
    pub fn rates(&self) -> Vec<f64> {
        self.mvee_wall_s
            .iter()
            .zip(&self.master_sync_ops)
            .map(|(wall, &ops)| ops as f64 / wall)
            .collect()
    }
}

/// Field-wise sum of the agent counters the benchmark reports.
pub fn add_agent(total: &mut AgentStats, run: &AgentStats) {
    total.ops_recorded += run.ops_recorded;
    total.ops_replayed += run.ops_replayed;
    total.slave_stalls += run.slave_stalls;
    total.master_stalls += run.master_stalls;
    total.slave_parks += run.slave_parks;
    total.slave_yields += run.slave_yields;
    total.master_parks += run.master_parks;
    total.cursor_rescans += run.cursor_rescans;
    total.replication_points += run.replication_points;
}

/// Field-wise sum of the monitor counters a clean run moves.
pub fn add_monitor(total: &mut MonitorStats, run: &MonitorStats) {
    total.total_syscalls += run.total_syscalls;
    total.lockstep_syscalls += run.lockstep_syscalls;
    total.replicated_syscalls += run.replicated_syscalls;
    total.ordered_syscalls += run.ordered_syscalls;
    total.batched_comparisons += run.batched_comparisons;
    total.batch_flushes += run.batch_flushes;
    total.divergences += run.divergences;
}

pub fn program(name: &str, catalog_scale: f64, scale: f64) -> Program {
    BenchmarkSpec::by_name(name)
        .unwrap_or_else(|| panic!("{name} is in the catalog"))
        .program(WORKER_THREADS, catalog_scale * scale)
}

pub fn config(agent: AgentKind, seed: u64) -> RunConfig {
    // The seed moves every variant's heap, mmap area and sync variables.
    RunConfig::new(VARIANTS, agent).with_diversity(DiversityProfile::aslr_only(seed))
}

/// One native run then one MVEE run of `program`, checked.
fn pair(
    program: &Program,
    config: &RunConfig,
    runs: &mut ProgramRuns,
    tracer: &mut Tracer,
    id: u64,
    errors: &mut Vec<String>,
) {
    let native = tracer.span("run_native", id, || run_native(program));
    let cpu_before = process_cpu_ms();
    let report = tracer.span("run_mvee", id, || run_mvee(program, config));
    runs.mvee_cpu_ms.push(process_cpu_ms() - cpu_before);
    let name = runs.name;
    if !report.completed_cleanly() {
        errors.push(format!(
            "parallel_agents: {name} did not complete cleanly: {:?}",
            report.divergence
        ));
    }
    if !report.outputs_identical() {
        errors.push(format!("parallel_agents: {name}: variant outputs differ"));
    }
    if native.threads.killed || native.threads.syscall_errors != 0 {
        errors.push(format!("parallel_agents: {name}: the native run failed"));
    }
    // Every variant issues the native run's calls, and each enters the
    // gateway once.
    let calls = native.threads.syscalls * VARIANTS as u64;
    if report.threads.syscalls != calls || report.monitor.total_syscalls != calls {
        errors.push(format!(
            "parallel_agents: {name}: {} variant calls, {} gateway entries, expected {calls}",
            report.threads.syscalls, report.monitor.total_syscalls
        ));
    }
    // One slave: every recorded sync op is replayed exactly once.
    if report.agent_stats.ops_replayed != report.agent_stats.ops_recorded {
        errors.push(format!(
            "parallel_agents: {name}: {} sync ops recorded, {} replayed",
            report.agent_stats.ops_recorded, report.agent_stats.ops_replayed
        ));
    }
    runs.native_wall_s.push(native.duration.as_secs_f64());
    runs.mvee_wall_s.push(report.duration.as_secs_f64());
    runs.master_sync_ops.push(report.agent_stats.ops_recorded);
    add_agent(&mut runs.agent, &report.agent_stats);
    add_monitor(&mut runs.monitor, &report.monitor);
}

pub struct Runs {
    pub programs: Vec<ProgramRuns>,
    pub spans: Vec<Span>,
}

/// Alternates native/MVEE pairs over the programs until `mode` says stop;
/// a timed pass makes at least three pairs of each.
pub fn run(seed: u64, scale: f64, mode: Mode, traced: bool, errors: &mut Vec<String>) -> Runs {
    let config = config(AgentKind::WallOfClocks, seed);
    let programs: Vec<Program> = PROGRAMS
        .iter()
        .map(|&(name, catalog_scale)| program(name, catalog_scale, scale))
        .collect();
    let mut runs: Vec<ProgramRuns> = PROGRAMS
        .iter()
        .map(|&(name, _)| ProgramRuns {
            name,
            ..ProgramRuns::default()
        })
        .collect();
    let mut tracer = Tracer::new(Instant::now(), 0, traced, 64);
    let started = Instant::now();
    let mut pairs = 0usize;
    loop {
        if mode.done(started, pairs, 3) || !errors.is_empty() {
            break;
        }
        for (i, program) in programs.iter().enumerate() {
            let id = (pairs * programs.len() + i) as u64;
            pair(program, &config, &mut runs[i], &mut tracer, id, errors);
        }
        pairs += 1;
    }
    Runs {
        programs: runs,
        spans: tracer.spans,
    }
}

/// Mean ns per master sync op of a short `lockheavy` run under `agent`:
/// the `agent.sync_op_ns.*` probes.
pub fn sync_op_ns(agent: AgentKind, seed: u64, scale: f64) -> f64 {
    let program = program("lockheavy", 1.0e-3, scale);
    let report = run_mvee(&program, &config(agent, seed));
    if report.agent_stats.ops_recorded == 0 || !report.completed_cleanly() {
        return 0.0;
    }
    report.duration.as_nanos() as f64 / report.agent_stats.ops_recorded as f64
}
