//! Shared harness code for the benchmark binaries and Criterion benches.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! `cargo run --bin <name> -p mvee-bench` binary (quick, human-readable
//! output) and, where meaningful, a Criterion bench under `benches/`.
//! This library holds the pieces they share: running one benchmark spec
//! natively and under the MVEE, computing slowdowns, and formatting aligned
//! text tables.
//!
//! The synthetic workloads are scaled-down versions of the paper's (seconds
//! become milliseconds); the `MVEE_BENCH_SCALE` environment variable
//! overrides the default scale for longer, more stable runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::Duration;

use mvee_sync_agent::agents::AgentKind;
use mvee_variant::diversity::DiversityProfile;
use mvee_variant::runner::{run_mvee, run_native, RunConfig};
use mvee_workloads::catalog::BenchmarkSpec;

/// Default scale factor applied to the paper's native run times.
///
/// `3e-6` turns an 80-second benchmark into a ~0.25 ms synthetic run; small
/// enough that the full Figure 5 sweep (25 benchmarks × 3 agents × 3 variant
/// counts) finishes in minutes, large enough that each run still executes
/// hundreds to thousands of sync ops.
pub const DEFAULT_SCALE: f64 = 3e-6;

/// Returns the workload scale, honouring `MVEE_BENCH_SCALE`.
pub fn workload_scale() -> f64 {
    std::env::var("MVEE_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

/// The variant counts the paper's tables sweep (2–4).
pub const DEFAULT_VARIANT_COUNTS: [usize; 3] = [2, 3, 4];

/// Parses a comma-separated env list of positive integers, keeping the
/// values `keep` accepts; `None` when the variable is unset or nothing
/// survives.
fn env_usize_list(var: &str, keep: impl Fn(&usize) -> bool) -> Option<Vec<usize>> {
    std::env::var(var)
        .ok()
        .map(|raw| {
            raw.split(',')
                .filter_map(|s| s.trim().parse::<usize>().ok())
                .filter(&keep)
                .collect::<Vec<_>>()
        })
        .filter(|values| !values.is_empty())
}

/// Returns the variant counts to sweep, honouring `MVEE_BENCH_VARIANTS`
/// (a comma-separated list such as `2,8,16` for the many-variant scaling
/// runs recorded in `BASELINES.md`).  Counts outside 1..=16 are dropped.
pub fn variant_counts() -> Vec<usize> {
    env_usize_list("MVEE_BENCH_VARIANTS", |n| (1..=16).contains(n))
        .unwrap_or_else(|| DEFAULT_VARIANT_COUNTS.to_vec())
}

/// Returns the comparison batch sizes to sweep, honouring
/// `MVEE_BENCH_BATCH` (a comma-separated list such as `1,8,64`; values
/// outside 1..=1024 are dropped).  Defaults to `[1]` — the unbatched
/// monitor — so the paper-shaped tables stay untouched unless a batching
/// sweep is requested.
pub fn comparison_batches() -> Vec<usize> {
    env_usize_list("MVEE_BENCH_BATCH", |n| (1..=1024).contains(n)).unwrap_or_else(|| vec![1])
}

/// The result of measuring one benchmark under one configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Agent used.
    pub agent: AgentKind,
    /// Number of variants.
    pub variants: usize,
    /// Native (single instance, unmonitored) duration.
    pub native: Duration,
    /// Duration under the MVEE.
    pub mvee: Duration,
    /// Relative slowdown (mvee / native).
    pub slowdown: f64,
    /// Whether the run completed without divergence.
    pub clean: bool,
    /// Sync ops recorded by the master variant.
    pub sync_ops: u64,
    /// System calls that entered the monitor.
    pub syscalls: u64,
}

/// Runs `spec` natively and under the MVEE with the given agent and variant
/// count, and returns the measurement.
pub fn measure(spec: &BenchmarkSpec, agent: AgentKind, variants: usize, scale: f64) -> Measurement {
    measure_batched(spec, agent, variants, scale, 1)
}

/// [`measure`] with an explicit comparison batch size (`1` = the unbatched
/// per-call rendezvous), for the `MVEE_BENCH_BATCH` sweeps.
pub fn measure_batched(
    spec: &BenchmarkSpec,
    agent: AgentKind,
    variants: usize,
    scale: f64,
    batch: usize,
) -> Measurement {
    let program = spec.paper_program(scale);
    let native = run_native(&program);
    let config = RunConfig::new(variants, agent).with_batch(batch);
    let report = run_mvee(&program, &config);
    Measurement {
        benchmark: spec.name,
        agent,
        variants,
        native: native.duration,
        mvee: report.duration,
        slowdown: report.slowdown_vs(&native),
        clean: report.completed_cleanly(),
        sync_ops: report.agent_stats.ops_recorded,
        syscalls: report.monitor.total_syscalls,
    }
}

/// Runs `spec` under the MVEE with full diversity enabled (the §5.1
/// correctness configuration) and reports whether the run stayed divergence
/// free.
pub fn measure_with_diversity(
    spec: &BenchmarkSpec,
    agent: AgentKind,
    variants: usize,
    scale: f64,
    seed: u64,
) -> bool {
    let program = spec.paper_program(scale);
    let config = RunConfig::new(variants, agent).with_diversity(DiversityProfile::full(seed));
    let report = run_mvee(&program, &config);
    report.completed_cleanly()
}

/// Geometric mean of a slice of ratios (the aggregation Table 1 uses).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean.
pub fn arithmetic_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Formats a table row with fixed-width columns.
pub fn format_row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{:>width$}", c, width = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Prints the header of a table whose middle columns are one "`N` variants"
/// column per swept variant count (the layout `table1` and `figure5` share),
/// and returns the column widths for formatting the data rows.
pub fn print_variant_table_header(
    title: &str,
    prefix: &[(&str, usize)],
    counts: &[usize],
    suffix: &[(&str, usize)],
) -> Vec<usize> {
    let mut columns: Vec<String> = prefix.iter().map(|(c, _)| c.to_string()).collect();
    let mut widths: Vec<usize> = prefix.iter().map(|(_, w)| *w).collect();
    for v in counts {
        columns.push(format!("{v} variants"));
        widths.push(12);
    }
    for (c, w) in suffix {
        columns.push(c.to_string());
        widths.push(*w);
    }
    let refs: Vec<&str> = columns.iter().map(String::as_str).collect();
    print_table_header(title, &refs, &widths);
    widths
}

/// Prints a header line and a separator for a table.
pub fn print_table_header(title: &str, columns: &[&str], widths: &[usize]) {
    println!("\n=== {title} ===");
    let cells: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    println!("{}", format_row(&cells, widths));
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    println!("{}", "-".repeat(total));
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvee_workloads::catalog::BenchmarkSpec;

    #[test]
    fn geometric_mean_of_constant_is_constant() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn arithmetic_mean_basics() {
        assert!((arithmetic_mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(arithmetic_mean(&[]), 0.0);
    }

    #[test]
    fn format_row_pads_columns() {
        let row = format_row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(row, "  a    bb");
    }

    #[test]
    fn measure_produces_a_clean_run_for_a_small_benchmark() {
        let spec = BenchmarkSpec::by_name("fft").unwrap();
        let m = measure(spec, AgentKind::WallOfClocks, 2, 2e-6);
        assert!(m.clean, "fft under WoC must not diverge");
        assert!(m.slowdown > 0.0);
        assert!(m.syscalls > 0);
    }

    #[test]
    fn default_scale_is_used_without_env_override() {
        // Not setting the variable in the test environment.
        let s = workload_scale();
        assert!(s > 0.0);
    }

    #[test]
    fn default_variant_counts_match_the_paper() {
        // Without the env override the sweep is the paper's 2–4 range.
        if std::env::var("MVEE_BENCH_VARIANTS").is_err() {
            assert_eq!(variant_counts(), vec![2, 3, 4]);
        }
    }

    #[test]
    fn default_batch_sweep_is_unbatched() {
        if std::env::var("MVEE_BENCH_BATCH").is_err() {
            assert_eq!(comparison_batches(), vec![1]);
        }
    }

    #[test]
    fn batched_measurement_is_clean_for_a_small_benchmark() {
        let spec = BenchmarkSpec::by_name("fft").unwrap();
        let m = measure_batched(spec, AgentKind::WallOfClocks, 2, 2e-6, 8);
        assert!(m.clean, "fft under a batch-8 monitor must not diverge");
        assert!(m.slowdown > 0.0);
    }
}
