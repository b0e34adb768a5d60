//! Suite mode: every workload, one child process per workload and pass,
//! one report.  `--selfcheck` runs the suite twice and holds the two sets
//! of numbers against each metric's own bound.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::json::{self, Value};
use crate::spec;
use crate::workloads::{self, Args};

fn tool_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Host and build facts: numbers from different hosts, builds or settings
/// must never be compared silently.
pub fn host_facts(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "workload={} nproc={nproc} git={} rustc=\"{}\" profile={} seed={} scale={} seconds={} trace={} threads=\"{}\"",
        args.workload,
        tool_line("git", &["rev-parse", "--short", "HEAD"]),
        tool_line("rustc", &["-V"]),
        if cfg!(debug_assertions) { "debug" } else { "release" },
        args.seed,
        args.scale,
        args.seconds,
        args.trace as u8,
        workloads::thread_counts(&args.workload),
    )
}

/// One child's parsed result line.
struct Outcome {
    correct: bool,
    metrics: Vec<(String, f64, String)>,
}

fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    scale: f64,
    out_dir: &Path,
    trace: bool,
) -> Outcome {
    let failed = Outcome {
        correct: false,
        metrics: Vec::new(),
    };
    let Ok(exe) = std::env::current_exe() else {
        return failed;
    };
    // The child arms its own watchdog, so `output` cannot wait forever.
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--scale", &scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output();
    let Ok(output) = output else {
        return failed;
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("  {line}");
    }
    let Some(doc) = stdout.lines().last().and_then(|l| json::parse(l).ok()) else {
        return failed;
    };
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or_default()
        .iter()
        .filter_map(|(name, m)| {
            let value = m.get("value")?.as_f64()?;
            let unit = m.get("unit")?.as_str()?.to_string();
            Some((name.clone(), value, unit))
        })
        .collect();
    Outcome {
        correct: output.status.success()
            && doc.get("correct").and_then(Value::as_bool) == Some(true),
        metrics,
    }
}

/// One whole set: per workload, the end-to-end and the per-layer outcome.
struct Set {
    rows: Vec<(&'static str, Outcome, Outcome)>,
}

fn run_set(seed: u64, seconds: f64, scale: f64, out_dir: &Path) -> Set {
    let mut rows = Vec::new();
    for workload in spec::WORKLOADS {
        let started = Instant::now();
        println!("== {workload}");
        let e2e = run_child(workload, seed, seconds, scale, out_dir, false);
        for (name, value, unit) in &e2e.metrics {
            println!("  {name:<34} {value:>18.6} {unit}");
        }
        let layers = run_child(workload, seed, seconds, scale, out_dir, true);
        for (name, value, unit) in &layers.metrics {
            println!("  {name:<34} {value:>18.6} {unit}");
        }
        println!(
            "  -- {workload}: {} in {:.1} s",
            if e2e.correct && layers.correct {
                "correct"
            } else {
                "INCORRECT"
            },
            started.elapsed().as_secs_f64()
        );
        rows.push((workload, e2e, layers));
    }
    Set { rows }
}

fn set_correct(set: &Set) -> bool {
    set.rows
        .iter()
        .all(|(_, e2e, layers)| e2e.correct && layers.correct)
}

/// Counters that a fixed pass must reproduce exactly.  `http_serve` polls
/// and `parallel_agents` contends for locks, so their counts move with
/// timing and are left out.
fn is_exact_count(workload: &str, metric: &str) -> bool {
    !matches!(workload, "http_serve" | "parallel_agents")
        && (metric.starts_with("monitor.")
            || metric.starts_with("kernel.syscalls")
            || matches!(
                metric,
                "snapshot.taken" | "journal.records_per_call" | "poller.threads"
            ))
}

/// Holds set `b` against set `a`; returns how many comparisons failed.
fn compare(a: &Set, b: &Set) -> usize {
    let mut failures = 0;
    println!("== selfcheck: second set against the first");
    println!(
        "  {:<16} {:<16} {:>16} {:>16} {:>9} {:>7}",
        "workload", "metric", "first", "second", "worse by", "bound"
    );
    for ((workload, e2e_a, layers_a), (_, e2e_b, layers_b)) in a.rows.iter().zip(&b.rows) {
        for (name, first, _) in &e2e_a.metrics {
            let Some((_, second, _)) = e2e_b.metrics.iter().find(|(n, ..)| n == name) else {
                continue;
            };
            let bound = spec::bound_of(name).unwrap_or(0.0);
            // Worsening, as a share of the first value: a higher-is-better
            // metric worsens by falling.
            let worse_by = if spec::higher_is_better(name) {
                (first - second) / first
            } else {
                (second - first) / first
            };
            let verdict = if worse_by > bound {
                failures += 1;
                "  EXCEEDS"
            } else {
                ""
            };
            println!(
                "  {workload:<16} {name:<16} {first:>16.4} {second:>16.4} {:>8.1}% {:>6.0}%{verdict}",
                worse_by * 100.0,
                bound * 100.0
            );
        }
        for (name, first, _) in &layers_a.metrics {
            if !is_exact_count(workload, name) {
                continue;
            }
            let second = layers_b
                .metrics
                .iter()
                .find(|(n, ..)| n == name)
                .map(|(_, v, _)| *v);
            if second != Some(*first) {
                failures += 1;
                println!("  {workload:<16} {name}: {first} then {second:?}  NOT IDENTICAL");
            }
        }
    }
    failures
}

/// Runs the suite (twice under `selfcheck`); returns the exit code.
pub fn run(seed: u64, seconds: f64, scale: f64, out_dir: &Path, selfcheck: bool) -> i32 {
    let started = Instant::now();
    let first = run_set(seed, seconds, scale, out_dir);
    let mut ok = set_correct(&first);
    if selfcheck {
        let second = run_set(seed, seconds, scale, out_dir);
        ok &= set_correct(&second);
        let failures = compare(&first, &second);
        println!("== selfcheck: {failures} comparison(s) outside their bound");
        ok &= failures == 0;
    }
    println!(
        "== suite {} in {:.1} s",
        if ok { "correct" } else { "INCORRECT" },
        started.elapsed().as_secs_f64()
    );
    i32::from(!ok)
}
