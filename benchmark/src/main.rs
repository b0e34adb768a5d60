//! The MVEE's benchmark.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as the last line of standard
//!   output, one JSON object with `correct`, `attempted`, `failed` and
//!   `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//!   metrics with `--trace 1`.  This is what `BENCHMARK.json` names.
//! * without `--workload` it runs the whole suite, one child process per
//!   workload and pass, and prints every metric by name and unit;
//!   `--selfcheck` does that twice and compares the two sets.
//!
//! See `README.md` in this directory for every workload and metric.

mod affinity;
mod agents;
mod gen;
mod http;
mod journal;
mod json;
mod measure;
mod probes;
mod spec;
mod stream;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::time::Duration;

use workloads::Args;

const USAGE: &str = "usage: mvee-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--scale <x>] [--out-dir <dir>] [--deadline <s>] [--selfcheck]";

/// The command line, parsed.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out_dir: PathBuf,
    deadline: Option<f64>,
    selfcheck: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        scale: 1.0,
        out_dir: PathBuf::from("benchmark/out"),
        deadline: None,
        selfcheck: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("{v:?} is not a number"))
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                cli.seed = v.parse().map_err(|_| format!("{v:?} is not a seed"))?;
            }
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => cli.trace = number(value()?)? != 0.0,
            "--scale" => cli.scale = number(value()?)?,
            "--out-dir" => cli.out_dir = PathBuf::from(value()?),
            "--deadline" => cli.deadline = Some(number(value()?)?),
            "--selfcheck" => cli.selfcheck = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.scale > 0.0) {
        return Err("--seconds and --scale must be positive".into());
    }
    Ok(cli)
}

/// The hard deadline of one workload process: four times what the run is
/// expected to take, and never past the 180 s the driver allows.
fn deadline_for(cli: &Cli) -> Duration {
    let expected = 1.5 * cli.seconds + 10.0;
    Duration::from_secs_f64(cli.deadline.unwrap_or((4.0 * expected).min(170.0)))
}

/// Arms the watchdog.  A lost wake-up in this code base degrades to a 1 ms
/// poll and a lost peer to a 20 s rendezvous deadline, so a wedged run is
/// rare — but when it happens the benchmark must end, say what was running,
/// and fail.
fn arm_watchdog(args: &Args, deadline: Duration) {
    let args = args.clone();
    std::thread::Builder::new()
        .name("watchdog".into())
        .spawn(move || {
            std::thread::sleep(deadline);
            eprintln!(
                "watchdog: {} (seed {}, seconds {}, trace {}, scale {}) still running after {:.0} s; \
                 the remaining operations count as failed",
                args.workload,
                args.seed,
                args.seconds,
                args.trace as u8,
                args.scale,
                deadline.as_secs_f64()
            );
            println!(
                "{}",
                json::result_line(false, 1, 1, &measure::Metrics::default())
            );
            std::process::exit(3);
        })
        .expect("spawning the watchdog");
}

fn run_one(cli: &Cli, workload: String) -> i32 {
    if !spec::WORKLOADS.contains(&workload.as_str()) {
        eprintln!(
            "unknown workload {workload:?}; known: {:?}",
            spec::WORKLOADS
        );
        return 2;
    }
    let args = Args {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        scale: cli.scale,
        out_dir: cli.out_dir.clone(),
    };
    arm_watchdog(&args, deadline_for(cli));
    // Before any other thread exists, so that every one inherits the mask;
    // `nproc` in the report is read first, while both cores still count.
    let facts = suite::host_facts(&args);
    let placement = match affinity::confine_to_one_core() {
        Some(core) => format!("all threads on core {core}"),
        None => "floating (could not pin)".into(),
    };
    println!("# {facts} placement=\"{placement}\"");
    let result = workloads::run(&args);
    for note in &result.notes {
        println!("# {note}");
    }
    for error in &result.errors {
        println!("# INCORRECT: {error}");
        eprintln!("incorrect: {error}");
    }
    for metric in &result.metrics.0 {
        println!("{:<34} {:>18.6} {}", metric.name, metric.value, metric.unit);
    }
    let correct = result.errors.is_empty() && result.failed == 0;
    println!(
        "{}",
        json::result_line(
            correct,
            result.attempted.max(1),
            result.failed,
            &result.metrics
        )
    );
    if correct {
        0
    } else {
        1
    }
}

fn main() {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    };
    let code = match cli.workload.clone() {
        Some(workload) => run_one(&cli, workload),
        None => suite::run(
            cli.seed,
            cli.seconds,
            cli.scale,
            &cli.out_dir,
            cli.selfcheck,
        ),
    };
    std::process::exit(code);
}
