//! The reproduction scoreboard behind the `paper` binary.
//!
//! Every claim of the paper's evaluation that this repository reproduces is
//! one [`Row`]: the artefact it belongs to, the paper's value, ours (as a
//! [`Spread`] over repeated runs where timing is involved), the relation
//! between them and whether that relation is enforced ([`Gate`]).  The
//! `paper` binary measures the rows and [`render`]s them as the markdown of
//! `REPRODUCTION.md`.
//!
//! The synthetic workloads are scaled-down versions of the paper's (seconds
//! become milliseconds); the `MVEE_BENCH_SCALE` environment variable
//! overrides the default scale for longer, more stable runs.  It is the
//! only knob.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Default scale factor applied to the paper's native run times.
///
/// `3e-6` turns an 80-second benchmark into a ~0.25 ms synthetic run; small
/// enough that the full Figure 5 sweep (27 benchmarks × 3 agents × 3 variant
/// counts × 5 runs) finishes in a minute, large enough that each run still
/// executes hundreds to thousands of sync ops.
pub const DEFAULT_SCALE: f64 = 3e-6;

/// Returns the workload scale, honouring `MVEE_BENCH_SCALE`.
pub fn workload_scale() -> f64 {
    std::env::var("MVEE_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SCALE)
}

/// Median, minimum and maximum of `n` samples of one cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median (the mean of the two middle samples for even `n`).
    pub median: f64,
    /// The smallest sample.
    pub min: f64,
    /// The largest sample.
    pub max: f64,
    /// How many samples.
    pub n: usize,
}

impl Spread {
    /// The spread of `samples`.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice: a cell is measured at least once.
    pub fn of(samples: &[f64]) -> Spread {
        assert!(!samples.is_empty(), "a spread needs a sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        Spread {
            median: (sorted[(n - 1) / 2] + sorted[n / 2]) / 2.0,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    /// Whether the slowest sample is within `factor` × the fastest.
    pub fn tail_within(&self, factor: f64) -> bool {
        self.max <= factor * self.min
    }
}

impl fmt::Display for Spread {
    /// `median [min, max] ×n`, each with the caller's precision (default 2).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = f.precision().unwrap_or(2);
        write!(
            f,
            "{:.p$} [{:.p$}, {:.p$}] ×{}",
            self.median, self.min, self.max, self.n
        )
    }
}

/// Geometric mean of a slice of ratios (the aggregation Table 1 uses).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Whether a row's relation is enforced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The `paper` binary exits non-zero when the relation fails.
    Gated,
    /// Reported only; names the metric that would have to move to close
    /// the gap.
    Gap(&'static str),
}

/// One checked claim.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The artefact of the paper the claim belongs to (`Table 1`, `§5.5`).
    pub artefact: &'static str,
    /// What is claimed.
    pub claim: String,
    /// The paper's value.
    pub paper: String,
    /// Ours.
    pub ours: String,
    /// The relation that must hold between them.
    pub relation: String,
    /// Whether it held in this run.
    pub met: bool,
    /// Whether it is enforced.
    pub gate: Gate,
}

impl Row {
    /// Whether this row fails the run: a gated relation that did not hold.
    pub fn fails(&self) -> bool {
        self.gate == Gate::Gated && !self.met
    }

    /// `holds`, `FAILS`, or `gap` with whether it was met in this run and
    /// the metric that would close it.
    pub fn status(&self) -> String {
        let run = if self.met { "met" } else { "unmet" };
        match self.gate {
            Gate::Gated if self.met => "holds".into(),
            Gate::Gated => "**FAILS**".into(),
            Gate::Gap(metric) => format!("gap, {run}; closes with {metric}"),
        }
    }
}

/// The rows of one artefact, in order.
#[derive(Debug)]
pub struct Sheet {
    artefact: &'static str,
    /// The rows added so far.
    pub rows: Vec<Row>,
}

impl Sheet {
    /// An empty sheet for `artefact`.
    pub fn new(artefact: &'static str) -> Sheet {
        let rows = Vec::new();
        Sheet { artefact, rows }
    }

    /// Adds a row whose `relation` was `met` (or not) in this run.
    pub fn add(
        &mut self,
        claim: impl Into<String>,
        paper: impl Into<String>,
        ours: impl Into<String>,
        relation: impl Into<String>,
        met: bool,
        gate: Gate,
    ) {
        self.rows.push(Row {
            artefact: self.artefact,
            claim: claim.into(),
            paper: paper.into(),
            ours: ours.into(),
            relation: relation.into(),
            met,
            gate,
        });
    }
}

/// Renders `rows` as markdown under `preamble`: a summary line, then one
/// table per run of rows of one artefact, in order.
pub fn render(preamble: &str, rows: &[Row]) -> String {
    let count = |keep: fn(&Row) -> bool| rows.iter().filter(|r| keep(r)).count();
    let (gated, failing) = (count(|r| r.gate == Gate::Gated), count(Row::fails));
    let (gaps, met) = (
        rows.len() - gated,
        count(|r| r.gate != Gate::Gated && r.met),
    );
    let total = rows.len();
    let mut out = format!("{preamble}\n**{total} rows:** {gated} gated ({failing} failing), ");
    out += &format!("{gaps} gaps ({met} met this run).\n");
    // An artefact's rows are contiguous: each subcommand adds its own.
    let mut artefacts: Vec<&str> = rows.iter().map(|r| r.artefact).collect();
    artefacts.dedup();
    for artefact in artefacts {
        out += &format!(
            "\n## {artefact}\n\n| claim | paper | ours | relation | status |\n|---|---|---|---|---|\n"
        );
        for r in rows.iter().filter(|r| r.artefact == artefact) {
            let (claim, paper, ours, relation) = (&r.claim, &r.paper, &r.ours, &r.relation);
            out += &format!(
                "| {claim} | {paper} | {ours} | {relation} | {} |\n",
                r.status()
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_of_constant_is_constant() {
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-9);
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn spread_takes_median_min_and_max() {
        let s = Spread::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        assert_eq!(Spread::of(&[4.0, 1.0, 2.0, 3.0]).median, 2.5);
        assert_eq!(format!("{:.1}", s), "3.0 [1.0, 5.0] ×3");
        assert!(s.tail_within(5.0));
        assert!(!s.tail_within(4.9));
    }

    #[test]
    fn only_a_failed_gated_row_fails() {
        let row = |met, gate| {
            let mut sheet = Sheet::new("Table 3");
            sheet.add("c", "1", "1", "=", met, gate);
            sheet.rows.remove(0)
        };
        assert!(row(false, Gate::Gated).fails());
        assert!(!row(true, Gate::Gated).fails());
        assert!(!row(false, Gate::Gap("m")).fails());
        let rows = [row(true, Gate::Gated), row(false, Gate::Gap("m"))];
        let md = render("# t\n", &rows);
        assert!(md.contains("**2 rows:** 1 gated (0 failing), 1 gaps (0 met this run)"));
        assert!(md.contains("## Table 3"));
        assert!(md.contains("| c | 1 | 1 | = | holds |"));
        assert!(md.contains("gap, unmet; closes with m"));
    }

    #[test]
    fn default_scale_is_used_without_env_override() {
        assert!(workload_scale() > 0.0);
    }
}
