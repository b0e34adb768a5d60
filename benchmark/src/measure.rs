//! Measurement plumbing: order statistics, latency sample buffers, process
//! CPU time and peak memory, and the metric list a run reports.

use std::time::{Duration, Instant};

/// When a workload's rounds end.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// Set up, warm up, tear down: no round at all.
    SetupOnly,
    /// Rounds until this much time has passed.
    Timed(Duration),
    /// Exactly this many rounds.
    Fixed(usize),
}

impl Mode {
    /// Whether to stop, `rounds` rounds in; a timed pass makes at least
    /// `min_rounds`.
    pub fn done(self, started: Instant, rounds: usize, min_rounds: usize) -> bool {
        match self {
            Mode::SetupOnly => true,
            Mode::Timed(limit) => rounds >= min_rounds && started.elapsed() >= limit,
            Mode::Fixed(count) => rounds >= count,
        }
    }
}

/// The `q`-quantile (nearest rank) of `values`; sorts in place.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    values.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// The median, averaging the middle pair of an even-sized sample.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.total_cmp(b));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Latency samples in nanoseconds, one class tag per sample.
///
/// The buffer is allocated and written up front (a zeroed allocation would
/// stay unmapped until used), so the memory it contributes to
/// `peak_rss_mb` does not depend on how many operations a run happened to
/// complete; once it is full, further samples are counted but not stored.
#[derive(Debug)]
pub struct Samples {
    ns: Vec<u32>,
    class: Vec<u8>,
    len: usize,
    pub seen: u64,
}

impl Samples {
    pub fn with_capacity(capacity: usize) -> Self {
        Samples {
            ns: vec![u32::MAX; capacity],
            class: vec![u8::MAX; capacity],
            len: 0,
            seen: 0,
        }
    }

    #[inline]
    pub fn push(&mut self, class: u8, ns: u64) {
        self.seen += 1;
        if self.len < self.ns.len() {
            self.ns[self.len] = ns.min(u64::from(u32::MAX)) as u32;
            self.class[self.len] = class;
            self.len += 1;
        }
    }

    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.len
    }

    /// The stored samples of `class` (`None`: of every class), in ns.
    pub fn of(&self, class: Option<u8>) -> Vec<f64> {
        (0..self.len)
            .filter(|&i| class.is_none_or(|c| self.class[i] == c))
            .map(|i| f64::from(self.ns[i]))
            .collect()
    }

    /// The median and the 99th percentile of every whole chunk of `chunk`
    /// consecutive samples, then the [`good_decile`] of each over the
    /// chunks, in ns: a quantile over all samples would carry every slow
    /// spell of the host in its tail.  A run shorter than one chunk is one
    /// chunk.
    pub fn chunked_p50_p99(&self, chunk: usize) -> (f64, f64) {
        if self.len == 0 {
            return (0.0, 0.0);
        }
        let chunk = chunk.clamp(1, self.len);
        let (mut p50, mut p99): (Vec<f64>, Vec<f64>) = self.ns[..self.len]
            .chunks_exact(chunk)
            .map(|c| {
                let mut v: Vec<f64> = c.iter().map(|&ns| f64::from(ns)).collect();
                (quantile(&mut v, 0.5), quantile(&mut v, 0.99))
            })
            .unzip();
        (good_decile(&mut p50, false), good_decile(&mut p99, false))
    }

    /// Median of `class` in ns, or 0 when the class has no sample.
    pub fn median_of(&self, class: Option<u8>) -> f64 {
        let mut v = self.of(class);
        if v.is_empty() {
            0.0
        } else {
            median(&mut v)
        }
    }
}

/// Nanoseconds between two instants, as the sample buffers store them.
#[inline]
pub fn ns_between(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// The *undisturbed* value of a per-round series.
///
/// The host this benchmark is judged on has slow spells: for five to ten
/// seconds at a time, several times a minute, everything runs a tenth to a
/// third slower (120 k → 110 k → 86 k calls/s on `lockstep_sync`, in
/// steps).  A spell can cover most of a run.  Disturbance is one-sided — it
/// never makes a round faster — so, as with the minimum of repeated timings
/// of one loop, the good end of the series is the program and the rest is
/// the host.  The benchmark reports the decile on the good side: the ninth
/// decile of a higher-is-better series, the first of a lower-is-better one.
/// With a hundred rounds and more per run that is a value ten rounds matched
/// or beat, not a record.
pub fn good_decile(values: &mut [f64], higher_is_better: bool) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    quantile(values, if higher_is_better { 0.9 } else { 0.1 })
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    #[repr(C)]
    pub struct Timespec {
        pub tv_sec: i64,
        pub tv_nsec: i64,
    }

    pub const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

    extern "C" {
        /// `clock_gettime(2)`, from the C library the standard library
        /// already links.
        pub fn clock_gettime(clock: i32, time: *mut Timespec) -> i32;
    }
}

/// Process CPU time (user + system, every thread) in milliseconds: the sum
/// `/proc/self/stat` reports in 10 ms ticks, read at nanosecond resolution
/// from the process CPU-time clock so that it can be taken per round.
pub fn process_cpu_ms() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        let mut time = sys::Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `time` is a live, writable `timespec` (two 64-bit fields on
        // 64-bit Linux); the call writes it and keeps no pointer.
        let rc = unsafe { sys::clock_gettime(sys::CLOCK_PROCESS_CPUTIME_ID, &mut time) };
        if rc == 0 {
            return time.tv_sec as f64 * 1e3 + time.tv_nsec as f64 / 1e6;
        }
    }
    proc_stat_cpu_ms()
}

/// The same sum from `/proc/self/stat`, in its 10 ms ticks.
fn proc_stat_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; the numeric fields follow its ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the ')' come state (0), ppid (1) ... utime is field 11, stime 12.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => (utime + stime) * 10.0,
        _ => 0.0,
    }
}

/// Peak resident set size (`VmHWM`) in MiB, from `/proc/self/status`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `peak_rss_mb` is read once a fixed number of rounds is done, not at the
/// end of the run: a timed run does as much work as the host lets it, and
/// anything the program keeps per operation would make the peak follow the
/// run's speed.  After a fixed amount of work the reading compares across
/// runs and commits, and memory kept per operation still shows in it.
#[derive(Debug)]
pub struct FixedWorkRss {
    after_rounds: usize,
    reading: Option<f64>,
}

impl FixedWorkRss {
    pub fn after_rounds(after_rounds: usize) -> Self {
        FixedWorkRss {
            after_rounds,
            reading: None,
        }
    }

    /// Call at every round end with the number of rounds done.
    pub fn rounds_done(&mut self, rounds: usize) {
        if self.reading.is_none() && rounds >= self.after_rounds {
            self.reading = Some(peak_rss_mb());
        }
    }

    /// The reading; a run shorter than the fixed work reads at its end.
    pub fn reading(&self) -> f64 {
        self.reading.unwrap_or_else(peak_rss_mb)
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The metrics of one run, in report order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, unit: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => m.value = value,
            None => self.0.push(Metric { name, value, unit }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// What a workload hands back to `main`: the metrics plus the verdict.
#[derive(Debug, Default)]
pub struct RunResult {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures, one line each; empty means correct.
    pub errors: Vec<String>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn check_eq<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        if got != want {
            self.errors
                .push(format!("{what}: got {got:?}, expected {want:?}"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        let mut even = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
    }

    #[test]
    fn samples_stop_storing_when_full_but_keep_counting() {
        let mut s = Samples::with_capacity(2);
        s.push(0, 10);
        s.push(1, 20);
        s.push(1, 30);
        assert_eq!(s.len(), 2);
        assert_eq!(s.seen, 3);
        assert_eq!(s.of(Some(1)), vec![20.0]);
        assert_eq!(s.median_of(None), 15.0);
        assert_eq!(s.median_of(Some(7)), 0.0);
    }

    #[test]
    fn chunked_quantiles_shrug_off_a_slow_chunk() {
        let mut s = Samples::with_capacity(64);
        for chunk in 0..5 {
            for i in 0..10u64 {
                // The third chunk ran ten times slower.
                s.push(0, if chunk == 2 { 1000 + i } else { 100 + i });
            }
        }
        assert_eq!(s.chunked_p50_p99(10), (104.0, 109.0));
        // Shorter than one chunk: one chunk.
        assert_eq!(s.chunked_p50_p99(1000).1, 1009.0);
        assert_eq!(Samples::with_capacity(4).chunked_p50_p99(2), (0.0, 0.0));
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(peak_rss_mb() > 0.0);
        // Burn a little CPU: both readings of the same clock must agree to
        // within the coarser one's tick.
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let (fine, coarse) = (process_cpu_ms(), proc_stat_cpu_ms());
        assert!(fine > 0.0);
        assert!((fine - coarse).abs() <= 30.0, "{fine} vs {coarse}");
    }

    #[test]
    fn the_good_decile_sides_with_the_metric() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(good_decile(&mut v, true), 18.0);
        assert_eq!(good_decile(&mut v, false), 2.0);
        assert_eq!(good_decile(&mut [], true), 0.0);
    }
}
