//! Measurement plumbing shared by the workloads: sample sets, the layer
//! recorder of traced runs, the result a workload hands back, and the
//! scratch directory inside the checkout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A benchmark failure: a correctness check that did not hold, or a
/// program error the workload cannot count and go on from.
pub type Fail = String;
pub type Result<T> = std::result::Result<T, Fail>;

/// Returns `Err` with the formatted message unless `cond` holds.
macro_rules! check {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}
pub(crate) use check;

/// Converts a program error into a benchmark failure, naming the step.
pub fn step<T, E: std::fmt::Display>(what: &str, r: std::result::Result<T, E>) -> Result<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

/// Measured values of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The `p`-th percentile (0–100), linearly interpolated between the
    /// two nearest order statistics.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(!self.0.is_empty(), "percentile of no samples");
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        let pos = p / 100.0 * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

/// Seconds since `t` as `f64`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Times `f`, returning its value and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, secs(t))
}

/// Runs `round(k)` for `k = 0, 1, …` until `seconds` have passed and at
/// least `min_rounds` rounds ran. Returns the number of rounds.
pub fn rounds(
    seconds: u64,
    min_rounds: usize,
    mut round: impl FnMut(usize) -> Result<()>,
) -> Result<usize> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut k = 0;
    while k < min_rounds || Instant::now() < deadline {
        round(k)?;
        k += 1;
    }
    Ok(k)
}

/// The tail percentile of the batch workloads. A run times 10 to 40 of
/// their requests, so the upper quartile is the highest percentile with
/// several samples beyond it; the query mix, with ~10^6, reports p99.
pub const BATCH_TAIL: f64 = 75.0;

/// How many times a workload sets up in one run; `setup_s` is the median.
pub const SETUP_REPS: usize = 7;

/// Sets up `SETUP_REPS` times and keeps the last state, returning it with
/// the median set-up time.
pub fn setup<T>(mut once: impl FnMut() -> Result<T>) -> Result<(T, f64)> {
    let mut times = Samples::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (state, s) = timed(&mut once);
        times.push(s);
        last = Some(state?);
    }
    Ok((last.expect("SETUP_REPS > 0"), times.median()))
}

/// Per-layer samples of a traced run, keyed by layer call.
#[derive(Debug, Default)]
pub struct Layers {
    times: BTreeMap<&'static str, Samples>,
}

impl Layers {
    /// Times one call into a layer.
    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let (v, s) = timed(f);
        self.record(layer, s);
        v
    }

    pub fn record(&mut self, layer: &'static str, seconds: f64) {
        self.times.entry(layer).or_default().push(seconds);
    }

    pub fn samples(&self, layer: &str) -> Samples {
        self.times.get(layer).cloned().unwrap_or_default()
    }

    /// Total seconds spent in `layer`.
    pub fn busy(&self, layer: &str) -> f64 {
        self.times.get(layer).map_or(0.0, Samples::sum)
    }

    pub fn calls(&self, layer: &str) -> usize {
        self.times.get(layer).map_or(0, Samples::len)
    }

    /// Median call of `layer` in microseconds.
    pub fn p50_us(&self, layer: &str) -> f64 {
        self.samples(layer).median() * 1e6
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Operations attempted (runs, saves, reloads, checkpoints, queries).
    pub attempted: u64,
    /// Attempted operations the program refused.
    pub failed: u64,
}

impl Outcome {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(metric(name, value, unit));
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Prints one human-readable metric line (the final JSON line carries the
/// contract's metric set; these lines carry the pipeline's own names).
pub fn show(name: &str, value: f64, unit: &str, note: &str) {
    if note.is_empty() {
        println!("  {name:<34} {value:>14.4} {unit}");
    } else {
        println!("  {name:<34} {value:>14.4} {unit}  ({note})");
    }
}

/// A scratch directory inside the checkout, removed when dropped. Rounds
/// take new subdirectories or files instead of replacing old ones.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> Result<Self> {
        let dir = step("working directory", std::env::current_dir())?
            .join(".bench_work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        step("create scratch directory", std::fs::create_dir_all(&dir))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// A fresh empty subdirectory `name`.
    pub fn fresh(&self, name: &str) -> Result<PathBuf> {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        step("create scratch directory", std::fs::create_dir_all(&dir))?;
        Ok(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Commits the deletions now, so the file system's deferred work
            // lands in this run rather than at the start of the next one.
            if let Ok(dir) = std::fs::File::open(parent) {
                let _ = dir.sync_all();
            }
            // Removes `.bench_work` itself once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// FNV-1a, for comparing artifacts without keeping copies around.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The process's peak resident set in MB (`VmHWM`), if the kernel says.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let mut s = Samples::default();
        for v in [4.0, 1.0, 3.0, 2.0, 5.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 5.0);
        assert_eq!(s.percentile(25.0), 2.0);
        assert!((s.percentile(90.0) - 4.6).abs() < 1e-12);
    }
}
