//! The attack-graph pipeline benchmark.
//!
//! ```text
//! perfbench --workload fig8-grid|fuzz-discovery|query-mix|serve-resume
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the named workload for `--seconds` and prints its
//! end-to-end metrics; `--trace 1` profiles every layer of every pipeline
//! from the seed's inputs and prints the per-layer metrics. Either way the
//! last line of standard output is one JSON object:
//! `{"correct": true, "attempted": N, "failed": F, "metrics": {…}}`. A
//! failed correctness check prints no result and exits with code 1.

mod fuzz;
mod gen;
mod grid;
mod measure;
mod query;
mod serve;

use measure::{show, Metric, Outcome, Result};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

const WORKLOADS: [&str; 4] = ["fig8-grid", "fuzz-discovery", "query-mix", "serve-resume"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => {
                return Err(format!(
                    "unknown workload '{value}' (expected one of {})",
                    WORKLOADS.join(", ")
                ))
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    print_context(&args);
    let result = if args.trace {
        trace(args.seed, args.seconds)
    } else {
        match args.workload.as_str() {
            "fig8-grid" => grid::run(args.seed, args.seconds),
            "fuzz-discovery" => fuzz::run(args.seed, args.seconds),
            "query-mix" => query::run(args.seed, args.seconds),
            _ => serve::run(args.seed, args.seconds),
        }
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: check failed: {e}");
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        let Some(rss) = measure::peak_rss_mb() else {
            eprintln!("perfbench: cannot read the peak resident set");
            return ExitCode::from(1);
        };
        outcome.add("peak_rss_mb", rss, "MB");
        show(
            "setup_s",
            value(&outcome, "setup_s"),
            "s",
            &format!("median of {} set-ups", measure::SETUP_REPS),
        );
        show("peak_rss_mb", rss, "MB", "");
        show(
            "failed_frac",
            outcome.failed_frac(),
            "ratio",
            &format!(
                "{} refused of {} attempted",
                outcome.failed, outcome.attempted
            ),
        );
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not a number", m.name);
        return ExitCode::from(1);
    }
    println!("{}", result_json(&outcome));
    ExitCode::SUCCESS
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    outcome
        .metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, |m| m.value)
}

/// Per-layer metrics that count work and must repeat exactly from pass to
/// pass (and from run to run of one seed).
const EXACT: [&str; 8] = [
    "attacks.runs",
    "uarch.sim_cycles",
    "defenses.graph_only_share",
    "fuzz.shrink_calls",
    "fuzz.shrink_evaluations",
    "serve.chunks",
    "serve.simulations",
    "fault.writes",
];

/// Traced run: profiles every pipeline, repeating whole passes until
/// `seconds` have passed (at least two, so exact counts are compared),
/// and reports each per-layer metric as its median over the passes.
fn trace(seed: u64, seconds: u64) -> Result<Outcome> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let mut passes: Vec<Vec<Metric>> = Vec::new();
    while passes.len() < 2 || Instant::now() < deadline {
        let mut pass = grid::profile(seed)?;
        pass.extend(fuzz::profile(seed)?);
        pass.extend(query::profile(seed)?);
        pass.extend(serve::profile(seed)?);
        passes.push(pass);
    }
    let mut by_name: BTreeMap<&str, (Vec<f64>, &'static str)> = BTreeMap::new();
    for m in passes.iter().flatten() {
        by_name
            .entry(m.name.as_str())
            .or_insert_with(|| (Vec::new(), m.unit))
            .0
            .push(m.value);
    }
    let mut out = Outcome {
        attempted: passes.len() as u64,
        ..Outcome::default()
    };
    println!(
        "per-layer metrics, median of {} traced passes:",
        passes.len()
    );
    for (name, (values, unit)) in by_name {
        if EXACT.contains(&name) {
            measure::check!(
                values.iter().all(|&v| v == values[0]),
                "{name} differs between traced passes: {values:?}"
            );
        }
        let s: measure::Samples = values.into_iter().collect();
        show(name, s.median(), unit, "");
        out.add(name, s.median(), unit);
    }
    Ok(out)
}

fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                // Names and units are plain ASCII, so `{:?}` quotes them
                // as JSON strings.
                "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// Prints the run's context: what was measured, on what, from which
/// source.
fn print_context(args: &Args) {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "context: workload={} seed={} seconds={} trace={} git_rev={} source_digest={:016x} \
         nproc={nproc} profile={profile} rustc=\"{}\"",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev().unwrap_or_else(|| "none".into()),
        source_digest(),
        env!("PERFBENCH_RUSTC"),
    );
}

/// The checked-out commit, when the working directory is a git checkout.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|r| r.trim().to_owned()))
}

/// A digest of the measured program's sources (`crates/` and the root
/// manifests), which identifies the code even where git does not.
fn source_digest() -> u64 {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else {
                files.push(p);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(&f).unwrap_or_default());
    }
    measure::digest(&bytes)
}
