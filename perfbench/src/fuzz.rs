//! `fuzz-discovery`: the §V-A discovery loop — `fuzz::fuzz` at budget 512
//! with minimisation on, 2 threads and a fresh corpus per round.

use crate::gen;
use crate::grid::THREADS;
use crate::measure::{
    check, digest, metric, rounds, secs, setup, show, step, timed, Layers, Metric, Outcome, Result,
    Samples, WorkDir, BATCH_TAIL,
};
use specgraph::analyzer;
use specgraph::attacks;
use specgraph::defenses::PatchSession;
use specgraph::discovery::fuzz::{
    self, Agreement, Combo, Corpus, DualOracle, FuzzConfig, FuzzError, FuzzReport, Scenario,
};
use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

pub const BUDGET: u64 = 512;

/// The seed whose outcome the discovery tests pin: 5 rediscovered §V-A
/// attacks and 11 novel findings.
const PINNED_SEED: u64 = 42;

fn config(seed: u64, budget: u64, threads: usize) -> FuzzConfig {
    FuzzConfig {
        seed,
        budget,
        minimize: true,
        threads,
        checkpoint_every: 0,
    }
}

/// One `fuzz` call on a fresh corpus in `dir`.
fn fuzz_fresh(cfg: &FuzzConfig, dir: &Path) -> std::result::Result<FuzzReport, FuzzError> {
    let _ = std::fs::remove_dir_all(dir);
    fuzz::fuzz(cfg, Some(dir))
}

/// Checks one report: every candidate classified, no unexplained
/// divergence.
fn check_report(report: &FuzzReport, budget: u64) -> Result<()> {
    let c = &report.corpus;
    check!(
        c.classified == budget && report.newly_classified == budget,
        "fuzz seed {} classified {} of {budget} candidates",
        c.seed,
        c.classified
    );
    check!(
        c.unexplained().is_empty(),
        "fuzz seed {} has {} unexplained divergences",
        c.seed,
        c.unexplained().len()
    );
    Ok(())
}

const MIN_ROUNDS: usize = 5;

pub fn run(seed: u64, seconds: u64) -> Result<Outcome> {
    let work = WorkDir::new("fuzz-discovery")?;
    let dir = work.path().join("corpus");
    let ((), setup_s) = setup(|| {
        // Warm-up on the pinned seed, checked against what the discovery
        // tests pin: the same work whatever the run's seed.
        let pinned = step(
            "pinned-seed fuzz",
            fuzz_fresh(&config(PINNED_SEED, BUDGET, THREADS), &dir),
        )?;
        check_report(&pinned, BUDGET)?;
        let c = &pinned.corpus;
        check!(
            (c.rediscovered.len(), c.findings.len()) == (5, 11),
            "fuzz seed {PINNED_SEED}: {} rediscovered and {} novel, expected 5 and 11",
            c.rediscovered.len(),
            c.findings.len()
        );
        Ok(())
    })?;

    let mut rate = Samples::default();
    let mut latency = Samples::default();
    let mut out = Outcome::default();
    let mut first: Vec<(u64, u64)> = Vec::new();
    let mut refusal: Option<String> = None;
    let n = rounds(seconds, MIN_ROUNDS, |k| {
        let fuzz_seed = gen::fuzz_seed(seed, k as u64);
        let cfg = config(fuzz_seed, BUDGET, THREADS);
        let dir = work.path().join(format!("corpus-{k}"));
        let t = Instant::now();
        let result = fuzz::fuzz(&cfg, Some(&dir));
        let call_s = secs(t);
        out.attempted += 2;
        let report = match result {
            Ok(r) => r,
            Err(FuzzError::Corpus(e)) => {
                out.failed += 2;
                refusal.get_or_insert(format!("corpus save refused: {e}"));
                return Ok(());
            }
            Err(e) => return Err(format!("fuzz seed {fuzz_seed}: {e}")),
        };
        rate.push(BUDGET as f64 / call_s);
        latency.push(call_s * 1e6);
        check_report(&report, BUDGET)?;
        let bytes = report.corpus.to_json();
        match Corpus::load(&dir) {
            Ok(Some(c)) => check!(
                c.to_json() == bytes,
                "reloaded corpus differs from the saved one"
            ),
            Ok(None) => return Err("fuzz saved no corpus".into()),
            Err(e) => {
                out.failed += 1;
                refusal.get_or_insert(format!("corpus reload refused: {e}"));
            }
        }
        if first.len() < 2 {
            first.push((fuzz_seed, digest(bytes.as_bytes())));
        }
        Ok(())
    })?;

    // Correctness: the corpus does not depend on the thread count.
    for &(fuzz_seed, d) in &first {
        let report = step(
            "1-thread fuzz",
            fuzz_fresh(&config(fuzz_seed, BUDGET, 1), &dir),
        )?;
        check!(
            digest(report.corpus.to_json().as_bytes()) == d,
            "fuzz seed {fuzz_seed}: corpus differs between 1 and {THREADS} threads"
        );
    }

    println!(
        "fuzz-discovery: {n} timed rounds of budget {BUDGET}, cycling through fuzz seeds {:?}",
        gen::FUZZ_POOL
    );
    show(
        "fuzz_candidates_per_s",
        rate.median(),
        "1/s",
        &format!("median, n={n}"),
    );
    show(
        "fuzz_call_p50_us",
        latency.median(),
        "us",
        &format!("n={n}"),
    );
    show(
        "fuzz_call_p75_us",
        latency.percentile(BATCH_TAIL),
        "us",
        &format!("n={n}"),
    );
    if let Some(r) = &refusal {
        println!("  refused: {r}");
    }
    out.add("throughput_per_s", rate.median(), "1/s");
    out.add("latency_p50_us", latency.median(), "us");
    out.add("latency_tail_us", latency.percentile(BATCH_TAIL), "us");
    out.add("setup_s", setup_s, "s");
    Ok(out)
}

/// Lift, fingerprint, and Theorem 1 — the graph side of one candidate.
fn lifted_fingerprint(s: &Scenario) -> Result<u64> {
    Ok(step("lift", analyzer::lift(&s.program, &s.lift_config()))?
        .graph()
        .shape_fingerprint())
}

/// One traced pass over the discovery loop: the untraced 1-thread `fuzz`
/// wall, then the loop replayed call by call through the public API —
/// catalog, generation, classification, shrinking and the corpus save —
/// and checked against the untraced corpus. A second pass over the same
/// candidates times the graph layers a classification is made of.
pub fn profile(seed: u64) -> Result<Vec<Metric>> {
    let fuzz_seed = gen::fuzz_seed(seed, 0);
    let work = WorkDir::new("fuzz-profile")?;
    let dir = work.path().join("corpus");
    let (report, wall_s) = timed(|| fuzz_fresh(&config(fuzz_seed, BUDGET, 1), &dir));
    let report = step("1-thread fuzz", report)?;
    check_report(&report, BUDGET)?;
    let corpus = &report.corpus;

    let mut layers = Layers::default();
    let replay_start = Instant::now();
    let mut oracle = DualOracle::new();
    let mut known: HashSet<u64> = attacks::registry()
        .iter()
        .map(|a| a.graph().graph().shape_fingerprint())
        .collect();
    let mut rediscovery: HashMap<u64, &'static str> = HashMap::new();
    for combo in Combo::all() {
        let Some(name) = combo.known_name() else {
            continue;
        };
        let template = layers.time("fuzz.gen", || Scenario::template(combo));
        let v = layers.time("fuzz.classify", || oracle.classify(&template));
        let v = step("classify template", v)?;
        known.insert(v.raw_fingerprint);
        rediscovery.insert(v.raw_fingerprint, name);
        let t = Instant::now();
        let (min, _) = fuzz::minimize(&mut oracle, &template);
        known.insert(lifted_fingerprint(&min)?);
        layers.record("fuzz.catalog_shrink", secs(t));
    }

    let mut worker = DualOracle::new();
    let mut classified = Vec::with_capacity(BUDGET as usize);
    for i in 0..BUDGET {
        let s = layers.time("fuzz.gen", || Scenario::generate(fuzz_seed, i));
        let v = layers.time("fuzz.classify", || worker.classify(&s));
        classified.push((i, s, step("classify candidate", v)?));
    }
    let (mut agree_leak, mut agree_safe, mut divergences) = (0u64, 0u64, 0usize);
    let mut seen = HashSet::new();
    let mut found = HashSet::new();
    let mut findings: Vec<(u64, u64)> = Vec::new();
    let mut rediscovered: Vec<(&str, u64)> = Vec::new();
    let mut evaluations = 0usize;
    for (index, s, v) in &classified {
        match v.agreement(s) {
            Agreement::AgreeLeak => agree_leak += 1,
            Agreement::AgreeSafe => agree_safe += 1,
            _ => divergences += 1,
        }
        let fresh = seen.insert(v.raw_fingerprint);
        if !(v.graph_leak && v.sim_leak) {
            continue;
        }
        if let Some(&name) = rediscovery.get(&v.raw_fingerprint) {
            if !rediscovered.iter().any(|(n, _)| *n == name) {
                rediscovered.push((name, *index));
            }
            continue;
        }
        if !fresh || known.contains(&v.raw_fingerprint) {
            continue;
        }
        let t = Instant::now();
        let (min, stats) = fuzz::minimize(&mut oracle, s);
        let fp = lifted_fingerprint(&min)?;
        layers.record("fuzz.shrink", secs(t));
        evaluations += stats.evaluations;
        if known.contains(&fp) || !found.insert(fp) {
            continue;
        }
        findings.push((*index, fp));
    }
    let save_dir = work.path().join("saved");
    let saved = layers.time("fuzz.corpus_save", || corpus.save(&save_dir));
    step("corpus save", saved)?;
    let replay_s = secs(replay_start);
    // The untraced side runs again after the replay, so machine drift
    // during the pass shifts both sides alike.
    let (again, rerun_s) = timed(|| fuzz_fresh(&config(fuzz_seed, BUDGET, 1), &dir));
    check!(
        step("1-thread fuzz", again)?.corpus == *corpus,
        "fuzz seed {fuzz_seed}: two 1-thread runs differ"
    );
    let wall_s = (wall_s + rerun_s) / 2.0;

    check!(
        (agree_leak, agree_safe, divergences)
            == (
                corpus.agree_leak,
                corpus.agree_safe,
                corpus.divergences.len()
            ),
        "traced fuzz loop classifies differently from `fuzz`"
    );
    check!(
        rediscovered
            == corpus
                .rediscovered
                .iter()
                .map(|r| (r.name.as_str(), r.index))
                .collect::<Vec<_>>(),
        "traced fuzz loop rediscovers differently from `fuzz`"
    );
    check!(
        findings
            == corpus
                .findings
                .iter()
                .map(|f| (f.index, f.minimized_fingerprint))
                .collect::<Vec<_>>(),
        "traced fuzz loop finds differently from `fuzz`"
    );

    // The graph side of a classification, layer by layer.
    for (_, s, _) in &classified {
        let a = layers.time("analyzer.lift", || {
            analyzer::lift(&s.program, &s.lift_config())
        });
        let a = step("lift", a)?;
        layers.time("tsg.fingerprint", || a.graph().shape_fingerprint());
        layers.time("tsg.race", || PatchSession::from_analysis(a).graph_race());
    }

    let gen_s = layers.busy("fuzz.gen");
    let classify_s = layers.busy("fuzz.classify");
    let shrink_s = layers.busy("fuzz.shrink") + layers.busy("fuzz.catalog_shrink");
    let save_s = layers.busy("fuzz.corpus_save");
    let unexplained = wall_s - (gen_s + classify_s + shrink_s + save_s);
    println!(
        "attribution fuzz-discovery: 1-thread wall {wall_s:.4} s = gen {gen_s:.4} + classify \
         {classify_s:.4} + shrink {shrink_s:.4} (catalog {:.4}) + save {save_s:.4} + \
         unexplained {unexplained:.4} s ({:.2}%)",
        layers.busy("fuzz.catalog_shrink"),
        100.0 * unexplained / wall_s
    );
    let calls = layers.calls("fuzz.shrink");
    Ok(vec![
        metric("fuzz.gen_us_p50", layers.p50_us("fuzz.gen"), "us"),
        metric("fuzz.classify_us_p50", layers.p50_us("fuzz.classify"), "us"),
        metric("fuzz.classify_busy_s", classify_s, "s"),
        metric("fuzz.shrink_calls", calls as f64, "count"),
        metric("fuzz.shrink_evaluations", evaluations as f64, "count"),
        metric("fuzz.shrink_busy_s", layers.busy("fuzz.shrink"), "s"),
        metric(
            "fuzz.shrink_yield",
            findings.len() as f64 / calls.max(1) as f64,
            "ratio",
        ),
        metric("fuzz.corpus_save_ms", save_s * 1e3, "ms"),
        metric("fuzz.unexplained_share", unexplained / wall_s, "ratio"),
        metric("analyzer.lift_us_p50", layers.p50_us("analyzer.lift"), "us"),
        metric(
            "tsg.fingerprint_us_p50",
            layers.p50_us("tsg.fingerprint"),
            "us",
        ),
        metric("tsg.race_us_p50", layers.p50_us("tsg.race"), "us"),
        metric(
            "trace.overhead_share.fuzz-discovery",
            (replay_s - wall_s) / wall_s,
            "ratio",
        ),
    ])
}
