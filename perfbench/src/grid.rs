//! `fig8-grid`: the paper's Figure-8 campaign — every registry attack ×
//! every singleton defense stack × the five Figure-8 hardening slices —
//! run at 2 threads, saved, and reloaded.

use crate::gen::{self, AxisOrder};
use crate::measure::{
    check, digest, metric, rounds, secs, setup, show, step, timed, Layers, Metric, Outcome, Result,
    Samples, WorkDir, BATCH_TAIL,
};
use specgraph::attacks::{self, Attack, AttackOutcome, BatchRunner};
use specgraph::campaign::{config_digest, CampaignMatrix, CampaignSpec, Hardening, Knob};
use specgraph::defenses::{self, PatchSession, Verdict};
use specgraph::uarch::UarchConfig;
use std::time::Instant;

/// Worker threads of every timed run (`nproc` is 2 on the reference box).
pub const THREADS: usize = 2;

/// The Figure-8 spec with its attack and defense axes in `order`.
pub fn spec_in(order: &AxisOrder, threads: usize) -> CampaignSpec {
    let registry = attacks::registry();
    let catalog = defenses::registry();
    CampaignSpec::builder(UarchConfig::default())
        .attacks(order.attacks.iter().map(|&i| registry[i]))
        .defenses(order.defenses.iter().map(|&i| catalog[i]))
        .axis(Knob::Hardening, Hardening::figure8())
        .threads(threads)
        .build()
}

/// The Figure-8 spec in the seeded axis order.
pub fn spec(seed: u64, threads: usize) -> CampaignSpec {
    let order = gen::axis_order(seed, attacks::registry().len(), defenses::registry().len());
    spec_in(&order, threads)
}

/// The Figure-8 spec in registry order — what `campaign run --axis
/// hardening=figure8` evaluates.
pub fn canonical_spec(threads: usize) -> CampaignSpec {
    let order = AxisOrder {
        attacks: (0..attacks::registry().len()).collect(),
        defenses: (0..defenses::registry().len()).collect(),
    };
    spec_in(&order, threads)
}

/// Timed rounds below this count make the medians meaningless.
const MIN_ROUNDS: usize = 5;

pub fn run(seed: u64, seconds: u64) -> Result<Outcome> {
    let work = WorkDir::new("fig8-grid")?;
    let (spec, setup_s) = setup(|| {
        let spec = spec(seed, THREADS);
        // Warm-up: registries, attack graphs and page faults land here.
        step("warm-up grid run", CampaignMatrix::run(&spec))?;
        Ok(spec)
    })?;
    let tasks = spec.total_tasks() as f64;

    let mut rate = Samples::default();
    let mut latency = Samples::default();
    let mut out = Outcome::default();
    let mut artifact: Option<u64> = None;
    let mut refusal: Option<String> = None;
    let n = rounds(seconds, MIN_ROUNDS, |k| {
        // A new file per round: replacing one would put the file system's
        // deferred deletion work inside the timed region.
        let path = work.path().join(format!("matrix-{k}.json"));
        let t = Instant::now();
        let matrix = step("grid run", CampaignMatrix::run(&spec))?;
        let run_s = secs(t);
        let saved = matrix.save_json(&path);
        let reloaded = CampaignMatrix::load_json(&path);
        let request_s = secs(t);
        rate.push(tasks / run_s);
        latency.push(request_s * 1e6);

        // Everything below is outside the timed request.
        out.attempted += 3;
        if let Err(e) = saved {
            out.failed += 2;
            refusal.get_or_insert(format!("save refused: {e}"));
            return Ok(());
        }
        let bytes = step("read saved matrix", std::fs::read(&path))?;
        let d = digest(&bytes);
        check!(
            *artifact.get_or_insert(d) == d,
            "grid bytes differ between two runs of one spec"
        );
        match reloaded {
            Ok(m) => check!(
                m.to_json().as_bytes() == bytes.as_slice(),
                "reloaded matrix does not re-emit the saved bytes"
            ),
            Err(e) => {
                out.failed += 1;
                refusal.get_or_insert(format!("reload refused: {e}"));
            }
        }
        Ok(())
    })?;

    // Correctness: 1 thread and 2 threads emit the same bytes, and the
    // library path timed here is the `campaign run` CLI path.
    let mut one = spec.clone();
    one.threads = 1;
    let m1 = step("1-thread grid run", CampaignMatrix::run(&one))?;
    check!(
        Some(digest(m1.to_json().as_bytes())) == artifact,
        "grid bytes differ between 1 and {THREADS} threads"
    );
    let cli_out = work.path().join("cli-matrix.json");
    let args: Vec<String> = ["run", "--axis", "hardening=figure8", "--threads"]
        .map(String::from)
        .into_iter()
        .chain([
            THREADS.to_string(),
            "--out".into(),
            cli_out.display().to_string(),
        ])
        .collect();
    step("campaign run (CLI)", bench::campaign_cli::main_with(&args))?;
    let cli_bytes = step("read CLI matrix", std::fs::read(&cli_out))?;
    let lib = step(
        "registry-order grid run",
        CampaignMatrix::run(&canonical_spec(THREADS)),
    )?;
    check!(
        lib.to_json().as_bytes() == cli_bytes.as_slice(),
        "`campaign run` CLI bytes differ from the library run"
    );

    println!("fig8-grid: {n} timed rounds of {tasks} tasks at {THREADS} threads");
    show(
        "grid_tasks_per_s",
        rate.median(),
        "1/s",
        &format!("median, n={n}"),
    );
    show(
        "request_p50_us",
        latency.median(),
        "us",
        &format!("run + save + reload, n={n}"),
    );
    show(
        "request_p75_us",
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

/// One simulation through the pooled machine, timed as `attacks.run`.
fn simulate(
    runner: &mut BatchRunner,
    layers: &mut Layers,
    attack: &dyn Attack,
    cfg: &UarchConfig,
) -> Result<(AttackOutcome, f64)> {
    let (out, s) = timed(|| runner.run(attack, cfg));
    layers.record("attacks.run", s);
    Ok((step("simulation", out)?, s))
}

/// One traced pass over the grid: the campaign engine's recipe replayed
/// call by call through the public API at 1 thread, checked against the
/// untraced engine's matrix, plus the 1- and 2-thread walls and the
/// JSON layer.
pub fn profile(seed: u64) -> Result<Vec<Metric>> {
    let mut one = spec(seed, THREADS);
    one.threads = 1;
    let two = spec(seed, THREADS);
    // Warm-up, so neither wall below pays the process's first-run costs.
    step("warm-up grid run", CampaignMatrix::run(&two))?;
    let (matrix, grid_1t_s) = timed(|| CampaignMatrix::run(&one));
    let matrix = step("1-thread grid run", matrix)?;
    let (json, emit_untraced_s) = timed(|| matrix.to_json());
    let (m2, grid_2t_s) = timed(|| CampaignMatrix::run(&two));
    check!(
        step("2-thread grid run", m2)?.to_json() == json,
        "grid bytes differ between 1 and 2 threads"
    );

    let mut layers = Layers::default();
    let spec = &one;
    let (a, d, c) = (spec.attacks.len(), spec.defenses.len(), spec.configs.len());
    let replay_start = Instant::now();
    let mut pairs = Vec::with_capacity(a * d);
    let mut races = Vec::with_capacity(a);
    for attack in &spec.attacks {
        let mut session = layers.time("defenses.session_build", || PatchSession::new(*attack));
        races.push(layers.time("defenses.graph_verdict", || session.graph_race()));
        for stack in &spec.defenses {
            let v = layers.time("defenses.graph_verdict", || session.graph_sufficient(stack));
            pairs.push(step("graph verdict", v)?);
        }
    }
    let mut runner = BatchRunner::new();
    let mut slice_cycles = vec![0u64; c];
    let mut slice_busy = vec![0f64; c];
    for (ai, attack) in spec.attacks.iter().enumerate() {
        for (ci, nc) in spec.configs.iter().enumerate() {
            let (o, s) = simulate(&mut runner, &mut layers, *attack, &nc.config)?;
            slice_cycles[ci] += o.cycles;
            slice_busy[ci] += s;
            let b = &matrix.baselines()[ai * c + ci];
            check!(
                (o.leaked, o.cycles, races[ai]) == (b.leaked, b.cycles, b.graph_race),
                "traced baseline {ai}/{ci} differs from the campaign's row"
            );
        }
    }
    let mut graph_only = 0usize;
    for (ai, attack) in spec.attacks.iter().enumerate() {
        for (di, stack) in spec.defenses.iter().enumerate() {
            for (ci, nc) in spec.configs.iter().enumerate() {
                let applied = layers.time("defenses.stack_apply", || stack.apply(&nc.config));
                let mechanism = match applied {
                    None => {
                        graph_only += 1;
                        Verdict::GraphOnly
                    }
                    Some(cfg) => {
                        let (o, s) = simulate(&mut runner, &mut layers, *attack, &cfg)?;
                        slice_cycles[ci] += o.cycles;
                        slice_busy[ci] += s;
                        if o.leaked {
                            Verdict::Leaked
                        } else {
                            Verdict::Blocked
                        }
                    }
                };
                let cell = &matrix.cells()[(ai * d + di) * c + ci];
                check!(
                    (mechanism, pairs[ai * d + di])
                        == (
                            cell.evaluation.mechanism,
                            cell.evaluation.strategy_sufficient
                        ),
                    "traced cell {ai}/{di}/{ci} differs from the campaign's row"
                );
            }
        }
    }
    let emitted = layers.time("jsonio.emit", || matrix.to_json());
    let replay_s = secs(replay_start);
    check!(emitted == json, "matrix emit is not deterministic");
    let parsed = layers.time("jsonio.parse", || specgraph::jsonio::parse(&json));
    step("parse matrix JSON", parsed)?;
    for nc in &spec.configs {
        for _ in 0..200 {
            layers.time("campaign.config_digest", || config_digest(&nc.config));
        }
    }

    // The untraced side runs again after the replay, so machine drift
    // during the pass shifts both sides alike.
    let (again, rerun_s) = timed(|| CampaignMatrix::run(&one));
    let again = step("1-thread grid run", again)?;
    let (json_again, reemit_s) = timed(|| again.to_json());
    check!(
        json_again == json,
        "grid bytes differ between two 1-thread runs"
    );
    let grid_1t_s = (grid_1t_s + rerun_s) / 2.0;
    let untraced_s = grid_1t_s + (emit_untraced_s + reemit_s) / 2.0;
    let run_busy = layers.busy("attacks.run");
    let graph_busy = layers.busy("defenses.session_build") + layers.busy("defenses.graph_verdict");
    let apply_busy = layers.busy("defenses.stack_apply");
    let emit_s = layers.busy("jsonio.emit");
    let unexplained = untraced_s - (run_busy + graph_busy + apply_busy + emit_s);
    println!(
        "attribution fig8-grid: 1-thread wall {untraced_s:.4} s = attacks.run {run_busy:.4} \
         + graph verdicts {graph_busy:.4} + stack apply {apply_busy:.4} + jsonio.emit \
         {emit_s:.4} + unexplained {unexplained:.4} s ({:.2}%)",
        100.0 * unexplained / untraced_s
    );

    let cycles: u64 = slice_cycles.iter().sum();
    let parse_s = layers.busy("jsonio.parse");
    let mut m = vec![
        metric("attacks.runs", layers.calls("attacks.run") as f64, "count"),
        metric("attacks.run_busy_s", run_busy, "s"),
        metric("attacks.run_p50_us", layers.p50_us("attacks.run"), "us"),
        metric("uarch.sim_cycles", cycles as f64, "cycles"),
        metric(
            "uarch.sim_cycles_per_s",
            cycles as f64 / run_busy,
            "cycles/s",
        ),
    ];
    for (ci, h) in Hardening::figure8().iter().enumerate() {
        m.push(metric(
            format!("uarch.sim_cycles_per_s.{}", h.token()),
            slice_cycles[ci] as f64 / slice_busy[ci],
            "cycles/s",
        ));
    }
    m.extend([
        metric(
            "defenses.stack_apply_us_p50",
            layers.p50_us("defenses.stack_apply"),
            "us",
        ),
        metric(
            "defenses.graph_only_share",
            graph_only as f64 / (a * d * c) as f64,
            "ratio",
        ),
        metric(
            "defenses.session_build_us_p50",
            layers.p50_us("defenses.session_build"),
            "us",
        ),
        metric(
            "defenses.graph_verdict_us_p50",
            layers.p50_us("defenses.graph_verdict"),
            "us",
        ),
        metric("campaign.grid_1t_s", grid_1t_s, "s"),
        metric(
            "campaign.parallel_efficiency",
            grid_1t_s / (2.0 * grid_2t_s),
            "ratio",
        ),
        metric(
            "campaign.config_digest_us_p50",
            layers.p50_us("campaign.config_digest"),
            "us",
        ),
        metric(
            "campaign.unexplained_share",
            unexplained / untraced_s,
            "ratio",
        ),
        metric("jsonio.emit_ms", emit_s * 1e3, "ms"),
        metric("jsonio.parse_ms", parse_s * 1e3, "ms"),
        metric("jsonio.mb_per_s", json.len() as f64 / parse_s / 1e6, "MB/s"),
        metric(
            "trace.overhead_share.fig8-grid",
            (replay_s - untraced_s) / untraced_s,
            "ratio",
        ),
    ]);
    Ok(m)
}
