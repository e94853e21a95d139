//! `query-mix`: one closed-loop client querying a `VerdictStore` that
//! holds the Figure-8 matrix. Zipf-popular grid cells are hits (reads);
//! about one query in ten asks for an off-grid ROB-depth config, which
//! simulates on its first query and is memoised after (writes).

use crate::gen::{self, Target};
use crate::grid::{canonical_spec, THREADS};
use crate::measure::{
    check, metric, rounds, secs, setup, show, step, timed, Layers, Metric, Outcome, Result, Samples,
};
use specgraph::attacks::{Attack, BatchRunner};
use specgraph::campaign::{CampaignMatrix, CampaignSpec, Hardening, Knob};
use specgraph::defenses::{self, DefenseStack, PatchSession, Verdict};
use specgraph::serve::{Answer, AnswerSource, ServeError, VerdictStore};
use specgraph::uarch::UarchConfig;
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Queries per round; each round starts from a freshly ingested store.
pub const ROUND_QUERIES: usize = 20_000;

/// The ROB depth of the off-grid configs (the grid runs the default 64).
const OFF_GRID_ROB: usize = 32;

/// The queryable cells: the grid's, in the campaign's task order (so key
/// `k` is row `k` of the matrix), and the same cells on off-grid configs.
pub struct KeySpace {
    attacks: Vec<&'static dyn Attack>,
    stacks: Vec<DefenseStack>,
    grid: Vec<UarchConfig>,
    off: Vec<UarchConfig>,
}

/// One decoded key: attack, stack (`None` = undefended baseline), config.
type Cell = (usize, Option<usize>, usize);

impl KeySpace {
    pub fn new(spec: &CampaignSpec) -> Self {
        let off = CampaignSpec::builder(UarchConfig::default())
            .axis(Knob::RobDepth, [OFF_GRID_ROB])
            .axis(Knob::Hardening, Hardening::figure8())
            .build();
        KeySpace {
            attacks: spec.attacks.clone(),
            stacks: spec.defenses.clone(),
            grid: spec.configs.iter().map(|c| c.config.clone()).collect(),
            off: off.configs.into_iter().map(|c| c.config).collect(),
        }
    }

    pub fn len(&self) -> usize {
        let (a, d, c) = (self.attacks.len(), self.stacks.len(), self.grid.len());
        a * c + a * d * c
    }

    fn decode(&self, key: usize) -> Cell {
        let (d, c) = (self.stacks.len(), self.grid.len());
        let base = self.attacks.len() * c;
        if key < base {
            (key / c, None, key % c)
        } else {
            let j = key - base;
            (j / (d * c), Some((j / c) % d), j % c)
        }
    }

    fn query(&self, store: &VerdictStore, t: Target) -> std::result::Result<Answer, ServeError> {
        let (key, configs) = match t {
            Target::Grid(k) => (k, &self.grid),
            Target::OffGrid(k) => (k, &self.off),
        };
        let (a, s, c) = self.decode(key);
        store.query(self.attacks[a], s.map(|s| &self.stacks[s]), &configs[c])
    }

    /// The off-grid row computed afresh, as the campaign engine would.
    fn fresh(&self, key: usize, runner: &mut BatchRunner) -> Result<(Verdict, Option<bool>)> {
        let (a, s, c) = self.decode(key);
        let (attack, cfg) = (self.attacks[a], &self.off[c]);
        let mut session = PatchSession::new(attack);
        Ok(match s {
            None => {
                let out = step("baseline simulation", runner.run(attack, cfg))?;
                (leak_verdict(out.leaked), Some(session.graph_race()))
            }
            Some(s) => {
                let stack = &self.stacks[s];
                let graph = step("graph verdict", session.graph_sufficient(stack))?;
                let verdict = defenses::verify_stack_warm(stack, attack, cfg, runner);
                (step("cell simulation", verdict)?, graph)
            }
        })
    }
}

fn leak_verdict(leaked: bool) -> Verdict {
    if leaked {
        Verdict::Leaked
    } else {
        Verdict::Blocked
    }
}

/// The matrix rows as `(verdict, graph verdict)`, indexed by grid key.
fn expected_rows(matrix: &CampaignMatrix) -> Vec<(Verdict, Option<bool>)> {
    let baselines = matrix
        .baselines()
        .iter()
        .map(|b| (leak_verdict(b.leaked), Some(b.graph_race)));
    let cells = matrix
        .cells()
        .iter()
        .map(|c| (c.evaluation.mechanism, c.evaluation.strategy_sufficient));
    baselines.chain(cells).collect()
}

/// Everything a round hands to its checks.
struct RoundLog {
    wall_s: f64,
    answers: Vec<(Target, std::result::Result<Answer, ServeError>)>,
    simulations: u64,
}

/// One closed-loop round on a fresh store: each query is sent when the
/// previous one returned. `on_query` sees every answer and its latency.
fn round(
    matrix: &CampaignMatrix,
    keys: &KeySpace,
    stream: &[Target],
    mut on_query: impl FnMut(AnswerSource, f64),
) -> RoundLog {
    let store = VerdictStore::new();
    store.ingest_matrix(matrix);
    let mut answers = Vec::with_capacity(stream.len());
    let t = Instant::now();
    for &target in stream {
        let q = Instant::now();
        let answer = keys.query(&store, target);
        let s = secs(q);
        if let Ok(a) = &answer {
            on_query(a.source, s);
        }
        answers.push((target, answer));
    }
    RoundLog {
        wall_s: secs(t),
        answers,
        simulations: store.simulations(),
    }
}

/// Checks a round's answers: grid queries hit and equal their matrix row;
/// an off-grid query simulates on its first occurrence, hits after, and
/// equals a fresh computation; the store simulated once per distinct
/// off-grid key. Returns the number of refused queries.
fn check_round(
    log: &RoundLog,
    keys: &KeySpace,
    rows: &[(Verdict, Option<bool>)],
    fresh: &mut HashMap<usize, (Verdict, Option<bool>)>,
    runner: &mut BatchRunner,
) -> Result<u64> {
    let mut refused = 0;
    let mut missed = HashSet::new();
    for (target, answer) in &log.answers {
        let Ok(answer) = answer else {
            refused += 1;
            continue;
        };
        let got = (answer.verdict, answer.graph);
        match *target {
            Target::Grid(k) => check!(
                answer.source == AnswerSource::Hit && got == rows[k],
                "grid query {k} answered {got:?} ({:?}), the matrix row is {:?}",
                answer.source,
                rows[k]
            ),
            Target::OffGrid(k) => {
                let first = missed.insert(k);
                let expected = match fresh.get(&k) {
                    Some(v) => *v,
                    None => {
                        let v = keys.fresh(k, runner)?;
                        fresh.insert(k, v);
                        v
                    }
                };
                let source = if first {
                    AnswerSource::Simulated
                } else {
                    AnswerSource::Hit
                };
                check!(
                    answer.source == source && got == expected,
                    "off-grid query {k} answered {got:?} ({:?}), a fresh run gives {expected:?}",
                    answer.source
                );
            }
        }
    }
    check!(
        log.simulations == missed.len() as u64,
        "store ran {} simulations for {} distinct off-grid keys",
        log.simulations,
        missed.len()
    );
    Ok(refused)
}

const MIN_ROUNDS: usize = 5;

/// Untraced and traced rounds of one traced pass.
const TRACED_ROUNDS: usize = 3;

pub fn run(seed: u64, seconds: u64) -> Result<Outcome> {
    let ((matrix, keys), setup_s) = setup(|| {
        let spec = canonical_spec(THREADS);
        let matrix = step("grid run", CampaignMatrix::run(&spec))?;
        // The set-up a server pays once: a store holding the grid.
        let store = VerdictStore::new();
        store.ingest_matrix(&matrix);
        check!(
            store.len() == spec.total_tasks(),
            "store holds {} rows",
            store.len()
        );
        Ok((matrix, KeySpace::new(&spec)))
    })?;
    let rows = expected_rows(&matrix);
    check!(
        rows.len() == keys.len(),
        "matrix rows do not match the key space"
    );

    let mut fresh = HashMap::new();
    let mut runner = BatchRunner::new();
    let mut all = Samples::default();
    let mut hits = Samples::default();
    let mut misses = Samples::default();
    let mut rate = Samples::default();
    let mut out = Outcome::default();
    let n = rounds(seconds, MIN_ROUNDS, |r| {
        let stream = gen::query_stream(seed, r as u64, keys.len(), ROUND_QUERIES);
        let log = round(&matrix, &keys, &stream, |source, s| {
            all.push(s * 1e6);
            match source {
                AnswerSource::Hit => hits.push(s * 1e6),
                _ => misses.push(s * 1e6),
            }
        });
        rate.push(stream.len() as f64 / log.wall_s);
        out.attempted += stream.len() as u64;
        out.failed += check_round(&log, &keys, &rows, &mut fresh, &mut runner)?;
        Ok(())
    })?;
    check!(misses.len() > 0, "no off-grid query missed");

    println!(
        "query-mix: {n} rounds of {ROUND_QUERIES} queries, one closed-loop client, \
         1 in {} off-grid",
        gen::OFF_GRID_ONE_IN
    );
    show(
        "query_ops_per_s",
        rate.median(),
        "1/s",
        &format!("median, n={n}"),
    );
    let (h, m) = (hits.len(), misses.len());
    show("query_hit_p50_us", hits.median(), "us", &format!("n={h}"));
    show(
        "query_hit_p99_us",
        hits.percentile(99.0),
        "us",
        &format!("n={h}"),
    );
    show(
        "query_miss_p50_us",
        misses.median(),
        "us",
        &format!("n={m}"),
    );
    show(
        "query_miss_p99_us",
        misses.percentile(99.0),
        "us",
        &format!("n={m}"),
    );
    out.add("throughput_per_s", rate.median(), "1/s");
    out.add("latency_p50_us", all.median(), "us");
    out.add("latency_tail_us", all.percentile(99.0), "us");
    out.add("setup_s", setup_s, "s");
    Ok(out)
}

/// One traced pass: ingest, the keyed `get` path, and one round of the
/// mix with each query's path recorded, against an untraced round of the
/// same stream.
pub fn profile(seed: u64) -> Result<Vec<Metric>> {
    let spec = canonical_spec(THREADS);
    let matrix = step("grid run", CampaignMatrix::run(&spec))?;
    let keys = KeySpace::new(&spec);
    let mut layers = Layers::default();
    for _ in 0..5 {
        let store = VerdictStore::new();
        layers.time("serve.ingest", || store.ingest_matrix(&matrix));
    }

    let store = VerdictStore::new();
    store.ingest_matrix(&matrix);
    let digests: Vec<u64> = keys
        .grid
        .iter()
        .map(specgraph::campaign::config_digest)
        .collect();
    let grid_keys: Vec<u64> = (0..keys.len())
        .map(|k| {
            let (a, s, c) = keys.decode(k);
            let name = keys.attacks[a].info().name;
            match s {
                None => VerdictStore::baseline_key_for_digest(name, digests[c]),
                Some(s) => VerdictStore::cell_key_for_digest(name, &keys.stacks[s], digests[c]),
            }
        })
        .collect();
    let mut get_ns = Samples::default();
    for batch in grid_keys.chunks(100).cycle().take(2000) {
        let (found, s) = timed(|| batch.iter().filter(|&&k| store.get(k).is_some()).count());
        check!(found == batch.len(), "keyed get missed an ingested row");
        get_ns.push(s * 1e9 / batch.len() as f64);
    }

    let stream = gen::query_stream(seed, 0, keys.len(), ROUND_QUERIES);
    // A warm-up round, then untraced and traced rounds of the same stream
    // alternately, so neither side pays first-run costs or drifts alone.
    round(&matrix, &keys, &stream, |_, _| {});
    let mut untraced = Samples::default();
    let mut traced = Samples::default();
    let rows = expected_rows(&matrix);
    let mut fresh = HashMap::new();
    let mut runner = BatchRunner::new();
    let mut simulations = 0;
    for _ in 0..TRACED_ROUNDS {
        untraced.push(round(&matrix, &keys, &stream, |_, _| {}).wall_s);
        let log = round(&matrix, &keys, &stream, |source, s| match source {
            AnswerSource::Hit => layers.record("serve.query_hit", s),
            _ => layers.record("serve.query_miss", s),
        });
        traced.push(log.wall_s);
        let refused = check_round(&log, &keys, &rows, &mut fresh, &mut runner)?;
        check!(refused == 0, "{refused} queries refused");
        simulations = log.simulations;
    }
    let misses = layers.calls("serve.query_miss") / TRACED_ROUNDS;
    Ok(vec![
        metric(
            "serve.ingest_ms",
            layers.samples("serve.ingest").median() * 1e3,
            "ms",
        ),
        metric("serve.get_ns_p50", get_ns.median(), "ns"),
        metric(
            "serve.query_hit_us_p50",
            layers.p50_us("serve.query_hit"),
            "us",
        ),
        metric(
            "serve.query_miss_us_p50",
            layers.p50_us("serve.query_miss"),
            "us",
        ),
        metric("serve.simulations", simulations as f64, "count"),
        metric(
            "serve.miss_share",
            misses as f64 / stream.len() as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_share.query-mix",
            (traced.median() - untraced.median()) / untraced.median(),
            "ratio",
        ),
    ])
}
