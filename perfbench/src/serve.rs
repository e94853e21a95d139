//! `serve-resume`: the Figure-8 grid on the checkpointed work-stealing
//! `Scheduler` with 2 workers; then a seeded set of chunk files is deleted
//! or truncated and the run resumes from the checkpoint directory.

use crate::gen::{self, Damage};
use crate::grid::{self, THREADS};
use crate::measure::{
    check, digest, metric, rounds, secs, setup, show, step, timed, Layers, Metric, Outcome, Result,
    Samples, WorkDir, BATCH_TAIL,
};
use specgraph::campaign::{CampaignMatrix, CampaignSpec};
use specgraph::fault;
use specgraph::serve::{ChunkRepair, ScheduleReport, Scheduler, ServeError};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Tasks per checkpoint chunk: 54 chunks for the 3410-task grid. The
/// `campaign serve` default of 16 (214 chunks) makes the run mostly
/// small-file writes, whose latency on a shared virtual disk swings the
/// timing by more than the bounds allow.
pub const CHUNK_TASKS: usize = 64;

/// Chunks damaged before each resume.
pub const DAMAGED: usize = 4;

fn chunk_path(dir: &Path, chunk: usize) -> PathBuf {
    dir.join(format!("chunk-{chunk:05}.json"))
}

fn schedule(
    spec: &CampaignSpec,
    dir: &Path,
) -> std::result::Result<(CampaignMatrix, ScheduleReport), ServeError> {
    Scheduler::new(spec)
        .workers(THREADS)
        .chunk_tasks(CHUNK_TASKS)
        .checkpoint(dir)
        .run()
}

/// Deletes or truncates (to half its length) each damaged chunk file.
fn apply_damage(dir: &Path, damage: &[Damage]) -> Result<()> {
    for d in damage {
        let path = chunk_path(dir, d.chunk);
        if d.truncate {
            let len = step("stat chunk", std::fs::metadata(&path))?.len();
            let file = step(
                "open chunk",
                std::fs::OpenOptions::new().write(true).open(&path),
            )?;
            step("truncate chunk", file.set_len(len / 2))?;
        } else {
            step("delete chunk", std::fs::remove_file(&path))?;
        }
    }
    Ok(())
}

/// Checks a fresh run and its resume against the reference bytes and
/// returns the intact checkpoints the resume could not use.
fn check_pair<'r>(
    reference: u64,
    damage: &[Damage],
    (m, rep): &(CampaignMatrix, ScheduleReport),
    (m2, rep2): &'r (CampaignMatrix, ScheduleReport),
) -> Result<Vec<&'r ChunkRepair>> {
    check!(
        digest(m.to_json().as_bytes()) == reference,
        "scheduled grid bytes differ from `CampaignMatrix::run`"
    );
    check!(
        digest(m2.to_json().as_bytes()) == reference,
        "resumed grid bytes differ from `CampaignMatrix::run`"
    );
    check!(
        rep.resumed == 0 && rep.executed == rep.chunks && rep.repaired.is_empty(),
        "a fresh schedule resumed or repaired chunks: {rep:?}"
    );
    check!(
        rep2.chunks == rep.chunks && rep2.resumed + rep2.executed == rep2.chunks,
        "resume did not cover every chunk: {} resumed + {} executed of {}",
        rep2.resumed,
        rep2.executed,
        rep2.chunks
    );
    check!(
        rep2.resumed <= rep2.chunks - damage.len(),
        "resume reused a damaged chunk"
    );
    for d in damage.iter().filter(|d| d.truncate) {
        check!(
            rep2.repaired.iter().any(|r| r.index == d.chunk),
            "truncated chunk {} was not reported as repaired",
            d.chunk
        );
    }
    Ok(rep2
        .repaired
        .iter()
        .filter(|r| !damage.iter().any(|d| d.chunk == r.index))
        .collect())
}

const MIN_ROUNDS: usize = 5;

pub fn run(seed: u64, seconds: u64) -> Result<Outcome> {
    let work = WorkDir::new("serve-resume")?;
    let ((spec, reference), setup_s) = setup(|| {
        let spec = grid::spec(seed, THREADS);
        let m = step("reference grid run", CampaignMatrix::run(&spec))?;
        Ok((spec, digest(m.to_json().as_bytes())))
    })?;
    let tasks = spec.total_tasks() as f64;

    let mut rate = Samples::default();
    let mut resume = Samples::default();
    let mut out = Outcome::default();
    let mut last: Option<(usize, usize, usize)> = None;
    let mut refusal: Option<String> = None;
    let n = rounds(seconds, MIN_ROUNDS, |k| {
        // A new directory per round: deleting files while measuring would
        // put the file system's deferred work inside the timed region.
        let dir = work.fresh(&format!("ckpt-{k}"))?;
        let t = Instant::now();
        let first = schedule(&spec, &dir);
        let full_s = secs(t);
        let first = match first {
            Ok(r) => r,
            Err(e) => {
                out.attempted += 1;
                out.failed += 1;
                refusal.get_or_insert(format!("schedule refused: {e}"));
                return Ok(());
            }
        };
        let chunks = first.1.chunks;
        let damage = gen::damage(seed, k as u64, chunks, DAMAGED);
        apply_damage(&dir, &damage)?;
        let t = Instant::now();
        let second = schedule(&spec, &dir);
        let resume_s = secs(t);
        rate.push(tasks / full_s);
        // One run, its checkpoint writes, the resume, and one load per
        // intact checkpoint.
        out.attempted += (1 + chunks + 1 + (chunks - damage.len())) as u64;
        let second = match second {
            Ok(r) => r,
            Err(e) => {
                out.failed += 1;
                refusal.get_or_insert(format!("resume refused: {e}"));
                return Ok(());
            }
        };
        resume.push(resume_s * 1e6);
        let unusable = check_pair(reference, &damage, &first, &second)?;
        out.failed += unusable.len() as u64;
        if let Some(r) = unusable.first() {
            refusal.get_or_insert(format!("intact chunk {} unusable: {}", r.index, r.reason));
        }
        last = Some((chunks, second.1.resumed, second.1.repaired.len()));
        Ok(())
    })?;
    check!(resume.len() > 0, "no resume completed");

    println!(
        "serve-resume: {n} rounds of a {THREADS}-worker checkpointed schedule, \
         {DAMAGED} chunks damaged before each resume"
    );
    show(
        "serve_tasks_per_s",
        rate.median(),
        "1/s",
        &format!("median, n={n}"),
    );
    let r = resume.len();
    show(
        "resume_s",
        resume.median() / 1e6,
        "s",
        &format!("median, n={r}"),
    );
    show(
        "resume_p75_s",
        resume.percentile(BATCH_TAIL) / 1e6,
        "s",
        &format!("n={r}"),
    );
    if let Some((chunks, resumed, repaired)) = last {
        println!("  last resume: {resumed} of {chunks} chunks reused, {repaired} repaired");
    }
    if let Some(r) = &refusal {
        println!("  refused: {r}");
    }
    out.add("throughput_per_s", rate.median(), "1/s");
    out.add("latency_p50_us", resume.median(), "us");
    out.add("latency_tail_us", resume.percentile(BATCH_TAIL), "us");
    out.add("setup_s", setup_s, "s");
    Ok(out)
}

/// One traced pass: an untraced schedule and resume, then the same pair
/// with `fault::write_atomic` observed, plus the checkpoint write itself
/// timed on every chunk payload.
pub fn profile(seed: u64) -> Result<Vec<Metric>> {
    let work = WorkDir::new("serve-profile")?;
    let spec = grid::spec(seed, THREADS);
    let reference = digest(
        step("reference grid run", CampaignMatrix::run(&spec))?
            .to_json()
            .as_bytes(),
    );

    let pair = |dir: &Path, observe: bool| -> Result<_> {
        let guard = observe.then(fault::observe);
        let (first, full_s) = timed(|| schedule(&spec, dir));
        let first = step("schedule", first)?;
        let writes = guard.as_ref().map_or(0, fault::ArmedFault::writes);
        drop(guard);
        let damage = gen::damage(seed, 0, first.1.chunks, DAMAGED);
        apply_damage(dir, &damage)?;
        let (second, resume_s) = timed(|| schedule(&spec, dir));
        let second = step("resume", second)?;
        check_pair(reference, &damage, &first, &second)?;
        Ok((first.1, second.1, writes, full_s + resume_s, damage.len()))
    };
    // Untraced pairs before and after the traced one, so machine drift
    // during the pass shifts both sides alike.
    let (_, _, _, before_s, _) = pair(&work.fresh("untraced-1")?, false)?;
    let dir = work.fresh("traced")?;
    let (rep, rep2, writes, traced_s, damaged) = pair(&dir, true)?;
    let (_, _, _, after_s, _) = pair(&work.fresh("untraced-2")?, false)?;
    let untraced_s = (before_s + after_s) / 2.0;

    let mut layers = Layers::default();
    let copies = work.fresh("copies")?;
    for chunk in 0..rep.chunks {
        let Ok(text) = std::fs::read_to_string(chunk_path(&dir, chunk)) else {
            continue;
        };
        let target = chunk_path(&copies, chunk);
        let written = layers.time("fault.write_atomic", || fault::write_atomic(&target, &text));
        step("checkpoint write", written)?;
    }
    let intact = rep.chunks - damaged;
    Ok(vec![
        metric("serve.chunks", rep.chunks as f64, "count"),
        metric("serve.resumed_chunks", rep2.resumed as f64, "count"),
        metric("serve.repaired_chunks", rep2.repaired.len() as f64, "count"),
        metric("serve.stolen_chunks", rep.stolen as f64, "count"),
        metric(
            "serve.resume_reuse_ratio",
            rep2.resumed as f64 / intact as f64,
            "ratio",
        ),
        metric("fault.writes", writes as f64, "count"),
        metric(
            "fault.write_atomic_us_p50",
            layers.p50_us("fault.write_atomic"),
            "us",
        ),
        metric(
            "trace.overhead_share.serve-resume",
            (traced_s - untraced_s) / untraced_s,
            "ratio",
        ),
    ])
}
