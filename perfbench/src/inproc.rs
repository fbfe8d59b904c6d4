//! The in-process workloads: PD (`PdScheduler::coarse()`, m = 2, α = 2.5)
//! driven through `StreamingSimulation::run`.
//!
//! * `pd-poisson` — the E12 Poisson stream (bounded active set).  Arrivals
//!   cost microseconds; `validate_schedule` and `Simulation::run` scan all
//!   segments once per job and dominate the wall time.
//! * `pd-overload` — the E16 `Overload` scenario.  PD rejects every job, so
//!   the schedule is empty and replay is free, while each water-fill runs
//!   over a pending set that grows with the stream.
//!
//! Each repetition regenerates the instance from the seed (set-up) and runs
//! the stream (the timed region).  Every third repetition then runs a
//! *recovery drill*: the same stream fed arrival by arrival with an
//! O(active) `(log, blob)` checkpoint before each of five crash points, a
//! crash 63 arrivals later, and a restore plus replay, five times over.
//! The drill's decisions and schedule are the oracle: the stream's output
//! must equal them bit for bit, finish exactly its accepted jobs and keep
//! the dual convention; the repetitions in between must reproduce the
//! first one's output bit for bit.  The traced run drives the same stages
//! through their public calls and times each one.

use std::time::Instant;

use pss_bench::experiments::streaming::stream_instance_on;
use pss_core::prelude::*;
use pss_sim::{Simulation, StreamingSimulation};
use pss_types::{LogCheckpointable, ScheduleError, SegmentLog};
use pss_workloads::{ScenarioConfig, ScenarioKind};

use crate::common::{
    check_duals, check_finished, compare_decisions, compare_schedules, median, peak_rss_mb,
    percentile, secs, Corruption, Outcome, ALPHA, MACHINES, MIN_SETUPS,
};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Poisson,
    Overload,
}

/// Stream lengths: large enough that each repetition takes about a second.
const POISSON_JOBS: usize = 6_000;
const OVERLOAD_JOBS: usize = 8_000;
/// The drill checkpoints on the daemon's default cadence: a crash loses at
/// most this many arrivals, which recovery replays.
const CHECKPOINT_EVERY: usize = 64;
/// Where in the stream the drill's checkpoints sit, as stream fractions.
const CRASH_POINTS: [f64; 5] = [0.15, 0.3, 0.45, 0.6, 0.75];
const MIN_REPS: usize = 3;
/// Every this many repetitions runs the drill; the others are checked
/// against the first repetition only, so more of the run is timed.
const DRILL_EVERY: usize = 3;
/// The drill crashes and recovers this often at each crash point; the
/// point's recovery time is the fastest.
const RECOVERIES: usize = 5;

fn generate(kind: Kind, seed: u64) -> Instance {
    match kind {
        Kind::Poisson => stream_instance_on(MACHINES, POISSON_JOBS, seed),
        Kind::Overload => ScenarioConfig {
            kind: ScenarioKind::Overload,
            n_jobs: OVERLOAD_JOBS,
            machines: MACHINES,
            alpha: ALPHA,
            seed,
        }
        .generate(),
    }
}

/// Decisions indexed by job id.
struct Decisions {
    accepted: Vec<bool>,
    duals: Vec<f64>,
}

impl Decisions {
    fn new(n: usize) -> Self {
        Self {
            accepted: vec![false; n],
            duals: vec![f64::NAN; n],
        }
    }

    fn record(&mut self, job: JobId, d: Decision) {
        self.accepted[job.index()] = d.accepted;
        self.duals[job.index()] = d.dual;
    }

    fn view(&self) -> (&[bool], &[f64]) {
        (&self.accepted, &self.duals)
    }
}

/// What the recovery drill produced.
struct Drill {
    decisions: Decisions,
    schedule: Schedule,
    timing: DrillTiming,
}

/// The drill's checkpoint and recovery times.
#[derive(Clone, Default)]
struct DrillTiming {
    capture_s: Vec<f64>,
    blob_bytes_last: usize,
    restore_s: Vec<f64>,
    /// Per crash point, the fastest of its recoveries.
    recover_s: Vec<f64>,
}

/// Feeds the stream arrival by arrival, crashing and recovering from an
/// O(active) checkpoint at each crash point; every replayed decision must
/// equal the one the crashed run made.
fn drill(
    pd: &PdScheduler,
    instance: &Instance,
    outcome: &mut Outcome,
) -> Result<Drill, ScheduleError> {
    let order = instance.arrival_order();
    let n = order.len();
    let mut run = pd.start_for(instance)?;
    let mut log = SegmentLog::new(instance.machines);
    let mut decisions = Decisions::new(n);
    let mut out = Drill {
        decisions: Decisions::new(0),
        schedule: Schedule::empty(instance.machines),
        timing: DrillTiming::default(),
    };
    let snapshot_err = |e: pss_types::SnapshotError| ScheduleError::Internal(e.to_string());
    let mut fed = 0;
    for frac in CRASH_POINTS {
        let ckpt = (frac * n as f64) as usize / CHECKPOINT_EVERY * CHECKPOINT_EVERY;
        let crash = (ckpt + CHECKPOINT_EVERY - 1).min(n);
        for &id in &order[fed..ckpt] {
            let job = instance.job(id);
            decisions.record(id, run.on_arrival(job, job.release)?);
        }
        let t = Instant::now();
        let wire = run
            .snapshot_live(&mut log)
            .map_err(snapshot_err)?
            .to_bytes();
        let cursor = log.cursor();
        log.compact(cursor);
        out.timing.capture_s.push(secs(t));
        out.timing.blob_bytes_last = wire.len();
        for &id in &order[ckpt..crash] {
            let job = instance.job(id);
            decisions.record(id, run.on_arrival(job, job.release)?);
        }
        let mut fastest = f64::INFINITY;
        for _ in 0..RECOVERIES {
            // The crash: the run's in-memory state is gone.
            drop(run);
            let t = Instant::now();
            log.truncate(cursor).map_err(snapshot_err)?;
            let blob = StateBlob::from_bytes(&wire).map_err(snapshot_err)?;
            run = OnlinePd::restore_with_log(&blob, &log).map_err(snapshot_err)?;
            out.timing.restore_s.push(secs(t));
            for &id in &order[ckpt..crash] {
                let job = instance.job(id);
                let d = run.on_arrival(job, job.release)?;
                let k = id.index();
                if d.accepted != decisions.accepted[k]
                    || d.dual.to_bits() != decisions.duals[k].to_bits()
                {
                    outcome.fail(format!(
                        "drill: replayed decision of job {k} differs after recovery"
                    ));
                }
            }
            fastest = fastest.min(secs(t));
        }
        out.timing.recover_s.push(fastest);
        fed = crash;
    }
    for &id in &order[fed..] {
        let job = instance.job(id);
        decisions.record(id, run.on_arrival(job, job.release)?);
    }
    out.schedule = run.finish()?;
    out.decisions = decisions;
    Ok(out)
}

/// The numbers one untraced repetition leaves behind.
#[derive(Clone)]
struct RepStats {
    setup_s: f64,
    wall_s: f64,
    /// The part of `wall_s` spent handling arrivals.
    arrive_s: f64,
    cost: f64,
    drill: DrillTiming,
}

/// One untraced repetition: its numbers and its checked output, which the
/// traced repetition is compared against before it is dropped.
struct Rep {
    stats: RepStats,
    /// Per-arrival handling time `StreamReport` recorded, by job id.
    latency_s: Vec<f64>,
    decisions: Decisions,
    schedule: Schedule,
}

/// Runs one untraced repetition and checks its output: against a fresh
/// recovery drill when `with_drill`, and against the first repetition's
/// output (`first`) whenever there is one — the same seed must reproduce
/// it bit for bit.
fn untraced_rep(
    kind: Kind,
    seed: u64,
    pd: &PdScheduler,
    outcome: &mut Outcome,
    corrupt: Option<Corruption>,
    with_drill: bool,
    first: Option<&Rep>,
) -> Option<Rep> {
    let t = Instant::now();
    let instance = generate(kind, seed);
    let setup_s = secs(t);
    let n = instance.len();

    let t = Instant::now();
    let report = StreamingSimulation::default().run(pd, &instance);
    let wall_s = secs(t);
    outcome.attempted += n as u64;
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            outcome.fail(format!("stream failed: {e}"));
            return None;
        }
    };

    // The recorded output: decisions by job id, the schedule and its cost.
    let mut decisions = Decisions::new(n);
    let mut latency_s = vec![0.0; n];
    let mut seen = vec![false; n];
    for e in &report.events {
        if std::mem::replace(&mut seen[e.job.index()], true) {
            outcome.fail(format!("stream: job {} decided twice", e.job));
        }
        latency_s[e.job.index()] = e.latency_secs;
        decisions.record(
            e.job,
            Decision {
                accepted: e.accepted,
                dual: e.dual,
            },
        );
    }
    if report.events.len() != n {
        outcome.fail(format!(
            "stream: {} decisions for {n} jobs",
            report.events.len()
        ));
    }
    let cost = report.total_cost();
    let mut schedule = report.schedule;
    if let Some(c) = corrupt {
        if let Err(e) = c.apply(&mut decisions.accepted, &mut decisions.duals, &mut schedule) {
            outcome.fail(format!("--corrupt: {e}"));
        }
    }

    let mut timing = DrillTiming::default();
    if with_drill {
        let drill = match drill(pd, &instance, outcome) {
            Ok(d) => d,
            Err(e) => {
                outcome.fail(format!("recovery drill failed: {e}"));
                return None;
            }
        };
        compare_decisions(
            outcome,
            "stream vs drill",
            decisions.view(),
            drill.decisions.view(),
        );
        compare_schedules(outcome, "stream vs drill", &schedule, &drill.schedule);
        timing = drill.timing;
    }
    if let Some(first) = first {
        compare_decisions(
            outcome,
            "stream vs first repetition",
            decisions.view(),
            first.decisions.view(),
        );
        compare_schedules(
            outcome,
            "stream vs first repetition",
            &schedule,
            &first.schedule,
        );
        if cost.to_bits() != first.stats.cost.to_bits() {
            outcome.fail(format!(
                "stream cost {cost} differs from the first repetition's {}",
                first.stats.cost
            ));
        }
    }
    let values: Vec<f64> = instance.jobs.iter().map(|j| j.value).collect();
    check_duals(
        outcome,
        "stream",
        &values,
        &decisions.accepted,
        &decisions.duals,
    );
    let recomputed = check_finished(outcome, "stream", &instance, &decisions.accepted, &schedule);
    if (recomputed - cost).abs() > 1e-9 * cost.abs().max(1.0) {
        outcome.fail(format!(
            "stream: reported cost {cost} but the schedule costs {recomputed}"
        ));
    }
    Some(Rep {
        stats: RepStats {
            setup_s,
            wall_s,
            arrive_s: latency_s.iter().sum(),
            cost,
            drill: timing,
        },
        latency_s,
        decisions,
        schedule,
    })
}

/// One traced repetition: the stages of `StreamingSimulation::run`, each
/// timed through its public call.
#[derive(Default)]
struct Traced {
    gen_s: f64,
    start_s: f64,
    arrive_s: f64,
    arrive_p99_s: f64,
    finish_s: f64,
    sim_s: f64,
    validate_s: f64,
    wall_s: f64,
    accepted: usize,
    segments: usize,
}

fn traced_rep(
    kind: Kind,
    seed: u64,
    pd: &PdScheduler,
    outcome: &mut Outcome,
    reference: &Rep,
) -> Result<Traced, ScheduleError> {
    let mut tr = Traced::default();
    let t = Instant::now();
    let instance = generate(kind, seed);
    tr.gen_s = secs(t);
    let n = instance.len();

    let t0 = Instant::now();
    let t = Instant::now();
    let mut run = pd.start_for(&instance)?;
    tr.start_s = secs(t);
    let mut decisions = Decisions::new(n);
    let mut latency = Vec::with_capacity(n);
    for id in instance.arrival_order() {
        let job = instance.job(id);
        let t = Instant::now();
        let d = run.on_arrival(job, job.release)?;
        latency.push(secs(t));
        decisions.record(id, d);
    }
    let t = Instant::now();
    let schedule = run.finish()?;
    tr.finish_s = secs(t);
    let t = Instant::now();
    let sim = Simulation.run(&instance, &schedule)?;
    tr.sim_s = secs(t);
    tr.wall_s = secs(t0);
    // `Simulation::run` validates first; a separate call splits the two.
    let t = Instant::now();
    pss_types::validate_schedule(&instance, &schedule)?;
    tr.validate_s = secs(t);

    tr.arrive_s = latency.iter().sum();
    tr.arrive_p99_s = percentile(&latency, 99.0);
    tr.accepted = decisions.accepted.iter().filter(|a| **a).count();
    tr.segments = schedule.segments.len();

    compare_decisions(
        outcome,
        "traced vs untraced",
        decisions.view(),
        reference.decisions.view(),
    );
    compare_schedules(
        outcome,
        "traced vs untraced",
        &schedule,
        &reference.schedule,
    );
    if sim.total_cost().to_bits() != reference.stats.cost.to_bits() {
        outcome.fail(format!(
            "traced cost {} differs from untraced {}",
            sim.total_cost(),
            reference.stats.cost
        ));
    }
    Ok(tr)
}

/// Theorem 3's certificate on the run's own duals: cost ≤ α^α·g(λ).
fn certify(instance: &Instance, rep: &Rep, outcome: &mut Outcome) -> f64 {
    let duals = &rep.decisions.duals;
    if duals.iter().any(|l| !(l.is_finite() && *l >= 0.0)) {
        outcome.fail("certificate: duals are not finite and nonnegative".into());
        return 0.0;
    }
    let ctx = ProgramContext::new(instance);
    let g = dual_bound(&ctx, duals).value;
    let bound = AlphaPower::new(ALPHA).competitive_ratio_pd();
    let cost = rep.stats.cost;
    let ratio = cost / g;
    if !(g > 0.0 && cost <= bound * g * (1.0 + 1e-9)) {
        outcome.fail(format!(
            "certificate violated: cost {cost} > α^α·g(λ) = {bound}·{g}"
        ));
    }
    outcome.note(format!(
        "Theorem 3 certificate: cost/g(λ) = {ratio:.4} <= α^α = {bound:.4} (n = {})",
        instance.len()
    ));
    ratio
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let pd = PdScheduler::coarse();
    let started = Instant::now();
    let mut reps: Vec<RepStats> = Vec::new();
    let mut traced: Vec<Traced> = Vec::new();
    let mut corrupt = args.corrupt;
    let mut first: Option<Rep> = None;
    // Each arrival's fastest handling time over the run's repetitions.
    let mut best_latency_s: Vec<f64> = Vec::new();
    let mut n = 0;
    while reps.len() < MIN_REPS || secs(started) < args.seconds {
        let Some(rep) = untraced_rep(
            kind,
            args.seed,
            &pd,
            &mut outcome,
            corrupt.take(),
            reps.len().is_multiple_of(DRILL_EVERY),
            first.as_ref(),
        ) else {
            break;
        };
        n = rep.decisions.accepted.len();
        best_latency_s.resize(n, f64::INFINITY);
        for (best, &l) in best_latency_s.iter_mut().zip(&rep.latency_s) {
            *best = best.min(l);
        }
        if args.trace {
            match traced_rep(kind, args.seed, &pd, &mut outcome, &rep) {
                Ok(tr) => traced.push(tr),
                Err(e) => {
                    outcome.fail(format!("traced stream failed: {e}"));
                    break;
                }
            }
            if kind == Kind::Poisson && reps.is_empty() {
                let ratio = certify(&generate(kind, args.seed), &rep, &mut outcome);
                outcome.set("cert.ratio", ratio);
            }
        }
        // Only the first output and every repetition's numbers are kept,
        // so the peak RSS does not grow with the repetition count.
        reps.push(rep.stats.clone());
        first.get_or_insert(rep);
    }
    if reps.is_empty() {
        return outcome;
    }
    let pick = |f: &dyn Fn(&RepStats) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    // Timings are each one's fastest over the run's repetitions.  Every
    // repetition runs the same deterministic stream, and a shared host only
    // ever adds time: it slows whole stretches of seconds by up to ~1.6x,
    // and a median over the run follows whichever state covers most of it.
    let drills: Vec<&DrillTiming> = reps
        .iter()
        .map(|r| &r.drill)
        .filter(|d| d.recover_s.len() == CRASH_POINTS.len())
        .collect();
    // Per crash point the fastest recovery over the run's drills, then the
    // mean over the points (their costs differ with the pending set).
    let recover: Vec<f64> = (0..CRASH_POINTS.len())
        .map(|k| {
            drills
                .iter()
                .map(|d| d.recover_s[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < MIN_SETUPS {
        let t = Instant::now();
        std::hint::black_box(generate(kind, args.seed));
        setups.push(secs(t));
    }
    outcome.set("setup_s", median(&setups));
    // The stream's best wall time: every arrival at its fastest, plus the
    // fastest rest (start, finish, validation and replay).
    let best_rest_s = reps
        .iter()
        .map(|r| r.wall_s - r.arrive_s)
        .fold(f64::INFINITY, f64::min);
    let best_wall_s = best_latency_s.iter().sum::<f64>() + best_rest_s;
    outcome.set("jobs_per_s", n as f64 / best_wall_s);
    outcome.set("decide_p50_us", percentile(&best_latency_s, 50.0) * 1e6);
    outcome.set("decide_p99_us", percentile(&best_latency_s, 99.0) * 1e6);
    outcome.set("cost", pick(&|r| r.cost));
    // Every arrival reaches the scheduler: there is no admission gate.
    outcome.set("admitted_share", 1.0);
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.set(
        "recover_ms",
        recover.iter().sum::<f64>() / recover.len() as f64 * 1e3,
    );
    outcome.note(format!(
        "{} repetitions of {n} jobs; decide percentiles over the {n} arrivals' fastest \
         handling times; jobs_per_s from them plus the fastest rest of a repetition; \
         recover_ms over {} drills of {} crashes; set-up measured {} times",
        reps.len(),
        drills.len(),
        CRASH_POINTS.len(),
        setups.len()
    ));

    if args.trace && !traced.is_empty() {
        let tp = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let wall = tp(&|t| t.wall_s);
        let capture: Vec<f64> = reps
            .iter()
            .filter(|r| !r.drill.capture_s.is_empty())
            .map(|r| r.drill.capture_s.iter().sum())
            .collect();
        let capture_max = reps
            .iter()
            .flat_map(|r| r.drill.capture_s.iter().copied())
            .fold(0.0, f64::max);
        let restore: Vec<f64> = reps
            .iter()
            .flat_map(|r| r.drill.restore_s.clone())
            .collect();
        outcome.set("workloads.gen_s", tp(&|t| t.gen_s));
        outcome.set("sched.start_s", tp(&|t| t.start_s));
        outcome.set("sched.arrive_s", tp(&|t| t.arrive_s));
        outcome.set("sched.arrive_p99_us", tp(&|t| t.arrive_p99_s) * 1e6);
        outcome.set("sched.finish_s", tp(&|t| t.finish_s));
        outcome.set("sched.batches", n as f64);
        outcome.set("sched.accepted", tp(&|t| t.accepted as f64));
        outcome.set("types.validate_s", tp(&|t| t.validate_s));
        outcome.set("types.segments", tp(&|t| t.segments as f64));
        outcome.set("sim.replay_s", tp(&|t| t.sim_s - t.validate_s));
        outcome.set("ckpt.capture_s", median(&capture));
        outcome.set("ckpt.capture_max_ms", capture_max * 1e3);
        outcome.set("ckpt.count", CRASH_POINTS.len() as f64);
        outcome.set("ckpt.blob_bytes_last", reps[0].drill.blob_bytes_last as f64);
        outcome.set("ckpt.restore_ms", median(&restore) * 1e3);
        outcome.set("trace.wall_s", wall);
        outcome.set("trace.overhead_share", wall / pick(&|r| r.wall_s) - 1.0);
        outcome.set(
            "trace.unexplained_share",
            tp(&|t| (t.wall_s - t.start_s - t.arrive_s - t.finish_s - t.sim_s) / t.wall_s),
        );
        let val_replay = tp(&|t| t.sim_s) / wall;
        let arrive = tp(&|t| t.arrive_s) / wall;
        outcome.note(format!(
            "purpose: validate+replay {:.1}% and arrivals {:.1}% of the traced wall time \
             ({} traced repetitions)",
            val_replay * 100.0,
            arrive * 100.0,
            traced.len()
        ));
    }
    outcome
}
