//! The daemon workloads: one `pss-serve` shard (one worker thread) fed by
//! one generator thread, window 0, the default checkpoint cadence, and a
//! single tenant whose submissions the dual-price gate refuses outright
//! (`rejecting_on_price`), so a refusal is a decision, not a retry.
//!
//! * `serve-paced` — PD (m = 2) on the E12 Poisson stream in an open loop:
//!   job i is due at its release time scaled to [`PACED_RATE`] submissions
//!   per second, whatever the daemon is doing.  Latency runs from the due
//!   time to the moment the generator sees the decision, through the
//!   lock-free shard watermark (releases are nondecreasing and the feed
//!   time is at least the release, so a watermark at or past a job's
//!   release means the job has been decided).  Crash + recovery are
//!   injected at fixed submission counts.
//! * `serve-flood` — OA (m = 1) in a closed loop: the producer submits as
//!   fast as admission allows and backs off only on `QueueFull`.  Its
//!   crash + recovery drills run after the drain, outside the timed part.
//!
//! The oracle replays each session's *fed journal* (the shard report's
//! jobs and events grouped by batch, each at its feed time)
//! single-threaded in the worker's order — `on_arrivals`, then
//! `SegmentLog::sync_from`, a `(log, blob)` capture every
//! `checkpoint_every` batches, then `finish` — and requires every decision
//! and the finished schedule to match the daemon's bit for bit.  Admission
//! and batching depend on timing, so the submitted stream itself is never
//! the reference.  The replay's stage times are the per-layer numbers.

use std::time::{Duration, Instant};

use pss_bench::experiments::streaming::stream_instance_on;
use pss_core::prelude::*;
use pss_serve::{Daemon, RetryPolicy, ServeConfig, ShardReport, Submission, TenantSpec};
use pss_types::{IngressError, JobEnvelope, LogCheckpointable, ScheduleError, SegmentLog};
use pss_workloads::{arrival_envelopes, SmallRng};

use crate::common::{
    check_duals, check_finished, compare_decisions, compare_schedules, median, peak_rss_mb,
    percentile, secs, Corruption, Outcome, ALPHA, MACHINES, MIN_SETUPS,
};
use crate::Args;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Paced,
    Flood,
}

/// The open loop's offered rate, in submissions per wall second.
const PACED_RATE: f64 = 8000.0;
/// The E12 stream's arrival rate per model time unit.
const MODEL_RATE: f64 = 4.0;
/// Submissions per paced session (three seconds at the offered rate).
const PACED_JOBS: usize = 24_000;
/// Submissions per flood session.
const FLOOD_JOBS: usize = 100_000;
/// Where crash + recovery are injected, as fractions of the session's
/// submissions.  Two crashes, close together: their recoveries restore blobs of about
/// the same size, so `recover_ms` has one mode, and the jobs they delay
/// stay well under 1% of the stream, so `decide_p99_us` measures the
/// checkpoint-capture stalls rather than the crashes.
const PACED_CRASHES: [f64; 2] = [0.48, 0.52];
/// Crash + recovery drills per flood session, after the drain.
const FLOOD_CRASHES: usize = 3;
/// A session whose queued jobs are not all decided by then has failed.
const DRAIN_TIMEOUT_S: f64 = 60.0;

fn config(kind: Kind) -> ServeConfig {
    ServeConfig {
        machines: match kind {
            Kind::Paced => MACHINES,
            Kind::Flood => 1,
        },
        alpha: ALPHA,
        shards: 1,
        coalesce_window: 0.0,
        ..ServeConfig::default()
    }
}

fn generate(kind: Kind, seed: u64) -> Instance {
    match kind {
        Kind::Paced => stream_instance_on(MACHINES, PACED_JOBS, seed),
        Kind::Flood => stream_instance_on(1, FLOOD_JOBS, seed),
    }
}

/// Marks queued jobs decided as the shard watermark passes their release.
struct Observer {
    queued: Vec<usize>,
    next: usize,
    decided_at: Vec<f64>,
}

impl Observer {
    fn poll(&mut self, watermark: f64, now: f64, envelopes: &[JobEnvelope]) {
        while self.next < self.queued.len()
            && envelopes[self.queued[self.next]].release <= watermark
        {
            self.decided_at[self.queued[self.next]] = now;
            self.next += 1;
        }
    }

    fn done(&self) -> bool {
        self.next == self.queued.len()
    }
}

/// The fed-journal replay's stage times and counts.
#[derive(Default)]
struct Replay {
    start_s: f64,
    arrive_s: f64,
    arrive_batch_s: Vec<f64>,
    sync_s: f64,
    capture_s: Vec<f64>,
    blob_bytes_last: usize,
    restore_s: f64,
    finish_s: f64,
    batches: usize,
    accepted: usize,
}

impl Replay {
    fn compute_s(&self) -> f64 {
        self.start_s
            + self.arrive_s
            + self.sync_s
            + self.capture_s.iter().sum::<f64>()
            + self.finish_s
    }
}

/// Replays a shard's fed journal single-threaded in the worker's order
/// and returns its decisions (feed order) and finished schedule.
fn replay<A>(
    algo: &A,
    cfg: &ServeConfig,
    shard: &ShardReport,
) -> Result<(Vec<Decision>, Schedule, Replay), ScheduleError>
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable,
{
    let snapshot_err = |e: pss_types::SnapshotError| ScheduleError::Internal(e.to_string());
    let mut stats = Replay::default();
    let t = Instant::now();
    let mut run = algo.start(cfg.machines, cfg.alpha)?;
    stats.start_s = secs(t);
    let mut log = SegmentLog::new(cfg.machines);
    let mut last_wire = Vec::new();
    let mut capture = |run: &A::Run, log: &mut SegmentLog, stats: &mut Replay| {
        let t = Instant::now();
        let wire = run.snapshot_live(log).map_err(snapshot_err)?.to_bytes();
        log.compact(log.cursor());
        stats.capture_s.push(secs(t));
        stats.blob_bytes_last = wire.len();
        last_wire = wire;
        Ok::<(), ScheduleError>(())
    };
    // The daemon checkpoints once at spawn.
    capture(&run, &mut log, &mut stats)?;
    let (events, jobs) = (&shard.events, &shard.jobs);
    if events.len() != jobs.len() {
        return Err(ScheduleError::Internal(format!(
            "journal holds {} events for {} jobs",
            events.len(),
            jobs.len()
        )));
    }
    let mut decisions = Vec::with_capacity(events.len());
    let mut live = Vec::new();
    let mut k = 0;
    while k < events.len() {
        let (batch, feed_time) = (events[k].batch, events[k].feed_time);
        if batch != stats.batches {
            return Err(ScheduleError::Internal(format!(
                "journal batch {batch} out of order (expected {})",
                stats.batches
            )));
        }
        let mut end = k;
        while end < events.len() && events[end].batch == batch {
            end += 1;
        }
        live.clear();
        live.extend(
            jobs[k..end]
                .iter()
                .filter(|j| j.deadline > feed_time)
                .copied(),
        );
        let t = Instant::now();
        let fed = run.on_arrivals(&live, feed_time)?;
        let dt = secs(t);
        stats.arrive_s += dt;
        stats.arrive_batch_s.push(dt);
        let mut fed = fed.into_iter();
        for job in &jobs[k..end] {
            decisions.push(if job.deadline > feed_time {
                fed.next().ok_or_else(|| {
                    ScheduleError::Internal("on_arrivals returned too few decisions".into())
                })?
            } else {
                Decision::reject(job.value)
            });
        }
        let t = Instant::now();
        log.sync_from(run.frontier()).map_err(snapshot_err)?;
        stats.sync_s += secs(t);
        stats.batches += 1;
        if cfg.checkpoint_every > 0 && stats.batches % cfg.checkpoint_every == 0 {
            capture(&run, &mut log, &mut stats)?;
        }
        k = end;
    }
    let t = Instant::now();
    let blob = StateBlob::from_bytes(&last_wire).map_err(snapshot_err)?;
    A::Run::restore_with_log(&blob, &log).map_err(snapshot_err)?;
    stats.restore_s = secs(t);
    let t = Instant::now();
    let schedule = run.finish()?;
    stats.finish_s = secs(t);
    stats.accepted = decisions.iter().filter(|d| d.accepted).count();
    Ok((decisions, schedule, stats))
}

/// One daemon session: set-up, the timed submission loop, shutdown and
/// the checks.
#[derive(Default)]
struct Session {
    setup_s: f64,
    gen_s: f64,
    wall_s: f64,
    submitted: usize,
    queued: usize,
    refused: usize,
    decide_s: Vec<f64>,
    lag_s: Vec<f64>,
    submit_s: Vec<f64>,
    crash_s: Vec<f64>,
    recovery_s: Vec<f64>,
    recover_total_s: Vec<f64>,
    replayed_batches: usize,
    queue_full: usize,
    peak_queue_depth: usize,
    shutdown_s: f64,
    validate_s: f64,
    segments: usize,
    cost: f64,
    replay: Replay,
    traced: bool,
}

/// Crashes shard 0 and recovers it, recording the times; false (with the
/// failure counted) if either step fails.
fn crash_and_recover<A>(daemon: &mut Daemon<A>, s: &mut Session, outcome: &mut Outcome) -> bool
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let t = Instant::now();
    if let Err(e) = daemon.crash_shard(0, 0) {
        outcome.fail(format!("crash_shard failed: {e}"));
        return false;
    }
    s.crash_s.push(secs(t));
    match daemon.recover_shard(0) {
        Ok(r) => {
            s.recovery_s.push(r.recovery_secs);
            s.replayed_batches += r.replayed_batches;
            s.recover_total_s.push(secs(t));
            true
        }
        Err(e) => {
            outcome.fail(format!("recover_shard failed: {e}"));
            false
        }
    }
}

/// Times set-up only: instance generation plus `Daemon::spawn`.  The
/// daemon is shut down outside the timed part.
fn setup_only<A>(kind: Kind, algo: A, seed: u64) -> Result<f64, ScheduleError>
where
    A: OnlineAlgorithm,
    A::Run: LogCheckpointable + Send + 'static,
{
    let t = Instant::now();
    let instance = generate(kind, seed);
    let envelopes = arrival_envelopes(&instance);
    let (daemon, _handles) = Daemon::spawn(algo, config(kind), vec![tenant()])?;
    let setup = secs(t);
    std::hint::black_box(envelopes);
    daemon.shutdown()?;
    Ok(setup)
}

fn tenant() -> TenantSpec {
    TenantSpec::new("bench").rejecting_on_price()
}

fn session<A>(
    kind: Kind,
    algo: A,
    seed: u64,
    traced: bool,
    corrupt: Option<Corruption>,
    outcome: &mut Outcome,
) -> Option<Session>
where
    A: OnlineAlgorithm + Clone,
    A::Run: LogCheckpointable + Send + 'static,
{
    let cfg = config(kind);
    let mut s = Session {
        traced,
        ..Session::default()
    };
    let t = Instant::now();
    let instance = generate(kind, seed);
    let envelopes = arrival_envelopes(&instance);
    s.gen_s = secs(t);
    let spawned = Daemon::spawn(algo.clone(), cfg, vec![tenant()]);
    s.setup_s = secs(t);
    let (mut daemon, handles) = match spawned {
        Ok(d) => d,
        Err(e) => {
            outcome.fail(format!("Daemon::spawn failed: {e}"));
            return None;
        }
    };
    let handle = &handles[0];
    let n = envelopes.len();
    // Paced sessions crash mid-stream at fixed submission counts; flood
    // sessions crash once drained, so the drill does not disturb the
    // throughput it measures.
    let crashes: Vec<usize> = match kind {
        Kind::Paced => PACED_CRASHES
            .iter()
            .map(|f| (f * n as f64) as usize)
            .collect(),
        Kind::Flood => Vec::new(),
    };
    let policy = RetryPolicy::default();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut obs = Observer {
        queued: Vec::with_capacity(n),
        next: 0,
        decided_at: vec![f64::NAN; n],
    };
    let mut due = vec![0.0; n];
    let mut attempts = 0usize;
    let mut lost_value = 0.0;
    let base = envelopes[0].release;
    let t0 = Instant::now();
    for (i, env) in envelopes.iter().enumerate() {
        if crashes.contains(&i) && !crash_and_recover(&mut daemon, &mut s, outcome) {
            return None;
        }
        due[i] = match kind {
            Kind::Paced => {
                let due_at = (env.release - base) * MODEL_RATE / PACED_RATE;
                loop {
                    let now = secs(t0);
                    obs.poll(daemon.shard_watermark(0), now, &envelopes);
                    if now >= due_at {
                        break;
                    }
                    std::hint::spin_loop();
                }
                s.lag_s.push(secs(t0) - due_at);
                due_at
            }
            Kind::Flood => secs(t0),
        };
        let mut bounce = 0;
        loop {
            let t = traced.then(Instant::now);
            let result = handle.submit(*env);
            if let Some(t) = t {
                s.submit_s.push(secs(t));
            }
            attempts += 1;
            match result {
                Ok(Submission::Queued { .. }) => {
                    obs.queued.push(i);
                    break;
                }
                Ok(Submission::RejectedByPrice { .. }) => {
                    s.refused += 1;
                    lost_value += env.value;
                    break;
                }
                Err(IngressError::QueueFull { .. }) => {
                    s.queue_full += 1;
                    if kind == Kind::Flood {
                        let delay = policy.backoff_secs(bounce, &mut rng);
                        std::thread::sleep(Duration::from_secs_f64(delay));
                    }
                    bounce += 1;
                    obs.poll(daemon.shard_watermark(0), secs(t0), &envelopes);
                }
                Err(e) => {
                    outcome.fail(format!("submission {i} failed: {e}"));
                    lost_value += env.value;
                    break;
                }
            }
        }
        obs.poll(daemon.shard_watermark(0), secs(t0), &envelopes);
    }
    while !obs.done() {
        let now = secs(t0);
        if now > DRAIN_TIMEOUT_S {
            outcome.fail(format!(
                "{} queued jobs undecided after {DRAIN_TIMEOUT_S} s",
                obs.queued.len() - obs.next
            ));
            break;
        }
        obs.poll(daemon.shard_watermark(0), now, &envelopes);
        std::hint::spin_loop();
    }
    let drained_s = secs(t0);
    if kind == Kind::Flood {
        for _ in 0..FLOOD_CRASHES {
            if !crash_and_recover(&mut daemon, &mut s, outcome) {
                return None;
            }
        }
    }
    let t = Instant::now();
    let report = daemon.shutdown();
    s.shutdown_s = secs(t);
    s.wall_s = drained_s + s.shutdown_s;
    s.submitted = n;
    s.queued = obs.queued.len();
    outcome.attempted += n as u64;
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            outcome.fail(format!("shutdown failed: {e}"));
            return None;
        }
    };
    s.decide_s = obs
        .queued
        .iter()
        .map(|&i| obs.decided_at[i] - due[i])
        .filter(|d| d.is_finite())
        .collect();

    // Accounting: every submission ended in exactly one place, and every
    // queued job has exactly one event, in queue order.
    let summary = &report.tenants[0];
    let tenant_total = summary.accepted
        + summary.rejected_by_scheduler
        + summary.rejected_by_price
        + summary.rejected_invalid
        + summary.rejected_stale
        + summary.deferred
        + summary.queue_full
        + summary.quota_exceeded;
    if summary.submitted != attempts as u64 || tenant_total != attempts as u64 {
        outcome.fail(format!(
            "accounting: {attempts} attempts, tenant counted {} submitted, {tenant_total} outcomes",
            summary.submitted
        ));
    }
    if summary.rejected_by_price != s.refused as u64 || summary.queue_full != s.queue_full as u64 {
        outcome.fail("accounting: refused or queue-full counts disagree".into());
    }
    let shard = &mut report.shards[0];
    if shard.events.len() != s.queued {
        outcome.fail(format!(
            "accounting: {} queued jobs but {} events",
            s.queued,
            shard.events.len()
        ));
    }
    for (k, (event, &i)) in shard.events.iter().zip(&obs.queued).enumerate() {
        if event.tag != envelopes[i].tag {
            outcome.fail(format!("accounting: event {k} is not queued job {i}"));
        }
        if event.feed_time < event.release {
            outcome.fail(format!("event {k} fed before its release"));
        }
    }
    s.peak_queue_depth = shard.peak_queue_depth;
    s.segments = shard.schedule.segments.len();

    // The recorded output, optionally corrupted, against the oracle.
    let mut accepted: Vec<bool> = shard.events.iter().map(|e| e.accepted).collect();
    let mut duals: Vec<f64> = shard.events.iter().map(|e| e.dual).collect();
    if let Some(c) = corrupt {
        if let Err(e) = c.apply(&mut accepted, &mut duals, &mut shard.schedule) {
            outcome.fail(format!("--corrupt: {e}"));
        }
    }
    match replay(&algo, &cfg, shard) {
        Ok((decisions, schedule, stats)) => {
            let want_acc: Vec<bool> = decisions.iter().map(|d| d.accepted).collect();
            let want_dual: Vec<f64> = decisions.iter().map(|d| d.dual).collect();
            compare_decisions(
                outcome,
                "daemon vs fed-journal replay",
                (&accepted, &duals),
                (&want_acc, &want_dual),
            );
            compare_schedules(
                outcome,
                "daemon vs fed-journal replay",
                &shard.schedule,
                &schedule,
            );
            s.replay = stats;
        }
        Err(e) => outcome.fail(format!("fed-journal replay failed: {e}")),
    }
    let fed = match shard.instance(cfg.machines, cfg.alpha) {
        Ok(inst) => inst,
        Err(e) => {
            outcome.fail(format!("fed jobs do not form an instance: {e}"));
            return None;
        }
    };
    let values: Vec<f64> = fed.jobs.iter().map(|j| j.value).collect();
    check_duals(outcome, "daemon", &values, &accepted, &duals);
    s.cost = check_finished(outcome, "daemon", &fed, &accepted, &shard.schedule) + lost_value;
    if kind == Kind::Paced {
        // Validation scans every segment once per job: affordable for the
        // paced stream, not for the flood's.
        let t = Instant::now();
        if let Err(e) = pss_types::validate_schedule(&fed, &shard.schedule) {
            outcome.fail(format!("daemon schedule is infeasible: {e}"));
        }
        s.validate_s = secs(t);
    }
    Some(s)
}

fn run_sessions<A>(kind: Kind, algo: A, args: &Args, outcome: &mut Outcome) -> Vec<Session>
where
    A: OnlineAlgorithm + Clone,
    A::Run: LogCheckpointable + Send + 'static,
{
    let started = Instant::now();
    let mut sessions: Vec<Session> = Vec::new();
    let mut corrupt = args.corrupt;
    // Traced runs alternate untraced and traced sessions, so the two can
    // be compared within one process.
    while sessions.len() < if args.trace { 2 } else { 1 } || secs(started) < args.seconds {
        let traced = args.trace && sessions.len() % 2 == 1;
        match session(
            kind,
            algo.clone(),
            args.seed,
            traced,
            corrupt.take(),
            outcome,
        ) {
            Some(s) => sessions.push(s),
            None => break,
        }
    }
    let mut extra = Vec::new();
    while sessions.len() + extra.len() < MIN_SETUPS {
        match setup_only(kind, algo.clone(), args.seed) {
            Ok(s) => extra.push(s),
            Err(e) => {
                outcome.fail(format!("set-up failed: {e}"));
                break;
            }
        }
    }
    let mut setups: Vec<f64> = sessions.iter().map(|s| s.setup_s).collect();
    setups.extend(extra);
    outcome.set("setup_s", median(&setups));
    outcome.note(format!("set-up measured {} times", setups.len()));
    sessions
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    let mut outcome = Outcome::default();
    let sessions = match kind {
        Kind::Paced => run_sessions(kind, PdScheduler::coarse(), args, &mut outcome),
        Kind::Flood => run_sessions(kind, OaScheduler, args, &mut outcome),
    };
    if sessions.is_empty() {
        return outcome;
    }
    let pick = |f: &dyn Fn(&Session) -> f64| median(&sessions.iter().map(f).collect::<Vec<_>>());
    let pool = |f: &dyn Fn(&Session) -> &Vec<f64>| -> Vec<f64> {
        sessions.iter().flat_map(|s| f(s).iter().copied()).collect()
    };
    let decide = pool(&|s| &s.decide_s);
    let recover = pool(&|s| &s.recover_total_s);
    // Throughput and recovery are the same work in every session, and a
    // shared host only ever adds time, so each is its best over the run;
    // per crash, the fastest recovery, then the mean over the crashes
    // (the first replays more of the journal).
    let crashes = sessions
        .iter()
        .map(|s| s.recover_total_s.len())
        .min()
        .unwrap_or(0);
    let best_recover: Vec<f64> = (0..crashes)
        .map(|k| {
            sessions
                .iter()
                .map(|s| s.recover_total_s[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    outcome.set(
        "jobs_per_s",
        sessions
            .iter()
            .map(|s| s.submitted as f64 / s.wall_s)
            .fold(0.0, f64::max),
    );
    outcome.set("decide_p50_us", percentile(&decide, 50.0) * 1e6);
    outcome.set("decide_p99_us", percentile(&decide, 99.0) * 1e6);
    outcome.set("cost", pick(&|s| s.cost));
    outcome.set(
        "admitted_share",
        pick(&|s| s.queued as f64 / s.submitted as f64),
    );
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome.set(
        "recover_ms",
        best_recover.iter().sum::<f64>() / best_recover.len() as f64 * 1e3,
    );
    let lag = pool(&|s| &s.lag_s);
    let us = |v: &[f64], p: f64| percentile(v, p) * 1e6;
    outcome.note(format!(
        "{} sessions of {} submissions; jobs_per_s from the best session; recover_ms over \
         {} crash + recovery pairs, the fastest at each of {crashes} crashes",
        sessions.len(),
        sessions[0].submitted,
        recover.len()
    ));
    outcome.note(format!(
        "decide latency (us) over {} decided jobs: p50 {:.1} p90 {:.1} p99 {:.1} p99.9 {:.1} max {:.1}",
        decide.len(),
        us(&decide, 50.0),
        us(&decide, 90.0),
        us(&decide, 99.0),
        us(&decide, 99.9),
        us(&decide, 100.0)
    ));
    if kind == Kind::Paced {
        outcome.note(format!(
            "generator lag (us) over {} submissions: p50 {:.1} p99 {:.1} max {:.1}",
            lag.len(),
            us(&lag, 50.0),
            us(&lag, 99.0),
            us(&lag, 100.0)
        ));
    }

    if args.trace {
        let capture = |s: &Session| s.replay.capture_s.iter().sum::<f64>();
        let submit: Vec<f64> = sessions
            .iter()
            .filter(|s| s.traced)
            .flat_map(|s| s.submit_s.iter().copied())
            .collect();
        let wall_of = |traced: bool| {
            median(
                &sessions
                    .iter()
                    .filter(|s| s.traced == traced)
                    .map(|s| s.wall_s / s.submitted as f64)
                    .collect::<Vec<_>>(),
            )
        };
        let capture_max = sessions
            .iter()
            .flat_map(|s| s.replay.capture_s.iter().copied())
            .fold(0.0, f64::max);
        outcome.set("workloads.gen_s", pick(&|s| s.gen_s));
        outcome.set("sched.start_s", pick(&|s| s.replay.start_s));
        outcome.set("sched.arrive_s", pick(&|s| s.replay.arrive_s));
        outcome.set(
            "sched.arrive_p99_us",
            percentile(&pool(&|s| &s.replay.arrive_batch_s), 99.0) * 1e6,
        );
        outcome.set("sched.finish_s", pick(&|s| s.replay.finish_s));
        outcome.set("sched.batches", pick(&|s| s.replay.batches as f64));
        outcome.set("sched.accepted", pick(&|s| s.replay.accepted as f64));
        outcome.set("types.validate_s", pick(&|s| s.validate_s));
        outcome.set("types.segments", pick(&|s| s.segments as f64));
        outcome.set("ckpt.capture_s", pick(&capture));
        outcome.set("ckpt.capture_max_ms", capture_max * 1e3);
        outcome.set(
            "ckpt.capture_share",
            pick(&|s| capture(s) / s.replay.compute_s()),
        );
        outcome.set("ckpt.count", pick(&|s| s.replay.capture_s.len() as f64));
        outcome.set(
            "ckpt.blob_bytes_last",
            pick(&|s| s.replay.blob_bytes_last as f64),
        );
        outcome.set("ckpt.restore_ms", pick(&|s| s.replay.restore_s) * 1e3);
        outcome.set("seglog.sync_s", pick(&|s| s.replay.sync_s));
        outcome.set("serve.crash_ms", median(&pool(&|s| &s.crash_s)) * 1e3);
        outcome.set("serve.recovery_ms", median(&pool(&|s| &s.recovery_s)) * 1e3);
        outcome.set(
            "serve.replayed_batches",
            pick(&|s| s.replayed_batches as f64),
        );
        outcome.set("serve.submit_p50_us", percentile(&submit, 50.0) * 1e6);
        outcome.set("serve.submit_p99_us", percentile(&submit, 99.0) * 1e6);
        outcome.set("serve.queue_full", pick(&|s| s.queue_full as f64));
        outcome.set(
            "serve.peak_queue_depth",
            pick(&|s| s.peak_queue_depth as f64),
        );
        outcome.set("serve.shutdown_ms", pick(&|s| s.shutdown_s) * 1e3);
        outcome.set("serve.refused", pick(&|s| s.refused as f64));
        outcome.set(
            "serve.overhead_share",
            pick(&|s| (s.wall_s - s.replay.compute_s()) / s.wall_s),
        );
        if kind == Kind::Paced {
            outcome.set("gen.lag_p99_us", percentile(&lag, 99.0) * 1e6);
        }
        outcome.set(
            "trace.wall_s",
            median(
                &sessions
                    .iter()
                    .filter(|s| s.traced)
                    .map(|s| s.wall_s)
                    .collect::<Vec<_>>(),
            ),
        );
        outcome.set("trace.overhead_share", wall_of(true) / wall_of(false) - 1.0);
        outcome.note(format!(
            "purpose: checkpoint capture {:.1}% of worker compute; scheduler arrivals {:.1}% \
             of session wall time; {} submit-call samples",
            pick(&|s| capture(s) / s.replay.compute_s()) * 100.0,
            pick(&|s| s.replay.arrive_s / s.wall_s) * 100.0,
            submit.len()
        ));
    }
    outcome
}
