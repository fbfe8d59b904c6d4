//! The truly online, event-driven variant of PD.
//!
//! [`PdScheduler`](crate::pd::PdScheduler) runs over the atomic-interval
//! partition induced by the *whole* instance, which is convenient for
//! experiments but assumes the partition is known upfront.  The paper argues
//! ("Concerning the Time Partitioning", Section 3) that this is without loss
//! of generality: running the algorithm on the coarser partition known at
//! each arrival and splitting assigned work proportionally whenever a new
//! boundary refines an interval produces the identical schedule.
//!
//! [`OnlinePd`] implements that online version literally: jobs are fed one
//! by one via [`OnlinePd::arrive`], the partition grows by refinement, and
//! previously assigned work is split proportionally.  The equivalence with
//! the batch scheduler is verified by tests and by the `online_equivalence`
//! integration test.
//!
//! ## The persistent planning context
//!
//! The arrival step is **incremental**: the run keeps a persistent sparse
//! planning context — the current partition plus, per atomic interval, the
//! list of `(job, fraction)` loads assigned there — and updates it in place
//! on every arrival (partition refinement splits load entries
//! proportionally; an accepted fill appends its entries).  No job list is
//! cloned, no `Instance` is rebuilt and no dense `n × N` assignment is
//! materialised.  An arrival costs:
//!
//! * one binary search per window endpoint to refine the partition, plus
//!   the shift of the boundary and `loads` tails behind each inserted
//!   boundary (the intervals after it: the live window, not the history);
//! * one scan of the covered index range (two more binary searches find
//!   it), which reads each interval's load list once and folds every empty
//!   interval into one total length — no allocation per empty interval;
//! * the water-level search, whose every evaluation costs
//!   `O(log p)` per *loaded* covered interval (`p` its other jobs) and
//!   `O(1)` for all empty ones together (`pss_convex::FillProfile`);
//! * only for an accepted job, one pass over the covered range that
//!   appends its fractions to the load lists.  A rejected job leaves the
//!   lists untouched and expands no per-interval fraction.
//!
//! The pre-existing rebuild-from-scratch arrival step is retained behind
//! [`OnlinePd::with_rebuild_engine`] as an independently coded cross-check
//! (both engines must produce identical schedules; the
//! `incremental_equivalence` integration tests verify this) and as the
//! baseline of the `warm_replan` benchmark.

use pss_chen::{placement::place_interval, ChenInterval};
use pss_convex::{waterfill_job, FillLevel, FillProfile, ProgramContext, WaterfillOptions};
use pss_intervals::{BoundaryInsert, IntervalPartition, WorkAssignment};
use pss_power::AlphaPower;
use pss_types::num::Tolerance;
use pss_types::seglog::{FrontierPart, LogCheckpointable, SegmentLog};
use pss_types::snapshot::{
    BlobReader, BlobWriter, Checkpointable, SnapshotError, SnapshotPart, StateBlob,
};
use pss_types::{
    check_arrival, Decision, Instance, Job, JobId, OnlineScheduler, Schedule, ScheduleError,
    Segment, ARRIVAL_ORDER_TOLERANCE,
};

/// The persistent sparse planning context of the incremental engine: the
/// partition known so far and, per atomic interval, the `(dense job,
/// fraction)` loads assigned there.  This is the "cached instance +
/// partition updated in place" replacing the per-arrival rebuild.
#[derive(Debug, Clone)]
struct PlanState {
    partition: IntervalPartition,
    /// `loads[k]` lists the jobs with positive fraction in interval `k`.
    loads: Vec<Vec<(usize, f64)>>,
    /// The fill's scratch buffers, reused across arrivals (not state).
    profile: FillProfile,
}

impl PlanState {
    fn new() -> Self {
        Self {
            partition: IntervalPartition::from_boundaries(std::iter::empty()),
            loads: Vec::new(),
            profile: FillProfile::new(),
        }
    }

    /// Refines the partition with the new job's window endpoints **in
    /// place** and splits the affected load lists proportionally.  Each
    /// endpoint is an `O(log N)` search plus an `O(tail)` insertion —
    /// boundaries arrive in nondecreasing time order, so the moved tail is
    /// short and the committed prefix keeps its indices (the caller clamps
    /// the points to the committed-frontier floor, so no committed interval
    /// can ever split).  No new partition and no full `Refinement` mapping
    /// is ever materialised.
    fn refine(&mut self, points: &[f64]) {
        for &p in points {
            match self.partition.insert_boundary(p) {
                BoundaryInsert::Existing => {}
                BoundaryInsert::Append { created_interval } => {
                    if created_interval {
                        self.loads.push(Vec::new());
                    }
                }
                BoundaryInsert::Prepend { created_interval } => {
                    // Releases are nondecreasing, so a point before the very
                    // first boundary can only occur before anything was
                    // committed; the committed prefix is unaffected.
                    if created_interval {
                        self.loads.insert(0, Vec::new());
                    }
                }
                BoundaryInsert::Split {
                    interval,
                    left_fraction,
                } => {
                    let entries = &mut self.loads[interval];
                    let right: Vec<(usize, f64)> = entries
                        .iter()
                        .map(|&(j, f)| (j, f * (1.0 - left_fraction)))
                        .collect();
                    for e in entries.iter_mut() {
                        e.1 *= left_fraction;
                    }
                    self.loads.insert(interval + 1, right);
                }
            }
        }
        debug_assert_eq!(self.loads.len(), self.partition.len());
    }

    /// PD's arrival step for job `jobs[dense]` on this context: refines the
    /// partition with `points` (its clamped window endpoints), scans the
    /// covered range once into a [`FillProfile`] (loaded intervals with
    /// their works, empty ones as one total length), runs the capped
    /// water-fill and, if the job is accepted, appends its fractions to the
    /// load lists.
    fn fill(
        &mut self,
        jobs: &[Job],
        dense: usize,
        points: [f64; 2],
        power: AlphaPower,
        machines: usize,
        opts: &WaterfillOptions,
    ) -> FillLevel {
        self.refine(&points);
        let covered = self.partition.covered_range(&jobs[dense]);
        // One scan: a loaded interval goes in with its works; a run of
        // empty ones `[run, k)` goes in as one length, read off the
        // boundaries.
        let profile = &mut self.profile;
        profile.clear();
        let bounds = self.partition.boundaries();
        let mut run = covered.start;
        for k in covered.clone() {
            let entries = &self.loads[k];
            if entries.is_empty() {
                continue;
            }
            if k > run {
                profile.push_empty(k - run, bounds[k] - bounds[run]);
            }
            profile.push(
                k,
                bounds[k + 1] - bounds[k],
                entries.iter().map(|&(j, f)| f * jobs[j].work),
            );
            run = k + 1;
        }
        if covered.end > run {
            profile.push_empty(covered.end - run, bounds[covered.end] - bounds[run]);
        }
        let fill = profile.level(power, machines, jobs[dense].work, opts);
        if fill.saturated {
            for (k, f) in fill.fractions(profile, covered.map(|k| (k, bounds[k + 1] - bounds[k]))) {
                self.loads[k].push((dense, f));
            }
        }
        fill
    }
}

/// How a run maintains its planning context across arrivals.
#[derive(Debug, Clone)]
enum ArrivalEngine {
    /// Persistent sparse context updated in place (the default).
    Incremental(PlanState),
    /// Rebuild the dense context (`Instance` + `ProgramContext` +
    /// `WorkAssignment`) from scratch on every arrival — the pre-warm-start
    /// behaviour, kept as a cross-check and benchmark baseline.
    Rebuild {
        partition: IntervalPartition,
        assignment: WorkAssignment,
    },
}

/// Event-driven PD: feed jobs in release order, read out the schedule at any
/// point.
#[derive(Debug, Clone)]
pub struct OnlinePd {
    machines: usize,
    alpha: f64,
    power: AlphaPower,
    delta: f64,
    tol: Tolerance,
    engine: ArrivalEngine,
    /// Jobs in arrival order, re-indexed densely (`jobs[i].id == JobId(i)`).
    jobs: Vec<Job>,
    /// The original id of each arrived job.
    original_ids: Vec<JobId>,
    lambda: Vec<f64>,
    accepted: Vec<bool>,
    last_release: f64,
    /// Realised segments of every fully elapsed atomic interval (original
    /// job ids) — the committed frontier of the event-driven API.
    committed: Schedule,
    /// Number of leading partition intervals already realised into
    /// `committed`.  Refinement only ever adds boundaries at or after the
    /// current arrival time, so this prefix is stable.
    committed_prefix: usize,
}

impl OnlinePd {
    /// Creates an online PD instance for `machines` machines, exponent
    /// `alpha` and the default parameter `δ = α^{1-α}`.
    pub fn new(machines: usize, alpha: f64) -> Self {
        let delta = AlphaPower::new(alpha).delta_star();
        Self::with_delta(machines, alpha, delta)
    }

    /// Creates an online PD instance with an explicit `δ`.
    pub fn with_delta(machines: usize, alpha: f64, delta: f64) -> Self {
        Self::with_options(machines, alpha, delta, Tolerance::default())
    }

    /// Creates an online PD instance with an explicit `δ` and water-level
    /// search tolerance (the knobs of
    /// [`PdScheduler`](crate::pd::PdScheduler)).
    pub fn with_options(machines: usize, alpha: f64, delta: f64, tol: Tolerance) -> Self {
        assert!(machines > 0, "need at least one machine");
        assert!(delta > 0.0 && delta.is_finite(), "delta must be positive");
        let power = AlphaPower::new(alpha);
        Self {
            machines,
            alpha,
            power,
            delta,
            tol,
            engine: ArrivalEngine::Incremental(PlanState::new()),
            jobs: Vec::new(),
            original_ids: Vec::new(),
            lambda: Vec::new(),
            accepted: Vec::new(),
            last_release: f64::NEG_INFINITY,
            committed: Schedule::empty(machines),
            committed_prefix: 0,
        }
    }

    /// Switches this (fresh) run to the rebuild-per-arrival engine: the
    /// planning context (`Instance`, partition coverage, dense assignment)
    /// is reconstructed from the full job history on every arrival, exactly
    /// as before the persistent context existed.  Kept as an independently
    /// coded reference — both engines must produce identical schedules — and
    /// as the baseline of the warm-start benchmarks.
    ///
    /// # Panics
    /// Panics if jobs have already arrived.
    pub fn with_rebuild_engine(mut self) -> Self {
        assert!(
            self.jobs.is_empty(),
            "the engine can only be chosen before the first arrival"
        );
        self.engine = ArrivalEngine::Rebuild {
            partition: IntervalPartition::from_boundaries(std::iter::empty()),
            assignment: WorkAssignment::new(0),
        };
        self
    }

    /// Number of jobs that have arrived so far.
    pub fn arrived(&self) -> usize {
        self.jobs.len()
    }

    /// The accept/reject decisions so far, in arrival order, paired with the
    /// jobs' original ids.
    pub fn decisions(&self) -> Vec<(JobId, bool)> {
        self.original_ids
            .iter()
            .copied()
            .zip(self.accepted.iter().copied())
            .collect()
    }

    /// Feeds the next arriving job.  Jobs must be fed in nondecreasing order
    /// of release time (the online model); the job keeps its original id for
    /// the final schedule.  Returns whether PD accepted the job.
    pub fn arrive(&mut self, job: &Job) -> Result<bool, ScheduleError> {
        check_arrival(job, self.last_release, job.release)?;
        self.last_release = self.last_release.max(job.release);

        // 1. Register the job under a dense arrival index.
        let dense = self.jobs.len();
        self.jobs.push(Job::new(
            dense,
            job.release,
            job.deadline,
            job.work,
            job.value,
        ));
        self.original_ids.push(job.id);

        // 2. Refine the partition with the new boundaries (splitting the
        //    existing loads proportionally), run the greedy primal-dual step
        //    for the new job on the refined partition and keep its fill if
        //    it is accepted (Listing 1).  The boundary points are clamped to
        //    the committed-frontier floor: the arrival tolerance lets a
        //    release lie up to 1e-9 before the previous arrival, which could
        //    otherwise split an already-committed interval and double-realise
        //    the sliver.
        let floor = if self.committed_prefix > 0 {
            self.partition().boundaries()[self.committed_prefix]
        } else {
            f64::NEG_INFINITY
        };
        let boundary_points = [job.release.max(floor), job.deadline.max(floor)];
        let opts = WaterfillOptions {
            max_fraction: 1.0,
            max_marginal: Some(job.value / self.delta),
            tol: self.tol,
        };
        // The rebuild engine's dense context is built once per arrival and
        // reused for the commit step below, like the pre-warm-start code.
        let mut rebuild_ctx: Option<ProgramContext> = None;
        let (accepted, level_marginal) = match &mut self.engine {
            ArrivalEngine::Incremental(state) => {
                let fill = state.fill(
                    &self.jobs,
                    dense,
                    boundary_points,
                    self.power,
                    self.machines,
                    &opts,
                );
                (fill.saturated, fill.level_marginal)
            }
            ArrivalEngine::Rebuild {
                partition,
                assignment,
            } => {
                let (refined, refinement) = partition.refine(boundary_points);
                assignment.apply_refinement(&refinement);
                *partition = refined;
                assignment.ensure_job(dense);
                let ctx = rebuild_context(self.machines, self.alpha, &self.jobs, partition)?;
                let fill = waterfill_job(&ctx, assignment, dense, &opts);
                if fill.saturated {
                    for &(k, f) in &fill.added {
                        assignment.set(dense, k, f);
                    }
                }
                rebuild_ctx = Some(ctx);
                (fill.saturated, fill.level_marginal)
            }
        };
        self.lambda.push(if accepted {
            self.delta * level_marginal
        } else {
            job.value
        });
        self.accepted.push(accepted);

        // 3. Commit every interval that has fully elapsed: its loads can
        //    never change again (later jobs are released at or after `now`
        //    and refinement only adds boundaries `>= now`), so its
        //    realisation is final.
        self.commit_elapsed(job.release, rebuild_ctx.as_ref())?;
        Ok(accepted)
    }

    /// Realises interval `k` of the current planning context, with the jobs'
    /// **original** ids.  `ctx` must be the rebuild engine's current dense
    /// context (ignored by the incremental engine).
    fn realize_interval(
        &self,
        k: usize,
        ctx: Option<&ProgramContext>,
    ) -> Result<Vec<Segment>, ScheduleError> {
        match &self.engine {
            ArrivalEngine::Incremental(state) => {
                let entries = &state.loads[k];
                if entries.is_empty() {
                    return Ok(Vec::new());
                }
                let iv = state.partition.interval(k);
                let works: Vec<f64> = entries
                    .iter()
                    .map(|&(j, f)| f * self.jobs[j].work)
                    .collect();
                if works.iter().all(|u| *u <= 0.0) {
                    return Ok(Vec::new());
                }
                let sol = ChenInterval::new(iv.length(), self.machines, self.power).solve(&works);
                Ok(place_interval(&sol, iv.start, 0, |i| {
                    self.original_ids[entries[i].0]
                }))
            }
            ArrivalEngine::Rebuild { assignment, .. } => {
                let ctx = ctx.ok_or_else(|| {
                    ScheduleError::Internal(
                        "rebuild engine: realisation needs the dense context".into(),
                    )
                })?;
                let mut segments = ctx.realize_interval(assignment, k);
                for seg in &mut segments {
                    if let Some(j) = seg.job {
                        seg.job = Some(self.original_ids[j.index()]);
                    }
                }
                Ok(segments)
            }
        }
    }

    /// The partition of the engine currently in use.
    fn partition(&self) -> &IntervalPartition {
        match &self.engine {
            ArrivalEngine::Incremental(state) => &state.partition,
            ArrivalEngine::Rebuild { partition, .. } => partition,
        }
    }

    /// Builds the rebuild engine's dense context (`None` for the incremental
    /// engine) — once per caller, not per interval.
    fn current_rebuild_context(&self) -> Result<Option<ProgramContext>, ScheduleError> {
        match &self.engine {
            ArrivalEngine::Incremental(_) => Ok(None),
            ArrivalEngine::Rebuild { partition, .. } => Ok(Some(rebuild_context(
                self.machines,
                self.alpha,
                &self.jobs,
                partition,
            )?)),
        }
    }

    /// Realises (and remembers) every not-yet-committed interval ending at
    /// or before `now`.  `ctx` is the rebuild engine's current dense context
    /// if the caller already built one this arrival (built here otherwise).
    fn commit_elapsed(
        &mut self,
        now: f64,
        ctx: Option<&ProgramContext>,
    ) -> Result<(), ScheduleError> {
        let built;
        let ctx = match ctx {
            Some(ctx) => Some(ctx),
            None => {
                built = self.current_rebuild_context()?;
                built.as_ref()
            }
        };
        while self.committed_prefix < self.partition().len() {
            let iv = self.partition().interval(self.committed_prefix);
            if iv.end > now + 1e-12 {
                break;
            }
            for seg in self.realize_interval(iv.index, ctx)? {
                self.committed.push(seg);
            }
            self.committed_prefix += 1;
        }
        Ok(())
    }

    /// The current schedule for everything that has arrived so far, with the
    /// jobs' original ids.
    pub fn schedule(&self) -> Result<Schedule, ScheduleError> {
        let mut schedule = Schedule::empty(self.machines);
        if self.jobs.is_empty() {
            return Ok(schedule);
        }
        let ctx = self.current_rebuild_context()?;
        for k in 0..self.partition().len() {
            for seg in self.realize_interval(k, ctx.as_ref())? {
                schedule.push(seg);
            }
        }
        Ok(schedule)
    }

    /// Feeds a burst of jobs arriving together: one pass over the
    /// persistent sparse planning context — per-job partition refinement +
    /// water-fill in slice order (the greedy primal-dual step is
    /// order-dependent, so the fills stay sequential — exactly Listing 1's
    /// semantics) — with the boundary floor resolved once and **one**
    /// frontier commit (the per-interval Chen realisations) at the end
    /// instead of one per arrival.
    ///
    /// Splitting an interval proportionally never changes any water level
    /// or realised speed (the paper's partition-refinement invariance,
    /// Section 3), so committing after the whole burst realises exactly
    /// what the one-at-a-time interleaving would have; the
    /// burst-equivalence integration tests (`tests/incremental_equivalence.rs`)
    /// pin this.  Returns the accept decision per job, like
    /// [`arrive`](Self::arrive).
    ///
    /// The rebuild reference engine has no batched context update and
    /// simply loops [`arrive`](Self::arrive).
    pub fn arrive_burst(&mut self, jobs: &[Job], now: f64) -> Result<Vec<bool>, ScheduleError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        // Validate the whole burst (against the loop's sequential ordering
        // contract) before mutating any state.
        let mut last = self.last_release;
        for job in jobs {
            if now < job.release - ARRIVAL_ORDER_TOLERANCE {
                return Err(ScheduleError::Internal(format!(
                    "job {} fed before its release time ({} < {})",
                    job.id, now, job.release
                )));
            }
            check_arrival(job, last, job.release)?;
            last = last.max(job.release);
        }
        if matches!(self.engine, ArrivalEngine::Rebuild { .. }) {
            // The reference engine rebuilds its dense context per arrival
            // anyway; batching would change what it is a baseline for.
            return jobs.iter().map(|job| self.arrive(job)).collect();
        }

        // The committed frontier cannot advance inside the burst (the
        // commit below is deferred), so the boundary floor is fixed once.
        let floor = if self.committed_prefix > 0 {
            self.partition().boundaries()[self.committed_prefix]
        } else {
            f64::NEG_INFINITY
        };
        let ArrivalEngine::Incremental(state) = &mut self.engine else {
            unreachable!("rebuild engine handled above");
        };

        // The sequential greedy fills, job by job on the shared context.
        // Each job refines the partition with its own two boundaries just
        // before its fill (not all burst boundaries upfront: a fill's cost
        // scales with the candidate sub-intervals it sees, so refining
        // lazily keeps the burst's earlier fills on the coarser partition,
        // exactly like the one-at-a-time path — refinement invariance makes
        // either order produce the same fills).
        let mut accepted = Vec::with_capacity(jobs.len());
        for job in jobs {
            let dense = self.jobs.len();
            self.jobs.push(Job::new(
                dense,
                job.release,
                job.deadline,
                job.work,
                job.value,
            ));
            self.original_ids.push(job.id);
            let opts = WaterfillOptions {
                max_fraction: 1.0,
                max_marginal: Some(job.value / self.delta),
                tol: self.tol,
            };
            let fill = state.fill(
                &self.jobs,
                dense,
                [job.release.max(floor), job.deadline.max(floor)],
                self.power,
                self.machines,
                &opts,
            );
            if fill.saturated {
                self.lambda.push(self.delta * fill.level_marginal);
            } else {
                self.lambda.push(job.value);
            }
            self.accepted.push(fill.saturated);
            accepted.push(fill.saturated);
            self.last_release = self.last_release.max(job.release);
        }

        // One frontier commit for the whole burst: realising an atomic
        // interval (a Chen solve per interval) is the expensive part of an
        // arrival on a jittered burst, and deferring it until the burst's
        // loads are final does it once instead of per sliver.
        self.commit_elapsed(self.last_release, None)?;
        Ok(accepted)
    }

    /// Convenience: runs the online algorithm over a whole instance (feeding
    /// jobs in release order) and returns the schedule in the instance's
    /// original job ids.
    pub fn run_instance(instance: &Instance) -> Result<Schedule, ScheduleError> {
        let mut online = Self::new(instance.machines, instance.alpha);
        for id in instance.arrival_order() {
            online.arrive(instance.job(id))?;
        }
        online.schedule()
    }
}

impl SnapshotPart for PlanState {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_part(&self.partition);
        w.write_usize(self.loads.len());
        for entries in &self.loads {
            w.write_seq(entries);
        }
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        let partition: IntervalPartition = r.read_part()?;
        let n = r.read_len(8)?;
        let mut loads = Vec::with_capacity(n);
        for _ in 0..n {
            loads.push(r.read_seq::<(usize, f64)>()?);
        }
        if loads.len() != partition.len() {
            return Err(SnapshotError::Invalid(format!(
                "{} load lists for {} intervals",
                loads.len(),
                partition.len()
            )));
        }
        Ok(Self {
            partition,
            loads,
            profile: FillProfile::new(),
        })
    }
}

impl SnapshotPart for ArrivalEngine {
    fn encode(&self, w: &mut BlobWriter) {
        match self {
            ArrivalEngine::Incremental(state) => {
                w.write_u8(0);
                w.write_part(state);
            }
            ArrivalEngine::Rebuild {
                partition,
                assignment,
            } => {
                w.write_u8(1);
                w.write_part(partition);
                w.write_part(assignment);
            }
        }
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        match r.read_u8()? {
            0 => Ok(ArrivalEngine::Incremental(r.read_part()?)),
            1 => Ok(ArrivalEngine::Rebuild {
                partition: r.read_part()?,
                assignment: r.read_part()?,
            }),
            other => Err(SnapshotError::Invalid(format!(
                "unknown PD arrival engine tag {other}"
            ))),
        }
    }
}

/// State version of [`OnlinePd`] snapshots.  Version 2 stores the
/// committed frontier as a [`FrontierPart`] (inline or a segment-log
/// cursor); version-1 blobs are rejected with a typed error.
const PD_STATE_VERSION: u16 = 2;

impl OnlinePd {
    fn encode_snapshot(&self, frontier: &FrontierPart) -> StateBlob {
        let mut w = BlobWriter::new();
        w.write_usize(self.machines);
        w.write_f64(self.alpha);
        w.write_f64(self.delta);
        w.write_part(&self.tol);
        w.write_part(&self.engine);
        w.write_seq(&self.jobs);
        w.write_seq(&self.original_ids);
        w.write_seq(&self.lambda);
        w.write_seq(&self.accepted);
        w.write_f64(self.last_release);
        w.write_part(frontier);
        w.write_usize(self.committed_prefix);
        StateBlob::new("pd", PD_STATE_VERSION, w.into_payload())
    }

    fn decode_snapshot(blob: &StateBlob, log: Option<&SegmentLog>) -> Result<Self, SnapshotError> {
        let mut r = blob.expect("pd", PD_STATE_VERSION)?;
        let machines = r.read_usize()?;
        let alpha = r.read_f64()?;
        let delta = r.read_f64()?;
        if machines == 0
            || !(delta > 0.0 && delta.is_finite())
            || !(alpha.is_finite() && alpha > 1.0)
        {
            return Err(SnapshotError::Invalid("PD parameters out of range".into()));
        }
        let state = Self {
            machines,
            alpha,
            power: AlphaPower::new(alpha),
            delta,
            tol: r.read_part()?,
            engine: r.read_part()?,
            jobs: r.read_seq()?,
            original_ids: r.read_seq()?,
            lambda: r.read_seq()?,
            accepted: r.read_seq()?,
            last_release: r.read_f64()?,
            committed: r.read_part::<FrontierPart>()?.resolve(log)?,
            committed_prefix: r.read_usize()?,
        };
        r.finish()?;
        let n = state.jobs.len();
        if state.original_ids.len() != n
            || state.lambda.len() != n
            || state.accepted.len() != n
            || state.committed_prefix > state.partition().len()
        {
            return Err(SnapshotError::Invalid(
                "PD job tables disagree in length".into(),
            ));
        }
        // The engine's load/assignment tables index into the job history;
        // restore must stay total, so a dangling index is an error here
        // rather than a panic at the next arrival.
        match &state.engine {
            ArrivalEngine::Incremental(plan) => {
                if plan
                    .loads
                    .iter()
                    .any(|entries| entries.iter().any(|&(j, _)| j >= n))
                {
                    return Err(SnapshotError::Invalid(
                        "PD planning context references unknown jobs".into(),
                    ));
                }
            }
            ArrivalEngine::Rebuild {
                partition,
                assignment,
            } => {
                if assignment.n_jobs() > n || assignment.n_intervals() != partition.len() {
                    return Err(SnapshotError::Invalid(
                        "PD rebuild assignment disagrees with the partition".into(),
                    ));
                }
            }
        }
        Ok(state)
    }
}

/// The snapshot holds PD's complete dynamic state: the persistent sparse
/// planning context (partition boundaries + per-interval `(job, fraction)`
/// load lists — or the rebuild engine's partition and dense assignment),
/// the dense job history with original ids, the duals and decisions so far,
/// the committed frontier with its realised prefix length, and the run
/// parameters (`m`, `α`, `δ`, water-level tolerance).  The power function is
/// re-derived from `α` on restore; continuation is bit-identical.
impl Checkpointable for OnlinePd {
    fn snapshot(&self) -> StateBlob {
        self.encode_snapshot(&FrontierPart::Inline(self.committed.clone()))
    }

    fn restore(blob: &StateBlob) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(blob, None)
    }
}

/// O(active) checkpointing: the committed frontier lives in the run's
/// [`SegmentLog`]; the blob stores only a cursor (the realised-prefix
/// index `committed_prefix` is live state and stays in the blob).
impl LogCheckpointable for OnlinePd {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        let cursor = log.sync_from(&self.committed)?;
        Ok(self.encode_snapshot(&FrontierPart::cursor_of(self.committed.machines, cursor)))
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        Self::decode_snapshot(blob, Some(log))
    }
}

/// Builds the dense planning context of the rebuild engine: clones the full
/// job history into a fresh `Instance` and re-derives every job's interval
/// coverage — `O(n·N)` per call, which is exactly the per-arrival cost the
/// persistent context removes.
fn rebuild_context(
    machines: usize,
    alpha: f64,
    jobs: &[Job],
    partition: &IntervalPartition,
) -> Result<ProgramContext, ScheduleError> {
    let instance = Instance::from_jobs(machines, alpha, jobs.to_vec())
        .map_err(|e| ScheduleError::Internal(e.to_string()))?;
    Ok(ProgramContext::with_partition(&instance, partition.clone()))
}

impl OnlineScheduler for OnlinePd {
    fn on_arrival(&mut self, job: &Job, now: f64) -> Result<Decision, ScheduleError> {
        // Only the `now`-specific half of the ingress contract is checked
        // here; `arrive` performs the full `check_arrival` (including the
        // one-time job validation) against the release time.
        if now < job.release - ARRIVAL_ORDER_TOLERANCE {
            return Err(ScheduleError::Internal(format!(
                "job {} fed before its release time ({} < {})",
                job.id, now, job.release
            )));
        }
        let accepted = self.arrive(job)?;
        // The Decision convention of `pss_types::scheduler`: accepted jobs
        // report their dual variable λ_j (the water level reached), rejected
        // jobs always report their lost value.
        Ok(if accepted {
            Decision::accept(self.lambda.last().copied().unwrap_or(0.0))
        } else {
            Decision::reject(job.value)
        })
    }

    /// Batch ingestion through [`arrive_burst`](OnlinePd::arrive_burst):
    /// one partition update and one frontier commit per burst, sequential
    /// (order-exact) water-fills, decisions under the workspace dual
    /// convention.
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        let before = self.lambda.len();
        let accepted = self.arrive_burst(jobs, now)?;
        Ok(accepted
            .into_iter()
            .enumerate()
            .map(|(i, ok)| {
                if ok {
                    Decision::accept(self.lambda[before + i])
                } else {
                    Decision::reject(jobs[i].value)
                }
            })
            .collect())
    }

    fn frontier(&self) -> &Schedule {
        &self.committed
    }

    fn finish(mut self) -> Result<Schedule, ScheduleError> {
        if self.jobs.is_empty() {
            return Ok(Schedule::empty(self.machines));
        }
        self.commit_elapsed(f64::INFINITY, None)?;
        Ok(self.committed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pd::PdScheduler;
    use pss_types::validate_schedule;

    fn instance() -> Instance {
        Instance::from_tuples(
            2,
            2.5,
            vec![
                (0.0, 3.0, 1.5, 6.0),
                (0.5, 2.0, 1.0, 0.2),
                (1.0, 4.0, 2.0, 5.0),
                (2.0, 3.5, 1.0, 2.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn online_matches_batch_pd() {
        let inst = instance();
        let batch = PdScheduler::default().run(&inst).unwrap();
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        for id in inst.arrival_order() {
            let accepted = online.arrive(inst.job(id)).unwrap();
            assert_eq!(
                accepted,
                batch.accepted[id.index()],
                "decision for {id} differs between online and batch PD"
            );
        }
        let online_cost = online.schedule().unwrap().cost(&inst).total();
        let batch_cost = batch.schedule.cost(&inst).total();
        assert!(
            (online_cost - batch_cost).abs() < 1e-6 * batch_cost.max(1.0),
            "online {online_cost} vs batch {batch_cost}"
        );
    }

    #[test]
    fn incremental_engine_matches_rebuild_engine() {
        let inst = instance();
        let mut warm = OnlinePd::new(inst.machines, inst.alpha);
        let mut cold = OnlinePd::new(inst.machines, inst.alpha).with_rebuild_engine();
        for id in inst.arrival_order() {
            let a = warm.arrive(inst.job(id)).unwrap();
            let b = cold.arrive(inst.job(id)).unwrap();
            assert_eq!(a, b, "decision for {id} differs between engines");
            assert!(
                (warm.lambda.last().unwrap() - cold.lambda.last().unwrap()).abs() < 1e-9,
                "duals differ for {id}"
            );
        }
        let sw = warm.schedule().unwrap();
        let sc = cold.schedule().unwrap();
        assert!(
            (sw.cost(&inst).total() - sc.cost(&inst).total()).abs()
                < 1e-9 * sc.cost(&inst).total().max(1.0)
        );
        for t in [0.25, 0.75, 1.5, 2.25, 3.25] {
            assert!(
                (sw.total_speed_at(t) - sc.total_speed_at(t)).abs() < 1e-9,
                "profiles differ at t={t}"
            );
        }
    }

    #[test]
    fn online_schedule_is_feasible_at_every_prefix() {
        let inst = instance();
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        for (i, id) in inst.arrival_order().into_iter().enumerate() {
            online.arrive(inst.job(id)).unwrap();
            let schedule = online.schedule().unwrap();
            // Validate against the prefix instance (jobs released so far).
            let prefix_ids: Vec<JobId> = inst.arrival_order()[..=i].to_vec();
            let mut jobs: Vec<Job> = prefix_ids.iter().map(|j| *inst.job(*j)).collect();
            // Re-densify for validation.
            jobs.sort_by_key(|j| j.id);
            let dense: Vec<Job> = jobs
                .iter()
                .enumerate()
                .map(|(k, j)| Job::new(k, j.release, j.deadline, j.work, j.value))
                .collect();
            let id_map: std::collections::HashMap<usize, usize> = jobs
                .iter()
                .enumerate()
                .map(|(k, j)| (j.id.index(), k))
                .collect();
            let prefix_inst = Instance::from_jobs(inst.machines, inst.alpha, dense).unwrap();
            let mut remapped = Schedule::empty(inst.machines);
            for mut seg in schedule.segments {
                if let Some(j) = seg.job {
                    seg.job = Some(JobId(id_map[&j.index()]));
                }
                remapped.push(seg);
            }
            assert!(validate_schedule(&prefix_inst, &remapped).is_ok());
        }
    }

    #[test]
    fn out_of_order_arrivals_are_rejected() {
        let mut online = OnlinePd::new(1, 2.0);
        online.arrive(&Job::new(0, 5.0, 6.0, 1.0, 1.0)).unwrap();
        let err = online.arrive(&Job::new(1, 1.0, 2.0, 1.0, 1.0));
        assert!(err.is_err());
    }

    #[test]
    fn non_finite_jobs_are_rejected_at_ingress() {
        let mut online = OnlinePd::new(1, 2.0);
        let mut bad = Job::new(0, 0.0, 1.0, 1.0, 1.0);
        bad.work = f64::NAN;
        assert!(online.arrive(&bad).is_err());
        assert_eq!(online.arrived(), 0);
    }

    #[test]
    fn decisions_report_original_ids() {
        let inst = instance();
        let mut online = OnlinePd::new(inst.machines, inst.alpha);
        for id in inst.arrival_order() {
            online.arrive(inst.job(id)).unwrap();
        }
        let decisions = online.decisions();
        assert_eq!(decisions.len(), inst.len());
        let ids: Vec<JobId> = decisions.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, inst.arrival_order());
    }

    #[test]
    fn run_instance_convenience_matches_batch_cost() {
        let inst = instance();
        let online = OnlinePd::run_instance(&inst).unwrap();
        let batch = PdScheduler::default().run(&inst).unwrap();
        let a = online.cost(&inst).total();
        let b = batch.schedule.cost(&inst).total();
        assert!((a - b).abs() < 1e-6 * b.max(1.0));
    }

    #[test]
    fn empty_online_schedule_is_empty() {
        let online = OnlinePd::new(3, 2.0);
        assert_eq!(online.arrived(), 0);
        assert!(online.schedule().unwrap().segments.is_empty());
    }

    #[test]
    fn rejected_jobs_follow_the_decision_convention() {
        // A hopeless job: huge work over a short window, negligible value.
        let job = Job::new(0, 0.0, 1.0, 10.0, 0.01);
        let mut online = OnlinePd::new(1, 2.0);
        let d = online.on_arrival(&job, 0.0).unwrap();
        assert!(!d.accepted);
        assert_eq!(d.dual, 0.01, "rejected jobs report their lost value");
    }
}
