//! End-to-end pipeline integration tests: workload generator → PD →
//! schedule validation → simulator → metrics, checking that every layer
//! agrees with the others.

mod common;

use common::pipeline_families as families;
use pss_core::prelude::*;
use pss_core::types::{num, ScheduleError, ValidationReport};
use pss_metrics::evaluate_scheduler;
use pss_sim::{JobOutcome, SimReport, Simulation};

#[test]
fn pd_schedules_are_feasible_and_consistent_across_layers() {
    for cfg in families() {
        let instance = cfg.generate();
        let run = PdScheduler::default().run(&instance).expect("PD run");

        // Validation layer agrees with the run's accept/reject decisions.
        let report = validate_schedule(&instance, &run.schedule).expect("feasible schedule");
        for (j, accepted) in run.accepted.iter().enumerate() {
            assert_eq!(
                *accepted, report.finished[j],
                "seed {}: job {j} acceptance/finish mismatch",
                cfg.seed
            );
        }

        // Cost accounting agrees between Schedule::cost, the validator and
        // the simulator.
        let cost = run.schedule.cost(&instance);
        assert!((cost.energy - report.energy).abs() < 1e-6 * cost.energy.max(1.0));
        let sim = Simulation
            .run(&instance, &run.schedule)
            .expect("simulation");
        assert!((sim.total_energy - cost.energy).abs() < 1e-6 * cost.energy.max(1.0));
        assert!((sim.lost_value - cost.lost_value).abs() < 1e-9);
        assert!((sim.total_cost() - cost.total()).abs() < 1e-6 * cost.total().max(1.0));

        // The metrics layer reports the same cost.
        let result = evaluate_scheduler(&PdScheduler::default(), &instance).expect("metrics run");
        assert!((result.cost.total() - cost.total()).abs() < 1e-6 * cost.total().max(1.0));
        assert_eq!(
            result.finished_jobs,
            run.accepted.iter().filter(|a| **a).count()
        );
    }
}

#[test]
fn certified_guarantee_holds_on_every_generated_family() {
    for cfg in families() {
        let instance = cfg.generate();
        let run = PdScheduler::default().run(&instance).expect("PD run");
        let analysis = analyze_run(&run);
        assert!(
            analysis.guarantee_holds(),
            "seed {}: cost {} exceeds alpha^alpha * dual bound {} * {}",
            cfg.seed,
            analysis.cost.total(),
            analysis.competitive_bound,
            analysis.dual.value
        );
        // The dual bound can never exceed what any feasible schedule costs;
        // the cheapest trivial schedule rejects everything.
        assert!(analysis.dual.value <= instance.total_value() + 1e-6);
    }
}

#[test]
fn baselines_produce_feasible_schedules_on_shared_workloads() {
    let instance = common::profitable_values(77, 1, 2.0, 15, 0.5, 5.0);

    let algorithms: Vec<Box<dyn Scheduler>> = vec![
        Box::new(PdScheduler::default()),
        Box::new(CllScheduler),
        Box::new(OaScheduler),
        Box::new(AvrScheduler),
        Box::new(QoaScheduler::default()),
        Box::new(BkpScheduler::default()),
        Box::new(YdsScheduler),
        Box::new(MinEnergyScheduler::default()),
    ];
    for algo in &algorithms {
        let schedule = algo.schedule(&instance).expect("algorithm runs");
        validate_schedule(&instance, &schedule)
            .unwrap_or_else(|e| panic!("{} produced an infeasible schedule: {e}", algo.name()));
    }
}

#[test]
fn mandatory_value_instances_are_fully_accepted_by_pd() {
    let instance = common::mandatory(8, 3, 2.5, 20);
    let run = PdScheduler::default().run(&instance).expect("PD run");
    assert!(
        run.accepted.iter().all(|a| *a),
        "PD rejected a mandatory job"
    );
    let report = validate_schedule(&instance, &run.schedule).expect("feasible");
    assert_eq!(report.finished_count(), instance.len());
}

/// The validator's structural checks and accounting as they were before
/// segments were grouped by job: the per-machine and per-job overlap scans
/// compare each segment only with its predecessor, and each job's segments
/// are found by scanning the whole schedule.  The per-segment checks are
/// left out: the caller only passes well-formed schedules.
fn reference_validate(
    instance: &Instance,
    schedule: &Schedule,
) -> Result<ValidationReport, ScheduleError> {
    for machine in 0..instance.machines {
        let segs = schedule.machine_segments(machine);
        for pair in segs.windows(2) {
            if pair[0].overlaps(&pair[1]) {
                return Err(ScheduleError::BadSegment(format!(
                    "machine {machine} runs two overlapping segments: {:?} and {:?}",
                    pair[0], pair[1]
                )));
            }
        }
    }
    for j in 0..instance.len() {
        let mut segs: Vec<_> = schedule
            .segments
            .iter()
            .filter(|s| s.job == Some(JobId(j)))
            .collect();
        segs.sort_by(|a, b| a.start.total_cmp(&b.start));
        for pair in segs.windows(2) {
            if pair[0].overlaps(pair[1]) && pair[0].machine != pair[1].machine {
                return Err(ScheduleError::BadSegment(format!(
                    "job j{j} runs on machines {} and {} simultaneously",
                    pair[0].machine, pair[1].machine
                )));
            }
            if pair[0].overlaps(pair[1]) && pair[0].machine == pair[1].machine {
                return Err(ScheduleError::BadSegment(format!(
                    "job j{j} has overlapping segments on machine {}",
                    pair[0].machine
                )));
            }
        }
    }
    let work_done = schedule.work_per_job(instance.len());
    let finished: Vec<bool> = instance
        .jobs
        .iter()
        .map(|job| num::approx_ge(work_done[job.id.index()], job.work))
        .collect();
    let rejected = (0..instance.len())
        .filter(|&i| !finished[i])
        .map(JobId)
        .collect();
    Ok(ValidationReport {
        work_done,
        finished,
        rejected,
        energy: schedule.energy(instance.alpha),
    })
}

/// The simulator's per-job replay as it was before segments were grouped
/// by job: each job's segments are found by scanning the whole schedule.
fn reference_job_outcomes(instance: &Instance, schedule: &Schedule) -> Vec<JobOutcome> {
    let mut jobs = Vec::with_capacity(instance.len());
    for job in &instance.jobs {
        let mut segs: Vec<&Segment> = schedule
            .segments
            .iter()
            .filter(|s| s.job == Some(job.id))
            .collect();
        segs.sort_by(|a, b| a.start.total_cmp(&b.start));
        let mut work_done = 0.0;
        let mut completion_time = None;
        let mut preemptions = 0usize;
        let mut migrations = 0usize;
        let mut prev: Option<&Segment> = None;
        for seg in segs {
            if let Some(p) = prev {
                if !num::approx_eq(p.end, seg.start) {
                    preemptions += 1;
                }
                if p.machine != seg.machine {
                    migrations += 1;
                }
            }
            let before = work_done;
            work_done += seg.work_amount();
            if completion_time.is_none() && num::approx_ge(work_done, job.work) {
                let needed = job.work - before;
                let t = if seg.speed > 0.0 {
                    seg.start + needed / seg.speed
                } else {
                    seg.end
                };
                completion_time = Some(t.min(seg.end));
            }
            prev = Some(seg);
        }
        let finished = num::approx_ge(work_done, job.work);
        jobs.push(JobOutcome {
            job: job.id,
            work_done,
            finished,
            completion_time: if finished { completion_time } else { None },
            slack: if finished {
                completion_time.map(|t| job.deadline - t)
            } else {
                None
            },
            preemptions,
            migrations,
        });
    }
    jobs
}

/// Every segment passes the validator's per-segment checks, which
/// [`reference_validate`] leaves out.
fn well_formed(instance: &Instance, schedule: &Schedule) -> bool {
    schedule.segments.iter().all(|s| {
        s.start.is_finite()
            && s.end.is_finite()
            && s.speed >= 0.0
            && s.end > s.start
            && s.machine < instance.machines
            && s.job.is_none_or(|j| {
                j.index() < instance.len() && instance.job(j).covers(s.start, s.end)
            })
    })
}

/// Pins `validate_schedule` and `Simulation::run` against the references;
/// returns whether the schedule was accepted.
fn pin_against_reference(label: &str, instance: &Instance, schedule: &Schedule) -> bool {
    assert!(
        well_formed(instance, schedule),
        "{label}: malformed segment"
    );
    let expected = reference_validate(instance, schedule);
    assert_eq!(
        validate_schedule(instance, schedule),
        expected,
        "{label}: validation differs from the reference"
    );
    let sim = Simulation.run(instance, schedule);
    match (&sim, &expected) {
        (Ok(sim), Ok(_)) => {
            let jobs = reference_job_outcomes(instance, schedule);
            let lost_value = num::stable_sum(
                jobs.iter()
                    .filter(|o| !o.finished)
                    .map(|o| instance.job(o.job).value),
            );
            let reference = SimReport {
                preemptions: jobs.iter().map(|o| o.preemptions).sum(),
                migrations: jobs.iter().map(|o| o.migrations).sum(),
                lost_value,
                jobs,
                ..sim.clone()
            };
            assert_eq!(
                sim, &reference,
                "{label}: replay differs from the reference"
            );
        }
        (Err(e), Err(r)) => assert_eq!(e, r, "{label}: replay error differs"),
        _ => panic!("{label}: replay and validation disagree: {sim:?} vs {expected:?}"),
    }
    expected.is_ok()
}

#[test]
fn grouped_validation_and_replay_match_the_per_job_scan() {
    let mut schedules: Vec<(String, Instance, Schedule)> = Vec::new();
    for m in [1usize, 2, 4] {
        for seed in [11u64, 12] {
            let instance = common::poisson_profitable(seed, m, 2.5, 40, 2.0);
            let mut algorithms: Vec<Box<dyn Scheduler>> = vec![
                Box::new(PdScheduler::default()),
                Box::new(MultiOaScheduler::default()),
            ];
            // OA, AVR and BKP are single-machine algorithms.
            if m == 1 {
                algorithms.push(Box::new(OaScheduler));
                algorithms.push(Box::new(AvrScheduler));
                algorithms.push(Box::new(BkpScheduler::default()));
            }
            for algo in &algorithms {
                let schedule = algo.schedule(&instance).expect("algorithm runs");
                let label = format!("{} m={m} seed={seed}", algo.name());
                schedules.push((label, instance.clone(), schedule));
            }
        }
    }

    let (mut accepted, mut rejected) = (0usize, 0usize);
    let mut tally = |ok: bool| {
        if ok {
            accepted += 1
        } else {
            rejected += 1
        }
    };
    for (label, instance, schedule) in &schedules {
        assert!(
            pin_against_reference(label, instance, schedule),
            "{label}: the clean schedule must validate"
        );
        // Corrupt only schedules without sub-tolerance segments: such a
        // segment can hide an overlap from the predecessor-only scan, and
        // the reference would then accept what the sweep rejects.
        let mut schedule = schedule.clone();
        schedule
            .segments
            .retain(|s| num::definitely_gt(s.end, s.start));
        let m = instance.machines;
        let work: Vec<usize> = (0..schedule.segments.len())
            .filter(|&k| schedule.segments[k].job.is_some())
            .collect();
        for &k in work.iter().step_by(5) {
            let seg = schedule.segments[k];
            let release = instance.job(seg.job.expect("work segment")).release;

            // Shifted earlier by half its length, clamped to the window.
            let start = (seg.start - seg.duration() / 2.0).max(release);
            if start < seg.start {
                let mut shifted = schedule.clone();
                shifted.segments[k].start = start;
                shifted.segments[k].end = start + seg.duration();
                tally(pin_against_reference(
                    &format!("{label} shift #{k}"),
                    instance,
                    &shifted,
                ));
            }

            let mut duplicated = schedule.clone();
            duplicated.segments.push(seg);
            tally(pin_against_reference(
                &format!("{label} duplicate #{k}"),
                instance,
                &duplicated,
            ));

            if m > 1 {
                let mut moved = schedule.clone();
                moved.segments[k].machine = (seg.machine + 1) % m;
                tally(pin_against_reference(
                    &format!("{label} move #{k}"),
                    instance,
                    &moved,
                ));
            }
        }
    }
    assert!(
        accepted > 0 && rejected > 0,
        "{accepted} accepted, {rejected} rejected"
    );
}
