//! Randomised property tests of the convex-program machinery: water-filling
//! invariants, duality (weak duality against explicitly constructed feasible
//! schedules), and solver optimality against per-job balance conditions.
//!
//! Cases are drawn from the workspace's seeded [`SmallRng`] (no crates.io
//! access, so `proptest` is unavailable); equal seeds make every failure
//! reproducible.

use pss_convex::{dual_bound, solve_min_energy, waterfill_job, ProgramContext, WaterfillOptions};
use pss_intervals::WorkAssignment;
use pss_types::Instance;
use pss_workloads::SmallRng;

const ALPHAS: [f64; 4] = [1.5, 2.0, 2.5, 3.0];

/// A small random instance with valid windows.
fn random_instance(rng: &mut SmallRng, max_jobs: usize, max_machines: usize) -> Instance {
    let n = rng.usize_range(1, max_jobs);
    let machines = rng.usize_range(1, max_machines);
    let alpha = ALPHAS[rng.usize_range(0, ALPHAS.len() - 1)];
    let jobs: Vec<(f64, f64, f64, f64)> = (0..n)
        .map(|_| {
            let r = rng.f64_range(0.0, 5.0);
            let window = rng.f64_range(0.2, 4.0);
            let w = rng.f64_range(0.1, 3.0);
            let v = rng.f64_range(0.0, 10.0);
            (r, r + window, w, v)
        })
        .collect();
    Instance::from_tuples(machines, alpha, jobs).expect("valid random instance")
}

/// Water filling a job with no level cap always places the whole job,
/// only into intervals the job covers, with nonnegative fractions.
#[test]
fn waterfill_places_exactly_the_whole_job() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 1);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 6, 4);
        let job = rng.usize_range(0, inst.len() - 1);
        let ctx = ProgramContext::new(&inst);
        let x = WorkAssignment::zeros(inst.len(), ctx.partition().len());
        let fill = waterfill_job(&ctx, &x, job, &WaterfillOptions::default());
        assert!(fill.saturated);
        assert!((fill.total - 1.0).abs() < 1e-6, "total {}", fill.total);
        for (k, f) in &fill.added {
            assert!(*f >= 0.0);
            assert!(ctx.covered(job).contains(k), "interval {k} not covered");
        }
    }
}

/// A marginal cap never increases the amount placed, and the reported
/// level never exceeds the cap.
#[test]
fn waterfill_cap_is_respected() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 2);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 5, 3);
        let cap = rng.f64_range(0.01, 5.0);
        let ctx = ProgramContext::new(&inst);
        let x = WorkAssignment::zeros(inst.len(), ctx.partition().len());
        let free = waterfill_job(&ctx, &x, 0, &WaterfillOptions::default());
        let capped = waterfill_job(
            &ctx,
            &x,
            0,
            &WaterfillOptions {
                max_marginal: Some(cap),
                ..Default::default()
            },
        );
        assert!(capped.total <= free.total + 1e-9);
        assert!(capped.level_marginal <= cap * (1.0 + 1e-6) + 1e-9);
    }
}

/// Weak duality: for arbitrary nonnegative duals, g(λ) never exceeds the
/// cost of the "finish everything optimally" schedule nor the cost of
/// the "reject everything" schedule.
#[test]
fn dual_bound_respects_weak_duality() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 3);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 5, 3);
        let ctx = ProgramContext::new(&inst);
        let lambda: Vec<f64> = (0..inst.len()).map(|_| rng.f64_range(0.0, 8.0)).collect();
        let g = dual_bound(&ctx, &lambda).value;

        // Feasible schedule 1: reject everything.
        assert!(g <= inst.total_value() + 1e-6);

        // Feasible schedule 2: finish everything with the offline solver.
        let sol = solve_min_energy(&ctx);
        assert!(
            g <= sol.energy + 1e-5 * sol.energy.max(1.0) + 1e-6,
            "g = {g} exceeds finish-all energy {}",
            sol.energy
        );
    }
}

/// The offline solver's energy never exceeds the energy of the simple
/// feasible solution that spreads every job uniformly over its window,
/// and realising its assignment yields a schedule finishing every job.
#[test]
fn solver_beats_uniform_spreading() {
    let mut rng = SmallRng::seed_from_u64(0xC0 + 4);
    for _ in 0..48 {
        let inst = random_instance(&mut rng, 5, 3);
        let ctx = ProgramContext::new(&inst);
        let sol = solve_min_energy(&ctx);

        // Uniform spreading: x_{jk} = l_k / window_j for covered intervals.
        let mut uniform = WorkAssignment::zeros(inst.len(), ctx.partition().len());
        for job in &inst.jobs {
            let j = job.id.index();
            for k in ctx.covered(j) {
                uniform.set(j, k, ctx.partition().length(k) / job.window());
            }
        }
        let uniform_energy = ctx.total_energy(&uniform);
        assert!(
            sol.energy <= uniform_energy + 1e-5 * uniform_energy.max(1.0),
            "solver {} worse than uniform {uniform_energy}",
            sol.energy
        );

        let schedule = ctx.realize_schedule(&sol.assignment);
        let report = pss_types::validate_schedule(&inst, &schedule).expect("feasible");
        assert!(
            report.rejected.is_empty(),
            "solver failed to finish: {:?}",
            report.rejected
        );
    }
}
