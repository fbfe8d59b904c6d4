//! KKT stationarity residuals for solutions of the mandatory-completion
//! relaxation.
//!
//! At an optimal assignment, for every job `j` there is a dual value `λ_j`
//! such that the marginal cost `∂P_k/∂x_{jk}` equals `λ_j` on every interval
//! where `x_{jk} > 0` and is at least `λ_j` on every covered interval where
//! `x_{jk} = 0`.  (This is exactly the water-level structure the paper's PD
//! algorithm maintains greedily.)  [`max_stationarity_violation`] measures
//! how far a candidate assignment is from satisfying these conditions; tests
//! use it to certify the coordinate-descent solver.

use pss_chen::interval_power_derivative;
use pss_intervals::WorkAssignment;

use crate::program::ProgramContext;

/// Per-job KKT residual information.
#[derive(Debug, Clone, PartialEq)]
pub struct KktReport {
    /// For each job: the implied dual value (minimum marginal over covered
    /// intervals with positive assignment), or `None` for unassigned jobs.
    pub implied_dual: Vec<Option<f64>>,
    /// The largest relative violation over all (job, interval) pairs.
    pub max_violation: f64,
}

/// Computes the largest relative stationarity violation of an assignment in
/// which every job is (supposed to be) fully assigned.
pub fn max_stationarity_violation(ctx: &ProgramContext, x: &WorkAssignment) -> KktReport {
    let n = ctx.n_jobs();
    let mut implied_dual = vec![None; n];
    let mut max_violation = 0.0_f64;

    for (job, dual_slot) in implied_dual.iter_mut().enumerate() {
        let covered = ctx.covered(job);
        if covered.is_empty() {
            continue;
        }
        let marginals: Vec<(usize, f64, f64)> = covered
            .map(|k| {
                let d = interval_power_derivative(
                    ctx.power(),
                    ctx.partition().length(k),
                    ctx.machines(),
                    &x.column(k),
                    ctx.workloads(),
                    job,
                );
                (k, x.get(job, k), d)
            })
            .collect();

        // Dual value = marginal on the intervals actually used.
        let used: Vec<f64> = marginals
            .iter()
            .filter(|(_, frac, _)| *frac > 1e-9)
            .map(|(_, _, d)| *d)
            .collect();
        if used.is_empty() {
            continue;
        }
        let lambda = used.iter().copied().fold(f64::INFINITY, f64::min);
        *dual_slot = Some(lambda);
        let scale = lambda.max(1e-12);

        for (_, frac, d) in &marginals {
            if *frac > 1e-9 {
                // Used intervals must all sit at the common level.
                max_violation = max_violation.max((d - lambda).abs() / scale);
            } else {
                // Unused intervals must not be cheaper than the level.
                max_violation = max_violation.max((lambda - d).max(0.0) / scale);
            }
        }
    }

    KktReport {
        implied_dual,
        max_violation,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve_min_energy;
    use pss_types::Instance;

    #[test]
    fn solver_output_satisfies_kkt() {
        let inst = Instance::from_tuples(
            2,
            2.5,
            vec![
                (0.0, 3.0, 2.0, 1.0),
                (1.0, 2.0, 1.0, 1.0),
                (0.5, 2.5, 1.5, 1.0),
                (0.0, 1.5, 0.7, 1.0),
            ],
        )
        .unwrap();
        let ctx = ProgramContext::new(&inst);
        let sol = solve_min_energy(&ctx);
        let report = max_stationarity_violation(&ctx, &sol.assignment);
        assert!(
            report.max_violation < 1e-3,
            "KKT violation too large: {}",
            report.max_violation
        );
        assert!(report.implied_dual.iter().all(|d| d.is_some()));
    }

    #[test]
    fn unbalanced_assignment_has_large_violation() {
        // Job with window [0,2) split into two intervals; dumping all work
        // into one interval violates stationarity badly.
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 2.0, 1.0), (1.0, 2.0, 0.0001, 1.0)])
                .unwrap();
        let ctx = ProgramContext::new(&inst);
        let mut x = WorkAssignment::zeros(2, ctx.partition().len());
        x.set(0, 0, 1.0); // everything in [0,1)
        x.set(1, 1, 1.0);
        let report = max_stationarity_violation(&ctx, &x);
        assert!(report.max_violation > 0.1);
    }

    #[test]
    fn empty_assignment_reports_no_duals() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]).unwrap();
        let ctx = ProgramContext::new(&inst);
        let x = WorkAssignment::zeros(1, 1);
        let report = max_stationarity_violation(&ctx, &x);
        assert_eq!(report.max_violation, 0.0);
        assert!(report.implied_dual[0].is_none());
    }
}
