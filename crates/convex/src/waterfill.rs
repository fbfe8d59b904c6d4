//! Marginal-cost-equalising allocation of one job's workload across its
//! atomic intervals ("water filling").
//!
//! This implements the continuous greedy increase of lines 5–12 of the
//! paper's Listing 1 in closed form.  The algorithm raises a common
//! *level* — the marginal cost `∂P_k/∂x_{jk}` — across all candidate
//! intervals, assigning work to each interval up to the amount it can absorb
//! at that level, until either the job is fully assigned or the level
//! reaches a cap (for PD: `v_j / δ`, the rejection threshold).
//!
//! ## How the per-interval capacity is computed
//!
//! Fix an interval of length `l` on `m` machines with the *other* jobs'
//! works `u_1, …, u_p` and a target speed `s` (the level expressed as a
//! speed via `λ = α w_j s^{α-1}`).  The maximum amount of work `z` job `j`
//! can place in the interval such that Chen et al.'s algorithm processes it
//! at speed at most `s` is
//!
//! ```text
//! z*(s) = min( s·l , max(0, q·s·l − B) )        with
//!         q = m − |{i : u_i > s·l}|,   B = Σ_{u_i ≤ s·l} u_i
//! ```
//!
//! The first term is the nonparallelism constraint (job `j` has only `l`
//! time units available), the second is the capacity of the machines not
//! permanently occupied by jobs that are too large to ever run at speed
//! `≤ s`.  `z*` is continuous and nondecreasing in `s` (when `s·l` crosses
//! some `u_i`, `q` gains one machine and `B` gains `u_i`, which cancel), so
//! an outer bisection on `s` finds the common level.
//!
//! ## Empty intervals in closed form
//!
//! An interval that holds no other work has `p = 0`, hence `q = m` and
//! `B = 0`, and the formula collapses to `z*(s) = min(s·l, m·s·l) = s·l` for
//! every `m ≥ 1`: the job alone runs at speed `s` for the whole interval.
//! Capacity is therefore *linear* in `s` on every empty interval, and the
//! empty intervals of a fill contribute exactly `s·L_empty` together, where
//! `L_empty` is the sum of their lengths.  [`FillProfile`] stores the
//! loaded intervals one by one and the empty ones only as that sum, so an
//! evaluation of the level costs `O(loaded · log p)` however many empty
//! intervals the window covers.  Aggregating is exact, not an
//! approximation: it changes only the grouping of the floating-point sum
//! (the fill is deterministic but not bit-identical to a per-interval sum).
//! An empty interval's fraction, `s·l_k / w_j`, is expanded only when the
//! caller asks for the per-interval fractions ([`FillLevel::fractions`]) —
//! PD does so for accepted jobs only.

use pss_intervals::WorkAssignment;
use pss_types::num::{self, Tolerance};

use crate::program::ProgramContext;

/// Options controlling a water-filling run.
#[derive(Debug, Clone, Copy)]
pub struct WaterfillOptions {
    /// Total fraction of the job to place (1.0 = the whole job).
    pub max_fraction: f64,
    /// Optional cap on the marginal cost `∂P_k/∂x_{jk}`; the fill stops at
    /// this level even if the job is not fully placed.  PD uses `v_j / δ`.
    pub max_marginal: Option<f64>,
    /// Numeric tolerance of the level search.
    pub tol: Tolerance,
}

impl Default for WaterfillOptions {
    fn default() -> Self {
        Self {
            max_fraction: 1.0,
            max_marginal: None,
            tol: Tolerance::default(),
        }
    }
}

/// Result of a water-filling run for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterfillResult {
    /// `(interval, fraction)` pairs with strictly positive fractions.
    pub added: Vec<(usize, f64)>,
    /// Total fraction placed, `Σ added`.
    pub total: f64,
    /// The common speed level `s*` reached by the fill.
    pub level_speed: f64,
    /// The corresponding marginal cost `α · w_j · (s*)^{α-1}`.
    pub level_marginal: f64,
    /// `true` if the job was fully placed (total reached `max_fraction`).
    pub saturated: bool,
}

/// One loaded interval of a [`FillProfile`]: its works occupy
/// `works[start..end]` (sorted in decreasing order) and `cumulative[start..end]`
/// (their running sums).
#[derive(Debug, Clone, Copy)]
struct LoadedInterval {
    interval: usize,
    length: f64,
    start: usize,
    end: usize,
}

/// The covered intervals of one water-filling run: every *loaded* interval
/// (one holding other jobs' work) with its sorted works, and the empty ones
/// only as their total length (see the module doc for why that is exact).
///
/// Intervals are [`push`](Self::push)ed in increasing index order; the
/// works of all loaded intervals share two flat buffers, so an empty
/// interval costs no allocation and a loaded one none beyond amortised
/// buffer growth.
#[derive(Debug, Clone, Default)]
pub struct FillProfile {
    covered: usize,
    /// `Σ l_k` over every covered interval, in push order.
    total_length: f64,
    /// `Σ l_k` over the empty covered intervals.
    empty_length: f64,
    loaded: Vec<LoadedInterval>,
    works: Vec<f64>,
    cumulative: Vec<f64>,
}

impl FillProfile {
    /// An empty profile (no covered interval yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the profile, keeping its buffers for the next fill.
    pub fn clear(&mut self) {
        self.covered = 0;
        self.total_length = 0.0;
        self.empty_length = 0.0;
        self.loaded.clear();
        self.works.clear();
        self.cumulative.clear();
    }

    /// Adds the next covered interval: its index (echoed back by
    /// [`FillLevel::fractions`]), its length `l_k` and the works the
    /// *other* jobs place in it (order irrelevant; non-positive entries are
    /// ignored, and an interval without a positive one counts as empty).
    pub fn push(
        &mut self,
        interval: usize,
        length: f64,
        other_works: impl IntoIterator<Item = f64>,
    ) {
        self.covered += 1;
        self.total_length += length;
        let start = self.works.len();
        self.works
            .extend(other_works.into_iter().filter(|u| *u > 0.0));
        if self.works.len() == start {
            self.empty_length += length;
            return;
        }
        let works = &mut self.works[start..];
        works.sort_by(|a, b| b.total_cmp(a));
        let mut acc = 0.0;
        for u in works.iter() {
            acc += u;
            self.cumulative.push(acc);
        }
        self.loaded.push(LoadedInterval {
            interval,
            length,
            start,
            end: self.works.len(),
        });
    }

    /// Adds `intervals` consecutive empty covered intervals (no other
    /// work) of total length `length` — what [`push`](Self::push) does for
    /// each of them, in one step.
    pub fn push_empty(&mut self, intervals: usize, length: f64) {
        self.covered += intervals;
        self.total_length += length;
        self.empty_length += length;
    }

    /// Maximum work the job can place in loaded interval `iv` with its speed
    /// staying `≤ speed` (`z*(s)` of the module doc).
    fn loaded_capacity(&self, iv: &LoadedInterval, speed: f64, machines: usize) -> f64 {
        if speed <= 0.0 {
            return 0.0;
        }
        let threshold = speed * iv.length;
        let works = &self.works[iv.start..iv.end];
        let cumulative = &self.cumulative[iv.start..iv.end];
        // Number of other jobs whose work exceeds the threshold; works are
        // sorted in decreasing order, so this is a partition point.
        let above = works.partition_point(|u| *u > threshold);
        if above >= machines {
            return 0.0;
        }
        let q = (machines - above) as f64;
        let above_sum = if above == 0 {
            0.0
        } else {
            cumulative[above - 1]
        };
        let b_small = cumulative[works.len() - 1] - above_sum;
        let machine_cap = (q * threshold - b_small).max(0.0);
        threshold.min(machine_cap)
    }

    /// Total work the job can place over all covered intervals at `speed`.
    fn capacity(&self, speed: f64, machines: usize) -> f64 {
        if speed <= 0.0 {
            return 0.0;
        }
        num::stable_sum(
            std::iter::once(speed * self.empty_length).chain(
                self.loaded
                    .iter()
                    .map(|iv| self.loaded_capacity(iv, speed, machines)),
            ),
        )
    }

    /// The first upper bracket of the level search (doubled until the job
    /// fits): the largest speed the other work would need in any loaded
    /// interval plus the job's even spread over all covered intervals.
    fn initial_speed_guess(&self, w_j: f64, max_fraction: f64) -> f64 {
        let max_existing = self
            .loaded
            .iter()
            .map(|iv| self.works[iv.start] / iv.length)
            .fold(0.0_f64, f64::max);
        let spread_speed = if self.total_length > 0.0 {
            w_j * max_fraction / self.total_length
        } else {
            1.0
        };
        (max_existing + spread_speed).max(1e-9)
    }

    /// Runs the level search for a job of workload `w_j` over this profile:
    /// the one water-filling core behind [`waterfill_job`] and PD's
    /// incremental arrival step.
    pub fn level(
        &self,
        power: pss_power::AlphaPower,
        machines: usize,
        w_j: f64,
        opts: &WaterfillOptions,
    ) -> FillLevel {
        if self.covered == 0 || w_j <= 0.0 || opts.max_fraction <= 0.0 {
            return FillLevel {
                level_speed: 0.0,
                level_marginal: 0.0,
                total: 0.0,
                saturated: false,
                machines,
                w_j,
                scale: None,
            };
        }
        let m = machines;
        let total_fraction_at = |speed: f64| -> f64 { self.capacity(speed, m) / w_j };

        // The speed corresponding to the marginal cap (if any).
        let speed_cap = opts.max_marginal.map(|mm| power.dual_speed(mm, w_j));

        let finish = |level_speed: f64, mut total: f64, saturated: bool| -> FillLevel {
            let mut scale = None;
            if saturated && total > 0.0 {
                // The bisection leaves a relative error of ~tol; rescale so
                // that a fully placed job has an assigned fraction of
                // exactly max_fraction.
                scale = Some(opts.max_fraction / total);
                total = opts.max_fraction;
            }
            FillLevel {
                level_speed,
                level_marginal: power.dual_value(level_speed, w_j),
                total,
                saturated: saturated && total >= opts.max_fraction * (1.0 - 1e-9),
                machines,
                w_j,
                scale,
            }
        };
        // If even at the cap the job cannot be fully placed, the fill stops
        // at the cap (PD's rejection case).
        if let Some(cap) = speed_cap {
            let at_cap = total_fraction_at(cap);
            if at_cap < opts.max_fraction * (1.0 - 1e-12) {
                return finish(cap, at_cap, false);
            }
        }

        // Find an upper bracket for the level: double until the job fits.
        let mut hi = self.initial_speed_guess(w_j, opts.max_fraction);
        let mut guard = 0;
        while total_fraction_at(hi) < opts.max_fraction && guard < 200 {
            hi *= 2.0;
            guard += 1;
        }
        if let Some(cap) = speed_cap {
            hi = hi.min(cap);
        }

        // Bisection on the speed level.
        let level = num::bisect_nondecreasing(0.0, hi, opts.max_fraction, opts.tol, |s| {
            total_fraction_at(s)
        });
        finish(level, total_fraction_at(level), true)
    }
}

/// The outcome of [`FillProfile::level`]: the common level, the total
/// fraction placed and the decision, without the per-interval fractions
/// (expand those with [`fractions`](Self::fractions) when they are needed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FillLevel {
    /// The common speed level `s*` reached by the fill.
    pub level_speed: f64,
    /// The corresponding marginal cost `α · w_j · (s*)^{α-1}`.
    pub level_marginal: f64,
    /// Total fraction placed (exactly `max_fraction` when saturated).
    pub total: f64,
    /// `true` if the job was fully placed (total reached `max_fraction`).
    pub saturated: bool,
    machines: usize,
    w_j: f64,
    /// The rescaling applied to every fraction of a saturated fill.
    scale: Option<f64>,
}

impl FillLevel {
    /// The per-interval fractions of the fill, `(interval, fraction)` with
    /// strictly positive fractions.  `covered` must yield `(index, length)`
    /// of every interval pushed into `profile`, in push order; an empty
    /// interval's fraction is `s*·l_k / w_j`, a loaded one's is its capacity
    /// at the level.
    pub fn fractions<'a>(
        &'a self,
        profile: &'a FillProfile,
        covered: impl IntoIterator<Item = (usize, f64)> + 'a,
    ) -> impl Iterator<Item = (usize, f64)> + 'a {
        let mut loaded = profile.loaded.iter().peekable();
        covered
            .into_iter()
            .map(move |(k, length)| {
                let capacity = match loaded.next_if(|iv| iv.interval == k) {
                    Some(iv) => profile.loaded_capacity(iv, self.level_speed, self.machines),
                    None => self.level_speed * length,
                };
                let mut f = capacity / self.w_j;
                if let Some(scale) = self.scale {
                    f *= scale;
                }
                (k, f)
            })
            .filter(|(_, f)| *f > 0.0)
    }
}

/// Runs the water-filling allocation for `job` on top of the assignment `x`
/// (whose entries for `job` are ignored — callers wanting to *re*-allocate a
/// job should conceptually treat its old row as cleared; the base works are
/// always computed excluding `job`).
pub fn waterfill_job(
    ctx: &ProgramContext,
    x: &WorkAssignment,
    job: usize,
    opts: &WaterfillOptions,
) -> WaterfillResult {
    let workloads = ctx.workloads();
    let covered = ctx.covered(job);
    let mut profile = FillProfile::new();
    for k in covered.clone() {
        profile.push(
            k,
            ctx.partition().length(k),
            (0..ctx.n_jobs())
                .filter(|&i| i != job)
                .map(|i| x.get(i, k) * workloads[i]),
        );
    }
    let fill = profile.level(ctx.power(), ctx.machines(), workloads[job], opts);
    WaterfillResult {
        added: fill
            .fractions(&profile, covered.map(|k| (k, ctx.partition().length(k))))
            .collect(),
        total: fill.total,
        level_speed: fill.level_speed,
        level_marginal: fill.level_marginal,
        saturated: fill.saturated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_chen::interval_power_derivative;
    use pss_types::Instance;

    fn single_job_ctx(
        machines: usize,
        alpha: f64,
        tuples: Vec<(f64, f64, f64, f64)>,
    ) -> ProgramContext {
        let inst = Instance::from_tuples(machines, alpha, tuples).unwrap();
        ProgramContext::new(&inst)
    }

    #[test]
    fn lone_job_spreads_evenly_over_its_window() {
        // One job, window [0, 4), work 2, one machine: the optimal fill is
        // speed 0.5 everywhere.
        let ctx = single_job_ctx(1, 3.0, vec![(0.0, 4.0, 2.0, 100.0)]);
        let x = WorkAssignment::zeros(1, ctx.partition().len());
        let r = waterfill_job(&ctx, &x, 0, &WaterfillOptions::default());
        assert!(r.saturated);
        assert!((r.total - 1.0).abs() < 1e-9);
        assert!((r.level_speed - 0.5).abs() < 1e-6);
        assert_eq!(r.added.len(), 1);
    }

    #[test]
    fn fill_prefers_empty_intervals() {
        // Job 0 occupies [0,1) heavily; job 1 has window [0,2) and should
        // put (almost) everything in [1,2).
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 3.0, 100.0), (0.0, 2.0, 1.0, 100.0)])
                .unwrap();
        let ctx = ProgramContext::new(&inst);
        let mut x = WorkAssignment::zeros(2, ctx.partition().len());
        // Place job 0 fully in its only interval [0,1).
        x.set(0, 0, 1.0);
        let r = waterfill_job(&ctx, &x, 1, &WaterfillOptions::default());
        assert!(r.saturated);
        let in_second: f64 = r
            .added
            .iter()
            .filter(|(k, _)| *k == 1)
            .map(|(_, f)| *f)
            .sum();
        // Interval [1,2) is empty and can absorb speed up to 1 without
        // exceeding the marginal of interval [0,1) (which has speed 3).
        assert!(
            in_second > 0.99,
            "expected job 1 in the empty interval, got {:?}",
            r.added
        );
    }

    #[test]
    fn fill_equalises_marginals_across_used_intervals() {
        // Two equal-length empty intervals: the job splits evenly and the
        // marginal costs agree with the Chen derivative.
        let ctx = single_job_ctx(2, 2.5, vec![(0.0, 2.0, 3.0, 100.0)]);
        // Introduce a second boundary by adding a second job that splits
        // [0, 2) into [0,1) and [1,2).
        let inst =
            Instance::from_tuples(2, 2.5, vec![(0.0, 2.0, 3.0, 100.0), (1.0, 2.0, 0.5, 100.0)])
                .unwrap();
        let ctx2 = ProgramContext::new(&inst);
        drop(ctx);
        let x = WorkAssignment::zeros(2, ctx2.partition().len());
        let r = waterfill_job(&ctx2, &x, 0, &WaterfillOptions::default());
        assert!(r.saturated);
        // Fractions should be equal (both intervals identical and empty).
        assert_eq!(r.added.len(), 2);
        assert!((r.added[0].1 - r.added[1].1).abs() < 1e-6);

        // Marginal from the Chen derivative should match the reported level.
        let mut x_after = x.clone();
        for (k, f) in &r.added {
            x_after.set(0, *k, *f);
        }
        for &(k, _) in &r.added {
            let d = interval_power_derivative(
                ctx2.power(),
                ctx2.partition().length(k),
                2,
                &x_after.column(k),
                ctx2.workloads(),
                0,
            );
            assert!(
                (d - r.level_marginal).abs() < 1e-4 * d.max(1.0),
                "interval {k}: derivative {d} vs level {}",
                r.level_marginal
            );
        }
    }

    #[test]
    fn marginal_cap_limits_the_fill() {
        // Single interval of length 1, one machine, job work 4: running the
        // whole job needs speed 4 and marginal alpha*w*s^{alpha-1} = 2*4*4 = 32.
        // Capping the marginal at the value for speed 2 (2*4*2 = 16) only
        // places half the job.
        let ctx = single_job_ctx(1, 2.0, vec![(0.0, 1.0, 4.0, 100.0)]);
        let x = WorkAssignment::zeros(1, 1);
        let opts = WaterfillOptions {
            max_marginal: Some(16.0),
            ..Default::default()
        };
        let r = waterfill_job(&ctx, &x, 0, &opts);
        assert!(!r.saturated);
        assert!((r.total - 0.5).abs() < 1e-9, "total = {}", r.total);
        assert!((r.level_speed - 2.0).abs() < 1e-9);
    }

    #[test]
    fn multi_machine_capacity_respects_nonparallelism() {
        // One job alone on 4 machines in a single interval: it can still use
        // only one machine's worth of time, so the level equals work/length
        // regardless of machine count.
        let ctx = single_job_ctx(4, 3.0, vec![(0.0, 2.0, 6.0, 100.0)]);
        let x = WorkAssignment::zeros(1, 1);
        let r = waterfill_job(&ctx, &x, 0, &WaterfillOptions::default());
        assert!(r.saturated);
        assert!((r.level_speed - 3.0).abs() < 1e-6);
    }

    #[test]
    fn fill_ignores_the_jobs_own_row() {
        // Job 1's stale entry in [1,2) must not count as other work there.
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 3.0, 100.0), (0.0, 2.0, 1.0, 100.0)])
                .unwrap();
        let ctx = ProgramContext::new(&inst);
        let mut x = WorkAssignment::zeros(2, ctx.partition().len());
        x.set(0, 0, 1.0);
        let cleared = waterfill_job(&ctx, &x, 1, &WaterfillOptions::default());
        x.set(1, 1, 1.0);
        let stale = waterfill_job(&ctx, &x, 1, &WaterfillOptions::default());
        assert_eq!(stale, cleared);
    }

    #[test]
    fn zero_fraction_request_is_empty() {
        let ctx = single_job_ctx(1, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]);
        let x = WorkAssignment::zeros(1, 1);
        let opts = WaterfillOptions {
            max_fraction: 0.0,
            ..Default::default()
        };
        let r = waterfill_job(&ctx, &x, 0, &opts);
        assert_eq!(r.total, 0.0);
        assert!(r.added.is_empty());
    }

    #[test]
    fn capacity_function_is_monotone_and_continuous() {
        let mut cap = FillProfile::new();
        cap.push(0, 1.0, [2.0, 1.0, 0.5]);
        let m = 3;
        let mut prev = 0.0;
        let mut s = 0.0;
        while s < 5.0 {
            let c = cap.capacity(s, m);
            assert!(c + 1e-12 >= prev, "capacity decreased at s={s}");
            // Continuity check: small step, small change.
            let c2 = cap.capacity(s + 1e-6, m);
            assert!((c2 - c).abs() < 1e-4);
            prev = c;
            s += 0.01;
        }
    }

    #[test]
    fn empty_interval_capacity_is_speed_times_length_for_every_m() {
        for m in [1, 2, 3, 4, 8, 64] {
            for (length, speed) in [(1.0, 0.5), (0.25, 3.0), (7.5, 1e-3), (1e-6, 40.0)] {
                // Pushed with no works, with only non-positive works, and
                // evaluated by the reference formula with `p = 0`.
                let mut none = FillProfile::new();
                none.push(0, length, []);
                let mut zeros = FillProfile::new();
                zeros.push(0, length, [0.0, -1.0]);
                let reference = IntervalCapacity::new(0, length, Vec::new());
                assert!(none.loaded.is_empty() && zeros.loaded.is_empty());
                assert_eq!(none.capacity(speed, m), speed * length, "m = {m}");
                assert_eq!(zeros.capacity(speed, m), speed * length, "m = {m}");
                assert_eq!(reference.capacity(speed, m), speed * length, "m = {m}");
            }
        }
    }

    /// The per-interval evaluation the aggregated [`FillProfile`] replaced:
    /// every covered interval, empty or not, gets its own sorted works and
    /// prefix sums, and the level sums the capacities one interval at a
    /// time.  Kept as the reference of the differential test below.
    struct IntervalCapacity {
        interval: usize,
        length: f64,
        sorted_works: Vec<f64>,
        prefix: Vec<f64>,
    }

    impl IntervalCapacity {
        fn new(interval: usize, length: f64, mut works: Vec<f64>) -> Self {
            works.retain(|u| *u > 0.0);
            works.sort_by(|a, b| b.total_cmp(a));
            let mut prefix = Vec::with_capacity(works.len() + 1);
            prefix.push(0.0);
            let mut acc = 0.0;
            for u in &works {
                acc += u;
                prefix.push(acc);
            }
            Self {
                interval,
                length,
                sorted_works: works,
                prefix,
            }
        }

        fn capacity(&self, speed: f64, machines: usize) -> f64 {
            if speed <= 0.0 {
                return 0.0;
            }
            let threshold = speed * self.length;
            let above = self.sorted_works.partition_point(|u| *u > threshold);
            if above >= machines {
                return 0.0;
            }
            let q = (machines - above) as f64;
            let b_small = self.prefix[self.sorted_works.len()] - self.prefix[above];
            let machine_cap = (q * threshold - b_small).max(0.0);
            threshold.min(machine_cap)
        }
    }

    fn reference_fill(
        power: pss_power::AlphaPower,
        m: usize,
        w_j: f64,
        caps: &[IntervalCapacity],
        opts: &WaterfillOptions,
    ) -> WaterfillResult {
        let total_fraction_at =
            |speed: f64| num::stable_sum(caps.iter().map(|c| c.capacity(speed, m))) / w_j;
        let build = |level_speed: f64, saturated: bool| {
            let mut added: Vec<(usize, f64)> = caps
                .iter()
                .map(|c| (c.interval, c.capacity(level_speed, m) / w_j))
                .filter(|(_, f)| *f > 0.0)
                .collect();
            let mut total = num::stable_sum(added.iter().map(|(_, f)| *f));
            if saturated && total > 0.0 {
                let scale = opts.max_fraction / total;
                for (_, f) in &mut added {
                    *f *= scale;
                }
                total = opts.max_fraction;
            }
            WaterfillResult {
                added,
                total,
                level_speed,
                level_marginal: power.dual_value(level_speed, w_j),
                saturated: saturated && total >= opts.max_fraction * (1.0 - 1e-9),
            }
        };
        let speed_cap = opts.max_marginal.map(|mm| power.dual_speed(mm, w_j));
        if let Some(cap) = speed_cap {
            if total_fraction_at(cap) < opts.max_fraction * (1.0 - 1e-12) {
                return build(cap, false);
            }
        }
        let max_existing = caps
            .iter()
            .flat_map(|c| c.sorted_works.first().map(|u| u / c.length))
            .fold(0.0_f64, f64::max);
        let total_length: f64 = caps.iter().map(|c| c.length).sum();
        let mut hi = (max_existing + w_j * opts.max_fraction / total_length).max(1e-9);
        let mut guard = 0;
        while total_fraction_at(hi) < opts.max_fraction && guard < 200 {
            hi *= 2.0;
            guard += 1;
        }
        if let Some(cap) = speed_cap {
            hi = hi.min(cap);
        }
        let level = num::bisect_nondecreasing(0.0, hi, opts.max_fraction, opts.tol, |s| {
            total_fraction_at(s)
        });
        build(level, true)
    }

    #[test]
    fn aggregated_core_matches_the_per_interval_reference() {
        use pss_workloads::SmallRng;
        let mut rng = SmallRng::seed_from_u64(0x_F111);
        let tol = Tolerance::default();
        let (mut capped_rejections, mut capped_accepts) = (0, 0);
        for case in 0..600 {
            let m = [1, 2, 4][case % 3];
            let alpha = [1.5, 2.0, 2.5, 3.0][rng.usize_range(0, 3)];
            let power = pss_power::AlphaPower::new(alpha);
            // Covered intervals: a random mix of empty and loaded ones,
            // loaded with up to 2m other works (so some exceed the level).
            let n = rng.usize_range(1, 40);
            let empty_share = rng.next_f64();
            let mut profile = FillProfile::new();
            let mut caps = Vec::new();
            let mut covered = Vec::new();
            for i in 0..n {
                let k = 3 * i + rng.usize_range(0, 2);
                let length = rng.f64_range(0.01, 3.0);
                let works: Vec<f64> = if rng.next_f64() < empty_share {
                    Vec::new()
                } else {
                    (0..rng.usize_range(1, 2 * m))
                        .map(|_| rng.f64_range(0.0, 4.0) * length)
                        .collect()
                };
                profile.push(k, length, works.iter().copied());
                caps.push(IntervalCapacity::new(k, length, works));
                covered.push((k, length));
            }
            let w_j = rng.f64_range(0.05, 20.0);
            let max_marginal = if case % 2 == 0 {
                None
            } else {
                // A cap around the uncapped level, so both outcomes occur.
                let free = reference_fill(power, m, w_j, &caps, &WaterfillOptions::default());
                Some(free.level_marginal * rng.f64_range(0.3, 1.7))
            };
            let opts = WaterfillOptions {
                max_marginal,
                ..WaterfillOptions::default()
            };
            let expected = reference_fill(power, m, w_j, &caps, &opts);
            let fill = profile.level(power, m, w_j, &opts);
            let added: Vec<(usize, f64)> = fill.fractions(&profile, covered).collect();
            if max_marginal.is_some() {
                if fill.saturated {
                    capped_accepts += 1;
                } else {
                    capped_rejections += 1;
                }
            }

            let label = format!("case {case} (m = {m}, {n} intervals, cap {max_marginal:?})");
            assert_eq!(fill.saturated, expected.saturated, "{label}");
            assert!(
                tol.converged(
                    fill.level_speed.min(expected.level_speed),
                    fill.level_speed.max(expected.level_speed)
                ),
                "{label}: level {} vs {}",
                fill.level_speed,
                expected.level_speed
            );
            assert!(
                (fill.total - expected.total).abs() <= 1e-12 * expected.total,
                "{label}: total {} vs {}",
                fill.total,
                expected.total
            );
            let indices = |a: &[(usize, f64)]| a.iter().map(|(k, _)| *k).collect::<Vec<_>>();
            assert_eq!(indices(&added), indices(&expected.added), "{label}");
            for (&(k, f), &(_, g)) in added.iter().zip(&expected.added) {
                assert!(
                    (f - g).abs() <= 1e-12 * g,
                    "{label}: interval {k} fraction {f} vs {g}"
                );
            }
        }
        assert!(capped_accepts > 20 && capped_rejections > 20);
    }
}
