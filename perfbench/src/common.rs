//! Pieces every workload shares: the run outcome, the output comparisons
//! the oracles are built from, the self-test corruptions and the
//! statistics helpers.

use std::collections::BTreeMap;
use std::time::Instant;

use pss_core::prelude::*;
use pss_sim::nearest_rank;

/// Machines per scheduler run, except where a workload says otherwise.
pub const MACHINES: usize = 2;
/// Energy exponent α of every workload.
pub const ALPHA: f64 = 2.5;
/// Set-up is timed at least this often per run; `setup_s` is the median.
pub const MIN_SETUPS: usize = 9;

/// What one benchmark run produced: the operation counts, the metrics and
/// the human-readable notes (sample counts, purpose checks).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
    /// The first failures, for the log.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 100 {
            self.problems.push(what);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }
}

/// The oracle self-test: which field of the first recorded output to
/// corrupt before it is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    Accept,
    Dual,
    Speed,
}

impl Corruption {
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "accept" => Ok(Self::Accept),
            "dual" => Ok(Self::Dual),
            "speed" => Ok(Self::Speed),
            _ => Err(format!("--corrupt takes accept, dual or speed, got {s}")),
        }
    }

    /// Applies the corruption to one decision list or schedule.  Duals and
    /// speeds get their lowest mantissa bit flipped — the smallest change
    /// an f64 can take, so only a bit-exact check can see it.  Errors if
    /// the output has nothing of that kind to corrupt.
    pub fn apply(
        self,
        accepted: &mut [bool],
        duals: &mut [f64],
        schedule: &mut Schedule,
    ) -> Result<(), String> {
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        match self {
            Self::Accept => {
                let k = accepted.len() / 2;
                let bit = accepted.get_mut(k).ok_or("no decision to corrupt")?;
                *bit = !*bit;
            }
            Self::Dual => flip(duals.get_mut(duals.len() / 2).ok_or("no dual to corrupt")?),
            Self::Speed => {
                let k = schedule.segments.len() / 2;
                let seg = schedule
                    .segments
                    .get_mut(k)
                    .ok_or("no segment to corrupt")?;
                flip(&mut seg.speed);
            }
        }
        Ok(())
    }
}

/// Counts the positions where two decision lists differ (accept bit or
/// dual bits), reporting the first few.
pub fn compare_decisions(
    outcome: &mut Outcome,
    what: &str,
    got: (&[bool], &[f64]),
    want: (&[bool], &[f64]),
) {
    if got.0.len() != want.0.len() || got.1.len() != want.1.len() {
        outcome.fail(format!(
            "{what}: {} decisions vs {} in the reference",
            got.0.len(),
            want.0.len()
        ));
        return;
    }
    for k in 0..got.0.len() {
        if got.0[k] != want.0[k] {
            outcome.fail(format!("{what}: accept bit of decision {k} differs"));
        }
        if got.1[k].to_bits() != want.1[k].to_bits() {
            outcome.fail(format!(
                "{what}: dual of decision {k} differs ({} vs {})",
                got.1[k], want.1[k]
            ));
        }
    }
}

/// Counts the segments where two schedules differ bit for bit.
pub fn compare_schedules(outcome: &mut Outcome, what: &str, got: &Schedule, want: &Schedule) {
    if got.machines != want.machines || got.segments.len() != want.segments.len() {
        outcome.fail(format!(
            "{what}: {} segments vs {} in the reference",
            got.segments.len(),
            want.segments.len()
        ));
        return;
    }
    for (k, (a, b)) in got.segments.iter().zip(&want.segments).enumerate() {
        let same = a.machine == b.machine
            && a.job == b.job
            && a.start.to_bits() == b.start.to_bits()
            && a.end.to_bits() == b.end.to_bits()
            && a.speed.to_bits() == b.speed.to_bits();
        if !same {
            outcome.fail(format!("{what}: segment {k} differs ({a:?} vs {b:?})"));
        }
    }
}

/// Checks that a schedule finishes exactly the accepted jobs of `instance`
/// (ids dense, in decision order) and returns its cost: energy plus the
/// value of every unfinished job.  The check is linear in the schedule.
pub fn check_finished(
    outcome: &mut Outcome,
    what: &str,
    instance: &Instance,
    accepted: &[bool],
    schedule: &Schedule,
) -> f64 {
    let finished = schedule.finished(instance);
    for (k, (&a, &f)) in accepted.iter().zip(&finished).enumerate() {
        if a != f {
            outcome.fail(format!(
                "{what}: job {k} is {} but {}",
                if a { "accepted" } else { "rejected" },
                if f { "finished" } else { "unfinished" }
            ));
        }
    }
    schedule.cost(instance).total()
}

/// Checks the `Decision` dual convention: a rejected job's dual is its
/// value, an accepted job's dual is finite and nonnegative.
pub fn check_duals(
    outcome: &mut Outcome,
    what: &str,
    values: &[f64],
    accepted: &[bool],
    duals: &[f64],
) {
    for k in 0..accepted.len() {
        let ok = if accepted[k] {
            duals[k].is_finite() && duals[k] >= 0.0
        } else {
            duals[k].to_bits() == values[k].to_bits()
        };
        if !ok {
            outcome.fail(format!(
                "{what}: dual {} of job {k} breaks the convention (accepted {}, value {})",
                duals[k], accepted[k], values[k]
            ));
        }
    }
}

/// Median of a sample (0 for an empty one).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile of an unsorted sample (0 for an empty one),
/// through the library's one percentile definition.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, p)
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The process's resident high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
