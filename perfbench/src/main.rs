//! The repository's benchmark: PD streams in-process and the `pss-serve`
//! daemon, each run checked against an oracle, with a separate traced run
//! that times every layer from outside through its public calls.
//!
//! ```text
//! perfbench --workload <pd-poisson|pd-overload|serve-paced|serve-flood>
//!           --seed <n> --seconds <s> --trace <0|1> [--corrupt accept|dual|speed]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.  `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer ones.  Any failed
//! operation or output-check mismatch makes the exit code 1.  `--corrupt`
//! flips one accept bit, one dual or one segment speed in the first
//! recorded output before it is checked: the oracle self-test runs with it
//! and expects the check to fail.

mod common;
mod inproc;
mod served;

use std::process::ExitCode;

use common::{Corruption, Outcome};

/// Every end-to-end metric with its unit, reported with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("decide_p50_us", "us"),
    ("decide_p99_us", "us"),
    ("cost", "cost"),
    ("admitted_share", "ratio"),
    ("peak_rss_mb", "MB"),
    ("recover_ms", "ms"),
];

/// Every per-layer metric with its unit, reported with `--trace 1`.  A
/// layer a workload does not run reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.gen_s", "s"),
    ("sched.start_s", "s"),
    ("sched.arrive_s", "s"),
    ("sched.arrive_p99_us", "us"),
    ("sched.finish_s", "s"),
    ("sched.batches", "count"),
    ("sched.accepted", "count"),
    ("types.validate_s", "s"),
    ("types.segments", "count"),
    ("sim.replay_s", "s"),
    ("cert.ratio", "ratio"),
    ("ckpt.capture_s", "s"),
    ("ckpt.capture_max_ms", "ms"),
    ("ckpt.capture_share", "ratio"),
    ("ckpt.count", "count"),
    ("ckpt.blob_bytes_last", "bytes"),
    ("ckpt.restore_ms", "ms"),
    ("seglog.sync_s", "s"),
    ("serve.crash_ms", "ms"),
    ("serve.recovery_ms", "ms"),
    ("serve.replayed_batches", "count"),
    ("serve.submit_p50_us", "us"),
    ("serve.submit_p99_us", "us"),
    ("serve.queue_full", "count"),
    ("serve.peak_queue_depth", "count"),
    ("serve.shutdown_ms", "ms"),
    ("serve.refused", "count"),
    ("serve.overhead_share", "ratio"),
    ("gen.lag_p99_us", "us"),
    ("trace.wall_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.unexplained_share", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt: Option<Corruption>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            "--corrupt" => corrupt = Some(Corruption::parse(&value)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        corrupt,
    })
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "pd-poisson" => Ok(inproc::run(inproc::Kind::Poisson, args)),
        "pd-overload" => Ok(inproc::run(inproc::Kind::Overload, args)),
        "serve-paced" => Ok(served::run(served::Kind::Paced, args)),
        "serve-flood" => Ok(served::run(served::Kind::Flood, args)),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Formats the result line; a non-finite value is reported as a failure
/// (JSON has no spelling for it).
fn result_line(outcome: &mut Outcome, trace: bool) -> String {
    let wanted = if trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for (name, unit) in wanted {
        let value = match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(v) => {
                outcome.fail(format!("metric {name} is not finite ({v})"));
                0.0
            }
            // A layer this workload does not run.
            None if trace => 0.0,
            None => {
                outcome.fail(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let line = result_line(&mut outcome, args.trace);
    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in outcome.problems.iter().take(20) {
        println!("# FAILED: {problem}");
    }
    println!("{line}");
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
