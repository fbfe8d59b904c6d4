//! Micro-test: the warm arrival paths allocate `O(active set)` per arrival,
//! independent of how long the stream has been running.
//!
//! PR 2/3 replaced the per-arrival full-history rebuilds (fresh
//! `Instance`/`ProgramContext` clones in PD, from-scratch YDS solves in the
//! replanning executor, full job-history scans in AVR/BKP) with persistent
//! indices maintained across arrivals.  The remaining per-arrival work —
//! pending-set snapshots for the planner, the plan itself, the committed
//! segment — is bounded by the *active* set, not the stream length.  This
//! test pins that property operationally: it feeds a long Poisson stream
//! with a bounded active set through the incremental runs and asserts that
//! the number of allocations per arrival does not grow between an early and
//! a late window of the stream (a full-history clone per arrival would make
//! the late window's allocation count scale with the history size).
//!
//! Everything lives in a single `#[test]` because the counting allocator is
//! a process-wide global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

mod common;

use pss_core::baselines::oa::OaPlanner;
use pss_core::baselines::replan::{AdmitAll, OnlineEnv, ReplanState};
use pss_core::prelude::*;

/// Counts every allocation and reallocation (not bytes: a doubling realloc
/// of a long-lived buffer is amortised-O(1) per arrival and counts once).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A Poisson stream with a bounded active set (~10 pending jobs at a time).
fn stream(n: usize, seed: u64) -> Instance {
    common::poisson_profitable(seed, 1, 2.5, n, 4.0)
}

/// Feeds the whole stream to `run`, returning the allocation counts of the
/// arrival windows `[lo, lo+len)` and `[hi, hi+len)` and the largest
/// pending-set size observed (via `peek`, called after every arrival).
fn windows<R: OnlineScheduler>(
    run: &mut R,
    instance: &Instance,
    (lo, hi, len): (usize, usize, usize),
    mut peek: impl FnMut(&R) -> usize,
) -> (usize, usize, usize) {
    let (mut early, mut late, mut max_pending) = (0usize, 0usize, 0usize);
    for (i, id) in instance.arrival_order().into_iter().enumerate() {
        let job = instance.job(id);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        run.on_arrival(job, job.release).expect("arrival");
        let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
        if (lo..lo + len).contains(&i) {
            early += spent;
        } else if (hi..hi + len).contains(&i) {
            late += spent;
        }
        max_pending = max_pending.max(peek(run));
    }
    (early, late, max_pending)
}

fn assert_flat(label: &str, early: usize, late: usize) {
    // A full-history clone per arrival would make `late` scale with the
    // ~4x larger history; genuine per-arrival work is active-set-bounded
    // and stays put.  The slack absorbs occasional buffer doublings.
    assert!(
        late <= 2 * early + 64,
        "{label}: allocations grew with the stream — {early} in the early \
         window vs {late} in the late window"
    );
}

/// Allocations of one rejected PD arrival whose window covers `k` empty
/// atomic intervals: `k` worthless jobs released at 0 with deadlines
/// `1, …, k` are rejected and leave the intervals `[i-1, i)` empty, then the
/// measured job (window `[0, k)`, also worthless) covers all of them.
fn pd_rejection_allocations(k: usize) -> usize {
    let alpha = 2.5;
    let mut pd = OnlinePd::new(2, alpha);
    for i in 0..k {
        let job = Job::new(i, 0.0, (i + 1) as f64, 1.0, 1e-9);
        assert!(!pd.on_arrival(&job, 0.0).expect("arrival").accepted);
    }
    let probe = Job::new(k, 0.0, k as f64, 1.0, 1e-9);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let decision = pd.on_arrival(&probe, 0.0).expect("arrival");
    let spent = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(!decision.accepted);
    spent
}

#[test]
fn incremental_arrival_paths_do_not_allocate_with_history_size() {
    let n = 2000;
    let instance = stream(n, 8600);
    let windows_spec = (300usize, 1600usize, 200usize);

    // OA through the warm replanning executor: the satellite audit target.
    let mut oa = ReplanState::new(
        OaPlanner { speed_factor: 1.0 },
        AdmitAll,
        OnlineEnv {
            machines: 1,
            alpha: instance.alpha,
        },
    );
    let (early, late, max_pending) =
        windows(&mut oa, &instance, windows_spec, |run| run.pending().len());
    assert_flat("OA warm replans", early, late);
    assert!(
        max_pending <= 64,
        "OA pending set not bounded by the active set: {max_pending}"
    );

    // AVR through the active-set index.
    let mut avr = AvrScheduler.start_for(&instance).expect("AVR run");
    let (early, late, _) = windows(&mut avr, &instance, windows_spec, |_| 0);
    assert_flat("AVR indexed commits", early, late);

    // BKP through the resident speed index and lazy EDF heap.
    let bkp = BkpScheduler::default();
    let mut run = bkp.start_for(&instance).expect("BKP run");
    let (early, late, _) = windows(&mut run, &instance, windows_spec, |_| 0);
    assert_flat("BKP indexed grid", early, late);

    // PD through its persistent sparse planning context (m = 2, so the
    // fill's per-machine capacity formula is exercised).
    let mut pd = OnlinePd::new(2, instance.alpha);
    let (early, late, _) = windows(&mut pd, &instance, windows_spec, |_| 0);
    assert_flat("PD incremental water-fills", early, late);

    // A rejected PD arrival folds the empty intervals of its window into
    // one total length: its allocation count must not grow with how many
    // empty intervals the window covers (a per-interval candidate would
    // allocate ~K times).
    let at_k8 = pd_rejection_allocations(8);
    let at_k2000 = pd_rejection_allocations(2000);
    assert!(
        at_k2000 <= at_k8 + 8,
        "PD rejection allocations grew with the covered empty intervals: \
         {at_k8} over K = 8 vs {at_k2000} over K = 2000"
    );

    // Burst ingestion: with the replan shared by the whole burst, the
    // allocation count *per arrival* must not grow with the burst size b —
    // a batch path that secretly re-planned per job would scale ~b-fold.
    let per_arrival = |b: usize, seed: u64| -> usize {
        let inst = common::bursty_poisson_profitable(seed, 1, 2.5, n, b, 4.0 / b as f64, 0.0);
        // Group the stream into its equal-release bursts up front, so the
        // measurement covers only the ingestion calls.
        let mut bursts: Vec<(f64, Vec<Job>)> = Vec::new();
        for id in inst.arrival_order() {
            let job = *inst.job(id);
            match bursts.last_mut() {
                Some((t, jobs)) if job.release == *t => jobs.push(job),
                _ => bursts.push((job.release, vec![job])),
            }
        }
        let mut run = ReplanState::new(
            OaPlanner { speed_factor: 1.0 },
            AdmitAll,
            OnlineEnv {
                machines: 1,
                alpha: inst.alpha,
            },
        );
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        for (t, jobs) in &bursts {
            run.on_arrivals(jobs, *t).expect("burst");
        }
        (ALLOCATIONS.load(Ordering::Relaxed) - before) / n
    };
    let at_b4 = per_arrival(4, 8700);
    let at_b16 = per_arrival(16, 8701);
    assert!(
        at_b16 <= at_b4 + at_b4 / 2 + 8,
        "OA burst ingestion allocations grew with b: {at_b4}/arrival at b=4 \
         vs {at_b16}/arrival at b=16"
    );
}
