//! Order-balanced paired-ratio timing for sub-percent margins.
//!
//! Comparing two nearly-equal code paths by timing each in isolation
//! does not work on a shared 1-CPU VM: the machine's effective speed
//! drifts a few percent from run to run (hypervisor steal that the
//! guest cannot observe), so two independent medians — or even two
//! best-of minima — carry correlated noise larger than the margin
//! under test. This module measures the **ratio** instead:
//!
//! - Each *round* runs both candidates back to back and records the
//!   ratio of their wall times. Drift that is slow relative to one
//!   round hits both sides equally and cancels in the ratio.
//! - Rounds alternate which side runs first, and the two orders are
//!   summarized **separately** (median per order, combined by
//!   geometric mean). Cache- and branch-state always favor whichever
//!   side runs second; balancing the orders cancels that position
//!   bias even when discards (below) are uneven between orders.
//! - Rounds in which the thread was descheduled are discarded:
//!   `/proc/thread-self/schedstat`'s run-delay and timeslice counters
//!   moving across the round means the scheduler intervened mid-pair.
//!   (On-CPU time itself is tick-quantized and useless for sub-ms
//!   runs; the *counters moving at all* is the reliable signal.)
//! - Each timed side runs `reps` back-to-back repetitions so the
//!   measured interval is long against timer resolution for
//!   microsecond-scale workloads.

use std::time::Instant;

/// The summary of one order-balanced paired comparison; see
/// [`paired_speedup`].
#[derive(Debug, Clone, Copy)]
pub struct PairedSpeedup {
    /// `time(baseline) / time(candidate)`: geometric mean of the two
    /// per-order median ratios. Above `1.0` the candidate is faster.
    pub speedup: f64,
    /// Median candidate wall time per rep, seconds (clean rounds only).
    pub candidate_s: f64,
    /// Median baseline wall time per rep, seconds (clean rounds only).
    pub baseline_s: f64,
    /// Rounds kept (thread held the CPU through the whole pair).
    pub kept: usize,
    /// Rounds discarded because the scheduler intervened.
    pub discarded: usize,
}

/// schedstat (run-delay ns, timeslices), or `None` when unreadable
/// (non-Linux): frozen across an interval means the thread held the
/// CPU throughout.
fn sched_marks() -> Option<(u64, u64)> {
    let s = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut it = s.split_whitespace().skip(1);
    Some((it.next()?.parse().ok()?, it.next()?.parse().ok()?))
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    if v.is_empty() {
        f64::NAN
    } else {
        v[v.len() / 2]
    }
}

/// Measures `time(baseline) / time(candidate)` with the order-balanced
/// clean-pair estimator described in the module docs. Both closures
/// must perform equivalent observable work (e.g. serve the same
/// request through two plans); `reps` back-to-back calls form one
/// timed interval.
pub fn paired_speedup(
    rounds: usize,
    reps: usize,
    candidate: impl FnMut(),
    baseline: impl FnMut(),
) -> PairedSpeedup {
    paired(rounds, reps, true, candidate, baseline)
}

/// [`paired_speedup`] for a side that parks the timing thread on
/// purpose — a multi-threaded GEMM joining its workers. Such a join
/// always moves the scheduler counters, so no round would count as
/// clean; this variant keeps every round and relies on the
/// order-balanced medians alone.
pub fn paired_speedup_threaded(
    rounds: usize,
    reps: usize,
    candidate: impl FnMut(),
    baseline: impl FnMut(),
) -> PairedSpeedup {
    paired(rounds, reps, false, candidate, baseline)
}

fn paired(
    rounds: usize,
    reps: usize,
    discard_descheduled: bool,
    mut candidate: impl FnMut(),
    mut baseline: impl FnMut(),
) -> PairedSpeedup {
    let reps = reps.max(1);
    // by_order[0]: baseline ran first; by_order[1]: candidate first.
    let mut by_order: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut cand_times = Vec::new();
    let mut base_times = Vec::new();
    let mut discarded = 0usize;
    for round in 0..rounds.max(2) {
        let candidate_first = round % 2 == 0;
        let mut pair = [0.0f64; 2]; // [candidate, baseline] seconds
        let marks = sched_marks();
        let mut clean = true;
        for position in 0..2 {
            let run_candidate = (position == 0) == candidate_first;
            let t0 = Instant::now();
            for _ in 0..reps {
                if run_candidate {
                    candidate();
                } else {
                    baseline();
                }
            }
            let dt = t0.elapsed().as_secs_f64();
            if discard_descheduled && sched_marks() != marks {
                clean = false;
            }
            pair[usize::from(!run_candidate)] = dt;
        }
        if clean {
            by_order[usize::from(candidate_first)].push(pair[1] / pair[0]);
            cand_times.push(pair[0] / reps as f64);
            base_times.push(pair[1] / reps as f64);
        } else {
            discarded += 1;
        }
    }
    let m_bf = median(&mut by_order[0]);
    let m_cf = median(&mut by_order[1]);
    // One order empty (tiny `rounds` or heavy discards): fall back to
    // the other instead of poisoning the geomean with NaN.
    let speedup = match (m_bf.is_nan(), m_cf.is_nan()) {
        (false, false) => (m_bf * m_cf).sqrt(),
        (false, true) => m_bf,
        (true, false) => m_cf,
        (true, true) => f64::NAN,
    };
    let kept = cand_times.len();
    PairedSpeedup {
        speedup,
        candidate_s: median(&mut cand_times),
        baseline_s: median(&mut base_times),
        kept,
        discarded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    fn spin(iters: u64) {
        let mut acc = 0u64;
        for i in 0..iters {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        black_box(acc);
    }

    #[test]
    fn detects_a_2x_workload_gap() {
        let r = paired_speedup(40, 4, || spin(20_000), || spin(40_000));
        assert!(
            r.speedup > 1.4,
            "2x spin gap measured as {:.3}x over {} pairs",
            r.speedup,
            r.kept
        );
        assert!(r.baseline_s > r.candidate_s);
        assert!(r.kept + r.discarded == 40);
    }

    #[test]
    fn equal_workloads_measure_near_unity() {
        let r = paired_speedup(40, 4, || spin(30_000), || spin(30_000));
        assert!(
            (0.8..1.25).contains(&r.speedup),
            "identical workloads measured {:.3}x apart",
            r.speedup
        );
    }

    #[test]
    fn threaded_pairs_keep_every_round() {
        let join = || std::thread::scope(|s| s.spawn(|| spin(20_000)).join().unwrap());
        let r = paired_speedup_threaded(6, 2, join, || spin(20_000));
        assert_eq!((r.kept, r.discarded), (6, 0));
        assert!(r.speedup.is_finite());
    }

    #[test]
    fn tiny_round_counts_still_summarize() {
        let r = paired_speedup(1, 1, || spin(1_000), || spin(1_000));
        assert!(r.kept + r.discarded == 2);
    }
}
