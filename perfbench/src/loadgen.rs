//! Seeded open-loop load: Poisson arrival schedules, the single-thread
//! generator that submits on schedule and reaps with `try_wait`, and the
//! percentile rule every reported tail obeys.

use mirage_core::serve::{ModelServer, Response, ServeError};
use mirage_tensor::Tensor;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::time::{Duration, Instant};

/// Intended send offsets of `count` Poisson arrivals at `rate_per_s`:
/// exponential gaps drawn from `seed`, accumulated from t = 0.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            // 1 - U lies in (0, 1], so its logarithm is finite.
            t += -(1.0 - rng.random::<f64>()).ln() / rate_per_s;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// Splits a schedule into `parts` contiguous segments of near-equal
/// length, each rebased to start where the previous one ended, so every
/// inter-arrival gap is kept.
pub fn segments(schedule: &[Duration], parts: usize) -> Vec<Vec<Duration>> {
    let parts = parts.clamp(1, schedule.len().max(1));
    let mut base = Duration::ZERO;
    (0..parts)
        .map(|j| {
            let chunk = &schedule[j * schedule.len() / parts..(j + 1) * schedule.len() / parts];
            let rebased = chunk.iter().map(|&t| t - base).collect();
            base = chunk.last().copied().unwrap_or(base);
            rebased
        })
        .collect()
}

/// Pools the better half of a run's segments — those with the lowest
/// median — into one ascending sample.
///
/// Neighbours on a shared host slow it for seconds at a time. Every
/// segment of a run does the same work, so a slower program is slower
/// in its best segments too, while how long the host happened to be
/// busy only decides how many segments are disturbed.
pub fn best_half(segments: Vec<Vec<f64>>) -> Vec<f64> {
    let mut ranked: Vec<(f64, Vec<f64>)> = segments
        .into_iter()
        .map(|s| {
            let s = sorted(s);
            (median(&s), s)
        })
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    let keep = ranked.len().div_ceil(2);
    sorted(ranked.into_iter().take(keep).flat_map(|(_, s)| s).collect())
}

/// The `p_milli`-th per-mille percentile of an ascending sample (nearest
/// rank), **only** when at least ten samples lie beyond it: the highest
/// percentile a run of `n` samples supports is the one with ten or more
/// samples above it. `None` means the run is too short to report it.
pub fn tail_percentile(sorted: &[f64], p_milli: usize) -> Option<f64> {
    let n = sorted.len();
    let rank = (n * p_milli).div_ceil(1000);
    if n == 0 || n - rank < 10 {
        return None;
    }
    Some(sorted[rank.saturating_sub(1)])
}

/// The median of an ascending sample (0 for an empty one).
pub fn median(sorted: &[f64]) -> f64 {
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// The p99 of an ascending sample; an error when the sample is too
/// short to support it.
pub fn p99(sorted: &[f64]) -> Result<f64, String> {
    tail_percentile(sorted, 990).ok_or_else(|| {
        format!(
            "{} samples cannot support p99 (ten must lie beyond it)",
            sorted.len()
        )
    })
}

/// Sorts a sample ascending (all values are finite durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// One request's life as the generator saw it, in offsets from the
/// run's start.
pub struct Sample {
    pub index: usize,
    pub intended: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub result: Result<Response, ServeError>,
}

impl Sample {
    /// Latency from the *intended* send time, so a stalled generator or
    /// server charges the wait to every request it delayed.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.intended)
    }

    /// How late the generator actually sent the request.
    pub fn lag(&self) -> Duration {
        self.sent.saturating_sub(self.intended)
    }
}

/// Drives `server` open-loop from one thread: each request is submitted
/// when its offset from `start` in `schedule` falls due (however many
/// are still outstanding), and answers are reaped with `try_wait` in the
/// same loop. Returns one [`Sample`] per scheduled request, in index
/// order. A refused submit is answered at once with its error.
pub fn drive_open_loop(
    server: &ModelServer,
    schedule: &[Duration],
    start: Instant,
    input: impl Fn(usize) -> Tensor,
) -> Vec<Sample> {
    let mut samples: Vec<Option<Sample>> = (0..schedule.len()).map(|_| None).collect();
    let mut inflight = Vec::new();
    let mut next = 0;
    while next < schedule.len() || !inflight.is_empty() {
        let mut progressed = false;
        while next < schedule.len() && schedule[next] <= start.elapsed() {
            let x = input(next);
            let sent = start.elapsed();
            match server.submit(x) {
                Ok(pending) => inflight.push((next, sent, pending)),
                Err(e) => {
                    samples[next] = Some(Sample {
                        index: next,
                        intended: schedule[next],
                        sent,
                        done: sent,
                        result: Err(e),
                    });
                }
            }
            next += 1;
            progressed = true;
        }
        let mut i = 0;
        while i < inflight.len() {
            if let Some(result) = inflight[i].2.try_wait() {
                let done = start.elapsed();
                let (index, sent, _) = inflight.swap_remove(i);
                samples[index] = Some(Sample {
                    index,
                    intended: schedule[index],
                    sent,
                    done,
                    result,
                });
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !progressed {
            let until_due = schedule
                .get(next)
                .map_or(Duration::MAX, |due| due.saturating_sub(start.elapsed()));
            std::thread::sleep(until_due.min(Duration::from_micros(20)));
        }
    }
    samples
        .into_iter()
        .map(|s| s.expect("every scheduled request is answered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_and_other_seed_differs() {
        let a = poisson_schedule(7, 500.0, 2000);
        let b = poisson_schedule(7, 500.0, 2000);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 500.0, 2000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "offsets ascend");
        // The mean gap converges on 1 / rate.
        let span = a.last().unwrap().as_secs_f64();
        assert!(
            (span - 4.0).abs() < 0.4,
            "2000 arrivals at 500/s span {span} s"
        );
    }

    #[test]
    fn segments_keep_every_gap() {
        let schedule = poisson_schedule(3, 100.0, 10);
        let parts = segments(&schedule, 3);
        assert_eq!(
            parts.iter().map(Vec::len).collect::<Vec<_>>(),
            vec![3, 3, 4]
        );
        assert_eq!(parts[0][..], schedule[..3]);
        // The second segment starts one original gap after its start.
        assert_eq!(parts[1][0], schedule[3] - schedule[2]);
        assert_eq!(parts[2][3], schedule[9] - schedule[5]);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        let data = |n: usize| sorted((0..n).map(|i| i as f64).collect());
        // 1000 samples: rank 990, ten beyond — supported.
        assert_eq!(tail_percentile(&data(1000), 990), Some(989.0));
        // One short: only nine would lie beyond.
        assert_eq!(tail_percentile(&data(999), 990), None);
        // The median of a tiny run is fine, its p99.9 is not.
        assert_eq!(tail_percentile(&data(21), 500), Some(10.0));
        assert_eq!(tail_percentile(&data(9999), 999), None);
        assert_eq!(tail_percentile(&data(10_000), 999), Some(9989.0));
        assert_eq!(tail_percentile(&[], 500), None);
    }

    #[test]
    fn best_half_keeps_the_segments_with_the_lowest_medians() {
        let pooled = best_half(vec![
            vec![9.0, 8.0],
            vec![1.0, 2.0],
            vec![5.0, 4.0],
            vec![3.0, 30.0],
            vec![7.0, 6.0],
        ]);
        // Medians 8.5, 1.5, 4.5, 16.5, 6.5: the best three are kept.
        assert_eq!(pooled, vec![1.0, 2.0, 4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
