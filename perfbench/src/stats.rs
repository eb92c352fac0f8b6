//! Harness maths: percentiles under the ten-samples-beyond rule, the
//! open-loop request schedule, and success counting.

use std::time::{Duration, Instant};

/// Percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// A percentile is reportable only with at least this many samples
/// strictly beyond it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    (((p / 100.0) * n as f64).ceil() as usize).clamp(1, n)
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(p: f64, n: usize) -> bool {
    n > 0 && n - rank(p, n) >= MIN_BEYOND
}

/// A sorted sample set of one timing.
#[derive(Debug, Clone, Default)]
pub struct Distribution {
    sorted: Vec<f64>,
}

impl Distribution {
    /// Sorts `samples` into a distribution.
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Distribution { sorted: samples }
    }

    /// Sample count.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile `p`, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn at(&self, p: f64) -> Option<f64> {
        supported(p, self.len()).then(|| self.sorted[rank(p, self.len()) - 1])
    }

    /// The median regardless of sample count (`None` when empty).
    pub fn median(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.sorted[rank(50.0, self.len()) - 1])
    }

    /// The highest ladder percentile with enough samples beyond it, as
    /// `(percentile, value)`.
    pub fn highest_supported(&self) -> Option<(f64, f64)> {
        PERCENTILE_LADDER
            .iter()
            .rev()
            .find_map(|&p| self.at(p).map(|v| (p, v)))
    }

    /// One-line human summary: median, the highest supported
    /// percentile and the sample count.
    pub fn describe(&self, scale: f64, unit: &str) -> String {
        let median = self
            .median()
            .map_or("-".to_string(), |m| format!("{:.3}", m * scale));
        let tail = self
            .highest_supported()
            .map_or(String::new(), |(p, v)| format!(", p{p} {:.3}", v * scale));
        format!("p50 {median}{tail} {unit} (n={})", self.len())
    }
}

/// Percentile `p` of each window of consecutive samples, then
/// percentile `across` of those values over the windows. Windows keep
/// the moments when a shared host slowed or stalled the process from
/// setting the result; `across` says how many such windows to ignore.
/// `None` unless every window supports `p`.
pub fn windowed(windows: &[&[f64]], p: f64, across: f64) -> Option<f64> {
    let per_window = windows
        .iter()
        .map(|w| Distribution::new(w.to_vec()).at(p))
        .collect::<Option<Vec<f64>>>()?;
    let over = Distribution::new(per_window);
    (!over.is_empty()).then(|| over.sorted[rank(across, over.len()) - 1])
}

/// Median of `values` (the lower median for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    Distribution::new(values.to_vec()).median()
}

/// What one open-loop run observed.
#[derive(Debug, Clone, Default)]
pub struct OpenLoopRun {
    /// Per-request latency from its due time to its completion, µs.
    pub latency_us: Vec<f64>,
    /// Per-request lateness of the generator: issue time minus due
    /// time, µs.
    pub late_us: Vec<f64>,
    /// Time spent waiting for the next due time, seconds.
    pub idle_s: f64,
    /// Wall time of the whole run, seconds.
    pub elapsed_s: f64,
}

/// Issues `op(i)` for request `i` at due time `start + i / rate` for
/// `duration`, never earlier than due and never skipping a request
/// that fell behind: a stall delays the requests queued behind it,
/// and their latency, measured from the due time, shows it.
pub fn run_open_loop<F: FnMut(usize)>(
    rate_per_s: f64,
    duration: Duration,
    mut op: F,
) -> OpenLoopRun {
    assert!(rate_per_s > 0.0, "open-loop rate must be positive");
    let total = (duration.as_secs_f64() * rate_per_s).floor() as usize;
    let mut run = OpenLoopRun {
        latency_us: Vec::with_capacity(total),
        late_us: Vec::with_capacity(total),
        ..OpenLoopRun::default()
    };
    let start = Instant::now();
    for i in 0..total {
        let due = start + Duration::from_secs_f64(i as f64 / rate_per_s);
        let mut now = Instant::now();
        if now < due {
            let waited = now;
            while now < due {
                std::hint::spin_loop();
                now = Instant::now();
            }
            run.idle_s += (now - waited).as_secs_f64();
        }
        run.late_us.push((now - due).as_secs_f64() * 1e6);
        op(i);
        run.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
    }
    run.elapsed_s = start.elapsed().as_secs_f64();
    run
}

/// Success counting over one run's operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that completed.
    pub completed: u64,
    /// Operations that neither completed nor were failed on purpose by
    /// the workload's fault plan.
    pub failed: u64,
}

impl Tally {
    /// Records one operation. `injected` marks an operation the
    /// workload's fault plan sabotaged on purpose: not completing it is
    /// expected, so it lowers the completed ratio without counting as
    /// a failure.
    pub fn record(&mut self, completed: bool, injected: bool) {
        self.attempted += 1;
        if completed {
            self.completed += 1;
        } else if !injected {
            self.failed += 1;
        }
    }

    /// Records `n` operations lost to an error of the operation that
    /// carried them (a round that returned `Err`).
    pub fn record_lost(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// Completed operations over attempted ones.
    pub fn completed_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.completed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples sits at rank 990: ten beyond, reportable.
        assert!(supported(99.0, 1000));
        assert!(!supported(99.0, 999));
        // The median needs twenty samples.
        assert!(supported(50.0, 20));
        assert!(!supported(50.0, 19));
        let d = Distribution::new((1..=1000).rev().map(f64::from).collect());
        assert_eq!(d.at(99.0), Some(990.0));
        assert_eq!(d.at(99.9), None);
        assert_eq!(d.highest_supported(), Some((99.0, 990.0)));
        assert_eq!(d.median(), Some(500.0));
    }

    #[test]
    fn highest_supported_falls_back_down_the_ladder() {
        let d = Distribution::new((0..150).map(f64::from).collect());
        // p99 leaves 1 beyond, p90 leaves 15: p90 is the highest.
        assert_eq!(d.highest_supported().map(|(p, _)| p), Some(90.0));
        let small = Distribution::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(small.highest_supported(), None);
        assert_eq!(small.median(), Some(2.0));
        assert!(small.describe(1.0, "s").contains("n=3"));
    }

    #[test]
    fn windowed_percentile_reads_a_calm_window() {
        let calm: Vec<f64> = (0..100).map(f64::from).collect();
        let stalled: Vec<f64> = (0..100).map(|i| f64::from(i) + 1e6).collect();
        let windows = [&calm[..], &calm[..], &stalled[..]];
        assert_eq!(windowed(&windows, 50.0, 50.0), Some(49.0));
        assert_eq!(windowed(&windows, 90.0, 50.0), Some(89.0));
        // Two stalled windows of four: the median window is stalled,
        // the first-quartile window is calm.
        let windows = [&stalled[..], &calm[..], &stalled[..], &calm[..]];
        assert_eq!(windowed(&windows, 50.0, 50.0), Some(49.0));
        assert_eq!(windowed(&windows, 50.0, 75.0), Some(1e6 + 49.0));
        assert_eq!(windowed(&windows, 50.0, 25.0), Some(49.0));
        // p99 of 100 samples has one beyond it: unsupported.
        assert_eq!(windowed(&windows, 99.0, 50.0), None);
        assert_eq!(windowed(&[], 50.0, 50.0), None);
    }

    #[test]
    fn open_loop_times_from_the_due_time_so_a_stall_delays_later_requests() {
        let stall_at = 5;
        let stall = Duration::from_millis(30);
        let run = run_open_loop(1000.0, Duration::from_millis(60), |i| {
            if i == stall_at {
                std::thread::sleep(stall);
            }
        });
        assert_eq!(run.latency_us.len(), 60);
        // Before the stall every request ran on time.
        assert!(run.latency_us[..stall_at].iter().all(|&l| l < 10_000.0));
        // The request right after the stall was due 1 ms after the
        // stalled one began, so it waited ~29 ms: its latency and the
        // generator's lateness both show that wait.
        assert!(run.latency_us[stall_at + 1] >= 25_000.0);
        assert!(run.late_us[stall_at + 1] >= 25_000.0);
        // Lateness shrinks as the backlog drains, by 1 ms per request.
        assert!(run.latency_us[stall_at + 10] < run.latency_us[stall_at + 1]);
        assert!(run.elapsed_s >= 0.059);
    }

    #[test]
    fn tally_separates_injected_faults_from_failures() {
        let mut t = Tally::default();
        t.record(true, false);
        t.record(true, true);
        t.record(false, true);
        t.record(false, false);
        t.record_lost(4);
        assert_eq!(
            t,
            Tally {
                attempted: 8,
                completed: 2,
                failed: 5
            }
        );
        assert_eq!(t.completed_ratio(), 0.25);
        assert_eq!(Tally::default().completed_ratio(), 0.0);
    }
}
