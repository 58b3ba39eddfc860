//! The arithmetic every reported number goes through: percentiles, the
//! median of window values, failure accounting, and the two `/proc` readers
//! (process CPU time and resident set size).

/// Nearest-rank percentile of an ascending slice (`pct` in `0..=100`), the
/// same rule `PipelineStats::latency_percentile_ms` uses. Empty input is 0.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (pct / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Median of a handful of values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the median —
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them, the
/// rule the benchmark's acceptance uses. Fewer than two values have no spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quartile = |q: usize| {
        // Exclusive method: position q(n+1)/4 in 1-based ranks, interpolated
        // (extrapolated at the ends, as Python does).
        let at = q * (n + 1);
        let below = (at / 4).clamp(1, n - 1);
        let frac = at as f64 / 4.0 - below as f64;
        sorted[below - 1] + (sorted[below] - sorted[below - 1]) * frac
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / mid.abs()
    }
}

/// What became of every request the driver tried to submit, over the whole
/// run including warm-up and drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Outcomes {
    /// Requests the driver attempted to submit (a failed write counts).
    pub submitted: u64,
    pub committed: u64,
    /// Procedure-level aborts: executed transactions, as in the paper.
    pub aborted: u64,
    pub queue_full: u64,
    pub bulk_failed: u64,
    pub disconnected: u64,
    /// Client-side transport errors, on the submit or on the reply.
    pub transport_errors: u64,
}

impl Outcomes {
    pub fn merge(&mut self, other: &Outcomes) {
        self.submitted += other.submitted;
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.queue_full += other.queue_full;
        self.bulk_failed += other.bulk_failed;
        self.disconnected += other.disconnected;
        self.transport_errors += other.transport_errors;
    }

    /// Replies that mean "the engine executed this transaction".
    pub fn executed(&self) -> u64 {
        self.committed + self.aborted
    }

    /// Everything that is not an executed transaction: shed, failed bulks,
    /// disconnects, transport errors and requests that never resolved.
    pub fn failed(&self) -> u64 {
        self.submitted.saturating_sub(self.executed())
    }

    pub fn failed_ratio(&self) -> f64 {
        if self.submitted == 0 {
            0.0
        } else {
            self.failed() as f64 / self.submitted as f64
        }
    }

    /// Every submit resolved exactly once, whatever the outcome.
    pub fn all_resolved(&self) -> bool {
        self.submitted
            == self.executed()
                + self.queue_full
                + self.bulk_failed
                + self.disconnected
                + self.transport_errors
    }
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat` fields 14 and 15. `USER_HZ` is 100 on every Linux
/// this runs on.
pub fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields count from the ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    // `fields[0]` is field 3 (state), so utime/stime sit at 11 and 12.
    (ticks(11) + ticks(12)) / 100.0
}

/// Resident set size of this process in bytes (`VmRSS` of `/proc/self/status`).
pub fn rss_bytes() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 50.0), 51.0); // round(0.5 * 99) = 50
        assert_eq!(percentile(&samples, 95.0), 95.0);
        assert_eq!(percentile(&samples, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn median_of_windows_ignores_one_outlier() {
        assert_eq!(median(&[220.0, 10.0, 230.0]), 220.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_pythons_exclusive_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert!((quartile_spread(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10,11,13], n=4) == [10.0, 11.0, 13.0]
        assert!((quartile_spread(&[10.0, 13.0, 11.0]) - 3.0 / 11.0).abs() < 1e-12);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&ten) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
        assert_eq!(quartile_spread(&[]), 0.0);
    }

    #[test]
    fn a_queue_full_and_a_dropped_reply_both_count_as_failed() {
        let o = Outcomes {
            submitted: 10,
            committed: 6,
            aborted: 2,
            queue_full: 1,
            ..Outcomes::default()
        };
        // One request never resolved at all.
        assert_eq!(o.executed(), 8);
        assert_eq!(o.failed(), 2);
        assert!((o.failed_ratio() - 0.2).abs() < 1e-12);
        assert!(!o.all_resolved());

        let clean = Outcomes {
            submitted: 8,
            committed: 6,
            aborted: 2,
            ..Outcomes::default()
        };
        assert_eq!(clean.failed(), 0);
        assert_eq!(clean.failed_ratio(), 0.0);
        assert!(clean.all_resolved());
    }

    #[test]
    fn proc_readers_see_this_process() {
        assert!(rss_bytes() > 0.0);
        let before = process_cpu_secs();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_secs() > before, "60 ms of spinning is 6 ticks");
    }
}
