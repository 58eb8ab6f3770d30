//! Latency of fraudulent activities (paper Eq. 4).
//!
//! For an update stream `ΔG_τ`, each labeled transaction `e_i` is
//! *generated* at `τ_i` and *responded to* (inserted + reflected in a
//! detection) at `τ_i^r`; the stream latency is
//! `L(ΔG_τ) = Σ (τ_i^r − τ_i)`. Queueing time — the portion spent waiting
//! in a batch or grouping buffer before reordering started — is tracked
//! separately because the paper observes that 99.99% of batch-mode latency
//! is queueing (§5.2).

/// Accumulates per-transaction latencies in stream time units.
#[derive(Clone, Debug, Default)]
pub struct LatencyRecorder {
    latencies: Vec<u64>,
    queueing: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one transaction: generated at `generated`, reordering
    /// started at `started`, response visible at `responded`.
    ///
    /// # Panics
    /// Panics (debug) if the timestamps are not monotone.
    pub fn record(&mut self, generated: u64, started: u64, responded: u64) {
        debug_assert!(generated <= started && started <= responded);
        self.latencies.push(responded.saturating_sub(generated));
        self.queueing.push(started.saturating_sub(generated));
    }

    /// Number of recorded transactions.
    pub fn count(&self) -> usize {
        self.latencies.len()
    }

    /// `L(ΔG_τ)`: the total latency (Eq. 4).
    pub fn total(&self) -> u64 {
        self.latencies.iter().sum()
    }

    /// Total queueing time.
    pub fn total_queueing(&self) -> u64 {
        self.queueing.iter().sum()
    }

    /// Mean latency per transaction, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.latencies.is_empty() {
            0.0
        } else {
            self.total() as f64 / self.latencies.len() as f64
        }
    }

    /// Fraction of total latency that is queueing (the paper's 99.99%
    /// observation), 0 when empty.
    pub fn queueing_fraction(&self) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            self.total_queueing() as f64 / t as f64
        }
    }

    /// The raw latencies (for percentile summaries).
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_mean() {
        let mut r = LatencyRecorder::new();
        r.record(0, 5, 10);
        r.record(10, 12, 14);
        assert_eq!(r.count(), 2);
        assert_eq!(r.total(), 14);
        assert_eq!(r.total_queueing(), 7);
        assert!((r.mean() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn queueing_fraction() {
        let mut r = LatencyRecorder::new();
        r.record(0, 9999, 10_000);
        assert!((r.queueing_fraction() - 0.9999).abs() < 1e-9);
    }

    #[test]
    fn empty_recorder_is_zeroes() {
        let r = LatencyRecorder::new();
        assert_eq!(r.count(), 0);
        assert_eq!(r.total(), 0);
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.queueing_fraction(), 0.0);
    }
}
