//! Open-loop pacing: a fixed schedule of rounds through a rate ladder.
//!
//! Every round has a *due* time fixed before the run starts. The sender
//! waits for it when early and sends at once when late, and latency is
//! always charged from the due time — so a stall in the system under
//! test is paid by every round it delays, not hidden by a generator
//! that slowed down with it.

use std::time::{Duration, Instant};

/// One rung of the rate ladder.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Step {
    /// Offered load across all connections, edges per second.
    pub rate_eps: f64,
    pub secs: f64,
}

/// Due times for every round of a ladder.
#[derive(Clone, Debug)]
pub struct Schedule {
    /// Per step: (first round, due offset of that round, round period).
    steps: Vec<(usize, u64, u64)>,
    rounds: usize,
}

impl Schedule {
    /// `round_edges` edges leave together as one round; the round is due
    /// when its last edge is.
    pub fn new(ladder: &[Step], round_edges: usize) -> Schedule {
        let mut steps = Vec::with_capacity(ladder.len());
        let (mut first, mut offset) = (0usize, 0u64);
        for step in ladder {
            let period_ns = (round_edges as f64 / step.rate_eps * 1e9).round() as u64;
            let count = ((step.secs * 1e9) as u64 / period_ns).max(1) as usize;
            steps.push((first, offset, period_ns));
            first += count;
            offset += count as u64 * period_ns;
        }
        Schedule { steps, rounds: first }
    }

    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The ladder step `round` belongs to.
    pub fn step_of(&self, round: usize) -> usize {
        self.steps.iter().rposition(|&(first, _, _)| first <= round).expect("step 0 starts at 0")
    }

    /// Rounds in `step`.
    pub fn step_rounds(&self, step: usize) -> std::ops::Range<usize> {
        let end = self.steps.get(step + 1).map_or(self.rounds, |&(first, _, _)| first);
        self.steps[step].0..end
    }

    pub fn period_ns(&self, step: usize) -> u64 {
        self.steps[step].2
    }

    /// Nanoseconds after the run's start at which `round` is due: one
    /// period after the previous round, so round 0 is due one period in.
    pub fn due_ns(&self, round: usize) -> u64 {
        let (first, offset, period) = self.steps[self.step_of(round)];
        offset + (round - first + 1) as u64 * period
    }
}

/// Blocks until `due_ns` after `start` and returns the lag: how long
/// after the due time the caller is released (a late caller's delay, or
/// an early caller's oversleep).
pub fn wait_until(start: Instant, due_ns: u64) -> u64 {
    let due = start + Duration::from_nanos(due_ns);
    loop {
        let now = Instant::now();
        match due.checked_duration_since(now) {
            Some(early) if !early.is_zero() => std::thread::sleep(early),
            _ => return (now - due).as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ladder() -> Schedule {
        // 64-edge rounds: 1000 rounds/s for 0.5 s, then 4000 rounds/s for 0.25 s.
        Schedule::new(
            &[Step { rate_eps: 64_000.0, secs: 0.5 }, Step { rate_eps: 256_000.0, secs: 0.25 }],
            64,
        )
    }

    #[test]
    fn due_times_follow_each_steps_period() {
        let s = ladder();
        assert_eq!(s.rounds(), 500 + 1000);
        assert_eq!(s.period_ns(0), 1_000_000);
        assert_eq!(s.period_ns(1), 250_000);
        assert_eq!(s.due_ns(0), 1_000_000);
        assert_eq!(s.due_ns(499), 500_000_000);
        // The second step starts where the first ended.
        assert_eq!(s.due_ns(500), 500_250_000);
        assert_eq!(s.due_ns(1499), 750_000_000);
        assert_eq!((s.step_of(499), s.step_of(500), s.step_of(1499)), (0, 1, 1));
        assert_eq!(s.step_rounds(0), 0..500);
        assert_eq!(s.step_rounds(1), 500..1500);
        assert!((1..s.rounds()).all(|r| s.due_ns(r) > s.due_ns(r - 1)));
    }

    #[test]
    fn lateness_is_charged_from_the_due_time() {
        let start = Instant::now();
        // Early: waits for the due time; the lag is only the oversleep.
        let lag = wait_until(start, 2_000_000);
        assert!(start.elapsed() >= Duration::from_millis(2));
        assert!(lag <= start.elapsed().as_nanos() as u64 - 2_000_000);
        // Late: returns at once with the lag since the due time.
        let lag = wait_until(start, 1_000_000);
        assert!(lag >= 1_000_000, "lag {lag} ns");
        assert!(lag <= start.elapsed().as_nanos() as u64);
    }
}
