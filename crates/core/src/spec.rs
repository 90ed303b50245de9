//! An executable specification of CAPPED(c, λ).
//!
//! [`SpecCapped`] implements Algorithm 1 as literally as possible — per-bin
//! request gathering, an explicit "accept the oldest min{c − ℓ, ν}" sort,
//! loads recomputed from scratch every round, no incremental bookkeeping —
//! trading all performance for obviousness. Its purpose is *differential
//! testing*: driven with the same bin choices, the optimized
//! [`CappedProcess`](crate::process::CappedProcess) must produce an
//! identical trajectory (pool sizes, loads, waiting times). The
//! integration test `tests/spec_differential.rs` in this crate enforces
//! that on randomized runs.
//!
//! Keep this module boring. If a behavior question ever arises, this file
//! is the answer; the optimized process is the one under suspicion.

use iba_sim::arrivals::ArrivalModel;
use iba_sim::process::{AllocationProcess, RoundReport};

use crate::config::Capacity;
use crate::process::CappedProcess;

/// A ball in the specification: generation round plus a stable identity
/// (the order it entered the pool), used only for deterministic
/// tie-breaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SpecBall {
    label: u64,
    id: u64,
}

/// The reference implementation of CAPPED(c, λ) with externally supplied
/// bin choices.
///
/// # Examples
///
/// ```
/// use iba_core::spec::SpecCapped;
/// let mut spec = SpecCapped::new(4, 1, 2); // n = 4, c = 1, λn = 2
/// let report = spec.step_with_choices(&[0, 0]);
/// assert_eq!(report.accepted, 1); // bin 0 takes the older ball only
/// assert_eq!(report.pool_size, 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpecCapped {
    bins: usize,
    capacity: usize,
    batch: u64,
    pool: Vec<SpecBall>,
    queues: Vec<Vec<SpecBall>>, // FIFO: index 0 is served next
    round: u64,
    next_id: u64,
}

impl SpecCapped {
    /// Creates the specification process with `n` bins, capacity `c` and a
    /// deterministic batch of `batch` balls per round.
    ///
    /// # Panics
    ///
    /// Panics if `n = 0` or `c = 0`.
    pub fn new(bins: usize, capacity: u32, batch: u64) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(capacity > 0, "capacity must be positive");
        SpecCapped {
            bins,
            capacity: capacity as usize,
            batch,
            pool: Vec::new(),
            queues: vec![Vec::new(); bins],
            round: 0,
            next_id: 0,
        }
    }

    /// Starts the specification from a process's state — its round, pool
    /// and bin queues — so a differential run can begin mid-regime, for
    /// example from a warm-started stationary pool.
    ///
    /// # Panics
    ///
    /// Panics unless the process has deterministic arrivals, one uniform
    /// finite capacity on every bin, and no offline bin.
    pub fn from_process(process: &CappedProcess) -> Self {
        let config = process.config();
        let ArrivalModel::Deterministic { batch } = *config.arrivals() else {
            panic!("the specification needs deterministic arrivals");
        };
        let Capacity::Finite(c) = config.capacity() else {
            panic!("the specification needs a finite capacity");
        };
        let mut spec = SpecCapped::new(config.bins(), c.get(), batch);
        for (i, queue) in spec.queues.iter_mut().enumerate() {
            let bin = process.bin(i);
            assert!(
                bin.capacity() == config.capacity() && !process.is_bin_offline(i),
                "the specification models uniform online bins only"
            );
            // Queued balls never compete again, so their identity is moot.
            *queue = bin
                .iter()
                .map(|b| SpecBall {
                    label: b.label(),
                    id: 0,
                })
                .collect();
        }
        spec.pool = process
            .pool()
            .iter()
            .zip(0..)
            .map(|(b, id)| SpecBall {
                label: b.label(),
                id,
            })
            .collect();
        spec.next_id = spec.pool.len() as u64;
        spec.round = process.round();
        spec
    }

    /// Pool size `m(t)`.
    pub fn pool_size(&self) -> usize {
        self.pool.len()
    }

    /// Load of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ n`.
    pub fn load(&self, i: usize) -> usize {
        self.queues[i].len()
    }

    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Executes one round of Algorithm 1, literally:
    ///
    /// 1. generate `batch` balls, add to pool;
    /// 2. ball `i` (in pool order, oldest first) requests `choices[i]`;
    /// 3. every bin gathers its requests, sorts them by age (ties by pool
    ///    position) and accepts the oldest `min{c − ℓ, ν}`;
    /// 4. every non-empty bin deletes its first-queued ball.
    ///
    /// # Panics
    ///
    /// Panics if `choices.len()` is not the number of pooled balls after
    /// generation.
    pub fn step_with_choices(&mut self, choices: &[usize]) -> RoundReport {
        self.round += 1;
        let round = self.round;

        // 1. Generation.
        for _ in 0..self.batch {
            self.pool.push(SpecBall {
                label: round,
                id: self.next_id,
            });
            self.next_id += 1;
        }
        assert_eq!(choices.len(), self.pool.len(), "one choice per pooled ball");
        let thrown = self.pool.len() as u64;

        // 2 + 3. Per-bin gathering and oldest-first acceptance.
        let mut requests: Vec<Vec<usize>> = vec![Vec::new(); self.bins];
        for (pool_idx, &bin) in choices.iter().enumerate() {
            assert!(bin < self.bins, "bin choice out of range");
            requests[bin].push(pool_idx);
        }
        let mut accepted_flags = vec![false; self.pool.len()];
        for (bin, reqs) in requests.iter_mut().enumerate() {
            let free = self.capacity - self.queues[bin].len();
            // Sort requests by (label, id): the oldest balls first, ties
            // broken by pool identity. (Pool order already has this
            // property, but the specification *re-derives* it rather than
            // relying on it.)
            reqs.sort_by_key(|&idx| (self.pool[idx].label, self.pool[idx].id));
            for &idx in reqs.iter().take(free) {
                accepted_flags[idx] = true;
                self.queues[bin].push(self.pool[idx]);
            }
        }
        let accepted = accepted_flags.iter().filter(|&&a| a).count() as u64;
        let survivors: Vec<SpecBall> = self
            .pool
            .iter()
            .zip(&accepted_flags)
            .filter(|&(_, &acc)| !acc)
            .map(|(&b, _)| b)
            .collect();
        self.pool = survivors;

        // 4. FIFO deletion.
        let mut waiting_times = Vec::new();
        let mut failed_deletions = 0u64;
        let mut buffered = 0u64;
        let mut max_load = 0u64;
        for q in &mut self.queues {
            if q.is_empty() {
                failed_deletions += 1;
            } else {
                let ball = q.remove(0);
                waiting_times.push(round - ball.label);
            }
            buffered += q.len() as u64;
            max_load = max_load.max(q.len() as u64);
        }

        RoundReport {
            round,
            generated: self.batch,
            thrown,
            accepted,
            deleted: waiting_times.len() as u64,
            failed_deletions,
            pool_size: self.pool.len() as u64,
            buffered,
            max_load,
            waiting_times,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let spec = SpecCapped::new(4, 2, 2);
        assert_eq!(spec.pool_size(), 0);
        assert_eq!(spec.round(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        SpecCapped::new(4, 0, 1);
    }

    #[test]
    fn accepts_oldest_first() {
        let mut spec = SpecCapped::new(2, 1, 2);
        // Round 1: two balls, both to bin 0 -> one accepted, one pooled.
        let r = spec.step_with_choices(&[0, 0]);
        assert_eq!(r.accepted, 1);
        assert_eq!(r.pool_size, 1);
        // Round 2: leftover (label 1) + two new (label 2), all to bin 1.
        // Only the leftover is accepted.
        let r = spec.step_with_choices(&[1, 1, 1]);
        assert_eq!(r.accepted, 1);
        assert_eq!(r.pool_size, 2);
        // The accepted leftover is served immediately: waiting time 1.
        assert_eq!(r.waiting_times, vec![1]);
    }

    #[test]
    fn fifo_service_across_rounds() {
        let mut spec = SpecCapped::new(1, 3, 1);
        // Three rounds fill bin 0's buffer; service order must be the
        // acceptance order.
        let r1 = spec.step_with_choices(&[0]);
        assert_eq!(r1.waiting_times, vec![0]); // accepted and served
        let r2 = spec.step_with_choices(&[0]);
        assert_eq!(r2.waiting_times, vec![0]);
        let r3 = spec.step_with_choices(&[0]);
        assert_eq!(r3.waiting_times, vec![0]);
    }

    #[test]
    fn from_process_continues_a_warm_started_process() {
        use crate::config::CappedConfig;
        let mut p = CappedProcess::new(CappedConfig::new(32, 2, 0.75).unwrap());
        p.warm_start();
        let mut rng = iba_sim::SimRng::seed_from(5);
        for _ in 0..20 {
            p.step(&mut rng);
        }
        let mut spec = SpecCapped::from_process(&p);
        assert_eq!((spec.round(), spec.pool_size()), (20, p.pool_size()));
        for _ in 0..30 {
            let choices: Vec<usize> = (0..p.next_throw_count())
                .map(|_| rng.uniform_bin(32))
                .collect();
            let (mut a, mut b) = (
                p.step_with_choices(&choices),
                spec.step_with_choices(&choices),
            );
            a.waiting_times.sort_unstable();
            b.waiting_times.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn report_conserves() {
        let mut spec = SpecCapped::new(3, 2, 2);
        for round in 0..20 {
            let count = spec.pool_size() + 2;
            let choices: Vec<usize> = (0..count).map(|i| (i + round) % 3).collect();
            let r = spec.step_with_choices(&choices);
            assert!(r.conserves_balls());
        }
    }
}
