//! Property-based tests of the CAPPED process internals: acceptance-rule
//! equivalence and determinism under pre-drawn choices.

use proptest::prelude::*;

use iba_core::{Ball, BinArena, Capacity, CappedConfig, CappedProcess, Pool};
use iba_sim::process::AllocationProcess;
use iba_sim::SimRng;

/// Reference implementation of Algorithm 1's acceptance rule for one
/// round: given per-ball bin choices (balls indexed oldest-first), each bin
/// accepts its ν oldest requests truncated at free capacity. Returns the
/// set of accepted ball indices.
fn reference_acceptance(choices: &[usize], free: &[usize]) -> Vec<bool> {
    let mut accepted = vec![false; choices.len()];
    for (bin, &bin_free) in free.iter().enumerate() {
        let mut room = bin_free;
        // Requests in global age order; take the first `room` of them.
        for (i, &b) in choices.iter().enumerate() {
            if room == 0 {
                break;
            }
            if b == bin {
                accepted[i] = true;
                room -= 1;
            }
        }
    }
    accepted
}

proptest! {
    /// The process's greedy in-order acceptance equals the per-bin
    /// "oldest min{c−ℓ, ν}" rule on the first round from empty state.
    #[test]
    fn acceptance_equals_reference_rule(
        n in 2usize..16,
        c in 1u32..4,
        choices in prop::collection::vec(0usize..16, 1..40),
    ) {
        let choices: Vec<usize> = choices.into_iter().map(|b| b % n).collect();
        let balls = choices.len();
        // λn = balls must satisfy λ <= 1 - 1/n; bypass by injecting into the
        // pool instead: lambda = 0 and pre-filled pool.
        let config = CappedConfig::new(n, c, 0.0).expect("valid");
        let mut p = CappedProcess::new(config);
        p.inject_pool(balls as u64);
        let report = p.step_with_choices(&choices);

        let reference = reference_acceptance(&choices, &vec![c as usize; n]);
        let expected_accepted = reference.iter().filter(|&&a| a).count() as u64;
        prop_assert_eq!(report.accepted, expected_accepted);
        // Bin loads after acceptance-minus-deletion match the reference.
        for bin in 0..n {
            let ref_load = choices
                .iter()
                .zip(&reference)
                .filter(|&(&b, &a)| b == bin && a)
                .count();
            let after_deletion = ref_load.saturating_sub(1);
            prop_assert_eq!(p.bin(bin).len(), after_deletion, "bin {}", bin);
        }
    }

    /// Trajectories under shared choices are identical (full determinism).
    #[test]
    fn deterministic_under_shared_choices(
        n in 2usize..12,
        c in 1u32..4,
        seed in any::<u64>(),
        rounds in 1u64..20,
    ) {
        let batch = n as u64 / 2;
        let lambda = batch as f64 / n as f64;
        let config = CappedConfig::new(n, c, lambda).expect("valid");
        let mut a = CappedProcess::new(config.clone());
        let mut b = CappedProcess::new(config);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..rounds {
            let count = a.next_throw_count();
            let choices: Vec<usize> = (0..count).map(|_| rng.uniform_bin(n)).collect();
            let ra = a.step_with_choices(&choices);
            let rb = b.step_with_choices(&choices);
            prop_assert_eq!(ra, rb);
        }
    }

    /// A one-bin arena never exceeds its capacity and serves FIFO for
    /// arbitrary operation sequences. `cap == 0` stands for an unbounded
    /// bin: it starts on a one-slot ring, so its pushes outgrow the ring
    /// and force the stride to grow with the balls in place.
    #[test]
    fn buffer_respects_capacity_and_fifo(
        cap in 0u32..8,
        ops in prop::collection::vec(any::<bool>(), 1..200),
    ) {
        let capacity = match cap {
            0 => Capacity::Infinite,
            c => Capacity::finite(c).unwrap(),
        };
        let mut bin = BinArena::new(vec![capacity]);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut label = 0u64;
        let mut peak = 0usize;
        for push in ops {
            if push {
                label += 1;
                let accepted = bin.try_accept(0, Ball::generated_in(label));
                if capacity.has_room(model.len()) {
                    prop_assert!(accepted);
                    model.push_back(label);
                } else {
                    prop_assert!(!accepted);
                }
            } else {
                let served = bin.serve(0).map(|b| b.label());
                prop_assert_eq!(served, model.pop_front());
            }
            prop_assert_eq!(bin.len(0), model.len());
            prop_assert!(model.len() <= capacity.as_finite().map_or(usize::MAX, |c| c as usize));
            let held: Vec<u64> = bin.iter_bin(0).map(|b| b.label()).collect();
            prop_assert_eq!(held, Vec::from(model.clone()));
            peak = peak.max(model.len());
        }
        prop_assert!(bin.stride() >= peak, "the ring must cover the largest load");
    }

    /// The pool keeps balls age-sorted through arbitrary generation bursts.
    #[test]
    fn pool_stays_sorted(counts in prop::collection::vec(0u64..10, 1..30)) {
        let mut pool = Pool::new();
        for (round, &count) in counts.iter().enumerate() {
            pool.push_generation(round as u64 + 1, count);
            prop_assert!(pool.is_age_sorted());
        }
        let total: u64 = counts.iter().sum();
        prop_assert_eq!(pool.len() as u64, total);
    }

    /// Warm start plus stepping preserves conservation for arbitrary sizes.
    #[test]
    fn injection_preserves_conservation(
        n in 4usize..32,
        extra in 0u64..500,
        seed in any::<u64>(),
    ) {
        let batch = n as u64 / 2;
        let lambda = batch as f64 / n as f64;
        let config = CappedConfig::new(n, 2, lambda).expect("valid");
        let mut p = CappedProcess::new(config);
        p.inject_pool(extra);
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..10 {
            p.step(&mut rng);
            prop_assert!(p.conserves_balls());
        }
    }
}
