//! Property-based tests of the sharded service: ball conservation and
//! ticket accounting under arbitrary fault plans, per-shard RNG mode, and
//! open-loop client traffic.
//!
//! The laws pinned here hold for *any* fault sequence:
//!
//! - lifetime conservation — everything that entered the system is
//!   served, pooled, or buffered (`admitted = completed + pending` on the
//!   ticket side);
//! - per-round report conservation (`thrown = accepted + pool`);
//! - the capacity invariant, whenever the plan never alters capacities.
//!
//! Two building blocks of the batched round path are checked against
//! reference models: the k-way reject merge against concatenate-and-
//! stable-sort, and the pending-ticket ring against the per-label
//! `HashMap` of FIFO queues it replaced.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use iba_core::CappedConfig;
use iba_serve::batch::{merge_sorted_runs, PendingTickets};
use iba_serve::workload::{run_open_loop, OpenLoop};
use iba_serve::{CappedService, RngMode, ServiceConfig};
use iba_sim::codec::{Decoder, Encoder};
use iba_sim::faults::{FaultEvent, FaultPlan};

const N: usize = 24;

fn fault_event() -> BoxedStrategy<FaultEvent> {
    // Bin indices deliberately range past n so out-of-range sanitization
    // is exercised; capacity 0 encodes "unbounded" here (the service
    // separately skips the malformed Some(0)).
    prop_oneof![
        prop::collection::vec(0usize..N + 8, 1..6).prop_map(|bins| FaultEvent::CrashBins { bins }),
        prop::collection::vec(0usize..N + 8, 1..6)
            .prop_map(|bins| FaultEvent::RecoverBins { bins }),
        (prop::collection::vec(0usize..N + 8, 1..6), 0u32..5).prop_map(|(bins, c)| {
            FaultEvent::DegradeCapacity {
                bins,
                capacity: (c > 0).then_some(c),
            }
        }),
        (1u64..20, 1u64..8).prop_map(|(extra_per_round, rounds)| FaultEvent::ArrivalBurst {
            extra_per_round,
            rounds,
        }),
        (1u64..60).prop_map(|extra| FaultEvent::PoolSurge { extra }),
    ]
    .boxed()
}

fn fault_plan() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((1u64..40, fault_event()), 0..12).prop_map(|events| {
        let mut plan = FaultPlan::new();
        for (round, event) in events {
            plan.insert(round, event);
        }
        plan
    })
}

fn alters_capacity(plan: &FaultPlan) -> bool {
    plan.iter().any(|(_, events)| {
        events
            .iter()
            .any(|e| matches!(e, FaultEvent::DegradeCapacity { .. }))
    })
}

fn service(c: u32, shards: usize, seed: u64, mode: RngMode) -> CappedService {
    CappedService::spawn(
        ServiceConfig::new(
            CappedConfig::new(N, c, 0.5).expect("valid config"),
            shards,
            seed,
        )
        .with_rng_mode(mode)
        .with_model_arrivals(true),
    )
    .expect("valid service config")
}

/// The pending-ticket store the ring replaced: one FIFO queue per
/// admission round, removed when it empties.
#[derive(Debug, Default)]
struct PendingModel(HashMap<u64, VecDeque<u64>>);

impl PendingModel {
    fn admit(&mut self, label: u64, ids: impl IntoIterator<Item = u64>) {
        for id in ids {
            self.0.entry(label).or_default().push_back(id);
        }
    }

    fn complete(&mut self, label: u64) -> Option<u64> {
        let queue = self.0.get_mut(&label)?;
        let id = queue.pop_front();
        if queue.is_empty() {
            self.0.remove(&label);
        }
        id
    }

    /// Reaps every round `<= cutoff`, oldest round first.
    fn expire_through(&mut self, cutoff: u64, expired: &mut Vec<u64>) {
        let mut labels: Vec<u64> = self.0.keys().copied().filter(|&l| l <= cutoff).collect();
        labels.sort_unstable();
        for label in labels {
            expired.extend(self.0.remove(&label).expect("listed"));
        }
    }

    fn len(&self) -> usize {
        self.0.values().map(VecDeque::len).sum()
    }

    /// The IBSV pending section as the map-based service wrote it.
    fn encode_into(&self, enc: &mut Encoder) {
        let mut labels: Vec<u64> = self.0.keys().copied().collect();
        labels.sort_unstable();
        enc.usize(labels.len());
        for label in labels {
            enc.u64(label);
            enc.u64_seq(self.0[&label].iter().copied());
        }
    }
}

/// A pending section wrapped in a checksummed envelope, as in IBSV.
fn pending_bytes(encode: impl FnOnce(&mut Encoder)) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.header("IBSV", 2);
    encode(&mut enc);
    enc.finish()
}

/// One round of ring traffic: tickets admitted, labels completed (as
/// offsets back from the round), and whether to checkpoint and resume
/// after it.
type RingRound = (u64, Vec<u64>, bool);

fn ring_rounds() -> impl Strategy<Value = Vec<RingRound>> {
    prop::collection::vec(
        (0u64..6, prop::collection::vec(0u64..9, 0..9), any::<bool>()),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The k-way merge of sorted runs is exactly concatenate-then-stable-
    /// sort: 1-8 runs, empty runs allowed, few distinct keys so equal keys
    /// span runs. Each element carries its origin, so a tie broken in the
    /// wrong order shows.
    #[test]
    fn reject_merge_equals_stable_sort_of_concatenation(
        runs in prop::collection::vec(prop::collection::vec(0u64..6, 0..24), 1..9),
    ) {
        let runs: Vec<Vec<(u64, usize, usize)>> = runs
            .into_iter()
            .enumerate()
            .map(|(r, mut keys)| {
                keys.sort_unstable();
                keys.into_iter().enumerate().map(|(i, k)| (k, r, i)).collect()
            })
            .collect();
        let mut expected: Vec<_> = runs.concat();
        expected.sort_by_key(|&(k, _, _)| k);
        let mut merged = vec![(u64::MAX, 0, 0)]; // appends, never clears
        merge_sorted_runs(runs.iter().map(Vec::as_slice), |&(k, _, _)| k, &mut merged);
        prop_assert_eq!(&merged[1..], &expected[..]);
    }

    /// The pending ring behaves as the map of per-round queues: the same
    /// completions, expired ids, ticket counts and checkpoint bytes, with
    /// zero-admit rounds (gaps), completions of labels that have no
    /// tickets, TTL reaping, and checkpoint/resume cycles mid-stream.
    #[test]
    fn pending_ring_matches_map_model(
        rounds in ring_rounds(),
        ttl in 0u64..6,
    ) {
        let (mut ring, mut model) = (PendingTickets::new(), PendingModel::default());
        let mut next_id = 0u64;
        for (round, (admit, completions, resume)) in (1u64..).zip(rounds) {
            let ids: Vec<u64> = (next_id..next_id + admit).collect();
            next_id += admit;
            prop_assert_eq!(ring.admit(round, ids.iter().copied()), admit);
            model.admit(round, ids);
            for back in completions {
                let label = round.saturating_sub(back);
                prop_assert_eq!(ring.complete(label), model.complete(label), "label {}", label);
            }
            if let Some(cutoff) = (ttl > 0).then(|| round.checked_sub(ttl)).flatten() {
                let (mut got, mut want) = (Vec::new(), Vec::new());
                let reaped = ring.expire_through(cutoff, &mut got);
                model.expire_through(cutoff, &mut want);
                prop_assert_eq!(reaped, want.len() as u64);
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(ring.len(), model.len());
            let bytes = pending_bytes(|enc| ring.encode_into(enc));
            prop_assert_eq!(&bytes, &pending_bytes(|enc| model.encode_into(enc)));
            if resume {
                let mut dec = Decoder::new(&bytes).expect("checksum holds");
                dec.header("IBSV", 2).expect("header");
                ring = PendingTickets::decode(&mut dec).expect("own bytes decode");
                prop_assert!(dec.is_exhausted());
                prop_assert_eq!(ring.len(), model.len());
            }
        }
    }

    /// Under an arbitrary fault plan, every round of a sharded service
    /// conserves balls — the per-round report law and the service-lifetime
    /// law — for any shard count and either RNG mode.
    #[test]
    fn sharded_rounds_conserve_under_arbitrary_plans(
        plan in fault_plan(),
        c in 1u32..4,
        shards in 1usize..9,
        seed in any::<u64>(),
        central in any::<bool>(),
    ) {
        let mode = if central { RngMode::Central } else { RngMode::PerShard };
        let rounds = plan.last_round().unwrap_or(0) + 10;
        let capacity_fixed = !alters_capacity(&plan);
        let mut svc = service(c, shards, seed, mode);
        svc.schedule(plan);
        for _ in 0..rounds {
            let report = svc.run_round();
            prop_assert!(report.conserves_balls(), "round report law broke");
            prop_assert!(svc.conserves_balls(), "lifetime law broke");
            if capacity_fixed {
                prop_assert!(report.max_load <= u64::from(c), "capacity exceeded");
            }
        }
    }

    /// Ticket accounting under open-loop traffic and arbitrary faults:
    /// admitted = completion notifications + still-pending tickets, and
    /// offered = submitted + shed. No request is lost or double-served.
    #[test]
    fn tickets_balance_under_open_loop_traffic(
        plan in fault_plan(),
        rate in 0u64..30,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let rounds = plan.last_round().unwrap_or(0) + 10;
        let mut svc = service(2, shards, seed, RngMode::PerShard);
        let completions = svc.take_completions().expect("fresh service");
        let load = OpenLoop::new(rate).with_plan(plan);
        let summary = run_open_loop(&mut svc, &load, rounds);

        prop_assert_eq!(summary.offered, summary.submitted + summary.shed);
        prop_assert_eq!(summary.submitted, svc.total_admitted());
        let notified = completions.try_iter().count() as u64;
        prop_assert_eq!(
            svc.total_admitted(),
            notified + svc.pending_tickets() as u64,
            "a ticket was lost or double-completed"
        );
        prop_assert!(svc.conserves_balls());
    }

    /// Central and per-shard RNG modes agree on the conservation
    /// aggregates (not the trajectory): after the same number of rounds,
    /// both have generated exactly `rounds · λn` model balls and conserve
    /// them.
    #[test]
    fn rng_modes_agree_on_aggregate_laws(
        shards in 1usize..9,
        seed in any::<u64>(),
        rounds in 1u64..40,
    ) {
        let mut central = service(2, shards, seed, RngMode::Central);
        let mut pershard = service(2, shards, seed, RngMode::PerShard);
        for _ in 0..rounds {
            central.run_round();
            pershard.run_round();
        }
        // λn = 12 is deterministic per round for the paper's arrival model.
        prop_assert_eq!(central.total_generated(), rounds * 12);
        prop_assert_eq!(pershard.total_generated(), rounds * 12);
        prop_assert!(central.conserves_balls());
        prop_assert!(pershard.conserves_balls());
    }
}
