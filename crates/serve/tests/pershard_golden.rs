//! Pinned goldens for [`RngMode::PerShard`].
//!
//! Central mode's trajectory is pinned against the bare process by
//! `differential.rs`; per-shard mode has no reference process, so these
//! tests pin its exact output instead. One Central scenario is pinned
//! here too, for the two outputs `differential.rs` does not compare: the
//! completion stream and the checkpoint bytes. Each scenario hashes three things: every field of
//! every [`RoundReport`] (waiting-time vectors included), the completion
//! stream in delivery order, and the final checkpoint bytes (which carry
//! every worker's RNG position). A change to how the driver picks shards
//! or how a worker draws local bins — block size, buffer reuse, merge
//! order — that alters any draw, any ball's fate or any notification
//! breaks one of the three hashes.

use iba_core::CappedConfig;
use iba_serve::{CappedService, Completion, RngMode, ServiceConfig};
use iba_sim::faults::{FaultEvent, FaultPlan};
use iba_sim::process::RoundReport;

/// FNV-1a over 64-bit words.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn report(&mut self, r: &RoundReport) {
        for v in [
            r.round,
            r.generated,
            r.thrown,
            r.accepted,
            r.deleted,
            r.failed_deletions,
            r.pool_size,
            r.buffered,
            r.max_load,
            r.waiting_times.len() as u64,
        ] {
            self.word(v);
        }
        for &w in &r.waiting_times {
            self.word(w);
        }
    }

    fn completion(&mut self, c: &Completion) {
        for v in [
            c.ticket.id(),
            c.bin,
            c.admitted_round,
            c.served_round,
            c.waiting_rounds,
        ] {
            self.word(v);
        }
    }
}

/// The three hashes of one scenario run, plus the completion count (a
/// readable sanity check that the stream is not empty).
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    trajectory: u64,
    completions: u64,
    completed: u64,
    checkpoint: u64,
}

/// Runs `rounds` rounds of a service with model arrivals,
/// `submits(round)` client requests before each round, and `plan`.
fn run(
    mode: RngMode,
    config: CappedConfig,
    shards: usize,
    seed: u64,
    plan: FaultPlan,
    rounds: u64,
    submits: impl Fn(u64) -> u64,
) -> Golden {
    let mut service = CappedService::spawn(
        ServiceConfig::new(config, shards, seed)
            .with_rng_mode(mode)
            .with_model_arrivals(true),
    )
    .expect("valid service config");
    service.schedule(plan);
    let completions = service.take_completions().expect("fresh service");
    let dispatcher = service.dispatcher();
    let (mut trajectory, mut stream) = (Fnv::new(), Fnv::new());
    let mut completed = 0;
    for round in 1..=rounds {
        for _ in 0..submits(round) {
            dispatcher.submit().expect("ingress has room");
        }
        let report = service.run_round();
        assert!(report.conserves_balls(), "round {round}");
        trajectory.report(&report);
        while let Ok(c) = completions.try_recv() {
            stream.completion(&c);
            completed += 1;
        }
    }
    assert!(service.conserves_balls());
    let mut checkpoint = Fnv::new();
    for byte in service.checkpoint_bytes() {
        checkpoint.word(u64::from(byte));
    }
    Golden {
        trajectory: trajectory.0,
        completions: stream.0,
        completed,
        checkpoint: checkpoint.0,
    }
}

/// Faults on every shard of a 100-bin, 3-shard service: crashes, a
/// degraded capacity, an arrival burst, a surge, and recovery.
fn faulted_plan() -> FaultPlan {
    FaultPlan::new()
        .with(
            5,
            FaultEvent::CrashBins {
                bins: vec![0, 1, 40, 70, 99],
            },
        )
        .with(
            12,
            FaultEvent::DegradeCapacity {
                bins: vec![2, 3, 50],
                capacity: Some(1),
            },
        )
        .with(
            20,
            FaultEvent::ArrivalBurst {
                extra_per_round: 30,
                rounds: 6,
            },
        )
        .with(33, FaultEvent::PoolSurge { extra: 90 })
        .with(
            45,
            FaultEvent::RecoverBins {
                bins: vec![0, 1, 40, 70, 99],
            },
        )
}

/// Three uneven shards (34/33/33 bins) under [`faulted_plan`], with
/// client traffic that skips every seventh round.
#[test]
fn per_shard_faulted_trajectory_matches_golden() {
    let golden = run(
        RngMode::PerShard,
        CappedConfig::new(100, 2, 0.75).expect("valid cell"),
        3,
        7,
        faulted_plan(),
        200,
        |round| round % 7 * 3,
    );
    assert_eq!(
        golden,
        Golden {
            trajectory: 0x90ef_a4cf_7cda_722e,
            completions: 0xab18_440b_848e_6d7e,
            completed: 1794,
            checkpoint: 0x6c19_c54c_c9e8_f409,
        }
    );
}

/// Rounds that throw several thousand balls, so the early rounds' bulk
/// draws span more than one block on both the driver and the workers.
#[test]
fn per_shard_large_rounds_match_golden() {
    let plan = FaultPlan::new().with(1, FaultEvent::PoolSurge { extra: 12_000 });
    let golden = run(
        RngMode::PerShard,
        CappedConfig::new(1000, 4, 0.95).expect("valid cell"),
        2,
        11,
        plan,
        40,
        |round| if round % 5 == 0 { 0 } else { 700 },
    );
    assert_eq!(
        golden,
        Golden {
            trajectory: 0x6e05_3222_36c7_5045,
            completions: 0xcd53_699c_179c_6763,
            completed: 11099,
            checkpoint: 0xc9e6_30eb_f84a_e246,
        }
    );
}

/// The faulted scenario in Central mode: its trajectory equals the bare
/// faulted process's, and this pins what rides on top of it.
#[test]
fn central_completions_and_checkpoint_match_golden() {
    let golden = run(
        RngMode::Central,
        CappedConfig::new(100, 2, 0.75).expect("valid cell"),
        3,
        7,
        faulted_plan(),
        200,
        |round| round % 7 * 3,
    );
    assert_eq!(
        golden,
        Golden {
            trajectory: 0xadbf_00f0_914b_1d59,
            completions: 0x1511_1e72_92bb_ea42,
            completed: 1794,
            checkpoint: 0xc864_228e_90a6_0f2b,
        }
    );
}
