//! Differential validation of the flat-arena round kernel (SoA
//! [`iba_core::BinArena`] storage + counting-sort acceptance + bulk RNG)
//! against the legacy scalar kernel it replaced — one `VecDeque` per bin,
//! one RNG draw and one random-access push per ball.
//!
//! The scalar kernel is gone; its trajectories are not. Each scenario
//! below was run on it, and the run's hash is pinned here: every field of
//! every [`RoundReport`] (waiting-time vectors included), the RNG state
//! after every round, and the final loads and pool. The arena kernel must
//! reproduce each hash, so these tests still prove the old-vs-new
//! equivalence across `(n, c, λ)` cells, seeds, warm starts, pre-drawn
//! choice slices, heterogeneous and unbounded capacities, fault
//! injection, and checkpoint/resume round-trips. `spec_differential.rs`
//! holds the same kernel against the naive Algorithm 1 oracle.

use iba_core::checkpoint;
use iba_core::shard::BinShard;
use iba_core::{Ball, Capacity, CappedConfig, CappedProcess};
use iba_sim::faults::{FaultEvent, FaultPlan, FaultedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::{SimRng, Simulation};

/// The `(n, c, λ)` cells of the cross-seed golden: tight (c = 1),
/// paper-typical (c ∈ {2, 3}), wide-buffer (c = 8), and high-λ regimes.
/// λn must be integral for the deterministic arrival model.
const CELLS: &[(usize, u32, f64)] = &[
    (64, 2, 0.75),
    (128, 1, 0.5),
    (96, 3, 0.875),
    (256, 8, 0.9375),
];

const SEEDS: &[u64] = &[1, 42, 0xDEAD_BEEF];

/// FNV-1a over the observable trajectory.
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
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

    fn rng(&mut self, rng: &SimRng) {
        for w in rng.state() {
            self.word(w);
        }
    }

    fn state(&mut self, p: &CappedProcess) {
        for l in p.loads() {
            self.word(l as u64);
        }
        for b in p.pool().iter() {
            self.word(b.label());
        }
    }
}

/// Steps `p` for `rounds` rounds from `seed` and hashes the trajectory.
fn stepped(mut p: CappedProcess, seed: u64, rounds: u64) -> u64 {
    let mut h = Fnv::new();
    let mut rng = SimRng::seed_from(seed);
    for _ in 0..rounds {
        h.report(&p.step(&mut rng));
        h.rng(&rng);
    }
    h.state(&p);
    h.0
}

/// Runs `config` under `plan` for `rounds` rounds and hashes it.
fn faulted(config: CappedConfig, plan: FaultPlan, seed: u64, rounds: u64) -> u64 {
    let mut p = FaultedProcess::new(CappedProcess::new(config), plan);
    let mut h = Fnv::new();
    let mut rng = SimRng::seed_from(seed);
    for _ in 0..rounds {
        h.report(&p.step(&mut rng));
        h.rng(&rng);
    }
    h.state(p.inner());
    h.0
}

#[test]
fn arena_kernel_reproduces_the_scalar_goldens_across_cells_and_seeds() {
    const GOLDEN: [[u64; 3]; 4] = [
        [
            0x935f_c70f_9e34_2398,
            0x9c9d_74e0_a81c_2fed,
            0xd1a7_936c_abbf_ad65,
        ],
        [
            0x6e5f_fdca_d23f_9c76,
            0x1e7e_174c_c3fa_4455,
            0xa159_55f1_697c_283c,
        ],
        [
            0x4844_6057_a4eb_458b,
            0x345e_7153_a820_fabd,
            0xd049_3c23_e5d4_4685,
        ],
        [
            0x4f8f_bcc5_3610_6aa7,
            0x6c54_95b3_8ef0_be9f,
            0x2fb3_0828_c562_da70,
        ],
    ];
    for (&(n, c, lambda), golden) in CELLS.iter().zip(GOLDEN) {
        for (&seed, expected) in SEEDS.iter().zip(golden) {
            let p = CappedProcess::new(CappedConfig::new(n, c, lambda).expect("valid cell"));
            assert_eq!(
                stepped(p, seed, 300),
                expected,
                "n={n} c={c} lambda={lambda} seed={seed}"
            );
        }
    }
}

#[test]
fn arena_kernel_reproduces_the_scalar_golden_from_warm_start() {
    // Warm-started processes begin mid-regime, so the kernel is exercised
    // at stationary pool sizes from the first round.
    for (n, c, lambda, expected) in [
        (128, 2, 0.75, 0x5ff9_3d29_faaa_e1a8),
        (64, 4, 0.9375, 0xae66_11fd_b9cb_8315),
    ] {
        let mut p = CappedProcess::new(CappedConfig::new(n, c, lambda).expect("valid cell"));
        p.warm_start();
        assert_eq!(stepped(p, 7, 200), expected, "warm n={n} c={c}");
    }
}

#[test]
fn arena_kernel_reproduces_the_scalar_golden_under_pre_drawn_choices() {
    // `step_with_choices` drives the kernel's slice path — the hook the
    // Lemma-1/6 coupling uses.
    for (n, c, lambda, expected) in [
        (32, 2, 0.75, 0x242a_f20f_36a5_855e),
        (48, 3, 0.875, 0x0813_bf24_0bce_795a),
        (16, 1, 0.5, 0x4ba3_b55a_7e89_fbb4),
    ] {
        let mut p = CappedProcess::new(CappedConfig::new(n, c, lambda).expect("valid cell"));
        let mut rng = SimRng::seed_from(1234);
        let mut h = Fnv::new();
        for _ in 0..150 {
            let thrown = p.next_throw_count();
            let choices: Vec<usize> = (0..thrown).map(|_| rng.uniform_bin(n)).collect();
            h.report(&p.step_with_choices(&choices));
        }
        h.state(&p);
        assert_eq!(h.0, expected, "slice path n={n} c={c}");
    }
}

#[test]
fn arena_kernel_reproduces_the_scalar_golden_on_heterogeneous_capacities() {
    let n = 96;
    let profile: Vec<u32> = (0..n as u32).map(|i| 1 + (i % 4)).collect();
    let config = CappedConfig::new(n, 2, 0.75)
        .expect("valid")
        .with_capacity_profile(profile)
        .expect("valid profile");
    assert_eq!(
        stepped(CappedProcess::new(config), 9, 250),
        0x3e88_54cd_f343_7832
    );
}

#[test]
fn arena_kernel_reproduces_the_scalar_golden_on_unbounded_configs() {
    // CAPPED(∞): every bin is unbounded, so the arena grows its stride
    // until it covers the largest load.
    for (n, lambda, golden) in [
        (
            64,
            0.75,
            [
                0x29d5_442d_4800_0cbc,
                0xb4f4_d582_fe4f_31bc,
                0x27cc_5bf9_1d5e_1f74,
            ],
        ),
        (
            128,
            0.9375,
            [
                0x1285_9534_131e_4961,
                0xcca8_7309_b236_1a56,
                0xe8dd_d6b5_c24f_d657,
            ],
        ),
    ] {
        for (&seed, expected) in SEEDS.iter().zip(golden) {
            let p = CappedProcess::new(CappedConfig::unbounded(n, lambda).expect("valid"));
            assert_eq!(stepped(p, seed, 300), expected, "n={n} seed={seed}");
        }
    }
}

/// A fault scenario covering every event the kernel must survive: bins
/// going offline mid-run, capacity degradation below current load,
/// restoration to the configured bound, a raise to *unbounded* (which
/// forces the arena to grow its stride), bursts, and surges.
fn scenario() -> FaultPlan {
    FaultPlan::new()
        .with(
            5,
            FaultEvent::CrashBins {
                bins: vec![0, 7, 13],
            },
        )
        .with(
            8,
            FaultEvent::DegradeCapacity {
                bins: vec![2, 3],
                capacity: Some(1),
            },
        )
        .with(
            10,
            FaultEvent::ArrivalBurst {
                extra_per_round: 11,
                rounds: 3,
            },
        )
        .with(12, FaultEvent::PoolSurge { extra: 40 })
        .with(
            14,
            FaultEvent::DegradeCapacity {
                bins: vec![4],
                capacity: None, // raised to unbounded: the arena must grow
            },
        )
        .with(18, FaultEvent::RecoverBins { bins: vec![0, 7] })
        .with(
            22,
            FaultEvent::DegradeCapacity {
                bins: vec![2, 3, 4],
                capacity: Some(2),
            },
        )
        .with(25, FaultEvent::RecoverBins { bins: vec![13] })
}

/// The scalar golden of [`scenario`] on `(48, 2, 0.75)` at seed 42.
const FAULT_GOLDEN_SEED_42: u64 = 0xd737_35e4_aa1f_9683;

#[test]
fn arena_kernel_reproduces_the_scalar_golden_under_fault_injection() {
    let golden = [
        0x3a5f_19f5_898a_77e4,
        FAULT_GOLDEN_SEED_42,
        0x592e_b138_80ff_fda9,
    ];
    for (&seed, expected) in SEEDS.iter().zip(golden) {
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        assert_eq!(
            faulted(config, scenario(), seed, 120),
            expected,
            "seed {seed}"
        );
    }
}

#[test]
fn arena_kernel_survives_capacity_raised_past_u16() {
    // Regression: `fast_accept` packs per-bin quota into the high 16 bits
    // of a u32 register, so a fault-raised capacity past 65535 must take
    // the `counting_accept` fallback instead of corrupting the packed
    // cursor bits. The plan raises one bin far past u16::MAX mid-run and
    // later degrades it back down, while arrivals keep flowing.
    let plan = || {
        FaultPlan::new()
            .with(
                6,
                FaultEvent::DegradeCapacity {
                    bins: vec![3],
                    capacity: Some(70_000), // > u16::MAX: packed quota would wrap
                },
            )
            .with(10, FaultEvent::PoolSurge { extra: 200 })
            .with(
                20,
                FaultEvent::DegradeCapacity {
                    bins: vec![3],
                    capacity: Some(2),
                },
            )
    };
    let golden = [
        0x0d48_edb8_35cc_1047,
        0xf0a4_73fb_7b69_e50b,
        0x6291_5424_9467_43a8,
    ];
    for (&seed, expected) in SEEDS.iter().zip(golden) {
        let config = CappedConfig::new(32, 2, 0.75).expect("valid");
        assert_eq!(faulted(config, plan(), seed, 60), expected, "seed {seed}");
    }
}

#[test]
fn telemetry_toggle_does_not_perturb_the_trajectory() {
    // Telemetry probes consume no RNG and never branch on process state,
    // so toggling the registry on must leave the faulted arena trajectory
    // on its scalar golden — reports and RNG consumption both — while the
    // counters actually move. This test owns the global flag: it is the
    // only test in this binary that calls `set_enabled`, and it restores
    // the flag before returning.
    let run = |enabled: bool| {
        iba_obs::set_enabled(enabled);
        let config = CappedConfig::new(48, 2, 0.75).expect("valid");
        faulted(config, scenario(), 42, 120)
    };

    let registry = iba_obs::global();
    let probes = [
        registry.counter("iba_core_accepted_balls_total"),
        registry.counter("iba_core_arena_fast_accept_rounds_total"),
        registry.counter("iba_core_arena_fallback_rounds_total"),
        registry.counter("iba_core_arena_grow_total"),
    ];
    let total = |probes: &[std::sync::Arc<iba_obs::Counter>]| -> u64 {
        probes.iter().map(|c| c.get()).sum()
    };

    let before = total(&probes);
    let off = run(false);
    assert_eq!(
        total(&probes),
        before,
        "disabled probes must not move counters"
    );
    let on = run(true);
    iba_obs::set_enabled(false);
    assert_eq!(
        off, FAULT_GOLDEN_SEED_42,
        "telemetry-off run left the golden"
    );
    assert_eq!(
        on, FAULT_GOLDEN_SEED_42,
        "enabling telemetry perturbed the run"
    );
    assert!(
        total(&probes) > before,
        "enabled probes should have recorded the run"
    );
}

#[test]
fn degraded_arena_bin_rejects_and_keeps_overflow() {
    // Direct (non-plan) capacity degradation: a bin holding more balls
    // than its degraded capacity keeps them, rejects new requests, and
    // drains FIFO.
    let config = CappedConfig::new(4, 3, 0.5).expect("valid");
    let mut p = CappedProcess::new(config);
    p.inject_pool(1);
    p.step_with_choices(&[0, 0, 0]);
    assert_eq!(p.bin(0).len(), 2);
    p.set_bin_capacity(0, Capacity::finite(1).unwrap());
    let r = p.step_with_choices(&[0, 0]);
    assert_eq!(r.accepted, 0);
    assert_eq!(p.bin(0).len(), 1);
    assert!(p.conserves_balls());
}

#[test]
fn checkpoint_round_trip_reproduces_the_scalar_golden() {
    // 80 rounds → checkpoint → 80 more rounds, both uninterrupted and from
    // the restored copy. The checkpoint bytes equal the scalar kernel's
    // (checkpoints never recorded the kernel), and both continuations
    // land on the scalar run's trajectory hash.
    let golden: [(usize, u32, f64, u64, u64, u64); 6] = [
        (64, 2, 0.75, 3, 0xaf14_10f3_fd6c_e89d, 0xda04_f7ba_0c5f_3f9b),
        (
            64,
            2,
            0.75,
            77,
            0xd42f_b2e6_8958_9fb6,
            0x7523_26b7_799b_1088,
        ),
        (
            96,
            3,
            0.875,
            3,
            0x1c2d_bba2_d020_c6a1,
            0xd51e_88e1_401c_2b3d,
        ),
        (
            96,
            3,
            0.875,
            77,
            0x58d8_f874_fed3_d88f,
            0xbf96_7b22_3d81_e64c,
        ),
        (128, 1, 0.5, 3, 0x0166_46ee_694c_3e4b, 0xca94_4fdb_0ca2_5645),
        (
            128,
            1,
            0.5,
            77,
            0x987e_4a94_0199_8172,
            0x84f7_66cb_03f3_2c41,
        ),
    ];
    for (n, c, lambda, seed, trajectory, bytes_hash) in golden {
        let config = CappedConfig::new(n, c, lambda).expect("valid cell");
        let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(seed));
        let mut h = Fnv::new();
        for _ in 0..80 {
            h.report(&sim.step());
        }
        let bytes = checkpoint::save(&sim);
        let mut hb = Fnv::new();
        hb.bytes(&bytes);
        assert_eq!(hb.0, bytes_hash, "checkpoint bytes n={n} c={c} seed={seed}");
        let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
        let mut hr = h;
        for round in 0..80 {
            let a = sim.step();
            let r = restored.step();
            assert_eq!(a, r, "restored run diverged at round {round}");
            h.report(&a);
            hr.report(&r);
        }
        for (mut h, sim) in [(h, &sim), (hr, &restored)] {
            h.rng(sim.rng());
            h.state(sim.process());
            assert_eq!(h.0, trajectory, "n={n} c={c} lambda={lambda} seed={seed}");
        }
    }
}

#[test]
fn faulted_checkpoint_round_trips_through_the_arena() {
    // Degrade capacities (including a raise to unbounded) before the
    // checkpoint, so the restore must rebuild an arena whose live
    // capacities diverge from the configured profile — over-full bins and
    // all — then continue bit-exactly.
    let config = CappedConfig::new(32, 2, 0.75).expect("valid");
    let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(23));
    sim.run_rounds(30);
    sim.process_mut()
        .set_bin_capacity(1, Capacity::finite(1).unwrap());
    sim.process_mut().set_bin_capacity(5, Capacity::Infinite);
    sim.process_mut().set_bin_offline(9, true);
    sim.run_rounds(30);

    let bytes = checkpoint::save(&sim);
    let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
    assert_eq!(
        restored.process().bin(1).capacity(),
        Capacity::finite(1).unwrap()
    );
    assert_eq!(restored.process().bin(5).capacity(), Capacity::Infinite);
    assert!(restored.process().is_bin_offline(9));
    for round in 0..80 {
        assert_eq!(
            sim.step(),
            restored.step(),
            "degraded resume diverged at round {round}"
        );
    }
}

#[test]
fn overfull_uniform_restore_rearms_with_zero_room() {
    // Regression for a quota underflow: raise a bin to unbounded, overfill
    // it past c₀, degrade it back to c₀, and checkpoint. The restore
    // re-derives a *uniform* capacity profile around a bin whose load
    // exceeds c₀; the re-arm sweep must give that bin zero room
    // (`saturating_sub`), not an underflowed 16-bit quota. The restored
    // copy continues bit-exactly while the overfull bin drains.
    let config = CappedConfig::new(16, 2, 0.75).expect("valid");
    let mut sim = Simulation::new(CappedProcess::new(config), SimRng::seed_from(19));
    sim.run_rounds(10);
    sim.process_mut().set_bin_capacity(3, Capacity::Infinite);
    sim.process_mut().inject_pool(60);
    sim.run_rounds(10);
    assert!(
        sim.process().bin(3).len() > 2,
        "bin 3 must be loaded past c0"
    );
    sim.process_mut()
        .set_bin_capacity(3, Capacity::finite(2).unwrap());

    let bytes = checkpoint::save(&sim);
    let mut restored = checkpoint::restore(&bytes).expect("valid checkpoint");
    for round in 0..60 {
        let a = sim.step();
        let r = restored.step();
        assert_eq!(a, r, "overfull restore diverged at {round}");
    }
    assert!(restored.process().bin(3).len() <= 2, "bin 3 drained");
    assert!(restored.process().conserves_balls());
}

#[test]
fn shard_reproduces_the_scalar_golden_through_elastic_membership_changes() {
    // BinShard-level golden: a shard fed a seeded routed stream through
    // bin growth and shrink mid-run (the elastic-membership surface the
    // service uses) lands on the scalar-kernel shard's hash.
    let config = CappedConfig::new(16, 2, 0.75).expect("valid");
    let mut shard = BinShard::new(&config, 0..8);
    let mut rng = SimRng::seed_from(3);
    let mut pending: Vec<Ball> = Vec::new();
    let mut h = Fnv::new();
    for round in 1..=120u64 {
        if round == 30 || round == 45 {
            shard.push_bin_with(Capacity::finite(2).unwrap(), &[], false);
        }
        if round == 80 {
            let (_, balls, _) = shard.pop_bin();
            for b in &balls {
                h.word(b.label());
            }
            pending.extend(balls); // drained balls re-enter the stream
        }
        let bins = shard.len();
        pending.extend(std::iter::repeat_n(Ball::generated_in(round), 6));
        pending.sort();
        let requests: Vec<(u32, Ball)> = pending
            .drain(..)
            .map(|ball| (rng.uniform_bin(bins) as u32, ball))
            .collect();
        let mut rejected = Vec::new();
        h.word(shard.accept(&requests, &mut rejected));
        let (mut served, mut waits) = (Vec::new(), Vec::new());
        let stats = shard.serve(round, &mut served, &mut waits);
        for v in [stats.failed_deletions, stats.buffered, stats.max_load] {
            h.word(v);
        }
        for w in waits {
            h.word(w);
        }
        for l in shard.loads() {
            h.word(l as u64);
        }
        for b in &rejected {
            h.word(b.label());
        }
        pending = rejected;
    }
    assert_eq!(h.0, 0x0177_8496_e7b1_eba6);
}

#[test]
fn step_into_refills_the_report_without_divergence() {
    // The engine's allocation-free loop (`step_into` with one reused
    // report) must observe the same trajectory as fresh-report `step`.
    let config = CappedConfig::new(64, 2, 0.75).expect("valid");
    let mut a = CappedProcess::new(config.clone());
    let mut b = CappedProcess::new(config);
    let mut rng_a = SimRng::seed_from(31);
    let mut rng_b = SimRng::seed_from(31);
    let mut reused = RoundReport::default();
    for round in 0..200 {
        b.step_into(&mut rng_b, &mut reused);
        let fresh = a.step(&mut rng_a);
        assert_eq!(reused, fresh, "step_into diverged at round {round}");
    }
}
