//! IBA1 checkpoints written by the retired `VecDeque`-per-bin storage
//! still load into the arena and continue the original trajectory.
//!
//! Each fixture under `tests/fixtures/` holds the checkpoint bytes of a
//! state whose bins lived in per-bin buffers (unbounded configurations)
//! or in an arena with unbounded and degraded live capacities. The pinned
//! hash is the continuation that storage produced from the same bytes:
//! every field of every round report, then the RNG state, final loads and
//! pool (or, for the shard fixture, every accept, serve and load).

use iba_core::checkpoint;
use iba_core::shard::BinShard;
use iba_core::{Ball, Capacity, CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::{SimRng, Simulation};

/// FNV-1a over 64-bit words.
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
}

fn load(name: &str) -> Simulation<CappedProcess> {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    checkpoint::restore(&bytes).expect("fixture decodes")
}

/// Steps a restored simulation and hashes the continuation.
fn continuation(mut sim: Simulation<CappedProcess>, rounds: u64) -> u64 {
    let mut h = Fnv::new();
    for _ in 0..rounds {
        h.report(&sim.step());
    }
    for w in sim.rng().state() {
        h.word(w);
    }
    for l in sim.process().loads() {
        h.word(l as u64);
    }
    for b in sim.process().pool().iter() {
        h.word(b.label());
    }
    h.0
}

#[test]
fn unbounded_checkpoint_continues_on_the_arena() {
    // `CappedConfig::unbounded(64, 0.75)` after 200 rounds.
    let sim = load("unbounded_64.iba1");
    assert_eq!(sim.process().round(), 200);
    assert_eq!(sim.process().config().capacity(), Capacity::Infinite);
    assert_eq!(continuation(sim, 200), 0xa1e5_49fa_df3e_aba8);
}

#[test]
fn degraded_and_raised_checkpoint_continues_on_the_arena() {
    // `CappedConfig::new(32, 2, 0.75)`: bin 1 degraded to 1, bin 5 raised
    // to unbounded, and a pool surge that loads bin 5 past c.
    let sim = load("degraded_raised_32.iba1");
    let p = sim.process();
    assert_eq!(p.bin(1).capacity(), Capacity::finite(1).unwrap());
    assert_eq!(p.bin(5).capacity(), Capacity::Infinite);
    assert_eq!(continuation(sim, 120), 0x5b9f_1e0b_678d_11fa);
}

#[test]
fn shards_from_an_unbounded_checkpoint_continue_on_the_arena() {
    // `CappedConfig::unbounded(48, 0.875)`, warm-started and run 120
    // rounds, split into two shards with `BinShard::from_state` and driven
    // with the checkpoint's RNG stream routing λn new balls a round.
    let restored = load("unbounded_shards_48.iba1");
    let config = CappedConfig::unbounded(48, 0.875).expect("valid");
    let p = restored.process();
    let mut shards: Vec<BinShard> = [0..20usize, 20..48]
        .into_iter()
        .map(|range| {
            let caps = range.clone().map(|i| p.bin(i).capacity()).collect();
            let contents = range
                .clone()
                .map(|i| p.bin(i).iter().copied().collect())
                .collect();
            let offline = range.clone().map(|i| p.is_bin_offline(i)).collect();
            BinShard::from_state(&config, range, caps, contents, offline)
        })
        .collect();
    let mut pending: Vec<Ball> = p.pool().iter().copied().collect();
    let mut rng = SimRng::from_state(restored.rng().state());
    let mut h = Fnv::new();
    for round in p.round() + 1..=p.round() + 100 {
        pending.extend(std::iter::repeat_n(Ball::generated_in(round), 42));
        let mut routed: Vec<Vec<(u32, Ball)>> = vec![Vec::new(), Vec::new()];
        for ball in pending.drain(..) {
            let bin = rng.uniform_bin(48);
            let s = usize::from(bin >= 20);
            let first = shards[s].first_bin();
            routed[s].push(((bin - first) as u32, ball));
        }
        let mut rejected = Vec::new();
        let mut waits = Vec::new();
        for (s, shard) in shards.iter_mut().enumerate() {
            h.word(shard.accept(&routed[s], &mut rejected));
            let stats = shard.serve(round, &mut Vec::new(), &mut waits);
            for v in [stats.failed_deletions, stats.buffered, stats.max_load] {
                h.word(v);
            }
        }
        for w in waits {
            h.word(w);
        }
        rejected.sort();
        for b in &rejected {
            h.word(b.label());
        }
        pending = rejected;
    }
    for shard in &shards {
        for l in shard.loads() {
            h.word(l as u64);
        }
    }
    assert_eq!(h.0, 0xb94b_c78f_d516_05fc);
}
