//! Round throughput of the flat-arena kernel (SoA slot arena,
//! counting-sort acceptance, bulk RNG) through `step_into`, the entry
//! point the simulation engine drives.
//!
//! Cells pin λ = 0.95 (the committed-baseline regime; λn must be
//! integral, hence the decimal bin counts) and sweep the capacities of
//! `BENCH_round_kernel.json`. The committed n = 10⁶ baseline itself —
//! including the kernel-vs-oracle ratio `spec_speedup` — is regenerated
//! by the `round_kernel_baseline` binary; this bench is the
//! interactive/CI view at bench-friendly sizes.
//!
//! Setting `IBA_BENCH_QUICK=1` shrinks the cells and sample counts to a
//! seconds-long smoke run (used by CI to keep this harness from rotting).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use iba_core::{CappedConfig, CappedProcess};
use iba_sim::process::{AllocationProcess, RoundReport};
use iba_sim::rng::SimRng;

fn quick() -> bool {
    std::env::var_os("IBA_BENCH_QUICK").is_some()
}

/// Builds a process and steps it to its stationary regime so the benched
/// rounds are representative.
fn warmed(n: usize, c: u32, lambda: f64, warmup: u64) -> CappedProcess {
    let config = CappedConfig::new(n, c, lambda).expect("valid cell");
    let mut p = CappedProcess::new(config);
    p.warm_start();
    let mut rng = SimRng::seed_from(1);
    let mut report = RoundReport::default();
    for _ in 0..warmup {
        p.step_into(&mut rng, &mut report);
    }
    p
}

fn bench_round_kernel(c_bench: &mut Criterion) {
    let (cells, warmup, samples): (&[(usize, u32)], u64, usize) = if quick() {
        (&[(2_000, 2), (2_000, 8)], 20, 3)
    } else {
        (&[(100_000, 2), (100_000, 4), (100_000, 8)], 100, 10)
    };
    let lambda = 0.95;
    let mut group = c_bench.benchmark_group("round_kernel");
    group.sample_size(samples);
    for &(n, c) in cells {
        let id = BenchmarkId::new(format!("n{n}_c{c}_lambda{lambda}"), "arena");
        group.bench_function(id, |b| {
            let mut p = warmed(n, c, lambda, warmup);
            let mut rng = SimRng::seed_from(2);
            let mut report = RoundReport::default();
            b.iter(|| p.step_into(&mut rng, &mut report));
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_secs(3))
        .warm_up_time(Duration::from_millis(500))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_round_kernel
}
criterion_main!(benches);
