//! The round scratch is bounded and visible: the
//! `iba_serve_round_scratch_bytes` gauge rises with a pool surge and
//! comes back down once rounds are quiet again, because every recycled
//! round buffer is shrunk when it holds over twice its round's need.
//!
//! One test in its own binary: it turns telemetry on and reads a global
//! gauge, which a concurrently running service would also write.

use iba_core::CappedConfig;
use iba_serve::{CappedService, RngMode, ServiceConfig};
use iba_sim::faults::{FaultEvent, FaultPlan};

fn gauge() -> u64 {
    iba_obs::global()
        .gauge("iba_serve_round_scratch_bytes")
        .get()
}

#[test]
fn scratch_gauge_falls_back_after_a_pool_surge() {
    iba_obs::set_enabled(true);
    for mode in [RngMode::Central, RngMode::PerShard] {
        let mut service = CappedService::spawn(
            ServiceConfig::new(CappedConfig::new(1024, 2, 0.5).expect("valid"), 2, 5)
                .with_rng_mode(mode)
                .with_model_arrivals(true),
        )
        .expect("valid service config");
        service.run_rounds(5);
        let quiet = gauge();
        assert_eq!(quiet, service.round_scratch_bytes() as u64, "{mode:?}");

        service.schedule(FaultPlan::new().with(6, FaultEvent::PoolSurge { extra: 40_000 }));
        service.run_round();
        let surged = gauge();
        assert!(
            surged > 4 * quiet,
            "{mode:?}: a 40 000-ball surge grows the scratch ({quiet} -> {surged} bytes)"
        );

        // 512 balls arrive and at most 1024 leave per round: the surge
        // drains within ~80 rounds; then the buffers shrink.
        let mut rounds = 0;
        while service.pool_size() > 2048 {
            service.run_round();
            rounds += 1;
            assert!(rounds < 1000, "{mode:?}: the surge never drained");
        }
        service.run_rounds(5);
        let after = gauge();
        assert_eq!(after, service.round_scratch_bytes() as u64, "{mode:?}");
        assert!(
            after * 2 < surged,
            "{mode:?}: scratch stayed at {after} bytes after the surge's {surged}"
        );
        assert!(service.conserves_balls());
    }
}
