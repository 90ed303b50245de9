//! Worker-thread internals: the per-shard command loop.
//!
//! Each worker owns one [`BinShard`] (a contiguous range of bins) and, in
//! per-shard RNG mode, its own [`SimRng`] stream. The driver broadcasts
//! one command per round on the worker's private channel; because mpsc
//! channels deliver in send order, fault commands sent before a round
//! command are guaranteed to apply before that round executes.

use std::mem::size_of;
use std::sync::mpsc::{Receiver, Sender};

use iba_core::shard::BinShard;
use iba_core::{Ball, Capacity};
use iba_sim::SimRng;

use crate::batch::shrink_excess;
use crate::obs;

/// Balls per bulk bin draw. The driver and the workers draw bins in
/// blocks of this many with [`SimRng::fill_uniform_bins`], which consumes
/// the stream exactly as one `uniform_bin` call per ball does; a block
/// stays in L1 while its balls are routed.
pub(crate) const DRAW_BLOCK: usize = 4096;

/// One shard's round buffers. The driver hands them to the worker with
/// the round command and gets them back, filled, in the [`ShardReply`];
/// it clears and refills them the next round, so a steady-state round
/// allocates none of them.
#[derive(Debug, Default)]
pub(crate) struct RoundBufs {
    /// Per-shard RNG mode: the balls routed to this shard, oldest first;
    /// the worker draws their local bins into `requests`.
    pub balls: Vec<Ball>,
    /// `(local bin, ball)` requests, oldest first: filled by the driver
    /// in central RNG mode, by the worker in per-shard mode.
    pub requests: Vec<(u32, Ball)>,
    /// Rejected balls, in request order (hence oldest-first).
    pub rejected: Vec<Ball>,
    /// Waiting times of the served balls, in bin order. A served ball's
    /// label is `round − wait`.
    pub waits: Vec<u64>,
    /// Local bin index of each served ball, parallel to `waits`.
    pub served_bins: Vec<u32>,
}

impl RoundBufs {
    /// Empties every buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.balls.clear();
        self.requests.clear();
        self.rejected.clear();
        self.waits.clear();
        self.served_bins.clear();
    }

    /// Releases capacity a burst left behind: each buffer is shrunk when
    /// it holds over twice what this round put in it.
    pub fn shrink_excess(&mut self) {
        shrink_excess(&mut self.balls, 0);
        shrink_excess(&mut self.requests, 0);
        shrink_excess(&mut self.rejected, 0);
        shrink_excess(&mut self.waits, 0);
        shrink_excess(&mut self.served_bins, 0);
    }

    /// Heap bytes held, by capacity.
    pub fn bytes(&self) -> usize {
        self.balls.capacity() * size_of::<Ball>()
            + self.requests.capacity() * size_of::<(u32, Ball)>()
            + self.rejected.capacity() * size_of::<Ball>()
            + self.waits.capacity() * size_of::<u64>()
            + self.served_bins.capacity() * size_of::<u32>()
    }
}

/// A fault operation targeting one local bin of a shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FaultOp {
    /// Take the bin offline (`true`) or bring it back (`false`).
    Offline(bool),
    /// Change the bin's live capacity (`None` = unbounded).
    Capacity(Option<u32>),
}

/// One command from the driver to a shard worker.
#[derive(Debug)]
pub(crate) enum ShardCmd {
    /// Apply a fault operation to local bin `local` before the next round.
    Fault { local: u32, op: FaultOp },
    /// Execute one round on `bufs.requests`, already routed to local
    /// bins (central RNG mode).
    RoundRouted { round: u64, bufs: RoundBufs },
    /// Execute one round on `bufs.balls`, drawing a uniform local bin per
    /// ball from the worker's own RNG stream (per-shard RNG mode).
    RoundDraw { round: u64, bufs: RoundBufs },
    /// Capture the shard's full state for a service checkpoint. The reply
    /// goes to the dedicated `reply` channel so it cannot interleave with
    /// round replies.
    Snapshot { reply: Sender<ShardSnapshot> },
    /// Append bins (capacity, FIFO contents oldest-first, offline flag)
    /// at the top of the shard's local index space — elastic growth, or
    /// the receiving half of a shard merge.
    PushBins {
        parts: Vec<(Capacity, Vec<Ball>, bool)>,
    },
    /// Remove the top `count` bins and hand their state back in ascending
    /// bin order (elastic shrink). The worker never gives up its last bin;
    /// the driver clamps `count` accordingly.
    PopBins {
        count: usize,
        reply: Sender<Vec<(Capacity, Vec<Ball>, bool)>>,
    },
    /// Split the shard at local bin `at`, handing back the upper half in
    /// ascending bin order (the driver spawns a new worker for it).
    SplitOff {
        at: usize,
        reply: Sender<Vec<(Capacity, Vec<Ball>, bool)>>,
    },
    /// Terminate the worker loop.
    Stop,
}

/// One shard's checkpointable state, as captured by [`ShardCmd::Snapshot`]
/// between rounds.
#[derive(Debug)]
pub(crate) struct ShardSnapshot {
    pub shard: usize,
    /// Per-bin live capacities (fault injection may have diverged them
    /// from the configured profile).
    pub caps: Vec<Capacity>,
    /// Per-bin FIFO contents, oldest first.
    pub contents: Vec<Vec<Ball>>,
    /// Per-bin offline flags.
    pub offline: Vec<bool>,
    /// The worker's RNG stream position (`None` in central RNG mode).
    pub rng_state: Option<[u64; 4]>,
}

/// A worker's answer to one round command.
#[derive(Debug)]
pub(crate) struct ShardReply {
    pub shard: usize,
    pub round: u64,
    /// Balls accepted into this shard's bins this round.
    pub accepted: u64,
    /// The round command's buffers, carrying the rejected balls and the
    /// served balls' waits and bins.
    pub bufs: RoundBufs,
    /// Online bins whose deletion attempt found an empty buffer.
    pub failed_deletions: u64,
    /// Balls left buffered in this shard after the deletion stage.
    pub buffered: u64,
    /// Maximum bin load in this shard after the deletion stage.
    pub max_load: u64,
}

/// The worker loop: owns the shard state for its whole lifetime and
/// executes commands until `Stop` or the driver disappears.
pub(crate) fn worker_loop(
    shard_id: usize,
    mut bins: BinShard,
    mut rng: Option<SimRng>,
    cmds: Receiver<ShardCmd>,
    replies: Sender<ShardReply>,
) {
    let mut draw = vec![0u32; DRAW_BLOCK];
    for cmd in cmds {
        // Membership commands resize the shard between rounds, so the
        // local bin count is re-read per command, never cached.
        let local_n = bins.len();
        match cmd {
            ShardCmd::Fault { local, op } => match op {
                FaultOp::Offline(offline) => bins.set_offline(local as usize, offline),
                FaultOp::Capacity(capacity) => {
                    let capacity = match capacity {
                        None => Capacity::Infinite,
                        Some(c) => match Capacity::finite(c) {
                            Ok(cap) => cap,
                            Err(_) => continue, // malformed (0): skip, like FaultedProcess
                        },
                    };
                    bins.set_capacity(local as usize, capacity);
                }
            },
            ShardCmd::RoundRouted { round, bufs } => {
                if run_round(shard_id, &mut bins, round, bufs, &replies).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::RoundDraw { round, mut bufs } => {
                let rng = rng
                    .as_mut()
                    .expect("RoundDraw requires a per-shard RNG stream");
                for block in bufs.balls.chunks(DRAW_BLOCK) {
                    let local = &mut draw[..block.len()];
                    rng.fill_uniform_bins(local_n, local);
                    bufs.requests
                        .extend(local.iter().copied().zip(block.iter().copied()));
                }
                if run_round(shard_id, &mut bins, round, bufs, &replies).is_err() {
                    return;
                }
            }
            ShardCmd::Snapshot { reply } => {
                let snapshot = ShardSnapshot {
                    shard: shard_id,
                    caps: (0..local_n).map(|i| bins.bin(i).capacity()).collect(),
                    contents: (0..local_n)
                        .map(|i| bins.bin(i).iter().copied().collect())
                        .collect(),
                    offline: (0..local_n).map(|i| bins.is_offline(i)).collect(),
                    rng_state: rng.as_ref().map(SimRng::state),
                };
                if reply.send(snapshot).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::PushBins { parts } => {
                for (capacity, contents, offline) in parts {
                    bins.push_bin_with(capacity, &contents, offline);
                }
            }
            ShardCmd::PopBins { count, reply } => {
                debug_assert!(count < local_n, "driver keeps at least one bin");
                let mut parts: Vec<_> = (0..count).map(|_| bins.pop_bin()).collect();
                parts.reverse(); // popped top-down; hand back in bin order
                if reply.send(parts).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::SplitOff { at, reply } => {
                if reply.send(bins.split_off(at)).is_err() {
                    return; // driver gone
                }
            }
            ShardCmd::Stop => return,
        }
    }
}

fn run_round(
    shard_id: usize,
    bins: &mut BinShard,
    round: u64,
    mut bufs: RoundBufs,
    replies: &Sender<ShardReply>,
) -> Result<(), ()> {
    let timer = iba_obs::PhaseTimer::start();
    let accepted = bins.accept(&bufs.requests, &mut bufs.rejected);
    let stats = bins.serve_with_bins(round, &mut bufs.waits, &mut bufs.served_bins);
    if let Some(p) = obs::probes() {
        timer.observe(&p.shard_round_nanos);
    }
    replies
        .send(ShardReply {
            shard: shard_id,
            round,
            accepted,
            bufs,
            failed_deletions: stats.failed_deletions,
            buffered: stats.buffered,
            max_load: stats.max_load,
        })
        .map_err(|_| ())
}
