//! `serve_net`: `run_net_loop` on loopback with n = 1024, c = 2, one
//! shard and a 1 ms round interval, driven by one client thread over one
//! connection in two phases:
//!
//! - an **open loop** at a fixed 200 000 req/s, so the bins run at
//!   λ ≈ 0.2 and the network path, not the bins, sets latency; each
//!   request is timed from its *due* time to `Accepted` and `Completed`;
//! - a **closed loop** with a window of 1024 requests outstanding until
//!   `Completed`, sent in batches of 64, up to a fixed request count.
//!
//! It is the only workload where net, proto and dispatch do most of the
//! work and the kernel almost none. The server loop polls without idle
//! naps (see [`loop_options`]), so the server loop and the client are the
//! two busy threads. The service's balls thrown are only
//! countable through its shard counters, so the program's registry is on
//! in every `serve_net` run; the traced run adds the benchmark's spans.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use iba_core::CappedConfig;
use iba_serve::proto::MAGIC;
use iba_serve::{
    run_net_loop, CappedService, Completion, Frame, FrameDecoder, NetFrontend, NetLoopOptions,
    NetStats, ServiceConfig,
};

use super::{ratio, repeated_setup, ObsDelta};
use crate::report::Outcome;
use crate::stats::{median, nanos, peak_rss_mb, LatencyHist};
use crate::trace::Tracer;
use crate::RunArgs;

/// Bins.
pub const N: usize = 1024;
/// Bin capacity.
pub const C: u32 = 2;
/// Wall-clock spacing of rounds.
pub const ROUND_INTERVAL: Duration = Duration::from_millis(1);
/// Open-loop offered rate, requests per second.
pub const OPEN_RATE: f64 = 200_000.0;
/// Share of `--seconds` spent in the open loop.
pub const OPEN_SHARE: f64 = 0.8;
/// Closed-loop window: requests sent and neither completed nor refused.
pub const WINDOW: u64 = 1024;
/// Closed-loop batch: requests per write.
pub const BATCH: u64 = 64;
/// Closed-loop request count (the `--tiny` run uses 20 000).
pub const CLOSED_REQUESTS: u64 = 3_000_000;
/// Requests of the set-up warm-up.
pub const WARM_REQUESTS: u64 = 65_536;
/// An open-loop run whose generator fell further behind its schedule
/// than this is invalid: its latencies would describe the client.
pub const LATE_BOUND_US: f64 = 50_000.0;
/// How long the client waits for owed completions before failing.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(30);
/// Request ids of the closed loop start here; open-loop ids start at 0.
const CLOSED_BASE: u64 = 1 << 40;

/// The server loop's options: 1 ms rounds, and no idle naps between
/// polls. With `run_net_loop`'s default 100 µs naps, open-loop admission
/// latency measures how fast the VM wakes a sleeping thread: its median
/// moved by 30 % between runs on a 2-vCPU host, against 1 % without naps.
fn loop_options() -> NetLoopOptions {
    NetLoopOptions {
        round_interval: ROUND_INTERVAL,
        idle_sleep: Duration::ZERO,
        ..NetLoopOptions::default()
    }
}

/// What the server thread measured in its traced phase.
#[derive(Debug, Default)]
struct ServerLayers {
    round_ns: Vec<f64>,
    poll: LatencyHist,
    polls: u64,
    idle_polls: u64,
    notify_ns: u64,
    notified: u64,
    write_queue_peak: u64,
    pending_peak: u64,
    depth_peak: u64,
}

/// What the server thread returns when it stops.
#[derive(Debug)]
struct ServerEnd {
    stats: NetStats,
    conserves: bool,
    layers: ServerLayers,
}

/// Drives the loop by hand in `run_net_loop`'s order — `on_round`, `poll`
/// until the round is due, `run_round`, `drain_expired_tickets`,
/// `try_recv` + `notify`, `poll` — timing each call. Like
/// [`loop_options`], it polls without idle naps.
fn traced_loop(
    service: &mut CappedService,
    frontend: &mut NetFrontend,
    completions: &Receiver<Completion>,
    stop: &AtomicBool,
    tracer: &Tracer,
) -> ServerLayers {
    let dispatcher = service.dispatcher();
    let queue_gauge = iba_obs::global().gauge("iba_serve_net_write_queue_bytes");
    let interval = loop_options().round_interval;
    let mut layers = ServerLayers::default();
    let poll = |frontend: &mut NetFrontend, layers: &mut ServerLayers| {
        let t0 = Instant::now();
        let activity = frontend.poll(&dispatcher);
        layers.poll.record(nanos(t0.elapsed()), 1);
        layers.polls += 1;
        layers.write_queue_peak = layers.write_queue_peak.max(queue_gauge.get());
        activity
    };
    while !stop.load(Ordering::Relaxed) {
        let root = tracer.open("net.round", None);
        let parent = Some(root.id());
        let span = tracer.open("net.on_round", parent);
        frontend.on_round(service.round() + 1);
        tracer.close(span);

        let span = tracer.open("net.poll_loop", parent);
        let deadline = Instant::now() + interval;
        loop {
            if poll(frontend, &mut layers) == 0 {
                layers.idle_polls += 1;
            }
            if Instant::now() >= deadline || stop.load(Ordering::Relaxed) {
                break;
            }
        }
        tracer.close(span);

        layers.depth_peak = layers.depth_peak.max(dispatcher.depth() as u64);
        let span = tracer.open("service.run_round", parent);
        service.run_round();
        layers.round_ns.push(tracer.close(span) as f64);
        layers.pending_peak = layers.pending_peak.max(service.pending_tickets() as u64);

        let span = tracer.open("service.expire", parent);
        for id in service.drain_expired_tickets() {
            frontend.forget_ticket(id);
        }
        tracer.close(span);

        let span = tracer.open("net.notify", parent);
        let mut notified = 0;
        while let Ok(completion) = completions.try_recv() {
            frontend.notify(&completion);
            notified += 1;
        }
        layers.notify_ns += tracer.close(span);
        layers.notified += notified;

        let span = tracer.open("net.flush_poll", parent);
        poll(frontend, &mut layers);
        tracer.close(span);
        tracer.close(root);
    }
    layers
}

/// The client side: one connection, frames in and out.
struct Client {
    stream: TcpStream,
    decoder: FrameDecoder,
    out: Vec<u8>,
    out_pos: usize,
    buf: Vec<u8>,
    /// Open phase: its start; request `i` is due at `open_start + i / rate`.
    open_start: Option<Instant>,
    /// Closed phase: send time of each batch.
    batch_sent: Vec<Instant>,
    /// Ticket → request id, for admitted requests not yet completed.
    in_flight: HashMap<u64, u64>,
    sent: u64,
    accepted: u64,
    refused: u64,
    completed: u64,
    unknown_completions: u64,
    proto_errors: u64,
    /// Open-loop latencies per one-second window of due times.
    admit: Vec<LatencyHist>,
    done: Vec<LatencyHist>,
    late_us_max: f64,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.write_all(&MAGIC)?;
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            decoder: FrameDecoder::new(),
            out: Vec::new(),
            out_pos: 0,
            buf: vec![0; 64 << 10],
            open_start: None,
            batch_sent: Vec::new(),
            in_flight: HashMap::new(),
            sent: 0,
            accepted: 0,
            refused: 0,
            completed: 0,
            unknown_completions: 0,
            proto_errors: 0,
            admit: Vec::new(),
            done: Vec::new(),
            late_us_max: 0.0,
        })
    }

    /// When request `req` was due (open loop) or sent (closed loop).
    fn origin(&self, req: u64) -> Option<Instant> {
        if req >= CLOSED_BASE {
            return self
                .batch_sent
                .get(((req - CLOSED_BASE) / BATCH) as usize)
                .copied();
        }
        self.open_start
            .map(|t| t + Duration::from_secs_f64(req as f64 / OPEN_RATE))
    }

    /// Records an open-loop latency into the window of its due time.
    fn record(windows: &mut Vec<LatencyHist>, req: u64, nanos: u64) {
        let window = (req as f64 / OPEN_RATE) as usize;
        if windows.len() <= window {
            windows.resize_with(window + 1, LatencyHist::new);
        }
        windows[window].record(nanos, 1);
    }

    fn queue(&mut self, req: u64) {
        Frame::Alloc { req_id: req }.encode_into(&mut self.out);
        self.sent += 1;
    }

    /// Writes what the socket takes and reads and handles every frame
    /// that has arrived. Errors end the run.
    fn pump(&mut self) -> Result<(), String> {
        while self.out_pos < self.out.len() {
            match self.stream.write(&self.out[self.out_pos..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(k) => self.out_pos += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        loop {
            match self.stream.read(&mut self.buf) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(k) => self.decoder.push(&self.buf[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => return Err(format!("read: {e}")),
            }
        }
        let now = Instant::now();
        loop {
            match self.decoder.next_frame() {
                Ok(Some(Frame::Accepted { req_id, ticket })) => {
                    self.accepted += 1;
                    self.in_flight.insert(ticket, req_id);
                    if req_id < CLOSED_BASE {
                        if let Some(due) = self.origin(req_id) {
                            let late = nanos(now.saturating_duration_since(due));
                            Self::record(&mut self.admit, req_id, late);
                        }
                    }
                }
                Ok(Some(Frame::Saturated { .. } | Frame::Closed { .. })) => self.refused += 1,
                Ok(Some(Frame::Completed { ticket, .. })) => match self.in_flight.remove(&ticket) {
                    Some(req) => {
                        self.completed += 1;
                        if req < CLOSED_BASE {
                            if let Some(due) = self.origin(req) {
                                let late = nanos(now.saturating_duration_since(due));
                                Self::record(&mut self.done, req, late);
                            }
                        }
                    }
                    None => self.unknown_completions += 1,
                },
                Ok(Some(Frame::Alloc { .. })) => self.proto_errors += 1,
                Ok(None) => return Ok(()),
                Err(e) => {
                    self.proto_errors += 1;
                    return Err(format!("protocol error from the server: {e}"));
                }
            }
        }
    }

    /// Sends at `OPEN_RATE` for `duration`, each request at its due time.
    fn open_loop(&mut self, duration: Duration) -> Result<u64, String> {
        let total = (duration.as_secs_f64() * OPEN_RATE) as u64;
        let start = Instant::now();
        self.open_start = Some(start);
        let mut next = 0u64;
        while next < total {
            let now = Instant::now();
            let due_by = (((now - start).as_secs_f64() * OPEN_RATE) as u64 + 1).min(total);
            if due_by > next {
                let due = self.origin(next).expect("open phase started");
                let late = now.saturating_duration_since(due).as_secs_f64() * 1e6;
                self.late_us_max = self.late_us_max.max(late);
                for req in next..due_by {
                    self.queue(req);
                }
                next = due_by;
            }
            self.pump()?;
        }
        Ok(total)
    }

    /// Keeps at most [`WINDOW`] requests outstanding (sent and neither
    /// completed nor refused), sending in batches of [`BATCH`], until
    /// `total` requests have completed or been refused. Call with nothing
    /// in flight. Returns the admissions and the phase's wall time.
    fn closed_loop(&mut self, total: u64) -> Result<(u64, Duration), String> {
        let (accepted0, refused0, completed0) = (self.accepted, self.refused, self.completed);
        let base = CLOSED_BASE + self.batch_sent.len() as u64 * BATCH;
        let start = Instant::now();
        let mut sent = 0u64;
        let deadline = start + DRAIN_TIMEOUT * 4;
        loop {
            let finished = self.completed - completed0 + self.refused - refused0;
            if finished >= total {
                break;
            }
            if Instant::now() > deadline {
                return Err(format!("closed loop stalled at {finished}/{total}"));
            }
            if sent < total && sent - finished + BATCH <= WINDOW {
                let batch = BATCH.min(total - sent);
                self.batch_sent.push(Instant::now());
                for i in 0..batch {
                    self.queue(base + sent + i);
                }
                sent += batch;
            }
            self.pump()?;
        }
        Ok((self.accepted - accepted0, start.elapsed()))
    }

    /// Waits until every admitted request has completed.
    fn drain(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !self.in_flight.is_empty() || self.out_pos < self.out.len() {
            if Instant::now() > deadline {
                return Err(format!(
                    "{} admitted requests never completed",
                    self.in_flight.len()
                ));
            }
            self.pump()?;
            std::thread::sleep(Duration::from_micros(50));
        }
        Ok(())
    }
}

/// A running server thread and the client connected to it.
struct Harness {
    client: Client,
    server: Option<JoinHandle<ServerEnd>>,
    /// Ends the untraced `run_net_loop` phase.
    stop_plain: Arc<AtomicBool>,
    /// Ends the server thread.
    stop_all: Arc<AtomicBool>,
}

impl Harness {
    fn start(seed: u64, tracer: Option<Arc<Tracer>>) -> Result<Harness, String> {
        let capped = CappedConfig::new(N, C, 0.5).expect("the serve_net cell is valid");
        let mut service = CappedService::spawn(ServiceConfig::new(capped, 1, seed))
            .map_err(|e| format!("spawn: {e}"))?;
        let completions = service.take_completions().expect("a fresh service");
        let mut frontend = NetFrontend::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = frontend.local_addr();
        let stop_plain = Arc::new(AtomicBool::new(false));
        let stop_all = Arc::new(AtomicBool::new(false));
        let server = {
            let (stop_plain, stop_all) = (Arc::clone(&stop_plain), Arc::clone(&stop_all));
            std::thread::spawn(move || {
                let opts = loop_options();
                let mut layers = ServerLayers::default();
                if let Some(tracer) = tracer {
                    run_net_loop(
                        &mut service,
                        &mut frontend,
                        &completions,
                        &opts,
                        &stop_plain,
                    );
                    layers = traced_loop(
                        &mut service,
                        &mut frontend,
                        &completions,
                        &stop_all,
                        &tracer,
                    );
                } else {
                    run_net_loop(&mut service, &mut frontend, &completions, &opts, &stop_all);
                }
                let end = ServerEnd {
                    stats: frontend.stats(),
                    conserves: service.conserves_balls(),
                    layers,
                };
                service.shutdown();
                end
            })
        };
        let mut harness = Harness {
            client: Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?,
            server: Some(server),
            stop_plain,
            stop_all,
        };
        harness.client.closed_loop(WARM_REQUESTS)?;
        harness.client.drain()?;
        Ok(harness)
    }

    /// Stops the server thread and returns what it measured.
    fn stop(&mut self) -> Result<ServerEnd, String> {
        self.stop_plain.store(true, Ordering::Relaxed);
        self.stop_all.store(true, Ordering::Relaxed);
        self.server
            .take()
            .expect("the server is stopped once")
            .join()
            .map_err(|_| "the server thread panicked".to_string())
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if self.server.is_some() {
            let _ = self.stop();
        }
    }
}

/// Quantile `q` of each full one-second window (the last, partial one is
/// left out unless it is the only one), in µs, and the median across
/// windows, so a stall of the host moves one window rather than the run;
/// returns it with the number of samples behind it.
fn windowed_quantile(windows: &[LatencyHist], q: f64) -> (f64, u64) {
    let full = if windows.len() > 1 {
        &windows[..windows.len() - 1]
    } else {
        windows
    };
    let per_window: Vec<f64> = full.iter().filter_map(|w| w.quantile_us(q)).collect();
    (
        median(&per_window),
        full.iter().map(LatencyHist::count).sum(),
    )
}

/// Runs the workload.
pub fn run(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::new(args.trace);
    if let Err(e) = measure(args, &mut outcome) {
        outcome.check(false, e);
    }
    outcome
}

fn measure(args: &RunArgs, outcome: &mut Outcome) -> Result<(), String> {
    iba_obs::set_enabled(true);
    let tracer = Arc::new(Tracer::new());
    let trace_handle = args.trace.then(|| Arc::clone(&tracer));
    let (harness, setup_s, warm) = repeated_setup(|| {
        let h = Harness::start(args.seed, trace_handle.clone());
        let accepted = h.as_ref().map(|h| h.client.accepted).map_err(Clone::clone);
        (h, accepted)
    });
    for w in &warm {
        let accepted = w.clone()?;
        if accepted != WARM_REQUESTS {
            return Err(format!(
                "set-up admitted {accepted} of {WARM_REQUESTS} requests"
            ));
        }
    }
    let mut harness = harness?;
    let closed_total = if args.tiny { 20_000 } else { CLOSED_REQUESTS };
    let open_for = Duration::from_secs_f64(args.seconds * OPEN_SHARE);

    let mut plain_closed = None;
    if args.trace {
        plain_closed = Some(harness.client.closed_loop(closed_total)?);
        harness.client.drain()?;
        harness.stop_plain.store(true, Ordering::Relaxed);
    }
    let before = ObsDelta::capture();
    let phases = Instant::now();
    let span = tracer.open("loadgen.open", None);
    let open_requests = harness.client.open_loop(open_for)?;
    harness.client.drain()?;
    tracer.close(span);
    let span = tracer.open("loadgen.closed", None);
    let (closed_admitted, closed_wall) = harness.client.closed_loop(closed_total)?;
    harness.client.drain()?;
    tracer.close(span);
    let phase_s = phases.elapsed().as_secs_f64();
    let thrown = before.counter_since("iba_core_shard_accepted_balls_total")
        + before.counter_since("iba_core_shard_rejected_balls_total");
    let wire_bytes = before.counter_since("iba_serve_net_bytes_read_total")
        + before.counter_since("iba_serve_net_bytes_written_total");
    let frames = before.counter_since("iba_serve_net_frames_total");
    let end = harness.stop()?;
    iba_obs::set_enabled(false);
    let client = &harness.client;

    outcome.attempted = client.sent;
    outcome.failed = client.refused;
    outcome.check(
        client.accepted == end.stats.allocs_accepted,
        format!(
            "the client saw {} Accepted, the server counted {}",
            client.accepted, end.stats.allocs_accepted
        ),
    );
    outcome.check(
        client.completed == client.accepted && client.unknown_completions == 0,
        format!(
            "{} Accepted but {} Completed ({} for unknown tickets)",
            client.accepted, client.completed, client.unknown_completions
        ),
    );
    outcome.check(
        client.proto_errors == 0 && end.stats.proto_errors == 0,
        format!(
            "protocol errors: client {}, server {}",
            client.proto_errors, end.stats.proto_errors
        ),
    );
    outcome.check(end.conserves, "the service lost or duplicated balls");
    outcome.check(
        client.late_us_max <= LATE_BOUND_US,
        format!(
            "invalid run: the open-loop generator fell {:.0} us behind schedule (bound {LATE_BOUND_US} us)",
            client.late_us_max
        ),
    );
    outcome.notes.push(format!(
        "open loop: {open_requests} requests over {open_for:?}; closed loop: {closed_admitted} admitted in {closed_wall:?}; generator late by at most {:.1} us",
        client.late_us_max
    ));

    if args.trace {
        let layers = &end.layers;
        let round_ns: f64 = layers.round_ns.iter().sum();
        outcome.set("dispatch.saturated", end.stats.allocs_saturated as f64);
        outcome.set("service.round_ms_p50", median(&layers.round_ns) / 1e6);
        for (metric, hist) in [
            ("service.route_share", "iba_serve_phase_route_nanos"),
            ("service.merge_share", "iba_serve_phase_merge_nanos"),
            ("service.shard_round_share", "iba_serve_shard_round_nanos"),
        ] {
            outcome.set(metric, ratio(before.hist_sum_since(hist) as f64, round_ns));
        }
        outcome.set("service.pending_peak", layers.pending_peak as f64);
        outcome.set("service.ingress_depth_peak", layers.depth_peak as f64);
        outcome.set(
            "net.poll_us_p50",
            layers.poll.quantile_us(0.5).unwrap_or(f64::NAN),
        );
        outcome.set(
            "net.idle_poll_share",
            ratio(layers.idle_polls as f64, layers.polls as f64),
        );
        outcome.set(
            "net.notify_ns_per_completion",
            ratio(layers.notify_ns as f64, layers.notified as f64),
        );
        outcome.set(
            "net.bytes_per_request",
            ratio(wire_bytes as f64, frames as f64),
        );
        outcome.set("net.write_queue_bytes_peak", layers.write_queue_peak as f64);
        outcome.set("loadgen.late_us_max", client.late_us_max);
        let (tail, samples) = windowed_quantile(&client.admit, 0.9);
        outcome.set_sampled("net.admit_us_p90", tail, Some(samples));
        let (_, plain_wall) = plain_closed.expect("the traced run measured a plain closed loop");
        outcome.set(
            "obs.overhead_share",
            ratio(closed_wall.as_secs_f64(), plain_wall.as_secs_f64()) - 1.0,
        );
        outcome.spans = tracer.spans();
    } else if client.late_us_max <= LATE_BOUND_US {
        for (name, windows, q) in [
            ("admit_us_p50", &client.admit, 0.5),
            ("done_us_p50", &client.done, 0.5),
            ("done_us_p90", &client.done, 0.9),
        ] {
            let (value, samples) = windowed_quantile(windows, q);
            outcome.set_sampled(name, value, Some(samples));
        }
        outcome.set("throws_per_s", ratio(thrown as f64, phase_s));
        outcome.set(
            "admitted_per_s",
            ratio(closed_admitted as f64, closed_wall.as_secs_f64()),
        );
        outcome.set("solve_s", closed_wall.as_secs_f64());
        outcome.set("setup_s", setup_s);
        outcome.set("peak_rss_mb", peak_rss_mb());
    }
    Ok(())
}
