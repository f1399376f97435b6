//! `wire_open`: a `NetServer<Euclidean>` on loopback under
//! `TickPolicy::Barrier`, driven by two TCP sessions on one open-loop
//! schedule, with a data publisher applying one-site deltas beside it.
//!
//! The schedule never waits on replies: slot `i` is due at
//! `start + i / RATE`, and each session's latency for slot `i` is timed
//! from that intended send time to the first result answering a
//! position at or after slot `i`, so a stall anywhere (generator,
//! reactor, kernel) shows up in the latency of every slot it delays.
//! A session keeps at most one update in flight: under Barrier the
//! server coalesces queued positions, so a second one would get no
//! result of its own. Slots that come due while an update is in flight
//! are coalesced on the client instead — the session sends the latest
//! due position as soon as the answer arrives, and that answer covers
//! every slot it waited for. A session-slot no answer covers fails.

use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::{Euclidean, MovingKnn, QueryStats};
use insq_geom::Point;
use insq_index::{SiteDelta, VorTree};
use insq_net::wire::Message;
use insq_net::{
    ClientCore, ClientEvent, FrameBuf, NetClient, NetServer, NetServerConfig, WireSpace,
};
use insq_server::{FleetConfig, FleetEngine, InsFleetQuery, SpaceQuery, TickPolicy, World};

use crate::fleet::{account, report_core_counts, report_layers, setup, Setup, SETUPS};
use crate::layers::{self, account_slack, LayerAcc, Replay, SHARDS};
use crate::report::Report;
use crate::specs::{Euclid, FleetSpec, Snapshot, WireTwin};
use crate::stats::{mean, median, quantile, window_median, WINDOWS};
use crate::trace::{Tracer, ROOT};

/// Slots per second of the open-loop schedule.
const RATE: f64 = 2_000.0;
const SESSIONS: usize = 2;
/// A delta goes through `World::apply` once every this many slots,
/// half-way through each interval.
const DELTA_EVERY: usize = 200;
/// How long after the last slot came due the phase waits for answers.
const DRAIN: Duration = Duration::from_secs(1);

/// Per slot: how many sessions an answer covers it for, and (when
/// traced) the send/receive spans waiting for the slot's own span to
/// parent them.
type SlotState = (u8, Vec<(&'static str, Instant, Instant)>);

/// One session's view of a phase: what it sent, what came back.
struct Session {
    core: ClientCore,
    /// Position of every update sent, in order (index 0 is the
    /// registration).
    sent: Vec<Point>,
    /// `(epoch, ids)` of every result, in order.
    results: Vec<(u64, Vec<u32>)>,
    dead: bool,
}

/// The numbers of one timed phase.
#[derive(Default)]
struct Phase {
    /// `(s since start, µs)` per session-slot.
    rtt_us: Vec<(f64, f64)>,
    /// Slot due time to the last of its results.
    slot_us: Vec<(f64, f64)>,
    /// `(s since start, 1)` per result: query-ticks served.
    served: Vec<(f64, f64)>,
    /// The schedule's length, the span of the windows.
    span: f64,
    late_us: Vec<f64>,
    /// Session-slots that came due while the session's previous update
    /// was in flight, answered by its next update.
    coalesced: u64,
    apply: Vec<layers::DeltaTiming>,
    notifies: u64,
    /// Per session, the index of its first result in this phase.
    first_result: [usize; SESSIONS],
    /// Encoded frames of the phase, for the codec replay.
    frames: Vec<Message>,
}

impl Phase {
    /// The `q`-quantile of `samples`: the median over the windows.
    fn quantile(&self, samples: &[(f64, f64)], q: f64) -> f64 {
        window_median(samples, self.span, |w| quantile(w, q))
    }

    /// Results (query-ticks) per second: the median over the windows.
    fn query_ticks_per_s(&self) -> f64 {
        window_median(&self.served, self.span, |w| {
            w.len() as f64 / (self.span / WINDOWS as f64)
        })
    }
}

fn wait_first_results(sessions: &mut [Session], report: &mut Report) {
    let deadline = Instant::now() + Duration::from_secs(10);
    for s in sessions.iter_mut() {
        loop {
            match s.core.poll_event() {
                Ok(Some(ClientEvent::Result { epoch, ids, .. })) => {
                    s.results.push((epoch, ids));
                    break;
                }
                Ok(Some(ClientEvent::Epoch(_))) => {}
                Ok(Some(other)) => {
                    report.error(format!("registration answered with {other:?}"));
                    s.dead = true;
                    break;
                }
                Ok(None) if Instant::now() < deadline => std::thread::yield_now(),
                Ok(None) => {
                    report.error("no result for the registration");
                    s.dead = true;
                    break;
                }
                Err(e) => {
                    report.error(format!("registration: {e}"));
                    s.dead = true;
                    break;
                }
            }
        }
    }
}

/// A served world: the server and its two registered sessions, each
/// holding its first result.
struct Served {
    server: NetServer<Euclidean>,
    sessions: Vec<Session>,
    setup_s: f64,
    build_s: f64,
    /// The CPU the publisher thread runs on.
    publisher_cpu: Option<usize>,
}

fn serve(spec: &Euclid, report: &mut Report) -> Option<Served> {
    let t0 = Instant::now();
    let index = spec.build();
    let build_s = t0.elapsed().as_secs_f64();
    let cfg = NetServerConfig {
        fleet: FleetConfig {
            shards: SHARDS,
            threads: 1,
        },
        policy: TickPolicy::Barrier,
        min_clients: SESSIONS,
        ..NetServerConfig::default()
    };
    let server = match NetServer::<Euclidean>::bind("127.0.0.1:0", Arc::new(World::new(index)), cfg)
    {
        Ok(s) => s,
        Err(e) => {
            report.error(format!("bind: {e}"));
            return None;
        }
    };
    let mut sessions = Vec::new();
    for s in 0..SESSIONS {
        let pos = spec.position(s, 0);
        let registered = NetClient::connect(server.local_addr()).and_then(|mut c| {
            c.register::<Euclidean>(spec.sc.k, spec.sc.rho, pos)?;
            Ok(c.into_core())
        });
        let core = match registered {
            Ok(c) => c,
            Err(e) => {
                report.error(format!("session {s}: {e}"));
                return None;
            }
        };
        // Register one at a time so session s is the server's query s.
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.live_sessions() <= s {
            if Instant::now() > deadline {
                report.error(format!("session {s} never registered"));
                return None;
            }
            std::thread::sleep(Duration::from_micros(50));
        }
        sessions.push(Session {
            core,
            sent: vec![pos],
            results: Vec::new(),
            dead: false,
        });
    }
    wait_first_results(&mut sessions, report);
    Some(Served {
        server,
        sessions,
        setup_s: t0.elapsed().as_secs_f64(),
        build_s,
        publisher_cpu: None,
    })
}

/// Runs slots `first..first + n` open loop, with the deltas due in them
/// applied by a publisher thread.
fn phase(
    served: &mut Served,
    spec: &Euclid,
    deltas: &[SiteDelta],
    first: usize,
    n: usize,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> Phase {
    let period = Duration::from_secs_f64(1.0 / RATE);
    let mut out = Phase {
        span: n as f64 / RATE,
        ..Phase::default()
    };
    for (s, sess) in served.sessions.iter().enumerate() {
        out.first_result[s] = sess.results.len();
    }
    let positions: Vec<[Point; SESSIONS]> = (first..first + n)
        .map(|slot| std::array::from_fn(|s| spec.position(s, slot)))
        .collect();
    // Delta m of this phase is applied half-way through its interval.
    let due_deltas: Vec<(usize, &SiteDelta)> = (0..n / DELTA_EVERY)
        .map(|m| {
            (
                m * DELTA_EVERY + DELTA_EVERY / 2,
                &deltas[(first - 1) / DELTA_EVERY + m],
            )
        })
        .collect();
    let mut slot_state: Vec<SlotState> = (0..n).map(|_| (0, Vec::new())).collect();
    // Per session: the slots the update in flight answers, and the
    // first slot that came due while it was in flight.
    let mut in_flight: [Option<(usize, usize)>; SESSIONS] = [None; SESSIONS];
    let mut backlog: [Option<usize>; SESSIONS] = [None; SESSIONS];
    let world = Arc::clone(served.server.world());
    let traced = tracer.is_some();
    let start = Instant::now() + Duration::from_millis(2);
    let due = |i: usize| start + period * i as u32;

    std::thread::scope(|scope| {
        let publisher = scope.spawn(|| {
            if let Some(cpu) = served.publisher_cpu {
                pin_thread(cpu);
            }
            let mut timings = Vec::new();
            for &(slot, delta) in &due_deltas {
                let at = due(slot);
                let now = Instant::now();
                if at > now {
                    std::thread::sleep(at - now);
                }
                timings.push(layers::apply_delta(&world, delta, traced));
            }
            timings
        });

        // Sends session `s` the position of slot `last`, answering every
        // due slot from `from` on.
        let send = |sess: &mut Session,
                    s: usize,
                    from: usize,
                    last: usize,
                    slot_state: &mut Vec<SlotState>,
                    out: &mut Phase,
                    report: &mut Report|
         -> Option<(usize, usize)> {
            let pos = positions[last][s];
            let t = Instant::now();
            let sent = sess.core.try_send_update::<Euclidean>(pos);
            let end = Instant::now();
            if let Err(e) = sent {
                report.error(format!("session {s} send: {e}"));
                sess.dead = true;
                return None;
            }
            if traced {
                slot_state[last].1.push(("net.send", t, end));
            }
            sess.sent.push(pos);
            out.frames.push(Message::PositionUpdate {
                pos: Euclidean::pos_to_wire(pos),
            });
            Some((from, last))
        };

        let mut next = 0usize;
        loop {
            for (s, sess) in served.sessions.iter_mut().enumerate() {
                while !sess.dead {
                    let t = Instant::now();
                    let event = sess.core.poll_event();
                    let got = Instant::now();
                    match event {
                        Ok(None) => break,
                        Ok(Some(ClientEvent::Result {
                            epoch,
                            ids,
                            outcome,
                            flags,
                        })) => {
                            let Some((from, last)) = in_flight[s].take() else {
                                report.error(format!("session {s}: a result nobody asked for"));
                                sess.dead = true;
                                break;
                            };
                            out.frames.push(Message::KnnResult {
                                epoch,
                                ids: ids.clone(),
                                outcome,
                                flags,
                            });
                            sess.results.push((epoch, ids));
                            let since = (got - start).as_secs_f64();
                            out.served.push((since, 1.0));
                            if tracer.is_some() {
                                slot_state[last].1.push(("net.recv", t, got));
                            }
                            let covered = slot_state.iter_mut().enumerate();
                            for (slot, st) in covered.take(last + 1).skip(from) {
                                let at = due(slot);
                                out.rtt_us.push((since, (got - at).as_secs_f64() * 1e6));
                                st.0 += 1;
                                if st.0 == SESSIONS as u8 {
                                    out.slot_us.push((since, (got - at).as_secs_f64() * 1e6));
                                    if let Some(tr) = tracer.as_deref_mut() {
                                        let parent = tr.span(
                                            "workload.slot",
                                            at,
                                            got,
                                            ROOT,
                                            (first + slot) as u64,
                                        );
                                        for (name, a, b) in st.1.drain(..) {
                                            tr.span(name, a, b, parent, (first + slot) as u64);
                                        }
                                    }
                                }
                            }
                            // Slots that came due meanwhile: send the
                            // latest position now, answering all of them.
                            if let Some(from) = backlog[s].take() {
                                in_flight[s] = send(
                                    sess,
                                    s,
                                    from,
                                    next - 1,
                                    &mut slot_state,
                                    &mut out,
                                    report,
                                );
                            }
                        }
                        Ok(Some(ClientEvent::Epoch(epoch))) => {
                            out.notifies += 1;
                            out.frames.push(Message::EpochNotify { epoch });
                        }
                        Ok(Some(other)) => {
                            report.error(format!("session {s}: {other:?}"));
                            sess.dead = true;
                        }
                        Err(e) => {
                            report.error(format!("session {s}: {e}"));
                            sess.dead = true;
                        }
                    }
                }
            }
            let now = Instant::now();
            if next < n && now >= due(next) {
                out.late_us.push((now - due(next)).as_secs_f64() * 1e6);
                for (s, sess) in served.sessions.iter_mut().enumerate() {
                    if sess.dead {
                        continue;
                    }
                    if in_flight[s].is_some() {
                        out.coalesced += 1;
                        backlog[s].get_or_insert(next);
                    } else {
                        in_flight[s] = send(sess, s, next, next, &mut slot_state, &mut out, report);
                    }
                }
                next += 1;
                continue;
            }
            let pending = in_flight.iter().any(Option::is_some);
            if next >= n && pending {
                // The schedule is over, but Barrier ticks only once every
                // session has sent: a session whose last update went out
                // a slot ahead of its peer's sends its last position
                // again, answering no slot, so the peer's update ticks.
                for (s, sess) in served.sessions.iter_mut().enumerate() {
                    if !sess.dead && in_flight[s].is_none() && backlog[s].is_none() {
                        in_flight[s] = send(sess, s, n, n - 1, &mut slot_state, &mut out, report);
                    }
                }
            }
            if next >= n {
                if !pending || served.sessions.iter().all(|s| s.dead) {
                    break;
                }
                if now > due(n - 1) + DRAIN {
                    report.error("results still missing a second after the last slot");
                    break;
                }
            }
            // Never sleep: a sleeping generator pays the VM's wake-up
            // latency on every slot. Yielding hands the shared CPU to
            // the reactor and the publisher whenever they can run.
            std::thread::yield_now();
        }
        // Every session-slot is attempted; those no answer covers failed.
        let answered: u64 = slot_state.iter().map(|st| st.0 as u64).sum();
        report.attempted += (n * SESSIONS) as u64;
        report.failed += (n * SESSIONS) as u64 - answered;
        // Spans of slots that never completed stay unparented.
        if let Some(tr) = tracer {
            for (i, st) in slot_state.iter_mut().enumerate() {
                for (name, a, b) in st.1.drain(..) {
                    tr.span(name, a, b, ROOT, (first + i) as u64);
                }
            }
        }
        for t in publisher.join().expect("publisher thread panicked") {
            match t {
                Ok(t) => out.apply.push(t),
                Err(e) => {
                    report.failed += 1;
                    report.error(e);
                }
            }
            report.attempted += 1;
        }
    });
    out
}

/// The server-side counters, read between phases.
struct Counters {
    ticks: u64,
    stats: QueryStats,
    engine: Duration,
    bytes_in: u64,
    bytes_out: u64,
}

impl Counters {
    fn read(server: &NetServer<Euclidean>) -> Counters {
        let stats = server.stats();
        let (bytes_in, bytes_out) = server.wire_bytes();
        Counters {
            ticks: server.ticks(),
            stats: stats.total,
            engine: stats.elapsed,
            bytes_in,
            bytes_out,
        }
    }

    /// What moved between `before` and `self`.
    fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.stats, &before.stats);
        Counters {
            ticks: self.ticks - before.ticks,
            stats: QueryStats {
                ticks: a.ticks - b.ticks,
                valid_ticks: a.valid_ticks - b.valid_ticks,
                swaps: a.swaps - b.swaps,
                local_reranks: a.local_reranks - b.local_reranks,
                recomputations: a.recomputations - b.recomputations,
                validation_ops: a.validation_ops - b.validation_ops,
                search_ops: a.search_ops - b.search_ops,
                construction_ops: a.construction_ops - b.construction_ops,
                comm_objects: a.comm_objects - b.comm_objects,
            },
            engine: self.engine - before.engine,
            bytes_in: self.bytes_in - before.bytes_in,
            bytes_out: self.bytes_out - before.bytes_out,
        }
    }
}

/// Replays the run's frames through the codec: ns per frame to encode,
/// and to decode from one reassembly buffer.
fn codec(frames: &[Message]) -> (f64, f64) {
    if frames.is_empty() {
        return (0.0, 0.0);
    }
    let mut reps = 0u64;
    let t = Instant::now();
    let mut bytes = Vec::new();
    while reps == 0 || t.elapsed() < Duration::from_millis(50) {
        bytes.clear();
        for m in frames {
            bytes.extend_from_slice(&std::hint::black_box(m.encode_frame()));
        }
        reps += 1;
    }
    let encode = t.elapsed().as_nanos() as f64 / (reps * frames.len() as u64) as f64;
    let mut reps = 0u64;
    let mut busy = Duration::ZERO;
    while reps == 0 || busy < Duration::from_millis(50) {
        let mut buf = FrameBuf::new();
        buf.extend(&bytes);
        let t = Instant::now();
        let mut n = 0;
        while let Ok(Some(m)) = buf.next_message() {
            std::hint::black_box(m);
            n += 1;
        }
        busy += t.elapsed();
        assert_eq!(n, frames.len(), "every encoded frame decodes");
        reps += 1;
    }
    (
        encode,
        busy.as_nanos() as f64 / (reps * frames.len() as u64) as f64,
    )
}

/// Checks every served id list against an in-process twin: a 1-thread
/// `FleetEngine` over an identical world, fed each session's positions
/// in the order it sent them and the same deltas at the epochs the
/// results name (Barrier makes the served stream bit-identical to it).
/// From result `traced_from` on, the twin's ticks are replayed for the
/// per-layer metrics. Returns the twin's tick CPU times, µs, one per
/// result index.
fn verify(
    spec: &Euclid,
    served: &Served,
    deltas: &[SiteDelta],
    traced_from: Option<(usize, &mut Tracer, &mut LayerAcc)>,
    report: &mut Report,
) -> Vec<f64> {
    let mut tick_cpu_us = Vec::new();
    let index = spec.build();
    let world = Arc::new(World::new(index));
    let mut engine: FleetEngine<VorTree, InsFleetQuery> = FleetEngine::new(
        Arc::clone(&world),
        FleetConfig {
            shards: SHARDS,
            threads: 1,
        },
    );
    for _ in 0..SESSIONS {
        engine.register(SpaceQuery::new(&world, spec.cfg()).expect("valid query config"));
    }
    let mut applied = 0;
    let results = served
        .sessions
        .iter()
        .map(|s| s.results.len())
        .min()
        .unwrap_or(0);
    for s in &served.sessions {
        if s.results.len() != results || s.sent.len() != results {
            report.error(format!(
                "session answered {} of {} updates where its peer has {results}",
                s.results.len(),
                s.sent.len()
            ));
        }
    }
    let (traced_from, mut tracer, mut acc) = match traced_from {
        Some((from, tracer, acc)) => (from, Some(tracer), Some(acc)),
        None => (usize::MAX, None, None),
    };
    let mut replay: Option<Replay<Euclidean>> = None;
    let mut outcomes = Vec::new();
    let mut mismatches = 0u64;
    for j in 0..results {
        let epoch = served.sessions[0].results[j].0;
        if served.sessions.iter().any(|s| s.results[j].0 != epoch) {
            report.error(format!("result {j}: sessions disagree on the epoch"));
        }
        while (applied as u64) < epoch {
            let m = applied;
            if let Err(e) = world.apply(&deltas[m]) {
                report.error(format!("twin delta {m}: {e:?}"));
                return tick_cpu_us;
            }
            applied += 1;
        }
        let pos: Vec<Point> = served.sessions.iter().map(|s| s.sent[j]).collect();
        if j == traced_from {
            replay = Some(Replay::of(&engine));
        }
        let cpu = layers::thread_cpu_ns();
        let start = Instant::now();
        let summary = engine.tick_all_outcomes(|id| pos[id.index()], &mut outcomes);
        let end = Instant::now();
        tick_cpu_us.push((layers::thread_cpu_ns() - cpu) as f64 / 1e3);
        if let (Some(rp), Some(tr), Some(acc)) =
            (replay.as_mut(), tracer.as_deref_mut(), acc.as_deref_mut())
        {
            let span = tr.span("server.tick", start, end, ROOT, j as u64);
            let span_ns = (end - start).as_nanos() as u64;
            let (_, snapshot) = world.snapshot();
            match rp.tick(summary.epoch, &snapshot, &pos, &outcomes, acc) {
                Ok(busy) => {
                    tr.replay("core.busy", busy, span, j as u64);
                    acc.tick_us.push(span_ns as f64 / 1e3);
                    acc.self_us.push((span_ns as f64 - busy as f64) / 1e3);
                    if busy > span_ns + account_slack(span_ns) {
                        acc.busy_over_span += 1;
                    }
                }
                Err(e) => report.error(format!("twin tick {j} replay: {e}")),
            }
            acc.rebinds += summary.rebinds;
        }
        if summary.epoch.0 != epoch {
            report.error(format!(
                "result {j}: served epoch {epoch}, twin epoch {}",
                summary.epoch.0
            ));
        }
        let mut at = 0;
        engine.for_each_query(|_, q| {
            let want: Vec<u32> = q
                .current_knn()
                .into_iter()
                .map(Euclidean::id_to_wire)
                .collect();
            if served.sessions[at].results[j].1 != want {
                mismatches += 1;
                if mismatches <= 3 {
                    report.error(format!(
                        "result {j} session {at}: served {:?}, twin {want:?}",
                        served.sessions[at].results[j].1
                    ));
                }
            }
            at += 1;
        });
    }
    report.failed += mismatches;
    if let Some(rp) = replay {
        if let Err(e) = layers::same_stats(&engine.stats().total, &rp.stats()) {
            report.error(e);
        }
    }
    report.note(format!(
        "twin check: {results} ticks x {SESSIONS} sessions, {mismatches} mismatches"
    ));
    tick_cpu_us
}

/// The deterministic counts of the schedule itself: a 1-thread engine
/// ticked at every slot's positions, with every delta, outside any
/// timing. They depend on the seed alone.
fn schedule_counts(twin: &WireTwin, n: usize) -> QueryStats {
    let mut pos = Vec::new();
    let Setup {
        world, mut engine, ..
    } = setup(twin, &mut pos);
    engine.reset_stats();
    for t in 1..=n {
        if t.is_multiple_of(WireTwin::DELTA_EVERY) {
            world
                .apply(&twin.delta(t / WireTwin::DELTA_EVERY - 1))
                .expect("the schedule's deltas apply");
        }
        twin.positions(t, &mut pos);
        engine.tick_all(|id| pos[id.index()]);
    }
    engine.stats().total
}

/// The CPUs this thread may run on.
#[cfg(target_os = "linux")]
fn allowed_cpus() -> Vec<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    }
    let mut mask = [0u64; 16];
    // SAFETY: pid 0 names the calling thread; `mask` is a writable
    // 1024-bit CPU set (the kernel's `cpu_set_t` size) that outlives the
    // call, and its size is passed alongside.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Confines the calling thread, and every thread it starts from now on,
/// to `cpu`.
#[cfg(target_os = "linux")]
fn pin_thread(cpu: usize) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut one = [0u64; 16];
    if cpu >= one.len() * 64 {
        return false;
    }
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread; `one` is a readable
    // 1024-bit CPU set that outlives the call, and its size is passed
    // alongside.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

#[cfg(not(target_os = "linux"))]
fn pin_thread(_cpu: usize) -> bool {
    false
}

pub fn run(seed: u64, seconds: f64, trace: bool, report: &mut Report) -> Option<Tracer> {
    // The generator and the server's reactor (started later, so it
    // inherits the mask) share one CPU: a hand-off between them is a
    // local context switch, not a cross-CPU wake-up of an idle vCPU,
    // whose latency on a virtual machine swamps a loopback round trip.
    // The publisher runs on another CPU, beside the server as a data
    // publisher would, so an apply does not time-slice the reactor.
    let cpus = allowed_cpus();
    let publisher_cpu = match cpus.first() {
        Some(&cpu) if pin_thread(cpu) => {
            let other = cpus.get(1).copied();
            report.note(format!(
                "generator and server pinned to CPU {cpu}, publisher to CPU {}",
                other.unwrap_or(cpu)
            ));
            other
        }
        _ => {
            report.note("could not pin threads to CPUs; running unpinned");
            None
        }
    };
    let g = Instant::now();
    let twin = WireTwin(Euclid::new(seed, SESSIONS, 20_000, 8));
    let spec = &twin.0;
    let n = ((seconds * RATE) as usize / DELTA_EVERY).max(1) * DELTA_EVERY;
    let phases = if trace { 2 } else { 1 };
    let deltas: Vec<SiteDelta> = (0..phases * n / DELTA_EVERY)
        .map(|m| spec.delta(m))
        .collect();
    let gen_s = g.elapsed().as_secs_f64();
    report.note(format!("inputs digest {:016x}", {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!(
            "{:?} {:?} {:?}",
            spec.position(0, 1),
            spec.position(1, 1),
            deltas[0]
        )
        .hash(&mut h);
        h.finish()
    }));

    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut served = None;
    for _ in 0..SETUPS {
        if let Some(s) = served.take() {
            let Served {
                server, sessions, ..
            } = s;
            drop(sessions);
            server.shutdown();
        }
        let s = serve(spec, report)?;
        setup_s.push(s.setup_s);
        build_s.push(s.build_s);
        served = Some(s);
    }
    let mut served = served.expect("at least one set-up");
    served.publisher_cpu = publisher_cpu;
    report.set_n("setup_s", median(&mut setup_s), SETUPS);
    report.set_n("index.build_s", median(&mut build_s), SETUPS);

    let before = Counters::read(&served.server);
    let mut a = phase(&mut served, spec, &deltas, 1, n, None, report);
    let da = Counters::read(&served.server).since(&before);
    let peak_rss = crate::peak_rss_mb();
    let results = a.rtt_us.len();
    report.set("query_ticks_per_s", a.query_ticks_per_s());
    report.set_n("rtt_p50_us", a.quantile(&a.rtt_us, 0.5), results);
    report.set_n("rtt_p90_us", a.quantile(&a.rtt_us, 0.9), results);
    // The publisher's CPU time across `World::apply`, as on the fleets.
    let mut apply_us: Vec<f64> = a.apply.iter().map(|d| d.cpu_us()).collect();
    report.set_n(
        "update_p50_us",
        quantile(&mut apply_us, 0.5),
        apply_us.len(),
    );
    report.set_n(
        "update_p90_us",
        quantile(&mut apply_us, 0.9),
        apply_us.len(),
    );
    // The served stream's counts depend on which slots were coalesced;
    // the schedule's do not.
    let schedule = schedule_counts(&twin, n);
    report.set(
        "comm_objects_per_query_tick",
        schedule.comm_objects as f64 / schedule.ticks as f64,
    );
    // Epoch notifies are per epoch, not per result: they are counted in
    // `net.epoch_notifies` and left out here.
    let notify_bytes = a.notifies * Message::EpochNotify { epoch: 0 }.encode_frame().len() as u64;
    let served_results: usize = served
        .sessions
        .iter()
        .zip(a.first_result)
        .map(|(s, f)| s.results.len() - f)
        .sum();
    report.set(
        "wire_bytes_per_result",
        (da.bytes_in + da.bytes_out - notify_bytes) as f64 / served_results.max(1) as f64,
    );
    report.set("peak_rss_mb", peak_rss);
    report_core_counts(report, &schedule);
    report.note(format!(
        "served stream: {:.4} comm objects per query-tick over {} query-ticks",
        da.stats.comm_objects as f64 / da.stats.ticks.max(1) as f64,
        da.stats.ticks
    ));
    let late_a = quantile(&mut a.late_us, 0.99);
    report.note(format!(
        "wall clock: slot due to its last result p50 {:.1} us, p99 {:.1} us; rtt p99 {:.1} us",
        a.quantile(&a.slot_us, 0.5),
        a.quantile(&a.slot_us, 0.99),
        a.quantile(&a.rtt_us, 0.99)
    ));
    report.note(format!(
        "untraced: {n} slots x {SESSIONS} sessions, {served_results} results ({} session-slots coalesced), \
         {} server ticks, {} notifies, generator late p99 {late_a:.1} us",
        a.coalesced, da.ticks, a.notifies
    ));

    let mut traced = None;
    if trace {
        let mut tracer = Tracer::new();
        let before = Counters::read(&served.server);
        let mut b = phase(
            &mut served,
            spec,
            &deltas,
            n + 1,
            n,
            Some(&mut tracer),
            report,
        );
        let db = Counters::read(&served.server).since(&before);
        report.set("workload.gen_s", gen_s);
        report.set_n(
            "workload.late_p99_us",
            quantile(&mut b.late_us, 0.99),
            b.late_us.len(),
        );
        let engine_us = db.engine.as_secs_f64() * 1e6 / db.ticks.max(1) as f64;
        report.set_n("net.engine_us_per_tick", engine_us, db.ticks as usize);
        let rtts: Vec<f64> = b.rtt_us.iter().map(|s| s.1).collect();
        report.set_n("net.self_us_per_rtt", mean(&rtts) - engine_us, rtts.len());
        let (enc, dec) = codec(&b.frames);
        report.set_n("net.encode_ns_per_frame", enc, b.frames.len());
        report.set_n("net.decode_ns_per_frame", dec, b.frames.len());
        report.set(
            "net.bytes_in_per_tick",
            db.bytes_in as f64 / db.ticks.max(1) as f64,
        );
        report.set(
            "net.bytes_out_per_tick",
            db.bytes_out as f64 / db.ticks.max(1) as f64,
        );
        report.set("net.epoch_notifies", b.notifies as f64);
        report.set("net.ticks_per_slot", db.ticks as f64 / n as f64);
        report.set(
            "net.buffer_high_water_bytes",
            served.server.buffer_high_water() as f64,
        );
        report.set_n(
            "trace.overhead_rtt_p50_us",
            b.quantile(&b.rtt_us, 0.5) - a.quantile(&a.rtt_us, 0.5),
            b.rtt_us.len(),
        );
        report.set(
            "trace.overhead_query_ticks_per_s",
            b.query_ticks_per_s() - a.query_ticks_per_s(),
        );
        traced = Some((tracer, b, LayerAcc::default()));
    }

    // The answers are checked after the timed phases, with the server
    // still up (its sessions hold the record).
    // The engine's ticks run inside the reactor and cannot be timed one
    // by one from outside: `tick_*` are the twin's CPU time for the same
    // ticks (the untraced phase's).
    let a_end = served.sessions[0].results.len();
    let twin_ticks = match traced.as_mut() {
        Some((tracer, b, acc)) => {
            let from = b.first_result[0];
            for (i, d) in b.apply.iter().enumerate() {
                layers::record_delta(tracer, acc, VorTree::LAYER, (n / DELTA_EVERY + i) as u64, d);
            }
            let ticks = verify(spec, &served, &deltas, Some((from, tracer, acc)), report);
            ticks.get(1..from).map(<[f64]>::to_vec)
        }
        None => verify(spec, &served, &deltas, None, report)
            .get(1..a_end)
            .map(<[f64]>::to_vec),
    };
    let mut twin_ticks = twin_ticks.unwrap_or_default();
    let t = twin_ticks.len();
    report.set_n("tick_p50_us", quantile(&mut twin_ticks, 0.5), t);
    report.set_n("tick_p99_us", quantile(&mut twin_ticks, 0.99), t);
    let Served {
        server, sessions, ..
    } = served;
    drop(sessions);
    server.shutdown();

    let (tracer, b, acc) = traced?;
    let ticks = acc.tick_us.len();
    report_layers(report, &acc, VorTree::LAYER, b.apply.len() as u64);
    account(report, &tracer, &acc, ticks, b.apply.len());
    Some(tracer)
}
