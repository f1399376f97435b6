//! The in-process fleet workloads (`euclid_fleet`, `road_rush`): a
//! closed loop of back-to-back `FleetEngine` ticks with scheduled
//! `World::apply` deltas, timed from outside the engine.

use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::{MovingKnn, QueryStats, Space};
use insq_net::wire::Message;
use insq_net::WireSpace;
use insq_server::{FleetConfig, FleetEngine, QueryId, SpaceQuery, TickSummary, World};

use crate::layers::{self, account_slack, LayerAcc, Replay, SHARDS};
use crate::report::Report;
use crate::specs::{FleetSpec, Snapshot};
use crate::stats::{median, quantile, window_median, WINDOWS};
use crate::trace::{Tracer, ROOT};

type Pos<F> = <<F as FleetSpec>::S as Space>::Pos;
type Engine<F> = FleetEngine<<F as FleetSpec>::I, SpaceQuery<<F as FleetSpec>::S>>;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;
/// Ticks over which the deterministic counters are taken: every run
/// reaches them, whatever the host's speed.
const DET_TICKS: usize = 300;
/// Every this many ticks two sampled queries are checked against brute
/// force, outside the timed region.
const ORACLE_EVERY: usize = 16;
/// Ticks of the 1-thread versus 2-thread comparison.
const SPEEDUP_TICKS: usize = 200;

/// The deterministic counters over the first [`DET_TICKS`] ticks.
#[derive(Debug, Default, Clone, Copy)]
pub struct Det {
    pub stats: QueryStats,
    /// Bytes the wire protocol would carry for these ticks: one
    /// position update and one result per query-tick, plus an epoch
    /// notify per rebind.
    pub wire_bytes: u64,
    pub results: u64,
}

/// The end-to-end numbers of one timed phase. Tick samples carry the
/// measured time at which they ended, for [`window_median`]. Tick and
/// delta latencies are the calling thread's CPU time across the call:
/// the engine runs on that one thread, and CPU time leaves out the
/// stretches a shared host takes the CPU away, which on a 2-vCPU
/// virtual machine decide the wall-clock tail. Wall times are kept for
/// the printed notes and the throughput.
#[derive(Debug, Default)]
pub struct Phase {
    /// `(measured s, tick CPU µs)`.
    pub tick_us: Vec<(f64, f64)>,
    /// Tick wall times, µs.
    pub tick_wall_us: Vec<f64>,
    /// `(measured s, query-ticks)`.
    pub ticked: Vec<(f64, f64)>,
    /// Delta CPU times, µs.
    pub apply_us: Vec<f64>,
    pub apply_wall_us: Vec<f64>,
    pub measured: Duration,
    pub deltas: u64,
}

impl Phase {
    /// Query-ticks per measured second, deltas included: the median
    /// over the windows.
    pub fn query_ticks_per_s(&self) -> f64 {
        let span = self.measured.as_secs_f64();
        window_median(&self.ticked, span, |w| {
            w.iter().sum::<f64>() / (span / WINDOWS as f64)
        })
    }

    /// The `q`-quantile of the tick time: the median over the windows.
    pub fn tick_quantile(&self, q: f64) -> f64 {
        window_median(&self.tick_us, self.measured.as_secs_f64(), |w| {
            quantile(w, q)
        })
    }
}

/// A built world and engine, ticked once (every query has its initial
/// result).
pub struct Setup<F: FleetSpec> {
    pub world: Arc<World<F::I>>,
    pub engine: Engine<F>,
    pub setup_s: f64,
    pub build_s: f64,
}

pub fn setup<F: FleetSpec>(spec: &F, pos: &mut Vec<Pos<F>>) -> Setup<F> {
    spec.positions(0, pos);
    let t0 = Instant::now();
    let index = spec.build();
    let build_s = t0.elapsed().as_secs_f64();
    let world = Arc::new(World::new(index));
    let mut engine = FleetEngine::new(
        Arc::clone(&world),
        FleetConfig {
            shards: SHARDS,
            threads: 1,
        },
    );
    for _ in 0..spec.clients() {
        engine.register(SpaceQuery::new(&world, spec.cfg()).expect("valid query config"));
    }
    engine.tick_all(|id| pos[id.index()]);
    let setup_s = t0.elapsed().as_secs_f64();
    Setup {
        world,
        engine,
        setup_s,
        build_s,
    }
}

/// Sets up [`SETUPS`] times, keeping the last; returns it with the
/// median set-up and build times.
pub fn setups<F: FleetSpec>(spec: &F, pos: &mut Vec<Pos<F>>) -> (Setup<F>, f64, f64) {
    let mut setup_s = Vec::new();
    let mut build_s = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let s = setup(spec, pos);
        setup_s.push(s.setup_s);
        build_s.push(s.build_s);
        last = Some(s);
    }
    (
        last.expect("at least one set-up"),
        median(&mut setup_s),
        median(&mut build_s),
    )
}

/// The fleet as it runs: the next tick and delta numbers carry over
/// from the untraced phase into the traced one.
struct Run<'a, F: FleetSpec> {
    spec: &'a F,
    world: Arc<World<F::I>>,
    engine: Engine<F>,
    tick: usize,
    deltas: usize,
    pos: Vec<Pos<F>>,
    gen: Duration,
}

/// What the traced phase carries besides the timings.
struct Traced<S: Space<Index: Clone>> {
    tracer: Tracer,
    acc: LayerAcc,
    replay: Replay<S>,
}

fn frame_len(msg: &Message) -> u64 {
    msg.encode_frame().len() as u64
}

impl<F: FleetSpec> Run<'_, F> {
    /// Ticks back to back for `seconds` of measured time (and at least
    /// `min_ticks` ticks). `det` is filled at [`DET_TICKS`].
    fn phase(
        &mut self,
        seconds: f64,
        min_ticks: usize,
        mut traced: Option<&mut Traced<F::S>>,
        det: &mut Option<Det>,
        report: &mut Report,
    ) -> Phase {
        let mut out = Phase::default();
        let mut outcomes = Vec::new();
        let mut wire = Det::default();
        let k = self.spec.cfg().k;
        let result_len = frame_len(&Message::KnnResult {
            epoch: 0,
            ids: vec![0; k],
            outcome: insq_core::TickOutcome::Valid.into(),
            flags: 0,
        });
        let notify_len = frame_len(&Message::EpochNotify { epoch: 0 });
        let first = self.tick;
        while out.measured.as_secs_f64() < seconds || self.tick - first < min_ticks {
            let t = self.tick;
            if t.is_multiple_of(F::DELTA_EVERY) {
                let g = Instant::now();
                let delta = self.spec.delta(self.deltas);
                self.gen += g.elapsed();
                report.attempted += 1;
                match layers::apply_delta(&self.world, &delta, traced.is_some()) {
                    Ok(d) => {
                        out.apply_us.push(d.cpu_us());
                        out.apply_wall_us.push(d.us());
                        out.measured += d.end - d.start;
                        out.deltas += 1;
                        if let Some(tr) = traced.as_mut() {
                            layers::record_delta(
                                &mut tr.tracer,
                                &mut tr.acc,
                                F::I::LAYER,
                                self.deltas as u64,
                                &d,
                            );
                        }
                    }
                    Err(e) => {
                        report.failed += 1;
                        report.error(format!("delta {}: {e}", self.deltas));
                    }
                }
                self.deltas += 1;
            }
            let g = Instant::now();
            self.spec.positions(t, &mut self.pos);
            self.gen += g.elapsed();

            let pos = &self.pos;
            let cpu = layers::thread_cpu_ns();
            let start = Instant::now();
            let summary: TickSummary = if traced.is_some() {
                self.engine
                    .tick_all_outcomes(|id| pos[id.index()], &mut outcomes)
            } else {
                self.engine.tick_all(|id| pos[id.index()])
            };
            let end = Instant::now();
            let cpu_us = (layers::thread_cpu_ns() - cpu) as f64 / 1e3;
            out.measured += end - start;
            let at = out.measured.as_secs_f64();
            out.tick_us.push((at, cpu_us));
            out.tick_wall_us.push((end - start).as_secs_f64() * 1e6);
            out.ticked.push((at, summary.ticked as f64));
            report.attempted += summary.ticked;

            if let Some(tr) = traced.as_mut() {
                let span = tr.tracer.span("server.tick", start, end, ROOT, t as u64);
                let span_ns = (end - start).as_nanos() as u64;
                let (_, snapshot) = self.world.snapshot();
                match tr
                    .replay
                    .tick(summary.epoch, &snapshot, pos, &outcomes, &mut tr.acc)
                {
                    Ok(busy) => {
                        tr.tracer.replay("core.busy", busy, span, t as u64);
                        tr.acc.tick_us.push(span_ns as f64 / 1e3);
                        tr.acc.self_us.push((span_ns as f64 - busy as f64) / 1e3);
                        if busy > span_ns + account_slack(span_ns) {
                            tr.acc.busy_over_span += 1;
                        }
                    }
                    Err(e) => report.error(format!("tick {t} replay: {e}")),
                }
                tr.acc.rebinds += summary.rebinds;
            }
            if det.is_none() {
                wire.wire_bytes += pos
                    .iter()
                    .map(|&p| {
                        frame_len(&Message::PositionUpdate {
                            pos: F::S::pos_to_wire(p),
                        })
                    })
                    .sum::<u64>()
                    + summary.ticked * result_len
                    + summary.rebinds * notify_len;
                wire.results += summary.ticked;
                if t + 1 - first == DET_TICKS {
                    wire.stats = self.engine.stats().total;
                    *det = Some(wire);
                }
            }
            if t.is_multiple_of(ORACLE_EVERY) {
                self.oracle(t, report);
            }
            self.tick += 1;
        }
        out
    }

    /// Checks two sampled queries against brute force on the snapshot
    /// they are bound to (every query rebinds before it ticks, so that
    /// is the world's current one).
    fn oracle(&self, t: usize, report: &mut Report) {
        let (_, snapshot) = self.world.snapshot();
        let k = self.spec.cfg().k;
        let n = self.spec.clients();
        for r in 0..2u64 {
            let c = ((t as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(r * 7919)
                % n as u64) as usize;
            let Some(q) = self.engine.query(QueryId(c as u64)) else {
                report.error(format!("query {c} missing"));
                continue;
            };
            let mut got = q.current_knn();
            got.sort_unstable();
            let mut want = F::S::brute_knn(&snapshot, self.pos[c], k);
            want.sort_unstable();
            if got != want {
                report.failed += 1;
                report.error(format!(
                    "tick {t} query {c}: engine {got:?}, brute force {want:?}"
                ));
            }
        }
    }
}

/// Ticks the same window on fresh 1-thread and 2-thread engines over
/// copies of `snapshot` (deltas included), alternating which goes
/// first; returns the 1-thread time over the 2-thread time. The two
/// must agree tick for tick.
fn speedup_2t<F: FleetSpec>(
    spec: &F,
    snapshot: &Arc<F::I>,
    tick: usize,
    delta: usize,
    report: &mut Report,
) -> f64 {
    let make = |threads| {
        let world = Arc::new(World::from_arc(Arc::clone(snapshot)));
        let mut engine: Engine<F> = FleetEngine::new(
            Arc::clone(&world),
            FleetConfig {
                shards: SHARDS,
                threads,
            },
        );
        for _ in 0..spec.clients() {
            engine.register(SpaceQuery::new(&world, spec.cfg()).expect("valid query config"));
        }
        (world, engine)
    };
    let mut sides = [make(1), make(2)];
    let mut time = [Duration::ZERO; 2];
    let mut pos = Vec::new();
    let mut j = delta;
    for t in tick..tick + SPEEDUP_TICKS {
        if t.is_multiple_of(F::DELTA_EVERY) {
            let d = spec.delta(j);
            j += 1;
            for (world, _) in &sides {
                if let Err(e) = world.apply(&d) {
                    report.error(format!("speed-up window delta: {e:?}"));
                    return 0.0;
                }
            }
        }
        spec.positions(t, &mut pos);
        let mut summaries = [TickSummary::default(); 2];
        for i in [t % 2, 1 - t % 2] {
            let start = Instant::now();
            summaries[i] = sides[i].1.tick_all(|id| pos[id.index()]);
            time[i] += start.elapsed();
        }
        if summaries[0] != summaries[1] {
            report.error(format!(
                "tick {t}: 1 thread {:?}, 2 threads {:?}",
                summaries[0], summaries[1]
            ));
        }
    }
    if sides[0].1.stats().total != sides[1].1.stats().total {
        report.error("1-thread and 2-thread engines disagree on counters");
    }
    time[0].as_secs_f64() / time[1].as_secs_f64()
}

/// Runs a fleet workload: untimed input generation, [`SETUPS`]
/// set-ups, the untraced timed phase, and with `trace` a traced phase
/// with replays.
pub fn run<F: FleetSpec>(
    make: impl Fn(u64) -> F,
    seed: u64,
    seconds: f64,
    trace: bool,
    report: &mut Report,
) -> Option<Tracer> {
    let g = Instant::now();
    let spec = make(seed);
    let gen_construct = g.elapsed();
    report.note(format!("inputs digest {:016x}", spec.digest()));

    let mut pos = Vec::new();
    let (s, setup_s, build_s) = setups(&spec, &mut pos);
    report.set_n("setup_s", setup_s, SETUPS);
    let mut engine = s.engine;
    engine.reset_stats();
    let mut run = Run {
        spec: &spec,
        world: s.world,
        engine,
        tick: 1,
        deltas: 0,
        pos,
        gen: Duration::ZERO,
    };

    let mut det = None;
    let mut a = run.phase(seconds, DET_TICKS, None, &mut det, report);
    let det = det.expect("the untraced phase reaches the deterministic prefix");
    let peak_rss = crate::peak_rss_mb();

    let qps = a.query_ticks_per_s();
    let n = a.tick_us.len();
    let p50 = a.tick_quantile(0.5);
    let p99 = a.tick_quantile(0.99);
    report.set("query_ticks_per_s", qps);
    report.set_n("tick_p50_us", p50, n);
    report.set_n("tick_p99_us", p99, n);
    // In process the result of every query is there when its tick
    // returns: the round trip is the tick.
    report.set_n("rtt_p50_us", p50, n);
    report.set_n("rtt_p90_us", a.tick_quantile(0.9), n);
    let m = a.apply_us.len();
    report.set_n("update_p50_us", quantile(&mut a.apply_us, 0.5), m);
    report.set_n("update_p90_us", quantile(&mut a.apply_us, 0.9), m);
    report.set(
        "comm_objects_per_query_tick",
        det.stats.comm_objects as f64 / det.stats.ticks as f64,
    );
    report.set(
        "wire_bytes_per_result",
        det.wire_bytes as f64 / det.results as f64,
    );
    report.set("peak_rss_mb", peak_rss);
    report.note(format!(
        "untraced: {} ticks, {} deltas, {:.3} s measured; wall-clock tick p50 {:.1} us, p99 {:.1} us, \
         delta p50 {:.1} us",
        n,
        a.deltas,
        a.measured.as_secs_f64(),
        quantile(&mut a.tick_wall_us, 0.5),
        quantile(&mut a.tick_wall_us, 0.99),
        quantile(&mut a.apply_wall_us, 0.5),
    ));

    report_core_counts(report, &det.stats);
    report.set_n(F::I::LAYER.build_s, build_s, SETUPS);

    if !trace {
        return None;
    }
    let mut tr = Traced {
        tracer: Tracer::new(),
        acc: LayerAcc::default(),
        replay: Replay::of(&run.engine),
    };
    let b = run.phase(seconds, 0, Some(&mut tr), &mut Some(det), report);
    if let Err(e) = layers::same_stats(&run.engine.stats().total, &tr.replay.stats()) {
        report.error(e);
    }
    if F::SPEEDUP_2T {
        let (_, snapshot) = run.world.snapshot();
        let speedup = speedup_2t(&spec, &snapshot, run.tick, run.deltas, report);
        report.set("server.speedup_2t", speedup);
    }
    report.set("workload.gen_s", (gen_construct + run.gen).as_secs_f64());

    let Traced { tracer, acc, .. } = tr;
    report_layers(report, &acc, F::I::LAYER, b.deltas);
    let n = b.tick_us.len();
    report.set(
        "trace.overhead_query_ticks_per_s",
        b.query_ticks_per_s() - qps,
    );
    report.set_n("trace.overhead_rtt_p50_us", b.tick_quantile(0.5) - p50, n);
    account(report, &tracer, &acc, n, b.deltas as usize);
    Some(tracer)
}

/// The deterministic `core` outcome and work counts.
pub fn report_core_counts(report: &mut Report, st: &QueryStats) {
    let ticks = st.ticks.max(1) as f64;
    report.set("core.valid_frac", st.valid_ticks as f64 / ticks);
    report.set("core.swap_frac", st.swaps as f64 / ticks);
    report.set("core.rerank_frac", st.local_reranks as f64 / ticks);
    report.set("core.recompute_frac", st.recomputations as f64 / ticks);
    report.set(
        "core.validation_ops_per_tick",
        st.validation_ops as f64 / ticks,
    );
    let rec = st.recomputations.max(1) as f64;
    report.set("core.search_ops_per_recompute", st.search_ops as f64 / rec);
    report.set(
        "core.construction_ops_per_recompute",
        st.construction_ops as f64 / rec,
    );
}

/// Per-layer metrics of a traced phase's replays.
pub fn report_layers(
    report: &mut Report,
    acc: &LayerAcc,
    names: crate::specs::LayerNames,
    deltas: u64,
) {
    for (name, h) in [
        ("core.valid_ns_p50", &acc.valid),
        ("core.local_ns_p50", &acc.local),
        ("core.recompute_ns_p50", &acc.recompute),
        ("core.bind_ns_p50", &acc.bind),
    ] {
        report.set_n(name, h.quantile(0.5), h.count() as usize);
    }
    report.set("core.busy_s", acc.busy_ns as f64 / 1e9);
    let mut tick_us = acc.tick_us.clone();
    report.set_n("server.tick_us_p50", median(&mut tick_us), tick_us.len());
    let mut self_us = acc.self_us.clone();
    report.set_n(
        "server.self_us_per_tick",
        median(&mut self_us),
        self_us.len(),
    );
    report.set(
        "server.rebinds_per_epoch",
        acc.rebinds as f64 / deltas.max(1) as f64,
    );
    let mut v = acc.publish_us.clone();
    report.set_n("server.publish_us_p50", median(&mut v), v.len());
    let mut v = acc.clone_us.clone();
    report.set_n(names.clone_p50, median(&mut v), v.len());
    let mut v = acc.repair_us.clone();
    report.set_n(names.repair_p50, median(&mut v), v.len());
}

/// The layer-accounting check. Spans recorded around real calls nest
/// exactly. A tick's replayed `core.busy` may not outlast its span, and
/// a delta's clone + repair + publish must add up to its `World::apply`
/// call in CPU time, both within [`layers::account_slack`] on all but
/// [`layers::ACCOUNT_MISS_SHARE`] of ticks and deltas. Self time below
/// the replay's resolution (about 1% of a tick) can read slightly
/// negative.
pub fn account(report: &mut Report, tracer: &Tracer, acc: &LayerAcc, ticks: usize, deltas: usize) {
    let real_violations = tracer.nesting_violations();
    let mut self_us = acc.self_us.clone();
    let self_p50 = median(&mut self_us);
    let miss = |k: usize, of: usize| k as f64 > layers::ACCOUNT_MISS_SHARE * of as f64;
    let pass = real_violations == 0
        && !miss(acc.busy_over_span, ticks)
        && !miss(acc.delta_sum_misses, deltas);
    report.note(format!(
        "layer accounting {} (tolerance {:.0}% + {} us on {:.0}% of cases): {} real spans outside their parent, \
         {} of {} ticks replay busier than their span, {} of {} deltas miss clone+repair+publish = apply, \
         median self {:.2} us/tick",
        if pass { "PASS" } else { "FAIL" },
        layers::ACCOUNT_TOL * 100.0,
        layers::ACCOUNT_SLACK_NS / 1000,
        (1.0 - layers::ACCOUNT_MISS_SHARE) * 100.0,
        real_violations,
        acc.busy_over_span,
        ticks,
        acc.delta_sum_misses,
        deltas,
        self_p50
    ));
    if !pass {
        report.error("layer accounting check failed");
    }
}
