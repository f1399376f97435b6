//! Per-layer measurement from outside the program.
//!
//! `core` work happens inside `FleetEngine::tick` and `index`/`roadnet`
//! work inside `World::apply`; neither can be timed from outside those
//! calls. Both are measured on a replay instead: [`Replay`] drives
//! clones of the engine's queries through the public
//! `FleetQuery::bind`/`tick_with`, one timed call at a time, with the
//! positions the engine saw, and must reproduce the engine's outcomes
//! exactly; [`DeltaTiming`] times the clone, repair and publish of a
//! delta on a copy of the snapshot it was applied to.

use std::sync::Arc;
use std::time::Instant;

use insq_core::{MovingKnn, QueryStats, Space, TickOutcome};
use insq_server::{Epoch, FleetEngine, FleetQuery, QueryId, SpaceQuery, World};

use crate::specs::Snapshot;
use crate::stats::Hist;
use crate::trace::{Tracer, ROOT};

/// Registry shards of every engine the benchmark builds (the engine's
/// default).
pub const SHARDS: usize = 64;

/// CPU time the calling thread has consumed, ns. Time the host or the
/// scheduler takes the CPU away does not count, so a call's CPU time
/// measures its work even on a shared, preempted machine.
#[cfg(target_os = "linux")]
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_THREAD_CPUTIME_ID is supported on Linux");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

#[cfg(not(target_os = "linux"))]
pub fn thread_cpu_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

/// The cost of one `Instant::now()`, subtracted from every replayed
/// call so per-call timings do not carry the timer.
pub fn timer_overhead_ns() -> u64 {
    let mut d: Vec<u64> = (0..2_001)
        .map(|_| {
            let a = Instant::now();
            let b = Instant::now();
            (b - a).as_nanos() as u64
        })
        .collect();
    d.sort_unstable();
    d[d.len() / 2]
}

/// Tolerance of the layer-accounting checks: a replayed child may
/// exceed its parent span (or a delta's clone + repair + publish may
/// miss its `World::apply` span) by this share of the parent plus
/// [`ACCOUNT_SLACK_NS`]. The replay runs the same work at another
/// moment, so cache state, contention and preemption differ.
pub const ACCOUNT_TOL: f64 = 0.5;
pub const ACCOUNT_SLACK_NS: u64 = 200_000;
/// Share of ticks (or deltas) allowed outside the tolerance before the
/// check fails: a preemption during either measurement moves one
/// comparison by milliseconds.
pub const ACCOUNT_MISS_SHARE: f64 = 0.2;

pub fn account_slack(parent_ns: u64) -> u64 {
    (parent_ns as f64 * ACCOUNT_TOL) as u64 + ACCOUNT_SLACK_NS
}

/// Accumulated per-layer measurements of a traced run.
#[derive(Debug, Default)]
pub struct LayerAcc {
    pub valid: Hist,
    pub local: Hist,
    pub recompute: Hist,
    pub bind: Hist,
    /// Sum of all replayed `core` calls.
    pub busy_ns: u64,
    /// Engine tick spans, µs.
    pub tick_us: Vec<f64>,
    /// Tick span minus the replayed `core` busy time, µs.
    pub self_us: Vec<f64>,
    pub rebinds: u64,
    pub clone_us: Vec<f64>,
    pub repair_us: Vec<f64>,
    pub publish_us: Vec<f64>,
    /// Deltas whose clone + repair + publish missed the apply span by
    /// more than [`account_slack`].
    pub delta_sum_misses: usize,
    /// Ticks whose replayed busy time exceeded the tick span by more
    /// than [`account_slack`].
    pub busy_over_span: usize,
}

/// Clones of a 1-thread engine's queries, replayed one timed call at a
/// time; the engine's tick runs them all on one thread, so its busy
/// time is their sum.
pub struct Replay<S: Space<Index: Clone>> {
    /// In the engine's shard order — the order its outcomes come in.
    queries: Vec<(QueryId, SpaceQuery<S>)>,
    scratches: Vec<S::Scratch>,
    timer_ns: u64,
    /// The snapshot the replayed queries were last bound to, held until
    /// a tick's replay has finished: when they rebind, the old snapshot
    /// must not be freed inside a timed `bind` (in the engine's own
    /// tick it never is while the replay still holds it).
    bound: Option<Arc<S::Index>>,
}

impl<S: Space<Index: Clone>> Replay<S> {
    pub fn of(engine: &FleetEngine<S::Index, SpaceQuery<S>>) -> Replay<S> {
        assert_eq!(engine.threads(), 1, "the replay models a 1-thread engine");
        let mut queries = Vec::with_capacity(engine.len());
        engine.for_each_query(|id, q| queries.push((id, SpaceQuery::<S>::clone(q))));
        Replay {
            queries,
            scratches: vec![S::Scratch::default(); SHARDS],
            timer_ns: timer_overhead_ns(),
            bound: None,
        }
    }

    /// Replays one engine tick whose per-query outcomes were `engine`
    /// (shard order) at `positions` (indexed by query id). Returns the
    /// tick's replayed busy time.
    pub fn tick(
        &mut self,
        epoch: Epoch,
        snapshot: &Arc<S::Index>,
        positions: &[S::Pos],
        engine: &[(QueryId, TickOutcome)],
        acc: &mut LayerAcc,
    ) -> Result<u64, String> {
        if engine.len() != self.queries.len() {
            return Err(format!(
                "engine ticked {} queries, replay holds {}",
                engine.len(),
                self.queries.len()
            ));
        }
        let held = self.bound.replace(Arc::clone(snapshot));
        let Replay {
            queries,
            scratches,
            timer_ns,
            ..
        } = self;
        let timed_ns = |t: Instant| (t.elapsed().as_nanos() as u64).saturating_sub(*timer_ns);
        let mut busy = 0;
        for (at, (id, q)) in queries.iter_mut().enumerate() {
            let (eid, want) = engine[at];
            if eid != *id {
                return Err(format!(
                    "engine order has {eid:?} where the replay has {id:?}"
                ));
            }
            let shard = id.index() % SHARDS;
            let mut ns = 0;
            if q.bound_epoch() != epoch {
                let t = Instant::now();
                q.bind(epoch, snapshot);
                let d = timed_ns(t);
                acc.bind.record(d);
                ns += d;
            }
            let t = Instant::now();
            let got = q.tick_with(&mut scratches[shard], positions[id.index()]);
            let d = timed_ns(t);
            if got != want {
                return Err(format!("query {id:?}: engine {want:?}, replay {got:?}"));
            }
            match got {
                TickOutcome::Valid => acc.valid.record(d),
                TickOutcome::Swap | TickOutcome::LocalRerank => acc.local.record(d),
                TickOutcome::Recompute => acc.recompute.record(d),
            }
            busy += ns + d;
        }
        acc.busy_ns += busy;
        drop(held);
        Ok(busy)
    }

    /// The replayed queries' merged statistics.
    pub fn stats(&self) -> QueryStats {
        let mut total = QueryStats::default();
        for (_, q) in &self.queries {
            total.merge(q.stats());
        }
        total
    }
}

/// One `World::apply` call, with (when traced) its replayed split.
#[derive(Debug, Clone, Copy)]
pub struct DeltaTiming {
    pub start: Instant,
    pub end: Instant,
    /// The calling thread's CPU time across the call.
    pub cpu_ns: u64,
    /// `(clone_ns, repair_ns, publish_ns)`, CPU time.
    pub split: Option<(u64, u64, u64)>,
}

impl DeltaTiming {
    /// Wall time, µs.
    pub fn us(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e6
    }

    /// CPU time, µs.
    pub fn cpu_us(&self) -> f64 {
        self.cpu_ns as f64 / 1e3
    }
}

/// Applies `delta` through `World::apply`, timed. When `split` is set,
/// replays the clone and repair on a copy of the snapshot the delta was
/// applied to, and the publish on a scratch world.
pub fn apply_delta<I: Snapshot>(
    world: &World<I>,
    delta: &I::Delta,
    split: bool,
) -> Result<DeltaTiming, String> {
    let before = split.then(|| world.snapshot().1);
    let cpu = thread_cpu_ns();
    let start = Instant::now();
    let applied = world.apply(delta);
    let end = Instant::now();
    let cpu_ns = thread_cpu_ns() - cpu;
    applied.map_err(|e| format!("World::apply failed: {e:?}"))?;
    let split = before.map(|before| {
        let (clone_ns, repair_ns) = before.replay_delta(delta);
        let next = before
            .apply_delta(delta)
            .expect("the delta applied to the live world");
        let scratch = World::from_arc(Arc::clone(&before));
        let t = thread_cpu_ns();
        scratch.publish(next);
        let publish_ns = thread_cpu_ns() - t;
        (clone_ns, repair_ns, publish_ns)
    });
    Ok(DeltaTiming {
        start,
        end,
        cpu_ns,
        split,
    })
}

/// Records a delta's span (and its replayed children) and feeds the
/// accounting check.
pub fn record_delta(
    tracer: &mut Tracer,
    acc: &mut LayerAcc,
    names: crate::specs::LayerNames,
    j: u64,
    d: &DeltaTiming,
) {
    let span = tracer.span("server.apply", d.start, d.end, ROOT, j);
    let Some((clone_ns, repair_ns, publish_ns)) = d.split else {
        return;
    };
    tracer.replay(names.clone, clone_ns, span, j);
    tracer.replay(names.repair, repair_ns, span, j);
    tracer.replay("server.publish", publish_ns, span, j);
    acc.clone_us.push(clone_ns as f64 / 1e3);
    acc.repair_us.push(repair_ns as f64 / 1e3);
    acc.publish_us.push(publish_ns as f64 / 1e3);
    // CPU time on both sides: preemption of either measurement would
    // otherwise decide the comparison.
    let apply_ns = d.cpu_ns;
    let sum = clone_ns + repair_ns + publish_ns;
    if sum.abs_diff(apply_ns) > account_slack(apply_ns) {
        acc.delta_sum_misses += 1;
    }
}

/// The replay must reproduce the engine's op and outcome counters
/// exactly.
pub fn same_stats(engine: &QueryStats, replay: &QueryStats) -> Result<(), String> {
    if engine == replay {
        Ok(())
    } else {
        Err(format!(
            "replayed counters differ from the engine's: engine {engine:?}, replay {replay:?}"
        ))
    }
}
