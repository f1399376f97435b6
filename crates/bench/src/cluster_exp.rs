//! Cluster scale-out experiment: one fleet, sliced into 1 / 2 / 4
//! spatial partitions behind the [`insq_cluster::RouterServer`].
//!
//! The fleet size is held fixed while the partition count sweeps, so
//! the numbers isolate what sharding itself costs and buys: per-tick
//! wall time, round-trip latency through the router, and the handoff
//! rate the border-crossing workload induces. Every client is a
//! shuttle sweeping the full width of the space, the adversarial input
//! for vertical strips — each one crosses every partition border on
//! every traversal, so handoff is continuously exercised rather than a
//! rare event.
//!
//! Clients are driven thread-per-client, not from one sequential loop:
//! under the barrier tick policy a handed-off client's first result on
//! its new backend can only be released once that backend's *other*
//! sessions send their next updates, which a single sequential driver
//! would never do while blocked on the read. Independent client
//! threads are also the realistic shape — real terminals do not take
//! turns.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use insq_cluster::{ClusterPlan, RouterConfig, RouterServer};
use insq_core::Euclidean;
use insq_geom::{Aabb, Point};
use insq_index::VorTree;
use insq_net::{NetClient, NetServer, NetServerConfig};
use insq_server::{GridPartitioner, RegionId, World};
use insq_workload::Distribution;

use crate::bench_json::{obj, snapshot_status, Json};
use crate::latency::LatencyHistogram;
use crate::Effort;

const K: usize = 5;
const RHO: f64 = 1.8;
const CLIENTS: usize = 24;
const N_SITES: usize = 2_000;
/// Overlap margin for the regional indexes. At n = 2000 in a 100×100
/// space the 5th-neighbor distance is ~3 units, so 12 units of overlap
/// certify every tick with room to spare.
const MARGIN: f64 = 12.0;

fn bounds() -> Aabb {
    Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0))
}

/// Client `c`'s position at `t`: a ping-pong shuttle across the full
/// inner width in a per-client lane, phase-shifted so the fleet's
/// border crossings spread over the run instead of synchronizing.
fn shuttle_pos(c: usize, t: usize) -> Point {
    const SPAN: f64 = 90.0; // 5.0 ..= 95.0
    const SPEED: f64 = 3.0;
    let lane = 4.0 + 92.0 * (c as f64 + 0.5) / CLIENTS as f64;
    let phase = (t as f64 * SPEED + c as f64 * 7.3) % (2.0 * SPAN);
    let x = 5.0
        + if phase <= SPAN {
            phase
        } else {
            2.0 * SPAN - phase
        };
    Point::new(x, lane)
}

struct ClusterRun {
    partitions: u32,
    ticks: usize,
    handoffs: u64,
    uncertified: u64,
    latency: LatencyHistogram,
    wall: Duration,
    bytes_in: u64,
    bytes_out: u64,
}

/// One sweep point: `partitions` real `NetServer` backends over one
/// plan, a router in front, `CLIENTS` shuttle threads for `ticks`
/// lockstep rounds each.
fn run_cluster(partitions: u32, ticks: usize) -> ClusterRun {
    let sites = Distribution::Uniform.generate(N_SITES, &bounds(), 2016);
    let part = Arc::new(GridPartitioner::strips(bounds(), partitions));
    let plan = ClusterPlan::new(part.clone(), MARGIN, sites);
    let clip = bounds().inflated(10.0);
    let backends: Vec<NetServer<Euclidean>> = (0..plan.regions())
        .map(|r| {
            let pts = plan.region_sites(RegionId(r as u32));
            let world = Arc::new(World::new(VorTree::build(pts, clip).expect("valid sites")));
            let cfg = NetServerConfig {
                certify_within: Some(MARGIN),
                ..NetServerConfig::default()
            };
            NetServer::bind("127.0.0.1:0", world, cfg).expect("backend binds")
        })
        .collect();
    let addrs: Vec<SocketAddr> = backends.iter().map(NetServer::local_addr).collect();
    let router = RouterServer::bind(
        "127.0.0.1:0",
        part,
        RouterConfig {
            tables: plan.tables(),
            ..RouterConfig::new(addrs)
        },
    )
    .expect("router binds");

    let addr = router.local_addr();
    let t_run = Instant::now();
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            thread::spawn(move || {
                let mut latency = LatencyHistogram::new();
                let mut uncertified = 0u64;
                let mut client = NetClient::connect(addr).expect("connect");
                client
                    .register::<Euclidean>(K, RHO, shuttle_pos(c, 0))
                    .expect("register");
                for t in 0..ticks {
                    let t_tick = Instant::now();
                    if t > 0 {
                        client
                            .update::<Euclidean>(shuttle_pos(c, t))
                            .expect("update");
                    }
                    let upd = client.next_result().expect("result");
                    latency.record(t_tick.elapsed());
                    if upd.flags != 0 {
                        uncertified += 1;
                    }
                }
                client.deregister().expect("deregister");
                (latency, uncertified)
            })
        })
        .collect();
    let mut latency = LatencyHistogram::new();
    let mut uncertified = 0u64;
    for h in handles {
        let (hist, unc) = h.join().expect("client thread");
        latency.merge(&hist);
        uncertified += unc;
    }
    let wall = t_run.elapsed();
    let handoffs = router.handoffs();
    let (bytes_in, bytes_out) = router.wire_bytes();
    router.shutdown();
    for b in backends {
        b.shutdown();
    }
    ClusterRun {
        partitions,
        ticks,
        handoffs,
        uncertified,
        latency,
        wall,
        bytes_in,
        bytes_out,
    }
}

/// E-cluster: fixed fleet over 1 / 2 / 4 partitions behind the router.
pub fn e_cluster(effort: Effort) -> String {
    let ticks = match effort {
        Effort::Quick => 50,
        Effort::Full => 250,
    };

    let mut out = format!(
        "{CLIENTS} shuttle clients over loopback TCP through the router,\n\
         n={N_SITES}, k={K}, rho={RHO}, margin={MARGIN}, {ticks} ticks per run;\n\
         fleet size fixed while the partition count sweeps\n\n"
    );
    out.push_str(&format!(
        "{:<6} {:>7} {:>9} {:>12} {:>9} {:>9} {:>9} {:>11} {:>12}\n",
        "parts",
        "ticks",
        "handoffs",
        "handoff/tick",
        "us/tick",
        "p50 us",
        "p99 us",
        "uncertified",
        "B/tick thru"
    ));
    let mut runs_json: Vec<Json> = Vec::new();
    for partitions in [1u32, 2, 4] {
        let run = run_cluster(partitions, ticks);
        let t = run.ticks.max(1) as f64;
        let us_per_tick = run.wall.as_secs_f64() * 1e6 / t;
        out.push_str(&format!(
            "{:<6} {:>7} {:>9} {:>12.3} {:>9.1} {:>9} {:>9} {:>11} {:>12.1}\n",
            run.partitions,
            run.ticks,
            run.handoffs,
            run.handoffs as f64 / t,
            us_per_tick,
            run.latency.p50_us(),
            run.latency.p99_us(),
            run.uncertified,
            (run.bytes_in + run.bytes_out) as f64 / t,
        ));
        runs_json.push(obj([
            ("partitions", u64::from(run.partitions).into()),
            ("ticks", run.ticks.into()),
            ("handoffs", run.handoffs.into()),
            ("handoffs_per_tick", (run.handoffs as f64 / t).into()),
            ("us_per_tick", us_per_tick.into()),
            ("uncertified", run.uncertified.into()),
            ("bytes_in_per_tick", (run.bytes_in as f64 / t).into()),
            ("bytes_out_per_tick", (run.bytes_out as f64 / t).into()),
            (
                "latency_us",
                obj([
                    ("p50", run.latency.p50_us().into()),
                    ("p99", run.latency.p99_us().into()),
                    ("max", run.latency.max_us().into()),
                    ("mean", run.latency.mean_us().into()),
                    ("samples", run.latency.count().into()),
                ]),
            ),
        ]));
    }

    out.push_str(
        "\nexpected shape: one partition is the router as pure overhead (every\n\
         frame relayed, zero handoffs); with 2 and 4 partitions each backend\n\
         ticks a fraction of the fleet against a smaller regional index while\n\
         the shuttles force continuous handoffs. The margin certifies every\n\
         result (uncertified = 0): partitioned answers are bit-identical to\n\
         the single-world kNN, so the sweep compares equal answers, not\n\
         degraded ones. RTT includes the barrier wait for co-registered\n\
         clients, so p99 tracks the slowest client thread, not router cost.\n",
    );

    let snapshot = obj([
        ("experiment", "e_cluster".into()),
        ("effort", effort.name().into()),
        ("clients", CLIENTS.into()),
        ("n", N_SITES.into()),
        ("k", K.into()),
        ("rho", RHO.into()),
        ("margin", MARGIN.into()),
        ("ticks", ticks.into()),
        ("runs", Json::Arr(runs_json)),
    ]);
    out.push_str(&snapshot_status("e_cluster", effort, &snapshot));
    out
}
