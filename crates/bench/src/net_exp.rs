//! Network serving experiment: the fleet engine behind a real socket.
//!
//! Runs one `FleetScenario` twice — in-process through the fleet engine
//! directly, and over loopback TCP through `insq-net` (`NetServer` +
//! `NetClient`, clients driven in lockstep from their
//! [`insq_workload::client_updates`] streams) — with the *identical*
//! mid-run delta epoch applied in both runs, and reports the *measured*
//! wire bytes per tick next to the paper's model-level communication
//! counter (`comm` = objects shipped server → client) of the very same
//! run, so the INS protocol's communication-minimisation claim is
//! accounted in real bytes, not only in model units.

use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::{Euclidean, InsConfig};
use insq_geom::Point;
use insq_index::SiteDelta;
use insq_net::{NetClient, NetServer, NetServerConfig};
use insq_server::{FleetConfig, FleetEngine, FleetStats, InsFleetQuery, World};
use insq_voronoi::SiteId;
use insq_workload::{client_updates, FleetScenario, SpaceWorkload};

use crate::bench_json::{obj, snapshot_status, Json};
use crate::latency::LatencyHistogram;
use crate::Effort;

/// The mid-run data-object update, identical in both runs.
fn poi_delta() -> SiteDelta {
    SiteDelta {
        added: vec![Point::new(47.0, 53.0)],
        removed: vec![SiteId(0)],
    }
}

/// The in-process twin of [`run_tcp`]: same scenario, same delta epoch
/// at the same tick, same engine configuration — its statistics are the
/// model-level counters of exactly the run the TCP bytes measure.
fn run_inproc(sc: &FleetScenario, threads: usize) -> FleetStats {
    let fleet_state = Euclidean::make_fleet(sc);
    let idx0 = Arc::new(Euclidean::build_index(sc, &fleet_state, 0));
    let world = Arc::new(World::from_arc(idx0));
    let mut fleet: FleetEngine<_, InsFleetQuery> = FleetEngine::new(
        Arc::clone(&world),
        FleetConfig {
            shards: 16,
            threads,
        },
    );
    for _ in 0..sc.clients {
        fleet.register(InsFleetQuery::new(&world, InsConfig::new(sc.k, sc.rho)).expect("valid"));
    }
    let delta_at = sc.ticks / 2;
    for tick in 0..sc.ticks {
        if tick == delta_at {
            world.apply(&poi_delta()).expect("delta applies");
        }
        fleet.tick_all(|id| Euclidean::position(sc, &fleet_state, id.index(), tick));
    }
    fleet.stats()
}

struct NetRun {
    ticks: u64,
    bytes_in: u64,
    bytes_out: u64,
    client_results: u64,
    epoch_notifies: u64,
    /// Per-result round-trip latency: position update sent → result
    /// frame received, one sample per client per tick.
    latency: LatencyHistogram,
    wall: Duration,
}

/// Drives `sc` over loopback TCP in lockstep, applying one delta epoch
/// at the scenario midpoint. Returns the server-side accounting.
fn run_tcp(sc: &FleetScenario, threads: usize) -> NetRun {
    let fleet_state = Euclidean::make_fleet(sc);
    let idx0 = Arc::new(Euclidean::build_index(sc, &fleet_state, 0));
    let world = Arc::new(World::from_arc(Arc::clone(&idx0)));
    let server: NetServer<Euclidean> = NetServer::bind(
        "127.0.0.1:0",
        Arc::clone(&world),
        NetServerConfig {
            fleet: FleetConfig {
                shards: 16,
                threads,
            },
            min_clients: sc.clients,
            ..NetServerConfig::default()
        },
    )
    .expect("bind loopback");

    // One update stream per client, consumed in lockstep.
    let mut streams: Vec<_> = (0..sc.clients)
        .map(|c| client_updates::<Euclidean>(sc, &fleet_state, c))
        .collect();
    let mut clients: Vec<NetClient> = streams
        .iter_mut()
        .map(|stream| {
            let mut cl = NetClient::connect(server.local_addr()).expect("connect");
            cl.register::<Euclidean>(sc.k, sc.rho, stream.next().expect("tick 0"))
                .expect("register");
            cl
        })
        .collect();

    let delta_at = sc.ticks / 2;
    let mut client_results = 0u64;
    let mut epoch_notifies = 0u64;
    let mut latency = LatencyHistogram::new();
    let t_run = Instant::now();
    for tick in 0..sc.ticks {
        if tick == delta_at {
            // A small data-object update, pushed as a delta epoch.
            server.world().apply(&poi_delta()).expect("delta applies");
        }
        let t_tick = Instant::now();
        if tick > 0 {
            for (cl, stream) in clients.iter_mut().zip(streams.iter_mut()) {
                cl.update::<Euclidean>(stream.next().expect("scenario tick"))
                    .expect("update");
            }
        }
        for cl in clients.iter_mut() {
            let upd = cl.next_result().expect("result");
            latency.record(t_tick.elapsed());
            client_results += 1;
            epoch_notifies += upd.notified.len() as u64;
        }
    }
    let wall = t_run.elapsed();
    for cl in clients.iter_mut() {
        cl.deregister().ok();
    }
    let (bytes_in, bytes_out) = server.wire_bytes();
    let ticks = server.ticks();
    server.shutdown();
    NetRun {
        ticks,
        bytes_in,
        bytes_out,
        client_results,
        epoch_notifies,
        latency,
        wall,
    }
}

/// E-net: measured wire bytes/tick of the TCP serving layer vs the
/// model-level communication counter of the same in-process run.
pub fn e_net(effort: Effort) -> String {
    let ticks = match effort {
        Effort::Quick => 60,
        Effort::Full => 300,
    };
    let sc = FleetScenario {
        clients: 24,
        n: 2_000,
        k: 5,
        ticks,
        updates: vec![],
        seed: 2016,
        ..Default::default()
    };

    // The identical run in-process: the model-level counters of exactly
    // the ticks the TCP bytes below measure.
    let model = run_inproc(&sc, 2);
    let query_ticks = model.total.ticks.max(1);

    let mut out = format!(
        "{} clients over loopback TCP, n={}, k={}, rho={}, {} ticks, one delta\n\
         epoch mid-run; lockstep updates (one position per client per tick)\n\n",
        sc.clients, sc.n, sc.k, sc.rho, sc.ticks
    );
    out.push_str(&format!(
        "{:<10} {:>7} {:>11} {:>12} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        "run",
        "ticks",
        "B/tick up",
        "B/tick down",
        "results",
        "notifies",
        "us/tick",
        "p50 us",
        "p99 us"
    ));
    let mut runs_json: Vec<Json> = Vec::new();
    for threads in [1usize, 4] {
        let run = run_tcp(&sc, threads);
        let ticks = run.ticks.max(1) as f64;
        let us_per_tick = run.wall.as_secs_f64() * 1e6 / ticks;
        out.push_str(&format!(
            "{:<10} {:>7} {:>11.1} {:>12.1} {:>9} {:>9} {:>9.1} {:>9} {:>9}\n",
            format!("tcp/{threads}t"),
            run.ticks,
            run.bytes_in as f64 / ticks,
            run.bytes_out as f64 / ticks,
            run.client_results,
            run.epoch_notifies,
            us_per_tick,
            run.latency.p50_us(),
            run.latency.p99_us(),
        ));
        runs_json.push(obj([
            ("threads", threads.into()),
            ("ticks", run.ticks.into()),
            ("bytes_in_per_tick", (run.bytes_in as f64 / ticks).into()),
            ("bytes_out_per_tick", (run.bytes_out as f64 / ticks).into()),
            ("client_results", run.client_results.into()),
            ("epoch_notifies", run.epoch_notifies.into()),
            ("us_per_tick", us_per_tick.into()),
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

    out.push_str(&format!(
        "\nmodel-level (in-process) communication of the identical run (same delta\n\
         epoch at the same tick):\n\
         comm = {} objects over {} query-ticks ({:.3} objects/query-tick)\n",
        model.total.comm_objects,
        query_ticks,
        model.total.comm_objects as f64 / query_ticks as f64,
    ));
    out.push_str(
        "\nexpected shape: wire traffic is dominated by the fixed per-tick frames\n\
         (one ~30 B position update up, one KnnResult down per client per tick);\n\
         the INS protocol's saving shows in what is NOT sent — no per-tick object\n\
         payloads while results validate locally (comm objects/query-tick << k).\n\
         Byte counts are exact (counted by the server); results = clients x ticks;\n\
         notifies = one epoch push per live session at the delta epoch.\n",
    );

    let snapshot = obj([
        ("experiment", "e_net".into()),
        ("effort", effort.name().into()),
        ("clients", sc.clients.into()),
        ("n", sc.n.into()),
        ("k", sc.k.into()),
        ("rho", sc.rho.into()),
        ("ticks", sc.ticks.into()),
        ("runs", Json::Arr(runs_json)),
        (
            "model_comm_objects_per_query_tick",
            (model.total.comm_objects as f64 / query_ticks as f64).into(),
        ),
    ]);
    out.push_str(&snapshot_status("e_net", effort, &snapshot));
    out
}
