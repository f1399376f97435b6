//! Space-generic experiment drivers.
//!
//! Everything here is written once against `insq_workload::SpaceWorkload`
//! and monomorphised per space: the fleet sweep behind `e_fleet`, the
//! single-query INS run, and the cross-space comparison table of
//! `e_spaces`. Adding a space to the system adds a row to these tables
//! with no new experiment code.

use std::sync::Arc;
use std::time::Instant;

use insq_core::{Euclidean, InsConfig, MovingKnn, Network, Processor, WeightedEuclidean};
use insq_server::{FleetConfig, FleetEngine, FleetStats, QueryId, SpaceQuery, World};
use insq_workload::{FleetScenario, SpaceWorkload};

use crate::bench_json::{obj, snapshot_status, Json};
use crate::Effort;

/// Drives a whole [`FleetScenario`] through the fleet engine in space
/// `S`: registers `sc.clients` queries over `idx_v0`, publishes `idx_v1`
/// at every scheduled update tick, and ticks the fleet to the end.
/// Returns the engine (for stats and spot checks) and the wall-clock
/// seconds of the run loop.
pub fn run_fleet<S: SpaceWorkload>(
    sc: &FleetScenario,
    fleet_state: &S::Fleet,
    idx_v0: &Arc<S::Index>,
    idx_v1: &Arc<S::Index>,
    threads: usize,
) -> (FleetEngine<S::Index, SpaceQuery<S>>, f64) {
    let world = Arc::new(World::from_arc(Arc::clone(idx_v0)));
    let mut fleet: FleetEngine<S::Index, SpaceQuery<S>> =
        FleetEngine::new(Arc::clone(&world), FleetConfig::with_threads(threads));
    for _ in 0..sc.clients {
        fleet.register(
            SpaceQuery::<S>::new(&world, InsConfig::new(sc.k, sc.rho)).expect("valid config"),
        );
    }
    let t0 = Instant::now();
    for tick in 0..sc.ticks {
        if sc.updates.contains(&tick) {
            world.publish_arc(Arc::clone(idx_v1));
        }
        // Positions are computed inside the closure, on the worker
        // threads: the timed window contains no sequential per-tick work
        // that would dilute the thread-scaling signal.
        fleet.tick_all(|id| S::position(sc, fleet_state, id.index(), tick));
    }
    let wall = t0.elapsed().as_secs_f64();
    (fleet, wall)
}

/// One single-query INS run in space `S` over the scenario's client 0
/// trajectory, with a brute-force agreement check at every sampled tick.
/// Returns (stats, us/tick, brute-force mismatches).
pub fn run_single<S: SpaceWorkload>(
    sc: &FleetScenario,
    fleet_state: &S::Fleet,
    idx: &Arc<S::Index>,
) -> (insq_core::QueryStats, f64, usize) {
    let mut p =
        Processor::<S, _>::new(Arc::clone(idx), InsConfig::new(sc.k, sc.rho)).expect("valid");
    let mut mismatches = 0usize;
    let t0 = Instant::now();
    for tick in 0..sc.ticks {
        let pos = S::position(sc, fleet_state, 0, tick);
        p.tick(pos);
        if tick % 10 == 0 {
            let mut got = p.current_knn();
            got.sort_unstable();
            let mut want = S::brute(idx, pos, sc.k);
            want.sort_unstable();
            if got != want {
                mismatches += 1;
            }
        }
    }
    let us_per_tick = t0.elapsed().as_secs_f64() * 1e6 / sc.ticks.max(1) as f64;
    (*p.stats(), us_per_tick, mismatches)
}

/// One `e_spaces` table row: fleet + single-query behaviour of space `S`
/// under the shared scenario. Returns the text row plus its
/// machine-readable snapshot record.
fn space_row<S: SpaceWorkload>(name: &str, sc: &FleetScenario) -> (String, Json) {
    let fleet_state = S::make_fleet(sc);
    let idx_v0 = Arc::new(S::build_index(sc, &fleet_state, 0));
    let idx_v1 = Arc::new(S::build_index(sc, &fleet_state, 1));

    let (fleet_1t, wall_1t) = run_fleet::<S>(sc, &fleet_state, &idx_v0, &idx_v1, 1);
    let (fleet_2t, _) = run_fleet::<S>(sc, &fleet_state, &idx_v0, &idx_v1, 2);
    let s1: FleetStats = fleet_1t.stats();
    let identical = s1.total == fleet_2t.stats().total;

    // Brute-force spot checks of the final fleet state on the live
    // (post-update) index.
    let mut spot_ok = true;
    for c in [0usize, sc.clients / 2, sc.clients - 1] {
        let q = fleet_1t.query(QueryId(c as u64)).expect("registered");
        let mut got = q.current_knn();
        got.sort_unstable();
        let pos = S::position(sc, &fleet_state, c, sc.ticks - 1);
        let mut want = S::brute(&idx_v1, pos, sc.k);
        want.sort_unstable();
        spot_ok &= got == want;
    }

    let (_, us_tick, mismatches) = run_single::<S>(sc, &fleet_state, &idx_v0);
    let kticks = s1.total.ticks as f64 / wall_1t / 1e3;
    let row = format!(
        "{:<10} {:>9.1} {:>10.2} {:>9.4} {:>10.2} {:>10} {:>7} {:>6}\n",
        name,
        kticks,
        s1.validations_per_tick(),
        s1.recompute_rate(),
        us_tick,
        if identical { "yes" } else { "NO" },
        if spot_ok { "ok" } else { "FAIL" },
        mismatches,
    );
    let json = obj([
        ("space", name.into()),
        ("clients", sc.clients.into()),
        ("n", sc.n.into()),
        ("kticks_per_s", kticks.into()),
        ("validations_per_tick", s1.validations_per_tick().into()),
        ("recompute_rate", s1.recompute_rate().into()),
        ("us_per_tick", us_tick.into()),
        ("identical_1_vs_2_threads", identical.into()),
        ("brute_spot_ok", spot_ok.into()),
        ("brute_mismatches", mismatches.into()),
    ]);
    (row, json)
}

/// E-spaces: the same fleet scenario through every registered space —
/// one generic driver, one row per space.
pub fn e_spaces(effort: Effort) -> String {
    let ticks = effort.ticks(400);
    let sc = FleetScenario {
        clients: 200,
        n: 2_000,
        k: 5,
        ticks,
        updates: vec![ticks / 2],
        axis_weights: (1.0, 2.5),
        seed: 2016,
        ..Default::default()
    };
    // Road-network fleets tick a Dijkstra per validation — use a smaller
    // object count so the quick run stays in CI budget.
    let sc_net = FleetScenario {
        n: 400,
        clients: 100,
        ..sc.clone()
    };

    let mut out = format!(
        "one scenario, every space: {} clients, k={}, rho={}, {} ticks, one epoch\n\
         swap mid-run (network space: {} clients over a street grid, n={} sites)\n\n",
        sc.clients, sc.k, sc.rho, sc.ticks, sc_net.clients, sc_net.n,
    );
    out.push_str(&format!(
        "{:<10} {:>9} {:>10} {:>9} {:>10} {:>10} {:>7} {:>6}\n",
        "space", "kticks/s", "val/tick", "rec_rate", "us/query", "identical", "brute", "miss"
    ));
    let mut runs: Vec<Json> = Vec::new();
    for (row, json) in [
        space_row::<Euclidean>("euclidean", &sc),
        space_row::<WeightedEuclidean>("weighted", &sc),
        space_row::<Network>("network", &sc_net),
    ] {
        out.push_str(&row);
        runs.push(json);
    }
    out.push_str(
        "\nexpected shape: every row validates cheaply and recomputes rarely; the\n\
         'identical' column asserts bit-identical aggregate counters at 1 vs 2\n\
         threads, 'brute'/'miss' that fleet and single-query results equal the\n\
         per-space brute force. The weighted row demonstrates that a new space\n\
         rides the entire stack — processor, world, fleet engine, workload,\n\
         experiments — with zero per-space driver code.\n",
    );
    let snapshot = obj([
        ("experiment", "e_spaces".into()),
        ("effort", effort.name().into()),
        ("k", sc.k.into()),
        ("ticks", sc.ticks.into()),
        ("runs", Json::Arr(runs)),
    ]);
    out.push_str(&snapshot_status("e_spaces", effort, &snapshot));
    out
}
