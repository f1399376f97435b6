//! The INSQ *system*: one server, thousands of concurrent moving queries.
//!
//! Drives a fleet of 5,000 Euclidean moving kNN clients over a shared,
//! epoch-versioned world for 120 timestamps. Halfway through, the POI
//! database is updated: the server builds a new VoR-tree and publishes it
//! with one `World::publish` — no client is touched by hand; every query
//! detects the epoch bump at its next tick and self-rebinds. The new
//! database reshuffles every object, so no certificate survives and
//! every query pays one recomputation (a small delta would let most
//! queries carry their state over — see `TickSummary::carried`).
//!
//! Run with: `cargo run --release --example fleet`

use std::sync::Arc;

use insq::prelude::*;

fn main() {
    let sc = FleetScenario {
        clients: 5_000,
        n: 10_000,
        k: 5,
        ticks: 120,
        updates: vec![60],
        seed: 2016,
        ..Default::default()
    };

    // Server side: build and publish the initial world (epoch 0), and
    // pre-build the post-update index the schedule will publish later.
    let idx_v1 = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).expect("valid data"));
    let idx_v2 = Arc::new(VorTree::build(sc.points(1), sc.clip_window()).expect("valid data"));
    let world = Arc::new(World::from_arc(Arc::clone(&idx_v1)));

    // Fleet side: register the clients (a mix of tourist / commuter /
    // loop trajectories) and keep their trajectories for position lookup.
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
        FleetEngine::new(Arc::clone(&world), FleetConfig::default());
    let trajs: Vec<Trajectory> = (0..sc.clients).map(|c| sc.client_trajectory(c)).collect();
    for _ in 0..sc.clients {
        fleet.register(
            InsFleetQuery::new(&world, InsConfig::new(sc.k, sc.rho)).expect("valid config"),
        );
    }
    println!(
        "fleet: {} clients, k={}, rho={}, {} objects, {} worker thread(s)",
        fleet.len(),
        sc.k,
        sc.rho,
        idx_v1.len(),
        fleet.threads()
    );

    let t0 = std::time::Instant::now();
    for tick in 0..sc.ticks {
        if sc.updates.contains(&tick) {
            let epoch = world.publish_arc(Arc::clone(&idx_v2));
            println!(
                "tick {tick}: POI database updated ({} -> {} objects), published as {epoch}",
                idx_v1.len(),
                idx_v2.len()
            );
        }
        // Positions are computed inside the closure, on the worker pool.
        let summary = fleet.tick_all(|id| sc.position(&trajs[id.index()], id.index(), tick));
        if summary.rebinds > 0 {
            println!(
                "tick {tick}: {} queries detected the epoch bump and rebound \
                 ({} carried their certificate over, the rest recomputed)",
                summary.rebinds, summary.carried
            );
        }
    }
    let wall = t0.elapsed();

    // Exactness spot check: fleet answers equal brute force on the live
    // (post-update) world.
    for c in [0usize, 1_234, 4_999] {
        let q = fleet.query(QueryId(c as u64)).expect("registered");
        let mut got = q.current_knn();
        got.sort_unstable();
        let mut want = idx_v2
            .voronoi()
            .knn_brute(sc.position(&trajs[c], c, sc.ticks - 1), sc.k);
        want.sort_unstable();
        assert_eq!(got, want, "client {c} must answer exactly from epoch 1");
    }

    let stats = fleet.stats();
    let s = &stats.total;
    println!(
        "\ndone: {} query-ticks in {:.2?} ({:.0}k ticks/s across {} shards)",
        s.ticks,
        wall,
        stats.ticks_per_sec() / 1e3,
        stats.per_shard.len()
    );
    println!(
        "outcome mix: {} valid | {} local updates | {} recomputations (rate {:.4})",
        s.valid_ticks,
        s.swaps + s.local_reranks,
        s.recomputations,
        stats.recompute_rate()
    );
    println!(
        "per tick: {:.1} validation ops | {:.2} objects shipped",
        stats.validations_per_tick(),
        s.comm_per_tick()
    );
    println!(
        "(of the {} recomputes: {} initial computations + {} from the epoch \
         swap — exactly one per client each — and the rest from trajectory \
         drift)",
        s.recomputations, stats.queries, stats.queries
    );
}
