//! E-update: incremental delta epochs vs full rebuild republishes.
//!
//! Measures the server-side cost of a data-object update along the two
//! routes `insq-server` offers — `World::publish` of a from-scratch index
//! (O(n log n) construction) vs `World::apply` of a [`SiteDelta`] /
//! [`NetSiteDelta`] (copy-on-write clone plus localized repair) — across
//! data set sizes and delta sizes, in both the Euclidean and the road-
//! network mode, plus a fleet stream segment showing update stalls.
//!
//! Expected shape: `apply` latency scales with the delta size, while
//! `publish` pays the full rebuild regardless — so small deltas win by
//! well over the 5x acceptance bar at n >= 10k. The clone is a few
//! `memcpy`s of flat arrays (a fixed number of allocations, bytes linear
//! in n but at memory bandwidth), and the repair adds O(delta · local).

use std::sync::Arc;
use std::time::{Duration, Instant};

use insq_core::InsConfig;
use insq_geom::{Point, Trajectory};
use insq_index::{SiteDelta, VorTree};
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig, SplitMix64};
use insq_roadnet::{NetDelta, NetSiteDelta, SiteIdx, VertexId};
use insq_server::{FleetConfig, FleetEngine, InsFleetQuery, NetworkWorld, World};
use insq_voronoi::SiteId;
use insq_workload::{Distribution, FleetScenario};

use crate::bench_json::{obj, snapshot_status, Json};
use crate::Effort;

/// A churn delta: removes `d` spread-out sites and adds `d` fresh points,
/// keeping the world size stable across repetitions.
fn churn_delta(snapshot: &VorTree, d: usize, rng: &mut SplitMix64) -> SiteDelta {
    let n = snapshot.len();
    let mut delta = SiteDelta::default();
    let mut used = std::collections::BTreeSet::new();
    while used.len() < d.min(n.saturating_sub(4)) {
        used.insert(SiteId(rng.below(n) as u32));
    }
    delta.removed = used.into_iter().collect();
    while delta.added.len() < d {
        let p = Point::new(rng.range(0.0, 100.0), rng.range(0.0, 100.0));
        if !snapshot.voronoi().points().contains(&p) {
            delta.added.push(p);
        }
    }
    delta
}

fn euclidean_section(effort: Effort, out: &mut String, runs: &mut Vec<Json>) {
    let ns: Vec<usize> = effort.thin(&[2_000usize, 10_000, 20_000]);
    let reps = match effort {
        Effort::Quick => 4,
        Effort::Full => 8,
    };
    out.push_str("Euclidean (VorTree world): World::apply(SiteDelta) vs World::publish(rebuild)\n");
    out.push_str(&format!(
        "{:<8} {:>8} {:>13} {:>13} {:>9}\n",
        "n", "delta", "apply_us", "rebuild_us", "speedup"
    ));
    for &n in &ns {
        let space = insq_geom::Aabb::new(Point::new(0.0, 0.0), Point::new(100.0, 100.0));
        let points = Distribution::Uniform.generate(n, &space, 7);
        let bounds = space.inflated(10.0);
        let world = World::new(VorTree::build(points.clone(), bounds).expect("valid data"));

        // The baseline: a full rebuild of the current snapshot's points
        // (exactly what a publish-path update would have to do).
        let t0 = Instant::now();
        for _ in 0..reps {
            let (_, snap) = world.snapshot();
            let rebuilt = VorTree::build(snap.voronoi().points().to_vec(), bounds).unwrap();
            world.publish(rebuilt);
        }
        let rebuild_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

        for &d in &[1usize, 16, 128] {
            let mut rng = SplitMix64::new(0xE0 + d as u64);
            let mut total = Duration::ZERO;
            for _ in 0..reps {
                let (_, snap) = world.snapshot();
                let delta = churn_delta(&snap, d, &mut rng);
                let t0 = Instant::now();
                world.apply(&delta).expect("valid delta");
                total += t0.elapsed();
            }
            let apply_us = total.as_secs_f64() * 1e6 / reps as f64;
            out.push_str(&format!(
                "{:<8} {:>8} {:>13.1} {:>13.1} {:>8.1}x\n",
                n,
                d,
                apply_us,
                rebuild_us,
                rebuild_us / apply_us
            ));
            runs.push(obj([
                ("section", "euclidean_delta".into()),
                ("n", n.into()),
                ("delta", d.into()),
                ("apply_us", apply_us.into()),
                ("rebuild_us", rebuild_us.into()),
                ("speedup", (rebuild_us / apply_us).into()),
            ]));
        }
    }
}

fn network_section(effort: Effort, out: &mut String, runs: &mut Vec<Json>) {
    let (cols, rows, sites_n) = match effort {
        Effort::Quick => (30u32, 30u32, 250usize),
        Effort::Full => (60, 60, 900),
    };
    let reps = 6;
    out.push_str(&format!(
        "\nRoad network ({cols}x{rows} jittered grid, {sites_n} sites): \
         World::apply(NetSiteDelta) vs publish(with_sites)\n"
    ));
    out.push_str(&format!(
        "{:<8} {:>13} {:>13} {:>9}\n",
        "delta", "apply_us", "rebuild_us", "speedup"
    ));
    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols,
                rows,
                ..GridConfig::default()
            },
            5,
        )
        .expect("valid grid"),
    );
    let sites =
        insq_roadnet::SiteSet::new(&net, random_site_vertices(&net, sites_n, 11).unwrap()).unwrap();
    let world = World::new(NetworkWorld::build(Arc::clone(&net), sites));

    let t0 = Instant::now();
    for _ in 0..reps {
        let (_, snap) = world.snapshot();
        world.publish(snap.with_sites((*snap.sites).clone()));
    }
    let rebuild_us = t0.elapsed().as_secs_f64() * 1e6 / reps as f64;

    for &d in &[1usize, 8, 32] {
        let mut rng = SplitMix64::new(0xF0 + d as u64);
        let mut total = Duration::ZERO;
        for _ in 0..reps {
            let (_, snap) = world.snapshot();
            let mut delta = NetSiteDelta::default();
            let mut used = std::collections::BTreeSet::new();
            while used.len() < d {
                used.insert(SiteIdx(rng.below(snap.sites.len()) as u32));
            }
            delta.removed = used.into_iter().collect();
            while delta.added.len() < d {
                let v = VertexId(rng.below(net.num_vertices()) as u32);
                if snap.sites.site_at(v).is_none() && !delta.added.contains(&v) {
                    delta.added.push(v);
                }
            }
            let delta = NetDelta::from(delta);
            let t0 = Instant::now();
            world.apply(&delta).expect("valid delta");
            total += t0.elapsed();
        }
        let apply_us = total.as_secs_f64() * 1e6 / reps as f64;
        out.push_str(&format!(
            "{:<8} {:>13.1} {:>13.1} {:>8.1}x\n",
            d,
            apply_us,
            rebuild_us,
            rebuild_us / apply_us
        ));
        runs.push(obj([
            ("section", "network_delta".into()),
            ("n", sites_n.into()),
            ("delta", d.into()),
            ("apply_us", apply_us.into()),
            ("rebuild_us", rebuild_us.into()),
            ("speedup", (rebuild_us / apply_us).into()),
        ]));
    }
}

/// Returns the apply-mode fleet cost in us per query-tick (the
/// experiment's headline `us_per_tick`).
fn stream_section(effort: Effort, out: &mut String, runs: &mut Vec<Json>) -> f64 {
    let clients = match effort {
        Effort::Quick => 200usize,
        Effort::Full => 1_000,
    };
    let ticks = effort.ticks(200);
    let every = 5usize;
    let sc = FleetScenario {
        clients,
        n: 10_000,
        k: 5,
        ticks,
        updates: Vec::new(),
        seed: 91,
        ..Default::default()
    };
    out.push_str(&format!(
        "\nFleet stream: {clients} clients, n=10000, a d=8 churn update every {every} ticks\n"
    ));
    out.push_str(&format!(
        "{:<10} {:>12} {:>14} {:>14}\n",
        "mode", "kticks/s", "mean_upd_us", "max_upd_us"
    ));
    let idx = Arc::new(VorTree::build(sc.points(0), sc.clip_window()).expect("valid data"));
    let trajs: Vec<Trajectory> = (0..clients).map(|c| sc.client_trajectory(c)).collect();

    let mut apply_us_per_tick = 0.0;
    for mode in ["apply", "publish"] {
        let world = Arc::new(World::from_arc(Arc::clone(&idx)));
        let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
            FleetEngine::new(Arc::clone(&world), FleetConfig::with_threads(2));
        for _ in 0..clients {
            fleet.register(
                InsFleetQuery::new(&world, InsConfig::new(sc.k, sc.rho)).expect("valid config"),
            );
        }
        let mut rng = SplitMix64::new(0xAB);
        let mut upd: Vec<Duration> = Vec::new();
        let t_run = Instant::now();
        for tick in 0..sc.ticks {
            if tick > 0 && tick % every == 0 {
                let (_, snap) = world.snapshot();
                let delta = churn_delta(&snap, 8, &mut rng);
                let t0 = Instant::now();
                if mode == "apply" {
                    world.apply(&delta).expect("valid delta");
                } else {
                    let mut patched = (*snap).clone();
                    patched.apply(&delta).expect("valid delta");
                    let rebuilt =
                        VorTree::build(patched.voronoi().points().to_vec(), sc.clip_window())
                            .expect("valid data");
                    world.publish(rebuilt);
                }
                upd.push(t0.elapsed());
            }
            fleet.tick_all(|id| sc.position(&trajs[id.index()], id.index(), tick));
        }
        let wall = t_run.elapsed().as_secs_f64();
        let mean = upd.iter().sum::<Duration>().as_secs_f64() * 1e6 / upd.len() as f64;
        let max = upd
            .iter()
            .map(|d| d.as_secs_f64() * 1e6)
            .fold(0.0f64, f64::max);
        let stats = fleet.stats();
        let kticks = stats.total.ticks as f64 / wall / 1e3;
        let us_per_tick = stats.elapsed.as_secs_f64() * 1e6 / stats.total.ticks.max(1) as f64;
        if mode == "apply" {
            apply_us_per_tick = us_per_tick;
        }
        out.push_str(&format!(
            "{:<10} {:>12.1} {:>14.1} {:>14.1}\n",
            mode, kticks, mean, max
        ));
        runs.push(obj([
            ("section", format!("stream_{mode}").as_str().into()),
            ("clients", clients.into()),
            ("kticks_per_s", kticks.into()),
            ("us_per_tick", us_per_tick.into()),
            ("mean_update_us", mean.into()),
            ("max_update_us", max.into()),
        ]));
    }
    apply_us_per_tick
}

/// E-update: incremental index maintenance — delta epochs vs rebuilds.
pub fn e_update(effort: Effort) -> String {
    let mut out = String::new();
    let mut runs: Vec<Json> = Vec::new();
    euclidean_section(effort, &mut out, &mut runs);
    network_section(effort, &mut out, &mut runs);
    let us_per_tick = stream_section(effort, &mut out, &mut runs);
    out.push_str(
        "\nexpected shape: apply latency grows with delta size from a copy-on-write floor\n\
         (a few flat-array memcpys) and stays well under the O(n log n) rebuild (>= 5x\n\
         for small deltas at n >= 10k); in the stream segment both modes answer\n\
         identically (the conformance suites prove bit-equality) but the apply mode's\n\
         update stalls are a fraction of the publish mode's.\n",
    );
    let snapshot = obj([
        ("experiment", "e_update".into()),
        ("effort", effort.name().into()),
        // Headline cost: the apply-mode fleet stream's us per query-tick.
        ("us_per_tick", us_per_tick.into()),
        ("runs", Json::Arr(runs)),
    ]);
    out.push_str(&snapshot_status("e_update", effort, &snapshot));
    out
}
