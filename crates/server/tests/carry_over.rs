//! Certificate carry-over across epochs: a rebind keeps a query's state
//! exactly when `Space::certificate_survives` proves its kNN and guards
//! unchanged in the new snapshot, and recomputes otherwise.
//!
//! The suite pins three properties:
//!
//! 1. **Exactness** — across random site deltas (insert-only,
//!    remove-only, mixed, multi-removal including the last id) every
//!    query equals brute force at every tick, and a carrying query's kNN
//!    sequence equals that of a twin force-invalidated at every rebind;
//! 2. **Determinism** — the engine's `TickSummary::carried` count and
//!    every result are identical at 1/2/8 threads and match the
//!    hand-driven processors;
//! 3. **Soundness edges** — a swap-remove that renumbers a held guard
//!    never carries, a publish of a permuted rebuild stays exact, and
//!    road networks (which keep the conservative default) never carry.

use std::fmt::Debug;
use std::sync::Arc;

use insq_core::{
    DeltaIndex, Euclidean, InsConfig, InsProcessor, MovingKnn, Network, Processor,
    WeightedEuclidean,
};
use insq_geom::{Aabb, Point, Trajectory};
use insq_index::{SiteDelta, VorTree};
use insq_roadnet::{EdgeId, EdgeWeight, NetDelta, NetSiteDelta, SiteIdx};
use insq_server::{FleetConfig, FleetEngine, InsFleetQuery, SpaceQuery, World};
use insq_voronoi::SiteId;
use insq_workload::{FleetScenario, SpaceWorkload};

const DELTA_EVERY: usize = 6;

fn scenario() -> FleetScenario {
    FleetScenario {
        clients: 90,
        n: 500,
        k: 4,
        ticks: 96,
        updates: Vec::new(),
        speed: 0.4,
        seed: 4242,
        ..Default::default()
    }
}

/// A deterministic uniform stream in `[0, 1)`.
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    }
}

/// The `epoch`-th delta of the schedule over an index of `n` sites,
/// cycling through the four shapes the carry-over rule must survive.
fn delta_for(epoch: usize, n: usize, next: &mut impl FnMut() -> f64) -> SiteDelta {
    let mut removals = |count: usize| -> Vec<SiteId> {
        (0..count)
            .map(|_| SiteId((next() * n as f64) as u32))
            .collect()
    };
    let removed = match epoch % 4 {
        0 => Vec::new(),
        1 => removals(3),
        2 => removals(1),
        // Multi-removal including the last id (no renumbering for it).
        _ => [removals(2), vec![SiteId(n as u32 - 1)]].concat(),
    };
    let added = match epoch % 4 {
        0 => 3,
        2 => 1,
        _ => 0,
    };
    let mut delta = SiteDelta::remove(removed);
    delta.removed.sort_unstable();
    delta.removed.dedup();
    delta.added = (0..added)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect();
    delta
}

fn sorted<T: Ord + Clone>(xs: &[T]) -> Vec<T> {
    let mut v = xs.to_vec();
    v.sort_unstable();
    v
}

/// Everything one run produced, for cross-run comparison.
#[derive(Debug, PartialEq)]
struct Run {
    /// `knn[tick][client]`.
    knn: Vec<Vec<Vec<SiteId>>>,
    rebinds: u64,
    carried: u64,
}

/// The hand-driven reference: per client a carrying processor and a twin
/// force-invalidated at every rebind; both checked against brute force
/// at every tick and against each other.
fn run_processors<S>(sc: &FleetScenario, snapshots: &[Arc<S::Index>]) -> Run
where
    S: SpaceWorkload<Pos = Point, SiteId = SiteId, Fleet = Vec<Trajectory>>,
{
    let fleet = S::make_fleet(sc);
    let cfg = InsConfig::new(sc.k, sc.rho);
    let mut carrying: Vec<Processor<S, Arc<S::Index>>> = (0..sc.clients)
        .map(|_| Processor::new(Arc::clone(&snapshots[0]), cfg).unwrap())
        .collect();
    let mut twins = carrying.clone();
    let mut run = Run {
        knn: Vec::new(),
        rebinds: 0,
        carried: 0,
    };
    for tick in 0..sc.ticks {
        let version = tick / DELTA_EVERY;
        let live = &snapshots[version];
        let mut row = Vec::with_capacity(sc.clients);
        for c in 0..sc.clients {
            let (a, b) = (&mut carrying[c], &mut twins[c]);
            if tick > 0 && tick % DELTA_EVERY == 0 {
                run.rebinds += 1;
                run.carried += u64::from(a.rebind(Arc::clone(live)));
                b.rebind(Arc::clone(live));
                b.invalidate();
            }
            let pos = S::position(sc, &fleet, c, tick);
            a.tick(pos);
            b.tick(pos);
            let got = a.current_knn();
            assert_eq!(
                got,
                b.current_knn(),
                "{}: client {c} diverged from its invalidated twin at tick {tick}",
                S::NAME
            );
            assert_eq!(
                sorted(&got),
                sorted(&S::brute(live, pos, sc.k)),
                "{}: client {c} diverged from brute force at tick {tick}",
                S::NAME
            );
            row.push(got);
        }
        run.knn.push(row);
    }
    run
}

/// The same schedule through a `FleetEngine` fed by `World::apply`.
fn run_fleet<S>(sc: &FleetScenario, deltas: &[SiteDelta], threads: usize) -> Run
where
    S: SpaceWorkload<Pos = Point, SiteId = SiteId, Fleet = Vec<Trajectory>>,
    S::Index: DeltaIndex<Delta = SiteDelta>,
    <S::Index as DeltaIndex>::Error: Debug,
{
    let fleet_state = S::make_fleet(sc);
    let world = Arc::new(World::new(S::build_index(sc, &fleet_state, 0)));
    let mut fleet: FleetEngine<S::Index, SpaceQuery<S>> =
        FleetEngine::new(Arc::clone(&world), FleetConfig { shards: 7, threads });
    for _ in 0..sc.clients {
        fleet.register(SpaceQuery::<S>::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap());
    }
    let mut run = Run {
        knn: Vec::new(),
        rebinds: 0,
        carried: 0,
    };
    for tick in 0..sc.ticks {
        if tick > 0 && tick % DELTA_EVERY == 0 {
            world.apply(&deltas[tick / DELTA_EVERY - 1]).unwrap();
        }
        let summary = fleet.tick_all(|id| S::position(sc, &fleet_state, id.index(), tick));
        assert!(summary.carried <= summary.rebinds);
        run.rebinds += summary.rebinds;
        run.carried += summary.carried;
        let mut row = vec![Vec::new(); sc.clients];
        fleet.for_each_query(|id, q| row[id.index()] = q.current_knn());
        run.knn.push(row);
    }
    run
}

fn carry_over_suite<S>(sc: &FleetScenario)
where
    S: SpaceWorkload<Pos = Point, SiteId = SiteId, Fleet = Vec<Trajectory>>,
    S::Index: DeltaIndex<Delta = SiteDelta>,
    <S::Index as DeltaIndex>::Error: Debug,
{
    // The snapshot chain and the deltas producing it.
    let fleet_state = S::make_fleet(sc);
    let mut snapshots = vec![Arc::new(S::build_index(sc, &fleet_state, 0))];
    let mut deltas = Vec::new();
    let mut next = lcg(sc.seed ^ 0xadd);
    for epoch in 0..(sc.ticks - 1) / DELTA_EVERY {
        let current = snapshots.last().unwrap();
        let delta = delta_for(epoch, S::num_sites(current), &mut next);
        snapshots.push(Arc::new(current.apply_delta(&delta).unwrap()));
        deltas.push(delta);
    }

    let reference = run_processors::<S>(sc, &snapshots);
    let epochs = deltas.len() as u64;
    assert_eq!(reference.rebinds, epochs * sc.clients as u64);
    assert!(
        reference.carried > reference.rebinds / 2,
        "{}: most queries must carry across a small delta ({} of {})",
        S::NAME,
        reference.carried,
        reference.rebinds
    );
    assert!(
        reference.carried < reference.rebinds,
        "{}: some delta must touch a kNN cell, or the fallback goes untested",
        S::NAME
    );

    for threads in [1usize, 2, 8] {
        let fleet = run_fleet::<S>(sc, &deltas, threads);
        assert_eq!(
            fleet,
            reference,
            "{}: the fleet must match the hand-driven processors (threads={threads})",
            S::NAME
        );
    }
}

#[test]
fn euclidean_carry_over_is_exact_across_random_deltas() {
    carry_over_suite::<Euclidean>(&scenario());
}

#[test]
fn weighted_carry_over_is_exact_across_random_deltas() {
    carry_over_suite::<WeightedEuclidean>(&scenario());
}

/// A 10×10 jittered grid in `[0, 100]²`; site 0 and site 99 sit in
/// opposite far corners.
fn grid() -> Vec<Point> {
    let mut next = lcg(99);
    (0..100)
        .map(|i| {
            Point::new(
                5.0 + (i % 10) as f64 * 10.0 + next() * 2.0,
                5.0 + (i / 10) as f64 * 10.0 + next() * 2.0,
            )
        })
        .collect()
}

/// Builds the index over `points`, and a k = 4 query warmed at `q`.
fn warm_query(points: Vec<Point>, q: Point) -> (Arc<VorTree>, InsProcessor<Arc<VorTree>>) {
    let window = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
    let idx = Arc::new(VorTree::build(points, window).unwrap());
    let mut p = InsProcessor::new(Arc::clone(&idx), InsConfig::new(4, 1.6)).unwrap();
    p.tick(q);
    (idx, p)
}

/// Whether `s` is a held guard outside `kNN ∪ I(kNN)`: no kNN neighbor
/// list names it, so only the held-id check can notice it renumbered.
fn is_outer_guard(p: &InsProcessor<Arc<VorTree>>, s: SiteId) -> bool {
    p.held_objects().contains(&s)
        && !p.current_knn().contains(&s)
        && !p.influential_set().contains(&s)
}

#[test]
fn swap_remove_renumbering_a_held_guard_does_not_carry() {
    let q = Point::new(50.7, 51.3);
    // The same delta shape twice: a far-corner site closes and another
    // far-corner site opens. Neither touches a kNN cell.
    let opened = Point::new(97.0, 3.0);

    // Control: removing the last site renumbers nothing, and the query
    // carries.
    let (idx, mut p) = warm_query(grid(), q);
    let outer = p
        .held_objects()
        .iter()
        .copied()
        .find(|&s| is_outer_guard(&p, s))
        .expect("R ∪ I(R) reaches past I(kNN)");
    let corner_last = SiteId(idx.len() as u32 - 1);
    assert!(!p.held_objects().contains(&corner_last));
    let next = Arc::new(
        idx.apply_delta(&SiteDelta {
            added: vec![opened],
            removed: vec![corner_last],
        })
        .unwrap(),
    );
    assert!(
        p.rebind(Arc::clone(&next)),
        "an untouched certificate carries"
    );
    p.tick(q);
    assert_eq!(sorted(&p.current_knn()), sorted(&next.brute_knn(q, 4)));

    // The same site set with that outer guard moved to the last id.
    // Removing the far corner site 0 renumbers the guard to 0, and the
    // insertion refills the guard's old id with the far-away site: every
    // held id is still in range, but one now names a different point.
    let mut pts = grid();
    let g = pts.remove(outer.idx());
    pts.push(g);
    let (idx, mut p) = warm_query(pts, q);
    let last = SiteId(idx.len() as u32 - 1);
    assert!(is_outer_guard(&p, last), "the last site is the outer guard");
    let corner = SiteId(0);
    assert!(!p.held_objects().contains(&corner));
    let next = Arc::new(
        idx.apply_delta(&SiteDelta {
            added: vec![opened],
            removed: vec![corner],
        })
        .unwrap(),
    );
    assert_eq!(next.len(), idx.len());
    assert_eq!(next.point(corner), g, "the guard was renumbered to id 0");
    assert!(
        !p.rebind(Arc::clone(&next)),
        "a renumbered guard voids the certificate"
    );
    p.tick(q);
    assert_eq!(sorted(&p.current_knn()), sorted(&next.brute_knn(q, 4)));
}

#[test]
fn publish_of_a_permuted_rebuild_stays_exact() {
    let sc = scenario();
    let trajs: Vec<Trajectory> = (0..sc.clients).map(|c| sc.client_trajectory(c)).collect();
    let points = sc.points(0);
    let idx0 = Arc::new(VorTree::build(points.clone(), sc.clip_window()).unwrap());
    // Same site set, rebuilt with the last two sites trading ids: a
    // query holding either must recompute, the rest may carry.
    let mut permuted = points;
    let n = permuted.len();
    permuted.swap(n - 2, n - 1);
    let idx1 = Arc::new(VorTree::build(permuted, sc.clip_window()).unwrap());

    let world = Arc::new(World::from_arc(Arc::clone(&idx0)));
    let mut fleet: FleetEngine<VorTree, InsFleetQuery> =
        FleetEngine::new(Arc::clone(&world), FleetConfig::with_threads(2));
    for _ in 0..sc.clients {
        fleet.register(InsFleetQuery::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap());
    }
    let swap_at = 10;
    let mut carried = 0;
    for tick in 0..30 {
        if tick == swap_at {
            world.publish_arc(Arc::clone(&idx1));
        }
        let pos = |c: usize| sc.position(&trajs[c], c, tick);
        let summary = fleet.tick_all(|id| pos(id.index()));
        carried += summary.carried;
        let live = if tick >= swap_at { &idx1 } else { &idx0 };
        fleet.for_each_query(|id, q| {
            assert_eq!(
                sorted(&q.current_knn()),
                sorted(&live.brute_knn(pos(id.index()), sc.k)),
                "query {id:?} at tick {tick}"
            );
        });
    }
    // A publish goes through the same rule as a delta epoch.
    assert!(
        carried > 0 && carried < sc.clients as u64,
        "carried {carried} of {}",
        sc.clients
    );
}

#[test]
fn network_fleets_never_carry() {
    let sc = FleetScenario {
        clients: 24,
        n: 40,
        k: 3,
        ticks: 30,
        speed: 0.2,
        seed: 31,
        ..Default::default()
    };
    let fleet_state = Network::make_fleet(&sc);
    let world = Arc::new(World::new(Network::build_index(&sc, &fleet_state, 0)));
    let mut fleet: FleetEngine<_, SpaceQuery<Network>> =
        FleetEngine::new(Arc::clone(&world), FleetConfig::with_threads(2));
    for _ in 0..sc.clients {
        fleet.register(SpaceQuery::<Network>::new(&world, InsConfig::new(sc.k, sc.rho)).unwrap());
    }
    let mut rebinds = 0;
    for tick in 0..sc.ticks {
        match tick {
            // A one-site churn, a traffic storm, then a full publish.
            10 => {
                let delta = NetDelta::from(NetSiteDelta::remove(vec![SiteIdx(5)]));
                world.apply(&delta).unwrap();
            }
            17 => {
                let (_, snap) = world.snapshot();
                let storm = (0..12)
                    .map(|e| EdgeWeight::scaled(&snap.net, EdgeId(e), 1.8))
                    .collect();
                world
                    .apply(&NetDelta::default().with_weights(storm))
                    .unwrap();
            }
            24 => {
                world.publish(Network::build_index(&sc, &fleet_state, 1));
            }
            _ => {}
        }
        let summary = fleet.tick_all(|id| Network::position(&sc, &fleet_state, id.index(), tick));
        assert_eq!(summary.carried, 0, "road networks keep the default rule");
        assert!(summary.recomputations >= summary.rebinds);
        rebinds += summary.rebinds;
    }
    assert_eq!(rebinds, 3 * sc.clients as u64);
}
