//! The snapshot guard: proves an epoch snapshot is a handful of flat
//! arrays, so the copy-on-write step of a delta epoch costs a fixed
//! number of allocations however many sites the world holds, and a
//! one-site delta repairs locally instead of re-laying-out the index.
//!
//! Pinned, as allocation events (`alloc`/`alloc_zeroed`/`realloc`)
//! under the counting allocator:
//!
//! * `VorTree::clone` makes the same number of events at n = 2,000 and
//!   n = 20,000, and at most [`CLONE_BUDGET`] — a clone copies arrays,
//!   not one heap object per site or R-tree node;
//! * a one-site `World::apply` (remove one site, add one) at n = 20,000
//!   makes at most [`DELTA_BUDGET`] events, clone included;
//! * the same for a one-site delta on a road-network world
//!   (`NetworkWorld`), whose Voronoi neighbor lists share the flat
//!   layout.
//!
//! Everything runs inside ONE `#[test]` so no concurrent test thread can
//! allocate inside a measured window.

use std::sync::Arc;

use insq_geom::{Aabb, Point};
use insq_index::{SiteDelta, VorTree};
use insq_memprobe::CountingAlloc;
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig};
use insq_roadnet::{NetDelta, NetSiteDelta, NetworkWorld, SiteIdx, SiteSet, VertexId};
use insq_server::World;
use insq_voronoi::SiteId;

#[global_allocator]
static PROBE: CountingAlloc = CountingAlloc::new();

/// Most allocation events a `VorTree` clone may make.
const CLONE_BUDGET: u64 = 16;
/// Most allocation events a one-site delta epoch may make.
const DELTA_BUDGET: u64 = 256;

/// Allocation events inside `f`, and its result.
fn events_during<T, F: FnOnce() -> T>(f: F) -> (u64, T) {
    let before = PROBE.events();
    let out = f();
    (PROBE.events() - before, out)
}

fn random_points(n: usize, seed: u64) -> Vec<Point> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 11) as f64) / ((1u64 << 53) as f64)
    };
    (0..n)
        .map(|_| Point::new(next() * 100.0, next() * 100.0))
        .collect()
}

fn euclidean_world(n: usize) -> VorTree {
    let bounds = Aabb::new(Point::new(-10.0, -10.0), Point::new(110.0, 110.0));
    VorTree::build(random_points(n, 0x5a17 + n as u64), bounds).unwrap()
}

#[test]
fn snapshots_clone_flat_and_repair_locally() {
    // ------------------------------------------- VorTree clone: O(1) events
    let small = euclidean_world(2_000);
    let large = euclidean_world(20_000);
    let (small_events, copy) = events_during(|| small.clone());
    drop(copy);
    let (large_events, copy) = events_during(|| large.clone());
    drop(copy);
    assert_eq!(
        small_events, large_events,
        "VorTree clone events grow with n (2,000 sites: {small_events}, 20,000: {large_events})"
    );
    assert!(
        large_events <= CLONE_BUDGET,
        "VorTree clone made {large_events} allocation events"
    );

    // ------------------------------- one-site Euclidean delta epoch
    let world = World::new(large);
    let delta = SiteDelta {
        added: vec![Point::new(41.37, 58.91)],
        removed: vec![SiteId(7_777)],
    };
    let (events, epoch) = events_during(|| world.apply(&delta));
    epoch.unwrap();
    assert!(
        events <= DELTA_BUDGET,
        "one-site World::apply made {events} allocation events"
    );
    assert_eq!(world.snapshot().1.len(), 20_000);

    // --------------------------------- one-site road-network delta epoch
    let net = Arc::new(
        grid_network(
            &GridConfig {
                cols: 64,
                rows: 64,
                ..GridConfig::default()
            },
            5,
        )
        .unwrap(),
    );
    let sites = SiteSet::new(&net, random_site_vertices(&net, 1_500, 6).unwrap()).unwrap();
    let world = World::new(NetworkWorld::build(Arc::clone(&net), sites));
    let snap = world.snapshot().1;
    let free = (0..net.num_vertices() as u32)
        .map(VertexId)
        .find(|&v| snap.sites.site_at(v).is_none())
        .unwrap();
    drop(snap);
    let delta = NetDelta::from(NetSiteDelta {
        added: vec![free],
        removed: vec![SiteIdx(777)],
    });
    let (events, epoch) = events_during(|| world.apply(&delta));
    epoch.unwrap();
    assert!(
        events <= DELTA_BUDGET,
        "one-site NetworkWorld delta made {events} allocation events"
    );
    assert_eq!(world.snapshot().1.len(), 1_500);
}
