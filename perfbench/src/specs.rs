//! The generated inputs of each workload: data sets, client motion and
//! the delta schedule, all derived from the run's seed. Nothing here is
//! timed as part of a layer; generation time is `workload.gen_s`.

use std::hash::{Hash, Hasher};
use std::sync::Arc;

use insq_core::{DeltaIndex, Euclidean, InsConfig, Network};
use insq_geom::{Point, Trajectory};
use insq_index::{SiteDelta, VorTree};
use insq_roadnet::generators::{grid_network, random_site_vertices, GridConfig, SplitMix64};
use insq_roadnet::{
    NetDelta, NetPosition, NetTrajectory, NetworkWorld, RoadNetwork, SiteSet, VertexId,
};
use insq_voronoi::SiteId;
use insq_workload::{FleetScenario, RushHour};

use crate::layers::thread_cpu_ns;

/// Metric names of the layer that owns a snapshot type.
#[derive(Debug, Clone, Copy)]
pub struct LayerNames {
    pub build_s: &'static str,
    /// Span names.
    pub clone: &'static str,
    pub repair: &'static str,
    /// Metric names.
    pub clone_p50: &'static str,
    pub repair_p50: &'static str,
}

/// An index snapshot whose delta application the benchmark can replay
/// on a copy, split into the copy-on-write clone and the local repair.
pub trait Snapshot:
    DeltaIndex<Error: std::fmt::Debug, Delta: std::fmt::Debug + Send + Sync>
    + Clone
    + Send
    + Sync
    + 'static
{
    const LAYER: LayerNames;

    /// `(clone_ns, repair_ns)` of applying `delta` to a copy of `self`,
    /// in the calling thread's CPU time.
    fn replay_delta(&self, delta: &Self::Delta) -> (u64, u64);
}

/// CPU time since `t0` (a [`thread_cpu_ns`] reading), ns.
fn ns_since(t0: u64) -> u64 {
    thread_cpu_ns() - t0
}

impl Snapshot for VorTree {
    const LAYER: LayerNames = LayerNames {
        build_s: "index.build_s",
        clone: "index.clone",
        repair: "index.repair",
        clone_p50: "index.clone_us_p50",
        repair_p50: "index.repair_us_p50",
    };

    fn replay_delta(&self, delta: &SiteDelta) -> (u64, u64) {
        let t = thread_cpu_ns();
        let mut copy = std::hint::black_box(self.clone());
        let clone_ns = ns_since(t);
        let t = thread_cpu_ns();
        copy.apply(delta)
            .expect("the delta applied to the live world");
        let repair_ns = ns_since(t);
        drop(std::hint::black_box(copy));
        (clone_ns, repair_ns)
    }
}

impl Snapshot for NetworkWorld {
    const LAYER: LayerNames = LayerNames {
        build_s: "roadnet.build_s",
        clone: "roadnet.clone",
        repair: "roadnet.repair",
        clone_p50: "roadnet.clone_us_p50",
        repair_p50: "roadnet.repair_us_p50",
    };

    /// `apply_delta` copies the NVD (and, for a traffic delta, the
    /// network) before repairing; the clone is timed on its own and the
    /// repair is the rest of `apply_delta`. Both are the fastest of
    /// three tries, so the difference is not lost in timer noise.
    fn replay_delta(&self, delta: &NetDelta) -> (u64, u64) {
        let (mut clone_ns, mut apply_ns) = (u64::MAX, u64::MAX);
        for _ in 0..3 {
            let t = thread_cpu_ns();
            let copies = std::hint::black_box((
                (*self.nvd).clone(),
                (!delta.weights.is_empty()).then(|| (*self.net).clone()),
            ));
            clone_ns = clone_ns.min(ns_since(t));
            drop(copies);
            let t = thread_cpu_ns();
            let next = std::hint::black_box(
                self.apply_delta(delta)
                    .expect("the delta applied to the live world"),
            );
            apply_ns = apply_ns.min(ns_since(t));
            drop(next);
        }
        (clone_ns, apply_ns.saturating_sub(clone_ns))
    }
}

/// A fleet workload's inputs.
pub trait FleetSpec: Sync {
    type S: insq_net::WireSpace<Index = Self::I>;
    type I: Snapshot;

    /// Whether the traced run compares the same ticks on fresh 1-thread
    /// and 2-thread engines (`server.speedup_2t`).
    const SPEEDUP_2T: bool = false;
    /// A delta goes through `World::apply` before every tick divisible
    /// by this.
    const DELTA_EVERY: usize;

    fn clients(&self) -> usize;
    fn cfg(&self) -> InsConfig;
    /// Builds the initial snapshot (timed as the layer's build).
    fn build(&self) -> Self::I;
    /// Every client's position at `tick`, into `out` (client order).
    fn positions(&self, tick: usize, out: &mut Vec<<Self::S as insq_core::Space>::Pos>);
    /// The `j`-th delta of the schedule.
    fn delta(&self, j: usize) -> <Self::I as DeltaIndex>::Delta;

    /// A digest of the generated inputs: the same seed gives the same
    /// digest, another seed another one.
    fn digest(&self) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        let mut pos = Vec::new();
        for tick in 0..3 {
            self.positions(tick, &mut pos);
            format!("{pos:?}").hash(&mut h);
            format!("{:?}", self.delta(tick)).hash(&mut h);
        }
        h.finish()
    }
}

/// Uniform Euclidean sites and the default `FleetScenario` trajectory
/// mix, with one-site deltas (add one, remove one).
#[derive(Debug)]
pub struct Euclid {
    pub sc: FleetScenario,
    trajs: Vec<Trajectory>,
    points: Vec<Point>,
}

impl Euclid {
    pub fn new(seed: u64, clients: usize, n: usize, k: usize) -> Euclid {
        let sc = FleetScenario {
            clients,
            n,
            k,
            rho: 1.6,
            seed,
            ..FleetScenario::default()
        };
        let trajs = (0..clients).map(|c| sc.client_trajectory(c)).collect();
        let points = sc.points(0);
        Euclid { sc, trajs, points }
    }

    pub fn position(&self, client: usize, tick: usize) -> Point {
        self.sc.position(&self.trajs[client], client, tick)
    }

    pub fn cfg(&self) -> InsConfig {
        InsConfig::new(self.sc.k, self.sc.rho)
    }

    pub fn build(&self) -> VorTree {
        VorTree::build(self.points.clone(), self.sc.clip_window())
            .expect("generated sites are valid")
    }

    /// The site count stays `n`: each delta removes one site and adds
    /// one uniform point.
    pub fn delta(&self, j: usize) -> SiteDelta {
        let mut rng = SplitMix64::new(
            self.sc.seed ^ 0xDE17_A000 ^ (j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let space = self.sc.data_space();
        let p = Point::new(
            rng.range(space.min.x, space.max.x),
            rng.range(space.min.y, space.max.y),
        );
        SiteDelta {
            added: vec![p],
            removed: vec![SiteId(rng.below(self.sc.n) as u32)],
        }
    }
}

/// `euclid_fleet`: 4,000 clients over 20,000 uniform sites, k = 8.
#[derive(Debug)]
pub struct EuclidFleet(Euclid);

impl EuclidFleet {
    pub fn new(seed: u64) -> EuclidFleet {
        EuclidFleet(Euclid::new(seed, 4_000, 20_000, 8))
    }
}

impl FleetSpec for EuclidFleet {
    type S = Euclidean;
    type I = VorTree;
    const DELTA_EVERY: usize = 50;

    fn clients(&self) -> usize {
        self.0.sc.clients
    }
    fn cfg(&self) -> InsConfig {
        self.0.cfg()
    }
    fn build(&self) -> VorTree {
        self.0.build()
    }
    fn positions(&self, tick: usize, out: &mut Vec<Point>) {
        out.clear();
        out.extend((0..self.clients()).map(|c| self.0.position(c, tick)));
    }
    fn delta(&self, j: usize) -> SiteDelta {
        self.0.delta(j)
    }
}

/// `road_rush`: 400 hub-bound commuters on a 64x64 jittered grid with
/// V/12 sites, k = 4, and a 48-edge congest/clear storm every 10 ticks.
/// The timed loop runs one engine thread like the others; the parallel
/// tick path is measured by `server.speedup_2t`.
#[derive(Debug)]
pub struct RoadRush {
    rush: RushHour,
    /// The free-flow network: storms are expressed against it and only
    /// scale lengths up, so positions on it stay valid in every epoch.
    net: Arc<RoadNetwork>,
    sites: Vec<VertexId>,
    tours: Vec<NetTrajectory>,
}

const RUSH_SPEED: f64 = 0.12;

impl RoadRush {
    pub fn new(seed: u64) -> RoadRush {
        let rush = RushHour {
            commuters: 400,
            storm_edges: 48,
            peak_factor: 2.5,
            storm_every: 10,
            seed,
        };
        let net = Arc::new(
            grid_network(
                &GridConfig {
                    cols: 64,
                    rows: 64,
                    ..GridConfig::default()
                },
                seed,
            )
            .expect("valid grid"),
        );
        let sites = random_site_vertices(&net, net.num_vertices() / 12, seed ^ 0x5173)
            .expect("enough vertices");
        let tours = (0..rush.commuters)
            .map(|c| rush.commuter_tour(&net, c).expect("connected network"))
            .collect();
        RoadRush {
            rush,
            net,
            sites,
            tours,
        }
    }
}

impl FleetSpec for RoadRush {
    type S = Network;
    type I = NetworkWorld;
    const SPEEDUP_2T: bool = true;
    const DELTA_EVERY: usize = 10;

    fn clients(&self) -> usize {
        self.rush.commuters
    }
    fn cfg(&self) -> InsConfig {
        InsConfig::new(4, 1.6)
    }
    fn build(&self) -> NetworkWorld {
        let sites = SiteSet::new(&self.net, self.sites.clone()).expect("distinct sites");
        NetworkWorld::build(Arc::clone(&self.net), sites)
    }
    fn positions(&self, tick: usize, out: &mut Vec<NetPosition>) {
        out.clear();
        out.extend(self.tours.iter().enumerate().map(|(c, tour)| {
            tour.position_looped(&self.net, RUSH_SPEED * tick as f64 + 0.37 * c as f64)
        }));
    }
    fn delta(&self, j: usize) -> NetDelta {
        self.rush.storm_delta(&self.net, j)
    }
}

/// The in-process twin of `wire_open`: two clients following the
/// schedule's slot positions, a one-site delta every 200 slots.
#[derive(Debug)]
pub struct WireTwin(pub Euclid);

impl FleetSpec for WireTwin {
    type S = Euclidean;
    type I = VorTree;
    const DELTA_EVERY: usize = 200;

    fn clients(&self) -> usize {
        self.0.sc.clients
    }
    fn cfg(&self) -> InsConfig {
        self.0.cfg()
    }
    fn build(&self) -> VorTree {
        self.0.build()
    }
    fn positions(&self, tick: usize, out: &mut Vec<Point>) {
        out.clear();
        out.extend((0..self.clients()).map(|c| self.0.position(c, tick)));
    }
    fn delta(&self, j: usize) -> SiteDelta {
        self.0.delta(j)
    }
}
