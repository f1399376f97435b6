//! Fleet-scale experiment: the `insq-server` engine under load.
//!
//! Sweeps fleet size × worker-thread count over one shared
//! epoch-versioned world, with one mid-run index republish, and reports
//! throughput (query-ticks/s), scaling vs the sequential run, validation
//! cost per tick and the recompute rate — plus a determinism check that
//! every thread count reproduced the sequential run's aggregate counters
//! bit-for-bit.
//!
//! The run loop itself is the space-generic
//! [`crate::space_exp::run_fleet`] instantiated for the Euclidean space;
//! `e_spaces` drives the identical code through every other space.

use std::sync::Arc;

use insq_core::Euclidean;
use insq_server::FleetStats;
use insq_workload::{FleetScenario, SpaceWorkload};

use crate::bench_json::{obj, snapshot_status, Json};
use crate::space_exp::run_fleet;
use crate::Effort;

fn scenario(clients: usize, effort: Effort) -> FleetScenario {
    let ticks = effort.ticks(500);
    FleetScenario {
        clients,
        n: 5_000,
        k: 5,
        ticks,
        updates: vec![ticks / 2],
        seed: 2016,
        ..Default::default()
    }
}

/// E-fleet: multi-query engine throughput and scaling.
pub fn e_fleet(effort: Effort) -> String {
    let fleet_sizes = effort.thin(&[250usize, 1_000, 4_000]);
    let threads = [1usize, 2, 4, 8];

    let mut out = String::from(
        "n=5000 uniform, k=5, rho=1.6, one epoch swap (index republish) mid-run;\n\
         kticks/s = query-ticks processed per second (wall clock, whole run)\n",
    );
    out.push_str(&format!(
        "{:<8} {:>8} {:>10} {:>9} {:>10} {:>10} {:>11}\n",
        "clients", "threads", "kticks/s", "speedup", "val/tick", "rec_rate", "identical"
    ));

    // Fleet totals of the largest sweep cell, in the standard per-method
    // comparison format (one row per thread count).
    let mut totals = insq_sim::Comparison::new();
    let mut cells_json: Vec<Json> = Vec::new();

    for &clients in &fleet_sizes {
        let sc = scenario(clients, effort);
        let trajs = Euclidean::make_fleet(&sc);
        let idx_v0 = Arc::new(Euclidean::build_index(&sc, &trajs, 0));
        let idx_v1 = Arc::new(Euclidean::build_index(&sc, &trajs, 1));

        // Interleaved repeats, best-of per cell: one pass over the whole
        // thread axis per repeat (not N back-to-back runs per cell), so a
        // host that slows down over the sweep penalizes every thread
        // count equally instead of biasing the speedup column; the
        // minimum is the standard noise-robust estimator for a
        // deterministic workload.
        let reps = match effort {
            Effort::Quick => 1,
            Effort::Full => 3,
        };
        let mut meas: Vec<Vec<(FleetStats, f64)>> = vec![Vec::new(); threads.len()];
        for _rep in 0..reps {
            for (ti, &t) in threads.iter().enumerate() {
                let (fleet, wall) = run_fleet::<Euclidean>(&sc, &trajs, &idx_v0, &idx_v1, t);
                meas[ti].push((fleet.stats(), wall));
            }
        }

        let mut baseline: Option<(FleetStats, f64)> = None;
        for (ti, &t) in threads.iter().enumerate() {
            let cell = &meas[ti];
            let (best_stats, _) = cell
                .iter()
                .min_by(|a, b| a.0.elapsed.cmp(&b.0.elapsed))
                .expect("reps >= 1");
            let wall = cell.iter().map(|&(_, w)| w).fold(f64::INFINITY, f64::min);
            let stats = best_stats.clone();
            let kticks = stats.total.ticks as f64 / wall / 1e3;
            let (speedup, identical) = match &baseline {
                None => (1.0, true),
                Some((base, base_wall)) => (
                    base_wall / wall,
                    cell.iter().all(|(s, _)| s.total == base.total),
                ),
            };
            out.push_str(&format!(
                "{:<8} {:>8} {:>10.1} {:>8.2}x {:>10.2} {:>10.4} {:>11}\n",
                clients,
                t,
                kticks,
                speedup,
                stats.validations_per_tick(),
                stats.recompute_rate(),
                if identical { "yes" } else { "NO" },
            ));
            if Some(&clients) == fleet_sizes.last() {
                totals.add_stats(&format!("fleet/{t}t"), &stats.total, stats.elapsed);
            }
            cells_json.push(obj([
                ("clients", clients.into()),
                ("threads", t.into()),
                ("kticks_per_s", kticks.into()),
                ("speedup", speedup.into()),
                (
                    "us_per_tick",
                    (stats.elapsed.as_secs_f64() * 1e6 / stats.total.ticks.max(1) as f64).into(),
                ),
                ("validations_per_tick", stats.validations_per_tick().into()),
                ("recompute_rate", stats.recompute_rate().into()),
                (
                    "comm_objects_per_query_tick",
                    (stats.total.comm_objects as f64 / stats.total.ticks.max(1) as f64).into(),
                ),
                ("identical_to_1_thread", identical.into()),
            ]));
            if baseline.is_none() {
                baseline = Some((stats, wall));
            }
        }
    }

    out.push_str(&format!(
        "\nfleet totals at {} clients (us/tick over engine time only):\n{}",
        fleet_sizes.last().expect("non-empty sweep"),
        totals.to_table()
    ));
    out.push_str(
        "\nexpected shape: throughput grows with threads until shards/memory bandwidth\n\
         saturate (on a single-core host speedup stays <= 1 and the thread axis only\n\
         demonstrates determinism); val/tick and rec_rate are thread-count-invariant\n\
         (the 'identical' column asserts bit-identical aggregate counters vs the\n\
         1-thread run); the epoch swap costs each client exactly one extra\n\
         recomputation.\n",
    );

    let snapshot = obj([
        ("experiment", "e_fleet".into()),
        ("effort", effort.name().into()),
        ("n", 5_000usize.into()),
        ("k", 5usize.into()),
        ("runs", Json::Arr(cells_json)),
    ]);
    out.push_str(&snapshot_status("e_fleet", effort, &snapshot));
    out
}
