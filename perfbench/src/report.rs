//! The metric catalogue and the result a workload run produces.

use std::collections::BTreeMap;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one; see `perfbench/README.md` for what each means on
/// each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_ticks_per_s", "1/s"),
    ("tick_p50_us", "us"),
    ("tick_p99_us", "us"),
    ("update_p50_us", "us"),
    ("update_p90_us", "us"),
    ("rtt_p50_us", "us"),
    ("rtt_p90_us", "us"),
    ("served_frac", "ratio"),
    ("comm_objects_per_query_tick", "objects"),
    ("wire_bytes_per_result", "bytes"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer a workload bypasses reports
/// 0 for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("workload.late_p99_us", "us"),
    ("index.build_s", "s"),
    ("index.clone_us_p50", "us"),
    ("index.repair_us_p50", "us"),
    ("roadnet.build_s", "s"),
    ("roadnet.clone_us_p50", "us"),
    ("roadnet.repair_us_p50", "us"),
    ("core.valid_frac", "ratio"),
    ("core.swap_frac", "ratio"),
    ("core.rerank_frac", "ratio"),
    ("core.recompute_frac", "ratio"),
    ("core.validation_ops_per_tick", "ops"),
    ("core.search_ops_per_recompute", "ops"),
    ("core.construction_ops_per_recompute", "ops"),
    ("core.valid_ns_p50", "ns"),
    ("core.local_ns_p50", "ns"),
    ("core.recompute_ns_p50", "ns"),
    ("core.bind_ns_p50", "ns"),
    ("core.busy_s", "s"),
    ("server.tick_us_p50", "us"),
    ("server.self_us_per_tick", "us"),
    ("server.rebinds_per_epoch", "count"),
    ("server.publish_us_p50", "us"),
    ("server.speedup_2t", "x"),
    ("net.engine_us_per_tick", "us"),
    ("net.self_us_per_rtt", "us"),
    ("net.encode_ns_per_frame", "ns"),
    ("net.decode_ns_per_frame", "ns"),
    ("net.bytes_in_per_tick", "bytes"),
    ("net.bytes_out_per_tick", "bytes"),
    ("net.epoch_notifies", "count"),
    ("net.ticks_per_slot", "ratio"),
    ("net.buffer_high_water_bytes", "bytes"),
    ("trace.overhead_query_ticks_per_s", "1/s"),
    ("trace.overhead_rtt_p50_us", "us"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: query-ticks or session-slots, plus deltas.
    pub attempted: u64,
    /// Operations that failed: rejected deltas, skipped or unanswered
    /// slots, wrong answers, decode errors, disconnects.
    pub failed: u64,
    /// Wrong answers and failed self-checks; any makes the run fail.
    pub errors: Vec<String>,
    /// Metric value and, for percentiles, the sample count.
    pub metrics: BTreeMap<&'static str, (f64, Option<usize>)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, (value, None));
    }

    /// A percentile (or other statistic) over `n` samples.
    pub fn set_n(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, (value, Some(n)));
    }

    /// Records a wrong answer or failed check.
    pub fn error(&mut self, msg: impl Into<String>) {
        let msg = msg.into();
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }

    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}
