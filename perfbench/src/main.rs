//! The INSQ benchmark: runs one named workload from a seed, checks the
//! answers, and prints every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`). The last line of standard output is
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload euclid_fleet --seed 1 --seconds 10 --trace 0
//! ```
//!
//! See `perfbench/README.md` for the workloads and metrics.

mod fleet;
mod layers;
mod report;
mod specs;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER};

const WORKLOADS: &[&str] = &["euclid_fleet", "road_rush", "wire_open"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; known: {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fixes glibc's heap settings for the run. By default the heap top is
/// trimmed and large blocks are mapped on a threshold that adapts to
/// the run's history, so how many page faults an update paid — and on a
/// shared virtual machine their cost varies tenfold — differed between
/// runs of the same code (on a shared 2-vCPU virtual machine,
/// `road_rush` `update_p90_us` fell in two modes, 170-200 and 280-320
/// us). Fixed settings make every run allocate the
/// same way. Returns whether glibc accepted them.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn fix_heap() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` takes two plain integers and is called before
    // this process starts any other thread.
    unsafe { mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 && mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn fix_heap() -> bool {
    false
}

fn main() -> ExitCode {
    let heap_fixed = fix_heap();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    if !heap_fixed {
        report.note("heap settings left at the allocator's defaults");
    }
    let tracer = match args.workload.as_str() {
        "euclid_fleet" => fleet::run(
            specs::EuclidFleet::new,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        "road_rush" => fleet::run(
            specs::RoadRush::new,
            args.seed,
            args.seconds,
            args.trace,
            &mut report,
        ),
        _ => wire::run(args.seed, args.seconds, args.trace, &mut report),
    };
    if let Some(tracer) = tracer {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.tsv", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => report.note(format!(
                "{} spans written to {}",
                tracer.spans().len(),
                path.display()
            )),
            Err(e) => report.error(format!("writing spans to {}: {e}", path.display())),
        }
    }
    let served = (report.attempted - report.failed.min(report.attempted)) as f64
        / report.attempted.max(1) as f64;
    report.set("served_frac", served);

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} seed {} ({} s, trace {})",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &report.notes {
        println!("  {note}");
    }
    let mut fields = Vec::new();
    for &(name, unit) in catalogue {
        let (value, n) = match report.metrics.get(name) {
            Some(&m) => m,
            None if args.trace => (0.0, None),
            None => {
                report.error(format!("metric {name} was not measured"));
                (0.0, None)
            }
        };
        if !value.is_finite() {
            report.error(format!("metric {name} is {value}"));
            continue;
        }
        let samples = match (n, report.metrics.contains_key(name)) {
            (Some(n), _) => format!("  (n={n})"),
            (None, false) => "  (layer bypassed)".to_string(),
            (None, true) => String::new(),
        };
        println!("  {name:<38} {value:>16.4} {unit}{samples}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    for e in &report.errors {
        println!("  ERROR: {e}");
    }
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
