#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each end-to-end
metric's spread: the distance between the first and third quartile of
its values as a share of their median, next to the bound that
BENCHMARK.json fixes for it.

    python3 perfbench/spread.py --workloads euclid_fleet,road_rush --seeds 1-10

With --determinism it instead runs each workload twice on one seed and
once on another, and checks that the deterministic metrics repeat bit
for bit on the same seed and that the inputs change with the seed.

Run from the repository root. Exits 1 if a spread reaches its bound, a
run fails, or a determinism check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Metrics that depend only on the seed (with --trace 1 the per-layer
# counts). wire_open's net.bytes_out_per_tick also depends on how many
# session-slots were coalesced, so it is compared only when none were.
DETERMINISTIC = {
    0: ["comm_objects_per_query_tick", "wire_bytes_per_result"],
    1: ["core.valid_frac", "core.swap_frac", "core.rerank_frac", "core.recompute_frac",
        "core.validation_ops_per_tick", "core.search_ops_per_recompute",
        "core.construction_ops_per_recompute", "net.bytes_in_per_tick", "net.bytes_out_per_tick"],
}


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    result = json.loads(lines[-1])
    digest = next((l.split()[-1] for l in lines if "inputs digest" in l), None)
    coalesced = next((l for l in lines if "coalesced" in l), "")
    return result, digest, coalesced


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


args_verbose = False


def spread_check(bench, workloads, seed_list):
    ok = True
    for w in workloads:
        values = {}
        for s in seed_list:
            result, _, _ = run(bench, w, s, 0)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {s}: correct={result['correct']} failed={result['failed']}")
                ok = False
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {w} ({len(seed_list)} seeds)")
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            flag = "" if spread < m["bound"] / 3 else ("  > bound/3" if spread < m["bound"] else "  OVER BOUND")
            if m["name"] != "setup_s" and spread >= m["bound"]:
                ok = False
            print(f"  {m['name']:<30} median {med:>14.4f} {m['unit']:<8} spread {spread:7.4f}  bound {m['bound']}{flag}")
            if args_verbose:
                print("      " + " ".join(f"{x:.6g}" for x in v))
    return ok


def determinism_check(bench, workloads, seed):
    ok = True
    for w in workloads:
        for trace in (0, 1):
            a, da, ca = run(bench, w, seed, trace)
            b, db, cb = run(bench, w, seed, trace)
            c, dc, _ = run(bench, w, seed + 1, trace)
            if da != db or da == dc:
                print(f"{w}: inputs digest {da} / {db} (same seed), {dc} (seed {seed + 1})")
                ok = False
            coalesced = "coalesced" in ca and not (" (0 session" in ca and " (0 session" in cb)
            for name in DETERMINISTIC[trace]:
                if coalesced and name == "net.bytes_out_per_tick":
                    print(f"{w} trace {trace}: {name} skipped: session-slots were coalesced")
                    continue
                x, y = a["metrics"][name]["value"], b["metrics"][name]["value"]
                same = repr(x) == repr(y)
                ok &= same
                print(f"{w} trace {trace}: {name:<36} {x!r:>22} {y!r:>22} {'same' if same else 'DIFFERS'}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--determinism", action="store_true")
    ap.add_argument("--verbose", action="store_true", help="print every run's value")
    args = ap.parse_args()
    global args_verbose
    args_verbose = args.verbose
    bench = json.load(open("BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    if args.determinism:
        ok = determinism_check(bench, workloads, seeds(args.seeds)[0])
    else:
        ok = spread_check(bench, workloads, seeds(args.seeds))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
