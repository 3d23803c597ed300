#!/usr/bin/env python3
"""Repository benchmark: host cost and simulated outcome of colibri-sim.

Run from the repository root:

    python3 perfbench/run.py --workload lrsc_zipf_1k --seed 1 --seconds 30 --trace 0

Builds perfbench/ (libcolibri, colibri-sim and the perfbench program) into
.bench_build on first use, then for one workload:

1. cross-checks the simulated outcome against `colibri-sim --json` for the
   same adapter, preset, geometry, window and seed;
2. runs untraced simulations back to back for --seconds host seconds and
   checks every run's self-check and that all runs agree bit for bit; a
   fixed reference kernel timed on the same CPU around each simulation
   gives the host's current speed, and host cost is reported against it;
3. with --trace 1, runs once more with an obs::Recorder attached and checks
   that the traced run changes no simulated outcome and that its registry
   agrees with the window counters.

The last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. See perfbench/README.md for what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
PERFBENCH = BUILD / "perfbench"
COLIBRI_SIM = BUILD / "colibri" / "colibri-sim"
WORKLOADS = ("lrsc_zipf_1k", "colibri_zipf_1k", "table_rw_4k")
# Per-layer metrics the traced run computes, with their units.
TRACED_UNITS = {
    "arch.net_queue_cycles_per_msg": "cycles/msg",
    "arch.bank_backlog_mean": "cycles",
    "arch.net_req_cycles_mean": "cycles",
    "arch.bank_span_cycles_mean": "cycles",
    "arch.bank_span_cycles_p99": "cycles",
    "arch.net_resp_cycles_mean": "cycles",
    "atomics.sc_success_ratio": "ratio",
    "atomics.lr_fail_ratio": "ratio",
    "atomics.wakeups_per_op": "wakeups/op",
    "sync.rmw_retries_per_op": "retries/op",
    "obs.trace_bytes_per_op": "B/op",
}
TIMEOUT_S = 150
# setup_s is given in seconds of a host on which the reference kernel takes
# this long (about its median on the baseline host; see README.md, Host
# time), so that it is corrected for the host's speed like wall_norm.
REF_NOMINAL_S = 0.1


class BenchError(Exception):
    """A build or process-level failure: no result is printed. A simulation
    that fails is a result (correct: false), not a BenchError."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no colibri sources under {ROOT}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "colibri-sim", "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True, timeout=840)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def run_lines(cmd):
    """Run a perfbench mode; return its JSON lines."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(
            f"{cmd[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def fingerprint():
    fp = run_lines([str(PERFBENCH), "--fingerprint"])[0]
    del fp["kind"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    fp["commit"] = commit
    if fp["build_type"] != "Release" or not fp["ndebug"]:
        raise BenchError(f"refusing a non-Release build: {fp['build_type']}")
    return fp


def cross_check(workload, seed, sim):
    """Compare one perfbench outcome with `colibri-sim --json`; return the
    list of mismatches (empty = the product agrees)."""
    d = run_lines([str(PERFBENCH), "--describe", workload])[0]
    cmd = [str(COLIBRI_SIM), "--adapter", d["adapter"],
           "--workload", d["preset"],
           "--cores", str(d["cores"]), "--warmup", str(d["warmup"]),
           "--measure", str(d["measure"]), "--seed", str(seed), "--json"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=TIMEOUT_S)
    if proc.returncode != 0:
        return [f"colibri-sim exited {proc.returncode}: {proc.stderr[-500:]}"]
    rep = json.loads(proc.stdout)["runs"][0]["reps"][0]
    c = rep["counters"]
    product = {
        "ops_per_cycle": rep["opsPerCycle"],
        "lat_p50_cycles": rep["opLatency"]["p50"],
        "lat_p99_cycles": rep["opLatency"]["p99"],
        "energy_pj_per_op": rep["energyPerOpPj"],
        "jain_fairness": rep["fairnessJain"],
        "ops_in_window": rep["opsInWindow"],
        "sum_verified": rep["verified"],
        "counters": {
            "instructions": c["instructions"],
            "computeCycles": c["computeCycles"],
            "sleepCycles": c["sleepCycles"],
            "stallCycles": c["stallCycles"],
            "bankAccesses": c["bankAccesses"],
            "netLocalTile": c["netMessages"][0],
            "netSameGroup": c["netMessages"][1],
            "netRemoteGroup": c["netMessages"][2],
            "windowCycles": c["windowCycles"],
            "activeCores": c["activeCores"],
        },
    }
    out = sim["outcome"]
    return [f"colibri-sim {k}={v!r} vs perfbench {out[k]!r}"
            for k, v in product.items() if out[k] != v]


def exact(sim):
    """Everything about a run that must not vary between runs at one seed."""
    return {"events": sim["events"], "heap_frames": sim["heap_frames"],
            "outcome": sim["outcome"]}


def check_traced(traced, ref):
    """The traced run is a pure observer; return how it was not."""
    c = ref["outcome"]["counters"]
    problems = []
    if traced["outcome"] != ref["outcome"]:
        problems.append("traced run changed the simulated outcome")
    if traced["events"] - traced["probe_events"] != ref["events"]:
        problems.append("traced run changed the event count")
    for k, v in traced["registry"].items():
        if v != c[k]:
            problems.append(f"registry {k}={v} vs window counter {c[k]}")
    if traced["spans_parsed"] != traced["span_count"]:
        problems.append("trace reduction lost spans")
    return problems


def end_to_end(good, proc):
    """The --trace 0 metrics. Without a successful run only the peak RSS
    can be measured; the rest are left out of a failed result."""
    if not good:
        return {"peak_rss_mb": (proc["peak_rss_kb"] / 1024.0, "MB")}
    o = good[0]["outcome"]
    return {
        "wall_norm": (norm_wall(good), "ratio"),
        "setup_s": (REF_NOMINAL_S * statistics.median(
            s["setup_s"] / s["ref_s"] for s in good), "s"),
        "peak_rss_mb": (proc["peak_rss_kb"] / 1024.0, "MB"),
        "ops_per_cycle": (o["ops_per_cycle"], "ops/cycle"),
        "lat_p50_cycles": (o["lat_p50_cycles"], "cycles"),
        "lat_p99_cycles": (o["lat_p99_cycles"], "cycles"),
        "energy_pj_per_op": (o["energy_pj_per_op"], "pJ/op"),
        "jain_fairness": (o["jain_fairness"], "ratio"),
    }


def norm_wall(good):
    """Median host time of one simulation in reference-kernel units."""
    return statistics.median(s["wall_s"] / s["ref_s"] for s in good)


def per_layer(good, traced):
    """The --trace 1 metrics that the successful runs allow: the untraced
    ones need a successful untraced run, the (T) ones a traced run."""
    metrics = {}
    if good:
        metrics.update(untraced_layers(good))
    if traced is not None:
        if good:
            metrics["obs.trace_overhead"] = (
                traced["wall_s"] / traced["ref_s"] / norm_wall(good), "ratio")
        for k, unit in TRACED_UNITS.items():
            metrics[k] = (traced["layers"][k], unit)
    return metrics


def untraced_layers(good):
    ref = good[0]
    o = ref["outcome"]
    c = o["counters"]
    ops = o["ops_in_window"]
    msgs = c["netLocalTile"] + c["netSameGroup"] + c["netRemoteGroup"]
    return {
        "host.wall_s": (statistics.median(s["wall_s"] for s in good), "s"),
        "host.ref_s": (statistics.median(s["ref_s"] for s in good), "s"),
        "host.setup_s": (statistics.median(s["setup_s"] for s in good), "s"),
        "sim.events": (ref["events"], "count"),
        "sim.events_per_op": (ref["events"] / o["total_ops"], "events/op"),
        "sim.events_per_s": (statistics.median(
            s["events"] / s["run_s"] for s in good), "1/s"),
        "sim.heap_frames": (ref["heap_frames"], "count"),
        # perfbench runs ref first unless an earlier run failed.
        "arch.setup_first_s": (ref["setup_s"], "s"),
        "arch.teardown_s": (statistics.median(
            s["teardown_s"] for s in good), "s"),
        "arch.bank_accesses_per_op": (c["bankAccesses"] / ops, "accesses/op"),
        "arch.net_msgs_per_op": (msgs / ops, "msgs/op"),
        "arch.net_remote_frac": (c["netRemoteGroup"] / msgs, "ratio"),
        "core.instr_per_op": (c["instructions"] / ops, "instr/op"),
        "core.stall_cycles_per_op": (c["stallCycles"] / ops, "cycles/op"),
        "core.sleep_frac": (c["sleepCycles"] /
                            (c["windowCycles"] * c["activeCores"]), "ratio"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in an unsigned 64-bit integer")
    bench = [str(PERFBENCH), "--workload", args.workload, "--seed",
             str(args.seed)]

    build()
    fp = fingerprint()
    print("# host: " + " ".join(f"{k}={v}" for k, v in fp.items()))

    lines = run_lines(bench + ["--seconds", str(args.seconds)])
    sims = [l for l in lines if l["kind"] == "sim"]
    proc = next(l for l in lines if l["kind"] == "process")
    good = [s for s in sims if s["ok"]]
    problems = ["simulation failed: " + s["error"] for s in sims if not s["ok"]]
    attempted = len(sims) + 1  # and the cross-check
    failed = len(sims) - len(good)
    if good:
        ref = good[0]
        diverged = sum(1 for s in good if exact(s) != exact(ref))
        if diverged:
            problems.append(
                f"{diverged} runs diverged from the first at one seed")
        failed += diverged
        mismatches = cross_check(args.workload, args.seed, ref)
        if mismatches:
            failed += 1
            problems += mismatches
        walls = [s["wall_s"] for s in good]
        norms = [s["wall_s"] / s["ref_s"] for s in good]
        print(f"# {args.workload} seed={args.seed}: {len(good)} untraced "
              f"runs, wall_s min {min(walls):.4f} max {max(walls):.4f}, "
              f"wall_norm min {min(norms):.4f} max {max(norms):.4f}")
    else:
        failed += 1
        problems.append("cross-check not run: no untraced run succeeded")

    if args.trace == 0:
        metrics = end_to_end(good, proc)
    else:
        attempted += 1
        traced = run_lines(bench + ["--traced"])[0]
        if not traced["ok"]:
            trace_problems = ["traced run failed: " + traced["error"]]
            traced = None
        elif not good:
            trace_problems = ["traced run not checked: no untraced reference"]
        else:
            trace_problems = check_traced(traced, good[0])
        if trace_problems:
            failed += 1
            problems += trace_problems
        metrics = per_layer(good, traced)
        metrics["fail_frac"] = (failed / attempted, "ratio")

    for p in problems:
        print("# FAIL: " + p)
    for k, (v, unit) in metrics.items():
        print(f"# {k} = {v:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError,
            KeyError, StopIteration, ZeroDivisionError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
