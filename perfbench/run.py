#!/usr/bin/env python3
"""treexplore benchmark: fixed workloads, checked outputs, end-to-end and per-layer times.

Run from the repository root:

    python3 perfbench/run.py --workload big-greedy --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py                      # every workload, one process each

One process runs one workload on one thread. It runs a warm-up pass,
then repeats passes over the workload's cells until the next pass would
overrun ``--seconds`` (at least two), and reports medians. Set-up is
measured several times before the first pass and between passes.
Output bytes are compared between all passes of a run. End-to-end times
are in reference seconds: wall time scaled by a fixed loop timed around
each part, which divides out the host's speed (see perfbench/README.md).

``--trace 0`` reports the end-to-end metrics with no layer wrappers
installed. ``--trace 1`` alternates untraced and traced passes and
reports the per-layer split. The workloads hold no random input, so
``--seed`` only decides whether the traced or the untraced pass of a
pair goes first.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted`` and
``failed`` count cells over all passes. The exit code is 0 whenever a
result is printed, and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from probes import PER_LAYER, Probe, check_trace, layer_values

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"

SETUP_REPEATS = 5  # before the first pass; more are spread between passes
SETUP_REPEATS_PER_PASS = 2
MIN_MEASURED_PASSES = 2

# (name, unit) in report order; BENCHMARK.json lists the same names
END_TO_END = (
    ("total_s", "s"),
    ("run_s", "s"),
    ("verify_s", "s"),
    ("output_mb", "MB"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", help="sweep-grid, big-greedy, big-idle or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result (passes, environment) as JSON")
    return parser.parse_args(argv)


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "platform": platform.platform(),
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        try:
            head = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            status = subprocess.run(
                ["git", "-C", str(ROOT), "--no-optional-locks", "status", "--porcelain"],
                capture_output=True, text=True, timeout=30, check=True,
            )
        except (OSError, subprocess.SubprocessError):
            pass
        else:
            env["git_commit"] = head.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    return env


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_pass(tx, probe, workload: str):
    if workload == "sweep-grid":
        return workloads.sweep_pass(tx, probe)
    return workloads.big_pass(tx, probe, workload, SCRATCH)


def set_up(workload: str, samples: list):
    """Import treexplore afresh and set up every cell; appends the time taken,
    in reference seconds (see ``workloads.HostSpeed``), to ``samples``."""
    host = workloads.HostSpeed()
    start = perf_counter()
    tx = workloads.import_treexplore()
    workloads.setup(tx, workload)
    samples.append((perf_counter() - start) * host.factor())
    return tx


def one_pass(workload: str, traced: bool, setup_times: list):
    """Set-up samples, then one pass on the freshly imported package."""
    for _ in range(SETUP_REPEATS_PER_PASS):
        tx = set_up(workload, setup_times)
    with Probe(tx, traced=traced) as probe:
        result = run_pass(tx, probe, workload)
    if traced:
        result.layers = layer_values(probe, result)
        check_trace(workload, result)
    else:
        result.layers = {"game.play_s": probe.time["play"]}
    return result


def measure(args, start: float, setup_times: list) -> tuple[object, list, list]:
    """A warm-up pass, then rounds of passes until the next round would end
    more than ``--seconds`` after ``start``; returns (warm-up, untraced, traced).

    The first pass in a process runs up to a third slower than later ones
    (the heap is still growing), so its outputs are checked but its times
    are not reported.
    """
    if args.trace:
        order = (False, True) if args.seed % 2 == 0 else (True, False)
    else:
        order = (False,)
    min_rounds = 1 if args.trace else MIN_MEASURED_PASSES
    warmup = one_pass(args.workload, False, setup_times)
    untraced, traced = [], []
    longest = 0.0
    rounds = 0
    while True:
        round_start = perf_counter()
        for with_layers in order:
            (traced if with_layers else untraced).append(one_pass(args.workload, with_layers, setup_times))
        rounds += 1
        longest = max(longest, perf_counter() - round_start)
        if rounds >= min_rounds and perf_counter() - start + longest > args.seconds:
            return warmup, untraced, traced


def check_repeatability(results: list, traced: list) -> None:
    """Output bytes, and the layer counts of traced passes, must repeat exactly within a run."""
    first = {}
    for r in results:
        for group, (cells, digest) in r.digests.items():
            if first.setdefault(group, digest) != digest:
                r.fail(cells, f"{group}: output bytes differ from an earlier pass")
    counted = [r for r in traced if r.times]
    for r in counted[1:]:
        for name, unit in PER_LAYER:
            if unit == "count" and r.layers[name] != counted[0].layers[name]:
                r.fail(r.cells, f"layer count {name} = {r.layers[name]} != {counted[0].layers[name]} in the first traced pass")


def median_of(results: list, key: str) -> float:
    values = [r.layers[key] for r in results if key in r.layers]
    return statistics.median(values) if values else 0.0


def pass_times(times: dict) -> dict:
    """total_s, run_s and verify_s from part times (see ``workloads.PassResult``)."""
    parts = sorted(times.items())
    return {
        "total_s": sum(v for _, v in parts),
        "run_s": sum(v for k, v in parts if k.startswith("run:")),
        "verify_s": sum(v for k, v in parts if k.startswith("verify:")),
    }


def summarize(args, setup_times: list, untraced: list, traced: list) -> dict:
    """Medians over the measured passes.

    End-to-end times sum the median of each part (cell or stage) rather
    than taking the median of pass totals: a burst of interference on the
    host then slows a few parts of one pass, not the whole sample.
    """
    if not args.trace:
        ok = [r for r in untraced if r.times]
        keys = {k for r in ok for k in r.times}
        medians = {k: statistics.median([r.times[k] for r in ok if k in r.times]) for k in keys}
        metrics = pass_times(medians)
        metrics["output_mb"] = next((r.output_bytes for r in ok), 0) / 1e6
        metrics["peak_rss_mb"] = peak_rss_mib()
        metrics["setup_s"] = statistics.median(setup_times)
        units = dict(END_TO_END)
    else:
        ok = [r for r in traced if r.times]
        metrics = {name: median_of(ok, name) for name, _ in PER_LAYER if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = metrics["game.play_s"] - median_of(
            [r for r in untraced if r.times], "game.play_s"
        )
        units = dict(PER_LAYER)
    return {name: {"value": metrics[name], "unit": units[name]} for name in units}


def report(args, env: dict, setup_times: list, warmup, untraced: list, traced: list) -> dict:
    passes = [("warm-up", warmup)] + [("untraced", r) for r in untraced] + [("traced", r) for r in traced]
    results = [r for _, r in passes]
    check_repeatability(results, traced)
    metrics = summarize(args, setup_times, untraced, traced)
    attempted = sum(r.cells for r in results)
    failed = sum(r.cells_failed for r in results)

    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setup_times)}")
    for i, (kind, r) in enumerate(passes, 1):
        scaled = "  ".join(f"{k}={v:.3f}" for k, v in pass_times(r.times).items())
        wall = "  ".join(f"{k}={v:.3f}" for k, v in pass_times(r.wall).items())
        print(f"pass {i} ({kind}): cells {r.cells} failed {r.cells_failed}  reference {scaled}  wall {wall}")
        for cells, message in r.failures:
            print(f"  FAIL ({cells} cells) {message}")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6f} {m['unit']}")
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.out:
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "env": env,
            "setup_s": setup_times,
            "passes": [
                {"kind": kind, "cells": r.cells, "failed": r.cells_failed, "times": r.times, "wall": r.wall,
                 "layers": r.layers, "failures": [m for _, m in r.failures]}
                for kind, r in passes
            ],
            **summary,
        }
        args.out.write_text(json.dumps(detail, indent=2) + "\n")
    return summary


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is that workload's own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=args.seconds + 600)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exited {proc.returncode} without a result")
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    run_start = perf_counter()
    env = environment()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        tx = set_up(args.workload, setup_times)
    imported = Path(tx.game.__file__).resolve()
    if SRC.resolve() not in imported.parents:
        print(f"treexplore was imported from {imported}, not from {SRC}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    warmup, untraced, traced = measure(args, run_start, setup_times)
    summary = report(args, env, setup_times, warmup, untraced, traced)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    if not (SRC / "treexplore" / "__init__.py").is_file():
        print(f"no package source at {SRC}: run from a full checkout of the repository", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.exit(main())
