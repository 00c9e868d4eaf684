#!/usr/bin/env python3
"""Self-test of the benchmark itself, on the acceptance suite's small instance.

    python3 perfbench/selftest.py

Checks that the output gates pass on true golden values, that a tampered
golden value is reported as a failed cell instead of crashing the run,
that traced wrappers fire and are removed again, and that BENCHMARK.json
names exactly the metrics and workloads run.py reports. Takes a few
seconds; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run
import workloads
from probes import PER_LAYER, Probe, layer_values

SMALL = {"small": workloads.SWEEP_INSTANCES["small"]}
TAMPERED_CELL = ("small", "greedy_frontier", "repaired")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tx = workloads.import_treexplore()
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    with Probe(tx, traced=False) as probe:
        clean = workloads.sweep_pass(tx, probe, instances=SMALL)
    check(clean.cells == 8 and clean.cells_failed == 0, f"small cells pass their gates ({clean.failures})")
    check(probe.calls["play"] == 8 and probe.calls["verify"] == 8, "untraced probe times each cell's play and verify")

    tampered = dict(workloads.SWEEP_GOLDEN)
    finished, final_round, vertices, height = tampered[TAMPERED_CELL]
    tampered[TAMPERED_CELL] = (finished, final_round + 1, vertices, height)
    with Probe(tx, traced=False) as probe:
        bad = workloads.sweep_pass(tx, probe, instances=SMALL, golden=tampered)
    messages = [m for _, m in bad.failures]
    check(
        bad.cells_failed == 1 and len(messages) == 1 and "/".join(TAMPERED_CELL) in messages[0],
        f"a tampered sweep golden value fails exactly that cell: {messages}",
    )

    params = tx.adversary.derive_params(4096, 1, 3, 541, warn=False)
    played = tx.runner.run_adversary_game(params, "greedy_frontier", cap=1000)
    reloaded = tx.game.transcript_from_json(tx.game.transcript_to_json(played))
    report = tx.verify.verify_transcript(reloaded)
    golden = workloads.BigGolden((True, 11, 2412, 3), (15, 0), ((2048, 162), (162, 13)))
    check(workloads.gate_big(golden, played, reloaded, report) == [], "big-cell gate passes on true values")
    problems = workloads.gate_big(replace(golden, checkpoints=((2048, 161), (162, 13))), played, reloaded, report)
    check(len(problems) == 1 and "checkpoint" in problems[0], f"big-cell gate reports a tampered checkpoint: {problems}")

    originals = {name: getattr(tx.game, name) for name in ("_commit_moves", "attach_path_with_star")}
    with Probe(tx, traced=True) as probe:
        traced = workloads.sweep_pass(tx, probe, instances=SMALL)
    layers = layer_values(probe, traced)
    silent = [name for name, _ in PER_LAYER if name.endswith("calls") and layers[name] == 0]
    check(traced.cells_failed == 0 and not silent, f"every traced span fires on the small cells (silent: {silent})")
    check(
        all(getattr(tx.game, name) is fn for name, fn in originals.items()),
        "wrappers are removed when the pass ends",
    )

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check(
        [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
        "BENCHMARK.json lists the workloads run.py runs",
    )
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in spec[key]]
        check(listed == list(table), f"BENCHMARK.json {key} matches run.py names and units")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
