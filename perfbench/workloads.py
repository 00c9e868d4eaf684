"""Workloads, golden outputs and one measured pass of each workload.

Nothing here imports treexplore at module level. ``run.py`` imports the
package afresh while it measures set-up, so every function takes the
imported modules as ``tx`` (see ``import_treexplore``).
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import io
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

WORKLOADS = ("sweep-grid", "big-greedy", "big-idle")

SWEEP_EXPLORERS = ("idle", "single_dfs", "phase_bfs", "greedy_frontier")
SWEEP_MODES = ("repaired", "strict")
# instance -> ((n, L, m, k), round cap): the acceptance suite's instances
SWEEP_INSTANCES = {
    "small": ((4096, 1, 3, 541), 1000),
    "medium": ((65536, 1, 4, 5878), 100),
    "long_segments": ((16384, 4, 3, 541), 100),
}
# (instance, explorer, mode) -> (finished, final_round, vertices, height).
# Repaired rows are the acceptance suite's GOLDEN_RUNS; strict rows are
# pinned from the sweep output of the commit that added this benchmark.
SWEEP_GOLDEN = {
    ("small", "idle", "repaired"): (False, 1000, 2412, 3),
    ("small", "single_dfs", "repaired"): (False, 1000, 2412, 3),
    ("small", "phase_bfs", "repaired"): (True, 6, 2490, 3),
    ("small", "greedy_frontier", "repaired"): (True, 11, 2412, 3),
    ("medium", "idle", "repaired"): (False, 100, 38243, 4),
    ("medium", "single_dfs", "repaired"): (False, 100, 38243, 4),
    ("medium", "phase_bfs", "repaired"): (True, 10, 39951, 4),
    ("medium", "greedy_frontier", "repaired"): (True, 16, 38243, 4),
    ("long_segments", "idle", "repaired"): (False, 100, 10170, 12),
    ("long_segments", "single_dfs", "repaired"): (False, 100, 10170, 12),
    ("long_segments", "phase_bfs", "repaired"): (True, 24, 11418, 12),
    ("long_segments", "greedy_frontier", "repaired"): (False, 100, 10170, 12),
    ("small", "idle", "strict"): (False, 1000, 2049, 1),
    ("small", "single_dfs", "strict"): (False, 1000, 2049, 1),
    ("small", "phase_bfs", "strict"): (True, 6, 2490, 3),
    ("small", "greedy_frontier", "strict"): (True, 7, 2049, 1),
    ("medium", "idle", "strict"): (False, 100, 32769, 1),
    ("medium", "single_dfs", "strict"): (False, 100, 32769, 1),
    ("medium", "phase_bfs", "strict"): (True, 10, 39951, 4),
    ("medium", "greedy_frontier", "strict"): (True, 11, 32769, 1),
    ("long_segments", "idle", "strict"): (False, 100, 8679, 7),
    ("long_segments", "single_dfs", "strict"): (False, 100, 8679, 7),
    ("long_segments", "phase_bfs", "strict"): (True, 24, 11418, 12),
    ("long_segments", "greedy_frontier", "strict"): (True, 81, 8679, 7),
}

BIG_INSTANCE = (1 << 20, 1, 4, 50000)  # (n, L, m, k)
BIG_CAP = 100
BIG_EXPLORER = {"big-greedy": "greedy_frontier", "big-idle": "idle"}


@dataclass(frozen=True)
class BigGolden:
    outcome: tuple  # (finished, final_round, vertices, height)
    claims: tuple  # (passed, failed)
    checkpoints: tuple  # (|K_i|, |S_i|) per checkpoint


_BIG_CHECKPOINTS = ((524288, 19484), (19484, 725), (725, 27))
BIG_GOLDEN = {
    "big-greedy": BigGolden((True, 26, 565540, 4), (21, 0), _BIG_CHECKPOINTS),
    "big-idle": BigGolden((False, 100, 565540, 4), (21, 0), _BIG_CHECKPOINTS),
}

_MODULES = (
    "adversary",
    "game",
    "offline",
    "strategies",
    "tree",
    "harness.runner",
    "harness.sweep",
    "harness.verify",
)


def import_treexplore() -> SimpleNamespace:
    """Import treexplore from scratch and return its modules by short name."""
    for name in [m for m in sys.modules if m == "treexplore" or m.startswith("treexplore.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m.rsplit(".", 1)[-1]: importlib.import_module("treexplore." + m) for m in _MODULES}
    )


def setup(tx: SimpleNamespace, workload: str) -> None:
    """Everything a cell does before round 1: parameters, explorer, revealer."""
    if workload == "sweep-grid":
        cells = [
            (explorer, mode, (n, L, m, n if explorer == "phase_bfs" else k))
            for (n, L, m, k), _cap in SWEEP_INSTANCES.values()
            for mode in SWEEP_MODES
            for explorer in SWEEP_EXPLORERS
        ]
    else:
        cells = [(BIG_EXPLORER[workload], "repaired", BIG_INSTANCE)]
    for explorer, mode, (n, L, m, k) in cells:
        params = tx.adversary.derive_params(n, L, m, k, mode=mode, warn=False)
        tx.strategies.make_explorer(explorer, params.k)
        tx.adversary.CheckpointRevealer(params)


# typical host_loop_s() on a 2-vCPU x86-64 Xeon VM with CPython 3.11; it only sets the scale
REFERENCE_LOOP_S = 0.0125


def host_loop_s() -> float:
    """A fixed pure-Python loop with no allocation; its time tracks the host's speed."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return perf_counter() - start


class HostSpeed:
    """Scales wall times to reference seconds with the host loop timed around each part.

    On a shared host the same part can take a quarter more or less wall time
    from one minute to the next, and the fixed loop slows down with it. A
    part's wall time times REFERENCE_LOOP_S over the mean of the loop times
    just before and just after it is what the part would take on a host
    that runs the loop in REFERENCE_LOOP_S.
    """

    def __init__(self) -> None:
        self._before = host_loop_s()

    def factor(self) -> float:
        """Scale for the part that just ended; call once, right after each part."""
        after = host_loop_s()
        scale = 2 * REFERENCE_LOOP_S / (self._before + after)
        self._before = after
        return scale


@dataclass
class PassResult:
    """One pass over a workload's cells: part times, gate results, output digests.

    ``times`` maps ``<kind>:<part>`` to reference seconds and ``wall`` to
    wall seconds, where kind is ``run``, ``verify`` or ``other`` and a part
    is a cell (sweep-grid) or a stage (big workloads). ``run_s`` sums the
    run parts, ``verify_s`` the verify parts and ``total_s`` all of them.
    """

    cells: int
    times: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)  # (cells failed, message)
    digests: dict = field(default_factory=dict)  # output group -> (cells, sha256)
    output_bytes: int = 0
    layers: dict = field(default_factory=dict)

    @property
    def cells_failed(self) -> int:
        return min(self.cells, sum(n for n, _ in self.failures))

    def fail(self, cells: int, message: str) -> None:
        self.failures.append((cells, message))

    def record(self, part: str, seconds: float, scale: float) -> None:
        self.wall[part] = seconds
        self.times[part] = seconds * scale


def current_rss_mib() -> float:
    """Resident set size now, not the high-water mark."""
    try:
        with open("/proc/self/statm") as fh:
            pages = int(fh.read().split()[1])
    except (OSError, IndexError, ValueError):
        return 0.0
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


# -- sweep-grid ----------------------------------------------------------------


def _sweep_spec(n: int, L: int, m: int, k: int, cap: int, explorer: str, mode: str) -> dict:
    return {
        "revealer": "lemma",
        "explorers": [{"name": explorer, "k": "n"} if explorer == "phase_bfs" else explorer],
        "grid": [{"n": n, "L": L, "m": m, "k": k}],
        "modes": [mode],
        "caps": [cap],
    }


def gate_sweep_csv(csv_text: str, cells: list[tuple], golden: dict) -> list[tuple[int, str]]:
    """Compare CSV rows with the golden table; ``cells`` are the (instance, explorer,
    mode) keys that should have a row, in order. Returns (cells failed, message) pairs."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    inst = cells[0][0]
    got = [(inst, r["explorer"], r["mode"]) for r in rows]
    if got != cells:
        return [(len(cells), f"{inst}: rows for {got} != expected {cells}")]
    failures = []
    for cell, row in zip(cells, rows):
        want = golden[cell]
        have = (
            row["finished"] == "true",
            _int_or_none(row["final_round"]),
            _int_or_none(row["vertices"]),
            _int_or_none(row["height"]),
        )
        problems = []
        if row["error"]:
            problems.append(f"error {row['error']!r}")
        if have != want:
            problems.append(f"(finished, final_round, vertices, height) {have} != golden {want}")
        if row["claims_failed"] != "0":
            problems.append(f"claims_failed {row['claims_failed']!r}")
        if problems:
            failures.append((1, f"{'/'.join(cell)}: " + "; ".join(problems)))
    return failures


def _int_or_none(text: str):
    try:
        return int(text)
    except ValueError:
        return None


def sweep_pass(tx, probe, instances=SWEEP_INSTANCES, golden=SWEEP_GOLDEN) -> PassResult:
    """Run ``run_sweep`` once per cell, so each cell is timed on its own, then gate the rows.

    Cells are independent, so the rows of one instance joined under one
    header are the rows a single sweep over that instance writes.
    """
    result = PassResult(cells=0)
    host = HostSpeed()
    for inst, ((n, L, m, k), cap) in instances.items():
        header, rows, ran = None, [], []
        for mode in SWEEP_MODES:
            for explorer in SWEEP_EXPLORERS:
                cell = f"{inst}/{explorer}/{mode}"
                result.cells += 1
                play, verify = probe.time["play"], probe.time["verify"]
                start = perf_counter()
                try:
                    text = tx.sweep.run_sweep(_sweep_spec(n, L, m, k, cap, explorer, mode))
                except Exception as exc:  # one cell failing must not stop the others
                    host.factor()  # the next cell's "before" loop
                    result.fail(1, f"{cell}: run_sweep raised {type(exc).__name__}: {exc}")
                    continue
                wall = perf_counter() - start
                scale = host.factor()
                play = probe.time["play"] - play
                verify = probe.time["verify"] - verify
                result.record(f"run:{cell}", play, scale)
                result.record(f"verify:{cell}", verify, scale)
                result.record(f"other:{cell}", wall - play - verify, scale)
                header, _, row = text.partition("\n")
                rows.append(row)
                ran.append((inst, explorer, mode))
        if not ran:
            continue
        data = "".join([header + "\n"] + rows)
        for failed, message in gate_sweep_csv(data, ran, golden):
            result.fail(failed, message)
        encoded = data.encode()
        result.output_bytes += len(encoded)
        result.digests[inst] = (len(rows), hashlib.sha256(encoded).hexdigest())
    return result


# -- big-greedy and big-idle -------------------------------------------------


def gate_big(golden: BigGolden, played, reloaded, report) -> list[str]:
    """Problems with one big cell's outputs, empty when it matches its golden values."""
    problems = []
    for label, tr in (("played", played), ("reloaded", reloaded)):
        out = tr.outcome
        have = (out.finished, out.final_round, out.final_stats.n, out.final_stats.height)
        if have != golden.outcome:
            problems.append(
                f"{label} (finished, final_round, vertices, height) {have} != golden {golden.outcome}"
            )
    claims = (report.claims_passed, report.claims_failed)
    if claims != golden.claims:
        problems.append(f"claims (passed, failed) {claims} != golden {golden.claims}")
    sizes = tuple((len(c.K), len(c.S)) for c in played.checkpoints)
    if sizes != golden.checkpoints:
        problems.append(f"checkpoint (|K_i|, |S_i|) {sizes} != golden {golden.checkpoints}")
    return problems


def _file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def big_pass(tx, probe, workload: str, scratch: Path) -> PassResult:
    """The calls ``run --out``, ``verify`` and ``offline`` make, on one 2^20 instance.

    Only the package's own calls are timed; hashing the transcript and
    gating the outputs happen between the timed stages.
    """
    result = PassResult(cells=1)
    n, L, m, k = BIG_INSTANCE
    path = scratch / f"{workload}.transcript.json"
    try:
        params = tx.adversary.derive_params(n, L, m, k, warn=False)
        host = HostSpeed()
        start = perf_counter()
        played = probe.play(tx.runner.run_adversary_game, params, BIG_EXPLORER[workload], cap=BIG_CAP)
        result.record("run:play", perf_counter() - start, host.factor())
        start = perf_counter()
        text = tx.game.transcript_to_json(played)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        result.record("run:write", perf_counter() - start, host.factor())
        probe.note("rss_after_write_mib", current_rss_mib())  # the text is still alive here
        del text
        result.output_bytes = path.stat().st_size
        result.digests[workload] = (1, _file_sha256(path))
        start = perf_counter()
        with open(path, "rb") as fh:
            data = fh.read()
        reloaded = tx.game.transcript_from_json(data)
        result.record("verify:read", perf_counter() - start, host.factor())
        del data
        start = perf_counter()
        report = probe.verify(tx.verify.verify_transcript, reloaded)
        result.record("verify:verify", perf_counter() - start, host.factor())
        start = perf_counter()
        probe.bounds(
            tx.offline.bounds_report,
            played.final_state.tree,
            k,
            online_rounds=played.outcome.final_round,
        )
        result.record("other:bounds", perf_counter() - start, host.factor())
    except Exception as exc:  # reported as a failed cell, never a crash
        result.times.clear()
        result.wall.clear()
        result.fail(1, f"{workload}: {type(exc).__name__}: {exc}")
        return result
    finally:
        if path.exists():
            path.unlink()
    for problem in gate_big(BIG_GOLDEN[workload], played, reloaded, report):
        result.fail(1, f"{workload}: {problem}")
    return result
