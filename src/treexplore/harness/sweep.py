"""Grid sweeps producing deterministic CSV summaries.

A sweep spec (JSON) lists explorers, a parameter grid, modes, and round
caps; one row comes out per cell in a fixed nesting order (grid, then
mode, then cap, then explorer). Cells are fully independent of each
other, which keeps the row set reproducible regardless of how they are
scheduled; this implementation runs them sequentially. Cell failures are
recorded in the trailing error column and never abort the sweep.

A lemma cell fills ``claims_passed`` and ``claims_failed`` from the
``verify.Evidence`` that watched its play, with no replay; the ``verify``
command is the one that replays a transcript, which plays its recorded
moves against a fresh revealer and checks the records against it.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from pathlib import Path

from ..adversary import derive_params
from ..errors import InvalidParameterError, TreexploreError
from ..offline import euler_schedule, trivial_lb
from ..tree import decode_tree
from .runner import run_adversary_game, run_fixed_game
from .verify import Evidence, verify_transcript

CSV_COLUMNS = [
    "explorer",
    "revealer",
    "mode",
    "n",
    "L",
    "m",
    "k",
    "finished",
    "final_round",
    "height",
    "vertices",
    "trivial_lb",
    "euler_ub",
    "ratio_lb_num",
    "ratio_lb_den",
    "claims_passed",
    "claims_failed",
    "error",
]


def _spec_list(spec: dict, key: str, default: list) -> list:
    """A list-valued spec field; any other shape stops the sweep before its first cell."""
    value = spec.get(key)
    if value is None:
        return default
    if not isinstance(value, list):
        raise TreexploreError(f"sweep spec field {key!r} must be a list (got {value!r})")
    return value


def _explorer_entries(spec: dict) -> list[tuple[object, object]]:
    """(name, k setting) per explorer; a bad name fails its cells in make_explorer."""
    entries = []
    for e in _spec_list(spec, "explorers", []):
        if isinstance(e, dict):
            entries.append((e.get("name"), e.get("k")))
        else:
            entries.append((e, None))
    return entries


def _resolve_k(k_setting, grid_entry: dict) -> int:
    if k_setting not in (None, "n"):
        try:
            return int(k_setting)
        except (TypeError, ValueError):
            raise InvalidParameterError(f"explorer k {k_setting!r} is neither an integer nor 'n'") from None
    key = "k" if k_setting is None else "n"
    if key not in grid_entry:
        raise InvalidParameterError(f"grid entry {grid_entry} has no {key!r}")
    return grid_entry[key]


def run_sweep(spec: dict, base_dir: Path | None = None) -> str:
    """Execute all cells and return the CSV text (LF line endings)."""
    out = io.StringIO()
    writer = csv.DictWriter(out, CSV_COLUMNS, restval="", lineterminator="\n")
    writer.writeheader()
    revealer = spec.get("revealer", "lemma")
    caps = _spec_list(spec, "caps", []) or [spec.get("cap")]
    view = spec.get("view", "game")
    explorers = _explorer_entries(spec)
    if revealer == "lemma":
        grid, modes = _spec_list(spec, "grid", []), _spec_list(spec, "modes", ["repaired"])
        for grid_entry in grid:
            for mode in modes:
                for cap in caps:
                    for name, k_setting in explorers:
                        writer.writerow(
                            _lemma_cell(grid_entry, mode, cap, name, k_setting, view)
                        )
    elif revealer == "fixed":
        trees, k_values = _spec_list(spec, "trees", []), _spec_list(spec, "k_values", [1])
        for tree_path in trees:
            for k in k_values:
                for cap in caps:
                    for name, _ in explorers:
                        writer.writerow(_fixed_cell(tree_path, base_dir, k, cap, name, view))
    else:
        raise TreexploreError(f"unknown revealer {revealer!r} in sweep spec")
    return out.getvalue()


def _lemma_cell(grid_entry: dict, mode: str, cap, name: str, k_setting, view: str) -> dict:
    row = {"explorer": name, "revealer": "lemma", "mode": mode}
    if not isinstance(grid_entry, dict):
        return {**row, "error": f"grid entry {grid_entry!r} is not an object"}
    n, L, m = grid_entry.get("n"), grid_entry.get("L"), grid_entry.get("m")
    row.update(n=n, L=L, m=m)
    try:
        k = _resolve_k(k_setting, grid_entry)
        params = derive_params(n, L, m, k, mode=mode, warn=False)
        evidence = Evidence(params)
        transcript = run_adversary_game(params, name, cap=cap, view_mode=view, observer=evidence)
        report = verify_transcript(transcript, evidence=evidence)
        claims = {"claims_passed": report.claims_passed, "claims_failed": report.claims_failed}
        return {**row, "k": k, **_result_columns(transcript, k), **claims}
    except TreexploreError as exc:
        return {**row, "k": grid_entry.get("k"), "error": str(exc)}


def _fixed_cell(tree_path, base_dir: Path | None, k: int, cap, name: str, view: str) -> dict:
    row = {"explorer": name, "revealer": "fixed", "k": k}
    try:
        if not isinstance(tree_path, str):
            raise TreexploreError(f"tree path {tree_path!r} is not a string")
        path = Path(tree_path)
        if base_dir is not None and not path.is_absolute():
            path = base_dir / path
        tree = decode_tree(path.read_bytes())
        transcript = run_fixed_game(tree, name, k, cap=cap, view_mode=view)
        return {**row, "n": tree.n, **_result_columns(transcript, k)}
    except (TreexploreError, OSError) as exc:
        return {**row, "error": str(exc)}


def _result_columns(transcript, k: int) -> dict:
    """The columns finished .. ratio_lb_den of one game; a ratio only for a finished game."""
    outcome = transcript.outcome
    stats = outcome.final_stats
    ub = euler_schedule(transcript.final_state.tree, k).rounds
    columns = {
        "finished": str(outcome.finished).lower(),
        "final_round": outcome.final_round,
        "height": stats.height,
        "vertices": stats.n,
        "trivial_lb": trivial_lb(stats.n, stats.height, k),
        "euler_ub": ub,
    }
    if outcome.finished and ub > 0:
        ratio = Fraction(outcome.final_round, ub)
        columns.update(ratio_lb_num=ratio.numerator, ratio_lb_den=ratio.denominator)
    return columns


def load_sweep_spec(path: Path) -> dict:
    """Read a sweep spec; a file that is not a JSON object raises TreexploreError."""
    data = path.read_bytes()
    try:
        spec = json.loads(data)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise TreexploreError(f"sweep spec {path} is not valid JSON: {exc}") from None
    except RecursionError:
        raise TreexploreError(f"sweep spec {path} is not valid JSON: nested too deeply") from None
    if not isinstance(spec, dict):
        raise TreexploreError(f"sweep spec {path} is not a JSON object")
    return spec
