"""Glue that builds and runs complete games from parameter tuples."""

from __future__ import annotations

from ..adversary import AdversaryParams, CheckpointRevealer, FixedTreeRevealer
from ..game import Transcript, play
from ..strategies import make_explorer
from ..tree import RootedTree


def default_round_cap(n: int, height: int) -> int:
    """Cap that comfortably exceeds any sensible run: 4 * (n + height^2)."""
    return 4 * (n + height * height)


def run_adversary_game(
    params: AdversaryParams,
    explorer_name: str,
    cap: int | None = None,
    view_mode: str = "game",
    switch_round: int | None = None,
    observer=None,
) -> Transcript:
    """One game of the named explorer against the checkpoint revealer.

    The explorer plays with ``params.k`` agents. ``switch_round`` only
    matters for idle_then_greedy and defaults to the first checkpoint.
    ``observer`` goes to ``play``.
    """
    if cap is None:
        cap = default_round_cap(params.n, params.L * params.m)
    if switch_round is None and explorer_name == "idle_then_greedy":
        switch_round = params.checkpoints[0] if params.checkpoints else 0
    explorer = make_explorer(explorer_name, params.k, switch_round=switch_round)
    revealer = CheckpointRevealer(params)
    meta = {
        "explorer": explorer.name,
        "revealer": "lemma",
        "mode": params.mode,
        "view": view_mode,
        "n": params.n,
        "L": params.L,
        "m": params.m,
        "k": params.k,
        "cap": cap,
    }
    return play(explorer, revealer, params.k, cap, view_mode=view_mode, params_meta=meta, observer=observer)


def run_fixed_game(
    tree: RootedTree,
    explorer_name: str,
    k: int,
    cap: int | None = None,
    view_mode: str = "game",
    switch_round: int | None = None,
) -> Transcript:
    """One game on a known tree that never grows.

    ``switch_round`` only matters for idle_then_greedy, which needs it:
    a fixed tree has no checkpoint to default to.
    """
    stats = tree.stats()
    if cap is None:
        cap = default_round_cap(stats.n, stats.height)
    explorer = make_explorer(explorer_name, k, switch_round=switch_round)
    revealer = FixedTreeRevealer(tree)
    meta = {
        "explorer": explorer.name,
        "revealer": "fixed",
        "mode": None,
        "view": view_mode,
        "n": stats.n,
        "L": None,
        "m": None,
        "k": k,
        "cap": cap,
    }
    return play(explorer, revealer, k, cap, view_mode=view_mode, params_meta=meta)
