"""Shared builders and invariant checkers for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from treexplore import (
    NO_GADGETS,
    ROOT,
    Gadgets,
    RootedTree,
    replay,
    revealer_of,
)
from treexplore.game import _commit_attachments, _commit_moves

# every process draws the same examples: a fixed derivation and no example database
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


def random_tree(n: int, rng: random.Random) -> RootedTree:
    """Uniform random recursive tree on n vertices (parent drawn from earlier ids)."""
    tree = RootedTree()
    for i in range(1, n):
        tree.add_child(rng.randrange(i))
    return tree


def make_path(length: int) -> RootedTree:
    tree = RootedTree()
    v = ROOT
    for _ in range(length):
        v = tree.add_child(v)
    return tree


def make_star(leaves: int) -> RootedTree:
    tree = RootedTree()
    for _ in range(leaves):
        tree.add_child(ROOT)
    return tree


def tree_arrays(tree: RootedTree) -> dict:
    """A snapshot of every array of a tree; children entries compare as lists."""
    return {
        "parent": list(tree.parent),
        "depth": list(tree.depth),
        "branch": list(tree.branch),
        "children": [list(c) for c in tree.children],
        "stats": tree.stats(),
    }


def vertices_at_depth(tree: RootedTree, d: int) -> list[int]:
    """All vertex ids at depth ``d``, ascending: the by-depth bucket rule as a test oracle."""
    return [v for v, depth in enumerate(tree.depth) if depth == d]


def gadgets_of(*rows) -> Gadgets:
    """Gadgets from (at, path_len, leaf_count) rows."""
    return Gadgets(*map(tuple, zip(*rows))) if rows else NO_GADGETS


def apply_round(state, moves, gadgets=NO_GADGETS):
    """One full round in place, moves then attachments, as play and replay commit it."""
    _commit_moves(state, moves)
    _commit_attachments(state, gadgets)
    return state


class SpeedLimit:
    """Replay observer: no vertex is first reached in fewer rounds than its depth."""

    def moved(self, state, rec):
        depth = state.tree.depth
        for v in state.newly_visited:
            assert depth[v] <= state.round, f"vertex {v} visited faster than its depth"

    def attached(self, state, rec, created):
        pass


def assert_transcript_invariants(transcript):
    """Replay-based sanity: replay's own checks, the speed limit each round, then the height floor."""
    state = replay(transcript, revealer_of(transcript), SpeedLimit())
    if transcript.outcome.finished:
        assert transcript.outcome.final_round >= state.tree.height()
    return state


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
