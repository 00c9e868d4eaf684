"""Shared builders and invariant checkers for the test suite."""

from __future__ import annotations

import random

import pytest

from treexplore import ROOT, RootedTree, initial_tree_of, replay
from treexplore.game import _commit_attachments, _commit_moves


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
        "by_depth": [list(b) for b in tree._by_depth],
        "children": [list(c) for c in tree.children],
        "stats": tree.stats(),
    }


def apply_round(state, moves, attachments):
    """One full round in place, moves then attachments, as play and replay commit it."""
    _commit_moves(state, moves)
    _commit_attachments(state, attachments)
    return state


def assert_transcript_invariants(transcript):
    """Replay-based sanity: replay's own checks, then the speed limit and height floor."""
    state = replay(transcript, initial_tree_of(transcript))
    for v in range(state.tree.n):
        fv = state.first_visit[v]
        if fv >= 0:
            assert fv >= state.tree.depth[v], f"vertex {v} visited faster than its depth"
    if transcript.outcome.finished:
        assert transcript.outcome.final_round >= state.tree.height()
    return state


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)
