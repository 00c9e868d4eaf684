"""Offline bounds: trivial floor, tour schedule, exact search, reports."""

import csv
import io
import itertools
import random
import time
from fractions import Fraction

import pytest

from treexplore import (
    ROOT,
    attach_path_with_star,
    bounds_report,
    brute_opt,
    decode_tree,
    euler_schedule,
    euler_tour,
    make_path_star,
    trivial_lb,
    validate_schedule,
)
from treexplore.errors import InvalidParameterError, ResourceLimitError
from treexplore.harness.sweep import run_sweep

from conftest import make_path, make_star, random_tree


def reference_tour(tree):
    """The doubled-edge tour with one (vertex, next child index) frame per vertex."""
    tour = [ROOT]
    stack = [(ROOT, 0)]
    while stack:
        v, idx = stack.pop()
        kids = tree.children[v]
        if idx < len(kids):
            stack.append((v, idx + 1))
            c = kids[idx]
            tour.append(c)
            stack.append((c, 0))
        elif stack:
            tour.append(stack[-1][0])
    return tour


def reference_schedule(tree, k):
    """(walks, rounds) built walk by walk; rounds is the longest walk's move count."""
    tour = reference_tour(tree)
    edges = len(tour) - 1
    seg = -(-edges // k) if edges else 0
    walks = []
    for j in range(k):
        lo = j * seg
        hi = min((j + 1) * seg, edges)
        if edges == 0 or lo >= edges:
            walks.append((ROOT,))
            continue
        walk = tree.path_from_root(tour[lo])
        walk.extend(tour[lo + 1 : hi + 1])
        walks.append(tuple(walk))
    return tuple(walks), max(len(w) - 1 for w in walks)


def assert_matches_reference(tree, k):
    assert euler_tour(tree) == reference_tour(tree)
    sched = euler_schedule(tree, k)
    walks, rounds = reference_schedule(tree, k)
    assert sched.rounds == rounds
    assert sched.walks == walks
    assert sched.rounds == max(len(w) - 1 for w in sched.walks)


def _team_sizes(n):
    # n - 1 and n give one-edge and short segments; 2n + 5 leaves trailing agents empty
    return sorted({1, 2, max(1, n - 1), n, 2 * n + 5})


def _bulk_built_tree():
    tree = make_path_star(5, 3)
    attach_path_with_star(tree, 3, 2, 3)  # below a leaf of T_0
    attach_path_with_star(tree, 7, 0, 4)  # a star straight on an inner vertex
    attach_path_with_star(tree, tree.n - 1, 1, 1)  # below a gadget leaf
    return tree


@pytest.mark.parametrize(
    "n,height,k,expected",
    [(9, 2, 4, 2), (2, 1, 5, 1), (101, 3, 10, 10)],
)
def test_trivial_lb(n, height, k, expected):
    assert trivial_lb(n, height, k) == expected


class TestEulerSchedule:
    def test_path_single_agent(self):
        tree = make_path(3)  # n = 4, doubled tour has 6 edges
        sched = euler_schedule(tree, 1)
        assert sched.rounds <= 6
        validate_schedule(tree, sched)

    def test_star_two_agents(self):
        tree = make_star(4)  # n = 5, tour length 8, two segments of 4
        sched = euler_schedule(tree, 2)
        assert sched.rounds <= 5
        validate_schedule(tree, sched)
        covered = set()
        for walk in sched.walks:
            covered.update(walk)
        assert covered == set(range(5))

    def test_single_root(self):
        tree = make_path(0)
        for k in (1, 3):
            sched = euler_schedule(tree, k)
            assert sched.rounds == 0
            validate_schedule(tree, sched)

    def test_tour_shape(self):
        tree = make_star(3)
        assert euler_tour(tree) == [0, 1, 0, 2, 0, 3, 0]

    def test_bound_on_random_trees(self):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randrange(2, 2001)
            tree = random_tree(n, rng)
            height = tree.height()
            for k in (1, 4, 16, n):
                sched = euler_schedule(tree, k)
                assert sched.rounds <= height + -(-(2 * n - 2) // k)
                validate_schedule(tree, sched)


class TestAgainstReference:
    """The tour and the makespan formula agree with walk-by-walk construction."""

    def test_random_trees(self):
        rng = random.Random(4242)
        for _ in range(200):
            n = rng.randrange(1, 120)
            tree = random_tree(n, rng)
            for k in _team_sizes(n) + [rng.randrange(1, 2 * n + 6)]:
                assert_matches_reference(tree, k)

    @pytest.mark.parametrize(
        "tree",
        [make_path(0), make_path(1), make_path(9), make_star(1), make_star(8), _bulk_built_tree()],
        ids=["root", "edge", "path", "one_leaf_star", "star", "bulk_built"],
    )
    def test_shapes(self, tree):
        for k in _team_sizes(tree.n):
            assert_matches_reference(tree, k)

    def test_nonpositive_k_rejected(self):
        for k in (0, -3):
            with pytest.raises(InvalidParameterError):
                euler_schedule(make_star(2), k)
            with pytest.raises(InvalidParameterError):
                trivial_lb(3, 1, k)


# (trivial_lb, euler_ub, ratio_lb_num, ratio_lb_den) of sweep rows, pinned from
# the sweep output of the walk-building schedule; phase_bfs plays k = n
SWEEP_BOUNDS = {
    ("small", "idle", "repaired"): ("5", "12", "", ""),
    ("small", "single_dfs", "repaired"): ("5", "12", "", ""),
    ("small", "phase_bfs", "repaired"): ("3", "4", "3", "2"),
    ("small", "greedy_frontier", "repaired"): ("5", "12", "11", "12"),
    ("small", "idle", "strict"): ("4", "8", "", ""),
    ("small", "single_dfs", "strict"): ("4", "8", "", ""),
    ("small", "phase_bfs", "strict"): ("3", "4", "3", "2"),
    ("small", "greedy_frontier", "strict"): ("4", "8", "7", "8"),
    ("medium", "phase_bfs", "repaired"): ("4", "6", "5", "3"),
}


def test_sweep_bound_columns_pinned():
    explorers = ["idle", "single_dfs", {"name": "phase_bfs", "k": "n"}, "greedy_frontier"]
    specs = {
        "small": ({"n": 4096, "L": 1, "m": 3, "k": 541}, explorers, ["repaired", "strict"], 1000),
        "medium": ({"n": 65536, "L": 1, "m": 4, "k": 5878}, explorers[2:3], ["repaired"], 100),
    }
    got = {}
    for inst, (entry, ex, modes, cap) in specs.items():
        spec = {"revealer": "lemma", "explorers": ex, "grid": [entry], "modes": modes, "caps": [cap]}
        for row in csv.DictReader(io.StringIO(run_sweep(spec))):
            assert row["error"] == ""
            cols = ("trivial_lb", "euler_ub", "ratio_lb_num", "ratio_lb_den")
            got[(inst, row["explorer"], row["mode"])] = tuple(row[c] for c in cols)
    assert got == SWEEP_BOUNDS


def _ordered_brute_opt(tree, k):
    """Breadth-first search over every ordered joint move: the reference for brute_opt."""
    full = (1 << tree.n) - 1
    options = [[v, *([] if p is None else [p]), *tree.children[v]] for v, p in enumerate(tree.parent)]
    frontier = {((ROOT,) * k, 1)}
    seen = set(frontier)
    for t in range(2 * tree.n + 1):
        if any(mask == full for _, mask in frontier):
            return t
        step = set()
        for positions, mask in frontier:
            for joint in itertools.product(*(options[p] for p in positions)):
                state = (tuple(sorted(joint)), mask | sum(1 << v for v in set(joint)))
                if state not in seen:
                    seen.add(state)
                    step.add(state)
        frontier = step
    return None


class TestBruteOpt:
    def test_path(self):
        assert brute_opt(make_path(3), 1) == 3

    def test_star_one_agent(self):
        assert brute_opt(make_star(4), 1) == 7

    def test_star_two_agents(self):
        assert brute_opt(make_star(4), 2) == 3

    def test_cap_exceeded_returns_none(self):
        assert brute_opt(make_star(4), 1, cap=2) is None

    def test_state_limit(self):
        with pytest.raises(ResourceLimitError):
            brute_opt(make_path_star(4, 2), 3, state_limit=50)

    def test_generated_joint_moves_count_against_the_limit(self):
        # 8 agents on a 40-vertex tree with 18 leaves: counting stored states
        # alone let the search run about a minute before it gave up
        tree = random_tree(40, random.Random(3))
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="exceeded 500000 joint moves"):
            brute_opt(tree, 8)
        assert time.perf_counter() - start < 10

    def test_tree_with_leaves(self):
        # bulk-built leaves hold the empty tuple as their children entry
        tree = make_path_star(2, 2)
        attach_path_with_star(tree, 2, 0, 2)
        assert brute_opt(tree, 1) == 2 * (tree.n - 1) - tree.height() == 9
        opt2 = brute_opt(tree, 2)
        report = bounds_report(tree, 2, brute=True)
        assert report.brute_opt == opt2
        assert report.trivial_lb <= opt2 <= report.euler_ub

    def test_crowded_root_moves_as_a_multiset(self):
        # 14 agents on the root: 3^14 ordered joint moves but 120 multisets
        tree = decode_tree(b'{"n": 4, "parent": [null, 0, 0, 1]}')
        assert brute_opt(tree, 14) == 2

    def test_matches_the_ordered_joint_move_search(self):
        rng = random.Random(3)
        for _ in range(60):
            tree = random_tree(rng.randrange(1, 7), rng)
            for k in (1, 2, 3):
                assert brute_opt(tree, k) == _ordered_brute_opt(tree, k)

    def test_sandwich_and_one_agent_identity(self):
        rng = random.Random(99)
        for _ in range(40):
            tree = random_tree(rng.randrange(1, 9), rng)
            stats = tree.stats()
            opt1 = brute_opt(tree, 1)
            assert opt1 == 2 * (stats.n - 1) - stats.root_ecc
            for k in (1, 2):
                opt = brute_opt(tree, k)
                assert trivial_lb(stats.n, stats.height, k) <= opt
                assert opt <= euler_schedule(tree, k).rounds


class TestBoundsReport:
    def test_star_with_online_rounds(self):
        report = bounds_report(make_star(4), 2, online_rounds=3)
        assert report.trivial_lb == 2
        assert report.euler_ub <= 5
        assert report.brute_opt == 3
        assert report.ratio_lb == Fraction(3, report.euler_ub)
        assert report.ratio_lb >= Fraction(3, 5)
        assert report.ratio_estimate == Fraction(3, 2)

    def test_ratios_absent_without_online_rounds(self):
        report = bounds_report(make_star(4), 2)
        assert report.online_rounds is None
        assert report.ratio_lb is None
        assert report.ratio_estimate is None

    def test_brute_skipped_on_large_instances(self):
        report = bounds_report(make_path_star(50, 2), 3)
        assert report.brute_opt is None

    def test_json_shape(self):
        obj = bounds_report(make_star(2), 1, online_rounds=2).to_json_obj()
        assert obj["ratio_lb"] == [1, 2]
        assert obj["brute_opt"] == 3
