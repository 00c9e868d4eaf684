"""Offline bounds: trivial floor, tour schedule, exact search, reports."""

import random
from fractions import Fraction

import pytest

from treexplore import (
    attach_path_with_star,
    bounds_report,
    brute_opt,
    euler_schedule,
    euler_tour,
    make_path_star,
    trivial_lb,
    validate_schedule,
)
from treexplore.errors import ResourceLimitError

from conftest import make_path, make_star, random_tree


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

    def test_tree_with_leaves(self):
        # bulk-built leaves hold the empty tuple as their children entry
        tree = make_path_star(2, 2)
        attach_path_with_star(tree, 2, 0, 2)
        assert brute_opt(tree, 1) == 2 * (tree.n - 1) - tree.height() == 9
        opt2 = brute_opt(tree, 2)
        report = bounds_report(tree, 2, brute=True)
        assert report.brute_opt == opt2
        assert report.trivial_lb <= opt2 <= report.euler_ub

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
