"""Regime parameter pickers: values, feasibility flags, precision stability."""

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from treexplore.adversary import below_budget, least_budget
from treexplore.errors import InfeasibleParamsError
from treexplore.harness.params import (
    pick_params,
    pick_params_thm1,
    pick_params_thm2,
    pick_params_thm3,
    pick_params_thm4,
)


class TestThm1:
    def test_million_vertices_full_team_is_infeasible(self):
        p = pick_params_thm1(10**6, 10**6, 1)
        assert p.m == 1
        assert not p.feasible
        assert "m must exceed 1" in p.violated

    def test_manual_override_hits_the_feasible_point(self):
        p = pick_params_thm1(4096, 541, 1, m=3, L=1)
        assert p.feasible
        assert (p.L, p.m) == (1, 3)
        assert p.details["max_team_size"] == 541

    def test_precondition(self):
        with pytest.raises(InfeasibleParamsError):
            pick_params_thm1(2, 1, 1)


class TestThm2:
    def test_eps_tenth(self):
        p = pick_params_thm2(0.1)
        assert (p.L, p.m) == (1, 5)
        assert p.details["round_bound"] == pytest.approx(10.0)
        assert p.details["binomial_m_2"] == 10
        assert p.details["binomial_covers_bound"]
        assert p.feasible  # 16^5 = 2^20 sits exactly at desk scale

    def test_eps_twentieth_needs_astronomical_n(self):
        p = pick_params_thm2(1 / 20)
        assert p.m == 10
        assert p.details["min_n"] == 16**10
        assert not p.feasible

    def test_eps_out_of_range(self):
        with pytest.raises(InfeasibleParamsError):
            pick_params_thm2(0.25)

    def test_concrete_n_checked_against_preconditions(self):
        p = pick_params_thm2(0.1, n=2**20, k=5)
        assert p.feasible
        p = pick_params_thm2(0.1, n=1000)
        assert not p.feasible


class TestThm3:
    def test_megavertex_tree(self):
        p = pick_params_thm3(2**20)
        assert p.m == 4
        assert not p.feasible  # k = n far exceeds the team bound
        assert p.details["max_team_size"] == 188105

    def test_tiny(self):
        assert pick_params_thm3(16).m == 2

    def test_precondition(self):
        with pytest.raises(InfeasibleParamsError):
            pick_params_thm3(2)


class TestThm4:
    def test_boundary_budget_point(self):
        p = pick_params_thm4(16384, 4, 3)
        assert (p.L, p.m) == (4, 3)
        # n equals L*16^m exactly, but the default linear team overshoots
        assert not p.feasible
        assert p.details["max_team_size"] == 541
        assert p.details["m_within_limit"]

    def test_boundary_point_with_bounded_team(self):
        p = pick_params_thm4(16384, 4, 3, k=541)
        assert p.feasible

    def test_budget_violation(self):
        p = pick_params_thm4(100, 10, 3)
        assert not p.feasible
        assert "16^" in p.violated or "16" in p.violated

    def test_astronomical_m_is_reported_without_the_power(self):
        p = pick_params_thm4(100, 1, 10**11, k=1)
        assert not p.feasible
        assert p.violated == "n >= L*16^m fails: 100 < 1*16^100000000000"

    def test_m_growth_flagged(self):
        p = pick_params_thm4(16384, 1, 9, k=1)
        assert not p.details["m_within_limit"]
        assert not p.feasible


@given(L=st.integers(1, 2**12), m=st.integers(1, 40), delta=st.integers(-(2**9), 2**9), far=st.booleans())
def test_below_budget_matches_the_power(L, m, delta, far):
    n = max(1, (L * 16**m if not far else L * m) + delta)
    assert below_budget(n, L, m) == (n < L * 16**m)


@pytest.mark.parametrize("L,m", [(1, 1), (7, 20), (1, 3571), (1, 3572), (3, 4000), (1, 10**11)])
def test_least_budget_is_the_power_while_it_prints(L, m):
    if m > 10**4:
        assert least_budget(L, m) is None
        return
    try:
        str(L * 16**m)
    except ValueError:  # past the int-to-str digit limit
        assert least_budget(L, m) is None
    else:
        assert least_budget(L, m) == L * 16**m


def test_dispatch():
    assert pick_params("thm2", eps=0.1).theorem == "thm2"
    assert pick_params("thm3", n=16).m == 2
    with pytest.raises(InfeasibleParamsError):
        pick_params("thm9", n=16)


@pytest.mark.parametrize(
    "n,k,c",
    [(10**6, 10**6, 1), (10**7, 10**5, 2), (4096, 541, 1), (65536, 65536, 3)],
)
def test_thm1_m_is_stable_at_256_bit_precision(n, k, c):
    mp.prec = 256
    hi = int(mp.ceil(mp.log(n) / ((8 + c) * mp.log(mp.log(n)))))
    assert pick_params_thm1(n, k, c).m == hi


@pytest.mark.parametrize("n", [16, 1024, 2**20, 10**6, 10**9])
def test_thm3_m_is_stable_at_256_bit_precision(n):
    mp.prec = 256
    hi = int(mp.ceil(mp.sqrt(mp.log(n))))
    assert pick_params_thm3(n).m == hi


@pytest.mark.parametrize("eps", [0.1, 0.05, 0.19, 1 / 30, 0.12])
def test_thm2_m_is_stable_at_256_bit_precision(eps):
    # same snap rule as the implementation: binary rounding of the input
    # may put 1/(2*eps) a hair off a true integer
    mp.prec = 256
    x = 1 / (2 * mpf(eps))
    hi = int(mp.nint(x)) if abs(x - mp.nint(x)) <= mpf("1e-9") * max(1, abs(x)) else int(mp.ceil(x))
    assert pick_params_thm2(eps).m == hi


def _sqrt_log_boundaries():
    """n = ceil(e^(j^2)) and n - 1 for j = 2..11: ln n lies just above j^2 and
    ln(n - 1) just below it, by as little as 10^-52 at j = 11."""
    with mp.workdps(120):
        for j in range(2, 12):
            n = int(mp.ceil(mp.e ** (j * j)))
            yield n, j + 1
            yield n - 1, j


@pytest.mark.parametrize("n,m", list(_sqrt_log_boundaries()))
def test_thm3_and_thm4_decide_m_exactly_at_sqrt_log_boundaries(n, m):
    with mp.workdps(120):
        root = mp.sqrt(mp.log(n))
        assert abs(root - mp.nint(root)) > mpf(10) ** -100  # mpmath decides the ceiling
        assert int(mp.ceil(root)) == m
    assert pick_params_thm3(n).m == m
    assert pick_params_thm4(n, 1, 2, k=1).details["m_limit"] == m


def test_thm3_decides_m_for_a_4000_bit_n():
    n = (1 << 4000) - 12345
    with mp.workdps(1300):  # more digits than n has
        assert pick_params_thm3(n).m == int(mp.ceil(mp.sqrt(mp.log(n)))) == 53


def _ln_over_lnln_boundaries():
    """(c, n, m) for the least integer n above ln n = (8+c) j ln ln n, where m
    is j + 1, and for n - 1, where m is j, at c = 0..3 and j = 2..8. The
    boundary is the larger root of x = (8+c) j ln x, x = ln n. Next to it the
    quotient moves by about 1/n per unit of n, so mpmath needs more digits
    than n has."""
    for c in range(4):
        for j in range(2, 9):
            K = (8 + c) * j
            with mp.workdps(30):
                digits = int(-K * mp.lambertw(-mpf(1) / K, -1) / mp.log(10)) + 60
            with mp.workdps(digits):
                n = int(mp.ceil(mp.exp(-K * mp.lambertw(-mpf(1) / K, -1))))
            yield c, n, j + 1
            yield c, n - 1, j


@pytest.mark.parametrize("c,n,m", list(_ln_over_lnln_boundaries()))
def test_thm1_decides_m_exactly_at_ln_over_lnln_boundaries(c, n, m):
    digits = len(str(n))
    with mp.workdps(digits + 60):
        q = mp.log(n) / ((8 + c) * mp.log(mp.log(n)))
        assert abs(q - mp.nint(q)) > mpf(10) ** -(digits + 30)  # mpmath decides the ceiling
        assert int(mp.ceil(q)) == m
    assert pick_params_thm1(n, 1, c).m == m


def test_thm1_decides_m_for_a_4000_bit_n():
    n = (1 << 4000) - 12345
    with mp.workdps(1300):  # more digits than n has
        assert pick_params_thm1(n, 1, 1).m == int(mp.ceil(mp.log(n) / (9 * mp.log(mp.log(n))))) == 39
