"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. Golden values were
produced by the deterministic runs themselves and are asserted as
regressions; every bound is an exact integer comparison at zero
tolerance unless the criterion states a runtime budget.
"""

import functools
import json
import math
import random
import time

import pytest

from treexplore import (
    brute_opt,
    derive_params,
    euler_schedule,
    fixed_tree_revealer,
    make_explorer,
    max_team_size,
    play,
    trivial_lb,
    validate_schedule,
)
from treexplore.harness.cli import main as cli_main
from treexplore.harness.params import pick_params_thm1, pick_params_thm2, pick_params_thm3
from treexplore.harness.runner import run_adversary_game
from treexplore.harness.verify import verify_transcript

from conftest import random_tree

EXPLORERS = ("idle", "single_dfs", "phase_bfs", "greedy_frontier")

# (n, L, m, k, round cap); phase_bfs always plays the full-team variant k = n
INSTANCES = {
    "small": (4096, 1, 3, 541, 1000),
    "medium": (65536, 1, 4, 5878, 100),
    "long_segments": (16384, 4, 3, 541, 100),
}

RUNTIME_BUDGET = {"small": 1.0, "medium": 10.0, "long_segments": 10.0}

# (finished, final_round, vertices, height) per deterministic run
GOLDEN_RUNS = {
    ("small", "idle"): (False, 1000, 2412, 3),
    ("small", "single_dfs"): (False, 1000, 2412, 3),
    ("small", "phase_bfs"): (True, 6, 2490, 3),
    ("small", "greedy_frontier"): (True, 11, 2412, 3),
    ("medium", "idle"): (False, 100, 38243, 4),
    ("medium", "single_dfs"): (False, 100, 38243, 4),
    ("medium", "phase_bfs"): (True, 10, 39951, 4),
    ("medium", "greedy_frontier"): (True, 16, 38243, 4),
    ("long_segments", "idle"): (False, 100, 10170, 12),
    ("long_segments", "single_dfs"): (False, 100, 10170, 12),
    ("long_segments", "phase_bfs"): (True, 24, 11418, 12),
    ("long_segments", "greedy_frontier"): (False, 100, 10170, 12),
}

GOLDEN_GAP = {
    "strict": (True, 8, 2049, 1),
    "repaired": (True, 12, 2412, 3),
}


def criterion(cid: int, desc: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {cid:2d}] FAIL  {desc}")
                raise
            print(f"\n[criterion {cid:2d}] PASS  {desc}")
            return result

        return run

    return wrap


@pytest.fixture(scope="module")
def lemma_runs():
    """All twelve instance/explorer games, with wall-clock seconds per run."""
    runs = {}
    for inst, (n, L, m, k, cap) in INSTANCES.items():
        for name in EXPLORERS:
            team = n if name == "phase_bfs" else k
            params = derive_params(n, L, m, team, warn=False)
            start = time.perf_counter()
            transcript = run_adversary_game(params, name, cap=cap)
            elapsed = time.perf_counter() - start
            runs[(inst, name)] = (params, transcript, elapsed)
    return runs


def _check_instance(lemma_runs, inst: str):
    n, L, m, k, cap = INSTANCES[inst]
    floor = L * math.comb(m, 2)
    for name in EXPLORERS:
        params, tr, elapsed = lemma_runs[(inst, name)]
        out = tr.outcome
        assert not (out.finished and out.final_round < floor), (
            f"{inst}/{name} finished at {out.final_round} < {floor}"
        )
        assert params.checkpoints == tuple(L * math.comb(i + 1, 2) for i in range(1, m))
        if all(cp.S for cp in tr.checkpoints) and len(tr.checkpoints) == m - 1:
            assert out.final_stats.height == L * m
        golden = GOLDEN_RUNS[(inst, name)]
        assert (out.finished, out.final_round, out.final_stats.n, out.final_stats.height) == golden
        assert out.final_stats.n <= -(-14 * n // 10)  # guaranteed repaired budget
        assert out.final_stats.n <= n  # observed regression: surcharge never overflows n
        assert elapsed < RUNTIME_BUDGET[inst], f"{inst}/{name} took {elapsed:.2f}s"


@criterion(1, "small instance (4096,1,3,541): floor 3, height, budget, <1s per game")
def test_criterion_1_small_instance(lemma_runs):
    _check_instance(lemma_runs, "small")


@criterion(2, "medium instance (65536,1,4,5878): floor 6, checkpoints [1,3,6], claims, <10s")
def test_criterion_2_medium_instance(lemma_runs):
    _check_instance(lemma_runs, "medium")
    for name in EXPLORERS:
        params, tr, _ = lemma_runs[("medium", name)]
        assert params.checkpoints == (1, 3, 6)
        report = verify_transcript(tr)
        assert report.claims_failed == 0


@criterion(3, "long segments (16384,4,3,541): floor 12, height 12 when selections survive")
def test_criterion_3_long_segments(lemma_runs):
    assert max_team_size(16384, 4, 3) == 541  # the recorded team bound
    _check_instance(lemma_runs, "long_segments")


@criterion(4, "claim suite on every transcript: propagation, envelope, heights, root passage")
def test_criterion_4_claim_suite(lemma_runs):
    for (inst, name), (params, tr, _) in lemma_runs.items():
        report = verify_transcript(tr)
        assert report.claims_failed == 0, f"{inst}/{name}: {report.to_json_obj()}"
        n, L, m = params.n, params.L, params.m
        records = {cp.i: cp for cp in tr.checkpoints}
        for i, cp in records.items():
            if i + 1 in records:
                assert len(records[i + 1].K) == len(cp.S), f"{inst}/{name} checkpoint {i}"
            s = len(cp.S)
            assert s**m * (2 * L) ** (m - i) >= n ** (m - i)
            assert s**m * (2 * L) ** (m - i) <= 2 ** (i * m) * n ** (m - i)
        by_name = {}
        for c in report.checks:
            by_name.setdefault(c.name, []).append(c)
        assert all(c.ok for c in by_name["claim1_height_upper"])
        assert all(c.ok for c in by_name["root_passage_floor"])


@criterion(5, "strict mode collapses against idle-then-sweep; repaired mode holds the floor")
def test_criterion_5_strict_vs_repaired_gap(lemma_runs):
    results = {}
    for mode in ("strict", "repaired"):
        params = derive_params(4096, 1, 3, 541, mode=mode)
        tr = run_adversary_game(params, "idle_then_greedy", cap=1000)
        out = tr.outcome
        results[mode] = tr
        assert (out.finished, out.final_round, out.final_stats.n, out.final_stats.height) == GOLDEN_GAP[mode]
    strict_out = results["strict"].outcome
    assert strict_out.finished and strict_out.final_stats.height < 3
    repaired_out = results["repaired"].outcome
    assert repaired_out.final_round >= 3
    assert repaired_out.final_stats.height == 3
    # the strict gap is visible in the verification report as vacuous entries
    strict_report = verify_transcript(results["strict"])
    assert any("vacuous" in c.note for c in strict_report.checks)
    assert verify_transcript(results["repaired"]).claims_failed == 0


@criterion(6, "phase exploration finishes 100 random trees within height^2 rounds, <30s")
def test_criterion_6_phase_bfs_bound():
    rng = random.Random(4242)
    start = time.perf_counter()
    for _ in range(100):
        tree = random_tree(rng.randrange(2, 2001), rng)
        height = tree.height()
        tr = play(
            make_explorer("phase_bfs", tree.n),
            fixed_tree_revealer(tree),
            tree.n,
            height * height + 1,
        )
        assert tr.outcome.finished
        assert tr.outcome.final_round <= height * height
    assert time.perf_counter() - start < 30.0


@criterion(7, "offline sandwich and one-agent identity on 200 random trees, zero tolerance")
def test_criterion_7_offline_sandwich():
    rng = random.Random(777)
    for _ in range(200):
        tree = random_tree(rng.randrange(1, 9), rng)
        stats = tree.stats()
        opt1 = brute_opt(tree, 1)
        assert opt1 == 2 * (stats.n - 1) - stats.root_ecc
        for k in (1, 2):
            opt = brute_opt(tree, k)
            assert trivial_lb(stats.n, stats.height, k) <= opt <= euler_schedule(tree, k).rounds


@criterion(8, "tour schedule bound and validity on 100 random trees, k in {1,4,16,n}")
def test_criterion_8_euler_bound():
    rng = random.Random(31337)
    for _ in range(100):
        n = rng.randrange(2, 2001)
        tree = random_tree(n, rng)
        height = tree.height()
        for k in (1, 4, 16, n):
            sched = euler_schedule(tree, k)
            assert sched.rounds <= height + -(-(2 * n - 2) // k)
            validate_schedule(tree, sched)


@criterion(9, "run, verify, and sweep are byte-identical across repeated invocations")
def test_criterion_9_determinism(tmp_path, capsys):
    run_args = [
        "run", "--explorer", "greedy_frontier", "--revealer", "lemma",
        "--n", "4096", "--L", "1", "--m", "3", "--k", "541", "--cap", "1000",
    ]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(run_args + ["--out", str(a)]) == 0
    assert cli_main(run_args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    capsys.readouterr()
    assert cli_main(["verify", "--transcript", str(a)]) == 0
    first = capsys.readouterr().out
    assert cli_main(["verify", "--transcript", str(a)]) == 0
    second = capsys.readouterr().out
    assert first == second

    spec = tmp_path / "sweep.json"
    spec.write_text(json.dumps({
        "revealer": "lemma",
        "explorers": ["idle", "greedy_frontier"],
        "grid": [{"n": 4096, "L": 1, "m": 3, "k": 541}],
        "modes": ["repaired", "strict"],
        "caps": [60],
    }))
    c1, c2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli_main(["sweep", "--spec", str(spec), "--out", str(c1)]) == 0
    assert cli_main(["sweep", "--spec", str(spec), "--out", str(c2)]) == 0
    assert c1.read_bytes() == c2.read_bytes()


@criterion(10, "regime pickers: thm2(0.1)=(1,5); thm1(1e6,1e6,1) m=1 infeasible; thm3(2^20) m=4")
def test_criterion_10_parameter_pickers():
    p2 = pick_params_thm2(0.1)
    assert (p2.L, p2.m) == (1, 5)
    assert math.comb(p2.m, 2) == 10 >= p2.details["round_bound"]

    p1 = pick_params_thm1(10**6, 10**6, 1)
    assert p1.m == 1
    assert not p1.feasible

    p3 = pick_params_thm3(2**20)
    assert p3.m == 4
    assert not p3.feasible


@criterion(11, "team bound at m = 1000: params --thm 4 at n = 16^1000 and 2*16^1000, <1s each")
def test_criterion_11_team_bound_at_a_huge_m(capsys):
    for n in (16**1000, 2 * 16**1000):
        start = time.perf_counter()
        code = cli_main(["params", "--thm", "4", "--n", str(n), "--D", "1", "--m", "1000", "--k", "1"])
        elapsed = time.perf_counter() - start
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["details"]["max_team_size"] == max_team_size(n, 1, 1000)
        assert elapsed < 1.0, f"n of {n.bit_length()} bits took {elapsed:.2f}s"
