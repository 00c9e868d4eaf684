"""Adversary construction: team bound, selection arithmetic, checkpoints."""

import decimal
import hashlib
import json
import operator
import random
from collections import Counter
from dataclasses import replace
from itertools import compress

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from treexplore import (
    AdversaryParams,
    Alpha,
    CheckpointRevealer,
    GameState,
    derive_params,
    fixed_tree_revealer,
    gadget_spec,
    make_explorer,
    make_path_star,
    max_team_size,
    play,
    replay,
    selection_mask,
    transcript_to_json,
)
from treexplore import adversary
from treexplore.adversary import CheckpointRecord
from treexplore.errors import InfeasibleParamsError, InvalidParameterError
from treexplore.game import NO_GADGETS, _commit_attachments, _commit_moves
from treexplore.harness.runner import run_adversary_game
from treexplore.tree import ROOT, attach_path_with_star, decode_tree, encode_tree

from conftest import gadgets_of, make_path, tree_arrays, vertices_at_depth


def _mp_ceil_snapped(x, guard_bits=190):
    """Ceiling with a snap window for values that are exactly integers.

    The quantities here are m-th roots of rationals; when such a root is
    not an integer it differs from one by far more than 2^-190 at these
    input sizes, so snapping only fires on true integers.
    """
    nearest = mp.nint(x)
    if abs(x - nearest) < mpf(2) ** (-guard_bits):
        return int(nearest)
    return int(mp.ceil(x))


class TestMaxTeamSize:
    # golden values pinned by 256-bit evaluation of n^(1+1/m) / (6L(m+1)^2 (2L)^(1/m))
    @pytest.mark.parametrize(
        "n,L,m,expected",
        [(4096, 1, 3, 541), (65536, 1, 4, 5878), (16384, 4, 3, 541)],
    )
    def test_golden_values(self, n, L, m, expected):
        assert max_team_size(n, L, m) == expected

    @pytest.mark.parametrize("n,L,m", [(4096, 1, 3), (65536, 1, 4), (16384, 4, 3), (2**20, 1, 4)])
    def test_matches_high_precision_oracle(self, n, L, m):
        mp.prec = 256
        val = mpf(n) ** (1 + mpf(1) / m) / (6 * L * (m + 1) ** 2 * mpf(2 * L) ** (mpf(1) / m))
        assert max_team_size(n, L, m) == int(mp.floor(val))

    def test_precondition(self):
        with pytest.raises(InfeasibleParamsError):
            max_team_size(100, 1, 3)

    @staticmethod
    def doubling_search(n, L, m):
        """The search max_team_size used to run, kept as the oracle: double
        hi from 1 until k = hi no longer fits, then bisect."""
        c = 6 * L * (m + 1) ** 2
        rhs = n ** (m + 1)

        def fits(k):
            return (c * k) ** m * 2 * L <= rhs

        hi = 1
        while fits(hi):
            hi *= 2
        lo = hi // 2
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if fits(mid):
                lo = mid
            else:
                hi = mid
        return lo if fits(lo) else 0

    @staticmethod
    def small_grid():
        """(n, L, m) from the least budget up: the budget itself, small
        offsets, perfect-power cases and seeded random n, plus n far past
        the budget, whose root is long next to m."""
        rng = random.Random(44)
        for m in range(1, 7):
            for L in (1, 2, 3, 4, 7):
                least = L * 16**m
                ns = {least, least + 1, least + 47, 2 * least, 4 * least, 48 * L * 16**m}
                ns.update(least + rng.randrange(64 * least) for _ in range(12))
                ns.update(rng.getrandbits(bits) | 1 << bits - 1 for bits in (40 * m, 64 * m))
                for n in sorted(ns):
                    yield n, L, m

    def test_matches_the_doubling_search_on_a_small_grid(self, monkeypatch):
        decimal_roots = []
        decimal_root = adversary._decimal_root

        def counted(n, L, m):
            decimal_roots.append((n, L, m))
            return decimal_root(n, L, m)

        monkeypatch.setattr(adversary, "_decimal_root", counted)
        cases = list(self.small_grid())
        assert len(cases) > 500
        for n, L, m in cases:
            assert max_team_size(n, L, m) == self.doubling_search(n, L, m), (n, L, m)
        assert 0 < len(decimal_roots) < len(cases)  # the grid reaches both roots

    @pytest.mark.parametrize("slack", ["1e-12", "1"])
    def test_decimal_root_matches_the_integer_root(self, monkeypatch, slack):
        # the root itself, since max_team_size's division by 6L(m+1)^2
        # hides most off-by-one roots; a slack of 1 settles every root by
        # the gcd comparison, which then decides both r and r - 1
        monkeypatch.setattr(adversary, "_DECIMAL_SLACK", decimal.Decimal(slack))
        for n, L, m in self.small_grid():
            exact = adversary._iroot(n ** (m + 1) // (2 * L), m)
            assert adversary._decimal_root(n, L, m) == exact, (n, L, m)

    def test_integer_root_matches_the_power_test(self):
        rng = random.Random(8)
        for _ in range(400):
            m = rng.randrange(1, 12)
            q = rng.choice([rng.randrange(2**70), rng.randrange(2**8) ** m, rng.randrange(2**20) ** m - 1])
            r = adversary._iroot(q, m)
            assert r**m <= q < (r + 1) ** m, (q, m)

    @pytest.mark.parametrize("n", [16**1000, 2 * 16**1000], ids=["16^1000", "2*16^1000"])
    def test_long_power_short_root_is_floor_exact(self, n):
        # the doubling search did not end within 18 s at n = 16^400; at
        # 2*16^1000 the root is exactly 2*16^1001 and integers settle it.
        # The oracle's value is at least 2^-32 from an integer, far more
        # than its rounding error, so its floor is exact.
        L, m = 1, 1000
        with mp.workprec(n.bit_length() + 96):
            val = mpf(n) ** (1 + mpf(1) / m) / (6 * L * (m + 1) ** 2 * mpf(2 * L) ** (mpf(1) / m))
            assert abs(val - mp.nint(val)) > mpf(2) ** -32
            expected = int(mp.floor(val))
        assert max_team_size(n, L, m) == expected


class TestDeriveParams:
    def test_small_instance(self):
        p = derive_params(4096, 1, 3, 541)
        assert float(p.alpha) == pytest.approx(0.078745, abs=1e-6)
        assert p.checkpoints == (1, 3)
        assert p.round_floor == 3
        assert p.max_k == 541

    def test_medium_instance(self):
        p = derive_params(65536, 1, 4, 5878)
        assert float(p.alpha) == pytest.approx(0.074325, abs=1e-6)
        assert p.checkpoints == (1, 3, 6)
        assert p.round_floor == 6

    def test_below_minimum_budget(self):
        with pytest.raises(InfeasibleParamsError) as exc:
            derive_params(100, 1, 3, 5)
        assert "16" in str(exc.value)

    def test_oversized_team_warns_but_proceeds(self):
        with pytest.warns(UserWarning, match="exceeds"):
            p = derive_params(4096, 1, 3, 4096)
        assert p.k == 4096

    @pytest.mark.parametrize(
        "n,L,m,checkpoints,floor,horizon",
        [(4096, 1, 3, (1, 3), 3, 6), (65536, 1, 4, (1, 3, 6), 6, 10), (16384, 4, 3, (4, 12), 12, 24)],
    )
    def test_checkpoint_round(self, n, L, m, checkpoints, floor, horizon):
        p = derive_params(n, L, m, 1)
        assert p.checkpoints == checkpoints == tuple(p.checkpoint_round(i) for i in range(1, m))
        assert p.round_floor == floor == p.checkpoint_round(m - 1)
        assert p.checkpoint_round(m) == horizon

    def test_budget_limits(self):
        assert derive_params(4096, 1, 3, 541, mode="strict").budget_limit() == 4096
        assert derive_params(4096, 1, 3, 541, mode="repaired").budget_limit() == 5735


class TestInitialTree:
    def test_small(self):
        t = derive_params(4096, 1, 3, 541).initial_tree()
        assert t.n == 2049
        assert len(t.children[0]) == 2048
        assert t.height() == 1

    def test_paths(self):
        # ceil(100/10) = 10 branches of length 5
        t = make_path_star(-(-100 // 10), 5)
        assert t.n == 51
        assert t.height() == 5

    def test_tiny_rounding(self):
        assert make_path_star(-(-3 // 2), 1).n == 3


def branch_agent_count(state, v):
    """Agents inside v's root branch, read off root paths: the oracle for compute's a-values.

    Agents parked on the root are in no branch and count toward nothing.
    """
    path = state.tree.path_from_root
    return sum(1 for p in state.positions if p != ROOT and path(p)[1] == path(v)[1])


class TestBranchAgentCount:
    """A candidate's a-value is the number of agents inside its branch."""

    def _toy_state(self):
        return GameState(make_path_star(5, 2), 3)

    @staticmethod
    def _a_values(state):
        # T_0 for n = 20, L = 2; candidates sit at depth 2, one per branch: ids 2, 4, 6, 8, 10
        params = AdversaryParams(
            n=20, L=2, m=2, k=state.k, alpha=Alpha(n=1, L=1, m=1),
            checkpoints=(), round_floor=0, mode="repaired", max_k=state.k,
        )
        record = CheckpointRevealer(params).compute(state, 1)
        assert record.K == (2, 4, 6, 8, 10)
        a_values = dict(zip(record.K, record.a))
        assert a_values == {v: branch_agent_count(state, v) for v in a_values}
        return a_values

    def test_all_at_root(self):
        assert set(self._a_values(self._toy_state()).values()) == {0}

    def test_agent_on_vertex_itself(self):
        state = self._toy_state()
        _commit_moves(state, [1, 0, 0])
        _commit_moves(state, [2, 0, 0])
        assert self._a_values(state)[2] == 1

    def test_cousin_in_same_branch_counts(self):
        state = self._toy_state()
        _commit_moves(state, [1, 0, 0])
        # the agent sits at depth 1; candidate 2 shares its branch
        a_values = self._a_values(state)
        assert a_values[2] == 1
        assert a_values[4] == 0

    def test_root_agents_count_nowhere(self):
        state = self._toy_state()
        _commit_moves(state, [1, 3, 0])
        assert sum(self._a_values(state).values()) == 2


def leaf_slots(gadgets, created):
    """Each gadget's star leaves, from its record and the ids its round created:
    ids are dense and a gadget creates its path, then its leaves, so they
    are the last ``leaf_count`` ids of its block."""
    slots, end = [], 0
    for _, path_len, leaf_count in gadgets.rows():
        end += path_len + leaf_count
        slots.append(created[end - leaf_count : end])
    return tuple(slots)


class TestCheckpointCandidates:
    def test_fresh_star_counts_every_branch(self):
        # eligibility is judged against the previous round's visited set,
        # so leaves first reached this round still qualify
        params = derive_params(4096, 1, 3, 541)
        state = GameState(params.initial_tree(), 5)
        _commit_moves(state, [1, 5, 9, 2047, 0])
        K = CheckpointRevealer(params).compute(state, 1).K
        assert K == tuple(range(1, 2049))

    def test_previously_visited_branch_contributes_nothing(self):
        params = derive_params(4096, 1, 3, 541)
        state = GameState(params.initial_tree(), 1)
        _commit_moves(state, [7])   # round 1: visit leaf 7
        _commit_moves(state, [7])   # round 2: stay; leaf 7 is now old news
        K = CheckpointRevealer(params).compute(state, 1).K
        assert 7 not in K
        assert len(K) == 2047

    def test_one_representative_per_branch_smallest_id(self):
        # checkpoint 1 hangs two leaves below each selected path end; at
        # checkpoint 2 each such branch offers its smallest unvisited leaf
        params = derive_params(4096, 1, 3, 541)
        revealer = CheckpointRevealer(params)
        state = GameState(params.initial_tree(), 1)
        _commit_moves(state, [0])
        attachments, record = revealer.reveal(state, 1)
        assert record.S == tuple(range(1, 163))
        leaves = _commit_attachments(state, attachments)
        assert leaf_slots(record.gadgets, leaves) == tuple([v, v + 1] for v in leaves[::2])
        for v in (1, leaves[0], leaves[0]):  # the last round stays, so leaves[0] is old news
            _commit_moves(state, [v])
        K = revealer.compute(state, 2).K
        assert K == (leaves[1], *leaves[2::2])

    def test_out_of_order_compute_raises(self):
        params = derive_params(4096, 1, 3, 541)
        revealer = CheckpointRevealer(params)
        state = GameState(params.initial_tree(), 1)
        with pytest.raises(InvalidParameterError, match="checkpoint 2 cannot follow checkpoint 0"):
            revealer.compute(state, 2)
        revealer.compute(state, 1)
        with pytest.raises(InvalidParameterError, match="checkpoint 3 cannot follow checkpoint 1"):
            revealer.compute(state, 3)
        # checkpoint 1 starts over at any time
        assert revealer.compute(state, 1) == CheckpointRevealer(params).compute(state, 1)


def _select(K, a, alpha):
    """The candidates compute keeps: the ceil(alpha*|K|) fewest-agent ones."""
    return list(compress(K, selection_mask(a, alpha.ceil_mul(len(K)))))


class TestSelectionMask:
    def test_wide_star_selection_count(self):
        params = derive_params(4096, 1, 3, 541)
        K = list(range(1, 2049))
        S = _select(K, (0,) * len(K), params.alpha)
        assert len(S) == 162  # ceil(2048 * (2/4096)^(1/3)), integer-exact
        assert S == K[:162]

    def test_empty(self):
        assert _select([], (), Alpha(4096, 1, 3)) == []
        assert selection_mask((), 0) == bytearray()

    def test_crowded_vertex_selected_last(self):
        # five branches, one agent parked on leaf 3: with a selection
        # fraction of 2/3 the four calm branches win and 3 is left out
        alpha = Alpha(n=3, L=1, m=1)
        K = [1, 2, 3, 4, 5]
        a = (0, 0, 1, 0, 0)
        assert alpha.ceil_mul(5) == 4
        assert _select(K, a, alpha) == [1, 2, 4, 5]

    def test_ties_straddling_the_cut_go_to_earlier_positions(self):
        # ceil(2/3 * 6) = 4: the two calm vertices, then the first two of the
        # three with one agent; the crowded first candidate and the last tie lose
        alpha = Alpha(n=3, L=1, m=1)
        K = [1, 3, 4, 5, 7, 9]
        a = (2, 1, 0, 1, 0, 1)
        assert _select(K, a, alpha) == [3, 4, 5, 7]
        assert selection_mask(a, 4) == bytearray([0, 1, 1, 1, 1, 0])

    def test_all_ties_take_smallest_ids(self):
        params = derive_params(4096, 1, 3, 541)
        K = list(range(100, 2148))
        S = _select(K, (7,) * len(K), params.alpha)
        assert S == K[:162]

    @settings(max_examples=300, deadline=None)
    @given(a=st.lists(st.integers(0, 3), max_size=40), data=st.data())
    @example(a=[], data=None)
    @example(a=[2, 0, 2, 1, 1], data=None)
    def test_matches_a_sort_by_value_then_position(self, a, data):
        # few distinct values, so most draws tie at the cut; count runs to |K| and past it
        count = len(a) if data is None else data.draw(st.integers(0, len(a) + 2))
        mask = selection_mask(tuple(a), count)
        assert len(mask) == len(a) and set(mask) <= {0, 1}
        expected = sorted(sorted(range(len(a)), key=lambda j: (a[j], j))[:count])
        assert list(compress(range(len(a)), mask)) == expected


@settings(max_examples=150, deadline=None)
@given(
    L=st.integers(1, 4),
    m=st.integers(1, 4),
    scale=st.integers(1, 50),
    count_frac=st.fractions(0, 1),
)
def test_selection_ceiling_matches_256bit_arithmetic(L, m, scale, count_frac):
    n = L * 16**m + scale * max(1, L * 16**m // 17)
    count = int(count_frac * n)
    alpha = Alpha(n=n, L=L, m=m)
    mp.prec = 256
    oracle = _mp_ceil_snapped(mpf(count) * (mpf(2 * L) / n) ** (mpf(1) / m))
    assert alpha.ceil_mul(count) == oracle


class TestGadgetSpec:
    def test_strict_counts_agents_verbatim(self):
        params = derive_params(4096, 1, 3, 541, mode="strict")
        assert gadget_spec(1, 3, params) == (0, 6)

    def test_strict_zero_agents_builds_nothing(self):
        params = derive_params(4096, 1, 3, 541, mode="strict")
        assert gadget_spec(1, 0, params) == (0, 0)

    def test_repaired_floors_the_multiplier(self):
        params = derive_params(4096, 1, 3, 541, mode="repaired")
        assert gadget_spec(1, 0, params) == (0, 2)

    def test_long_segments(self):
        params = derive_params(16384, 4, 3, 541, mode="repaired")
        assert gadget_spec(2, 5, params) == (3, 60)


class TestReveal:
    def test_non_checkpoint_rounds_attach_nothing(self):
        params = derive_params(4096, 1, 3, 541)
        revealer = CheckpointRevealer(params)
        state = GameState(params.initial_tree(), 541)
        _commit_moves(state, [0] * 541)
        _commit_moves(state, [0] * 541)
        assert revealer.reveal(state, 2) == (NO_GADGETS, None)

    def test_idle_first_checkpoint(self):
        params = derive_params(4096, 1, 3, 541)
        revealer = CheckpointRevealer(params)
        state = GameState(params.initial_tree(), 541)
        _commit_moves(state, [0] * 541)
        attachments, record = revealer.reveal(state, 1)
        assert len(attachments) == 162
        assert set(attachments.path_len) == {0} and set(attachments.leaf_count) == {2}
        assert record.i == 1
        assert len(record.K) == 2048
        assert record.S == tuple(range(1, 163))
        assert type(record.a) is tuple and set(record.a) == {0}

    def test_toy_star_with_one_crowded_branch(self):
        # five-branch toy, T_0 for n = 10, L = 1: alpha patched so the selection fraction is 2/3
        params = AdversaryParams(
            n=10, L=1, m=2, k=1,
            alpha=Alpha(n=3, L=1, m=1),
            checkpoints=(1,), round_floor=1,
            mode="repaired", max_k=1,
        )
        revealer = CheckpointRevealer(params)
        state = GameState(make_path_star(5, 1), 1)
        _commit_moves(state, [3])
        attachments, record = revealer.reveal(state, 1)
        assert record.K == (1, 2, 3, 4, 5)
        assert record.a == (0, 0, 1, 0, 0)
        assert record.S == (1, 2, 4, 5)
        assert list(attachments.rows()) == [
            (1, 0, 2), (2, 0, 2), (4, 0, 2), (5, 0, 2)
        ]


class TestFixedTreeRevealer:
    def test_constant_tree(self):
        tree = make_path(3)
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(tree), 1, 50)
        assert all(not rec.attachments for rec in tr.rounds)
        assert tr.outcome.final_stats.n == 4

    def test_replay_against_new_explorer_sees_identical_start(self):
        params = derive_params(4096, 1, 3, 541)
        tree = params.initial_tree()
        tr = play(make_explorer("idle", 2), fixed_tree_revealer(tree), 2, 3)
        assert tr.params["tree"]["parent"] == list(tree.parent)

    def test_single_root_ends_immediately(self):
        tr = play(make_explorer("idle", 1), fixed_tree_revealer(make_path(0)), 1, 5)
        assert tr.outcome.finished and tr.outcome.final_round == 0


class TestTreeOwnership:
    """play grows the tree initial_tree returns, so each call must hand out a fresh one."""

    def test_fixed_revealer_never_aliases_the_callers_tree(self):
        tree = make_path_star(3, 2)
        before = tree_arrays(tree)
        revealer = fixed_tree_revealer(tree)
        assert revealer.initial_tree() is not tree
        assert revealer.initial_tree() is not revealer.initial_tree()
        tr = play(make_explorer("single_dfs", 1), revealer, 1, 50)
        assert tr.outcome.finished
        assert tr.final_state.tree is not tree
        attach_path_with_star(tr.final_state.tree, 6, 1, 3)
        assert tree_arrays(tree) == before

    def test_checkpoint_revealer_builds_a_fresh_tree_per_call(self):
        revealer = CheckpointRevealer(derive_params(4096, 1, 3, 541))
        first, second = revealer.initial_tree(), revealer.initial_tree()
        assert first is not second
        attach_path_with_star(first, 1, 0, 2)
        assert second.n == 2049

    @pytest.mark.parametrize("instance", [(4096, 1, 3, 541, 1000), (16384, 4, 3, 541, 100)])
    def test_grown_tree_equals_its_per_vertex_rebuild(self, instance):
        # the game tree grown from a bulk-built T_0 against a one-vertex-at-a-time rebuild
        n, L, m, k, cap = instance
        tr = run_adversary_game(derive_params(n, L, m, k), "greedy_frontier", cap=cap)
        tree = tr.final_state.tree
        assert any(rec.attachments for rec in tr.rounds)
        assert tree_arrays(tree) == tree_arrays(decode_tree(encode_tree(tree)))


def test_reveal_returns_the_computed_record():
    params = derive_params(4096, 1, 3, 541)
    revealer = CheckpointRevealer(params)
    state = GameState(params.initial_tree(), 541)
    _commit_moves(state, [1] * 300 + [0] * 241)
    attachments, record = revealer.reveal(state, 1)
    assert record == revealer.compute(state, 1)
    assert attachments is record.gadgets  # the round keeps the record's own gadgets


def _reference_record(state, i, params):
    """The checkpoint rule written one vertex at a time, as a test oracle."""
    tree = state.tree
    taken, K = set(), []
    for v in vertices_at_depth(tree, params.L * i):
        if state.visited[v] and v not in state.newly_visited:
            continue
        if tree.branch[v] not in taken:
            taken.add(tree.branch[v])
            K.append(v)
    counts = Counter(tree.branch[p] for p in state.positions if p != ROOT)
    a = tuple(counts.get(tree.branch[v], 0) for v in K)
    a_of = dict(zip(K, a))
    count = min(len(K), params.alpha.ceil_mul(len(K))) if K else 0
    S = sorted(sorted(K, key=lambda v: (a_of[v], v))[:count])
    gadgets = gadgets_of(*((v, *gadget_spec(i, a_of[v], params)) for v in S))
    return CheckpointRecord(i=i, K=tuple(K), a=a, S=tuple(S), gadgets=gadgets)


class _OracleCheck:
    """Replay observer: at every checkpoint round the played record must equal
    the per-vertex oracle on the replayed state; ``seen`` counts the cases met."""

    def __init__(self, transcript, params, seen):
        self.recorded = {rec.i: rec for rec in transcript.checkpoints}
        self.level = {t: i for i, t in enumerate(params.checkpoints, 1)}
        self.params = params
        self.seen = seen

    def moved(self, state, rec):
        i = self.level.get(state.round)
        if i is None:
            return
        params, seen, tree = self.params, self.seen, state.tree
        expected = _reference_record(state, i, params)
        record = self.recorded.pop(i)
        assert record == expected
        assert type(record.a) is tuple and len(record.a) == len(record.K)
        assert _select(expected.K, expected.a, params.alpha) == list(expected.S)
        branches = [tree.branch[v] for v in vertices_at_depth(tree, params.L * i)]
        seen["branch repeats at depth L*i"] += len(set(branches)) < len(branches)
        seen["visited vertex passed over"] += any(
            state.visited[v] and v not in state.newly_visited
            for v in vertices_at_depth(tree, params.L * i)
        )
        seen["fresh visit kept"] += any(v in state.newly_visited for v in expected.K)
        seen["agents on the root"] += ROOT in state.positions
        seen["agents in a branch"] += any(expected.a)
        a_of = dict(zip(expected.K, expected.a))
        cut = a_of[expected.S[-1]] if expected.S else None
        left = set(expected.K) - set(expected.S)
        seen["tie across the cut"] += any(a_of[v] == cut for v in left)
        seen[f"L={params.L} checkpoint {i}"] += bool(expected.K)

    def attached(self, state, rec, created):
        pass


def _assert_records_match_the_oracle(transcript, params, seen):
    check = _OracleCheck(transcript, params, seen)
    replay(transcript, CheckpointRevealer(params), check)
    assert not check.recorded, "a checkpoint record has no matching round"


class _RandomWalk:
    """Each agent stays, steps up, or steps down at random, down half the time."""

    name = "random_walk"

    def __init__(self, rng):
        self.rng = rng

    def next_moves(self, view):
        rng, parents = self.rng, view.parents
        moves = []
        for p in view.positions:
            down = view.children(p)
            if down and rng.random() < 0.5:
                moves.append(rng.choice(down))
            else:
                moves.append(rng.choice((p,) if p == ROOT else (p, parents[p])))
        return moves


def _toy_params(rng, L, mode):
    """Three checkpoints on a few short branches, with a selection fraction
    far above the paper's so that most branches keep growing."""
    k = rng.randint(1, 8)
    params = AdversaryParams(
        n=2 * L * rng.randint(1, 12), L=L, m=4, k=k,
        alpha=Alpha(n=rng.randint(2, 9), L=1, m=rng.randint(1, 2)),
        checkpoints=(), round_floor=0, mode=mode, max_k=k,
    )
    return replace(
        params,
        checkpoints=tuple(map(params.checkpoint_round, range(1, 4))),
        round_floor=params.checkpoint_round(3),
    )


@pytest.mark.parametrize("mode", ["repaired", "strict"])
def test_random_walks_meet_the_per_vertex_oracle(mode):
    rng = random.Random(20161)
    seen = Counter()
    for _ in range(100):
        for L in range(1, 5):
            params = _toy_params(rng, L, mode)
            tr = play(_RandomWalk(rng), CheckpointRevealer(params), params.k, params.round_floor)
            _assert_records_match_the_oracle(tr, params, seen)
    assert len(seen) == 18 and min(seen.values()) >= 10, seen


def _crowd_moves(state, head):
    """Every agent one step toward the bottom of the branch under ``head``."""
    children = state.tree.children
    return [head if p == ROOT else (children[p][0] if children[p] else p) for p in state.positions]


def _walk_moves(state, rng):
    """Every agent stays, steps up or steps down at random, down half the time."""
    tree, moves = state.tree, []
    for p in state.positions:
        if tree.children[p] and rng.random() < 0.5:
            moves.append(rng.choice(tree.children[p]))
        else:
            moves.append(rng.choice((p,) if p == ROOT else (p, tree.parent[p])))
    return moves


def _direct_computes(rng, seen):
    """One toy game driven by hand: at each checkpoint round ``compute`` on the
    live state must equal the oracle, and so must checkpoint 1 recomputed at
    random rounds by a fresh revealer on a state that plays over T_0 alone."""
    L = rng.randint(1, 3)
    params = _toy_params(rng, L, rng.choice(("repaired", "strict")))
    state, bare = GameState(params.initial_tree(), params.k), GameState(params.initial_tree(), params.k)
    revealer = CheckpointRevealer(params)
    style = rng.choice(("root", "walk", "crowd"))
    head = rng.choice(state.tree.children[ROOT])
    level = {t: i for i, t in enumerate(params.checkpoints, 1)}
    slots = ()  # the star leaves of the last checkpoint's gadgets
    for t in range(1, params.round_floor + 1):
        for s in (state, bare):
            if style == "walk":
                moves = _walk_moves(s, rng)
            else:
                moves = s.positions if style == "root" else _crowd_moves(s, head)
            _commit_moves(s, moves)
        if t > L and rng.random() < 0.3:
            assert CheckpointRevealer(params).compute(bare, 1) == _reference_record(bare, 1, params)
            path_ends = bare.visited[L : params.branch_count * L + 1 : L]
            seen["checkpoint 1 after path ends were visited"] += any(path_ends)
        i = level.get(t)
        if i is None:
            continue
        seen["empty leaf range at i >= 2"] += i > 1 and any(not r for r in slots)
        record = revealer.compute(state, i)
        assert record == _reference_record(state, i, params)
        seen["agents only on the root"] += set(state.positions) == {ROOT}
        seen["several agents in one branch"] += max(record.a, default=0) > 1
        seen[f"L={L} checkpoint {i}"] += bool(record.K)
        slots = leaf_slots(record.gadgets, _commit_attachments(state, record.gadgets))


def test_direct_computes_meet_the_per_vertex_oracle():
    rng = random.Random(1902)
    seen = Counter()
    for _ in range(300):
        _direct_computes(rng, seen)
    assert len(seen) == 13 and min(seen.values()) >= 5, seen


def _star_params(branches, alpha):
    """Checkpoint 1 of a ``branches``-wide star of single edges, selecting
    ceil(alpha * |K|) with the given Alpha."""
    return AdversaryParams(
        n=2 * branches, L=1, m=2, k=branches, alpha=alpha,
        checkpoints=(1,), round_floor=1, mode="repaired", max_k=branches,
    )


class TestComputeCutPoints:
    """compute copies K and a whole when no slot is closed, compresses them
    otherwise, and stops its selection passes at the last pick: each edge
    of those cuts against the per-vertex oracle."""

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_every_path_end_visited_first_leaves_an_empty_record(self, L):
        params = derive_params(16 * L, L, 1, 1, warn=False)  # 8 branches
        state = GameState(params.initial_tree(), 1)
        tree = state.tree
        for head in tree.children[ROOT]:  # one agent walks each branch down and back up
            path = tree.path_from_root(head + L - 1)
            for v in path[1:] + path[-2::-1]:
                _commit_moves(state, [v])
        record = CheckpointRevealer(params).compute(state, 1)
        assert record == _reference_record(state, 1, params)
        assert record.K == record.a == record.S == () and not record.gadgets
        assert _commit_attachments(state, record.gadgets) == []

    def test_selection_takes_every_candidate(self):
        params = _star_params(6, Alpha(n=2, L=1, m=1))  # alpha = 1
        state = GameState(make_path_star(6, 1), 3)
        _commit_moves(state, [4, 0, 0])
        _commit_moves(state, [0, 2, 5])  # 4 is old news, 2 and 5 still qualify
        record = CheckpointRevealer(params).compute(state, 1)
        assert record == _reference_record(state, 1, params)
        assert params.alpha.ceil_mul(len(record.K)) >= len(record.K)
        assert record.S == record.K == (1, 2, 3, 5, 6) and record.a == (0, 1, 0, 1, 0)

    def test_last_pick_is_the_last_candidate(self):
        params = _star_params(5, Alpha(n=3, L=1, m=1))  # alpha = 2/3: 4 of 5
        state = GameState(make_path_star(5, 1), 2)
        _commit_moves(state, [1, 2])
        record = CheckpointRevealer(params).compute(state, 1)
        assert record == _reference_record(state, 1, params)
        assert record.S == (1, 3, 4, 5)  # the tie between 1 and 2 goes to 1
        assert record.S[-1] == record.K[-1] and len(record.S) < len(record.K)

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_fresh_checkpoint_one_shares_the_trees_path_end_ints(self, L):
        params = derive_params(16384, L, 3, 1)
        tree = params.initial_tree()
        # each path end's own int object: a child of the root at L = 1, else
        # the one entry of its parent's children list
        slots = tree.children[ROOT] if L == 1 else [tree.children[v - 1][0] for v in range(L, tree.n, L)]
        K = CheckpointRevealer(params).compute(GameState(tree, 1), 1).K
        assert K == tuple(range(L, tree.n, L)) and K[-1] > 256
        assert all(map(operator.is_, K, slots))


class TestTreeSizeGuard:
    """compute takes only T_0 plus the revealer's own gadgets: a tree of any
    other size raises one line and leaves the revealer as it was."""

    params = derive_params(4096, 1, 3, 541)

    def _t0_state(self):
        state = GameState(self.params.initial_tree(), 3)
        _commit_moves(state, [1, 2, 0])
        _commit_moves(state, [1, 0, 0])
        return state

    def _raises(self, revealer, state, i):
        with pytest.raises(InvalidParameterError, match=f"checkpoint {i} needs the construction's tree") as exc:
            revealer.compute(state, i)
        assert "\n" not in str(exc.value)

    def _matches(self, revealer, state, i):
        assert revealer.compute(state, i) == _reference_record(state, i, self.params)

    def test_branch_hung_below_the_root(self):
        tree = self.params.initial_tree()
        attach_path_with_star(tree, ROOT, 1, 2)
        revealer = CheckpointRevealer(self.params)
        self._raises(revealer, GameState(tree, 3), 1)
        self._matches(revealer, self._t0_state(), 1)

    def test_checkpoint_two_before_the_gadgets_are_attached(self):
        revealer = CheckpointRevealer(self.params)
        state = self._t0_state()
        gadgets = revealer.compute(state, 1).gadgets
        assert gadgets
        _commit_moves(state, [0, 3, 0])
        self._raises(revealer, state, 2)
        _commit_attachments(state, gadgets)
        self._matches(revealer, state, 2)

    def test_fresh_revealer_on_a_grown_tree(self):
        state = self._t0_state()
        _commit_attachments(state, CheckpointRevealer(self.params).compute(state, 1).gadgets)
        revealer = CheckpointRevealer(self.params)
        self._raises(revealer, state, 1)
        self._matches(revealer, self._t0_state(), 1)


SWEEP_INSTANCES = ((4096, 1, 3, 541, 1000), (65536, 1, 4, 5878, 100), (16384, 4, 3, 541, 100))


@pytest.mark.parametrize("mode", ["repaired", "strict"])
@pytest.mark.parametrize("instance", SWEEP_INSTANCES)
def test_sweep_grid_records_meet_the_per_vertex_oracle(instance, mode):
    n, L, m, k, cap = instance
    seen = Counter()
    for explorer in ("idle", "single_dfs", "phase_bfs", "greedy_frontier"):
        params = derive_params(n, L, m, n if explorer == "phase_bfs" else k, mode=mode, warn=False)
        tr = run_adversary_game(params, explorer, cap=cap)
        _assert_records_match_the_oracle(tr, params, seen)
    assert seen[f"L={L} checkpoint 1"] == 4


# sha256 of the transcript's "checkpoints" array, decoded and dumped again with
# json.dumps (default separators), on the medium instance (65536, 1, 4, 5878),
# cap 100, taken before the checkpoint rule was rewritten with whole-array passes
PINNED_MEDIUM_RECORDS = {
    ("idle", "repaired"): "1cc5470ba6357a5fc54eebeeb567c1710276192c30e1f9af352ca1f9da557164",
    ("idle", "strict"): "1269dd8f1cf6cda1ab1f0d14214e3b9a255f63ab9a3afaeac9eec040cfc15f99",
    ("greedy_frontier", "repaired"): "2cf152e4fced8b6b6d896dd4b995e49ca49574fa4fb2e4bf3c34284cfe17287a",
    ("greedy_frontier", "strict"): "aa8cd867bb401c9b39e0e05ba67cd5c4cca36df1ac47357e53c87e8ed43e8a3a",
}


@pytest.mark.parametrize("explorer,mode", sorted(PINNED_MEDIUM_RECORDS))
def test_medium_checkpoint_records_are_pinned(explorer, mode):
    params = derive_params(65536, 1, 4, 5878, mode=mode)
    tr = run_adversary_game(params, explorer, cap=100)
    text = json.dumps(json.loads(transcript_to_json(tr))["checkpoints"])
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_MEDIUM_RECORDS[explorer, mode]
