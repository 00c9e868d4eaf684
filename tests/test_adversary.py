"""Adversary construction: team bound, selection arithmetic, checkpoints."""

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from treexplore import (
    AdversaryParams,
    Alpha,
    CheckpointRevealer,
    GameState,
    branch_agent_count,
    checkpoint_candidates,
    derive_params,
    fixed_tree_revealer,
    gadget_spec,
    make_explorer,
    make_path_star,
    max_team_size,
    play,
    select_targets,
)
from treexplore.errors import InfeasibleParamsError, NoBranchError
from treexplore.game import _commit_moves
from treexplore.harness.runner import run_adversary_game
from treexplore.tree import attach_path_with_star, decode_tree, encode_tree

from conftest import make_path, tree_arrays


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


class TestBranchAgentCount:
    def _toy_state(self):
        state = GameState(make_path_star(5, 2), 3)
        return state

    def test_all_at_root(self):
        state = self._toy_state()
        for v in range(1, state.tree.n):
            assert branch_agent_count(state, v) == 0

    def test_agent_on_vertex_itself(self):
        state = self._toy_state()
        _commit_moves(state, [1, 0, 0])
        assert branch_agent_count(state, 1) >= 1

    def test_cousin_in_same_branch_counts(self):
        state = self._toy_state()
        _commit_moves(state, [1, 0, 0])
        _commit_moves(state, [2, 0, 0])
        # agent sits at depth 2; vertex 1 shares the branch
        assert branch_agent_count(state, 1) == 1
        assert branch_agent_count(state, 3) == 0

    def test_root_rejected(self):
        with pytest.raises(NoBranchError):
            branch_agent_count(self._toy_state(), 0)


class TestCheckpointCandidates:
    def test_fresh_star_counts_every_branch(self):
        # eligibility is judged against the previous round's visited set,
        # so leaves first reached this round still qualify
        params = derive_params(4096, 1, 3, 541)
        state = GameState(params.initial_tree(), 5)
        _commit_moves(state, [1, 5, 9, 2047, 0])
        K = checkpoint_candidates(state, 1, params)
        assert len(K) == 2048
        assert K == list(range(1, 2049))

    def test_previously_visited_branch_contributes_nothing(self):
        params = derive_params(4096, 1, 3, 541)
        state = GameState(params.initial_tree(), 1)
        _commit_moves(state, [7])   # round 1: visit leaf 7
        _commit_moves(state, [7])   # round 2: stay; leaf 7 is now old news
        K = checkpoint_candidates(state, 1, params)
        assert 7 not in K
        assert len(K) == 2047

    def test_one_representative_per_branch_smallest_id(self):
        params = derive_params(4096, 1, 3, 541)
        state = GameState(params.initial_tree(), 1)
        new = attach_path_with_star(state.tree, 1, 0, 3)  # three depth-2 leaves under 1
        state.visited.extend(b"\x00" * 3)
        state.first_visit.extend([-1] * 3)
        K = checkpoint_candidates(state, 2, params)
        assert K == [new[0]]


class TestSelectTargets:
    def test_wide_star_selection_count(self):
        params = derive_params(4096, 1, 3, 541)
        K = list(range(1, 2049))
        S = select_targets(K, {v: 0 for v in K}, params.alpha)
        assert len(S) == 162  # ceil(2048 * (2/4096)^(1/3)), integer-exact
        assert S == K[:162]

    def test_empty(self):
        assert select_targets([], {}, Alpha(4096, 1, 3)) == []

    def test_crowded_vertex_selected_last(self):
        # five branches, one agent parked on leaf 3: with a selection
        # fraction of 2/3 the four calm branches win and 3 is left out
        alpha = Alpha(n=3, L=1, m=1)
        K = [1, 2, 3, 4, 5]
        a = {1: 0, 2: 0, 3: 1, 4: 0, 5: 0}
        assert alpha.ceil_mul(5) == 4
        assert select_targets(K, a, alpha) == [1, 2, 4, 5]

    def test_all_ties_take_smallest_ids(self):
        params = derive_params(4096, 1, 3, 541)
        K = list(range(100, 2148))
        S = select_targets(K, {v: 7 for v in K}, params.alpha)
        assert S == K[:162]


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
        assert revealer.reveal(state, 2) == ([], None)

    def test_idle_first_checkpoint(self):
        params = derive_params(4096, 1, 3, 541)
        revealer = CheckpointRevealer(params)
        state = GameState(params.initial_tree(), 541)
        _commit_moves(state, [0] * 541)
        attachments, record = revealer.reveal(state, 1)
        assert len(attachments) == 162
        assert all((a.path_len, a.leaf_count) == (0, 2) for a in attachments)
        assert record.i == 1
        assert len(record.K) == 2048
        assert record.S == tuple(range(1, 163))
        assert set(record.a_values.values()) == {0}

    def test_toy_star_with_one_crowded_branch(self):
        # five-branch toy: params patched so the selection fraction is 2/3
        params = AdversaryParams(
            n=3, L=1, m=2, k=1,
            alpha=Alpha(n=3, L=1, m=1),
            checkpoints=(1,), round_floor=1,
            mode="repaired", max_k=1,
        )
        revealer = CheckpointRevealer(params)
        state = GameState(make_path_star(5, 1), 1)
        _commit_moves(state, [3])
        attachments, record = revealer.reveal(state, 1)
        assert record.K == (1, 2, 3, 4, 5)
        assert record.a_values == {1: 0, 2: 0, 3: 1, 4: 0, 5: 0}
        assert record.S == (1, 2, 4, 5)
        assert [(a.at, a.path_len, a.leaf_count) for a in attachments] == [
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
    assert attachments == list(record.gadgets)
