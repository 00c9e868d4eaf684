"""Strategy behavior: baselines, DFS walk, phase dispatch, greedy matching."""

import hashlib
import random
import warnings
import zlib
from collections import Counter

import pytest

from treexplore import (
    CheckpointRevealer,
    brute_opt,
    derive_params,
    fixed_tree_revealer,
    make_explorer,
    play,
    transcript_to_json,
)
from treexplore.errors import StrategyInfeasibleError
from treexplore.adversary import FixedTreeRevealer
from treexplore.game import NO_GADGETS, ExplorerView, GameState, Gadgets
from treexplore.harness.runner import run_adversary_game
from treexplore.strategies import GreedyFrontierExplorer, PhaseBfsExplorer
from treexplore.tree import ROOT

from conftest import apply_round, assert_transcript_invariants, make_path, make_star, random_tree


def dfs_walk_rounds(tree):
    """Independent oracle: steps of the child-order depth-first walk until
    every vertex has been seen (the tail backtracking is never walked)."""
    walk = [0]
    stack = [(0, 0)]
    while stack:
        v, idx = stack.pop()
        kids = tree.children[v]
        if idx < len(kids):
            stack.append((v, idx + 1))
            walk.append(kids[idx])
            stack.append((kids[idx], 0))
        elif stack:
            walk.append(stack[-1][0])
    seen = set()
    for i, v in enumerate(walk):
        seen.add(v)
        if len(seen) == tree.n:
            return i
    return 0


class TestIdle:
    def test_never_moves(self):
        tr = play(make_explorer("idle", 3), fixed_tree_revealer(make_star(4)), 3, 20)
        assert all(rec.moves == (0, 0, 0) for rec in tr.rounds)
        assert not tr.outcome.finished

    def test_against_adversary_checkpoints_fire_with_zero_agents(self):
        params = derive_params(4096, 1, 3, 541)
        tr = run_adversary_game(params, "idle", cap=100)
        assert not tr.outcome.finished
        assert [cp.i for cp in tr.checkpoints] == [1, 2]
        for cp in tr.checkpoints:
            assert set(cp.a) == {0}

    def test_single_root_finishes_instantly(self):
        tr = play(make_explorer("idle", 1), fixed_tree_revealer(make_path(0)), 1, 5)
        assert tr.outcome.finished and tr.outcome.final_round == 0

    @pytest.mark.parametrize("name", ["idle", "idle_then_greedy"])
    def test_idle_round_commits_the_identical_tuple(self, name):
        state = GameState(make_star(4), 3)
        view = ExplorerView(state)
        explorer = make_explorer(name, 3, switch_round=2)
        start = state.positions
        for _ in range(2):
            moves = explorer.next_moves(view)
            assert moves is start
            apply_round(state, moves)
            assert state.positions is start


class TestSingleDfs:
    def test_path(self):
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(make_path(3)), 1, 50)
        assert tr.outcome.finished and tr.outcome.final_round == 3

    def test_star(self):
        tree = make_star(4)
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(tree), 1, 50)
        assert tr.outcome.final_round == dfs_walk_rounds(tree) == 7

    def test_full_binary_tree(self):
        tree = make_path(0)
        a, b = tree.add_child(0), tree.add_child(0)
        for p in (a, b):
            tree.add_child(p)
            tree.add_child(p)
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(tree), 1, 50)
        assert tr.outcome.final_round == dfs_walk_rounds(tree) == 10

    def test_matches_walk_oracle_on_random_trees(self):
        rng = random.Random(31)
        for _ in range(40):
            tree = random_tree(rng.randrange(2, 120), rng)
            tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(tree), 1, 4 * tree.n)
            assert tr.outcome.finished
            assert tr.outcome.final_round == dfs_walk_rounds(tree)
            assert tr.outcome.final_round <= 2 * (tree.n - 1)

    def test_extra_agents_stay_home(self):
        tr = play(make_explorer("single_dfs", 3), fixed_tree_revealer(make_star(3)), 3, 50)
        assert all(rec.moves[1:] == (0, 0) for rec in tr.rounds)

    @pytest.mark.parametrize("view", ["game", "local"])
    def test_matches_walk_oracle_on_trees_that_grow(self, view):
        # the walk keeps no count of unvisited vertices: a vertex's children
        # are final once agent 0 stands on it, so the walk on the grown tree
        # is the oracle's walk on the final tree
        rng = random.Random(47)
        grew = on_arrival = 0
        for _ in range(60):
            revealer = _GrowingRevealer(random_tree(rng.randrange(2, 40), rng), rng)
            tr = play(make_explorer("single_dfs", 2), revealer, 2, 10_000, view_mode=view)
            assert tr.outcome.finished
            assert tr.outcome.final_round == dfs_walk_rounds(tr.final_state.tree)
            grew += revealer.gadgets > 0
            on_arrival += revealer.on_arrival
        assert grew >= 50 and on_arrival >= 50, (grew, on_arrival)


class _GrowingRevealer(FixedTreeRevealer):
    """A fixed tree that grows: in a random third of the rounds, up to 12 in
    all, a gadget hangs at a random eligible vertex, at agent 0's vertex
    whenever that was reached this round and a coin says so."""

    def __init__(self, tree, rng):
        super().__init__(tree)
        self.rng = rng
        self.gadgets = self.on_arrival = 0

    def reveal(self, state, t):
        rng = self.rng
        if self.gadgets == 12 or rng.random() >= 1 / 3:
            return NO_GADGETS, None
        newly, visited = state.newly_visited, state.visited
        eligible = [v for v in range(state.tree.n) if not visited[v] or v in newly]
        if not eligible:
            return NO_GADGETS, None
        at = rng.choice(eligible)
        if state.positions[0] in newly and rng.random() < 0.5:
            at = state.positions[0]
            self.on_arrival += 1
        self.gadgets += 1
        return Gadgets((at,), (rng.randrange(3),), (rng.randrange(4),)), None


class TestPhaseBfs:
    def test_star_single_phase_single_round(self):
        n = 6
        tr = play(make_explorer("phase_bfs", n), fixed_tree_revealer(make_star(n - 1)), n, 20)
        assert tr.outcome.finished and tr.outcome.final_round == 1

    def test_path_single_phase_depth_rounds(self):
        depth = 7
        tree = make_path(depth)
        tr = play(make_explorer("phase_bfs", tree.n), fixed_tree_revealer(tree), tree.n, 100)
        assert tr.outcome.finished and tr.outcome.final_round == depth

    def test_within_height_squared_on_random_trees(self):
        rng = random.Random(88)
        for _ in range(20):
            tree = random_tree(rng.randrange(2, 400), rng)
            height = tree.height()
            tr = play(
                make_explorer("phase_bfs", tree.n), fixed_tree_revealer(tree), tree.n,
                height * height + 1,
            )
            assert tr.outcome.finished
            assert tr.outcome.final_round <= height * height

    def test_fresh_agents_exhausted_names_the_phase(self):
        with pytest.raises(StrategyInfeasibleError, match="phase 1"):
            play(make_explorer("phase_bfs", 2), fixed_tree_revealer(make_star(5)), 2, 20)

    def test_against_adversary_uses_enough_fresh_agents(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            params = derive_params(4096, 1, 3, 4096)
        tr = run_adversary_game(params, "phase_bfs", cap=1000)
        assert tr.outcome.finished
        assert tr.outcome.final_round >= 3
        assert_transcript_invariants(tr)


class TestGreedyFrontier:
    def test_star_matches_brute_force_optimum(self):
        tree = make_star(4)
        tr = play(make_explorer("greedy_frontier", 2), fixed_tree_revealer(tree), 2, 50)
        assert tr.outcome.final_round == brute_opt(tree, 2) == 3

    def test_single_edge(self):
        tr = play(make_explorer("greedy_frontier", 1), fixed_tree_revealer(make_path(1)), 1, 10)
        assert tr.outcome.final_round == 1

    def test_against_adversary_respects_round_floor(self):
        params = derive_params(4096, 1, 3, 541)
        tr = run_adversary_game(params, "greedy_frontier", cap=1000)
        assert tr.outcome.finished
        assert tr.outcome.final_round >= 3
        assert_transcript_invariants(tr)

    def test_finishes_random_trees(self):
        # the shallowest target always attracts its nearest agent, so every
        # trip costs at most 2*height rounds and the walk terminates
        rng = random.Random(17)
        for _ in range(25):
            tree = random_tree(rng.randrange(2, 150), rng)
            k = rng.randrange(1, 5)
            cap = 2 * tree.n * (tree.height() + 2)
            tr = play(make_explorer("greedy_frontier", k), fixed_tree_revealer(tree), k, cap)
            assert tr.outcome.finished


class ReferenceGreedyFrontier(GreedyFrontierExplorer):
    """The per-target matcher before the no-agent-branch shortcut, as an oracle.

    Every target runs the in-branch chain scan, the out-of-branch scan and
    the (distance, index) comparison. ``kinds`` counts the targets matched
    with and without an agent standing in their branch, and ``rounds`` the
    rounds in which every target reached is free of agents (including a
    round that reaches none) and those in which one is not.
    """

    def __init__(self, k):
        super().__init__(k)
        self.kinds = Counter()
        self.rounds = Counter()

    def next_moves(self, view):
        in_branch = self.kinds["agent in branch"]
        moves = self._match(view)
        self.rounds["all free" if self.kinds["agent in branch"] == in_branch else "some in branch"] += 1
        return moves

    def _match(self, view):
        self._sync(view)
        k = self.k
        parent = view.parents
        depth = view.depths
        branch = view.branches
        visited = view.visited
        positions = view.positions

        head = {}
        chain = [-1] * k
        byd = [[] for _ in range(max(map(depth.__getitem__, positions), default=0) + 1)]
        for x, p in enumerate(positions):
            if p != ROOT:
                b = branch[p]
                chain[x] = head.get(b, -1)
                head[b] = x
            byd[depth[p]].append(x)
        order = [x for bucket in byd for x in bucket]
        nxt = [0] * (k + 1)
        prv = [0] * (k + 1)
        for a, b in zip([k] + order, order + [k]):
            nxt[a] = b
            prv[b] = a

        matched = bytearray(k)
        moves = list(positions)
        for dv in sorted(self._buckets):
            bucket = self._buckets[dv]
            del bucket[: next((i for i, u in enumerate(bucket) if not visited[u]), len(bucket))]
            for v in bucket:
                if nxt[k] == k:
                    return moves
                if visited[v]:
                    continue
                bv = branch[v]
                self.kinds["agent in branch" if bv in head else "no agent in branch"] += 1
                best_d = best_x = -1
                x = head.get(bv, -1)
                while x >= 0:
                    if not matched[x]:
                        u, w = positions[x], v
                        while u != w:
                            if depth[u] < depth[w]:
                                w = parent[w]
                            else:
                                u = parent[u]
                        d = depth[positions[x]] + dv - 2 * depth[u]
                        if best_x < 0 or d < best_d or (d == best_d and x < best_x):
                            best_d, best_x = d, x
                    x = chain[x]
                x = nxt[k]
                while x != k:
                    p = positions[x]
                    if branch[p] != bv:
                        d = depth[p] + dv
                        if best_x < 0 or d < best_d or (d == best_d and x < best_x):
                            best_x = x
                        break
                    x = nxt[x]
                matched[best_x] = 1
                nxt[prv[best_x]] = nxt[best_x]
                prv[nxt[best_x]] = prv[best_x]
                pos = positions[best_x]
                w = v
                for _ in range(dv - depth[pos] - 1):
                    w = parent[w]
                moves[best_x] = w if parent[w] == pos else parent[pos]
        return moves


class ReferencePhaseBfs:
    """phase_bfs before the row walk, as an oracle: each phase start scans the
    whole reveal log, and each walker follows its own root-to-target path.
    ``mixed`` counts the phases whose targets lie at more than one depth.
    """

    name = "phase_bfs"

    def __init__(self, k):
        self.k = k
        self._next_fresh = 0
        self._walks = []  # (agent, path, position index)
        self.mixed = 0

    def _start_phase(self, view):
        visited = view.visited
        targets = sorted(v for v in view.reveal_log if not visited[v] and not view.children(v))
        self.mixed += len({view.depths[v] for v in targets}) > 1
        parent = view.parents
        for v in targets:
            path = []
            u = v
            while u != ROOT:
                path.append(u)
                u = parent[u]
            path.reverse()
            self._walks.append((self._next_fresh, path, 0))
            self._next_fresh += 1

    def next_moves(self, view):
        if not self._walks:
            self._start_phase(view)
        moves = list(view.positions)
        still_walking = []
        for agent, path, idx in self._walks:
            moves[agent] = path[idx]
            if idx + 1 < len(path):
                still_walking.append((agent, path, idx + 1))
        self._walks = still_walking
        return moves


def committed(moves, positions) -> list:
    """The positions a joint move commits: a dict names only the agents that move."""
    if not isinstance(moves, dict):
        return list(moves)
    full = list(positions)
    for agent, target in moves.items():
        full[agent] = target
    return full


class _LockStep:
    """Plays ``explorer`` and asserts, every round, that ``reference`` agrees
    on the positions the round commits."""

    def __init__(self, explorer, reference):
        self.name = explorer.name
        self.explorer = explorer
        self.reference = reference
        self.rounds = 0

    def next_moves(self, view):
        expected = self.reference.next_moves(view)
        moves = self.explorer.next_moves(view)
        assert committed(moves, view.positions) == committed(expected, view.positions), f"round {view.round + 1}"
        self.rounds += 1
        return moves


def test_greedy_frontier_matches_the_per_target_reference_round_by_round():
    rng = random.Random(2017)
    games = []
    for i in range(200):
        tree = random_tree(rng.randrange(2, 120), rng)
        k = rng.randrange(1, 13)
        view = ("game", "local")[i % 2]
        games.append((fixed_tree_revealer(tree), k, 2 * tree.n * (tree.height() + 2), view, True))
    # the small and long-segment lemma instances; the latter stops at its cap
    for n, L, cap, finishes in ((4096, 1, 1000, True), (16384, 4, 100, False)):
        params = derive_params(n, L, 3, 541, warn=False)
        for view in ("game", "local"):
            games.append((CheckpointRevealer(params), 541, cap, view, finishes))
    kinds, rounds = Counter(), Counter()
    for revealer, k, cap, view, finishes in games:
        lockstep = _LockStep(GreedyFrontierExplorer(k), ReferenceGreedyFrontier(k))
        tr = play(lockstep, revealer, k, cap, view_mode=view)
        assert tr.outcome.finished == finishes
        kinds += lockstep.reference.kinds
        rounds += lockstep.reference.rounds
    # both kinds of target and of round occur often, so the per-target
    # matcher and the all-free round are both compared
    assert kinds["agent in branch"] >= 1000 and kinds["no agent in branch"] >= 1000, kinds
    assert rounds["all free"] >= 300 and rounds["some in branch"] >= 300, rounds
    assert sum(rounds.values()) >= 2000


def test_phase_bfs_matches_the_path_walk_reference_round_by_round():
    rng = random.Random(2016)
    games = []
    for i in range(100):
        tree = random_tree(rng.randrange(2, 120), rng)
        view = ("game", "local")[i % 2]
        games.append((fixed_tree_revealer(tree), tree.n, 2 * tree.n * (tree.height() + 2), view))
    for n, L in ((4096, 1), (16384, 4)):
        params = derive_params(n, L, 3, n, warn=False)
        for view in ("game", "local"):
            games.append((CheckpointRevealer(params), n, 1000, view))
    mixed = rounds = 0
    for revealer, k, cap, view in games:
        lockstep = _LockStep(PhaseBfsExplorer(k), ReferencePhaseBfs(k))
        tr = play(lockstep, revealer, k, cap, view_mode=view)
        assert tr.outcome.finished
        mixed += lockstep.reference.mixed
        rounds += lockstep.rounds
    # phases whose walkers arrive in different rounds are compared too
    assert mixed >= 40 and rounds >= 1500, (mixed, rounds)


def _random_fixed_moves(name):
    """Moves of 50 games of ``name`` on random fixed trees, k 1..7, both views.

    phase_bfs needs a fresh agent per target, so it plays with k equal to
    the tree size; the draw of k still happens, so every name sees the
    same trees.
    """
    rng = random.Random(5)
    moves = []
    for i in range(50):
        tree = random_tree(rng.randrange(2, 80), rng)
        k = rng.randrange(1, 8)
        if name == "phase_bfs":
            k = tree.n
        cap = 2 * tree.n * (tree.height() + 2)
        view = ("game", "local")[i % 2]
        tr = play(make_explorer(name, k), fixed_tree_revealer(tree), k, cap, view_mode=view)
        moves.append([r.moves for r in tr.rounds])
    return moves


def _lemma_moves(n, L, m, k, cap, mode="repaired", view="game", name="greedy_frontier"):
    params = derive_params(n, L, m, k, mode=mode, warn=False)
    tr = run_adversary_game(params, name, cap=cap, view_mode=view)
    return [r.moves for r in tr.rounds]


MOVE_CASES = {
    "small_repaired": lambda: _lemma_moves(4096, 1, 3, 541, 1000),
    "small_strict": lambda: _lemma_moves(4096, 1, 3, 541, 1000, mode="strict"),
    "long_segments_repaired": lambda: _lemma_moves(16384, 4, 3, 541, 100),
    # at k = 5878 targets in branches with and without agents interleave
    "medium_repaired": lambda: _lemma_moves(65536, 1, 4, 5878, 100),
    "medium_strict": lambda: _lemma_moves(65536, 1, 4, 5878, 100, mode="strict"),
    "small_local": lambda: _lemma_moves(4096, 1, 3, 541, 1000, view="local"),
    "small_idle_then_greedy": lambda: _lemma_moves(4096, 1, 3, 541, 1000, name="idle_then_greedy"),
    "random_fixed_batch": lambda: _random_fixed_moves("greedy_frontier"),
    "single_dfs_small": lambda: _lemma_moves(4096, 1, 3, 541, 1000, name="single_dfs"),
    "single_dfs_small_local": lambda: _lemma_moves(4096, 1, 3, 541, 1000, view="local", name="single_dfs"),
    "single_dfs_random_fixed_batch": lambda: _random_fixed_moves("single_dfs"),
    # phase_bfs plays the full-team variant k = n, as in the acceptance suite
    "phase_bfs_small": lambda: _lemma_moves(4096, 1, 3, 4096, 1000, name="phase_bfs"),
    "phase_bfs_small_local": lambda: _lemma_moves(4096, 1, 3, 4096, 1000, view="local", name="phase_bfs"),
    "phase_bfs_random_fixed_batch": lambda: _random_fixed_moves("phase_bfs"),
}

# sha256 of repr(moves per round): the golden outcome tables pin only
# (finished, final_round, n, height), so these pin every joint move.
# Unprefixed cases are greedy_frontier's (idle_then_greedy delegates to it).
# single_dfs descends in tree order in either view, so its moves never
# depend on the view; phase_bfs's moves do, but not on the lemma instance.
MOVE_DIGESTS = {
    "small_repaired": "da4a284c50ad18284ca21e466efea30d18499f0843079a75853b032575bbf195",
    "small_strict": "d9e971f4f69dad9233d6431dfc3146ab4e953b8dcad96e6215af4aa7b420f23f",
    "long_segments_repaired": "53259a8e033db5c18ad59acd057a37f78306fe3808390cae936a7be1c4b745d1",
    "medium_repaired": "d06ebb91fa8bfa3b0ba1cd4cfa31832ba8c2fe009436f271c5b0df1ebeab615c",
    "medium_strict": "2c0be4406efb7d8671bb1b1744cbfe548959158e064f60fcdb8338675de12b7b",
    "small_local": "93b1a7df37d64feebe1bc41bae288453d939d3c08e302b9d59564d3262d33a79",
    "small_idle_then_greedy": "05d1f148a025bd05c822f6f109bf01d1a8ccb07dab2e73ef708bad47686a8501",
    "random_fixed_batch": "70d3d2b2ad5934e9bbcde032ae76db5e6e1f97035c2e54dad6e07590848565b7",
    "single_dfs_small": "6eecce3674512cfbdab5f9bd1e8c9b3f95443c3f623908b97ff6dc3e20b97e2d",
    "single_dfs_small_local": "6eecce3674512cfbdab5f9bd1e8c9b3f95443c3f623908b97ff6dc3e20b97e2d",
    "single_dfs_random_fixed_batch": "eebd3cbbf4022c81cf0fd23dcfc2eedde919d1b729e3374ca065a3e9be4e2a00",
    "phase_bfs_small": "bdd516b04b94d0130a03dcb499d941e3661fc6a8e6acfbb1fcbf1565b0dcc60c",
    "phase_bfs_small_local": "bdd516b04b94d0130a03dcb499d941e3661fc6a8e6acfbb1fcbf1565b0dcc60c",
    "phase_bfs_random_fixed_batch": "5b5fc7b16d5409ade4167cc99b8010cd769f8f53dcc988940aa7c56026c8c4a4",
}


@pytest.mark.parametrize("case", sorted(MOVE_DIGESTS))
def test_explorer_moves_are_pinned(case):
    moves = MOVE_CASES[case]()
    assert hashlib.sha256(repr(moves).encode()).hexdigest() == MOVE_DIGESTS[case]


class TestIdleThen:
    def test_switch_round(self):
        params = derive_params(4096, 1, 3, 541)
        tr = run_adversary_game(params, "idle_then_greedy", cap=100)
        assert tr.rounds[0].moves == (0,) * 541  # parked through the first checkpoint
        assert tr.rounds[1].moves != (0,) * 541
        assert tr.outcome.finished


def test_every_strategy_emits_legal_moves_on_seeded_games():
    """The engine raises on any illegal move; 1000 games stay silent."""
    cases = {
        "idle": lambda n: 2,
        "single_dfs": lambda n: 2,
        "phase_bfs": lambda n: n,
        "greedy_frontier": lambda n: 3,
    }
    games = 0
    for name, pick_k in cases.items():
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for _ in range(250):
            tree = random_tree(rng.randrange(2, 26), rng)
            k = pick_k(tree.n)
            cap = rng.randrange(5, 4 * tree.n)
            tr = play(make_explorer(name, k), fixed_tree_revealer(tree), k, cap)
            assert_transcript_invariants(tr)
            games += 1
    assert games == 1000


def test_strategy_determinism_byte_identical_transcripts():
    params = derive_params(4096, 1, 3, 541)
    for name in ("idle", "single_dfs", "phase_bfs", "greedy_frontier"):
        run_params = params
        if name == "phase_bfs":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                run_params = derive_params(4096, 1, 3, 4096)
        first = transcript_to_json(run_adversary_game(run_params, name, cap=12))
        second = transcript_to_json(run_adversary_game(run_params, name, cap=12))
        assert first == second


def test_local_mode_strategies_explore_adversary_games():
    params = derive_params(4096, 1, 3, 541)
    tr = run_adversary_game(params, "greedy_frontier", cap=1000, view_mode="local")
    assert tr.outcome.finished
    assert tr.outcome.final_round >= 3
    assert_transcript_invariants(tr)


def test_local_mode_reveals_gadgets_under_just_visited_vertices():
    # the revealer may attach at a vertex reached the same round; in local
    # view those gadget children become visible immediately
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        params = derive_params(4096, 1, 3, 4096)
    tr = run_adversary_game(params, "phase_bfs", cap=1000, view_mode="local")
    assert tr.outcome.finished
    assert tr.outcome.final_round >= 3
    assert_transcript_invariants(tr)
