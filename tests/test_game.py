"""Engine rules: moves, attachments, termination, transcripts, views."""

import gc
import json
import random
import re
from collections import Counter
from itertools import permutations
from math import comb

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from treexplore import (
    NO_GADGETS,
    ROOT,
    CheckpointRecord,
    Gadgets,
    GameState,
    Outcome,
    RoundRecord,
    Transcript,
    TreeStats,
    derive_params,
    fixed_tree_revealer,
    initial_tree_of,
    is_explored,
    make_explorer,
    play,
    replay,
    revealer_of,
    transcript_from_json,
    transcript_to_json,
    validate_moves,
)
from treexplore import game
from treexplore.errors import (
    AttachmentViolation,
    IntegrityError,
    InvalidParameterError,
    MoveViolation,
    ResourceLimitError,
)
from treexplore.game import ExplorerView, _commit_attachments, _commit_moves
from treexplore.harness.runner import run_adversary_game, run_fixed_game
from treexplore.harness.verify import verify_transcript

from conftest import (
    apply_round,
    assert_transcript_invariants,
    gadgets_of,
    make_path,
    make_star,
    random_tree,
)


class TestValidateMoves:
    def test_all_stay_is_ok(self):
        state = GameState(make_star(3), 2)
        assert validate_moves(state, [0, 0]) is None

    def test_step_to_child_is_ok(self):
        state = GameState(make_star(3), 2)
        assert validate_moves(state, [1, 0]) is None

    def test_jump_is_reported_with_agent_and_vertices(self):
        state = GameState(make_path(3), 2)
        report = validate_moves(state, [0, 2])
        assert report is not None
        assert (report.agent, report.origin, report.target) == (1, 0, 2)

    def test_first_of_several_violations_is_reported(self):
        state = GameState(make_path(3), 6)
        state.positions = [1, 1, 0, 2, 1, 0]
        # agents 2 and 5 make the same jump, agent 3 leaves the tree
        report = validate_moves(state, [2, 0, 2, 9, 1, 2])
        assert (report.agent, report.origin, report.target) == (2, 0, 2)
        report = validate_moves(state, [2, 0, 1, 9, 1, 2])
        assert (report.agent, report.origin, report.target) == (3, 2, 9)

    def test_wrong_length_rejected(self):
        state = GameState(make_star(3), 2)
        assert validate_moves(state, [0]) is not None


class TestApplyRound:
    def test_stay_round_only_increments_round(self):
        state = GameState(make_star(3), 2)
        apply_round(state, [0, 0])
        assert state.round == 1
        assert state.visited_count == 1
        assert state.positions == (0, 0)

    def test_single_edge_explored(self):
        state = GameState(make_path(1), 1)
        apply_round(state, [1])
        assert sorted(v for v in range(2) if state.visited[v]) == [0, 1]
        assert is_explored(state)

    def test_attach_at_visited_vertex_rejected(self):
        state = GameState(make_path(2), 1)
        with pytest.raises(AttachmentViolation) as exc:
            apply_round(state, [1], gadgets_of((0, 0, 2)))
        assert exc.value.vertex == 0

    def test_attach_at_vertex_visited_this_round_is_allowed(self):
        # eligibility is judged against the previous round's visited set
        state = GameState(make_path(2), 1)
        apply_round(state, [1], gadgets_of((1, 0, 2)))
        assert state.tree.n == 5
        assert state.tree.children[1] == [2, 3, 4]

    def test_move_violation_carries_round(self):
        state = GameState(make_path(3), 1)
        with pytest.raises(MoveViolation) as exc:
            apply_round(state, [2])
        assert exc.value.round == 1

    @pytest.mark.parametrize("moves", [[], [1], [1, 0, 0]])
    def test_wrong_length_move_is_a_violation_of_its_round(self, moves):
        state = GameState(make_path(3), 2)
        apply_round(state, [1, 0])
        with pytest.raises(MoveViolation, match=f"^joint move has {len(moves)} entries for 2 agents$") as exc:
            apply_round(state, moves)
        assert exc.value.round == 2

    def test_play_reports_a_wrong_length_move_with_its_round(self):
        class DropsAnAgent:
            name = "drops_an_agent"

            def next_moves(self, view):
                # stays put in round 1, then leaves out the last agent
                return view.positions[:-1] if view.round == 1 else view.positions

        with pytest.raises(MoveViolation, match="^joint move has 2 entries for 3 agents$") as exc:
            play(DropsAnAgent(), fixed_tree_revealer(make_star(3)), 3, 10)
        assert exc.value.round == 2


def reference_commit(state, moves):
    """The joint move in two passes, every pair checked and then every
    target marked: the engine's former rule, kept as the oracle."""
    t = state.round + 1
    moves = tuple(moves)
    if moves == state.positions:
        state.newly_visited = frozenset()
        state.round = t
        return
    if len(moves) != state.k:
        raise MoveViolation.wrong_length(len(moves), state.k, round=t)
    n, parent = state.tree.n, state.tree.parent
    for agent, (origin, target) in enumerate(zip(state.positions, moves)):
        if target != origin and not (0 <= target < n and (parent[target] == origin or parent[origin] == target)):
            raise MoveViolation(agent, origin, target, round=t)
    newly = []
    for v in moves:
        if not state.visited[v]:
            state.visited[v] = 1
            newly.append(v)
    state.visited_count += len(newly)
    state.positions = moves
    state.newly_visited = frozenset(newly)
    state.round = t


def _snapshot(state):
    return state.positions, state.newly_visited, bytes(state.visited), state.visited_count, state.round


def _verdict_of(commit, state, moves):
    """None for a committed move, else the violation's (agent, origin, target, round, message)."""
    try:
        commit(state, moves)
    except MoveViolation as exc:
        return exc.agent, exc.origin, exc.target, exc.round, str(exc)
    return None


def _random_joint_move(tree, positions, rng, seen) -> list:
    """Stays, down- and up-moves, sometimes with illegal entries or a wrong length."""
    moves = []
    for p in positions:
        kind = rng.choice(("stay", "down", "up"))
        if kind == "down" and tree.children[p]:
            seen["move from the root" if p == ROOT else "down-move"] += 1
            moves.append(rng.choice(tree.children[p]))
        elif kind == "up" and p != ROOT:
            seen["up-move"] += 1
            moves.append(tree.parent[p])
        else:
            seen["stay"] += 1
            moves.append(p)
    roll = rng.random()
    if roll < 0.1:
        seen["wrong length"] += 1
        return moves[:-1] if rng.random() < 0.5 else moves + [ROOT]
    if roll < 0.4:
        for _ in range(rng.choice((1, 2))):
            agent = rng.randrange(len(moves))
            p = positions[agent]
            far = [v for v in range(tree.n) if v != p and tree.parent[v] != p and tree.parent[p] != v]
            kind = rng.choice(("jump", "negative target", "target >= n"))
            if kind == "jump" and far:
                moves[agent] = rng.choice(far)
            elif kind == "negative target":
                moves[agent] = -rng.randint(1, 3)
            else:
                kind = "target >= n"
                moves[agent] = tree.n + rng.randrange(3)
            seen[kind] += 1
    return moves


def _assert_visited_parents(state):
    """The scan's invariant: the parent of every visited vertex is visited,
    so a move up never reaches a new vertex."""
    parent, visited = state.tree.parent, state.visited
    assert all(visited[parent[v]] for v in range(1, state.tree.n) if visited[v])


class TestJointMoveScan:
    """The one-pass scan of ``_commit_moves`` in lockstep with the two-pass oracle."""

    def test_engine_matches_the_two_pass_oracle(self):
        seen = Counter()
        for seed in range(60):
            rng = random.Random(seed)
            tree = random_tree(rng.randint(2, 30), rng)
            k = rng.randint(1, 6)
            engine, oracle = GameState(tree, k), GameState(tree, k)
            for _ in range(25):
                moves = _random_joint_move(tree, engine.positions, rng, seen)
                before = _snapshot(engine)
                fresh = [
                    v for p, v in zip(engine.positions, moves) if v != p and 0 <= v < tree.n and not engine.visited[v]
                ]
                verdict = validate_moves(engine, moves)
                assert _snapshot(engine) == before
                expected = _verdict_of(reference_commit, oracle, moves)
                assert _verdict_of(_commit_moves, engine, moves) == expected
                assert _snapshot(engine) == _snapshot(oracle)
                if expected is None:
                    assert verdict is None
                    seen["legal"] += 1
                    seen["two agents converge on a new vertex"] += len(set(fresh)) < len(fresh)
                    _assert_visited_parents(engine)
                    open_ = [v for v in range(tree.n) if not engine.visited[v] or v in engine.newly_visited]
                    if open_ and rng.random() < 0.3:
                        gadget = (rng.choice(open_), rng.randrange(3), rng.randrange(1, 3))
                        created = _commit_attachments(engine, gadgets_of(gadget))
                        oracle.visited.extend(bytes(len(created)))
                        seen["attachment"] += 1
                        _assert_visited_parents(engine)
                else:
                    assert (verdict.agent, verdict.origin, verdict.target) == expected[:3]
                    assert _snapshot(engine) == before
                    seen["rejected"] += 1
        cases = (
            "stay", "down-move", "up-move", "move from the root", "two agents converge on a new vertex",
            "jump", "target >= n", "negative target", "wrong length", "legal", "rejected", "attachment",
        )
        assert {case: seen[case] for case in cases if seen[case] == 0} == {}

    @pytest.mark.parametrize("target", [-1, 4], ids=["-1", "n"])
    @pytest.mark.parametrize("agent, origin", [(1, ROOT), (2, 1)], ids=["from the root", "from depth 1"])
    @pytest.mark.parametrize("form", [list, dict])
    def test_an_out_of_range_target_is_a_violation(self, target, agent, origin, form):
        # the path 0-1-2 and a leaf 3 below the root: parent[-1] is the root,
        # and the root's parent is None, which no int target equals.
        # Agents 0 and 2 stand on vertex 1, agent 1 on the root
        tree = make_path(2)
        tree.add_child(ROOT)
        state = GameState(tree, 3)
        _commit_moves(state, [1, 0, 1])
        moves = [1, 0, 1]
        moves[agent] = target
        proposed = moves if form is list else {agent: target}
        report = validate_moves(state, proposed)
        assert (report.agent, report.origin, report.target) == (agent, origin, target)
        assert str(report) == f"agent {agent} may not move from vertex {origin} to vertex {target}"
        with pytest.raises(MoveViolation) as exc:
            _commit_moves(state, proposed)
        assert (exc.value.agent, exc.value.round) == (agent, 2)


class TestRejectedMoveLeavesStateAlone:
    @staticmethod
    def _state():
        # agents 0 and 2 stand on vertex 1 of the path 0-1-2-3-4, agent 1 on the root
        state = GameState(make_path(4), 3)
        _commit_moves(state, [1, 0, 1])
        return state

    @pytest.mark.parametrize(
        "moves, agent",
        [
            ([2, 1, 3], 2),  # agent 0 would reach new vertex 2 before agent 2 jumps
            ([2, 1, 5], 2),
            ([2, 0, -1], 2),
            ([3, 0, 2], 0),
            ([2, 0], -1),
            ([2, 1, 2, 0], -1),
        ],
    )
    def test_rejected_commit_changes_nothing(self, moves, agent):
        state = self._state()
        positions, newly, before = state.positions, state.newly_visited, _snapshot(state)
        assert _snapshot(state) == ((1, 0, 1), frozenset({1}), b"\x01\x01\x00\x00\x00", 2, 1)
        with pytest.raises(MoveViolation) as exc:
            _commit_moves(state, moves)
        assert (exc.value.agent, exc.value.round) == (agent, 2)
        assert _snapshot(state) == before
        assert state.positions is positions and state.newly_visited is newly
        _commit_moves(state, [2, 1, 2])
        assert _snapshot(state) == ((2, 1, 2), frozenset({2}), b"\x01\x01\x01\x00\x00", 3, 2)

    @pytest.mark.parametrize("moves", [[2, 1, 2], [1, 0, 1], [2, 1, 3], [2, 0], [0, 0, -4]])
    def test_validate_moves_changes_nothing(self, moves):
        state = self._state()
        before = _snapshot(state)
        validate_moves(state, moves)
        assert _snapshot(state) == before


class _Count(int):
    """An int subclass: it prints like an int but is not a plain one."""


class TestDictMoves:
    """A joint move may be a dict that names only the agents that move."""

    @staticmethod
    def _state():
        # agents 0 and 2 stand on vertex 1 of the path 0-1-2-3-4, agent 1 on the root
        state = GameState(make_path(4), 3)
        _commit_moves(state, [1, 0, 1])
        return state

    def _rejected(self, moves):
        state = self._state()
        positions, newly, before = state.positions, state.newly_visited, _snapshot(state)
        assert validate_moves(state, moves) is not None
        with pytest.raises(MoveViolation) as exc:
            _commit_moves(state, moves)
        assert _snapshot(state) == before
        assert state.positions is positions and state.newly_visited is newly
        assert exc.value.round == 2 and "\n" not in str(exc.value)
        return exc.value

    @pytest.mark.parametrize("key", [True, 1.0, "0", -1, 3], ids=repr)
    def test_a_key_that_is_not_an_agent_is_rejected(self, key):
        exc = self._rejected({0: 2, key: 0})
        assert str(exc) == f"joint move names {key!r}, not one of the agents 0..2"
        assert exc.agent == -1

    @pytest.mark.parametrize("target", [True, 1.0, _Count(2)], ids=["bool", "float", "int-subclass"])
    def test_a_target_that_is_not_a_plain_int_is_rejected(self, target):
        # agent 2 stands on 1, so True and 1.0 would pass as stays by equality
        exc = self._rejected({0: 2, 2: target})
        assert str(exc) == f"agent 2 proposed {target!r}, not an integer vertex id"
        assert exc.agent == 2

    def test_a_non_adjacent_target_is_rejected(self):
        exc = self._rejected({1: 2})
        assert (exc.agent, exc.origin, exc.target) == (1, 0, 2)
        assert str(exc) == "agent 1 may not move from vertex 0 to vertex 2"

    @pytest.mark.parametrize(
        "moves, agent",
        [({2: 3, 0: 4}, 2), ({0: 4, 2: 3}, 0), ({1: 2.0, 0: 9}, 1), ({2: 3, 0: 3}, 2), ({0: 3, 2: 3}, 0)],
    )
    def test_the_first_offending_entry_in_dict_order_is_reported(self, moves, agent):
        assert self._rejected(moves).agent == agent

    def test_a_bad_key_is_reported_before_any_target(self):
        assert self._rejected({0: 4, 7: 0}).agent == -1

    @pytest.mark.parametrize("moves", [{}, {0: 1, 2: 1}, {1: 0}], ids=["empty", "stays", "root-stays"])
    def test_a_round_in_which_nobody_moves_keeps_the_positions_tuple(self, moves):
        state = self._state()
        positions = state.positions
        _commit_moves(state, moves)
        assert state.positions is positions
        assert _snapshot(state) == ((1, 0, 1), frozenset(), b"\x01\x01\x00\x00\x00", 2, 2)

    def test_named_agents_move_and_the_rest_stay(self):
        state = self._state()
        _commit_moves(state, {2: 2, 1: 1})
        assert _snapshot(state) == ((1, 1, 2), frozenset({2}), b"\x01\x01\x01\x00\x00", 3, 2)
        assert type(state.positions) is tuple

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_a_dict_commits_what_its_full_list_commits(self, data):
        rng = random.Random(data.draw(st.integers(0, 2**16), label="tree seed"))
        tree = random_tree(data.draw(st.integers(1, 12), label="n"), rng)
        n = tree.n
        vertex = st.integers(0, n - 1)
        start = data.draw(st.lists(vertex, min_size=1, max_size=6), label="positions")
        k = len(start)
        agents = data.draw(st.lists(st.integers(0, k - 1), min_size=1, unique=True), label="agents")
        moves = {}
        for agent in sorted(agents):
            p = start[agent]
            near = [p, *tree.children[p]] + ([tree.parent[p]] if p != ROOT else [])
            moves[agent] = data.draw(st.one_of(st.sampled_from(near), st.integers(-2, n + 1)), label=f"agent {agent}")
        full = list(start)
        for agent, target in moves.items():
            full[agent] = target
        states = []
        for _ in range(2):
            state = GameState(tree, k)
            state.positions = tuple(start)
            for v in {ROOT, *start}:
                state.visited[v] = 1
            state.visited_count = len({ROOT, *start})
            states.append(state)
        by_dict, by_list = states
        positions = by_dict.positions
        report = validate_moves(by_dict, moves)
        verdict = _verdict_of(_commit_moves, by_dict, moves)
        assert verdict == _verdict_of(_commit_moves, by_list, full)
        assert (report is None) == (verdict is None)
        assert _snapshot(by_dict) == _snapshot(by_list)
        if verdict is None and full == start:
            assert by_dict.positions is positions


class TestIsExplored:
    def test_initial_single_edge(self):
        assert not is_explored(GameState(make_path(1), 1))

    def test_after_visiting_child(self):
        state = GameState(make_path(1), 1)
        apply_round(state, [1])
        assert is_explored(state)

    def test_growth_at_unvisited_leaf_unexplores_nothing_visited(self):
        state = GameState(make_path(2), 1)
        apply_round(state, [1], gadgets_of((2, 0, 1)))
        assert not is_explored(state)


class TestPlay:
    def test_dfs_on_fixed_path(self):
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(make_path(3)), 1, 100)
        assert tr.outcome.finished
        assert tr.outcome.final_round == 3
        assert_transcript_invariants(tr)

    def test_idle_hits_the_cap(self):
        tr = play(make_explorer("idle", 2), fixed_tree_revealer(make_star(3)), 2, 100)
        assert not tr.outcome.finished
        assert tr.outcome.final_round == 100

    def test_full_team_star_in_one_round(self):
        n = 8
        tr = play(
            make_explorer("greedy_frontier", n - 1), fixed_tree_revealer(make_star(n - 1)), n - 1, 10
        )
        assert tr.outcome.finished
        assert tr.outcome.final_round == 1

    def test_single_root_ends_at_round_zero(self):
        tr = play(make_explorer("idle", 1), fixed_tree_revealer(make_path(0)), 1, 10)
        assert tr.outcome.finished
        assert tr.outcome.final_round == 0
        assert tr.rounds == []

    def test_replay_reproduces_final_state(self):
        tr = play(make_explorer("single_dfs", 2), fixed_tree_revealer(make_star(4)), 2, 100)
        state = replay(tr, revealer_of(tr))
        assert state.positions == tr.final_state.positions
        assert state.visited == tr.final_state.visited
        assert state.tree.parent == tr.final_state.tree.parent

    @pytest.mark.parametrize(
        "script, agent, t",
        [([[1, 0, True]], 2, 1), ([[1.0, 0, 0]], 0, 1), ([[1, 0, 0], [True, 1, 0]], 0, 2)],
        ids=["bool-mover", "float-mover", "bool-stayer"],
    )
    def test_non_integer_moves_are_rejected(self, script, agent, t):
        # True == 1 and 1.0 == 1, so only their type tells them from a vertex id
        class Scripted:
            def next_moves(self, view):
                return script[view.round]

        message = f"agent {agent} proposed {script[-1][agent]!r}, not an integer vertex id"
        with pytest.raises(MoveViolation, match=re.escape(message)) as exc:
            play(Scripted(), fixed_tree_revealer(make_star(3)), 3, 10)
        assert (exc.value.agent, exc.value.round) == (agent, t)

    def test_play_twice_is_byte_identical(self):
        def one():
            tr = play(make_explorer("greedy_frontier", 3), fixed_tree_revealer(make_star(6)), 3, 50)
            return transcript_to_json(tr)

        assert one() == one()


class TestTranscriptJson:
    def test_round_trip(self):
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(make_star(4)), 1, 100)
        text = transcript_to_json(tr)
        back = transcript_from_json(text)
        assert transcript_to_json(back) == text
        assert back.outcome.final_round == tr.outcome.final_round
        assert [r.moves for r in back.rounds] == [r.moves for r in tr.rounds]

    def test_tampered_moves_fail_replay(self):
        import json

        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(make_path(3)), 1, 100)
        doc = json.loads(transcript_to_json(tr))
        doc["rounds"][1]["moves"][0] = 3  # teleport instead of the recorded step
        with pytest.raises(IntegrityError):
            replay(transcript_from_json(json.dumps(doc)), revealer_of(tr))


def _pad_one_round(doc):
    last = doc["rounds"][-1]
    doc["rounds"].append({**last, "t": last["t"] + 1, "attachments": [], "newly_visited": 0})
    doc["outcome"]["final_round"] += 1


def _stop_unfinished(doc):
    del doc["rounds"][2:]
    doc["outcome"].update(finished=False, final_round=2)


def _attach_nothing(doc):
    doc["rounds"][0]["attachments"] = [{"at": 3, "path_len": 0, "leaves": 0}]


class TestReplay:
    def test_observer_sees_each_round_before_and_after_its_attachments(self):
        params = derive_params(256, 1, 2, 8)
        tr = run_adversary_game(params, "greedy_frontier", cap=6)
        assert any(rec.attachments for rec in tr.rounds)

        class Observer:
            def __init__(self):
                self.events = []

            def moved(self, state, rec):
                self.events.append(("moved", rec, state.round, state.tree.n))

            def attached(self, state, rec, created):
                self.events.append(("attached", rec, state.round, state.tree.n, created))

        n = initial_tree_of(tr).n
        replayed = Observer()
        replay(tr, revealer_of(tr), replayed)
        expected = []
        for rec in tr.rounds:
            grown = sum(rec.attachments.path_len) + sum(rec.attachments.leaf_count)
            expected.append(("moved", rec, rec.t, n))
            expected.append(("attached", rec, rec.t, n + grown, list(range(n, n + grown))))
            n += grown
        assert replayed.events == expected
        # play calls the same hooks in the same places with the records it keeps,
        # and an observer leaves the transcript as it is
        live = Observer()
        observed = run_adversary_game(params, "greedy_frontier", cap=6, observer=live)
        assert live.events == expected
        kept = [rec for rec in observed.rounds for _hook in ("moved", "attached")]
        assert all(event[1] is rec for event, rec in zip(live.events, kept, strict=True))
        assert transcript_to_json(observed) == transcript_to_json(tr)

    @pytest.mark.parametrize(
        "edit",
        [lambda p: p.pop("m"), lambda p: p.update(m=0), lambda p: p.update(mode="lax")],
        ids=["missing-m", "m-zero", "unknown-mode"],
    )
    def test_bad_lemma_header_is_an_integrity_error(self, edit):
        # initial_tree_of derives T_0 through the same header check verify uses
        tr = run_adversary_game(derive_params(256, 1, 2, 8), "greedy_frontier", cap=6)
        edit(tr.params)
        with pytest.raises(IntegrityError, match="not valid adversary params"):
            initial_tree_of(tr)

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (_pad_one_round, "round 4 is recorded after the tree was fully explored"),
            (_stop_unfinished, "game stopped unfinished at round 2, before the cap 100"),
            (lambda doc: doc["params"].update(cap=2), "outcome final_round 3 is past the cap 2"),
            (lambda doc: doc["params"].pop("cap"), "need an integer k >= 1 and cap"),
            (lambda doc: doc["outcome"].update(height=4), "outcome height 4 != replayed 3"),
            # a gadget of no vertices leaves the tree and the outcome as they were,
            # so only the fixed revealer, which attaches nothing, tells it apart
            (_attach_nothing, "round 1 has attachments outside any checkpoint"),
        ],
        ids=["round-after-explored", "unfinished-before-cap", "past-cap", "no-cap", "height", "attachment"],
    )
    def test_fixed_transcript_breaking_play_rules_is_rejected(self, tamper, message):
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(make_path(3)), 1, 100)
        doc = json.loads(transcript_to_json(tr))
        tamper(doc)
        with pytest.raises(IntegrityError, match=message):
            replay(transcript_from_json(json.dumps(doc)), revealer_of(tr))


def _attachments_doc(gadgets) -> list:
    return [{"at": at, "path_len": p, "leaves": c} for at, p, c in gadgets.rows()]


def reference_to_json(transcript) -> str:
    """The writer's contract: one json.dumps of the whole document."""
    doc = {
        "params": transcript.params,
        "rounds": [
            {
                "t": r.t,
                "moves": r.moves,
                "attachments": _attachments_doc(r.attachments),
                "newly_visited": r.newly_visited,
            }
            for r in transcript.rounds
        ],
        "checkpoints": [
            {"i": c.i, "K": c.K, "a": c.a, "S": c.S, "gadgets": _attachments_doc(c.gadgets)}
            for c in transcript.checkpoints
        ],
        "outcome": {
            "finished": transcript.outcome.finished,
            "final_round": transcript.outcome.final_round,
            "n": transcript.outcome.final_stats.n,
            "height": transcript.outcome.final_stats.height,
        },
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _plain_int(value) -> bool:
    return type(value) is int


def _int_list(values) -> bool:
    return type(values) is list and all(map(_plain_int, values))


def _reference_attachments(listed) -> Gadgets:
    """Gadgets from a list of objects whose three fields are plain ints."""
    if type(listed) is not list:
        raise IntegrityError("attachments are not a list")
    rows = []
    for obj in listed:
        fields = (obj["at"], obj["path_len"], obj["leaves"])
        if not all(map(_plain_int, fields)):
            raise IntegrityError("an attachment field is not an integer")
        rows.append(fields)
    return gadgets_of(*rows)


def reference_from_json(text) -> Transcript:
    """The reader's contract: one json.loads, then the record checks.

    Equal consecutive moves share one tuple, and each distinct moves list
    must hold plain ints. Every other record field is a plain int, or a
    list of them (K, a, S, with a as long as K), or a list of attachment
    objects with plain-int fields; the outcome's finished is a bool.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise IntegrityError(f"transcript is not valid JSON: {exc}") from exc
    try:
        rounds = []
        last_list = last_moves = None
        for index, r in enumerate(doc["rounds"]):
            mv = r["moves"]
            if last_moves is None or mv != last_list:
                if not _int_list(mv):
                    raise IntegrityError(f"round record {index} has moves that are not a list of integers")
                last_list, last_moves = mv, tuple(mv)
            if not (_plain_int(r["t"]) and _plain_int(r["newly_visited"])):
                raise IntegrityError(f"round record {index} has a t or newly_visited that is not an integer")
            rounds.append(
                RoundRecord(
                    t=r["t"],
                    moves=last_moves,
                    attachments=_reference_attachments(r["attachments"]),
                    newly_visited=r["newly_visited"],
                )
            )
        checkpoints = []
        for c in doc.get("checkpoints", []):
            if not _plain_int(c["i"]):
                raise IntegrityError("a checkpoint's i is not an integer")
            K, a, S = c["K"], c["a"], c["S"]
            if not (_int_list(K) and _int_list(a) and _int_list(S)):
                raise IntegrityError(f"checkpoint {c['i']} has an entry that is not a list of integers")
            if len(a) != len(K):
                raise IntegrityError(f"checkpoint {c['i']} has 'a' and 'K' of different lengths")
            gadgets = _reference_attachments(c["gadgets"])
            checkpoints.append(CheckpointRecord(i=c["i"], K=tuple(K), a=tuple(a), S=tuple(S), gadgets=gadgets))
        out = doc["outcome"]
        finished, final_round, n, height = out["finished"], out["final_round"], out["n"], out["height"]
        if type(finished) is not bool or not all(map(_plain_int, (final_round, n, height))):
            raise IntegrityError("an outcome field has the wrong type")
        outcome = Outcome(finished, final_round, TreeStats(n, height, height))
        params = doc["params"]
    except KeyError as exc:
        raise IntegrityError(f"transcript is missing key {exc}") from exc
    except TypeError as exc:
        raise IntegrityError(f"transcript has a malformed record: {exc}") from exc
    if not isinstance(params, dict):
        raise IntegrityError("transcript params are not an object")
    return Transcript(params=params, rounds=rounds, checkpoints=checkpoints, outcome=outcome)


def assert_stay_rounds_share(rounds):
    """Consecutive equal moves are one object; unequal ones are not."""
    for before, after in zip(rounds, rounds[1:]):
        assert (after.moves is before.moves) == (after.moves == before.moves)


def assert_gadgets_share(transcript):
    """Each checkpoint's gadgets are its round's attachments object."""
    L = transcript.params.get("L")
    for c in transcript.checkpoints:
        assert c.gadgets is transcript.rounds[L * comb(c.i + 1, 2) - 1].attachments


def _lemma_games():
    params = derive_params(4096, 1, 3, 541)
    full_team = derive_params(4096, 1, 3, 4096, warn=False)  # phase_bfs needs k = n
    for name in ("idle", "single_dfs", "phase_bfs", "greedy_frontier", "idle_then_greedy"):
        for view in ("game", "local"):
            yield f"lemma-{name}-{view}", lambda name=name, view=view: run_adversary_game(
                full_team if name == "phase_bfs" else params, name, cap=40, view_mode=view
            )
    yield "lemma-cap-0", lambda: run_adversary_game(params, "greedy_frontier", cap=0)


def _fixed_games():
    tree = random_tree(60, random.Random(11))
    for name in ("idle", "single_dfs", "phase_bfs", "greedy_frontier"):
        k = tree.n if name == "phase_bfs" else 3
        for view in ("game", "local"):
            yield f"fixed-{name}-{view}", lambda name=name, k=k, view=view: play(
                make_explorer(name, k), fixed_tree_revealer(tree), k, 200, view_mode=view
            )
    yield "fixed-cap-0", lambda: play(make_explorer("idle", 2), fixed_tree_revealer(tree), 2, 0)


GAMES = dict([*_lemma_games(), *_fixed_games()])


class TestSharedMoves:
    """Stay-put rounds share one moves tuple; the transcript bytes do not change."""

    @pytest.mark.parametrize("game", sorted(GAMES))
    def test_writer_matches_reference_and_round_trips(self, game):
        tr = GAMES[game]()
        text = transcript_to_json(tr)
        assert text == reference_to_json(tr)
        back = transcript_from_json(text)
        assert back == reference_from_json(text)
        assert transcript_to_json(back) == text == reference_to_json(back)
        assert_stay_rounds_share(tr.rounds)
        assert_stay_rounds_share(back.rounds)
        assert_gadgets_share(tr)
        assert_gadgets_share(back)
        if tr.rounds:
            assert tr.rounds[-1].moves is tr.final_state.positions

    def test_idle_keeps_one_moves_object(self):
        tr = run_adversary_game(derive_params(4096, 1, 3, 541), "idle", cap=30)
        assert len(tr.rounds) == 30
        assert len({id(r.moves) for r in tr.rounds}) == 1
        back = transcript_from_json(transcript_to_json(tr))
        assert len({id(r.moves) for r in back.rounds}) == 1

    def test_explorer_list_is_not_kept(self):
        state = GameState(make_star(3), 2)
        moves = [1, 0]
        apply_round(state, moves)
        moves[0] = 2
        assert state.positions == (1, 0)
        before = state.positions
        apply_round(state, [1, 0])
        assert state.positions is before

    def test_hand_built_mix_of_shared_and_equal_tuples(self):
        shared = (0, 0)
        rounds = [
            ((0, 0), 0),  # equal to `shared`, a different object
            (shared, 0),
            (shared, 0),
            ((1, 0), 1),
            ((1.0, 0), 0),  # equal to the round before, encodes differently
            ((True, 0), 0),
            ((1, 0), 0),
            (shared, 0),
            (shared, 0),
            ((0, 0), 0),
        ]
        tr = Transcript(
            params={"explorer": "hand", "revealer": "fixed", "k": 2, "ratio": 0.5},
            rounds=[
                RoundRecord(t=t, moves=moves, attachments=NO_GADGETS, newly_visited=nv)
                for t, (moves, nv) in enumerate(rounds, start=1)
            ],
            checkpoints=[],
            outcome=Outcome(False, len(rounds), TreeStats(n=3, height=1, root_ecc=1)),
        )
        text = transcript_to_json(tr)
        assert text == reference_to_json(tr)
        assert '"moves":[1.0,0]' in text and '"moves":[true,0]' in text


    def test_equal_but_distinct_gadgets_are_encoded_on_their_own(self):
        shared = gadgets_of((1, 0, 2))
        equal = gadgets_of((1.0, 0, 2))  # equal to `shared`, encodes differently

        def checkpoint(i, gadgets):
            return CheckpointRecord(i=i, K=(1, 2), a=(0, 0), S=(1,), gadgets=gadgets)

        tr = Transcript(
            params={"explorer": "hand", "revealer": "hand", "k": 1},
            rounds=[
                RoundRecord(t=1, moves=(0,), attachments=shared, newly_visited=0),
                RoundRecord(t=2, moves=(0,), attachments=gadgets_of((2, 0, 2)), newly_visited=0),
            ],
            checkpoints=[checkpoint(1, shared), checkpoint(2, equal), checkpoint(3, NO_GADGETS)],
            outcome=Outcome(False, 2, TreeStats(n=7, height=2, root_ecc=2)),
        )
        text = transcript_to_json(tr)
        assert text == reference_to_json(tr)
        assert '"gadgets":[{"at":1.0,' in text
        with pytest.raises(IntegrityError, match="checkpoint 2: 'gadgets' must be a list of objects"):
            transcript_from_json(text)
        back = transcript_from_json(text.replace('"gadgets":[{"at":1.0,', '"gadgets":[{"at":1,'))
        assert back.checkpoints[0].gadgets is back.rounds[0].attachments
        assert back.checkpoints[1].gadgets == shared
        assert back.checkpoints[1].gadgets is not back.checkpoints[0].gadgets


class TestAttachmentText:
    """Plain-int attachments are %-formatted; any other field goes to the encoder."""

    def _transcript(self, *rows):
        return Transcript(
            params={"explorer": "hand", "revealer": "hand", "k": 1},
            rounds=[RoundRecord(t=1, moves=(0,), attachments=gadgets_of(*rows), newly_visited=0)],
            checkpoints=[CheckpointRecord(i=1, K=(1,), a=(0,), S=(1,), gadgets=gadgets_of(*rows[::-1]))],
            outcome=Outcome(False, 1, TreeStats(n=2, height=1, root_ecc=1)),
        )

    def test_negative_and_large_ints_match_the_reference(self, monkeypatch):
        tr = self._transcript((-5, 10**40, 0), (0, -1, -(10**4299)), (2**63, 2**64, 7))
        encoded = []
        encode = game._encode
        monkeypatch.setattr(game, "_encode", lambda value: encoded.append(value) or encode(value))
        assert transcript_to_json(tr) == reference_to_json(tr)
        assert not any(type(value) is list and value and type(value[0]) is dict for value in encoded)

    @pytest.mark.parametrize("odd", [1.0, True, _Count(3)], ids=["float", "bool", "int-subclass"])
    @pytest.mark.parametrize("field", range(3))
    def test_a_field_that_is_not_a_plain_int_goes_to_the_encoder(self, monkeypatch, odd, field):
        fields = [1, 0, 2]
        fields[field] = odd
        tr = self._transcript((4, 0, 1), tuple(fields))
        encoded = []
        encode = game._encode
        monkeypatch.setattr(game, "_encode", lambda value: encoded.append(value) or encode(value))
        assert transcript_to_json(tr) == reference_to_json(tr)
        # once for the round's attachments, once for the checkpoint's gadgets
        assert sum(type(value) is list and len(value) == 2 for value in encoded) == 2


# (256, 1, 2, 8): one checkpoint at round 1 with 12 gadgets, then stay-put
# (idle) or moving (greedy) rounds; about 2.6 kB of text each
FUZZ_BASES = {
    name: transcript_to_json(run_adversary_game(derive_params(256, 1, 2, 8), name, cap=6))
    for name in ("idle", "greedy_frontier")
}
EDIT_CHARS = '[]{},:" \n\f0123456789-.eEtrufalsn\\'
ODD_VALUES = st.sampled_from([None, True, 1.0, -1, 0, 1, 2, 10**6, "x", [], {}, [0]])
ENCODINGS = ("utf-8-sig", "utf-16", "utf-16-le", "utf-16-be", "utf-32", "str-bom")


def _value_spans(text: str, key: str) -> list[tuple[int, int]]:
    """(start, end) of the value after each ``"key":`` in compact text."""
    spans, i = [], text.find(f'"{key}":')
    while i >= 0:
        start = i + len(key) + 3
        spans.append((start, json.JSONDecoder().raw_decode(text, start)[1]))
        i = text.find(f'"{key}":', start)
    return spans


# JSON text that is not a plain int, and -0, which is one the writer never writes
INT_TOKENS = ("1.0", "1e0", "1E0", "-0", "NaN", "Infinity", "-Infinity", "true", "null", '"1"', "[1]", "{}")
# whole arrays next to the writer's single-digit text, read by byte translation
DIGIT_ARRAYS = (
    "[7]", "[0,1,0]", "[]", "[0, 1]", "[0 ,1]", "[0,,1]", "[0,1,]", "[01]", "[-0]", "[0,10]", "[10,0]", "[\u0663]",
    "[0,[1]]", '[0,"1"]', "[0 1]", "[1.5]",
)
FIELD_ERRORS = {
    "moves": "round record 0 has moves that are not a list of integers",
    "a": "checkpoint 1: 'a' must be a list of integers",
    "gadgets": "checkpoint 1: 'gadgets' must be a list of objects with integer 'at', 'path_len' and 'leaves'",
}
INT_ARRAYS = ("moves", "K", "a", "S")


def _with_entry(text: str, span: tuple[int, int], j: int, token: str) -> str:
    """``text`` with entry ``j`` of the compact int array at ``span`` replaced by
    ``token``; an empty array gets it as its only entry."""
    start, end = span
    entries = text[start + 1 : end - 1].split(",")
    entries[j % len(entries)] = token
    return text[: start + 1] + ",".join(entries) + text[end - 1 :]


def _object_spans(text: str, span: tuple[int, int]) -> list[tuple[int, int]]:
    """(start, end) of each object in the compact attachments array at ``span``."""
    spans, i = [], span[0] + 1
    while i < span[1] - 1:
        end = text.index("}", i) + 1
        spans.append((i, end))
        i = end + 1
    return spans


def _attachment_edits(obj: str) -> list[str]:
    """Edits of one compact attachment object: its keys reordered, a space
    added, the object or a key duplicated, a key dropped or added, or a field
    that is not the writer's plain int."""
    fields = obj[1:-1].split(",")
    edits = ["{" + ",".join(order) + "}" for order in permutations(fields)]
    edits += [obj[:i] + " " + obj[i:] for i in range(1, len(obj))]
    edits += [obj + "," + obj, obj[:-1] + ',"at":0}', obj[:-1] + ',"x":0}', '{"x":0,' + obj[1:]]
    edits += ["{" + ",".join(fields[:d] + fields[d + 1 :]) + "}" for d in range(3)]
    for d, name in enumerate(("at", "path_len", "leaves")):
        for value in ("2.0", "true", "-0", "1" + "0" * 4999):
            edits.append("{" + ",".join([*fields[:d], f'"{name}":{value}', *fields[d + 1 :]]) + "}")
    return edits


def _gadget_spans(text: str, place: str) -> list[tuple[int, int]]:
    """The non-empty arrays of ``place``, "attachments" or "gadgets"."""
    return [(start, end) for start, end in _value_spans(text, place) if end - start > 2]


def _walker_positions(text: str) -> list[int]:
    """Where the brackets, colons and commas of the top-level object, the rounds
    and checkpoints arrays and their records sit, the syntax the walker reads."""
    depth, positions = 0, []
    for i, c in enumerate(text):
        depth -= c in "]}"
        if depth <= 3 and c in "{}[]:,":
            positions.append(i)
        depth += c in "[{"
    return positions


def _reordered(obj, draw, depth=0):
    if isinstance(obj, dict):
        keys = draw(st.permutations(list(obj))) if depth < 3 else list(obj)
        return {k: _reordered(obj[k], draw, depth + 1) for k in keys}
    if isinstance(obj, list) and depth < 3:
        return [_reordered(v, draw, depth + 1) for v in obj]
    return obj


@st.composite
def mutated_transcripts(draw):
    """One mutation of a small lemma transcript: text, bytes, or a str with a BOM."""
    text = FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))]
    doc = json.loads(text)
    kind = draw(st.sampled_from([
        "move", "attachment", "checkpoint", "outcome", "truncate", "edit",
        "indent", "reorder", "duplicate", "respaced_moves", "int_token", "attachment_text", "encoding",
    ]))
    if kind == "move":
        moves = doc["rounds"][draw(st.integers(0, len(doc["rounds"]) - 1))]["moves"]
        moves[draw(st.integers(0, len(moves) - 1))] = draw(ODD_VALUES)
    elif kind == "attachment":
        att = doc["rounds"][0]["attachments"]
        entry = att[draw(st.integers(0, len(att) - 1))]
        entry[draw(st.sampled_from(sorted(entry)))] = draw(ODD_VALUES)
    elif kind == "checkpoint":
        cp = doc["checkpoints"][0]
        field = draw(st.sampled_from(sorted(cp)))
        if isinstance(cp[field], list) and cp[field] and draw(st.booleans()):
            j = draw(st.integers(0, len(cp[field]) - 1))
            if field == "gadgets":
                cp[field][j][draw(st.sampled_from(["at", "path_len", "leaves"]))] = draw(ODD_VALUES)
            else:
                cp[field][j] = draw(ODD_VALUES)
        else:
            cp[field] = draw(ODD_VALUES)
    elif kind == "outcome":
        doc["outcome"][draw(st.sampled_from(sorted(doc["outcome"])))] = draw(ODD_VALUES)
    if kind in ("move", "attachment", "checkpoint", "outcome"):
        return json.dumps(doc, separators=(",", ":"))
    if kind == "truncate":
        return text[: draw(st.integers(0, len(text) - 1))]
    if kind == "edit":
        i = draw(st.one_of(st.integers(0, len(text) - 1), st.sampled_from(_walker_positions(text))))
        c = draw(st.sampled_from(EDIT_CHARS))
        edits = [text[:i] + c + text[i + 1 :], text[:i] + c + text[i:], text[:i] + text[i + 1 :]]
        return draw(st.sampled_from(edits))
    if kind == "indent":
        return json.dumps(doc, indent=draw(st.sampled_from([None, 0, 1, 2, "\t"])))
    if kind == "reorder":
        return json.dumps(_reordered(doc, draw), separators=(",", ":"))
    if kind == "duplicate":
        keys = ["params", "rounds", "checkpoints", "moves", "attachments", "gadgets", "t", "K"]
        key = draw(st.sampled_from(keys))
        spans = _value_spans(text, key)
        start, end = spans[draw(st.integers(0, len(spans) - 1))]
        filler = draw(st.sampled_from(["null", "[]", "[0,0]", "{}", text[slice(*spans[0])]]))
        if draw(st.booleans()):  # an earlier copy: the original still wins
            return text[: start - len(key) - 3] + f'"{key}":{filler},' + text[start - len(key) - 3 :]
        return text[:end] + f',"{key}":{filler}' + text[end:]
    if kind == "respaced_moves":
        spans = _value_spans(text, "moves")
        r = draw(st.integers(1, len(spans) - 1))
        prev = json.loads(text[slice(*spans[r - 1])])
        sep = draw(st.sampled_from([", ", " ,", ",\n", "\t,"]))
        new = sep.join(map(str, prev)).join(draw(st.sampled_from([("[", "]"), ("[ ", " ]"), ("\n[", "]")])))
        return text[: spans[r][0]] + new + text[spans[r][1] :]
    if kind == "int_token":
        span = draw(st.sampled_from(_value_spans(text, draw(st.sampled_from(INT_ARRAYS)))))
        return _with_entry(text, span, draw(st.integers(0, 10**6)), draw(st.sampled_from(INT_TOKENS)))
    if kind == "attachment_text":
        span = draw(st.sampled_from(_gadget_spans(text, draw(st.sampled_from(["attachments", "gadgets"])))))
        start, end = draw(st.sampled_from(_object_spans(text, span)))
        return text[:start] + draw(st.sampled_from(_attachment_edits(text[start:end]))) + text[end:]
    return _encoded(text, draw(st.sampled_from(ENCODINGS)))


def _encoded(text: str, encoding: str):
    """Bytes as json.loads reads them, or for "str-bom" a str that keeps its BOM."""
    return "\ufeff" + text if encoding == "str-bom" else text.encode(encoding)


def _read(reader, data):
    try:
        return reader(data)
    except IntegrityError:
        return "rejected"


def _message(reader, data):
    """The records read, or the one-line message of the IntegrityError."""
    try:
        return reader(data)
    except IntegrityError as exc:
        return str(exc)


def _with_value(text: str, key: str, value: str) -> str:
    """``text`` with the value of the first ``"key":`` replaced by ``value``."""
    start, end = _value_spans(text, key)[0]
    return text[:start] + value + text[end:]


def _digit_value(place: str, array: str) -> str:
    """``array`` as the value at ``place``; for gadgets, the writer's attachment
    text whose keys and braces, taken out, leave ``array``."""
    if place != "gadgets" or array == "[]":
        return array
    entries = array[1:-1].split(",")
    objects = [
        "{" + ",".join(f'"{key}":{e}' for key, e in zip(("at", "path_len", "leaves"), entries[j : j + 3])) + "}"
        for j in range(0, len(entries), 3)
    ]
    return "[" + ",".join(objects) + "]"


def _verdict(transcript) -> str:
    """verify's verdict; a malformed transcript may raise IntegrityError and nothing else."""
    if transcript == "rejected":
        return "unreadable"
    try:
        return "ok" if verify_transcript(transcript).ok else "claims failed"
    except IntegrityError:
        return "rejected by verify"


class TestReaderMatchesJsonLoads:
    """The walking reader reads what json.loads reads and rejects what it rejects."""

    @settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(mutated_transcripts())
    def test_same_records_and_verdict_as_the_oracle(self, data):
        new, old = _read(transcript_from_json, data), _read(reference_from_json, data)
        assert new == old
        assert _verdict(new) == _verdict(old)

    @pytest.mark.parametrize("name", sorted(FUZZ_BASES))
    def test_every_edit_of_the_walked_syntax(self, name):
        text = FUZZ_BASES[name]
        positions = _walker_positions(text)
        assert len(positions) > 100
        for i in positions:
            edits = [text[:i] + text[i + 1 :]]
            edits += [text[:i] + c + text[i + 1 :] for c in ',:]}" ']
            edits += [text[:i] + c + text[i:] for c in ",]} \f"]
            for edited in edits:
                assert _read(transcript_from_json, edited) == _read(reference_from_json, edited)

    @pytest.mark.parametrize("name", sorted(FUZZ_BASES))
    @pytest.mark.parametrize("key", INT_ARRAYS)
    def test_every_non_int_token_in_an_int_array(self, name, key):
        text = FUZZ_BASES[name]
        spans = _value_spans(text, key)
        for span in {spans[0], spans[1 % len(spans)], spans[-1]}:
            for j in (0, -1):
                for token in INT_TOKENS:
                    edited = _with_entry(text, span, j, token)
                    assert _read(transcript_from_json, edited) == _read(reference_from_json, edited)

    @pytest.mark.parametrize("name", sorted(FUZZ_BASES))
    @pytest.mark.parametrize("place", ["moves", "a", "gadgets"])
    @pytest.mark.parametrize("array", DIGIT_ARRAYS)
    def test_every_digit_array_text(self, name, place, array):
        text = FUZZ_BASES[name]
        if place == "a":  # K as long as a, so that a's own type decides
            count = array.count(",") + (array != "[]")
            text = _with_value(text, "K", "[" + ",".join(map(str, range(count))) + "]")
        text = _with_value(text, place, _digit_value(place, array))
        new, old = _message(transcript_from_json, text), _message(reference_from_json, text)
        if isinstance(old, str) and not old.startswith("transcript "):
            assert new == FIELD_ERRORS[place]  # the two readers word a type error apart
        else:  # json errors and missing keys read the same
            assert new == old

    @pytest.mark.parametrize("name", sorted(FUZZ_BASES))
    def test_a_document_cut_inside_a_digit_array(self, name):
        text = FUZZ_BASES[name]
        start, end = _value_spans(text, "a")[0]
        for cut in range(start, end):
            assert _message(transcript_from_json, text[:cut]) == _message(reference_from_json, text[:cut])
        with pytest.raises(json.JSONDecodeError):
            game._decode_ints("X[0,5", 1)

    @pytest.mark.parametrize("name", sorted(FUZZ_BASES))
    @pytest.mark.parametrize("place", ["attachments", "gadgets"])
    def test_every_edit_of_an_attachment_object(self, name, place):
        text = FUZZ_BASES[name]
        objects = _object_spans(text, _gadget_spans(text, place)[0])
        for start, end in (objects[0], objects[-1]):
            for edit in _attachment_edits(text[start:end]):
                edited = text[:start] + edit + text[end:]
                assert _read(transcript_from_json, edited) == _read(reference_from_json, edited)

    @pytest.mark.parametrize("encoding", ENCODINGS)
    def test_every_encoding_reads_as_json_loads_reads_it(self, encoding):
        data = _encoded(FUZZ_BASES["idle"], encoding)
        new = _read(transcript_from_json, data)
        assert new == _read(reference_from_json, data)
        assert (new == "rejected") == (encoding == "str-bom")


def test_reading_a_transcript_leaves_no_cyclic_garbage():
    """The reader's decoder dies by reference counting: with the collector off,
    a collection right after a read finds nothing to free."""
    text = transcript_to_json(GAMES["lemma-greedy_frontier-game"]())
    gc.collect()
    gc.disable()
    try:
        back = transcript_from_json(text)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert transcript_to_json(back) == text


class TestTeamSize:
    @pytest.mark.parametrize("k", [0, -1, "2", 2.0, None, True])
    def test_play_rejects_a_bad_team_size(self, k):
        with pytest.raises(InvalidParameterError, match="team size must be an integer >= 1"):
            play(make_explorer("greedy_frontier", k), fixed_tree_revealer(make_star(3)), k, 10)


@pytest.mark.parametrize("cap", [-1, "10", 10.0, None, True])
def test_play_rejects_a_bad_round_cap(cap):
    with pytest.raises(InvalidParameterError, match="round cap must be an integer >= 0"):
        play(make_explorer("greedy_frontier", 2), fixed_tree_revealer(make_star(3)), 2, cap)


class TestRoundLimit:
    """play never plays past game.MAX_ROUNDS and replay takes no longer game;
    the limit is patched small here."""

    def test_play_stops_with_a_resource_limit_error(self, monkeypatch):
        monkeypatch.setattr(game, "MAX_ROUNDS", 20)
        idle, path = make_explorer("idle", 1), fixed_tree_revealer(make_path(40))
        assert play(idle, path, 1, 20).outcome == Outcome(False, 20, TreeStats(41, 40, 40))
        with pytest.raises(ResourceLimitError, match="a game of more than 20 rounds is over the round limit"):
            play(idle, path, 1, 21)

    def test_a_game_that_ends_sooner_keeps_its_bytes(self, monkeypatch):
        def games():
            # a default cap far above the limit is written into the header as it is
            yield run_fixed_game(make_path(15), "single_dfs", 1)
            yield run_adversary_game(derive_params(4096, 1, 3, 541), "greedy_frontier")

        before = list(map(transcript_to_json, games()))
        monkeypatch.setattr(game, "MAX_ROUNDS", 15)
        assert list(map(transcript_to_json, games())) == before

    def test_replay_rejects_a_longer_transcript(self, monkeypatch):
        tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(make_path(10)), 1, 100)
        assert len(tr.rounds) == 10
        monkeypatch.setattr(game, "MAX_ROUNDS", 9)
        with pytest.raises(IntegrityError, match="transcript records more than 9 rounds"):
            replay(tr, revealer_of(tr))


class TestLocalView:
    def test_local_is_restriction_of_game_view(self):
        rng = random.Random(5)
        for _ in range(20):
            tree = random_tree(rng.randrange(2, 40), rng)
            state = GameState(tree.copy(), 2)
            game_view = ExplorerView(state, "game")
            local_view = ExplorerView(state, "local")
            revealed = set(local_view.reveal_log)
            assert revealed <= set(game_view.reveal_log)
            # exposed = visited plus children of visited
            expected = {0} | set(tree.children[0])
            assert revealed == expected
            for v in revealed:
                assert local_view.children(v) == (game_view.children(v) if state.visited[v] else [])

    def test_local_mode_games_still_finish(self):
        rng = random.Random(6)
        for _ in range(10):
            tree = random_tree(rng.randrange(2, 30), rng)
            tr = play(make_explorer("single_dfs", 1), fixed_tree_revealer(tree), 1, 4 * tree.n, view_mode="local")
            assert tr.outcome.finished
            assert tr.outcome.final_round <= 2 * (tree.n - 1)
            assert_transcript_invariants(tr)

    def test_monotone_visited_along_transcript(self):
        tree = make_star(5)
        tr = play(make_explorer("greedy_frontier", 2), fixed_tree_revealer(tree), 2, 50)
        seen = {0}
        for rec in tr.rounds:
            for v in rec.moves:
                seen.add(v)
            # every move targets a vertex that is visited afterwards
            assert set(rec.moves) <= seen


class TestViewArrays:
    @pytest.mark.parametrize("mode", ["game", "local"])
    def test_arrays_and_reveal_log_stay_live_as_the_tree_grows(self, mode):
        state = GameState(make_star(3), 2)
        view = ExplorerView(state, mode)
        # taken once, before any growth: the properties hand out live arrays
        parents, depths, branches, visited = view.parents, view.depths, view.branches, view.visited
        for moves, at in (([1, 0], 2), ([0, 3], 3), ([2, 0], 8)):
            # one round as play commits and observes it
            _commit_moves(state, moves)
            view.observe_moves()
            view.observe_attachments(_commit_attachments(state, gadgets_of((at, 2, 2))))
            tree = state.tree
            assert len(parents) == len(depths) == len(branches) == len(visited) == tree.n
            assert (parents, depths, branches, visited) == (tree.parent, tree.depth, tree.branch, state.visited)
            if mode == "game":
                assert view.reveal_log == range(tree.n)
        assert state.tree.n == 16
        assert visited[2] and not visited[4]
        if mode == "local":
            # in reveal order: 8 shows at once below 3, which was visited in
            # the round it grew; 4 waits for the first visit of its parent 2
            assert view.reveal_log == [0, 1, 2, 3, 8, 4]

    def test_local_log_takes_the_newly_visited_in_id_order(self):
        tree = make_star(9)
        below_9, below_2 = tree.add_child(9), tree.add_child(2)
        state = GameState(tree, 2)
        view = ExplorerView(state, "local")
        _commit_moves(state, [9, 2])
        # the set of first visits iterates 9 before 2; the log must not
        assert list(state.newly_visited) == [9, 2]
        view.observe_moves()
        assert view.reveal_log[-2:] == [below_2, below_9]

    def test_unknown_mode_is_an_invalid_parameter(self):
        with pytest.raises(InvalidParameterError, match="unknown view mode"):
            ExplorerView(GameState(make_star(1), 1), "global")
