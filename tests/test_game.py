"""Engine rules: moves, attachments, termination, transcripts, views."""

import json
import random

import pytest

from treexplore import (
    Attachment,
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
    replay_transcript,
    transcript_from_json,
    transcript_to_json,
    validate_moves,
)
from treexplore.errors import AttachmentViolation, IntegrityError, InvalidParameterError, MoveViolation
from treexplore.game import ExplorerView, apply_round
from treexplore.harness.runner import run_adversary_game

from conftest import assert_transcript_invariants, make_path, make_star, random_tree


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
        apply_round(state, [0, 0], [])
        assert state.round == 1
        assert state.visited_count == 1
        assert state.positions == (0, 0)

    def test_single_edge_explored(self):
        state = GameState(make_path(1), 1)
        apply_round(state, [1], [])
        assert sorted(v for v in range(2) if state.visited[v]) == [0, 1]
        assert is_explored(state)
        assert state.first_visit[1] == 1

    def test_attach_at_visited_vertex_rejected(self):
        state = GameState(make_path(2), 1)
        with pytest.raises(AttachmentViolation) as exc:
            apply_round(state, [1], [Attachment(at=0, path_len=0, leaf_count=2)])
        assert exc.value.vertex == 0

    def test_attach_at_vertex_visited_this_round_is_allowed(self):
        # eligibility is judged against the previous round's visited set
        state = GameState(make_path(2), 1)
        apply_round(state, [1], [Attachment(at=1, path_len=0, leaf_count=2)])
        assert state.tree.n == 5
        assert state.tree.children[1] == [2, 3, 4]

    def test_move_violation_carries_round(self):
        state = GameState(make_path(3), 1)
        with pytest.raises(MoveViolation) as exc:
            apply_round(state, [2], [])
        assert exc.value.round == 1


class TestIsExplored:
    def test_initial_single_edge(self):
        assert not is_explored(GameState(make_path(1), 1))

    def test_after_visiting_child(self):
        state = GameState(make_path(1), 1)
        apply_round(state, [1], [])
        assert is_explored(state)

    def test_growth_at_unvisited_leaf_unexplores_nothing_visited(self):
        state = GameState(make_path(2), 1)
        apply_round(state, [1], [Attachment(at=2, path_len=0, leaf_count=1)])
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
        state = replay_transcript(tr, initial_tree_of(tr))
        assert state.positions == tr.final_state.positions
        assert state.visited == tr.final_state.visited
        assert state.tree.parent == tr.final_state.tree.parent
        assert state.first_visit == tr.final_state.first_visit

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
            replay_transcript(transcript_from_json(json.dumps(doc)), initial_tree_of(tr))


def reference_to_json(transcript) -> str:
    """The writer's contract: one json.dumps of the whole document."""
    doc = {
        "params": transcript.params,
        "rounds": [
            {
                "t": r.t,
                "moves": r.moves,
                "attachments": [a.to_json_obj() for a in r.attachments],
                "newly_visited": r.newly_visited,
            }
            for r in transcript.rounds
        ],
        "checkpoints": [c.to_json_obj() for c in transcript.checkpoints],
        "outcome": {
            "finished": transcript.outcome.finished,
            "final_round": transcript.outcome.final_round,
            "n": transcript.outcome.final_stats.n,
            "height": transcript.outcome.final_stats.height,
        },
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def assert_stay_rounds_share(rounds):
    """Consecutive equal moves are one object; unequal ones are not."""
    for before, after in zip(rounds, rounds[1:]):
        assert (after.moves is before.moves) == (after.moves == before.moves)


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
        assert transcript_to_json(back) == text == reference_to_json(back)
        assert_stay_rounds_share(tr.rounds)
        assert_stay_rounds_share(back.rounds)
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
        apply_round(state, moves, [])
        moves[0] = 2
        assert state.positions == (1, 0)
        before = state.positions
        apply_round(state, [1, 0], [])
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
                RoundRecord(t=t, moves=moves, attachments=(), newly_visited=nv)
                for t, (moves, nv) in enumerate(rounds, start=1)
            ],
            checkpoints=[],
            outcome=Outcome(False, len(rounds), TreeStats(n=3, height=1, max_degree=2, root_ecc=1)),
        )
        text = transcript_to_json(tr)
        assert text == reference_to_json(tr)
        assert '"moves":[1.0,0]' in text and '"moves":[true,0]' in text


class TestTeamSize:
    @pytest.mark.parametrize("k", [0, -1, "2", 2.0, None])
    def test_play_rejects_a_bad_team_size(self, k):
        with pytest.raises(InvalidParameterError, match="team size must be an integer >= 1"):
            play(make_explorer("greedy_frontier", k), fixed_tree_revealer(make_star(3)), k, 10)


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
    def test_arrays_agree_with_accessors_as_the_tree_grows(self, mode):
        state = GameState(make_star(3), 2)
        view = ExplorerView(state, mode)
        # taken once, before any growth: the properties hand out live arrays
        parents, depths, branches, visited = view.parents, view.depths, view.branches, view.visited
        for moves, at in (([1, 0], 2), ([1, 2], 3), ([0, 4], 6)):
            apply_round(state, moves, [Attachment(at=at, path_len=2, leaf_count=2)])
            n = state.tree.n
            assert len(parents) == len(depths) == len(branches) == len(visited) == n
            for v in range(n):
                assert parents[v] == view.parent(v)
                assert depths[v] == view.depth(v)
                assert branches[v] == view.branch(v)
                assert visited[v] == view.is_visited(v)
        assert state.tree.n == 16
        assert visited[4] and not visited[5]

    def test_unknown_mode_is_an_invalid_parameter(self):
        with pytest.raises(InvalidParameterError, match="unknown view mode"):
            ExplorerView(GameState(make_star(1), 1), "global")
