"""The checkpoint layers' cost model, counted rather than timed.

A checkpoint round does a few passes in C over its candidates and
gadgets; its Python work grows with the agents and the distinct a-values
only. So does writing and reading a transcript, per round and per
checkpoint. ``sys.setprofile`` counts the Python frames of this package,
of the methods dataclasses and named tuples generate for its records, and
of ``json`` that each layer enters, on two instances with the same
team, 2^12 and 2^16 branches: a frame per candidate or gadget would
multiply the count by 16. Frames from elsewhere, such as a GC callback
or an ABC cache refill, come and go with the rest of the process.

The two walking explorers decide in C what grows with the tree: a
``phase_bfs`` phase start picks its targets with C filters over the
reveal log, and ``single_dfs`` reads only the children of agent 0's
vertex, so neither enters a frame per revealed vertex in a game view.
Nor does the local view: it extends its reveal log in C, at
construction and per round.

A commit costs Python work per agent it is handed: ``single_dfs`` and
``phase_bfs`` name their movers in a dict, so a round in which one of
4096 agents moves runs as many lines of ``game.py`` as one in which one
of 64 does, counted with ``sys.settrace``. A ``greedy_frontier`` round
whose targets all lie in branches no agent stands in runs a few lines of
``strategies.py`` per agent.

A lemma cell of a sweep builds T_0 once, for its play, and replays
nothing: its claims come from evidence gathered while it played. A
replay hands the commit the positions object itself for a round whose
moves are the previous round's, so a stay-put round is one identity test.

No layer keeps a Python object per gadget that the cyclic garbage
collector tracks: a round's gadgets are three int columns and a star's
leaves are a ``range`` below its tip. ``gc.get_count()`` counts the
tracked objects a stage leaves alive, on two instances whose gadget
counts differ 15-fold; one object per gadget would add thousands. Nor
does a read build and drop one: ``gc.callbacks`` counts the collections
it sets off, which would then grow with the gadgets.
"""

import gc
import json
import os
import sys

import treexplore

from treexplore import (
    CheckpointRevealer,
    ExplorerView,
    GameState,
    derive_params,
    play,
    transcript_from_json,
    transcript_to_json,
)
from treexplore import game, strategies
from treexplore.game import _commit_attachments, _commit_moves, replay
from treexplore.harness.runner import run_adversary_game
from treexplore.harness.sweep import run_sweep
from treexplore.harness.verify import Evidence, params_from_transcript, verify_transcript
from treexplore.strategies import GreedyFrontierExplorer, PhaseBfsExplorer, SingleDfsExplorer
from treexplore.tree import ROOT, make_path_star

K = 64  # agents; each one parks in a branch of its own in round 1


OWN_CODE = tuple(os.path.dirname(module.__file__) + os.sep for module in (treexplore, json))
GENERATED = "<string>"  # the file name of a generated __init__ or __new__


def python_calls(fn, *args):
    """fn(*args) and the number of frames of ``OWN_CODE`` or generated code it entered."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            filename = frame.f_code.co_filename
            calls += filename == GENERATED or filename.startswith(OWN_CODE)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


def calls_of(functions, fn, *args):
    """fn(*args) and how many times it entered each of ``functions``, by name."""
    names = {f.__code__: f.__name__ for f in functions}
    counts = dict.fromkeys(names.values(), 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            counts[names[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, counts


class _Parked:
    """Agent j steps to branch j + 1 in round 1 and stays there."""

    name = "parked"

    def next_moves(self, view):
        return tuple(range(1, K + 1))


def _counts(branches):
    params = derive_params(2 * branches, 1, 3, K)
    revealer = CheckpointRevealer(params)
    state = GameState(params.initial_tree(), K)
    counts = {}
    for t, moves in enumerate([range(1, K + 1)] * 3, start=1):
        _commit_moves(state, moves)
        if t in params.checkpoints:
            i = params.checkpoints.index(t) + 1
            record, counts[f"compute {i}"] = python_calls(revealer.compute, state, i)
            _commit_attachments(state, record.gadgets)
    transcript = play(_Parked(), CheckpointRevealer(params), K, params.round_floor)
    text, counts["write"] = python_calls(transcript_to_json, transcript)
    _, counts["read"] = python_calls(transcript_from_json, text)
    return counts, len(transcript.checkpoints[0].gadgets)


def test_frames_do_not_grow_with_candidates_or_gadgets():
    (small, small_gadgets), (big, big_gadgets) = _counts(1 << 12), _counts(1 << 16)
    assert big_gadgets > 4 * small_gadgets
    assert small.keys() == big.keys() == {"compute 1", "compute 2", "write", "read"}
    for layer in small:
        # ceil(alpha * |K|) takes a Newton step or two more on a longer count
        assert big[layer] <= small[layer] + 6, (layer, small, big)


def _first_decisions(branches):
    """Frames of round 1's decision on a T_0 of ``branches`` paths, per explorer."""
    tree = derive_params(2 * branches, 1, 3, K).initial_tree()
    counts = {}
    for explorer, k in ((PhaseBfsExplorer, tree.n), (SingleDfsExplorer, 1)):
        view = ExplorerView(GameState(tree, k))
        moves, counts[explorer.name] = python_calls(explorer(k).next_moves, view)
        named = moves.items() if isinstance(moves, dict) else enumerate(moves)
        assert any(target != view.positions[agent] for agent, target in named)
    return counts


def test_explorer_frames_do_not_grow_with_revealed_vertices():
    small, big = _first_decisions(1 << 12), _first_decisions(1 << 16)
    assert small == big, (small, big)


def lines_run(module, fn, *args):
    """fn(*args) and how many line events of ``module``'s file it runs."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename == module.__file__ else None

    sys.settrace(trace)
    try:
        result = fn(*args)
    finally:
        sys.settrace(None)
    return result, lines


def _commit_lines(k, moves):
    return lines_run(game, _commit_moves, GameState(make_path_star(4, 2), k), moves)[1]


def test_a_dict_commit_runs_no_line_per_agent_that_stays():
    assert _commit_lines(64, {0: 1}) == _commit_lines(4096, {0: 1})
    # the full form walks every agent, so the counter sees the team grow
    assert _commit_lines(4096, [1] + [ROOT] * 4095) > _commit_lines(64, [1] + [ROOT] * 63) + 4000


def _free_round_lines(k, parked):
    """Lines of ``strategies.py`` one greedy_frontier decision runs on a T_0 of
    8192 two-edge paths, with the k agents on the root or, if ``parked``, one
    on the head of each of the first k branches. Either way the first k
    unvisited vertices are heads of branches that hold no agent."""
    state = GameState(make_path_star(8192, 2), k)
    if parked:
        _commit_moves(state, range(1, 2 * k, 2))  # branch heads are the odd ids
    view = ExplorerView(state)
    explorer = GreedyFrontierExplorer(k)
    explorer._sync(view)  # the reveal log as earlier rounds would have read it
    moves, lines = lines_run(strategies, explorer.next_moves, view)
    assert all(map(int.__ne__, moves, view.positions))  # every agent is matched
    return lines


def test_a_free_greedy_round_runs_a_few_lines_per_agent():
    """A round whose targets all lie in branches no agent stands in matches
    target j to the j-th agent in (depth, index) order: the orders, the
    targets and the branch check are C passes, and each match is a few
    lines. The per-target matcher would run about 20 lines per agent."""
    for parked in (False, True):
        small, big = _free_round_lines(64, parked), _free_round_lines(4096, parked)
        assert big - small <= 4 * (4096 - 64), (parked, small, big)


def _local_view_frames(branches):
    """Frames of building a local view on a T_0 of ``branches`` two-edge paths,
    and of its ``observe_moves`` after K agents step into their own branches."""
    state = GameState(make_path_star(branches, 2), K)
    view, build = python_calls(ExplorerView, state, "local")
    assert len(view.reveal_log) == 1 + branches
    _commit_moves(state, range(1, 2 * K, 2))  # branch heads are the odd ids
    _, observe = python_calls(view.observe_moves)
    assert len(view.reveal_log) == 1 + branches + K
    return build, observe


def test_local_view_frames_do_not_grow_with_the_tree():
    assert _local_view_frames(1 << 12) == _local_view_frames(1 << 16)


def test_a_lemma_cell_builds_t0_once_and_replays_nothing():
    spec = {
        "revealer": "lemma",
        "explorers": ["idle", "single_dfs", {"name": "phase_bfs", "k": "n"}, "greedy_frontier"],
        "grid": [{"n": 4096, "L": 1, "m": 3, "k": 541}],
        "modes": ["repaired", "strict"],
        "caps": [1000],
    }
    text, counts = calls_of((make_path_star, replay), run_sweep, spec)
    assert text.count("\n") == 1 + 8
    assert counts == {"make_path_star": 8, "replay": 0}
    # the counter sees what a verify without evidence does: a second T_0 and a replay
    transcript = run_adversary_game(derive_params(4096, 1, 3, 541), "idle", cap=10)
    _, counts = calls_of((make_path_star, replay), verify_transcript, transcript)
    assert counts == {"make_path_star": 1, "replay": 1}


def test_a_stay_put_round_replays_by_identity(monkeypatch):
    """A round whose moves are the previous round's object hands the commit
    ``state.positions`` itself, so the stay-put test is one identity check
    rather than a comparison of k entries; the reader shares equal
    consecutive moves, so every round of a reloaded idle game after the
    first does."""
    transcript = run_adversary_game(derive_params(4096, 1, 3, 541), "idle", cap=10)
    back = transcript_from_json(transcript_to_json(transcript))
    commit, given = game._commit_moves, []

    def spy(state, moves):
        given.append(moves is state.positions)
        commit(state, moves)

    monkeypatch.setattr(game, "_commit_moves", spy)
    verify_transcript(back)
    assert given == [False] + [True] * 9


def tracked_growth(fn, *args):
    """fn(*args) and how many more objects the cyclic collector tracks after it
    than before, counted with the collector off."""
    gc.collect()
    gc.disable()
    try:
        before = gc.get_count()[0]
        result = fn(*args)
        return result, gc.get_count()[0] - before
    finally:
        gc.enable()


def _tracked_per_stage(instance):
    params = derive_params(*instance)
    transcript, play_ = tracked_growth(run_adversary_game, params, "greedy_frontier", 100)
    gadgets = sum(len(c.gadgets) for c in transcript.checkpoints)
    text = transcript_to_json(transcript)
    del transcript
    back, read = tracked_growth(transcript_from_json, text)
    # verify_transcript frees all it builds; its replay, with the grown tree held, shows what it keeps
    params = params_from_transcript(back)
    _, verify = tracked_growth(replay, back, CheckpointRevealer(params), Evidence(params))
    return gadgets, {"play": play_, "read": read, "verify": verify}


def test_no_tracked_object_per_gadget():
    (small_gadgets, small), (big_gadgets, big) = (
        _tracked_per_stage((4096, 1, 3, 541)),
        _tracked_per_stage((65536, 1, 4, 5878)),
    )
    assert (small_gadgets, big_gadgets) == (175, 2632)
    for stage in small:
        assert big[stage] < small[stage] + 100, (stage, small, big)


def collections_during(fn, *args):
    """How many collections, of any generation, the cyclic collector runs
    during fn(*args), with the collector on and nothing pending before."""
    started = []

    def count(phase, info):
        started.append(phase == "start")

    gc.collect()
    gc.callbacks.append(count)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(count)
    return sum(started)


def test_a_read_runs_no_more_collections_on_more_gadgets():
    """The reader builds no tracked object per gadget or per array entry, so a
    read with 15 times the gadgets sets off no more collections."""
    small, big = (
        transcript_to_json(run_adversary_game(derive_params(*instance), "greedy_frontier", 100))
        for instance in ((4096, 1, 3, 541), (65536, 1, 4, 5878))
    )
    assert collections_during(transcript_from_json, big) <= collections_during(transcript_from_json, small)
