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
"""

import json
import os
import sys

import treexplore

from treexplore import (
    CheckpointRevealer,
    GameState,
    derive_params,
    play,
    transcript_from_json,
    transcript_to_json,
)
from treexplore.game import _commit_attachments, _commit_moves

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
