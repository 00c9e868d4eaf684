"""Round-based two-player exploration game engine and its transcript format.

One game round: the explorer moves each agent along at most one edge,
newly reached vertices join the visited set, then the revealer may attach
subtrees at vertices that were unvisited at the end of the previous
round. The game ends at the start of the first round in which every
vertex of the current tree is visited.

This module owns the transcript: its records (rounds, checkpoints,
outcome), the writer and the reader. The writer and the reader are the
only code that spells a record's JSON layout, and the reader is the only
place that checks the type of a record field.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from operator import itemgetter, ne
from typing import Iterable, Protocol, Sequence

from .errors import (
    AttachmentViolation,
    GameRuleViolation,
    IntegrityError,
    InvalidParameterError,
    MoveViolation,
    ResourceLimitError,
    VertexNotFoundError,
)
from .tree import ROOT, RootedTree, TreeStats, attach_path_with_star

# the positions of a team are one tuple of k entries; this many agents play
# a full team on the largest initial tree
MAX_TEAM_SIZE = 1 << 23
# play keeps a RoundRecord of about 144 B per round even when no agent moves,
# so this many rounds stay within the 2 GiB that MAX_PATH_STAR_VERTICES budgets
MAX_ROUNDS = 1 << 23


def check_team_size(k: int) -> None:
    """ResourceLimitError for a team over ``MAX_TEAM_SIZE``, before anything that large is built."""
    if k > MAX_TEAM_SIZE:
        raise ResourceLimitError(f"a team of more than {MAX_TEAM_SIZE} agents is over the size limit")


@dataclass(frozen=True, slots=True)
class Gadgets:
    """The revealer's move in one round: gadget j is a path of ``path_len[j]``
    edges hung below vertex ``at[j]``, with ``leaf_count[j]`` leaves at its end.

    Three int columns, so a round holds no object per gadget and records
    compare in C. ``len`` is the gadget count; every round without gadgets
    holds ``NO_GADGETS``.
    """

    at: tuple[int, ...]
    path_len: tuple[int, ...]
    leaf_count: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.at)

    def rows(self) -> Iterable[tuple[int, int, int]]:
        """(at, path_len, leaf_count) of each gadget, in order."""
        return zip(self.at, self.path_len, self.leaf_count)


NO_GADGETS = Gadgets((), (), ())


@dataclass(frozen=True)
class RoundRecord:
    t: int
    moves: tuple[int, ...]
    attachments: Gadgets
    newly_visited: int


@dataclass(frozen=True)
class CheckpointRecord:
    """Everything the adversary's revealer computed at one checkpoint."""

    i: int
    K: tuple[int, ...]  # one candidate per branch, id-ascending
    a: tuple[int, ...]  # a[j] is the agent count in K[j]'s branch
    S: tuple[int, ...]
    gadgets: Gadgets


@dataclass(frozen=True)
class Outcome:
    finished: bool
    final_round: int
    final_stats: TreeStats


@dataclass
class Transcript:
    """Complete deterministic record of one game; replayable bit for bit."""

    params: dict
    rounds: list[RoundRecord]
    checkpoints: list[CheckpointRecord]  # from the revealer, if any
    outcome: Outcome
    # convenience handle set by play(); not serialized, absent after a reload
    final_state: "GameState | None" = None


class GameState:
    """The live triple (tree, visited set, agent assignment) plus bookkeeping.

    ``positions`` is the tuple of the last committed moves; a round in
    which no agent moves keeps the same tuple object. ``newly_visited``
    holds the vertices first reached by the current round's moves;
    revealers consult it because attachment eligibility is judged against
    the visited set from the end of the previous round.

    Every position is visited, and so is every ancestor of a visited
    vertex: the root starts visited, a move enters a child or the parent
    of a position, and an attachment creates unvisited vertices.
    """

    __slots__ = (
        "tree",
        "positions",
        "visited",
        "visited_count",
        "round",
        "newly_visited",
    )

    def __init__(self, tree: RootedTree, k: int):
        self.tree = tree
        self.positions: tuple[int, ...] = (ROOT,) * k
        self.visited = bytearray(tree.n)
        self.visited[ROOT] = 1
        self.visited_count = 1
        self.round = 0
        self.newly_visited: frozenset[int] = frozenset()

    @property
    def k(self) -> int:
        return len(self.positions)


def is_explored(state: GameState) -> bool:
    return state.visited_count == state.tree.n


def _scan_moves(state: GameState, proposed: Sequence[int] | dict[int, int]) -> MoveViolation | frozenset[int]:
    """One pass over a joint move: its first violation, or the set of vertices
    it visits first; ``state`` is not changed.

    A joint move is the full sequence of k positions, or a ``dict`` from
    agent index to target that names some agents; every agent it does not
    name stays. A malformed move is reported before any entry: a sequence
    of the wrong length, or a key that is not a plain ``int`` in
    ``0..k-1`` (checked in C). Then the entries are scanned in order, a
    sequence's by agent index and a dict's in the dict's own order, so
    the first offending entry is reported. A target must be an int, and equal the agent's
    current vertex or be its parent or one of its children. Positions are
    ints, so an entry that is its agent's position object passes without
    a type test. A move down is tested first; a move up needs no visited
    lookup, as the parent of a visited vertex is visited.
    """
    positions = state.positions
    k = len(positions)
    if type(proposed) is dict:
        agents = proposed.keys()
        if proposed and ({*map(type, agents)} != {int} or min(agents) < 0 or max(agents) >= k):
            bad = next(a for a in agents if type(a) is not int or not 0 <= a < k)
            return MoveViolation(-1, -1, -1, message=f"joint move names {bad!r}, not one of the agents 0..{k - 1}")
        origins, targets = map(positions.__getitem__, agents), proposed.values()
    else:
        if len(proposed) != k:
            return MoveViolation.wrong_length(len(proposed), k)
        agents, origins, targets = range(k), positions, proposed
    n = state.tree.n
    parent = state.tree.parent
    visited = state.visited
    newly = []
    for origin, target in zip(origins, targets):
        if target is origin:
            continue
        if type(target) is not int:  # before the stay test: True == 1 and 1.0 == 1
            agent = next(a for a, v in zip(agents, targets) if type(v) is not int)
            message = f"agent {agent} proposed {target!r}, not an integer vertex id"
            return MoveViolation(agent, -1, -1, message=message)
        if target == origin:
            continue
        if 0 <= target < n and parent[target] == origin:
            if not visited[target]:
                newly.append(target)
        elif parent[origin] != target:  # the root's parent is None, no int
            break
    else:
        return frozenset(newly)
    # an earlier entry with the same (origin, target) would have failed first,
    # so the first entry with this pair is the one that broke the rule
    pairs = zip(map(positions.__getitem__, agents), targets)
    agent = next(a for a, pair in zip(agents, pairs) if pair == (origin, target))
    return MoveViolation(agent, origin, target)


def validate_moves(state: GameState, proposed: Sequence[int] | dict[int, int]) -> MoveViolation | None:
    """Check one joint move, in either form ``_scan_moves`` takes; returns
    the first violation (the scan ``_commit_moves`` acts on), or None if
    legal."""
    scan = _scan_moves(state, proposed)
    return scan if isinstance(scan, MoveViolation) else None


def _commit_moves(state: GameState, moves: Sequence[int] | dict[int, int]) -> None:
    """Advance one round: move agents and add their first visits, or raise.

    ``moves`` is either form ``_scan_moves`` takes. The new positions
    become ``state.positions`` as one tuple; when everyone stays, the
    previous tuple is kept, so stay-put rounds share one object. A full
    move in which everyone stays is one tuple comparison. Otherwise one
    scan decides legality and the first visits, and ``state`` changes
    only once the whole move is legal. A dict costs Python work per named
    agent only: the new tuple is ``positions`` with its entries assigned
    in C.
    """
    t = state.round + 1
    positions = state.positions
    if type(moves) is not dict:
        moves = tuple(moves)
        if moves is positions or moves == positions:
            # everyone stays; positions are always visited already
            state.newly_visited = frozenset()
            state.round = t
            return
    newly = _scan_moves(state, moves)
    if isinstance(newly, MoveViolation):
        newly.round = t
        raise newly
    if type(moves) is not dict:
        positions = moves
    elif any(map(ne, map(positions.__getitem__, moves), moves.values())):  # a named agent moves
        moved = list(positions)
        deque(map(moved.__setitem__, moves, moves.values()), maxlen=0)  # assigns in C
        positions = tuple(moved)
    visited = state.visited
    for v in newly:
        visited[v] = 1
    state.visited_count += len(newly)
    state.positions = positions
    state.newly_visited = newly
    state.round = t


def _commit_attachments(state: GameState, gadgets: Gadgets) -> list[int]:
    """Apply revealer attachments; returns the created ids in order.

    Targets must belong to the tree as it stood at the start of the round
    and must not have been visited before the round began.
    """
    tree = state.tree
    n_before = tree.n
    visited, newly = state.visited, state.newly_visited
    created: list[int] = []
    for at, path_len, leaf_count in gadgets.rows():
        if not (0 <= at < n_before):
            raise VertexNotFoundError(f"attachment target {at} not in the previous round's tree")
        if visited[at] and at not in newly:
            raise AttachmentViolation(f"attachment at visited vertex {at}", at, round=state.round)
        created.extend(attach_path_with_star(tree, at, path_len, leaf_count))
    if created:
        visited.extend(b"\x00" * (tree.n - n_before))
    return created


VIEW_MODES = ("game", "local")


class ExplorerView:
    """What a strategy is allowed to see.

    In ``game`` mode the full current tree, visited set and positions are
    exposed. In ``local`` mode a vertex is exposed exactly when it is the
    root or its parent is visited: children of an unvisited vertex stay
    hidden until it is first visited.

    ``reveal_log`` lists the exposed vertices in the order they were
    exposed and only ever grows; in game mode it is ``range(n)``.
    Strategies track how much of it they have consumed and stay
    incremental. Everything else is read from the live arrays, bound
    once: the tree grows its lists in place and the engine extends the
    visited set in place. Never mutate them.
    """

    __slots__ = ("_state", "_log", "children", "parents", "depths", "branches", "visited")

    def __init__(self, state: GameState, mode: str = "game"):
        if mode not in VIEW_MODES:
            raise InvalidParameterError(f"unknown view mode {mode!r}")
        tree = state.tree
        self._state = state
        self.parents = tree.parent
        self.depths = tree.depth
        # the depth-1 ancestor of each vertex, -1 for the root
        self.branches = tree.branch
        self.visited = visited = state.visited
        # children(v), empty for a leaf and a hidden vertex: in game mode the tree's
        # list answers in C, as it only grows; neither form refers back to the view
        children = tree.children
        self.children = children.__getitem__
        self._log: list[int] | None = None
        if mode == "local":
            self.children = lambda v: children[v] if visited[v] else []
            self._log = [ROOT, *children[ROOT]]

    # -- engine-side maintenance -------------------------------------------
    # No vertex is logged twice: a vertex is newly visited once, a created
    # vertex is new, and a vertex reached in the round its gadget grows is
    # observed before the attachment commits.

    def observe_moves(self) -> None:
        if self._log is not None:
            # every newly visited vertex is visited, so the tree's lists serve;
            # sorted: the reveal log feeds strategy tie-breaking
            children = self._state.tree.children.__getitem__
            self._log.extend(chain.from_iterable(map(children, sorted(self._state.newly_visited))))

    def observe_attachments(self, created: Sequence[int]) -> None:
        if self._log is not None:
            # a created vertex is exposed only if its parent is visited
            shown = map(self.visited.__getitem__, map(self.parents.__getitem__, created))
            self._log.extend(compress(created, shown))

    # -- strategy-facing queries -------------------------------------------

    @property
    def reveal_log(self) -> Sequence[int]:
        return range(self._state.tree.n) if self._log is None else self._log

    @property
    def round(self) -> int:
        return self._state.round

    @property
    def positions(self) -> tuple[int, ...]:
        return self._state.positions


class Explorer(Protocol):
    """The agents' side of the game.

    ``next_moves`` returns the full sequence of k positions, or a dict
    from agent index to target that names only the agents that move;
    every agent it does not name stays. A round costs the engine Python
    work per entry returned, so an explorer that moves few of many
    agents names them.
    """

    name: str

    def next_moves(self, view: ExplorerView) -> Sequence[int] | dict[int, int]: ...


class Revealer(Protocol):
    """The tree's side of the game.

    ``initial_tree`` returns a fresh tree on every call: ``play`` takes it
    over and grows it in place, so a revealer must not hand out a tree it
    keeps or one its caller still holds.
    """

    name: str

    def initial_tree(self) -> RootedTree: ...

    def reveal(self, state: GameState, t: int) -> tuple[Gadgets, CheckpointRecord | None]: ...


def play(
    explorer: Explorer,
    revealer: Revealer,
    k: int,
    round_cap: int,
    view_mode: str = "game",
    params_meta: dict | None = None,
    observer=None,
) -> Transcript:
    """Run one full game and return its transcript.

    Termination is checked at the start of each round, so ``final_round``
    counts completed move rounds. ``round_cap`` bounds the game length;
    hitting it leaves ``finished`` false. A game that would play past
    ``MAX_ROUNDS`` raises ResourceLimitError instead. A round in which no
    agent moves records the previous round's moves tuple itself.
    ``observer.moved(state, rec)`` runs after a round's moves commit and
    before its attachments, ``observer.attached(state, rec, created)``
    after them. ``replay`` is this loop on a transcript's recorded moves.
    The header's fields are null where play cannot know them; ``params_meta``
    overrides them, and ``adversary.revealer_of`` reads the header back.
    """
    if type(round_cap) is not int or round_cap < 0:
        raise InvalidParameterError(f"round cap must be an integer >= 0 (got {round_cap!r})")
    if type(k) is not int or k < 1:
        raise InvalidParameterError(f"team size must be an integer >= 1 (got {k!r})")
    check_team_size(k)
    state = GameState(revealer.initial_tree(), k)
    # the header, in this key order
    revealer_name = getattr(revealer, "name", revealer.__class__.__name__)
    params = dict(
        explorer=getattr(explorer, "name", explorer.__class__.__name__), revealer=revealer_name, mode=None,
        view=view_mode, n=None if revealer_name == "lemma" else state.tree.n, L=None, m=None, k=k, cap=round_cap,
    )
    params.update(params_meta or ())
    if params["revealer"] != "lemma" and "tree" not in params:
        # adversary trees are derivable from (n, L, m); embed anything else
        params["tree"] = {"n": state.tree.n, "parent": list(state.tree.parent)}
    rounds: list[RoundRecord] = []
    checkpoints: list[CheckpointRecord] = []
    view = ExplorerView(state, mode=view_mode)
    stop = min(round_cap, MAX_ROUNDS)
    while True:
        if is_explored(state):
            finished = True
            break
        if state.round >= stop:
            if stop < round_cap:
                raise ResourceLimitError(f"a game of more than {MAX_ROUNDS} rounds is over the round limit")
            finished = False
            break
        t = state.round + 1
        moves = explorer.next_moves(view)
        _commit_moves(state, moves)
        view.observe_moves()
        attachments, record = revealer.reveal(state, t)
        rec = RoundRecord(t, state.positions, attachments, len(state.newly_visited))
        if observer is not None:
            observer.moved(state, rec)
        created = _commit_attachments(state, rec.attachments)
        view.observe_attachments(created)
        if observer is not None:
            observer.attached(state, rec, created)
        if record is not None:
            checkpoints.append(record)
        rounds.append(rec)
    outcome = Outcome(finished=finished, final_round=state.round, final_stats=state.tree.stats())
    return Transcript(
        params=params, rounds=rounds, checkpoints=checkpoints, outcome=outcome, final_state=state
    )


class _Recorded:
    """Play's explorer and revealer in ``replay``: the recorded moves, and the
    recorded attachments and checkpoint records once they match the
    revealer's, the n-th record against the n-th checkpoint that fires."""

    def __init__(self, transcript: Transcript, revealer: Revealer):
        self.rounds, self.records, self.revealer = transcript.rounds, transcript.checkpoints, revealer
        self.fired = 0

    def initial_tree(self) -> RootedTree:
        return self.revealer.initial_tree()

    def next_moves(self, view: ExplorerView) -> Sequence[int]:
        t = view.round + 1
        rec = self.rounds[t - 1]
        if rec.t != t:
            raise IntegrityError(f"round records out of order at t={rec.t!r}", round=t)
        # the previous round's moves object equals the positions it committed,
        # which makes the stay-put test one identity check
        return view.positions if t > 1 and rec.moves is self.rounds[t - 2].moves else rec.moves

    def reveal(self, state: GameState, t: int) -> tuple[Gadgets, CheckpointRecord | None]:
        rec, seen = self.rounds[t - 1], len(state.newly_visited)
        if rec.newly_visited != seen:
            raise IntegrityError(f"round {t}: recorded {rec.newly_visited!r} new visits, replay saw {seen}", round=t)
        gadgets, expected = self.revealer.reveal(state, t)
        if expected is None:
            if rec.attachments != gadgets:
                raise IntegrityError(f"round {t} has attachments outside any checkpoint", round=t)
            return rec.attachments, None
        i = expected.i
        if self.fired == len(self.records):
            raise IntegrityError(f"checkpoint {i} fired at round {t} but has no record", round=t)
        record = self.records[self.fired]
        self.fired += 1
        if record != expected:
            raise IntegrityError(f"checkpoint {i} record does not match its recomputation at round {t}", round=t)
        if rec.attachments != gadgets:
            raise IntegrityError(f"round {t} attachments differ from checkpoint {i} gadgets", round=t)
        # the recorded objects, so that the recomputed ones are freed
        return rec.attachments, record


def replay(transcript: Transcript, revealer: Revealer, observer=None) -> GameState:
    """``play`` with the recorded moves against ``revealer``; returns the end state.

    Raises IntegrityError for anything ``play`` could not have written with
    that revealer: more than ``MAX_ROUNDS`` rounds, a round out of order,
    an illegal move, a wrong newly-visited count, attachments or checkpoint
    records other than the revealer's (missing, out of order or left over),
    a round after the tree was fully explored, an outcome that disagrees
    with the replayed state, or one that breaks the transcript's cap. The
    record fields' types are the reader's to check (see
    ``transcript_from_json``). ``observer`` gets play's hooks.
    """
    k, cap = transcript.params.get("k"), transcript.params.get("cap")
    if type(k) is not int or k < 1 or type(cap) is not int:
        raise IntegrityError(f"transcript params need an integer k >= 1 and cap (got k={k!r}, cap={cap!r})")
    if k > MAX_TEAM_SIZE:  # play refuses such a team, so it wrote no such transcript
        raise IntegrityError(f"transcript params name a team of more than {MAX_TEAM_SIZE} agents")
    if len(transcript.rounds) > MAX_ROUNDS:  # nor a game this long
        raise IntegrityError(f"transcript records more than {MAX_ROUNDS} rounds")
    player = _Recorded(transcript, revealer)
    try:
        played = play(player, player, k, len(transcript.rounds), params_meta=transcript.params, observer=observer)
    except GameRuleViolation as exc:
        raise IntegrityError(f"replay failed at round {exc.round}: {exc}", round=exc.round) from exc
    state, out = played.final_state, transcript.outcome
    if state.round < len(transcript.rounds):  # play stops once the tree is explored
        t = state.round + 1
        raise IntegrityError(f"round {t} is recorded after the tree was fully explored", round=t)
    for name, recorded, replayed in (
        ("finished", out.finished, played.outcome.finished),
        ("final_round", out.final_round, state.round),
        ("n", out.final_stats.n, state.tree.n),
        ("height", out.final_stats.height, state.tree.height()),
    ):
        if recorded != replayed:
            raise IntegrityError(f"outcome {name} {recorded!r} != replayed {replayed!r}")
    # play's stopping rules: it never plays past the cap and stops short of it only when finished
    if state.round > cap:
        raise IntegrityError(f"outcome final_round {state.round} is past the cap {cap}")
    if not played.outcome.finished and state.round != cap:
        raise IntegrityError(f"game stopped unfinished at round {state.round}, before the cap {cap}")
    extra = transcript.checkpoints[player.fired :]
    if extra:
        raise IntegrityError(f"checkpoint records {[rec.i for rec in extra]} have no matching rounds")
    return state


# -- transcript serialization ----------------------------------------------


# encodes every piece of a transcript exactly as json.dumps with these separators
_encode = json.JSONEncoder(separators=(",", ":")).encode


_ATTACHMENT_JSON = '{"at":%d,"path_len":%d,"leaves":%d}'


def _int_attachments_text(gadgets: Gadgets) -> str:
    """The list of attachment objects as the encoder writes plain-int fields."""
    return "[" + ",".join(map(_ATTACHMENT_JSON.__mod__, gadgets.rows())) + "]"


def _attachments_text(gadgets: Gadgets) -> str:
    """The encoded list of attachment objects. When every field is a plain
    int (tested in C), each object is one %-format, which writes an int as
    the encoder does; anything else, such as ``1.0`` or ``True``, goes to
    the encoder."""
    if set(map(type, chain(gadgets.at, gadgets.path_len, gadgets.leaf_count))) <= {int}:
        return _int_attachments_text(gadgets)
    return _encode([{"at": at, "path_len": p, "leaves": c} for at, p, c in gadgets.rows()])


def transcript_to_json(transcript: Transcript) -> str:
    """Compact single-line JSON, keys in a fixed order, ending in one LF.

    The text equals ``json.dumps(doc, separators=(",", ":")) + "\n"`` of
    the document with keys params, rounds, checkpoints and outcome. It is
    assembled from pieces that the C encoder makes, or for attachments
    with plain-int fields a %-format (see ``_attachments_text``), and
    joined once. Each
    value is encoded once per object, not per use: a round whose moves are
    the very tuple of the round before reuses that round's encoded moves,
    and a checkpoint whose gadgets are the very object of a round's
    attachments reuses that round's encoded attachments. The test is
    identity, not equality, since ``1.0 == 1`` and ``True == 1`` encode
    differently.
    """
    parts = ['{"params":', _encode(transcript.params), ',"rounds":[']
    last_moves = moves_text = None
    attachments_text = {}  # id of a round's non-empty gadgets -> their encoded text
    sep = ""
    for r in transcript.rounds:
        if r.moves is not last_moves:
            last_moves, moves_text = r.moves, _encode(r.moves)
        if r.attachments:
            text = attachments_text[id(r.attachments)] = _attachments_text(r.attachments)
        else:
            text = "[]"
        parts += (
            sep,
            '{"t":',
            _encode(r.t),
            ',"moves":',
            moves_text,
            ',"attachments":',
            text,
            ',"newly_visited":',
            _encode(r.newly_visited),
            "}",
        )
        sep = ","
    parts.append('],"checkpoints":[')
    sep = ""
    for c in transcript.checkpoints:
        text = attachments_text.get(id(c.gadgets))
        if text is None:
            text = _attachments_text(c.gadgets)
        parts += (
            sep,
            '{"i":',
            _encode(c.i),
            ',"K":',
            _encode(c.K),
            ',"a":',
            _encode(c.a),
            ',"S":',
            _encode(c.S),
            ',"gadgets":',
            text,
            "}",
        )
        sep = ","
    outcome = transcript.outcome
    parts += (
        '],"outcome":',
        _encode(
            {
                "finished": outcome.finished,
                "final_round": outcome.final_round,
                "n": outcome.final_stats.n,
                "height": outcome.final_stats.height,
            }
        ),
        "}\n",
    )
    return "".join(parts)


# -- transcript reading ------------------------------------------------------

_skip_ws = re.compile(r"[ \t\n\r]*").match  # the whitespace json accepts
_decode_value = json.JSONDecoder().raw_decode  # the C scanner, one value at s[i]


def _decode_array(s: str, i: int, item) -> tuple[object, int]:
    """The value at ``s[i]``; in an array, ``item(s, i)`` decodes each element.

    Any other value goes to the C scanner whole.
    """
    if not s.startswith("[", i):
        return _decode_value(s, i)
    values = []
    i = _skip_ws(s, i + 1).end()
    if s.startswith("]", i):
        return values, i + 1
    while True:
        value, i = item(s, i)
        values.append(value)
        i = _skip_ws(s, i).end()
        if s.startswith("]", i):
            return values, i + 1
        if not s.startswith(",", i):
            raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
        i = _skip_ws(s, i + 1).end()


def _decode_object(s: str, i: int, fields: dict) -> tuple[object, int]:
    """The value at ``s[i]``; in an object, ``fields`` maps a key to its value decoder.

    Any other value, and the value of any other key, goes to the C scanner.
    """
    if not s.startswith("{", i):
        return _decode_value(s, i)
    obj = {}
    i = _skip_ws(s, i + 1).end()
    if s.startswith("}", i):
        return obj, i + 1
    while True:
        if not s.startswith('"', i):
            raise json.JSONDecodeError("Expecting property name enclosed in double quotes", s, i)
        key, i = json.decoder.scanstring(s, i + 1)
        i = _skip_ws(s, i).end()
        if not s.startswith(":", i):
            raise json.JSONDecodeError("Expecting ':' delimiter", s, i)
        i = _skip_ws(s, i + 1).end()
        obj[key], i = fields.get(key, _decode_value)(s, i)
        i = _skip_ws(s, i).end()
        if s.startswith("}", i):
            return obj, i + 1
        if not s.startswith(",", i):
            raise json.JSONDecodeError("Expecting ',' delimiter", s, i)
        i = _skip_ws(s, i + 1).end()


# every JSON value but an int holds one of these: a string ", a float . e or E,
# true, false, null and Infinity an e or n, NaN an N, an array [ and an object {
_NOT_INT = '.eE"nN[{'
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _decode_ints(s: str, i: int) -> tuple[object, int]:
    """The value at ``s[i]``; an array whose text inside the brackets has none
    of ``_NOT_INT``, so every element is a plain int, is a tuple.

    The text ``[d,d,...,d]``, each ``d`` one ASCII digit, is read by one byte
    translation; any other text (spaces, ``-0``, ``01``, ``10``, nested
    values, no ``]``) goes to the C scanner.
    """
    end = s.find("]", i + 1) if s.startswith("[", i) else -1
    if end > i and (end - i) % 2 == 0 and s.count(",", i, end) == (end - i) // 2 - 1:
        digits = s[i + 1 : end : 2]
        if digits.isascii() and digits.isdigit():
            return tuple(digits.encode().translate(_DIGIT_VALUES)), end + 1
    value, end = _decode_value(s, i)
    if type(value) is list and all(s.find(c, i + 1, end - 1) < 0 for c in _NOT_INT):
        return tuple(value), end
    return value, end


def _decode_attachments(s: str, i: int) -> tuple[object, int]:
    """The value at ``s[i]``; the writer's text of plain-int attachments is ``Gadgets``.

    Up to its first ``]``, that text without keys and braces is a flat int
    array, sliced into the columns; they are kept if the writer's format
    gives the exact text back. ``1.0``, ``-0``, a space or another key order
    goes to the C scanner whole.
    """
    if s.startswith('[{"at":', i):
        end = s.find("]", i) + 1
        text = s[i:end]
        flat = text.replace('{"at":', "").replace(',"path_len":', ",").replace(',"leaves":', ",").replace("}", "")
        try:
            values = _decode_ints(flat, 0)[0]
        except ValueError:  # no array, or an int over json's digit limit
            values = None
        if type(values) is tuple:
            gadgets = Gadgets(values[0::3], values[1::3], values[2::3])
            if _int_attachments_text(gadgets) == text:
                return gadgets, end
    return _decode_value(s, i)


class _TranscriptDecoder:
    """``json.loads`` of a transcript that decodes each repeated array once.

    The top-level object, its ``rounds`` array and its ``checkpoints``
    array are walked here; every other value goes to the C scanner, which
    types ``moves``, ``K``, ``a`` and ``S`` (``_decode_ints``) and the
    attachments (``_decode_attachments``) from their text. The same text
    always decodes to the same value, so two rules may skip text without
    changing what is read:

    - a round's ``moves`` whose text starts with the exact text of the
      previous moves array is that array's list;
    - a checkpoint's ``gadgets`` whose text starts with the exact text of
      the next unclaimed non-empty round ``attachments`` is that round's
      value.

    An array text ends at its own closing bracket, so a prefix match is a
    whole value. Whitespace, key order, duplicate keys (the last one wins)
    and error messages follow ``json.loads``.
    """

    def __init__(self):
        self.moves_text = None  # text of the last moves array, and its value
        self.moves = None
        self.attachments = []  # (text, value) of each non-empty attachments array
        self.claimed = 0  # how many of those a checkpoint's gadgets have taken

    def document(self, s: str):
        # these hold bound methods: kept on self, they would make it cyclic garbage
        round_fields = {"moves": self.moves_value, "attachments": self.attachments_value}
        round_ = partial(_decode_object, fields=round_fields)
        checkpoint_fields = {"K": _decode_ints, "a": _decode_ints, "S": _decode_ints, "gadgets": self.gadgets_value}
        checkpoint = partial(_decode_object, fields=checkpoint_fields)
        fields = {
            "rounds": partial(_decode_array, item=round_),
            "checkpoints": partial(_decode_array, item=checkpoint),
        }
        doc, i = _decode_object(s, _skip_ws(s, 0).end(), fields)
        i = _skip_ws(s, i).end()
        if i != len(s):
            raise json.JSONDecodeError("Extra data", s, i)
        return doc

    def moves_value(self, s: str, i: int):
        text = self.moves_text
        if text is not None and s.startswith(text, i):
            return self.moves, i + len(text)
        value, end = _decode_ints(s, i)
        if s.startswith("[", i):
            self.moves_text, self.moves = s[i:end], value
        return value, end

    def attachments_value(self, s: str, i: int):
        value, end = _decode_attachments(s, i)
        if value and s.startswith("[", i):
            self.attachments.append((s[i:end], value))
        return value, end

    def gadgets_value(self, s: str, i: int):
        if self.claimed < len(self.attachments):
            text, value = self.attachments[self.claimed]
            if s.startswith(text, i):
                self.claimed += 1
                return value, i + len(text)
        return _decode_attachments(s, i)


def _load_transcript_json(text: str | bytes):
    """``json.loads(text)``, with repeated arrays decoded once (see ``_TranscriptDecoder``).

    Bytes are decoded as ``json.loads`` decodes them. The decoded string
    is dropped on return, before any record is built.
    """
    if isinstance(text, str):
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    else:
        text = text.decode(json.detect_encoding(text), "surrogatepass")
    return _TranscriptDecoder().document(text)


_attachment_fields = tuple(map(itemgetter, ("at", "path_len", "leaves")))


def _require_ints(where: str, **fields) -> None:
    for name, value in fields.items():
        if type(value) is not int:
            raise IntegrityError(f"{where}: '{name}' must be an integer")


def _read_attachments(listed, where: str) -> Gadgets:
    """Gadgets as decoded, or from a list of objects whose fields are plain
    ints, each column fetched and type-tested in C: no Python step per attachment."""
    if type(listed) is Gadgets:
        return listed
    if type(listed) is list:
        if not listed:
            return NO_GADGETS
        columns = [tuple(map(field, listed)) for field in _attachment_fields]
        if set(map(type, chain.from_iterable(columns))) <= {int}:
            return Gadgets(*columns)
    raise IntegrityError(f"{where} must be a list of objects with integer 'at', 'path_len' and 'leaves'")


def _read_rounds(docs: list) -> list[RoundRecord]:
    """Round records from their decoded JSON; equal consecutive moves share one tuple.

    Moves must be an int array, which the decoder makes a tuple, or equal
    the moves before: such a round replays as a stay-put round, which
    ``_commit_moves`` judges by equality.
    """
    rounds = []
    moves = None
    for index, r in enumerate(docs):
        mv = r["moves"]
        if type(mv) is tuple:
            if mv is not moves and mv != moves:
                moves = mv
        elif moves is None or mv != list(moves):
            raise IntegrityError(f"round record {index} has moves that are not a list of integers")
        t, newly_visited = r["t"], r["newly_visited"]
        _require_ints(f"round record {index}", t=t, newly_visited=newly_visited)
        attachments = _read_attachments(r["attachments"], f"round record {index}: 'attachments'")
        rounds.append(RoundRecord(t, moves, attachments, newly_visited))
    return rounds


def _read_checkpoints(docs: list) -> list[CheckpointRecord]:
    """Checkpoint records from their decoded JSON; ``K``, ``a`` and ``S``
    are int arrays, tuples from the decoder, and ``a`` is as long as ``K``."""
    checkpoints = []
    for index, c in enumerate(docs):
        i, K, a, S = c["i"], c["K"], c["a"], c["S"]
        _require_ints(f"checkpoint record {index}", i=i)
        for name, values in (("K", K), ("a", a), ("S", S)):
            if type(values) is not tuple:
                raise IntegrityError(f"checkpoint {i}: '{name}' must be a list of integers")
        if len(a) != len(K):
            raise IntegrityError(f"checkpoint {i}: 'a' must be a list of {len(K)} counts aligned with 'K'")
        gadgets = _read_attachments(c["gadgets"], f"checkpoint {i}: 'gadgets'")
        checkpoints.append(CheckpointRecord(i, K, a, S, gadgets))
    return checkpoints


def transcript_from_json(text: str | bytes) -> Transcript:
    """Parse a transcript; malformed input raises IntegrityError with a one-line message.

    Accepts exactly what ``json.loads`` accepts. This is the one place that
    checks the type of a record field: ``finished`` is a bool, every other
    field a plain int or a list of them (see ``_read_rounds`` for moves).
    Rounds with equal consecutive moves share one tuple, and a checkpoint
    whose gadgets repeat its round's attachments in the writer's text
    shares that round's gadgets.
    """
    try:
        doc = _load_transcript_json(text)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise IntegrityError(f"transcript is not valid JSON: {exc}") from exc
    except RecursionError:
        raise IntegrityError("transcript is not valid JSON: nested too deeply") from None
    try:
        rounds = _read_rounds(doc["rounds"])
        checkpoints = _read_checkpoints(doc.get("checkpoints", []))
        out = doc["outcome"]
        finished, final_round, n, height = out["finished"], out["final_round"], out["n"], out["height"]
        if type(finished) is not bool:
            raise IntegrityError("outcome: 'finished' must be a boolean")
        _require_ints("outcome", final_round=final_round, n=n, height=height)
        params = doc["params"]
    except KeyError as exc:
        raise IntegrityError(f"transcript is missing key {exc}") from exc
    except TypeError as exc:
        raise IntegrityError(f"transcript has a malformed record: {exc}") from exc
    if not isinstance(params, dict):
        raise IntegrityError("transcript params are not an object")
    outcome = Outcome(finished, final_round, TreeStats(n, height, height))
    return Transcript(params=params, rounds=rounds, checkpoints=checkpoints, outcome=outcome)
