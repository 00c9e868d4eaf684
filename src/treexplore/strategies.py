"""Deterministic explorer strategies.

Every strategy is a per-game instance: construct, then call
``next_moves(view)`` once per round. Strategies read the view's live
arrays (parents, depths, branches, visited) and consume its append-only
reveal log incrementally, so per-round work stays proportional to what
changed plus the number of moving agents. ``single_dfs`` and
``phase_bfs`` move few of their agents and return a dict that names the
movers, so the engine's commit costs Python work per mover, not per
agent; ``idle`` and ``greedy_frontier`` return the full positions.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress, filterfalse, islice

from .errors import InvalidParameterError, StrategyInfeasibleError
from .game import ExplorerView
from .tree import ROOT

# translates visited flags to 1 for an unvisited vertex, 0 for a visited one
_UNVISITED = bytes([1]) + bytes(255)


class IdleExplorer:
    """Baseline that never moves anyone."""

    name = "idle"

    def __init__(self, k: int):
        self.k = k

    def next_moves(self, view: ExplorerView) -> tuple[int, ...]:
        # the positions tuple itself, which the commit keeps as is
        return view.positions


class SingleDfsExplorer:
    """Agent 0 walks a depth-first traversal of the revealed tree; the rest idle.

    A cursor per vertex agent 0 has stood on counts the children it has
    entered; agent 0 enters the next one, or steps back up once all are
    entered. No count of unvisited vertices is needed. Only agent 0 leaves
    the root, and a vertex takes gadgets only up to the round agent 0
    first reaches it, so its children list is final when agent 0 first
    decides there. A child it has come back from is thus wholly visited,
    and every child past the cursor is unvisited. A round names agent 0
    alone, or no agent once the walk is back at the root.
    """

    name = "single_dfs"

    def __init__(self, k: int):
        self.k = k
        self._cursor: dict[int, int] = {}  # vertex -> children entered so far

    def next_moves(self, view: ExplorerView) -> dict[int, int]:
        pos = view.positions[0]
        kids = view.children(pos)
        cur = self._cursor.get(pos, 0)
        if cur < len(kids):
            self._cursor[pos] = cur + 1
            return {0: kids[cur]}
        if pos != ROOT:
            return {0: view.parents[pos]}
        return {}


class PhaseBfsExplorer:
    """Breadth-style exploration in phases.

    At each phase start the unvisited leaves of the revealed tree become
    targets; each target gets a fresh agent that walks the root-to-target
    path one edge per round. A new phase begins once all walkers of the
    previous one have arrived. Needs a fresh agent per target over the
    whole game, so it is meant to run with k equal to the vertex budget.

    A phase start reads only the reveal log since the previous one: an
    older vertex had children, was visited or became a target, which its
    phase visits. Targets take consecutive agents in id order, and each
    round of the walk is one precomputed row of their vertices, returned
    as a dict that names the phase's agents.
    """

    name = "phase_bfs"

    def __init__(self, k: int):
        self.k = k
        self._phase = 0
        self._next_fresh = 0
        self._log_pos = 0  # the reveal log's length at the previous phase start
        self._first = 0  # the phase's first agent
        self._rows: list[list[int]] = []  # the rounds left to walk, the last one first

    def _start_phase(self, view: ExplorerView) -> None:
        self._phase += 1
        log = view.reveal_log
        unvisited = filterfalse(view.visited.__getitem__, log[self._log_pos :])
        self._log_pos = len(log)
        targets = sorted(filterfalse(view.children, unvisited))
        if not targets:
            return
        if self._next_fresh + len(targets) > self.k:
            raise StrategyInfeasibleError(
                f"phase {self._phase} needs {len(targets)} fresh agents, "
                f"only {self.k - self._next_fresh} of {self.k} remain"
            )
        self._first = self._next_fresh
        self._next_fresh += len(targets)
        parent, depth = view.parents, view.depths
        row = targets
        self._rows = [row]
        for d in range(max(map(depth.__getitem__, targets)), 1, -1):
            # round d - 1: a walker at depth d steps back to its parent, a
            # shallower one stays on its target
            row = [parent[u] if depth[u] == d else u for u in row]
            self._rows.append(row)

    def next_moves(self, view: ExplorerView) -> dict[int, int]:
        if not self._rows:
            self._start_phase(view)
        if not self._rows:
            return {}
        row = self._rows.pop()
        return dict(zip(range(self._first, self._first + len(row)), row))


class GreedyFrontierExplorer:
    """Matches shallowest unvisited vertices to nearest agents, one step each.

    Each round, unvisited revealed vertices are taken in (depth, id) order
    and greedily matched to the closest unmatched agent (ties toward the
    lower agent index); matched agents step one edge along the tree path
    toward their target, everyone else stays. Matching is recomputed from
    scratch every round, over the view's flat arrays.

    The unvisited vertices wait in one sorted bucket of ids per depth, and
    a visited id leaves its bucket when a round reads past it. In a game
    view the reveal log is every id in order, and a round's new vertices
    join their bucket in C passes when they share a depth, as a T_0 of
    one-edge paths does. Where a bucket is a run of consecutive ids, their
    visited flags are one slice of the visited bytearray: one search finds
    the end of the visited prefix. The next k ids of a bucket are the
    targets, one list slice, when no id in their span is visited. So the
    gather runs a few Python lines per depth, however long the visited
    prefix; elsewhere a C filter reads the flags one vertex at a time.

    A round first gathers the targets the matching reaches (the first k
    unvisited vertices), then, in C, the agents' depths. Agents that share
    one depth are in (depth, index) order as they stand; otherwise a
    stable sort puts them in it. A target whose branch holds no agent
    takes the front of the unmatched agents in that order: every path from
    an agent to it runs through the root, so each distance is the agent's
    depth plus the target's, and that order is the (distance, index)
    order. When every target is such a free target, target j takes the
    j-th agent. That is known without a branch test when every agent
    stands on the root, or when the last target, and so each one, has
    depth 1: such a target heads its own unvisited branch, and an agent
    off the root stands in a branch whose head it has visited. Otherwise a
    C pass tests the branches that hold an agent against the targets'. A
    free round costs those C passes plus three Python lines per target.
    Any other round builds per-branch agent chains and a linked list of
    the unmatched agents, and matches in O(k + targets + in-branch agents
    scanned) plus the tree walks.
    """

    name = "greedy_frontier"

    def __init__(self, k: int):
        self.k = k
        self._log_pos = 0
        self._buckets: dict[int, list[int]] = {}  # targets by depth, ascending; visited ones dropped lazily

    def _sync(self, view: ExplorerView) -> None:
        log = view.reveal_log
        new = log[self._log_pos :]
        self._log_pos = len(log)
        visited = view.visited
        depth = view.depths
        buckets = self._buckets
        if type(new) is range:
            # a game view logs every vertex, ids ascending and above every id
            # a bucket holds: when the unvisited new ones share a depth, they
            # join its bucket in C passes; otherwise the loop takes them
            unvisited = visited[new.start : new.stop].translate(_UNVISITED)
            keys = list(compress(depth[new.start : new.stop], unvisited))
            if keys and keys.count(keys[0]) == len(keys):
                buckets.setdefault(keys[0], []).extend(compress(new, unvisited))
                return
        dirty = set()
        for v in new:
            if visited[v]:
                continue
            d = depth[v]
            bucket = buckets.setdefault(d, [])
            if bucket and bucket[-1] > v:
                dirty.add(d)
            bucket.append(v)
        for d in dirty:
            buckets[d].sort()

    def _targets(self, visited: bytearray) -> list[int]:
        """The first k unvisited vertices in (depth, id) order: one per match.

        A bucket is sorted and distinct, so it holds consecutive ids exactly
        when bucket[-1] - bucket[0] == len(bucket) - 1; its visited flags are
        then one slice of ``visited``, which ``bytearray.find`` searches in C
        for the end of the visited prefix. The targets are one slice of the
        bucket when no id in their span is visited. Other buckets and spans
        are read one vertex at a time.
        """
        targets: list[int] = []
        for d in sorted(self._buckets):
            want = self.k - len(targets)
            if not want:
                break
            bucket = self._buckets[d]
            if not bucket:
                continue
            # visited vertices never become targets again: drop the prefix
            lo, hi = bucket[0], bucket[-1]
            if hi - lo == len(bucket) - 1:
                first = visited.find(0, lo, hi + 1)
                del bucket[: len(bucket) if first < 0 else first - lo]
            else:
                first = next(filterfalse(visited.__getitem__, bucket), None)
                del bucket[: len(bucket) if first is None else bucket.index(first)]
            if not bucket:
                continue
            # the next ``want`` ids are the targets when no id in their span is visited
            m = min(want, len(bucket))
            if visited.find(1, bucket[0], bucket[m - 1] + 1) < 0:
                targets += bucket[:m]
            else:
                targets += islice(filterfalse(visited.__getitem__, bucket), want)
        return targets

    def next_moves(self, view: ExplorerView) -> list[int]:
        self._sync(view)
        k = self.k
        parent = view.parents
        depth = view.depths
        branch = view.branches
        positions = view.positions
        targets = self._targets(view.visited)
        keys = list(map(depth.__getitem__, positions))
        uniform = keys.count(keys[0]) == k
        # a stable sort by depth keeps index order within a depth, so one
        # depth is index order
        order = range(k) if uniform else sorted(range(k), key=keys.__getitem__)
        moves = list(positions)
        # every target is free when all agents stand on the root, whose
        # branch is -1 and no target's, or when the last target, and so each
        # one, has depth 1: a depth-1 target heads its own unvisited branch,
        # and an agent off the root stands in a branch whose head it has
        # visited. Otherwise a C pass tests the branches that hold an agent
        if (
            (uniform and not keys[0])
            or (targets and depth[targets[-1]] == 1)
            or set(map(branch.__getitem__, positions)).isdisjoint(map(branch.__getitem__, targets))
        ):
            # every target is free, so target j takes the j-th agent
            for x, v in zip(order, targets):
                p = positions[x]
                moves[x] = branch[v] if p == ROOT else parent[p]
            return moves

        # in-branch agents as intrusive chains: head[branch] -> agent,
        # chain[agent] -> next agent of the same branch, -1 ends a chain
        head: dict[int, int] = {}
        chain = [-1] * k
        for x, p in enumerate(positions):
            if p != ROOT:
                b = branch[p]
                chain[x] = head.get(b, -1)
                head[b] = x
        # agents threaded in (depth, index) order through a doubly linked
        # list with sentinel slot k, so matching removes them in O(1)
        nxt = [0] * (k + 1)
        prv = [0] * (k + 1)
        for a, b in zip([k, *order], [*order, k]):
            nxt[a] = b
            prv[b] = a

        matched = bytearray(k)
        for v in targets:
            dv = depth[v]
            bv = branch[v]
            if bv not in head:  # no agent in v's branch: the front agent is nearest
                x = nxt[k]
                matched[x] = 1
                nxt[k] = nxt[x]
                prv[nxt[x]] = k
                p = positions[x]
                moves[x] = bv if p == ROOT else parent[p]
                continue
            best_d = best_x = -1
            x = head.get(bv, -1)
            while x >= 0:  # exact distance inside the branch, via the LCA
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
            # outside the branch every path runs through the root, so the
            # first non-branch agent in (depth, index) order is nearest;
            # an agent is unmatched, so one of the two scans finds one
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
            # one step toward v: down if pos is v's ancestor, else up
            pos = positions[best_x]
            w = v
            for _ in range(dv - depth[pos] - 1):
                w = parent[w]
            moves[best_x] = w if parent[w] == pos else parent[pos]
        return moves


class IdleThenExplorer:
    """Idles through the first ``switch_round`` rounds, then plays greedy_frontier.

    Exercises the zero-agents-in-branch behavior of the revealer: parking
    everyone at the root through the first checkpoint makes every branch
    agent count zero there.
    """

    name = "idle_then_greedy_frontier"

    def __init__(self, k: int, switch_round: int):
        self.k = k
        self.switch_round = switch_round
        self.inner = GreedyFrontierExplorer(k)

    def next_moves(self, view: ExplorerView) -> Sequence[int]:
        if view.round + 1 <= self.switch_round:
            return view.positions
        return self.inner.next_moves(view)


STRATEGY_NAMES = ("idle", "single_dfs", "phase_bfs", "greedy_frontier")


def make_explorer(name: str, k: int, switch_round: int | None = None):
    """Instantiate a strategy by CLI name."""
    if name == "idle":
        return IdleExplorer(k)
    if name == "single_dfs":
        return SingleDfsExplorer(k)
    if name == "phase_bfs":
        return PhaseBfsExplorer(k)
    if name == "greedy_frontier":
        return GreedyFrontierExplorer(k)
    if name == "idle_then_greedy":
        if switch_round is None:
            raise InvalidParameterError("idle_then_greedy needs a switch round")
        return IdleThenExplorer(k, switch_round)
    raise InvalidParameterError(f"unknown explorer {name!r}")
