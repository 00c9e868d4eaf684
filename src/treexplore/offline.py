"""Offline optimum machinery: lower bounds, tour schedules, exact search.

The offline problem: k agents start at the root of a fully known tree
and must stand on every vertex at least once; the cost is the number of
rounds until the last new vertex is reached (no return required).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import add

from .errors import InvalidParameterError, ResourceLimitError
from .tree import ROOT, RootedTree


def trivial_lb(n: int, height: int, k: int) -> int:
    """max(height, ceil((n-1)/k)): depth takes rounds, and k agents reach
    at most k new vertices per round."""
    if n < 1 or k < 1:
        raise InvalidParameterError(f"need n >= 1 and k >= 1 (got n={n}, k={k})")
    return max(height, -(-(n - 1) // k))


class Schedule:
    """The doubled-edge tour cut into ``k`` contiguous segments, one per agent.

    ``rounds`` is the makespan. ``walks`` holds each agent's positions per
    round (index 0 = start at root); it is built on first read, because
    the bounds need only ``rounds``.
    """

    def __init__(self, tree: RootedTree, tour: list[int], seg: int, k: int, rounds: int) -> None:
        self._tree = tree
        self._tour = tour
        self._seg = seg
        self.k = k
        self.rounds = rounds

    @cached_property
    def walks(self) -> tuple[tuple[int, ...], ...]:
        """Agent j walks the tree path to ``tour[j*seg]``, then its segment."""
        tour, seg = self._tour, self._seg
        walks = []
        for lo in range(0, len(tour) - 1, seg):
            walk = self._tree.path_from_root(tour[lo])
            walk.extend(tour[lo + 1 : lo + seg + 1])
            walks.append(tuple(walk))
        # trailing agents get empty segments and stay at the root
        walks.extend([(ROOT,)] * (self.k - len(walks)))
        return tuple(walks)


def validate_schedule(tree: RootedTree, schedule: Schedule) -> None:
    """Assert adjacency, full coverage, and makespan consistency."""
    covered = {ROOT}
    max_moves = 0
    for w, walk in enumerate(schedule.walks):
        if not walk or walk[0] != ROOT:
            raise ValueError(f"walk {w} does not start at the root")
        for a, b in zip(walk, walk[1:]):
            if a != b and tree.parent[a] != b and tree.parent[b] != a:
                raise ValueError(f"walk {w} jumps from {a} to {b}")
        covered.update(walk)
        max_moves = max(max_moves, len(walk) - 1)
    if len(covered) != tree.n:
        missing = next(v for v in range(tree.n) if v not in covered)
        raise ValueError(f"schedule misses vertex {missing}")
    if schedule.rounds != max_moves:
        raise ValueError(f"rounds field {schedule.rounds} != longest walk {max_moves}")


def euler_tour(tree: RootedTree) -> list[int]:
    """Vertex sequence of the doubled-edge tour, children in id order.

    Length 2n-1; starts and ends at the root. Only inner vertices get a
    stack frame: a leaf and the step back to its parent are appended
    inline, since almost every vertex of the adversary's trees is a leaf.
    """
    children = tree.children
    tour = [ROOT]
    append = tour.append
    stack = [(ROOT, iter(children[ROOT]))]
    while stack:
        v, kids = stack[-1]
        for c in kids:
            append(c)
            if children[c]:
                stack.append((c, iter(children[c])))
                break
            append(v)
        else:
            stack.pop()
            if stack:
                append(stack[-1][0])
    return tour


def euler_schedule(tree: RootedTree, k: int) -> Schedule:
    """Split the doubled-edge tour into k contiguous segments.

    Agent j walks from the root to the start of segment j along the tree
    path and then follows its segment, so its walk has
    ``depth[tour[j*seg]] + len(segment j)`` moves and the makespan is at
    most height + ceil((2n-2)/k). Trailing agents may get empty segments.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be >= 1 (got {k})")
    tour = euler_tour(tree)
    edges = len(tour) - 1  # 2n - 2
    seg = max(1, -(-edges // k))
    starts = tour[0:edges:seg]
    # every segment has seg edges except possibly the last
    lengths = [seg] * len(starts)
    if lengths:
        lengths[-1] = edges - (len(starts) - 1) * seg
    rounds = max(map(add, map(tree.depth.__getitem__, starts), lengths), default=0)
    return Schedule(tree, tour, seg, k, rounds)


def brute_opt(
    tree: RootedTree,
    k: int,
    cap: int | None = None,
    state_limit: int = 500_000,
) -> int | None:
    """Exact optimum by breadth-first search over joint configurations.

    States are (sorted agent positions, visited bitmask); agents are
    interchangeable, so the agents on one vertex take each multiset of
    moves once. Meant for tiny instances (n <= 8, k <= 2). Returns
    None when ``cap`` rounds pass without finishing; raises
    ResourceLimitError once the search has generated more than
    ``state_limit`` joint moves, stored or not, so on a mid-size tree it
    gives up within about a second.
    With an agent per leaf the optimum is the height, with no search:
    every agent walks to its own leaf, and the deepest vertex needs that
    many rounds.
    """
    n = tree.n
    if cap is None:
        cap = 2 * n
    if k >= n - sum(map(bool, tree.children)):  # the leaves
        height = tree.height()
        return height if height <= cap else None
    full = (1 << n) - 1
    start = (tuple([ROOT] * k), 1)
    if start[1] == full:
        return 0
    seen = {start}
    frontier = [start]
    generated = 0
    options = [[v, *[p for p in [tree.parent[v]] if p is not None], *tree.children[v]] for v in range(n)]
    for t in range(1, cap + 1):
        next_frontier = []
        for positions, mask in frontier:
            groups = [
                itertools.combinations_with_replacement(options[v], len(list(same)))
                for v, same in itertools.groupby(positions)
            ]
            for joint in itertools.product(*groups):
                generated += 1
                if generated > state_limit:
                    raise ResourceLimitError(
                        f"brute-force search exceeded {state_limit} joint moves (n={n}, k={k})"
                    )
                moved = tuple(itertools.chain.from_iterable(joint))
                new_mask = mask
                for v in moved:
                    new_mask |= 1 << v
                state = (tuple(sorted(moved)), new_mask)
                if state in seen:
                    continue
                if new_mask == full:
                    return t
                seen.add(state)
                next_frontier.append(state)
        if not next_frontier:
            break
        frontier = next_frontier
    return None


@dataclass(frozen=True)
class BoundsReport:
    """Offline bounds for one tree, optionally paired with an online result."""

    trivial_lb: int
    euler_ub: int
    brute_opt: int | None
    online_rounds: int | None
    ratio_lb: Fraction | None       # online / euler_ub, a certified ratio floor
    ratio_estimate: Fraction | None  # online / trivial_lb

    def to_json_obj(self) -> dict:
        def frac(f: Fraction | None) -> list[int] | None:
            return None if f is None else [f.numerator, f.denominator]

        return {
            "trivial_lb": self.trivial_lb,
            "euler_ub": self.euler_ub,
            "brute_opt": self.brute_opt,
            "online_rounds": self.online_rounds,
            "ratio_lb": frac(self.ratio_lb),
            "ratio_estimate": frac(self.ratio_estimate),
        }


def bounds_report(
    tree: RootedTree,
    k: int,
    online_rounds: int | None = None,
    brute: bool | None = None,
) -> BoundsReport:
    """Assemble the bound fields for one instance.

    ``brute`` None means attempt the exact search only on tiny instances;
    True forces an attempt (resource errors degrade to an absent field).
    """
    stats = tree.stats()
    lb = trivial_lb(stats.n, stats.height, k)
    ub = euler_schedule(tree, k).rounds
    exact: int | None = None
    if brute is True or (brute is None and stats.n <= 8 and k <= 2):
        try:
            exact = brute_opt(tree, k)
        except ResourceLimitError:
            exact = None
    ratio_lb = Fraction(online_rounds, ub) if online_rounds is not None and ub > 0 else None
    ratio_est = Fraction(online_rounds, lb) if online_rounds is not None and lb > 0 else None
    return BoundsReport(
        trivial_lb=lb,
        euler_ub=ub,
        brute_opt=exact,
        online_rounds=online_rounds,
        ratio_lb=ratio_lb,
        ratio_estimate=ratio_est,
    )
