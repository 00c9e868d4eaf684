"""The adaptive revealer that forces long exploration games.

The construction starts from a star of ``ceil(n/(2L))`` paths of length
``L``. At checkpoint rounds ``t_i = L * C(i+1, 2)`` it picks, per root
branch, one unvisited vertex at depth ``L*i`` (judged by the visited set
from the end of the previous round), keeps the fraction ``alpha`` of them
with the fewest agents in their branch, and hangs a path-plus-star gadget
below each survivor. Agents near a survivor only ever see enough new
leaves that they cannot finish them before the next checkpoint, while
agents elsewhere are too far away to help in time.

All threshold quantities (``ceil(alpha * count)``, the team-size bound)
are computed with exact integer arithmetic so that boundary cases never
wobble with floating point.

The revealer fills in ``game.CheckpointRecord``s, whose JSON format is
``game``'s alone; this module reads only a transcript's header.
"""

from __future__ import annotations

import decimal
import math
import warnings
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, replace
from itertools import accumulate, compress, islice, repeat
from operator import add, itemgetter, sub

from .errors import InfeasibleParamsError, IntegrityError, InvalidParameterError, TreexploreError
from .game import (
    NO_GADGETS,
    VIEW_MODES,
    CheckpointRecord,
    GameState,
    Gadgets,
    Transcript,
    check_team_size,
)
from .tree import ROOT, RootedTree, check_path_star, make_path_star, tree_from_doc


def _iroot(q: int, m: int) -> int:
    """floor(q ** (1/m)) for integers q >= 0, m >= 1, by Newton's method.

    The iteration starts above the root, from the root of q's top bits
    scaled back up, which already has about half of its bits right. From
    above, each integer Newton step falls toward the root and stops on it.
    """
    if q < 2 or m == 1:
        return q
    b = q.bit_length()
    s = b // m // 2
    x = (_iroot(q >> m * s, m) + 1) << s if s else 1 << -(-b // m)
    while True:
        y = ((m - 1) * x + q // x ** (m - 1)) // m
        if y >= x:
            return x
        x = y


def _least_root_scaled(target: int, n: int, m: int) -> int:
    """Least integer s >= 0 with s**m * n >= target (all integers)."""
    if target <= 0:
        return 0
    return _iroot(-(-target // n) - 1, m) + 1


@dataclass(frozen=True)
class Alpha:
    """The selection fraction (2L/n)^(1/m), kept in exact form.

    ``ceil_mul(count)`` evaluates ceil(alpha * count) without floating
    point: it is the least integer s with s^m * n >= count^m * 2L.
    """

    n: int
    L: int
    m: int

    def __float__(self) -> float:
        return (2 * self.L / self.n) ** (1.0 / self.m)

    def ceil_mul(self, count: int) -> int:
        return _least_root_scaled(count**self.m * 2 * self.L, self.n, self.m)

    def __repr__(self) -> str:
        return f"Alpha((2*{self.L}/{self.n})^(1/{self.m}) ~ {float(self):.6f})"


def max_team_size(n: int, L: int, m: int) -> int:
    """Largest team the round-floor guarantee covers, floor-exact.

    Evaluates floor(n^(1+1/m) / (6 L (m+1)^2 (2L)^(1/m))) as the greatest
    integer k with (6 L (m+1)^2 k)^m * 2L <= n^(m+1), that is
    floor(root_m(n^(m+1) // 2L)) // (6 L (m+1)^2). The root is exact
    integer arithmetic when it is long next to m; when it is short, each
    Newton step would raise it to a large power, and a decimal evaluation
    of the root decides it instead.
    """
    _check_preconditions(n, L, m)
    c = 6 * L * (m + 1) ** 2
    root_bits = n.bit_length() * (m + 1) // m + 1
    if root_bits <= _DECIMAL_ROOT_RATIO * m:
        return _decimal_root(n, L, m) // c
    return _iroot(n ** (m + 1) // (2 * L), m) // c


# The exact root's cost grows with the length of its powers, m times the
# root's bits; the decimal root's with about the cube of the root's bits.
# Measured, the two break even where the root has about 32 bits per unit
# of m (at 4096 and 8192 root bits; below 1024 bits both take under 2 ms).
_DECIMAL_ROOT_RATIO = 32


def _decimal_root(n: int, L: int, m: int) -> int:
    """floor(y) for y = n * (n / 2L)^(1/m) = root_m(n^(m+1) / 2L).

    y has fewer than ``digits`` decimal digits. The five decimal
    operations are each correctly rounded to ``prec`` digits, so y's
    relative error stays below 10^(1-prec) * (ln n + 4) and its absolute
    error below 10^-18. A y farther than 10^-12 from its nearest integer
    r decides the floor; otherwise the floor is r if r^m * 2L <= n^(m+1),
    else r - 1.
    """
    digits = n.bit_length() * (m + 1) // m * 30103 // 100000 + 2
    prec = digits + len(str(n.bit_length())) + 20  # ln n + 4 < 1.1 * 10^len(str(bits))
    with decimal.localcontext(decimal.Context(prec=prec)):
        y = decimal.Decimal(n) * ((decimal.Decimal(n) / (2 * L)).ln() / m).exp()
        r = int(y.to_integral_value())
        if abs(y - r) > _DECIMAL_SLACK:
            return int(y)
    # Dividing r and n by their gcd keeps the comparison. When y is an
    # integer, a^m * 2L = g * b^(m+1) with a, b coprime, so b^(m+1) divides
    # 2L and both sides are at most 2Ln: the power is short.
    g = math.gcd(r, n)
    a, b = r // g, n // g
    return r if a**m * 2 * L <= g * b ** (m + 1) else r - 1


_DECIMAL_SLACK = decimal.Decimal("1e-12")


def _check_preconditions(n: int, L: int, m: int) -> None:
    if not all(type(x) is int for x in (n, L, m)):
        raise InfeasibleParamsError(f"n, L, m must be integers (got n={n!r}, L={L!r}, m={m!r})")
    if L < 1 or m < 1 or n < 1:
        raise InfeasibleParamsError(f"n, L, m must be positive (got n={n}, L={L}, m={m})")
    if below_budget(n, L, m):
        raise InfeasibleParamsError(f"n >= L*16^m required: {n} < {least_budget(L, m) or f'{L}*16^{m}'}")


# a power this long is still cheap to build, and its decimal form is far
# past the default int-to-str limit of 4300 digits
_BUILDABLE_BITS = 1 << 16


def below_budget(n: int, L: int, m: int) -> bool:
    """n < L*16^m, decided by bit lengths first, so a huge m never builds 16^m."""
    bits = L.bit_length() + 4 * m
    return n.bit_length() < bits or n < L << 4 * m


def least_budget(L: int, m: int) -> int | None:
    """L*16^m, the least n the construction admits, or None when its decimal
    form is too long to print; a huge m never builds the power."""
    if L.bit_length() + 4 * m > _BUILDABLE_BITS:
        return None
    return printable_or_none(L << 4 * m)


def printable_or_none(x: int) -> int | None:
    """x, or None when its decimal form is past the int-to-str digit limit."""
    try:
        str(x)
    except ValueError:
        return None
    return x


MODES = ("strict", "repaired")


@dataclass(frozen=True)
class AdversaryParams:
    """Validated parameter tuple for one adversary game."""

    n: int
    L: int
    m: int
    k: int
    alpha: Alpha
    checkpoints: tuple[int, ...]
    round_floor: int  # the last checkpoint; play cannot end before it
    mode: str
    max_k: int

    def checkpoint_round(self, i: int) -> int:
        """The round t_i = L * C(i+1, 2) of checkpoint i.

        Checkpoints fire for 1 <= i < m, and ``i = m - 1`` gives the round
        floor. ``i = m`` names the round where one more checkpoint would
        fire, the horizon verify uses for the last checkpoint's claims.
        """
        return self.L * math.comb(i + 1, 2)

    @property
    def branch_count(self) -> int:
        return -(-self.n // (2 * self.L))  # ceil(n / 2L)

    def initial_tree(self) -> RootedTree:
        return make_path_star(self.branch_count, self.L)

    def budget_limit(self) -> int:
        """Vertex budget the construction must respect when k <= max_k."""
        if self.mode == "strict":
            return self.n
        return -(-14 * self.n // 10)  # ceil(1.4 n)


def derive_params(n: int, L: int, m: int, k: int, mode: str = "repaired", warn: bool = True) -> AdversaryParams:
    """Validated params for (n, L, m, k); warns, naming the caller's line,
    when k exceeds the team-size bound."""
    _check_preconditions(n, L, m)
    if mode not in MODES:
        raise InfeasibleParamsError(f"unknown mode {mode!r}")
    if type(k) is not int or k < 1:
        raise InfeasibleParamsError(f"k must be a positive integer (got {k!r})")
    check_team_size(k)
    check_path_star(-(-n // (2 * L)), L)  # T_0, before any warning
    max_k = max_team_size(n, L, m)
    if k > max_k and warn:
        warnings.warn(
            f"team size k={k} exceeds the guaranteed bound {max_k} for "
            f"(n={n}, L={L}, m={m}); proceeding, but the round floor may not hold",
            stacklevel=2,
        )
    params = AdversaryParams(
        n=n, L=L, m=m, k=k, alpha=Alpha(n=n, L=L, m=m),
        checkpoints=(), round_floor=0, mode=mode, max_k=max_k,
    )
    return replace(
        params,
        checkpoints=tuple(map(params.checkpoint_round, range(1, m))),
        round_floor=params.checkpoint_round(m - 1),
    )


def lemma_header(params: AdversaryParams) -> dict:
    """A lemma game's header fields beyond play's, read back by ``params_from_transcript``."""
    return {"mode": params.mode, "n": params.n, "L": params.L, "m": params.m}


def params_from_transcript(transcript: Transcript) -> AdversaryParams:
    """The adversary params a lemma transcript's header names; IntegrityError otherwise."""
    meta = transcript.params
    if meta.get("revealer") != "lemma":
        raise IntegrityError(
            f"transcript was produced by revealer {meta.get('revealer')!r}, not the adversary"
        )
    view, explorer = meta.get("view"), meta.get("explorer")
    if view not in VIEW_MODES or not isinstance(explorer, str):
        raise IntegrityError(
            f"transcript params need view 'game' or 'local' and an explorer name "
            f"(got view={view!r}, explorer={explorer!r})"
        )
    try:
        return derive_params(meta["n"], meta["L"], meta["m"], meta["k"], mode=meta["mode"], warn=False)
    except (KeyError, TreexploreError) as exc:
        raise IntegrityError(f"transcript params are not valid adversary params: {exc}") from exc


def revealer_of(transcript: Transcript) -> CheckpointRevealer | FixedTreeRevealer:
    """A fresh revealer like the one that played ``transcript``: the adversary a
    lemma header names, else a fixed one on the embedded tree (IntegrityError if
    none; a malformed one raises ``decode_tree``'s TreeParseError)."""
    if transcript.params.get("revealer") == "lemma":
        return CheckpointRevealer(params_from_transcript(transcript))
    tree_doc = transcript.params.get("tree")
    if tree_doc is None:
        raise IntegrityError("fixed-revealer transcript carries no embedded tree")
    return _EmbeddedTreeRevealer(tree_doc)


def initial_tree_of(transcript: Transcript) -> RootedTree:
    """Reconstruct T_0 for a transcript (derived for the adversary, embedded for fixed)."""
    return revealer_of(transcript).initial_tree()


def selection_mask(a: Sequence[int], count: int) -> bytearray:
    """Marks the ``count`` positions of ``a`` with the smallest values (all if fewer).

    Ties go to earlier positions. Candidates are id-ascending, so over a
    record's ``a`` that is the tie-break toward smaller ids. The cut value
    is 0 when zeros fill the selection and nothing is negative, the usual
    case; otherwise it comes from a tally of the distinct values. No entry
    is sorted, and the mask is built in C: every position up to the last
    one taken at the cut is marked if its value is at most the cut, every
    later one if it is under it.
    """
    if count <= 0:
        return bytearray(len(a))
    if count >= len(a):
        return bytearray(b"\x01") * len(a)
    zeros = a.count(0)
    if zeros >= count and (zeros == len(a) or min(a) >= 0):
        cut, below = 0, 0  # positions with a value under the cut
    else:
        tally = Counter(a)
        below = 0
        for cut in sorted(tally):
            if below + tally[cut] >= count:
                break
            below += tally[cut]
    last = next(islice(compress(range(len(a)), map(cut.__eq__, a)), count - below - 1, None)) + 1
    mask = bytearray(map(cut.__ge__, a[:last]))
    mask += bytearray(map(cut.__gt__, a[last:])) if below else bytearray(len(a) - last)
    return mask


_UNVISITED = bytes.maketrans(b"\x00\x01", b"\x01\x00")  # visited bytes -> open flags


def gadget_spec(i: int, a: int, params: AdversaryParams) -> tuple[int, int]:
    """Shape of the gadget hung below a selected vertex at checkpoint i.

    Returns (path length, leaf count). Strict mode uses the raw agent
    count, so a = 0 yields an empty star; repaired mode floors the count
    at one so every selected vertex keeps a reachable descendant level.
    """
    mult = a if params.mode == "strict" else max(a, 1)
    return (params.L - 1, params.L * (i + 1) * mult)


class CheckpointRevealer:
    """Revealer that grows gadgets at checkpoint rounds and idles otherwise.

    The vertices at depth L*i sit in slots known without a search: T_0's
    path ends at i = 1, one per branch, and after that the star leaves of
    checkpoint i-1's gadgets, one leaf range per gadget. Ids are dense in
    creation order, so the ranges follow from ``tree.n`` at compute time.
    ``compute`` takes only the tree the construction grows, T_0 plus the
    revealer's own gadgets, and checkpoint i >= 2 must come right after
    checkpoint i-1.
    """

    name = "lemma"

    def __init__(self, params: AdversaryParams):
        self.params = params
        self._round_to_level = {t: i + 1 for i, t in enumerate(params.checkpoints)}
        self._level = 0  # the last checkpoint computed
        self._selected: tuple[int, ...] = ()  # its S, one per gadget, in gadget order
        self._leaf_starts: list[int] = []  # each gadget's leaf range
        self._leaf_ends: list[int] = []
        self._grown_n = 0  # the tree size the last checkpoint's gadgets lead to

    def initial_tree(self) -> RootedTree:
        return self.params.initial_tree()

    def reveal(self, state: GameState, t: int) -> tuple[Gadgets, CheckpointRecord | None]:
        """The round's attachments and checkpoint record; at a checkpoint the
        attachments are the record's own gadgets, which the round keeps."""
        i = self._round_to_level.get(t)
        if i is None:
            return NO_GADGETS, None
        record = self.compute(state, i)
        return record.gadgets, record

    def compute(self, state: GameState, i: int) -> CheckpointRecord:
        """The checkpoint-i record for ``state``; play and verify get it from ``reveal``.

        K holds, id-ascending, each branch's smallest id at depth L*i that
        was unvisited as of the previous round, so a vertex first reached
        this very round still qualifies. Checkpoint 1 may come at any time.
        A tree of another size than the construction's raises InvalidParameterError.
        The work per vertex of K is a few passes in C: K and a are copied
        whole when no slot is closed, as at every checkpoint 1 of a game,
        and the selection's passes stop at its last pick. The Python work
        grows with the agents and the distinct a-values only.
        """
        if i != 1 and i != self._level + 1:
            raise InvalidParameterError(f"checkpoint {i} cannot follow checkpoint {self._level}")
        params = self.params
        L, tree, branch = params.L, state.tree, state.tree.branch
        size = params.branch_count * L + 1 if i == 1 else self._grown_n
        if tree.n != size:
            raise InvalidParameterError(
                f"checkpoint {i} needs the construction's tree of {size} vertices, not {tree.n}"
            )
        prev = state.visited
        if state.newly_visited:
            prev = bytearray(prev)
            for v in state.newly_visited:
                prev[v] = 0
        # agents per occupied branch; ROOT is 0, so filter(None, ...) drops the
        # agents parked on the root
        occupied = Counter(map(branch.__getitem__, filter(None, state.positions)))
        if i == 1:
            # slot j is T_0's path end L*(j+1), in branch L*j+1; K shares the
            # tree's int objects: the root's children at L = 1, else each
            # path end's entry in its parent's children list
            slots = tree.children[ROOT] if L == 1 else list(map(itemgetter(0), tree.children[L - 1 :: L]))
            open_ = prev[L::L].translate(_UNVISITED)
        else:  # slot g is the first unvisited leaf of gadget g, or -1
            slots = list(map(prev.find, repeat(0), self._leaf_starts, self._leaf_ends))
            open_ = bytearray(map((-1).__ne__, slots))
        # with no slot closed, as at every checkpoint 1 of a game, K and a
        # are the slots whole; a tuple of ints drops out of the young GC
        # generation after one scan
        whole = 0 not in open_
        candidates = tuple(slots) if whole else tuple(compress(slots, open_))
        a = (0,) * len(candidates)
        if occupied:
            a_slots = [0] * len(slots)
            slot_of = None
            if i > 1:  # gadget g hangs in the branch of the previous checkpoint's S[g]
                slot_of = dict(zip(map(branch.__getitem__, self._selected), range(len(slots))))
            for b, agents in occupied.items():
                j = (b - 1) // L if slot_of is None else slot_of.get(b)
                if j is not None:
                    a_slots[j] = agents
            a = tuple(a_slots) if whole else tuple(compress(a_slots, open_))
        mask = selection_mask(a, params.alpha.ceil_mul(len(a)))
        del mask[mask.rfind(1) + 1 :]  # the passes below stop at the last pick
        selected = tuple(compress(candidates, mask))
        selected_a = list(compress(a, mask))
        spec_of = {x: gadget_spec(i, x, params) for x in set(selected_a)}
        specs = list(map(spec_of.__getitem__, selected_a))
        gadgets = Gadgets(selected, tuple(map(itemgetter(0), specs)), tuple(map(itemgetter(1), specs)))
        # the round creates each gadget's path, then its leaves
        ends = list(accumulate(map(add, gadgets.path_len, gadgets.leaf_count), initial=tree.n))
        self._grown_n = ends[-1]
        del ends[0]
        self._leaf_starts = list(map(sub, ends, gadgets.leaf_count))
        self._leaf_ends = ends
        self._level, self._selected = i, selected
        return CheckpointRecord(i=i, K=candidates, a=a, S=selected, gadgets=gadgets)


class FixedTreeRevealer:
    """Supplies a known tree up front and never attaches anything."""

    name = "fixed"

    def __init__(self, tree: RootedTree):
        self._tree = tree

    def initial_tree(self) -> RootedTree:
        # a copy, since play grows the tree it gets and the caller keeps this one
        return self._tree.copy()

    def reveal(self, state: GameState, t: int) -> tuple[Gadgets, None]:
        return NO_GADGETS, None


class _EmbeddedTreeRevealer(FixedTreeRevealer):
    """A fixed revealer on a header's embedded tree, which no caller holds: the
    first ``initial_tree()`` hands out the tree built here, uncopied, and each
    later one builds another from the parent list."""

    def __init__(self, doc):
        super().__init__(tree_from_doc(doc))
        self._doc = doc

    def initial_tree(self) -> RootedTree:
        tree, self._tree = self._tree, None
        return tree_from_doc(self._doc) if tree is None else tree


def fixed_tree_revealer(tree: RootedTree) -> FixedTreeRevealer:
    return FixedTreeRevealer(tree)
