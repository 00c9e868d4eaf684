"""Growable rooted trees with stable vertex identities.

Vertices are dense integers assigned in creation order; id 0 is the root.
Growth is append-only: attaching below an existing vertex never changes
earlier ids, parents, or depths. Children are kept in creation order,
which coincides with ascending id order. ``branch`` (each vertex's
depth-1 ancestor) is the one derived index: the adversary knows from its
construction which vertices sit at a checkpoint's depth.

Almost every vertex of the adversary's trees is a leaf, so a leaf holds
the shared empty tuple ``()`` as its children entry and gets a list only
when its first child is added. ``make_path_star`` builds the initial
tree's arrays with list operations (slices and repeats) instead of one
``add_child`` call per vertex, and ``attach_path_with_star`` appends a
star's leaves in one batch, giving a childless tip the ``range`` of their
ids: a range is no object the cyclic garbage collector tracks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import (
    InvalidParameterError,
    ResourceLimitError,
    TreeParseError,
    VertexNotFoundError,
)

ROOT = 0
# the most vertices make_path_star builds: 8 times the 2^19 + 1 of the
# (2^20, 1, 4) instance, whose whole pipeline peaks near 260 MiB
MAX_PATH_STAR_VERTICES = 1 << 22


@dataclass(frozen=True)
class TreeStats:
    """Summary counts of a tree: size and height."""

    n: int
    height: int
    root_ecc: int  # equal to height; named separately for bound reports


class RootedTree:
    """Append-only rooted tree indexed by dense integer ids.

    Exposes parent/children/depth as flat lists plus one derived index
    kept in sync on every insertion: the depth-1 ancestor of each vertex
    (its branch). The height is a running maximum of the depths.

    ``children[v]`` is the shared empty tuple ``()`` while ``v`` is a leaf
    and its own list of child ids from the first child on, except that a
    star tip which had no child holds the ``range`` of its leaves until
    another child is added: readers may index, iterate and take ``len``,
    but not concatenate it with a list or compare it with one.
    """

    __slots__ = ("parent", "children", "depth", "branch", "_height")

    def __init__(self) -> None:
        self.parent: list[int | None] = [None]
        self.children: list[list[int] | range | tuple[()]] = [()]
        self.depth: list[int] = [0]
        # branch[v] is the depth-1 ancestor of v, or -1 for the root
        self.branch: list[int] = [-1]
        self._height = 0

    @property
    def n(self) -> int:
        return len(self.parent)

    def _require(self, v: int) -> None:
        if not (0 <= v < len(self.parent)):
            raise VertexNotFoundError(f"vertex {v} does not exist (tree has {self.n} vertices)")

    def add_child(self, parent: int) -> int:
        """Append a new vertex below ``parent`` and return its id."""
        self._require(parent)
        v = len(self.parent)
        d = self.depth[parent] + 1
        self.parent.append(parent)
        self.children.append(())
        self.depth.append(d)
        kids = self.children[parent]
        if not kids:
            self.children[parent] = [v]
        elif type(kids) is list:
            kids.append(v)
        else:  # a star tip's range
            self.children[parent] = [*kids, v]
        self.branch.append(v if d == 1 else self.branch[parent])
        if d > self._height:
            self._height = d
        return v

    def height(self) -> int:
        """Maximum depth over all vertices."""
        return self._height

    def path_from_root(self, v: int) -> list[int]:
        """Vertices on the root-to-``v`` path, root first."""
        self._require(v)
        path = []
        while v is not None:  # type: ignore[comparison-overlap]
            path.append(v)
            v = self.parent[v]  # type: ignore[assignment]
        path.reverse()
        return path

    def copy(self) -> "RootedTree":
        t = RootedTree.__new__(RootedTree)
        t.parent = list(self.parent)
        t.children = [list(c) if c else () for c in self.children]
        t.depth = list(self.depth)
        t.branch = list(self.branch)
        t._height = self._height
        return t

    def stats(self) -> TreeStats:
        h = self.height()
        return TreeStats(n=self.n, height=h, root_ecc=h)


def check_path_star(branch_count: int, path_len: int) -> None:
    """ResourceLimitError for a path star of more than ``MAX_PATH_STAR_VERTICES`` vertices."""
    n = branch_count * path_len + 1
    if n > MAX_PATH_STAR_VERTICES:
        raise ResourceLimitError(
            f"a path star of {n} vertices is over the size limit of {MAX_PATH_STAR_VERTICES} vertices"
        )


def make_path_star(branch_count: int, path_len: int) -> RootedTree:
    """Build a root with ``branch_count`` disjoint paths of ``path_len`` edges.

    Ids go branch by branch, top to bottom: branch j occupies ids
    (j-1)*path_len+1 .. j*path_len. Each array is built once at full
    length, by a repeat, and strided slices fill in the rest: parent and
    children change only at the inner path vertices, none at L = 1. A star
    of more than ``MAX_PATH_STAR_VERTICES`` vertices raises
    ResourceLimitError before any list is built.
    """
    if branch_count < 1 or path_len < 1:
        raise InvalidParameterError(
            f"branch_count and path_len must be positive (got {branch_count}, {path_len})"
        )
    B, L = branch_count, path_len
    check_path_star(B, L)
    n = B * L + 1
    # every array takes its ids from this one list, so each id is one int object
    ids = list(range(1, n))
    heads = ids if L == 1 else ids[::L]  # the depth-1 vertex of each branch
    parent: list[int | None] = [ROOT] * n
    parent[ROOT] = None
    branch = [-1] * n
    children: list[list[int] | range | tuple[()]] = [()] * n
    children[ROOT] = heads
    for d in range(L):
        branch[1 + d :: L] = heads
        if d < L - 1:  # the depth-(d+2) vertices hang below the depth-(d+1) ones
            children[1 + d :: L] = [[c] for c in ids[d + 1 :: L]]
            parent[2 + d :: L] = ids[d::L]
    depth = list(range(1, L + 1)) * B
    depth.insert(0, 0)
    tree = RootedTree.__new__(RootedTree)
    tree.parent = parent
    tree.children = children
    tree.depth = depth
    tree.branch = branch
    tree._height = L
    return tree


def attach_path_with_star(tree: RootedTree, at: int, path_len: int, leaf_count: int) -> list[int]:
    """Append a path of ``path_len`` edges below ``at``, then ``leaf_count`` leaves.

    The leaves hang from the path's end (from ``at`` itself when path_len
    is 0). Returns the new ids in creation order; both arguments may be 0,
    in which case nothing is attached. The path grows one ``add_child`` at
    a time; the leaves go into every array in one batch, and a tip with no
    child before takes the ``range`` of their ids as its children entry.
    """
    parent = tree.parent
    first, tip = len(parent), at
    if not 0 <= at < first:
        raise VertexNotFoundError(f"vertex {at} does not exist (tree has {first} vertices)")
    if path_len:
        for _ in range(path_len):
            tip = tree.add_child(tip)
    if leaf_count > 0:
        children, depth, branch = tree.children, tree.depth, tree.branch
        d = depth[tip] + 1
        leaves = range(len(parent), len(parent) + leaf_count)
        # list repeats: for the two or so leaves of most stars they beat itertools.repeat
        parent.extend([tip] * leaf_count)
        children.extend([()] * leaf_count)
        depth.extend([d] * leaf_count)
        # a leaf at depth 1 is its own branch
        branch.extend(leaves if d == 1 else [branch[tip]] * leaf_count)
        kids = children[tip]
        if type(kids) is list:
            kids.extend(leaves)
        else:
            children[tip] = [*kids, *leaves] if kids else leaves
        if d > tree._height:
            tree._height = d
    return list(range(first, len(parent)))


def encode_tree(tree: RootedTree) -> bytes:
    """Serialize to the JSON parent-array format (UTF-8, LF terminated)."""
    doc = {"n": tree.n, "parent": tree.parent}
    return (json.dumps(doc, separators=(", ", ": ")) + "\n").encode("utf-8")


def decode_tree(data: bytes | str) -> RootedTree:
    """Parse the JSON parent-array format back into a tree.

    Enforces parent[0] = null and parent[i] < i, which rules out cycles.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise TreeParseError(f"invalid JSON: {exc.msg}", position=exc.pos) from exc
    except UnicodeDecodeError as exc:
        raise TreeParseError(f"invalid UTF-8: {exc.reason}", position=exc.start) from None
    except RecursionError:
        raise TreeParseError("invalid JSON: nested too deeply", position=0) from None
    return tree_from_doc(doc)


def tree_from_doc(doc: object) -> RootedTree:
    """``decode_tree`` after its JSON parse: the tree a parsed document describes."""
    if not isinstance(doc, dict) or "n" not in doc or "parent" not in doc:
        raise TreeParseError("expected an object with 'n' and 'parent' keys", position=0)
    n, parents = doc["n"], doc["parent"]
    if type(n) is not int or not isinstance(parents, list) or len(parents) != n or n < 1:
        raise TreeParseError(f"'parent' must be a list of length n >= 1 (n={n})", position=0)
    if parents[0] is not None:
        raise TreeParseError("parent[0] must be null", position=0)
    tree = RootedTree()
    for i in range(1, n):
        p = parents[i]
        if type(p) is not int or not (0 <= p < i):
            raise TreeParseError(
                f"parent[{i}] = {p!r} violates the requirement 0 <= parent[i] < i",
                position=i,
            )
        tree.add_child(p)
    return tree


def tree_to_dot(tree: RootedTree) -> str:
    """DOT digraph with parent->child edges, root labeled, LF endings."""
    lines = ["digraph tree {", '  0 [label="root"];']
    for v in range(1, tree.n):
        lines.append(f"  {tree.parent[v]} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
