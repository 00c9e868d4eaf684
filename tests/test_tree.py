"""Tree structure, constructors, queries, and the wire formats."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from treexplore import (
    ROOT,
    RootedTree,
    attach_path_with_star,
    decode_tree,
    derive_params,
    encode_tree,
    make_path_star,
    tree_to_dot,
)
from treexplore import tree as tree_module
from treexplore.errors import InvalidParameterError, ResourceLimitError, TreeParseError, VertexNotFoundError

from conftest import random_tree, tree_arrays


def distance(tree, u: int, v: int) -> int:
    """Edges on the u-v path: both root paths minus twice their common part."""
    pu, pv = tree.path_from_root(u), tree.path_from_root(v)
    common = sum(1 for a, b in zip(pu, pv) if a == b)
    return len(pu) + len(pv) - 2 * common


class TestMakePathStar:
    def test_single_edge(self):
        t = make_path_star(1, 1)
        assert t.n == 2
        assert t.height() == 1

    def test_wide_star(self):
        t = make_path_star(2048, 1)
        assert t.n == 2049
        assert t.children[ROOT] == list(range(1, 2049))

    def test_paths(self):
        t = make_path_star(10, 5)
        assert t.n == 51
        assert t.height() == 5

    def test_branch_major_id_layout(self):
        t = make_path_star(3, 2)
        # branch j holds ids (j-1)*L+1 .. j*L, top to bottom
        assert t.parent[1] == ROOT and t.parent[2] == 1
        assert t.parent[3] == ROOT and t.parent[4] == 3
        assert t.depth[2] == t.depth[4] == t.depth[6] == 2

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0), (-2, 3)])
    def test_zero_arguments_rejected(self, bad):
        with pytest.raises(InvalidParameterError):
            make_path_star(*bad)

    @pytest.mark.parametrize("branches, path_len", [(5 * 10**11, 1), (2, 10**15), (10**9, 10**9)])
    def test_over_the_size_limit_raises_before_building(self, branches, path_len):
        # without the guard the first list alone would not fit in memory
        with pytest.raises(ResourceLimitError, match=f"path star of {branches * path_len + 1} vertices"):
            make_path_star(branches, path_len)

    @pytest.mark.parametrize("branches, path_len, fits", [(20, 1, True), (10, 2, True), (21, 1, False), (5, 5, False)])
    def test_the_limit_counts_every_vertex(self, monkeypatch, branches, path_len, fits):
        monkeypatch.setattr(tree_module, "MAX_PATH_STAR_VERTICES", 21)
        if fits:
            assert make_path_star(branches, path_len).n == 21
        else:
            with pytest.raises(ResourceLimitError, match="over the size limit of 21 vertices"):
                make_path_star(branches, path_len)

    @pytest.mark.parametrize("n, L, m", [(2**20, 1, 4), (2**20, 4, 4), (65536, 1, 4), (16384, 4, 3)])
    def test_the_limit_admits_the_benchmark_instances(self, n, L, m):
        params = derive_params(n, L, m, 1, warn=False)
        assert params.branch_count * L + 1 <= tree_module.MAX_PATH_STAR_VERTICES


class TestAttachPathWithStar:
    def test_leaves_only(self):
        t = make_path_star(2, 1)
        new = attach_path_with_star(t, 1, 0, 2)
        assert len(new) == 2
        assert all(t.depth[v] == 2 for v in new)

    def test_path_then_star(self):
        t = make_path_star(1, 5)
        tip = 5
        new = attach_path_with_star(t, tip, 4, 10)
        assert len(new) == 14
        assert max(t.depth[v] for v in new) == 10

    def test_empty_attachment_changes_nothing(self):
        t = make_path_star(2, 1)
        before = list(t.parent)
        assert attach_path_with_star(t, 1, 0, 0) == []
        assert t.parent == before

    def test_unknown_vertex(self):
        t = make_path_star(2, 1)
        with pytest.raises(VertexNotFoundError):
            attach_path_with_star(t, 99, 1, 1)

    @pytest.mark.parametrize("at", [-1, 7])
    def test_target_just_outside_the_tree_changes_nothing(self, at):
        # -1 and tree.n are the first ids past either end; the check runs
        # before any array grows, for a path and a star alike
        t = make_path_star(2, 2)
        attach_path_with_star(t, 2, 0, 2)
        assert t.n == 7
        before = tree_arrays(t)
        with pytest.raises(VertexNotFoundError, match=rf"^vertex {at} does not exist \(tree has 7 vertices\)$"):
            attach_path_with_star(t, at, 1, 3)
        assert tree_arrays(t) == before


class TestRootBranch:
    """``branch[v]`` is the depth-1 ancestor of v; the root has none (-1)."""

    def test_child_of_root(self):
        t = make_path_star(3, 2)
        assert t.branch[1] == 1

    def test_grandchild(self):
        t = make_path_star(3, 2)
        assert t.branch[2] == 1
        assert t.branch[6] == 5

    def test_root_has_no_branch(self):
        t = make_path_star(3, 2)
        assert t.branch[ROOT] == -1

    def test_matches_brute_force_path_walk(self):
        rng = random.Random(7)
        for _ in range(60):
            t = random_tree(rng.randrange(2, 500), rng)
            for v in range(1, t.n):
                path = t.path_from_root(v)
                assert t.branch[v] == path[1]


class TestQueries:
    def test_height_follows_growth(self):
        t = make_path_star(3, 2)
        assert t.height() == 2
        attach_path_with_star(t, 6, 2, 3)
        assert t.height() == 5
        attach_path_with_star(t, 1, 0, 4)  # shallower growth leaves it alone
        assert t.height() == 5 == t.copy().height()

    def test_height(self):
        assert make_path_star(10, 5).height() == 5

    def test_stats_single_edge(self):
        s = make_path_star(1, 1).stats()
        assert (s.n, s.height, s.root_ecc) == (2, 1, 1)

    def test_distance(self):
        t = make_path_star(2, 3)
        assert distance(t, 3, 6) == 6
        assert distance(t, 1, 3) == 2
        assert distance(t, 2, 2) == 0


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=0, max_size=120))
def test_construction_invariants(parent_choices):
    """Any creation sequence keeps ids dense, parents below children, depths exact."""
    t = RootedTree()
    for raw in parent_choices:
        t.add_child(raw % t.n)
    assert t.parent[ROOT] is None
    for v in range(1, t.n):
        p = t.parent[v]
        assert p < v
        assert t.depth[v] == t.depth[p] + 1
        assert v in t.children[p]
    assert t.height() == max(t.depth)


class TestWireFormats:
    def test_single_edge_encoding(self):
        data = encode_tree(make_path_star(1, 1))
        assert json.loads(data) == {"n": 2, "parent": [None, 0]}
        assert data.endswith(b"\n")

    def test_round_trip_on_seeded_trees(self):
        rng = random.Random(123)
        for _ in range(200):
            t = random_tree(rng.randrange(1, 80), rng)
            back = decode_tree(encode_tree(t))
            assert back.parent == t.parent

    def test_round_trip_wide_star(self):
        t = make_path_star(2048, 1)
        assert decode_tree(encode_tree(t)).parent == t.parent

    def test_parent_cycle_rejected(self):
        with pytest.raises(TreeParseError) as exc:
            decode_tree(b'{"n": 3, "parent": [null, 2, 1]}')
        assert exc.value.position == 1

    def test_malformed_json_rejected_with_position(self):
        with pytest.raises(TreeParseError) as exc:
            decode_tree(b'{"n": 2, "parent": [null, ')
        assert exc.value.position is not None

    @pytest.mark.parametrize(
        "doc",
        [
            b"[1, 2]",
            b'{"n": 2, "parent": [null]}',
            b'{"n": 1, "parent": [0]}',
            b'{"n": 0, "parent": []}',
            b'{"n": true, "parent": [null]}',
            b'{"n": 3, "parent": [null, false, true]}',
            b"\xff\xfe{}",
            pytest.param(b"[" * 200000, id="nested-200000"),
        ],
    )
    def test_structural_errors(self, doc):
        with pytest.raises(TreeParseError):
            decode_tree(doc)

    def test_dot_export(self):
        dot = tree_to_dot(make_path_star(2, 1))
        assert dot == 'digraph tree {\n  0 [label="root"];\n  0 -> 1;\n  0 -> 2;\n}\n'


def test_growth_preserves_existing_ids():
    t = make_path_star(4, 2)
    snapshot = (list(t.parent), list(t.depth))
    attach_path_with_star(t, 2, 3, 5)
    attach_path_with_star(t, 8, 0, 1)
    assert t.parent[: len(snapshot[0])] == snapshot[0]
    assert t.depth[: len(snapshot[1])] == snapshot[1]


# -- the leaf-() layout and the bulk builders ---------------------------------


def _reference_path_star(branch_count, path_len):
    """make_path_star built one add_child call at a time."""
    t = RootedTree()
    for _ in range(branch_count):
        at = ROOT
        for _ in range(path_len):
            at = t.add_child(at)
    return t


def _reference_attach(t, at, path_len, leaf_count):
    """attach_path_with_star built one add_child call at a time."""
    new_ids = []
    tip = at
    for _ in range(path_len):
        tip = t.add_child(tip)
        new_ids.append(tip)
    for _ in range(leaf_count):
        new_ids.append(t.add_child(tip))
    return new_ids


def _assert_leaf_layout(t):
    """A leaf holds the empty tuple; a star tip may hold the range of its
    leaves; every other vertex holds its own list."""
    for v, kids in enumerate(t.children):
        if type(kids) is range:
            assert kids, v
        elif kids:
            assert type(kids) is list, v
        else:
            assert type(kids) is tuple, v
    lists = [id(kids) for kids in t.children if type(kids) is list]
    assert len(set(lists)) == len(lists)


class TestBulkBuilders:
    @pytest.mark.parametrize("branch_count", [1, 2, 5, 17])
    @pytest.mark.parametrize("path_len", [1, 2, 3, 4])
    def test_make_path_star_equals_per_vertex_reference(self, branch_count, path_len):
        t = make_path_star(branch_count, path_len)
        assert tree_arrays(t) == tree_arrays(_reference_path_star(branch_count, path_len))
        _assert_leaf_layout(t)

    @pytest.mark.parametrize(
        "shape,attachments",
        [
            ((4, 1), [(1, 0, 3)]),  # path_len 0
            ((4, 1), [(2, 3, 0)]),  # leaf_count 0
            ((4, 1), [(1, 0, 0)]),  # nothing at all
            ((3, 3), [(1, 0, 4)]),  # below a vertex that already has a child
            ((3, 3), [(3, 1, 2), (3, 0, 2)]),  # twice below the same vertex
            ((4, 1), [(2, 0, 2), (2, 0, 1)]),  # a star below a star tip's range
            ((4, 1), [(ROOT, 0, 5)]),  # leaves at depth 1 are their own branches
            ((4, 1), [(ROOT, 2, 3)]),  # path from the root, then a star below it
            ((3, 3), [(4, 2, 1), (12, 1, 6), (6, 0, 2), (ROOT, 0, 1)]),
        ],
    )
    def test_attach_equals_per_vertex_reference(self, shape, attachments):
        t, ref = make_path_star(*shape), _reference_path_star(*shape)
        for at, path_len, leaf_count in attachments:
            assert attach_path_with_star(t, at, path_len, leaf_count) == _reference_attach(
                ref, at, path_len, leaf_count
            )
        assert tree_arrays(t) == tree_arrays(ref)
        _assert_leaf_layout(t)

    def test_random_attachments_equal_reference(self):
        rng = random.Random(17)
        for _ in range(30):
            b, l = rng.randrange(1, 6), rng.randrange(1, 4)
            t, ref = make_path_star(b, l), _reference_path_star(b, l)
            for _ in range(rng.randrange(1, 8)):
                at = rng.randrange(t.n)
                path_len, leaf_count = rng.randrange(0, 3), rng.randrange(0, 5)
                assert attach_path_with_star(t, at, path_len, leaf_count) == _reference_attach(
                    ref, at, path_len, leaf_count
                )
            assert tree_arrays(t) == tree_arrays(ref)
            _assert_leaf_layout(t)

    def test_returned_ids_are_not_the_tree_lists(self):
        t = make_path_star(2, 1)
        new = attach_path_with_star(t, 1, 0, 3)
        new.append(99)
        assert list(t.children[1]) == [3, 4, 5]


class TestLeafLayout:
    def test_leaf_holds_empty_tuple_until_first_child(self):
        t = RootedTree()
        assert t.children[ROOT] == () and type(t.children[ROOT]) is tuple
        v = t.add_child(ROOT)
        assert t.children[ROOT] == [v] and type(t.children[ROOT]) is list
        assert t.children[v] == () and type(t.children[v]) is tuple
        w = t.add_child(v)
        assert t.children[v] == [w]
        t.add_child(v)
        assert t.children[v] == [w, w + 1]
        assert [v for v in range(t.n) if not t.children[v]] == [w, w + 1]

    def test_star_leaves_of_a_childless_tip_are_a_range(self):
        t = make_path_star(2, 1)
        attach_path_with_star(t, 1, 1, 3)
        assert t.children[3] == range(4, 7)
        attach_path_with_star(t, 2, 0, 2)
        assert t.children[2] == range(7, 9)

    def test_add_child_below_a_range_makes_a_list(self):
        t = make_path_star(2, 1)
        attach_path_with_star(t, 1, 0, 3)
        assert t.children[1] == range(3, 6)
        v = t.add_child(1)
        assert t.children[1] == [3, 4, 5, v] and type(t.children[1]) is list
        attach_path_with_star(t, 1, 0, 2)  # a star below a list extends it in place
        assert t.children[1] == [3, 4, 5, v, v + 1, v + 2]
        _assert_leaf_layout(t)

    def test_copy_of_range_children_holds_lists(self):
        t = make_path_star(2, 1)
        attach_path_with_star(t, 1, 0, 3)
        attach_path_with_star(t, 2, 1, 2)
        c = t.copy()
        assert tree_arrays(c) == tree_arrays(t)
        assert [type(kids) for kids in c.children if kids] == [list] * 4
        _assert_leaf_layout(c)
        assert not {id(x) for x in t.children if x} & {id(x) for x in c.children if x}
        before = tree_arrays(t)
        c.add_child(1)
        attach_path_with_star(c, 6, 0, 2)
        assert tree_arrays(t) == before

    def test_copy_shares_no_list(self):
        t = make_path_star(3, 2)
        attach_path_with_star(t, 2, 1, 3)
        c = t.copy()
        assert tree_arrays(c) == tree_arrays(t)
        _assert_leaf_layout(c)
        for name in ("parent", "depth", "branch", "children"):
            assert getattr(c, name) is not getattr(t, name)
        originals = {id(x) for x in t.children if isinstance(x, list)}
        assert not originals & {id(x) for x in c.children if isinstance(x, list)}
        before = tree_arrays(t)
        attach_path_with_star(c, 4, 0, 2)
        attach_path_with_star(c, 6, 0, 2)
        assert tree_arrays(t) == before

