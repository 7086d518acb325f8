import itertools
import math

import pytest
from hypothesis import example, given, settings

from homkit.shape import (
    biconnected_components,
    connected_components,
    girth,
    is_forest,
    shortest_cycle,
)
from homkit.structures import Structure, make_signature

from util import DIGRAPH, MIXED, clique, dcycle, digraph, dpath, loop_vertex, mixed_structures, scycle

TERN = make_signature([("R", 3)])


class TestGirth:
    def test_triangle(self):
        assert girth(dcycle(3)) == 3

    def test_degenerate_loop(self):
        assert girth(loop_vertex()) == 1

    def test_digon(self):
        assert girth(digraph(2, [(0, 1), (1, 0)])) == 2

    def test_path_is_forest(self):
        assert girth(dpath(3)) == math.inf
        assert is_forest(dpath(3))

    def test_repeated_coordinate_in_ternary(self):
        assert girth(Structure(TERN, 2, {"R": [(0, 0, 1)]})) == 1

    def test_single_ternary_tuple_is_tree(self):
        assert is_forest(Structure(TERN, 3, {"R": [(0, 1, 2)]}))

    def test_two_ternary_tuples_sharing_two_elements(self):
        a = Structure(TERN, 4, {"R": [(0, 1, 2), (0, 1, 3)]})
        assert girth(a) == 2

    def test_two_unary_tuples_on_one_point_is_forest(self):
        sig = make_signature([("U", 1), ("V", 1)])
        a = Structure(sig, 1, {"U": [(0,)], "V": [(0,)]})
        assert is_forest(a)

    def test_witness_cycle(self):
        length, tuples = shortest_cycle(dcycle(4))
        assert length == 4
        assert len(tuples) == 4

    def test_shorter_than_filter(self):
        assert shortest_cycle(dcycle(4), shorter_than=4) is None
        assert shortest_cycle(dcycle(4), shorter_than=5)[0] == 4


@settings(max_examples=300, deadline=None)
@given(mixed_structures())
@example(Structure(MIXED, 3, {"T": [(0, 2, 0)]}))  # repeated coordinate
@example(Structure(MIXED, 4, {"T": [(0, 1, 2)], "E": [(1, 0)], "U": [(1,)]}))  # two tuples share two elements
@example(Structure(MIXED, 5, {"T": [(0, 1, 2), (2, 3, 4)], "E": [(4, 1)], "U": [(0,), (3,)]}))  # a 3-cycle
@example(Structure(MIXED, 6, {"T": [(0, 1, 2), (2, 3, 4)], "E": [(4, 5)], "U": [(1,)]}))  # a tree
def test_is_forest_matches_girth(a):
    assert is_forest(a) == (girth(a) == math.inf)


def _all_cycles_exist(a, length):
    """Definition-level check: is there a cycle of exactly `length`?"""
    view_tuples = list(a.all_tuples())
    if length == 1:
        return any(len(set(t)) < len(t) for _, t in view_tuples)
    for tuples in itertools.permutations(view_tuples, length):
        for elems in itertools.permutations(range(a.n), length):
            ok = True
            for i in range(length):
                t = tuples[i][1]
                if elems[i - 1] not in t or elems[i] not in t:
                    ok = False
                    break
            if ok:
                return True
    return False


def test_girth_matches_exhaustive_cycle_enumeration():
    pool = [
        dcycle(3),
        dcycle(4),
        digraph(2, [(0, 1), (1, 0)]),
        dpath(3),
        scycle(3),
        loop_vertex(),
        digraph(3, [(0, 1), (1, 2), (0, 2)]),
        Structure(TERN, 4, {"R": [(0, 1, 2), (1, 2, 3)]}),
        Structure(TERN, 5, {"R": [(0, 1, 2), (2, 3, 4)]}),
        digraph(4, [(0, 1), (1, 2), (2, 3)]),
    ]
    for a in pool:
        g = girth(a)
        if g == math.inf:
            assert all(not _all_cycles_exist(a, k) for k in range(1, a.total_tuples() + 1))
        else:
            assert _all_cycles_exist(a, g)
            assert all(not _all_cycles_exist(a, k) for k in range(1, g))


class TestComponents:
    def test_two_disjoint_edges(self):
        a = digraph(4, [(0, 1), (2, 3)])
        comps = connected_components(a)
        assert len(comps) == 2
        assert all(c.n == 2 for c in comps)

    def test_triangle_connected(self):
        assert len(connected_components(dcycle(3))) == 1

    def test_empty(self):
        assert connected_components(digraph(0)) == []

    def test_isolated_vertex_is_own_component(self):
        a = digraph(3, [(0, 1)])
        comps = connected_components(a)
        assert len(comps) == 2


class TestBlocks:
    def test_path_splits_into_tuples(self):
        blocks = biconnected_components(dpath(2))
        assert len(blocks) == 2
        assert all(len(b.tuples) == 1 for b in blocks)

    def test_triangle_is_one_block(self):
        blocks = biconnected_components(dcycle(3))
        assert len(blocks) == 1
        assert blocks[0].structure == dcycle(3)

    def test_single_ternary_tuple(self):
        a = Structure(TERN, 3, {"R": [(0, 1, 2)]})
        blocks = biconnected_components(a)
        assert len(blocks) == 1

    def test_every_tuple_in_exactly_one_block(self):
        pool = [
            dpath(3),
            dcycle(4),
            digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
            digraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
            scycle(4),
        ]
        for a in pool:
            blocks = biconnected_components(a)
            seen = [t for b in blocks for t in b.tuples]
            assert sorted(seen) == sorted(a.all_tuples())

    def test_blocks_share_at_most_one_element(self):
        a = digraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
        blocks = biconnected_components(a)
        for i, b1 in enumerate(blocks):
            for b2 in blocks[i + 1 :]:
                assert len(set(b1.elements) & set(b2.elements)) <= 1

    def test_isolated_point_is_trivial_block(self):
        a = digraph(2, [(0, 0)])
        blocks = biconnected_components(a)
        assert len(blocks) == 2
        assert any(b.tuples == () for b in blocks)

    def test_biconnected_with_multiple_tuples_has_cycle(self):
        # over structures with <= 3 tuples on <= 5 elements, any block with
        # more than one tuple must contain a cycle
        import homkit.shape as shape

        pool = [
            dpath(3),
            dcycle(3),
            digraph(3, [(0, 1), (1, 0), (1, 2)]),
            scycle(3),
            Structure(TERN, 5, {"R": [(0, 1, 2), (2, 3, 4), (4, 0, 1)]}),
            digraph(5, [(0, 1), (1, 2), (3, 4)]),
        ]
        for a in pool:
            for b in biconnected_components(a):
                if len(b.tuples) > 1:
                    assert not shape.is_forest(b.structure)
