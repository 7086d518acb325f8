import pytest
from hypothesis import example, given, settings

from homkit.duality import (
    dedup_hom_equivalent,
    forest_family_duals,
    terminal_structure,
    tree_dual,
    verify_duality,
)
from homkit.enumeration import all_structures
from homkit.errors import GuardExceededError, NotATreeError
from homkit.homs import hom_equivalent, hom_exists, is_core
from homkit.patterns import PatternFamily, verify_shadow_duality
from homkit.shape import connected_component_elements, is_forest
from homkit.structures import Lift, Structure, is_isomorphic, make_signature, product

from util import DIGRAPH, MIXED, clique, dcycle, digraph, dpath, loop_vertex, mixed_trees, naive_tree_dual, point


class TestTreeDual:
    def test_single_arc(self):
        d = tree_dual(dpath(1))
        assert is_isomorphic(d, point())

    def test_directed_2path(self):
        d = tree_dual(dpath(2))
        assert is_isomorphic(d, dpath(1))

    def test_single_point(self):
        d = tree_dual(point())
        assert d.n == 0

    def test_out_star(self):
        # any out-star forces the same avoidance as a single arc
        for leaves in (2, 3):
            star = digraph(leaves + 1, [(0, i + 1) for i in range(leaves)])
            assert is_isomorphic(tree_dual(star), point())

    def test_directed_3path_is_layering_template(self):
        t3 = digraph(3, [(0, 1), (0, 2), (1, 2)])
        assert hom_equivalent(tree_dual(dpath(3)), t3)

    def test_rejects_cycles_and_disconnected(self):
        with pytest.raises(NotATreeError):
            tree_dual(dcycle(3))
        with pytest.raises(NotATreeError):
            tree_dual(digraph(2))
        with pytest.raises(NotATreeError):
            tree_dual(digraph(0))

    @pytest.mark.parametrize("k", range(3, 11))
    def test_directed_path_dual_is_transitive_tournament(self, k):
        assert is_isomorphic(tree_dual(dpath(k)), transitive_tournament(k))

    @pytest.mark.parametrize("k", [6, 8])
    def test_path_dual_is_the_reference_core(self, k):
        d, want = tree_dual(dpath(k)), naive_tree_dual(dpath(k))
        assert (d.n, d.rels) == (want.n, want.rels)

    def test_reference_dual_on_all_small_trees(self):
        for t in all_trees(4):
            d, want = tree_dual(t), naive_tree_dual(t)
            assert (d.n, d.rels) == (want.n, want.rels), t

    @settings(max_examples=200, deadline=None)
    @given(mixed_trees())
    @example(Structure(MIXED, 5, {"U": [(3,)], "E": [(0, 1), (2, 1)], "T": [(3, 4, 1)]}))  # needs the T walk
    def test_reference_dual_on_random_mixed_tree(self, t):
        d, want = tree_dual(t), naive_tree_dual(t)
        assert (d.n, d.rels) == (want.n, want.rels)

    @pytest.mark.parametrize("colours", [1, 2])
    @pytest.mark.parametrize("k", range(2, 7))
    def test_reference_dual_on_coloured_path(self, k, colours):
        t = coloured_path(k, colours)
        d, want = tree_dual(t), naive_tree_dual(t)
        assert (d.n, d.rels) == (want.n, want.rels)

    def test_one_colour_8_element_path(self):
        # 2 * 2 * 3^6 = 2,916 maps before coring
        t = coloured_path(8, 1)
        d = tree_dual(t)
        assert d.n == 8
        assert verify_duality([t], [d], 3) == (True, None)

    def test_universe_cap_counts_maps_to_incident_tuples(self):
        # the 8-arc path has 7 inner elements on two arcs each: 2^7 maps
        with pytest.raises(GuardExceededError):
            tree_dual(dpath(8), universe_cap=127)
        assert is_isomorphic(tree_dual(dpath(8), universe_cap=128), transitive_tournament(8))

    def test_outputs_are_cores(self):
        for t in [dpath(1), dpath(2), dpath(3), digraph(3, [(0, 1), (0, 2)])]:
            assert is_core(tree_dual(t))

    @settings(max_examples=20, deadline=None)
    @given(mixed_trees())
    def test_dual_of_random_mixed_tree(self, t):
        d = tree_dual(t)
        assert is_core(d)
        assert verify_duality([t], [d], 2) == (True, None)


COLOURED = make_signature([("E", 2), ("C1", 1), ("C2", 1)])


def coloured_path(k, colours):
    """The directed path on k elements, all coloured C1, or C1 and C2 in turn."""
    c1 = [(i,) for i in range(k) if colours == 1 or i % 2 == 0]
    c2 = [(i,) for i in range(k) if colours == 2 and i % 2 == 1]
    return Structure(COLOURED, k, {"E": [(i, i + 1) for i in range(k - 1)], "C1": c1, "C2": c2})


def transitive_tournament(k):
    return digraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def all_trees(max_n):
    return [
        a
        for a in all_structures(DIGRAPH, max_n)
        if a.n >= 1 and is_forest(a) and len(connected_component_elements(a)) == 1
    ]


def test_duality_for_all_small_trees():
    cache = {}
    for t in all_trees(4):
        ok, cex = verify_duality([t], [tree_dual(t)], 4, cache=cache)
        assert ok, (t, cex)


# The first counterexample of each sweep over digraphs with at most 4
# elements, as (n, arcs), or None where the sweep passes.  Row i is the
# i-th tree of `all_trees(3)` as the obstruction; column j checks it
# against the dual of the j-th tree.
TREE_DUALITY_COUNTEREXAMPLES = [
    [None, (1, []), (1, []), (1, []), (1, [])],
    [(1, []), None, None, (2, [(0, 1)]), None],
    [(1, []), None, None, (3, [(0, 1), (0, 2)]), None],
    [(1, []), (2, [(0, 1)]), (2, [(0, 1)]), None, (2, [(0, 1)])],
    [(1, []), None, None, (3, [(0, 2), (1, 2)]), None],
]
# The same, with each tree as the one pattern of a one-colour family.
TREE_SHADOW_COUNTEREXAMPLES = [
    [None, (1, []), (1, []), (1, []), (1, [])],
    [(1, []), None, None, (2, [(0, 1)]), None],
    [(1, []), None, None, (2, [(0, 1)]), None],
    [(1, []), (2, [(0, 1)]), (2, [(0, 1)]), None, (2, [(0, 1)])],
    [(1, []), None, None, (2, [(0, 1)]), None],
]


def test_sweep_counterexamples_on_small_trees():
    trees = all_trees(3)
    arcs = [[], [(0, 1)], [(0, 1), (0, 2)], [(0, 2), (1, 0)], [(0, 2), (1, 2)]]
    assert [sorted(t.rel("E")) for t in trees] == arcs
    duals = [tree_dual(t) for t in trees]
    csig = make_signature([("E", 2), ("C", 1)], lift=["C"])

    def found(result):
        ok, cex = result
        assert ok == (cex is None)
        return None if ok else (cex.n, sorted(cex.rel("E")))

    cache = {}
    for t, want_dual, want_shadow in zip(trees, TREE_DUALITY_COUNTEREXAMPLES, TREE_SHADOW_COUNTEREXAMPLES):
        pat = Lift(Structure(csig, t.n, {"E": t.rel("E"), "C": [(x,) for x in range(t.n)]}), 1, "partition")
        fam = PatternFamily(csig, (pat,), "plain", 1)
        assert [found(verify_duality([t], [d], 4, cache=cache)) for d in duals] == want_dual
        assert [found(verify_shadow_duality(fam, [d], 4, cache=cache)) for d in duals] == want_shadow


class TestVerifyDuality:
    def test_arc_duality_holds(self):
        ok, cex = verify_duality([dpath(1)], [point()], 3)
        assert ok and cex is None

    def test_cache_keyed_by_value(self):
        # equal but distinct inputs hit the entries of the first sweep
        cache = {}
        first = verify_duality([dpath(2)], [dpath(1)], 3, cache=cache)
        sizes = {name: len(memo) for name, memo in cache.items()}
        second = verify_duality([dpath(2)], [dpath(1)], 3, cache=cache)
        assert first == second == (True, None)
        assert {name: len(memo) for name, memo in cache.items()} == sizes

    def test_wrong_dual_detected(self):
        ok, cex = verify_duality([dpath(1)], [dpath(1)], 2)
        assert not ok
        # the template itself maps to itself yet contains the obstruction image
        assert cex is not None

    def test_triangle_has_no_finite_duality_samples(self):
        # negative control at small scale: a few representative candidates
        tri = dcycle(3)
        for d in [point(), loop_vertex(), clique(2), dcycle(3), digraph(3, [(0, 1), (0, 2), (1, 2)])]:
            ok, cex = verify_duality([tri], [d], 5)
            assert not ok, d


class TestFamilyDuals:
    def test_arc_and_2path(self):
        duals = forest_family_duals([dpath(1), dpath(2)])
        assert len(duals) == 1
        assert is_isomorphic(duals[0], point())
        ok, _ = verify_duality([dpath(1), dpath(2)], duals, 3)
        assert ok

    def test_disconnected_forest_obstruction(self):
        # forbidding "both components occur" admits avoiding either one
        two_arcs = digraph(4, [(0, 1), (2, 3)])
        duals = forest_family_duals([two_arcs])
        ok, cex = verify_duality([two_arcs], duals, 3)
        assert ok, cex

    def test_two_obstructions_intersect_languages(self):
        fam = [dpath(1)]
        duals = forest_family_duals(fam)
        for a in all_structures(DIGRAPH, 3):
            lhs = all(hom_exists(f, a) is None for f in fam)
            rhs = any(hom_exists(a, d) is not None for d in duals)
            assert lhs == rhs

    def test_empty_family_needs_terminal(self):
        term = terminal_structure(DIGRAPH)
        assert term.n == 1 and (0, 0) in term.rel("E")
        with pytest.raises(ValueError):
            forest_family_duals([])

    def test_point_obstruction_gives_empty_csp(self):
        duals = forest_family_duals([point()])
        # only the empty structure avoids a single point
        assert all(d.n == 0 for d in duals)

    def test_cyclic_member_rejected_with_witness(self):
        try:
            forest_family_duals([dcycle(3)])
        except NotATreeError as e:
            assert e.cycle is not None
            assert len(e.cycle) == 3
        else:
            pytest.fail("expected NotATreeError")


def scaled_c4():
    arcs = []
    for i in range(4):
        arcs += [(i, (i + 1) % 4), ((i + 1) % 4, i)]
    return digraph(4, arcs)


def test_dedup_hom_equivalent():
    # C4 and K2 are hom-equivalent: one survivor
    kept = dedup_hom_equivalent([clique(2), scaled_c4()])
    assert len(kept) == 1
    # K2 maps into K3, so its CSP is subsumed in the union
    kept = dedup_hom_equivalent([clique(2), scaled_c4(), clique(3)])
    assert len(kept) == 1
    assert hom_equivalent(kept[0], clique(3))
    # incomparable templates both survive
    kept = dedup_hom_equivalent([clique(2), dcycle(3)])
    assert len(kept) == 2


def test_product_respects_csp_intersection():
    # A -> B x C iff A -> B and A -> C, over the small catalog
    b, c = clique(2), dpath(1)
    p = product(b, c)
    for a in all_structures(DIGRAPH, 3):
        lhs = hom_exists(a, p) is not None
        rhs = hom_exists(a, b) is not None and hom_exists(a, c) is not None
        assert lhs == rhs
