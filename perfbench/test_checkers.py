"""Tests for the benchmark's independent checkers.

Each checker accepts hand-worked cases and rejects a deliberately wrong
answer.  Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checkers as ck  # noqa: E402
import workloads as wl  # noqa: E402


def sym(edges):
    return [arc for u, v in edges for arc in ((u, v), (v, u))]


def cycle_edges(n):
    return [(i, (i + 1) % n) for i in range(n)]


K3 = ck.digraph(3, sym(itertools.combinations(range(3), 2)))
K4 = ck.digraph(4, sym(itertools.combinations(range(4), 2)))
C5 = ck.digraph(5, sym(cycle_edges(5)))
DPATH3 = ck.digraph(4, [(0, 1), (1, 2), (2, 3)])
DC3 = ck.digraph(3, cycle_edges(3))


class TestMapTable:
    def test_hand_worked(self):
        assert ck.oracle_hom_exists(C5, K3)
        assert not ck.oracle_hom_exists(K4, K3)
        assert not ck.oracle_hom_exists(DPATH3, ck.digraph(2, [(0, 1), (1, 0)]), "injective")
        assert ck.oracle_hom_exists(ck.digraph(2, sym([(0, 1)])), K3, "full")
        two_points, looped = ck.digraph(2, []), ck.digraph(1, [(0, 0)])
        assert ck.oracle_hom_exists(two_points, ck.digraph(1, []), "full")
        assert not ck.oracle_hom_exists(two_points, looped, "full")
        assert ck.oracle_hom_exists(two_points, looped, "plain")

    def test_witness_validator(self):
        assert ck.valid_map(C5, K3, [0, 1, 0, 1, 2])
        assert not ck.valid_map(C5, K3, [0, 1, 0, 1, 0])  # edge {4, 0} is monochromatic
        assert not ck.valid_map(C5, K3, [0, 1, 0, 1, 2], "injective")
        assert ck.valid_map(DPATH3, ck.transitive_tournament(4), [0, 1, 2, 3], "injective")
        assert not ck.valid_map(ck.digraph(2, []), ck.digraph(1, [(0, 0)]), [0, 0], "full")

    def test_hom_rows(self):
        assert ck.hom_rows(ck.digraph(2, [(0, 1)]), DC3) == frozenset(cycle_edges(3))
        assert ck.hom_rows(DC3, DC3) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}


class TestColouring:
    def test_hand_worked(self):
        assert ck.colouring(4, list(itertools.combinations(range(4), 2)), 3) is None
        colours = ck.colouring(5, cycle_edges(5), 3)
        assert colours is not None and ck.proper_colouring(cycle_edges(5), colours)
        assert ck.colouring(5, cycle_edges(5), 2) is None
        planted = ck.colouring(6, [(0, 1), (2, 3), (4, 5), (0, 5)], 3, first=(0, 1, 2))
        assert planted is not None

    def test_rejects_wrong_colouring(self):
        assert not ck.proper_colouring(cycle_edges(5), [0, 1, 0, 1, 0])


class TestTransitiveTournaments:
    def test_gallai_roy(self):
        n, arcs = DPATH3[0], DPATH3[1]["E"]
        assert ck.maps_to_transitive_tournament(n, arcs, 4)
        assert not ck.maps_to_transitive_tournament(n, arcs, 3)
        assert not ck.maps_to_transitive_tournament(3, cycle_edges(3), 10)
        assert ck.longest_walk(3, cycle_edges(3)) == float("inf")

    def test_agrees_with_map_table(self):
        for n, arcs in ck.small_digraphs(3):
            for k in range(1, 4):
                assert ck.maps_to_transitive_tournament(n, arcs, k) == ck.oracle_hom_exists(
                    ck.digraph(n, arcs), ck.transitive_tournament(k)
                )


class TestTwoElementTargets:
    def test_hand_worked(self):
        k2 = sym([(0, 1)])
        assert not ck.two_element_hom(5, sym(cycle_edges(5)), 2, k2)
        assert ck.two_element_hom(4, sym(cycle_edges(4)), 2, k2)
        assert not ck.two_element_hom(1, [(0, 0)], 2, k2)
        assert ck.two_element_hom(3, [], 1, [])
        assert not ck.two_element_hom(3, [(0, 1)], 1, [])

    def test_agrees_with_map_table(self):
        targets = list(ck.small_digraphs(2))
        for n, arcs in ck.small_digraphs(3):
            for m, target in targets:
                if m == 0:
                    continue
                assert ck.two_element_hom(n, arcs, m, target) == ck.oracle_hom_exists(
                    ck.digraph(n, arcs), ck.digraph(m, target)
                ), (n, arcs, target)


class TestGirth:
    def test_hand_worked(self):
        assert ck.incidence_girth(K3) == 2  # two opposite arcs
        assert ck.incidence_girth(DC3) == 3
        assert ck.incidence_girth(DPATH3) == float("inf")
        assert ck.incidence_girth(ck.digraph(1, [(0, 0)])) == 1

    def test_rejects_short_cycle(self):
        assert not ck.incidence_girth(DC3) >= 4


class TestIsomorphism:
    def test_hand_worked(self):
        relabelled = ck.digraph(5, [((2 * u) % 5, (2 * v) % 5) for u, v in C5[1]["E"]])
        assert ck.isomorphic(C5, relabelled)
        assert not ck.isomorphic(C5, ck.digraph(5, sym([(i, i + 1) for i in range(4)])))

    def test_dual_of_directed_path_is_transitive_tournament(self):
        assert ck.isomorphic(ck.transitive_tournament(3), ck.digraph(3, [(2, 0), (2, 1), (0, 1)]))
        assert not ck.isomorphic(ck.transitive_tournament(3), DC3)

    def test_unary_labels_count(self):
        a = (2, {"E": frozenset({(0, 1)}), "C": frozenset({(0,)})})
        b = (2, {"E": frozenset({(0, 1)}), "C": frozenset({(1,)})})
        assert not ck.isomorphic(a, b)


class TestClosedWalks:
    def test_hand_worked(self):
        assert ck.has_closed_3_walk(3, cycle_edges(3))
        assert ck.has_closed_3_walk(1, [(0, 0)])
        assert not ck.has_closed_3_walk(2, sym([(0, 1)]))
        assert not ck.has_closed_3_walk(4, DPATH3[1]["E"])


TWO_COL = (
    [("P", 1)],
    [
        (("x", "y"), (("E", ("x", "y"), True), ("P", ("x",), True), ("P", ("y",), True)), ()),
        (("x", "y"), (("E", ("x", "y"), True), ("P", ("x",), False), ("P", ("y",), False)), ()),
    ],
)


class TestNaiveSNP:
    def test_two_colouring(self):
        assert ck.snp_holds(TWO_COL, 4, sym(cycle_edges(4)))
        assert not ck.snp_holds(TWO_COL, 5, sym(cycle_edges(5)))
        assert not ck.snp_holds(TWO_COL, 3, K3[1]["E"])

    def test_inequality_and_negated_input(self):
        # no two distinct elements both in P, and every element in P
        formula = ([("P", 1)], [
            (("x", "y"), (("P", ("x",), True), ("P", ("y",), True)), (("x", "y"),)),
            (("z",), (("P", ("z",), False),), ()),
        ])
        assert ck.snp_holds(formula, 1, [])
        assert not ck.snp_holds(formula, 2, [])
        # every non-arc pair is forbidden: only complete digraphs with loops qualify
        complete = ([], [(("x", "y"), (("E", ("x", "y"), False),), ())])
        assert ck.snp_holds(complete, 2, list(itertools.product(range(2), repeat=2)))
        assert not ck.snp_holds(complete, 2, [(0, 1)])

    def test_formula_text(self):
        text = wl.formula_text(TWO_COL, "t")
        assert text.startswith("snp t { input { E/2 } proof { P/1 }")
        assert text.count("clause NOT(") == 2


class TestLiftMembership:
    def test_three_colouring_family(self):
        patterns = [(2, {"E": frozenset({(0, 1)}), f"C{i}": frozenset({(0,), (1,)}),
                         **{f"C{j}": frozenset() for j in (1, 2, 3) if j != i}}) for i in (1, 2, 3)]
        colours = ["C1", "C2", "C3"]
        assert ck.lift_member(5, C5[1]["E"], patterns, colours)
        assert not ck.lift_member(4, K4[1]["E"], patterns, colours)


class TestCatalogue:
    def test_small_digraph_classes(self):
        assert len(wl.small_digraph_classes(3)) == 1 + 2 + 10 + 104


class TestWorkloadChecks:
    """The composite checks of the workloads, fed homkit's real and corrupted answers."""

    import homkit as hk

    def test_psi_theta_round_trip(self):
        hk = self.hk
        basis = hk.build_basis(wl.triangle_free_family(hk))
        n, arcs = 5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 3)]
        b = hk.psi(wl.digraph(hk, n, arcs), basis)
        assert wl._psi_check(b, basis, n, arcs)
        arc = basis.block_symbol(0)  # blocks are sorted by size: the single arc first
        wrong = b.with_relations({arc: b.rel(arc) - {(2, 3)}})
        assert not wl._psi_check(wrong, basis, n, arcs)
        assert wl.plain(hk.theta(b, basis)) == ck.digraph(n, arcs)
        assert wl.plain(hk.theta(wrong, basis)) != ck.digraph(n, arcs)

    def test_dual_check(self):
        hk = self.hk
        small = wl.small_digraph_classes(3)
        tree = ck.digraph(3, [(0, 1), (1, 2)])
        assert wl._dual_check({}, small, tree)(hk.tree_dual(wl.digraph(hk, 3, [(0, 1), (1, 2)])))
        assert not wl._dual_check({}, small, tree)(wl.digraph(hk, 3, [(0, 1), (1, 2), (0, 2)]))

    def test_canon_check(self):
        hk = self.hk
        first = cycle_edges(5)
        second = sorted(((2 * u) % 5, (2 * v) % 5) for u, v in first)  # the same cycle, relabelled
        assert sorted(first) != second
        a, b = wl.digraph(hk, 5, first), wl.digraph(hk, 5, second)
        key_of, shape_of = {}, {}
        assert wl._canon_check(key_of, shape_of, 0, ck.digraph(5, first))(hk.canonical_form(a))
        assert wl._canon_check(key_of, shape_of, 0, ck.digraph(5, second))(hk.canonical_form(b))

        def as_given(s):  # a key that encodes its input as given, not canonically
            return s.sig, s.n, (tuple(sorted(s.rel("E"))),)

        key_of, shape_of = {}, {}
        assert wl._canon_check(key_of, shape_of, 0, ck.digraph(5, first))(as_given(a))
        assert not wl._canon_check(key_of, shape_of, 0, ck.digraph(5, second))(as_given(b))
        assert not wl._canon_check(key_of, shape_of, 1, ck.digraph(5, first))(as_given(a))  # shared by two shapes

    def test_colouring_check(self):
        hk = self.hk
        edges = cycle_edges(5)
        check = wl._colouring_check({}, "c5", 5, edges, 3, ())
        witness = hk.hom_exists(wl.digraph(hk, 5, sym(edges)), wl.digraph(hk, 3, K3[1]["E"]))
        assert check(witness)
        assert not check(None)
        assert not wl._colouring_check({}, "k4", 4, list(itertools.combinations(range(4), 2)), 3, ())(witness)


class TestTracer:
    """The traced run's wrappers: every binding is replaced, and counts land where the work is."""

    def test_counts_calls_yields_and_errors(self):
        import run
        from tracer import Tracer

        saved = {k: m for k, m in sys.modules.items() if k == "homkit" or k.startswith("homkit.")}
        try:
            hk = run.fresh_homkit()
            tracer = Tracer().install(hk)
            assert hk.duality.hom_exists is hk.homs.hom_exists is hk.hom_exists
            assert hk.patterns.all_homs is hk.homs.all_homs
            k3 = wl.digraph(hk, 3, K3[1]["E"])
            assert hk.fp_membership(k3, wl.three_col_family(hk)) is not None
            path8 = wl.digraph(hk, 9, [(i, i + 1) for i in range(8)])
            try:
                hk.tree_dual(path8)
            except hk.GuardExceededError:
                pass
            stats = tracer.metrics()
            assert stats["patterns.fp_membership.calls"] == 1
            assert stats["homs.all_homs.calls"] == 3  # one per pattern
            assert stats["homs.all_homs.yields"] > 0
            assert stats["structures.shadow.calls"] == 3
            assert stats["duality.tree_dual.calls"] == 1 and stats["duality.tree_dual.errors"] == 1
            assert stats["patterns.self_s"] > 0 and stats["homs.self_s"] > 0
        finally:
            for k in [k for k in sys.modules if k == "homkit" or k.startswith("homkit.")]:
                del sys.modules[k]
            sys.modules.update(saved)


class TestTally:
    """A run reports one round's operations, and a failing one once, however many rounds ran."""

    def test_counts_per_round(self):
        import run

        def refuse():
            raise KeyError("refused")

        ops = [wl.Op("ok", lambda: 1, lambda r: r == 1), wl.Op("refused", refuse, None, KeyError)]
        tally = run.Tally()
        for _ in range(3):
            tally.run_round(ops)
        assert len(tally.best) == 2 and tally.failing == {1}
        assert (tally.attempted, tally.failed) == (6, 3)
        assert not tally.wrong
