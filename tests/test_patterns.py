import dataclasses
import io
import itertools
import keyword
import random
import re
import time
import tokenize

import pytest
from hypothesis import assume, given, settings, strategies as st

from homkit import patterns
from homkit.enumeration import all_structures
from homkit.errors import GuardExceededError, InvalidStructureError, SignatureMismatchError
from homkit.homs import hom_equivalent, hom_exists
from homkit.patterns import (
    PatternFamily,
    corroborate_negative,
    decide_finite_union_csp,
    expand_partial_constraints,
    fp_membership,
    injective_expansion,
    lift_occurrence,
    make_partition_lift,
    normalize_family,
    partition_power,
    solve_nogoods,
    union_families,
    verify_shadow_duality,
)
from homkit.snp import eval_snp, parse_snp
from homkit.structures import (
    Homomorphism,
    Lift,
    PLAIN,
    Structure,
    classify_cover,
    lift_canonical_form,
    make_signature,
    pullback_lift,
    shadow,
)

from util import (
    DIGRAPH,
    clique,
    dcycle,
    digraph,
    dpath,
    fully_colored,
    monadic_families,
    monadic_forest_families,
    naive_family_nogoods,
    naive_formula_nogoods,
    naive_homs,
    naive_injective_expansion,
    naive_least_coloring,
    naive_normalize,
    partial_families,
    planted_arcs,
    proper_colouring,
    same_constraint,
    scycle,
    shadow_sharing_families,
    shadow_sharing_formulas,
    ue_structures,
)

CSIG = make_signature([("E", 2), ("C1", 1), ("C2", 1), ("C3", 1)], lift=["C1", "C2", "C3"])
TSIG = make_signature([("E", 2), ("C", 1)], lift=["C"])
BSIG = make_signature([("E", 2), ("C1", 1), ("C2", 1)], lift=["C1", "C2"])


def mono_edge(sig, color, n_colors_sig=None):
    rels = {"E": [(0, 1)], color: [(0,), (1,)]}
    return Lift(Structure(sig, 2, rels), 1, "none")


def three_col_family():
    return PatternFamily(CSIG, tuple(mono_edge(CSIG, f"C{i}") for i in (1, 2, 3)), "plain", 1)


def two_col_family():
    return PatternFamily(BSIG, tuple(mono_edge(BSIG, f"C{i}") for i in (1, 2)), "plain", 1)


def triangle_free_family():
    tri = Lift(
        Structure(TSIG, 3, {"E": [(0, 1), (1, 2), (2, 0)], "C": [(0,), (1,), (2,)]}),
        1,
        "partition",
    )
    return PatternFamily(TSIG, (tri,), "plain", 1)


PSIG = make_signature([("E", 2), ("A", 2), ("B", 2)], lift=["A", "B"])


def pair_family():
    """Lift arity 2: every arc is colored A, and no A-pair runs both ways."""
    arc_b = Lift(Structure(PSIG, 2, {"E": [(0, 1)], "B": [(0, 1)]}), 2, "none")
    a_both = Lift(Structure(PSIG, 2, {"A": [(0, 1), (1, 0)]}), 2, "none")
    return PatternFamily(PSIG, (arc_b, a_both), "plain", 2)


def naive_membership(a, fam):
    """Exhaust every coloring and every pattern map; no search machinery."""
    colors = fam.colors()
    slots = list(itertools.product(range(a.n), repeat=fam.lift_arity))
    for combo in itertools.product(range(len(colors)), repeat=len(slots)):
        coloring = dict(zip(slots, combo))
        witness = make_partition_lift(fam, a, coloring)
        bad = False
        for p in fam.patterns:
            maps = naive_homs(
                p.struct,
                witness.struct,
                fam.mode_tag,
                noncollapse=p.noncollapse,
                free_tuples=p.free_tuples,
            )
            if maps:
                bad = True
                break
        if not bad:
            return True
    return False


class TestMembership:
    def test_k3_has_witness_k4_does_not(self):
        fam = three_col_family()
        w = fp_membership(clique(3), fam)
        assert w is not None
        assert all(lift_occurrence(fam, p, w) is None for p in fam.patterns)
        assert fp_membership(clique(4), fam) is None

    @pytest.mark.parametrize("collection", [set, list])
    def test_pattern_constraints_may_come_as_a_set_or_list(self, collection):
        # one full-mode pattern with a noncollapse pair and a free slot,
        # built from `collection` and from frozensets
        rels = {"E": [(0, 1)], "C1": [(0,), (1,)]}
        given = Lift(Structure(BSIG, 2, rels), 1, "none", collection([(0, 1)]), collection([("E", (1, 0))]))
        frozen = Lift(Structure(BSIG, 2, rels), 1, "none", frozenset({(0, 1)}), frozenset({("E", (1, 0))}))
        assert given == frozen and hash(given) == hash(frozen)
        fams = [PatternFamily(BSIG, (p, mono_edge(BSIG, "C2")), "full", 1) for p in (given, frozen)]
        for a in (clique(2), clique(3), dcycle(3), digraph(3, [(0, 1), (1, 2)])):
            got, want = (fp_membership(a, fam) for fam in fams)
            assert got == want
            assert (got is None) == (not naive_membership(a, fams[1]))

    def test_empty_family_any_witness(self):
        fam = PatternFamily(CSIG, (), "plain", 1)
        assert fp_membership(clique(4), fam) is not None

    def test_membership_agrees_with_naive(self):
        fams = [three_col_family(), two_col_family(), triangle_free_family()]
        pool = list(all_structures(DIGRAPH, 3))
        for fam in fams:
            for a in pool:
                assert (fp_membership(a, fam) is not None) == naive_membership(a, fam), (fam, a)

    def test_brute_force_3_coloring_agreement(self):
        fam = three_col_family()

        def brute(a):
            return a.n == 0 or any(
                all(c[x] != c[y] for x, y in a.rel("E"))
                for c in itertools.product(range(3), repeat=a.n)
            )

        for a in all_structures(DIGRAPH, 4):
            assert (fp_membership(a, fam) is not None) == brute(a)

    def test_family_compiles_once(self, monkeypatch):
        # a doubly-colored pattern can never occur and is not compiled
        both = Lift(Structure(CSIG, 1, {"C1": [(0,)], "C2": [(0,)]}), 1, "none")
        fam = PatternFamily(CSIG, three_col_family().patterns + (both,), "plain", 1)
        shadowed = []
        real = patterns.shadow
        monkeypatch.setattr(patterns, "shadow", lambda p: shadowed.append(p) or real(p))
        inputs = [clique(3), clique(4), dcycle(5), digraph(2, [(0, 0)]), digraph(0)] * 4
        for a in inputs:
            fp_membership(a, fam)
        assert len(shadowed) == 3

    def test_witnesses_avoid_every_pattern(self):
        for fam in (three_col_family(), two_col_family(), triangle_free_family()):
            for a in all_structures(DIGRAPH, 3):
                w = fp_membership(a, fam)
                if w is not None:
                    assert shadow(w) == a
                    assert all(lift_occurrence(fam, p, w) is None for p in fam.patterns)


class TestGroupedWalk:
    @settings(max_examples=300, deadline=None)
    @given(fam=shadow_sharing_families(), a=ue_structures())
    def test_matches_the_per_pattern_walk(self, fam, a):
        r = fam.lift_arity
        slots = itertools.product(range(a.n), repeat=r)
        index = {t if r > 1 else t[0]: i for i, t in enumerate(slots)}
        walked = patterns._walk_occurrences(fam._compiled, a, (index,))
        assert same_constraint(a.n**r, len(fam.colors()), walked, naive_family_nogoods(fam, a))

    def test_one_search_per_shared_shadow(self, monkeypatch):
        searched = []
        real = patterns.hom_maps
        monkeypatch.setattr(patterns, "hom_maps", lambda sh, a, mode: searched.append(sh) or real(sh, a, mode))
        assert fp_membership(clique(3), three_col_family()) is not None
        assert len(searched) == 1
        # same shadow, different noncollapse pairs: two searches
        path = {"E": [(0, 1), (1, 2)], "C1": [(0,), (2,)]}
        pats = (
            Lift(Structure(CSIG, 3, path), 1, "none"),
            Lift(Structure(CSIG, 3, path), 1, "none", frozenset({(0, 2)})),
        )
        searched.clear()
        fp_membership(clique(3), PatternFamily(CSIG, pats, "plain", 1))
        assert len(searched) == 2

    def test_trusted_witnesses_are_valid_lifts(self):
        for fam in (three_col_family(), triangle_free_family(), pair_family()):
            r = fam.lift_arity
            members = 0
            for a in all_structures(DIGRAPH, 3):
                w = fp_membership(a, fam)
                if w is None:
                    continue
                members += 1
                rels = {name: w.struct.rel(name) for name in fam.sig.names}
                assert w == Lift(Structure(fam.sig, a.n, rels), r, "partition")
                assert classify_cover(w.struct, r) == "partition"
                assert all(lift_occurrence(fam, p, w) is None for p in fam.patterns)
            assert members > 0


@settings(max_examples=300, deadline=None)
@given(subject=st.one_of(shadow_sharing_families(), partial_families(), shadow_sharing_formulas()),
       a=ue_structures())
def test_mask_and_nogood_paths_agree(subject, a):
    # the two private deciders on one input, whatever the size of its space
    if isinstance(subject, PatternFamily):
        arities, k = (subject.lift_arity,), len(subject.colors())
        naive = naive_family_nogoods(subject, a)
    else:
        arities, k = tuple(arity for _, arity in subject.proof), 2
        naive = naive_formula_nogoods(subject, a)
    masks = patterns._least_coloring(subject._compiled, a, arities, k)
    nogoods = patterns._nogood_coloring(subject._compiled, a, arities, k)
    assert (masks is None) == (nogoods is None)
    assert masks == naive_least_coloring(sum(a.n**r for r in arities), k, naive)
    if masks is not None and isinstance(subject, PatternFamily):
        slots = itertools.product(range(a.n), repeat=arities[0])
        w = patterns._partition_witness(subject, a, patterns._color_classes(slots, masks, k))
        assert all(lift_occurrence(subject, p, w) is None for p in subject.patterns)


class TestMaskBoundary:
    """Which decider runs, at the edges of the mask path's space."""

    @staticmethod
    def spy_on_solver(monkeypatch):
        calls = []
        solve = patterns.solve_nogoods
        monkeypatch.setattr(patterns, "solve_nogoods", lambda *args: calls.append(args[:2]) or solve(*args))
        return calls

    def test_one_color_on_twenty_vertices(self, monkeypatch):
        calls = self.spy_on_solver(monkeypatch)
        fam = triangle_free_family()
        w = fp_membership(dcycle(20), fam)  # 1^20 = 1 coloring
        assert w is not None and w.struct.rel("C") == {(x,) for x in range(20)}
        assert fp_membership(digraph(20, [*dcycle(20).rel("E"), (2, 0)]), fam) is None
        assert calls == []

    def test_empty_structure(self):
        fam = three_col_family()
        empty = Structure(fam.base_sig, 0)
        w = fp_membership(empty, fam)
        assert w is not None and w.n == 0
        for decide in (patterns._least_coloring, patterns._nogood_coloring):
            assert decide(fam._compiled, empty, (1,), 3) == []
        # a 0-element pattern occurs everywhere
        nothing = PatternFamily(CSIG, (Lift(Structure(CSIG, 0), 1, "none"),), "plain", 1)
        for a in (empty, clique(2)):
            assert fp_membership(a, nothing) is None
            for decide in (patterns._least_coloring, patterns._nogood_coloring):
                assert decide(nothing._compiled, a, (1,), 3) is None

    def test_member_without_cells(self):
        # an uncolored point: every occurrence forbids every coloring
        fam = PatternFamily(CSIG, (Lift(Structure(CSIG, 1), 1, "none"),), "plain", 1)
        assert fp_membership(digraph(14), fam) is None  # 3^14 colorings
        for decide in (patterns._least_coloring, patterns._nogood_coloring):
            assert decide(fam._compiled, clique(2), (1,), 3) is None
        assert fp_membership(Structure(fam.base_sig, 0), fam) is not None

    @staticmethod
    def spy_on_templates(monkeypatch):
        calls = []
        route = patterns._template_coloring

        def spy(templates, a):
            calls.append(a.n)
            return route(templates, a)

        monkeypatch.setattr(patterns, "_template_coloring", spy)
        return calls

    @staticmethod
    def two_colourings():
        """Two-colourability as a family and a formula with templates, and the
        same language on loopless graphs as two without: injective mode, and
        clauses with x != y."""
        fam = two_col_family()
        injective = PatternFamily(BSIG, fam.patterns, "injective", 1)
        clauses = ("E(x,y) & P(x) & P(y)", "E(x,y) & !P(x) & !P(y)")
        phi, apart = (parse_snp("snp two { input { E/2 } proof { P/1 } "
                                + " ".join(f"clause NOT( {c}{extra} ) ;" for c in clauses) + " }")
                      for extra in ("", " & x != y"))
        return fam, injective, phi, apart

    def test_spaces_at_and_just_above_the_limit(self, monkeypatch):
        n = patterns._MASK_LIMIT.bit_length() - 1
        assert 2**n == patterns._MASK_LIMIT
        solved = self.spy_on_solver(monkeypatch)
        routed = self.spy_on_templates(monkeypatch)
        fam, injective, phi, apart = self.two_colourings()
        for size, above in ((n, False), (n + 1, True)):
            for length, member in ((size, size % 2 == 0), (size - 1, size % 2 == 1)):
                a = digraph(size, scycle(length).rel("E"))  # 2^size colorings
                solved.clear()
                routed.clear()
                assert (fp_membership(a, fam) is not None) == member
                assert eval_snp(phi, a) == member
                assert solved == [] and routed == [size] * 2 * above
                routed.clear()
                assert (fp_membership(a, injective) is not None) == member
                assert eval_snp(apart, a) == member
                assert solved == [(size, 2)] * 2 * above and routed == []

    def test_bits_cap_bounds_the_mask_and_solver_routes(self):
        # the cap is checked before the mask and the solver routes, never
        # before the templates, and only a space above it is refused
        fam, injective, phi, apart = self.two_colourings()
        n = patterns._MASK_LIMIT.bit_length() - 1
        for size in (4, n + 1):  # 2^4 colourings on the masks, 2^(n+1) for the solver
            a = digraph(size, scycle(size).rel("E"))
            for cap in (-1, 0, size - 1):
                with pytest.raises(GuardExceededError):
                    fp_membership(a, injective, bits_cap=cap)
                with pytest.raises(GuardExceededError):
                    eval_snp(apart, a, bits_cap=cap)
            assert fp_membership(a, injective, bits_cap=size) is not None
            assert eval_snp(apart, a, bits_cap=size)
        for length in (n, n + 1):
            a = digraph(n + 1, scycle(length).rel("E"))  # 2^(n+1) colourings
            for cap in (-1, 0, n):
                assert (fp_membership(a, fam, bits_cap=cap) is not None) == (length % 2 == 0)
                assert eval_snp(phi, a, bits_cap=cap) == (length % 2 == 0)

    def test_ramsey_family_takes_both_paths(self, monkeypatch):
        calls = self.spy_on_solver(monkeypatch)
        fam = ramsey_family()
        assert fp_membership(clique(3), fam) is not None  # 2^9 colorings
        assert calls == []
        for n in (4, 5, 6):  # 2^16 colorings and more
            fp_membership(clique(n), fam)
        assert calls == [(16, 2), (25, 2), (36, 2)]


def colours_of(w, colors):
    """The class index of each element of a monadic partition lift."""
    out = [None] * w.n
    for ci, name in enumerate(colors):
        for (x,) in w.struct.rel(name):
            out[x] = ci
    return out


@settings(max_examples=80, deadline=None)
@given(fam=monadic_forest_families(), n=st.integers(14, 40), data=st.data())
def test_template_route_agrees_with_the_solver(fam, n, data):
    # at least 2^14 colourings, so a family with templates takes their route
    templates = patterns._cached_templates(fam, lambda: patterns._build_templates(fam))
    assume(templates is not None)
    vertex = st.integers(0, n - 1)
    a = digraph(n, data.draw(st.lists(st.tuples(vertex, vertex), min_size=n // 2, max_size=2 * n)))
    w = fp_membership(a, fam)
    assert (w is None) == (patterns._nogood_coloring(fam._compiled, a, (1,), len(fam.colors())) is None)
    if w is not None:
        assert shadow(w) == a and classify_cover(w.struct, 1) == "partition"
        assert all(lift_occurrence(fam, p, w) is None for p in fam.patterns)


class TestTemplateRoute:
    """Spaces above the mask limit, for families whose language is a finite union of CSPs."""

    def test_vacuous_patterns_give_the_terminal_template(self, monkeypatch):
        both = Lift(Structure(BSIG, 1, {"C1": [(0,)], "C2": [(0,)]}), 1, "none")
        fam = PatternFamily(BSIG, (both,), "plain", 1)
        [(t, classes)] = patterns._build_templates(fam)
        assert t.n == 1 and classes == (0,)
        calls = TestMaskBoundary.spy_on_solver(monkeypatch)
        w = fp_membership(clique(15), fam)  # 2^15 colourings
        assert w is not None and w.struct.rel("C1") == {(x,) for x in range(15)}
        assert calls == []

    def test_zero_element_pattern_has_no_template(self):
        fam = PatternFamily(BSIG, (Lift(Structure(BSIG, 0), 1, "none"), mono_edge(BSIG, "C1")), "plain", 1)
        assert patterns._build_templates(fam) == ()
        assert fp_membership(digraph(14), fam) is None
        assert patterns._nogood_coloring(fam._compiled, digraph(14), (1,), 2) is None

    def test_uncoloured_point_pattern(self):
        fam = PatternFamily(BSIG, (Lift(Structure(BSIG, 1), 1, "none"),), "plain", 1)
        [(t, classes)] = patterns._build_templates(fam)
        assert t.n == 0 and classes == ()
        assert fp_membership(digraph(14), fam) is None

    def test_duality_cap_falls_back_to_the_solver(self, monkeypatch):
        # a C1 path on 9 elements has a dual of 2 * 3^7 * 2 = 8,748 maps
        path = Lift(Structure(BSIG, 9, {"E": [(i, i + 1) for i in range(8)], "C1": [(i,) for i in range(9)]}), 1, "none")
        fam = PatternFamily(BSIG, (path, mono_edge(BSIG, "C2")), "plain", 1)
        assert patterns._TEMPLATE_CAPS["universe_cap"] < 8748
        assert patterns._build_templates(fam) is None
        calls = TestMaskBoundary.spy_on_solver(monkeypatch)
        # a directed path alternates its classes; a loop takes no class
        for n, loops, member in ((14, [], True), (20, [(0, 0)], False)):
            w = fp_membership(digraph(n, [*dpath(n - 1).rel("E"), *loops]), fam)
            assert (w is not None) == member
            if w is not None:
                assert all(lift_occurrence(fam, p, w) is None for p in fam.patterns)
        assert calls == [(14, 2), (20, 2)]

    def test_cache_is_keyed_by_value_and_bounded(self, monkeypatch):
        monkeypatch.setattr(patterns, "_TEMPLATES", {})
        monkeypatch.setattr(patterns, "_TEMPLATES_KEPT", 2)
        built = []
        build = patterns._build_templates
        monkeypatch.setattr(patterns, "_build_templates", lambda fam: built.append(fam) or build(fam))
        for _ in range(3):
            assert fp_membership(clique(14), three_col_family()) is None  # a fresh, equal family
        assert built == [three_col_family()]
        injective = PatternFamily(BSIG, two_col_family().patterns, "injective", 1)
        for fam in (two_col_family(), injective):
            assert fp_membership(scycle(14), fam) is not None
        assert list(patterns._TEMPLATES) == [two_col_family(), injective]
        assert patterns._TEMPLATES[injective] is None

    @pytest.mark.parametrize("n", [31, 45, 60, 90, 120])
    def test_planted_three_colourable_graphs(self, n):
        rng = random.Random(n)
        fam = three_col_family()
        arcs = planted_arcs(rng, n, 3 * n, 3)
        w = fp_membership(digraph(n, arcs), fam)  # 3^n colourings, past the membership cap
        assert w is not None and shadow(w) == digraph(n, arcs)
        assert proper_colouring(arcs, colours_of(w, fam.colors()))
        assert all(lift_occurrence(fam, p, w) is None for p in fam.patterns)
        k4 = rng.sample(range(n), 4)
        assert fp_membership(digraph(n, arcs | {(u, v) for u in k4 for v in k4 if u != v}), fam) is None


RSIG = make_signature([("E", 2), ("R", 2), ("B", 2)], lift=["R", "B"])


def written_out(n, base, colored):
    """The partition lifts over RSIG on n elements with the `base` tuples and the
    colors `colored` gives (2-tuple -> "R" or "B"), every other 2-tuple taking
    both colors in turn."""
    free = [t for t in itertools.product(range(n), repeat=2) if t not in colored]
    for extra in itertools.product("RB", repeat=len(free)):
        rels = {"R": [], "B": [], **base}
        for t, c in [*colored.items(), *zip(free, extra)]:
            rels[c].append(t)
        yield Lift(Structure(RSIG, n, rels), 2, "partition")


def ramsey_family():
    """Arc 2-colorings with no monochromatic directed triangle and both
    directions of a pair alike: 64 + 64 + 4 written-out patterns."""
    tri = [(0, 1), (1, 2), (2, 0)]
    pats = [p for c in "RB" for p in written_out(3, {"E": tri}, dict.fromkeys(tri, c))]
    pats += written_out(2, {}, {(0, 1): "R", (1, 0): "B"})
    return PatternFamily(RSIG, tuple(pats), "plain", 2)


class TestCompactedWalk:
    def test_ramsey_family(self, monkeypatch):
        first = []
        for _ in range(3):
            # a new family with no walker known: its first call compiles it
            monkeypatch.setattr(patterns, "_WALKERS", {})
            fam = ramsey_family()
            t0 = time.perf_counter()
            fp_membership(clique(3), fam)
            first.append(time.perf_counter() - t0)
        assert len(fam.patterns) == 132
        assert min(first) < 0.02, first
        for n in (3, 4, 5):
            w = fp_membership(clique(n), fam)
            assert w is not None and classify_cover(w.struct, 2) == "partition"
            assert all(lift_occurrence(fam, p, w) is None for p in fam.patterns)
        t0 = time.perf_counter()
        assert fp_membership(clique(6), fam) is None  # R(3,3) = 6
        assert time.perf_counter() - t0 < 1.0

    @settings(max_examples=300, deadline=None)
    @given(fam=partial_families(), data=st.data())
    def test_written_out_patterns_decide_as_brute_force(self, fam, data):
        a = data.draw(ue_structures(max_n=3 if fam.lift_arity == 1 else 2))
        full = fully_colored(fam)
        w = fp_membership(a, full)
        assert (w is not None) == naive_membership(a, full)
        if w is not None:
            assert all(lift_occurrence(full, p, w) is None for p in full.patterns)
        if fam.mode_tag != "full":  # full mode never matches an uncolored tuple
            assert (fp_membership(a, fam) is None) == (w is None)

    def test_equal_groups_of_two_families_share_one_walker(self, monkeypatch):
        monkeypatch.setattr(patterns, "_WALKERS", {})
        sig = make_signature([("Arc", 2), ("Red", 1), ("Green", 1), ("Blue", 1)], lift=["Red", "Green", "Blue"])
        pats = tuple(Lift(Structure(sig, 2, {"Arc": [(0, 1)], c: [(0,), (1,)]}), 1, "none") for c in ("Red", "Green", "Blue"))
        other = PatternFamily(sig, pats, "plain", 1)
        fam = three_col_family()
        (_, _, walkers), = fam._compiled
        nogoods, masks = walkers
        assert fp_membership(clique(3), fam) is not None  # 27 colorings: the mask walker
        # the group and both of its walkers are looked up before any text is made
        monkeypatch.setattr(patterns, "_emit_walker", lambda *args, **kwargs: pytest.fail("emitted a known group again"))
        (_, _, other_walkers), = other._compiled
        assert other_walkers is walkers
        assert nogoods.__code__.co_filename == masks.__code__.co_filename == "<homkit walker>"

        def arc_clique(n):
            return Structure(other.base_sig, n, {"Arc": [(x, y) for x in range(n) for y in range(n) if x != y]})

        for n in (4, 9):  # 3^4 colorings on the mask walker, 3^9 on the nogood walker
            assert fp_membership(arc_clique(n), other) is None
        assert fp_membership(arc_clique(3), other) is not None

    def test_emitted_text_names_no_symbol_color_or_proof(self, monkeypatch):
        texts = []
        compile_search = patterns._compile_search
        monkeypatch.setattr(patterns, "_WALKERS", {})
        monkeypatch.setattr(patterns, "_compile_search", lambda text, name: texts.append(text) or compile_search(text, name))
        sig = make_signature([("Arc", 2), ("Mark", 1), ("Red", 2), ("Blue", 2)], lift=["Red", "Blue"])
        rels = {"Arc": [(0, 1)], "Mark": [(1,)], "Red": [(0, 1), (1, 0), (0, 0)], "Blue": [(1, 1)]}
        pattern = Lift(Structure(sig, 2, rels), 2, "partition", frozenset({(0, 1)}))
        fam = PatternFamily(sig, (pattern,), "plain", 2)
        fam._compiled
        phi = parse_snp("""snp named { input { Arc/2 Mark/1 } proof { Proofy/1 Witness/2 }
          clause NOT( Arc(x,y) & !Mark(y) & Proofy(x) & !Witness(y,x) & x != y ) ;
          clause NOT( Arc(x,y) & Mark(x) & Proofy(x) & Witness(x,x) ) ; }""")
        phi._compiled
        assert len(texts) == 6  # both walkers of each of the three groups, compiled with the group
        assert fp_membership(Structure(fam.base_sig, 1), fam) is not None
        assert eval_snp(phi, Structure(phi.input_sig, 1))
        assert len(texts) == 6  # and nothing more on the first small spaces
        names = {"Arc", "Mark", "Red", "Blue", "Proofy", "Witness", "named", "x", "y"}
        fixed = [{"walk", "maps", "rels", "spaces", "add", "frozenset"}, {"walk", "maps", "rels", "spaces", "f"}] * 3
        for text, allowed in zip(texts, fixed):
            for tok in tokenize.generate_tokens(io.StringIO(text).readline):
                assert tok.type not in (tokenize.STRING, tokenize.COMMENT), tok
                assert tok.string not in names, tok
                if tok.type == tokenize.NAME:
                    assert keyword.iskeyword(tok.string) or tok.string in allowed or re.fullmatch(r"[rsvx]\d+", tok.string), tok


def checked_witness(fam, a, coloring):
    """The partition lift of `a` whose r-tuples, in `itertools.product` order,
    take the color indices `coloring` lists, by the checked constructors."""
    r, colors = fam.lift_arity, fam.colors()
    rels = {name: a.rel(name) for name in a.sig.names} | {name: set() for name in colors}
    for t, ci in zip(itertools.product(range(a.n), repeat=r), coloring):
        rels[colors[ci]].add(t)
    return Lift(Structure(fam.sig, a.n, rels, a.element_names), r, "partition")


def same_lift(w, expected):
    """Equal lifts with the same element names, which `Structure` equality ignores."""
    return w == expected and w.struct.element_names == expected.struct.element_names


@settings(max_examples=300, deadline=None)
@given(fam=st.one_of(shadow_sharing_families(), partial_families()), a=ue_structures())
def test_witness_is_the_checked_lift_of_the_least_coloring(fam, a):
    r, k = fam.lift_arity, len(fam.colors())
    nvars = a.n**r
    if k == 1 or k**nvars <= patterns._MASK_LIMIT:
        coloring = naive_least_coloring(nvars, k, naive_family_nogoods(fam, a))
    else:  # arity 2 on 3 elements with 3 colors: the solver's coloring, which need not be the least
        coloring = patterns._nogood_coloring(fam._compiled, a, (r,), k)
    patterns._CLASSES.clear()
    for _ in ("cold", "warm"):
        w = fp_membership(a, fam)
        assert (w is None) == (coloring is None)
        if w is not None:
            assert same_lift(w, checked_witness(fam, a, coloring))


class TestWitnessClasses:
    """Witness lifts built from color classes, on the mask route from `_CLASSES`."""

    @staticmethod
    def least(fam, a):
        return checked_witness(fam, a, naive_least_coloring(a.n**fam.lift_arity, len(fam.colors()),
                                                            naive_family_nogoods(fam, a)))

    def test_empty_structure(self, monkeypatch):
        monkeypatch.setattr(patterns, "_CLASSES", {})
        for fam in (three_col_family(), pair_family()):
            empty = Structure(fam.base_sig, 0)
            for _ in range(2):
                assert same_lift(fp_membership(empty, fam), Lift(Structure(fam.sig, 0), fam.lift_arity, "partition"))

    def test_one_class_on_twenty_vertices(self, monkeypatch):
        monkeypatch.setattr(patterns, "_CLASSES", {})
        fam = triangle_free_family()
        for _ in range(2):
            assert same_lift(fp_membership(dcycle(20), fam), checked_witness(fam, dcycle(20), [0] * 20))
        assert list(patterns._CLASSES) == [(20, 1, 1, 0)]

    def test_ramsey_family(self, monkeypatch):
        monkeypatch.setattr(patterns, "_CLASSES", {})
        fam = ramsey_family()
        for _ in range(2):
            assert same_lift(fp_membership(clique(3), fam), self.least(fam, clique(3)))  # 2^9 colorings
        for n in (4, 5):  # 2^16 and 2^25 colorings: the solver's coloring
            a = clique(n)
            w = fp_membership(a, fam)
            assert same_lift(w, checked_witness(fam, a, patterns._nogood_coloring(fam._compiled, a, (2,), 2)))
        assert [key[:3] for key in patterns._CLASSES] == [(3, 2, 2)]

    def test_element_names_are_kept(self):
        fam = three_col_family()
        a = Structure(fam.base_sig, 3, {"E": [(0, 1), (1, 2)]}, ("a", "b", "c"))
        for _ in range(2):
            w = fp_membership(a, fam)
            assert w.struct.element_names == ("a", "b", "c")
            assert same_lift(w, self.least(fam, a))

    def test_planted_graph_on_the_template_route(self, monkeypatch):
        routed = TestMaskBoundary.spy_on_templates(monkeypatch)
        fam = three_col_family()
        arcs = planted_arcs(random.Random(7), 33, 99, 3)
        a = digraph(33, arcs)
        w = fp_membership(a, fam)
        assert routed == [33]
        colours = colours_of(w, fam.colors())
        assert same_lift(w, checked_witness(fam, a, colours)) and proper_colouring(arcs, colours)

    def test_table_is_bounded_and_keeps_the_newest(self, monkeypatch):
        monkeypatch.setattr(patterns, "_CLASSES", {})
        monkeypatch.setattr(patterns, "_CLASSES_KEPT", 3)
        fam = three_col_family()
        # (structure, index of its least coloring among the 3^n)
        cases = [(digraph(n), 0) for n in range(4)] + [(clique(3), 5), (dpath(2), 3)]
        for a, _ in cases:
            assert same_lift(fp_membership(a, fam), self.least(fam, a))
        assert list(patterns._CLASSES) == [(a.n, 1, 3, i) for a, i in cases[-3:]]
        for a, _ in cases:  # evicted or kept, the witnesses stay the same
            assert same_lift(fp_membership(a, fam), self.least(fam, a))
        assert len(patterns._CLASSES) == 3


class TestMakePartitionLift:
    def test_colors_each_tuple(self):
        w = make_partition_lift(two_col_family(), digraph(2, [(0, 1)]), {(0,): 1, (1,): 0})
        assert w.struct.rel("C1") == {(1,)} and w.struct.rel("C2") == {(0,)}
        assert w.struct.rel("E") == {(0, 1)} and w.cover_mode == "partition"
        w2 = make_partition_lift(pair_family(), digraph(1), {(0, 0): 1})
        assert w2.struct.rel("A") == set() and w2.struct.rel("B") == {(0, 0)}

    @pytest.mark.parametrize("index", [-1, 2, 0.5, None])
    def test_rejects_a_color_index_out_of_range(self, index):
        with pytest.raises(InvalidStructureError, match="color index"):
            make_partition_lift(two_col_family(), digraph(2), {(0,): index, (1,): 0})

    @pytest.mark.parametrize("key", [(2,), (-1,), (0, 1), 0, ()])
    def test_rejects_a_key_that_is_no_tuple_of_the_structure(self, key):
        with pytest.raises(InvalidStructureError, match="coloring key"):
            make_partition_lift(two_col_family(), digraph(2), {key: 0, (1,): 0})

    def test_rejects_a_partial_coloring(self):
        with pytest.raises(InvalidStructureError, match="not a partition"):
            make_partition_lift(two_col_family(), digraph(2), {(1,): 0})

    def test_rejects_a_foreign_signature(self):
        with pytest.raises(SignatureMismatchError):
            make_partition_lift(two_col_family(), Structure(make_signature([("F", 2)]), 1), {(0,): 0})


class TestFamilyArity:
    def test_lift_arity_must_match_lift_symbols(self):
        pats = three_col_family().patterns
        with pytest.raises(InvalidStructureError):
            PatternFamily(CSIG, pats, "plain", 2)
        with pytest.raises(InvalidStructureError):
            PatternFamily(CSIG, (), "plain", 2)

    def test_lift_arity_must_be_positive(self):
        with pytest.raises(InvalidStructureError):
            PatternFamily(CSIG, (), "plain", 0)


def test_family_hash_is_the_dataclass_hash_computed_once(monkeypatch):
    fam, twin = three_col_family(), three_col_family()
    assert fam == twin and fam is not twin and hash(fam) == hash(twin)
    assert hash(fam) == hash(tuple(getattr(fam, f.name) for f in dataclasses.fields(fam)))
    hashed = []
    lift_hash = Lift.__hash__
    monkeypatch.setattr(Lift, "__hash__", lambda p: hashed.append(p) or lift_hash(p))
    fresh = three_col_family()
    assert {hash(fresh) for _ in range(3)} == {hash(fam)}
    assert hashed == list(fresh.patterns)


@st.composite
def nogood_instances(draw):
    nvars = draw(st.integers(0, 6))
    k = draw(st.integers(1, 3))
    if nvars:
        nogood = st.dictionaries(st.integers(0, nvars - 1), st.integers(0, k - 1), max_size=nvars)
    else:
        nogood = st.just({})
    nogoods = draw(st.lists(nogood, max_size=12))
    return nvars, k, [tuple(g.items()) for g in nogoods]


def _avoids(values, nogoods):
    return all(any(values[v] != c for v, c in g) for g in nogoods)


class TestSolveNogoods:
    @settings(max_examples=400, deadline=None)
    @given(nogood_instances())
    def test_agrees_with_brute_force(self, instance):
        nvars, k, nogoods = instance
        want = any(_avoids(vs, nogoods) for vs in itertools.product(range(k), repeat=nvars))
        got = solve_nogoods(nvars, k, nogoods)
        assert (got is not None) == want
        if got is not None:
            assert len(got) == nvars and all(0 <= c < k for c in got)
            assert _avoids(got, nogoods)
        # the answer depends on the nogoods, not on their order
        assert solve_nogoods(nvars, k, nogoods[::-1]) == got

    def test_empty_and_unit_nogoods(self):
        assert solve_nogoods(0, 2, []) == []
        assert solve_nogoods(2, 2, [()]) is None
        assert solve_nogoods(1, 2, [((0, 0),), ((0, 1),)]) is None
        assert solve_nogoods(2, 2, [((0, 0),), ((0, 1), (1, 1))]) == [1, 0]


class TestNormalize:
    def test_three_col_minimal_family(self):
        norm = normalize_family(three_col_family())
        assert len(norm.patterns) == 3
        assert all(p.struct.n == 2 for p in norm.patterns)

    def test_language_preserved(self):
        for fam in [three_col_family(), triangle_free_family()]:
            norm = normalize_family(fam)
            for a in all_structures(DIGRAPH, 3):
                assert (fp_membership(a, fam) is None) == (fp_membership(a, norm) is None)

    def test_rigid_pattern_family_is_fixpoint(self):
        tri = triangle_free_family()
        norm = normalize_family(tri)
        assert len(norm.patterns) == 1
        assert norm.patterns[0].struct.n == 3
        again = normalize_family(norm)
        assert [p.struct for p in again.patterns] == [p.struct for p in norm.patterns]

    def test_edge_plus_collapse_image(self):
        # a family listing a pattern and its loop image keeps only the edge
        p = mono_edge(BSIG, "C1")
        loop = Lift(Structure(BSIG, 1, {"E": [(0, 0)], "C1": [(0,)]}), 1, "none")
        fam = PatternFamily(BSIG, (p, loop), "plain", 1)
        norm = normalize_family(fam)
        assert len(norm.patterns) == 1
        assert norm.patterns[0].struct.n == 2

    @settings(max_examples=200, deadline=None)
    @given(monadic_families())
    def test_matches_the_image_closure(self, fam):
        try:
            want = naive_normalize(fam)
        except GuardExceededError:
            return
        got = normalize_family(fam)
        assert [lift_canonical_form(p) for p in got.patterns] == [lift_canonical_form(p) for p in want.patterns]

    def test_long_path_is_its_own_normal_form(self):
        # 8 elements have 4,140 quotients, too many to close the family
        # under homomorphic images; its core is the path itself
        path = one_color_path(8)
        norm = normalize_family(PatternFamily(TSIG, (path,), "plain", 1))
        assert [p.struct for p in norm.patterns] == [path.struct]


def one_color_path(n):
    """The directed path on n elements, every element coloured C."""
    rels = {"E": [(i, i + 1) for i in range(n - 1)], "C": [(i,) for i in range(n)]}
    return Lift(Structure(TSIG, n, rels), 1, "none")


def _point(color, loop):
    return Lift(Structure(BSIG, 1, {"E": [(0, 0)] if loop else [], color: [(0,)]}), 1, "none")


class TestUnion:
    def test_union_language_is_disjunction(self):
        f2, f3 = two_col_family(), None
        # build a 3-col family over BSIG? use 1-col vs 2-col over the same signature
        one_col = PatternFamily(BSIG, (mono_edge(BSIG, "C1"), mono_edge(BSIG, "C2")), "plain", 1)
        u = union_families(one_col, f2)
        for a in all_structures(DIGRAPH, 3):
            lhs = fp_membership(a, u) is not None
            rhs = (fp_membership(a, one_col) is not None) or (fp_membership(a, f2) is not None)
            assert lhs == rhs

    def test_union_with_always_false_family(self):
        f2 = two_col_family()
        never = PatternFamily(BSIG, (Lift(Structure(BSIG, 0), 1, "none"),), "plain", 1)
        for a in all_structures(DIGRAPH, 3):
            assert fp_membership(a, never) is None
        u = union_families(never, f2)
        for a in all_structures(DIGRAPH, 3):
            assert (fp_membership(a, u) is not None) == (fp_membership(a, f2) is not None)

    def test_union_idempotent_on_language(self):
        f2 = two_col_family()
        u = union_families(f2, f2)
        for a in all_structures(DIGRAPH, 3):
            assert (fp_membership(a, u) is not None) == (fp_membership(a, f2) is not None)

    @pytest.mark.parametrize("mode", ["plain", "injective"])
    def test_union_of_loops_and_arcs(self, mode):
        # under injective matching a loop and an arc of the same colour may
        # share an element, which a disjoint union of the two does not allow
        f1 = PatternFamily(BSIG, (_point("C1", True), _point("C2", True)), mode, 1)
        f2 = PatternFamily(BSIG, (mono_edge(BSIG, "C1"), mono_edge(BSIG, "C2")), mode, 1)
        u = union_families(f1, f2)
        assert u.mode_tag == mode
        for a in all_structures(DIGRAPH, 3):
            want = fp_membership(a, f1) is not None or fp_membership(a, f2) is not None
            assert (fp_membership(a, u) is not None) == want, a

    def test_full_mode_union_raises(self):
        f1 = PatternFamily(BSIG, (_point("C1", False), _point("C2", False)), "full", 1)
        f2 = PatternFamily(BSIG, (_point("C1", True), _point("C2", True)), "full", 1)
        with pytest.raises(ValueError):
            union_families(f1, f2)


class TestDecide:
    def test_three_col_is_csp_of_k3(self):
        out = decide_finite_union_csp(three_col_family())
        assert out.verdict == "finite_union_csp"
        assert len(out.templates) == 1
        assert hom_equivalent(out.templates[0], clique(3))

    def test_two_col_is_csp_of_k2(self):
        out = decide_finite_union_csp(two_col_family())
        assert out.verdict == "finite_union_csp"
        assert len(out.templates) == 1
        assert hom_equivalent(out.templates[0], clique(2))

    def test_triangle_free_is_not(self):
        out = decide_finite_union_csp(triangle_free_family())
        assert out.verdict == "not_finite_union"
        assert out.witness is not None
        assert out.witness_cycle

    def test_empty_family_is_degenerate_positive(self):
        out = decide_finite_union_csp(PatternFamily(CSIG, (), "plain", 1))
        assert out.verdict == "finite_union_csp"
        assert out.templates[0].n == 1
        assert out.note

    def test_positive_verdicts_verify(self):
        for fam in [three_col_family(), two_col_family()]:
            out = decide_finite_union_csp(fam)
            ok, cex = verify_shadow_duality(fam, out.templates, 4)
            assert ok, cex


class TestShadowDuality:
    def test_three_col_vs_k3(self):
        ok, cex = verify_shadow_duality(three_col_family(), [clique(3)], 4)
        assert ok, cex

    def test_three_col_vs_k2_fails(self):
        ok, cex = verify_shadow_duality(three_col_family(), [clique(2)], 3)
        assert not ok
        # the counterexample is 3-colorable yet misses the candidate template
        assert fp_membership(cex, three_col_family()) is not None
        assert hom_exists(cex, clique(2)) is None
        # the canonical separating structure ends up detected too
        ok2, _ = verify_shadow_duality(three_col_family(), [clique(2)], 3)
        assert not ok2

    def test_triangle_free_negative_control(self):
        fam = triangle_free_family()
        # small template sweeps never produce a shadow duality
        for d in [clique(2), dcycle(3), digraph(3, [(0, 1), (0, 2), (1, 2)])]:
            ok, _ = verify_shadow_duality(fam, [d], 4)
            assert not ok, d

    def test_corroborate_negative_triangle_free(self):
        tried = corroborate_negative(triangle_free_family(), template_size=2, set_size=2, max_n=3)
        assert tried > 10

    def test_pullback_witnesses_validate(self):
        # membership witnesses produced by pulling back template homs are
        # accepted by the occurrence validator
        fam = three_col_family()
        out = decide_finite_union_csp(fam)
        duals = out.templates
        # rebuild the lifted template carrying one color per point
        from homkit.duality import forest_family_duals

        lifted_duals = forest_family_duals([p.struct for p in normalize_family(fam).patterns])
        for a in all_structures(DIGRAPH, 3):
            for d in lifted_duals:
                power = partition_power(fam.base_sig, d)
                f = hom_exists(a, power)
                if f is None:
                    continue
                # color a by the class component of the power template
                lifted_power = _power_lift(fam, d)
                g = Homomorphism(a, shadow(lifted_power), f.mapping)
                witness = pullback_lift(g, lifted_power)
                assert all(lift_occurrence(fam, p, witness) is None for p in fam.patterns)


def _power_lift(fam, dual):
    """The partition power of a lifted dual, colors retained."""
    base = partition_power(fam.base_sig, dual)
    color_names = fam.colors()
    points = []
    for x in range(dual.n):
        for name in color_names:
            if (x,) in dual.rel(name):
                points.append((x, name))
    rels = {name: base.rel(name) for name, _ in fam.base_sig.symbols}
    for name in color_names:
        rels[name] = {(i,) for i, (x, c) in enumerate(points) if c == name}
    return Lift(Structure(fam.sig, base.n, rels), 1, "partition")


class TestExpandPartial:
    def test_injective_expansion_single_pair(self):
        p = Lift(Structure(BSIG, 2, {"E": [(0, 1)], "C1": [(0,), (1,)]}), 1, "none")
        fam = PatternFamily(BSIG, (p,), "plain", 1)
        out = injective_expansion(fam)
        assert out.mode_tag == "injective"
        assert len(out.patterns) == 2
        sizes = sorted(q.struct.n for q in out.patterns)
        assert sizes == [1, 2]
        for a in all_structures(DIGRAPH, 3):
            assert (fp_membership(a, fam) is not None) == (
                fp_membership(a, out) is not None
            ), a

    def test_noncollapse_pairs_are_unordered(self):
        # (1, 0) keeps the pair apart as (0, 1) does: no one-element quotient
        for pair in [(0, 1), (1, 0)]:
            p = Lift(Structure(BSIG, 2, {"E": [(0, 1)], "C1": [(0,), (1,)]}), 1, "none", frozenset({pair}))
            out = injective_expansion(PatternFamily(BSIG, (p,), "plain", 1))
            assert [q.struct.n for q in out.patterns] == [2]

    def test_no_constraints_is_fixpoint(self):
        fam = two_col_family()
        assert expand_partial_constraints(fam) is fam
        inj = PatternFamily(BSIG, fam.patterns, "injective", 1)
        assert expand_partial_constraints(inj) is inj

    def test_fully_constrained_plain_equals_injective_semantics(self):
        # marking every pair noncollapse makes plain matching injective; the
        # expansion then merely relabels the mode
        p = Lift(
            Structure(BSIG, 2, {"E": [(0, 1)], "C1": [(0,), (1,)]}),
            1,
            "none",
            noncollapse=frozenset({(0, 1)}),
        )
        fam = PatternFamily(BSIG, (p,), "plain", 1)
        out = expand_partial_constraints(fam)
        assert out.mode_tag == "injective"
        inj = PatternFamily(BSIG, (Lift(p.struct, 1, "none"),), "injective", 1)
        for a in all_structures(DIGRAPH, 3):
            assert (fp_membership(a, out) is not None) == (fp_membership(a, inj) is not None)

    def test_partial_injective_language_preserved(self):
        # one pattern with an explicit noncollapse pair
        p = Lift(
            Structure(BSIG, 2, {"E": [(0, 1)], "C1": [(0,), (1,)]}),
            1,
            "none",
            noncollapse=frozenset({(0, 1)}),
        )
        fam = PatternFamily(BSIG, (p,), "plain", 1)
        out = expand_partial_constraints(fam)
        assert out.mode_tag == "injective"
        for a in all_structures(DIGRAPH, 3):
            assert (fp_membership(a, fam) is not None) == (
                fp_membership(a, out) is not None
            ), a

    def test_full_mode_uncolored_pattern_is_vacuous(self):
        # fullness reflects lift relations: an uncolored element can never
        # match inside a partition lift, so the pattern constrains nothing
        p = Lift(Structure(BSIG, 1, {"E": [(0, 0)]}), 1, "none")
        fam = PatternFamily(BSIG, (p,), "full", 1)
        for a in all_structures(DIGRAPH, 3):
            got = fp_membership(a, fam)
            assert got is not None
            assert naive_membership(a, fam)
            assert all(lift_occurrence(fam, q, got) is None for q in fam.patterns)

    def test_full_expansion_drops_held_free_slot(self):
        # a held free slot is an ordinary tuple: it is dropped, not split
        p = Lift(
            Structure(BSIG, 1, {"E": [(0, 0)], "C1": [(0,)]}),
            1,
            "none",
            free_tuples=frozenset({("E", (0, 0))}),
        )
        fam = PatternFamily(BSIG, (p,), "full", 1)
        out = expand_partial_constraints(fam)
        assert [q.struct for q in out.patterns] == [p.struct]
        assert not out.patterns[0].free_tuples
        for a in all_structures(DIGRAPH, 3):
            assert (fp_membership(a, fam) is not None) == (fp_membership(a, out) is not None)
            assert (fp_membership(a, fam) is not None) == naive_membership(a, fam)

    def test_full_expansion_free_tuple(self):
        p = Lift(
            Structure(BSIG, 1, {"C1": [(0,)]}),
            1,
            "none",
            free_tuples=frozenset({("E", (0, 0))}),
        )
        fam = PatternFamily(BSIG, (p,), "full", 1)
        out = expand_partial_constraints(fam)
        assert len(out.patterns) == 2
        assert not any(q.free_tuples for q in out.patterns)
        for a in all_structures(DIGRAPH, 3):
            assert (fp_membership(a, fam) is not None) == (fp_membership(a, out) is not None)


@st.composite
def constrained_families(draw):
    """Plain monadic families whose patterns carry noncollapse pairs x < y.

    A pattern whose lift relations partition its elements keeps the cover
    mode "partition" half the time, so both cover modes reach the identity
    quotient.
    """
    fam = draw(monadic_families())
    pats = []
    for p in fam.patterns:
        pairs = list(itertools.combinations(range(p.struct.n), 2))
        kept = frozenset(draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
        cover = classify_cover(p.struct, 1)
        cover = cover if cover == "partition" and draw(st.booleans()) else "none"
        pats.append(Lift(p.struct, 1, cover, kept))
    return PatternFamily(fam.sig, tuple(pats), "plain", 1)


@given(constrained_families())
@settings(max_examples=200, deadline=None)
def test_injective_expansion_matches_the_pairwise_worklist(fam):
    got = [lift_canonical_form(p) for p in injective_expansion(fam).patterns]
    assert got == [lift_canonical_form(p) for p in naive_injective_expansion(fam)]
