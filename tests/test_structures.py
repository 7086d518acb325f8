import itertools

import pytest
from hypothesis import given, settings, strategies as st

from homkit import structures
from homkit.errors import InvalidStructureError, SignatureMismatchError
from homkit.structures import (
    FULL,
    INJECTIVE,
    PLAIN,
    Homomorphism,
    Lift,
    Structure,
    Signature,
    _canonical_labelling,
    _incidence,
    _refine_colors,
    canonical_form,
    canonical_perm,
    disjoint_union,
    induced,
    is_isomorphic,
    lift_canonical_form,
    make_signature,
    product,
    pullback_lift,
    quotient,
    relabel,
    shadow,
)

import util
from util import (
    DIGRAPH,
    MIXED,
    clique,
    dcycle,
    digraph,
    loop_vertex,
    mixed_structures,
    naive_canonical_labelling,
    naive_incidence,
    naive_isomorphic,
    naive_refine_colors,
    point,
    symmetric_structures,
)

CSIG = make_signature([("E", 2), ("C1", 1), ("C2", 1), ("C3", 1)], lift=["C1", "C2", "C3"])


def colored(n, arcs, colors):
    """Partition lift over CSIG; colors maps element -> 1..3."""
    rels = {"E": arcs, "C1": [], "C2": [], "C3": []}
    for x, c in colors.items():
        rels[f"C{c}"].append((x,))
    return Lift(Structure(CSIG, n, rels), lift_arity=1, cover_mode="partition")


class TestInvariants:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidStructureError):
            digraph(2, [(0, 2)])

    def test_rejects_bad_arity(self):
        with pytest.raises(InvalidStructureError):
            Structure(DIGRAPH, 2, {"E": [(0, 1, 1)]})

    def test_rejects_unknown_symbol(self):
        with pytest.raises(InvalidStructureError):
            Structure(DIGRAPH, 2, {"F": [(0, 1)]})

    def test_duplicate_tuples_merge(self):
        a = Structure(DIGRAPH, 2, {"E": [(0, 1), (0, 1)]})
        assert len(a.rel("E")) == 1

    def test_signature_validation(self):
        with pytest.raises(InvalidStructureError):
            make_signature([("E", 0)])
        with pytest.raises(InvalidStructureError):
            make_signature([("E", 2), ("E", 1)])

    def test_equal_signatures_built_by_homkit_are_one_object(self):
        from homkit.snp import parse_snp
        from homkit.textio import parse_structure

        sig = make_signature([("E", 2), ("C", 1)], lift=["C"])
        assert make_signature([("E", 2), ("C", 1)], lift=["C"]) is sig
        assert sig.base() is make_signature([("E", 2)])
        phi = parse_snp("snp s { input { E/2 } proof { C/1 } clause NOT( E(x,y) & C(x) ) ; }")
        assert phi.input_sig is sig.base()
        assert parse_structure("signature g { E/2 } structure A : g { universe = {a} ; E = {} }").sig is sig.base()
        assert Signature(sig.symbols, sig.lift_names) == sig

    def test_partition_lift_checked(self):
        with pytest.raises(InvalidStructureError):
            # element 1 uncolored
            Lift(
                Structure(CSIG, 2, {"E": [(0, 1)], "C1": [(0,)]}),
                lift_arity=1,
                cover_mode="partition",
            )
        with pytest.raises(InvalidStructureError):
            # element 0 doubly colored
            Lift(
                Structure(CSIG, 1, {"C1": [(0,)], "C2": [(0,)]}),
                lift_arity=1,
                cover_mode="partition",
            )


class TestShadow:
    def test_monochromatic_edge_pattern(self):
        lift = colored(2, [(0, 1), (1, 0)], {0: 1, 1: 1})
        k2 = shadow(lift)
        assert k2 == clique(2)

    def test_empty_lift_part_copies_base(self):
        lift = Lift(Structure(CSIG, 3, {"E": [(0, 1)]}))
        assert shadow(lift) == digraph(3, [(0, 1)])

    def test_three_colored_triangle(self):
        lift = colored(3, clique(3).rel("E"), {0: 1, 1: 2, 2: 3})
        assert shadow(lift) == clique(3)


class TestPullback:
    def test_identity_gives_same_lift(self):
        b = colored(3, clique(3).rel("E"), {0: 1, 1: 2, 2: 3})
        f = Homomorphism(shadow(b), shadow(b), (0, 1, 2))
        a = pullback_lift(f, b)
        assert a.struct == b.struct

    def test_k2_into_colored_k3(self):
        b = colored(3, clique(3).rel("E"), {0: 1, 1: 2, 2: 3})
        f = Homomorphism(clique(2), shadow(b), (0, 1))
        a = pullback_lift(f, b)
        assert a.struct.rel("C1") == frozenset({(0,)})
        assert a.struct.rel("C2") == frozenset({(1,)})
        assert a.struct.rel("C3") == frozenset()
        assert shadow(a) == clique(2)

    def test_empty_lift_relations_pull_back_empty(self):
        b = Lift(Structure(CSIG, 2, {"E": [(0, 1)]}))
        f = Homomorphism(digraph(2, [(0, 1)]), shadow(b), (0, 1))
        a = pullback_lift(f, b)
        assert all(not a.struct.rel(c) for c in ("C1", "C2", "C3"))

    def test_rejects_non_homomorphism(self):
        b = colored(2, [(0, 1)], {0: 1, 1: 1})
        f = Homomorphism(digraph(2, [(0, 1)]), shadow(b), (1, 0))
        with pytest.raises(InvalidStructureError):
            pullback_lift(f, b)


class TestProductUnion:
    def test_product_with_loop_point_is_identity(self):
        a = digraph(3, [(0, 1), (1, 2)])
        p = product(a, loop_vertex())
        assert is_isomorphic(p, a)

    def test_product_k2_k2(self):
        # one symmetric edge squared: two disjoint symmetric edges
        p = product(clique(2), clique(2))
        assert p.n == 4
        assert len(p.rel("E")) == 4
        assert sorted(p.rel("E")) == [(0, 3), (1, 2), (2, 1), (3, 0)]

    def test_product_with_empty_is_empty(self):
        p = product(clique(2), digraph(0))
        assert p.n == 0

    def test_union_with_empty(self):
        a = digraph(2, [(0, 1)])
        assert disjoint_union(a, digraph(0)) == a

    def test_union_k2_k2(self):
        u = disjoint_union(clique(2), clique(2))
        assert u.n == 4
        assert u.rel("E") == frozenset({(0, 1), (1, 0), (2, 3), (3, 2)})

    def test_union_signature_mismatch(self):
        with pytest.raises(SignatureMismatchError):
            disjoint_union(clique(2), Structure(make_signature([("F", 2)]), 1))

    def test_union_of_lifts(self):
        l1 = colored(2, [(0, 1)], {0: 1, 1: 1})
        l2 = colored(1, [], {0: 2})
        u = disjoint_union(l1, l2)
        assert u.cover_mode == "partition"
        assert u.struct.rel("C2") == frozenset({(2,)})


class TestLiftInvariants:
    def _pool(self):
        """Small covering lifts over CSIG."""
        return [
            colored(1, [], {0: 1}),
            colored(2, [(0, 1)], {0: 1, 1: 1}),
            colored(2, [(0, 1), (1, 0)], {0: 1, 1: 2}),
            colored(3, [(0, 1), (1, 2)], {0: 1, 1: 2, 2: 3}),
            colored(3, clique(3).rel("E"), {0: 1, 1: 2, 2: 3}),
        ]

    def test_shadow_functorial(self):
        # any homomorphism of lifts is a homomorphism of their shadows
        from homkit.homs import all_homs, check_homomorphism

        pool = self._pool()
        seen = 0
        for a in pool:
            for b in pool:
                for h in all_homs(a.struct, b.struct):
                    seen += 1
                    ok, why = check_homomorphism(
                        Homomorphism(shadow(a), shadow(b), h.mapping)
                    )
                    assert ok, why
        assert seen > 0

    def test_pullback_contract(self):
        # f is a homomorphism pullback(f, B') -> B', and the shadow of the
        # pullback is the source of f
        from homkit.homs import all_homs, check_homomorphism

        pool = self._pool()
        sources = [clique(2), digraph(2, [(0, 1)]), digraph(3, [(0, 1), (1, 2)])]
        for b_lift in pool:
            target = shadow(b_lift)
            for a in sources:
                for f in all_homs(a, target):
                    lifted = pullback_lift(f, b_lift)
                    assert shadow(lifted) == a
                    ok, why = check_homomorphism(
                        Homomorphism(lifted.struct, b_lift.struct, f.mapping)
                    )
                    assert ok, why
                    assert lifted.cover_mode == b_lift.cover_mode

    def test_surjective_images_of_covering_lifts_cover(self):
        # homomorphic images of covering lifts stay covering
        from homkit.homs import hom_images
        from homkit.structures import classify_cover

        for lift in self._pool():
            for img in hom_images(lift.struct):
                assert classify_cover(img, 1) in ("covering", "partition")


class TestIsomorphism:
    def test_relabel_is_isomorphic(self):
        a = digraph(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
        b = relabel(a, [2, 0, 3, 1])
        assert is_isomorphic(a, b)
        assert canonical_form(a) == canonical_form(b)

    def test_distinguishes_orientation(self):
        assert not is_isomorphic(dcycle(3), digraph(3, [(0, 1), (1, 2), (0, 2)]))

    def test_quotient_and_induced(self):
        a = digraph(3, [(0, 1), (1, 2)])
        q = quotient(a, [0, 0, 1], 2)
        assert q.rel("E") == frozenset({(0, 0), (0, 1)})
        s = induced(a, [0, 1])
        assert s == digraph(2, [(0, 1)])

    def test_point_vs_loop(self):
        assert not is_isomorphic(point(), loop_vertex())

    @pytest.mark.parametrize("build", [
        lambda a: quotient(a, [0, 2, 1], 2),
        lambda a: quotient(a, [0, 1], 2),
        lambda a: relabel(a, [0, 3, 1]),
    ])
    def test_images_outside_the_universe_are_rejected(self, build):
        with pytest.raises((InvalidStructureError, IndexError)):
            build(digraph(3, [(0, 1), (1, 2)]))


def _checked_copy(s):
    """`s` rebuilt through the public, checking constructor."""
    return Structure(s.sig, s.n, dict(zip(s.sig.names, s.rels)))


@settings(max_examples=200, deadline=None)
@given(mixed_structures(max_n=5), mixed_structures(max_n=3), st.randoms(use_true_random=False))
def test_derived_structures_pass_the_checks(a, b, rng):
    # induced, quotient, relabel and product skip the per-tuple checks; what
    # they build must be what the checking constructor accepts and builds
    keep = [x for x in range(a.n) if rng.random() < 0.6]
    assign = [rng.randrange(max(1, a.n - 1)) for _ in range(a.n)]
    m = max(assign, default=-1) + 1
    perm = rng.sample(range(a.n), a.n)
    for s in (induced(a, keep), quotient(a, assign, m), relabel(a, perm), product(a, b)):
        assert all(type(r) is frozenset and all(type(t) is tuple for t in r) for r in s.rels)
        copy = _checked_copy(s)
        assert copy == s and copy.rels == s.rels and hash(copy) == hash(s)
        assert s._cache == {} and s.element_names is None


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2), st.integers(0, 3), st.data())
def test_trusted_constructors_build_what_the_checked_ones_build(r, n, data):
    sig = make_signature([("E", 2), ("A", r), ("B", r)], lift=["A", "B"])
    elem = st.integers(0, n - 1)
    arcs = frozenset(data.draw(st.lists(st.tuples(elem, elem), max_size=4))) if n else frozenset()
    lifted = {"A": set(), "B": set()}
    for t in itertools.product(range(n), repeat=r):
        lifted[data.draw(st.sampled_from("AB"))].add(t)
    rels = (arcs, frozenset(lifted["A"]), frozenset(lifted["B"]))
    names = data.draw(st.sampled_from([None, tuple(f"e{x}" for x in range(n)) or None]))
    checked = Structure(sig, n, dict(zip(sig.names, rels)), names)
    s = structures._trusted_structure(sig, n, rels, names)
    assert s == checked and hash(s) == hash(checked) and repr(s) == repr(checked)
    assert s.element_names == checked.element_names and s._cache == {}
    with pytest.raises(AttributeError):
        s.n = n + 1
    lift = structures._trusted_partition_lift(sig, n, rels, names, r)
    want = Lift(checked, r, "partition")
    assert lift == want and hash(lift) == hash(want) and repr(lift) == repr(want)
    assert vars(lift) == vars(want)


class TestSignatureLookup:
    def test_index_and_arity(self):
        sig = make_signature([("U", 1), ("E", 2), ("T", 3)])
        assert [sig.index(name) for name in ("U", "E", "T")] == [0, 1, 2]
        assert [sig.arity(name) for name in ("U", "E", "T")] == [1, 2, 3]
        with pytest.raises(KeyError):
            sig.index("F")
        with pytest.raises(KeyError):
            sig.arity("F")

    def test_lookup_stays_out_of_equality_and_hashing(self):
        used = make_signature([("E", 2)])
        used.index("E")
        fresh = make_signature([("E", 2)])
        assert used == fresh and hash(used) == hash(fresh)


@st.composite
def coloured_pairs(draw):
    """A coloured structure, and a relabelled copy that may have one tuple or colour edited."""
    a = draw(mixed_structures())
    colors = draw(st.lists(st.integers(0, 2), min_size=a.n, max_size=a.n))
    perm = draw(st.permutations(range(a.n)))
    b = relabel(a, perm)
    colors_b = [0] * a.n
    for x in range(a.n):
        colors_b[perm[x]] = colors[x]
    edit = draw(st.sampled_from(["none", "tuple", "colour"]))
    if a.n and edit == "tuple":
        name, arity = draw(st.sampled_from(MIXED.symbols))
        t = draw(st.tuples(*[st.integers(0, a.n - 1)] * arity))
        b = b.with_relations({name: b.rel(name) ^ {t}})
    elif a.n and edit == "colour":
        colors_b[draw(st.integers(0, a.n - 1))] = draw(st.integers(0, 2))
    return a, colors, b, colors_b


def key_tuples(key):
    return tuple(frozenset(r) for r in key[2])


class TestCanonicalLabelling:
    @settings(max_examples=300, deadline=None)
    @given(coloured_pairs())
    def test_keys_agree_with_brute_force(self, pair):
        a, colors, b, colors_b = pair
        same = canonical_form(a, colors) == canonical_form(b, colors_b)
        assert same == naive_isomorphic(a, b, colors, colors_b)
        assert (canonical_form(a) == canonical_form(b)) == naive_isomorphic(a, b)

    @settings(max_examples=200, deadline=None)
    @given(mixed_structures(), st.data())
    def test_perm_realises_key(self, a, data):
        colors = data.draw(st.none() | st.lists(st.integers(0, 2), min_size=a.n, max_size=a.n))
        perm = canonical_perm(a, colors)
        assert sorted(perm) == list(range(a.n))
        assert relabel(a, perm).rels == key_tuples(canonical_form(a, colors))

    @pytest.mark.parametrize("a", [clique(8), clique(10), digraph(8)], ids=["K8", "K10", "edgeless8"])
    def test_symmetric_structures_complete(self, a):
        key = canonical_form(a)
        assert relabel(a, canonical_perm(a)).rels == key_tuples(key)
        assert canonical_form(relabel(a, list(reversed(range(a.n))))) == key

    @pytest.mark.parametrize("colors", [[0, 0], [0, 0, 0, 0]], ids=["short", "long"])
    @pytest.mark.parametrize("fn", [canonical_form, canonical_perm])
    def test_colour_list_must_fit_the_universe(self, fn, colors):
        path = digraph(3, [(0, 1), (1, 2)])
        with pytest.raises(InvalidStructureError, match=rf"^{len(colors)} colours .* 3 elements$"):
            fn(path, colors)


@st.composite
def initial_colourings(draw):
    """A structure over MIXED with a colouring, sometimes with one element individualised (2c / 2c+1)."""
    a = draw(mixed_structures(max_n=8, max_tuples=8))
    colors = draw(st.lists(st.integers(0, 4), min_size=a.n, max_size=a.n))
    if a.n and draw(st.booleans()):
        v = draw(st.integers(0, a.n - 1))
        colors = [2 * c for c in colors]
        colors[v] += 1
    return a, colors


@settings(max_examples=400, deadline=None)
@given(initial_colourings())
def test_refinement_matches_the_reference(case):
    a, colors = case
    ranks, cells = _refine_colors(_incidence(a), colors)
    assert ranks == naive_refine_colors(naive_incidence(a), list(colors))
    assert cells == [[x for x in range(a.n) if ranks[x] == c] for c in range(len(cells))]


@st.composite
def constrained_lifts(draw):
    """A lift over MIXED with random noncollapse pairs and free slots."""
    a = draw(mixed_structures(max_n=5, max_tuples=4))
    pairs = [(x, y) for x in range(a.n) for y in range(x + 1, a.n)]
    noncollapse = draw(st.frozensets(st.sampled_from(pairs), max_size=3)) if pairs else frozenset()
    free = frozenset()
    if a.n:
        name, arity = draw(st.sampled_from(MIXED.symbols))
        slot = st.tuples(*[st.integers(0, a.n - 1)] * arity)
        free = frozenset((name, t) for t in draw(st.lists(slot, max_size=3)))
    return Lift(a, None, "none", noncollapse, free)


def relabel_lift(p, perm):
    return Lift(
        relabel(p.struct, perm),
        p.lift_arity,
        p.cover_mode,
        frozenset(tuple(sorted((perm[x], perm[y]))) for x, y in p.noncollapse),
        frozenset((name, tuple(perm[x] for x in t)) for name, t in p.free_tuples),
    )


def naive_lift_isomorphic(p, q):
    """Some carrier isomorphism carries the constraints of p onto those of q."""
    for perm in itertools.permutations(range(p.n)):
        r = relabel_lift(p, perm)
        if (r.struct, r.noncollapse, r.free_tuples) == (q.struct, q.noncollapse, q.free_tuples):
            return True
    return False


class TestLiftCanonicalForm:
    @settings(max_examples=200, deadline=None)
    @given(constrained_lifts(), st.data())
    def test_invariant_under_relabelling(self, p, data):
        perm = data.draw(st.permutations(range(p.n)))
        assert lift_canonical_form(relabel_lift(p, perm)) == lift_canonical_form(p)

    @settings(max_examples=200, deadline=None)
    @given(constrained_lifts(), constrained_lifts())
    def test_separates_constraints_on_one_carrier(self, p, other):
        # same carrier, constraints of another draw wherever they fit
        noncollapse = frozenset((x, y) for x, y in other.noncollapse if y < p.n)
        free = frozenset((name, t) for name, t in other.free_tuples if max(t) < p.n)
        q = Lift(p.struct, None, "none", noncollapse, free)
        same = lift_canonical_form(p) == lift_canonical_form(q)
        assert same == naive_lift_isomorphic(p, q)

    def test_constraints_change_the_key(self):
        a = digraph(2, [(0, 1)])
        plain_key = lift_canonical_form(Lift(a))
        nc_key = lift_canonical_form(Lift(a, noncollapse=frozenset({(0, 1)})))
        free_key = lift_canonical_form(Lift(a, free_tuples=frozenset({("E", (1, 0))})))
        assert len({plain_key, nc_key, free_key}) == 3


def reference_refinement(incident, colors):
    """`naive_refine_colors` in the shape of `_refine_colors`: (ranks, cells).

    It reads only the structure that `incident` was built from.
    """
    ranks = naive_refine_colors(naive_incidence(incident.struct), list(colors))
    cells = [[] for _ in set(ranks)]
    for x, c in enumerate(ranks):
        cells[c].append(x)
    return ranks, cells


def labels(p, colors):
    """Every labelling output for the lift p, computed on fresh copies so no cache answers."""
    def fresh():
        a = p.struct
        return Structure(a.sig, a.n, dict(zip(a.sig.names, a.rels)))

    return (
        canonical_form(fresh()),
        canonical_perm(fresh()),
        canonical_form(fresh(), colors),
        canonical_perm(fresh(), colors),
        lift_canonical_form(Lift(fresh(), p.lift_arity, p.cover_mode, p.noncollapse, p.free_tuples)),
    )


@settings(max_examples=300, deadline=None)
@given(constrained_lifts(), st.data())
def test_labels_are_those_of_the_reference_refinement(p, data):
    colors = data.draw(st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n))
    got = labels(p, colors)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(structures, "_refine_colors", reference_refinement)
        want = labels(p, colors)
    assert got == want


def optional_colours(a):
    return st.none() | st.lists(st.integers(0, 2), min_size=a.n, max_size=a.n)


class TestAgainstTheUnshortcutSearch:
    """Twin swaps and first-path cell maps prune, yet keep the reference search's leaf."""

    @settings(max_examples=300, deadline=None)
    @given(mixed_structures(max_n=8, max_tuples=8), st.data())
    def test_mixed_structures(self, a, data):
        colors = data.draw(optional_colours(a))
        assert _canonical_labelling(a, colors) == naive_canonical_labelling(a, colors)

    @settings(max_examples=300, deadline=None)
    @given(symmetric_structures(), st.data())
    def test_symmetric_structures(self, a, data):
        colors = data.draw(optional_colours(a))
        assert _canonical_labelling(a, colors) == naive_canonical_labelling(a, colors)

    @settings(max_examples=200, deadline=None)
    @given(constrained_lifts(), st.data())
    def test_constrained_lifts(self, p, data):
        colors = data.draw(st.lists(st.integers(0, 2), min_size=p.n, max_size=p.n))
        got = labels(p, colors)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(structures, "_canonical_labelling", naive_canonical_labelling)
            want = labels(p, colors)
        assert got == want


def calls_made(module, name, call):
    """How many times `call()` calls `module.name`."""
    count = [0]
    inner = getattr(module, name)

    def spy(*args):
        count[0] += 1
        return inner(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, name, spy)
        call()
    return count[0]


def test_symmetric_shapes_take_few_refinements():
    assert calls_made(structures, "_refine_colors", lambda: canonical_form(clique(8))) <= 9
    k34 = digraph(7, [arc for i in range(3) for j in range(3, 7) for arc in ((i, j), (j, i))])
    fast = calls_made(structures, "_refine_colors", lambda: canonical_form(k34))
    slow = calls_made(util, "naive_refine_colors", lambda: naive_canonical_labelling(k34))
    assert fast < slow
