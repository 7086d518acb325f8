import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from homkit.errors import InvalidStructureError
from homkit.homs import (
    _retract_dominated,
    _set_partitions,
    _shrinking_endo,
    all_homs,
    check_homomorphism,
    core_of,
    hom_equivalent,
    hom_exists,
    hom_images,
    hom_maps,
    is_core,
)
from homkit.structures import (
    FULL,
    INJECTIVE,
    PLAIN,
    HomMode,
    Homomorphism,
    canonical_form,
    induced,
    is_isomorphic,
)

from util import (
    MIXED,
    clique,
    dcycle,
    degree_order,
    digraph,
    dpath,
    loop_vertex,
    mixed_structures,
    naive_core_of,
    naive_core_size,
    naive_homs,
    naive_isomorphic,
    naive_retract_dominated,
    naive_shrinking_endo,
    naive_valid,
    point,
    scycle,
)


class TestSpecCases:
    def test_k2_into_k3_plain(self):
        assert hom_exists(clique(2), clique(3)) is not None

    def test_k3_into_k2_plain(self):
        assert hom_exists(clique(3), clique(2)) is None
        assert naive_homs(clique(3), clique(2)) == []

    def test_2path_into_arc(self):
        # middle vertex would need an out-neighbour of the arc's head
        assert naive_homs(dpath(2), dpath(1)) == []
        assert hom_exists(dpath(2), dpath(1)) is None

    def test_c4_into_k2_full(self):
        c4, k2 = scycle(4), clique(2)
        expected = naive_homs(c4, k2, "full")
        assert expected
        h = hom_exists(c4, k2, FULL)
        assert h is not None
        assert h.mapping in expected

    def test_k2_into_loop(self):
        assert hom_exists(clique(2), loop_vertex(), INJECTIVE) is None
        assert hom_exists(clique(2), loop_vertex(), PLAIN) is not None

    def test_all_homs_counts(self):
        assert len(list(all_homs(clique(2), clique(2)))) == 2
        assert len(list(all_homs(point(), dcycle(3)))) == 3
        assert len(list(all_homs(clique(3), clique(3)))) == 6

    def test_all_homs_lexicographic_and_unique(self):
        maps = [h.mapping for h in all_homs(dcycle(4), clique(3))]
        assert maps == sorted(maps)
        assert len(maps) == len(set(maps))
        assert set(maps) == set(naive_homs(dcycle(4), clique(3)))


def in_plan_order(a, maps):
    """Maps from `a` in lexicographic order of their images read in degree order."""
    order = degree_order(a)
    return sorted(maps, key=lambda m: [m[x] for x in order])


def _structure_pool():
    pool = [
        point(),
        loop_vertex(),
        digraph(0),
        digraph(2),
        digraph(2, [(0, 1)]),
        digraph(2, [(0, 1), (1, 0)]),
        digraph(2, [(0, 0), (0, 1)]),
        dpath(2),
        dcycle(3),
        clique(3),
        digraph(3, [(0, 1), (1, 2), (0, 2)]),
        digraph(3, [(0, 1), (1, 1)]),
        scycle(4),
        digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        digraph(4, [(0, 1), (2, 1), (2, 3), (0, 3)]),
        digraph(4, [(0, 1), (1, 2), (2, 0), (3, 3)]),
    ]
    return pool


@pytest.mark.parametrize("mode_tag", ["plain", "injective", "full"])
def test_agrees_with_naive_on_pool(mode_tag):
    pool = _structure_pool()
    mode = {"plain": PLAIN, "injective": INJECTIVE, "full": FULL}[mode_tag]
    for a, b in itertools.product(pool, pool):
        expected = naive_homs(a, b, mode_tag)
        got = [h.mapping for h in all_homs(a, b, mode)]
        assert got == in_plan_order(a, expected), (a, b, mode_tag)
        w = hom_exists(a, b, mode)
        assert (w is not None) == bool(expected), (a, b, mode_tag)
        if w is not None:
            ok, why = check_homomorphism(w)
            assert ok, why


def test_partial_injective_noncollapse():
    a = digraph(2, [(0, 1)])
    b = loop_vertex()
    mode = HomMode("plain", noncollapse=frozenset({(0, 1)}))
    assert hom_exists(a, b, mode) is None
    assert naive_homs(a, b, "plain", noncollapse=[(0, 1)]) == []
    b2 = digraph(2, [(0, 1), (1, 1)])
    got = [h.mapping for h in all_homs(a, b2, mode)]
    assert got == naive_homs(a, b2, "plain", noncollapse=[(0, 1)])


def test_partial_full_free_tuples():
    # a single point whose loop slot carries no polarity requirement
    a = point()
    mode = HomMode("full", free_tuples=frozenset({("E", (0, 0))}))
    assert hom_exists(a, loop_vertex(), mode) is not None
    assert hom_exists(a, loop_vertex(), FULL) is None
    assert naive_homs(a, loop_vertex(), "full") == []
    assert naive_homs(a, loop_vertex(), "full", free_tuples={("E", (0, 0))}) == [(0,)]


def test_held_free_tuple_is_preserved():
    # a free slot waives only absence: the held loop must still map to a tuple
    a = loop_vertex()
    mode = HomMode("full", free_tuples=frozenset({("E", (0, 0))}))
    arc = digraph(2, [(0, 1)])
    assert hom_exists(a, arc, mode) is None
    assert naive_homs(a, arc, "full", free_tuples={("E", (0, 0))}) == []
    ok, _ = check_homomorphism(Homomorphism(a, arc, (0,), mode))
    assert not ok


@st.composite
def full_mode_instances(draw):
    """Small mixed-arity source and target with random free slots of the source."""
    a = draw(mixed_structures(max_n=3, max_tuples=4))
    b = draw(mixed_structures(max_n=3, max_tuples=8))
    slots = [
        (name, t) for name, arity in MIXED.symbols for t in itertools.product(range(a.n), repeat=arity)
    ]
    free = draw(st.frozensets(st.sampled_from(slots), max_size=6)) if slots else frozenset()
    return a, b, free


@settings(max_examples=300, deadline=None)
@given(full_mode_instances())
def test_full_mode_free_slots_match_naive(instance):
    a, b, free = instance
    got = [h.mapping for h in all_homs(a, b, HomMode("full", free_tuples=free))]
    assert got == naive_homs(a, b, "full", free_tuples=free)
    h = hom_exists(a, b, HomMode("full", free_tuples=free))
    assert (h is None) == (not got)
    assert h is None or naive_valid(a, b, h.mapping, "full", free_tuples=free)


@st.composite
def arc_pass_instances(draw, min_n=5):
    """A source of min_n to 6 elements (5 or more is large enough for the arc
    pass), a 2- or 3-element target, and a mode with random noncollapse pairs
    and, in full mode, free slots."""
    a = draw(mixed_structures(max_n=6, max_tuples=5, min_n=min_n))
    b = draw(mixed_structures(max_n=3, max_tuples=9, min_n=2))
    tag = draw(st.sampled_from(["plain", "injective", "full"]))
    pairs = st.tuples(st.integers(0, a.n - 1), st.integers(0, a.n - 1)).filter(lambda p: p[0] != p[1])
    noncollapse = draw(st.frozensets(pairs, max_size=3))
    free = frozenset()
    if tag == "full":
        slots = [(name, t) for name, arity in MIXED.symbols for t in itertools.product(range(a.n), repeat=arity)]
        free = draw(st.frozensets(st.sampled_from(slots), max_size=8))
    return a, b, tag, noncollapse, free


@settings(max_examples=150, deadline=None)
@given(arc_pass_instances())
def test_arc_pass_sources_match_naive(instance):
    a, b, tag, noncollapse, free = instance
    mode = HomMode(tag, noncollapse, free)
    expected = naive_homs(a, b, tag, noncollapse, free)
    assert list(hom_maps(a, b, mode)) == in_plan_order(a, expected)
    h = hom_exists(a, b, mode)
    assert (h is not None) == bool(expected)
    if h is not None:
        ok, why = check_homomorphism(h)
        assert ok, why


@settings(max_examples=200, deadline=None)
@given(arc_pass_instances(min_n=1))
def test_witness_is_least_map_in_degree_order(instance):
    # values are tried in increasing order along the degree order, and
    # pruning only drops values that lie in no map, so the first map found is
    # the least one read in that order
    a, b, tag, noncollapse, free = instance
    order = degree_order(a)
    expected = naive_homs(a, b, tag, noncollapse, free)
    least = min(expected, key=lambda m: [m[x] for x in order], default=None)
    h = hom_exists(a, b, HomMode(tag, noncollapse, free))
    assert (None if h is None else h.mapping) == least


@settings(max_examples=200, deadline=None)
@given(arc_pass_instances(min_n=1))
def test_first_map_is_the_witness(instance):
    a, b, tag, noncollapse, free = instance
    mode = HomMode(tag, noncollapse, free)
    h = hom_exists(a, b, mode)
    assert next(hom_maps(a, b, mode), None) == (None if h is None else h.mapping)


def _forest_into_looped_target(seed):
    """A random oriented tree on 30 elements plus 4 arcs among 5 more, randomly
    relabelled, and a 7-element digraph with loops at 3 and 5 and 10 more
    random arcs, so the map onto 3 is a homomorphism."""
    rng = random.Random(seed)
    arcs = set()
    for v in range(1, 30):
        u = rng.randrange(v)
        arcs.add((u, v) if rng.random() < 0.5 else (v, u))
    extra = set()
    while len(extra) < 4:
        u, v = rng.sample(range(30, 35), 2)
        if (v, u) not in extra:
            extra.add((u, v))
    perm = list(range(35))
    rng.shuffle(perm)
    target = {(3, 3), (5, 5)}
    while len(target) < 12:
        target.add(tuple(rng.sample(range(7), 2)))
    return digraph(35, [(perm[u], perm[v]) for u, v in arcs | extra]), digraph(7, target)


@pytest.mark.parametrize("seed", [10, 13, 15, 16])
def test_first_map_comes_as_fast_as_the_witness(seed):
    # a search in index order thrashes for seconds here before its first
    # map; in degree order the first map comes at once
    a, b = _forest_into_looped_target(seed)
    assert next(hom_maps(a, b)) == hom_exists(a, b).mapping


def test_one_plan_per_source_and_mode():
    a = dpath(3)
    assert hom_exists(a, clique(2)) is not None
    assert list(hom_maps(a, clique(3)))
    assert len(a._cache) == 1


def _transitive_tournament(k):
    return digraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def test_long_propagation_on_dag():
    # Gallai-Roy: a DAG whose longest path has L arcs maps to the transitive
    # tournament T_k exactly when k > L; refuting k = L takes propagation
    # along the whole path
    rng = random.Random(6)
    n = 150
    rank = list(range(n))
    rng.shuffle(rank)
    arcs = set()
    while len(arcs) < 300:
        u, v = rng.sample(range(n), 2)
        arcs.add((u, v) if rank[u] < rank[v] else (v, u))
    longest = [0] * n  # arcs on the longest path ending at each vertex
    for u, v in sorted(arcs, key=lambda e: rank[e[0]]):
        longest[v] = max(longest[v], longest[u] + 1)
    top = max(longest)
    g = digraph(n, arcs)
    assert hom_exists(g, _transitive_tournament(top)) is None
    h = hom_exists(g, _transitive_tournament(top + 1))
    assert h is not None
    ok, why = check_homomorphism(h)
    assert ok, why


@pytest.mark.parametrize(
    "mode, named",
    [
        (HomMode("plain", noncollapse=frozenset({(0, 9)})), "(0, 9)"),
        (HomMode("injective", noncollapse=frozenset({(-1, 2)})), "(-1, 2)"),
        (HomMode("full", free_tuples=frozenset({("Z", (0, 1))})), "'Z'"),
        (HomMode("full", free_tuples=frozenset({("E", (0, 5))})), "(0, 5)"),
        (HomMode("plain", free_tuples=frozenset({("E", (0,))})), "('E', (0,))"),
    ],
)
def test_malformed_mode_constraints_are_rejected(mode, named):
    a = dpath(2)
    with pytest.raises(InvalidStructureError, match=re.escape(named)):
        hom_exists(a, clique(3), mode)
    with pytest.raises(InvalidStructureError, match=re.escape(named)):
        list(hom_maps(a, digraph(0), mode))


@pytest.mark.parametrize("collection", [set, list])
def test_mode_constraints_may_come_as_a_set_or_list(collection):
    a, b = dpath(2), clique(3)
    mode = HomMode("plain", collection([(0, 2)]))
    assert mode == HomMode("plain", frozenset({(0, 2)}))
    assert hash(mode) == hash(HomMode("plain", frozenset({(0, 2)})))
    h = hom_exists(a, b, mode)
    assert h is not None and h.mapping[0] != h.mapping[2]
    assert list(hom_maps(a, b, mode)) == in_plan_order(a, naive_homs(a, b, noncollapse={(0, 2)}))
    free = [("E", (2, 0))]
    full = HomMode("full", free_tuples=collection(free))
    expected = in_plan_order(a, naive_homs(a, dcycle(3), "full", free_tuples=free))
    assert list(hom_maps(a, dcycle(3), full)) == expected != []


class TestCores:
    def test_core_of_c4_is_k2(self):
        assert is_isomorphic(core_of(scycle(4)), clique(2))

    def test_core_of_k3_is_k3(self):
        assert core_of(clique(3)) == clique(3)

    def test_core_of_point(self):
        assert core_of(point()) == point()

    def test_is_core_examples(self):
        assert is_core(clique(3))
        assert not is_core(scycle(4))
        assert not is_core(digraph(2))

    def test_core_idempotent_and_equivalent(self):
        for a in [scycle(4), dcycle(3), dpath(3), digraph(3, [(0, 1), (1, 2), (0, 2)])]:
            c = core_of(a)
            assert is_isomorphic(core_of(c), c)
            assert hom_equivalent(a, c)

    @pytest.mark.parametrize("seed", range(6))
    def test_core_of_dominated_extension_of_c7(self, seed):
        # grow the symmetric 7-cycle to 18 vertices: each new vertex v copies
        # a random nonempty part of some earlier vertex s's arcs, so v -> s
        # is a retraction and the core stays C7
        rng = random.Random(seed)
        arcs = set(scycle(7).rel("E"))
        for v in range(7, 18):
            s = rng.randrange(v)
            outs = [y for (x, y) in arcs if x == s]
            ins = [x for (x, y) in arcs if y == s]
            picked = [(v, y) for y in outs if rng.random() < 0.6] + [(x, v) for x in ins if rng.random() < 0.6]
            if not picked:
                picked = [(v, outs[0])] if outs else [(ins[0], v)]
            arcs.update(picked)
        perm = list(range(18))
        rng.shuffle(perm)
        c = core_of(digraph(18, [(perm[x], perm[y]) for x, y in arcs]))
        assert c.n == 7
        assert naive_isomorphic(c, scycle(7))


@settings(max_examples=300, deadline=None)
@given(mixed_structures(max_n=5))
def test_core_matches_exhaustive_core_size(a):
    size = naive_core_size(a)
    c = core_of(a)
    assert c.n == size
    assert is_core(a) == (size == a.n)
    assert hom_exists(a, c) is not None and hom_exists(c, a) is not None


@settings(max_examples=150, deadline=None)
@given(mixed_structures())
def test_retract_dominated_is_an_equivalent_induced_substructure(a):
    r = _retract_dominated(a)
    assert hom_equivalent(a, r)
    assert any(
        induced(a, keep) == r for keep in itertools.combinations(range(a.n), r.n)
    )
    # no element is left that another one absorbs
    for y, x in itertools.permutations(range(r.n), 2):
        fold = tuple(x if z == y else z for z in range(r.n))
        assert not check_homomorphism(Homomorphism(r, r, fold))[0]


@settings(max_examples=300, deadline=None)
@given(mixed_structures(max_n=8, max_tuples=12))
def test_coring_matches_the_references(a):
    r, want = _retract_dominated(a), naive_retract_dominated(a)
    assert (r.n, r.rels) == (want.n, want.rels)
    assert _shrinking_endo(a) == naive_shrinking_endo(a)
    assert _shrinking_endo(r) == naive_shrinking_endo(r)
    c, want = core_of(a), naive_core_of(a)
    assert (c.n, c.rels) == (want.n, want.rels)


class TestHomImages:
    def test_two_isolated_vertices(self):
        images = hom_images(digraph(2))
        assert len(images) == 2
        assert {im.n for im in images} == {1, 2}

    def test_k2_images(self):
        images = hom_images(clique(2))
        keys = {canonical_form(im) for im in images}
        assert canonical_form(clique(2)) in keys
        assert canonical_form(loop_vertex()) in keys
        assert len(images) == 2

    def test_point_image(self):
        assert hom_images(point()) == [point()]


@st.composite
def apart_pairs(draw):
    """A size n <= 7 and pairs over range(n), loops and both orders included."""
    n = draw(st.integers(0, 7))
    if not n:
        return n, []
    elem = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(elem, elem), max_size=6))


@given(apart_pairs())
@settings(max_examples=200, deadline=None)
def test_set_partitions_prunes_apart_pairs(case):
    n, apart = case
    want = [(assign, m) for assign, m in _set_partitions(n) if all(assign[x] != assign[y] for x, y in apart)]
    assert list(_set_partitions(n, apart)) == want


class TestHomEquivalence:
    def test_c4_k2(self):
        assert hom_equivalent(scycle(4), clique(2))

    def test_k2_k3(self):
        assert not hom_equivalent(clique(2), clique(3))

    def test_reflexive(self):
        a = dcycle(3)
        assert hom_equivalent(a, a)


def test_composition_of_plain_homs():
    a, b, c = dpath(2), dpath(4), clique(2)
    for f in all_homs(a, b):
        for g in all_homs(b, c):
            comp = Homomorphism(a, c, tuple(g.mapping[x] for x in f.mapping))
            ok, why = check_homomorphism(comp)
            assert ok, why


def test_full_witness_is_tuple_preserving():
    # a full homomorphism is in particular a plain one
    for a, b in [(scycle(4), clique(2)), (clique(3), clique(3))]:
        h = hom_exists(a, b, FULL)
        if h is not None:
            ok, _ = check_homomorphism(Homomorphism(a, b, h.mapping, PLAIN))
            assert ok
