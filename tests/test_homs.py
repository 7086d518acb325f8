import io
import itertools
import keyword
import random
import re
import tokenize

import pytest
from hypothesis import example, given, settings, strategies as st

from homkit import homs
from homkit.errors import InvalidStructureError
from homkit.homs import (
    _NEST_LIMIT,
    _initial_domains,
    _maps_to,
    _retract_dominated,
    _set_partitions,
    _shrinking_endo,
    _source_plan,
    _target_tables,
    _twins,
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
    Structure,
    canonical_form,
    induced,
    is_isomorphic,
    make_signature,
)

from util import (
    MIXED,
    UE,
    blown_up_structures,
    clique,
    dcycle,
    degree_order,
    digraph,
    dpath,
    loop_vertex,
    mixed_structures,
    naive_arc_domains,
    naive_core_of,
    naive_core_size,
    naive_homs,
    naive_isomorphic,
    naive_retract_dominated,
    naive_shrinking_endo,
    naive_twins,
    naive_valid,
    point,
    scycle,
    symmetric_structures,
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
@example((
    Structure(MIXED, 2, {"U": [(1,)]}),
    Structure(MIXED, 2, {"U": [(0,), (1,)]}),
    frozenset({("U", (0,))}),
))  # plan order (1, 0) differs from index order
def test_full_mode_free_slots_match_naive(instance):
    a, b, free = instance
    got = [h.mapping for h in all_homs(a, b, HomMode("full", free_tuples=free))]
    assert got == in_plan_order(a, naive_homs(a, b, "full", free_tuples=free))
    h = hom_exists(a, b, HomMode("full", free_tuples=free))
    assert (h is None) == (not got)
    assert h is None or naive_valid(a, b, h.mapping, "full", free_tuples=free)


@st.composite
def arc_pass_instances(draw, min_n=5, max_n=6):
    """A source of min_n to max_n elements (5 or more is large enough for the
    arc pass), a 2- or 3-element target, and a mode with random noncollapse
    pairs and, in full mode, free slots."""
    a = draw(mixed_structures(max_n=max_n, max_tuples=5, min_n=min_n))
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


@st.composite
def compile_instances(draw):
    """A source of 0 up to one element past the compile limit; a target of 1
    to 3 elements or, for a source of 1 to 6, in about half the cases the
    source itself, so that full and injective maps exist; a mode with
    noncollapse pairs and, in full mode, free slots; and a target element
    to avoid or None."""
    a = draw(mixed_structures(max_n=draw(st.sampled_from([4, 6, _NEST_LIMIT + 1])), max_tuples=6))
    b = a if 0 < a.n <= 6 and draw(st.booleans()) else draw(mixed_structures(max_n=3, max_tuples=9, min_n=1))
    tag = draw(st.sampled_from(["plain", "injective", "full"]))
    noncollapse = frozenset()
    if a.n > 1:
        pairs = st.tuples(st.integers(0, a.n - 1), st.integers(0, a.n - 1)).filter(lambda p: p[0] != p[1])
        noncollapse = draw(st.frozensets(pairs, max_size=3))
    free = frozenset()
    if tag == "full" and a.n:
        elem = st.integers(0, a.n - 1)
        slot = st.sampled_from(MIXED.symbols).flatmap(
            lambda s: st.tuples(st.just(s[0]), st.tuples(*[elem] * s[1])))
        free = draw(st.frozensets(slot, max_size=8))
    avoid = draw(st.none() | st.integers(0, b.n - 1))
    return a, b, HomMode(tag, noncollapse, free), avoid


@settings(max_examples=300, deadline=None)
@given(compile_instances())
@example((digraph(3, [(0, 1)]), digraph(3, [(0, 1)]), FULL, None))  # absent pairs onto arcs
@example((digraph(2, [(0, 0), (0, 1)]), digraph(2, [(0, 0), (0, 1)]), PLAIN, None))  # unequal domains, no arc pass
def test_compiled_and_generic_searches_agree(instance):
    # the emitted loop nest and the generic loop run one plan: the same maps,
    # in the same order, and the same first map, whatever the source size,
    # mode and constraints
    a, b, mode, avoid = instance
    got = list(itertools.islice(hom_maps(a, b, mode, _avoid=avoid), 60))
    first = next(hom_maps(a, b, mode, _avoid=avoid, _first=True), None)
    assert first == (got[0] if got else None)
    assert (_source_plan(a, mode)[0] is not None) == (0 < a.n <= _NEST_LIMIT)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homs, "_NEST_LIMIT", 0)
        generic = Structure(a.sig, a.n, dict(zip(a.sig.names, a.rels)))
        assert list(itertools.islice(hom_maps(generic, b, mode, _avoid=avoid), 60)) == got
        assert next(hom_maps(generic, b, mode, _avoid=avoid, _first=True), None) == first
        assert _source_plan(generic, mode)[0] is None


def _pair_entries(a, order, full):
    """fwd and checks2 as the plan documents them: per stage, by symbol,
    then by the pair's first element, then in the relation's order (absent
    pairs: by second element)."""
    stage_of = {x: s for s, x in enumerate(order)}
    fwd, checks2 = [[] for _ in range(a.n)], [[] for _ in range(a.n)]
    for si, (_, arity) in enumerate(a.sig.symbols):
        if arity == 2:
            for u in range(a.n):
                for v in [v for x, v in a.rels[si] if x == u and v != u]:
                    su, sv = stage_of[u], stage_of[v]
                    fwd[min(su, sv)].append((v, 4 * si) if su < sv else (u, 4 * si + 1))
                for v in range(a.n) if full else ():
                    if v != u and (u, v) not in a.rels[si]:
                        checks2[max(stage_of[u], stage_of[v])].append((si, u, v))
    return fwd, checks2


@settings(max_examples=200, deadline=None)
@given(mixed_structures(min_n=1, max_n=7), st.sampled_from(["plain", "injective", "full"]))
def test_stage_tables_follow_the_documented_order(a, tag):
    # every plan reads its forward checks and absent pairs from the
    # adjacency lists, in the one documented order that the plan shapes,
    # and so the compiled searches, rest on; a plan of at most 4 elements,
    # where no arc pass runs, keeps no lists once its tables are built
    mode = HomMode(tag)
    made = []
    stage_tables = homs._stage_tables
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homs, "_stage_tables", lambda *args: made.append(stage_tables(*args)) or made[-1])
        plan = _source_plan(a, mode)
    (order, fwd, checks2, *_), = made
    assert order == degree_order(a)
    assert [list(fwd), [list(c) for c in checks2]] == list(_pair_entries(a, order, tag == "full"))
    assert (plan[1] is None and plan[2] is None) == (a.n <= 4)


@pytest.mark.parametrize("mode", [PLAIN, INJECTIVE, FULL])
def test_witnesses_equal_the_public_constructor(mode):
    a, b = dpath(2), clique(4) if mode is not FULL else dcycle(4)
    for h in [hom_exists(a, b, mode), *all_homs(a, b, mode)]:
        public = Homomorphism(a, b, h.mapping, mode)
        assert h == public and hash(h) == hash(public) and repr(h) == repr(public)
        assert check_homomorphism(h) == (True, None)


@settings(max_examples=300, deadline=None)
@given(st.one_of(mixed_structures(max_n=6, max_tuples=8), symmetric_structures(), blown_up_structures()))
def test_twins_match_naive(b):
    assert _twins(b) == naive_twins(b)
    assert _twins(b) is b._cache["twins"]


def _multipartite(*sizes):
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    return digraph(len(part), [(u, v) for u in range(len(part)) for v in range(len(part)) if part[u] != part[v]])


@pytest.mark.parametrize(
    "b, classes",
    [
        *[(clique(k), [(1 << k) - 1] * k) for k in (2, 3, 5)],
        (_multipartite(2, 3), [0b00011] * 2 + [0b11100] * 3),
        (_multipartite(1, 2), [0b001, 0b110, 0b110]),
        *[(digraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)]), None) for k in (1, 2, 4, 6)],
        *[(dcycle(k), None) for k in (3, 4, 7)],
        (digraph(2, [(0, 0), (1, 1)]), [0b11, 0b11]),
    ],
    ids=["K2", "K3", "K5", "K2,3", "K1,2", "T1", "T2", "T4", "T6", "C3", "C4", "C7", "two-loops"],
)
def test_twins_of_named_targets(b, classes):
    # cliques are one class and complete bipartite graphs two; transitive
    # tournaments and directed cycles have no twins
    assert _twins(b) == classes == naive_twins(b)


def _clique_with_tail(k, n):
    """The arcs, both ways, of K_k on 0..k-1 and a path from k-1 through the other elements."""
    edges = [(i, j) for i in range(k) for j in range(i)] + [(x - 1, x) for x in range(k, n)]
    return [arc for u, v in edges for arc in ((u, v), (v, u))]


@st.composite
def twin_instances(draw):
    """A target with twins, and a source for the generic loop.

    The source has 17 to 24 elements, or 5 to 8 for a test that sets the
    compile limit to 0, so that small ones can be held against `naive_homs`.
    Most sources are planted: their tuples are drawn from the preimages of
    the target's under a drawn map (all of them in full mode; the map is
    one-to-one in injective mode).  A small one may get up to two more
    tuples, and an avoided element and noncollapse pairs that the planted
    map breaks.  A large one keeps its planted map, and its target has few
    elements and no ternary tuples, which are checked only once fully
    assigned, so that the search without twins, which must list every map
    when there are few, ends quickly too.  The other sources are K_(k+1)
    with a tail, relabelled, on 17 to 24 elements, which no map takes into
    K_k.  Full mode has free slots.
    """
    tag = draw(st.sampled_from(["plain", "injective", "full"]))
    kind = draw(st.sampled_from(["small", "large", "clique"]))
    if kind == "clique":
        k, n = draw(st.integers(2, 4)), draw(st.integers(17, 24))
        perm = draw(st.permutations(range(n)))
        a = Structure(MIXED, n, {"E": [(perm[u], perm[v]) for u, v in _clique_with_tail(k + 1, n)]})
        b = Structure(MIXED, k, {"E": [(i, j) for i in range(k) for j in range(k) if i != j]})
        planted = [None] * n
    else:
        large = kind == "large"
        if tag == "injective":  # enough values for a one-to-one map
            b = draw(blown_up_structures(parts=(3, 3), copies=(6, 8) if large else (2, 3)))
        elif large:
            b = draw(blown_up_structures(parts=(1, 2), copies=(1, 2 if tag == "full" else 3)))
        else:
            b = draw(blown_up_structures())
        if large:
            b = Structure(MIXED, b.n, {"U": b.rel("U"), "E": b.rel("E")})
        lo, hi = (17, 24) if large else (5, 8)
        if tag == "injective":
            n = draw(st.integers(lo, min(hi, b.n)))
            planted = draw(st.permutations(range(b.n)))[:n]
        else:
            n = draw(st.integers(lo, hi))
            planted = draw(st.lists(st.integers(0, b.n - 1), min_size=n, max_size=n))
        rels = {}
        for (name, arity), rb in zip(MIXED.symbols, b.rels):
            pre = [t for t in itertools.product(range(n), repeat=arity) if tuple(planted[x] for x in t) in rb]
            rels[name] = pre if tag == "full" else draw(st.lists(st.sampled_from(pre), max_size=2 * n)) if pre else []
        if not large:
            for name, arity in draw(st.lists(st.sampled_from(MIXED.symbols), max_size=2)):
                rels[name] = [*rels[name], tuple(draw(st.integers(0, n - 1)) for _ in range(arity))]
        a = Structure(MIXED, n, rels)
    keep = kind == "large"  # noncollapse pairs and the avoided element keep the planted map
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y and not (keep and planted[x] == planted[y])]
    noncollapse = draw(st.frozensets(st.sampled_from(pairs), max_size=3)) if pairs else frozenset()
    free = frozenset()
    if tag == "full":
        elem = st.integers(0, n - 1)
        slot = st.sampled_from(MIXED.symbols).flatmap(lambda s: st.tuples(st.just(s[0]), st.tuples(*[elem] * s[1])))
        free = draw(st.frozensets(slot, max_size=8))
    unused = [v for v in range(b.n) if not (keep and v in planted)]
    avoid = draw(st.none() | st.sampled_from(unused)) if unused else None
    return a, b, HomMode(tag, noncollapse, free), avoid


@settings(max_examples=100, deadline=None)
@given(twin_instances())
@example((digraph(17, _clique_with_tail(4, 17)), clique(3), PLAIN, None))  # no 3-colouring
@example((digraph(17, _clique_with_tail(3, 17)), clique(2), PLAIN, None))
@example((digraph(20, _clique_with_tail(3, 20)), clique(3), PLAIN, 1))
@example((digraph(18, _clique_with_tail(3, 18)), clique(3), HomMode("plain", frozenset({(0, 17)})), None))
def test_twin_skips_keep_the_maps(instance):
    # skipping the twins of a failed value loses no map and reorders none:
    # the sequence is the one of the search without twins, and, where the
    # candidates can be listed, the set is the one of exhaustion
    a, b, mode, avoid = instance
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homs, "_NEST_LIMIT", 0)
        got = list(itertools.islice(hom_maps(a, b, mode, _avoid=avoid), 200))
        assert _source_plan(a, mode)[0] is None
        if b.n ** a.n <= (2 ** 12 if mode.tag == "full" else 2 ** 17):  # full mode: every slot, per candidate
            want = naive_homs(a, b, mode.tag, mode.noncollapse, mode.free_tuples)
            assert set(hom_maps(a, b, mode, _avoid=avoid)) == {m for m in want if avoid not in m}
        mp.setattr(homs, "_twins", lambda b: None)
        assert list(itertools.islice(hom_maps(a, b, mode, _avoid=avoid), 200)) == got


def _random_dag(rng, n, m):
    """m arcs between random elements of 0..n-1, each oriented along one
    random ranking, and per element the number of arcs on the longest path
    that ends there."""
    rank = list(range(n))
    rng.shuffle(rank)
    arcs = set()
    while len(arcs) < m:
        u, v = rng.sample(range(n), 2)
        arcs.add((u, v) if rank[u] < rank[v] else (v, u))
    longest = [0] * n
    for u, v in sorted(arcs, key=lambda e: rank[e[0]]):
        longest[v] = max(longest[v], longest[u] + 1)
    return arcs, longest


def test_twins_wait_for_the_first_failure():
    # after the arc pass the search maps a DAG into T_(L+1) without a failed
    # value, so the target's twins are never looked up; a refutation into
    # K3 fails values, and caches them
    n = 30
    arcs, longest = _random_dag(random.Random(3), n, 60)
    t = _transitive_tournament(max(longest) + 1)
    assert next(hom_maps(digraph(n, arcs), t), None) is not None
    assert "twins" not in t._cache
    k3 = clique(3)
    assert hom_exists(digraph(20, _clique_with_tail(4, 20)), k3) is None
    assert k3._cache["twins"] == [0b111] * 3


def test_equal_shaped_sources_share_one_compiled_search(monkeypatch):
    first, second = dcycle(4), dcycle(4)
    assert hom_exists(first, clique(3)) is not None
    search = _source_plan(first, PLAIN)[0]
    assert search.__code__.co_filename == "<homkit plan>"
    # the shape is looked up before any text is made, so a fresh source of a
    # known shape emits and compiles nothing
    def refuse(*args):
        raise AssertionError("emitted a known shape again")
    monkeypatch.setattr(homs, "_emit_search", refuse)
    compiled = len(homs._COMPILED)
    assert hom_exists(second, clique(3)).mapping == hom_exists(first, clique(3)).mapping
    assert _source_plan(second, PLAIN)[0] is search
    assert len(homs._COMPILED) == compiled


def test_emitted_code_holds_only_plan_integers(monkeypatch):
    sig = make_signature([("Colour", 1), ("Edge", 2), ("Triple", 3)])
    names = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    rels = {"Colour": [(0,), (2,)], "Edge": [(0, 1), (1, 2), (3, 3), (4, 5)], "Triple": [(0, 1, 3), (2, 2, 5)]}
    texts = []
    compile_search = homs._compile_search
    monkeypatch.setattr(homs, "_COMPILED", {})
    monkeypatch.setattr(homs, "_compile_search", lambda text: texts.append(text) or compile_search(text))
    modes = [PLAIN, INJECTIVE, FULL, HomMode("full", frozenset({(0, 2)}), frozenset({("Edge", (1, 0))}))]
    for n in (4, 6):
        a = Structure(sig, n, {k: [t for t in v if max(t) < n] for k, v in rels.items()}, names[:n])
        for mode in modes:
            _source_plan(a, mode)
    assert len(texts) == 2 * len(modes)
    fixed = {"search", "tables", "doms", "avoid", "full", "bit_length"}
    for text in texts:
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            assert tok.type not in (tokenize.STRING, tokenize.COMMENT), tok
            if tok.type == tokenize.NUMBER:
                assert tok.string.isdigit(), tok
            elif tok.type == tokenize.NAME:
                assert (keyword.iskeyword(tok.string) or tok.string in fixed
                        or re.fullmatch(r"[abdekmrtv]\d+(_\d+)?", tok.string)), tok


@settings(max_examples=200, deadline=None)
@given(arc_pass_instances(max_n=20))
def test_skipped_arc_pass_keeps_the_domains(instance):
    # a target whose rows leave no value of a large domain unsupported skips
    # the arc pass; the domains are those the full pass gives, and both are
    # the greatest node- and arc-consistent ones (sources on both sides of
    # the compile limit)
    a, b, tag, noncollapse, free = instance
    plan = _source_plan(a, HomMode(tag, noncollapse, free))
    tables = _target_tables(b)
    never = tables[:4] + ([b.n + 1] * len(tables[4]),)
    for avoid in (None, 0):
        got = _initial_domains(a.n, plan, tables, avoid)
        assert got == _initial_domains(a.n, plan, never, avoid)
        want = naive_arc_domains(a, b, tag, free, avoid)
        assert got == (None if want is None else [sum(1 << v for v in d) for d in want])


@pytest.mark.parametrize("k", [2, 3, 4])
def test_arc_pass_is_skipped_into_cliques(k):
    # into K_k every value has k - 1 in- and out-neighbours, so domains of 2
    # or more values support every value: the pass reads no row at all, and
    # blank rows leave the domains as they are
    a = scycle(7)
    rels, rows, masks, full, least = _target_tables(clique(k))
    blank = [None if r is None else [0] * k for r in rows]
    assert _initial_domains(a.n, _source_plan(a, PLAIN), (rels, blank, masks, full, least), None) == [full] * a.n


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
    onward = [0] * n  # arcs on the longest path starting at each vertex
    for u, v in sorted(arcs, key=lambda e: rank[e[1]], reverse=True):
        onward[u] = max(onward[u], onward[v] + 1)
    top = max(longest)
    g = digraph(n, arcs)
    assert hom_exists(g, _transitive_tournament(top)) is None
    h = hom_exists(g, _transitive_tournament(top + 1))
    assert h is not None
    ok, why = check_homomorphism(h)
    assert ok, why
    # the arc pass alone pins each vertex to [longest into it, top - longest out of it]
    plan = _source_plan(g, PLAIN)
    k = top + 1
    got = _initial_domains(n, plan, _target_tables(_transitive_tournament(k)), None)
    assert got == [(1 << (k - onward[x])) - (1 << longest[x]) for x in range(n)]
    assert _initial_domains(n, plan, _target_tables(_transitive_tournament(top)), None) is None


def test_arc_pass_answers_dags_without_stage_tables(monkeypatch):
    # T_k is the dual of the directed path on k + 1 elements, and the arc
    # pass decides it: it refutes T_L outright, and into T_(L+1) the least
    # arc-consistent assignment, each vertex at the length of the longest
    # path into it, is a map; neither call sorts the source or builds a
    # stage table
    n = 80
    arcs, longest = _random_dag(random.Random(8), n, 160)
    top = max(longest)
    g = digraph(n, arcs)

    def refuse(*args):
        raise AssertionError("a search ran")

    monkeypatch.setattr(homs, "_search_loop", refuse)
    monkeypatch.setattr(homs, "_stage_tables", refuse)
    assert hom_exists(g, _transitive_tournament(top)) is None
    h = hom_exists(g, _transitive_tournament(top + 1))
    ok, why = check_homomorphism(h)
    assert ok, why
    assert h.mapping == tuple(longest)
    assert _source_plan(g, PLAIN)[4] is None


@st.composite
def least_map_instances(draw, sizes=(17, 30)):
    """A source of sizes[0] to sizes[1] elements, a target, a mode and a
    target element to avoid or None.

    Most targets are min-closed: a transitive tournament or a directed
    path, sometimes with a loop at 0, over U/1 and E/2 with a random U.
    In plain mode, into those the least arc-consistent assignment is a map
    whenever any is.  The others are random, over U/1, E/2 and T/3 outside
    full mode.  The source's tuples are preimages of the target's under a
    planted map (all of them in full mode; the map is one-to-one in
    injective mode).  Noncollapse pairs, free slots (full mode) and the
    avoided element are drawn at random.  For the oracle sizes (up to 7
    elements) the target is small enough that `naive_homs` lists every
    candidate, and up to two random tuples may break the planted map.  A
    larger source keeps its planted map, so that no search has to refute
    (its noncollapse pairs and avoided element keep it too), except that in
    plain mode, into a min-closed target without noncollapse pairs, where
    the arc pass decides, it may get the random tuples as well.  Where the
    arc pass does not decide (a random target, injective mode), a large
    source outside full mode keeps its tuples among its first 8 elements.
    """
    tag = draw(st.sampled_from(["plain", "injective", "full"]))
    kind = draw(st.sampled_from(["tournament", "path", "random"]))
    small = sizes[1] <= 7
    if tag == "injective":
        n = sizes[0] if small else draw(st.integers(*sizes))
        k = draw(st.integers(n, n + 1)) if small else n + 2
    else:
        n = draw(st.integers(*sizes))
        k = draw(st.integers(2, (4 if n <= 6 else 3) if small else 6))
    sig = MIXED if kind == "random" and tag != "full" else UE
    values = st.integers(0, k - 1)
    if kind == "random":
        rels = {name: draw(st.sets(st.tuples(*[values] * arity), max_size=2 * k)) for name, arity in sig.symbols}
    else:
        step = [(i, i + 1) for i in range(k - 1)]
        arcs = [(i, j) for i in range(k) for j in range(i + 1, k)] if kind == "tournament" else step
        rels = {"U": [(v,) for v in draw(st.sets(values, min_size=1))], "E": arcs + draw(st.sampled_from([[], [(0, 0)]]))}
    b = Structure(sig, k, rels)
    planted = draw(st.permutations(range(k)))[:n] if tag == "injective" else draw(st.lists(values, min_size=n, max_size=n))
    preimages = [[x for x in range(n) if planted[x] == v] for v in range(k)]
    pairs = [(x, y) for x in range(n) for y in range(n) if x != y and (small or planted[x] != planted[y])]
    noncollapse = draw(st.frozensets(st.sampled_from(pairs), max_size=3)) if pairs else frozenset()
    rels = {}
    # the elements outside the pool are isolated and come last in the search
    # order, so a failed value never sends the search back through them
    pool = n if small or tag == "full" or (tag == "plain" and kind != "random") else 8
    for (name, arity), rb in zip(sig.symbols, b.rels):
        pre = sorted(t for image in rb for t in itertools.product(*(preimages[v] for v in image)) if max(t) < pool)
        rels[name] = pre if tag == "full" else draw(st.lists(st.sampled_from(pre), max_size=2 * n)) if pre else []
    if small or tag == "plain" and kind != "random" and not noncollapse:
        for name, arity in draw(st.lists(st.sampled_from(sig.symbols), max_size=2)):
            rels[name] = [*rels[name], tuple(draw(st.integers(0, n - 1)) for _ in range(arity))]
    a = Structure(sig, n, rels)
    free = frozenset()
    if tag == "full":
        elem = st.integers(0, n - 1)
        slot = st.sampled_from(sig.symbols).flatmap(lambda s: st.tuples(st.just(s[0]), st.tuples(*[elem] * s[1])))
        free = draw(st.frozensets(slot, max_size=8))
    unused = [v for v in range(k) if small or v not in planted]
    avoid = draw(st.none() | st.sampled_from(unused)) if unused else None
    return a, b, HomMode(tag, noncollapse, free), avoid


@settings(max_examples=100, deadline=None)
@given(least_map_instances())
@example((digraph(18, [(x, x + 1) for x in range(17)]), _transitive_tournament(18), INJECTIVE, None))
def test_least_assignment_keeps_the_first_maps(instance):
    # the least arc-consistent assignment, where it is a map, is the first
    # map of the search: hom_exists, _maps_to, the avoidance search and
    # core_of give what they give without it
    a, b, mode, avoid = instance

    def answers():
        h = hom_exists(a, b, mode)
        first = next(hom_maps(a, b, mode, _avoid=avoid, _first=True), None)
        return None if h is None else h.mapping, _maps_to(a, b, mode), first, core_of(a)

    got = answers()
    assert got[2] == next(hom_maps(a, b, mode, _avoid=avoid), None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homs, "_least_map", lambda *args: None)
        assert answers() == got


@settings(max_examples=200, deadline=None)
@given(least_map_instances(sizes=(5, 7)))
@example((
    digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    _transitive_tournament(5),
    HomMode("plain", frozenset({(0, 4)})),
    None,
))  # the least assignment is the one-to-one map onto 0..4
@example((digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), _transitive_tournament(6), INJECTIVE, 0))
@example((
    Structure(UE, 5, {"E": [(2, 1)]}),
    Structure(UE, 4, {"U": [(3,)], "E": [(1, 0), (1, 3), (2, 1), (3, 0), (3, 1)]}),
    FULL,
    None,
))  # the least values keep the arc, but put absent pairs onto arcs
@example((
    Structure(MIXED, 5, {"U": [(1,)], "T": [(0, 1, 2)]}),
    Structure(MIXED, 2, {"U": [(1,)], "T": [(0, 1, 1)]}),
    PLAIN,
    None,
))  # the least values miss the triple
@example((
    Structure(MIXED, 5, {"U": [(4,)]}),
    Structure(MIXED, 2, {"U": [(1,)], "T": [(0, 0, 1)]}),
    FULL,
    None,
))  # the least values put absent triples onto a triple: no full map
def test_least_assignment_is_the_least_map(instance):
    # on sources small enough to list every candidate: whenever the least
    # arc-consistent assignment is taken, it is the least map in every
    # coordinate, and so the least in degree order
    a, b, mode, avoid = instance
    taken = []
    least_map = homs._least_map

    def spy(*args):
        m = least_map(*args)
        if m is not None:
            taken.append(m)
        return m

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homs, "_NEST_LIMIT", 0)
        mp.setattr(homs, "_least_map", spy)
        first = next(hom_maps(a, b, mode, _avoid=avoid, _first=True), None)
        assert _source_plan(a, mode)[0] is None
    maps = [m for m in naive_homs(a, b, mode.tag, mode.noncollapse, mode.free_tuples) if avoid not in m]
    order = degree_order(a)
    assert first == min(maps, key=lambda m: [m[x] for x in order], default=None)
    for m in taken:
        assert m == first
        assert all(m[x] <= other[x] for other in maps for x in range(a.n))


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


def _dominated_extension(rng, n, arcs, total):
    """The arcs on 0..n-1 grown to 0..total-1: each new vertex v copies a
    random nonempty part of some earlier vertex s's in- and out-arcs, so
    v -> s is a retraction (as perfbench's `dominated_extension` grows its
    core inputs)."""
    arcs = set(arcs)
    for v in range(n, total):
        s = rng.randrange(v)
        outs = [y for (x, y) in arcs if x == s]
        ins = [x for (x, y) in arcs if y == s]
        picked = [(v, y) for y in outs if rng.random() < 0.6] + [(x, v) for x in ins if rng.random() < 0.6]
        if not picked:
            picked = [(v, outs[0])] if outs else [(ins[0], v)]
        arcs.update(picked)
    return arcs


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
        arcs = _dominated_extension(rng, 7, scycle(7).rel("E"), 18)
        perm = list(range(18))
        rng.shuffle(perm)
        c = core_of(digraph(18, [(perm[x], perm[y]) for x, y in arcs]))
        assert c.n == 7
        assert naive_isomorphic(c, scycle(7))


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([clique(2), clique(3), scycle(5), dcycle(3), dpath(2)]),
    st.integers(5, 6),
    st.randoms(use_true_random=False),
    st.sets(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=10).map(lambda arcs: (5, arcs)),
)
@example(scycle(5), 6, random.Random(1), (5, set(scycle(5).rel("E"))))
def test_maps_into_dominated_extensions_match_naive(core, total, rng, source):
    # a target grown by dominated elements keeps the answers of its core;
    # the generic path (arc pass, least assignment, search) agrees with
    # exhaustion on whether a map exists and on the witness
    arcs = sorted(_dominated_extension(rng, core.n, core.rel("E"), total))
    perm = list(range(total))
    rng.shuffle(perm)
    b = digraph(total, [(perm[x], perm[y]) for x, y in arcs])
    a = digraph(*source)
    maps = naive_homs(a, b)
    order = degree_order(a)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(homs, "_NEST_LIMIT", 0)
        assert _maps_to(a, b) == bool(maps)
        h = hom_exists(a, b)
        assert _source_plan(a, PLAIN)[0] is None
    assert (None if h is None else h.mapping) == min(maps, key=lambda m: [m[x] for x in order], default=None)


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
