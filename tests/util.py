"""Shared builders and naive oracles for the test suite.

The oracles here re-derive answers from definitions (exhaustion over all
maps, all colorings, ...) and never call the search machinery they check.
"""

import itertools

from hypothesis import strategies as st

from homkit.structures import Structure, make_signature

DIGRAPH = make_signature([("E", 2)])
MIXED = make_signature([("U", 1), ("E", 2), ("T", 3)])


def digraph(n, arcs=()):
    return Structure(DIGRAPH, n, {"E": arcs})


def clique(n):
    """Symmetric loopless complete digraph K_n."""
    return digraph(n, [(i, j) for i in range(n) for j in range(n) if i != j])


def dcycle(n):
    """Directed cycle on n vertices."""
    return digraph(n, [(i, (i + 1) % n) for i in range(n)])


def scycle(n):
    """Symmetric cycle on n vertices."""
    arcs = []
    for i in range(n):
        arcs += [(i, (i + 1) % n), ((i + 1) % n, i)]
    return digraph(n, arcs)


def dpath(k):
    """Directed path with k arcs (k+1 vertices)."""
    return digraph(k + 1, [(i, i + 1) for i in range(k)])


def spath(k):
    arcs = []
    for i in range(k):
        arcs += [(i, i + 1), (i + 1, i)]
    return digraph(k + 1, arcs)


def loop_vertex():
    return digraph(1, [(0, 0)])


def point():
    return digraph(1)


def naive_valid(a, b, m, mode_tag, noncollapse=(), free_tuples=()):
    """Definition-level check that map m is a mode_tag-homomorphism a -> b."""
    for (name, arity), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
        for t in ra:
            if tuple(m[x] for x in t) not in rb:
                return False
    if mode_tag == "injective" and len(set(m)) != len(m):
        return False
    if mode_tag == "full":
        for (name, arity), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
            for t in itertools.product(range(a.n), repeat=arity):
                if (name, t) in free_tuples:
                    continue
                if (t in ra) != (tuple(m[x] for x in t) in rb):
                    return False
    for x, y in noncollapse:
        if m[x] == m[y]:
            return False
    return True


def naive_homs(a, b, mode_tag="plain", noncollapse=(), free_tuples=()):
    """All valid maps by exhausting every one of |B|^|A| candidates."""
    out = []
    for m in itertools.product(range(b.n), repeat=a.n):
        if naive_valid(a, b, m, mode_tag, noncollapse, free_tuples):
            out.append(m)
    return out


def naive_isomorphic(a, b, colors_a=None, colors_b=None):
    """Is some bijection a -> b onto every relation and colour-preserving?

    Tries all |A|! bijections; colours default to one shared colour."""
    if a.sig != b.sig or a.n != b.n:
        return False
    ca = colors_a if colors_a is not None else [0] * a.n
    cb = colors_b if colors_b is not None else [0] * b.n
    for p in itertools.permutations(range(a.n)):
        if any(ca[x] != cb[p[x]] for x in range(a.n)):
            continue
        if all(
            {tuple(p[x] for x in t) for t in ra} == rb for ra, rb in zip(a.rels, b.rels)
        ):
            return True
    return False


@st.composite
def mixed_structures(draw, max_n=6, max_tuples=6, min_n=0):
    """Structures over MIXED with min_n to max_n elements and at most max_tuples tuples a symbol."""
    n = draw(st.integers(min_n, max_n))
    rels = {}
    for name, arity in MIXED.symbols:
        if n:
            slot = st.tuples(*[st.integers(0, n - 1)] * arity)
            rels[name] = draw(st.lists(slot, max_size=max_tuples))
    return Structure(MIXED, n, rels)


@st.composite
def mixed_trees(draw, max_n=5):
    """Connected trees over MIXED with at most max_n elements.

    Each step hangs a U-tuple on an element, or an E- or T-tuple joining one
    element to fresh ones in a drawn coordinate order; a step that would pass
    max_n elements is skipped.
    """
    n = 1
    rels = {name: set() for name, _ in MIXED.symbols}
    step = st.tuples(st.sampled_from(MIXED.names), st.integers(0, max_n - 1), st.permutations(range(3)))
    for name, anchor, order in draw(st.lists(step, max_size=6)):
        anchor %= n
        arity = MIXED.arity(name)
        if n + arity - 1 > max_n:
            continue
        elems = [anchor] + list(range(n, n + arity - 1))
        rels[name].add(tuple(elems[i] for i in order if i < arity))
        n += arity - 1
    return Structure(MIXED, n, rels)
