"""Shared builders and naive oracles for the test suite.

The oracles here re-derive answers from definitions (exhaustion over all
maps, all colorings, ...) and never call the search machinery they check.
The `naive_*` references for refinement and coring are the slower
algorithms that the library's versions replaced, kept to pin their output.
"""

import itertools

from hypothesis import strategies as st

from homkit.errors import GuardExceededError
from homkit.fv import GPRIME_ASSEMBLY_CAP, _tuple_candidates
from homkit.homs import _set_partitions, core_of, hom_images, hom_maps
from homkit.patterns import PatternFamily, _minimal_patterns, pattern_color_map
from homkit.shape import shortest_cycle
from homkit.snp import Atom, Clause, SNPFormula
from homkit.structures import Lift, Structure, induced, lift_canonical_form, make_signature, quotient, shadow

DIGRAPH = make_signature([("E", 2)])
MIXED = make_signature([("U", 1), ("E", 2), ("T", 3)])
UE = make_signature([("U", 1), ("E", 2)])


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


def planted_arcs(rng, n, m, k):
    """Arcs of m random edges, both ways, between the classes of a random
    k-colouring of n vertices."""
    colour = [rng.randrange(k) for _ in range(n)]
    arcs = set()
    while len(arcs) < 2 * m:
        u, v = rng.randrange(n), rng.randrange(n)
        if colour[u] != colour[v]:
            arcs |= {(u, v), (v, u)}
    return arcs


def proper_colouring(arcs, colours) -> bool:
    """Whether the two ends of every arc have different colours (so no loops)."""
    return all(colours[u] != colours[v] for u, v in arcs)


def bipartite(n, arcs) -> bool:
    """Whether the graph of the arcs, directions ignored, is 2-colourable, by BFS."""
    nbrs = [[] for _ in range(n)]
    for u, v in arcs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    side = [None] * n
    for root in range(n):
        if side[root] is not None:
            continue
        side[root] = 0
        queue = [root]
        for u in queue:
            for v in nbrs[u]:
                if side[v] is None:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return False
    return True


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


def naive_twins(b):
    """Per element u, the mask of the elements w such that swapping u and w
    maps every relation of b onto itself (u among them); None when no
    element has such a w but itself."""
    twins = []
    for u in range(b.n):
        mask = 0
        for w in range(b.n):
            swap = {u: w, w: u}
            if all({tuple(swap.get(z, z) for z in t) for t in r} == r for r in b.rels):
                mask |= 1 << w
        twins.append(mask)
    return None if all(m == 1 << u for u, m in enumerate(twins)) else twins


def naive_arc_domains(a, b, mode_tag, free_tuples=(), avoid=None):
    """The greatest node- and arc-consistent domains of a -> b as value sets, or
    None when one is empty.

    Node consistency: an element with a held all-equal tuple takes only values
    whose all-equal tuple b holds; in full mode, one whose all-equal slot is
    absent and not free takes only values whose slot b leaves absent.  Arc
    consistency, by a fixpoint: for each held binary tuple (u, v), u != v, and
    in full mode each absent pair that is not free, every value of either end
    keeps a value of the other end's domain with which the pair is held in b
    (left absent, for an absent pair).  No domain holds `avoid`.
    """
    full = mode_tag == "full"
    doms = []
    for x in range(a.n):
        d = set(range(b.n)) - {avoid}
        for (name, arity), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
            t = (x,) * arity
            if t in ra or full and (name, t) not in free_tuples:
                d = {v for v in d if ((v,) * arity in rb) == (t in ra)}
        doms.append(d)
    pairs = []  # (u, v, relation of b, whether the pair must be held)
    for (name, arity), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
        if arity == 2:
            for u, v in itertools.permutations(range(a.n), 2):
                if (u, v) in ra or full and (name, (u, v)) not in free_tuples:
                    pairs.append((u, v, rb, (u, v) in ra))
    changed = True
    while changed:
        changed = False
        for u, v, rb, held in pairs:
            du = {p for p in doms[u] if any(((p, q) in rb) == held for q in doms[v])}
            dv = {q for q in doms[v] if any(((p, q) in rb) == held for p in du)}
            if (du, dv) != (doms[u], doms[v]):
                doms[u], doms[v] = du, dv
                changed = True
    return None if any(not d for d in doms) else doms


def degree_order(a):
    """Elements by the number of tuples containing them, most first, ties by index."""
    deg = [sum(x in t for r in a.rels for t in r) for x in range(a.n)]
    return sorted(range(a.n), key=lambda x: (-deg[x], x))


def naive_core_size(a):
    """Size of the core of a: the smallest image of an endomorphism, by exhaustion."""
    return min(len(set(m)) for m in naive_homs(a, a))


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
def symmetric_structures(draw, max_n=9):
    """Highly symmetric structures, relabelled at random.

    Digraphs: circulants, both orientations of a cycle, cliques, complete
    multipartite graphs, and unions of random permutations, whose elements
    share a degree but seldom an orbit.  Over MIXED: disjoint copies of
    one piece.
    """
    kind = draw(st.sampled_from(["circulant", "cycle", "clique", "multipartite", "copies", "permutations"]))
    if kind == "circulant":
        n = draw(st.integers(1, max_n))
        jumps = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
        arcs = [(i, (i + j) % n) for i in range(n) for j in jumps]
    elif kind == "cycle":
        n = draw(st.integers(2, max_n))
        step = draw(st.sampled_from([1, n - 1]))
        arcs = [(i, (i + step) % n) for i in range(n)]
    elif kind == "clique":
        n = draw(st.integers(1, max_n))
        arcs = [(i, j) for i in range(n) for j in range(n) if i != j]
    elif kind == "permutations":
        n = draw(st.integers(1, max_n))
        perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
        arcs = [(i, p[i]) for p in perms for i in range(n)]
    elif kind == "multipartite":
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda s: sum(s) <= max_n))
        part = [p for p, size in enumerate(sizes) for _ in range(size)]
        n = len(part)
        arcs = [(i, j) for i in range(n) for j in range(n) if part[i] != part[j]]
    else:
        piece = draw(mixed_structures(min_n=1, max_n=3, max_tuples=3))
        copies = draw(st.integers(1, max_n // piece.n))
        n = piece.n * copies
        rels = {name: [tuple(x + c * piece.n for x in t) for c in range(copies) for t in r]
                for name, r in zip(MIXED.names, piece.rels)}
        perm = draw(st.permutations(range(n)))
        return Structure(MIXED, n, {name: [tuple(perm[x] for x in t) for t in r] for name, r in rels.items()})
    perm = draw(st.permutations(range(n)))
    return digraph(n, [(perm[u], perm[v]) for u, v in arcs])


@st.composite
def blown_up_structures(draw, parts=(1, 3), copies=(1, 3)):
    """Structures over MIXED whose elements come in classes of twins, relabelled at random.

    A quotient of parts[0] to parts[1] elements is drawn, and each of its
    elements becomes copies[0] to copies[1] copies.  A tuple over copies is
    held when its image in the quotient is held and, unless the image is
    marked loose, the coordinates with one image are distinct copies: a
    loop blows up to a clique, or, loose, to a clique with loops.  The rule
    reads only which copies coincide, so any two copies of one element are
    twins.  Sometimes one more tuple is added, which may split classes.
    """
    q = draw(mixed_structures(min_n=parts[0], max_n=parts[1], max_tuples=4))
    counts = draw(st.lists(st.integers(*copies), min_size=q.n, max_size=q.n))
    part = [p for p, c in enumerate(counts) for _ in range(c)]
    n = len(part)
    rels = {}
    for (name, arity), r in zip(MIXED.symbols, q.rels):
        loose = draw(st.sets(st.sampled_from(sorted(r)))) if r else set()
        rels[name] = [t for t in itertools.product(range(n), repeat=arity)
                      if tuple(part[x] for x in t) in r
                      and (tuple(part[x] for x in t) in loose
                           or all(t[i] != t[j] for i in range(arity) for j in range(i) if part[t[i]] == part[t[j]]))]
    if draw(st.booleans()):
        name, arity = draw(st.sampled_from(MIXED.symbols))
        rels[name].append(tuple(draw(st.integers(0, n - 1)) for _ in range(arity)))
    perm = draw(st.permutations(range(n)))
    return Structure(MIXED, n, {name: [tuple(perm[x] for x in t) for t in r] for name, r in rels.items()})


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


@st.composite
def monadic_families(draw, uncolored=True):
    """Plain monadic families over E/2 (and sometimes T/3) with 1-2 colours.

    One or two patterns of 2-4 elements; each element gets one colour, or,
    with `uncolored`, sometimes none.
    """
    syms = [("E", 2)] + ([("T", 3)] if draw(st.booleans()) else [])
    colors = [f"C{i}" for i in range(draw(st.integers(1, 2)))]
    sig = make_signature(syms + [(c, 1) for c in colors], lift=colors)
    color_choice = st.sampled_from(colors + [None] if uncolored else colors)
    pats = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(2, 4))
        rels = {name: set() for name, _ in sig.symbols}
        for name, arity in syms:
            slot = st.tuples(*[st.integers(0, n - 1)] * arity)
            rels[name].update(draw(st.lists(slot, min_size=name == "E", max_size=2)))
        for x in range(n):
            c = draw(color_choice)
            if c is not None:
                rels[c].add((x,))
        pats.append(Lift(Structure(sig, n, rels), 1, "none"))
    return PatternFamily(sig, tuple(pats), "plain", 1)


@st.composite
def monadic_forest_families(draw):
    """Plain monadic families over E/2 with 2-3 colours whose patterns are oriented forests.

    One tree of 2-4 elements in each colour, so that no one-colour lift
    avoids them all, and up to two more patterns of 1-5 elements.  In
    those each element after the first hangs off an earlier one by an arc
    either way, or one time in five starts a new tree, and each element
    gets one colour, or one time in five none.
    """
    colors = [f"C{i}" for i in range(draw(st.integers(2, 3)))]
    sig = make_signature([("E", 2)] + [(c, 1) for c in colors], lift=colors)

    def pattern(n, tree, colored):
        rels = {name: set() for name, _ in sig.symbols}
        for v in range(1, n):
            u = draw(st.integers(0, v - 1))
            if tree or draw(st.integers(0, 4)):
                rels["E"].add(draw(st.sampled_from([(u, v), (v, u)])))
        for x in range(n):
            if colored or draw(st.integers(0, 4)):
                rels[colored or draw(st.sampled_from(colors))].add((x,))
        return Lift(Structure(sig, n, rels), 1, "none")

    pats = [pattern(draw(st.integers(2, 4)), True, c) for c in colors]
    pats += [pattern(draw(st.integers(1, 5)), False, None) for _ in range(draw(st.integers(0, 2)))]
    return PatternFamily(sig, tuple(pats), "plain", 1)


def fully_colored(fam):
    """The family with every pattern replaced by all its full colorings, in order.

    Each r-tuple that a pattern leaves uncolored takes every color in turn.
    On partition lifts a plain or injective pattern is the union of its
    full colorings, so the language is the same.
    """
    colors = fam.colors()
    pats = []
    for p in fam.patterns:
        tuples = itertools.product(range(p.struct.n), repeat=fam.lift_arity)
        uncolored = [t for t in tuples if not any(t in p.struct.rel(c) for c in colors)]
        for extra in itertools.product(colors, repeat=len(uncolored)):
            rels = {name: set(p.struct.rel(name)) for name, _ in fam.sig.symbols}
            for t, c in zip(uncolored, extra):
                rels[c].add(t)
            pats.append(Lift(Structure(fam.sig, p.struct.n, rels), p.lift_arity, p.cover_mode, p.noncollapse, p.free_tuples))
    return PatternFamily(fam.sig, tuple(pats), fam.mode_tag, fam.lift_arity)


@st.composite
def partial_families(draw):
    """Families over UE whose patterns color only some of their r-tuples.

    Lift arity 1 (one to three colors, patterns of 1-3 elements) or 2 (one
    or two colors, patterns of 1-2 elements), any of the three modes.  Each
    pattern leaves at most three r-tuples uncolored, may keep a pair of
    elements apart, and in full mode may waive one slot.
    """
    r = draw(st.integers(1, 2))
    mode = draw(st.sampled_from(["plain", "injective", "full"]))
    colors = [f"C{i}" for i in range(draw(st.integers(1, 3 if r == 1 else 2)))]
    base = list(UE.symbols)
    sig = make_signature(base + [(c, r) for c in colors], lift=colors)
    pats = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 3 if r == 1 else 2))
        elem = st.integers(0, n - 1)
        rels = {
            "U": set(draw(st.lists(st.tuples(elem), max_size=2))),
            "E": set(draw(st.lists(st.tuples(elem, elem), max_size=3))),
        }
        tuples = list(itertools.product(range(n), repeat=r))
        uncolored = set(draw(st.lists(st.sampled_from(tuples), max_size=3)))
        for t in tuples:
            if t not in uncolored:
                rels.setdefault(draw(st.sampled_from(colors)), set()).add(t)
        pairs = list(itertools.combinations(range(n), 2))
        noncollapse = frozenset(draw(st.lists(st.sampled_from(pairs), max_size=1))) if pairs else frozenset()
        free = frozenset()
        if mode == "full":
            slots = [(name, t) for name, arity in base for t in itertools.product(range(n), repeat=arity)]
            free = frozenset(draw(st.lists(st.sampled_from(slots), max_size=1)))
        pats.append(Lift(Structure(sig, n, rels), r, "none", noncollapse, free))
    return PatternFamily(sig, tuple(pats), mode, r)


def naive_normalize(fam, cap=512):
    """`patterns.normalize_family` by the image closure.

    Takes every homomorphic image of every pattern (`hom_images`, so at
    most 9 elements a pattern), drops the vacuous ones, and raises
    GuardExceededError past `cap` distinct images.  Then cores each image,
    dedups the cores by `lift_canonical_form`, sorts them by size and
    that form, and keeps the minimal ones.
    """
    if not fam.is_monadic():
        raise ValueError("normalize_family expects a monadic family")
    if fam.mode_tag != "plain":
        raise ValueError("normalize_family expects a plain-mode family")
    seen = {}
    for p in fam.patterns:
        if p.noncollapse or p.free_tuples:
            raise ValueError("expand partial constraints before normalizing")
        for img in hom_images(p.struct):
            img = Lift(img, fam.lift_arity, "none")
            if pattern_color_map(fam, img) is None:
                continue
            key = lift_canonical_form(img)
            if key not in seen:
                seen[key] = img
            if len(seen) > cap:
                raise GuardExceededError("image closure exceeds the normalization cap")
    cored = {}
    for img in seen.values():
        c = Lift(core_of(img.struct), fam.lift_arity, "none")
        cored.setdefault(lift_canonical_form(c), c)
    pats = sorted(cored.values(), key=lambda p: (p.struct.n, lift_canonical_form(p)))
    return PatternFamily(fam.sig, _minimal_patterns(pats), fam.mode_tag, fam.lift_arity)


def naive_gprime(fam, basis, cap=GPRIME_ASSEMBLY_CAP):
    """`fv.build_gprime` by brute force, for fully coloured families.

    Builds every assembly in `itertools.product` order as a structure and
    keeps it when `shortest_cycle` finds no incidence cycle.
    """
    if not fam.is_monadic():
        raise ValueError("the reduction expects a monadic family")
    colors = fam.colors()
    members = {}
    for p in fam.patterns:
        cmap = pattern_color_map(fam, p)
        if cmap is None:
            continue
        color_of = {t[0]: c for t, c in cmap.items()}
        sh = shadow(p)
        for assign, m in _set_partitions(p.struct.n):
            first = {}
            if any(first.setdefault(c, color_of.get(x)) != color_of.get(x) for x, c in enumerate(assign)):
                continue  # a class holds two colours
            h = quotient(sh, assign, m)
            core_colors = {}
            for x in range(p.struct.n):
                if x in color_of:
                    core_colors[assign[x]] = color_of[x]
            h_tuples = sorted(h.all_tuples())
            choice_lists = []
            for si, t in h_tuples:
                cands = _tuple_candidates(basis, h.sig.names[si], t, m)
                choice_lists.append(cands)
            total = 1
            for cl in choice_lists:
                total *= max(len(cl), 1)
                if total > cap:
                    raise GuardExceededError("pattern assembly count exceeds the cap")
            if any(not cl for cl in choice_lists):
                continue
            for combo in itertools.product(*choice_lists):
                chosen = sorted(set(combo))
                # materialise: core elements first, then fresh slots per candidate
                fresh_index = {}
                for ci, (bi, vec) in enumerate(chosen):
                    for kind, v in vec:
                        if kind == "f":
                            fresh_index.setdefault((ci, v), m + len(fresh_index))
                n_total = m + len(fresh_index)
                rels = {name: set() for name, _ in basis.lifted.symbols}
                for ci, (bi, vec) in enumerate(chosen):
                    coords = []
                    for kind, v in vec:
                        coords.append(v if kind == "c" else fresh_index[(ci, v)])
                    rels[basis.block_symbol(bi)].add(tuple(coords))
                base_struct = Structure(basis.lifted, n_total, rels)
                if shortest_cycle(base_struct) is not None:
                    continue
                fresh_slots = sorted(fresh_index.values())
                for fresh_colors in itertools.product(range(len(colors)), repeat=len(fresh_slots)):
                    crels = {k: set(v) for k, v in rels.items()}
                    for x in range(m):
                        crels[colors[core_colors[x]]].add((x,))
                    for slot, c in zip(fresh_slots, fresh_colors):
                        crels[colors[c]].add((slot,))
                    lift = Lift(Structure(basis.lifted, n_total, crels), 1, "partition")
                    members.setdefault(lift_canonical_form(lift), lift)
                    if len(members) > cap:
                        raise GuardExceededError("member count exceeds the cap")
    pats = sorted(members.values(), key=lambda p: (p.struct.n, lift_canonical_form(p)))
    return PatternFamily(basis.lifted, _minimal_patterns(pats), "plain", 1)


def naive_family_nogoods(fam, a):
    """The nogoods of `fp_membership`, one pattern at a time, or None.

    Variables are the r-tuples of `a` in `itertools.product` order; every
    map of a pattern's shadow found by `naive_homs` forbids the pattern's
    colors on the images of its colored r-tuples.  A fragment giving one
    tuple two colors is dropped; an empty one makes `a` a non-member (None).
    """
    r = fam.lift_arity
    index = {t: i for i, t in enumerate(itertools.product(range(a.n), repeat=r))}
    nogoods = set()
    for p in fam.patterns:
        cmap = pattern_color_map(fam, p)
        if cmap is None:
            continue
        if fam.mode_tag == "full" and len(cmap) < p.struct.n**r:
            continue  # an uncolored tuple must map onto a colorless one
        for m in naive_homs(shadow(p), a, fam.mode_tag, p.noncollapse, p.free_tuples):
            frag = {}
            for t, ci in cmap.items():
                if frag.setdefault(index[tuple(m[x] for x in t)], ci) != ci:
                    break
            else:
                if not frag:
                    return None
                nogoods.add(frozenset(frag.items()))
    return nogoods


def naive_formula_nogoods(phi, a):
    """The nogoods of `eval_snp`, one clause valuation at a time, or None.

    Variables are the proof bits: each proof symbol's tuples in
    `itertools.product` order, the symbols in declaration order.  Every
    valuation of a clause's variables that satisfies its inequalities and
    input atoms forbids its proof atoms' polarities.
    """
    index = {}
    for name, arity in phi.proof:
        for t in itertools.product(range(a.n), repeat=arity):
            index[name, t] = len(index)
    nogoods = set()
    for c in phi.clauses:
        for vals in itertools.product(range(a.n), repeat=len(c.variables)):
            env = dict(zip(c.variables, vals))
            if any(env[x] == env[y] for x, y in c.epsilon):
                continue
            if any((tuple(env[v] for v in at.args) in a.rel(at.symbol)) != at.positive for at in c.alpha):
                continue
            frag = {}
            for at in c.beta:
                if frag.setdefault(index[at.symbol, tuple(env[v] for v in at.args)], at.positive) != at.positive:
                    break
            else:
                if not frag:
                    return None
                nogoods.add(frozenset(frag.items()))
    return nogoods


def naive_solutions(nvars, k, nogoods):
    """Every assignment avoiding all nogoods, as a set of value tuples.

    A nogood is a collection of (variable, value) literals over variables
    0..nvars-1 and values 0..k-1; an empty one excludes everything.
    Assignments are extended one variable at a time, and a nogood is tested
    once its last variable has a value.
    """
    by_last = [[] for _ in range(nvars)]
    for g in nogoods:
        if not g:
            return set()
        by_last[max(v for v, _ in g)].append(g)
    out = set()
    prefix = []

    def extend():
        i = len(prefix)
        if i == nvars:
            out.add(tuple(prefix))
            return
        for c in range(k):
            prefix.append(c)
            if not any(all(prefix[v] == d for v, d in g) for g in by_last[i]):
                extend()
            prefix.pop()

    extend()
    return out


def naive_least_coloring(nvars, k, nogoods):
    """The first assignment in `itertools.product(range(k), repeat=nvars)` order
    that avoids every nogood, as a list, or None; None excludes everything."""
    if nogoods is None:
        return None
    for values in itertools.product(range(k), repeat=nvars):
        if all(any(values[v] != c for v, c in g) for g in nogoods):
            return list(values)
    return None


def same_constraint(nvars, k, walked, naive):
    """Whether compacted nogoods `walked` say what `naive` says; None is the empty nogood.

    (a) both have the same solutions, by `naive_solutions`; (b) every naive
    nogood contains a walked one; (c) every walked nogood lies inside a
    naive one.
    """
    walked = {frozenset()} if walked is None else set(walked)
    naive = {frozenset()} if naive is None else naive
    return (
        naive_solutions(nvars, k, walked) == naive_solutions(nvars, k, naive)
        and all(any(w <= g for w in walked) for g in naive)
        and all(any(w <= g for g in naive) for w in walked)
    )


@st.composite
def ue_structures(draw, max_n=3):
    """Structures over UE with at most max_n elements."""
    n = draw(st.integers(0, max_n))
    if not n:
        return Structure(UE, 0)
    elem = st.integers(0, n - 1)
    rels = {"U": draw(st.lists(st.tuples(elem), max_size=n)), "E": draw(st.lists(st.tuples(elem, elem), max_size=2 * n))}
    return Structure(UE, n, rels)


@st.composite
def shadow_sharing_families(draw):
    """Families over UE whose patterns often share a shadow.

    Lift arity 1 or 2, one to three colors, any of the three modes.  One or
    two shadows of 1-3 elements each carry one to three patterns, which
    differ in their colors, noncollapse pairs and (in full mode) free slots.
    """
    r = draw(st.integers(1, 2))
    mode = draw(st.sampled_from(["plain", "injective", "full"]))
    colors = [f"C{i}" for i in range(draw(st.integers(1, 3)))]
    base = list(UE.symbols)
    sig = make_signature(base + [(c, r) for c in colors], lift=colors)
    pats = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 3))
        elem = st.integers(0, n - 1)
        held = {
            "U": set(draw(st.lists(st.tuples(elem), max_size=2))),
            "E": set(draw(st.lists(st.tuples(elem, elem), max_size=3))),
        }
        slots = [(name, t) for name, arity in base for t in itertools.product(range(n), repeat=arity)]
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(draw(st.integers(1, 3))):
            rels = dict(held)
            for t in itertools.product(range(n), repeat=r):
                c = draw(st.sampled_from(colors + [None]))
                if c is not None:
                    rels.setdefault(c, set()).add(t)
            noncollapse = frozenset(draw(st.lists(st.sampled_from(pairs), max_size=2))) if pairs else frozenset()
            free = frozenset()
            if mode == "full":
                free = frozenset(draw(st.lists(st.sampled_from(slots), max_size=2)))
            pats.append(Lift(Structure(sig, n, rels), r, "none", noncollapse, free))
    return PatternFamily(sig, tuple(pats), mode, r)


SHARING_PROOF = (("P", 1), ("Q", 2))


@st.composite
def shadow_sharing_formulas(draw):
    """Formulas over UE whose clauses often share a shadow.

    Proof symbols P/1 and Q/2.  Every clause holds the same positive input
    atoms; each adds proof atoms, and maybe negated input atoms and
    inequalities, over the same variables.
    """
    var = st.sampled_from("xyz")
    shared = [Atom("E", draw(st.tuples(var, var)))]
    shared += [Atom("U", (v,)) for v in draw(st.lists(var, max_size=1))]
    names = []
    for at in shared:
        for v in at.args:
            if v not in names:
                names.append(v)
    own = st.sampled_from(names)
    pairs = list(itertools.permutations(names, 2))
    clauses = []
    for _ in range(draw(st.integers(1, 4))):
        negated = [Atom("E", draw(st.tuples(own, own)), False) for _ in range(draw(st.integers(0, 1)))]
        negated += [Atom("U", (draw(own),), False) for _ in range(draw(st.integers(0, 1)))]
        beta = [Atom("P", (draw(own),), draw(st.booleans())) for _ in range(draw(st.integers(0, 2)))]
        beta += [Atom("Q", draw(st.tuples(own, own)), draw(st.booleans())) for _ in range(draw(st.integers(0, 1)))]
        eps = draw(st.lists(st.sampled_from(pairs), max_size=1)) if pairs else []
        clauses.append(Clause(tuple(names), tuple(shared + negated), tuple(beta), tuple(eps)))
    return SNPFormula(UE, SHARING_PROOF, tuple(clauses))


@st.composite
def partial_formulas(draw):
    """A formula over UE with proof symbols P/1 and Q/2, and the same formula written out.

    Each clause has two or three variables, input atoms (some negated) and
    maybe an inequality, and decides a few proof atoms.  The written-out
    formula replaces each clause by all polarity completions of up to three
    proof atoms that it leaves undecided: the same constraint.
    """
    clauses, written = [], []
    for _ in range(draw(st.integers(1, 3))):
        names = ("x", "y", "z")[: draw(st.integers(2, 3))]
        var = st.sampled_from(names)
        alpha = [Atom("E", draw(st.tuples(var, var)), draw(st.booleans())) for _ in range(draw(st.integers(1, 2)))]
        alpha += [Atom("U", (draw(var),), draw(st.booleans())) for _ in range(draw(st.integers(0, 1)))]
        atoms = [("P", (v,)) for v in names] + [("Q", t) for t in itertools.product(names, repeat=2)]
        decided = draw(st.lists(st.sampled_from(atoms), max_size=2, unique=True))
        beta = tuple(Atom(sym, args, draw(st.booleans())) for sym, args in decided)
        pairs = list(itertools.combinations(names, 2))
        eps = tuple(draw(st.lists(st.sampled_from(pairs), max_size=1)))
        clauses.append(Clause(names, tuple(alpha), beta, eps))
        undecided = [at for at in atoms if at not in decided]
        extra = draw(st.lists(st.sampled_from(undecided), max_size=3, unique=True))
        for signs in itertools.product((True, False), repeat=len(extra)):
            more = tuple(Atom(sym, args, pos) for (sym, args), pos in zip(extra, signs))
            written.append(Clause(names, tuple(alpha), beta + more, eps))
    return SNPFormula(UE, SHARING_PROOF, tuple(clauses)), SNPFormula(UE, SHARING_PROOF, tuple(written))


def naive_injective_expansion(fam):
    """`patterns.injective_expansion` on a plain family, one pair at a time.

    A worklist takes a pattern's first pair (x, y), x < y, missing from its
    noncollapse pairs and splits the pattern into the variant that keeps
    the pair apart and the quotient that merges y into x.  Patterns with
    every pair apart are the quotients; only the unsplit original keeps
    its cover mode.  Returns them deduplicated by `lift_canonical_form`,
    sorted by size and then by that form.
    """
    queue = list(fam.patterns)
    done = []
    while queue:
        p = queue.pop()
        n = p.struct.n
        missing = next(
            ((x, y) for x in range(n) for y in range(x + 1, n) if (x, y) not in p.noncollapse), None
        )
        if missing is None:
            done.append(Lift(p.struct, p.lift_arity, p.cover_mode))
            continue
        x, y = missing
        queue.append(Lift(p.struct, p.lift_arity, p.cover_mode, p.noncollapse | {(x, y)}))
        cmap = [x if z == y else z - (z > y) for z in range(n)]
        carried = frozenset(tuple(sorted((cmap[u], cmap[v]))) for u, v in p.noncollapse)
        queue.append(Lift(quotient(p.struct, cmap, n - 1), p.lift_arity, "none", carried))
    seen = {}
    for p in done:
        seen.setdefault(lift_canonical_form(p), p)
    return sorted(seen.values(), key=lambda p: (p.struct.n, lift_canonical_form(p)))


def naive_saturate_inequalities(phi):
    """The clause keys of `snp.saturate_inequalities`, one pair at a time.

    A worklist takes a clause's first variable pair without an inequality
    and splits the clause into the variant with x != y and the one that
    renames y to x; a variant whose inequality collapses to x != x is
    dropped.
    """
    queue = list(phi.clauses)
    keys = set()
    while queue:
        c = queue.pop()
        have = {frozenset(p) for p in c.epsilon}
        missing = next(
            ((x, y) for i, x in enumerate(c.variables) for y in c.variables[i + 1 :] if frozenset((x, y)) not in have),
            None,
        )
        if missing is None:
            keys.add(c.key())
            continue
        x, y = missing
        queue.append(Clause(c.variables, c.alpha, c.beta, c.epsilon + ((x, y),)))
        ren = {y: x}
        eps = tuple((ren.get(u, u), ren.get(v, v)) for u, v in c.epsilon)
        if any(u == v for u, v in eps):
            continue
        queue.append(
            Clause(
                tuple(v for v in c.variables if v != y),
                tuple(a.substitute(ren) for a in c.alpha),
                tuple(a.substitute(ren) for a in c.beta),
                eps,
            )
        )
    return keys


def naive_incidence(a):
    """Per element: the (symbol index, position, tuple) triples it occurs in."""
    incident = [[] for _ in range(a.n)]
    for si, t in a.all_tuples():
        for pos, x in enumerate(t):
            incident[x].append((si, pos, t))
    return incident


def naive_refine_colors(incident, colors):
    """Colour refinement that recomputes every element's profile each round.

    The reference for `structures._refine_colors`: ranks of (colour,
    profile) pairs over all elements, until a round returns its input.
    """
    n = len(colors)
    for _ in range(n):
        profiles = []
        for x in range(n):
            prof = sorted(
                (si, pos, tuple(colors[y] for y in t)) for si, pos, t in incident[x]
            )
            profiles.append((colors[x], tuple(prof)))
        order = sorted(set(profiles))
        rank = {p: i for i, p in enumerate(order)}
        new = [rank[p] for p in profiles]
        if new == colors:
            break
        colors = new
    return colors


def naive_canonical_labelling(a, colors=None):
    """(encoding, perm) of the first least leaf, found without the search's shortcuts.

    The reference for `structures._canonical_labelling`: the same
    depth-first individualisation-refinement over `naive_refine_colors`,
    children in ascending element order, pruned only by orbits and by
    leaves equivalent to the first or the best leaf, with neither the twin
    swaps nor the first-path cell maps.
    """
    n = a.n
    incident = naive_incidence(a)

    def refine(init):
        ranks = naive_refine_colors(incident, list(init))
        cells = [[x for x in range(n) if ranks[x] == c] for c in range(len(set(ranks)))]
        return ranks, next((cell for cell in cells if len(cell) > 1), None)

    def encode(perm):
        return tuple(tuple(sorted(tuple(perm[x] for x in t) for t in r)) for r in a.rels)

    def next_child(cell, tried, prefix, autos):
        fixing = [g for g in autos if all(g[x] == x for x in prefix)]
        seen, todo = set(tried), list(tried)
        while todo:
            x = todo.pop()
            for g in fixing:
                if g[x] not in seen:
                    seen.add(g[x])
                    todo.append(g[x])
        return next((v for v in cell if v not in seen), None)

    root, cell = refine(colors if colors is not None else [0] * n)
    if cell is None:
        return encode(root), root
    first = best = None
    autos = []
    stack = [(root, (), cell, [])]
    while stack:
        colouring, path, cell, tried = stack[-1]
        v = next_child(cell, tried, path, autos)
        if v is None:
            stack.pop()
            continue
        tried.append(v)
        init = [2 * c for c in colouring]
        init[v] += 1
        child, cell = refine(init)
        child_path = path + (v,)
        if cell is not None:
            stack.append((child, child_path, cell, []))
            continue
        enc = encode(child)
        if first is None:
            first = best = (enc, child, child_path)
            continue
        for enc0, perm0, path0 in (first, best):
            if enc == enc0:
                inverse0 = [0] * n
                for x, p in enumerate(perm0):
                    inverse0[p] = x
                autos.append([inverse0[p] for p in child])
                depth = 0
                while path0[depth] == child_path[depth]:
                    depth += 1
                del stack[depth + 1:]
                break
        else:
            if enc < best[0]:
                best = (enc, child, child_path)
    return best[0], best[1]


def naive_retract_dominated(a):
    """Retraction by testing every live y against every other live x, tuple by tuple.

    The reference for `homs._retract_dominated`: a pass drops y at once
    when some x absorbs it on y's tuples over live elements; passes repeat
    until one drops nothing.
    """
    n = a.n
    by_elem = [[] for _ in range(n)]
    for si, tp in a.all_tuples():
        for x in set(tp):
            by_elem[x].append((si, tp))
    live = [True] * n
    changed = True
    while changed:
        changed = False
        for y in range(n):
            if not live[y]:
                continue
            incident = [(a.rels[si], tp) for si, tp in by_elem[y] if all(live[z] for z in tp)]
            for x in range(n):
                if x == y or not live[x]:
                    continue
                if all(tuple(x if z == y else z for z in tp) in rel for rel, tp in incident):
                    live[y] = False
                    changed = True
                    break
    return induced(a, [z for z in range(n) if live[z]])


def naive_shrinking_endo(a):
    """The first map a -> a - x over x, searched into the built substructure a - x.

    The reference for `homs._shrinking_endo`, which searches a -> a with x
    left out of the domains instead; the map comes back in `a`'s numbering.
    """
    for x in range(a.n):
        keep = [z for z in range(a.n) if z != x]
        m = next(hom_maps(a, induced(a, keep)), None)
        if m is not None:
            return [keep[v] for v in m]
    return None


def naive_core_of(a):
    """`homs.core_of` composed from the reference retraction and avoidance search."""
    current = naive_retract_dominated(a)
    while True:
        endo = naive_shrinking_endo(current)
        if endo is None:
            return current
        current = induced(current, endo)


def naive_tree_dual(t):
    """The core of the Nešetřil–Tardif dual of the tree `t`, built from its definition.

    The elements are the maps sending each element of `t` to a tuple that
    contains it, listed by `itertools.product` over each element's tuples
    in (symbol index, tuple) order.  A tuple of maps is related unless some
    tuple e of `t` under the same symbol has every map pointing its element
    at that position at e.  No check that `t` is a tree is made.
    """
    tuples = sorted(t.all_tuples())
    maps = list(itertools.product(*([e for e in tuples if x in e[1]] for x in range(t.n))))
    rels = {}
    for si, (name, arity) in enumerate(t.sig.symbols):
        rels[name] = [
            fs
            for fs in itertools.product(range(len(maps)), repeat=arity)
            if not any(s == si and all(maps[f][u] == (s, tp) for f, u in zip(fs, tp)) for s, tp in tuples)
        ]
    return naive_core_of(Structure(t.sig, len(maps), rels))
