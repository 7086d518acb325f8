"""Shared builders and naive oracles for the test suite.

The oracles here re-derive answers from definitions (exhaustion over all
maps, all colorings, ...) and never call the search machinery they check.
"""

import itertools

from hypothesis import strategies as st

from homkit.errors import GuardExceededError
from homkit.fv import GPRIME_ASSEMBLY_CAP, _color_compatible_partitions, _tuple_candidates
from homkit.patterns import PatternFamily, _minimal_patterns, pattern_color_map
from homkit.shape import shortest_cycle
from homkit.snp import Atom, Clause, SNPFormula
from homkit.structures import Lift, Structure, lift_canonical_form, make_signature, quotient, shadow

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


def fully_colored(fam):
    """The family with every pattern replaced by all its full colorings, in order.

    On partition lifts a plain pattern is the union of its full colorings,
    so the language is the same.
    """
    colors = fam.colors()
    pats = []
    for p in fam.patterns:
        uncolored = [x for x in range(p.struct.n) if not any((x,) in p.struct.rel(c) for c in colors)]
        for extra in itertools.product(colors, repeat=len(uncolored)):
            rels = {name: set(p.struct.rel(name)) for name, _ in fam.sig.symbols}
            for x, c in zip(uncolored, extra):
                rels[c].add((x,))
            pats.append(Lift(Structure(fam.sig, p.struct.n, rels), p.lift_arity, p.cover_mode, p.noncollapse, p.free_tuples))
    return PatternFamily(fam.sig, tuple(pats), fam.mode_tag, fam.lift_arity)


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
        for assign, m in _color_compatible_partitions(p.struct.n, color_of):
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
