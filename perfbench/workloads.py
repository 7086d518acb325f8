"""The four workloads: seeded inputs, the operations of one round, and their checks.

A workload's `setup(hk, rng)` turns the seed's random stream into inputs,
held mostly as plain data.  `ops(hk, state, memo)` builds one round: fresh
homkit objects and one `Op` per call into homkit's public API.  Every round
of a run attempts the same operations, and the number of operations in a
round does not depend on the seed.  An op's check runs after the clock
stops; it compares the answer with `checkers`, never with homkit's own
search, membership or validators.  `memo` keeps checker answers for the
length of a run, keyed by the inputs they were computed from and, where a
witness is checked, by the witness.

homkit functions are taken from the package or its modules when a round's
operations are built, which in a traced run is after the wrappers are in
place, so the benchmark's own calls go through them.
"""

from __future__ import annotations

import itertools
import random

import checkers as ck


class Op:
    """One call into homkit; `check(result)` says whether the answer is right.

    `expect` names an exception type that marks a known fault: the op then
    counts as failed, and its check is not run.
    """

    __slots__ = ("name", "call", "check", "expect")

    def __init__(self, name, call, check, expect=None):
        self.name = name
        self.call = call
        self.check = check
        self.expect = expect


def plain(struct):
    """A homkit Structure as checker data: (n, {symbol: frozenset of tuples})."""
    return struct.n, {name: frozenset(struct.rel(name)) for name in struct.sig.names}


def digraph(hk, n, arcs):
    return hk.Structure(hk.make_signature([("E", 2)]), n, {"E": arcs})


def both_ways(edges):
    return [arc for u, v in edges for arc in ((u, v), (v, u))]


def clique_edges(vertices):
    return list(itertools.combinations(vertices, 2))


def random_edges(rng, n, m, allowed=lambda u, v: True):
    """m distinct undirected edges {u, v}, u != v, accepted by `allowed`."""
    edges = set()
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and allowed(u, v):
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def planted_edges(rng, n, m, k):
    """m random edges between vertices of different colours under a hidden k-colouring."""
    colour = [rng.randrange(k) for _ in range(n)]
    return random_edges(rng, n, m, lambda u, v: colour[u] != colour[v])


def random_arcs(rng, n, m):
    arcs = set()
    while len(arcs) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return sorted(arcs)


def sizes(lo, hi, count):
    """count sizes spread evenly over lo..hi, the same for every seed.

    Only the random structure of each input depends on the seed, so the
    work a round does varies less from seed to seed.
    """
    return [lo + (hi - lo) * i // max(count - 1, 1) for i in range(count)]


def permuted(rng, n, arcs):
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((perm[u], perm[v]) for u, v in arcs)


# ---------------------------------------------------------------------------
# hom-grid: tiny hom_exists calls on catalog pairs with at most 4 elements
# ---------------------------------------------------------------------------

GRID_PAIRS = 3000  # per round, each asked in plain, injective and full mode


def grid_setup(hk, rng):
    sig = hk.make_signature([("E", 2)])
    catalog = [s for n in range(5) for _, s in hk.enumeration.structures_of_size(sig, n)]
    pairs = [(rng.randrange(len(catalog)), rng.randrange(len(catalog))) for _ in range(GRID_PAIRS)]
    return {"catalog": catalog, "plain": [plain(s) for s in catalog], "pairs": pairs, "ops": None}


def grid_ops(hk, state, memo):
    # The catalog is built once and reused by every round, as a sweep reuses
    # its structures; homkit's per-structure plan caches stay warm.
    if state["ops"] is None:
        catalog, flat = state["catalog"], state["plain"]
        ops = []
        for i, j in state["pairs"]:
            for mode in (hk.PLAIN, hk.INJECTIVE, hk.FULL):
                ops.append(Op(f"hom_exists/{mode.tag}", _call(hk.hom_exists, catalog[i], catalog[j], mode),
                              _grid_check(memo, flat[i], flat[j], (i, j), mode.tag)))
        state["ops"] = ops
    return state["ops"]


def _grid_check(memo, a, b, key, tag):
    """The oracle's verdict, and a witness valid for the mode; memoised per answer."""
    def check(res):
        answer = None if res is None else tuple(res.mapping)
        verdict = memo.get((key, tag, answer))
        if verdict is None:
            want = memo.get((key, tag))
            if want is None:
                want = memo[(key, tag)] = ck.oracle_hom_exists(a, b, tag)
            verdict = memo[(key, tag, answer)] = not want if res is None else want and ck.valid_map(a, b, answer, tag)
        return verdict

    return check


# ---------------------------------------------------------------------------
# hom-large: the same searcher on sources with tens to hundreds of elements
# ---------------------------------------------------------------------------

# Colouring instances: (count per round, vertex range, edges per vertex,
# target K_k, kind).  The densities keep each family's search time within
# a small multiple of its mean; planted 3-colourable graphs with 160
# vertices and average degree 4 took from 0.2s to 17.6s depending on the
# seed, which no bound on a median could absorb.
LARGE_COLOURING = (
    (40, (30, 60), 3.0, 3, "planted"),
    (16, (60, 100), 4.0, 3, "planted"),
    (40, (40, 60), 3.5, 3, "random"),
    (16, (24, 32), 2.0, 3, "planted+K4"),
    (30, (40, 60), 8.0, 4, "planted"),
    (30, (24, 30), 6.0, 4, "random"),
)
LARGE_DAGS = 72  # oriented acyclic graphs, each asked into T_L and T_(L+1)
LARGE_CYCLIC = 8  # oriented graphs with a directed cycle, into T_8
# (core, vertices): the symmetric 7-cycle grown to 18 vertices was left
# out, because core_of on it took from 1ms to 325ms depending on the seed
LARGE_CORES = (("K3", 12), ("K4", 14), ("C5", 16), ("dC3", 12), ("C5", 12)) * 2
# (input, min_girth) for sparse_replace with target_size=2.  The symmetric
# triangle, the directed triangle and the directed 4-cycle are left out: on
# some replacement seeds hom_exists from their blow-up into a 2-element
# target runs for seconds to minutes (see CHANGES.md).
LARGE_SPARSE = (("dC2", 3), ("dC2", 4), ("loop", 3), ("loop", 4))


def _core_seed(name):
    if name == "loop":
        return 1, [(0, 0)]
    if name.startswith("K"):
        k = int(name[1:])
        return k, both_ways(clique_edges(range(k)))
    if name.startswith("dC"):
        k = int(name[2:])
        return k, [(i, (i + 1) % k) for i in range(k)]
    k = int(name[1:])  # symmetric odd cycle
    return k, both_ways([(i, (i + 1) % k) for i in range(k)])


def dominated_extension(rng, core_n, core_arcs, total):
    """Grow a core by vertices that each retract onto an existing vertex.

    A new vertex v copies a random nonempty part of some vertex s's in- and
    out-arcs, so mapping v to s is a retraction; the core of the result is
    the starting core.
    """
    arcs = set(core_arcs)
    for v in range(core_n, total):
        s = rng.randrange(v)
        outs = [y for (x, y) in arcs if x == s]
        ins = [x for (x, y) in arcs if y == s]
        picked = [(v, y) for y in outs if rng.random() < 0.6] + [(x, v) for x in ins if rng.random() < 0.6]
        if not picked:
            picked = [(v, outs[0])] if outs else [(ins[0], v)]
        arcs.update(picked)
    return permuted(rng, total, sorted(arcs))


def large_setup(hk, rng):
    colouring = []
    for count, (lo, hi), per_vertex, k, kind in LARGE_COLOURING:
        for n in sizes(lo, hi, count):
            m = int(per_vertex * n)
            first = ()
            if kind == "random":
                edges = random_edges(rng, n, m)
            else:
                edges = planted_edges(rng, n, m, k)
                if kind == "planted+K4":
                    first = tuple(rng.sample(range(n), k + 1))
                    edges = sorted(set(edges) | set(clique_edges(sorted(first))))
            colouring.append((n, edges, k, first, kind))
    dags = []
    for n in sizes(100, 200, LARGE_DAGS):
        order = list(range(n))
        rng.shuffle(order)
        rank = {v: i for i, v in enumerate(order)}
        arcs = [(u, v) if rank[u] < rank[v] else (v, u) for u, v in random_edges(rng, n, 2 * n)]
        dags.append((n, sorted(arcs)))
    cyclic = []
    for n, length in zip(sizes(40, 80, LARGE_CYCLIC), (3, 4, 5, 6) * 2):
        ring = rng.sample(range(n), length)
        cycle = {(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))}
        arcs = {(u, v) if rng.random() < 0.5 else (v, u) for u, v in random_edges(rng, n, n)}
        arcs = {(u, v) for u, v in arcs if (v, u) not in cycle} | cycle
        cyclic.append((n, sorted(arcs)))
    cores = []
    for name, total in LARGE_CORES:
        k, core_arcs = _core_seed(name)
        cores.append((k, core_arcs, total, dominated_extension(rng, k, core_arcs, total)))
    sparse = [(name, girth, rng.randrange(1 << 16)) for name, girth in LARGE_SPARSE]
    return {"colouring": colouring, "dags": dags, "cyclic": cyclic, "cores": cores, "sparse": sparse}


def transitive(hk, k):
    return digraph(hk, k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def large_ops(hk, state, memo):
    ops = []
    cliques = {k: digraph(hk, k, both_ways(clique_edges(range(k)))) for k in (3, 4)}
    for idx, (n, edges, k, first, kind) in enumerate(state["colouring"]):
        g = digraph(hk, n, both_ways(edges))
        ops.append(Op(f"hom_exists/K{k}-{kind}", _call(hk.hom_exists, g, cliques[k]),
                      _colouring_check(memo, ("col", idx), n, edges, k, first)))
    for idx, (n, arcs) in enumerate(state["dags"]):
        walk = memo.get(("walk", idx))
        if walk is None:
            walk = memo[("walk", idx)] = ck.longest_walk(n, arcs)
        for k in (walk, walk + 1):
            g = digraph(hk, n, arcs)
            ops.append(Op("hom_exists/dag", _call(hk.hom_exists, g, transitive(hk, k)),
                          _tournament_check(n, arcs, k)))
    for n, arcs in state["cyclic"]:
        g = digraph(hk, n, arcs)
        ops.append(Op("hom_exists/cyclic", _call(hk.hom_exists, g, transitive(hk, 8)), _tournament_check(n, arcs, 8)))
    for k, core_arcs, total, arcs in state["cores"]:
        core = ck.digraph(k, core_arcs)
        ops.append(Op("core_of", _call(hk.core_of, digraph(hk, total, arcs)),
                      lambda res, core=core: ck.isomorphic(plain(res), core)))
    for name, girth, seed in state["sparse"]:
        k, arcs = _core_seed(name)
        params = hk.SparseParams(target_size=2, min_girth=girth, seed=seed)
        a = digraph(hk, k, arcs)
        made = {}

        def replace(a=a, params=params, made=made):
            made["b"] = hk.sparse_replace(a, params)
            return made["b"]

        ops.append(Op("sparse_replace", replace, _sparse_check(memo, k, arcs, girth)))
        ops.append(Op("verify_sparse", lambda a=a, made=made, girth=girth: hk.verify_sparse(a, made["b"], 2, girth),
                      lambda res: res[0] is True and res[1] is None))
    return ops


def _call(fn, *args):
    return lambda: fn(*args)


def _colouring_check(memo, key, n, edges, k, first):
    def check(res):
        want = memo.get(key)
        if want is None:
            want = memo[key] = ck.colouring(n, edges, k, first) is not None
        if res is None:
            return not want
        return want and ck.proper_colouring(edges, res.mapping) and max(res.mapping, default=0) < k

    return check


def _tournament_check(n, arcs, k):
    def check(res):
        want = ck.maps_to_transitive_tournament(n, arcs, k)
        if res is None:
            return not want
        return want and ck.valid_map(ck.digraph(n, arcs), ck.transitive_tournament(k), res.mapping)

    return check


def _sparse_check(memo, k, arcs, girth):
    a = ck.digraph(k, arcs)

    def check(b):
        nb, rels = plain(b)
        fiber = nb // k
        if nb != k * fiber or ck.incidence_girth((nb, rels)) < girth:
            return False
        if not ck.valid_map((nb, rels), a, [x // fiber for x in range(nb)]):
            return False
        for m, target in ck.small_digraphs(2):
            if not m:
                continue
            key = ("small", k, tuple(arcs), m, target)
            want = memo.get(key)
            if want is None:
                want = memo[key] = ck.two_element_hom(k, arcs, m, target)
            if ck.two_element_hom(nb, rels["E"], m, target) != want:
                return False
        return True

    return check


# ---------------------------------------------------------------------------
# languages: forbidden-pattern membership and SNP evaluation
# ---------------------------------------------------------------------------

LANG_THREE_COL = 26  # random graphs, 14 to 26 vertices
LANG_TRIANGLE_FREE = 30  # random digraphs
# one entry per formula: (kind, translations applied).  The kind fixes
# which translations accept the formula, so every seed has the same round size.
LANG_FORMULAS = (
    ((0, ("general", "injective", "full")),) * 4
    + ((1, ("injective",)),) * 2
    + ((2, ("full",)),) * 2
    + ((3, ("general",)),) * 2
)


def three_col_family(hk):
    sig = hk.make_signature([("E", 2), ("C1", 1), ("C2", 1), ("C3", 1)], lift=["C1", "C2", "C3"])
    pats = tuple(
        hk.Lift(hk.Structure(sig, 2, {"E": [(0, 1)], f"C{i}": [(0,), (1,)]}), 1, "none") for i in (1, 2, 3)
    )
    return hk.PatternFamily(sig, pats, "plain", 1)


def triangle_free_family(hk):
    sig = hk.make_signature([("E", 2), ("C", 1)], lift=["C"])
    tri = hk.Lift(hk.Structure(sig, 3, {"E": [(0, 1), (1, 2), (2, 0)], "C": [(0,), (1,), (2,)]}), 1, "partition")
    return hk.PatternFamily(sig, (tri,), "plain", 1)


def random_formula(rng, kind):
    """A random two-clause formula of one kind, as (proof, clauses) checker data.

    kind 0: monotone, monadic, no inequality; 1: adds an inequality;
    2: negates an input atom; 3: has the single binary proof relation Q.
    Every clause mentions both variables x and y in two input atoms and
    decides two distinct proof atoms, so formulas of one kind translate to
    families of about the same size.  Primitivization doubles a clause for
    every proof atom over its variables that it leaves undecided, which is
    why clauses stay on two variables.
    """
    proof = [("Q", 2)] if kind == 3 else [("P", 1), ("Q", 1)]
    variables = ("x", "y")
    pairs = list(itertools.product(variables, repeat=2))
    proof_atoms = [(name, args) for name, arity in proof for args in itertools.product(variables, repeat=arity)]
    clauses = []
    for ci in range(2):
        arcs = [rng.choice(pairs) for _ in range(2)]
        while {v for arc in arcs for v in arc} != set(variables):
            arcs = [rng.choice(pairs) for _ in range(2)]
        atoms = [("E", arc, not (kind == 2 and ci == j == 0)) for j, arc in enumerate(arcs)]
        atoms += [(name, args, rng.random() < 0.5) for name, args in rng.sample(proof_atoms, 2)]
        inequalities = (variables,) if kind == 1 and ci == 0 else ()
        clauses.append((variables, tuple(atoms), inequalities))
    return proof, clauses


def formula_text(formula, name):
    proof, clauses = formula
    parts = [f"snp {name} {{ input {{ E/2 }} proof {{ " + " ".join(f"{p}/{a}" for p, a in proof) + " }"]
    for _, atoms, inequalities in clauses:
        lits = [("" if pos else "!") + f"{sym}({','.join(args)})" for sym, args, pos in atoms]
        lits += [f"{x} != {y}" for x, y in inequalities]
        parts.append(f"clause NOT( {' & '.join(lits)} ) ;")
    return " ".join(parts) + " }"


def small_digraph_classes(max_n):
    """One labelled representative per isomorphism class of digraphs on at most max_n vertices."""
    seen = {}
    for n, arcs in ck.small_digraphs(max_n):
        key = (n, min(tuple(sorted((p[u], p[v]) for u, v in arcs)) for p in itertools.permutations(range(n))))
        seen.setdefault(key, (n, sorted(arcs)))
    return list(seen.values())


def languages_setup(hk, rng):
    # alternately planted 3-colourable (3n edges) and uniform random (4n
    # edges, almost never 3-colourable); nearer the colouring threshold the
    # membership search time spreads over orders of magnitude
    three_col = []
    for i, n in enumerate(sizes(14, 26, LANG_THREE_COL)):
        edges = planted_edges(rng, n, 3 * n, 3) if i % 2 else random_edges(rng, n, 4 * n)
        three_col.append((n, edges))
    tri_free = [(n, random_arcs(rng, n, int(1.5 * n))) for n in sizes(8, 20, LANG_TRIANGLE_FREE)]
    formulas = []
    for i, (kind, cats) in enumerate(LANG_FORMULAS):
        formula = random_formula(rng, kind)
        formulas.append((formula, formula_text(formula, f"f{i}"), cats))
    parsed = [(formula, hk.parse_snp(text), cats) for formula, text, cats in formulas]
    return {"three_col": three_col, "tri_free": tri_free, "formulas": parsed, "small": small_digraph_classes(3)}


def languages_ops(hk, state, memo):
    ops = []
    fam3 = three_col_family(hk)
    for idx, (n, edges) in enumerate(state["three_col"]):
        ops.append(Op("fp_membership/three-col", _call(hk.fp_membership, digraph(hk, n, both_ways(edges)), fam3),
                      _fp_colouring_check(memo, ("fp3", idx), n, edges)))
    tri = triangle_free_family(hk)
    for n, arcs in state["tri_free"]:
        ops.append(Op("fp_membership/triangle-free", _call(hk.fp_membership, digraph(hk, n, arcs), tri),
                      _tri_free_check(n, arcs)))
    small = [(n, arcs, digraph(hk, n, arcs)) for n, arcs in state["small"]]
    translate = {"general": hk.to_lifts_general, "injective": hk.to_lifts_injective, "full": hk.to_lifts_full}
    for fi, (formula, phi, cats) in enumerate(state["formulas"]):
        for cat in cats:
            fams = {}

            def compile_(phi=phi, cat=cat, fams=fams):
                fams["f"] = translate[cat](phi)
                return fams["f"]

            ops.append(Op(f"to_lifts_{cat}", compile_, _family_check(cat, formula)))
            for si, (n, arcs, a) in enumerate(small):
                key = ("snp", fi, si)
                ops.append(Op(f"fp_membership/{cat}", lambda a=a, fams=fams: hk.fp_membership(a, fams["f"]),
                              _snp_check(memo, key, formula, n, arcs)))
                ops.append(Op("eval_snp", _call(hk.eval_snp, phi, a), _snp_check(memo, key, formula, n, arcs)))
    return ops


def _fp_colouring_check(memo, key, n, edges):
    def check(res):
        want = memo.get(key)
        if want is None:
            want = memo[key] = ck.colouring(n, edges, 3) is not None
        if res is None:
            return not want
        colours = _partition_colours(res, n, ("C1", "C2", "C3"))
        return want and colours is not None and res.struct.rel("E") == frozenset(both_ways(edges)) and (
            ck.proper_colouring(edges, colours)
        )

    return check


def _partition_colours(lift, n, names):
    colours = [None] * n
    for ci, name in enumerate(names):
        for (x,) in lift.struct.rel(name):
            if colours[x] is not None:
                return None
            colours[x] = ci
    return None if None in colours else colours


def _tri_free_check(n, arcs):
    def check(res):
        want = not ck.has_closed_3_walk(n, arcs)
        if res is None:
            return not want
        return want and res.struct.rel("E") == frozenset(arcs) and _partition_colours(res, n, ("C",)) is not None

    return check


def _family_check(cat, formula):
    """The family has the category's matching mode and lift arity."""
    mode = {"general": "plain", "injective": "injective", "full": "full"}[cat]
    arity = max(a for _, a in formula[0]) if cat == "general" else 1
    return lambda fam: fam.mode_tag == mode and fam.lift_arity == arity


def _snp_check(memo, key, formula, n, arcs):
    def check(res):
        want = memo.get(key)
        if want is None:
            want = memo[key] = ck.snp_holds(formula, n, arcs)
        return (res is not None and res is not False) == want

    return check


# ---------------------------------------------------------------------------
# constructions: canonical forms, tree duals, finite-union decisions, fv
# ---------------------------------------------------------------------------

# tree_dual of the directed path with 8 arcs fails on every run: the dual
# construction enumerates the full u^arity relation grid over the 2^bits
# candidate sets and refuses the input at RELATION_CAP with
# GuardExceededError, although the correct dual is the transitive
# tournament on 8 elements.  When the construction is mended this op
# passes its check (isomorphic to T_8) and the failed count drops to 0.
FAILING_PATH = 8
DUAL_PATHS = (3, 4, 5, 6)
DUAL_TREES = 6  # random oriented trees, half with 4 vertices and half with 5
CANON_COPIES = 2  # relabelled copies per symmetric structure
PSI_INPUTS = 40  # random digraphs for psi and theta


def random_regular_digraph(rng, n, d):
    """Union of d random derangements with no repeated arc: in- and out-degree d."""
    while True:
        arcs = set()
        ok = True
        for _ in range(d):
            perm = list(range(n))
            rng.shuffle(perm)
            step = {(i, perm[i]) for i in range(n)}
            if any(u == v for u, v in step) or arcs & step:
                ok = False
                break
            arcs |= step
        if ok:
            return sorted(arcs)


def symmetric_structures(rng):
    out = []
    for k in (5, 6, 7):
        out.append((f"K{k}", k, both_ways(clique_edges(range(k)))))
    for k in (5, 6, 7):
        out.append((f"C{k}", k, both_ways([(i, (i + 1) % k) for i in range(k)])))
    for p, q in ((2, 3), (3, 3), (3, 4)):
        out.append((f"K{p},{q}", p + q, both_ways([(i, p + j) for i in range(p) for j in range(q)])))
    for n in (6, 7):
        out.append((f"reg{n}", n, random_regular_digraph(rng, n, 2)))
    return out


def random_oriented_tree(rng, n):
    arcs = []
    for v in range(1, n):
        u = rng.randrange(v)
        arcs.append((u, v) if rng.random() < 0.5 else (v, u))
    return permuted(rng, n, arcs)


def acceptance_families(hk):
    csig = hk.make_signature([("E", 2), ("C1", 1), ("C2", 1)], lift=["C1", "C2"])
    two_col = hk.PatternFamily(csig, tuple(
        hk.Lift(hk.Structure(csig, 2, {"E": [(0, 1)], f"C{i}": [(0,), (1,)]}), 1, "none") for i in (1, 2)
    ), "plain", 1)
    loose = hk.PatternFamily(csig, (
        hk.Lift(hk.Structure(csig, 1, {"E": [(0, 0)], "C1": [(0,)]}), 1, "none"),
        hk.Lift(hk.Structure(csig, 1, {"E": [(0, 0)], "C2": [(0,)]}), 1, "none"),
    ), "plain", 1)
    compiled = hk.to_lifts_general(hk.parse_snp(
        "snp c3 { input { E/2 } proof { C1/1 C2/1 } "
        "clause NOT( E(x,y) & C1(x) & C1(y) ) ; "
        "clause NOT( E(x,y) & C2(x) & C2(y) ) ; "
        "clause NOT( !C1(z) & !C2(z) ) ; }"
    ))
    return [
        ("three-col", three_col_family(hk), True),
        ("two-col", two_col, True),
        ("compiled-two-col", compiled, True),
        ("loose-points", loose, False),  # looped patterns: "no loops" needs unboundedly many colours
        ("triangle-free", triangle_free_family(hk), False),
    ]


def constructions_setup(hk, rng):
    shapes = symmetric_structures(rng)
    copies = [[permuted(rng, n, arcs) for _ in range(CANON_COPIES)] for _, n, arcs in shapes]
    paths = [(k, permuted(rng, k + 1, [(i, i + 1) for i in range(k)])) for k in DUAL_PATHS + (FAILING_PATH,)]
    trees = [(n, random_oriented_tree(rng, n)) for n in (4, 5) * (DUAL_TREES // 2)]
    psi_inputs = [(n, random_arcs(rng, n, 2 * n)) for n in sizes(8, 12, PSI_INPUTS)]
    families = [(name, plain_family(fam), positive) for name, fam, positive in acceptance_families(hk)]
    return {"shapes": shapes, "copies": copies, "paths": paths, "trees": trees, "psi": psi_inputs,
            "families": families, "small": small_digraph_classes(3)}


def plain_family(fam):
    return [plain(p.struct) for p in fam.patterns], [name for name, _ in fam.sig.lift_symbols()]


def constructions_ops(hk, state, memo):
    ops = []
    key_of, shape_of = {}, {}  # within this round: shape index -> key, key -> shape index
    for si, ((shape, n, _), copies) in enumerate(zip(state["shapes"], state["copies"])):
        for copy in copies:
            ops.append(Op(f"canonical_form/{shape}", _call(hk.canonical_form, digraph(hk, n, copy)),
                          _canon_check(key_of, shape_of, si, ck.digraph(n, copy))))
    for k, arcs in state["paths"]:
        expect = hk.GuardExceededError if k == FAILING_PATH else None
        ops.append(Op(f"tree_dual/path{k}", _call(hk.tree_dual, digraph(hk, k + 1, arcs)),
                      lambda d, k=k: ck.isomorphic(plain(d), ck.transitive_tournament(k)), expect))
    for n, arcs in state["trees"]:
        ops.append(Op("tree_dual/tree", _call(hk.tree_dual, digraph(hk, n, arcs)),
                      _dual_check(memo, state["small"], ck.digraph(n, arcs))))
    for (name, fam, positive), (_, (patterns, colours), _) in zip(acceptance_families(hk), state["families"]):
        ops.append(Op("decide_finite_union_csp", _call(hk.decide_finite_union_csp, fam),
                      _decision_check(memo, name, state["small"], patterns, colours, positive)))
    tri = triangle_free_family(hk)
    made = {}

    def basis_():
        made["basis"] = hk.build_basis(tri)
        return made["basis"]

    def gprime_():
        return hk.build_gprime(tri, made["basis"])

    ops.append(Op("build_basis", basis_, _basis_check))
    ops.append(Op("build_gprime", gprime_, lambda g: _gprime_check(memo, state["small"], g)))
    for n, arcs in state["psi"]:
        images = {}

        def psi_(a=digraph(hk, n, arcs), images=images):
            images["b"] = hk.psi(a, made["basis"])
            return images["b"]

        ops.append(Op("psi", psi_, lambda b, n=n, arcs=arcs: _psi_check(b, made["basis"], n, arcs)))
        ops.append(Op("theta", lambda images=images: hk.theta(images["b"], made["basis"]),
                      lambda a, n=n, arcs=arcs: plain(a) == ck.digraph(n, arcs)))
    return ops


def _canon_check(key_of, shape_of, shape, source):
    """The key decodes to a copy of the source, every copy of a shape gets the
    key of its first copy, and no two shapes share a key."""
    def check(key):
        if key[1] != source[0] or not ck.isomorphic((key[1], {"E": frozenset(key[2][0])}), source):
            return False
        return key_of.setdefault(shape, key) == key and shape_of.setdefault(key, shape) == shape

    return check


def _dual_check(memo, small, tree):
    """Duality: T -> A iff A does not map to D, for every digraph with at most 3 vertices."""
    def check(d):
        dual = plain(d)
        key = ("dual", _freeze(tree), _freeze(dual))
        if key not in memo:
            memo[key] = all(
                ck.oracle_hom_exists(tree, ck.digraph(n, arcs)) != ck.oracle_hom_exists(ck.digraph(n, arcs), dual)
                for n, arcs in small
            ) and not ck.oracle_hom_exists(tree, dual)
        return memo[key]

    return check


def _decision_check(memo, name, small, patterns, colours, positive):
    """Templates must give the language on every small digraph; a negative verdict needs a cyclic witness."""
    def check(out):
        if not positive:
            return out.verdict == "not_finite_union" and ck.incidence_girth(plain(out.witness.struct)) < float("inf")
        if out.verdict != "finite_union_csp" or not out.templates:
            return False
        templates = [plain(t) for t in out.templates]
        key = ("decide", name, tuple(map(_freeze, templates)))
        if key not in memo:
            memo[key] = all(
                ck.lift_member(n, arcs, patterns, colours)
                == any(ck.oracle_hom_exists(ck.digraph(n, arcs), t) for t in templates)
                for n, arcs in small
            )
        return memo[key]

    return check


def _freeze(p):
    n, rels = p
    return n, tuple(sorted((k, tuple(sorted(v))) for k, v in rels.items()))


def _basis_check(basis):
    blocks = [plain(b) for b in basis.blocks]
    want = [ck.digraph(2, [(0, 1)]), ck.digraph(3, [(0, 1), (1, 2), (2, 0)])]
    return len(blocks) == 2 and all(any(ck.isomorphic(b, w) for b in blocks) for w in want)


def _psi_check(b, basis, n, arcs):
    """psi records exactly the homomorphisms of each block into the input."""
    nb, rels = plain(b)
    return nb == n and all(
        rels[basis.block_symbol(i)] == ck.hom_rows(plain(blk), ck.digraph(n, arcs))
        for i, blk in enumerate(basis.blocks)
    )


def _gprime_check(memo, small, gfam):
    """Members are forests, and psi(A) avoids them exactly when A has no closed 3-walk.

    psi(A) is rebuilt here from the map table: a symbol of arity 2 holds
    the maps of the single arc, arity 3 those of the directed triangle, and
    the one lift class holds every element.
    """
    members = [plain(p.struct) for p in gfam.patterns]
    if not members or any(ck.incidence_girth(m) < float("inf") for m in members):
        return False
    key = ("gprime", tuple(map(_freeze, members)))
    if key not in memo:
        blocks = {2: ck.digraph(2, [(0, 1)]), 3: ck.digraph(3, [(0, 1), (1, 2), (2, 0)])}
        lift = set(gfam.sig.lift_names)
        ok = True
        for n, arcs in small:
            image = {
                name: frozenset((x,) for x in range(n)) if name in lift else ck.hom_rows(blocks[arity], ck.digraph(n, arcs))
                for name, arity in gfam.sig.symbols
            }
            avoided = not any(ck.oracle_hom_exists(m, (n, image)) for m in members)
            if avoided == ck.has_closed_3_walk(n, arcs):
                ok = False
                break
        memo[key] = ok
    return memo[key]


WORKLOADS = {
    "hom-grid": (grid_setup, grid_ops),
    "hom-large": (large_setup, large_ops),
    "languages": (languages_setup, languages_ops),
    "constructions": (constructions_setup, constructions_ops),
}


def new_rng(seed, workload):
    return random.Random(f"{workload}:{seed}")
