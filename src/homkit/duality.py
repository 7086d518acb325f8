"""Dual templates for forest obstructions, and brute-force duality checking.

For a tree T the dual D is the direct construction of Nešetřil and Tardif
("Duality theorems for finite structures", JCTB 2000).  D's elements are
the maps f sending each element x of T to one tuple of T that contains x.
A tuple (f_1, ..., f_r) is in R^D unless some R-tuple e = (u_1, ..., u_r)
of T has f_i(u_i) = e at every position i: D may not hold a copy of e in
which every element points at e itself.

If T maps to A, a map A -> D would point each of T's n elements at a
tuple containing it.  In a tree the tuple sizes less one sum to n - 1, so
some tuple has every one of its elements pointing at it, and its image in
D is blocked.  If T does not map to A, send each a in A to the map
pointing every x at a smallest branch of T at x (a tuple with everything
hanging off its other elements) that has no homomorphism to A sending x
to a; that is a homomorphism A -> D.  `verify_duality` checks the
equivalence exhaustively at small sizes and is the module's acceptance
gate.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .enumeration import _sweep
from .errors import GuardExceededError, NotATreeError
from .homs import _maps_to, core_of
from .shape import connected_component_elements, shortest_cycle
from .structures import Structure, canonical_form, induced, product

DEFAULT_UNIVERSE_CAP = 1 << 16
RELATION_CAP = 1 << 22


def tree_dual(t: Structure, universe_cap: int = DEFAULT_UNIVERSE_CAP) -> Structure:
    """The core of the Nešetřil–Tardif dual D of the tree T: A -> D iff T does not map to A.

    D has one element per map sending each element of T to a tuple that
    contains it, so it has the product over T's elements of their tuple
    counts; `universe_cap` bounds that count, taken before D is cut down to
    its core, and `RELATION_CAP` bounds each relation grid u^arity.
    """
    if t.n < 1:
        raise NotATreeError("tree_dual needs a nonempty tree")
    found = shortest_cycle(t)
    if found is not None:
        raise NotATreeError("input contains a cycle", cycle=found[1])
    if len(connected_component_elements(t)) != 1:
        raise NotATreeError("input is a forest but not connected")

    tuples = sorted(t.all_tuples())
    incident = [[] for _ in range(t.n)]
    for ti, (_, tp) in enumerate(tuples):
        for x in tp:
            incident[x].append(ti)
    size = math.prod(len(inc) for inc in incident)
    if size > universe_cap:
        raise GuardExceededError(f"dual universe needs {size} elements; cap is {universe_cap}")
    # funcs[f, x] is the index of the tuple that map f sends x to
    funcs = np.array(list(itertools.product(*incident)), dtype=np.int64).reshape(size, t.n)

    rels = {}
    for si, (name, arity) in enumerate(t.sig.symbols):
        if size**arity > RELATION_CAP:
            raise GuardExceededError("dual relation grid exceeds the internal cap")
        blocked = np.zeros((size,) * arity, dtype=bool)
        for ti, (tsi, tp) in enumerate(tuples):
            if tsi == si:  # block every tuple of maps pointing each u_i at this tuple
                blocked[np.ix_(*(funcs[:, x] == ti for x in tp))] = True
        rels[name] = np.argwhere(~blocked).tolist()

    return core_of(Structure(t.sig, size, rels))


def forest_family_duals(family, universe_cap: int = DEFAULT_UNIVERSE_CAP, product_cap: int = 4096):
    """Templates whose CSP-union equals avoidance of every forest in `family`.

    One dual per choice of a connected component from each obstruction,
    multiplied together; results are core-reduced and deduplicated up to
    homomorphism equivalence.
    """
    family = list(family)
    if not family:
        raise ValueError("empty family needs an explicit signature; use terminal_structure")
    sig = family[0].sig
    for f in family:
        found = shortest_cycle(f)
        if found is not None:
            raise NotATreeError(f"obstruction {f!r} contains a cycle", cycle=found[1])
    duals = [terminal_structure(sig)]
    for f in family:
        comps = connected_component_elements(f)
        if not comps:  # the empty structure maps everywhere: nothing qualifies
            return []
        comp_duals = [tree_dual(induced(f, c), universe_cap) for c in comps]
        nxt = []
        for d in duals:
            for cd in comp_duals:
                if d.n * cd.n > product_cap:
                    raise GuardExceededError("dual product exceeds the product cap")
                nxt.append(core_of(product(d, cd)))
        duals = nxt
    return dedup_hom_equivalent(duals)


def terminal_structure(sig) -> Structure:
    """One point carrying every relation; the unit for obstruction products."""
    return Structure(sig, 1, {name: [(0,) * ar] for name, ar in sig.symbols})


def dedup_hom_equivalent(structures):
    """Keep one representative per CSP: drop members mapping into a kept one."""
    kept = []
    for s in sorted(structures, key=lambda x: (x.n, canonical_form(x)[2])):
        if any(_maps_to(s, k) for k in kept):
            continue
        kept = [k for k in kept if not _maps_to(k, s)]
        kept.append(s)
    return kept


def _probe_structures(sig, max_n):
    """Deterministic probe set checked before the exhaustive sweep."""
    probes = [Structure(sig, 0), Structure(sig, 1), terminal_structure(sig)]
    binary = [name for name, ar in sig.symbols if ar == 2]
    for name in binary:
        for k in range(1, max_n):
            probes.append(Structure(sig, k + 1, {name: [(i, i + 1) for i in range(k)]}))
        for k in range(2, max_n + 1):
            probes.append(Structure(sig, k, {name: [(i, (i + 1) % k) for i in range(k)]}))
        for k in range(3, max_n + 1):
            arcs = []
            for i in range(k):
                arcs += [(i, (i + 1) % k), ((i + 1) % k, i)]
            probes.append(Structure(sig, k, {name: arcs}))
    return [p for p in probes if p.n <= max_n]


def verify_duality(forb, duals, max_n: int, cache=None):
    """Exhaustively check: [no F maps to A] iff [A maps to some dual], |A| <= max_n.

    Returns (True, None) or (False, counterexample).  The obstructions,
    the duals and a fixed probe list go first, then the iso-class catalog
    by size; a shared `cache` dict lets repeated sweeps reuse answers.
    """
    forb = list(forb)
    duals = list(duals)
    sig = forb[0].sig if forb else (duals[0].sig if duals else None)
    if sig is None:
        raise ValueError("verify_duality needs at least one structure to fix the signature")
    seeds = forb + duals + _probe_structures(sig, max_n)
    return _sweep(
        sig, lambda a: not any(_maps_to(f, a) for f in forb), tuple(forb), duals, max_n, seeds, cache
    )
