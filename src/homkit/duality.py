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

D's relations are never listed.  The maps are numbered in mixed radix,
in `itertools.product` order, so each cylinder cyl(x, e) = {f : f(x) = e}
is a periodic |D|-bit integer, and R^D is D^r minus the union over the
R-tuples e of the products of the cyl(u_i, e).  The retraction of
`homs._retract_dominated` runs on those masks, and only its survivors are
built as a structure.
"""

from __future__ import annotations

import itertools
import math

from .enumeration import _sweep
from .errors import GuardExceededError, NotATreeError
from .homs import _core_of_retracted, _maps_to, core_of
from .shape import connected_component_elements, shortest_cycle
from .structures import Structure, _trusted_structure, canonical_form, induced, product

DEFAULT_UNIVERSE_CAP = 1 << 16


def tree_dual(t: Structure, universe_cap: int = DEFAULT_UNIVERSE_CAP) -> Structure:
    """The core of the Nešetřil–Tardif dual D of the tree T: A -> D iff T does not map to A.

    D has one element per map sending each element of T to a tuple that
    contains it, so it has the product over T's elements of their tuple
    counts.  `universe_cap` bounds that count, taken before D is cut down
    to its core; it is the width of the masks below, and time grows with
    its square: a pass costs O(|D|·|T|) operations on |D|-bit integers
    (more for symbols of arity 3 or more), about 1.3 s at |D| = 26,244.
    No relation of D is listed, so nothing else is capped.

    D's elements are retracted as in `homs._retract_dominated` (y in
    ascending order, dropped at once when some live x absorbs it, passes
    repeated until one drops nothing), with each relation held as D^r
    minus a union of cylinder products.  Only the survivors, in ascending
    order, are built, and their core is returned: the same structure as
    `core_of` of all of D.
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
    dual = _CylinderDual(t, tuples, incident, size)
    keep = dual.retract()
    return _core_of_retracted(_trusted_structure(t.sig, len(keep), dual.relations(keep)))


class _CylinderDual:
    """The dual D of a tree, with every relation held as D^r minus cylinder products.

    Map f of D is the mixed-radix number of its choices, the last element
    of T varying fastest, so `cyl[x][ti]`, the mask of the maps sending x
    to tuple ti, repeats one block of ones with a fixed period.
    """

    def __init__(self, t, tuples, incident, size):
        self.size = size
        self.full = full = (1 << size) - 1
        cyl = [{} for _ in range(t.n)]
        stride = 1
        for x in reversed(range(t.n)):
            period = stride * len(incident[x])
            for digit, ti in enumerate(incident[x]):
                mask, width = ((1 << stride) - 1) << (digit * stride), period
                while width < size:  # double the pattern up to |D| bits
                    mask |= mask << width
                    width *= 2
                cyl[x][ti] = mask & full
            stride = period

        def meet(ti, tp, positions):
            mask = full
            for i in positions:
                mask &= cyl[tp[i]][ti]
            return mask

        self.cyl = cyl
        self.symbols = []  # (arity, [(tuple index, tuple)]) per symbol
        # The tests of the retraction, for the symbols that T uses.
        # `self_blocked`: per symbol, the maps whose all-equal tuple is
        # blocked.  For each symbol and proper nonempty set P of positions,
        # one list with an entry per tuple e: the meet over P of e's
        # cylinders, then e's cylinder at the one other position (`pairs`)
        # or its list of cylinders there (`walks`).
        self.self_blocked, self.pairs, self.walks = [], [], []
        for si, (_, arity) in enumerate(t.sig.symbols):
            ets = [(ti, tp) for ti, (s, tp) in enumerate(tuples) if s == si]
            self.symbols.append((arity, ets))
            if not ets:
                continue
            self_blocked = 0
            for ti, tp in ets:
                self_blocked |= meet(ti, tp, range(arity))
            self.self_blocked.append(self_blocked)
            for bits in range(1, (1 << arity) - 1):
                pos = [i for i in range(arity) if bits >> i & 1]
                rest = [i for i in range(arity) if not bits >> i & 1]
                if len(rest) == 1:
                    self.pairs.append([(meet(ti, tp, pos), cyl[tp[rest[0]]][ti]) for ti, tp in ets])
                else:
                    self.walks.append([(meet(ti, tp, pos), [cyl[tp[q]][ti] for q in rest]) for ti, tp in ets])

    def retract(self):
        """The maps left by the retraction of `homs._retract_dominated`, ascending."""
        live = self.full
        changed = True
        while changed:
            changed = False
            for y in range(self.size):
                bit = 1 << y
                if live & bit and self._absorbed(y, live ^ bit):
                    live ^= bit
                    changed = True
        return [y for y in range(self.size) if live >> y & 1]

    def _absorbed(self, y, others):
        """Whether some x in `others` takes y's place in every tuple of y over y and `others`.

        For a tuple e of T and the set P of positions that y holds in a
        tuple of D, x fails when it lies in e's cylinders at P and some
        tuple with y at P and its other entries in `others` and in e's
        cylinders there is not blocked.  The tuples that can block such a
        tuple are those whose cylinders at P all hold y.
        """
        cands, bit = others, 1 << y
        for self_blocked in self.self_blocked:
            if not self_blocked & bit:  # y's all-equal tuple is related
                cands &= ~self_blocked
        for tests in self.pairs:
            row = others  # the entries at the other position that y's tuples admit
            for meet, cyl in tests:
                if meet & bit:
                    row &= ~cyl
            for meet, cyl in tests:
                if cands & meet and row & cyl:
                    cands &= ~meet
                    if not cands:
                        return False
        for tests in self.walks:
            blockers = [cyls for meet, cyls in tests if meet & bit]
            for meet, cyls in tests:
                if cands & meet and _unblocked([others & c for c in cyls], blockers):
                    cands &= ~meet
                    if not cands:
                        return False
        return cands != 0

    def relations(self, keep):
        """D's relations induced on the maps `keep`, renumbered in list order."""
        rels = []
        for arity, ets in self.symbols:
            blocked = set()
            for ti, tp in ets:
                cyls = [self.cyl[u][ti] for u in tp]
                blocked.update(itertools.product(*([i for i, f in enumerate(keep) if c >> f & 1] for c in cyls)))
            rels.append(frozenset(itertools.product(range(len(keep)), repeat=arity)) - blocked)
        return tuple(rels)


def _unblocked(choices, blockers) -> bool:
    """Whether one entry from each mask of `choices` escapes every blocker.

    A blocker is one mask per position and blocks the entries that all lie
    in it.  At the last position this is a mask difference; before it, the
    first position's members are walked, each keeping the blockers it meets.
    """
    if not blockers:
        return all(choices)
    if len(choices) == 1:
        mask = choices[0]
        for cyls in blockers:
            mask &= ~cyls[0]
        return mask != 0
    mask = choices[0]
    while mask:
        low = mask & -mask
        mask ^= low
        if _unblocked(choices[1:], [cyls[1:] for cyls in blockers if cyls[0] & low]):
            return True
    return False


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
