"""Dual templates for forest obstructions, and brute-force duality checking.

For a tree T the dual D is built from T's "merged subtrees": for a tuple e
and a position i, the merged tree at (e, i) is e together with the full
branches hanging off its other coordinates, rooted at coordinate i.  D's
elements are the sets of merged-tree classes that avoid every "root
bundle" (the complete set of merged trees around one element, whose joint
realisability would reassemble T); a relation tuple is admitted unless it
would force a set to contain a whole-T merged tree, and must propagate
merged trees whenever all sub-branch constituents are present.

The canonical map a |-> {merged trees realisable at a} witnesses A -> D
exactly when T does not map to A; `verify_duality` checks the equivalence
exhaustively at small sizes and is the module's acceptance gate.
"""

from __future__ import annotations

import itertools
from collections import deque

from .errors import GuardExceededError, NotATreeError
from .homs import core_of, hom_exists
from .shape import connected_component_elements, shortest_cycle
from .structures import Structure, canonical_form, induced, product

DEFAULT_UNIVERSE_CAP = 1 << 16
RELATION_CAP = 1 << 22


def _components_without_tuple(t: Structure, skip):
    """Element components of t after deleting one tuple (as frozensets)."""
    adj = [[] for _ in range(t.n)]
    for si, tp in t.all_tuples():
        if (si, tp) == skip:
            continue
        elems = sorted(set(tp))
        for u, v in zip(elems, elems[1:]):
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * t.n
    comps = []
    for s in range(t.n):
        if seen[s]:
            continue
        seen[s] = True
        comp = [s]
        q = deque([s])
        while q:
            u = q.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    q.append(w)
        comps.append(frozenset(comp))
    return comps


class _MergedTrees:
    """Merged subtrees of a tree, keyed by (tuple, position)."""

    def __init__(self, t: Structure):
        self.t = t
        self.tuples = sorted(t.all_tuples())
        total_tuples = len(self.tuples)
        self.info = {}  # (tuple_idx, pos) -> ("whole", None) | ("piece", canonical key)
        self.incident = [[] for _ in range(t.n)]  # element -> [(tuple_idx, pos)]
        for ti, (si, tp) in enumerate(self.tuples):
            comp_of = {}
            comps = _components_without_tuple(t, (si, tp))
            for ci, comp in enumerate(comps):
                for x in comp:
                    comp_of[x] = ci
            # tuples other than e sit entirely inside one component
            comp_tuples = [[] for _ in comps]
            for oi, (osi, otp) in enumerate(self.tuples):
                if oi != ti:
                    comp_tuples[comp_of[otp[0]]].append((osi, otp))
            for pos, x in enumerate(tp):
                self.incident[x].append((ti, pos))
                elems = set(tp)
                kept = [(si, tp)]
                for j, y in enumerate(tp):
                    if j != pos:
                        elems |= comps[comp_of[y]]
                        kept += comp_tuples[comp_of[y]]
                if len(elems) == t.n and len(kept) == total_tuples:
                    self.info[(ti, pos)] = ("whole", None)
                    continue
                order = sorted(elems)
                idx = {e: i for i, e in enumerate(order)}
                rels = {}
                for ksi, ktp in kept:
                    rels.setdefault(t.sig.names[ksi], set()).add(tuple(idx[z] for z in ktp))
                sub = Structure(t.sig, len(order), rels)
                root = idx[x]
                colors = [1 if i == root else 0 for i in range(len(order))]
                key = canonical_form(sub, colors)
                self.info[(ti, pos)] = ("piece", key)

    def alphabet(self):
        keys = sorted({key for kind, key in self.info.values() if kind == "piece"})
        return {key: i for i, key in enumerate(keys)}


def tree_dual(t: Structure, universe_cap: int = DEFAULT_UNIVERSE_CAP) -> Structure:
    """A core template D with: A -> D iff T does not map to A (verified elsewhere)."""
    if t.n < 1:
        raise NotATreeError("tree_dual needs a nonempty tree")
    found = shortest_cycle(t)
    if found is not None:
        raise NotATreeError("input contains a cycle", cycle=found[1])
    if len(connected_component_elements(t)) != 1:
        raise NotATreeError("input is a forest but not connected")

    merged = _MergedTrees(t)
    alpha = merged.alphabet()
    nbits = len(alpha)
    if (1 << nbits) > universe_cap:
        raise GuardExceededError(
            f"dual universe needs 2^{nbits} candidates; cap is {universe_cap}"
        )

    def piece_bit(ti, pos):
        kind, key = merged.info[(ti, pos)]
        return None if kind == "whole" else 1 << alpha[key]

    # root bundles: all merged trees around one element; a set containing a
    # complete bundle could reassemble T at that element, so it is excluded
    bundles = set()
    for x in range(t.n):
        bits = 0
        inert = False
        for ti, pos in merged.incident[x]:
            b = piece_bit(ti, pos)
            if b is None:
                inert = True  # bundle mentions whole-T, never containable
                break
            bits |= b
        if not inert:
            bundles.add(bits)

    universe = [s for s in range(1 << nbits) if all((s & b) != b for b in bundles)]
    index_of = {s: i for i, s in enumerate(universe)}

    # per tuple and position: premises (other positions' constituent masks)
    # and the conclusion (required piece bit, or None for the whole-T case)
    conds = {}
    for ti, (si, tp) in enumerate(merged.tuples):
        per_pos = []
        for pos in range(len(tp)):
            premises = []
            for j, y in enumerate(tp):
                if j == pos:
                    continue
                mask = 0
                for tj, jpos in merged.incident[y]:
                    if tj == ti:
                        continue
                    b = piece_bit(tj, jpos)
                    assert b is not None, "branch constituents are always proper pieces"
                    mask |= b
                premises.append((j, mask))
            per_pos.append((premises, piece_bit(ti, pos)))
        conds.setdefault(si, []).append(per_pos)

    rels = {}
    u_count = len(universe)
    for si, (name, arity) in enumerate(t.sig.symbols):
        if si not in conds:
            if u_count ** arity > RELATION_CAP:
                raise GuardExceededError("dual relation grid exceeds the internal cap")
            rels[name] = set(itertools.product(range(u_count), repeat=arity))
            continue
        if u_count ** arity > RELATION_CAP:
            raise GuardExceededError("dual relation grid exceeds the internal cap")
        admitted = set()
        for cand in itertools.product(universe, repeat=arity):
            ok = True
            for per_pos in conds[si]:
                for pos, (premises, conclusion) in enumerate(per_pos):
                    if all((cand[j] & m) == m for j, m in premises):
                        if conclusion is None or not (cand[pos] & conclusion):
                            ok = False
                            break
                if not ok:
                    break
            if ok:
                admitted.add(tuple(index_of[c] for c in cand))
        rels[name] = admitted

    dual = Structure(t.sig, u_count, rels)
    return core_of(_retract_dominated(dual))


def _retract_dominated(a: Structure) -> Structure:
    """Cheap pre-coring: drop y when some x absorbs it (y -> x pointwise).

    Each pass tests every live y against every other live x on the tuples
    of y whose elements are all still live, dropping y at once when one
    absorbs it; passes repeat until one drops nothing, since a removal can
    make an earlier element dominated.
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
                nxt.append(core_of(_retract_dominated(product(d, cd))))
        duals = nxt
    return dedup_hom_equivalent(duals)


def terminal_structure(sig) -> Structure:
    """One point carrying every relation; the unit for obstruction products."""
    return Structure(sig, 1, {name: [(0,) * ar] for name, ar in sig.symbols})


def dedup_hom_equivalent(structures):
    """Keep one representative per CSP: drop members mapping into a kept one."""
    kept = []
    for s in sorted(structures, key=lambda x: (x.n, canonical_form(x)[2])):
        if any(hom_exists(s, k) is not None for k in kept):
            continue
        kept = [k for k in kept if hom_exists(k, s) is None]
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

    Returns (True, None) or (False, counterexample).  The search probes a
    fixed seed list first, then walks the iso-class catalog by size, so a
    shared `cache` dict lets repeated sweeps reuse homomorphism answers.
    """
    from .enumeration import structures_of_size

    forb = list(forb)
    duals = list(duals)
    sig = forb[0].sig if forb else (duals[0].sig if duals else None)
    if sig is None:
        raise ValueError("verify_duality needs at least one structure to fix the signature")
    if cache is None:
        cache = {}
    lhs_memo = cache.setdefault("lhs", {})
    rhs_memo = cache.setdefault("rhs", {})
    forb_key = tuple(forb)

    def lhs(a, key):
        hit = lhs_memo.get((forb_key, key))
        if hit is None:
            hit = all(hom_exists(f, a) is None for f in forb)
            lhs_memo[(forb_key, key)] = hit
        return hit

    def rhs(a, key):
        for d in duals:
            dkey = (key, d)
            hit = rhs_memo.get(dkey)
            if hit is None:
                hit = hom_exists(a, d) is not None
                rhs_memo[dkey] = hit
            if hit:
                return True
        return False

    probes = [f for f in forb if f.n <= max_n] + [d for d in duals if d.n <= max_n]
    probes += _probe_structures(sig, max_n)
    for a in probes:
        key = ("probe", canonical_form(a))
        if lhs(a, key) != rhs(a, key):
            return False, a
    for n in range(max_n + 1):
        for mask, a in structures_of_size(sig, n):
            key = (n, mask)
            if lhs(a, key) != rhs(a, key):
                return False, a
    return True, None
