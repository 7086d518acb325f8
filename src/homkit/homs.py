"""Homomorphism search: existence, enumeration, cores, and images.

Domains are integer bitmasks over the target universe.  Each call first
makes them node consistent (all-equal tuples such as loops), then, on
sources with more than 4 elements, arc consistent over binary tuples by
AC-3 with an element queue (held tuples in every mode, absent pairs in
full mode).  A backtracker then assigns elements in a static order with
forward checking on held binary tuples, and tests what is left (absent
pairs, tuples of arity 3 or more, noncollapse pairs) once the tuple is
fully assigned.

Every search follows one element order per source and mode: most tuples
first, ties by index.  Values are tried in increasing order along it, so
`hom_maps` yields each map once, in lexicographic order of its images read
in that element order, and its first map is the `hom_exists` witness.
Every pruning step removes only values that lie in no solution, so it
changes the speed but never the sequence of maps.

A core is found in two steps.  One retraction pass first drops every
element that another one absorbs pointwise; an element's candidate
absorbers are a bitmask cut down by the target tables' rows of its
binary neighbours.  Then each round makes one search per element x for a
map a -> a - x (the substructure induced on every element but x), made
as a search a -> a with x left out of every domain; the first map found
misses x, and its image, a smaller hom-equivalent substructure, starts
the next round.  A round in which no element can be avoided ends at the
core.
"""

from __future__ import annotations

import itertools

from .errors import GuardExceededError, InvalidStructureError, SignatureMismatchError
from .structures import (
    PLAIN,
    HomMode,
    Homomorphism,
    Structure,
    canonical_form,
    induced,
    quotient,
)


def check_homomorphism(h: Homomorphism) -> tuple[bool, str | None]:
    """Definition-level validation of a witness, independent of the searcher."""
    a, b, m, mode = h.source, h.target, h.mapping, h.mode
    if a.sig != b.sig:
        return False, "signature mismatch"
    if len(m) != a.n:
        return False, f"mapping has {len(m)} entries for a universe of {a.n}"
    if any(not (0 <= v < b.n) for v in m):
        return False, "mapping leaves the target universe"
    for (name, _), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
        for t in ra:
            img = tuple(m[x] for x in t)
            if img not in rb:
                return False, f"{name}-tuple {t} maps to missing {img}"
    if mode.tag == "injective" and len(set(m)) != len(m):
        return False, "mapping is not injective"
    if mode.tag == "full":
        for (name, arity), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
            for t in itertools.product(range(a.n), repeat=arity):
                if (name, t) in mode.free_tuples:
                    continue
                if ((t in ra) != (tuple(m[x] for x in t) in rb)):
                    return False, f"{name}-slot {t} violates full-mode polarity"
    for x, y in mode.noncollapse:
        if m[x] == m[y]:
            return False, f"elements {x},{y} collapse despite a noncollapse constraint"
    return True, None


# ---------------------------------------------------------------------------
# search plans, cached per structure
# ---------------------------------------------------------------------------

# A binary constraint code is 4*symbol + kind.  For target value v, row
# `rows[code][v]` holds the values the partner may take:
#   kind 0: heads of v's out-tuples  (partner is the head of a held tuple)
#   kind 1: tails of v's in-tuples   (partner is the tail of a held tuple)
#   kind 2, 3: the complements of 0 and 1, for absent pairs in full mode
def _target_tables(b: Structure):
    """(relations, support rows by code, all-equal mask per symbol, full mask), cached."""
    tables = b._cache.get("target")
    if tables is not None:
        return tables
    n = b.n
    full_mask = (1 << n) - 1
    rows = []
    self_masks = []
    for (_, arity), r in zip(b.sig.symbols, b.rels):
        if arity == 2:
            out = [0] * n
            inn = [0] * n
            for x, y in r:
                out[x] |= 1 << y
                inn[y] |= 1 << x
            rows += [out, inn, [full_mask ^ m for m in out], [full_mask ^ m for m in inn]]
        else:
            rows += [None] * 4
        self_masks.append(sum(1 << v for v in range(n) if (v,) * arity in r))
    tables = (b.rels, rows, self_masks, full_mask)
    b._cache["target"] = tables
    return tables


def _check_mode(a: Structure, mode: HomMode):
    """Reject noncollapse pairs and free slots that do not fit the source."""
    elems = range(a.n)
    for pair in mode.noncollapse:
        if not (isinstance(pair, tuple) and len(pair) == 2 and all(x in elems for x in pair)):
            raise InvalidStructureError(f"noncollapse pair {pair!r} is not two elements of 0..{a.n - 1}")
    arity = dict(a.sig.symbols)
    for slot in mode.free_tuples:
        name, t = slot if isinstance(slot, tuple) and len(slot) == 2 else (None, None)
        if name not in arity:
            raise InvalidStructureError(f"free slot {slot!r} names no symbol of the signature")
        if not (isinstance(t, tuple) and len(t) == arity[name] and all(x in elems for x in t)):
            raise InvalidStructureError(f"free slot {slot!r} is not a {name}-tuple over 0..{a.n - 1}")


def _push(table, i, item):
    """Append item to table[i], giving the slot its own list on first use."""
    if table[i]:
        table[i].append(item)
    else:
        table[i] = [item]


def _source_plan(a: Structure, mode: HomMode):
    """Compile the source side of a search once per (structure, mode).

    Stage s assigns element order[s].  What each stage enforces:
    - node[x]: all-equal tuples (x, ..., x), folded into x's initial domain;
    - fwd[s]: a held binary tuple with one later coordinate y restricts D(y)
      to rows[code][value] as soon as its earlier coordinate is assigned;
    - checks2[s]: full mode only, absent pairs u != v whose later coordinate
      is assigned at s must not map onto a target tuple;
    - checks[s]: tuples of arity 3 or more, tested once fully assigned;
    - collapse_check[s] / collapse_fwd[s]: noncollapse pairs, checked against
      the earlier partner and pruned from the later partner's domain.
    Sources with more than 4 elements also carry watch lists for the arc
    pass: per element x, the partners and codes revised when D(x) shrinks.
    A plan allocates only what its mode and signature use.  A table that
    stays empty (checks2 outside full mode, checks without a symbol of arity
    3 or more, the collapse tables without noncollapse pairs) is one shared
    tuple of empty tuples.  Full-mode checks2 has a list per stage; in the
    other tables a slot gets a list at its first entry, so outside full mode
    node holds lists only for elements with an all-equal tuple.  Watch lists
    exist for the elements in some tuple, or for all of them in full mode.
    """
    partial = mode.noncollapse or mode.free_tuples
    key = ("plan", mode.tag, mode.noncollapse, mode.free_tuples) if partial else mode.tag
    plan = a._cache.get(key)
    if plan is not None:
        return plan
    _check_mode(a, mode)
    n = a.n
    full = mode.tag == "full"
    deg = [0] * n
    for (_, arity), r in zip(a.sig.symbols, a.rels):
        for t in r:
            for x in (t if arity == 2 and t[0] != t[1] else set(t)):
                deg[x] += 1
    order = sorted(range(n), key=deg.__getitem__, reverse=True)
    stage_of = [0] * n
    for s, x in enumerate(order):
        stage_of[x] = s
    free = {(a.sig.index(name), t) for name, t in mode.free_tuples}

    empty = ((),) * n
    node = [()] * n  # per element: (symbol, present)
    fwd = [()] * n  # per stage: (later element, code)
    checks2 = [[] for _ in range(n)] if full else empty  # per stage: (symbol, u, v) that must stay absent
    checks = [()] * n if any(k > 2 for _, k in a.sig.symbols) else empty  # per stage: (symbol, tuple, present)
    watch = n > 4  # on smaller sources the arc pass costs more than it prunes
    partners = [[] if full or d else () for d in deg] if watch else None
    codes = [[] if full or d else () for d in deg] if watch else None
    for si, (_, arity) in enumerate(a.sig.symbols):
        ra = a.rels[si]
        for x in range(n):
            t = (x,) * arity
            if t in ra or full and (si, t) not in free:
                _push(node, x, (si, t in ra))
        if arity == 2:
            code = 4 * si
            for u, v in ra:
                if u == v:
                    continue
                if stage_of[u] < stage_of[v]:
                    _push(fwd, stage_of[u], (v, code))
                else:
                    _push(fwd, stage_of[v], (u, code + 1))
                if watch:
                    partners[u].append(v)
                    codes[u].append(code)
                    partners[v].append(u)
                    codes[v].append(code + 1)
            if not full:
                continue
            # a free slot waives only the absence requirement: held tuples
            # are always preserved
            for u in range(n):
                for v in range(n):
                    if u == v or (u, v) in ra or (si, (u, v)) in free:
                        continue
                    checks2[max(stage_of[u], stage_of[v])].append((si, u, v))
                    if watch:
                        partners[u].append(v)
                        codes[u].append(code + 2)
                        partners[v].append(u)
                        codes[v].append(code + 3)
        elif arity > 2:
            slots = itertools.product(range(n), repeat=arity) if full else ra
            for t in slots:
                present = t in ra
                if (present or (si, t) not in free) and t.count(t[0]) != arity:
                    _push(checks, max(map(stage_of.__getitem__, t)), (si, t, present))

    collapse_check, collapse_fwd = ([()] * n, [()] * n) if mode.noncollapse else (empty, empty)
    for x, y in mode.noncollapse:
        sx, sy = stage_of[x], stage_of[y]
        if sx > sy:
            x, y, sx, sy = y, x, sy, sx
        _push(collapse_check, sy, x)
        _push(collapse_fwd, sx, y)

    plan = (order, checks2, checks, fwd, node, (partners, codes) if watch else None, collapse_check, collapse_fwd)
    a._cache[key] = plan
    return plan


def _initial_domains(n, plan, tables, avoid):
    """Node-consistent domains, then arc-consistent ones (AC-3); None on a wipe-out.

    No domain holds the target element `avoid`, if one is given.

    AC-3 keeps a queue of elements whose domain shrank; popping x revises
    every watched partner y to D(y) &= OR of rows[code][v] over v in D(x).
    The greatest arc-consistent domains are unique, so the queue order does
    not matter.
    """
    _, rows, self_masks, full_mask = tables
    if avoid is not None:
        full_mask ^= 1 << avoid
    node, watches = plan[4], plan[5]
    doms = []
    for x in range(n):
        d = full_mask
        for si, present in node[x]:
            d &= self_masks[si] if present else ~self_masks[si]
        if d == 0:
            return None
        doms.append(d)
    if watches is None:
        return doms

    partners, codes = watches
    ncodes = len(rows)
    support = {}  # D(x) * ncodes + code -> OR of the code's rows over D(x)
    queue = [x for x in range(n) if partners[x]]
    queued = [True] * n
    while queue:
        x = queue.pop()
        queued[x] = False
        dx = doms[x]
        base = dx * ncodes
        for y, code in zip(partners[x], codes[x]):
            sup = support.get(base + code)
            if sup is None:
                sup = 0
                row = rows[code]
                rest = dx
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    sup |= row[bit.bit_length() - 1]
                support[base + code] = sup
            dy = doms[y]
            nd = dy & sup
            if nd != dy:
                if nd == 0:
                    return None
                doms[y] = nd
                if not queued[y]:
                    queued[y] = True
                    queue.append(y)
    return doms


def hom_maps(a: Structure, b: Structure, mode: HomMode = PLAIN, *, _avoid=None):
    """Every valid map exactly once, as a mapping tuple.

    Maps come in lexicographic order of their images read in the plan's
    element order (most tuples first, ties by index); the first one is the
    `hom_exists` witness.  `_avoid`, a target element, searches into the
    substructure induced on the others without building it.
    """
    if a.sig != b.sig:
        raise SignatureMismatchError(
            f"source and target signatures differ: {a.sig.names} vs {b.sig.names}"
        )
    plan = _source_plan(a, mode)
    n = a.n
    if n == 0:
        yield ()
        return
    if b.n == 0:
        return
    if mode.tag == "injective" and n > b.n:
        return
    order, checks2, checks, fwd, _, _, collapse_check, collapse_fwd = plan
    tables = _target_tables(b)
    doms = _initial_domains(n, plan, tables, _avoid)
    if doms is None:
        return
    rels, rows = tables[0], tables[1]
    injective = mode.tag == "injective"

    val = [-1] * n
    dom_stack = [None] * (n + 1)
    rem = [0] * n
    dom_stack[0] = doms
    rem[0] = doms[order[0]]
    s = 0
    while s >= 0:
        r = rem[s]
        if r == 0:
            s -= 1
            continue
        bit = r & (-r)
        rem[s] = r ^ bit
        v = bit.bit_length() - 1
        x = order[s]
        val[x] = v

        ok = True
        for si, u, w in checks2[s]:
            if (val[u], val[w]) in rels[si]:
                ok = False
                break
        if ok:
            for si, t, present in checks[s]:
                img = tuple(val[z] for z in t)
                if (img in rels[si]) != present:
                    ok = False
                    break
        if ok:
            for y in collapse_check[s]:
                if val[y] == v:
                    ok = False
                    break
        if not ok:
            continue

        if s + 1 == n:
            yield tuple(val)
            continue

        cur = dom_stack[s]
        fwd_s = fwd[s]
        cfwd_s = collapse_fwd[s]
        if fwd_s or cfwd_s or injective:
            new = list(cur)
            wipe = False
            for y, code in fwd_s:
                nd = new[y] & rows[code][v]
                if nd == 0:
                    wipe = True
                    break
                new[y] = nd
            if not wipe and injective:
                mask = ~bit
                for t_s in range(s + 1, n):
                    y = order[t_s]
                    nd = new[y] & mask
                    if nd == 0:
                        wipe = True
                        break
                    new[y] = nd
            if not wipe:
                for y in cfwd_s:
                    nd = new[y] & ~bit
                    if nd == 0:
                        wipe = True
                        break
                    new[y] = nd
            if wipe:
                continue
        else:
            new = cur  # nothing to restrict: share the domain list
        s += 1
        dom_stack[s] = new
        rem[s] = new[order[s]]
    return


def hom_exists(a: Structure, b: Structure, mode: HomMode = PLAIN) -> Homomorphism | None:
    """The first map of `hom_maps`, as a Homomorphism, or None."""
    m = next(hom_maps(a, b, mode), None)
    return None if m is None else Homomorphism(a, b, m, mode)


def all_homs(a: Structure, b: Structure, mode: HomMode = PLAIN):
    """`hom_maps`, in its order, each map wrapped as a Homomorphism."""
    for m in hom_maps(a, b, mode):
        yield Homomorphism(a, b, m, mode)


def _maps_to(a: Structure, b: Structure, mode: HomMode = PLAIN) -> bool:
    """Whether `a` maps to `b`, for callers that need no witness."""
    return next(hom_maps(a, b, mode), None) is not None


def hom_equivalent(a: Structure, b: Structure) -> bool:
    return _maps_to(a, b) and _maps_to(b, a)


# ---------------------------------------------------------------------------
# cores and homomorphic images
# ---------------------------------------------------------------------------

def _retract_dominated(a: Structure) -> Structure:
    """Cheap pre-coring: drop y when some x absorbs it (y -> x pointwise).

    y's candidate absorbers are the other live elements that every tuple of
    y over live elements admits in y's place, one bitmask AND per binary
    neighbour (a row of the target tables) or all-equal tuple (its mask);
    tuples of arity 3 or more are tested on the candidates left.  A pass
    drops y at once when a candidate survives, and passes repeat until one
    drops nothing, since a removal can make an earlier element dominated.
    """
    n = a.n
    rels, rows, self_masks, full = _target_tables(a)
    fixed = [full] * n  # AND of the masks of y's all-equal tuples
    binary = [[] for _ in range(n)]  # (neighbour z, row of the x that may replace y next to z)
    wide = [[] for _ in range(n)]  # (relation, tuple) of arity 3 or more, not all-equal
    for si, (_, arity) in enumerate(a.sig.symbols):
        for t in rels[si]:
            if t.count(t[0]) == arity:
                fixed[t[0]] &= self_masks[si]
            elif arity == 2:
                u, v = t
                binary[u].append((v, rows[4 * si + 1][v]))
                binary[v].append((u, rows[4 * si][u]))
            else:
                for x in set(t):
                    wide[x].append((rels[si], t))
    live, alive = full, [True] * n
    changed = True
    while changed:
        changed = False
        for y in range(n):
            if not alive[y]:
                continue
            cands = live & fixed[y] & ~(1 << y)
            for z, row in binary[y]:
                if alive[z]:
                    cands &= row
            incident = [(rel, t) for rel, t in wide[y] if all(map(alive.__getitem__, t))]
            while cands and incident:
                x = (cands & -cands).bit_length() - 1
                if all(tuple(x if z == y else z for z in t) in rel for rel, t in incident):
                    break
                cands &= cands - 1
            if cands:
                alive[y] = False
                live ^= 1 << y
                changed = True
    return induced(a, [z for z in range(n) if alive[z]])


def _shrinking_endo(a: Structure):
    """A non-surjective endomorphism of `a` as a list, or None if `a` is a core.

    One search per element x for a map a -> a - x: the map a -> a with x
    left out of every domain, which tries values in the order the induced
    substructure would, so it finds the same first map in `a`'s numbering.
    """
    for x in range(a.n):
        m = next(hom_maps(a, a, _avoid=x), None)
        if m is not None:
            return list(m)
    return None


def is_core(a: Structure) -> bool:
    """True iff every endomorphism of `a` is an automorphism."""
    return _shrinking_endo(a) is None


def core_of(a: Structure) -> Structure:
    """The unique (up to isomorphism) hom-equivalent core substructure."""
    current = _retract_dominated(a)
    while True:
        endo = _shrinking_endo(current)
        if endo is None:
            return current
        current = induced(current, endo)


def _set_partitions(n: int, apart=()):
    """All partitions of range(n) as restricted-growth assignment lists.

    No class holds both elements of a pair in `apart` (pairs are
    unordered): the walk cuts a prefix off as soon as it puts such a pair
    in one class.  Partitions come in lexicographic order of their lists,
    each with its number of classes.
    """
    earlier = [[] for _ in range(n)]
    for x, y in apart:
        earlier[max(x, y)].append(min(x, y))
    assign = [0] * n

    def rec(i, m):
        if i == n:
            yield list(assign), m
            return
        for c in range(m + 1):
            assign[i] = c
            if all(assign[j] != c for j in earlier[i]):
                yield from rec(i + 1, max(m, c + 1))

    yield from rec(0, 0)


def hom_images(a: Structure, max_n: int = 9):
    """All surjective homomorphic images of `a`, up to isomorphism.

    Images are quotients by element partitions; includes `a` itself.
    """
    if a.n > max_n:
        raise GuardExceededError(f"hom_images on {a.n} elements exceeds the cap of {max_n}")
    seen = {}
    for assign, m in _set_partitions(a.n):
        q = quotient(a, assign, m)
        key = canonical_form(q)
        if key not in seen:
            seen[key] = q
    return sorted(seen.values(), key=lambda s: (s.n, canonical_form(s)[2]))
