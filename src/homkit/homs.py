"""Homomorphism search: existence, enumeration, cores, and images.

The searcher is a backtracker over element assignments with forward
checking on binary tuples, preceded by node consistency and a pairwise
arc-consistency prefilter.  Domains are integer bitmasks over the target
universe; all orders are static, so results are deterministic.
"""

from __future__ import annotations

import itertools

from .errors import GuardExceededError, SignatureMismatchError
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

def _target_tables(b: Structure):
    tables = b._cache.get("target")
    if tables is not None:
        return tables
    n = b.n
    full_mask = (1 << n) - 1 if n else 0
    per_sym = []
    for (name, arity), r in zip(b.sig.symbols, b.rels):
        out = inn = None
        nz_out = nz_inn = nfull_out = nfull_inn = 0
        if arity == 2:
            out = [0] * n
            inn = [0] * n
            for (x, y) in r:
                out[x] |= 1 << y
                inn[y] |= 1 << x
            for v in range(n):
                if out[v]:
                    nz_out |= 1 << v
                if out[v] != full_mask:
                    nfull_out |= 1 << v
                if inn[v]:
                    nz_inn |= 1 << v
                if inn[v] != full_mask:
                    nfull_inn |= 1 << v
        self_mask = 0
        for v in range(n):
            if (v,) * arity in r:
                self_mask |= 1 << v
        per_sym.append((r, out, inn, self_mask, nz_out, nz_inn, nfull_out, nfull_inn))
    tables = (per_sym, full_mask)
    b._cache["target"] = tables
    return tables


def _source_plan(a: Structure, mode: HomMode, natural: bool):
    if mode.noncollapse or mode.free_tuples:
        key = ("plan", mode.tag, natural, mode.noncollapse, mode.free_tuples)
    else:
        key = (mode.tag, natural)
    plan = a._cache.get(key)
    if plan is not None:
        return plan
    n = a.n
    tuples = [(si, t) for si, t in a.all_tuples()]
    deg = [0] * n
    for _, t in tuples:
        for x in set(t):
            deg[x] += 1
    if natural:
        order = list(range(n))
    else:
        order = sorted(range(n), key=lambda x: (-deg[x], x))
    stage_of = [0] * n
    for s, x in enumerate(order):
        stage_of[x] = s

    free = {(a.sig.index(name), t) for name, t in mode.free_tuples}

    # per-stage tuple checks, fired once every coordinate is assigned;
    # binary tuples get a specialised entry to avoid generic tuple building
    checks2 = [[] for _ in range(n)]
    checks = [[] for _ in range(n)]

    def add_check(si, t, present):
        trigger = max(stage_of[x] for x in t)
        if len(t) == 2:
            checks2[trigger].append((si, t[0], t[1], present))
        else:
            checks[trigger].append((si, t, present))

    if mode.tag == "full":
        # a free slot waives only the absence requirement: held tuples are
        # always preserved
        for si, (_, arity) in enumerate(a.sig.symbols):
            ra = a.rels[si]
            for t in itertools.product(range(n), repeat=arity):
                if t in ra or (si, t) not in free:
                    add_check(si, t, t in ra)
    else:
        for si, t in tuples:
            add_check(si, t, True)

    # forward restrictions for binary tuples with one later coordinate
    fwd = [[] for _ in range(n)]
    for si, t in tuples:
        if len(t) != 2:
            continue
        u, v = t
        if u == v:
            continue
        if stage_of[u] < stage_of[v]:
            fwd[stage_of[u]].append((v, si, 0))  # D(v) &= out[val(u)]
        else:
            fwd[stage_of[v]].append((u, si, 1))  # D(u) &= inn[val(v)]

    # node constraints: all-equal tuples per element and symbol
    node = [[] for _ in range(n)]  # per element: (si, present)
    for si, (_, arity) in enumerate(a.sig.symbols):
        ra = a.rels[si]
        for x in range(n):
            t = (x,) * arity
            present = t in ra
            if present or (mode.tag == "full" and (si, t) not in free):
                node[x].append((si, present))

    # pairwise constraints for the arc-consistency prefilter
    arcs = []
    seen = set()
    for si, t in tuples:
        if len(t) == 2 and t[0] != t[1] and (si, t) not in seen:
            seen.add((si, t))
            arcs.append((t[0], t[1], si, True))
    if mode.tag == "full":
        for si, (_, arity) in enumerate(a.sig.symbols):
            if arity != 2:
                continue
            ra = a.rels[si]
            for u in range(n):
                for v in range(n):
                    if u != v and (u, v) not in ra and (si, (u, v)) not in free:
                        arcs.append((u, v, si, False))

    # noncollapse pairs: check against the earlier partner when the later one
    # is assigned, and prune the later partner's domain when the earlier one is
    collapse_check = [[] for _ in range(n)]
    collapse_fwd = [[] for _ in range(n)]
    for x, y in mode.noncollapse:
        sx, sy = stage_of[x], stage_of[y]
        if sx > sy:
            x, y, sx, sy = y, x, sy, sx
        collapse_check[sy].append(x)
        collapse_fwd[sx].append(y)

    plan = (order, stage_of, (checks2, checks), fwd, node, arcs, collapse_check, collapse_fwd)
    a._cache[key] = plan
    return plan


def _initial_domains(a, b, mode, plan):
    per_sym, full_mask = _target_tables(b)
    node, arcs = plan[4], plan[5]
    doms = []
    for x in range(a.n):
        d = full_mask
        for si, present in node[x]:
            sm = per_sym[si][3]
            d &= sm if present else (full_mask & ~sm)
        if d == 0:
            return None
        doms.append(d)

    # pairwise arc consistency: revise both endpoints per constraint until
    # a full pass leaves every domain unchanged; full partner domains only
    # need the precomputed nonzero/nonfull row masks
    changed = bool(arcs)
    while changed:
        changed = False
        for u, v, si, positive in arcs:
            entry = per_sym[si]
            out, inn = entry[1], entry[2]
            dv = doms[v]
            du = doms[u]
            if positive:
                if dv == full_mask:
                    new = du & entry[4]
                else:
                    new = 0
                    rest = du
                    while rest:
                        bit = rest & (-rest)
                        rest ^= bit
                        if out[bit.bit_length() - 1] & dv:
                            new |= bit
            elif dv == full_mask:
                new = du & entry[6]
            else:
                new = 0
                rest = du
                while rest:
                    bit = rest & (-rest)
                    rest ^= bit
                    if ~out[bit.bit_length() - 1] & dv:
                        new |= bit
            if new != du:
                if new == 0:
                    return None
                doms[u] = new
                du = new
                changed = True
            dv0 = dv
            if positive:
                if du == full_mask:
                    new = dv0 & entry[5]
                else:
                    new = 0
                    rest = dv0
                    while rest:
                        bit = rest & (-rest)
                        rest ^= bit
                        if inn[bit.bit_length() - 1] & du:
                            new |= bit
            elif du == full_mask:
                new = dv0 & entry[7]
            else:
                new = 0
                rest = dv0
                while rest:
                    bit = rest & (-rest)
                    rest ^= bit
                    if ~inn[bit.bit_length() - 1] & du:
                        new |= bit
            if new != dv0:
                if new == 0:
                    return None
                doms[v] = new
                changed = True
    return doms


def _run_search(a: Structure, b: Structure, mode: HomMode, natural: bool):
    """Yield every valid mapping (as a tuple), in the plan's order."""
    if a.sig != b.sig:
        raise SignatureMismatchError(
            f"source and target signatures differ: {a.sig.names} vs {b.sig.names}"
        )
    n = a.n
    if n == 0:
        yield ()
        return
    if b.n == 0:
        return
    if mode.tag == "injective" and n > b.n:
        return
    plan = _source_plan(a, mode, natural)
    order, _, (checks2, checks), fwd, _, _, collapse_check, collapse_fwd = plan
    doms = _initial_domains(a, b, mode, plan)
    if doms is None:
        return
    per_sym, _ = _target_tables(b)
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
        for si, u, w, present in checks2[s]:
            if ((val[u], val[w]) in per_sym[si][0]) != present:
                ok = False
                break
        if ok:
            for si, t, present in checks[s]:
                img = tuple(val[z] for z in t)
                if (img in per_sym[si][0]) != present:
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
            for y, si, direction in fwd_s:
                row = per_sym[si][1][v] if direction == 0 else per_sym[si][2][v]
                nd = new[y] & row
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
    """First homomorphism found under the static search order, or None."""
    for m in _run_search(a, b, mode, natural=False):
        return Homomorphism(a, b, m, mode)
    return None


def hom_maps(a: Structure, b: Structure, mode: HomMode = PLAIN):
    """Every valid map exactly once, as a mapping tuple, in lexicographic order."""
    yield from _run_search(a, b, mode, natural=True)


def all_homs(a: Structure, b: Structure, mode: HomMode = PLAIN):
    """`hom_maps`, each map wrapped as a Homomorphism."""
    for m in hom_maps(a, b, mode):
        yield Homomorphism(a, b, m, mode)


def hom_equivalent(a: Structure, b: Structure) -> bool:
    return hom_exists(a, b) is not None and hom_exists(b, a) is not None


# ---------------------------------------------------------------------------
# cores and homomorphic images
# ---------------------------------------------------------------------------

def _collapse_map(n: int, x: int, y: int):
    """Surjection 0..n-1 -> 0..n-2 identifying y with x (x < y)."""
    m = []
    for z in range(n):
        if z == y:
            z = x
        m.append(z - 1 if z > y else z)
    return m


def _find_collapse(a: Structure):
    """A non-injective endomorphism of `a`, or None if every one is bijective."""
    for x in range(a.n):
        for y in range(x + 1, a.n):
            cmap = _collapse_map(a.n, x, y)
            q = quotient(a, cmap, a.n - 1)
            h = hom_exists(q, a)
            if h is not None:
                return [h.mapping[c] for c in cmap]
    return None


def is_core(a: Structure) -> bool:
    """True iff every endomorphism of `a` is an automorphism."""
    return _find_collapse(a) is None


def core_of(a: Structure) -> Structure:
    """The unique (up to isomorphism) hom-equivalent core substructure."""
    current = a
    while True:
        endo = _find_collapse(current)
        if endo is None:
            return current
        current = induced(current, set(endo))


def _set_partitions(n: int):
    """All partitions of range(n) as restricted-growth assignment lists."""
    if n == 0:
        yield [], 0
        return
    assign = [0] * n

    def rec(i, maxcls):
        if i == n:
            yield list(assign), maxcls + 1
            return
        for c in range(maxcls + 2):
            assign[i] = c
            yield from rec(i + 1, max(maxcls, c))

    yield from rec(1, 0)


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
