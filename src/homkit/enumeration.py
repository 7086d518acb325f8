"""Catalogs of all structures with a given universe size, up to isomorphism.

A structure over signature sigma with universe 0..n-1 is a subset of the
ordered "slots" (symbol, tuple); the symmetric group acts on slot masks by
relabeling.  A mask is the chosen representative of its class iff it is
the numeric minimum of its orbit, which a vectorized filter checks per
permutation.  Catalogs of masks are cached per (signature, n); Structure
objects are built lazily.  `_sweep` walks the catalog for the brute-force
verifiers of duality and shadow duality.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import GuardExceededError
from .homs import _maps_to
from .shape import shortest_cycle
from .structures import Signature, Structure, canonical_form

MAX_BITS = 26
MAX_PERM_N = 8


def tuple_slots(sig: Signature, n: int):
    """Ordered bit positions: per symbol, all tuples in lexicographic order."""
    slots = []
    for si, (_, arity) in enumerate(sig.symbols):
        for t in itertools.product(range(n), repeat=arity):
            slots.append((si, t))
    return slots


def structure_from_mask(sig: Signature, n: int, slots, mask: int) -> Structure:
    rels = {}
    m = int(mask)
    while m:
        bit = m & (-m)
        m ^= bit
        si, t = slots[bit.bit_length() - 1]
        rels.setdefault(sig.names[si], []).append(t)
    return Structure(sig, n, rels)


def _slot_groups(sig, n, slots, symmetric):
    """Group slots that are toggled together; singletons unless symmetric.

    With `symmetric`, binary tuples (x, y) and (y, x) form one group, so the
    catalog ranges over symmetric structures only.
    """
    index = {s: i for i, s in enumerate(slots)}
    if not symmetric:
        return [(i,) for i in range(len(slots))]
    groups = []
    seen = set()
    for i, (si, t) in enumerate(slots):
        if i in seen:
            continue
        if len(t) == 2:
            j = index[(si, (t[1], t[0]))]
            if j == i:
                groups.append((i,))
            else:
                groups.append((i, j))
                seen.add(j)
        else:
            groups.append((i,))
        seen.add(i)
    return groups


def _group_perms(sig, n, slots, groups):
    """The action of S_n on group indices, one array per permutation."""
    slot_index = {s: i for i, s in enumerate(slots)}
    group_of_slot = {}
    for gi, g in enumerate(groups):
        for s in g:
            group_of_slot[s] = gi
    perms = []
    for p in itertools.permutations(range(n)):
        gmap = [0] * len(groups)
        for gi, g in enumerate(groups):
            si, t = slots[g[0]]
            moved = slot_index[(si, tuple(p[x] for x in t))]
            gmap[gi] = group_of_slot[moved]
        perms.append(tuple(gmap))
    return perms


def _byte_tables(bitmap, nbits):
    """Byte-indexed lookup tables realizing a bit permutation on masks."""
    nbytes = (nbits + 7) // 8
    tables = []
    for k in range(nbytes):
        tab = np.zeros(256, dtype=np.uint32)
        for byte in range(256):
            acc = 0
            b = byte
            while b:
                low = b & (-b)
                b ^= low
                src = 8 * k + low.bit_length() - 1
                if src < nbits:
                    acc |= 1 << bitmap[src]
            tab[byte] = acc
        tables.append(tab)
    return tables


def _canonical_masks(nbits, perms):
    """All masks that are the numeric minimum of their orbit, ascending."""
    total = 1 << nbits
    chunk = 1 << 22
    tables = [_byte_tables(p, nbits) for p in perms if tuple(p) != tuple(range(nbits))]
    survivors = []
    for start in range(0, total, chunk):
        arr = np.arange(start, min(start + chunk, total), dtype=np.uint32)
        for tabs in tables:
            permuted = tabs[0][(arr & 0xFF).astype(np.int64)]
            if nbits > 8:
                permuted = permuted | tabs[1][((arr >> 8) & 0xFF).astype(np.int64)]
            if nbits > 16:
                permuted = permuted | tabs[2][((arr >> 16) & 0xFF).astype(np.int64)]
            if nbits > 24:
                permuted = permuted | tabs[3][((arr >> 24) & 0xFF).astype(np.int64)]
            arr = arr[permuted >= arr]
            if arr.size == 0:
                break
        survivors.append(arr)
    return np.concatenate(survivors)


_MASK_CACHE: dict = {}


def catalog_masks(sig: Signature, n: int, symmetric: bool = False):
    """(slots, groups, masks): canonical group-masks for universe size n."""
    key = (sig, n, symmetric)
    hit = _MASK_CACHE.get(key)
    if hit is not None:
        return hit
    if n > MAX_PERM_N:
        raise GuardExceededError(f"catalog over {n} elements exceeds the permutation cap {MAX_PERM_N}")
    slots = tuple_slots(sig, n)
    groups = _slot_groups(sig, n, slots, symmetric)
    nbits = len(groups)
    if nbits > MAX_BITS:
        raise GuardExceededError(
            f"catalog needs {nbits} tuple slots over {n} elements; cap is {MAX_BITS}"
        )
    perms = _group_perms(sig, n, slots, groups)
    masks = _canonical_masks(nbits, perms)
    result = (slots, groups, masks)
    _MASK_CACHE[key] = result
    return result


def _expand_group_mask(gmask, groups):
    m = int(gmask)
    full = 0
    while m:
        bit = m & (-m)
        m ^= bit
        for s in groups[bit.bit_length() - 1]:
            full |= 1 << s
    return full


def structures_of_size(sig: Signature, n: int, symmetric: bool = False):
    """Yield (mask, Structure) for every iso class with universe size exactly n."""
    slots, groups, masks = catalog_masks(sig, n, symmetric)
    for gmask in masks:
        yield int(gmask), structure_from_mask(sig, n, slots, _expand_group_mask(gmask, groups))


def all_structures(sig: Signature, max_n: int, symmetric: bool = False):
    """Yield one representative per iso class, universe sizes 0..max_n ascending."""
    for n in range(max_n + 1):
        for _, s in structures_of_size(sig, n, symmetric):
            yield s


def _sweep(sig: Signature, in_language, key, templates, max_n: int, seeds=(), cache=None):
    """The first structure on which a language and a template set disagree.

    Returns (False, a) for the first `a` where `in_language(a)` differs
    from "a maps to some template", else (True, None).  The seeds with at
    most max_n elements come first, then the iso-class catalog by size.
    Answers are memoised by value in `cache`: one memo per language `key`
    and one per template, holding a catalog structure under (n, mask) and
    a seed under its canonical form, so sweeps sharing a cache share them.
    """
    templates = list(templates)
    if cache is None:
        cache = {}
    member = cache.setdefault(("language", key), {})
    maps = [cache.setdefault(("template", d), {}) for d in templates]

    def disagree(a, k):
        inside = member.get(k)
        if inside is None:
            inside = member[k] = in_language(a)
        for d, memo in zip(templates, maps):
            hit = memo.get(k)
            if hit is None:
                hit = memo[k] = _maps_to(a, d)
            if hit:
                return not inside
        return inside

    for a in seeds:
        if a.n <= max_n and disagree(a, canonical_form(a)):
            return False, a
    for n in range(max_n + 1):
        for mask, a in structures_of_size(sig, n):
            if disagree(a, (n, mask)):
                return False, a
    return True, None


def high_girth_structures(sig: Signature, max_n: int, min_girth: int, max_tuples=None):
    """Iso-class representatives with girth >= min_girth (inf included).

    Grown tuple-by-tuple with girth pruning, which stays feasible where
    full slot catalogs would not; girth is monotone under tuple removal,
    so every qualifying class is reached.  `max_tuples` optionally bounds
    the relation size.
    """
    for n in range(max_n + 1):
        slots = tuple_slots(sig, n)
        empty = Structure(sig, n)
        yield empty
        seen = {canonical_form(empty)}
        frontier = [frozenset()]
        depth = 0
        while frontier:
            depth += 1
            if max_tuples is not None and depth > max_tuples:
                break
            nxt = []
            for chosen in frontier:
                for k, (si, t) in enumerate(slots):
                    key = (si, t)
                    if key in chosen:
                        continue
                    if min_girth > 1 and len(set(t)) < len(t):
                        continue  # repeated coordinate: girth 1
                    s2 = chosen | {key}
                    rels = {}
                    for sj, tp in s2:
                        rels.setdefault(sig.names[sj], set()).add(tp)
                    struct = Structure(sig, n, rels)
                    if shortest_cycle(struct, shorter_than=min_girth) is not None:
                        continue
                    ckey = canonical_form(struct)
                    if ckey in seen:
                        continue
                    seen.add(ckey)
                    yield struct
                    nxt.append(s2)
            frontier = nxt
