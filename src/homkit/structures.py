"""Data model: signatures, finite relational structures, lifts, homomorphisms.

Universes are always the contiguous integers 0..n-1.  Element names from
input files survive only as display metadata.  Structures are immutable
and hashable; every operation here is a pure function.
"""

from __future__ import annotations

import functools
import itertools
import operator
import weakref
from dataclasses import dataclass
from typing import NamedTuple

from .errors import InvalidStructureError, SignatureMismatchError


@dataclass(frozen=True)
class Signature:
    """Relation symbols with arities, split into a base part and a lift part.

    `symbols` is an ordered tuple of (name, arity); `lift_names` marks the
    symbols that belong to the lift extension.
    """

    symbols: tuple[tuple[str, int], ...]
    lift_names: frozenset[str] = frozenset()

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise InvalidStructureError(f"duplicate symbol names in signature: {names}")
        for name, arity in self.symbols:
            if arity < 1:
                raise InvalidStructureError(f"symbol {name} has arity {arity}; must be >= 1")
        unknown = self.lift_names - set(names)
        if unknown:
            raise InvalidStructureError(f"lift marker on undeclared symbols: {sorted(unknown)}")

    @functools.cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    @functools.cached_property
    def _lookup(self) -> dict:
        """name -> (index, arity); kept in the instance dict, outside equality and hashing."""
        return {name: (i, arity) for i, (name, arity) in enumerate(self.symbols)}

    def arity(self, name: str) -> int:
        return self._lookup[name][1]

    def index(self, name: str) -> int:
        return self._lookup[name][0]

    def base_symbols(self) -> tuple[tuple[str, int], ...]:
        return tuple((s, a) for s, a in self.symbols if s not in self.lift_names)

    def lift_symbols(self) -> tuple[tuple[str, int], ...]:
        return tuple((s, a) for s, a in self.symbols if s in self.lift_names)

    def base(self) -> "Signature":
        """The signature with the lift part removed."""
        return _interned(self.base_symbols())


# Every signature homkit builds itself, by value, while it is in use: equal
# signatures from `make_signature`, `Signature.base`, the parsers and the SNP
# translations are one object, so identity tests between them answer before
# a field comparison runs.
_SIGNATURES = weakref.WeakValueDictionary()


def _interned(symbols, lift_names=frozenset()) -> Signature:
    """The shared Signature with these fields."""
    key = (symbols, lift_names)
    sig = _SIGNATURES.get(key)
    if sig is None:
        sig = _SIGNATURES[key] = Signature(symbols, lift_names)
    return sig


def make_signature(pairs, lift=()) -> Signature:
    return _interned(tuple((str(n), int(a)) for n, a in pairs), frozenset(lift))


class Structure:
    """A finite relational structure: universe 0..n-1 plus tuple sets.

    Relations are stored as frozensets aligned with the signature's symbol
    order.  Instances are immutable; `_cache` holds derived data (adjacency
    tables, canonical forms) and is excluded from equality and hashing.
    """

    __slots__ = ("sig", "n", "rels", "element_names", "_hash", "_cache")

    def __init__(self, sig: Signature, n: int, rels=None, element_names=None):
        if n < 0:
            raise InvalidStructureError("universe size must be >= 0")
        rels = dict(rels or {})
        unknown = set(rels) - set(sig.names)
        if unknown:
            raise InvalidStructureError(f"relations for undeclared symbols: {sorted(unknown)}")
        aligned = []
        for name, arity in sig.symbols:
            tuples = frozenset(tuple(t) for t in rels.get(name, ()))
            for t in tuples:
                if len(t) != arity:
                    raise InvalidStructureError(f"{name}-tuple {t} has arity {len(t)}, expected {arity}")
                for x in t:
                    if not (0 <= x < n):
                        raise InvalidStructureError(f"{name}-tuple {t} mentions element {x} outside 0..{n - 1}")
            aligned.append(tuples)
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rels", tuple(aligned))
        object.__setattr__(self, "element_names", tuple(element_names) if element_names else None)
        object.__setattr__(self, "_hash", None)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("Structure is immutable")

    def rel(self, name: str) -> frozenset:
        return self.rels[self.sig.index(name)]

    def with_relations(self, updates) -> "Structure":
        """Copy with some relations replaced (mapping name -> tuples)."""
        merged = {name: self.rels[i] for i, name in enumerate(self.sig.names)}
        merged.update(updates)
        return Structure(self.sig, self.n, merged, self.element_names)

    def total_tuples(self) -> int:
        return sum(len(r) for r in self.rels)

    def all_tuples(self):
        """Yield (symbol_index, tuple) over all relations."""
        for i, r in enumerate(self.rels):
            for t in r:
                yield i, t

    def name_of(self, x: int) -> str:
        if self.element_names and x < len(self.element_names):
            return self.element_names[x]
        return str(x)

    def __eq__(self, other):
        return (
            isinstance(other, Structure)
            and self.sig == other.sig
            and self.n == other.n
            and self.rels == other.rels
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.sig, self.n, self.rels))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        parts = ", ".join(
            f"{name}={sorted(r)}" for (name, _), r in zip(self.sig.symbols, self.rels) if r
        )
        return f"Structure(n={self.n}{', ' + parts if parts else ''})"


def _freeze_constraints(obj):
    """Store `noncollapse` and `free_tuples` as frozensets, whatever collection was passed.

    Both are hashed: into the object's own hash and into search-plan cache keys.
    """
    object.__setattr__(obj, "noncollapse", frozenset(obj.noncollapse))
    object.__setattr__(obj, "free_tuples", frozenset(obj.free_tuples))


@dataclass(frozen=True)
class HomMode:
    """How a map must treat tuples: plain, injective, or full.

    `noncollapse` lists source element pairs that may not be identified
    (partially injective matching); `free_tuples` lists (symbol, tuple)
    slots of the source exempt from the full-mode absence requirement: an
    absent free slot may map onto a present tuple, and a held free slot is
    preserved like any other tuple.
    """

    tag: str = "plain"
    noncollapse: frozenset = frozenset()
    free_tuples: frozenset = frozenset()

    def __post_init__(self):
        if self.tag not in ("plain", "injective", "full"):
            raise ValueError(f"unknown homomorphism mode {self.tag!r}")
        _freeze_constraints(self)


PLAIN = HomMode("plain")
INJECTIVE = HomMode("injective")
FULL = HomMode("full")

_MODES = {"plain": PLAIN, "injective": INJECTIVE, "full": FULL}


def mode_from_tag(tag: str) -> HomMode:
    return _MODES[tag]


@dataclass(frozen=True)
class Homomorphism:
    """A witness map between structures over a common signature."""

    source: Structure
    target: Structure
    mapping: tuple[int, ...]
    mode: HomMode = PLAIN

    def __call__(self, x: int) -> int:
        return self.mapping[x]


@dataclass(frozen=True)
class Lift:
    """A structure over a lifted signature plus covering metadata.

    `cover_mode` is explicit: 'none', 'covering' (every lift_arity-tuple
    in at least one lift relation) or 'partition' (exactly one).
    `noncollapse` and `free_tuples` carry optional matching constraints
    used when the lift serves as a forbidden pattern.
    """

    struct: Structure
    lift_arity: int | None = None
    cover_mode: str = "none"
    noncollapse: frozenset = frozenset()
    free_tuples: frozenset = frozenset()

    def __post_init__(self):
        _freeze_constraints(self)
        if self.cover_mode not in ("none", "covering", "partition"):
            raise InvalidStructureError(f"unknown cover_mode {self.cover_mode!r}")
        sig = self.struct.sig
        if not sig.lift_names and self.cover_mode != "none":
            raise InvalidStructureError("cover_mode set but signature has no lift part")
        if self.cover_mode != "none":
            r = self.lift_arity
            if r is None or r < 1:
                raise InvalidStructureError("covering lifts need a positive lift_arity")
            counts = _cover_counts(self.struct, r)
            if self.cover_mode == "covering" and any(c == 0 for c in counts.values()):
                missing = min(t for t, c in counts.items() if c == 0)
                raise InvalidStructureError(f"tuple {missing} carries no lift relation; lift is not covering")
            if self.cover_mode == "partition" and any(c != 1 for c in counts.values()):
                bad = min(t for t, c in counts.items() if c != 1)
                raise InvalidStructureError(f"tuple {bad} carries {counts[bad]} lift relations; not a partition")

    @property
    def n(self) -> int:
        return self.struct.n

    def __repr__(self):
        return f"Lift({self.struct!r}, r={self.lift_arity}, {self.cover_mode})"


# Structure's slot setters, in `__slots__` order, for `_trusted_structure`.
_SET_SIG, _SET_N, _SET_RELS, _SET_NAMES, _SET_HASH, _SET_CACHE = (
    getattr(Structure, name).__set__ for name in Structure.__slots__)


def _trusted_structure(sig: Signature, n: int, rels: tuple, element_names=None) -> Structure:
    """A Structure built without the checks of `Structure.__init__`.

    `rels` holds one frozenset of tuples per symbol of `sig`, in its order.
    Only for callers whose construction guarantees what those checks test:
    every tuple has its symbol's arity and lies over 0..n-1.  The slots are
    set through their descriptors, past the immutable `__setattr__`.
    """
    s = object.__new__(Structure)
    _SET_SIG(s, sig)
    _SET_N(s, n)
    _SET_RELS(s, rels)
    _SET_NAMES(s, element_names)
    _SET_HASH(s, None)
    _SET_CACHE(s, {})
    return s


def _trusted_homomorphism(source: Structure, target: Structure, mapping: tuple, mode: HomMode) -> Homomorphism:
    """A Homomorphism built without the dataclass `__init__`, for a map a search found.

    Equal, with equal hash and repr, to `Homomorphism(source, target,
    mapping, mode)`.
    """
    h = object.__new__(Homomorphism)
    h.__dict__.update(source=source, target=target, mapping=mapping, mode=mode)
    return h


def _trusted_partition_lift(sig: Signature, n: int, rels: tuple, element_names, r: int) -> Lift:
    """A partition lift built without the checks of `Structure` and `Lift`.

    `rels` is as for `_trusted_structure`, and every r-tuple must lie in
    exactly one lift relation.  Equal, with equal hash, to the checked
    `Lift(Structure(...), r, "partition")`.
    """
    lift = object.__new__(Lift)
    lift.__dict__.update(struct=_trusted_structure(sig, n, rels, element_names), lift_arity=r,
                         cover_mode="partition", noncollapse=frozenset(), free_tuples=frozenset())
    return lift


def _cover_counts(struct: Structure, r: int) -> dict:
    """How many lift relations hold each r-tuple; every lift symbol must have arity r."""
    counts = {t: 0 for t in itertools.product(range(struct.n), repeat=r)}
    for name, arity in struct.sig.lift_symbols():
        if arity != r:
            raise InvalidStructureError(f"lift symbol {name} has arity {arity}, expected lift_arity {r}")
        for t in struct.rel(name):
            counts[t] += 1
    return counts


def classify_cover(struct: Structure, r: int) -> str:
    """How the lift relations cover the r-tuples: partition, covering, or none."""
    values = set(_cover_counts(struct, r).values())
    if values <= {1}:
        return "partition"
    if 0 not in values:
        return "covering"
    return "none"


def shadow(obj) -> Structure:
    """Forget the lift relations, keeping the universe and base tuples."""
    s = obj.struct if isinstance(obj, Lift) else obj
    base = s.sig.base()
    rels = {name: s.rel(name) for name, _ in base.symbols}
    return Structure(base, s.n, rels, s.element_names)


def pullback_lift(f: Homomorphism, b_lift: Lift) -> Lift:
    """Lift the source of f by pulling lift relations back along f.

    Requires f to be a plain homomorphism from a base structure into
    shadow(b_lift); the result A' satisfies shadow(A') == source and f is
    a homomorphism A' -> b_lift.  Covering/partition status is inherited.
    """
    from .homs import check_homomorphism  # local import to avoid a cycle

    a = f.source
    carrier_sig = b_lift.struct.sig
    if a.sig != carrier_sig.base():
        raise SignatureMismatchError("source of f must live over the base part of the lift signature")
    if f.target != shadow(b_lift):
        raise SignatureMismatchError("target of f must be the shadow of the lift")
    ok, why = check_homomorphism(Homomorphism(a, f.target, f.mapping, PLAIN))
    if not ok:
        raise InvalidStructureError(f"f is not a homomorphism: {why}")

    rels = {name: a.rel(name) for name, _ in carrier_sig.base_symbols()}
    m = f.mapping
    for name, arity in carrier_sig.lift_symbols():
        have = b_lift.struct.rel(name)
        rels[name] = frozenset(
            t for t in itertools.product(range(a.n), repeat=arity) if tuple(m[x] for x in t) in have
        )
    carrier = Structure(carrier_sig, a.n, rels, a.element_names)
    return Lift(carrier, b_lift.lift_arity, b_lift.cover_mode)


def product(a: Structure, b: Structure) -> Structure:
    """Categorical product: pairs as elements, tuples present iff both projections are."""
    if a.sig != b.sig:
        raise SignatureMismatchError("product needs a common signature")
    m = b.n
    rels = tuple(
        frozenset(tuple(i * m + j for i, j in zip(ta, tb)) for ta in ra for tb in rb)
        for ra, rb in zip(a.rels, b.rels)
    )
    return _trusted_structure(a.sig, a.n * m, rels)


def disjoint_union(a, b):
    """Side-by-side union; returns the same kind (Structure or Lift) as its inputs."""
    if isinstance(a, Lift) and isinstance(b, Lift):
        if a.struct.sig != b.struct.sig:
            raise SignatureMismatchError("disjoint union needs a common signature")
        carrier = _disjoint_union_structures(a.struct, b.struct)
        r = a.lift_arity if a.lift_arity == b.lift_arity else None
        mode = a.cover_mode if a.cover_mode == b.cover_mode else "none"
        if mode != "none" and r is not None and r > 1 and a.n > 0 and b.n > 0:
            mode = "none"  # cross tuples of arity >= 2 are uncovered
        shift = a.n
        noncollapse = a.noncollapse | frozenset(
            tuple(sorted((x + shift, y + shift))) for x, y in b.noncollapse
        )
        free = a.free_tuples | frozenset(
            (sym, tuple(x + shift for x in t)) for sym, t in b.free_tuples
        )
        return Lift(carrier, r, mode, noncollapse, free)
    if isinstance(a, Structure) and isinstance(b, Structure):
        return _disjoint_union_structures(a, b)
    raise TypeError("disjoint_union takes two Structures or two Lifts")


def _disjoint_union_structures(a: Structure, b: Structure) -> Structure:
    if a.sig != b.sig:
        raise SignatureMismatchError("disjoint union needs a common signature")
    shift = a.n
    rels = {}
    for (name, _), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
        rels[name] = frozenset(ra) | frozenset(tuple(x + shift for x in t) for t in rb)
    return Structure(a.sig, a.n + b.n, rels)


def induced(a: Structure, keep) -> Structure:
    """Induced substructure on `keep`, renumbered in ascending old-id order."""
    kset = set(keep)
    keep = sorted(kset)
    idx = {x: i for i, x in enumerate(keep)}
    rels = tuple(frozenset(tuple(map(idx.__getitem__, t)) for t in r if kset.issuperset(t)) for r in a.rels)
    return _trusted_structure(a.sig, len(keep), rels)


def quotient(a: Structure, mapping, m: int) -> Structure:
    """Image structure under the surjection `mapping` onto 0..m-1."""
    if any(not 0 <= mapping[x] < m for x in range(a.n)):
        raise InvalidStructureError(f"mapping {list(mapping)!r} leaves 0..{m - 1}")
    image = mapping.__getitem__
    return _trusted_structure(a.sig, m, tuple(frozenset(tuple(map(image, t)) for t in r) for r in a.rels))


def relabel(a: Structure, perm) -> Structure:
    """Isomorphic copy with element x renamed to perm[x]."""
    if any(not 0 <= perm[x] < a.n for x in range(a.n)):
        raise InvalidStructureError(f"relabelling {list(perm)!r} leaves 0..{a.n - 1}")
    image = perm.__getitem__
    return _trusted_structure(a.sig, a.n, tuple(frozenset(tuple(map(image, t)) for t in r) for r in a.rels))


# ---------------------------------------------------------------------------
# Isomorphism via canonical labelling (individualisation-refinement, McKay &
# Piperno 2014): colour refinement splits the elements into cells, in place
# and only where a cell has two or more elements; the search individualises
# each element of the first non-singleton cell in turn and refines again
# until the colouring is discrete.  Every discrete colouring is a leaf
# labelling, and the least leaf encoding is the key.  Automorphisms prune:
# children in one orbit, a child that swaps with its frame's first child, a
# child whose colouring maps cell by cell onto the first path's, and
# subtrees below a leaf equivalent to an explored one.  Each prunes only
# subtrees that an automorphism maps onto subtrees explored before them, so
# the key and the leaf giving it are those of the unpruned search.
# ---------------------------------------------------------------------------

class _Incidence(NamedTuple):
    """The incidences of a structure's elements, read as integers.

    An incidence of x at position pos of a tuple of symbol si is the offset
    (si * w + pos) * n**w, w the largest arity, plus the tuple's colour
    code: its colours as digits base n.  So integers order incidences as
    the triples (si, pos, colours of the tuple) do.  `columns` holds, per
    arity, the columns of the tuples of that arity; a tuple's index into
    the codes that `_tuple_codes` lists is its place in that order.
    """

    struct: Structure  # what the incidences were read from
    columns: list  # per arity: one list of elements per position
    offsets: list  # per element: the offset of each incidence
    owners: list  # per element: the tuple index of each incidence


def _incidence(a: Structure) -> _Incidence:
    """The `_Incidence` of `a`, read once per labelling."""
    n, rels = a.n, a.rels
    width = max((arity for _, arity in a.sig.symbols), default=1)
    span = n ** width
    offsets = [[] for _ in range(n)]
    owners = [[] for _ in range(n)]
    columns = []
    index = 0
    for k in sorted({arity for _, arity in a.sig.symbols}):
        group = [[] for _ in range(k)]
        for si, (_, arity) in enumerate(a.sig.symbols):
            if arity != k:
                continue
            for t in rels[si]:
                for pos, x in enumerate(t):
                    group[pos].append(x)
                    offsets[x].append((si * width + pos) * span)
                    owners[x].append(index)
                index += 1
        if group[0]:
            columns.append(group)
    return _Incidence(a, columns, offsets, owners)


def _tuple_codes(columns, ranks, n):
    """Each tuple's colours under `ranks` as one integer, digits base n, first position first."""
    colour = ranks.__getitem__
    codes = []
    for group in columns:
        code = list(map(colour, group[0]))
        for column in group[1:]:
            code = [c * n + d for c, d in zip(code, map(colour, column))]
        codes += code
    return codes


def _refine_colors(incident: _Incidence, colors):
    """Refine `colors` by the colour profiles of incident tuples: (ranks, cells).

    New ranks order elements by old colour first, then by profile, so a
    round splits cells in place: only members of a cell with two or more
    elements need a profile, compared within their cell, and a round that
    splits no cell ends the refinement.  A profile is the sorted integers
    of an element's incidences (`_Incidence`) under the round's colours.
    Ranks depend on colours and profiles only, never on element names, so
    isomorphic inputs refine alike.  `cells[c]` lists the elements of rank
    c in ascending order.
    """
    _, columns, offsets, owners = incident
    n = len(colors)
    groups = {}
    for x, c in enumerate(colors):
        groups.setdefault(c, []).append(x)
    cells = [groups[c] for c in sorted(groups)]
    ranks = [0] * n
    while True:
        for c, cell in enumerate(cells):
            for x in cell:
                ranks[x] = c
        if len(cells) == n:
            return ranks, cells
        code = _tuple_codes(columns, ranks, n).__getitem__
        refined = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            parts = {}
            for x in cell:
                prof = tuple(sorted(map(operator.add, offsets[x], map(code, owners[x]))))
                parts.setdefault(prof, []).append(x)
            refined += [parts[p] for p in sorted(parts)]
        if len(refined) == len(cells):
            return ranks, cells
        cells = refined


def _first_cell(cells):
    """The least-coloured cell with two or more elements, or None."""
    return next((cell for cell in cells if len(cell) > 1), None)


def _next_child(cell, tried, prefix, autos):
    """First cell member outside the orbits of `tried` under the automorphisms fixing `prefix`."""
    fixing = [g for g in autos if all(g[x] == x for x in prefix)]
    seen = set(tried)
    todo = list(tried)
    while todo:
        x = todo.pop()
        for g in fixing:
            y = g[x]
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return next((v for v in cell if v not in seen), None)


def _encode(a: Structure, perm):
    return tuple(
        tuple(sorted(tuple(perm[x] for x in t) for t in r)) for r in a.rels
    )


def _twin_swap(through, w, v):
    """The transposition of w and v as a list, if it maps every relation onto itself, else None.

    `through[x]` lists (relation, tuple) for the tuples through x; only
    those through w or v can move.
    """
    swap = {w: v, v: w}.get
    for r, t in itertools.chain(through[w], through[v]):
        if tuple([swap(x, x) for x in t]) not in r:
            return None
    g = list(range(len(through)))
    g[w], g[v] = v, w
    return g


def _cell_map(a: Structure, cells, target):
    """The map sending `cells`, read in order, onto `target`, if it is an automorphism, else None."""
    if list(map(len, cells)) != list(map(len, target)):
        return None
    g = [0] * a.n
    for x, y in zip(itertools.chain.from_iterable(cells), itertools.chain.from_iterable(target)):
        g[x] = y
    image = g.__getitem__
    for r in a.rels:
        for t in r:
            if tuple(map(image, t)) not in r:
                return None
    return g


def _canonical_labelling(a: Structure, colors=None):
    """(encoding, perm) of the least leaf of the individualisation-refinement tree.

    `perm` maps old id -> canonical id and `encoding` is `_encode(a, perm)`.
    Among colourings with one multiset of colours, encodings are equal for
    exactly the colour-respecting isomorphic copies of `a`.  The leaf is the
    first one in depth-first order, children in ascending element order,
    with the least encoding.
    """
    incident = _incidence(a)
    root, cells = _refine_colors(incident, colors if colors is not None else [0] * a.n)
    cell = _first_cell(cells)
    if cell is None:
        return _encode(a, root), root
    through = [[] for _ in range(a.n)]
    for r in a.rels:
        for t in r:
            for x in set(t):
                through[x].append((r, t))
    first = best = None  # (encoding, perm, path of individualised elements)
    first_cells = [cells]  # per depth, the cells of the first path's node
    autos = []  # automorphisms found, as lists old id -> old id
    stack = [(root, (), cell, [])]  # frame: colouring, path, target cell, children tried
    while stack:
        colouring, path, cell, tried = stack[-1]
        v = _next_child(cell, tried, path, autos)
        if v is None:
            stack.pop()
            continue
        tried.append(v)
        if len(tried) > 1:
            # v's subtree is the image of the first child's under the swap
            g = _twin_swap(through, tried[0], v)
            if g is not None:
                autos.append(g)
                continue
        init = [2 * c for c in colouring]
        init[v] += 1  # v alone, just after the rest of its cell
        child, cells = _refine_colors(incident, init)
        child_path = path + (v,)
        cell = _first_cell(cells)
        if cell is not None:
            if first is None:
                first_cells.append(cells)
            elif len(child_path) < len(first_cells) and first[2][:len(path)] == path:
                # a child beside the first path whose colouring is an image
                # of the first path's at its depth has an image subtree
                g = _cell_map(a, cells, first_cells[len(child_path)])
                if g is not None:
                    autos.append(g)
                    continue
            stack.append((child, child_path, cell, []))
            continue
        enc = _encode(a, child)
        if first is None:
            first = best = (enc, child, child_path)
            continue
        for enc0, perm0, path0 in (first, best):
            if enc == enc0:
                inverse0 = [0] * a.n
                for x, p in enumerate(perm0):
                    inverse0[p] = x
                autos.append([inverse0[p] for p in child])
                # the automorphism maps the subtree explored below the point
                # where path0 branched off onto the one entered here
                depth = 0
                while path0[depth] == child_path[depth]:
                    depth += 1
                del stack[depth + 1:]
                break
        else:
            if enc < best[0]:
                best = (enc, child, child_path)
    return best[0], best[1]


def _labelled(a: Structure, colors=None):
    """Cached (key, perm) of `a` under the initial colouring `colors`."""
    ckey = ("canon", tuple(colors) if colors is not None else None)
    hit = a._cache.get(ckey)
    if hit is None:
        if colors is not None and len(colors) != a.n:
            raise InvalidStructureError(f"{len(colors)} colours given for a universe of {a.n} elements")
        enc, perm = _canonical_labelling(a, colors)
        key = (a.sig, a.n, enc) if colors is None else (a.sig, a.n, enc, tuple(sorted(colors)))
        hit = a._cache[ckey] = (key, perm)
    return hit


def canonical_form(a: Structure, colors=None):
    """A hashable key equal for exactly the (colour-respecting) isomorphic copies."""
    return _labelled(a, colors)[0]


def canonical_perm(a: Structure, colors=None):
    """A relabeling realising canonical_form (old id -> canonical id)."""
    return list(_labelled(a, colors)[1])


def is_isomorphic(a: Structure, b: Structure) -> bool:
    if a.sig != b.sig or a.n != b.n:
        return False
    if tuple(len(r) for r in a.rels) != tuple(len(r) for r in b.rels):
        return False
    return canonical_form(a) == canonical_form(b)


def lift_canonical_form(lift: Lift):
    """Canonical key for lifts including constraint metadata.

    Noncollapse pairs and free slots become extra relations of one
    augmented structure (a symmetric binary relation, and one relation per
    symbol), so a single labelling covers the carrier and its constraints.
    """
    a = lift.struct
    nsym = len(a.sig.symbols)
    if not (lift.noncollapse or lift.free_tuples):
        return (canonical_form(a), lift.lift_arity, lift.cover_mode, ((),) * (nsym + 1))
    arities = [arity for _, arity in a.sig.symbols]
    free = [set() for _ in arities]
    for name, t in lift.free_tuples:
        free[a.sig.index(name)].add(t)
    noncollapse = {(x, y) for p, q in lift.noncollapse for x, y in ((p, q), (q, p))}
    rels = list(a.rels) + [noncollapse] + free
    names = [f"r{i}" for i in range(len(rels))]  # a fresh signature: no name can clash
    sig = Signature(tuple(zip(names, arities + [2] + arities)))
    enc, _ = _canonical_labelling(Structure(sig, a.n, dict(zip(names, rels))))
    return ((a.sig, a.n, enc[:nsym]), lift.lift_arity, lift.cover_mode, enc[nsym:])
