"""Data model: signatures, finite relational structures, lifts, homomorphisms.

Universes are always the contiguous integers 0..n-1.  Element names from
input files survive only as display metadata.  Structures are immutable
and hashable; every operation here is a pure function.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

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

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def arity(self, name: str) -> int:
        for sym, ar in self.symbols:
            if sym == name:
                return ar
        raise KeyError(name)

    def index(self, name: str) -> int:
        for i, (sym, _) in enumerate(self.symbols):
            if sym == name:
                return i
        raise KeyError(name)

    def base_symbols(self) -> tuple[tuple[str, int], ...]:
        return tuple((s, a) for s, a in self.symbols if s not in self.lift_names)

    def lift_symbols(self) -> tuple[tuple[str, int], ...]:
        return tuple((s, a) for s, a in self.symbols if s in self.lift_names)

    def base(self) -> "Signature":
        """The signature with the lift part removed."""
        return Signature(self.base_symbols())

    def has_lift_part(self) -> bool:
        return bool(self.lift_names)


def make_signature(pairs, lift=()) -> Signature:
    return Signature(tuple((str(n), int(a)) for n, a in pairs), frozenset(lift))


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


@dataclass(frozen=True)
class HomMode:
    """How a map must treat tuples: plain, injective, or full.

    `noncollapse` lists source element pairs that may not be identified
    (partially injective matching); `free_tuples` lists (symbol, tuple)
    slots of the source exempt from the full-mode polarity requirement.
    """

    tag: str = "plain"
    noncollapse: frozenset = frozenset()
    free_tuples: frozenset = frozenset()

    def __post_init__(self):
        if self.tag not in ("plain", "injective", "full"):
            raise ValueError(f"unknown homomorphism mode {self.tag!r}")

    def is_partial(self) -> bool:
        return bool(self.noncollapse) or bool(self.free_tuples)


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

    def apply_tuple(self, t) -> tuple[int, ...]:
        m = self.mapping
        return tuple(m[x] for x in t)

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def is_surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.n

    def image_elements(self) -> frozenset:
        return frozenset(self.mapping)


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
        if self.cover_mode not in ("none", "covering", "partition"):
            raise InvalidStructureError(f"unknown cover_mode {self.cover_mode!r}")
        sig = self.struct.sig
        if not sig.lift_names and self.cover_mode != "none":
            raise InvalidStructureError("cover_mode set but signature has no lift part")
        if self.cover_mode != "none":
            r = self.lift_arity
            if r is None or r < 1:
                raise InvalidStructureError("covering lifts need a positive lift_arity")
            for name, arity in sig.lift_symbols():
                if arity != r:
                    raise InvalidStructureError(
                        f"lift symbol {name} has arity {arity}, expected lift_arity {r}"
                    )
            counts = self._cover_counts()
            if self.cover_mode == "covering" and any(c == 0 for c in counts.values()):
                missing = min(t for t, c in counts.items() if c == 0)
                raise InvalidStructureError(f"tuple {missing} carries no lift relation; lift is not covering")
            if self.cover_mode == "partition" and any(c != 1 for c in counts.values()):
                bad = min(t for t, c in counts.items() if c != 1)
                raise InvalidStructureError(f"tuple {bad} carries {counts[bad]} lift relations; not a partition")

    def _cover_counts(self):
        s = self.struct
        counts = {t: 0 for t in itertools.product(range(s.n), repeat=self.lift_arity)}
        for name, _ in s.sig.lift_symbols():
            for t in s.rel(name):
                counts[t] += 1
        return counts

    @property
    def n(self) -> int:
        return self.struct.n

    def __repr__(self):
        return f"Lift({self.struct!r}, r={self.lift_arity}, {self.cover_mode})"


def classify_cover(struct: Structure, r: int) -> str:
    """How the lift relations cover the r-tuples: partition, covering, or none."""
    for name, arity in struct.sig.lift_symbols():
        if arity != r:
            raise InvalidStructureError(f"lift symbol {name} has arity {arity}, expected lift_arity {r}")
    counts = {t: 0 for t in itertools.product(range(struct.n), repeat=r)}
    for name, _ in struct.sig.lift_symbols():
        for t in struct.rel(name):
            counts[t] += 1
    values = set(counts.values())
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
    n = a.n * b.n
    enc = lambda i, j: i * b.n + j
    rels = {}
    for (name, arity), ra, rb in zip(a.sig.symbols, a.rels, b.rels):
        rels[name] = frozenset(
            tuple(enc(ta[k], tb[k]) for k in range(arity)) for ta in ra for tb in rb
        )
    return Structure(a.sig, n, rels)


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
    keep = sorted(set(keep))
    idx = {x: i for i, x in enumerate(keep)}
    kset = set(keep)
    rels = {}
    for (name, _), r in zip(a.sig.symbols, a.rels):
        rels[name] = frozenset(tuple(idx[x] for x in t) for t in r if all(x in kset for x in t))
    return Structure(a.sig, len(keep), rels)


def quotient(a: Structure, mapping, m: int) -> Structure:
    """Image structure under the surjection `mapping` onto 0..m-1."""
    rels = {}
    for (name, _), r in zip(a.sig.symbols, a.rels):
        rels[name] = frozenset(tuple(mapping[x] for x in t) for t in r)
    return Structure(a.sig, m, rels)


def relabel(a: Structure, perm) -> Structure:
    """Isomorphic copy with element x renamed to perm[x]."""
    rels = {}
    for (name, _), r in zip(a.sig.symbols, a.rels):
        rels[name] = frozenset(tuple(perm[x] for x in t) for t in r)
    return Structure(a.sig, a.n, rels)


# ---------------------------------------------------------------------------
# Isomorphism via canonical forms: colour refinement to cut the permutation
# space, then lexicographic minimisation over class-respecting relabelings.
# ---------------------------------------------------------------------------

def _refine_colors(a: Structure, init=None):
    n = a.n
    colors = list(init) if init is not None else [0] * n
    incident = [[] for _ in range(n)]
    for si, t in a.all_tuples():
        for pos, x in enumerate(t):
            incident[x].append((si, pos, t))
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


def _class_perms(colors):
    """Yield relabelings old->new respecting the (canonically ordered) classes."""
    n = len(colors)
    classes = {}
    for x in range(n):
        classes.setdefault(colors[x], []).append(x)
    blocks = [classes[c] for c in sorted(classes)]
    starts = []
    pos = 0
    for b in blocks:
        starts.append(pos)
        pos += len(b)
    for arrangement in itertools.product(*(itertools.permutations(b) for b in blocks)):
        perm = [0] * n
        for start, members in zip(starts, arrangement):
            for off, x in enumerate(members):
                perm[x] = start + off
        yield perm


def _encode(a: Structure, perm):
    return tuple(
        tuple(sorted(tuple(perm[x] for x in t) for t in r)) for r in a.rels
    )


def canonical_form(a: Structure, colors=None):
    """A hashable key equal for exactly the (colour-respecting) isomorphic copies."""
    ckey = ("canon", tuple(colors) if colors is not None else None)
    hit = a._cache.get(ckey)
    if hit is not None:
        return hit
    refined = _refine_colors(a, colors)
    best = None
    for perm in _class_perms(refined):
        enc = _encode(a, perm)
        if best is None or enc < best:
            best = enc
    key = (a.sig, a.n, best)
    a._cache[ckey] = key
    return key


def canonical_perm(a: Structure, colors=None):
    """A relabeling realising canonical_form (old id -> canonical id)."""
    refined = _refine_colors(a, colors)
    best = None
    best_perm = None
    for perm in _class_perms(refined):
        enc = _encode(a, perm)
        if best is None or enc < best:
            best, best_perm = enc, perm
    return best_perm if best_perm is not None else []


def is_isomorphic(a: Structure, b: Structure) -> bool:
    if a.sig != b.sig or a.n != b.n:
        return False
    if tuple(len(r) for r in a.rels) != tuple(len(r) for r in b.rels):
        return False
    return canonical_form(a) == canonical_form(b)


def lift_canonical_form(lift: Lift):
    """Canonical key for lifts including constraint metadata."""
    base = canonical_form(lift.struct)
    if not (lift.noncollapse or lift.free_tuples):
        extras = None
    else:
        # Minimise the constraint encoding over every relabeling that
        # realises the canonical carrier, so automorphic presentations of
        # the same constrained lift collapse to one key.
        a = lift.struct
        refined = _refine_colors(a)
        target = base[2]
        extras = None
        for perm in _class_perms(refined):
            if _encode(a, perm) != target:
                continue
            cand = (
                tuple(sorted(tuple(sorted((perm[x], perm[y]))) for x, y in lift.noncollapse)),
                tuple(sorted((sym, tuple(perm[x] for x in t)) for sym, t in lift.free_tuples)),
            )
            if extras is None or cand < extras:
                extras = cand
    return (base, lift.lift_arity, lift.cover_mode, extras)
