"""Reduction between forbidden-pattern languages and CSPs over block relations.

The basis signature has one relation per biconnected block occurring in
the pattern shadows (plus the generic one-tuple block of every base
symbol, so that rebuilding from block images is the identity).  The two
functors: `psi` records every block occurrence as a tuple; `theta`
replays block tuples as base tuples.  The derived forest family over the
basis signature captures pattern occurrences whose surroundings look
tree-like, which is exactly what high-girth instances provide.

`build_gprime` covers each tuple of a pattern quotient by one block
occurrence and keeps the assemblies whose incidence graph is a forest.
An occurrence's fresh (pendant) slots belong to it alone, so they are
leaves of the incidence graph, and only the quotient's core elements can
close a cycle.  The assemblies are therefore walked depth first with a
union-find over the core: a choice whose core coordinates repeat or join
two connected core elements is cyclic with every completion, and its
subtree is skipped.  The walk meets the acyclic assemblies in the order
of the full product, so the members found are the same.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .duality import forest_family_duals
from .errors import GuardExceededError, GirthTooSmallError
from .homs import _set_partitions, hom_maps
from .patterns import PatternFamily, _by_size_and_key, _minimal_patterns, _shadow_templates, pattern_color_map
from .shape import _join_classes, biconnected_components, shortest_cycle
from .structures import (
    Lift,
    Signature,
    Structure,
    canonical_form,
    canonical_perm,
    lift_canonical_form,
    quotient,
    relabel,
    shadow,
)

GPRIME_ASSEMBLY_CAP = 1 << 16


@dataclass(frozen=True)
class BasisSignature:
    """Block representatives and the relation symbols they name."""

    blocks: tuple  # canonical block Structures over the base signature
    beta: Signature  # one symbol per block, arity = block size
    lifted: Signature  # beta plus the family's lift symbols
    base: Signature  # the family's base signature, which theta rebuilds

    def block_symbol(self, i: int) -> str:
        return self.beta.symbols[i][0]


def build_basis(fam: PatternFamily) -> BasisSignature:
    """Blocks of all pattern shadows, plus one generic block per base symbol."""
    if not fam.is_monadic():
        raise ValueError("the reduction expects a monadic family")
    base = fam.base_sig
    reps = {}
    for p in fam.patterns:
        sh = shadow(p)
        for blk in biconnected_components(sh):
            if not blk.tuples:
                continue  # isolated points never matter for the functors
            s = blk.structure
            key = canonical_form(s)
            if key not in reps:
                reps[key] = relabel(s, canonical_perm(s))
    for name, ar in base.symbols:
        generic = Structure(base, ar, {name: [tuple(range(ar))]})
        key = canonical_form(generic)
        if key not in reps:
            reps[key] = relabel(generic, canonical_perm(generic))
    blocks = tuple(sorted(reps.values(), key=lambda s: (s.n, canonical_form(s)[2])))
    color_names = set(fam.sig.lift_names)
    prefix = "B"
    while any(f"{prefix}{i}" in color_names for i in range(len(blocks))):
        prefix += "_"
    beta = Signature(tuple((f"{prefix}{i}", b.n) for i, b in enumerate(blocks)))
    lifted = Signature(
        beta.symbols + tuple(fam.sig.lift_symbols()), frozenset(fam.sig.lift_names)
    )
    return BasisSignature(blocks, beta, lifted, base)


def psi(a: Structure, basis: BasisSignature) -> Structure:
    """Same universe; one beta-tuple per homomorphism of each block into `a`."""
    rels = {}
    for i, blk in enumerate(basis.blocks):
        rels[basis.block_symbol(i)] = set(hom_maps(blk, a))
    return Structure(basis.beta, a.n, rels, a.element_names)


def theta(b: Structure, basis: BasisSignature) -> Structure:
    """Same universe; every beta-tuple replays its block's base tuples."""
    rels = {name: set() for name, _ in basis.base.symbols}
    for i, blk in enumerate(basis.blocks):
        replays = [(rels[blk.sig.names[si]].add, tp) for si, tp in blk.all_tuples()]
        for t in b.rel(basis.block_symbol(i)):
            at = t.__getitem__
            for add, tp in replays:
                add(tuple(map(at, tp)))
    return Structure(basis.base, b.n, rels, b.element_names)


def psi_lifted(a_lift: Lift, basis: BasisSignature) -> Lift:
    """psi on the shadow, colors carried along unchanged."""
    a = a_lift.struct
    core = psi(shadow(a), basis)
    rels = {name: core.rel(name) for name, _ in basis.beta.symbols}
    for name, _ in a.sig.lift_symbols():
        rels[name] = a.rel(name)
    return Lift(Structure(basis.lifted, a.n, rels, a.element_names), 1, a_lift.cover_mode)


def theta_lifted(b_lift: Lift, basis: BasisSignature) -> Lift:
    b = b_lift.struct
    core = theta(shadow(b), basis)
    rels = {name: core.rel(name) for name, _ in core.sig.symbols}
    for name, _ in b.sig.lift_symbols():
        rels[name] = b.rel(name)
    lifted_base = Signature(
        basis.base.symbols + tuple(b.sig.lift_symbols()), frozenset(b.sig.lift_names)
    )
    return Lift(Structure(lifted_base, b.n, rels, b.element_names), 1, b_lift.cover_mode)


def girth_threshold(fam: PatternFamily) -> int:
    return max((p.struct.n for p in fam.patterns), default=0)


def _tuple_candidates(basis: BasisSignature, sym_name: str, t, n_core):
    """Ways to cover a base tuple by one block occurrence.

    A candidate is (block index, vector over the block's universe) whose
    entries are ('c', core element) or ('f', block position); consistent
    with some block tuple mapping onto `t`.
    """
    out = set()
    for bi, blk in enumerate(basis.blocks):
        positions = [
            tp for si, tp in blk.all_tuples() if blk.sig.names[si] == sym_name
        ]
        for bt in positions:
            m = {}
            ok = True
            for x, target in zip(bt, t):
                if m.get(x, target) != target:
                    ok = False
                    break
                m[x] = target
            if not ok:
                continue
            open_elems = [x for x in range(blk.n) if x not in m]
            for values in itertools.product(range(n_core + 1), repeat=len(open_elems)):
                vec = []
                for x in range(blk.n):
                    if x in m:
                        vec.append(("c", m[x]))
                    else:
                        v = values[open_elems.index(x)]
                        vec.append(("c", v) if v < n_core else ("f", x))
                out.add((bi, tuple(vec)))
    return sorted(out)


def _forest_assemblies(choice_lists, m):
    """Sorted candidate sets picked one per list whose occurrences form a forest.

    A depth-first walk over `choice_lists` in `itertools.product` order,
    carrying a union-find over the m core elements.  A candidate already
    on the path adds nothing; any other one whose core coordinates repeat
    or join two connected core elements closes an incidence cycle, and so
    does every completion of it, so its whole subtree is skipped.  Fresh
    slots are leaves and never close a cycle.  Each candidate set is
    yielded once, at its first complete path.
    """
    cores = [
        [[v for kind, v in vec if kind == "c"] for _, vec in cl] for cl in choice_lists
    ]
    parent = [-1] * m
    on_path = set()
    seen = set()

    def walk(i):
        if i == len(choice_lists):
            chosen = tuple(sorted(on_path))
            if chosen not in seen:
                seen.add(chosen)
                yield chosen
            return
        for cand, core in zip(choice_lists[i], cores[i]):
            if cand in on_path:
                yield from walk(i + 1)
                continue
            undo = _join_classes(parent, core)
            if undo is None:
                continue
            on_path.add(cand)
            yield from walk(i + 1)
            on_path.remove(cand)
            for r, old in undo:
                parent[r] = old

    return walk(0)


def build_gprime(fam: PatternFamily, basis: BasisSignature, cap: int = GPRIME_ASSEMBLY_CAP) -> PatternFamily:
    """Forest patterns over the basis signature marking pattern occurrences.

    A pattern is first colored every possible way on its uncolored
    elements (on partition lifts a plain pattern is the union of its full
    colorings).  Members come from color-compatible quotients of these:
    each quotient tuple is covered by a block occurrence, pendant
    coordinates are fresh and colored every possible way, and only
    assemblies whose incidence graph is a forest are kept.  Fresh slots
    are leaves, so only the core elements can close a cycle; the
    assemblies are walked depth first with a union-find over the core, and
    a choice that closes a cycle cuts off every completion of it.  Members
    receiving a homomorphism from another member are pruned.

    `cap` bounds the unpruned number of assemblies of each quotient (the
    product of its candidate counts) and the number of members; past
    either, GuardExceededError.
    """
    if not fam.is_monadic():
        raise ValueError("the reduction expects a monadic family")
    colors = fam.colors()
    members = {}
    for p in fam.patterns:
        cmap = pattern_color_map(fam, p)
        if cmap is None:
            continue
        uncolored = [x for x in range(p.struct.n) if (x,) not in cmap]
        sh = shadow(p)
        for extra in itertools.product(range(len(colors)), repeat=len(uncolored)):
            color_of = {t[0]: c for t, c in cmap.items()}
            color_of.update(zip(uncolored, extra))
            pairs = itertools.combinations(range(p.struct.n), 2)
            apart = [(x, y) for x, y in pairs if color_of[x] != color_of[y]]
            for assign, m in _set_partitions(p.struct.n, apart):
                h = quotient(sh, assign, m)
                core_colors = {assign[x]: c for x, c in color_of.items()}
                choice_lists = [
                    _tuple_candidates(basis, h.sig.names[si], t, m) for si, t in sorted(h.all_tuples())
                ]
                total = 1
                for cl in choice_lists:
                    total *= max(len(cl), 1)
                    if total > cap:
                        raise GuardExceededError("pattern assembly count exceeds the cap")
                if any(not cl for cl in choice_lists):
                    continue
                for chosen in _forest_assemblies(choice_lists, m):
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
                    for x in range(m):
                        rels[colors[core_colors[x]]].add((x,))
                    fresh_slots = sorted(fresh_index.values())
                    for fresh_colors in itertools.product(range(len(colors)), repeat=len(fresh_slots)):
                        crels = {k: set(v) for k, v in rels.items()}
                        for slot, c in zip(fresh_slots, fresh_colors):
                            crels[colors[c]].add((slot,))
                        lift = Lift(Structure(basis.lifted, n_total, crels), 1, "partition")
                        members.setdefault(lift_canonical_form(lift), lift)
                        if len(members) > cap:
                            raise GuardExceededError("member count exceeds the cap")
    pats = _by_size_and_key(members)
    return PatternFamily(basis.lifted, _minimal_patterns(pats), "plain", 1)


def reduce_forward(a: Structure, fam: PatternFamily, basis=None, duality_caps=None):
    """(psi(a), derived family, base templates or None on a size cap)."""
    if basis is None:
        basis = build_basis(fam)
    gfam = build_gprime(fam, basis)
    image = psi(a, basis)
    try:
        duals = forest_family_duals([p.struct for p in gfam.patterns], **(duality_caps or {}))
        templates = tuple(_shadow_templates(basis.beta, duals))
    except GuardExceededError:
        templates = None
    return image, gfam, templates


def reduce_backward(b: Structure, fam: PatternFamily, basis=None) -> Structure:
    """theta(b), defended by the girth precondition."""
    if basis is None:
        basis = build_basis(fam)
    k = girth_threshold(fam)
    found = shortest_cycle(b, shorter_than=k + 1)
    if found is not None:
        raise GirthTooSmallError(
            f"input girth {found[0]} is not above the pattern-size threshold {k}",
            cycle=found[1],
        )
    return theta(b, basis)
