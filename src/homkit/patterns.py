"""Forbidden-pattern languages over monadic (and r-ary) partition lifts.

A pattern family over a lifted signature fixes a matching mode; a base
structure belongs to the language iff some partition lift of it (every
r-tuple in exactly one lift relation) admits no pattern under that mode.
Membership search assigns lift classes to r-tuples and excludes the
assignment fragments induced by pattern occurrences ("nogoods").  Each
family compiles its patterns' shadows, color maps and modes once, on first
use, and patterns that share a shadow and a mode share one occurrence
search.  `solve_nogoods` decides the colouring; SNP evaluation uses the
same walker and solver for its proof bits, as forbidden lifts and MMSNP
are one problem.

Witnesses are partition lifts throughout: a covering witness can always
shed extra classes without creating pattern occurrences in plain and
injective modes, and the full-mode families produced by the formula
translations match exact classes, so partitions lose no generality here.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

from .errors import GuardExceededError, InvalidStructureError, SignatureMismatchError
from .homs import _collapse_map, core_of, hom_exists, hom_images, hom_maps
from .shape import shortest_cycle
from .structures import (
    HomMode,
    Lift,
    Signature,
    Structure,
    _trusted_partition_lift,
    disjoint_union,
    lift_canonical_form,
    quotient,
    shadow,
)

MEMBERSHIP_BITS_CAP = 48
NORMALIZE_CAP = 512
EXPAND_CAP = 4096


@dataclass(frozen=True)
class PatternFamily:
    """Finitely many forbidden lifts plus the matching mode."""

    sig: Signature
    patterns: tuple
    mode_tag: str = "plain"
    lift_arity: int = 1

    def __post_init__(self):
        if self.mode_tag not in ("plain", "injective", "full"):
            raise ValueError(f"unknown mode {self.mode_tag!r}")
        if self.lift_arity < 1:
            raise InvalidStructureError(f"lift_arity is {self.lift_arity}; must be >= 1")
        for name, arity in self.sig.lift_symbols():
            if arity != self.lift_arity:
                raise InvalidStructureError(
                    f"lift symbol {name} has arity {arity}, expected lift_arity {self.lift_arity}"
                )
        for p in self.patterns:
            if p.struct.sig != self.sig:
                raise SignatureMismatchError("pattern signature differs from family signature")

    @functools.cached_property
    def base_sig(self) -> Signature:
        return self.sig.base()

    @functools.cached_property
    def _colors(self) -> tuple:
        return tuple(name for name, _ in self.sig.lift_symbols())

    def colors(self):
        return self._colors

    def pattern_mode(self, p: Lift) -> HomMode:
        return HomMode(self.mode_tag, p.noncollapse, p.free_tuples)

    def is_monadic(self) -> bool:
        return self.lift_arity == 1

    @functools.cached_property
    def _compiled(self):
        """The occurrence programs of the patterns a partition lift can contain.

        Programs are grouped as `_group_programs` describes; patterns have
        no absent slots, and a cell (getter, 0, color index) reads the image
        of one colored r-tuple off a mapping tuple, as a bare element when
        r = 1.  Built on first use and kept for the family's lifetime, so
        membership calls share the shadows and the search plans cached on
        them.
        """
        out = []
        for p in self.patterns:
            cmap = pattern_color_map(self, p)
            if cmap is None:
                continue  # doubly-colored tuples never occur in a partition lift
            if self.mode_tag == "full" and len(cmap) < p.struct.n ** self.lift_arity:
                # full-mode matching reflects the lift relations too: an
                # uncolored pattern tuple would need a colorless image, which a
                # partition lift never provides
                continue
            cells = tuple((operator.itemgetter(*t), 0, ci) for t, ci in cmap.items())
            out.append((shadow(p), self.pattern_mode(p), frozenset(), cells))
        return _group_programs(out)


def _group_programs(programs) -> tuple:
    """Merge occurrence programs that share their occurrences.

    A program is (shadow, HomMode, absent slots, cells); programs with equal
    shadow, mode and absent slots (a frozenset) have the same occurrences in
    every structure.  Each group comes back as (shadow, HomMode, absent
    slots, the cells of each member), in order of first appearance, for
    `_walk_occurrences` to search once.
    """
    groups = {}
    for sh, mode, absent, cells in programs:
        groups.setdefault((sh, mode, absent), []).append(cells)
    return tuple((sh, mode, absent, tuple(members)) for (sh, mode, absent), members in groups.items())


def pattern_color_map(fam: PatternFamily, p: Lift):
    """Map r-tuple -> color index for a pattern; None on a doubly-colored tuple."""
    colors = fam.colors()
    assignment = {}
    for ci, name in enumerate(colors):
        for t in p.struct.rel(name):
            if t in assignment:
                return None
            assignment[t] = ci
    return assignment


def make_partition_lift(fam: PatternFamily, a: Structure, coloring) -> Lift:
    """Build the lift of `a` whose r-tuples carry the given color indices.

    `coloring` maps every r-tuple of `a` to an index into `fam.colors()`.
    """
    if a.sig != fam.base_sig:
        raise SignatureMismatchError("structure signature differs from the family's base part")
    r, k = fam.lift_arity, len(fam.colors())
    elems = range(a.n)
    for t, ci in coloring.items():
        if not (isinstance(t, tuple) and len(t) == r and all(x in elems for x in t)):
            raise InvalidStructureError(f"coloring key {t!r} is not a {r}-tuple over 0..{a.n - 1}")
        if not (isinstance(ci, numbers.Integral) and 0 <= ci < k):
            raise InvalidStructureError(f"color index {ci!r} of {t} is outside 0..{k - 1}")
    if len(coloring) != a.n ** r:
        missing = next(t for t in itertools.product(elems, repeat=r) if t not in coloring)
        raise InvalidStructureError(f"tuple {missing} carries no color; not a partition")
    return _partition_witness(fam, a, coloring, coloring.values())


def _partition_witness(fam: PatternFamily, a: Structure, slots, coloring) -> Lift:
    """The partition lift of `a` giving slots[i] the color index coloring[i].

    Unchecked: the caller passes every r-tuple of `a` exactly once, each
    with an index in range(len(fam.colors())).
    """
    colors = fam.colors()
    classes = [[] for _ in colors]
    for t, ci in zip(slots, coloring):
        classes[ci].append(t)
    lifted = dict(zip(colors, map(frozenset, classes)))
    base = iter(a.rels)  # a.sig is the base part of fam.sig, in its order
    rels = tuple(lifted[name] if name in lifted else next(base) for name, _ in fam.sig.symbols)
    return _trusted_partition_lift(fam.sig, a.n, rels, a.element_names, fam.lift_arity)


def lift_occurrence(fam: PatternFamily, p: Lift, witness: Lift):
    """Mode-respecting occurrence of pattern p inside a witness lift, or None.

    This is the independent validator for membership answers: it runs the
    generic searcher over the whole lifted signature.
    """
    return hom_exists(p.struct, witness.struct, fam.pattern_mode(p))


def solve_nogoods(nvars: int, k: int, nogoods):
    """A value in range(k) for each of `nvars` variables avoiding every nogood, or None.

    A nogood is a collection of (variable, value) literals, each variable at
    most once, that must not all hold; an empty nogood can never be avoided.
    Forward checking: once all but one literal of a nogood hold, the last
    literal's value leaves its variable's domain (a bitmask over the
    values).  The next variable is an unassigned one with the smallest
    domain, ties going to the variable in the most nogoods and then to the
    lowest index; values are tried in increasing order, and a trail undoes
    domain changes on backtracking.  The answer does not depend on the
    order of the nogoods.
    """
    dom = [(1 << k) - 1] * nvars
    watch = {}  # (variable, value) -> nogoods with that literal
    weight = [0] * nvars
    for g in nogoods:
        g = tuple(g)
        if len(g) < 2:
            if not g:
                return None
            (v, c), = g
            dom[v] &= ~(1 << c)
            continue
        for lit in g:
            watch.setdefault(lit, []).append(g)
            weight[lit[0]] += 1
    if 0 in dom:
        return None
    order = sorted(range(nvars), key=weight.__getitem__, reverse=True)
    value = [-1] * nvars
    trail = []

    def propagate(v, c):
        for g in watch.get((v, c), ()):
            last = None
            for w, d in g:
                got = value[w]
                if got < 0:
                    if last is not None:
                        break  # two literals still open
                    last = w, d
                elif got != d:
                    break  # the nogood is avoided
            else:
                if last is None:
                    return False
                w, d = last
                old = dom[w]
                if old >> d & 1:
                    trail.append((w, old))
                    dom[w] = old ^ (1 << d)
                    if old == 1 << d:
                        return False
        return True

    stack = []  # per assigned variable: [variable, values left to try, trail mark]
    while len(stack) < nvars:
        best, size = -1, k + 1
        for v in order:
            if value[v] < 0:
                s = dom[v].bit_count()
                if s < size:
                    best, size = v, s
                    if s == 1:
                        break
        stack.append([best, dom[best], len(trail)])
        while True:
            frame = stack[-1]
            v, rest, mark = frame
            while len(trail) > mark:
                w, old = trail.pop()
                dom[w] = old
            if rest:
                bit = rest & -rest
                frame[1] = rest ^ bit
                value[v] = c = bit.bit_length() - 1
                if propagate(v, c):
                    break
            else:
                value[v] = -1
                stack.pop()
                if not stack:
                    return None
    return value


def _walk_occurrences(programs, a: Structure, spaces):
    """The nogoods that occurrences of compiled programs in `a` impose, or None.

    A program, as `_group_programs` builds it, is (shadow, HomMode, absent
    slots, members), each member a tuple of cells.  Every map `hom_maps`
    yields from the shadow into `a` whose absent slots (symbol index,
    tuple) all map onto tuples missing from `a` is an occurrence of every
    member, so each shadow is searched once.  A member's cells (getter,
    space, value) give the literals `spaces[space][getter(map)] = value`: a
    fragment that gives one variable two values can never hold and is
    dropped, and an empty fragment is an unconditional occurrence, for
    which the walk returns None.  Otherwise the set of distinct fragments
    comes back in no particular order, which `solve_nogoods` does not
    depend on.
    """
    rels = a.rels
    nogoods = set()
    for sh, mode, absent, members in programs:
        for m in hom_maps(sh, a, mode):
            if absent and any(tuple([m[x] for x in t]) in rels[si] for si, t in absent):
                continue
            for cells in members:
                frag = {}
                for get, space, value in cells:
                    if frag.setdefault(spaces[space][get(m)], value) != value:
                        break  # two cells land on one variable with different values
                else:
                    if not frag:
                        return None
                    nogoods.add(frozenset(frag.items()))
    return nogoods


def fp_membership(a: Structure, fam: PatternFamily, bits_cap: int = MEMBERSHIP_BITS_CAP):
    """A partition lift of `a` avoiding every pattern, or None.

    Search space: one variable per r-tuple of `a`, one value per lift
    symbol; every mode-respecting occurrence of a pattern shadow
    contributes a nogood, and `solve_nogoods` looks for a colouring
    avoiding them all.
    """
    if a.sig != fam.base_sig:
        raise SignatureMismatchError("structure signature differs from the family's base part")
    colors = fam.colors()
    if not colors:
        raise ValueError("family signature has no lift symbols")
    r = fam.lift_arity
    slots = list(itertools.product(range(a.n), repeat=r))
    if len(slots) * math.log2(len(colors)) > bits_cap:
        raise GuardExceededError(
            f"{len(colors)}^{len(slots)} colorings exceed the membership cap"
        )
    # keyed like the compiled getters' output: bare elements when r = 1
    slot_index = {t if r > 1 else t[0]: i for i, t in enumerate(slots)}
    nogoods = _walk_occurrences(fam._compiled, a, (slot_index,))
    if nogoods is None:
        return None
    coloring = solve_nogoods(len(slots), len(colors), nogoods)
    if coloring is None:
        return None
    return _partition_witness(fam, a, slots, coloring)


def union_families(f1: PatternFamily, f2: PatternFamily) -> PatternFamily:
    """Family for the union language: pairwise disjoint unions of patterns."""
    if f1.sig != f2.sig or f1.mode_tag != f2.mode_tag or f1.lift_arity != f2.lift_arity:
        raise SignatureMismatchError("united families must share signature, mode and lift arity")
    pats = tuple(disjoint_union(p, q) for p in f1.patterns for q in f2.patterns)
    return PatternFamily(f1.sig, pats, f1.mode_tag, f1.lift_arity)


def _lift_images(p: Lift, r: int):
    """Homomorphic images of a pattern, as lifts (cover status recomputed)."""
    out = []
    for img in hom_images(p.struct):
        out.append(Lift(img, r, "none"))
    return out


def _is_vacuous(fam: PatternFamily, p: Lift) -> bool:
    return pattern_color_map(fam, p) is None


def normalize_family(fam: PatternFamily, cap: int = NORMALIZE_CAP) -> PatternFamily:
    """Image-closed, cored, homomorphism-minimal presentation of the family.

    Patterns whose tuples carry two lift classes can never occur in a
    partition lift and are dropped as vacuous.
    """
    if not fam.is_monadic():
        raise ValueError("normalize_family expects a monadic family")
    if fam.mode_tag != "plain":
        raise ValueError("normalize_family expects a plain-mode family")
    seen = {}
    for p in fam.patterns:
        if p.noncollapse or p.free_tuples:
            raise ValueError("expand partial constraints before normalizing")
        for img in _lift_images(p, fam.lift_arity):
            if _is_vacuous(fam, img):
                continue
            key = lift_canonical_form(img)
            if key not in seen:
                seen[key] = img
            if len(seen) > cap:
                raise GuardExceededError("image closure exceeds the normalization cap")
    cored = {}
    for img in seen.values():
        c = Lift(core_of(img.struct), fam.lift_arity, "none")
        cored.setdefault(lift_canonical_form(c), c)
    pats = sorted(cored.values(), key=lambda p: (p.struct.n, lift_canonical_form(p)))
    return PatternFamily(fam.sig, _minimal_patterns(pats), fam.mode_tag, fam.lift_arity)


def _minimal_patterns(pats) -> tuple:
    """The patterns into which no other pattern maps, in their given order.

    p is dropped when some q maps into it, unless the two are
    hom-equivalent and p comes first: each hom-equivalence class keeps its
    first member.
    """
    minimal = []
    for i, p in enumerate(pats):
        for j, q in enumerate(pats):
            if i != j and hom_exists(q.struct, p.struct) is not None:
                if i < j and hom_exists(p.struct, q.struct) is not None:
                    continue
                break
        else:
            minimal.append(p)
    return tuple(minimal)


@dataclass(frozen=True)
class DecisionOutcome:
    verdict: str  # 'finite_union_csp' | 'not_finite_union'
    templates: tuple | None = None
    witness: Lift | None = None
    witness_cycle: tuple | None = None
    note: str | None = None


def partition_power(sig_base: Signature, dual: Structure) -> Structure:
    """Base-signature template whose points are (element, chosen class) pairs.

    A partition lift maps into `dual` iff its shadow maps into this
    structure; uncolored dual elements cannot host a partition lift and
    drop out.
    """
    lifted_sig = dual.sig
    color_names = [name for name, _ in lifted_sig.lift_symbols()]
    points = []
    for x in range(dual.n):
        for name in color_names:
            if (x,) in dual.rel(name):
                points.append((x, name))
    index = {p: i for i, p in enumerate(points)}
    rels = {}
    for name, ar in sig_base.symbols:
        have = dual.rel(name)
        rels[name] = set()
        for cand in itertools.product(points, repeat=ar):
            if tuple(p[0] for p in cand) in have:
                rels[name].add(tuple(index[p] for p in cand))
    return Structure(sig_base, len(points), rels)


def decide_finite_union_csp(fam: PatternFamily, duality_caps=None) -> DecisionOutcome:
    """Is the language a finite union of CSPs?  Forest core patterns say yes.

    Positive verdicts come with base templates (shadows of the lifted
    duals); a cyclic core pattern in the normalized family is the negative
    witness.  If the dual construction hits a size cap the positive
    verdict is still returned, without templates.
    """
    from .duality import forest_family_duals, dedup_hom_equivalent, terminal_structure

    norm = normalize_family(fam)
    base = fam.base_sig
    if not norm.patterns:
        return DecisionOutcome(
            "finite_union_csp",
            templates=(terminal_structure(base),),
            note="degenerate: every structure belongs to the language",
        )
    for p in norm.patterns:
        found = shortest_cycle(p.struct)
        if found is not None:
            return DecisionOutcome(
                "not_finite_union", witness=p, witness_cycle=tuple(found[1])
            )
    kwargs = duality_caps or {}
    try:
        duals = forest_family_duals([p.struct for p in norm.patterns], **kwargs)
    except GuardExceededError as e:
        return DecisionOutcome("finite_union_csp", templates=None, note=f"duality cap: {e}")
    templates = dedup_hom_equivalent(
        [core_of(partition_power(base, d)) for d in duals]
    )
    return DecisionOutcome("finite_union_csp", templates=tuple(templates))


def corroborate_negative(fam: PatternFamily, template_size: int = 2, set_size: int = 2, max_n: int = 3):
    """Empirical support for a negative verdict: sweep tiny template sets.

    Returns the number of candidate sets tried; raises if any of them
    matches the language on all structures with at most max_n elements
    (which would contradict the verdict at this scale).
    """
    from .enumeration import all_structures

    base = fam.base_sig
    templates = list(all_structures(base, template_size))
    candidates = [[t] for t in templates]
    if set_size >= 2:
        candidates += [list(p) for p in itertools.combinations(templates, 2)]
    cache = {}
    for cand in candidates:
        ok, _ = verify_shadow_duality(fam, cand, max_n, cache=cache)
        if ok:
            raise AssertionError(
                f"a {len(cand)}-template set matches the language up to {max_n} elements"
            )
    return len(candidates)


def verify_shadow_duality(fam: PatternFamily, templates, max_n: int, cache=None):
    """Check: membership in the language iff a homomorphism into some template.

    Exhausts base structures with at most max_n elements up to isomorphism;
    returns (True, None) or (False, counterexample).
    """
    from .enumeration import structures_of_size

    templates = list(templates)
    base = fam.base_sig
    if cache is None:
        cache = {}
    # memos keyed by value: the family, and each template structure
    lhs_memo = cache.setdefault("member", {}).setdefault(fam, {})
    tmpl_memo = cache.setdefault("tmpl", {})
    rhs_memos = [tmpl_memo.setdefault(d, {}) for d in templates]
    for n in range(max_n + 1):
        for mask, a in structures_of_size(base, n):
            key = (n, mask)
            lhs = lhs_memo.get(key)
            if lhs is None:
                lhs = lhs_memo[key] = fp_membership(a, fam) is not None
            rhs = False
            for d, memo in zip(templates, rhs_memos):
                hit = memo.get(key)
                if hit is None:
                    hit = memo[key] = hom_exists(a, d) is not None
                if hit:
                    rhs = True
                    break
            if lhs != rhs:
                return False, a
    return True, None


def expand_partial_constraints(fam: PatternFamily, cap: int = EXPAND_CAP) -> PatternFamily:
    """Rewrite noncollapse pairs and free tuples into pure-mode patterns.

    A family with no noncollapse pairs and no free tuples has nothing to
    expand and is returned as is, in every mode.  Otherwise:

    - plain or injective families with noncollapse pairs become the
      injective family with the same language, as computed by
      `injective_expansion`;
    - full families drop each free slot the pattern holds (a free slot
      waives only the absence requirement, so a held one is an ordinary
      tuple) and split each other free slot into a present and an absent
      variant, until no pattern has a free tuple.

    Use `injective_expansion` to rewrite a plain family as an injective one
    whether or not it carries constraints.
    """
    if fam.mode_tag == "full":
        if any(p.noncollapse for p in fam.patterns):
            raise ValueError("noncollapse constraints are not expandable in full mode")
        if not any(p.free_tuples for p in fam.patterns):
            return fam
        queue = list(fam.patterns)
        done = []
        while queue:
            if len(queue) + len(done) > cap:
                raise GuardExceededError("partial-full expansion exceeds the cap")
            p = queue.pop()
            if not p.free_tuples:
                done.append(p)
                continue
            sym, t = min(p.free_tuples)
            rest = p.free_tuples - {(sym, t)}
            if t not in p.struct.rel(sym):
                with_t = p.struct.with_relations({sym: p.struct.rel(sym) | {t}})
                queue.append(Lift(with_t, p.lift_arity, p.cover_mode, p.noncollapse, rest))
            queue.append(Lift(p.struct, p.lift_arity, p.cover_mode, p.noncollapse, rest))
        pats = _dedup_lifts(done)
        return PatternFamily(fam.sig, pats, "full", fam.lift_arity)

    if not any(p.noncollapse or p.free_tuples for p in fam.patterns):
        return fam
    return injective_expansion(fam, cap)


def injective_expansion(fam: PatternFamily, cap: int = EXPAND_CAP) -> PatternFamily:
    """Rewrite a plain or injective family as an injective family with the
    same language, dropping every noncollapse constraint.

    A plain pattern occurs in a lift exactly when one of its quotients
    occurs injectively, and a quotient of a quotient is again a quotient.
    So a pattern with an unconstrained element pair splits into the
    quotient that identifies the pair and the variant that keeps the pair
    apart: an occurrence of the pattern either identifies the pair, and so
    is an occurrence of the quotient, or keeps it apart.  Once every pair
    is kept apart, plain matching of the pattern is injective matching.  Injective families already keep every
    pair apart, so their constraints are simply dropped.
    """
    if fam.mode_tag == "full":
        raise ValueError("full families have no injective expansion")
    if any(p.free_tuples for p in fam.patterns):
        raise ValueError("free tuples only make sense in full mode")
    if fam.mode_tag == "injective":
        pats = tuple(Lift(p.struct, p.lift_arity, p.cover_mode) for p in fam.patterns)
        return PatternFamily(fam.sig, pats, "injective", fam.lift_arity)
    queue = list(fam.patterns)
    done = []
    while queue:
        if len(queue) + len(done) > cap:
            raise GuardExceededError("partial-injective expansion exceeds the cap")
        p = queue.pop()
        n = p.struct.n
        missing = None
        for x in range(n):
            for y in range(x + 1, n):
                if (x, y) not in p.noncollapse:
                    missing = (x, y)
                    break
            if missing:
                break
        if missing is None:
            done.append(Lift(p.struct, p.lift_arity, p.cover_mode))
            continue
        x, y = missing
        queue.append(Lift(p.struct, p.lift_arity, p.cover_mode, p.noncollapse | {(x, y)}, frozenset()))
        # collapsed variant: identify y with x, constraints carried through images
        cmap = _collapse_map(n, x, y)
        q = quotient(p.struct, cmap, n - 1)
        carried = set()
        for u, v in p.noncollapse:
            cu, cv = cmap[u], cmap[v]
            if cu != cv:
                carried.add(tuple(sorted((cu, cv))))
            # a constrained pair forced together is contradictory: the
            # collapsed variant only exists because (x, y) was unconstrained,
            # so cu == cv can only happen via (x, y) itself
        queue.append(Lift(q, p.lift_arity, "none", frozenset(carried), frozenset()))
    pats = _dedup_lifts(done)
    return PatternFamily(fam.sig, pats, "injective", fam.lift_arity)


def _dedup_lifts(lifts):
    seen = {}
    for p in lifts:
        seen.setdefault(lift_canonical_form(p), p)
    return tuple(sorted(seen.values(), key=lambda p: (p.struct.n, lift_canonical_form(p))))
