"""Forbidden-pattern languages over monadic (and r-ary) partition lifts.

A pattern family over a lifted signature fixes a matching mode; a base
structure belongs to the language iff some partition lift of it (every
r-tuple in exactly one lift relation) admits no pattern under that mode.
Membership search assigns lift classes to r-tuples and excludes the
assignment fragments induced by pattern occurrences.  Each family
compiles its patterns' shadows, color maps and modes once, on first use,
and patterns that share a shadow and a mode share one occurrence search.
The members of such a group are compacted once: a partial pattern
written out as all its completions merges back into one shorter member
(`_compact`).  Each compacted group is then emitted as Python, a pair of
walker functions compiled together under the file name `<homkit walker>`
and kept in one module-level dict keyed by the group's encoding, so
families rebuilt from the same formula reuse them.

One decider, `_decide_space`, routes both `fp_membership` and
`eval_snp`, as forbidden lifts and MMSNP are one problem.  On a space of
at most `_MASK_LIMIT` assignments the mask walker ORs every occurrence's
forbidden assignments into one integer, a bit per assignment, and the
lowest clear bit is the lexicographically least avoiding colouring
(`_avoiding`).  On larger spaces, a plain monadic family whose
normalized patterns are forests has a language that is a finite union
of CSPs: its templates, the cored partition powers of the
Nešetřil–Tardif duals, are built once per family value
(`_build_templates`; a formula takes its general translation's), and
one search into each decides membership.  Any other family's
occurrences are collected by the nogood walker as nogoods, and
`solve_nogoods` decides them.

Every route hands membership the color classes of the coloring it found,
one frozenset of r-tuples per color, and the witness lift takes them as
its lift relations.  On the mask route they depend only on (n, r, k, i),
for assignment i of the k^(n^r), so they come from a bounded table keyed
by those four integers (`_mask_classes`), which the few small structures
of a sweep share.

Witnesses are partition lifts throughout: a covering witness can always
shed extra classes without creating pattern occurrences in plain and
injective modes, and the full-mode families produced by the formula
translations match exact classes, so partitions lose no generality here.
"""

from __future__ import annotations

import functools
import itertools
import numbers
from dataclasses import dataclass
from math import log2

from .duality import dedup_hom_equivalent, forest_family_duals, terminal_structure
from .enumeration import _sweep, all_structures
from .errors import GuardExceededError, InvalidStructureError, SignatureMismatchError
from .homs import _compile_search, _maps_to, _set_partitions, core_of, hom_exists, hom_maps
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
EXPAND_CAP = 4096


@dataclass(frozen=True)
class PatternFamily:
    """Finitely many forbidden lifts plus the matching mode."""

    sig: Signature
    patterns: tuple
    mode_tag: str = "plain"
    lift_arity: int = 1

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, computed once: `_TEMPLATES`
        hashes its owner on every call above `_MASK_LIMIT`."""
        return hash((self.sig, self.patterns, self.mode_tag, self.lift_arity))

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

    @functools.cached_property
    def _layout(self) -> tuple:
        """Where `_partition_witness` finds each relation of `sig`.

        Per symbol: the color index of a lift symbol, or the number of
        colors plus the base index of a base symbol.
        """
        colors = {name: ci for ci, name in enumerate(self._colors)}
        base = itertools.count(len(colors))
        return tuple(colors[name] if name in colors else next(base) for name, _ in self.sig.symbols)

    def pattern_mode(self, p: Lift) -> HomMode:
        return HomMode(self.mode_tag, p.noncollapse, p.free_tuples)

    def is_monadic(self) -> bool:
        return self.lift_arity == 1

    @functools.cached_property
    def _compiled(self):
        """The occurrence programs of the patterns a partition lift can contain.

        Programs are grouped as `_group_programs` describes; patterns have
        no absent slots, and a cell (r-tuple, 0, color index) says that the
        image of one colored r-tuple takes that color.  The one space holds
        a variable per r-tuple of the structure, with one value per color.
        Built on first use and kept for the family's lifetime, so membership
        calls share the shadows and the search plans cached on them.
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
            cells = tuple((t, 0, ci) for t, ci in cmap.items())
            out.append((shadow(p), self.pattern_mode(p), frozenset(), cells))
        return _group_programs(out, (len(self._colors),))


# Occurrence walkers by group (see `_walker`), shared by every family and
# formula whose group encodes the same.
_WALKERS = {}

# Spaces of at most this many assignments are decided on one bitmask (see
# `_avoiding`); larger ones through templates (`_build_templates`), or
# by nogoods and `solve_nogoods` when the family has none.  Each mask
# operation costs time in proportion to the space, so the solver overtakes
# the masks past about 2^15 assignments on random colouring families.
_MASK_BITS = 13
_MASK_LIMIT = 1 << _MASK_BITS

# Literal masks by (variables, values); see `_literal_masks`.
_LITERALS = {}

# Templates by family or formula value, as `_build_templates` makes them,
# None for those without; once `_TEMPLATES_KEPT` are kept, the oldest
# entry makes room for a new one.
_TEMPLATES = {}
_TEMPLATES_KEPT = 128

# Witness classes of the mask route by (n, r, k, i), the classes that
# assignment i gives the r-tuples of n elements under k values (see
# `_mask_classes`); the oldest entry goes out once `_CLASSES_KEPT` are kept.
_CLASSES = {}
_CLASSES_KEPT = 256

# The dual universe cap of `_build_templates`, below `tree_dual`'s default:
# a tree dual's time grows with the square of its universe (the one-colour
# path with 8 elements, 2,916 maps, takes 25-35 ms on a 2-vCPU host, and
# 10 elements, 26,244 maps, 1.5 s), so a family with larger duals is left
# to the solver rather than decided at length on its first large call.
_TEMPLATE_CAPS = {"universe_cap": 1 << 12}


def _group_programs(programs, sizes) -> tuple:
    """Merge occurrence programs that share their occurrences, and compile each group.

    A program is (shadow, HomMode, absent slots, cells).  Absent slots are a
    frozenset of (symbol index, tuple of shadow elements); a cell (tuple,
    space, value) stands for the literal "the variable of the image of the
    tuple in space `space` takes `value`", and space i has sizes[i] values.
    Programs with equal shadow, mode and absent slots have the same
    occurrences in every structure, so they form one group, whose members
    are their cell sets.  Each group comes back as (shadow, HomMode,
    (nogoods, masks)), in order of first appearance; `_walker` compacts the
    members and compiles the two walkers, and `_walk_occurrences` and
    `_avoiding` run them.
    """
    groups = {}
    for sh, mode, absent, cells in programs:
        groups.setdefault((sh, mode, absent), set()).add(frozenset(cells))
    return tuple((sh, mode, _walker(sh.n, mode, absent, members, sizes))
                 for (sh, mode, absent), members in groups.items())


def _walker(n, mode, absent, members, sizes):
    """The walkers of one group, the pair (nogoods, masks) of `_emit_walker`
    compiled together, from `_WALKERS` when its encoding is known.

    The encoding holds everything the walkers depend on, as plain integers
    and tuples: the shadow size, whether the maps are injective, the
    noncollapse pairs, the absent slots, the space sizes and the members.
    A group is stored under its own encoding and under that of its
    compacted members, so families rebuilt from the same formula, and
    groups that compact alike, share both walkers, and a known group is
    neither compacted nor emitted again.
    """
    injective = mode.tag == "injective"
    apart = frozenset() if injective else mode.noncollapse
    key = (n, injective, apart, absent, sizes, frozenset(members))
    walkers = _WALKERS.get(key)
    if walkers is None:
        kept = _compact(members, sizes)
        compact_key = key[:5] + (frozenset(kept),)
        walkers = _WALKERS.get(compact_key)
        if walkers is None:
            args = (n, absent, kept, injective, apart)
            walkers = (_compile_search(_emit_walker(*args), "<homkit walker>"),
                       _compile_search(_emit_walker(*args, masks=True), "<homkit walker>"))
        _WALKERS[key] = _WALKERS[compact_key] = walkers
    return walkers


def _compact(members, sizes) -> list:
    """The members of a group with the same solutions and fewer, shorter nogoods.

    - A member with two values on one (tuple, space) never fires: dropped.
    - Members equal but for one cell (tuple, space, value), whose values
      cover all sizes[space] values of the space, imply the member without
      that cell: every colouring gives the cell's variable some value, and
      the member with that value then fires.  Merges repeat to a fixpoint,
      each member being filed once per cell under (member minus the cell,
      tuple, space) with the values seen there.
    - A member containing another member is dropped, since every
      occurrence that fires it fires the smaller one too.
    Two cells of a member that land on one variable at an occurrence do
    not break the argument: where they clash the walk drops the member and
    every merge of it alike.  Members are bitmasks over the distinct cells
    while they merge; the result comes shortest first.
    """
    cells, bit_of = [], {}
    live = set()
    for m in members:
        mask, seen = 0, {}
        for cell in m:
            t, space, v = cell
            if seen.setdefault((t, space), v) != v:
                break
            if cell not in bit_of:
                bit_of[cell] = 1 << len(cells)
                cells.append(cell)
            mask |= bit_of[cell]
        else:
            live.add(mask)
    slots = {}  # (tuple, space) -> its index
    slot, value, full = [], [], []  # per cell: its slot, 1 << its value, all values of its space
    for t, space, v in cells:
        slot.append(slots.setdefault((t, space), len(slots)))
        value.append(1 << v)
        full.append((1 << sizes[space]) - 1)
    nslots = max(len(slots), 1)
    values = {}  # (member minus a cell) * nslots + the cell's slot -> the values seen there
    work = list(live)
    while work:
        m = work.pop()
        bits = m
        while bits:
            bit = bits & -bits
            bits ^= bit
            i = bit.bit_length() - 1
            rest = m ^ bit
            key = rest * nslots + slot[i]
            got = values[key] = values.get(key, 0) | value[i]
            if got == full[i] and rest not in live:
                live.add(rest)
                work.append(rest)
    kept = []
    for m in sorted(live, key=int.bit_count):
        if all(k & m != k for k in kept):
            kept.append(m)
    kept = [frozenset(c for i, c in enumerate(cells) if m >> i & 1) for m in kept]
    return sorted(kept, key=lambda m: (len(m), sorted(m)))


def _emit_walker(n, absent, members, injective, apart, masks=False):
    """The source text of one group's walker `walk(maps, rels, spaces, add)`,
    or `walk(maps, rels, spaces)` with `masks`.

    For each map, unpacked into x0 .. x{n-1}, the walker skips it when an
    absent slot's image is a tuple of `rels`, then reads each variable a
    member needs once, as `spaces[space][image]` (the image is a bare
    element for a 1-tuple), and passes each member's nogood, a frozenset of
    (variable, value) literals, to `add`.  Two cells of one member on one
    space with distinct tuples and distinct values get a guard that the
    variables differ, unless the two tuples can never have one image: under
    injective maps, or when some position holds a noncollapse pair.  A
    member without cells makes the walker return True at the first map
    that passes the absent slots.  Names are made of letters and integers
    only.

    The mask variant reads each variable as its row of literal masks
    instead (see `_literal_masks`), ORs the AND of each member's cells into
    one integer `f` and returns it.  It needs no guards: two values of one
    variable have disjoint masks.
    """
    xs = [f"x{i}" for i in range(n)]

    def tuple_text(items):
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"

    def image(t):
        return xs[t[0]] if len(t) == 1 else tuple_text([xs[x] for x in t])

    def may_meet(t, u):
        return not injective and all(x == y or (x, y) not in apart and (y, x) not in apart for x, y in zip(t, u))

    body = [f" for {tuple_text(xs)} in maps:"]
    tests = [f"{tuple_text([xs[x] for x in t])} in r{si}" for si, t in sorted(absent)]
    if tests:
        body.append(f"  if {' or '.join(tests)}: continue")
    var = {}  # (tuple, space) -> the name of its variable
    for m in members:
        for t, space, _ in sorted(m):
            if (t, space) not in var:
                var[t, space] = name = f"v{len(var)}"
                body.append(f"  {name} = s{space}[{image(t)}]")
    terms = []
    for m in members:
        if not m:
            body.append("  return True")
            break
        cells = sorted(m)
        if masks:
            terms.append(" & ".join(f"{var[t, space]}[{v}]" for t, space, v in cells))
            continue
        guards = [f"{var[t, sp]} != {var[u, sq]}" for (t, sp, v), (u, sq, w) in itertools.combinations(cells, 2)
                  if sp == sq and t != u and v != w and may_meet(t, u)]
        add = f"add(frozenset({tuple_text([f'({var[t, space]}, {v})' for t, space, v in cells])}))"
        body.append(f"  if {' and '.join(guards)}: {add}" if guards else f"  {add}")
    if terms:
        body.append(f"  f |= {' | '.join(terms)}")
    head = ["def walk(maps, rels, spaces):" if masks else "def walk(maps, rels, spaces, add):"]
    head += [f" r{si} = rels[{si}]" for si in sorted({si for si, _ in absent})]
    head += [f" s{space} = spaces[{space}]" for space in sorted({space for _, space in var})]
    if masks:
        head.append(" f = 0")
        body.append(" return f")
    return "\n".join(head + body) + "\n"


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
    Once checked, it is turned into color classes by `_color_classes`, as
    the colorings of `fp_membership`'s template and solver routes are.
    """
    if a.sig is not fam.base_sig and a.sig != fam.base_sig:
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
    return _partition_witness(fam, a, _color_classes(coloring, coloring.values(), k))


def _color_classes(slots, coloring, k: int) -> tuple:
    """The k classes of a coloring, as frozensets: class c holds each slots[i]
    with coloring[i] == c."""
    classes = [[] for _ in range(k)]
    for t, c in zip(slots, coloring):
        classes[c].append(t)
    return tuple(map(frozenset, classes))


def _partition_witness(fam: PatternFamily, a: Structure, classes) -> Lift:
    """The partition lift of `a` whose lift relation of color c is classes[c].

    Unchecked: the caller passes one frozenset of r-tuples of `a` per
    color, every r-tuple in exactly one of them.
    """
    pool = [*classes, *a.rels]  # a.sig is the base part of fam.sig, in its order
    rels = tuple(map(pool.__getitem__, fam._layout))
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
    Membership and evaluation call it on spaces of more than `_MASK_LIMIT`
    assignments only; smaller ones are decided on one bitmask.
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

    A program, as `_group_programs` builds it, is (shadow, HomMode,
    (nogoods, masks)).  Every map `hom_maps` yields from the shadow into
    `a` is handed to the nogood walker, which skips the maps that hit an
    absent slot and adds the nogood of each member, its cells read as
    literals over `spaces[space]`, to one set.  A member that can never
    hold at a map adds nothing there, and a member without cells makes
    every occurrence unconditional, for which the walk returns None.
    Otherwise the set of distinct nogoods comes back in no particular
    order, which `solve_nogoods` does not depend on.
    """
    rels = a.rels
    nogoods = set()
    add = nogoods.add
    for sh, mode, (walk, _) in programs:
        if walk(hom_maps(sh, a, mode), rels, spaces, add):
            return None
    return nogoods


def _index_spaces(a: Structure, arities) -> tuple:
    """Per space, the variable index of each image, cached on `a`.

    Space i has a variable per arities[i]-tuple of `a`, in
    `itertools.product` order, the spaces numbered one after the other.
    Keys are as the walkers read images: bare elements for arity 1.
    """
    key = ("index", arities)
    spaces = a._cache.get(key)
    if spaces is None:
        spaces, first = [], 0
        for r in arities:
            tuples = itertools.product(range(a.n), repeat=r)
            spaces.append({t[0] if r == 1 else t: first + i for i, t in enumerate(tuples)})
            first += a.n ** r
        spaces = a._cache[key] = tuple(spaces)
    return spaces


def _literal_masks(nvars: int, k: int) -> list:
    """Per variable, per value: the assignments giving the variable that value.

    Assignment i of the k^nvars gives the variables the base-k digits of
    i, variable 0 the most significant, so increasing i is lexicographic
    order.  A set of assignments is an integer with bit i for assignment i.
    Cached by (nvars, k).
    """
    rows = _LITERALS.get((nvars, k))
    if rows is None:
        size = k ** nvars
        rows = []
        for j in range(nvars):
            block = k ** (nvars - 1 - j)  # a digit holds for `block` assignments in a row
            repeat = ((1 << size) - 1) // ((1 << k * block) - 1)  # one bit per run of k blocks
            rows.append(tuple((((1 << block) - 1) << value * block) * repeat for value in range(k)))
        _LITERALS[nvars, k] = rows
    return rows


def _avoiding(programs, a: Structure, arities, k: int) -> int:
    """The assignments no occurrence of `programs` in `a` forbids, one bit each.

    Spaces are as for `_index_spaces`, every variable with k values, and
    assignments as for `_literal_masks`.  Each image maps to its variable's
    row of literal masks (cached on `a`), the mask walkers OR each
    member's forbidden assignments into one integer, and the answer is its
    complement within the k^nvars assignments: 0 when a member without
    cells occurs.
    """
    key = ("masks", arities, k)
    hit = a._cache.get(key)
    if hit is None:
        rows = _literal_masks(sum(a.n ** r for r in arities), k)
        spaces = tuple({image: rows[i] for image, i in space.items()} for space in _index_spaces(a, arities))
        hit = a._cache[key] = spaces, (1 << k ** len(rows)) - 1
    spaces, full = hit
    rels = a.rels
    forbidden = 0
    for sh, mode, (_, masks) in programs:
        f = masks(hom_maps(sh, a, mode), rels, spaces)
        if f is True:
            return 0
        forbidden |= f
    return full & ~forbidden


def _least_coloring(programs, a: Structure, arities, k: int):
    """The lexicographically least assignment `_avoiding` leaves, as a list, or None."""
    free = _avoiding(programs, a, arities, k)
    if not free:
        return None
    return _digits((free & -free).bit_length() - 1, sum(a.n ** r for r in arities), k)


def _digits(i: int, nvars: int, k: int) -> list:
    """Assignment i of `_literal_masks` as a list: the `nvars` base-k digits
    of i, variable 0 the most significant."""
    coloring = [0] * nvars
    j = nvars
    while i:
        j -= 1
        i, coloring[j] = divmod(i, k)
    return coloring


def _mask_classes(n: int, r: int, k: int, i: int) -> tuple:
    """The classes of assignment i over the r-tuples of n elements with k
    values, as `_color_classes` makes them, tuples in `itertools.product`
    order; kept in `_CLASSES`.

    They depend on the four integers only, so the few small structures of a
    sweep share them: the digits are decoded on a miss alone.
    """
    key = n, r, k, i
    try:
        return _CLASSES[key]
    except KeyError:
        pass
    classes = _color_classes(itertools.product(range(n), repeat=r), _digits(i, n ** r, k), k)
    return _keep(_CLASSES, _CLASSES_KEPT, key, classes)


def _nogood_coloring(programs, a: Structure, arities, k: int):
    """An assignment avoiding the nogoods of `programs` in `a`, by `solve_nogoods`, or None.

    Spaces are as for `_index_spaces`, every variable with k values.
    """
    nogoods = _walk_occurrences(programs, a, _index_spaces(a, arities))
    if nogoods is None:
        return None
    return solve_nogoods(sum(a.n ** r for r in arities), k, nogoods)


def _keep(table: dict, kept: int, key, entry):
    """Store `entry` under `key`, first dropping the oldest entry of a table
    that holds `kept`; returns `entry`."""
    if len(table) >= kept:
        del table[next(iter(table))]
    table[key] = entry
    return entry


def _cached_templates(key, build):
    """The entry of `_TEMPLATES` under `key`, made by `build()` on a miss."""
    try:
        return _TEMPLATES[key]
    except KeyError:
        pass
    return _keep(_TEMPLATES, _TEMPLATES_KEPT, key, build())


def _build_templates(fam: PatternFamily):
    """(template, classes) pairs whose CSPs make up the language of `fam`, or None.

    Only plain monadic families without noncollapse pairs or free slots,
    whose normalized patterns are forests, have them: the templates of
    `decide_finite_union_csp` under `_TEMPLATE_CAPS`, in order.  classes[y]
    is the lift class of element y of the template, read off one map into
    the partition power it is the core of, so a map a -> template colours
    `a` into the lifted dual.  A family none of whose patterns can occur in
    a partition lift gets the terminal template, all in class 0; one with a
    0-element pattern gets no template, and nothing is a member.  None on a
    cyclic pattern or when a cap fires.
    """
    if fam.mode_tag != "plain" or not fam.is_monadic() or any(p.noncollapse or p.free_tuples for p in fam.patterns):
        return None
    out, powers = _decide(fam, _TEMPLATE_CAPS)
    if out.templates is None:
        return None
    if powers is None:
        return ((out.templates[0], (0,)),)
    return tuple((t, tuple(points[y][1] for y in next(hom_maps(t, power)))) for t, (power, points) in powers.items())


def _template_coloring(templates, a: Structure):
    """The classes of `a`'s elements by a map into the first template that takes one, or None."""
    for t, classes in templates:
        m = next(hom_maps(a, t), None)
        if m is not None:
            return [classes[y] for y in m]
    return None


def _decide_space(owner, build, a: Structure, arities, nvars: int, k: int, bits_cap, witness=True):
    """The classes of an assignment avoiding every occurrence of
    `owner._compiled` in `a`, or None.

    The space holds `nvars` variables with k values each, one per
    arities[i]-tuple of `a` in space i (see `_index_spaces`).  `owner` is
    a family or a formula, `build(owner)` makes its templates, and the
    route is the one `fp_membership` describes.  With `witness`, the one
    space holds the r-tuples of `a`, arities == (r,), and the answer is
    the assignment's k classes of r-tuples (`_color_classes`), from
    `_mask_classes` on a space of at most `_MASK_LIMIT` assignments.
    Without, it is any true value: the nonzero mask of `_avoiding` or the
    assignment as a list.
    """
    small = k == 1 or nvars <= _MASK_BITS and k ** nvars <= _MASK_LIMIT
    templates = None if small else _cached_templates(owner, lambda: build(owner))
    if templates is not None:
        coloring = _template_coloring(templates, a)
    else:
        if nvars * log2(k) > bits_cap:
            raise GuardExceededError(f"{k}^{nvars} assignments exceed the cap of 2^{bits_cap}")
        if small:
            free = _avoiding(owner._compiled, a, arities, k)
            if not (witness and free):
                return free or None
            return _mask_classes(a.n, arities[0], k, (free & -free).bit_length() - 1)
        coloring = _nogood_coloring(owner._compiled, a, arities, k)
    if coloring is None or not witness:
        return coloring
    return _color_classes(itertools.product(range(a.n), repeat=arities[0]), coloring, k)


def fp_membership(a: Structure, fam: PatternFamily, bits_cap: int = MEMBERSHIP_BITS_CAP):
    """A partition lift of `a` avoiding every pattern, or None.

    Search space: one variable per r-tuple of `a`, one value per lift
    symbol; every mode-respecting occurrence of a pattern shadow forbids
    the colors of its colored r-tuples' images.  `_decide_space` takes one
    of three routes, which `eval_snp` shares:
    - a space of at most `_MASK_LIMIT` colorings is decided on one bitmask
      by `_avoiding`, and the witness is the lexicographically least
      avoiding coloring, the r-tuples in `itertools.product` order; its
      color classes depend only on (a.n, r, number of colors, index of the
      coloring), and come from the bounded table `_CLASSES` under those
      four integers (`_mask_classes`);
    - on a larger space, a family whose language is a finite union of CSPs
      (see `_build_templates`, decided on the first such call and kept in
      `_TEMPLATES` by the family's value) is decided by searching `a` into
      its templates in turn, and the first map found colors the witness;
    - any other family collects the occurrences as nogoods, and
      `solve_nogoods` looks for a coloring avoiding them all.
    The last two routes turn their coloring into classes by
    `_color_classes`, and every route's witness is the partition lift
    with those classes (`_partition_witness`).  `bits_cap` bounds the log2
    of the space on the first and the last route, not on the templates':
    above it, GuardExceededError.
    """
    if a.sig is not fam.base_sig and a.sig != fam.base_sig:
        raise SignatureMismatchError("structure signature differs from the family's base part")
    colors = fam.colors()
    if not colors:
        raise ValueError("family signature has no lift symbols")
    r = fam.lift_arity
    classes = _decide_space(fam, _build_templates, a, (r,), a.n ** r, len(colors), bits_cap)
    if classes is None:
        return None
    return _partition_witness(fam, a, classes)


def union_families(f1: PatternFamily, f2: PatternFamily) -> PatternFamily:
    """Family whose language is the union of the two languages.

    A partition lift avoids every P of f1 or every Q of f2 iff it avoids
    every pairing of a P with a Q.  In plain mode P and Q may overlap, so
    the pairing is the disjoint union P + Q.  In injective mode each of P
    and Q must occur injectively, but the two may share elements: P + Q
    keeps every pair inside P and every pair inside Q apart, and
    `injective_expansion` turns those plain patterns into injective ones.
    Full mode raises ValueError, since there P + Q also forbids every tuple
    between the two parts.
    """
    if f1.sig != f2.sig or f1.mode_tag != f2.mode_tag or f1.lift_arity != f2.lift_arity:
        raise SignatureMismatchError("united families must share signature, mode and lift arity")
    if f1.mode_tag == "full":
        raise ValueError("full-mode families have no union family")
    if f1.mode_tag == "plain":
        pats = tuple(disjoint_union(p, q) for p in f1.patterns for q in f2.patterns)
        return PatternFamily(f1.sig, pats, "plain", f1.lift_arity)
    pats = tuple(disjoint_union(_all_apart(p), _all_apart(q)) for p in f1.patterns for q in f2.patterns)
    return injective_expansion(PatternFamily(f1.sig, pats, "plain", f1.lift_arity))


def _all_apart(p: Lift) -> Lift:
    """p with every pair of its elements as a noncollapse pair."""
    return Lift(p.struct, p.lift_arity, p.cover_mode, frozenset(itertools.combinations(range(p.n), 2)))


def normalize_family(fam: PatternFamily) -> PatternFamily:
    """Cored, homomorphism-minimal presentation of the family.

    Patterns whose tuples carry two lift classes can never occur in a
    partition lift and are dropped as vacuous.  Each other pattern is
    replaced by its core; the cores are deduplicated up to isomorphism and
    sorted by size, and those into which another one maps are dropped.
    Hom-equivalent cores are isomorphic, so no two members are
    hom-equivalent.
    """
    if not fam.is_monadic():
        raise ValueError("normalize_family expects a monadic family")
    if fam.mode_tag != "plain":
        raise ValueError("normalize_family expects a plain-mode family")
    cored = {}
    for p in fam.patterns:
        if p.noncollapse or p.free_tuples:
            raise ValueError("expand partial constraints before normalizing")
        if pattern_color_map(fam, p) is None:
            continue
        c = Lift(core_of(p.struct), fam.lift_arity, "none")
        cored.setdefault(lift_canonical_form(c), c)
    pats = _by_size_and_key(cored)
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
            if i != j and _maps_to(q.struct, p.struct):
                if i < j and _maps_to(p.struct, q.struct):
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
    return _partition_power(sig_base, dual)[0]


def _partition_power(sig_base: Signature, dual: Structure):
    """`partition_power` and its points, as (dual element, lift symbol index) pairs."""
    colors = [dual.rel(name) for name, _ in dual.sig.lift_symbols()]
    points = [(x, ci) for x in range(dual.n) for ci, rel in enumerate(colors) if (x,) in rel]
    index = {p: i for i, p in enumerate(points)}
    rels = {}
    for name, ar in sig_base.symbols:
        have = dual.rel(name)
        rels[name] = set()
        for cand in itertools.product(points, repeat=ar):
            if tuple(p[0] for p in cand) in have:
                rels[name].add(tuple(index[p] for p in cand))
    return Structure(sig_base, len(points), rels), points


def decide_finite_union_csp(fam: PatternFamily, duality_caps=None) -> DecisionOutcome:
    """Is the language a finite union of CSPs?  Forest core patterns say yes.

    Positive verdicts come with base templates (shadows of the lifted
    duals); a cyclic core pattern in the normalized family is the negative
    witness.  If the dual construction hits a size cap the positive
    verdict is still returned, without templates.
    """
    return _decide(fam, duality_caps)[0]


def _decide(fam: PatternFamily, duality_caps=None):
    """`decide_finite_union_csp`, and the dict of `_shadow_templates` when its
    templates come from duals (None otherwise)."""
    norm = normalize_family(fam)
    base = fam.base_sig
    if not norm.patterns:
        return DecisionOutcome(
            "finite_union_csp",
            templates=(terminal_structure(base),),
            note="degenerate: every structure belongs to the language",
        ), None
    for p in norm.patterns:
        found = shortest_cycle(p.struct)
        if found is not None:
            return DecisionOutcome(
                "not_finite_union", witness=p, witness_cycle=tuple(found[1])
            ), None
    kwargs = duality_caps or {}
    try:
        duals = forest_family_duals([p.struct for p in norm.patterns], **kwargs)
    except GuardExceededError as e:
        return DecisionOutcome("finite_union_csp", templates=None, note=f"duality cap: {e}"), None
    powers = _shadow_templates(base, duals)
    return DecisionOutcome("finite_union_csp", templates=tuple(powers)), powers


def _shadow_templates(base: Signature, duals) -> dict:
    """Base templates of lifted duals: cored partition powers, one per CSP.

    Each template, in order, maps to the partition power it is the core of
    and that power's points (see `_partition_power`).
    """
    powers = {}
    for d in duals:
        power, points = _partition_power(base, d)
        powers.setdefault(core_of(power), (power, points))
    return {t: powers[t] for t in dedup_hom_equivalent(powers)}


def corroborate_negative(fam: PatternFamily, template_size: int = 2, set_size: int = 2, max_n: int = 3):
    """Empirical support for a negative verdict: sweep tiny template sets.

    Returns the number of candidate sets tried; raises if any of them
    matches the language on all structures with at most max_n elements
    (which would contradict the verdict at this scale).
    """
    templates = list(all_structures(fam.base_sig, template_size))
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
    returns (True, None) or (False, counterexample).  A shared `cache`
    dict lets repeated sweeps reuse answers.
    """
    return _sweep(
        fam.base_sig, lambda a: fp_membership(a, fam) is not None, fam, templates, max_n, cache=cache
    )


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
    occurs injectively: the quotient by the partition of its elements that
    the occurrence induces.  A noncollapse pair may not be identified, so
    each pattern becomes its quotients by the partitions that keep every
    noncollapse pair apart.  Injective families already keep every pair
    apart, so their constraints are simply dropped.  `cap` bounds the
    number of quotients.
    """
    if fam.mode_tag == "full":
        raise ValueError("full families have no injective expansion")
    if any(p.free_tuples for p in fam.patterns):
        raise ValueError("free tuples only make sense in full mode")
    if fam.mode_tag == "injective":
        pats = tuple(Lift(p.struct, p.lift_arity, p.cover_mode) for p in fam.patterns)
        return PatternFamily(fam.sig, pats, "injective", fam.lift_arity)
    out = []
    for p in fam.patterns:
        for assign, m in _set_partitions(p.struct.n, p.noncollapse):
            if m == p.struct.n:  # the identity partition
                out.append(Lift(p.struct, p.lift_arity, p.cover_mode))
            else:
                out.append(Lift(quotient(p.struct, assign, m), p.lift_arity, "none"))
            if len(out) > cap:
                raise GuardExceededError("partial-injective expansion exceeds the cap")
    return PatternFamily(fam.sig, _dedup_lifts(out), "injective", fam.lift_arity)


def _dedup_lifts(lifts):
    seen = {}
    for p in lifts:
        seen.setdefault(lift_canonical_form(p), p)
    return _by_size_and_key(seen)


def _by_size_and_key(keyed) -> tuple:
    """The lifts of a {lift_canonical_form: lift} dict, sorted by size, then key."""
    return tuple(p for _, p in sorted(keyed.items(), key=lambda kp: (kp[1].struct.n, kp[0])))
