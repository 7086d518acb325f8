"""Homomorphism search: existence, enumeration, cores, and images.

Domains are integer bitmasks over the target universe.  Each call first
makes them node consistent (all-equal tuples such as loops), then, on
sources with more than 4 elements, arc consistent over binary tuples by
AC-3 with an element queue (held tuples in every mode, absent pairs in
full mode).  A backtracker then assigns elements in a static order with
forward checking on held binary tuples, and tests what is left (absent
pairs, tuples of arity 3 or more, noncollapse pairs) once the tuple is
fully assigned.

The plan reads each binary relation once, into adjacency lists per
constraint code: for each element, its partners in held tuples and, in
full mode, in absent pairs.  The degrees, the forward checks and the arc
pass all read these lists.  The arc pass revises an element's partners
one code at a time, and skips a code whose support (the target values
its partners may take) is the one it last applied from that element.

Every search follows one element order per source and mode: most tuples
first, ties by index.  Values are tried in increasing order along it, so
`hom_maps` yields each map once, in lexicographic order of its images read
in that element order, and its first map is the `hom_exists` witness.
Every pruning step removes only values that lie in no solution, so it
changes the speed but never the sequence of maps.  The arc pass is skipped
when every domain is already too large for any revision to prune (into a
clique, for one).

The generic loop also skips interchangeable values (Freuder, AAAI 1991;
Van Hentenryck et al., IJCAI 2003).  Two target values are twins when
swapping them is an automorphism of the target (`_twins`), as any two
colours of K_k are, or two vertices on one side of K_{m,n}.  When a value
v fails at a stage (its checks fail, forward checking wipes a domain out,
or its subtree yields no map) and no earlier stage took v, the stage skips
v's twins that no earlier stage took.  The swap of v and such a twin fixes
every earlier value, so it turns each map with the twin at that stage
into one with v there, and there is none: the skipped values lie in no
map either.

First-map callers (`hom_exists`, `_maps_to` and the avoidance searches
of `core_of`) try one assignment before searching a source of more than
16 elements: the least value of every arc-consistent domain.  Every map
lies inside those domains, so when that assignment is a map it is
pointwise below every map, hence the least in any element order and the
search's first map: the witness does not change.  In plain mode, over
relations of arity at most 2, it is a map whenever the arc pass leaves
every domain nonempty and the target's relations are min-closed (Jeavons
& Cooper, AIJ 1995), as those of the transitive tournament T_k are.  T_k
is the dual of the directed path with k + 1 vertices, and a target has
tree duality exactly when the arc pass decides it (Feder & Vardi, SIAM
J. Comput. 1998).  The assignment is not tried when every domain is the
same, as into a clique, where it would put every element on one value.

A search plan is built once per source and mode.  On a source of more
than 16 elements it is built in two parts: what the arc pass reads at
once, and the order and stage tables at the first search that runs on
it, so a call that the arc pass refutes, or that the least assignment
answers, never builds them.  A plan of 1 to 16 elements is built whole
and also emitted as Python: one generator function with a `while` loop
per stage over the stage's domain bitmask, the stage's checks as guards
and its forward checks as straight-line ANDs, compiled under the file
name `<homkit plan>` (16 stays below CPython's limit of 20 nested
blocks).  It makes the same pruning steps as the generic loop, which
larger sources run, except the twin skips, and both give the same
sequence.  Compiled functions are kept in one module-level dict keyed by
the plan's shape: its integers, packed into bytes (`_shape_key`).  The
text names no symbol or element, so a fresh source of a known shape (a
`core_of` round, a tree dual, a pattern shadow) reuses the function
without emitting or compiling anything, and the dict gains one entry per
distinct shape.

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
    _trusted_homomorphism,
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
    """(relations, support rows by code, all-equal mask per symbol, full mask, least by code), cached.

    `least[code]` is the least domain size whose values, taken together,
    support every target value through the code's rows: a domain of that
    size meets every row of the transposed relation (or, for a complement
    code, leaves every row), so an arc revision from it prunes nothing.
    """
    tables = b._cache.get("target")
    if tables is not None:
        return tables
    n = b.n
    full_mask = (1 << n) - 1
    rows = []
    self_masks = []
    least = []
    for (_, arity), r in zip(b.sig.symbols, b.rels):
        if arity == 2:
            out = [0] * n
            inn = [0] * n
            for x, y in r:
                out[x] |= 1 << y
                inn[y] |= 1 << x
            rows += [out, inn, [full_mask ^ m for m in out], [full_mask ^ m for m in inn]]
            ins, outs = list(map(int.bit_count, inn)), list(map(int.bit_count, out))
            least += [n + 1 - min(ins, default=0), n + 1 - min(outs, default=0),
                      max(ins, default=0) + 1, max(outs, default=0) + 1]
        else:
            rows += [None] * 4
            least += [None] * 4
        self_masks.append(sum(1 << v for v in range(n) if (v,) * arity in r))
    tables = (b.rels, rows, self_masks, full_mask, least)
    b._cache["target"] = tables
    return tables


def _twins(b: Structure):
    """Per target value u, the mask of its twins, or None when no value has one; cached.

    A twin of u is a value w (u among them) such that swapping u and w is
    an automorphism of b; being twins is an equivalence, so each mask is
    one class.  Values are grouped by their all-equal bits, their row
    popcounts and their counts of tuples of arity 3 or more, and each value
    of a group is tested against one member of each class found so far.
    Within a group, a binary symbol needs no tuple: the swap keeps it when
    the out-rows of u and w agree outside {u, w} and so do the in-rows,
    since equal loops and popcounts then hold (u, w) exactly when (w, u).
    Of the wider tuples, only those that contain u are mapped through the
    swap and looked up: equal counts make the ones that contain w follow.
    """
    if "twins" in b._cache:
        return b._cache["twins"]
    rels, rows, self_masks, _, _ = _target_tables(b)
    n = b.n
    binary = [(rows[4 * si], rows[4 * si + 1]) for si, (_, k) in enumerate(b.sig.symbols) if k == 2]
    wide = [[] for _ in range(n)]  # per value: (relation, tuple) of arity 3 or more that contain it
    for si, (_, arity) in enumerate(b.sig.symbols):
        if arity > 2:
            for t in rels[si]:
                for x in set(t):
                    wide[x].append((rels[si], t))
    groups = {}
    for u in range(n):
        key = (tuple(m >> u & 1 for m in self_masks),
               tuple((out[u].bit_count(), inn[u].bit_count()) for out, inn in binary), len(wide[u]))
        groups.setdefault(key, []).append(u)

    def swappable(u, w):
        pair = 1 << u | 1 << w
        for out, inn in binary:
            if (out[u] ^ out[w]) & ~pair or (inn[u] ^ inn[w]) & ~pair:
                return False
        swap = {u: w, w: u}
        return all(tuple(swap.get(z, z) for z in t) in r for r, t in wide[u])

    twins = [0] * n
    for members in groups.values():
        classes = []  # lists of twins, each tested through its first value
        for w in members:
            for cls in classes:
                if swappable(cls[0], w):
                    cls.append(w)
                    break
            else:
                classes.append([w])
        for cls in classes:
            mask = sum(1 << u for u in cls)
            for u in cls:
                twins[u] = mask
    if all(m & (m - 1) == 0 for m in twins):
        twins = None
    b._cache["twins"] = twins
    return twins


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


# Plans of sources with at most this many elements run as emitted loop
# nests, one `while` per element: CPython refuses more than 20 statically
# nested blocks in one function.
_NEST_LIMIT = 16
# Compiled searches by plan shape (see `_shape_key`), shared by every
# source and mode whose plan has that shape.
_COMPILED = {}
_PLAN_GLOBALS = {}  # one globals dict for all emitted code, which reads only builtins


def _free_slots(a: Structure, mode: HomMode):
    """The free slots of `mode` as (symbol index, tuple) pairs."""
    return {(a.sig.index(name), t) for name, t in mode.free_tuples}


def _source_plan(a: Structure, mode: HomMode):
    """Compile the source side of a search once per (structure, mode).

    One pass over the tuples finds the all-equal ones (for `node`) and
    reads each binary relation into adjacency lists by code (see
    `_target_tables`): `lists[x]` holds x's partners, the other ends of x's
    held tuples u != v under codes 4*symbol and 4*symbol + 1.  In full mode
    the absent pairs that are not free are listed the same way, under
    4*symbol + 2 and 4*symbol + 3.  The same pass counts each element's
    loops and the tuples of other arities that contain it; `_stage_tables`
    adds the held list lengths to make the degrees, and builds the order
    and the per-stage tables.

    The plan is (search, node, watches) on a source of 5 to `_NEST_LIMIT`
    elements.  `watches` is the list of (code, lists) for every code with a
    partner, the adjacency lists themselves: when D(x) shrinks, the arc
    pass revises lists[x] under each code.  `search` is the plan emitted as
    Python (`_emit_search`); the stage tables are built at once, since the
    shape key is made of them.  On a source of 1 to 4 elements, where no
    arc pass runs, the plan is (search, None, None): the emitted code folds
    `node` in, and the lists are dropped once the stage tables are built.

    On an empty or larger source the plan is the list [None, node, watches,
    degrees, stages]: only what the arc pass reads is built at once.
    `stages`, the order and stage tables that `_search_loop` reads, stays
    None until the first search that runs on the plan (`hom_maps` builds it
    then, from the lists and the partial `degrees`), so a call that the arc
    pass refutes, or whose least arc-consistent assignment is a map
    (`_least_map`), never sorts the elements or builds a stage table.
    """
    partial = mode.noncollapse or mode.free_tuples
    key = ("plan", mode.tag, mode.noncollapse, mode.free_tuples) if partial else mode.tag
    plan = a._cache.get(key)
    if plan is not None:
        return plan
    _check_mode(a, mode)
    n = a.n
    full = mode.tag == "full"
    free = _free_slots(a, mode) if full else ()  # read only in full mode
    deg = [0] * n  # loops and tuples of other arities; the held lists' lengths come in _stage_tables
    node = [()] * n  # per element: (symbol, present)
    groups = []  # (code, per element: its partners under it)
    for si, (_, arity) in enumerate(a.sig.symbols):
        ra = a.rels[si]
        loops = []  # elements with a held all-equal tuple
        if arity == 2:
            heads, tails = [[] for _ in range(n)], [[] for _ in range(n)]
            for u, v in ra:
                if u != v:
                    heads[u].append(v)
                    tails[v].append(u)
                else:
                    deg[u] += 1
                    loops.append(u)
            if any(heads):
                groups += [(4 * si, heads), (4 * si + 1, tails)]
            if full:
                heads, tails = [[] for _ in range(n)], [[] for _ in range(n)]
                for u in range(n):
                    for v in range(n):
                        # a free slot waives only the absence requirement:
                        # held tuples are always preserved
                        if u != v and (u, v) not in ra and (si, (u, v)) not in free:
                            heads[u].append(v)
                            tails[v].append(u)
                if any(heads):
                    groups += [(4 * si + 2, heads), (4 * si + 3, tails)]
        else:
            for t in ra:
                if t.count(t[0]) == arity:
                    loops.append(t[0])
                for x in set(t):
                    deg[x] += 1
        for x in range(n) if full else loops:
            t = (x,) * arity
            if t in ra or (si, t) not in free:
                _push(node, x, (si, t in ra))

    if 0 < n <= _NEST_LIMIT:
        order, *stages = _stage_tables(a, mode, groups, deg)
        # on sources of 4 elements or fewer the arc pass costs more than it
        # prunes: the emitted code folds node consistency in, and the plan
        # drops the lists
        folded = node if n <= 4 else None
        injective = mode.tag == "injective"
        shape = _shape_key(n, order, folded, injective, stages)
        search = _COMPILED.get(shape)
        if search is None:
            search = _COMPILED[shape] = _compile_search(_emit_search(n, order, folded, injective, stages))
        plan = (search, None, None) if n <= 4 else (search, node, groups)
    else:
        plan = [None, node, groups, deg, None]
    a._cache[key] = plan
    return plan


def _stage_tables(a: Structure, mode: HomMode, groups, deg):
    """The search order and the per-stage tables of a plan: (order, fwd,
    checks2, checks, collapse_check, collapse_fwd).

    `groups` are the plan's adjacency lists.  `deg` counts each element's
    loops and tuples of other arities; the held list lengths complete it.
    Stage s assigns element order[s], most tuples first, ties by index.
    What each stage enforces:
    - fwd[s]: a held binary tuple with one later coordinate y restricts D(y)
      to rows[code][value] as soon as its earlier coordinate is assigned;
    - checks2[s]: full mode only, absent pairs u != v whose later coordinate
      is assigned at s must not map onto a target tuple;
    - checks[s]: tuples of arity 3 or more, tested once fully assigned;
    - collapse_check[s] / collapse_fwd[s]: noncollapse pairs, checked against
      the earlier partner and pruned from the later partner's domain.
    (node[x], the all-equal tuples (x, ..., x), is folded into x's initial
    domain.)  Entries come by symbol, then by the pair's first element,
    then as the relation lists its tuples (absent pairs: by second
    element).  A table that stays empty (checks2 outside full mode, checks
    without a symbol of arity 3 or more, the collapse tables without
    noncollapse pairs) is one shared tuple of empty tuples.  A slot of
    checks or the collapse tables gets a list at its first entry; fwd and
    checks2 have a list per stage.
    """
    n = a.n
    full = mode.tag == "full"
    pairs = iter(groups)
    for (code, heads), (_, tails) in zip(pairs, pairs):  # each code's lists come with its transpose
        if code & 2 == 0:  # held pairs: add each element's partners
            deg = [d + len(h) + len(t) for d, h, t in zip(deg, heads, tails)]
    order = sorted(range(n), key=deg.__getitem__, reverse=True)
    stage_of = [0] * n
    for s, x in enumerate(order):
        stage_of[x] = s

    empty = ((),) * n
    fwd = [[] for _ in range(n)]  # per stage: (later element, code)
    checks2 = [[] for _ in range(n)] if full else empty  # per stage: (symbol, u, v) that must stay absent
    checks = [()] * n if any(k > 2 for _, k in a.sig.symbols) else empty  # per stage: (symbol, tuple, present)
    for code, heads in groups[::2]:
        if code & 2:  # absent pairs
            si = code >> 2
            for u, vs in enumerate(heads):
                su = stage_of[u]
                for v in vs:
                    sv = stage_of[v]
                    checks2[su if su > sv else sv].append((si, u, v))
            continue
        for u, vs in enumerate(heads):
            su = stage_of[u]
            for v in vs:
                if su < stage_of[v]:
                    fwd[su].append((v, code))
                else:
                    fwd[stage_of[v]].append((u, code + 1))
    if checks is not empty:
        free = _free_slots(a, mode) if full else ()
        for si, (_, arity) in enumerate(a.sig.symbols):
            if arity > 2:
                ra = a.rels[si]
                for t in itertools.product(range(n), repeat=arity) if full else ra:
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
    return order, fwd, checks2, checks, collapse_check, collapse_fwd


def _shape_key(n, order, node, injective, stages):
    """Everything `_emit_search` reads, as integers: equal keys give equal code.

    Each list is written as its length followed by its entries, so the
    integers decode back to the arguments.  They are packed into bytes when
    every one fits in a byte, into a tuple otherwise.
    """
    ints = [n, injective, node is None, *order]
    for entries in node or ():
        ints.append(len(entries))
        for si, present in entries:
            ints += (si, present)
    fwd, checks2, checks, collapse_check, collapse_fwd = stages
    for s in range(n):
        ints.append(len(fwd[s]))
        for y, code in fwd[s]:
            ints += (y, code)
        ints.append(len(checks2[s]))
        for entry in checks2[s]:
            ints += entry
        ints.append(len(checks[s]))
        for si, t, present in checks[s]:
            ints += (si, len(t), *t, present)
        ints += (len(collapse_check[s]), *collapse_check[s], len(collapse_fwd[s]), *collapse_fwd[s])
    try:
        return bytes(ints)
    except ValueError:
        return tuple(ints)


def _emit_search(n, order, node, injective, stages):
    """The plan as the source text of one generator function `search`.

    Stage s is a `while` loop taking the values of element order[s] from
    its domain bitmask, lowest first.  The stage's checks (absent pairs,
    tuples of arity 3 or more, noncollapse pairs) are one guard; its
    forward checks are straight-line ANDs with the rows of its value (and,
    for injective mode and noncollapse pairs, with the complement of its
    bit), each followed by a wipe-out test.  The innermost stage yields the
    values in element order.  With `node`, the function takes the target
    tables and `avoid` and builds the node-consistent domains itself;
    without it, it takes the tables and the domains of `_initial_domains`.
    Names are made of letters and plan integers only.
    """
    fwd, checks2, checks, collapse_check, collapse_fwd = stages
    stage_of = [0] * n
    for s, x in enumerate(order):
        stage_of[x] = s
    val = [f"v{stage_of[x]}" for x in range(n)]  # the value of element x
    rows, rels, masks = set(), set(), set()
    ind = " "
    if node is None:
        cur = [f"e{x}" for x in range(n)]  # per element: the name of its current domain
        body = [f"{ind}{', '.join(cur)}, = doms"]
    else:
        cur = [None] * n
        body = [f"{ind}full = tables[3] if avoid is None else tables[3] ^ 1 << avoid"]
        named = {"": "full"}  # an entry domain's terms -> the first element's name for it
        for x, entries in enumerate(node):
            terms = "".join(f" & m{si}" if present else f" & ~m{si}" for si, present in entries)
            if terms not in named:
                masks.update(si for si, _ in entries)
                named[terms] = f"e{x}"
                body += [f"{ind}e{x} = full{terms}", f"{ind}if not e{x}: return"]
            cur[x] = named[terms]
    for s, x in enumerate(order):
        body += [f"{ind}a{s} = {cur[x]}", f"{ind}while a{s}:"]
        ind += " "
        body += [f"{ind}b{s} = a{s} & -a{s}", f"{ind}a{s} ^= b{s}", f"{ind}v{s} = b{s}.bit_length() - 1"]
        tests = [f"r{4 * si}[{val[u]}] & b{stage_of[w]}" for si, u, w in checks2[s]]
        tests += [f"({', '.join(val[z] for z in t)}) {'not in' if present else 'in'} t{si}"
                  for si, t, present in checks[s]]
        tests += [f"v{s} == {val[y]}" for y in collapse_check[s]]
        rows.update(4 * si for si, _, _ in checks2[s])
        rels.update(si for si, _, _ in checks[s])
        if tests:
            body.append(f"{ind}if {' or '.join(tests)}: continue")
        if s == n - 1:
            body.append(f"{ind}yield {', '.join(val)},")
            break
        terms = {}  # later element -> what restricts its domain at this stage
        for y, code in fwd[s]:
            terms.setdefault(y, []).append(f"r{code}[v{s}]")
            rows.add(code)
        cleared = set(order[s + 1:]) if injective else set(collapse_fwd[s])
        if cleared:
            body.append(f"{ind}k{s} = ~b{s}")
            for y in cleared:
                terms.setdefault(y, []).append(f"k{s}")
        for y in sorted(terms, key=stage_of.__getitem__):
            name = f"d{s}_{y}"
            body += [f"{ind}{name} = {cur[y]} & {' & '.join(terms[y])}", f"{ind}if not {name}: continue"]
            cur[y] = name
    head = [f"def search(tables, {'doms' if node is None else 'avoid'}):"]
    head += [f" r{code} = tables[1][{code}]" for code in sorted(rows)]
    head += [f" t{si} = tables[0][{si}]" for si in sorted(rels)]
    head += [f" m{si} = tables[2][{si}]" for si in sorted(masks)]
    return "\n".join(head + body) + "\n"


def _compile_search(text, filename="<homkit plan>"):
    """The one function that `text` defines, compiled under `filename`.

    Profiles and tracebacks show that name: `<homkit plan>` for searches,
    `<homkit walker>` for the occurrence walkers of `patterns`.
    """
    namespace = {}
    exec(compile(text, filename, "exec"), _PLAN_GLOBALS, namespace)
    (function,) = namespace.values()
    return function


def _initial_domains(n, plan, tables, avoid):
    """Node-consistent domains, then arc-consistent ones (AC-3); None on a wipe-out.

    No domain holds the target element `avoid`, if one is given.

    AC-3 keeps a queue of elements whose domain shrank.  Popping x revises
    x's partners one group at a time, a group being lists[x] for one
    (code, lists) of the plan's watches: every partner y gets D(y) &= the
    support, the OR of rows[code][v] over v in D(x), memoised by (D(x),
    code).  A group is skipped when its support equals the one last applied
    from (x, code): domains only shrink, so every partner already lies
    inside it.  The greatest arc-consistent domains are unique, so the
    queue order does not matter.  When every domain is at least as large
    as the target's `least` size for every watched code, no revision can
    prune, and the node-consistent domains are returned as they are.
    """
    _, rows, self_masks, full_mask, least = tables
    if avoid is not None:
        full_mask ^= 1 << avoid
    node, watches = plan[1], plan[2]
    doms = []
    for x in range(n):
        d = full_mask
        for si, present in node[x]:
            d &= self_masks[si] if present else ~self_masks[si]
        if d == 0:
            return None
        doms.append(d)
    if min(map(int.bit_count, doms)) >= max([least[c] for c, _ in watches], default=0):
        return doms

    ncodes = len(rows)
    support = {}  # D(x) * ncodes + code -> OR of the code's rows over D(x)
    applied = [-1] * (n * ncodes)  # x * ncodes + code -> the support last applied to that group
    queue = list(range(n))
    queued = [True] * n
    while queue:
        x = queue.pop()
        queued[x] = False
        base, at = doms[x] * ncodes, x * ncodes
        for code, lists in watches:
            ys = lists[x]
            if not ys:
                continue
            sup = support.get(base + code)
            if sup is None:
                sup = 0
                row = rows[code]
                rest = doms[x]
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    sup |= row[bit.bit_length() - 1]
                support[base + code] = sup
            if applied[at + code] != sup:  # else every partner already lies inside sup
                applied[at + code] = sup
                for y in ys:
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


def _search_loop(n, stages, b, tables, doms, injective):
    """The generic search: the plan's order and stage tables, walked by one loop.

    The loop also skips the twins of a failed value (see `_twins`).  Stage
    s keeps `used[s]`, the values the earlier stages took, and `got[s]`,
    the number of maps yielded when its current value went one stage
    deeper.  A value v fails when its checks fail, when forward checking
    wipes a domain out, or when its subtree ends with no new map; if v is
    not in `used[s]`, its twins outside `used[s]` leave `rem[s]`.  This is
    exact: the swap of v and such a twin w is an automorphism of b that
    fixes every earlier value and the avoided element, which lies in no
    domain, so it turns each map with w at stage s into one with v there,
    and the search, complete below stage s, found none.  Only maps that
    do not exist are skipped, so the sequence of maps does not change.
    The twin masks are looked up at the first failure, so a search that
    never backtracks never computes them.
    """
    order, fwd, checks2, checks, collapse_check, collapse_fwd = stages
    rels, rows = tables[0], tables[1]
    val = [-1] * n
    dom_stack = [None] * (n + 1)
    rem = [0] * n
    used = [0] * n
    got = [0] * n
    yields = 0
    failed = False  # whether the value last taken at stage s lies in no map
    twins = None  # the masks of `_twins`, or () when no value has a twin
    dom_stack[0] = doms
    rem[0] = doms[order[0]]
    s = 0
    while s >= 0:
        if failed:
            failed = False
            v = val[order[s]]
            if twins is None:
                twins = _twins(b) or ()
            if twins and not used[s] >> v & 1:
                rem[s] &= ~twins[v] | used[s]
        r = rem[s]
        if r == 0:
            s -= 1
            failed = s >= 0 and got[s] == yields
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
            failed = True
            continue

        if s + 1 == n:
            yields += 1
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
                failed = True
                continue
        else:
            new = cur  # nothing to restrict: share the domain list
        got[s] = yields
        s += 1
        used[s] = used[s - 1] | bit
        dom_stack[s] = new
        rem[s] = new[order[s]]


def _least_map(a: Structure, mode: HomMode, watches, tables, doms):
    """The least value of every domain, as a tuple, if it is a map in `mode`; else None.

    Every map lies inside the arc-consistent domains, since pruning drops
    only values that lie in no map (with an avoided element too, which no
    domain holds).  So when these least values form a map, it is
    pointwise at most every map: the least map in any element order, and
    the search's first map.  They are tested against what the search
    tests, up to the first failure: held binary tuples and, in full mode,
    absent pairs, through the plan's lists and the target rows;
    injectivity; noncollapse pairs; and tuples of arity 3 or more, except
    in full mode, where their n^arity slots are the search's to test and
    the shortcut gives up.  All-equal tuples hold by node consistency.
    """
    low = [(d & -d).bit_length() - 1 for d in doms]
    rows = tables[1]
    for code, lists in watches:
        if code & 1 == 0:  # kinds 0 and 2, read from the first element of each pair
            row = rows[code]
            for u, vs in enumerate(lists):
                if vs:
                    r = row[low[u]]
                    for v in vs:
                        if not r >> low[v] & 1:
                            return None
    if mode.tag == "injective" and len(set(low)) < len(low):
        return None
    for x, y in mode.noncollapse:
        if low[x] == low[y]:
            return None
    for (_, arity), ra, rb in zip(a.sig.symbols, a.rels, tables[0]):
        if arity > 2:
            if mode.tag == "full":
                return None  # its n^arity absent slots are the search's to test
            for t in ra:
                if tuple(map(low.__getitem__, t)) not in rb:
                    return None
    return tuple(low)


def hom_maps(a: Structure, b: Structure, mode: HomMode = PLAIN, *, _avoid=None, _first=False):
    """An iterator over every valid map exactly once, as a mapping tuple.

    Maps come in lexicographic order of their images read in the plan's
    element order (most tuples first, ties by index); the first one is the
    `hom_exists` witness.  `_avoid`, a target element, searches into the
    substructure induced on the others without building it.  Arguments are
    checked at the call, before any map is asked for.

    First-map callers (`hom_exists`, `_maps_to`, `_shrinking_endo`) pass
    `_first`, and may get that first map alone: on a source above
    `_NEST_LIMIT` whose arc-consistent domains are not all equal, the
    least assignment is tried before the search (`_least_map`).  Equal
    domains are skipped because nothing pruned them apart: into K_k, say,
    where the least assignment puts every element on one value.  The stage
    tables of the plan are built here, at its first search.
    """
    if a.sig is not b.sig and a.sig != b.sig:
        raise SignatureMismatchError(
            f"source and target signatures differ: {a.sig.names} vs {b.sig.names}"
        )
    plan = _source_plan(a, mode)
    n = a.n
    if n == 0:
        return iter(((),))
    if b.n == 0 or n > b.n and mode.tag == "injective":
        return iter(())
    tables = _target_tables(b)
    search = plan[0]
    if plan[2] is None:
        return search(tables, _avoid)  # no arc pass: node consistency is in the emitted code
    doms = _initial_domains(n, plan, tables, _avoid)
    if doms is None:
        return iter(())
    if search is not None:
        return search(tables, doms)
    if _first and doms.count(doms[0]) < n:
        least = _least_map(a, mode, plan[2], tables, doms)
        if least is not None:
            return iter((least,))
    stages = plan[4]
    if stages is None:
        stages = plan[4] = _stage_tables(a, mode, plan[2], plan[3])
    return _search_loop(n, stages, b, tables, doms, mode.tag == "injective")


def hom_exists(a: Structure, b: Structure, mode: HomMode = PLAIN) -> Homomorphism | None:
    """The first map of `hom_maps`, as a Homomorphism, or None.

    On a source above `_NEST_LIMIT` elements the least value of every
    arc-consistent domain is tried first: when it is a map, it is pointwise
    below every map, so it is that first map, found without a search
    (`_least_map`).
    """
    m = next(hom_maps(a, b, mode, _first=True), None)
    return None if m is None else _trusted_homomorphism(a, b, m, mode)


def all_homs(a: Structure, b: Structure, mode: HomMode = PLAIN):
    """`hom_maps`, in its order, each map wrapped as a Homomorphism."""
    for m in hom_maps(a, b, mode):
        yield _trusted_homomorphism(a, b, m, mode)


def _maps_to(a: Structure, b: Structure, mode: HomMode = PLAIN) -> bool:
    """Whether `a` maps to `b`, for callers that need no witness."""
    return next(hom_maps(a, b, mode, _first=True), None) is not None


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
    When nothing drops and `a` has no element names (which `induced`
    would drop), `a` itself comes back, with the tables cached on it.
    """
    n = a.n
    rels, rows, self_masks, full, _ = _target_tables(a)
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
    if live == full and a.element_names is None:
        return a
    return induced(a, [z for z in range(n) if alive[z]])


def _shrinking_endo(a: Structure):
    """A non-surjective endomorphism of `a` as a list, or None if `a` is a core.

    One search per element x for a map a -> a - x: the map a -> a with x
    left out of every domain, which tries values in the order the induced
    substructure would, so it finds the same first map in `a`'s numbering.
    """
    for x in range(a.n):
        m = next(hom_maps(a, a, _avoid=x, _first=True), None)
        if m is not None:
            return list(m)
    return None


def is_core(a: Structure) -> bool:
    """True iff every endomorphism of `a` is an automorphism."""
    return _shrinking_endo(a) is None


def core_of(a: Structure) -> Structure:
    """The unique (up to isomorphism) hom-equivalent core substructure."""
    return _core_of_retracted(_retract_dominated(a))


def _core_of_retracted(current: Structure) -> Structure:
    """`core_of` for a structure that `_retract_dominated` leaves as it is."""
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
