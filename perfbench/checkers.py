"""Independent answer checks for the benchmark.

Nothing here calls homkit's search, membership or validators.  Structures
come in as plain data: ``(n, {symbol: set of tuples})``, written ``Plain``
below, or for digraphs just ``(n, arcs)``.  Each checker re-derives an
answer from the definition, from a classical theorem, or from another
library (networkx, numpy).
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

# ---------------------------------------------------------------------------
# exhaustive map tables and definition-level witness validation
# ---------------------------------------------------------------------------

_MAP_TABLES: dict = {}


def map_table(na: int, nb: int) -> np.ndarray:
    """Every map 0..na-1 -> 0..nb-1 as the rows of an (nb**na, na) array."""
    key = (na, nb)
    table = _MAP_TABLES.get(key)
    if table is None:
        if na == 0:
            table = np.zeros((1, 0), dtype=np.int64)
        else:
            grids = np.meshgrid(*([np.arange(nb)] * na), indexing="ij")
            table = np.stack([g.ravel() for g in grids], axis=1).astype(np.int64)
        _MAP_TABLES[key] = table
    return table


def _membership(nb: int, arity: int, tuples) -> np.ndarray:
    """Flat boolean table over nb**arity slots: slot t is set iff t is a tuple."""
    table = np.zeros(max(nb, 1) ** arity, dtype=bool)
    for t in tuples:
        table[np.ravel_multi_index(t, (nb,) * arity)] = True
    return table


def _map_rows(a, b, mode):
    """(maps, ok): the map table of a -> b and which rows satisfy the mode."""
    na, rels_a = a
    nb, rels_b = b
    maps = map_table(na, nb)
    ok = np.ones(maps.shape[0], dtype=bool)
    for name, ra in rels_a.items():
        rb = rels_b[name]
        arity = _arity(ra, rb)
        if arity is None:
            continue
        table = _membership(nb, arity, rb)
        slots = itertools.product(range(na), repeat=arity) if mode == "full" else ra
        for t in slots:
            image = np.ravel_multi_index(tuple(maps[:, x] for x in t), (nb,) * arity)
            ok &= table[image] if mode != "full" else table[image] == (t in ra)
    if mode == "injective":
        ok &= _injective_rows(maps)
    return maps, ok


def oracle_hom_exists(a, b, mode: str = "plain") -> bool:
    """Does some map a -> b satisfy the mode's definition?  Exhausts all |B|^|A| maps.

    `a` and `b` are Plain structures over the same symbols.  Plain mode
    preserves every tuple, injective mode also needs distinct images, and
    full mode needs every slot of `a` to be a tuple exactly when its image
    is one.
    """
    maps, ok = _map_rows(a, b, mode)
    return bool(ok.any())


def hom_rows(a, b) -> frozenset:
    """Every plain homomorphism a -> b, as tuples."""
    maps, ok = _map_rows(a, b, "plain")
    return frozenset(map(tuple, maps[ok].tolist()))


def _arity(ra, rb):
    for t in itertools.chain(ra, rb):
        return len(t)
    return None


def _injective_rows(maps: np.ndarray) -> np.ndarray:
    ok = np.ones(maps.shape[0], dtype=bool)
    for i, j in itertools.combinations(range(maps.shape[1]), 2):
        ok &= maps[:, i] != maps[:, j]
    return ok


def valid_map(a, b, mapping, mode: str = "plain") -> bool:
    """Definition-level check that `mapping` is a mode-homomorphism a -> b."""
    na, rels_a = a
    nb, rels_b = b
    if len(mapping) != na or any(not (0 <= v < nb) for v in mapping):
        return False
    for name, ra in rels_a.items():
        rb = rels_b[name]
        if any(tuple(mapping[x] for x in t) not in rb for t in ra):
            return False
    if mode == "injective" and len(set(mapping)) != na:
        return False
    if mode == "full":
        for name, ra in rels_a.items():
            arity = _arity(ra, rels_b[name])
            if arity is None:
                continue
            for t in itertools.product(range(na), repeat=arity):
                if (t in ra) != (tuple(mapping[x] for x in t) in rels_b[name]):
                    return False
    return True


def digraph(n: int, arcs):
    """A digraph as a Plain structure with the single symbol E."""
    return (n, {"E": frozenset(map(tuple, arcs))})


# ---------------------------------------------------------------------------
# graph colouring, transitive tournaments, 2-element targets
# ---------------------------------------------------------------------------

def colouring(n: int, edges, k: int, first=()):
    """An exact proper k-colouring search; returns a colour list or None.

    Branches on the uncoloured vertex with the most distinct neighbour
    colours (DSATUR), trying a new colour only as the next unused one.
    Vertices in `first` are coloured before the rest; that changes the
    order, never the answer.
    """
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            return None  # a loop admits no proper colouring
        adj[u].add(v)
        adj[v].add(u)
    colour = [-1] * n
    first = list(first)

    def pick():
        for v in first:
            if colour[v] < 0:
                return v
        best, best_key = -1, None
        for v in range(n):
            if colour[v] < 0:
                key = (len({colour[w] for w in adj[v] if colour[w] >= 0}), len(adj[v]))
                if best_key is None or key > best_key:
                    best, best_key = v, key
        return best

    def solve(coloured, used):
        if coloured == n:
            return True
        v = pick()
        taken = {colour[w] for w in adj[v]}
        for c in range(min(used + 1, k)):
            if c in taken:
                continue
            colour[v] = c
            if solve(coloured + 1, max(used, c + 1)):
                return True
        colour[v] = -1
        return False

    return list(colour) if solve(0, 0) else None


def proper_colouring(edges, colours) -> bool:
    return all(colours[u] != colours[v] for u, v in edges)


def longest_walk(n: int, arcs) -> float:
    """Arcs on a longest directed walk: inf with a directed cycle, else the longest path."""
    out = [[] for _ in range(n)]
    indeg = [0] * n
    for u, v in arcs:
        out[u].append(v)
        indeg[v] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    longest = [0] * n
    for u in order:  # Kahn's algorithm; `order` grows while it is read
        for v in out[u]:
            longest[v] = max(longest[v], longest[u] + 1)
            indeg[v] -= 1
            if indeg[v] == 0:
                order.append(v)
    if len(order) < n:
        return float("inf")
    return max(longest, default=0)


def maps_to_transitive_tournament(n: int, arcs, k: int) -> bool:
    """Gallai-Roy: G -> T_k iff no directed walk in G has k arcs."""
    return longest_walk(n, arcs) < k


def two_element_hom(n: int, arcs, m: int, target_arcs) -> bool:
    """Digraph hom into a target with m <= 2 elements, decided as 2-SAT.

    Variable v is True when v maps to element 1.  Each arc (u, v) forbids
    every image pair the target lacks, which is one 2-clause per pair.
    """
    target_arcs = set(target_arcs)
    if m == 0:
        return n == 0
    if m == 1:
        return not arcs or (0, 0) in target_arcs
    if m != 2:
        raise ValueError("two_element_hom takes targets with at most 2 elements")
    # literal 2*v is "v maps to 1", 2*v+1 is "v maps to 0"
    imp = [[] for _ in range(2 * n)]

    def lit(v, value):
        return 2 * v if value == 1 else 2 * v + 1

    def clause(p, q):  # p or q
        imp[p ^ 1].append(q)
        imp[q ^ 1].append(p)

    for u, v in arcs:
        for i, j in itertools.product((0, 1), repeat=2):
            if (i, j) in target_arcs or (u == v and i != j):
                continue
            clause(lit(u, 1 - i), lit(v, 1 - j))
    comp = _strong_components(imp)
    return all(comp[2 * v] != comp[2 * v + 1] for v in range(n))


def _strong_components(adj):
    """Component index per node (iterative Tarjan)."""
    index = [-1] * len(adj)
    low = [0] * len(adj)
    comp = [-1] * len(adj)
    on_stack = [False] * len(adj)
    stack, counter, ncomp = [], 0, 0
    for root in range(len(adj)):
        if index[root] >= 0:
            continue
        work = [(root, 0)]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, i = work[-1]
            if i < len(adj[v]):
                work[-1] = (v, i + 1)
                w = adj[v][i]
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, 0))
                elif on_stack[w]:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return comp


# ---------------------------------------------------------------------------
# girth, isomorphism, closed walks
# ---------------------------------------------------------------------------

def incidence_girth(plain) -> float:
    """Girth in homkit's sense: half the shortest cycle of the incidence graph.

    A tuple repeating a coordinate is a cycle of length 1; two tuples
    sharing two elements make a cycle of length 2.
    """
    n, rels = plain
    g = nx.Graph()
    g.add_nodes_from(("x", x) for x in range(n))
    for name, tuples in rels.items():
        for t in tuples:
            if len(set(t)) < len(t):
                return 1
            for x in t:
                g.add_edge(("t", name, t), ("x", x))
    return nx.girth(g) / 2


def to_networkx(plain) -> nx.DiGraph:
    """Binary symbols become labelled arcs and unary symbols node labels."""
    n, rels = plain
    g = nx.DiGraph()
    for x in range(n):
        g.add_node(x, unary=frozenset(name for name, ts in rels.items() if (x,) in ts))
    for name, tuples in rels.items():
        for t in tuples:
            if len(t) == 2:
                u, v = t
                labels = g.edges[u, v]["symbols"] if g.has_edge(u, v) else frozenset()
                g.add_edge(u, v, symbols=labels | {name})
            elif len(t) != 1:
                raise ValueError("to_networkx handles unary and binary symbols only")
    return g


def isomorphic(a, b) -> bool:
    """Isomorphism of Plain structures with unary and binary symbols (networkx VF2)."""
    return nx.is_isomorphic(
        to_networkx(a),
        to_networkx(b),
        node_match=lambda p, q: p["unary"] == q["unary"],
        edge_match=lambda p, q: p["symbols"] == q["symbols"],
    )


def transitive_tournament(k: int):
    return digraph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def has_closed_3_walk(n: int, arcs) -> bool:
    """trace(A^3) > 0: some directed walk of 3 arcs returns to its start."""
    adj = np.zeros((n, n), dtype=np.int64)
    for u, v in arcs:
        adj[u, v] = 1
    return int(np.trace(adj @ adj @ adj)) > 0


# ---------------------------------------------------------------------------
# SNP formulas and forbidden-pattern languages by brute force
# ---------------------------------------------------------------------------

def snp_holds(formula, n: int, arcs) -> bool:
    """Naive SNP evaluation over every choice of proof relations.

    `formula` is ``(proof, clauses)`` with ``proof = [(name, arity), ...]``
    and each clause ``(variables, atoms, inequalities)``; an atom is
    ``(symbol, args, positive)`` with symbol ``"E"`` for the input.  The
    structure satisfies the formula iff some proof relations make no
    clause's conjunction true under any valuation.
    """
    proof, clauses = formula
    bit = {}
    for name, arity in proof:
        for t in itertools.product(range(n), repeat=arity):
            bit[(name, t)] = len(bit)
    choices = np.arange(1 << len(bit), dtype=np.int64)
    alive = np.ones(choices.shape[0], dtype=bool)
    arcs = set(arcs)
    for variables, atoms, inequalities in clauses:
        for values in itertools.product(range(n), repeat=len(variables)):
            env = dict(zip(variables, values))
            if any(env[x] == env[y] for x, y in inequalities):
                continue
            need_set = need_clear = 0
            holds = True
            for symbol, args, positive in atoms:
                t = tuple(env[v] for v in args)
                if symbol == "E":
                    holds = (t in arcs) == positive
                else:
                    mask = 1 << bit[(symbol, t)]
                    if positive:
                        need_set |= mask
                    else:
                        need_clear |= mask
                if not holds:
                    break
            if not holds or need_set & need_clear:
                continue
            alive &= ~(((choices & need_set) == need_set) & ((choices & need_clear) == 0))
    return bool(alive.any())


def lift_member(n: int, arcs, patterns, colours) -> bool:
    """Brute-force monadic FP membership in plain mode.

    Tries every colouring of the elements by `colours` and accepts when no
    pattern (a Plain structure over E and the colour symbols) maps into
    the coloured copy.
    """
    for choice in itertools.product(range(len(colours)), repeat=n):
        rels = {"E": frozenset(arcs)}
        for ci, name in enumerate(colours):
            rels[name] = frozenset((x,) for x in range(n) if choice[x] == ci)
        if not any(oracle_hom_exists(p, (n, rels)) for p in patterns):
            return True
    return False


def small_digraphs(max_n: int):
    """Every labelled digraph with at most max_n vertices, loops allowed."""
    for n in range(max_n + 1):
        slots = list(itertools.product(range(n), repeat=2))
        for mask in range(1 << len(slots)):
            yield n, frozenset(s for i, s in enumerate(slots) if mask >> i & 1)
