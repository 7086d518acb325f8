"""Structural analysis: incidence cycles, girth, forests, components, blocks.

A cycle of length t >= 2 alternates t distinct elements and t distinct
tuples, consecutive ones incident; a tuple with a repeated coordinate is a
degenerate cycle of length 1.  All of this lives on the incidence view:
a bipartite graph with one node per element and one per tuple occurrence.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

from .structures import Structure, induced


@dataclass(frozen=True)
class IncidenceView:
    """Bipartite incidence graph of a structure.

    Nodes 0..n-1 are elements; node n+k is the k-th tuple occurrence.
    `tuple_nodes[k]` is (symbol_index, tuple); adjacency lists hold
    distinct incident nodes; `degenerate` flags repeated coordinates.
    """

    n: int
    tuple_nodes: tuple
    adj: tuple
    degenerate: bool


def incidence_view(a: Structure) -> IncidenceView:
    cached = a._cache.get("incidence")
    if cached is not None:
        return cached
    tuple_nodes = sorted(a.all_tuples())
    adj = [[] for _ in range(a.n + len(tuple_nodes))]
    degenerate = False
    for k, (si, t) in enumerate(tuple_nodes):
        node = a.n + k
        distinct = sorted(set(t))
        if len(distinct) < len(t):
            degenerate = True
        for x in distinct:
            adj[node].append(x)
            adj[x].append(node)
    view = IncidenceView(a.n, tuple(tuple_nodes), tuple(map(tuple, adj)), degenerate)
    a._cache["incidence"] = view
    return view


def shortest_cycle(a: Structure, shorter_than=None):
    """Shortest cycle as (length, [(symbol_index, tuple), ...]), or None.

    With `shorter_than` set, any cycle of smaller length is returned as
    soon as one is found (still the shortest among those).
    """
    view = incidence_view(a)
    if view.degenerate:
        if shorter_than is not None and shorter_than <= 1:
            return None
        for si, t in view.tuple_nodes:
            if len(set(t)) < len(t):
                return 1, [(si, t)]
    best = None
    limit = None if shorter_than is None else 2 * shorter_than
    adj = view.adj
    n = view.n
    # shortest cycle through each incidence edge (element x, tuple node r):
    # remove the edge, then BFS x -> r; cycle length = dist + 1 edges.
    for r in range(n, len(adj)):
        for x in adj[r]:
            cap = (2 * best[0] if best else None)
            if limit is not None and (cap is None or limit < cap):
                cap = limit
            dist = {x: 0}
            parent = {x: None}
            queue = deque([x])
            found = None
            while queue:
                u = queue.popleft()
                if cap is not None and dist[u] + 1 >= cap:
                    continue
                for w in adj[u]:
                    if u == x and w == r:
                        continue  # the removed edge
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        if w == r:
                            found = w
                            queue.clear()
                            break
                        queue.append(w)
            if found is not None:
                length = (dist[found] + 1) // 2
                if best is None or length < best[0]:
                    path = []
                    u = found
                    while u is not None:
                        path.append(u)
                        u = parent[u]
                    tuples = [view.tuple_nodes[u - n] for u in path if u >= n]
                    best = (length, tuples)
                    if shorter_than is not None and length < shorter_than:
                        return best
    if shorter_than is not None and best is not None and best[0] >= shorter_than:
        return None
    return best


def girth(a: Structure):
    """Length of a shortest cycle, or math.inf for a forest."""
    cached = a._cache.get("girth")
    if cached is None:
        found = shortest_cycle(a)
        cached = math.inf if found is None else found[0]
        a._cache["girth"] = cached
    return cached


def _join_classes(parent, elems):
    """One union-find step of the incidence-forest test: join the classes of `elems`.

    `parent[x]` is x's parent, or minus the size of x's class when x is a
    root.  A tuple node closes an incidence cycle exactly when two of its
    coordinates are equal or already connected; then nothing changes and
    the answer is None.  Otherwise the smaller classes hang under the
    largest, and the answer lists the (root, old entry) pairs overwritten,
    so a caller can undo the step by writing them back.
    """
    roots = []
    for x in elems:
        while parent[x] >= 0:
            x = parent[x]
        if x in roots:
            return None
        roots.append(x)
    undo = [(r, parent[r]) for r in roots]
    top = min(roots, key=parent.__getitem__, default=None)
    for r in roots:
        if r != top:
            parent[top] += parent[r]
            parent[r] = top
    return undo


def is_forest(a: Structure) -> bool:
    """Is the incidence graph acyclic?  One union-find pass over the tuples."""
    parent = [-1] * a.n
    return all(_join_classes(parent, t) is not None for _, t in a.all_tuples())


def connected_component_elements(a: Structure):
    """Partition of the universe by incidence connectivity (sorted lists)."""
    view = incidence_view(a)
    seen = [False] * len(view.adj)
    comps = []
    for start in range(a.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = []
        queue = deque([start])
        while queue:
            u = queue.popleft()
            if u < a.n:
                comp.append(u)
            for w in view.adj[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        comps.append(sorted(comp))
    return comps


def connected_components(a: Structure):
    """Each component as an induced structure (tuples never cross components)."""
    return [induced(a, comp) for comp in connected_component_elements(a)]


@dataclass(frozen=True)
class Block:
    """One biconnected component: original element ids, its tuples, and a
    renumbered structure containing exactly those tuples."""

    elements: tuple
    tuples: tuple
    structure: Structure


def _incidence_blocks(view: IncidenceView):
    """Blocks of the incidence graph as lists of edges (iterative low-point DFS)."""
    adj = view.adj
    total = len(adj)
    visited = [False] * total
    blocks = []
    for start in range(total):
        if visited[start] or not adj[start]:
            continue
        discovery = {start: 0}
        low = {start: 0}
        visited[start] = True
        edge_stack = []
        stack = [(start, start, iter(adj[start]))]
        while stack:
            grandparent, parent, children = stack[-1]
            advanced = False
            for child in children:
                if child == grandparent:
                    continue
                if child in discovery:
                    if discovery[child] < discovery[parent]:
                        low[parent] = min(low[parent], discovery[child])
                        edge_stack.append((parent, child))
                else:
                    discovery[child] = low[child] = len(discovery)
                    visited[child] = True
                    edge_stack.append((parent, child))
                    stack.append((parent, child, iter(adj[child])))
                    advanced = True
                    break
            if advanced:
                continue
            stack.pop()
            if len(stack) > 1:
                if low[parent] >= discovery[grandparent]:
                    idx = edge_stack.index((grandparent, parent))
                    blocks.append(edge_stack[idx:])
                    del edge_stack[idx:]
                low[grandparent] = min(low[grandparent], low[parent])
            elif edge_stack:
                blocks.append(edge_stack[:])
                edge_stack.clear()
    return blocks


def biconnected_components(a: Structure):
    """Blocks of `a`: tuples partitioned so that only elements can be cut points.

    Incidence-graph blocks are merged whenever they share a tuple node, so
    every tuple lands in exactly one block; isolated elements form trivial
    single-element blocks.
    """
    view = incidence_view(a)
    raw = _incidence_blocks(view)
    # union-find over raw blocks, merging on shared tuple nodes
    parent = list(range(len(raw)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    owner = {}
    for bi, edges in enumerate(raw):
        for u, v in edges:
            node = u if u >= a.n else v
            if node < a.n:
                continue
            if node in owner:
                ri, rj = find(owner[node]), find(bi)
                if ri != rj:
                    parent[rj] = ri
            else:
                owner[node] = bi
    grouped = {}
    for bi, edges in enumerate(raw):
        grouped.setdefault(find(bi), []).extend(edges)

    out = []
    covered = set()
    for edges in grouped.values():
        tuple_nodes = sorted({u if u >= a.n else v for u, v in edges if max(u, v) >= a.n})
        tuples = [view.tuple_nodes[t - a.n] for t in tuple_nodes]
        elements = sorted({x for _, t in tuples for x in t})
        covered.update(elements)
        idx = {x: i for i, x in enumerate(elements)}
        rels = {}
        for si, t in tuples:
            name = a.sig.names[si]
            rels.setdefault(name, set()).add(tuple(idx[x] for x in t))
        struct = Structure(a.sig, len(elements), rels)
        out.append(Block(tuple(elements), tuple(sorted(tuples)), struct))
    for x in range(a.n):
        if x not in covered:
            out.append(Block((x,), (), Structure(a.sig, 1)))
    out.sort(key=lambda b: b.elements)
    return out
