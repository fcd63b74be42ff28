"""Finite simple connected graphs, tailed-walk instances and small catalogs.

Vertices are labeled 1..n in all public interfaces.  Each undirected edge
{u, v} induces the two symmetric arcs (u, v) and (v, u); arc tuples are
(origin, terminus).
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass

from .ratlin import parse_rational, rat


class GraphError(ValueError):
    """Invalid graph construction or query."""


class InstanceParseError(GraphError):
    """Malformed instance document; carries the offending line number."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def vertex_pairs(n):
    """All unordered vertex pairs on 1..n in lexicographic order."""
    return [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]


class Graph:
    """Finite simple connected undirected graph on vertices 1..n.

    Immutable after construction.  Edges are stored sorted with u < v;
    this fixed ordering doubles as the edge orientation (u -> v) used by
    the incidence matrices.
    """

    __slots__ = ("n", "edges", "_adj", "_arcs", "_arc_index")

    def __init__(self, n, edges):
        if n < 2:
            raise GraphError("a graph needs at least 2 vertices")
        seen = set()
        for u, v in edges:
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        self.n = n
        self.edges = tuple(sorted(seen))
        adj = {v: [] for v in range(1, n + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self._adj = {v: tuple(sorted(ws)) for v, ws in adj.items()}
        if not self._connected():
            raise GraphError("disconnected graph")
        arcs = [(u, v) for u, v in self.edges] + [(v, u) for u, v in self.edges]
        self._arcs = tuple(sorted(arcs))
        self._arc_index = {a: i for i, a in enumerate(self._arcs)}

    def _connected(self):
        seen = {1}
        queue = deque([1])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.n

    @property
    def m(self):
        return len(self.edges)

    @property
    def arcs(self):
        """All 2|E| symmetric arcs, sorted lexicographically."""
        return self._arcs

    def arc_index(self, arc):
        return self._arc_index[arc]

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return (u, v) in self._arc_index

    def distance(self, u, v):
        """Shortest-path distance, by breadth-first search."""
        if u == v:
            return 0
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in self._adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    if y == v:
                        return dist[y]
                    queue.append(y)
        raise GraphError(f"no path between {u} and {v}")

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, edges={list(self.edges)})"


def complete_graph(n):
    return Graph(n, vertex_pairs(n))


def cycle_graph(n):
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(1, n)])


def star_graph(n):
    """Star with center 1 and n - 1 leaves."""
    return Graph(n, [(1, v) for v in range(2, n + 1)])


@dataclass(frozen=True)
class Bipartition:
    """The unique 2-coloring of a connected bipartite graph, vertex 1 in X."""

    X: frozenset
    Y: frozenset

    def side(self, v):
        """0 for v in X, 1 for v in Y."""
        if v in self.X:
            return 0
        if v in self.Y:
            return 1
        raise KeyError(v)

    def oriented(self, vertex_in_x):
        """The same bipartition, flipped if needed so vertex_in_x lies in X."""
        if vertex_in_x in self.X:
            return self
        return Bipartition(self.Y, self.X)


def _two_color(g):
    color = {1: 0}
    parent = {1: None}
    order = []
    queue = deque([1])
    while queue:
        u = queue.popleft()
        order.append(u)
        for w in g.neighbors(u):
            if w not in color:
                color[w] = 1 - color[u]
                parent[w] = u
                queue.append(w)
    return color, parent


def bipartition(g):
    """The bipartition of g (vertex 1 in X), or None if g has an odd cycle."""
    color, _ = _two_color(g)
    for u, v in g.edges:
        if color[u] == color[v]:
            return None
    X = frozenset(v for v in color if color[v] == 0)
    Y = frozenset(v for v in color if color[v] == 1)
    return Bipartition(X, Y)


def odd_cycle_witness(g):
    """A witness odd cycle (vertex sequence, closed implicitly), or None.

    Found from the first 2-coloring conflict of a breadth-first search;
    only existence matters downstream, so any valid odd cycle suffices.
    """
    color, parent = _two_color(g)
    for u, v in g.edges:
        if color[u] == color[v]:
            path_u, path_v = [u], [v]
            seen_u = {u: 0}
            x = u
            while parent[x] is not None:
                x = parent[x]
                seen_u[x] = len(path_u)
                path_u.append(x)
            x = v
            while x not in seen_u:
                x = parent[x]
                path_v.append(x)
            lca = path_v[-1]
            cycle = path_u[:seen_u[lca] + 1] + path_v[-2::-1]
            return cycle
    return None


def components(n, edges):
    """Union-find component labels {root: [vertices]} plus per-root edge counts."""
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {}
    edge_count = {}
    for v in range(1, n + 1):
        r = find(v)
        roots.setdefault(r, []).append(v)
        edge_count.setdefault(r, 0)
    for u, v in edges:
        edge_count[find(u)] += 1
    return roots, edge_count


def enumerate_connected(n):
    """All labeled connected simple graphs on n vertices (2 <= n <= 6).

    Deterministic order: ascending edge bitmask, where bit i marks the
    i-th pair in lexicographic order.
    """
    if not 2 <= n <= 6:
        raise GraphError(f"enumerate_connected supports 2 <= n <= 6, got {n}")
    pairs = vertex_pairs(n)
    out = []
    for mask in range(1, 1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        if len(components(n, edges)[0]) == 1:
            out.append(Graph(n, edges))
    return out


def edge_bitmask(g):
    """Edge bitmask of g over the lexicographic pair ordering."""
    idx = {p: i for i, p in enumerate(vertex_pairs(g.n))}
    mask = 0
    for e in g.edges:
        mask |= 1 << idx[e]
    return mask


def canonical_form(g):
    """Minimum edge bitmask over all vertex permutations (n <= 8).

    Two graphs are isomorphic iff their canonical forms are equal.
    """
    if g.n > 8:
        raise GraphError("canonical_form supports n <= 8")
    idx = {p: i for i, p in enumerate(vertex_pairs(g.n))}
    best = None
    for perm in itertools.permutations(range(1, g.n + 1)):
        mask = 0
        for u, v in g.edges:
            a, b = perm[u - 1], perm[v - 1]
            if a > b:
                a, b = b, a
            mask |= 1 << idx[(a, b)]
        if best is None or mask < best:
            best = mask
    return best


@dataclass(frozen=True)
class WalkInstance:
    """An internal graph with tails: boundary vertices, inflow and phase.

    Exactly one tail hangs off each boundary vertex; the boundary order
    fixes the indexing of the inflow vector and of the scattering matrix.
    """

    graph: Graph
    boundary: tuple
    inflow: tuple
    phase: int

    def __post_init__(self):
        object.__setattr__(self, "boundary", tuple(self.boundary))
        object.__setattr__(self, "inflow", tuple(rat(a) for a in self.inflow))
        if not 1 <= len(self.boundary) <= self.graph.n:
            raise GraphError("boundary size must be between 1 and n")
        if len(set(self.boundary)) != len(self.boundary):
            raise GraphError("boundary vertices must be pairwise distinct")
        for v in self.boundary:
            if not 1 <= v <= self.graph.n:
                raise GraphError(f"boundary vertex {v} out of range")
        if len(self.inflow) != len(self.boundary):
            raise GraphError("inflow length must match boundary length")
        if self.phase not in (1, -1):
            raise GraphError("phase must be +1 or -1")

    @property
    def r(self):
        return len(self.boundary)

    def tilde_degree(self, v):
        """Degree of v in the tailed graph (one extra per attached tail)."""
        return self.graph.degree(v) + (1 if v in self.boundary else 0)

    def inflow_at(self, v):
        """Inflow entering at vertex v (0 off the boundary)."""
        for j, b in enumerate(self.boundary):
            if b == v:
                return self.inflow[j]
        return rat(0)


def standard_instance(g, u1, un, z=-1):
    """Two tails at u1 and un with inflow (1, 0): the closed-form setting."""
    return WalkInstance(g, (u1, un), (rat(1), rat(0)), z)


def parse_instance(text):
    """Parse the line-oriented instance document format.

    Directives: ``n <int>``, ``e <u> <v>``, ``tail <v> <rational>``,
    ``z <+1|-1>``; ``#`` starts a comment.  Tail line order defines the
    boundary ordering.  The phase defaults to -1 when omitted.
    """
    n = None
    edges = []
    tails = []
    phase = -1
    phase_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        directive, args = tokens[0], tokens[1:]
        if directive == "n":
            if n is not None:
                raise InstanceParseError("duplicate 'n' directive", lineno)
            n = _parse_int(args, 1, "n", lineno)[0]
            if n < 2:
                raise InstanceParseError("n must be at least 2", lineno)
        elif directive == "e":
            if n is None:
                raise InstanceParseError("'e' before 'n'", lineno)
            u, v = _parse_int(args, 2, "e", lineno)
            if not (1 <= u <= n and 1 <= v <= n):
                raise InstanceParseError(f"edge vertex out of range: {u} {v}", lineno)
            if u == v:
                raise InstanceParseError(f"self-loop at vertex {u}", lineno)
            key = (min(u, v), max(u, v))
            if key in {(min(a, b), max(a, b)) for a, b in edges}:
                raise InstanceParseError(f"duplicate edge {key}", lineno)
            edges.append((u, v))
        elif directive == "tail":
            if n is None:
                raise InstanceParseError("'tail' before 'n'", lineno)
            if len(args) != 2:
                raise InstanceParseError("'tail' takes a vertex and a rational", lineno)
            try:
                v = int(args[0])
            except ValueError:
                raise InstanceParseError(f"bad vertex id {args[0]!r}", lineno) from None
            if not 1 <= v <= n:
                raise InstanceParseError(f"boundary vertex {v} out of range", lineno)
            if any(v == w for w, _ in tails):
                raise InstanceParseError(f"multiple tails at vertex {v}", lineno)
            try:
                a = parse_rational(args[1])
            except ValueError as exc:
                raise InstanceParseError(str(exc), lineno) from None
            tails.append((v, a))
        elif directive == "z":
            if phase_seen:
                raise InstanceParseError("duplicate 'z' directive", lineno)
            if len(args) != 1 or args[0] not in ("+1", "-1", "1"):
                raise InstanceParseError("phase must be +1 or -1", lineno)
            phase = int(args[0])
            phase_seen = True
        else:
            raise InstanceParseError(f"unknown directive {directive!r}", lineno)
    if n is None:
        raise InstanceParseError("missing 'n' directive")
    if not tails:
        raise InstanceParseError("at least one 'tail' line is required")
    try:
        graph = Graph(n, edges)
    except GraphError as exc:
        raise InstanceParseError(str(exc)) from None
    boundary = tuple(v for v, _ in tails)
    inflow = tuple(a for _, a in tails)
    return WalkInstance(graph, boundary, inflow, phase)


def _parse_int(args, count, directive, lineno):
    if len(args) != count:
        raise InstanceParseError(f"'{directive}' takes {count} integer argument(s)", lineno)
    out = []
    for a in args:
        try:
            out.append(int(a))
        except ValueError:
            raise InstanceParseError(f"bad integer {a!r}", lineno) from None
    return out
