"""Finite simple connected graphs, tailed-walk instances and small catalogs.

Vertices are labeled 1..n in all public interfaces.  Each undirected edge
{u, v} induces the two symmetric arcs (u, v) and (v, u); arc tuples are
(origin, terminus).

Everything worked out from a graph alone lives here too: its 2-colouring
(bipartition and odd-cycle witness), its L_z = D - zM and incidence
matrices, its factor enumeration and its canonical form.  One memo per
graph, bounded to the 32 most recently used graphs, colours, enumerates,
canonicalises and builds each L_z at most once, so every module above
reads these facts from one place.

The connected-graph catalog is enumerated from two tables, one per half
of the vertex pairs, that give every half-mask's edges and neighbour
bitmasks; a graph is built only for a connected mask, and without
revalidating edges the enumeration generated itself.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

from .ratlin import RAT_ONE, RatMatrix, parse_rational, rat


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


def _bfs(adj, root):
    """Breadth-first search from ``root`` over the neighbour lists ``adj``:
    (order, parent, depth), the vertices reached in visiting order, each
    after its parent, with their search-tree parents (None at the root)
    and their distances from root."""
    order = [root]
    parent = {root: None}
    depth = {root: 0}
    for u in order:                 # order grows as the search goes
        for w in adj[u]:
            if w not in depth:
                parent[w] = u
                depth[w] = depth[u] + 1
                order.append(w)
    return order, parent, depth


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
        if len(seen) < n - 1:          # before any O(n) allocation
            raise GraphError("disconnected graph")
        edges = tuple(sorted(seen))
        adj = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        # The edges are sorted, so each neighbour list is already ascending.
        adj = {v: tuple(ws) for v, ws in adj.items()}
        if len(_bfs(adj, 1)[0]) < n:
            raise GraphError("disconnected graph")
        self._fill_slots(n, edges, adj)

    def _fill_slots(self, n, edges, adj):
        """Set the state of a graph on 1..n with the sorted edge tuple
        ``edges`` and the ascending neighbour tuples ``adj``, as checked
        by __init__ or generated by enumerate_connected."""
        self.n = n
        self.edges = edges
        self._adj = adj
        # The arcs are built on first use: a catalog sweep constructs many
        # graphs that it never solves.
        self._arcs = self._arc_index = None

    @property
    def m(self):
        return len(self.edges)

    @property
    def arcs(self):
        """All 2|E| symmetric arcs, sorted lexicographically."""
        if self._arcs is None:
            self._arcs = tuple(sorted(
                self.edges + tuple((v, u) for u, v in self.edges)))
        return self._arcs

    def arc_index(self, arc):
        if self._arc_index is None:
            self._arc_index = {a: i for i, a in enumerate(self.arcs)}
        return self._arc_index[arc]

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def has_edge(self, u, v):
        return v in self._adj.get(u, ())

    def distance(self, u, v):
        """Shortest-path distance, by breadth-first search from u."""
        if u not in self._adj or v not in self._adj:
            raise GraphError(f"vertex out of range in ({u}, {v})")
        return _bfs(self._adj, u)[2][v]

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
    """Breadth-first 2-colouring from vertex 1: colour = depth parity.

    Returns (color, parent, order, odd_edge), all read-only: the colours,
    the spanning tree's parent links (None at the root), the visiting
    order, in which every vertex comes after its parent, and the first
    edge of g.edges whose ends share a colour.  odd_edge is None exactly
    when g is bipartite; otherwise its tree paths close an odd cycle.
    """
    order, parent, depth = _bfs(g._adj, 1)
    color = {v: d & 1 for v, d in depth.items()}
    odd_edge = next((e for e in g.edges if color[e[0]] == color[e[1]]), None)
    return (MappingProxyType(color), MappingProxyType(parent), tuple(order),
            odd_edge)


def bipartition(g):
    """The bipartition of g (vertex 1 in X), or None if g has an odd cycle."""
    return _GraphMemo(g).partition


def odd_cycle_witness(g):
    """A witness odd cycle (vertex sequence, closed implicitly), or None.

    Found from the first 2-coloring conflict of a breadth-first search;
    only existence matters downstream, so any valid odd cycle suffices.
    """
    _, parent, _, odd_edge = _GraphMemo(g).coloring
    if odd_edge is None:
        return None
    # Adjacent vertices of one colour share a depth, so climbing both ends
    # one parent per step, they first meet at their lowest common ancestor.
    up, down = [odd_edge[0]], [odd_edge[1]]
    while up[-1] != down[-1]:
        up.append(parent[up[-1]])
        down.append(parent[down[-1]])
    return up + down[-2::-1]


def _l_z(g, z):
    """L_z = D - zM; tails excluded."""
    off = rat(-z)
    m = RatMatrix.zeros(g.n, g.n)
    for u, v in g.edges:
        m.data[u - 1][v - 1] = m.data[v - 1][u - 1] = off
    for v in range(1, g.n + 1):
        m.data[v - 1][v - 1] = rat(g.degree(v))
    return m


def laplacian(g):
    """L = L_{+1} = D - M, positive semidefinite; grounded minors' dets
    count spanning trees."""
    return _l_z(g, 1)


def signless_laplacian(g):
    """Q = L_{-1} = D + M; nonsingular exactly when g is connected
    non-bipartite."""
    return _l_z(g, -1)


def incidence_oriented(g):
    """n x |E| oriented incidence matrix: +1 at the terminus (larger
    endpoint), -1 at the origin, per the fixed u -> v (u < v) orientation."""
    b = RatMatrix.zeros(g.n, g.m)
    for col, (u, v) in enumerate(g.edges):
        b.data[u - 1][col] = rat(-1)
        b.data[v - 1][col] = RAT_ONE
    return b


def incidence_nonoriented(g):
    """n x |E| non-oriented incidence matrix: +1 at both endpoints."""
    b = RatMatrix.zeros(g.n, g.m)
    for col, (u, v) in enumerate(g.edges):
        b.data[u - 1][col] = RAT_ONE
        b.data[v - 1][col] = RAT_ONE
    return b


def _enumerate_factors(g):
    """Count every member of the four factor families in one pruned search.

    Returns (tree count, {(u, v): two-forest count}, (iota1, its omega
    histogram), {v: (iota2, omega histogram)}); omega is the component
    count and histogram keys ascend.

    A depth-first search over edges in index order adds edges to a
    union-find that tracks each vertex's parity relative to its root
    (union by size, no path compression, undone on backtrack) and whether
    each component holds a cycle.  It rejects an edge that would close an
    even cycle or a second cycle in one component.  Adding edges never
    removes a cycle, so no superset of a rejected subset is a member of
    any family: every accepted subset is a pseudo-forest whose cycles are
    all odd, and each of them is visited exactly once.  Such a subset of
    k edges has exactly n - k tree components, so its size and omega say
    which family it belongs to:

    * k = n - 2, omega = 2: a two-forest, tallied under the vertex set of
      the part that holds vertex 1;
    * k = n - 1: one tree plus omega - 1 odd-unicyclic components,
      weight 4^(omega - 1), tallied under the tree's vertex set (omega = 1
      is a spanning tree);
    * k = n: omega odd-unicyclic components, weight 4^omega.

    The vertex-set tallies are expanded to vertex pairs and vertices at
    the end.  The search visits every factor explicitly and never forms a
    matrix, so it stays an oracle independent of the determinants.
    """
    n, edges = g.n, g.edges
    m = len(edges)
    full = (1 << (n + 1)) - 2                  # bit v marks vertex v
    parent = list(range(n + 1))
    parity = [0] * (n + 1)
    size = [1] * (n + 1)
    members = [1 << v for v in range(n + 1)]
    cyclic = [False] * (n + 1)
    forests = {}          # vertex set of vertex 1's part -> two-forests
    tree_parts = {}       # (tree vertex set, omega) -> factors of n-1 edges
    odd = {}              # omega -> all-odd-unicyclic factors

    def find(x):
        p = 0
        while parent[x] != x:
            p ^= parity[x]
            x = parent[x]
        return x, p

    def visit(start, k, omega, trees):
        # trees: the union of the vertex sets of the tree components.
        if k == n - 2:
            if omega == 2:
                part = members[find(1)[0]]
                forests[part] = forests.get(part, 0) + 1
        elif k == n - 1:
            key = (trees, omega)
            tree_parts[key] = tree_parts.get(key, 0) + 1
        elif k == n:
            odd[omega] = odd.get(omega, 0) + 1
            return
        # Stop where the remaining edges can no longer reach n - 2.
        for j in range(start, min(m, m + k + 3 - n)):
            ru, pu = find(edges[j][0])
            rv, pv = find(edges[j][1])
            if ru == rv:
                # The tree path u..v has parity pu ^ pv, so the closed
                # cycle is odd exactly when pu == pv.
                if cyclic[ru] or pu != pv:
                    continue
                cyclic[ru] = True
                visit(j + 1, k + 1, omega, trees & ~members[ru])
                cyclic[ru] = False
                continue
            if cyclic[ru] and cyclic[rv]:        # two cycles in one part
                continue
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            was_cyclic = cyclic[ru]
            if was_cyclic:
                merged_trees = trees & ~members[rv]
            elif cyclic[rv]:
                merged_trees = trees & ~members[ru]
            else:
                merged_trees = trees
            parent[rv] = ru
            parity[rv] = pu ^ pv ^ 1
            size[ru] += size[rv]
            members[ru] |= members[rv]
            cyclic[ru] = was_cyclic or cyclic[rv]
            visit(j + 1, k + 1, omega - 1, merged_trees)
            parent[rv] = rv                      # a root's parity is unread
            size[ru] -= size[rv]
            members[ru] ^= members[rv]
            cyclic[ru] = was_cyclic

    try:
        visit(0, 0, n, full)
    finally:
        del visit          # the closure holds itself through its cell

    def vertices(mask):
        return [v for v in range(1, n + 1) if mask >> v & 1]

    two_forests = {}
    for part, count in forests.items():
        outside = vertices(full & ~part)
        for u in vertices(part):
            for v in outside:
                key = (u, v) if u < v else (v, u)
                two_forests[key] = two_forests.get(key, 0) + count
    iota2 = {v: 0 for v in range(1, n + 1)}
    hist2 = {v: {} for v in range(1, n + 1)}
    for (part, omega), count in sorted(tree_parts.items(),
                                       key=lambda item: item[0][1]):
        for v in vertices(part):
            iota2[v] += count * 4 ** (omega - 1)
            hist2[v][omega] = hist2[v].get(omega, 0) + count
    iota1 = sum(count * 4 ** omega for omega, count in odd.items())
    return (tree_parts.get((full, 1), 0), two_forests,
            (iota1, dict(sorted(odd.items()))),
            {v: (iota2[v], hist2[v]) for v in range(1, n + 1)})


# _GraphMemo(g) is g's memo while g is among the 32 most recently used
# graphs; _GraphMemo.__wrapped__(g) builds a fresh one.
@functools.lru_cache(maxsize=32)
class _GraphMemo:
    """What one graph alone determines: its 2-colouring and bipartition,
    its factor enumeration, its canonical form, and the principal minors
    of its L_z = D - zM (the Laplacian at z = 1, the signless Laplacian at
    z = -1) with their determinants.

    Each is worked out on first use, at most once (determinants keyed by z
    and the sorted dropped vertices).  The colouring is read-only, the
    matrices leave only as fresh minors and ``factors`` copies what it
    returns of the enumeration: no caller can change a memoised value.
    """

    def __init__(self, g):
        self.graph = g
        self.matrices = {}
        self.dets = {}

    @functools.cached_property
    def coloring(self):
        return _two_color(self.graph)

    @functools.cached_property
    def partition(self):
        color, _, _, odd_edge = self.coloring
        if odd_edge is not None:
            return None
        return Bipartition(frozenset(v for v in color if color[v] == 0),
                           frozenset(v for v in color if color[v] == 1))

    @functools.cached_property
    def enumeration(self):
        return _enumerate_factors(self.graph)

    @functools.cached_property
    def canonical(self):
        # The int alone: the orbit it is the minimum of can hold 8! masks.
        return min(_relabelled_masks(self.graph))

    def minor(self, z, dropped=()):
        """A fresh copy of L_z without the rows and columns of ``dropped``."""
        mat = self.matrices.get(z)
        if mat is None:
            build = laplacian if z == 1 else signless_laplacian
            mat = self.matrices[z] = build(self.graph)
        index = [v - 1 for v in dropped]
        return mat.minor(index, index)

    def det(self, z, dropped):
        key = (z, dropped)
        if key not in self.dets:
            self.dets[key] = self.minor(z, dropped).det()
        return self.dets[key]


def _half_masks(n, pairs):
    """(edge tuple, neighbour bitmasks) for every edge mask over
    ``pairs``, indexed by the mask: bit i marks pairs[i], the edges keep
    the order of ``pairs``, and the bitmask of vertex v (at index v - 1)
    has bit w - 1 set for each neighbour w."""
    table = []
    for mask in range(1 << len(pairs)):
        edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
        nbrs = [0] * n
        for u, v in edges:
            nbrs[u - 1] |= 1 << (v - 1)
            nbrs[v - 1] |= 1 << (u - 1)
        table.append((edges, nbrs))
    return table


def enumerate_connected(n):
    """All labeled connected simple graphs on n vertices (2 <= n <= 6).

    Deterministic order: ascending edge bitmask, where bit i marks the
    i-th pair in lexicographic order.

    The pairs split into a low and a high half, and each half-mask's edge
    tuple and neighbour bitmasks are tabulated once.  A mask's edges are
    then its low half's followed by its high half's, and a vertex's
    neighbours are read off the OR of its two bitmasks.  Masks with fewer
    than n - 1 edges and masks that one breadth-first search from vertex 1
    does not cover are skipped; the rest are built without revalidating
    the edges generated here.
    """
    if not 2 <= n <= 6:
        raise GraphError(f"enumerate_connected supports 2 <= n <= 6, got {n}")
    pairs = vertex_pairs(n)
    half = len(pairs) // 2
    low, high = _half_masks(n, pairs[:half]), _half_masks(n, pairs[half:])
    # The ascending neighbour tuple of every neighbour bitmask.
    neighbours = [tuple(w for w in range(1, n + 1) if bm >> (w - 1) & 1)
                  for bm in range(1 << n)]
    vertices = range(1, n + 1)
    out = []
    for high_edges, high_nbrs in high:
        for low_edges, low_nbrs in low:
            if len(low_edges) + len(high_edges) < n - 1:
                continue
            adj = {v: neighbours[a | b]
                   for v, a, b in zip(vertices, low_nbrs, high_nbrs)}
            if len(_bfs(adj, 1)[0]) < n:           # disconnected
                continue
            g = Graph.__new__(Graph)
            g._fill_slots(n, low_edges + high_edges, adj)
            out.append(g)
    return out


def _pair_bits(n):
    """bits[u][v] = bits[v][u] = the bit of edge {u, v} in an edge mask:
    bit i marks the i-th pair of vertex_pairs(n), as in
    enumerate_connected."""
    bits = [[0] * (n + 1) for _ in range(n + 1)]
    for i, (u, v) in enumerate(vertex_pairs(n)):
        bits[u][v] = bits[v][u] = 1 << i
    return bits


def _relabelled_masks(g):
    """The edge mask of g under every vertex permutation: the masks of
    g's isomorphism class, repeats included."""
    bits = _pair_bits(g.n)
    for perm in itertools.permutations(range(1, g.n + 1)):
        mask = 0
        for u, v in g.edges:
            mask |= bits[perm[u - 1]][perm[v - 1]]
        yield mask


def canonical_form(g):
    """Minimum edge bitmask over all vertex permutations (n <= 8).

    Two graphs are isomorphic iff their canonical forms are equal.  The
    form is memoised with the graph: repeated calls walk the n!
    permutations once while the graph stays in the memo.
    """
    if g.n > 8:
        raise GraphError("canonical_form supports n <= 8")
    return _GraphMemo(g).canonical


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
    edge_keys = set()
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
            if key in edge_keys:
                raise InstanceParseError(f"duplicate edge {key}", lineno)
            edge_keys.add(key)
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
