"""Graph factor counts chi1, chi2, iota1, iota2 and the closed-form energy.

chi1/chi2 are the spanning-tree and separating-two-forest counts behind
the bipartite energy formula; iota1/iota2 are the 4^omega-weighted counts
of odd-unicyclic factor families behind the non-bipartite one.  Every
count is available two ways: an exhaustive enumeration of the factors
(the trusted oracle) and a Laplacian / signless-Laplacian minor
determinant (the fast path); "both" mode cross-checks them and treats any
mismatch as an implementation bug.

The enumeration is a depth-first search over edge subsets that prunes
every subset with an even cycle or a component with two cycles.  No
superset of such a subset is a factor of any family, so the search still
visits every factor exactly once, yet it skips nearly all of the 2^m
subsets.  It counts factors one by one and shares nothing with the
determinant code, which keeps it an independent check.

Every determinant count is a principal minor of one of two matrices of
the graph.  One memo per graph, bounded to the 32 most recently used
graphs, enumerates, 2-colours, builds each matrix and takes each minor's
determinant at most once.  A sweep over all ordered boundary pairs of a
graph (``catalog.rank``) then pays for a few determinants per graph
instead of several per pair and phase, and "both" mode for one
enumeration per graph.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import bipartition, cycle_graph
from .potential import incidence_nonoriented, laplacian, signless_laplacian
from .ratlin import rat

_METHODS = ("both", "det", "enum")


class FactorMismatchError(RuntimeError):
    """Enumeration and determinant disagree — an implementation bug."""

    def __init__(self, name, enum_value, det_value):
        super().__init__(
            f"{name}: enumeration gives {enum_value}, determinant gives {det_value}")
        self.name = name
        self.enum_value = enum_value
        self.det_value = det_value


@dataclass(frozen=True)
class FactorCounts:
    """All four factor counts for one (graph, u1, un) configuration.

    omega_histogram maps "odd_unicyclic" and "tree_plus_odd_unicyclic" to
    {omega: factor count}; it comes from the enumeration, so it is None
    when the counts were computed with method="det".
    """

    chi1: int
    chi2: int
    iota1: int
    iota2: int
    edge_count: int
    omega_histogram: dict


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


def _int_det(mat):
    d = mat.det()
    if d.denominator != 1:
        raise FactorMismatchError("determinant", None, d)
    return int(d.numerator)


# _FactorMemo(g) is g's memo while g is among the 32 most recently used
# graphs; _FactorMemo.__wrapped__(g) builds a fresh one.
@functools.lru_cache(maxsize=32)
class _FactorMemo:
    """One graph's factor enumeration, its parity and the principal-minor
    determinants of its L_z = D - zM, the Laplacian at z = 1 and the
    signless Laplacian at z = -1.

    The enumeration and the parity, which picks the closed form, are
    worked out on first use.  Each matrix is built on first use and each
    determinant is taken once, keyed by the sorted tuple of dropped
    vertices.  The matrices never leave this object, so no caller can
    change a memoised count.
    """

    def __init__(self, g):
        self.graph = g
        self.matrices = {}
        self.dets = {}

    @functools.cached_property
    def enumeration(self):
        return _enumerate_factors(self.graph)

    @functools.cached_property
    def bipartite(self):
        return bipartition(self.graph) is not None

    def det(self, z, dropped):
        key = (z, dropped)
        value = self.dets.get(key)
        if value is None:
            mat = self.matrices.get(z)
            if mat is None:
                build = laplacian if z == 1 else signless_laplacian
                mat = self.matrices[z] = build(self.graph)
            index = [v - 1 for v in dropped]
            value = self.dets[key] = _int_det(mat.minor(index, index))
        return value


def _check_args(g, method, *vertices):
    """Reject a bad method or a vertex outside g before any count."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    for v in vertices:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} is outside 1..{g.n}")


def _check(name, method, enum_value, det_value):
    if method == "enum":
        return enum_value
    if method == "det":
        return det_value
    if enum_value != det_value:
        raise FactorMismatchError(name, enum_value, det_value)
    return det_value


def spanning_tree_count(g, method="both"):
    """chi1: spanning trees, by enumeration and/or the grounded Laplacian
    determinant (any ground vertex; u_n by convention elsewhere)."""
    _check_args(g, method)
    memo = _FactorMemo(g)
    enum_value = det_value = None
    if method != "det":
        enum_value = memo.enumeration[0]
    if method != "enum":
        det_value = memo.det(1, (g.n,))
    return _check("chi1", method, enum_value, det_value)


def two_forest_count(g, u1, un, method="both"):
    """chi2: spanning two-component forests separating u1 from un
    (isolated vertices count as trees)."""
    _check_args(g, method, u1, un)
    if u1 == un:
        raise ValueError("chi2 needs two distinct vertices")
    key = (u1, un) if u1 < un else (un, u1)
    memo = _FactorMemo(g)
    enum_value = det_value = None
    if method != "det":
        enum_value = memo.enumeration[1].get(key, 0)
    if method != "enum":
        det_value = memo.det(1, key)
    return _check("chi2", method, enum_value, det_value)


def odd_unicyclic_sums(g, u1, method="both"):
    """(iota1, iota2): 4^omega-weighted counts of the all-odd-unicyclic
    factors and the u1-tree-plus-odd-unicyclic factors."""
    _check_args(g, method, u1)
    memo = _FactorMemo(g)
    enum1 = enum2 = det1 = det2 = None
    if method != "det":
        data = memo.enumeration
        enum1 = data[2][0]
        enum2 = data[3][u1][0]
    if method != "enum":
        det1 = memo.det(-1, ())
        det2 = memo.det(-1, (u1,))
    return (_check("iota1", method, enum1, det1),
            _check("iota2", method, enum2, det2))


def factor_counts(g, u1, un, method="both"):
    # chi2 first: it checks the method and both vertices before counting.
    chi2 = two_forest_count(g, u1, un, method)
    chi1 = spanning_tree_count(g, method)
    iota1, iota2 = odd_unicyclic_sums(g, u1, method)
    hist = None
    if method != "det":
        data = _FactorMemo(g).enumeration
        hist = {"odd_unicyclic": dict(data[2][1]),
                "tree_plus_odd_unicyclic": dict(data[3][u1][1])}
    return FactorCounts(chi1, chi2, iota1, iota2, g.m, hist)


def closed_form_comfort(g, u1, un, z=-1):
    """Closed-form stationary energy for the standard two-tail setting:
    (chi2/chi1 + |E|)/4 in the bipartite (or z=+1) case, iota2/iota1 when
    the graph is non-bipartite and z=-1."""
    if z not in (1, -1):
        raise ValueError("z must be +1 or -1")
    _check_args(g, "det", u1, un)
    if u1 == un:
        raise ValueError("the closed form needs two distinct tail vertices")
    if z == -1 and not _FactorMemo(g).bipartite:
        iota1, iota2 = odd_unicyclic_sums(g, u1, method="det")
        return rat(iota2, iota1)
    chi1 = spanning_tree_count(g, method="det")
    chi2 = two_forest_count(g, u1, un, method="det")
    return (rat(chi2, chi1) + rat(g.m)) / rat(4)


def cycle_incidence_check(length):
    """det of the non-oriented incidence matrix of a cycle: +-2 for odd
    length, 0 for even length."""
    if length < 3:
        raise ValueError("cycle length must be at least 3")
    return incidence_nonoriented(cycle_graph(length)).det()
