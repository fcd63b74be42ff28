"""Graph factor counts chi1, chi2, iota1, iota2 and the closed-form energy.

chi1/chi2 are the spanning-tree and separating-two-forest counts behind
the bipartite energy formula; iota1/iota2 are the 4^omega-weighted counts
of odd-unicyclic factor families behind the non-bipartite one.  Every
count is available two ways: brute-force edge-subset enumeration (the
trusted oracle) and a Laplacian / signless-Laplacian minor determinant
(the fast path); "both" mode cross-checks them and treats any mismatch as
an implementation bug.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .graphs import bipartition, components, cycle_graph
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
    """All four factor counts for one (graph, u1, un) configuration."""

    chi1: int
    chi2: int
    iota1: int
    iota2: int
    edge_count: int
    omega_histogram: dict


def _is_odd_unicyclic(vertices, edges):
    """Connected component test: edges = vertices and the unique cycle,
    exposed by repeatedly stripping degree-1 vertices, has odd length."""
    if len(edges) != len(vertices):
        return False
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    queue = [v for v in vertices if len(adj[v]) == 1]
    alive = set(vertices)
    while queue:
        v = queue.pop()
        if v not in alive or len(adj[v]) != 1:
            continue
        alive.discard(v)
        (w,) = adj[v]
        adj[w].discard(v)
        adj[v].clear()
        if len(adj[w]) == 1:
            queue.append(w)
    return len(alive) % 2 == 1


@functools.lru_cache(maxsize=None)
def _enumerate_factors(g):
    """One pass over all edge subsets, classifying every factor family.

    Returns (tree count, {(u,v): two-forest count}, (iota1, its omega
    histogram), {v: (iota2, omega histogram)}).
    """
    n, edges = g.n, g.edges
    m = len(edges)
    trees = 0
    forests = {}
    iota1 = 0
    hist1 = {}
    iota2 = {v: 0 for v in range(1, n + 1)}
    hist2 = {v: {} for v in range(1, n + 1)}
    for mask in range(1 << m):
        k = mask.bit_count()
        if k < n - 2 or k > n:
            continue
        subset = [edges[i] for i in range(m) if mask >> i & 1]
        roots, edge_count = components(n, subset)
        omega = len(roots)
        if k == n - 2:
            # n-2 edges in exactly two components forces two trees.
            if omega == 2:
                (c1, c2) = roots.values()
                for u in c1:
                    for v in c2:
                        key = (u, v) if u < v else (v, u)
                        forests[key] = forests.get(key, 0) + 1
        elif k == n - 1:
            if omega == 1:
                trees += 1
                for v in range(1, n + 1):
                    iota2[v] += 1
                    hist2[v][1] = hist2[v].get(1, 0) + 1
                continue
            # With n-1 edges, an all-(tree or odd-unicyclic) factor has
            # exactly one tree component; the rest must be odd-unicyclic.
            tree_comp = None
            good = True
            for r, verts in roots.items():
                if edge_count[r] == len(verts) - 1:
                    if tree_comp is not None:
                        good = False
                        break
                    tree_comp = verts
                elif not _is_odd_unicyclic(verts, [e for e in subset
                                                  if e[0] in set(verts)]):
                    good = False
                    break
            if good and tree_comp is not None:
                weight = 4 ** (omega - 1)
                for v in tree_comp:
                    iota2[v] += weight
                    hist2[v][omega] = hist2[v].get(omega, 0) + 1
        else:
            if all(_is_odd_unicyclic(verts,
                                     [e for e in subset if e[0] in set(verts)])
                   for verts in roots.values()):
                iota1 += 4 ** omega
                hist1[omega] = hist1.get(omega, 0) + 1
    return trees, forests, (iota1, hist1), {v: (iota2[v], hist2[v])
                                            for v in range(1, n + 1)}


def _int_det(mat):
    d = mat.det()
    if d.denominator != 1:
        raise FactorMismatchError("determinant", None, d)
    return int(d.numerator)


def _check(name, method, enum_value, det_value):
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
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
    enum_value = det_value = None
    if method != "det":
        enum_value = _enumerate_factors(g)[0]
    if method != "enum":
        det_value = _int_det(laplacian(g).minor([g.n - 1], [g.n - 1]))
    return _check("chi1", method, enum_value, det_value)


def two_forest_count(g, u1, un, method="both"):
    """chi2: spanning two-component forests separating u1 from un
    (isolated vertices count as trees)."""
    if u1 == un:
        raise ValueError("chi2 needs two distinct vertices")
    key = (u1, un) if u1 < un else (un, u1)
    enum_value = det_value = None
    if method != "det":
        enum_value = _enumerate_factors(g)[1].get(key, 0)
    if method != "enum":
        det_value = _int_det(laplacian(g).minor([u1 - 1, un - 1],
                                                [u1 - 1, un - 1]))
    return _check("chi2", method, enum_value, det_value)


def odd_unicyclic_sums(g, u1, method="both"):
    """(iota1, iota2): 4^omega-weighted counts of the all-odd-unicyclic
    factors and the u1-tree-plus-odd-unicyclic factors."""
    enum1 = enum2 = det1 = det2 = None
    if method != "det":
        data = _enumerate_factors(g)
        enum1 = data[2][0]
        enum2 = data[3][u1][0]
    if method != "enum":
        q = signless_laplacian(g)
        det1 = _int_det(q)
        det2 = _int_det(q.minor([u1 - 1], [u1 - 1]))
    return (_check("iota1", method, enum1, det1),
            _check("iota2", method, enum2, det2))


def factor_counts(g, u1, un, method="both"):
    chi1 = spanning_tree_count(g, method)
    chi2 = two_forest_count(g, u1, un, method)
    iota1, iota2 = odd_unicyclic_sums(g, u1, method)
    data = _enumerate_factors(g)
    hist = {"odd_unicyclic": dict(data[2][1]),
            "tree_plus_odd_unicyclic": dict(data[3][u1][1])}
    return FactorCounts(chi1, chi2, iota1, iota2, g.m, hist)


def closed_form_comfort(g, u1, un, z=-1):
    """Closed-form stationary energy for the standard two-tail setting:
    (chi2/chi1 + |E|)/4 in the bipartite (or z=+1) case, iota2/iota1 when
    the graph is non-bipartite and z=-1."""
    if z not in (1, -1):
        raise ValueError("z must be +1 or -1")
    if z == -1 and bipartition(g) is None:
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
