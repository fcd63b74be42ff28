"""Graph factor counts chi1, chi2, iota1, iota2 and the closed-form energy.

chi1/chi2 are the spanning-tree and separating-two-forest counts behind
the bipartite energy formula; iota1/iota2 are the 4^omega-weighted counts
of odd-unicyclic factor families behind the non-bipartite one.  Every
count is available two ways: an exhaustive enumeration of the factors
(the trusted oracle) and a Laplacian / signless-Laplacian minor
determinant (the fast path); "both" mode cross-checks them and treats any
mismatch as an implementation bug.

Both come from the per-graph memo of ``graphs``, at most once per graph:
the enumeration (a pruned depth-first search that forms no matrix, so it
stays an independent check) and the principal-minor determinants of L_z.
So a sweep over all ordered boundary pairs of a graph (``catalog.rank``)
pays for a few determinants per graph, not several per pair and phase,
and "both" mode for one enumeration per graph.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import _GraphMemo, cycle_graph, incidence_nonoriented
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


def _check_args(g, method, *vertices):
    """Reject a bad method or a vertex outside g before any count."""
    if method not in _METHODS:
        raise ValueError(f"method must be one of {_METHODS}")
    for v in vertices:
        if not 1 <= v <= g.n:
            raise ValueError(f"vertex {v} is outside 1..{g.n}")


def _count(name, method, memo, read, z, dropped):
    """One count as ``method`` asks: ``read`` off the memo's enumeration,
    and/or the determinant of L_z without the ``dropped`` vertices; "both"
    cross-checks the two."""
    enum_value = None if method == "det" else read(memo.enumeration)
    if method == "enum":
        return enum_value
    d = memo.det(z, dropped)
    if d.denominator != 1:
        raise FactorMismatchError("determinant", None, d)
    if method == "both" and enum_value != d:
        raise FactorMismatchError(name, enum_value, d.numerator)
    return d.numerator


def spanning_tree_count(g, method="both"):
    """chi1: spanning trees, by enumeration and/or the grounded Laplacian
    determinant (any ground vertex; u_n by convention elsewhere)."""
    _check_args(g, method)
    return _count("chi1", method, _GraphMemo(g), lambda e: e[0], 1, (g.n,))


def two_forest_count(g, u1, un, method="both"):
    """chi2: spanning two-component forests separating u1 from un
    (isolated vertices count as trees)."""
    _check_args(g, method, u1, un)
    if u1 == un:
        raise ValueError("chi2 needs two distinct vertices")
    key = (u1, un) if u1 < un else (un, u1)
    return _count("chi2", method, _GraphMemo(g), lambda e: e[1].get(key, 0),
                  1, key)


def odd_unicyclic_sums(g, u1, method="both"):
    """(iota1, iota2): 4^omega-weighted counts of the all-odd-unicyclic
    factors and the u1-tree-plus-odd-unicyclic factors."""
    _check_args(g, method, u1)
    memo = _GraphMemo(g)
    return (_count("iota1", method, memo, lambda e: e[2][0], -1, ()),
            _count("iota2", method, memo, lambda e: e[3][u1][0], -1, (u1,)))


def factor_counts(g, u1, un, method="both"):
    # chi2 first: it checks the method and both vertices before counting.
    chi2 = two_forest_count(g, u1, un, method)
    chi1 = spanning_tree_count(g, method)
    iota1, iota2 = odd_unicyclic_sums(g, u1, method)
    hist = None
    if method != "det":
        data = _GraphMemo(g).enumeration
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
    if z == -1 and _GraphMemo(g).partition is None:
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
