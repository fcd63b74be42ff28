"""Laplacian / signless-Laplacian Poisson routes and Kirchhoff-law audits.

The stationary state of the walk hides an electrical network.  On a
bipartite internal graph at z = -1, and on every internal graph at
z = +1, it is a constant part plus a current obeying Kirchhoff's laws,
with a vertex potential solving a grounded Laplacian Poisson equation;
on a non-bipartite graph at z = -1 the state itself is arc-symmetric and
derives from a signless-Laplacian potential.  Every instance thus has one
potential route, any boundary size and inflow, and it reconstructs the
stationary state independently of the arc solver.

The Kirchhoff audits solve nothing: a state obeys the (pseudo-)voltage
law exactly when it comes from a vertex potential, which is read off the
state along one breadth-first spanning tree in O(m) and then tested on
every edge, so an audit never repeats a route's work.

Sign convention: laplacian() returns the positive-semidefinite D - M, so
the bipartite Poisson equation reads L phi = q (equivalently (M - D) phi
= -q); dets of grounded minors then count spanning trees directly.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub

from .graphs import _two_color, bipartition
from .ratlin import RAT_ONE, RAT_ZERO, RatMatrix, rat
from .stationary import ArcField, outflow


def _degrees_plus(g, off):
    """D + off * M: off = -1 gives the Laplacian, off = 1 the signless one."""
    m = RatMatrix.zeros(g.n, g.n)
    for u, v in g.edges:
        m.data[u - 1][v - 1] = m.data[v - 1][u - 1] = off
    for v in range(1, g.n + 1):
        m.data[v - 1][v - 1] = rat(g.degree(v))
    return m


def laplacian(g):
    """L = D - M (positive semidefinite convention); tails excluded."""
    return _degrees_plus(g, rat(-1))


def signless_laplacian(g):
    """Q = D + M; nonsingular exactly when g is connected non-bipartite."""
    return _degrees_plus(g, RAT_ONE)


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


@dataclass(frozen=True)
class VertexField:
    """Rational-valued function on the internal vertices."""

    graph: object
    values: dict

    def __post_init__(self):
        if set(self.values) != set(range(1, self.graph.n + 1)):
            raise ValueError("vertex field must cover every internal vertex")

    def __getitem__(self, v):
        return self.values[v]


@dataclass
class CurrentDecomposition:
    """Constant part rho, current j, potential phi (grounded) of a
    Laplacian-route stationary state."""

    rho: object
    current: ArcField
    potential: VertexField
    ground: int


def _minus_side(inst):
    """Where the Laplacian route's sign s(v) is -1: nowhere at z = +1; at
    z = -1, the side of a bipartite graph without boundary[0].  None for a
    non-bipartite graph at z = -1, the signless route's case."""
    if inst.phase == 1:
        return frozenset()
    part = bipartition(inst.graph)
    return None if part is None else part.oriented(inst.boundary[0]).Y


def bipartite_route(inst):
    """Reconstruct the stationary state of a bipartite graph at z = -1, or
    of any graph at z = +1, from a grounded Laplacian Poisson solve.

    With rho = sum_j s(v_j) alpha_j / r, phi solves L phi = q grounded at
    boundary[-1], where q(v_j) = s(v_j) alpha_j - rho and q = 0 off the
    boundary; then psi(a) = s(t(a)) (j(a) + rho) with the current
    j(a) = phi(o(a)) - phi(t(a)).  Returns (CurrentDecomposition,
    reconstructed ArcField, total energy 1/2 sum j^2 + rho^2 |E|).
    """
    minus = _minus_side(inst)
    if minus is None:
        raise ValueError("at phase -1 this route needs a bipartite internal graph")
    g = inst.graph
    signed = {v: -a if v in minus else a
              for v, a in zip(inst.boundary, inst.inflow)}
    rho = sum(signed.values(), RAT_ZERO) / inst.r
    ground = inst.boundary[-1]
    keep = [v for v in range(1, g.n + 1) if v != ground]
    lap = laplacian(g).minor([ground - 1], [ground - 1])
    sol = lap.solve([signed[v] - rho if v in signed else RAT_ZERO
                     for v in keep])
    phi = dict(zip(keep, sol))
    phi[ground] = RAT_ZERO
    current = {a: phi[a[0]] - phi[a[1]] for a in g.arcs}
    psi = ArcField(g, {a: -(j + rho) if a[1] in minus else j + rho
                       for a, j in current.items()})
    # j is antisymmetric, so half its square sum over arcs is the sum over
    # edges, and the cross term rho * sum j vanishes.
    e_qw = sum((current[e] ** 2 for e in g.edges), RAT_ZERO) + \
        rho * rho * rat(g.m)
    decomp = CurrentDecomposition(rho, ArcField(g, current),
                                  VertexField(g, phi), ground)
    return decomp, psi, e_qw


def nonbipartite_route(inst):
    """Reconstruct the stationary state of a non-bipartite graph at z = -1
    from the signless-Laplacian Poisson solve Q phi = -alpha, with alpha_j
    placed at v_j: psi(a) = phi(o(a)) + phi(t(a)).

    Returns (potential, reconstructed ArcField, total energy); the energy
    phi^T Q phi equals -sum_j alpha_j phi(v_j).
    """
    if _minus_side(inst) is not None:
        raise ValueError("this route needs a non-bipartite internal graph "
                         "at phase -1")
    g = inst.graph
    vertices = range(1, g.n + 1)
    sol = signless_laplacian(g).solve([-inst.inflow_at(v) for v in vertices])
    phi = VertexField(g, dict(zip(vertices, sol)))
    psi = ArcField(g, {a: phi[a[0]] + phi[a[1]] for a in g.arcs})
    e_qw = -sum((a * phi[v] for v, a in zip(inst.boundary, inst.inflow)),
                RAT_ZERO)
    return phi, psi, e_qw


@dataclass
class AuditCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class AuditReport:
    bipartite: bool
    checks: list = field(default_factory=list)

    def add(self, name, ok, detail=""):
        self.checks.append(AuditCheck(name, ok, detail))

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def kirchhoff_audit(inst, psi):
    """Verify the (pseudo-)Kirchhoff laws on an exact stationary state.

    At both phases psi(a) + z psi(rev a) is constant over the arcs leaving
    each vertex, its tail included.  The Laplacian route's states (at
    z = +1 with s = 1) then obey the current and voltage laws, the
    signless route's the pseudo-Kirchhoff laws.  The voltage law is
    checked through the potential it implies, read off psi along one
    breadth-first spanning tree: the audit solves nothing and shares no
    computation with the potential routes.  Audit failure signals an
    implementation bug, never an expected runtime condition; the report
    lists every violated law.
    """
    g = inst.graph
    color, parent, order = _two_color(g)
    bipartite = all(color[u] != color[v] for u, v in g.edges)
    report = AuditReport(bipartite=bipartite)
    combine = sub if inst.phase == -1 else add
    beta = outflow(inst, psi)
    tail = {v: combine(beta[j], inst.inflow[j])
            for j, v in enumerate(inst.boundary)}
    const_ok = True
    for u in range(1, g.n + 1):
        values = {combine(psi[(u, x)], psi[(x, u)]) for x in g.neighbors(u)}
        if u in tail:
            values.add(tail[u])
        const_ok &= len(values) == 1
    report.add("per-vertex difference constancy" if inst.phase == -1
               else "per-vertex sum constancy", const_ok)

    if inst.phase == -1 and not bipartite:
        _pseudo_audit(inst, psi, color, parent, order, report)
    else:
        # s(v) = -1 off boundary[0]'s side at z = -1, nowhere at z = +1.
        side = color[inst.boundary[0]]
        minus = frozenset(v for v in order
                          if inst.phase == -1 and color[v] != side)
        _bipartite_audit(inst, psi, minus, parent, order, report)
    return report


def _bipartite_audit(inst, psi, minus, parent, order, report):
    g = inst.graph
    # s(t(a)) psi(a) = rho + j(a) with an antisymmetric current j.
    spsi = {a: -x if a[1] in minus else x for a, x in psi.items()}
    sums = {spsi[(u, v)] + spsi[(v, u)] for u, v in g.edges}
    report.add("constant part well defined", len(sums) == 1)
    rho = next(iter(sums)) / 2

    current = {a: x - rho for a, x in spsi.items()}
    report.add("current arc antisymmetry",
               all(current[(u, v)] + current[(v, u)] == 0 for u, v in g.edges))

    # q from the tail arcs; the inbound arc at v_j carries alpha_j.
    q = {v: (-a if v in minus else a) - rho
         for v, a in zip(inst.boundary, inst.inflow)}
    report.add("current law at vertices", all(
        sum((current[(x, u)] for x in g.neighbors(u)), q.get(u, RAT_ZERO)) == 0
        for u in range(1, g.n + 1)))
    report.add("tail source balance", sum(q.values(), RAT_ZERO) == 0)

    # Voltage law: an antisymmetric j sums to zero on every fundamental
    # cycle exactly when it is a potential difference.  Integrate j along
    # the tree from phi(root) = 0, then test every edge against phi.
    phi = {}
    for v in order:
        p = parent[v]
        phi[v] = RAT_ZERO if p is None else phi[p] - current[(p, v)]
    report.add("voltage law on fundamental cycles",
               all(current[(u, v)] == phi[u] - phi[v] for u, v in g.edges))


def _pseudo_audit(inst, psi, color, parent, order, report):
    g = inst.graph
    report.add("arc symmetry",
               all(psi[a] == psi[(a[1], a[0])] for a in g.arcs))
    report.add("current law at vertices", all(
        sum((psi[(x, u)] for x in g.neighbors(u)), inst.inflow_at(u)) == 0
        for u in range(1, g.n + 1)))

    # Pseudo-voltage law, audited through potential existence: the
    # even-closed-walk statement is equivalent to psi(a) = phi(o) + phi(t)
    # for some phi.  Along the tree phi(v) = +-phi(root) + c(v), the sign
    # set by v's colour; an edge whose ends share a colour (g has one, as
    # it is not bipartite) then fixes phi(root).
    c = {}
    for v in order:
        p = parent[v]
        c[v] = RAT_ZERO if p is None else psi[(p, v)] - c[p]
    u, w = next(e for e in g.edges if color[e[0]] == color[e[1]])
    root = (psi[(u, w)] - c[u] - c[w]) / 2
    if color[u]:
        root = -root
    phi = {v: (-root if color[v] else root) + c[v] for v in order}
    report.add("potential existence",
               all(psi[a] == phi[a[0]] + phi[a[1]] for a in g.arcs))
