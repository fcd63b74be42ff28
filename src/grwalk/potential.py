"""One Poisson route on L_z = D - zM and one Kirchhoff-law audit.

At phase z the stationary state comes from a vertex potential on
L_z = D - zM: the Laplacian L at z = +1, the signless Laplacian Q at
z = -1.  The switching sign is s(v) = -1 at z = -1 on the side of a
bipartite graph without boundary[0], and s = 1 elsewhere; switching by
S = diag(s) turns Q into L (Q = S L S).  A non-bipartite graph at z = -1
is the signless case, where Q is nonsingular and rho = 0; otherwise
rho = sum_j s(v_j) alpha_j / r and phi is grounded at boundary[-1].
phi solves L_z phi = z (alpha - rho s), alpha placed on the boundary,
and on every instance, any boundary and inflow,

    psi(a) = phi(o(a)) - z phi(t(a)) + s(t(a)) rho,

with energy z sum_j phi(v_j) (alpha_j - rho s(v_j)) + rho^2 |E|.

Both read the colouring and take fresh L_z minors from the per-graph
memo of ``graphs``; the matrix builders live there, re-exported here.

The audit solves nothing: a state obeys the (pseudo-)voltage law exactly
when it comes from such a potential, which is read off the state along
one breadth-first spanning tree in O(m) and then tested on every edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, sub

from .graphs import (_GraphMemo, incidence_nonoriented, incidence_oriented,
                     laplacian, signless_laplacian)
from .ratlin import RAT_ZERO, rat
from .stationary import ArcField, outflow


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


def _switching(inst):
    """The switching sign s of inst and the breadth-first tree it is read
    from: (s, odd_edge, parent, order), the last three as _two_color
    returns them (odd_edge is None exactly for a bipartite graph).  At
    z = -1, s(v) = -1 on the colour class without boundary[0] and 1 on
    the other; at z = +1, s = 1 everywhere."""
    color, parent, order, odd_edge = _GraphMemo(inst.graph).coloring
    side = color[inst.boundary[0]]
    s = {v: -1 if inst.phase == -1 and color[v] != side else 1 for v in order}
    return s, odd_edge, parent, order


def _signed(sign, x):
    """sign * x for sign = +-1, by negation rather than a multiply (none
    for a zero x)."""
    return x if sign > 0 or not x else -x


def _arc_state(phi, z, srho, arcs):
    """psi(a) = phi(o(a)) - z phi(t(a)) + s(t(a)) rho on the given arcs,
    with srho(v) = s(v) rho."""
    head = {v: srho[v] - x if z == 1 else srho[v] + x
            for v, x in phi.items()}
    return {(u, v): phi[u] + head[v] for u, v in arcs}


def _poisson_route(inst, s, signless):
    """The Poisson route on L_z of the module docstring.

    Returns (rho, phi, psi, energy, ground); in the signless case rho = 0
    and ground is None, as L_z = Q is nonsingular there."""
    g, z = inst.graph, inst.phase
    alpha = dict(zip(inst.boundary, inst.inflow))
    rho, ground = RAT_ZERO, None
    if not signless:
        rho = sum((_signed(s[v], a) for v, a in alpha.items()),
                  RAT_ZERO) / inst.r
        ground = inst.boundary[-1]
    lz = _GraphMemo(g).minor(z, (ground,) if ground else ())
    srho = {v: _signed(s[v], rho) for v in s}
    keep = [v for v in range(1, g.n + 1) if v != ground]
    sol = lz.solve([_signed(z, alpha[v] - srho[v]) if v in alpha
                    else RAT_ZERO for v in keep])
    phi = dict(zip(keep, sol))
    if ground:
        phi[ground] = RAT_ZERO
    psi = ArcField(g, _arc_state(phi, z, srho, g.arcs))
    flux = sum((phi[v] * (a - srho[v]) for v, a in alpha.items()), RAT_ZERO)
    energy = _signed(z, flux) + rho * rho * rat(g.m)
    return rho, phi, psi, energy, ground


def bipartite_route(inst):
    """Reconstruct the stationary state of a bipartite graph at z = -1, or
    of any graph at z = +1, from the grounded Poisson route.

    Returns (CurrentDecomposition, reconstructed ArcField, total energy
    1/2 sum j^2 + rho^2 |E|).  The decomposition's potential is the
    Laplacian one, phi_L = z s phi, which solves L phi_L = q with
    q(v_j) = s(v_j) alpha_j - rho; the current is
    j(a) = phi_L(o(a)) - phi_L(t(a)), so psi(a) = s(t(a)) (j(a) + rho).
    """
    s, odd_edge = _switching(inst)[:2]
    if inst.phase == -1 and odd_edge is not None:
        raise ValueError("at phase -1 this route needs a bipartite internal graph")
    rho, phi, psi, energy, ground = _poisson_route(inst, s, signless=False)
    g = inst.graph
    phi = {v: _signed(inst.phase * s[v], x) for v, x in phi.items()}
    current = {a: phi[a[0]] - phi[a[1]] for a in g.arcs}
    decomp = CurrentDecomposition(rho, ArcField(g, current),
                                  VertexField(g, phi), ground)
    return decomp, psi, energy


def nonbipartite_route(inst):
    """Reconstruct the stationary state of a non-bipartite graph at z = -1
    from the signless-Laplacian Poisson solve Q phi = -alpha, with alpha_j
    placed at v_j: psi(a) = phi(o(a)) + phi(t(a)).

    Returns (potential, reconstructed ArcField, total energy); the energy
    phi^T Q phi equals -sum_j alpha_j phi(v_j).
    """
    s, odd_edge = _switching(inst)[:2]
    if inst.phase == 1 or odd_edge is None:
        raise ValueError("this route needs a non-bipartite internal graph "
                         "at phase -1")
    _, phi, psi, energy, _ = _poisson_route(inst, s, signless=True)
    return VertexField(inst.graph, phi), psi, energy


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

    psi(a) + z psi(rev a) is constant over the arcs leaving each vertex,
    its tail included; s(v) (psi(u, v) + z psi(v, u)) = 2 rho on every
    edge, rho = 0 in the signless case; the current law reads
    s(u) (sum_x psi(x, u) + alpha(u)) = rho deg~(u); and psi comes from a
    potential by the module's formula.  A failure signals an
    implementation bug; the report lists every violated law.
    """
    g, z = inst.graph, inst.phase
    s, odd_edge, parent, order = _switching(inst)
    signless = z == -1 and odd_edge is not None
    report = AuditReport(bipartite=odd_edge is None)
    combine = sub if z == -1 else add
    beta = outflow(inst, psi)
    tail = {v: combine(beta[j], inst.inflow[j])
            for j, v in enumerate(inst.boundary)}
    # psi(u, x) + z psi(x, u) on every arc (u, x).
    pair = {(u, x): combine(psi[(u, x)], psi[(x, u)]) for u, x in g.arcs}
    const_ok = True
    for u in range(1, g.n + 1):
        values = {pair[(u, x)] for x in g.neighbors(u)}
        if u in tail:
            values.add(tail[u])
        const_ok &= len(values) == 1
    report.add("per-vertex difference constancy" if z == -1
               else "per-vertex sum constancy", const_ok)

    sums = {_signed(s[v], pair[(u, v)]) for u, v in g.edges}
    rho = RAT_ZERO
    if signless:
        report.add("arc symmetry", sums == {RAT_ZERO})
    else:
        # Every sum is 2 rho exactly when there is only one.
        rho = next(iter(sums)) / 2
        report.add("constant part well defined", len(sums) == 1)
        report.add("current arc antisymmetry", len(sums) == 1)
    srho = {v: _signed(s[v], rho) for v in order}
    report.add("current law at vertices", all(
        sum((psi[(x, u)] for x in g.neighbors(u)), inst.inflow_at(u))
        == srho[u] * inst.tilde_degree(u) for u in range(1, g.n + 1)))
    if not signless:
        report.add("tail source balance", rho * inst.r == sum(
            (_signed(s[v], a) for v, a in zip(inst.boundary, inst.inflow)),
            RAT_ZERO))

    # The (pseudo-)voltage law holds exactly when psi comes from a vertex
    # potential.  Integrate psi along the tree from phi(root) = 0, then
    # test psi(a) = phi(o(a)) - z phi(t(a)) + s(t(a)) rho.  In the
    # signless case phi + c s solves the tree's equations for every c; an
    # edge whose ends share a colour (g has one, as it is not bipartite)
    # fixes c.  The Laplacian case's psi is tested on the edges u < v; the
    # antisymmetry check covers their reverses.
    phi = {}
    for v in order:
        p = parent[v]
        phi[v] = RAT_ZERO if p is None else \
            _signed(z, phi[p] + srho[v] - psi[(p, v)])
    if signless:
        u, w = odd_edge
        c = _signed(s[u], psi[(u, w)] - phi[u] - phi[w]) / 2
        phi = {v: x + _signed(s[v], c) for v, x in phi.items()}
    want = _arc_state(phi, z, srho, g.arcs if signless else g.edges)
    report.add("potential existence" if signless
               else "voltage law on fundamental cycles",
               all(psi[a] == x for a, x in want.items()))
    return report
