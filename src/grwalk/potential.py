"""Laplacian / signless-Laplacian Poisson routes and Kirchhoff-law audits.

The stationary state of the alternating walk hides an electrical network:
on a bipartite internal graph it decomposes into a constant part plus a
current obeying Kirchhoff's laws, with a vertex potential solving a
Laplacian Poisson equation; on a non-bipartite graph the state itself is
arc-symmetric and derives from a signless-Laplacian potential.  These
routes reconstruct the stationary state independently of the arc solver.

Sign convention: laplacian() returns the positive-semidefinite D - M, so
the bipartite Poisson equation reads L phi = q (equivalently (M - D) phi
= -q); dets of grounded minors then count spanning trees directly.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .graphs import bipartition
from .ratlin import RAT_ONE, RAT_ZERO, RatMatrix, SingularMatrixError, rat
from .stationary import ArcField, outflow


def adjacency_matrix(g):
    m = RatMatrix.zeros(g.n, g.n)
    for u, v in g.edges:
        m.data[u - 1][v - 1] = RAT_ONE
        m.data[v - 1][u - 1] = RAT_ONE
    return m


def laplacian(g):
    """L = D - M (positive semidefinite convention); tails excluded."""
    m = adjacency_matrix(g).scale(-1)
    for v in range(1, g.n + 1):
        m.data[v - 1][v - 1] = rat(g.degree(v))
    return m


def signless_laplacian(g):
    """Q = D + M; nonsingular exactly when g is connected non-bipartite."""
    m = adjacency_matrix(g)
    for v in range(1, g.n + 1):
        m.data[v - 1][v - 1] = rat(g.degree(v))
    return m


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
    """Constant part rho, current j, potential phi (grounded) for the
    bipartite stationary state."""

    rho: object
    current: ArcField
    potential: VertexField
    ground: int


def _require_standard(inst, want_bipartite):
    part = bipartition(inst.graph)
    if want_bipartite and part is None:
        raise ValueError("this route needs a bipartite internal graph")
    if not want_bipartite and part is not None:
        raise ValueError("this route needs a non-bipartite internal graph")
    if inst.r != 2 or inst.inflow != (rat(1), rat(0)):
        raise ValueError("this route is scoped to two tails with inflow (1, 0)")
    if inst.phase != -1:
        raise ValueError("this route is scoped to phase -1")
    return part


def bipartite_route(inst):
    """Reconstruct the stationary state of a standard bipartite instance
    from a grounded Laplacian Poisson solve.

    Returns (CurrentDecomposition, reconstructed ArcField, total energy).
    The source has weight 1/2 at the inflow vertex; the constant part is
    rho = 1/2 once the bipartition is oriented with u1 on the X side.
    """
    part = _require_standard(inst, want_bipartite=True)
    g = inst.graph
    u1, un = inst.boundary
    part = part.oriented(u1)
    rho = rat(1, 2)
    ground = un
    keep = [v for v in range(1, g.n + 1) if v != ground]
    lap = laplacian(g).minor([ground - 1], [ground - 1])
    q = [rat(1, 2) if v == u1 else RAT_ZERO for v in keep]
    sol = lap.solve(q)
    phi = {v: x for v, x in zip(keep, sol)}
    phi[ground] = RAT_ZERO
    current = {}
    values = {}
    for a in g.arcs:
        o, t = a
        j = phi[o] - phi[t]
        current[a] = j
        sign = RAT_ONE if t in part.X else rat(-1)
        values[a] = sign * (j + rho)
    j_field = ArcField(g, current)
    psi = ArcField(g, values)
    e_ec = rat(1, 2) * sum((j * j for j in current.values()), RAT_ZERO)
    e_qw = e_ec + rho * rho * rat(g.m)
    decomp = CurrentDecomposition(rho, j_field, VertexField(g, phi), ground)
    return decomp, psi, e_qw


def electrical_energy(decomp):
    """Half the squared current mass over the internal arcs."""
    return rat(1, 2) * sum((j * j for j in decomp.current.values.values()), RAT_ZERO)


def nonbipartite_route(inst):
    """Reconstruct the stationary state of a standard non-bipartite
    instance from the signless-Laplacian Poisson solve Q phi = -q.

    Returns (potential dict, reconstructed ArcField, total energy); the
    energy equals the (u1, u1) entry of Q^{-1}.
    """
    _require_standard(inst, want_bipartite=False)
    g = inst.graph
    u1 = inst.boundary[0]
    q_mat = signless_laplacian(g)
    q_vec = [rat(-1) if v == u1 else RAT_ZERO for v in range(1, g.n + 1)]
    sol = q_mat.solve(q_vec)
    phi = VertexField(g, {v: x for v, x in zip(range(1, g.n + 1), sol)})
    values = {a: phi[a[0]] + phi[a[1]] for a in g.arcs}
    psi = ArcField(g, values)
    e_qw = -phi[u1]   # <Q^{-1} q, q> with q the u1 indicator
    return phi, psi, e_qw


def fundamental_cycles(g, root=1):
    """One arc cycle per non-tree edge of a breadth-first spanning tree."""
    parent = {root: None}
    depth = {root: 0}
    queue = deque([root])
    tree_edges = set()
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in parent:
                parent[w] = u
                depth[w] = depth[u] + 1
                tree_edges.add((min(u, w), max(u, w)))
                queue.append(w)
    cycles = []
    for u, v in g.edges:
        if (u, v) in tree_edges:
            continue
        path_u, path_v = [u], [v]
        x, y = u, v
        while depth[x] > depth[y]:
            x = parent[x]
            path_u.append(x)
        while depth[y] > depth[x]:
            y = parent[y]
            path_v.append(y)
        while x != y:
            x, y = parent[x], parent[y]
            path_u.append(x)
            path_v.append(y)
        vertices = path_u + path_v[-2::-1]
        arcs = [(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)]
        arcs.append((vertices[-1], vertices[0]))
        cycles.append(arcs)
    return cycles


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

    Audit failure signals an implementation bug, never an expected
    runtime condition; the report lists every violated law.
    """
    if inst.phase != -1:
        raise ValueError("Kirchhoff audits apply to phase -1 states")
    g = inst.graph
    part = bipartition(g)
    report = AuditReport(bipartite=part is not None)
    beta = outflow(inst, psi)

    # Per-vertex constancy of psi(a) - psi(rev a), tail arcs included via
    # beta - alpha at the boundary.
    constants = {}
    const_ok = True
    for u in range(1, g.n + 1):
        diffs = {psi[(u, x)] - psi[(x, u)] for x in g.neighbors(u)}
        for j, v in enumerate(inst.boundary):
            if v == u:
                diffs.add(beta[j] - inst.inflow[j])
        if len(diffs) != 1:
            const_ok = False
        constants[u] = diffs
    report.add("per-vertex difference constancy", const_ok)

    if part is None:
        _pseudo_audit(inst, psi, report)
    else:
        _bipartite_audit(inst, psi, part, report)
    return report


def _bipartite_audit(inst, psi, part, report):
    g = inst.graph
    sign = {a: (RAT_ONE if a[1] in part.X else rat(-1)) for a in g.arcs}

    rhos = {rat(1, 2) * (sign[a] * psi[a] + sign[(a[1], a[0])] * psi[(a[1], a[0])])
            for a in g.arcs}
    report.add("constant part well defined", len(rhos) == 1)
    rho = next(iter(rhos))

    current = {a: sign[a] * psi[a] - rho for a in g.arcs}
    report.add("current arc antisymmetry",
               all(current[a] + current[(a[1], a[0])] == 0 for a in g.arcs))

    # q from the tail arcs; the inbound arc at v_j carries alpha_j.
    q = {}
    for j, v in enumerate(inst.boundary):
        tail_sign = RAT_ONE if v in part.X else rat(-1)
        q[v] = tail_sign * inst.inflow[j] - rho
    vertex_ok = True
    for u in range(1, g.n + 1):
        total = sum((current[(x, u)] for x in g.neighbors(u)), RAT_ZERO)
        total += q.get(u, RAT_ZERO)
        if total != 0:
            vertex_ok = False
    report.add("current law at vertices", vertex_ok)
    report.add("tail source balance", sum(q.values(), RAT_ZERO) == 0)

    cycle_ok = all(
        sum((current[a] for a in cycle), RAT_ZERO) == 0
        for cycle in fundamental_cycles(g, root=inst.boundary[0]))
    report.add("voltage law on fundamental cycles", cycle_ok)


def _pseudo_audit(inst, psi, report):
    g = inst.graph
    report.add("arc symmetry",
               all(psi[a] == psi[(a[1], a[0])] for a in g.arcs))
    vertex_ok = True
    for u in range(1, g.n + 1):
        total = sum((psi[(x, u)] for x in g.neighbors(u)), RAT_ZERO)
        total += inst.inflow_at(u)
        if total != 0:
            vertex_ok = False
    report.add("current law at vertices", vertex_ok)

    # Pseudo-voltage law, audited through potential existence: the
    # even-closed-walk statement is equivalent to psi being a signless
    # gradient, which is finitely checkable by a zero-residual solve.
    q_mat = signless_laplacian(g)
    q_vec = [-inst.inflow_at(v) for v in range(1, g.n + 1)]
    try:
        sol = q_mat.solve(q_vec)
    except SingularMatrixError:
        report.add("potential existence", False, "signless Laplacian singular")
        return
    phi = {v: x for v, x in zip(range(1, g.n + 1), sol)}
    report.add("potential existence",
               all(psi[a] == phi[a[0]] + phi[a[1]] for a in g.arcs))
