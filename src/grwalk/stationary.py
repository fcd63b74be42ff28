"""Exact stationary states on internal arcs, scattering and comfortability.

The walk restricted to the internal arc set satisfies a linear fixed-point
equation psi = E psi + rho, where E applies one step of the (signed, for
phase -1) Grover coin at every internal vertex and rho injects the constant
tail inflow.  Everything here is exact rational arithmetic.
"""
from __future__ import annotations

from dataclasses import dataclass

from .graphs import WalkInstance, bipartition
from .ratlin import RAT_ONE, RAT_ZERO, RatMatrix, rat, rat_dot


@dataclass
class ArcField:
    """A rational amplitude on every internal symmetric arc."""

    graph: object
    values: dict

    def __post_init__(self):
        if set(self.values) != set(self.graph.arcs):
            raise ValueError("arc field must cover exactly the internal arcs")

    @classmethod
    def from_vector(cls, graph, vec):
        return cls(graph, dict(zip(graph.arcs, vec)))

    def vector(self):
        return [self.values[a] for a in self.graph.arcs]

    def __getitem__(self, arc):
        return self.values[arc]

    def items(self):
        return self.values.items()


def operator_entries(inst):
    """The nonzero entries (i, j, value) of E, row by row: for arc
    a_i = (u, t) and arc b_j = (x, u), value = eps (2/deg~(u) - [x = t]).

    The two exact coin weights of each vertex are computed once and
    shared by its entries."""
    g = inst.graph
    eps = inst.phase
    weights = {}
    for u in range(1, g.n + 1):
        w = rat(2, inst.tilde_degree(u))
        weights[u] = (eps * w, eps * (w - RAT_ONE))
    for i, (u, t) in enumerate(g.arcs):
        onward, reverse = weights[u]
        for x in g.neighbors(u):
            val = reverse if x == t else onward
            if val != 0:
                yield i, g.arc_index((x, u)), val


def internal_operator(inst):
    """E on C^{A0}: entry (a, b) = eps (2/deg~(o(a)) - delta_{a, rev b})
    whenever o(a) = t(b), with the phase sign eps folded in."""
    n_arcs = 2 * inst.graph.m
    mat = RatMatrix.zeros(n_arcs, n_arcs)
    for i, j, val in operator_entries(inst):
        mat.data[i][j] = val
    return mat


def source_vector(inst):
    """rho = one coin application to the constant inflow, on internal arcs."""
    g = inst.graph
    eps = inst.phase
    rho = [RAT_ZERO] * len(g.arcs)
    for j, v in enumerate(inst.boundary):
        w = eps * rat(2, inst.tilde_degree(v)) * inst.inflow[j]
        for x in g.neighbors(v):
            rho[g.arc_index((v, x))] = w
    return rho


def stationary_state(inst, unit_states=None):
    """The exact stationary state psi on A0, via (I - E) psi = rho.

    I - E may have a kernel: confined eigenstates supported on internal
    cycles that the tail inflow never excites.  Starting from the zero
    state the dynamics stays orthogonal to that kernel, so the limit is
    the minimum-norm solution; that is what is returned.  An inconsistent
    source (no stationary state at all) raises SingularMatrixError,
    surfaced to the caller, never handled silently.

    psi = sum_k alpha_k psi_k over ``unit_stationary_states``: rho, and
    so the minimum-norm solution, is linear in the inflow alpha.  Given
    ``unit_states`` (one per boundary vertex, or ValueError), no solve runs.
    """
    if unit_states is None:
        unit_states = unit_stationary_states(inst)
    _check_count(inst, unit_states, "unit states")
    return ArcField(inst.graph, {
        arc: rat_dot(inst.inflow, [state[arc] for state in unit_states])
        for arc in inst.graph.arcs})


def _check_count(inst, values, what):
    """Reject a list of per-boundary-vertex values of the wrong length."""
    if len(values) != inst.r:
        raise ValueError(f"{len(values)} {what} for {inst.r} boundary vertices")


def outflow(inst, psi, inflow=None):
    """The outflow vector beta: one coin application at each boundary vertex,
    including the inbound tail amplitude:
    beta_j = eps ((2 - d) alpha_j + 2 sum_x psi(x, v_j)) / d, with the coin
    sign eps = z and d = deg~(v_j).  ``inflow`` replaces inst.inflow and
    needs one value per boundary vertex, or ValueError is raised.
    """
    g = inst.graph
    eps = inst.phase
    alpha = inst.inflow if inflow is None else tuple(rat(a) for a in inflow)
    _check_count(inst, alpha, "inflow values")
    beta = []
    for j, v in enumerate(inst.boundary):
        deg = inst.tilde_degree(v)
        neighbors = g.neighbors(v)
        beta.append(rat_dot([eps * (2 - deg)] + [2 * eps] * len(neighbors),
                            [alpha[j]] + [psi[(x, v)] for x in neighbors],
                            deg))
    return beta


def comfortability_direct(psi):
    """Half the squared amplitude mass of psi over all internal arcs."""
    values = list(psi.values.values())
    return rat_dot(values, values, 2)


def boundary_sort_order(inst):
    """Boundary indices reordered X-side first (stable), for a bipartite
    internal graph; identity order when non-bipartite."""
    part = bipartition(inst.graph)
    if part is None:
        return list(range(inst.r))
    xs = [j for j, v in enumerate(inst.boundary) if v in part.X]
    ys = [j for j, v in enumerate(inst.boundary) if v in part.Y]
    return xs + ys


def predicted_scattering(inst):
    """The scattering matrix predicted by the surface theorem, in the
    basis with the X-side boundary vertices first.

    The identity for a non-bipartite internal graph at z = -1 (the
    signless case); otherwise tau = z S Gr(r) S with Gr(r) = (2/r) J - I,
    that is tau_ij = z s_i s_j (2/r - delta_ij), where s = 1 on the X side
    and -1 on the Y side at z = -1 and s = 1 everywhere at z = +1.
    """
    part = bipartition(inst.graph)
    r, z = inst.r, inst.phase
    if z == -1 and part is None:
        return RatMatrix.identity(r)
    k = r if z == 1 else sum(1 for v in inst.boundary if v in part.X)
    s = [1] * k + [-1] * (r - k)
    w = rat(2, r)
    return RatMatrix([[z * s[i] * s[j] * (w - RAT_ONE if i == j else w)
                       for j in range(r)] for i in range(r)])


@dataclass
class ScatteringReport:
    """Scattering matrix, outflow, and the surface-theorem comparison."""

    alpha: tuple
    beta: tuple
    sigma: RatMatrix          # in the user-declared boundary order
    sigma_sorted: RatMatrix   # conjugated into the X-side-first basis
    predicted: RatMatrix      # the surface theorem's tau, X-side first
    sort_order: list
    orthogonal: bool
    matches_prediction: bool  # sigma_sorted == predicted
    classification: str       # read off tau and the inflow


def unit_stationary_states(inst):
    """Stationary states for each standard-basis inflow, sharing one
    matrix reduction; entry k is the state for inflow e_k.  The system
    is (E - I) psi_k = rho(-e_k), with the solutions and kernel of
    (I - E) psi_k = rho(e_k), so E is used as built and only its zero
    diagonal (arc (u, t) is never (x, u)) is written."""
    r = inst.r
    a = internal_operator(inst)
    for i, row in enumerate(a.data):
        row[i] = -RAT_ONE
    columns = []
    for k in range(r):
        unit = [-RAT_ONE if j == k else RAT_ZERO for j in range(r)]
        columns.append(source_vector(with_inflow(inst, unit)))
    return [ArcField.from_vector(inst.graph, sol)
            for sol in a.solve_min_norm_many(columns)]


def scattering(inst, unit_states=None):
    """Assemble sigma column-by-column from unit-inflow stationary solves."""
    r = inst.r
    if unit_states is None:
        unit_states = unit_stationary_states(inst)
    _check_count(inst, unit_states, "unit states")
    columns = [outflow(inst, psi, inflow=[int(j == k) for j in range(r)])
               for k, psi in enumerate(unit_states)]
    sigma = RatMatrix([list(row) for row in zip(*columns)])
    beta = tuple(sigma.mul_vec(list(inst.inflow)))
    orth = (sigma.transpose() * sigma).is_identity()
    order = boundary_sort_order(inst)
    sigma_sorted = RatMatrix([[sigma.data[i][j] for j in order]
                              for i in order])
    predicted = predicted_scattering(inst)
    alpha = [inst.inflow[j] for j in order]
    if predicted.is_identity():
        classification = "perfect-reflection"
    elif predicted.mul_vec(alpha) == alpha:
        classification = "degenerate-identity"
    else:
        classification = "bipartite-tau" if inst.phase == -1 else "grover"
    return ScatteringReport(tuple(inst.inflow), beta, sigma, sigma_sorted,
                            predicted, order, orth, sigma_sorted == predicted,
                            classification)


def with_inflow(inst, inflow):
    """The same tailed graph with a different inflow vector."""
    return WalkInstance(inst.graph, inst.boundary, tuple(inflow), inst.phase)
