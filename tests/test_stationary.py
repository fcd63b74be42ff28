"""Exact stationary states, outflow, and the scattering theorem."""
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from test_ratlin import (_reference_solve_min_norm_many,
                         corrupt_first_kernel_vector, zero_gram_coefficients)
from test_simulate import _grid_graph, _petersen_graph

from grwalk.catalog import standard_sweep
from grwalk.graphs import (Graph, WalkInstance, _GraphMemo, bipartition,
                           complete_graph, cycle_graph, enumerate_connected,
                           path_graph, standard_instance, star_graph)
from grwalk.ratlin import RatMatrix, rat
from grwalk.stationary import (ArcField, comfortability_direct,
                               internal_operator, outflow,
                               predicted_scattering, scattering,
                               source_vector, stationary_state,
                               unit_stationary_states, with_inflow)


def test_internal_operator_single_edge():
    # Degree-2 coin is free propagation: reflection entry 0, transmission 1.
    inst = standard_instance(Graph(2, [(1, 2)]), 1, 2)
    e = internal_operator(inst)
    g = inst.graph
    a12, a21 = g.arc_index((1, 2)), g.arc_index((2, 1))
    assert e.data[a12][a21] == rat(0)       # reversal of itself
    assert e.data[a21][a12] == rat(0)
    assert e.rows == e.cols == 2


def test_internal_operator_k3_weights():
    # Boundary vertices carry the tail in their degree: transmit 2/3,
    # reflect -1/3, times the global coin sign.
    inst = WalkInstance(complete_graph(3), (1, 3), (rat(9), rat(9)), -1)
    e = internal_operator(inst)
    g = inst.graph
    transmit = e.data[g.arc_index((1, 2))][g.arc_index((3, 1))]
    reflect = e.data[g.arc_index((1, 3))][g.arc_index((3, 1))]
    assert transmit == -rat(2, 3)
    assert reflect == -(rat(2, 3) - 1)
    # vertex 2 has no tail: plain degree-2 coin
    assert e.data[g.arc_index((2, 3))][g.arc_index((1, 2))] == -rat(1)


def test_internal_operator_row_weight_sums():
    # Per-arc absolute row sums recompute directly from the coin.
    inst = standard_instance(complete_graph(4), 1, 4)
    e = internal_operator(inst)
    g = inst.graph
    for i, a in enumerate(g.arcs):
        u = a[0]
        expected = sum(abs(rat(2, inst.tilde_degree(u)) -
                           (rat(1) if x == a[1] else rat(0)))
                       for x in g.neighbors(u))
        assert sum(abs(x) for x in e.data[i]) == expected


def test_source_vector_examples():
    inst = WalkInstance(complete_graph(3), (1, 3), (rat(9), rat(9)), -1)
    rho = source_vector(inst)
    g = inst.graph
    for a in g.arcs:
        want = rat(-6) if a[0] in (1, 3) else rat(0)
        assert rho[g.arc_index(a)] == want

    k4 = standard_instance(complete_graph(4), 1, 4)
    rho = source_vector(k4)
    for a in k4.graph.arcs:
        want = rat(-1, 2) if a[0] == 1 else rat(0)
        assert rho[k4.graph.arc_index(a)] == want

    zero = with_inflow(k4, (rat(0), rat(0)))
    assert all(x == 0 for x in source_vector(zero))


def test_stationary_worked_values():
    for g, u1, un, want in [
        (complete_graph(4), 1, 4, rat(5, 12)),
        (cycle_graph(4), 1, 4, rat(19, 16)),
        (path_graph(4), 1, 4, rat(3, 2)),
        (star_graph(4), 1, 2, rat(1)),
    ]:
        inst = standard_instance(g, u1, un)
        assert comfortability_direct(stationary_state(inst)) == want


def test_stationary_zero_inflow():
    inst = with_inflow(standard_instance(complete_graph(4), 1, 4),
                       (rat(0), rat(0)))
    psi = stationary_state(inst)
    assert all(v == 0 for v in psi.values.values())
    assert outflow(inst, psi) == [rat(0), rat(0)]
    assert comfortability_direct(psi) == rat(0)


def test_fixed_point_property():
    inst = standard_instance(cycle_graph(5), 2, 4)
    psi = stationary_state(inst)
    e = internal_operator(inst)
    rho = source_vector(inst)
    vec = psi.vector()
    assert [a + b for a, b in zip(e.mul_vec(vec), rho)] == vec


def test_stationary_state_from_unit_states_is_identical():
    # psi is linear in the inflow, so sum_k alpha_k psi_k must equal the
    # direct min-norm solve exactly, including on graphs whose I - E has
    # a kernel (even cycles, complete graphs) and for z = +1.
    petal = Graph(5, [(1, 2), (2, 3), (3, 1), (3, 4), (4, 5), (5, 3)])
    cases = [
        WalkInstance(cycle_graph(4), (1, 3), (rat(1), rat(0)), -1),
        WalkInstance(cycle_graph(6), (1, 2), (rat(-3, 7), rat(5, 2)), -1),
        WalkInstance(complete_graph(5), (1, 2, 4),
                     (rat(2, 3), rat(0), rat(-1, 5)), -1),
        WalkInstance(petal, (2, 5), (rat(1), rat(1)), 1),
        WalkInstance(star_graph(4), (2,), (rat(7, 3),), -1),
    ]
    for inst in cases:
        states = unit_stationary_states(inst)
        assert stationary_state(inst, unit_states=states) == \
            _reference_stationary_state(inst)


def test_outflow_examples():
    k4 = standard_instance(complete_graph(4), 1, 4)
    assert outflow(k4, stationary_state(k4)) == [rat(1), rat(0)]
    c4 = standard_instance(cycle_graph(4), 1, 4)
    assert outflow(c4, stationary_state(c4)) == [rat(0), rat(1)]


def _grover(r):
    """Gr(r) = (2/r) J - I."""
    return RatMatrix([[rat(2, r) - (rat(1) if i == j else rat(0))
                       for j in range(r)] for i in range(r)])


def _reference_tau(inst):
    """The product form: Gr(r) at z = +1; at z = -1, tau = -S Gr(r) S
    with S = diag(I_k, -I_{r-k}), X-side boundary vertices first."""
    part = bipartition(inst.graph)
    r = inst.r
    if inst.phase == 1:
        return _grover(r)
    if part is None:
        return RatMatrix.identity(r)
    k = sum(1 for v in inst.boundary if v in part.X)
    s = RatMatrix.zeros(r, r)
    for i in range(r):
        s.data[i][i] = rat(1) if i < k else rat(-1)
    return RatMatrix([[rat(-1) * x for x in row]
                      for row in (s * _grover(r) * s).data])


def test_predicted_scattering_equals_the_product_form():
    # Every boundary set with r <= 4 of every connected graph on n <= 5
    # vertices, at both phases: the same entries, of the same type.
    count = 0
    for n in range(2, 6):
        for g in enumerate_connected(n):
            for r in range(1, min(4, n) + 1):
                for boundary in itertools.combinations(range(1, n + 1), r):
                    for z in (-1, 1):
                        inst = WalkInstance(g, boundary, (rat(1),) * r, z)
                        got = predicted_scattering(inst).data
                        want = _reference_tau(inst).data
                        assert got == want
                        assert [type(x) for row in got for x in row] == \
                            [type(x) for row in want for x in row]
                    count += 1
    assert count == 22441


def test_predicted_scattering_cases():
    assert predicted_scattering(
        standard_instance(complete_graph(4), 1, 4)).is_identity()
    tau = predicted_scattering(standard_instance(cycle_graph(4), 1, 4))
    assert tau.data == [[rat(0), rat(1)], [rat(1), rat(0)]]
    # At z = +1 the prediction is Gr(2), bipartite or not.
    for g in (cycle_graph(4), complete_graph(4)):
        tau = predicted_scattering(standard_instance(g, 1, 4, z=1))
        assert tau.data == _grover(2).data == [[rat(0), rat(1)],
                                               [rat(1), rat(0)]]


def test_scattering_same_side_pair():
    # Both boundary vertices on the X side (k = 2): tau = -Gr(2).
    inst = standard_instance(path_graph(4), 1, 3)
    part = bipartition(inst.graph)
    assert part.side(1) == part.side(3)
    report = scattering(inst)
    assert report.sigma.data == [[rat(0), rat(-1)], [rat(-1), rat(0)]]
    assert report.orthogonal and report.matches_prediction


def test_scattering_balanced_inflow_reflects():
    # Equal X-side and Y-side inflow totals: beta = alpha even though the
    # graph is bipartite.  At z = +1, equal inflows are fixed by Gr(2).
    for z in (-1, 1):
        inst = WalkInstance(cycle_graph(4), (1, 4), (rat(3), rat(3)), z)
        report = scattering(inst)
        assert report.beta == (rat(3), rat(3))
        assert report.matches_prediction
        assert report.classification == "degenerate-identity"


def test_scattering_r3():
    g = complete_graph(4)
    inst = WalkInstance(g, (1, 2, 3), (rat(1), rat(0), rat(0)), -1)
    report = scattering(inst)
    assert report.sigma.is_identity()
    assert report.orthogonal and report.matches_prediction
    inst = WalkInstance(cycle_graph(4), (1, 2, 3), (rat(1), rat(0), rat(0)), -1)
    report = scattering(inst)
    assert report.orthogonal and report.matches_prediction
    assert not report.sigma.is_identity()


def test_scattering_r1_recorded():
    # r = 1 on a bipartite internal graph: the formula gives beta = -alpha
    # at z = -1; at z = +1, Gr(1) = I reflects perfectly.
    for z, label in ((-1, "bipartite-tau"), (1, "perfect-reflection")):
        inst = WalkInstance(cycle_graph(4), (1,), (rat(1),), z)
        report = scattering(inst)
        assert report.orthogonal and report.matches_prediction
        assert report.sigma.data == [[rat(z)]]
        assert report.classification == label


def test_scattering_z_plus_one():
    inst = standard_instance(complete_graph(4), 1, 4, z=1)
    report = scattering(inst)
    assert report.orthogonal and report.matches_prediction
    assert report.predicted == _grover(2)
    assert report.classification == "grover"


def test_scattering_matches_prediction_on_z_plus_one_sweep():
    pairs = 0
    for n in range(2, 5):
        for _, _, _, report in standard_sweep(n, 1):
            assert report.orthogonal and report.matches_prediction
            assert report.predicted == _grover(2)
            assert report.classification == "grover"
            pairs += 1
    assert pairs == 1 + 12 + 228


def test_per_vertex_constancy_of_arc_differences():
    # psi(a) - psi(rev a) is constant over the arcs leaving each vertex.
    for g, u1, un in [(complete_graph(4), 1, 4), (cycle_graph(5), 1, 3),
                      (Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)]), 4, 1)]:
        inst = standard_instance(g, u1, un)
        psi = stationary_state(inst)
        for u in range(1, g.n + 1):
            diffs = {psi[(u, x)] - psi[(x, u)] for x in g.neighbors(u)}
            assert len(diffs) == 1


def test_pseudo_kirchhoff_on_nonbipartite():
    inst = standard_instance(complete_graph(4), 1, 4)
    psi = stationary_state(inst)
    g = inst.graph
    for a in g.arcs:
        assert psi[a] == psi[(a[1], a[0])]
    for u in range(1, 5):
        total = sum((psi[(x, u)] for x in g.neighbors(u)), rat(0))
        assert total == -inst.inflow_at(u)


def test_stationary_state_rejects_wrong_unit_state_count():
    k4 = standard_instance(complete_graph(4), 1, 4)
    states = unit_stationary_states(k4)
    for wrong in ([], states[:1], states + states[:1]):
        with pytest.raises(ValueError, match="unit states for 2 boundary"):
            stationary_state(k4, unit_states=wrong)


def test_scattering_rejects_wrong_unit_state_count():
    k4 = standard_instance(complete_graph(4), 1, 4)
    states = unit_stationary_states(k4)
    for wrong in ([], states[:1], states + states[:1]):
        with pytest.raises(ValueError, match="unit states for 2 boundary"):
            scattering(k4, unit_states=wrong)


def test_outflow_rejects_wrong_inflow_length():
    k4 = standard_instance(complete_graph(4), 1, 4)
    psi = stationary_state(k4)
    assert outflow(k4, psi, inflow=[1, 0]) == outflow(k4, psi)
    for wrong, count in (([1, 0, 5], 3), ([1], 1), ([], 0)):
        with pytest.raises(ValueError,
                           match=f"{count} inflow values for 2 boundary"):
            outflow(k4, psi, inflow=wrong)


def _reference_fixed_point_matrix(inst):
    """I - E, formed in E's own rows (E has no diagonal entries)."""
    a = internal_operator(inst)
    for i, row in enumerate(a.data):
        row[:] = [-x if x else x for x in row]
        row[i] = rat(1)
    return a


def _reference_stationary_state(inst):
    """stationary_state's former direct path: one right-hand side on
    I - E, residual-checked in Fractions."""
    a = _reference_fixed_point_matrix(inst)
    rho = source_vector(inst)
    psi = a.solve_min_norm_many([rho])[0]
    assert a.mul_vec(psi) == rho
    return ArcField.from_vector(inst.graph, psi)


def _reference_unit_states(inst):
    """unit_stationary_states through the Fraction-Gram solver on I - E."""
    a = _reference_fixed_point_matrix(inst)
    columns = [source_vector(with_inflow(inst, [rat(int(j == k))
                                                for j in range(inst.r)]))
               for k in range(inst.r)]
    return [ArcField.from_vector(inst.graph, sol)
            for sol in _reference_solve_min_norm_many(a, columns)]


def _reference_outflow(inst, psi, inflow=None):
    """outflow with one Fraction per term."""
    g = inst.graph
    eps = inst.phase
    alpha = inst.inflow if inflow is None else tuple(rat(a) for a in inflow)
    beta = []
    for j, v in enumerate(inst.boundary):
        incoming = sum((psi[(x, v)] for x in g.neighbors(v)), rat(0))
        w = rat(2, inst.tilde_degree(v))
        beta.append(eps * (w * (alpha[j] + incoming) - alpha[j]))
    return beta


def _reference_comfort(psi):
    return rat(1, 2) * sum((v * v for v in psi.values.values()), rat(0))


def _assert_exact_sums_match_reference(inst):
    states = unit_stationary_states(inst)
    assert states == _reference_unit_states(inst)
    fields = states + [stationary_state(inst, unit_states=states)]
    assert fields[-1].values == {
        arc: sum((a * st[arc] for a, st in zip(inst.inflow, states)), rat(0))
        for arc in inst.graph.arcs}
    for k, psi in enumerate(fields):
        unit = None if k == inst.r else [int(j == k) for j in range(inst.r)]
        beta = outflow(inst, psi, inflow=unit)
        comfort = comfortability_direct(psi)
        assert beta == _reference_outflow(inst, psi, inflow=unit)
        assert comfort == _reference_comfort(psi)
        values = list(psi.values.values()) + beta + [comfort]
        assert all(type(x) is Fraction for x in values)


@pytest.mark.parametrize("z", [-1, 1])
def test_exact_sums_equal_fraction_reference_on_catalog(z):
    # Every standard pair (both directions share one solve) of every
    # connected graph with n <= 4.
    pairs = 0
    for n in range(2, 5):
        for g in enumerate_connected(n):
            for u, v in itertools.combinations(range(1, n + 1), 2):
                _assert_exact_sums_match_reference(
                    standard_instance(g, u, v, z))
                pairs += 1
    assert pairs == 1 + 12 + 228


@pytest.mark.parametrize("z", [-1, 1])
def test_exact_sums_equal_fraction_reference_on_random_instances(z):
    rng = random.Random(20 + z)
    graphs = [g for n in range(2, 6) for g in enumerate_connected(n)]
    for g in rng.sample(graphs, 120):
        r = rng.randint(1, min(3, g.n))
        boundary = tuple(rng.sample(range(1, g.n + 1), r))
        inflow = tuple(rat(rng.randint(-5, 5), rng.randint(1, 6))
                       for _ in boundary)
        _assert_exact_sums_match_reference(
            WalkInstance(g, boundary, inflow, z))


@pytest.mark.parametrize("z", [-1, 1])
def test_stationary_state_equals_direct_reference(z):
    # Every connected graph with n <= 4, random boundaries and rational
    # inflows (some zero), then the larger named instances.
    rng = random.Random(40 + z)
    cases = []
    for n in range(2, 5):
        for g in enumerate_connected(n):
            boundary = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
            inflow = tuple(rat(rng.randint(-4, 4), rng.randint(1, 5))
                           for _ in boundary)
            cases.append(WalkInstance(g, boundary, inflow, z))
    assert len(cases) == 1 + 4 + 38
    cases += [standard_instance(_petersen_graph(), 1, 10, z),
              standard_instance(_grid_graph(3, 4), 1, 12, z),
              WalkInstance(_grid_graph(4, 4), (1, 16, 4),
                           (rat(1, 2), rat(-1, 3), rat(2)), z)]
    for inst in cases:
        psi = stationary_state(inst)
        assert psi == _reference_stationary_state(inst)
        assert all(type(x) is Fraction for x in psi.values.values())


def _random_connected(rng, n, m_max):
    """A seeded connected graph on n vertices with at most m_max edges: a
    random tree (vertex v joined to an earlier vertex) plus random pairs."""
    tree = {(rng.randint(1, v - 1), v) for v in range(2, n + 1)}
    others = [p for p in itertools.combinations(range(1, n + 1), 2)
              if p not in tree]
    extra = rng.sample(others, rng.randint(0, min(len(others),
                                                  m_max - len(tree))))
    return Graph(n, sorted(tree | set(extra)))


def _confined_basis(g, z):
    """Integer fields on g's arcs, read off the memo's BFS tree with no
    elimination: one closed walk root -> u -> v -> root along the tree per
    non-tree edge (u, v).  At z = +1 each step of a walk adds +1 on its
    arc and -1 on the reverse arc; at z = -1 step i adds (-1)^i on both.
    At z = -1 on a non-bipartite graph the memo's odd_edge gets no field
    of its own: its walk is appended to every walk of odd length, so that
    the signs alternate around every closed walk."""
    _, parent, _, odd_edge = _GraphMemo(g).coloring

    def up(x):                      # x, its parent, ..., the root
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path

    chords = [(u, v) for u, v in g.edges
              if parent[u] != v and parent[v] != u]
    walks = [up(u)[::-1] + up(v) for u, v in chords]
    if z == -1 and odd_edge is not None:
        odd = walks.pop(chords.index(odd_edge))
        walks = [w if len(w) % 2 else w + odd[1:] for w in walks]
    basis = []
    for w in walks:
        k = [0] * (2 * g.m)
        for i, arc in enumerate(zip(w, w[1:])):
            sign = 1 if z == 1 else (-1) ** i
            k[g.arc_index(arc)] += sign
            k[g.arc_index(arc[::-1])] -= z * sign
        basis.append(k)
    return basis


def _assert_confined_basis(inst, dim):
    """_confined_basis spans ker(I - E), of dimension ``dim``, and every
    unit stationary state is orthogonal to it."""
    g, z = inst.graph, inst.phase
    basis = _confined_basis(g, z)
    e = internal_operator(inst)
    states = [psi.vector() for psi in unit_stationary_states(inst)]
    for k in basis:
        # Graph-only conditions: no inflow at any vertex, and the coin
        # reflects each arc onto its reverse with sign z.  Together they
        # give (I - E) k = 0 whatever the boundary.
        for u in range(1, g.n + 1):
            assert sum(k[g.arc_index((x, u))] for x in g.neighbors(u)) == 0
        assert all(k[g.arc_index((u, t))] == -z * k[g.arc_index((t, u))]
                   for u, t in g.arcs)
        assert e.mul_vec(k) == k
        assert all(sum(a * b for a, b in zip(psi, k)) == 0 for psi in states)
    assert len(basis) == dim
    assert not basis or RatMatrix(basis).rank() == dim


def test_confined_state_count_is_the_cycle_rank():
    # dim ker(I - E) = b1 = m - n + 1 at z = +1, one less at z = -1 on a
    # non-bipartite graph, and _confined_basis is a basis of it: every
    # connected graph with n <= 5, then seeded random graphs with n = 6..8.
    rng = random.Random(4)
    cases = []
    for n in range(2, 6):
        for g in enumerate_connected(n):
            boundary = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for z in (-1, 1):
                cases.append(WalkInstance(g, boundary,
                                          (rat(1),) * len(boundary), z))
    assert len(cases) == 1542
    rng = random.Random(20)
    for _ in range(100):
        g = _random_connected(rng, rng.randint(6, 8), 20)
        cases += [_random_instance(rng, g, z) for z in (-1, 1)]
    for inst in cases:
        g = inst.graph
        dim = 2 * g.m - _reference_fixed_point_matrix(inst).rank()
        odd = inst.phase == -1 and bipartition(g) is None
        assert dim == g.m - g.n + 1 - odd
        _assert_confined_basis(inst, dim)


def _float_min_norm(inst):
    """numpy's least-squares solution of (I - E) x = rho in float64, the
    minimum-norm one, from an SVD that shares nothing with the exact
    elimination; and the rank it found.  Singular values below 1e-10
    times the largest count as zero.  numpy's default cutoff, 1.3e-14 on
    a 7-vertex, 15-edge graph, kept a kernel direction whose singular
    value came out at 1.4e-14, and missed psi by 2-5% at both phases."""
    e = np.array([[float(x) for x in row]
                  for row in internal_operator(inst).data])
    rho = np.array([float(x) for x in source_vector(inst)])
    x, _, rank, _ = np.linalg.lstsq(np.eye(len(rho)) - e, rho, rcond=1e-10)
    return x, rank


def test_float_min_norm_oracle_equals_the_exact_state():
    # Every ordered standard pair with n <= 4 at both phases; every 8th
    # graph with n = 5, on every unordered pair with both unit inflows at
    # both phases; then seeded random graphs with n = 6..8 and with
    # n = 9..12, all with 2m <= 40 (lstsq slows down sharply on larger
    # systems under multi-threaded BLAS) and rational inflows.
    cases = [standard_instance(g, u, v, z) for z in (-1, 1)
             for n in range(2, 5) for g in enumerate_connected(n)
             for u, v in itertools.permutations(range(1, n + 1), 2)]
    assert len(cases) == 964
    cases += [WalkInstance(g, pair, inflow, z) for z in (-1, 1)
              for g in enumerate_connected(5)[::8]
              for pair in itertools.combinations(range(1, 6), 2)
              for inflow in ((rat(1), rat(0)), (rat(0), rat(1)))]
    assert len(cases) == 964 + 3640
    rng = random.Random(18)
    for lo, hi, count in ((6, 8, 50), (9, 12, 20)):
        for _ in range(count):
            g = _random_connected(rng, rng.randint(lo, hi), 20)
            cases += [_random_instance(rng, g, z) for z in (-1, 1)]
    assert len(cases) == 964 + 3640 + 100 + 40
    shifted = 0
    for inst in cases:
        psi = stationary_state(inst).vector()
        exact = np.array([float(x) for x in psi])
        x, rank = _float_min_norm(inst)
        assert np.max(np.abs(x - exact)) <= 1e-12 * np.max(np.abs(exact))
        basis = _confined_basis(inst.graph, inst.phase)
        assert rank == len(psi) - len(basis)
        if basis:
            # psi + k solves the same equation exactly, so only the
            # minimum-norm property tells it from psi.
            moved = [a + b for a, b in zip(psi, basis[0])]
            rho = source_vector(inst)
            assert [a + b for a, b in zip(
                internal_operator(inst).mul_vec(moved), rho)] == moved
            assert np.max(np.abs(x - np.array(moved, dtype=float))) > 1e-3
            shifted += 1
    assert shifted > 0


def test_quadratic_pencil_identity():
    # det(xI - zE) (x^2 - 1)^n = (x^2 - 1)^m det(P(x)), where
    # P(x) = x^2 I - 2x D~^-1 M + 2 D D~^-1 - I, with D the internal and
    # D~ the tailed degrees and M the adjacency matrix: every connected
    # graph with n <= 4 at both phases, a seeded boundary each, at
    # 2m + 2n + 1 seeded rational points.
    rng = random.Random(12)
    points = 0
    for n in range(2, 5):
        for g in enumerate_connected(n):
            for z in (-1, 1):
                inst = _random_instance(rng, g, z)
                e = internal_operator(inst).data
                tilde = [inst.tilde_degree(v) for v in range(1, n + 1)]
                for _ in range(2 * g.m + 2 * n + 1):
                    x = rat(rng.randint(-9, 9), rng.randint(1, 9))
                    shifted = RatMatrix([[(x if i == j else 0) - z * a
                                          for j, a in enumerate(row)]
                                         for i, row in enumerate(e)])
                    pencil = RatMatrix([[
                        x * x + rat(2 * g.degree(u), tilde[u - 1]) - 1
                        if u == v else
                        -2 * x / tilde[u - 1] if v in g.neighbors(u) else 0
                        for v in range(1, n + 1)] for u in range(1, n + 1)])
                    assert shifted.det() * (x * x - 1) ** n == \
                        (x * x - 1) ** g.m * pencil.det()
                    points += 1
    assert points == 1366


@pytest.mark.parametrize("solve", [unit_stationary_states, stationary_state])
def test_stationary_solves_catch_a_corrupted_kernel_vector(solve,
                                                           monkeypatch):
    inst = standard_instance(complete_graph(4), 1, 4)
    solve(inst)
    corrupt_first_kernel_vector(monkeypatch)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        solve(inst)


def test_stationary_state_catches_an_unprojected_solution(monkeypatch):
    # C4 at z = -1 has one confined state, so the solve needs the Gram step.
    inst = standard_instance(cycle_graph(4), 1, 4)
    assert comfortability_direct(stationary_state(inst)) == rat(19, 16)
    zero_gram_coefficients(monkeypatch)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        stationary_state(inst)


def _random_instance(rng, g, z):
    """A seeded boundary of any size and order with rational inflows."""
    boundary = tuple(rng.sample(range(1, g.n + 1), rng.randint(1, g.n)))
    inflow = tuple(rat(rng.randint(-4, 4), rng.randint(1, 5))
                   for _ in boundary)
    return WalkInstance(g, boundary, inflow, z)


def test_switching_relates_the_two_phases_on_bipartite_graphs():
    # With s = +1 on X and -1 on Y: psi_{-1}(alpha)(a) =
    # s(t(a)) psi_{+1}(s alpha)(a) and sigma_{-1} = -S sigma_{+1} S, where
    # S = diag(s(v_j)).  The arc solve never reads the colouring, so this
    # ties the memo's bipartition to it; every bipartite connected graph
    # with n <= 5.
    rng = random.Random(218)
    cases = 0
    for n in range(2, 6):
        for g in enumerate_connected(n):
            part = bipartition(g)
            if part is None:
                continue
            s = {v: 1 if v in part.X else -1 for v in range(1, n + 1)}
            minus = _random_instance(rng, g, -1)
            plus = WalkInstance(g, minus.boundary,
                                tuple(s[v] * a for v, a in
                                      zip(minus.boundary, minus.inflow)), 1)
            psi_plus = stationary_state(plus)
            assert stationary_state(minus) == ArcField(
                g, {a: s[a[1]] * psi_plus[a] for a in g.arcs})
            sign = [s[v] for v in minus.boundary]
            sigma_plus = scattering(plus).sigma.data
            assert scattering(minus).sigma.data == [
                [-sign[i] * x * sign[j] for j, x in enumerate(row)]
                for i, row in enumerate(sigma_plus)]
            cases += 1
    assert cases == 218


@pytest.mark.parametrize("z", [-1, 1])
def test_relabelling_and_boundary_reorder_commute_with_the_solve(z):
    # Relabel the vertices by a random permutation pi and reorder the
    # boundary by a random permutation p: psi moves with its arcs, sigma
    # is conjugated by p, and the bipartition moves with the vertices.
    # Every connected graph with n <= 4, and every 8th with n = 5.
    rng = random.Random(30 + z)
    for n in range(2, 6):
        for g in enumerate_connected(n)[::8 if n == 5 else 1]:
            inst = _random_instance(rng, g, z)
            pi = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
            p = rng.sample(range(inst.r), inst.r)
            h = Graph(n, [(pi[u], pi[v]) for u, v in g.edges])
            moved = WalkInstance(h, tuple(pi[inst.boundary[k]] for k in p),
                                 tuple(inst.inflow[k] for k in p), z)
            psi = stationary_state(inst)
            assert stationary_state(moved) == ArcField(
                h, {(pi[u], pi[v]): x for (u, v), x in psi.items()})
            sigma = scattering(inst).sigma.data
            assert scattering(moved).sigma.data == [
                [sigma[i][j] for j in p] for i in p]
            part, image = bipartition(g), bipartition(h)
            assert (part is None) == (image is None)
            if part is not None:
                sides = {frozenset(pi[v] for v in part.X),
                         frozenset(pi[v] for v in part.Y)}
                assert sides == {image.X, image.Y}
