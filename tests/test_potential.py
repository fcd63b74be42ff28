"""Poisson routes, incidence identities, and Kirchhoff audits."""
import random
from collections import deque
from operator import add, sub

import pytest

from grwalk.catalog import analyze, standard_sweep
from grwalk.graphs import (Graph, WalkInstance, _two_color, bipartition,
                           complete_graph, cycle_graph, enumerate_connected,
                           odd_cycle_witness, path_graph, standard_instance)
from grwalk.potential import (AuditReport, _switching, bipartite_route,
                              incidence_nonoriented, incidence_oriented,
                              kirchhoff_audit, laplacian, nonbipartite_route,
                              signless_laplacian)
from grwalk.ratlin import RatMatrix, rat
from grwalk.stationary import ArcField, comfortability_direct, outflow, \
    stationary_state, with_inflow


def test_laplacian_single_edge():
    g = Graph(2, [(1, 2)])
    assert laplacian(g).data == [[rat(1), rat(-1)], [rat(-1), rat(1)]]
    assert signless_laplacian(g).data == [[rat(1), rat(1)], [rat(1), rat(1)]]


def test_laplacian_row_sums_vanish():
    for g in (complete_graph(5), cycle_graph(6), path_graph(4)):
        lap = laplacian(g)
        ones = [rat(1)] * g.n
        assert lap.mul_vec(ones) == [rat(0)] * g.n


def test_signless_laplacian_det_k4():
    assert signless_laplacian(complete_graph(4)).det() == rat(48)


def test_signless_laplacian_singular_iff_bipartite():
    assert signless_laplacian(cycle_graph(4)).det() == rat(0)
    assert signless_laplacian(cycle_graph(5)).det() != rat(0)


def test_incidence_single_edge():
    g = Graph(2, [(1, 2)])
    assert incidence_oriented(g).data == [[rat(-1)], [rat(1)]]
    assert incidence_nonoriented(g).data == [[rat(1)], [rat(1)]]


def test_incidence_products():
    # Edge-indexed incidence matrices: B Bt = L and Bn Bnt = Q.
    for g in (complete_graph(4), cycle_graph(5), path_graph(4),
              Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)])):
        b = incidence_oriented(g)
        assert b * b.transpose() == laplacian(g)
        bn = incidence_nonoriented(g)
        assert bn * bn.transpose() == signless_laplacian(g)


def test_grounded_laplacian_det_is_ground_independent():
    for g in (complete_graph(5), cycle_graph(5),
              Graph(4, [(1, 2), (1, 3), (1, 4), (2, 3)])):
        dets = {laplacian(g).minor([v], [v]).det() for v in range(g.n)}
        assert len(dets) == 1


def test_bipartite_route_c4():
    inst = standard_instance(cycle_graph(4), 1, 4)
    decomp, psi, energy = bipartite_route(inst)
    assert decomp.rho == rat(1, 2)
    assert decomp.potential[decomp.ground] == rat(0)
    assert energy == rat(19, 16)
    assert psi == stationary_state(inst)
    # Electrical part: E_EC = 3/16, plus rho^2 |E| = 1.
    j = decomp.current
    e_ec = rat(1, 2) * sum((v * v for v in j.values.values()), rat(0))
    assert e_ec == rat(3, 16)
    for a in inst.graph.arcs:
        assert j[a] + j[(a[1], a[0])] == rat(0)


def test_bipartite_route_path_ends():
    inst = standard_instance(path_graph(4), 1, 4)
    _, psi, energy = bipartite_route(inst)
    assert energy == rat(3, 2)
    assert psi == stationary_state(inst)


def test_nonbipartite_route_k4():
    inst = standard_instance(complete_graph(4), 1, 4)
    phi, psi, energy = nonbipartite_route(inst)
    assert energy == rat(5, 12)
    assert psi == stationary_state(inst)
    for a in inst.graph.arcs:
        assert psi[a] == phi[a[0]] + phi[a[1]]


def test_nonbipartite_route_paw():
    # Triangle plus pendant, tails at the pendant and a cycle vertex.
    g = Graph(4, [(1, 2), (2, 3), (3, 4), (2, 4)])
    _, _, energy = nonbipartite_route(standard_instance(g, 1, 3))
    assert energy == rat(7, 4)


def test_routes_reject_wrong_parity():
    with pytest.raises(ValueError):
        bipartite_route(standard_instance(complete_graph(4), 1, 4))
    with pytest.raises(ValueError):
        nonbipartite_route(standard_instance(cycle_graph(4), 1, 4))
    # At z = +1 every graph takes the Laplacian route, K4 included.
    with pytest.raises(ValueError):
        nonbipartite_route(standard_instance(complete_graph(4), 1, 4, z=1))


def test_routes_cover_nonstandard_settings():
    nonstandard = with_inflow(standard_instance(cycle_graph(4), 1, 4),
                              (rat(2), rat(0)))
    for inst in (nonstandard,
                 standard_instance(cycle_graph(4), 1, 4, z=1),
                 standard_instance(complete_graph(4), 1, 4, z=1)):
        decomp, psi, energy = bipartite_route(inst)
        assert psi == stationary_state(inst)
        assert energy == comfortability_direct(psi)
        assert decomp.potential[inst.boundary[-1]] == rat(0)
    assert bipartite_route(nonstandard)[0].rho == rat(1)
    # r = 3 with a zero inflow on the non-bipartite route.
    inst = WalkInstance(complete_graph(4), (2, 1, 4),
                        (rat(-3, 2), rat(0), rat(5)), -1)
    _, psi, energy = nonbipartite_route(inst)
    assert psi == stationary_state(inst)
    assert energy == comfortability_direct(psi)


def _reference_bipartite_route(inst):
    """bipartite_route as a grounded Laplacian solve L phi = q, with the
    sign s read off the bipartition."""
    part = bipartition(inst.graph)
    if inst.phase == -1 and part is None:
        raise ValueError("at phase -1 this route needs a bipartite internal graph")
    minus = frozenset() if inst.phase == 1 else \
        part.oriented(inst.boundary[0]).Y
    g = inst.graph
    signed = {v: -a if v in minus else a
              for v, a in zip(inst.boundary, inst.inflow)}
    rho = sum(signed.values(), rat(0)) / inst.r
    ground = inst.boundary[-1]
    keep = [v for v in range(1, g.n + 1) if v != ground]
    lap = laplacian(g).minor([ground - 1], [ground - 1])
    sol = lap.solve([signed[v] - rho if v in signed else rat(0)
                     for v in keep])
    phi = dict(zip(keep, sol))
    phi[ground] = rat(0)
    current = {a: phi[a[0]] - phi[a[1]] for a in g.arcs}
    psi = ArcField(g, {a: -(j + rho) if a[1] in minus else j + rho
                       for a, j in current.items()})
    e_qw = sum((current[e] ** 2 for e in g.edges), rat(0)) + \
        rho * rho * rat(g.m)
    return rho, current, phi, ground, psi, e_qw


def _reference_nonbipartite_route(inst):
    """nonbipartite_route as the signless solve Q phi = -alpha."""
    if inst.phase == 1 or bipartition(inst.graph) is not None:
        raise ValueError("this route needs a non-bipartite internal graph "
                         "at phase -1")
    g = inst.graph
    vertices = range(1, g.n + 1)
    sol = signless_laplacian(g).solve([-inst.inflow_at(v) for v in vertices])
    phi = dict(zip(vertices, sol))
    psi = ArcField(g, {a: phi[a[0]] + phi[a[1]] for a in g.arcs})
    e_qw = -sum((a * phi[v] for v, a in zip(inst.boundary, inst.inflow)),
                rat(0))
    return phi, psi, e_qw


def _typed(values):
    """A dict's items with each value's type, so that equal values of
    different types compare unequal."""
    return [(k, type(x), x) for k, x in values.items()]


def _route_or_error(route, inst):
    try:
        return route(inst)
    except ValueError as exc:
        return str(exc)


def _random_instance(rng, g, z, r=None):
    """A random boundary of size r (random if None) with inflows drawn
    from [-4, 4] / [1, 4], so zeros occur."""
    r = rng.randint(1, g.n) if r is None else r
    boundary = tuple(rng.sample(range(1, g.n + 1), r))
    inflow = tuple(rat(rng.randint(-4, 4), rng.randint(1, 4))
                   for _ in boundary)
    return WalkInstance(g, boundary, inflow, z)


@pytest.mark.parametrize("z", [-1, 1])
def test_routes_equal_reference_on_small_catalog(z):
    # Every connected graph with n = 2..5, one random boundary and inflow
    # each: every field, its Fraction type and the parity errors.
    rng = random.Random(11 + z)
    zeros = 0
    for n in range(2, 6):
        for g in enumerate_connected(n):
            inst = _random_instance(rng, g, z)
            zeros += rat(0) in inst.inflow
            got = _route_or_error(bipartite_route, inst)
            want = _route_or_error(_reference_bipartite_route, inst)
            assert isinstance(got, str) == isinstance(want, str)
            if isinstance(got, str):
                assert got == want
            else:
                decomp, psi, energy = got
                rho, current, phi, ground, psi_ref, e_ref = want
                assert (type(decomp.rho), decomp.rho) == (type(rho), rho)
                assert _typed(decomp.current.values) == _typed(current)
                assert _typed(decomp.potential.values) == _typed(phi)
                assert decomp.ground == ground
                assert _typed(psi.values) == _typed(psi_ref.values)
                assert (type(energy), energy) == (type(e_ref), e_ref)
            got = _route_or_error(nonbipartite_route, inst)
            want = _route_or_error(_reference_nonbipartite_route, inst)
            assert isinstance(got, str) == isinstance(want, str)
            if isinstance(got, str):
                assert got == want
            else:
                assert _typed(got[0].values) == _typed(want[0])
                assert _typed(got[1].values) == _typed(want[1].values)
                assert (type(got[2]), got[2]) == (type(want[2]), want[2])
    assert zeros > 50


def test_kirchhoff_audit_bipartite():
    inst = standard_instance(cycle_graph(4), 1, 4)
    report = kirchhoff_audit(inst, stationary_state(inst))
    assert report.bipartite and report.ok
    names = {c.name for c in report.checks}
    assert "current law at vertices" in names
    assert "voltage law on fundamental cycles" in names
    assert "tail source balance" in names


def test_kirchhoff_audit_nonbipartite():
    inst = standard_instance(complete_graph(4), 1, 4)
    report = kirchhoff_audit(inst, stationary_state(inst))
    assert not report.bipartite and report.ok
    names = {c.name for c in report.checks}
    assert "arc symmetry" in names and "potential existence" in names


@pytest.mark.parametrize("g", [cycle_graph(4), complete_graph(4)])
def test_kirchhoff_audit_z_plus_one(g):
    # At z = +1 both parities obey the Kirchhoff laws with s = 1.
    inst = standard_instance(g, 1, 3, z=1)
    psi = stationary_state(inst)
    report = kirchhoff_audit(inst, psi)
    assert report.ok
    assert report.bipartite == (bipartition(g) is not None)
    names = {c.name for c in report.checks}
    assert {"per-vertex sum constancy", "current law at vertices",
            "voltage law on fundamental cycles"} <= names
    broken = dict(psi.values)
    broken[g.arcs[0]] += rat(1, 7)
    assert not kirchhoff_audit(inst, ArcField(g, broken)).ok


def test_kirchhoff_audit_propagates_residual_failures(monkeypatch):
    # The audit solves nothing, but analyze() still runs the signless
    # route's solve next to it; a solver fault (nonzero residual) must
    # raise, not be reported as a finding.
    inst = standard_instance(complete_graph(4), 1, 4)

    def faulty_solve(self, b):
        raise RuntimeError("exact solver produced a nonzero residual")

    monkeypatch.setattr(RatMatrix, "solve", faulty_solve)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        analyze(inst)


def test_kirchhoff_audit_detects_corruption():
    inst = standard_instance(cycle_graph(4), 1, 4)
    psi = stationary_state(inst)
    broken = dict(psi.values)
    a = inst.graph.arcs[0]
    broken[a] = broken[a] + rat(1, 7)
    report = kirchhoff_audit(inst, ArcField(inst.graph, broken))
    assert not report.ok and report.failures()


def _fundamental_cycles(g, root):
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
        cycles.append([(vertices[i], vertices[(i + 1) % len(vertices)])
                       for i in range(len(vertices))])
    return cycles


def _reference_audit(inst, psi):
    """kirchhoff_audit with the voltage law as zero sums on fundamental
    cycles and potential existence tested against the signless route's
    solved potential."""
    g = inst.graph
    part = bipartition(g)
    report = AuditReport(bipartite=part is not None)
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
    if inst.phase == -1 and part is None:
        report.add("arc symmetry",
                   all(psi[a] == psi[(a[1], a[0])] for a in g.arcs))
        report.add("current law at vertices", all(
            sum((psi[(x, u)] for x in g.neighbors(u)), inst.inflow_at(u)) == 0
            for u in range(1, g.n + 1)))
        phi = nonbipartite_route(inst)[0]
        report.add("potential existence",
                   all(psi[a] == phi[a[0]] + phi[a[1]] for a in g.arcs))
        return report
    minus = frozenset() if inst.phase == 1 else \
        part.oriented(inst.boundary[0]).Y
    spsi = {a: -x if a[1] in minus else x for a, x in psi.items()}
    sums = {spsi[(u, v)] + spsi[(v, u)] for u, v in g.edges}
    report.add("constant part well defined", len(sums) == 1)
    rho = next(iter(sums)) / 2
    current = {a: x - rho for a, x in spsi.items()}
    report.add("current arc antisymmetry",
               all(current[(u, v)] + current[(v, u)] == 0 for u, v in g.edges))
    q = {v: (-a if v in minus else a) - rho
         for v, a in zip(inst.boundary, inst.inflow)}
    report.add("current law at vertices", all(
        sum((current[(x, u)] for x in g.neighbors(u)), q.get(u, rat(0))) == 0
        for u in range(1, g.n + 1)))
    report.add("tail source balance", sum(q.values(), rat(0)) == 0)
    report.add("voltage law on fundamental cycles", all(
        sum((current[a] for a in cycle), rat(0)) == 0
        for cycle in _fundamental_cycles(g, inst.boundary[0])))
    return report


def _assert_audits_agree(inst, psi):
    got, want = kirchhoff_audit(inst, psi), _reference_audit(inst, psi)
    assert got.bipartite == want.bipartite
    assert got.ok == want.ok
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    # Every verdict agrees once the law that makes the potential unique
    # holds: an antisymmetric current is a gradient exactly when its
    # fundamental-cycle sums vanish, and a signless gradient that obeys
    # the current law has the route's potential.
    verdicts = {c.name: c.ok for c in got.checks}
    if verdicts.get("current arc antisymmetry",
                    verdicts["current law at vertices"]):
        assert [c.ok for c in got.checks] == [c.ok for c in want.checks]


def _corruptions(psi, rng):
    """psi with one arc, a symmetric arc pair and an antisymmetric arc
    pair shifted by a random nonzero rational."""
    g = psi.graph
    out = []
    for signs in ((1, 0), (1, 1), (1, -1)):
        u, v = rng.choice(g.arcs)
        delta = rat(rng.randint(1, 9), rng.randint(1, 9))
        values = dict(psi.values)
        values[(u, v)] += signs[0] * delta
        values[(v, u)] += signs[1] * delta
        out.append(ArcField(g, values))
    return out


@pytest.mark.parametrize("z", [-1, 1])
def test_audit_equals_reference_on_small_catalog(z):
    rng = random.Random(z)
    states = 0
    for n in range(2, 5):
        for g, _, configs, _ in standard_sweep(n, z):
            for cfg in configs:
                inst = standard_instance(g, *cfg.boundary, z=z)
                assert kirchhoff_audit(inst, cfg.psi).ok
                for psi in [cfg.psi] + _corruptions(cfg.psi, rng):
                    _assert_audits_agree(inst, psi)
                states += 1
    assert states == 2 * (1 + 4 * 3 + 38 * 6)


@pytest.mark.parametrize("z", [-1, 1])
def test_audit_equals_reference_on_random_instances(z):
    # Any boundary size and inflow: every connected graph with n = 2..4
    # at every r = 1..n, and with n = 5 at one random r.
    rng = random.Random(7 + z)
    states = 0
    for n in range(2, 6):
        for g in enumerate_connected(n):
            for r in range(1, n + 1) if n < 5 else [None]:
                inst = _random_instance(rng, g, z, r)
                psi = stationary_state(inst)
                assert kirchhoff_audit(inst, psi).ok
                for state in [psi] + _corruptions(psi, rng):
                    _assert_audits_agree(inst, state)
                states += 1
    assert states == (1 * 2 + 4 * 3 + 38 * 4) + 728


@pytest.mark.parametrize("z", [-1, 1])
def test_audit_voltage_law_reads_each_edge_once(z):
    # The Laplacian case tests the voltage law on the edges u < v only; a
    # shifted reverse arc is left to the antisymmetry check.
    inst = standard_instance(cycle_graph(4), 1, 4, z=z)
    psi = dict(stationary_state(inst).values)
    psi[(2, 1)] += rat(1, 7)
    verdicts = {c.name: c.ok
                for c in kirchhoff_audit(inst, ArcField(inst.graph, psi)).checks}
    assert not verdicts["current arc antisymmetry"]
    assert verdicts["voltage law on fundamental cycles"]


def test_audit_flags_circulation_on_c4():
    # An antisymmetric current around the cycle keeps every other law:
    # the per-vertex differences, the current law and the tail balance.
    inst = standard_instance(cycle_graph(4), 1, 4)
    psi = dict(stationary_state(inst).values)
    minus = bipartition(inst.graph).oriented(1).Y
    for u, v in [(1, 2), (2, 3), (3, 4), (4, 1)]:
        for a, sign in (((u, v), 1), ((v, u), -1)):
            psi[a] += sign * rat(1, 3) * (-1 if a[1] in minus else 1)
    report = kirchhoff_audit(inst, ArcField(inst.graph, psi))
    assert [c.name for c in report.failures()] == \
        ["voltage law on fundamental cycles"]


def test_audit_flags_even_cycle_alternation_on_k4():
    # +-delta alternating around the 4-cycle 1-2-3-4 of K4 is symmetric
    # and sums to zero at each vertex, but lies in the kernel of the
    # non-oriented incidence matrix, so it is no signless gradient.
    inst = standard_instance(complete_graph(4), 1, 4)
    psi = dict(stationary_state(inst).values)
    for (u, v), sign in zip([(1, 2), (2, 3), (3, 4), (4, 1)], (1, -1, 1, -1)):
        psi[(u, v)] += sign * rat(2, 5)
        psi[(v, u)] += sign * rat(2, 5)
    report = kirchhoff_audit(inst, ArcField(inst.graph, psi))
    verdicts = {c.name: c.ok for c in report.checks}
    assert verdicts["arc symmetry"] and verdicts["current law at vertices"]
    assert not verdicts["potential existence"]


def test_rho_from_definition():
    # rho = (sum of X-side inflow - sum of Y-side inflow)/|boundary|
    # equals 1/2 in the standard bipartite setting.
    inst = standard_instance(path_graph(4), 1, 4)
    part = bipartition(inst.graph).oriented(1)
    total = rat(0)
    for j, v in enumerate(inst.boundary):
        sign = rat(1) if v in part.X else rat(-1)
        total += sign * inst.inflow[j]
    assert total / rat(inst.r) == rat(1, 2)


def _reference_scans(g, first):
    """The colouring conflict found by separate scans over g.edges, as
    bipartition, odd_cycle_witness, _switching and the signless audit
    each found it before _two_color returned it: (bipartition,
    odd cycle, switching signs at z = -1, parity, constant-fixing edge)
    for a boundary starting at ``first``."""
    color, parent, order, _ = _two_color(g)
    part = None
    if all(color[u] != color[v] for u, v in g.edges):
        part = (frozenset(v for v in color if color[v] == 0),
                frozenset(v for v in color if color[v] == 1))
    cycle = None
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
            cycle = path_u[:seen_u[path_v[-1]] + 1] + path_v[-2::-1]
            break
    side = color[first]
    signs = {v: -1 if color[v] != side else 1 for v in order}
    edge = next((e for e in g.edges if color[e[0]] == color[e[1]]), None)
    return part, cycle, signs, part is not None, edge


def test_one_colouring_scan_equals_reference_scans():
    # Every connected graph with n <= 6 (27475 graphs).
    count = 0
    for n in range(2, 7):
        for g in enumerate_connected(n):
            part, cycle, signs, bip, edge = _reference_scans(g, n)
            got = bipartition(g)
            assert (got and (got.X, got.Y)) == part, g.edges
            assert odd_cycle_witness(g) == cycle, g.edges
            for z in (-1, 1):
                s, odd_edge, _, _ = _switching(WalkInstance(g, (n,), (1,), z))
                assert s == (signs if z == -1 else dict.fromkeys(signs, 1))
                assert (odd_edge is None) == bip and odd_edge == edge
            count += 1
    assert count == 27475
