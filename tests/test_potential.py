"""Poisson routes, incidence identities, and Kirchhoff audits."""
import pytest

from grwalk.graphs import (Graph, WalkInstance, bipartition, complete_graph,
                           cycle_graph, path_graph, standard_instance)
from grwalk.potential import (bipartite_route, fundamental_cycles,
                              incidence_nonoriented, incidence_oriented,
                              kirchhoff_audit, laplacian, nonbipartite_route,
                              signless_laplacian)
from grwalk.ratlin import RatMatrix, rat
from grwalk.stationary import comfortability_direct, stationary_state, \
    with_inflow


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


def test_fundamental_cycles():
    g = cycle_graph(5)
    cycles = fundamental_cycles(g)
    assert len(cycles) == g.m - g.n + 1 == 1
    assert len(cycles[0]) == 5
    for o, t in cycles[0]:
        assert g.has_edge(o, t)
    # Consecutive arcs chain head to tail and the cycle closes.
    for (o1, t1), (o2, t2) in zip(cycles[0], cycles[0][1:] + cycles[0][:1]):
        assert t1 == o2
    assert len(fundamental_cycles(complete_graph(4))) == 3


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
    from grwalk.stationary import ArcField
    assert not kirchhoff_audit(inst, ArcField(g, broken)).ok


def test_kirchhoff_audit_propagates_residual_failures(monkeypatch):
    # The audit's potential comes from the signless route's solve; a
    # solver fault (nonzero residual) must not be reported as a finding.
    inst = standard_instance(complete_graph(4), 1, 4)
    psi = stationary_state(inst)

    def faulty_solve(self, b):
        raise RuntimeError("exact solver produced a nonzero residual")

    monkeypatch.setattr(RatMatrix, "solve", faulty_solve)
    with pytest.raises(RuntimeError, match="nonzero residual"):
        kirchhoff_audit(inst, psi)


def test_kirchhoff_audit_detects_corruption():
    inst = standard_instance(cycle_graph(4), 1, 4)
    psi = stationary_state(inst)
    broken = dict(psi.values)
    a = inst.graph.arcs[0]
    broken[a] = broken[a] + rat(1, 7)
    from grwalk.stationary import ArcField
    report = kirchhoff_audit(inst, ArcField(inst.graph, broken))
    assert not report.ok and report.failures()


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
