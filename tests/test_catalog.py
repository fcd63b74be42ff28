"""Catalog sweeps, analysis reports, and the self-test registry."""
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grwalk.catalog as catalog
import grwalk.cli as cli
import grwalk.graphs as graphs_module
import grwalk.stationary as stationary
from grwalk.catalog import analyze, gamma_graphs, rank, standard_sweep
from grwalk.factors import FactorMismatchError, closed_form_comfort
from grwalk.graphs import (Graph, WalkInstance, _pair_bits, _relabelled_masks,
                           bipartition, canonical_form, complete_graph,
                           cycle_graph, enumerate_connected,
                           standard_instance, vertex_pairs)
from grwalk.potential import bipartite_route, nonbipartite_route
from grwalk.ratlin import RatMatrix, rat


def test_rank_validation():
    with pytest.raises(ValueError):
        rank(1, -1)
    with pytest.raises(ValueError):
        rank(6, -1)
    with pytest.raises(ValueError):
        rank(4, 0)


def test_rank_n2():
    report = rank(2, -1)
    assert report.configurations == 2
    assert len(report.rows) == 1
    assert str(report.rows[0].comfort) == "1/2"
    assert report.rows[0].label == "T"


def test_rank_row_ordering_keys():
    rows = rank(4, -1).rows
    # Edge counts never increase; within an edge count, bipartite classes
    # come first with energy ascending, then non-bipartite descending.
    assert [r.edge_count for r in rows] == sorted(
        (r.edge_count for r in rows), reverse=True)
    for a, b in zip(rows, rows[1:]):
        if a.edge_count != b.edge_count:
            continue
        if a.bipartite and b.bipartite:
            assert a.comfort < b.comfort
        elif not a.bipartite and not b.bipartite:
            assert a.comfort > b.comfort
        else:
            assert a.bipartite and not b.bipartite


def test_rank_members_account_for_everything():
    report = rank(4, -1)
    assert sum(r.members for r in report.rows) == report.configurations == 456


@pytest.mark.parametrize("z, rows, ties, largest, smallest, total", [
    (-1, 39, 26, "11/4", "7/24", "179693/12"),
    (1, 55, 42, "13/5", "5/4", "11478479/462"),
])
def test_rank_n5_tables(z, rows, ties, largest, smallest, total):
    # total is the energy summed over all 14560 configurations, so one
    # wrong value anywhere in the table changes it.
    report = rank(5, z)
    comforts = [r.comfort for r in report.rows]
    assert len(report.rows) == rows
    assert report.configurations == 14560
    assert sum(r.members for r in report.rows) == 14560
    assert len(report.class_maxima) == 21
    assert len(report.tie_groups) == ties
    assert (str(max(comforts)), str(min(comforts))) == (largest, smallest)
    assert str(sum(r.comfort * r.members for r in report.rows)) == total


def _reference_rank(n, z):
    """rank as it was before it shared work across pairs and classes: one
    canonical form per graph, one closed form per ordered pair, and at
    z = +1 every z = -1 closed form, to order the class maxima."""
    classes = {}
    maxima = {}
    order_ref = {}
    total = 0
    for g in enumerate_connected(n):
        part = bipartition(g)
        lab = catalog.scattering_label(g, z)
        cid = canonical_form(g)
        for u1 in range(1, n + 1):
            for un in range(1, n + 1):
                if u1 == un:
                    continue
                comf = closed_form_comfort(g, u1, un, z)
                total += 1
                key = (g.m, part is not None, comf, lab)
                row = classes.get(key)
                if row is None:
                    classes[key] = catalog.CatalogRow(
                        g.m, part is not None, comf, lab, (g, (u1, un)),
                        frozenset([cid]), 1, frozenset([g.distance(u1, un)]))
                else:
                    row.class_ids |= {cid}
                    row.members += 1
                    row.distances |= {g.distance(u1, un)}
                best = maxima.get(cid)
                if best is None or comf > best.comfort:
                    maxima[cid] = catalog.ClassMaximum(cid, g, g.m, comf,
                                                       (u1, un))
                if z != -1:
                    ref = closed_form_comfort(g, u1, un, -1)
                    if cid not in order_ref or ref > order_ref[cid]:
                        order_ref[cid] = ref

    def row_key(item):
        (edges, bip, comf, _), _ = item
        return (-edges, not bip, comf if bip else -comf)

    rows = [row for _, row in sorted(classes.items(), key=row_key)]
    by_comf = sorted(range(len(rows)), key=lambda i: rows[i].comfort,
                     reverse=True)
    tie_groups = []
    for i in by_comf:
        if tie_groups and rows[tie_groups[-1][0]].comfort == rows[i].comfort:
            tie_groups[-1].append(i)
        else:
            tie_groups.append([i])
    if z == -1:
        order_ref = {cid: m.comfort for cid, m in maxima.items()}
    class_maxima = sorted(maxima.values(),
                          key=lambda m: (m.edge_count, order_ref[m.class_id],
                                         m.class_id))
    return catalog.RankReport(n, z, rows, tie_groups, class_maxima, total)


def _rank_fields(report):
    """Every field of a RankReport, graphs compared by their edges."""
    rows = [(r.edge_count, r.bipartite, r.comfort, r.label,
             r.representative[0].edges, r.representative[1],
             type(r.class_ids), r.class_ids, r.members,
             type(r.distances), r.distances) for r in report.rows]
    maxima = [(m.class_id, m.representative.edges, m.edge_count, m.comfort,
               m.argmax_pair) for m in report.class_maxima]
    return (report.n, report.z, rows, report.tie_groups, maxima,
            report.configurations)


@pytest.mark.parametrize("z", [-1, 1])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_rank_matches_the_reference(n, z):
    assert _rank_fields(rank(n, z)) == _rank_fields(_reference_rank(n, z))


def test_rank_shares_work_across_pairs_and_classes(monkeypatch):
    forms, closed = [], []

    def counted_form(g):
        forms.append(g)
        return canonical_form(g)

    def counted_closed(g, u1, un, z=-1):
        closed.append((g, z))
        return closed_form_comfort(g, u1, un, z)

    monkeypatch.setattr(catalog, "canonical_form", counted_form)
    monkeypatch.setattr(catalog, "closed_form_comfort", counted_closed)
    for n, classes in ((4, 6), (5, 21)):
        first = {}
        for g in enumerate_connected(n):
            first.setdefault(canonical_form(g), g)
        assert len(first) == classes
        for z in (-1, 1):
            forms.clear()
            closed.clear()
            rank(n, z)
            # One canonical form per class, and closed forms on the first
            # member only: one per unordered pair, or per u1 when signless.
            assert forms == list(first.values())
            want = Counter()
            for g in first.values():
                bip = bipartition(g) is not None
                want[g, z] = n * (n - 1) // 2 if z == 1 or bip else n
                if z == 1 and not bip:
                    want[g, -1] = n      # the z = -1 maximum orders classes
            assert Counter(closed) == want


def test_repeated_rank_does_no_per_n_work(monkeypatch):
    calls = Counter()

    def counted(name):
        real = getattr(graphs_module, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(graphs_module, name, wrapper)

    counted("enumerate_connected")
    counted("_relabelled_masks")
    graphs_module.isomorphism_classes.cache_clear()
    for z in (-1, 1):
        first = rank(5, z)
        assert calls["enumerate_connected"] == (z == -1)
        calls.clear()
        assert _rank_fields(rank(5, z)) == _rank_fields(first)
        assert calls == {}
    assert graphs_module.isomorphism_classes.cache_info().maxsize == 5


def test_first_member_of_each_class_is_its_canonical_form():
    # enumerate_connected ascends by edge mask, so the first member of each
    # isomorphism class that rank meets has the least mask of its orbit:
    # its canonical form is its own mask.  All 142 classes with n <= 6.
    classes = 0
    for n in range(2, 7):
        bits = _pair_bits(n)
        seen = set()
        for g in enumerate_connected(n):
            mask = sum(bits[u][v] for u, v in g.edges)
            if mask not in seen:
                assert canonical_form(g) == mask
                seen.update(_relabelled_masks(g))
                classes += 1
    assert classes == 142


def test_tie_groups_are_descending():
    report = rank(4, -1)
    values = [report.rows[g[0]].comfort for g in report.tie_groups]
    assert values == sorted(values, reverse=True)
    for group in report.tie_groups:
        assert len({report.rows[i].comfort for i in group}) == 1


def test_gamma_graphs_shapes():
    shapes = gamma_graphs()
    assert [g.m for g in shapes] == [3, 3, 4, 4, 5, 6]
    degs = [sorted(g.degree(v) for v in range(1, 5)) for g in shapes]
    assert degs[0] == [1, 1, 1, 3]        # star
    assert degs[1] == [1, 1, 2, 2]        # path
    assert degs[2] == [2, 2, 2, 2]        # cycle
    assert degs[3] == [1, 2, 2, 3]        # triangle with a pendant
    assert degs[4] == [2, 2, 3, 3]        # two triangles sharing an edge
    assert degs[5] == [3, 3, 3, 3]        # complete


def test_standard_sweep_structure():
    entries = list(standard_sweep(3))
    assert len(entries) == 4 * 3          # 4 graphs, 3 unordered pairs
    g, pair, configs, report = entries[0]
    assert configs[0].boundary == pair
    assert configs[1].boundary == (pair[1], pair[0])
    assert report.orthogonal


def test_analyze_nonstandard_inflow():
    inst = WalkInstance(cycle_graph(4), (1, 4), (rat(2), rat(1)), -1)
    report = analyze(inst)
    assert report.routes_agree
    names = [r.name for r in report.energy_routes]
    assert names == ["direct", "laplacian-potential"]
    assert report.factors is None
    assert report.audit is not None and report.audit.ok


def test_analyze_z_plus_one():
    for g, bip in ((cycle_graph(4), True), (complete_graph(4), False)):
        report = analyze(standard_instance(g, 1, 4, z=1))
        assert report.routes_agree and report.bipartite == bip
        names = [r.name for r in report.energy_routes]
        assert names == ["direct", "closed-form", "laplacian-potential"]
        assert report.audit is not None and report.audit.ok
        assert any(c.name == "per-vertex sum constancy"
                   for c in report.audit.checks)
        assert report.classification == "grover"
        assert report.scattering_ok and report.ok


@pytest.mark.parametrize("z", [-1, 1])
def test_analyze_ok_needs_the_predicted_scattering(z, monkeypatch):
    # A prediction that sigma cannot meet must fail analyze, at both phases;
    # the energy routes and the audit are untouched by it.
    def wrong(inst):
        tau = RatMatrix.identity(inst.r)
        tau.data[0][0] = rat(-1)
        return tau

    inst = standard_instance(cycle_graph(4), 1, 4, z=z)
    assert analyze(inst).ok
    monkeypatch.setattr(stationary, "predicted_scattering", wrong)
    report = analyze(inst)
    assert report.routes_agree and report.audit.ok
    assert not report.scattering_ok and not report.ok


def test_analyze_r3():
    inst = WalkInstance(complete_graph(4), (1, 2, 4),
                        (rat(1), rat(0), rat(0)), -1)
    report = analyze(inst)
    assert report.routes_agree and report.factors is None
    assert report.sigma.is_identity()
    assert [r.name for r in report.energy_routes] == \
        ["direct", "signless-potential"]


def test_selftest_suites_share_one_sweep(monkeypatch):
    # Only n <= 3 is swept, to keep the test fast; the four sweep suites
    # must ask for the catalog once per selftest() run, and the next run
    # must sweep afresh.
    swept = []

    def small_sweep(n, z=-1):
        swept.append(n)
        return standard_sweep(n, z) if n <= 3 else iter(())

    monkeypatch.setattr(catalog, "standard_sweep", small_sweep)
    suites = [entry for entry in catalog.SELFTEST_SUITES if entry[0] in
              ("three-route-agreement", "scattering-theorem",
               "kirchhoff-audits", "simulator-convergence")]
    monkeypatch.setattr(catalog, "SELFTEST_SUITES", suites)
    for _ in range(2):
        swept.clear()
        results = catalog.selftest()
        assert swept == [2, 3, 4, 5]
        assert all(r.ok for r in results)
        assert results[1].detail == "13 pairs checked, 0 failures"


@st.composite
def random_instances(draw):
    """A connected graph on n <= 7 vertices, 1..min(3, n) tails with
    rational inflows (zeros included) and either phase."""
    n = draw(st.integers(2, 7))
    edges = {(draw(st.integers(1, v - 1)), v) for v in range(2, n + 1)}
    others = [p for p in vertex_pairs(n) if p not in edges]
    extra = draw(st.lists(st.sampled_from(others), unique=True,
                          max_size=min(len(others), 6))
                 if others else st.just([]))
    g = Graph(n, sorted(edges | set(extra)))
    r = draw(st.integers(1, min(3, n)))
    boundary = draw(st.permutations(range(1, n + 1)))[:r]
    values = st.just(rat(0)) | st.fractions(-3, 3, max_denominator=4)
    inflow = [draw(values) for _ in range(r)]
    return WalkInstance(g, boundary, inflow, draw(st.sampled_from((-1, 1))))


@given(random_instances())
@settings(max_examples=100, deadline=None)
def test_potential_route_on_random_instances(inst):
    report = analyze(inst)
    assert report.ok and report.audit is not None
    direct, *_, potential = report.energy_routes
    if inst.phase == -1 and not report.bipartite:
        assert potential.name == "signless-potential"
        _, psi, energy = nonbipartite_route(inst)
    else:
        assert potential.name == "laplacian-potential"
        _, psi, energy = bipartite_route(inst)
    assert potential.value == energy == direct.value
    assert psi == report.psi


def test_selftest_registry_and_cli_exit(monkeypatch, capsys):
    names = [name for name, _ in catalog.SELFTEST_SUITES]
    assert "kirchhoff-audits" in names and "factor-oracles" in names
    assert len(names) == len(set(names)) >= 7

    stub_pass = [("alpha", lambda sweep: (True, "fine")),
                 ("beta", lambda sweep: (True, "fine"))]
    monkeypatch.setattr(catalog, "SELFTEST_SUITES", stub_pass)
    results = catalog.selftest()
    assert all(r.ok for r in results)

    class FakeArgs:
        pass

    monkeypatch.setattr(cli, "selftest", catalog.selftest)
    assert cli.cmd_selftest(FakeArgs()) == 0
    assert "2/2 suites passed" in capsys.readouterr().out

    stub_fail = stub_pass + [("gamma", lambda sweep: (False, "broken")),
                             ("delta", lambda sweep: 1 / 0)]
    monkeypatch.setattr(catalog, "SELFTEST_SUITES", stub_fail)
    assert cli.cmd_selftest(FakeArgs()) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "raised ZeroDivisionError" in out

    # A failed check is a FAIL line; a programming error propagates.
    def mismatch(sweep):
        raise FactorMismatchError("chi1", 16, 15)

    monkeypatch.setattr(catalog, "SELFTEST_SUITES",
                        stub_pass + [("epsilon", mismatch)])
    results = catalog.selftest()
    assert [r.ok for r in results] == [True, True, False]
    assert results[-1].detail.startswith("raised FactorMismatchError")
    for error, suite in [(TypeError, lambda sweep: len(sweep)),
                         (AttributeError, lambda sweep: sweep.records)]:
        monkeypatch.setattr(catalog, "SELFTEST_SUITES",
                            stub_pass + [("zeta", suite)])
        with pytest.raises(error):
            catalog.selftest()


def _no_sweep():
    raise AssertionError("this suite must not sweep the catalog")


# The detail line of each self-test suite that does not read the sweep.
_SWEEPLESS_SUITES = {
    "worked-values":
        "classes=['5/12', '3/4', '1/2', '19/16', '5/4', '7/4', '3/4', '1', "
        "'5/4', '3/2'] labels=['R', 'R', 'R', 'T', 'T', 'R', 'R', 'T', 'T', "
        "'T']",
    "factor-oracles": "771 graphs, 0 oracle mismatches",
    "incidence-determinants": "odd cycles give +-2, even cycles give 0",
}


@pytest.mark.parametrize("name", _SWEEPLESS_SUITES)
def test_suites_without_the_sweep(name):
    suite = dict(catalog.SELFTEST_SUITES)[name]
    assert suite(_no_sweep) == (True, _SWEEPLESS_SUITES[name])


def test_factor_oracle_suite_counts_a_mismatching_graph(monkeypatch):
    # Only K4 mismatches: one graph of 771, however many pairs it has.
    real = catalog.two_forest_count

    def mismatch_on_k4(g, u, v, method="both"):
        if (g.n, g.m) == (4, 6):
            raise FactorMismatchError("chi2", 8, 7)
        return real(g, u, v, method=method)

    monkeypatch.setattr(catalog, "two_forest_count", mismatch_on_k4)
    suite = dict(catalog.SELFTEST_SUITES)["factor-oracles"]
    assert suite(_no_sweep) == (False, "771 graphs, 1 oracle mismatches")
